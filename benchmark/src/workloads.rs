//! The four end-to-end workloads. Each drives the real `repro` binary —
//! figure regeneration as a process per operation, `repro serve` as a
//! daemon answering one request per operation — and checks every output
//! against the goldens in the same breath.
//!
//! All loops are closed: whoever regenerates figures or asks a lookup
//! service waits for the answer before asking again. Load comes from
//! `T = min(nproc, 4)` clients (figure runs go one process at a time,
//! with `--threads T`). A run is a set-up, then whole *passes* over a
//! fixed work list for `--seconds`; the seed only reorders a list.

use crate::gen::{self, Request};
use crate::json::{self, Value};
use crate::proc::{self, ServeProc};
use crate::stats;
use crate::trace::Tracer;
use pdesched_core::Variant;
use pdesched_machine::TrafficCache;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Warm figure runs per pass of `figs_warm` (a run takes milliseconds;
/// a pass should be long enough for its throughput to mean something).
const WARM_RUNS_PER_PASS: usize = 50;
/// Untimed warm runs at the end of the `figs_warm` set-up.
const WARM_WARMUP_RUNS: usize = 20;

pub const GOLDEN_DIR: &str = "benchmark/golden";

/// Expected outputs, written by `run.sh --bless`.
pub struct Goldens {
    /// stdout of `repro --fast fig2`, cold or warm.
    pub figs_stdout: Vec<u8>,
    /// Sorted entry lines of the store one cold pass leaves.
    pub figs_store: String,
    /// Request line -> ranked `(name, seconds)` of its reply.
    pub answers: HashMap<String, Vec<(String, f64)>>,
    /// The store a drained `serve_cold` pass leaves, byte for byte.
    pub serve_store: Vec<u8>,
}

impl Goldens {
    pub fn load() -> Result<Goldens, String> {
        let read = |name: &str| {
            std::fs::read(Path::new(GOLDEN_DIR).join(name))
                .map_err(|e| format!("{GOLDEN_DIR}/{name}: {e} (run.sh --bless writes it)"))
        };
        let text = |name: &str| {
            String::from_utf8(read(name)?).map_err(|_| format!("{GOLDEN_DIR}/{name}: not UTF-8"))
        };
        let mut answers = HashMap::new();
        for line in text("serve_answers.jsonl")?.lines() {
            let v = json::parse(line).map_err(|e| format!("serve_answers.jsonl: {e}"))?;
            let req = v.get("request").and_then(Value::as_str).ok_or("golden without request")?;
            let ranked = ranked_variants(&v).ok_or("golden without variants")?;
            answers.insert(req.to_string(), ranked);
        }
        Ok(Goldens {
            figs_stdout: read("figs_fast.txt")?,
            figs_store: text("figs_fast.store")?,
            answers,
            serve_store: read("serve.store")?,
        })
    }
}

/// `(name, seconds)` of each entry of a reply's (or golden's) `variants`.
fn ranked_variants(v: &Value) -> Option<Vec<(String, f64)>> {
    v.get("variants")?
        .as_arr()?
        .iter()
        .map(|e| Some((e.get("name")?.as_str()?.to_string(), e.get("seconds")?.as_f64()?)))
        .collect()
}

/// Pass/fail tally of every output check; the first few failures keep
/// their message for the log.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    notes: Vec<String>,
}

impl Checks {
    /// Count one operation; `Err` explains what was wrong with it.
    pub fn op(&mut self, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(()) => true,
            Err(why) => {
                self.failed += 1;
                if self.notes.len() < 8 {
                    self.notes.push(why);
                }
                false
            }
        }
    }

    /// A check that is not an operation (a store comparison, an exit
    /// code): it can only add failures.
    pub fn also(&mut self, outcome: Result<(), String>) {
        if let Err(why) = outcome {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(why);
            }
        }
    }

    /// Fold in the checks of set-up work: its failures fail the run, but
    /// its operations are not timed ones and are not counted.
    pub fn absorb_setup(&mut self, other: Checks) {
        self.failed += other.failed;
        self.notes.extend(other.notes);
        self.notes.truncate(8);
    }

    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
        self.notes.truncate(8);
    }

    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}

/// Everything one run of one workload measured.
#[derive(Default)]
pub struct Outcome {
    pub setup_s: f64,
    /// Latency of every timed operation, ms.
    pub latencies_ms: Vec<f64>,
    /// Correct operations per second of each pass.
    pub pass_ops_per_s: Vec<f64>,
    /// Timed operations whose output checks all passed.
    pub correct_ops: u64,
    /// Wall time of all timed windows together, s.
    pub window_s: f64,
    /// `VmHWM` of every measured `repro` process, MB.
    pub rss_mb: Vec<f64>,
    /// `/proc/stat` steal share of the timed phase.
    pub steal_share: f64,
    /// CPU time of the measured `repro` processes, ms.
    pub cpu_ms: f64,
    /// Client view of the operations: time spent waiting for the first
    /// byte of the answer, and whole round trips, ms.
    pub wait_ms: f64,
    pub round_trip_ms: f64,
    /// Store appends found merged by the write race (finding 5): the
    /// run is still correct bit for bit, but `--compare` refuses a set
    /// that saw one.
    pub torn_appends: u64,
    pub checks: Checks,
}

impl Outcome {
    /// Fold in what the clients of one pass (or one client) saw.
    fn absorb_clients(&mut self, seen: Outcome) {
        self.latencies_ms.extend(seen.latencies_ms);
        self.correct_ops += seen.correct_ops;
        self.wait_ms += seen.wait_ms;
        self.round_trip_ms += seen.round_trip_ms;
        self.checks.absorb(seen.checks);
    }

    /// The gated latency: lower quartile over all timed operations.
    pub fn p25_ms(&self) -> f64 {
        stats::quantile(&self.latencies_ms, 0.25)
    }

    /// The gated throughput: the median over the run's passes of correct
    /// operations per second of pass. A burst of host interference slows
    /// a few passes and moves the whole-window mean with them (18 % from
    /// run to run on `figs_warm` where the median latency moved 4 %); the
    /// median pass only moves when most of the run was slow.
    pub fn ops_per_s(&self) -> f64 {
        stats::median_interp(&self.pass_ops_per_s)
    }

    /// Correct operations per second of the whole timed window: printed
    /// beside the gated median, never gated.
    pub fn mean_ops_per_s(&self) -> f64 {
        self.correct_ops as f64 / self.window_s
    }

    /// The gated memory: highest `VmHWM` of any measured process.
    pub fn peak_rss_mb(&self) -> f64 {
        self.rss_mb.iter().copied().fold(0.0, f64::max)
    }
}

pub struct Ctx<'a> {
    pub repro: &'a Path,
    /// A directory of this run's own, under `benchmark/out/`.
    pub scratch: &'a Path,
    pub seed: u64,
    pub seconds: f64,
    pub threads: usize,
    pub tracer: &'a Tracer,
    pub goldens: &'a Goldens,
}

pub fn run(workload: &str, ctx: &Ctx) -> Outcome {
    match workload {
        "figs_cold" => figs_cold(ctx),
        "figs_warm" => figs_warm(ctx),
        "serve_warm" => serve_warm(ctx),
        "serve_cold" => serve_cold(ctx),
        other => panic!("unknown workload {other}"),
    }
}

/// The timed phase of a run: whole passes for `--seconds`.
struct Phase {
    start: Instant,
    jiffies: (u64, u64),
    seconds: f64,
}

impl Phase {
    fn start(ctx: &Ctx) -> Phase {
        Phase { start: Instant::now(), jiffies: proc::cpu_jiffies(), seconds: ctx.seconds }
    }

    /// Whether another pass still fits: passes are whole, so the phase
    /// ends at the last pass boundary expected before `--seconds` (going
    /// by the mean pass so far, restarts between passes included).
    fn another_pass(&self, passes: usize) -> bool {
        let elapsed = self.start.elapsed().as_secs_f64();
        passes == 0 || elapsed + elapsed / passes as f64 <= self.seconds
    }

    fn end(self, out: &mut Outcome) {
        out.steal_share = proc::steal_share(self.jiffies, proc::cpu_jiffies());
    }
}

// ---------------------------------------------------------------- figures

/// `repro --fast --threads T --store STORE fig2`.
fn run_fig2(repro: &Path, threads: usize, store: &Path) -> proc::RunResult {
    let (threads, store) = (threads.to_string(), store.to_string_lossy());
    proc::run_repro(repro, &["--fast", "--threads", &threads, "--store", &store, "fig2"])
}

/// The sorted entry lines of a store file (header dropped).
pub fn sorted_entries(store: &Path) -> String {
    let text = std::fs::read_to_string(store).unwrap_or_default();
    let mut lines: Vec<&str> = entry_lines(&text).collect();
    lines.sort_unstable();
    lines.join("\n")
}

fn entry_lines(store_text: &str) -> impl Iterator<Item = &str> {
    store_text.lines().filter(|l| !l.is_empty() && !l.starts_with('#'))
}

/// How many appends of a store were *torn* — `Some(0)` when its sorted
/// entry lines are exactly `golden`, `Some(k)` when they are once k
/// merged lines are cut apart again, `None` when the entries differ.
///
/// `TrafficCache` appends an entry with `writeln!` on an unbuffered
/// `File`, which is two `write`s (payload, newline); two sweep threads
/// finishing within microseconds interleave them into one merged line
/// and an empty one (README finding 5; about one `fig2` pass in 50–100
/// here). Every byte of every measurement is still there, so the
/// bit-identity oath is checked on the un-merged lines. A torn store is
/// not counted into `failed` — the driver's contract wants workloads on
/// which no operation fails, and this race would fail one run in ten —
/// but it is printed, recorded per run by `--runs`, and `--compare`
/// exits non-zero on a set that saw one.
pub fn torn_appends(store_text: &str, golden: &str) -> Option<usize> {
    let mut unused: Vec<&str> = golden.lines().collect();
    let mut torn = 0;
    for line in entry_lines(store_text) {
        let (mut rest, mut pieces) = (line, 0);
        while !rest.is_empty() {
            let i = unused.iter().position(|g| rest.starts_with(g))?;
            rest = &rest[unused.swap_remove(i).len()..];
            pieces += 1;
        }
        torn += pieces - 1;
    }
    unused.is_empty().then_some(torn)
}

/// One `repro --fast --threads T --store STORE fig2` run, timed and
/// checked: exit 0 and stdout equal to the golden figure.
fn figs_run(ctx: &Ctx, store: &Path, out: &mut Outcome, timed: bool) -> f64 {
    let span = ctx.tracer.begin(0, "proc.run", "proc");
    let r = run_fig2(ctx.repro, ctx.threads, store);
    ctx.tracer.end(span, 1);
    let verdict = if r.reaped.code != 0 {
        Err(format!("repro fig2 exited {}", r.reaped.code))
    } else if r.stdout != ctx.goldens.figs_stdout {
        Err("repro fig2 stdout differs from golden/figs_fast.txt".to_string())
    } else {
        Ok(())
    };
    if timed {
        out.correct_ops += out.checks.op(verdict) as u64;
        out.latencies_ms.push(r.wall_ms);
        out.rss_mb.push(r.reaped.peak_rss_mb);
        out.cpu_ms += r.reaped.cpu_ms;
        out.wait_ms += r.wall_ms - r.spawn_ms;
        out.round_trip_ms += r.wall_ms;
    } else {
        out.checks.also(verdict);
    }
    r.wall_ms
}

/// A cold pass: fresh directory, one run, and the store it leaves must
/// hold exactly the golden entries (bit-identical traffic). Returns the
/// run's wall time in ms.
fn cold_pass(ctx: &Ctx, dir: &Path, out: &mut Outcome, timed: bool) -> f64 {
    let _ = std::fs::remove_dir_all(dir);
    let store = dir.join("store.txt");
    let ms = figs_run(ctx, &store, out, timed);
    let text = std::fs::read_to_string(&store).unwrap_or_default();
    match torn_appends(&text, &ctx.goldens.figs_store) {
        Some(torn) => out.torn_appends += torn as u64,
        None => {
            // Keep the evidence: the scratch directory is removed at exit.
            let kept = format!("benchmark/out/mismatch-{}.store", std::process::id());
            let _ = std::fs::write(&kept, &text);
            out.checks
                .also(Err(format!("cold store differs from golden/figs_fast.store (kept {kept})")));
        }
    }
    ms
}

fn figs_cold(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let t0 = Instant::now();
    // Set-up: one full untimed pass (binary and libraries paged in,
    // clocks ramped) — the same fixed work as a timed pass.
    cold_pass(ctx, &ctx.scratch.join("warmup"), &mut out, false);
    out.setup_s = t0.elapsed().as_secs_f64();

    let phase = Phase::start(ctx);
    while phase.another_pass(out.pass_ops_per_s.len()) {
        let dir = ctx.scratch.join(format!("pass{}", out.pass_ops_per_s.len()));
        let correct = out.correct_ops;
        let ms = cold_pass(ctx, &dir, &mut out, true);
        let _ = std::fs::remove_dir_all(&dir);
        out.window_s += ms / 1e3;
        out.pass_ops_per_s.push((out.correct_ops - correct) as f64 * 1e3 / ms);
    }
    phase.end(&mut out);
    out
}

/// Append [`gen::FILLER_ENTRIES`] tiny points to `store` through
/// `TrafficCache::get`, so the store's format stays the program's own.
/// This is the body of the harness's `--fill-store` mode.
pub fn fill_store(store: &Path, seed: u64) {
    let cache = TrafficCache::with_store(store);
    assert!(!cache.store_read_only(), "filler store is locked by someone else");
    for cfg in gen::filler_configs(seed, gen::FILLER_ENTRIES) {
        cache.get(Variant::baseline(), gen::FILLER_N, &cfg);
    }
    assert_eq!(cache.stats().store_errors, 0, "filler appends failed");
}

/// Run [`fill_store`] in a child harness, for two reasons. The store's
/// lock file names its last writer, and `repro` honours a *living* pid in
/// it (it would open the store read-only and exit 13): a writer that has
/// exited hands the store over the way a previous `repro` run does. And
/// `wait4` reports a child's peak RSS as at least its parent's at spawn
/// time (the child runs in a copy of the parent's address space until it
/// execs), so the process that spawns measured `repro` runs must stay
/// smaller than they are — it cannot simulate 5,000 points itself.
fn fill_store_in_child(store: &Path, seed: u64) {
    let me = std::env::current_exe().expect("path of the harness");
    let status = std::process::Command::new(me)
        .arg("--fill-store")
        .arg(store)
        .args(["--seed", &seed.to_string()])
        .status()
        .expect("spawn the filler child");
    assert!(status.success(), "filler child failed: {status}");
}

pub fn entry_count(store: &Path) -> usize {
    std::fs::read_to_string(store).map(|t| entry_lines(&t).count()).unwrap_or(0)
}

fn figs_warm(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let t0 = Instant::now();
    // Set-up: the cold priming pass puts the figure's 16 points in the
    // store, the filler makes it the size of a long-lived one, and a
    // few warm runs page everything in.
    let dir = ctx.scratch.join("warm");
    let store = dir.join("store.txt");
    cold_pass(ctx, &dir, &mut out, false);
    fill_store_in_child(&store, ctx.seed);
    for _ in 0..WARM_WARMUP_RUNS {
        figs_run(ctx, &store, &mut out, false);
    }
    let entries = entry_count(&store);
    out.setup_s = t0.elapsed().as_secs_f64();

    let phase = Phase::start(ctx);
    while phase.another_pass(out.pass_ops_per_s.len()) {
        let correct = out.correct_ops;
        let pass = Instant::now();
        for _ in 0..WARM_RUNS_PER_PASS {
            figs_run(ctx, &store, &mut out, true);
        }
        let secs = pass.elapsed().as_secs_f64();
        out.window_s += secs;
        out.pass_ops_per_s.push((out.correct_ops - correct) as f64 / secs);
    }
    phase.end(&mut out);
    let after = entry_count(&store);
    let points = ctx.goldens.figs_store.lines().count();
    if after != entries || entries != points + gen::FILLER_ENTRIES {
        out.checks.also(Err(format!(
            "warm store changed size: {entries} entries before the timed runs, {after} after"
        )));
    }
    out
}

// ------------------------------------------------------------------ serve

/// When each stage of one request/reply happened.
pub struct Exchange {
    pub reply: String,
    pub start: Instant,
    pub written: Instant,
    pub first_byte: Instant,
    pub done: Instant,
}

impl Exchange {
    pub fn ms(&self) -> f64 {
        (self.done - self.start).as_secs_f64() * 1e3
    }
}

/// A plain blocking client connection: `TCP_NODELAY`, one `write` per
/// request, nothing else tuned.
pub struct Conn {
    stream: TcpStream,
    pub connect_ms: f64,
}

impl Conn {
    pub fn open(port: u16) -> std::io::Result<Conn> {
        let t0 = Instant::now();
        let stream = TcpStream::connect(("127.0.0.1", port))?;
        stream.set_nodelay(true)?;
        // A wedged server fails the run instead of hanging it.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn { stream, connect_ms: t0.elapsed().as_secs_f64() * 1e3 })
    }

    /// Send one request line, read one reply line.
    pub fn ask(&mut self, line: &str) -> std::io::Result<Exchange> {
        let mut msg = Vec::with_capacity(line.len() + 1);
        msg.extend_from_slice(line.as_bytes());
        msg.push(b'\n');
        let start = Instant::now();
        self.stream.write_all(&msg)?;
        let written = Instant::now();
        let mut reply = Vec::with_capacity(2048);
        let mut chunk = [0u8; 4096];
        let mut first_byte = None;
        loop {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            first_byte.get_or_insert_with(Instant::now);
            reply.extend_from_slice(&chunk[..n]);
            if reply.last() == Some(&b'\n') {
                break;
            }
        }
        let done = Instant::now();
        reply.pop();
        Ok(Exchange {
            reply: String::from_utf8_lossy(&reply).into_owned(),
            start,
            written,
            first_byte: first_byte.unwrap_or(done),
            done,
        })
    }
}

/// Check one reply: parses, is `ok`, ranks the golden's names with the
/// golden's seconds, and (when `source` is given) every variant says it
/// came from there.
pub fn check_reply(
    goldens: &Goldens,
    request: &str,
    reply: &str,
    source: Option<&str>,
) -> Result<(), String> {
    let v = json::parse(reply).map_err(|e| format!("{request}: unparsable reply ({e})"))?;
    if v.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(format!("{request}: not ok: {reply}"));
    }
    let got = ranked_variants(&v).ok_or(format!("{request}: reply without variants"))?;
    let want = goldens.answers.get(request).ok_or(format!("{request}: no golden answer"))?;
    if &got != want {
        return Err(format!("{request}: ranked {got:?}, golden {want:?}"));
    }
    if let Some(source) = source {
        let all = v.get("variants").and_then(Value::as_arr).is_some_and(|vars| {
            vars.iter().all(|e| e.get("source").and_then(Value::as_str) == Some(source))
        });
        if !all {
            return Err(format!("{request}: expected every source to be {source}: {reply}"));
        }
    }
    Ok(())
}

/// One pass: `conns.len()` client threads pull request indices from
/// `order` through a shared cursor until it is drained; every reply is
/// checked against the goldens with the expected `source`. Returns what
/// the clients saw (latencies, waits, checks) and the pass's wall time
/// in seconds.
fn walk(
    ctx: &Ctx,
    conns: &mut [Conn],
    requests: &[Request],
    order: &[usize],
    source: Option<&str>,
) -> (Outcome, f64) {
    let lines: Vec<String> = requests.iter().map(Request::line).collect();
    let cursor = AtomicUsize::new(0);
    let tally = Mutex::new(Outcome::default());
    let pass_span = ctx.tracer.begin(0, "pass", "client");
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for conn in conns.iter_mut() {
            s.spawn(|| {
                let mut mine = Outcome::default();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&req) = order.get(i) else { break };
                    let line = &lines[req];
                    match conn.ask(line) {
                        Ok(x) => {
                            let verdict = check_reply(ctx.goldens, line, &x.reply, source);
                            mine.correct_ops += mine.checks.op(verdict) as u64;
                            mine.latencies_ms.push(x.ms());
                            mine.wait_ms += (x.first_byte - x.written).as_secs_f64() * 1e3;
                            mine.round_trip_ms += x.ms();
                            record_exchange(ctx.tracer, pass_span, &x);
                        }
                        Err(e) => {
                            mine.checks.op(Err(format!("{line}: {e}")));
                        }
                    }
                }
                tally.lock().unwrap_or_else(|e| e.into_inner()).absorb_clients(mine);
            });
        }
    });
    let secs = t0.elapsed().as_secs_f64();
    ctx.tracer.end(pass_span, order.len() as u64);
    (tally.into_inner().unwrap_or_else(|e| e.into_inner()), secs)
}

/// `request` = `write` + `wait` (first byte) + `read` (to the newline).
pub fn record_exchange(tracer: &Tracer, parent: u32, x: &Exchange) {
    if !tracer.enabled() {
        return;
    }
    let req = tracer.record(parent, "request", "client", x.start, x.done, x.reply.len() as u64);
    tracer.record(req, "write", "client.write", x.start, x.written, 1);
    tracer.record(req, "wait", "client.wait", x.written, x.first_byte, 1);
    tracer.record(req, "read", "client.read", x.first_byte, x.done, 1);
}

fn connect_all(port: u16, n: usize) -> Vec<Conn> {
    (0..n).map(|_| Conn::open(port).expect("connect to repro serve")).collect()
}

fn merge_pass(out: &mut Outcome, tally: Outcome, secs: f64) {
    out.pass_ops_per_s.push(tally.correct_ops as f64 / secs);
    out.window_s += secs;
    out.absorb_clients(tally);
}

/// Stop a server and hold it to its contract: exit code 10 after a
/// drain. Folds its peak RSS and CPU time into `out`.
fn stop_server(server: ServeProc, out: &mut Outcome) {
    let reaped = server.stop();
    if reaped.code != 10 {
        out.checks.also(Err(format!("repro serve exited {} after SIGTERM, not 10", reaped.code)));
    }
    out.rss_mb.push(reaped.peak_rss_mb);
    out.cpu_ms += reaped.cpu_ms;
}

fn serve_warm(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let requests = gen::warm_requests();
    let t0 = Instant::now();
    // Set-up: a long-lived store's worth of filler; a daemon of its own
    // that primes it by simulating every distinct request once (the only
    // simulations this workload runs) and drains; then the measured
    // daemon on the primed store, up to a first checked reply on every
    // connection. The measured process only ever answers warm, so its
    // peak RSS does not depend on which priming simulations overlapped.
    let store = ctx.scratch.join("store.txt");
    fill_store_in_child(&store, ctx.seed);
    let every: Vec<usize> = (0..requests.len()).collect();
    {
        let primer = ServeProc::spawn(ctx.repro, &store, ctx.threads);
        let mut conns = connect_all(primer.port, ctx.threads);
        let (primed, _) = walk(ctx, &mut conns, &requests, &every, None);
        out.checks.absorb_setup(primed.checks);
        drop(conns);
        stop_server(primer, &mut out);
    }
    (out.rss_mb, out.cpu_ms) = (Vec::new(), 0.0);
    let (want, primed) = (gen::FILLER_ENTRIES + gen::distinct_keys(&requests), entry_count(&store));
    if primed != want {
        out.checks.also(Err(format!("primed store holds {primed} entries, not {want}")));
    }
    let server = ServeProc::spawn(ctx.repro, &store, ctx.threads);
    let mut conns = connect_all(server.port, ctx.threads);
    let (first, _) = walk(ctx, &mut conns, &requests, &every[..ctx.threads], Some("warm"));
    out.checks.absorb_setup(first.checks);
    out.setup_s = t0.elapsed().as_secs_f64();

    let phase = Phase::start(ctx);
    while phase.another_pass(out.pass_ops_per_s.len()) {
        let order = gen::warm_pass_order(ctx.seed, out.pass_ops_per_s.len());
        let (tally, secs) = walk(ctx, &mut conns, &requests, &order, Some("warm"));
        merge_pass(&mut out, tally, secs);
    }
    phase.end(&mut out);
    drop(conns);
    stop_server(server, &mut out);
    // A warm store may not grow: nothing the timed window asked was new.
    let after = entry_count(&store);
    if after != want {
        out.checks.also(Err(format!("warm store holds {after} entries after the run, not {want}")));
    }
    out
}

fn serve_cold(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let t0 = Instant::now();
    // Set-up: pick and validate the key-disjoint lists, then walk the
    // warm-up list on a server of its own.
    let (timed, warmup) = gen::cold_lists();
    {
        let server = ServeProc::spawn(ctx.repro, &ctx.scratch.join("warmup.txt"), ctx.threads);
        let mut conns = connect_all(server.port, ctx.threads);
        let every: Vec<usize> = (0..warmup.len()).collect();
        let (tally, _) = walk(ctx, &mut conns, &warmup, &every, Some("sim"));
        out.checks.absorb_setup(tally.checks);
        drop(conns);
        stop_server(server, &mut out);
    }
    // The warm-up server is not a measured process.
    (out.rss_mb, out.cpu_ms) = (Vec::new(), 0.0);
    let order = gen::cold_order(&timed, ctx.seed);
    out.setup_s = t0.elapsed().as_secs_f64();

    let phase = Phase::start(ctx);
    while phase.another_pass(out.pass_ops_per_s.len()) {
        // Restart outside the timed window: fresh store, fresh daemon,
        // fresh connections.
        let store = ctx.scratch.join(format!("pass{}.txt", out.pass_ops_per_s.len()));
        let server = ServeProc::spawn(ctx.repro, &store, ctx.threads);
        let mut conns = connect_all(server.port, ctx.threads);
        let (tally, secs) = walk(ctx, &mut conns, &timed, &order, Some("sim"));
        merge_pass(&mut out, tally, secs);
        drop(conns);
        stop_server(server, &mut out);
        if std::fs::read(&store).unwrap_or_default() != ctx.goldens.serve_store {
            out.checks.also(Err("drained cold store differs from golden/serve.store".to_string()));
        }
    }
    phase.end(&mut out);
    out
}

// ------------------------------------------------------------------ bless

/// Rewrite the goldens from what the program answers now.
pub fn bless(repro: &Path, scratch: &Path, threads: usize) {
    let golden = PathBuf::from(GOLDEN_DIR);
    std::fs::create_dir_all(&golden).expect("create golden dir");

    // Two cold passes must leave the same entries: a single one could
    // bless a store with a torn append in it.
    let cold = |tag: &str| {
        let store = scratch.join(tag).join("store.txt");
        let r = run_fig2(repro, threads, &store);
        assert_eq!(r.reaped.code, 0, "repro fig2 failed");
        (r.stdout, sorted_entries(&store))
    };
    let (stdout, entries) = cold("figs1");
    assert!(
        cold("figs2") == (stdout.clone(), entries.clone()),
        "two cold passes disagree; bless again"
    );
    std::fs::write(golden.join("figs_fast.txt"), &stdout).expect("write golden");
    std::fs::write(golden.join("figs_fast.store"), &entries).expect("write golden");

    let (timed, warmup) = gen::cold_lists();
    let mut answers = String::new();
    {
        let server = ServeProc::spawn(repro, &scratch.join("answers.txt"), threads);
        let mut conn = Conn::open(server.port).expect("connect");
        for req in gen::warm_requests().iter().chain(&timed).chain(&warmup) {
            let x = conn.ask(&req.line()).expect("ask");
            let v = json::parse(&x.reply).expect("reply parses");
            assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{}", x.reply);
            let ranked: Vec<String> = ranked_variants(&v)
                .expect("reply has variants")
                .iter()
                .map(|(name, s)| {
                    format!("{{\"name\":{},\"seconds\":{}}}", json::quote(name), json::num(*s))
                })
                .collect();
            answers.push_str(&format!(
                "{{\"request\":{},\"variants\":[{}]}}\n",
                json::quote(&req.line()),
                ranked.join(",")
            ));
        }
        drop(conn);
        assert_eq!(server.stop().code, 10);
    }
    std::fs::write(golden.join("serve_answers.jsonl"), answers).expect("write golden");

    let cold_store = scratch.join("cold.txt");
    let server = ServeProc::spawn(repro, &cold_store, threads);
    let mut conn = Conn::open(server.port).expect("connect");
    for req in &timed {
        conn.ask(&req.line()).expect("ask");
    }
    drop(conn);
    assert_eq!(server.stop().code, 10);
    std::fs::copy(&cold_store, golden.join("serve.store")).expect("write golden");
    println!(
        "blessed {GOLDEN_DIR}/{{figs_fast.txt,figs_fast.store,serve_answers.jsonl,serve.store}}"
    );
}

#[cfg(test)]
mod tests {
    use super::torn_appends;

    #[test]
    fn torn_appends_are_cut_apart_and_nothing_else_is_forgiven() {
        let golden = "a/k1 sim 1 aa\nb/k2 sim 2 bb\nc/k3 sim 3 cc";
        let store = |body: &str| format!("# header\n{body}\n");
        assert_eq!(
            torn_appends(&store("c/k3 sim 3 cc\na/k1 sim 1 aa\nb/k2 sim 2 bb"), golden),
            Some(0)
        );
        // Two writers interleaved payload, payload, newline, newline.
        assert_eq!(
            torn_appends(&store("a/k1 sim 1 aab/k2 sim 2 bb\n\nc/k3 sim 3 cc"), golden),
            Some(1)
        );
        assert_eq!(
            torn_appends(&store("c/k3 sim 3 ccb/k2 sim 2 bba/k1 sim 1 aa\n\n"), golden),
            Some(2)
        );
        // A different number, a missing entry or a doubled one is a mismatch.
        assert_eq!(
            torn_appends(&store("a/k1 sim 9 aa\nb/k2 sim 2 bb\nc/k3 sim 3 cc"), golden),
            None
        );
        assert_eq!(torn_appends(&store("a/k1 sim 1 aa\nb/k2 sim 2 bb"), golden), None);
        assert_eq!(
            torn_appends(
                &store("a/k1 sim 1 aa\na/k1 sim 1 aa\nb/k2 sim 2 bb\nc/k3 sim 3 cc"),
                golden
            ),
            None
        );
    }
}
