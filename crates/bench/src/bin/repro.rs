//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [--fast] [--store PATH] [--threads N] [--json PATH] \
//!       [--deadline SECS] [--point-deadline SECS] \
//!       [fig1|fig2|fig3|fig4|table1|fig9|fig10|fig11|fig12|bandwidth|ablation|sweep|plandump|faultcheck|all]...
//! repro plan <variant-name> [--n N] [--threads T] [--passes SPEC]
//! repro describe <variant-name> [--n N] [--threads T] [--passes SPEC]
//! repro optimize <variant-name> [--n N] [--machine NAME] [--frontier K] [--store PATH]
//! repro serve [--addr HOST:PORT] [--store PATH] [--max-inflight N] \
//!       [--request-deadline SECS] [--stale-ok]
//! ```
//!
//! `repro plan` prints the lowered schedule IR (`pdesched_core::plan`)
//! for one variant — its buffers, phases, barriers, and recompute
//! regions — for an `N`^3 box (default 32) at `T` threads (default 8);
//! `--passes` runs a pass pipeline (DESIGN.md §14) over the lowering
//! first. `repro describe` prints the Section IV prose plus, with
//! `--passes`, a per-pass delta table (barriers removed, phases fused,
//! recompute faces). `repro optimize` runs the model-driven schedule
//! search: every pipeline candidate is ranked with the analytic pair
//! model and the frontier is confirmed by the exact simulator, against
//! a simulator-confirmed hand-written baseline. Variant names are the
//! display names from the extended enumeration, e.g.
//! `repro plan 'Blocked WF-CLI-4: P<Box'`. The `plandump` target writes
//! plan dumps for the seven named Figure 10 schedules to `--out`
//! (default `target/plan-dumps/`, the CI artifact); `--variant` dumps a
//! single named schedule instead, and `--passes` dumps transformed
//! plans under pass-suffixed file names.
//!
//! * `--store PATH` — persist/reuse cache-simulator traffic measurements
//!   (default `target/traffic-cache.txt`). The store is versioned: a
//!   schema change discards stale entries automatically. The first full
//!   run pays the trace simulation; subsequent runs are instant (the
//!   per-stage `hits/misses` line proves no re-simulation happened).
//! * `--threads N` — measurement workers for the parallel sweep engine
//!   (default: all available cores; at least 1). Parallelism never
//!   changes output: measurements are deterministic and figure
//!   generation is serial.
//! * `--json PATH` — also write every figure's series plus per-stage
//!   wall time and cache counters as JSON (e.g. `repro_all.json`). A
//!   path in a missing directory is refused before anything runs.
//! * `--fast` — substitute 64^3 for the 128^3 box in the scaling
//!   figures (roughly 8x cheaper traces; shapes are preserved but the
//!   cache-residency crossover shifts).
//!
//! An unknown target, like an unknown flag, is a usage error (exit 2)
//! found before the store is opened.
//!
//! Fault tolerance: a sim point whose measurement panics is recorded as
//! failed and the remaining points (and targets) still complete; the
//! failure list and the store's health counters (corrupt/torn lines
//! recovered at load, failed appends) are part of `--json`. The store
//! accepts a single writer at a time — a second concurrent `repro` run
//! degrades to read-only memoization instead of interleaving appends.
//! The `faultcheck` target plus the `REPRO_FAULT` environment variable
//! (`panic-sim:K`, `hang-sim:K`, `fail-append:N`, or `abort-sim:K` —
//! process abort, the in-process `kill -9` — 0-based) exercise this
//! machinery deterministically end to end; CI runs it.
//!
//! Supervision (see DESIGN.md "Failure model"): SIGINT/SIGTERM trip a
//! cancel token, the running sweep stops at its next checkpoint, the
//! store is flushed, and a partial `--json` report is written with an
//! `"interrupted"` section — re-running the same command resumes from
//! the store and finishes bit-identical to an uninterrupted run.
//! `--deadline SECS` bounds the whole run the same way;
//! `--point-deadline SECS` kills individual hung measurements without
//! aborting the sweep. Exit codes: 0 complete, 10 interrupted by
//! signal, 11 deadline exceeded, 12 point failures/timeouts,
//! 13 store was read-only (lock held by another repro), 16 serve could
//! not start (14 and 15 belonged to the retired shard fabric and are not
//! reused).
//!
//! `repro serve` (DESIGN.md §15) turns the traffic store into a
//! long-lived schedule-query service: line-delimited JSON over local
//! TCP, warm answers from an immutable store snapshot (no flock on the
//! read path), cold points measured once per key no matter how many
//! clients ask (request coalescing), admission control past
//! `--max-inflight`, and stale-tagged snapshot answers when another
//! process holds the store lock (`--stale-ok`). SIGINT/SIGTERM drain
//! inflight requests, compact and flush the store, and exit 10.
//! `--threads N` must be a number but has no effect: each cold point
//! is measured on its own flight's thread. `REPRO_FAULT` grows
//! `drop-req:K` / `hang-req:K` for the request-path storm tests.

use pdesched_bench::render_figure;
use pdesched_cachesim::CacheConfig;
use pdesched_core::storage::{expected, paper_formula};
use pdesched_core::{Category, Pipeline, Variant};
use pdesched_machine::{figures, sweep};
use pdesched_machine::{
    FaultHook, MachineSpec, PointFailure, SimPoint, SweepBudget, SweepEngine, TrafficCache,
};
use pdesched_par::cancel::{self, CancelToken, Cancelled};
use std::time::Duration;

/// Exit-code taxonomy (documented in README and DESIGN.md): distinct
/// codes so a supervisor shelling out to `repro` can tell an orderly
/// interruption from a degraded-but-finished run.
const EXIT_SIGNAL: i32 = 10;
const EXIT_DEADLINE: i32 = 11;
const EXIT_POINT_FAILURES: i32 = 12;
const EXIT_STORE_READ_ONLY: i32 = 13;
const EXIT_SERVE: i32 = 16;

/// Every target name `repro` takes: the figures and tables `all` runs,
/// in its order, then `plandump` and `faultcheck`, which run only when
/// named, then `all`. Target names are checked against this list before
/// the store is opened, and the stage dispatch takes each of them.
const TARGETS: [&str; 15] = [
    "fig1",
    "table1",
    "fig2",
    "fig3",
    "fig4",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "bandwidth",
    "ablation",
    "sweep",
    "plandump",
    "faultcheck",
    "all",
];

/// How many leading [`TARGETS`] `all`, or no target at all, runs.
const ALL_TARGETS: usize = 12;

/// Wall time and cache activity of one regenerated target.
struct Stage {
    name: String,
    seconds: f64,
    hits: u64,
    misses: u64,
    /// Producer passes that answered this stage's misses.
    passes: u64,
}

/// Fault injection requested via `REPRO_FAULT` (for the deterministic
/// end-to-end robustness tests; see module docs).
struct EnvFault {
    panic_sim: Option<u64>,
    hang_sim: Option<u64>,
    abort_sim: Option<u64>,
    fail_append_every: Option<u64>,
    drop_req: Option<u64>,
    hang_req: Option<u64>,
}

impl FaultHook for EnvFault {
    fn before_simulation(&self, sim_index: u64, _key: &str) {
        if self.abort_sim == Some(sim_index) {
            eprintln!("[repro] injected fault (REPRO_FAULT): aborting at simulation {sim_index}");
            // No unwinding, no flush, no Drop — the in-process kill -9.
            std::process::abort();
        }
        if self.hang_sim == Some(sim_index) {
            eprintln!("[repro] injected fault (REPRO_FAULT): hanging simulation {sim_index}");
            // Wedge until cancelled (per-point deadline or signal); the
            // hard cap keeps an unsupervised run from hanging forever.
            let t0 = std::time::Instant::now();
            while !cancel::current_is_tripped() && t0.elapsed() < Duration::from_secs(60) {
                std::thread::sleep(Duration::from_millis(1));
            }
            cancel::check_current();
        }
        if self.panic_sim == Some(sim_index) {
            panic!("injected fault (REPRO_FAULT): panic on simulation {sim_index}");
        }
    }
    fn fail_append(&self, append_index: u64) -> bool {
        self.fail_append_every.is_some_and(|n| n != 0 && (append_index + 1).is_multiple_of(n))
    }
}

impl pdesched_machine::ServeHook for EnvFault {
    fn on_request(&self, request_index: u64) -> Option<pdesched_machine::ServeFaultAction> {
        if self.drop_req == Some(request_index) {
            eprintln!("[repro] injected fault (REPRO_FAULT): dropping request {request_index}");
            return Some(pdesched_machine::ServeFaultAction::DropConnection);
        }
        if self.hang_req == Some(request_index) {
            eprintln!("[repro] injected fault (REPRO_FAULT): hanging request {request_index}");
            return Some(pdesched_machine::ServeFaultAction::Hang);
        }
        None
    }
}

/// Parse `REPRO_FAULT` (`panic-sim:K` | `hang-sim:K` | `abort-sim:K` |
/// `fail-append:N` | `drop-req:K` | `hang-req:K`, comma-separated).
fn env_fault() -> Option<EnvFault> {
    let spec = std::env::var("REPRO_FAULT").ok()?;
    let mut fault = EnvFault {
        panic_sim: None,
        hang_sim: None,
        abort_sim: None,
        fail_append_every: None,
        drop_req: None,
        hang_req: None,
    };
    for part in spec.split(',') {
        match part.split_once(':').and_then(|(k, v)| Some((k, v.parse::<u64>().ok()?))) {
            Some(("panic-sim", k)) => fault.panic_sim = Some(k),
            Some(("hang-sim", k)) => fault.hang_sim = Some(k),
            Some(("abort-sim", k)) => fault.abort_sim = Some(k),
            Some(("fail-append", n)) => fault.fail_append_every = Some(n),
            Some(("drop-req", k)) => fault.drop_req = Some(k),
            Some(("hang-req", k)) => fault.hang_req = Some(k),
            _ => {
                eprintln!("repro: ignoring unrecognized REPRO_FAULT part '{part}'");
            }
        }
    }
    Some(fault)
}

/// Async-signal-safe SIGINT/SIGTERM latch. The handler only stores the
/// signal number; a monitor thread polls the latch and trips the run's
/// cancel token, so all actual unwinding happens on normal threads.
mod signals {
    use std::sync::atomic::{AtomicI32, Ordering};

    static PENDING: AtomicI32 = AtomicI32::new(0);

    extern "C" fn on_signal(signum: i32) {
        PENDING.store(signum, Ordering::SeqCst);
    }

    pub fn install() {
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }

    pub fn pending() -> Option<&'static str> {
        match PENDING.load(Ordering::SeqCst) {
            2 => Some("SIGINT"),
            15 => Some("SIGTERM"),
            _ => None,
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("plan") => {
            run_plan_command(&args[1..]);
            return;
        }
        Some("describe") => {
            run_describe_command(&args[1..]);
            return;
        }
        Some("optimize") => {
            run_optimize_command(&args[1..]);
            return;
        }
        Some("serve") => {
            run_serve_command(&args[1..]);
        }
        _ => {}
    }
    let mut store = String::from("target/traffic-cache.txt");
    let mut json: Option<String> = None;
    let mut fast = false;
    let mut threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut deadline: Option<Duration> = None;
    let mut point_deadline: Option<Duration> = None;
    let mut dump_out = String::from("target/plan-dumps");
    let mut dump_passes = String::new();
    let mut dump_variant: Option<String> = None;
    let mut wanted: Vec<String> = Vec::new();
    fn usage(msg: &str) -> ! {
        eprintln!("repro: {msg}");
        eprintln!(
            "usage: repro [--fast] [--store PATH] [--threads N] [--json PATH] \
             [--deadline SECS] [--point-deadline SECS] \
             [--out DIR] [--passes SPEC] [--variant NAME] \
             [TARGET]...\n\
             \x20      repro plan|describe <variant-name> [--n N] [--threads T] [--passes SPEC]\n\
             \x20      repro optimize <variant-name> [--n N] [--machine NAME] [--frontier K] \
             [--store PATH]\n\
             \x20      repro serve [--addr HOST:PORT] [--store PATH] [--max-inflight N] \
             [--request-deadline SECS] [--stale-ok]"
        );
        std::process::exit(2);
    }
    fn secs_flag(value: Option<String>, flag: &str) -> Duration {
        let v: f64 = value
            .unwrap_or_else(|| usage(&format!("{flag} needs seconds")))
            .parse()
            .unwrap_or_else(|_| usage(&format!("{flag} needs a number of seconds")));
        if !(v > 0.0 && v.is_finite()) {
            usage(&format!("{flag} needs a positive number of seconds"));
        }
        Duration::from_secs_f64(v)
    }
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--fast" => fast = true,
            "--store" => store = it.next().unwrap_or_else(|| usage("--store needs a path")),
            "--json" => json = Some(it.next().unwrap_or_else(|| usage("--json needs a path"))),
            "--threads" => {
                threads = parse_threads(it.next().as_ref()).unwrap_or_else(|msg| usage(msg))
            }
            "--deadline" => deadline = Some(secs_flag(it.next(), "--deadline")),
            "--point-deadline" => point_deadline = Some(secs_flag(it.next(), "--point-deadline")),
            "--out" => dump_out = it.next().unwrap_or_else(|| usage("--out needs a directory")),
            "--passes" => dump_passes = it.next().unwrap_or_else(|| usage("--passes needs a spec")),
            "--variant" => {
                dump_variant = Some(it.next().unwrap_or_else(|| usage("--variant needs a name")))
            }
            flag if flag.starts_with("--") => usage(&format!("unknown flag '{flag}'")),
            other => wanted.push(other.to_string()),
        }
    }
    // Refuse what would only fail after the run: an unknown target, or a
    // `--json` path whose directory is missing.
    if let Some(bad) = wanted.iter().find(|w| !TARGETS.contains(&w.as_str())) {
        usage(&format!("unknown target '{bad}' (targets: {})", TARGETS.join(" ")));
    }
    if let Some(path) = &json {
        let path = std::path::Path::new(path);
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        if path.is_dir() || dir.is_some_and(|d| !d.is_dir()) {
            usage(&format!("--json {}: a directory, or in a missing one", path.display()));
        }
    }
    if wanted.is_empty() || wanted.iter().any(|w| w == "all") {
        wanted = TARGETS[..ALL_TARGETS].iter().map(|s| s.to_string()).collect();
    }
    let open = std::time::Instant::now();
    let mut cache = TrafficCache::with_store(&store);
    let store_open_ms = open.elapsed().as_secs_f64() * 1e3;
    if let Some(fault) = env_fault() {
        eprintln!("[repro] REPRO_FAULT set: deterministic fault injection armed");
        cache = cache.with_fault_hook(std::sync::Arc::new(fault));
    }

    // Supervision: one token for the whole run, carrying the run
    // deadline. Tripping it — by the signal latch, by reading it past
    // the deadline, or anything else — stops the running sweep at its
    // next checkpoint; the rest of main then flushes the store, reports,
    // and exits with the documented code.
    let token = match deadline {
        Some(d) => CancelToken::new().child_until(
            std::time::Instant::now() + d,
            format!("deadline {:.1}s exceeded", d.as_secs_f64()),
        ),
        None => CancelToken::new(),
    };
    signals::install();
    {
        let token = token.clone();
        std::thread::spawn(move || loop {
            if let Some(sig) = signals::pending() {
                token.trip(&format!("signal {sig}"));
                return;
            }
            std::thread::sleep(Duration::from_millis(25));
        });
    }
    // Ambient token on the main thread: serial measurement paths (a
    // figure generator filling a hole in the cache) also stop at plan
    // step-phase checkpoints; the resulting `Cancelled` unwind is caught
    // around the stage loop below.
    let _ambient = cancel::set_current(Some(token.clone()));

    let engine = SweepEngine::new(threads)
        .with_progress(true)
        .with_budget(SweepBudget {
            point_deadline, // the run deadline is the run token's own
            max_retries: 2,
            backoff: Duration::from_millis(50),
        })
        .with_cancel_token(token.clone());
    let machines = MachineSpec::evaluation_nodes();
    let big_n = if fast { 64 } else { 128 };
    if fast {
        eprintln!("[repro] --fast: using 64^3 in place of 128^3 (shape-preserving, cheaper)");
    }
    eprintln!(
        "[repro] store {store} ({} entries{}), {} measurement threads",
        cache.len(),
        if cache.store_read_only() {
            ", READ-ONLY: another live repro holds the store lock"
        } else {
            ""
        },
        engine.nthreads()
    );
    let loaded = cache.stats();
    if loaded.corrupt_lines > 0 {
        eprintln!(
            "[repro] store recovery: {} corrupt/torn line(s) quarantined to {store}.quarantine",
            loaded.corrupt_lines
        );
    }

    let mut stages: Vec<Stage> = Vec::new();
    let mut json_figures: Vec<figures::Figure> = Vec::new();
    let mut log = RunLog { store_open_ms, failures: Vec::new() };
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        for w in &wanted {
            if token.is_tripped() {
                // Cancelled between stages: remaining targets are left
                // for the resume run.
                break;
            }
            let t0 = std::time::Instant::now();
            let before = cache.stats();
            let mut fig: Option<figures::Figure> = None;
            match w.as_str() {
                "fig1" => fig = Some(figures::figure1()),
                "table1" => print_table1(),
                "fig2" | "fig3" | "fig4" => {
                    let spec = &machines[w[3..].parse::<usize>().unwrap() - 2];
                    if prewarm(&engine, &cache, w, figures::figure234_points(spec, big_n), &mut log)
                    {
                        fig = Some(figures::figure234_sized(spec, &cache, w, big_n));
                    }
                }
                "fig9" => {
                    if prewarm(&engine, &cache, w, figures::figure9_points(), &mut log) {
                        fig = Some(figures::figure9(&cache));
                    }
                }
                "fig10" | "fig11" | "fig12" => {
                    let spec = &machines[w[3..].parse::<usize>().unwrap() - 10];
                    if prewarm(&engine, &cache, w, figures::figure1012_points(spec), &mut log) {
                        fig = Some(figures::figure1012(spec, &cache, w));
                    }
                }
                "bandwidth" => {
                    if prewarm(&engine, &cache, w, figures::bandwidth_points(), &mut log) {
                        print_bandwidth(&cache);
                    }
                }
                "plandump" => print_plandump(
                    &machines[0],
                    big_n,
                    &dump_out,
                    &dump_passes,
                    dump_variant.as_deref(),
                ),
                "ablation" => print_ablation(),
                "sweep" => print_sweep(&cache, &engine, &mut log),
                "faultcheck" => print_faultcheck(&cache, &engine, &mut log),
                other => unreachable!("target '{other}' is not in TARGETS"),
            }
            if let Some(f) = fig {
                print!("{}", render_figure(&f));
                json_figures.push(f);
            }
            let s = cache.stats();
            let stage = Stage {
                name: w.clone(),
                seconds: t0.elapsed().as_secs_f64(),
                hits: s.hits - before.hits,
                misses: s.misses - before.misses,
                passes: s.passes - before.passes,
            };
            eprintln!(
                "[repro] {w} done in {:.1?} ({} hits / {} misses in {}, {} traces cached)",
                t0.elapsed(),
                stage.hits,
                stage.misses,
                passes(stage.passes),
                cache.len()
            );
            stages.push(stage);
        }
    }));
    let interrupted: Option<String> = match run {
        // A `Cancelled` unwind from a serial measurement checkpoint on
        // the main thread ends the run the same way a between-stage
        // cancellation does; any other panic is a real bug.
        Err(payload) => match payload.downcast::<Cancelled>() {
            Ok(c) => Some(c.reason),
            Err(other) => std::panic::resume_unwind(other),
        },
        Ok(()) => token.is_tripped().then(|| token.reason().unwrap_or_else(|| "cancelled".into())),
    };

    let total = cache.stats();
    eprintln!(
        "[repro] all done: {} cache hits, {} misses in {}, {} traces cached",
        total.hits,
        total.misses,
        passes(total.passes),
        cache.len()
    );
    if !log.failures.is_empty() {
        eprintln!(
            "[repro] WARNING: {} measurement point(s) failed or timed out:",
            log.failures.len()
        );
        for (stage, kind, f) in &log.failures {
            eprintln!("[repro]   {stage}: {} n={} [{kind}]: {}", f.variant, f.n, f.error);
        }
    }
    if total.store_errors > 0 || total.corrupt_lines > 0 {
        eprintln!(
            "[repro] WARNING: store health: {} corrupt line(s) recovered, {} failed append(s)",
            total.corrupt_lines, total.store_errors
        );
    }
    let exit_code = if let Some(reason) = &interrupted {
        if reason.starts_with("signal ") {
            EXIT_SIGNAL
        } else {
            EXIT_DEADLINE
        }
    } else if cache.store_read_only() {
        EXIT_STORE_READ_ONLY
    } else if !log.failures.is_empty() {
        EXIT_POINT_FAILURES
    } else {
        0
    };
    if let Some(reason) = &interrupted {
        cache.flush_store();
        eprintln!(
            "[repro] INTERRUPTED ({reason}): store flushed, {} entries durable; \
             re-run the same command to resume",
            cache.len()
        );
    }
    if let Some(path) = json {
        let doc = render_json(
            &stages,
            &json_figures,
            &cache,
            fast,
            engine.nthreads(),
            &log,
            interrupted.as_deref().map(|r| (r, exit_code)),
        );
        std::fs::write(&path, doc).expect("write --json output");
        eprintln!("[repro] wrote {path}");
    }
    if exit_code != 0 {
        eprintln!("[repro] exiting with code {exit_code} (see README: exit codes)");
    }
    drop(cache); // release the store lock before the hard exit
    std::process::exit(exit_code);
}

/// Resolve a display-name variant argument against the extended
/// enumeration valid for an `n`^3 box. One parser for every place a
/// variant name enters the CLI (`repro plan`, `repro describe`,
/// `repro optimize`, `plandump --variant`); an unknown name lists every
/// valid one and exits 2.
fn parse_variant_arg(cmd: &str, name: &str, n: i32) -> Variant {
    let candidates: Vec<Variant> =
        Variant::enumerate_extended(n).into_iter().filter(|v| v.valid_for_box(n)).collect();
    match candidates.iter().find(|v| v.name().eq_ignore_ascii_case(name.trim())) {
        Some(&v) => v,
        None => {
            eprintln!("{cmd}: no variant named '{name}' is valid for a {n}^3 box; valid names:");
            let mut seen = std::collections::HashSet::new();
            for v in &candidates {
                if seen.insert(v.name()) {
                    eprintln!("  {}", v.name());
                }
            }
            std::process::exit(2);
        }
    }
}

/// Parse a `--n` value: a box edge of at least one cell.
fn parse_box_size(arg: Option<&String>) -> Result<i32, &'static str> {
    let n: i32 = arg.ok_or("--n needs a box size")?.parse().map_err(|_| "--n needs a number")?;
    if n < 1 {
        return Err("--n must be at least 1");
    }
    Ok(n)
}

/// Parse a `--threads` count (`repro`, `repro plan`, `repro describe`):
/// at least 1, never a silent stand-in for one.
fn parse_threads(arg: Option<&String>) -> Result<usize, &'static str> {
    let t: usize =
        arg.ok_or("--threads needs a count")?.parse().map_err(|_| "--threads needs a number")?;
    if t == 0 {
        return Err("--threads needs at least 1");
    }
    Ok(t)
}

/// Parse a `--passes` spec ([`Pipeline::parse`] grammar) or exit 2 with
/// the parser's own message (which lists the known passes).
fn parse_passes_arg(cmd: &str, spec: &str) -> Pipeline {
    Pipeline::parse(spec).unwrap_or_else(|e| {
        eprintln!("{cmd}: {e}");
        std::process::exit(2);
    })
}

/// Shared `<variant-name> [--n N] [--threads T] [--passes SPEC]`
/// argument shape of the `plan` and `describe` subcommands.
struct VariantCli {
    variant: Variant,
    n: i32,
    threads: usize,
    passes: String,
}

fn parse_variant_cli(cmd: &str, args: &[String]) -> VariantCli {
    let mut name: Option<String> = None;
    let mut n: i32 = 32;
    let mut threads: usize = 8;
    let mut passes = String::new();
    let usage = |msg: &str| -> ! {
        eprintln!("{cmd}: {msg}");
        eprintln!("usage: {cmd} <variant-name> [--n N] [--threads T] [--passes SPEC]");
        std::process::exit(2);
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--n" => n = parse_box_size(it.next()).unwrap_or_else(|msg| usage(msg)),
            "--threads" => threads = parse_threads(it.next()).unwrap_or_else(|msg| usage(msg)),
            "--passes" => {
                passes = it.next().unwrap_or_else(|| usage("--passes needs a spec")).clone()
            }
            flag if flag.starts_with("--") => usage(&format!("unknown flag '{flag}'")),
            other if name.is_none() => name = Some(other.to_string()),
            other => usage(&format!("unexpected argument '{other}'")),
        }
    }
    let Some(name) = name else { usage("missing variant name") };
    VariantCli { variant: parse_variant_arg(cmd, &name, n), n, threads, passes }
}

/// `repro plan <variant-name> [--n N] [--threads T] [--passes SPEC]`:
/// lower one schedule to the plan IR, optionally run a pass pipeline
/// over it, and print the (verified) result.
fn run_plan_command(args: &[String]) {
    let cli = parse_variant_cli("repro plan", args);
    let pipe = parse_passes_arg("repro plan", &cli.passes);
    let size = pdesched_mesh::IntVect::splat(cli.n);
    match pdesched_core::plan_for_optimized(cli.variant, size, cli.threads, &pipe) {
        Ok(plan) => print!("{}", plan.render()),
        Err(e) => {
            eprintln!("repro plan: {e}");
            std::process::exit(2);
        }
    }
}

/// `repro describe <variant-name> [--n N] [--threads T] [--passes SPEC]`:
/// the Section IV prose for one schedule, plus — when a pipeline is
/// given — a per-pass delta table (barriers removed, phases fused,
/// recompute faces before/after) so transformed schedules are
/// inspectable without reading plan dumps.
fn run_describe_command(args: &[String]) {
    let cli = parse_variant_cli("repro describe", args);
    parse_passes_arg("repro describe", &cli.passes); // validate the spec up front
    let d = pdesched_core::describe::describe(cli.variant, cli.n, cli.threads);
    println!("== {} (N={}, {} threads) ==", d.name, cli.n, cli.threads);
    println!("  temporaries:   {}", d.temporaries);
    println!("  locality:      {}", d.locality);
    println!("  parallelism:   {}", d.parallelism);
    println!("  recomputation: {}", d.recomputation);
    if cli.passes.trim().is_empty() {
        return;
    }
    // Apply the pipeline one pass at a time: each prefix is itself a
    // valid (verified) pipeline, so every row of the delta table is an
    // executable plan.
    let size = pdesched_mesh::IntVect::splat(cli.n);
    let mut plan = pdesched_core::plan::lower(cli.variant, size, cli.threads);
    println!("== per-pass deltas ({}) ==", cli.passes);
    println!(
        "  {:<24} {:>10} {:>10} {:>10} {:>18}",
        "pass", "barriers", "phases", "steps", "recompute faces"
    );
    let row = |label: &str, p: &pdesched_core::Plan| {
        println!(
            "  {:<24} {:>10} {:>10} {:>10} {:>18}",
            label,
            p.barrier_count(),
            p.phase_count(),
            p.step_count(),
            p.recompute_faces()
        );
    };
    row("(hand lowering)", &plan);
    for part in cli.passes.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let single = parse_passes_arg("repro describe", part);
        plan = match single.apply(plan) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("repro describe: pass '{part}' failed: {e}");
                std::process::exit(2);
            }
        };
        row(part, &plan);
    }
    let hand = pdesched_core::plan::lower(cli.variant, size, cli.threads);
    println!(
        "  pipeline total: {} barrier(s) removed, {} phase(s) fused away, \
         recompute faces {} -> {}{}",
        hand.barrier_count().saturating_sub(plan.barrier_count()),
        hand.phase_count().saturating_sub(plan.phase_count()),
        hand.recompute_faces(),
        plan.recompute_faces(),
        if plan.interleave > 1 { ", pair-interleaved execution" } else { "" }
    );
}

/// `repro optimize <variant-name> [--n N] [--machine NAME]
/// [--frontier K] [--store PATH]`: the model-driven schedule search.
/// Runs the full pass-pipeline search on the chosen machine (analytic
/// ranking, simulator-confirmed hand-written baseline + discovered
/// frontier), then zooms into the named variant's own candidate slice.
fn run_optimize_command(args: &[String]) {
    let mut name: Option<String> = None;
    let mut n: i32 = 24;
    let mut machine: Option<String> = None;
    let mut frontier_k: usize = 4;
    let mut store = String::from("target/traffic-cache.txt");
    let usage = |msg: &str| -> ! {
        eprintln!("repro optimize: {msg}");
        eprintln!(
            "usage: repro optimize <variant-name> [--n N] [--machine NAME] \
             [--frontier K] [--store PATH]"
        );
        std::process::exit(2);
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--n" => n = parse_box_size(it.next()).unwrap_or_else(|msg| usage(msg)),
            "--machine" => {
                machine = Some(it.next().unwrap_or_else(|| usage("--machine needs a name")).clone())
            }
            "--frontier" => {
                frontier_k = it
                    .next()
                    .unwrap_or_else(|| usage("--frontier needs a count"))
                    .parse()
                    .unwrap_or_else(|_| usage("--frontier needs a number"))
            }
            "--store" => store = it.next().unwrap_or_else(|| usage("--store needs a path")).clone(),
            flag if flag.starts_with("--") => usage(&format!("unknown flag '{flag}'")),
            other if name.is_none() => name = Some(other.to_string()),
            other => usage(&format!("unexpected argument '{other}'")),
        }
    }
    let Some(name) = name else { usage("missing variant name") };
    let variant = parse_variant_arg("repro optimize", &name, n);
    // The three evaluation nodes plus the Section VI-B desktop; default
    // to the desktop (the single-socket machine the pair study models
    // most directly).
    let mut machines = vec![MachineSpec::i5_desktop()];
    machines.extend(MachineSpec::evaluation_nodes());
    let spec = match &machine {
        None => machines[0].clone(),
        Some(m) => {
            let lower = m.to_lowercase();
            match machines.iter().find(|s| s.name.to_lowercase().contains(&lower)) {
                Some(s) => s.clone(),
                None => {
                    eprintln!("repro optimize: no machine matching '{m}'; evaluation nodes:");
                    for s in &machines {
                        eprintln!("  {}", s.name);
                    }
                    std::process::exit(2);
                }
            }
        }
    };
    let cache = TrafficCache::with_store(&store);
    let report = sweep::search_schedules(&spec, n, frontier_k, &cache);
    let pct =
        |bytes: u64, baseline: u64| 100.0 * (bytes as f64 - baseline as f64) / baseline as f64;
    println!(
        "== Pass-pipeline schedule search on {} (N={n}, LLC share {} KiB/thread) ==",
        report.machine,
        report.llc_share / 1024
    );
    println!(
        "{} candidates ranked analytically; simulator-confirmed {} hand-written shapes \
         and a frontier of {}",
        report.candidates_ranked,
        report.handwritten.len(),
        report.frontier.len()
    );
    let best_hand = report.best_handwritten().clone();
    println!(
        "best hand-written: {:<44} {:>12} DRAM B/box",
        best_hand.label(),
        best_hand.traffic.dram_bytes
    );
    println!("discovered frontier (simulator-confirmed):");
    for c in &report.frontier {
        println!(
            "  {:<44} {:>12} DRAM B/box ({:+.1}% vs best hand-written)",
            c.label(),
            c.traffic.dram_bytes,
            pct(c.traffic.dram_bytes, best_hand.traffic.dram_bytes)
        );
    }
    match report.winner() {
        Some(w) if report.beats_handwritten() => println!(
            "verdict: {} beats the best hand-written schedule by {:.1}%",
            w.label(),
            -pct(w.traffic.dram_bytes, best_hand.traffic.dram_bytes)
        ),
        _ => println!("verdict: no discovered schedule beats the hand-written best here"),
    }

    // The named variant's own slice of the search space, confirmed.
    // The pair study dedupes shapes by (category, comp, intra, tile):
    // granularity collapses at one traced thread, so the named variant
    // always maps onto exactly one confirmed shape.
    let hand = report
        .handwritten
        .iter()
        .find(|c| {
            (c.variant.category, c.variant.comp, c.variant.intra, c.variant.tile)
                == (variant.category, variant.comp, variant.intra, variant.tile)
        })
        .expect("every valid shape is confirmed")
        .clone();
    println!("== candidate pipelines for {} ==", variant.name());
    println!("  {:<44} {:>12} DRAM B/box (hand lowering)", hand.label(), hand.traffic.dram_bytes);
    let mut mine = sweep::candidate_pipelines(hand.variant, n, report.llc_share);
    mine.sort_by_key(|c| c.analytic_bytes);
    let hierarchy = spec.hierarchy_for(spec.cores_per_socket);
    let mut best_mine: Option<(String, u64)> = None;
    for cand in mine.iter().take(frontier_k) {
        let pipe = parse_passes_arg("repro optimize", &cand.passes);
        match cache.get_pair(cand.variant, n, &hierarchy, &pipe) {
            Ok(t) => {
                println!(
                    "  {:<44} {:>12} DRAM B/box ({:+.1}% vs its hand lowering)",
                    format!("{} + [{}]", cand.variant.name(), cand.passes),
                    t.dram_bytes,
                    pct(t.dram_bytes, hand.traffic.dram_bytes)
                );
                if best_mine.as_ref().is_none_or(|(_, b)| t.dram_bytes < *b) {
                    best_mine = Some((cand.passes.clone(), t.dram_bytes));
                }
            }
            Err(e) => println!("  {} + [{}]: skipped ({e})", cand.variant.name(), cand.passes),
        }
    }
    if let Some((passes, bytes)) = best_mine {
        if bytes < hand.traffic.dram_bytes {
            println!(
                "best pipeline for this variant: [{passes}] saves {:.1}% of its DRAM traffic",
                -pct(bytes, hand.traffic.dram_bytes)
            );
        } else {
            println!("no pipeline improves this variant here");
        }
    }
}

/// `repro serve`: run the schedule-query service until a signal drains
/// it (exit 10) or the bind fails (exit 16). The bound address goes to
/// stderr as `[repro] serve: listening on ADDR` so scripts launching
/// with `--addr 127.0.0.1:0` can scrape the ephemeral port.
fn run_serve_command(args: &[String]) -> ! {
    fn usage(msg: &str) -> ! {
        eprintln!("repro serve: {msg}");
        eprintln!(
            "usage: repro serve [--addr HOST:PORT] [--store PATH] \
             [--threads N] [--max-inflight N] \
             [--retry-after-ms MS] [--request-deadline SECS] [--point-deadline SECS] \
             [--drain-deadline SECS] [--stale-ok]"
        );
        std::process::exit(2);
    }
    fn secs(value: Option<&String>, flag: &str) -> Duration {
        let v: f64 = value
            .unwrap_or_else(|| usage(&format!("{flag} needs seconds")))
            .parse()
            .unwrap_or_else(|_| usage(&format!("{flag} needs a number of seconds")));
        if !(v > 0.0 && v.is_finite()) {
            usage(&format!("{flag} needs a positive number of seconds"));
        }
        Duration::from_secs_f64(v)
    }
    let mut cfg = pdesched_machine::ServeConfig {
        store: Some(std::path::PathBuf::from("target/traffic-cache.txt")),
        ..Default::default()
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => {
                cfg.addr = it.next().unwrap_or_else(|| usage("--addr needs HOST:PORT")).clone()
            }
            "--store" => {
                cfg.store = Some(it.next().unwrap_or_else(|| usage("--store needs a path")).into())
            }
            // Parsed, stored and otherwise ignored (`ServeConfig::engine_threads`):
            // kept only because `benchmark/` passes it; ROADMAP item 1 drops that.
            "--threads" => {
                cfg.engine_threads = it
                    .next()
                    .unwrap_or_else(|| usage("--threads needs a count"))
                    .parse()
                    .unwrap_or_else(|_| usage("--threads needs a number"))
            }
            "--max-inflight" => {
                cfg.max_inflight = it
                    .next()
                    .unwrap_or_else(|| usage("--max-inflight needs a count"))
                    .parse()
                    .unwrap_or_else(|_| usage("--max-inflight needs a number"));
                if cfg.max_inflight == 0 {
                    usage("--max-inflight needs at least 1");
                }
            }
            "--retry-after-ms" => {
                let ms: u64 = it
                    .next()
                    .unwrap_or_else(|| usage("--retry-after-ms needs milliseconds"))
                    .parse()
                    .unwrap_or_else(|_| usage("--retry-after-ms needs a number"));
                cfg.retry_after = Duration::from_millis(ms);
            }
            "--request-deadline" => {
                cfg.request_deadline = Some(secs(it.next(), "--request-deadline"))
            }
            "--point-deadline" => {
                cfg.budget.point_deadline = Some(secs(it.next(), "--point-deadline"))
            }
            "--drain-deadline" => cfg.drain_deadline = secs(it.next(), "--drain-deadline"),
            "--stale-ok" => cfg.stale_ok = true,
            other => usage(&format!("unexpected argument '{other}'")),
        }
    }
    // One EnvFault drives both fault surfaces: the request path
    // (drop-req/hang-req via ServeHook) and the measurement/store path
    // (panic-sim/hang-sim/fail-append via FaultHook).
    if let Some(fault) = env_fault() {
        let fault = std::sync::Arc::new(fault);
        cfg.hook = Some(fault.clone() as _);
        cfg.store_fault = Some(fault as _);
    }
    // Install the latch before binding so a supervisor that signals
    // immediately after spawn still gets an orderly drain.
    signals::install();
    let server = match pdesched_machine::Server::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("repro serve: cannot start: {e}");
            std::process::exit(EXIT_SERVE);
        }
    };
    eprintln!("[repro] serve: listening on {}", server.local_addr());
    if server.cache().store_read_only() {
        eprintln!("[repro] serve: store lock held elsewhere; answering from snapshots (degraded)");
    }
    loop {
        if let Some(sig) = signals::pending() {
            eprintln!("[repro] serve: {sig}: draining");
            let clean = server.drain();
            let stats = server.stats();
            drop(server);
            eprintln!(
                "[repro] serve: drained {}; {} requests ({} rejected, {} coalesced)",
                if clean { "cleanly" } else { "by force" },
                stats.requests,
                stats.rejected,
                stats.coalesced
            );
            std::process::exit(EXIT_SIGNAL);
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Write plan dumps to `out_dir` (default `target/plan-dumps/`, the CI
/// artifact) and print them: the seven named Figure 10 schedules, or a
/// single `--variant` by display name, optionally transformed by a
/// `--passes` pipeline (the pass key lands in the file name, so
/// transformed dumps never clobber the hand ones).
fn print_plandump(spec: &MachineSpec, n: i32, out_dir: &str, passes: &str, only: Option<&str>) {
    let pipe = parse_passes_arg("repro plandump", passes);
    let dir = std::path::Path::new(out_dir);
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {out_dir}: {e}"));
    let schedules: Vec<(String, Variant)> = match only {
        Some(name) => {
            let v = parse_variant_arg("repro plandump", name, n);
            vec![(v.name(), v)]
        }
        None => figures::n128_variants(spec).into_iter().map(|(s, v)| (s.to_string(), v)).collect(),
    };
    let suffix = if pipe.is_empty() { String::new() } else { format!(", passes [{}]", pipe.key()) };
    println!("== Lowered plans ({}, N={n}{suffix}) ==", spec.name);
    for (name, variant) in schedules {
        let threads =
            if variant.gran == pdesched_core::Granularity::WithinBox { spec.cores() } else { 1 };
        let plan = match pdesched_core::plan_for_optimized(
            variant,
            pdesched_mesh::IntVect::splat(n),
            threads,
            &pipe,
        ) {
            Ok(p) => p,
            Err(e) => {
                println!("-- {name}: pipeline does not apply: {e} --");
                continue;
            }
        };
        let text = plan.render();
        let stem = if pipe.is_empty() { name.clone() } else { format!("{name}__{}", pipe.key()) };
        let slug: String = stem
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '_' })
            .collect();
        let path = dir.join(format!("{slug}.txt"));
        std::fs::write(&path, &text).expect("write plan dump");
        println!("-- {name} -> {} --", path.display());
        print!("{text}");
    }
}

/// Everything a supervised run accumulates besides stages and figures:
/// the wall time of opening its store and per-point failures/timeouts
/// (with their kind for `--json`).
struct RunLog {
    store_open_ms: f64,
    failures: Vec<(String, &'static str, PointFailure)>,
}

/// "`n` pass(es)": how many producer passes answered some misses.
fn passes(n: u64) -> String {
    format!("{n} pass{}", if n == 1 { "" } else { "es" })
}

/// Prewarm one target's simulation points, narrating to stderr and
/// collecting per-point failures and timeouts (the target still renders
/// from whatever did complete). Returns `false` when the sweep was
/// cancelled mid-flight: the caller skips rendering, because rendering
/// would re-measure the missing points serially.
fn prewarm(
    engine: &SweepEngine,
    cache: &TrafficCache,
    target: &str,
    points: Vec<pdesched_machine::SimPoint>,
    log: &mut RunLog,
) -> bool {
    let shared_before = cache.stats().shared_points;
    let r = engine.prewarm(cache, &points);
    let shared = cache.stats().shared_points - shared_before;
    if r.measured > 0 || !r.failed.is_empty() || !r.timed_out.is_empty() {
        eprintln!(
            "[repro] {target}: measured {} of {} unique points in {} ({} shared), {:.1}s \
             ({:.2} points/s) on {} threads{}{}{}",
            r.measured,
            r.unique,
            passes(r.passes as u64),
            shared,
            r.seconds,
            r.points_per_sec,
            engine.nthreads(),
            if r.cached == 0 { String::new() } else { format!(", {} already cached", r.cached) },
            if r.failed.is_empty() {
                String::new()
            } else {
                format!(", {} FAILED", r.failed.len())
            },
            if r.timed_out.is_empty() {
                String::new()
            } else {
                format!(", {} TIMED OUT", r.timed_out.len())
            }
        );
    } else {
        eprintln!("[repro] {target}: all {} points already cached", r.unique);
    }
    log.failures.extend(r.failed.into_iter().map(|f| (target.to_string(), "panic", f)));
    log.failures.extend(r.timed_out.into_iter().map(|f| (target.to_string(), "timeout", f)));
    if let Some(reason) = &r.cancelled {
        eprintln!(
            "[repro] {target}: sweep cancelled ({reason}), {} points unmeasured",
            r.remaining
        );
        return false;
    }
    true
}

/// Tiny deterministic fault-tolerance check (seconds, not minutes):
/// two cheap simulation points over a small hierarchy, meant to be run
/// with `REPRO_FAULT` set so an injected panic or append failure flows
/// through the engine, the store, and the `--json` report end to end.
fn print_faultcheck(cache: &TrafficCache, engine: &SweepEngine, log: &mut RunLog) {
    let configs = vec![CacheConfig::new(8 * 1024, 4), CacheConfig::new(64 * 1024, 8)];
    let points: Vec<SimPoint> = [Variant::baseline(), Variant::shift_fuse()]
        .iter()
        .map(|&v| SimPoint { variant: v, n: 8, configs: configs.clone() })
        .collect();
    prewarm(engine, cache, "faultcheck", points.clone(), log);
    println!("== faultcheck: deterministic fault-injection probe ==");
    for p in &points {
        let status = if cache.contains(p.variant, p.n, &p.configs) { "ok" } else { "FAILED" };
        println!("  {:<34} n={:<4} {status}", p.variant.name(), p.n);
    }
}

use pdesched_bench::json_str;

/// This process's peak resident set so far, MB: `VmHWM` in
/// `/proc/self/status`, `None` where the kernel reports none.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    Some(kb.trim().strip_suffix("kB")?.trim().parse::<f64>().ok()? / 1024.0)
}

/// Serialize stages + figures + cache counters as JSON (no external
/// dependencies, so the writer is by hand; the shape is stable,
/// versioned by `schema_version`, and documented in the README).
fn render_json(
    stages: &[Stage],
    figs: &[figures::Figure],
    cache: &TrafficCache,
    fast: bool,
    threads: usize,
    log: &RunLog,
    interrupted: Option<(&str, i32)>,
) -> String {
    use std::fmt::Write;
    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(j, "  \"schema_version\": 12,");
    let _ = writeln!(j, "  \"fast\": {fast},");
    let _ = writeln!(j, "  \"threads\": {threads},");
    // How many producer passes answered the run's misses — how much
    // simulation actually ran — and how many misses were recorded from
    // a stream produced under another key.
    {
        let s = cache.stats();
        let _ = writeln!(
            j,
            "  \"traffic\": {{\"passes\": {}, \"shared_points\": {}}},",
            s.passes, s.shared_points
        );
    }
    match interrupted {
        Some((reason, code)) => {
            let _ = writeln!(
                j,
                "  \"interrupted\": {{\"reason\": {}, \"exit_code\": {code}}},",
                json_str(reason)
            );
        }
        None => {
            let _ = writeln!(j, "  \"interrupted\": null,");
        }
    }
    let s = cache.stats();
    let _ = writeln!(
        j,
        "  \"cache\": {{\"hits\": {}, \"misses\": {}, \"entries\": {}}},",
        s.hits,
        s.misses,
        cache.len()
    );
    let (ph, pm, pe) = pdesched_core::plan::cache_stats();
    let _ =
        writeln!(j, "  \"plan_cache\": {{\"hits\": {ph}, \"misses\": {pm}, \"entries\": {pe}}},");
    let _ = writeln!(
        j,
        "  \"store\": {{\"path\": {}, \"read_only\": {}, \"corrupt_lines\": {}, \"store_errors\": {}, \
         \"open_ms\": {:.3}}},",
        cache
            .store_path()
            .map(|p| json_str(&p.display().to_string()))
            .unwrap_or_else(|| "null".into()),
        cache.store_read_only(),
        s.corrupt_lines,
        s.store_errors,
        log.store_open_ms
    );
    let _ = writeln!(
        j,
        "  \"process\": {{\"peak_rss_mb\": {}}},",
        peak_rss_mb().map_or_else(|| "null".into(), |mb| format!("{mb:.3}"))
    );
    let _ = writeln!(j, "  \"failures\": [");
    for (i, (stage, kind, f)) in log.failures.iter().enumerate() {
        let comma = if i + 1 < log.failures.len() { "," } else { "" };
        let _ = writeln!(
            j,
            "    {{\"stage\": {}, \"kind\": {}, \"variant\": {}, \"n\": {}, \
             \"error\": {}}}{comma}",
            json_str(stage),
            json_str(kind),
            json_str(&f.variant),
            f.n,
            json_str(&f.error)
        );
    }
    let _ = writeln!(j, "  ],");
    let _ = writeln!(j, "  \"stages\": [");
    for (i, st) in stages.iter().enumerate() {
        let comma = if i + 1 < stages.len() { "," } else { "" };
        let _ = writeln!(
            j,
            "    {{\"target\": {}, \"seconds\": {:.6}, \"hits\": {}, \"misses\": {}}}{comma}",
            json_str(&st.name),
            st.seconds,
            st.hits,
            st.misses
        );
    }
    let _ = writeln!(j, "  ],");
    let _ = writeln!(j, "  \"figures\": [");
    for (i, f) in figs.iter().enumerate() {
        let _ = writeln!(j, "    {{");
        let _ = writeln!(j, "      \"id\": {},", json_str(&f.id));
        let _ = writeln!(j, "      \"title\": {},", json_str(&f.title));
        let _ = writeln!(j, "      \"xlabel\": {},", json_str(&f.xlabel));
        let _ = writeln!(j, "      \"ylabel\": {},", json_str(&f.ylabel));
        let _ = writeln!(j, "      \"series\": [");
        for (k, srs) in f.series.iter().enumerate() {
            let pts: Vec<String> = srs.points.iter().map(|(x, y)| format!("[{x}, {y}]")).collect();
            let comma = if k + 1 < f.series.len() { "," } else { "" };
            let _ = writeln!(
                j,
                "        {{\"label\": {}, \"points\": [{}]}}{comma}",
                json_str(&srs.label),
                pts.join(", ")
            );
        }
        let _ = writeln!(j, "      ]");
        let comma = if i + 1 < figs.len() { "," } else { "" };
        let _ = writeln!(j, "    }}{comma}");
    }
    let _ = writeln!(j, "  ]");
    let _ = writeln!(j, "}}");
    j
}

fn print_table1() {
    // Table I for the paper's parameters: C = 5 components, P threads,
    // tile size T. Printed for N = 128, T = 16, P = 24 alongside this
    // implementation's exact (measured-equal) formulas.
    let (n, t, p) = (128, 16, 24);
    println!("== Table I: temporary data per schedule (N={n}, T={t}, C=5, P={p}) ==");
    println!(
        "{:<34} {:>16} {:>16} {:>18} {:>18}",
        "Schedule", "paper flux", "paper velocity", "ours flux (CLO)", "ours velocity"
    );
    let rows: [(&str, Category, Variant); 4] = [
        ("Series of Loops", Category::Series, Variant::baseline()),
        ("Loops shifted and fused", Category::ShiftFuse, Variant::shift_fuse()),
        (
            "Loops shifted, fused, tiled",
            Category::BlockedWavefront,
            Variant::blocked_wavefront(pdesched_core::CompLoop::Outside, t),
        ),
        (
            "Shifted, fused, overlapping tiles",
            Category::OverlappedTile,
            Variant::overlapped(
                pdesched_core::IntraTile::ShiftFuse,
                t,
                pdesched_core::Granularity::WithinBox,
            ),
        ),
    ];
    for (label, cat, variant) in rows {
        let paper = paper_formula(cat, n, t, p);
        let ours = expected(variant, n, p);
        println!(
            "{:<34} {:>16} {:>16} {:>18} {:>18}",
            label, paper.flux_f64, paper.vel_f64, ours.flux_f64, ours.vel_f64
        );
    }
}

/// Design-choice ablations (analytic-model predictions, instant): the
/// tile-size sweep the paper reports ("tile sizes of 8 and 16 were the
/// most efficient") and the hierarchical-OT extension, on the Ivy
/// Bridge node at full threads, N = 128.
fn print_ablation() {
    use pdesched_core::{Granularity, IntraTile};
    use pdesched_machine::model::predict_time_analytic;
    use pdesched_machine::Workload;
    let spec = MachineSpec::ivy_bridge_node();
    let t = spec.cores();
    let wl = Workload::paper(128);
    println!("== Ablations (analytic model, {} @ {t} threads, N=128) ==", spec.name);
    println!("{:<34} {:>12}", "schedule", "pred. time");
    let mut rows: Vec<Variant> = Vec::new();
    for tile in [4, 8, 16, 32] {
        rows.push(Variant::overlapped(IntraTile::ShiftFuse, tile, Granularity::WithinBox));
    }
    for tile in [8, 16, 32] {
        rows.push(Variant::hierarchical(tile, 4, Granularity::WithinBox));
    }
    rows.push(Variant::blocked_wavefront(pdesched_core::CompLoop::Inside, 8));
    rows.push(Variant::shift_fuse());
    rows.push(Variant::baseline());
    for v in rows {
        let p = predict_time_analytic(&spec, v, wl, t);
        println!("{:<34} {:>10.4}s", v.name(), p.seconds);
    }
}

/// Full design-space ranking per machine: the analytic model screens
/// every candidate instantly, then the simulator-backed model confirms
/// the N=16 short list. The confirmation points go through the
/// supervised `prewarm` helper so interruption, timeouts, and resume
/// are narrated and land in `--json` like every other target; a
/// cancelled prewarm stops the sweep (rendering would re-measure the
/// missing points serially).
fn print_sweep(cache: &TrafficCache, engine: &SweepEngine, log: &mut RunLog) {
    for spec in MachineSpec::evaluation_nodes() {
        for n in [16, 128] {
            let ranked = sweep::rank_all(&spec, n);
            println!(
                "== Top schedules on {} for N={n} ({} candidates, {} threads) ==",
                spec.name,
                ranked.len(),
                spec.cores()
            );
            for r in ranked.iter().take(5) {
                println!("  {:<36} {:>10.4}s", r.variant.name(), r.prediction.seconds);
            }
        }
        if !prewarm(engine, cache, "sweep", sweep::top_measured_points(&spec, 16, 3), log) {
            return;
        }
        let confirmed = sweep::rank_top_measured(&spec, 16, 3, cache, engine);
        println!("-- simulator-confirmed top 3 for N=16 --");
        for r in &confirmed {
            println!("  {:<36} {:>10.4}s", r.variant.name(), r.prediction.seconds);
        }
    }
}

fn print_bandwidth(cache: &TrafficCache) {
    println!("== Section VI-B: VTune bandwidth observations on the i5-3570K desktop ==");
    println!(
        "{:<12} {:>6} {:>8} {:>16} {:>12}",
        "Schedule", "N", "Threads", "model GB/s", "paper GB/s"
    );
    for row in figures::bandwidth_experiment(cache) {
        println!(
            "{:<12} {:>6} {:>8} {:>16.1} {:>12}",
            row.schedule,
            row.n,
            row.threads,
            row.predicted_gbs,
            row.paper_gbs.map(|v| format!("{v:.1}")).unwrap_or_else(|| "-".into()),
        );
    }
}
