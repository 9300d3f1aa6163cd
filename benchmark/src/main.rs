//! The repo's benchmark harness; `benchmark/run.sh` builds `repro` and
//! this binary and passes its arguments through. See `README.md`.
//!
//! ```text
//! harness --repro PATH --workload NAME --seed N --seconds S --trace 0|1
//! harness --repro PATH [--seed N] [--seconds S] --runs K --out FILE
//! harness --compare A.json B.json
//! harness --repro PATH --bless
//! harness --fill-store STORE --seed N        (internal: the filler child)
//! ```
//!
//! A run prints a `host:` line, every metric by name with its unit, and
//! as its last line one JSON object `{correct, attempted, failed,
//! metrics}`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Any failed output check makes the exit
//! code 1.

mod compare;
mod contract;
mod gen;
mod json;
mod layers;
mod proc;
mod stats;
mod trace;
mod workloads;

use contract::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::{Path, PathBuf};
use trace::Tracer;
use workloads::{Checks, Ctx, Goldens, Outcome};

const OUT_DIR: &str = "benchmark/out";
/// Length of the real-binary replay inside a traced pass, as a share of
/// `--seconds`: long enough for the client spans, short enough that the
/// layer timings dominate the pass.
const TRACED_REPLAY_SHARE: f64 = 0.25;
/// How a run prints its torn-append count; `--runs` reads it back.
const TORN_PREFIX: &str = "torn_appends = ";

fn die(msg: &str) -> ! {
    eprintln!("harness: {msg}");
    eprintln!(
        "usage: run.sh --workload NAME --seed N --seconds S --trace 0|1\n\
         \x20      run.sh [--seed N] [--seconds S] --runs K --out FILE\n\
         \x20      run.sh --compare A.json B.json\n\
         \x20      run.sh --bless\n\
         workloads: {}",
        WORKLOADS.join(", ")
    );
    std::process::exit(2);
}

/// A scratch directory under `benchmark/out/`, removed on every exit
/// path that unwinds.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = Path::new(OUT_DIR).join(format!("scratch-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir under benchmark/out");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Args {
    repro: Option<PathBuf>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: Option<usize>,
    out: Option<String>,
    compare: Option<(String, String)>,
    bless: bool,
    fill_store: Option<PathBuf>,
}

impl Args {
    fn repro(&self) -> &Path {
        self.repro.as_deref().unwrap_or_else(|| die("--repro is required"))
    }

    /// The context of a run of `seconds` in `scratch`.
    fn ctx<'a>(
        &'a self,
        scratch: &'a Path,
        seconds: f64,
        tracer: &'a Tracer,
        goldens: &'a Goldens,
    ) -> Ctx<'a> {
        Ctx {
            repro: self.repro(),
            scratch,
            seed: self.seed,
            seconds,
            threads: proc::load_threads(),
            tracer,
            goldens,
        }
    }
}

fn parse_args() -> Args {
    let mut a = Args {
        repro: None,
        workload: None,
        seed: 1,
        seconds: 30.0,
        trace: false,
        runs: None,
        out: None,
        compare: None,
        bless: false,
        fill_store: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| die(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--repro" => a.repro = Some(val().into()),
            "--workload" => a.workload = Some(val()),
            "--seed" => a.seed = val().parse().unwrap_or_else(|_| die("--seed needs a number")),
            "--seconds" => {
                a.seconds = val().parse().unwrap_or_else(|_| die("--seconds needs a number"));
                if !(a.seconds > 0.0 && a.seconds <= 120.0) {
                    die("--seconds must be in (0, 120]");
                }
            }
            "--trace" => {
                a.trace = match val().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => die("--trace takes 0 or 1"),
                }
            }
            "--runs" => {
                a.runs = Some(val().parse().unwrap_or_else(|_| die("--runs needs a count")))
            }
            "--out" => a.out = Some(val()),
            "--compare" => a.compare = Some((val(), val())),
            "--bless" => a.bless = true,
            "--fill-store" => a.fill_store = Some(val().into()),
            other => die(&format!("unknown argument '{other}'")),
        }
    }
    a
}

/// `"correct": …, "attempted": …, "failed": …, "metrics": {…}`.
fn result_fields(checks: &Checks, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(m.name),
                json::num(m.value),
                json::quote(m.unit)
            )
        })
        .collect();
    format!(
        "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed,
        body.join(", ")
    )
}

fn print_failures(checks: &Checks) {
    for note in checks.notes() {
        println!("FAILED CHECK: {note}");
    }
}

fn end_to_end_metrics(o: &Outcome) -> Vec<Metric> {
    let values = [o.setup_s, o.p25_ms(), o.ops_per_s(), o.peak_rss_mb()];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, _), value)| Metric { name, value, unit })
        .collect()
}

/// Run one workload with tracing off and print everything about it.
fn measure(workload: &str, args: &Args, goldens: &Goldens) -> (Vec<Metric>, Checks) {
    let scratch = Scratch::new(workload);
    let tracer = Tracer::new(false);
    let o = workloads::run(workload, &args.ctx(&scratch.0, args.seconds, &tracer, goldens));
    println!("workload: {workload} seed={} seconds={} trace=0", args.seed, args.seconds);
    println!("{}", proc::host_line(o.steal_share));
    println!("{}", stats::describe("latency", "ms", &o.latencies_ms));
    println!("{}", stats::describe("pass throughput", "1/s", &o.pass_ops_per_s));
    println!("{}", stats::describe("process peak RSS", "MB", &o.rss_mb));
    println!(
        "timed window: {:.3} s, {} operations ({} correct) in {} passes, {:.4} correct ops/s \
         over the whole window",
        o.window_s,
        o.latencies_ms.len(),
        o.correct_ops,
        o.pass_ops_per_s.len(),
        o.mean_ops_per_s(),
    );
    let metrics = end_to_end_metrics(&o);
    for m in &metrics {
        println!("{} = {} {}", m.name, json::num(m.value), m.unit);
    }
    println!(
        "{TORN_PREFIX}{} (store appends merged by the write race, README finding 5)",
        o.torn_appends
    );
    if proc::own_peak_rss_mb() >= o.peak_rss_mb() {
        println!("NOTE: peak_rss_mb is the harness's own RSS, not repro's (README finding 4)");
    }
    print_failures(&o.checks);
    (metrics, o.checks)
}

/// The traced pass: the layer timings, then a short replay of `workload`
/// against the real binary with client spans on; writes
/// `benchmark/out/trace.json`. Returns the per-layer metrics in the
/// contract's order.
fn traced_pass(workload: &'static str, args: &Args, goldens: &Goldens) -> (Vec<Metric>, Checks) {
    let scratch = Scratch::new("trace");
    let tracer = Tracer::new(true);
    let before = proc::cpu_jiffies();
    let mut ctx = args.ctx(&scratch.0, args.seconds * TRACED_REPLAY_SHARE, &tracer, goldens);
    let measured = layers::run(&ctx);
    let mut values = measured.metrics;
    let mut checks = measured.checks;

    tracer.set_workload(workload);
    let dir = scratch.0.join(workload);
    std::fs::create_dir_all(&dir).expect("create replay dir");
    ctx.scratch = &dir;
    let o = workloads::run(workload, &ctx);
    let ops = o.latencies_ms.len().max(1) as f64;
    values.extend([
        ("proc.cpu_ms_per_op", o.cpu_ms / ops),
        ("client.p50_ms", stats::median(&o.latencies_ms)),
        ("client.p95_ms", stats::quantile(&o.latencies_ms, 0.95)),
        ("client.wait_share", o.wait_ms / o.round_trip_ms),
    ]);
    checks.absorb(o.checks);

    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&((name, unit, _), _)| {
            let value =
                values.iter().find(|v| v.0 == name).expect("every contract metric measured").1;
            Metric { name, value, unit }
        })
        .collect();
    let host = proc::host_line(proc::steal_share(before, proc::cpu_jiffies()));
    let spans = tracer.spans();
    let path = Path::new(OUT_DIR).join("trace.json");
    std::fs::write(&path, trace::render(&host, &spans, &measured.rows, &metrics))
        .expect("write trace.json");

    println!("workload: {workload} seed={} seconds={} trace=1", args.seed, args.seconds);
    println!("{host}");
    for (m, (_, expected)) in metrics.iter().zip(&PER_LAYER) {
        let beside =
            if expected.is_empty() { String::new() } else { format!("   [expected {expected}]") };
        println!("{} = {} {}{beside}", m.name, json::num(m.value), m.unit);
    }
    println!("self time per (workload, layer), ms:");
    for ((workload, layer), (ns, n)) in trace::self_times(&spans) {
        println!("  {workload:<12} {layer:<52} {:>12.3}  ({n} spans)", ns as f64 / 1e6);
    }
    println!("wrote {} ({} spans)", path.display(), spans.len());
    print_failures(&checks);
    (metrics, checks)
}

/// `--runs K --out FILE`: every workload `runs` times with tracing off,
/// then once traced, each run a child process of its own — the way the
/// driver runs them — and the result lines collected into `out`.
fn run_sets(runs: usize, out: &str, args: &Args) -> ! {
    let me = std::env::current_exe().expect("path of the harness");
    let before = proc::cpu_jiffies();
    let (mut entries, mut bad) = (Vec::new(), 0);
    let plan = (0..runs)
        .flat_map(|k| WORKLOADS.map(|w| (w, args.seed + k as u64, 0)))
        .chain(WORKLOADS.map(|w| (w, args.seed, 1)));
    for (workload, seed, trace) in plan {
        let child = std::process::Command::new(&me)
            .arg("--repro")
            .arg(args.repro())
            .args(["--workload", workload, "--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string(), "--trace", &trace.to_string()])
            .output()
            .expect("spawn a run");
        let text = String::from_utf8_lossy(&child.stdout);
        print!("{text}");
        let result = text.lines().last().unwrap_or("");
        if !child.status.success() || json::parse(result).is_err() {
            println!("RUN FAILED: {workload} seed={seed} trace={trace}: {}", child.status);
            print!("{}", String::from_utf8_lossy(&child.stderr));
            bad += 1;
            continue;
        }
        // What a run says about itself besides its result object.
        let said = |prefix: &str, end: char| -> f64 {
            text.lines()
                .find_map(|l| l.split_once(prefix)?.1.split(end).next()?.parse().ok())
                .unwrap_or(0.0)
        };
        entries.push(format!(
            "{{\"workload\": {}, \"seed\": {seed}, \"trace\": {trace}, \"steal_pct\": {}, \
             \"torn_appends\": {}, \"result\": {result}}}",
            json::quote(workload),
            said(" steal=", '%'),
            said(TORN_PREFIX, ' '),
        ));
        println!();
    }
    let doc = format!(
        "{{\"host\": {},\n\"runs\": [\n{}\n]}}\n",
        json::quote(&proc::host_line(proc::steal_share(before, proc::cpu_jiffies()))),
        entries.join(",\n")
    );
    std::fs::write(out, doc).unwrap_or_else(|e| die(&format!("{out}: {e}")));
    println!("wrote {out}: {runs} run(s) of each workload + a traced pass of each, {bad} failed");
    std::process::exit((bad > 0) as i32);
}

fn main() {
    let args = parse_args();
    if let Some(store) = &args.fill_store {
        workloads::fill_store(store, args.seed);
        return;
    }
    let benchmark_json = std::fs::read_to_string("BENCHMARK.json")
        .unwrap_or_else(|e| die(&format!("BENCHMARK.json (run from the repo root): {e}")));
    if let Err(e) = contract::check(&benchmark_json) {
        die(&format!("refusing to run, BENCHMARK.json and the harness disagree: {e}"));
    }
    if let Some((a, b)) = &args.compare {
        match compare::run(a, b, &benchmark_json) {
            Ok(true) => return,
            Ok(false) => std::process::exit(1),
            Err(e) => die(&e),
        }
    }
    std::fs::create_dir_all(OUT_DIR).expect("create benchmark/out");
    if args.bless {
        let scratch = Scratch::new("bless");
        workloads::bless(args.repro(), &scratch.0, proc::load_threads());
        return;
    }
    if let Some(runs) = args.runs {
        let out = args.out.as_deref().unwrap_or_else(|| die("--runs needs --out FILE"));
        run_sets(runs, out, &args);
    }

    let goldens = Goldens::load().unwrap_or_else(|e| die(&e));
    let asked = args.workload.as_deref().unwrap_or_else(|| die("--workload is required"));
    let workload = *WORKLOADS
        .iter()
        .find(|w| **w == asked)
        .unwrap_or_else(|| die(&format!("unknown workload '{asked}'")));
    let (metrics, checks) = if args.trace {
        traced_pass(workload, &args, &goldens)
    } else {
        measure(workload, &args, &goldens)
    };
    println!("{{{}}}", result_fields(&checks, &metrics));
    std::process::exit((checks.failed > 0) as i32);
}
