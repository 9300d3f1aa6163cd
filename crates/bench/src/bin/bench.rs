//! Trace→cachesim pipeline throughput benchmark.
//!
//! ```text
//! bench [--phase traffic|lower|passes|all] [--mode simulate|symbolic]
//!       [--label L] [--sizes 16,32,64] [--samples K] [--variants a,b]
//!       [--out PATH] [--skip-reference] [--check-against PATH]
//!       [--threshold X] [--min-speedup X] [--threads N]
//!       [--min-par-speedup X]
//! ```
//!
//! Phases:
//!
//! * `traffic` (default) — time `traffic::measure` for the named
//!   variant shortlist, as before.
//! * `lower` — time `pdesched_core::plan::lower` (schedule lowering to
//!   the plan IR) for *every* extended variant valid at each size, and
//!   report lowerings per second. Guards against a lowering-cost
//!   regression sneaking into every solver step and sweep.
//! * `passes` — two things at once. First it times the pass pipeline
//!   itself (lower + `Pipeline::apply` + verifier) for a pinned set of
//!   (variant, pipeline) combinations at each size, reporting applies
//!   per second, gated by `--check-against` like the other kinds.
//!   Second it reruns the headline schedule search
//!   (`search_schedules` on the i5 desktop at the pinned box size) and
//!   **fails** unless a pass-discovered schedule still strictly beats
//!   the best hand-written schedule's simulator-measured pair traffic —
//!   the committed `BENCH_passes.json` records both results and CI
//!   regenerates them.
//! * `all` — the traffic and lower phases (the passes phase is explicit
//!   only: its search leg simulates pair traffic, which is much heavier
//!   than a timing smoke); `--check-against` then checks whichever
//!   kinds the baseline file carries.
//!
//! Times `Engine::Simulate` (the run-batched, hot-line-filtered fast
//! path) and `Engine::Reference` (the per-element reference path) for
//! each (variant, box size) point and reports simulated
//! accesses per second plus per-point wall time. Results go to
//! `BENCH_<label>.json` at the invocation directory (repo root in CI)
//! unless `--out` overrides the path.
//!
//! * `--samples K` — repeat each timing K times and keep the fastest
//!   (default 3); traffic results are asserted identical across paths
//!   every time, so the benchmark doubles as an equivalence check.
//! * `--skip-reference` — fast path only (for quick smoke runs).
//! * `--check-against PATH --threshold X` — compare this run's fast-path
//!   accesses/sec against a previously committed BENCH JSON and exit
//!   nonzero if any matching point regressed by more than X× (default
//!   3.0, loose enough to absorb machine-to-machine variation while
//!   catching an accidental return to per-element dispatch). Points
//!   missing from the baseline are reported and skipped.
//! * `--mode symbolic` — time the symbolic traffic pipeline
//!   (`Engine::Symbolic`) as the fast path instead; the
//!   comparator becomes the fast-path *simulator*, so `speedup` in the
//!   JSON is symbolic-vs-simulate and the results are asserted
//!   bit-identical on every sample. The default label becomes the mode
//!   name (`BENCH_symbolic.json` — the file CI gates). Points whose
//!   plans the analysis leaves unclaimed (wavefront/overlap) fall back
//!   to the simulator and are marked `"claimed": false`.
//! * `--min-speedup X` — with `--mode symbolic`, exit nonzero unless
//!   every *claimed* point's symbolic-vs-simulate speedup is at least
//!   X× (the ≥10× throughput criterion, enforced in CI at n=64).
//! * `--threads N` — run the fast path through the set-sharded parallel
//!   measurement pipeline with N engine threads (the same engine with
//!   `threads: N`; under `--mode simulate` that is the trace
//!   splitter). The comparator becomes the
//!   *serial same-mode engine*, so `speedup` in the JSON is the
//!   parallel-vs-serial wall ratio for one point, and every sample is
//!   still asserted bit-identical. Per-point `engine_threads` and the
//!   deterministic `shard_balance` (total routed ops / max per-shard
//!   ops, the host-independent ceiling on achievable speedup) land in
//!   the JSON.
//! * `--min-par-speedup X` — with `--threads N > 1` and `--mode
//!   symbolic`, exit nonzero unless every *claimed* point clears X: the wall
//!   speedup when the host actually has N cores
//!   (`available_parallelism() >= N`), otherwise the shard-balance
//!   bound (wall speedup on a core-starved host measures the scheduler,
//!   not the sharding). The gate prints which criterion it used.
//!
//! The JSON is written one point per line so the regression check needs
//! no JSON parser — see `field` below. The `lower_points` array is
//! omitted entirely when the lower phase didn't run (it used to be
//! emitted always-empty).

use pdesched_cachesim::CacheConfig;
use pdesched_core::{CompLoop, Variant};
use pdesched_machine::symbolic::analyze;
use pdesched_machine::traffic::{box_reps, measure, BoxTraffic, Engine, Point as MeasurePoint};
use pdesched_machine::{search_schedules, MachineSpec, TrafficCache};
use std::time::Instant;

/// The undersized stress hierarchy every golden test pins (8 KiB 4-way
/// L1, 64 KiB 8-way LLC): constant capacity misses make it the
/// worst-case load on the simulator itself.
fn hierarchy() -> Vec<CacheConfig> {
    vec![CacheConfig::new(8 * 1024, 4), CacheConfig::new(64 * 1024, 8)]
}

struct Point {
    variant: &'static str,
    n: i32,
    accesses: u64,
    fast_seconds: f64,
    ref_seconds: Option<f64>,
    dram_bytes: u64,
    /// `--mode symbolic` only: whether the analysis claimed the
    /// plan (unclaimed points fall back to the simulator, so their
    /// speedup is ~1 and exempt from `--min-speedup`).
    claimed: Option<bool>,
    /// Engine threads the fast path ran with (1 = serial engines).
    engine_threads: usize,
    /// `--threads N > 1` only: total routed ops / max per-shard ops —
    /// the deterministic ceiling on parallel speedup from shard load
    /// balance alone, independent of host core count.
    shard_balance: Option<f64>,
}

impl Point {
    fn fast_macc(&self) -> f64 {
        self.accesses as f64 / self.fast_seconds / 1e6
    }
}

/// One `--phase lower` timing: lowering `variant` for an `n`^3 box.
struct LowerPoint {
    variant: String,
    n: i32,
    lower_seconds: f64,
}

impl LowerPoint {
    fn lowers_per_s(&self) -> f64 {
        1.0 / self.lower_seconds
    }
}

/// One `--phase passes` timing: lowering `variant` and running the
/// `passes` pipeline (including its verifier) for an `n`^3 box.
struct PassPoint {
    variant: &'static str,
    passes: &'static str,
    n: i32,
    apply_seconds: f64,
}

impl PassPoint {
    fn applies_per_s(&self) -> f64 {
        1.0 / self.apply_seconds
    }
}

/// The pinned (variant, threads, pipeline) combinations the passes
/// phase times: one per built-in pass family, on the plan shapes that
/// exercise the interesting analysis paths.
fn pass_combos() -> Vec<(&'static str, Variant, usize, &'static str)> {
    use pdesched_core::Granularity;
    let mut fuse_cli = Variant::shift_fuse();
    fuse_cli.comp = CompLoop::Inside;
    let series_nt = Variant { gran: Granularity::WithinBox, ..Variant::baseline() };
    vec![
        ("series_nt4", series_nt, 4, "elide-barriers,fuse-phases"),
        ("fuse_cli", fuse_cli, 1, "cross-box-fuse:4"),
        ("bwf_cli4", Variant::blocked_wavefront(CompLoop::Inside, 4), 2, "elide-barriers"),
        ("bwf_cli4", Variant::blocked_wavefront(CompLoop::Inside, 4), 2, "rechunk:6"),
    ]
}

/// The headline gate the passes phase re-proves on every run: the box
/// size and machine where the committed `BENCH_passes.json` records a
/// pass-discovered schedule beating the hand-written best.
const HEADLINE_N: i32 = 24;

/// What the headline search found (for the JSON and the gate).
struct SearchRecord {
    machine: String,
    box_n: i32,
    candidates_ranked: usize,
    best_handwritten: String,
    best_handwritten_dram: u64,
    winner: String,
    winner_dram: u64,
    beats: bool,
}

fn named_variants() -> Vec<(&'static str, Variant)> {
    let mut fuse_cli = Variant::shift_fuse();
    fuse_cli.comp = CompLoop::Inside;
    vec![
        ("baseline", Variant::baseline()),
        ("shift_fuse", Variant::shift_fuse()),
        ("fuse_cli", fuse_cli),
        ("bwf_cli4", Variant::blocked_wavefront(CompLoop::Inside, 4)),
    ]
}

fn usage(msg: &str) -> ! {
    eprintln!("bench: {msg}");
    eprintln!(
        "usage: bench [--phase traffic|lower|passes|all] [--mode simulate|symbolic] [--label L] \
         [--sizes 16,32,64] [--samples K] [--variants a,b] [--out PATH] [--skip-reference] \
         [--check-against PATH] [--threshold X] [--min-speedup X] [--threads N] \
         [--min-par-speedup X]"
    );
    std::process::exit(2);
}

fn main() {
    let mut label: Option<String> = None;
    let mut sizes: Vec<i32> = vec![16, 32, 64];
    let mut samples: usize = 3;
    let mut out: Option<String> = None;
    let mut skip_reference = false;
    let mut check_against: Option<String> = None;
    let mut threshold: f64 = 3.0;
    let mut min_speedup: Option<f64> = None;
    let mut min_par_speedup: Option<f64> = None;
    let mut threads: usize = 1;
    let mut wanted: Option<Vec<String>> = None;
    let mut phase = String::from("traffic");
    let mut mode = String::from("simulate");

    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut val =
            |name: &str| it.next().unwrap_or_else(|| usage(&format!("{name} needs a value")));
        match arg.as_str() {
            "--phase" => {
                phase = val("--phase");
                if !matches!(phase.as_str(), "traffic" | "lower" | "passes" | "all") {
                    usage("--phase must be traffic, lower, passes, or all");
                }
            }
            "--mode" => {
                mode = val("--mode");
                if !matches!(mode.as_str(), "simulate" | "symbolic") {
                    usage("--mode must be simulate or symbolic");
                }
            }
            "--label" => label = Some(val("--label")),
            "--sizes" => {
                sizes = val("--sizes")
                    .split(',')
                    .map(|s| s.trim().parse().unwrap_or_else(|_| usage("bad --sizes")))
                    .collect()
            }
            "--samples" => {
                samples = val("--samples").parse().unwrap_or_else(|_| usage("bad --samples"))
            }
            "--variants" => {
                wanted = Some(val("--variants").split(',').map(|s| s.trim().to_string()).collect())
            }
            "--out" => out = Some(val("--out")),
            "--skip-reference" => skip_reference = true,
            "--check-against" => check_against = Some(val("--check-against")),
            "--threshold" => {
                threshold = val("--threshold").parse().unwrap_or_else(|_| usage("bad --threshold"))
            }
            "--min-speedup" => {
                min_speedup = Some(
                    val("--min-speedup").parse().unwrap_or_else(|_| usage("bad --min-speedup")),
                )
            }
            "--threads" => {
                threads = val("--threads").parse().unwrap_or_else(|_| usage("bad --threads"))
            }
            "--min-par-speedup" => {
                min_par_speedup = Some(
                    val("--min-par-speedup")
                        .parse()
                        .unwrap_or_else(|_| usage("bad --min-par-speedup")),
                )
            }
            other => usage(&format!("unrecognized argument '{other}'")),
        }
    }
    if samples == 0 {
        usage("--samples must be at least 1");
    }
    let symbolic_mode = mode != "simulate";
    if min_speedup.is_some() && !symbolic_mode {
        usage("--min-speedup needs --mode symbolic");
    }
    if threads == 0 {
        usage("--threads must be at least 1");
    }
    if min_par_speedup.is_some() && (threads < 2 || !symbolic_mode) {
        usage("--min-par-speedup needs --threads N > 1 and --mode symbolic");
    }
    let label = label.unwrap_or_else(|| {
        if phase == "passes" {
            String::from("passes")
        } else if symbolic_mode {
            mode.clone()
        } else {
            String::from("local")
        }
    });

    let configs = hierarchy();
    let variants: Vec<(&'static str, Variant)> = match &wanted {
        None => named_variants(),
        Some(names) => {
            let all = named_variants();
            names
                .iter()
                .map(|w| {
                    *all.iter()
                        .find(|(name, _)| name == w)
                        .unwrap_or_else(|| usage(&format!("unknown variant '{w}'")))
                })
                .collect()
        }
    };

    let traffic_phase = phase == "traffic" || phase == "all";
    let lower_phase = phase == "lower" || phase == "all";
    let passes_phase = phase == "passes";

    let mut points = Vec::new();
    for &n in &sizes {
        if !traffic_phase {
            break;
        }
        for &(vname, variant) in &variants {
            if !variant.valid_for_box(n) {
                println!("{vname:<12} n={n:<4} skipped (invalid for box)");
                continue;
            }
            // Serial runs: in symbolic mode the pipeline under test is
            // the symbolic summarizer and the comparator is the fast-path
            // simulator (itself the thing `--mode simulate` benchmarks
            // against the per-element reference) — so `speedup` stacks:
            // symbolic vs simulate here, simulate vs reference there.
            // With `--threads N > 1` the fast path is the set-sharded
            // parallel pipeline and the comparator is the serial engine
            // of the *same* mode, so `speedup` is parallel-vs-serial.
            let fast = if symbolic_mode {
                Engine::Symbolic { threads }
            } else {
                Engine::Simulate { threads }
            };
            let comparator = match (threads > 1, symbolic_mode) {
                (true, true) => Engine::Symbolic { threads: 1 },
                (true, false) | (false, true) => Engine::Simulate { threads: 1 },
                (false, false) => Engine::Reference,
            };
            let point = MeasurePoint::hand(variant, n, &configs);
            let mut shard_balance = None;
            let (fast_seconds, traffic) = time_best(samples, || {
                let (t, ps) = measure(&point, fast).expect("validated above; no passes");
                shard_balance = (threads > 1).then(|| ps.balance());
                t[0]
            });
            let accesses = (traffic.reads + traffic.writes) * box_reps(n) as u64;
            let ref_seconds = (!skip_reference).then(|| {
                let (secs, r) = time_best(samples, || {
                    measure(&point, comparator).expect("validated above; no passes").0[0]
                });
                assert_eq!(traffic, r, "fast path diverged from comparator for {vname} n={n}");
                secs
            });
            let claimed = symbolic_mode.then(|| analyze(variant, n).fully_claimed());
            let p = Point {
                variant: vname,
                n,
                accesses,
                fast_seconds,
                ref_seconds,
                dram_bytes: traffic.dram_bytes,
                claimed,
                engine_threads: threads,
                shard_balance,
            };
            let tag = match claimed {
                Some(true) => " sym",
                Some(false) => " sim",
                None => "",
            };
            let bal = match shard_balance {
                Some(b) => format!("  balance {b:.2}"),
                None => String::new(),
            };
            match p.ref_seconds {
                Some(r) => println!(
                    "{vname:<12} n={n:<4}{tag} fast {fast_seconds:.3}s ({:7.1} Macc/s)  ref {r:.3}s  speedup {:.2}x{bal}",
                    p.fast_macc(),
                    r / fast_seconds
                ),
                None => println!(
                    "{vname:<12} n={n:<4}{tag} fast {fast_seconds:.3}s ({:7.1} Macc/s){bal}",
                    p.fast_macc()
                ),
            }
            points.push(p);
        }
    }

    let mut lowers: Vec<LowerPoint> = Vec::new();
    if lower_phase {
        // Lowering cost is what every solver step and sweep prewarm pays
        // on a plan-cache miss: time `lower` itself (no caching) for the
        // whole extended space.
        let threads = 8;
        for &n in &sizes {
            for variant in Variant::enumerate_extended(n) {
                if !variant.valid_for_box(n) {
                    continue;
                }
                let secs = time_lower(samples, variant, n, threads);
                let p = LowerPoint { variant: variant.name(), n, lower_seconds: secs };
                println!(
                    "lower  {:<36} n={n:<4} {:.1} us/lowering ({:8.0} lowerings/s)",
                    p.variant,
                    secs * 1e6,
                    p.lowers_per_s()
                );
                lowers.push(p);
            }
        }
    }

    let mut pass_points: Vec<PassPoint> = Vec::new();
    let mut search: Option<SearchRecord> = None;
    if passes_phase {
        use pdesched_core::plan::lower;
        use pdesched_core::Pipeline;
        use pdesched_mesh::IntVect;
        for &n in &sizes {
            for (vname, variant, nthreads, spec) in pass_combos() {
                if !variant.valid_for_box(n) {
                    continue;
                }
                let pipe = Pipeline::parse(spec).expect("pinned pass specs parse");
                if pipe.apply(lower(variant, IntVect::splat(n), nthreads)).is_err() {
                    println!("passes {vname:<12} [{spec}] n={n} skipped (pipeline does not apply)");
                    continue;
                }
                let secs = time_apply(samples, variant, n, nthreads, &pipe);
                let p = PassPoint { variant: vname, passes: spec, n, apply_seconds: secs };
                println!(
                    "passes {vname:<12} [{spec:<26}] n={n:<4} {:.2} ms/apply \
                     ({:8.1} applies/s)",
                    secs * 1e3,
                    p.applies_per_s()
                );
                pass_points.push(p);
            }
        }
        // The headline gate: rerun the schedule search that discovered a
        // pipeline beating the hand-written best, with the exact
        // simulator confirming both sides. Deterministic, so a pass here
        // is a bit-exact reproduction of the committed claim.
        let spec = MachineSpec::i5_desktop();
        let cache = TrafficCache::new();
        println!(
            "search: pass-pipeline schedule search on {} at N={HEADLINE_N} \
             (exact pair simulation)...",
            spec.name
        );
        let t0 = Instant::now();
        let report = search_schedules(&spec, HEADLINE_N, 4, &cache);
        let hand = report.best_handwritten().clone();
        let winner = report.winner().expect("discovered frontier is non-empty").clone();
        println!(
            "search: best hand-written {} = {} DRAM B/box; best discovered {} = {} \
             DRAM B/box ({:.1}s, {} candidates ranked)",
            hand.label(),
            hand.traffic.dram_bytes,
            winner.label(),
            winner.traffic.dram_bytes,
            t0.elapsed().as_secs_f64(),
            report.candidates_ranked
        );
        search = Some(SearchRecord {
            machine: report.machine.clone(),
            box_n: report.box_n,
            candidates_ranked: report.candidates_ranked,
            best_handwritten: hand.label(),
            best_handwritten_dram: hand.traffic.dram_bytes,
            winner: winner.label(),
            winner_dram: winner.traffic.dram_bytes,
            beats: report.beats_handwritten(),
        });
    }

    let path = out.unwrap_or_else(|| format!("BENCH_{label}.json"));
    std::fs::write(
        &path,
        render_json(&label, &mode, threads, &configs, &points, &lowers, &pass_points, &search),
    )
    .expect("write bench JSON");
    println!("wrote {path}");

    if let Some(s) = &search {
        if s.beats {
            let saved = 100.0 * (1.0 - s.winner_dram as f64 / s.best_handwritten_dram as f64);
            println!(
                "search gate: {} beats {} by {saved:.1}% (simulator-confirmed)",
                s.winner, s.best_handwritten
            );
        } else {
            eprintln!(
                "bench: search gate FAILED: no discovered schedule beats {} \
                 ({} DRAM B/box) on {} at N={}",
                s.best_handwritten, s.best_handwritten_dram, s.machine, s.box_n
            );
            std::process::exit(1);
        }
    }

    if let Some(min) = min_par_speedup {
        // Wall speedup only means something when the host can actually
        // run the shards concurrently; on a core-starved host (CI
        // shared runners, the 1-core reproduction box) gate the
        // deterministic shard-balance bound instead.
        let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
        let use_wall = cores >= threads;
        println!(
            "par gate: host has {cores} cores for {threads} threads — gating {}",
            if use_wall { "wall speedup" } else { "shard balance" }
        );
        let mut failures = String::new();
        for p in &points {
            if p.claimed != Some(true) {
                continue;
            }
            let got = if use_wall {
                let Some(r) = p.ref_seconds else {
                    usage("--min-par-speedup needs the comparator; drop --skip-reference");
                };
                r / p.fast_seconds
            } else {
                p.shard_balance.expect("parallel points carry a balance")
            };
            if got < min {
                failures
                    .push_str(&format!("  {} n={}: {got:.2} < required {min}\n", p.variant, p.n));
            }
        }
        if !failures.is_empty() {
            eprintln!("bench: parallel gate below --min-par-speedup {min}:\n{failures}");
            std::process::exit(1);
        }
        println!("all claimed points at or above {min} on the parallel gate");
    }

    if let Some(min) = min_speedup {
        let mut failures = String::new();
        for p in &points {
            if p.claimed != Some(true) {
                continue;
            }
            let Some(r) = p.ref_seconds else {
                usage("--min-speedup needs the comparator; drop --skip-reference");
            };
            let speedup = r / p.fast_seconds;
            if speedup < min {
                failures.push_str(&format!(
                    "  {} n={}: {speedup:.2}x < required {min}x\n",
                    p.variant, p.n
                ));
            }
        }
        if !failures.is_empty() {
            eprintln!("bench: symbolic speedup below --min-speedup {min}:\n{failures}");
            std::process::exit(1);
        }
        println!("all claimed points at or above {min}x symbolic-vs-simulate");
    }

    if let Some(base) = check_against {
        let baseline = std::fs::read_to_string(&base)
            .unwrap_or_else(|e| usage(&format!("cannot read --check-against {base}: {e}")));
        if let Err(msg) = check_regression(&baseline, &points, &lowers, &pass_points, threshold) {
            eprintln!("bench: REGRESSION vs {base}:\n{msg}");
            std::process::exit(1);
        }
        println!("no regression beyond {threshold}x vs {base}");
    }
}

/// Fastest observed per-lowering wall time over `samples` batches. A
/// single lowering is microseconds, so each batch repeats the call until
/// it has accumulated enough wall time to be measurable.
fn time_lower(samples: usize, variant: Variant, n: i32, threads: usize) -> f64 {
    use pdesched_core::plan::lower;
    use pdesched_mesh::IntVect;
    let size = IntVect::splat(n);
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let mut reps = 0u32;
        let t0 = Instant::now();
        loop {
            std::hint::black_box(lower(variant, size, threads));
            reps += 1;
            let elapsed = t0.elapsed().as_secs_f64();
            if elapsed >= 5e-3 || reps >= 1000 {
                best = best.min(elapsed / reps as f64);
                break;
            }
        }
    }
    best
}

/// Fastest observed per-application wall time for lowering `variant`
/// and running `pipe` over it (batched like [`time_lower`]: one
/// application is milliseconds at most, dominated by the verifier's
/// reference lowering and stream normalization).
fn time_apply(
    samples: usize,
    variant: Variant,
    n: i32,
    threads: usize,
    pipe: &pdesched_core::Pipeline,
) -> f64 {
    use pdesched_core::plan::lower;
    use pdesched_mesh::IntVect;
    let size = IntVect::splat(n);
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let mut reps = 0u32;
        let t0 = Instant::now();
        loop {
            std::hint::black_box(
                pipe.apply(lower(variant, size, threads)).expect("pre-flighted pipeline applies"),
            );
            reps += 1;
            let elapsed = t0.elapsed().as_secs_f64();
            if elapsed >= 5e-3 || reps >= 1000 {
                best = best.min(elapsed / reps as f64);
                break;
            }
        }
    }
    best
}

/// Run `f` `samples` times; return the fastest wall time and the (always
/// identical) result.
fn time_best(samples: usize, mut f: impl FnMut() -> BoxTraffic) -> (f64, BoxTraffic) {
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..samples {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed().as_secs_f64());
        if let Some(prev) = result {
            assert_eq!(prev, r, "measurement is not deterministic");
        }
        result = Some(r);
    }
    (best, result.unwrap())
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    label: &str,
    mode: &str,
    threads: usize,
    configs: &[CacheConfig],
    points: &[Point],
    lowers: &[LowerPoint],
    pass_points: &[PassPoint],
    search: &Option<SearchRecord>,
) -> String {
    use pdesched_bench::json_str;
    use std::fmt::Write;
    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(j, "  \"label\": {},", json_str(label));
    let _ = writeln!(j, "  \"mode\": {},", json_str(mode));
    let _ = writeln!(j, "  \"threads\": {threads},");
    let levels: Vec<String> = configs
        .iter()
        .map(|c| format!("{{\"bytes\": {}, \"assoc\": {}}}", c.size, c.assoc))
        .collect();
    let _ = writeln!(j, "  \"hierarchy\": [{}],", levels.join(", "));
    // Only emitted when the lower phase ran: an always-present empty
    // array used to masquerade as "measured, found nothing".
    if !lowers.is_empty() {
        let _ = writeln!(j, "  \"lower_points\": [");
        for (i, p) in lowers.iter().enumerate() {
            let comma = if i + 1 < lowers.len() { "," } else { "" };
            let _ = writeln!(
                j,
                "    {{\"kind\": \"lower\", \"variant\": {}, \"n\": {}, \
                 \"lower_seconds\": {:.9}, \"lowers_per_s\": {:.1}}}{comma}",
                json_str(&p.variant),
                p.n,
                p.lower_seconds,
                p.lowers_per_s()
            );
        }
        let _ = writeln!(j, "  ],");
    }
    // Same convention as `lower_points`: emitted only when the passes
    // phase ran.
    if !pass_points.is_empty() {
        let _ = writeln!(j, "  \"pass_points\": [");
        for (i, p) in pass_points.iter().enumerate() {
            let comma = if i + 1 < pass_points.len() { "," } else { "" };
            let _ = writeln!(
                j,
                "    {{\"kind\": \"passes\", \"variant\": {}, \"passes\": {}, \"n\": {}, \
                 \"apply_seconds\": {:.9}, \"applies_per_s\": {:.1}}}{comma}",
                json_str(p.variant),
                json_str(p.passes),
                p.n,
                p.apply_seconds,
                p.applies_per_s()
            );
        }
        let _ = writeln!(j, "  ],");
    }
    if let Some(s) = search {
        let _ = writeln!(
            j,
            "  \"search\": {{\"machine\": {}, \"box_n\": {}, \"candidates_ranked\": {}, \
             \"best_handwritten\": {}, \"best_handwritten_dram_bytes\": {}, \
             \"winner\": {}, \"winner_dram_bytes\": {}, \"beats_handwritten\": {}}},",
            json_str(&s.machine),
            s.box_n,
            s.candidates_ranked,
            json_str(&s.best_handwritten),
            s.best_handwritten_dram,
            json_str(&s.winner),
            s.winner_dram,
            s.beats
        );
    }
    let _ = writeln!(j, "  \"points\": [");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 < points.len() { "," } else { "" };
        let (rs, rm, sp) = match p.ref_seconds {
            Some(r) => (
                format!("{r:.6}"),
                format!("{:.3}", p.accesses as f64 / r / 1e6),
                format!("{:.3}", r / p.fast_seconds),
            ),
            None => ("null".into(), "null".into(), "null".into()),
        };
        let claimed = match p.claimed {
            Some(true) => ", \"claimed\": true",
            Some(false) => ", \"claimed\": false",
            None => "",
        };
        let balance = match p.shard_balance {
            Some(b) => format!(", \"shard_balance\": {b:.4}"),
            None => String::new(),
        };
        let _ = writeln!(
            j,
            "    {{\"variant\": {}, \"n\": {}, \"accesses\": {}, \
             \"fast_seconds\": {:.6}, \"fast_macc_per_s\": {:.3}, \
             \"ref_seconds\": {rs}, \"ref_macc_per_s\": {rm}, \"speedup\": {sp}, \
             \"dram_bytes\": {}, \"engine_threads\": {}{claimed}{balance}}}{comma}",
            json_str(p.variant),
            p.n,
            p.accesses,
            p.fast_seconds,
            p.fast_macc(),
            p.dram_bytes,
            p.engine_threads
        );
    }
    let _ = writeln!(j, "  ]");
    let _ = writeln!(j, "}}");
    j
}

/// Pull `"key": value` off a single point line (the writer above emits
/// one point per line, so no JSON parser is needed).
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    // A quoted value may contain commas (e.g. a multi-pass pipeline
    // spec), so close it at the matching quote, not the first comma.
    if let Some(inner) = rest.strip_prefix('"') {
        let end = inner.find('"')?;
        return Some(&inner[..end]);
    }
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// Fail if any current point's throughput (fast-path accesses/sec for
/// traffic points, lowerings/sec for lower points, applications/sec
/// for pass points) fell below the baseline's by more than
/// `threshold`×.
fn check_regression(
    baseline: &str,
    points: &[Point],
    lowers: &[LowerPoint],
    pass_points: &[PassPoint],
    threshold: f64,
) -> Result<(), String> {
    use std::fmt::Write;
    let mut failures = String::new();
    for p in points {
        let base = baseline.lines().find(|l| {
            field(l, "kind").is_none_or(|k| k == "traffic")
                && field(l, "variant") == Some(p.variant)
                && field(l, "n").and_then(|v| v.parse::<i32>().ok()) == Some(p.n)
        });
        let Some(line) = base else {
            println!("note: no baseline point for {} n={} — skipped", p.variant, p.n);
            continue;
        };
        let base_macc: f64 = field(line, "fast_macc_per_s")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("unparsable baseline line: {line}"))?;
        let now = p.fast_macc();
        if now * threshold < base_macc {
            let _ = writeln!(
                failures,
                "  {} n={}: {:.1} Macc/s vs baseline {:.1} (allowed floor {:.1})",
                p.variant,
                p.n,
                now,
                base_macc,
                base_macc / threshold
            );
        }
    }
    for p in lowers {
        let base = baseline.lines().find(|l| {
            field(l, "kind") == Some("lower")
                && field(l, "variant") == Some(&p.variant)
                && field(l, "n").and_then(|v| v.parse::<i32>().ok()) == Some(p.n)
        });
        let Some(line) = base else {
            println!("note: no baseline lower point for {} n={} — skipped", p.variant, p.n);
            continue;
        };
        let base_rate: f64 = field(line, "lowers_per_s")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("unparsable baseline line: {line}"))?;
        let now = p.lowers_per_s();
        if now * threshold < base_rate {
            let _ = writeln!(
                failures,
                "  lower {} n={}: {:.0} lowerings/s vs baseline {:.0} (allowed floor {:.0})",
                p.variant,
                p.n,
                now,
                base_rate,
                base_rate / threshold
            );
        }
    }
    for p in pass_points {
        let base = baseline.lines().find(|l| {
            field(l, "kind") == Some("passes")
                && field(l, "variant") == Some(p.variant)
                && field(l, "passes") == Some(p.passes)
                && field(l, "n").and_then(|v| v.parse::<i32>().ok()) == Some(p.n)
        });
        let Some(line) = base else {
            println!(
                "note: no baseline pass point for {} [{}] n={} — skipped",
                p.variant, p.passes, p.n
            );
            continue;
        };
        let base_rate: f64 = field(line, "applies_per_s")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("unparsable baseline line: {line}"))?;
        let now = p.applies_per_s();
        if now * threshold < base_rate {
            let _ = writeln!(
                failures,
                "  passes {} [{}] n={}: {:.0} applies/s vs baseline {:.0} (allowed floor {:.0})",
                p.variant,
                p.passes,
                p.n,
                now,
                base_rate,
                base_rate / threshold
            );
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures)
    }
}
