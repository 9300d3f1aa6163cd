//! Supervised sweeps: cancellation at arbitrary points, per-point and
//! whole-sweep deadlines, and crash/cancel → resume round trips that
//! must be bit-identical to an uninterrupted run.
//!
//! Expected "injected" messages in this test's stderr come from the
//! fault plans, not from failures.

use pdesched_cachesim::CacheConfig;
use pdesched_core::Variant;
use pdesched_machine::{BoxTraffic, FaultHook, SimPoint, SweepBudget, SweepEngine, TrafficCache};
use pdesched_par::cancel::{self, CancelToken};
use pdesched_testkit::{check, sorted_lines, FaultPlan, TempDir};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cheapest hierarchy to simulate: everything is cache-resident.
fn roomy() -> Vec<CacheConfig> {
    vec![CacheConfig::new(32 * 1024, 8), CacheConfig::new(16 * 1024 * 1024, 16)]
}

/// Ten distinct cheap points: three variants × two box sizes on the
/// roomy hierarchy, then two more LLC sizes for the first two variants
/// at n = 8 — so the sweep holds two three-member families (one pass
/// each) among four singleton passes, and its last point is a family
/// member.
fn sweep_points() -> Vec<SimPoint> {
    let variants = [
        Variant::baseline(),
        Variant::shift_fuse(),
        Variant::overlapped(
            pdesched_core::IntraTile::ShiftFuse,
            4,
            pdesched_core::Granularity::WithinBox,
        ),
    ];
    let mut pts = Vec::new();
    for v in variants {
        for n in [8, 12] {
            pts.push(SimPoint { variant: v, n, configs: roomy() });
        }
    }
    for v in &variants[..2] {
        for mib in [8, 4] {
            let configs = vec![roomy()[0], CacheConfig::new(mib * 1024 * 1024, 16)];
            pts.push(SimPoint { variant: *v, n: 8, configs });
        }
    }
    pts
}

/// Trips a cancel token at the `k`-th simulation — a deterministic
/// stand-in for "the operator hit Ctrl-C mid-sweep".
struct TripAtSim {
    k: u64,
    token: CancelToken,
}

impl FaultHook for TripAtSim {
    fn before_simulation(&self, sim_index: u64, _key: &str) {
        if sim_index == self.k {
            self.token.trip("injected cancel");
        }
        // The measurement path's own checkpoints (plan walk) would also
        // catch this; checking here makes the cancellation point exact.
        cancel::check_current();
    }
}

/// Adapts a [`FaultPlan`] hang so it is released by cancellation — the
/// shape a wedged-but-interruptible simulation has in production.
struct HangHook(Arc<FaultPlan>);

impl FaultHook for HangHook {
    fn before_simulation(&self, _sim_index: u64, _key: &str) {
        self.0.on_sim_gated(|| !cancel::current_is_tripped());
        cancel::check_current();
    }
}

/// The reference: every point measured serially, in memory.
fn reference_values(pts: &[SimPoint]) -> Vec<BoxTraffic> {
    let cache = TrafficCache::new();
    pts.iter().map(|p| cache.get(p.variant, p.n, &p.configs)).collect()
}

/// Property: a sweep cancelled at an arbitrary simulation leaves a valid
/// store, and a re-run over the same store resumes the missing points
/// and ends bit-identical to an uninterrupted sweep.
#[test]
fn cancelled_sweep_resumes_bit_identical() {
    let pts = sweep_points();
    let reference = reference_values(&pts);
    let total = pts.len();
    let golden_dir = TempDir::new("cancelresume-golden");
    let golden = golden_dir.file("traffic.txt");
    let uninterrupted = SweepEngine::new(2).prewarm(&TrafficCache::with_store(&golden), &pts);
    assert_eq!((uninterrupted.measured, uninterrupted.passes), (total, 6));
    check(0xC0FFEE, 12, |rng| {
        let cancel_at = rng.range_usize(0, total) as u64;
        let threads = *rng.choose(&[1usize, 2, 3]);
        let dir = TempDir::new("cancelresume");
        let path = dir.file("traffic.txt");

        // Run 1: cancelled at simulation `cancel_at`.
        let token = CancelToken::new();
        let first = {
            let cache = TrafficCache::with_store(&path)
                .with_fault_hook(Arc::new(TripAtSim { k: cancel_at, token: token.clone() }));
            let engine = SweepEngine::new(threads).with_cancel_token(token.clone());
            engine.prewarm(&cache, &pts)
        };
        assert_eq!(
            first.cancelled.as_deref(),
            Some("injected cancel"),
            "cancel_at={cancel_at} threads={threads}"
        );
        assert!(first.failed.is_empty(), "{:?}", first.failed);
        assert!(first.measured < total, "the sweep must actually have been interrupted");
        assert_eq!(first.remaining, total - first.measured);
        // A cancelled pass records none of its members: what the store
        // holds is exactly what the report counted.
        assert_eq!(sorted_lines(&path).len(), first.measured);

        // Run 2: same prewarm, fresh process state, no faults. It must
        // find what the first run stored and finish the job.
        let resume = {
            let cache = TrafficCache::with_store(&path);
            assert!(!cache.store_read_only(), "crashed run's lock must not linger");
            let report = SweepEngine::new(threads).prewarm(&cache, &pts);
            // Everything the first run persisted is served from the
            // store; only the missing points are measured.
            assert_eq!(cache.stats().misses as usize, report.measured);
            report
        };
        assert_eq!(resume.cached, first.measured, "the store is the record of the first run");
        assert_eq!(resume.cancelled, None);
        assert_eq!(resume.measured, total - first.measured);
        assert_eq!(resume.remaining, 0);

        // Bit-identity: the resumed store answers every point exactly
        // like an uninterrupted serial run.
        let cache = TrafficCache::with_store(&path);
        assert_eq!(cache.len(), total);
        for (p, want) in pts.iter().zip(&reference) {
            let got = cache.get(p.variant, p.n, &p.configs);
            assert_eq!(got, *want, "{} n={} after resume", p.variant, p.n);
        }
        assert_eq!(sorted_lines(&path), sorted_lines(&golden), "resumed vs uninterrupted");

        // Run 3: nothing left to resume — the store holds every point.
        let clean = SweepEngine::new(threads).prewarm(&TrafficCache::with_store(&path), &pts);
        assert_eq!(clean.cached, total, "a completed sweep leaves nothing to resume");
        assert_eq!(clean.measured, 0);
    });
}

#[test]
fn hung_point_is_killed_by_point_deadline_without_blocking_the_rest() {
    let pts = sweep_points();
    let plan = Arc::new(FaultPlan::new().hang_on_sim(0));
    let dir = TempDir::new("hungpoint");
    let path = dir.file("traffic.txt");
    let report = {
        let cache =
            TrafficCache::with_store(&path).with_fault_hook(Arc::new(HangHook(Arc::clone(&plan))));
        let engine = SweepEngine::new(2).with_budget(SweepBudget {
            point_deadline: Some(Duration::from_millis(60)),
            ..Default::default()
        });
        engine.prewarm(&cache, &pts)
    };
    assert_eq!(report.timed_out.len(), 1, "{:?}", report.timed_out);
    assert!(report.timed_out[0].error.contains("point deadline"), "{}", report.timed_out[0].error);
    assert_eq!(report.measured, pts.len() - 1, "the other points must all complete");
    assert_eq!(report.cancelled, None, "a point timeout must not cancel the sweep");
    assert!(report.failed.is_empty());
    // The re-run (hang plan spent) completes exactly the killed point.
    let cache = TrafficCache::with_store(&path);
    let retry = SweepEngine::new(2).prewarm(&cache, &pts);
    assert_eq!(retry.measured, 1);
    assert_eq!(retry.timed_out.len(), 0);
    assert_eq!(retry.cached, pts.len() - 1, "the store holds every point but the killed one");
}

/// The per-point deadline supervises a pass: when it fires inside a
/// family's shared measurement, every member the pass was measuring is
/// reported timed out, nothing of it is stored, and the other passes
/// complete.
#[test]
fn hung_family_pass_times_out_every_member() {
    let pts = sweep_points();
    // One thread: simulation 0 is the first member of the first pass,
    // and n = 8 families sort behind the n = 12 singletons — so put a
    // family first by sweeping only the n = 8 points.
    let pts: Vec<SimPoint> = pts.into_iter().filter(|p| p.n == 8).collect();
    let plan = Arc::new(FaultPlan::new().hang_on_sim(0));
    let dir = TempDir::new("hungfamily");
    let path = dir.file("traffic.txt");
    let report = {
        let cache =
            TrafficCache::with_store(&path).with_fault_hook(Arc::new(HangHook(Arc::clone(&plan))));
        let engine = SweepEngine::new(1).with_budget(SweepBudget {
            point_deadline: Some(Duration::from_millis(60)),
            ..Default::default()
        });
        engine.prewarm(&cache, &pts)
    };
    assert_eq!(report.passes, 3, "two families of three and a singleton");
    assert_eq!(report.timed_out.len(), 3, "{:?}", report.timed_out);
    assert!(report.timed_out.iter().all(|f| f.variant == report.timed_out[0].variant));
    assert_eq!((report.measured, report.remaining), (pts.len() - 3, 0));
    assert_eq!(report.cancelled, None);
    assert_eq!(sorted_lines(&path).len(), pts.len() - 3);
    // The re-run measures exactly the family that was killed, as one pass.
    let retry = SweepEngine::new(1).prewarm(&TrafficCache::with_store(&path), &pts);
    assert_eq!((retry.measured, retry.passes), (3, 1));
    assert_eq!(retry.cached, pts.len() - 3, "the store holds every point but the family");
}

#[test]
fn sweep_deadline_cancels_and_releases_a_hung_point() {
    let pts = sweep_points();
    // The hang has no per-point deadline to kill it: only the run
    // deadline can end this sweep — the engine token's own deadline, as
    // `repro --deadline` sets it — and it must also unstick the hung
    // worker (via the cancel gate), not leave it wedged.
    let plan = Arc::new(FaultPlan::new().hang_on_sim(0));
    let cache = TrafficCache::new().with_fault_hook(Arc::new(HangHook(Arc::clone(&plan))));
    let token = CancelToken::new()
        .child_until(Instant::now() + Duration::from_millis(120), "sweep deadline 0.120s exceeded");
    let engine = SweepEngine::new(2).with_cancel_token(token);
    let t0 = Instant::now();
    let report = engine.prewarm(&cache, &pts);
    assert!(
        report.cancelled.as_deref().is_some_and(|r| r.contains("sweep deadline")),
        "{:?}",
        report.cancelled
    );
    assert!(t0.elapsed() < Duration::from_secs(30), "deadline must actually end the sweep");
    assert!(report.timed_out.is_empty(), "no per-point deadline was configured");
    assert!(report.remaining >= 1, "the hung point can never have been measured");
    assert_eq!(report.measured + report.remaining, pts.len());
}

/// A prewarm over points the store already holds measures nothing and
/// reports them all cached; the interrupted sweep's missing points stay
/// missing, so the later full prewarm measures exactly those.
#[test]
fn an_idle_prewarm_reports_cached_and_leaves_the_missing_points_missing() {
    let pts = sweep_points();
    let dir = TempDir::new("idleprewarm");
    let path = dir.file("traffic.txt");
    let held = &pts[..1];
    SweepEngine::new(1).prewarm(&TrafficCache::with_store(&path), held);
    let token = CancelToken::new();
    let first = {
        let cache = TrafficCache::with_store(&path)
            .with_fault_hook(Arc::new(TripAtSim { k: 0, token: token.clone() }));
        SweepEngine::new(1).with_cancel_token(token).prewarm(&cache, &pts)
    };
    assert_eq!(first.cancelled.as_deref(), Some("injected cancel"));
    assert_eq!(first.measured, 0);

    let idle = SweepEngine::new(1).prewarm(&TrafficCache::with_store(&path), held);
    assert_eq!((idle.measured, idle.cached), (0, held.len()));

    let resume = SweepEngine::new(1).prewarm(&TrafficCache::with_store(&path), &pts);
    assert_eq!((resume.measured, resume.cached), (pts.len() - 1, 1));
}

#[test]
fn pre_tripped_engine_token_measures_nothing() {
    let pts = sweep_points();
    let token = CancelToken::new();
    token.trip("shutting down");
    let cache = TrafficCache::new();
    let engine = SweepEngine::new(2).with_cancel_token(token);
    let report = engine.prewarm(&cache, &pts);
    assert_eq!(report.measured, 0);
    assert_eq!(report.remaining, pts.len());
    assert_eq!(report.cancelled.as_deref(), Some("shutting down"));
    assert!(cache.is_empty());
}

#[test]
fn throughput_is_reported() {
    let pts = sweep_points();
    let cache = TrafficCache::new();
    let report = SweepEngine::new(2).prewarm(&cache, &pts);
    assert_eq!(report.measured, pts.len());
    assert!(report.points_per_sec > 0.0);
    // The rate is clocked over the measurement window, which the whole
    // prewarm wall time contains.
    assert!(report.measure_seconds > 0.0);
    assert!(report.measure_seconds <= report.seconds);
    assert!((report.points_per_sec - report.measured as f64 / report.measure_seconds).abs() < 1e-9);
}

/// Regression: `points_per_sec` used to divide measured points by the
/// *whole* prewarm wall time, so a resume that skips a store full of
/// completed points (after a long dedup/skip prologue) reported a
/// collapsed rate. The rate must be clocked from the first measured
/// point onward.
#[test]
fn resume_rate_clocks_from_first_measured_point() {
    let pts = sweep_points();
    let dir = TempDir::new("resumerate");
    let path = dir.file("traffic.txt");
    {
        // Complete everything but the last point.
        let cache = TrafficCache::with_store(&path);
        SweepEngine::new(2).prewarm(&cache, &pts[..pts.len() - 1]);
    }
    // Resume with a heavily duplicated request list: the dedup + skip
    // prologue is deliberate busywork that must not dilute the rate.
    let mut dup = Vec::new();
    for _ in 0..400 {
        dup.extend(pts.iter().cloned());
    }
    let cache = TrafficCache::with_store(&path);
    let report = SweepEngine::new(2).prewarm(&cache, &dup);
    assert_eq!(report.measured, 1, "{:?}", report);
    assert!(report.measure_seconds > 0.0);
    assert!(report.measure_seconds <= report.seconds);
    assert!((report.points_per_sec * report.measure_seconds - 1.0).abs() < 1e-9);
    // Nothing measured → no rate, not NaN or a division by the prologue.
    let idle = SweepEngine::new(2).prewarm(&TrafficCache::with_store(&path), &pts);
    assert_eq!(idle.measured, 0);
    assert_eq!(idle.points_per_sec, 0.0);
    assert_eq!(idle.measure_seconds, 0.0);
}
