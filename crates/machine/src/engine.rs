//! The parallel sweep engine: prewarm every traffic measurement a
//! figure or ranking will need, concurrently, then generate serially.
//!
//! Figure generation spends essentially all of its time inside
//! [`crate::traffic::measure`] — full schedule executions
//! replayed through the cache simulator. Those measurements are
//! independent across (variant, box size, hierarchy) points, so the
//! engine fans them out over a [`SpmdPool`] (the repo's own OpenMP-style
//! substrate — the machinery under study runs the study). The figure
//! generators themselves stay serial and read everything back as cache
//! hits, which keeps their output *byte-identical* to a fully serial
//! run: parallelism only changes the order measurements complete, never
//! a measured value (each point is simulated exactly once, from a fixed
//! seed) nor the order points are read back.
//!
//! The unit of work is a **pass**, not a point: the points of a sweep
//! that replay one access stream (`pdesched_core::plan::Stream` — one
//! variant, or several that lower alike at one thread) through the same
//! private L1/L2 differ only in their last cache level (one LLC share
//! per thread count), so one producer run accounts all of them through
//! a fan-out hierarchy (`pdesched_cachesim::Hierarchy::fan_out`),
//! bit-identical to measuring each alone. Points that differ in their
//! variant label only are one member of that run, recorded under each
//! key. Counts the operator sees (`measured`, `remaining`, the
//! journal's total, progress lines) stay in points.

use crate::journal::{self, PriorSweep, SweepJournal};
use crate::model::prediction_hierarchy;
use crate::spec::MachineSpec;
use crate::traffic::{Point, TrafficCache};
use pdesched_cachesim::CacheConfig;
use pdesched_core::plan::Stream;
use pdesched_core::Variant;
use pdesched_par::cancel::{self, CancelToken, Cancelled};
use pdesched_par::SpmdPool;
use std::cmp::Reverse;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// One independent simulation point: `variant` updating an `n`^3 box
/// through the hierarchy `configs`.
#[derive(Clone, Debug, PartialEq)]
pub struct SimPoint {
    /// The schedule to execute.
    pub variant: Variant,
    /// Box edge length.
    pub n: i32,
    /// Cache hierarchy (L1 first, LLC last).
    pub configs: Vec<CacheConfig>,
}

impl SimPoint {
    /// The point [`crate::model::predict_time`] will look up for
    /// `(spec, variant, box_n, threads)` — same hierarchy computation,
    /// so prewarming this point guarantees the prediction is a hit.
    pub fn for_prediction(
        spec: &MachineSpec,
        variant: Variant,
        box_n: i32,
        threads: usize,
    ) -> SimPoint {
        SimPoint { variant, n: box_n, configs: prediction_hierarchy(spec, threads) }
    }
}

/// One simulation point whose measurement panicked during a prewarm.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PointFailure {
    /// Display name of the schedule variant.
    pub variant: String,
    /// Box edge length.
    pub n: i32,
    /// The panic message.
    pub error: String,
}

/// One requested point rejected up front because the variant cannot
/// execute on its box size (`Variant::validate_for_box`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SkippedPoint {
    /// Display name of the schedule variant.
    pub variant: String,
    /// Box edge length.
    pub n: i32,
    /// Why the variant is invalid for this box.
    pub reason: String,
}

/// Time and retry budget for one [`SweepEngine::prewarm`] call.
///
/// The per-point deadline is part of each pass's own token: a
/// [`CancelToken::child_until`] of the sweep token, so only that pass
/// stops at its next checkpoint past the deadline (its points land in
/// [`PrewarmReport::timed_out`] and every other pass proceeds). A
/// deadline for the whole sweep is the caller's: give the engine a
/// token that carries one ([`SweepEngine::with_cancel_token`]), or trip
/// it, and the remaining points are left unmeasured, the report coming
/// back [`PrewarmReport::cancelled`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepBudget {
    /// Wall-clock limit for a single point's measurement.
    pub point_deadline: Option<Duration>,
    /// Extra attempts for a transiently failing store append
    /// (forwarded to [`TrafficCache::set_append_retry`]).
    pub max_retries: u32,
    /// Initial backoff between append retries (doubles per attempt,
    /// bounded).
    pub backoff: Duration,
}

impl Default for SweepBudget {
    fn default() -> Self {
        SweepBudget { point_deadline: None, max_retries: 0, backoff: Duration::from_millis(25) }
    }
}

/// What one [`SweepEngine::prewarm`] call did.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PrewarmReport {
    /// Points requested (before dedup).
    pub requested: usize,
    /// Distinct points after dedup.
    pub unique: usize,
    /// Points measured: produced, or recorded from a stream the cache
    /// produced under another key (the rest were already cached,
    /// failed, timed out, or left behind by a cancellation).
    pub measured: usize,
    /// Points whose measurement panicked. The panic is contained to the
    /// point: every other point still completes, and the caller decides
    /// whether a partial sweep is acceptable.
    pub failed: Vec<PointFailure>,
    /// Points killed by the per-point deadline
    /// ([`SweepBudget::point_deadline`]). Like failures, they are
    /// contained: the remaining points still complete.
    pub timed_out: Vec<PointFailure>,
    /// Unique points rejected before measurement because the variant is
    /// invalid for the box size, with the validator's reason. Sweeps can
    /// hand the engine a raw cross-product and read back exactly what
    /// was dropped instead of pre-filtering.
    pub skipped: Vec<SkippedPoint>,
    /// Why the sweep stopped early, if it did: the cancel token's trip
    /// reason (caller cancellation or the sweep deadline). `None` means
    /// the sweep ran to completion.
    pub cancelled: Option<String>,
    /// Scheduled points left unmeasured because the sweep was cancelled
    /// (always 0 when `cancelled` is `None`). They stay missing from
    /// the store, so a re-run resumes exactly these.
    pub remaining: usize,
    /// What the journal said about a previous interrupted sweep over the
    /// same store — `Some` exactly when this run is a resume.
    pub resumed_from: Option<PriorSweep>,
    /// Wall-clock seconds of the whole prewarm call (dedup, validation,
    /// journal handling, and the parallel measurement region).
    pub seconds: f64,
    /// Wall-clock seconds from the first point actually entering
    /// measurement to the end of the parallel region; 0 when nothing was
    /// measured. On a resume that skips thousands of already-stored
    /// points, this excludes the skip/dedup prologue that `seconds`
    /// includes.
    pub measure_seconds: f64,
    /// Measurement throughput (`measured / measure_seconds`), clocked
    /// from the first measured point onward so a resume over a mostly
    /// complete store doesn't report a collapsed rate; 0 when nothing
    /// was measured.
    pub points_per_sec: f64,
    /// Producer passes the missing points were grouped into: points
    /// sharing an access stream and every cache level but the last are
    /// measured by one pass (split while there are fewer passes than
    /// pool threads). `measured / passes` is the fan-out achieved.
    pub passes: usize,
    /// Distinct access streams among the missing points: what the sweep
    /// had to produce at least once each (`passes >= streams`).
    pub streams: usize,
}

/// Best-effort text of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).into()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// A persistent worker pool that fills a [`TrafficCache`] in parallel,
/// under supervision: cancellable, deadline-bounded, and resumable (see
/// [`SweepBudget`] and [`PrewarmReport`]).
pub struct SweepEngine {
    pool: SpmdPool,
    progress: bool,
    budget: SweepBudget,
    /// Heartbeat interval for the mid-sweep progress line; `None`
    /// silences it.
    heartbeat: Option<Duration>,
    /// External cancellation (e.g. the signal handler's token); child
    /// tokens per point hang off it.
    token: Option<CancelToken>,
}

impl SweepEngine {
    /// An engine with `threads` measurement workers (including the
    /// caller), no progress output, a default (unlimited) budget, and a
    /// 10 s heartbeat.
    pub fn new(threads: usize) -> Self {
        SweepEngine {
            pool: SpmdPool::new(threads.max(1)),
            progress: false,
            budget: SweepBudget::default(),
            heartbeat: Some(Duration::from_secs(10)),
            token: None,
        }
    }

    /// Emit one stderr line per completed measurement (for the `repro`
    /// binary's progress display).
    pub fn with_progress(mut self, progress: bool) -> Self {
        self.progress = progress;
        self
    }

    /// Set the time/retry budget enforced on every subsequent prewarm.
    pub fn with_budget(mut self, budget: SweepBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Supervise sweeps under `token`: tripping it (from a signal
    /// handler, another thread, anywhere) makes the running prewarm
    /// stop at the next checkpoint and report
    /// [`PrewarmReport::cancelled`].
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.token = Some(token);
        self
    }

    /// Heartbeat interval for the operator-facing progress line
    /// (points done / total / ETA); `None` disables it.
    pub fn with_heartbeat(mut self, interval: Option<Duration>) -> Self {
        self.heartbeat = interval;
        self
    }

    /// Measurement workers (including the caller).
    pub fn nthreads(&self) -> usize {
        self.pool.nthreads()
    }

    /// Measure every point of `points` not already in `cache`, grouped
    /// into passes (see the module docs) that are dynamically scheduled
    /// over the pool (costs vary by orders of magnitude with box size,
    /// so static partitioning would straggle). Big boxes and wide
    /// passes go first to keep the tail short.
    ///
    /// Degrades gracefully: a pass whose measurement panics is caught
    /// on its worker, every point it was measuring is recorded in
    /// [`PrewarmReport::failed`], and the remaining passes still
    /// complete — one poisoned simulation must not abort an hours-long
    /// unattended sweep. (A fault hook that panics for one member fails
    /// that member alone; the rest of its pass is measured.) Under a
    /// [`SweepBudget`] each pass's token carries the per-point deadline,
    /// so a pass that outlives it stops at its next checkpoint (its
    /// points are reported in [`PrewarmReport::timed_out`]); an
    /// engine-level [`CancelToken`] cancels the whole sweep. However the
    /// sweep stops, every completed point is already durably appended to
    /// the store and a journal sidecar marks the interruption, so
    /// re-running the same prewarm resumes with exactly the missing
    /// points and ends bit-identical to an uninterrupted run. A prewarm
    /// with nothing to measure opens no journal: it neither reports nor
    /// erases an interrupted sweep's record, which the next prewarm that
    /// measures resumes.
    pub fn prewarm(&self, cache: &TrafficCache, points: &[SimPoint]) -> PrewarmReport {
        let t0 = Instant::now();
        // One keyed walk: dedupe, the skip list, and the missing points
        // grouped into passes by (access stream, every cache level but
        // the last). A pass is a list of slots, one per distinct last
        // level: the points of a slot are one member of the producer run.
        let mut seen: HashSet<(Variant, i32, &[CacheConfig])> = HashSet::new();
        let mut family: HashMap<Stream, Vec<(&[CacheConfig], usize)>> = HashMap::new();
        let mut passes: Vec<Vec<Vec<&SimPoint>>> = Vec::new();
        let mut skipped: Vec<SkippedPoint> = Vec::new();
        for p in points {
            if !seen.insert((p.variant, p.n, &p.configs)) {
                continue;
            }
            let refusal = match p.configs.split_last() {
                None => Some("empty cache hierarchy".to_string()),
                Some(_) => p.variant.validate_for_box(p.n).err().map(|e| e.reason),
            };
            if let Some(reason) = refusal {
                skipped.push(SkippedPoint { variant: p.variant.to_string(), n: p.n, reason });
                continue;
            }
            if cache.contains(p.variant, p.n, &p.configs) {
                continue;
            }
            let stream = Point::hand(p.variant, p.n, &p.configs)
                .stream()
                .expect("a hand lowering valid for its box has a stream");
            let front = &p.configs[..p.configs.len() - 1];
            let fronts = family.entry(stream).or_default();
            let i = match fronts.iter().find(|(f, _)| *f == front) {
                Some(&(_, i)) => i,
                None => {
                    passes.push(Vec::new());
                    fronts.push((front, passes.len() - 1));
                    passes.len() - 1
                }
            };
            match passes[i].iter_mut().find(|slot| slot[0].configs.last() == p.configs.last()) {
                Some(slot) => slot.push(p),
                None => passes[i].push(vec![p]),
            }
        }
        let unique = seen.len();
        let streams = family.len();
        skipped.sort_by(|a, b| (&a.variant, a.n, &a.reason).cmp(&(&b.variant, b.n, &b.reason)));
        skipped.dedup();
        // Grouping must never idle a wide host: while there are fewer
        // passes than pool threads, the widest pass (in last levels)
        // splits in half.
        while passes.len() < self.pool.nthreads() {
            let Some(widest) = (0..passes.len()).max_by_key(|&i| (passes[i].len(), Reverse(i)))
            else {
                break;
            };
            let keep = passes[widest].len().div_ceil(2);
            if keep == passes[widest].len() {
                break;
            }
            let half = passes[widest].split_off(keep);
            passes.insert(widest + 1, half);
        }
        passes.sort_by_key(|slots| Reverse((slots[0][0].n, slots.len())));
        let total: usize = passes.iter().flatten().map(Vec::len).sum();

        // Checkpoint/resume: the store is the source of truth for
        // completed points (they were filtered out of the passes above); the
        // journal sidecar records everything else about the previous
        // sweep. An unterminated journal means we are resuming it.
        let mut resumed_from: Option<PriorSweep> = None;
        let journal: Option<SweepJournal> = match cache.store_path() {
            Some(store) if !cache.store_read_only() && total > 0 => {
                let jpath = journal::journal_path_for(store);
                resumed_from = journal::load(&jpath);
                SweepJournal::start(&jpath, total)
            }
            _ => None,
        };
        cache.set_append_retry(self.budget.max_retries, self.budget.backoff);

        let sweep_token = self.token.clone().unwrap_or_default();
        let counter = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        let measured = AtomicUsize::new(0);
        let failures: Mutex<Vec<PointFailure>> = Mutex::new(Vec::new());
        let timeouts: Mutex<Vec<PointFailure>> = Mutex::new(Vec::new());
        // When the first point actually entered measurement: the rate
        // basis for `points_per_sec` and the heartbeat ETA, so a resume
        // that spends its prologue skipping stored points doesn't dilute
        // the measured rate.
        let first_measure: Mutex<Option<Instant>> = Mutex::new(None);
        let stop = Mutex::new(false);
        let stop_cv = Condvar::new();

        let run_result = std::thread::scope(|s| {
            // The operator's heartbeat line, once per interval until the
            // region ends.
            if let Some(hb) = self.heartbeat.filter(|_| total > 0) {
                let (stop, stop_cv, done, first_measure) = (&stop, &stop_cv, &done, &first_measure);
                s.spawn(move || {
                    let mut guard = stop.lock().unwrap_or_else(|e| e.into_inner());
                    loop {
                        let (g, wait) = stop_cv
                            .wait_timeout_while(guard, hb, |stopped| !*stopped)
                            .unwrap_or_else(|e| e.into_inner());
                        guard = g;
                        if !wait.timed_out() {
                            break;
                        }
                        let d = done.load(Ordering::Relaxed);
                        let secs = first_measure
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .map_or(0.0, |t| t.elapsed().as_secs_f64());
                        let rate = if secs > 0.0 { d as f64 / secs } else { 0.0 };
                        let eta = if rate > 0.0 {
                            format!("{:.0}s", (total - d) as f64 / rate)
                        } else {
                            "?".into()
                        };
                        eprintln!(
                            "[sweep] heartbeat: {d}/{total} points, {rate:.2} points/s, eta {eta}"
                        );
                    }
                });
            }

            let r = self.pool.run_cancellable(&sweep_token, |ctx| {
                ctx.dynamic_items(&counter, passes.len(), 1, |i| {
                    if sweep_token.is_tripped() {
                        // Cancelled sweep: drain the queue without
                        // measuring; the skipped points stay missing
                        // from the store for the resume run.
                        return;
                    }
                    let members: Vec<&SimPoint> = passes[i].iter().flatten().copied().collect();
                    let head = members[0];
                    {
                        let mut fm = first_measure.lock().unwrap_or_else(|e| e.into_inner());
                        if fm.is_none() {
                            *fm = Some(Instant::now());
                        }
                    }
                    let point_token = match self.budget.point_deadline {
                        Some(pd) => sweep_token.child_until(
                            Instant::now() + pd,
                            format!("point deadline {:.3}s exceeded", pd.as_secs_f64()),
                        ),
                        None => sweep_token.child(),
                    };
                    let _ambient = cancel::set_current(Some(point_token.clone()));
                    // The hand lowering on one box, as `TrafficCache::get`
                    // asks it, for every member: `fetch` runs the pass
                    // once over the slots' last levels.
                    let points: Vec<Point<'_>> =
                        members.iter().map(|p| Point::hand(p.variant, p.n, &p.configs)).collect();
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        cache.fetch(&points).unwrap_or_else(|e| panic!("{e}"))
                    }));
                    let d = done.fetch_add(members.len(), Ordering::Relaxed) + members.len();
                    // One member that has no number: narrate, journal,
                    // and file it under failures or timeouts.
                    let lost = |timed_out: bool, p: &SimPoint, error: String| {
                        let f = PointFailure { variant: p.variant.to_string(), n: p.n, error };
                        if self.progress {
                            eprintln!(
                                "[sweep] {} {d}/{total}: {} n={}: {} (thread {})",
                                if timed_out { "TIMEOUT" } else { "FAILED" },
                                p.variant,
                                p.n,
                                f.error,
                                ctx.tid()
                            );
                        }
                        let list = if timed_out {
                            if let Some(j) = &journal {
                                j.timeout(&f.variant, f.n, &f.error);
                            }
                            &timeouts
                        } else {
                            if let Some(j) = &journal {
                                j.fail(&f.variant, f.n, &f.error);
                            }
                            &failures
                        };
                        list.lock().unwrap_or_else(|e| e.into_inner()).push(f);
                    };
                    match r {
                        Ok(results) => {
                            let mut ok = 0;
                            for (p, result) in members.iter().zip(results) {
                                match result {
                                    Ok(_) => ok += 1,
                                    // This member's fault hook panicked;
                                    // the rest of the pass was measured.
                                    Err(payload) => lost(false, p, panic_message(payload.as_ref())),
                                }
                            }
                            measured.fetch_add(ok, Ordering::Relaxed);
                            if self.progress && ok > 0 {
                                let kib: Vec<String> = passes[i]
                                    .iter()
                                    .map(|slot| slot[0].configs[slot[0].configs.len() - 1].size)
                                    .map(|size| (size / 1024).to_string())
                                    .collect();
                                eprintln!(
                                    "[sweep] measured {d}/{total}: {} n={}, LLC {} KiB (thread {})",
                                    head.variant,
                                    head.n,
                                    kib.join("+"),
                                    ctx.tid()
                                );
                            }
                        }
                        Err(payload) if payload.is::<Cancelled>() => {
                            if point_token.tripped_directly() {
                                // This pass's own deadline fired: every
                                // point it was measuring timed out.
                                let reason =
                                    point_token.reason().unwrap_or_else(|| "point deadline".into());
                                for &p in &members {
                                    lost(true, p, reason.clone());
                                }
                            }
                            // Sweep-level cancel: the points are simply
                            // unmeasured (counted in `remaining`).
                        }
                        Err(payload) => {
                            let error = panic_message(payload.as_ref());
                            for &p in &members {
                                lost(false, p, error.clone());
                            }
                        }
                    }
                });
            });
            *stop.lock().unwrap_or_else(|e| e.into_inner()) = true;
            stop_cv.notify_all();
            r
        });
        let mut failed = failures.into_inner().unwrap_or_else(|e| e.into_inner());
        let mut timed_out = timeouts.into_inner().unwrap_or_else(|e| e.into_inner());
        // Completion order is scheduling-dependent; report failures in a
        // deterministic order.
        failed.sort_by(|a, b| (&a.variant, a.n).cmp(&(&b.variant, b.n)));
        timed_out.sort_by(|a, b| (&a.variant, a.n).cmp(&(&b.variant, b.n)));
        let cancelled = match run_result {
            Err(c) => Some(c.reason),
            // The token can trip after the last point completes; the
            // sweep still finished, but report it faithfully.
            Ok(()) => sweep_token
                .is_tripped()
                .then(|| sweep_token.reason().unwrap_or_else(|| "cancelled".into())),
        };
        if let Some(j) = &journal {
            match &cancelled {
                Some(reason) => j.cancelled(reason),
                None => j.complete(),
            }
        }
        let measured = measured.load(Ordering::Relaxed);
        let seconds = t0.elapsed().as_secs_f64();
        let measure_seconds = first_measure
            .into_inner()
            .unwrap_or_else(|e| e.into_inner())
            .map_or(0.0, |t| t.elapsed().as_secs_f64());
        PrewarmReport {
            requested: points.len(),
            unique,
            measured,
            remaining: total - measured - failed.len() - timed_out.len(),
            failed,
            timed_out,
            skipped,
            cancelled,
            resumed_from,
            seconds,
            measure_seconds,
            points_per_sec: if measured > 0 && measure_seconds > 0.0 {
                measured as f64 / measure_seconds
            } else {
                0.0
            },
            passes: passes.len(),
            streams,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::CacheStats;
    use pdesched_cachesim::CacheConfig;

    fn tiny() -> Vec<CacheConfig> {
        vec![CacheConfig::new(8 * 1024, 4), CacheConfig::new(64 * 1024, 8)]
    }

    fn points() -> Vec<SimPoint> {
        let mut p = Vec::new();
        for v in [Variant::baseline(), Variant::shift_fuse()] {
            for n in [8, 12] {
                p.push(SimPoint { variant: v, n, configs: tiny() });
            }
        }
        p
    }

    #[test]
    fn parallel_prewarm_equals_serial_measurement() {
        // The whole point of the engine: same numbers as the serial
        // path, bit for bit.
        let serial = TrafficCache::new();
        for p in points() {
            serial.get(p.variant, p.n, &p.configs);
        }
        let parallel = TrafficCache::new();
        let engine = SweepEngine::new(4);
        engine.prewarm(&parallel, &points());
        for p in points() {
            let a = serial.get(p.variant, p.n, &p.configs);
            let b = parallel.get(p.variant, p.n, &p.configs);
            assert_eq!(a, b, "{} n={}", p.variant, p.n);
        }
    }

    #[test]
    fn prewarm_dedupes_and_skips_cached() {
        let cache = TrafficCache::new();
        let engine = SweepEngine::new(2);
        // Duplicate the list: 8 requested, 4 unique.
        let mut pts = points();
        pts.extend(points());
        let r = engine.prewarm(&cache, &pts);
        assert_eq!((r.requested, r.unique, r.measured), (8, 4, 4));
        assert_eq!(cache.stats().misses, 4, "each unique point simulated exactly once");
        // Second prewarm: everything cached, nothing measured.
        let r2 = engine.prewarm(&cache, &pts);
        assert_eq!(r2.measured, 0);
        assert_eq!(cache.stats().misses, 4);
    }

    #[test]
    fn prewarmed_cache_answers_without_missing() {
        let cache = TrafficCache::new();
        SweepEngine::new(3).prewarm(&cache, &points());
        let before = cache.stats();
        for p in points() {
            cache.get(p.variant, p.n, &p.configs);
        }
        let after = cache.stats();
        assert_eq!(after.misses, before.misses, "all reads must be hits");
        assert_eq!(after, CacheStats { hits: before.hits + 4, ..before });
    }

    /// The four LLC shares of one series behind a shared L1/L2.
    fn series(variant: Variant, n: i32) -> Vec<SimPoint> {
        [512, 256, 128, 64]
            .iter()
            .map(|&kib| {
                let mut configs = tiny();
                configs.push(CacheConfig::new(kib * 1024, 8));
                SimPoint { variant, n, configs }
            })
            .collect()
    }

    #[test]
    fn points_differing_only_in_the_last_level_share_a_pass() {
        let mut pts = series(Variant::baseline(), 8);
        pts.extend(series(Variant::shift_fuse(), 12));
        pts.extend(points()); // two-level hierarchies: a different front
        let serial = TrafficCache::new();
        let want: Vec<_> = pts.iter().map(|p| serial.get(p.variant, p.n, &p.configs)).collect();
        // One thread: nothing splits. Two series of four, and the four
        // `points()` (distinct variant or n each) as singletons.
        let cache = TrafficCache::new();
        let r = SweepEngine::new(1).prewarm(&cache, &pts);
        assert_eq!((r.requested, r.unique, r.measured, r.passes), (12, 12, 12, 6));
        assert_eq!((cache.stats().misses, cache.stats().passes), (12, 6));
        for (p, want) in pts.iter().zip(&want) {
            assert_eq!(cache.get(p.variant, p.n, &p.configs), *want, "{} n={}", p.variant, p.n);
        }
        // A family with members already held measures only the rest.
        let partial = TrafficCache::new();
        partial.get(pts[1].variant, pts[1].n, &pts[1].configs);
        let r = SweepEngine::new(1).prewarm(&partial, &pts[..4]);
        assert_eq!((r.unique, r.measured, r.passes), (4, 3, 1));
        assert_eq!(partial.stats().misses, 4);
    }

    #[test]
    fn variants_that_lower_alike_share_one_pass() {
        // At one thread, Baseline P<Box replays Baseline P>=Box's stream:
        // one pass for both series, each point under its own key.
        let within = Variant { gran: pdesched_core::Granularity::WithinBox, ..Variant::baseline() };
        let mut pts = series(Variant::baseline(), 8);
        pts.extend(series(within, 8));
        let cache = TrafficCache::new();
        let r = SweepEngine::new(1).prewarm(&cache, &pts);
        assert_eq!((r.measured, r.streams, r.passes), (8, 1, 1));
        let s = cache.stats();
        assert_eq!((s.misses, s.passes, s.shared_points, cache.len()), (8, 1, 4, 8));
        let alone = TrafficCache::new();
        for p in &pts {
            let want = alone.get(p.variant, p.n, &p.configs);
            assert_eq!(cache.get(p.variant, p.n, &p.configs), want, "{}", p.variant);
        }
        // Split across threads, the pass keeps each last level whole.
        let cache = TrafficCache::new();
        let r = SweepEngine::new(2).prewarm(&cache, &pts);
        assert_eq!((r.measured, r.streams, r.passes), (8, 1, 2));
        assert_eq!(cache.stats().shared_points, 4);
    }

    #[test]
    fn the_widest_pass_splits_until_every_thread_has_one() {
        let pts = series(Variant::baseline(), 8);
        let want = TrafficCache::new();
        for (threads, passes) in [(1, 1), (2, 2), (3, 3), (4, 4), (8, 4)] {
            let cache = TrafficCache::new();
            let r = SweepEngine::new(threads).prewarm(&cache, &pts);
            assert_eq!((r.measured, r.passes), (4, passes), "{threads} threads");
            for p in &pts {
                let (a, b) =
                    (cache.get(p.variant, p.n, &p.configs), want.get(p.variant, p.n, &p.configs));
                assert_eq!(a, b, "{threads} threads, LLC {}", p.configs[2].size);
            }
        }
    }

    #[test]
    fn prewarm_skips_invalid_points_with_reason() {
        // A raw cross-product may contain variants invalid for a box
        // size: they are rejected up front, with the validator's reason,
        // and never reach a worker (so they don't show up as panics).
        let cache = TrafficCache::new();
        let engine = SweepEngine::new(2);
        let mut pts = points();
        let bad = Variant::blocked_wavefront(pdesched_core::CompLoop::Outside, 8);
        pts.push(SimPoint { variant: bad, n: 8, configs: tiny() });
        pts.push(SimPoint { variant: bad, n: 8, configs: tiny() }); // duplicate
        let r = engine.prewarm(&cache, &pts);
        assert_eq!(r.skipped.len(), 1, "{:?}", r.skipped);
        assert_eq!(r.skipped[0].n, 8);
        assert!(r.skipped[0].reason.contains("smaller than the box"), "{}", r.skipped[0].reason);
        assert!(r.failed.is_empty());
        assert_eq!(r.measured, 4, "valid points still measured");
    }

    #[test]
    fn for_prediction_matches_predict_time_lookup() {
        // A point built by the engine must be the exact key predict_time
        // reads: prewarm it, predict, and verify zero misses.
        let spec = MachineSpec::i5_desktop();
        let cache = TrafficCache::new();
        let v = Variant::shift_fuse();
        let p = SimPoint::for_prediction(&spec, v, 16, spec.cores());
        SweepEngine::new(2).prewarm(&cache, &[p]);
        let misses_before = cache.stats().misses;
        let wl = crate::model::Workload::paper(16);
        crate::model::predict_time(&spec, v, wl, spec.cores(), &cache);
        assert_eq!(cache.stats().misses, misses_before, "prediction must hit the prewarmed key");
    }
}
