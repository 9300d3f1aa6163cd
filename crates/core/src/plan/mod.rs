//! The schedule IR and its optimizing pass pipeline: every variant
//! lowers to an explicit [`Plan`] that one generic interpreter executes,
//! and composable passes transform plans between lowering and execution.
//!
//! The hand-written executor families (`series`, `fuse`, `wavefront`,
//! overlapped tiles) each used to re-derive loop bounds, temp-buffer
//! plumbing, and parallel chunking on every call. Following the OPS
//! design — record the loop chain as data, construct the tiled execution
//! schedule at runtime, cache it — a `(Variant, box extents, nthreads)`
//! triple is now *lowered* once into a `Plan`:
//!
//! * an ordered list of [`RegionPlan`]s, each declaring its temporary
//!   buffers ([`AllocEvent`]) and its [`Phase`]s;
//! * each phase holds per-thread [`Step`] lists plus a barrier flag —
//!   parallel chunking is decided at lowering time via the same
//!   `static_block` rule the SPMD runtime uses;
//! * overlapped-tile steps carry their recompute region (the redundantly
//!   recomputed tile-surface faces) as data.
//!
//! The module is layered (DESIGN.md §14):
//!
//! * [`ir`] — the typed plan vocabulary;
//! * [`lower`](self::lower()) (module [`lower`][crate::plan::lower]) —
//!   the four category lowerings, producing pass-free plans;
//! * [`analysis`] — cross-thread/cross-phase dependence from buffer
//!   footprints and halo extents;
//! * [`passes`] — trait `Pass` and the composable `Pipeline` (barrier
//!   elision, phase fusion, cross-box fusion, slab re-chunking);
//! * [`verify`] — dependence-preservation and alloc-order checks every
//!   transformed plan must pass before execution;
//! * the interpreter ([`execute`], [`execute_pair`]) walks plans,
//!   materializes buffers in declared order, and calls the existing
//!   row/pass bodies in `series`, `fuse`, and `wavefront`.
//!
//! # Access-order guarantee
//!
//! At `nthreads == 1` (the traced configuration used by
//! `machine`'s traffic measurement) the interpreter reproduces the exact
//! memory-event stream of the original hand-written nests: buffer trace
//! addresses are a pure function of allocation order
//! (`pdesched_mesh::trace_addr`), the declared alloc order matches the
//! legacy executors, and every step calls the identical pass body over
//! the identical bounds. PR 3's bit-identity suites pin this. Passes may
//! reorder the stream — that is their point — but the verifier proves
//! they preserve dependences, and pass-free plans keep the guarantee
//! byte for byte.
//!
//! # Plan cache
//!
//! [`plan_for`] memoizes lowering in a process-wide LRU cache keyed on
//! `(Variant, box extents, effective thread count, pass provenance)`, so
//! sweep prewarms and repeated level updates lower once per shape instead
//! of per box per update. Hand lowerings carry an empty pass component, so
//! their keys are unchanged from the pre-pipeline format.
//! [`cache_stats`] reports hits/misses for `repro --json`.

pub mod analysis;
mod interp;
pub mod ir;
mod lower_impl;
pub mod passes;
pub mod verify;

// The lowering functions live in `lower_impl` so the public path
// `plan::lower(...)` (the function) can coexist with the conceptual
// "lower layer"; re-export everything flat.
pub use interp::{execute, execute_pair};
pub use ir::{zslab, AllocEvent, AllocKind, Phase, Plan, RegionKind, RegionPlan, Step, Stream};
pub use lower_impl::{effective_threads, lower};
pub use passes::{Pass, Pipeline, PipelineError};

use crate::variant::Variant;
use pdesched_mesh::IntVect;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

#[derive(Clone, PartialEq, Eq, Hash)]
struct PlanKey {
    variant: Variant,
    size: IntVect,
    nthreads: usize,
    /// Comma-joined pass names ([`Pipeline::key`]); empty for hand
    /// lowerings, keeping pass-free keys identical to the pre-pipeline
    /// format.
    passes: String,
}

const CACHE_CAP: usize = 64;

static CACHE: Mutex<Vec<(PlanKey, Arc<Plan>, u64)>> = Mutex::new(Vec::new());
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static STAMP: AtomicU64 = AtomicU64::new(0);

fn cached_plan(key: PlanKey, make: impl FnOnce() -> Arc<Plan>) -> Arc<Plan> {
    let stamp = STAMP.fetch_add(1, Ordering::Relaxed);
    {
        let mut cache = CACHE.lock().unwrap();
        if let Some(e) = cache.iter_mut().find(|e| e.0 == key) {
            e.2 = stamp;
            let p = e.1.clone();
            drop(cache);
            HITS.fetch_add(1, Ordering::Relaxed);
            return p;
        }
    }
    // Lower (and transform) outside the lock; fine tilings take a while.
    let plan = make();
    let mut cache = CACHE.lock().unwrap();
    if let Some(e) = cache.iter_mut().find(|e| e.0 == key) {
        // Another thread lowered the same shape meanwhile; keep one copy.
        e.2 = stamp;
        let p = e.1.clone();
        drop(cache);
        MISSES.fetch_add(1, Ordering::Relaxed);
        return p;
    }
    if cache.len() >= CACHE_CAP {
        if let Some(i) = (0..cache.len()).min_by_key(|&i| cache[i].2) {
            cache.remove(i);
        }
    }
    cache.push((key, plan.clone(), stamp));
    drop(cache);
    MISSES.fetch_add(1, Ordering::Relaxed);
    plan
}

/// Memoized lowering: returns the cached plan for
/// `(variant, size, effective threads)` or lowers and caches it.
pub fn plan_for(variant: Variant, size: IntVect, nthreads: usize) -> Arc<Plan> {
    let key = PlanKey {
        variant,
        size,
        nthreads: effective_threads(variant, size, nthreads),
        passes: String::new(),
    };
    cached_plan(key, || Arc::new(lower(variant, size, nthreads)))
}

/// Memoized lowering + pass application: like [`plan_for`] but runs the
/// pipeline (and its verifier) over the hand lowering before caching.
/// An empty pipeline is exactly `plan_for` — same key, same plan.
///
/// Returns an error if any pass refuses the plan or the transformed
/// plan fails [`verify`]; errors are not cached.
pub fn plan_for_optimized(
    variant: Variant,
    size: IntVect,
    nthreads: usize,
    pipeline: &Pipeline,
) -> Result<Arc<Plan>, PipelineError> {
    if pipeline.is_empty() {
        return Ok(plan_for(variant, size, nthreads));
    }
    let key = PlanKey {
        variant,
        size,
        nthreads: effective_threads(variant, size, nthreads),
        passes: pipeline.key(),
    };
    {
        let mut cache = CACHE.lock().unwrap();
        let stamp = STAMP.fetch_add(1, Ordering::Relaxed);
        if let Some(e) = cache.iter_mut().find(|e| e.0 == key) {
            e.2 = stamp;
            let p = e.1.clone();
            drop(cache);
            HITS.fetch_add(1, Ordering::Relaxed);
            return Ok(p);
        }
    }
    let plan = Arc::new(pipeline.apply(lower(variant, size, nthreads))?);
    Ok(cached_plan(key, || plan))
}

/// `(hits, misses, live entries)` of the process-wide plan cache.
pub fn cache_stats() -> (u64, u64, usize) {
    let entries = CACHE.lock().unwrap().len();
    (HITS.load(Ordering::Relaxed), MISSES.load(Ordering::Relaxed), entries)
}

/// Drop all cached plans and reset the hit/miss counters (tests and
/// cold-measurement baselines).
pub fn clear_cache() {
    CACHE.lock().unwrap().clear();
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_box;
    use crate::mem::{CountingMem, NoMem};
    use crate::storage;
    use crate::variant::{CompLoop, Granularity, IntraTile, Variant};
    use pdesched_kernels::{reference, NCOMP};
    use pdesched_mesh::{FArrayBox, IBox, IntVect};

    fn setup(n: i32) -> (FArrayBox, FArrayBox, FArrayBox, IBox) {
        let cells = IBox::cube(n);
        let mut phi0 = FArrayBox::new(cells.grown(2), NCOMP);
        phi0.fill_synthetic(61);
        let mut expect = FArrayBox::new(cells, NCOMP);
        expect.fill_synthetic(62);
        let got = expect.clone();
        reference::update_box(&phi0, &mut expect, cells);
        (phi0, expect, got, cells)
    }

    fn ot(intra: IntraTile, comp: CompLoop, t: i32) -> Variant {
        Variant { comp, ..Variant::overlapped(intra, t, Granularity::WithinBox) }
    }

    #[test]
    fn all_intra_schedules_match_reference() {
        for intra in [IntraTile::Basic, IntraTile::ShiftFuse] {
            for comp in [CompLoop::Outside, CompLoop::Inside] {
                for nt in [1, 2, 5] {
                    for t in [2, 3, 4] {
                        let (phi0, expect, mut got, cells) = setup(8);
                        run_box(ot(intra, comp, t), &phi0, &mut got, cells, nt, &NoMem);
                        assert!(
                            got.bit_eq(&expect, cells),
                            "intra={intra:?} comp={comp:?} nt={nt} t={t}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn non_divisible_tile_size_matches() {
        // 7^3 box, tile 4: edge tiles of width 3.
        let (phi0, expect, mut got, cells) = setup(7);
        run_box(ot(IntraTile::ShiftFuse, CompLoop::Outside, 4), &phi0, &mut got, cells, 3, &NoMem);
        assert!(got.bit_eq(&expect, cells));
    }

    #[test]
    fn recomputation_matches_analytic_redundancy() {
        let (phi0, _, mut got, cells) = setup(8);
        let m = CountingMem::new();
        let v = ot(IntraTile::ShiftFuse, CompLoop::Outside, 4);
        run_box(v, &phi0, &mut got, cells, 2, &m);
        assert_eq!(m.op_count(), pdesched_kernels::ops::exemplar_ops_overlapped(cells, 4));
        // Accumulations are never redundant.
        assert_eq!(m.op_count().accum, pdesched_kernels::ops::exemplar_ops(cells).accum);
        // Interpolations exceed the exact count (surface recomputation).
        assert!(m.op_count().interp > pdesched_kernels::ops::exemplar_ops(cells).interp);
        // The plan declares the same redundancy: recompute faces x NCOMP
        // equals the extra interpolations.
        let plan = lower(v, cells.size(), 2);
        let extra = m.op_count().interp - pdesched_kernels::ops::exemplar_ops(cells).interp;
        assert_eq!(plan.recompute_faces() as u64 * NCOMP as u64, extra);
    }

    #[test]
    fn storage_scales_with_threads() {
        let (phi0, _, mut got, cells) = setup(8);
        let v = ot(IntraTile::ShiftFuse, CompLoop::Outside, 4);
        let s1 = run_box(v, &phi0, &mut got, cells, 1, &NoMem);
        let s2 = run_box(v, &phi0, &mut got, cells, 2, &NoMem);
        assert_eq!(s2.flux_f64, 2 * s1.flux_f64);
        assert_eq!(s2.vel_f64, 2 * s1.vel_f64);
        // Tile-local, independent of box size: matches the T-formulas.
        let t = 4usize;
        assert_eq!(s1.flux_f64, 2 + t + t * t);
        assert_eq!(s1.vel_f64, 3 * (t + 1) * t * t);
    }

    #[test]
    fn hierarchical_matches_reference() {
        for comp in [CompLoop::Outside, CompLoop::Inside] {
            for nt in [1, 3] {
                let (phi0, expect, mut got, cells) = setup(8);
                let v = Variant { comp, ..Variant::hierarchical(4, 2, Granularity::WithinBox) };
                run_box(v, &phi0, &mut got, cells, nt, &NoMem);
                assert!(got.bit_eq(&expect, cells), "comp={comp:?} nt={nt}");
            }
        }
    }

    #[test]
    fn hierarchical_recomputes_only_outer_surfaces() {
        // Same outer tile size => same redundancy as flat OT; the inner
        // tiling must not add recomputation.
        let (phi0, _, mut got, cells) = setup(8);
        let m = CountingMem::new();
        let v = Variant {
            comp: CompLoop::Inside,
            ..Variant::hierarchical(4, 2, Granularity::WithinBox)
        };
        run_box(v, &phi0, &mut got, cells, 2, &m);
        assert_eq!(m.op_count(), pdesched_kernels::ops::exemplar_ops_overlapped(cells, 4));
    }

    #[test]
    fn more_threads_than_tiles_is_clamped() {
        let (phi0, expect, mut got, cells) = setup(6);
        // 27 tiles of 2^3; ask for 64 threads.
        let v = ot(IntraTile::Basic, CompLoop::Inside, 2);
        assert_eq!(effective_threads(v, cells.size(), 64), 27);
        run_box(v, &phi0, &mut got, cells, 64, &NoMem);
        assert!(got.bit_eq(&expect, cells));
    }

    #[test]
    fn plan_storage_matches_table_formulas() {
        // The tentpole invariant: storage from plan-declared buffer
        // liveness equals the Table I formulas of `core::storage` for
        // every extended variant on divisible tilings. Where the tile
        // does not divide the box, edge tiles are smaller and the tile
        // count rounds up, so the formulas are an upper bound.
        for n in [6, 8, 10, 12, 16, 20, 24] {
            for v in Variant::enumerate_extended(n) {
                if !v.valid_for_box(n) {
                    continue;
                }
                let divisible = v.tile.is_none_or(|t| n % t == 0);
                for nt in [1, 2, 4, 8] {
                    let got = lower(v, IntVect::splat(n), nt).storage;
                    let want = storage::expected(v, n, nt);
                    if divisible {
                        assert_eq!(got, want, "{v} n={n} nt={nt}");
                    } else {
                        assert!(
                            got.flux_f64 <= want.flux_f64 && got.vel_f64 <= want.vel_f64,
                            "{v} n={n} nt={nt}: plan {got:?} exceeds formula {want:?}"
                        );
                    }
                }
            }
        }
    }

    /// Counts every access and trips `token` at access number `trip_at`.
    struct TripAt {
        count: std::sync::atomic::AtomicUsize,
        trip_at: usize,
        token: pdesched_par::cancel::CancelToken,
    }

    impl TripAt {
        fn tick(&self) {
            let k = self.count.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
            if k == self.trip_at {
                self.token.trip("tripped mid-box");
            }
        }
    }

    impl crate::mem::Mem for TripAt {
        fn r(&self, _addr: usize) {
            self.tick();
        }
        fn w(&self, _addr: usize) {
            self.tick();
        }
    }

    #[test]
    fn cancelling_an_overlapped_box_stops_within_one_tile() {
        use pdesched_par::cancel::{self, CancelToken, Cancelled};
        use std::panic::{catch_unwind, AssertUnwindSafe};
        // 64 tiles of 4^3 at n = 16: every tile performs the same
        // accesses, so one tile's update is a 64th of the box's.
        for intra in [IntraTile::Basic, IntraTile::ShiftFuse, IntraTile::Hierarchical(2)] {
            let v = Variant::overlapped(intra, 4, Granularity::OverBoxes);
            let (phi0, _, mut got, cells) = setup(16);
            let plan = lower(v, cells.size(), 1);
            let all = TripAt {
                count: Default::default(),
                trip_at: usize::MAX,
                token: CancelToken::new(),
            };
            execute(&plan, &phi0, &mut got.clone(), cells, &all);
            let total = all.count.into_inner();
            let per_tile = total / 64;
            let mem =
                TripAt { count: Default::default(), trip_at: total / 3, token: CancelToken::new() };
            let _ambient = cancel::set_current(Some(mem.token.clone()));
            let r = catch_unwind(AssertUnwindSafe(|| execute(&plan, &phi0, &mut got, cells, &mem)));
            let payload = r.expect_err(&format!("{v}: the box ran to completion"));
            assert!(payload.downcast_ref::<Cancelled>().is_some(), "{v}: not a cancellation");
            let past = mem.count.into_inner() - mem.trip_at;
            assert!(past < per_tile, "{v}: {past} accesses after the trip, one tile is {per_tile}");
        }
    }

    #[test]
    fn plan_cache_hits_and_reuses() {
        // An extent no other test uses, so the adjacent calls can't be
        // evicted in between.
        let size = IntVect::splat(11);
        let v = Variant::blocked_wavefront(CompLoop::Inside, 4);
        let p1 = plan_for(v, size, 5);
        let (h1, m1, _) = cache_stats();
        let p2 = plan_for(v, size, 5);
        let (h2, m2, entries) = cache_stats();
        assert!(Arc::ptr_eq(&p1, &p2), "second lowering not served from cache");
        assert!(h2 > h1, "no cache hit recorded");
        assert_eq!(m2, m1, "unexpected miss");
        assert!(entries >= 1);
        // Different thread counts are different keys...
        let p3 = plan_for(v, size, 2);
        assert!(!Arc::ptr_eq(&p1, &p3));
        // ...but `P >= Box` variants gate to one thread before keying.
        let ob = Variant::shift_fuse();
        let q1 = plan_for(ob, size, 1);
        let q2 = plan_for(ob, size, 8);
        assert!(Arc::ptr_eq(&q1, &q2));
    }

    #[test]
    fn warm_plan_is_bit_identical_to_cold() {
        for v in [
            Variant::baseline(),
            Variant::blocked_wavefront(CompLoop::Inside, 4),
            ot(IntraTile::ShiftFuse, CompLoop::Outside, 4),
        ] {
            let (phi0, expect, mut cold, cells) = setup(8);
            let mut warm = cold.clone();
            let mc = CountingMem::new();
            // Cold: a fresh, uncached lowering.
            let plan = lower(v, cells.size(), 2);
            execute(&plan, &phi0, &mut cold, cells, &mc);
            // Warm: whatever `plan_for` serves (cached after one call).
            plan_for(v, cells.size(), 2);
            let mw = CountingMem::new();
            let cached = plan_for(v, cells.size(), 2);
            execute(&cached, &phi0, &mut warm, cells, &mw);
            assert!(cold.bit_eq(&expect, cells), "{v}");
            assert!(warm.bit_eq(&cold, cells), "{v}");
            assert_eq!(mc.snapshot(), mw.snapshot(), "{v}");
            assert_eq!(plan.storage, cached.storage, "{v}");
        }
    }

    #[test]
    fn warm_optimized_plan_is_bit_identical_to_cold() {
        // Satellite of `warm_plan_is_bit_identical_to_cold`: a cached
        // pass-transformed plan must execute exactly like a fresh
        // lower-then-apply, access stream included. Extent 14 is unused
        // elsewhere so LRU eviction can't race the adjacent calls.
        let pipe = Pipeline::parse("elide-barriers,fuse-phases").unwrap();
        let v = Variant { gran: Granularity::WithinBox, ..Variant::baseline() };
        let (phi0, expect, mut cold, cells) = setup(14);
        let mut warm = cold.clone();
        let mc = CountingMem::new();
        let plan = pipe.apply(lower(v, cells.size(), 2)).unwrap();
        execute(&plan, &phi0, &mut cold, cells, &mc);
        plan_for_optimized(v, cells.size(), 2, &pipe).unwrap();
        let mw = CountingMem::new();
        let cached = plan_for_optimized(v, cells.size(), 2, &pipe).unwrap();
        assert_eq!(cached.pass_key(), "elide-barriers,fuse-phases");
        execute(&cached, &phi0, &mut warm, cells, &mw);
        assert!(cold.bit_eq(&expect, cells));
        assert!(warm.bit_eq(&cold, cells));
        assert_eq!(mc.snapshot(), mw.snapshot());
        assert_eq!(plan.barrier_count(), cached.barrier_count());
    }

    #[test]
    fn render_describes_structure() {
        let wf = lower(Variant::blocked_wavefront(CompLoop::Outside, 4), IntVect::splat(8), 2);
        let txt = wf.render();
        assert!(txt.contains("Blocked WF-CLO-4: P<Box"), "{txt}");
        assert!(txt.contains("barrier"), "{txt}");
        assert!(txt.contains("xcache"), "{txt}");
        assert!(txt.contains("vel_x"), "{txt}");
        assert!(txt.contains("wavefronts"), "{txt}");
        let otp = lower(ot(IntraTile::Basic, CompLoop::Outside, 4), IntVect::splat(8), 4);
        let txt = otp.render();
        assert!(txt.contains("recompute faces: 192"), "{txt}");
        assert!(txt.contains("ot-tiles"), "{txt}");
        let fuse = lower(Variant::shift_fuse(), IntVect::splat(8), 1);
        let txt = fuse.render();
        assert!(txt.contains("ycarry"), "{txt}");
        assert!(txt.contains("fused-clo"), "{txt}");
    }

    #[test]
    #[should_panic(expected = "plan lowered for extents")]
    fn executing_on_wrong_extents_panics() {
        let (phi0, _, mut got, cells) = setup(8);
        let plan = lower(Variant::baseline(), IntVect::splat(9), 1);
        execute(&plan, &phi0, &mut got, cells, &NoMem);
    }

    #[test]
    fn barriers_and_steps_counted() {
        // Series CLO: 3 regions x 4 phases, all barriered.
        let p = lower(Variant::baseline(), IntVect::splat(8), 1);
        assert_eq!(p.barrier_count(), 12);
        assert_eq!(p.step_count(), 12);
        // CLI drops the extract-velocity phase.
        let cli = Variant { comp: CompLoop::Inside, ..Variant::baseline() };
        assert_eq!(lower(cli, IntVect::splat(8), 1).barrier_count(), 9);
        // The fused sweep is one serial phase, no barriers.
        let f = lower(Variant::shift_fuse(), IntVect::splat(8), 1);
        assert_eq!(f.barrier_count(), 0);
        assert_eq!(f.step_count(), 3 + NCOMP);
    }

    #[test]
    fn stream_identity_reads_what_one_thread_executes() {
        let size = IntVect::splat(8);
        let within = |v: Variant| Variant { gran: Granularity::WithinBox, ..v };
        // At one thread a series or overlapped-tile schedule lowers alike
        // under either granularity; ShiftFuse P<Box is a wavefront.
        let base = lower(Variant::baseline(), size, 1);
        assert_eq!(base.stream(), lower(within(Variant::baseline()), size, 1).stream());
        let ot = |gran| lower(Variant::overlapped(IntraTile::Basic, 4, gran), size, 1).stream();
        assert_eq!(ot(Granularity::OverBoxes), ot(Granularity::WithinBox));
        let fused = lower(Variant::shift_fuse(), size, 1);
        assert_ne!(fused.stream(), lower(within(Variant::shift_fuse()), size, 1).stream());
        // Barriers and phase boundaries emit nothing at one thread.
        let pipe = Pipeline::parse("elide-barriers,fuse-phases").unwrap();
        let piped = pipe.apply(base.clone()).unwrap();
        assert_ne!(piped.barrier_count(), base.barrier_count());
        assert_eq!(piped.stream(), base.stream());
        // The component placement is read (by the wavefront caches).
        let clo = Variant::blocked_wavefront(CompLoop::Outside, 4);
        let cli = Variant::blocked_wavefront(CompLoop::Inside, 4);
        assert_ne!(lower(clo, size, 1).stream(), lower(cli, size, 1).stream());
    }
}
