//! OpenMP-like SPMD substrate.
//!
//! The paper parallelizes its schedule variants with OpenMP pragmas:
//! `parallel for` over boxes, tiles, or z-slices, and — for the wavefront
//! schedules — repeated parallel regions separated by barriers. Rust's
//! work-stealing pools (rayon) deliberately hide thread identity and give
//! no barrier primitive, so this crate provides the *explicit* model the
//! study needs:
//!
//! * [`spmd`] — run a closure on `n` threads (a `#pragma omp parallel`
//!   region) with a per-region reusable [`Barrier`];
//! * [`SpmdCtx::static_range`] — the static block partition of an
//!   iteration range (`schedule(static)`);
//! * [`SpmdCtx::dynamic_items`] — a shared-counter dynamic scheduler
//!   (`schedule(dynamic, chunk)`);
//! * [`UnsafeSlice`] — a `Sync` view of a mutable slice for kernels whose
//!   index-disjointness the caller guarantees (e.g. one box per thread).
//!
//! `nthreads == 1` takes an inline fast path with no thread spawn and a
//! no-op barrier, so single-threaded benchmarking measures the kernels,
//! not the substrate.

pub mod barrier;
pub mod cancel;
pub mod pool;
pub mod slice;

pub use barrier::{Barrier, BarrierPoisoned};
pub use cancel::{CancelToken, Cancelled, Interest, InterestSet};
pub use pool::SpmdPool;
pub use slice::UnsafeSlice;

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Per-thread context handed to the body of an [`spmd`] region.
pub struct SpmdCtx<'a> {
    tid: usize,
    nthreads: usize,
    barrier: &'a Barrier,
}

impl<'a> SpmdCtx<'a> {
    /// Build a context (used by [`spmd`] and [`SpmdPool`]).
    pub(crate) fn new(tid: usize, nthreads: usize, barrier: &'a Barrier) -> Self {
        SpmdCtx { tid, nthreads, barrier }
    }

    /// This thread's id in `0..nthreads`.
    #[inline]
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Number of threads in the region.
    #[inline]
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// Wait until every thread of the region reaches this point.
    /// Reusable any number of times.
    ///
    /// # Panics
    /// If a peer thread of the region panicked, the phase can never
    /// complete; this call then panics with a [`BarrierPoisoned`]
    /// payload instead of deadlocking (the SPMD runtime catches it and
    /// re-propagates the peer's original panic to the region's caller).
    #[inline]
    pub fn barrier(&self) {
        self.barrier.wait();
    }

    /// The contiguous block of `0..total` owned by this thread under a
    /// static partition: the first `total % nthreads` threads get one
    /// extra item (OpenMP `schedule(static)` semantics).
    pub fn static_range(&self, total: usize) -> Range<usize> {
        static_block(self.tid, self.nthreads, total)
    }

    /// Dynamically claim chunks of `chunk` items from the shared counter
    /// until `total` is exhausted, calling `f` for each item
    /// (OpenMP `schedule(dynamic, chunk)`). All threads of the region must
    /// pass the same `counter`, `total`, and `chunk`.
    pub fn dynamic_items(
        &self,
        counter: &AtomicUsize,
        total: usize,
        chunk: usize,
        mut f: impl FnMut(usize),
    ) {
        let chunk = chunk.max(1);
        loop {
            let start = counter.fetch_add(chunk, Ordering::Relaxed);
            if start >= total {
                break;
            }
            for i in start..(start + chunk).min(total) {
                f(i);
            }
        }
    }
}

/// The static block partition: thread `tid` of `n` owns this contiguous
/// sub-range of `0..total`.
pub fn static_block(tid: usize, n: usize, total: usize) -> Range<usize> {
    debug_assert!(tid < n);
    let base = total / n;
    let rem = total % n;
    let lo = tid * base + tid.min(rem);
    let hi = lo + base + usize::from(tid < rem);
    lo..hi
}

/// Run `body` as an SPMD region on `nthreads` threads.
///
/// Equivalent to `#pragma omp parallel num_threads(nthreads)`; the body
/// receives an [`SpmdCtx`] carrying the thread id and the region barrier.
/// With `nthreads == 1` the body runs inline on the calling thread.
///
/// Panic-safe: a panicking thread poisons the region barrier so peers
/// blocked in [`SpmdCtx::barrier`] wake instead of deadlocking, and the
/// first panic payload is re-propagated on the calling thread once every
/// thread has left the region.
///
/// Cancellation-aware: if the calling thread has an ambient
/// [`CancelToken`] (see [`cancel::set_current`]), it is forwarded into
/// every region thread, a trip poisons the region barrier (waking any
/// blocked waiter), and the region re-raises [`Cancelled`] on the caller
/// once all threads have unwound. Real panics take precedence over
/// cancellation in the re-raised payload.
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// let hits = AtomicUsize::new(0);
/// pdesched_par::spmd(4, |ctx| {
///     // Each thread owns a disjoint block of 0..100.
///     let mine = ctx.static_range(100);
///     hits.fetch_add(mine.len(), Ordering::Relaxed);
///     ctx.barrier(); // all threads reach this point together
/// });
/// assert_eq!(hits.load(Ordering::Relaxed), 100);
/// ```
pub fn spmd<F>(nthreads: usize, body: F)
where
    F: Fn(&SpmdCtx) + Sync,
{
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    assert!(nthreads >= 1);
    let token = cancel::current();
    if nthreads == 1 {
        if let Some(t) = &token {
            t.check();
        }
        let barrier = Barrier::new(1);
        body(&SpmdCtx { tid: 0, nthreads: 1, barrier: &barrier });
        return;
    }
    if let Some(t) = &token {
        t.check();
    }
    let barrier = std::sync::Arc::new(Barrier::new(nthreads));
    // A trip must wake threads blocked at the region barrier; they
    // unwind with the poison sentinel and the post-region check below
    // turns the trip into a `Cancelled` panic on the caller.
    let _trip_hook = token.as_ref().map(|t| {
        let b = std::sync::Arc::clone(&barrier);
        t.on_trip(move || b.poison())
    });
    // First non-secondary panic of the region (see `BarrierPoisoned`).
    let first_panic: std::sync::Mutex<Option<Box<dyn std::any::Any + Send>>> =
        std::sync::Mutex::new(None);
    std::thread::scope(|s| {
        for tid in 0..nthreads {
            let barrier = &barrier;
            let body = &body;
            let first_panic = &first_panic;
            let token = &token;
            s.spawn(move || {
                let _ambient = token.as_ref().map(|t| cancel::set_current(Some(t.clone())));
                let r = catch_unwind(AssertUnwindSafe(|| {
                    body(&SpmdCtx { tid, nthreads, barrier });
                }));
                if let Err(payload) = r {
                    pool::record_panic(first_panic, payload);
                    // Wake peers blocked at the region barrier.
                    barrier.poison();
                }
            });
        }
    });
    let payload = first_panic.lock().unwrap_or_else(|e| e.into_inner()).take();
    if let Some(p) = payload {
        resume_unwind(p);
    }
    if let Some(t) = &token {
        // Every thread may have unwound with only the (filtered) poison
        // sentinel; the region must still not report completion.
        t.check();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    #[test]
    fn static_block_partitions_exactly() {
        for n in 1..=7 {
            for total in [0usize, 1, 5, 16, 17, 100] {
                let mut covered = vec![0u32; total];
                let mut prev_end = 0;
                for tid in 0..n {
                    let r = static_block(tid, n, total);
                    assert_eq!(r.start, prev_end, "blocks must be contiguous");
                    prev_end = r.end;
                    for i in r {
                        covered[i] += 1;
                    }
                }
                assert_eq!(prev_end, total);
                assert!(covered.iter().all(|&c| c == 1), "n={n} total={total}");
            }
        }
    }

    #[test]
    fn static_block_balanced() {
        let sizes: Vec<usize> = (0..5).map(|t| static_block(t, 5, 23).len()).collect();
        assert_eq!(sizes, vec![5, 5, 5, 4, 4]);
    }

    #[test]
    fn spmd_runs_all_tids() {
        for n in [1, 2, 4, 7] {
            let seen = AtomicU64::new(0);
            spmd(n, |ctx| {
                assert_eq!(ctx.nthreads(), n);
                seen.fetch_or(1 << ctx.tid(), Ordering::SeqCst);
            });
            assert_eq!(seen.load(Ordering::SeqCst), (1u64 << n) - 1);
        }
    }

    #[test]
    fn barrier_orders_phases() {
        // Each thread writes its tid in phase 1; after the barrier every
        // thread must observe all writes.
        const N: usize = 4;
        let data: Vec<AtomicUsize> = (0..N).map(|_| AtomicUsize::new(usize::MAX)).collect();
        let fail = AtomicUsize::new(0);
        spmd(N, |ctx| {
            data[ctx.tid()].store(ctx.tid(), Ordering::SeqCst);
            ctx.barrier();
            for (i, d) in data.iter().enumerate() {
                if d.load(Ordering::SeqCst) != i {
                    fail.fetch_add(1, Ordering::SeqCst);
                }
            }
            ctx.barrier();
        });
        assert_eq!(fail.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn repeated_barriers() {
        // Sense reversal must make the barrier reusable across many phases.
        const N: usize = 3;
        const PHASES: usize = 200;
        let counter = AtomicUsize::new(0);
        let bad = AtomicUsize::new(0);
        spmd(N, |ctx| {
            for phase in 0..PHASES {
                counter.fetch_add(1, Ordering::SeqCst);
                ctx.barrier();
                if counter.load(Ordering::SeqCst) != (phase + 1) * N {
                    bad.fetch_add(1, Ordering::SeqCst);
                }
                ctx.barrier();
            }
        });
        assert_eq!(bad.load(Ordering::SeqCst), 0);
        assert_eq!(counter.load(Ordering::SeqCst), PHASES * N);
    }

    #[test]
    fn dynamic_items_disjoint_complete() {
        const TOTAL: usize = 101;
        let hits: Vec<AtomicUsize> = (0..TOTAL).map(|_| AtomicUsize::new(0)).collect();
        let counter = AtomicUsize::new(0);
        spmd(4, |ctx| {
            ctx.dynamic_items(&counter, TOTAL, 7, |i| {
                hits[i].fetch_add(1, Ordering::SeqCst);
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }
}
