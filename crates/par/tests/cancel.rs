//! Cooperative cancellation of SPMD regions: a tripped token must wake
//! every thread blocked at a region barrier (no deadlock), surface as an
//! orderly `Err(Cancelled)` / `Cancelled` panic rather than a failure,
//! lose to real panics, and leave the pool fully reusable. Each scenario
//! runs under a watchdog so a reintroduced deadlock fails fast.
//!
//! Expected panic messages ("boom-…") appearing in this test's stderr
//! are injected faults, not failures.

use pdesched_par::cancel::{self, CancelToken, Cancelled};
use pdesched_par::{spmd, SpmdPool};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// Fail (not hang) if `f` does not finish within the test timeout.
fn within_timeout(name: &'static str, f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::Builder::new()
        .name(format!("watchdog-{name}"))
        .spawn(move || {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
            let _ = tx.send(r);
        })
        .expect("spawn watchdog");
    match rx.recv_timeout(Duration::from_secs(120)) {
        Ok(Ok(())) => {}
        Ok(Err(payload)) => std::panic::resume_unwind(payload),
        Err(_) => panic!("{name}: scenario deadlocked (timeout)"),
    }
}

/// After a cancellation, the pool must still run ordinary regions.
fn assert_pool_still_works(pool: &SpmdPool) {
    for _ in 0..3 {
        let seen = AtomicU64::new(0);
        pool.run(|ctx| {
            seen.fetch_or(1 << ctx.tid(), Ordering::SeqCst);
            ctx.barrier();
        });
        assert_eq!(seen.load(Ordering::SeqCst), (1u64 << pool.nthreads()) - 1);
    }
}

#[test]
fn pre_tripped_token_refuses_to_start() {
    within_timeout("pre-tripped", || {
        for n in [1usize, 2, 4] {
            let pool = SpmdPool::new(n);
            let token = CancelToken::new();
            token.trip("called off");
            let ran = AtomicU64::new(0);
            let r = pool.run_cancellable(&token, |_ctx| {
                ran.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(r, Err(Cancelled { reason: "called off".into() }), "n={n}");
            assert_eq!(ran.load(Ordering::SeqCst), 0, "body must never start (n={n})");
            assert_pool_still_works(&pool);
        }
    });
}

#[test]
fn trip_mid_wavefront_wakes_all_barrier_waiters() {
    within_timeout("mid-wavefront", || {
        for n in [2usize, 4, 8] {
            let pool = SpmdPool::new(n);
            let token = CancelToken::new();
            let waiting = AtomicUsize::new(0);
            let t2 = token.clone();
            let r = pool.run_cancellable(&token, |ctx| {
                if ctx.tid() == 0 {
                    // Trip only once every peer is provably parked at the
                    // barrier this thread never reaches.
                    while waiting.load(Ordering::SeqCst) < ctx.nthreads() - 1 {
                        std::hint::spin_loop();
                    }
                    std::thread::sleep(Duration::from_millis(10));
                    t2.trip("deadline expired");
                    cancel::check_current();
                    unreachable!("check_current must unwind on a tripped token");
                }
                waiting.fetch_add(1, Ordering::SeqCst);
                // Wavefront phase barrier: completes only if the trip
                // wakes us, because thread 0 never arrives.
                ctx.barrier();
            });
            assert_eq!(r, Err(Cancelled { reason: "deadline expired".into() }), "n={n}");
            assert_pool_still_works(&pool);
        }
    });
}

#[test]
fn external_trip_interrupts_barrier_phase_loop() {
    // The shape of `repro`'s signal latch: all region threads cycle
    // through barrier phases while an *outside* thread trips the token
    // at an arbitrary moment.
    within_timeout("external-trip", || {
        let pool = SpmdPool::new(4);
        let token = CancelToken::new();
        let tripper = {
            let t = token.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                t.trip("watchdog");
            })
        };
        let phases = AtomicU64::new(0);
        let r = pool.run_cancellable(&token, |ctx| loop {
            cancel::check_current();
            phases.fetch_add(1, Ordering::SeqCst);
            ctx.barrier();
        });
        tripper.join().unwrap();
        assert_eq!(r, Err(Cancelled { reason: "watchdog".into() }));
        assert!(phases.load(Ordering::SeqCst) > 0, "region must have been genuinely running");
        assert_pool_still_works(&pool);
    });
}

#[test]
fn pool_reusable_with_cancellable_regions_after_cancel() {
    within_timeout("reuse-after-cancel", || {
        let pool = SpmdPool::new(4);
        for round in 0..3 {
            let token = CancelToken::new();
            let t2 = token.clone();
            let r = pool.run_cancellable(&token, |ctx| {
                if ctx.tid() == 0 {
                    t2.trip("round over");
                }
                cancel::check_current();
                ctx.barrier();
            });
            assert!(r.is_err(), "round {round} must report cancellation");
            // A fresh token must run to completion on the same pool.
            let ok_token = CancelToken::new();
            let seen = AtomicU64::new(0);
            let r2 = pool.run_cancellable(&ok_token, |ctx| {
                seen.fetch_or(1 << ctx.tid(), Ordering::SeqCst);
                ctx.barrier();
            });
            assert_eq!(r2, Ok(()));
            assert_eq!(seen.load(Ordering::SeqCst), 0b1111);
        }
        assert_pool_still_works(&pool);
    });
}

#[test]
fn real_panic_outranks_cancellation() {
    within_timeout("panic-beats-cancel", || {
        let pool = SpmdPool::new(4);
        let token = CancelToken::new();
        let t2 = token.clone();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_cancellable(&token, |ctx| {
                if ctx.tid() == 1 {
                    panic!("boom-real-failure");
                }
                if ctx.tid() == 0 {
                    t2.trip("also cancelled");
                    cancel::check_current();
                }
                ctx.barrier();
            })
        }));
        // Whatever the interleaving, the genuine failure must surface as
        // a panic — never be masked by the orderly Err(Cancelled).
        let payload = r.expect_err("real panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| format!("{payload:?}"));
        assert_eq!(msg, "boom-real-failure");
        assert_pool_still_works(&pool);
    });
}

#[test]
fn single_thread_pool_cancels_at_checkpoints() {
    within_timeout("single-thread", || {
        let pool = SpmdPool::new(1);
        let token = CancelToken::new();
        let t2 = token.clone();
        let items = AtomicUsize::new(0);
        let r = pool.run_cancellable(&token, |_ctx| {
            for i in 0..100 {
                cancel::check_current();
                items.fetch_add(1, Ordering::SeqCst);
                if i == 4 {
                    t2.trip("enough");
                }
            }
        });
        assert_eq!(r, Err(Cancelled { reason: "enough".into() }));
        assert_eq!(items.load(Ordering::SeqCst), 5, "work must stop at the next checkpoint");
        assert_pool_still_works(&pool);
    });
}

#[test]
fn spmd_forwards_ambient_token_into_region_threads() {
    within_timeout("spmd-ambient", || {
        for n in [2usize, 4] {
            let token = CancelToken::new();
            let _ambient = cancel::set_current(Some(token.clone()));
            let t2 = token.clone();
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                spmd(n, |ctx| {
                    if ctx.tid() == 0 {
                        t2.trip("ambient trip");
                        // The region threads are new OS threads: the token
                        // must have been forwarded for this to unwind.
                        cancel::check_current();
                        unreachable!();
                    }
                    ctx.barrier();
                });
            }));
            let payload = r.expect_err("cancelled spmd region must panic");
            let c = payload.downcast_ref::<Cancelled>().expect("payload must be Cancelled");
            assert_eq!(c.reason, "ambient trip", "n={n}");
        }
    });
}

#[test]
fn spmd_with_pre_tripped_ambient_token_refuses_to_start() {
    within_timeout("spmd-pre-tripped", || {
        for n in [1usize, 4] {
            let token = CancelToken::new();
            token.trip("too late");
            let _ambient = cancel::set_current(Some(token));
            let ran = AtomicU64::new(0);
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                spmd(n, |_ctx| {
                    ran.fetch_add(1, Ordering::SeqCst);
                });
            }));
            let payload = r.expect_err("must refuse to start");
            assert!(payload.is::<Cancelled>());
            assert_eq!(ran.load(Ordering::SeqCst), 0, "n={n}");
        }
    });
}

#[test]
fn child_token_trip_cancels_region_but_not_parent() {
    within_timeout("child-trip", || {
        let pool = SpmdPool::new(2);
        let sweep = CancelToken::new();
        let point = sweep.child();
        let p2 = point.clone();
        let r = pool.run_cancellable(&point, |ctx| {
            if ctx.tid() == 0 {
                p2.trip("point deadline");
                cancel::check_current();
            }
            ctx.barrier();
        });
        assert_eq!(r, Err(Cancelled { reason: "point deadline".into() }));
        assert!(point.tripped_directly());
        assert!(!sweep.is_tripped(), "a point deadline must not cancel the sweep");
        // The sweep token still supervises further regions normally.
        let next = sweep.child();
        let r2 = pool.run_cancellable(&next, |ctx| ctx.barrier());
        assert_eq!(r2, Ok(()));
    });
}

#[test]
fn dynamic_schedule_drains_no_items_after_trip_checkpoint() {
    within_timeout("dynamic-cancel", || {
        let pool = SpmdPool::new(4);
        let token = CancelToken::new();
        let t2 = token.clone();
        let counter = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        let r = pool.run_cancellable(&token, |ctx| {
            ctx.dynamic_items(&counter, 1000, 1, |i| {
                cancel::check_current();
                done.fetch_add(1, Ordering::SeqCst);
                if i == 100 {
                    t2.trip("mid-sweep");
                }
            });
        });
        assert!(r.is_err());
        let drained = done.load(Ordering::SeqCst);
        // Each thread stops at its next per-item checkpoint: at most
        // nthreads items complete after the trip.
        assert!(drained <= 100 + pool.nthreads() + 1, "drained {drained} items after trip");
        assert_pool_still_works(&pool);
    });
}
