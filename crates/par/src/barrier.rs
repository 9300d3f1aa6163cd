//! A reusable sense-reversing barrier with an abort/poison protocol.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// A reusable barrier for a fixed party count.
///
/// Implementation: *sense reversal*. Arrivals decrement a counter; the
/// last arrival resets the counter and flips the global sense, releasing
/// everyone waiting on the old sense. Waiters spin briefly (wavefront
/// phases in this workload are microseconds apart) and then block on a
/// condvar, so the barrier is cheap under load yet does not burn CPU when
/// threads are descheduled.
///
/// A `count` of 1 short-circuits to a no-op so that single-threaded
/// regions measure zero synchronization cost.
///
/// # Abort protocol
///
/// A barrier phase only completes when all parties arrive. If a party
/// dies instead — an SPMD region body panics — everyone else would wait
/// forever, so the barrier can be [`poison`](Barrier::poison)ed: all
/// current and future waiters wake immediately and panic with a
/// [`BarrierPoisoned`] payload instead of completing the phase. The
/// SPMD runtimes in this crate catch that sentinel panic per thread,
/// drain the region, and re-propagate the *original* panic to the
/// caller; once every party has stopped using the barrier the owner
/// calls [`clear_poison`](Barrier::clear_poison) to make it reusable.
pub struct Barrier {
    count: usize,
    remaining: AtomicUsize,
    sense: AtomicBool,
    poisoned: AtomicBool,
    lock: Mutex<()>,
    cv: Condvar,
}

/// Panic payload thrown by [`Barrier::wait`] when the barrier is
/// poisoned: the phase cannot complete because a peer died. The SPMD
/// runtimes recognize this payload as *secondary* — the interesting
/// panic is the peer's original one.
#[derive(Debug)]
pub struct BarrierPoisoned;

impl std::fmt::Display for BarrierPoisoned {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SPMD region aborted: a peer thread panicked before reaching the barrier")
    }
}

/// How many times a waiter polls the sense flag before blocking.
const SPIN_LIMIT: u32 = 4096;

impl Barrier {
    /// A barrier for `count` parties.
    pub fn new(count: usize) -> Self {
        assert!(count >= 1);
        Barrier {
            count,
            remaining: AtomicUsize::new(count),
            sense: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Number of parties.
    pub fn parties(&self) -> usize {
        self.count
    }

    /// Abort the barrier: every current and future [`wait`](Self::wait)
    /// panics with [`BarrierPoisoned`] instead of blocking. Idempotent.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        // Publish under the lock so a waiter that checked the flag and
        // is about to block cannot miss the notification.
        let _g = self.lock.lock().unwrap();
        self.cv.notify_all();
    }

    /// Whether [`poison`](Self::poison) has been called since the last
    /// [`clear_poison`](Self::clear_poison).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Recover a poisoned barrier for reuse.
    ///
    /// Callable only when no thread is inside [`wait`](Self::wait) (the
    /// pool guarantees this by counting every thread out of the region
    /// first); the arrival counter is reset because aborted waiters
    /// never completed their phase.
    pub fn clear_poison(&self) {
        self.remaining.store(self.count, Ordering::Release);
        self.poisoned.store(false, Ordering::Release);
    }

    /// Panic with the poison sentinel.
    fn abort() -> ! {
        std::panic::panic_any(BarrierPoisoned)
    }

    /// Block until all `count` parties have called `wait`. Reusable: the
    /// next `count` calls form the next phase.
    ///
    /// # Panics
    /// Panics with a [`BarrierPoisoned`] payload if the barrier is (or
    /// becomes) poisoned before the phase completes.
    pub fn wait(&self) {
        if self.count == 1 {
            return;
        }
        if self.is_poisoned() {
            Self::abort();
        }
        let my_sense = self.sense.load(Ordering::Acquire);
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last arrival: reset and release the phase.
            self.remaining.store(self.count, Ordering::Release);
            // Publish the flip under the lock so blocked waiters cannot
            // miss the notification.
            let _g = self.lock.lock().unwrap();
            self.sense.store(!my_sense, Ordering::Release);
            self.cv.notify_all();
            return;
        }
        // Spin a little, then block. Re-check the poison flag on every
        // iteration so an abort wakes spinners as well as blockers.
        let mut spins = 0;
        while self.sense.load(Ordering::Acquire) == my_sense {
            if self.is_poisoned() {
                Self::abort();
            }
            spins += 1;
            if spins < SPIN_LIMIT {
                std::hint::spin_loop();
            } else {
                let g = self.lock.lock().unwrap();
                if self.sense.load(Ordering::Acquire) != my_sense {
                    return;
                }
                if self.is_poisoned() {
                    // Unwinding with the guard held would poison the
                    // mutex, and every later `lock().unwrap()` would
                    // panic with that instead of the region's payload.
                    drop(g);
                    Self::abort();
                }
                drop(self.cv.wait(g).unwrap());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn single_party_is_noop() {
        let b = Barrier::new(1);
        for _ in 0..10 {
            b.wait();
        }
        assert_eq!(b.parties(), 1);
    }

    #[test]
    fn stress_many_phases() {
        const N: usize = 4;
        const PHASES: usize = 1000;
        let b = Barrier::new(N);
        let phase_counts: Vec<AtomicUsize> = (0..PHASES).map(|_| AtomicUsize::new(0)).collect();
        let errors = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..N {
                s.spawn(|| {
                    for (p, pc) in phase_counts.iter().enumerate() {
                        pc.fetch_add(1, Ordering::SeqCst);
                        b.wait();
                        // After the barrier, all N must have counted in
                        // this phase and none in the next.
                        if pc.load(Ordering::SeqCst) != N {
                            errors.fetch_add(1, Ordering::SeqCst);
                        }
                        if p + 1 < PHASES && phase_counts[p + 1].load(Ordering::SeqCst) > N {
                            errors.fetch_add(1, Ordering::SeqCst);
                        }
                        b.wait();
                    }
                });
            }
        });
        assert_eq!(errors.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn two_threads_alternate() {
        let b = Barrier::new(2);
        let turn = AtomicUsize::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..100 {
                    while turn.load(Ordering::SeqCst) != 2 * i {
                        std::hint::spin_loop();
                    }
                    turn.store(2 * i + 1, Ordering::SeqCst);
                    b.wait();
                }
            });
            s.spawn(|| {
                for i in 0..100 {
                    while turn.load(Ordering::SeqCst) != 2 * i + 1 {
                        std::hint::spin_loop();
                    }
                    turn.store(2 * i + 2, Ordering::SeqCst);
                    b.wait();
                }
            });
        });
        assert_eq!(turn.load(Ordering::SeqCst), 200);
    }

    #[test]
    fn poison_wakes_blocked_waiter() {
        let b = Barrier::new(2);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| std::panic::catch_unwind(|| b.wait()));
            // Give the waiter time to block, then abort the phase.
            std::thread::sleep(std::time::Duration::from_millis(20));
            b.poison();
            let r = waiter.join().unwrap();
            let payload = r.expect_err("poisoned wait must panic");
            assert!(payload.is::<BarrierPoisoned>());
        });
        assert!(b.is_poisoned());
    }

    #[test]
    fn poisoned_wait_aborts_immediately() {
        let b = Barrier::new(3);
        b.poison();
        let r = std::panic::catch_unwind(|| b.wait());
        assert!(r.expect_err("must abort").is::<BarrierPoisoned>());
    }

    #[test]
    fn clear_poison_restores_reuse() {
        let b = Barrier::new(2);
        // Poison with one party already counted in.
        std::thread::scope(|s| {
            let waiter = s.spawn(|| std::panic::catch_unwind(|| b.wait()));
            std::thread::sleep(std::time::Duration::from_millis(10));
            b.poison();
            assert!(waiter.join().unwrap().is_err());
        });
        b.clear_poison();
        assert!(!b.is_poisoned());
        // A full phase completes again even though the aborted phase
        // left mid-count: clear_poison reset the arrival counter.
        let hits = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    b.wait();
                    hits.fetch_add(1, Ordering::SeqCst);
                    b.wait();
                });
            }
        });
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }
}
