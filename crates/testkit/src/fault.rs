//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a declarative description of *which* operation of
//! a run should fail — "panic on simulation k", "fail every nth store
//! append", "truncate the store after byte b" — plus the atomic
//! counters that fire it at exactly the planned occurrence no matter
//! which thread performs the operation. Tests thread a plan through
//! pool jobs and store I/O hooks, so fault-tolerance claims are
//! exercised by the same deterministic machinery on every run.

use std::sync::atomic::{AtomicU64, Ordering};

/// A deterministic fault plan. All trigger sites are optional; an empty
/// plan injects nothing and every probe is a cheap counter bump.
#[derive(Debug, Default)]
pub struct FaultPlan {
    panic_on_sim: Option<u64>,
    hang_on_sim: Option<u64>,
    fail_append_every: Option<u64>,
    truncate_after_byte: Option<u64>,
    drop_on_request: Option<u64>,
    hang_on_request: Option<u64>,
    sims: AtomicU64,
    appends: AtomicU64,
    requests: AtomicU64,
}

/// What an injected socket fault does to the service request it fires
/// on (the request-path analogue of a sim panic/hang).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SocketFault {
    /// Close the connection without answering.
    DropConnection,
    /// Park the request (the window a storm script kills into).
    Hang,
}

/// Safety cap on an injected hang: even with no gate, a hung probe
/// eventually returns so a broken supervisor fails a test instead of
/// wedging the suite (or a CI runner) forever.
const HANG_CAP: std::time::Duration = std::time::Duration::from_secs(60);

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Panic on the `k`-th (0-based) call to [`on_sim`](Self::on_sim).
    pub fn panic_on_sim(mut self, k: u64) -> Self {
        self.panic_on_sim = Some(k);
        self
    }

    /// Hang on the `k`-th (0-based) sim probe: the probe spins (1 ms
    /// sleep-polls) until the `keep_hanging` gate passed to
    /// [`on_sim_gated`](Self::on_sim_gated) returns `false` — how tests
    /// fake a wedged measurement that only cancellation can unstick. A
    /// 60 s safety cap bounds the hang even with an always-true gate.
    pub fn hang_on_sim(mut self, k: u64) -> Self {
        self.hang_on_sim = Some(k);
        self
    }

    /// Fail every `n`-th (0-based: appends n-1, 2n-1, …) probe of
    /// [`on_append`](Self::on_append).
    pub fn fail_every_nth_append(mut self, n: u64) -> Self {
        assert!(n >= 1, "append failure period must be >= 1");
        self.fail_append_every = Some(n);
        self
    }

    /// Plan a store truncation after byte `b` (applied by the test via
    /// [`truncation`](Self::truncation); the store never sees it as an
    /// API call — it simulates a crash mid-write).
    pub fn truncate_after_byte(mut self, b: u64) -> Self {
        self.truncate_after_byte = Some(b);
        self
    }

    /// Count one simulation; panics deterministically if this is the
    /// planned one. Call from the measurement path (any thread). A
    /// planned hang (see [`hang_on_sim`](Self::hang_on_sim)) runs to the
    /// safety cap here; use [`on_sim_gated`](Self::on_sim_gated) when
    /// the caller can say when to stop hanging.
    pub fn on_sim(&self) {
        self.on_sim_gated(|| true);
    }

    /// [`on_sim`](Self::on_sim) with a hang gate: a planned hang
    /// sleep-polls `keep_hanging` and returns once it goes `false` (or
    /// the 60 s safety cap expires). The gate is how cancel-aware
    /// callers make the hang cooperatively interruptible — e.g.
    /// `plan.on_sim_gated(|| !cancel_was_requested())` — while this
    /// crate itself stays dependency-free.
    pub fn on_sim_gated(&self, keep_hanging: impl Fn() -> bool) {
        let idx = self.sims.fetch_add(1, Ordering::SeqCst);
        if self.hang_on_sim == Some(idx) {
            let t0 = std::time::Instant::now();
            while keep_hanging() && t0.elapsed() < HANG_CAP {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        if self.panic_on_sim == Some(idx) {
            panic!("injected fault: panic on simulation {idx}");
        }
    }

    /// Drop the connection of the `k`-th (0-based) service request
    /// without answering it (see [`on_request`](Self::on_request)).
    pub fn drop_on_request(mut self, k: u64) -> Self {
        self.drop_on_request = Some(k);
        self
    }

    /// Hang the `k`-th (0-based) service request; the server's own
    /// hang policy (shutdown gate, cap) bounds it.
    pub fn hang_on_request(mut self, k: u64) -> Self {
        self.hang_on_request = Some(k);
        self
    }

    /// Count one service request; returns the socket fault planned for
    /// exactly this occurrence, if any. Call from the request path (any
    /// connection thread).
    pub fn on_request(&self) -> Option<SocketFault> {
        let idx = self.requests.fetch_add(1, Ordering::SeqCst);
        if self.drop_on_request == Some(idx) {
            return Some(SocketFault::DropConnection);
        }
        if self.hang_on_request == Some(idx) {
            return Some(SocketFault::Hang);
        }
        None
    }

    /// Count one store append; returns `true` when the plan says this
    /// one must fail.
    pub fn on_append(&self) -> bool {
        let idx = self.appends.fetch_add(1, Ordering::SeqCst);
        match self.fail_append_every {
            Some(n) => (idx + 1).is_multiple_of(n),
            None => false,
        }
    }

    /// The planned truncation offset, if any.
    pub fn truncation(&self) -> Option<u64> {
        self.truncate_after_byte
    }

    /// Simulations probed so far.
    pub fn sims_seen(&self) -> u64 {
        self.sims.load(Ordering::SeqCst)
    }

    /// Appends probed so far.
    pub fn appends_seen(&self) -> u64 {
        self.appends.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fires() {
        let p = FaultPlan::new();
        for _ in 0..100 {
            p.on_sim();
            assert!(!p.on_append());
        }
        assert_eq!((p.sims_seen(), p.appends_seen()), (100, 100));
        assert_eq!(p.truncation(), None);
    }

    #[test]
    fn panics_on_exactly_the_planned_sim() {
        let p = FaultPlan::new().panic_on_sim(3);
        for _ in 0..3 {
            p.on_sim();
        }
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.on_sim()));
        assert!(r.is_err(), "sim 3 must panic");
        // Later sims proceed (the plan fires once).
        p.on_sim();
        assert_eq!(p.sims_seen(), 5);
    }

    #[test]
    fn append_failures_follow_the_period() {
        let p = FaultPlan::new().fail_every_nth_append(3);
        let fired: Vec<bool> = (0..9).map(|_| p.on_append()).collect();
        assert_eq!(fired, [false, false, true, false, false, true, false, false, true]);
    }

    #[test]
    fn hang_fires_on_the_planned_sim_and_honors_the_gate() {
        let p = FaultPlan::new().hang_on_sim(1);
        let polls = AtomicU64::new(0);
        // Sim 0: not the planned hang, the gate is never consulted.
        p.on_sim_gated(|| {
            polls.fetch_add(1, Ordering::SeqCst);
            true
        });
        assert_eq!(polls.load(Ordering::SeqCst), 0);
        // Sim 1 hangs until the gate releases it.
        let t0 = std::time::Instant::now();
        p.on_sim_gated(|| polls.fetch_add(1, Ordering::SeqCst) < 3);
        assert!(polls.load(Ordering::SeqCst) >= 3, "hang must have polled the gate");
        assert!(t0.elapsed() < std::time::Duration::from_secs(10), "gate must end the hang");
        // Later sims are unaffected.
        p.on_sim();
        assert_eq!(p.sims_seen(), 3);
    }

    #[test]
    fn socket_faults_fire_on_exactly_the_planned_request() {
        let p = FaultPlan::new().drop_on_request(1).hang_on_request(3);
        let fired: Vec<Option<SocketFault>> = (0..5).map(|_| p.on_request()).collect();
        assert_eq!(
            fired,
            [None, Some(SocketFault::DropConnection), None, Some(SocketFault::Hang), None]
        );
    }

    #[test]
    fn fires_deterministically_across_threads() {
        // Exactly one of N concurrent probes observes the planned panic,
        // regardless of interleaving.
        let p = FaultPlan::new().panic_on_sim(5);
        let panics = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..5 {
                        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.on_sim()))
                            .is_err()
                        {
                            panics.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        assert_eq!(panics.load(Ordering::SeqCst), 1);
        assert_eq!(p.sims_seen(), 20);
    }
}
