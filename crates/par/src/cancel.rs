//! Cooperative cancellation for SPMD regions.
//!
//! A [`CancelToken`] is an atomic flag plus a human-readable reason.
//! Tripping it never preempts anything: running code observes the flag
//! at *checkpoints* — [`Barrier`](crate::Barrier) waits (via trip hooks
//! that poison the region barrier, waking every blocked waiter) and
//! explicit [`check_current`] calls between units of work — and unwinds
//! with a [`Cancelled`] panic payload that the SPMD runtimes recognize
//! as an orderly abort rather than a failure.
//!
//! Tokens form a tree: [`CancelToken::child`] makes a token that trips
//! when its parent trips but can also be tripped alone (a per-work-item
//! deadline under a whole-sweep token). [`CancelToken::tripped_directly`]
//! distinguishes "my own deadline fired" from "the whole sweep was
//! cancelled".
//!
//! A deadline is token state, not a watcher: [`CancelToken::child_until`]
//! makes a child that trips itself — through the ordinary [`trip`], so
//! the first reason wins, hooks fire once and the trip cascades — the
//! first time any read of its state ([`is_tripped`], [`tripped_directly`],
//! [`reason`], [`check`], [`check_current`], also from a descendant)
//! finds the deadline passed. Nothing runs when it expires: work that
//! reads no token would not stop for a tripped one either, so reading
//! the clock at the checkpoints loses nothing. A token without a
//! deadline never reads the clock.
//!
//! [`trip`]: CancelToken::trip
//! [`is_tripped`]: CancelToken::is_tripped
//! [`tripped_directly`]: CancelToken::tripped_directly
//! [`reason`]: CancelToken::reason
//! [`check`]: CancelToken::check
//!
//! Propagation is by *ambient token*: a runtime installs the token for
//! the current thread with [`set_current`] (restored on scope exit),
//! and leaf code — deep inside a plan interpreter or a fault hook —
//! polls [`check_current`] without threading a handle through every
//! signature. [`crate::spmd`] forwards the caller's ambient token into
//! every spawned region thread.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::Instant;

/// Panic payload (and [`SpmdPool::run_cancellable`] error) of an
/// orderly cancellation: the region stopped because its token tripped,
/// not because anything failed.
///
/// [`SpmdPool::run_cancellable`]: crate::SpmdPool::run_cancellable
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cancelled {
    /// The reason recorded by the first [`CancelToken::trip`].
    pub reason: String,
}

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cancelled: {}", self.reason)
    }
}

/// A registered trip hook; removed by id when its guard drops.
struct Hook {
    id: u64,
    f: Box<dyn Fn() + Send + Sync>,
}

static NEXT_HOOK_ID: AtomicU64 = AtomicU64::new(0);

struct Inner {
    tripped: AtomicBool,
    reason: Mutex<Option<String>>,
    hooks: Mutex<Vec<Hook>>,
    children: Mutex<Vec<Weak<Inner>>>,
    parent: Option<Arc<Inner>>,
    /// When this token trips itself, and with what reason.
    deadline: Option<(Instant, String)>,
}

impl Inner {
    fn new(parent: Option<Arc<Inner>>, deadline: Option<(Instant, String)>) -> Self {
        Inner {
            tripped: AtomicBool::new(false),
            reason: Mutex::new(None),
            hooks: Mutex::new(Vec::new()),
            children: Mutex::new(Vec::new()),
            parent,
            deadline,
        }
    }

    /// Record `reason` (first trip wins) and run the hooks; `false` if
    /// this token was already tripped directly.
    fn trip(&self, reason: &str) -> bool {
        // The reason is in place before the flag is raised, so a reader
        // that sees the flag (many may race to trip a passed deadline)
        // also sees the reason.
        self.reason.lock().unwrap_or_else(|e| e.into_inner()).get_or_insert_with(|| reason.into());
        if self.tripped.swap(true, Ordering::AcqRel) {
            return false;
        }
        self.fire_hooks();
        true
    }

    /// Whether this token itself has tripped, tripping it first if its
    /// deadline has passed.
    fn tripped_directly(&self) -> bool {
        if self.tripped.load(Ordering::Acquire) {
            return true;
        }
        match &self.deadline {
            Some((at, reason)) if Instant::now() >= *at => {
                self.trip(reason);
                true
            }
            _ => false,
        }
    }

    fn is_tripped(&self) -> bool {
        self.tripped_directly() || self.parent.as_ref().is_some_and(|p| p.is_tripped())
    }

    fn reason(&self) -> Option<String> {
        let own = if self.tripped_directly() {
            self.reason.lock().unwrap_or_else(|e| e.into_inner()).clone()
        } else {
            None
        };
        own.or_else(|| self.parent.as_ref().and_then(|p| p.reason()))
    }

    /// Run this token's hooks and cascade into live descendants (their
    /// `tripped` flags stay untouched — chaining happens through
    /// `parent` on reads — but their hooks must fire so e.g. a barrier
    /// guarding a child's region is poisoned by a parent-level trip).
    fn fire_hooks(&self) {
        {
            let hooks = self.hooks.lock().unwrap_or_else(|e| e.into_inner());
            for h in hooks.iter() {
                (h.f)();
            }
        }
        let children = self.children.lock().unwrap_or_else(|e| e.into_inner());
        for c in children.iter() {
            if let Some(c) = c.upgrade() {
                c.fire_hooks();
            }
        }
    }
}

/// A cancellation flag shared by cloning; see the module docs.
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("tripped", &self.is_tripped())
            .field("reason", &self.reason())
            .finish()
    }
}

impl CancelToken {
    /// A fresh, untripped token with no parent.
    pub fn new() -> Self {
        CancelToken { inner: Arc::new(Inner::new(None, None)) }
    }

    /// A child token: tripped whenever `self` is tripped, but also
    /// trippable on its own (a per-item cancel under a sweep token).
    pub fn child(&self) -> CancelToken {
        self.adopt(None)
    }

    /// A [`child`](Self::child) that also trips itself with `reason` once
    /// `at` has passed — noticed by the first read of its state (or a
    /// descendant's) at or after `at`; see the module docs.
    pub fn child_until(&self, at: Instant, reason: impl Into<String>) -> CancelToken {
        self.adopt(Some((at, reason.into())))
    }

    fn adopt(&self, deadline: Option<(Instant, String)>) -> CancelToken {
        let inner = Arc::new(Inner::new(Some(Arc::clone(&self.inner)), deadline));
        let mut children = self.inner.children.lock().unwrap_or_else(|e| e.into_inner());
        // Prune children that finished their work (only their Weak is
        // left) so a long-lived sweep token doesn't accumulate one slot
        // per completed item.
        children.retain(|c| c.strong_count() > 0);
        children.push(Arc::downgrade(&inner));
        drop(children);
        CancelToken { inner }
    }

    /// Trip the token: record `reason` (first trip wins), run every
    /// registered hook, and cascade into child tokens' hooks. Returns
    /// `false` if this token was already tripped directly.
    pub fn trip(&self, reason: &str) -> bool {
        self.inner.trip(reason)
    }

    /// Whether this token or any ancestor has been tripped (or has
    /// passed its deadline, which trips it now).
    pub fn is_tripped(&self) -> bool {
        self.inner.is_tripped()
    }

    /// Whether *this* token was tripped itself (ignoring ancestors) —
    /// how a sweep tells "this item's deadline fired" apart from "the
    /// whole sweep was cancelled".
    pub fn tripped_directly(&self) -> bool {
        self.inner.tripped_directly()
    }

    /// The recorded trip reason (this token's, else the nearest tripped
    /// ancestor's).
    pub fn reason(&self) -> Option<String> {
        self.inner.reason()
    }

    /// The [`Cancelled`] payload for this token's current state.
    pub fn cancelled(&self) -> Cancelled {
        Cancelled { reason: self.reason().unwrap_or_else(|| "cancelled".into()) }
    }

    /// Unwind with a [`Cancelled`] payload if the token (or an
    /// ancestor) tripped. The designated checkpoint call for code
    /// holding a token. Uses `resume_unwind` rather than `panic_any` so
    /// an orderly cancellation does not invoke the panic hook (no
    /// backtrace noise for every cancelled worker); catchers see the
    /// same `Box<dyn Any>` payload either way.
    pub fn check(&self) {
        if self.is_tripped() {
            std::panic::resume_unwind(Box::new(self.cancelled()));
        }
    }

    /// Register `f` to run when the token trips (or immediately, if it
    /// already has). Hooks must be idempotent: a trip racing with
    /// registration may invoke the hook twice. The registration lasts
    /// until the returned guard is dropped.
    pub fn on_trip(&self, f: impl Fn() + Send + Sync + 'static) -> TripHookGuard {
        let id = NEXT_HOOK_ID.fetch_add(1, Ordering::Relaxed);
        self.inner
            .hooks
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Hook { id, f: Box::new(f) });
        if self.is_tripped() {
            // Tripped before (or while) registering: the trip's own
            // hook pass may have missed this hook, so fire it here.
            let hooks = self.inner.hooks.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(h) = hooks.iter().find(|h| h.id == id) {
                (h.f)();
            }
        }
        TripHookGuard { inner: Arc::clone(&self.inner), id }
    }
}

/// Unregisters a trip hook on drop (see [`CancelToken::on_trip`]).
pub struct TripHookGuard {
    inner: Arc<Inner>,
    id: u64,
}

impl Drop for TripHookGuard {
    fn drop(&mut self) {
        self.inner.hooks.lock().unwrap_or_else(|e| e.into_inner()).retain(|h| h.id != self.id);
    }
}

thread_local! {
    static CURRENT: RefCell<Option<CancelToken>> = const { RefCell::new(None) };
}

/// The ambient token installed for this thread, if any.
pub fn current() -> Option<CancelToken> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Install `token` as this thread's ambient token; the previous token is
/// restored when the returned guard drops. Pass `None` to clear.
pub fn set_current(token: Option<CancelToken>) -> CurrentGuard {
    let prev = CURRENT.with(|c| c.replace(token));
    CurrentGuard { prev }
}

/// Restores the previously ambient token on drop (see [`set_current`]).
pub struct CurrentGuard {
    prev: Option<CancelToken>,
}

impl Drop for CurrentGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

/// Whether this thread's ambient token (if any) has tripped. Cheap
/// enough to poll from a wait loop.
pub fn current_is_tripped() -> bool {
    CURRENT.with(|c| c.borrow().as_ref().is_some_and(|t| t.is_tripped()))
}

/// Checkpoint against the ambient token: unwind with [`Cancelled`] if
/// it has tripped (via `resume_unwind`, bypassing the panic hook — see
/// [`CancelToken::check`]); no-op when no token is installed. Plan
/// interpreters and fault hooks call this between units of work.
pub fn check_current() {
    let payload =
        CURRENT.with(|c| c.borrow().as_ref().and_then(|t| t.is_tripped().then(|| t.cancelled())));
    if let Some(p) = payload {
        std::panic::resume_unwind(Box::new(p));
    }
}

/// Counted interest in one shared piece of work — the bridge between
/// many client lifetimes and one coalesced execution. `machine::serve`
/// gives every in-flight point an `InterestSet` over the flight's
/// [`CancelToken`]: each request that wants the point [`join`]s, each
/// disconnect/deadline [`release`]s (or just drops) its [`Interest`],
/// and the token trips with the set's reason only when the *last*
/// holder lets go. One live follower keeps the flight running even
/// after the leader's client died; when everyone is gone the flight
/// stops mid-plan-execution instead of simulating into the void.
///
/// Releasing is idempotent per handle and `Drop` releases, so panics
/// and early returns on the request path can never leak interest. The
/// trip fires exactly once, on the 1→0 transition; a `join` after that
/// hands out an interest in already-tripped work (the caller observes
/// it through the token, as with any tripped token).
///
/// [`join`]: InterestSet::join
/// [`release`]: Interest::release
#[derive(Clone)]
pub struct InterestSet {
    inner: Arc<InterestInner>,
}

struct InterestInner {
    token: CancelToken,
    reason: String,
    outstanding: AtomicUsize,
}

impl InterestSet {
    /// A set that trips `token` with `reason` when the last outstanding
    /// [`Interest`] releases.
    pub fn new(token: CancelToken, reason: impl Into<String>) -> InterestSet {
        InterestSet {
            inner: Arc::new(InterestInner {
                token,
                reason: reason.into(),
                outstanding: AtomicUsize::new(0),
            }),
        }
    }

    /// Register one party's interest. The returned handle releases on
    /// drop.
    pub fn join(&self) -> Interest {
        self.inner.outstanding.fetch_add(1, Ordering::AcqRel);
        Interest { set: Arc::clone(&self.inner), released: AtomicBool::new(false) }
    }

    /// [`join`](Self::join), unless nobody holds an interest: `None`
    /// means the work was never joined or — what callers sharing a set
    /// care about — its last holder has let go, so the token is tripped
    /// or about to be and the work cannot be kept alive any more.
    pub fn try_join(&self) -> Option<Interest> {
        let claim = |n: usize| (n > 0).then_some(n + 1);
        self.inner.outstanding.fetch_update(Ordering::AcqRel, Ordering::Acquire, claim).ok()?;
        Some(Interest { set: Arc::clone(&self.inner), released: AtomicBool::new(false) })
    }

    /// Number of unreleased interests right now (racy by nature; for
    /// introspection and tests).
    pub fn outstanding(&self) -> usize {
        self.inner.outstanding.load(Ordering::Acquire)
    }

    /// The token this set trips when abandoned.
    pub fn token(&self) -> &CancelToken {
        &self.inner.token
    }
}

/// One party's stake in an [`InterestSet`]; see there.
pub struct Interest {
    set: Arc<InterestInner>,
    released: AtomicBool,
}

impl Interest {
    /// Release this stake (idempotent). The set's token trips iff this
    /// was the last outstanding interest.
    pub fn release(&self) {
        if self.released.swap(true, Ordering::AcqRel) {
            return;
        }
        if self.set.outstanding.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.set.token.trip(&self.set.reason);
        }
    }
}

impl Drop for Interest {
    fn drop(&mut self) {
        self.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn first_trip_wins_and_records_reason() {
        let t = CancelToken::new();
        assert!(!t.is_tripped());
        assert_eq!(t.reason(), None);
        assert!(t.trip("deadline"));
        assert!(!t.trip("second"), "second trip must report already-tripped");
        assert!(t.is_tripped());
        assert_eq!(t.reason().as_deref(), Some("deadline"));
        assert_eq!(t.cancelled().to_string(), "cancelled: deadline");
    }

    #[test]
    fn check_panics_with_cancelled_payload() {
        let t = CancelToken::new();
        t.check(); // untripped: no-op
        t.trip("stop");
        let p = std::panic::catch_unwind(|| t.check()).expect_err("must panic");
        let c = p.downcast_ref::<Cancelled>().expect("payload must be Cancelled");
        assert_eq!(c.reason, "stop");
    }

    #[test]
    fn child_chains_to_parent_but_keeps_direct_flag() {
        let parent = CancelToken::new();
        let child = parent.child();
        parent.trip("sweep cancelled");
        assert!(child.is_tripped(), "parent trip must reach the child");
        assert!(!child.tripped_directly());
        assert_eq!(child.reason().as_deref(), Some("sweep cancelled"));

        let parent2 = CancelToken::new();
        let child2 = parent2.child();
        child2.trip("point deadline");
        assert!(child2.tripped_directly());
        assert!(!parent2.is_tripped(), "child trip must not escape to the parent");
    }

    #[test]
    fn hooks_fire_on_trip_and_cascade_to_children() {
        let fired = Arc::new(AtomicUsize::new(0));
        let parent = CancelToken::new();
        let child = parent.child();
        let f1 = Arc::clone(&fired);
        let _g1 = parent.on_trip(move || {
            f1.fetch_add(1, Ordering::SeqCst);
        });
        let f2 = Arc::clone(&fired);
        let _g2 = child.on_trip(move || {
            f2.fetch_add(10, Ordering::SeqCst);
        });
        parent.trip("x");
        assert_eq!(fired.load(Ordering::SeqCst), 11, "parent and child hooks must both fire");
    }

    #[test]
    fn registering_on_tripped_token_fires_immediately() {
        let t = CancelToken::new();
        t.trip("early");
        let fired = Arc::new(AtomicUsize::new(0));
        let f = Arc::clone(&fired);
        let _g = t.on_trip(move || {
            f.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn dropped_hook_guard_unregisters() {
        let fired = Arc::new(AtomicUsize::new(0));
        let t = CancelToken::new();
        let f = Arc::clone(&fired);
        drop(t.on_trip(move || {
            f.fetch_add(1, Ordering::SeqCst);
        }));
        t.trip("x");
        assert_eq!(fired.load(Ordering::SeqCst), 0, "dropped hook must not fire");
    }

    #[test]
    fn ambient_token_scopes_nest_and_restore() {
        assert!(current().is_none());
        let a = CancelToken::new();
        {
            let _ga = set_current(Some(a.clone()));
            assert!(current().is_some());
            check_current(); // untripped: no-op
            let b = CancelToken::new();
            {
                let _gb = set_current(Some(b.clone()));
                b.trip("inner");
                assert!(current_is_tripped());
                let p = std::panic::catch_unwind(check_current).expect_err("must panic");
                assert_eq!(p.downcast_ref::<Cancelled>().unwrap().reason, "inner");
            }
            // Inner scope gone: back to the (untripped) outer token.
            assert!(!current_is_tripped());
        }
        assert!(current().is_none());
    }

    #[test]
    fn completed_children_are_pruned() {
        let parent = CancelToken::new();
        for _ in 0..100 {
            let c = parent.child();
            drop(c);
        }
        let _live = parent.child();
        let n = parent.inner.children.lock().unwrap().len();
        assert!(n <= 2, "dead child slots must be pruned, found {n}");
    }

    #[test]
    fn expired_deadline_trips_once_with_its_reason() {
        let root = CancelToken::new();
        let later = root.child_until(Instant::now() + Duration::from_secs(3600), "never");
        assert!(!later.is_tripped() && later.reason().is_none(), "not before its deadline");

        let t = root.child_until(Instant::now() + Duration::from_millis(200), "point deadline");
        let fired = Arc::new(AtomicUsize::new(0));
        let f = Arc::clone(&fired);
        let _g = t.on_trip(move || {
            f.fetch_add(1, Ordering::SeqCst);
        });
        std::thread::sleep(Duration::from_millis(250));
        // Many readers at once: one of them performs the trip.
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| assert!(t.is_tripped()));
            }
        });
        assert!(!t.trip("later"), "the deadline already tripped it");
        assert_eq!(t.reason().as_deref(), Some("point deadline"), "the first reason wins");
        assert_eq!(fired.load(Ordering::SeqCst), 1, "the hook runs once");
        assert!(!root.is_tripped());
    }

    #[test]
    fn a_deadline_trips_its_owner_directly_and_its_children_through_it() {
        let owner = CancelToken::new().child_until(Instant::now(), "deadline 0.0s exceeded");
        let child = owner.child();
        // The child's read is the first one: it trips the owner.
        assert!(child.is_tripped());
        assert!(!child.tripped_directly());
        assert!(owner.tripped_directly());
        assert_eq!(child.reason().as_deref(), Some("deadline 0.0s exceeded"));
    }

    #[test]
    fn a_parents_deadline_unwinds_a_childs_checkpoint() {
        let run = CancelToken::new().child_until(Instant::now(), "deadline 0.0s exceeded");
        let point = run.child();
        let _ambient = set_current(Some(point.clone()));
        let p = std::panic::catch_unwind(check_current).expect_err("must unwind");
        assert_eq!(p.downcast_ref::<Cancelled>().unwrap().reason, "deadline 0.0s exceeded");
        let p = std::panic::catch_unwind(|| point.check()).expect_err("must unwind");
        assert!(p.is::<Cancelled>());
    }

    #[test]
    fn a_childs_deadline_never_trips_its_parent() {
        let parent = CancelToken::new();
        let child = parent.child_until(Instant::now(), "point deadline");
        assert!(child.is_tripped() && child.tripped_directly());
        assert!(!parent.is_tripped());
        assert_eq!(parent.reason(), None);
    }

    #[test]
    fn an_expiring_region_token_cancels_peers_parked_at_the_barrier() {
        let pool = crate::SpmdPool::new(3);
        let token = CancelToken::new()
            .child_until(Instant::now() + Duration::from_millis(50), "region deadline");
        let r = pool.run_cancellable(&token, |ctx| {
            if ctx.tid() == 0 {
                // The only reader of the token; its peers wait at a
                // barrier it never reaches, woken by the trip's hook.
                loop {
                    check_current();
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            ctx.barrier();
        });
        assert_eq!(r, Err(Cancelled { reason: "region deadline".into() }));
    }

    #[test]
    fn interest_trips_only_when_the_last_holder_releases() {
        let t = CancelToken::new();
        let set = InterestSet::new(t.clone(), "abandoned");
        let a = set.join();
        let b = set.join();
        assert_eq!(set.outstanding(), 2);
        a.release();
        a.release(); // idempotent: must not double-decrement
        assert!(!t.is_tripped(), "one live follower keeps the flight running");
        drop(b); // drop releases
        assert!(t.is_tripped());
        assert_eq!(t.reason().as_deref(), Some("abandoned"));
    }

    #[test]
    fn abandoned_interest_cannot_be_rejoined() {
        let t = CancelToken::new();
        let set = InterestSet::new(t.clone(), "abandoned");
        assert!(set.try_join().is_none(), "nobody to join yet");
        let a = set.join();
        let b = set.try_join().expect("held work can be joined");
        drop(a);
        assert!(!t.is_tripped());
        drop(b);
        assert!(t.is_tripped());
        assert!(set.try_join().is_none(), "abandoned work stays abandoned");
        assert_eq!(set.outstanding(), 0);
    }

    #[test]
    fn interest_drop_after_release_is_inert() {
        let t = CancelToken::new();
        let set = InterestSet::new(t.clone(), "abandoned");
        let a = set.join();
        let b = set.join();
        a.release();
        drop(a); // already released: the drop must not count again
        assert!(!t.is_tripped());
        drop(set); // the set itself holds no interest
        assert!(!t.is_tripped());
        drop(b);
        assert!(t.is_tripped());
    }

    #[test]
    fn interest_abandonment_cascades_through_the_token_tree() {
        // serve chains flight tokens off the server token; a flight
        // abandoned by all clients must stop plan execution running
        // under a *child* of the flight token.
        let server = CancelToken::new();
        let flight = server.child();
        let set = InterestSet::new(flight.clone(), "abandoned");
        let exec = flight.child();
        let only = set.join();
        drop(only);
        assert!(exec.is_tripped(), "abandonment must reach execution children");
        assert!(!server.is_tripped(), "but never the server token");
    }

    #[test]
    fn concurrent_releases_trip_exactly_once() {
        let t = CancelToken::new();
        let set = InterestSet::new(t.clone(), "abandoned");
        let handles: Vec<_> = (0..16).map(|_| set.join()).collect();
        std::thread::scope(|s| {
            for h in handles {
                s.spawn(move || h.release());
            }
        });
        assert!(t.is_tripped());
        assert_eq!(set.outstanding(), 0);
    }
}
