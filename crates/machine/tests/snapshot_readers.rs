//! The lock-free warm-read path and external-compaction detection:
//! long-lived readers (`StoreReader` snapshots, read-only
//! `TrafficCache`s) racing a live writer that appends and compacts.
//! Every view a reader obtains must be bit-exact some committed store
//! state — never a torn mix of two generations — and a reader must
//! *notice* when a writer compacts the store underneath it
//! (`refresh_if_compacted`), which the cache historically never did.

use pdesched_cachesim::CacheConfig;
use pdesched_core::Variant;
use pdesched_machine::traffic::{store_key, StoreReader};
use pdesched_machine::{SimPoint, TrafficCache};
use pdesched_testkit::TempDir;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Cheapest hierarchy to simulate: everything is cache-resident.
fn roomy() -> Vec<CacheConfig> {
    vec![CacheConfig::new(32 * 1024, 8), CacheConfig::new(16 * 1024 * 1024, 16)]
}

/// Cheap distinct measurement points (8^3 boxes, resident hierarchy).
fn cheap_points(count: usize) -> Vec<SimPoint> {
    let variants = [
        Variant::baseline(),
        Variant::shift_fuse(),
        Variant::overlapped(
            pdesched_core::IntraTile::ShiftFuse,
            4,
            pdesched_core::Granularity::WithinBox,
        ),
        Variant::blocked_wavefront(pdesched_core::CompLoop::Outside, 4),
    ];
    assert!(count <= variants.len());
    variants[..count].iter().map(|&v| SimPoint { variant: v, n: 8, configs: roomy() }).collect()
}

/// Regression for the external-compaction blind spot: a read-only
/// `TrafficCache` (writer flock held elsewhere) used to load its
/// snapshot once and never look at the file again, so a writer's
/// appends — and worse, a quarantine-compaction that *rewrote* the
/// file — were invisible for the reader's whole lifetime.
/// `refresh_if_compacted` re-stats the file and atomically swaps in the
/// merged snapshot.
#[test]
fn read_only_cache_notices_external_appends_and_compaction() {
    let dir = TempDir::new("extcompact");
    let store = dir.file("t.txt");
    let pts = cheap_points(3);
    let keys: Vec<String> = pts.iter().map(|p| store_key(p.variant, p.n, &p.configs)).collect();

    // Writer A measures point 0, then keeps its flock held.
    let a = TrafficCache::with_store(&store);
    assert!(!a.store_read_only());
    let t0 = a.get(pts[0].variant, pts[0].n, &pts[0].configs);

    // Reader B opens while A holds the lock: read-only, sees point 0.
    let b = TrafficCache::with_store(&store);
    assert!(b.store_read_only(), "A holds the flock, B must degrade to read-only");
    assert_eq!(b.len(), 1);
    assert!(!b.refresh_if_compacted(), "unchanged store must be a cheap no-op");
    assert_eq!(b.store_generation(), 0);

    // A appends point 1; B must pick it up without simulating.
    a.get(pts[1].variant, pts[1].n, &pts[1].configs);
    assert!(b.refresh_if_compacted(), "append changed the stamp");
    assert_eq!(b.store_generation(), 1);
    assert_eq!(b.len(), 2);
    let before = b.stats();
    let t0_again = b.get(pts[0].variant, pts[0].n, &pts[0].configs);
    let t1 = b.get(pts[1].variant, pts[1].n, &pts[1].configs);
    let after = b.stats();
    assert_eq!(after.hits, before.hits + 2, "refreshed entries must be warm hits");
    assert_eq!(after.misses, before.misses, "a refresh must never trigger simulation");
    assert_eq!(t0_again, t0);

    // Now a *compaction* underneath B: drop A, tear the store with a
    // garbage line, and reopen a writer C — whose load quarantines the
    // line and rewrites (compacts) the file — then measure point 2 so
    // the rewritten file differs in length too, not just mtime.
    drop(a);
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new().append(true).open(&store).unwrap();
        writeln!(f, "garbage line torn by a crash").unwrap();
    }
    let c = TrafficCache::with_store(&store);
    assert!(!c.store_read_only(), "A's dropped flock must be free for C");
    assert!(c.stats().corrupt_lines >= 1, "the garbage line is quarantined on load");
    let t2 = c.get(pts[2].variant, pts[2].n, &pts[2].configs);
    assert!(!c.refresh_if_compacted(), "the writer owns the file; refresh is reader-only");

    assert!(b.refresh_if_compacted(), "compaction + append changed the stamp");
    assert_eq!(b.store_generation(), 2);
    assert_eq!(b.len(), 3, "B sees the compacted store with all three points");
    let before = b.stats();
    assert_eq!(b.get(pts[2].variant, pts[2].n, &pts[2].configs), t2);
    assert_eq!(b.get(pts[1].variant, pts[1].n, &pts[1].configs), t1);
    let after = b.stats();
    assert_eq!(after.misses, before.misses);

    // The quarantine sidecar holds the torn line, none of it leaked
    // into any reader's view.
    let q = std::fs::read_to_string(dir.file("t.txt.quarantine")).unwrap();
    assert!(q.contains("garbage line"));
    let _ = keys;
}

/// A reader's locally measured points survive a refresh: entries the
/// reader simulated itself (absent from the writer's store) are kept,
/// store entries win conflicts.
#[test]
fn refresh_keeps_locally_measured_points() {
    let dir = TempDir::new("extlocal");
    let store = dir.file("t.txt");
    let pts = cheap_points(3);

    let a = TrafficCache::with_store(&store);
    a.get(pts[0].variant, pts[0].n, &pts[0].configs);

    let b = TrafficCache::with_store(&store);
    assert!(b.store_read_only());
    // B simulates point 2 locally (read-only: nothing hits the disk).
    let local = b.get(pts[2].variant, pts[2].n, &pts[2].configs);
    // A appends point 1 behind B's back.
    a.get(pts[1].variant, pts[1].n, &pts[1].configs);

    assert!(b.refresh_if_compacted());
    assert_eq!(b.len(), 3, "store points 0/1 merged with B's local point 2");
    let before = b.stats();
    assert_eq!(b.get(pts[2].variant, pts[2].n, &pts[2].configs), local);
    assert_eq!(b.stats().hits, before.hits + 1, "the local point stayed warm");
}

/// Concurrent-readers property test: K `StoreReader` threads race one
/// writer that appends a known sequence of points and compacts between
/// appends. Every view any reader ever observes must be bit-exact a
/// *committed* store state — its entry set is exactly a prefix of the
/// writer's append sequence, with byte-identical traffic values — and
/// generations must advance monotonically per reader. A torn mix (a
/// half-applied append, a partially compacted file) would show up as a
/// non-prefix entry set or a wrong value.
#[test]
fn concurrent_readers_always_see_a_committed_generation() {
    let dir = TempDir::new("readerrace");
    let store = dir.file("t.txt");
    let pts = cheap_points(4);

    // Expected values, measured serially up front (simulation is
    // deterministic, so the racing writer commits these exact values).
    let expected: Vec<_> = {
        let serial = TrafficCache::new();
        pts.iter().map(|p| serial.get(p.variant, p.n, &p.configs)).collect()
    };
    let keys: Vec<String> = pts.iter().map(|p| store_key(p.variant, p.n, &p.configs)).collect();

    let reader = Arc::new(StoreReader::open(&store));
    let done = Arc::new(AtomicBool::new(false));
    let views_checked = Arc::new(AtomicUsize::new(0));
    const READERS: usize = 6;

    std::thread::scope(|s| {
        for _ in 0..READERS {
            let reader = Arc::clone(&reader);
            let done = Arc::clone(&done);
            let keys = keys.clone();
            let expected = expected.clone();
            let views_checked = Arc::clone(&views_checked);
            s.spawn(move || {
                let mut last_generation = 0u64;
                let mut last_len = 0usize;
                while !done.load(Ordering::Relaxed) {
                    let view = reader.refresh();
                    assert!(
                        view.generation >= last_generation,
                        "generations must never run backwards"
                    );
                    if view.generation == last_generation {
                        assert_eq!(view.len(), last_len, "same generation, same object");
                    }
                    last_generation = view.generation;
                    last_len = view.len();
                    // The entry set is exactly a prefix of the append
                    // sequence with the serially measured values.
                    let n = view.len();
                    assert!(n <= keys.len(), "no phantom entries");
                    for (i, key) in keys.iter().enumerate() {
                        match view.get(key) {
                            Some(t) => {
                                assert!(i < n, "entry set is not a prefix");
                                assert_eq!(t, expected[i], "torn or corrupted value");
                            }
                            None => assert!(i >= n, "prefix gap: {n} entries but key {i} missing"),
                        }
                    }
                    views_checked.fetch_add(1, Ordering::Relaxed);
                }
            });
        }

        // The writer: append one point at a time, compacting after
        // every append so readers race both the append path (file
        // grows) and the compaction path (atomic rename).
        let writer = TrafficCache::with_store(&store);
        assert!(!writer.store_read_only());
        for p in &pts {
            writer.get(p.variant, p.n, &p.configs);
            std::thread::sleep(std::time::Duration::from_millis(5));
            assert!(writer.compact_store());
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        done.store(true, Ordering::Relaxed);
    });

    // Vacuity guards: the readers actually observed views, and the
    // final refresh sees the complete committed sequence.
    assert!(views_checked.load(Ordering::Relaxed) > READERS);
    let final_view = reader.refresh();
    assert_eq!(final_view.len(), pts.len());
    for (i, key) in keys.iter().enumerate() {
        assert_eq!(final_view.get(key).unwrap(), expected[i]);
    }
    assert_eq!(final_view.corrupt_lines, 0, "the compacted store is clean");
}
