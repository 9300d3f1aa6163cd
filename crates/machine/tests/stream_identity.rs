//! Stream identity: `Plan::stream` is what lets the traffic cache record
//! a miss from a stream it produced under another key, so it must never
//! call two different access streams equal.
//!
//! The oracle runs every point of the extended variant space at n = 8,
//! 12 and 16, under six pass pipelines, through the plan interpreter
//! into a digesting sink — every memory event's kind, address and
//! element count — and checks that points with equal streams emit equal
//! digests over equal event counts. The collapse is pinned, so the
//! identity cannot pass by calling every point distinct. A family
//! fetched through one cache must also equal each member measured alone.

use pdesched_cachesim::CacheConfig;
use pdesched_core::plan::{self, Stream};
use pdesched_core::{Mem, Pipeline, Variant};
use pdesched_kernels::{GHOST, NCOMP};
use pdesched_machine::traffic::{BoxTraffic, Boxes, Point, TrafficCache};
use pdesched_machine::{SimPoint, SweepEngine};
use pdesched_mesh::{trace_addr, FArrayBox, IBox};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// Folds every memory event into one FNV-1a digest and counts them.
/// Plans are traced at one thread, so load-then-store is race-free.
#[derive(Default)]
struct Digest {
    hash: AtomicU64,
    events: AtomicU64,
}

impl Digest {
    fn event(&self, kind: u64, addr: usize, elems: usize) {
        let mut h = self.hash.load(Ordering::Relaxed);
        for word in [kind, addr as u64, elems as u64] {
            for byte in word.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        self.hash.store(h, Ordering::Relaxed);
        self.events.fetch_add(1, Ordering::Relaxed);
    }
}

impl Mem for Digest {
    fn r(&self, addr: usize) {
        self.event(0, addr, 1);
    }
    fn w(&self, addr: usize) {
        self.event(1, addr, 1);
    }
    fn r_run(&self, addr: usize, elems: usize) {
        self.event(2, addr, elems);
    }
    fn w_run(&self, addr: usize, elems: usize) {
        self.event(3, addr, elems);
    }
}

/// (digest, event count) of one serial update of an `n`^3 box, with
/// trace addresses laid out from a clean slate as a measurement does.
fn digest(variant: Variant, n: i32, pipeline: &Pipeline) -> (u64, u64) {
    let plan =
        pdesched_core::plan_for_optimized(variant, pdesched_mesh::IntVect::splat(n), 1, pipeline)
            .expect("a pipeline that produced a stream applies");
    trace_addr::reset();
    let cells = IBox::cube(n);
    let mut phi0 = FArrayBox::new(cells.grown(GHOST), NCOMP);
    phi0.fill_synthetic(97);
    let mut phi1 = FArrayBox::new(cells, NCOMP);
    let sink = Digest { hash: AtomicU64::new(0xcbf2_9ce4_8422_2325), events: AtomicU64::new(0) };
    plan::execute(&plan, &phi0, &mut phi1, cells, &sink);
    (sink.hash.into_inner(), sink.events.into_inner())
}

const PIPELINES: [&str; 6] =
    ["", "elide-barriers", "fuse-phases", "elide-barriers,fuse-phases", "rechunk:2", "rechunk:4"];

fn tiny() -> Vec<CacheConfig> {
    vec![CacheConfig::new(8 * 1024, 4), CacheConfig::new(64 * 1024, 8)]
}

/// Every (variant, pipeline) of the extended space at `n` the pipeline
/// applies to, with its stream.
fn points(n: i32) -> Vec<(Variant, &'static str, Stream)> {
    let cfg = tiny();
    let mut out = Vec::new();
    for variant in Variant::enumerate_extended(n) {
        for spec in PIPELINES {
            let pipeline = Pipeline::parse(spec).unwrap();
            if let Ok(stream) = Point::new(variant, n, &cfg, &pipeline, Boxes::Single).stream() {
                out.push((variant, spec, stream));
            }
        }
    }
    out
}

#[test]
fn equal_streams_emit_equal_events() {
    let mut streams_total = 0;
    let mut digests: HashSet<(u64, u64)> = HashSet::new();
    let mut collapse = Vec::new();
    for n in [8, 12, 16] {
        let points = points(n);
        let mut by_stream: HashMap<&Stream, ((u64, u64), String)> = HashMap::new();
        for (variant, spec, stream) in &points {
            let got = digest(*variant, n, &Pipeline::parse(spec).unwrap());
            digests.insert(got);
            let label = format!("{variant} [{spec}] n={n}");
            match by_stream.get(stream) {
                Some((want, first)) => {
                    assert_eq!(got, *want, "{label} shares {first}'s stream but not its events")
                }
                None => {
                    by_stream.insert(stream, (got, label));
                }
            }
        }
        // No digest belongs to two streams either: the identity is no
        // coarser than it must be on this space.
        let distinct: HashSet<(u64, u64)> = by_stream.values().map(|(d, _)| *d).collect();
        assert_eq!(distinct.len(), by_stream.len(), "n={n}: two streams emit equal events");
        streams_total += by_stream.len();
        collapse.push((n, points.len(), by_stream.len()));
    }
    assert_eq!(collapse, [(8, 104, 18), (12, 184, 25), (16, 184, 25)], "points -> streams");
    assert_eq!((streams_total, digests.len()), (68, 68));
}

fn bits(t: &BoxTraffic) -> (u64, u64, u64, u64, u64) {
    (t.dram_bytes, t.reads, t.writes, t.l1_hit.to_bits(), t.llc_hit.to_bits())
}

#[test]
fn a_family_fetched_through_one_cache_equals_each_member_alone() {
    let n = 8;
    // Every member of the three widest streams at n = 8 that include a
    // hand lowering, on three LLC shares.
    let points = points(n);
    let mut families: Vec<(&Stream, Vec<(Variant, &str)>)> = Vec::new();
    for (variant, spec, stream) in &points {
        match families.iter_mut().find(|(s, _)| *s == stream) {
            Some((_, members)) => members.push((*variant, spec)),
            None => families.push((stream, vec![(*variant, spec)])),
        }
    }
    let mut families: Vec<Vec<(Variant, &str)>> = families
        .into_iter()
        .map(|(_, members)| members)
        .filter(|members| members.iter().any(|(_, spec)| spec.is_empty()))
        .collect();
    families.sort_by_key(|members| std::cmp::Reverse(members.len()));
    let families = &families[..3];
    let hierarchies: Vec<Vec<CacheConfig>> = [256, 128, 64]
        .iter()
        .map(|&kib| {
            let mut configs = tiny();
            configs.push(CacheConfig::new(kib * 1024, 8));
            configs
        })
        .collect();

    // The hand lowerings go through a sweep, one pass per stream; the
    // pipelined members through single lookups, recorded from those
    // passes without producing again.
    let cache = TrafficCache::new();
    let sweep: Vec<SimPoint> = families
        .iter()
        .flatten()
        .filter(|(_, spec)| spec.is_empty())
        .flat_map(|&(variant, _)| {
            hierarchies.iter().map(move |configs| SimPoint { variant, n, configs: configs.clone() })
        })
        .collect();
    let report = SweepEngine::new(1).prewarm(&cache, &sweep);
    assert_eq!((report.measured, report.streams, report.passes), (sweep.len(), 3, 3));
    let mut pipelined = 0;
    for &(variant, spec) in families.iter().flatten() {
        let pipeline = Pipeline::parse(spec).unwrap();
        for configs in &hierarchies {
            let shared = cache.get_optimized(variant, n, configs, &pipeline).unwrap();
            let alone = TrafficCache::new().get_optimized(variant, n, configs, &pipeline).unwrap();
            assert_eq!(bits(&shared), bits(&alone), "{variant} [{spec}] LLC {}", configs[2].size);
            pipelined += usize::from(!spec.is_empty());
        }
    }
    let s = cache.stats();
    assert_eq!(s.passes, 3, "one producer run per stream");
    assert_eq!(s.misses, (sweep.len() + pipelined) as u64);
    assert_eq!(s.shared_points, s.misses - 3 * hierarchies.len() as u64, "{s:?}");
    assert!(s.shared_points > 2 * s.passes, "the families are wide: {s:?}");
}
