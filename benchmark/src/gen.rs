//! Everything `--seed` decides: the filler cache configs, the order of
//! the cold list and the order of every warm pass. The *amount* of work
//! in a pass never depends on the seed — passes walk fixed lists — so
//! two seeds time the same work in a different order.

use pdesched_cachesim::CacheConfig;
use pdesched_core::{Pipeline, Variant};
use pdesched_machine::model::prediction_hierarchy;
use pdesched_machine::{store_key_with_passes, sweep, MachineSpec};
use pdesched_mesh::IntVect;
use std::collections::HashSet;

/// SplitMix64: tiny, seedable, good enough to shuffle work lists.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher-Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Entries a long-lived store is assumed to hold besides the points a
/// run needs: about ten times what `repro all` leaves behind.
pub const FILLER_ENTRIES: usize = 5_000;

/// The filler point: the smallest box every schedule category accepts
/// for the baseline, so 5,000 of them simulate in well under a second.
pub const FILLER_N: i32 = 2;

/// `count` distinct three-level hierarchies, chosen by `seed` from a
/// space of 16,384 small geometries (nothing above 512 KiB, so building
/// a simulator per filler point costs microseconds).
pub fn filler_configs(seed: u64, count: usize) -> Vec<Vec<CacheConfig>> {
    const SPACE: usize = 32 * 64 * 8;
    assert!(count <= SPACE);
    let mut ids: Vec<usize> = (0..SPACE).collect();
    Rng::new(seed ^ 0xf111e5).shuffle(&mut ids);
    ids.truncate(count);
    ids.into_iter()
        .map(|id| {
            let (l1, l2, l3) = (id % 32, id / 32 % 64, id / 2048);
            let level = |sets: usize, assoc: usize| CacheConfig::new(sets * 64 * assoc, assoc);
            vec![
                level(4 << (l1 % 4), 1 + l1 / 4),
                level(32 << (l2 % 4), 1 + l2 / 4),
                level(256 << (l3 % 2), 4 * (1 + l3 / 2)),
            ]
        })
        .collect()
}

/// One `repro serve` request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    pub machine: &'static str,
    pub n: i32,
    pub threads: usize,
    pub top: usize,
    pub passes: &'static str,
}

/// The pipeline a third of the warm and half of the cold requests carry.
pub const PASSES: &str = "elide-barriers,fuse-phases";

impl Request {
    /// The request line as sent (without the newline).
    pub fn line(&self) -> String {
        let mut s = format!(
            "{{\"machine\":\"{}\",\"n\":{},\"threads\":{},\"top\":{}",
            self.machine, self.n, self.threads, self.top
        );
        if !self.passes.is_empty() {
            s.push_str(&format!(",\"passes\":\"{}\"", self.passes));
        }
        s.push('}');
        s
    }

    /// The store keys this request makes the server look up or simulate,
    /// computed the way `machine::serve` computes them.
    pub fn keys(&self) -> Vec<String> {
        let spec = machine_spec(self.machine);
        let hierarchy = prediction_hierarchy(&spec, self.threads);
        let pipe = Pipeline::parse(self.passes).expect("pinned pass spec parses");
        sweep::rank_all_at(&spec, self.n, self.threads)
            .iter()
            .take(self.top)
            .map(|r| store_key_with_passes(r.variant, self.n, &hierarchy, &pipe))
            .collect()
    }

    /// Whether the server can answer this request by simulation: the
    /// pipeline must apply (and verify) on each of its top variants.
    fn answerable(&self) -> bool {
        let spec = machine_spec(self.machine);
        let pipe = Pipeline::parse(self.passes).expect("pinned pass spec parses");
        let ranked = sweep::rank_all_at(&spec, self.n, self.threads);
        ranked.len() >= self.top
            && ranked.iter().take(self.top).all(|r| {
                pdesched_core::plan_for_optimized(r.variant, IntVect::splat(self.n), 1, &pipe)
                    .is_ok()
            })
    }
}

/// How many distinct store keys `requests` touch between them.
pub fn distinct_keys<'a>(requests: impl IntoIterator<Item = &'a Request>) -> usize {
    requests.into_iter().flat_map(Request::keys).collect::<HashSet<_>>().len()
}

/// The machine queries the workloads use with the thread counts asked
/// about on each. (`"Ivy Bridge"` alone would match the desktop first.)
const MACHINES: [(&str, &[usize]); 4] = [
    ("i5", &[1, 2, 4]),
    ("Magny-Cours", &[1, 6, 12, 24]),
    ("Intel Ivy Bridge", &[1, 5, 10, 20, 40]),
    ("Sandy Bridge", &[1, 4, 8, 16]),
];

/// Resolve a machine query the way the server does: first machine whose
/// name contains it, case-insensitively, desktop first.
pub fn machine_spec(query: &str) -> MachineSpec {
    let q = query.to_lowercase();
    let mut machines = vec![MachineSpec::i5_desktop()];
    machines.extend(MachineSpec::evaluation_nodes());
    machines
        .into_iter()
        .find(|m| m.name.to_lowercase().contains(&q))
        .unwrap_or_else(|| panic!("no machine matches {query:?}"))
}

/// The distinct requests of `serve_warm`: every machine at n = 8 and 16
/// and each of its thread counts, `top = 3`, once plain and once with
/// the pass pipeline.
pub fn warm_requests() -> Vec<Request> {
    let mut out = Vec::new();
    for (machine, threads) in MACHINES {
        for n in [8, 16] {
            for &t in threads {
                for passes in ["", PASSES] {
                    out.push(Request { machine, n, threads: t, top: 3, passes });
                }
            }
        }
    }
    out
}

/// One warm pass: every plain request twice and every pipelined request
/// once (a third carry the pipeline), in an order `seed` and the pass
/// index decide. Indices into [`warm_requests`].
pub fn warm_pass_order(seed: u64, pass: usize) -> Vec<usize> {
    let reqs = warm_requests();
    let mut order: Vec<usize> = (0..reqs.len())
        .flat_map(|i| std::iter::repeat_n(i, if reqs[i].passes.is_empty() { 2 } else { 1 }))
        .collect();
    Rng::new(seed ^ (pass as u64).wrapping_mul(0xa24b_aed4_963e_e407)).shuffle(&mut order);
    order
}

/// The cold work: `(timed list, warm-up list)`. Requests are picked
/// greedily, in a fixed order, so that no two of them — across both
/// lists — share a store key: every variant of every reply is a real
/// simulation (`"source":"sim"`), whatever order the clients walk the
/// list in, and a walked list leaves exactly one store entry per key.
/// Plain requests are taken first, then pipelined ones (a pipeline
/// suffixes the key, so the same point can be asked again under each);
/// more than half end up carrying a pipeline. `top` alternates 2 and 3.
pub fn cold_lists() -> (Vec<Request>, Vec<Request>) {
    const TIMED: [(i32, usize); 3] = [(8, 40), (16, 18), (32, 2)];
    const WARMUP: [(i32, usize); 2] = [(8, 8), (16, 12)];
    let mut seen: HashSet<String> = HashSet::new();
    let mut pick = |n: i32, want: usize| {
        let mut got = Vec::new();
        let mut serial = 0usize;
        // Every thread count is a candidate: the LLC share of a thread
        // quantizes to a handful of sizes per machine, and the greedy
        // filter keeps whichever counts land on a fresh hierarchy (or
        // rank different variants first).
        'outer: for passes in ["", PASSES, "elide-barriers", "fuse-phases"] {
            for (machine, _) in MACHINES {
                for t in 1..=machine_spec(machine).cores() {
                    if got.len() == want {
                        break 'outer;
                    }
                    serial += 1;
                    let top = if n >= 32 { 2 } else { 2 + serial % 2 };
                    let req = Request { machine, n, threads: t, top, passes };
                    let keys = req.keys();
                    if keys.iter().any(|k| seen.contains(k)) || !req.answerable() {
                        continue;
                    }
                    seen.extend(keys);
                    got.push(req);
                }
            }
        }
        assert_eq!(got.len(), want, "cold candidates exhausted at n={n}");
        got
    };
    let timed: Vec<Request> = TIMED.iter().flat_map(|&(n, want)| pick(n, want)).collect();
    let warmup: Vec<Request> = WARMUP.iter().flat_map(|&(n, want)| pick(n, want)).collect();
    (timed, warmup)
}

/// The order clients pull the cold list in: biggest boxes first (a
/// shared queue drained longest-job-first ends with every client busy
/// until the last ~60 ms request, so the pass wall time does not depend
/// on which client drew a 700 ms one last), `seed` shuffling within a
/// box size. Indices into the timed list.
pub fn cold_order(timed: &[Request], seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..timed.len()).collect();
    Rng::new(seed ^ 0xc01d).shuffle(&mut order);
    order.sort_by_key(|&i| std::cmp::Reverse(timed[i].n)); // stable: keeps the shuffle within a size
    order
}

/// The four named schedules the multi-variant layer metrics average
/// over (the shortlist of the committed `BENCH_*.json` files).
pub fn named_variants() -> Vec<(&'static str, Variant)> {
    use pdesched_core::CompLoop;
    let mut fuse_cli = Variant::shift_fuse();
    fuse_cli.comp = CompLoop::Inside;
    vec![
        ("baseline", Variant::baseline()),
        ("shift_fuse", Variant::shift_fuse()),
        ("fuse_cli", fuse_cli),
        ("bwf_cli4", Variant::blocked_wavefront(CompLoop::Inside, 4)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_request_stream() {
        assert_eq!(warm_pass_order(7, 3), warm_pass_order(7, 3));
        assert_ne!(warm_pass_order(7, 3), warm_pass_order(8, 3));
        assert_ne!(warm_pass_order(7, 3), warm_pass_order(7, 4));
        let (timed, _) = cold_lists();
        assert_eq!(cold_order(&timed, 11), cold_order(&timed, 11));
        assert_ne!(cold_order(&timed, 11), cold_order(&timed, 12));
        assert_eq!(filler_configs(5, 100), filler_configs(5, 100));
        assert_ne!(filler_configs(5, 100), filler_configs(6, 100));
    }

    #[test]
    fn seed_changes_order_never_the_work() {
        let mut a = warm_pass_order(1, 0);
        let mut b = warm_pass_order(2, 9);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        let reqs = warm_requests();
        let piped = a.iter().filter(|&&i| !reqs[i].passes.is_empty()).count();
        assert_eq!(piped * 3, a.len(), "a third of a warm pass carries the pipeline");
        let (timed, _) = cold_lists();
        let order = cold_order(&timed, 3);
        assert!(order.windows(2).all(|w| timed[w[0]].n >= timed[w[1]].n));
    }

    #[test]
    fn cold_lists_are_key_disjoint() {
        let (timed, warmup) = cold_lists();
        assert!(timed.len() >= 48);
        assert_eq!(warmup.len(), 20);
        let mut seen = HashSet::new();
        for req in timed.iter().chain(&warmup) {
            for key in req.keys() {
                assert!(seen.insert(key.clone()), "{key} asked twice ({req:?})");
            }
        }
        let piped = timed.iter().filter(|r| !r.passes.is_empty()).count();
        assert!(piped * 3 >= timed.len(), "only {piped} of {} carry a pipeline", timed.len());
    }

    #[test]
    fn filler_configs_are_distinct_and_valid() {
        let cfgs = filler_configs(42, FILLER_ENTRIES);
        let distinct: HashSet<String> = cfgs.iter().map(|c| format!("{c:?}")).collect();
        assert_eq!(distinct.len(), FILLER_ENTRIES);
        for c in cfgs.iter().flatten() {
            c.validate();
        }
    }
}
