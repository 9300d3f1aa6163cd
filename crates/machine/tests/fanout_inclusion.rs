//! An engine-free check on fan-out members: behind one shared front,
//! a larger last level never moves more DRAM bytes.
//!
//! For LRU levels of equal line size and associativity whose set counts
//! differ by powers of two, the larger level holds a superset of the
//! smaller one's lines at every instant (the inclusion property of
//! Mattson et al., 1970), so every miss of the larger is a miss of the
//! smaller and every dirty line it writes back the smaller wrote back
//! too, no later than the final flush. The check compares the members of
//! one point with each other, not with another engine, so it also
//! catches a sink bug every engine shares. It runs over the committed
//! `figs_fast` store (read only) and over a live n = 8 fan-out on each
//! paper machine's thread-count LLC shares.

use pdesched_cachesim::CacheConfig;
use pdesched_core::{Pipeline, Variant};
use pdesched_machine::model::prediction_hierarchy;
use pdesched_machine::traffic::{measure, Boxes, Engine, Point, StoreReader, STORE_VERSION};
use pdesched_machine::MachineSpec;
use pdesched_testkit::TempDir;
use std::collections::BTreeMap;
use std::path::Path;

/// Members `(last level, DRAM bytes)` sharing one front. Asserts, where
/// the inclusion property applies, that DRAM bytes never rise as the
/// last level grows; returns whether it applied.
fn check_group(label: &str, members: &mut [(CacheConfig, u64)]) -> bool {
    let (line, assoc, sets) = (members[0].0.line, members[0].0.assoc, members[0].0.sets());
    let comparable = members.iter().all(|(c, _)| {
        let (lo, hi) = (c.sets().min(sets), c.sets().max(sets));
        c.line == line && c.assoc == assoc && hi % lo == 0 && (hi / lo).is_power_of_two()
    });
    if !comparable {
        return false;
    }
    members.sort_by_key(|(c, _)| c.size);
    for pair in members.windows(2) {
        let ((small, small_bytes), (large, large_bytes)) = (pair[0], pair[1]);
        assert!(
            large_bytes <= small_bytes,
            "{label}: LLC {} B moves {large_bytes} DRAM bytes, more than LLC {} B's {small_bytes}",
            large.size,
            small.size
        );
    }
    true
}

/// A store key's last level (`size-assoc-line`) and the key without it.
fn split_last_level(key: &str) -> Option<(String, CacheConfig)> {
    let parts: Vec<&str> = key.split('/').collect();
    let at = parts.iter().rposition(|p| p.split('-').count() == 3)?;
    let mut geometry = parts[at].split('-').map(|v| v.parse::<usize>().ok());
    let (size, assoc, line) = (geometry.next()??, geometry.next()??, geometry.next()??);
    let rest: Vec<&str> =
        parts.iter().enumerate().filter(|&(i, _)| i != at).map(|(_, p)| *p).collect();
    Some((rest.join("/"), CacheConfig { size, line, assoc }))
}

#[test]
fn committed_store_never_gains_dram_bytes_with_a_larger_llc() {
    // The golden holds the entry lines alone; a reader wants the header
    // first, so it reads a copy.
    let golden =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../benchmark/golden/figs_fast.store");
    let entries = std::fs::read_to_string(&golden).unwrap();
    let dir = TempDir::new("fanout-inclusion");
    let path = dir.file("figs_fast.store");
    std::fs::write(&path, format!("# pdesched-traffic-store v{STORE_VERSION}\n{entries}")).unwrap();
    let view = StoreReader::open(&path).view();
    assert_eq!((view.len(), view.corrupt_lines), (entries.lines().count(), 0));
    let mut groups: BTreeMap<String, Vec<(CacheConfig, u64)>> = BTreeMap::new();
    for (key, (t, _)) in view.entries() {
        let (rest, last) = split_last_level(key).unwrap_or_else(|| panic!("unparsed key {key}"));
        groups.entry(rest).or_default().push((last, t.dram_bytes));
    }
    let mut checked = 0;
    for (rest, members) in &mut groups {
        checked += usize::from(members.len() > 1 && check_group(rest, members));
    }
    assert_eq!(checked, 4, "fig2's four series each share one front");
}

#[test]
fn live_fan_out_never_gains_dram_bytes_with_a_larger_llc() {
    let n = 8;
    let variants: Vec<Variant> =
        Variant::enumerate(n).into_iter().filter(|v| v.validate_for_box(n).is_ok()).collect();
    let mut checked = 0;
    for spec in MachineSpec::evaluation_nodes() {
        let hierarchies: Vec<Vec<CacheConfig>> =
            (1..=spec.cores()).map(|t| prediction_hierarchy(&spec, t)).collect();
        let (front, _) = hierarchies[0].split_at(hierarchies[0].len() - 1);
        assert!(hierarchies.iter().all(|h| &h[..h.len() - 1] == front), "{}", spec.name);
        let mut lasts: Vec<CacheConfig> = hierarchies.iter().map(|h| h[h.len() - 1]).collect();
        lasts.sort_by_key(|c| c.size);
        lasts.dedup();
        assert!(lasts.len() > 1, "{}: one LLC share for every thread count", spec.name);
        for &variant in &variants {
            let pipeline = Pipeline::empty();
            let point = Point {
                variant,
                n,
                front,
                lasts: &lasts,
                pipeline: &pipeline,
                boxes: Boxes::Single,
            };
            let (members, _) = measure(&point, Engine::Simulate { threads: 1 }).unwrap();
            let mut members: Vec<(CacheConfig, u64)> =
                lasts.iter().copied().zip(members.iter().map(|t| t.dram_bytes)).collect();
            let label = format!("{} {variant} n={n}", spec.name);
            assert!(check_group(&label, &mut members), "{label}: shares are not comparable");
            checked += 1;
        }
    }
    assert_eq!(checked, 3 * variants.len());
}
