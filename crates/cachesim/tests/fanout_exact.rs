//! Exactness of the fan-out sink: one access stream accounted against
//! `K` last levels at once ends, for every tail, in exactly the
//! statistics and dirty sets of a separate per-element reference
//! simulation of that tail's hierarchy — serially and set-sharded.

use pdesched_cachesim::{CacheConfig, Hierarchy, ShardedHierarchy};
use pdesched_testkit::{check, Rng};

/// `(front, lasts)` of one-, two- and three-level shapes. Every set
/// count is a multiple of 4 so each shape shards at K ∈ {2, 4}. The
/// last two shapes have the modeled machines' associativities, which
/// the simulator scans and shifts at fixed width: 2- and 8-way L1s,
/// 8-way L2s, 12-, 16- and 20-way LLCs — the last one the Ivy/Sandy
/// Bridge shape, 32 KiB 8-way L1 over 256 KiB 8-way L2 and 20-way LLC
/// shares.
fn shapes() -> Vec<(Vec<CacheConfig>, Vec<CacheConfig>)> {
    let c = CacheConfig::new;
    vec![
        (vec![], vec![c(512, 2)]),
        (vec![c(1024, 2)], vec![c(4096, 4), c(2048, 4), c(8192, 8)]),
        (vec![c(512, 2), c(2048, 4)], vec![c(8192, 4), c(4096, 8), c(16384, 4), c(2048, 2)]),
        (vec![c(512, 2), c(2048, 8)], vec![c(6144, 12), c(10240, 20), c(8192, 16), c(5120, 20)]),
        (vec![c(32 << 10, 8), c(256 << 10, 8)], vec![c(2560 << 10, 20), c(1280 << 10, 20)]),
    ]
}

/// One op of a mixed stream, applied identically to every simulator.
#[derive(Clone, Copy)]
enum Op {
    Read(usize),
    Write(usize),
    ReadRun(usize, usize),
    WriteRun(usize, usize),
    LineRep(u64, usize, bool),
}

fn random_op(rng: &mut Rng, base: usize, write_pct: u64) -> Op {
    let addr = base + rng.range_usize(0, 1 << 13) * 8;
    let write = rng.next_u64() % 100 < write_pct;
    match (rng.range_usize(0, 3), write) {
        (0, false) => Op::Read(addr),
        (0, true) => Op::Write(addr),
        (1, false) => Op::ReadRun(addr, rng.range_usize(0, 40)),
        (1, true) => Op::WriteRun(addr, rng.range_usize(0, 40)),
        _ => Op::LineRep((addr / 64) as u64, rng.range_usize(1, 9), write),
    }
}

fn apply(h: &mut Hierarchy, op: Op) {
    match op {
        Op::Read(a) => h.read(a),
        Op::Write(a) => h.write(a),
        Op::ReadRun(a, n) => h.read_run(a, n),
        Op::WriteRun(a, n) => h.write_run(a, n),
        Op::LineRep(l, n, w) => h.line_rep(l, n, w),
    }
}

fn apply_sharded(h: &mut ShardedHierarchy, op: Op) {
    match op {
        Op::Read(a) => h.read(a),
        Op::Write(a) => h.write(a),
        Op::ReadRun(a, n) => h.read_run(a, n),
        Op::WriteRun(a, n) => h.write_run(a, n),
        Op::LineRep(l, n, w) => h.line_rep(l, n, w),
    }
}

#[test]
fn every_tail_equals_its_own_reference() {
    check(0xFA0, 48, |rng| {
        let (front, lasts) = rng.choose(&shapes()).clone();
        // The 2^40 base exercises the fast path's window rebase.
        let base = *rng.choose(&[0usize, 1 << 40]);
        // Read-mostly, balanced and dirty-heavy (writeback-bound) mixes.
        let write_pct = *rng.choose(&[10u64, 50, 90]);
        let mut fan = Hierarchy::fan_out(&front, &lasts);
        let mut sharded: Vec<ShardedHierarchy> =
            [2, 4].iter().map(|&k| ShardedHierarchy::fan_out(&front, &lasts, k)).collect();
        let mut refs: Vec<Hierarchy> = lasts
            .iter()
            .map(|&last| Hierarchy::reference(&[front.clone(), vec![last]].concat()))
            .collect();
        assert_eq!(fan.tails(), lasts.len());
        let compare = |fan: &Hierarchy, sharded: &[ShardedHierarchy], refs: &[Hierarchy], at| {
            for (i, r) in refs.iter().enumerate() {
                let ctx = format!("tail {i} of {} at {at}", refs.len());
                assert_eq!(fan.tail_stats(i), r.stats(), "{ctx}");
                assert_eq!(fan.tail_dirty_lines(i), r.dirty_lines_by_level(), "{ctx}");
                for s in sharded {
                    let ctx = format!("{ctx}, {} shards", s.nshards());
                    assert_eq!(s.tail_stats(i), r.stats(), "{ctx}");
                    assert_eq!(s.tail_dirty_lines(i), r.dirty_lines_by_level(), "{ctx}");
                }
            }
        };
        let steps = rng.range_usize(200, 700);
        // One flush mid-stream: the steps after it run on sets that are
        // partly filled again, invalid ways behind the valid ones (40
        // steps on is well inside that regime, so compare there too).
        let flush_at = rng.range_usize(0, steps);
        for step in 0..steps {
            let op = random_op(rng, base, write_pct);
            apply(&mut fan, op);
            sharded.iter_mut().for_each(|s| apply_sharded(s, op));
            refs.iter_mut().for_each(|r| apply(r, op));
            if step == flush_at {
                fan.flush();
                sharded.iter_mut().for_each(|s| s.flush());
                refs.iter_mut().for_each(|r| r.flush());
            }
            if step % 151 == 0 || step == flush_at || step == flush_at + 40 {
                compare(&fan, &sharded, &refs, step);
            }
        }
        compare(&fan, &sharded, &refs, steps);
        fan.flush();
        sharded.iter_mut().for_each(|s| s.flush());
        refs.iter_mut().for_each(|r| r.flush());
        compare(&fan, &sharded, &refs, usize::MAX);
    });
}
