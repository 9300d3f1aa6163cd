//! Set-sharded hierarchy state: the decomposition that makes a single
//! traffic measurement parallelizable without changing one bit of its
//! output.
//!
//! # Why sharding by line residue is exact
//!
//! Every level's set index is `line mod S_i` with `S_i` a validated
//! power of two and the line size shared across levels. Pick a shard
//! count `K` (power of two) dividing the *smallest* `S_i`: then
//! `line mod K` determines `line mod S_i` up to the quotient at every
//! level, so all state a line can ever touch — its set's recency order
//! at every level, its victim candidates, its writeback targets — lives
//! entirely inside the residue class `line mod K`. Concretely, writing
//! `line = w + K·m`, the lines of residue `w` map to set
//! `w + K·(m mod S_i/K)` of the full hierarchy, and the bijection
//! `line ↦ m` maps them onto *all* sets of a hierarchy scaled to
//! `S_i/K` sets per level. A shard is therefore just a smaller
//! [`Hierarchy`] fed `line >> log2(K)`.
//!
//! Two facts carry the fast path's machinery across the split:
//!
//! * **Victim choice is per-set and order-relative.** At every level a
//!   set simply *is* its ways in touch order, most recent first — only
//!   the *relative* order of touches to that set matters, and a shard
//!   replays its residue class's touches in the same relative order the
//!   serial engine would.
//! * **Counters are per-set sums.** Hits, misses, DRAM line fetches and
//!   writebacks all increment inside one set's transaction, so the
//!   whole-hierarchy numbers are sums over shards — integer sums, which
//!   merge order-independently; ratios are computed only after the
//!   merge, so their f64 bit patterns are identical by construction.
//!
//! The window rebase is also compatible: a shard sees `line >> log2(K)`
//! and subtracts its own 2^28-aligned base, which is a multiple of its
//! every set count, so set residues are preserved exactly as in the
//! serial engine (and the compressed per-shard line range never windows
//! out earlier than the serial stream would).
//!
//! # Shards × tails
//!
//! A fan-out hierarchy ([`Hierarchy::fan_out`]: one front, `T` last
//! levels) shards the same way: `K` must divide the set count of every
//! level *including every tail* ([`shard_count`] over `front ++ lasts`),
//! each shard is a fan-out of the scaled front over the `T` scaled
//! tails, and tail `i`'s statistics are the sum of every shard's tail
//! `i`. The two decompositions commute because they cut along different
//! axes — shards by line residue, tails by which last level answers.

use crate::config::CacheConfig;
use crate::sim::{Hierarchy, Stats};

/// The largest exact shard count for `configs`: the smallest set count
/// over the levels. Any power of two up to this divides every `S_i`.
pub fn max_shards(configs: &[CacheConfig]) -> usize {
    configs.iter().map(|c| c.sets()).min().unwrap_or(1)
}

/// The shard count to use for a requested thread count: the largest
/// power of two that is ≤ `threads` and still divides every level's set
/// count. Always ≥ 1.
pub fn shard_count(configs: &[CacheConfig], threads: usize) -> usize {
    let cap = max_shards(configs).min(threads.max(1));
    // Largest power of two ≤ cap.
    1 << (usize::BITS - 1 - cap.leading_zeros())
}

/// The per-shard geometry: every level keeps its line size and
/// associativity and drops to `sets / nshards` sets. Exact because
/// `nshards` divides every set count (asserted).
pub fn shard_configs(configs: &[CacheConfig], nshards: usize) -> Vec<CacheConfig> {
    assert!(nshards.is_power_of_two(), "shard count must be a power of two");
    configs
        .iter()
        .map(|c| {
            assert!(
                c.sets() % nshards == 0,
                "shard count {nshards} must divide every level's set count (got {})",
                c.sets()
            );
            CacheConfig { size: c.size / nshards, line: c.line, assoc: c.assoc }
        })
        .collect()
}

/// Merge per-shard statistics into whole-hierarchy statistics. Pure
/// integer sums, so the result is independent of merge order.
pub fn merge_stats<'a>(parts: impl IntoIterator<Item = &'a Stats>) -> Stats {
    let mut out = Stats::default();
    for p in parts {
        out.reads += p.reads;
        out.writes += p.writes;
        out.dram_lines_read += p.dram_lines_read;
        out.dram_lines_written += p.dram_lines_written;
        if out.levels.is_empty() {
            out.levels = p.levels.clone();
        } else {
            assert_eq!(out.levels.len(), p.levels.len(), "shard level counts differ");
            for (o, l) in out.levels.iter_mut().zip(&p.levels) {
                o.hits += l.hits;
                o.misses += l.misses;
            }
        }
    }
    out
}

/// A [`Hierarchy`] split into `K` independent set-shards, presenting the
/// same access API and producing bit-identical statistics.
///
/// Single-threaded this is the exactness harness (every access routed
/// through the same math the parallel replay workers use); the parallel
/// measurement path in `pdesched-machine` distributes the same shards
/// across worker threads instead.
pub struct ShardedHierarchy {
    shards: Vec<Hierarchy>,
    /// Levels per member hierarchy (front + one last).
    levels: usize,
    /// log2(shard count): shard = `line & (K-1)`, local = `line >> kbits`.
    kbits: u32,
    line: usize,
    line_shift: u32,
}

impl ShardedHierarchy {
    /// Split the fast-mode hierarchy `configs` into `nshards` set-shards
    /// (`nshards` must be a power of two dividing every level's set
    /// count — see [`shard_count`]).
    pub fn new(configs: &[CacheConfig], nshards: usize) -> Self {
        let (front, last) = configs.split_at(configs.len().saturating_sub(1));
        ShardedHierarchy::fan_out(front, last, nshards)
    }

    /// Split the fan-out hierarchy [`Hierarchy::fan_out`]`(front, lasts)`
    /// into `nshards` set-shards; `nshards` must divide the set count of
    /// every front level and every last level.
    pub fn fan_out(front: &[CacheConfig], lasts: &[CacheConfig], nshards: usize) -> Self {
        let (front, lasts) = (shard_configs(front, nshards), shard_configs(lasts, nshards));
        let line = lasts[0].line;
        ShardedHierarchy {
            shards: (0..nshards).map(|_| Hierarchy::fan_out(&front, &lasts)).collect(),
            levels: front.len() + 1,
            kbits: nshards.trailing_zeros(),
            line,
            line_shift: line.trailing_zeros(),
        }
    }

    /// Number of shards.
    pub fn nshards(&self) -> usize {
        self.shards.len()
    }

    /// Line size in bytes.
    pub fn line(&self) -> usize {
        self.line
    }

    /// The shard owning absolute line index `line`.
    #[inline]
    pub fn shard_of(&self, line: u64) -> usize {
        (line as usize) & (self.shards.len() - 1)
    }

    /// The line index `line` takes inside its shard.
    #[inline]
    pub fn local_line(&self, line: u64) -> u64 {
        line >> self.kbits
    }

    /// `reps` touches of absolute line `line`; the sharded counterpart
    /// of [`Hierarchy::line_rep`].
    #[inline]
    pub fn line_rep(&mut self, line: u64, reps: usize, write: bool) {
        let w = (line as usize) & (self.shards.len() - 1);
        self.shards[w].line_rep(line >> self.kbits, reps, write);
    }

    /// An 8-byte read at `addr`.
    #[inline]
    pub fn read(&mut self, addr: usize) {
        self.line_rep((addr >> self.line_shift) as u64, 1, false);
    }

    /// An 8-byte write at `addr`.
    #[inline]
    pub fn write(&mut self, addr: usize) {
        self.line_rep((addr >> self.line_shift) as u64, 1, true);
    }

    /// `elems` consecutive 8-byte reads starting at `addr`.
    #[inline]
    pub fn read_run(&mut self, addr: usize, elems: usize) {
        self.run(addr, elems, false);
    }

    /// `elems` consecutive 8-byte writes starting at `addr`.
    #[inline]
    pub fn write_run(&mut self, addr: usize, elems: usize) {
        self.run(addr, elems, true);
    }

    /// `reps` 8-byte reads of the same address.
    #[inline]
    pub fn read_rep(&mut self, addr: usize, reps: usize) {
        if reps > 0 {
            self.line_rep((addr >> self.line_shift) as u64, reps, false);
        }
    }

    /// `reps` 8-byte writes of the same address.
    #[inline]
    pub fn write_rep(&mut self, addr: usize, reps: usize) {
        if reps > 0 {
            self.line_rep((addr >> self.line_shift) as u64, reps, true);
        }
    }

    /// The same per-line decomposition as `Hierarchy::run`: each spanned
    /// line becomes one `line_rep` with the line's element count, which
    /// is exactly the head-probe + closed-form-tail transaction the
    /// serial run performs per line.
    fn run(&mut self, addr: usize, elems: usize, write: bool) {
        let mut a = addr;
        let mut rem = elems;
        while rem > 0 {
            let line_end = (a & !(self.line - 1)) + self.line;
            let k = rem.min((line_end - a).div_ceil(8));
            self.line_rep((a >> self.line_shift) as u64, k, write);
            a += k * 8;
            rem -= k;
        }
    }

    /// Flush every shard (writebacks of dirty lines, bottom-up).
    pub fn flush(&mut self) {
        for s in &mut self.shards {
            s.flush();
        }
    }

    /// Merged whole-hierarchy statistics of the first (or only) last
    /// level; see [`ShardedHierarchy::tail_stats`].
    pub fn stats(&self) -> Stats {
        self.tail_stats(0)
    }

    /// Merged statistics of the hierarchy ending in last level `i`,
    /// bit-identical to the serial engine's: integer counters sum
    /// order-independently and ratios are derived only from the sums.
    pub fn tail_stats(&self, i: usize) -> Stats {
        let parts: Vec<Stats> = self.shards.iter().map(|s| s.tail_stats(i)).collect();
        merge_stats(parts.iter())
    }

    /// Total DRAM traffic in bytes so far.
    pub fn dram_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.dram_bytes()).sum()
    }

    /// The set of dirty absolute line indexes per level of the first (or
    /// only) last level; see [`ShardedHierarchy::tail_dirty_lines`].
    pub fn dirty_lines_by_level(&self) -> Vec<Vec<u64>> {
        self.tail_dirty_lines(0)
    }

    /// The set of dirty absolute line indexes per level of the hierarchy
    /// ending in last level `i` — sorted ascending, as
    /// [`Hierarchy::tail_dirty_lines`] returns them — reconstructed from
    /// each shard's local lines via `global = local·K + shard`.
    pub fn tail_dirty_lines(&self, i: usize) -> Vec<Vec<u64>> {
        let mut out = vec![Vec::new(); self.levels];
        for (w, s) in self.shards.iter().enumerate() {
            for (lvl, lines) in s.tail_dirty_lines(i).into_iter().enumerate() {
                out[lvl].extend(lines.into_iter().map(|l| (l << self.kbits) | w as u64));
            }
        }
        for lvl in &mut out {
            lvl.sort_unstable();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Same constants as the sim property tests: deterministic, cheap.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            self.0 >> 11
        }
    }

    fn small() -> Vec<CacheConfig> {
        vec![CacheConfig::new(8 * 1024, 4), CacheConfig::new(64 * 1024, 8)]
    }

    fn tiny() -> Vec<CacheConfig> {
        // 4-set L1 so max_shards is reachable in tests.
        vec![CacheConfig::new(512, 2), CacheConfig::new(4 * 1024, 4)]
    }

    fn assert_same(sharded: &ShardedHierarchy, serial: &Hierarchy, ctx: &str) {
        let a = sharded.stats();
        let b = serial.stats();
        assert_eq!(a.reads, b.reads, "{ctx}: reads");
        assert_eq!(a.writes, b.writes, "{ctx}: writes");
        assert_eq!(a.levels, b.levels, "{ctx}: per-level hits/misses");
        assert_eq!(a.dram_lines_read, b.dram_lines_read, "{ctx}: dram reads");
        assert_eq!(a.dram_lines_written, b.dram_lines_written, "{ctx}: dram writebacks");
        let serial_dirty = serial.dirty_lines_by_level();
        assert_eq!(sharded.dirty_lines_by_level(), serial_dirty, "{ctx}: dirty lines");
    }

    /// Drive identical random streams (single accesses, runs, reps,
    /// heavy write mixes that force writeback sets) through the serial
    /// fast path and every shard split, comparing state mid-stream and
    /// after the final flush.
    #[test]
    fn sharded_equals_serial_on_random_streams() {
        for (configs, base) in [(small(), 0u64), (tiny(), 0), (small(), 1 << 40)] {
            let kmax = max_shards(&configs);
            for k in [1usize, 2, 8] {
                let k = k.min(kmax);
                for seed in 0..6u64 {
                    let mut rng = Lcg(0x9E37 + seed * 7919);
                    let mut sh = ShardedHierarchy::new(&configs, k);
                    let mut serial = Hierarchy::new(&configs);
                    for step in 0..400 {
                        let addr = (base + rng.next() % (1 << 13)) as usize * 8;
                        match rng.next() % 6 {
                            0 => {
                                sh.read(addr);
                                serial.read(addr);
                            }
                            1 => {
                                sh.write(addr);
                                serial.write(addr);
                            }
                            2 => {
                                let n = (rng.next() % 40 + 1) as usize;
                                sh.read_run(addr, n);
                                serial.read_run(addr, n);
                            }
                            3 => {
                                let n = (rng.next() % 40 + 1) as usize;
                                sh.write_run(addr, n);
                                serial.write_run(addr, n);
                            }
                            4 => {
                                let n = (rng.next() % 9) as usize;
                                sh.read_rep(addr, n);
                                serial.read_rep(addr, n);
                            }
                            _ => {
                                let n = (rng.next() % 9) as usize;
                                sh.write_rep(addr, n);
                                serial.write_rep(addr, n);
                            }
                        }
                        if step % 97 == 0 {
                            assert_same(&sh, &serial, &format!("k={k} seed={seed} step={step}"));
                        }
                    }
                    sh.flush();
                    serial.flush();
                    assert_same(&sh, &serial, &format!("k={k} seed={seed} flushed"));
                    assert_eq!(sh.dram_bytes(), serial.dram_bytes());
                }
            }
        }
    }

    /// Merged hit ratios must be the *same f64 bits* as the serial
    /// engine's, because they are computed from identical integer sums.
    #[test]
    fn hit_ratio_bits_identical() {
        let configs = small();
        let mut sh = ShardedHierarchy::new(&configs, 8);
        let mut serial = Hierarchy::new(&configs);
        let mut rng = Lcg(42);
        for _ in 0..3000 {
            let addr = (rng.next() % (1 << 12)) as usize * 8;
            sh.write_run(addr, 11);
            serial.write_run(addr, 11);
        }
        sh.flush();
        serial.flush();
        let (a, b) = (sh.stats(), serial.stats());
        for (x, y) in a.levels.iter().zip(&b.levels) {
            assert_eq!(x.hit_ratio().to_bits(), y.hit_ratio().to_bits());
        }
    }

    #[test]
    fn shard_count_respects_geometry() {
        assert_eq!(max_shards(&small()), 32); // 8 KiB / (64 B × 4 ways)
        assert_eq!(max_shards(&tiny()), 4);
        assert_eq!(shard_count(&small(), 1), 1);
        assert_eq!(shard_count(&small(), 2), 2);
        assert_eq!(shard_count(&small(), 8), 8);
        assert_eq!(shard_count(&small(), 7), 4); // round down to a power of two
        assert_eq!(shard_count(&small(), 1000), 32); // capped by the L1 set count
        assert_eq!(shard_count(&tiny(), 8), 4);
        assert_eq!(shard_count(&small(), 0), 1);
    }

    #[test]
    fn shard_configs_divide_exactly() {
        let sub = shard_configs(&small(), 8);
        assert_eq!(sub[0].sets(), 4);
        assert_eq!(sub[1].sets(), 16);
        for c in &sub {
            c.validate();
        }
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn oversized_shard_count_rejected() {
        shard_configs(&tiny(), 8);
    }

    #[test]
    fn merge_is_order_independent() {
        let configs = small();
        let mut sh = ShardedHierarchy::new(&configs, 4);
        let mut rng = Lcg(7);
        for _ in 0..500 {
            sh.write((rng.next() % 4096) as usize * 8);
        }
        let parts: Vec<Stats> = sh.shards.iter().map(|s| s.stats()).collect();
        let fwd = merge_stats(parts.iter());
        let rev = merge_stats(parts.iter().rev());
        assert_eq!((fwd.reads, fwd.writes, fwd.levels), (rev.reads, rev.writes, rev.levels));
        assert_eq!(fwd.dram_lines_read, rev.dram_lines_read);
    }
}
