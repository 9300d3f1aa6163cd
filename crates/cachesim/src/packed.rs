//! The fast path's packed cache-level representation.
//!
//! Every level of the fast path — L1, the mid levels and every last
//! level — is an [`OrderedLevel`]: one `u32` per way —
//! `line(28) | dirty(1) | valid(1)` — and each set is *kept in recency
//! order*, most recently used first. Every event is applied the moment
//! it happens, so position can carry what a stamp would: a hit moves its
//! way to the front, a fill enters at the front and drops the last way,
//! a merged dirty victim stays where it is. Under exactly those three
//! rules position order equals the reference's stamp order (hit →
//! newest stamp, fill → newest stamp, merge → stamp untouched), and
//! never-filled ways — all-zero, always at the end, because ways only
//! ever enter at the front — are what a fill drops first: the
//! reference's "first invalid, else true-LRU" victim. There is no
//! clock, no stamp and no victim scan to keep.
//!
//! The packing bounds what the fast path can simulate: line indices
//! below 2^28 (16 GiB of traced address space at 64-byte lines),
//! asserted on every access by the hierarchy's window rebase
//! ([`LINE_LIMIT`]). Statistics equivalence with the unpacked reference
//! is pinned by the differential test below and the property and golden
//! tests layered above.

use crate::config::CacheConfig;

/// Bits of the packed line index.
pub(crate) const LINE_BITS: u32 = 28;
/// First line index that does NOT fit the packed layout.
pub(crate) const LINE_LIMIT: u64 = 1 << LINE_BITS;

/// Set mask of a level of geometry `cfg`, validated for the packed
/// layout.
fn set_mask(cfg: CacheConfig) -> u64 {
    cfg.validate();
    let sets = cfg.sets();
    // The hierarchy's window rebase subtracts a multiple of LINE_LIMIT,
    // which preserves set indices only while the set count divides it.
    assert!((sets as u64) <= LINE_LIMIT, "level has more sets than the packed line range");
    (sets - 1) as u64
}

/// Dirty bit of an [`OrderedLevel`] way.
const DIRTY: u32 = 2;

/// What an ordered way held: its line and dirty bit, if it was valid.
#[inline(always)]
fn held(way: u32) -> Option<(u64, bool)> {
    (way & 1 != 0).then_some(((way >> 2) as u64, way & DIRTY != 0))
}

/// The word [`position`] finds `line` by: its way with the valid and
/// dirty bits set, so that a clean and a dirty copy both match.
#[inline(always)]
fn probe_key(line: u64) -> u32 {
    debug_assert!(line < LINE_LIMIT);
    (line << 2) as u32 | DIRTY | 1
}

/// Position of the way [`probe_key`]ed `k` in `set`, or `set.len()`.
/// Up to 32 ways (every fixed width of [`OrderedLevel::with_set`]) the
/// scan has no early exit — a set holds a line at most once, so the
/// compares fold into a bitmask: where a level mostly hits, the hit's
/// position is as good as random, and an exit branch there mispredicts
/// once per probe.
#[inline(always)]
fn position(set: &[u32], k: u32) -> usize {
    if set.len() > u32::BITS as usize {
        return set.iter().position(|&way| way | DIRTY == k).unwrap_or(set.len());
    }
    let mut found = 0u32;
    for (j, &way) in set.iter().enumerate() {
        found |= ((way | DIRTY == k) as u32) << j;
    }
    if found == 0 {
        set.len()
    } else {
        found.trailing_zeros() as usize
    }
}

/// Make `front` the first way of `set`, moving ways `0..p` down by one:
/// way `p` is overwritten, the ways past it stay.
#[inline(always)]
fn enter(set: &mut [u32], p: usize, front: u32) {
    set.copy_within(0..p, 1);
    set[0] = front;
}

/// A set-associative, true-LRU cache level whose sets are kept in
/// recency order (see the module docs). Behaviorally identical to
/// [`crate::level::CacheLevel`], which the reference path keeps using.
pub(crate) struct OrderedLevel {
    set_mask: u64,
    assoc: usize,
    /// One packed way per slot, set-major, each set most recent first.
    ways: Box<[u32]>,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
}

impl OrderedLevel {
    pub(crate) fn new(cfg: CacheConfig) -> Self {
        OrderedLevel {
            set_mask: set_mask(cfg),
            assoc: cfg.assoc,
            ways: vec![0; cfg.sets() * cfg.assoc].into_boxed_slice(),
            hits: 0,
            misses: 0,
        }
    }

    /// First way of `line`'s set.
    #[inline(always)]
    fn set_start(&self, line: u64) -> usize {
        (line & self.set_mask) as usize * self.assoc
    }

    /// Run one set transaction on `line`'s set: at a fixed width for the
    /// associativities the modeled machines have (2 and 8 at L1, 8, 12,
    /// 16 and 20 below it), so `f`'s scan unrolls and its shift knows its
    /// bound, and at the set's own length otherwise.
    #[inline(always)]
    fn with_set<R>(&mut self, line: u64, f: impl Fn(&mut [u32]) -> R) -> R {
        let start = self.set_start(line);
        let set = &mut self.ways[start..start + self.assoc];
        match set.len() {
            2 => f(&mut set[..2]),
            8 => f(&mut set[..8]),
            12 => f(&mut set[..12]),
            16 => f(&mut set[..16]),
            20 => f(&mut set[..20]),
            _ => f(set),
        }
    }

    /// Probe `line` and, hit or miss, make it the front of its set,
    /// OR-ing `dirty` into its way: a hit moves its way to the front, a
    /// miss enters it at the front and drops the set's last way. Returns
    /// whether it hit and the way that moved (the hit's way before the
    /// OR, or the dropped way).
    #[inline(always)]
    fn transact(&mut self, line: u64, dirty: u32) -> (bool, u32) {
        let k = probe_key(line);
        self.with_set(line, |set| {
            let p = position(set, k);
            let hit = p < set.len();
            // A miss drops the last way — a branch of its own, so that at
            // a fixed width the move has a constant length.
            let p = if hit { p } else { set.len() - 1 };
            let old = set[p];
            enter(set, p, if hit { old | dirty } else { (k & !DIRTY) | dirty });
            (hit, old)
        })
    }

    /// Demand `line`: a hit moves it to the front; a miss fills it
    /// clean at the front, dropping the set's last way. Counts the hit
    /// or miss. This is the reference's `access`, then `fill` on a miss,
    /// as one set transaction — the hierarchy settles the levels below
    /// between the two, and nothing down there touches this level.
    /// `Err` carries what the fill evicted: line and dirty bit, if the
    /// dropped way was valid.
    #[inline]
    pub(crate) fn demand(&mut self, line: u64) -> Result<(), Option<(u64, bool)>> {
        let (hit, old) = self.transact(line, 0);
        self.hits += hit as u64;
        self.misses += !hit as u64;
        if hit {
            Ok(())
        } else {
            Err(held(old))
        }
    }

    /// L1's transaction: a read or (`write`) a write of `line`. A line
    /// already at the front of its set — the common case, a line touched
    /// again before anything else in its set — only takes the write's
    /// dirty bit; otherwise this is [`OrderedLevel::demand`] with the
    /// write's dirty bit OR-ed into a hit's way and a fill dirty if and
    /// only if it writes: the reference's `access(line, write)`, then
    /// `fill(line, write)` on a miss. Counts misses only: L1's hits are
    /// what the hierarchy's access count leaves over, since the trailing
    /// elements of a run never reach the level.
    #[inline]
    pub(crate) fn access(&mut self, line: u64, write: bool) -> Result<(), Option<(u64, bool)>> {
        let dirty = DIRTY * write as u32;
        let start = self.set_start(line);
        let front = &mut self.ways[start];
        if *front | DIRTY == probe_key(line) {
            *front |= dirty;
            return Ok(());
        }
        self.access_scan(line, dirty)
    }

    /// [`OrderedLevel::access`] past the front way: the set scan. Kept
    /// out of line so the front-way check stays small enough to inline
    /// into every access site.
    #[inline(never)]
    fn access_scan(&mut self, line: u64, dirty: u32) -> Result<(), Option<(u64, bool)>> {
        let (hit, old) = self.transact(line, dirty);
        if hit {
            Ok(())
        } else {
            self.misses += 1;
            Err(held(old))
        }
    }

    /// Land a dirty victim pushed down from the level above: if `line`
    /// is present the copies merge (mark dirty, recency untouched), else
    /// it is filled dirty at the front. Returns what that fill evicted,
    /// if anything.
    #[inline]
    pub(crate) fn push_dirty(&mut self, line: u64) -> Option<(u64, bool)> {
        let k = probe_key(line);
        self.with_set(line, |set| {
            let p = position(set, k);
            if p < set.len() {
                set[p] = k;
                return None;
            }
            let last = set.len() - 1;
            let old = set[last];
            enter(set, last, k);
            held(old)
        })
    }

    /// Drain every dirty line, returning how many there were, and mark
    /// everything invalid.
    pub(crate) fn flush(&mut self) -> u64 {
        let dirty = self.dirty_lines().count();
        self.ways.fill(0);
        dirty as u64
    }

    /// Line indices of the currently dirty lines, in no particular
    /// order (ways move).
    pub(crate) fn dirty_lines(&self) -> impl Iterator<Item = u64> + '_ {
        self.ways.iter().filter(|&&w| w & 3 == 3).map(|&w| (w >> 2) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::{CacheLevel, Probe};

    fn tiny() -> OrderedLevel {
        // 4 sets x 2 ways x 64B = 512 B
        OrderedLevel::new(CacheConfig::new(512, 2))
    }

    fn sorted_dirty(l: &OrderedLevel) -> Vec<u64> {
        let mut lines: Vec<u64> = l.dirty_lines().collect();
        lines.sort_unstable();
        lines
    }

    #[test]
    fn hit_after_fill() {
        let mut l = tiny();
        assert_eq!(l.demand(5), Err(None), "cold probe misses into a free way");
        assert_eq!(l.demand(5), Ok(()));
        assert_eq!((l.hits, l.misses), (1, 1));
    }

    #[test]
    fn lru_eviction_order() {
        let mut l = tiny();
        // Lines 0, 4, 8 map to set 0 (4 sets).
        assert_eq!(l.demand(0), Err(None));
        assert_eq!(l.demand(4), Err(None));
        assert_eq!(l.demand(0), Ok(())); // 4 is LRU now
        assert_eq!(l.demand(8), Err(Some((4, false))));
        assert_eq!(l.demand(0), Ok(()));
        assert_eq!(l.demand(4), Err(Some((8, false))));
    }

    #[test]
    fn dirty_travels_with_eviction() {
        let mut l = tiny();
        assert_eq!(l.demand(0), Err(None));
        assert_eq!(l.push_dirty(0), None); // merged: dirty now, recency untouched
        assert_eq!(l.demand(4), Err(None));
        assert_eq!(l.demand(8), Err(Some((0, true))));
    }

    #[test]
    fn flush_and_dirty_lines() {
        let mut l = tiny();
        assert_eq!(l.push_dirty(1), None);
        assert_eq!(l.demand(2), Err(None));
        assert_eq!(l.push_dirty(3), None);
        assert_eq!(sorted_dirty(&l), vec![1, 3]);
        assert_eq!(l.push_dirty(2), None);
        assert_eq!(l.push_dirty(11), None, "absent: filled dirty into a free way");
        assert_eq!(l.flush(), 4);
        assert_eq!(l.demand(1), Err(None));
        assert_eq!(l.dirty_lines().count(), 0);
    }

    /// Ordered and unpacked levels must agree step by step on a random
    /// mixed stream, at every fixed-width associativity and through the
    /// generic fallback: the same hits, the same evicted line and dirty
    /// bit, the same counters and dirty sets as
    /// `CacheLevel::{access, fill, merge_dirty}` — across a mid-stream
    /// flush that leaves sets partly filled. The stream mixes all three
    /// transactions, L1's read/write `access` included, and re-touches
    /// the previous line often enough to take `access`'s front-way
    /// shortcut as well as its scan.
    #[test]
    fn ordered_matches_unpacked_levels() {
        for assoc in [1, 2, 4, 8, 12, 16, 20] {
            let mut state = 0x243f6a8885a308d3u64 ^ assoc as u64;
            let mut rng = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                state >> 33
            };
            // 8 sets; lines drawn from 3x the capacity.
            let cfg = CacheConfig::new(8 * 64 * assoc, assoc);
            let mut ordered = OrderedLevel::new(cfg);
            let mut plain = CacheLevel::new(cfg);
            // `access` counts misses only; its hits are counted here.
            let mut access_hits = 0;
            let same_dirty = |ordered: &OrderedLevel, plain: &CacheLevel, access_hits, step| {
                let mut want = plain.dirty_lines();
                want.sort_unstable();
                assert_eq!(sorted_dirty(ordered), want, "{assoc}-way dirty set at step {step}");
                assert_eq!(
                    (ordered.hits + access_hits, ordered.misses),
                    (plain.hits(), plain.misses())
                );
            };
            let mut line = 0;
            for step in 0..20_000 {
                if rng() % 4 != 0 {
                    line = rng() % (24 * assoc as u64);
                }
                let ctx = format!("{assoc}-way step {step} line {line}");
                match rng() % 3 {
                    0 => {
                        // A demand: probe, and on a miss fill clean.
                        let got = ordered.demand(line);
                        match plain.access(line, false) {
                            Probe::Hit => assert_eq!(got, Ok(()), "{ctx}"),
                            Probe::Miss => assert_eq!(got, Err(plain.fill(line, false)), "{ctx}"),
                        }
                    }
                    1 => {
                        // L1's access: probe, marking a hit dirty on a
                        // write, and on a miss fill dirty iff a write.
                        let write = rng() % 2 == 0;
                        let got = ordered.access(line, write);
                        match plain.access(line, write) {
                            Probe::Hit => {
                                assert_eq!(got, Ok(()), "{ctx} write {write}");
                                access_hits += 1;
                            }
                            Probe::Miss => {
                                assert_eq!(got, Err(plain.fill(line, write)), "{ctx} write {write}")
                            }
                        }
                    }
                    _ => {
                        // A pushed-down dirty victim: merge if present,
                        // else fill dirty — the reference's two calls in
                        // one.
                        let want =
                            if plain.merge_dirty(line) { None } else { plain.fill(line, true) };
                        assert_eq!(ordered.push_dirty(line), want, "{ctx}");
                    }
                }
                if step % 997 == 0 {
                    same_dirty(&ordered, &plain, access_hits, step);
                }
                if step == 10_000 {
                    assert_eq!(ordered.flush(), plain.flush(), "{assoc}-way mid-stream flush");
                }
            }
            same_dirty(&ordered, &plain, access_hits, 20_000);
            assert_eq!(ordered.flush(), plain.flush(), "{assoc}-way final flush");
        }
    }
}
