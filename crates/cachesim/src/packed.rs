//! The fast path's packed cache-level representation.
//!
//! One `u64` word per way — `lru(34) | line(28) | dirty(1) | valid(1)`,
//! LRU stamp in the high bits — so that:
//!
//! * a set probe is `assoc` masked compares over adjacent words (an
//!   8-way set is exactly one 64-byte host cache line, where the
//!   unpacked tag/LRU/dirty arrays of [`crate::level::CacheLevel`]
//!   spread the same set over five);
//! * victim selection needs no separate LRU pass: stamps are unique
//!   (the per-level clock ticks on every probe and fill), so comparing
//!   whole words *is* comparing recency, and an invalid way — all-zero
//!   word — sorts below everything. "First strict minimum" therefore
//!   reproduces `CacheLevel::fill`'s "first invalid way, else first
//!   true-LRU way" exactly.
//!
//! The packing bounds what the fast path can simulate: line indices
//! below 2^28 (16 GiB of traced address space at 64-byte lines) and
//! clocks below 2^34 (17 G accesses per level). Both are asserted, not
//! assumed: [`LINE_LIMIT`] on every access (the hierarchy's window
//! rebase), [`CLOCK_LIMIT`] once per measurement
//! ([`PackedLevel::check_clock`], called by `Hierarchy::flush` — a
//! clock only grows, so its final value bounds every stamp ever packed).
//! Statistics equivalence with the unpacked reference is pinned by the
//! property and golden tests layered above.

use crate::config::CacheConfig;

/// Bits of the packed line index.
pub(crate) const LINE_BITS: u32 = 28;
/// First line index that does NOT fit the packed layout.
pub(crate) const LINE_LIMIT: u64 = 1 << LINE_BITS;
/// Bit position of the LRU stamp.
const LRU_SHIFT: u32 = 30;
/// First clock value that does NOT fit the packed layout.
pub(crate) const CLOCK_LIMIT: u64 = 1 << (64 - LRU_SHIFT);
/// Word mask selecting the line index and the valid bit (a probe must
/// not care about the dirty bit).
const MATCH_MASK: u64 = ((LINE_LIMIT - 1) << 2) | 1;

/// Packed key of a valid way holding `line` (dirty bit clear).
#[inline(always)]
fn key(line: u64) -> u64 {
    (line << 2) | 1
}

/// A set-associative, true-LRU cache level in packed form. Behaviorally
/// identical to [`crate::level::CacheLevel`] (which the reference path
/// keeps using); only the storage layout differs.
pub(crate) struct PackedLevel {
    set_mask: u64,
    pub(crate) assoc: usize,
    /// One packed word per way, set-major.
    pub(crate) words: Box<[u64]>,
    pub(crate) clock: u64,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
}

impl PackedLevel {
    pub(crate) fn new(cfg: CacheConfig) -> Self {
        cfg.validate();
        let sets = cfg.sets();
        // The hierarchy's window rebase subtracts a multiple of
        // LINE_LIMIT, which preserves set indices only while the set
        // count divides it.
        assert!((sets as u64) <= LINE_LIMIT, "level has more sets than the packed line range");
        PackedLevel {
            set_mask: (sets - 1) as u64,
            assoc: cfg.assoc,
            words: vec![0; sets * cfg.assoc].into_boxed_slice(),
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    #[inline(always)]
    pub(crate) fn set_start(&self, line: u64) -> usize {
        (line & self.set_mask) as usize * self.assoc
    }

    /// One pass over `line`'s set: the way holding `line`, if any, and
    /// the way a fill of `line` would claim (first invalid way, else
    /// first true-LRU way — word order is recency order, so the first
    /// strict minimum decides). Both answers come from the same `assoc`
    /// loads; the loop carries no early exit, so it compiles to compares
    /// and conditional moves.
    #[inline(always)]
    fn scan(&self, line: u64) -> (Option<usize>, usize) {
        let start = self.set_start(line);
        let set = &self.words[start..start + self.assoc];
        let k = key(line);
        let (mut hit, mut victim, mut least) = (usize::MAX, 0, set[0]);
        for (j, &word) in set.iter().enumerate() {
            if word & MATCH_MASK == k {
                hit = j;
            }
            if word < least {
                least = word;
                victim = j;
            }
        }
        ((hit != usize::MAX).then(|| start + hit), start + victim)
    }

    /// Look up `line` for a read; on a hit re-stamp, on a miss return
    /// the way [`PackedLevel::fill_at`] must claim for it. Counts the
    /// hit or miss either way (reference `access` semantics). The
    /// victim stays valid until that fill as long as nothing else
    /// touches this set in between — which is how the hierarchy's miss
    /// path runs: probe top-down, fill bottom-up, one line at a time.
    #[inline]
    pub(crate) fn access(&mut self, line: u64) -> Result<(), usize> {
        self.clock += 1;
        match self.scan(line) {
            (Some(w), _) => {
                self.words[w] =
                    (self.clock << LRU_SHIFT) | (self.words[w] & ((1 << LRU_SHIFT) - 1));
                self.hits += 1;
                Ok(())
            }
            (None, victim) => {
                self.misses += 1;
                Err(victim)
            }
        }
    }

    /// Look up `line` without stamping or counting — the L1 front end
    /// defers the stamp into its hot-table entry and derives hit counts.
    #[inline]
    pub(crate) fn find(&self, line: u64) -> Option<usize> {
        let start = self.set_start(line);
        let k = key(line);
        (start..start + self.assoc).find(|&w| self.words[w] & MATCH_MASK == k)
    }

    /// Way a fill of `line` would claim (the L1 front end picks its
    /// victim here, after materializing the set's deferred stamps):
    /// first invalid way, else first true-LRU way.
    #[inline]
    pub(crate) fn victim_way(&self, line: u64) -> usize {
        let start = self.set_start(line);
        let mut j = start;
        for w in start + 1..start + self.assoc {
            if self.words[w] < self.words[j] {
                j = w;
            }
        }
        j
    }

    /// Insert `line` at way `w` — the victim a [`PackedLevel::access`]
    /// miss or [`PackedLevel::victim_way`] named — evicting what the way
    /// held. Returns the evicted line and its dirty bit, if any.
    pub(crate) fn fill_at(&mut self, w: usize, line: u64, dirty: bool) -> Option<(u64, bool)> {
        self.clock += 1;
        let old = self.words[w];
        self.words[w] = (self.clock << LRU_SHIFT) | key(line) | ((dirty as u64) << 1);
        (old & 1 != 0).then_some(((old >> 2) & (LINE_LIMIT - 1), old & 2 != 0))
    }

    /// Land a dirty victim pushed down from the level above, as one set
    /// transaction: if `line` is present the copies merge (mark dirty,
    /// recency untouched), else it is filled dirty over the LRU way.
    /// Returns what that fill evicted, if anything.
    pub(crate) fn push_dirty(&mut self, line: u64) -> Option<(u64, bool)> {
        match self.scan(line) {
            (Some(w), _) => {
                self.words[w] |= 2;
                None
            }
            (None, victim) => self.fill_at(victim, line, true),
        }
    }

    /// Refuse a stream longer than the packed stamp can order: past
    /// [`CLOCK_LIMIT`] ticks a stamp no longer fits its 34 bits, and
    /// every LRU decision after that point compared truncated stamps.
    pub(crate) fn check_clock(&self) {
        assert!(
            self.clock < CLOCK_LIMIT,
            "traced stream exceeds the fast path's 2^34 accesses per level"
        );
    }

    /// Overwrite way `w`'s LRU stamp (and OR in a dirty bit): the
    /// hierarchy's hot-line table materializes deferred stamps through
    /// this before any victim comparison reads them.
    #[inline]
    pub(crate) fn materialize(&mut self, w: usize, stamp: u64, dirty: bool) {
        let word = self.words[w];
        self.words[w] =
            (word & ((1 << LRU_SHIFT) - 1)) | (stamp << LRU_SHIFT) | ((dirty as u64) << 1);
    }

    /// Line held by way `w`, if the way is valid.
    #[inline]
    pub(crate) fn line_of(&self, w: usize) -> Option<u64> {
        let word = self.words[w];
        (word & 1 != 0).then_some((word >> 2) & (LINE_LIMIT - 1))
    }

    /// Whether way `w` is marked dirty (in the packed word itself).
    #[inline]
    pub(crate) fn is_dirty(&self, w: usize) -> bool {
        self.words[w] & 2 != 0
    }

    /// Drain every dirty line, returning how many there were, and mark
    /// everything invalid.
    pub(crate) fn flush(&mut self) -> u64 {
        let mut dirty = 0;
        for w in self.words.iter_mut() {
            if *w & 3 == 3 {
                dirty += 1;
            }
            *w = 0;
        }
        dirty
    }

    /// Line indices of the currently dirty lines, in way order.
    pub(crate) fn dirty_lines(&self) -> Vec<u64> {
        self.words.iter().filter(|&&w| w & 3 == 3).map(|&w| (w >> 2) & (LINE_LIMIT - 1)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::{CacheLevel, Probe};

    fn tiny() -> PackedLevel {
        // 4 sets x 2 ways x 64B = 512 B
        PackedLevel::new(CacheConfig::new(512, 2))
    }

    /// Fill `line` where the LRU policy puts it (no probe first).
    fn fill(l: &mut PackedLevel, line: u64, dirty: bool) -> Option<(u64, bool)> {
        let w = l.victim_way(line);
        l.fill_at(w, line, dirty)
    }

    #[test]
    fn hit_after_fill() {
        let mut l = tiny();
        let victim = l.access(5).expect_err("cold probe misses");
        assert_eq!(victim, l.victim_way(5));
        assert_eq!(l.fill_at(victim, 5, false), None);
        assert_eq!(l.access(5), Ok(()));
        assert_eq!((l.hits, l.misses), (1, 1));
        assert_eq!(l.find(5), Some(l.set_start(5)));
        assert_eq!(l.find(13), None);
    }

    #[test]
    fn lru_eviction_order() {
        let mut l = tiny();
        fill(&mut l, 0, false);
        fill(&mut l, 4, false);
        assert!(l.access(0).is_ok());
        let victim = l.access(8).expect_err("8 is absent");
        assert_eq!(l.fill_at(victim, 8, false), Some((4, false)));
        assert!(l.access(0).is_ok());
        assert!(l.access(4).is_err());
    }

    #[test]
    fn dirty_travels_with_eviction() {
        let mut l = tiny();
        fill(&mut l, 0, false);
        assert_eq!(l.push_dirty(0), None); // merged: dirty now, recency untouched
        fill(&mut l, 4, false);
        assert_eq!(fill(&mut l, 8, false), Some((0, true)));
    }

    #[test]
    fn flush_and_dirty_lines() {
        let mut l = tiny();
        fill(&mut l, 1, true);
        fill(&mut l, 2, false);
        fill(&mut l, 3, true);
        assert_eq!(l.dirty_lines(), vec![1, 3]);
        assert_eq!(l.push_dirty(2), None);
        assert_eq!(l.push_dirty(11), None, "absent: filled dirty into a free way");
        assert_eq!(l.flush(), 4);
        assert!(l.access(1).is_err());
        assert!(l.dirty_lines().is_empty());
    }

    /// Packed and unpacked levels must agree step by step on a random
    /// mixed stream: the one-scan transactions give the same hits, the
    /// same victims (way and evicted line), the same dirty sets as
    /// `CacheLevel::{access, fill, merge_dirty}`.
    #[test]
    fn packed_matches_unpacked_levels() {
        let mut state = 0x243f6a8885a308d3u64;
        let mut rng = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut packed = PackedLevel::new(CacheConfig::new(2048, 4));
        let mut plain = CacheLevel::new(CacheConfig::new(2048, 4));
        for _ in 0..20_000 {
            let line = rng() % 256;
            if rng() % 3 != 0 {
                // A demand: probe, and on a miss fill at the way the
                // probe's scan named — sometimes clean, sometimes dirty.
                let dirty = rng() % 4 == 0;
                let hit = plain.access(line, false) == Probe::Hit;
                match packed.access(line) {
                    Ok(()) => assert!(hit, "line {line}: packed hit, plain miss"),
                    Err(victim) => {
                        assert!(!hit, "line {line}: packed miss, plain hit");
                        assert_eq!(victim, packed.victim_way(line), "scan vs victim_way");
                        assert_eq!(
                            packed.fill_at(victim, line, dirty),
                            plain.fill(line, dirty),
                            "evicted line and dirty bit"
                        );
                    }
                }
            } else {
                // A pushed-down dirty victim: merge if present, else
                // fill dirty — the reference's two calls in one.
                let want = if plain.merge_dirty(line) { None } else { plain.fill(line, true) };
                assert_eq!(packed.push_dirty(line), want);
            }
        }
        assert_eq!(packed.dirty_lines(), plain.dirty_lines());
        assert_eq!((packed.hits, packed.misses), (plain.hits(), plain.misses()));
        assert_eq!(packed.flush(), plain.flush());
    }
}
