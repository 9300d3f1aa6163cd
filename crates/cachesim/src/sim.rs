//! The cache hierarchy: levels wired together with DRAM accounting.
//!
//! Two front ends drive the same simulated machine:
//!
//! * the **fast path** ([`Hierarchy::new`]) — every level, L1 included,
//!   is a recency-ordered [`crate::packed::OrderedLevel`] (no clock, no
//!   stamps: position in the set is the recency). The overwhelmingly
//!   common "touch a recently used line again" case is a line already
//!   at the front of its L1 set, which L1's transaction checks first.
//!   The run API ([`Hierarchy::read_run`]/[`write_run`](Hierarchy::write_run))
//!   touches each spanned line once: the remaining elements re-touch
//!   the line at the front of its set, which changes nothing but the
//!   access count;
//! * the **reference path** ([`Hierarchy::reference`]) — every element
//!   goes through the full per-level probe over plain
//!   [`CacheLevel`]s, exactly the pre-fast-path simulator.
//!
//! The fast path's *last* level is a list of **tails** — `K` last
//! levels (each with its own DRAM counters) fed by one shared front
//! ([`Hierarchy::fan_out`]; [`Hierarchy::new`] is the fan-out of one).
//! The last level only receives: demand probes of lines that missed
//! every level above it, and dirty victims pushed down. Nothing it
//! decides is read back by the front (non-inclusive, no
//! back-invalidation, upper fills happen on a last-level hit and miss
//! alike), so `K` tails fed that event sequence in order each end with
//! exactly the counters and dirty set they would have alone, and one
//! access stream answers every LLC share a thread sweep asks about.
//!
//! Both produce bit-identical statistics: a set's position order is
//! the reference's stamp order, and L1 hit counts follow from
//! `hits = accesses − misses` (every element is exactly one L1
//! probe-equivalent). The equivalence is pinned by property tests here
//! and by whole-schedule tests in `pdesched-machine`. See DESIGN.md
//! § "Measurement fast path".

use crate::config::CacheConfig;
use crate::level::{CacheLevel, Probe};
use crate::packed::{OrderedLevel, LINE_LIMIT};

/// Per-level hit/miss counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Accesses that hit this level.
    pub hits: u64,
    /// Accesses that missed this level (and proceeded downward).
    pub misses: u64,
}

impl LevelStats {
    /// Hit ratio (0 when never accessed).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Whole-hierarchy statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Total 8-byte reads observed.
    pub reads: u64,
    /// Total 8-byte writes observed.
    pub writes: u64,
    /// Per-level hits/misses, L1 first, LLC last.
    pub levels: Vec<LevelStats>,
    /// Lines fetched from DRAM.
    pub dram_lines_read: u64,
    /// Dirty lines written back to DRAM.
    pub dram_lines_written: u64,
}

impl Stats {
    /// Total DRAM traffic in bytes for line size `line`.
    pub fn dram_bytes(&self, line: usize) -> u64 {
        (self.dram_lines_read + self.dram_lines_written) * line as u64
    }
}

/// "Window not yet fixed" marker for the fast path's line rebase. Must
/// send *every* first access down the cold path of [`Hierarchy::rebase`]
/// — i.e. `line - NO_BASE (mod 2^64)` must be out of range for every
/// reachable `line` — and must itself be window-aligned so it can never
/// collide with a legitimately established base. `2^63` satisfies both:
/// real line indices are below `2^58` (64-bit byte addresses, 64-byte
/// lines), so the subtraction always lands in `(2^62, 2^63]`, far above
/// the window size. (`u64::MAX` would NOT work: `0 - u64::MAX` wraps to
/// `1`, silently passing small lines through shifted.)
const NO_BASE: u64 = 1 << 63;

/// What sits below the shared front of a fast-path hierarchy: one last
/// level and the DRAM behind it.
struct Tail {
    /// The last level; `None` for a one-level hierarchy, whose only
    /// level is the L1 front end and whose tail is DRAM itself.
    level: Option<OrderedLevel>,
    dram_lines_read: u64,
    dram_lines_written: u64,
}

impl Tail {
    /// A line that missed every level above is demanded from this tail:
    /// a last-level hit makes it most recent, a miss fetches it from
    /// DRAM and fills it clean, writing back a dirty victim.
    #[inline]
    fn demand(&mut self, line: u64) {
        let evicted = match &mut self.level {
            Some(l) => match l.demand(line) {
                Ok(()) => return,
                Err(evicted) => evicted,
            },
            None => None,
        };
        self.dram_lines_read += 1;
        if let Some((_, true)) = evicted {
            self.dram_lines_written += 1;
        }
    }

    /// A dirty victim pushed out of the level above lands here.
    #[inline]
    fn push(&mut self, line: u64) {
        let evicted = match &mut self.level {
            Some(l) => l.push_dirty(line),
            None => Some((line, true)),
        };
        if let Some((_, true)) = evicted {
            self.dram_lines_written += 1;
        }
    }
}

/// A multi-level cache hierarchy with DRAM traffic accounting.
///
/// ```
/// use pdesched_cachesim::{CacheConfig, Hierarchy};
/// let mut h = Hierarchy::new(&[CacheConfig::new(32 * 1024, 8)]);
/// h.read(0);      // cold miss: fetches one 64-byte line
/// h.read(8);      // same line: hit
/// h.write(64);    // write-allocate: fetches the next line, dirties it
/// h.read_run(128, 8); // one line fetch, seven L1 hits
/// h.flush();      // write the dirty line back
/// assert_eq!(h.stats().dram_lines_read, 3);
/// assert_eq!(h.stats().dram_lines_written, 1);
/// assert_eq!(h.dram_bytes(), 4 * 64);
/// ```
pub struct Hierarchy {
    /// Fast-path L1, outside the level vector so the hot path reaches
    /// it through one pointer, not two.
    l1: OrderedLevel,
    /// Fast-path levels between L1 and the last level, in order.
    mids: Vec<OrderedLevel>,
    /// Fast-path last levels, fed in order by every event that leaves
    /// the front (empty in reference mode).
    tails: Vec<Tail>,
    /// Dirty lines the front's levels held at the last flush: written
    /// back to DRAM whichever tail is asked.
    front_flushed: u64,
    /// Reference-path levels, L1 first (empty in fast mode).
    ref_levels: Vec<CacheLevel>,
    /// Level geometries: the front (L1 first), then every last level.
    configs: Vec<CacheConfig>,
    line: usize,
    line_shift: u32,
    reads: u64,
    writes: u64,
    /// Reference-path DRAM counters (the fast path counts per tail).
    dram_lines_read: u64,
    dram_lines_written: u64,
    /// Reference mode: plain levels and runs expanded per element,
    /// reproducing the original per-element simulator.
    reference: bool,
    /// Fast-path line rebase (see [`Hierarchy::rebase`]); [`NO_BASE`]
    /// until the first access fixes the window.
    line_base: u64,
}

impl Hierarchy {
    /// Build a hierarchy from level geometries, L1 first, LLC last.
    /// All levels must share one line size.
    pub fn new(configs: &[CacheConfig]) -> Self {
        let (front, last) = configs.split_at(configs.len().saturating_sub(1));
        Hierarchy::fan_out(front, last)
    }

    /// Build one fast-path front (`front`, L1 first) over `lasts.len()`
    /// alternative last levels. Tail `i` accounts the accesses exactly
    /// as `Hierarchy::new(front ++ [lasts[i]])` would
    /// ([`Hierarchy::tail_stats`]); the stream and the front's levels
    /// are simulated once. An empty `front` makes
    /// the single last level the L1 — an L1 is the front end, so it
    /// cannot fan out.
    pub fn fan_out(front: &[CacheConfig], lasts: &[CacheConfig]) -> Self {
        assert!(!lasts.is_empty(), "a hierarchy needs a last level");
        assert!(!front.is_empty() || lasts.len() == 1, "a one-level hierarchy cannot fan out");
        let configs: Vec<CacheConfig> = front.iter().chain(lasts).copied().collect();
        let mut h = Hierarchy::build(&configs, false);
        // With no front the single last level is the L1 `build` made;
        // what is left below it is DRAM alone.
        let levels: Vec<Option<OrderedLevel>> = if front.is_empty() {
            vec![None]
        } else {
            lasts.iter().map(|&c| Some(OrderedLevel::new(c))).collect()
        };
        h.tails = levels
            .into_iter()
            .map(|level| Tail { level, dram_lines_read: 0, dram_lines_written: 0 })
            .collect();
        h.mids = front.iter().skip(1).map(|&c| OrderedLevel::new(c)).collect();
        h
    }

    /// Build a hierarchy that simulates every access through the
    /// original per-element probe path: plain stamped levels, and runs
    /// expanded element by element. This is the reference the fast path
    /// is proven bit-identical against; it must never be "optimized".
    pub fn reference(configs: &[CacheConfig]) -> Self {
        Hierarchy::build(configs, true)
    }

    fn build(configs: &[CacheConfig], reference: bool) -> Self {
        assert!(!configs.is_empty());
        let line = configs[0].line;
        assert!(configs.iter().all(|c| c.line == line), "line sizes must match");
        let ref_levels = if reference {
            configs.iter().map(|&c| CacheLevel::new(c)).collect()
        } else {
            Vec::new()
        };
        Hierarchy {
            l1: OrderedLevel::new(configs[0]),
            mids: Vec::new(),
            tails: Vec::new(),
            front_flushed: 0,
            ref_levels,
            configs: configs.to_vec(),
            line,
            line_shift: line.trailing_zeros(),
            reads: 0,
            writes: 0,
            dram_lines_read: 0,
            dram_lines_written: 0,
            reference,
            line_base: NO_BASE,
        }
    }

    /// Line size in bytes.
    pub fn line(&self) -> usize {
        self.line
    }

    /// Every level geometry this hierarchy simulates: the front, L1
    /// first, then each last level. Symbolic analyses use these (set
    /// counts, associativities) to prove that a grouped replay cannot
    /// perturb any replacement decision.
    pub fn geometry(&self) -> &[CacheConfig] {
        &self.configs
    }

    /// How many last levels share this hierarchy's front (1 unless
    /// built by [`Hierarchy::fan_out`]).
    pub fn tails(&self) -> usize {
        self.tails.len().max(1)
    }

    /// Statistics so far of the first (or only) last level.
    pub fn stats(&self) -> Stats {
        self.tail_stats(0)
    }

    /// Statistics so far as the hierarchy ending in last level `i`
    /// counts them: the shared front's rows and flush writebacks plus
    /// that tail's own. Assembled on demand: in fast mode L1 hits are
    /// derived (`accesses − misses`) rather than counted per access.
    pub fn tail_stats(&self, i: usize) -> Stats {
        let level_stats = |l: &OrderedLevel| LevelStats { hits: l.hits, misses: l.misses };
        let (levels, dram_lines_read, dram_lines_written) = if self.reference {
            let levels = self
                .ref_levels
                .iter()
                .map(|l| LevelStats { hits: l.hits(), misses: l.misses() })
                .collect();
            (levels, self.dram_lines_read, self.dram_lines_written)
        } else {
            let tail = &self.tails[i];
            let accesses = self.reads + self.writes;
            let l1 = LevelStats { hits: accesses - self.l1.misses, misses: self.l1.misses };
            let levels = std::iter::once(l1)
                .chain(self.mids.iter().chain(&tail.level).map(level_stats))
                .collect();
            (levels, tail.dram_lines_read, tail.dram_lines_written + self.front_flushed)
        };
        Stats {
            reads: self.reads,
            writes: self.writes,
            levels,
            dram_lines_read,
            dram_lines_written,
        }
    }

    /// Total DRAM traffic so far in bytes (first or only last level).
    pub fn dram_bytes(&self) -> u64 {
        self.stats().dram_bytes(self.line)
    }

    /// An 8-byte read at `addr`.
    #[inline]
    pub fn read(&mut self, addr: usize) {
        self.reads += 1;
        let line = (addr >> self.line_shift) as u64;
        if self.reference {
            self.probe_fill(line, false);
        } else {
            self.touch(line, false);
        }
    }

    /// An 8-byte write at `addr` (write-allocate).
    #[inline]
    pub fn write(&mut self, addr: usize) {
        self.writes += 1;
        let line = (addr >> self.line_shift) as u64;
        if self.reference {
            self.probe_fill(line, true);
        } else {
            self.touch(line, true);
        }
    }

    /// `elems` consecutive 8-byte reads starting at `addr` (a unit-stride
    /// run). Statistics-identical to `elems` calls of [`Hierarchy::read`]
    /// at `addr`, `addr + 8`, …, but each spanned cache line is touched
    /// once: the remaining elements of a line are guaranteed L1 hits on
    /// the front of its set (the head access just put it there), which
    /// change nothing but the access count.
    #[inline]
    pub fn read_run(&mut self, addr: usize, elems: usize) {
        self.run(addr, elems, false);
    }

    /// `elems` consecutive 8-byte writes starting at `addr`; see
    /// [`Hierarchy::read_run`].
    #[inline]
    pub fn write_run(&mut self, addr: usize, elems: usize) {
        self.run(addr, elems, true);
    }

    /// `reps` 8-byte reads of the *same* address: statistics-identical
    /// to calling [`Hierarchy::read`] at `addr` `reps` times. The
    /// weighted-probe primitive of the symbolic traffic summarizer
    /// (`pdesched-machine`): a phase proven regular touches one line
    /// many times in a row, and this accounts the repeat touches in
    /// closed form exactly like the tail of a run — the head access
    /// puts the line at the front of its L1 set, and the other
    /// `reps − 1` are hits there that change nothing but the count.
    #[inline]
    pub fn read_rep(&mut self, addr: usize, reps: usize) {
        self.rep(addr, reps, false);
    }

    /// `reps` 8-byte writes of the same address; see
    /// [`Hierarchy::read_rep`].
    #[inline]
    pub fn write_rep(&mut self, addr: usize, reps: usize) {
        self.rep(addr, reps, true);
    }

    fn rep(&mut self, addr: usize, reps: usize, write: bool) {
        if reps == 0 {
            return;
        }
        self.line_rep((addr >> self.line_shift) as u64, reps, write);
    }

    /// `reps` touches of the (absolute) line index `line` — the same
    /// contract as [`Hierarchy::read_rep`]/[`Hierarchy::write_rep`] but
    /// addressed by line, saving the shift round-trip.
    #[inline]
    pub fn line_rep(&mut self, line: u64, reps: usize, write: bool) {
        debug_assert!(reps > 0);
        // Branchless read/write accounting: slot-alternating rw streams
        // would mispredict a counter branch on every probe.
        let w = write as u64;
        self.writes += reps as u64 * w;
        self.reads += reps as u64 * (1 - w);
        if self.reference {
            for _ in 0..reps {
                self.probe_fill(line, write);
            }
            return;
        }
        self.touch(line, write);
    }

    fn run(&mut self, addr: usize, elems: usize, write: bool) {
        if write {
            self.writes += elems as u64;
        } else {
            self.reads += elems as u64;
        }
        if self.reference {
            // Reference semantics: the run is nothing but its elements.
            for i in 0..elems {
                let line = ((addr + i * 8) >> self.line_shift) as u64;
                self.probe_fill(line, write);
            }
            return;
        }
        let mut a = addr;
        let mut rem = elems;
        while rem > 0 {
            // Elements at a, a+8, … below the next line boundary share
            // a's line: the head is the one access that can move
            // anything, the rest are already counted.
            let line_end = (a & !(self.line - 1)) + self.line;
            let k = rem.min((line_end - a).div_ceil(8));
            self.touch((a >> self.line_shift) as u64, write);
            a += k * 8;
            rem -= k;
        }
    }

    /// Map an absolute line index into the fast path's 28-bit packed
    /// range by subtracting a 2^28-aligned base fixed at the first
    /// access. Within one 16 GiB window the mapping is a bijection and
    /// (because the base is a multiple of every level's set count) maps
    /// each line to the same set — so the simulation is unchanged. A
    /// stream spanning two windows fails loudly; the reference path has
    /// no such limit.
    #[inline]
    fn rebase(&mut self, line: u64) -> u64 {
        let rel = line.wrapping_sub(self.line_base);
        if rel < LINE_LIMIT {
            rel
        } else {
            self.rebase_cold(line)
        }
    }

    #[inline(never)]
    fn rebase_cold(&mut self, line: u64) -> u64 {
        assert_eq!(
            self.line_base, NO_BASE,
            "traced addresses span more than the fast path's 16 GiB window"
        );
        assert!(line < NO_BASE, "line index out of any representable window");
        self.line_base = line & !(LINE_LIMIT - 1);
        line - self.line_base
    }

    /// Route one fast-path access. `line` is absolute; everything past
    /// the rebase (the levels, victims) speaks window-relative line
    /// indices.
    #[inline]
    fn touch(&mut self, line: u64, write: bool) {
        let line = self.rebase(line);
        if let Err(evicted) = self.l1.access(line, write) {
            self.l1_miss(line, evicted);
        }
    }

    /// The L1-miss path, after L1's transaction already took the line
    /// in: bring it into the levels below, then push L1's dirty victim
    /// down — the order the reference's bottom-up fill shows them. Kept
    /// out of line so `touch` itself stays small enough to inline into
    /// the run loop and the `Mem` hooks.
    #[inline(never)]
    fn l1_miss(&mut self, line: u64, evicted: Option<(u64, bool)>) {
        self.fetch_below(line, 0);
        if let Some((victim, true)) = evicted {
            self.push_down(victim, 0);
        }
    }

    /// Bring `line` into every level from `mids[i]` down to the first
    /// one already holding it. The reference probes top-down and fills
    /// bottom-up; a level's probe and fill are one set transaction here
    /// because nothing below touches that level in between — what must
    /// keep the reference's order is what the levels *below* see: this
    /// line's demand first, the fill's dirty victim after. Past the last
    /// mid level the demand goes to every tail.
    fn fetch_below(&mut self, line: u64, i: usize) {
        if i == self.mids.len() {
            for t in &mut self.tails {
                t.demand(line);
            }
            return;
        }
        if let Err(evicted) = self.mids[i].demand(line) {
            self.fetch_below(line, i + 1);
            if let Some((victim, true)) = evicted {
                self.push_down(victim, i + 1);
            }
        }
    }

    /// Land a dirty victim line in `mids[i]` (past the last mid level:
    /// in every tail), recursively handling its own victims.
    fn push_down(&mut self, line: u64, i: usize) {
        if i == self.mids.len() {
            for t in &mut self.tails {
                t.push(line);
            }
            return;
        }
        if let Some((victim, true)) = self.mids[i].push_dirty(line) {
            self.push_down(victim, i + 1);
        }
    }

    /// The full reference access path: probe levels L1→LLC, then fill
    /// the line into every level above the hit, propagating dirty
    /// victims downward. The L1 copy carries the write's dirty bit.
    fn probe_fill(&mut self, line: u64, write: bool) {
        let mut fill_to = self.ref_levels.len();
        for (i, l) in self.ref_levels.iter_mut().enumerate() {
            if l.access(line, write && i == 0) == Probe::Hit {
                fill_to = i;
                break;
            }
        }
        if fill_to == self.ref_levels.len() {
            self.dram_lines_read += 1;
        }
        for i in (0..fill_to).rev() {
            if let Some((victim, true)) = self.ref_levels[i].fill(line, write && i == 0) {
                self.push_down_ref(victim, i + 1);
            }
        }
    }

    /// Reference-path victim insertion into level `i` (or DRAM).
    fn push_down_ref(&mut self, line: u64, i: usize) {
        if i >= self.ref_levels.len() {
            self.dram_lines_written += 1;
            return;
        }
        if self.ref_levels[i].merge_dirty(line) {
            return;
        }
        if let Some((victim, true)) = self.ref_levels[i].fill(line, true) {
            self.push_down_ref(victim, i + 1);
        }
    }

    /// Write back every dirty line everywhere (end-of-run accounting) and
    /// invalidate the hierarchy.
    ///
    /// Each level's dirty-line count is charged as writebacks. Dirtiness
    /// is per *copy*: a line usually is dirty at one level at a time
    /// (writes dirty L1 only; eviction merges the dirty bit downward),
    /// but re-dirtying a line whose lower-level copy is already dirty
    /// leaves two dirty copies, and a flush in that state charges both —
    /// the `dirty_line_accounting` tests pin both behaviors. (Changing
    /// this accounting would change measured traffic and therefore
    /// require a `STORE_VERSION` bump in `pdesched-machine`.)
    pub fn flush(&mut self) {
        if self.reference {
            let written: u64 = self.ref_levels.iter_mut().map(|l| l.flush()).sum();
            self.dram_lines_written += written;
            return;
        }
        for l in std::iter::once(&mut self.l1).chain(&mut self.mids) {
            self.front_flushed += l.flush();
        }
        for t in &mut self.tails {
            if let Some(l) = &mut t.level {
                t.dram_lines_written += l.flush();
            }
        }
    }

    /// Per-level dirty-line sets, L1 first, LLC last, of the first (or
    /// only) last level; see [`Hierarchy::tail_dirty_lines`].
    pub fn dirty_lines_by_level(&self) -> Vec<Vec<u64>> {
        self.tail_dirty_lines(0)
    }

    /// The set of dirty lines at each level of the hierarchy ending in
    /// last level `i`, L1 first, each level's absolute line indices
    /// sorted ascending (tests/diagnostics). A set, not a way listing:
    /// which way holds a line is a layout detail the engines do not
    /// share.
    pub fn tail_dirty_lines(&self, i: usize) -> Vec<Vec<u64>> {
        let mut levels: Vec<Vec<u64>> = if self.reference {
            self.ref_levels.iter().map(|l| l.dirty_lines()).collect()
        } else {
            // Undo the window rebase so callers see absolute line indices.
            let base = if self.line_base == NO_BASE { 0 } else { self.line_base };
            let levels = std::iter::once(&self.l1).chain(&self.mids).chain(&self.tails[i].level);
            levels.map(|l| l.dirty_lines().map(|ln| ln + base).collect()).collect()
        };
        for lines in &mut levels {
            lines.sort_unstable();
        }
        levels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Hierarchy {
        // L1: 512B 2-way; L2: 2KiB 4-way.
        Hierarchy::new(&[CacheConfig::new(512, 2), CacheConfig::new(2048, 4)])
    }

    #[test]
    fn cold_miss_counts_dram_line() {
        let mut h = small();
        h.read(0);
        assert_eq!(h.stats().dram_lines_read, 1);
        // Same line: L1 hit, no extra traffic.
        h.read(8);
        h.read(63);
        assert_eq!(h.stats().dram_lines_read, 1);
        assert_eq!(h.stats().levels[0].hits, 2);
    }

    #[test]
    fn streaming_traffic_equals_footprint() {
        let mut h = small();
        let n = 64 * 1024; // 64 KiB footprint >> caches
        for i in 0..n / 8 {
            h.read(i * 8);
        }
        assert_eq!(h.stats().dram_lines_read, (n / 64) as u64);
        assert_eq!(h.stats().dram_lines_written, 0);
    }

    #[test]
    fn resident_working_set_has_no_repeat_traffic() {
        let mut h = small();
        // 1 KiB working set fits in L2 (2 KiB).
        let lines = 16;
        for pass in 0..10 {
            for i in 0..lines {
                h.read(i * 64);
            }
            if pass == 0 {
                assert_eq!(h.stats().dram_lines_read, lines as u64);
            }
        }
        assert_eq!(h.stats().dram_lines_read, lines as u64);
    }

    #[test]
    fn writeback_on_eviction() {
        let mut h = Hierarchy::new(&[CacheConfig::new(512, 2)]);
        // Dirty a line, then stream enough lines through its set to evict.
        h.write(0); // set 0
        for i in 1..=4 {
            h.read(i * 4 * 64); // lines 4,8,12,16 -> set 0 (4 sets)
        }
        assert_eq!(h.stats().dram_lines_written, 1);
    }

    #[test]
    fn flush_writes_back_dirty() {
        let mut h = small();
        h.write(0);
        h.write(64);
        h.read(128);
        h.flush();
        assert_eq!(h.stats().dram_lines_written, 2);
        // After flush everything is cold again.
        let before = h.stats().dram_lines_read;
        h.read(0);
        assert_eq!(h.stats().dram_lines_read, before + 1);
    }

    #[test]
    fn write_allocate_fetches_line() {
        let mut h = small();
        h.write(4096);
        assert_eq!(h.stats().dram_lines_read, 1);
        h.flush();
        assert_eq!(h.stats().dram_lines_written, 1);
        assert_eq!(h.dram_bytes(), 2 * 64);
    }

    #[test]
    fn l2_catches_l1_evictions() {
        let mut h = small();
        // Touch 32 distinct lines (2 KiB): all fit in L2, not in L1.
        for i in 0..32 {
            h.read(i * 64);
        }
        let dram_after_first = h.stats().dram_lines_read;
        assert_eq!(dram_after_first, 32);
        // Second pass: L1 misses mostly, L2 hits, no new DRAM traffic.
        for i in 0..32 {
            h.read(i * 64);
        }
        assert_eq!(h.stats().dram_lines_read, 32);
        assert!(h.stats().levels[1].hits > 0);
    }

    #[test]
    fn hit_ratio_math() {
        let s = LevelStats { hits: 3, misses: 1 };
        assert_eq!(s.hit_ratio(), 0.75);
        assert_eq!(LevelStats::default().hit_ratio(), 0.0);
    }

    #[test]
    fn run_counts_match_elementwise_expansion() {
        let mut h = small();
        // 16 elements starting mid-line: lines 0 (6 elems), 1 (8), 2 (2).
        h.read_run(16, 16);
        let s = h.stats();
        assert_eq!(s.reads, 16);
        assert_eq!(s.dram_lines_read, 3);
        assert_eq!(s.levels[0], LevelStats { hits: 13, misses: 3 });
        // A same-address write run: all lines resident now.
        h.write_run(16, 16);
        let s = h.stats();
        assert_eq!(s.writes, 16);
        assert_eq!(s.dram_lines_read, 3);
        assert_eq!(s.levels[0], LevelStats { hits: 29, misses: 3 });
        h.flush();
        assert_eq!(h.stats().dram_lines_written, 3);
    }

    /// `read_rep`/`write_rep` must be bit-identical to the same number
    /// of per-element accesses at one address — in fast mode, in
    /// reference mode, and interleaved with ordinary traffic.
    #[test]
    fn rep_counts_match_repeated_accesses() {
        let cfgs = [CacheConfig::new(512, 2), CacheConfig::new(2048, 4)];
        for reference in [false, true] {
            let build = || {
                if reference {
                    Hierarchy::reference(&cfgs)
                } else {
                    Hierarchy::new(&cfgs)
                }
            };
            let mut rng = Lcg(0x2545f4914f6cdd1d ^ reference as u64);
            let mut a = build();
            let mut b = build();
            for _ in 0..300 {
                let addr = (rng.next() % 256) as usize * 8;
                let reps = (rng.next() % 5) as usize;
                match rng.next() % 4 {
                    0 => {
                        a.read_rep(addr, reps);
                        for _ in 0..reps {
                            b.read(addr);
                        }
                    }
                    1 => {
                        a.write_rep(addr, reps);
                        for _ in 0..reps {
                            b.write(addr);
                        }
                    }
                    2 => {
                        a.read(addr);
                        b.read(addr);
                    }
                    _ => {
                        a.write(addr);
                        b.write(addr);
                    }
                }
            }
            assert_same_state(&a, &b);
            a.flush();
            b.flush();
            assert_same_state(&a, &b);
        }
    }

    #[test]
    fn geometry_reports_configs() {
        let cfgs = [CacheConfig::new(512, 2), CacheConfig::new(2048, 4)];
        let h = Hierarchy::new(&cfgs);
        assert_eq!(h.geometry(), &cfgs);
        assert_eq!(cfgs[0].lines(), 8);
        assert_eq!(Hierarchy::reference(&cfgs).geometry(), &cfgs);
    }

    #[test]
    fn empty_and_single_runs() {
        let mut h = small();
        h.read_run(0, 0);
        assert_eq!(h.stats().reads, 0);
        h.read_run(8, 1);
        let s = h.stats();
        assert_eq!((s.reads, s.dram_lines_read), (1, 1));
    }

    /// Tiny deterministic generator for the equivalence property tests.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            self.0 >> 11
        }
    }

    fn assert_same_state(fast: &Hierarchy, reference: &Hierarchy) {
        let (a, b) = (fast.stats(), reference.stats());
        assert_eq!(a.reads, b.reads);
        assert_eq!(a.writes, b.writes);
        assert_eq!(a.levels, b.levels);
        assert_eq!(a.dram_lines_read, b.dram_lines_read);
        assert_eq!(a.dram_lines_written, b.dram_lines_written);
        assert_eq!(fast.dirty_lines_by_level(), reference.dirty_lines_by_level());
    }

    /// The fast path (recency-ordered levels + run batching)
    /// must be bit-identical to the per-element reference on arbitrary
    /// mixed streams — including mid-stream, not just at the end.
    #[test]
    fn fast_path_equals_reference_on_random_streams() {
        for seed in 0..20u64 {
            let mut rng = Lcg(0x9e3779b97f4a7c15 ^ seed);
            let mut fast = small();
            let mut reference =
                Hierarchy::reference(&[CacheConfig::new(512, 2), CacheConfig::new(2048, 4)]);
            for step in 0..400 {
                let addr = (rng.next() % 1024) as usize * 8;
                match rng.next() % 4 {
                    0 => {
                        fast.read(addr);
                        reference.read(addr);
                    }
                    1 => {
                        fast.write(addr);
                        reference.write(addr);
                    }
                    2 => {
                        let n = (rng.next() % 24) as usize;
                        fast.read_run(addr, n);
                        for i in 0..n {
                            reference.read(addr + i * 8);
                        }
                    }
                    _ => {
                        let n = (rng.next() % 24) as usize;
                        fast.write_run(addr, n);
                        for i in 0..n {
                            reference.write(addr + i * 8);
                        }
                    }
                }
                if step % 97 == 0 {
                    assert_same_state(&fast, &reference);
                }
            }
            assert_same_state(&fast, &reference);
            fast.flush();
            reference.flush();
            assert_same_state(&fast, &reference);
        }
    }

    /// Same property over three-level hierarchies (the fill chain and
    /// victim pushdowns cross two lower levels) — one of them a single
    /// set per level with an L2 no wider than L1, where an L1 miss's
    /// demand can drop from L2 the very line L1's dirty victim is, so
    /// the order the levels below see the two in decides the traffic.
    #[test]
    fn fast_path_equals_reference_three_levels() {
        let c = CacheConfig::new;
        for (cfgs, lines) in
            [([c(512, 2), c(2048, 4), c(8192, 4)], 4096), ([c(128, 2), c(128, 2), c(512, 8)], 192)]
        {
            for seed in 0..10u64 {
                let mut rng = Lcg(0xd1310ba698dfb5ac ^ seed);
                let mut fast = Hierarchy::new(&cfgs);
                let mut reference = Hierarchy::reference(&cfgs);
                for _ in 0..600 {
                    let addr = (rng.next() % lines) as usize * 8;
                    if rng.next().is_multiple_of(3) {
                        fast.write(addr);
                        reference.write(addr);
                    } else {
                        fast.read(addr);
                        reference.read(addr);
                    }
                }
                assert_same_state(&fast, &reference);
                fast.flush();
                reference.flush();
                assert_same_state(&fast, &reference);
            }
        }
    }

    /// Reference mode expands runs per element through the full probe
    /// path (no filters) — the two entry styles must agree with each
    /// other in reference mode too.
    #[test]
    fn reference_run_expands_per_element() {
        let cfgs = [CacheConfig::new(512, 2)];
        let mut a = Hierarchy::reference(&cfgs);
        let mut b = Hierarchy::reference(&cfgs);
        a.read_run(24, 30);
        for i in 0..30 {
            b.read(24 + i * 8);
        }
        assert_same_state(&a, &b);
    }

    /// Dirty-line accounting, part 1: in the common regime (a line is
    /// written while resident, then evicted at most once per flush),
    /// dirtiness lives at exactly one level at a time.
    #[test]
    fn dirty_line_accounting_exclusive_in_common_regime() {
        let mut h = small();
        h.write(0);
        h.write(64);
        let no_dupes = |h: &Hierarchy| {
            let per_level = h.dirty_lines_by_level();
            let total: usize = per_level.iter().map(|v| v.len()).sum();
            let distinct: std::collections::HashSet<u64> =
                per_level.iter().flatten().copied().collect();
            assert_eq!(distinct.len(), total, "a line is dirty at two levels: {per_level:?}");
        };
        no_dupes(&h);
        // Evict line 0 from L1 (4 L1 sets: lines 4, 8 alias set 0): its
        // dirty bit moves down to L2 — still exactly one dirty copy.
        h.read(4 * 64);
        h.read(8 * 64);
        no_dupes(&h);
        let dirty_at = |h: &Hierarchy, line: u64| -> Vec<usize> {
            h.dirty_lines_by_level()
                .iter()
                .enumerate()
                .filter(|(_, v)| v.contains(&line))
                .map(|(i, _)| i)
                .collect()
        };
        assert_eq!(dirty_at(&h, 0), vec![1], "dirtiness must have moved to L2");
        h.flush();
        assert_eq!(h.stats().dram_lines_written, 2, "two dirty lines, one writeback each");
    }

    /// Dirty-line accounting, part 2: re-dirtying a line whose L2 copy
    /// is already dirty leaves *two* dirty copies, and flushing in that
    /// state charges two writebacks. This pins the simulator's actual
    /// (per-copy) accounting — natural eviction would merge the copies
    /// back to one, but flush charges each level independently. Changing
    /// this changes measured traffic: it would require a STORE_VERSION
    /// bump and a re-measure of every persisted store.
    #[test]
    fn dirty_line_accounting_per_copy_on_redirty() {
        let mut h = small();
        h.write(0);
        // Evict from L1: dirty copy now only in L2.
        h.read(4 * 64);
        h.read(8 * 64);
        // Re-dirty: L1 refills dirty, L2's copy stays dirty.
        h.write(0);
        let per_level = h.dirty_lines_by_level();
        assert!(per_level[0].contains(&0) && per_level[1].contains(&0));
        h.flush();
        assert_eq!(h.stats().dram_lines_written, 2);
        // The same state drained by natural eviction instead merges the
        // copies: stream three more set-0 lines through L1.
        let mut h2 = small();
        h2.write(0);
        h2.read(4 * 64);
        h2.read(8 * 64);
        h2.write(0);
        h2.read(12 * 64);
        h2.read(16 * 64);
        h2.read(20 * 64); // L1 evicts dirty 0 -> merges into dirty L2 copy
        h2.flush();
        assert_eq!(h2.stats().dram_lines_written, 1);
    }

    #[test]
    fn flush_resets_filters() {
        let mut h = small();
        h.read_run(0, 8);
        h.flush();
        // After flush everything is cold: L1 must not claim residual
        // hits.
        h.read(0);
        let s = h.stats();
        assert_eq!(s.dram_lines_read, 2);
        assert_eq!(s.levels[0].hits, 7);
    }

    /// High addresses (the deterministic trace base is 2^40) work via
    /// the window rebase, and stats match the (unrebased) reference.
    #[test]
    fn fast_path_rebases_high_addresses() {
        let cfgs = [CacheConfig::new(512, 2)];
        let mut fast = Hierarchy::new(&cfgs);
        let mut reference = Hierarchy::reference(&cfgs);
        let base = 1usize << 40;
        for i in 0..64 {
            fast.write(base + i * 8);
            reference.write(base + i * 8);
        }
        fast.read_run(base, 64);
        for i in 0..64 {
            reference.read(base + i * 8);
        }
        assert_same_state(&fast, &reference);
    }

    /// A stream spanning two 16 GiB windows cannot be packed: it must
    /// fail loudly, never alias. The window is also what keeps a line
    /// inside the 28 bits of a `u32` way below L1: the last line of the
    /// window must survive being a *victim* — evicted dirty from L1 into
    /// the last level, evicted again from there to DRAM — not just being
    /// probed.
    #[test]
    fn fast_path_rejects_cross_window_streams() {
        let mut h = Hierarchy::new(&[CacheConfig::new(512, 2)]);
        h.read(0); // fixes the window at [0, 16 GiB)
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            h.read(1usize << 40);
        }));
        assert!(r.is_err(), "cross-window address must fail loudly, not alias");

        // One set per level, so every line contends with every other.
        let cfgs = [CacheConfig::new(128, 2), CacheConfig::new(256, 4)];
        let (mut fast, mut reference) = (Hierarchy::new(&cfgs), Hierarchy::reference(&cfgs));
        let last = LINE_LIMIT - 1;
        let stream = [last, last - 1, last - 2, last - 3, last - 4, last];
        for (i, &line) in stream.iter().enumerate() {
            fast.line_rep(line, 1, i == 0);
            reference.line_rep(line, 1, i == 0);
            assert_same_state(&fast, &reference);
        }
        // Dirty `last` left L1 on the third access and the LLC on the
        // fifth: written back once, then fetched again.
        assert_eq!(fast.stats().dram_lines_written, 1);
        assert_eq!(fast.stats().dram_lines_read, 6);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fast.line_rep(LINE_LIMIT, 1, false);
        }));
        assert!(r.is_err(), "the first line past the window must be refused");
    }
}
