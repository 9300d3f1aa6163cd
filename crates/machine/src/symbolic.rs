//! Symbolic slab-level traffic summarization: plan-level analysis that
//! replays a schedule's *address structure* instead of its data, feeding
//! the cache simulator grouped, weighted line touches instead of one
//! probe per element.
//!
//! # How it works
//!
//! The plan-interpreter producer of [`crate::traffic::measure`] runs the
//! schedule for real — floating point, data movement, one `Mem` hook per
//! element — and replays every access through the hierarchy. But the
//! access *stream* of the regular schedule families (series passes,
//! fused sweeps) is a pure function of the plan: loop bounds, buffer
//! bases, and strides. This module walks the lowered
//! [`pdesched_core::plan::Plan`] with emitters that mirror each
//! executor's loop nest 1:1 (same hooks, same order, no data, no FP)
//! and compresses the stream before it reaches the simulator:
//!
//! 1. **Slots.** Within one x-iteration's body, maximal runs of adjacent
//!    same-(line, read/write) touches collapse into a *slot* carrying a
//!    touch count. Emitting a slot as one [`Hierarchy::read_rep`] /
//!    [`Hierarchy::write_rep`] is exactly the per-element stream (the
//!    rep API is bit-identical to repeated probes by construction).
//! 2. **Windows.** Within one row (a fixed y/z/component, the innermost
//!    x sweep), a maximal run of consecutive x's whose slot sequences
//!    agree in (line, rw) — weights may differ — forms a *window*. If
//!    the window is *certified* (see below) the whole window is emitted
//!    as one rep per slot with the weights summed across x's; otherwise
//!    each x's slots are emitted in order, which is the exact stream.
//!    Certification failures therefore degrade speed, never
//!    correctness.
//! 3. **Row templates.** A row's touch addresses are affine offsets
//!    from a handful of stream bases (the buffers it walks), so two
//!    rows whose bases agree per stream in line *alignment* produce
//!    touch streams that are exact per-stream line shifts of each other
//!    — slot shapes, window grouping, and line offsets carry over
//!    verbatim. Each emitter therefore captures one row per alignment
//!    class (a handful per pass), compiles it to windows of weighted
//!    line-offset slots, and replays the template for every other row
//!    of the class: no index math, no slot merging, no shape
//!    comparison. Only the window *certificates* depend on where the
//!    shifted lines land in the cache sets, so each template lazily
//!    resolves a certificate bitmap per set-residue signature of the
//!    bases and caches it. Rows whose template cannot be safely shifted
//!    (a touched cache line straddling two streams makes its offset
//!    ambiguous) are captured every time — slower, still exact.
//!
//! # Why grouped emission is exact
//!
//! The certificate: at window start, for every cache level, the number
//! of distinct window lines mapping to any one set is at most the
//! level's associativity. Window lines are the only lines touched while
//! the window runs, and every fill's LRU victim is then provably a
//! pre-window line (window stamps exceed all pre-window stamps, and a
//! set never needs to hold more window lines than it has ways) — so no
//! window line is evicted mid-window. Consequently only the window's
//! *first touches* can miss, in slot order, which is precisely the miss
//! sequence of the grouped emission; hit/miss counts, writebacks, and
//! the per-line dirty bits agree, the levels below L1 see an identical
//! access sequence, and the final LRU stamps have the same relative
//! order with the same total clock advance (equal touch counts). Future
//! behavior is a function of relative stamp order only, so the grouped
//! and per-element streams are indistinguishable to the simulator.
//! `tests/symbolic_crossval.rs` pins the resulting bit-identity across
//! variants, box sizes, and hierarchies.
//!
//! # Claims and fallback
//!
//! [`analyze`] walks the plan's phase metadata
//! ([`pdesched_core::plan::Plan::phase_infos`]) and claims every phase
//! of a `Series` or `Fuse` region; wavefront and overlapped-tile
//! regions are unclaimed (their tile interleavings are not mirrored
//! here). [`crate::traffic::measure`] uses these emitters only for a
//! fully claimed plan and the plan interpreter for everything else, so
//! `Engine::Symbolic` equals `Engine::Simulate` for *every* variant, by
//! construction.

use crate::traffic::{measure, BoxTraffic, Engine, Point};
use pdesched_cachesim::{CacheConfig, Hierarchy};
use pdesched_core::plan::{plan_for, zslab, AllocKind, Plan, RegionKind, Step};
use pdesched_core::{CompLoop, Variant};
use pdesched_kernels::{vel_comp, GHOST, NCOMP};
use pdesched_mesh::{trace_addr, IBox, IntVect};

/// What the plan-level analysis claims about one `(variant, n)` point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SymbolicAnalysis {
    /// Step-phases in the lowered plan.
    pub total_phases: usize,
    /// Phases the symbolic emitters provably cover (series and fused
    /// regions).
    pub claimed_phases: usize,
}

impl SymbolicAnalysis {
    /// True when every phase is claimed — the symbolic pipeline will
    /// run instead of the per-element simulator.
    pub fn fully_claimed(&self) -> bool {
        self.total_phases > 0 && self.claimed_phases == self.total_phases
    }
}

/// Analyze the lowered plan for `(variant, n^3 box, 1 thread)` — the
/// traced configuration — and report how many of its phases the
/// symbolic emitters claim.
pub fn analyze(variant: Variant, n: i32) -> SymbolicAnalysis {
    let plan = plan_for(variant, IntVect::splat(n), 1);
    let infos = plan.phase_infos();
    let claimed =
        infos.iter().filter(|p| matches!(p.kind, RegionKind::Series | RegionKind::Fuse)).count();
    SymbolicAnalysis { total_phases: infos.len(), claimed_phases: claimed }
}

/// Window-engine counters of one symbolic measurement.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SymbolicStats {
    /// Windows emitted grouped (certificate held): the collapse that
    /// pays for the analysis.
    pub grouped_windows: u64,
    /// Windows emitted per-x (certificate failed): exact but unsummed.
    pub exact_windows: u64,
    /// Rows captured and compiled (one per row class, plus unkeyable
    /// rows).
    pub captured_rows: u64,
    /// Rows emitted by replaying a cached template.
    pub replayed_rows: u64,
    /// `line_rep` calls issued — the compressed stream length the
    /// simulator actually sees (vs. the per-element access count).
    pub emitted_reps: u64,
    /// Replays whose residue signature had no cached certificate bitmap
    /// (computed fresh; cached when keyable and under the cap).
    pub cert_misses: u64,
}

/// [`measure`] for the hand lowering of one box under
/// [`Engine::Symbolic`], panicking where `measure` refuses. Frozen for
/// `benchmark/`, which cannot change in the PR that introduced
/// `measure`; new code calls `measure`.
pub fn measure_box_traffic_symbolic(
    variant: Variant,
    n: i32,
    configs: &[CacheConfig],
) -> BoxTraffic {
    let (members, _) = measure(&Point::hand(variant, n, configs), Engine::Symbolic)
        .unwrap_or_else(|e| panic!("{e}"));
    members[0]
}

/// Drive the whole symbolic emission for one measurement point into
/// `sink`, returning the box-repetition count `k` (divide the sink's
/// accumulated counters by it) and the window-engine counters. The
/// caller must have checked [`analyze`]`.fully_claimed()` — the
/// emitters cover only claimed plans. `configs` is every level geometry
/// the sink simulates (a fan-out sink: the front, then each last
/// level): a window is emitted grouped only when its certificate holds
/// at all of them, so the grouping is exact for every tail at once. The
/// emitted rep stream is a pure function of `(variant, n, configs)`,
/// independent of the sink.
pub(crate) fn emit_symbolic_stream(
    variant: Variant,
    n: i32,
    configs: &[CacheConfig],
    sink: &mut Hierarchy,
) -> (usize, SymbolicStats) {
    let cells = IBox::cube(n);
    let min_edge = cells.extent(0).min(cells.extent(1)).min(cells.extent(2));
    if let Err(e) = variant.validate_for_box(min_edge) {
        panic!("{e} ({cells:?})");
    }
    // Mirror the interpreter producer's deterministic trace layout for
    // one box exactly (`traffic::drive`): reset, k interleaved
    // (phi0, phi1) allocations, then per-box rewinds of the scratch
    // region — the emitted addresses must equal the real run's.
    trace_addr::reset();
    let k = crate::traffic::box_reps(n);
    let grown = cells.grown(GHOST);
    let pairs: Vec<(SymFab, SymFab)> =
        (0..k).map(|_| (SymFab::alloc(grown, NCOMP), SymFab::alloc(cells, NCOMP))).collect();
    let plan = plan_for(variant, cells.size(), 1);
    let mut rec = Recorder::new(sink, configs);
    let scratch = trace_addr::mark();
    for (phi0, phi1) in &pairs {
        trace_addr::rewind(scratch);
        emit_plan(&plan, phi0, phi1, cells, &mut rec);
    }
    rec.flush();
    let stats = SymbolicStats {
        grouped_windows: rec.grouped_windows,
        exact_windows: rec.exact_windows,
        captured_rows: rec.captured_rows,
        replayed_rows: rec.replayed_rows,
        emitted_reps: rec.emitted_reps,
        cert_misses: rec.cert_misses,
    };
    (k, stats)
}

/// Address-only view of a buffer: the layout metadata of
/// `pdesched_core::shared::SharedFab` (same index math, same trace
/// base) with no data behind it.
#[derive(Clone, Copy)]
struct SymFab {
    abase: usize,
    lo: IntVect,
    nx: usize,
    ny: usize,
    nz: usize,
    ncomp: usize,
}

impl SymFab {
    /// Draw the buffer's trace address, exactly as `FArrayBox::new`
    /// would (`num_pts * ncomp` values, 8 bytes each).
    fn alloc(region: IBox, ncomp: usize) -> SymFab {
        let s = region.size();
        let (nx, ny, nz) = (s[0] as usize, s[1] as usize, s[2] as usize);
        let abase = trace_addr::alloc(nx * ny * nz * ncomp * 8);
        SymFab { abase, lo: region.lo(), nx, ny, nz, ncomp }
    }

    #[inline(always)]
    fn index(&self, iv: IntVect, c: usize) -> usize {
        debug_assert!(c < self.ncomp);
        let x = (iv[0] - self.lo[0]) as usize;
        let y = (iv[1] - self.lo[1]) as usize;
        let z = (iv[2] - self.lo[2]) as usize;
        debug_assert!(x < self.nx && y < self.ny && z < self.nz);
        ((c * self.nz + z) * self.ny + y) * self.nx + x
    }

    #[inline(always)]
    fn addr(&self, i: usize) -> usize {
        self.abase + i * 8
    }

    #[inline(always)]
    fn stride(&self, d: usize) -> usize {
        match d {
            0 => 1,
            1 => self.nx,
            _ => self.nx * self.ny,
        }
    }

    /// The stream view of this buffer for a row whose touches are
    /// affine offsets from element `(iv, c)`.
    fn stream(&self, iv: IntVect, c: usize) -> StreamRow {
        StreamRow {
            lo: self.abase,
            hi: self.abase + self.nx * self.ny * self.nz * self.ncomp * 8,
            base: self.addr(self.index(iv, c)),
        }
    }
}

/// The stream view of a raw allocation `(base, bytes)` for a row whose
/// touches are affine offsets from `base + off`.
fn raw_stream((base, bytes): (usize, usize), off: usize) -> StreamRow {
    StreamRow { lo: base, hi: base + bytes, base: base + off }
}

/// One captured slot: a maximal run of adjacent same-(line, rw) touches
/// within one x-body, with the address of its first touch (for stream
/// attribution when the row is compiled into a template).
#[derive(Clone, Copy)]
struct CSlot {
    addr: usize,
    line: u64,
    write: bool,
    weight: u32,
}

/// One allocation a row's touches may fall into, with this row's base
/// address inside it. Every touch of a row sits at a fixed byte offset
/// from its stream's `base` (emitter address math is affine in the row
/// coordinates), so rows whose stream bases agree in line alignment and
/// set residue are line-shifted images of one another.
#[derive(Clone, Copy)]
struct StreamRow {
    lo: usize,
    hi: usize,
    base: usize,
}

/// One window-shape slot of a compiled row: `weight` touches (summed
/// across the window's x's) of the line at
/// `base_line(stream) + line_off`.
#[derive(Clone, Copy)]
struct TSlot {
    line_off: i64,
    weight: u32,
    stream: u8,
    write: bool,
}

/// One window of a compiled row: `xs` consecutive x's sharing the slot
/// shape `slots[slot_start..slot_start + nslots]`, with the per-x slot
/// weights at `perx[perx_start..]` for uncertified (per-x) emission.
#[derive(Clone, Copy)]
struct TWin {
    slot_start: u32,
    nslots: u32,
    perx_start: u32,
    xs: u32,
}

/// Multiply-xor hasher for the small integer keys of the template and
/// certificate maps: the default SipHash costs more than the lookups it
/// guards on the per-row fast path, and these keys are not
/// attacker-controlled.
#[derive(Default)]
struct IntHasher(u64);

impl std::hash::Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = mix64(self.0 ^ v);
    }
    fn write_u128(&mut self, v: u128) {
        self.0 = mix64(self.0 ^ v as u64 ^ mix64((v >> 64) as u64));
    }
}

/// Murmur3-style finalizer: full avalanche over 64 bits.
fn mix64(mut v: u64) -> u64 {
    v ^= v >> 33;
    v = v.wrapping_mul(0xff51_afd7_ed55_8ccd);
    v ^= v >> 33;
    v = v.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    v ^ (v >> 33)
}

type FastMap<K, V> = std::collections::HashMap<K, V, std::hash::BuildHasherDefault<IntHasher>>;

/// Upper bound on cached certificate bitmaps per template: residue
/// signatures that never repeat (huge set counts) must not grow the
/// map and churn allocations for nothing — past the cap, certificates
/// are recomputed into a scratch bitmap instead.
const CERT_CACHE_CAP: usize = 8192;

/// The compiled emission program of one row class (keyed by stream
/// base alignments, which fix slot shapes and window grouping). The
/// window certificates additionally depend on the bases' set residues,
/// so they are resolved lazily per residue combination and cached.
struct Template {
    slots: Vec<TSlot>,
    perx: Vec<u32>,
    wins: Vec<TWin>,
    /// Bitmask of stream indices the slots actually reference: the
    /// residue signature folds only these, so dead `base_lines` slots
    /// can never fragment the certificate cache.
    used: u8,
    certs: FastMap<u128, Box<[bool]>>,
}

/// Per-pass template store: row key -> compiled template, or `None` for
/// row classes that must be re-captured every time (a cache line
/// straddling two streams makes its offset ambiguous under shift).
#[derive(Default)]
struct RowMemo {
    map: FastMap<u64, Option<Template>>,
}

const MAX_STREAMS: usize = 8;

#[derive(Clone, Copy)]
struct LevelGeom {
    set_mask: u64,
    assoc: u32,
}

/// The row capture/replay engine: collects one row's touches into
/// slots, compiles the row into a [`Template`] (windows of consecutive
/// x's with identical slot shapes, emitted grouped when certified,
/// per-x otherwise), and replays templates for every later row of the
/// same class.
struct Recorder<'a> {
    h: &'a mut Hierarchy,
    line_shift: u32,
    levels: Vec<LevelGeom>,
    /// Union of every level's set mask (set counts are powers of two,
    /// so the per-level residues are all submasks of this).
    max_set_mask: u64,
    /// Captured slots of the row being recorded, x-major.
    cur: Vec<CSlot>,
    /// Slot count at the end of each captured x-body.
    xends: Vec<u32>,
    /// First slot index of the current x-body: touches never merge
    /// across an `end_x` boundary.
    xbase: usize,
    /// Certificate scratch: distinct lines of a window shape.
    lines: Vec<u64>,
    /// Scratch certificate bitmap for uncacheable residue signatures.
    certbm: Vec<bool>,
    /// Epoch-stamped per-set distinct-line counters, one array per
    /// level, so certification never clears whole arrays.
    epoch: u64,
    sets: Vec<Box<[(u64, u32)]>>,
    grouped_windows: u64,
    exact_windows: u64,
    captured_rows: u64,
    replayed_rows: u64,
    emitted_reps: u64,
    cert_misses: u64,
}

impl<'a> Recorder<'a> {
    fn new(h: &'a mut Hierarchy, configs: &[CacheConfig]) -> Self {
        let line_shift = configs[0].line.trailing_zeros();
        let levels = configs
            .iter()
            .map(|c| LevelGeom { set_mask: (c.sets() - 1) as u64, assoc: c.assoc as u32 })
            .collect::<Vec<_>>();
        let sets =
            configs.iter().map(|c| vec![(0u64, 0u32); c.sets()].into_boxed_slice()).collect();
        let max_set_mask = levels.iter().map(|l| l.set_mask).fold(0, |a, m| a | m);
        Recorder {
            h,
            line_shift,
            levels,
            max_set_mask,
            cur: Vec::with_capacity(4096),
            xends: Vec::with_capacity(256),
            xbase: 0,
            lines: Vec::with_capacity(64),
            certbm: Vec::with_capacity(64),
            epoch: 0,
            sets,
            grouped_windows: 0,
            exact_windows: 0,
            captured_rows: 0,
            replayed_rows: 0,
            emitted_reps: 0,
            cert_misses: 0,
        }
    }

    /// Run one row: replay its class's template when one exists, else
    /// capture the row through `body`, compile it, emit it, and store
    /// the template for the rest of the class.
    fn row(
        &mut self,
        memo: &mut RowMemo,
        flags: u64,
        streams: &[StreamRow],
        body: impl FnOnce(&mut Self),
    ) {
        debug_assert!(self.cur.is_empty() && self.xends.is_empty(), "row inside an open row");
        let mut bl = [0i64; MAX_STREAMS];
        for (i, s) in streams.iter().enumerate() {
            bl[i] = (s.base >> self.line_shift) as i64;
        }
        let key = self.row_key(flags, streams);
        match memo.map.get_mut(&key) {
            Some(Some(t)) => {
                self.replayed_rows += 1;
                self.replay(t, &bl);
            }
            Some(None) => {
                // Unsafe class: capture each row (exact, unstored).
                self.captured_rows += 1;
                body(self);
                let (mut t, _) = self.build_template(streams, &bl);
                self.replay(&mut t, &bl);
            }
            None => {
                self.captured_rows += 1;
                body(self);
                let (mut t, safe) = self.build_template(streams, &bl);
                self.replay(&mut t, &bl);
                memo.map.insert(key, safe.then_some(t));
            }
        }
    }

    /// The class key of a row: boundary flags plus each stream base's
    /// alignment within its cache line. Rows with equal keys have touch
    /// streams that are exact per-stream line shifts of each other —
    /// same slot shapes, same window grouping, same line offsets — so
    /// one compiled template serves the whole class. (Set residues are
    /// deliberately *not* keyed: they only affect the window
    /// certificates, which the template resolves per residue at replay.)
    fn row_key(&self, flags: u64, streams: &[StreamRow]) -> u64 {
        debug_assert!(streams.len() <= MAX_STREAMS && flags < 256);
        let align_bits = self.line_shift.saturating_sub(3).min(7);
        let mut key = flags;
        for s in streams {
            let align = (((s.base as u64) & ((1 << self.line_shift) - 1)) >> 3).min(127);
            key = (key << align_bits) | align;
        }
        key
    }

    /// The set-residue signature of a row's stream bases relative to an
    /// anchor stream, or `None` when it does not fit 128 bits (gigantic
    /// set counts). Every window certificate is a pure function of this
    /// signature: a window's set indices are `(bl[s] + off) & set_mask`
    /// per level, and shifting *all* bases by one delta rotates every
    /// set index by that delta — a bijection on sets (set counts are
    /// powers of two), which preserves distinct-lines-per-set counts
    /// and therefore every certificate. Only residues *relative* to the
    /// anchor can change a certificate, so rows sweeping all streams in
    /// lockstep share one cache entry. Streams the template never
    /// touches are excluded (`used`): dead base slots must not
    /// fragment the cache.
    fn residue_key(&self, base_lines: &[i64; MAX_STREAMS], used: u8) -> Option<u128> {
        let bits = 64 - self.max_set_mask.leading_zeros();
        if bits * MAX_STREAMS as u32 > 128 {
            return None;
        }
        if used == 0 {
            return Some(0);
        }
        let anchor = base_lines[used.trailing_zeros() as usize];
        let mut key = 0u128;
        for (s, &bl) in base_lines.iter().enumerate() {
            let rel = if used & (1 << s) != 0 {
                (bl.wrapping_sub(anchor) as u64) & self.max_set_mask
            } else {
                0
            };
            key = (key << bits) | rel as u128;
        }
        Some(key)
    }

    #[inline(always)]
    fn touch(&mut self, addr: usize, write: bool, n: u32) {
        let line = (addr >> self.line_shift) as u64;
        if self.cur.len() > self.xbase {
            if let Some(s) = self.cur.last_mut() {
                if s.line == line && s.write == write {
                    s.weight += n;
                    return;
                }
            }
        }
        self.cur.push(CSlot { addr, line, write, weight: n });
    }

    #[inline(always)]
    fn r(&mut self, addr: usize) {
        self.touch(addr, false, 1);
    }

    #[inline(always)]
    fn w(&mut self, addr: usize) {
        self.touch(addr, true, 1);
    }

    /// `len` consecutive 8-byte reads from `addr` (ascending), split at
    /// line boundaries — the slot image of `Mem::r_run`.
    #[inline(always)]
    fn r_run(&mut self, addr: usize, len: usize) {
        self.run(addr, len, false);
    }

    #[inline(always)]
    fn w_run(&mut self, addr: usize, len: usize) {
        self.run(addr, len, true);
    }

    #[inline(always)]
    fn run(&mut self, addr: usize, len: usize, write: bool) {
        let line = 1usize << self.line_shift;
        let mut a = addr;
        let mut rem = len;
        while rem > 0 {
            let in_line = ((line - (a & (line - 1))) / 8).min(rem);
            self.touch(a, write, in_line as u32);
            a += in_line * 8;
            rem -= in_line;
        }
    }

    /// Close one x-body: record its slot boundary.
    #[inline(always)]
    fn end_x(&mut self) {
        self.xends.push(self.cur.len() as u32);
        self.xbase = self.cur.len();
    }

    /// Phase boundary check: rows are self-contained (each row's
    /// emission happens inside [`Recorder::row`]), so nothing may be
    /// pending here.
    fn flush(&mut self) {
        debug_assert!(self.cur.is_empty() && self.xends.is_empty(), "flush inside an open row");
    }

    /// Compile the captured row into a template: group consecutive x's
    /// with identical (line, rw) slot shapes into windows, storing the
    /// shape once with summed weights plus the per-x weights (the
    /// uncertified fallback). Certification is *not* done here — it
    /// depends on set residues, which the class key leaves free, so
    /// [`Recorder::replay`] resolves it per residue signature. Returns
    /// the template and whether it is safe to replay shifted (no
    /// touched line straddles two streams).
    fn build_template(&mut self, streams: &[StreamRow], base_lines: &[i64]) -> (Template, bool) {
        debug_assert_eq!(self.xends.last().copied().unwrap_or(0) as usize, self.cur.len());
        let line_bytes = 1usize << self.line_shift;
        let mut safe = true;
        // Attribute each slot to the stream owning its first touch. A
        // slot's touches all share one line; when that line's bytes lie
        // in a single stream, the whole slot shifts with that stream.
        let mut slot_stream: Vec<u8> = Vec::with_capacity(self.cur.len());
        for s in &self.cur {
            let lb = (s.line as usize) << self.line_shift;
            let mut owner = None;
            let mut overlap = 0;
            for (si, st) in streams.iter().enumerate() {
                if lb < st.hi && st.lo < lb + line_bytes {
                    overlap += 1;
                }
                if s.addr >= st.lo && s.addr < st.hi {
                    owner = Some(si);
                }
            }
            let owner = owner.unwrap_or_else(|| {
                panic!("symbolic emitter touched {:#x} outside its declared streams", s.addr)
            });
            if overlap > 1 {
                safe = false;
            }
            slot_stream.push(owner as u8);
        }
        // Per-x slot ranges.
        let mut xr: Vec<(u32, u32)> = Vec::with_capacity(self.xends.len());
        let mut start = 0u32;
        for &e in &self.xends {
            xr.push((start, e));
            start = e;
        }
        let mut t = Template {
            slots: Vec::new(),
            perx: Vec::new(),
            wins: Vec::new(),
            used: 0,
            certs: FastMap::default(),
        };
        let mut i = 0;
        while i < xr.len() {
            let mut j = i + 1;
            while j < xr.len() && shape_eq(&self.cur, xr[i], xr[j]) {
                j += 1;
            }
            let (s0, s1) = (xr[i].0 as usize, xr[i].1 as usize);
            if s1 > s0 {
                let win = TWin {
                    slot_start: t.slots.len() as u32,
                    nslots: (s1 - s0) as u32,
                    perx_start: t.perx.len() as u32,
                    xs: (j - i) as u32,
                };
                for (k, si) in (s0..s1).enumerate() {
                    let s = self.cur[si];
                    let mut wsum = 0u32;
                    for x in &xr[i..j] {
                        let w = self.cur[x.0 as usize + k].weight;
                        wsum += w;
                        t.perx.push(w);
                    }
                    t.used |= 1 << slot_stream[si];
                    t.slots.push(TSlot {
                        line_off: s.line as i64 - base_lines[slot_stream[si] as usize],
                        weight: wsum,
                        stream: slot_stream[si],
                        write: s.write,
                    });
                }
                t.wins.push(win);
            }
            i = j;
        }
        self.cur.clear();
        self.xends.clear();
        self.xbase = 0;
        (t, safe)
    }

    /// Emit a compiled row with this row's per-stream base lines,
    /// resolving (and caching) the window certificates for this row's
    /// set-residue signature.
    fn replay(&mut self, t: &mut Template, base_lines: &[i64; MAX_STREAMS]) {
        // Split the borrow: emission reads the template, mutates only
        // the hierarchy side of `self`.
        let Template { slots, perx, wins, used, certs } = t;
        if let Some(rkey) = self.residue_key(base_lines, *used) {
            if let Some(bm) = certs.get(&rkey) {
                // `bm` keeps `certs` immutably borrowed, disjoint from
                // the `&mut self` receiver below.
                let bm: &[bool] = bm;
                self.emit_wins(wins, slots, perx, bm, base_lines);
                return;
            }
            self.cert_misses += 1;
            let bm = self.compute_certs(wins, slots, base_lines);
            self.emit_wins(wins, slots, perx, &bm, base_lines);
            if certs.len() < CERT_CACHE_CAP {
                certs.insert(rkey, bm.clone().into_boxed_slice());
            }
            self.certbm = bm;
        } else {
            let bm = self.compute_certs(wins, slots, base_lines);
            self.emit_wins(wins, slots, perx, &bm, base_lines);
            self.certbm = bm;
        }
    }

    /// The per-window certificates of a template under this row's base
    /// lines, built in the reusable scratch bitmap (taken and returned
    /// by the caller): single-x windows are trivially certified
    /// (grouped emission *is* the exact stream), wider ones run the
    /// window certificate on their shifted lines.
    fn compute_certs(
        &mut self,
        wins: &[TWin],
        slots: &[TSlot],
        base_lines: &[i64; MAX_STREAMS],
    ) -> Vec<bool> {
        let mut bm = std::mem::take(&mut self.certbm);
        bm.clear();
        for w in wins {
            let sl = &slots[w.slot_start as usize..(w.slot_start + w.nslots) as usize];
            bm.push(w.xs == 1 || self.certify_slots(sl, base_lines));
        }
        bm
    }

    /// Emit every window of a compiled row: certified windows as one
    /// rep per slot (weights pre-summed across x's), uncertified ones
    /// per-x from the stored per-x weights — the exact stream.
    fn emit_wins(
        &mut self,
        wins: &[TWin],
        slots: &[TSlot],
        perx: &[u32],
        certs: &[bool],
        base_lines: &[i64; MAX_STREAMS],
    ) {
        for (w, &cert) in wins.iter().zip(certs) {
            let sl = &slots[w.slot_start as usize..(w.slot_start + w.nslots) as usize];
            if cert {
                self.grouped_windows += 1;
                self.emitted_reps += sl.len() as u64;
                for s in sl {
                    let line = (base_lines[(s.stream & 7) as usize] + s.line_off) as u64;
                    self.h.line_rep(line, s.weight as usize, s.write);
                }
            } else {
                self.exact_windows += 1;
                self.emitted_reps += (w.xs * w.nslots) as u64;
                // perx is stored slot-major (all x's of slot 0, then
                // slot 1, ...); the exact stream is x-major.
                let xs = w.xs as usize;
                let p0 = w.perx_start as usize;
                for xi in 0..xs {
                    for (k, s) in sl.iter().enumerate() {
                        let weight = perx[p0 + k * xs + xi] as usize;
                        let line = (base_lines[(s.stream & 7) as usize] + s.line_off) as u64;
                        self.h.line_rep(line, weight, s.write);
                    }
                }
            }
        }
    }

    /// The window certificate over a compiled slot shape shifted to
    /// this row's base lines: at every level, no set holds more
    /// distinct window lines than it has ways. Uses the simulator's own
    /// mapping (`line & (sets - 1)`; the fast path's window rebase is
    /// set-aligned, so raw lines map identically).
    fn certify_slots(&mut self, slots: &[TSlot], base_lines: &[i64; MAX_STREAMS]) -> bool {
        self.lines.clear();
        for s in slots {
            let l = (base_lines[(s.stream & 7) as usize] + s.line_off) as u64;
            if !self.lines.contains(&l) {
                self.lines.push(l);
            }
        }
        self.epoch += 1;
        for li in 0..self.levels.len() {
            let LevelGeom { set_mask, assoc } = self.levels[li];
            let sets = &mut self.sets[li];
            for &line in &self.lines {
                let e = &mut sets[(line & set_mask) as usize];
                if e.0 != self.epoch {
                    *e = (self.epoch, 1);
                } else {
                    e.1 += 1;
                    if e.1 > assoc {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// Whether two x-bodies have the same (line, rw) slot shape (weights
/// may differ).
fn shape_eq(cur: &[CSlot], a: (u32, u32), b: (u32, u32)) -> bool {
    a.1 - a.0 == b.1 - b.0
        && cur[a.0 as usize..a.1 as usize]
            .iter()
            .zip(&cur[b.0 as usize..b.1 as usize])
            .all(|(p, q)| p.line == q.line && p.write == q.write)
}

/// Walk the plan exactly as `plan::execute` does at one thread:
/// materialize each region's buffers in declared order, then emit each
/// phase's steps with a cancellation checkpoint per phase.
fn emit_plan(plan: &Plan, phi0: &SymFab, phi1: &SymFab, cells: IBox, rec: &mut Recorder<'_>) {
    for region in &plan.regions {
        let mut fabs: Vec<SymFab> = Vec::new();
        let mut raws: Vec<(usize, usize)> = Vec::new();
        for a in &region.allocs {
            match a.kind {
                AllocKind::Fab { d, ncomp } => {
                    fabs.push(SymFab::alloc(cells.surrounding_faces(d), ncomp));
                }
                AllocKind::Raw { len } => raws.push((trace_addr::alloc(len * 8), len * 8)),
            }
        }
        for phase in &region.phases {
            pdesched_par::cancel::check_current();
            for step in &phase.work[0] {
                match region.kind {
                    RegionKind::Series => emit_series_step(step, phi0, phi1, cells, &fabs, rec),
                    RegionKind::Fuse => {
                        emit_fuse_step(step, phi0, phi1, cells, &fabs, raws[0], raws[1], rec)
                    }
                    _ => unreachable!("unclaimed region kind emitted symbolically"),
                }
            }
            rec.flush();
        }
    }
}

fn emit_series_step(
    step: &Step,
    phi0: &SymFab,
    phi1: &SymFab,
    cells: IBox,
    fabs: &[SymFab],
    rec: &mut Recorder<'_>,
) {
    let z0 = cells.lo()[2];
    match *step {
        Step::Flux1 { flux, d, zr, cli } => {
            let faces = cells.surrounding_faces(d);
            let z = z0 + zr.0..z0 + zr.1;
            if cli {
                emit_flux1_cli(phi0, &fabs[flux], faces, d, z, rec);
            } else {
                emit_flux1(phi0, &fabs[flux], faces, d, z, rec);
            }
        }
        Step::ExtractVel { flux, vel, d, zr } => {
            let faces = cells.surrounding_faces(d);
            emit_extract_vel(&fabs[flux], &fabs[vel], d, faces, z0 + zr.0..z0 + zr.1, rec);
        }
        Step::Flux2Clo { flux, vel, d, zr } => {
            let faces = cells.surrounding_faces(d);
            emit_flux2_clo(&fabs[flux], &fabs[vel], faces, z0 + zr.0..z0 + zr.1, rec);
        }
        Step::Flux2Cli { flux, d, zr } => {
            let faces = cells.surrounding_faces(d);
            emit_flux2_cli(&fabs[flux], d, faces, z0 + zr.0..z0 + zr.1, rec);
        }
        Step::Accumulate { flux, d, zr, comp } => {
            emit_accumulate(phi1, &fabs[flux], cells, d, z0 + zr.0..z0 + zr.1, comp, rec);
        }
        ref other => unreachable!("{other:?} in a series region"),
    }
}

#[allow(clippy::too_many_arguments)]
fn emit_fuse_step(
    step: &Step,
    phi0: &SymFab,
    phi1: &SymFab,
    cells: IBox,
    fabs: &[SymFab],
    ybase: (usize, usize),
    zbase: (usize, usize),
    rec: &mut Recorder<'_>,
) {
    match *step {
        Step::FillVel { vel, d, zr } => {
            let faces = cells.surrounding_faces(d);
            let z0 = faces.lo()[2];
            emit_fill_vel(phi0, &fabs[vel], faces, d, z0 + zr.0..z0 + zr.1, rec);
        }
        // The emitters mirror the kernels over any box, so a split
        // step's sub-slab emits exactly (boundary recompute included).
        Step::FusedClo { c, zr } => {
            emit_fused_clo(phi0, phi1, zslab(cells, zr), c, fabs, ybase, zbase, rec)
        }
        Step::FusedCli { zr } => emit_fused_cli(phi0, phi1, zslab(cells, zr), ybase, zbase, rec),
        ref other => unreachable!("{other:?} in a fuse region"),
    }
}

/// The address image of `shared::face_interp_at`: four stencil reads
/// along `d` (one run when `d == 0`).
#[inline(always)]
fn face_interp(rec: &mut Recorder<'_>, phi0: &SymFab, d: usize, f: IntVect, c: usize) {
    let stride = phi0.stride(d);
    let i0 = phi0.index(f, c);
    let base = phi0.abase;
    if stride == 1 {
        rec.r_run(base + (i0 - 2) * 8, 4);
    } else {
        rec.r(base + (i0 - 2 * stride) * 8);
        rec.r(base + (i0 - stride) * 8);
        rec.r(base + i0 * 8);
        rec.r(base + (i0 + stride) * 8);
    }
}

/// `shared::face_fluxes_all`: the NCOMP interpolations (flux products
/// emit no memory events).
#[inline(always)]
fn face_fluxes_all(rec: &mut Recorder<'_>, phi0: &SymFab, d: usize, f: IntVect) {
    for c in 0..NCOMP {
        face_interp(rec, phi0, d, f, c);
    }
}

/// `fuse::clo_flux`: one velocity read, plus the interpolation unless
/// `c` is the velocity component.
#[inline(always)]
fn clo_flux(rec: &mut Recorder<'_>, phi0: &SymFab, vel: &SymFab, d: usize, f: IntVect, c: usize) {
    rec.r(vel.addr(vel.index(f, 0)));
    if c != vel_comp(d) {
        face_interp(rec, phi0, d, f, c);
    }
}

fn emit_flux1(
    phi0: &SymFab,
    flux: &SymFab,
    faces: IBox,
    d: usize,
    zr: std::ops::Range<i32>,
    rec: &mut Recorder<'_>,
) {
    let (lo, hi) = (faces.lo(), faces.hi());
    let mut memo = RowMemo::default();
    for c in 0..NCOMP {
        for z in zr.clone() {
            for y in lo[1]..=hi[1] {
                let f0 = IntVect::new(lo[0], y, z);
                let streams = [phi0.stream(f0, c), flux.stream(f0, c)];
                rec.row(&mut memo, 0, &streams, |rec| {
                    for x in lo[0]..=hi[0] {
                        let f = IntVect::new(x, y, z);
                        face_interp(rec, phi0, d, f, c);
                        rec.w(flux.addr(flux.index(f, c)));
                        rec.end_x();
                    }
                });
            }
        }
    }
}

fn emit_flux1_cli(
    phi0: &SymFab,
    flux: &SymFab,
    faces: IBox,
    d: usize,
    zr: std::ops::Range<i32>,
    rec: &mut Recorder<'_>,
) {
    let (lo, hi) = (faces.lo(), faces.hi());
    let mut memo = RowMemo::default();
    for z in zr {
        for y in lo[1]..=hi[1] {
            let f0 = IntVect::new(lo[0], y, z);
            let streams = [phi0.stream(f0, 0), flux.stream(f0, 0)];
            rec.row(&mut memo, 0, &streams, |rec| {
                for x in lo[0]..=hi[0] {
                    let f = IntVect::new(x, y, z);
                    for c in 0..NCOMP {
                        face_interp(rec, phi0, d, f, c);
                        rec.w(flux.addr(flux.index(f, c)));
                    }
                    rec.end_x();
                }
            });
        }
    }
}

fn emit_extract_vel(
    flux: &SymFab,
    vel: &SymFab,
    d: usize,
    faces: IBox,
    zr: std::ops::Range<i32>,
    rec: &mut Recorder<'_>,
) {
    let (lo, hi) = (faces.lo(), faces.hi());
    let vc = vel_comp(d);
    let mut memo = RowMemo::default();
    for z in zr {
        for y in lo[1]..=hi[1] {
            let f0 = IntVect::new(lo[0], y, z);
            let streams = [flux.stream(f0, vc), vel.stream(f0, 0)];
            rec.row(&mut memo, 0, &streams, |rec| {
                for x in lo[0]..=hi[0] {
                    let f = IntVect::new(x, y, z);
                    rec.r(flux.addr(flux.index(f, vc)));
                    rec.w(vel.addr(vel.index(f, 0)));
                    rec.end_x();
                }
            });
        }
    }
}

fn emit_flux2_clo(
    flux: &SymFab,
    vel: &SymFab,
    faces: IBox,
    zr: std::ops::Range<i32>,
    rec: &mut Recorder<'_>,
) {
    let (lo, hi) = (faces.lo(), faces.hi());
    let mut memo = RowMemo::default();
    for c in 0..NCOMP {
        for z in zr.clone() {
            for y in lo[1]..=hi[1] {
                let f0 = IntVect::new(lo[0], y, z);
                let streams = [flux.stream(f0, c), vel.stream(f0, 0)];
                rec.row(&mut memo, 0, &streams, |rec| {
                    for x in lo[0]..=hi[0] {
                        let f = IntVect::new(x, y, z);
                        let fi = flux.index(f, c);
                        rec.r(flux.addr(fi));
                        rec.r(vel.addr(vel.index(f, 0)));
                        rec.w(flux.addr(fi));
                        rec.end_x();
                    }
                });
            }
        }
    }
}

fn emit_flux2_cli(
    flux: &SymFab,
    d: usize,
    faces: IBox,
    zr: std::ops::Range<i32>,
    rec: &mut Recorder<'_>,
) {
    let (lo, hi) = (faces.lo(), faces.hi());
    let vc = vel_comp(d);
    let mut memo = RowMemo::default();
    for z in zr {
        for y in lo[1]..=hi[1] {
            let f0 = IntVect::new(lo[0], y, z);
            let streams = [flux.stream(f0, 0)];
            rec.row(&mut memo, 0, &streams, |rec| {
                for x in lo[0]..=hi[0] {
                    let f = IntVect::new(x, y, z);
                    rec.r(flux.addr(flux.index(f, vc)));
                    for c in (0..NCOMP).filter(|&c| c != vc).chain(std::iter::once(vc)) {
                        let fi = flux.index(f, c);
                        rec.r(flux.addr(fi));
                        rec.w(flux.addr(fi));
                    }
                    rec.end_x();
                }
            });
        }
    }
}

fn emit_accumulate(
    phi1: &SymFab,
    flux: &SymFab,
    cells: IBox,
    d: usize,
    zr: std::ops::Range<i32>,
    comp: CompLoop,
    rec: &mut Recorder<'_>,
) {
    let (lo, hi) = (cells.lo(), cells.hi());
    let e = IntVect::basis(d);
    let flux_unit = flux.stride(d) == 1;
    #[inline(always)]
    fn do_cell(
        rec: &mut Recorder<'_>,
        phi1: &SymFab,
        flux: &SymFab,
        iv: IntVect,
        e: IntVect,
        c: usize,
        flux_unit: bool,
    ) {
        let flo = flux.index(iv, c);
        let pi = phi1.index(iv, c);
        if flux_unit {
            rec.r_run(flux.addr(flo), 2);
        } else {
            rec.r(flux.addr(flo));
            rec.r(flux.addr(flux.index(iv + e, c)));
        }
        rec.r(phi1.addr(pi));
        rec.w(phi1.addr(pi));
    }
    let mut memo = RowMemo::default();
    match comp {
        CompLoop::Outside => {
            for c in 0..NCOMP {
                for z in zr.clone() {
                    for y in lo[1]..=hi[1] {
                        let iv0 = IntVect::new(lo[0], y, z);
                        let streams = [flux.stream(iv0, c), phi1.stream(iv0, c)];
                        rec.row(&mut memo, 0, &streams, |rec| {
                            for x in lo[0]..=hi[0] {
                                do_cell(rec, phi1, flux, IntVect::new(x, y, z), e, c, flux_unit);
                                rec.end_x();
                            }
                        });
                    }
                }
            }
        }
        CompLoop::Inside => {
            for z in zr {
                for y in lo[1]..=hi[1] {
                    let iv0 = IntVect::new(lo[0], y, z);
                    let streams = [flux.stream(iv0, 0), phi1.stream(iv0, 0)];
                    rec.row(&mut memo, 0, &streams, |rec| {
                        for x in lo[0]..=hi[0] {
                            for c in 0..NCOMP {
                                do_cell(rec, phi1, flux, IntVect::new(x, y, z), e, c, flux_unit);
                            }
                            rec.end_x();
                        }
                    });
                }
            }
        }
    }
}

fn emit_fill_vel(
    phi0: &SymFab,
    vel: &SymFab,
    faces: IBox,
    d: usize,
    zr: std::ops::Range<i32>,
    rec: &mut Recorder<'_>,
) {
    let (lo, hi) = (faces.lo(), faces.hi());
    let vc = vel_comp(d);
    let mut memo = RowMemo::default();
    for z in zr {
        for y in lo[1]..=hi[1] {
            let f0 = IntVect::new(lo[0], y, z);
            let streams = [phi0.stream(f0, vc), vel.stream(f0, 0)];
            rec.row(&mut memo, 0, &streams, |rec| {
                for x in lo[0]..=hi[0] {
                    let f = IntVect::new(x, y, z);
                    face_interp(rec, phi0, d, f, vc);
                    rec.w(vel.addr(vel.index(f, 0)));
                    rec.end_x();
                }
            });
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn emit_fused_clo(
    phi0: &SymFab,
    phi1: &SymFab,
    cells: IBox,
    c: usize,
    vels: &[SymFab],
    ybase: (usize, usize),
    zbase: (usize, usize),
    rec: &mut Recorder<'_>,
) {
    let (lo, hi) = (cells.lo(), cells.hi());
    let nx = cells.extent(0) as usize;
    let (yb, zb) = (ybase.0, zbase.0);
    let mut memo = RowMemo::default();
    for z in lo[2]..=hi[2] {
        for y in lo[1]..=hi[1] {
            let iv0 = IntVect::new(lo[0], y, z);
            let streams = [
                phi0.stream(iv0, c),
                phi1.stream(iv0, c),
                vels[0].stream(iv0, 0),
                vels[1].stream(iv0, 0),
                vels[2].stream(iv0, 0),
                raw_stream(ybase, 0),
                raw_stream(zbase, (y - lo[1]) as usize * nx * 8),
            ];
            let flags = (y == lo[1]) as u64 | (((z == lo[2]) as u64) << 1);
            rec.row(&mut memo, flags, &streams, |rec| {
                for x in lo[0]..=hi[0] {
                    let iv = IntVect::new(x, y, z);
                    let xr = (x - lo[0]) as usize;
                    if x == lo[0] {
                        clo_flux(rec, phi0, &vels[0], 0, iv, c);
                    }
                    clo_flux(rec, phi0, &vels[0], 0, iv.shifted(0, 1), c);
                    if y == lo[1] {
                        clo_flux(rec, phi0, &vels[1], 1, iv, c);
                    } else {
                        rec.r(yb + xr * 8);
                    }
                    clo_flux(rec, phi0, &vels[1], 1, iv.shifted(1, 1), c);
                    rec.w(yb + xr * 8);
                    let zi = (y - lo[1]) as usize * nx + xr;
                    if z == lo[2] {
                        clo_flux(rec, phi0, &vels[2], 2, iv, c);
                    } else {
                        rec.r(zb + zi * 8);
                    }
                    clo_flux(rec, phi0, &vels[2], 2, iv.shifted(2, 1), c);
                    rec.w(zb + zi * 8);
                    let pi = phi1.index(iv, c);
                    rec.r(phi1.addr(pi));
                    rec.w(phi1.addr(pi));
                    rec.end_x();
                }
            });
        }
    }
}

fn emit_fused_cli(
    phi0: &SymFab,
    phi1: &SymFab,
    cells: IBox,
    ybase: (usize, usize),
    zbase: (usize, usize),
    rec: &mut Recorder<'_>,
) {
    let (lo, hi) = (cells.lo(), cells.hi());
    let nx = cells.extent(0) as usize;
    let (yb, zb) = (ybase.0, zbase.0);
    let mut memo = RowMemo::default();
    for z in lo[2]..=hi[2] {
        for y in lo[1]..=hi[1] {
            let iv0 = IntVect::new(lo[0], y, z);
            let streams = [
                phi0.stream(iv0, 0),
                phi1.stream(iv0, 0),
                raw_stream(ybase, 0),
                raw_stream(zbase, (y - lo[1]) as usize * nx * NCOMP * 8),
            ];
            let flags = (y == lo[1]) as u64 | (((z == lo[2]) as u64) << 1);
            rec.row(&mut memo, flags, &streams, |rec| {
                for x in lo[0]..=hi[0] {
                    let iv = IntVect::new(x, y, z);
                    let xr = (x - lo[0]) as usize;
                    if x == lo[0] {
                        face_fluxes_all(rec, phi0, 0, iv);
                    }
                    face_fluxes_all(rec, phi0, 0, iv.shifted(0, 1));
                    if y == lo[1] {
                        face_fluxes_all(rec, phi0, 1, iv);
                    } else {
                        rec.r_run(yb + xr * NCOMP * 8, NCOMP);
                    }
                    face_fluxes_all(rec, phi0, 1, iv.shifted(1, 1));
                    rec.w_run(yb + xr * NCOMP * 8, NCOMP);
                    let zi = ((y - lo[1]) as usize * nx + xr) * NCOMP;
                    if z == lo[2] {
                        face_fluxes_all(rec, phi0, 2, iv);
                    } else {
                        rec.r_run(zb + zi * 8, NCOMP);
                    }
                    face_fluxes_all(rec, phi0, 2, iv.shifted(2, 1));
                    rec.w_run(zb + zi * 8, NCOMP);
                    for c in 0..NCOMP {
                        let pi = phi1.index(iv, c);
                        rec.r(phi1.addr(pi));
                        rec.w(phi1.addr(pi));
                    }
                    rec.end_x();
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::measure_box_traffic;
    use pdesched_core::{Granularity, IntraTile};

    fn small() -> Vec<CacheConfig> {
        vec![CacheConfig::new(8 * 1024, 4), CacheConfig::new(64 * 1024, 8)]
    }

    fn big() -> Vec<CacheConfig> {
        vec![CacheConfig::new(32 * 1024, 8), CacheConfig::new(16 * 1024 * 1024, 16)]
    }

    #[test]
    fn recorder_merges_adjacent_same_line_touches() {
        let cfg = small();
        let mut h = Hierarchy::new(&cfg);
        let mut rec = Recorder::new(&mut h, &cfg);
        rec.r(0);
        rec.r(8); // same line, same rw: merges
        rec.w(16); // same line, different rw: new slot
        rec.r(64); // next line
        assert_eq!(rec.cur.len(), 3);
        assert_eq!((rec.cur[0].line, rec.cur[0].write, rec.cur[0].weight), (0, false, 2));
        assert_eq!((rec.cur[1].line, rec.cur[1].write, rec.cur[1].weight), (0, true, 1));
        assert_eq!((rec.cur[2].line, rec.cur[2].write, rec.cur[2].weight), (1, false, 1));
        // A run splits at the line boundary: 6 elements from byte 40 =
        // 3 in line 0, 3 in line 1. Neither part is adjacent to an
        // existing same-line slot, so both open new slots — slots merge
        // *adjacent* touches only, preserving the interleaving.
        rec.r_run(40, 6);
        assert_eq!(rec.cur.len(), 5);
        assert_eq!((rec.cur[3].line, rec.cur[3].write, rec.cur[3].weight), (0, false, 3));
        assert_eq!((rec.cur[4].line, rec.cur[4].write, rec.cur[4].weight), (1, false, 3));
        rec.end_x();
        // A touch adjacent to the previous x-body's last slot (same
        // line, same rw) must NOT merge across the x boundary: x-bodies
        // stay separable for window grouping.
        rec.r(72);
        assert_eq!(rec.cur.len(), 6);
        rec.end_x();
        // Finish the row through the template compiler so the touches
        // reach the hierarchy; both x-bodies lie in one declared stream.
        let streams = [StreamRow { lo: 0, hi: 4096, base: 0 }];
        let bl = [0i64; MAX_STREAMS];
        let (mut t, safe) = rec.build_template(&streams, &bl);
        assert!(safe);
        assert_eq!(t.wins.len(), 2, "two differently-shaped x-bodies = two windows");
        rec.replay(&mut t, &bl);
        rec.flush();
        let s = rec.h.stats();
        assert_eq!((s.reads, s.writes), (10, 1));
    }

    #[test]
    fn template_replay_is_a_line_shifted_image_of_capture() {
        // Two rows of one class (bases one line apart, same alignment
        // and set residue parity for both hierarchies' sets) must
        // produce the same traffic whether each is captured or the
        // second replays the first's template.
        let cfg = small();
        let sets0 = cfg[0].sets();
        let shift_bytes = 64 * sets0 * 8; // preserves every set residue
        let drive = |use_memo: bool| {
            let mut h = Hierarchy::new(&cfg);
            let mut rec = Recorder::new(&mut h, &cfg);
            let mut memo = RowMemo::default();
            let mut fresh = RowMemo::default();
            for row in 0..2usize {
                let base = (1 << 20) + row * shift_bytes;
                let streams = [StreamRow { lo: base, hi: base + 4096, base }];
                let m = if use_memo { &mut memo } else { &mut fresh };
                rec.row(m, 0, &streams, |rec| {
                    for x in 0..32 {
                        rec.r_run(base + x * 16, 2);
                        rec.w(base + 2048 + x * 8);
                        rec.end_x();
                    }
                });
                if !use_memo {
                    fresh = RowMemo::default();
                }
            }
            rec.flush();
            h.flush();
            h.stats()
        };
        let (a, b) = (drive(true), drive(false));
        assert_eq!(a.reads, b.reads);
        assert_eq!(a.writes, b.writes);
        assert_eq!(a.levels, b.levels);
        assert_eq!(a.dram_lines_read, b.dram_lines_read);
        assert_eq!(a.dram_lines_written, b.dram_lines_written);
    }

    /// Diagnostic (run with `--ignored --nocapture` in release): row
    /// class hit rates and window collapse at the bench point.
    #[test]
    #[ignore]
    fn row_class_hit_rates_at_n64() {
        for variant in [Variant::baseline(), Variant::shift_fuse()] {
            let t0 = std::time::Instant::now();
            let s = emit_symbolic_stream(variant, 64, &small(), &mut Hierarchy::new(&small())).1;
            println!(
                "{variant}: grouped {} exact {} captured {} replayed {} reps {} cert_misses {} in {:.3}s",
                s.grouped_windows,
                s.exact_windows,
                s.captured_rows,
                s.replayed_rows,
                s.emitted_reps,
                s.cert_misses,
                t0.elapsed().as_secs_f64()
            );
        }
    }

    #[test]
    fn analysis_claims_series_and_fuse_only() {
        assert!(analyze(Variant::baseline(), 8).fully_claimed());
        assert!(analyze(Variant::shift_fuse(), 8).fully_claimed());
        let wf = Variant::blocked_wavefront(CompLoop::Inside, 4);
        let a = analyze(wf, 8);
        assert_eq!(a.claimed_phases, 0, "wavefront phases must not be claimed");
        assert!(!a.fully_claimed());
        let ot = Variant::overlapped(IntraTile::ShiftFuse, 4, Granularity::WithinBox);
        assert_eq!(analyze(ot, 8).claimed_phases, 0);
    }

    #[test]
    fn symbolic_equals_simulate_small() {
        for variant in [Variant::baseline(), Variant::shift_fuse()] {
            for cfg in [small(), big()] {
                let sym = measure_box_traffic_symbolic(variant, 12, &cfg);
                let sim = measure_box_traffic(variant, 12, &cfg);
                assert_eq!(sym, sim, "{variant}");
            }
        }
    }

    #[test]
    fn windows_actually_group() {
        // The collapse that makes the pipeline fast must engage on the
        // regular interiors: far more grouped than exact windows.
        let s =
            emit_symbolic_stream(Variant::baseline(), 16, &big(), &mut Hierarchy::new(&big())).1;
        assert!(s.grouped_windows > 0, "{s:?}");
        assert!(s.grouped_windows > s.exact_windows, "{s:?}");
    }
}
