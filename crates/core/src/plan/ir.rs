//! The typed plan IR: regions, phases, steps, alloc events, and the
//! per-phase footprint metadata plan-level analyses consume.
//!
//! Nothing in this module executes or transforms anything — it is the
//! shared vocabulary of [`super::lower`] (which produces plans),
//! [`super::passes`] (which rewrites them), [`super::verify`] (which
//! checks rewrites), and the interpreter (which runs them).

use crate::storage::TempStorage;
use crate::variant::{CompLoop, Variant};
use pdesched_mesh::{IBox, IntVect};
use std::fmt::Write as _;

/// Which executor family's buffer/step vocabulary a region uses.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RegionKind {
    /// One direction of the series-of-loops schedule.
    Series,
    /// A serial fused sweep over the whole box.
    Fuse,
    /// Wavefronts of tiles through shared co-dimension caches.
    Wavefront,
    /// Independent overlapped tiles, each run through the plan's
    /// [`Plan::tile_plans`] entry for its extent.
    Overlap,
}

/// A temporary buffer the region materializes on entry, in declared
/// order (the order *is* the trace-address assignment).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AllocEvent {
    /// Human-readable role for plan dumps ("flux", "vel_x", …).
    pub role: &'static str,
    pub kind: AllocKind,
}

/// Shape of a declared temporary.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AllocKind {
    /// A face-centered array over `cells.surrounding_faces(d)`.
    Fab { d: usize, ncomp: usize },
    /// A raw `f64` cache of `len` values (carry line/plane caches).
    Raw { len: usize },
}

/// One unit of work for one thread. Boxes and z-ranges are stored in
/// *canonical* coordinates (box low corner at the origin); the
/// interpreter shifts by the actual box's low corner, so one plan serves
/// every box of the same extents.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Step {
    /// Series face-interpolation pass over a z-slab of direction `d`'s
    /// faces (CLO component-outer or CLI component-inner order).
    Flux1 { flux: usize, d: usize, zr: (i32, i32), cli: bool },
    /// Copy the velocity component out of the flux temporary.
    ExtractVel { flux: usize, vel: usize, d: usize, zr: (i32, i32) },
    /// Series flux product against the velocity temporary (CLO).
    Flux2Clo { flux: usize, vel: usize, d: usize, zr: (i32, i32) },
    /// Series flux product with per-face velocity reads (CLI).
    Flux2Cli { flux: usize, d: usize, zr: (i32, i32) },
    /// Series divergence accumulation over a z-slab of cells.
    Accumulate { flux: usize, d: usize, zr: (i32, i32), comp: CompLoop },
    /// Fill a z-slab of one direction's velocity face array.
    FillVel { vel: usize, d: usize, zr: (i32, i32) },
    /// One component's fused sweep over a z-slab (CLO). A full-range
    /// `zr` is the hand lowering; the cross-box fusion pass splits it.
    /// At each split boundary the sweep recomputes one z-face flux
    /// plane instead of reading the carry cache — a pure function of
    /// phi0, so the split is bit-exact (the overlapped-tile tradeoff,
    /// applied in one dimension).
    FusedClo { c: usize, zr: (i32, i32) },
    /// The all-components fused sweep over a z-slab (CLI); `zr` as in
    /// [`Step::FusedClo`].
    FusedCli { zr: (i32, i32) },
    /// A contiguous span of one wavefront's tiles (`comp` selects the
    /// CLO component, `None` means CLI). Tile ids decode against the
    /// plan's tile size.
    WfSpan { group: u32, start: u32, len: u32, comp: Option<u8> },
    /// A contiguous span of overlapped tiles owned by one thread, each
    /// run serially through its tile plan, carrying the number of
    /// redundantly recomputed surface faces.
    OtTiles { start: u32, len: u32, recompute_faces: usize },
}

/// Per-thread work lists (`work.len() == Plan::nthreads`) plus an
/// explicit barrier point. Barriers emit no memory events, so they are
/// free at `nthreads == 1` where tracing happens.
#[derive(Clone, Debug)]
pub struct Phase {
    pub work: Vec<Vec<Step>>,
    pub barrier_after: bool,
}

/// A buffer scope: the region's temporaries are materialized on entry
/// (in declared order) and dropped on exit.
#[derive(Clone, Debug)]
pub struct RegionPlan {
    pub kind: RegionKind,
    pub allocs: Vec<AllocEvent>,
    pub phases: Vec<Phase>,
}

/// A lowered schedule for one `(Variant, box extents, nthreads)` triple.
#[derive(Clone, Debug)]
pub struct Plan {
    pub variant: Variant,
    /// Box extents this plan was lowered for.
    pub size: IntVect,
    /// Effective thread count (after granularity gating and tile
    /// clamping) — the length of every phase's `work`.
    pub nthreads: usize,
    pub regions: Vec<RegionPlan>,
    /// Wavefront groups of flattened tile ids (`WfSpan` indexes these).
    pub wf_groups: Vec<Vec<u32>>,
    /// Tile edge used to decode `WfSpan`/`OtTiles` ids (0 when unused).
    pub tile: i32,
    /// Overlapped tiles only (empty otherwise): the serial plan of the
    /// intra-tile schedule ([`Variant::tile_schedule`]) for each distinct
    /// tile extent, lowered once with the tiled plan. Every `OtTiles`
    /// tile runs the entry whose `size` matches its own.
    pub tile_plans: Vec<Plan>,
    /// Temporary storage computed from plan-declared buffer liveness;
    /// equals what the executors historically measured (and the Table I
    /// formulas in [`crate::storage::expected`] on cube boxes).
    pub storage: TempStorage,
    /// Pass provenance: the name of every [`super::passes::Pass`] applied,
    /// in application order. Empty for a hand lowering — the empty list
    /// is what keeps pass-free cache keys byte-identical to the
    /// pre-pipeline format.
    pub passes: Vec<String>,
    /// Cross-box interleave factor (1 = none). Set by the cross-box
    /// fusion pass; [`super::execute_pair`] interleaves this many
    /// neighboring boxes phase by phase. Single-box execution ignores it.
    pub interleave: usize,
}

/// The identity of a serial plan's access stream, from
/// [`Plan::stream`]: everything a one-thread [`super::execute`] or
/// [`super::execute_pair`] of the plan reads, and nothing else. Plans
/// with equal streams emit the same memory events in the same order on
/// the same boxes, so a traffic measurement of one is a measurement of
/// the other. Equality is full structural equality; the `Hash` only
/// places a stream in a table.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Stream {
    size: IntVect,
    /// The component placement the wavefront caches are sized by.
    comp: CompLoop,
    tile: i32,
    wf_groups: Vec<Vec<u32>>,
    /// Whether a box pair runs interleaved or one box after the other.
    interleave: usize,
    regions: Vec<RegionStream>,
    tile_plans: Vec<Stream>,
}

/// One region of a [`Stream`]: its kind, its buffers' shapes in
/// allocation order, and the steps of all its phases in order.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct RegionStream {
    kind: RegionKind,
    allocs: Vec<AllocKind>,
    steps: Vec<Step>,
}

impl Plan {
    /// The identity of this plan's one-thread access stream (see
    /// [`Stream`]). A region's phases become one step list: at one thread
    /// a phase boundary and its barrier emit no event. Left out, as
    /// labels the interpreter never reads: alloc roles, the recompute
    /// count [`Step::OtTiles`] carries, the pass provenance, the storage
    /// accounting, and every variant field but the component placement
    /// (the granularity among them).
    ///
    /// Panics unless the plan is serial (`nthreads == 1`), the
    /// configuration traffic is measured in.
    pub fn stream(&self) -> Stream {
        assert_eq!(self.nthreads, 1, "a stream identity describes a serial plan");
        Stream {
            size: self.size,
            comp: self.variant.comp,
            tile: self.tile,
            wf_groups: self.wf_groups.clone(),
            interleave: self.interleave,
            regions: self
                .regions
                .iter()
                .map(|r| RegionStream {
                    kind: r.kind,
                    allocs: r.allocs.iter().map(|a| a.kind).collect(),
                    steps: r
                        .phases
                        .iter()
                        .flat_map(|p| &p.work[0])
                        .map(|&s| match s {
                            Step::OtTiles { start, len, .. } => {
                                Step::OtTiles { start, len, recompute_faces: 0 }
                            }
                            s => s,
                        })
                        .collect(),
                })
                .collect(),
            tile_plans: self.tile_plans.iter().map(Plan::stream).collect(),
        }
    }

    /// The tile plan lowered for tile extents `size`.
    pub(crate) fn tile_plan(&self, size: IntVect) -> &Plan {
        self.tile_plans.iter().find(|p| p.size == size).expect("tile plan for every tile extent")
    }

    /// Total steps over all regions, phases, and threads.
    pub fn step_count(&self) -> usize {
        self.regions
            .iter()
            .flat_map(|r| r.phases.iter())
            .flat_map(|p| p.work.iter())
            .map(Vec::len)
            .sum()
    }

    /// Number of barrier points.
    pub fn barrier_count(&self) -> usize {
        self.regions.iter().flat_map(|r| r.phases.iter()).filter(|p| p.barrier_after).count()
    }

    /// Total phases over all regions.
    pub fn phase_count(&self) -> usize {
        self.regions.iter().map(|r| r.phases.len()).sum()
    }

    /// The comma-joined pass names (empty string = hand lowering) — the
    /// pass-provenance component of plan and store keys.
    pub fn pass_key(&self) -> String {
        self.passes.join(",")
    }

    /// Redundantly recomputed faces: tile-surface faces of overlapped
    /// tiles, plus — in pass-split fused sweeps — the z-face flux plane
    /// each non-initial slab recomputes instead of reading the carry
    /// cache (one component's plane for `FusedClo`, all components' for
    /// `FusedCli`). Zero for hand lowerings of the recomputation-free
    /// categories.
    pub fn recompute_faces(&self) -> usize {
        let plane = (self.size[0] * self.size[1]) as usize;
        self.regions
            .iter()
            .flat_map(|r| r.phases.iter())
            .flat_map(|p| p.work.iter())
            .flatten()
            .map(|s| match s {
                Step::OtTiles { recompute_faces, .. } => *recompute_faces,
                Step::FusedClo { zr, .. } if zr.0 > 0 => plane,
                Step::FusedCli { zr } if zr.0 > 0 => pdesched_kernels::NCOMP * plane,
                _ => 0,
            })
            .sum()
    }

    /// Render the plan for `repro plan` dumps: buffers, phases, barriers,
    /// and recompute regions.
    pub fn render(&self) -> String {
        let s = self.size;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Plan: '{}' on {}x{}x{} cells, {} thread(s)",
            self.variant, s[0], s[1], s[2], self.nthreads
        );
        if self.passes.is_empty() {
            let _ = writeln!(
                out,
                "cache key: (variant, box extents, effective threads = {})",
                self.nthreads
            );
        } else {
            let _ = writeln!(
                out,
                "cache key: (variant, box extents, effective threads = {}, passes = [{}])",
                self.nthreads,
                self.pass_key()
            );
            if self.interleave > 1 {
                let _ = writeln!(out, "cross-box interleave: {} boxes", self.interleave);
            }
        }
        let _ = writeln!(
            out,
            "temp storage: flux {} f64, vel {} f64 ({} bytes)",
            self.storage.flux_f64,
            self.storage.vel_f64,
            self.storage.bytes()
        );
        let _ = writeln!(
            out,
            "steps: {}, barriers: {}, recompute faces: {}",
            self.step_count(),
            self.barrier_count(),
            self.recompute_faces()
        );
        let cells = canonical(self.size);
        for (ri, region) in self.regions.iter().enumerate() {
            let kind = match region.kind {
                RegionKind::Series => "series",
                RegionKind::Fuse => "fuse",
                RegionKind::Wavefront => "wavefront",
                RegionKind::Overlap => "overlap",
            };
            let extra = match region.kind {
                RegionKind::Wavefront => {
                    format!(" ({} wavefronts of {}-tiles)", self.wf_groups.len(), self.tile)
                }
                RegionKind::Overlap => format!(" ({}-tiles)", self.tile),
                _ => String::new(),
            };
            let _ = writeln!(out, "region {}/{}: {kind}{extra}", ri + 1, self.regions.len());
            for (bi, a) in region.allocs.iter().enumerate() {
                let desc = match a.kind {
                    AllocKind::Fab { d, ncomp } => {
                        let faces = cells.surrounding_faces(d);
                        format!("face array over {:?}, {} comp", faces, ncomp)
                    }
                    AllocKind::Raw { len } => format!("raw cache, {len} f64"),
                };
                let _ = writeln!(out, "  buf[{bi}] {}: {desc}", a.role);
            }
            const MAX_PHASES: usize = 16;
            for (pi, phase) in region.phases.iter().take(MAX_PHASES).enumerate() {
                let mut kinds: Vec<(&'static str, usize)> = Vec::new();
                for step in phase.work.iter().flatten() {
                    let label = step_label(step);
                    match kinds.iter_mut().find(|(l, _)| *l == label) {
                        Some((_, n)) => *n += 1,
                        None => kinds.push((label, 1)),
                    }
                }
                let kinds =
                    kinds.iter().map(|(l, n)| format!("{l} x{n}")).collect::<Vec<_>>().join(", ");
                let bar = if phase.barrier_after { ", barrier" } else { "" };
                let _ = writeln!(out, "  phase {}: [{kinds}]{bar}", pi + 1);
            }
            if region.phases.len() > MAX_PHASES {
                let _ = writeln!(out, "  ... ({} more phases)", region.phases.len() - MAX_PHASES);
            }
        }
        out
    }
}

pub(crate) fn step_label(step: &Step) -> &'static str {
    match step {
        Step::Flux1 { .. } => "flux1",
        Step::ExtractVel { .. } => "extract-vel",
        Step::Flux2Clo { .. } => "flux2-clo",
        Step::Flux2Cli { .. } => "flux2-cli",
        Step::Accumulate { .. } => "accumulate",
        Step::FillVel { .. } => "fill-vel",
        Step::FusedClo { .. } => "fused-clo",
        Step::FusedCli { .. } => "fused-cli",
        Step::WfSpan { .. } => "wf-span",
        Step::OtTiles { .. } => "ot-tiles",
    }
}

/// The canonical box for `size`: low corner at the origin. Lowering
/// happens in canonical coordinates; the interpreter shifts.
pub(crate) fn canonical(size: IntVect) -> IBox {
    IBox::new(IntVect::ZERO, size - IntVect::splat(1))
}

/// The z-slab of `cells` covering plan-relative rows `zr.0..zr.1`
/// (relative to the box's low z corner, like every step's z-range).
pub fn zslab(cells: IBox, zr: (i32, i32)) -> IBox {
    let (lo, hi) = (cells.lo(), cells.hi());
    IBox::new(
        IntVect::new(lo[0], lo[1], lo[2] + zr.0),
        IntVect::new(hi[0], hi[1], lo[2] + zr.1 - 1),
    )
}

/// Decode flattened tile id `id` of the `tile`-tiling of `cells`,
/// matching `IBox::tiles` order (x fastest).
pub(crate) fn tile_box(cells: IBox, tile: i32, id: u32) -> IBox {
    let counts = cells.tile_counts(tile);
    let id = id as i32;
    let tx = id % counts[0];
    let ty = (id / counts[0]) % counts[1];
    let tz = id / (counts[0] * counts[1]);
    let lo = cells.lo() + IntVect::new(tx * tile, ty * tile, tz * tile);
    let hi = IntVect::new(
        (lo[0] + tile - 1).min(cells.hi()[0]),
        (lo[1] + tile - 1).min(cells.hi()[1]),
        (lo[2] + tile - 1).min(cells.hi()[2]),
    );
    IBox::new(lo, hi)
}
