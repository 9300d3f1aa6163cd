//! The four category lowerings: `(Variant, box extents, nthreads)` →
//! hand-written [`Plan`]s whose step streams reproduce the legacy
//! executors exactly (the access-order guarantee in [`super`]'s docs).
//!
//! Everything here produces *pass-free* plans (`Plan::passes` empty,
//! `interleave == 1`); schedule transformations live in
//! [`super::passes`].

use super::ir::{
    canonical, tile_box, AllocEvent, AllocKind, Phase, Plan, RegionKind, RegionPlan, Step,
};
use crate::storage::TempStorage;
use crate::variant::{Category, CompLoop, Granularity, Variant};
use crate::wavefront::wavefront_id_groups;
use pdesched_kernels::NCOMP;
use pdesched_mesh::{IntVect, DIM};
use pdesched_par::static_block;

/// The thread count a plan actually runs with: `P >= Box` schedules run
/// serially inside the box, and overlapped tiles clamp to the tile
/// count. This is the thread component of the cache key.
pub fn effective_threads(variant: Variant, size: IntVect, nthreads: usize) -> usize {
    let nt = if variant.gran == Granularity::WithinBox { nthreads.max(1) } else { 1 };
    match variant.category {
        Category::OverlappedTile => {
            let counts = canonical(size).tile_counts(variant.tile_size());
            let total = (counts[0] * counts[1] * counts[2]) as usize;
            nt.min(total).max(1)
        }
        _ => nt,
    }
}

fn slab(tid: usize, nt: usize, total: i32) -> Option<(i32, i32)> {
    let r = static_block(tid, nt, total as usize);
    (r.start < r.end).then_some((r.start as i32, r.end as i32))
}

/// A phase whose work is one z-slab step per thread.
fn slab_phase(nt: usize, total: i32, mk: impl Fn((i32, i32)) -> Step) -> Phase {
    Phase {
        work: (0..nt).map(|tid| slab(tid, nt, total).map(&mk).into_iter().collect()).collect(),
        barrier_after: true,
    }
}

fn lower_series(variant: Variant, size: IntVect, nt: usize) -> (Vec<RegionPlan>, TempStorage) {
    let cells = canonical(size);
    let comp = variant.comp;
    let mut regions = Vec::new();
    let mut mf = 0usize;
    for d in 0..DIM {
        let faces = cells.surrounding_faces(d);
        mf = mf.max(faces.num_pts());
        let mut allocs =
            vec![AllocEvent { role: "flux", kind: AllocKind::Fab { d, ncomp: NCOMP } }];
        let fz = faces.extent(2);
        let cz = cells.extent(2);
        let mut phases = Vec::new();
        match comp {
            CompLoop::Outside => {
                allocs.push(AllocEvent { role: "vel", kind: AllocKind::Fab { d, ncomp: 1 } });
                phases.push(slab_phase(nt, fz, |zr| Step::Flux1 { flux: 0, d, zr, cli: false }));
                phases.push(slab_phase(nt, fz, |zr| Step::ExtractVel { flux: 0, vel: 1, d, zr }));
                phases.push(slab_phase(nt, fz, |zr| Step::Flux2Clo { flux: 0, vel: 1, d, zr }));
            }
            CompLoop::Inside => {
                phases.push(slab_phase(nt, fz, |zr| Step::Flux1 { flux: 0, d, zr, cli: true }));
                phases.push(slab_phase(nt, fz, |zr| Step::Flux2Cli { flux: 0, d, zr }));
            }
        }
        phases.push(slab_phase(nt, cz, |zr| Step::Accumulate { flux: 0, d, zr, comp }));
        regions.push(RegionPlan { kind: RegionKind::Series, allocs, phases });
    }
    let storage = TempStorage {
        flux_f64: NCOMP * mf,
        vel_f64: if comp == CompLoop::Outside { mf } else { 0 },
    };
    (regions, storage)
}

const VEL_ROLES: [&str; 3] = ["vel_x", "vel_y", "vel_z"];

fn lower_fuse(variant: Variant, size: IntVect) -> (Vec<RegionPlan>, TempStorage) {
    let cells = canonical(size);
    let comp = variant.comp;
    let kc = comp.cache_components();
    let nx = cells.extent(0) as usize;
    let ny = cells.extent(1) as usize;
    let mut allocs = vec![
        AllocEvent { role: "ycarry", kind: AllocKind::Raw { len: nx * kc } },
        AllocEvent { role: "zcarry", kind: AllocKind::Raw { len: nx * ny * kc } },
    ];
    let mut steps = Vec::new();
    let mut vel = 0usize;
    match comp {
        CompLoop::Outside => {
            for (d, role) in VEL_ROLES.iter().enumerate() {
                let faces = cells.surrounding_faces(d);
                vel += faces.num_pts();
                allocs.push(AllocEvent { role, kind: AllocKind::Fab { d, ncomp: 1 } });
                steps.push(Step::FillVel { vel: d, d, zr: (0, faces.extent(2)) });
            }
            for c in 0..NCOMP {
                steps.push(Step::FusedClo { c, zr: (0, cells.extent(2)) });
            }
        }
        CompLoop::Inside => steps.push(Step::FusedCli { zr: (0, cells.extent(2)) }),
    }
    // Fused sweeps are serial inside the box (their parallelism lives at
    // the box level), so the single phase carries one thread's work.
    let phases = vec![Phase { work: vec![steps], barrier_after: false }];
    let storage = TempStorage { flux_f64: 2 * kc + nx * kc + nx * ny * kc, vel_f64: vel };
    (vec![RegionPlan { kind: RegionKind::Fuse, allocs, phases }], storage)
}

fn lower_wavefront(
    variant: Variant,
    size: IntVect,
    nt: usize,
    tile: i32,
) -> (Vec<RegionPlan>, Vec<Vec<u32>>, TempStorage) {
    let cells = canonical(size);
    let comp = variant.comp;
    let kc = comp.cache_components();
    let nx = cells.extent(0) as usize;
    let ny = cells.extent(1) as usize;
    let nz = cells.extent(2) as usize;
    let mut allocs = vec![
        AllocEvent { role: "xcache", kind: AllocKind::Raw { len: ny * nz * kc } },
        AllocEvent { role: "ycache", kind: AllocKind::Raw { len: nx * nz * kc } },
        AllocEvent { role: "zcache", kind: AllocKind::Raw { len: nx * ny * kc } },
    ];
    let mut phases = Vec::new();
    let mut vel = 0usize;
    if comp == CompLoop::Outside {
        for (d, role) in VEL_ROLES.iter().enumerate() {
            vel += cells.surrounding_faces(d).num_pts();
            allocs.push(AllocEvent { role, kind: AllocKind::Fab { d, ncomp: 1 } });
        }
        // Velocity fill: every thread fills a z-slab of each direction's
        // face array, then a barrier publishes them.
        let work = (0..nt)
            .map(|tid| {
                (0..DIM)
                    .filter_map(|d| {
                        slab(tid, nt, cells.surrounding_faces(d).extent(2))
                            .map(|zr| Step::FillVel { vel: d, d, zr })
                    })
                    .collect()
            })
            .collect();
        phases.push(Phase { work, barrier_after: true });
    }
    let groups = wavefront_id_groups(cells.tile_counts(tile));
    let comps: Vec<Option<u8>> = match comp {
        CompLoop::Inside => vec![None],
        CompLoop::Outside => (0..NCOMP).map(|c| Some(c as u8)).collect(),
    };
    for c in comps {
        for (g, group) in groups.iter().enumerate() {
            let work = (0..nt)
                .map(|tid| {
                    let r = static_block(tid, nt, group.len());
                    if r.start < r.end {
                        vec![Step::WfSpan {
                            group: g as u32,
                            start: r.start as u32,
                            len: (r.end - r.start) as u32,
                            comp: c,
                        }]
                    } else {
                        Vec::new()
                    }
                })
                .collect();
            phases.push(Phase { work, barrier_after: true });
        }
    }
    let storage = TempStorage { flux_f64: (ny * nz + nx * nz + nx * ny) * kc, vel_f64: vel };
    (vec![RegionPlan { kind: RegionKind::Wavefront, allocs, phases }], groups, storage)
}

/// Lower the overlapped tiling: each thread owns a contiguous span of
/// tile ids, and every tile runs the serial plan of the intra-tile
/// schedule lowered for its extent (at most eight distinct extents: full
/// or edge along each axis). A thread holds one tile's buffers at a time,
/// so its storage is the largest of its tiles' plans.
fn lower_overlap(
    variant: Variant,
    size: IntVect,
    nt: usize,
    tile: i32,
) -> (Vec<RegionPlan>, Vec<Plan>, TempStorage) {
    let cells = canonical(size);
    let counts = cells.tile_counts(tile);
    let total = (counts[0] * counts[1] * counts[2]) as usize;
    let mut tile_plans: Vec<Plan> = Vec::new();
    let mut work = Vec::with_capacity(nt);
    let mut storage = TempStorage::default();
    for tid in 0..nt {
        let r = static_block(tid, nt, total);
        let mut peak = TempStorage::default();
        let mut recompute_faces = 0usize;
        for id in r.clone() {
            let t = tile_box(cells, tile, id as u32);
            let i = tile_plans.iter().position(|p| p.size == t.size()).unwrap_or_else(|| {
                tile_plans.push(lower(variant.tile_schedule(), t.size(), 1));
                tile_plans.len() - 1
            });
            peak = peak.max(tile_plans[i].storage);
            recompute_faces += pdesched_kernels::ops::overlapped_tile_recompute(cells, t);
        }
        storage = storage.add(peak);
        work.push(if r.start < r.end {
            vec![Step::OtTiles {
                start: r.start as u32,
                len: (r.end - r.start) as u32,
                recompute_faces,
            }]
        } else {
            Vec::new()
        });
    }
    let phases = vec![Phase { work, barrier_after: false }];
    (
        vec![RegionPlan { kind: RegionKind::Overlap, allocs: Vec::new(), phases }],
        tile_plans,
        storage,
    )
}

/// Lower `(variant, box extents, nthreads)` to a [`Plan`] — uncached;
/// most callers want [`super::plan_for`].
pub fn lower(variant: Variant, size: IntVect, nthreads: usize) -> Plan {
    let nt = effective_threads(variant, size, nthreads);
    let within = variant.gran == Granularity::WithinBox;
    let mut tile_plans = Vec::new();
    let (regions, wf_groups, tile, storage) = match variant.category {
        Category::Series => {
            let (r, s) = lower_series(variant, size, nt);
            (r, Vec::new(), 0, s)
        }
        Category::ShiftFuse => {
            if within {
                // Per-iteration wavefront: blocked wavefront with T = 1.
                let (r, g, s) = lower_wavefront(variant, size, nt, 1);
                (r, g, 1, s)
            } else {
                let (r, s) = lower_fuse(variant, size);
                (r, Vec::new(), 0, s)
            }
        }
        Category::BlockedWavefront => {
            let t = variant.tile_size();
            let (r, g, s) = lower_wavefront(variant, size, nt, t);
            (r, g, t, s)
        }
        Category::OverlappedTile => {
            let t = variant.tile_size();
            let (r, p, s) = lower_overlap(variant, size, nt, t);
            tile_plans = p;
            (r, Vec::new(), t, s)
        }
    };
    Plan {
        variant,
        size,
        nthreads: nt,
        regions,
        wf_groups,
        tile,
        tile_plans,
        storage,
        passes: Vec::new(),
        interleave: 1,
    }
}
