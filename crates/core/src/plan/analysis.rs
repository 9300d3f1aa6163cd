//! Cross-thread / cross-phase dependence analysis over plan footprints.
//!
//! Every step's reads and writes are summarized as [`Effect`]s: a buffer
//! identity plus a half-open interval on the region's partition axis
//! (z rows for series slabs, flattened tile ids for overlapped tiles).
//! Steps the model cannot capture precisely (fused sweeps, wavefront
//! spans — their co-dimension carry caches encode real cross-tile
//! dependences) are *opaque*: a full-range read+write on every buffer,
//! which makes any cross-thread pairing a conflict. Opacity errs on the
//! side of keeping barriers, never on the side of removing them — the
//! soundness direction [`super::verify`] re-checks.
//!
//! Buffers are identified by [`BufId`]: the region's declared allocs by
//! index, plus the two solver fields. `phi0` is read-only for the whole
//! update (no step writes it), so it can never carry a conflict and its
//! reads are not modeled; `phi1` accumulation windows are.

use super::ir::{AllocKind, RegionPlan, Step};

/// A buffer named from one region's point of view.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BufId {
    /// The output field (accumulated by `Accumulate`/fused/tile steps).
    Phi1,
    /// A region-declared temporary, by declared-alloc index.
    Alloc(usize),
}

/// One read or write of an interval of a buffer.
#[derive(Clone, Copy, Debug)]
pub struct Effect {
    pub buf: BufId,
    /// Half-open interval on the region's partition axis.
    pub range: (i64, i64),
    pub write: bool,
}

const FULL: (i64, i64) = (i64::MIN / 2, i64::MAX / 2);

/// Footprints of one phase, split per thread.
#[derive(Clone, Debug)]
pub struct PhaseEffects {
    pub per_thread: Vec<Vec<Effect>>,
}

fn zr64(zr: (i32, i32)) -> (i64, i64) {
    (zr.0 as i64, zr.1 as i64)
}

fn step_effects(step: &Step, fab_alloc: &[usize], nallocs: usize, out: &mut Vec<Effect>) {
    let fab = |i: usize| BufId::Alloc(fab_alloc[i]);
    match *step {
        Step::Flux1 { flux, zr, .. } => {
            out.push(Effect { buf: fab(flux), range: zr64(zr), write: true });
        }
        Step::ExtractVel { flux, vel, zr, .. } => {
            out.push(Effect { buf: fab(flux), range: zr64(zr), write: false });
            out.push(Effect { buf: fab(vel), range: zr64(zr), write: true });
        }
        Step::Flux2Clo { flux, vel, zr, .. } => {
            out.push(Effect { buf: fab(vel), range: zr64(zr), write: false });
            out.push(Effect { buf: fab(flux), range: zr64(zr), write: true });
        }
        Step::Flux2Cli { flux, zr, .. } => {
            out.push(Effect { buf: fab(flux), range: zr64(zr), write: true });
        }
        Step::Accumulate { flux, d, zr, .. } => {
            // Cell row z of the divergence reads flux faces z and, for
            // the z direction only, z+1 — the one footprint that crosses
            // slab-partition boundaries (z faces outnumber cell rows by
            // one, so the partitions of [0,n) and [0,n+1) disagree).
            let hi = zr.1 as i64 + if d == 2 { 1 } else { 0 };
            out.push(Effect { buf: fab(flux), range: (zr.0 as i64, hi), write: false });
            out.push(Effect { buf: BufId::Phi1, range: zr64(zr), write: true });
        }
        Step::FillVel { vel, zr, .. } => {
            out.push(Effect { buf: fab(vel), range: zr64(zr), write: true });
        }
        Step::FusedClo { .. } | Step::FusedCli { .. } | Step::WfSpan { .. } => {
            // Opaque: the carry/co-dimension caches thread real
            // dependences through these sweeps that the interval model
            // does not capture. Full-range read+write on everything.
            for a in 0..nallocs {
                out.push(Effect { buf: BufId::Alloc(a), range: FULL, write: true });
            }
            out.push(Effect { buf: BufId::Phi1, range: FULL, write: true });
        }
        Step::OtTiles { start, len, .. } => {
            // Overlapped tiles are independent by construction: each
            // writes its own cells (tile-id axis) out of the buffers its
            // own tile plan materializes.
            out.push(Effect {
                buf: BufId::Phi1,
                range: (start as i64, (start + len) as i64),
                write: true,
            });
        }
    }
}

/// Per-phase, per-thread effect summaries for one region.
pub fn phase_effects(region: &RegionPlan) -> Vec<PhaseEffects> {
    let fab_alloc: Vec<usize> = region
        .allocs
        .iter()
        .enumerate()
        .filter(|(_, a)| matches!(a.kind, AllocKind::Fab { .. }))
        .map(|(i, _)| i)
        .collect();
    let nallocs = region.allocs.len();
    region
        .phases
        .iter()
        .map(|phase| PhaseEffects {
            per_thread: phase
                .work
                .iter()
                .map(|steps| {
                    let mut out = Vec::new();
                    for s in steps {
                        step_effects(s, &fab_alloc, nallocs, &mut out);
                    }
                    out
                })
                .collect(),
        })
        .collect()
}

fn overlaps(a: (i64, i64), b: (i64, i64)) -> bool {
    a.0 < b.1 && b.0 < a.1
}

fn conflicts(a: &Effect, b: &Effect) -> bool {
    a.buf == b.buf && (a.write || b.write) && overlaps(a.range, b.range)
}

/// Is there a dependence between *different* threads of phases `a` and
/// `b`? Same-thread pairs are excluded: one thread's steps stay in
/// program order whether or not a barrier separates them.
pub fn cross_thread_conflict(a: &PhaseEffects, b: &PhaseEffects) -> bool {
    for (i, ea) in a.per_thread.iter().enumerate() {
        for (j, eb) in b.per_thread.iter().enumerate() {
            if i == j {
                continue;
            }
            if ea.iter().any(|x| eb.iter().any(|y| conflicts(x, y))) {
                return true;
            }
        }
    }
    false
}

/// Which of `region`'s barriers can be removed without reordering any
/// cross-thread dependence: barrier `p` is elidable iff phase `p+1`
/// conflicts with no phase of the barrier-free window ending at `p`
/// (greedy, left to right — eliding a barrier extends the window the
/// next candidate is checked against). The region's trailing barrier is
/// always elidable: the SPMD join at region end synchronizes. At one
/// thread every barrier is trivially elidable.
pub fn elidable_barriers(region: &RegionPlan, nthreads: usize) -> Vec<bool> {
    let np = region.phases.len();
    let mut out = vec![false; np];
    let eff = if nthreads > 1 { phase_effects(region) } else { Vec::new() };
    let mut window: Vec<usize> = Vec::new();
    for p in 0..np {
        window.push(p);
        if !region.phases[p].barrier_after {
            continue;
        }
        let elide = p + 1 == np
            || nthreads <= 1
            || !window.iter().any(|&a| cross_thread_conflict(&eff[a], &eff[p + 1]));
        if elide {
            out[p] = true;
        } else {
            window.clear();
        }
    }
    out
}

/// Soundness check for an already-transformed region: scan the phases in
/// order and report the first pair running unsynchronized (no barrier
/// between them) with a cross-thread conflict. `None` means every
/// dependence the model sees is protected. Within-phase concurrency is
/// the lowering's own contract and is not re-checked here.
pub fn unsynced_conflict(region: &RegionPlan, nthreads: usize) -> Option<(usize, usize)> {
    if nthreads <= 1 {
        return None;
    }
    let eff = phase_effects(region);
    let mut window: Vec<usize> = Vec::new();
    for p in 0..region.phases.len() {
        for &a in &window {
            if cross_thread_conflict(&eff[a], &eff[p]) {
                return Some((a, p));
            }
        }
        window.push(p);
        if region.phases[p].barrier_after {
            window.clear();
        }
    }
    None
}
