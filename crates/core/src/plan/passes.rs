//! Schedule-transforming passes and the composable [`Pipeline`].
//!
//! A [`Pass`] rewrites a [`Plan`] into another plan for the same update;
//! a [`Pipeline`] is an ordered list of passes plus the provenance
//! bookkeeping (each applied pass's name lands in [`Plan::passes`], the
//! pass component of plan and traffic-store keys). `Pipeline::apply`
//! runs [`super::verify`] over the final plan — a transformed plan is
//! never handed to the interpreter unchecked.
//!
//! The four built-in passes:
//!
//! * `elide-barriers` — remove barriers the dependence analysis proves
//!   redundant ([`super::analysis::elidable_barriers`]);
//! * `fuse-phases` — merge consecutive barrier-free phases into one
//!   (fewer synchronization regions, same per-thread step streams);
//! * `rechunk:<tile>` — re-lower a tiled variant at an arbitrary tile
//!   edge, including sizes outside the paper's sampled {4, 8, 16, 32};
//! * `cross-box-fuse[:<chunk>]` — split slab steps into depth-`chunk`
//!   pieces and mark the plan for pairwise interleaved execution
//!   ([`super::execute_pair`]), so neighboring boxes' sweeps alternate
//!   and the halo planes they share stay hot in the LLC.

use super::analysis;
use super::ir::{Phase, Plan, Step};
use super::lower_impl::lower;
use super::verify::{self, VerifyError};
use crate::variant::{InvalidVariant, Variant};
use std::fmt;

/// One plan-to-plan rewrite.
pub trait Pass: Send + Sync {
    /// Stable name including parameters (`"rechunk:6"`); this is what
    /// lands in [`Plan::passes`] and cache keys.
    fn name(&self) -> String;
    /// Rewrite the plan, or explain why it does not apply.
    fn apply(&self, plan: Plan) -> Result<Plan, String>;
}

/// Remove every barrier the dependence analysis proves redundant.
pub struct ElideBarriers;

impl Pass for ElideBarriers {
    fn name(&self) -> String {
        "elide-barriers".into()
    }

    fn apply(&self, mut plan: Plan) -> Result<Plan, String> {
        for region in &mut plan.regions {
            let elide = analysis::elidable_barriers(region, plan.nthreads);
            for (phase, e) in region.phases.iter_mut().zip(elide) {
                if e {
                    phase.barrier_after = false;
                }
            }
        }
        Ok(plan)
    }
}

/// Merge runs of barrier-free phases into single phases (concatenating
/// each thread's step list in order).
pub struct FusePhases;

impl Pass for FusePhases {
    fn name(&self) -> String {
        "fuse-phases".into()
    }

    fn apply(&self, mut plan: Plan) -> Result<Plan, String> {
        for region in &mut plan.regions {
            let mut merged: Vec<Phase> = Vec::new();
            for phase in region.phases.drain(..) {
                match merged.last_mut() {
                    Some(prev) if !prev.barrier_after => {
                        for (t, steps) in phase.work.into_iter().enumerate() {
                            prev.work[t].extend(steps);
                        }
                        prev.barrier_after = phase.barrier_after;
                    }
                    _ => merged.push(phase),
                }
            }
            region.phases = merged;
        }
        Ok(plan)
    }
}

/// Re-lower a tiled variant at tile edge `tile` — the tile-size search
/// knob, valid for any `2 <= tile < n`, not just the paper's sampled
/// powers of two.
pub struct Rechunk {
    pub tile: i32,
}

impl Pass for Rechunk {
    fn name(&self) -> String {
        format!("rechunk:{}", self.tile)
    }

    fn apply(&self, plan: Plan) -> Result<Plan, String> {
        if !plan.variant.category.tiled() {
            return Err(format!(
                "rechunk applies to tiled categories only, not {:?}",
                plan.variant.category
            ));
        }
        let v = Variant { tile: Some(self.tile), ..plan.variant };
        let n = (0..3).map(|d| plan.size[d]).min().unwrap();
        v.validate_for_box(n).map_err(|e| e.to_string())?;
        Ok(lower(v, plan.size, plan.nthreads))
    }
}

/// Mark the plan for pairwise interleaved execution over neighboring
/// boxes, splitting slab steps into depth-`chunk` pieces so the
/// round-robin in [`super::execute_pair`] alternates at sub-sweep
/// granularity. Serial plans only: interleaving is a traced-measurement
/// vehicle, and the two boxes' step streams each stay in program order.
pub struct CrossBoxFuse {
    pub chunk: i32,
}

fn split_zr(zr: (i32, i32), chunk: i32) -> Vec<(i32, i32)> {
    let mut out = Vec::new();
    let mut lo = zr.0;
    while lo < zr.1 {
        let hi = (lo + chunk).min(zr.1);
        out.push((lo, hi));
        lo = hi;
    }
    out
}

fn split_step(step: Step, chunk: i32, out: &mut Vec<Step>) {
    match step {
        Step::Flux1 { flux, d, zr, cli } => {
            out.extend(split_zr(zr, chunk).into_iter().map(|zr| Step::Flux1 { flux, d, zr, cli }))
        }
        Step::ExtractVel { flux, vel, d, zr } => {
            out.extend(split_zr(zr, chunk).into_iter().map(|zr| Step::ExtractVel {
                flux,
                vel,
                d,
                zr,
            }))
        }
        Step::Flux2Clo { flux, vel, d, zr } => out
            .extend(split_zr(zr, chunk).into_iter().map(|zr| Step::Flux2Clo { flux, vel, d, zr })),
        Step::Flux2Cli { flux, d, zr } => {
            out.extend(split_zr(zr, chunk).into_iter().map(|zr| Step::Flux2Cli { flux, d, zr }))
        }
        Step::Accumulate { flux, d, zr, comp } => {
            out.extend(split_zr(zr, chunk).into_iter().map(|zr| Step::Accumulate {
                flux,
                d,
                zr,
                comp,
            }))
        }
        Step::FillVel { vel, d, zr } => {
            out.extend(split_zr(zr, chunk).into_iter().map(|zr| Step::FillVel { vel, d, zr }))
        }
        // Fused sweeps split too: each sub-slab recomputes its low
        // z-face flux plane instead of reading the carry cache, which
        // is bit-exact (see `Step::FusedClo`) and costs one extra face
        // plane of reads per boundary — recomputation traded for the
        // cross-box locality the interleave buys.
        Step::FusedClo { c, zr } => {
            out.extend(split_zr(zr, chunk).into_iter().map(|zr| Step::FusedClo { c, zr }))
        }
        Step::FusedCli { zr } => {
            out.extend(split_zr(zr, chunk).into_iter().map(|zr| Step::FusedCli { zr }))
        }
        other => out.push(other),
    }
}

impl Pass for CrossBoxFuse {
    fn name(&self) -> String {
        format!("cross-box-fuse:{}", self.chunk)
    }

    fn apply(&self, mut plan: Plan) -> Result<Plan, String> {
        if plan.nthreads != 1 {
            return Err("cross-box fusion interleaves serial plans only".into());
        }
        if self.chunk < 1 {
            return Err(format!("chunk {} must be at least 1", self.chunk));
        }
        for region in &mut plan.regions {
            for phase in &mut region.phases {
                for steps in &mut phase.work {
                    let mut split = Vec::with_capacity(steps.len());
                    for step in steps.drain(..) {
                        split_step(step, self.chunk, &mut split);
                    }
                    *steps = split;
                }
            }
        }
        plan.interleave = 2;
        Ok(plan)
    }
}

/// Why a pipeline failed to produce an executable plan.
#[derive(Debug)]
pub enum PipelineError {
    /// A pass refused the plan.
    Pass { pass: String, reason: String },
    /// The transformed plan failed verification.
    Verify(VerifyError),
    /// The variant cannot execute on the requested box at all, so there
    /// is no plan to transform.
    Invalid(InvalidVariant),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Pass { pass, reason } => write!(f, "pass '{pass}': {reason}"),
            PipelineError::Verify(e) => write!(f, "verification failed: {e}"),
            PipelineError::Invalid(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// An ordered pass list. Parse one from a spec like
/// `"elide-barriers,fuse-phases,rechunk:6"`; the empty spec is the empty
/// pipeline (hand lowering, unchanged keys).
pub struct Pipeline {
    passes: Vec<Box<dyn Pass>>,
}

impl Pipeline {
    /// The identity pipeline.
    pub const fn empty() -> Pipeline {
        Pipeline { passes: Vec::new() }
    }

    /// Parse a comma-separated pass spec. Whitespace around names is
    /// ignored; an empty spec yields the empty pipeline.
    pub fn parse(spec: &str) -> Result<Pipeline, String> {
        let mut passes: Vec<Box<dyn Pass>> = Vec::new();
        for part in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (name, arg) = match part.split_once(':') {
                Some((n, a)) => (n, Some(a)),
                None => (part, None),
            };
            let int = |what: &str, a: &str| {
                a.parse::<i32>().map_err(|_| format!("pass '{part}': {what} '{a}' is not a number"))
            };
            let pass: Box<dyn Pass> = match (name, arg) {
                ("elide-barriers", None) => Box::new(ElideBarriers),
                ("fuse-phases", None) => Box::new(FusePhases),
                ("rechunk", Some(a)) => Box::new(Rechunk { tile: int("tile", a)? }),
                ("cross-box-fuse", arg) => {
                    let chunk = match arg {
                        Some(a) => int("chunk", a)?,
                        None => 4,
                    };
                    Box::new(CrossBoxFuse { chunk })
                }
                _ => {
                    return Err(format!(
                        "unknown pass '{part}' (known: elide-barriers, fuse-phases, \
                         rechunk:<tile>, cross-box-fuse[:<chunk>])"
                    ))
                }
            };
            passes.push(pass);
        }
        Ok(Pipeline { passes })
    }

    /// The comma-joined pass names — the pass-provenance key component.
    /// Empty string for the empty pipeline.
    pub fn key(&self) -> String {
        self.passes.iter().map(|p| p.name()).collect::<Vec<_>>().join(",")
    }

    pub fn is_empty(&self) -> bool {
        self.passes.is_empty()
    }

    /// Run the passes in order, stamp provenance, and verify the result.
    /// The empty pipeline returns the plan untouched (and unverified —
    /// it *is* the reference).
    pub fn apply(&self, plan: Plan) -> Result<Plan, PipelineError> {
        if self.passes.is_empty() {
            return Ok(plan);
        }
        let original = plan.variant;
        let mut plan = plan;
        for pass in &self.passes {
            let name = pass.name();
            // Passes that re-lower (rechunk) return fresh provenance;
            // carry the accumulated names across.
            let prev = std::mem::take(&mut plan.passes);
            plan = pass
                .apply(plan)
                .map_err(|reason| PipelineError::Pass { pass: name.clone(), reason })?;
            plan.passes = prev;
            plan.passes.push(name);
        }
        verify::check(&plan, original).map_err(PipelineError::Verify)?;
        Ok(plan)
    }
}

impl Clone for Pipeline {
    fn clone(&self) -> Self {
        Pipeline::parse(&self.key()).expect("pipeline key reparses")
    }
}

impl fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pipeline[{}]", self.key())
    }
}

impl fmt::Display for Pipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            f.write_str("(empty)")
        } else {
            f.write_str(&self.key())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{execute, execute_pair, plan_for, plan_for_optimized, verify};
    use super::*;
    use crate::mem::NoMem;
    use crate::variant::{CompLoop, Granularity, IntraTile};
    use pdesched_kernels::{GHOST, NCOMP};
    use pdesched_mesh::{FArrayBox, IBox, IntVect};

    fn apply(spec: &str, v: Variant, n: i32, nt: usize) -> Plan {
        let pipe = Pipeline::parse(spec).unwrap();
        pipe.apply(lower(v, IntVect::splat(n), nt)).unwrap()
    }

    #[test]
    fn elision_keeps_only_the_z_crossing_barrier() {
        // Series CLO at nt=2: every barrier is provably redundant except
        // the flux2->accumulate one in the z direction, where a cell
        // row's divergence reads the z+1 flux face across the slab
        // partition boundary (faces outnumber rows by one).
        let v = Variant { gran: Granularity::WithinBox, ..Variant::baseline() };
        let p = apply("elide-barriers", v, 8, 2);
        assert_eq!(p.barrier_count(), 1);
        let phases = p.regions.iter().flat_map(|r| &r.phases);
        let kept: Vec<_> =
            phases.enumerate().filter(|(_, ph)| ph.barrier_after).map(|(i, _)| i).collect();
        // Phase 10 is the z region's flux2 phase (regions of 4 phases).
        assert_eq!(kept, vec![10]);
        // At one thread there is nothing to protect at all.
        assert_eq!(apply("elide-barriers", v, 8, 1).barrier_count(), 0);
        // The result executes bit-identically.
        verify::fields_bit_identical(&p).unwrap();
    }

    #[test]
    fn elision_declines_wavefront_dependences() {
        // Wavefront phases are opaque to the interval analysis (the
        // co-dimension caches carry real cross-tile dependences), so
        // every barrier between wavefronts survives; only the trailing
        // one (region-end join) goes.
        let v = Variant::blocked_wavefront(CompLoop::Inside, 4);
        let before = lower(v, IntVect::splat(8), 2);
        let p = apply("elide-barriers", v, 8, 2);
        assert_eq!(p.barrier_count(), before.barrier_count() - 1);
        verify::fields_bit_identical(&p).unwrap();
    }

    #[test]
    fn fuse_phases_collapses_barrier_free_runs() {
        let v = Variant { gran: Granularity::WithinBox, ..Variant::baseline() };
        let p = apply("elide-barriers,fuse-phases", v, 8, 2);
        // x and y regions collapse to one phase each; z keeps the
        // surviving barrier: [flux1+extract+flux2], [accumulate].
        assert_eq!(p.phase_count(), 4);
        assert_eq!(p.passes, vec!["elide-barriers".to_string(), "fuse-phases".to_string()]);
        verify::fields_bit_identical(&p).unwrap();
    }

    #[test]
    fn rechunk_reaches_non_enumerated_tiles() {
        let v = Variant::overlapped(IntraTile::ShiftFuse, 4, Granularity::WithinBox);
        let p = apply("rechunk:6", v, 12, 2);
        assert_eq!(p.variant.tile, Some(6));
        assert_eq!(p.passes, vec!["rechunk:6".to_string()]);
        verify::fields_bit_identical(&p).unwrap();
        // Invalid tiles are refused with the variant's own rule.
        let pipe = Pipeline::parse("rechunk:12").unwrap();
        let err = pipe.apply(lower(v, IntVect::splat(12), 2)).unwrap_err();
        assert!(err.to_string().contains("smaller than the box"), "{err}");
    }

    #[test]
    fn cross_box_fuse_pair_matches_sequential_execution() {
        for spec in ["cross-box-fuse:2", "cross-box-fuse"] {
            for v in [Variant::shift_fuse(), Variant::baseline()] {
                let n = 8;
                let a = IBox::cube(n);
                let b = a.shifted(IntVect::new(n, 0, 0));
                let union = IBox::new(a.lo(), b.hi());
                let mut phi0 = FArrayBox::new(union.grown(GHOST), NCOMP);
                phi0.fill_synthetic(71);
                let mut pa = FArrayBox::new(a, NCOMP);
                pa.fill_synthetic(72);
                let mut pb = FArrayBox::new(b, NCOMP);
                pb.fill_synthetic(73);
                let (mut sa, mut sb) = (pa.clone(), pb.clone());
                let plan = apply(spec, v, n, 1);
                assert_eq!(plan.interleave, 2);
                execute_pair(&plan, &phi0, &mut pa, &mut pb, a, b, &NoMem);
                let hand = lower(v, IntVect::splat(n), 1);
                execute(&hand, &phi0, &mut sa, a, &NoMem);
                execute(&hand, &phi0, &mut sb, b, &NoMem);
                assert!(pa.bit_eq(&sa, a), "{v} {spec} box A");
                assert!(pb.bit_eq(&sb, b), "{v} {spec} box B");
            }
        }
    }

    #[test]
    fn pipeline_parse_rejects_unknown_and_misapplied_passes() {
        assert!(Pipeline::parse("warp-speed").unwrap_err().contains("unknown pass"));
        assert!(Pipeline::parse("rechunk:x").unwrap_err().contains("not a number"));
        // Rechunk needs a tiled category.
        let pipe = Pipeline::parse("rechunk:4").unwrap();
        let err = pipe.apply(lower(Variant::baseline(), IntVect::splat(8), 1)).unwrap_err();
        assert!(err.to_string().contains("tiled categories"), "{err}");
        // Cross-box fusion needs a serial plan.
        let pipe = Pipeline::parse("cross-box-fuse:4").unwrap();
        let v = Variant { gran: Granularity::WithinBox, ..Variant::baseline() };
        let err = pipe.apply(lower(v, IntVect::splat(8), 2)).unwrap_err();
        assert!(err.to_string().contains("serial plans"), "{err}");
    }

    #[test]
    fn pipeline_key_roundtrips() {
        let pipe = Pipeline::parse(" elide-barriers , fuse-phases ").unwrap();
        assert_eq!(pipe.key(), "elide-barriers,fuse-phases");
        assert_eq!(pipe.clone().key(), pipe.key());
        let pipe = Pipeline::parse("elide-barriers,cross-box-fuse:4").unwrap();
        assert_eq!(pipe.key(), "elide-barriers,cross-box-fuse:4");
        assert!(Pipeline::empty().is_empty());
        assert_eq!(Pipeline::empty().key(), "");
    }

    #[test]
    fn optimized_plans_cache_under_pass_keyed_entries() {
        // An extent no other test uses (13) so LRU eviction can't race.
        let size = IntVect::splat(13);
        let v = Variant { gran: Granularity::WithinBox, ..Variant::baseline() };
        // Empty pipeline is plan_for: same entry, byte-identical key.
        let plain = plan_for(v, size, 2);
        let empty = plan_for_optimized(v, size, 2, &Pipeline::empty()).unwrap();
        assert!(std::sync::Arc::ptr_eq(&plain, &empty));
        // A real pipeline gets its own entry and hits on re-request.
        let pipe = Pipeline::parse("elide-barriers").unwrap();
        let p1 = plan_for_optimized(v, size, 2, &pipe).unwrap();
        assert!(!std::sync::Arc::ptr_eq(&plain, &p1));
        assert_eq!(p1.pass_key(), "elide-barriers");
        let p2 = plan_for_optimized(v, size, 2, &pipe).unwrap();
        assert!(std::sync::Arc::ptr_eq(&p1, &p2));
    }

    #[test]
    fn verifier_rejects_tampered_plans() {
        // Dropping a step breaks stream preservation.
        let v = Variant { gran: Granularity::WithinBox, ..Variant::baseline() };
        let mut p = apply("elide-barriers", v, 8, 2);
        p.regions[0].phases[0].work[0].clear();
        assert!(verify::check(&p, v).is_err());
        // Hand-flipping a load-bearing barrier off breaks soundness.
        let mut p = lower(v, IntVect::splat(8), 2);
        for r in &mut p.regions {
            for ph in &mut r.phases {
                ph.barrier_after = false;
            }
        }
        let err = verify::check(&p, v).unwrap_err();
        assert!(err.to_string().contains("unsynchronized"), "{err}");
    }
}
