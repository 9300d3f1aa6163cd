//! Precomputed ghost-exchange plans (the analogue of Chombo's
//! `Copier`).
//!
//! A time-stepping code exchanges ghosts every step over the same
//! layout; recomputing the box-intersection structure each time is
//! wasted work. An [`ExchangePlan`] enumerates the copy operations once
//! — (destination box, source box, region, periodic shift) — and can be
//! replayed cheaply. [`crate::LevelData::exchange`] builds and caches
//! one transparently.

use crate::ibox::IBox;
use crate::intvect::IntVect;
use crate::layout::DisjointBoxLayout;

/// One ghost-region copy: fill `region` of box `dst` by reading box
/// `src` at `iv + shift`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CopyOp {
    /// Destination box index.
    pub dst: usize,
    /// Source box index.
    pub src: usize,
    /// Destination region (inside `dst`'s grown box).
    pub region: IBox,
    /// Periodic image shift applied to the source read.
    pub shift: IntVect,
}

/// A reusable exchange plan for one (layout, ghost width) pair.
#[derive(Clone, Debug, Default)]
pub struct ExchangePlan {
    ghost: i32,
    ops: Vec<CopyOp>,
}

impl ExchangePlan {
    /// Enumerate every copy needed to fill all ghost cells of `layout`
    /// grown by `ghost`, including periodic images. Ghost cells outside
    /// a non-periodic boundary are not covered.
    pub fn build(layout: &DisjointBoxLayout, ghost: i32) -> Self {
        let mut ops = Vec::new();
        if ghost == 0 {
            return ExchangePlan { ghost, ops };
        }
        let shifts = layout.problem().periodic_shifts();
        for i in 0..layout.num_boxes() {
            let valid_i = layout.get(i);
            let ghost_box = valid_i.grown(ghost);
            for &s in &shifts {
                for j in layout.candidates(ghost_box, s) {
                    if i == j && s == IntVect::ZERO {
                        continue;
                    }
                    let src_valid = layout.get(j);
                    let region = ghost_box.intersect(&src_valid.shifted(-s));
                    if region.is_empty() {
                        continue;
                    }
                    ops.push(CopyOp { dst: i, src: j, region, shift: s });
                }
            }
        }
        ExchangePlan { ghost, ops }
    }

    /// Ghost width the plan was built for.
    pub fn ghost(&self) -> i32 {
        self.ghost
    }

    /// The copy operations.
    pub fn ops(&self) -> &[CopyOp] {
        &self.ops
    }

    /// Total points copied per exchange (all ops, one component).
    pub fn points_moved(&self) -> usize {
        self.ops.iter().map(|op| op.region.num_pts()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::ProblemDomain;

    fn layout(n: i32, bs: i32, periodic: bool) -> DisjointBoxLayout {
        let domain = IBox::cube(n);
        let problem =
            if periodic { ProblemDomain::periodic(domain) } else { ProblemDomain::new(domain) };
        DisjointBoxLayout::uniform(problem, bs)
    }

    #[test]
    fn empty_plan_for_zero_ghost() {
        let plan = ExchangePlan::build(&layout(16, 8, true), 0);
        assert!(plan.ops().is_empty());
        assert_eq!(plan.points_moved(), 0);
    }

    #[test]
    fn ops_cover_each_interior_ghost_point_once() {
        for periodic in [false, true] {
            let l = layout(16, 8, periodic);
            let ghost = 2;
            let plan = ExchangePlan::build(&l, ghost);
            for i in 0..l.num_boxes() {
                let gb = l.get(i).grown(ghost);
                for iv in gb.iter() {
                    if l.get(i).contains(iv) {
                        continue;
                    }
                    let wrapped = l.problem().wrap(iv);
                    let should_fill = l.problem().domain_box().contains(wrapped)
                        && (periodic || l.problem().domain_box().contains(iv));
                    let covering: Vec<&CopyOp> = plan
                        .ops()
                        .iter()
                        .filter(|op| op.dst == i && op.region.contains(iv))
                        .collect();
                    assert_eq!(
                        covering.len(),
                        usize::from(should_fill),
                        "box {i} point {iv:?} periodic={periodic}"
                    );
                    // Source sanity: the shifted point lies in the source
                    // box's valid region.
                    for op in covering {
                        assert!(l.get(op.src).contains(iv + op.shift));
                    }
                }
            }
        }
    }

    #[test]
    fn ghost_volume_matches_figure1_arithmetic() {
        // Fine decomposition moves more ghost data than coarse for the
        // same domain.
        let fine = ExchangePlan::build(&layout(32, 8, true), 2);
        let coarse = ExchangePlan::build(&layout(32, 16, true), 2);
        assert!(fine.points_moved() > coarse.points_moved());
    }

    #[test]
    fn single_periodic_box_self_images() {
        let plan = ExchangePlan::build(&layout(8, 8, true), 2);
        assert!(!plan.ops().is_empty());
        assert!(plan.ops().iter().all(|op| op.dst == 0 && op.src == 0));
        assert!(plan.ops().iter().all(|op| op.shift != IntVect::ZERO));
        // Full ghost shell of a 8^3 box with 2 ghosts: 12^3 - 8^3 points.
        assert_eq!(plan.points_moved(), 12usize.pow(3) - 8usize.pow(3));
    }
}
