//! Level data: one `FArrayBox` per layout box, plus ghost exchange.

use crate::copier::ExchangePlan;
use crate::fab::FArrayBox;
use crate::ibox::IBox;
use crate::layout::DisjointBoxLayout;
use std::sync::{Arc, OnceLock};

/// A field over a [`DisjointBoxLayout`]: one [`FArrayBox`] per box, each
/// allocated over the box grown by `ghost` cells on every side.
///
/// Before the stencil computation of each step, [`LevelData::exchange`]
/// fills each box's ghost cells with data from the boxes (and periodic
/// images) sharing those global locations — the operation whose cost
/// motivates the paper's move to larger boxes (Figure 1).
#[derive(Clone, Debug)]
pub struct LevelData {
    layout: DisjointBoxLayout,
    ghost: i32,
    ncomp: usize,
    fabs: Vec<FArrayBox>,
    /// Cached exchange plan (built on first exchange; layouts are
    /// immutable so it never invalidates).
    plan: OnceLock<Arc<ExchangePlan>>,
}

impl LevelData {
    /// Allocate zero-initialized data with `ncomp` components and `ghost`
    /// ghost layers over every box of `layout`.
    pub fn new(layout: DisjointBoxLayout, ncomp: usize, ghost: i32) -> Self {
        assert!(ghost >= 0);
        if let Some(b) = layout.boxes().first() {
            // Exchange assumes the ghost reach does not exceed one box, so
            // a ghost region touches only face/edge/corner neighbors.
            for d in 0..crate::DIM {
                assert!(
                    ghost <= b.extent(d),
                    "ghost width {ghost} exceeds box extent {}",
                    b.extent(d)
                );
            }
        }
        let fabs = layout.boxes().iter().map(|b| FArrayBox::new(b.grown(ghost), ncomp)).collect();
        LevelData { layout, ghost, ncomp, fabs, plan: OnceLock::new() }
    }

    /// The layout.
    #[inline]
    pub fn layout(&self) -> &DisjointBoxLayout {
        &self.layout
    }

    /// Ghost layer width.
    #[inline]
    pub fn ghost(&self) -> i32 {
        self.ghost
    }

    /// Number of components.
    #[inline]
    pub fn ncomp(&self) -> usize {
        self.ncomp
    }

    /// Number of boxes.
    #[inline]
    pub fn num_boxes(&self) -> usize {
        self.fabs.len()
    }

    /// The valid (non-ghost) region of box `i`.
    #[inline]
    pub fn valid_box(&self, i: usize) -> IBox {
        self.layout.get(i)
    }

    /// Data of box `i` (defined over the grown region).
    #[inline]
    pub fn fab(&self, i: usize) -> &FArrayBox {
        &self.fabs[i]
    }

    /// Mutable data of box `i`.
    #[inline]
    pub fn fab_mut(&mut self, i: usize) -> &mut FArrayBox {
        &mut self.fabs[i]
    }

    /// All box data, mutably — used by the schedule executors to hand
    /// disjoint boxes to different threads.
    #[inline]
    pub fn fabs_mut(&mut self) -> &mut [FArrayBox] {
        &mut self.fabs
    }

    /// All box data.
    #[inline]
    pub fn fabs(&self) -> &[FArrayBox] {
        &self.fabs
    }

    /// Total heap bytes across all boxes (ghosts included); the quantity
    /// Figure 1's ghost-ratio analysis is about.
    pub fn total_bytes(&self) -> usize {
        self.fabs.iter().map(|f| f.bytes()).sum()
    }

    /// Fill every box (including ghosts) with the deterministic synthetic
    /// function, consistent across boxes at shared global indices.
    pub fn fill_synthetic(&mut self, seed: u64) {
        for f in &mut self.fabs {
            f.fill_synthetic(seed);
        }
    }

    /// Set every value (including ghosts) in every box.
    pub fn set_val(&mut self, v: f64) {
        for f in &mut self.fabs {
            f.set_val(v);
        }
    }

    /// Sum of component `c` over all *valid* regions.
    pub fn sum_comp(&self, c: usize) -> f64 {
        (0..self.num_boxes()).map(|i| self.fabs[i].sum_comp(c, self.valid_box(i))).sum()
    }

    /// The cached exchange plan for this level (built on first use).
    pub fn exchange_plan(&self) -> Arc<ExchangePlan> {
        self.plan.get_or_init(|| Arc::new(ExchangePlan::build(&self.layout, self.ghost))).clone()
    }

    /// Fill all ghost cells from the valid regions of neighboring boxes,
    /// respecting the domain's periodicity. Ghost cells that lie outside a
    /// non-periodic domain are left untouched.
    ///
    /// The copy structure is computed once per level and replayed
    /// (Chombo's `Copier` pattern).
    pub fn exchange(&mut self) {
        if self.ghost == 0 {
            return;
        }
        let plan = self.exchange_plan();
        self.exchange_with(&plan);
    }

    /// Replay a prebuilt [`ExchangePlan`] (which must have been built for
    /// this level's layout and ghost width).
    pub fn exchange_with(&mut self, plan: &ExchangePlan) {
        assert_eq!(plan.ghost(), self.ghost, "plan built for a different ghost width");
        for op in plan.ops() {
            if op.dst != op.src {
                let (dst, src) = index_pair(&mut self.fabs, op.dst, op.src);
                dst.copy_from_shifted(src, op.region, op.shift);
            } else {
                // Periodic self-image: stage through a buffer.
                let mut buf = FArrayBox::new(op.region, self.ncomp);
                buf.copy_from_shifted(&self.fabs[op.dst], op.region, op.shift);
                self.fabs[op.dst].copy_from(&buf, op.region);
            }
        }
    }
}

/// Borrow two distinct elements of a slice mutably/immutably.
fn index_pair(fabs: &mut [FArrayBox], dst: usize, src: usize) -> (&mut FArrayBox, &FArrayBox) {
    debug_assert_ne!(dst, src);
    if dst < src {
        let (a, b) = fabs.split_at_mut(src);
        (&mut a[dst], &b[0])
    } else {
        let (a, b) = fabs.split_at_mut(dst);
        (&mut b[0], &a[src])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::ProblemDomain;
    use crate::fab::synthetic_value;

    fn level(n: i32, box_size: i32, ghost: i32, periodic: bool) -> LevelData {
        let domain = IBox::cube(n);
        let problem =
            if periodic { ProblemDomain::periodic(domain) } else { ProblemDomain::new(domain) };
        let layout = DisjointBoxLayout::uniform(problem, box_size);
        LevelData::new(layout, 2, ghost)
    }

    /// After filling valid regions only and exchanging, every interior
    /// ghost cell must hold the synthetic value of its global location.
    fn check_exchange(n: i32, box_size: i32, ghost: i32, periodic: bool) {
        let mut ld = level(n, box_size, ghost, periodic);
        let seed = 7;
        // Fill only valid regions; ghosts get a sentinel.
        ld.set_val(f64::NAN);
        for i in 0..ld.num_boxes() {
            let vb = ld.valid_box(i);
            let fab = ld.fab_mut(i);
            for c in 0..2 {
                for iv in vb.iter() {
                    fab.set(iv, c, synthetic_value(iv, c, seed));
                }
            }
        }
        ld.exchange();
        let problem = ld.layout().problem();
        let domain = problem.domain_box();
        for i in 0..ld.num_boxes() {
            let vb = ld.valid_box(i);
            let gb = vb.grown(ghost);
            let fab = ld.fab(i);
            for c in 0..2 {
                for iv in gb.iter() {
                    let wrapped = problem.wrap(iv);
                    if domain.contains(wrapped) && (periodic || domain.contains(iv)) {
                        let expect = synthetic_value(wrapped, c, seed);
                        assert_eq!(
                            fab.at(iv, c),
                            expect,
                            "box {i} iv {iv:?} c {c} (n={n}, bs={box_size}, g={ghost})"
                        );
                    } else {
                        assert!(fab.at(iv, c).is_nan(), "exterior ghost overwritten at {iv:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn exchange_interior_non_periodic() {
        check_exchange(16, 8, 2, false);
    }

    #[test]
    fn exchange_periodic() {
        check_exchange(16, 8, 2, true);
    }

    #[test]
    fn exchange_periodic_single_box() {
        // One box: all ghost data comes from periodic self-images.
        check_exchange(8, 8, 2, true);
    }

    #[test]
    fn exchange_periodic_wide_ghost() {
        check_exchange(12, 4, 3, true);
    }

    #[test]
    fn exchange_no_ghost_is_noop() {
        let mut ld = level(8, 4, 0, true);
        ld.fill_synthetic(3);
        let before: Vec<f64> = ld.fab(0).data().to_vec();
        ld.exchange();
        assert_eq!(ld.fab(0).data(), &before[..]);
    }

    #[test]
    fn total_bytes_accounts_ghosts() {
        let ld = level(16, 8, 2, true);
        let per_box = 12usize.pow(3) * 2 * 8;
        assert_eq!(ld.total_bytes(), per_box * 8);
    }

    #[test]
    fn sum_comp_over_valid_only() {
        let mut ld = level(8, 4, 1, true);
        ld.set_val(1.0); // ghosts too
        let s = ld.sum_comp(0);
        assert_eq!(s, 8.0 * 8.0 * 8.0);
    }

    #[test]
    #[should_panic(expected = "ghost width")]
    fn ghost_wider_than_box_rejected() {
        let _ = level(8, 4, 5, true);
    }
}
