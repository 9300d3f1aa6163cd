//! Disjoint box layouts: the coarse grain of parallelism.

use crate::domain::ProblemDomain;
use crate::ibox::IBox;
use crate::intvect::IntVect;
use crate::DIM;

/// A set of pairwise-disjoint boxes covering (part of) a domain.
///
/// In Chombo the `DisjointBoxLayout` is the unit of distribution: each MPI
/// rank owns a subset of boxes, and on-node parallelization "over boxes"
/// (the paper's `P >= Box`) distributes these boxes over threads. Here all
/// boxes are local; the thread-level distribution happens in
/// `pdesched-core`.
#[derive(Clone, Debug)]
pub struct DisjointBoxLayout {
    problem: ProblemDomain,
    boxes: Vec<IBox>,
    /// Number of boxes per direction and the uniform box size, enabling
    /// O(1) neighbor lookup during exchange.
    grid: UniformGrid,
}

#[derive(Clone, Copy, Debug)]
struct UniformGrid {
    counts: IntVect,
    box_size: i32,
}

impl DisjointBoxLayout {
    /// Decompose `problem`'s domain (which must be a cube multiple of
    /// `box_size` in every direction) into uniform `box_size`^3 boxes, in
    /// storage order.
    ///
    /// This mirrors the paper's setup: 50,331,648 cells divided into
    /// 12,288 boxes of 16^3, …, or 24 boxes of 128^3.
    pub fn uniform(problem: ProblemDomain, box_size: i32) -> Self {
        let domain = problem.domain_box();
        let size = domain.size();
        for d in 0..DIM {
            assert!(
                size[d] % box_size == 0,
                "domain extent {} not a multiple of box size {box_size}",
                size[d]
            );
        }
        let boxes = domain.tiles(box_size);
        let counts = domain.tile_counts(box_size);
        DisjointBoxLayout { problem, boxes, grid: UniformGrid { counts, box_size } }
    }

    /// The problem domain.
    #[inline]
    pub fn problem(&self) -> ProblemDomain {
        self.problem
    }

    /// Number of boxes.
    #[inline]
    pub fn num_boxes(&self) -> usize {
        self.boxes.len()
    }

    /// The boxes, in layout order.
    #[inline]
    pub fn boxes(&self) -> &[IBox] {
        &self.boxes
    }

    /// Box `i`.
    #[inline]
    pub fn get(&self, i: usize) -> IBox {
        self.boxes[i]
    }

    /// Total number of cells over all boxes.
    pub fn total_cells(&self) -> usize {
        self.boxes.iter().map(|b| b.num_pts()).sum()
    }

    /// Indices of boxes whose valid region might intersect `region` after
    /// applying periodic shift `shift` (i.e. candidates `j` such that
    /// `boxes[j]` intersects `region.shifted(shift)`).
    ///
    /// An O(neighborhood) lookup on the uniform grid.
    pub fn candidates(&self, region: IBox, shift: IntVect) -> Vec<usize> {
        let target = region.shifted(shift);
        let g = self.grid;
        let dlo = self.problem.domain_box().lo();
        let mut out = Vec::new();
        let mut lo_idx = [0i32; DIM];
        let mut hi_idx = [0i32; DIM];
        for d in 0..DIM {
            lo_idx[d] = ((target.lo()[d] - dlo[d]).div_euclid(g.box_size)).max(0);
            hi_idx[d] = ((target.hi()[d] - dlo[d]).div_euclid(g.box_size)).min(g.counts[d] - 1);
            if lo_idx[d] > hi_idx[d] {
                return out;
            }
        }
        for bz in lo_idx[2]..=hi_idx[2] {
            for by in lo_idx[1]..=hi_idx[1] {
                for bx in lo_idx[0]..=hi_idx[0] {
                    out.push(((bz * g.counts[1] + by) * g.counts[0] + bx) as usize);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dom(n: i32) -> ProblemDomain {
        ProblemDomain::periodic(IBox::cube(n))
    }

    #[test]
    fn uniform_decomposition_counts() {
        let l = DisjointBoxLayout::uniform(dom(32), 16);
        assert_eq!(l.num_boxes(), 8);
        assert_eq!(l.total_cells(), 32 * 32 * 32);
        for b in l.boxes() {
            assert_eq!(b.num_pts(), 16 * 16 * 16);
        }
    }

    #[test]
    fn paper_box_counts() {
        // Paper Sec. III-C: 50,331,648 cells = 12,288 boxes of 16^3 =
        // 24 boxes of 128^3. The domain is 512 x 384 x 256.
        let domain = IBox::new(IntVect::ZERO, IntVect::new(511, 383, 255));
        let problem = ProblemDomain::periodic(domain);
        assert_eq!(domain.num_pts(), 50_331_648);
        assert_eq!(DisjointBoxLayout::uniform(problem, 16).num_boxes(), 12_288);
        assert_eq!(DisjointBoxLayout::uniform(problem, 32).num_boxes(), 1_536);
        assert_eq!(DisjointBoxLayout::uniform(problem, 64).num_boxes(), 192);
        assert_eq!(DisjointBoxLayout::uniform(problem, 128).num_boxes(), 24);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn uniform_requires_divisibility() {
        let _ = DisjointBoxLayout::uniform(dom(30), 16);
    }

    #[test]
    fn candidates_match_linear_scan() {
        let l = DisjointBoxLayout::uniform(dom(32), 8);
        let probes = [
            IBox::new(IntVect::splat(-2), IntVect::splat(9)),
            IBox::new(IntVect::new(6, 14, 30), IntVect::new(10, 18, 34)),
            IBox::new(IntVect::splat(31), IntVect::splat(33)),
        ];
        for probe in probes {
            for shift in l.problem().periodic_shifts() {
                let mut fast = l.candidates(probe, shift);
                // The grid lookup may include boxes that merely touch the
                // covering tile range; filter to true intersections for
                // comparison.
                fast.retain(|&j| l.get(j).intersects(&probe.shifted(shift)));
                let slow: Vec<usize> = (0..l.num_boxes())
                    .filter(|&j| l.get(j).intersects(&probe.shifted(shift)))
                    .collect();
                assert_eq!(fast, slow, "probe {probe:?} shift {shift:?}");
            }
        }
    }
}
