//! Problem domain: global index extent plus periodicity.

use crate::ibox::IBox;
use crate::intvect::IntVect;
use crate::DIM;

/// The global index-space extent of a computation plus per-direction
/// periodicity flags.
///
/// Periodic ghost filling is expressed through *shift images*: a point
/// outside the domain in a periodic direction corresponds to valid data
/// one domain-period away ([`ProblemDomain::periodic_shifts`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProblemDomain {
    domain: IBox,
    periodic: [bool; DIM],
}

impl ProblemDomain {
    /// A non-periodic domain over `domain`.
    pub fn new(domain: IBox) -> Self {
        ProblemDomain { domain, periodic: [false; DIM] }
    }

    /// A fully periodic domain over `domain`.
    pub fn periodic(domain: IBox) -> Self {
        ProblemDomain { domain, periodic: [true; DIM] }
    }

    /// The domain box.
    #[inline]
    pub fn domain_box(&self) -> IBox {
        self.domain
    }

    /// Extent of the domain in direction `d`.
    #[inline]
    pub fn extent(&self, d: usize) -> i32 {
        self.domain.extent(d)
    }

    /// All shift vectors `s` (including `ZERO`) such that data at `iv` may
    /// be found at `iv + s` inside the domain under periodicity, when the
    /// ghost reach is at most one domain period (asserted by callers).
    ///
    /// For a fully periodic 3-D domain this enumerates the 27 images
    /// `(i, j, k) * extent` for `i, j, k ∈ {-1, 0, 1}`.
    pub fn periodic_shifts(&self) -> Vec<IntVect> {
        let mut shifts = vec![IntVect::ZERO];
        for d in 0..DIM {
            if !self.periodic[d] {
                continue;
            }
            let ext = self.extent(d);
            let cur: Vec<IntVect> = shifts.clone();
            for s in cur {
                shifts.push(s.shifted(d, ext));
                shifts.push(s.shifted(d, -ext));
            }
        }
        shifts
    }

    /// Wrap a point into the domain along periodic directions. Points
    /// outside the domain in non-periodic directions are returned
    /// unchanged.
    pub fn wrap(&self, mut iv: IntVect) -> IntVect {
        for d in 0..DIM {
            if self.periodic[d] {
                let lo = self.domain.lo()[d];
                let ext = self.extent(d);
                let rel = (iv[d] - lo).rem_euclid(ext);
                iv[d] = lo + rel;
            }
        }
        iv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shifts_non_periodic() {
        let d = ProblemDomain::new(IBox::cube(8));
        assert_eq!(d.periodic_shifts(), vec![IntVect::ZERO]);
    }

    #[test]
    fn shifts_fully_periodic() {
        let d = ProblemDomain::periodic(IBox::cube(8));
        let shifts = d.periodic_shifts();
        assert_eq!(shifts.len(), 27);
        // Distinct.
        let mut s = shifts.clone();
        s.sort();
        s.dedup();
        assert_eq!(s.len(), 27);
        // Every component is a multiple of the extent.
        for sh in shifts {
            for dd in 0..DIM {
                assert_eq!(sh[dd].rem_euclid(8), 0);
                assert!(sh[dd].abs() <= 8);
            }
        }
    }

    #[test]
    fn wrap_points() {
        let d = ProblemDomain::periodic(IBox::cube(8));
        assert_eq!(d.wrap(IntVect::new(-1, 8, 3)), IntVect::new(7, 0, 3));
        assert_eq!(d.wrap(IntVect::new(-9, 17, 0)), IntVect::new(7, 1, 0));
        let nd = ProblemDomain::new(IBox::cube(8));
        assert_eq!(nd.wrap(IntVect::new(-1, 8, 3)), IntVect::new(-1, 8, 3));
    }
}
