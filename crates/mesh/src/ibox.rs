//! Rectangular regions of index space.

use crate::intvect::IntVect;
use crate::DIM;
use std::fmt;

/// Centering of a box: cell-centered, or node-centered in one direction
/// (a *face* box holding fluxes for faces normal to that direction).
///
/// Chombo represents face data as a cell box "surrounded by nodes" in one
/// direction; we track the centering explicitly so that face boxes created
/// by [`IBox::surrounding_faces`] are self-describing.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, Default)]
pub enum Centering {
    /// Values live at cell centers.
    #[default]
    Cell,
    /// Values live on faces normal to the given direction.
    Face(usize),
}

/// A rectangular region of index space with **inclusive** bounds
/// (`lo..=hi` in each direction), Chombo-style.
///
/// An empty box is represented by any `hi` component `<` its `lo`
/// component; [`IBox::is_empty`] checks for that.
///
/// ```
/// use pdesched_mesh::IBox;
/// let b = IBox::cube(16);
/// assert_eq!(b.num_pts(), 4096);
/// // 2 ghost layers, faces normal to x:
/// assert_eq!(b.grown(2).num_pts(), 8000);
/// assert_eq!(b.surrounding_faces(0).num_pts(), 17 * 16 * 16);
/// // 4^3 tiles partition the box:
/// assert_eq!(b.tiles(4).len(), 64);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct IBox {
    lo: IntVect,
    hi: IntVect,
    centering: Centering,
}

impl IBox {
    /// A cell-centered box spanning `lo..=hi`.
    #[inline]
    pub fn new(lo: IntVect, hi: IntVect) -> Self {
        IBox { lo, hi, centering: Centering::Cell }
    }

    /// The cell-centered cube `[0, n-1]^DIM`.
    #[inline]
    pub fn cube(n: i32) -> Self {
        IBox::new(IntVect::ZERO, IntVect::splat(n - 1))
    }

    /// A canonical empty box.
    #[inline]
    pub fn empty() -> Self {
        IBox::new(IntVect::ZERO, IntVect::splat(-1))
    }

    /// Low corner.
    #[inline]
    pub fn lo(&self) -> IntVect {
        self.lo
    }

    /// High corner (inclusive).
    #[inline]
    pub fn hi(&self) -> IntVect {
        self.hi
    }

    /// Centering of this box.
    #[inline]
    pub fn centering(&self) -> Centering {
        self.centering
    }

    /// Number of points along each direction (`hi - lo + 1`, clamped at 0).
    #[inline]
    pub fn size(&self) -> IntVect {
        let mut v = [0; DIM];
        for d in 0..DIM {
            v[d] = (self.hi[d] - self.lo[d] + 1).max(0);
        }
        IntVect(v)
    }

    /// Extent in direction `d`.
    #[inline]
    pub fn extent(&self, d: usize) -> i32 {
        (self.hi[d] - self.lo[d] + 1).max(0)
    }

    /// Total number of points.
    #[inline]
    pub fn num_pts(&self) -> usize {
        self.size().product()
    }

    /// True if the box contains no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        (0..DIM).any(|d| self.hi[d] < self.lo[d])
    }

    /// True if `iv` lies inside the box.
    #[inline]
    pub fn contains(&self, iv: IntVect) -> bool {
        iv.all_ge(self.lo) && iv.all_le(self.hi)
    }

    /// True if `other` lies entirely inside `self`.
    #[inline]
    pub fn contains_box(&self, other: &IBox) -> bool {
        other.is_empty() || (other.lo.all_ge(self.lo) && other.hi.all_le(self.hi))
    }

    /// Intersection of two boxes (empty box if disjoint). Centering of
    /// `self` is retained; intersecting boxes of different centerings is a
    /// logic error and panics in debug builds.
    #[inline]
    pub fn intersect(&self, other: &IBox) -> IBox {
        debug_assert_eq!(self.centering, other.centering);
        IBox { lo: self.lo.max(other.lo), hi: self.hi.min(other.hi), centering: self.centering }
    }

    /// True if the two boxes share at least one point.
    #[inline]
    pub fn intersects(&self, other: &IBox) -> bool {
        !self.intersect(other).is_empty()
    }

    /// Grow by `g` points on **both** sides in every direction
    /// (negative shrinks). This is how a ghost region is obtained.
    #[inline]
    pub fn grown(&self, g: i32) -> IBox {
        IBox {
            lo: self.lo - IntVect::splat(g),
            hi: self.hi + IntVect::splat(g),
            centering: self.centering,
        }
    }

    /// Translate the whole box by `offset`.
    #[inline]
    pub fn shifted(&self, offset: IntVect) -> IBox {
        IBox { lo: self.lo + offset, hi: self.hi + offset, centering: self.centering }
    }

    /// The face-centered box holding the faces of `self` normal to
    /// direction `d`: one more point than `self` along `d`
    /// (`N+1` faces bound `N` cells).
    #[inline]
    pub fn surrounding_faces(&self, d: usize) -> IBox {
        debug_assert_eq!(self.centering, Centering::Cell);
        IBox { lo: self.lo, hi: self.hi.shifted(d, 1), centering: Centering::Face(d) }
    }

    /// Reinterpret as cell-centered (used when a face box's index range is
    /// needed as a raw iteration domain).
    #[inline]
    pub fn as_cell(&self) -> IBox {
        IBox { lo: self.lo, hi: self.hi, centering: Centering::Cell }
    }

    /// Iterate over all points in the box in storage order
    /// (x fastest, then y, then z).
    pub fn iter(&self) -> BoxIter {
        BoxIter { b: *self, cur: self.lo, done: self.is_empty() }
    }

    /// Chop the box into sub-boxes of at most `tile` points per direction,
    /// in storage order. The final tile in each direction may be smaller
    /// when `tile` does not divide the extent (edge-tile handling the
    /// paper's generated loop bounds must also deal with).
    pub fn tiles(&self, tile: i32) -> Vec<IBox> {
        assert!(tile >= 1);
        if self.is_empty() {
            return Vec::new();
        }
        let n = self.size();
        let counts: Vec<i32> = (0..DIM).map(|d| (n[d] + tile - 1) / tile).collect();
        let mut out = Vec::with_capacity(counts.iter().map(|&c| c as usize).product());
        for tz in 0..counts[2] {
            for ty in 0..counts[1] {
                for tx in 0..counts[0] {
                    let tlo = IntVect::new(
                        self.lo[0] + tx * tile,
                        self.lo[1] + ty * tile,
                        self.lo[2] + tz * tile,
                    );
                    let thi = IntVect::new(
                        (tlo[0] + tile - 1).min(self.hi[0]),
                        (tlo[1] + tile - 1).min(self.hi[1]),
                        (tlo[2] + tile - 1).min(self.hi[2]),
                    );
                    out.push(IBox { lo: tlo, hi: thi, centering: self.centering });
                }
            }
        }
        out
    }

    /// Number of tiles per direction for tile size `tile`.
    pub fn tile_counts(&self, tile: i32) -> IntVect {
        let n = self.size();
        IntVect::new((n[0] + tile - 1) / tile, (n[1] + tile - 1) / tile, (n[2] + tile - 1) / tile)
    }
}

impl fmt::Debug for IBox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IBox[{:?}..{:?} {:?}]", self.lo, self.hi, self.centering)
    }
}

/// Iterator over the points of an [`IBox`] in storage order.
pub struct BoxIter {
    b: IBox,
    cur: IntVect,
    done: bool,
}

impl Iterator for BoxIter {
    type Item = IntVect;

    fn next(&mut self) -> Option<IntVect> {
        if self.done {
            return None;
        }
        let out = self.cur;
        // Advance x fastest.
        self.cur[0] += 1;
        for d in 0..DIM - 1 {
            if self.cur[d] > self.b.hi[d] {
                self.cur[d] = self.b.lo[d];
                self.cur[d + 1] += 1;
            }
        }
        if self.cur[DIM - 1] > self.b.hi[DIM - 1] {
            self.done = true;
        }
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.done {
            return (0, Some(0));
        }
        // Remaining count: exact.
        let n = self.b.size();
        let rel = [
            (self.cur[0] - self.b.lo()[0]) as usize,
            (self.cur[1] - self.b.lo()[1]) as usize,
            (self.cur[2] - self.b.lo()[2]) as usize,
        ];
        let consumed = (rel[2] * n[1] as usize + rel[1]) * n[0] as usize + rel[0];
        let rem = self.b.num_pts() - consumed;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for BoxIter {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes() {
        let b = IBox::new(IntVect::new(0, 0, 0), IntVect::new(3, 1, 2));
        assert_eq!(b.size(), IntVect::new(4, 2, 3));
        assert_eq!(b.num_pts(), 24);
        assert!(!b.is_empty());
        assert!(IBox::empty().is_empty());
        assert_eq!(IBox::empty().num_pts(), 0);
    }

    #[test]
    fn cube() {
        let b = IBox::cube(16);
        assert_eq!(b.lo(), IntVect::ZERO);
        assert_eq!(b.hi(), IntVect::splat(15));
        assert_eq!(b.num_pts(), 16 * 16 * 16);
    }

    #[test]
    fn contains_and_intersect() {
        let a = IBox::new(IntVect::new(0, 0, 0), IntVect::new(7, 7, 7));
        let b = IBox::new(IntVect::new(4, 4, 4), IntVect::new(11, 11, 11));
        let i = a.intersect(&b);
        assert_eq!(i.lo(), IntVect::splat(4));
        assert_eq!(i.hi(), IntVect::splat(7));
        assert!(a.contains(IntVect::new(7, 0, 3)));
        assert!(!a.contains(IntVect::new(8, 0, 3)));
        assert!(a.contains_box(&i));
        assert!(a.intersects(&b));
        let c = IBox::new(IntVect::splat(100), IntVect::splat(110));
        assert!(!a.intersects(&c));
        assert!(a.intersect(&c).is_empty());
        // Every box contains the empty box.
        assert!(c.contains_box(&IBox::empty()));
    }

    #[test]
    fn grow_shift() {
        let b = IBox::cube(8);
        let g = b.grown(2);
        assert_eq!(g.lo(), IntVect::splat(-2));
        assert_eq!(g.hi(), IntVect::splat(9));
        assert_eq!(g.grown(-2), b);
        let s = b.shifted(IntVect::new(1, -1, 0));
        assert_eq!(s.lo(), IntVect::new(1, -1, 0));
    }

    #[test]
    fn face_boxes() {
        let b = IBox::cube(4);
        for d in 0..DIM {
            let f = b.surrounding_faces(d);
            assert_eq!(f.centering(), Centering::Face(d));
            assert_eq!(f.extent(d), 5);
            for dd in 0..DIM {
                if dd != d {
                    assert_eq!(f.extent(dd), 4);
                }
            }
        }
    }

    #[test]
    fn iter_order_and_count() {
        let b = IBox::new(IntVect::new(1, 2, 3), IntVect::new(2, 3, 4));
        let pts: Vec<_> = b.iter().collect();
        assert_eq!(pts.len(), b.num_pts());
        assert_eq!(pts[0], IntVect::new(1, 2, 3));
        assert_eq!(pts[1], IntVect::new(2, 2, 3)); // x fastest
        assert_eq!(pts[2], IntVect::new(1, 3, 3));
        assert_eq!(*pts.last().unwrap(), IntVect::new(2, 3, 4));
        // All distinct, all contained.
        for p in &pts {
            assert!(b.contains(*p));
        }
        let mut sorted = pts.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), pts.len());
        // size_hint is exact at every step.
        let mut it = b.iter();
        let mut remaining = b.num_pts();
        loop {
            assert_eq!(it.size_hint(), (remaining, Some(remaining)));
            if it.next().is_none() {
                break;
            }
            remaining -= 1;
        }
    }

    #[test]
    fn tiles_cover_exactly() {
        let b = IBox::cube(10);
        for tile in [1, 2, 3, 4, 5, 7, 10, 16] {
            let tiles = b.tiles(tile);
            let total: usize = tiles.iter().map(|t| t.num_pts()).sum();
            assert_eq!(total, b.num_pts(), "tile={tile}");
            // Pairwise disjoint.
            for (i, a) in tiles.iter().enumerate() {
                assert!(b.contains_box(a));
                for bb in &tiles[i + 1..] {
                    assert!(!a.intersects(bb), "tile={tile}");
                }
            }
        }
    }

    #[test]
    fn tile_counts_match() {
        let b = IBox::cube(10);
        assert_eq!(b.tile_counts(4), IntVect::splat(3));
        assert_eq!(b.tiles(4).len(), 27);
        assert_eq!(b.tile_counts(5), IntVect::splat(2));
    }
}
