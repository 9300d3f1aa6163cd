//! `FArrayBox`: multi-component array data over a box.

use crate::ibox::IBox;
use crate::intvect::IntVect;

/// A multi-component `f64` array defined over an [`IBox`].
///
/// Storage matches the paper's Section III-C: layout `[x, y, z, c]` with
/// Fortran (column-major) ordering — `x` is unit stride and the component
/// index `c` is outermost. Consequently the values of the *same* component
/// at adjacent `x` are contiguous, while the components of one cell are
/// `nx*ny*nz` elements apart ("the individual components in a cell are
/// very far apart in memory").
#[derive(Debug)]
pub struct FArrayBox {
    region: IBox,
    ncomp: usize,
    nx: usize,
    ny: usize,
    nz: usize,
    data: Vec<f64>,
    /// Virtual base address for memory-trace hooks (see
    /// [`crate::trace_addr`]): assigned at construction so traces depend
    /// on allocation order, never on heap placement.
    abase: usize,
}

impl Clone for FArrayBox {
    fn clone(&self) -> Self {
        // A clone is a new buffer: it gets its own trace address, like
        // any other allocation.
        FArrayBox {
            region: self.region,
            ncomp: self.ncomp,
            nx: self.nx,
            ny: self.ny,
            nz: self.nz,
            data: self.data.clone(),
            abase: crate::trace_addr::alloc(self.data.len() * 8),
        }
    }
}

impl PartialEq for FArrayBox {
    fn eq(&self, other: &Self) -> bool {
        // Trace addresses are identity, not value; equality is over the
        // defined region and its contents.
        self.region == other.region && self.ncomp == other.ncomp && self.data == other.data
    }
}

impl FArrayBox {
    /// Allocate a zero-initialized array over `region` with `ncomp`
    /// components.
    pub fn new(region: IBox, ncomp: usize) -> Self {
        let s = region.size();
        let (nx, ny, nz) = (s[0] as usize, s[1] as usize, s[2] as usize);
        let data = vec![0.0; nx * ny * nz * ncomp];
        let abase = crate::trace_addr::alloc(data.len() * 8);
        FArrayBox { region, ncomp, nx, ny, nz, data, abase }
    }

    /// The box this array is defined over (including any ghost region the
    /// caller baked into it).
    #[inline]
    pub fn region(&self) -> IBox {
        self.region
    }

    /// Number of components.
    #[inline]
    pub fn ncomp(&self) -> usize {
        self.ncomp
    }

    /// Total number of `f64` values (points × components).
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the region is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Heap size in bytes — used by the temporary-storage accounting that
    /// reproduces Table I.
    #[inline]
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }

    /// Stride between adjacent `y` values.
    #[inline]
    pub fn y_stride(&self) -> usize {
        self.nx
    }

    /// Stride between adjacent `z` values.
    #[inline]
    pub fn z_stride(&self) -> usize {
        self.nx * self.ny
    }

    /// Linear index of `(iv, c)` into [`FArrayBox::data`].
    #[inline]
    pub fn index(&self, iv: IntVect, c: usize) -> usize {
        debug_assert!(self.region.contains(iv), "{iv:?} outside {:?}", self.region);
        debug_assert!(c < self.ncomp);
        let lo = self.region.lo();
        let x = (iv[0] - lo[0]) as usize;
        let y = (iv[1] - lo[1]) as usize;
        let z = (iv[2] - lo[2]) as usize;
        ((c * self.nz + z) * self.ny + y) * self.nx + x
    }

    /// Value at `(iv, c)`.
    #[inline]
    pub fn at(&self, iv: IntVect, c: usize) -> f64 {
        self.data[self.index(iv, c)]
    }

    /// Set the value at `(iv, c)`.
    #[inline]
    pub fn set(&mut self, iv: IntVect, c: usize, v: f64) {
        let i = self.index(iv, c);
        self.data[i] = v;
    }

    /// Raw data slice.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw data slice.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Base address of the data for building memory traces: a
    /// deterministic virtual address (see [`crate::trace_addr`]), not the
    /// heap pointer, so traces are reproducible across threads and runs.
    #[inline]
    pub fn base_addr(&self) -> usize {
        self.abase
    }

    /// Move the array to the trace base `abase`, a region of at least
    /// [`FArrayBox::bytes`] drawn from [`crate::trace_addr::alloc`]: its
    /// accesses are traced there from now on. One buffer can so stand
    /// in for several allocations of its shape.
    #[inline]
    pub fn set_base_addr(&mut self, abase: usize) {
        self.abase = abase;
    }

    /// Fill every value with `v`.
    pub fn set_val(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// The contiguous unit-stride row of component `c` at `(y, z)`,
    /// spanning the full x extent of the region.
    #[inline]
    pub fn row(&self, y: i32, z: i32, c: usize) -> &[f64] {
        let start = self.index(IntVect::new(self.region.lo()[0], y, z), c);
        &self.data[start..start + self.nx]
    }

    /// Copy values of components `0..ncomp` over `where_` from `src`
    /// (both arrays must contain `where_`).
    pub fn copy_from(&mut self, src: &FArrayBox, where_: IBox) {
        self.copy_from_shifted(src, where_, IntVect::ZERO)
    }

    /// Copy `src` over `where_` into `self` where the source is read at
    /// `iv + shift` for each destination point `iv` — used for periodic
    /// ghost exchange where the source data lives one domain-period away.
    pub fn copy_from_shifted(&mut self, src: &FArrayBox, where_: IBox, shift: IntVect) {
        if where_.is_empty() {
            return;
        }
        debug_assert!(self.region.contains_box(&where_));
        debug_assert!(src.region.contains_box(&where_.shifted(shift)));
        debug_assert_eq!(self.ncomp, src.ncomp);
        let lo = where_.lo();
        let hi = where_.hi();
        let nx = (hi[0] - lo[0] + 1) as usize;
        for c in 0..self.ncomp {
            for z in lo[2]..=hi[2] {
                for y in lo[1]..=hi[1] {
                    let di = self.index(IntVect::new(lo[0], y, z), c);
                    let si = src.index(IntVect::new(lo[0], y, z) + shift, c);
                    let (dst_row, src_row) = (&mut self.data[di..di + nx], &src.data[si..si + nx]);
                    dst_row.copy_from_slice(src_row);
                }
            }
        }
    }

    /// Elementwise `self += other` over the intersection of regions,
    /// all components.
    pub fn add_assign(&mut self, other: &FArrayBox) {
        debug_assert_eq!(self.ncomp, other.ncomp);
        let common = self.region.intersect(&other.region);
        if common.is_empty() {
            return;
        }
        let lo = common.lo();
        let hi = common.hi();
        let nx = (hi[0] - lo[0] + 1) as usize;
        for c in 0..self.ncomp {
            for z in lo[2]..=hi[2] {
                for y in lo[1]..=hi[1] {
                    let di = self.index(IntVect::new(lo[0], y, z), c);
                    let si = other.index(IntVect::new(lo[0], y, z), c);
                    for i in 0..nx {
                        self.data[di + i] += other.data[si + i];
                    }
                }
            }
        }
    }

    /// True if values are bitwise-identical to `other` over `where_` for
    /// all components. The schedule-equivalence tests use bitwise equality
    /// because every variant performs the per-cell floating-point
    /// operations in the same order.
    pub fn bit_eq(&self, other: &FArrayBox, where_: IBox) -> bool {
        for c in 0..self.ncomp {
            for iv in where_.iter() {
                if self.at(iv, c).to_bits() != other.at(iv, c).to_bits() {
                    return false;
                }
            }
        }
        true
    }

    /// Sum of component `c` over `where_` (conservation checks).
    pub fn sum_comp(&self, c: usize, where_: IBox) -> f64 {
        let mut s = 0.0;
        for iv in where_.iter() {
            s += self.at(iv, c);
        }
        s
    }

    /// Fill with a deterministic smooth-but-nontrivial function of the
    /// global index, so different boxes of a level agree on shared points.
    pub fn fill_synthetic(&mut self, seed: u64) {
        for c in 0..self.ncomp {
            for iv in self.region.iter() {
                let i = self.index(iv, c);
                self.data[i] = synthetic_value(iv, c, seed);
            }
        }
    }
}

/// Deterministic pseudo-random but position-consistent value used to
/// initialize test/benchmark data: two boxes that overlap (ghost regions)
/// compute identical values at identical global indices.
pub fn synthetic_value(iv: IntVect, c: usize, seed: u64) -> f64 {
    let mut h = seed
        ^ (iv[0] as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (iv[1] as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        ^ (iv[2] as u64).wrapping_mul(0x1656_67B1_9E37_79F9)
        ^ (c as u64).wrapping_mul(0x27D4_EB2F_1656_67C5);
    // splitmix64 finalizer
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    // Map to [0.5, 1.5): strictly positive, O(1) magnitude, no
    // cancellation blowups in the flux product.
    0.5 + (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ibox::IBox;

    #[test]
    fn layout_is_x_unit_stride_component_outermost() {
        let b = IBox::new(IntVect::new(0, 0, 0), IntVect::new(3, 2, 1));
        let f = FArrayBox::new(b, 2);
        assert_eq!(f.index(IntVect::new(0, 0, 0), 0), 0);
        assert_eq!(f.index(IntVect::new(1, 0, 0), 0), 1);
        assert_eq!(f.index(IntVect::new(0, 1, 0), 0), 4);
        assert_eq!(f.index(IntVect::new(0, 0, 1), 0), 12);
        assert_eq!(f.index(IntVect::new(0, 0, 0), 1), 24);
        assert_eq!(f.len(), 4 * 3 * 2 * 2);
        assert_eq!(f.z_stride(), 12);
        assert_eq!(f.y_stride(), 4);
    }

    #[test]
    fn offset_region() {
        let b = IBox::new(IntVect::new(-2, -2, -2), IntVect::new(5, 5, 5));
        let mut f = FArrayBox::new(b, 1);
        f.set(IntVect::new(-2, -2, -2), 0, 7.0);
        assert_eq!(f.data()[0], 7.0);
        f.set(IntVect::new(5, 5, 5), 0, 9.0);
        assert_eq!(*f.data().last().unwrap(), 9.0);
    }

    #[test]
    fn row_access() {
        let b = IBox::cube(4);
        let mut f = FArrayBox::new(b, 2);
        for (i, v) in f.data_mut().iter_mut().enumerate() {
            *v = i as f64;
        }
        let r = f.row(2, 3, 1);
        assert_eq!(r.len(), 4);
        let start = f.index(IntVect::new(0, 2, 3), 1);
        assert_eq!(r[0], start as f64);
        assert_eq!(r[3], (start + 3) as f64);
    }

    #[test]
    fn copy_from_region() {
        let big = IBox::cube(6);
        let mut dst = FArrayBox::new(big, 2);
        let mut src = FArrayBox::new(big, 2);
        src.fill_synthetic(42);
        let mid = IBox::new(IntVect::splat(1), IntVect::splat(4));
        dst.copy_from(&src, mid);
        for c in 0..2 {
            for iv in big.iter() {
                if mid.contains(iv) {
                    assert_eq!(dst.at(iv, c), src.at(iv, c));
                } else {
                    assert_eq!(dst.at(iv, c), 0.0);
                }
            }
        }
    }

    #[test]
    fn copy_from_shifted_periodic_style() {
        let b = IBox::cube(8);
        let mut src = FArrayBox::new(b, 1);
        src.fill_synthetic(1);
        let mut dst = FArrayBox::new(IBox::new(IntVect::splat(-2), IntVect::splat(1)), 1);
        // Destination ghost region [-2,-1] maps to source [6,7]: shift +8.
        let ghost = IBox::new(IntVect::splat(-2), IntVect::splat(-1));
        dst.copy_from_shifted(&src, ghost, IntVect::splat(8));
        for iv in ghost.iter() {
            assert_eq!(dst.at(iv, 0), src.at(iv + IntVect::splat(8), 0));
        }
    }

    #[test]
    fn synthetic_consistent_across_boxes() {
        let a = IBox::new(IntVect::splat(0), IntVect::splat(7));
        let b = IBox::new(IntVect::splat(4), IntVect::splat(11));
        let mut fa = FArrayBox::new(a, 3);
        let mut fb = FArrayBox::new(b, 3);
        fa.fill_synthetic(9);
        fb.fill_synthetic(9);
        let shared = a.intersect(&b);
        assert!(!shared.is_empty());
        assert!(fa.bit_eq(&fb, shared));
        // Range check.
        for v in fa.data() {
            assert!((0.5..1.5).contains(v));
        }
    }

    #[test]
    fn add_assign_intersection() {
        let a = IBox::cube(4);
        let mut fa = FArrayBox::new(a, 1);
        let mut fb = FArrayBox::new(a, 1);
        fa.set_val(1.0);
        fb.set_val(2.5);
        fa.add_assign(&fb);
        for iv in a.iter() {
            assert_eq!(fa.at(iv, 0), 3.5);
        }
    }

    #[test]
    fn sum_comp_over_a_box() {
        let a = IBox::cube(3);
        let mut fa = FArrayBox::new(a, 1);
        fa.set(IntVect::new(1, 1, 1), 0, -4.0);
        assert_eq!(fa.sum_comp(0, a), -4.0);
    }

    #[test]
    fn set_base_addr_moves_only_the_trace_base() {
        crate::trace_addr::reset();
        let b = IBox::cube(4);
        let mut f = FArrayBox::new(b, 2);
        f.set(IntVect::new(1, 2, 3), 1, 7.0);
        let other = crate::trace_addr::alloc(f.bytes());
        let before = f.clone();
        let cursor = crate::trace_addr::mark();
        f.set_base_addr(other);
        assert_eq!(f.base_addr(), other);
        assert_eq!(crate::trace_addr::mark(), cursor, "moving draws no address");
        assert_eq!(f, before, "values and region stay");
    }
}
