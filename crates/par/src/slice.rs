//! `Sync` views of mutable slices for caller-guaranteed disjoint access.

use std::marker::PhantomData;

/// A `Sync` wrapper around a mutable slice that lets multiple threads of
/// an SPMD region obtain `&mut` references to **disjoint** elements.
///
/// The scheduling layer partitions work so that no element index is
/// touched by two threads (boxes to threads, tiles to threads, cache
/// entries by owner row). The type system cannot see that partition, so
/// access is `unsafe` with the disjointness obligation documented on each
/// method.
pub struct UnsafeSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

unsafe impl<'a, T: Send> Sync for UnsafeSlice<'a, T> {}
unsafe impl<'a, T: Send> Send for UnsafeSlice<'a, T> {}

impl<'a, T> UnsafeSlice<'a, T> {
    /// Wrap a mutable slice. The wrapper borrows the slice for `'a`, so
    /// no other access is possible while it exists.
    pub fn new(slice: &'a mut [T]) -> Self {
        UnsafeSlice { ptr: slice.as_mut_ptr(), len: slice.len(), _marker: PhantomData }
    }

    /// Length of the underlying slice.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Get a mutable reference to element `i`.
    ///
    /// # Safety
    /// During the lifetime of the returned reference no other thread may
    /// access element `i` (the caller's work partition must make indices
    /// thread-disjoint).
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn get_mut(&self, i: usize) -> &mut T {
        debug_assert!(i < self.len);
        &mut *self.ptr.add(i)
    }

    /// Read element `i` (for `T: Copy`).
    ///
    /// # Safety
    /// No other thread may be writing element `i` concurrently.
    #[inline]
    pub unsafe fn read(&self, i: usize) -> T
    where
        T: Copy,
    {
        debug_assert!(i < self.len);
        *self.ptr.add(i)
    }

    /// Write element `i`.
    ///
    /// # Safety
    /// No other thread may be accessing element `i` concurrently.
    #[inline]
    pub unsafe fn write(&self, i: usize, v: T) {
        debug_assert!(i < self.len);
        *self.ptr.add(i) = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmd;

    #[test]
    fn disjoint_writes_from_threads() {
        let mut data = vec![0usize; 64];
        {
            let view = UnsafeSlice::new(&mut data);
            spmd(4, |ctx| {
                for i in ctx.static_range(view.len()) {
                    // Safety: static_range gives disjoint index blocks.
                    unsafe { *view.get_mut(i) = i * 10 };
                }
            });
        }
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i * 10);
        }
    }

    #[test]
    fn read_write_roundtrip() {
        let mut data = vec![1.5f64; 8];
        let view = UnsafeSlice::new(&mut data);
        unsafe {
            view.write(3, 9.25);
            assert_eq!(view.read(3), 9.25);
            assert_eq!(view.read(0), 1.5);
        }
        assert_eq!(view.len(), 8);
        assert!(!view.is_empty());
    }
}
