//! Adapter streaming `pdesched-core` memory hooks into the cache
//! simulator.

use pdesched_cachesim::Hierarchy;
use pdesched_core::Mem;
use std::cell::UnsafeCell;

/// A [`Mem`] implementation that feeds every access into a
/// [`Hierarchy`].
///
/// Holds the simulator in an `UnsafeCell` for hook-call speed (a trace
/// of one 128^3 box is ~400M accesses); it must only be used with
/// single-threaded schedule execution (a one-thread plan, as
/// [`crate::traffic::measure`] lowers), which is what upholds the `Sync`
/// bound required by `Mem`.
pub struct TraceMem {
    sim: UnsafeCell<Hierarchy>,
}

// Safety: trace runs are single-threaded by contract (`measure` lowers
// every traced plan for nthreads == 1), so the cell is never accessed
// concurrently.
unsafe impl Sync for TraceMem {}

impl TraceMem {
    /// Wrap a hierarchy.
    pub fn new(sim: Hierarchy) -> Self {
        TraceMem { sim: UnsafeCell::new(sim) }
    }

    /// Finish tracing: flush dirty lines and return the hierarchy for
    /// inspection.
    pub fn finish(self) -> Hierarchy {
        let mut sim = self.sim.into_inner();
        sim.flush();
        sim
    }

    /// DRAM bytes so far (without final flush).
    pub fn dram_bytes_so_far(&self) -> u64 {
        // Safety: single-threaded use per the type contract.
        unsafe { &*self.sim.get() }.dram_bytes()
    }
}

impl Mem for TraceMem {
    #[inline]
    fn r(&self, addr: usize) {
        // Safety: single-threaded use per the type contract.
        unsafe { &mut *self.sim.get() }.read(addr);
    }
    #[inline]
    fn w(&self, addr: usize) {
        // Safety: single-threaded use per the type contract.
        unsafe { &mut *self.sim.get() }.write(addr);
    }
    #[inline]
    fn r_run(&self, addr: usize, elems: usize) {
        // Safety: single-threaded use per the type contract.
        unsafe { &mut *self.sim.get() }.read_run(addr, elems);
    }
    #[inline]
    fn w_run(&self, addr: usize, elems: usize) {
        // Safety: single-threaded use per the type contract.
        unsafe { &mut *self.sim.get() }.write_run(addr, elems);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdesched_cachesim::CacheConfig;

    #[test]
    fn trace_counts_accesses() {
        let t = TraceMem::new(Hierarchy::new(&[CacheConfig::new(4096, 4)]));
        t.r(0);
        t.r(8);
        t.w(64);
        let sim = t.finish();
        assert_eq!(sim.stats().reads, 2);
        assert_eq!(sim.stats().writes, 1);
        assert_eq!(sim.stats().dram_lines_read, 2);
        assert_eq!(sim.stats().dram_lines_written, 1);
    }

    #[test]
    fn trace_forwards_runs() {
        let t = TraceMem::new(Hierarchy::new(&[CacheConfig::new(4096, 4)]));
        t.r_run(0, 16); // lines 0, 1
        t.w_run(128, 8); // line 2
        let sim = t.finish();
        assert_eq!(sim.stats().reads, 16);
        assert_eq!(sim.stats().writes, 8);
        assert_eq!(sim.stats().dram_lines_read, 3);
        assert_eq!(sim.stats().dram_lines_written, 1);
    }
}
