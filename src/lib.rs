//! **pdesched** — a reproduction of *"A Study on Balancing Parallelism,
//! Data Locality, and Recomputation in Existing PDE Solvers"*
//! (Olschanowsky, Strout, Guzik, Loffeld, Hittinger — SC 2014).
//!
//! Structured-grid PDE frameworks parallelize over *boxes*. Large boxes
//! slash ghost-cell overhead (Figure 1) but the straightforward
//! series-of-loops schedule stops scaling on multicore nodes: it is
//! memory-bandwidth bound. The paper hand-prototypes ~30 *inter-loop*
//! schedules of a CFD flux kernel and shows that shifted+fused and
//! overlapped-tile schedules let 128³ boxes match the efficiency of 16³
//! boxes. This workspace rebuilds the whole study in Rust:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`mesh`] | boxes, face/cell arrays, layouts, ghost exchange |
//! | [`par`] | OpenMP-like SPMD regions, barriers, parallel-for |
//! | [`kernels`] | the flux-kernel exemplar (Eq. 6/7) + analytics |
//! | [`core`] | **the ~40 schedule variants** (series, shift-fuse, blocked wavefront, overlapped tiles) |
//! | [`cachesim`] | multi-level write-back cache simulator |
//! | [`machine`] | machine models + the execution-time model regenerating every figure |
//!
//! # Quickstart
//!
//! ```
//! use pdesched::prelude::*;
//!
//! // A periodic 32^3 domain in 16^3 boxes, five components, 2 ghosts.
//! let layout = DisjointBoxLayout::uniform(
//!     ProblemDomain::periodic(IBox::cube(32)), 16);
//! let mut phi0 = LevelData::new(layout.clone(), NCOMP, GHOST);
//! let mut phi1 = LevelData::new(layout, NCOMP, 0);
//! phi0.fill_synthetic(1);
//! phi0.exchange();
//!
//! // Run the paper's best large-box schedule: overlapped 8^3 tiles with
//! // a fused sweep inside, parallel over tiles.
//! let variant = Variant::overlapped(IntraTile::ShiftFuse, 8,
//!                                   Granularity::WithinBox);
//! run_level(variant, &phi0, &mut phi1, /*threads=*/4, &NoMem);
//!
//! // Any other variant produces bitwise-identical results.
//! let mut check = LevelData::new(phi1.layout().clone(), NCOMP, 0);
//! run_level(Variant::baseline(), &phi0, &mut check, 1, &NoMem);
//! for i in 0..phi1.num_boxes() {
//!     assert!(phi1.fab(i).bit_eq(check.fab(i), phi1.valid_box(i)));
//! }
//! ```

pub use pdesched_cachesim as cachesim;
pub use pdesched_core as core;
pub use pdesched_kernels as kernels;
pub use pdesched_machine as machine;
pub use pdesched_mesh as mesh;
pub use pdesched_par as par;

/// The names almost every user needs.
pub mod prelude {
    pub use pdesched_core::{
        run_box, run_level, Category, CompLoop, CountingMem, Granularity, IntraTile, Mem, NoMem,
        TempStorage, Variant,
    };
    pub use pdesched_kernels::{GHOST, NCOMP};
    pub use pdesched_machine::{predict_time, MachineSpec, TrafficCache, Workload};
    pub use pdesched_mesh::{
        DisjointBoxLayout, FArrayBox, IBox, IntVect, LevelData, ProblemDomain,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work() {
        let v = Variant::baseline();
        assert_eq!(v.name(), "Baseline: P>=Box");
        assert_eq!(NCOMP, 5);
        assert_eq!(GHOST, 2);
        let spec = MachineSpec::magny_cours();
        assert_eq!(spec.cores(), 24);
    }
}
