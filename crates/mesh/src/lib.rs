//! Structured-grid substrate for the SC14 inter-loop scheduling study.
//!
//! This crate provides the subset of a block-structured PDE framework
//! (modeled on Chombo's design) that the flux-kernel exemplar touches:
//!
//! * [`IntVect`] — an integer point in `DIM`-dimensional index space.
//! * [`IBox`] — a rectangular region of index space with inclusive bounds,
//!   either cell-centered or node/face-centered in individual directions.
//! * [`FArrayBox`] — a multi-component array over an [`IBox`], stored
//!   column-major (`x` unit stride) with the component axis outermost,
//!   matching the `[x, y, z, c]` Fortran layout described in the paper
//!   (Section III-C).
//! * [`ProblemDomain`] — the full index-space extent plus periodicity.
//! * [`DisjointBoxLayout`] — a disjoint union of equally-sized boxes
//!   covering a domain (the unit of coarse-grain parallelism).
//! * [`LevelData`] — one `FArrayBox` per layout box, with ghost cells and
//!   a ghost-cell [`LevelData::exchange`].
//!
//! Everything is 3-D (`DIM == 3`), as the paper compiles its exemplar for
//! three dimensions; the ghost-ratio analytics in `pdesched-kernels`
//! handle the general-`D` formula of Figure 1.

// Pointer-walk inner loops and per-direction index arithmetic are the
// deliberate idiom here; the flagged clippy styles would obscure them.
#![allow(clippy::needless_range_loop)]
pub mod copier;
pub mod domain;
pub mod fab;
pub mod ibox;
pub mod intvect;
pub mod layout;
pub mod leveldata;
pub mod trace_addr;

pub use copier::{CopyOp, ExchangePlan};
pub use domain::ProblemDomain;
pub use fab::FArrayBox;
pub use ibox::{Centering, IBox};
pub use intvect::IntVect;
pub use layout::DisjointBoxLayout;
pub use leveldata::LevelData;

/// Number of spatial dimensions. The exemplar is compiled for 3-D.
pub const DIM: usize = 3;
