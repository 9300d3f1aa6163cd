//! Inter-loop schedule variants for the CFD flux-kernel exemplar —
//! the primary contribution of the SC14 paper.
//!
//! The exemplar (see `pdesched-kernels`) applies, per spatial direction,
//! a face interpolation, a flux product, and a divergence accumulation.
//! The *schedule* — the order in which those operations visit the
//! iteration space, where their temporaries live, and which loops are
//! parallel — is what this crate varies. Four categories (paper
//! Section IV):
//!
//! | Category | Temporaries | Parallelism | Recomputation |
//! |---|---|---|---|
//! | [`Category::Series`] — series of loops (Fig. 7) | whole-box flux + velocity | fully parallel loops | none |
//! | [`Category::ShiftFuse`] — shifted + fused (Fig. 8a) | scalars / line / plane caches | wavefront only | none |
//! | [`Category::BlockedWavefront`] — shift-fuse + tiling (Fig. 8b) | co-dimension flux caches | wavefronts of tiles | none |
//! | [`Category::OverlappedTile`] — communication-avoiding (Fig. 8c) | per-thread tile-local | embarrassing over tiles | tile-surface faces |
//!
//! Each category supports parallelization **over boxes** (`P >= Box`) or
//! **within a box** (`P < Box`), and the component loop **outside**
//! (CLO) or **inside** (CLI) the spatial loops. Tiled categories sweep
//! tile sizes {4, 8, 16, 32}.
//!
//! Every variant produces output **bitwise identical** to
//! `pdesched_kernels::reference`, because all variants perform the same
//! floating-point operations per (cell, component) with per-cell
//! direction order x, y, z — verified exhaustively by this crate's test
//! suite.
//!
//! Entry points: [`run_box`] (one box, serial or intra-box parallel) and
//! [`run_level`] (a whole [`pdesched_mesh::LevelData`]).

// Pointer-walk inner loops and per-direction index arithmetic are the
// deliberate idiom here; the flagged clippy styles would obscure them.
#![allow(clippy::should_implement_trait, clippy::too_many_arguments)]
pub mod describe;
pub mod exec;
pub mod fuse;
pub mod mem;
pub mod plan;
pub mod series;
pub mod shared;
pub mod storage;
pub mod variant;
pub mod wavefront;

pub use exec::{run_box, run_level};
pub use mem::{CountingMem, Mem, NoMem};
pub use plan::{plan_for, plan_for_optimized, Pass, Pipeline, PipelineError, Plan};
pub use storage::TempStorage;
pub use variant::{Category, CompLoop, Granularity, IntraTile, InvalidVariant, Variant};
