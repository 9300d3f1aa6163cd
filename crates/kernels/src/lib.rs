//! The CFD flux-kernel exemplar (paper Section III).
//!
//! The exemplar is a simplified finite-volume flux kernel retaining the
//! two structural challenges of real CFD codes: loops with different
//! centerings (faces vs. cells) that cannot be trivially fused, and
//! successive operations with non-trivial dependencies. Per direction
//! `d` and component `c`:
//!
//! 1. **`EvalFlux1`** (Eq. 6) — interpolate the cell-averaged solution to
//!    faces at 4th order:
//!    `⟨φ⟩_{i+e^d/2} = 7/12 (⟨φ⟩_i + ⟨φ⟩_{i+e^d}) − 1/12 (⟨φ⟩_{i+2e^d} + ⟨φ⟩_{i−e^d})`.
//! 2. **`EvalFlux2`** (Eq. 7) — multiply by the face velocity (component
//!    `d+1` of the interpolated solution): `Δx⟨F^d⟩ = ⟨φ_{d+1}⟩⟨φ⟩`.
//! 3. **Accumulate** — `phi1(cell) += flux(cell + e^d) − flux(cell)`.
//!
//! This crate provides the point kernels, whole-box reference operators
//! (the "series of loops" schedule in its simplest form — the ground
//! truth every schedule variant must match bitwise), operation-count
//! analytics, and the ghost-cell-ratio formula behind Figure 1.

// Pointer-walk inner loops and per-direction index arithmetic are the
// deliberate idiom here; the flagged clippy styles would obscure them.
#![allow(
    clippy::needless_range_loop,
    clippy::explicit_counter_loop,
    clippy::should_implement_trait
)]
pub mod boxops;
pub mod ghost;
pub mod ops;
pub mod point;
pub mod reference;

pub use point::{accumulate, face_interp, flux_mul};

/// Number of solution components: `[ρ, u, v, w, e]` (Eq. 5).
pub const NCOMP: usize = 5;

/// Component indices into the solution vector.
pub mod comp {
    /// Density.
    pub const RHO: usize = 0;
    /// x-velocity.
    pub const U: usize = 1;
    /// y-velocity.
    pub const V: usize = 2;
    /// z-velocity.
    pub const W: usize = 3;
    /// Energy.
    pub const E: usize = 4;
}

/// The component of the interpolated face solution that acts as the
/// advection velocity for direction `d` (the paper's `flux[component
/// dir+1]`, Fig. 6 line 11).
#[inline]
pub const fn vel_comp(d: usize) -> usize {
    d + 1
}

/// Ghost-layer width required by the 4th-order face interpolation: the
/// face at index `f` reads cells `f-2 .. f+1`, so faces on the box
/// boundary reach 2 cells outside the valid region.
pub const GHOST: i32 = 2;
