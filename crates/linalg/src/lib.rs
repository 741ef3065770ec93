//! Linear-algebra substrate for the `sodiff` workspace.
//!
//! The paper's evaluation relies on LAPACK for eigenvalue computations
//! (Section VI); this crate replaces it with self-contained solvers:
//!
//! * [`dense::DenseMatrix`] — a small row-major dense matrix,
//! * [`jacobi`] — a cyclic Jacobi eigensolver for symmetric matrices
//!   (exact eigendecomposition for small instances; the test oracle of
//!   the Lanczos solver),
//! * [`lanczos`] — a residual-certified Lanczos solver for the two ends
//!   of the deflated spectrum of large sparse diffusion operators, in
//!   `O(n)` memory,
//! * [`diffusion`] — the diffusion operator `M = I − L·S⁻¹` of a
//!   (heterogeneous) network, applied matrix-free in `O(|E|)`,
//! * [`spectral`] — computation of the second-largest eigenvalue magnitude
//!   `λ` (and thus `β_opt = 2/(1+√(1−λ²))`), dispatching to analytic
//!   formulas for tori/hypercubes/cycles/complete graphs and to the
//!   Lanczos solver otherwise,
//! * [`fourier`] — the analytic Fourier eigenbasis of 2D tori used to
//!   track per-eigenvector load coefficients (paper Figures 7 and 15)
//!   without a dense `V·a = x` solve.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dense;
pub mod diffusion;
pub mod fourier;
pub mod jacobi;
pub mod lanczos;
pub mod spectral;
pub mod vector;
