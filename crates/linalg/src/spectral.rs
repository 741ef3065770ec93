//! Spectral analysis of diffusion matrices: the second-largest eigenvalue
//! magnitude `λ` that controls convergence rates and the optimal SOS
//! parameter `β_opt = 2/(1+√(1−λ²))` (paper Section II).
//!
//! Dispatch order:
//!
//! 1. analytic closed forms for generated tori, hypercubes, cycles, and
//!    complete graphs in the normalized homogeneous model (`s ≡ 1`),
//! 2. dense Jacobi eigendecomposition for small graphs,
//! 3. shifted power iteration with deflation on the symmetrized operator
//!    `B = S^{-1/2}·M·S^{1/2}` otherwise.
//!
//! The numerical solvers need a connected network, which one BFS checks;
//! the closed forms apply only to generator-built graphs, which are
//! connected by construction, so they run no search at all.

use std::error::Error;
use std::f64::consts::PI;
use std::fmt;

use sodiff_graph::{Graph, GraphKind, Speeds};

use crate::diffusion::DiffusionOperator;
use crate::jacobi;
use crate::power::{dominant_eigenvalue, PowerOptions};

/// Above this node count the dense Jacobi path is skipped.
pub const DENSE_LIMIT: usize = 600;

/// How `λ` was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SpectralMethod {
    /// Closed form for a torus.
    AnalyticTorus,
    /// Closed form for a hypercube.
    AnalyticHypercube,
    /// Closed form for a cycle.
    AnalyticCycle,
    /// Closed form for the complete graph.
    AnalyticComplete,
    /// Dense Jacobi eigendecomposition of `B`.
    DenseJacobi,
    /// Shifted power iteration with deflation on `B`.
    PowerIteration,
}

/// Spectral summary of a diffusion matrix.
#[derive(Debug, Clone, Copy)]
pub struct Spectrum {
    /// `λ`: the largest magnitude among non-principal eigenvalues,
    /// `max(|λ₂|, |λ_n|)`.
    pub lambda: f64,
    /// Second-largest eigenvalue (signed).
    pub lambda_2: f64,
    /// Smallest eigenvalue (signed).
    pub lambda_min: f64,
    /// Which solver produced the numbers.
    pub method: SpectralMethod,
}

impl Spectrum {
    /// The eigenvalue gap `1 − λ`.
    pub fn gap(&self) -> f64 {
        1.0 - self.lambda
    }

    /// The optimal SOS relaxation parameter for this spectrum.
    pub fn beta_opt(&self) -> f64 {
        beta_opt(self.lambda)
    }
}

/// `β_opt = 2 / (1 + √(1 − λ²))` (Muthukrishnan et al.; paper Section II).
///
/// # Panics
///
/// Panics unless `0 ≤ λ < 1`.
pub fn beta_opt(lambda: f64) -> f64 {
    assert!(
        (0.0..1.0).contains(&lambda),
        "beta_opt requires 0 <= lambda < 1, got {lambda}"
    );
    2.0 / (1.0 + (1.0 - lambda * lambda).sqrt())
}

/// Why a network has no spectral gap: its `λ` is 1, so diffusion cannot
/// balance it and `β_opt` is undefined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SpectralError {
    /// The network has fewer than two nodes (the count is given).
    TooFewNodes(usize),
    /// The network has more than one connected component.
    Disconnected,
}

impl fmt::Display for SpectralError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpectralError::TooFewNodes(n) => {
                write!(f, "spectral analysis needs at least two nodes, got {n}")
            }
            SpectralError::Disconnected => {
                f.write_str("spectral analysis requires a connected graph")
            }
        }
    }
}

impl Error for SpectralError {}

/// Computes the spectrum of `M = I − L·S⁻¹` for the given network, or
/// says why it has none. Runs at most one connectivity search (none for
/// the closed forms).
///
/// # Errors
///
/// Returns [`SpectralError::TooFewNodes`] for fewer than two nodes and
/// [`SpectralError::Disconnected`] for more than one component.
///
/// # Panics
///
/// Panics if `speeds.len() != graph.node_count()`.
pub fn try_analyze(graph: &Graph, speeds: &Speeds) -> Result<Spectrum, SpectralError> {
    let n = graph.node_count();
    if n < 2 {
        return Err(SpectralError::TooFewNodes(n));
    }
    if speeds.is_unit() {
        if let Some(spectrum) = analytic_spectrum(graph) {
            debug_assert!(graph.is_connected(), "{:?} is disconnected", graph.kind());
            return Ok(spectrum);
        }
    }
    if !graph.is_connected() {
        return Err(SpectralError::Disconnected);
    }
    Ok(if n <= DENSE_LIMIT {
        dense_spectrum(graph, speeds)
    } else {
        power_spectrum(graph, speeds, PowerOptions::default())
    })
}

/// Computes the spectrum of `M = I − L·S⁻¹` for the given network.
///
/// # Panics
///
/// Panics if the graph is disconnected (λ = 1: diffusion cannot balance
/// across components and `β_opt` is undefined), if it has fewer than two
/// nodes, or if `speeds.len() != graph.node_count()`. [`try_analyze`]
/// returns the first two as errors.
pub fn analyze(graph: &Graph, speeds: &Speeds) -> Spectrum {
    try_analyze(graph, speeds).unwrap_or_else(|e| panic!("{e}"))
}

/// The closed-form spectrum of a generator-built torus (all sides ≥ 3),
/// hypercube, cycle or complete graph in the homogeneous model, if the
/// graph is one.
fn analytic_spectrum(graph: &Graph) -> Option<Spectrum> {
    match graph.kind() {
        GraphKind::Torus(dims) if dims.iter().all(|&d| d >= 3) => Some(torus_spectrum(dims)),
        GraphKind::Hypercube(dim) => Some(hypercube_spectrum(*dim)),
        GraphKind::Cycle => Some(cycle_spectrum(graph.node_count())),
        GraphKind::Complete => Some(Spectrum {
            lambda: 0.0,
            lambda_2: 0.0,
            lambda_min: 0.0,
            method: SpectralMethod::AnalyticComplete,
        }),
        _ => None,
    }
}

/// Spectrum of a k-dimensional torus (all sides ≥ 3, homogeneous model).
///
/// Degree is `2k`, `α = 1/(2k+1)`, and the Laplacian eigenvalues separate
/// per axis: `ℓ(p) = Σ_axis (2 − 2cos(2π·p_axis/len_axis))`.
pub fn torus_spectrum(dims: &[u32]) -> Spectrum {
    assert!(dims.iter().all(|&d| d >= 3));
    let k = dims.len() as f64;
    let alpha = 1.0 / (2.0 * k + 1.0);
    // Smallest non-zero Laplacian eigenvalue: one axis at mode 1 (pick the
    // longest side), the rest at 0.
    let min_nonzero = dims
        .iter()
        .map(|&len| 2.0 - 2.0 * (2.0 * PI / len as f64).cos())
        .fold(f64::INFINITY, f64::min);
    // Largest Laplacian eigenvalue: every axis at its extreme mode.
    let max_l: f64 = dims
        .iter()
        .map(|&len| {
            let p = len / 2; // integer mode with angle closest to π
            2.0 - 2.0 * (2.0 * PI * p as f64 / len as f64).cos()
        })
        .sum();
    let lambda_2 = 1.0 - alpha * min_nonzero;
    let lambda_min = 1.0 - alpha * max_l;
    Spectrum {
        lambda: lambda_2.abs().max(lambda_min.abs()),
        lambda_2,
        lambda_min,
        method: SpectralMethod::AnalyticTorus,
    }
}

/// Spectrum of the `dim`-dimensional hypercube (homogeneous model):
/// eigenvalues `1 − 2j/(dim+1)`, `j = 0..dim`.
pub fn hypercube_spectrum(dim: u32) -> Spectrum {
    assert!(dim >= 1);
    let d = dim as f64;
    let lambda_2 = 1.0 - 2.0 / (d + 1.0);
    let lambda_min = 1.0 - 2.0 * d / (d + 1.0);
    Spectrum {
        lambda: lambda_2.abs().max(lambda_min.abs()),
        lambda_2,
        lambda_min,
        method: SpectralMethod::AnalyticHypercube,
    }
}

/// Spectrum of the cycle on `n ≥ 3` nodes (homogeneous model):
/// eigenvalues `1 − (2/3)(1 − cos(2πp/n))`.
pub fn cycle_spectrum(n: usize) -> Spectrum {
    assert!(n >= 3);
    let lambda_2 = 1.0 - 2.0 / 3.0 * (1.0 - (2.0 * PI / n as f64).cos());
    let p = n / 2;
    let lambda_min = 1.0 - 2.0 / 3.0 * (1.0 - (2.0 * PI * p as f64 / n as f64).cos());
    Spectrum {
        lambda: lambda_2.abs().max(lambda_min.abs()),
        lambda_2,
        lambda_min,
        method: SpectralMethod::AnalyticCycle,
    }
}

/// Dense-Jacobi spectrum of an arbitrary small network.
pub fn dense_spectrum(graph: &Graph, speeds: &Speeds) -> Spectrum {
    let op = DiffusionOperator::new(graph, speeds);
    let b = op.to_dense_symmetrized();
    let eig = jacobi::eigen_symmetric(&b);
    // values are sorted descending; values[0] == 1 is the principal one.
    let lambda_2 = eig.values[1];
    let lambda_min = *eig.values.last().expect("n >= 2");
    Spectrum {
        lambda: lambda_2.abs().max(lambda_min.abs()),
        lambda_2,
        lambda_min,
        method: SpectralMethod::DenseJacobi,
    }
}

/// Power-iteration spectrum of a large network.
///
/// Runs two shifted, deflated power iterations on
/// `B = S^{-1/2}·M·S^{1/2}`: `(B + I)/2` for `λ₂` and `(I − B)/2` for
/// `λ_min`; both shifted operators have non-negative spectra, so the plain
/// Rayleigh quotient converges without oscillation.
pub fn power_spectrum(graph: &Graph, speeds: &Speeds, opts: PowerOptions) -> Spectrum {
    let op = DiffusionOperator::new(graph, speeds);
    let n = op.len();
    let principal = op.principal_symmetrized_eigenvector();

    // (B + I)/2: eigenvalues (μ+1)/2 ∈ [0, 1], dominant deflated = (λ₂+1)/2.
    let r2 = dominant_eigenvalue(
        n,
        |x, y| {
            op.apply_symmetrized(x, y);
            for (yi, xi) in y.iter_mut().zip(x) {
                *yi = 0.5 * (*yi + xi);
            }
        },
        &[&principal],
        opts,
    );
    let lambda_2 = 2.0 * r2.value - 1.0;

    // (I − B)/2: eigenvalues (1−μ)/2 ≥ 0, dominant = (1−λ_min)/2. The
    // principal direction maps to 0, so no deflation is needed, but it
    // costs little and speeds convergence up.
    let rm = dominant_eigenvalue(
        n,
        |x, y| {
            op.apply_symmetrized(x, y);
            for (yi, xi) in y.iter_mut().zip(x) {
                *yi = 0.5 * (xi - *yi);
            }
        },
        &[&principal],
        opts,
    );
    let lambda_min = 1.0 - 2.0 * rm.value;

    Spectrum {
        lambda: lambda_2.abs().max(lambda_min.abs()),
        lambda_2,
        lambda_min,
        method: SpectralMethod::PowerIteration,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sodiff_graph::generators;

    /// Table I of the paper: β for the 1000×1000 torus. The paper's values
    /// come from their numerical solver; our closed form agrees to ~2e-7,
    /// which is the precision of the published digits.
    #[test]
    fn table1_torus_1000() {
        let s = torus_spectrum(&[1000, 1000]);
        let beta = s.beta_opt();
        assert!(
            (beta - 1.9920836447).abs() < 5e-7,
            "beta {beta} != paper value 1.9920836447"
        );
    }

    /// Table I: β for the 100×100 torus (see `table1_torus_1000` on the
    /// tolerance).
    #[test]
    fn table1_torus_100() {
        let beta = torus_spectrum(&[100, 100]).beta_opt();
        assert!(
            (beta - 1.9235874877).abs() < 1e-7,
            "beta {beta} != paper value 1.9235874877"
        );
    }

    /// Table I: β for the 2^20 hypercube.
    #[test]
    fn table1_hypercube_20() {
        let beta = hypercube_spectrum(20).beta_opt();
        assert!(
            (beta - 1.4026054847).abs() < 1e-9,
            "beta {beta} != paper value 1.4026054847"
        );
    }

    #[test]
    fn beta_opt_bounds() {
        assert_eq!(beta_opt(0.0), 1.0);
        assert!(beta_opt(0.999999) < 2.0);
        let betas: Vec<f64> = [0.1, 0.5, 0.9, 0.99].iter().map(|&l| beta_opt(l)).collect();
        assert!(betas.windows(2).all(|w| w[0] < w[1]), "beta_opt increases");
    }

    #[test]
    #[should_panic(expected = "beta_opt requires")]
    fn beta_opt_rejects_one() {
        beta_opt(1.0);
    }

    #[test]
    fn analytic_matches_dense_for_torus() {
        let g = generators::torus2d(4, 5);
        let s = Speeds::uniform(20);
        let analytic = analyze(&g, &s);
        assert_eq!(analytic.method, SpectralMethod::AnalyticTorus);
        let dense = dense_spectrum(&g, &s);
        assert!((analytic.lambda_2 - dense.lambda_2).abs() < 1e-9);
        assert!((analytic.lambda_min - dense.lambda_min).abs() < 1e-9);
    }

    #[test]
    fn analytic_matches_dense_for_hypercube() {
        let g = generators::hypercube(4);
        let s = Speeds::uniform(16);
        let a = analyze(&g, &s);
        assert_eq!(a.method, SpectralMethod::AnalyticHypercube);
        let d = dense_spectrum(&g, &s);
        assert!((a.lambda_2 - d.lambda_2).abs() < 1e-9);
        assert!((a.lambda_min - d.lambda_min).abs() < 1e-9);
    }

    #[test]
    fn analytic_matches_dense_for_cycle() {
        let g = generators::cycle(9);
        let s = Speeds::uniform(9);
        let a = analyze(&g, &s);
        assert_eq!(a.method, SpectralMethod::AnalyticCycle);
        let d = dense_spectrum(&g, &s);
        assert!((a.lambda_2 - d.lambda_2).abs() < 1e-9);
        assert!((a.lambda_min - d.lambda_min).abs() < 1e-9);
    }

    #[test]
    fn complete_graph_lambda_zero() {
        let g = generators::complete(8);
        let s = Speeds::uniform(8);
        let a = analyze(&g, &s);
        assert_eq!(a.lambda, 0.0);
        let d = dense_spectrum(&g, &s);
        assert!(d.lambda.abs() < 1e-10);
    }

    #[test]
    fn power_matches_dense_on_medium_graph() {
        let g = generators::random_regular(120, 6, 1).unwrap();
        let s = Speeds::uniform(120);
        let d = dense_spectrum(&g, &s);
        let p = power_spectrum(&g, &s, PowerOptions::default());
        assert!(
            (d.lambda_2 - p.lambda_2).abs() < 1e-6,
            "dense {} vs power {}",
            d.lambda_2,
            p.lambda_2
        );
        assert!((d.lambda_min - p.lambda_min).abs() < 1e-6);
    }

    #[test]
    fn heterogeneous_dense_spectrum_is_real() {
        let g = generators::torus2d(4, 4);
        let s = Speeds::linear_ramp(16, 8.0);
        let spec = analyze(&g, &s);
        assert_eq!(spec.method, SpectralMethod::DenseJacobi);
        assert!(spec.lambda < 1.0);
        assert!(spec.lambda > 0.0);
        // Heterogeneous power iteration agrees.
        let p = power_spectrum(&g, &s, PowerOptions::default());
        assert!((spec.lambda_2 - p.lambda_2).abs() < 1e-6);
    }

    #[test]
    fn try_analyze_reports_why_there_is_no_gap() {
        let mut b = sodiff_graph::GraphBuilder::new(4);
        b.add_edge(0, 1).unwrap();
        b.add_edge(2, 3).unwrap();
        let g = b.build();
        assert_eq!(
            try_analyze(&g, &Speeds::uniform(4)).unwrap_err(),
            SpectralError::Disconnected
        );
        let g = generators::path(1);
        assert_eq!(
            try_analyze(&g, &Speeds::uniform(1)).unwrap_err(),
            SpectralError::TooFewNodes(1)
        );
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn rejects_disconnected() {
        let mut b = sodiff_graph::GraphBuilder::new(4);
        b.add_edge(0, 1).unwrap();
        b.add_edge(2, 3).unwrap();
        let g = b.build();
        analyze(&g, &Speeds::uniform(4));
    }

    #[test]
    fn small_torus_sides_fall_back_to_dense() {
        // torus2d(2, 2) degenerates to a 4-cycle whose analytic torus
        // formula does not apply; dispatch must go numeric.
        let g = generators::torus2d(2, 5);
        let s = Speeds::uniform(10);
        let spec = analyze(&g, &s);
        assert_eq!(spec.method, SpectralMethod::DenseJacobi);
    }
}
