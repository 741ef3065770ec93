//! Spectral analysis of diffusion matrices: the second-largest eigenvalue
//! magnitude `λ` that controls convergence rates and the optimal SOS
//! parameter `β_opt = 2/(1+√(1−λ²))` (paper Section II).
//!
//! Dispatch order:
//!
//! 1. analytic closed forms for generated tori, hypercubes, cycles, and
//!    complete graphs in the normalized homogeneous model (`s ≡ 1`),
//! 2. the [`lanczos`] solver on the symmetrized operator
//!    `B = S^{-1/2}·M·S^{1/2}` for every other graph, whatever its size.
//!
//! Every [`Spectrum`] states its accuracy: the closed forms are exact,
//! and the solver certifies its Ritz residual (at most
//! [`lanczos::TOLERANCE`]). [`dense_spectrum`] (dense Jacobi, `O(n³)`)
//! is kept as the test oracle for small graphs.
//!
//! The solver needs a connected network, which one BFS checks; the
//! closed forms apply only to generator-built graphs, which are
//! connected by construction, so they run no search at all.

use std::error::Error;
use std::f64::consts::PI;
use std::fmt;

use sodiff_graph::{Graph, GraphKind, Speeds};

use crate::diffusion::DiffusionOperator;
use crate::jacobi;
use crate::lanczos;

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
    /// Dense Jacobi eigendecomposition of `B` ([`dense_spectrum`], the
    /// small-graph test oracle).
    DenseJacobi,
    /// Returned by no solver; kept because perfbench matches on it.
    PowerIteration,
    /// Residual-certified Lanczos on `B`, deflated against the principal
    /// vector.
    Lanczos,
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
    /// Accuracy bound: `λ₂` and `λ_min` each lie within this of an
    /// eigenvalue of `B` (0 for the closed forms).
    pub residual: f64,
}

impl Spectrum {
    /// The spectrum with ends `λ₂` and `λ_min`; `λ` is the larger magnitude.
    pub(crate) fn from_ends(
        lambda_2: f64,
        lambda_min: f64,
        method: SpectralMethod,
        residual: f64,
    ) -> Self {
        Self {
            lambda: lambda_2.abs().max(lambda_min.abs()),
            lambda_2,
            lambda_min,
            method,
            residual,
        }
    }

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

/// Why a network has no spectrum to give: its `λ` is 1, so diffusion
/// cannot balance it and `β_opt` is undefined, or the solver could not
/// certify its ends.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum SpectralError {
    /// The network has fewer than two nodes (the count is given).
    TooFewNodes(usize),
    /// The network has more than one connected component.
    Disconnected,
    /// The solver reached its step cap with this Ritz residual, above
    /// [`lanczos::TOLERANCE`]: its ends are not certified.
    NotCertified(f64),
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
            SpectralError::NotCertified(residual) => write!(
                f,
                "spectral analysis stopped at its step cap with residual {residual:e}, \
                 above {:e}",
                lanczos::TOLERANCE
            ),
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
/// Returns [`SpectralError::TooFewNodes`] for fewer than two nodes,
/// [`SpectralError::Disconnected`] for more than one component, and
/// [`SpectralError::NotCertified`] when the solver's residual stays above
/// [`lanczos::TOLERANCE`] (a path of more than about 10,000 nodes).
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
    certified(lanczos::spectrum(graph, speeds))
}

/// `spectrum` if its residual is within [`lanczos::TOLERANCE`].
fn certified(spectrum: Spectrum) -> Result<Spectrum, SpectralError> {
    if spectrum.residual <= lanczos::TOLERANCE {
        Ok(spectrum)
    } else {
        Err(SpectralError::NotCertified(spectrum.residual))
    }
}

/// Computes the spectrum of `M = I − L·S⁻¹` for the given network.
///
/// # Panics
///
/// Panics if the graph is disconnected (λ = 1: diffusion cannot balance
/// across components and `β_opt` is undefined), if it has fewer than two
/// nodes, if the solver cannot certify its ends, or if
/// `speeds.len() != graph.node_count()`. [`try_analyze`] returns the
/// first three as errors.
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
        GraphKind::Complete => Some(Spectrum::from_ends(
            0.0,
            0.0,
            SpectralMethod::AnalyticComplete,
            0.0,
        )),
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
    Spectrum::from_ends(lambda_2, lambda_min, SpectralMethod::AnalyticTorus, 0.0)
}

/// Spectrum of the `dim`-dimensional hypercube (homogeneous model):
/// eigenvalues `1 − 2j/(dim+1)`, `j = 0..dim`.
pub fn hypercube_spectrum(dim: u32) -> Spectrum {
    assert!(dim >= 1);
    let d = dim as f64;
    let lambda_2 = 1.0 - 2.0 / (d + 1.0);
    let lambda_min = 1.0 - 2.0 * d / (d + 1.0);
    Spectrum::from_ends(lambda_2, lambda_min, SpectralMethod::AnalyticHypercube, 0.0)
}

/// Spectrum of the cycle on `n ≥ 3` nodes (homogeneous model):
/// eigenvalues `1 − (2/3)(1 − cos(2πp/n))`.
pub fn cycle_spectrum(n: usize) -> Spectrum {
    assert!(n >= 3);
    let lambda_2 = 1.0 - 2.0 / 3.0 * (1.0 - (2.0 * PI / n as f64).cos());
    let p = n / 2;
    let lambda_min = 1.0 - 2.0 / 3.0 * (1.0 - (2.0 * PI * p as f64 / n as f64).cos());
    Spectrum::from_ends(lambda_2, lambda_min, SpectralMethod::AnalyticCycle, 0.0)
}

/// Dense-Jacobi spectrum of an arbitrary small network: the `O(n³)`
/// oracle the solver is tested against. Like the closed forms it reports
/// residual 0: Jacobi is exact to working precision.
pub fn dense_spectrum(graph: &Graph, speeds: &Speeds) -> Spectrum {
    let op = DiffusionOperator::new(graph, speeds);
    let eig = jacobi::eigen_symmetric(&op.to_dense_symmetrized());
    // values are sorted descending; values[0] == 1 is the principal one.
    let n = eig.values.len();
    let lambda_2 = eig.values[1];
    let lambda_min = eig.values[n - 1];
    Spectrum::from_ends(lambda_2, lambda_min, SpectralMethod::DenseJacobi, 0.0)
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

    /// Asserts that the solver's ends match the dense oracle's within
    /// 1e-10 and that it certified them.
    fn assert_matches_dense(g: &Graph, s: &Speeds) {
        let d = dense_spectrum(g, s);
        let l = analyze(g, s);
        assert_eq!(l.method, SpectralMethod::Lanczos);
        assert!(l.residual <= lanczos::TOLERANCE, "residual {}", l.residual);
        assert!(
            (d.lambda_2 - l.lambda_2).abs() < 1e-10,
            "lambda_2: dense {} vs lanczos {}",
            d.lambda_2,
            l.lambda_2
        );
        assert!(
            (d.lambda_min - l.lambda_min).abs() < 1e-10,
            "lambda_min: dense {} vs lanczos {}",
            d.lambda_min,
            l.lambda_min
        );
    }

    #[test]
    fn lanczos_matches_dense_on_medium_graph() {
        let g = generators::random_regular(120, 6, 1).unwrap();
        assert_matches_dense(&g, &Speeds::uniform(120));
    }

    #[test]
    fn heterogeneous_spectrum_is_real() {
        let g = generators::torus2d(4, 4);
        let s = Speeds::linear_ramp(16, 8.0);
        let spec = analyze(&g, &s);
        assert!(spec.lambda < 1.0);
        assert!(spec.lambda > 0.0);
        assert_matches_dense(&g, &s);
    }

    /// Graphs whose symmetry gives `B` few distinct eigenvalues, so the
    /// recurrence breaks down after a few steps and a start vector can
    /// miss an eigenvector: the ends must still be the dense oracle's.
    #[test]
    fn symmetric_graphs_do_not_trap_the_solver() {
        let bipartite = {
            let mut b = sodiff_graph::GraphBuilder::new(10);
            for u in 0..5 {
                for v in 5..10 {
                    b.add_edge(u, v).unwrap();
                }
            }
            b.build()
        };
        let barbell = {
            let mut b = sodiff_graph::GraphBuilder::new(12);
            for (lo, hi) in [(0, 6), (6, 12)] {
                for u in lo..hi {
                    for v in u + 1..hi {
                        b.add_edge(u, v).unwrap();
                    }
                }
            }
            b.add_edge(5, 6).unwrap();
            b.build()
        };
        let graphs = [
            generators::star(9),
            bipartite,
            barbell,
            generators::path(11),
            generators::torus2d(2, 5),
            generators::path(2),
            generators::path(3),
        ];
        for g in &graphs {
            let n = g.node_count();
            assert_matches_dense(g, &Speeds::uniform(n));
            assert_matches_dense(g, &Speeds::linear_ramp(n, 4.0));
        }
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

    /// A run cut off before it converges is refused, not used.
    #[test]
    fn an_uncertified_run_is_an_error() {
        let g = generators::path(400);
        let capped = lanczos::spectrum_within(&g, &Speeds::uniform(400), 50);
        assert!(capped.residual > lanczos::TOLERANCE, "{}", capped.residual);
        let err = certified(capped).unwrap_err();
        assert_eq!(err, SpectralError::NotCertified(capped.residual));
        assert!(err.to_string().contains("step cap"), "{err}");
        assert!(certified(lanczos::spectrum(&g, &Speeds::uniform(400))).is_ok());
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
    fn small_torus_sides_take_the_solver() {
        // torus2d(2, 5) keeps one edge per pair along its 2-side, so its
        // degree is 3 and the analytic torus formula does not apply;
        // dispatch must go numeric.
        let g = generators::torus2d(2, 5);
        let spec = analyze(&g, &Speeds::uniform(10));
        assert_eq!(spec.method, SpectralMethod::Lanczos);
    }
}
