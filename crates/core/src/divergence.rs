//! Error-propagation matrices, contributions, and the refined local
//! divergence `Υ^C(G)` (paper Sections III–IV).
//!
//! For FOS the rounding error injected at round `t−s` propagates to round
//! `t` through `M^s`; for SOS through the matrix sequence
//!
//! ```text
//! Q(0) = I,  Q(1) = β·M,  Q(t) = β·M·Q(t−1) + (1−β)·Q(t−2)
//! ```
//!
//! (equation (20)). The *contribution* of edge `(i,j)` on node `k` after
//! `t` rounds is `C_{k,i→j}(t) = P_{k,i} − P_{k,j}` with `P = M^t` (FOS)
//! or `P = Q(t−1)` (SOS, Lemma 6), and the refined local divergence is
//!
//! ```text
//! Υ^C(G)² = max_k Σ_{s≥0} Σ_i max_{j∈N(i)} C_{k,i→j}(s)²
//! ```
//!
//! This module computes rows of `M^t`/`Q(t)` matrix-free in `O(|E|)` per
//! step (all these matrices are polynomials in `M`, so they commute and
//! row recurrences mirror the matrix recurrences) and evaluates `Υ`
//! numerically with tail truncation.

use sodiff_graph::{Graph, Speeds};

use crate::scheme::Scheme;

/// Row-recurrence evolution of the error-propagation matrix of a scheme.
///
/// Yields row `k` of `M^t` (FOS) or of `Q(t)` (SOS) for `t = 0, 1, 2, …`.
pub struct PropagationRows<'g> {
    graph: &'g Graph,
    speeds: &'g Speeds,
    edge_alpha: Vec<f64>,
    scheme: Scheme,
    t: u64,
    current: Vec<f64>,
    previous: Vec<f64>,
    scratch: Vec<f64>,
}

impl<'g> PropagationRows<'g> {
    /// Starts the evolution for source node `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range, speeds mismatch the graph, or the
    /// scheme is not a diffusion scheme — the propagation matrices
    /// `M^t`/`Q(t)` are the FOS/SOS error-propagation theory of the
    /// paper; dimension exchange and matching-based balancing have
    /// round-dependent (matching-restricted) propagation operators this
    /// module does not model.
    pub fn new(graph: &'g Graph, speeds: &'g Speeds, scheme: Scheme, k: u32) -> Self {
        let n = graph.node_count();
        assert!((k as usize) < n, "source node out of range");
        assert_eq!(speeds.len(), n, "speeds length mismatch");
        assert!(
            scheme.is_diffusion(),
            "propagation rows are defined for the diffusion schemes (FOS/SOS), got {scheme}"
        );
        let mut current = vec![0.0; n];
        current[k as usize] = 1.0;
        let edge_alpha = graph
            .edges()
            .iter()
            .map(|&(u, v)| graph.alpha(u, v))
            .collect();
        Self {
            graph,
            speeds,
            edge_alpha,
            scheme,
            t: 0,
            current,
            previous: vec![0.0; n],
            scratch: vec![0.0; n],
        }
    }

    /// The current row (row `k` of `M^t` or `Q(t)` for the current `t`).
    pub fn row(&self) -> &[f64] {
        &self.current
    }

    /// The current step index `t`.
    pub fn t(&self) -> u64 {
        self.t
    }

    /// `out = r·M` for a row vector `r`:
    /// `(r·M)_j = r_j + (1/s_j)·Σ_{i∈N(j)} α_{ij}(r_i − r_j)`.
    fn row_times_m(&self, r: &[f64], out: &mut [f64]) {
        out.copy_from_slice(r);
        for (e, &(u, v)) in self.graph.edges().iter().enumerate() {
            let (u, v) = (u as usize, v as usize);
            let a = self.edge_alpha[e];
            // Column j = v receives α·(r_u − r_v)/s_v; column j = u the
            // mirrored term.
            out[v] += a * (r[u] - r[v]) / self.speeds.get(v);
            out[u] += a * (r[v] - r[u]) / self.speeds.get(u);
        }
    }

    /// Advances to `t + 1`.
    pub fn advance(&mut self) {
        match self.scheme {
            Scheme::Fos => {
                let mut next = std::mem::take(&mut self.scratch);
                self.row_times_m(&self.current, &mut next);
                self.scratch = std::mem::replace(&mut self.current, next);
            }
            Scheme::Sos { beta } => {
                // Q(t+1) = β·M·Q(t) + (1−β)·Q(t−1); rows follow the same
                // recurrence because all terms are polynomials in M.
                let mut next = std::mem::take(&mut self.scratch);
                self.row_times_m(&self.current, &mut next);
                if self.t == 0 {
                    // Q(1) = β·M.
                    for x in next.iter_mut() {
                        *x *= beta;
                    }
                } else {
                    for (x, &p) in next.iter_mut().zip(self.previous.iter()) {
                        *x = beta * *x + (1.0 - beta) * p;
                    }
                }
                self.previous.copy_from_slice(&self.current);
                self.scratch = std::mem::replace(&mut self.current, next);
            }
            Scheme::DimensionExchange { .. } | Scheme::Matching { .. } => {
                unreachable!("constructor rejects non-diffusion schemes")
            }
        }
        self.t += 1;
    }
}

/// Options for the numerical divergence computation.
#[derive(Debug, Clone, Copy)]
pub struct DivergenceOptions {
    /// Hard cap on the number of propagation steps.
    pub max_steps: u64,
    /// Stop once a step's contribution falls below this fraction of the
    /// accumulated sum for several consecutive steps.
    pub tail_tolerance: f64,
}

impl Default for DivergenceOptions {
    fn default() -> Self {
        Self {
            max_steps: 100_000,
            tail_tolerance: 1e-14,
        }
    }
}

/// Computes the refined local divergence `Υ^C(G)` for source node `k`.
///
/// `Υ²(k) = Σ_{s≥0} Σ_i max_{j∈N(i)} (P_{k,i}(s) − P_{k,j}(s))²` with `P`
/// the scheme's propagation matrix. The maximum over `k` is `Υ^C(G)`
/// itself; for vertex-transitive graphs (tori, hypercubes) any single `k`
/// suffices.
///
/// # Panics
///
/// Like [`PropagationRows::new`], panics for non-diffusion schemes (the
/// divergence theory is defined over the FOS/SOS propagation matrices) —
/// and so does [`refined_local_divergence`], which samples this function.
pub fn refined_local_divergence_at(
    graph: &Graph,
    speeds: &Speeds,
    scheme: Scheme,
    k: u32,
    opts: DivergenceOptions,
) -> f64 {
    let mut rows = PropagationRows::new(graph, speeds, scheme, k);
    let mut total = 0.0f64;
    let mut quiet_steps = 0;
    loop {
        let row = rows.row();
        let mut step_sum = 0.0;
        for i in graph.nodes() {
            let ri = row[i as usize];
            let mut worst = 0.0f64;
            for j in graph.neighbor_nodes(i) {
                let d = ri - row[j as usize];
                worst = worst.max(d * d);
            }
            step_sum += worst;
        }
        total += step_sum;
        if step_sum <= opts.tail_tolerance * total.max(1e-300) {
            quiet_steps += 1;
            if quiet_steps >= 5 {
                break;
            }
        } else {
            quiet_steps = 0;
        }
        if rows.t() >= opts.max_steps {
            break;
        }
        rows.advance();
    }
    total.sqrt()
}

/// Computes `Υ^C(G)` as the maximum of [`refined_local_divergence_at`]
/// over a sample of source nodes (all nodes if `sample >= n`).
pub fn refined_local_divergence(
    graph: &Graph,
    speeds: &Speeds,
    scheme: Scheme,
    sample: usize,
    opts: DivergenceOptions,
) -> f64 {
    let n = graph.node_count();
    let stride = (n / sample.max(1)).max(1);
    (0..n)
        .step_by(stride)
        .map(|k| refined_local_divergence_at(graph, speeds, scheme, k as u32, opts))
        .fold(0.0, f64::max)
}

/// The contribution `C_{k,i→j}(t)` of edge `(i, j)` on node `k` after `t`
/// rounds for FOS (`M^t_{k,i} − M^t_{k,j}`, Definition 3) or SOS
/// (`Q_{k,i}(t−1) − Q_{k,j}(t−1)`, Lemma 6). Returns 0 for SOS at `t = 0`.
///
/// This is a convenience for tests and small studies; bulk computations
/// should drive [`PropagationRows`] directly.
///
/// # Panics
///
/// Like [`PropagationRows::new`], panics for non-diffusion schemes: the
/// contribution theory is defined over the FOS/SOS propagation matrices.
pub fn contribution(
    graph: &Graph,
    speeds: &Speeds,
    scheme: Scheme,
    k: u32,
    i: u32,
    j: u32,
    t: u64,
) -> f64 {
    let steps = match scheme {
        Scheme::Fos => t,
        Scheme::Sos { .. } => {
            if t == 0 {
                return 0.0;
            }
            t - 1
        }
        Scheme::DimensionExchange { .. } | Scheme::Matching { .. } => panic!(
            "edge contributions are defined for the diffusion schemes (FOS/SOS), got {scheme}"
        ),
    };
    let mut rows = PropagationRows::new(graph, speeds, scheme, k);
    for _ in 0..steps {
        rows.advance();
    }
    rows.row()[i as usize] - rows.row()[j as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use sodiff_graph::generators;
    use sodiff_linalg::dense::DenseMatrix;
    use sodiff_linalg::diffusion::DiffusionOperator;
    use sodiff_linalg::spectral;

    fn dense_power(m: &DenseMatrix, t: u64) -> DenseMatrix {
        let n = m.rows();
        let mut p = DenseMatrix::identity(n);
        for _ in 0..t {
            p = p.matmul(m);
        }
        p
    }

    #[test]
    fn fos_rows_match_dense_powers() {
        let g = generators::torus2d(3, 3);
        let s = Speeds::uniform(9);
        let m = DiffusionOperator::new(&g, &s).to_dense();
        let mut rows = PropagationRows::new(&g, &s, Scheme::fos(), 4);
        for t in 0..6 {
            let p = dense_power(&m, t);
            for i in 0..9 {
                assert!(
                    (rows.row()[i] - p[(4, i)]).abs() < 1e-12,
                    "t={t} i={i}: {} vs {}",
                    rows.row()[i],
                    p[(4, i)]
                );
            }
            rows.advance();
        }
    }

    #[test]
    fn sos_rows_match_dense_q_recursion() {
        let g = generators::cycle(6);
        let s = Speeds::uniform(6);
        let beta = 1.5;
        let m = DiffusionOperator::new(&g, &s).to_dense();
        // Dense Q(t).
        let mut q_prev = DenseMatrix::identity(6);
        let mut q = m.clone();
        for e in 0..6 {
            for f in 0..6 {
                q[(e, f)] *= beta;
            }
        }
        let mut rows = PropagationRows::new(&g, &s, Scheme::sos(beta), 2);
        // t = 0: Q(0) = I.
        assert!((rows.row()[2] - 1.0).abs() < 1e-12);
        rows.advance();
        for t in 1..8 {
            for i in 0..6 {
                assert!(
                    (rows.row()[i] - q[(2, i)]).abs() < 1e-10,
                    "t={t} i={i}: {} vs {}",
                    rows.row()[i],
                    q[(2, i)]
                );
            }
            // Q(t+1) = β·M·Q(t) + (1−β)·Q(t−1).
            let mq = m.matmul(&q);
            let mut q_next = DenseMatrix::zeros(6, 6);
            for e in 0..6 {
                for f in 0..6 {
                    q_next[(e, f)] = beta * mq[(e, f)] + (1.0 - beta) * q_prev[(e, f)];
                }
            }
            q_prev = std::mem::replace(&mut q, q_next);
            rows.advance();
        }
    }

    #[test]
    fn heterogeneous_rows_match_dense_powers() {
        let g = generators::cycle(5);
        let s = Speeds::new(vec![1.0, 3.0, 2.0, 1.0, 5.0]);
        let m = DiffusionOperator::new(&g, &s).to_dense();
        let mut rows = PropagationRows::new(&g, &s, Scheme::fos(), 1);
        for t in 0..5 {
            let p = dense_power(&m, t);
            for i in 0..5 {
                assert!((rows.row()[i] - p[(1, i)]).abs() < 1e-12, "t={t} i={i}");
            }
            rows.advance();
        }
    }

    #[test]
    fn q_row_sums_are_equal_across_k() {
        // Lemma 7(3): Q(t) has equal column sums; by symmetry of our row
        // evolution (rows of Q), row sums evolve identically for every k.
        let g = generators::torus2d(3, 3);
        let s = Speeds::uniform(9);
        let beta = 1.7;
        let sums: Vec<Vec<f64>> = [0u32, 4]
            .iter()
            .map(|&k| {
                let mut rows = PropagationRows::new(&g, &s, Scheme::sos(beta), k);
                (0..6)
                    .map(|_| {
                        let sum: f64 = rows.row().iter().sum();
                        rows.advance();
                        sum
                    })
                    .collect()
            })
            .collect();
        for (a, b) in sums[0].iter().zip(&sums[1]) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn fos_divergence_close_to_theory_shape() {
        // Theorem 4: Υ_FOS = O(√(d·log s_max/(1−λ))). On a homogeneous
        // torus we check monotonicity in graph size instead of constants.
        let s8 = {
            let g = generators::torus2d(8, 8);
            let sp = Speeds::uniform(64);
            refined_local_divergence_at(&g, &sp, Scheme::fos(), 0, DivergenceOptions::default())
        };
        let s16 = {
            let g = generators::torus2d(16, 16);
            let sp = Speeds::uniform(256);
            refined_local_divergence_at(&g, &sp, Scheme::fos(), 0, DivergenceOptions::default())
        };
        assert!(s8 > 0.5, "divergence should be non-trivial, got {s8}");
        assert!(s16 > s8, "divergence grows with the torus: {s8} vs {s16}");
        // And stays within the theorem's envelope (constant-free check:
        // compare against c·√(d/(1−λ)) with a generous c).
        let g = generators::torus2d(16, 16);
        let spec = spectral::analyze(&g, &Speeds::uniform(256));
        let envelope = 10.0 * (4.0 / spec.gap()).sqrt();
        assert!(s16 < envelope, "{s16} vs envelope {envelope}");
    }

    #[test]
    fn sos_divergence_exceeds_fos_but_stays_bounded() {
        let g = generators::torus2d(10, 10);
        let sp = Speeds::uniform(100);
        let spec = spectral::analyze(&g, &sp);
        let beta = spec.beta_opt();
        let fos =
            refined_local_divergence_at(&g, &sp, Scheme::fos(), 0, DivergenceOptions::default());
        let sos = refined_local_divergence_at(
            &g,
            &sp,
            Scheme::sos(beta),
            0,
            DivergenceOptions::default(),
        );
        // SOS propagates errors more aggressively: Υ_SOS ≥ Υ_FOS, with the
        // (1−λ)^{3/4} vs (1−λ)^{1/2} scaling of Theorems 4 and 9.
        assert!(sos > fos, "sos {sos} vs fos {fos}");
        let envelope = 10.0 * (4.0f64).sqrt() / spec.gap().powf(0.75);
        assert!(sos < envelope, "{sos} vs envelope {envelope}");
    }

    #[test]
    fn contribution_is_antisymmetric_in_ij() {
        let g = generators::torus2d(3, 3);
        let s = Speeds::uniform(9);
        for t in 1..4 {
            let c_ij = contribution(&g, &s, Scheme::sos(1.5), 0, 1, 2, t);
            let c_ji = contribution(&g, &s, Scheme::sos(1.5), 0, 2, 1, t);
            assert!((c_ij + c_ji).abs() < 1e-12);
        }
    }

    #[test]
    fn divergence_max_over_sample_covers_single_source() {
        let g = generators::grid2d(3, 3); // not vertex-transitive
        let s = Speeds::uniform(9);
        let single =
            refined_local_divergence_at(&g, &s, Scheme::fos(), 0, DivergenceOptions::default());
        let all = refined_local_divergence(&g, &s, Scheme::fos(), 9, DivergenceOptions::default());
        assert!(all >= single - 1e-12);
    }
}
