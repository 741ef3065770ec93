//! The diffusion operator `M = I − L·S⁻¹` of a (heterogeneous) network,
//! applied matrix-free.
//!
//! `L` is the `α`-weighted Laplacian with
//! `α_{i,j} = 1/(max(d_i, d_j) + 1)` (paper Section II), `S = diag(s_i)`
//! the speed matrix. In the homogeneous case (`s ≡ 1`) this is the usual
//! symmetric doubly-stochastic diffusion matrix; in the heterogeneous case
//! `M` itself is not symmetric but `B = S^{-1/2}·M·S^{1/2}` is, which is
//! what the spectral routines operate on.

use sodiff_graph::{EdgeId, Graph, Speeds};

use crate::dense::DenseMatrix;

/// Matrix-free application of `M = I − L·S⁻¹` for a fixed graph and speeds.
///
/// # Example
///
/// ```
/// use sodiff_graph::{generators, Speeds};
/// use sodiff_linalg::diffusion::DiffusionOperator;
///
/// let g = generators::cycle(4);
/// let s = Speeds::uniform(4);
/// let op = DiffusionOperator::new(&g, &s);
/// // The all-ones vector is the fixed point in the homogeneous model.
/// let mut out = vec![0.0; 4];
/// op.apply(&[1.0; 4], &mut out);
/// assert_eq!(out, vec![1.0; 4]);
/// ```
#[derive(Debug, Clone)]
pub struct DiffusionOperator<'a> {
    graph: &'a Graph,
    speeds: &'a Speeds,
    edge_alpha: Vec<f64>,
    /// `√s_i` per node: the scaling of `B` and the principal vector.
    sqrt_speeds: Vec<f64>,
}

impl<'a> DiffusionOperator<'a> {
    /// Builds the operator, precomputing `α_e` for every canonical edge
    /// and `√s_i` for every node.
    ///
    /// # Panics
    ///
    /// Panics if `speeds.len() != graph.node_count()`.
    pub fn new(graph: &'a Graph, speeds: &'a Speeds) -> Self {
        assert_eq!(
            speeds.len(),
            graph.node_count(),
            "speeds length must match node count"
        );
        let edge_alpha = graph
            .edges()
            .iter()
            .map(|&(u, v)| graph.alpha(u, v))
            .collect();
        let sqrt_speeds = speeds.as_slice().iter().map(|s| s.sqrt()).collect();
        Self {
            graph,
            speeds,
            edge_alpha,
            sqrt_speeds,
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// The node speeds.
    pub fn speeds(&self) -> &Speeds {
        self.speeds
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.graph.node_count()
    }

    /// Returns `true` for the empty graph.
    pub fn is_empty(&self) -> bool {
        self.graph.node_count() == 0
    }

    /// Diffusion weight `α_e` of canonical edge `e`.
    #[inline]
    pub fn alpha(&self, e: EdgeId) -> f64 {
        self.edge_alpha[e as usize]
    }

    /// `out = M·x`, i.e. `out_i = x_i − Σ_{j∈N(i)} α_{ij}·(x_i/s_i − x_j/s_j)`.
    pub fn apply(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.len());
        self.apply_to(out, |i| x[i]);
    }

    /// The continuous FOS flow over every canonical edge for load vector
    /// `x`: `flows[e] = α_e·(x_u/s_u − x_v/s_v)` with `(u, v)` the canonical
    /// (ordered) endpoints. A positive value means load moves `u → v`.
    pub fn fos_edge_flows(&self, x: &[f64], flows: &mut [f64]) {
        assert_eq!(x.len(), self.len());
        assert_eq!(flows.len(), self.graph.edge_count());
        for (e, &(u, v)) in self.graph.edges().iter().enumerate() {
            let (u, v) = (u as usize, v as usize);
            flows[e] = self.edge_alpha[e] * (x[u] / self.speeds.get(u) - x[v] / self.speeds.get(v));
        }
    }

    /// `out = M·y` for the vector `y_i = y(i)`, read where `M` needs it,
    /// so a scaled input needs no temporary.
    fn apply_to(&self, out: &mut [f64], y: impl Fn(usize) -> f64) {
        assert_eq!(out.len(), self.len());
        for (i, o) in out.iter_mut().enumerate() {
            *o = y(i);
        }
        for (e, &(u, v)) in self.graph.edges().iter().enumerate() {
            let (u, v) = (u as usize, v as usize);
            let flow = self.edge_alpha[e] * (y(u) / self.speeds.get(u) - y(v) / self.speeds.get(v));
            out[u] -= flow;
            out[v] += flow;
        }
    }

    /// `out = B·x` with the symmetrized operator
    /// `B = S^{-1/2}·M·S^{1/2}` (equal to `M` in the homogeneous model).
    pub fn apply_symmetrized(&self, x: &[f64], out: &mut [f64]) {
        let n = self.len();
        assert_eq!(x.len(), n);
        assert_eq!(out.len(), n);
        if self.speeds.is_unit() {
            self.apply(x, out);
            return;
        }
        // `B·x = S^{-1/2}·(M·y)` with `y = S^{1/2}·x`.
        let sq = &self.sqrt_speeds;
        self.apply_to(out, |i| x[i] * sq[i]);
        for (o, &r) in out.iter_mut().zip(sq) {
            *o /= r;
        }
    }

    /// The unit principal eigenvector of `B` (eigenvalue 1):
    /// `v_i ∝ √s_i`.
    pub fn principal_symmetrized_eigenvector(&self) -> Vec<f64> {
        let mut v = self.sqrt_speeds.clone();
        crate::vector::normalize(&mut v);
        v
    }

    /// Materializes `M` as a dense matrix (tests and small instances only).
    pub fn to_dense(&self) -> DenseMatrix {
        let n = self.len();
        let mut m = DenseMatrix::identity(n);
        for (e, &(u, v)) in self.graph.edges().iter().enumerate() {
            let a = self.edge_alpha[e];
            let (u, v) = (u as usize, v as usize);
            m[(u, u)] -= a / self.speeds.get(u);
            m[(u, v)] += a / self.speeds.get(v);
            m[(v, v)] -= a / self.speeds.get(v);
            m[(v, u)] += a / self.speeds.get(u);
        }
        m
    }

    /// Materializes the symmetrized `B = S^{-1/2}·M·S^{1/2}` densely.
    pub fn to_dense_symmetrized(&self) -> DenseMatrix {
        let n = self.len();
        let mut b = self.to_dense();
        for i in 0..n {
            for j in 0..n {
                b[(i, j)] *= (self.speeds.get(j) / self.speeds.get(i)).sqrt();
            }
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sodiff_graph::generators;

    #[test]
    fn rows_of_m_are_stochastic_homogeneous() {
        let g = generators::torus2d(4, 4);
        let s = Speeds::uniform(16);
        let m = DiffusionOperator::new(&g, &s).to_dense();
        for i in 0..16 {
            let sum: f64 = m.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
            assert!(m.row(i).iter().all(|&x| x >= 0.0));
        }
        assert!(m.asymmetry() < 1e-15);
    }

    #[test]
    fn columns_sum_to_one_heterogeneous() {
        // Load conservation: column sums of M are 1 also with speeds.
        let g = generators::cycle(5);
        let s = Speeds::new(vec![1.0, 2.0, 4.0, 1.5, 3.0]);
        let m = DiffusionOperator::new(&g, &s).to_dense();
        for j in 0..5 {
            let sum: f64 = (0..5).map(|i| m[(i, j)]).sum();
            assert!((sum - 1.0).abs() < 1e-12, "column {j} sums to {sum}");
        }
    }

    #[test]
    fn balanced_vector_is_fixed_point() {
        let g = generators::torus2d(3, 3);
        let s = Speeds::linear_ramp(9, 5.0);
        let op = DiffusionOperator::new(&g, &s);
        let bal = s.balanced_load(900.0);
        let mut out = vec![0.0; 9];
        op.apply(&bal, &mut out);
        for (a, b) in bal.iter().zip(&out) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn apply_matches_dense() {
        let g = generators::hypercube(3);
        let s = Speeds::linear_ramp(8, 3.0);
        let op = DiffusionOperator::new(&g, &s);
        let x: Vec<f64> = (0..8).map(|i| (i * i) as f64).collect();
        let mut fast = vec![0.0; 8];
        op.apply(&x, &mut fast);
        let mut dense = vec![0.0; 8];
        op.to_dense().matvec(&x, &mut dense);
        for (a, b) in fast.iter().zip(&dense) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn symmetrized_is_symmetric() {
        let g = generators::cycle(6);
        let s = Speeds::new(vec![1.0, 8.0, 2.0, 1.0, 4.0, 2.0]);
        let op = DiffusionOperator::new(&g, &s);
        let b = op.to_dense_symmetrized();
        assert!(b.asymmetry() < 1e-12, "asymmetry {}", b.asymmetry());
    }

    #[test]
    fn symmetrized_apply_matches_dense() {
        let g = generators::cycle(6);
        let s = Speeds::new(vec![1.0, 8.0, 2.0, 1.0, 4.0, 2.0]);
        let op = DiffusionOperator::new(&g, &s);
        let b = op.to_dense_symmetrized();
        let x: Vec<f64> = (0..6).map(|i| i as f64 - 2.0).collect();
        let mut fast = vec![0.0; 6];
        op.apply_symmetrized(&x, &mut fast);
        let mut dense = vec![0.0; 6];
        b.matvec(&x, &mut dense);
        for (a, b) in fast.iter().zip(&dense) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    /// `B·x` reads `x_i·√s_i` in place of a scaled temporary; the bits
    /// must equal those of scaling first, applying `M` and unscaling.
    #[test]
    fn symmetrized_apply_keeps_the_bits_of_a_scaled_temporary() {
        let g = generators::random_regular(40, 4, 3).unwrap();
        let s = Speeds::random_skewed(40, 6.0, 1.5, 5);
        let op = DiffusionOperator::new(&g, &s);
        let x: Vec<f64> = (0..40).map(|i| (i as f64 * 0.37).sin()).collect();
        let scaled: Vec<f64> = (0..40).map(|i| x[i] * s.get(i).sqrt()).collect();
        let mut expected = vec![0.0; 40];
        op.apply(&scaled, &mut expected);
        for (i, e) in expected.iter_mut().enumerate() {
            *e /= s.get(i).sqrt();
        }
        let mut out = vec![0.0; 40];
        op.apply_symmetrized(&x, &mut out);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&out), bits(&expected));
    }

    #[test]
    fn principal_eigenvector_has_eigenvalue_one() {
        let g = generators::torus2d(3, 4);
        let s = Speeds::random_skewed(12, 6.0, 1.5, 3);
        let op = DiffusionOperator::new(&g, &s);
        let v = op.principal_symmetrized_eigenvector();
        let mut out = vec![0.0; 12];
        op.apply_symmetrized(&v, &mut out);
        for (a, b) in v.iter().zip(&out) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn fos_flows_are_conservative() {
        let g = generators::torus2d(4, 4);
        let s = Speeds::uniform(16);
        let op = DiffusionOperator::new(&g, &s);
        let x: Vec<f64> = (0..16).map(|i| (i % 5) as f64 * 10.0).collect();
        let mut flows = vec![0.0; g.edge_count()];
        op.fos_edge_flows(&x, &mut flows);
        // Applying the flows reproduces M·x.
        let mut by_flows = x.clone();
        for (e, &(u, v)) in g.edges().iter().enumerate() {
            by_flows[u as usize] -= flows[e];
            by_flows[v as usize] += flows[e];
        }
        let mut direct = vec![0.0; 16];
        op.apply(&x, &mut direct);
        for (a, b) in by_flows.iter().zip(&direct) {
            assert!((a - b).abs() < 1e-10);
        }
    }
}
