//! A closed-form oracle for the continuous schemes.
//!
//! Under speeds `s`, a continuous FOS round is linear, `x(t+1) = M·x(t)`,
//! with `M = I − L·S⁻¹` for the Laplacian `L` of the weights
//! `α_uv = 1/(max(deg u, deg v) + 1)`. The symmetrized operator
//! `B = S^{-1/2}·M·S^{1/2} = I − S^{-1/2}·L·S^{-1/2}` has an orthonormal
//! eigenbasis `Q`, and in the coordinates `a = Qᵀ·S^{-1/2}·x` every mode
//! is a scalar recurrence with its eigenvalue `μ`:
//!
//! * FOS: `a(t+1) = μ·a(t)`;
//! * SOS (Muthukrishnan, Ghosh and Schultz, 1998): `a(1) = μ·a(0)` (the
//!   first-order warm-up round), then `a(t+1) = β·μ·a(t) + (1−β)·a(t−1)`;
//! * the SOS→FOS switch restarts the first-order rule.
//!
//! `M` is built here from the edge list, the degrees and the speeds by
//! the paper's definition, not from `Graph::alpha` or the kernel tables,
//! and `β_opt = 2/(1 + √(1 − λ²))` comes from this oracle's own spectrum,
//! so an error in the equations themselves cannot reach both sides: a
//! wrong `α`, a missed warm-up round, a sign in the memory term.
//!
//! **Error bound.** Two errors separate the sides, and neither grows
//! faster than linearly in the round `t`. The Jacobi solver stops once
//! the off-diagonal Frobenius norm of its rotated matrix is at most
//! `10⁻¹²·√n`, so the closed form is exact for an operator within that
//! of `B`; each round then moves the oracle's loads by at most
//! `10⁻¹²·√n·‖x‖₂ ≤ 10⁻¹²·n·X`, with `X = max|x(0)|`. The engine's round
//! rounds `O(Δ)` additions per node, and the basis change two `n`-term
//! products, each at most `(Δ + n)·u·X` with unit roundoff `u = 2⁻⁵³`.
//! Every mode decays or stays (`|μ| ≤ 1`, and the SOS recurrence's roots
//! have modulus at most `max(1, √(β − 1))` for the β used here), so each
//! node's load must agree within
//! `64·(t + 1)·(10⁻¹²·n + (Δ + n)·u)·X`; the factor 64 covers the
//! transient gain of the second-order recurrence. The runs here stay
//! orders of magnitude inside it.
//!
//! **The discrete mean.** Every round is linear in the loads and the
//! flows, and the SOS memory is the flow the edge sent. So when the
//! rounding is unbiased per edge, `E[y_e] = Ŷ_e` given the past, and the
//! expected discrete load follows the continuous recurrence from the same
//! integral start. Over [`SEEDS`] seeds of `rounding=unbiased`, each
//! node's mean load must lie within 5 standard errors of the closed form,
//! plus the bound above. A node whose sample variance is zero gets no
//! statistical slack: it must match within the closed form's own bound.

use sodiff::core::prelude::*;
use sodiff::graph::{generators, Graph};
use sodiff::linalg::dense::DenseMatrix;
use sodiff::linalg::jacobi;

/// Rounds compared per run.
const ROUNDS: usize = 80;

/// Seeds of the unbiased rounding per discrete-mean check.
const SEEDS: u64 = 400;

/// Rounds compared per discrete-mean check.
const MEAN_ROUNDS: usize = 30;

/// Every generator family, up to 48 nodes, all connected.
fn graphs() -> Vec<(&'static str, Graph)> {
    let er = generators::erdos_renyi(40, 0.2, 3);
    assert!(er.is_connected(), "the ER instance must be connected");
    vec![
        ("torus 6x7", generators::torus2d(6, 7)),
        ("torus 4x3x3", generators::torus(&[4, 3, 3])),
        ("hypercube 5", generators::hypercube(5)),
        ("cycle 25", generators::cycle(25)),
        ("path 20", generators::path(20)),
        ("complete 10", generators::complete(10)),
        ("star 15", generators::star(15)),
        ("grid 5x8", generators::grid2d(5, 8)),
        ("erdos_renyi 40", er),
        (
            "random_regular 40",
            generators::random_regular(40, 4, 5).unwrap(),
        ),
        ("random_cm 48", generators::random_graph_cm(48, 7).unwrap()),
        ("rgg 48", generators::rgg_paper(48, 3)),
    ]
}

/// Deterministic, uneven initial loads, so that every mode is excited.
fn initial_loads(n: usize) -> Vec<i64> {
    let mut s = 0x9e37_79b9_7f4a_7c15u64;
    (0..n)
        .map(|_| {
            s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            ((s >> 33) % 1000) as i64
        })
        .collect()
}

/// The closed form of one graph under one speed vector.
struct Oracle {
    sqrt_s: Vec<f64>,
    /// `μ_k`, the eigenvalues of `B`.
    mu: Vec<f64>,
    /// `Q`, column `k` the unit eigenvector of `μ_k`.
    q: DenseMatrix,
    /// `β_opt` from the second largest `|μ|`.
    beta_opt: f64,
    max_degree: usize,
}

impl Oracle {
    fn new(g: &Graph, speeds: &[f64]) -> Self {
        let n = g.node_count();
        let mut degree = vec![0usize; n];
        for (u, v) in g.edges() {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let sqrt_s: Vec<f64> = speeds.iter().map(|s| s.sqrt()).collect();
        // B = I − S^{-1/2}·L·S^{-1/2}, entry by entry.
        let mut b = DenseMatrix::identity(n);
        for (u, v) in g.edges() {
            let (u, v) = (u as usize, v as usize);
            let alpha = 1.0 / (degree[u].max(degree[v]) as f64 + 1.0);
            b[(u, u)] -= alpha / speeds[u];
            b[(v, v)] -= alpha / speeds[v];
            b[(u, v)] += alpha / (sqrt_s[u] * sqrt_s[v]);
            b[(v, u)] += alpha / (sqrt_s[u] * sqrt_s[v]);
        }
        let eig = jacobi::eigen_symmetric(&b);
        // Eigenvalues descend; the first is the principal `μ = 1`.
        let lambda = eig.values[1].abs().max(eig.values[n - 1].abs());
        Self {
            sqrt_s,
            mu: eig.values,
            q: eig.vectors,
            beta_opt: 2.0 / (1.0 + (1.0 - lambda * lambda).sqrt()),
            max_degree: degree.into_iter().max().unwrap_or(0),
        }
    }

    /// The error bound of the module docs at round `t` from the loads
    /// `x0`.
    fn bound(&self, t: usize, x0: &[f64]) -> f64 {
        let n = x0.len();
        let x_max = x0.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        let per_round = 1e-12 * n as f64 + (self.max_degree + n) as f64 * (f64::EPSILON / 2.0);
        64.0 * (t + 1) as f64 * per_round * x_max
    }

    /// The loads `x(t)` for `t` in `0..=rounds`: SOS with `beta` before
    /// round `switch`, FOS from it on (`beta = None`: FOS throughout).
    fn trajectory(
        &self,
        x0: &[f64],
        beta: Option<f64>,
        switch: usize,
        rounds: usize,
    ) -> Vec<Vec<f64>> {
        let n = x0.len();
        let y: Vec<f64> = (0..n).map(|i| x0[i] / self.sqrt_s[i]).collect();
        let mut a: Vec<f64> = (0..n)
            .map(|k| (0..n).map(|i| self.q[(i, k)] * y[i]).sum())
            .collect();
        let mut prev = a.clone();
        let mut out = Vec::with_capacity(rounds + 1);
        for t in 0..=rounds {
            out.push(
                (0..n)
                    .map(|i| self.sqrt_s[i] * (0..n).map(|k| self.q[(i, k)] * a[k]).sum::<f64>())
                    .collect(),
            );
            let sos = beta.filter(|_| t > 0 && t < switch);
            let next: Vec<f64> = (0..n)
                .map(|k| match sos {
                    Some(b) => b * self.mu[k] * a[k] + (1.0 - b) * prev[k],
                    None => self.mu[k] * a[k],
                })
                .collect();
            prev = std::mem::replace(&mut a, next);
        }
        out
    }
}

/// Runs the engine's continuous process and checks every node's load
/// against the oracle after every round.
fn check(
    name: &str,
    g: &Graph,
    speeds: &Speeds,
    oracle: &Oracle,
    beta: Option<f64>,
    switch: Option<usize>,
) {
    let n = g.node_count();
    let loads = initial_loads(n);
    let x0: Vec<f64> = loads.iter().map(|&x| x as f64).collect();
    let scheme = beta.map_or(Scheme::fos(), Scheme::sos);
    let sim_of = || {
        Experiment::on(g)
            .continuous()
            .scheme(scheme)
            .speeds(speeds.clone())
            .init(InitialLoad::Custom(loads.clone()))
            .build()
            .unwrap()
            .simulator()
    };
    let mut engine: Vec<Vec<f64>> = vec![x0.clone()];
    let mut record = |sim: &Simulator<'_>| engine.push(sim.loads_f64().unwrap().into_owned());
    match switch {
        None => {
            let mut sim = sim_of();
            for _ in 0..ROUNDS {
                sim.step();
                record(&sim);
            }
        }
        Some(r) => {
            struct Rows<'a>(&'a mut dyn FnMut(&Simulator<'_>));
            impl Observer for Rows<'_> {
                fn on_round(&mut self, sim: &Simulator<'_>) {
                    (self.0)(sim);
                }
            }
            let report = sim_of().run_hybrid_with(
                SwitchPolicy::AtRound(r as u64),
                StopCondition::MaxRounds(ROUNDS),
                &mut Rows(&mut record),
            );
            assert_eq!(report.switch_round, Some(r as u64), "{name}");
        }
    }
    let expected = oracle.trajectory(&x0, beta, switch.unwrap_or(usize::MAX), ROUNDS);
    assert_eq!(engine.len(), expected.len(), "{name}");
    for (t, (got, want)) in engine.iter().zip(&expected).enumerate() {
        let bound = oracle.bound(t, &x0);
        for i in 0..n {
            let err = (got[i] - want[i]).abs();
            assert!(
                err <= bound,
                "{name}, {scheme}, switch {switch:?}: node {i} round {t}: engine {} vs closed form {} (error {err:.3e} > bound {bound:.3e})",
                got[i],
                want[i]
            );
        }
    }
}

#[test]
fn continuous_rounds_follow_the_closed_form() {
    for (name, g) in graphs() {
        let n = g.node_count();
        let uniform = Speeds::uniform(n);
        let two_class = Speeds::two_class(n, n / 4, 3.0);
        for speeds in [uniform, two_class] {
            let values: Vec<f64> = (0..n).map(|i| speeds.get(i)).collect();
            let oracle = Oracle::new(&g, &values);
            assert!((1.0..2.0).contains(&oracle.beta_opt), "{name}");
            check(name, &g, &speeds, &oracle, None, None);
            check(name, &g, &speeds, &oracle, Some(oracle.beta_opt), None);
            check(name, &g, &speeds, &oracle, Some(1.9), None);
            check(name, &g, &speeds, &oracle, Some(1.9), Some(12));
        }
    }
}

/// Runs the discrete process under [`SEEDS`] seeds of the unbiased
/// per-edge rounding and checks each node's mean load after every round
/// against the closed form (see the module docs).
fn check_discrete_mean(name: &str, g: &Graph, speeds: &Speeds, oracle: &Oracle, beta: Option<f64>) {
    let n = g.node_count();
    let loads = initial_loads(n);
    let x0: Vec<f64> = loads.iter().map(|&x| x as f64).collect();
    let scheme = beta.map_or(Scheme::fos(), Scheme::sos);
    // Per round and node, the sum of the loads and of their squares over
    // the seeds, exact in integers.
    let mut sums = vec![vec![(0i128, 0i128); n]; MEAN_ROUNDS + 1];
    for seed in 0..SEEDS {
        let mut sim = Experiment::on(g)
            .discrete(Rounding::unbiased_edge(seed))
            .scheme(scheme)
            .speeds(speeds.clone())
            .init(InitialLoad::Custom(loads.clone()))
            .build()
            .unwrap()
            .simulator();
        for (t, row) in sums.iter_mut().enumerate() {
            if t > 0 {
                sim.step();
            }
            for (s, &x) in row.iter_mut().zip(sim.loads_i64().unwrap().iter()) {
                *s = (s.0 + i128::from(x), s.1 + i128::from(x) * i128::from(x));
            }
        }
    }
    let expected = oracle.trajectory(&x0, beta, usize::MAX, MEAN_ROUNDS);
    let r = SEEDS as f64;
    for (t, (row, want)) in sums.iter().zip(&expected).enumerate() {
        let bound = oracle.bound(t, &x0);
        for (i, &(sum, squares)) in row.iter().enumerate() {
            let mean = sum as f64 / r;
            // `R·Σx² − (Σx)²` is zero exactly when every seed agrees.
            let spread = (SEEDS as i128 * squares - sum * sum) as f64;
            let std_err = (spread / (r * r * (r - 1.0))).sqrt();
            let err = (mean - want[i]).abs();
            assert!(
                err <= 5.0 * std_err + bound,
                "{name}, {scheme}: node {i} round {t}: mean {mean} vs closed form {} \
                 (error {err:.3e}, standard error {std_err:.3e})",
                want[i]
            );
        }
    }
}

#[test]
fn unbiased_rounding_follows_the_closed_form_in_the_mean() {
    let (torus, grid) = (generators::torus2d(4, 5), generators::grid2d(4, 4));
    let cases = [
        ("torus 4x5", &torus, Speeds::uniform(20)),
        ("grid 4x4", &grid, Speeds::two_class(16, 4, 3.0)),
    ];
    for (name, g, speeds) in cases {
        let values: Vec<f64> = (0..g.node_count()).map(|i| speeds.get(i)).collect();
        let oracle = Oracle::new(g, &values);
        for beta in [None, Some(oracle.beta_opt)] {
            check_discrete_mean(name, g, &speeds, &oracle, beta);
        }
    }
}
