//! Lanczos solver for the two ends of the deflated spectrum of the
//! symmetrized diffusion operator `B = S^{-1/2}·M·S^{1/2}`.
//!
//! The three-term recurrence (Lanczos 1950) runs on `B` with every new
//! vector orthogonalized against the principal vector `√s`, so `λ₂` and
//! `λ_min` are the two ends of one Krylov space. No basis is stored
//! (Cullum and Willoughby 1985): the recurrence holds three `n`-vectors
//! and the principal vector, `32·n` bytes next to the operator's own
//! tables, plus 16 bytes per step for the tridiagonal `T_k`. Without
//! reorthogonalization rounding lets converged Ritz values reappear as
//! copies, which never moves an end.
//!
//! The end eigenvalues of `T_k` come from Sturm bisection, the last
//! components `s_k` of their eigenvectors from inverse iteration. A run
//! stops once both Ritz residuals `|β_k·s_k|` are at most [`TOLERANCE`]:
//! each end is then that close to an eigenvalue of `B` (Paige 1971).
//!
//! The start vector comes from a fixed seed, so results are
//! deterministic. When the recurrence breaks down (`β_k ≈ 0`), the
//! Krylov space is invariant and may have missed an eigenvector (a
//! symmetric graph can hide one from a start vector), so the solver runs
//! again from a fresh seeded vector. It stops once a fresh run converges
//! without breaking down or finds no end beyond those already found.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sodiff_graph::{Graph, Speeds};

use crate::diffusion::DiffusionOperator;
use crate::spectral::{SpectralMethod, Spectrum};
use crate::vector::{axpy, dot, norm2, normalize, orthogonalize_against};

/// Ritz residual `|β_k·s_k|` at which an end counts as certified.
pub const TOLERANCE: f64 = 1e-10;

/// `β_k` at or below this is a breakdown: the Krylov space is invariant.
const BREAKDOWN: f64 = 1e-12;

/// Steps after which one run gives up and reports its residual as is;
/// [`crate::spectral::try_analyze`] refuses such a result. A path needs
/// about one step per node, so paths of more than about 10,000 nodes
/// reach it.
const MAX_STEPS: usize = 10_000;

/// A check of the ends costs `O(k)`, so after step `k` the next comes
/// `1 + k/CHECK_SPACING` steps later: all checks together cost `O(k)`, and
/// a run overshoots its converged step by at most `1/CHECK_SPACING`.
const CHECK_SPACING: usize = 16;

/// Seed of the first start vector; run `r` uses `SEED + r`.
const SEED: u64 = 0x1a2c_205e;

/// The spectrum of a connected network with at least two nodes, with
/// [`SpectralMethod::Lanczos`] and the larger of the two ends' Ritz
/// residuals. A run that reaches the step cap reports a residual above
/// [`TOLERANCE`].
///
/// # Panics
///
/// Panics on fewer than two nodes or if `speeds.len() != graph.node_count()`.
pub fn spectrum(graph: &Graph, speeds: &Speeds) -> Spectrum {
    spectrum_within(graph, speeds, MAX_STEPS)
}

/// [`spectrum`] with every run cut at `max_steps`.
pub(crate) fn spectrum_within(graph: &Graph, speeds: &Speeds, max_steps: usize) -> Spectrum {
    let op = DiffusionOperator::new(graph, speeds);
    assert!(op.len() >= 2, "the deflated spectrum needs two nodes");
    let principal = op.principal_symmetrized_eigenvector();
    let first = run(&op, &principal, start_vector(&principal, SEED), max_steps);
    rerun_after_breakdown(&op, &principal, first, max_steps)
}

/// While the last run broke down and found an end beyond the ones
/// before it, runs again from the next seed; merges the ends.
fn rerun_after_breakdown(
    op: &DiffusionOperator<'_>,
    principal: &[f64],
    (mut found, mut broke_down): (Spectrum, bool),
    max_steps: usize,
) -> Spectrum {
    let mut seed = SEED;
    while broke_down {
        seed += 1;
        let (next, next_broke_down) = run(op, principal, start_vector(principal, seed), max_steps);
        broke_down = next_broke_down
            && (next.lambda_2 > found.lambda_2 + TOLERANCE
                || next.lambda_min < found.lambda_min - TOLERANCE);
        found = Spectrum::from_ends(
            found.lambda_2.max(next.lambda_2),
            found.lambda_min.min(next.lambda_min),
            SpectralMethod::Lanczos,
            found.residual.max(next.residual),
        );
    }
    found
}

/// A unit vector orthogonal to `principal`, drawn from `seed`.
fn start_vector(principal: &[f64], seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut v = vec![0.0; principal.len()];
    // A draw almost parallel to `principal` would keep too few digits.
    loop {
        v.fill_with(|| rng.random_range(-1.0..1.0));
        orthogonalize_against(&mut v, principal);
        if normalize(&mut v) > 1e-3 {
            return v;
        }
    }
}

/// One Lanczos run of at most `max_steps` steps from the unit vector `v`
/// (orthogonal to `principal`); says whether it stopped on a breakdown.
fn run(
    op: &DiffusionOperator<'_>,
    principal: &[f64],
    mut v: Vec<f64>,
    max_steps: usize,
) -> (Spectrum, bool) {
    let mut prev = vec![0.0; v.len()];
    let mut w = vec![0.0; v.len()];
    let mut t = Tridiagonal::default();
    let mut next_check = 1;
    loop {
        op.apply_symmetrized(&v, &mut w);
        axpy(-t.beta.last().copied().unwrap_or(0.0), &prev, &mut w);
        let a = dot(&w, &v);
        axpy(-a, &v, &mut w);
        orthogonalize_against(&mut w, principal);
        let b = norm2(&w);
        t.alpha.push(a);
        let k = t.alpha.len();
        debug_assert_eq!(t.beta.len() + 1, k, "T_k is square");
        let broke_down = b <= BREAKDOWN;
        if broke_down || k >= next_check {
            let (top, s_top) = t.end(true);
            let (bottom, s_bottom) = t.end(false);
            let residual = b * s_top.max(s_bottom);
            if broke_down || residual <= TOLERANCE || k >= max_steps {
                let spec = Spectrum::from_ends(top, bottom, SpectralMethod::Lanczos, residual);
                return (spec, broke_down);
            }
            next_check = (k + 1 + k / CHECK_SPACING).min(max_steps);
        }
        t.beta.push(b);
        std::mem::swap(&mut prev, &mut v);
        for (vi, wi) in v.iter_mut().zip(&w) {
            *vi = wi / b;
        }
    }
}

/// The symmetric tridiagonal `T_k`: diagonal `alpha`, off-diagonal `beta`
/// (`beta[i]` couples rows `i` and `i + 1`).
#[derive(Debug, Default)]
struct Tridiagonal {
    alpha: Vec<f64>,
    beta: Vec<f64>,
}

impl Tridiagonal {
    /// The largest (`top`) or smallest eigenvalue and the magnitude of
    /// the last component of its unit eigenvector.
    fn end(&self, top: bool) -> (f64, f64) {
        let k = self.alpha.len();
        let theta = self.eigenvalue(if top { k - 1 } else { 0 });
        // Shifted just past the end, `T − σ·I` is definite, so its LDLᵀ
        // needs no pivoting and every pivot is at least the shift away
        // from zero.
        let shift = 1e-13 * (1.0 + theta.abs());
        let sigma = if top { theta + shift } else { theta - shift };
        let mut x = vec![1.0; k];
        for _ in 0..3 {
            self.solve_shifted(sigma, &mut x);
            normalize(&mut x);
        }
        (theta, x[k - 1].abs())
    }

    /// The `j`-th smallest eigenvalue (0-based), by bisection on the
    /// Sturm count inside `±‖T‖`.
    fn eigenvalue(&self, j: usize) -> f64 {
        let max_abs = |v: &[f64]| v.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        let norm = max_abs(&self.alpha) + 2.0 * max_abs(&self.beta);
        let (mut lo, mut hi) = (-norm, norm);
        loop {
            let mid = 0.5 * (lo + hi);
            if mid <= lo || mid >= hi {
                return mid;
            }
            if self.count_below(mid) > j {
                hi = mid;
            } else {
                lo = mid;
            }
        }
    }

    /// How many eigenvalues lie below `x`: the negative pivots of the
    /// LDLᵀ factorization of `T − x·I` (Sturm's theorem).
    fn count_below(&self, x: f64) -> usize {
        let (mut count, mut q, mut b2) = (0, 1.0, 0.0);
        for (i, &a) in self.alpha.iter().enumerate() {
            q = a - x - b2 / q;
            if q == 0.0 {
                q = -f64::MIN_POSITIVE;
            }
            count += usize::from(q < 0.0);
            b2 = self.beta.get(i).map_or(0.0, |b| b * b);
        }
        count
    }

    /// Overwrites `x` with `(T − σ·I)⁻¹·x` through the LDLᵀ factorization.
    fn solve_shifted(&self, sigma: f64, x: &mut [f64]) {
        let k = self.alpha.len();
        let mut d = Vec::with_capacity(k);
        d.push(self.alpha[0] - sigma);
        for i in 1..k {
            let l = self.beta[i - 1] / d[i - 1];
            d.push(self.alpha[i] - sigma - l * self.beta[i - 1]);
            x[i] -= l * x[i - 1];
        }
        debug_assert!(
            d.iter().all(|p| p.signum() == d[0].signum()),
            "T − σ·I is not definite at σ = {sigma}"
        );
        x[k - 1] /= d[k - 1];
        for i in (0..k - 1).rev() {
            x[i] = (x[i] - self.beta[i] * x[i + 1]) / d[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tridiagonal(alpha: &[f64], beta: &[f64]) -> Tridiagonal {
        Tridiagonal {
            alpha: alpha.to_vec(),
            beta: beta.to_vec(),
        }
    }

    /// A start vector inside an invariant subspace of `K_{5,5}` breaks
    /// down at once and sees only the degenerate eigenvalue 1/6; the
    /// fresh runs recover `λ_min = −2/3`.
    #[test]
    fn a_trapped_start_vector_is_rerun() {
        let mut b = sodiff_graph::GraphBuilder::new(10);
        for u in 0..5 {
            for v in 5..10 {
                b.add_edge(u, v).unwrap();
            }
        }
        let g = b.build();
        let s = Speeds::uniform(10);
        let op = DiffusionOperator::new(&g, &s);
        let principal = op.principal_symmetrized_eigenvector();
        let mut trapped = vec![0.0; 10];
        trapped[0] = std::f64::consts::FRAC_1_SQRT_2;
        trapped[1] = -std::f64::consts::FRAC_1_SQRT_2;
        let first = run(&op, &principal, trapped, MAX_STEPS);
        assert!(first.1, "a same-side difference is an eigenvector");
        assert!((first.0.lambda_min - 1.0 / 6.0).abs() < 1e-12);
        let spec = rerun_after_breakdown(&op, &principal, first, MAX_STEPS);
        assert!((spec.lambda_2 - 1.0 / 6.0).abs() < 1e-12);
        assert!((spec.lambda_min + 2.0 / 3.0).abs() < 1e-12);
        assert!(spec.residual <= TOLERANCE);
    }

    /// The path Laplacian's tridiagonal `(2, −1)` has eigenvalues
    /// `2 − 2cos(πj/(k+1))`, and the last component of the extreme
    /// eigenvectors is `√(2/(k+1))·sin(π/(k+1))`.
    #[test]
    fn ends_of_a_known_tridiagonal() {
        let k = 12;
        let t = tridiagonal(&vec![2.0; k], &vec![-1.0; k - 1]);
        let h = std::f64::consts::PI / (k + 1) as f64;
        let last = (2.0 / (k + 1) as f64).sqrt() * h.sin();
        let (top, s_top) = t.end(true);
        let (bottom, s_bottom) = t.end(false);
        assert!((top - (2.0 - 2.0 * (k as f64 * h).cos())).abs() < 1e-14);
        assert!((bottom - (2.0 - 2.0 * h.cos())).abs() < 1e-14);
        assert!((s_top - last).abs() < 1e-12, "{s_top} vs {last}");
        assert!((s_bottom - last).abs() < 1e-12, "{s_bottom} vs {last}");
        for j in 0..k {
            let expected = 2.0 - 2.0 * ((j + 1) as f64 * h).cos();
            assert!((t.eigenvalue(j) - expected).abs() < 1e-14);
        }
    }

    /// A zero coupling splits `T` into blocks; the count and the ends see
    /// through it.
    #[test]
    fn decoupled_blocks() {
        let t = tridiagonal(&[0.5, -0.25, 0.75], &[0.0, 0.0]);
        let (top, s_top) = t.end(true);
        assert!((top - 0.75).abs() < 1e-15 && (s_top - 1.0).abs() < 1e-12);
        assert!((t.end(false).0 + 0.25).abs() < 1e-15);
        assert_eq!(t.count_below(0.6), 2);
    }
}
