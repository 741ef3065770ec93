//! Property-based tests of the linear-algebra substrate.

use proptest::collection::vec;
use proptest::prelude::*;

use sodiff_graph::{generators, Graph, GraphBuilder, Speeds};
use sodiff_linalg::dense::DenseMatrix;
use sodiff_linalg::diffusion::DiffusionOperator;
use sodiff_linalg::fourier::TorusModes;
use sodiff_linalg::jacobi::eigen_symmetric;
use sodiff_linalg::lanczos::{self, TOLERANCE};
use sodiff_linalg::spectral::{dense_spectrum, SpectralMethod};
use sodiff_linalg::vector;

fn random_symmetric(n: usize) -> impl Strategy<Value = DenseMatrix> {
    vec(-1.0f64..1.0, n * (n + 1) / 2).prop_map(move |upper| {
        let mut m = DenseMatrix::zeros(n, n);
        let mut it = upper.into_iter();
        for i in 0..n {
            for j in i..n {
                let x = it.next().unwrap();
                m[(i, j)] = x;
                m[(j, i)] = x;
            }
        }
        m
    })
}

/// Random connected graph (spanning tree + extras) with random speeds.
fn network() -> impl Strategy<Value = (sodiff_graph::Graph, Speeds)> {
    (2usize..=16, any::<u64>(), 1.0f64..8.0).prop_map(|(n, seed, smax)| {
        let mut b = GraphBuilder::new(n);
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 1..n as u32 {
            b.add_edge((next() % i as u64) as u32, i).unwrap();
        }
        for _ in 0..n / 2 {
            let u = (next() % n as u64) as u32;
            let v = (next() % n as u64) as u32;
            b.add_edge_dedup(u, v);
        }
        let speeds = Speeds::new(
            (0..n)
                .map(|_| 1.0 + (smax - 1.0) * (next() % 1000) as f64 / 1000.0)
                .collect(),
        );
        (b.build(), speeds)
    })
}

/// A connected graph of up to 200 nodes from one of the generator
/// families, with unit or heterogeneous speeds.
fn family_network() -> impl Strategy<Value = (Graph, Speeds)> {
    (0usize..9, 2usize..=200, any::<u64>(), 0usize..3).prop_map(|(family, n, seed, speeds)| {
        let g = match family {
            0 => generators::path(n),
            1 => generators::star(n),
            2 => generators::grid2d(2 + n % 9, 2 + n / 9 % 19),
            3 => generators::erdos_renyi(n.max(8), 6.0 / n.max(8) as f64, seed),
            4 => generators::random_regular(n.max(8) / 2 * 2, 3 + n % 5, seed).unwrap(),
            5 => generators::rgg_paper(n, seed),
            6 => generators::random_graph_cm(n.max(4), seed).unwrap(),
            7 => generators::torus2d(2, 2 + n % 40),
            // Closed-form families, which take the solver only with
            // heterogeneous speeds; the solver itself runs on them here.
            _ => match n % 4 {
                0 => generators::cycle(3 + n % 60),
                1 => generators::complete(2 + n % 40),
                2 => generators::hypercube(1 + (n % 7) as u32),
                _ => generators::torus2d(3 + n % 9, 3 + n / 9 % 12),
            },
        };
        let n = g.node_count();
        let speeds = match speeds {
            0 => Speeds::uniform(n),
            1 => Speeds::linear_ramp(n, 8.0),
            _ => Speeds::random_skewed(n, 6.0, 1.5, seed),
        };
        (g, speeds)
    })
}

/// The solver's ends agree with dense Jacobi's within 1e-10, and it
/// certifies them.
fn lanczos_matches_jacobi(g: &Graph, speeds: &Speeds) -> Result<(), TestCaseError> {
    let spec = lanczos::spectrum(g, speeds);
    let dense = dense_spectrum(g, speeds);
    prop_assert_eq!(spec.method, SpectralMethod::Lanczos);
    prop_assert!(spec.residual <= TOLERANCE, "residual {}", spec.residual);
    prop_assert!(
        (spec.lambda_2 - dense.lambda_2).abs() < 1e-10,
        "lambda_2: lanczos {} vs jacobi {}",
        spec.lambda_2,
        dense.lambda_2
    );
    prop_assert!(
        (spec.lambda_min - dense.lambda_min).abs() < 1e-10,
        "lambda_min: lanczos {} vs jacobi {}",
        spec.lambda_min,
        dense.lambda_min
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Jacobi reconstructs A·v = λ·v and preserves the trace.
    #[test]
    fn jacobi_eigenpairs_are_valid(a in random_symmetric(8)) {
        let e = eigen_symmetric(&a);
        let trace: f64 = (0..8).map(|i| a[(i, i)]).sum();
        let sum: f64 = e.values.iter().sum();
        prop_assert!((trace - sum).abs() < 1e-8);
        for k in 0..8 {
            let v = e.vector(k);
            let mut av = vec![0.0; 8];
            a.matvec(&v, &mut av);
            for i in 0..8 {
                prop_assert!((av[i] - e.values[k] * v[i]).abs() < 1e-8);
            }
        }
    }

    /// Lanczos agrees with Jacobi on random small networks with
    /// heterogeneous speeds.
    #[test]
    fn lanczos_matches_jacobi_on_networks((g, speeds) in network()) {
        lanczos_matches_jacobi(&g, &speeds)?;
    }

    /// The diffusion matrix always conserves load (column sums 1) and has
    /// spectral radius ≤ 1 for any network and speeds.
    #[test]
    fn diffusion_matrix_structure((g, speeds) in network()) {
        let n = g.node_count();
        let op = DiffusionOperator::new(&g, &speeds);
        let m = op.to_dense();
        for j in 0..n {
            let col: f64 = (0..n).map(|i| m[(i, j)]).sum();
            prop_assert!((col - 1.0).abs() < 1e-10, "column {j} sums to {col}");
        }
        // All eigenvalues of B in [-1, 1].
        let b = op.to_dense_symmetrized();
        let e = eigen_symmetric(&b);
        prop_assert!((e.values[0] - 1.0).abs() < 1e-8, "top eigenvalue {}", e.values[0]);
        prop_assert!(*e.values.last().unwrap() >= -1.0 - 1e-8);
    }

    /// Matrix-free apply matches the dense materialization.
    #[test]
    fn apply_matches_dense((g, speeds) in network(), raw in vec(-50.0f64..50.0, 16)) {
        let n = g.node_count();
        let x: Vec<f64> = raw.into_iter().take(n).chain(std::iter::repeat(0.0)).take(n).collect();
        let op = DiffusionOperator::new(&g, &speeds);
        let mut fast = vec![0.0; n];
        op.apply(&x, &mut fast);
        let mut dense = vec![0.0; n];
        op.to_dense().matvec(&x, &mut dense);
        for (a, b) in fast.iter().zip(&dense) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    /// Parseval: the DFT coefficients preserve the energy of any torus
    /// load grid.
    #[test]
    fn fourier_parseval(
        rows in 3usize..8,
        cols in 3usize..8,
        raw in vec(-100.0f64..100.0, 64),
    ) {
        let loads: Vec<f64> = raw.into_iter().cycle().take(rows * cols).collect();
        let tm = TorusModes::new(rows, cols);
        let coeffs = tm.coefficients(&loads);
        let energy: f64 = coeffs.iter().map(|c| c.amplitude * c.amplitude).sum();
        let direct = vector::dot(&loads, &loads);
        prop_assert!(
            (energy - direct).abs() < 1e-6 * direct.max(1.0),
            "parseval: {energy} vs {direct}"
        );
    }

    /// The constant grid projects entirely onto the μ = 1 mode.
    #[test]
    fn fourier_constant_grid(rows in 3usize..8, cols in 3usize..8, c in -50.0f64..50.0) {
        let tm = TorusModes::new(rows, cols);
        let n = rows * cols;
        let coeffs = tm.coefficients(&vec![c; n]);
        prop_assert!((coeffs[0].amplitude - c.abs() * (n as f64).sqrt()).abs() < 1e-7);
        for m in &coeffs[1..] {
            prop_assert!(m.amplitude < 1e-7);
        }
    }

    /// vector helpers: Cauchy-Schwarz and normalization.
    #[test]
    fn vector_helpers(a in vec(-10.0f64..10.0, 8), b in vec(-10.0f64..10.0, 8)) {
        let dot = vector::dot(&a, &b);
        prop_assert!(dot.abs() <= vector::norm2(&a) * vector::norm2(&b) + 1e-9);
        let mut c = a.clone();
        let norm = vector::normalize(&mut c);
        if norm > 0.0 {
            prop_assert!((vector::norm2(&c) - 1.0).abs() < 1e-9);
            let unit = c.clone();
            vector::orthogonalize_against(&mut c, &unit);
            prop_assert!(vector::norm2(&c) < 1e-9);
        }
    }
}

proptest! {
    // Dense Jacobi on up to 200 nodes dominates; fewer cases keep the
    // dev-profile run short.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Lanczos agrees with Jacobi on every generator family up to 200
    /// nodes.
    #[test]
    fn lanczos_matches_jacobi_on_families((g, speeds) in family_network()) {
        prop_assume!(g.is_connected());
        lanczos_matches_jacobi(&g, &speeds)?;
    }
}
