//! Table I: graph classes, sizes, and the optimal SOS parameter β.
//!
//! Analytic spectra (tori, hypercube) are evaluated at the exact paper
//! sizes regardless of `--full`; the two random graph classes default to
//! scaled sizes (the paper's 10⁶-node configuration-model graph needs
//! `--full`) and take the Lanczos solver. Each row prints `λ` with its
//! certified residual (0 for the closed forms).

use sodiff_bench::{write_table, ExpOpts};
use sodiff_graph::{generators, Speeds};
use sodiff_linalg::spectral::{self, Spectrum};

fn main() {
    let opts = ExpOpts::from_args();
    let mut rows = Vec::new();
    println!(
        "{:<28} {:>10} {:>14} {:>9} {:>14} {:>14}",
        "graph", "n", "lambda", "residual", "beta_opt", "beta (paper)"
    );

    let mut emit = |name: &str, n: usize, s: Spectrum, paper: Option<f64>| {
        let paper_str = paper
            .map(|p| format!("{p:.10}"))
            .unwrap_or_else(|| "-".into());
        let (lambda, residual, beta) = (s.lambda, s.residual, s.beta_opt());
        println!(
            "{name:<28} {n:>10} {lambda:>14.10} {residual:>9.1e} {beta:>14.10} {paper_str:>14}"
        );
        rows.push(format!(
            "{name},{n},{lambda},{residual},{beta},{}",
            paper.unwrap_or(f64::NAN)
        ));
    };

    // Tori and hypercube: closed forms at paper scale.
    emit(
        "torus 1000x1000",
        1_000_000,
        spectral::torus_spectrum(&[1000, 1000]),
        Some(1.9920836447),
    );
    emit(
        "torus 100x100",
        10_000,
        spectral::torus_spectrum(&[100, 100]),
        Some(1.9235874877),
    );
    emit(
        "hypercube 2^20",
        1 << 20,
        spectral::hypercube_spectrum(20),
        Some(1.4026054847),
    );

    // Random graph (CM), d = floor(log2 n).
    let n_cm = opts.scale(16_384, 1_000_000);
    let g = generators::random_graph_cm(n_cm, opts.seed).expect("valid CM parameters");
    let paper = if opts.full { Some(1.0651965147) } else { None };
    emit(
        &format!("random graph (CM) d={}", g.max_degree()),
        n_cm,
        spectral::analyze(&g, &Speeds::uniform(n_cm)),
        paper,
    );

    // Random geometric graph, r = 4 (log n)^(1/4).
    let n_rgg = opts.scale(2_000, 10_000);
    let g = generators::rgg_paper(n_rgg, opts.seed);
    let paper = if opts.full { Some(1.9554636334) } else { None };
    emit(
        "random geometric graph",
        n_rgg,
        spectral::analyze(&g, &Speeds::uniform(n_rgg)),
        paper,
    );

    write_table(
        &opts.path("table1"),
        "graph,n,lambda,residual,beta_opt,beta_paper",
        &rows,
    );
    println!("\nwrote {}", opts.path("table1").display());
    println!("note: paper beta values are reproduced to ~1e-7 for the");
    println!("closed-form rows; random-graph rows depend on the instance");
    println!("(seed) and match the paper's order of magnitude.");
}
