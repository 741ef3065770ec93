//! Figure 14: random geometric graph with r = 4·(log n)^(1/4) (paper:
//! n = 10⁴; default here 2500). SOS, FOS, and the switch to FOS at round
//! 500; 1000 rounds. RGGs behave like tori: SOS wins clearly and the
//! switch removes the residual imbalance. `λ` comes from the Lanczos
//! solver, printed with its certified residual (`--full --seed 1`:
//! λ₂ = 0.994395…).

use sodiff_bench::{run_figure, Cut, ExpOpts, Series};
use sodiff_core::prelude::*;
use sodiff_graph::generators;
use sodiff_linalg::spectral;

fn main() {
    let opts = ExpOpts::from_args();
    let n: usize = opts.scale(2_500, 10_000);
    let rounds = 1000u64;
    let graph = generators::rgg_paper(n, opts.seed);
    let spec = spectral::analyze(&graph, &Speeds::uniform(n));
    let beta = spec.beta_opt();
    println!(
        "Figure 14: RGG n = {n}, max degree {}, lambda = {:.6} (residual {:.1e}), beta = {:.6}",
        graph.max_degree(),
        spec.lambda,
        spec.residual,
        beta
    );

    let paper = |scheme, switch| Series::paper(scheme, opts.seed, n, switch);
    let series = [
        paper(Scheme::sos(beta), None),
        paper(Scheme::fos(), None),
        paper(Scheme::sos(beta), Some(SwitchPolicy::AtRound(500))),
    ];
    let outputs = [
        ("fig14_sos", Cut::every_round(0, rounds)),
        ("fig14_fos", Cut::every_round(1, rounds)),
        ("fig14_fos_at500", Cut::every_round(2, rounds)),
    ];
    run_figure(&opts, &graph, &series, &outputs, &[], None);

    println!();
    println!("expected shape (paper): similar to the torus — a less");
    println!("pronounced potential drop, SOS clearly ahead of FOS, and a");
    println!("post-switch drop of the remaining imbalance.");
}
