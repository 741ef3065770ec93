//! Figure 12: random graph in the configuration model with d = ⌊log₂ n⌋
//! (paper: n = 10⁶, d = 19; default here n = 10⁵). SOS, FOS, and the
//! switch to FOS at round 12. On these expander-like graphs FOS and SOS
//! behave almost identically. `λ` comes from the Lanczos solver, printed
//! with its certified residual.

use sodiff_bench::{run_figure, Cut, ExpOpts, Series};
use sodiff_core::prelude::*;
use sodiff_graph::generators;
use sodiff_linalg::spectral;

fn main() {
    let opts = ExpOpts::from_args();
    let n: usize = opts.scale(100_000, 1_000_000);
    let rounds = 100u64;
    let graph = generators::random_graph_cm(n, opts.seed).expect("CM parameters");
    let spec = spectral::analyze(&graph, &Speeds::uniform(n));
    let beta = spec.beta_opt();
    println!(
        "Figure 12: CM random graph n = {n}, d = {}, lambda = {:.6} (residual {:.1e}), beta = {:.6}",
        graph.max_degree(),
        spec.lambda,
        spec.residual,
        beta
    );

    let paper = |scheme, switch| Series::paper(scheme, opts.seed, n, switch);
    let series = [
        paper(Scheme::sos(beta), None),
        paper(Scheme::fos(), None),
        paper(Scheme::sos(beta), Some(SwitchPolicy::AtRound(12))),
    ];
    let outputs = [
        ("fig12_sos", Cut::every_round(0, rounds)),
        ("fig12_fos", Cut::every_round(1, rounds)),
        ("fig12_fos_at12", Cut::every_round(2, rounds)),
    ];
    run_figure(&opts, &graph, &series, &outputs, &[], None);

    println!();
    println!("expected shape (paper): all three curves drop within ~20-40");
    println!("rounds and end at the same small remaining imbalance — on");
    println!("graphs with a large spectral gap SOS buys almost nothing.");
}
