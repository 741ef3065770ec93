//! Figure 13: hypercube (paper: n = 2²⁰; default here 2¹⁶). SOS, FOS, and
//! the switch to FOS at round 50; 200 rounds. The paper observes only a
//! slight advantage for SOS and a remaining imbalance within one token of
//! FOS's.

use sodiff_bench::{run_figure, Cut, ExpOpts, Series};
use sodiff_core::prelude::*;
use sodiff_graph::generators;
use sodiff_linalg::spectral;

fn main() {
    let opts = ExpOpts::from_args();
    let dim: u32 = opts.scale(16, 20);
    let rounds = 200u64;
    let graph = generators::hypercube(dim);
    let n = graph.node_count();
    let spec = spectral::analyze(&graph, &Speeds::uniform(n));
    let beta = spec.beta_opt();
    println!(
        "Figure 13: hypercube 2^{dim} (n = {n}), lambda = {:.6}, beta = {:.6}",
        spec.lambda, beta
    );

    let paper = |scheme, switch| Series::paper(scheme, opts.seed, n, switch);
    let series = [
        paper(Scheme::sos(beta), None),
        paper(Scheme::fos(), None),
        paper(Scheme::sos(beta), Some(SwitchPolicy::AtRound(50))),
    ];
    let outputs = [
        ("fig13_sos", Cut::every_round(0, rounds)),
        ("fig13_fos", Cut::every_round(1, rounds)),
        ("fig13_fos_at50", Cut::every_round(2, rounds)),
    ];
    run_figure(&opts, &graph, &series, &outputs, &[], None);

    println!();
    println!("expected shape (paper): FOS needs only slightly more rounds");
    println!("than SOS; the FOS remaining imbalance is about one token");
    println!("better than the SOS one.");
}
