//! Quickstart: balance a point load on a 2D torus with FOS and SOS.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a 64×64 torus, computes the spectral gap and the optimal SOS
//! parameter `β`, then runs discrete FOS and SOS (randomized rounding)
//! side by side until balanced, printing the metric trajectory.

use sodiff::core::prelude::*;
use sodiff::graph::generators;
use sodiff::linalg::spectral;

fn main() {
    let (rows, cols) = (64, 64);
    let graph = generators::torus2d(rows, cols);
    let n = graph.node_count();
    let speeds = Speeds::uniform(n);

    let spectrum = spectral::analyze(&graph, &speeds);
    let beta = spectrum.beta_opt();
    println!("torus {rows}x{cols}: n = {n}, |E| = {}", graph.edge_count());
    println!(
        "lambda = {:.9}  (gap {:.3e}),  beta_opt = {:.9}",
        spectrum.lambda,
        spectrum.gap(),
        beta
    );
    println!();

    // The paper's default initialization: 1000·n tokens on node 0.
    let init = InitialLoad::paper_default(n);
    let schemes = [("FOS", Scheme::fos()), ("SOS", Scheme::sos(beta))];

    println!(
        "{:<6} {:>8} {:>16} {:>16} {:>16}",
        "scheme", "round", "max - avg", "max local diff", "potential/n"
    );
    for (name, scheme) in schemes {
        let mut sim = Experiment::on(&graph)
            .discrete(Rounding::randomized(42))
            .scheme(scheme)
            .init(init.clone())
            .build()
            .expect("valid experiment")
            .simulator();
        for checkpoint in [50u64, 200, 500, 1000, 2000, 4000] {
            while sim.round() < checkpoint {
                sim.step();
            }
            let m = sim.metrics();
            println!(
                "{:<6} {:>8} {:>16.2} {:>16.2} {:>16.2}",
                name, checkpoint, m.max_minus_avg, m.max_local_diff, m.potential_over_n
            );
        }
        assert_eq!(sim.total_load(), init.total(n) as f64, "tokens conserved");
        println!();
    }

    println!("SOS converges roughly quadratically faster; its residual");
    println!("imbalance can be removed by switching to FOS — see the");
    println!("fig07_08_15 binary (cargo run --release -p sodiff-bench --bin fig07_08_15).");
}
