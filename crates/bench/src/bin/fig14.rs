//! Figure 14: random geometric graph with r = 4·(log n)^(1/4) (paper:
//! n = 10⁴; default here 2500). SOS, FOS, and the switch to FOS at round
//! 500; 1000 rounds. RGGs behave like tori: SOS wins clearly and the
//! switch removes the residual imbalance. `λ` comes from the Lanczos
//! solver, printed with its certified residual (`--full --seed 1`:
//! λ₂ = 0.994395…).

use sodiff_bench::{save_recorder, ExpOpts};
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

    for (name, scheme, switch) in [
        ("fig14_sos", Scheme::sos(beta), None),
        ("fig14_fos", Scheme::fos(), None),
        ("fig14_fos_at500", Scheme::sos(beta), Some(500u64)),
    ] {
        let mut builder = Experiment::on(&graph)
            .discrete(Rounding::randomized(opts.seed))
            .scheme(scheme)
            .init(InitialLoad::paper_default(n))
            .stop(StopCondition::MaxRounds(rounds as usize));
        if let Some(at) = switch {
            builder = builder.hybrid(SwitchPolicy::AtRound(at));
        }
        let mut rec = Recorder::new();
        builder
            .build()
            .expect("valid experiment")
            .run_with(&mut rec);
        save_recorder(&opts, name, &rec);
    }

    println!();
    println!("expected shape (paper): similar to the torus — a less");
    println!("pronounced potential drop, SOS clearly ahead of FOS, and a");
    println!("post-switch drop of the remaining imbalance.");
}
