//! Figures 9–11: grayscale renders of one SOS run on the torus, which
//! switches to FOS after its SOS phase (checkpoints scaled with the torus
//! side). The run renders Figures 9 and 10 on the way, then Figure 11.
//!
//! * Figures 9 and 10: wavefronts with adaptive shading, at the paper's
//!   checkpoints 500, 1000, 1100, 1200, and 1400. The load spreads in
//!   circles from the four image corners and the fronts collapse at the
//!   center — the moment the discontinuities of Figure 1 occur.
//! * Figure 11: smoothing effect of the FOS phase, rendered with absolute
//!   shading (white = at the average, black = ≥10 tokens off). Three
//!   frames: after 3000 SOS steps, after +100 FOS steps, after +1000 FOS
//!   steps.

use sodiff_bench::ExpOpts;
use sodiff_core::prelude::*;
use sodiff_graph::generators;
use sodiff_linalg::spectral;
use sodiff_viz::{render_torus, Shading};

fn main() {
    let opts = ExpOpts::from_args();
    let side: usize = opts.scale(256, 1000);
    let graph = generators::torus2d(side, side);
    let n = graph.node_count();
    let beta = spectral::analyze(&graph, &Speeds::uniform(n)).beta_opt();
    let scale = side as f64 / 1000.0;
    let mut wavefronts: Vec<u64> = [500.0f64, 1000.0, 1100.0, 1200.0, 1400.0]
        .iter()
        .map(|r| (r * scale).round().max(1.0) as u64)
        .collect();
    wavefronts.dedup();
    let sos_steps = (3000.0 * scale) as u64;
    let fos_a = (100.0 * scale).max(10.0) as u64;
    let fos_b = (1000.0 * scale) as u64;
    println!(
        "Figures 9-11: torus {side}x{side}; wavefronts at {wavefronts:?}, \
         {sos_steps} SOS steps, then +{fos_a}/+{fos_b} FOS"
    );

    let mut sim = Experiment::on(&graph)
        .discrete(Rounding::randomized(opts.seed))
        .sos(beta)
        .init(InitialLoad::paper_default(n))
        .build()
        .expect("valid experiment")
        .simulator();

    let mut loads = vec![0.0f64; n];
    let mut render = |sim: &mut Simulator<'_>, round: u64, shading: Shading, name: &str| {
        while sim.round() < round {
            sim.step();
        }
        for (i, l) in loads.iter_mut().enumerate() {
            *l = sim.load_of(i);
        }
        let img = render_torus(side, side, &loads, shading);
        let path = opts.out_dir.join(format!("{name}.pgm"));
        img.save_pgm(&path).expect("write frame");
        let m = sim.metrics();
        println!(
            "round {round:>5}: max-avg {:>12.1}, local diff {:>12.1} -> {}",
            m.max_minus_avg,
            m.max_local_diff,
            path.display()
        );
    };

    // Every wavefront checkpoint lies inside the SOS phase:
    // round(1.4·side) ≤ trunc(3·side) for every side ≥ 1.
    for &round in &wavefronts {
        render(
            &mut sim,
            round,
            Shading::Adaptive,
            &format!("fig09_round{round:05}"),
        );
    }
    let absolute = Shading::Absolute { threshold: 10.0 };
    render(&mut sim, sos_steps, absolute, "fig11_after_sos");
    sim.switch_scheme(Scheme::fos());
    render(&mut sim, sos_steps + fos_a, absolute, "fig11_fos_plus_100");
    render(&mut sim, sos_steps + fos_b, absolute, "fig11_fos_plus_1000");

    println!();
    println!("expected (paper): circular fronts emanate from the corners");
    println!("(node 0 wraps around) and collapse at the center near the");
    println!("1200-step checkpoint (scaled with the side). After SOS no");
    println!("pixel exceeds the average by more than 10 tokens but the");
    println!("image is noisy; the FOS steps smooth it out, dropping the");
    println!("maximum from ~9 to ~7 (at side 1000; small tori go lower).");
}
