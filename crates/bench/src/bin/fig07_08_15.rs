//! Figures 7, 8 and 15 on the 100×100 torus (paper scale; this
//! experiment is cheap). All three read the discrete SOS run from the
//! seed and its hybrids, so each distinct simulation runs once for 1000
//! rounds and feeds every file that plots it.
//!
//! * Figure 7: impact of the eigenvectors on the load. Per round of the
//!   pure SOS run we project the load vector onto the analytic Fourier
//!   eigenbasis of the diffusion matrix and record (a) the amplitude of
//!   the second eigenvalue group (the paper's a₄ — one of the four
//!   degenerate second eigenvectors), (b) the maximum non-constant
//!   amplitude, and (c) the rank of the currently leading eigenvector.
//!   The paper used LAPACK to solve V·a = x(t); we use an O(n·(r+c)) DFT
//!   per round instead (same coefficients, see `sodiff_linalg::fourier`).
//! * Figure 8: effect of the switch round. Pure SOS plus hybrids
//!   switching to FOS after 300, 500, 700, and 900 rounds record max−avg
//!   (and friends). Two more series put the switch rounds in context:
//!   pure FOS, and the hybrid whose local trigger switches once the max
//!   local load difference is at most 20 tokens, a rule that needs no
//!   global knowledge.
//! * Figure 15: everything overlaid — the metric series of the run that
//!   switches to FOS at round 500, plus its eigen-coefficient impact
//!   columns (max |aᵢ|, leading rank) per round.

use std::fs::File;
use std::io::{BufWriter, Write};

use sodiff_bench::{run_figure, write_table, Cut, ExpOpts, Series};
use sodiff_core::prelude::*;
use sodiff_graph::generators;
use sodiff_linalg::fourier::TorusModes;
use sodiff_linalg::spectral;

// The runs the coefficient columns read, as indices into the series
// table below.
const SOS: usize = 0;
const FOS500: usize = 2;

fn main() {
    let opts = ExpOpts::from_args();
    let side: usize = 100;
    let rounds = 1000u64;
    let graph = generators::torus2d(side, side);
    let n = graph.node_count();
    let beta = spectral::analyze(&graph, &Speeds::uniform(n)).beta_opt();
    println!(
        "Figures 7, 8 and 15: torus {side}x{side}, switch-round sweep and \
         eigen-coefficient tracking, horizon {rounds}"
    );

    let sos = |switch| Series::paper(Scheme::sos(beta), opts.seed, n, switch);
    let mut table = vec![("fig08_sos".to_string(), sos(None))];
    for at in [300u64, 500, 700, 900] {
        table.push((
            format!("fig08_fos{at}"),
            sos(Some(SwitchPolicy::AtRound(at))),
        ));
    }
    let fos = Series::paper(Scheme::fos(), opts.seed, n, None);
    table.push(("fig08_fos_only".into(), fos));
    let local = sos(Some(SwitchPolicy::MaxLocalDiffBelow(20.0)));
    table.push(("fig08_switch_local20".into(), local));
    let series: Vec<Series> = table.iter().map(|(_, s)| s.clone()).collect();
    let outputs: Vec<_> = table
        .iter()
        .enumerate()
        .map(|(i, (name, _))| (name.as_str(), Cut::every_round(i, rounds)))
        .collect();

    // Figure 7 is written row by row from the pure SOS run; Figure 15
    // keeps the switch-at-500 run's leading coefficient per round.
    let modes = TorusModes::new(side, side);
    let fig07 = opts.path("fig07_coefficients");
    let mut w = BufWriter::new(File::create(&fig07).expect("create csv"));
    writeln!(
        w,
        "round,second_group_amplitude,max_amplitude,leading_rank,leading_p,leading_q,leading_eigenvalue"
    )
    .expect("header");
    let mut fos500_leading = Vec::with_capacity(rounds as usize);
    let mut loads = vec![0.0f64; n];
    let mut hook = |i: usize, sim: &Simulator<'_>| {
        if i != SOS && i != FOS500 {
            return;
        }
        for (k, l) in loads.iter_mut().enumerate() {
            *l = sim.load_of(k);
        }
        let coeffs = modes.coefficients(&loads);
        let leading = TorusModes::leading(&coeffs);
        if i == FOS500 {
            fos500_leading.push(leading.map_or((0.0, 0), |l| (l.amplitude, l.rank)));
            return;
        }
        // Second eigenvalue group: ranks 2.. with the same eigenvalue as
        // rank 2 (on the square torus: modes (0,1) and (1,0)).
        let lambda2 = coeffs[1].eigenvalue;
        let second_group: f64 = coeffs
            .iter()
            .skip(1)
            .take_while(|c| (c.eigenvalue - lambda2).abs() < 1e-12)
            .map(|c| c.amplitude * c.amplitude)
            .sum::<f64>()
            .sqrt();
        let leading = leading.expect("non-degenerate load");
        writeln!(
            w,
            "{},{second_group},{},{},{},{},{}",
            sim.round(),
            leading.amplitude,
            leading.rank,
            leading.p,
            leading.q,
            leading.eigenvalue
        )
        .expect("row");
    };
    let runs = run_figure(&opts, &graph, &series, &outputs, &[], Some(&mut hook));
    w.flush().expect("flush csv");
    println!("fig07_coefficients: {rounds} rows -> {}", fig07.display());

    let rows: Vec<String> = outputs[FOS500]
        .1
        .rows(&runs)
        .iter()
        .zip(&fos500_leading)
        .map(|(r, (amplitude, rank))| {
            let m = &r.metrics;
            format!(
                "{},{},{},{},{amplitude},{rank}",
                r.round, m.max_minus_avg, m.max_local_diff, m.potential_over_n
            )
        })
        .collect();
    let fig15 = opts.path("fig15_overlay");
    write_table(
        &fig15,
        "round,max_minus_avg,max_local_diff,potential_over_n,max_amplitude,leading_rank",
        &rows,
    );
    println!("fig15_overlay: {} rows -> {}", rows.len(), fig15.display());

    let local = runs.last().expect("the local-trigger run");
    println!("  local trigger fired at {:?}", local.report.switch_round);
    println!();
    println!("expected shape (paper): from ~round 100 to ~700 the leading");
    println!("coefficient belongs to the second eigenvalue group (a4) and");
    println!("decays exponentially; after ~700 no single eigenvector leads.");
    println!("Every switch produces a sharp drop in max-avg; once the leading");
    println!("eigenvector's impact has faded, later switches give no further");
    println!("advantage, and the switch at 500 pulls the metrics below the");
    println!("pure-SOS plateau.");
}
