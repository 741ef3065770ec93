//! Figures 1–6 on the 2-D torus (paper: 1000×1000, 5000 rounds; default
//! here: 256×256, rounds and switch points scaled with the side). Each
//! distinct simulation runs once and feeds every CSV that plots it.
//!
//! * Figure 1: SOS max−avg, max local difference and potential φ_t/n,
//!   with FOS max−avg as the comparison. The SOS potential decays
//!   exponentially and plateaus; max−avg jumps when the wavefronts
//!   collapse at the torus center (about every 1200–1300 rounds at side
//!   1000, scaling with the side); FOS decays much slower.
//! * Figure 2: average loads 10, 100 and 1000 per node, all on node 0.
//!   The curves differ by a constant offset during the decay and
//!   coincide after convergence: the remaining imbalance does not depend
//!   on the load volume.
//! * Figure 3: SOS vs FOS, discrete (randomized rounding) and idealized.
//!   Both pairs coincide during the decay; the idealized runs keep
//!   decaying towards 0 while the discrete ones flatten.
//! * Figures 4 and 5: the SOS→FOS switch after 2500 and 3000 rounds
//!   (≈2.5·side and 3·side), with pure SOS as the baseline, up to round
//!   3500. After the switch the local and global differences drop
//!   sharply (max local difference to about 4 and max−avg to about 7 at
//!   side 1000; small tori go lower). Figure 5 merges the three max−avg
//!   columns; both hybrids end clearly below pure SOS.
//! * Figure 6: idealized (IEEE-754 doubles) vs randomized-rounding SOS,
//!   and the absolute error of the idealized run's total load, which
//!   stays negligible (about 1e-8 to 1e-4 tokens).

use sodiff_bench::{run_figure, stride_for, write_table, Cut, ExpOpts, Series};
use sodiff_core::prelude::*;
use sodiff_graph::generators;
use sodiff_linalg::spectral;

// The distinct runs, as indices into the series table below.
const SOS: usize = 0;
const FOS: usize = 1;
const IDEAL_SOS: usize = 2;
const IDEAL_FOS: usize = 3;
const AVG10: usize = 4;
const AVG100: usize = 5;
const SWITCH_A: usize = 6;
const SWITCH_B: usize = 7;

fn main() {
    let opts = ExpOpts::from_args();
    let side: usize = opts.scale(256, 1000);
    let rounds = 5 * side as u64;
    let graph = generators::torus2d(side, side);
    let n = graph.node_count();
    let beta = spectral::analyze(&graph, &Speeds::uniform(n)).beta_opt();
    let scale = side as f64 / 1000.0;
    let switch_a = (2500.0 * scale) as u64;
    let switch_b = (3000.0 * scale) as u64;
    let horizon = (3500.0 * scale) as u64;
    println!(
        "Figures 1-6: torus {side}x{side}, beta = {beta:.8}, {rounds} rounds; \
         switches at {switch_a} and {switch_b}, horizon {horizon}"
    );

    let paper = |scheme, switch| Series::paper(scheme, opts.seed, n, switch);
    let ideal = |scheme| Series {
        mode: Mode::Continuous,
        ..paper(scheme, None)
    };
    let average = |avg: i64| Series {
        init: InitialLoad::point(0, avg * n as i64),
        ..paper(Scheme::sos(beta), None)
    };
    let series = [
        paper(Scheme::sos(beta), None),
        paper(Scheme::fos(), None),
        ideal(Scheme::sos(beta)),
        ideal(Scheme::fos()),
        average(10),
        average(100),
        paper(Scheme::sos(beta), Some(SwitchPolicy::AtRound(switch_a))),
        paper(Scheme::sos(beta), Some(SwitchPolicy::AtRound(switch_b))),
    ];

    let all = |series| Cut {
        series,
        horizon: rounds,
        stride: stride_for(rounds, 1000),
    };
    let switching = |series| Cut {
        series,
        horizon,
        stride: stride_for(horizon, 1400),
    };
    let fig04_a = format!("fig04_switch{switch_a}");
    let fig04_b = format!("fig04_switch{switch_b}");
    let outputs = [
        ("fig01_sos", all(SOS)),
        ("fig01_fos", all(FOS)),
        ("fig02_avg10", all(AVG10)),
        ("fig02_avg100", all(AVG100)),
        ("fig02_avg1000", all(SOS)),
        ("fig03_discrete_sos", all(SOS)),
        ("fig03_discrete_fos", all(FOS)),
        ("fig03_ideal_sos", all(IDEAL_SOS)),
        ("fig03_ideal_fos", all(IDEAL_FOS)),
        ("fig04_sos_only", switching(SOS)),
        (fig04_a.as_str(), switching(SWITCH_A)),
        (fig04_b.as_str(), switching(SWITCH_B)),
        ("fig06_discrete", all(SOS)),
        ("fig06_ideal", all(IDEAL_SOS)),
    ];
    // Figure 5 reads every round of the three switching runs.
    let comparison = [SOS, SWITCH_A, SWITCH_B].map(|series| Cut {
        series,
        horizon,
        stride: 1,
    });
    let runs = run_figure(&opts, &graph, &series, &outputs, &comparison, None);
    for (&switch, run) in [switch_a, switch_b].iter().zip(&runs[SWITCH_A..]) {
        println!(
            "  switch at {switch}: fired at {:?}, final max-avg {:.1}, local diff {:.1}",
            run.report.switch_round,
            run.report.final_metrics.max_minus_avg,
            run.report.final_metrics.max_local_diff
        );
    }

    // Figure 5: every fifth round, and every round from just before the
    // first switch.
    let [sos, a, b] = comparison.map(|cut| cut.rows(&runs));
    let rows: Vec<String> = sos
        .iter()
        .zip(&a)
        .zip(&b)
        .filter(|((sos, _), _)| sos.round % 5 == 0 || sos.round > switch_a.saturating_sub(20))
        .map(|((sos, a), b)| {
            let [s, a, b] = [sos, a, b].map(|r| r.metrics.max_minus_avg);
            format!("{},{s},{a},{b}", sos.round)
        })
        .collect();
    let header = format!("round,sos_max_avg,switch{switch_a}_max_avg,switch{switch_b}_max_avg");
    write_table(&opts.path("fig05_comparison"), &header, &rows);

    // Figure 6: the idealized run's total-load drift.
    let initial = series[IDEAL_SOS].init.total(n) as f64;
    let rows: Vec<String> = all(IDEAL_SOS)
        .rows(&runs)
        .iter()
        .map(|r| format!("{},{:e}", r.round, (r.total_load - initial).abs()))
        .collect();
    write_table(
        &opts.path("fig06_float_error"),
        "round,abs_total_load_error",
        &rows,
    );
    if let Some(last) = rows.last() {
        println!("fig06_float_error: last row {last}");
    }
}
