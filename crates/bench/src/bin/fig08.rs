//! Figure 8: effect of the switch round on a 100×100 torus. Pure SOS plus
//! hybrids switching to FOS after 300, 500, 700, and 900 rounds; all runs
//! record max−avg (and friends) for 1000 rounds. Two more series put the
//! switch rounds in context: pure FOS, and the hybrid whose local trigger
//! switches once the max local load difference is at most 20 tokens, a
//! rule that needs no global knowledge.

use sodiff_bench::{run_figure, Cut, ExpOpts, Series};
use sodiff_core::prelude::*;
use sodiff_graph::generators;
use sodiff_linalg::spectral;

fn main() {
    let opts = ExpOpts::from_args();
    let side: usize = 100; // paper scale
    let rounds = 1000u64;
    let graph = generators::torus2d(side, side);
    let n = graph.node_count();
    let beta = spectral::analyze(&graph, &Speeds::uniform(n)).beta_opt();
    println!("Figure 8: torus {side}x{side}, switch-round sweep, horizon {rounds}");

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
    let runs = run_figure(&opts, &graph, &series, &outputs, &[]);
    let local = runs.last().expect("the local-trigger run");
    println!("  local trigger fired at {:?}", local.report.switch_round);

    println!();
    println!("expected shape (paper): every switch produces a sharp drop in");
    println!("max-avg; once the leading eigenvector's impact has faded");
    println!("(~round 700), later switches give no further advantage.");
}
