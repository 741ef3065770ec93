//! Ablation: thread scaling of the round executor (the paper's simulator
//! used OpenMP on a 4-core i7). Measures rounds/second of discrete SOS on
//! a large torus for increasing thread counts and verifies the runs are
//! bit-identical. The CSV holds only what a run determines (threads,
//! rounds, loads checksum), so two runs write the same bytes; the timings
//! go to stdout.

use std::time::Instant;

use sodiff_bench::ExpOpts;
use sodiff_core::prelude::*;
use sodiff_graph::generators;
use sodiff_linalg::spectral;

fn main() {
    let opts = ExpOpts::from_args();
    let side: usize = opts.scale(512, 1000);
    let rounds = opts.scale(60usize, 200);
    let graph = generators::torus2d(side, side);
    let n = graph.node_count();
    let beta = spectral::analyze(&graph, &Speeds::uniform(n)).beta_opt();
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(4);
    println!(
        "Thread scaling: torus {side}x{side} ({} edges), {rounds} rounds, {cores} cores",
        graph.edge_count()
    );
    println!(
        "{:>8} {:>12} {:>12} {:>10} {:>14}",
        "threads", "seconds", "rounds/s", "speedup", "loads checksum"
    );

    let mut baseline = None;
    let mut reference: Option<Vec<i64>> = None;
    let mut rows = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        if threads > 2 * cores {
            break;
        }
        let mut sim = Experiment::on(&graph)
            .discrete(Rounding::randomized(opts.seed))
            .sos(beta)
            .threads(threads)
            .init(InitialLoad::paper_default(n))
            .build()
            .expect("valid experiment")
            .simulator();
        let start = Instant::now();
        sim.run_until(StopCondition::MaxRounds(rounds));
        let secs = start.elapsed().as_secs_f64();
        let rps = rounds as f64 / secs;
        let speedup = baseline.map(|b: f64| secs_ratio(b, secs)).unwrap_or(1.0);
        if baseline.is_none() {
            baseline = Some(secs);
        }
        let loads = sim.loads_i64().expect("discrete").to_vec();
        let checksum: i64 = loads
            .iter()
            .enumerate()
            .map(|(i, &x)| x.wrapping_mul(i as i64 | 1))
            .fold(0i64, |a, b| a.wrapping_add(b));
        match &reference {
            None => reference = Some(loads),
            Some(r) => assert_eq!(r, &loads, "parallel run diverged at {threads} threads"),
        }
        println!("{threads:>8} {secs:>12.3} {rps:>12.1} {speedup:>10.2} {checksum:>14}");
        rows.push(format!("{threads},{rounds},{checksum}"));
    }
    sodiff_bench::write_table(
        &opts.path("ablation_threads"),
        "threads,rounds,loads_checksum",
        &rows,
    );
    println!("\nwrote {}", opts.path("ablation_threads").display());
    println!("all thread counts produced bit-identical load vectors.");
}

fn secs_ratio(baseline: f64, now: f64) -> f64 {
    baseline / now
}
