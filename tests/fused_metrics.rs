//! The fused in-loop metrics reduction equals a from-scratch recompute —
//! **bit for bit** — for every scheme, both modes, and every thread
//! count.
//!
//! `Simulator::round_metrics()` is assembled from the `LoadStats` the
//! apply kernels reduce while applying flows (plus shared per-block
//! squared-deviation partials folded in block order);
//! `Simulator::metrics()` recomputes the same snapshot from scratch with
//! an `O(n + m)` sweep. Three design choices make exact equality hold
//! everywhere, and these tests pin all three:
//!
//! * deviations are measured against the **conserved initial total** on
//!   both paths, so the balanced load `x̄_i = T·s_i/S` is the same bits;
//! * min/max fields reduce through the same compare-and-assign updates,
//!   which are order-insensitive for the merge grouping the pool uses;
//! * the potential `Σ dev²` is summed per `metrics::DEV_BLOCK`-node
//!   block with block partials folded in block order — the sequential
//!   executor, every (block-aligned) pooled chunking, and the
//!   from-scratch sweep all group the sum identically.

use sodiff::graph::generators;
use sodiff::prelude::*;

/// All five schemes at fixed, valid parameters.
fn schemes() -> Vec<Scheme> {
    vec![
        Scheme::fos(),
        Scheme::sos(1.7),
        Scheme::dimension_exchange(0.9),
        Scheme::matching_round_robin(1.0),
        Scheme::matching_random(11, 0.8),
    ]
}

fn assert_fused_matches_scratch(sim: &Simulator<'_>, context: &str) {
    let fused = sim
        .round_metrics()
        .expect("round_metrics is Some after a step");
    let scratch = sim.metrics();
    assert_eq!(
        fused, scratch,
        "{context}: fused snapshot diverged from the from-scratch recompute"
    );
}

/// 5 schemes × 2 modes × thread counts {1, 2, 3, 5}: the fused snapshot
/// equals the recompute after every round of a short run, exactly.
#[test]
fn fused_snapshot_equals_recompute_all_schemes_modes_threads() {
    let g = generators::torus2d(9, 7); // odd sizes exercise block-aligned chunking
    let n = g.node_count();
    for scheme in schemes() {
        for discrete in [true, false] {
            for threads in [1usize, 2, 3, 5] {
                let builder = Experiment::on(&g);
                let builder = if discrete {
                    builder.discrete(Rounding::randomized(5))
                } else {
                    builder.continuous()
                };
                let mut sim = builder
                    .scheme(scheme)
                    .threads(threads)
                    .init(InitialLoad::point(0, (n * 100) as i64))
                    .build()
                    .unwrap()
                    .simulator();
                assert!(
                    sim.round_metrics().is_none(),
                    "no fused stats before the first round"
                );
                for round in 0..12 {
                    sim.step();
                    assert_fused_matches_scratch(
                        &sim,
                        &format!("{scheme:?} discrete={discrete} threads={threads} round={round}"),
                    );
                }
            }
        }
    }
}

/// Heterogeneous speeds: the ideal table is speed-proportional, so this
/// exercises per-node ideals rather than one shared average.
#[test]
fn fused_snapshot_matches_under_heterogeneous_speeds() {
    let g = generators::random_regular(60, 4, 2).unwrap();
    for threads in [1usize, 4] {
        let mut sim = Experiment::on(&g)
            .discrete(Rounding::unbiased_edge(3))
            .sos(1.6)
            .speeds(Speeds::linear_ramp(60, 5.0))
            .threads(threads)
            .init(InitialLoad::point(0, 60_000))
            .build()
            .unwrap()
            .simulator();
        for round in 0..30 {
            sim.step();
            assert_fused_matches_scratch(&sim, &format!("het threads={threads} round={round}"));
        }
    }
}

/// The run loop consumes the fused statistics: a report's final metrics
/// must equal the recompute at loop exit on every stop path — including
/// `MaxRounds`, which used to fall back to a post-run `metrics()` sweep.
#[test]
fn run_reports_carry_fused_final_metrics_on_every_stop_path() {
    let g = generators::torus2d(8, 8);
    let run = |condition| {
        let mut sim = Experiment::on(&g)
            .discrete(Rounding::randomized(9))
            .sos(1.8)
            .init(InitialLoad::point(0, 6400))
            .build()
            .unwrap()
            .simulator();
        let report = sim.run_until(condition);
        assert_eq!(
            report.final_metrics,
            sim.metrics(),
            "{condition:?}: final report diverged from the recompute"
        );
        report
    };
    let max_rounds = run(StopCondition::MaxRounds(120));
    assert_eq!(max_rounds.reason, StopReason::MaxRounds);
    let threshold = run(StopCondition::BalancedWithin {
        threshold: 5.0,
        max_rounds: 5000,
    });
    assert_eq!(threshold.reason, StopReason::Threshold);
    let plateau = run(StopCondition::Plateau {
        window: 40,
        max_rounds: 5000,
    });
    assert_eq!(plateau.reason, StopReason::Plateau);
}

/// Pooled and sequential runs produce bit-identical reports even for
/// metric-bearing stop conditions — the block-folded potential is what
/// makes this hold.
#[test]
fn threshold_reports_bit_identical_across_thread_counts() {
    let g = generators::torus2d(9, 7);
    let run = |threads: usize| {
        let mut sim = Experiment::on(&g)
            .discrete(Rounding::randomized(13))
            .sos(1.7)
            .threads(threads)
            .init(InitialLoad::point(0, 6300))
            .build()
            .unwrap()
            .simulator();
        sim.run_until(StopCondition::BalancedWithin {
            threshold: 4.0,
            max_rounds: 4000,
        })
    };
    let seq = run(1);
    for threads in [2, 3, 5] {
        assert_eq!(seq, run(threads), "{threads} threads");
    }
}

/// Records every round twice: through a `Recorder` (the fused snapshot)
/// and as the from-scratch `metrics()`, the way `Recorder` did before it
/// switched to the fused snapshot.
struct ScratchRecorder {
    rec: Recorder,
    scratch: Vec<(u64, MetricsSnapshot)>,
}

impl Observer for ScratchRecorder {
    fn on_round(&mut self, sim: &Simulator<'_>) {
        self.rec.on_round(sim);
        self.scratch.push((sim.round(), sim.metrics()));
    }
}

/// `Recorder` rows carry the fused `round_metrics()` snapshot; it must
/// agree with the from-scratch recompute bit for bit on every row — on
/// the sequential executor and on the pool, with the perturbation axes
/// (which move load on the control thread) switched on too.
#[test]
fn recorder_rows_match_from_scratch_metrics() {
    let specs = [
        "topology=torus2d:9:7 scheme=sos:1.7 rounding=randomized seed=3 init=point:0:63000",
        "topology=torus2d:9:7 scheme=sos:1.7 mode=continuous init=point:0:63000",
        "topology=hypercube:6 scheme=matching:random:7:1 rounding=nearest init=point:0:6400 \
         faults=crash:0.1:7+shock:0.25:3 load=poisson:2:42",
        "topology=torus2d:8:8 scheme=sos:1.6 rounding=nearest init=point:0:6400 \
         churn=flux:0.08:0.3:9:25",
    ];
    for body in specs {
        for threads in [1usize, 2, 3] {
            let spec: ScenarioSpec = format!("name=rec {body} threads={threads} stop=rounds:40")
                .parse()
                .unwrap();
            let graph = spec.build_graph().unwrap();
            let experiment = spec.experiment_on(&graph).unwrap();
            let mut sim = experiment.simulator();
            let mut both = ScratchRecorder {
                rec: Recorder::new(),
                scratch: Vec::new(),
            };
            sim.run_until_with(StopCondition::MaxRounds(40), &mut both);
            assert_eq!(both.rec.rows().len(), 40);
            for (row, (round, metrics)) in both.rec.rows().iter().zip(&both.scratch) {
                assert_eq!(row.round, *round);
                let bits = |m: &MetricsSnapshot| {
                    [
                        m.max_minus_avg,
                        m.min_minus_avg,
                        m.max_local_diff,
                        m.potential_over_n,
                        m.min_load,
                    ]
                    .map(f64::to_bits)
                };
                assert_eq!(
                    bits(&row.metrics),
                    bits(metrics),
                    "{body} t{threads} round {round}"
                );
            }
        }
    }
}
