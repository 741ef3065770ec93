//! Cross-crate integration: hybrid switch triggers, including the
//! eigenvector-coefficient trigger the paper discusses (Section VI), and
//! the parallel executor running a full experiment.

use sodiff::core::prelude::*;
use sodiff::graph::generators;
use sodiff::linalg::fourier::TorusModes;
use sodiff::linalg::spectral;

struct Null;
impl Observer for Null {
    fn on_round(&mut self, _: &Simulator<'_>) {}
}

/// The paper: "It seems reasonable to switch from SOS to FOS once the
/// impact of the leading eigenvector drops below some threshold" (a
/// global-knowledge strategy). Implemented via the Fourier eigenbasis.
#[test]
fn eigenvector_coefficient_trigger() {
    let side = 20;
    let g = generators::torus2d(side, side);
    let n = g.node_count();
    let beta = spectral::analyze(&g, &Speeds::uniform(n)).beta_opt();
    let modes = TorusModes::new(side, side);
    let mut sim = Experiment::on(&g)
        .discrete(Rounding::randomized(3))
        .sos(beta)
        .init(InitialLoad::paper_default(n))
        .build()
        .unwrap()
        .simulator();
    let mut loads = vec![0.0; n];
    let report = sim.run_when(
        |sim| {
            for (i, l) in loads.iter_mut().enumerate() {
                *l = sim.load_of(i);
            }
            let coeffs = modes.coefficients(&loads);
            TorusModes::leading(&coeffs)
                .map(|lead| lead.amplitude < 50.0)
                .unwrap_or(true)
        },
        StopCondition::MaxRounds(600),
        &mut Null,
    );
    let switch = report.switch_round.expect("trigger should fire");
    assert!(
        switch > 5,
        "needs some SOS rounds first, switched at {switch}"
    );
    let final_imbalance = sim.metrics().max_minus_avg;
    assert!(
        final_imbalance <= 6.0,
        "eigen-triggered hybrid should balance well, got {final_imbalance}"
    );
}

/// The local-difference trigger (distributed-friendly) ends at the same
/// quality as the fixed-round switch on the same instance.
#[test]
fn local_trigger_matches_fixed_switch_quality() {
    let g = generators::torus2d(16, 16);
    let n = g.node_count();
    let beta = spectral::analyze(&g, &Speeds::uniform(n)).beta_opt();
    let exp = Experiment::on(&g)
        .discrete(Rounding::randomized(9))
        .sos(beta)
        .init(InitialLoad::paper_default(n))
        .build()
        .unwrap();
    let mut fixed = exp.simulator();
    fixed.run_hybrid(SwitchPolicy::AtRound(200), StopCondition::MaxRounds(500));
    let mut local = exp.simulator();
    let report = local.run_hybrid(
        SwitchPolicy::MaxLocalDiffBelow(20.0),
        StopCondition::MaxRounds(500),
    );
    assert!(report.switch_round.is_some());
    let (f, l) = (fixed.metrics().max_minus_avg, local.metrics().max_minus_avg);
    assert!(
        (f - l).abs() <= 3.0,
        "fixed-switch {f} vs local-trigger {l} should end comparably"
    );
}

/// A full hybrid experiment on the parallel executor matches the
/// sequential one exactly, including the switch round.
#[test]
fn parallel_hybrid_is_identical() {
    let g = generators::torus2d(12, 12);
    let n = g.node_count();
    let beta = spectral::analyze(&g, &Speeds::uniform(n)).beta_opt();
    let run = |threads: usize| {
        let mut sim = Experiment::on(&g)
            .discrete(Rounding::randomized(4))
            .sos(beta)
            .threads(threads)
            .init(InitialLoad::paper_default(n))
            .build()
            .unwrap()
            .simulator();
        let report = sim.run_hybrid(
            SwitchPolicy::MaxLocalDiffBelow(25.0),
            StopCondition::MaxRounds(400),
        );
        (report.switch_round, sim.loads_i64().unwrap().to_vec())
    };
    let (seq_switch, seq_loads) = run(1);
    let (par_switch, par_loads) = run(3);
    assert_eq!(seq_switch, par_switch);
    assert_eq!(seq_loads, par_loads);
}

/// Deviation measurement through the umbrella crate: coupled runs on a
/// heterogeneous hypercube with threads enabled.
#[test]
fn parallel_coupled_deviation() {
    let g = generators::hypercube(8);
    let speeds = Speeds::two_class(256, 32, 4.0);
    let series = Experiment::on(&g)
        .discrete(Rounding::randomized(6))
        .speeds(speeds)
        .threads(2)
        .init(InitialLoad::point(0, 256_000))
        .build()
        .unwrap()
        .coupled_deviation(150)
        .unwrap();
    assert_eq!(series.per_round.len(), 150);
    assert!(series.max() < 100.0, "deviation {}", series.max());
}

/// Checks `coupled_deviation` on the discrete experiment `exp` against
/// its continuous twin `twin`: the discrete run ends where `run()` ends,
/// and each round's deviation is the one between a discrete and a
/// continuous process stepped by hand that both switch to FOS after the
/// round `run()` recorded as its switch. Returns that report.
fn assert_coupled_matches_run(
    exp: &Experiment<'_>,
    twin: &Experiment<'_>,
    rounds: u64,
) -> RunReport {
    let series = exp.coupled_deviation(rounds as usize).unwrap();
    let report = exp.run();
    assert_eq!(report.rounds, rounds);
    let bits = |m: &MetricsSnapshot| {
        let (lo, diff) = (m.min_minus_avg, m.max_local_diff);
        [m.max_minus_avg, lo, diff, m.potential_over_n, m.min_load].map(f64::to_bits)
    };
    assert_eq!(bits(&series.final_metrics), bits(&report.final_metrics));
    let (mut d, mut c) = (exp.simulator(), twin.simulator());
    let mut per_round = Vec::new();
    for round in 0..rounds {
        if report.switch_round == Some(round) {
            d.switch_scheme(Scheme::fos());
            c.switch_scheme(Scheme::fos());
        }
        d.step();
        c.step();
        per_round.push(d.deviation_from(&c));
    }
    assert_eq!(series.per_round, per_round);
    assert_eq!(
        series.min_transient.to_bits(),
        d.min_transient_load().to_bits()
    );
    report
}

/// `coupled_deviation` runs both processes under the experiment's hybrid
/// policy, which switches both to FOS before round 11.
#[test]
fn coupled_deviation_follows_the_hybrid_switch() {
    let g = generators::torus2d(12, 12);
    let n = g.node_count();
    let (switch, rounds) = (10, 60);
    let build = |discrete: bool| {
        let b = Experiment::on(&g);
        let b = if discrete {
            b.discrete(Rounding::randomized(4))
        } else {
            b.continuous()
        };
        b.sos(1.8)
            .init(InitialLoad::paper_default(n))
            .hybrid(SwitchPolicy::AtRound(switch))
            .stop(StopCondition::MaxRounds(rounds))
            .build()
            .unwrap()
    };
    let report = assert_coupled_matches_run(&build(true), &build(false), rounds as u64);
    assert_eq!(report.switch_round, Some(switch));
    assert!(!report.degraded);
}

/// `coupled_deviation` also follows the divergence watchdog, which
/// records its SOS→FOS switch after the round that tripped it (not
/// before the next one, as a policy does): a load shock on a balanced
/// cycle degrades a run with no hybrid policy.
#[test]
fn coupled_deviation_follows_the_watchdog_switch() {
    let g = generators::cycle(16);
    let rounds = 400;
    let build = |discrete: bool| {
        let b = Experiment::on(&g);
        let b = if discrete {
            b.discrete(Rounding::nearest())
        } else {
            b.continuous()
        };
        b.sos(1.9)
            .init(InitialLoad::EqualPerNode(1000))
            .faults(FaultSpec::none().with_shock(0.02, 40))
            .stop(StopCondition::MaxRounds(rounds))
            .build()
            .unwrap()
    };
    let report = assert_coupled_matches_run(&build(true), &build(false), rounds as u64);
    assert!(report.degraded, "watchdog missed the deviation burst");
    assert!(report.switch_round.is_some_and(|s| s < rounds as u64));
}
