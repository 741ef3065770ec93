//! End-to-end behavior of the pairwise schemes opened by the
//! scheme-kernel layer: dimension exchange over edge colorings and
//! matching-based balancing, across modes, roundings, the builder, the
//! scenario format, and the batch driver.

use sodiff::graph::generators;
use sodiff::prelude::*;
use sodiff::ScenarioSpec;

#[test]
fn dimension_exchange_balances_torus() {
    let g = generators::torus2d(8, 8);
    let mut sim = Experiment::on(&g)
        .discrete(Rounding::nearest())
        .scheme(Scheme::dimension_exchange(1.0))
        .init(InitialLoad::point(0, 6400))
        .build()
        .unwrap()
        .simulator();
    let report = sim.run_until(StopCondition::MaxRounds(800));
    assert!(
        report.final_metrics.max_minus_avg <= 4.0,
        "DE should balance the torus, max−avg = {}",
        report.final_metrics.max_minus_avg
    );
    assert_eq!(sim.total_load(), 6400.0, "tokens conserved");
}

#[test]
fn matching_schemes_balance_and_conserve() {
    let g = generators::torus2d(6, 6);
    for scheme in [
        Scheme::matching_round_robin(1.0),
        Scheme::matching_random(11, 1.0),
    ] {
        let mut sim = Experiment::on(&g)
            .discrete(Rounding::nearest())
            .scheme(scheme)
            .init(InitialLoad::point(0, 3600))
            .build()
            .unwrap()
            .simulator();
        let report = sim.run_until(StopCondition::MaxRounds(1200));
        assert!(
            report.final_metrics.max_minus_avg <= 6.0,
            "{scheme} should balance, max−avg = {}",
            report.final_metrics.max_minus_avg
        );
        assert_eq!(sim.total_load(), 3600.0, "{scheme} conserves tokens");
    }
}

#[test]
fn continuous_de_is_exact_pairwise_averaging() {
    // One active edge with λ = 1 averages its endpoints exactly.
    let g = generators::path(2);
    let mut sim = Experiment::on(&g)
        .continuous()
        .scheme(Scheme::dimension_exchange(1.0))
        .init(InitialLoad::point(0, 40))
        .build()
        .unwrap()
        .simulator();
    sim.step();
    assert_eq!(sim.loads_f64().unwrap(), &[20.0, 20.0][..]);
}

#[test]
fn heterogeneous_de_balances_proportionally_to_speeds() {
    // (s_0, s_1) = (1, 3): the pairwise quantum moves loads straight to
    // the speed-proportional split.
    let g = generators::path(2);
    let mut sim = Experiment::on(&g)
        .continuous()
        .scheme(Scheme::dimension_exchange(1.0))
        .speeds(Speeds::new(vec![1.0, 3.0]))
        .init(InitialLoad::point(0, 40))
        .build()
        .unwrap()
        .simulator();
    sim.step();
    assert_eq!(sim.loads_f64().unwrap(), &[10.0, 30.0][..]);
}

#[test]
fn de_under_randomized_framework_conserves() {
    let g = generators::torus2d(5, 5);
    let mut sim = Experiment::on(&g)
        .discrete(Rounding::randomized(3))
        .scheme(Scheme::dimension_exchange(0.9))
        .init(InitialLoad::point(0, 2500))
        .build()
        .unwrap()
        .simulator();
    sim.run_until(StopCondition::MaxRounds(600));
    assert_eq!(sim.total_load(), 2500.0);
}

#[test]
fn de_sweeps_every_edge_once_per_coloring_cycle() {
    // On an even torus (4 color classes) 4 consecutive rounds touch every
    // edge exactly once: after one sweep from a balanced-but-offset start
    // every node has exchanged with all 4 neighbors.
    let g = generators::torus2d(4, 4);
    let mut sim = Experiment::on(&g)
        .discrete(Rounding::round_down())
        .scheme(Scheme::dimension_exchange(1.0))
        .init(InitialLoad::EqualPerNode(10))
        .build()
        .unwrap()
        .simulator();
    for _ in 0..4 {
        sim.step();
    }
    // Balanced start stays balanced through a full sweep.
    assert_eq!(sim.loads_i64().unwrap(), &[10i64; 16][..]);
}

#[test]
fn builder_rejects_bad_pairwise_configs() {
    let g = generators::cycle(6);
    // λ out of range.
    let err = Experiment::on(&g)
        .discrete(Rounding::nearest())
        .scheme(Scheme::dimension_exchange(0.0))
        .build()
        .unwrap_err();
    assert!(matches!(err, BuildError::InvalidLambda(_)), "{err}");
    let err = Experiment::on(&g)
        .discrete(Rounding::nearest())
        .scheme(Scheme::matching_round_robin(1.5))
        .build()
        .unwrap_err();
    assert!(matches!(err, BuildError::InvalidLambda(_)), "{err}");
    // Pairwise schemes need edges.
    let single = generators::path(1);
    let err = Experiment::on(&single)
        .discrete(Rounding::nearest())
        .scheme(Scheme::dimension_exchange(1.0))
        .build()
        .unwrap_err();
    assert!(matches!(err, BuildError::NoColoring(_)), "{err}");
    let err = Experiment::on(&single)
        .discrete(Rounding::nearest())
        .scheme(Scheme::matching_random(1, 1.0))
        .build()
        .unwrap_err();
    assert!(matches!(err, BuildError::NoMatching(_)), "{err}");
    // The SOS→FOS hybrid switch has no meaning for pairwise schemes.
    let err = Experiment::on(&g)
        .discrete(Rounding::nearest())
        .scheme(Scheme::matching_round_robin(1.0))
        .hybrid(SwitchPolicy::AtRound(10))
        .build()
        .unwrap_err();
    assert!(
        matches!(err, BuildError::HybridRequiresDiffusion(_)),
        "{err}"
    );
}

#[test]
#[should_panic(expected = "diffusion family")]
fn switch_scheme_rejects_family_changes() {
    let g = generators::cycle(6);
    let mut sim = Experiment::on(&g)
        .discrete(Rounding::nearest())
        .scheme(Scheme::dimension_exchange(1.0))
        .build()
        .unwrap()
        .simulator();
    sim.switch_scheme(Scheme::fos());
}

#[test]
fn scenario_specs_run_de_and_matching_end_to_end() {
    let specs = ScenarioSpec::parse_many(
        "name=de topology=torus2d:8:8 scheme=de:1 mode=discrete rounding=nearest \
         init=point:0:6400 stop=rounds:400\n\
         name=mrr topology=torus2d:8:8 scheme=matching:rr:1 mode=discrete rounding=nearest \
         init=point:0:6400 stop=rounds:400\n\
         name=mrand topology=torus2d:8:8 scheme=matching:random:7:0.9 mode=discrete \
         rounding=nearest init=point:0:6400 stop=rounds:400\n",
    )
    .unwrap();
    let batch = Driver::new().run_batch(&specs);
    assert!(batch.errors.is_empty());
    assert_eq!(batch.scenarios.len(), 3);
    for s in &batch.scenarios {
        assert!(
            s.report.final_metrics.max_minus_avg < 200.0,
            "{}: imbalance {}",
            s.name,
            s.report.final_metrics.max_minus_avg
        );
        // The driver's canonical spec text round-trips.
        let reparsed: ScenarioSpec = s.spec.parse().unwrap();
        assert_eq!(reparsed.to_string(), s.spec);
    }
    // Pooled and concurrent drivers reproduce the sequential reports.
    let pooled = Driver::with_threads(3).unwrap().run_batch(&specs);
    let concurrent = Driver::concurrent(2).unwrap().run_batch(&specs);
    for ((seq, pl), cc) in batch
        .scenarios
        .iter()
        .zip(&pooled.scenarios)
        .zip(&concurrent.scenarios)
    {
        assert_eq!(seq.report, pl.report, "{} pooled", seq.name);
        assert_eq!(seq.report, cc.report, "{} concurrent", seq.name);
    }
}

#[test]
fn coupled_deviation_works_for_pairwise_schemes() {
    let g = generators::torus2d(6, 6);
    let exp = Experiment::on(&g)
        .discrete(Rounding::nearest())
        .scheme(Scheme::dimension_exchange(1.0))
        .init(InitialLoad::point(0, 3600))
        .build()
        .unwrap();
    let series = exp.coupled_deviation(60).unwrap();
    assert_eq!(series.per_round.len(), 60);
    // Deterministic nearest rounding keeps the discrete run close to its
    // continuous twin.
    assert!(series.per_round.iter().all(|&d| d < 30.0));
}

#[test]
fn matching_random_is_deterministic_per_seed() {
    let g = generators::torus2d(6, 6);
    let run = |seed: u64| {
        let mut sim = Experiment::on(&g)
            .discrete(Rounding::nearest())
            .scheme(Scheme::matching_random(seed, 1.0))
            .init(InitialLoad::point(0, 3600))
            .build()
            .unwrap()
            .simulator();
        sim.run_until(StopCondition::MaxRounds(120));
        sim.loads_i64().unwrap().to_vec()
    };
    assert_eq!(run(4), run(4));
    assert_ne!(run(4), run(5), "different matching seeds should diverge");
}
