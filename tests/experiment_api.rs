//! Workspace-level tests of the unified experiment API: every invalid
//! configuration path returns the right `BuildError` variant instead of
//! panicking, and scenario files through the batch `Driver` are
//! bit-identical to hand-built simulators.

use sodiff::graph::{generators, GraphBuilder};
use sodiff::linalg::spectral;
use sodiff::prelude::*;
use sodiff::{BuildError, Driver, ScenarioFailure};

#[test]
fn invalid_beta_returns_build_error() {
    let g = generators::torus2d(4, 4);
    for beta in [-0.5, 0.0, 2.0, 2.5] {
        let err = Experiment::on(&g)
            .discrete(Rounding::nearest())
            .sos(beta)
            .build()
            .unwrap_err();
        assert_eq!(err, BuildError::InvalidBeta(beta));
    }
    // The boundary of the open interval (0, 2) is valid just inside.
    assert!(Experiment::on(&g)
        .discrete(Rounding::nearest())
        .sos(1.999_999)
        .build()
        .is_ok());
}

#[test]
fn speeds_length_mismatch_returns_build_error() {
    let g = generators::torus2d(4, 4);
    let err = Experiment::on(&g)
        .continuous()
        .speeds(Speeds::uniform(15))
        .build()
        .unwrap_err();
    assert_eq!(
        err,
        BuildError::SpeedsLengthMismatch {
            expected: 16,
            got: 15
        }
    );
}

#[test]
fn empty_graph_returns_build_error() {
    let g = GraphBuilder::new(0).build();
    let err = Experiment::on(&g)
        .discrete(Rounding::round_down())
        .build()
        .unwrap_err();
    assert_eq!(err, BuildError::EmptyGraph);
}

#[test]
fn randomized_rounding_without_seed_returns_build_error() {
    for spec in [RoundingSpec::Randomized, RoundingSpec::UnbiasedEdge] {
        let err = spec.seeded(None).unwrap_err();
        assert!(
            matches!(err, BuildError::MissingSeed(_)),
            "{spec:?}: {err:?}"
        );
    }
    // A seedless scenario reaches the same error at build, and the error
    // names the missing piece for the user.
    for rounding in ["randomized", "unbiased"] {
        let spec: ScenarioSpec = format!("topology=cycle:8 rounding={rounding}")
            .parse()
            .unwrap();
        let g = spec.build_graph().unwrap();
        let err = spec.experiment_on(&g).unwrap_err();
        assert!(matches!(err, BuildError::MissingSeed(_)), "{rounding}");
        assert!(err.to_string().contains("seed"), "{err}");
    }
}

#[test]
fn scenario_error_paths_return_build_errors() {
    // Through the text surface too: a whole matrix of invalid scenarios,
    // each mapping to its typed variant, none panicking.
    type Check = fn(&BuildError) -> bool;
    let cases: [(&str, Check); 5] = [
        ("topology=cycle:8 rounding=randomized", |e| {
            matches!(e, BuildError::MissingSeed(_))
        }),
        ("topology=cycle:8 seed=1 threads=0", |e| {
            matches!(e, BuildError::ZeroThreads)
        }),
        ("topology=cycle:8 seed=1 init=point:99:100", |e| {
            matches!(e, BuildError::InvalidInitialLoad(_))
        }),
        // Speeds outside the paper's finite `s_i ≥ 1` model: a negative
        // skew exponent draws unbounded speeds, and finite speeds can
        // still sum to `+∞`.
        (
            "topology=cycle:64 speeds=skewed:4:-1000:7 seed=1 stop=rounds:5",
            |e| matches!(e, BuildError::InvalidSpeeds(_)),
        ),
        (
            "topology=cycle:64 speeds=two_class:64:1e307 seed=1 stop=rounds:5",
            |e| matches!(e, BuildError::InvalidSpeeds(_)),
        ),
    ];
    for (text, check) in cases {
        let spec: ScenarioSpec = text.parse().unwrap();
        let err = spec.run().unwrap_err();
        assert!(check(&err), "'{text}' -> {err:?}");
    }
    // Out-of-range β is rejected at *parse* time for scenario text (with
    // a line-anchored error); a programmatically constructed spec still
    // gets the typed build error.
    let mut spec: ScenarioSpec = "topology=cycle:8 seed=1".parse().unwrap();
    spec.scheme = sodiff::SchemeSpec::Sos { beta: 2.4 };
    assert!(matches!(
        spec.run().unwrap_err(),
        BuildError::InvalidBeta(_)
    ));
    // Bad topology parameters surface as wrapped graph errors.
    let spec: ScenarioSpec = "topology=random_regular:5:3:1 seed=1".parse().unwrap();
    assert!(matches!(spec.run().unwrap_err(), BuildError::Graph(_)));
}

/// `sos_opt` derives β from the spectrum, which a single node or a
/// disconnected network does not have: both are a typed build error, not
/// a panic inside the spectral analysis.
#[test]
fn sos_opt_on_a_degenerate_network_is_a_build_error() {
    for text in [
        "topology=path:1 scheme=sos_opt seed=1 stop=rounds:5",
        // 40 nodes at edge probability 0.01: disconnected.
        "topology=erdos_renyi:40:0.01:3 scheme=sos_opt seed=1 stop=rounds:5",
    ] {
        let spec: ScenarioSpec = text.parse().unwrap();
        let graph = spec.build_graph().unwrap();
        if graph.node_count() > 1 {
            assert!(!graph.is_connected(), "'{text}' must be disconnected");
        }
        assert_eq!(
            spec.experiment_on(&graph).unwrap_err(),
            BuildError::InvalidBeta(2.0),
            "'{text}'"
        );
        assert_eq!(spec.run().unwrap_err(), BuildError::InvalidBeta(2.0));
    }
}

/// Acceptance criterion: a scenario text file fed to the `Driver`
/// reproduces the same `RunReport` (bit-identical metrics) as the
/// equivalent hand-built `Simulator`.
#[test]
fn driver_reproduces_hand_built_simulator_bit_identically() {
    let text = "name=matrix topology=torus2d:12:12 scheme=sos_opt mode=discrete \
                rounding=randomized seed=77 init=paper stop=rounds:250 \
                hybrid=local_diff:25";
    let specs = ScenarioSpec::parse_many(text).unwrap();

    // Hand-built equivalent of the scenario line above.
    let g = generators::torus2d(12, 12);
    let n = g.node_count();
    let beta = spectral::analyze(&g, &Speeds::uniform(n)).beta_opt();
    let mut sim = Experiment::on(&g)
        .discrete(Rounding::randomized(77))
        .sos(beta)
        .init(InitialLoad::paper_default(n))
        .build()
        .unwrap()
        .simulator();
    let hand_built = sim.run_hybrid(
        SwitchPolicy::MaxLocalDiffBelow(25.0),
        StopCondition::MaxRounds(250),
    );

    // Sequential driver and pooled driver must both reproduce it exactly.
    for threads in [1usize, 3] {
        let batch = Driver::with_threads(threads).unwrap().run_batch(&specs);
        assert!(batch.errors.is_empty());
        assert_eq!(batch.scenarios.len(), 1);
        let driven = &batch.scenarios[0].report;
        assert_eq!(
            driven, &hand_built,
            "{threads}-thread driver diverged from the hand-built run"
        );
    }
}

/// The driver reuses one pool across a mixed batch; results still match
/// independently built simulators, scenario by scenario.
#[test]
fn mixed_batch_over_one_pool_matches_standalone_runs() {
    let text = "name=a topology=cycle:40 scheme=sos:1.5 seed=3 stop=rounds:120\n\
                name=b topology=hypercube:6 scheme=fos rounding=unbiased seed=9 stop=rounds:60\n\
                name=c topology=torus2d:7:9 mode=continuous scheme=sos:1.8 stop=rounds:90\n\
                name=d topology=star:17 rounding=nearest init=point:0:1700 stop=rounds:30\n";
    let specs = ScenarioSpec::parse_many(text).unwrap();
    let pooled = Driver::with_threads(4).unwrap().run_batch(&specs);
    assert!(pooled.errors.is_empty());
    for (spec, scenario) in specs.iter().zip(&pooled.scenarios) {
        let standalone = spec.run().unwrap();
        assert_eq!(scenario.report, standalone, "{}", spec.name);
    }
    assert_eq!(pooled.total_rounds, 120 + 60 + 90 + 30);
}

#[test]
fn experiment_run_matches_manual_hybrid_loop() {
    // The builder's hybrid policy must equal driving an identically
    // configured simulator by hand.
    let g = generators::torus2d(8, 8);
    let n = g.node_count();
    let exp = Experiment::on(&g)
        .discrete(Rounding::randomized(5))
        .sos(1.9)
        .init(InitialLoad::paper_default(n))
        .hybrid(SwitchPolicy::AtRound(30))
        .stop(StopCondition::MaxRounds(100))
        .build()
        .unwrap();
    let report = exp.run();
    let mut manual = exp.simulator();
    let manual_report = manual.run_hybrid(SwitchPolicy::AtRound(30), StopCondition::MaxRounds(100));
    assert_eq!(report, manual_report);
    assert_eq!(report.switch_round, Some(30));
}

/// A parse-valid stop whose sample ring no allocator can provide (a
/// horizon of 10¹⁷ rounds needs 8·10¹⁷ bytes) is a typed build error
/// that fails only its own scenario: the next one in the batch still
/// runs. Before the check, that allocation aborted the whole process.
#[test]
fn unallocatable_stop_ring_fails_only_its_scenario() {
    let specs = ScenarioSpec::parse_many(
        "name=huge topology=cycle:8 seed=1 stop=horizon:100000000000000000\n\
         name=fine topology=cycle:8 seed=1 stop=rounds:10\n",
    )
    .unwrap();
    let batch = Driver::new().run_batch(&specs);
    assert_eq!(batch.errors.len(), 1, "{:?}", batch.errors);
    let error = &batch.errors[0];
    assert_eq!(error.index, 0);
    let ScenarioFailure::Build(BuildError::Scenario { source, .. }) = &error.error else {
        panic!("not a build error: {error}");
    };
    assert!(
        matches!(**source, BuildError::InvalidStopCondition(_)),
        "{error}"
    );
    assert_eq!(batch.scenarios.len(), 1);
    assert_eq!(batch.scenarios[0].name, "fine");
    assert_eq!(batch.scenarios[0].report.rounds, 10);
    // A `steady:W` ring holds 2·W samples; a length that overflows
    // `usize` is refused as well.
    let g = generators::cycle(8);
    for stop in [
        StopCondition::Steady {
            window: usize::MAX / 2 + 1,
        },
        StopCondition::Horizon(usize::MAX),
    ] {
        let err = Experiment::on(&g)
            .continuous()
            .stop(stop)
            .build()
            .unwrap_err();
        assert!(
            matches!(err, BuildError::InvalidStopCondition(_)),
            "{stop:?}: {err:?}"
        );
    }
}

/// Speeds that are each finite can still sum to `+∞`, and the balanced
/// loads divide by that sum: hand-built speeds get the same typed error
/// at build as scenario text (see `scenario_error_paths_return_build_errors`).
#[test]
fn hand_built_speeds_whose_total_overflows_return_build_error() {
    let g = generators::cycle(64);
    let build = |speed| {
        Experiment::on(&g)
            .discrete(Rounding::nearest())
            .speeds(Speeds::two_class(64, 64, speed))
            .build()
    };
    let err = build(1e307).unwrap_err();
    assert!(matches!(err, BuildError::InvalidSpeeds(_)), "{err:?}");
    assert!(err.to_string().contains("not finite"), "{err}");
    assert!(build(1e305).is_ok());
}

/// A NaN switch threshold compares false with every metric, so the
/// switch could never fire: a hand-built policy is refused at build.
/// (Scenario text refuses it at parse; see `tests/scenario_spec.rs`.)
#[test]
fn nan_hybrid_threshold_returns_build_error() {
    let g = generators::torus2d(4, 4);
    for policy in [
        SwitchPolicy::MaxLocalDiffBelow(f64::NAN),
        SwitchPolicy::MaxMinusAvgBelow(f64::NAN),
    ] {
        let err = Experiment::on(&g)
            .discrete(Rounding::randomized(1))
            .sos(1.9)
            .hybrid(policy)
            .build()
            .unwrap_err();
        assert!(
            matches!(err, BuildError::InvalidHybrid(_)),
            "{policy:?}: {err:?}"
        );
        let mut spec: ScenarioSpec = "topology=torus2d:4:4 scheme=sos:1.9 seed=1 stop=rounds:50"
            .parse()
            .unwrap();
        spec.hybrid = Some(policy);
        assert!(
            matches!(spec.run(), Err(BuildError::InvalidHybrid(_))),
            "{policy:?}"
        );
    }
    // Infinite thresholds are well-defined (always / never below).
    assert!(Experiment::on(&g)
        .continuous()
        .sos(1.9)
        .hybrid(SwitchPolicy::MaxMinusAvgBelow(f64::INFINITY))
        .build()
        .is_ok());
}
