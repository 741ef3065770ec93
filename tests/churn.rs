//! Live-topology churn subsystem: determinism across executors,
//! conservation-exact handoff accounting, composition with the fault
//! and load axes, crash-freeze vs churn-arrival rejoin semantics, and
//! exact mid-churn checkpoint/resume through the v2 on-disk format.
//!
//! The conservation contract under churn extends the injected-total
//! invariant: every round,
//! `total == initial + injected + joined − departed`,
//! where `joined` counts the configured initial load brought by
//! arrivals and `departed` counts only the load of neighborless
//! departures (a departure with live neighbors hands off every token).

use std::path::PathBuf;

use proptest::prelude::*;

use sodiff::core::Driver;
use sodiff::graph::generators;
use sodiff::prelude::*;
use sodiff::{read_checkpoint, write_checkpoint, ScenarioSpec};

fn churned_sim(g: &sodiff::graph::Graph, churn: ChurnSpec, threads: usize) -> Simulator<'_> {
    let n = g.node_count();
    Experiment::on(g)
        .discrete(Rounding::nearest())
        .sos(1.7)
        .threads(threads)
        .init(InitialLoad::point(0, (n * 100) as i64))
        .churn(churn)
        .build()
        .unwrap()
        .simulator()
}

/// Any churned run is bit-identical sequential vs pooled across thread
/// counts: membership transitions, handoff deltas, and mask repair all
/// run on the control thread before the round's flow pass, so the
/// executor cannot influence the trajectory.
#[test]
fn churned_runs_are_bit_identical_across_executors() {
    let g = generators::torus2d(6, 6);
    let combos = [
        ChurnSpec::none().with_flux(0.1, 0.4, 9),
        ChurnSpec::none().with_flux(0.3, 0.3, 5).with_initial(40.0),
        ChurnSpec::none().with_flux(0.05, 0.9, 2).with_initial(75.0),
    ];
    for churn in combos {
        let mut reference = churned_sim(&g, churn, 1);
        for _ in 0..48 {
            reference.step();
        }
        for threads in [2usize, 3, 5] {
            let mut sim = churned_sim(&g, churn, threads);
            for _ in 0..48 {
                sim.step();
            }
            assert_eq!(
                sim.loads_i64().unwrap(),
                reference.loads_i64().unwrap(),
                "{churn} loads diverged at {threads} threads"
            );
            assert_eq!(
                sim.previous_flows(),
                reference.previous_flows(),
                "{churn} flow memory diverged at {threads} threads"
            );
            assert_eq!(
                sim.churn_events(),
                reference.churn_events(),
                "{churn} event counts diverged at {threads} threads"
            );
        }
    }
}

/// A total-flux plan (`leave = join = 1`) is deterministic regardless
/// of seed, which pins the epoch/transition semantics exactly: every
/// 16-round epoch boundary alternates "everyone departs" (the whole
/// total leaves — no survivors to hand off to) with "everyone
/// (re)arrives at the configured initial load".
#[test]
fn total_flux_alternates_whole_cluster_deterministically() {
    let g = generators::torus2d(6, 6);
    let mut sim = Experiment::on(&g)
        .discrete(Rounding::nearest())
        .fos()
        .init(InitialLoad::point(0, 3600))
        .churn(
            ChurnSpec::none()
                .with_flux(1.0, 1.0, 123)
                .with_initial(50.0),
        )
        .build()
        .unwrap()
        .simulator();
    for _ in 0..64 {
        sim.step();
    }
    // Epochs 0 and 2 empty the cluster (departures with no possible
    // target), epochs 1 and 3 refill it at 50 tokens per node.
    let events = sim.churn_events();
    assert_eq!(events.departures, 72);
    assert_eq!(events.arrivals, 72);
    assert_eq!(events.handoffs, 0, "no survivor can absorb a handoff");
    assert_eq!(events.joined, 3600.0);
    assert_eq!(events.departed, 3600.0 + 1800.0);
    assert_eq!(events.total(), 144);
    assert_eq!(
        sim.total_load(),
        3600.0 + events.joined - events.departed,
        "conservation identity must close over the whole run"
    );
}

/// Satellite audit of the two rejoin semantics, which compose without
/// double-counting:
/// * a *crash-frozen* node (fault axis) returns with its **frozen
///   load** — the total never moves, and nothing lands in the churn
///   accounts;
/// * a *churn re-arrival* starts from the **configured initial load** —
///   exactly `init` per arrival enters the system, all of it visible in
///   `ChurnEvents::joined`.
#[test]
fn crash_freeze_and_churn_arrival_semantics_compose() {
    let g = generators::torus2d(6, 6);

    // Crash alone: freeze-and-return conserves the total bit-exactly.
    let mut crashed = Experiment::on(&g)
        .discrete(Rounding::nearest())
        .sos(1.7)
        .init(InitialLoad::point(0, 3600))
        .faults(FaultSpec::none().with_crash(0.3, 7))
        .build()
        .unwrap()
        .simulator();
    for _ in 0..64 {
        crashed.step();
        assert_eq!(crashed.total_load(), 3600.0, "crash freeze must conserve");
    }
    assert!(
        crashed.fault_events().rejoins > 0,
        "the plan must actually exercise a rejoin"
    );
    assert_eq!(crashed.churn_events(), ChurnEvents::default());

    // Crash + churn: every churn arrival accounts exactly `init`, and
    // the combined conservation identity holds every round.
    let init = 40.0;
    let mut sim = Experiment::on(&g)
        .discrete(Rounding::nearest())
        .sos(1.7)
        .init(InitialLoad::point(0, 3600))
        .faults(FaultSpec::none().with_crash(0.2, 7))
        .churn(
            ChurnSpec::none()
                .with_flux(0.25, 0.5, 11)
                .with_initial(init),
        )
        .build()
        .unwrap()
        .simulator();
    for _ in 0..64 {
        sim.step();
        let events = sim.churn_events();
        assert_eq!(
            events.joined,
            events.arrivals as f64 * init,
            "every churn arrival starts from the configured initial load"
        );
        assert_eq!(
            sim.total_load(),
            3600.0 + events.joined - events.departed,
            "crash+churn run broke the conservation identity"
        );
    }
    assert!(sim.churn_events().total() > 0, "plan never fired");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random churn plans composed with random fault and load channels
    /// stay executor-independent and satisfy the conservation identity
    /// `total == initial + injected + joined − departed` every round.
    #[test]
    fn random_churn_plans_conserve_and_match_pooled(
        leave in 0.0f64..0.6,
        join in 0.0f64..1.0,
        init in 0u16..120,
        churn_seed in 0u64..100,
        fault_channels in 0u8..16,
        with_load in any::<bool>(),
        sos in any::<bool>(),
        threads in 2usize..5,
    ) {
        let churn = ChurnSpec::none()
            .with_flux(leave, join, churn_seed)
            .with_initial(f64::from(init));
        let mut faults = FaultSpec::none();
        if fault_channels & 1 != 0 { faults = faults.with_crash(0.15, 1); }
        if fault_channels & 2 != 0 { faults = faults.with_edgedrop(0.2, 2); }
        if fault_channels & 4 != 0 { faults = faults.with_shock(0.1, 3); }
        if fault_channels & 8 != 0 { faults = faults.with_stale(0.15, 4); }
        let load = if with_load {
            LoadSpec::none().with_poisson(0.6, 7).with_hotspot(3, 25, 5, 11)
        } else {
            LoadSpec::none()
        };
        let g = generators::torus2d(5, 5);
        let build = |threads: usize| {
            let e = Experiment::on(&g).discrete(Rounding::randomized(9));
            let e = if sos { e.sos(1.6) } else { e.fos() };
            e.threads(threads)
                .init(InitialLoad::point(0, 2500))
                .faults(faults)
                .load(load)
                .churn(churn)
                .build()
                .unwrap()
                .simulator()
        };
        let mut seq = build(1);
        let mut pooled = build(threads);
        for _ in 0..40 {
            seq.step();
            pooled.step();
            let churned = seq.churn_events();
            prop_assert_eq!(
                seq.total_load(),
                2500.0 + seq.load_events().injected + churned.joined - churned.departed,
                "sequential churned run broke the conservation identity"
            );
            prop_assert_eq!(seq.loads_i64().unwrap(), pooled.loads_i64().unwrap());
        }
        prop_assert_eq!(seq.previous_flows(), pooled.previous_flows());
        prop_assert_eq!(seq.fault_events(), pooled.fault_events());
        prop_assert_eq!(seq.load_events(), pooled.load_events());
        prop_assert_eq!(seq.churn_events(), pooled.churn_events());
    }

    /// Churn composes with the sweep-scheduled pairwise schemes: the
    /// per-epoch incremental schedule repair runs against the combined
    /// churn-active set and stays bit-identical across executors.
    #[test]
    fn churned_pairwise_schemes_match_pooled(
        leave in 0.0f64..0.5,
        join in 0.2f64..1.0,
        seed in 0u64..50,
        recover in any::<bool>(),
        threads in 2usize..5,
    ) {
        let g = generators::torus2d(5, 5);
        let scheme = if recover {
            Scheme::matching_round_robin(1.0)
        } else {
            Scheme::dimension_exchange(0.8)
        };
        let churn = ChurnSpec::none().with_flux(leave, join, seed).with_initial(30.0);
        let build = |threads: usize| {
            Experiment::on(&g)
                .discrete(Rounding::nearest())
                .scheme(scheme)
                .threads(threads)
                .init(InitialLoad::point(0, 2500))
                .churn(churn)
                .build()
                .unwrap()
                .simulator()
        };
        let mut seq = build(1);
        let mut pooled = build(threads);
        for _ in 0..40 {
            seq.step();
            pooled.step();
            let churned = seq.churn_events();
            prop_assert_eq!(
                seq.total_load(),
                2500.0 + churned.joined - churned.departed,
                "churned pairwise run broke the conservation identity"
            );
            prop_assert_eq!(seq.loads_i64().unwrap(), pooled.loads_i64().unwrap());
        }
        prop_assert_eq!(seq.churn_events(), pooled.churn_events());
    }
}

/// FNV-1a over the full simulation state — the same digest
/// `tests/golden_trace.rs` pins.
fn state_checksum(sim: &Simulator<'_>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for &x in sim.loads_i64().expect("golden traces are discrete").iter() {
        eat(&x.to_le_bytes());
    }
    for &f in sim.previous_flows().iter() {
        eat(&f.to_bits().to_le_bytes());
    }
    eat(&sim.min_transient_load().to_bits().to_le_bytes());
    h
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sodiff-churn-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Interrupting a churned (and crashed) run mid-epoch, writing the v2
/// checkpoint to disk, and resuming in a fresh simulator replays to the
/// exact same state as the uninterrupted run — the persisted activation
/// overlay makes the history-dependent membership chain resume without
/// redrawing a single transition. `resume_at: 33` straddles the
/// 16-round epoch boundary so the overlay is mid-epoch non-trivial.
#[test]
fn mid_churn_checkpoint_resume_is_exact() {
    let dir = scratch_dir("resume");
    let line = "name=flux topology=torus2d:8:8 rounding=nearest scheme=sos:1.7 \
                init=point:0:6400 faults=crash:0.1:7 churn=flux:0.08:0.3:9:25 stop=rounds:64";
    let spec: ScenarioSpec = line.parse().unwrap();
    let graph = spec.build_graph().unwrap();
    let experiment = spec.experiment_on(&graph).unwrap();

    let mut whole = experiment.simulator();
    whole.run_until(StopCondition::MaxRounds(64));
    assert!(whole.churn_events().total() > 0, "plan never fired");

    let mut first = experiment.simulator();
    first.run_until(StopCondition::MaxRounds(33));
    let path = dir.join("flux.ckpt");
    write_checkpoint(&path, &spec, &first.snapshot()).unwrap();
    let ckpt = read_checkpoint(&path).unwrap();
    assert_eq!(ckpt.snapshot.round(), 33);

    let mut resumed = experiment.simulator();
    resumed.restore(&ckpt.snapshot).unwrap();
    resumed.run_until(StopCondition::MaxRounds(64 - 33));
    assert_eq!(
        state_checksum(&resumed),
        state_checksum(&whole),
        "mid-churn resume diverged from the uninterrupted run"
    );
    assert_eq!(resumed.churn_events(), whole.churn_events());
    assert_eq!(resumed.fault_events(), whole.fault_events());
    std::fs::remove_dir_all(&dir).ok();
}

/// Churned scenarios flow end to end through the text pipeline: parse,
/// batch-drive, surface per-scenario and batch-total churn accounting.
#[test]
fn churn_scenarios_run_through_the_driver() {
    let specs = ScenarioSpec::parse_many(
        "name=elastic topology=torus2d:6:6 scheme=sos:1.7 rounding=nearest \
         churn=flux:0.1:0.5:9:50 stop=rounds:48\n\
         name=static topology=torus2d:6:6 scheme=sos:1.7 rounding=nearest stop=rounds:48\n",
    )
    .unwrap();
    let batch = Driver::new().run_batch(&specs);
    assert!(batch.errors.is_empty(), "{:?}", batch.errors);
    let elastic = &batch.scenarios[0].report;
    let static_run = &batch.scenarios[1].report;
    assert!(elastic.churn.total() > 0, "churn plan never fired");
    assert_eq!(static_run.churn, ChurnEvents::default());
    assert_eq!(
        batch.churn, elastic.churn,
        "batch totals sum churn events across successful scenarios"
    );
    // The churned spec round-trips with its churn= key intact.
    let reparsed: ScenarioSpec = batch.scenarios[0].spec.parse().unwrap();
    assert_eq!(reparsed.churn, specs[0].churn);
}

/// The batch's worst final `max − avg` is the largest final, even when
/// every final is negative, as under this saturating flux plan — not a
/// `0.0` that no scenario reported.
#[test]
fn batch_worst_is_the_largest_final_even_when_negative() {
    let spec: ScenarioSpec =
        "topology=torus2d:4:4 seed=1 scheme=fos churn=flux:1:1:3:5 stop=rounds:3"
            .parse()
            .unwrap();
    let batch = Driver::new().run_batch(&[spec]);
    assert!(batch.errors.is_empty(), "{:?}", batch.errors);
    let only = batch.scenarios[0].report.final_metrics.max_minus_avg;
    assert!(only < 0.0, "the repro must end negative, got {only}");
    assert_eq!(batch.worst_max_minus_avg, only);
    assert_eq!(batch.mean_max_minus_avg, only);
}
