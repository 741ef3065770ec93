//! Exact checkpoint/resume over the golden-trace suite.
//!
//! For every pinned configuration of `tests/golden_trace.rs` — all
//! schemes, both modes, heterogeneous speeds, and the fault- and
//! load-injected runs, on the sequential executor and on the pool —
//! this suite proves the resume-exactness contract of the checkpoint
//! subsystem: running straight to round `R` and running to `k`,
//! snapshotting **to disk**, restoring into a fresh simulator, and
//! finishing the remaining rounds produce the *same pinned FNV
//! checksum*. Loads, flow memory, and the minimum transient load are
//! bit-identical; nothing about a checkpointed run is approximate.
//!
//! Resume points deliberately straddle the 16-round fault/load epoch
//! boundaries (e.g. `k = 33`) so the epoch re-materialization path of
//! `Simulator::restore` is exercised, not just the clean case.

use std::path::PathBuf;

use sodiff::prelude::*;
use sodiff::{
    read_checkpoint, write_checkpoint, BuildError, Checkpoint, CheckpointPolicy, ScenarioSpec,
    Snapshot,
};

/// FNV-1a over the full simulation state — for discrete runs the same
/// digest `tests/golden_trace.rs` pins; continuous runs hash the load
/// bits instead of the integer loads.
fn state_checksum(sim: &Simulator<'_>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    match sim.loads_i64() {
        Some(loads) => loads.iter().for_each(|x| eat(&x.to_le_bytes())),
        None => sim
            .loads_to_f64()
            .iter()
            .for_each(|x| eat(&x.to_bits().to_le_bytes())),
    }
    for &f in sim.previous_flows().iter() {
        eat(&f.to_bits().to_le_bytes());
    }
    eat(&sim.min_transient_load().to_bits().to_le_bytes());
    h
}

struct Golden {
    name: &'static str,
    /// Spec line without `name=`, `threads=`, `stop=`.
    spec: &'static str,
    rounds: usize,
    /// Snapshot round of the interrupted run.
    resume_at: usize,
    threads: &'static [usize],
    /// The pinned golden checksum (see `tests/golden_trace.rs`).
    checksum: u64,
}

const GOLDEN: &[Golden] = &[
    Golden {
        name: "torus_fos_rounded",
        spec: "topology=torus2d:8:8 rounding=randomized seed=42 init=point:0:6400",
        rounds: 60,
        resume_at: 30,
        threads: &[1, 3],
        checksum: 0xc6a410e2f5b1eac5,
    },
    Golden {
        name: "regular_sos_het",
        spec: "topology=random_regular:60:4:2 rounding=randomized seed=13 scheme=sos:1.7 \
               speeds=ramp:5 init=point:0:60000",
        rounds: 80,
        resume_at: 41,
        threads: &[1, 3],
        checksum: 0xcda74ebcdaf7a3a9,
    },
    Golden {
        name: "cycle_fos",
        spec: "topology=cycle:17 rounding=randomized seed=3 init=point:0:1700",
        rounds: 45,
        resume_at: 22,
        threads: &[1, 3],
        checksum: 0x7a6af77403c77095,
    },
    Golden {
        name: "torus_de_nearest",
        spec: "topology=torus2d:8:8 rounding=nearest scheme=de:1 init=point:0:6400",
        rounds: 60,
        resume_at: 29,
        threads: &[1, 3],
        checksum: 0x293596f41a179cc5,
    },
    Golden {
        name: "torus_de_randomized",
        spec: "topology=torus2d:8:8 rounding=randomized seed=42 scheme=de:0.75 \
               init=point:0:6400",
        rounds: 60,
        resume_at: 37,
        threads: &[1, 3],
        checksum: 0x79ddcb82b6ab9903,
    },
    Golden {
        name: "cycle_matching_rr",
        spec: "topology=cycle:17 rounding=nearest scheme=matching:rr:1 init=point:0:1700",
        rounds: 45,
        resume_at: 23,
        threads: &[1, 3],
        checksum: 0x25b4d1eb89f2313f,
    },
    Golden {
        // `resume_at: 33` straddles the crash channel's 16-round epoch:
        // the restore must re-materialize epoch 2's masks and keep the
        // cumulative event counters exact.
        name: "torus_sos_crash_churn",
        spec: "topology=torus2d:8:8 rounding=nearest scheme=sos:1.7 init=point:0:6400 \
               faults=crash:0.1:7",
        rounds: 64,
        resume_at: 33,
        threads: &[1, 3],
        checksum: 0x8cc7ad550f849948,
    },
    Golden {
        // `resume_at: 32` lands exactly on an epoch boundary — the next
        // round after resume opens a fresh epoch.
        name: "torus_sos_poisson",
        spec: "topology=torus2d:8:8 rounding=nearest scheme=sos:1.7 init=point:0:6400 \
               load=poisson:0.5:7",
        rounds: 64,
        resume_at: 32,
        threads: &[1, 3],
        checksum: 0x528126d94fdd1296,
    },
    Golden {
        // `resume_at: 33` straddles the churn epoch: the restore must
        // reinstall the persisted activation overlay (never redrawing
        // the membership chain) and rebuild the epoch's masks.
        name: "torus_sos_crash_flux",
        spec: "topology=torus2d:8:8 rounding=nearest scheme=sos:1.7 init=point:0:6400 \
               faults=crash:0.1:7 churn=flux:0.08:0.3:9:25",
        rounds: 64,
        resume_at: 33,
        threads: &[1, 3],
        checksum: 0x98bbaa1b24facd58,
    },
    Golden {
        name: "regular_matching_random",
        spec: "topology=random_regular:60:4:2 rounding=unbiased seed=13 \
               scheme=matching:random:7:1 speeds=ramp:5 init=point:0:60000",
        rounds: 80,
        resume_at: 43,
        threads: &[1, 4],
        checksum: 0x3399f37f952ba7fb,
    },
];

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sodiff-ckpt-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn resume_matches_pinned_golden_checksums() {
    let dir = scratch_dir("resume");
    for cfg in GOLDEN {
        for &threads in cfg.threads {
            let line = format!(
                "name={} {} threads={threads} stop=rounds:{}",
                cfg.name, cfg.spec, cfg.rounds
            );
            let spec: ScenarioSpec = line.parse().unwrap();
            let graph = spec.build_graph().unwrap();
            let experiment = spec.experiment_on(&graph).unwrap();

            // Uninterrupted reference run: must hit the pinned checksum
            // (the spec line reproduces the golden builder config).
            let mut whole = experiment.simulator();
            whole.run_until(StopCondition::MaxRounds(cfg.rounds));
            assert_eq!(
                state_checksum(&whole),
                cfg.checksum,
                "{} t{threads}: uninterrupted run diverged from the pinned trace",
                cfg.name
            );

            // Interrupted run: stop at k, snapshot through the on-disk
            // format, restore into a FRESH simulator, finish.
            let mut first = experiment.simulator();
            first.run_until(StopCondition::MaxRounds(cfg.resume_at));
            let snap = first.snapshot();
            assert_eq!(snap.round(), cfg.resume_at as u64);
            let path = dir.join(format!("{}-t{threads}.ckpt", cfg.name));
            write_checkpoint(&path, &spec, &snap).unwrap();
            let ckpt = read_checkpoint(&path).unwrap();
            assert_eq!(ckpt.spec, spec, "{}: header spec round-trips", cfg.name);
            assert_eq!(ckpt.snapshot.round(), cfg.resume_at as u64);

            let mut resumed = experiment.simulator();
            resumed.restore(&ckpt.snapshot).unwrap();
            // `MaxRounds` counts rounds per call: ask for the remainder.
            resumed.run_until(StopCondition::MaxRounds(cfg.rounds - cfg.resume_at));
            assert_eq!(
                state_checksum(&resumed),
                cfg.checksum,
                "{} t{threads}: resume at {} diverged from the pinned trace",
                cfg.name,
                cfg.resume_at
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The `ckpt=every:N:DIR` scenario key auto-writes resumable snapshots
/// from inside the round loop; the latest one restores to the exact
/// final state of the run that wrote it.
#[test]
fn scenario_ckpt_key_writes_resumable_checkpoints() {
    let dir = scratch_dir("auto");
    let line = format!(
        "name=auto topology=torus2d:8:8 rounding=nearest scheme=sos:1.7 init=point:0:6400 \
         faults=crash:0.1:7 ckpt=every:16:{} stop=rounds:64",
        dir.display()
    );
    let spec: ScenarioSpec = line.parse().unwrap();
    let report = spec.run().unwrap();
    assert_eq!(report.rounds, 64);

    let ckpt = read_checkpoint(&dir.join("auto.ckpt")).unwrap();
    assert_eq!(
        ckpt.snapshot.round(),
        64,
        "latest snapshot is the final one"
    );
    assert_eq!(ckpt.spec, spec);
    // Resuming a checkpoint taken at the stop round replays zero rounds.
    let resumed = ckpt.resume().unwrap();
    assert_eq!(resumed.rounds, 0);

    // A checkpoint from a SHORTER run of the same scenario resumes to
    // the same final metrics the full run reported.
    let line = format!(
        "name=auto2 topology=torus2d:8:8 rounding=nearest scheme=sos:1.7 init=point:0:6400 \
         faults=crash:0.1:7 ckpt=every:16:{} stop=rounds:64",
        dir.display()
    );
    let spec2: ScenarioSpec = line.parse().unwrap();
    let graph = spec2.build_graph().unwrap();
    let experiment = spec2.experiment_on(&graph).unwrap();
    let mut partial = experiment.simulator();
    partial.run_until(StopCondition::MaxRounds(48));
    let resumed = read_checkpoint(&dir.join("auto2.ckpt"))
        .unwrap()
        .resume()
        .unwrap();
    assert_eq!(resumed.rounds, 16, "48 of 64 rounds were already done");
    assert_eq!(resumed.final_metrics, report.final_metrics);
    std::fs::remove_dir_all(&dir).ok();
}

/// Restoring into a mismatched simulator (different topology, or a
/// different initial total) is rejected with a typed error before any
/// state is touched.
#[test]
fn restore_rejects_mismatched_simulators() {
    let spec: ScenarioSpec = "name=src topology=torus2d:8:8 rounding=nearest seed=1 \
                              init=point:0:6400 stop=rounds:40"
        .parse()
        .unwrap();
    let graph = spec.build_graph().unwrap();
    let experiment = spec.experiment_on(&graph).unwrap();
    let mut sim = experiment.simulator();
    sim.run_until(StopCondition::MaxRounds(10));
    let snap = sim.snapshot();

    let other: ScenarioSpec = "name=dst topology=cycle:17 rounding=nearest seed=1 \
                               stop=rounds:40"
        .parse()
        .unwrap();
    let other_graph = other.build_graph().unwrap();
    let other_exp = other.experiment_on(&other_graph).unwrap();
    let mut other_sim = other_exp.simulator();
    let before = state_checksum(&other_sim);
    let err = other_sim.restore(&snap).unwrap_err();
    assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
    assert_eq!(
        state_checksum(&other_sim),
        before,
        "failed restore must not mutate the target"
    );
}

/// Takes a snapshot from inside the run loop, after round `at`.
struct SnapshotAt {
    at: u64,
    snapshot: Option<Snapshot>,
}

impl Observer for SnapshotAt {
    fn on_round(&mut self, sim: &Simulator<'_>) {
        if sim.round() == self.at {
            self.snapshot = Some(sim.snapshot());
        }
    }
}

/// Records the state checksum after every round, so the last one is the
/// final state of a run that builds its own simulator (`None` if it ran
/// no round).
#[derive(Default)]
struct FinalState(Option<u64>);

impl Observer for FinalState {
    fn on_round(&mut self, sim: &Simulator<'_>) {
        self.0 = Some(state_checksum(sim));
    }
}

/// Runs `line` uninterrupted at each of `run_threads`, resumes it at
/// threads 1 and 3 from the checkpoint `interrupt` returns, and asserts
/// that the resumed run finishes exactly as the uninterrupted one did:
/// the remaining rounds, the stop reason, the remaining imbalance, the
/// switch round, the steady statistics and the final state.
fn assert_resumes_exactly(
    line: &str,
    run_threads: &[usize],
    interrupt: impl Fn(&ScenarioSpec, &Experiment<'_>) -> (RunReport, u64, Checkpoint),
) {
    for &threads in run_threads {
        let spec: ScenarioSpec = format!("{line} threads={threads}").parse().unwrap();
        let graph = spec.build_graph().unwrap();
        let experiment = spec.experiment_on(&graph).unwrap();
        let (full, checksum, mut ckpt) = interrupt(&spec, &experiment);
        let at = ckpt.snapshot.round();
        // The final state of a resume that runs no round is the snapshot's.
        let mut restored = experiment.simulator();
        restored.restore(&ckpt.snapshot).unwrap();
        let at_snapshot = state_checksum(&restored);
        for resume_threads in [1, 3] {
            ckpt.spec.threads = resume_threads;
            let mut last = FinalState::default();
            let resumed = ckpt.resume_with(&mut last).unwrap();
            let what = format!("{line}: t{threads} run, resumed on t{resume_threads} at {at}");
            assert_eq!(resumed.rounds, full.rounds - at, "{what}: rounds");
            assert_eq!(resumed.reason, full.reason, "{what}: reason");
            assert_eq!(
                resumed.remaining_imbalance, full.remaining_imbalance,
                "{what}: remaining imbalance"
            );
            assert_eq!(resumed.switch_round, full.switch_round, "{what}: switch");
            assert_eq!(resumed.steady, full.steady, "{what}: steady stats");
            assert_eq!(resumed.final_metrics, full.final_metrics, "{what}: metrics");
            assert_eq!(
                last.0.unwrap_or(at_snapshot),
                checksum,
                "{what}: final state"
            );
        }
    }
}

/// Runs `experiment` uninterrupted; returns its report, its final state
/// checksum and the latest checkpoint its `ckpt=` key wrote.
fn run_and_read_latest(
    spec: &ScenarioSpec,
    experiment: &Experiment<'_>,
) -> (RunReport, u64, Checkpoint) {
    let mut sim = experiment.simulator();
    let full = experiment.run_on(&mut sim, &mut NullObserver);
    let policy = spec.ckpt.as_ref().expect("the scenario checkpoints");
    let ckpt = read_checkpoint(&policy.dir.join(format!("{}.ckpt", spec.name))).unwrap();
    (full, state_checksum(&sim), ckpt)
}

/// A snapshot an observer takes in the middle of a run carries the run
/// loop's live state — the plateau history, the run origin and the
/// hybrid switch — so resuming it finishes the run exactly.
#[test]
fn observer_snapshot_resumes_exactly() {
    for stop in ["stop=plateau:20:2000", "stop=rounds:200 hybrid=at:20"] {
        let line = format!(
            "name=observed topology=torus2d:16:16 scheme=sos:1.8 rounding=randomized seed=3 \
             init=point:0:25600 {stop}"
        );
        assert_resumes_exactly(&line, &[1, 3], |spec, experiment| {
            let mut sim = experiment.simulator();
            let mut observer = SnapshotAt {
                at: 60,
                snapshot: None,
            };
            let full = experiment.run_on(&mut sim, &mut observer);
            let ckpt = Checkpoint {
                spec: spec.clone(),
                snapshot: observer.snapshot.expect("the run passes round 60"),
            };
            (full, state_checksum(&sim), ckpt)
        });
    }
}

/// The auto-checkpoint is written after the round's sample reaches the
/// steady-state ring, so a `horizon:` run resumed from it reports its
/// statistics over the whole horizon, with the hybrid switch intact.
#[test]
fn auto_checkpoint_holds_the_rounds_tracker_sample() {
    let dir = scratch_dir("horizon");
    let line = format!(
        "name=horizon topology=torus2d:16:16 scheme=sos:1.7 rounding=nearest init=point:0:25600 \
         load=poisson:2:5 hybrid=at:40 ckpt=every:20:{} stop=horizon:96",
        dir.display()
    );
    assert_resumes_exactly(&line, &[1, 3], |spec, experiment| {
        let (full, checksum, ckpt) = run_and_read_latest(spec, experiment);
        assert_eq!(ckpt.snapshot.round(), 80);
        assert_eq!(full.steady.map(|s| s.window), Some(96));
        (full, checksum, ckpt)
    });
    std::fs::remove_dir_all(&dir).ok();
}

/// The `steady:` mode's built-in 100,000-round cap counts from the run
/// origin, so a run resumed after round 90,000 stops at the same
/// 100,000th round as the uninterrupted one. The uninterrupted run goes
/// through on one thread only, to keep the test short in the dev
/// profile; the resumes run on both executors.
#[test]
fn steady_cap_counts_from_the_run_origin() {
    let dir = scratch_dir("cap");
    let line = format!(
        "name=cap topology=cycle:256 mode=continuous scheme=fos init=point:0:256000 \
         ckpt=every:90000:{} stop=steady:64",
        dir.display()
    );
    assert_resumes_exactly(&line, &[1], |spec, experiment| {
        let (full, checksum, ckpt) = run_and_read_latest(spec, experiment);
        assert_eq!((full.rounds, full.reason), (100_000, StopReason::MaxRounds));
        assert_eq!(ckpt.snapshot.round(), 90_000);
        (full, checksum, ckpt)
    });
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint written at the round a run stopped at resumes to that
/// same stop: no further round, the same reason and the same report.
#[test]
fn final_round_checkpoint_resumes_to_the_same_stop() {
    let dir = scratch_dir("final");
    for stop in [
        "stop=plateau:20:2000",
        "stop=balanced:30:2000",
        "load=poisson:2:5 stop=steady:16",
        "load=poisson:2:5 hybrid=at:40 stop=horizon:96",
    ] {
        let line = format!(
            "name=last topology=torus2d:16:16 scheme=sos:1.8 rounding=randomized seed=3 \
             init=point:0:25600 ckpt=every:1:{} {stop}",
            dir.display()
        );
        assert_resumes_exactly(&line, &[1, 3], |spec, experiment| {
            let (full, checksum, ckpt) = run_and_read_latest(spec, experiment);
            assert_eq!(ckpt.snapshot.round(), full.rounds, "{stop}");
            (full, checksum, ckpt)
        });
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A `ckpt` directory whose `every:N:DIR` text would not read back from
/// the scenario line every checkpoint header embeds — whitespace splits
/// the key, and a non-UTF-8 directory displays lossily — is refused at
/// build, before any checkpoint is written.
#[test]
fn ckpt_policy_that_does_not_parse_back_is_refused() {
    let base = scratch_dir("parse-back");
    let mut dirs = vec![base.join("ckpt dir"), base.join("tab\tdir")];
    #[cfg(unix)]
    {
        use std::os::unix::ffi::OsStringExt;
        let raw = std::ffi::OsString::from_vec(b"ckpt-\xff".to_vec());
        dirs.push(base.join(raw));
    }
    let mut spec: ScenarioSpec = "name=spaced topology=torus2d:4:4 seed=1 stop=rounds:3"
        .parse()
        .unwrap();
    let graph = spec.build_graph().unwrap();
    for dir in dirs {
        spec.ckpt = Some(CheckpointPolicy {
            every: 1,
            dir: dir.clone(),
        });
        match spec.experiment_on(&graph) {
            Err(BuildError::InvalidCheckpoint(msg)) => {
                assert!(msg.contains("parse back"), "{dir:?}: {msg}")
            }
            Err(other) => panic!("{dir:?}: wrong error {other:?}"),
            Ok(_) => panic!("{dir:?}: a policy that does not parse back was accepted"),
        }
        assert!(!dir.exists(), "{dir:?}: nothing is written");
    }
    // A name that `Display` sanitizes does not count: the header holds
    // `name=my_scenario`, which reads back.
    spec.name = "my scenario".into();
    spec.ckpt = Some(CheckpointPolicy {
        every: 1,
        dir: base.join("plain"),
    });
    spec.experiment_on(&graph).unwrap().run();
    let ckpt = read_checkpoint(&base.join("plain").join("my scenario.ckpt")).unwrap();
    assert_eq!(ckpt.spec.name, "my_scenario");
    std::fs::remove_dir_all(&base).ok();
}

/// A pairwise checkpoint written while the pairwise schemes still kept
/// the last round's integral flows as a memory resumes exactly. The
/// committed fixture (`tests/fixtures/checkpoint_v2_pairwise.ckpt`) is
/// the `torus_de_randomized` golden scenario frozen at round 37 by such
/// a build, with nonzero flows in its memory section. Restore checks that
/// memory and ignores it, and the resumed run reaches the loads of the
/// uninterrupted one, and the pinned golden checksum, on both executors.
#[test]
fn pairwise_checkpoint_with_stored_flows_resumes_exactly() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/checkpoint_v2_pairwise.ckpt");
    let bytes = std::fs::read(&path).unwrap();
    let ckpt = read_checkpoint(&path).unwrap();
    assert_eq!(ckpt.snapshot.round(), 37);
    let graph = ckpt.spec.build_graph().unwrap();
    let m = graph.edge_count();
    let dir = scratch_dir("pairwise");
    for threads in [1, 3] {
        let mut spec = ckpt.spec.clone();
        spec.threads = threads;
        let experiment = spec.experiment_on(&graph).unwrap();

        // A fresh write at the same round differs from the fixture in
        // one `m`-value window only, the memory: this build writes zeros.
        // The headers' scenario lines differ too, by the fixture's
        // `flow_memory=rounded`, which `Display` no longer writes, so
        // the snapshots that follow them are compared.
        let mut fresh = experiment.simulator();
        fresh.run_until(StopCondition::MaxRounds(37));
        let rewritten = dir.join(format!("fresh-t{threads}.ckpt"));
        write_checkpoint(&rewritten, &ckpt.spec, &fresh.snapshot()).unwrap();
        let fresh_bytes = std::fs::read(&rewritten).unwrap();
        let snapshot = |b: &[u8]| {
            let line_len = u32::from_le_bytes(b[12..16].try_into().unwrap()) as usize;
            b[16 + line_len..b.len() - 8].to_vec() // the checksums differ too
        };
        let (old, new) = (snapshot(&bytes), snapshot(&fresh_bytes));
        assert_eq!(old.len(), new.len());
        let differ: Vec<usize> = (0..old.len()).filter(|&i| old[i] != new[i]).collect();
        let (first, last) = (differ[0], differ[differ.len() - 1]);
        assert!(last - first < 8 * m, "only the memory section differs");

        let mut whole = experiment.simulator();
        whole.run_until(StopCondition::MaxRounds(60));
        let mut resumed = experiment.simulator();
        resumed.restore(&ckpt.snapshot).unwrap();
        assert!(resumed.previous_flows().iter().all(|&f| f.to_bits() == 0));
        resumed.run_until(StopCondition::MaxRounds(60 - 37));
        assert_eq!(resumed.loads_i64(), whole.loads_i64(), "t{threads}: loads");
        assert_eq!(
            resumed.min_transient_load().to_bits(),
            whole.min_transient_load().to_bits(),
            "t{threads}: minimum transient load"
        );
        let golden = GOLDEN.iter().find(|g| g.name == "torus_de_randomized");
        assert_eq!(state_checksum(&resumed), golden.unwrap().checksum);
    }
    std::fs::remove_dir_all(&dir).ok();
}
