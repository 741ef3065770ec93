//! Kill-and-resume: durable batches survive a crashed process.
//!
//! ```text
//! cargo run --release --example resume
//! ```
//!
//! Stages a batch the way a killed process would leave it — a durable
//! journal with every spec recorded but only the first scenario marked
//! `done`, plus two in-flight `ckpt=every:N:DIR` scenarios whose latest
//! auto-checkpoints sit mid-run on disk — then calls
//! [`Driver::resume_batch`]. The resume skips finished work, restores
//! the in-flight scenarios from their snapshots (running only the
//! remaining rounds), re-runs the untouched one from round 0, and lands
//! on final metrics bit-identical to an uninterrupted batch. The second
//! in-flight scenario is a `horizon:` run with a hybrid switch, so its
//! resumed steady-state statistics and switch round must match too: the
//! checkpoint carries the run loop's trackers, not just the loads.

use std::fs;

use sodiff::{read_checkpoint, Driver, ScenarioSpec, StopCondition};

fn main() {
    let dir = std::env::temp_dir().join(format!("sodiff-resume-{}", std::process::id()));
    let ckpts = dir.join("ckpts");
    fs::create_dir_all(&dir).expect("create scratch dir");
    let journal = dir.join("batch.journal");

    // Four scenarios; the middle two auto-checkpoint every 16 and 20
    // rounds.
    let lines = format!(
        "name=warmup topology=cycle:64 seed=1 stop=rounds:120\n\
         name=inflight topology=torus2d:16:16 scheme=sos:1.7 rounding=nearest \
         init=point:0:25600 faults=crash:0.1:7 ckpt=every:16:{dir} stop=rounds:96\n\
         name=horizon topology=torus2d:16:16 scheme=sos:1.7 rounding=nearest \
         init=point:0:25600 load=poisson:2:5 hybrid=at:40 ckpt=every:20:{dir} stop=horizon:96\n\
         name=untouched topology=hypercube:8 seed=5 stop=rounds:80\n",
        dir = ckpts.display()
    );
    let specs = ScenarioSpec::parse_many(&lines).expect("valid scenario lines");

    // The uninterrupted batch, for comparison at the end.
    let clean = Driver::new().run_batch(&specs);
    assert!(clean.errors.is_empty());

    // --- Stage the crash -------------------------------------------------
    // A real durable batch writes this journal itself
    // (`Driver::run_batch_durable`); here we forge the exact on-disk state
    // a `kill -9` at the 60th round of `inflight` would leave behind.
    let mut text = String::from("sodiff-journal v1\n");
    for spec in &specs {
        text.push_str(&format!("spec {spec}\n"));
    }
    text.push_str("done 0\n"); // only `warmup` finished
    fs::write(&journal, &text).expect("write journal");

    // Run `inflight` partway so its auto-checkpoints land on disk; the
    // latest one (round 48) is what the resume will restore from.
    let spec = &specs[1];
    let graph = spec.build_graph().expect("build graph");
    let experiment = spec.experiment_on(&graph).expect("build experiment");
    let mut sim = experiment.simulator();
    sim.run_until(StopCondition::MaxRounds(60));
    drop(sim);
    let latest = read_checkpoint(&ckpts.join("inflight.ckpt")).expect("read latest snapshot");

    // Run `horizon` through: its latest auto-checkpoint (round 80, the
    // last multiple of 20 before the horizon of 96) is what a kill after
    // round 80 leaves behind.
    specs[2].run().expect("horizon runs");
    let horizon_at = read_checkpoint(&ckpts.join("horizon.ckpt"))
        .expect("read latest snapshot")
        .snapshot
        .round();
    assert_eq!(horizon_at, 80);
    println!(
        "crashed batch: 1/4 scenarios done, `inflight` checkpointed at round {}, \
         `horizon` at round {horizon_at}",
        latest.snapshot.round()
    );

    // --- Resume ----------------------------------------------------------
    let resumed = Driver::new()
        .resume_batch(&journal)
        .expect("journal replays");
    assert!(resumed.errors.is_empty(), "{:?}", resumed.errors);

    println!("\nresume ran {} scenario(s):", resumed.scenarios.len());
    for s in &resumed.scenarios {
        println!(
            "  {:<10} {:>3} rounds (max-avg {:.2})",
            s.name, s.report.rounds, s.report.final_metrics.max_minus_avg
        );
    }

    // `warmup` was skipped, `inflight` and `horizon` ran only the
    // remaining rounds from their snapshots, `untouched` ran in full — and
    // all three land on EXACTLY the state of the uninterrupted batch.
    assert_eq!(resumed.scenarios.len(), 3);
    let inflight = &resumed.scenarios[0];
    assert_eq!(inflight.name, "inflight");
    assert_eq!(inflight.report.rounds, 96 - latest.snapshot.round());
    assert_eq!(
        inflight.report.final_metrics,
        clean.scenarios[1].report.final_metrics
    );
    // The horizon run's statistics cover all 96 rounds and its switch
    // fired at round 40, before the checkpoint: both come back from the
    // snapshot's run-loop state.
    let (horizon, whole) = (&resumed.scenarios[1].report, &clean.scenarios[2].report);
    assert_eq!(resumed.scenarios[1].name, "horizon");
    assert_eq!(horizon.rounds, 96 - horizon_at);
    assert_eq!(whole.steady.map(|s| s.window), Some(96));
    assert_eq!(horizon.steady, whole.steady);
    assert_eq!(whole.switch_round, Some(40));
    assert_eq!(horizon.switch_round, whole.switch_round);
    assert_eq!(horizon.final_metrics, whole.final_metrics);
    assert_eq!(resumed.scenarios[2].report, clean.scenarios[3].report);

    // The resume journaled its own outcomes: running it again is a no-op.
    let again = Driver::new()
        .resume_batch(&journal)
        .expect("journal replays");
    assert!(again.scenarios.is_empty() && again.errors.is_empty());
    println!("\nsecond resume: nothing left to do — every outcome is journaled");
    println!("resumed `inflight` and `horizon` match the uninterrupted runs bit-for-bit");

    fs::remove_dir_all(&dir).ok();
}
