//! Durable batch driving: journals, resume, and checkpoint restore.
//!
//! `Driver::run_batch_durable` journals every scenario up front and
//! appends a flushed `done`/`fail` line per outcome;
//! `Driver::resume_batch` replays that journal after a crash — skipping
//! finished work, restoring in-flight scenarios from their latest
//! `ckpt=` snapshot, and re-running the rest from round 0. This suite
//! drives those paths end-to-end, including a simulated mid-batch kill
//! and a rotten checkpoint that must quarantine only its own scenario.

use std::fs;
use std::path::PathBuf;

use sodiff::{
    read_checkpoint, write_checkpoint, CheckpointError, Driver, ScenarioFailure, ScenarioSpec,
    StopCondition,
};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sodiff-batch-{tag}-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn sample_specs() -> Vec<ScenarioSpec> {
    ScenarioSpec::parse_many(
        "name=torus topology=torus2d:6:6 scheme=sos:1.8 seed=4 stop=rounds:80\n\
         name=cube topology=hypercube:5 seed=5 stop=rounds:40\n\
         name=ring topology=cycle:12 seed=6 stop=rounds:60\n",
    )
    .unwrap()
}

#[test]
fn durable_batch_journals_every_outcome() {
    let dir = scratch_dir("journal");
    let journal = dir.join("batch.journal");
    let specs = ScenarioSpec::parse_many(
        "name=ok topology=cycle:8 seed=1 stop=rounds:5\n\
         name=broken topology=cycle:8 rounding=randomized\n\
         name=ok2 topology=cycle:8 seed=2 stop=rounds:5\n",
    )
    .unwrap();
    let report = Driver::new().run_batch_durable(&specs, &journal).unwrap();
    assert_eq!(report.scenarios.len(), 2);
    assert_eq!(report.errors.len(), 1);
    assert_eq!(report.total_attempts, 3);

    let text = fs::read_to_string(&journal).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines[0], "sodiff-journal v1");
    assert!(lines[1..=3].iter().all(|l| l.starts_with("spec name=")));
    let outcomes: Vec<&str> = lines[4..].to_vec();
    assert_eq!(outcomes.len(), 3, "one outcome line per scenario");
    assert!(outcomes.contains(&"done 0") && outcomes.contains(&"done 2"));
    assert!(
        outcomes.iter().any(|l| l.starts_with("fail 1 ")),
        "{outcomes:?}"
    );

    // Everything is accounted for: resuming a finished batch runs
    // nothing and reports nothing new.
    let resumed = Driver::new().resume_batch(&journal).unwrap();
    assert!(resumed.scenarios.is_empty() && resumed.errors.is_empty());
    assert_eq!(resumed.total_rounds, 0);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_runs_only_the_unfinished_remainder() {
    let dir = scratch_dir("remainder");
    let journal = dir.join("killed.journal");
    let specs = sample_specs();
    // Simulate a batch killed after its first scenario completed: the
    // journal has every spec but only one `done` line.
    let mut text = String::from("sodiff-journal v1\n");
    for spec in &specs {
        text.push_str(&format!("spec {spec}\n"));
    }
    text.push_str("done 0\n");
    fs::write(&journal, &text).unwrap();

    let clean = Driver::new().run_batch(&specs);
    for driver in [Driver::new(), Driver::concurrent(2).unwrap()] {
        fs::write(&journal, &text).unwrap();
        let resumed = driver.resume_batch(&journal).unwrap();
        assert!(resumed.errors.is_empty(), "{:?}", resumed.errors);
        assert_eq!(resumed.scenarios.len(), 2, "only the unfinished two ran");
        assert_eq!(resumed.scenarios[0].name, "cube");
        assert_eq!(resumed.scenarios[1].name, "ring");
        // Re-run scenarios are bit-identical to the uninterrupted batch.
        assert_eq!(resumed.scenarios[0].report, clean.scenarios[1].report);
        assert_eq!(resumed.scenarios[1].report, clean.scenarios[2].report);
        // The resume appended its own outcomes: a second resume is a
        // no-op.
        let again = driver.resume_batch(&journal).unwrap();
        assert!(again.scenarios.is_empty() && again.errors.is_empty());
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_restores_in_flight_scenario_from_checkpoint() {
    let dir = scratch_dir("inflight");
    let ckpt_dir = dir.join("ckpts");
    let journal = dir.join("crashed.journal");
    let line = format!(
        "name=inflight topology=torus2d:8:8 rounding=nearest scheme=sos:1.7 init=point:0:6400 \
         faults=crash:0.1:7 ckpt=every:8:{} stop=rounds:40",
        ckpt_dir.display()
    );
    let spec: ScenarioSpec = line.parse().unwrap();

    // Simulate the crash: the scenario ran 24 of 40 rounds (three
    // auto-checkpoints) before the process died — journal has the spec
    // but no outcome, and the latest snapshot sits at round 24.
    let graph = spec.build_graph().unwrap();
    let experiment = spec.experiment_on(&graph).unwrap();
    let mut sim = experiment.simulator();
    sim.run_until(StopCondition::MaxRounds(24));
    let latest = ckpt_dir.join("inflight.ckpt");
    assert_eq!(
        read_checkpoint(&latest).unwrap().snapshot.round(),
        24,
        "the ckpt= key wrote the in-flight snapshot"
    );
    fs::write(&journal, format!("sodiff-journal v1\nspec {spec}\n")).unwrap();

    let resumed = Driver::new().resume_batch(&journal).unwrap();
    assert!(resumed.errors.is_empty(), "{:?}", resumed.errors);
    assert_eq!(resumed.scenarios.len(), 1);
    let scenario = &resumed.scenarios[0];
    assert_eq!(
        scenario.report.rounds, 16,
        "resume covers only the remaining rounds"
    );
    // The restored run ends in exactly the state of an uninterrupted one.
    let clean = spec.run().unwrap();
    assert_eq!(scenario.report.final_metrics, clean.final_metrics);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn rotten_checkpoint_quarantines_only_its_scenario() {
    let dir = scratch_dir("rotten");
    let ckpt_dir = dir.join("ckpts");
    fs::create_dir_all(&ckpt_dir).unwrap();
    let journal = dir.join("rotten.journal");
    let lines = format!(
        "name=rotten topology=cycle:12 seed=6 ckpt=every:8:{d} stop=rounds:60\n\
         name=healthy topology=hypercube:5 seed=5 stop=rounds:40\n",
        d = ckpt_dir.display()
    );
    let specs = ScenarioSpec::parse_many(&lines).unwrap();
    // A checkpoint that is present but bit-rotted.
    fs::write(ckpt_dir.join("rotten.ckpt"), b"SODIFFCK garbage").unwrap();
    let mut text = String::from("sodiff-journal v1\n");
    for spec in &specs {
        text.push_str(&format!("spec {spec}\n"));
    }
    fs::write(&journal, &text).unwrap();

    let resumed = Driver::new().resume_batch(&journal).unwrap();
    // The healthy scenario ran; the rotten one was quarantined with a
    // typed, line-anchored error and was NOT silently re-run.
    assert_eq!(resumed.scenarios.len(), 1);
    assert_eq!(resumed.scenarios[0].name, "healthy");
    assert_eq!(resumed.errors.len(), 1);
    let err = &resumed.errors[0];
    assert_eq!((err.index, err.name.as_str()), (0, "rotten"));
    assert_eq!(err.line, Some(2), "anchored to the journal's spec line");
    assert!(
        matches!(&err.error, ScenarioFailure::Checkpoint(_)),
        "{:?}",
        err.error
    );
    assert_eq!(
        resumed.total_attempts, 1,
        "only the healthy scenario ran; the rotten one never started"
    );
    // The failure was journaled, so the next resume has nothing to do.
    let again = Driver::new().resume_batch(&journal).unwrap();
    assert!(again.scenarios.is_empty() && again.errors.is_empty());
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn mismatched_checkpoint_is_refused() {
    // A checkpoint written by a DIFFERENT scenario under the name the
    // journal expects must be refused (Mismatch), not restored.
    let dir = scratch_dir("mismatch");
    let ckpt_dir = dir.join("ckpts");
    let journal = dir.join("mismatch.journal");
    let imposter: ScenarioSpec = "name=imposter topology=cycle:12 seed=1 stop=rounds:30"
        .parse()
        .unwrap();
    let graph = imposter.build_graph().unwrap();
    let experiment = imposter.experiment_on(&graph).unwrap();
    let mut sim = experiment.simulator();
    sim.run_until(StopCondition::MaxRounds(10));
    fs::create_dir_all(&ckpt_dir).unwrap();
    write_checkpoint(&ckpt_dir.join("victim.ckpt"), &imposter, &sim.snapshot()).unwrap();

    let line = format!(
        "name=victim topology=cycle:12 seed=6 ckpt=every:8:{} stop=rounds:60",
        ckpt_dir.display()
    );
    let spec: ScenarioSpec = line.parse().unwrap();
    fs::write(&journal, format!("sodiff-journal v1\nspec {spec}\n")).unwrap();
    let resumed = Driver::new().resume_batch(&journal).unwrap();
    assert!(resumed.scenarios.is_empty());
    assert_eq!(resumed.errors.len(), 1);
    match &resumed.errors[0].error {
        ScenarioFailure::Checkpoint(CheckpointError::Mismatch(msg)) => {
            assert!(msg.contains("imposter"), "{msg}");
        }
        other => panic!("unexpected {other:?}"),
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_journals_error_with_line_numbers() {
    let dir = scratch_dir("malformed");
    let journal = dir.join("bad.journal");

    fs::write(&journal, "wrong header\n").unwrap();
    assert!(matches!(
        Driver::new().resume_batch(&journal).unwrap_err(),
        CheckpointError::Journal { line: 1, .. }
    ));

    fs::write(&journal, "sodiff-journal v1\nspec name=x topology=warp:9\n").unwrap();
    assert!(matches!(
        Driver::new().resume_batch(&journal).unwrap_err(),
        CheckpointError::Journal { line: 2, .. }
    ));

    fs::write(&journal, "sodiff-journal v1\ndone 7\n").unwrap();
    assert!(matches!(
        Driver::new().resume_batch(&journal).unwrap_err(),
        CheckpointError::Journal { line: 2, .. }
    ));

    let missing = dir.join("missing.journal");
    assert!(matches!(
        Driver::new().resume_batch(&missing).unwrap_err(),
        CheckpointError::Io { .. }
    ));
    fs::remove_dir_all(&dir).ok();
}

/// A durable batch refuses, before it creates the journal, a spec whose
/// line does not parse back: journaling it would make the whole journal
/// unreadable to `resume_batch`.
#[test]
fn durable_batch_refuses_a_spec_that_does_not_parse_back() {
    let dir = scratch_dir("parse-back");
    let journal = dir.join("batch.journal");
    let good: ScenarioSpec = "name=good topology=cycle:8 seed=1 stop=rounds:5"
        .parse()
        .unwrap();
    let mut nan = good.clone();
    nan.name = "nan-threshold".into();
    nan.stop = StopCondition::BalancedWithin {
        threshold: f64::NAN,
        max_rounds: 5,
    };
    match Driver::new().run_batch_durable(&[good.clone(), nan], &journal) {
        Err(CheckpointError::Spec(e)) => {
            assert_eq!(e.line, 2, "the spec's 1-based batch position");
            assert!(e.message.contains("nan-threshold"), "{e}");
        }
        other => panic!("expected a typed spec error, got {other:?}"),
    }
    assert!(!journal.exists(), "no journal is created");

    // A name that `Display` sanitizes still reads back: it is journaled
    // as `name=my_scenario` / `name=a_b`, runs, and resumes.
    let mut spaced = good.clone();
    spaced.name = "my scenario".into();
    let mut keyed = good;
    keyed.name = "a=b".into();
    let report = Driver::new()
        .run_batch_durable(&[spaced, keyed], &journal)
        .unwrap();
    assert_eq!(report.scenarios.len(), 2);
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    let text = fs::read_to_string(&journal).unwrap();
    assert!(text.contains("spec name=my_scenario ") && text.contains("spec name=a_b "));
    // Drop the outcome lines so the resume has to read both specs back
    // and run them again.
    let specs_only: String = text
        .lines()
        .filter(|l| !l.starts_with("done "))
        .map(|l| format!("{l}\n"))
        .collect();
    fs::write(&journal, specs_only).unwrap();
    let resumed = Driver::new().resume_batch(&journal).unwrap();
    assert_eq!(resumed.scenarios.len(), 2);
    assert!(resumed.errors.is_empty(), "{:?}", resumed.errors);
    assert_eq!(resumed.total_rounds, report.total_rounds);
    fs::remove_dir_all(&dir).ok();
}
