//! One scenario through the stable public API — parse, `build_graph`,
//! `experiment_on`, `Experiment::simulator`, `run_on` — either untraced
//! (end-to-end timing only) or with a span around every layer call.

use std::path::Path;

use sodiff_core::{write_checkpoint, NullObserver, RunReport, ScenarioSpec, SchemeSpec, Simulator};
use sodiff_graph::Graph;
use sodiff_linalg::spectral::{self, SpectralMethod};

use crate::host::{Secs, Stamp};
use crate::trace::{Captured, RoundClock, Tracer};

/// `total == initial + injected + joined − departed`, exactly.
pub fn conserved(sim: &Simulator<'_>, report: &RunReport) -> bool {
    let expected =
        sim.initial_total() + report.load.injected + report.churn.joined - report.churn.departed;
    sim.total_load() == expected
}

/// Timings and outputs of one untraced run.
pub struct Untraced {
    /// Parse, graph, experiment and simulator build.
    pub setup: Secs,
    /// Setup, round loop and teardown.
    pub total: Secs,
    pub report: RunReport,
    pub conserved: bool,
}

/// Parses `line` and runs it to its stop condition with a
/// [`NullObserver`]: setup is parse + graph + experiment + simulator,
/// the total also covers the round loop and the teardown.
pub fn run_untraced(line: &str) -> Result<Untraced, String> {
    let t0 = Stamp::now();
    let spec: ScenarioSpec = line.parse().map_err(|e| format!("parse: {e}"))?;
    let graph = spec.build_graph().map_err(|e| format!("graph: {e}"))?;
    let experiment = spec
        .experiment_on(&graph)
        .map_err(|e| format!("experiment: {e}"))?;
    let mut sim = experiment.simulator();
    let setup = t0.elapsed();
    let report = experiment.run_on(&mut sim, &mut NullObserver);
    let conserved = conserved(&sim, &report);
    drop(sim);
    drop(experiment);
    drop(graph);
    Ok(Untraced {
        setup,
        total: t0.elapsed(),
        report,
        conserved,
    })
}

/// How `λ` was obtained, in the three classes the trace counts.
pub fn spectral_class(method: SpectralMethod) -> &'static str {
    match method {
        SpectralMethod::DenseJacobi => "dense",
        SpectralMethod::PowerIteration => "power",
        _ => "analytic",
    }
}

/// Outputs and layer measurements of one traced run.
pub struct Traced {
    pub graph: Graph,
    pub report: RunReport,
    pub loop_s: f64,
    pub round_s: Vec<f64>,
    pub spectral: Option<&'static str>,
    pub beta: Option<f64>,
    pub state_bytes: usize,
    pub conserved: bool,
    pub captured: Option<Captured>,
    /// Seconds and file bytes of one `snapshot` + `write_checkpoint`.
    pub checkpoint: Option<(f64, u64)>,
}

/// Runs an already parsed `spec` with one span per layer call, under a
/// `scenario` span whose parent is `parent`.
///
/// For `scheme=sos_opt` the spectral analysis is timed on its own and its
/// `β` handed to `experiment_on` as `sos:β`, which resolves to the same
/// scheme, so the analysis is neither skipped nor counted twice. With
/// `capture_at`, the state is copied out at that round, or after the
/// last round if the run stops earlier. With `ckpt_path`, the final
/// state is snapshotted and written there.
pub fn run_traced(
    tr: &mut Tracer,
    parent: u64,
    scenario: u32,
    spec: &ScenarioSpec,
    capture_at: Option<u64>,
    ckpt_path: Option<&Path>,
) -> Result<Traced, String> {
    let root = tr.open("scenario", Some(parent), scenario);
    let at = Some(root.id);

    let h = tr.open("graph.build", at, scenario);
    let graph = spec.build_graph().map_err(|e| format!("graph: {e}"))?;
    tr.close(h);

    let mut resolved = spec.clone();
    let (spectral, beta) = if matches!(spec.scheme, SchemeSpec::SosOpt) {
        let h = tr.open("linalg.spectral", at, scenario);
        let speeds = spec
            .speeds
            .build(graph.node_count())
            .map_err(|e| format!("speeds: {e}"))?;
        let spectrum = spectral::analyze(&graph, &speeds);
        tr.close(h);
        if !(0.0..1.0).contains(&spectrum.lambda) {
            return Err(format!("lambda {} outside [0, 1)", spectrum.lambda));
        }
        let beta = spectrum.beta_opt();
        resolved.scheme = SchemeSpec::Sos { beta };
        (Some(spectral_class(spectrum.method)), Some(beta))
    } else {
        (None, None)
    };

    let h = tr.open("experiment.build", at, scenario);
    let experiment = resolved
        .experiment_on(&graph)
        .map_err(|e| format!("experiment: {e}"))?;
    tr.close(h);

    let h = tr.open("engine.sim_build", at, scenario);
    let mut sim = experiment.simulator();
    tr.close(h);
    let state_bytes = sim.state_bytes();

    let mut clock = RoundClock::new(capture_at);
    let h = tr.open("engine.rounds", at, scenario);
    clock.start();
    let report = experiment.run_on(&mut sim, &mut clock);
    let loop_s = tr.close(h);
    let conserved = conserved(&sim, &report);
    let mut captured = clock.captured.take();
    if captured.is_none() && capture_at.is_some() {
        let h = tr.open("trace.capture", at, scenario);
        captured = Captured::of(&sim);
        tr.close(h);
    }

    let checkpoint = match ckpt_path {
        Some(path) => {
            let h = tr.open("checkpoint.write", at, scenario);
            let snapshot = sim.snapshot();
            write_checkpoint(path, spec, &snapshot).map_err(|e| format!("checkpoint: {e}"))?;
            let secs = tr.close(h);
            let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
            Some((secs, bytes))
        }
        None => None,
    };

    let h = tr.open("engine.teardown", at, scenario);
    drop(sim);
    drop(experiment);
    tr.close(h);
    tr.close(root);
    Ok(Traced {
        graph,
        report,
        loop_s,
        round_s: clock.round_secs(),
        spectral,
        beta,
        state_bytes,
        conserved,
        captured,
        checkpoint,
    })
}
