//! The `mixed_sweep` workload: a scenario file of small runs through the
//! batch driver.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use sodiff_core::{BatchReport, Driver, ScenarioSpec, SchemeSpec};
use sodiff_graph::TopologySpec;

use crate::host::{Secs, Stamp};
use crate::phases;
use crate::pipeline::{run_traced, Traced};
use crate::report::{median, quantile, Checks, Metrics};
use crate::trace::Tracer;
use crate::{derive_seed, Ctx};

/// Scenarios the driver runs at once (one per core of a 2-core host).
const WORKERS: usize = 2;
/// Repetitions (a build-only pass plus a driver batch) per run, however
/// short `--seconds` is.
const MIN_REPS: usize = 2;
/// The scenario whose graph and state the kernel phases are timed on,
/// and the round it copies its state out at.
const PHASE_SCENARIO: &str = "torus_sos_nearest";
const PHASE_CAPTURE_ROUND: u64 = 100;

/// A random topology of `kind` (`kind:SEED` text) whose seed is derived
/// from the workload seed; seeds giving a disconnected graph are skipped,
/// so every derived sweep runs `sos_opt` on a connected instance.
fn connected_topology(kind: &str, seed: u64, salt: u64) -> Result<String, String> {
    for k in 0..64 {
        let text = format!("{kind}:{}", derive_seed(seed, salt * 1000 + k));
        let spec: TopologySpec = text.parse().map_err(|e| format!("{text}: {e}"))?;
        let graph = spec.build().map_err(|e| format!("{text}: {e}"))?;
        if graph.is_connected() {
            return Ok(text);
        }
    }
    Err(format!("no connected {kind} instance in 64 seeds"))
}

/// The sweep's scenario file for `seed`, checkpointing into `ckpt_dir`.
///
/// * every scheme × topology family × {randomized, nearest} rounding,
///   from the paper's point load to `balanced:30:400`. Each scenario on a
///   random family draws its own instance, so instance-dependent costs
///   average over ten instances per family instead of repeating one.
///   `sos_opt` runs power iteration on the random regular graphs, whose
///   spectral gap hardly varies between instances. Power iteration took
///   1.5–6 s on the geometric graph and 75–680 ms on the configuration
///   model depending on the instance, which made the sweep's cost follow
///   the seed, so SOS runs there with a fixed `β` (1.9 and 1.5);
/// * crash + edge-drop faults and Poisson load from the point load, and
///   node churn from an even load of 1000 per node (arrivals join at the
///   same 1000, as a growing cluster would), on the torus and the
///   hypercube under FOS, SOS and random matching, at `horizon:300`;
/// * FOS, SOS and dimension exchange on both with `ckpt=every:32`.
pub fn scenario_text(seed: u64, ckpt_dir: &Path) -> Result<String, String> {
    // (name, topology or random kind, salt of a random kind's seeds)
    let families = [
        ("torus", "torus2d:64:64", None),
        ("cube", "hypercube:12", None),
        ("rr", "random_regular:640:6", Some(10)),
        ("rgg", "rgg:512", Some(11)),
        ("cm", "random_cm:640", Some(12)),
    ];
    let rseed = derive_seed(seed, 20);
    let mseed = derive_seed(seed, 21);
    let random_matching = format!("matching:random:{mseed}:1");
    let schemes = [
        ("fos", "fos"),
        ("sos", "sos_opt"),
        ("de", "de:1"),
        ("mrr", "matching:rr:1"),
        ("mrand", random_matching.as_str()),
    ];
    let common = format!("mode=discrete seed={rseed}");
    let mut lines = Vec::new();
    for (t, kind, salt) in families {
        for (si, (s, scheme)) in schemes.into_iter().enumerate() {
            let scheme = match (t, s) {
                ("rgg", "sos") => "sos:1.9",
                ("cm", "sos") => "sos:1.5",
                _ => scheme,
            };
            for (ri, rounding) in ["randomized", "nearest"].into_iter().enumerate() {
                let topo = match salt {
                    Some(salt) => {
                        let salt = salt * 16 + (2 * si + ri) as u64;
                        connected_topology(kind, seed, salt)?
                    }
                    None => kind.to_string(),
                };
                lines.push(format!(
                    "name={t}_{s}_{rounding} topology={topo} scheme={scheme} {common} \
                     rounding={rounding} init=paper stop=balanced:30:400"
                ));
            }
        }
    }
    let axes = [
        (
            "faults",
            format!(
                "faults=crash:0.02:{}+edgedrop:0.05:{} init=paper",
                derive_seed(seed, 30),
                derive_seed(seed, 31)
            ),
        ),
        (
            "load",
            format!("load=poisson:2:{} init=paper", derive_seed(seed, 32)),
        ),
        (
            "churn",
            format!(
                "churn=flux:0.02:0.2:{}:1000 init=equal:1000",
                derive_seed(seed, 33)
            ),
        ),
    ];
    for (t, topo, _) in &families[..2] {
        for (s, scheme) in [schemes[0], schemes[1], schemes[4]] {
            for (a, key) in &axes {
                lines.push(format!(
                    "name={t}_{s}_{a} topology={topo} scheme={scheme} {common} \
                     rounding=randomized stop=horizon:300 {key}"
                ));
            }
        }
        for (s, scheme) in &schemes[..3] {
            lines.push(format!(
                "name={t}_{s}_ckpt topology={topo} scheme={scheme} {common} \
                 rounding=randomized init=paper stop=balanced:30:400 ckpt=every:32:{}",
                ckpt_dir.display()
            ));
        }
    }
    Ok(lines.join("\n"))
}

fn ckpt_dir(ctx: &Ctx) -> PathBuf {
    ctx.out_dir()
        .join(format!("ckpt-{}-{}", std::process::id(), ctx.seed))
}

/// Parses the sweep and builds every scenario's graph, experiment and
/// simulator without running a round; returns the time it took.
fn setup_pass(text: &str) -> Result<Secs, String> {
    let t = Stamp::now();
    let specs = ScenarioSpec::parse_many(text).map_err(|e| e.to_string())?;
    for spec in &specs {
        let graph = spec
            .build_graph()
            .map_err(|e| format!("{}: {e}", spec.name))?;
        let experiment = spec
            .experiment_on(&graph)
            .map_err(|e| format!("{}: {e}", spec.name))?;
        std::hint::black_box(experiment.simulator());
    }
    Ok(t.elapsed())
}

fn check_batch(batch: &BatchReport, specs: &[ScenarioSpec], checks: &mut Checks) {
    for e in &batch.errors {
        checks.check(false, || format!("scenario error: {e}"));
    }
    checks.check(batch.scenarios.len() == specs.len(), || {
        format!(
            "{} of {} scenarios reported",
            batch.scenarios.len(),
            specs.len()
        )
    });
}

/// Every scenario of `b` has the same rounds, final metrics and event
/// counters as in `a` (one check per scenario).
fn check_same(a: &BatchReport, b: &BatchReport, what: &str, checks: &mut Checks) {
    for (x, y) in a.scenarios.iter().zip(&b.scenarios) {
        checks.check(x.name == y.name && x.report == y.report, || {
            format!("{what}: scenario {} differs", x.name)
        });
    }
}

fn load_specs(ctx: &Ctx, checks: &mut Checks) -> Option<(String, Vec<ScenarioSpec>)> {
    let text = match scenario_text(ctx.seed, &ckpt_dir(ctx)) {
        Ok(t) => t,
        Err(e) => {
            checks.check(false, || e);
            return None;
        }
    };
    match ScenarioSpec::parse_many(&text) {
        Ok(specs) => Some((text, specs)),
        Err(e) => {
            checks.check(false, || format!("parse: {e}"));
            None
        }
    }
}

/// Untraced: repeats for `--seconds` (at least [`MIN_REPS`] times) one
/// build-only pass, behind `setup_s`, and one `Driver::concurrent(2)`
/// batch, behind `cpu_s`; then one `Driver::new()` batch. Every batch
/// must report what the first did.
pub fn run(ctx: &Ctx, checks: &mut Checks, metrics: &mut Metrics) {
    let Some((text, specs)) = load_specs(ctx, checks) else {
        return;
    };
    let driver = Driver::concurrent(WORKERS).expect("WORKERS is positive");
    let start = Instant::now();
    let mut setups: Vec<Secs> = Vec::new();
    let mut batches: Vec<(BatchReport, Secs)> = Vec::new();
    while crate::repeat_again(batches.len(), MIN_REPS, start, ctx.seconds) {
        match setup_pass(&text) {
            Ok(secs) => setups.push(secs),
            Err(e) => return checks.check(false, || e),
        }
        let t = Stamp::now();
        let batch = driver.run_batch(&specs);
        let secs = t.elapsed();
        check_batch(&batch, &specs, checks);
        if let Some((first, _)) = batches.first() {
            check_same(first, &batch, "repeated batch", checks);
        }
        batches.push((batch, secs));
    }
    let serial = Driver::new().run_batch(&specs);
    check_batch(&serial, &specs, checks);
    check_same(
        &batches[0].0,
        &serial,
        "sequential vs concurrent driver",
        checks,
    );
    let _ = std::fs::remove_dir_all(ckpt_dir(ctx));

    let cpus: Vec<f64> = batches.iter().map(|(_, t)| t.cpu).collect();
    let makespans: Vec<f64> = batches
        .iter()
        .map(|(b, _)| b.total_wall.as_secs_f64())
        .collect();
    let setup_cpus: Vec<f64> = setups.iter().map(|t| t.cpu).collect();
    let first = &batches[0].0;
    metrics.set("cpu_s", median(&cpus), "s");
    metrics.set("setup_s", median(&setup_cpus), "s");
    metrics.set("peak_rss_mb", crate::host::peak_rss_mb(), "MB");
    metrics.set("rounds", first.total_rounds as f64, "count");
    metrics.set("final_max_minus_avg", first.worst_max_minus_avg, "tokens");
    ctx.samples("reps", batches.len());
    ctx.values("cpu_s", &cpus);
    ctx.values("setup_s", &setup_cpus);
    ctx.values("wall_s", &makespans);
    ctx.meta("scenarios", specs.len().to_string());
}

/// Which `engine.ns_per_edge.*` split a scenario belongs to: its
/// perturbation axis if it has one, else its scheme.
fn split_of(spec: &ScenarioSpec) -> &'static str {
    if !spec.faults.is_none() {
        "faults"
    } else if !spec.load.is_none() {
        "load"
    } else if !spec.churn.is_none() {
        "churn"
    } else if spec.ckpt.is_some() {
        "ckpt"
    } else {
        match spec.scheme {
            SchemeSpec::Fos => "fos",
            SchemeSpec::Sos { .. } | SchemeSpec::SosOpt => "sos",
            SchemeSpec::De { .. } => "de",
            SchemeSpec::MatchingRr { .. } => "matching_rr",
            SchemeSpec::MatchingRandom { .. } => "matching_random",
        }
    }
}

/// Traced: one `Driver::concurrent(2)` batch (the driver metrics), one
/// `Driver::new()` batch (which must report the same, and is the
/// untraced baseline of the trace overhead), then the same scenarios in
/// order on one thread with a span per layer call, then kernel phase and
/// matching timings on one scenario's graph.
pub fn run_traced_workload(ctx: &Ctx, checks: &mut Checks, metrics: &mut Metrics) {
    let Some((text, specs)) = load_specs(ctx, checks) else {
        return;
    };
    let driver = Driver::concurrent(WORKERS).expect("WORKERS is positive");
    let batch = driver.run_batch(&specs);
    check_batch(&batch, &specs, checks);
    let serial = Driver::new().run_batch(&specs);
    check_batch(&serial, &specs, checks);
    check_same(&batch, &serial, "sequential vs concurrent driver", checks);
    let makespan = batch.total_wall.as_secs_f64();
    let walls_ms: Vec<f64> = batch
        .scenarios
        .iter()
        .map(|s| s.wall.as_secs_f64() * 1e3)
        .collect();
    let wall_sum = walls_ms.iter().sum::<f64>() / 1e3;

    let dir = ckpt_dir(ctx);
    let mut tr = Tracer::new(ctx.epoch, 0);
    let worker = tr.open("worker", None, u32::MAX);
    let h = tr.open("scenario.parse", Some(worker.id), u32::MAX);
    let parsed = ScenarioSpec::parse_many(&text);
    tr.close(h);
    let specs = parsed.expect("parsed above");
    let runs: Vec<Result<Traced, String>> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let capture = (spec.name == PHASE_SCENARIO).then_some(PHASE_CAPTURE_ROUND);
            let ckpt = spec
                .ckpt
                .as_ref()
                .map(|_| dir.join(format!("{}-final.ckpt", spec.name)));
            run_traced(&mut tr, worker.id, i as u32, spec, capture, ckpt.as_deref())
        })
        .collect();
    let traced_wall = tr.close(worker);
    let _ = std::fs::remove_dir_all(&dir);

    let results: Vec<Traced> = runs
        .into_iter()
        .zip(&specs)
        .filter_map(|(run, spec)| match run {
            Ok(t) => Some(t),
            Err(e) => {
                checks.check(false, || format!("{}: {e}", spec.name));
                None
            }
        })
        .collect();
    if results.len() != specs.len() {
        return;
    }
    for ((t, spec), driven) in results.iter().zip(&specs).zip(&batch.scenarios) {
        checks.check(t.conserved, || {
            format!("{}: load is not conserved", spec.name)
        });
        checks.check(t.report == driven.report, || {
            format!("{}: traced run differs from the driver's", spec.name)
        });
    }

    let mut absent = Vec::new();
    metrics.set("scenario.parse_ms", tr.total("scenario.parse") * 1e3, "ms");
    metrics.set("graph.build_s", tr.total("graph.build"), "s");
    let graph_bytes: usize = results.iter().map(|t| t.graph.memory_bytes()).sum();
    metrics.set("graph.bytes", graph_bytes as f64, "bytes");
    metrics.set("linalg.spectral_s", tr.total("linalg.spectral"), "s");
    for class in ["analytic", "dense", "power"] {
        let calls = results.iter().filter(|t| t.spectral == Some(class)).count();
        metrics.set(
            &format!("linalg.spectral_calls.{class}"),
            calls as f64,
            "count",
        );
    }
    metrics.set("experiment.build_s", tr.total("experiment.build"), "s");
    metrics.set("engine.sim_build_s", tr.total("engine.sim_build"), "s");
    let state_bytes: usize = results.iter().map(|t| t.state_bytes).sum();
    metrics.set("engine.state_bytes", state_bytes as f64, "bytes");
    let round_ms: Vec<f64> = results
        .iter()
        .flat_map(|t| t.round_s.iter().map(|s| s * 1e3))
        .collect();
    ctx.samples("round_ms", round_ms.len());
    metrics.set("engine.round_ms_p50", median(&round_ms), "ms");
    metrics.set("engine.round_ms_p99", quantile(&round_ms, 0.99), "ms");
    let ns_per_edge = |filter: &dyn Fn(&ScenarioSpec) -> bool| {
        let (mut secs, mut updates) = (0.0, 0.0);
        for (t, spec) in results.iter().zip(&specs) {
            if filter(spec) {
                secs += t.loop_s;
                updates += t.report.rounds as f64 * t.graph.edge_count() as f64;
            }
        }
        secs * 1e9 / updates
    };
    metrics.set("engine.ns_per_edge", ns_per_edge(&|_| true), "ns");
    for split in crate::ENGINE_SPLITS {
        metrics.set(
            &format!("engine.ns_per_edge.{split}"),
            ns_per_edge(&|s| split_of(s) == split),
            "ns",
        );
    }
    metrics.absent("pool.speedup_t2", "ratio", &mut absent);
    metrics.absent("pool.serial_fraction", "fraction", &mut absent);

    let phase_run = specs
        .iter()
        .position(|s| s.name == PHASE_SCENARIO)
        .map(|i| &results[i]);
    let phase_times = phase_run.and_then(|t| {
        let state = t.captured.as_ref()?;
        Some(phases::measure(
            &t.graph,
            state,
            t.beta.unwrap_or(1.0),
            false,
            derive_seed(ctx.seed, 20),
            Duration::from_millis(100),
        ))
    });
    checks.check(phase_times.is_some(), || {
        format!("no state of {PHASE_SCENARIO} to time the kernel phases on")
    });
    crate::set_phase_metrics(metrics, phase_times.as_ref(), &mut absent);
    match phase_run {
        Some(t) => {
            let (n, m) = (t.graph.node_count(), t.graph.edge_count());
            let bytes = phases::bytes_per_edge(n, m, false) * m as f64 * t.report.rounds as f64;
            metrics.set("kernel.achieved_gbps", bytes / t.loop_s / 1e9, "GB/s");
            metrics.set(
                "matchgen.ns_per_edge",
                phases::matchgen_ns_per_edge(
                    &t.graph,
                    derive_seed(ctx.seed, 21),
                    Duration::from_millis(100),
                ),
                "ns",
            );
        }
        None => {
            metrics.absent("kernel.achieved_gbps", "GB/s", &mut absent);
            metrics.absent("matchgen.ns_per_edge", "ns", &mut absent);
        }
    }

    let mut events = [0.0; 3];
    for t in &results {
        for (sum, e) in events.iter_mut().zip(crate::event_counts(&t.report)) {
            *sum += e;
        }
    }
    metrics.set("perturb.events.faults", events[0], "count");
    metrics.set("perturb.events.load", events[1], "count");
    metrics.set("perturb.events.churn", events[2], "count");
    let ckpts: Vec<(f64, u64)> = results.iter().filter_map(|t| t.checkpoint).collect();
    checks.check(!ckpts.is_empty() && ckpts.iter().all(|c| c.1 > 0), || {
        "checkpoint scenarios wrote no files".into()
    });
    let write_ms: Vec<f64> = ckpts.iter().map(|c| c.0 * 1e3).collect();
    let ckpt_bytes: Vec<f64> = ckpts.iter().map(|c| c.1 as f64).collect();
    metrics.set("checkpoint.write_ms", median(&write_ms), "ms");
    metrics.set("checkpoint.bytes", median(&ckpt_bytes), "bytes");
    ctx.samples("checkpoint", ckpts.len());

    metrics.set(
        "driver.efficiency",
        wall_sum / (WORKERS as f64 * makespan),
        "fraction",
    );
    metrics.set(
        "driver.straggler_ms",
        (makespan - wall_sum / WORKERS as f64) * 1e3,
        "ms",
    );
    metrics.set("driver.scenario_ms_p50", median(&walls_ms), "ms");
    metrics.set("driver.scenario_ms_p90", quantile(&walls_ms, 0.9), "ms");
    ctx.samples("driver.scenario_ms", walls_ms.len());
    metrics.set("driver.attempts", batch.total_attempts as f64, "count");
    ctx.meta("scenarios", specs.len().to_string());

    let unaccounted = tr.unaccounted_frac();
    crate::finish_traced(
        ctx,
        checks,
        metrics,
        &tr,
        traced_wall,
        serial.total_wall.as_secs_f64(),
        unaccounted,
        absent,
    );
}
