//! The `torus_sos_balance` workload: one SOS simulation on a 256² torus,
//! run to a balance target.

use std::time::{Duration, Instant};

use sodiff_core::{ScenarioSpec, StopReason};

use crate::phases;
use crate::pipeline::{run_traced, run_untraced, Untraced};
use crate::report::{median, quantile, Checks, Metrics};
use crate::trace::Tracer;
use crate::{derive_seed, Ctx};

/// Balance target of `torus_sos_balance`, in tokens of `max − avg`.
const BALANCE_THRESHOLD: f64 = 30.0;
/// Untraced repetitions of one run, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Round at which the traced balance run copies its state out for the
/// kernel phase timings: mid-way to balance.
const BALANCE_CAPTURE_ROUND: u64 = 340;

/// The scenario line for `seed`: SOS + randomized rounding on the 2-thread
/// pool, until `max − avg` reaches the target.
pub fn spec_line(seed: u64) -> String {
    let rounding_seed = derive_seed(seed, 1);
    format!(
        "name=torus_sos_balance topology=torus2d:256:256 scheme=sos_opt mode=discrete \
         rounding=randomized seed={rounding_seed} init=paper \
         stop=balanced:{BALANCE_THRESHOLD}:5000 threads=2"
    )
}

fn check_run(run: &Untraced, checks: &mut Checks) {
    let r = &run.report;
    checks.check(run.conserved, || "load is not conserved".into());
    checks.check(r.reason == StopReason::Threshold, || {
        format!(
            "stopped by {:?} after {} rounds, not at the balance target",
            r.reason, r.rounds
        )
    });
    checks.check(r.final_metrics.max_minus_avg <= BALANCE_THRESHOLD, || {
        format!(
            "final max - avg {} above the target",
            r.final_metrics.max_minus_avg
        )
    });
}

/// Untraced: repeats the whole run (setup included) for `--seconds`, at
/// least [`MIN_REPS`] times, and reports medians of its CPU times.
pub fn run(ctx: &Ctx, checks: &mut Checks, metrics: &mut Metrics) {
    let line = spec_line(ctx.seed);
    let start = Instant::now();
    let mut runs: Vec<Untraced> = Vec::new();
    while crate::repeat_again(runs.len(), MIN_REPS, start, ctx.seconds) {
        match run_untraced(&line) {
            Ok(run) => {
                check_run(&run, checks);
                if let Some(first) = runs.first() {
                    checks.check(run.report == first.report, || {
                        "repeated run of the same seed gave another report".into()
                    });
                }
                runs.push(run);
            }
            Err(e) => {
                checks.check(false, || e);
                return;
            }
        }
    }
    let cpus: Vec<f64> = runs.iter().map(|r| r.total.cpu).collect();
    let setups: Vec<f64> = runs.iter().map(|r| r.setup.cpu).collect();
    let walls: Vec<f64> = runs.iter().map(|r| r.total.wall).collect();
    let first = &runs[0].report;
    metrics.set("cpu_s", median(&cpus), "s");
    metrics.set("setup_s", median(&setups), "s");
    metrics.set("peak_rss_mb", crate::host::peak_rss_mb(), "MB");
    metrics.set("rounds", first.rounds as f64, "count");
    metrics.set(
        "final_max_minus_avg",
        first.final_metrics.max_minus_avg,
        "tokens",
    );
    ctx.samples("runs", runs.len());
    ctx.values("cpu_s", &cpus);
    ctx.values("setup_s", &setups);
    ctx.values("wall_s", &walls);
}

/// Traced: one untraced run for the overhead baseline, one run with a
/// span per layer call and a timestamp per round, then the same run at
/// t=1 for the pool speed-up, then kernel phase timings on the traced
/// run's graph and mid-run state.
pub fn run_traced_workload(ctx: &Ctx, checks: &mut Checks, metrics: &mut Metrics) {
    let line = spec_line(ctx.seed);
    let untraced = match run_untraced(&line) {
        Ok(u) => u,
        Err(e) => return checks.check(false, || e),
    };
    check_run(&untraced, checks);

    let mut tr = Tracer::new(ctx.epoch, 0);
    let worker = tr.open("worker", None, 0);
    let h = tr.open("scenario.parse", Some(worker.id), 0);
    let parsed = ScenarioSpec::parse_many(&line);
    tr.close(h);
    let spec = match parsed {
        Ok(mut specs) if specs.len() == 1 => specs.remove(0),
        other => return checks.check(false, || format!("parse: {:?}", other.err())),
    };
    let traced = run_traced(
        &mut tr,
        worker.id,
        0,
        &spec,
        Some(BALANCE_CAPTURE_ROUND),
        None,
    );
    tr.close(worker);
    let traced = match traced {
        Ok(t) => t,
        Err(e) => return checks.check(false, || e),
    };
    checks.check(traced.conserved, || {
        "traced run: load is not conserved".into()
    });
    checks.check(traced.report == untraced.report, || {
        "traced run's report differs from the untraced run's".into()
    });

    let (nodes, edges) = (traced.graph.node_count(), traced.graph.edge_count());
    let rounds = traced.report.rounds as f64;
    let round_ms: Vec<f64> = traced.round_s.iter().map(|s| s * 1e3).collect();
    ctx.samples("round_ms", round_ms.len());

    // Pool speed-up: the same rounds at t=1, which must end bit-identical.
    // Its spans go to a tracer of their own, kept out of the layer totals.
    let mut t1_tr = Tracer::new(ctx.epoch, 1);
    let mut t1_spec = spec.clone();
    t1_spec.threads = 1;
    let anchor = t1_tr.open("pool.t1", None, 1);
    let t1 = run_traced(&mut t1_tr, anchor.id, 1, &t1_spec, None, None);
    t1_tr.close(anchor);
    let pool = match t1 {
        Ok(t1) => {
            let same = t1.report.rounds == traced.report.rounds
                && snapshot_bits(&t1.report.final_metrics)
                    == snapshot_bits(&traced.report.final_metrics);
            checks.check(same, || "t=1 and t=2 final metrics differ".into());
            let speedup = t1.loop_s / traced.loop_s;
            Some((speedup, 2.0 / speedup - 1.0))
        }
        Err(e) => {
            checks.check(false, || e);
            None
        }
    };

    let beta = traced.beta.unwrap_or(1.0);
    let phases = traced.captured.as_ref().map(|state| {
        phases::measure(
            &traced.graph,
            state,
            beta,
            true,
            derive_seed(ctx.seed, 1),
            Duration::from_millis(250),
        )
    });
    checks.check(phases.is_some(), || {
        "no mid-run state to time the kernel phases on".into()
    });

    let report = &traced.report;
    let mut absent = Vec::new();
    metrics.set("scenario.parse_ms", tr.total("scenario.parse") * 1e3, "ms");
    metrics.set("graph.build_s", tr.total("graph.build"), "s");
    metrics.set("graph.bytes", traced.graph.memory_bytes() as f64, "bytes");
    metrics.set("linalg.spectral_s", tr.total("linalg.spectral"), "s");
    for class in ["analytic", "dense", "power"] {
        let calls = u8::from(traced.spectral == Some(class));
        metrics.set(
            &format!("linalg.spectral_calls.{class}"),
            f64::from(calls),
            "count",
        );
    }
    metrics.set("experiment.build_s", tr.total("experiment.build"), "s");
    metrics.set("engine.sim_build_s", tr.total("engine.sim_build"), "s");
    metrics.set("engine.state_bytes", traced.state_bytes as f64, "bytes");
    metrics.set("engine.round_ms_p50", median(&round_ms), "ms");
    metrics.set("engine.round_ms_p99", quantile(&round_ms, 0.99), "ms");
    metrics.set(
        "engine.ns_per_edge",
        traced.loop_s * 1e9 / (rounds * edges as f64),
        "ns",
    );
    for split in crate::ENGINE_SPLITS {
        metrics.absent(&format!("engine.ns_per_edge.{split}"), "ns", &mut absent);
    }
    match pool {
        Some((speedup, serial)) => {
            metrics.set("pool.speedup_t2", speedup, "ratio");
            metrics.set("pool.serial_fraction", serial, "fraction");
        }
        None => {
            metrics.absent("pool.speedup_t2", "ratio", &mut absent);
            metrics.absent("pool.serial_fraction", "fraction", &mut absent);
        }
    }
    crate::set_phase_metrics(metrics, phases.as_ref(), &mut absent);
    let bytes_per_edge = phases::bytes_per_edge(nodes, edges, true);
    metrics.set(
        "kernel.achieved_gbps",
        bytes_per_edge * edges as f64 * rounds / traced.loop_s / 1e9,
        "GB/s",
    );
    metrics.absent("matchgen.ns_per_edge", "ns", &mut absent);
    let events = crate::event_counts(report);
    metrics.set("perturb.events.faults", events[0], "count");
    metrics.set("perturb.events.load", events[1], "count");
    metrics.set("perturb.events.churn", events[2], "count");
    for (name, unit) in [
        ("checkpoint.write_ms", "ms"),
        ("checkpoint.bytes", "bytes"),
        ("driver.efficiency", "fraction"),
        ("driver.straggler_ms", "ms"),
        ("driver.scenario_ms_p50", "ms"),
        ("driver.scenario_ms_p90", "ms"),
        ("driver.attempts", "count"),
    ] {
        metrics.absent(name, unit, &mut absent);
    }
    // Free the graph and state before the copy probe allocates its arrays.
    drop(traced);
    let traced_wall = tr.total("worker");
    let unaccounted = tr.unaccounted_frac();
    tr.absorb(t1_tr);
    crate::finish_traced(
        ctx,
        checks,
        metrics,
        &tr,
        traced_wall,
        untraced.total.wall,
        unaccounted,
        absent,
    );
}

/// The bit patterns of a metrics snapshot, for exact comparison.
fn snapshot_bits(m: &sodiff_core::MetricsSnapshot) -> [u64; 5] {
    [
        m.max_minus_avg.to_bits(),
        m.min_minus_avg.to_bits(),
        m.max_local_diff.to_bits(),
        m.potential_over_n.to_bits(),
        m.min_load.to_bits(),
    ]
}
