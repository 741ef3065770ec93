//! Round-executor performance baseline: times the simulation hot loop and
//! emits `BENCH_rounds.json` so the repo's perf trajectory has a measured
//! data point per PR.
//!
//! Cases cover the acceptance grid of the executor work: single-threaded
//! discrete rounds on a 512×512 torus (kernel cost) and sequential vs
//! pooled execution on a 256×256 torus (executor cost), for both the
//! deterministic and the randomized-framework rounding paths plus the
//! continuous scheme. The `sos_threshold_stop` case runs the same SOS
//! kernel under an (unreachable) `BalancedWithin` stop condition, so it
//! measures what a metric-stopped round costs — since the fused in-loop
//! metrics reduction landed, the same as a bare round instead of a round
//! plus an `O(n + m)` metrics sweep. The perturbation and persistence
//! axes each time their active path on the same SOS kernel:
//! `sos_faults_crash` (crash churn at `p = 0.05`, timing the
//! effective-mask/repair hot loop), `sos_load_poisson` (Poisson load
//! injection), `sos_ckpt_every16` (a full versioned snapshot to disk
//! every 16 rounds, timing serialization + write) and `sos_churn_flux`
//! (epoch-aligned join/leave flux with conservation-exact handoff,
//! timing the active-mask round loop). That a disabled axis stays off
//! the hot path is checked exactly by a test, not timed here.
//! A `driver_batch` entry additionally
//! times a batch of scenarios through one pooled `Driver` (threads
//! spawned once) against the same scenarios as separate `Simulator`s
//! (one pool spawn each).
//!
//! Usage: `perf_baseline [--out <path>] [--secs <s>] [--quick] [--case <substr>]
//! [--scenarios <file>]`
//!
//! * `--out <path>` — where to write the JSON (default `BENCH_rounds.json`),
//! * `--secs <s>` — measurement budget per case (default 1.0),
//! * `--quick` — CI smoke mode: tiny graphs, short budget,
//! * `--case <substr>` — only run cases whose config name contains the
//!   substring; repeatable (a case runs if it matches *any* filter), and
//!   the driver-batch entries are skipped when any filter is set. Used by
//!   the CI perf-regression gate to time just the randomized framework
//!   and the dimension-exchange kernel,
//! * `--scenarios <file>` — use this scenario file for the `driver_batch`
//!   entry instead of the built-in synthetic batch.

use std::fmt::Write as _;
use std::time::Instant;

use sodiff_core::prelude::*;
use sodiff_graph::{generators, Graph};
use sodiff_linalg::spectral;

struct Case {
    graph_name: &'static str,
    config_name: &'static str,
    threads: usize,
    scheme: Scheme,
    /// `None` = continuous mode.
    rounding: Option<Rounding>,
    /// Drive rounds through `run_until` with a per-round metric stop
    /// check (an unreachable threshold, so the round count stays fixed)
    /// instead of bare `step()` calls.
    threshold_stop: bool,
    /// Fault-injection plan for the run; `FaultSpec::none()` keeps the
    /// case on the unperturbed code paths.
    faults: FaultSpec,
    /// Dynamic-workload plan for the run; `LoadSpec::none()` keeps the
    /// case on the pre-load code paths.
    loads: LoadSpec,
    /// Topology-churn plan for the run; `ChurnSpec::none()` keeps the
    /// case on the pre-churn code paths.
    churn: ChurnSpec,
    /// Auto-checkpoint config; `None` keeps the case on the
    /// persistence-free round loop.
    ckpt: Option<CheckpointConfig>,
}

struct Measurement {
    graph_name: String,
    config_name: String,
    threads: usize,
    nodes: usize,
    edges: usize,
    rounds: u64,
    total_secs: f64,
    ns_per_round: f64,
    ns_per_edge: f64,
    /// Fastest 8-round batch, per edge: the low-noise estimator (OS and
    /// cache noise is strictly additive), where the budget-wide mean is
    /// too jittery on shared runners.
    ns_per_edge_min: f64,
    edge_updates_per_sec: f64,
    tokens_per_sec: f64,
    /// Bytes of mutable simulation state (loads, flow memory, integral
    /// flows, framework fractions — sequential buffers plus the pool
    /// job's atomic mirrors).
    state_bytes: usize,
}

fn measure(graph: &Graph, case: &Case, budget_secs: f64) -> Measurement {
    let n = graph.node_count();
    let m = graph.edge_count();
    let builder = Experiment::on(graph);
    let builder = match case.rounding {
        Some(rounding) => builder.discrete(rounding),
        None => builder.continuous(),
    };
    let builder = builder
        .scheme(case.scheme)
        .threads(case.threads)
        .init(InitialLoad::paper_default(n))
        .faults(case.faults)
        .load(case.loads)
        .churn(case.churn);
    let builder = match &case.ckpt {
        Some(ckpt) => builder.checkpoint(ckpt.clone()),
        None => builder,
    };
    let mut sim = builder
        .build()
        .expect("valid benchmark experiment")
        .simulator();
    // Warm up: flow memory, pool threads, caches.
    for _ in 0..3 {
        sim.step();
    }
    // Tokens moved per round, sampled outside the timed region. The
    // pairwise schemes keep no flow memory, so their rows count the loads'
    // change instead: in an unperturbed matching round each moved token
    // leaves one endpoint and reaches the other, so `Σ|Δx_i| / 2` is exact.
    let mut tokens_per_round = 0.0;
    for _ in 0..3 {
        let before = sim.loads_to_f64();
        sim.step();
        let moved = if case.scheme.is_diffusion() {
            sim.previous_flows().iter().map(|f| f.abs()).sum::<f64>()
        } else {
            let after = sim.loads_to_f64();
            before
                .iter()
                .zip(after)
                .map(|(x, y)| (x - y).abs())
                .sum::<f64>()
                / 2.0
        };
        tokens_per_round += moved / 3.0;
    }
    let start = Instant::now();
    let mut rounds = 0u64;
    let mut min_batch_secs = f64::INFINITY;
    while start.elapsed().as_secs_f64() < budget_secs {
        let batch_start = Instant::now();
        if case.threshold_stop {
            // A negative threshold never fires: all 8 rounds run, each
            // paying the armed stop-condition check — the path the fused
            // metrics reduction optimizes.
            let report = sim.run_until(StopCondition::BalancedWithin {
                threshold: -1.0,
                max_rounds: 8,
            });
            assert_eq!(report.rounds, 8, "threshold must stay unreachable");
        } else {
            for _ in 0..8 {
                sim.step();
            }
        }
        min_batch_secs = min_batch_secs.min(batch_start.elapsed().as_secs_f64());
        rounds += 8;
    }
    let total_secs = start.elapsed().as_secs_f64();
    let ns_per_round = total_secs * 1e9 / rounds as f64;
    let ns_per_edge = ns_per_round / m as f64;
    let ns_per_edge_min = min_batch_secs * 1e9 / 8.0 / m as f64;
    let state_bytes = sim.state_bytes();
    Measurement {
        graph_name: case.graph_name.to_string(),
        config_name: case.config_name.to_string(),
        threads: case.threads,
        nodes: n,
        edges: m,
        rounds,
        total_secs,
        ns_per_round,
        ns_per_edge,
        ns_per_edge_min,
        edge_updates_per_sec: 1e9 / ns_per_edge,
        tokens_per_sec: tokens_per_round / (ns_per_round / 1e9),
        state_bytes,
    }
}

struct DriverBatchMeasurement {
    source: String,
    scenarios: usize,
    threads: usize,
    total_rounds: u64,
    driver_secs: f64,
    separate_secs: f64,
}

/// Times `specs` through one pooled [`Driver`] against the same specs as
/// separate simulators that each spawn (and join) their own pool.
fn measure_driver_batch(
    specs: &[ScenarioSpec],
    threads: usize,
    source: String,
) -> DriverBatchMeasurement {
    // Warm both paths once (graph generation dominates cold runs).
    let driver = Driver::with_threads(threads).expect("positive thread count");
    assert!(driver.run_batch(specs).errors.is_empty(), "batch failed");

    let start = Instant::now();
    let batch = driver.run_batch(specs);
    let driver_secs = start.elapsed().as_secs_f64();

    let mut separate = specs.to_vec();
    for spec in &mut separate {
        spec.threads = threads;
    }
    let start = Instant::now();
    let mut separate_rounds = 0u64;
    for spec in &separate {
        // One standalone simulator per scenario: pool spawned and joined
        // inside this call.
        separate_rounds += spec.run().expect("valid scenario").rounds;
    }
    let separate_secs = start.elapsed().as_secs_f64();
    assert_eq!(batch.total_rounds, separate_rounds, "paths must agree");

    DriverBatchMeasurement {
        source,
        scenarios: specs.len(),
        threads,
        total_rounds: batch.total_rounds,
        driver_secs,
        separate_secs,
    }
}

/// Times `specs` through a `Driver::concurrent(workers)` (K scenarios in
/// flight, each on the sequential executor, pulled from a work-stealing
/// queue) against a plain sequential `Driver::new()`. On a multi-core
/// host the concurrent driver should approach `workers`× for batches of
/// many similar scenarios; on a single-core container it measures pure
/// scheduling overhead.
fn measure_driver_batch_concurrent(
    specs: &[ScenarioSpec],
    workers: usize,
    source: String,
) -> DriverBatchMeasurement {
    let concurrent = Driver::concurrent(workers).expect("positive worker count");
    let sequential = Driver::new();
    // Warm both paths once.
    assert!(
        concurrent.run_batch(specs).errors.is_empty(),
        "batch failed"
    );

    let start = Instant::now();
    let batch = concurrent.run_batch(specs);
    let concurrent_secs = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let seq_batch = sequential.run_batch(specs);
    let sequential_secs = start.elapsed().as_secs_f64();
    assert_eq!(
        batch.total_rounds, seq_batch.total_rounds,
        "concurrent and sequential drivers must agree"
    );

    DriverBatchMeasurement {
        source,
        scenarios: specs.len(),
        threads: workers,
        total_rounds: batch.total_rounds,
        driver_secs: concurrent_secs,
        separate_secs: sequential_secs,
    }
}

/// Minimal JSON string escaping for the hand-rolled output (the scenario
/// file path is the only user-controlled string).
fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The built-in `driver_batch` workload: many small simulations — the
/// serving-style shape where per-`Simulator` pool spawn/join cycles are a
/// visible fraction of the work the driver amortizes away.
fn synthetic_batch(quick: bool) -> Vec<ScenarioSpec> {
    let (side, rounds, count) = if quick { (12, 10, 10) } else { (16, 12, 48) };
    let mut text = String::new();
    for i in 0..count {
        writeln!(
            text,
            "name=batch{i} topology=torus2d:{side}:{side} scheme=sos:1.9 mode=discrete \
             rounding=nearest init=paper stop=rounds:{rounds}"
        )
        .unwrap();
    }
    ScenarioSpec::parse_many(&text).expect("synthetic batch parses")
}

fn main() {
    let mut out_path = String::from("BENCH_rounds.json");
    let mut budget_secs = 1.0f64;
    let mut quick = false;
    let mut case_filters: Vec<String> = Vec::new();
    let mut scenario_file: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next().expect("--out requires a path"),
            "--secs" => {
                budget_secs = args
                    .next()
                    .expect("--secs requires a value")
                    .parse()
                    .expect("--secs must be a number")
            }
            "--quick" => quick = true,
            "--case" => case_filters.push(args.next().expect("--case requires a substring")),
            "--scenarios" => {
                scenario_file = Some(args.next().expect("--scenarios requires a path"))
            }
            other => {
                panic!(
                    "unknown argument {other}; supported: --out <path>, --secs <s>, --quick, \
                     --case <substr>, --scenarios <file>"
                )
            }
        }
    }
    if quick {
        budget_secs = budget_secs.min(0.2);
    }

    let (big_side, mid_side) = if quick { (64, 48) } else { (512, 256) };
    let big_name: &'static str = if quick { "torus64x64" } else { "torus512x512" };
    let mid_name: &'static str = if quick { "torus48x48" } else { "torus256x256" };
    let big = generators::torus2d(big_side, big_side);
    let mid = generators::torus2d(mid_side, mid_side);
    let beta_mid = spectral::analyze(&mid, &Speeds::uniform(mid.node_count())).beta_opt();
    // Scratch directory for the sos_ckpt_every16 snapshots.
    let ckpt_dir = std::env::temp_dir().join(format!("sodiff-bench-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&ckpt_dir).expect("create checkpoint scratch dir");

    // Large-graph probe (skipped under `--quick`): a 2048×2048 torus
    // (4.2M nodes, 8.4M edges — per-edge state far past the last-level
    // cache).
    let huge = (!quick).then(|| generators::torus2d(2048, 2048));

    let mut cases: Vec<(&Graph, Case)> = vec![
        (
            &big,
            Case {
                graph_name: big_name,
                config_name: "fos_discrete_nearest",
                threads: 1,
                scheme: Scheme::fos(),
                rounding: Some(Rounding::nearest()),
                threshold_stop: false,
                faults: FaultSpec::none(),
                loads: LoadSpec::none(),
                churn: ChurnSpec::none(),
                ckpt: None,
            },
        ),
        (
            &big,
            Case {
                graph_name: big_name,
                config_name: "fos_discrete_randomized",
                threads: 1,
                scheme: Scheme::fos(),
                rounding: Some(Rounding::randomized(42)),
                threshold_stop: false,
                faults: FaultSpec::none(),
                loads: LoadSpec::none(),
                churn: ChurnSpec::none(),
                ckpt: None,
            },
        ),
        (
            &mid,
            Case {
                graph_name: mid_name,
                config_name: "sos_discrete_nearest",
                threads: 1,
                scheme: Scheme::sos(beta_mid),
                rounding: Some(Rounding::nearest()),
                threshold_stop: false,
                faults: FaultSpec::none(),
                loads: LoadSpec::none(),
                churn: ChurnSpec::none(),
                ckpt: None,
            },
        ),
        (
            &mid,
            Case {
                graph_name: mid_name,
                config_name: "sos_discrete_nearest",
                threads: 4,
                scheme: Scheme::sos(beta_mid),
                rounding: Some(Rounding::nearest()),
                threshold_stop: false,
                faults: FaultSpec::none(),
                loads: LoadSpec::none(),
                churn: ChurnSpec::none(),
                ckpt: None,
            },
        ),
        (
            &mid,
            Case {
                graph_name: mid_name,
                config_name: "sos_discrete_randomized",
                threads: 1,
                scheme: Scheme::sos(beta_mid),
                rounding: Some(Rounding::randomized(42)),
                threshold_stop: false,
                faults: FaultSpec::none(),
                loads: LoadSpec::none(),
                churn: ChurnSpec::none(),
                ckpt: None,
            },
        ),
        (
            &mid,
            Case {
                graph_name: mid_name,
                config_name: "sos_discrete_randomized",
                threads: 4,
                scheme: Scheme::sos(beta_mid),
                rounding: Some(Rounding::randomized(42)),
                threshold_stop: false,
                faults: FaultSpec::none(),
                loads: LoadSpec::none(),
                churn: ChurnSpec::none(),
                ckpt: None,
            },
        ),
        (
            &mid,
            Case {
                graph_name: mid_name,
                config_name: "sos_continuous",
                threads: 1,
                scheme: Scheme::sos(beta_mid),
                rounding: None,
                threshold_stop: false,
                faults: FaultSpec::none(),
                loads: LoadSpec::none(),
                churn: ChurnSpec::none(),
                ckpt: None,
            },
        ),
        (
            &mid,
            Case {
                graph_name: mid_name,
                config_name: "sos_continuous",
                threads: 4,
                scheme: Scheme::sos(beta_mid),
                rounding: None,
                threshold_stop: false,
                faults: FaultSpec::none(),
                loads: LoadSpec::none(),
                churn: ChurnSpec::none(),
                ckpt: None,
            },
        ),
        // Metric-stopped rounds: same kernel as sos_discrete_nearest but
        // driven through run_until with an armed BalancedWithin check —
        // the per-round delta vs that row is what a metric stop costs
        // (zero extra passes since the fused in-loop reduction).
        (
            &mid,
            Case {
                graph_name: mid_name,
                config_name: "sos_threshold_stop",
                threads: 1,
                scheme: Scheme::sos(beta_mid),
                rounding: Some(Rounding::nearest()),
                threshold_stop: true,
                faults: FaultSpec::none(),
                loads: LoadSpec::none(),
                churn: ChurnSpec::none(),
                ckpt: None,
            },
        ),
        // Fault-injection axis. `sos_faults_crash` measures the faulted
        // hot loop — effective-mask composition, crash epochs, matching
        // repair — and is gated at +25% over the committed ratio like
        // the other kernels.
        (
            &mid,
            Case {
                graph_name: mid_name,
                config_name: "sos_faults_crash",
                threads: 1,
                scheme: Scheme::sos(beta_mid),
                rounding: Some(Rounding::nearest()),
                threshold_stop: false,
                faults: FaultSpec::none().with_crash(0.05, 42),
                loads: LoadSpec::none(),
                churn: ChurnSpec::none(),
                ckpt: None,
            },
        ),
        // Dynamic-workload axis. `sos_load_poisson` measures the loaded
        // hot loop — the control-thread generator draws plus the sparse
        // delta application, with no extra per-round sweep — and is
        // gated at +25% over the committed ratio like the other kernels.
        (
            &mid,
            Case {
                graph_name: mid_name,
                config_name: "sos_load_poisson",
                threads: 1,
                scheme: Scheme::sos(beta_mid),
                rounding: Some(Rounding::nearest()),
                threshold_stop: true,
                faults: FaultSpec::none(),
                loads: LoadSpec::none().with_poisson(2.0, 42),
                churn: ChurnSpec::none(),
                ckpt: None,
            },
        ),
        // Checkpoint axis. `sos_ckpt_every16` auto-writes the full
        // versioned snapshot to disk every 16 rounds — serialization plus
        // the fsync-free file write — and is gated at +25% over the
        // committed ratio like the other kernels.
        (
            &mid,
            Case {
                graph_name: mid_name,
                config_name: "sos_ckpt_every16",
                threads: 1,
                scheme: Scheme::sos(beta_mid),
                rounding: Some(Rounding::nearest()),
                threshold_stop: true,
                faults: FaultSpec::none(),
                loads: LoadSpec::none(),
                churn: ChurnSpec::none(),
                ckpt: Some(CheckpointConfig {
                    policy: CheckpointPolicy {
                        every: 16,
                        dir: ckpt_dir.clone(),
                    },
                    name: "sos_ckpt_every16".to_string(),
                    spec_line: format!(
                        "name=sos_ckpt_every16 topology=torus2d:{mid_side}:{mid_side}"
                    ),
                }),
            },
        ),
        // Topology-churn axis. `sos_churn_flux` measures the churned hot
        // loop — per-epoch membership transitions, conservation-exact
        // handoff, the active-edge mask routing every plan through the
        // masked pass — and is gated at +25% over the committed ratio
        // like the other kernels.
        (
            &mid,
            Case {
                graph_name: mid_name,
                config_name: "sos_churn_flux",
                threads: 1,
                scheme: Scheme::sos(beta_mid),
                rounding: Some(Rounding::nearest()),
                threshold_stop: false,
                faults: FaultSpec::none(),
                loads: LoadSpec::none(),
                churn: ChurnSpec::none()
                    .with_flux(0.05, 0.4, 42)
                    .with_initial(100.0),
                ckpt: None,
            },
        ),
        // Pairwise schemes (scheme-kernel layer): the matching round over
        // the torus's exact 4-coloring, the round-robin maximal matching
        // sweep, and the random-matching plan whose per-round greedy
        // matching generation is part of the measured cost. None is
        // perturbed, so their moved tokens are counted exactly from the
        // loads.
        (
            &mid,
            Case {
                graph_name: mid_name,
                config_name: "de_discrete_nearest",
                threads: 1,
                scheme: Scheme::dimension_exchange(1.0),
                rounding: Some(Rounding::nearest()),
                threshold_stop: false,
                faults: FaultSpec::none(),
                loads: LoadSpec::none(),
                churn: ChurnSpec::none(),
                ckpt: None,
            },
        ),
        (
            &mid,
            Case {
                graph_name: mid_name,
                config_name: "matching_rr_discrete_nearest",
                threads: 1,
                scheme: Scheme::matching_round_robin(1.0),
                rounding: Some(Rounding::nearest()),
                threshold_stop: false,
                faults: FaultSpec::none(),
                loads: LoadSpec::none(),
                churn: ChurnSpec::none(),
                ckpt: None,
            },
        ),
        (
            &mid,
            Case {
                graph_name: mid_name,
                config_name: "matching_random_discrete_nearest",
                threads: 1,
                scheme: Scheme::matching_random(42, 1.0),
                rounding: Some(Rounding::nearest()),
                threshold_stop: false,
                faults: FaultSpec::none(),
                loads: LoadSpec::none(),
                churn: ChurnSpec::none(),
                ckpt: None,
            },
        ),
    ];
    if let Some(huge) = &huge {
        cases.push((
            huge,
            Case {
                graph_name: "torus2048x2048",
                config_name: "fos_huge_nearest",
                threads: 1,
                scheme: Scheme::fos(),
                rounding: Some(Rounding::nearest()),
                threshold_stop: false,
                faults: FaultSpec::none(),
                loads: LoadSpec::none(),
                churn: ChurnSpec::none(),
                ckpt: None,
            },
        ));
    }

    let mut results = Vec::new();
    for (graph, case) in &cases {
        if !case_filters.is_empty()
            && !case_filters
                .iter()
                .any(|f| case.config_name.contains(f.as_str()))
        {
            continue;
        }
        let r = measure(graph, case, budget_secs);
        println!(
            "{}/{} threads={}: {:.1} ns/round ({:.2} ns/edge, {:.2e} edge-updates/s, {:.2e} tokens/s, {} state bytes)",
            r.graph_name,
            r.config_name,
            r.threads,
            r.ns_per_round,
            r.ns_per_edge,
            r.edge_updates_per_sec,
            r.tokens_per_sec,
            r.state_bytes
        );
        results.push(r);
    }

    // The driver-batch entries are skipped under `--case` (the filter is
    // a per-case regression gate, not a batch benchmark).
    let driver_entries = if case_filters.is_empty() {
        let (specs, source) = match &scenario_file {
            Some(path) => {
                let text = std::fs::read_to_string(path)
                    .unwrap_or_else(|e| panic!("read scenario file {path}: {e}"));
                (
                    ScenarioSpec::parse_many(&text).unwrap_or_else(|e| panic!("{e}")),
                    path.clone(),
                )
            }
            None => (synthetic_batch(quick), "synthetic".to_string()),
        };
        let db = measure_driver_batch(&specs, 4, source.clone());
        println!(
            "driver_batch ({} scenarios, {} threads): pooled driver {:.3}s vs separate \
             simulators {:.3}s ({:.2}x)",
            db.scenarios,
            db.threads,
            db.driver_secs,
            db.separate_secs,
            db.separate_secs / db.driver_secs
        );
        let dbc = measure_driver_batch_concurrent(&specs, 4, source);
        println!(
            "driver_batch_concurrent ({} scenarios, {} workers): concurrent driver {:.3}s vs \
             sequential driver {:.3}s ({:.2}x)",
            dbc.scenarios,
            dbc.threads,
            dbc.driver_secs,
            dbc.separate_secs,
            dbc.separate_secs / dbc.driver_secs
        );
        println!(
            "note: this container is single-core — concurrent-scenario and pooled speedups \
             measure scheduling overhead here, not parallel wall-clock gains; re-measure on a \
             multi-core host"
        );
        Some((db, dbc))
    } else {
        None
    };

    let mut json = String::from("{\n  \"bench\": \"rounds\",\n  \"cases\": [\n");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        writeln!(
            json,
            "    {{\"graph\": \"{}\", \"config\": \"{}\", \"threads\": {}, \"nodes\": {}, \"edges\": {}, \"rounds\": {}, \"total_secs\": {:.4}, \"ns_per_round\": {:.1}, \"ns_per_edge\": {:.3}, \"ns_per_edge_min\": {:.3}, \"edge_updates_per_sec\": {:.4e}, \"tokens_per_sec\": {:.4e}, \"state_bytes\": {}}}{comma}",
            r.graph_name,
            r.config_name,
            r.threads,
            r.nodes,
            r.edges,
            r.rounds,
            r.total_secs,
            r.ns_per_round,
            r.ns_per_edge,
            r.ns_per_edge_min,
            r.edge_updates_per_sec,
            r.tokens_per_sec,
            r.state_bytes
        )
        .unwrap();
    }
    if let Some((db, dbc)) = &driver_entries {
        json.push_str("  ],\n");
        writeln!(
            json,
            "  \"driver_batch\": {{\"source\": \"{}\", \"scenarios\": {}, \"threads\": {}, \"total_rounds\": {}, \"driver_secs\": {:.4}, \"separate_secs\": {:.4}, \"speedup\": {:.3}}},",
            json_escape(&db.source),
            db.scenarios,
            db.threads,
            db.total_rounds,
            db.driver_secs,
            db.separate_secs,
            db.separate_secs / db.driver_secs
        )
        .unwrap();
        writeln!(
            json,
            "  \"driver_batch_concurrent\": {{\"source\": \"{}\", \"scenarios\": {}, \"workers\": {}, \"total_rounds\": {}, \"concurrent_secs\": {:.4}, \"sequential_secs\": {:.4}, \"speedup\": {:.3}, \"note\": \"single-core container: speedup measures scheduling overhead, not parallel wall-clock\"}}",
            json_escape(&dbc.source),
            dbc.scenarios,
            dbc.threads,
            dbc.total_rounds,
            dbc.driver_secs,
            dbc.separate_secs,
            dbc.separate_secs / dbc.driver_secs
        )
        .unwrap();
    } else {
        json.push_str("  ]\n");
    }
    json.push_str("}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_rounds.json");
    std::fs::remove_dir_all(&ckpt_dir).ok();
    println!("wrote {out_path}");
}
