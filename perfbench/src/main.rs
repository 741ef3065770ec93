//! End-to-end benchmark of the sodiff workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (see `perfbench/workloads.json` for why each was chosen and
//! which layers it exercises or bypasses):
//!
//! * `torus_sos_balance` — the paper's headline run: SOS with randomized
//!   rounding on a 256² torus to a balance target, on the 2-thread pool;
//! * `mixed_sweep` — a scenario file of small runs (every scheme ×
//!   topology family × rounding, plus fault, load, churn and checkpoint
//!   variants) through `Driver::concurrent(2)`.
//!
//! With `--trace 0` the run is untraced and prints the end-to-end
//! metrics. Their times are process CPU times, which on a shared virtual
//! machine leave out the time other guests hold the host's cores; the
//! wall-clock values and the host's steal share go on the metadata line.
//! With `--trace 1` the run times every layer call from here and
//! prints the per-layer metrics, and writes its spans to
//! `.perfbench_out/`. Every input is derived from `--seed`. The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (name → value and unit); the line before it carries the run
//! metadata.

mod host;
mod phases;
mod pipeline;
mod report;
mod sweep;
mod torus;
mod trace;

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{json_num, json_str, Checks, Metrics};

/// Where traces and checkpoint files go, relative to the working
/// directory.
const OUT_DIR: &str = ".perfbench_out";
/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 42;
/// A second seed giving the same workload shapes, kept out of tuning so
/// later claims can be re-checked on it.
pub const HELD_OUT_SEED: u64 = 1234;
/// The `engine.ns_per_edge.*` splits of the mixed sweep.
pub const ENGINE_SPLITS: [&str; 9] = [
    "fos",
    "sos",
    "de",
    "matching_rr",
    "matching_random",
    "faults",
    "load",
    "churn",
    "ckpt",
];

/// Measured repetitions stop after this long even below their minimum
/// count, so a run on a slowed-down host still ends in time.
const REPEAT_CAP: Duration = Duration::from_secs(100);

const USAGE: &str = "usage: perfbench --workload <torus_sos_balance|mixed_sweep> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// A seed for one input of the workload, derived from the workload seed
/// (SplitMix64 finalizer over the seed and a per-input salt).
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    // Keep seeds in the range every scenario key accepts.
    (z ^ (z >> 31)) >> 1
}

/// Whether to start another measured repetition after `done` of them:
/// at least `min`, and more until `seconds` have passed since `start`.
pub fn repeat_again(done: usize, min: usize, start: Instant, seconds: Duration) -> bool {
    let elapsed = start.elapsed();
    (done < min || elapsed < seconds) && (done == 0 || elapsed < REPEAT_CAP)
}

/// The run's settings plus the metadata it accumulates.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub traced: bool,
    pub epoch: Instant,
    meta: RefCell<Vec<(String, String)>>,
}

impl Ctx {
    /// Records the sample count behind the percentiles of `what`.
    pub fn samples(&self, what: &str, n: usize) {
        self.meta(&format!("samples.{what}"), n.to_string());
    }

    /// Records the measured values behind the median of `what`.
    pub fn values(&self, what: &str, values: &[f64]) {
        let v: Vec<String> = values.iter().map(|&x| json_num(x)).collect();
        self.meta(&format!("values.{what}"), format!("[{}]", v.join(", ")));
    }

    /// Records one metadata entry; `json` is already JSON-encoded.
    pub fn meta(&self, key: &str, json: String) {
        self.meta.borrow_mut().push((key.to_string(), json));
    }

    pub fn out_dir(&self) -> PathBuf {
        Path::new(OUT_DIR).to_path_buf()
    }
}

fn parse_args() -> Result<(String, u64, f64, bool), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced) = (None, DEFAULT_SEED, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid {flag} value '{value}'");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], got {seconds}"));
    }
    Ok((workload, seed, seconds, traced))
}

fn main() -> ExitCode {
    let (workload, seed, seconds, traced) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        workload,
        seed,
        seconds: Duration::from_secs_f64(seconds),
        traced,
        epoch: Instant::now(),
        meta: RefCell::new(Vec::new()),
    };
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();
    let jiffies = host::cpu_jiffies();
    match (ctx.workload.as_str(), traced) {
        ("torus_sos_balance", false) => torus::run(&ctx, &mut checks, &mut metrics),
        ("torus_sos_balance", true) => torus::run_traced_workload(&ctx, &mut checks, &mut metrics),
        ("mixed_sweep", false) => sweep::run(&ctx, &mut checks, &mut metrics),
        ("mixed_sweep", true) => sweep::run_traced_workload(&ctx, &mut checks, &mut metrics),
        (other, _) => {
            eprintln!("unknown workload '{other}'\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    checks.check(checks.attempted > 0, || {
        "the workload checked nothing".into()
    });

    let mut meta = vec![
        ("workload".to_string(), json_str(&ctx.workload)),
        ("seed".to_string(), ctx.seed.to_string()),
        ("default_seed".to_string(), DEFAULT_SEED.to_string()),
        ("held_out_seed".to_string(), HELD_OUT_SEED.to_string()),
        ("traced".to_string(), ctx.traced.to_string()),
        ("seconds".to_string(), json_num(seconds)),
        ("commit".to_string(), json_str(&host::commit())),
        ("nproc".to_string(), host::nproc().to_string()),
        (
            "llc_bytes".to_string(),
            host::llc_bytes().map_or("null".to_string(), |b| b.to_string()),
        ),
        ("rustc".to_string(), json_str(host::rustc())),
        ("error_rate".to_string(), json_num(checks.error_rate())),
    ];
    if let (Some((s0, t0)), Some((s1, t1))) = (jiffies, host::cpu_jiffies()) {
        let steal = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        meta.push(("host_steal_frac".to_string(), json_num(steal)));
    }
    meta.extend(ctx.meta.take());
    let fields: Vec<String> = meta
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    println!("{{\"meta\": {{{}}}}}", fields.join(", "));
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        metrics.to_json()
    );
    ExitCode::SUCCESS
}

/// Sets the kernel phase metrics, or marks them absent.
pub fn set_phase_metrics(
    metrics: &mut Metrics,
    phases: Option<&phases::PhaseTimes>,
    absent: &mut Vec<String>,
) {
    let values: [(&str, &'static str, Option<f64>); 6] = [
        (
            "kernel.edge_pass_ns_per_edge",
            "ns",
            phases.map(|p| p.edge_pass_ns_per_edge),
        ),
        (
            "kernel.apply_ns_per_node",
            "ns",
            phases.map(|p| p.apply_ns_per_node),
        ),
        (
            "kernel.prev_from_flows_ns_per_edge",
            "ns",
            phases.map(|p| p.prev_from_flows_ns_per_edge),
        ),
        (
            "rounding.arc_round_ns_per_node",
            "ns",
            phases.and_then(|p| p.arc_round_ns_per_node),
        ),
        (
            "rng.node_states_ns_per_node",
            "ns",
            phases.and_then(|p| p.node_states_ns_per_node),
        ),
        (
            "kernel.bytes_per_edge",
            "bytes",
            phases.map(|p| p.bytes_per_edge),
        ),
    ];
    for (name, unit, value) in values {
        match value {
            Some(v) => metrics.set(name, v, unit),
            None => metrics.absent(name, unit, absent),
        }
    }
}

/// Perturbation event totals of a run: faults (crashes, rejoins, dropped
/// edges, shocks, stale edges), load (arrivals, departures) and churn
/// (departures, arrivals).
pub fn event_counts(report: &sodiff_core::RunReport) -> [f64; 3] {
    let f = report.faults;
    [
        (f.crashes + f.rejoins + f.edges_dropped + f.shocks + f.stale_edges) as f64,
        (report.load.arrivals + report.load.departures) as f64,
        (report.churn.departures + report.churn.arrivals) as f64,
    ]
}

/// Common end of every traced run: the copy-bandwidth ceiling, the
/// trace's own overhead and coverage, and the span file.
#[allow(clippy::too_many_arguments)] // one call site per workload, all values differ
pub fn finish_traced(
    ctx: &Ctx,
    checks: &mut Checks,
    metrics: &mut Metrics,
    tr: &trace::Tracer,
    traced_wall: f64,
    untraced_wall: f64,
    unaccounted: f64,
    absent: Vec<String>,
) {
    let llc = host::llc_bytes().unwrap_or(32 << 20);
    let copy = host::copy_ceiling((4 * llc).max(64 << 20), 5);
    checks.check(copy.verified, || {
        "copy probe left a wrong destination".into()
    });
    metrics.set("host.copy_gbps", copy.gbps, "GB/s");
    ctx.meta("copy_array_bytes", copy.array_bytes.to_string());
    ctx.meta("copy_llc_bytes", llc.to_string());
    metrics.set(
        "trace.overhead_frac",
        traced_wall / untraced_wall - 1.0,
        "fraction",
    );
    metrics.set("trace.unaccounted_frac", unaccounted, "fraction");
    let names: Vec<String> = absent.iter().map(|a| json_str(a)).collect();
    ctx.meta("absent", format!("[{}]", names.join(", ")));
    let path = ctx
        .out_dir()
        .join(format!("trace-{}-seed{}.jsonl", ctx.workload, ctx.seed));
    let written = tr.write_jsonl(&path);
    checks.check(written.is_ok(), || {
        format!("writing {}: {written:?}", path.display())
    });
    ctx.meta("trace_file", json_str(&path.display().to_string()));
    ctx.samples("spans", tr.spans.len());
}
