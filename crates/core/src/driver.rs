//! Batch execution of scenario files over one persistent worker pool or
//! across concurrently scheduled scenarios.
//!
//! A [`Driver`] takes a slice of [`ScenarioSpec`]s and runs them either
//! back to back or concurrently:
//!
//! * [`Driver::with_threads`]`(t > 1)` parallelizes **within** each
//!   simulation: the `t − 1` pool workers are spawned **once** and
//!   re-attached to every simulation in the batch (see [`crate::pool`]),
//!   instead of paying a spawn/join cycle per `Simulator` — the
//!   difference measured by the `driver_batch` entry of
//!   `BENCH_rounds.json`. Best for batches of few large scenarios.
//! * [`Driver::concurrent`]`(k)` parallelizes **across** the batch: `k`
//!   workers pull scenarios from a shared work-stealing queue and run
//!   each one on the sequential executor. Independent scenarios never
//!   synchronize, so this scales with cores for the common serving shape
//!   — many small-to-medium scenarios — where per-round barriers would
//!   dominate. Measured by the `driver_batch_concurrent` entry.
//!
//! Both are bit-identical to [`Driver::new`]'s sequential execution: the
//! pooled executor reproduces the sequential executor exactly, and
//! concurrent scheduling only reorders *which* scenario runs when — each
//! scenario's simulation is self-contained, and reports are returned in
//! input order. A batch report therefore never depends on the driver's
//! parallelism (proven by `tests/driver_concurrent.rs`).
//!
//! # Crash isolation and durable recovery
//!
//! [`Driver::run_batch`] is infallible: a scenario that fails to build,
//! panics mid-run, or diverges to non-finite loads is recorded as a
//! [`ScenarioError`] (with its input position and, when the spec came
//! from a file, its 1-based line number) and the **rest of the batch
//! keeps running**. Panics are caught per scenario; a pooled driver
//! whose workers may be deserted mid-barrier by the panic quarantines
//! that pool and transparently spawns a fresh one for the remaining
//! scenarios. Each scenario runs once: a run is deterministic in its
//! spec, so a scenario that panicked would panic again.
//!
//! Whole batches survive process death too: [`Driver::run_batch_durable`]
//! writes a plain-text **recovery journal** (all spec lines up front,
//! one `done`/`fail` line appended and flushed per finished scenario),
//! and [`Driver::resume_batch`] replays it — completed scenarios are
//! skipped, and scenarios that were checkpointing (`ckpt=every:N:DIR`,
//! see [`crate::checkpoint`]) restart **bit-identically** from their
//! latest snapshot instead of from round 0.
//!
//! # Example
//!
//! ```
//! use sodiff_core::{Driver, ScenarioSpec};
//!
//! let specs = ScenarioSpec::parse_many(
//!     "name=small topology=torus2d:8:8 scheme=sos:1.9 seed=1 stop=rounds:50\n\
//!      name=ring  topology=cycle:32 seed=2 stop=rounds:100\n",
//! )
//! .unwrap();
//! let batch = Driver::new().run_batch(&specs);
//! assert!(batch.errors.is_empty());
//! assert_eq!(batch.scenarios.len(), 2);
//! assert_eq!(batch.total_rounds, 150);
//! ```

use std::collections::HashSet;
use std::fmt;
use std::fs;
use std::io::Write;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::checkpoint::{create_parent_dir, read_checkpoint, Checkpoint};
use crate::engine::RunReport;
use crate::error::{BuildError, CheckpointError, ParseError};
use crate::pool::WorkerPool;
use crate::scenario::ScenarioSpec;

/// First line of every recovery journal.
const JOURNAL_HEADER: &str = "sodiff-journal v1";

/// One scenario's outcome.
type Outcome = Result<ScenarioReport, ScenarioFailure>;

/// One scenario's outcome inside a [`BatchReport`].
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// The scenario's `name=`.
    pub name: String,
    /// Canonical spec text (round-trips through `ScenarioSpec::from_str`).
    pub spec: String,
    /// Nodes of the built graph.
    pub nodes: usize,
    /// Edges of the built graph.
    pub edges: usize,
    /// The run's report (bit-identical to running the scenario through a
    /// hand-built `Simulator`).
    pub report: RunReport,
    /// Wall-clock time of this scenario (graph build + rounds).
    pub wall: Duration,
}

/// Why one scenario of a batch failed; see [`ScenarioError`].
#[derive(Debug)]
#[non_exhaustive]
pub enum ScenarioFailure {
    /// The scenario failed to build (bad topology, parameters, …).
    Build(BuildError),
    /// The scenario panicked mid-run; carries the panic message.
    Panicked(String),
    /// The run completed but its final loads are non-finite.
    Diverged(String),
    /// The scenario's checkpoint could not be restored during
    /// [`Driver::resume_batch`] (damaged file, or it belongs to a
    /// different scenario); the scenario was **not** run.
    Checkpoint(CheckpointError),
}

impl fmt::Display for ScenarioFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioFailure::Build(e) => write!(f, "{e}"),
            ScenarioFailure::Panicked(msg) => write!(f, "panicked: {msg}"),
            ScenarioFailure::Diverged(msg) => write!(f, "diverged: {msg}"),
            ScenarioFailure::Checkpoint(e) => write!(f, "checkpoint: {e}"),
        }
    }
}

impl std::error::Error for ScenarioFailure {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioFailure::Build(e) => Some(e),
            ScenarioFailure::Checkpoint(e) => Some(e),
            ScenarioFailure::Panicked(_) | ScenarioFailure::Diverged(_) => None,
        }
    }
}

/// One failed scenario of a batch, anchored to its input position.
///
/// [`Driver::run_batch`] collects these (in input order) instead of
/// aborting at the earliest failure, so one bad line in a scenario file
/// no longer hides the results — or the other errors — of the rest.
#[derive(Debug)]
pub struct ScenarioError {
    /// 0-based position of the scenario in the batch slice.
    pub index: usize,
    /// The scenario's `name=`.
    pub name: String,
    /// 1-based scenario-file line ([`ScenarioSpec::parse_many`]
    /// provenance), when known.
    pub line: Option<usize>,
    /// What went wrong.
    pub error: ScenarioFailure,
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario '{}' (input #{}", self.name, self.index + 1)?;
        if let Some(line) = self.line {
            write!(f, ", line {line}")?;
        }
        write!(f, "): {}", self.error)
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Outcome of a whole batch, with aggregate metrics across the
/// scenarios that completed.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-scenario reports of the **successful** scenarios, in input
    /// order.
    pub scenarios: Vec<ScenarioReport>,
    /// Failed scenarios, in input order; empty for an all-green batch.
    pub errors: Vec<ScenarioError>,
    /// Total rounds executed across the successful scenarios.
    pub total_rounds: u64,
    /// Total wall-clock time of the batch.
    pub total_wall: Duration,
    /// Worst (largest) final `max − avg` across successful scenarios;
    /// `0` when none succeeded.
    pub worst_max_minus_avg: f64,
    /// Mean final `max − avg` across successful scenarios.
    pub mean_max_minus_avg: f64,
    /// Worst windowed p99 deviation across the successful scenarios
    /// that ran under a `stop=steady:`/`stop=horizon:` mode (`None`
    /// when no scenario reported steady-state statistics).
    pub worst_steady_p99: Option<f64>,
    /// Number of scenarios this call ran, failed ones included. A
    /// scenario that [`Driver::resume_batch`] refuses to start because
    /// its checkpoint cannot be restored counts 0.
    pub total_attempts: u64,
    /// Churn event totals summed across the successful scenarios (all
    /// zero when no scenario declared a `churn=` plan); see
    /// [`crate::ChurnEvents`].
    pub churn: crate::ChurnEvents,
}

impl BatchReport {
    fn assemble(
        scenarios: Vec<ScenarioReport>,
        errors: Vec<ScenarioError>,
        total_wall: Duration,
    ) -> Self {
        let total_rounds = scenarios.iter().map(|s| s.report.rounds).sum();
        let finals: Vec<f64> = scenarios
            .iter()
            .map(|s| s.report.final_metrics.max_minus_avg)
            .collect();
        let worst = finals.iter().copied().reduce(f64::max).unwrap_or(0.0);
        let mean = if finals.is_empty() {
            0.0
        } else {
            finals.iter().sum::<f64>() / finals.len() as f64
        };
        let worst_steady_p99 = scenarios
            .iter()
            .filter_map(|s| s.report.steady.map(|st| st.p99_dev))
            .reduce(f64::max);
        let total_attempts = (scenarios.len() + errors.len()) as u64;
        let churn = scenarios.iter().map(|s| s.report.churn).fold(
            crate::ChurnEvents::default(),
            |acc, e| crate::ChurnEvents {
                departures: acc.departures + e.departures,
                arrivals: acc.arrivals + e.arrivals,
                handoffs: acc.handoffs + e.handoffs,
                joined: acc.joined + e.joined,
                departed: acc.departed + e.departed,
            },
        );
        Self {
            scenarios,
            errors,
            total_rounds,
            total_wall,
            worst_max_minus_avg: worst,
            mean_max_minus_avg: mean,
            worst_steady_p99,
            total_attempts,
            churn,
        }
    }
}

/// Appends and flushes scenario `index`'s `done` line, or its `fail`
/// line when it failed with `error`. Journal entries are line-oriented,
/// so newlines in the message are flattened. A journal write failure
/// must not fail the batch: the worst case is re-running a finished
/// scenario on resume.
fn append_outcome(sink: &Mutex<fs::File>, index: usize, error: Option<&impl fmt::Display>) {
    let entry = match error {
        None => format!("done {index}"),
        Some(e) => format!("fail {index} {}", e.to_string().replace(['\n', '\r'], " ")),
    };
    let mut file = sink.lock().unwrap_or_else(PoisonError::into_inner);
    let _ = writeln!(file, "{entry}");
    let _ = file.flush();
}

/// Parses a recovery journal into its specs (with journal-line
/// provenance) and the set of finished (`done` or `fail`) indices.
fn parse_journal(text: &str) -> Result<(Vec<ScenarioSpec>, HashSet<usize>), CheckpointError> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, l)) if l.trim() == JOURNAL_HEADER => {}
        Some((_, l)) => {
            return Err(CheckpointError::Journal {
                line: 1,
                message: format!("expected '{JOURNAL_HEADER}' header, found '{l}'"),
            });
        }
        None => {
            return Err(CheckpointError::Journal {
                line: 1,
                message: "empty journal".to_string(),
            });
        }
    }
    let mut specs: Vec<ScenarioSpec> = Vec::new();
    let mut finished = HashSet::new();
    for (idx, raw) in lines {
        let line = idx + 1;
        let entry = raw.trim();
        if entry.is_empty() {
            continue;
        }
        let err = |message: String| CheckpointError::Journal { line, message };
        if let Some(spec_text) = entry.strip_prefix("spec ") {
            let mut spec: ScenarioSpec = spec_text
                .parse()
                .map_err(|e: ParseError| err(e.to_string()))?;
            spec.source_line = Some(line);
            specs.push(spec);
        } else if let Some(rest) = entry
            .strip_prefix("done ")
            .or_else(|| entry.strip_prefix("fail "))
        {
            let index_text = rest.split_whitespace().next().unwrap_or("");
            let i: usize = index_text
                .parse()
                .map_err(|_| err(format!("invalid scenario index '{index_text}'")))?;
            if i >= specs.len() {
                return Err(err(format!(
                    "scenario index {i} out of range ({} specs declared)",
                    specs.len()
                )));
            }
            finished.insert(i);
        } else {
            return Err(err(format!("unrecognized journal entry '{entry}'")));
        }
    }
    Ok((specs, finished))
}

/// Checkpoint-vs-journal spec equality, with the execution-only
/// `threads=` key (results never depend on it) normalized away.
/// `ScenarioSpec`'s equality already ignores file-line provenance.
fn specs_equivalent(a: &ScenarioSpec, b: &ScenarioSpec) -> bool {
    let mut a = a.clone();
    a.threads = b.threads;
    a == *b
}

/// Renders a caught panic payload; `&str`/`String` payloads (the
/// overwhelmingly common case: `panic!`, `assert!`, `unwrap`) pass
/// through verbatim.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "scenario panicked with a non-string payload".to_string()
    }
}

/// Executes batches of [`ScenarioSpec`]s, reusing one persistent worker
/// pool across all simulations or scheduling independent scenarios
/// concurrently; see the module docs above.
pub struct Driver {
    threads: usize,
    concurrency: usize,
    // Mutex (not a plain field) so a panicking scenario can quarantine a
    // pool whose workers it deserted mid-barrier and install a fresh one
    // for the rest of the batch.
    pool: Mutex<Option<Arc<WorkerPool>>>,
}

impl Driver {
    /// A sequential driver: every scenario runs on the calling thread,
    /// regardless of its `threads=` key (no pools are spawned).
    pub fn new() -> Self {
        Self {
            threads: 1,
            concurrency: 1,
            pool: Mutex::new(None),
        }
    }

    /// A driver whose simulations all run on one persistent pool of
    /// `threads` participants (spawned here, reused for every scenario).
    /// The pool size overrides each scenario's `threads=` key; reports
    /// are unaffected because pooled execution is bit-identical to
    /// sequential.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::ZeroThreads`] if `threads == 0`.
    pub fn with_threads(threads: usize) -> Result<Self, BuildError> {
        if threads == 0 {
            return Err(BuildError::ZeroThreads);
        }
        Ok(Self {
            threads,
            concurrency: 1,
            pool: Mutex::new((threads > 1).then(|| Arc::new(WorkerPool::new(threads)))),
        })
    }

    /// A driver that schedules up to `workers` **independent scenarios
    /// concurrently**: [`Driver::run_batch`] spawns that many scoped
    /// worker threads which pull the next unstarted scenario from a
    /// shared work-stealing queue and run it on the sequential
    /// (single-threaded) executor. Reports are returned in input order
    /// and are bit-identical to [`Driver::new`]'s sequential runs — each
    /// scenario's simulation is completely self-contained.
    ///
    /// This is the right shape when the batch has at least as many
    /// scenarios as cores; use [`Driver::with_threads`] to instead
    /// parallelize within few large scenarios.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::ZeroThreads`] if `workers == 0`.
    pub fn concurrent(workers: usize) -> Result<Self, BuildError> {
        if workers == 0 {
            return Err(BuildError::ZeroThreads);
        }
        Ok(Self {
            threads: 1,
            concurrency: workers,
            pool: Mutex::new(None),
        })
    }

    /// Worker threads per simulation (1 = sequential).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The pool simulations currently attach to, if any.
    fn attached_pool(&self) -> Option<Arc<WorkerPool>> {
        self.pool
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Replaces a possibly-wedged pool after a scenario panicked.
    ///
    /// The panic may have deserted the pool's workers mid-barrier;
    /// *dropping* such a pool would block forever on the same barrier,
    /// so the wedged pool is deliberately leaked (its parked workers
    /// with it) and a fresh pool of the same size takes its place for
    /// the rest of the batch.
    fn quarantine_pool(&self) {
        let mut slot = self.pool.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(old) = slot.take() {
            std::mem::forget(old);
            *slot = Some(Arc::new(WorkerPool::new(self.threads)));
        }
    }

    /// Runs one scenario on this driver's pool.
    ///
    /// # Errors
    ///
    /// Build failures are wrapped as [`BuildError::Scenario`] carrying the
    /// scenario's name.
    pub fn run_spec(&self, spec: &ScenarioSpec) -> Result<ScenarioReport, BuildError> {
        self.run_spec_from(spec, None)
    }

    /// [`Driver::run_spec`], continued from `ckpt` when one is given:
    /// the snapshot is restored into the freshly built simulator and only
    /// the remaining part of the spec's stop condition runs.
    fn run_spec_from(
        &self,
        spec: &ScenarioSpec,
        ckpt: Option<&Checkpoint>,
    ) -> Result<ScenarioReport, BuildError> {
        let wrap = |source: BuildError| BuildError::Scenario {
            name: spec.name.clone(),
            source: Box::new(source),
        };
        let start = Instant::now();
        let graph = spec.build_graph().map_err(wrap)?;
        // The driver owns execution: its thread count (and pool) replaces
        // the scenario's `threads=` key, so a sequential driver never
        // spawns per-scenario pools. Results are unaffected — pooled
        // execution is bit-identical to sequential.
        let mut spec = spec.clone();
        spec.threads = self.threads;
        let experiment = spec.experiment_on(&graph).map_err(wrap)?;
        let mut sim = match self.attached_pool() {
            Some(pool) => experiment.simulator_on(pool),
            None => experiment.simulator(),
        };
        let observer = &mut crate::observer::NullObserver;
        let report = match ckpt {
            Some(ckpt) => experiment
                .resume_on(&mut sim, &ckpt.snapshot, observer)
                .map_err(|e| wrap(e.into()))?,
            None => experiment.run_on(&mut sim, observer),
        };
        Ok(ScenarioReport {
            name: spec.name.clone(),
            spec: spec.to_string(),
            nodes: graph.node_count(),
            edges: graph.edge_count(),
            report,
            wall: start.elapsed(),
        })
    }

    /// One crash-isolated scenario: build failures, panics, and
    /// non-finite results all come back as a typed failure instead of
    /// unwinding into (and killing) the batch. A panic quarantines the
    /// pool, so the next scenario runs on a fresh one.
    fn run_guarded(&self, run: impl FnOnce() -> Result<ScenarioReport, BuildError>) -> Outcome {
        match panic::catch_unwind(AssertUnwindSafe(run)) {
            Ok(Ok(report)) => {
                let max_minus_avg = report.report.final_metrics.max_minus_avg;
                if max_minus_avg.is_finite() {
                    Ok(report)
                } else {
                    Err(ScenarioFailure::Diverged(format!(
                        "final max − avg is {max_minus_avg}"
                    )))
                }
            }
            Ok(Err(e)) => Err(ScenarioFailure::Build(e)),
            Err(payload) => {
                self.quarantine_pool();
                Err(ScenarioFailure::Panicked(panic_message(payload)))
            }
        }
    }

    /// Runs every scenario and aggregates the results (in input order).
    /// With [`Driver::concurrent`], up to `concurrency` scenarios are in
    /// flight at once; the per-scenario reports are identical to a
    /// sequential driver's either way.
    ///
    /// The batch always runs to completion: scenarios that fail to
    /// build, panic, or diverge are collected (in input order) in
    /// [`BatchReport::errors`] while the rest execute normally.
    pub fn run_batch(&self, specs: &[ScenarioSpec]) -> BatchReport {
        self.run_batch_with(specs, |spec| self.run_spec(spec))
    }

    /// [`Driver::run_batch`] with an injectable per-scenario runner —
    /// the crash-isolation seam the fault-injection tests drive panics
    /// through. Not part of the stable API.
    #[doc(hidden)]
    pub fn run_batch_with(
        &self,
        specs: &[ScenarioSpec],
        runner: impl Fn(&ScenarioSpec) -> Result<ScenarioReport, BuildError> + Sync,
    ) -> BatchReport {
        self.run_batch_core(specs, None, None, &|_, spec| runner(spec))
    }

    /// Shared engine behind all batch entry points. `indices` maps
    /// positions in `specs` back to original batch positions (identity
    /// when `None`); `journal` receives a flushed `done`/`fail` line as
    /// each scenario finishes; `runner` gets the position in `specs`.
    fn run_batch_core(
        &self,
        specs: &[ScenarioSpec],
        indices: Option<&[usize]>,
        journal: Option<&Mutex<fs::File>>,
        runner: &(impl Fn(usize, &ScenarioSpec) -> Result<ScenarioReport, BuildError> + Sync),
    ) -> BatchReport {
        let start = Instant::now();
        let orig = |i: usize| indices.map_or(i, |map| map[i]);
        let run_one = |i: usize, spec: &ScenarioSpec| {
            let outcome = self.run_guarded(|| runner(i, spec));
            if let Some(sink) = journal {
                append_outcome(sink, orig(i), outcome.as_ref().err());
            }
            outcome
        };
        let results: Vec<Outcome> = if self.concurrency <= 1 || specs.len() <= 1 {
            specs
                .iter()
                .enumerate()
                .map(|(i, spec)| run_one(i, spec))
                .collect()
        } else {
            let slots: Vec<Mutex<Option<Outcome>>> =
                specs.iter().map(|_| Mutex::new(None)).collect();
            // Work-stealing queue over the batch: each worker claims
            // the next unstarted scenario, so long and short scenarios
            // balance themselves without any up-front partitioning.
            // Workers never unwind (run_guarded catches), so every
            // slot is filled even when scenarios fail.
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..self.concurrency.min(specs.len()) {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(spec) = specs.get(i) else { break };
                        let result = run_one(i, spec);
                        *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
                    });
                }
            });
            slots
                .into_iter()
                .map(|slot| {
                    slot.into_inner()
                        .unwrap_or_else(PoisonError::into_inner)
                        .expect("every scenario slot is filled before the scope ends")
                })
                .collect()
        };
        let mut scenarios = Vec::new();
        let mut errors = Vec::new();
        for (index, (spec, result)) in specs.iter().zip(results).enumerate() {
            match result {
                Ok(report) => scenarios.push(report),
                Err(error) => errors.push(ScenarioError {
                    index: orig(index),
                    name: spec.name.clone(),
                    line: spec.source_line,
                    error,
                }),
            }
        }
        BatchReport::assemble(scenarios, errors, start.elapsed())
    }

    /// [`Driver::run_batch`] with a durable **recovery journal**: before
    /// anything runs, the canonical spec line of every scenario is
    /// written to `journal`; as each scenario finishes, a `done <i>` (or
    /// `fail <i> <message>`) line is appended and flushed. If the
    /// process dies mid-batch, [`Driver::resume_batch`] replays the
    /// journal — finished scenarios are skipped, and scenarios that were
    /// checkpointing (`ckpt=every:N:DIR`) restart from their latest
    /// snapshot instead of from round 0.
    ///
    /// The journal is a human-readable text file:
    ///
    /// ```text
    /// sodiff-journal v1
    /// spec name=a topology=torus2d:8:8 seed=1 ... stop=rounds:60
    /// spec name=b topology=cycle:17 seed=2 ... stop=rounds:45
    /// done 0
    /// fail 1 panicked: ...
    /// ```
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Spec`], before the journal is created, when a
    /// spec's line does not parse back to the same spec, name aside
    /// (`Display` sanitizes names; `line` is the spec's 1-based position
    /// in `specs`); [`CheckpointError::Io`] when the journal cannot be
    /// created or seeded. Scenario failures do
    /// **not** error the call — they are recorded in the report (and the
    /// journal) exactly like in [`Driver::run_batch`].
    pub fn run_batch_durable(
        &self,
        specs: &[ScenarioSpec],
        journal: &Path,
    ) -> Result<BatchReport, CheckpointError> {
        // `resume_batch` reads every spec back from its journal line, so
        // one that does not parse back would strand the whole batch.
        for (i, spec) in specs.iter().enumerate() {
            spec.check_reads_back().map_err(|why| {
                let message = format!("scenario '{}': {why}", spec.name);
                CheckpointError::Spec(ParseError::new(message).at_line(i + 1))
            })?;
        }
        let io = |e: std::io::Error| CheckpointError::io(journal, e);
        create_parent_dir(journal)?;
        let mut file = fs::File::create(journal).map_err(io)?;
        writeln!(file, "{JOURNAL_HEADER}").map_err(io)?;
        for spec in specs {
            writeln!(file, "spec {spec}").map_err(io)?;
        }
        file.flush().map_err(io)?;
        let sink = Mutex::new(file);
        Ok(self.run_batch_core(specs, None, Some(&sink), &|_, spec| self.run_spec(spec)))
    }

    /// Resumes a batch from a [`Driver::run_batch_durable`] journal:
    /// scenarios already marked `done`/`fail` are skipped, scenarios
    /// with a readable checkpoint continue from its snapshot (the
    /// resumed report covers only the remaining rounds, but the final
    /// state is bit-identical to an uninterrupted run), and everything
    /// else re-runs from round 0. New outcomes are appended to the same
    /// journal, so a resume interrupted again is itself resumable.
    /// [`ScenarioError::index`] values refer to the **original** batch
    /// positions.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the journal cannot be read or
    /// reopened, and [`CheckpointError::Journal`] (with the offending
    /// 1-based line) for malformed entries. A damaged *checkpoint file*
    /// does not error the call: its scenario is recorded as a
    /// line-anchored [`ScenarioFailure::Checkpoint`] in
    /// [`BatchReport::errors`] and the rest of the batch proceeds.
    pub fn resume_batch(&self, journal: &Path) -> Result<BatchReport, CheckpointError> {
        let text = fs::read_to_string(journal).map_err(|e| CheckpointError::io(journal, e))?;
        let (specs, finished) = parse_journal(&text)?;
        let file = fs::OpenOptions::new()
            .append(true)
            .open(journal)
            .map_err(|e| CheckpointError::io(journal, e))?;
        let sink = Mutex::new(file);
        let start = Instant::now();

        // Partition the unfinished scenarios into restorable runs (a
        // readable checkpoint whose embedded spec matches the journal's)
        // and from-scratch runs. Checkpoint damage is a per-scenario
        // failure — journaled like any other — not a batch error.
        let mut run_specs = Vec::new();
        let mut run_indices = Vec::new();
        let mut checkpoints: Vec<Option<Checkpoint>> = Vec::new();
        let mut ckpt_errors = Vec::new();
        for (i, spec) in specs.iter().enumerate() {
            if finished.contains(&i) {
                continue;
            }
            let mut restored = None;
            if let Some(cfg) = spec.checkpoint_config() {
                let path = cfg.latest_path();
                if path.exists() {
                    let loaded = read_checkpoint(&path).and_then(|ckpt| {
                        if specs_equivalent(&ckpt.spec, spec) {
                            Ok(ckpt)
                        } else {
                            Err(CheckpointError::Mismatch(format!(
                                "checkpoint {} was written by scenario '{}', not '{}'",
                                path.display(),
                                ckpt.spec.name,
                                spec.name
                            )))
                        }
                    });
                    match loaded {
                        Ok(ckpt) => restored = Some(ckpt),
                        Err(e) => {
                            append_outcome(&sink, i, Some(&e));
                            ckpt_errors.push(ScenarioError {
                                index: i,
                                name: spec.name.clone(),
                                line: spec.source_line,
                                error: ScenarioFailure::Checkpoint(e),
                            });
                            continue;
                        }
                    }
                }
            }
            checkpoints.push(restored);
            run_specs.push(spec.clone());
            run_indices.push(i);
        }

        let mut report =
            self.run_batch_core(&run_specs, Some(&run_indices), Some(&sink), &|pos, spec| {
                self.run_spec_from(spec, checkpoints[pos].as_ref())
            });
        report.errors.extend(ckpt_errors);
        report.errors.sort_by_key(|e| e.index);
        report.total_wall = start.elapsed();
        Ok(report)
    }
}

impl Default for Driver {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_specs() -> Vec<ScenarioSpec> {
        ScenarioSpec::parse_many(
            "name=torus topology=torus2d:6:6 scheme=sos:1.8 seed=4 stop=rounds:80\n\
             name=cube topology=hypercube:5 seed=5 stop=rounds:40\n\
             name=ideal topology=cycle:12 mode=continuous scheme=sos:1.5 stop=rounds:60\n",
        )
        .unwrap()
    }

    #[test]
    fn batch_aggregates_rounds() {
        let batch = Driver::new().run_batch(&sample_specs());
        assert!(batch.errors.is_empty());
        assert_eq!(batch.scenarios.len(), 3);
        assert_eq!(batch.total_rounds, 80 + 40 + 60);
        assert!(batch.worst_max_minus_avg >= batch.mean_max_minus_avg);
        assert_eq!(batch.scenarios[0].nodes, 36);
        assert_eq!(batch.scenarios[1].edges, 80);
    }

    #[test]
    fn pooled_batch_is_bit_identical_to_sequential() {
        let specs = sample_specs();
        let seq = Driver::new().run_batch(&specs);
        let pooled = Driver::with_threads(3).unwrap().run_batch(&specs);
        assert!(seq.errors.is_empty() && pooled.errors.is_empty());
        for (a, b) in seq.scenarios.iter().zip(&pooled.scenarios) {
            assert_eq!(a.report, b.report, "{}", a.name);
        }
    }

    #[test]
    fn concurrent_specs_on_one_pool_stay_correct() {
        // Two threads pushing different scenarios through the same pooled
        // driver must serialize on the pool's round lock and still produce
        // the sequential results — the barrier protocol admits one
        // external participant at a time.
        let specs = sample_specs();
        let sequential = Driver::new().run_batch(&specs);
        let driver = Driver::with_threads(3).unwrap();
        let reports: Vec<ScenarioReport> = std::thread::scope(|scope| {
            let handles: Vec<_> = specs
                .iter()
                .map(|spec| scope.spawn(|| driver.run_spec(spec).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (a, b) in sequential.scenarios.iter().zip(&reports) {
            assert_eq!(a.report, b.report, "{}", a.name);
        }
    }

    #[test]
    fn sequential_driver_ignores_scenario_threads() {
        // `threads=8` in the spec must not make Driver::new spawn pools;
        // the run still succeeds and matches the sequential result.
        let specs = ScenarioSpec::parse_many(
            "name=threaded topology=torus2d:5:5 seed=2 threads=8 stop=rounds:40",
        )
        .unwrap();
        let driven = Driver::new().run_batch(&specs);
        let standalone = specs[0].run().unwrap();
        assert_eq!(driven.scenarios[0].report, standalone);
    }

    #[test]
    fn failing_scenario_is_reported_not_fatal() {
        // `broken` parses but cannot build: randomized rounding without a
        // seed. (Out-of-range parameters like `sos:3.0` are rejected at
        // parse time with a line number.) The batch still completes `ok`.
        let specs = ScenarioSpec::parse_many(
            "name=ok topology=cycle:8 seed=1 stop=rounds:5\n\
             name=broken topology=cycle:8 rounding=randomized\n",
        )
        .unwrap();
        let batch = Driver::new().run_batch(&specs);
        assert_eq!(batch.scenarios.len(), 1);
        assert_eq!(batch.scenarios[0].name, "ok");
        assert_eq!(batch.errors.len(), 1);
        let err = &batch.errors[0];
        assert_eq!(
            (err.index, err.name.as_str(), err.line),
            (1, "broken", Some(2))
        );
        match &err.error {
            ScenarioFailure::Build(BuildError::Scenario { name, source }) => {
                assert_eq!(name, "broken");
                assert!(matches!(**source, BuildError::MissingSeed(_)));
            }
            other => panic!("unexpected error {other:?}"),
        }
        let rendered = err.to_string();
        assert!(
            rendered.contains("'broken'") && rendered.contains("line 2"),
            "{rendered}"
        );
    }

    #[test]
    fn steady_scenarios_surface_worst_p99() {
        let specs = ScenarioSpec::parse_many(
            "name=dyn topology=torus2d:6:6 scheme=sos:1.8 seed=4 load=poisson:0.5:7 \
             stop=horizon:40\n\
             name=static topology=cycle:12 seed=5 stop=rounds:20\n",
        )
        .unwrap();
        let batch = Driver::new().run_batch(&specs);
        assert!(batch.errors.is_empty());
        let steady = batch.scenarios[0].report.steady.unwrap();
        assert_eq!(steady.window, 40);
        assert!(batch.scenarios[1].report.steady.is_none());
        assert_eq!(batch.worst_steady_p99, Some(steady.p99_dev));
    }

    #[test]
    fn zero_thread_driver_rejected() {
        assert!(matches!(
            Driver::with_threads(0),
            Err(BuildError::ZeroThreads)
        ));
        assert!(matches!(
            Driver::concurrent(0),
            Err(BuildError::ZeroThreads)
        ));
    }

    #[test]
    fn concurrent_batch_is_bit_identical_to_sequential() {
        let specs = sample_specs();
        let seq = Driver::new().run_batch(&specs);
        for workers in [2usize, 3, 8] {
            let conc = Driver::concurrent(workers).unwrap().run_batch(&specs);
            assert!(conc.errors.is_empty());
            assert_eq!(conc.scenarios.len(), seq.scenarios.len());
            for (a, b) in seq.scenarios.iter().zip(&conc.scenarios) {
                assert_eq!(a.name, b.name, "input order preserved");
                assert_eq!(a.report, b.report, "{} ({workers} workers)", a.name);
            }
            assert_eq!(conc.total_rounds, seq.total_rounds);
        }
    }

    #[test]
    fn concurrent_batch_reports_all_failures_in_input_order() {
        let specs = ScenarioSpec::parse_many(
            "name=ok topology=cycle:8 seed=1 stop=rounds:5\n\
             name=bad1 topology=cycle:8 rounding=randomized\n\
             name=ok2 topology=cycle:8 seed=2 stop=rounds:5\n\
             name=bad2 topology=cycle:8 seed=1 init=point:99:10\n",
        )
        .unwrap();
        let batch = Driver::concurrent(4).unwrap().run_batch(&specs);
        assert_eq!(batch.scenarios.len(), 2, "both good scenarios completed");
        assert_eq!(batch.scenarios[0].name, "ok");
        assert_eq!(batch.scenarios[1].name, "ok2");
        let positions: Vec<(usize, &str, Option<usize>)> = batch
            .errors
            .iter()
            .map(|e| (e.index, e.name.as_str(), e.line))
            .collect();
        assert_eq!(positions, [(1, "bad1", Some(2)), (3, "bad2", Some(4))]);
    }

    /// A topology past the `u32` id space is refused as a typed build
    /// error before any allocation, not as a `Panicked` scenario.
    #[test]
    fn oversized_topology_fails_with_a_typed_build_error() {
        let specs = ScenarioSpec::parse_many(
            "name=ok topology=cycle:8 seed=1 stop=rounds:5\n\
             name=huge topology=torus2d:4000000000:4000000000 seed=1 stop=rounds:5\n",
        )
        .unwrap();
        for driver in [Driver::new(), Driver::concurrent(2).unwrap()] {
            let batch = driver.run_batch(&specs);
            assert_eq!(batch.scenarios.len(), 1, "the good scenario still ran");
            assert_eq!(batch.errors.len(), 1);
            let err = &batch.errors[0];
            assert_eq!((err.index, err.name.as_str()), (1, "huge"));
            let ScenarioFailure::Build(BuildError::Scenario { name, source }) = &err.error else {
                panic!("expected a typed build error, got {:?}", err.error);
            };
            assert_eq!(name, "huge");
            match &**source {
                BuildError::Graph(sodiff_graph::GraphError::InvalidParameter(msg)) => {
                    assert!(msg.contains("u32 ids"), "{msg}")
                }
                other => panic!("expected a graph parameter error, got {other:?}"),
            }
        }
    }

    /// Runs `specs` on `driver` with a runner that panics on `boom` and
    /// counts its calls per scenario.
    fn run_counting(driver: &Driver, specs: &[ScenarioSpec]) -> (BatchReport, Vec<usize>) {
        let calls: Vec<AtomicUsize> = specs.iter().map(|_| AtomicUsize::new(0)).collect();
        let batch = driver.run_batch_with(specs, |spec| {
            let i = specs.iter().position(|s| s.name == spec.name).unwrap();
            calls[i].fetch_add(1, Ordering::Relaxed);
            if spec.name == "boom" {
                panic!("injected fault in {}", spec.name);
            }
            driver.run_spec(spec)
        });
        (
            batch,
            calls.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
        )
    }

    #[test]
    fn panicking_scenario_is_isolated() {
        let specs = ScenarioSpec::parse_many(
            "name=ok topology=cycle:8 seed=1 stop=rounds:5\n\
             name=boom topology=cycle:8 seed=2 stop=rounds:5\n\
             name=bad topology=cycle:8 rounding=randomized\n\
             name=ok2 topology=cycle:8 seed=3 stop=rounds:5\n",
        )
        .unwrap();
        for driver in [Driver::new(), Driver::concurrent(3).unwrap()] {
            let (batch, calls) = run_counting(&driver, &specs);
            assert_eq!(
                calls, [1; 4],
                "each scenario runs once, failed ones included"
            );
            assert_eq!(batch.total_attempts, 4);
            let names: Vec<&str> = batch.scenarios.iter().map(|s| s.name.as_str()).collect();
            assert_eq!(names, ["ok", "ok2"], "batch survived the panic");
            assert_eq!(batch.errors.len(), 2);
            let err = &batch.errors[0];
            assert_eq!(err.name, "boom");
            match &err.error {
                ScenarioFailure::Panicked(msg) => assert!(msg.contains("injected fault")),
                other => panic!("unexpected error {other:?}"),
            }
            assert!(matches!(batch.errors[1].error, ScenarioFailure::Build(_)));
        }
    }

    #[test]
    fn journal_parsing_rejects_malformed_entries() {
        assert!(matches!(
            parse_journal(""),
            Err(CheckpointError::Journal { line: 1, .. })
        ));
        assert!(matches!(
            parse_journal("not a journal\n"),
            Err(CheckpointError::Journal { line: 1, .. })
        ));
        let good = "sodiff-journal v1\n\
                    spec name=a topology=cycle:8 seed=1 stop=rounds:5\n\
                    done 0\n";
        let (specs, finished) = parse_journal(good).unwrap();
        assert_eq!(specs.len(), 1);
        assert!(finished.contains(&0));
        assert_eq!(specs[0].source_line, Some(2), "journal-line provenance");
        let bad_index = "sodiff-journal v1\n\
                         spec name=a topology=cycle:8 seed=1 stop=rounds:5\n\
                         done 3\n";
        assert!(matches!(
            parse_journal(bad_index),
            Err(CheckpointError::Journal { line: 3, .. })
        ));
        assert!(matches!(
            parse_journal("sodiff-journal v1\nwat 0\n"),
            Err(CheckpointError::Journal { line: 2, .. })
        ));
        let bad_spec = "sodiff-journal v1\nspec name=a topology=nope:3\n";
        assert!(matches!(
            parse_journal(bad_spec),
            Err(CheckpointError::Journal { line: 2, .. })
        ));
    }

    #[test]
    fn pooled_driver_replaces_pool_after_panic() {
        let specs = sample_specs();
        let clean = Driver::new().run_batch(&specs);
        let driver = Driver::with_threads(3).unwrap();
        let mut specs_with_bomb = specs.clone();
        specs_with_bomb.insert(
            1,
            "name=boom topology=cycle:8 seed=9 stop=rounds:5"
                .parse()
                .unwrap(),
        );
        let (batch, calls) = run_counting(&driver, &specs_with_bomb);
        assert_eq!(
            calls,
            vec![1; specs_with_bomb.len()],
            "each scenario runs once"
        );
        assert_eq!(batch.errors.len(), 1);
        assert_eq!(batch.scenarios.len(), specs.len());
        // Scenarios after the panic still ran (on the replacement pool)
        // and stayed bit-identical to the sequential driver.
        for (a, b) in clean.scenarios.iter().zip(&batch.scenarios) {
            assert_eq!(a.report, b.report, "{}", a.name);
        }
    }
}
