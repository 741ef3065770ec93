//! The round-based load-balancing simulator.
//!
//! One [`Simulator`] runs either the *continuous* (idealized, `f64` loads)
//! or the *discrete* (integer tokens, rounded flows) version of a
//! balancing [`Scheme`] — FOS/SOS diffusion, dimension exchange, or
//! matching-based balancing — on a fixed network, in synchronous rounds.
//! The per-round flow computation itself lives in the scheme-kernel layer
//! ([`crate::scheme_kernel`]); the engine owns state, stop conditions,
//! hybrid switching, and reporting. It also tracks the
//! *transient* load `x̆_i(t) = x_i(t) − Σ_j max(y_{i,j}(t), 0)` — the load
//! of a node after all outgoing flow has left but before incoming flow
//! arrives — which is the quantity the paper's negative-load results
//! (Section V) bound.
//!
//! Simulators are minted by a built [`crate::Experiment`]. Its builder
//! fills one crate-internal configuration and validates it once, at
//! [`crate::ExperimentBuilder::build`], returning a typed [`BuildError`]
//! instead of panicking; the simulator reads that configuration as it
//! is, so constructing one cannot fail.
//!
//! # Parallel execution
//!
//! The paper's C++ simulator uses OpenMP; here a thread count above 1
//! attaches the simulation to a **persistent worker pool** (see
//! [`crate::pool`]): threads are spawned once and park on a barrier
//! between rounds, so the per-round executor overhead is a handful of
//! barrier waits instead of `threads × phases` thread spawns. The batch
//! [`crate::Driver`] can share one pool across a whole scenario file.
//!
//! Either way the simulation's state lives in one container,
//! [`RoundState`] — plain vectors on the sequential executor, relaxed
//! atomics in the pool's job — and every accessor is written once,
//! generic over the two. A round is the same three steps on both
//! executors: prepare on the control thread, the one participant
//! function ([`SchemeKernel::participate`]) — once over every edge and
//! node sequentially, once per chunk with the barrier between phases on
//! the pool — and collect. Every phase is a pure per-edge or per-node
//! pass (node-centric application, per-(node, round)-keyed RNG streams)
//! through the same division-free kernels ([`crate::kernel`]), so the
//! parallel path is **bit-identical** to the sequential one — for
//! integer and floating-point loads alike — and results never depend on
//! the thread count.

use std::borrow::Cow;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use sodiff_graph::{Graph, Speeds};

use crate::checkpoint::{self, CheckpointConfig, LoadsSnapshot, Snapshot};
use crate::error::{BuildError, CheckpointError, ParseError};
use crate::experiment::Config;
use crate::hybrid::SwitchPolicy;
use crate::kernel::{Buf, KernelTables, LoadStats};
use crate::metrics::{snapshot_with_total, MetricsSnapshot};
use crate::observer::Observer;
use crate::perturb::{ChurnEvents, FaultEvents, LoadEvents, Perturb, RoundMasks};
use crate::pool::{RoundJob, WorkerPool};
use crate::rounding::Rounding;
use crate::scheme::Scheme;
use crate::scheme_kernel::{PlainSlots, RoundArgs, RoundScratch, RoundState, SchemeKernel};
use crate::watch::{RunRecord, SteadyStats, SteadyTracker};

/// Continuous vs discrete execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Idealized scheme: loads are `f64`, flows are not rounded.
    Continuous,
    /// Discrete scheme: integer tokens, scheduled flows rounded per round.
    Discrete(Rounding),
}

/// When to stop a [`Simulator::run_until`] loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StopCondition {
    /// Run exactly this many further rounds.
    MaxRounds(usize),
    /// Stop as soon as `max − avg` drops to `threshold` (or after
    /// `max_rounds`, whichever comes first).
    BalancedWithin {
        /// Target `max − avg` in tokens.
        threshold: f64,
        /// Hard round cap.
        max_rounds: usize,
    },
    /// Stop when the remaining imbalance stops improving (plateau
    /// detection over `window` rounds), or after `max_rounds`.
    Plateau {
        /// Plateau detection window in rounds.
        window: usize,
        /// Hard round cap.
        max_rounds: usize,
    },
    /// Stop once the per-round deviation has reached **steady state**
    /// under a dynamic workload: the mean `max − avg` over the newest
    /// `window` rounds no longer improves on the window before it
    /// (within 1%). The report carries windowed deviation statistics
    /// ([`RunReport::steady`]). A built-in cap of 100 000 rounds,
    /// counted from the run origin (so a resumed run stops at the same
    /// round as an uninterrupted one), guards against workloads that
    /// never settle.
    Steady {
        /// Steady-state detection window in rounds.
        window: usize,
    },
    /// Run exactly this many rounds and report deviation statistics
    /// over **all** of them ([`RunReport::steady`]) — the fixed-horizon
    /// companion of [`StopCondition::Steady`] for dynamic workloads.
    Horizon(usize),
}

impl Default for StopCondition {
    /// `MaxRounds(1000)`: the builder's and the `stop=` key's default.
    fn default() -> Self {
        StopCondition::MaxRounds(1000)
    }
}

impl StopCondition {
    /// The range rule of the parameters, shared by `FromStr` and
    /// [`StopCondition::check`]: `Err` says why the condition is
    /// degenerate.
    fn ranges(&self) -> Result<(), &'static str> {
        match *self {
            StopCondition::BalancedWithin { threshold, .. } if threshold.is_nan() => {
                Err("balance threshold must not be NaN")
            }
            StopCondition::Plateau { window: 0, .. } => Err("plateau window must be positive"),
            StopCondition::Steady { window: 0 } => Err("steady window must be positive"),
            StopCondition::Horizon(0) => Err("horizon must be positive"),
            _ => Ok(()),
        }
    }

    /// Validates the condition's parameters. The steady modes allocate
    /// their sample ring up front, so a ring whose length overflows or
    /// that the allocator cannot reserve is refused here — a typed error
    /// instead of an allocation abort no batch driver could isolate.
    pub(crate) fn check(&self) -> Result<(), BuildError> {
        let invalid = |msg: String| Err(BuildError::InvalidStopCondition(msg));
        self.ranges()
            .map_err(|why| BuildError::InvalidStopCondition(why.into()))?;
        let ring = match *self {
            StopCondition::Steady { window } => SteadyTracker::steady_ring(window),
            StopCondition::Horizon(rounds) => Some(rounds),
            _ => return Ok(()),
        };
        match ring {
            Some(len) if Vec::<f64>::new().try_reserve_exact(len).is_ok() => Ok(()),
            _ => invalid(format!(
                "{self:?} needs a sample ring too large to allocate"
            )),
        }
    }
}

impl fmt::Display for StopCondition {
    /// Scenario-file form: `rounds:N`, `balanced:THRESHOLD:MAX`,
    /// `plateau:WINDOW:MAX`, `steady:WINDOW`, or `horizon:R`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StopCondition::MaxRounds(r) => write!(f, "rounds:{r}"),
            StopCondition::BalancedWithin {
                threshold,
                max_rounds,
            } => write!(f, "balanced:{threshold}:{max_rounds}"),
            StopCondition::Plateau { window, max_rounds } => {
                write!(f, "plateau:{window}:{max_rounds}")
            }
            StopCondition::Steady { window } => write!(f, "steady:{window}"),
            StopCondition::Horizon(r) => write!(f, "horizon:{r}"),
        }
    }
}

impl FromStr for StopCondition {
    type Err = ParseError;

    /// Parses the `Display` form. Range violations are refused here too,
    /// by the same rule the experiment's build check applies, so
    /// scenario files get a line-anchored parse error instead of a late
    /// build failure.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = || {
            ParseError::new(format!(
                "invalid stop condition '{s}' (expected rounds:N, balanced:THRESHOLD:MAX, \
                 plateau:WINDOW:MAX, steady:WINDOW, or horizon:R)"
            ))
        };
        let count = |text: &str| text.parse::<usize>().map_err(|_| bad());
        let stop = match s.split(':').collect::<Vec<_>>().as_slice() {
            ["rounds", r] => StopCondition::MaxRounds(count(r)?),
            ["balanced", threshold, max] => StopCondition::BalancedWithin {
                threshold: threshold.parse().map_err(|_| bad())?,
                max_rounds: count(max)?,
            },
            ["plateau", window, max] => StopCondition::Plateau {
                window: count(window)?,
                max_rounds: count(max)?,
            },
            ["steady", window] => StopCondition::Steady {
                window: count(window)?,
            },
            ["horizon", r] => StopCondition::Horizon(count(r)?),
            _ => return Err(bad()),
        };
        stop.ranges()
            .map_err(|why| ParseError::new(format!("invalid stop condition '{s}': {why}")))?;
        Ok(stop)
    }
}

/// Why a run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The round cap was reached.
    MaxRounds,
    /// The balance threshold was met.
    Threshold,
    /// The imbalance plateaued.
    Plateau,
    /// The deviation reached steady state under a dynamic workload.
    Steady,
    /// The fixed horizon was reached.
    Horizon,
}

/// Summary of a finished run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Rounds executed by this call.
    pub rounds: u64,
    /// Metrics at the final round.
    pub final_metrics: MetricsSnapshot,
    /// Why the run stopped.
    pub reason: StopReason,
    /// Remaining imbalance if a plateau was detected.
    pub remaining_imbalance: Option<f64>,
    /// The round at which a hybrid switch to FOS fired, if a
    /// [`SwitchPolicy`] was active and fired — or if the divergence
    /// watchdog degraded an SOS run to FOS.
    pub switch_round: Option<u64>,
    /// Whether the divergence watchdog fired during this call: the
    /// deviation grew past its guardrail (or went non-finite) under
    /// fault injection, engaging graceful degradation (automatic
    /// SOS→FOS fallback where the scheme allows it).
    pub degraded: bool,
    /// Fault events injected over the simulator's lifetime so far (all
    /// zero for `faults=none` runs). Cumulative across repeated
    /// [`Simulator::run_until`] calls, like [`Simulator::round`].
    pub faults: FaultEvents,
    /// Dynamic-load events injected over the simulator's lifetime so far
    /// (all zero for `load=none` runs); `injected` is the net token
    /// delta, so conservation checks become
    /// `total == initial + injected`. Cumulative like
    /// [`RunReport::faults`].
    pub load: LoadEvents,
    /// Topology-churn events over the simulator's lifetime so far (all
    /// zero for `churn=none` runs). With churn active, conservation
    /// checks become `total == initial + injected + joined − departed`.
    /// Cumulative like [`RunReport::faults`].
    pub churn: ChurnEvents,
    /// Windowed steady-state deviation statistics, reported by the
    /// [`StopCondition::Steady`] and [`StopCondition::Horizon`] run
    /// modes (`None` for every other stop condition).
    pub steady: Option<SteadyStats>,
}

/// The simulation's attachment to a worker pool: the pool itself (owned
/// here or shared with a [`crate::Driver`]) plus this simulation's job.
struct PoolAttachment {
    pool: Arc<WorkerPool>,
    job: Arc<RoundJob>,
}

impl PoolAttachment {
    /// The job, which the pool detaches at the end of every round, so
    /// between rounds this attachment holds it alone.
    fn job_mut(&mut self) -> &mut RoundJob {
        Arc::get_mut(&mut self.job).expect("the pool detaches a job after its round")
    }
}

/// One round's flow-pass inputs as the control thread prepared them,
/// handed to the [`Simulator::step_inspect`] hook. For reference-model
/// tests; not a stable API.
#[doc(hidden)]
#[derive(Debug)]
pub struct RoundInputs<'a> {
    /// The round number, which keys every per-round random draw.
    pub round: u64,
    /// The SOS memory coefficient.
    pub mem: f64,
    /// The scheduled-flow gain.
    pub gain: f64,
    /// The loads the flow pass reads, after the round's shocks, churn
    /// handoffs and load injection, as `f64` (exact for tokens).
    pub loads: Vec<f64>,
    /// The round's active-edge words (`None`: every edge).
    pub active: Option<&'a [u64]>,
    /// The round's stale-edge words (`None`: no stale channel).
    pub stale: Option<&'a [u64]>,
}

impl<'a> RoundInputs<'a> {
    fn new(args: &RoundArgs, loads: Vec<f64>, masks: &RoundMasks<'a>) -> Self {
        Self {
            round: args.round,
            mem: args.mem,
            gain: args.gain,
            loads,
            active: masks.active,
            stale: masks.stale,
        }
    }
}

/// Where the [`RoundState`] lives — in exactly one place per executor.
/// A simulator holds one, so the sequential variant is kept inline rather
/// than boxed behind a pointer every accessor would follow.
#[allow(clippy::large_enum_variant)]
enum Store {
    /// The sequential executor's plain vectors.
    Local(RoundState<PlainSlots>),
    /// The worker pool: the job's atomics are the only copy of the
    /// state, read (or copied out) by the accessors on request.
    Pooled(PoolAttachment),
}

/// Evaluates `$body` with `$state` bound to the simulation's
/// [`RoundState`], wherever it lives, so each accessor is written once,
/// generic over the executor's element storage.
macro_rules! with_state {
    ($store:expr, |$state:ident| $body:expr) => {
        match $store {
            Store::Local($state) => $body,
            Store::Pooled(attachment) => {
                let $state = &attachment.job.state;
                $body
            }
        }
    };
}

/// SOS→FOS switch-trigger variants for the unified run loop.
enum Trigger<'a> {
    /// No hybrid behavior.
    None,
    /// A declarative [`SwitchPolicy`].
    Policy(SwitchPolicy),
    /// An arbitrary predicate over the simulator state.
    Custom(&'a mut dyn FnMut(&Simulator<'_>) -> bool),
}

/// Writes an auto-checkpoint or aborts the run: a failing sink means the
/// promised resumability is already lost, so surfacing it loudly (the
/// batch [`crate::Driver`] isolates and quarantines the panic) beats
/// silently continuing without crash coverage.
fn write_or_die(path: &std::path::Path, spec_line: &str, snap: &Snapshot) {
    if let Err(e) = checkpoint::write_checkpoint_line(path, spec_line, snap) {
        panic!("auto-checkpoint failed: {e}");
    }
}

/// A synchronous-round diffusion load-balancing simulation.
///
/// # Example
///
/// ```
/// use sodiff_core::prelude::*;
/// use sodiff_graph::generators;
///
/// let g = generators::torus2d(8, 8);
/// let mut sim = Experiment::on(&g)
///     .discrete(Rounding::randomized(7))
///     .init(InitialLoad::point(0, 6400))
///     .build()
///     .unwrap()
///     .simulator();
/// let report = sim.run_until(StopCondition::MaxRounds(500));
/// assert_eq!(report.rounds, 500);
/// assert!(report.final_metrics.max_minus_avg < 10.0);
/// assert_eq!(sim.total_load(), 6400.0); // tokens are conserved
/// ```
pub struct Simulator<'g> {
    graph: &'g Graph,
    speeds: Speeds,
    /// The scheme-kernel layer: the simulation's immutable round plan
    /// (kernel tables, mode, active plan, perturbation spec), shared
    /// with the worker pool.
    scheme_kernel: Arc<SchemeKernel>,
    scheme: Scheme,
    threads: usize,
    /// Loads, flows and flow memory: local vectors, or the pool job's
    /// atomics when `threads > 1`.
    store: Store,
    /// Control-thread round scratch: framework rounding states plus
    /// random-matching generation buffers.
    scratch: RoundScratch,
    round: u64,
    rounds_in_scheme: u64,
    min_transient: f64,
    /// Fused load statistics of the last executed round (the apply
    /// pass's in-loop reduction); `None` until the first [`Simulator::step`].
    round_stats: Option<LoadStats>,
    initial_total: f64,
    /// Periodic checkpoint sink (`None` = never snapshot).
    ckpt: Option<CheckpointConfig>,
    /// The run loop's state, updated in place by every `run_*` call.
    run: RunRecord,
    /// Set by [`Simulator::restore`]: the next `run_*` call continues
    /// the restored run instead of starting a fresh one.
    resuming: bool,
}

impl<'g> Simulator<'g> {
    /// The constructor behind [`crate::Experiment::simulator`] and the
    /// batch driver. `config` was validated when its experiment was
    /// built, so nothing here can fail. `shared_pool` overrides
    /// `config.threads` with an externally owned pool (the driver's),
    /// avoiding a per-simulation thread spawn.
    pub(crate) fn build(
        graph: &'g Graph,
        config: &Config,
        shared_pool: Option<Arc<WorkerPool>>,
    ) -> Self {
        let n = graph.node_count();
        let speeds = config.speeds.clone().unwrap_or_else(|| Speeds::uniform(n));
        let threads = shared_pool
            .as_ref()
            .map_or(config.threads, |pool| pool.threads());
        let loads = config.init.materialize(n);
        let initial_total = loads.iter().map(|&x| x as f64).sum();
        let scheme_kernel = Arc::new(SchemeKernel::new(config, graph, &speeds, initial_total));
        let store = if threads > 1 {
            let pool = shared_pool.unwrap_or_else(|| Arc::new(WorkerPool::new(threads)));
            let state = RoundState::new(&scheme_kernel, loads);
            let job = RoundJob::new(pool.threads(), Arc::clone(&scheme_kernel), state);
            Store::Pooled(PoolAttachment {
                pool,
                job: Arc::new(job),
            })
        } else {
            Store::Local(RoundState::new(&scheme_kernel, loads))
        };
        let min_transient = with_state!(&store, |state| state.min_load());
        Self {
            graph,
            speeds,
            scheme_kernel,
            scheme: config.scheme,
            threads,
            store,
            scratch: RoundScratch::new(),
            round: 0,
            rounds_in_scheme: 0,
            min_transient,
            round_stats: None,
            initial_total,
            ckpt: config.ckpt.clone(),
            run: RunRecord::default(),
            resuming: false,
        }
    }

    /// The network this simulation runs on.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The round at which the current run's SOS→FOS switch fired, if it
    /// has: rounds after it run FOS.
    pub(crate) fn switch_round(&self) -> Option<u64> {
        self.run.switch_round
    }

    /// The node speeds.
    pub fn speeds(&self) -> &Speeds {
        &self.speeds
    }

    /// The active scheme.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// Rounds executed since construction.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Worker threads used by the executor.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Returns `true` in discrete mode.
    pub fn is_discrete(&self) -> bool {
        with_state!(&self.store, |state| state.is_discrete())
    }

    /// Integer loads (discrete mode only; `None` in continuous runs —
    /// use [`Simulator::load_of`] or [`Simulator::loads_to_f64`] there).
    /// Borrowed on the sequential executor; on the worker pool, whose
    /// atomics are the only store, each call copies the loads out.
    pub fn loads_i64(&self) -> Option<Cow<'_, [i64]>> {
        with_state!(&self.store, |state| state.loads_i64())
    }

    /// Continuous loads (continuous mode only; `None` in discrete
    /// runs). Borrowed or copied like [`Simulator::loads_i64`].
    pub fn loads_f64(&self) -> Option<Cow<'_, [f64]>> {
        with_state!(&self.store, |state| state.loads_f64())
    }

    /// Load of node `i` as `f64`, regardless of mode or executor.
    #[inline]
    pub fn load_of(&self, i: usize) -> f64 {
        with_state!(&self.store, |state| state.load_of(i))
    }

    /// Copies the loads into a fresh `f64` vector.
    pub fn loads_to_f64(&self) -> Vec<f64> {
        (0..self.graph.node_count())
            .map(|i| self.load_of(i))
            .collect()
    }

    /// Current total load (must equal the initial total in discrete mode;
    /// floats may drift by rounding error in continuous mode), summed in
    /// node order.
    pub fn total_load(&self) -> f64 {
        (0..self.graph.node_count()).map(|i| self.load_of(i)).sum()
    }

    /// The total load at round 0.
    pub fn initial_total(&self) -> f64 {
        self.initial_total
    }

    /// Minimum transient load `min_{i,t} x̆_i(t)` observed so far
    /// (Section V). Negative values mean a node was overdrawn.
    pub fn min_transient_load(&self) -> f64 {
        self.min_transient
    }

    /// Flow sent in the previous round, per canonical edge (the SOS
    /// memory), as `f64`. A discrete run remembers the integral flows it
    /// sent, "the amount that was sent in step t−1", and a continuous run
    /// its `f64` flows. Borrowed where the simulator stores an `f64`
    /// vector (sequential continuous diffusion runs); otherwise a copy
    /// made on request — materialized from the integral flows in discrete
    /// mode, read out of the job on the worker pool.
    /// The pairwise schemes keep no flow memory (only SOS reads one), so
    /// a dimension-exchange or matching run reads `m` zeros here, and its
    /// checkpoints store those.
    pub fn previous_flows(&self) -> Cow<'_, [f64]> {
        with_state!(&self.store, |state| state.memory())
    }

    /// Bytes of per-node and per-edge simulation state this simulator
    /// holds, wherever it lives: loads, the last round's flows (integral
    /// in discrete mode, `f64` in continuous mode), which are the SOS
    /// memory, and one fraction per edge (randomized framework). A pairwise run holds
    /// its loads alone, `8·n` bytes. Each piece is held once: on the
    /// worker pool the job's atomics are the only copy. Auxiliary
    /// metadata (masks, per-block partials, the matching rounds' landing
    /// slots, kernel tables) is excluded.
    pub fn state_bytes(&self) -> usize {
        with_state!(&self.store, |state| state.state_bytes())
    }

    /// Heap bytes of the kernel tables this simulator owns: the
    /// coefficient tables its rounds read (the diffusion `α_e/s` pair, or
    /// the pairwise schemes' λ-scaled pair; one shared buffer under
    /// uniform speeds) and the balanced loads. A table whose entries all
    /// hold the same value is stored as that value and counts nothing, so
    /// a regular graph under uniform speeds reads 0. The graph's CSR is not
    /// counted: the tables share it with the caller's graph, whose
    /// [`Graph::memory_bytes`](sodiff_graph::Graph::memory_bytes) counts
    /// it once. A diffusion run's footprint is therefore
    /// `graph.memory_bytes() + table_bytes() + state_bytes()`; the
    /// pairwise schemes add their edge masks.
    pub fn table_bytes(&self) -> usize {
        self.scheme_kernel.tables.memory_bytes()
    }

    /// The kernel tables the round passes read. Exposed for layout
    /// tests; not a stable API.
    #[doc(hidden)]
    pub fn kernel_tables(&self) -> &KernelTables {
        &self.scheme_kernel.tables
    }

    /// Freezes the complete evolving state of this simulation at the
    /// current round boundary (see [`crate::checkpoint`]).
    ///
    /// Because every random decision is drawn from counter-indexed
    /// streams (no serial RNG state — see [`crate::rng`]), the snapshot
    /// plus the originating [`crate::ScenarioSpec`] is enough to
    /// continue the run **bit-identically**: loads, SOS flow memory,
    /// round counters, cumulative fault/load/churn event counters, and
    /// the run loop's state — its origin, hybrid/degradation flags and
    /// stop-condition trackers. The run loop keeps that state in one
    /// place and updates it in place, so a snapshot is complete at every
    /// round boundary: between `run_*` calls, from an [`Observer`], or
    /// by the auto-checkpoint. Persist it with
    /// [`checkpoint::write_checkpoint`].
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            round: self.round,
            rounds_in_scheme: self.rounds_in_scheme,
            min_transient: self.min_transient,
            initial_total: self.initial_total,
            round_stats: self.round_stats,
            loads: with_state!(&self.store, |state| state.loads()),
            prev_flow: self.previous_flows().into_owned(),
            fault_events: self.scratch.perturb.faults,
            load_events: self.scratch.perturb.load,
            churn_events: self.scratch.perturb.churn,
            // The active-node overlay is the churn axis's one
            // history-dependent piece of state (a Markov chain over
            // epochs), so it is persisted verbatim; empty = churn never
            // ran (churn=none, or no round yet).
            churn_active: self.scratch.perturb.churn_words().to_vec(),
            run: self.run.clone(),
        }
    }

    /// Restores a [`Snapshot`] into this simulator, which must have been
    /// built from the same [`crate::ScenarioSpec`] (same graph, scheme,
    /// mode, seeds, and initial load — the thread count is free to
    /// differ, since results never depend on it). The snapshot may come
    /// from any round boundary, an observer's included. The next `run_*`
    /// call continues the interrupted run: hybrid triggers and the
    /// `steady:` cap keep counting from the original run origin, and the
    /// stop-condition trackers resume where they left off.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Mismatch`] when the snapshot does not fit this
    /// simulation (wrong node/edge count, wrong mode, a different
    /// initial total, for a discrete run a flow memory that is not
    /// integral or does not fit the flow storage, or a churn overlay that does not fit the run's churn plan and node
    /// count). The simulator is left unmodified on error.
    ///
    /// A pairwise run keeps no flow memory: its snapshot's memory passes
    /// the same checks and is then ignored, so a snapshot that still
    /// holds the last round's flows resumes exactly too.
    pub fn restore(&mut self, snap: &Snapshot) -> Result<(), CheckpointError> {
        let n = self.graph.node_count();
        let m = self.graph.edge_count();
        let (snap_nodes, snap_discrete) = match &snap.loads {
            LoadsSnapshot::Discrete(v) => (v.len(), true),
            LoadsSnapshot::Continuous(v) => (v.len(), false),
        };
        if snap_discrete != self.is_discrete() {
            return Err(CheckpointError::Mismatch(format!(
                "snapshot is {} but the simulation is {}",
                if snap_discrete {
                    "discrete"
                } else {
                    "continuous"
                },
                if self.is_discrete() {
                    "discrete"
                } else {
                    "continuous"
                },
            )));
        }
        if snap_nodes != n {
            return Err(CheckpointError::Mismatch(format!(
                "snapshot has {snap_nodes} nodes, the graph has {n}"
            )));
        }
        if snap.prev_flow.len() != m {
            return Err(CheckpointError::Mismatch(format!(
                "snapshot has {} edges, the graph has {m}",
                snap.prev_flow.len()
            )));
        }
        if snap.initial_total.to_bits() != self.initial_total.to_bits() {
            return Err(CheckpointError::Mismatch(format!(
                "snapshot initial total {} differs from the simulation's {}",
                snap.initial_total, self.initial_total
            )));
        }
        // A discrete run's memory is written into the integral `i64`
        // flows, so every value must be one this run could have sent (a
        // pairwise run, which ignores it, is held to the same check).
        // Validated BEFORE touching any state so the simulator stays
        // unmodified on error. Comparing bits also refuses `-0.0`, which
        // no `i64 → f64` cast produces.
        if self.is_discrete() {
            let integral = |x: f64| (x as i64 as f64).to_bits() == x.to_bits();
            if let Some(&bad) = snap.prev_flow.iter().find(|&&x| !integral(x)) {
                return Err(CheckpointError::Mismatch(format!(
                    "snapshot flow memory {bad} is not an integral flow of the \
                     i64 flow storage (a discrete run remembers the flows it sent)"
                )));
            }
        }
        // Crash masks are pure per-epoch functions of the spec's seeds,
        // so restore re-derives the pre-resume epoch; the churn overlay
        // is history-dependent, so it is installed verbatim. The
        // cumulative event counters continue from the snapshot's.
        let mut perturb = Perturb::restore(
            &self.scheme_kernel.perturb,
            self.graph,
            self.scheme_kernel.sweep_family(),
            snap.round,
            &snap.churn_active,
        )
        .map_err(CheckpointError::Mismatch)?;
        perturb.faults = snap.fault_events;
        perturb.load = snap.load_events;
        perturb.churn = snap.churn_events;
        let (loads, memory) = (&snap.loads, &snap.prev_flow[..]);
        match &mut self.store {
            Store::Local(state) => state.write_state(loads, memory),
            Store::Pooled(attachment) => attachment.job_mut().state.write_state(loads, memory),
        }
        self.round = snap.round;
        self.rounds_in_scheme = snap.rounds_in_scheme;
        self.min_transient = snap.min_transient;
        self.round_stats = snap.round_stats;
        // A fired hybrid/degradation switch means the scheme is FOS from
        // `switch_round` on, whatever the spec's scheme was. (Set
        // directly — `switch_scheme` would clear the restored
        // `rounds_in_scheme` warm-up counter.)
        if snap.run.switch_round.is_some() && self.scheme.is_diffusion() {
            self.scheme = Scheme::fos();
        }
        self.scratch.perturb = perturb;
        self.run = snap.run.clone();
        self.resuming = true;
        Ok(())
    }

    /// Current quality metrics, recomputed from scratch (`O(n + m)`).
    ///
    /// Deviations are measured against the **conserved initial total**
    /// (exact in discrete mode by token conservation; in continuous mode
    /// this pins the balanced load to the invariant instead of a float
    /// re-sum that drifts by rounding error). After a round has run,
    /// [`Simulator::round_metrics`] returns the same snapshot from the
    /// fused in-loop reduction without the `O(n)` node sweep.
    pub fn metrics(&self) -> MetricsSnapshot {
        snapshot_with_total(self.graph, &self.speeds, self.initial_total, |i| {
            self.load_of(i)
        })
    }

    /// The metrics snapshot of the state after the last executed round,
    /// assembled from the **fused in-loop reduction** the apply kernels
    /// compute while applying flows — `None` before the first round.
    ///
    /// The node-derived fields cost nothing here (they were reduced
    /// inside the round); only `max_local_diff` pays a dedicated edge
    /// sweep, because it is inherently an edge metric. The snapshot is
    /// **bit-identical** to [`Simulator::metrics`] on every executor:
    /// the potential is summed per [`crate::metrics::DEV_BLOCK`]-node
    /// block with partials folded in block order, and pooled node
    /// chunks are block-aligned, so no thread count regroups the sum
    /// (`tests/fused_metrics.rs` pins exact equality across all
    /// schemes, modes, and thread counts).
    pub fn round_metrics(&self) -> Option<MetricsSnapshot> {
        let stats = self.round_stats?;
        Some(MetricsSnapshot {
            max_minus_avg: stats.max_dev,
            min_minus_avg: stats.min_dev,
            max_local_diff: self.local_diff(),
            potential_over_n: stats.sum_sq_dev / self.graph.node_count() as f64,
            min_load: stats.min_load,
        })
    }

    /// `φ_local` of the current state: one edge sweep over the typed
    /// loads, the store dispatched once.
    fn local_diff(&self) -> f64 {
        with_state!(&self.store, |state| state
            .local_diff(self.graph, &self.speeds))
    }

    /// Fused `max − avg` of the current state: free after any round, one
    /// node sweep before the first.
    fn max_minus_avg(&self) -> f64 {
        match self.round_stats {
            Some(stats) => stats.max_dev,
            None => self.metrics().max_minus_avg,
        }
    }

    /// Switches the active scheme (the SOS→FOS hybrid of Section VI).
    ///
    /// Loads are kept; the scheme restarts its round counter, so a switch
    /// *to* SOS begins with an FOS round, as the paper prescribes.
    ///
    /// # Panics
    ///
    /// Panics unless both the current and the target scheme are diffusion
    /// schemes (FOS/SOS): the pairwise schemes bake their coloring or
    /// matching plan and λ-scaled coefficient tables into the simulator at
    /// construction, so changing families mid-run requires building a new
    /// experiment. (The [`crate::ExperimentBuilder`] reports a hybrid
    /// policy on a pairwise scheme as
    /// [`BuildError::HybridRequiresDiffusion`] instead of panicking.)
    pub fn switch_scheme(&mut self, scheme: Scheme) {
        assert!(
            self.scheme.is_diffusion() && scheme.is_diffusion(),
            "switch_scheme supports the diffusion family (FOS/SOS) only; \
             build a new experiment to change scheme families"
        );
        self.scheme = scheme;
        self.rounds_in_scheme = 0;
    }

    /// Executes one synchronous round.
    pub fn step(&mut self) {
        self.round_with(None);
    }

    /// [`Simulator::step`], handing `inspect` the round's flow-pass
    /// inputs once the control thread has prepared them: the loads after
    /// the perturbation channels ran and the round's edge masks. For
    /// reference-model tests; not a stable API.
    #[doc(hidden)]
    pub fn step_inspect(&mut self, inspect: &mut dyn FnMut(RoundInputs<'_>)) {
        self.round_with(Some(inspect));
    }

    /// The fused load statistics of the last executed round (`None`
    /// before the first), with `sum_sq_dev` folded in block order. For
    /// reference-model tests; not a stable API.
    #[doc(hidden)]
    pub fn round_stats(&self) -> Option<LoadStats> {
        self.round_stats
    }

    /// One round, with the optional [`Simulator::step_inspect`] hook.
    fn round_with(&mut self, inspect: Option<&mut dyn FnMut(RoundInputs<'_>)>) {
        let (mem, gain) = self.scheme.coefficients(self.rounds_in_scheme);
        let args = RoundArgs {
            mem,
            gain,
            round: self.round,
        };
        let k = &*self.scheme_kernel;
        // Both executors run the round's three steps: prepare on the
        // control thread (the perturbation channels, the random matching
        // and the round's masks, so plan state never depends on the
        // executor), every participant's share of the one phase sequence,
        // then collect.
        let stats = match &mut self.store {
            Store::Local(state) => {
                let RoundScratch {
                    fw,
                    matchgen,
                    perturb,
                } = &mut self.scratch;
                let discrete = state.is_discrete();
                let bufs = state.bufs();
                let masks = k.prepare(args.round, &bufs, matchgen, perturb);
                let (m, n) = (k.tables.m, k.tables.n);
                if let Some(inspect) = inspect {
                    let load = |i| {
                        if discrete {
                            bufs.loads_i.get(i) as f64
                        } else {
                            bufs.loads_f.get(i)
                        }
                    };
                    inspect(RoundInputs::new(&args, (0..n).map(load).collect(), &masks));
                }
                let stats = k.participate(&args, 0..m, 0..n, &bufs, masks, fw, || {});
                bufs.collect([stats])
            }
            Store::Pooled(attachment) => {
                // The job's atomics are the simulation's only store, so
                // the round is complete at its final barrier: there is no
                // state to copy back.
                let job = attachment.job_mut();
                job.prepare(args, &mut self.scratch);
                if let Some(inspect) = inspect {
                    let loads = (0..k.tables.n).map(|i| job.state.load_of(i)).collect();
                    inspect(RoundInputs::new(&args, loads, &job.masks()));
                }
                attachment
                    .pool
                    .run_round(&attachment.job, &mut self.scratch.fw)
            }
        };
        if stats.min_transient < self.min_transient {
            self.min_transient = stats.min_transient;
        }
        self.round_stats = Some(stats);
        self.round += 1;
        self.rounds_in_scheme += 1;
    }

    /// Runs until the stop condition fires; returns a report.
    pub fn run_until(&mut self, condition: StopCondition) -> RunReport {
        self.run_loop(Trigger::None, condition, &mut crate::observer::NullObserver)
    }

    /// Runs until the stop condition fires, invoking the observer after
    /// every round.
    pub fn run_until_with(
        &mut self,
        condition: StopCondition,
        observer: &mut dyn Observer,
    ) -> RunReport {
        self.run_loop(Trigger::None, condition, observer)
    }

    /// Runs with an active SOS→FOS [`SwitchPolicy`] until the stop
    /// condition fires (Section VI). The policy is evaluated before every
    /// round and fires at most once; `switch_round` in the report records
    /// when.
    pub fn run_hybrid(&mut self, policy: SwitchPolicy, condition: StopCondition) -> RunReport {
        self.run_loop(
            Trigger::Policy(policy),
            condition,
            &mut crate::observer::NullObserver,
        )
    }

    /// Like [`Simulator::run_hybrid`], with an observer invoked after
    /// every round.
    pub fn run_hybrid_with(
        &mut self,
        policy: SwitchPolicy,
        condition: StopCondition,
        observer: &mut dyn Observer,
    ) -> RunReport {
        self.run_loop(Trigger::Policy(policy), condition, observer)
    }

    /// Runs with an arbitrary SOS→FOS switch trigger evaluated before
    /// every round (fires at most once). This enables strategies beyond
    /// [`SwitchPolicy`], e.g. the eigenvector-coefficient trigger the
    /// paper discusses (switch once the leading coefficient's impact drops
    /// below a threshold — a global-knowledge strategy for offline
    /// studies).
    pub fn run_when(
        &mut self,
        mut trigger: impl FnMut(&Simulator<'_>) -> bool,
        condition: StopCondition,
        observer: &mut dyn Observer,
    ) -> RunReport {
        self.run_loop(Trigger::Custom(&mut trigger), condition, observer)
    }

    /// The unified run loop behind `run_until*`, `run_hybrid*`,
    /// `run_when`, and [`crate::Experiment::run`]: an optional switch
    /// trigger evaluated before each round, the stop condition after it.
    ///
    /// Stop checks consume the **fused** load statistics the apply
    /// kernels reduce while applying flows, so threshold- and
    /// plateau-stopped runs make exactly one pass over the node loads
    /// per round — there is no separate per-round `metrics()` sweep.
    /// The final report is assembled from the same fused statistics on
    /// *every* exit path (`MaxRounds` included); only its
    /// `max_local_diff` field pays a dedicated edge sweep, once per run.
    fn run_loop(
        &mut self,
        mut trigger: Trigger<'_>,
        condition: StopCondition,
        observer: &mut dyn Observer,
    ) -> RunReport {
        /// Built-in round cap of [`StopCondition::Steady`]: a guard
        /// against dynamic workloads that never settle.
        const STEADY_CAP: usize = 100_000;
        let start_round = self.round;
        // Graceful degradation: under fault, load or churn injection, the
        // watchdog watches the fused per-round deviation for runaway
        // growth (or non-finite values) and falls back SOS→FOS through
        // the ordinary hybrid switching machinery. Disarmed for
        // unperturbed runs.
        let armed = !self.scheme_kernel.perturb.is_none();
        let resume = std::mem::take(&mut self.resuming);
        self.run.begin(start_round, condition, armed, resume);
        let cap = match condition {
            StopCondition::MaxRounds(r) | StopCondition::Horizon(r) => r,
            StopCondition::BalancedWithin { max_rounds, .. }
            | StopCondition::Plateau { max_rounds, .. } => max_rounds,
            StopCondition::Steady { .. } => {
                STEADY_CAP.saturating_sub((start_round - self.run.origin) as usize)
            }
        };
        // A run restored at the round it stopped at stops again at once,
        // as the uninterrupted run did after that round.
        let mut stop = match self.round_stats {
            Some(stats) if resume => self.run.stopped(stats.max_dev, condition),
            _ => None,
        };
        let cap = if stop.is_some() { 0 } else { cap };
        let sink = self.ckpt.clone();
        for _ in 0..cap {
            if self.run.switch_round.is_none() {
                let fire = match &mut trigger {
                    Trigger::None => false,
                    Trigger::Policy(policy) => match *policy {
                        SwitchPolicy::AtRound(r) => self.round - self.run.origin >= r,
                        SwitchPolicy::MaxLocalDiffBelow(t) => {
                            // An edge metric: the one policy that costs a
                            // sweep (over edges) per round while armed.
                            self.local_diff() <= t
                        }
                        SwitchPolicy::MaxMinusAvgBelow(t) => self.max_minus_avg() <= t,
                        SwitchPolicy::Never => false,
                    },
                    Trigger::Custom(f) => f(self),
                };
                if fire {
                    self.switch_scheme(Scheme::fos());
                    self.run.switch_round = Some(self.round);
                }
            }
            self.step();
            let max_dev = self
                .round_stats
                .expect("step() fills the fused round statistics")
                .max_dev;
            if self.run.watch.as_mut().is_some_and(|w| w.observe(max_dev)) {
                self.run.degraded = true;
                // Preserve the pre-degradation state for post-mortem
                // before the SOS→FOS fallback rewrites the scheme.
                if let Some(cfg) = &sink {
                    write_or_die(&cfg.degraded_path(), &cfg.spec_line, &self.snapshot());
                }
                if self.run.switch_round.is_none() && self.scheme.is_sos() {
                    self.switch_scheme(Scheme::fos());
                    self.run.switch_round = Some(self.round);
                }
            }
            // The round is complete once the trackers have its sample:
            // only then do the observer and the auto-checkpoint see it.
            stop = self.run.feed(max_dev, condition);
            observer.on_round(self);
            if let Some(cfg) = &sink {
                if self.round.is_multiple_of(cfg.policy.every) {
                    write_or_die(&cfg.latest_path(), &cfg.spec_line, &self.snapshot());
                }
            }
            if stop.is_some() {
                break;
            }
        }
        let reason = stop.unwrap_or(match condition {
            StopCondition::Horizon(_) => StopReason::Horizon,
            _ => StopReason::MaxRounds,
        });
        let run = &self.run;
        RunReport {
            rounds: self.round - start_round,
            // Fused on every exit path; `metrics()` only for zero-round
            // runs on a freshly built simulator (nothing to fuse yet).
            final_metrics: self.round_metrics().unwrap_or_else(|| self.metrics()),
            reason,
            remaining_imbalance: match reason {
                StopReason::Plateau => run.plateau.as_ref().and_then(|p| p.value()),
                _ => None,
            },
            switch_round: run.switch_round,
            degraded: run.degraded,
            faults: self.fault_events(),
            load: self.load_events(),
            churn: self.churn_events(),
            steady: run.steady.as_ref().and_then(SteadyTracker::stats),
        }
    }

    /// Fault events injected over this simulator's lifetime (all zero
    /// for `faults=none`).
    pub fn fault_events(&self) -> FaultEvents {
        self.scratch.perturb.faults
    }

    /// Dynamic-load events injected over this simulator's lifetime (all
    /// zero for `load=none`). The `injected` field is the net token
    /// delta, so conservation reads `total == initial + injected`.
    pub fn load_events(&self) -> LoadEvents {
        self.scratch.perturb.load
    }

    /// Topology-churn events over this simulator's lifetime (all zero
    /// for `churn=none`). With churn active, conservation reads
    /// `total == initial + injected + joined − departed`.
    pub fn churn_events(&self) -> ChurnEvents {
        self.scratch.perturb.churn
    }

    /// Maximum absolute per-node load difference to another simulation on
    /// the same graph (the paper's deviation `max_k |x_k^A − x_k^B|`).
    ///
    /// # Panics
    ///
    /// Panics if the node counts differ.
    pub fn deviation_from(&self, other: &Simulator<'_>) -> f64 {
        let n = self.graph.node_count();
        assert_eq!(n, other.graph.node_count(), "graphs differ in size");
        (0..n)
            .map(|i| (self.load_of(i) - other.load_of(i)).abs())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;
    use crate::init::InitialLoad;
    use crate::perturb::ChurnSpec;
    use sodiff_graph::generators;

    /// Shorthand: a discrete FOS simulator through the builder.
    fn fos_sim<'g>(g: &'g Graph, rounding: Rounding, init: InitialLoad) -> Simulator<'g> {
        Experiment::on(g)
            .discrete(rounding)
            .init(init)
            .build()
            .expect("valid experiment")
            .simulator()
    }

    #[test]
    fn fos_balances_cycle() {
        let g = generators::cycle(8);
        let mut sim = fos_sim(&g, Rounding::randomized(1), InitialLoad::point(0, 800));
        let report = sim.run_until(StopCondition::MaxRounds(800));
        assert!(report.final_metrics.max_minus_avg <= 3.0);
        assert_eq!(sim.total_load(), 800.0);
    }

    #[test]
    fn conservation_all_roundings() {
        let g = generators::torus2d(4, 4);
        for rounding in [
            Rounding::randomized(3),
            Rounding::round_down(),
            Rounding::nearest(),
            Rounding::unbiased_edge(3),
        ] {
            let mut sim = fos_sim(&g, rounding, InitialLoad::point(5, 4321));
            sim.run_until(StopCondition::MaxRounds(100));
            assert_eq!(sim.total_load(), 4321.0, "{rounding:?}");
        }
    }

    #[test]
    fn continuous_fos_matches_matrix_power() {
        use sodiff_linalg::diffusion::DiffusionOperator;
        let g = generators::torus2d(3, 3);
        let s = Speeds::uniform(9);
        let mut sim = Experiment::on(&g)
            .continuous()
            .init(InitialLoad::point(4, 900))
            .build()
            .unwrap()
            .simulator();
        let op = DiffusionOperator::new(&g, &s);
        let mut x = vec![0.0; 9];
        x[4] = 900.0;
        let mut y = vec![0.0; 9];
        for _ in 0..20 {
            sim.step();
            op.apply(&x, &mut y);
            std::mem::swap(&mut x, &mut y);
        }
        let sim_loads = sim.loads_f64().unwrap();
        for (a, b) in sim_loads.iter().zip(&x) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn continuous_sos_matches_recurrence() {
        // x(t+1) = β·M·x(t) + (1−β)·x(t−1), first round FOS.
        use sodiff_linalg::diffusion::DiffusionOperator;
        let g = generators::cycle(6);
        let s = Speeds::uniform(6);
        let beta = 1.6;
        let mut sim = Experiment::on(&g)
            .continuous()
            .sos(beta)
            .init(InitialLoad::point(2, 600))
            .build()
            .unwrap()
            .simulator();
        let op = DiffusionOperator::new(&g, &s);
        let mut x_prev = vec![0.0; 6];
        x_prev[2] = 600.0;
        // First round: FOS.
        let mut x = vec![0.0; 6];
        op.apply(&x_prev, &mut x);
        sim.step();
        for t in 1..15 {
            let mut mx = vec![0.0; 6];
            op.apply(&x, &mut mx);
            let x_next: Vec<f64> = (0..6)
                .map(|i| beta * mx[i] + (1.0 - beta) * x_prev[i])
                .collect();
            x_prev = std::mem::replace(&mut x, x_next);
            sim.step();
            let sim_loads = sim.loads_f64().unwrap();
            for (i, (a, b)) in sim_loads.iter().zip(&x).enumerate() {
                assert!((a - b).abs() < 1e-8, "round {t} node {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn sos_beats_fos_on_torus() {
        let g = generators::torus2d(16, 16);
        let spec = sodiff_linalg::spectral::analyze(&g, &Speeds::uniform(256));
        let beta = spec.beta_opt();
        let run = |scheme| {
            let mut sim = Experiment::on(&g)
                .continuous()
                .scheme(scheme)
                .init(InitialLoad::point(0, 256_000))
                .build()
                .unwrap()
                .simulator();
            sim.run_until(StopCondition::BalancedWithin {
                threshold: 1.0,
                max_rounds: 20_000,
            })
            .rounds
        };
        let fos_rounds = run(Scheme::fos());
        let sos_rounds = run(Scheme::sos(beta));
        assert!(
            sos_rounds * 2 < fos_rounds,
            "SOS ({sos_rounds}) should be much faster than FOS ({fos_rounds})"
        );
    }

    #[test]
    fn heterogeneous_balances_proportionally() {
        let g = generators::torus2d(4, 4);
        let speeds = Speeds::two_class(16, 4, 4.0);
        let mut sim = Experiment::on(&g)
            .discrete(Rounding::randomized(5))
            .speeds(speeds)
            .init(InitialLoad::point(0, 2800))
            .build()
            .unwrap()
            .simulator();
        sim.run_until(StopCondition::MaxRounds(2000));
        // Ideal: fast nodes 4/28·2800 = 400, slow nodes 100.
        let loads = sim.loads_i64().unwrap();
        for (i, &x) in loads.iter().enumerate() {
            let ideal = if i < 4 { 400.0 } else { 100.0 };
            assert!(
                (x as f64 - ideal).abs() <= 25.0,
                "node {i}: {x} far from ideal {ideal}"
            );
        }
    }

    #[test]
    fn switch_scheme_resets_sos_warmup() {
        let g = generators::cycle(5);
        let mut sim = Experiment::on(&g)
            .continuous()
            .init(InitialLoad::point(0, 500))
            .build()
            .unwrap()
            .simulator();
        sim.step();
        sim.switch_scheme(Scheme::sos(1.5));
        // The first SOS round after the switch must not use flow memory:
        // coefficients(0) == (0, 1) — verified via scheme directly here,
        // and end-to-end by the hybrid tests.
        assert_eq!(sim.scheme(), Scheme::sos(1.5));
    }

    #[test]
    fn negative_load_occurs_with_sos_point_load() {
        // A huge point load with aggressive β overdraws neighbors in the
        // early waves; min_transient_load must capture that.
        let g = generators::torus2d(10, 10);
        let spec = sodiff_linalg::spectral::analyze(&g, &Speeds::uniform(100));
        let mut sim = Experiment::on(&g)
            .discrete(Rounding::randomized(2))
            .sos(spec.beta_opt())
            .init(InitialLoad::point(0, 100_000))
            .build()
            .unwrap()
            .simulator();
        sim.run_until(StopCondition::MaxRounds(300));
        assert!(
            sim.min_transient_load() < 0.0,
            "expected negative transient load, got {}",
            sim.min_transient_load()
        );
    }

    #[test]
    fn plateau_stop_reports_remaining_imbalance() {
        let g = generators::torus2d(8, 8);
        let spec = sodiff_linalg::spectral::analyze(&g, &Speeds::uniform(64));
        let mut sim = Experiment::on(&g)
            .discrete(Rounding::randomized(4))
            .sos(spec.beta_opt())
            .build()
            .unwrap()
            .simulator();
        let report = sim.run_until(StopCondition::Plateau {
            window: 50,
            max_rounds: 5000,
        });
        assert_eq!(report.reason, StopReason::Plateau);
        let remaining = report.remaining_imbalance.unwrap();
        assert!((0.0..30.0).contains(&remaining), "remaining {remaining}");
    }

    #[test]
    fn deviation_between_discrete_and_continuous_is_small() {
        let g = generators::torus2d(8, 8);
        let spec = sodiff_linalg::spectral::analyze(&g, &Speeds::uniform(64));
        let beta = spec.beta_opt();
        let mut d = Experiment::on(&g)
            .discrete(Rounding::randomized(11))
            .sos(beta)
            .build()
            .unwrap()
            .simulator();
        let mut c = Experiment::on(&g)
            .continuous()
            .sos(beta)
            .build()
            .unwrap()
            .simulator();
        let mut worst = 0.0f64;
        for _ in 0..400 {
            d.step();
            c.step();
            worst = worst.max(d.deviation_from(&c));
        }
        // Theorem 9 shape: deviation stays polylogarithmic (tiny here).
        assert!(worst < 60.0, "deviation {worst} too large");
        assert!(worst > 0.0, "discrete run should differ from continuous");
    }

    #[test]
    fn balanced_threshold_stops_early() {
        let g = generators::complete(16);
        let mut sim = Experiment::on(&g)
            .continuous()
            .init(InitialLoad::point(0, 1600))
            .build()
            .unwrap()
            .simulator();
        let report = sim.run_until(StopCondition::BalancedWithin {
            threshold: 0.5,
            max_rounds: 100,
        });
        assert_eq!(report.reason, StopReason::Threshold);
        assert!(report.rounds <= 2, "complete graph balances in one step");
    }

    /// The parallel executor is bit-identical to the sequential one, for
    /// every rounding scheme and both modes.
    #[test]
    fn parallel_matches_sequential_discrete() {
        let g = generators::torus2d(9, 7); // odd sizes exercise chunking
        let n = g.node_count();
        let spec = sodiff_linalg::spectral::analyze(&g, &Speeds::uniform(n));
        let beta = spec.beta_opt();
        for rounding in [
            Rounding::randomized(13),
            Rounding::round_down(),
            Rounding::nearest(),
            Rounding::unbiased_edge(13),
        ] {
            let run = |threads: usize| {
                let mut sim = Experiment::on(&g)
                    .discrete(rounding)
                    .sos(beta)
                    .threads(threads)
                    .build()
                    .unwrap()
                    .simulator();
                sim.run_until(StopCondition::MaxRounds(120));
                (
                    sim.loads_i64().unwrap().to_vec(),
                    sim.min_transient_load(),
                    sim.previous_flows().to_vec(),
                )
            };
            let seq = run(1);
            for threads in [2, 3, 5] {
                let par = run(threads);
                assert_eq!(seq.0, par.0, "{rounding:?} loads, {threads} threads");
                assert_eq!(seq.1, par.1, "{rounding:?} transient, {threads} threads");
                assert_eq!(seq.2, par.2, "{rounding:?} flows, {threads} threads");
            }
        }
    }

    #[test]
    fn parallel_matches_sequential_continuous() {
        let g = generators::torus2d(8, 8);
        let n = g.node_count();
        let spec = sodiff_linalg::spectral::analyze(&g, &Speeds::uniform(n));
        let run = |threads: usize| {
            let mut sim = Experiment::on(&g)
                .continuous()
                .sos(spec.beta_opt())
                .threads(threads)
                .build()
                .unwrap()
                .simulator();
            sim.run_until(StopCondition::MaxRounds(200));
            (sim.loads_f64().unwrap().to_vec(), sim.min_transient_load())
        };
        let seq = run(1);
        let par = run(4);
        // Bit-identical: same summation order within every node.
        assert_eq!(seq.0, par.0);
        assert_eq!(seq.1, par.1);
    }

    #[test]
    fn parallel_heterogeneous_matches() {
        let g = generators::random_regular(60, 4, 2).unwrap();
        let speeds = Speeds::linear_ramp(60, 5.0);
        let run = |threads: usize| {
            let mut sim = Experiment::on(&g)
                .discrete(Rounding::randomized(3))
                .speeds(speeds.clone())
                .threads(threads)
                .init(InitialLoad::point(0, 60_000))
                .build()
                .unwrap()
                .simulator();
            sim.run_until(StopCondition::MaxRounds(100));
            sim.loads_i64().unwrap().to_vec()
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn accessors_reflect_configuration() {
        let g = generators::cycle(6);
        let speeds = Speeds::linear_ramp(6, 3.0);
        let sim = Experiment::on(&g)
            .discrete(Rounding::nearest())
            .speeds(speeds.clone())
            .threads(2)
            .init(InitialLoad::EqualPerNode(10))
            .build()
            .unwrap()
            .simulator();
        assert!(sim.is_discrete());
        assert_eq!(sim.threads(), 2);
        assert_eq!(sim.round(), 0);
        assert_eq!(sim.graph().node_count(), 6);
        assert_eq!(sim.speeds(), &speeds);
        assert_eq!(sim.initial_total(), 60.0);
        assert!(sim.loads_f64().is_none(), "discrete mode has no f64 loads");
        assert_eq!(sim.loads_i64().unwrap(), &[10; 6][..]);
        assert_eq!(sim.loads_to_f64(), vec![10.0; 6]);
        assert_eq!(sim.load_of(3), 10.0);
        // Pre-round transient equals the initial minimum load.
        assert_eq!(sim.min_transient_load(), 10.0);
    }

    #[test]
    fn continuous_mode_accessors() {
        let g = generators::cycle(4);
        let sim = Experiment::on(&g)
            .continuous()
            .init(InitialLoad::point(1, 40))
            .build()
            .unwrap()
            .simulator();
        assert!(!sim.is_discrete());
        assert!(sim.loads_i64().is_none());
        assert_eq!(sim.loads_f64().unwrap(), &[0.0, 40.0, 0.0, 0.0][..]);
    }

    /// A discrete run's restore writes the memory into the integral flow
    /// slots, so it refuses any value those slots could not hold — on
    /// both executors — and leaves the target untouched.
    #[test]
    fn rounded_restore_refuses_unrepresentable_memory() {
        let g = generators::torus2d(4, 4);
        for threads in [1, 3] {
            let build = || {
                Experiment::on(&g)
                    .discrete(Rounding::nearest())
                    .sos(1.5)
                    .threads(threads)
                    .init(InitialLoad::point(0, 1600))
                    .build()
                    .unwrap()
                    .simulator()
            };
            let mut source = build();
            source.run_until(StopCondition::MaxRounds(6));
            let good = source.snapshot();
            for bad in [0.5, -0.0, f64::NAN, f64::INFINITY, 1e300] {
                let mut snap = good.clone();
                snap.prev_flow[3] = bad;
                let mut target = build();
                target.run_until(StopCondition::MaxRounds(2));
                let before = target.snapshot();
                match target.restore(&snap) {
                    Err(CheckpointError::Mismatch(msg)) => {
                        assert!(msg.contains("integral"), "t{threads} {bad}: {msg}")
                    }
                    other => panic!("t{threads}: {bad} accepted ({other:?})"),
                }
                assert_eq!(target.snapshot(), before, "t{threads} {bad}");
            }
            let mut target = build();
            target.restore(&good).unwrap();
            assert_eq!(target.snapshot(), good, "t{threads}");
        }
    }

    #[test]
    fn malformed_churn_overlay_is_a_mismatch() {
        // 70 nodes: two overlay words, the second with 6 valid bits.
        let g = generators::cycle(70);
        let build = |churn: ChurnSpec| {
            Experiment::on(&g)
                .discrete(Rounding::nearest())
                .init(InitialLoad::point(0, 7000))
                .churn(churn)
                .build()
                .unwrap()
                .simulator()
        };
        let flux = ChurnSpec::none().with_flux(0.2, 0.3, 4);
        let mut source = build(flux);
        source.run_until(StopCondition::MaxRounds(20));
        let good = source.snapshot();
        assert_eq!(good.churn_active.len(), 2);
        let mut unchurned = build(ChurnSpec::none());
        unchurned.run_until(StopCondition::MaxRounds(20));
        let mut stray = unchurned.snapshot();
        stray.churn_active = good.churn_active.clone();
        let mut long = good.clone();
        long.churn_active.push(0);
        let mut short = good.clone();
        short.churn_active.pop();
        let mut high = good.clone();
        high.churn_active[1] |= 1 << 6;
        for (what, spec, snap) in [
            ("extra word", flux, long),
            ("missing word", flux, short),
            ("slot past n", flux, high),
            ("overlay under churn=none", ChurnSpec::none(), stray),
        ] {
            let mut target = build(spec);
            target.run_until(StopCondition::MaxRounds(3));
            let before = target.snapshot();
            match target.restore(&snap) {
                Err(CheckpointError::Mismatch(msg)) => {
                    assert!(msg.contains("churn overlay"), "{what}: {msg}")
                }
                other => panic!("{what} accepted ({other:?})"),
            }
            assert_eq!(target.snapshot(), before, "{what}");
        }
        let mut target = build(flux);
        target.restore(&good).unwrap();
        assert_eq!(target.snapshot(), good);
    }

    #[test]
    fn previous_flows_start_zero_and_update() {
        let g = generators::path(3);
        let mut sim = fos_sim(&g, Rounding::round_down(), InitialLoad::point(0, 90));
        assert!(sim.previous_flows().iter().all(|&f| f == 0.0));
        sim.step();
        // Node 0 (deg 1, neighbor deg 2): alpha = 1/3, flow = 30 exactly.
        assert_eq!(sim.previous_flows()[0], 30.0);
    }
}
