//! The unified experiment API: a typestate builder over graph, scheme,
//! mode, speeds, initial load, hybrid policy, and stop condition.
//!
//! [`Experiment::on`] starts an [`ExperimentBuilder`] in the
//! [`NeedsMode`] state; choosing continuous or discrete execution moves it
//! to [`Ready`]. Every setter writes into one crate-internal
//! configuration, which [`ExperimentBuilder::build`] validates exactly
//! once, returning a typed [`BuildError`] instead of panicking. The
//! resulting [`Experiment`] holds that configuration as it is: it can
//! mint fresh [`Simulator`]s from it — which cannot fail, since nothing
//! downstream re-checks it — run itself to completion (including the
//! paper's SOS→FOS hybrid switch via [`ExperimentBuilder::hybrid`]), or
//! measure the discrete/continuous deviation of its configuration.
//! Scenario text resolves its seedless rounding kind with
//! [`RoundingSpec::seeded`](crate::RoundingSpec::seeded) before it
//! reaches the builder.
//!
//! # Example
//!
//! ```
//! use sodiff_core::prelude::*;
//! use sodiff_graph::generators;
//!
//! let graph = generators::torus2d(16, 16);
//! let report = Experiment::on(&graph)
//!     .discrete(Rounding::randomized(42))
//!     .sos(1.9)
//!     .stop(StopCondition::MaxRounds(400))
//!     .build()
//!     .unwrap()
//!     .run();
//! assert!(report.final_metrics.max_minus_avg < 20.0);
//! ```

use std::marker::PhantomData;

use sodiff_graph::{Graph, Speeds};

use crate::checkpoint::{CheckpointConfig, Snapshot};
use crate::deviation::DeviationSeries;
use crate::engine::{Mode, RunReport, Simulator, StopCondition};
use crate::error::{BuildError, CheckpointError};
use crate::hybrid::SwitchPolicy;
use crate::init::InitialLoad;
use crate::observer::Observer;
use crate::perturb::{ChurnSpec, FaultSpec, LoadSpec, PerturbSpec};
use crate::rounding::Rounding;
use crate::scheme::Scheme;
use crate::scheme_kernel::SchemeKernel;

/// Typestate: the builder still needs an execution mode
/// ([`ExperimentBuilder::continuous`] or [`ExperimentBuilder::discrete`]).
#[derive(Debug)]
pub struct NeedsMode(());

/// Typestate: the builder has a mode and can [`ExperimentBuilder::build`].
#[derive(Debug)]
pub struct Ready(());

/// One experiment's whole configuration: the builder fills it,
/// [`Experiment`] holds it, and [`Simulator::build`] reads it. It is
/// validated exactly once, by [`Config::validate`] at
/// [`ExperimentBuilder::build`].
#[derive(Debug, Clone)]
pub(crate) struct Config {
    /// The balancing scheme.
    pub scheme: Scheme,
    /// Continuous or discrete execution (`Continuous` until the
    /// typestate builder picks one).
    pub mode: Mode,
    /// Node speeds; `None` means the homogeneous model.
    pub speeds: Option<Speeds>,
    /// Worker threads for the round executor (1 = sequential).
    pub threads: usize,
    /// The initial token placement.
    pub init: InitialLoad,
    /// The SOS→FOS switch of [`Experiment::run`], if any.
    pub hybrid: Option<SwitchPolicy>,
    /// The stop condition of [`Experiment::run`].
    pub stop: StopCondition,
    /// The fault, load and churn plans (all `none` = unperturbed, taking
    /// the exact unperturbed code paths).
    pub perturb: PerturbSpec,
    /// Periodic checkpointing (`None` = never snapshot).
    pub ckpt: Option<CheckpointConfig>,
}

impl Config {
    /// The builder's starting configuration on `graph`: continuous FOS
    /// with uniform speeds, the paper's default initial load, one thread,
    /// the default stop condition, and no hybrid switch, perturbation or
    /// checkpointing.
    pub(crate) fn new(graph: &Graph) -> Self {
        Config {
            scheme: Scheme::Fos,
            mode: Mode::Continuous,
            speeds: None,
            threads: 1,
            init: InitialLoad::paper_default(graph.node_count()),
            hybrid: None,
            stop: StopCondition::default(),
            perturb: PerturbSpec::default(),
            ckpt: None,
        }
    }

    /// The one validation point of an experiment: everything
    /// [`ExperimentBuilder::build`] documents, checked in that order.
    fn validate(&self, graph: &Graph) -> Result<(), BuildError> {
        let n = graph.node_count();
        if n == 0 {
            return Err(BuildError::EmptyGraph);
        }
        // Parameter ranges (β, λ) plus the pairwise schemes' structural
        // needs (an edge coloring / a matching exists iff the graph has
        // edges).
        SchemeKernel::validate(self.scheme, graph)?;
        if let Some(policy) = self.hybrid {
            if !self.scheme.is_diffusion() {
                return Err(BuildError::HybridRequiresDiffusion(self.scheme.to_string()));
            }
            policy
                .check()
                .map_err(|why| BuildError::InvalidHybrid(why.into()))?;
        }
        if let Some(speeds) = &self.speeds {
            if speeds.len() != n {
                return Err(BuildError::SpeedsLengthMismatch {
                    expected: n,
                    got: speeds.len(),
                });
            }
            // Every speed is finite, but their sum `s` can still overflow,
            // and the balanced loads `m·s_i/s` divide by it.
            if !speeds.total().is_finite() {
                return Err(BuildError::InvalidSpeeds(format!(
                    "the speeds sum to {}, which is not finite",
                    speeds.total()
                )));
            }
        }
        if self.threads == 0 {
            return Err(BuildError::ZeroThreads);
        }
        self.init.check(n).map_err(BuildError::InvalidInitialLoad)?;
        self.stop.check()?;
        self.perturb.check()?;
        if let Some(ckpt) = &self.ckpt {
            if ckpt.policy.every == 0 {
                return Err(BuildError::InvalidCheckpoint(
                    "interval must be positive".into(),
                ));
            }
            if ckpt.policy.dir.as_os_str().is_empty() {
                return Err(BuildError::InvalidCheckpoint(
                    "directory must not be empty".into(),
                ));
            }
        }
        Ok(())
    }
}

/// Typestate builder for [`Experiment`]s; see [`Experiment::on`].
///
/// The type parameter tracks whether an execution mode has been chosen:
/// `build` only exists in the [`Ready`] state, so "forgot to pick
/// continuous vs discrete" is a compile error, not a runtime panic.
#[derive(Debug)]
pub struct ExperimentBuilder<'g, S = NeedsMode> {
    graph: &'g Graph,
    config: Config,
    _state: PhantomData<S>,
}

impl<'g, S> ExperimentBuilder<'g, S> {
    /// Uses the first-order scheme (the default).
    pub fn fos(self) -> Self {
        self.scheme(Scheme::Fos)
    }

    /// Uses the second-order scheme with relaxation parameter `beta`.
    /// The convergence range `β ∈ (0, 2)` is checked at
    /// [`ExperimentBuilder::build`], which reports violations as
    /// [`BuildError::InvalidBeta`].
    pub fn sos(self, beta: f64) -> Self {
        self.scheme(Scheme::Sos { beta })
    }

    /// Uses a pre-constructed [`Scheme`] (validated at build):
    /// FOS/SOS diffusion, [`Scheme::dimension_exchange`], or one of the
    /// [`Scheme::matching_round_robin`] / [`Scheme::matching_random`]
    /// matching-based schemes. Pairwise schemes need a graph with at
    /// least one edge ([`BuildError::NoColoring`] /
    /// [`BuildError::NoMatching`]) and `λ ∈ (0, 1]`
    /// ([`BuildError::InvalidLambda`]).
    pub fn scheme(mut self, scheme: Scheme) -> Self {
        self.config.scheme = scheme;
        self
    }

    /// Sets heterogeneous node speeds. The length is checked against the
    /// graph at build ([`BuildError::SpeedsLengthMismatch`]), and speeds
    /// whose sum overflows `f64` are reported as
    /// [`BuildError::InvalidSpeeds`].
    pub fn speeds(mut self, speeds: Speeds) -> Self {
        self.config.speeds = Some(speeds);
        self
    }

    /// Runs rounds on a persistent pool of `threads` workers; results are
    /// bit-identical to the sequential executor. `0` is reported as
    /// [`BuildError::ZeroThreads`] at build.
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Sets the initial token placement (default:
    /// [`InitialLoad::paper_default`], `1000·n` tokens on node 0).
    /// Out-of-range nodes, negative totals and totals that overflow
    /// `i64` are reported as [`BuildError::InvalidInitialLoad`] at build.
    pub fn init(mut self, init: InitialLoad) -> Self {
        self.config.init = init;
        self
    }

    /// Attaches the paper's SOS→FOS hybrid switch (Section VI): the
    /// policy is evaluated before every round of [`Experiment::run`] and
    /// flips the scheme to FOS at most once. This replaces the old
    /// `run_hybrid*` free functions. Only the diffusion schemes support
    /// it — with a pairwise scheme, `build` reports
    /// [`BuildError::HybridRequiresDiffusion`] — and a NaN threshold,
    /// which could never fire, is reported as
    /// [`BuildError::InvalidHybrid`].
    pub fn hybrid(mut self, policy: SwitchPolicy) -> Self {
        self.config.hybrid = Some(policy);
        self
    }

    /// Sets the stop condition of [`Experiment::run`] (default:
    /// [`StopCondition::default`], `MaxRounds(1000)`).
    pub fn stop(mut self, condition: StopCondition) -> Self {
        self.config.stop = condition;
        self
    }

    /// Sets the deterministic fault-injection plan (default:
    /// [`FaultSpec::none`]). Probabilities outside `[0, 1]` are reported
    /// as [`BuildError::InvalidFaults`] at build.
    pub fn faults(mut self, faults: FaultSpec) -> Self {
        self.config.perturb.faults = faults;
        self
    }

    /// Sets the deterministic dynamic-load plan (default:
    /// [`LoadSpec::none`]). Out-of-range generator parameters are
    /// reported as [`BuildError::InvalidLoad`] at build.
    pub fn load(mut self, load: LoadSpec) -> Self {
        self.config.perturb.load = load;
        self
    }

    /// Sets the deterministic live-topology churn plan (default:
    /// [`ChurnSpec::none`]): epoch-aligned node departures with
    /// conservation-exact load handoff and (re)arrivals over the
    /// graph's reserved capacity. Out-of-range probabilities or initial
    /// loads are reported as [`BuildError::InvalidChurn`] at build.
    pub fn churn(mut self, churn: ChurnSpec) -> Self {
        self.config.perturb.churn = churn;
        self
    }

    /// Attaches a periodic checkpoint sink (see [`crate::checkpoint`]):
    /// the engine snapshots the full evolving state every
    /// `ckpt.policy.every` rounds (and on a divergence-watchdog trip),
    /// so a killed run can be resumed **bit-identically** with
    /// [`crate::checkpoint::read_checkpoint`]. Scenario files opt in
    /// with the `ckpt=every:N:DIR` key. Degenerate policies (zero
    /// interval, empty directory) are reported as
    /// [`BuildError::InvalidCheckpoint`] at build.
    pub fn checkpoint(mut self, ckpt: CheckpointConfig) -> Self {
        self.config.ckpt = Some(ckpt);
        self
    }
}

impl<'g> ExperimentBuilder<'g, NeedsMode> {
    fn with_mode(self, mode: Mode) -> ExperimentBuilder<'g, Ready> {
        ExperimentBuilder {
            graph: self.graph,
            config: Config {
                mode,
                ..self.config
            },
            _state: PhantomData,
        }
    }

    /// Continuous (idealized) execution: loads are `f64`, flows are not
    /// rounded.
    pub fn continuous(self) -> ExperimentBuilder<'g, Ready> {
        self.with_mode(Mode::Continuous)
    }

    /// Discrete execution with a fully specified (seed included) rounding
    /// scheme. A seedless [`crate::RoundingSpec`] resolves to one with
    /// [`crate::RoundingSpec::seeded`].
    pub fn discrete(self, rounding: Rounding) -> ExperimentBuilder<'g, Ready> {
        self.with_mode(Mode::Discrete(rounding))
    }
}

impl<'g> ExperimentBuilder<'g, Ready> {
    /// Validates the accumulated configuration — the experiment's one
    /// validation point: the simulators it mints read the configuration
    /// without checking it again.
    ///
    /// # Errors
    ///
    /// Every invalid input surfaces as the matching [`BuildError`]
    /// variant: [`BuildError::EmptyGraph`], [`BuildError::InvalidBeta`],
    /// [`BuildError::InvalidLambda`], [`BuildError::NoColoring`],
    /// [`BuildError::NoMatching`],
    /// [`BuildError::HybridRequiresDiffusion`],
    /// [`BuildError::InvalidHybrid`],
    /// [`BuildError::SpeedsLengthMismatch`], [`BuildError::InvalidSpeeds`],
    /// [`BuildError::ZeroThreads`], [`BuildError::InvalidInitialLoad`],
    /// [`BuildError::InvalidStopCondition`], [`BuildError::InvalidFaults`],
    /// [`BuildError::InvalidLoad`], [`BuildError::InvalidChurn`], or
    /// [`BuildError::InvalidCheckpoint`].
    pub fn build(self) -> Result<Experiment<'g>, BuildError> {
        self.config.validate(self.graph)?;
        Ok(Experiment {
            graph: self.graph,
            config: self.config,
        })
    }
}

/// A validated, reusable experiment description: graph, scheme, mode,
/// speeds, initial load, optional hybrid switch policy, and stop
/// condition.
///
/// Built by [`Experiment::on`]'s [`ExperimentBuilder`]; see the module
/// docs above for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Experiment<'g> {
    graph: &'g Graph,
    config: Config,
}

impl<'g> Experiment<'g> {
    /// Starts building an experiment on `graph`.
    pub fn on(graph: &'g Graph) -> ExperimentBuilder<'g, NeedsMode> {
        ExperimentBuilder {
            graph,
            config: Config::new(graph),
            _state: PhantomData,
        }
    }

    /// The network this experiment runs on.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The diffusion scheme.
    pub fn scheme(&self) -> Scheme {
        self.config.scheme
    }

    /// Continuous or discrete execution.
    pub fn mode(&self) -> Mode {
        self.config.mode
    }

    /// Worker threads of the executor.
    pub fn threads(&self) -> usize {
        self.config.threads
    }

    /// Mints a fresh simulator at round 0. The experiment can create any
    /// number of independent simulators (e.g. for lockstep comparisons).
    pub fn simulator(&self) -> Simulator<'g> {
        Simulator::build(self.graph, &self.config, None)
    }

    /// Mints a simulator that executes rounds on an externally owned
    /// worker pool (the batch [`crate::Driver`]'s), overriding the
    /// configured thread count with the pool's.
    pub(crate) fn simulator_on(
        &self,
        pool: std::sync::Arc<crate::pool::WorkerPool>,
    ) -> Simulator<'g> {
        Simulator::build(self.graph, &self.config, Some(pool))
    }

    /// Runs a fresh simulator to the stop condition, applying the hybrid
    /// policy if one is attached, and returns the report.
    pub fn run(&self) -> RunReport {
        self.run_with(&mut crate::observer::NullObserver)
    }

    /// Like [`Experiment::run`], invoking `observer` after every round.
    pub fn run_with(&self, observer: &mut dyn Observer) -> RunReport {
        let mut sim = self.simulator();
        self.run_on(&mut sim, observer)
    }

    /// Runs an existing simulator (typically from
    /// [`Experiment::simulator`]) to this experiment's stop condition
    /// with its hybrid policy.
    pub fn run_on(&self, sim: &mut Simulator<'g>, observer: &mut dyn Observer) -> RunReport {
        self.run_to(sim, self.config.stop, observer)
    }

    /// Continues an interrupted run: restores `snapshot` into `sim`,
    /// then runs the remainder of the stop condition under the hybrid
    /// policy. [`crate::Checkpoint::resume_with`] and the batch
    /// [`crate::Driver`] both resume through here.
    pub(crate) fn resume_on(
        &self,
        sim: &mut Simulator<'g>,
        snapshot: &Snapshot,
        observer: &mut dyn Observer,
    ) -> Result<RunReport, CheckpointError> {
        sim.restore(snapshot)?;
        Ok(self.run_to(sim, snapshot.remaining_stop(self.config.stop), observer))
    }

    /// Runs `sim` to `stop` under this experiment's hybrid policy.
    fn run_to(
        &self,
        sim: &mut Simulator<'g>,
        stop: StopCondition,
        observer: &mut dyn Observer,
    ) -> RunReport {
        match self.config.hybrid {
            Some(policy) => sim.run_hybrid_with(policy, stop, observer),
            None => sim.run_until_with(stop, observer),
        }
    }

    /// Runs this experiment's discrete process in lockstep with its
    /// continuous twin for `rounds` rounds, recording the per-round
    /// deviation `max_k |x_k^D − x_k^C|` (paper Theorems 3, 8, 9) and
    /// the discrete run's final metrics and minimum transient load.
    ///
    /// The discrete process runs through the run loop under the
    /// experiment's hybrid policy, as [`Experiment::run`] does, and the
    /// twin switches to FOS before the same round, so the two stay
    /// coupled. Neither writes a checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::RequiresDiscrete`] for continuous-mode
    /// experiments (they have no rounding to deviate from).
    pub fn coupled_deviation(&self, rounds: usize) -> Result<DeviationSeries, BuildError> {
        if !matches!(self.config.mode, Mode::Discrete(_)) {
            return Err(BuildError::RequiresDiscrete("coupled_deviation"));
        }
        // Transient comparison runs; never checkpoint them.
        let config = Config {
            ckpt: None,
            ..self.config.clone()
        };
        let mut discrete = Simulator::build(self.graph, &config, None);
        let twin = Config {
            mode: Mode::Continuous,
            ..config
        };
        let mut twin = Twin {
            sim: Simulator::build(self.graph, &twin, None),
            per_round: Vec::with_capacity(rounds),
        };
        self.run_to(&mut discrete, StopCondition::MaxRounds(rounds), &mut twin);
        Ok(DeviationSeries {
            per_round: twin.per_round,
            final_metrics: discrete.metrics(),
            min_transient: discrete.min_transient_load(),
        })
    }
}

/// The continuous twin of [`Experiment::coupled_deviation`], stepped once
/// after each discrete round.
struct Twin<'g> {
    sim: Simulator<'g>,
    per_round: Vec<f64>,
}

impl Observer for Twin<'_> {
    fn on_round(&mut self, discrete: &Simulator<'_>) {
        // A switch the discrete run records at round `s`, by its policy
        // (before round `s + 1`) or its watchdog (after round `s`), takes
        // effect from round `s + 1` on. The twin is one round behind here,
        // so it reaches round `s` at exactly one call: the one that
        // switches it.
        if discrete.switch_round() == Some(self.sim.round()) {
            self.sim.switch_scheme(Scheme::fos());
        }
        self.sim.step();
        self.per_round.push(discrete.deviation_from(&self.sim));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rounding::RoundingSpec;
    use sodiff_graph::{generators, GraphBuilder};

    #[test]
    fn builder_minimal_discrete() {
        let g = generators::torus2d(4, 4);
        let exp = Experiment::on(&g)
            .discrete(Rounding::nearest())
            .build()
            .unwrap();
        assert_eq!(exp.scheme(), Scheme::fos());
        assert_eq!(exp.threads(), 1);
        let report = exp.run();
        assert_eq!(report.rounds, 1000);
        assert_eq!(report.switch_round, None);
    }

    #[test]
    fn invalid_beta_is_reported() {
        let g = generators::cycle(4);
        for beta in [0.0, -1.0, 2.0, 3.5, f64::NAN] {
            let err = Experiment::on(&g)
                .continuous()
                .sos(beta)
                .build()
                .unwrap_err();
            assert!(matches!(err, BuildError::InvalidBeta(_)), "beta {beta}");
        }
        // Pre-built schemes with hand-rolled bad betas are re-validated.
        let err = Experiment::on(&g)
            .continuous()
            .scheme(Scheme::Sos { beta: 7.0 })
            .build()
            .unwrap_err();
        assert_eq!(err, BuildError::InvalidBeta(7.0));
    }

    #[test]
    fn speeds_mismatch_is_reported() {
        let g = generators::cycle(6);
        let err = Experiment::on(&g)
            .discrete(Rounding::nearest())
            .speeds(Speeds::uniform(5))
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            BuildError::SpeedsLengthMismatch {
                expected: 6,
                got: 5
            }
        );
    }

    #[test]
    fn empty_graph_is_reported() {
        let g = GraphBuilder::new(0).build();
        let err = Experiment::on(&g).continuous().build().unwrap_err();
        assert_eq!(err, BuildError::EmptyGraph);
    }

    #[test]
    fn missing_seed_is_reported() {
        let g = generators::cycle(4);
        let err = RoundingSpec::Randomized.seeded(None).unwrap_err();
        assert!(matches!(err, BuildError::MissingSeed("randomized")));
        // With a seed the same spec builds.
        let rounding = RoundingSpec::Randomized.seeded(Some(5)).unwrap();
        let exp = Experiment::on(&g).discrete(rounding).build().unwrap();
        assert_eq!(exp.mode(), Mode::Discrete(Rounding::randomized(5)));
        // Deterministic kinds never need one.
        let rounding = RoundingSpec::Nearest.seeded(None).unwrap();
        assert!(Experiment::on(&g).discrete(rounding).build().is_ok());
    }

    #[test]
    fn zero_threads_is_reported() {
        let g = generators::cycle(4);
        let err = Experiment::on(&g)
            .continuous()
            .threads(0)
            .build()
            .unwrap_err();
        assert_eq!(err, BuildError::ZeroThreads);
    }

    #[test]
    fn bad_initial_load_is_reported() {
        let g = generators::cycle(4);
        let err = Experiment::on(&g)
            .discrete(Rounding::nearest())
            .init(InitialLoad::point(9, 10))
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildError::InvalidInitialLoad(_)));
        let err = Experiment::on(&g)
            .discrete(Rounding::nearest())
            .init(InitialLoad::Custom(vec![1, 2]))
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildError::InvalidInitialLoad(_)));
    }

    #[test]
    fn bad_stop_condition_is_reported() {
        let g = generators::cycle(4);
        let err = Experiment::on(&g)
            .continuous()
            .stop(StopCondition::Plateau {
                window: 0,
                max_rounds: 10,
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildError::InvalidStopCondition(_)));
    }

    #[test]
    fn hybrid_run_reports_switch_round() {
        let g = generators::torus2d(8, 8);
        let spec = sodiff_linalg::spectral::analyze(&g, &Speeds::uniform(64));
        let report = Experiment::on(&g)
            .discrete(Rounding::randomized(3))
            .sos(spec.beta_opt())
            .hybrid(SwitchPolicy::AtRound(40))
            .stop(StopCondition::MaxRounds(120))
            .build()
            .unwrap()
            .run();
        assert_eq!(report.switch_round, Some(40));
        assert_eq!(report.rounds, 120);
    }

    #[test]
    fn experiment_run_matches_hand_built_simulator() {
        let g = generators::torus2d(6, 6);
        let exp = Experiment::on(&g)
            .discrete(Rounding::randomized(11))
            .sos(1.8)
            .stop(StopCondition::MaxRounds(150))
            .build()
            .unwrap();
        let report = exp.run();
        let mut sim = exp.simulator();
        let manual = sim.run_until(StopCondition::MaxRounds(150));
        assert_eq!(report, manual, "Experiment::run must be bit-identical");
    }

    #[test]
    fn coupled_deviation_requires_discrete() {
        let g = generators::cycle(6);
        let exp = Experiment::on(&g).continuous().build().unwrap();
        assert!(matches!(
            exp.coupled_deviation(5),
            Err(BuildError::RequiresDiscrete(_))
        ));
        let exp = Experiment::on(&g)
            .discrete(Rounding::randomized(1))
            .init(InitialLoad::point(0, 600))
            .build()
            .unwrap();
        let series = exp.coupled_deviation(20).unwrap();
        assert_eq!(series.per_round.len(), 20);
    }
}
