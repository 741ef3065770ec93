//! Declarative scenario specifications: whole experiments as text.
//!
//! A [`ScenarioSpec`] describes one experiment — topology, speeds, scheme,
//! rounding, mode, initial load, stop condition, threads, and an optional
//! hybrid switch — as a line of whitespace-separated `key=value` pairs:
//!
//! ```text
//! name=fig1_sos topology=torus2d:256:256 scheme=sos_opt mode=discrete \
//!     rounding=randomized seed=42 init=paper stop=rounds:1280 threads=1
//! ```
//!
//! The format is hand-parsed (no serde; the build environment is offline)
//! and round-trips exactly through `Display`/`FromStr`, so scenario files
//! can be generated, diffed, and replayed byte-for-byte. Bench binaries
//! and the `scenarios` example feed files of these lines to the batch
//! [`crate::Driver`]; [`ScenarioSpec::parse_many`] handles `#` comments
//! and blank lines.
//!
//! [`ScenarioSpec::experiment_on`] resolves the pieces that need the
//! graph or the seed — speeds, `sos_opt`'s β, the seeded rounding — and
//! hands everything to the [`crate::ExperimentBuilder`], whose `build`
//! is the experiment's one validation point. The parse-time range checks
//! (β, λ, stop conditions, hybrid thresholds) call the same rules the
//! build applies, so a scenario file gets a line-anchored error instead
//! of a late build failure. The `stop=` value is a [`StopCondition`] as
//! it is.
//!
//! A line is read in two passes. The first reads every token into a
//! table of the keys below and refuses a token that is not `key=value`,
//! an unknown key, or a repeated one. Only then are the values parsed,
//! in the table's order. So a token error anywhere on the line is
//! reported before any value error.
//!
//! Keys and defaults:
//!
//! | key | values | default |
//! |-----|--------|---------|
//! | `name` | free token (no spaces) | `scenario` |
//! | `topology` | see [`TopologySpec`] | *required* |
//! | `speeds` | `uniform`, `two_class:FAST:SPEED`, `ramp:MAX`, `skewed:MAX:EXP:SEED` | `uniform` |
//! | `scheme` | `fos`, `sos:BETA`, `sos_opt`, `de:LAMBDA`, `matching:rr:LAMBDA`, `matching:random:SEED:LAMBDA` | `fos` |
//! | `mode` | `continuous`, `discrete` | `discrete` |
//! | `rounding` | `randomized`, `round_down`, `nearest`, `unbiased` | `randomized` |
//! | `seed` | integer | *unset* (randomized kinds then fail to build) |
//! | `init` | `paper`, `point:NODE:TOTAL`, `equal:PER`, `ramp:MAX`, `random:TOTAL:SEED` | `paper` |
//! | `stop` | `rounds:N`, `balanced:THRESHOLD:MAX`, `plateau:WINDOW:MAX`, `steady:WINDOW`, `horizon:R` | `rounds:1000` |
//! | `threads` | positive integer | `1` |
//! | `faults` | `none`, or `+`-joined `crash:P:SEED`, `edgedrop:P:SEED`, `shock:RATE:SEED`, `stale:P:SEED` (see [`crate::perturb`]) | `none` |
//! | `load` | `none`, or `+`-joined `poisson:RATE:SEED`, `hotspot:NODE:BURST:PERIOD:SEED`, `diurnal:AMP:PERIOD`, `adversarial:BURST:PERIOD:SEED` (see [`crate::perturb`]) | `none` |
//! | `churn` | `none`, or `flux:P_LEAVE:P_JOIN:SEED[:INIT]` (epoch-aligned node join/leave with conservation-exact handoff; see [`crate::perturb`]) | `none` |
//! | `ckpt` | `every:N:DIR` (snapshot to `DIR/<name>.ckpt` every `N` rounds; see [`crate::checkpoint`]) | *unset* |
//! | `hybrid` | `at:R`, `local_diff:T`, `max_minus_avg:T`, `never` | *unset* |
//! | `flow_memory` | `rounded` only, a legacy value: any other is refused | *unset* |
//!
//! A discrete SOS run remembers the integral flows it sent, "the amount
//! that was sent in step t−1", and a continuous one its `f64` flows, so
//! no key chooses the memory. Lines written before the unrounded memory
//! (`flow_memory=scheduled`) was retired carry `flow_memory=rounded`:
//! checkpoint headers and batch journals among them. The parser still
//! reads that key, so such a line parses to the same spec as the line
//! without it; `Display` never writes it.

use std::fmt;
use std::str::FromStr;

use sodiff_graph::{Graph, Speeds, TopologySpec};
use sodiff_linalg::spectral::SpectralError;

use crate::checkpoint::{CheckpointConfig, CheckpointPolicy};
use crate::engine::{RunReport, StopCondition};
use crate::error::{BuildError, ParseError};
use crate::experiment::Experiment;
use crate::hybrid::SwitchPolicy;
use crate::init::InitialLoad;
use crate::perturb::{ChurnSpec, FaultSpec, LoadSpec};
use crate::rounding::RoundingSpec;
use crate::scheme::Scheme;

/// Node speeds as data (`speeds=` key).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SpeedsSpec {
    /// The homogeneous model (`uniform`).
    #[default]
    Uniform,
    /// The first `fast` nodes run at `speed`, the rest at 1
    /// (`two_class:FAST:SPEED`).
    TwoClass {
        /// Number of fast nodes.
        fast: usize,
        /// Speed of the fast nodes.
        speed: f64,
    },
    /// Linear ramp from 1 to `max` (`ramp:MAX`).
    Ramp {
        /// Speed of the last node.
        max: f64,
    },
    /// Random skewed speeds `1 + (max−1)·U^exponent`
    /// (`skewed:MAX:EXP:SEED`).
    Skewed {
        /// Maximum speed.
        max: f64,
        /// Skew exponent.
        exponent: f64,
        /// RNG seed.
        seed: u64,
    },
}

impl SpeedsSpec {
    /// Materializes the speeds for an `n`-node graph.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::InvalidSpeeds`] for speeds below 1,
    /// non-finite values (a ramp's intermediate products included), a
    /// negative skew exponent, or a fast-node count above `n`. A total
    /// that overflows `f64` is refused when the experiment builds, for
    /// hand-built speeds too.
    pub fn build(&self, n: usize) -> Result<Speeds, BuildError> {
        let invalid = |msg: String| Err(BuildError::InvalidSpeeds(msg));
        match *self {
            SpeedsSpec::Uniform => Ok(Speeds::uniform(n)),
            SpeedsSpec::TwoClass { fast, speed } => {
                if fast > n {
                    return invalid(format!("{fast} fast nodes on a {n}-node graph"));
                }
                if !speed.is_finite() || speed < 1.0 {
                    return invalid(format!("fast speed must be finite and >= 1, got {speed}"));
                }
                Ok(Speeds::two_class(n, fast, speed))
            }
            SpeedsSpec::Ramp { max } => {
                if !max.is_finite() || max < 1.0 {
                    return invalid(format!("ramp maximum must be finite and >= 1, got {max}"));
                }
                // The ramp scales `max − 1` by the node index before it
                // divides by `n − 1`.
                if !((max - 1.0) * n.saturating_sub(1) as f64).is_finite() {
                    return invalid(format!("ramp maximum {max} overflows on {n} nodes"));
                }
                Ok(Speeds::linear_ramp(n, max))
            }
            SpeedsSpec::Skewed {
                max,
                exponent,
                seed,
            } => {
                if !max.is_finite() || max < 1.0 {
                    return invalid(format!("skewed maximum must be finite and >= 1, got {max}"));
                }
                if !exponent.is_finite() {
                    return invalid(format!("skew exponent must be finite, got {exponent}"));
                }
                // `U^exponent` with `U ∈ [0, 1)` is unbounded for a
                // negative exponent.
                if exponent < 0.0 {
                    return invalid(format!("skew exponent must be >= 0, got {exponent}"));
                }
                Ok(Speeds::random_skewed(n, max, exponent, seed))
            }
        }
    }
}

impl fmt::Display for SpeedsSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpeedsSpec::Uniform => f.write_str("uniform"),
            SpeedsSpec::TwoClass { fast, speed } => write!(f, "two_class:{fast}:{speed}"),
            SpeedsSpec::Ramp { max } => write!(f, "ramp:{max}"),
            SpeedsSpec::Skewed {
                max,
                exponent,
                seed,
            } => write!(f, "skewed:{max}:{exponent}:{seed}"),
        }
    }
}

impl FromStr for SpeedsSpec {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parts: Vec<&str> = s.split(':').collect();
        let bad = || {
            ParseError::new(format!(
                "invalid speeds '{s}' (expected uniform, two_class:FAST:SPEED, ramp:MAX, \
                 or skewed:MAX:EXP:SEED)"
            ))
        };
        match parts.as_slice() {
            ["uniform"] => Ok(SpeedsSpec::Uniform),
            ["two_class", fast, speed] => Ok(SpeedsSpec::TwoClass {
                fast: fast.parse().map_err(|_| bad())?,
                speed: speed.parse().map_err(|_| bad())?,
            }),
            ["ramp", max] => Ok(SpeedsSpec::Ramp {
                max: max.parse().map_err(|_| bad())?,
            }),
            ["skewed", max, exponent, seed] => Ok(SpeedsSpec::Skewed {
                max: max.parse().map_err(|_| bad())?,
                exponent: exponent.parse().map_err(|_| bad())?,
                seed: seed.parse().map_err(|_| bad())?,
            }),
            _ => Err(bad()),
        }
    }
}

/// The balancing scheme as data (`scheme=` key).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SchemeSpec {
    /// First-order scheme (`fos`).
    #[default]
    Fos,
    /// Second-order scheme with an explicit `β` (`sos:BETA`).
    Sos {
        /// Relaxation parameter.
        beta: f64,
    },
    /// Second-order scheme with `β_opt` computed from the graph's
    /// spectrum at build time (`sos_opt`).
    SosOpt,
    /// Dimension exchange over the graph's edge coloring
    /// (`de:LAMBDA`; bare `de` means `λ = 1`).
    De {
        /// Pairwise exchange gain `λ ∈ (0, 1]`.
        lambda: f64,
    },
    /// Matching-based balancing over a round-robin family of maximal
    /// matchings (`matching:rr:LAMBDA`; bare `matching` / `matching:rr`
    /// mean `λ = 1`).
    MatchingRr {
        /// Pairwise exchange gain `λ ∈ (0, 1]`.
        lambda: f64,
    },
    /// Matching-based balancing drawing a fresh random maximal matching
    /// per round (`matching:random:SEED:LAMBDA`;
    /// `matching:random:SEED` means `λ = 1`).
    MatchingRandom {
        /// Seed of the per-round matching draws.
        seed: u64,
        /// Pairwise exchange gain `λ ∈ (0, 1]`.
        lambda: f64,
    },
}

impl SchemeSpec {
    /// Resolves the scheme against a concrete graph and speeds.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::InvalidBeta`] for explicit `β` outside
    /// `(0, 2)` or when `sos_opt` is requested on a graph whose `λ` is
    /// not in `[0, 1)` (disconnected or degenerate networks),
    /// [`BuildError::Spectral`] when `sos_opt`'s `λ` cannot be certified,
    /// and
    /// [`BuildError::InvalidLambda`] for a pairwise exchange gain outside
    /// `(0, 1]`.
    pub fn resolve(&self, graph: &Graph, speeds: &Speeds) -> Result<Scheme, BuildError> {
        let scheme = match *self {
            SchemeSpec::Fos => Scheme::Fos,
            SchemeSpec::Sos { beta } => Scheme::try_sos(beta)?,
            SchemeSpec::SosOpt => {
                // A network with fewer than two nodes or more than one
                // component has λ = 1, where β_opt reaches 2, outside
                // (0, 2); the spectral analysis refuses it outright, and
                // refuses a λ its solver could not certify.
                let lambda = match sodiff_linalg::spectral::try_analyze(graph, speeds) {
                    Ok(spectrum) => spectrum.lambda,
                    Err(e @ SpectralError::NotCertified(_)) => return Err(BuildError::Spectral(e)),
                    Err(_) => return Err(BuildError::InvalidBeta(2.0)),
                };
                if !(0.0..1.0).contains(&lambda) {
                    return Err(BuildError::InvalidBeta(lambda));
                }
                Scheme::Sos {
                    beta: sodiff_linalg::spectral::beta_opt(lambda),
                }
            }
            SchemeSpec::De { lambda } => Scheme::dimension_exchange(lambda),
            SchemeSpec::MatchingRr { lambda } => Scheme::matching_round_robin(lambda),
            SchemeSpec::MatchingRandom { seed, lambda } => Scheme::matching_random(seed, lambda),
        };
        scheme.check()?;
        Ok(scheme)
    }
}

impl fmt::Display for SchemeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemeSpec::Fos => f.write_str("fos"),
            SchemeSpec::Sos { beta } => write!(f, "sos:{beta}"),
            SchemeSpec::SosOpt => f.write_str("sos_opt"),
            SchemeSpec::De { lambda } => write!(f, "de:{lambda}"),
            SchemeSpec::MatchingRr { lambda } => write!(f, "matching:rr:{lambda}"),
            SchemeSpec::MatchingRandom { seed, lambda } => {
                write!(f, "matching:random:{seed}:{lambda}")
            }
        }
    }
}

impl FromStr for SchemeSpec {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parts: Vec<&str> = s.split(':').collect();
        let bad = |what: &str| ParseError::new(format!("invalid {what} in scheme '{s}'"));
        // Range violations are caught here — scenario files get a
        // line-anchored parse error instead of a late build failure —
        // but the ranges themselves live in `Scheme`'s own validation
        // (programmatic specs are still re-validated at build).
        let beta_checked = |beta: &str| {
            let beta: f64 = beta.parse().map_err(|_| bad("sos beta"))?;
            Scheme::try_sos(beta)
                .map(|_| beta)
                .map_err(|e| ParseError::new(format!("in scheme '{s}': {e}")))
        };
        let lambda_checked = |lambda: &str, what: &str| {
            let lambda: f64 = lambda.parse().map_err(|_| bad(what))?;
            Scheme::dimension_exchange(lambda)
                .check()
                .map(|()| lambda)
                .map_err(|e| ParseError::new(format!("in scheme '{s}': {e}")))
        };
        match parts.as_slice() {
            ["fos"] => Ok(SchemeSpec::Fos),
            ["sos_opt"] => Ok(SchemeSpec::SosOpt),
            ["sos", beta] => Ok(SchemeSpec::Sos {
                beta: beta_checked(beta)?,
            }),
            ["de"] => Ok(SchemeSpec::De { lambda: 1.0 }),
            ["de", lambda] => Ok(SchemeSpec::De {
                lambda: lambda_checked(lambda, "de lambda")?,
            }),
            ["matching"] | ["matching", "rr"] => Ok(SchemeSpec::MatchingRr { lambda: 1.0 }),
            ["matching", "rr", lambda] => Ok(SchemeSpec::MatchingRr {
                lambda: lambda_checked(lambda, "matching lambda")?,
            }),
            ["matching", "random", seed] => seed
                .parse()
                .map(|seed| SchemeSpec::MatchingRandom { seed, lambda: 1.0 })
                .map_err(|_| bad("matching seed")),
            ["matching", "random", seed, lambda] => {
                let seed = seed.parse().map_err(|_| bad("matching seed"))?;
                let lambda = lambda_checked(lambda, "matching lambda")?;
                Ok(SchemeSpec::MatchingRandom { seed, lambda })
            }
            _ => Err(ParseError::new(format!(
                "unknown scheme '{s}' (expected fos, sos:BETA, sos_opt, de:LAMBDA, \
                 matching:rr:LAMBDA, or matching:random:SEED:LAMBDA)"
            ))),
        }
    }
}

/// Continuous vs discrete execution as data (`mode=` key; the rounding
/// kind rides in the separate `rounding=` key).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModeSpec {
    /// Idealized execution.
    Continuous,
    /// Discrete execution with the given rounding kind.
    Discrete(RoundingSpec),
}

impl Default for ModeSpec {
    fn default() -> Self {
        ModeSpec::Discrete(RoundingSpec::default())
    }
}

/// Initial token placement as data (`init=` key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InitSpec {
    /// The paper's default: `1000·n` tokens on node 0 (`paper`).
    #[default]
    Paper,
    /// All tokens on one node (`point:NODE:TOTAL`).
    Point {
        /// The loaded node.
        node: u32,
        /// Total tokens.
        total: i64,
    },
    /// The same load on every node (`equal:PER`).
    Equal {
        /// Tokens per node.
        per: i64,
    },
    /// Linear ramp from 0 to `max` (`ramp:MAX`).
    Ramp {
        /// Load of the last node.
        max: i64,
    },
    /// Tokens dropped uniformly at random (`random:TOTAL:SEED`).
    Random {
        /// Total tokens.
        total: i64,
        /// RNG seed.
        seed: u64,
    },
}

impl InitSpec {
    /// Resolves to a concrete [`InitialLoad`] for an `n`-node graph.
    /// (Range validation happens when the experiment builds.)
    pub fn resolve(&self, n: usize) -> InitialLoad {
        match *self {
            InitSpec::Paper => InitialLoad::paper_default(n),
            InitSpec::Point { node, total } => InitialLoad::point(node, total),
            InitSpec::Equal { per } => InitialLoad::EqualPerNode(per),
            InitSpec::Ramp { max } => InitialLoad::Ramp { max_per_node: max },
            InitSpec::Random { total, seed } => InitialLoad::UniformRandom { total, seed },
        }
    }
}

impl fmt::Display for InitSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InitSpec::Paper => f.write_str("paper"),
            InitSpec::Point { node, total } => write!(f, "point:{node}:{total}"),
            InitSpec::Equal { per } => write!(f, "equal:{per}"),
            InitSpec::Ramp { max } => write!(f, "ramp:{max}"),
            InitSpec::Random { total, seed } => write!(f, "random:{total}:{seed}"),
        }
    }
}

impl FromStr for InitSpec {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parts: Vec<&str> = s.split(':').collect();
        let bad = || {
            ParseError::new(format!(
                "invalid init '{s}' (expected paper, point:NODE:TOTAL, equal:PER, ramp:MAX, \
                 or random:TOTAL:SEED)"
            ))
        };
        match parts.as_slice() {
            ["paper"] => Ok(InitSpec::Paper),
            ["point", node, total] => Ok(InitSpec::Point {
                node: node.parse().map_err(|_| bad())?,
                total: total.parse().map_err(|_| bad())?,
            }),
            ["equal", per] => Ok(InitSpec::Equal {
                per: per.parse().map_err(|_| bad())?,
            }),
            ["ramp", max] => Ok(InitSpec::Ramp {
                max: max.parse().map_err(|_| bad())?,
            }),
            ["random", total, seed] => Ok(InitSpec::Random {
                total: total.parse().map_err(|_| bad())?,
                seed: seed.parse().map_err(|_| bad())?,
            }),
            _ => Err(bad()),
        }
    }
}

/// One experiment described entirely as data; see the module docs above
/// for the text format.
///
/// # Example
///
/// ```
/// use sodiff_core::ScenarioSpec;
///
/// let spec: ScenarioSpec =
///     "topology=torus2d:8:8 scheme=sos:1.9 mode=discrete rounding=randomized \
///      seed=7 stop=rounds:200"
///         .parse()
///         .unwrap();
/// let report = spec.run().unwrap();
/// assert_eq!(report.rounds, 200);
/// // Display round-trips exactly:
/// let again: ScenarioSpec = spec.to_string().parse().unwrap();
/// assert_eq!(again, spec);
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Scenario name used in reports. Serialized as one `key=value`
    /// token: whitespace and `=` are replaced with `_` by `Display`, so
    /// the printed form always re-parses.
    pub name: String,
    /// Network topology.
    pub topology: TopologySpec,
    /// Node speeds.
    pub speeds: SpeedsSpec,
    /// Diffusion scheme.
    pub scheme: SchemeSpec,
    /// Continuous or discrete execution (with rounding kind).
    pub mode: ModeSpec,
    /// RNG seed for randomized rounding kinds.
    pub seed: Option<u64>,
    /// Initial token placement.
    pub init: InitSpec,
    /// Stop condition.
    pub stop: StopCondition,
    /// Worker threads (a batch [`crate::Driver`] overrides this with its
    /// own pool size; results are thread-count independent).
    pub threads: usize,
    /// Deterministic fault injection ([`FaultSpec::none`] = clean run).
    pub faults: FaultSpec,
    /// Deterministic dynamic-load injection ([`LoadSpec::none`] = the
    /// static workload).
    pub load: LoadSpec,
    /// Deterministic live-topology churn ([`ChurnSpec::none`] = static
    /// membership).
    pub churn: ChurnSpec,
    /// Optional periodic checkpointing (`ckpt=every:N:DIR`): the engine
    /// snapshots the full simulation state to `DIR/<name>.ckpt` every
    /// `N` rounds, exactly resumable via [`crate::checkpoint`].
    pub ckpt: Option<CheckpointPolicy>,
    /// Optional SOS→FOS hybrid switch.
    pub hybrid: Option<SwitchPolicy>,
    /// 1-based line of the scenario file this spec came from, when
    /// parsed by [`ScenarioSpec::parse_many`]. Provenance only: ignored
    /// by `PartialEq` and not serialized by `Display`.
    pub source_line: Option<usize>,
}

// Manual impl: `source_line` is provenance, not configuration — two
// specs describing the same experiment compare equal regardless of
// which file line (if any) each was read from, keeping the documented
// `Display`/`FromStr` round-trip equality exact.
impl PartialEq for ScenarioSpec {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.topology == other.topology
            && self.speeds == other.speeds
            && self.scheme == other.scheme
            && self.mode == other.mode
            && self.seed == other.seed
            && self.init == other.init
            && self.stop == other.stop
            && self.threads == other.threads
            && self.faults == other.faults
            && self.load == other.load
            && self.churn == other.churn
            && self.ckpt == other.ckpt
            && self.hybrid == other.hybrid
    }
}

impl ScenarioSpec {
    /// A scenario on `topology` with every other key at its default.
    pub fn new(topology: TopologySpec) -> Self {
        Self {
            name: "scenario".to_string(),
            topology,
            speeds: SpeedsSpec::default(),
            scheme: SchemeSpec::default(),
            mode: ModeSpec::default(),
            seed: None,
            init: InitSpec::default(),
            stop: StopCondition::default(),
            threads: 1,
            faults: FaultSpec::none(),
            load: LoadSpec::none(),
            churn: ChurnSpec::none(),
            ckpt: None,
            hybrid: None,
            source_line: None,
        }
    }

    /// Checks that this spec's line — what a checkpoint header or a
    /// batch journal stores — parses back to the same spec. The name is
    /// left out of the comparison: `Display` replaces whitespace and `=`
    /// in it on purpose.
    ///
    /// # Errors
    ///
    /// Why the line does not read back: its parse error, or that it
    /// parses back to a different spec.
    pub(crate) fn check_reads_back(&self) -> Result<(), String> {
        let why = "the scenario line does not parse back";
        let parsed = self.to_string().parse::<Self>();
        let mut parsed = parsed.map_err(|e| format!("{why}: {}", e.message))?;
        parsed.name.clone_from(&self.name);
        if parsed == *self {
            Ok(())
        } else {
            Err(format!("{why} to the same spec"))
        }
    }

    /// The checkpoint sink of the scenario's `ckpt=` key (`None` when it
    /// has none): the key's policy, under the scenario's name, with the
    /// scenario's line embedded in every snapshot header.
    pub(crate) fn checkpoint_config(&self) -> Option<CheckpointConfig> {
        Some(CheckpointConfig {
            policy: self.ckpt.clone()?,
            name: self.name.clone(),
            spec_line: self.to_string(),
        })
    }

    /// Builds the scenario's graph instance.
    ///
    /// # Errors
    ///
    /// Wraps generator failures as [`BuildError::Graph`].
    pub fn build_graph(&self) -> Result<Graph, BuildError> {
        Ok(self.topology.build()?)
    }

    /// Assembles the experiment on an already-built graph (so callers can
    /// reuse one graph across many scenarios).
    ///
    /// # Errors
    ///
    /// Propagates every [`BuildError`] of the underlying
    /// [`crate::ExperimentBuilder`], plus speed/scheme resolution errors,
    /// [`BuildError::MissingSeed`] for a randomized rounding kind without
    /// `seed=`, and [`BuildError::InvalidCheckpoint`] when a `ckpt` policy is set
    /// and the scenario's line (name aside, which `Display` sanitizes)
    /// does not parse back to the same spec, e.g. for whitespace or
    /// non-UTF-8 bytes in the checkpoint directory.
    pub fn experiment_on<'g>(&self, graph: &'g Graph) -> Result<Experiment<'g>, BuildError> {
        let n = graph.node_count();
        if n == 0 {
            return Err(BuildError::EmptyGraph);
        }
        let speeds = self.speeds.build(n)?;
        let scheme = self.scheme.resolve(graph, &speeds)?;
        let mut builder = Experiment::on(graph)
            .scheme(scheme)
            .threads(self.threads)
            .init(self.init.resolve(n))
            .stop(self.stop)
            .faults(self.faults)
            .load(self.load)
            .churn(self.churn);
        if !matches!(self.speeds, SpeedsSpec::Uniform) {
            builder = builder.speeds(speeds);
        }
        if let Some(cfg) = self.checkpoint_config() {
            // Every checkpoint header embeds this scenario's line, so a
            // line that does not read back would make each file it
            // writes unreadable.
            self.check_reads_back()
                .map_err(BuildError::InvalidCheckpoint)?;
            builder = builder.checkpoint(cfg);
        }
        if let Some(policy) = self.hybrid {
            builder = builder.hybrid(policy);
        }
        match self.mode {
            ModeSpec::Continuous => builder.continuous(),
            ModeSpec::Discrete(spec) => builder.discrete(spec.seeded(self.seed)?),
        }
        .build()
    }

    /// Builds the graph and runs the scenario to completion.
    ///
    /// # Errors
    ///
    /// Propagates graph and experiment build errors.
    pub fn run(&self) -> Result<RunReport, BuildError> {
        let graph = self.build_graph()?;
        Ok(self.experiment_on(&graph)?.run())
    }

    /// Parses a scenario file: one spec per line, `#` comments and blank
    /// lines ignored.
    ///
    /// # Errors
    ///
    /// The returned [`ParseError`] carries the 1-based line number of the
    /// offending line.
    pub fn parse_many(text: &str) -> Result<Vec<ScenarioSpec>, ParseError> {
        let mut specs = Vec::new();
        for (idx, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut spec: ScenarioSpec =
                line.parse().map_err(|e: ParseError| e.at_line(idx + 1))?;
            spec.source_line = Some(idx + 1);
            specs.push(spec);
        }
        Ok(specs)
    }
}

/// Keeps `name=` a single parseable token: whitespace and `=` would
/// shear the `key=value` tokenization (or smuggle extra keys), so they
/// are replaced with `_`.
fn sanitize_name(name: &str) -> std::borrow::Cow<'_, str> {
    let breaks_token = |c: char| c.is_whitespace() || c == '=';
    if name.contains(breaks_token) {
        std::borrow::Cow::Owned(name.replace(breaks_token, "_"))
    } else {
        std::borrow::Cow::Borrowed(name)
    }
}

impl fmt::Display for ScenarioSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "name={} topology={}",
            sanitize_name(&self.name),
            self.topology
        )?;
        write!(f, " speeds={} scheme={}", self.speeds, self.scheme)?;
        match self.mode {
            ModeSpec::Continuous => write!(f, " mode=continuous")?,
            ModeSpec::Discrete(rounding) => write!(f, " mode=discrete rounding={rounding}")?,
        }
        if let Some(seed) = self.seed {
            write!(f, " seed={seed}")?;
        }
        write!(f, " init={} stop={}", self.init, self.stop)?;
        write!(f, " threads={}", self.threads)?;
        if !self.faults.is_none() {
            write!(f, " faults={}", self.faults)?;
        }
        if !self.load.is_none() {
            write!(f, " load={}", self.load)?;
        }
        if !self.churn.is_none() {
            write!(f, " churn={}", self.churn)?;
        }
        if let Some(ckpt) = &self.ckpt {
            write!(f, " ckpt={ckpt}")?;
        }
        if let Some(policy) = self.hybrid {
            write!(f, " hybrid={policy}")?;
        }
        Ok(())
    }
}

/// The scenario line's keys, in `Display` order, then the legacy
/// `flow_memory`, which `Display` never writes: the slots of
/// [`ScenarioSpec::from_str`]'s key table.
const KEYS: [&str; 16] = [
    "name",
    "topology",
    "speeds",
    "scheme",
    "mode",
    "rounding",
    "seed",
    "init",
    "stop",
    "threads",
    "faults",
    "load",
    "churn",
    "ckpt",
    "hybrid",
    "flow_memory",
];

/// Parses a key's value, or takes `default` when the key is absent.
fn value_or<T: FromStr<Err = ParseError>>(
    value: Option<&str>,
    default: impl FnOnce() -> T,
) -> Result<T, ParseError> {
    value.map_or_else(|| Ok(default()), str::parse)
}

impl FromStr for ScenarioSpec {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut table = [None; KEYS.len()];
        for token in s.split_whitespace() {
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| ParseError::new(format!("expected key=value, got '{token}'")))?;
            let slot = KEYS
                .iter()
                .position(|&k| k == key)
                .ok_or_else(|| ParseError::new(format!("unknown key '{key}'")))?;
            if table[slot].replace(value).is_some() {
                return Err(ParseError::new(format!("duplicate key '{key}'")));
            }
        }
        let [name, topology, speeds, scheme, mode, rounding, seed, init, stop, threads, faults, load, churn, ckpt, hybrid, flow_memory] =
            table;
        let topology =
            topology.ok_or_else(|| ParseError::new("missing required key 'topology'"))?;
        let spec = ScenarioSpec {
            name: name.unwrap_or("scenario").to_string(),
            topology: topology
                .parse()
                .map_err(|e| ParseError::new(format!("invalid topology '{topology}': {e}")))?,
            speeds: value_or(speeds, SpeedsSpec::default)?,
            scheme: value_or(scheme, SchemeSpec::default)?,
            mode: match (mode, rounding) {
                (Some("continuous"), None) => ModeSpec::Continuous,
                (Some("continuous"), Some(_)) => {
                    return Err(ParseError::new(
                        "rounding= is only valid with mode=discrete",
                    ))
                }
                (Some("discrete") | None, rounding) => {
                    ModeSpec::Discrete(value_or(rounding, RoundingSpec::default)?)
                }
                (Some(other), _) => {
                    return Err(ParseError::new(format!(
                        "unknown mode '{other}' (expected continuous or discrete)"
                    )))
                }
            },
            seed: seed
                .map(|v| {
                    v.parse()
                        .map_err(|_| ParseError::new(format!("invalid seed '{v}'")))
                })
                .transpose()?,
            init: value_or(init, InitSpec::default)?,
            stop: value_or(stop, StopCondition::default)?,
            threads: threads.map_or(Ok(1), |v| {
                v.parse()
                    .map_err(|_| ParseError::new(format!("invalid thread count '{v}'")))
            })?,
            faults: value_or(faults, FaultSpec::none)?,
            load: value_or(load, LoadSpec::none)?,
            churn: value_or(churn, ChurnSpec::none)?,
            ckpt: ckpt.map(str::parse).transpose()?,
            hybrid: hybrid.map(str::parse).transpose()?,
            source_line: None,
        };
        match flow_memory {
            None | Some("rounded") => Ok(spec),
            Some(other) => Err(ParseError::new(format!(
                "unsupported flow_memory '{other}': a discrete run remembers the flows it \
                 sent, and the key accepts only its legacy value 'rounded'"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_with_defaults() {
        let spec: ScenarioSpec = "topology=cycle:8".parse().unwrap();
        assert_eq!(spec.name, "scenario");
        assert_eq!(spec.topology, TopologySpec::Cycle { n: 8 });
        assert_eq!(spec.mode, ModeSpec::Discrete(RoundingSpec::Randomized));
        assert_eq!(spec.stop, StopCondition::MaxRounds(1000));
        assert_eq!(spec.threads, 1);
    }

    #[test]
    fn display_roundtrip_full() {
        let spec: ScenarioSpec = "name=hetero topology=torus2d:6:6 speeds=two_class:9:4 \
             scheme=sos:1.75 mode=discrete rounding=unbiased seed=3 init=point:0:36000 \
             stop=plateau:40:5000 threads=2 hybrid=local_diff:12.5"
            .parse()
            .unwrap();
        let text = spec.to_string();
        let again: ScenarioSpec = text.parse().unwrap();
        assert_eq!(again, spec);
        assert_eq!(again.to_string(), text);
    }

    #[test]
    fn parse_errors_carry_context() {
        for (text, needle) in [
            ("topology=cycle:8 bogus=1", "unknown key"),
            ("topology=cycle:8 topology=cycle:9", "duplicate key"),
            ("scheme=fos", "missing required key 'topology'"),
            ("topology=wat:3", "invalid topology"),
            (
                "topology=cycle:8 mode=continuous rounding=nearest",
                "only valid with mode=discrete",
            ),
            ("topology=cycle:8 stop=sometimes", "invalid stop condition"),
            ("topology=cycle:8 hybrid=at", "unknown hybrid policy"),
            ("topology=cycle:8 faults=crash", "in faults"),
            ("topology=cycle:8 faults=crash:2:1", "in faults"),
            (
                "topology=cycle:8 faults=none faults=none",
                "duplicate key 'faults'",
            ),
            ("topology=cycle:8 load=poisson", "in load"),
            ("topology=cycle:8 load=poisson:-1:2", "in load"),
            (
                "topology=cycle:8 load=none load=none",
                "duplicate key 'load'",
            ),
            (
                "topology=cycle:8 stop=steady:0",
                "steady window must be positive",
            ),
            (
                "topology=cycle:8 stop=horizon:0",
                "horizon must be positive",
            ),
        ] {
            let err = text.parse::<ScenarioSpec>().unwrap_err();
            assert!(
                err.message.contains(needle),
                "'{text}' -> '{}' (wanted '{needle}')",
                err.message
            );
        }
    }

    #[test]
    fn parse_many_skips_comments_and_numbers_lines() {
        let text = "# scenario file\n\nname=a topology=cycle:8\n   \nname=b topology=star:5\n";
        let specs = ScenarioSpec::parse_many(text).unwrap();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].name, "a");
        assert_eq!(specs[1].name, "b");
        let err = ScenarioSpec::parse_many("topology=cycle:8\nnope\n").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn faults_key_roundtrips_and_defaults_to_none() {
        let spec: ScenarioSpec = "topology=cycle:8".parse().unwrap();
        assert!(spec.faults.is_none());
        assert!(!spec.to_string().contains("faults="));

        let spec: ScenarioSpec =
            "topology=torus2d:8:8 scheme=sos:1.7 mode=discrete rounding=nearest \
             faults=crash:0.1:7+shock:0.05:9 stop=rounds:64"
                .parse()
                .unwrap();
        assert_eq!(
            spec.faults,
            FaultSpec::none().with_crash(0.1, 7).with_shock(0.05, 9)
        );
        let text = spec.to_string();
        assert!(text.contains("faults=crash:0.1:7+shock:0.05:9"), "{text}");
        let again: ScenarioSpec = text.parse().unwrap();
        assert_eq!(again, spec);
    }

    #[test]
    fn load_key_roundtrips_and_defaults_to_none() {
        let spec: ScenarioSpec = "topology=cycle:8".parse().unwrap();
        assert!(spec.load.is_none());
        assert!(!spec.to_string().contains("load="));

        let spec: ScenarioSpec =
            "topology=torus2d:8:8 scheme=sos:1.7 mode=discrete rounding=nearest \
             load=poisson:0.5:7+hotspot:0:100:16:3 stop=steady:32"
                .parse()
                .unwrap();
        assert_eq!(
            spec.load,
            LoadSpec::none()
                .with_poisson(0.5, 7)
                .with_hotspot(0, 100, 16, 3)
        );
        assert_eq!(spec.stop, StopCondition::Steady { window: 32 });
        let text = spec.to_string();
        assert!(
            text.contains("load=poisson:0.5:7+hotspot:0:100:16:3"),
            "{text}"
        );
        assert!(text.contains("stop=steady:32"), "{text}");
        let again: ScenarioSpec = text.parse().unwrap();
        assert_eq!(again, spec);
    }

    #[test]
    fn churn_key_roundtrips_and_defaults_to_none() {
        let spec: ScenarioSpec = "topology=cycle:8".parse().unwrap();
        assert!(spec.churn.is_none());
        assert!(!spec.to_string().contains("churn="));

        let spec: ScenarioSpec =
            "topology=torus2d:8:8 scheme=sos:1.7 mode=discrete rounding=nearest \
             churn=flux:0.1:0.4:9:50 stop=rounds:64"
                .parse()
                .unwrap();
        assert_eq!(
            spec.churn,
            ChurnSpec::none().with_flux(0.1, 0.4, 9).with_initial(50.0)
        );
        let text = spec.to_string();
        assert!(text.contains("churn=flux:0.1:0.4:9:50"), "{text}");
        let again: ScenarioSpec = text.parse().unwrap();
        assert_eq!(again, spec);

        // The optional initial-load field is omitted when zero.
        let spec: ScenarioSpec = "topology=cycle:8 churn=flux:0.05:0.5:3".parse().unwrap();
        assert!(spec.to_string().ends_with("churn=flux:0.05:0.5:3"));

        for (text, needle) in [
            ("topology=cycle:8 churn=flux", "in churn"),
            ("topology=cycle:8 churn=flux:2:0.5:1", "in churn"),
            ("topology=cycle:8 churn=storm:0.1:0.1:1", "unknown churn"),
            (
                "topology=cycle:8 churn=none churn=none",
                "duplicate key 'churn'",
            ),
        ] {
            let err = text.parse::<ScenarioSpec>().unwrap_err();
            assert!(
                err.message.contains(needle),
                "'{text}' -> '{}' (wanted '{needle}')",
                err.message
            );
        }
    }

    #[test]
    fn source_line_is_provenance_not_identity() {
        let text = "# file\nname=a topology=cycle:8\n\nname=b topology=star:5\n";
        let specs = ScenarioSpec::parse_many(text).unwrap();
        assert_eq!(specs[0].source_line, Some(2));
        assert_eq!(specs[1].source_line, Some(4));
        // Equality ignores provenance; Display does not serialize it.
        let reparsed: ScenarioSpec = specs[0].to_string().parse().unwrap();
        assert_eq!(reparsed.source_line, None);
        assert_eq!(reparsed, specs[0]);
    }

    #[test]
    fn display_sanitizes_hostile_names() {
        let mut spec = ScenarioSpec::new(TopologySpec::Cycle { n: 8 });
        spec.name = "fig 1 topology=star:3".into();
        let text = spec.to_string();
        let reparsed: ScenarioSpec = text.parse().unwrap();
        assert_eq!(reparsed.name, "fig_1_topology_star:3");
        assert_eq!(reparsed.topology, TopologySpec::Cycle { n: 8 });
    }

    #[test]
    fn missing_seed_surfaces_at_build_not_parse() {
        let spec: ScenarioSpec = "topology=cycle:8 mode=discrete rounding=randomized"
            .parse()
            .unwrap();
        let g = spec.build_graph().unwrap();
        let err = spec.experiment_on(&g).unwrap_err();
        assert!(matches!(err, BuildError::MissingSeed(_)));
    }

    #[test]
    fn sos_opt_resolves_beta_from_spectrum() {
        let spec: ScenarioSpec = "topology=torus2d:8:8 scheme=sos_opt mode=continuous"
            .parse()
            .unwrap();
        let g = spec.build_graph().unwrap();
        let exp = spec.experiment_on(&g).unwrap();
        let expected = sodiff_linalg::spectral::analyze(&g, &Speeds::uniform(64)).beta_opt();
        assert_eq!(exp.scheme(), Scheme::Sos { beta: expected });
    }

    #[test]
    fn scenario_run_executes() {
        let spec: ScenarioSpec =
            "topology=complete:16 mode=discrete rounding=nearest init=point:0:1600 stop=rounds:20"
                .parse()
                .unwrap();
        let report = spec.run().unwrap();
        assert_eq!(report.rounds, 20);
        assert!(report.final_metrics.max_minus_avg <= 2.0);
    }
}
