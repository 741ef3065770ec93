//! Typed errors for the experiment API.
//!
//! Every invalid configuration is reported as a [`BuildError`] by the
//! one validation point, [`crate::ExperimentBuilder::build`], and by the
//! scenario [`crate::Driver`]; text-format problems in scenario files
//! surface as [`ParseError`].

use std::error::Error;
use std::fmt;

use sodiff_graph::GraphError;

/// A scenario text could not be parsed.
///
/// Produced by `ScenarioSpec::from_str` and [`crate::ScenarioSpec::parse_many`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number within the parsed text (1 for single-line
    /// parses).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl ParseError {
    /// Creates a parse error for line 1.
    pub(crate) fn new(message: impl Into<String>) -> Self {
        Self {
            line: 1,
            message: message.into(),
        }
    }

    /// Returns the error re-anchored at `line`.
    pub(crate) fn at_line(mut self, line: usize) -> Self {
        self.line = line;
        self
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario line {}: {}", self.line, self.message)
    }
}

impl Error for ParseError {}

/// An experiment configuration was invalid.
///
/// This is the workspace-wide typed error of the experiment API: every
/// path that used to panic (bad `β`, mismatched speeds length, zero-node
/// graphs, randomized rounding without a seed, out-of-range initial loads,
/// zero worker threads) returns one of these variants instead.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BuildError {
    /// The graph has no nodes.
    EmptyGraph,
    /// The SOS relaxation parameter is outside the convergence range
    /// `(0, 2)`.
    InvalidBeta(f64),
    /// The pairwise exchange gain `λ` of a dimension-exchange or
    /// matching-based scheme is outside `(0, 1]`.
    InvalidLambda(f64),
    /// Dimension exchange needs an edge coloring to sweep, but the graph
    /// has none (no edges).
    NoColoring(String),
    /// Matching-based balancing needs at least one matching, but the
    /// graph has none (no edges).
    NoMatching(String),
    /// The SOS→FOS hybrid switch only applies to diffusion schemes;
    /// carries the offending scheme's display form.
    HybridRequiresDiffusion(String),
    /// The SOS→FOS switch policy is degenerate (a NaN threshold, which
    /// could never fire).
    InvalidHybrid(String),
    /// The speeds vector length does not match the graph's node count.
    SpeedsLengthMismatch {
        /// Node count of the graph.
        expected: usize,
        /// Length of the provided speeds vector.
        got: usize,
    },
    /// A speeds specification carried invalid values (speeds below 1,
    /// non-finite values, a negative skew exponent, or a fast-node count
    /// exceeding `n`), or the speeds sum to a non-finite total.
    InvalidSpeeds(String),
    /// A randomized rounding scheme was selected without an RNG seed.
    MissingSeed(&'static str),
    /// The executor was configured with zero worker threads.
    ZeroThreads,
    /// The initial load references nodes outside the graph, carries a
    /// negative total or one that overflows `i64`, or has the wrong
    /// length.
    InvalidInitialLoad(String),
    /// The stop condition is degenerate (zero plateau window or a
    /// non-finite threshold).
    InvalidStopCondition(String),
    /// A fault-injection plan carried an out-of-range probability or
    /// rate (each must be a finite value in `[0, 1]`).
    InvalidFaults(String),
    /// A dynamic-load plan carried an out-of-range parameter (negative
    /// or non-finite rate/amplitude, zero period, …).
    InvalidLoad(String),
    /// A live-topology churn plan carried an out-of-range parameter
    /// (probability outside `[0, 1]`, negative or non-finite initial
    /// load).
    InvalidChurn(String),
    /// The operation needs a discrete-mode experiment.
    RequiresDiscrete(&'static str),
    /// Building the topology failed.
    Graph(GraphError),
    /// Parsing a scenario failed.
    Parse(ParseError),
    /// An error in one scenario of a batch, tagged with its name.
    Scenario {
        /// `name=` of the failing scenario.
        name: String,
        /// The underlying error.
        source: Box<BuildError>,
    },
    /// The checkpoint policy is degenerate (zero interval, empty
    /// directory).
    InvalidCheckpoint(String),
    /// Restoring from a checkpoint snapshot failed.
    Checkpoint(Box<CheckpointError>),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::EmptyGraph => write!(f, "graph has no nodes"),
            BuildError::InvalidBeta(beta) => {
                write!(f, "SOS requires beta in (0, 2), got {beta}")
            }
            BuildError::InvalidLambda(lambda) => write!(
                f,
                "pairwise exchange requires lambda in (0, 1], got {lambda}"
            ),
            BuildError::NoColoring(msg) => {
                write!(f, "dimension exchange needs an edge coloring: {msg}")
            }
            BuildError::NoMatching(msg) => {
                write!(f, "matching-based balancing needs a matching: {msg}")
            }
            BuildError::HybridRequiresDiffusion(scheme) => write!(
                f,
                "the SOS→FOS hybrid switch requires a diffusion scheme (FOS/SOS), got {scheme}"
            ),
            BuildError::InvalidHybrid(msg) => write!(f, "invalid hybrid policy: {msg}"),
            BuildError::SpeedsLengthMismatch { expected, got } => write!(
                f,
                "speeds length must match node count: graph has {expected} nodes, \
                 speeds has {got}"
            ),
            BuildError::InvalidSpeeds(msg) => write!(f, "invalid speeds: {msg}"),
            BuildError::MissingSeed(what) => write!(
                f,
                "{what} rounding needs an RNG seed (set seed= in the scenario text, or in code \
                 use RoundingSpec::seeded(Some(seed)) or a seeded constructor such as \
                 Rounding::randomized(seed))"
            ),
            BuildError::ZeroThreads => write!(f, "thread count must be positive"),
            BuildError::InvalidInitialLoad(msg) => write!(f, "invalid initial load: {msg}"),
            BuildError::InvalidStopCondition(msg) => write!(f, "invalid stop condition: {msg}"),
            BuildError::InvalidFaults(msg) => write!(f, "invalid fault plan: {msg}"),
            BuildError::InvalidLoad(msg) => write!(f, "invalid load plan: {msg}"),
            BuildError::InvalidChurn(msg) => write!(f, "invalid churn plan: {msg}"),
            BuildError::RequiresDiscrete(what) => {
                write!(f, "{what} requires a discrete-mode experiment")
            }
            BuildError::Graph(e) => write!(f, "{e}"),
            BuildError::Parse(e) => write!(f, "{e}"),
            BuildError::Scenario { name, source } => {
                write!(f, "scenario '{name}': {source}")
            }
            BuildError::InvalidCheckpoint(msg) => write!(f, "invalid checkpoint policy: {msg}"),
            BuildError::Checkpoint(e) => write!(f, "{e}"),
        }
    }
}

impl Error for BuildError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BuildError::Graph(e) => Some(e),
            BuildError::Parse(e) => Some(e),
            BuildError::Scenario { source, .. } => Some(source),
            BuildError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for BuildError {
    fn from(e: GraphError) -> Self {
        BuildError::Graph(e)
    }
}

impl From<ParseError> for BuildError {
    fn from(e: ParseError) -> Self {
        BuildError::Parse(e)
    }
}

impl From<CheckpointError> for BuildError {
    fn from(e: CheckpointError) -> Self {
        BuildError::Checkpoint(Box::new(e))
    }
}

/// A checkpoint file or recovery journal could not be used.
///
/// Produced by the persistence layer in [`crate::checkpoint`] and by
/// [`crate::Driver::resume_batch`]. Loading a snapshot **never panics**:
/// truncation, corruption, and version skew all come back as one of
/// these variants.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// Reading or writing the file failed; carries the path and the OS
    /// error rendered to text (so the error stays `Clone`).
    Io {
        /// The file that could not be read or written.
        path: std::path::PathBuf,
        /// The rendered `std::io::Error`.
        message: String,
    },
    /// The file does not start with the checkpoint magic bytes.
    BadMagic,
    /// The file was written by an unknown format version.
    UnsupportedVersion {
        /// The version tag found in the header.
        found: u32,
    },
    /// The file ends before the encoded snapshot does.
    Truncated,
    /// The trailing FNV-1a checksum does not match the file contents
    /// (bit corruption).
    ChecksumMismatch {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum recomputed over the file contents.
        computed: u64,
    },
    /// The scenario line embedded in the header does not parse.
    Spec(ParseError),
    /// The snapshot does not fit the simulation it is being restored
    /// into (node/edge count, mode, or initial-total mismatch), or a
    /// decoded file carries run-loop tracker state that no run could
    /// have produced.
    Mismatch(String),
    /// A recovery journal line is malformed; `line` is 1-based.
    Journal {
        /// 1-based line number within the journal file.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// Rebuilding the experiment from the embedded scenario failed.
    Build(Box<BuildError>),
}

impl CheckpointError {
    /// An [`CheckpointError::Io`] from a path and an `io::Error`.
    pub(crate) fn io(path: &std::path::Path, e: std::io::Error) -> Self {
        CheckpointError::Io {
            path: path.to_path_buf(),
            message: e.to_string(),
        }
    }
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, message } => {
                write!(f, "checkpoint I/O on {}: {message}", path.display())
            }
            CheckpointError::BadMagic => write!(f, "not a sodiff checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion { found } => {
                write!(f, "unsupported checkpoint format version {found}")
            }
            CheckpointError::Truncated => write!(f, "checkpoint file is truncated"),
            CheckpointError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            CheckpointError::Spec(e) => write!(f, "checkpoint header: {e}"),
            CheckpointError::Mismatch(msg) => {
                write!(f, "snapshot does not fit this simulation: {msg}")
            }
            CheckpointError::Journal { line, message } => {
                write!(f, "journal line {line}: {message}")
            }
            CheckpointError::Build(e) => write!(f, "rebuilding checkpointed scenario: {e}"),
        }
    }
}

impl Error for CheckpointError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CheckpointError::Spec(e) => Some(e),
            CheckpointError::Build(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseError> for CheckpointError {
    fn from(e: ParseError) -> Self {
        CheckpointError::Spec(e)
    }
}

impl From<BuildError> for CheckpointError {
    fn from(e: BuildError) -> Self {
        CheckpointError::Build(Box::new(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(BuildError::InvalidBeta(2.5).to_string().contains("(0, 2)"));
        assert!(BuildError::SpeedsLengthMismatch {
            expected: 8,
            got: 5
        }
        .to_string()
        .contains("speeds length must match node count"));
        assert_eq!(
            BuildError::ZeroThreads.to_string(),
            "thread count must be positive"
        );
        assert!(
            BuildError::InvalidFaults("crash probability 2 outside [0, 1]".into())
                .to_string()
                .contains("invalid fault plan")
        );
        let nested = BuildError::Scenario {
            name: "fig1".into(),
            source: Box::new(BuildError::EmptyGraph),
        };
        assert!(nested.to_string().contains("fig1"));
        assert!(nested.to_string().contains("no nodes"));
    }

    /// The message names only ways to supply a seed that exist.
    #[test]
    fn missing_seed_names_existing_seed_sources() {
        assert_eq!(
            BuildError::MissingSeed("randomized").to_string(),
            "randomized rounding needs an RNG seed (set seed= in the scenario text, or in \
             code use RoundingSpec::seeded(Some(seed)) or a seeded constructor such as \
             Rounding::randomized(seed))"
        );
    }

    #[test]
    fn conversions_wrap() {
        let g: BuildError = GraphError::SelfLoop(3).into();
        assert!(matches!(g, BuildError::Graph(_)));
        let p: BuildError = ParseError::new("bad key").into();
        assert!(p.to_string().contains("line 1"));
    }
}
