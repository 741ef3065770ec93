//! # sodiff — discrete diffusion load balancing
//!
//! Umbrella crate for the `sodiff` workspace, a from-scratch Rust
//! reproduction of *Akbari, Berenbrink, Elsässer, Kaaser: "Discrete Load
//! Balancing in Heterogeneous Networks with a Focus on Second-Order
//! Diffusion"* (ICDCS 2015).
//!
//! It re-exports the library layers:
//!
//! * [`graph`] — CSR graphs, the paper's network generators, and the
//!   declarative [`TopologySpec`],
//! * [`linalg`] — eigensolvers and spectral analysis of diffusion matrices,
//! * [`core`] — the diffusion schemes (FOS/SOS, continuous and discrete),
//!   the randomized rounding framework, hybrid switching, metrics, and the
//!   theory-bound calculators,
//! * [`viz`] — PGM/PPM rendering of torus load wavefronts,
//!
//! plus the unified experiment API at the crate root: the typestate
//! [`Experiment`] builder, text-serializable [`ScenarioSpec`]s, and the
//! batch [`Driver`] that executes scenario files over one persistent
//! worker pool — with exact checkpoint/resume ([`core::checkpoint`]),
//! durable recovery journals, and bounded retries for crashed scenarios.
//!
//! # Quickstart
//!
//! ```
//! use sodiff::prelude::*;
//! use sodiff::graph::generators;
//!
//! // A 16x16 torus with all load initially on node 0 (the paper default).
//! let graph = generators::torus2d(16, 16);
//! let spectrum = sodiff::linalg::spectral::analyze(&graph, &Speeds::uniform(graph.node_count()));
//!
//! let report = Experiment::on(&graph)
//!     .discrete(Rounding::randomized(42))
//!     .sos(spectrum.beta_opt())
//!     .stop(StopCondition::MaxRounds(400))
//!     .build()
//!     .expect("valid experiment")
//!     .run();
//! assert!(report.final_metrics.max_minus_avg < 20.0);
//! ```
//!
//! The same experiment as data, through the batch driver:
//!
//! ```
//! use sodiff::{Driver, ScenarioSpec};
//!
//! let specs = ScenarioSpec::parse_many(
//!     "name=quickstart topology=torus2d:16:16 scheme=sos_opt seed=42 stop=rounds:400",
//! )
//! .unwrap();
//! let batch = Driver::new().run_batch(&specs);
//! assert!(batch.errors.is_empty());
//! assert!(batch.scenarios[0].report.final_metrics.max_minus_avg < 20.0);
//! ```

pub use sodiff_core as core;
pub use sodiff_graph as graph;
pub use sodiff_linalg as linalg;
pub use sodiff_viz as viz;

pub use sodiff_core::{
    read_checkpoint, write_checkpoint, BatchReport, BuildError, Checkpoint, CheckpointConfig,
    CheckpointError, CheckpointPolicy, Driver, Experiment, ExperimentBuilder, FaultChannel,
    FaultEvents, FaultSpec, InitSpec, InitialLoad, MatchingStrategy, MetricsSnapshot, Mode,
    ModeSpec, ParseError, Rounding, RoundingSpec, RunReport, ScenarioError, ScenarioFailure,
    ScenarioReport, ScenarioSpec, Scheme, SchemeSpec, Snapshot, SpeedsSpec, StopCondition,
    StopReason, SwitchPolicy,
};
pub use sodiff_graph::{Speeds, TopologySpec};

/// Convenient glob import: `use sodiff::prelude::*;` (re-exports
/// [`sodiff_core::prelude`]).
pub mod prelude {
    pub use sodiff_core::prelude::*;
}
