//! Graph substrate for the `sodiff` workspace.
//!
//! This crate provides everything the diffusion load-balancing simulator
//! needs from a graph library, implemented from scratch:
//!
//! * a compact immutable [`Graph`] in compressed-sparse-row (CSR) form with
//!   a canonical undirected edge list (every edge `{u, v}` is stored once
//!   with `u < v` and has a stable [`EdgeId`]),
//! * a mutable [`GraphBuilder`] for assembling graphs edge by edge,
//! * the network generators used in the paper's evaluation
//!   ([`generators::torus2d`], [`generators::hypercube`],
//!   [`generators::random_regular`] via the configuration model,
//!   [`generators::random_geometric`]) plus classic topologies
//!   (cycle, path, grid, complete, star, Erdős–Rényi),
//! * traversal utilities: BFS, connected components, diameter, and a
//!   union-find used to patch random geometric graphs into one component,
//! * edge colorings and maximal matchings ([`matching`]) — the pairwise
//!   communication schedules behind dimension-exchange and matching-based
//!   balancing, exact for tori/hypercubes and greedy elsewhere,
//! * a declarative, serializable [`TopologySpec`] (`"torus2d:16:16"` …)
//!   that builds any of the generators fallibly — the topology half of the
//!   workspace's scenario files.
//!
//! Node identifiers are dense `u32` indices (`0..n`), which keeps the
//! million-node paper-scale graphs comfortably in memory.
//!
//! # Example
//!
//! ```
//! use sodiff_graph::generators;
//!
//! let g = generators::torus2d(16, 16);
//! assert_eq!(g.node_count(), 256);
//! assert_eq!(g.edge_count(), 2 * 256); // each node has degree 4
//! assert!(g.is_connected());
//! assert_eq!(g.max_degree(), 4);
//! ```
//!
//! # Performance
//!
//! Every generator hands its canonical `(u, v)` edge list to one
//! assembly routine, which counting-sorts it by tail (skipping the sort
//! for a list already in order), drops repeated pairs only for the
//! configuration model and the random geometric graph's patch step, and
//! fills the CSR arrays in one pass (`builder.rs` documents its cost
//! and memory). The table compares it with the generators' former path
//! through [`GraphBuilder`], which hashed every edge into a set and then
//! sorted all `m` edges; the builder keeps its hash set, for hand-built
//! graphs only, to report duplicates at insertion. Build time per
//! generator call, minimum of 15 calls in one process, best of three
//! alternating processes per side, release profile, on a shared 2-vCPU
//! Intel Xeon virtual machine:
//!
//! | generator                 |       m | hashed builder | assembly |
//! |---------------------------|--------:|---------------:|---------:|
//! | `torus2d(256, 256)`       | 131,072 |       11.12 ms |  3.56 ms |
//! | `torus2d(64, 64)`         |   8,192 |        0.41 ms |  0.12 ms |
//! | `hypercube(12)`           |  24,576 |        0.92 ms |  0.61 ms |
//! | `grid2d(256, 256)`        | 130,560 |        7.07 ms |  1.38 ms |
//! | `complete(1000)`          | 499,500 |       47.6 ms  | 13.7 ms  |
//! | `erdos_renyi(4096, .002)` |  16,662 |        2.82 ms |  0.68 ms |
//! | `random_regular(640, 6)`  |   1,912 |        0.44 ms |  0.19 ms |
//! | `random_graph_cm(640)`    |   2,862 |        0.66 ms |  0.30 ms |
//! | `rgg_paper(512)`          |  24,962 |        2.44 ms |  1.21 ms |
//!
//! A first build in a fresh process also pays the kernel's page faults
//! on every newly touched page: the 256² torus touches about 970 pages
//! (the edge list and the finished CSR arrays) where the hashed builder
//! touched about 1,800, and most of its first-build time is those
//! faults.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod csr;
mod error;
pub mod generators;
pub mod matching;
mod speeds;
mod topology;
pub mod traversal;
mod unionfind;

pub use builder::GraphBuilder;
pub use csr::{ActiveSet, EdgeId, Graph, GraphKind, NodeId};
pub use error::GraphError;
pub use matching::EdgeColoring;
pub use speeds::Speeds;
pub use topology::TopologySpec;
pub use unionfind::UnionFind;
