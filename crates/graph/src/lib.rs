//! Graph substrate for the `sodiff` workspace.
//!
//! This crate provides everything the diffusion load-balancing simulator
//! needs from a graph library, implemented from scratch:
//!
//! * a compact immutable [`Graph`] in compressed-sparse-row (CSR) form
//!   whose canonical undirected edges `(u, v)`, `u < v`, each have a
//!   stable [`EdgeId`] and are stored once, as the head `v` in the
//!   out-range of the tail `u`,
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
//! Every generator ends in one assembly routine. The generators whose
//! edges come out in order (torus, hypercube, cycle, path, complete,
//! star, grid) push each node's heads straight into the CSR's head
//! array. The others hand a canonical `(u, v)` list to a counting sort
//! by tail (skipped for a list already in order), which writes the same
//! head array and drops repeated pairs only for the configuration model
//! and the random geometric graph's patch step. The in-arc arrays are
//! then filled in one pass (`builder.rs` documents its cost and memory).
//! The generators once went through [`GraphBuilder`], which hashed
//! every edge into a set and then sorted all `m` edges, about three
//! times slower on the 256² torus; the builder keeps its hash set, for
//! hand-built graphs only, to report duplicates at insertion.
//!
//! Build time per generator call, minimum of 15 calls in one process,
//! best of three alternating processes per side, release profile, on a
//! shared 2-vCPU Intel Xeon virtual machine. "Pair list" is the assembly
//! that kept the sorted `(u, v)` list as the CSR's edge array; "heads"
//! is this one, which keeps only the heads:
//!
//! | generator                 |       m | pair list |    heads |
//! |---------------------------|--------:|----------:|---------:|
//! | `torus2d(256, 256)`       | 131,072 |   0.96 ms |  1.02 ms |
//! | `torus2d(64, 64)`         |   8,192 |   0.06 ms |  0.03 ms |
//! | `hypercube(12)`           |  24,576 |   0.35 ms |  0.32 ms |
//! | `grid2d(256, 256)`        | 130,560 |   0.76 ms |  0.83 ms |
//! | `complete(1000)`          | 499,500 |   4.11 ms |  3.19 ms |
//! | `erdos_renyi(4096, .002)` |  16,662 |   0.57 ms |  0.53 ms |
//! | `random_regular(640, 6)`  |   1,912 |   0.16 ms |  0.15 ms |
//! | `random_graph_cm(640)`    |   2,862 |   0.27 ms |  0.26 ms |
//! | `rgg_paper(512)`          |  24,962 |   1.07 ms |  1.06 ms |
//!
//! A first build in a fresh process also pays the kernel's page faults
//! on every newly touched page: the 256² torus takes about 390 minor
//! faults (the finished CSR arrays, with no pair list), where the pair
//! list assembly took about 520 and the hashed builder about 1,800, and
//! most of its first-build time is those faults.

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
pub use csr::{ActiveSet, EdgeId, Edges, Graph, GraphKind, NodeId, Tails};
pub use error::GraphError;
pub use matching::EdgeColoring;
pub use speeds::Speeds;
pub use topology::TopologySpec;
pub use unionfind::UnionFind;
