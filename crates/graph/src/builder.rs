//! Graph assembly: the [`GraphBuilder`] for hand-built graphs and the
//! crate-internal [`assemble`] routine every generator and the builder
//! finish with.
//!
//! # Cost of an assembly
//!
//! [`assemble`] takes canonical `(u, v)` pairs (`u < v`) in any order
//! and runs in `O(n + m)` time plus the sort of each node's bucket of
//! higher-numbered neighbors (`O(m log Δ)` at worst, linear for the
//! short, mostly ordered buckets the generators emit): a counting sort
//! by tail, a per-bucket sort by head, then the CSR fill of
//! [`Graph::from_sorted_edges`]. A list that is already in `(u, v)`
//! order with no repeat, as the torus, hypercube, path, star, complete
//! and grid generators emit it, skips the sort after one scan. There is
//! no hashing and no comparison sort over all `m` edges.
//!
//! Repeated pairs are dropped only where a generator asks for it
//! ([`Repeats::Drop`]: the configuration model, whose stub pairing makes
//! parallel edges, and the random geometric graph's component patch
//! step); everywhere else the edges are distinct by construction and a
//! repeat is a bug, which debug builds assert.
//!
//! Besides the input list and the finished graph (`8·(n + 1) + 18·m`
//! bytes), an assembly holds a 4-byte head per edge and one `n`-entry
//! `usize` array at a time. [`GraphBuilder`] additionally keeps a hash
//! set of its edges (about 18 bytes per edge at typical load) so that it
//! can report a duplicate at insertion; it drops the set before it
//! assembles.

use std::collections::HashSet;

use crate::csr::{Graph, GraphKind, NodeId};
use crate::error::GraphError;

/// Whether the edge list handed to [`assemble`] may repeat a pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Repeats {
    /// Every pair is distinct; debug builds assert it.
    Absent,
    /// Repeated pairs are dropped: one copy of each is kept.
    Drop,
}

/// Assembles the graph on `node_count` nodes with the given canonical
/// edges (`u < v < node_count`, any order). Edge ids follow `(u, v)`
/// order, so the result depends on the edge set alone.
pub(crate) fn assemble(
    node_count: usize,
    mut edges: Vec<(NodeId, NodeId)>,
    repeats: Repeats,
    kind: GraphKind,
) -> Graph {
    sort_edges(node_count, &mut edges, repeats);
    Graph::from_sorted_edges(node_count, edges, kind)
}

/// Sorts canonical edges (`u < v < node_count`) into `(u, v)` order in
/// place, dropping repeated pairs under [`Repeats::Drop`].
///
/// A list already in strictly ascending order is left as it is.
/// Otherwise a counting sort scatters the heads into one bucket per
/// tail; each bucket is then sorted by head and written back behind its
/// tail.
pub(crate) fn sort_edges(node_count: usize, edges: &mut Vec<(NodeId, NodeId)>, repeats: Repeats) {
    if edges.is_sorted_by(|a, b| a < b) {
        return;
    }
    // `bucket_end[u]` first counts u's edges one slot to the right; after
    // the prefix sum it is where u's bucket starts, and after the scatter
    // (which advances it past each head it places) where the bucket ends.
    let mut bucket_end = vec![0usize; node_count + 1];
    for &(u, v) in edges.iter() {
        debug_assert!(
            u < v && (v as usize) < node_count,
            "edge ({u}, {v}) is not canonical on {node_count} nodes"
        );
        bucket_end[u as usize + 1] += 1;
    }
    for u in 0..node_count {
        bucket_end[u + 1] += bucket_end[u];
    }
    let mut heads = vec![0 as NodeId; edges.len()];
    for &(u, v) in edges.iter() {
        heads[bucket_end[u as usize]] = v;
        bucket_end[u as usize] += 1;
    }
    edges.clear();
    let mut start = 0;
    for (u, &end) in bucket_end[..node_count].iter().enumerate() {
        let bucket = &mut heads[start..end];
        start = end;
        bucket.sort_unstable();
        let mut prev = None;
        for &v in bucket.iter() {
            if prev == Some(v) {
                debug_assert_eq!(repeats, Repeats::Drop, "repeated edge ({u}, {v})");
                continue;
            }
            prev = Some(v);
            edges.push((u as NodeId, v));
        }
    }
}

/// Incremental builder for an undirected [`Graph`].
///
/// Edges may be added in any order and with either endpoint order; they are
/// canonicalized to `u < v`. Self-loops and duplicates are rejected.
///
/// # Example
///
/// ```
/// use sodiff_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(4);
/// b.add_edge(0, 1).unwrap();
/// b.add_edge(3, 1).unwrap();
/// let g = b.build();
/// assert_eq!(g.edge_count(), 2);
/// assert_eq!(g.edge(1), (1, 3)); // canonicalized
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    node_count: usize,
    edges: Vec<(NodeId, NodeId)>,
    seen: HashSet<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `node_count` nodes (ids `0..n`).
    pub fn new(node_count: usize) -> Self {
        Self {
            node_count,
            edges: Vec::new(),
            seen: HashSet::new(),
        }
    }

    /// Number of nodes this builder was created with.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds the undirected edge `{u, v}`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`], [`GraphError::SelfLoop`], or
    /// [`GraphError::DuplicateEdge`] when the edge is invalid.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        for node in [u, v] {
            if node as usize >= self.node_count {
                return Err(GraphError::NodeOutOfRange {
                    node,
                    node_count: self.node_count,
                });
            }
        }
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        let key = if u < v { (u, v) } else { (v, u) };
        if !self.seen.insert(key) {
            return Err(GraphError::DuplicateEdge(key.0, key.1));
        }
        self.edges.push(key);
        Ok(())
    }

    /// Adds `{u, v}` if it is not a self-loop or duplicate; returns whether
    /// the edge was inserted.
    ///
    /// # Panics
    ///
    /// Panics if a node id is out of range (that is a programming error in
    /// generator code, not a data condition).
    pub fn add_edge_dedup(&mut self, u: NodeId, v: NodeId) -> bool {
        match self.add_edge(u, v) {
            Ok(()) => true,
            Err(GraphError::SelfLoop(_)) | Err(GraphError::DuplicateEdge(..)) => false,
            Err(e) => panic!("add_edge_dedup: {e}"),
        }
    }

    /// Finalizes the builder into an immutable CSR [`Graph`].
    ///
    /// Edge ids follow `(u, v)` order, so the same edge set always yields
    /// the same graph regardless of insertion order.
    pub fn build(self) -> Graph {
        let Self {
            node_count,
            edges,
            seen,
        } = self;
        drop(seen);
        assemble(node_count, edges, Repeats::Absent, GraphKind::Generic)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_self_loop() {
        let mut b = GraphBuilder::new(2);
        assert_eq!(b.add_edge(1, 1), Err(GraphError::SelfLoop(1)));
    }

    #[test]
    fn rejects_duplicate_in_both_orders() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 2).unwrap();
        assert_eq!(b.add_edge(2, 0), Err(GraphError::DuplicateEdge(0, 2)));
        assert_eq!(b.add_edge(0, 2), Err(GraphError::DuplicateEdge(0, 2)));
    }

    #[test]
    fn rejects_out_of_range() {
        let mut b = GraphBuilder::new(2);
        assert!(matches!(
            b.add_edge(0, 5),
            Err(GraphError::NodeOutOfRange { node: 5, .. })
        ));
    }

    #[test]
    fn dedup_insert_reports_insertion() {
        let mut b = GraphBuilder::new(3);
        assert!(b.add_edge_dedup(0, 1));
        assert!(!b.add_edge_dedup(1, 0));
        assert!(!b.add_edge_dedup(2, 2));
        assert_eq!(b.edge_count(), 1);
    }

    #[test]
    fn build_is_insertion_order_independent() {
        let mut b1 = GraphBuilder::new(4);
        b1.add_edge(0, 1).unwrap();
        b1.add_edge(2, 3).unwrap();
        b1.add_edge(1, 2).unwrap();
        let mut b2 = GraphBuilder::new(4);
        b2.add_edge(2, 1).unwrap();
        b2.add_edge(3, 2).unwrap();
        b2.add_edge(1, 0).unwrap();
        assert_eq!(b1.build(), b2.build());
    }

    #[test]
    fn empty_graph_builds() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
    }

    /// Edge lists over up to 40 nodes that repeat pairs in both
    /// orientations and contain self-loops.
    fn edge_lists_with_repeats() -> impl proptest::Strategy<Value = (usize, Vec<(NodeId, NodeId)>)>
    {
        use proptest::collection::vec;
        use proptest::prelude::*;
        (1usize..=40).prop_flat_map(|n| {
            let pairs = vec((0..n as NodeId, 0..n as NodeId), 0..80);
            (Just(n), pairs).prop_map(|(n, pairs)| {
                let mut edges = pairs.clone();
                edges.extend(pairs.iter().map(|&(u, v)| (v, u)));
                edges.extend(pairs.iter().step_by(3));
                (n, edges)
            })
        })
    }

    proptest::proptest! {
        /// The generators' path (canonical pairs, repeats dropped by the
        /// assembly) builds exactly the graph the public builder builds
        /// from the same list with `add_edge_dedup`.
        #[test]
        fn generator_path_equals_the_builder((n, edges) in edge_lists_with_repeats()) {
            let mut b = GraphBuilder::new(n);
            for &(u, v) in &edges {
                b.add_edge_dedup(u, v);
            }
            let built = b.build();
            let canonical: Vec<_> = edges
                .iter()
                .filter(|&&(u, v)| u != v)
                .map(|&(u, v)| (u.min(v), u.max(v)))
                .collect();
            let assembled = assemble(n, canonical, Repeats::Drop, GraphKind::Generic);
            proptest::prop_assert_eq!(&assembled, &built);
            // A repeat-free list, in order or not, needs no dropping.
            let sorted = built.edges().to_vec();
            let reversed = sorted.iter().rev().copied().collect();
            for distinct in [sorted, reversed] {
                let distinct = assemble(n, distinct, Repeats::Absent, GraphKind::Generic);
                proptest::prop_assert_eq!(&distinct, &built);
            }
        }
    }

    #[test]
    fn isolated_nodes_have_degree_zero() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1).unwrap();
        let g = b.build();
        assert_eq!(g.degree(4), 0);
        assert!(g.neighbor_nodes(4).collect::<Vec<_>>().is_empty());
    }
}
