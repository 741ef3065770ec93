//! Immutable CSR graph representation.

use std::fmt;
use std::sync::Arc;

/// Dense node identifier in `0..n`.
pub type NodeId = u32;

/// Stable identifier of a canonical undirected edge (`0..m`).
pub type EdgeId = u32;

/// Provenance tag attached by the generators.
///
/// The spectral code in `sodiff-linalg` uses this to dispatch to analytic
/// eigenvalue formulas when they exist; everything else falls back to
/// numerical solvers. A graph assembled by hand through
/// [`crate::GraphBuilder`] is always [`GraphKind::Generic`]; every other
/// kind is attached only by the generator of that name, whose graph is
/// connected, so code may rely on a non-generic kind being connected.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphKind {
    /// No structural information.
    Generic,
    /// A k-dimensional torus with the given side lengths (row-major layout).
    Torus(Vec<u32>),
    /// A hypercube of the given dimension (`n = 2^dim`).
    Hypercube(u32),
    /// A cycle on `n` nodes.
    Cycle,
    /// A path on `n` nodes.
    Path,
    /// The complete graph on `n` nodes.
    Complete,
    /// A star: node 0 is the hub.
    Star,
}

/// An immutable undirected graph in compressed-sparse-row form.
///
/// Every undirected edge `{u, v}` is stored exactly once as the canonical
/// pair `(u, v)` with `u < v`, and appears in the adjacency of both
/// endpoints together with its [`EdgeId`]. Self-loops and parallel edges
/// are rejected at construction time.
///
/// Edge ids follow `(u, v)` order, so the arrays are a function of the
/// edge set alone. Generators and [`crate::GraphBuilder`] build them in
/// `O(n + m)` without hashing: a counting sort of the edge list by tail
/// (or, for generators that emit in order, each node's heads pushed as
/// they come), then one count pass and one fill pass over the heads.
/// Besides the input list and these arrays, that assembly holds nothing
/// per edge (the builder's duplicate-detecting hash set lives only until
/// it assembles).
///
/// Each node's arcs are its *in-arcs*, the edges whose canonical head it
/// is (orientation σ = −1), then its *out-arcs*, the edges whose
/// canonical tail it is (σ = +1), each group in ascending edge id. That is
/// edge-id order: an in-arc's edge `(u, v)` has `u < v`, so it sorts
/// before every edge whose tail is `v`. The out-arcs of `v` are one
/// contiguous edge-id range, so the orientation and half of the arc edge
/// ids are implicit, and so is every edge's tail: edge `e`'s tail is the
/// node whose out-range holds `e`. Four streams are stored, each `u32`,
/// the offsets of length `n + 1` and the rest of length `m`:
///
/// * [`Self::out_offsets`]: `v`'s out-arcs are edges
///   `out_offsets[v]..out_offsets[v + 1]`;
/// * [`Self::heads`]: edge `e`'s canonical head, ascending within each
///   out-range;
/// * [`Self::in_offsets`]: `v`'s in-arcs are positions
///   `in_offsets[v]..in_offsets[v + 1]` of
/// * [`Self::in_edge_ids`]: one edge id per edge, grouped by head.
///
/// A tail is derived, never stored: [`Self::edges`] walks the out-ranges
/// in edge-id order, [`Self::edge`] searches the out-offsets for one
/// edge, and [`Tails`] follows ascending edge ids with a forward cursor.
/// The flat arc numbering ([`Self::arc_range`]) numbers the arcs node by
/// node in this order; it is derived, not stored. An arc's neighbor is
/// not stored either: it is the endpoint of the arc's edge that does not
/// own the arc, which [`Self::neighbors`] and [`Self::neighbor_nodes`]
/// derive.
///
/// The arrays are immutable after construction and live behind one
/// shared allocation, so `clone` is a reference-count bump that shares
/// them rather than a copy. The simulator relies on this: its kernel
/// tables (which its worker threads own) hold a clone of the graph and
/// read the adjacency and the heads from it, so a run keeps exactly one
/// copy of the CSR.
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    csr: Arc<Csr>,
    kind: GraphKind,
}

/// The shared CSR arrays of a [`Graph`].
#[derive(PartialEq, Eq)]
struct Csr {
    /// Out-arc offsets, length `n + 1`: node `v`'s out-arcs are the edges
    /// `out_offsets[v]..out_offsets[v + 1]`, those whose tail is `v`.
    out_offsets: Vec<u32>,
    /// Each edge's canonical head, in edge-id order; its tail is the node
    /// whose out-range holds the edge.
    heads: Vec<NodeId>,
    /// In-arc offsets into `in_edges`, length `n + 1`.
    in_offsets: Vec<u32>,
    /// The in-arcs' edge ids, grouped by head, ascending within a node.
    in_edges: Vec<EdgeId>,
}

impl Graph {
    /// Fills the CSR arrays from each node's out-arcs: node `v`'s edges
    /// are `out_offsets[v]..out_offsets[v + 1]`, whose heads
    /// `heads[out_offsets[v]..out_offsets[v + 1]]` are strictly ascending
    /// and above `v`, as [`crate::builder::sort_edges`] leaves them.
    ///
    /// One pass counts every node's in-degree; one scatter pass then
    /// appends each edge's id to its head's in-arc range. Edges are
    /// visited in id order, so every node's in-arcs follow edge-id order.
    /// The fill allocates nothing but the two in-arc arrays.
    ///
    /// # Panics
    ///
    /// Panics if there are more edges than [`EdgeId`] can number, if the
    /// offsets do not end at the edge count, or if a head is
    /// `>= node_count`.
    pub(crate) fn from_out_lists(
        out_offsets: Vec<u32>,
        heads: Vec<NodeId>,
        kind: GraphKind,
    ) -> Self {
        assert!(
            EdgeId::try_from(heads.len()).is_ok(),
            "{} edges do not fit the edge-id type",
            heads.len()
        );
        let node_count = out_offsets.len() - 1;
        assert_eq!(out_offsets[node_count] as usize, heads.len());
        debug_assert!((0..node_count).all(|u| {
            let hs = &heads[out_offsets[u] as usize..out_offsets[u + 1] as usize];
            hs.first().is_none_or(|&v| v as usize > u) && hs.is_sorted_by(|a, b| a < b)
        }));
        let mut in_offsets = vec![0u32; node_count + 1];
        for &v in &heads {
            in_offsets[v as usize + 1] += 1;
        }
        for v in 0..node_count {
            in_offsets[v + 1] += in_offsets[v];
        }
        let mut in_edges = vec![0 as EdgeId; heads.len()];
        // `in_offsets[v]` serves as v's write cursor: the scatter advances
        // it to where v's range ends, which is where v + 1's range starts,
        // so shifting the array one place to the right restores the
        // offsets.
        for (e, &v) in heads.iter().enumerate() {
            let cursor = &mut in_offsets[v as usize];
            in_edges[*cursor as usize] = e as EdgeId;
            *cursor += 1;
        }
        debug_assert!(node_count == 0 || in_offsets[node_count - 1] as usize == heads.len());
        in_offsets.copy_within(0..node_count, 1);
        in_offsets[0] = 0;
        Self {
            csr: Arc::new(Csr {
                out_offsets,
                heads,
                in_offsets,
                in_edges,
            }),
            kind,
        }
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.csr.out_offsets.len() - 1
    }

    /// Number of undirected edges `m`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.csr.heads.len()
    }

    /// Degree of node `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.in_degree(v) + self.out_degree(v)
    }

    /// Number of `v`'s in-arcs: the edges whose canonical head is `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.in_edges(v).len()
    }

    /// Number of `v`'s out-arcs: the edges whose canonical tail is `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.out_edges(v).len()
    }

    /// Maximum degree over all nodes (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.node_count() as NodeId)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Minimum degree over all nodes (0 for the empty graph).
    pub fn min_degree(&self) -> usize {
        (0..self.node_count() as NodeId)
            .map(|v| self.degree(v))
            .min()
            .unwrap_or(0)
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.node_count() as NodeId
    }

    /// The neighbors of `v` with the id of the connecting edge (arc
    /// order). Each neighbor is derived from the arc's edge: its tail on
    /// an in-arc ([`Self::edge`], one search of the out-offsets), its
    /// head on an out-arc.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeId)> + '_ {
        let ins = self.in_edges(v).iter().map(move |&e| {
            let (tail, head) = self.edge(e);
            debug_assert_eq!(head, v, "in-arc of node {v} on edge {e}");
            (tail, e)
        });
        let outs = self.out_edges(v).map(|e| (self.csr.heads[e], e as EdgeId));
        ins.chain(outs)
    }

    /// The neighbor ids of `v` (arc order), derived as in [`Self::neighbors`].
    #[inline]
    pub fn neighbor_nodes(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.neighbors(v).map(|(u, _)| u)
    }

    /// The incident edge ids of `v` (arc order: in-arcs, then out-arcs).
    #[inline]
    pub fn neighbor_edges(&self, v: NodeId) -> impl Iterator<Item = EdgeId> + Clone + '_ {
        let outs = self.out_edges(v).map(|e| e as EdgeId);
        self.in_edges(v).iter().copied().chain(outs)
    }

    /// The edge ids of `v`'s in-arcs (ascending): the edges whose
    /// canonical head is `v`, on which `v`'s orientation is `−1`.
    #[inline]
    pub fn in_edges(&self, v: NodeId) -> &[EdgeId] {
        let v = v as usize;
        let offsets = &self.csr.in_offsets;
        &self.csr.in_edges[offsets[v] as usize..offsets[v + 1] as usize]
    }

    /// The edge ids of `v`'s out-arcs, one contiguous range: the edges
    /// whose canonical tail is `v`, on which `v`'s orientation is `+1`.
    #[inline]
    pub fn out_edges(&self, v: NodeId) -> std::ops::Range<usize> {
        let v = v as usize;
        let offsets = &self.csr.out_offsets;
        offsets[v] as usize..offsets[v + 1] as usize
    }

    /// Number of directed arcs (`2·m`): every edge is an in-arc of its
    /// head and an out-arc of its tail.
    #[inline]
    pub fn arc_count(&self) -> usize {
        2 * self.edge_count()
    }

    /// The full out-arc offset array (length `n + 1`): node `v`'s
    /// out-arcs are edges `out_offsets[v]..out_offsets[v + 1]`.
    #[inline]
    pub fn out_offsets(&self) -> &[u32] {
        &self.csr.out_offsets
    }

    /// Every edge's canonical head, in edge-id order (length `m`).
    #[inline]
    pub fn heads(&self) -> &[NodeId] {
        &self.csr.heads
    }

    /// The full in-arc offset array (length `n + 1`): node `v`'s in-arcs
    /// are positions `in_offsets[v]..in_offsets[v + 1]` of
    /// [`Self::in_edge_ids`].
    #[inline]
    pub fn in_offsets(&self) -> &[u32] {
        &self.csr.in_offsets
    }

    /// Every node's in-arc edge ids, concatenated in node order.
    #[inline]
    pub fn in_edge_ids(&self) -> &[EdgeId] {
        &self.csr.in_edges
    }

    /// Where node `v`'s arcs start in the flat arc numbering, for `v` in
    /// `0..=n`: the number of arcs owned by the nodes below `v`. It is
    /// derived, `in_offsets[v] + out_offsets[v]`.
    #[inline]
    pub fn arc_offset(&self, v: usize) -> usize {
        self.csr.in_offsets[v] as usize + self.csr.out_offsets[v] as usize
    }

    /// The arc-index range owned by node `v` in the flat arc numbering
    /// (`0..2m`): an exclusive, contiguous slice for per-arc state.
    #[inline]
    pub fn arc_range(&self, v: NodeId) -> std::ops::Range<usize> {
        let v = v as usize;
        self.arc_offset(v)..self.arc_offset(v + 1)
    }

    /// The tail of edge `e`: the node whose out-range holds `e`, found
    /// by one binary search of the out-offsets.
    #[inline]
    pub fn tail(&self, e: EdgeId) -> NodeId {
        let e = e as usize;
        debug_assert!(e < self.edge_count(), "edge {e} out of range");
        (self.csr.out_offsets.partition_point(|&o| o as usize <= e) - 1) as NodeId
    }

    /// The canonical endpoints `(u, v)` with `u < v` of edge `e`; the
    /// tail is found as in [`Self::tail`].
    #[inline]
    pub fn edge(&self, e: EdgeId) -> (NodeId, NodeId) {
        (self.tail(e), self.csr.heads[e as usize])
    }

    /// All canonical edges `(u, v)` in id order, each tail derived by a
    /// walk of the out-ranges.
    #[inline]
    pub fn edges(&self) -> Edges<'_> {
        Edges {
            tails: self.tails(),
            heads: &self.csr.heads,
            next: 0,
        }
    }

    /// A forward cursor that finds the tails of ascending edge ids.
    #[inline]
    pub fn tails(&self) -> Tails<'_> {
        Tails::new(&self.csr.out_offsets)
    }

    /// Sign convention for flows: `+1` if `v` is the canonical tail
    /// (`v == min(u, w)`) of edge `e`, `-1` otherwise.
    ///
    /// Flow values in `sodiff-core` are stored per canonical edge; a
    /// positive value means load moving from the smaller to the larger
    /// endpoint.
    #[inline]
    pub fn orientation(&self, v: NodeId, e: EdgeId) -> f64 {
        if self.out_edges(v).contains(&(e as usize)) {
            1.0
        } else {
            -1.0
        }
    }

    /// Returns `true` if `u` and `v` are adjacent: the larger is among
    /// the heads of the smaller's out-range.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let (tail, head) = (u.min(v), u.max(v));
        self.csr.heads[self.out_edges(tail)]
            .binary_search(&head)
            .is_ok()
    }

    /// Structural provenance set by the generator that produced this graph.
    #[inline]
    pub fn kind(&self) -> &GraphKind {
        &self.kind
    }

    /// The diffusion weight `α_{u,v} = 1 / (max(deg u, deg v) + 1)` used by
    /// the paper for both FOS and SOS (Section II).
    #[inline]
    pub fn alpha(&self, u: NodeId, v: NodeId) -> f64 {
        1.0 / (self.degree(u).max(self.degree(v)) as f64 + 1.0)
    }

    /// Returns `true` if the graph has a single connected component.
    ///
    /// The empty graph and the single-node graph count as connected.
    pub fn is_connected(&self) -> bool {
        crate::traversal::connected_components(self) <= 1
    }

    /// Heap bytes of the graph's CSR arrays, `8·(n + 1) + 8·m`: the two
    /// `u32` offset arrays, the heads and the in-arc edge ids. Clones
    /// share these arrays, so they are counted once however many clones
    /// (the simulator's kernel tables hold one) are alive. Useful
    /// together with the simulator's table and state accounting when
    /// sizing runs against available memory (a 10⁸-edge torus, 5·10⁷
    /// nodes, is ~1.2 GB here).
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.csr.out_offsets.len() + self.csr.in_offsets.len()) * size_of::<u32>()
            + self.csr.heads.len() * size_of::<NodeId>()
            + self.csr.in_edges.len() * size_of::<EdgeId>()
    }
}

/// A forward cursor over the out-offsets that finds the tail of each edge
/// id it is given, for callers that visit edges in ascending id
/// ([`Graph::tails`]). An edge of the last tail found costs one
/// comparison; a step to a later node a few more; a jump over many nodes
/// searches forward by doubling, so a sparse visit costs a logarithm of
/// the gap, never a scan of it.
#[derive(Clone, Debug)]
pub struct Tails<'a> {
    out_offsets: &'a [u32],
    /// The tail of the last edge asked for (node 0 before the first).
    tail: usize,
    /// Where `tail`'s out-range ends, `out_offsets[tail + 1]`.
    end: usize,
}

impl<'a> Tails<'a> {
    /// A cursor at node 0.
    fn new(out_offsets: &'a [u32]) -> Self {
        Self {
            out_offsets,
            tail: 0,
            end: out_offsets.get(1).map_or(0, |&o| o as usize),
        }
    }

    /// The tail of edge `e`, which must not precede the last edge asked
    /// for.
    #[inline]
    pub fn of(&mut self, e: usize) -> NodeId {
        debug_assert!(
            self.out_offsets[self.tail] as usize <= e
                && e < self.out_offsets[self.out_offsets.len() - 1] as usize,
            "edge {e} is out of range or behind the cursor"
        );
        if e >= self.end {
            // The next two nodes cover the next edge of a walk and the
            // next edge of most matchings; a longer jump searches.
            let offsets = self.out_offsets;
            let mut tail = self.tail + 1;
            let mut end = offsets[tail + 1] as usize;
            if end <= e {
                tail += 1;
                end = offsets[tail + 1] as usize;
                if end <= e {
                    (tail, end) = Self::jump(offsets, tail + 1, e);
                }
            }
            (self.tail, self.end) = (tail, end);
        }
        self.tail as NodeId
    }

    /// The tail of `e` and where its out-range ends, searching forward
    /// from node `from` (whose out-range starts at or below `e`): `from`
    /// plus the number of later offsets at or below `e`. A window
    /// doubles until it ends above `e` (the last offset, `m`, always
    /// does), and a binary search inside it counts them.
    #[inline(never)]
    fn jump(offsets: &[u32], from: usize, e: usize) -> (usize, usize) {
        let rest = &offsets[from + 1..];
        let mut window = 1;
        while window < rest.len() && rest[window - 1] as usize <= e {
            window *= 2;
        }
        let tail = from + rest[..window.min(rest.len())].partition_point(|&o| o as usize <= e);
        (tail, offsets[tail + 1] as usize)
    }
}

/// The canonical edges `(u, v)` of a graph in edge-id order
/// ([`Graph::edges`]), each tail taken from a [`Tails`] cursor.
#[derive(Clone, Debug)]
pub struct Edges<'a> {
    tails: Tails<'a>,
    heads: &'a [NodeId],
    next: usize,
}

impl Iterator for Edges<'_> {
    type Item = (NodeId, NodeId);

    #[inline]
    fn next(&mut self) -> Option<(NodeId, NodeId)> {
        let head = *self.heads.get(self.next)?;
        let tail = self.tails.of(self.next);
        self.next += 1;
        Some((tail, head))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.heads.len() - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Edges<'_> {}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("nodes", &self.node_count())
            .field("edges", &self.edge_count())
            .field("kind", &self.kind)
            .finish()
    }
}

/// A dynamic node-activation overlay over an immutable [`Graph`].
///
/// The CSR arrays never change after construction; live-topology churn
/// instead treats the graph's `n` node slots as **reserved capacity** and
/// tracks which slots are currently active (a machine is present and
/// serving load) in this bitmask. Simulators mask out edges with an
/// inactive endpoint, so a deactivated slot is invisible to the flow
/// passes until it is reactivated — no re-indexing, no CSR rebuild.
///
/// The words are in the same `n`-bit little-endian layout as the edge
/// bitmasks used by [`crate::matching::mask_dead_edges`], so an overlay
/// can be fed straight into the matching-repair routines as the
/// `live_nodes` argument.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ActiveSet {
    /// `capacity`-bit mask, bit `v` set ⇔ slot `v` active.
    words: Vec<u64>,
    /// Number of node slots covered (the owning graph's `n`).
    capacity: usize,
    /// Number of set bits, maintained incrementally.
    active: usize,
}

impl ActiveSet {
    /// An overlay over `capacity` node slots with every slot active.
    pub fn all_active(capacity: usize) -> Self {
        let mut words = vec![u64::MAX; capacity.div_ceil(64).max(1)];
        let tail = capacity % 64;
        if tail != 0 {
            *words.last_mut().unwrap() = (1u64 << tail) - 1;
        } else if capacity == 0 {
            words[0] = 0;
        }
        Self {
            words,
            capacity,
            active: capacity,
        }
    }

    /// Rebuilds an overlay from checkpointed mask words. Bits at or above
    /// `capacity` are cleared, so the popcount invariant holds for any
    /// input.
    pub fn from_words(capacity: usize, mut words: Vec<u64>) -> Self {
        words.resize(capacity.div_ceil(64).max(1), 0);
        let tail = capacity % 64;
        if tail != 0 {
            *words.last_mut().unwrap() &= (1u64 << tail) - 1;
        } else if capacity == 0 {
            words[0] = 0;
        }
        let active = words.iter().map(|w| w.count_ones() as usize).sum();
        Self {
            words,
            capacity,
            active,
        }
    }

    /// Number of node slots covered.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently active slots.
    #[inline]
    pub fn active_count(&self) -> usize {
        self.active
    }

    /// Returns `true` if slot `v` is active.
    #[inline]
    pub fn is_active(&self, v: NodeId) -> bool {
        (self.words[(v >> 6) as usize] >> (v & 63)) & 1 == 1
    }

    /// Activates slot `v`; returns `true` if the slot was inactive.
    pub fn activate(&mut self, v: NodeId) -> bool {
        debug_assert!((v as usize) < self.capacity);
        let w = &mut self.words[(v >> 6) as usize];
        let bit = 1u64 << (v & 63);
        let changed = *w & bit == 0;
        *w |= bit;
        // Branchy on purpose: `self.active += usize::from(changed)` is
        // const-folded incorrectly by some rustc builds at opt-level >= 2
        // (the popcount invariant silently breaks); the branch is not.
        if changed {
            self.active += 1;
        }
        changed
    }

    /// Deactivates slot `v`; returns `true` if the slot was active.
    pub fn deactivate(&mut self, v: NodeId) -> bool {
        debug_assert!((v as usize) < self.capacity);
        let w = &mut self.words[(v >> 6) as usize];
        let bit = 1u64 << (v & 63);
        let changed = *w & bit != 0;
        *w &= !bit;
        // Branchy on purpose — see `activate`.
        if changed {
            self.active -= 1;
        }
        changed
    }

    /// The raw mask words (little-endian bit order, `capacity` valid
    /// bits). Directly usable as the `live_nodes` argument of
    /// [`crate::matching::mask_dead_edges`] /
    /// [`crate::matching::repair_matching`], and as the checkpoint
    /// serialization of the overlay.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn triangle() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 2).unwrap();
        b.add_edge(0, 2).unwrap();
        b.build()
    }

    #[test]
    fn triangle_counts() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.min_degree(), 2);
    }

    #[test]
    fn canonical_edges_are_ordered() {
        let g = triangle();
        for (u, v) in g.edges() {
            assert!(u < v);
        }
    }

    #[test]
    fn orientation_signs() {
        let g = triangle();
        for e in 0..g.edge_count() as EdgeId {
            let (u, v) = g.edge(e);
            assert_eq!(g.orientation(u, e), 1.0);
            assert_eq!(g.orientation(v, e), -1.0);
        }
    }

    #[test]
    fn neighbors_are_symmetric() {
        let g = triangle();
        for u in g.nodes() {
            for (v, e) in g.neighbors(u) {
                assert!(g.neighbors(v).any(|(w, e2)| w == u && e2 == e));
            }
        }
    }

    #[test]
    fn soa_views_agree_with_neighbors() {
        let g = triangle();
        for u in g.nodes() {
            let pairs: Vec<_> = g.neighbors(u).collect();
            let nodes: Vec<_> = g.neighbor_nodes(u).collect();
            let edges: Vec<_> = g.neighbor_edges(u).collect();
            assert_eq!(pairs.len(), g.degree(u));
            assert_eq!(nodes.len(), g.degree(u));
            assert_eq!(edges.len(), g.degree(u));
            let in_degree = g.in_degree(u);
            for (k, &(v, e)) in pairs.iter().enumerate() {
                assert_eq!(nodes[k], v);
                assert_eq!(edges[k], e);
                // In-arcs (the lower neighbors, σ = −1) come first.
                let expected = if k < in_degree { -1.0 } else { 1.0 };
                assert_eq!(expected, if u < v { 1.0 } else { -1.0 });
                assert_eq!(expected, g.orientation(u, e));
            }
        }
        // The flat numbering concatenates the per-node arcs.
        assert_eq!(g.arc_offset(0), 0);
        assert_eq!(g.arc_offset(g.node_count()), g.arc_count());
        for u in g.nodes() {
            assert_eq!(g.arc_range(u).len(), g.degree(u));
        }
        let ins: Vec<_> = g.nodes().flat_map(|u| g.in_edges(u).to_vec()).collect();
        assert_eq!(ins, g.in_edge_ids());
    }

    #[test]
    fn has_edge_matches_adjacency() {
        let g = triangle();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1).unwrap();
        b.add_edge(2, 3).unwrap();
        let g = b.build();
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    fn alpha_uses_max_degree_plus_one() {
        let mut b = GraphBuilder::new(4);
        // Star centered at 0 with 3 leaves: deg(0)=3, deg(leaf)=1.
        b.add_edge(0, 1).unwrap();
        b.add_edge(0, 2).unwrap();
        b.add_edge(0, 3).unwrap();
        let g = b.build();
        assert_eq!(g.alpha(0, 1), 0.25);
        assert_eq!(g.alpha(1, 0), 0.25);
    }

    #[test]
    fn memory_bytes_counts_all_arrays() {
        let g = triangle();
        // 2 × 4 offsets × 4 + 3 heads × 4 + 3 in-arc edge ids × 4.
        assert_eq!(g.memory_bytes(), 2 * 4 * 4 + 3 * 4 + 3 * 4);
    }

    #[test]
    fn debug_is_compact() {
        let g = triangle();
        let s = format!("{g:?}");
        assert!(s.contains("nodes"));
        assert!(s.contains('3'));
    }

    #[test]
    fn active_set_starts_full_and_tracks_toggles() {
        for n in [1usize, 63, 64, 65, 130] {
            let mut a = ActiveSet::all_active(n);
            assert_eq!(a.capacity(), n);
            assert_eq!(a.active_count(), n);
            assert!((0..n as NodeId).all(|v| a.is_active(v)));
            // Bits above capacity are never set (tail word is clean).
            let popcount: usize = a.words().iter().map(|w| w.count_ones() as usize).sum();
            assert_eq!(popcount, n);
            assert!(a.deactivate(0));
            assert!(!a.deactivate(0), "double-deactivate is a no-op");
            assert_eq!(a.active_count(), n - 1);
            assert!(!a.is_active(0));
            assert!(a.activate(0));
            assert!(!a.activate(0), "double-activate is a no-op");
            assert_eq!(a.active_count(), n);
        }
    }

    #[test]
    fn active_set_round_trips_through_words() {
        let mut a = ActiveSet::all_active(70);
        a.deactivate(3);
        a.deactivate(69);
        let b = ActiveSet::from_words(70, a.words().to_vec());
        assert_eq!(a, b);
        assert_eq!(b.active_count(), 68);
        // Garbage bits above capacity are scrubbed on restore.
        let c = ActiveSet::from_words(70, vec![u64::MAX, u64::MAX]);
        assert_eq!(c.active_count(), 70);
    }

    #[test]
    fn active_set_words_feed_matching_repair() {
        let g = crate::generators::cycle(6);
        let mut a = ActiveSet::all_active(6);
        a.deactivate(2);
        let mut mask = vec![(1u64 << g.edge_count()) - 1];
        crate::matching::mask_dead_edges(&g, a.words(), &mut mask);
        for (e, (u, v)) in g.edges().enumerate() {
            let kept = (mask[0] >> e) & 1 == 1;
            assert_eq!(kept, u != 2 && v != 2);
        }
    }
}
