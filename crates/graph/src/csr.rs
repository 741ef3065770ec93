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
/// Every undirected edge `{u, v}` is stored exactly once in the canonical
/// edge list with `u < v`, and appears in the adjacency of both endpoints
/// together with its [`EdgeId`]. Self-loops and parallel edges are rejected
/// at construction time.
///
/// Edge ids follow `(u, v)` order and each node's arcs follow edge-id
/// order, so the arrays are a function of the edge set alone. Generators
/// and [`crate::GraphBuilder`] build them in `O(n + m)` without hashing:
/// a counting sort of the edge list by tail, then one fill pass that
/// writes offsets, edge ids and signs together. Besides the edge list
/// and these arrays, that assembly holds at most a 4-byte head per edge
/// and one `n`-entry array (the builder's duplicate-detecting hash set
/// lives only until it assembles).
///
/// Four streams are stored: the offsets, and per directed arc the edge
/// id and the orientation sign in two flat parallel arrays
/// ([`Self::arc_edge_ids`], [`Self::arc_orientations`]), next to the
/// canonical edge list, so a kernel pass reads only the streams it needs
/// (the simulator's apply pass the edge ids alone, the rounding framework
/// both). An arc's neighbor is not stored: it is the endpoint of the
/// arc's edge that the sign does not name as the owner, which
/// [`Self::neighbors`] and [`Self::neighbor_nodes`] derive.
///
/// The arrays are immutable after construction and live behind one
/// shared allocation, so `clone` is a reference-count bump that shares
/// them rather than a copy. The simulator relies on this: its kernel
/// tables (which its worker threads own) hold a clone of the graph and
/// read the adjacency and the canonical edge list from it, so a run keeps
/// exactly one copy of the CSR.
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    csr: Arc<Csr>,
    kind: GraphKind,
}

/// The shared CSR arrays of a [`Graph`].
#[derive(PartialEq, Eq)]
struct Csr {
    /// CSR offsets, length `n + 1`.
    offsets: Vec<usize>,
    /// Arc-indexed edge ids.
    adj_edges: Vec<EdgeId>,
    /// Arc-indexed orientation signs: `+1` when the owning node is the
    /// canonical tail of the arc's edge, `-1` otherwise.
    adj_signs: Vec<i8>,
    /// Canonical edge list, `edges[e] = (u, v)` with `u < v`.
    edges: Vec<(NodeId, NodeId)>,
}

impl Graph {
    /// Fills the CSR arrays from a canonical edge list sorted by `(u, v)`
    /// with no repeated pair, as [`crate::builder::sort_edges`] leaves it.
    ///
    /// One degree-count pass sizes every node's arc range; one scatter
    /// pass then appends edge `e`'s two arcs, each an edge id and a sign,
    /// to the ranges of `u` (sign `+1`) and `v` (sign `-1`). Edges are
    /// visited in id order, so every node's arcs follow edge-id order.
    /// The fill allocates nothing but the arrays it returns.
    ///
    /// # Panics
    ///
    /// Panics if there are more edges than [`EdgeId`] can number, or if a
    /// node id is `>= node_count`.
    pub(crate) fn from_sorted_edges(
        node_count: usize,
        edges: Vec<(NodeId, NodeId)>,
        kind: GraphKind,
    ) -> Self {
        assert!(
            EdgeId::try_from(edges.len()).is_ok(),
            "{} edges do not fit the edge-id type",
            edges.len()
        );
        debug_assert!(edges.is_sorted_by(|a, b| a < b));
        let mut offsets = vec![0usize; node_count + 1];
        for &(u, v) in &edges {
            debug_assert!(u < v, "edge ({u}, {v}) is not canonical");
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for v in 0..node_count {
            offsets[v + 1] += offsets[v];
        }
        let arcs = offsets[node_count];
        let mut adj_edges = vec![0 as EdgeId; arcs];
        let mut adj_signs = vec![0i8; arcs];
        // `offsets[v]` serves as v's write cursor: the scatter advances it
        // to where v's range ends, which is where v + 1's range starts, so
        // shifting the array one place to the right restores the offsets.
        for (e, &(u, v)) in edges.iter().enumerate() {
            let e = e as EdgeId;
            for (from, sign) in [(u, 1), (v, -1)] {
                let p = offsets[from as usize];
                offsets[from as usize] += 1;
                adj_edges[p] = e;
                adj_signs[p] = sign;
            }
        }
        debug_assert!(node_count == 0 || offsets[node_count - 1] == arcs);
        offsets.copy_within(0..node_count, 1);
        offsets[0] = 0;
        Self {
            csr: Arc::new(Csr {
                offsets,
                adj_edges,
                adj_signs,
                edges,
            }),
            kind,
        }
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.csr.offsets.len() - 1
    }

    /// Number of undirected edges `m`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.csr.edges.len()
    }

    /// Degree of node `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        self.csr.offsets[v + 1] - self.csr.offsets[v]
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
    /// order). Each neighbor is derived from the arc's edge and sign: the
    /// edge's head where `v` is its canonical tail (`+1`), else its tail.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeId)> + '_ {
        let r = self.arc_range(v);
        self.csr.adj_edges[r.clone()]
            .iter()
            .zip(&self.csr.adj_signs[r])
            .map(move |(&e, &sign)| {
                let (tail, head) = self.csr.edges[e as usize];
                let (owner, far) = if sign > 0 { (tail, head) } else { (head, tail) };
                debug_assert_eq!(owner, v, "arc of node {v} on edge {e} has the wrong sign");
                (far, e)
            })
    }

    /// The neighbor ids of `v` (arc order), derived as in [`Self::neighbors`].
    #[inline]
    pub fn neighbor_nodes(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.neighbors(v).map(|(u, _)| u)
    }

    /// The incident edge ids of `v` (arc order).
    #[inline]
    pub fn neighbor_edges(&self, v: NodeId) -> &[EdgeId] {
        &self.csr.adj_edges[self.arc_range(v)]
    }

    /// Orientation signs of `v`'s incident edges (arc order): `+1` when
    /// `v` is the canonical tail, `-1` otherwise.
    #[inline]
    pub fn neighbor_signs(&self, v: NodeId) -> &[i8] {
        &self.csr.adj_signs[self.arc_range(v)]
    }

    /// Number of directed arcs (`2·m`); arcs are the entries of the flat
    /// adjacency arrays, so arc `p` in [`Self::arc_range`]`(v)` is the
    /// directed half-edge leaving `v` along edge `self.arc_edge_ids()[p]`.
    #[inline]
    pub fn arc_count(&self) -> usize {
        self.csr.adj_edges.len()
    }

    /// The full arc-indexed edge-id array.
    #[inline]
    pub fn arc_edge_ids(&self) -> &[EdgeId] {
        &self.csr.adj_edges
    }

    /// The full arc-indexed orientation-sign array (`+1` = arc leaves the
    /// canonical tail of its edge).
    #[inline]
    pub fn arc_orientations(&self) -> &[i8] {
        &self.csr.adj_signs
    }

    /// The arc-index range owned by node `v` (positions into the flat
    /// adjacency array). Used by the parallel executor to give every node
    /// an exclusive, contiguous slice of per-arc state.
    #[inline]
    pub fn arc_range(&self, v: NodeId) -> std::ops::Range<usize> {
        let v = v as usize;
        self.csr.offsets[v]..self.csr.offsets[v + 1]
    }

    /// The full CSR offset array (length `n + 1`): node `v`'s arcs are
    /// positions `offsets[v]..offsets[v + 1]` of the flat arc arrays.
    #[inline]
    pub fn arc_offsets(&self) -> &[usize] {
        &self.csr.offsets
    }

    /// The canonical endpoints `(u, v)` with `u < v` of edge `e`.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> (NodeId, NodeId) {
        self.csr.edges[e as usize]
    }

    /// All canonical edges in id order.
    #[inline]
    pub fn edges(&self) -> &[(NodeId, NodeId)] {
        &self.csr.edges
    }

    /// Sign convention for flows: `+1` if `v` is the canonical tail
    /// (`v == min(u, w)`) of edge `e`, `-1` otherwise.
    ///
    /// Flow values in `sodiff-core` are stored per canonical edge; a
    /// positive value means load moving from the smaller to the larger
    /// endpoint.
    #[inline]
    pub fn orientation(&self, v: NodeId, e: EdgeId) -> f64 {
        if self.csr.edges[e as usize].0 == v {
            1.0
        } else {
            -1.0
        }
    }

    /// Returns `true` if `u` and `v` are adjacent.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbor_nodes(a).any(|w| w == b)
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

    /// Heap bytes of the graph's CSR arrays, `8·(n + 1) + 18·m`: the
    /// offsets, the two arc-indexed adjacency streams, and the canonical
    /// edge list. Clones share these arrays, so they are counted once
    /// however many clones (the simulator's kernel tables hold one) are
    /// alive. Useful together with the simulator's table and state
    /// accounting when sizing runs against available memory (a 10⁸-edge
    /// torus, 5·10⁷ nodes, is ~2.2 GB here).
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.csr.offsets.len() * size_of::<usize>()
            + self.csr.adj_edges.len() * size_of::<EdgeId>()
            + self.csr.adj_signs.len() * size_of::<i8>()
            + self.csr.edges.len() * size_of::<(NodeId, NodeId)>()
    }
}

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
        for &(u, v) in g.edges() {
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
            let edges = g.neighbor_edges(u);
            let signs = g.neighbor_signs(u);
            assert_eq!(pairs.len(), nodes.len());
            assert_eq!(pairs.len(), edges.len());
            assert_eq!(pairs.len(), signs.len());
            for (k, &(v, e)) in pairs.iter().enumerate() {
                assert_eq!(nodes[k], v);
                assert_eq!(edges[k], e);
                let expected = if u < v { 1 } else { -1 };
                assert_eq!(signs[k], expected);
                assert_eq!(signs[k] as f64, g.orientation(u, e));
            }
        }
        // The flat arrays are the concatenation of the per-node views.
        assert_eq!(g.arc_edge_ids().len(), g.arc_count());
        assert_eq!(g.arc_orientations().len(), g.arc_count());
        for u in g.nodes() {
            let r = g.arc_range(u);
            assert_eq!(&g.arc_edge_ids()[r.clone()], g.neighbor_edges(u));
            assert_eq!(&g.arc_orientations()[r], g.neighbor_signs(u));
        }
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
        // 4 offsets × 8 + 6 arcs × (4 + 1) + 3 edges × 8.
        assert_eq!(g.memory_bytes(), 4 * 8 + 6 * 5 + 3 * 8);
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
        for (e, &(u, v)) in g.edges().iter().enumerate() {
            let kept = (mask[0] >> e) & 1 == 1;
            assert_eq!(kept, u != 2 && v != 2);
        }
    }
}
