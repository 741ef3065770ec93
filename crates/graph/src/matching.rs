//! Edge colorings and maximal matchings: the pairwise-communication
//! schedules behind dimension-exchange and matching-based load balancing.
//!
//! Diffusion schemes exchange load over *all* edges simultaneously; their
//! classic counterparts communicate pairwise — each node talks to at most
//! one neighbor per round. The schedule of such a scheme is either
//!
//! * a proper **edge coloring**: each color class is a matching, and
//!   dimension exchange sweeps the classes round-robin so every edge is
//!   active once per sweep, or
//! * a sequence of **maximal matchings**: matching-based balancing runs
//!   one per round (round-robin over a precomputed family here, or a
//!   fresh random one drawn by the simulator).
//!
//! [`edge_coloring`] dispatches on the generator's [`GraphKind`] to exact
//! optimal colorings where the structure provides one (tori with even
//! sides and hypercubes achieve the chromatic index `Δ`), and falls back
//! to the deterministic [`greedy_edge_coloring`] (at most `2Δ − 1`
//! colors) everywhere else. The greedy pass searches per-node color
//! bitsets a word at a time, `O(m·Δ/64)`, with `n + m/16` words and `n`
//! flags besides the colors. [`maximal_matchings`] extends every color
//! class to a maximal matching, which keeps more nodes busy per round
//! than the bare class. Matchings are edge bitmasks in canonical edge-id
//! order ([`EdgeColoring::class_masks`]), the form the simulator's
//! active-edge gates read.
//!
//! All functions are deterministic: the same graph always produces the
//! same coloring and the same matchings.

use crate::csr::{EdgeId, Graph, GraphKind, NodeId};

/// A proper edge coloring: adjacent edges never share a color, so each
/// color class is a matching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeColoring {
    /// Color of each canonical edge, in `0..num_colors`.
    colors: Vec<u32>,
    /// Number of colors used.
    num_colors: u32,
}

impl EdgeColoring {
    /// The coloring with the given per-edge colors, numbering `max + 1`
    /// colors (0 for an edgeless graph).
    fn from_colors(colors: Vec<u32>) -> Self {
        let num_colors = colors.iter().max().map_or(0, |&c| c + 1);
        Self { colors, num_colors }
    }

    /// Per-edge colors, indexed by [`EdgeId`].
    #[inline]
    pub fn colors(&self) -> &[u32] {
        &self.colors
    }

    /// Number of colors (0 only for edgeless graphs).
    #[inline]
    pub fn num_colors(&self) -> u32 {
        self.num_colors
    }

    /// The edge bitmask of every color class, indexed by color: bit `e`
    /// of mask `c` (word `e / 64`, bit `e % 64`, `⌈m/64⌉` words) is set
    /// iff edge `e` has color `c`. One pass over the colors.
    pub fn class_masks(&self) -> Vec<Vec<u64>> {
        let words = self.colors.len().div_ceil(64);
        let mut masks = vec![vec![0u64; words]; self.num_colors as usize];
        for (e, &c) in self.colors.iter().enumerate() {
            masks[c as usize][e >> 6] |= 1u64 << (e & 63);
        }
        masks
    }

    /// Returns `true` if no two adjacent edges of `graph` share a color
    /// and every color below `num_colors` is in use.
    pub fn is_proper(&self, graph: &Graph) -> bool {
        if self.colors.len() != graph.edge_count() {
            return false;
        }
        let mut used = vec![false; self.num_colors as usize];
        for &c in &self.colors {
            match used.get_mut(c as usize) {
                Some(slot) => *slot = true,
                None => return false,
            }
        }
        if !used.iter().all(|&u| u) {
            return false;
        }
        for v in graph.nodes() {
            let incident = graph.neighbor_edges(v);
            for (i, e1) in incident.clone().enumerate() {
                for e2 in incident.clone().skip(i + 1) {
                    if self.colors[e1 as usize] == self.colors[e2 as usize] {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// A proper edge coloring of `graph`, exact where the generator's
/// structure provides one and greedy otherwise:
///
/// * **hypercubes** are colored by edge axis (`dim` colors — optimal),
/// * **tori** (and cycles/paths, their 1-D cases) are colored per axis:
///   2 colors for an even side, 3 for an odd side, 1 for a side of
///   length 2 — the cycle's chromatic index, summed over axes,
/// * everything else falls back to [`greedy_edge_coloring`]
///   (at most `2Δ − 1` colors).
///
/// Edgeless graphs get the empty coloring (`num_colors == 0`).
pub fn edge_coloring(graph: &Graph) -> EdgeColoring {
    match graph.kind().clone() {
        GraphKind::Hypercube(_) => hypercube_coloring(graph),
        GraphKind::Torus(dims) => torus_coloring(graph, &dims),
        GraphKind::Cycle => torus_coloring(graph, &[graph.node_count() as u32]),
        GraphKind::Path => path_coloring(graph),
        _ => greedy_edge_coloring(graph),
    }
}

/// Hypercube edges differ in exactly one bit; the bit index is a proper
/// coloring with `dim` colors (each class is the perfect matching along
/// that axis).
fn hypercube_coloring(graph: &Graph) -> EdgeColoring {
    let axes = graph.edges().map(|(u, v)| (u ^ v).trailing_zeros());
    EdgeColoring::from_colors(axes.collect())
}

/// Colors used by one torus axis of side length `len`: the cycle's
/// chromatic index (sides of length 1 contribute no edges).
fn axis_colors(len: u32) -> u32 {
    match len {
        0 | 1 => 0,
        2 => 1, // wrap edge coincides with the direct edge (deduplicated)
        l if l % 2 == 0 => 2,
        _ => 3,
    }
}

/// Exact per-axis torus coloring: each axis is a disjoint family of
/// cycles, colored 2 (even side) or 3 (odd side) colors, with axes offset
/// into disjoint color ranges.
fn torus_coloring(graph: &Graph, dims: &[u32]) -> EdgeColoring {
    let mut strides = vec![1u64; dims.len()];
    for i in (0..dims.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * dims[i + 1] as u64;
    }
    let mut base = vec![0u32; dims.len()];
    let mut total = 0u32;
    for (a, &len) in dims.iter().enumerate() {
        base[a] = total;
        total += axis_colors(len);
    }
    let coord = |v: NodeId, a: usize| (v as u64 / strides[a]) % dims[a] as u64;
    let mut colors = Vec::with_capacity(graph.edge_count());
    for (u, v) in graph.edges() {
        let axis = (0..dims.len())
            .find(|&a| coord(u, a) != coord(v, a))
            .expect("torus edge endpoints differ in exactly one axis");
        let len = dims[axis] as u64;
        let (cu, cv) = (coord(u, axis), coord(v, axis));
        // Cycle-edge index: a direct edge `c → c+1` sits at position
        // `min(cu, cv)`; the wrap edge `len−1 → 0` at position `len − 1`.
        let pos = if cu.abs_diff(cv) == 1 {
            cu.min(cv)
        } else {
            len - 1
        };
        let within = if len == 2 {
            0
        } else if len.is_multiple_of(2) {
            (pos % 2) as u32
        } else if pos == len - 1 {
            2 // the odd cycle's extra color for its closing edge
        } else {
            (pos % 2) as u32
        };
        colors.push(base[axis] + within);
    }
    EdgeColoring {
        colors,
        num_colors: total,
    }
}

/// Paths alternate two colors along the line (one color for a single
/// edge).
fn path_coloring(graph: &Graph) -> EdgeColoring {
    EdgeColoring::from_colors(graph.edges().map(|(u, _)| u % 2).collect())
}

/// Deterministic greedy edge coloring: edges in id order each take the
/// smallest color unused at either endpoint. Uses at most `2Δ − 1`
/// colors (each endpoint blocks at most `Δ − 1` colors).
///
/// Edge `(u, v)` finds its color below `deg(u) + deg(v) − 1`, a range the
/// bitset of its higher-degree endpoint covers: node `w` records the
/// colors it uses below its capacity of at least `2·deg(w)` bits, in
/// whole words. The search ORs the two endpoints' words and takes the
/// first clear bit, `O(m·Δ/64)` in all. A color at or above a node's
/// capacity only sets the node's *spilled* flag; where the search runs
/// past the lower-degree endpoint's bitset and that endpoint has
/// spilled, its colors there are read off its `min(deg(u), deg(v))`
/// incident edges instead.
///
/// Memory besides the returned colors: `n + m/16` bitset words and `n`
/// flags, with no per-arc arrays.
pub fn greedy_edge_coloring(graph: &Graph) -> EdgeColoring {
    greedy_coloring_counting_spills(graph).0
}

/// [`greedy_edge_coloring`], also returning how many words it searched
/// through a spilled endpoint's incident edges.
fn greedy_coloring_counting_spills(graph: &Graph) -> (EdgeColoring, usize) {
    const UNSET: u32 = u32::MAX;
    let n = graph.node_count();
    // Node `w`'s words start at `w + a(w)/32`, `a(w)` where its arcs
    // start: it gets at least `1 + ⌊deg(w)/32⌋ ≥ ⌈2·deg(w)/64⌉` of them,
    // `n + m/16` in all.
    let start = |w: usize| w + graph.arc_offset(w) / 32;
    let mut bits = vec![0u64; start(n)];
    let mut spilled = vec![false; n];
    let mut colors = vec![UNSET; graph.edge_count()];
    let mut spill_scans = 0;
    for (e, (u, v)) in graph.edges().enumerate() {
        let (du, dv) = (graph.degree(u), graph.degree(v));
        let (u, v) = (u as usize, v as usize);
        let (h, l) = if du >= dv { (u, v) } else { (v, u) };
        let range = du + dv - 1;
        let high = &bits[start(h)..start(h) + range.div_ceil(64)];
        let low = &bits[start(l)..start(l + 1)];
        let mut k = 0;
        let c = loop {
            let mut word = high[k] | low.get(k).copied().unwrap_or(0);
            if spilled[l] && k >= low.len() && word != u64::MAX {
                spill_scans += 1;
                for e2 in graph.neighbor_edges(l as NodeId) {
                    let c2 = colors[e2 as usize] as usize;
                    if c2 / 64 == k {
                        word |= 1u64 << (c2 % 64);
                    }
                }
            }
            if word != u64::MAX {
                break 64 * k + word.trailing_ones() as usize;
            }
            k += 1;
        };
        debug_assert!(c < range, "greedy color {c} outside [0, {range})");
        for w in [u, v] {
            let slot = start(w) + c / 64;
            if slot < start(w + 1) {
                bits[slot] |= 1u64 << (c % 64);
            } else {
                spilled[w] = true;
            }
        }
        colors[e] = c as u32;
    }
    (EdgeColoring::from_colors(colors), spill_scans)
}

/// Returns `true` if `edges` is a matching of `graph` (no shared
/// endpoints).
pub fn is_matching(graph: &Graph, edges: &[EdgeId]) -> bool {
    matched_nodes(graph, edges).is_some()
}

/// Returns `true` if `edges` is a maximal matching of `graph`: a matching
/// that no further edge can be added to.
pub fn is_maximal_matching(graph: &Graph, edges: &[EdgeId]) -> bool {
    matched_nodes(graph, edges).is_some_and(|matched| {
        let covered = |(u, v): (NodeId, NodeId)| matched[u as usize] || matched[v as usize];
        graph.edges().all(covered)
    })
}

/// Returns `true` if the edge bitmask `mask` (bit `e % 64` of word
/// `e / 64` set ⇔ edge `e` chosen, the layout of
/// [`EdgeColoring::class_masks`]) is a matching of `graph`: no bit at or
/// past the edge count, and no two chosen edges sharing an endpoint.
pub fn mask_is_matching(graph: &Graph, mask: &[u64]) -> bool {
    let ids: Vec<EdgeId> = (0..64 * mask.len())
        .filter(|&e| (mask[e / 64] >> (e % 64)) & 1 == 1)
        .map(|e| e as EdgeId)
        .collect();
    ids.iter().all(|&e| (e as usize) < graph.edge_count()) && is_matching(graph, &ids)
}

/// The nodes `edges` cover, or `None` if two of them share an endpoint.
fn matched_nodes(graph: &Graph, edges: &[EdgeId]) -> Option<Vec<bool>> {
    let mut matched = vec![false; graph.node_count()];
    for &e in edges {
        let (u, v) = graph.edge(e);
        if matched[u as usize] || matched[v as usize] {
            return None;
        }
        matched[u as usize] = true;
        matched[v as usize] = true;
    }
    Some(matched)
}

/// One maximal matching per color class of `coloring`, as edge bitmasks
/// in the layout of [`EdgeColoring::class_masks`]: the class is taken as
/// the base matching (proper classes are matchings by definition) and
/// extended greedily in edge-id order until maximal. Together the family
/// covers every edge at least once per sweep, and each round keeps more
/// nodes paired than the bare class would.
///
/// One stamp buffer serves every class, so a class costs one pass over
/// its mask words and one over the nodes, each unmatched node searching
/// only its edges to higher neighbours; no class rescans all the edges.
pub fn maximal_matchings(graph: &Graph, coloring: &EdgeColoring) -> Vec<Vec<u64>> {
    let mut matched = vec![u32::MAX; graph.node_count()]; // stamp buffer keyed by color
    let mut masks = coloring.class_masks();
    for (c, mask) in (0..).zip(&mut masks) {
        extend_greedy(graph, mask, &mut matched, c, |_| true);
    }
    masks
}

/// The greedy extension behind [`maximal_matchings`] and
/// [`extend_matching`]: the result of one scan of the edges in id order
/// that adds each edge whose endpoints are both `eligible` and unmatched.
///
/// It first marks the endpoints of the matching `mask` in `matched` (a
/// node is matched iff its entry equals `stamp`, so one buffer serves
/// many calls with no reset). It then visits the nodes in ascending id;
/// each unmatched eligible node `u` takes the first edge of its
/// out-range (its edges to higher neighbours, in ascending head) whose
/// head is eligible and unmatched. That
/// is the scan's choice: an eligible lower neighbour of `u` is matched by
/// the time `u` is visited (it was offered `u` on its own turn), and a
/// matched or ineligible node's range is skipped without a look.
fn extend_greedy(
    graph: &Graph,
    mask: &mut [u64],
    matched: &mut [u32],
    stamp: u32,
    eligible: impl Fn(NodeId) -> bool,
) {
    let (mut tails, heads) = (graph.tails(), graph.heads());
    for (w, &word) in mask.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let e = 64 * w + bits.trailing_zeros() as usize;
            let (u, v) = (tails.of(e), heads[e]);
            matched[u as usize] = stamp;
            matched[v as usize] = stamp;
            bits &= bits - 1;
        }
    }
    for u in graph.nodes() {
        if matched[u as usize] == stamp || !eligible(u) {
            continue;
        }
        let range = graph.out_edges(u);
        let free = |&v: &NodeId| matched[v as usize] != stamp && eligible(v);
        if let Some(k) = heads[range.clone()].iter().position(free) {
            let e = range.start + k;
            matched[u as usize] = stamp;
            matched[heads[e] as usize] = stamp;
            mask[e >> 6] |= 1u64 << (e & 63);
        }
    }
}

#[inline]
fn live(live_nodes: &[u64], v: NodeId) -> bool {
    (live_nodes[(v >> 6) as usize] >> (v & 63)) & 1 == 1
}

/// Clears the bits of the edge bitmask `mask` for every edge with a dead
/// endpoint. `live_nodes` is an `n`-bit mask (bit `v` set ⇔ node `v`
/// live); `mask` is an `m`-bit mask in the canonical edge-id order.
///
/// This is the incremental "mask-out" half of churn repair: a color class
/// of a proper [`edge_coloring`] stays a valid (possibly smaller)
/// matching after masking, with no recompute of the coloring.
pub fn mask_dead_edges(graph: &Graph, live_nodes: &[u64], mask: &mut [u64]) {
    for (e, (u, v)) in graph.edges().enumerate() {
        if !live(live_nodes, u) || !live(live_nodes, v) {
            mask[e >> 6] &= !(1u64 << (e & 63));
        }
    }
}

/// Incrementally repairs the matching bitmask `mask` after node churn:
/// masks out edges with a dead endpoint ([`mask_dead_edges`]), then
/// greedily re-covers the freed **live** nodes ([`extend_matching`]).
/// The result is again a matching, dead nodes are never matched, and the
/// repair is deterministic (same inputs, same output) and local: edges
/// between matched live nodes are untouched.
///
/// The repaired mask is a pure function of the *base* mask and the
/// *current* live set. Repair applied to an already-repaired mask is
/// history-dependent (an extension chosen under an old live set can
/// survive into the new one), so callers tracking churn epochs must
/// re-derive from the pristine base family each epoch — exactly what the
/// fault and churn simulators do — which is also what lets checkpoint
/// restore rematerialize repaired families from (base, current live set)
/// without replaying churn history (see the equivalence proptest below).
pub fn repair_matching(graph: &Graph, live_nodes: &[u64], mask: &mut [u64]) {
    mask_dead_edges(graph, live_nodes, mask);
    extend_matching(graph, live_nodes, mask);
}

/// Greedily extends the matching bitmask `mask` over the live nodes:
/// each unmatched live node (ascending id) takes its first incident edge
/// (adjacency order) whose other endpoint is live and unmatched. This is
/// the *join* half of incremental repair — when a node (re)activates, the
/// existing matching is extended locally to cover it instead of
/// recomputing the family from scratch.
///
/// `mask` must already be a matching whose edges have only live
/// endpoints (e.g. the output of [`mask_dead_edges`]); the extension
/// never removes an edge, so the result is a superset matching that is
/// maximal on the live-induced subgraph.
pub fn extend_matching(graph: &Graph, live_nodes: &[u64], mask: &mut [u64]) {
    let mut matched = vec![u32::MAX; graph.node_count()];
    extend_greedy(graph, mask, &mut matched, 0, |v| live(live_nodes, v));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn hypercube_coloring_is_exact() {
        for dim in [1u32, 3, 5] {
            let g = generators::hypercube(dim);
            let c = edge_coloring(&g);
            assert_eq!(c.num_colors(), dim, "dim {dim}");
            assert!(c.is_proper(&g), "dim {dim}");
            // Each class is the perfect matching along one axis.
            for mask in c.class_masks() {
                let size: u32 = mask.iter().map(|w| w.count_ones()).sum();
                assert_eq!(size as usize, g.node_count() / 2);
            }
        }
    }

    #[test]
    fn even_torus_coloring_is_optimal() {
        let g = generators::torus2d(6, 8);
        let c = edge_coloring(&g);
        assert_eq!(c.num_colors(), 4, "even 2D torus: Δ = 4 colors");
        assert!(c.is_proper(&g));
    }

    #[test]
    fn odd_torus_coloring_is_proper() {
        for (rows, cols, expect) in [(5, 5, 6), (5, 6, 5), (3, 4, 5), (2, 7, 4)] {
            let g = generators::torus2d(rows, cols);
            let c = edge_coloring(&g);
            assert_eq!(c.num_colors(), expect, "{rows}x{cols}");
            assert!(c.is_proper(&g), "{rows}x{cols}");
        }
    }

    #[test]
    fn degenerate_torus_sides() {
        // Side 1 contributes no edges; side 2 contributes one color.
        let g = generators::torus(&[1, 4]);
        let c = edge_coloring(&g);
        assert_eq!(c.num_colors(), 2);
        assert!(c.is_proper(&g));
        let g = generators::torus(&[2, 2]);
        let c = edge_coloring(&g);
        assert!(c.is_proper(&g));
    }

    #[test]
    fn cycle_and_path_colorings() {
        let even = generators::cycle(8);
        let c = edge_coloring(&even);
        assert_eq!(c.num_colors(), 2);
        assert!(c.is_proper(&even));
        let odd = generators::cycle(9);
        let c = edge_coloring(&odd);
        assert_eq!(c.num_colors(), 3);
        assert!(c.is_proper(&odd));
        let p = generators::path(7);
        let c = edge_coloring(&p);
        assert_eq!(c.num_colors(), 2);
        assert!(c.is_proper(&p));
        let single = generators::path(2);
        assert_eq!(edge_coloring(&single).num_colors(), 1);
    }

    /// Reference for [`greedy_edge_coloring`]: per edge, a stamp buffer
    /// marks the colors of both endpoints' incident edges, and the search
    /// walks the colors from 0. `O(m·Δ)`.
    fn greedy_by_stamps(graph: &Graph) -> EdgeColoring {
        const UNSET: u32 = u32::MAX;
        let mut colors = vec![UNSET; graph.edge_count()];
        let mut num_colors = 0u32;
        let cap = (2 * graph.max_degree()).saturating_sub(1).max(1);
        let mut used = vec![u32::MAX; cap]; // used[c] == e means blocked
        for (e, (u, v)) in graph.edges().enumerate() {
            for w in [u, v] {
                for e2 in graph.neighbor_edges(w) {
                    let c = colors[e2 as usize];
                    if c != UNSET {
                        used[c as usize] = e as u32;
                    }
                }
            }
            let c = (0..cap as u32)
                .find(|&c| used[c as usize] != e as u32)
                .expect("greedy coloring always fits in 2*max_degree - 1 colors");
            colors[e] = c;
            num_colors = num_colors.max(c + 1);
        }
        EdgeColoring { colors, num_colors }
    }

    /// A star whose leaves all also join one vertex of a clique. The hub's
    /// edges come first, so leaf `i` takes color `i − 1`, far beyond the
    /// bitset of a degree-2 node; the clique vertex then fills its low
    /// words, so its later leaf edges search past the leaf's bitset.
    fn star_glued_to_clique(leaves: usize, clique: usize) -> Graph {
        let hub = 0;
        let joint = leaves as NodeId + 1;
        let mut b = crate::GraphBuilder::new(leaves + 1 + clique);
        for leaf in 1..=leaves as NodeId {
            b.add_edge_dedup(hub, leaf);
            b.add_edge_dedup(leaf, joint);
        }
        for i in joint..joint + clique as NodeId {
            for j in i + 1..joint + clique as NodeId {
                b.add_edge_dedup(i, j);
            }
        }
        b.build()
    }

    #[test]
    fn greedy_equals_the_stamp_oracle_on_every_family() {
        let mut graphs = vec![
            generators::torus2d(5, 5),
            generators::torus2d(16, 16),
            generators::torus(&[3, 4, 5]),
            generators::hypercube(7),
            generators::cycle(9),
            generators::path(7),
            generators::path(1),
            generators::complete(2),
            generators::complete(7),
            generators::complete(150),
            generators::star(9),
            generators::star(2000),
            generators::grid2d(12, 17),
            generators::erdos_renyi(30, 0.3, 5),
            generators::random_graph_cm(40, 3).unwrap(),
            star_glued_to_clique(300, 40),
        ];
        for seed in [1, 42] {
            graphs.push(generators::erdos_renyi(300, 0.05, seed));
            graphs.push(generators::random_regular(640, 6, seed).unwrap());
            graphs.push(generators::random_graph_cm(640, seed).unwrap());
            graphs.push(generators::random_geometric(400, 1.5, seed));
            graphs.push(generators::rgg_paper(512, seed));
        }
        for g in &graphs {
            let fast = greedy_edge_coloring(g);
            let oracle = greedy_by_stamps(g);
            assert_eq!(fast.colors(), oracle.colors(), "{:?}", g.kind());
            assert_eq!(fast.num_colors(), oracle.num_colors(), "{:?}", g.kind());
            assert!(fast.is_proper(g), "{:?}", g.kind());
            assert!(
                fast.num_colors() as usize <= (2 * g.max_degree()).saturating_sub(1),
                "{:?}: {} colors for Δ = {}",
                g.kind(),
                fast.num_colors(),
                g.max_degree()
            );
        }
    }

    #[test]
    fn greedy_spill_path_runs_and_equals_the_oracle() {
        let g = star_glued_to_clique(300, 40);
        let (fast, spill_scans) = greedy_coloring_counting_spills(&g);
        assert!(spill_scans > 0, "no search read a spilled endpoint");
        assert_eq!(fast, greedy_by_stamps(&g));
    }

    #[test]
    fn edgeless_graph_has_empty_coloring() {
        let g = generators::path(1);
        let c = edge_coloring(&g);
        assert_eq!(c.num_colors(), 0);
        assert!(c.colors().is_empty());
        assert!(maximal_matchings(&g, &c).is_empty());
    }

    #[test]
    fn class_masks_partition_the_edges() {
        let g = generators::torus2d(4, 6);
        let c = edge_coloring(&g);
        let masks = c.class_masks();
        assert_eq!(masks.len(), c.num_colors() as usize);
        let mut total = 0;
        for (color, mask) in masks.iter().enumerate() {
            let class = mask_edges(mask, g.edge_count());
            assert!(is_matching(&g, &class), "class {color}");
            for &e in &class {
                assert_eq!(c.colors()[e as usize], color as u32);
            }
            total += class.len();
        }
        assert_eq!(total, g.edge_count());
    }

    #[test]
    fn maximal_matchings_are_maximal_and_cover() {
        for g in [
            generators::torus2d(5, 5),
            generators::hypercube(4),
            generators::random_graph_cm(30, 7).unwrap(),
            generators::star(6),
        ] {
            let c = edge_coloring(&g);
            let family = maximal_matchings(&g, &c);
            assert_eq!(family.len(), c.num_colors() as usize);
            let mut covered = vec![false; g.edge_count()];
            for (i, mask) in family.iter().enumerate() {
                let matching = mask_edges(mask, g.edge_count());
                assert!(is_maximal_matching(&g, &matching), "matching {i} of {g:?}");
                for e in matching {
                    covered[e as usize] = true;
                }
            }
            assert!(covered.iter().all(|&c| c), "family covers every edge");
        }
    }

    /// Reference for [`extend_greedy`]: one scan of all edges marks the
    /// matched nodes, and a second one adds, in edge-id order, every edge
    /// whose endpoints are both live and unmatched.
    fn extend_by_rescan(graph: &Graph, live_nodes: &[u64], mask: &mut [u64]) {
        let mut matched = vec![false; graph.node_count()];
        for (e, (u, v)) in graph.edges().enumerate() {
            if (mask[e >> 6] >> (e & 63)) & 1 == 1 {
                matched[u as usize] = true;
                matched[v as usize] = true;
            }
        }
        for (e, (u, v)) in graph.edges().enumerate() {
            let (u, v) = (u as usize, v as usize);
            let addable = !matched[u] && !matched[v];
            if addable && live(live_nodes, u as NodeId) && live(live_nodes, v as NodeId) {
                matched[u] = true;
                matched[v] = true;
                mask[e >> 6] |= 1u64 << (e & 63);
            }
        }
    }

    /// Reference for [`maximal_matchings`]: per color, one scan of all
    /// edges collects the class mask and [`extend_by_rescan`] extends it
    /// with every node live.
    fn maximal_matchings_by_rescan(graph: &Graph, coloring: &EdgeColoring) -> Vec<Vec<u64>> {
        let all_live = vec![u64::MAX; graph.node_count().div_ceil(64)];
        (0..coloring.num_colors())
            .map(|c| {
                let mut mask = vec![0u64; graph.edge_count().div_ceil(64)];
                for (e, &color) in coloring.colors.iter().enumerate() {
                    if color == c {
                        mask[e >> 6] |= 1u64 << (e & 63);
                    }
                }
                extend_by_rescan(graph, &all_live, &mut mask);
                mask
            })
            .collect()
    }

    #[test]
    fn maximal_matchings_equal_the_rescan_on_every_family() {
        let mut graphs = vec![
            generators::torus2d(5, 5),
            generators::torus2d(6, 8),
            generators::torus2d(2, 5),
            generators::torus(&[3, 4, 5]),
            generators::hypercube(6),
            generators::cycle(9),
            generators::path(7),
            generators::complete(9),
            generators::star(8),
            generators::grid2d(5, 7),
            generators::path(0),
        ];
        for seed in 0..4 {
            graphs.push(generators::erdos_renyi(60, 0.08, seed));
            graphs.push(generators::random_regular(80, 5, seed).unwrap());
            graphs.push(generators::random_graph_cm(100, seed).unwrap());
            graphs.push(generators::random_geometric(120, 1.5, seed));
            graphs.push(generators::rgg_paper(200, seed));
        }
        for g in &graphs {
            let c = edge_coloring(g);
            assert_eq!(
                maximal_matchings(g, &c),
                maximal_matchings_by_rescan(g, &c),
                "{g:?}"
            );
            // Any proper coloring, not only the one the kind selects. The
            // singleton coloring costs O(m²), so it runs on the small graphs.
            let mut colorings = vec![greedy_edge_coloring(g)];
            if g.edge_count() <= 400 {
                colorings.push(singleton_coloring(g));
            }
            for c in colorings {
                assert_eq!(
                    maximal_matchings(g, &c),
                    maximal_matchings_by_rescan(g, &c),
                    "{g:?} ({} colors)",
                    c.num_colors()
                );
            }
        }
    }

    /// The proper coloring with one edge per class, under which the
    /// greedy extension builds almost every matching on its own.
    fn singleton_coloring(g: &Graph) -> EdgeColoring {
        let m = g.edge_count() as u32;
        EdgeColoring {
            colors: (0..m).collect(),
            num_colors: m,
        }
    }

    /// Strategy: a graph hand-built from a random edge list.
    fn random_graph() -> impl proptest::Strategy<Value = Graph> {
        use proptest::collection::vec as pvec;
        use proptest::prelude::*;
        (2usize..40).prop_flat_map(|n| {
            pvec((0..n as NodeId, 0..n as NodeId), 0..150).prop_map(move |candidates| {
                let mut b = crate::GraphBuilder::new(n);
                for (u, v) in candidates {
                    b.add_edge_dedup(u, v);
                }
                b.build()
            })
        })
    }

    proptest::proptest! {
        /// The same on random graphs.
        #[test]
        fn maximal_matchings_equal_the_rescan_on_random_graphs(g in random_graph()) {
            for c in [edge_coloring(&g), singleton_coloring(&g)] {
                proptest::prop_assert_eq!(
                    maximal_matchings(&g, &c),
                    maximal_matchings_by_rescan(&g, &c)
                );
            }
        }

        /// The bitset greedy coloring equals the stamp oracle.
        #[test]
        fn greedy_equals_the_stamp_oracle_on_random_graphs(g in random_graph()) {
            proptest::prop_assert_eq!(greedy_edge_coloring(&g), greedy_by_stamps(&g));
        }
    }

    #[test]
    fn coloring_is_deterministic() {
        let g = generators::random_graph_cm(50, 11).unwrap();
        assert_eq!(edge_coloring(&g), edge_coloring(&g));
        let c = edge_coloring(&g);
        assert_eq!(maximal_matchings(&g, &c), maximal_matchings(&g, &c));
    }

    fn edge_mask(g: &Graph, edges: &[EdgeId]) -> Vec<u64> {
        let mut mask = vec![0u64; g.edge_count().div_ceil(64).max(1)];
        for &e in edges {
            mask[(e >> 6) as usize] |= 1u64 << (e & 63);
        }
        mask
    }

    fn node_mask(n: usize, dead: &[NodeId]) -> Vec<u64> {
        let mut live = vec![u64::MAX; n.div_ceil(64).max(1)];
        for &v in dead {
            live[(v >> 6) as usize] &= !(1u64 << (v & 63));
        }
        live
    }

    fn mask_edges(mask: &[u64], m: usize) -> Vec<EdgeId> {
        (0..m)
            .filter(|&e| (mask[e >> 6] >> (e & 63)) & 1 == 1)
            .map(|e| e as EdgeId)
            .collect()
    }

    #[test]
    fn mask_dead_edges_removes_exactly_dead_incidences() {
        let g = generators::torus2d(4, 4);
        let all: Vec<EdgeId> = (0..g.edge_count() as EdgeId).collect();
        let mut mask = edge_mask(&g, &all);
        let live = node_mask(g.node_count(), &[3, 7]);
        mask_dead_edges(&g, &live, &mut mask);
        for (e, (u, v)) in g.edges().enumerate() {
            let kept = (mask[e >> 6] >> (e & 63)) & 1 == 1;
            let touches_dead = u == 3 || v == 3 || u == 7 || v == 7;
            assert_eq!(kept, !touches_dead, "edge {e} ({u},{v})");
        }
        // All-live is the identity.
        let mut mask = edge_mask(&g, &all);
        mask_dead_edges(&g, &node_mask(g.node_count(), &[]), &mut mask);
        assert_eq!(mask_edges(&mask, g.edge_count()), all);
    }

    #[test]
    fn repair_recovers_freed_pairs() {
        // Cycle 0-1-2-3: matching {(0,1), (2,3)}. Killing 1 and 2 frees
        // 0 and 3, and the wrap edge (3,0) is the only live re-cover.
        let g = generators::cycle(4);
        let base: Vec<EdgeId> = g
            .edges()
            .enumerate()
            .filter(|&(_, (u, v))| (u, v) == (0, 1) || (u, v) == (2, 3))
            .map(|(e, _)| e as EdgeId)
            .collect();
        assert_eq!(base.len(), 2);
        let mut mask = edge_mask(&g, &base);
        repair_matching(&g, &node_mask(4, &[1, 2]), &mut mask);
        let repaired = mask_edges(&mask, g.edge_count());
        assert!(is_matching(&g, &repaired));
        assert_eq!(repaired.len(), 1);
        let (u, v) = g.edge(repaired[0]);
        assert_eq!((u.min(v), u.max(v)), (0, 3), "wrap edge re-covers 0 and 3");
    }

    /// Strategy for the equivalence proptests: a graph, plus a sequence
    /// of live-node sets (each an arbitrary subset of the nodes) modeling
    /// stepwise churn.
    fn churn_history() -> impl proptest::Strategy<Value = (Graph, Vec<Vec<bool>>)> {
        use proptest::collection::vec as pvec;
        use proptest::prelude::*;
        (8usize..40, any::<u64>()).prop_flat_map(|(n, seed)| {
            let g = match seed % 3 {
                0 => generators::cycle(n),
                1 => generators::torus2d(3, n / 3 + 2),
                _ => generators::random_graph_cm(n, 4).unwrap(),
            };
            let n = g.node_count();
            (Just(g), pvec(pvec(any::<bool>(), n), 1..5))
        })
    }

    fn bool_mask(alive: &[bool]) -> Vec<u64> {
        let mut words = vec![0u64; alive.len().div_ceil(64).max(1)];
        for (v, &a) in alive.iter().enumerate() {
            if a {
                words[v >> 6] |= 1u64 << (v & 63);
            }
        }
        words
    }

    proptest::proptest! {
        /// Repair-vs-rebuild equivalence: stepping a churn history the way
        /// the simulator does — re-deriving each epoch's masks *from the
        /// base family* — lands on exactly the masks a single one-shot
        /// repair with the final live set produces, for every class of the
        /// coloring. Checkpoint restore exploits this to rematerialize
        /// repaired families from (base, current live set) alone. The
        /// result is also a fixed point of repair, a matching maximal on
        /// the live subgraph, and never touches an inactive node.
        #[test]
        fn per_epoch_repair_equals_one_shot_rebuild((g, history) in churn_history()) {
            let coloring = edge_coloring(&g);
            let final_live = bool_mask(history.last().unwrap());
            for base in maximal_matchings(&g, &coloring) {
                // Per-epoch: clone the base family, repair with that epoch's
                // live set (the simulator's loop); keep the last epoch's mask.
                let mut stepped = Vec::new();
                for alive in &history {
                    stepped = base.clone();
                    repair_matching(&g, &bool_mask(alive), &mut stepped);
                }
                // One-shot rebuild from the pristine base, final live set.
                let mut rebuilt = base.clone();
                repair_matching(&g, &final_live, &mut rebuilt);
                proptest::prop_assert_eq!(&stepped, &rebuilt);
                // The same bits as the rescan oracle's extension.
                let mut oracle = base.clone();
                mask_dead_edges(&g, &final_live, &mut oracle);
                extend_by_rescan(&g, &final_live, &mut oracle);
                proptest::prop_assert_eq!(&oracle, &rebuilt);
                // Fixed point: repairing a repaired mask changes nothing.
                let mut again = rebuilt.clone();
                repair_matching(&g, &final_live, &mut again);
                proptest::prop_assert_eq!(&again, &rebuilt);
                // A matching, maximal on the live subgraph, active-only.
                let repaired = mask_edges(&rebuilt, g.edge_count());
                proptest::prop_assert!(is_matching(&g, &repaired));
                let mut matched = vec![false; g.node_count()];
                for &e in &repaired {
                    let (u, v) = g.edge(e);
                    proptest::prop_assert!(live(&final_live, u) && live(&final_live, v));
                    matched[u as usize] = true;
                    matched[v as usize] = true;
                }
                for (e, (u, v)) in g.edges().enumerate() {
                    let extendable = live(&final_live, u)
                        && live(&final_live, v)
                        && !matched[u as usize]
                        && !matched[v as usize];
                    proptest::prop_assert!(!extendable, "edge {} left addable", e);
                }
            }
        }

        /// [`extend_matching`] only ever adds edges, keeps the matching
        /// property, and covers every node that can be covered — the
        /// join-side guarantee for (re)activations.
        #[test]
        fn extension_is_monotone_and_maximal((g, history) in churn_history()) {
            let alive = bool_mask(history.last().unwrap());
            // Start from the empty matching: extension alone must reach a
            // maximal matching of the live subgraph.
            let mut mask = vec![0u64; g.edge_count().div_ceil(64).max(1)];
            extend_matching(&g, &alive, &mut mask);
            let mut oracle = vec![0u64; mask.len()];
            extend_by_rescan(&g, &alive, &mut oracle);
            proptest::prop_assert_eq!(&mask, &oracle);
            let chosen = mask_edges(&mask, g.edge_count());
            proptest::prop_assert!(is_matching(&g, &chosen));
            let before = chosen.len();
            // Idempotent: a second extension adds nothing.
            extend_matching(&g, &alive, &mut mask);
            proptest::prop_assert_eq!(mask_edges(&mask, g.edge_count()).len(), before);
        }
    }

    #[test]
    fn repaired_masks_stay_matchings_and_never_touch_dead_nodes() {
        for g in [
            generators::torus2d(6, 6),
            generators::hypercube(4),
            generators::random_graph_cm(40, 5).unwrap(),
        ] {
            let coloring = edge_coloring(&g);
            let live = node_mask(g.node_count(), &[0, 5, 9, 13, 21]);
            for mut mask in maximal_matchings(&g, &coloring) {
                let mut again = mask.clone();
                repair_matching(&g, &live, &mut mask);
                repair_matching(&g, &live, &mut again);
                assert_eq!(mask, again, "repair is deterministic");
                let repaired = mask_edges(&mask, g.edge_count());
                assert!(is_matching(&g, &repaired));
                for &e in &repaired {
                    let (u, v) = g.edge(e);
                    for w in [u, v] {
                        assert!(
                            (live[(w >> 6) as usize] >> (w & 63)) & 1 == 1,
                            "dead node {w} matched by edge {e}"
                        );
                    }
                }
            }
        }
    }
}
