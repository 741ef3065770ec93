//! Network generators for the graph classes in the paper's evaluation
//! (Table I) plus classic topologies used in tests.
//!
//! All randomized generators take an explicit seed and are fully
//! deterministic for a fixed seed.
//!
//! Every generator emits its canonical `(u, v)` edge list (`u < v`) and
//! hands it to one assembly routine that counting-sorts it into
//! `(u, v)` order (a list already in order skips the sort) and fills
//! the CSR arrays in `O(n + m)`, with no per-edge hashing. Edge ids
//! therefore follow `(u, v)` order whatever order a generator emits in.
//! Only [`random_regular`] (and [`random_graph_cm`] through it) and the
//! component patch step of [`random_geometric`] can emit a pair twice,
//! and only there are repeats dropped; the other generators emit each
//! edge once. While it builds, a generator holds its edge list (8 bytes
//! per edge) and at most a 4-byte head per edge and one `n`-entry array
//! next to the finished graph.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

use crate::builder::{assemble, sort_edges, Repeats};
use crate::csr::{Graph, GraphKind, NodeId};
use crate::error::GraphError;
use crate::traversal::component_labels;

/// Two-dimensional torus with side lengths `rows × cols`, nodes in
/// row-major order; each node is connected to its 4-neighborhood with
/// periodic (wrap-around) boundaries.
///
/// For side length 1 or 2 the wrap-around edge coincides with the direct
/// edge and is inserted once (no parallel edges), so e.g. `torus2d(2, 2)`
/// is the 4-cycle.
///
/// # Panics
///
/// Panics if `rows == 0 || cols == 0`.
pub fn torus2d(rows: usize, cols: usize) -> Graph {
    torus(&[rows, cols])
}

/// k-dimensional torus with the given side lengths (row-major layout).
///
/// # Panics
///
/// Panics if `dims` is empty or any side is 0.
pub fn torus(dims: &[usize]) -> Graph {
    assert!(!dims.is_empty(), "torus needs at least one dimension");
    assert!(dims.iter().all(|&d| d > 0), "torus sides must be positive");
    let n: usize = dims.iter().product();
    let mut strides = vec![1usize; dims.len()];
    for i in (0..dims.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * dims[i + 1];
    }
    let mut edges = Vec::with_capacity(n * dims.len());
    // `coords` steps through the row-major coordinates of `v`.
    let mut coords = vec![0usize; dims.len()];
    for v in 0..n {
        // Each edge is emitted once, from its lower end: the direct edge
        // to the next coordinate, and from coordinate 0 the wrap-around
        // edge to the last one. A side of 1 has no edge, and on a side of
        // 2 the wrap-around edge is the direct one. The axes go from the
        // last (stride 1) to the first, so the heads come out ascending
        // (`(len - 1)·stride < len·stride`, the next axis's stride) and
        // the list is already in `(u, v)` order.
        for ((&coord, &len), &stride) in coords.iter().zip(dims).zip(&strides).rev() {
            if coord + 1 < len {
                edges.push((v as NodeId, (v + stride) as NodeId));
            }
            if coord == 0 && len > 2 {
                edges.push((v as NodeId, (v + (len - 1) * stride) as NodeId));
            }
        }
        for (coord, &len) in coords.iter_mut().zip(dims).rev() {
            *coord += 1;
            if *coord < len {
                break;
            }
            *coord = 0;
        }
    }
    let dims = dims.iter().map(|&d| d as u32).collect();
    assemble(n, edges, Repeats::Absent, GraphKind::Torus(dims))
}

/// Hypercube of dimension `dim` on `2^dim` nodes; nodes are adjacent iff
/// their indices differ in exactly one bit.
///
/// # Panics
///
/// Panics if `dim >= 32`.
pub fn hypercube(dim: u32) -> Graph {
    assert!(dim < 32, "hypercube dimension must be < 32");
    let n = 1usize << dim;
    let mut edges = Vec::with_capacity(n * dim as usize / 2);
    for v in 0..n {
        for bit in 0..dim {
            let u = v ^ (1usize << bit);
            if u > v {
                edges.push((v as NodeId, u as NodeId));
            }
        }
    }
    assemble(n, edges, Repeats::Absent, GraphKind::Hypercube(dim))
}

/// Cycle on `n ≥ 3` nodes.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle needs at least 3 nodes");
    let mut edges: Vec<_> = (1..n as NodeId).map(|v| (v - 1, v)).collect();
    edges.push((0, n as NodeId - 1));
    assemble(n, edges, Repeats::Absent, GraphKind::Cycle)
}

/// Path on `n ≥ 1` nodes.
pub fn path(n: usize) -> Graph {
    let edges = (1..n as NodeId).map(|v| (v - 1, v)).collect();
    assemble(n, edges, Repeats::Absent, GraphKind::Path)
}

/// Complete graph on `n` nodes.
pub fn complete(n: usize) -> Graph {
    let n_id = n as NodeId;
    let edges = (0..n_id)
        .flat_map(|u| (u + 1..n_id).map(move |v| (u, v)))
        .collect();
    assemble(n, edges, Repeats::Absent, GraphKind::Complete)
}

/// Star with hub 0 and `n - 1` leaves.
pub fn star(n: usize) -> Graph {
    let edges = (1..n as NodeId).map(|v| (0, v)).collect();
    assemble(n, edges, Repeats::Absent, GraphKind::Star)
}

/// Open (non-periodic) 2D grid `rows × cols` in row-major order.
pub fn grid2d(rows: usize, cols: usize) -> Graph {
    let n = rows * cols;
    let mut edges = Vec::with_capacity(2 * n);
    for r in 0..rows {
        for c in 0..cols {
            let v = (r * cols + c) as NodeId;
            if c + 1 < cols {
                edges.push((v, v + 1));
            }
            if r + 1 < rows {
                edges.push((v, v + cols as NodeId));
            }
        }
    }
    assemble(n, edges, Repeats::Absent, GraphKind::Generic)
}

/// Erdős–Rényi `G(n, p)` graph.
///
/// Uses the geometric skipping method, so the cost is proportional to the
/// number of generated edges rather than `n²`.
pub fn erdos_renyi(n: usize, p: f64, seed: u64) -> Graph {
    assert!((0.0..=1.0).contains(&p), "p must be in [0, 1]");
    let mut edges = Vec::new();
    if n < 2 || p == 0.0 {
        return assemble(n, edges, Repeats::Absent, GraphKind::Generic);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    if p >= 1.0 {
        return complete(n);
    }
    // Iterate over the strictly-upper-triangular pairs in lexicographic
    // order, skipping ahead by geometrically distributed gaps.
    let log1p = (1.0 - p).ln();
    let mut v: i64 = 1;
    let mut w: i64 = -1;
    let node_count = n;
    let n = n as i64;
    loop {
        let r: f64 = rng.random_range(0.0..1.0f64);
        let skip = ((1.0 - r).ln() / log1p).floor() as i64;
        w += 1 + skip;
        while w >= v && v < n {
            w -= v;
            v += 1;
        }
        if v >= n {
            break;
        }
        edges.push((w as NodeId, v as NodeId));
    }
    assemble(node_count, edges, Repeats::Absent, GraphKind::Generic)
}

/// Random `d`-regular multigraph candidate via the configuration model
/// ([Wormald 1999], the construction cited by the paper), with self-loops
/// and parallel edges dropped.
///
/// The result is a simple graph whose degrees are *at most* `d`; for
/// `d = O(log n)` the expected number of dropped edges is `O(d²)`, which is
/// exactly the regime of the paper's "Random Graph (CM)" with
/// `d = ⌊log₂ n⌋`. Retries `attempts` times and keeps the candidate with
/// the fewest dropped edges.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `n * d` is odd or `d >= n`.
pub fn random_regular(n: usize, d: usize, seed: u64) -> Result<Graph, GraphError> {
    if !(n * d).is_multiple_of(2) {
        return Err(GraphError::InvalidParameter(format!(
            "configuration model needs n*d even (n={n}, d={d})"
        )));
    }
    if d >= n {
        return Err(GraphError::InvalidParameter(format!(
            "degree d={d} must be smaller than n={n}"
        )));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let attempts = 4;
    let mut best: Option<Vec<(NodeId, NodeId)>> = None;
    for _ in 0..attempts {
        // Stubs: node v owns stubs v*d .. (v+1)*d. A uniform perfect
        // matching on stubs is a random pairing of a shuffled list.
        let mut stubs: Vec<NodeId> = (0..n as NodeId)
            .flat_map(|v| std::iter::repeat_n(v, d))
            .collect();
        stubs.shuffle(&mut rng);
        let mut edges = Vec::with_capacity(n * d / 2);
        edges.extend(
            stubs
                .chunks_exact(2)
                .filter(|pair| pair[0] != pair[1])
                .map(|pair| (pair[0].min(pair[1]), pair[0].max(pair[1]))),
        );
        sort_edges(n, &mut edges, Repeats::Drop);
        let better = match &best {
            None => true,
            Some(prev) => edges.len() > prev.len(),
        };
        if better {
            let perfect = edges.len() == n * d / 2;
            best = Some(edges);
            if perfect {
                break;
            }
        }
    }
    let edges = best.expect("at least one attempt");
    Ok(Graph::from_sorted_edges(n, edges, GraphKind::Generic))
}

/// Random geometric graph: `n` points uniform in `[0, √n]²`, nodes joined
/// when their Euclidean distance is at most `radius`; stray components are
/// then connected to the giant component by their closest node pair, as in
/// the paper's construction.
///
/// The paper uses `radius = 4·(log n)^(1/4) = 4·√(√(log n))` for
/// `n = 10⁴` (stated as `4·⁴√(log n)` in Table I); pass whatever radius the
/// experiment calls for.
pub fn random_geometric(n: usize, radius: f64, seed: u64) -> Graph {
    assert!(radius >= 0.0, "radius must be non-negative");
    let mut rng = StdRng::seed_from_u64(seed);
    let side = (n as f64).sqrt();
    let points: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.random_range(0.0..side), rng.random_range(0.0..side)))
        .collect();
    let mut edges = Vec::new();
    if n == 0 {
        return assemble(n, edges, Repeats::Absent, GraphKind::Generic);
    }
    // Cells of side `radius` make the neighbor search exact over the 3×3
    // cell block; the grid is capped at ~n cells so a tiny radius cannot
    // blow up memory.
    let min_cell = side / (n as f64).sqrt().ceil().max(1.0);
    let cell_size = radius.max(min_cell).max(1e-9);
    let cells_per_side = ((side / cell_size).ceil() as usize).max(1);
    let grid = CellGrid::new(cell_size, cells_per_side, &points, 0..n as NodeId);
    let r2 = radius * radius;
    for (i, &p) in points.iter().enumerate() {
        let c = grid.cell_of(p);
        for &j in (0..=1).flat_map(|k| grid.ring(c, k)).flatten() {
            if (j as usize) <= i {
                continue;
            }
            let q = points[j as usize];
            let (ddx, ddy) = (p.0 - q.0, p.1 - q.1);
            if ddx * ddx + ddy * ddy <= r2 {
                edges.push((i as NodeId, j));
            }
        }
    }
    let g = assemble(n, edges, Repeats::Absent, GraphKind::Generic);
    // Patch disconnected components: connect every non-giant component
    // to its closest node in the giant component.
    let labels = component_labels(&g);
    let num_components = labels.iter().max().map(|&m| m as usize + 1).unwrap_or(0);
    if num_components > 1 {
        let mut sizes = vec![0usize; num_components];
        for &l in &labels {
            sizes[l as usize] += 1;
        }
        let giant = sizes
            .iter()
            .enumerate()
            .max_by_key(|&(_, s)| *s)
            .map(|(i, _)| i as u32)
            .expect("non-empty");
        let giant_nodes = (0..n as NodeId).filter(|&v| labels[v as usize] == giant);
        let giant_grid = CellGrid::new(cell_size, cells_per_side, &points, giant_nodes);
        let mut edges = Vec::with_capacity(g.edge_count() + num_components - 1);
        edges.extend_from_slice(g.edges());
        edges.extend(closest_giant_pairs(&points, &giant_grid, &labels, giant));
        return assemble(n, edges, Repeats::Drop, GraphKind::Generic);
    }
    g
}

/// The uniform cell grid of [`random_geometric`]: `side × side` square
/// cells of side `size`, in row-major order, each listing its nodes in
/// ascending order. The lists are stored back to back, so a run of
/// cells in one row is one slice.
struct CellGrid {
    size: f64,
    side: usize,
    /// Cell `c`'s nodes are `nodes[start[c]..start[c + 1]]`.
    start: Vec<usize>,
    nodes: Vec<NodeId>,
}

impl CellGrid {
    /// The grid of `ids`, placed by their `points`.
    fn new(
        size: f64,
        side: usize,
        points: &[(f64, f64)],
        ids: impl Iterator<Item = NodeId>,
    ) -> Self {
        let mut grid = CellGrid {
            size,
            side,
            start: vec![0; side * side + 1],
            nodes: Vec::new(),
        };
        let placed: Vec<(usize, NodeId)> = ids
            .map(|id| {
                let (cx, cy) = grid.cell_of(points[id as usize]);
                (cy * side + cx, id)
            })
            .collect();
        for &(c, _) in &placed {
            grid.start[c + 1] += 1;
        }
        for c in 0..side * side {
            grid.start[c + 1] += grid.start[c];
        }
        let mut next = grid.start.clone();
        grid.nodes = vec![0; placed.len()];
        for (c, id) in placed {
            grid.nodes[next[c]] = id;
            next[c] += 1;
        }
        grid
    }

    fn cell_of(&self, p: (f64, f64)) -> (usize, usize) {
        let cx = ((p.0 / self.size) as usize).min(self.side - 1);
        let cy = ((p.1 / self.size) as usize).min(self.side - 1);
        (cx, cy)
    }

    /// The nodes of the cells at Chebyshev distance `k` from cell `c`
    /// (ring 0 is `c` itself), as one slice per row run.
    fn ring(&self, (cx, cy): (usize, usize), k: usize) -> impl Iterator<Item = &[NodeId]> + '_ {
        let last = self.side - 1;
        let (lo, hi) = (cx.saturating_sub(k), (cx + k).min(last));
        (cy.saturating_sub(k)..=(cy + k).min(last)).flat_map(move |y| {
            // The ring's top and bottom rows are whole; the rows between
            // hold only its two end cells.
            let runs = if y.abs_diff(cy) == k {
                [Some((lo, hi)), None]
            } else {
                [
                    (cx >= k).then(|| (cx - k, cx - k)),
                    (cx + k <= last).then(|| (cx + k, cx + k)),
                ]
            };
            runs.into_iter().flatten().map(move |(a, b)| {
                &self.nodes[self.start[y * self.side + a]..self.start[y * self.side + b + 1]]
            })
        })
    }
}

/// The patch edge of every component but `giant`: its node pair `(v, u)`
/// with `u` in the giant component at the least `(d², v, u)`, the pair a
/// scan over every stray node `v` and giant node `u` in ascending order
/// keeps under a strict `<`. Each `v` searches `giant_grid` (the giant's
/// nodes only) ring by ring out from its own cell. Ring `k + 1` and
/// beyond lie more than `k·size` away, so once the component's best pair
/// is closer than that, no farther node can beat or tie it; one more
/// ring is searched so that float rounding cannot hide a tie. A search
/// that would cover more cells than the giant has nodes scans the giant
/// directly instead, so no `v` costs more than that scan.
fn closest_giant_pairs(
    points: &[(f64, f64)],
    giant_grid: &CellGrid,
    labels: &[u32],
    giant: u32,
) -> Vec<(NodeId, NodeId)> {
    let components = labels.iter().max().map_or(0, |&m| m as usize + 1);
    let mut best: Vec<Option<(f64, NodeId, NodeId)>> = vec![None; components];
    for (v, &label) in labels.iter().enumerate() {
        if label == giant {
            continue;
        }
        let (p, c) = (points[v], giant_grid.cell_of(points[v]));
        let best = &mut best[label as usize];
        let offer = |best: &mut Option<_>, us: &[NodeId]| {
            for &u in us {
                let q = points[u as usize];
                let pair = ((p.0 - q.0).powi(2) + (p.1 - q.1).powi(2), v as NodeId, u);
                if best.is_none_or(|b| pair < b) {
                    *best = Some(pair);
                }
            }
        };
        let mut last_ring = giant_grid.side - 1;
        let mut k = 0;
        while k <= last_ring {
            if (2 * k + 1).pow(2) > giant_grid.nodes.len() {
                offer(best, &giant_grid.nodes);
                break;
            }
            for run in giant_grid.ring(c, k) {
                offer(best, run);
            }
            let bound = k as f64 * giant_grid.size;
            if k < last_ring && best.is_some_and(|b| b.0 < bound * bound) {
                last_ring = k + 1;
            }
            k += 1;
        }
    }
    best.into_iter()
        .flatten()
        .map(|(_, v, u)| (v.min(u), v.max(u)))
        .collect()
}

/// The paper's "Random Graph (CM)": configuration model with
/// `d = ⌊log₂ n⌋` (Table I).
pub fn random_graph_cm(n: usize, seed: u64) -> Result<Graph, GraphError> {
    let mut d = (n as f64).log2().floor() as usize;
    if n * d % 2 == 1 {
        d -= 1; // keep n*d even, degree stays Θ(log n)
    }
    random_regular(n, d, seed)
}

/// The paper's random geometric graph configuration:
/// `n` points, `radius = 4·(log n)^(1/4)` (Table I).
pub fn rgg_paper(n: usize, seed: u64) -> Graph {
    let radius = 4.0 * (n as f64).ln().powf(0.25);
    random_geometric(n, radius, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::connected_components;

    #[test]
    fn torus2d_structure() {
        let g = torus2d(5, 7);
        assert_eq!(g.node_count(), 35);
        assert_eq!(g.edge_count(), 2 * 35);
        assert!(g.nodes().all(|v| g.degree(v) == 4));
        assert!(g.is_connected());
        assert_eq!(*g.kind(), GraphKind::Torus(vec![5, 7]));
    }

    #[test]
    fn torus2d_wraps_around() {
        let g = torus2d(4, 4);
        // Node 0 = (0,0) must be adjacent to (0,3)=3 and (3,0)=12.
        assert!(g.has_edge(0, 3));
        assert!(g.has_edge(0, 12));
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(0, 4));
    }

    #[test]
    fn degenerate_small_torus() {
        let g = torus2d(2, 2); // == 4-cycle
        assert_eq!(g.edge_count(), 4);
        assert!(g.nodes().all(|v| g.degree(v) == 2));
        let g = torus2d(1, 5); // == 5-cycle
        assert_eq!(g.edge_count(), 5);
        assert!(g.is_connected());
    }

    #[test]
    fn torus_3d() {
        let g = torus(&[3, 3, 3]);
        assert_eq!(g.node_count(), 27);
        assert!(g.nodes().all(|v| g.degree(v) == 6));
        assert!(g.is_connected());
    }

    #[test]
    fn hypercube_structure() {
        let g = hypercube(6);
        assert_eq!(g.node_count(), 64);
        assert_eq!(g.edge_count(), 64 * 6 / 2);
        assert!(g.nodes().all(|v| g.degree(v) == 6));
        assert!(g.is_connected());
        assert_eq!(*g.kind(), GraphKind::Hypercube(6));
        // Adjacency iff Hamming distance 1.
        for u in g.nodes() {
            for v in g.neighbor_nodes(u) {
                assert_eq!((u ^ v).count_ones(), 1);
            }
        }
    }

    #[test]
    fn classic_topologies() {
        assert_eq!(cycle(6).edge_count(), 6);
        assert_eq!(path(6).edge_count(), 5);
        assert_eq!(complete(6).edge_count(), 15);
        assert_eq!(star(6).edge_count(), 5);
        assert_eq!(star(6).degree(0), 5);
        let g = grid2d(3, 4);
        assert_eq!(g.node_count(), 12);
        assert_eq!(g.edge_count(), 3 * 3 + 2 * 4);
        assert!(g.is_connected());
    }

    #[test]
    fn erdos_renyi_extremes() {
        assert_eq!(erdos_renyi(50, 0.0, 1).edge_count(), 0);
        assert_eq!(erdos_renyi(10, 1.0, 1).edge_count(), 45);
    }

    #[test]
    fn erdos_renyi_density_is_plausible() {
        let n = 400;
        let p = 0.05;
        let g = erdos_renyi(n, p, 42);
        let expected = p * (n * (n - 1) / 2) as f64;
        let got = g.edge_count() as f64;
        assert!(
            (got - expected).abs() < 4.0 * expected.sqrt() + 10.0,
            "edges {got} vs expected {expected}"
        );
    }

    #[test]
    fn erdos_renyi_is_deterministic_per_seed() {
        let a = erdos_renyi(100, 0.1, 7);
        let b = erdos_renyi(100, 0.1, 7);
        assert_eq!(a, b);
        let c = erdos_renyi(100, 0.1, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn random_regular_rejects_bad_params() {
        assert!(random_regular(5, 3, 1).is_err()); // nd odd
        assert!(random_regular(4, 4, 1).is_err()); // d >= n
    }

    #[test]
    fn random_regular_degrees_close_to_d() {
        let n = 500;
        let d = 8;
        let g = random_regular(n, d, 3).unwrap();
        assert!(g.max_degree() <= d);
        // The configuration model drops O(d^2) edges in expectation.
        assert!(g.edge_count() >= n * d / 2 - 5 * d * d);
        assert!(g.is_connected(), "random regular graph should be connected");
    }

    #[test]
    fn random_graph_cm_paper_settings_scaled() {
        let g = random_graph_cm(4096, 11).unwrap();
        assert_eq!(g.node_count(), 4096);
        assert!(g.max_degree() <= 12); // log2(4096) = 12
        assert!(g.is_connected());
    }

    #[test]
    fn rgg_is_connected_after_patching() {
        let g = random_geometric(300, 1.2, 5);
        assert_eq!(g.node_count(), 300);
        assert_eq!(connected_components(&g), 1);
    }

    #[test]
    fn rgg_paper_radius_is_dense_enough() {
        let g = rgg_paper(500, 9);
        assert!(g.is_connected());
        // With r = 4 (ln n)^{1/4} ≈ 6.3 at n=500 on a ~22x22 square the
        // graph is quite dense; just sanity-check the scale.
        assert!(g.min_degree() >= 1);
        assert!(g.max_degree() < 500);
    }

    #[test]
    fn rgg_zero_radius_still_connects() {
        // Degenerate: no geometric edges at all; the patching step must
        // still produce one component (a tree of closest pairs).
        let g = random_geometric(20, 0.0, 2);
        assert_eq!(connected_components(&g), 1);
        assert_eq!(g.edge_count(), 19);
    }

    /// The patch step as it was first written: every stray node against
    /// every giant node, in ascending order, keeping a strictly closer
    /// pair.
    fn closest_giant_pairs_brute_force(
        points: &[(f64, f64)],
        labels: &[u32],
        giant: u32,
    ) -> Vec<(NodeId, NodeId)> {
        let n = points.len() as NodeId;
        let giant_nodes: Vec<NodeId> = (0..n).filter(|&v| labels[v as usize] == giant).collect();
        let components = labels.iter().max().map_or(0, |&m| m + 1);
        let mut pairs = Vec::new();
        for comp in (0..components).filter(|&c| c != giant) {
            let mut best: Option<(f64, NodeId, NodeId)> = None;
            for v in (0..n).filter(|&v| labels[v as usize] == comp) {
                let p = points[v as usize];
                for &u in &giant_nodes {
                    let q = points[u as usize];
                    let d2 = (p.0 - q.0).powi(2) + (p.1 - q.1).powi(2);
                    if best.map(|(bd, _, _)| d2 < bd).unwrap_or(true) {
                        best = Some((d2, v, u));
                    }
                }
            }
            if let Some((_, v, u)) = best {
                pairs.push((v.min(u), v.max(u)));
            }
        }
        pairs
    }

    /// The grid search of the patch step picks the pair the brute-force
    /// double loop picks, on instances with many stray components: points
    /// in general position and on an integer lattice (where equal
    /// distances abound, so the tie-breaking is exercised), with cells of
    /// the generator's size and of sizes unrelated to the radius, and with
    /// a one-node giant (every node isolated).
    #[test]
    fn patch_step_matches_brute_force() {
        let mut instances = 0;
        for seed in 0..12u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 150 + 50 * seed as usize;
            let extent = (n as f64).sqrt();
            let lattice = seed % 2 == 1;
            let points: Vec<(f64, f64)> = (0..n)
                .map(|_| {
                    let p = (rng.random_range(0.0..extent), rng.random_range(0.0..extent));
                    if lattice {
                        (p.0.floor(), p.1.floor())
                    } else {
                        p
                    }
                })
                .collect();
            for radius in [0.0, 0.8, 1.0, 1.2] {
                let mut uf = crate::unionfind::UnionFind::new(n);
                for v in 0..n {
                    for u in v + 1..n {
                        let (p, q) = (points[v], points[u]);
                        if (p.0 - q.0).powi(2) + (p.1 - q.1).powi(2) <= radius * radius {
                            uf.union(v as u32, u as u32);
                        }
                    }
                }
                let labels: Vec<u32> = (0..n as u32).map(|v| uf.find(v)).collect();
                let mut sizes = vec![0usize; n];
                for &l in &labels {
                    sizes[l as usize] += 1;
                }
                let giant = (0..n).max_by_key(|&l| sizes[l]).unwrap() as u32;
                let expected = closest_giant_pairs_brute_force(&points, &labels, giant);
                assert!(radius > 0.0 || lattice || expected.len() == n - 1);
                for size in [radius.max(1.0), 0.37, 2.5] {
                    let side = (extent / size).ceil() as usize;
                    let giant_nodes = (0..n as NodeId).filter(|&v| labels[v as usize] == giant);
                    let grid = CellGrid::new(size, side, &points, giant_nodes);
                    assert_eq!(
                        closest_giant_pairs(&points, &grid, &labels, giant),
                        expected,
                        "seed {seed}, radius {radius}, cell size {size}"
                    );
                    instances += 1;
                }
            }
        }
        assert_eq!(instances, 144);
    }

    #[test]
    fn rgg_deterministic_per_seed() {
        assert_eq!(random_geometric(200, 1.5, 4), random_geometric(200, 1.5, 4));
    }
}
