//! Property-based tests of the graph substrate.

use proptest::collection::vec;
use proptest::prelude::*;

use sodiff_graph::{generators, traversal, GraphBuilder, NodeId};

/// Arbitrary edge candidate lists over up to 40 nodes.
fn edge_candidates() -> impl Strategy<Value = (usize, Vec<(NodeId, NodeId)>)> {
    (2usize..=40).prop_flat_map(|n| {
        let edges = vec((0..n as NodeId, 0..n as NodeId), 0..120);
        (Just(n), edges)
    })
}

proptest! {
    /// CSR invariants hold for any deduplicated edge set: degree sums,
    /// adjacency symmetry, canonical ordering, consistent edge ids.
    #[test]
    fn csr_invariants((n, candidates) in edge_candidates()) {
        let mut b = GraphBuilder::new(n);
        for (u, v) in candidates {
            b.add_edge_dedup(u, v);
        }
        let g = b.build();
        // Degree sum == 2m.
        let degree_sum: usize = g.nodes().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.edge_count());
        prop_assert_eq!(g.arc_count(), 2 * g.edge_count());
        // Canonical edges ordered and unique.
        let edges: Vec<_> = g.edges().collect();
        for w in edges.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        // Adjacency symmetric with matching edge ids; arc ranges partition.
        let mut total_arcs = 0;
        for u in g.nodes() {
            let range = g.arc_range(u);
            prop_assert_eq!(range.start, total_arcs);
            prop_assert_eq!(range.len(), g.degree(u));
            prop_assert_eq!(g.in_degree(u) + g.out_degree(u), g.degree(u));
            total_arcs += range.len();
            // Arcs are the in-arcs (u is the edge's head), then the
            // out-arcs (u is its tail), in ascending edge id.
            let arcs: Vec<_> = g.neighbor_edges(u).collect();
            prop_assert!(arcs.windows(2).all(|w| w[0] < w[1]));
            for (k, &e) in arcs.iter().enumerate() {
                let (tail, head) = g.edge(e);
                let owner = if k < g.in_degree(u) { head } else { tail };
                prop_assert_eq!(owner, u);
            }
            for (v, e) in g.neighbors(u) {
                prop_assert!(g.neighbors(v).any(|(w, f)| w == u && f == e));
                let (a, b2) = g.edge(e);
                prop_assert_eq!((a.min(b2), a.max(b2)), (u.min(v), u.max(v)));
            }
        }
        prop_assert_eq!(total_arcs, g.arc_count());
    }

    /// The edges the graph derives are exactly the canonical pairs it was
    /// given, sorted: `edges()` yields them in id order with an exact
    /// length, `edge(e)` and a forward `tails()` cursor agree with it for
    /// every `e`, and one head is stored per edge.
    #[test]
    fn derived_tails_give_back_the_pairs((n, candidates) in edge_candidates()) {
        let mut b = GraphBuilder::new(n);
        let mut given = Vec::new();
        for (u, v) in candidates {
            if b.add_edge_dedup(u, v) {
                given.push((u.min(v), u.max(v)));
            }
        }
        given.sort_unstable();
        let g = b.build();
        prop_assert_eq!(g.heads().len(), g.edge_count());
        prop_assert_eq!(g.edges().len(), given.len());
        prop_assert_eq!(g.edges().collect::<Vec<_>>(), given.clone());
        let mut tails = g.tails();
        for (e, &(u, v)) in given.iter().enumerate() {
            prop_assert_eq!(g.edge(e as u32), (u, v));
            prop_assert_eq!(g.tail(e as u32), u);
            prop_assert_eq!(tails.of(e), u);
        }
        // Cursors that skip edges, by a step or past many nodes at once,
        // find the same tails.
        for step in [3, 11, 40] {
            let mut sparse = g.tails();
            for (e, &(u, _)) in given.iter().enumerate().step_by(step) {
                prop_assert_eq!(sparse.of(e), u);
            }
        }
    }

    /// Component labels agree with pairwise BFS reachability.
    #[test]
    fn components_match_bfs((n, candidates) in edge_candidates()) {
        let mut b = GraphBuilder::new(n);
        for (u, v) in candidates {
            b.add_edge_dedup(u, v);
        }
        let g = b.build();
        let labels = traversal::component_labels(&g);
        let dist0 = traversal::bfs_distances(&g, 0);
        for v in g.nodes() {
            let reachable = dist0[v as usize] != traversal::UNREACHABLE;
            prop_assert_eq!(reachable, labels[v as usize] == labels[0]);
        }
    }

    /// Torus generators produce 2k-regular connected graphs.
    #[test]
    fn torus_regularity(rows in 3usize..12, cols in 3usize..12) {
        let g = generators::torus2d(rows, cols);
        prop_assert_eq!(g.node_count(), rows * cols);
        prop_assert!(g.nodes().all(|v| g.degree(v) == 4));
        prop_assert!(g.is_connected());
        prop_assert_eq!(
            traversal::diameter(&g),
            Some((rows / 2 + cols / 2) as u32)
        );
    }

    /// Configuration-model graphs respect the degree cap and stay close
    /// to nd/2 edges.
    #[test]
    fn configuration_model_degree_cap(
        n in 10usize..200,
        d in 2usize..8,
        seed in any::<u64>(),
    ) {
        prop_assume!(n * d % 2 == 0);
        let g = generators::random_regular(n, d, seed).unwrap();
        prop_assert!(g.max_degree() <= d);
        prop_assert!(g.edge_count() <= n * d / 2);
        prop_assert!(g.edge_count() + 6 * d * d >= n * d / 2);
    }

    /// Erdős–Rényi never exceeds the complete graph and is monotone-ish
    /// in p at the extremes.
    #[test]
    fn gnp_bounds(n in 2usize..80, p in 0.0f64..1.0, seed in any::<u64>()) {
        let g = generators::erdos_renyi(n, p, seed);
        prop_assert!(g.edge_count() <= n * (n - 1) / 2);
        prop_assert!(g.max_degree() < n);
    }

    /// RGG patching always yields one component, any radius.
    #[test]
    fn rgg_always_connected(n in 2usize..120, radius in 0.0f64..4.0, seed in any::<u64>()) {
        let g = generators::random_geometric(n, radius, seed);
        prop_assert!(g.is_connected());
    }

    /// Hypercube distances equal Hamming distances.
    #[test]
    fn hypercube_distance_is_hamming(dim in 1u32..8, src in any::<u32>()) {
        let g = generators::hypercube(dim);
        let n = g.node_count() as u32;
        let src = src % n;
        let dist = traversal::bfs_distances(&g, src);
        for v in 0..n {
            prop_assert_eq!(dist[v as usize], (src ^ v).count_ones());
        }
    }
}
