//! Property-based invariants over random graphs, loads, speeds, schemes,
//! and rounding modes.

use proptest::prelude::*;

use sodiff::core::prelude::*;
use sodiff::graph::{Graph, GraphBuilder};
use sodiff::linalg::diffusion::DiffusionOperator;

/// A random connected graph on 3..=24 nodes: a random spanning tree plus
/// random extra edges.
fn connected_graph() -> impl Strategy<Value = Graph> {
    (3usize..=24, any::<u64>()).prop_map(|(n, seed)| {
        let mut b = GraphBuilder::new(n);
        let mut rng = seed;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        // Random spanning tree: attach node i to a random previous node.
        for i in 1..n as u32 {
            let parent = (next() % i as u64) as u32;
            b.add_edge(parent, i).unwrap();
        }
        // Sprinkle extra edges.
        for _ in 0..n {
            let u = (next() % n as u64) as u32;
            let v = (next() % n as u64) as u32;
            b.add_edge_dedup(u, v);
        }
        b.build()
    })
}

fn any_rounding() -> impl Strategy<Value = Rounding> {
    prop_oneof![
        any::<u64>().prop_map(Rounding::randomized),
        Just(Rounding::round_down()),
        Just(Rounding::nearest()),
        any::<u64>().prop_map(Rounding::unbiased_edge),
    ]
}

fn any_scheme() -> impl Strategy<Value = Scheme> {
    prop_oneof![Just(Scheme::fos()), (0.05f64..1.95).prop_map(Scheme::sos),]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Token conservation holds for every graph/scheme/rounding/initial
    /// load combination.
    #[test]
    fn tokens_are_conserved(
        g in connected_graph(),
        scheme in any_scheme(),
        rounding in any_rounding(),
        per_node in 0i64..500,
        rounds in 1usize..60,
    ) {
        let n = g.node_count();
        let mut sim = Experiment::on(&g)
            .discrete(rounding)
            .scheme(scheme)
            .init(InitialLoad::EqualPerNode(per_node))
            .build()
            .unwrap()
            .simulator();
        // Perturb: move everything from node 0's perspective by using a
        // point load on top would need custom; equal load suffices to
        // check conservation is exact under rounding noise.
        sim.run_until(StopCondition::MaxRounds(rounds));
        prop_assert_eq!(sim.total_load(), (per_node * n as i64) as f64);
    }

    /// A point load spreads but never changes the total, and the maximum
    /// load never exceeds the initial maximum. This holds for the
    /// framework and round-down schemes, which never overdraw a node under
    /// FOS (per-edge unbiased and nearest rounding can, so they are
    /// excluded here and covered by the conservation property above).
    #[test]
    fn point_load_max_never_grows(
        g in connected_graph(),
        rounding in prop_oneof![
            any::<u64>().prop_map(Rounding::randomized),
            Just(Rounding::round_down()),
        ],
        total in 1i64..5000,
        rounds in 1usize..60,
    ) {
        let mut sim = Experiment::on(&g)
            .discrete(rounding)
            .init(InitialLoad::point(0, total))
            .build()
            .unwrap()
            .simulator();
        for _ in 0..rounds {
            sim.step();
            let max = sim.loads_i64().unwrap().iter().copied().max().unwrap();
            prop_assert!(max <= total);
        }
        prop_assert_eq!(sim.total_load(), total as f64);
    }

    /// FOS with any rounding never produces negative load (each node sends
    /// at most `Σ_j α_ij < 1` of its normalized load and rounding only
    /// shrinks per-node outflow relative to ⌈r⌉ ≤ outdegree... checked
    /// empirically here as a regression property).
    #[test]
    fn fos_randomized_framework_transient_bounded(
        g in connected_graph(),
        total in 0i64..2000,
        rounds in 1usize..40,
    ) {
        let d = g.max_degree() as f64;
        let mut sim = Experiment::on(&g)
            .discrete(Rounding::randomized(7))
            .init(InitialLoad::point(0, total))
            .build()
            .unwrap()
            .simulator();
        sim.run_until(StopCondition::MaxRounds(rounds));
        // FOS sends at most x_i·d/(d+1) plus at most d excess tokens.
        prop_assert!(
            sim.min_transient_load() >= -d,
            "transient {} below -d = {}", sim.min_transient_load(), -d
        );
    }

    /// The balanced vector is a fixed point of the continuous process for
    /// arbitrary speeds.
    #[test]
    fn balanced_vector_is_fixed_point(
        g in connected_graph(),
        seed in any::<u64>(),
    ) {
        let n = g.node_count();
        let speeds = Speeds::random_skewed(n, 8.0, 1.0, seed);
        let op = DiffusionOperator::new(&g, &speeds);
        let bal = speeds.balanced_load(1000.0);
        let mut out = vec![0.0; n];
        op.apply(&bal, &mut out);
        for (a, b) in bal.iter().zip(&out) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    /// Continuous FOS monotonically decreases the 2-norm potential.
    #[test]
    fn continuous_fos_potential_decreases(
        g in connected_graph(),
        total in 100i64..10_000,
    ) {
        let mut sim = Experiment::on(&g)
            .continuous()
            .init(InitialLoad::point(0, total))
            .build()
            .unwrap()
            .simulator();
        let mut prev = sim.metrics().potential_over_n;
        for _ in 0..30 {
            sim.step();
            let cur = sim.metrics().potential_over_n;
            prop_assert!(cur <= prev + 1e-9, "potential rose: {prev} -> {cur}");
            prev = cur;
        }
    }

    /// Flow antisymmetry is structural: replaying the previous round's
    /// flows from both endpoints yields opposite signs. (The engine stores
    /// one value per canonical edge; this checks the exposed view.)
    #[test]
    fn flows_conserve_when_reapplied(
        g in connected_graph(),
        total in 100i64..5000,
    ) {
        let mut sim = Experiment::on(&g)
            .discrete(Rounding::randomized(3))
            .init(InitialLoad::point(0, total))
            .build()
            .unwrap()
            .simulator();
        let before: Vec<i64> = sim.loads_i64().unwrap().to_vec();
        sim.step();
        let after: Vec<i64> = sim.loads_i64().unwrap().to_vec();
        let flows = sim.previous_flows();
        // after = before - B·flows where B is the incidence matrix.
        let mut reconstructed = before.clone();
        for (e, (u, v)) in g.edges().enumerate() {
            let y = flows[e] as i64;
            reconstructed[u as usize] -= y;
            reconstructed[v as usize] += y;
        }
        prop_assert_eq!(reconstructed, after);
    }

    /// Metrics are invariant under adding a constant load to every node
    /// (max-avg, local diff, potential) in the homogeneous model.
    #[test]
    fn metrics_shift_invariance(
        g in connected_graph(),
        base in 0i64..100,
    ) {
        use sodiff::core::metrics::snapshot;
        let n = g.node_count();
        let speeds = Speeds::uniform(n);
        let loads: Vec<i64> = (0..n as i64).map(|i| (i * 7) % 23).collect();
        let shifted: Vec<i64> = loads.iter().map(|&x| x + base).collect();
        let a = snapshot(&g, &speeds, &loads);
        let b = snapshot(&g, &speeds, &shifted);
        prop_assert!((a.max_minus_avg - b.max_minus_avg).abs() < 1e-9);
        prop_assert!((a.max_local_diff - b.max_local_diff).abs() < 1e-9);
        prop_assert!((a.potential_over_n - b.potential_over_n).abs() < 1e-6);
    }
}
