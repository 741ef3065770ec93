//! Layout guard for the per-simulation tables: the kernel tables read the
//! graph's own CSR arrays instead of holding a copy, a `Graph` clone
//! shares its arrays, the tables hold the coefficients the scheme's
//! rounds read (the diffusion `α_e/s` pair, or the pairwise schemes'
//! λ-scaled pair, and no other table), a table whose entries all hold
//! the same bits is that one value, and otherwise the two coefficient
//! tables are one buffer whenever they hold the same numbers (uniform
//! speeds). The golden, heterogeneous-speeds and determinism suites
//! prove the bits did not move; this file pins where they live.

use std::sync::Arc;

use sodiff::core::kernel::{Coefs, Ideal};
use sodiff::core::prelude::*;
use sodiff::graph::{generators, Graph};

/// Same address and length.
fn same<T>(a: &[T], b: &[T]) -> bool {
    std::ptr::eq(a, b)
}

fn simulator(
    g: &Graph,
    scheme: Scheme,
    speeds: Speeds,
    rounding: Rounding,
    threads: usize,
) -> Simulator<'_> {
    let n = g.node_count();
    Experiment::on(g)
        .discrete(rounding)
        .scheme(scheme)
        .speeds(speeds)
        .threads(threads)
        .init(InitialLoad::point(0, 100 * n as i64))
        .build()
        .unwrap()
        .simulator()
}

#[test]
fn graph_clone_shares_its_arrays() {
    let g = generators::torus2d(8, 8);
    let c = g.clone();
    assert_eq!(c, g);
    assert!(same(c.out_offsets(), g.out_offsets()));
    assert!(same(c.in_offsets(), g.in_offsets()));
    assert!(same(c.in_edge_ids(), g.in_edge_ids()));
    assert!(same(c.heads(), g.heads()));
}

#[test]
fn kernel_tables_read_the_graph_csr_and_hold_one_value_on_the_torus() {
    // The benchmark's headline run: SOS with randomized rounding on the
    // 256² torus, sequential and on the worker pool. The torus is
    // regular, so every edge has `α = 1/5`, and the speeds are uniform,
    // so every node has the balanced load `T/n`.
    let g = generators::torus2d(256, 256);
    let n = g.node_count();
    let (sos, rounding) = (Scheme::sos(1.9), Rounding::randomized(42));
    for threads in [1, 2] {
        let sim = simulator(&g, sos, Speeds::uniform(n), rounding, threads);
        let t = sim.kernel_tables();
        let tg = t.graph();
        assert!(same(tg.out_offsets(), g.out_offsets()));
        assert!(same(tg.in_offsets(), g.in_offsets()));
        assert!(same(tg.in_edge_ids(), g.in_edge_ids()));
        assert!(same(tg.heads(), g.heads()));
        // Two `u32` offset arrays, and one head and one in-arc edge id
        // per edge: `8·(n + 1) + 8·m`.
        assert_eq!(tg.memory_bytes(), 1_572_872);
        assert!(matches!(t.coefs, Coefs::Same(c, h) if c == 0.2 && h == 0.2));
        assert!(matches!(t.ideal, Ideal::Same(x) if x == 100.0));
        // Both tables are one value each: no per-edge or per-node bytes.
        assert_eq!(sim.table_bytes(), 0);
    }
}

/// An irregular graph under uniform speeds keeps one per-edge table,
/// shared by both halves of the pair (`α_e` varies with the endpoint
/// degrees), and one balanced load: `8·m` bytes.
#[test]
fn irregular_graphs_share_one_coefficient_table_under_uniform_speeds() {
    let g = generators::grid2d(16, 16);
    let (n, m) = (g.node_count(), g.edge_count());
    for threads in [1, 2] {
        let sim = simulator(
            &g,
            Scheme::sos(1.9),
            Speeds::uniform(n),
            Rounding::nearest(),
            threads,
        );
        let t = sim.kernel_tables();
        assert!(matches!(&t.coefs, Coefs::Each(tail, head) if Arc::ptr_eq(tail, head)));
        for (e, (u, v)) in g.edges().enumerate() {
            assert_eq!(t.coefs.get(e), (g.alpha(u, v), g.alpha(u, v)), "edge {e}");
        }
        assert!(matches!(t.ideal, Ideal::Same(x) if x == 100.0));
        assert_eq!(sim.table_bytes(), 8 * m);
    }
}

/// The pairwise schemes' λ-scaled pair, at λ = 0.5 on uniform speeds
/// `λ·s_v/(s_u+s_v) = 0.25` on every edge of any graph, is one value: no
/// diffusion `α_e/s` table is built beside it, and no per-edge table.
#[test]
fn pairwise_tables_hold_the_lambda_pair_as_one_value() {
    for g in [generators::torus2d(16, 16), generators::grid2d(16, 16)] {
        let n = g.node_count();
        for scheme in [
            Scheme::dimension_exchange(0.5),
            Scheme::matching_round_robin(0.5),
            Scheme::matching_random(3, 0.5),
        ] {
            for threads in [1, 2] {
                let sim = simulator(&g, scheme, Speeds::uniform(n), Rounding::nearest(), threads);
                let t = sim.kernel_tables();
                assert!(same(t.graph().heads(), g.heads()), "{scheme}");
                assert!(matches!(t.coefs, Coefs::Same(c, h) if c == 0.25 && h == 0.25));
                assert!(matches!(t.ideal, Ideal::Same(x) if x == 100.0));
                assert_eq!(sim.table_bytes(), 0, "{scheme}");
            }
        }
    }
}

/// Under two-class speeds each scheme keeps two coefficient tables, and
/// they hold its own pair: `α_e/s` for SOS, the λ-scaled pair for a
/// matching run.
#[test]
fn heterogeneous_speeds_keep_two_coefficient_tables() {
    let g = generators::torus2d(16, 16);
    let (n, m) = (g.node_count(), g.edge_count());
    let speeds = Speeds::two_class(n, n / 4, 3.0);
    for scheme in [Scheme::sos(1.9), Scheme::matching_round_robin(0.5)] {
        let sim = simulator(&g, scheme, speeds.clone(), Rounding::nearest(), 1);
        let t = sim.kernel_tables();
        assert!(same(t.graph().heads(), g.heads()), "{scheme}");
        assert!(
            matches!(&t.coefs, Coefs::Each(tail, head) if !Arc::ptr_eq(tail, head)),
            "{scheme}"
        );
        for (e, (u, v)) in g.edges().enumerate() {
            let (su, sv) = (speeds.get(u as usize), speeds.get(v as usize));
            let (tail, head) = match scheme {
                Scheme::Sos { .. } => (g.alpha(u, v) / su, g.alpha(u, v) / sv),
                _ => (0.5 * sv / (su + sv), 0.5 * su / (su + sv)),
            };
            assert_eq!(t.coefs.get(e), (tail, head), "{scheme} edge {e}");
        }
        let total = 100.0 * n as f64;
        for i in 0..n {
            let want = total * speeds.get(i) / speeds.total();
            assert_eq!(t.ideal.get(i), want, "{scheme} node {i}");
        }
        // Two coefficient tables and the balanced loads.
        assert_eq!(sim.table_bytes(), 16 * m + 8 * n, "{scheme}");
    }
}
