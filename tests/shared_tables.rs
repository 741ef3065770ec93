//! Layout guard for the per-simulation tables: the kernel tables read the
//! graph's own CSR arrays instead of holding a copy, a `Graph` clone
//! shares its arrays, the tables hold the coefficients the scheme's
//! rounds read (the diffusion `α_e/s` pair, or the pairwise schemes'
//! λ-scaled pair, and no other table), and the two coefficient tables
//! are one buffer whenever they hold the same numbers (uniform speeds).
//! The golden, heterogeneous-speeds and determinism suites prove the bits
//! did not move; this file pins where they live.

use std::sync::Arc;

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
    assert!(same(c.arc_offsets(), g.arc_offsets()));
    assert!(same(c.arc_edge_ids(), g.arc_edge_ids()));
    assert!(same(c.arc_orientations(), g.arc_orientations()));
    assert!(same(c.edges(), g.edges()));
}

#[test]
fn kernel_tables_read_the_graph_csr_and_share_uniform_coefficients() {
    // The benchmark's headline run: SOS with randomized rounding on the
    // 256² torus, sequential and on the worker pool.
    let g = generators::torus2d(256, 256);
    let (n, m) = (g.node_count(), g.edge_count());
    let (sos, rounding) = (Scheme::sos(1.9), Rounding::randomized(42));
    for threads in [1, 2] {
        let sim = simulator(&g, sos, Speeds::uniform(n), rounding, threads);
        let t = sim.kernel_tables();
        let tg = t.graph();
        assert!(same(tg.arc_offsets(), g.arc_offsets()));
        assert!(same(tg.arc_edge_ids(), g.arc_edge_ids()));
        assert!(same(tg.arc_orientations(), g.arc_orientations()));
        assert!(same(tg.edges(), g.edges()));
        assert!(Arc::ptr_eq(&t.coef_tail, &t.coef_head));
        // One coefficient table and the balanced-load table:
        // 8·m + 8·n bytes, nothing else.
        assert_eq!(sim.table_bytes(), 8 * m + 8 * n);
        assert_eq!(sim.table_bytes(), 1_572_864);
    }
}

/// The pairwise schemes' λ-scaled pair, at λ = 0.5 on uniform speeds
/// `λ·s_v/(s_u+s_v) = 0.25` on every edge, is the one coefficient table:
/// no diffusion `α_e/s` table is built beside it.
#[test]
fn pairwise_tables_hold_the_lambda_pair_in_one_shared_buffer() {
    let g = generators::torus2d(16, 16);
    let (n, m) = (g.node_count(), g.edge_count());
    for scheme in [
        Scheme::dimension_exchange(0.5),
        Scheme::matching_round_robin(0.5),
        Scheme::matching_random(3, 0.5),
    ] {
        for threads in [1, 2] {
            let sim = simulator(&g, scheme, Speeds::uniform(n), Rounding::nearest(), threads);
            let t = sim.kernel_tables();
            assert!(same(t.graph().edges(), g.edges()), "{scheme}");
            assert!(Arc::ptr_eq(&t.coef_tail, &t.coef_head), "{scheme}");
            assert_eq!(t.coef_tail.len(), m, "{scheme}");
            assert!(t.coef_tail.iter().all(|&c| c == 0.25), "{scheme}");
            assert_eq!(sim.table_bytes(), 8 * m + 8 * n, "{scheme}");
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
        assert!(same(t.graph().edges(), g.edges()), "{scheme}");
        assert!(!Arc::ptr_eq(&t.coef_tail, &t.coef_head), "{scheme}");
        for (e, &(u, v)) in g.edges().iter().enumerate() {
            let (su, sv) = (speeds.get(u as usize), speeds.get(v as usize));
            let (tail, head) = match scheme {
                Scheme::Sos { .. } => (g.alpha(u, v) / su, g.alpha(u, v) / sv),
                _ => (0.5 * sv / (su + sv), 0.5 * su / (su + sv)),
            };
            assert_eq!(
                (t.coef_tail[e], t.coef_head[e]),
                (tail, head),
                "{scheme} edge {e}"
            );
        }
        // Two coefficient tables and the balanced-load table.
        assert_eq!(sim.table_bytes(), 16 * m + 8 * n, "{scheme}");
    }
}
