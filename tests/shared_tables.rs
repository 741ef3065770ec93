//! Layout guard for the per-simulation tables: the kernel tables read the
//! graph's own CSR arrays instead of holding a copy, a `Graph` clone
//! shares its arrays, and the two coefficient tables are one buffer
//! whenever they hold the same numbers (uniform speeds). The golden,
//! heterogeneous-speeds and determinism suites prove the bits did not
//! move; this file pins where they live.

use std::sync::Arc;

use sodiff::core::prelude::*;
use sodiff::graph::{generators, Graph};

/// Same address and length.
fn same<T>(a: &[T], b: &[T]) -> bool {
    std::ptr::eq(a, b)
}

fn simulator(g: &Graph, speeds: Speeds, rounding: Rounding, threads: usize) -> Simulator<'_> {
    let n = g.node_count();
    Experiment::on(g)
        .discrete(rounding)
        .sos(1.9)
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
    assert!(same(c.arc_targets(), g.arc_targets()));
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
    for threads in [1, 2] {
        let sim = simulator(&g, Speeds::uniform(n), Rounding::randomized(42), threads);
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

#[test]
fn heterogeneous_speeds_keep_two_coefficient_tables() {
    let g = generators::torus2d(16, 16);
    let (n, m) = (g.node_count(), g.edge_count());
    let sim = simulator(&g, Speeds::two_class(n, n / 4, 3.0), Rounding::nearest(), 1);
    let t = sim.kernel_tables();
    assert!(same(t.graph().edges(), g.edges()));
    assert!(!Arc::ptr_eq(&t.coef_tail, &t.coef_head));
    assert_ne!(t.coef_tail[..], t.coef_head[..]);
    // Two coefficient tables and the balanced-load table.
    assert_eq!(sim.table_bytes(), 16 * m + 8 * n);
}
