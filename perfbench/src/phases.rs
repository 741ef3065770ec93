//! Kernel phase timings on a workload's own graph in a mid-run state,
//! through the doc-hidden `sodiff_core::kernel` / `rng` / `matchgen`
//! surface (as `crates/bench/benches/framework_phases.rs` does). Traced
//! run only: that surface is not stable API.

use std::hint::black_box;
use std::time::{Duration, Instant};

use sodiff_core::kernel::{self, FwScratch, KernelTables};
use sodiff_core::matchgen::{self, MatchScratch};
use sodiff_core::{rng, FlowMemory, Rounding};
use sodiff_graph::{Graph, Speeds};

use crate::report::median;
use crate::trace::Captured;

/// Median seconds of `f` over at least `min_reps` calls and `budget`.
fn time_median(min_reps: usize, budget: Duration, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_reps || start.elapsed() < budget {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64());
    }
    median(&times)
}

pub struct PhaseTimes {
    pub edge_pass_ns_per_edge: f64,
    pub apply_ns_per_node: f64,
    pub prev_from_flows_ns_per_edge: f64,
    /// Randomized-framework phases; `None` for edge-local rounding.
    pub arc_round_ns_per_node: Option<f64>,
    pub node_states_ns_per_node: Option<f64>,
    /// Computed bytes one round moves, per edge (see [`bytes_per_edge`]).
    pub bytes_per_edge: f64,
}

/// Computed compulsory traffic of one SOS round, per edge: every array a
/// pass touches counted once per access, node-indexed gathers counted as
/// one element per access. Cache misses beyond that are not modelled.
///
/// Edge-local rounding (fused pass): the edge pass reads `tail`, `head`
/// (4 B each), both coefficients (8 B each), the SOS memory (8 B) and
/// both endpoint loads (2 × 8 B), and writes the memory and the integral
/// flow (8 B each) — 64 B/edge. The apply pass reads per arc the edge id
/// (4 B), sign (1 B) and flow (8 B) — 2 arcs, 26 B/edge — and per node
/// the offset, ideal load, and the load twice (32 B/node).
///
/// Randomized framework: the scatter pass reads the same 56 B/edge of
/// operands minus the memory write plus the arc positions (8 B) and
/// writes two arc fractions (16 B) — 80 B/edge; the rounding phase reads
/// per arc the fraction, edge id and sign (26 B/edge) plus the offset and
/// two RNG state accesses per node (24 B/node); the memory copy reads the
/// flow and writes the memory (16 B/edge); then the same apply pass.
pub fn bytes_per_edge(nodes: usize, edges: usize, randomized: bool) -> f64 {
    let (per_edge, per_node) = if randomized {
        (80.0 + 26.0 + 16.0 + 26.0, 24.0 + 32.0)
    } else {
        (64.0 + 26.0, 32.0)
    };
    per_edge + per_node * nodes as f64 / edges.max(1) as f64
}

/// Times the round's phases on `graph` from the `state` a run left, with
/// the SOS coefficients of `beta`.
pub fn measure(
    graph: &Graph,
    state: &Captured,
    beta: f64,
    randomized: bool,
    seed: u64,
    budget: Duration,
) -> PhaseTimes {
    let n = graph.node_count();
    let speeds = Speeds::uniform(n);
    let total: i64 = state.loads.iter().sum();
    let tables = KernelTables::new(graph, &speeds, true, total as f64);
    let m = tables.m;
    let (mem, gain) = (beta - 1.0, beta);
    let loads_f: Vec<f64> = state.loads.iter().map(|&x| x as f64).collect();
    let mut prev = state.prev.clone();
    let mut flows = vec![0i64; m];
    let mut arc_frac = vec![0.0f64; graph.arc_count()];
    let x = |i: usize| loads_f[i];
    let per_edge = |s: f64| s * 1e9 / m.max(1) as f64;
    let per_node = |s: f64| s * 1e9 / n.max(1) as f64;

    // The scatter pass also leaves the fractions the rounding phase needs.
    let scatter = |arc_frac: &mut Vec<f64>, flows: &mut Vec<i64>, prev: &mut Vec<f64>| {
        kernel::edge_pass_scatter(
            &tables,
            0..m,
            mem,
            gain,
            FlowMemory::Rounded,
            x,
            &kernel::cells_f64(arc_frac),
            &kernel::cells_i64(flows),
            &kernel::cells_f64(prev),
        );
    };
    let mut round = 1u64;
    let edge_pass = if randomized {
        time_median(5, budget, || scatter(&mut arc_frac, &mut flows, &mut prev))
    } else {
        time_median(5, budget, || {
            round += 1;
            kernel::edge_pass_fused(
                &tables,
                0..m,
                mem,
                gain,
                round,
                Rounding::nearest(),
                FlowMemory::Rounded,
                x,
                &kernel::cells_f64(&mut prev),
                &kernel::cells_i64(&mut flows),
            );
        })
    };

    let (arc_round, node_states) = if randomized {
        scatter(&mut arc_frac, &mut flows, &mut prev);
        let mut scratch = FwScratch::new();
        let arc = time_median(5, budget, || {
            round += 1;
            kernel::arc_round_streamed(
                &tables,
                0..n,
                seed,
                round,
                &kernel::cells_f64(&mut arc_frac),
                &kernel::cells_i64(&mut flows),
                &mut scratch,
            );
        });
        let mut states = vec![0u64; n];
        let rng_s = time_median(5, budget, || {
            round += 1;
            rng::fill_node_states(rng::round_key(seed, round), 0, &mut states);
            black_box(&states);
        });
        (Some(per_node(arc)), Some(per_node(rng_s)))
    } else {
        (None, None)
    };

    let prev_copy = time_median(5, budget, || {
        kernel::prev_from_flows(
            0..m,
            &kernel::cells_i64(&mut flows),
            &kernel::cells_f64(&mut prev),
        );
    });

    let mut loads = state.loads.clone();
    let mut block_sums = vec![0.0f64; kernel::dev_blocks(n)];
    let apply = time_median(5, budget, || {
        black_box(kernel::apply_discrete(
            &tables,
            0..n,
            |e| flows[e],
            &kernel::cells_i64(&mut loads),
            &kernel::cells_f64(&mut block_sums),
        ));
    });

    PhaseTimes {
        edge_pass_ns_per_edge: per_edge(edge_pass),
        apply_ns_per_node: per_node(apply),
        prev_from_flows_ns_per_edge: per_edge(prev_copy),
        arc_round_ns_per_node: arc_round,
        node_states_ns_per_node: node_states,
        bytes_per_edge: bytes_per_edge(n, m, randomized),
    }
}

/// Median ns per edge of one random maximal matching draw on `graph`.
pub fn matchgen_ns_per_edge(graph: &Graph, seed: u64, budget: Duration) -> f64 {
    let speeds = Speeds::uniform(graph.node_count());
    let tables = KernelTables::new(graph, &speeds, false, 0.0);
    let uv = matchgen::edge_pairs(&tables);
    let mut scratch = MatchScratch::default();
    let mut round = 0u64;
    let secs = time_median(5, budget, || {
        round += 1;
        matchgen::fill_random_matching(seed, round, &tables, &uv, &mut scratch);
        black_box(&scratch.mask);
    });
    secs * 1e9 / tables.m.max(1) as f64
}
