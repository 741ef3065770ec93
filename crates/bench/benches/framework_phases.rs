//! Criterion: the randomized framework's two pipeline phases in
//! isolation (plus the bulk RNG sweep and the apply pass), so a perf
//! regression is attributable to one phase instead of one lump number.
//! Under the default `FlowMemory::Rounded` the SOS memory is the integral
//! flows themselves, so there is no memory phase to time.
//!
//! Uses `sodiff_core::kernel`, the `#[doc(hidden)]` hot-path surface
//! exported for exactly this purpose.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use sodiff_core::kernel::{self, FwScratch, KernelTables};
use sodiff_core::rng;
use sodiff_graph::{generators, Speeds};

const SIDE: usize = 256;
const SEED: u64 = 42;

struct Fixture {
    tables: KernelTables,
    loads: Vec<f64>,
    frac: Vec<f64>,
    flows: Vec<i64>,
}

/// A 256×256 torus mid-simulation: loads and the last round's integral
/// flows (the `Rounded` SOS memory) in a plausible post-warmup state so
/// the rounding phase sees realistic fractional parts. One scatter pass
/// is run here so `frac` (one slot per edge) is populated up front — each
/// benchmark below is self-contained and order-independent.
fn fixture() -> Fixture {
    let graph = generators::torus2d(SIDE, SIDE);
    let n = graph.node_count();
    let speeds = Speeds::uniform(n);
    let tables = KernelTables::new(&graph, &speeds, false, 0.0);
    let m = tables.m;
    let loads: Vec<f64> = (0..n).map(|i| 1000.0 + ((i * 37) % 101) as f64).collect();
    let mut flows: Vec<i64> = (0..m).map(|e| (e * 31 % 17) as i64 - 8).collect();
    let mut frac = vec![0.0; m];
    kernel::edge_pass_scatter(
        &tables,
        0..m,
        0.4,
        1.6,
        sodiff_core::FlowMemory::Rounded,
        |i| loads[i],
        &kernel::cells(&mut frac),
        &kernel::cells(&mut flows),
        &kernel::cells::<f64>(&mut []),
    );
    Fixture {
        tables,
        loads,
        frac,
        flows,
    }
}

fn bench_phases(c: &mut Criterion) {
    let mut group = c.benchmark_group("framework_phase");
    let Fixture {
        tables,
        loads,
        mut frac,
        mut flows,
    } = fixture();
    let (n, m) = (tables.n, tables.m);

    group.bench_function(BenchmarkId::from_parameter("bulk_rng_sweep"), |b| {
        let mut states = vec![0u64; n];
        let mut round = 0u64;
        b.iter(|| {
            round += 1;
            rng::fill_node_states(rng::round_key(SEED, round), 0, &mut states);
            black_box(states.last().copied())
        });
    });

    group.bench_function(BenchmarkId::from_parameter("edge_pass_scatter"), |b| {
        b.iter(|| {
            kernel::edge_pass_scatter(
                &tables,
                0..m,
                0.4,
                1.6,
                sodiff_core::FlowMemory::Rounded,
                |i| loads[i],
                &kernel::cells(&mut frac),
                &kernel::cells(&mut flows),
                &kernel::cells::<f64>(&mut []),
            );
        });
    });

    group.bench_function(BenchmarkId::from_parameter("arc_round_streamed"), |b| {
        let mut scratch = FwScratch::new();
        let mut round = 0u64;
        b.iter(|| {
            round += 1;
            kernel::arc_round_streamed(
                &tables,
                0..n,
                SEED,
                round,
                &kernel::cells(&mut frac),
                &kernel::cells(&mut flows),
                &mut scratch,
            );
        });
    });

    group.bench_function(BenchmarkId::from_parameter("apply_discrete"), |b| {
        let mut int_loads: Vec<i64> = (0..n).map(|i| 1000 + ((i * 37) % 101) as i64).collect();
        let mut block_sums = vec![0.0f64; kernel::dev_blocks(n)];
        b.iter(|| {
            black_box(kernel::apply(
                &tables,
                0..n,
                |e| flows[e],
                &kernel::cells(&mut int_loads),
                &kernel::cells(&mut block_sums),
            ))
        });
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1500));
    targets = bench_phases
}
criterion_main!(benches);
