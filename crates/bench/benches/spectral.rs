//! Criterion: spectral-solver costs — analytic closed forms vs dense
//! Jacobi (the small-graph oracle) vs the Lanczos solver that
//! `spectral::analyze` runs on every other graph.

use criterion::{criterion_group, criterion_main, Criterion};

use sodiff_graph::{generators, Speeds};
use sodiff_linalg::spectral;

fn bench_spectral(c: &mut Criterion) {
    let mut group = c.benchmark_group("spectral");

    group.bench_function("analytic_torus_1000", |b| {
        b.iter(|| spectral::torus_spectrum(&[1000, 1000]))
    });

    let small = generators::torus2d(10, 10);
    let small_speeds = Speeds::uniform(100);
    group.bench_function("dense_jacobi_torus10", |b| {
        b.iter(|| spectral::dense_spectrum(&small, &small_speeds))
    });

    // The torus with unit speeds has a closed form; heterogeneous speeds
    // send it to the solver.
    group.sample_size(10);
    let medium = generators::torus2d(64, 64);
    let hetero = Speeds::linear_ramp(64 * 64, 8.0);
    group.bench_function("lanczos_torus64_hetero", |b| {
        b.iter(|| spectral::analyze(&medium, &hetero))
    });

    let regular = generators::random_regular(640, 6, 1).expect("valid regular parameters");
    let regular_speeds = Speeds::uniform(640);
    group.bench_function("lanczos_random_regular_640_6", |b| {
        b.iter(|| spectral::analyze(&regular, &regular_speeds))
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1500));
    targets = bench_spectral
}
criterion_main!(benches);
