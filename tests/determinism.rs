//! Reproducibility: fixed seeds give identical trajectories; distinct
//! seeds and schemes diverge; the pooled parallel executor is bit-identical
//! to the sequential one across the whole configuration grid.

use proptest::prelude::*;

use sodiff::core::prelude::*;
use sodiff::graph::{generators, Graph};
use sodiff::linalg::spectral;

fn run_loads(seed: u64, rounds: usize) -> Vec<i64> {
    let g = generators::torus2d(12, 12);
    let n = g.node_count();
    let beta = spectral::analyze(&g, &Speeds::uniform(n)).beta_opt();
    let mut sim = Experiment::on(&g)
        .discrete(Rounding::randomized(seed))
        .sos(beta)
        .init(InitialLoad::paper_default(n))
        .build()
        .unwrap()
        .simulator();
    sim.run_until(StopCondition::MaxRounds(rounds));
    sim.loads_i64().unwrap().to_vec()
}

#[test]
fn same_seed_same_trajectory() {
    assert_eq!(run_loads(7, 300), run_loads(7, 300));
}

#[test]
fn different_seed_different_trajectory() {
    assert_ne!(run_loads(7, 300), run_loads(8, 300));
}

#[test]
fn stepwise_equals_batch() {
    let g = generators::cycle(30);
    let exp = Experiment::on(&g)
        .discrete(Rounding::randomized(5))
        .init(InitialLoad::point(0, 3000))
        .build()
        .unwrap();
    let make = || exp.simulator();
    let mut batch = make();
    batch.run_until(StopCondition::MaxRounds(100));
    let mut stepwise = make();
    for _ in 0..100 {
        stepwise.step();
    }
    assert_eq!(batch.loads_i64().unwrap(), stepwise.loads_i64().unwrap());
}

#[test]
fn deterministic_roundings_are_seed_independent() {
    let g = generators::torus2d(8, 8);
    let n = g.node_count();
    let run = |rounding: Rounding| {
        let mut sim = Experiment::on(&g)
            .discrete(rounding)
            .init(InitialLoad::paper_default(n))
            .build()
            .unwrap()
            .simulator();
        sim.run_until(StopCondition::MaxRounds(200));
        sim.loads_i64().unwrap().to_vec()
    };
    assert_eq!(run(Rounding::round_down()), run(Rounding::round_down()));
    assert_eq!(run(Rounding::nearest()), run(Rounding::nearest()));
    assert_ne!(run(Rounding::round_down()), run(Rounding::nearest()));
}

/// Fingerprint of a finished run: loads, minimum transient load, and the
/// final flow memory — all compared bit-for-bit.
fn run_fingerprint(
    graph: &Graph,
    scheme: Scheme,
    mode_discrete: bool,
    rounding: Rounding,
    threads: usize,
    rounds: usize,
) -> (Vec<i64>, Vec<u64>, u64, Vec<u64>) {
    let n = graph.node_count();
    let builder = Experiment::on(graph);
    let builder = if mode_discrete {
        builder.discrete(rounding)
    } else {
        builder.continuous()
    };
    let mut sim = builder
        .scheme(scheme)
        .threads(threads)
        .init(InitialLoad::paper_default(n))
        .build()
        .unwrap()
        .simulator();
    sim.run_until(StopCondition::MaxRounds(rounds));
    let loads_i = sim.loads_i64().map(|l| l.to_vec()).unwrap_or_default();
    let loads_f = sim
        .loads_f64()
        .map(|l| l.iter().map(|x| x.to_bits()).collect())
        .unwrap_or_default();
    let transient = sim.min_transient_load().to_bits();
    let flows = sim.previous_flows().iter().map(|f| f.to_bits()).collect();
    (loads_i, loads_f, transient, flows)
}

/// The full deterministic grid on one torus: every scheme × rounding ×
/// mode must match `threads = 1` bit-for-bit on 2–8 threads. The grid
/// includes the pairwise schemes (dimension exchange over the torus's
/// edge coloring, round-robin and random matching-based balancing).
#[test]
fn pooled_executor_bit_identical_across_grid() {
    let g = generators::torus2d(9, 7); // odd sizes exercise chunk edges
    let beta = spectral::analyze(&g, &Speeds::uniform(63)).beta_opt();
    for scheme in [
        Scheme::fos(),
        Scheme::sos(beta),
        Scheme::dimension_exchange(1.0),
        Scheme::matching_round_robin(0.8),
        Scheme::matching_random(5, 1.0),
    ] {
        for rounding in [
            Rounding::randomized(13),
            Rounding::round_down(),
            Rounding::nearest(),
            Rounding::unbiased_edge(13),
        ] {
            for mode_discrete in [true, false] {
                let seq = run_fingerprint(&g, scheme, mode_discrete, rounding, 1, 60);
                for threads in [2, 5, 8] {
                    let par = run_fingerprint(&g, scheme, mode_discrete, rounding, threads, 60);
                    assert_eq!(
                        seq, par,
                        "{scheme:?} {rounding:?} discrete={mode_discrete} threads={threads}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Property form of the grid test: random torus/hypercube/CM graphs,
    /// random scheme, rounding, mode, and thread count — pooled parallel
    /// execution is always bit-identical to sequential.
    #[test]
    fn pooled_executor_matches_sequential(
        graph_pick in 0usize..3,
        seed in any::<u64>(),
        beta_scale in 0.2f64..1.0,
        scheme_pick in 0usize..5,
        exchange_lambda in 0.1f64..1.0,
        rounding_pick in 0usize..4,
        mode_discrete in proptest::prelude::any::<bool>(),
        threads in 2usize..=8,
        rounds in 10usize..50,
    ) {
        let graph = match graph_pick {
            0 => generators::torus2d(8, 6),
            1 => generators::hypercube(6),
            _ => generators::random_graph_cm(48, seed % 1000).unwrap(),
        };
        let n = graph.node_count();
        let scheme = match scheme_pick {
            0 => Scheme::fos(),
            1 => {
                let lambda = spectral::analyze(&graph, &Speeds::uniform(n)).lambda;
                // A stable-range β between 1 and β_opt.
                Scheme::sos(1.0 + beta_scale * (beta_opt(lambda) - 1.0))
            }
            2 => Scheme::dimension_exchange(exchange_lambda),
            3 => Scheme::matching_round_robin(exchange_lambda),
            _ => Scheme::matching_random(seed, exchange_lambda),
        };
        let rounding = match rounding_pick {
            0 => Rounding::randomized(seed),
            1 => Rounding::round_down(),
            2 => Rounding::nearest(),
            _ => Rounding::unbiased_edge(seed),
        };
        let seq = run_fingerprint(&graph, scheme, mode_discrete, rounding, 1, rounds);
        let par = run_fingerprint(&graph, scheme, mode_discrete, rounding, threads, rounds);
        prop_assert_eq!(
            seq, par,
            "{:?} {:?} discrete={} threads={}", scheme, rounding, mode_discrete, threads
        );
    }
}

#[test]
fn observer_does_not_perturb_run() {
    let g = generators::torus2d(8, 8);
    let n = g.node_count();
    let exp = Experiment::on(&g)
        .discrete(Rounding::randomized(9))
        .init(InitialLoad::paper_default(n))
        .build()
        .unwrap();
    let make = || exp.simulator();
    let mut plain = make();
    plain.run_until(StopCondition::MaxRounds(50));
    let mut observed = make();
    let mut rec = Recorder::new();
    observed.run_until_with(StopCondition::MaxRounds(50), &mut rec);
    assert_eq!(plain.loads_i64().unwrap(), observed.loads_i64().unwrap());
    assert_eq!(rec.rows().len(), 50);
}
