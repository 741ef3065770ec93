//! Golden-trace bit-identity of the simulation kernels.
//!
//! The FOS/SOS checksums were captured from the pre-pipeline randomized
//! framework (per-node `SplitMix64::for_node_round` construction,
//! gather-based arc pass, arc-out combine) before it was rebuilt as the
//! streaming three-phase pipeline, and have survived the scheme-kernel
//! layer refactor unchanged. The dimension-exchange and matching-based
//! checksums pin the pairwise kernels since their introduction. Any
//! deviation — loads, flow memory, or minimum transient load, after
//! dozens of rounds across schemes, flow-memory modes, and heterogeneous
//! speeds — fails these tests; each pairwise configuration is checked on
//! the sequential executor *and*, against the same checksum, on the pool.
//!
//! # Re-pin policy for distribution-changing optimizations
//!
//! A golden checksum may be re-pinned **only** when an optimization
//! deliberately changes which random outcome a scheme draws — never to
//! paper over an unexplained divergence. The bar, in order:
//!
//! 1. the change must be confined to a *randomized decision* whose
//!    distribution the scheme's correctness argument treats as
//!    exchangeable (e.g. which maximal matching a round draws), not to
//!    the arithmetic of flows, rounding, or application;
//! 2. a statistical test must pin the properties the scheme actually
//!    relies on (for matchings: maximality every round, determinism per
//!    `(seed, round)`, size concentration — see
//!    `crates/core/src/matchgen.rs`);
//! 3. sequential and pooled executors must still produce the *same new*
//!    checksum (the re-pin never relaxes executor bit-identity); and
//! 4. the commit re-pinning the value must state what changed and why
//!    the old trace could not be preserved.
//!
//! Applied once so far: `regular_matching_random_heterogeneous`, when
//! the random-matching generator's `O(m log m)` full-key sort was
//! replaced by the `O(m)` counting-scatter bucket pass — the greedy
//! visit order became "key-prefix bucket, then edge id" instead of the
//! full `(key, edge)` order, so rounds draw different (equally valid)
//! maximal matchings. Diffusion, dimension-exchange, and round-robin
//! matching traces were unaffected.

use sodiff::graph::generators;
use sodiff::prelude::*;

/// FNV-1a over the full simulation state: loads, previous flows (bits),
/// and the minimum transient load (bits).
fn state_checksum(sim: &Simulator<'_>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for &x in sim.loads_i64().expect("golden traces are discrete").iter() {
        eat(&x.to_le_bytes());
    }
    for &f in sim.previous_flows().iter() {
        eat(&f.to_bits().to_le_bytes());
    }
    eat(&sim.min_transient_load().to_bits().to_le_bytes());
    h
}

fn run_and_check(name: &str, expected: u64, mut sim: Simulator<'_>, rounds: usize) {
    for _ in 0..rounds {
        sim.step();
    }
    assert_eq!(
        state_checksum(&sim),
        expected,
        "{name}: golden trace diverged from the pinned implementation"
    );
}

#[test]
fn torus_fos_rounded_memory() {
    let g = generators::torus2d(8, 8);
    let sim = Experiment::on(&g)
        .discrete(Rounding::randomized(42))
        .init(InitialLoad::point(0, 6400))
        .build()
        .unwrap()
        .simulator();
    run_and_check("torus_fos_rounded", 0xc6a410e2f5b1eac5, sim, 60);
}

#[test]
fn torus_sos_scheduled_memory() {
    let g = generators::torus2d(8, 8);
    let sim = Experiment::on(&g)
        .discrete(Rounding::randomized(7))
        .sos(1.8)
        .flow_memory(FlowMemory::Scheduled)
        .build()
        .unwrap()
        .simulator();
    run_and_check("torus_sos_scheduled", 0xdef99d824410227d, sim, 60);
}

#[test]
fn random_regular_sos_heterogeneous() {
    let g = generators::random_regular(60, 4, 2).unwrap();
    let sim = Experiment::on(&g)
        .discrete(Rounding::randomized(13))
        .sos(1.7)
        .speeds(Speeds::linear_ramp(60, 5.0))
        .init(InitialLoad::point(0, 60_000))
        .build()
        .unwrap()
        .simulator();
    run_and_check("regular_sos_het", 0xcda74ebcdaf7a3a9, sim, 80);
}

#[test]
fn cycle_fos_odd_size() {
    let g = generators::cycle(17);
    let sim = Experiment::on(&g)
        .discrete(Rounding::randomized(3))
        .init(InitialLoad::point(0, 1700))
        .build()
        .unwrap()
        .simulator();
    run_and_check("cycle_fos", 0x7a6af77403c77095, sim, 45);
}

/// The pooled executor reproduces the same golden trace: the pipeline's
/// bit-identity holds across chunking too.
#[test]
fn golden_trace_holds_on_the_pool() {
    let g = generators::torus2d(8, 8);
    let sim = Experiment::on(&g)
        .discrete(Rounding::randomized(42))
        .threads(3)
        .init(InitialLoad::point(0, 6400))
        .build()
        .unwrap()
        .simulator();
    run_and_check("torus_fos_rounded (pooled)", 0xc6a410e2f5b1eac5, sim, 60);
}

// ---------------------------------------------------------------------
// Pairwise schemes: the checksums below pin the dimension-exchange and
// matching-based kernels as introduced by the scheme-kernel layer. Each
// configuration is checked on the sequential executor and, with the same
// checksum, on the pool — sequential == pooled, bit for bit.
// ---------------------------------------------------------------------

/// A DE/matching simulator over the given scheme and rounding.
fn pairwise_sim(
    g: &sodiff::graph::Graph,
    scheme: Scheme,
    rounding: Rounding,
    threads: usize,
) -> Simulator<'_> {
    let n = g.node_count();
    Experiment::on(g)
        .discrete(rounding)
        .scheme(scheme)
        .threads(threads)
        .init(InitialLoad::point(0, (n * 100) as i64))
        .build()
        .unwrap()
        .simulator()
}

#[test]
fn torus_dimension_exchange_nearest() {
    let g = generators::torus2d(8, 8);
    for threads in [1, 3] {
        let sim = pairwise_sim(
            &g,
            Scheme::dimension_exchange(1.0),
            Rounding::nearest(),
            threads,
        );
        run_and_check("torus_de_nearest", 0x1059328902898be5, sim, 60);
    }
}

#[test]
fn torus_dimension_exchange_randomized_framework() {
    // DE under the node-centric randomized framework exercises the masked
    // scatter pass; each node has at most one active arc per round.
    let g = generators::torus2d(8, 8);
    for threads in [1, 3] {
        let sim = pairwise_sim(
            &g,
            Scheme::dimension_exchange(0.75),
            Rounding::randomized(42),
            threads,
        );
        run_and_check("torus_de_randomized", 0x309b74ddad5025da, sim, 60);
    }
}

#[test]
fn cycle_matching_round_robin() {
    let g = generators::cycle(17);
    for threads in [1, 3] {
        let sim = pairwise_sim(
            &g,
            Scheme::matching_round_robin(1.0),
            Rounding::nearest(),
            threads,
        );
        run_and_check("cycle_matching_rr", 0xc26364164de48acf, sim, 45);
    }
}

/// Fault injection is part of the pinned surface: a crash-churn SOS run
/// must reproduce this trace on the sequential executor and on the pool.
/// Pinned when the `FaultSpec` axis was introduced; the re-pin policy
/// above applies (a fault plan is a randomized decision stream keyed by
/// `(kind, seed, round)` — changing which stream a channel consumes
/// needs the full justification, not just a new constant).
#[test]
fn torus_sos_crash_churn() {
    let g = generators::torus2d(8, 8);
    for threads in [1, 3] {
        let sim = Experiment::on(&g)
            .discrete(Rounding::nearest())
            .sos(1.7)
            .threads(threads)
            .init(InitialLoad::point(0, 6400))
            .faults(FaultSpec::none().with_crash(0.1, 7))
            .build()
            .unwrap()
            .simulator();
        run_and_check("torus_sos_crash_churn", 0x8cc7ad550f849948, sim, 64);
    }
}

/// Dynamic-workload injection is part of the pinned surface: a Poisson
/// arrival/departure SOS run must reproduce this trace on the
/// sequential executor and on the pool. Pinned when the `LoadSpec` axis
/// was introduced; the re-pin policy above applies (a load plan is a
/// randomized decision stream keyed by `(generator, seed, round)` —
/// changing which stream a generator consumes needs the full
/// justification, not just a new constant).
#[test]
fn torus_sos_poisson() {
    let g = generators::torus2d(8, 8);
    for threads in [1, 3] {
        let sim = Experiment::on(&g)
            .discrete(Rounding::nearest())
            .sos(1.7)
            .threads(threads)
            .init(InitialLoad::point(0, 6400))
            .load(LoadSpec::none().with_poisson(0.5, 7))
            .build()
            .unwrap()
            .simulator();
        run_and_check("torus_sos_poisson", 0x528126d94fdd1296, sim, 64);
    }
}

/// Live-topology churn is part of the pinned surface: a flux SOS run
/// (epoch-aligned departures with conservation-exact handoff, arrivals
/// at a configured initial load) must reproduce this trace on the
/// sequential executor and on the pool. Pinned when the `ChurnSpec`
/// axis was introduced; the re-pin policy above applies (a churn plan
/// is a randomized decision stream keyed by `(seed, epoch)` — changing
/// which stream the flux channel consumes needs the full justification,
/// not just a new constant).
#[test]
fn torus_sos_flux() {
    let g = generators::torus2d(8, 8);
    for threads in [1, 3] {
        let sim = Experiment::on(&g)
            .discrete(Rounding::nearest())
            .sos(1.7)
            .threads(threads)
            .init(InitialLoad::point(0, 6400))
            .churn(ChurnSpec::none().with_flux(0.08, 0.3, 9).with_initial(25.0))
            .build()
            .unwrap()
            .simulator();
        run_and_check("torus_sos_flux", 0x7e2c2b500623f7e6, sim, 64);
    }
}

/// Churn composed with the crash channel: the two axes draw from
/// independent streams, so this trace pins their interaction order
/// (fault epoch first, churn transition second, then the flow pass).
#[test]
fn torus_sos_crash_flux() {
    let g = generators::torus2d(8, 8);
    for threads in [1, 3] {
        let sim = Experiment::on(&g)
            .discrete(Rounding::nearest())
            .sos(1.7)
            .threads(threads)
            .init(InitialLoad::point(0, 6400))
            .faults(FaultSpec::none().with_crash(0.1, 7))
            .churn(ChurnSpec::none().with_flux(0.08, 0.3, 9).with_initial(25.0))
            .build()
            .unwrap()
            .simulator();
        run_and_check("torus_sos_crash_flux", 0x98bbaa1b24facd58, sim, 64);
    }
}

#[test]
fn regular_matching_random_heterogeneous() {
    // Random per-round maximal matchings + per-edge unbiased rounding +
    // heterogeneous speeds: the random plan's control-thread mask
    // generation must hold the trace across executors.
    let g = generators::random_regular(60, 4, 2).unwrap();
    for threads in [1, 4] {
        let sim = Experiment::on(&g)
            .discrete(Rounding::unbiased_edge(13))
            .scheme(Scheme::matching_random(7, 1.0))
            .speeds(Speeds::linear_ramp(60, 5.0))
            .threads(threads)
            .init(InitialLoad::point(0, 60_000))
            .build()
            .unwrap()
            .simulator();
        run_and_check("regular_matching_random", 0x7cbb471521179a82, sim, 80);
    }
}
