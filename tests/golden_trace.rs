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

/// FNV-1a over the full simulation state: loads (`i64`, or `f64` bits
/// where the run has no integer loads), previous flows
/// (bits), and the minimum transient load (bits).
fn state_checksum(sim: &Simulator<'_>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    match sim.loads_i64() {
        Some(loads) => {
            for &x in loads.iter() {
                eat(&x.to_le_bytes());
            }
        }
        // Continuous runs hash their loads as f64 bits.
        None => {
            for x in sim.loads_to_f64() {
                eat(&x.to_bits().to_le_bytes());
            }
        }
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

// ---------------------------------------------------------------------
// Perturbation table: every scheme family × perturbation combination ×
// mode, pinned together with the event counters the run reports. Each
// row runs on the sequential executor and, against the same pins, on
// the pool.
// ---------------------------------------------------------------------

/// FNV-1a over every field of the three perturbation event reports
/// (floats as bits).
fn events_checksum(sim: &Simulator<'_>) -> u64 {
    let f = sim.fault_events();
    let l = sim.load_events();
    let c = sim.churn_events();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for word in [
        f.crashes,
        f.rejoins,
        f.edges_dropped,
        f.shocks,
        f.stale_edges,
        l.arrivals,
        l.departures,
        l.injected.to_bits(),
        c.departures,
        c.arrivals,
        c.handoffs,
        c.joined.to_bits(),
        c.departed.to_bits(),
    ] {
        for b in word.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// The perturbation sets of the table, by name.
fn perturbation(set: &str) -> (FaultSpec, LoadSpec, ChurnSpec) {
    let flux = ChurnSpec::none().with_flux(0.08, 0.3, 9).with_initial(25.0);
    match set {
        "crash+edgedrop+stale+shock" => (
            FaultSpec::none()
                .with_crash(0.1, 7)
                .with_edgedrop(0.05, 9)
                .with_stale(0.05, 5)
                .with_shock(0.2, 3),
            LoadSpec::none(),
            ChurnSpec::none(),
        ),
        "shock+stale" => (
            FaultSpec::none().with_shock(0.3, 4).with_stale(0.1, 6),
            LoadSpec::none(),
            ChurnSpec::none(),
        ),
        "flux" => (FaultSpec::none(), LoadSpec::none(), flux),
        "crash+flux+edgedrop" => (
            FaultSpec::none().with_crash(0.1, 7).with_edgedrop(0.05, 9),
            LoadSpec::none(),
            flux,
        ),
        // Shocks every round and heavy churn, with the adversarial
        // generator firing on every epoch boundary, so the channel order
        // (shock, then churn handoff, then injection) shows in the state.
        "crash+shock+flux+adversarial" => (
            FaultSpec::none().with_crash(0.1, 7).with_shock(1.0, 4),
            LoadSpec::none().with_adversarial(40, 16, 13),
            ChurnSpec::none().with_flux(0.3, 0.3, 9).with_initial(25.0),
        ),
        "flux+load" => (
            FaultSpec::none(),
            LoadSpec::none()
                .with_poisson(0.5, 7)
                .with_hotspot(3, 50, 8, 11)
                .with_diurnal(12.5, 16)
                .with_adversarial(40, 12, 13),
            flux,
        ),
        other => panic!("unknown perturbation set {other}"),
    }
}

/// The table's schemes, by name.
fn table_scheme(name: &str) -> Scheme {
    match name {
        "sos" => Scheme::sos(1.7),
        "de" => Scheme::dimension_exchange(1.0),
        "matching_rr" => Scheme::matching_round_robin(1.0),
        "matching_random" => Scheme::matching_random(5, 1.0),
        other => panic!("unknown scheme {other}"),
    }
}

/// `(scheme, perturbation set, mode, state checksum, events checksum)`.
/// Modes: `nearest` (discrete, nearest rounding), `randomized` (the
/// node-centric randomized framework: masked scatter pass, rounding phase
/// and stale apply) and `continuous`.
#[rustfmt::skip]
const PERTURBATION_TABLE: &[(&str, &str, &str, u64, u64)] = &[
    ("sos", "crash+edgedrop+stale+shock", "nearest", 0x9c49c86baea9b67a, 0x7dce1b91e068a362),
    ("sos", "crash+edgedrop+stale+shock", "continuous", 0xb13cbac39993e33e, 0x7dce1b91e068a362),
    ("sos", "shock+stale", "nearest", 0xeb90babb7d4f8f7e, 0x3c8b2bcc4670a1c4),
    ("sos", "shock+stale", "continuous", 0x78d09f78c6d8c244, 0x3c8b2bcc4670a1c4),
    ("sos", "flux", "nearest", 0x7e2c2b500623f7e6, 0x82ad8397c7322d52),
    ("sos", "flux", "continuous", 0x128e1637a0185fa5, 0x82ad8397c7322d52),
    ("sos", "crash+flux+edgedrop", "nearest", 0xfed25686f5404496, 0x4b068d43602a8aa1),
    ("sos", "crash+flux+edgedrop", "continuous", 0xc71c40041c7a67a9, 0x4b068d43602a8aa1),
    ("sos", "crash+shock+flux+adversarial", "nearest", 0x2ce7442179541bec, 0xd6fceca6aa40e934),
    ("sos", "crash+shock+flux+adversarial", "continuous", 0xa93004c93aa76e06, 0x092f772aff1dfb1c),
    ("sos", "flux+load", "nearest", 0xd25684a554bfaca9, 0x168c2d9184208ffc),
    ("sos", "flux+load", "continuous", 0x18d3450cef851cf8, 0x19b4dbc345915dd0),
    ("de", "crash+edgedrop+stale+shock", "nearest", 0x78cc71f89d2dd2c6, 0xef398a34c05c8a43),
    ("de", "crash+edgedrop+stale+shock", "continuous", 0x021ca16ba42e487f, 0xef398a34c05c8a43),
    ("de", "shock+stale", "nearest", 0x2fc64b57819521d2, 0x4a157713be699537),
    ("de", "shock+stale", "continuous", 0x6850be8e328e61d5, 0x4a157713be699537),
    ("de", "flux", "nearest", 0x380d2c46aba31273, 0x82ad8397c7322d52),
    ("de", "flux", "continuous", 0x3927beb03818dceb, 0x82ad8397c7322d52),
    ("de", "crash+flux+edgedrop", "nearest", 0xb84e33c5b77bcfcf, 0xeec0b9a6663f5917),
    ("de", "crash+flux+edgedrop", "continuous", 0xaf329f08d132175e, 0xeec0b9a6663f5917),
    ("de", "crash+shock+flux+adversarial", "nearest", 0x71daa547c78bfce8, 0xbd41b0a7be047b06),
    ("de", "crash+shock+flux+adversarial", "continuous", 0xaca59aa497d03bfb, 0x6d6112680ba8c1dd),
    ("de", "flux+load", "nearest", 0xe5d073fb0f3acc5d, 0x168c2d9184208ffc),
    ("de", "flux+load", "continuous", 0x1b81826a144b8809, 0x19b4dbc345915dd0),
    ("matching_rr", "crash+edgedrop+stale+shock", "nearest", 0xfa27c8fd7ee3d605, 0xb6683f18ae4b48a0),
    ("matching_rr", "crash+edgedrop+stale+shock", "continuous", 0x8f6baf7fe24616ba, 0xb6683f18ae4b48a0),
    ("matching_rr", "shock+stale", "nearest", 0x2fc64b57819521d2, 0x4a157713be699537),
    ("matching_rr", "shock+stale", "continuous", 0x6850be8e328e61d5, 0x4a157713be699537),
    ("matching_rr", "flux", "nearest", 0xa26d99bce7117b50, 0x82ad8397c7322d52),
    ("matching_rr", "flux", "continuous", 0x26cb2d1c87b6cf24, 0x82ad8397c7322d52),
    ("matching_rr", "crash+flux+edgedrop", "nearest", 0x2e2bf2a8811d0ac0, 0x9b01a59fa2332f83),
    ("matching_rr", "crash+flux+edgedrop", "continuous", 0xab0504f4c04b256a, 0x9b01a59fa2332f83),
    ("matching_rr", "crash+shock+flux+adversarial", "nearest", 0xc043fd8d449fe80e, 0xde6b3aaaa4d13e41),
    ("matching_rr", "crash+shock+flux+adversarial", "continuous", 0xf38c63f9d5bfdc15, 0xf84411d080ca8a36),
    ("matching_rr", "flux+load", "nearest", 0x43a100a184da730e, 0x168c2d9184208ffc),
    ("matching_rr", "flux+load", "continuous", 0x460f06b5fab8da7f, 0x19b4dbc345915dd0),
    ("matching_random", "crash+edgedrop+stale+shock", "nearest", 0xde1e5ccd37fbf208, 0xf2a7d75dbb36da1a),
    ("matching_random", "crash+edgedrop+stale+shock", "continuous", 0x69432fb076d9c6a2, 0xf2a7d75dbb36da1a),
    ("matching_random", "shock+stale", "nearest", 0xd3dd6bd011627c1f, 0x244342cf3ac82384),
    ("matching_random", "shock+stale", "continuous", 0x8915086d0aeb556d, 0x244342cf3ac82384),
    ("matching_random", "flux", "nearest", 0xb7dca1178fad6aae, 0x8e39bff394471315),
    ("matching_random", "flux", "continuous", 0xbbecaa521709a051, 0x8e39bff394471315),
    ("matching_random", "crash+flux+edgedrop", "nearest", 0xb68477ddc75884ec, 0x576f3d3d9a5ec952),
    ("matching_random", "crash+flux+edgedrop", "continuous", 0xd3aee2afc04f822d, 0x576f3d3d9a5ec952),
    ("matching_random", "crash+shock+flux+adversarial", "nearest", 0x049a2dcfa7223f8d, 0xe952114f0de4d6ac),
    ("matching_random", "crash+shock+flux+adversarial", "continuous", 0x52c629e494a3edce, 0xa9fc9b35772d05e1),
    ("matching_random", "flux+load", "nearest", 0xec5ed01d103fa36b, 0x168c2d9184208ffc),
    ("matching_random", "flux+load", "continuous", 0x31dbeefe772249ed, 0x19b4dbc345915dd0),
    ("sos", "crash+edgedrop+stale+shock", "randomized", 0xf3524ad8f4376b89, 0x7dce1b91e068a362),
    ("sos", "shock+stale", "randomized", 0x1f956c47722adb1b, 0x3c8b2bcc4670a1c4),
    ("sos", "flux", "randomized", 0xa9f16b97b6adacf1, 0x82ad8397c7322d52),
    ("sos", "crash+flux+edgedrop", "randomized", 0xc46117b3ca360059, 0x4b068d43602a8aa1),
    ("sos", "crash+shock+flux+adversarial", "randomized", 0xf93a149cb4b0a4a9, 0x8c5f9ca8331c0a44),
    ("sos", "flux+load", "randomized", 0x34016d2255c8d615, 0x168c2d9184208ffc),
    ("de", "crash+edgedrop+stale+shock", "randomized", 0x52bb28d18e920fff, 0xef398a34c05c8a43),
    ("de", "shock+stale", "randomized", 0x22cb348e3b961fa4, 0x4a157713be699537),
    ("de", "flux", "randomized", 0x52443d4dfd2b0290, 0x82ad8397c7322d52),
    ("de", "crash+flux+edgedrop", "randomized", 0x20a3df73e8c523ad, 0xeec0b9a6663f5917),
    ("de", "crash+shock+flux+adversarial", "randomized", 0xe65b023323b8c2be, 0x447360a809a13cb6),
    ("de", "flux+load", "randomized", 0x3dd5ac859bf5ecd6, 0x168c2d9184208ffc),
    ("matching_rr", "crash+edgedrop+stale+shock", "randomized", 0x95587227d8e91b6a, 0xb6683f18ae4b48a0),
    ("matching_rr", "shock+stale", "randomized", 0x22cb348e3b961fa4, 0x4a157713be699537),
    ("matching_rr", "flux", "randomized", 0x6a4de8156925a992, 0x82ad8397c7322d52),
    ("matching_rr", "crash+flux+edgedrop", "randomized", 0x89b6d6c2de4c85d9, 0x9b01a59fa2332f83),
    ("matching_rr", "crash+shock+flux+adversarial", "randomized", 0x2be4b4d7c5d97f3e, 0x420a2aa9bc34a731),
    ("matching_rr", "flux+load", "randomized", 0x15d54cf93ce54651, 0x168c2d9184208ffc),
    ("matching_random", "crash+edgedrop+stale+shock", "randomized", 0x7ffac1a67bdb0186, 0xf2a7d75dbb36da1a),
    ("matching_random", "shock+stale", "randomized", 0x4e756aa06dc70a9a, 0x244342cf3ac82384),
    ("matching_random", "flux", "randomized", 0xca88a5fa94e3e4d5, 0x8e39bff394471315),
    ("matching_random", "crash+flux+edgedrop", "randomized", 0x587b9d4878021b8b, 0x576f3d3d9a5ec952),
    ("matching_random", "crash+shock+flux+adversarial", "randomized", 0xd1a686f06af88fd8, 0x196f094e9825d024),
    ("matching_random", "flux+load", "randomized", 0xf50da1e4c9b6cdca, 0x168c2d9184208ffc),
];

#[test]
fn perturbation_table() {
    let g = generators::torus2d(8, 8);
    let mut report = String::new();
    let mut failed = false;
    for &(scheme, set, mode, state, events) in PERTURBATION_TABLE {
        for threads in [1, 3] {
            let (faults, load, churn) = perturbation(set);
            let builder = Experiment::on(&g);
            let builder = match mode {
                "continuous" => builder.continuous(),
                "randomized" => builder.discrete(Rounding::randomized(3)),
                _ => builder.discrete(Rounding::nearest()),
            };
            let mut sim = builder
                .scheme(table_scheme(scheme))
                .threads(threads)
                .init(InitialLoad::point(0, 6400))
                .faults(faults)
                .load(load)
                .churn(churn)
                .build()
                .unwrap()
                .simulator();
            for _ in 0..64 {
                sim.step();
            }
            let got = (state_checksum(&sim), events_checksum(&sim));
            if got != (state, events) {
                failed = true;
            }
            if threads == 1 {
                report.push_str(&format!(
                    "    (\"{scheme}\", \"{set}\", \"{mode}\", {:#018x}, {:#018x}),\n",
                    got.0, got.1
                ));
            } else if got != (state, events) {
                report.push_str(&format!("    // threads {threads} differs\n"));
            }
        }
    }
    assert!(
        !failed,
        "perturbation table diverged from the pinned implementation; \
         observed rows:\n{report}"
    );
}
