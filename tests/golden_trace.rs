//! Golden-trace bit-identity of the simulation kernels.
//!
//! The FOS/SOS checksums were captured from the pre-pipeline randomized
//! framework (per-node `SplitMix64::for_node_round` construction,
//! gather-based arc pass, arc-out combine) before it was rebuilt as the
//! streaming three-phase pipeline, and have survived the scheme-kernel
//! layer refactor unchanged. The dimension-exchange and matching-based
//! checksums pin the pairwise kernels since their introduction. Any
//! deviation — loads, flow memory, or minimum transient load, after
//! dozens of rounds across schemes, modes, and heterogeneous speeds —
//! fails these tests; each pairwise configuration is checked on
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
//! Applied twice so far:
//!
//! * `regular_matching_random_heterogeneous`, when the random-matching
//!   generator's `O(m log m)` full-key sort was replaced by the `O(m)`
//!   counting-scatter bucket pass — the greedy visit order became
//!   "key-prefix bucket, then edge id" instead of the full `(key, edge)`
//!   order, so rounds draw different (equally valid) maximal matchings.
//!   Diffusion, dimension-exchange, and round-robin matching traces were
//!   unaffected.
//! * Memory that no round reads. Dimension exchange and matching
//!   balancing run with `mem = 0`, so no round ever read the flow memory
//!   their runs kept; when they stopped keeping one, their
//!   `previous_flows()` became `m` zeros. Every pairwise row's full
//!   checksum was re-pinned then, and only those rows. The case falls
//!   outside rule 1 — nothing random or arithmetic changed — and the
//!   proof that it changed nothing a run computes is the second pin of
//!   every row, [`loads_checksum`] (loads and minimum transient load,
//!   pinned in its own commit before the change): every one of them held,
//!   on both executors, as did every diffusion row's full checksum.

use sodiff::graph::generators;
use sodiff::prelude::*;

/// FNV-1a over the full simulation state: loads (`i64`, or `f64` bits
/// where the run has no integer loads), previous flows
/// (bits), and the minimum transient load (bits).
fn state_checksum(sim: &Simulator<'_>) -> u64 {
    checksum(sim, true)
}

/// FNV-1a over the loads and the minimum transient load only: what the
/// run balances, without the flow memory [`state_checksum`] also hashes.
/// These pins show that a change to the memory alone moves no load.
fn loads_checksum(sim: &Simulator<'_>) -> u64 {
    checksum(sim, false)
}

fn checksum(sim: &Simulator<'_>, memory: bool) -> u64 {
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
    if memory {
        for &f in sim.previous_flows().iter() {
            eat(&f.to_bits().to_le_bytes());
        }
    }
    eat(&sim.min_transient_load().to_bits().to_le_bytes());
    h
}

/// Runs `rounds` rounds and checks the pinned `(state, loads)` checksums.
fn run_and_check(name: &str, expected: (u64, u64), mut sim: Simulator<'_>, rounds: usize) {
    for _ in 0..rounds {
        sim.step();
    }
    let got = (state_checksum(&sim), loads_checksum(&sim));
    assert_eq!(
        got.1, expected.1,
        "{name}: loads diverged from the pinned implementation (got {:#018x})",
        got.1
    );
    assert_eq!(
        got.0, expected.0,
        "{name}: golden trace diverged from the pinned implementation (got {:#018x})",
        got.0
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
    run_and_check(
        "torus_fos_rounded",
        (0xc6a410e2f5b1eac5, 0x5f653c8fe6998745),
        sim,
        60,
    );
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
    run_and_check(
        "regular_sos_het",
        (0xcda74ebcdaf7a3a9, 0x3f68c93f378486e9),
        sim,
        80,
    );
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
    run_and_check(
        "cycle_fos",
        (0x7a6af77403c77095, 0x7bb8638090cafebd),
        sim,
        45,
    );
}

/// An irregular graph under uniform speeds: the grid's corner, border
/// and interior nodes have degrees 2, 3 and 4, so its `α_e/s` entries
/// differ from edge to edge and the coefficients stay one per-edge table
/// shared by both halves. Checked on the sequential executor and, with
/// the same checksum, on the pool.
#[test]
fn grid_sos_uniform_irregular() {
    let g = generators::grid2d(8, 8);
    for threads in [1, 3] {
        let sim = Experiment::on(&g)
            .discrete(Rounding::randomized(5))
            .sos(1.8)
            .threads(threads)
            .init(InitialLoad::point(0, 6400))
            .build()
            .unwrap()
            .simulator();
        run_and_check(
            "grid_sos_uniform",
            (0xa69edc38e8cbb000, 0x8f79fcc38143e271),
            sim,
            60,
        );
    }
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
    run_and_check(
        "torus_fos_rounded (pooled)",
        (0xc6a410e2f5b1eac5, 0x5f653c8fe6998745),
        sim,
        60,
    );
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
        run_and_check(
            "torus_de_nearest",
            (0x293596f41a179cc5, 0x9f5ac034fdf74cc5),
            sim,
            60,
        );
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
        run_and_check(
            "torus_de_randomized",
            (0x79ddcb82b6ab9903, 0x44fa2a31a64f6903),
            sim,
            60,
        );
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
        run_and_check(
            "cycle_matching_rr",
            (0x25b4d1eb89f2313f, 0xb79e68758bdd915f),
            sim,
            45,
        );
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
        run_and_check(
            "torus_sos_crash_churn",
            (0x8cc7ad550f849948, 0xcf0bf564e1411da9),
            sim,
            64,
        );
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
        run_and_check(
            "torus_sos_poisson",
            (0x528126d94fdd1296, 0x5768e756f0880456),
            sim,
            64,
        );
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
        run_and_check(
            "torus_sos_flux",
            (0x7e2c2b500623f7e6, 0xec9e387917f4d8b3),
            sim,
            64,
        );
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
        run_and_check(
            "torus_sos_crash_flux",
            (0x98bbaa1b24facd58, 0x4a6ea8957b38c311),
            sim,
            64,
        );
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
        run_and_check(
            "regular_matching_random",
            (0x3399f37f952ba7fb, 0xc235b9b0b18379bb),
            sim,
            80,
        );
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

/// `(scheme, perturbation set, mode, state checksum, loads checksum,
/// events checksum)`.
/// Modes: `nearest` (discrete, nearest rounding), `randomized` (the
/// node-centric randomized framework: masked scatter pass, rounding phase
/// and stale apply) and `continuous`.
#[rustfmt::skip]
const PERTURBATION_TABLE: &[(&str, &str, &str, u64, u64, u64)] = &[
    ("sos", "crash+edgedrop+stale+shock", "nearest", 0x9c49c86baea9b67a, 0xe516f90f9e07153f, 0x7dce1b91e068a362),
    ("sos", "crash+edgedrop+stale+shock", "continuous", 0xb13cbac39993e33e, 0xac2dfe68823cbc52, 0x7dce1b91e068a362),
    ("sos", "shock+stale", "nearest", 0xeb90babb7d4f8f7e, 0xbf3f4a358b7a8ba3, 0x3c8b2bcc4670a1c4),
    ("sos", "shock+stale", "continuous", 0x78d09f78c6d8c244, 0xaaf7beff606da69c, 0x3c8b2bcc4670a1c4),
    ("sos", "flux", "nearest", 0x7e2c2b500623f7e6, 0xec9e387917f4d8b3, 0x82ad8397c7322d52),
    ("sos", "flux", "continuous", 0x128e1637a0185fa5, 0xf56924b71ae882f1, 0x82ad8397c7322d52),
    ("sos", "crash+flux+edgedrop", "nearest", 0xfed25686f5404496, 0xceec26dc74630cab, 0x4b068d43602a8aa1),
    ("sos", "crash+flux+edgedrop", "continuous", 0xc71c40041c7a67a9, 0xb2fcff2499a52d8b, 0x4b068d43602a8aa1),
    ("sos", "crash+shock+flux+adversarial", "nearest", 0x2ce7442179541bec, 0xcdea24162b288ceb, 0xd6fceca6aa40e934),
    ("sos", "crash+shock+flux+adversarial", "continuous", 0xa93004c93aa76e06, 0xfd2593939e3fa97c, 0x092f772aff1dfb1c),
    ("sos", "flux+load", "nearest", 0xd25684a554bfaca9, 0x292580e9856dee51, 0x168c2d9184208ffc),
    ("sos", "flux+load", "continuous", 0x18d3450cef851cf8, 0xd9bec46cd3206b73, 0x19b4dbc345915dd0),
    ("de", "crash+edgedrop+stale+shock", "nearest", 0x86cea9daef238a7d, 0xd32819649f47ba7d, 0xef398a34c05c8a43),
    ("de", "crash+edgedrop+stale+shock", "continuous", 0xf1d68e93ab9e0aa3, 0x87b4009785a7daa3, 0xef398a34c05c8a43),
    ("de", "shock+stale", "nearest", 0x79471381e23de289, 0xd694265bc1b15289, 0x4a157713be699537),
    ("de", "shock+stale", "continuous", 0xc4cb33804319d97d, 0xaf80b863924e097d, 0x4a157713be699537),
    ("de", "flux", "nearest", 0xe49c26bd948a207b, 0x1bf94bd4cfd6707b, 0x82ad8397c7322d52),
    ("de", "flux", "continuous", 0x920b5ee0b79ae908, 0xeffdc64bf2ea6908, 0x82ad8397c7322d52),
    ("de", "crash+flux+edgedrop", "nearest", 0xd06b27e939c0a997, 0x20ac9f6d790b3997, 0xeec0b9a6663f5917),
    ("de", "crash+flux+edgedrop", "continuous", 0x951dfb7aac6d40e5, 0xb2be8101dd8af0e5, 0xeec0b9a6663f5917),
    ("de", "crash+shock+flux+adversarial", "nearest", 0x49973708bf819018, 0x682199ca07edd018, 0xbd41b0a7be047b06),
    ("de", "crash+shock+flux+adversarial", "continuous", 0xa011d28c59a1f3f7, 0xb59a430a1e90c3f7, 0x6d6112680ba8c1dd),
    ("de", "flux+load", "nearest", 0x75465459774d5c6c, 0x6489549ee2248c6c, 0x168c2d9184208ffc),
    ("de", "flux+load", "continuous", 0x27e6cd5f31fb8c15, 0x1baf2a63cd094c15, 0x19b4dbc345915dd0),
    ("matching_rr", "crash+edgedrop+stale+shock", "nearest", 0x9da34198b1c1fc9b, 0x4d472fe136cc4c9b, 0xb6683f18ae4b48a0),
    ("matching_rr", "crash+edgedrop+stale+shock", "continuous", 0x7450cd48f9e6f4ff, 0x9677fb275cdb04ff, 0xb6683f18ae4b48a0),
    ("matching_rr", "shock+stale", "nearest", 0x79471381e23de289, 0xd694265bc1b15289, 0x4a157713be699537),
    ("matching_rr", "shock+stale", "continuous", 0xc4cb33804319d97d, 0xaf80b863924e097d, 0x4a157713be699537),
    ("matching_rr", "flux", "nearest", 0x912947f6376e94c5, 0x362cf977cbce44c5, 0x82ad8397c7322d52),
    ("matching_rr", "flux", "continuous", 0xfe233ab1fb65b837, 0x4f4b694047464837, 0x82ad8397c7322d52),
    ("matching_rr", "crash+flux+edgedrop", "nearest", 0x8383b5bbc313c7b1, 0x40a4b8dd7594b7b1, 0x9b01a59fa2332f83),
    ("matching_rr", "crash+flux+edgedrop", "continuous", 0x93c1132cbb2d8a9f, 0x8ab81ce936479a9f, 0x9b01a59fa2332f83),
    ("matching_rr", "crash+shock+flux+adversarial", "nearest", 0xb3177c6746ad91e4, 0x8bdf62f6e58191e4, 0xde6b3aaaa4d13e41),
    ("matching_rr", "crash+shock+flux+adversarial", "continuous", 0x131782d2b454e6bd, 0xd35f450231cf56bd, 0xf84411d080ca8a36),
    ("matching_rr", "flux+load", "nearest", 0xd6e7a639a59c9db6, 0x2e76f6cd64d62db6, 0x168c2d9184208ffc),
    ("matching_rr", "flux+load", "continuous", 0x7a6ff6b7879b8ef8, 0x0001cd43b601fef8, 0x19b4dbc345915dd0),
    ("matching_random", "crash+edgedrop+stale+shock", "nearest", 0x9eca06c9ebe4e131, 0x07f4be6ac6cdd131, 0xf2a7d75dbb36da1a),
    ("matching_random", "crash+edgedrop+stale+shock", "continuous", 0x61d4d44dbc6959c8, 0xb822e5099dacd9c8, 0xf2a7d75dbb36da1a),
    ("matching_random", "shock+stale", "nearest", 0x29b6c25ac679e6c9, 0x03f4726e44a956c9, 0x244342cf3ac82384),
    ("matching_random", "shock+stale", "continuous", 0xc9d912af3a4a6efd, 0x3c26f066ca269efd, 0x244342cf3ac82384),
    ("matching_random", "flux", "nearest", 0xe836cad020a22fd5, 0x35788e88eb10dfd5, 0x8e39bff394471315),
    ("matching_random", "flux", "continuous", 0x972394fdde2b3902, 0x9f5f67823a131902, 0x8e39bff394471315),
    ("matching_random", "crash+flux+edgedrop", "nearest", 0xc448172c65b8d841, 0x263e86ba00f0c841, 0x576f3d3d9a5ec952),
    ("matching_random", "crash+flux+edgedrop", "continuous", 0xccf62f119d8d0cbf, 0xb798d600d0051cbf, 0x576f3d3d9a5ec952),
    ("matching_random", "crash+shock+flux+adversarial", "nearest", 0xbdc455e6466a15cc, 0x2ba69266fc2f95cc, 0xe952114f0de4d6ac),
    ("matching_random", "crash+shock+flux+adversarial", "continuous", 0x9e5ee3fbb3d7499e, 0xb7acaa27a15fa99e, 0xa9fc9b35772d05e1),
    ("matching_random", "flux+load", "nearest", 0x9d13ab8da71537f2, 0x2f4efa6fdeb307f2, 0x168c2d9184208ffc),
    ("matching_random", "flux+load", "continuous", 0x237339f77b0b5f90, 0x818950bbabef4f90, 0x19b4dbc345915dd0),
    ("sos", "crash+edgedrop+stale+shock", "randomized", 0xf3524ad8f4376b89, 0xec957b4fddc1446f, 0x7dce1b91e068a362),
    ("sos", "shock+stale", "randomized", 0x1f956c47722adb1b, 0xb0f1441802a4f5db, 0x3c8b2bcc4670a1c4),
    ("sos", "flux", "randomized", 0xa9f16b97b6adacf1, 0x0072cd6c8421ee49, 0x82ad8397c7322d52),
    ("sos", "crash+flux+edgedrop", "randomized", 0xc46117b3ca360059, 0x76f28994061bd6d9, 0x4b068d43602a8aa1),
    ("sos", "crash+shock+flux+adversarial", "randomized", 0xf93a149cb4b0a4a9, 0x458552ee7aa3fc98, 0x8c5f9ca8331c0a44),
    ("sos", "flux+load", "randomized", 0x34016d2255c8d615, 0x22872b496443f7d7, 0x168c2d9184208ffc),
    ("de", "crash+edgedrop+stale+shock", "randomized", 0xa61773364b3f1a39, 0xaee477152c778a39, 0xef398a34c05c8a43),
    ("de", "shock+stale", "randomized", 0x54b6b20129410ba3, 0x088086f88f3adba3, 0x4a157713be699537),
    ("de", "flux", "randomized", 0x16e40dd85b2e6585, 0x9954e25dff821585, 0x82ad8397c7322d52),
    ("de", "crash+flux+edgedrop", "randomized", 0x3e7388a1d20288d5, 0x49af08b6f2e138d5, 0xeec0b9a6663f5917),
    ("de", "crash+shock+flux+adversarial", "randomized", 0x7d99675400a7ab42, 0xb7f1609df4394b42, 0x447360a809a13cb6),
    ("de", "flux+load", "randomized", 0x9d9432addb298fc2, 0x004ccf7ae47a5fc2, 0x168c2d9184208ffc),
    ("matching_rr", "crash+edgedrop+stale+shock", "randomized", 0xd2cda163de85dd39, 0x38d90110878e4d39, 0xb6683f18ae4b48a0),
    ("matching_rr", "shock+stale", "randomized", 0x54b6b20129410ba3, 0x088086f88f3adba3, 0x4a157713be699537),
    ("matching_rr", "flux", "randomized", 0xa137b3a89a9371c3, 0x77925f86f9ab41c3, 0x82ad8397c7322d52),
    ("matching_rr", "crash+flux+edgedrop", "randomized", 0x49972c4fd90a1769, 0x44a4c95da9af8769, 0x9b01a59fa2332f83),
    ("matching_rr", "crash+shock+flux+adversarial", "randomized", 0xe0827792af11a5d2, 0x10aa6f52739a45d2, 0x420a2aa9bc34a731),
    ("matching_rr", "flux+load", "randomized", 0x2af7f1bdf716ab60, 0xd1fb2ace3b659b60, 0x168c2d9184208ffc),
    ("matching_random", "crash+edgedrop+stale+shock", "randomized", 0x47738e418290dcf7, 0x0b2877a2d9256cf7, 0xf2a7d75dbb36da1a),
    ("matching_random", "shock+stale", "randomized", 0xc567a27ae86efb07, 0x0504fe4c00e28b07, 0x244342cf3ac82384),
    ("matching_random", "flux", "randomized", 0x245c917afb2169b5, 0x8b730021327219b5, 0x8e39bff394471315),
    ("matching_random", "crash+flux+edgedrop", "randomized", 0x0f82a0c0eba74c95, 0xd1e0c8594149fc95, 0x576f3d3d9a5ec952),
    ("matching_random", "crash+shock+flux+adversarial", "randomized", 0x015c61803a0fc473, 0xdeae7572acba5473, 0x196f094e9825d024),
    ("matching_random", "flux+load", "randomized", 0x00383bc71ee29436, 0x0345a44702942436, 0x168c2d9184208ffc),
];

#[test]
fn perturbation_table() {
    let g = generators::torus2d(8, 8);
    let mut report = String::new();
    let mut failed = false;
    for &(scheme, set, mode, state, loads, events) in PERTURBATION_TABLE {
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
            let got = (
                state_checksum(&sim),
                loads_checksum(&sim),
                events_checksum(&sim),
            );
            if got != (state, loads, events) {
                failed = true;
            }
            if threads == 1 {
                report.push_str(&format!(
                    "    (\"{scheme}\", \"{set}\", \"{mode}\", {:#018x}, {:#018x}, {:#018x}),\n",
                    got.0, got.1, got.2
                ));
            } else if got != (state, loads, events) {
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
