//! The `mem=compact` state layout: pinned golden traces, executor
//! bit-identity, accuracy tolerance against the full-width layout,
//! checkpoint/resume exactness, and the memory-diet guarantee itself.
//!
//! Compact runs store per-node loads and per-edge state as `i32`/`f32`
//! while keeping every arithmetic step in `f64` (see
//! `crates/core/src/kernel.rs`). They are a *different* deterministic
//! process than `mem=full` — each narrow store rounds — so compact gets
//! its own pinned checksums here, under the same re-pin policy as
//! `tests/golden_trace.rs`. The full-width golden traces over there are
//! the zero-cost guarantee: `mem=full` monomorphizes to the exact
//! pre-compact code paths and its checksums never move.

use sodiff::core::Driver;
use sodiff::graph::generators;
use sodiff::prelude::*;

/// FNV-1a over the full compact simulation state, layout-independent:
/// loads (as `f64` bits), previous flows, and the minimum transient.
fn state_checksum(sim: &Simulator<'_>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for i in 0..sim.graph().node_count() {
        eat(&sim.load_of(i).to_bits().to_le_bytes());
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
        "{name}: compact golden trace diverged from the pinned implementation"
    );
}

#[test]
fn compact_torus_fos_rounded() {
    let g = generators::torus2d(8, 8);
    for threads in [1, 3] {
        let sim = Experiment::on(&g)
            .discrete(Rounding::randomized(42))
            .init(InitialLoad::point(0, 6400))
            .mem(MemSpec::Compact)
            .threads(threads)
            .build()
            .unwrap()
            .simulator();
        run_and_check("compact_torus_fos", 0x5ece01fb7507a57c, sim, 60);
    }
}

#[test]
fn compact_torus_sos_scheduled() {
    let g = generators::torus2d(8, 8);
    for threads in [1, 3] {
        let sim = Experiment::on(&g)
            .discrete(Rounding::randomized(7))
            .sos(1.8)
            .flow_memory(FlowMemory::Scheduled)
            .mem(MemSpec::Compact)
            .threads(threads)
            .build()
            .unwrap()
            .simulator();
        run_and_check("compact_torus_sos_scheduled", 0xc5c2429a8d2805bb, sim, 60);
    }
}

#[test]
fn compact_matching_random_heterogeneous() {
    let g = generators::random_regular(60, 4, 2).unwrap();
    for threads in [1, 4] {
        let sim = Experiment::on(&g)
            .discrete(Rounding::unbiased_edge(13))
            .scheme(Scheme::matching_random(7, 1.0))
            .speeds(Speeds::linear_ramp(60, 5.0))
            .init(InitialLoad::point(0, 60_000))
            .mem(MemSpec::Compact)
            .threads(threads)
            .build()
            .unwrap()
            .simulator();
        run_and_check("compact_matching_random", 0xe1d0d8e39687b05d, sim, 80);
    }
}

/// The pooled compact executor is bit-identical to the sequential one at
/// every thread count, for both modes — the compact `AtomicsI32/F32`
/// buffers perform the same narrow/widen conversions as the sequential
/// `CellsI32/F32` ones.
#[test]
fn compact_seq_matches_pooled() {
    let g = generators::torus2d(9, 7); // odd sizes exercise chunking
    let run = |threads: usize, continuous: bool| {
        let b = Experiment::on(&g);
        let b = if continuous {
            b.continuous().sos(1.7)
        } else {
            b.discrete(Rounding::randomized(13)).sos(1.7)
        };
        let mut sim = b
            .mem(MemSpec::Compact)
            .threads(threads)
            .init(InitialLoad::point(0, 6300))
            .build()
            .unwrap()
            .simulator();
        sim.run_until(StopCondition::MaxRounds(120));
        state_checksum(&sim)
    };
    for continuous in [false, true] {
        let seq = run(1, continuous);
        for threads in [2, 3, 5] {
            assert_eq!(
                seq,
                run(threads, continuous),
                "continuous={continuous}, {threads} threads"
            );
        }
    }
}

/// Compact is a memory diet, not a different balancer: after the same
/// number of rounds its remaining imbalance matches the full-width
/// layout within a small tolerance, and conservation still holds
/// exactly in discrete mode.
#[test]
fn compact_tracks_full_within_tolerance() {
    let g = generators::torus2d(8, 8);
    let run = |mem: MemSpec| {
        let mut sim = Experiment::on(&g)
            .discrete(Rounding::randomized(11))
            .sos(1.7)
            .init(InitialLoad::point(0, 6400))
            .mem(mem)
            .build()
            .unwrap()
            .simulator();
        let report = sim.run_until(StopCondition::MaxRounds(300));
        assert_eq!(sim.total_load(), 6400.0, "tokens conserved under {mem:?}");
        report.final_metrics.max_minus_avg
    };
    let full = run(MemSpec::Full);
    let compact = run(MemSpec::Compact);
    assert!(
        (full - compact).abs() <= 3.0,
        "final max_dev diverged: full {full} vs compact {compact}"
    );
}

/// In continuous mode the compact layout's per-round f32 stores act as a
/// tiny rounding noise; per-node loads stay close to the full run.
#[test]
fn compact_continuous_stays_close_to_full() {
    let g = generators::torus2d(8, 8);
    let run = |mem: MemSpec| {
        let mut sim = Experiment::on(&g)
            .continuous()
            .sos(1.7)
            .init(InitialLoad::point(0, 6400))
            .mem(mem)
            .build()
            .unwrap()
            .simulator();
        sim.run_until(StopCondition::MaxRounds(200));
        sim.loads_to_f64()
    };
    let full = run(MemSpec::Full);
    let compact = run(MemSpec::Compact);
    let worst = full
        .iter()
        .zip(&compact)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(worst < 0.5, "worst per-node deviation {worst}");
}

/// Checkpoint/resume is exact for compact runs: snapshots widen the
/// `i32`/`f32` state losslessly, and restore re-narrows bit-exactly, so
/// an interrupted compact run continues identically to an uninterrupted
/// one — across executors.
#[test]
fn compact_checkpoint_resume_is_exact() {
    let g = generators::torus2d(8, 8);
    let build = |threads: usize| {
        Experiment::on(&g)
            .discrete(Rounding::randomized(5))
            .sos(1.7)
            .init(InitialLoad::point(0, 6400))
            .mem(MemSpec::Compact)
            .threads(threads)
            .build()
            .unwrap()
            .simulator()
    };
    let mut reference = build(1);
    reference.run_until(StopCondition::MaxRounds(60));
    let expected = state_checksum(&reference);

    let mut first = build(1);
    first.run_until(StopCondition::MaxRounds(25));
    let snap = first.snapshot();
    drop(first);
    for threads in [1, 3] {
        let mut resumed = build(threads);
        resumed.restore(&snap).unwrap();
        resumed.run_until(StopCondition::MaxRounds(35));
        assert_eq!(
            state_checksum(&resumed),
            expected,
            "resume diverged on {threads} threads"
        );
    }
}

/// A full-width snapshot whose values do not narrow exactly is rejected
/// with a `Mismatch` — and the simulator is left untouched.
#[test]
fn compact_restore_rejects_unrepresentable_snapshot() {
    let g = generators::cycle(7);
    let mut full = Experiment::on(&g)
        .continuous()
        .init(InitialLoad::point(0, 700))
        .build()
        .unwrap()
        .simulator();
    // 700/3-style thirds are not f32-representable after a few rounds.
    full.run_until(StopCondition::MaxRounds(5));
    let snap = full.snapshot();
    let mut compact = Experiment::on(&g)
        .continuous()
        .init(InitialLoad::point(0, 700))
        .mem(MemSpec::Compact)
        .build()
        .unwrap()
        .simulator();
    let before = state_checksum(&compact);
    let err = compact.restore(&snap).unwrap_err();
    assert!(
        matches!(err, CheckpointError::Mismatch(_)),
        "expected Mismatch, got {err:?}"
    );
    assert_eq!(
        state_checksum(&compact),
        before,
        "failed restore must leave the simulator unmodified"
    );
}

/// The headline guarantee of the diet: compact halves the per-node and
/// per-edge state bytes (well past the required 40% cut), on the
/// sequential executor and with the pool's mirrors included.
#[test]
fn compact_halves_state_bytes() {
    let g = generators::torus2d(16, 16);
    for threads in [1, 3] {
        let bytes = |mem: MemSpec| {
            Experiment::on(&g)
                .discrete(Rounding::randomized(3))
                .sos(1.7)
                .threads(threads)
                .mem(mem)
                .build()
                .unwrap()
                .simulator()
                .state_bytes()
        };
        let full = bytes(MemSpec::Full);
        let compact = bytes(MemSpec::Compact);
        assert_eq!(
            compact * 2,
            full,
            "{threads} threads: compact should be exactly half of {full}"
        );
    }
}

/// `mem=compact` rides through the scenario text format and the batch
/// driver end to end.
#[test]
fn compact_spec_line_runs_through_driver() {
    let line = "name=diet topology=torus2d:6:6 scheme=sos:1.7 mode=discrete \
                rounding=randomized seed=9 init=point:0:3600 stop=rounds:50 mem=compact";
    let spec: ScenarioSpec = line.parse().unwrap();
    assert_eq!(spec.mem, MemSpec::Compact);
    assert!(
        spec.to_string().contains("mem=compact"),
        "display keeps mem"
    );
    let batch = Driver::new().run_batch(&[spec]);
    assert!(batch.errors.is_empty(), "driver failed: {:?}", batch.errors);
    let report = &batch.scenarios[0].report;
    assert_eq!(report.rounds, 50);
    assert!(report.final_metrics.max_minus_avg.is_finite());
}
