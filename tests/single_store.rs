//! One copy of the round state, observed through every accessor.
//!
//! On the worker pool the job's atomics are the simulation's only state
//! store, and in discrete mode the integral flows are the SOS memory. These tests pin that neither changes anything observable:
//! after single `step()`s and after a whole `run_until`, every thread
//! count reports the sequential run's loads, flow memory, total load,
//! metrics and checkpoint bytes bit for bit; a snapshot restored into
//! any executor continues exactly; and a snapshot whose memory a
//! discrete run could never have held is refused with a typed error.

use std::path::{Path, PathBuf};

use sodiff::prelude::*;
use sodiff::{read_checkpoint, write_checkpoint, ScenarioSpec};

/// Spec bodies (without `name=`, `threads=`, `stop=`) covering both
/// rounding pipelines and both modes, plus the perturbation axes that
/// write loads on the control thread.
const SPECS: &[&str] = &[
    "topology=torus2d:9:7 scheme=sos:1.7 rounding=randomized seed=3 init=point:0:63000",
    "topology=torus2d:9:7 scheme=sos:1.7 rounding=nearest init=point:0:63000",
    "topology=torus2d:9:7 scheme=sos:1.7 rounding=unbiased seed=5 init=point:0:63000",
    "topology=torus2d:9:7 scheme=sos:1.7 mode=continuous init=point:0:63000",
    "topology=hypercube:6 scheme=matching:random:7:1 rounding=randomized seed=2 \
     init=point:0:6400 faults=crash:0.1:7+shock:0.25:3+stale:0.1:4 load=poisson:2:42",
    "topology=torus2d:8:8 scheme=sos:1.6 rounding=nearest init=point:0:6400 \
     faults=edgedrop:0.05:3 churn=flux:0.08:0.3:9:25",
];

const THREADS: &[usize] = &[2, 3, 5];

/// A simulation (and the experiment that builds it) can be shared with
/// and sent to other threads, whichever executor holds its state.
const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<Simulator<'static>>();
    send_sync::<Experiment<'static>>();
};

fn spec(body: &str, threads: usize, rounds: usize) -> ScenarioSpec {
    format!("name=store {body} threads={threads} stop=rounds:{rounds}")
        .parse()
        .unwrap_or_else(|e| panic!("{body}: {e}"))
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("sodiff-single-store-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Everything the accessors expose, as raw bits.
#[derive(Debug, PartialEq)]
struct Observed {
    round: u64,
    loads_i64: Option<Vec<i64>>,
    loads_f64: Option<Vec<u64>>,
    loads: Vec<u64>,
    previous_flows: Vec<u64>,
    total_load: u64,
    min_transient: u64,
    metrics: Vec<u64>,
    round_metrics: Option<Vec<u64>>,
    snapshot: Vec<u8>,
}

fn metric_bits(m: &MetricsSnapshot) -> Vec<u64> {
    [
        m.max_minus_avg,
        m.min_minus_avg,
        m.max_local_diff,
        m.potential_over_n,
        m.min_load,
    ]
    .iter()
    .map(|x| x.to_bits())
    .collect()
}

/// Every observable of `sim`, including the encoded checkpoint bytes
/// (written under the same spec line whatever the thread count, so the
/// files are comparable byte for byte).
fn observe(sim: &Simulator<'_>, line: &ScenarioSpec, path: &Path) -> Observed {
    write_checkpoint(path, line, &sim.snapshot()).unwrap();
    Observed {
        round: sim.round(),
        loads_i64: sim.loads_i64().map(|l| l.to_vec()),
        loads_f64: sim
            .loads_f64()
            .map(|l| l.iter().map(|x| x.to_bits()).collect()),
        loads: sim.loads_to_f64().iter().map(|x| x.to_bits()).collect(),
        previous_flows: sim.previous_flows().iter().map(|x| x.to_bits()).collect(),
        total_load: sim.total_load().to_bits(),
        min_transient: sim.min_transient_load().to_bits(),
        metrics: metric_bits(&sim.metrics()),
        round_metrics: sim.round_metrics().as_ref().map(metric_bits),
        snapshot: std::fs::read(path).unwrap(),
    }
}

/// The observation trail of one run: after each of `steps` single
/// `step()`s, then after a `run_until` of `rest` more rounds.
fn trail(body: &str, threads: usize, steps: usize, rest: usize, dir: &Path) -> Vec<Observed> {
    let line = spec(body, 1, steps + rest);
    let run = spec(body, threads, steps + rest);
    let graph = run.build_graph().unwrap();
    let experiment = run.experiment_on(&graph).unwrap();
    let mut sim = experiment.simulator();
    assert_eq!(sim.threads(), threads);
    let path = dir.join(format!("t{threads}.ckpt"));
    let mut out = vec![observe(&sim, &line, &path)];
    for _ in 0..steps {
        sim.step();
        out.push(observe(&sim, &line, &path));
    }
    sim.run_until(StopCondition::MaxRounds(rest));
    out.push(observe(&sim, &line, &path));
    out
}

/// Threads {2, 3, 5} reproduce the sequential run's every observable,
/// bit for bit, after single steps and after a whole run.
#[test]
fn pooled_accessors_match_sequential_bit_for_bit() {
    let dir = scratch_dir("accessors");
    for body in SPECS {
        let seq = trail(body, 1, 5, 37, &dir);
        for &threads in THREADS {
            let pooled = trail(body, threads, 5, 37, &dir);
            for (a, b) in seq.iter().zip(&pooled) {
                assert_eq!(a, b, "{body}: {threads} threads, round {}", a.round);
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A run's state bytes count each piece once: a discrete run keeps no
/// `f64` memory beside its flows, and the pool holds no second copy.
#[test]
fn state_bytes_count_one_copy() {
    let (n, m) = (63usize, 126usize);
    for threads in [1, 2, 3, 5] {
        let bytes = |body: &str| {
            let run = spec(body, threads, 1);
            let graph = run.build_graph().unwrap();
            run.experiment_on(&graph).unwrap().simulator().state_bytes()
        };
        // loads + flows + one fraction per edge; no stored memory.
        assert_eq!(bytes(SPECS[0]), 8 * (n + m + m), "{threads} threads");
        // loads + flows.
        assert_eq!(bytes(SPECS[1]), 8 * (n + m), "{threads} threads");
        // Continuous: loads + memory (which carries the flows).
        assert_eq!(bytes(SPECS[3]), 8 * (n + m), "{threads} threads");
    }
}

/// A snapshot taken mid-run — by either executor — restored into a
/// pooled simulator, or into the sequential one, continues exactly like
/// the uninterrupted run.
#[test]
fn restore_into_pool_continues_exactly() {
    let dir = scratch_dir("restore");
    let (at, total) = (21usize, 50usize);
    for body in SPECS {
        let line = spec(body, 1, total);
        let graph = line.build_graph().unwrap();
        let path = dir.join("cmp.ckpt");
        let straight = {
            let mut sim = line.experiment_on(&graph).unwrap().simulator();
            sim.run_until(StopCondition::MaxRounds(total));
            observe(&sim, &line, &path)
        };
        for from in [1usize, 3] {
            let source = spec(body, from, total);
            let mut sim = source.experiment_on(&graph).unwrap().simulator();
            sim.run_until(StopCondition::MaxRounds(at));
            let ckpt_path = dir.join("mid.ckpt");
            write_checkpoint(&ckpt_path, &line, &sim.snapshot()).unwrap();
            let ckpt = read_checkpoint(&ckpt_path).unwrap();
            for threads in [1, 2, 3, 5] {
                let target = spec(body, threads, total);
                let mut resumed = target.experiment_on(&graph).unwrap().simulator();
                resumed.restore(&ckpt.snapshot).unwrap();
                resumed.run_until(StopCondition::MaxRounds(total - at));
                assert_eq!(
                    observe(&resumed, &line, &path),
                    straight,
                    "{body}: {from}-thread snapshot resumed on {threads} threads"
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A discrete run keeps its memory in the integral flow slots, so a
/// snapshot whose memory is not integral (here: one holding an unrounded
/// scheduled flow, as a run that remembered those would have written)
/// cannot be restored into it — on either executor — and the refusal
/// leaves the target untouched.
#[test]
fn rounded_restore_refuses_non_integral_memory() {
    let dir = scratch_dir("refuse");
    let body = SPECS[0];
    let line = spec(body, 1, 30);
    let graph = line.build_graph().unwrap();
    let mut source = line.experiment_on(&graph).unwrap().simulator();
    source.run_until(StopCondition::MaxRounds(12));
    // The snapshot's memory section is the flows' `f64` bits in edge
    // order: a quarter token goes into one sent flow, and the checksum
    // trailer (FNV-1a over everything before it) is recomputed.
    let path = dir.join("source.ckpt");
    write_checkpoint(&path, &line, &source.snapshot()).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let flows = source.previous_flows();
    let section: Vec<u8> = flows.iter().flat_map(|f| f.to_le_bytes()).collect();
    let at = bytes.windows(section.len()).position(|w| w == section);
    let sent = at.unwrap() + 8 * flows.iter().position(|&f| f != 0.0).unwrap();
    let value = f64::from_le_bytes(bytes[sent..sent + 8].try_into().unwrap()) + 0.25;
    bytes[sent..sent + 8].copy_from_slice(&value.to_le_bytes());
    let end = bytes.len() - 8;
    let fnv = bytes[..end].iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    });
    bytes[end..].copy_from_slice(&fnv.to_le_bytes());
    std::fs::write(&path, bytes).unwrap();
    let snap = read_checkpoint(&path).unwrap().snapshot;
    for threads in [1, 3] {
        let rounded = spec(body, threads, 30);
        let mut target = rounded.experiment_on(&graph).unwrap().simulator();
        target.run_until(StopCondition::MaxRounds(4));
        let path = dir.join("before.ckpt");
        let before = observe(&target, &rounded, &path);
        let err = target.restore(&snap).unwrap_err();
        assert!(
            matches!(&err, CheckpointError::Mismatch(msg) if msg.contains("integral")),
            "{threads} threads: {err}"
        );
        assert_eq!(
            observe(&target, &rounded, &path),
            before,
            "{threads} threads"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
