//! Persistent worker pool for the round executor.
//!
//! The pool is split in two layers so that one set of threads can serve
//! many simulations (the batch [`crate::Driver`] runs a whole scenario
//! file over a single pool when it is given more than one thread):
//!
//! * [`WorkerPool`] owns the threads, the round barrier, and a slot for
//!   the job of the round in flight. Threads are spawned **once** and
//!   park on the barrier between rounds; each round costs a handful of
//!   barrier waits instead of the `threads × phases` thread spawns of the
//!   old per-round `thread::scope` executor.
//! * [`RoundJob`] is one simulation as the pool runs it: its
//!   [`RoundState`] over relaxed atomics — the simulation's **only**
//!   state store — plus the chunk boundaries, the round's scalars, and
//!   copies of the masks [`SchemeKernel::prepare`] returned. A job is
//!   attached for one round at a time:
//!   the workers release it before the round's last barrier and the pool
//!   detaches it after, so between rounds the simulator holds its job
//!   alone and its control thread prepares the next round (and restores
//!   checkpoints) through `&mut`. Attaching a different job retargets
//!   the same threads at a different simulation — no respawn, no rejoin.
//!
//! A pooled round runs the same three steps as a sequential one:
//! [`RoundJob::prepare`] on the control thread, then every participant's
//! [`SchemeKernel::participate`] over its chunk with the barrier as the
//! sync hook, then [`crate::scheme_kernel::ChunkBufs::collect`]. The
//! barrier provides the happens-before edges between phases, so the pool
//! needs no `unsafe` and stays within the crate's `#![forbid(unsafe_code)]`.
//! All arithmetic runs through the same kernels as the sequential
//! executor ([`crate::kernel`]), in the same per-element order, so pooled
//! results are **bit-identical** to sequential ones for every scheme ×
//! rounding × mode combination regardless of thread count.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::JoinHandle;

use crate::kernel::{FwScratch, LoadStats};
use crate::metrics::DEV_BLOCK;
use crate::perturb::RoundMasks;
use crate::scheme_kernel::{AtomicSlots, RoundArgs, RoundScratch, RoundState, SchemeKernel};

/// One simulation as the pool runs it. The phase sequence itself lives in
/// the job's [`SchemeKernel`]; the job owns the state, the chunking, and
/// what the control thread publishes for each round.
pub(crate) struct RoundJob {
    kernel: Arc<SchemeKernel>,
    /// Chunk boundaries over edges / nodes, one chunk per participant.
    edge_bounds: Vec<usize>,
    node_bounds: Vec<usize>,
    /// The simulation's state — its only copy while it runs on the pool.
    pub state: RoundState<AtomicSlots>,
    /// The round's scalars, published by [`RoundJob::prepare`].
    args: RoundArgs,
    /// The round's active-edge and stale-edge words, exactly as
    /// [`SchemeKernel::prepare`] returned them (`None` where it returned
    /// none), published by [`RoundJob::prepare`].
    active: Option<Vec<u64>>,
    stale: Option<Vec<u64>>,
    /// Per-participant fused load statistics of the last round, merged by
    /// the control thread after the round's final barrier.
    stats: Vec<Mutex<LoadStats>>,
}

impl RoundJob {
    /// One simulation's `state`, chunked for a pool with `threads`
    /// participants.
    pub fn new(threads: usize, kernel: Arc<SchemeKernel>, state: RoundState<AtomicSlots>) -> Self {
        Self {
            edge_bounds: word_chunk_bounds(kernel.tables.m, threads),
            node_bounds: block_chunk_bounds(kernel.tables.n, threads),
            kernel,
            state,
            args: RoundArgs::default(),
            active: None,
            stale: None,
            stats: (0..threads)
                .map(|_| Mutex::new(LoadStats::identity()))
                .collect(),
        }
    }

    /// The first step of a pooled round, on the control thread while the
    /// job is detached: [`SchemeKernel::prepare`] against the job's loads,
    /// then publishing the round's scalars and exactly the masks it
    /// returned for the participants.
    pub fn prepare(&mut self, args: RoundArgs, scratch: &mut RoundScratch) {
        let bufs = self.state.bufs();
        let RoundScratch {
            matchgen, perturb, ..
        } = scratch;
        let masks = self.kernel.prepare(args.round, &bufs, matchgen, perturb);
        for (out, words) in [
            (&mut self.active, masks.active),
            (&mut self.stale, masks.stale),
        ] {
            match words {
                Some(words) => {
                    let out = out.get_or_insert_default();
                    out.clear();
                    out.extend_from_slice(words);
                }
                None => *out = None,
            }
        }
        self.args = args;
    }

    /// The round's masks as [`RoundJob::prepare`] published them.
    pub fn masks(&self) -> RoundMasks<'_> {
        RoundMasks {
            active: self.active.as_deref(),
            stale: self.stale.as_deref(),
        }
    }

    /// Participant `t`'s share of the round: [`SchemeKernel::participate`]
    /// over its chunk, with the barrier as the sync hook. Called by the
    /// workers and — as participant 0 — by the simulator thread.
    fn run_chunk(&self, barrier: &Barrier, t: usize, fw: &mut FwScratch) {
        let masks = self.masks();
        let edges = self.edge_bounds[t]..self.edge_bounds[t + 1];
        let nodes = self.node_bounds[t]..self.node_bounds[t + 1];
        let bufs = self.state.bufs();
        let sync = || {
            barrier.wait();
        };
        let stats = self
            .kernel
            .participate(&self.args, edges, nodes, &bufs, masks, fw, sync);
        *self.stats[t].lock().expect("pool stats lock poisoned") = stats;
    }
}

/// State shared between the pool's owner and the workers.
struct PoolInner {
    /// Round rendezvous; participants = worker count + 1 (the driver or
    /// simulator thread).
    barrier: Barrier,
    stop: AtomicBool,
    /// The job of the round in flight (`None` between rounds).
    job: Mutex<Option<Arc<RoundJob>>>,
    /// Serializes whole rounds: the barrier protocol admits exactly one
    /// external participant, and the pool is `Sync` behind an `Arc`, so
    /// two simulators sharing a pool must take turns round by round.
    round_lock: Mutex<()>,
}

/// A persistent pool of `threads − 1` workers plus the calling thread.
///
/// The pool itself is simulation-agnostic: per-simulation state lives in a
/// [`RoundJob`] attached for each `run_round`, so a batch driver can push
/// many simulations through one spawn/join lifecycle.
pub(crate) struct WorkerPool {
    inner: Arc<PoolInner>,
    threads: usize,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns the workers (parked until the first `run_round`).
    pub fn new(threads: usize) -> Self {
        assert!(threads > 1, "a pool needs at least two participants");
        let inner = Arc::new(PoolInner {
            barrier: Barrier::new(threads),
            stop: AtomicBool::new(false),
            job: Mutex::new(None),
            round_lock: Mutex::new(()),
        });
        let handles = (1..threads)
            .map(|t| {
                let sh = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("sodiff-worker-{t}"))
                    .spawn(move || {
                        let mut scratch = FwScratch::new();
                        loop {
                            sh.barrier.wait();
                            if sh.stop.load(Ordering::Acquire) {
                                break;
                            }
                            let job = sh
                                .job
                                .lock()
                                .expect("pool job lock poisoned")
                                .clone()
                                .expect("round released without a job");
                            job.run_chunk(&sh.barrier, t, &mut scratch);
                            // Released before the last barrier, so the
                            // simulator holds its job alone between rounds.
                            drop(job);
                            sh.barrier.wait();
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            inner,
            threads,
            handles,
        }
    }

    /// Number of participants (workers + the calling thread). Jobs must be
    /// created with this chunk count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Executes one full round of `job`, which [`RoundJob::prepare`] has
    /// set up, and returns the round's fused load statistics
    /// ([`crate::scheme_kernel::ChunkBufs::collect`] over the
    /// participants' chunks). The calling thread participates as chunk 0;
    /// `fw` is its framework-rounding scratch. The job is detached again
    /// before this returns.
    ///
    /// Concurrent callers (two simulations sharing one pool) are
    /// serialized round by round: the barrier protocol admits exactly one
    /// external participant at a time.
    pub fn run_round(&self, job: &Arc<RoundJob>, fw: &mut FwScratch) -> LoadStats {
        let _round = self
            .inner
            .round_lock
            .lock()
            .expect("pool round lock poisoned");
        let slot = || self.inner.job.lock().expect("pool job lock poisoned");
        *slot() = Some(Arc::clone(job));
        self.inner.barrier.wait();
        job.run_chunk(&self.inner.barrier, 0, fw);
        self.inner.barrier.wait();
        slot().take();
        let stats = job
            .stats
            .iter()
            .map(|s| *s.lock().expect("pool stats lock poisoned"));
        job.state.bufs().collect(stats)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.inner.stop.store(true, Ordering::Release);
        // Workers are parked on the start barrier; release them into the
        // stop check.
        self.inner.barrier.wait();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Edge chunk boundaries aligned down to multiples of 64 (the final
/// boundary stays `len`), so every word of a round's edge bitsets lies in
/// one participant's chunk: a matching round's edge step visits whole
/// words and lands their edges' flows from that chunk alone.
/// Like the node alignment below, it never changes simulation results.
pub(crate) fn word_chunk_bounds(len: usize, parts: usize) -> Vec<usize> {
    let parts = parts.max(1);
    let words = len.div_ceil(64);
    (0..=parts)
        .map(|t| (t * words / parts * 64).min(len))
        .collect()
}

/// Node chunk boundaries aligned down to [`DEV_BLOCK`] multiples (the
/// final boundary stays `len`), so every potential block has exactly one
/// writing participant. Alignment never changes simulation results —
/// the apply and rounding phases are per-node independent — only which
/// participant computes which node.
pub(crate) fn block_chunk_bounds(len: usize, parts: usize) -> Vec<usize> {
    let parts = parts.max(1);
    (0..=parts)
        .map(|t| {
            if t == parts {
                len
            } else {
                (t * len / parts) / DEV_BLOCK * DEV_BLOCK
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_bounds_partition() {
        for (len, parts) in [
            (10usize, 3usize),
            (7, 7),
            (5, 8),
            (0, 4),
            (100, 1),
            (1000, 3),
        ] {
            let b = word_chunk_bounds(len, parts);
            assert_eq!((b[0], *b.last().unwrap()), (0, len));
            assert!(b.windows(2).all(|w| w[0] <= w[1]));
            assert!(b.iter().all(|&c| c % 64 == 0 || c == len));
        }
        assert_eq!(word_chunk_bounds(200, 2), [0, 128, 200]);
        assert_eq!(word_chunk_bounds(131_072, 2), [0, 65_536, 131_072]);
    }

    use crate::checkpoint::LoadsSnapshot;
    use crate::engine::Mode;
    use crate::experiment::Config;
    use crate::rounding::Rounding;
    use sodiff_graph::{generators, Graph, Speeds};

    /// A FOS job for the given mode on `graph` (uniform speeds, rounded
    /// memory), chunked for `pool`.
    fn fos_job(pool: &WorkerPool, graph: &Graph, mode: Mode, loads: Vec<i64>) -> Arc<RoundJob> {
        let speeds = Speeds::uniform(graph.node_count());
        let total = loads.iter().sum::<i64>() as f64;
        let config = Config {
            mode,
            ..Config::new(graph)
        };
        let kernel = SchemeKernel::new(&config, graph, &speeds, total);
        let state = RoundState::new(&kernel, loads);
        Arc::new(RoundJob::new(pool.threads(), Arc::new(kernel), state))
    }

    /// One FOS round (`mem = 0`, `gain = 1`) of `job`: prepared through
    /// `&mut` — the pool detached the job after its last round — then run.
    fn fos_round(pool: &WorkerPool, job: &mut Arc<RoundJob>, round: u64) -> LoadStats {
        let args = RoundArgs {
            mem: 0.0,
            gain: 1.0,
            round,
        };
        let mut scratch = RoundScratch::new();
        let unshared = Arc::get_mut(job).expect("the pool detaches a job after its round");
        unshared.prepare(args, &mut scratch);
        pool.run_round(job, &mut scratch.fw)
    }

    #[test]
    fn pool_starts_and_shuts_down_cleanly() {
        let g = generators::torus2d(4, 4);
        let pool = WorkerPool::new(3);
        let mode = Mode::Discrete(Rounding::nearest());
        let mut job = fos_job(&pool, &g, mode, vec![10; 16]);
        // Balanced start: every scheduled flow is 0, loads stay put.
        let stats = fos_round(&pool, &mut job, 0);
        assert_eq!(stats.min_transient, 10.0);
        assert_eq!(stats.min_load, 10.0);
        // total 160 over 16 uniform nodes: already balanced, zero devs.
        assert_eq!(stats.max_dev, 0.0);
        assert_eq!(stats.min_dev, 0.0);
        assert_eq!(stats.sum_sq_dev, 0.0);
        assert_eq!(job.state.loads(), LoadsSnapshot::Discrete(vec![10; 16]));
        // A discrete run's memory is its integral flows: no `f64` flows.
        assert_eq!(job.state.state_bytes(), 8 * (16 + 32));
        drop(pool); // must not hang
    }

    #[test]
    fn pool_is_reusable_across_jobs() {
        let pool = WorkerPool::new(4);
        // Two different graphs and modes, one pool, interleaved rounds.
        let g1 = generators::torus2d(3, 5);
        let mode = Mode::Discrete(Rounding::nearest());
        let mut job1 = fos_job(&pool, &g1, mode, vec![7; 15]);
        let g2 = generators::cycle(9);
        let mut job2 = fos_job(&pool, &g2, Mode::Continuous, vec![3; 9]);
        for round in 0..4 {
            assert_eq!(fos_round(&pool, &mut job1, round).min_transient, 7.0);
            assert_eq!(fos_round(&pool, &mut job2, round).min_transient, 3.0);
        }
        assert_eq!(job1.state.loads(), LoadsSnapshot::Discrete(vec![7; 15]));
    }
}
