//! Persistent worker pool for the round executor.
//!
//! The pool is split in two layers so that one set of threads can serve
//! many simulations (the batch [`crate::Driver`] runs a whole scenario
//! file over a single pool):
//!
//! * [`WorkerPool`] owns the threads, the round barrier, and a slot for
//!   the currently attached job. Threads are spawned **once** and park on
//!   the barrier between rounds; each round costs a handful of barrier
//!   waits instead of the `threads × phases` thread spawns of the old
//!   per-round `thread::scope` executor.
//! * [`RoundJob`] owns one simulation's shared state (kernel tables,
//!   chunk boundaries, loads, flows, flow memory, scratch) in relaxed
//!   atomics. While a simulation runs on the pool these atomics are its
//!   **only** state store: the simulator keeps no load or flow vectors
//!   beside them, so a round ends at its last barrier with nothing to
//!   copy back, and the simulator's accessors read (or copy out of) the
//!   job on request. Attaching a different job retargets the same
//!   threads at a different simulation — no respawn, no rejoin. The
//!   per-round phase sequence itself lives in the job's
//!   [`crate::scheme_kernel::SchemeKernel`]: the pool is scheme-agnostic.
//!
//! Phases are separated by the barrier, which provides the necessary
//! happens-before edges, so the pool needs no `unsafe` and stays within
//! the crate's `#![forbid(unsafe_code)]`. All arithmetic runs through the
//! same kernels as the sequential executor ([`crate::kernel`]), in the
//! same per-element order, so pooled results are **bit-identical** to
//! sequential ones for every scheme × rounding × mode combination
//! regardless of thread count.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::JoinHandle;

use sodiff_graph::Graph;

use crate::checkpoint::LoadsSnapshot;
use crate::engine::FlowMemory;
use crate::kernel::{
    self, AllEdges, AtomicsF64, AtomicsI64, BufF64, BufI64, FwScratch, KernelTables, LoadStats,
    MaskBits,
};
use crate::matchgen::mask_words;
use crate::metrics::DEV_BLOCK;
use crate::scheme_kernel::{ChunkBufs, RoundArgs, RoundScratch, SchemeKernel};

/// One simulation's state as seen by the pool: everything a worker needs
/// to run its share of a round. The phase sequence itself lives in the
/// job's [`SchemeKernel`] — the pool only owns chunking, rendezvous, and
/// the shared atomic buffers.
pub(crate) struct RoundJob {
    tables: Arc<KernelTables>,
    kernel: Arc<SchemeKernel>,
    flow_memory: FlowMemory,
    /// Chunk boundaries over edges / nodes, one chunk per participant.
    edge_bounds: Vec<usize>,
    node_bounds: Vec<usize>,
    /// Per-round parameters, published before the start barrier.
    mem_bits: AtomicU64,
    gain_bits: AtomicU64,
    round: AtomicU64,
    /// The simulation's state — its only copy while it runs on the pool.
    /// Only the mode's vectors are sized: loads of one kind, `flows` in
    /// discrete mode, and `prev` only where the SOS memory is not the
    /// integral flows (continuous mode, whose `prev` also carries the
    /// round's flows, and [`FlowMemory::Scheduled`]).
    loads_i: Vec<AtomicI64>,
    loads_f: Vec<AtomicU64>,
    prev: Vec<AtomicU64>,
    /// Arc-indexed fractional parts (framework jobs only).
    arc_frac: Vec<AtomicU64>,
    flows: Vec<AtomicI64>,
    /// Whether this job runs discrete (integer-token) mode.
    discrete: bool,
    /// Active-edge bitmask words (random-matching jobs, or any job under
    /// crash, edgedrop or churn), published by the control thread before
    /// each round's first barrier.
    mask: Vec<AtomicU64>,
    /// Stale-edge bitmask words (stale-fault jobs only), published by
    /// the control thread before each round's first barrier.
    stale: Vec<AtomicU64>,
    /// Per-participant fused load statistics of the last round, combined
    /// by the control thread after the round's final barrier.
    stats: Vec<StatSlots>,
    /// Per-[`DEV_BLOCK`] squared-deviation partials (bits) of the apply
    /// pass. Node chunks are block-aligned, so each slot has exactly one
    /// writer per round; the control thread folds them in block order.
    block_sums: Vec<AtomicU64>,
}

/// One participant's fused [`LoadStats`] as relaxed atomic bits: written
/// by the participant at the end of its chunk, read by the control
/// thread after the round's final barrier (which provides the
/// happens-before edge).
struct StatSlots {
    min_transient: AtomicU64,
    min_load: AtomicU64,
    max_dev: AtomicU64,
    min_dev: AtomicU64,
    sum_sq_dev: AtomicU64,
}

impl StatSlots {
    fn new() -> Self {
        Self {
            min_transient: AtomicU64::new(0),
            min_load: AtomicU64::new(0),
            max_dev: AtomicU64::new(0),
            min_dev: AtomicU64::new(0),
            sum_sq_dev: AtomicU64::new(0),
        }
    }

    fn store(&self, s: LoadStats) {
        self.min_transient
            .store(s.min_transient.to_bits(), Ordering::Relaxed);
        self.min_load.store(s.min_load.to_bits(), Ordering::Relaxed);
        self.max_dev.store(s.max_dev.to_bits(), Ordering::Relaxed);
        self.min_dev.store(s.min_dev.to_bits(), Ordering::Relaxed);
        self.sum_sq_dev
            .store(s.sum_sq_dev.to_bits(), Ordering::Relaxed);
    }

    fn load(&self) -> LoadStats {
        LoadStats {
            min_transient: f64::from_bits(self.min_transient.load(Ordering::Relaxed)),
            min_load: f64::from_bits(self.min_load.load(Ordering::Relaxed)),
            max_dev: f64::from_bits(self.max_dev.load(Ordering::Relaxed)),
            min_dev: f64::from_bits(self.min_dev.load(Ordering::Relaxed)),
            sum_sq_dev: f64::from_bits(self.sum_sq_dev.load(Ordering::Relaxed)),
        }
    }
}

/// The initial loads seeding a [`RoundJob`], which also select the job's
/// mode.
pub(crate) enum JobLoads<'a> {
    /// Discrete loads.
    I64(&'a [i64]),
    /// Continuous loads.
    F64(&'a [f64]),
}

impl RoundJob {
    /// Captures one simulation's state for execution on a pool with
    /// `threads` participants. The `loads` variant matches the mode and
    /// seeds the job's canonical state.
    pub fn new(
        threads: usize,
        tables: Arc<KernelTables>,
        kernel: Arc<SchemeKernel>,
        flow_memory: FlowMemory,
        loads: JobLoads<'_>,
    ) -> Self {
        let n = tables.n;
        let m = tables.m;
        let arcs = tables.graph().arc_count();
        let framework = kernel.needs_arc_plan();
        let masked = kernel.publishes_mask();
        let staled = kernel.needs_stale_mask();
        let discrete = matches!(loads, JobLoads::I64(_));
        let stored_prev = !discrete || flow_memory == FlowMemory::Scheduled;
        let sized = |yes: bool, len: usize| if yes { len } else { 0 };
        Self {
            tables,
            kernel,
            flow_memory,
            edge_bounds: chunk_bounds(m, threads),
            node_bounds: block_chunk_bounds(n, threads),
            mem_bits: AtomicU64::new(0),
            gain_bits: AtomicU64::new(0),
            round: AtomicU64::new(0),
            loads_i: match loads {
                JobLoads::I64(src) => src.iter().map(|&x| AtomicI64::new(x)).collect(),
                _ => Vec::new(),
            },
            loads_f: match loads {
                JobLoads::F64(src) => src.iter().map(|&x| AtomicU64::new(x.to_bits())).collect(),
                _ => Vec::new(),
            },
            prev: (0..sized(stored_prev, m))
                .map(|_| AtomicU64::new(0f64.to_bits()))
                .collect(),
            arc_frac: (0..sized(framework, arcs))
                .map(|_| AtomicU64::new(0))
                .collect(),
            flows: (0..sized(discrete, m)).map(|_| AtomicI64::new(0)).collect(),
            discrete,
            mask: (0..if masked { mask_words(m) } else { 0 })
                .map(|_| AtomicU64::new(0))
                .collect(),
            stale: (0..if staled { mask_words(m) } else { 0 })
                .map(|_| AtomicU64::new(0))
                .collect(),
            stats: (0..threads).map(|_| StatSlots::new()).collect(),
            block_sums: (0..kernel::dev_blocks(n))
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }

    /// The job's atomics as round buffers.
    fn bufs(&self) -> ChunkBufs<AtomicsI64<'_>, AtomicsF64<'_>> {
        ChunkBufs {
            loads_i: AtomicsI64(&self.loads_i),
            loads_f: AtomicsF64(&self.loads_f),
            prev: AtomicsF64(&self.prev),
            arc_frac: AtomicsF64(&self.arc_frac),
            flows: AtomicsI64(&self.flows),
        }
    }

    /// Runs participant `t`'s share of one round
    /// ([`SchemeKernel::phases`] with the barrier as its sync hook).
    /// Called by workers and — for participant 0 — by the simulator
    /// thread itself. `barrier` is the owning pool's phase barrier.
    fn run_chunk(&self, barrier: &Barrier, t: usize, fw: &mut FwScratch) {
        let tables = &*self.tables;
        let k = &*self.kernel;
        let args = RoundArgs {
            mem: f64::from_bits(self.mem_bits.load(Ordering::Relaxed)),
            gain: f64::from_bits(self.gain_bits.load(Ordering::Relaxed)),
            round: self.round.load(Ordering::Relaxed),
            flow_memory: self.flow_memory,
        };
        let edges = self.edge_bounds[t]..self.edge_bounds[t + 1];
        let nodes = self.node_bounds[t]..self.node_bounds[t + 1];
        let (bufs, sums) = (self.bufs(), AtomicsF64(&self.block_sums));
        let stale = k.needs_stale_mask().then_some(&self.stale[..]);
        let sync = || {
            barrier.wait();
        };
        // A published mask is read from the job's words; an unperturbed
        // sweep plan indexes the kernel's immutable family directly.
        let stats = if k.publishes_mask() {
            let gate = MaskBits(&self.mask[..]);
            k.phases(
                tables, &args, edges, nodes, &bufs, &sums, fw, gate, stale, sync,
            )
        } else if let Some(words) = k.sweep_class(args.round) {
            let gate = MaskBits(words);
            k.phases(
                tables, &args, edges, nodes, &bufs, &sums, fw, gate, stale, sync,
            )
        } else {
            k.phases(
                tables, &args, edges, nodes, &bufs, &sums, fw, AllEdges, stale, sync,
            )
        };
        self.stats[t].store(stats);
    }

    /// Whether the job runs discrete (integer-token) mode.
    pub fn is_discrete(&self) -> bool {
        self.discrete
    }

    /// Whether the SOS memory is the integral flows (discrete mode under
    /// [`FlowMemory::Rounded`]) rather than the `prev` atomics.
    fn rounded_memory(&self) -> bool {
        self.discrete && self.flow_memory == FlowMemory::Rounded
    }

    /// Control-thread round preparation ([`SchemeKernel::prepare`])
    /// against this job's loads; the workers are parked, so it has
    /// exclusive access. Publishes the round's mask and stale words into
    /// the job's atomics (each empty unless the kernel needs it).
    pub fn prepare(&self, graph: &Graph, round: u64, scratch: &mut RoundScratch) {
        let RoundScratch {
            matchgen, perturb, ..
        } = scratch;
        let bufs = self.bufs();
        let masks = self
            .kernel
            .prepare(&self.tables, graph, round, &bufs, matchgen, perturb);
        for (out, words) in [(&self.mask, masks.active), (&self.stale, masks.stale)] {
            for (word, &w) in out.iter().zip(words.unwrap_or_default()) {
                word.store(w, Ordering::Relaxed);
            }
        }
    }

    /// Load of node `i` as `f64`.
    pub fn load_of(&self, i: usize) -> f64 {
        if self.discrete {
            self.loads_i[i].load(Ordering::Relaxed) as f64
        } else {
            AtomicsF64(&self.loads_f).get(i)
        }
    }

    /// A copy of the loads in snapshot form.
    pub fn loads(&self) -> LoadsSnapshot {
        if self.discrete {
            LoadsSnapshot::Discrete(
                self.loads_i
                    .iter()
                    .map(|a| a.load(Ordering::Relaxed))
                    .collect(),
            )
        } else {
            LoadsSnapshot::Continuous(atomics_to_f64(&AtomicsF64(&self.loads_f)))
        }
    }

    /// A copy of the SOS memory as `f64`: materialized from the integral
    /// flows under [`FlowMemory::Rounded`], read from the `prev` atomics
    /// otherwise.
    pub fn memory(&self) -> Vec<f64> {
        if self.rounded_memory() {
            let m = self.tables.m;
            let mut out = vec![0.0; m];
            let flows = AtomicsI64(&self.flows);
            kernel::prev_from_flows(0..m, &flows, &kernel::cells_f64(&mut out));
            out
        } else {
            atomics_to_f64(&AtomicsF64(&self.prev))
        }
    }

    /// Overwrites the loads and the SOS memory (checkpoint restore;
    /// control thread only, workers parked between rounds). The caller
    /// has validated that the snapshot matches the job's mode and that
    /// memory values are integral under [`FlowMemory::Rounded`], so each
    /// store is exact.
    pub fn write_state(&self, loads: &LoadsSnapshot, memory: &[f64]) {
        match loads {
            LoadsSnapshot::Discrete(src) => fill_i(&AtomicsI64(&self.loads_i), src.iter().copied()),
            LoadsSnapshot::Continuous(src) => fill_f(&AtomicsF64(&self.loads_f), src),
        }
        if self.rounded_memory() {
            fill_i(&AtomicsI64(&self.flows), memory.iter().map(|&x| x as i64));
        } else {
            fill_f(&AtomicsF64(&self.prev), memory);
        }
    }

    /// Bytes of per-node and per-edge simulation state this job holds
    /// (loads, integral flows, stored flow memory, arc fractions). Masks
    /// and per-block partials are metadata and excluded.
    pub fn state_bytes(&self) -> usize {
        8 * (self.loads_i.len()
            + self.loads_f.len()
            + self.prev.len()
            + self.arc_frac.len()
            + self.flows.len())
    }
}

/// Copies a whole atomic `f64` buffer out.
fn atomics_to_f64<B: BufF64>(buf: &B) -> Vec<f64> {
    buf.elems().iter().map(B::read).collect()
}

/// Overwrites a real-valued buffer from `src`.
fn fill_f<B: BufF64>(buf: &B, src: &[f64]) {
    for (e, &x) in buf.elems().iter().zip(src) {
        B::write(e, x);
    }
}

/// Overwrites an integer buffer from `src`.
fn fill_i<B: BufI64>(buf: &B, src: impl Iterator<Item = i64>) {
    for (e, x) in buf.elems().iter().zip(src) {
        B::write(e, x);
    }
}

/// State shared between the pool's owner and the workers.
struct PoolInner {
    /// Round rendezvous; participants = worker count + 1 (the driver or
    /// simulator thread).
    barrier: Barrier,
    stop: AtomicBool,
    /// The currently attached job; swapped when a different simulation
    /// takes over the pool.
    job: Mutex<Option<Arc<RoundJob>>>,
    /// Serializes whole rounds: the barrier protocol admits exactly one
    /// external participant, and the pool is `Sync` behind an `Arc`, so
    /// two simulators sharing a pool must take turns round by round.
    round_lock: Mutex<()>,
}

/// A persistent pool of `threads − 1` workers plus the calling thread.
///
/// The pool itself is simulation-agnostic: per-simulation state lives in a
/// [`RoundJob`] attached at `run_round` time, so a batch driver can push
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

    /// Executes one full round of `job` on the pool and returns the
    /// round's fused load statistics: the min/max fields merged from the
    /// per-participant chunk reductions in chunk order (exact — order
    /// free), the squared-deviation sum folded from the shared
    /// per-[`DEV_BLOCK`] partials in block order — bit-identical to the
    /// sequential executor's fold. The calling thread participates as
    /// chunk 0; `scratch` is its framework-rounding scratch.
    ///
    /// Concurrent callers (two simulations sharing one pool) are
    /// serialized round by round: the barrier protocol admits exactly one
    /// external participant at a time.
    pub fn run_round(
        &self,
        job: &Arc<RoundJob>,
        mem: f64,
        gain: f64,
        round: u64,
        scratch: &mut FwScratch,
    ) -> LoadStats {
        let _round = self
            .inner
            .round_lock
            .lock()
            .expect("pool round lock poisoned");
        job.mem_bits.store(mem.to_bits(), Ordering::Relaxed);
        job.gain_bits.store(gain.to_bits(), Ordering::Relaxed);
        job.round.store(round, Ordering::Relaxed);
        {
            let mut slot = self.inner.job.lock().expect("pool job lock poisoned");
            let current = slot.as_ref().is_some_and(|j| Arc::ptr_eq(j, job));
            if !current {
                *slot = Some(Arc::clone(job));
            }
        }
        self.inner.barrier.wait();
        job.run_chunk(&self.inner.barrier, 0, scratch);
        self.inner.barrier.wait();
        let mut stats = job
            .stats
            .iter()
            .map(StatSlots::load)
            .fold(LoadStats::identity(), LoadStats::merge);
        stats.sum_sq_dev = kernel::fold_block_sums(
            job.block_sums.len(),
            &crate::kernel::AtomicsF64(&job.block_sums),
        );
        stats
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

/// Balanced chunk boundaries: `parts + 1` cut points over `len` items.
pub(crate) fn chunk_bounds(len: usize, parts: usize) -> Vec<usize> {
    let parts = parts.max(1);
    (0..=parts).map(|t| t * len / parts).collect()
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
        for (len, parts) in [(10usize, 3usize), (7, 7), (5, 8), (0, 4), (100, 1)] {
            let b = chunk_bounds(len, parts);
            assert_eq!(b[0], 0);
            assert_eq!(*b.last().unwrap(), len);
            assert!(b.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    use crate::engine::Mode;
    use crate::rounding::Rounding;
    use crate::scheme::Scheme;

    /// A kernel for the given mode on `graph` with uniform speeds.
    fn fos_kernel(graph: &sodiff_graph::Graph, mode: Mode) -> Arc<SchemeKernel> {
        let speeds = sodiff_graph::Speeds::uniform(graph.node_count());
        Arc::new(
            SchemeKernel::new(
                Scheme::fos(),
                mode,
                graph,
                &speeds,
                crate::perturb::PerturbSpec::default(),
            )
            .unwrap(),
        )
    }

    #[test]
    fn pool_starts_and_shuts_down_cleanly() {
        use sodiff_graph::{generators, Speeds};
        let g = generators::torus2d(4, 4);
        let tables = Arc::new(KernelTables::new(&g, &Speeds::uniform(16), false, 160.0));
        let loads = vec![10i64; 16];
        let pool = WorkerPool::new(3);
        let job = Arc::new(RoundJob::new(
            pool.threads(),
            tables,
            fos_kernel(&g, Mode::Discrete(Rounding::nearest())),
            FlowMemory::Rounded,
            JobLoads::I64(&loads),
        ));
        // Balanced start: every scheduled flow is 0, loads stay put.
        let mut scratch = FwScratch::new();
        let stats = pool.run_round(&job, 0.0, 1.0, 0, &mut scratch);
        assert_eq!(stats.min_transient, 10.0);
        assert_eq!(stats.min_load, 10.0);
        // total 160 over 16 uniform nodes: already balanced, zero devs.
        assert_eq!(stats.max_dev, 0.0);
        assert_eq!(stats.min_dev, 0.0);
        assert_eq!(stats.sum_sq_dev, 0.0);
        assert_eq!(job.loads(), LoadsSnapshot::Discrete(loads));
        // Rounded discrete memory lives in the flows: no `prev` atomics.
        assert_eq!(job.state_bytes(), 8 * (16 + 32));
        drop(pool); // must not hang
    }

    #[test]
    fn pool_is_reusable_across_jobs() {
        use sodiff_graph::{generators, Speeds};
        let pool = WorkerPool::new(4);
        let mut scratch = FwScratch::new();
        // Two different graphs and modes, one pool, interleaved rounds.
        let g1 = generators::torus2d(3, 5);
        let t1 = Arc::new(KernelTables::new(&g1, &Speeds::uniform(15), false, 105.0));
        let job1 = Arc::new(RoundJob::new(
            pool.threads(),
            t1,
            fos_kernel(&g1, Mode::Discrete(Rounding::nearest())),
            FlowMemory::Rounded,
            JobLoads::I64(&[7i64; 15]),
        ));
        let g2 = generators::cycle(9);
        let t2 = Arc::new(KernelTables::new(&g2, &Speeds::uniform(9), false, 27.0));
        let job2 = Arc::new(RoundJob::new(
            pool.threads(),
            t2,
            fos_kernel(&g2, Mode::Continuous),
            FlowMemory::Rounded,
            JobLoads::F64(&[3.0f64; 9]),
        ));
        for round in 0..4 {
            let s1 = pool.run_round(&job1, 0.0, 1.0, round, &mut scratch);
            assert_eq!(s1.min_transient, 7.0);
            let s2 = pool.run_round(&job2, 0.0, 1.0, round, &mut scratch);
            assert_eq!(s2.min_transient, 3.0);
        }
        assert_eq!(job1.loads(), LoadsSnapshot::Discrete(vec![7i64; 15]));
    }
}
