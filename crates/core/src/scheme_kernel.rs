//! The scheme-kernel layer: one object per simulation that owns the
//! per-round flow computation — edge pass, rounding hook, apply pass, and
//! barrier plan — for **every** balancing scheme.
//!
//! Before this layer existed, the flow computation was hard-wired through
//! the engine (sequential rounds) and the worker pool (chunked rounds):
//! adding a scheme meant re-threading its phase sequence through both by
//! hand. A [`SchemeKernel`] now captures the two orthogonal choices a
//! scheme makes, as plain enums dispatched statically:
//!
//! * [`FlowPass`] — *how* an active edge's flow is computed and rounded:
//!   the continuous pass, the fused edge-local discrete pass, or the
//!   two-phase randomized-framework pipeline (scatter, then node-centric
//!   rounding). These call straight into
//!   the division-free kernels of [`crate::kernel`], so the diffusion
//!   paths keep their exact pre-refactor codegen (pinned bit-for-bit by
//!   `tests/golden_trace.rs`).
//! * [`ActivePlan`] — *which* edges are active each round: all of them
//!   (diffusion), a precomputed family of bitmasks swept round-robin
//!   (dimension exchange over the color classes of an edge coloring;
//!   matching-based balancing over maximal matchings), or a fresh random
//!   maximal matching drawn per round from a `(seed, round)`-keyed greedy
//!   order.
//! * the perturbation layer (the `perturb` module) — *what happens
//!   around* each round: the fault, load and churn channels of
//!   [`crate::FaultSpec`], [`crate::LoadSpec`] and [`crate::ChurnSpec`],
//!   drawn from counter-indexed RNG streams and run by the control
//!   thread before the flow pass, in the fixed order crash epoch →
//!   shock → churn handoff → load injection (so a departing node's
//!   handoff lands before new work arrives). Under crash, edgedrop or
//!   churn every plan's mask — diffusion's too — is composed with the
//!   epoch's up-edge set and the round's drops, and sweep families are
//!   repaired incrementally at membership epochs; with every channel
//!   `none` each hot loop below takes exactly its unperturbed path.
//!
//! The masked plans run through `*_masked` kernel variants that force
//! inactive edges' flows to zero with a branchless bit test; the
//! diffusion plan runs through the original unmasked kernels. Both the
//! sequential executor ([`SchemeKernel::run_discrete_seq`] /
//! [`SchemeKernel::run_continuous_seq`]) and the worker pool
//! ([`SchemeKernel::run_chunk`]) execute the *same* kernel calls in the
//! same per-element order, so pooled results remain bit-identical to
//! sequential ones for every scheme — the property
//! `tests/determinism.rs` and the golden traces check.
//!
//! Pairwise schemes replace the diffusion coefficients `α_e/s` with the
//! λ-scaled harmonic-speed pair `coef_tail = λ·s_v/(s_u+s_v)`,
//! `coef_head = λ·s_u/(s_u+s_v)`, so an active edge schedules
//! `y = λ·(s_u·s_v/(s_u+s_v))·(x_u/s_u − x_v/s_v)` — exact pairwise
//! averaging at `λ = 1` under uniform speeds.
//!
//! Per-round matching state (the random plan's mask) is produced by the
//! *control* thread — [`SchemeKernel::prepare_pooled`] before the round's
//! first barrier on the pool, or inline in the sequential round — so
//! results never depend on the executor.
//!
//! See the "adding a scheme" walkthrough in the crate docs
//! ([`crate`]) for the end-to-end list of touch points.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Barrier;

use sodiff_graph::{matching, EdgeId, Graph, Speeds};

use crate::engine::{FlowMemory, Mode};
use crate::error::BuildError;
use crate::kernel::{
    self, AtomicsF64, AtomicsI64, BufF64, BufI64, CellsF64, CellsI64, CoefPair, FwScratch,
    KernelTables, LoadStats,
};
use crate::matchgen::{self, mask_words, MatchScratch};
use crate::perturb::{Fluid, Perturb, PerturbSpec, Tokens};
use crate::rounding::Rounding;
use crate::scheme::{MatchingStrategy, Scheme};

/// How an active edge's flow is computed and rounded (the per-mode phase
/// sequence).
#[derive(Debug, Clone, Copy)]
pub(crate) enum FlowPass {
    /// Continuous mode: the scheduled flow is the flow.
    Continuous,
    /// Discrete mode with an edge-local rounding: one fused sweep.
    EdgeLocal(Rounding),
    /// Discrete mode with the node-centric randomized framework: the
    /// streaming scatter + rounding pipeline.
    Framework {
        /// RNG seed of the framework's per-(node, round) streams.
        seed: u64,
    },
}

/// Which edges are active each round.
pub(crate) enum ActivePlan {
    /// Every edge, every round (the diffusion schemes).
    All,
    /// Precomputed edge bitmasks swept round-robin: color classes for
    /// dimension exchange, maximal matchings for round-robin
    /// matching-based balancing. `masks[round % masks.len()]` is the
    /// round's active set.
    Sweep {
        /// The mask family.
        masks: Vec<Vec<u64>>,
        /// How the family reacts to node crashes: `true` re-covers freed
        /// live nodes after masking dead incidences out (matchings stay
        /// maximal-ish), `false` only masks out (color classes keep
        /// their one-neighbor-per-round structure).
        recover: bool,
    },
    /// A fresh random maximal matching per round (greedy over a
    /// `(seed, round)`-keyed random edge order, generated by the control
    /// thread).
    Random {
        /// Seed of the per-round matching draws.
        seed: u64,
    },
}

/// Everything a simulation's control thread needs between rounds: the
/// framework rounding scratch, the matching-generation scratch, and the
/// sequential executor's potential-block buffer.
#[derive(Default)]
pub(crate) struct RoundScratch {
    /// Participant-0 scratch of the randomized framework's rounding phase.
    pub fw: FwScratch,
    /// Random-matching generation scratch.
    pub matchgen: MatchScratch,
    /// Per-[`crate::metrics::DEV_BLOCK`] squared-deviation partials of
    /// the sequential apply pass (the pool keeps its own atomic buffer).
    block_sums: Vec<f64>,
    /// Perturbation state: the epoch's membership masks, the round's
    /// drop/stale masks, and the accumulated event counters.
    pub perturb: Perturb,
}

impl RoundScratch {
    /// An empty scratch (buffers grow on first use and are then reused).
    pub fn new() -> Self {
        Self::default()
    }
}

/// One simulation's shared atomic state as seen by a pool participant;
/// see [`SchemeKernel::run_chunk`].
pub(crate) struct ChunkBufs<'a> {
    /// Integer loads (discrete mode; empty otherwise).
    pub loads_i: AtomicsI64<'a>,
    /// Continuous loads (continuous mode; empty otherwise).
    pub loads_f: AtomicsF64<'a>,
    /// Per-edge SOS memory (continuous mode — where it also carries the
    /// round's flows — and [`FlowMemory::Scheduled`]; empty under
    /// [`FlowMemory::Rounded`], whose memory is `flows`).
    pub prev: AtomicsF64<'a>,
    /// Arc-indexed fractional parts (framework flow pass only).
    pub arc_frac: AtomicsF64<'a>,
    /// Per-edge integral flows (discrete mode), kept across rounds: they
    /// are the SOS memory under [`FlowMemory::Rounded`].
    pub flows: AtomicsI64<'a>,
    /// Active-edge bitmask words (random matching plan, or any plan
    /// under crash, edgedrop or churn), published by the control thread
    /// before the round's first barrier.
    pub mask: &'a [AtomicU64],
    /// The round's stale-edge words (stale fault channel only),
    /// published by the control thread before the round's first barrier
    /// and consumed by the apply pass.
    pub stale: &'a [AtomicU64],
    /// Per-block squared-deviation partials written by the apply pass
    /// (one writer per block: node chunks are block-aligned), folded by
    /// the control thread after the round.
    pub block_sums: &'a [AtomicU64],
}

/// The per-simulation scheme kernel; see the module docs above.
pub(crate) struct SchemeKernel {
    flow: FlowPass,
    plan: ActivePlan,
    /// λ-scaled pairwise coefficients `(coef_tail, coef_head)` (`None`
    /// for diffusion, which uses the `α_e/s` tables baked into
    /// [`KernelTables`]); one shared buffer under uniform speeds.
    pair_coefs: Option<CoefPair>,
    /// Packed per-edge endpoints for the random-matching generator's
    /// greedy pass ([`matchgen::edge_pairs`]; empty for other plans).
    match_pairs: Vec<u64>,
    /// The fault, load and churn channels (all `none` = unperturbed).
    pub perturb: PerturbSpec,
}

/// Builds the edge bitmask of one active set.
fn class_mask(m: usize, edges: &[EdgeId]) -> Vec<u64> {
    let mut words = vec![0u64; mask_words(m)];
    for &e in edges {
        words[(e >> 6) as usize] |= 1u64 << (e & 63);
    }
    words
}

/// The λ-scaled harmonic-speed coefficient tables of the pairwise
/// schemes: `coef_tail[e] = λ·s_v/(s_u+s_v)`, `coef_head[e] = λ·s_u/(s_u+s_v)`,
/// so `y_e = coef_tail·x_u − coef_head·x_v = λ·(s_u·s_v/(s_u+s_v))·(x_u/s_u − x_v/s_v)`.
fn exchange_coefs(graph: &Graph, speeds: &Speeds, lambda: f64) -> CoefPair {
    kernel::coef_pair(graph, speeds, |u, v| {
        let su = speeds.get(u as usize);
        let sv = speeds.get(v as usize);
        (lambda * sv / (su + sv), lambda * su / (su + sv))
    })
}

impl SchemeKernel {
    /// Validates `scheme` against `graph` without building anything: the
    /// builder-level check behind [`crate::ExperimentBuilder::build`].
    ///
    /// # Errors
    ///
    /// [`BuildError::InvalidBeta`] / [`BuildError::InvalidLambda`] for
    /// out-of-range parameters; [`BuildError::NoColoring`] /
    /// [`BuildError::NoMatching`] when a pairwise scheme meets an
    /// edgeless graph.
    pub fn validate(scheme: Scheme, graph: &Graph) -> Result<(), BuildError> {
        scheme.check()?;
        if graph.edge_count() == 0 {
            let why = format!("the graph has {} node(s) but no edges", graph.node_count());
            match scheme {
                Scheme::DimensionExchange { .. } => return Err(BuildError::NoColoring(why)),
                Scheme::Matching { .. } => return Err(BuildError::NoMatching(why)),
                Scheme::Fos | Scheme::Sos { .. } => {}
            }
        }
        Ok(())
    }

    /// Builds the kernel for one validated simulation.
    ///
    /// # Errors
    ///
    /// Everything [`SchemeKernel::validate`] reports.
    pub fn new(
        scheme: Scheme,
        mode: Mode,
        graph: &Graph,
        speeds: &Speeds,
        perturb: PerturbSpec,
    ) -> Result<Self, BuildError> {
        Self::validate(scheme, graph)?;
        perturb.check()?;
        let flow = match mode {
            Mode::Continuous => FlowPass::Continuous,
            Mode::Discrete(Rounding::RandomizedFramework { seed }) => FlowPass::Framework { seed },
            Mode::Discrete(rounding) => FlowPass::EdgeLocal(rounding),
        };
        let m = graph.edge_count();
        let (plan, lambda) = match scheme {
            Scheme::Fos | Scheme::Sos { .. } => (ActivePlan::All, None),
            Scheme::DimensionExchange { lambda } => {
                let coloring = matching::edge_coloring(graph);
                let masks = coloring
                    .classes()
                    .iter()
                    .map(|class| class_mask(m, class))
                    .collect();
                (
                    ActivePlan::Sweep {
                        masks,
                        recover: false,
                    },
                    Some(lambda),
                )
            }
            Scheme::Matching { lambda, strategy } => {
                let plan = match strategy {
                    MatchingStrategy::RoundRobin => {
                        let coloring = matching::edge_coloring(graph);
                        let masks = matching::maximal_matchings(graph, &coloring)
                            .iter()
                            .map(|matching| class_mask(m, matching))
                            .collect();
                        ActivePlan::Sweep {
                            masks,
                            recover: true,
                        }
                    }
                    MatchingStrategy::Random { seed } => ActivePlan::Random { seed },
                };
                (plan, Some(lambda))
            }
        };
        Ok(Self {
            flow,
            plan,
            pair_coefs: lambda.map(|lambda| exchange_coefs(graph, speeds, lambda)),
            match_pairs: Vec::new(),
            perturb,
        })
    }

    /// Builds the per-simulation matchgen endpoint table once the kernel
    /// tables exist (random-matching plan only; no-op otherwise).
    pub fn finish(&mut self, t: &KernelTables) {
        if matches!(self.plan, ActivePlan::Random { .. }) {
            self.match_pairs = matchgen::edge_pairs(t);
        }
    }

    /// Whether the flow pass needs the arc decomposition tables
    /// (`edge_arc_pos` / `arc_frac`) of the randomized framework.
    pub fn needs_arc_plan(&self) -> bool {
        matches!(self.flow, FlowPass::Framework { .. })
    }

    /// Whether the control thread publishes a per-round mask through the
    /// job's atomic mask words: the random-matching plan does, and so
    /// does every plan — diffusion included — under crash, edgedrop or
    /// churn.
    pub fn publishes_mask(&self) -> bool {
        matches!(self.plan, ActivePlan::Random { .. }) || self.perturb.masks_edges()
    }

    /// Whether the stale channel publishes a per-round stale mask for
    /// the apply pass.
    pub fn needs_stale_mask(&self) -> bool {
        self.perturb.faults.stale.is_some()
    }

    /// The pairwise coefficient tables for masked passes, falling back
    /// to the diffusion `α_e/s` tables when this kernel is a diffusion
    /// scheme that only became masked through a perturbation channel.
    fn masked_coefs<'a>(&'a self, t: &'a KernelTables) -> (&'a [f64], &'a [f64]) {
        let (tail, head) = match &self.pair_coefs {
            Some((tail, head)) => (tail, head),
            None => (&t.coef_tail, &t.coef_head),
        };
        (&tail[..], &head[..])
    }

    /// The sweep family and its repair style, if the plan is a sweep.
    /// Crate-visible so checkpoint restore can re-derive the membership
    /// epoch the snapshot was taken in.
    pub(crate) fn sweep_family(&self) -> Option<(&[Vec<u64>], bool)> {
        match &self.plan {
            ActivePlan::Sweep { masks, recover } => Some((masks, *recover)),
            _ => None,
        }
    }

    /// The round's active-edge mask (`None` = all edges active),
    /// generating the random matching into `mg` when the plan calls for
    /// one. Control-thread only.
    fn active_mask<'a>(
        &'a self,
        round: u64,
        t: &KernelTables,
        mg: &'a mut MatchScratch,
    ) -> Option<&'a [u64]> {
        match &self.plan {
            ActivePlan::All => None,
            ActivePlan::Sweep { masks, .. } => Some(&masks[(round % masks.len() as u64) as usize]),
            ActivePlan::Random { seed } => {
                matchgen::fill_random_matching(*seed, round, t, &self.match_pairs, mg);
                Some(&mg.mask)
            }
        }
    }

    /// The round's *effective* active mask: the plan's mask composed
    /// with the perturbation channels ([`Perturb::compose`]).
    /// Control-thread only; [`Perturb::begin_round`] must already have
    /// run this round.
    fn round_mask<'a>(
        &'a self,
        round: u64,
        t: &KernelTables,
        mg: &'a mut MatchScratch,
        perturb: &'a mut Perturb,
    ) -> Option<&'a [u64]> {
        let plan = self.active_mask(round, t, mg);
        perturb.compose(&self.perturb, plan, round, t.m)
    }

    /// Pool-mode round preparation, run by the control thread *before*
    /// the round's first barrier: runs the perturbation channels against
    /// the job's atomics (exclusive, the workers are parked), generates
    /// the random matching (if the plan draws one), and publishes the
    /// round's effective mask and stale words. Unperturbed sweep plans
    /// need no publication — workers index the kernel's immutable masks
    /// directly.
    #[allow(clippy::too_many_arguments)] // the job's full shared state, flat by design
    pub fn prepare_pooled(
        &self,
        t: &KernelTables,
        graph: &Graph,
        round: u64,
        scratch: &mut RoundScratch,
        loads_i: &AtomicsI64<'_>,
        loads_f: &AtomicsF64<'_>,
        mask_out: &[AtomicU64],
        stale_out: &[AtomicU64],
    ) {
        let RoundScratch {
            matchgen, perturb, ..
        } = scratch;
        let sweep = self.sweep_family();
        if loads_f.elems().is_empty() {
            perturb.begin_round(&self.perturb, graph, round, sweep, &Tokens(loads_i));
        } else {
            perturb.begin_round(&self.perturb, graph, round, sweep, &Fluid(loads_f));
        }
        let publish = self.publishes_mask();
        if let Some(mask) = self.round_mask(round, t, matchgen, perturb) {
            if publish {
                for (word, &w) in mask_out.iter().zip(mask) {
                    word.store(w, Relaxed);
                }
            }
        }
        if self.needs_stale_mask() {
            for (word, &w) in stale_out.iter().zip(perturb.stale_words()) {
                word.store(w, Relaxed);
            }
        }
    }

    /// One full sequential round in discrete mode; returns the round's
    /// fused load statistics (minimum transient load plus the post-round
    /// min/max/deviation reduction of the apply pass).
    #[allow(clippy::too_many_arguments)] // the engine's full round state, flat by design
    pub fn run_discrete_seq(
        &self,
        t: &KernelTables,
        graph: &Graph,
        mem: f64,
        gain: f64,
        round: u64,
        flow_memory: FlowMemory,
        loads: &CellsI64<'_>,
        prev: &CellsF64<'_>,
        flows: &CellsI64<'_>,
        arc_frac: &CellsF64<'_>,
        scratch: &mut RoundScratch,
    ) -> LoadStats {
        let (n, m) = (t.n, t.m);
        let RoundScratch {
            fw,
            matchgen,
            block_sums,
            perturb,
        } = scratch;
        let sweep = self.sweep_family();
        perturb.begin_round(&self.perturb, graph, round, sweep, &Tokens(loads));
        let mask = self.round_mask(round, t, matchgen, perturb);
        match self.flow {
            FlowPass::EdgeLocal(rounding) => match mask {
                None => kernel::edge_pass_fused(
                    t,
                    0..m,
                    mem,
                    gain,
                    round,
                    rounding,
                    flow_memory,
                    |i| loads.get(i) as f64,
                    prev,
                    flows,
                ),
                Some(words) => {
                    let (ct, ch) = self.masked_coefs(t);
                    kernel::edge_pass_fused_masked(
                        t,
                        ct,
                        ch,
                        0..m,
                        |w| words[w],
                        mem,
                        gain,
                        round,
                        rounding,
                        flow_memory,
                        |i| loads.get(i) as f64,
                        prev,
                        flows,
                    )
                }
            },
            FlowPass::Framework { seed } => {
                match mask {
                    None => kernel::edge_pass_scatter(
                        t,
                        0..m,
                        mem,
                        gain,
                        flow_memory,
                        |i| loads.get(i) as f64,
                        arc_frac,
                        flows,
                        prev,
                    ),
                    Some(words) => {
                        let (ct, ch) = self.masked_coefs(t);
                        kernel::edge_pass_scatter_masked(
                            t,
                            ct,
                            ch,
                            0..m,
                            |w| words[w],
                            mem,
                            gain,
                            flow_memory,
                            |i| loads.get(i) as f64,
                            arc_frac,
                            flows,
                            prev,
                        )
                    }
                }
                kernel::arc_round_streamed(t, 0..n, seed, round, arc_frac, flows, fw);
            }
            FlowPass::Continuous => unreachable!("continuous flow pass on discrete state"),
        }
        let blocks = kernel::dev_blocks(n);
        block_sums.resize(blocks, 0.0);
        let mut stats = if self.needs_stale_mask() {
            // Lossy apply: the flow was computed and recorded in the
            // flow memory above, but a stale edge's tokens never land.
            let stale = perturb.stale_words();
            kernel::apply_discrete(
                t,
                0..n,
                |e| flows.get(e) * (((stale[e >> 6] >> (e & 63)) & 1) ^ 1) as i64,
                loads,
                &kernel::cells_f64(block_sums),
            )
        } else {
            kernel::apply_discrete(
                t,
                0..n,
                |e| flows.get(e),
                loads,
                &kernel::cells_f64(block_sums),
            )
        };
        stats.sum_sq_dev = kernel::fold_block_sums(blocks, &kernel::cells_f64(block_sums));
        stats
    }

    /// One full sequential round in continuous mode; returns the round's
    /// fused load statistics.
    #[allow(clippy::too_many_arguments)] // the engine's full round state, flat by design
    pub fn run_continuous_seq(
        &self,
        t: &KernelTables,
        graph: &Graph,
        mem: f64,
        gain: f64,
        round: u64,
        loads: &CellsF64<'_>,
        prev: &CellsF64<'_>,
        scratch: &mut RoundScratch,
    ) -> LoadStats {
        let (n, m) = (t.n, t.m);
        let RoundScratch {
            matchgen,
            block_sums,
            perturb,
            ..
        } = scratch;
        let sweep = self.sweep_family();
        perturb.begin_round(&self.perturb, graph, round, sweep, &Fluid(loads));
        let mask = self.round_mask(round, t, matchgen, perturb);
        match mask {
            None => kernel::edge_pass_continuous(t, 0..m, mem, gain, |i| loads.get(i), prev),
            Some(words) => {
                let (ct, ch) = self.masked_coefs(t);
                kernel::edge_pass_continuous_masked(
                    t,
                    ct,
                    ch,
                    0..m,
                    |w| words[w],
                    mem,
                    gain,
                    |i| loads.get(i),
                    prev,
                )
            }
        }
        let blocks = kernel::dev_blocks(n);
        block_sums.resize(blocks, 0.0);
        let mut stats = if self.needs_stale_mask() {
            let stale = perturb.stale_words();
            kernel::apply_continuous(
                t,
                0..n,
                |e| {
                    if (stale[e >> 6] >> (e & 63)) & 1 == 1 {
                        0.0
                    } else {
                        prev.get(e)
                    }
                },
                loads,
                &kernel::cells_f64(block_sums),
            )
        } else {
            kernel::apply_continuous(
                t,
                0..n,
                |e| prev.get(e),
                loads,
                &kernel::cells_f64(block_sums),
            )
        };
        stats.sum_sq_dev = kernel::fold_block_sums(blocks, &kernel::cells_f64(block_sums));
        stats
    }

    /// One pool participant's share of a round: the same kernel calls as
    /// the sequential methods, separated by `barrier` between phases
    /// (one internal barrier for the edge-local and continuous passes,
    /// two for the framework pipeline). Returns the chunk's fused load
    /// statistics.
    #[allow(clippy::too_many_arguments)] // one pool participant's full round context
    pub fn run_chunk(
        &self,
        t: &KernelTables,
        barrier: &Barrier,
        edges: Range<usize>,
        nodes: Range<usize>,
        mem: f64,
        gain: f64,
        round: u64,
        flow_memory: FlowMemory,
        bufs: &ChunkBufs<'_>,
        scratch: &mut FwScratch,
    ) -> LoadStats {
        if self.needs_stale_mask() {
            self.run_chunk_inner(
                t,
                barrier,
                edges,
                nodes,
                mem,
                gain,
                round,
                flow_memory,
                bufs,
                scratch,
                Some(|w: usize| bufs.stale[w].load(Relaxed)),
            )
        } else {
            self.run_chunk_inner(
                t,
                barrier,
                edges,
                nodes,
                mem,
                gain,
                round,
                flow_memory,
                bufs,
                scratch,
                None::<fn(usize) -> u64>,
            )
        }
    }

    /// [`SchemeKernel::run_chunk`] monomorphized per stale-mask source.
    #[allow(clippy::too_many_arguments)] // one pool participant's full round context
    fn run_chunk_inner<SF>(
        &self,
        t: &KernelTables,
        barrier: &Barrier,
        edges: Range<usize>,
        nodes: Range<usize>,
        mem: f64,
        gain: f64,
        round: u64,
        flow_memory: FlowMemory,
        bufs: &ChunkBufs<'_>,
        scratch: &mut FwScratch,
        stale: Option<SF>,
    ) -> LoadStats
    where
        SF: Fn(usize) -> u64,
    {
        if self.publishes_mask() {
            return self.chunk_phases(
                t,
                barrier,
                edges,
                nodes,
                mem,
                gain,
                round,
                flow_memory,
                bufs,
                scratch,
                Some(|w: usize| bufs.mask[w].load(Relaxed)),
                stale,
            );
        }
        match &self.plan {
            ActivePlan::All => self.chunk_phases(
                t,
                barrier,
                edges,
                nodes,
                mem,
                gain,
                round,
                flow_memory,
                bufs,
                scratch,
                None::<fn(usize) -> u64>,
                stale,
            ),
            ActivePlan::Sweep { masks, .. } => {
                let words = &masks[(round % masks.len() as u64) as usize];
                self.chunk_phases(
                    t,
                    barrier,
                    edges,
                    nodes,
                    mem,
                    gain,
                    round,
                    flow_memory,
                    bufs,
                    scratch,
                    Some(|w: usize| words[w]),
                    stale,
                )
            }
            ActivePlan::Random { .. } => unreachable!("the random plan publishes its mask"),
        }
    }

    /// The phase sequence of one chunk, monomorphized per mask source so
    /// the all-edges diffusion paths keep their original unmasked
    /// codegen.
    #[allow(clippy::too_many_arguments)] // one pool participant's full round context
    fn chunk_phases<MF, SF>(
        &self,
        t: &KernelTables,
        barrier: &Barrier,
        edges: Range<usize>,
        nodes: Range<usize>,
        mem: f64,
        gain: f64,
        round: u64,
        flow_memory: FlowMemory,
        bufs: &ChunkBufs<'_>,
        scratch: &mut FwScratch,
        mask: Option<MF>,
        stale: Option<SF>,
    ) -> LoadStats
    where
        MF: Fn(usize) -> u64,
        SF: Fn(usize) -> u64,
    {
        let prev = &bufs.prev;
        let flows = &bufs.flows;
        match self.flow {
            FlowPass::EdgeLocal(rounding) => {
                match &mask {
                    None => kernel::edge_pass_fused(
                        t,
                        edges,
                        mem,
                        gain,
                        round,
                        rounding,
                        flow_memory,
                        |i| bufs.loads_i.get(i) as f64,
                        prev,
                        flows,
                    ),
                    Some(mf) => {
                        let (ct, ch) = self.masked_coefs(t);
                        kernel::edge_pass_fused_masked(
                            t,
                            ct,
                            ch,
                            edges,
                            mf,
                            mem,
                            gain,
                            round,
                            rounding,
                            flow_memory,
                            |i| bufs.loads_i.get(i) as f64,
                            prev,
                            flows,
                        )
                    }
                }
                barrier.wait();
                match &stale {
                    None => kernel::apply_discrete(
                        t,
                        nodes,
                        |e| bufs.flows.get(e),
                        &bufs.loads_i,
                        &AtomicsF64(bufs.block_sums),
                    ),
                    Some(sf) => kernel::apply_discrete(
                        t,
                        nodes,
                        |e| bufs.flows.get(e) * (((sf(e >> 6) >> (e & 63)) & 1) ^ 1) as i64,
                        &bufs.loads_i,
                        &AtomicsF64(bufs.block_sums),
                    ),
                }
            }
            FlowPass::Framework { seed } => {
                match &mask {
                    None => kernel::edge_pass_scatter(
                        t,
                        edges,
                        mem,
                        gain,
                        flow_memory,
                        |i| bufs.loads_i.get(i) as f64,
                        &bufs.arc_frac,
                        flows,
                        prev,
                    ),
                    Some(mf) => {
                        let (ct, ch) = self.masked_coefs(t);
                        kernel::edge_pass_scatter_masked(
                            t,
                            ct,
                            ch,
                            edges,
                            mf,
                            mem,
                            gain,
                            flow_memory,
                            |i| bufs.loads_i.get(i) as f64,
                            &bufs.arc_frac,
                            flows,
                            prev,
                        )
                    }
                }
                barrier.wait();
                kernel::arc_round_streamed(
                    t,
                    nodes.clone(),
                    seed,
                    round,
                    &bufs.arc_frac,
                    flows,
                    scratch,
                );
                barrier.wait();
                match &stale {
                    None => kernel::apply_discrete(
                        t,
                        nodes,
                        |e| bufs.flows.get(e),
                        &bufs.loads_i,
                        &AtomicsF64(bufs.block_sums),
                    ),
                    Some(sf) => kernel::apply_discrete(
                        t,
                        nodes,
                        |e| bufs.flows.get(e) * (((sf(e >> 6) >> (e & 63)) & 1) ^ 1) as i64,
                        &bufs.loads_i,
                        &AtomicsF64(bufs.block_sums),
                    ),
                }
            }
            FlowPass::Continuous => {
                match &mask {
                    None => kernel::edge_pass_continuous(
                        t,
                        edges,
                        mem,
                        gain,
                        |i| bufs.loads_f.get(i),
                        prev,
                    ),
                    Some(mf) => {
                        let (ct, ch) = self.masked_coefs(t);
                        kernel::edge_pass_continuous_masked(
                            t,
                            ct,
                            ch,
                            edges,
                            mf,
                            mem,
                            gain,
                            |i| bufs.loads_f.get(i),
                            prev,
                        )
                    }
                }
                barrier.wait();
                match &stale {
                    None => kernel::apply_continuous(
                        t,
                        nodes,
                        |e| bufs.prev.get(e),
                        &bufs.loads_f,
                        &AtomicsF64(bufs.block_sums),
                    ),
                    Some(sf) => kernel::apply_continuous(
                        t,
                        nodes,
                        |e| {
                            if (sf(e >> 6) >> (e & 63)) & 1 == 1 {
                                0.0
                            } else {
                                bufs.prev.get(e)
                            }
                        },
                        &bufs.loads_f,
                        &AtomicsF64(bufs.block_sums),
                    ),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sodiff_graph::generators;
    use std::sync::Arc;

    fn tables(graph: &Graph) -> KernelTables {
        KernelTables::new(graph, &Speeds::uniform(graph.node_count()), false, 0.0)
    }

    #[test]
    fn pairwise_coefficients_share_one_table_under_uniform_speeds() {
        let g = generators::torus2d(6, 6);
        let (tail, head) = exchange_coefs(&g, &Speeds::uniform(36), 0.5);
        assert!(Arc::ptr_eq(&tail, &head));
        assert!(tail.iter().all(|&c| c == 0.25));
        let speeds = Speeds::two_class(36, 9, 3.0);
        let (tail, head) = exchange_coefs(&g, &speeds, 0.5);
        assert!(!Arc::ptr_eq(&tail, &head));
        for (e, &(u, v)) in g.edges().iter().enumerate() {
            let (su, sv) = (speeds.get(u as usize), speeds.get(v as usize));
            assert_eq!(tail[e], 0.5 * sv / (su + sv));
            assert_eq!(head[e], 0.5 * su / (su + sv));
        }
    }

    #[test]
    fn validate_rejects_pairwise_on_edgeless_graphs() {
        let g = generators::path(1);
        assert!(matches!(
            SchemeKernel::validate(Scheme::dimension_exchange(1.0), &g),
            Err(BuildError::NoColoring(_))
        ));
        assert!(matches!(
            SchemeKernel::validate(Scheme::matching_random(1, 1.0), &g),
            Err(BuildError::NoMatching(_))
        ));
        // Diffusion on an edgeless graph is a (trivial) no-op, not an error.
        assert!(SchemeKernel::validate(Scheme::fos(), &g).is_ok());
    }

    #[test]
    fn validate_rejects_bad_lambda() {
        let g = generators::cycle(4);
        assert!(matches!(
            SchemeKernel::validate(Scheme::dimension_exchange(0.0), &g),
            Err(BuildError::InvalidLambda(_))
        ));
        assert!(matches!(
            SchemeKernel::validate(Scheme::matching_round_robin(1.5), &g),
            Err(BuildError::InvalidLambda(_))
        ));
    }

    #[test]
    fn de_plan_sweeps_color_classes() {
        let g = generators::torus2d(4, 4);
        let k = SchemeKernel::new(
            Scheme::dimension_exchange(1.0),
            Mode::Discrete(Rounding::nearest()),
            &g,
            &Speeds::uniform(16),
            PerturbSpec::default(),
        )
        .unwrap();
        let ActivePlan::Sweep { masks, recover } = &k.plan else {
            panic!("DE should sweep masks");
        };
        assert!(!recover, "color classes are masked out, not re-covered");
        assert_eq!(masks.len(), 4, "even 2D torus: 4 color classes");
        // The classes partition the edges.
        let mut seen = vec![0u32; g.edge_count()];
        for words in masks {
            for e in 0..g.edge_count() {
                seen[e] += ((words[e >> 6] >> (e & 63)) & 1) as u32;
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn exchange_coefs_harmonic() {
        let g = generators::path(2);
        let speeds = Speeds::new(vec![1.0, 3.0]);
        let (ct, ch) = exchange_coefs(&g, &speeds, 0.5);
        // λ·s_v/(s_u+s_v) and λ·s_u/(s_u+s_v) for (s_u, s_v) = (1, 3).
        assert!((ct[0] - 0.5 * 3.0 / 4.0).abs() < 1e-15);
        assert!((ch[0] - 0.5 * 1.0 / 4.0).abs() < 1e-15);
    }

    #[test]
    fn de_sequential_round_conserves_and_averages_pairs() {
        // Uniform speeds, λ = 1: each active edge moves (x_u − x_v)/2,
        // rounded. One DE round on a 2-node path with loads (10, 0) moves
        // exactly 5 tokens.
        let g = generators::path(2);
        let speeds = Speeds::uniform(2);
        let k = SchemeKernel::new(
            Scheme::dimension_exchange(1.0),
            Mode::Discrete(Rounding::nearest()),
            &g,
            &speeds,
            PerturbSpec::default(),
        )
        .unwrap();
        let t = tables(&g);
        let mut loads = vec![10i64, 0];
        let mut prev = vec![0.0f64; 1];
        let mut flows = vec![0i64; 1];
        let mut scratch = RoundScratch::new();
        let stats = k.run_discrete_seq(
            &t,
            &g,
            0.0,
            1.0,
            0,
            FlowMemory::Rounded,
            &kernel::cells_i64(&mut loads),
            &kernel::cells_f64(&mut prev),
            &kernel::cells_i64(&mut flows),
            &kernel::cells_f64(&mut []),
            &mut scratch,
        );
        assert_eq!(loads, vec![5, 5]);
        // Under `Rounded` the flow slot is the SOS memory; `prev` is
        // never written.
        assert_eq!(flows, vec![5]);
        assert_eq!(prev, vec![0.0]);
        assert_eq!(stats.min_transient, 0.0); // node 1: 0 − 0; node 0: 10 − 5
    }

    #[test]
    fn inactive_color_class_moves_nothing() {
        // On a 4-cycle (2 color classes) only the active class's edges
        // carry flow each round.
        let g = generators::cycle(4);
        let speeds = Speeds::uniform(4);
        let k = SchemeKernel::new(
            Scheme::dimension_exchange(1.0),
            Mode::Discrete(Rounding::nearest()),
            &g,
            &speeds,
            PerturbSpec::default(),
        )
        .unwrap();
        let t = tables(&g);
        let mut loads = vec![100i64, 0, 0, 0];
        let mut prev = vec![0.0f64; 4];
        let mut flows = vec![0i64; 4];
        let mut scratch = RoundScratch::new();
        for round in 0..2 {
            k.run_discrete_seq(
                &t,
                &g,
                0.0,
                1.0,
                round,
                FlowMemory::Rounded,
                &kernel::cells_i64(&mut loads),
                &kernel::cells_f64(&mut prev),
                &kernel::cells_i64(&mut flows),
                &kernel::cells_f64(&mut []),
                &mut scratch,
            );
            let ActivePlan::Sweep { masks, .. } = &k.plan else {
                unreachable!()
            };
            let words = &masks[(round % masks.len() as u64) as usize];
            for (e, &f) in flows.iter().enumerate() {
                let active = (words[e >> 6] >> (e & 63)) & 1 == 1;
                if !active {
                    assert_eq!(f, 0, "round {round}: inactive edge {e} moved {f}");
                }
            }
        }
        assert_eq!(loads.iter().sum::<i64>(), 100, "tokens conserved");
    }

    #[test]
    fn crashed_nodes_freeze_loads_and_conserve_total() {
        let g = generators::torus2d(4, 4);
        let faults = crate::FaultSpec::none().with_crash(0.3, 9);
        let live = faults.live_nodes(0, 16);
        assert!(
            live.iter().any(|&l| !l),
            "seed 9 should kill someone in epoch 0"
        );
        let k = SchemeKernel::new(
            Scheme::fos(),
            Mode::Discrete(Rounding::nearest()),
            &g,
            &Speeds::uniform(16),
            PerturbSpec {
                faults,
                ..Default::default()
            },
        )
        .unwrap();
        let t = tables(&g);
        let mut loads: Vec<i64> = (0..16).map(|i| i * 3).collect();
        let total: i64 = loads.iter().sum();
        let frozen = loads.clone();
        let mut prev = vec![0.0f64; t.m];
        let mut flows = vec![0i64; t.m];
        let mut scratch = RoundScratch::new();
        for round in 0..crate::perturb::EPOCH_LEN {
            k.run_discrete_seq(
                &t,
                &g,
                0.0,
                1.0,
                round,
                FlowMemory::Rounded,
                &kernel::cells_i64(&mut loads),
                &kernel::cells_f64(&mut prev),
                &kernel::cells_i64(&mut flows),
                &kernel::cells_f64(&mut []),
                &mut scratch,
            );
            assert_eq!(loads.iter().sum::<i64>(), total, "round {round}");
            for (v, &was) in frozen.iter().enumerate() {
                if !live[v] {
                    assert_eq!(loads[v], was, "dead node {v} moved in round {round}");
                }
            }
        }
        assert!(scratch.perturb.faults.crashes > 0);
    }

    /// The all-off perturbation path, checked exactly rather than timed:
    /// for every scheme, a spec with `faults=none load=none churn=none`
    /// spelled out is the same spec as one that leaves them at the
    /// default, and its kernel never publishes a mask (except the random
    /// matching plan's own) or a stale mask in any mode.
    #[test]
    fn all_off_perturbation_stays_on_the_unperturbed_paths() {
        use crate::scenario::ScenarioSpec;
        let g = generators::torus2d(8, 8);
        let speeds = Speeds::uniform(64);
        for scheme in [
            "fos",
            "sos:1.5",
            "sos_opt",
            "de:1",
            "matching:rr:1",
            "matching:random:7:1",
        ] {
            let base = format!("topology=torus2d:8:8 scheme={scheme} seed=1");
            let default: ScenarioSpec = base.parse().unwrap();
            let explicit: ScenarioSpec = format!("{base} faults=none load=none churn=none")
                .parse()
                .unwrap();
            assert_eq!(default, explicit, "{scheme}");
            let perturb = PerturbSpec {
                faults: explicit.faults,
                load: explicit.load,
                churn: explicit.churn,
            };
            assert!(perturb.is_none(), "{scheme}");
            let resolved = explicit.scheme.resolve(&g, &speeds).unwrap();
            let random = matches!(
                resolved,
                Scheme::Matching {
                    strategy: MatchingStrategy::Random { .. },
                    ..
                }
            );
            for mode in [
                Mode::Continuous,
                Mode::Discrete(Rounding::nearest()),
                Mode::Discrete(Rounding::randomized(1)),
            ] {
                let kernel = SchemeKernel::new(resolved, mode, &g, &speeds, perturb).unwrap();
                assert!(kernel.perturb.is_none(), "{scheme} {mode:?}");
                assert_eq!(kernel.publishes_mask(), random, "{scheme} {mode:?}");
                assert!(!kernel.needs_stale_mask(), "{scheme} {mode:?}");
            }
        }
    }
}
