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
//!   three-phase randomized-framework pipeline (scatter, node-centric
//!   rounding, apply). These call straight into the division-free
//!   kernels of [`crate::kernel`] (pinned bit-for-bit by
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
//! The simulation's state lives in one container, [`RoundState`], whose
//! element [`Storage`] is the executor's (plain values sequentially,
//! relaxed atomics on the pool) and which participants see through
//! [`ChunkBufs`], one [`kernel::Buf`] view per buffer. The kernels are
//! generic over the value type too ([`kernel::Value`]: tokens or fluid),
//! so one phase sequence, ending in one apply-with-stale step, serves
//! both modes. A round is three steps on both executors:
//!
//! 1. [`SchemeKernel::prepare`] runs on the control thread: the
//!    perturbation channels, the random matching (if the plan draws one)
//!    and the round's effective mask — so per-round plan state never
//!    depends on the executor; the pool then publishes the mask words
//!    into its job.
//! 2. [`SchemeKernel::participate`] runs one participant's share: it
//!    picks the edge gate and calls the one phase sequence — edge pass,
//!    the framework's rounding phase, apply pass — with a sync hook
//!    between phases (a no-op for the sequential executor's single
//!    participant over every edge and node, the barrier on the pool).
//!    Each edge pass is gated statically: the all-edges plan runs
//!    [`kernel::AllEdges`], with no mask test in the loop; a mask runs
//!    [`kernel::MaskBits`], which forces an inactive edge's flow to zero
//!    with a branchless bit test.
//! 3. [`ChunkBufs::collect`] merges the participants' statistics and
//!    folds the per-block partials in block order.
//!
//! Every participant therefore executes the *same* kernel calls in the
//! same per-element order, so pooled results are bit-identical to
//! sequential ones for every scheme — the property
//! `tests/determinism.rs` and the golden traces check.
//!
//! Pairwise schemes replace the diffusion coefficients `α_e/s` with the
//! λ-scaled harmonic-speed pair `coef_tail = λ·s_v/(s_u+s_v)`,
//! `coef_head = λ·s_u/(s_u+s_v)`, so an active edge schedules
//! `y = λ·(s_u·s_v/(s_u+s_v))·(x_u/s_u − x_v/s_v)` — exact pairwise
//! averaging at `λ = 1` under uniform speeds.
//!
//! See the "adding a scheme" walkthrough in the crate docs
//! ([`crate`]) for the end-to-end list of touch points.

use std::borrow::Cow;
use std::ops::Range;

use sodiff_graph::{matching, Graph, Speeds};

use crate::checkpoint::LoadsSnapshot;
use crate::engine::{FlowMemory, Mode};
use crate::error::BuildError;
use crate::kernel::{
    self, AllEdges, Atomics, Buf, Cells, CoefPair, EdgeGate, FwScratch, KernelTables, LoadStats,
    MaskBits, Value,
};
use crate::matchgen::{self, MatchScratch};
use crate::perturb::{Perturb, PerturbSpec, RoundMasks};
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
/// framework rounding scratch, the matching-generation scratch and the
/// perturbation state.
#[derive(Default)]
pub(crate) struct RoundScratch {
    /// Participant-0 scratch of the randomized framework's rounding phase.
    pub fw: FwScratch,
    /// Random-matching generation scratch.
    pub matchgen: MatchScratch,
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

/// Where a [`RoundState`] keeps its elements: plain values on the
/// sequential executor ([`PlainSlots`]), relaxed atomics on the worker
/// pool ([`AtomicSlots`]). Slots are read through `&` and only ever
/// built, by the control thread between rounds (at construction and on
/// restore); round participants write through the [`ChunkBufs`] views.
pub(crate) trait Storage {
    /// One element holding a `V`.
    type Slot<V: Value>;
    /// A slot holding `v`.
    fn of<V: Value>(v: V) -> Self::Slot<V>;
    /// The slot's value.
    fn get<V: Value>(slot: &Self::Slot<V>) -> V;
    /// The slots' values: borrowed where the slots are plain values,
    /// copied out of atomics.
    fn values<V: Value>(slots: &[Self::Slot<V>]) -> Cow<'_, [V]> {
        Cow::Owned(slots.iter().map(Self::get).collect())
    }
}

/// Plain values: the sequential executor's storage.
pub(crate) enum PlainSlots {}

impl Storage for PlainSlots {
    type Slot<V: Value> = V;
    fn of<V: Value>(v: V) -> V {
        v
    }
    fn get<V: Value>(slot: &V) -> V {
        *slot
    }
    fn values<V: Value>(slots: &[V]) -> Cow<'_, [V]> {
        Cow::Borrowed(slots)
    }
}

/// Relaxed atomics: the worker pool's storage.
pub(crate) enum AtomicSlots {}

impl Storage for AtomicSlots {
    type Slot<V: Value> = V::Atomic;
    fn of<V: Value>(v: V) -> V::Atomic {
        v.atomic()
    }
    fn get<V: Value>(slot: &V::Atomic) -> V {
        V::load(slot)
    }
}

/// One simulation's evolving round state, in the one layout both
/// executors share: loads, the integral flows (the SOS memory "sent in
/// step t−1" under [`FlowMemory::Rounded`]), the stored SOS memory, the
/// randomized framework's per-edge fractions, and the apply pass's
/// per-[`crate::metrics::DEV_BLOCK`] squared-deviation partials. Each
/// piece lives here and nowhere else.
///
/// The element storage is the executor's [`Storage`]: plain `i64`/`f64`
/// on the sequential executor, viewed as `Cell`s from `&mut` each round
/// (so the simulator stays `Sync`), and relaxed atomics on the worker
/// pool. Both storages hold either [`Value`] type through one slot
/// family, so each accessor below is written once.
///
/// Running the sequential executor on atomics too — a one-participant
/// pool state — passed every golden but cost +6.2% `mixed_sweep` CPU
/// time by median (5.639 → 5.987 s, slower in 10 of 10 alternating
/// pairs), so the element storage stays separate.
pub(crate) struct RoundState<S: Storage> {
    loads_i: Vec<S::Slot<i64>>,
    loads_f: Vec<S::Slot<f64>>,
    prev: Vec<S::Slot<f64>>,
    frac: Vec<S::Slot<f64>>,
    flows: Vec<S::Slot<i64>>,
    block_sums: Vec<S::Slot<f64>>,
    discrete: bool,
    /// Whether the SOS memory is the integral flows (discrete mode under
    /// [`FlowMemory::Rounded`]) rather than `prev`.
    rounded: bool,
}

impl<S: Storage> RoundState<S> {
    /// The round-0 state for `loads`, sized by the one rule: loads of the
    /// mode's kind, `flows` in discrete mode, `prev` only where the SOS
    /// memory is not the integral flows (continuous mode — whose `prev`
    /// also carries the round's flows — and [`FlowMemory::Scheduled`]),
    /// and `frac` (one slot per edge) only for the randomized framework.
    pub fn new(
        k: &SchemeKernel,
        t: &KernelTables,
        flow_memory: FlowMemory,
        loads: Vec<i64>,
    ) -> Self {
        let discrete = !matches!(k.flow, FlowPass::Continuous);
        let stored_prev = !discrete || flow_memory == FlowMemory::Scheduled;
        let zeros = |len: usize| (0..len).map(|_| S::of(0.0)).collect();
        let sized = |yes: bool, len: usize| if yes { len } else { 0 };
        let (loads_i, loads_f) = if discrete {
            (loads.into_iter().map(S::of).collect(), Vec::new())
        } else {
            let loads_f = loads.iter().map(|&x| S::of(x as f64)).collect();
            (Vec::new(), loads_f)
        };
        Self {
            loads_i,
            loads_f,
            prev: zeros(sized(stored_prev, t.m)),
            frac: zeros(sized(k.needs_fracs(), t.m)),
            flows: (0..sized(discrete, t.m)).map(|_| S::of(0)).collect(),
            block_sums: zeros(kernel::dev_blocks(t.n)),
            discrete,
            rounded: discrete && flow_memory == FlowMemory::Rounded,
        }
    }

    /// Whether the state holds discrete (integer-token) loads.
    pub fn is_discrete(&self) -> bool {
        self.discrete
    }

    /// Whether the SOS memory is the integral flows themselves: discrete
    /// mode under [`FlowMemory::Rounded`].
    pub fn rounded_memory(&self) -> bool {
        self.rounded
    }

    /// Load of node `i` as `f64`.
    #[inline]
    pub fn load_of(&self, i: usize) -> f64 {
        if self.discrete {
            S::get(&self.loads_i[i]) as f64
        } else {
            S::get(&self.loads_f[i])
        }
    }

    /// The integer loads (`None` in continuous mode).
    pub fn loads_i64(&self) -> Option<Cow<'_, [i64]>> {
        self.discrete.then(|| S::values(&self.loads_i))
    }

    /// The continuous loads (`None` in discrete mode).
    pub fn loads_f64(&self) -> Option<Cow<'_, [f64]>> {
        (!self.discrete).then(|| S::values(&self.loads_f))
    }

    /// A copy of the loads in snapshot form.
    pub fn loads(&self) -> LoadsSnapshot {
        match self.loads_i64() {
            Some(loads) => LoadsSnapshot::Discrete(loads.into_owned()),
            None => LoadsSnapshot::Continuous(S::values(&self.loads_f).into_owned()),
        }
    }

    /// The smallest load (the round-0 transient minimum). Exact for
    /// tokens too: the `i64 → f64` cast is monotone, so it commutes with
    /// taking the minimum.
    pub fn min_load(&self) -> f64 {
        let n = self.loads_i.len() + self.loads_f.len();
        (0..n)
            .map(|i| self.load_of(i))
            .fold(f64::INFINITY, f64::min)
    }

    /// The SOS memory as `f64`: materialized from the integral flows
    /// under [`FlowMemory::Rounded`] (the values
    /// [`kernel::prev_from_flows`] produces), `prev` otherwise.
    pub fn memory(&self) -> Cow<'_, [f64]> {
        if self.rounded {
            Cow::Owned(self.flows.iter().map(|y| S::get(y) as f64).collect())
        } else {
            S::values(&self.prev)
        }
    }

    /// Overwrites the loads and the SOS memory (checkpoint restore). The
    /// caller has checked that the snapshot matches the mode and the
    /// node and edge counts and, under [`FlowMemory::Rounded`], that every
    /// memory value is integral, so each store is exact.
    pub fn write_state(&mut self, loads: &LoadsSnapshot, memory: &[f64]) {
        match loads {
            LoadsSnapshot::Discrete(src) => self.loads_i = src.iter().map(|&x| S::of(x)).collect(),
            LoadsSnapshot::Continuous(src) => {
                self.loads_f = src.iter().map(|&x| S::of(x)).collect()
            }
        }
        if self.rounded {
            self.flows = memory.iter().map(|&x| S::of(x as i64)).collect();
        } else {
            self.prev = memory.iter().map(|&x| S::of(x)).collect();
        }
    }

    /// Bytes of per-node and per-edge simulation state: loads, integral
    /// flows, stored memory and framework fractions (the block partials
    /// are metadata and excluded).
    pub fn state_bytes(&self) -> usize {
        let edges = self.prev.len() + self.frac.len() + self.flows.len();
        8 * (self.loads_i.len() + self.loads_f.len() + edges)
    }
}

impl RoundState<PlainSlots> {
    /// `Cell` views of the plain vectors, for one sequential round.
    pub fn bufs(&mut self) -> ChunkBufs<Cells<'_, i64>, Cells<'_, f64>> {
        ChunkBufs {
            loads_i: kernel::cells(&mut self.loads_i),
            loads_f: kernel::cells(&mut self.loads_f),
            prev: kernel::cells(&mut self.prev),
            frac: kernel::cells(&mut self.frac),
            flows: kernel::cells(&mut self.flows),
            block_sums: kernel::cells(&mut self.block_sums),
        }
    }
}

impl RoundState<AtomicSlots> {
    /// Views of the atomics, shared by every pool participant.
    pub fn bufs(&self) -> ChunkBufs<Atomics<'_, i64>, Atomics<'_, f64>> {
        ChunkBufs {
            loads_i: Atomics(&self.loads_i),
            loads_f: Atomics(&self.loads_f),
            prev: Atomics(&self.prev),
            frac: Atomics(&self.frac),
            flows: Atomics(&self.flows),
            block_sums: Atomics(&self.block_sums),
        }
    }
}

/// A [`RoundState`] as a round participant sees it: one [`Buf`] view per
/// buffer, `i64` views `I` and `f64` views `F` — [`Cells`] over the
/// sequential executor's vectors or [`Atomics`] over the pool's. Buffers
/// the configuration does not use are empty.
pub(crate) struct ChunkBufs<I, F> {
    /// Integer loads (discrete mode).
    pub loads_i: I,
    /// Continuous loads (continuous mode).
    pub loads_f: F,
    /// Per-edge SOS memory (continuous mode — where it also carries the
    /// round's flows — and [`FlowMemory::Scheduled`]; empty under
    /// [`FlowMemory::Rounded`], whose memory is `flows`).
    pub prev: F,
    /// Per-edge signed fractional parts `Ŷ_e − trunc(Ŷ_e)`, written by
    /// the framework's scatter and read back by its rounding phase
    /// (framework flow pass only).
    pub frac: F,
    /// Per-edge integral flows (discrete mode), kept across rounds: they
    /// are the SOS memory under [`FlowMemory::Rounded`].
    pub flows: I,
    /// Per-[`crate::metrics::DEV_BLOCK`] squared-deviation partials of
    /// the apply pass; node chunks are block-aligned, so each has one
    /// writer per round.
    pub block_sums: F,
}

impl<I, F: Buf<Val = f64>> ChunkBufs<I, F> {
    /// The last step of a round, on the control thread: merges the
    /// participants' fused statistics in participant order (the min/max
    /// merges are exact) and folds the block partials in block order, so
    /// `sum_sq_dev` never depends on the executor or the thread count.
    pub fn collect(&self, stats: impl IntoIterator<Item = LoadStats>) -> LoadStats {
        let mut merged = stats
            .into_iter()
            .fold(LoadStats::identity(), LoadStats::merge);
        let blocks = self.block_sums.elems().len();
        merged.sum_sq_dev = kernel::fold_block_sums(blocks, &self.block_sums);
        merged
    }
}

/// A round's scalar inputs.
#[derive(Clone, Copy, Default)]
pub(crate) struct RoundArgs {
    /// The SOS memory coefficient (`0` for FOS and the pairwise schemes).
    pub mem: f64,
    /// The scheduled-flow gain.
    pub gain: f64,
    /// The round number, which keys every per-round random draw.
    pub round: u64,
    /// Which flow the SOS memory remembers.
    pub flow_memory: FlowMemory,
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
    /// Validates `scheme` against `graph` without building anything:
    /// part of the experiment's one validation point,
    /// [`crate::ExperimentBuilder::build`].
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

    /// Builds the kernel for one simulation whose configuration passed
    /// [`SchemeKernel::validate`] and the perturbation checks at build.
    pub fn new(
        scheme: Scheme,
        mode: Mode,
        graph: &Graph,
        speeds: &Speeds,
        perturb: PerturbSpec,
    ) -> Self {
        let flow = match mode {
            Mode::Continuous => FlowPass::Continuous,
            Mode::Discrete(Rounding::RandomizedFramework { seed }) => FlowPass::Framework { seed },
            Mode::Discrete(rounding) => FlowPass::EdgeLocal(rounding),
        };
        let (plan, lambda) = match scheme {
            Scheme::Fos | Scheme::Sos { .. } => (ActivePlan::All, None),
            Scheme::DimensionExchange { lambda } => (
                ActivePlan::Sweep {
                    masks: matching::edge_coloring(graph).class_masks(),
                    recover: false,
                },
                Some(lambda),
            ),
            Scheme::Matching { lambda, strategy } => {
                let plan = match strategy {
                    MatchingStrategy::RoundRobin => {
                        let coloring = matching::edge_coloring(graph);
                        ActivePlan::Sweep {
                            masks: matching::maximal_matchings(graph, &coloring),
                            recover: true,
                        }
                    }
                    MatchingStrategy::Random { seed } => ActivePlan::Random { seed },
                };
                (plan, Some(lambda))
            }
        };
        Self {
            flow,
            plan,
            pair_coefs: lambda.map(|lambda| exchange_coefs(graph, speeds, lambda)),
            match_pairs: Vec::new(),
            perturb,
        }
    }

    /// Builds the per-simulation matchgen endpoint table once the kernel
    /// tables exist (random-matching plan only; no-op otherwise).
    pub fn finish(&mut self, t: &KernelTables) {
        if matches!(self.plan, ActivePlan::Random { .. }) {
            self.match_pairs = matchgen::edge_pairs(t);
        }
    }

    /// Whether the flow pass keeps the randomized framework's per-edge
    /// fractions.
    pub fn needs_fracs(&self) -> bool {
        matches!(self.flow, FlowPass::Framework { .. })
    }

    /// Whether the control thread publishes a per-round mask into the
    /// pool's job: the random-matching plan does, and so
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

    /// The edge coefficient pair: the pairwise schemes' λ-scaled
    /// tables, or the diffusion `α_e/s` tables of [`KernelTables`].
    fn coefs<'a>(&'a self, t: &'a KernelTables) -> kernel::Coefs<'a> {
        match &self.pair_coefs {
            Some((tail, head)) => (tail, head),
            None => t.coefs(),
        }
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

    /// The sweep plan's class for `round` (`None` for the other plans).
    pub fn sweep_class(&self, round: u64) -> Option<&[u64]> {
        let (masks, _) = self.sweep_family()?;
        Some(&masks[(round % masks.len() as u64) as usize])
    }

    /// Control-thread round preparation, before any flow is computed:
    /// runs the perturbation channels against the loads
    /// ([`Perturb::begin_round`]), generates the random matching (if the
    /// plan draws one), and returns the round's effective active mask
    /// composed with the channels ([`Perturb::compose`]) and its stale
    /// words. The first step of every round, on either executor.
    pub fn prepare<'a, I: Buf<Val = i64>, F: Buf<Val = f64>>(
        &'a self,
        t: &KernelTables,
        graph: &Graph,
        round: u64,
        bufs: &ChunkBufs<I, F>,
        matchgen: &'a mut MatchScratch,
        perturb: &'a mut Perturb,
    ) -> RoundMasks<'a> {
        let (spec, sweep) = (&self.perturb, self.sweep_family());
        match self.flow {
            FlowPass::Continuous => perturb.begin_round(spec, graph, round, sweep, &bufs.loads_f),
            _ => perturb.begin_round(spec, graph, round, sweep, &bufs.loads_i),
        }
        let plan = match self.plan {
            ActivePlan::Random { seed } => {
                matchgen::fill_random_matching(seed, round, t, &self.match_pairs, matchgen);
                Some(&matchgen.mask[..])
            }
            _ => self.sweep_class(round),
        };
        perturb.compose(spec, plan, round, t.m)
    }

    /// One participant's share of a round, over its `edges` and `nodes`:
    /// picks the edge gate — the round's mask words if it has any, else
    /// the sweep plan's class, else every edge — and runs
    /// [`Self::phases`] with `sync` between phases: a no-op for the
    /// sequential executor's one participant over every edge and node,
    /// the barrier on the pool. The only caller of `phases`.
    #[allow(clippy::too_many_arguments)] // one participant's full round context
    pub fn participate<I: Buf<Val = i64>, F: Buf<Val = f64>>(
        &self,
        t: &KernelTables,
        args: &RoundArgs,
        edges: Range<usize>,
        nodes: Range<usize>,
        bufs: &ChunkBufs<I, F>,
        masks: RoundMasks<'_>,
        fw: &mut FwScratch,
        sync: impl Fn(),
    ) -> LoadStats {
        let stale = masks.stale;
        match masks.active.or_else(|| self.sweep_class(args.round)) {
            Some(words) => {
                let gate = MaskBits(words);
                self.phases(t, args, edges, nodes, bufs, fw, gate, stale, sync)
            }
            None => self.phases(t, args, edges, nodes, bufs, fw, AllEdges, stale, sync),
        }
    }

    /// The one phase sequence of a round, over one participant's `edges`
    /// and `nodes`: the gated edge pass, the framework's rounding phase,
    /// then the apply pass with its fused statistics, with `sync` between
    /// phases. Every executor runs the same kernel calls in the same
    /// per-element order, so pooled results are bit-identical to
    /// sequential ones. `stale`, when set, marks the edges whose flow
    /// never lands. Per-block squared-deviation partials go to
    /// `bufs.block_sums` (the returned statistics leave `sum_sq_dev` to
    /// [`ChunkBufs::collect`]).
    #[allow(clippy::too_many_arguments)] // one participant's full round context
    fn phases<I: Buf<Val = i64>, F: Buf<Val = f64>, G: EdgeGate>(
        &self,
        t: &KernelTables,
        args: &RoundArgs,
        edges: Range<usize>,
        nodes: Range<usize>,
        bufs: &ChunkBufs<I, F>,
        fw: &mut FwScratch,
        gate: G,
        stale: Option<&[u64]>,
        sync: impl Fn(),
    ) -> LoadStats {
        let &RoundArgs {
            mem,
            gain,
            round,
            flow_memory,
        } = args;
        let (coefs, flows, prev, sums) = (self.coefs(t), &bufs.flows, &bufs.prev, &bufs.block_sums);
        let x = |i| bufs.loads_i.get(i) as f64;
        match self.flow {
            FlowPass::Continuous => {
                let x = |i| bufs.loads_f.get(i);
                kernel::edge_pass_continuous_gated(t, coefs, &gate, edges, mem, gain, x, prev);
            }
            FlowPass::EdgeLocal(rounding) => kernel::edge_pass_fused_gated(
                t,
                coefs,
                &gate,
                edges,
                mem,
                gain,
                round,
                rounding,
                flow_memory,
                x,
                prev,
                flows,
            ),
            FlowPass::Framework { seed } => {
                let frac = &bufs.frac;
                kernel::edge_pass_scatter_gated(
                    t,
                    coefs,
                    &gate,
                    edges,
                    mem,
                    gain,
                    flow_memory,
                    x,
                    frac,
                    flows,
                    prev,
                );
                sync();
                kernel::arc_round_streamed(t, nodes.clone(), seed, round, frac, flows, fw);
            }
        }
        sync();
        // The one apply-with-stale step: a stale edge's flow was computed
        // and recorded in the flow memory above, but it never lands. The
        // continuous flows are the memory the edge pass just wrote.
        match self.flow {
            FlowPass::Continuous => kernel::apply_flows(t, nodes, prev, stale, &bufs.loads_f, sums),
            _ => kernel::apply_flows(t, nodes, flows, stale, &bufs.loads_i, sums),
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

    /// One sequential discrete round (`mem = 0`, `gain = 1`, rounded
    /// memory): prepare, one participant over everything, collect.
    fn discrete_round(
        k: &SchemeKernel,
        t: &KernelTables,
        g: &Graph,
        round: u64,
        state: &mut RoundState<PlainSlots>,
        scratch: &mut RoundScratch,
    ) -> LoadStats {
        let args = RoundArgs {
            mem: 0.0,
            gain: 1.0,
            round,
            flow_memory: FlowMemory::Rounded,
        };
        let RoundScratch {
            fw,
            matchgen,
            perturb,
        } = scratch;
        let bufs = state.bufs();
        let masks = k.prepare(t, g, round, &bufs, matchgen, perturb);
        let stats = k.participate(t, &args, 0..t.m, 0..t.n, &bufs, masks, fw, || {});
        bufs.collect([stats])
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
        );
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
        );
        let t = tables(&g);
        let mut state = RoundState::new(&k, &t, FlowMemory::Rounded, vec![10, 0]);
        let mut scratch = RoundScratch::new();
        let stats = discrete_round(&k, &t, &g, 0, &mut state, &mut scratch);
        assert_eq!(state.loads_i64().unwrap(), &[5, 5][..]);
        // Under `Rounded` the flow slot is the SOS memory: no `f64`
        // memory is stored beside it.
        assert_eq!(state.memory(), &[5.0][..]);
        assert_eq!(state.state_bytes(), 8 * (2 + 1));
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
        );
        let t = tables(&g);
        let mut state = RoundState::new(&k, &t, FlowMemory::Rounded, vec![100, 0, 0, 0]);
        let mut scratch = RoundScratch::new();
        for round in 0..2 {
            discrete_round(&k, &t, &g, round, &mut state, &mut scratch);
            let ActivePlan::Sweep { masks, .. } = &k.plan else {
                unreachable!()
            };
            let words = &masks[(round % masks.len() as u64) as usize];
            for (e, &f) in state.memory().iter().enumerate() {
                let active = (words[e >> 6] >> (e & 63)) & 1 == 1;
                if !active {
                    assert_eq!(f, 0.0, "round {round}: inactive edge {e} moved {f}");
                }
            }
        }
        let total: i64 = state.loads_i64().unwrap().iter().sum();
        assert_eq!(total, 100, "tokens conserved");
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
        );
        let t = tables(&g);
        let frozen: Vec<i64> = (0..16).map(|i| i * 3).collect();
        let total: i64 = frozen.iter().sum();
        let mut state = RoundState::new(&k, &t, FlowMemory::Rounded, frozen.clone());
        let mut scratch = RoundScratch::new();
        for round in 0..crate::perturb::EPOCH_LEN {
            discrete_round(&k, &t, &g, round, &mut state, &mut scratch);
            let loads = state.loads_i64().unwrap();
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
                let kernel = SchemeKernel::new(resolved, mode, &g, &speeds, perturb);
                assert!(kernel.perturb.is_none(), "{scheme} {mode:?}");
                assert_eq!(kernel.publishes_mask(), random, "{scheme} {mode:?}");
                assert!(!kernel.needs_stale_mask(), "{scheme} {mode:?}");
            }
        }
    }
}
