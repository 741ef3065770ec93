//! The scheme-kernel layer: one object per simulation that owns the
//! per-round flow computation — edge pass, rounding hook, apply pass, and
//! barrier plan — for **every** balancing scheme.
//!
//! A [`SchemeKernel`] is the simulation's one immutable round plan: the
//! simulator and its pool job hold it as one `Arc`. It owns everything a
//! round reads that never changes: the [`KernelTables`] with the
//! scheme's coefficients, the mode, the active plan, and the
//! perturbation spec.
//!
//! Before this layer existed, the flow computation was hard-wired through
//! the engine (sequential rounds) and the worker pool (chunked rounds):
//! adding a scheme meant re-threading its phase sequence through both by
//! hand. A [`SchemeKernel`] now captures the two orthogonal choices a
//! simulation makes, as plain enums dispatched statically:
//!
//! * the [`Mode`] — *what* an active edge sends for its scheduled flow.
//!   Every mode runs the one edge pass of [`crate::kernel`], which
//!   stores each edge's `y(e, Ŷ_e)` into its flow slot: continuous mode
//!   stores `Ŷ_e` itself, an edge-local rounding its rounded value, and
//!   the randomized framework the truncation, with the fraction written
//!   on the side for its node-centric rounding phase. The kernels are
//!   division-free and pinned bit for bit by `tests/golden_trace.rs`.
//! * [`ActivePlan`] — *which* edges are active each round: all of them
//!   (diffusion), a precomputed family of bitmasks swept round-robin
//!   (dimension exchange over the color classes of an edge coloring;
//!   matching-based balancing over maximal matchings), or a fresh random
//!   maximal matching drawn per round from a `(seed, round)`-keyed greedy
//!   order. Every active set of the two pairwise plans is a **matching**,
//!   perturbed or not, which is what lets their rounds touch only it.
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
//!    and the round's [`RoundMasks`] — the plan's active set composed
//!    with the channels, and the stale words — so per-round plan state
//!    never depends on the executor. It is the round's one gate
//!    decision: the pool publishes exactly the masks it returns into its
//!    job.
//! 2. [`SchemeKernel::participate`] runs one participant's share: it
//!    reads the masks as given and calls one of two phase sequences, with
//!    a sync hook between phases (a no-op for the sequential executor's
//!    single participant over every edge and node, the barrier on the
//!    pool).
//!    * The diffusion plan runs the gated phases: edge pass, the
//!      framework's rounding phase, apply pass. Each edge pass is gated
//!      statically: no active mask runs [`kernel::AllEdges`], with no
//!      mask test in the loop; a mask (crash, churn or edge drops)
//!      runs [`kernel::MaskBits`], which forces an inactive edge's flow
//!      to zero with a branchless bit test.
//!    * The two matching plans run a **matching round** in every mode
//!      (the random-matching model of Ghosh and Muthukrishnan, SPAA
//!      1994): an edge step that visits only the set bits of the round's
//!      matching in the participant's word-aligned edge chunk, computes
//!      those flows (and rounds them in discrete mode) and lands each at
//!      its two endpoints, then one barrier and a node step that applies
//!      the landed flows and folds the fused statistics. A round costs
//!      `O(|M| + n)` instead of the gated phases' `O(m)` edge pass and
//!      `O(2m)` arc walks, and its loads are theirs bit for bit. The
//!      pairwise schemes keep no flow memory: only SOS reads one, and
//!      `mem = 0` in every pairwise round, so their state is the loads
//!      alone.
//! 3. [`ChunkBufs::collect`] merges the participants' statistics and
//!    folds the per-block partials in block order.
//!
//! Every participant therefore executes the *same* kernel calls in the
//! same per-element order, so pooled results are bit-identical to
//! sequential ones for every scheme — the property
//! `tests/determinism.rs` and the golden traces check.
//!
//! The kernel's tables hold only the coefficients its rounds read. For
//! FOS/SOS those are the diffusion `α_e/s` pair. The pairwise schemes'
//! tables hold the λ-scaled harmonic-speed pair
//! `c_tail = λ·s_v/(s_u+s_v)`, `c_head = λ·s_u/(s_u+s_v)` instead,
//! so an active edge schedules
//! `y = λ·(s_u·s_v/(s_u+s_v))·(x_u/s_u − x_v/s_v)` — exact pairwise
//! averaging at `λ = 1` under uniform speeds, where the pair is the one
//! value `(λ/2, λ/2)` on every edge — and no pairwise run builds a
//! diffusion table.
//!
//! See the "adding a scheme" walkthrough in the crate docs
//! ([`crate`]) for the end-to-end list of touch points.

use std::borrow::Cow;
use std::ops::Range;

use sodiff_graph::{matching, Graph, Speeds};

use crate::checkpoint::LoadsSnapshot;
use crate::engine::Mode;
use crate::error::BuildError;
use crate::experiment::Config;
use crate::kernel::{
    self, AllEdges, Atomics, Buf, Cells, Coefs, EdgeGate, FwScratch, KernelTables, LoadStats,
    MaskBits, Value,
};
use crate::matchgen::{self, MatchScratch};
use crate::metrics::local_diff_with;
use crate::perturb::{Perturb, PerturbSpec, RoundMasks};
use crate::rounding::Rounding;
use crate::scheme::{MatchingStrategy, Scheme};

/// Which edges are active each round.
///
/// The matching invariant: every active set of `Sweep` and `Random` is a
/// matching — a color class, a maximal matching or a greedy random
/// matching, and each crash, churn or edge-drop subset and repair of one
/// ([`Perturb::compose`] only removes edges, and the churn repair re-covers
/// freed nodes with a matching). So in their rounds each node balances
/// with at most one neighbour, each endpoint of an active edge has
/// exactly one writer on any executor, and [`SchemeKernel::prepare`]
/// checks it with a `debug_assert!` every round.
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

impl ActivePlan {
    /// Whether the plan's active sets are matchings (`Sweep` and
    /// `Random`; see the matching invariant above).
    fn is_matching(&self) -> bool {
        !matches!(self, ActivePlan::All)
    }
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
/// executors share: loads, the integral flows (a discrete run's SOS
/// memory, "the amount that was sent in step t−1"), the `f64` flows (a
/// continuous run's memory), the randomized framework's per-edge
/// fractions, the apply pass's
/// per-[`crate::metrics::DEV_BLOCK`] squared-deviation partials, and the
/// matching rounds' per-node landing slots. Each piece lives here and
/// nowhere else. A pairwise run holds only its loads, its landing slots
/// and the block partials: it keeps no per-edge state.
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
    flows_i: Vec<S::Slot<i64>>,
    flows_f: Vec<S::Slot<f64>>,
    frac: Vec<S::Slot<f64>>,
    block_sums: Vec<S::Slot<f64>>,
    sent_i: Vec<S::Slot<i64>>,
    sent_f: Vec<S::Slot<f64>>,
    discrete: bool,
    /// The edge count of a run that keeps no flow memory (the pairwise
    /// plans), whose memory reads as that many zeros; `None` for the
    /// diffusion plan.
    zero_memory: Option<usize>,
}

impl<S: Storage> RoundState<S> {
    /// The round-0 state for `loads`, sized by the one rule: loads and
    /// flows of the mode's value type, and then by plan. The diffusion
    /// plan keeps its flows, which are its SOS memory, and `frac` (one
    /// slot per edge) only for the randomized framework's rounding
    /// phase. The matching plans keep one landing slot per node and
    /// nothing per edge.
    pub fn new(k: &SchemeKernel, loads: Vec<i64>) -> Self {
        let t = &k.tables;
        let discrete = matches!(k.mode, Mode::Discrete(_));
        let pairwise = k.plan.is_matching();
        let diffusion = !pairwise;
        let framework = matches!(k.mode, Mode::Discrete(Rounding::RandomizedFramework { .. }));
        let zeros = |len: usize| (0..len).map(|_| S::of(0.0)).collect();
        let ints = |len: usize| (0..len).map(|_| S::of(0)).collect();
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
            flows_i: ints(sized(diffusion && discrete, t.m)),
            flows_f: zeros(sized(diffusion && !discrete, t.m)),
            frac: zeros(sized(diffusion && framework, t.m)),
            block_sums: zeros(kernel::dev_blocks(t.n)),
            sent_i: ints(sized(pairwise && discrete, t.n)),
            sent_f: zeros(sized(pairwise && !discrete, t.n)),
            discrete,
            zero_memory: pairwise.then_some(t.m),
        }
    }

    /// Whether the state holds discrete (integer-token) loads.
    pub fn is_discrete(&self) -> bool {
        self.discrete
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

    /// `φ_local` of the loads ([`crate::metrics::local_diff_with`]), read
    /// from the typed store: the mode is matched once per sweep, not once
    /// per load read.
    pub fn local_diff(&self, graph: &Graph, speeds: &Speeds) -> f64 {
        if self.discrete {
            let loads = &self.loads_i;
            local_diff_with(graph, speeds, |i| S::get(&loads[i]) as f64)
        } else {
            let loads = &self.loads_f;
            local_diff_with(graph, speeds, |i| S::get(&loads[i]))
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

    /// The SOS memory as `f64`, which is the flows: `m` zeros for the
    /// pairwise plans, which keep none; materialized from the integral
    /// flows in discrete mode (the values [`kernel::prev_from_flows`]
    /// produces), the `f64` flows in continuous mode.
    pub fn memory(&self) -> Cow<'_, [f64]> {
        if let Some(m) = self.zero_memory {
            Cow::Owned(vec![0.0; m])
        } else if self.discrete {
            Cow::Owned(self.flows_i.iter().map(|y| S::get(y) as f64).collect())
        } else {
            S::values(&self.flows_f)
        }
    }

    /// Overwrites the loads and the SOS memory (checkpoint restore). The
    /// caller has checked that the snapshot matches the mode and the
    /// node and edge counts and, in discrete mode, that every memory value
    /// is integral, so each store is exact. A pairwise run
    /// keeps no memory and ignores it: no round of its scheme reads one.
    pub fn write_state(&mut self, loads: &LoadsSnapshot, memory: &[f64]) {
        match loads {
            LoadsSnapshot::Discrete(src) => self.loads_i = src.iter().map(|&x| S::of(x)).collect(),
            LoadsSnapshot::Continuous(src) => {
                self.loads_f = src.iter().map(|&x| S::of(x)).collect()
            }
        }
        if self.zero_memory.is_some() {
            // Nothing to restore.
        } else if self.discrete {
            self.flows_i = memory.iter().map(|&x| S::of(x as i64)).collect();
        } else {
            self.flows_f = memory.iter().map(|&x| S::of(x)).collect();
        }
    }

    /// Bytes of per-node and per-edge simulation state: loads, flows (the
    /// memory) and framework fractions, so `8·n` for a pairwise run. The
    /// block partials and the matching rounds' landing slots (zero
    /// between rounds) are round scratch and excluded.
    pub fn state_bytes(&self) -> usize {
        let edges = self.flows_i.len() + self.flows_f.len() + self.frac.len();
        8 * (self.loads_i.len() + self.loads_f.len() + edges)
    }
}

impl RoundState<PlainSlots> {
    /// `Cell` views of the plain vectors, for one sequential round.
    pub fn bufs(&mut self) -> ChunkBufs<Cells<'_, i64>, Cells<'_, f64>> {
        ChunkBufs {
            loads_i: kernel::cells(&mut self.loads_i),
            loads_f: kernel::cells(&mut self.loads_f),
            flows_i: kernel::cells(&mut self.flows_i),
            flows_f: kernel::cells(&mut self.flows_f),
            frac: kernel::cells(&mut self.frac),
            block_sums: kernel::cells(&mut self.block_sums),
            sent_i: kernel::cells(&mut self.sent_i),
            sent_f: kernel::cells(&mut self.sent_f),
        }
    }
}

impl RoundState<AtomicSlots> {
    /// Views of the atomics, shared by every pool participant.
    pub fn bufs(&self) -> ChunkBufs<Atomics<'_, i64>, Atomics<'_, f64>> {
        ChunkBufs {
            loads_i: Atomics(&self.loads_i),
            loads_f: Atomics(&self.loads_f),
            flows_i: Atomics(&self.flows_i),
            flows_f: Atomics(&self.flows_f),
            frac: Atomics(&self.frac),
            block_sums: Atomics(&self.block_sums),
            sent_i: Atomics(&self.sent_i),
            sent_f: Atomics(&self.sent_f),
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
    /// Per-edge integral flows (discrete diffusion), kept across rounds:
    /// they are the SOS memory.
    pub flows_i: I,
    /// Per-edge `f64` flows (continuous diffusion), kept across rounds:
    /// they are the SOS memory.
    pub flows_f: F,
    /// Per-edge signed fractional parts `Ŷ_e − trunc(Ŷ_e)`, written by
    /// the framework's scatter and read back by its rounding phase (the
    /// diffusion plan under the randomized framework only).
    pub frac: F,
    /// Per-[`crate::metrics::DEV_BLOCK`] squared-deviation partials of
    /// the apply pass; node chunks are block-aligned, so each has one
    /// writer per round.
    pub block_sums: F,
    /// Per-node signed flow `σ·y` the node's matching edge landed this
    /// round, zero otherwise (matching rounds; `sent_i` for tokens,
    /// `sent_f` for fluid): written by the edge step, read and reset to
    /// zero by the node step. Each slot has one writer per round, since
    /// the round's active set is a matching.
    pub sent_i: I,
    /// Fluid landing slots (continuous matching rounds); see `sent_i`.
    pub sent_f: F,
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
}

/// The per-simulation scheme kernel: the simulation's one immutable
/// round plan, which the simulator and its pool job share as one `Arc`.
/// See the module docs above.
pub(crate) struct SchemeKernel {
    mode: Mode,
    plan: ActivePlan,
    /// The tables the rounds read, with the scheme's coefficients: the
    /// diffusion `α_e/s` pair, or the pairwise schemes' λ-scaled pair
    /// ([`exchange_coefs`]).
    pub tables: KernelTables,
    /// The fault, load and churn channels (all `none` = unperturbed).
    pub perturb: PerturbSpec,
}

/// The λ-scaled harmonic-speed coefficient pair of the pairwise
/// schemes: `c_tail = λ·s_v/(s_u+s_v)`, `c_head = λ·s_u/(s_u+s_v)`,
/// so `y_e = c_tail·x_u − c_head·x_v = λ·(s_u·s_v/(s_u+s_v))·(x_u/s_u − x_v/s_v)`.
/// Under uniform speeds both halves are `λ·s/(s+s)` on every edge, so
/// the pair is computed once; other speeds take the per-edge build.
fn exchange_coefs(graph: &Graph, speeds: &Speeds, lambda: f64) -> Coefs {
    let pair = |su: f64, sv: f64| (lambda * sv / (su + sv), lambda * su / (su + sv));
    if speeds.is_uniform() {
        // The one speed; unlike `get(0)`, `max()` is defined when the
        // graph has no nodes.
        let s = speeds.max();
        let (tail, head) = pair(s, s);
        debug_assert_eq!(tail.to_bits(), head.to_bits(), "asymmetric pair");
        return Coefs::Same(tail, head);
    }
    kernel::coef_pair(graph, |u, v| {
        pair(speeds.get(u as usize), speeds.get(v as usize))
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

    /// Builds the round plan of one simulation whose `config` passed
    /// [`SchemeKernel::validate`] and the perturbation checks at build:
    /// the mode, the active plan, and the tables with the scheme's
    /// coefficients and the balanced loads of `total_load` over `speeds`.
    pub fn new(config: &Config, graph: &Graph, speeds: &Speeds, total_load: f64) -> Self {
        let (plan, lambda) = match config.scheme {
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
        let tables = match lambda {
            Some(lambda) => {
                let coefs = exchange_coefs(graph, speeds, lambda);
                KernelTables::with_coefs(graph, speeds, coefs, total_load)
            }
            None => KernelTables::new(graph, speeds, false, total_load),
        };
        Self {
            mode: config.mode,
            plan,
            tables,
            perturb: config.perturb,
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

    /// Control-thread round preparation, before any flow is computed, and
    /// the round's one gate decision: runs the perturbation channels
    /// against the loads ([`Perturb::begin_round`]), generates the random
    /// matching (if the plan draws one), and returns the round's masks —
    /// the plan's active set (the sweep class or the matching; `None` =
    /// every edge) composed with the channels ([`Perturb::compose`]), and
    /// the stale words. The first step of every round, on either executor.
    pub fn prepare<'a, I: Buf<Val = i64>, F: Buf<Val = f64>>(
        &'a self,
        round: u64,
        bufs: &ChunkBufs<I, F>,
        matchgen: &'a mut MatchScratch,
        perturb: &'a mut Perturb,
    ) -> RoundMasks<'a> {
        let (spec, sweep, t) = (&self.perturb, self.sweep_family(), &self.tables);
        let graph = t.graph();
        match self.mode {
            Mode::Continuous => perturb.begin_round(spec, graph, round, sweep, &bufs.loads_f),
            Mode::Discrete(_) => perturb.begin_round(spec, graph, round, sweep, &bufs.loads_i),
        }
        let plan = match self.plan {
            ActivePlan::All => None,
            ActivePlan::Sweep { ref masks, .. } => {
                Some(&masks[(round % masks.len() as u64) as usize][..])
            }
            ActivePlan::Random { seed } => {
                matchgen::fill_random_matching(seed, round, t, &[], matchgen);
                Some(&matchgen.mask[..])
            }
        };
        let masks = perturb.compose(spec, plan, round, t.m);
        debug_assert!(
            !self.plan.is_matching()
                || masks
                    .active
                    .is_some_and(|words| matching::mask_is_matching(graph, words)),
            "round {round}: a matching plan's active set must be a matching"
        );
        masks
    }

    /// One participant's share of a round, over its `edges` and `nodes`,
    /// on the `masks` [`Self::prepare`] returned, as given: a matching
    /// plan's round runs [`Self::matching_round`] on its active words; a
    /// diffusion round runs [`Self::phases`] gated by [`MaskBits`] over
    /// the active words if there are any, else [`AllEdges`]. `sync` runs
    /// between phases: a no-op for the sequential executor's one
    /// participant over every edge and node, the barrier on the pool. The
    /// only caller of both.
    #[allow(clippy::too_many_arguments)] // one participant's full round context
    pub fn participate<I: Buf<Val = i64>, F: Buf<Val = f64>>(
        &self,
        args: &RoundArgs,
        edges: Range<usize>,
        nodes: Range<usize>,
        bufs: &ChunkBufs<I, F>,
        masks: RoundMasks<'_>,
        fw: &mut FwScratch,
        sync: impl Fn(),
    ) -> LoadStats {
        let stale = masks.stale;
        match masks.active {
            Some(words) if self.plan.is_matching() => {
                self.matching_round(args, edges, nodes, bufs, words, stale, sync)
            }
            Some(words) => self.phases(args, edges, nodes, bufs, fw, MaskBits(words), stale, sync),
            None => self.phases(args, edges, nodes, bufs, fw, AllEdges, stale, sync),
        }
    }

    /// One participant's share of a matching round (a `Sweep` or `Random`
    /// plan, whose `active` words are a matching), in any mode: an edge
    /// step over the participant's word-aligned `edges`, `sync`, then a
    /// node step over its `nodes`: two phases with one barrier on the
    /// pool.
    ///
    /// The edge step ([`kernel::pair_edge_step`]) visits only the
    /// matching: it computes each active edge's flow, rounded inline in
    /// discrete mode, and lands each non-stale one at its two endpoints
    /// ([`ChunkBufs::sent_i`]). The node step ([`kernel::pair_node_step`])
    /// applies the landed flows and folds the fused statistics in node
    /// order. The loads are those of the gated phase sequence
    /// ([`Self::phases`]) bit for bit: an inactive edge's flow is zero
    /// there and moves no load.
    #[allow(clippy::too_many_arguments)] // one participant's full round context
    fn matching_round<I: Buf<Val = i64>, F: Buf<Val = f64>>(
        &self,
        args: &RoundArgs,
        edges: Range<usize>,
        nodes: Range<usize>,
        bufs: &ChunkBufs<I, F>,
        active: &[u64],
        stale: Option<&[u64]>,
        sync: impl Fn(),
    ) -> LoadStats {
        let &RoundArgs { mem, gain, round } = args;
        let t = &self.tables;
        macro_rules! steps {
            ($loads:expr, $sent:expr, $flow:expr) => {{
                let (loads, sent) = ($loads, $sent);
                kernel::pair_edge_step(t, edges, active, stale, (mem, gain), loads, sent, $flow);
                sync();
                kernel::pair_node_step(t, nodes, sent, loads, &bufs.block_sums)
            }};
        }
        match self.mode {
            Mode::Continuous => steps!(&bufs.loads_f, &bufs.sent_f, |_, _, s| s),
            Mode::Discrete(rounding) => kernel::with_edge_rounding!(
                rounding,
                round,
                |y| steps!(&bufs.loads_i, &bufs.sent_i, |e, _, s| y(e, s)),
                |seed| steps!(
                    &bufs.loads_i,
                    &bufs.sent_i,
                    kernel::pair_framework(seed, round)
                )
            ),
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
        args: &RoundArgs,
        edges: Range<usize>,
        nodes: Range<usize>,
        bufs: &ChunkBufs<I, F>,
        fw: &mut FwScratch,
        gate: G,
        stale: Option<&[u64]>,
        sync: impl Fn(),
    ) -> LoadStats {
        let &RoundArgs { mem, gain, round } = args;
        let t = &self.tables;
        // The one body, over tokens or fluid: the edge pass stores
        // `$y(e, Ŷ_e)` into each edge's flow slot, the optional
        // `$between` runs before the barrier ahead of the apply pass, and
        // the apply-with-stale step lands every flow but the stale ones,
        // which stay recorded in the flow memory.
        macro_rules! diffuse {
            ($loads:expr, $flows:expr, $y:expr $(, $between:block)?) => {{
                let (loads, flows) = ($loads, $flows);
                let x = |i| loads.get(i).to_f64();
                kernel::edge_pass(t, &gate, edges, mem, gain, x, flows, $y);
                $($between)?
                sync();
                kernel::apply_flows(t, nodes, flows, stale, loads, &bufs.block_sums)
            }};
        }
        match self.mode {
            Mode::Continuous => diffuse!(&bufs.loads_f, &bufs.flows_f, |_, s| s),
            Mode::Discrete(rounding) => kernel::with_edge_rounding!(
                rounding,
                round,
                |y| diffuse!(&bufs.loads_i, &bufs.flows_i, y),
                // The framework's rounding phase distributes the excess
                // tokens of the fractions its scatter wrote.
                |seed| diffuse!(&bufs.loads_i, &bufs.flows_i, kernel::scatter(&bufs.frac), {
                    sync();
                    let (frac, flows) = (&bufs.frac, &bufs.flows_i);
                    kernel::arc_round_streamed(t, nodes.clone(), seed, round, frac, flows, fw)
                })
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sodiff_graph::generators;
    use std::sync::Arc;

    /// The kernel of `scheme` in `mode` on `g` (uniform speeds, balanced
    /// loads of a zero total).
    fn kernel(g: &Graph, scheme: Scheme, mode: Mode, perturb: PerturbSpec) -> SchemeKernel {
        let config = Config {
            scheme,
            mode,
            perturb,
            ..Config::new(g)
        };
        SchemeKernel::new(&config, g, &Speeds::uniform(g.node_count()), 0.0)
    }

    /// One sequential discrete round (`mem = 0`, `gain = 1`): prepare,
    /// one participant over everything, collect.
    fn discrete_round(
        k: &SchemeKernel,
        round: u64,
        state: &mut RoundState<PlainSlots>,
        scratch: &mut RoundScratch,
    ) -> LoadStats {
        let args = RoundArgs {
            mem: 0.0,
            gain: 1.0,
            round,
        };
        let RoundScratch {
            fw,
            matchgen,
            perturb,
        } = scratch;
        let bufs = state.bufs();
        let masks = k.prepare(round, &bufs, matchgen, perturb);
        let (m, n) = (k.tables.m, k.tables.n);
        let stats = k.participate(&args, 0..m, 0..n, &bufs, masks, fw, || {});
        bufs.collect([stats])
    }

    #[test]
    fn pairwise_coefficients_are_one_pair_under_uniform_speeds() {
        // `λ·s_v/(s_u+s_v) = λ/2` on every edge of every graph, regular
        // or not.
        for g in [generators::torus2d(6, 6), generators::grid2d(6, 6)] {
            let coefs = exchange_coefs(&g, &Speeds::uniform(36), 0.5);
            assert!(matches!(coefs, Coefs::Same(t, h) if t == 0.25 && h == 0.25));
        }
        let g = generators::torus2d(6, 6);
        let speeds = Speeds::two_class(36, 9, 3.0);
        let coefs = exchange_coefs(&g, &speeds, 0.5);
        assert!(matches!(&coefs, Coefs::Each(tail, head) if !Arc::ptr_eq(tail, head)));
        for (e, (u, v)) in g.edges().enumerate() {
            let (su, sv) = (speeds.get(u as usize), speeds.get(v as usize));
            assert_eq!(coefs.get(e), (0.5 * sv / (su + sv), 0.5 * su / (su + sv)));
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
        let mode = Mode::Discrete(Rounding::nearest());
        let k = kernel(
            &g,
            Scheme::dimension_exchange(1.0),
            mode,
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
        let (ct, ch) = exchange_coefs(&g, &speeds, 0.5).get(0);
        // λ·s_v/(s_u+s_v) and λ·s_u/(s_u+s_v) for (s_u, s_v) = (1, 3).
        assert!((ct - 0.5 * 3.0 / 4.0).abs() < 1e-15);
        assert!((ch - 0.5 * 1.0 / 4.0).abs() < 1e-15);
    }

    #[test]
    fn de_sequential_round_conserves_and_averages_pairs() {
        // Uniform speeds, λ = 1: each active edge moves (x_u − x_v)/2,
        // rounded. One DE round on a 2-node path with loads (10, 0) moves
        // exactly 5 tokens.
        let g = generators::path(2);
        let mode = Mode::Discrete(Rounding::nearest());
        let k = kernel(
            &g,
            Scheme::dimension_exchange(1.0),
            mode,
            PerturbSpec::default(),
        );
        let mut state = RoundState::new(&k, vec![10, 0]);
        let mut scratch = RoundScratch::new();
        let stats = discrete_round(&k, 0, &mut state, &mut scratch);
        assert_eq!(state.loads_i64().unwrap(), &[5, 5][..]);
        // A pairwise run keeps no flow memory: it reads as zeros, and
        // the state is the loads alone.
        assert_eq!(state.memory(), &[0.0][..]);
        assert_eq!(state.state_bytes(), 8 * 2);
        assert_eq!(stats.min_transient, 0.0); // node 1: 0 − 0; node 0: 10 − 5
    }

    /// The pairwise schemes, and the modes a pairwise run can take:
    /// discrete, with an edge-local rounding and the randomized
    /// framework, and continuous.
    fn pairwise_configs(g: &Graph) -> Vec<Config> {
        let schemes = [
            Scheme::dimension_exchange(1.0),
            Scheme::matching_round_robin(1.0),
            Scheme::matching_random(3, 1.0),
        ];
        let modes = [
            Mode::Continuous,
            Mode::Discrete(Rounding::nearest()),
            Mode::Discrete(Rounding::randomized(5)),
        ];
        let mut configs = Vec::new();
        for scheme in schemes {
            for mode in modes {
                configs.push(Config {
                    scheme,
                    mode,
                    ..Config::new(g)
                });
            }
        }
        configs
    }

    /// A pairwise run holds its loads alone, `8·n` bytes, in every mode
    /// and on both executors, before and after its rounds run.
    #[test]
    fn pairwise_state_is_the_loads_alone() {
        use crate::pool::{RoundJob, WorkerPool};
        let g = generators::torus2d(6, 6);
        let (n, m) = (g.node_count(), g.edge_count());
        let pool = WorkerPool::new(3);
        for config in pairwise_configs(&g) {
            let what = format!("{} {:?}", config.scheme, config.mode);
            let total = 100 * n as i64;
            let k = Arc::new(SchemeKernel::new(
                &config,
                &g,
                &Speeds::uniform(n),
                total as f64,
            ));
            let mut loads = vec![0; n];
            loads[0] = total;
            let mut state = RoundState::<PlainSlots>::new(&k, loads.clone());
            let pooled = RoundState::<AtomicSlots>::new(&k, loads);
            let mut job = Arc::new(RoundJob::new(pool.threads(), Arc::clone(&k), pooled));
            let (mut scratch, mut pooled_scratch) = (RoundScratch::new(), RoundScratch::new());
            for round in 0..3 {
                assert_eq!(state.state_bytes(), 8 * n, "{what}");
                assert_eq!(job.state.state_bytes(), 8 * n, "{what} (pooled)");
                let args = RoundArgs {
                    gain: 1.0,
                    round,
                    ..Default::default()
                };
                let bufs = state.bufs();
                let masks = k.prepare(round, &bufs, &mut scratch.matchgen, &mut scratch.perturb);
                let stats = k.participate(&args, 0..m, 0..n, &bufs, masks, &mut scratch.fw, || {});
                let stats = bufs.collect([stats]);
                Arc::get_mut(&mut job)
                    .unwrap()
                    .prepare(args, &mut pooled_scratch);
                assert_eq!(
                    pool.run_round(&job, &mut pooled_scratch.fw),
                    stats,
                    "{what}"
                );
            }
            assert_eq!(state.loads(), job.state.loads(), "{what}");
            assert!(state.load_of(0) < total as f64, "{what}: node 0 sent load");
            assert_eq!(state.memory().into_owned(), vec![0.0; m], "{what}");
        }
    }

    #[test]
    fn inactive_color_class_moves_nothing() {
        // On a 4-cycle (2 color classes) only the endpoints of the active
        // class's edges change load each round.
        let g = generators::cycle(4);
        let mode = Mode::Discrete(Rounding::nearest());
        let k = kernel(
            &g,
            Scheme::dimension_exchange(1.0),
            mode,
            PerturbSpec::default(),
        );
        let mut state = RoundState::new(&k, vec![100, 0, 0, 0]);
        let mut scratch = RoundScratch::new();
        for round in 0..2 {
            let before = state.loads_i64().unwrap().into_owned();
            discrete_round(&k, round, &mut state, &mut scratch);
            let ActivePlan::Sweep { masks, .. } = &k.plan else {
                unreachable!()
            };
            let words = &masks[(round % masks.len() as u64) as usize];
            let mut touched = [false; 4];
            for (e, (u, v)) in g.edges().enumerate() {
                if (words[e >> 6] >> (e & 63)) & 1 == 1 {
                    (touched[u as usize], touched[v as usize]) = (true, true);
                }
            }
            let after = state.loads_i64().unwrap();
            for v in (0..4).filter(|&v| !touched[v]) {
                assert_eq!(
                    after[v], before[v],
                    "round {round}: unmatched node {v} moved"
                );
            }
            assert_ne!(
                after,
                &before[..],
                "round {round}: the active class moved load"
            );
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
        let perturb = PerturbSpec {
            faults,
            ..Default::default()
        };
        let k = kernel(
            &g,
            Scheme::fos(),
            Mode::Discrete(Rounding::nearest()),
            perturb,
        );
        let frozen: Vec<i64> = (0..16).map(|i| i * 3).collect();
        let total: i64 = frozen.iter().sum();
        let mut state = RoundState::new(&k, frozen.clone());
        let mut scratch = RoundScratch::new();
        for round in 0..crate::perturb::EPOCH_LEN {
            discrete_round(&k, round, &mut state, &mut scratch);
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
    /// default, and in every mode its kernel gates each round by the
    /// plan's own active set (none for diffusion, the sweep class, the
    /// random matching) and returns no stale mask.
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
            for mode in [
                Mode::Continuous,
                Mode::Discrete(Rounding::nearest()),
                Mode::Discrete(Rounding::randomized(1)),
            ] {
                let k = kernel(&g, resolved, mode, perturb);
                assert!(k.perturb.is_none(), "{scheme} {mode:?}");
                let mut state = RoundState::<PlainSlots>::new(&k, vec![1; 64]);
                let mut scratch = RoundScratch::new();
                for round in 0..3 {
                    let bufs = state.bufs();
                    let masks =
                        k.prepare(round, &bufs, &mut scratch.matchgen, &mut scratch.perturb);
                    assert!(masks.stale.is_none(), "{scheme} {mode:?}");
                    let active = masks.active.map(<[u64]>::as_ptr);
                    let own = match &k.plan {
                        ActivePlan::All => None,
                        ActivePlan::Sweep { masks, .. } => {
                            Some(masks[round as usize % masks.len()].as_ptr())
                        }
                        ActivePlan::Random { .. } => Some(scratch.matchgen.mask.as_ptr()),
                    };
                    assert_eq!(active, own, "{scheme} {mode:?} round {round}");
                }
            }
        }
    }
}
