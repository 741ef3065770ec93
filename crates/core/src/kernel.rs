//! Division-free fused round kernels over flat structure-of-arrays state.
//!
//! Every phase of a simulation round is expressed here as a pure pass over
//! an index range, parameterized over *what* values it moves and *how*
//! state is read and written:
//!
//! * one [`Value`] trait covers both of the paper's value domains, whole
//!   tokens (`i64`, the discrete process) and fluid (`f64`, the
//!   continuous one). The two processes share one update rule, so the
//!   trait carries only what differs between them: the `f64` view, zero,
//!   the conversion from `f64`, and relaxed-atomic storage (the in-arc
//!   sign `−1` converts through `From<i8>`).
//! * one storage trait, [`Buf`], reads and writes either value type
//!   through one of two views: the sequential executor's [`Cells`], a
//!   zero-cost shared-writable view of a plain slice via
//!   [`std::cell::Cell`], and the persistent worker pool's [`Atomics`],
//!   relaxed atomics. Both executors instantiate the *same* passes.
//!
//! The apply pass ([`apply`], with its stale-edge form [`apply_flows`])
//! exists once for both value types: each node's arc reduction and the
//! fused statistics are written once, and the lane loop and the scalar
//! tail share them. The diffusion edge pass exists once too: one
//! per-edge loop computes edge `e`'s scheduled flow `Ŷ_e` and stores
//! `y(e, Ŷ_e)` into `e`'s flow slot, for a store `y` of the round's mode.
//! The paper gets its discrete schemes by rounding the flow the
//! continuous scheme generates, so a continuous round is a discrete round
//! whose rounding is the identity:
//!
//! * continuous mode stores `Ŷ_e` itself, into the `f64` flows;
//! * an edge-local rounding (round-down, nearest, unbiased per edge)
//!   stores its rounded value, into the integral flows;
//! * the randomized framework's scatter stores the truncation and writes
//!   the fraction on the side (see the streaming pipeline below).
//!
//! The three edge-local roundings are spelled out once, in the
//! crate-internal `with_edge_rounding!` dispatch, which the edge pass and
//! the matching rounds' edge step share; each rounding is its own closure
//! type, so each compiles to its own loop. [`edge_pass_fused`] and
//! [`edge_pass_scatter`] are the all-edges entry points of the rounded
//! and the scatter stores.
//!
//! The edge pass is also generic over *which* edges carry flow, an
//! [`EdgeGate`]: [`AllEdges`] for the diffusion plan, with no mask test
//! in the loop, or [`MaskBits`], which reads a round's active-edge bitset
//! straight from its `&[u64]` words, so the loop has one body for every
//! plan. No pass takes coefficients of its own: each reads the pair held
//! by the [`KernelTables`] it is given, once per call choosing the loop
//! for how the tables store it (one value or one entry per edge).
//!
//! Because both executors run byte-for-byte the same arithmetic in the
//! same per-element order, parallel results are bit-identical to
//! sequential ones by construction — the property `tests/determinism.rs`
//! checks exhaustively.
//!
//! The per-edge work is division-free: [`KernelTables`] computes each
//! edge's coefficient pair `(c_tail, c_head) = (α_e/s_u, α_e/s_v)` at
//! simulator construction (for the pairwise schemes
//! `(λ·s_v/(s_u+s_v), λ·s_u/(s_u+s_v))` instead), so the scheduled-flow
//! pass is a fused multiply–add over the graph's canonical `(u, v)`
//! edges, the coefficients and the flow memory
//! (`Ŷ_e = mem·prev_e + gain·(c_tail·x_u − c_head·x_v)`) instead of the
//! two `f64` divisions per edge the naive form `α_e·(x_u/s_u − x_v/s_v)`
//! costs. A pair every edge shares bit for bit — every regular graph's
//! `α_e/s` pair and every graph's λ-scaled pair under uniform speeds — is
//! stored as that one pair, and the pass reads it from registers;
//! otherwise the tables hold one table per half, one shared table under
//! uniform speeds, where the two halves are the same numbers. The
//! balanced loads are one value in the same way under uniform speeds.
//! The tables own no adjacency: the
//! passes read the CSR arrays of the [`Graph`] clone the tables hold,
//! which shares its arrays with the caller's graph. The CSR stores each
//! edge's head and no tail: the edges of a node's out-range are the ones
//! it is the tail of. So the edge pass walks its edge range node-major,
//! each tail's out-range in turn, reading `x_u` once per node; a range
//! the pool cuts at a 64-edge word can start inside a node's out-range,
//! so the pass finds its first tail once, by one search of the
//! out-offsets. The node passes walk
//! each node's arcs as the CSR stores them, in-arcs then out-arcs: the
//! in-arcs (orientation σ = −1) through their edge ids, the out-arcs
//! (σ = +1) as one contiguous edge range, so no pass reads a sign. An
//! edge-local rounding runs inside the edge pass, saving a full sweep
//! over the edge arrays per round.
//!
//! # The streaming randomized pipeline
//!
//! The paper's randomized rounding framework is node-centric (each node
//! rounds all its outgoing flows together), but every edge has exactly
//! one sender, so a round needs only one fractional part per edge. The
//! framework runs as two streaming phases ahead of the apply pass:
//!
//! 1. The scatter ([`edge_pass_scatter`] over every edge) — the edge
//!    pass's one sweep over edges computes the scheduled
//!    flow `Ŷ_e`, truncates it on the spot (one truncation per edge
//!    instead of one floor per positive arc), writes the signed base
//!    `trunc(Ŷ_e)` straight into the edge's flow slot and the signed
//!    fraction `g_e = Ŷ_e − trunc(Ŷ_e)` into the edge's slot of an
//!    `m`-long buffer: two contiguous stores per edge and no per-edge
//!    select.
//! 2. [`arc_round_streamed`] — one sweep over nodes walks each node's
//!    in-arcs, gathering `g_e` through their edge ids, then its out-arcs,
//!    reading `g_e` straight from the node's contiguous edge range, and
//!    takes its own share `max(σ·g_e, 0)` for the arc's orientation σ
//!    (`−1` on an in-arc, `+1` on an out-arc): the sender's `|g_e|`, the
//!    receiver's `0.0`. It sums the shares to `r`, writing each running
//!    sum once into a reusable prefix buffer, skips nodes with `r = 0` —
//!    the common case away from the diffusion wavefront — and distributes
//!    the `⌈r⌉` excess tokens using per-node RNG streams. Only a sending
//!    node computes its warmed-up state, from the hoisted round key with
//!    one `mix64` (`rng::warmed_state`, instead of key construction plus
//!    a discarded warm-up draw), so the phase keeps no per-node buffer;
//!    each token's draw comes straight off the stream counter
//!    ([`crate::rng::nth_u64`]), so draws are independent `mix64` chains
//!    with no serial dependency, and the target arc is found by a
//!    branchless count of passed prefix sums.
//!
//! The pipeline is bit-identical to the original formulation (golden
//! traces in `tests/golden_trace.rs`, reference-equivalence tests below):
//! each arc's share is exactly the outflow fraction the classic per-node
//! loop computes (a zero share's sign changes no sum or comparison, and a
//! NaN flow leaves NaN at both ends, so neither sends a token), the
//! prefix sums are the same adds in the same order, and the per-node
//! token draws consume the same `(seed, node, round)`-keyed streams.
//!
//! # Matching rounds
//!
//! Dimension exchange and matching balancing activate a matching each
//! round, so a node balances with at most one neighbour. They follow the
//! random-matching model of Ghosh and Muthukrishnan (SPAA 1994) and keep
//! no flow memory, so in every mode their rounds run two crate-internal
//! passes instead of the gated edge pass and the arc walks, which cost
//! `O(m)` and `O(2m)` however few edges are active:
//!
//! 1. The edge step (`pair_edge_step`) visits only the set bits of the
//!    round's active words in a participant's edge chunk, which the pool
//!    cuts at 64-edge word boundaries, in ascending id, so a forward
//!    cursor over the out-offsets ([`sodiff_graph::Tails`]) finds each
//!    active edge's tail. Each active edge computes `Ŷ_e`
//!    through the one scheduled-flow expression, against a memory that
//!    reads `+0.0`, and turns it into its flow as the edge pass does:
//!    fluid keeps it, an edge-local rounding rounds it by the same one
//!    copy, and the randomized framework by the sender's one draw, since
//!    a sender with a single positive share `|g_e| < 1` has `⌈r⌉ = 1`. Unless the edge is stale, it lands the signed flow
//!    `σ·y` in a per-node slot at each endpoint. Nothing is stored per
//!    edge.
//! 2. The node step (`pair_node_step`) applies each node's one landed
//!    flow, `x − (0 + y)` and `x − (0 + max(y, 0))`, and folds the fused
//!    statistics in node order, resetting the slot.
//!
//! The loads are the gated passes' bit for bit, in both value domains.
//! Every edge a node does not balance over carries a `±0.0` or zero
//! flow there, and [`apply`]'s accumulators start at `+0.0`, so adding
//! those changes no sum: its net flow is exactly `+0.0 + σ·y`. A memory
//! term `0·prev_e` can only flip the sign of a zero `Ŷ_e`, which rounds
//! to no token and lands as `+0.0`. Validated inputs keep `Ŷ_e` finite,
//! so no `0·∞` NaN arises on either path.
//!
//! # The SOS memory
//!
//! The memory the paper's SOS process uses — "the amount that was sent
//! in step t−1" — *is* the flow each round leaves in an edge's flow
//! slot, in both modes: the integral flow of a discrete run, the `f64`
//! flow of a continuous one. The edge pass therefore reads it from the
//! slot it is about to overwrite, as `flows[e]` in `f64`
//! ([`FlowsAsMemory`]), and keeps no separate memory: no round phase
//! writes a memory vector, and the framework needs two internal barriers
//! per round under the worker pool. A discrete run's memory becomes an
//! `f64` vector only on request (the simulator's `previous_flows()`
//! accessor and its checkpoint snapshots), by the cast
//! [`prev_from_flows`] performs. Only SOS reads the memory, and only
//! FOS shares its rounds; the pairwise schemes keep none (see the
//! matching rounds above), and their `previous_flows()` read zeros.
//!
//! # Loop shapes, and why they are bit-exact
//!
//! Per-edge work is independent: edge `e` reads only `loads[..]` (not
//! written in this pass), its own flow slot, which holds its memory, its
//! own mask bit under [`MaskBits`], and the constant tables, and writes
//! only that slot and (the framework's scatter) `frac[e]`. So the order
//! in which a pass visits its
//! edges, and whether it reads a tail's load once or once per edge,
//! never changes an operand: every per-edge value is computed by exactly
//! the one expression, on exactly the same operands, and no f64 addition
//! is regrouped anywhere. The edge pass visits its range node-major in
//! edge-id order. An edge-major loop in eight-edge lanes with a
//! forward tail cursor measured slower than the node-major walk on the
//! 256² torus, whether it read the tail's load per edge or kept it per
//! node: the cursor is a serial dependence from lane to lane.
//!
//! The apply pass runs in [`LANES`]-wide chunks of nodes with a scalar
//! tail (the same shape as the bulk RNG sweeps in [`crate::rng`]): a
//! pure *reassociation of instructions, not of arithmetic*. Each node's
//! arc reduction keeps its exact sequential order
//! (in-arcs, then out-arcs) inside its lane, and the fused statistics
//! (`StatsFold::node` and the per-block squared-deviation partials) are
//! folded lane 0..8 in node order, identical to the scalar sequence. Hence all golden-trace
//! checksums are unchanged by construction — the property
//! `tests/golden_trace.rs` pins. The same holds across value types:
//! each [`Value`] operation monomorphizes to the plain `i64` or `f64`
//! operation, so the token pass and the fluid pass each compute exactly
//! what a pass written by hand for that type would. The one loop that
//! must keep its order is [`arc_round_streamed`]'s per-node share sum,
//! whose sequential f64 prefix is itself the pinned quantity: it
//! feeds `⌈r⌉`, and every token compares its draw against the exact
//! running prefix. The prefix is therefore built once per node, in arc
//! order (in-arcs, then out-arcs), and only read by the token loop;
//! regrouping it across lanes would change which arc a token picks (see
//! the comment there).
//!
//! This module is exported `#[doc(hidden)]` so the stand-alone
//! `perfbench` package can time each phase in isolation; it is **not** a
//! stable API.

use std::cell::Cell;
use std::hint::select_unpredictable;
use std::ops::{Add, Div, Mul, Range, Sub};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use sodiff_graph::{EdgeId, Graph, Speeds};

use crate::metrics::DEV_BLOCK;
use crate::rng::{self, SplitMix64};
use crate::rounding::Rounding;

/// Lane width of the chunked kernels (matches [`crate::rng`]'s bulk-sweep
/// width): wide enough to fill 512-bit vectors, small enough that the
/// per-chunk lane arrays always stay in registers.
pub const LANES: usize = 8;

// The apply pass relies on block boundaries only falling at chunk ends.
const _: () = assert!(DEV_BLOCK.is_multiple_of(LANES));

/// Immutable per-simulation tables, owned by the simulation's scheme
/// kernel (which both executors share through one `Arc`): division-free
/// edge coefficients, plus a clone of the [`Graph`] whose CSR the passes
/// read.
///
/// The graph's arrays are shared, not copied ([`Graph`]'s `clone` bumps a
/// reference count), so the tables own only what the graph does not
/// have: the coefficient pair [`Self::coefs`] and the balanced loads
/// [`Self::ideal`]. The randomized framework needs nothing more: its
/// scatter writes one fraction per edge and its rounding phase reads it
/// back through the arc's edge id, which the CSR already holds.
/// The coefficients are the ones the simulation's rounds read: the
/// diffusion `α_e/s` pair that [`Self::new`] builds, or the pairwise
/// schemes' λ-scaled harmonic-speed pair.
///
/// A table whose entries all hold the same `f64` bits is stored as that
/// one value: the coefficient pair of every regular graph under uniform
/// speeds, and of the pairwise schemes on any graph under uniform speeds,
/// and the balanced loads of every uniform-speed run. The passes then
/// read it from a register instead of a stream, with the
/// same operands in the same order, so the bits do not move.
pub struct KernelTables {
    /// Node count.
    pub(crate) n: usize,
    /// Edge count.
    pub m: usize,
    /// The simulated graph (shares the caller's CSR arrays).
    graph: Graph,
    /// The coefficient pair per edge: `(α_e/s_tail, α_e/s_head)` for
    /// diffusion, `(λ·s_head/(s_tail+s_head), λ·s_tail/(s_tail+s_head))`
    /// for the pairwise schemes.
    pub coefs: Coefs,
    /// Per-node speed-proportional balanced load `x̄_i = T·s_i/S`, where
    /// `T` is the total load passed at construction (the conserved
    /// initial total for real simulations). The apply pass reduces load
    /// deviations against it in the same sweep that applies flows, so
    /// stop conditions never pay a separate metrics pass.
    pub ideal: Ideal,
}

/// The per-edge `(c_tail, c_head)` coefficient pair of [`KernelTables`].
#[derive(Debug)]
pub enum Coefs {
    /// Every edge has this pair.
    Same(f64, f64),
    /// One pair per edge, as a tail and a head table; both are one shared
    /// buffer when they hold the same numbers (uniform speeds).
    Each(Arc<[f64]>, Arc<[f64]>),
}

impl Coefs {
    /// Edge `e`'s pair.
    pub fn get(&self, e: usize) -> (f64, f64) {
        match self {
            Self::Same(tail, head) => (*tail, *head),
            Self::Each(tail, head) => (tail[e], head[e]),
        }
    }
}

/// The per-node balanced loads of [`KernelTables`].
#[derive(Debug)]
pub enum Ideal {
    /// Every node has this balanced load.
    Same(f64),
    /// One balanced load per node.
    Each(Box<[f64]>),
}

impl Ideal {
    /// Node `i`'s balanced load.
    pub fn get(&self, i: usize) -> f64 {
        match self {
            Self::Same(x) => *x,
            Self::Each(x) => x[i],
        }
    }
}

/// The one value every item of `values` holds, compared by `bits`, or
/// `None` at the first item that differs (or when there is none). It
/// allocates nothing, so a table is allocated only once it is known to
/// vary.
fn one_value<T: Copy, B: PartialEq>(
    mut values: impl Iterator<Item = T>,
    bits: impl Fn(T) -> B,
) -> Option<T> {
    let first = values.next()?;
    values.all(|v| bits(v) == bits(first)).then_some(first)
}

impl KernelTables {
    /// Builds the diffusion tables for `graph` with the given speeds.
    /// `total_load` seeds the balanced loads [`KernelTables::ideal`]
    /// (pass the initial total; callers that ignore the fused stats may
    /// pass any value).
    ///
    /// The third argument is ignored, whatever its value; it remains only
    /// so that existing callers keep compiling.
    pub fn new(graph: &Graph, speeds: &Speeds, _arc_plan: bool, total_load: f64) -> Self {
        let coefs = coef_pair(graph, speeds, |u, v| {
            let alpha = graph.alpha(u, v);
            (
                alpha / speeds.get(u as usize),
                alpha / speeds.get(v as usize),
            )
        });
        Self::with_coefs(graph, speeds, coefs, total_load)
    }

    /// [`Self::new`] with the coefficient pair `coefs` in place of the
    /// diffusion `α_e/s` pair: the pairwise schemes' λ-scaled pair.
    pub(crate) fn with_coefs(
        graph: &Graph,
        speeds: &Speeds,
        coefs: Coefs,
        total_load: f64,
    ) -> Self {
        let n = graph.node_count();
        // Same per-node expression as `metrics::snapshot_with_total`, so
        // the fused deviations match a from-scratch recompute bit for bit.
        let ideal_of = |i| total_load * speeds.get(i) / speeds.total();
        let ideal = match one_value((0..n).map(ideal_of), f64::to_bits) {
            Some(x) => Ideal::Same(x),
            None => Ideal::Each((0..n).map(ideal_of).collect()),
        };
        Self {
            n,
            m: graph.edge_count(),
            graph: graph.clone(),
            coefs,
            ideal,
        }
    }

    /// The graph the tables were built for.
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Heap bytes the tables own: the per-edge coefficient tables (a
    /// shared buffer counts once) and the per-node balanced loads. A
    /// table stored as one value lives inline and counts nothing. The
    /// graph's CSR is not counted; it is [`Graph::memory_bytes`].
    pub fn memory_bytes(&self) -> usize {
        let coefs = match &self.coefs {
            Coefs::Same(..) => 0,
            Coefs::Each(tail, head) if Arc::ptr_eq(tail, head) => self.m,
            Coefs::Each(..) => 2 * self.m,
        };
        let ideal = match &self.ideal {
            Ideal::Same(_) => 0,
            Ideal::Each(x) => x.len(),
        };
        (coefs + ideal) * std::mem::size_of::<f64>()
    }
}

/// Builds the coefficient pair from `coefs(u, v)` over the canonical
/// edges. A pair every edge shares, bit for bit, is stored as that pair.
/// Otherwise, under uniform speeds every coefficient this crate builds is
/// symmetric in the two endpoint speeds, so both halves are the same
/// `f64` and one table is built and shared; under other speeds the two
/// tables are built separately.
pub(crate) fn coef_pair(
    graph: &Graph,
    speeds: &Speeds,
    coefs: impl Fn(u32, u32) -> (f64, f64),
) -> Coefs {
    let uniform = speeds.is_uniform();
    let pairs = graph.edges().map(|(u, v)| {
        let (tail, head) = coefs(u, v);
        debug_assert!(
            !uniform || tail.to_bits() == head.to_bits(),
            "asymmetric coefficient"
        );
        (tail, head)
    });
    if let Some((tail, head)) = one_value(pairs.clone(), |(t, h)| (t.to_bits(), h.to_bits())) {
        Coefs::Same(tail, head)
    } else if uniform {
        let shared: Arc<[f64]> = pairs.map(|(tail, _)| tail).collect();
        Coefs::Each(Arc::clone(&shared), shared)
    } else {
        let tail = pairs.clone().map(|(tail, _)| tail).collect();
        Coefs::Each(tail, pairs.map(|(_, head)| head).collect())
    }
}

/// A read-only table the passes index by position within their range:
/// a slice, a pair of slices, or one value for every position
/// ([`Repeat`]), which the lane loops then hold in a register.
trait Column: Copy {
    /// One entry.
    type Item: Copy;
    /// The entries at `r`.
    fn slice(self, r: Range<usize>) -> Self;
    /// Entry `k`.
    fn at(self, k: usize) -> Self::Item;
}

/// One value at every position: the [`Column`] view of a table stored as
/// one value.
#[derive(Clone, Copy)]
struct Repeat<T>(T);

impl<T: Copy> Column for Repeat<T> {
    type Item = T;
    #[inline(always)]
    fn slice(self, _r: Range<usize>) -> Self {
        self
    }
    #[inline(always)]
    fn at(self, _k: usize) -> T {
        self.0
    }
}

impl Column for &[f64] {
    type Item = f64;
    #[inline(always)]
    fn slice(self, r: Range<usize>) -> Self {
        &self[r]
    }
    #[inline(always)]
    fn at(self, k: usize) -> f64 {
        self[k]
    }
}

impl Column for (&[f64], &[f64]) {
    type Item = (f64, f64);
    #[inline(always)]
    fn slice(self, r: Range<usize>) -> Self {
        (&self.0[r.clone()], &self.1[r])
    }
    #[inline(always)]
    fn at(self, k: usize) -> (f64, f64) {
        (self.0[k], self.1[k])
    }
}

/// Evaluates `$body` with `$coefs` bound to the coefficient pair of the
/// tables `$t` as a [`Column`]: [`Repeat`] of the one pair, or the two
/// per-edge slices. Each pass dispatches once per call, so each form
/// compiles to its own loop.
macro_rules! with_coefs {
    ($t:expr, |$coefs:ident| $body:expr) => {
        match &$t.coefs {
            Coefs::Same(tail, head) => {
                let $coefs = Repeat((*tail, *head));
                $body
            }
            Coefs::Each(tail, head) => {
                let $coefs = (&tail[..], &head[..]);
                $body
            }
        }
    };
}

/// [`with_coefs!`] for the balanced loads: `$ideal` is [`Repeat`] of the
/// one value or the per-node slice.
macro_rules! with_ideal {
    ($t:expr, |$ideal:ident| $body:expr) => {
        match &$t.ideal {
            Ideal::Same(x) => {
                let $ideal = Repeat(*x);
                $body
            }
            Ideal::Each(x) => {
                let $ideal = &x[..];
                $body
            }
        }
    };
}

/// Per-chunk load statistics fused into the apply pass: the round's
/// minimum transient load plus everything the node-derived half of a
/// [`crate::metrics::MetricsSnapshot`] needs (deviations are measured
/// against [`KernelTables::ideal`]). Sequential executors reduce one
/// whole-range chunk; pool participants reduce their node chunk and the
/// control thread [`LoadStats::merge`]s them in chunk order at the
/// round's final barrier. The min/max fields combine exactly regardless
/// of chunking; the squared-deviation sum is **not** carried per chunk —
/// the apply pass writes per-[`DEV_BLOCK`] partial sums into a shared
/// block buffer and the round driver folds them in block order
/// ([`fold_block_sums`]), so `sum_sq_dev` too is bit-identical for every
/// executor and thread count (see `tests/fused_metrics.rs`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadStats {
    /// Minimum transient load `min_i (x_i − Σ outgoing)` of the chunk.
    pub min_transient: f64,
    /// Minimum post-round load.
    pub min_load: f64,
    /// Maximum post-round deviation `x_i − x̄_i`.
    pub max_dev: f64,
    /// Minimum post-round deviation.
    pub min_dev: f64,
    /// Sum of squared post-round deviations. The apply pass returns
    /// `0.0` here (it emits per-block partials instead); the round
    /// driver fills it from [`fold_block_sums`].
    pub sum_sq_dev: f64,
}

impl LoadStats {
    /// The merge identity (an empty chunk's statistics).
    pub fn identity() -> Self {
        Self {
            min_transient: f64::INFINITY,
            min_load: f64::INFINITY,
            max_dev: f64::NEG_INFINITY,
            min_dev: f64::INFINITY,
            sum_sq_dev: 0.0,
        }
    }

    /// Combines two chunks' statistics (associative; `other` is the
    /// higher-indexed chunk so sequential merge order is well defined).
    pub fn merge(self, other: Self) -> Self {
        Self {
            min_transient: self.min_transient.min(other.min_transient),
            min_load: self.min_load.min(other.min_load),
            max_dev: self.max_dev.max(other.max_dev),
            min_dev: self.min_dev.min(other.min_dev),
            sum_sq_dev: self.sum_sq_dev + other.sum_sq_dev,
        }
    }
}

/// One value domain of the kernels: whole tokens (`i64`) or fluid
/// (`f64`). The discrete and continuous processes share one update rule,
/// so the storage views and the apply pass are written once over this
/// trait, which carries only what differs between the two domains. Each
/// item monomorphizes to the plain per-type operation, so a pass
/// computes for either type exactly what a pass written by hand for
/// that type would.
pub trait Value:
    Copy
    + PartialOrd
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + From<i8>
{
    /// Relaxed-atomic storage of one value: `AtomicI64`, or `AtomicU64`
    /// holding the `f64` bits.
    type Atomic: Send + Sync;
    /// Zero (`+0.0` for fluid).
    const ZERO: Self;
    /// Whether values are whole tokens.
    const INTEGRAL: bool;
    /// The value as `f64`.
    fn to_f64(self) -> f64;
    /// `x` as a value, truncated toward zero for tokens.
    fn from_f64(x: f64) -> Self;
    /// A relaxed atomic holding `self`.
    fn atomic(self) -> Self::Atomic;
    /// Reads a relaxed atomic.
    fn load(a: &Self::Atomic) -> Self;
    /// Writes a relaxed atomic.
    fn store(a: &Self::Atomic, v: Self);
}

impl Value for i64 {
    type Atomic = AtomicI64;
    const ZERO: i64 = 0;
    const INTEGRAL: bool = true;
    fn to_f64(self) -> f64 {
        self as f64
    }
    fn from_f64(x: f64) -> i64 {
        x as i64
    }
    fn atomic(self) -> AtomicI64 {
        AtomicI64::new(self)
    }
    fn load(a: &AtomicI64) -> i64 {
        a.load(Relaxed)
    }
    fn store(a: &AtomicI64, v: i64) {
        a.store(v, Relaxed);
    }
}

impl Value for f64 {
    type Atomic = AtomicU64;
    const ZERO: f64 = 0.0;
    const INTEGRAL: bool = false;
    fn to_f64(self) -> f64 {
        self
    }
    fn from_f64(x: f64) -> f64 {
        x
    }
    fn atomic(self) -> AtomicU64 {
        AtomicU64::new(self.to_bits())
    }
    fn load(a: &AtomicU64) -> f64 {
        f64::from_bits(a.load(Relaxed))
    }
    fn store(a: &AtomicU64, v: f64) {
        a.store(v.to_bits(), Relaxed);
    }
}

/// Shared-writable storage of one [`Value`] type: a `Cell` view of a
/// plain slice ([`Cells`], the sequential executor) or relaxed atomics
/// ([`Atomics`], the worker pool) behind one interface.
///
/// The element slice is exposed so hot loops can zip a sub-range and let
/// the compiler elide per-element bounds checks; `get`/`set` cover random
/// access.
pub trait Buf {
    /// The stored value type.
    type Val: Value;
    /// Storage element (`Cell<Val>` or `Val::Atomic`).
    type Elem;
    /// The backing elements.
    fn elems(&self) -> &[Self::Elem];
    /// Reads one element.
    fn read(e: &Self::Elem) -> Self::Val;
    /// Writes one element.
    fn write(e: &Self::Elem, v: Self::Val);
    /// Reads element `i`.
    #[inline(always)]
    fn get(&self, i: usize) -> Self::Val {
        Self::read(&self.elems()[i])
    }
    /// Writes element `i`.
    #[inline(always)]
    fn set(&self, i: usize, v: Self::Val) {
        Self::write(&self.elems()[i], v);
    }
}

/// [`Buf`] over a plain slice via `Cell` (single-threaded).
pub struct Cells<'a, V>(pub &'a [Cell<V>]);

/// [`Buf`] over relaxed atomics (worker pool).
pub struct Atomics<'a, V: Value>(pub &'a [V::Atomic]);

impl<V: Value> Buf for Cells<'_, V> {
    type Val = V;
    type Elem = Cell<V>;
    #[inline(always)]
    fn elems(&self) -> &[Cell<V>] {
        self.0
    }
    #[inline(always)]
    fn read(e: &Cell<V>) -> V {
        e.get()
    }
    #[inline(always)]
    fn write(e: &Cell<V>, v: V) {
        e.set(v);
    }
}

impl<V: Value> Buf for Atomics<'_, V> {
    type Val = V;
    type Elem = V::Atomic;
    #[inline(always)]
    fn elems(&self) -> &[V::Atomic] {
        self.0
    }
    #[inline(always)]
    fn read(e: &V::Atomic) -> V {
        V::load(e)
    }
    #[inline(always)]
    fn write(e: &V::Atomic, v: V) {
        V::store(e, v);
    }
}

/// Shared-writable view of a mutable slice.
pub fn cells<V>(s: &mut [V]) -> Cells<'_, V> {
    Cells(Cell::from_mut(s).as_slice_of_cells())
}

// The per-type names the stand-alone `perfbench` package calls.
pub use self::{apply as apply_discrete, cells as cells_f64, cells as cells_i64};

/// A diffusion run's SOS memory: an `f64` view of the flows, where edge
/// `e`'s memory is `flows[e]` as `f64`. For fluid that is the flow
/// itself; for tokens it is bit for bit what a stored `f64` copy of the
/// last flows would hold (an `i64 → f64` cast never yields `-0.0`). So
/// the flow slot *is* the memory in both modes and no per-edge copy is
/// kept. Writes are no-ops: the edge pass updates the memory by writing
/// the new flow.
pub struct FlowsAsMemory<'a, F>(pub &'a F);

impl<F: Buf> Buf for FlowsAsMemory<'_, F> {
    type Val = f64;
    type Elem = F::Elem;
    #[inline(always)]
    fn elems(&self) -> &[F::Elem] {
        self.0.elems()
    }
    #[inline(always)]
    fn read(e: &F::Elem) -> f64 {
        F::read(e).to_f64()
    }
    #[inline(always)]
    fn write(_e: &F::Elem, _v: f64) {}
}

/// `s.trunc() as i64` without the libm call: the `f64 → i64` cast *is*
/// truncation toward zero (`cvttsd2si`), with the same saturating
/// overflow/NaN behavior as trunc-then-cast.
#[inline(always)]
pub(crate) fn trunc_i64(s: f64) -> i64 {
    s as i64
}

/// `s.round() as i64` (half away from zero) without the libm call.
///
/// Exact: `s − trunc(s)` is computed without rounding error (Sterbenz for
/// `|s| ≥ 1`, trivially for `|s| < 1`), so the half-comparison sees the
/// true fractional part — including boundary cases like
/// `0.49999999999999994` that the naive `(s + 0.5).trunc()` gets wrong.
/// The adjustment saturates so `|s| ≥ 2⁶³` keeps the cast's saturating
/// behavior instead of wrapping.
#[inline(always)]
pub(crate) fn round_i64(s: f64) -> i64 {
    let t = s as i64;
    let frac = s - t as f64;
    t.saturating_add(i64::from(frac >= 0.5))
        .saturating_sub(i64::from(frac <= -0.5))
}

/// `s.floor()` and the exact fractional part `s − ⌊s⌋`, without libm
/// (saturating at the `i64` range like the cast itself).
#[inline(always)]
fn floor_frac(s: f64) -> (i64, f64) {
    let t = s as i64;
    let f = t.saturating_sub(i64::from((t as f64) > s));
    (f, s - f as f64)
}

/// Edge `e`'s unbiased rounding of `s` in `round`: `⌊s⌋ + 1` with
/// probability `s − ⌊s⌋`, drawn from the edge's `(seed, e, round)` stream.
#[inline(always)]
pub(crate) fn unbiased_edge(seed: u64, e: usize, round: u64, s: f64) -> i64 {
    let mut rng = SplitMix64::for_node_round(seed, e as u32, round);
    let (floor, frac) = floor_frac(s);
    floor + i64::from(rng.next_f64() < frac)
}

/// Evaluates `$body` with `$y` bound to the edge-local rounding
/// `$rounding` in round `$round`: a closure from an edge's global id and
/// its scheduled flow `s` to its integral flow. Round-down truncates `s`,
/// nearest rounds it half away from zero, and the unbiased rounding adds
/// the edge's coin to `⌊s⌋`. This is the one place the three are spelled
/// out, for the edge pass and the matching rounds' edge step alike. Each
/// is its own closure type, so a loop in `$body` compiles once per
/// rounding. The randomized framework is node-centric, not edge-local:
/// for it the macro evaluates `$framework`, with `$seed` bound to its
/// seed.
macro_rules! with_edge_rounding {
    ($rounding:expr, $round:expr, |$y:ident| $body:expr, |$seed:pat_param| $framework:expr) => {
        match $rounding {
            $crate::rounding::Rounding::RoundDown => {
                let $y = |_: usize, s: f64| $crate::kernel::trunc_i64(s);
                $body
            }
            $crate::rounding::Rounding::Nearest => {
                let $y = |_: usize, s: f64| $crate::kernel::round_i64(s);
                $body
            }
            $crate::rounding::Rounding::UnbiasedEdge { seed } => {
                let round: u64 = $round;
                let $y = move |e: usize, s: f64| $crate::kernel::unbiased_edge(seed, e, round, s);
                $body
            }
            $crate::rounding::Rounding::RandomizedFramework { seed: $seed } => $framework,
        }
    };
}
pub(crate) use with_edge_rounding;

/// `r.ceil() as i64` for `r ≥ 0`, without libm (saturating).
#[inline(always)]
fn ceil_i64(r: f64) -> i64 {
    let t = r as i64;
    t.saturating_add(i64::from((t as f64) < r))
}

/// Bit `e` of the bitset `words` (bit `e % 64` of word `e / 64`) as `0`
/// or `1`.
#[inline(always)]
fn bit(words: &[u64], e: usize) -> u64 {
    (words[e >> 6] >> (e & 63)) & 1
}

/// Which edges an edge pass lets carry flow, applied to each edge's
/// scheduled flow and dispatched statically, so each gate compiles to
/// its own loop.
pub trait EdgeGate {
    /// Edge `e`'s scheduled flow `s` after the gate.
    fn gate(&self, e: usize, s: f64) -> f64;
}

/// Every edge is active: the scheduled flow passes unchanged, with no
/// mask test in the loop (the diffusion plan).
pub struct AllEdges;

impl EdgeGate for AllEdges {
    #[inline(always)]
    fn gate(&self, _e: usize, s: f64) -> f64 {
        s
    }
}

/// Only the edges whose bit is set are active: the scheduled flow is
/// multiplied by the edge's bit (one bit load per edge, no branch), so
/// an inactive edge rounds to a zero flow, writes a zero fraction and
/// leaves its endpoints untouched. The bit is indexed by the global edge
/// id, so any split of the edge range reads the same bits.
pub struct MaskBits<'a>(pub &'a [u64]);

impl EdgeGate for MaskBits<'_> {
    #[inline(always)]
    fn gate(&self, e: usize, s: f64) -> f64 {
        bit(self.0, e) as f64 * s
    }
}

/// The scheduled-flow operands of one edge range, sliced once: the
/// heads, the coefficient pair and the flow memory, plus the out-offsets
/// and the first edge's tail (the tails are derived from them), and the
/// round's gate, scalars and load reader.
struct Schedule<'a, G, M: Buf, X, C> {
    gate: &'a G,
    x: &'a X,
    mem: f64,
    gain: f64,
    /// Global id of local edge 0 (the gate indexes bits by global id).
    e0: usize,
    /// The graph's out-offsets: node `u`'s out-arcs are the edges
    /// `out_offsets[u]..out_offsets[u + 1]`.
    out_offsets: &'a [u32],
    /// The tail of local edge 0 (`0` for an empty range).
    tail0: usize,
    heads: &'a [u32],
    coefs: C,
    memory: &'a [M::Elem],
}

impl<'a, G, M, X, C> Schedule<'a, G, M, X, C>
where
    G: EdgeGate,
    M: Buf<Val = f64>,
    X: Fn(usize) -> f64,
    C: Column<Item = (f64, f64)>,
{
    /// The schedule over the edges `edges` of `t`, whose coefficient
    /// pair is `coefs` ([`with_coefs!`]). A range may start inside a
    /// node's out-range (the pool cuts edge chunks at 64-edge words), so
    /// its first tail is found once, by one search.
    #[allow(clippy::too_many_arguments)] // the operands of one flow expression
    fn new(
        t: &'a KernelTables,
        coefs: C,
        gate: &'a G,
        edges: Range<usize>,
        mem: f64,
        gain: f64,
        x: &'a X,
        memory: &'a M,
    ) -> Self {
        let graph = t.graph();
        let tail0 = if edges.is_empty() {
            0
        } else {
            graph.tail(edges.start as EdgeId) as usize
        };
        Self {
            gate,
            x,
            mem,
            gain,
            e0: edges.start,
            out_offsets: graph.out_offsets(),
            tail0,
            heads: &graph.heads()[edges.clone()],
            coefs: coefs.slice(edges.clone()),
            memory: &memory.elems()[edges],
        }
    }

    /// Local edge `k`'s gated scheduled flow
    /// `Ŷ_e = mem·prev_e + gain·(c_tail·x_u − c_head·x_v)`, given its
    /// tail's load `x_u`: the one place the passes compute it.
    #[inline(always)]
    fn flow(&self, k: usize, x_u: f64) -> f64 {
        let (ct, ch) = self.coefs.at(k);
        let x_v = (self.x)(self.heads[k] as usize);
        self.gate.gate(
            self.e0 + k,
            self.mem * M::read(&self.memory[k]) + self.gain * (ct * x_u - ch * x_v),
        )
    }

    /// The one per-edge loop: stores `y(e, Ŷ_e)` into each edge `e`'s
    /// slot of `flows`. The range is walked node-major, each tail's
    /// out-range in turn, with one load read per tail; nodes without an
    /// out-arc in the range are stepped over.
    #[inline(always)]
    fn store<F: Buf>(&self, flows: &F, y: impl Fn(usize, f64) -> F::Val) {
        let (e0, len) = (self.e0, self.heads.len());
        let slots = &flows.elems()[e0..e0 + len];
        // Every local range the walk yields ends at or below `len`, so
        // this length lets the compiler drop the per-edge bounds checks.
        assert!(self.memory.len() == len);
        let (mut u, mut start) = (self.tail0, 0);
        while start < len {
            let end = (self.out_offsets[u + 1] as usize - e0).min(len);
            if end > start {
                let x_u = (self.x)(u);
                // Indexed, not zipped: `k` indexes every operand of the
                // flow too, and the zipped loop measured slower.
                #[allow(clippy::needless_range_loop)]
                for k in start..end {
                    F::write(&slots[k], y(e0 + k, self.flow(k, x_u)));
                }
            }
            (u, start) = (u + 1, end);
        }
    }
}

/// The diffusion edge pass over `edges`, gated by `gate`: stores
/// `y(e, Ŷ_e)` into each edge's slot of `flows`, where `Ŷ_e` (see the
/// module docs) reads its memory from that slot ([`FlowsAsMemory`]).
/// `y` is the mode's store: the identity into the `f64` flows, an
/// edge-local rounding (`with_edge_rounding!`) or the framework's
/// scatter ([`scatter`]) into the integral flows.
#[allow(clippy::too_many_arguments)] // a flat hot-path kernel; a params struct would obscure it
pub(crate) fn edge_pass<G: EdgeGate, F: Buf>(
    t: &KernelTables,
    gate: &G,
    edges: Range<usize>,
    mem: f64,
    gain: f64,
    x: impl Fn(usize) -> f64,
    flows: &F,
    y: impl Fn(usize, f64) -> F::Val,
) {
    let memory = &FlowsAsMemory(flows);
    with_coefs!(t, |coefs| {
        Schedule::new(t, coefs, gate, edges.clone(), mem, gain, &x, memory).store(flows, &y)
    })
}

/// The randomized framework's store for the edge pass: the signed base
/// flow `trunc(Ŷ_e)`, with the signed fraction `Ŷ_e − trunc(Ŷ_e)`
/// written into edge `e`'s slot of `frac` on the side.
///
/// `trunc(Ŷ) = sign·⌊|Ŷ|⌋` *is* the signed base flow, and `Ŷ − trunc(Ŷ)`
/// is exact (Sterbenz for `|Ŷ| ≥ 1`, trivially below), so one saturating
/// cast replaces the abs/floor/sign chain. Which end sends is left to the
/// rounding phase: the fraction's sign says it, with no per-edge select
/// here.
#[inline(always)]
pub(crate) fn scatter<A: Buf<Val = f64>>(frac: &A) -> impl Fn(usize, f64) -> i64 + '_ {
    let fracs = frac.elems();
    move |e, s| {
        let base = trunc_i64(s);
        A::write(&fracs[e], s - base as f64);
        base
    }
}

/// What the SOS memory of a discrete run remembers. It has one value:
/// the integral flow sent in the previous round, "the amount that was
/// sent in step t−1". The all-edges [`edge_pass_fused`] and
/// [`edge_pass_scatter`] wrappers accept it, and ignore it, so that
/// their callers outside this crate keep compiling.
#[derive(Debug, Clone, Copy)]
pub enum FlowMemory {
    /// The integral flow sent in the previous round.
    Rounded,
}

/// The edge pass over every edge with an **edge-local** rounding:
/// computes the scheduled flow `Ŷ_e` (see the module docs) from the SOS
/// memory, which is the flow slot itself ([`FlowsAsMemory`]), and rounds
/// it into that slot, all in one sweep over `edges`. `_flow_memory` and
/// `_prev` are ignored.
///
/// # Panics
///
/// Panics for [`Rounding::RandomizedFramework`], which is node-centric and
/// runs through [`edge_pass_scatter`] → [`arc_round_streamed`].
#[allow(clippy::too_many_arguments)] // a flat hot-path kernel; a params struct would obscure it
pub fn edge_pass_fused<P: Buf<Val = f64>, F: Buf<Val = i64>>(
    t: &KernelTables,
    edges: Range<usize>,
    mem: f64,
    gain: f64,
    round: u64,
    rounding: Rounding,
    _flow_memory: FlowMemory,
    x: impl Fn(usize) -> f64,
    _prev: &P,
    flows: &F,
) {
    with_edge_rounding!(
        rounding,
        round,
        |y| edge_pass(t, &AllEdges, edges, mem, gain, x, flows, y),
        |_| panic!("the randomized framework is node-centric; use the arc passes")
    )
}

/// Phase 1 of the randomized framework, over every edge: the edge pass
/// with the framework's scatter store. It computes the scheduled flow `Ŷ_e` from
/// the SOS memory, which is the flow slot itself ([`FlowsAsMemory`]),
/// **truncates it right here** (the sending side's outflow is `|Ŷ_e|`
/// and its floor is the edge's base flow, so the per-arc floor pass of
/// the old formulation collapses into this per-edge one), writes the
/// signed base `trunc(Ŷ_e)` into the edge's flow slot and the signed
/// fraction `Ŷ_e − trunc(Ŷ_e)` into the edge's slot of `frac`. The
/// fraction's sign names the sender (positive: the tail; negative: the
/// head), so the node-centric rounding phase derives each arc's share
/// from it. A gated-out edge writes a zero base flow and a zero
/// fraction, so a node whose arcs are all inactive sums `r = 0` there
/// and skips out. `_flow_memory` and `_prev` are ignored.
///
/// `frac` is indexed by edge id; a longer buffer (such as one sized by
/// arc count) is accepted and its tail left alone.
#[allow(clippy::too_many_arguments)] // a flat hot-path kernel; a params struct would obscure it
pub fn edge_pass_scatter<A: Buf<Val = f64>, F: Buf<Val = i64>, P: Buf<Val = f64>>(
    t: &KernelTables,
    edges: Range<usize>,
    mem: f64,
    gain: f64,
    _flow_memory: FlowMemory,
    x: impl Fn(usize) -> f64,
    frac: &A,
    flows: &F,
    _prev: &P,
) {
    edge_pass(t, &AllEdges, edges, mem, gain, x, flows, scatter(frac));
}

/// Reusable per-participant scratch of the randomized framework's
/// rounding phase: one node's prefix sums of its arcs' fractions. It
/// grows to the largest degree seen and is then reused; nothing in it is
/// per node.
#[derive(Default)]
pub struct FwScratch {
    prefix: Vec<f64>,
}

impl FwScratch {
    /// An empty scratch (buffers grow on first use and are then reused).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Phase 2 of the randomized framework: node-centric excess-token
/// distribution over `nodes` (paper Section III-B). Phase 1 already wrote
/// every edge's truncated base flow and its signed fraction `g_e` into
/// `frac` (indexed by edge id; a longer buffer is accepted). Each node
/// walks its arcs — its in-arcs through their edge ids, then its
/// out-arcs, one contiguous edge range — and takes its own share
/// `max(σ·g_e, 0)`, σ the arc's orientation (`−1` on an in-arc, `+1` on
/// an out-arc): the sender gets `|g_e|` and the receiver `0.0`, the
/// classic positive-outflow fraction.
/// It sums the shares to `r`, writing each running sum into
/// `scratch.prefix`, skips out when `r == 0` — the common case away from
/// the diffusion wavefront — and otherwise sends `⌈r⌉` excess tokens:
/// each token picks the first arc whose prefix sum exceeds its draw, via
/// a branchless count of passed prefix sums (zero-share arcs can never be
/// selected), and increments that edge's flow. Exactly one endpoint of an
/// edge has a positive share of it, so flow slots have one writer.
///
/// The per-node random streams are keyed by `(seed, node, round)` — so
/// the result is independent of chunking. A sending node's warmed-up
/// state is computed only after its `r == 0` skip, from the hoisted
/// round key (one `mix64`, the warm-up discard fused into the key mix),
/// and the `k`-th token draw is computed directly from the stream counter
/// ([`crate::rng::nth_u64`]), so successive draws have no serial RNG
/// dependency. Draw-for-draw identical to [`SplitMix64::for_node_round`].
pub fn arc_round_streamed<A: Buf<Val = f64>, F: Buf<Val = i64>>(
    t: &KernelTables,
    nodes: Range<usize>,
    seed: u64,
    round: u64,
    frac: &A,
    flows: &F,
    scratch: &mut FwScratch,
) {
    let FwScratch { prefix } = scratch;
    let graph = t.graph();
    let round_key = rng::round_key(seed, round);
    let fracs = frac.elems();
    let share = |x: f64| select_unpredictable(x <= 0.0, 0.0, x);
    // Walk the chunk's arcs by splitting a running slice of its in-arcs
    // instead of re-slicing from the offsets per node: one length
    // computation and one `split_at` per node, no repeated global-range
    // checks. The out-arcs are each node's edge range.
    let in_offsets = &graph.in_offsets()[nodes.start..=nodes.end];
    let out_offsets = &graph.out_offsets()[nodes.start..=nodes.end];
    let chunk_ins = in_offsets[0] as usize..in_offsets[in_offsets.len() - 1] as usize;
    let all_ins = graph.in_edge_ids();
    let mut ins_rest = &all_ins[chunk_ins];
    let bounds = in_offsets.windows(2).zip(out_offsets.windows(2));
    for (node, (i, o)) in nodes.zip(bounds) {
        let (ins, rest) = ins_rest.split_at((i[1] - i[0]) as usize);
        ins_rest = rest;
        let outs = &fracs[o[0] as usize..o[1] as usize];
        let deg = ins.len() + outs.len();
        if prefix.len() < deg {
            prefix.resize(deg, 0.0);
        }
        let prefix = &mut prefix[..deg];
        // Why the share sum and the prefix-count selection below stay
        // scalar while the RNG sweeps are lane-chunked: both reduce a
        // *sequential* f64 prefix whose per-element bit pattern is pinned
        // by the golden traces — `r` feeds `⌈r⌉` and every token compares
        // its draw against the exact running prefix, so any lane-split
        // regrouping of these sums changes which arc a token picks. The
        // prefix is written once here and only compared against per
        // token: the same adds in the same order as re-summing it.
        let mut r = 0.0f64;
        // `first` ends up as the index of the node's first positive-share
        // arc: the number of leading arcs whose cumulative sum is still
        // zero. It serves as the race-safe target of masked-out token
        // stores below (this node sends on it, so no other participant
        // ever writes that edge).
        let mut first = 0usize;
        // The arc's share `max(σ·g_e, 0)` is branchless: on an in-arc
        // `σ·g_e` is the exact negation of `g_e`, a sign-bit flip, and
        // the select keeps it only where positive. The sign of a zero
        // share changes no sum or comparison, and a NaN fraction stays
        // NaN at both ends, so neither sends a token.
        let (in_prefix, out_prefix) = prefix.split_at_mut(ins.len());
        for (p, &e) in in_prefix.iter_mut().zip(ins) {
            r += share(-A::read(&fracs[e as usize]));
            *p = r;
            first += usize::from(r == 0.0);
        }
        for (p, g) in out_prefix.iter_mut().zip(outs) {
            r += share(A::read(g));
            *p = r;
            first += usize::from(r == 0.0);
        }
        if r == 0.0 {
            continue;
        }
        let tokens = ceil_i64(r);
        if tokens <= 0 {
            // `r` can only be NaN here if a scheduled flow was NaN; the
            // old formulation sent no tokens for such nodes either.
            continue;
        }
        let state = rng::warmed_state(round_key, node as u64);
        let denom = tokens as f64;
        for k in 0..tokens as u64 {
            // P(arc j) = share_j / ⌈r⌉; P(stay) = 1 − r/⌈r⌉. The draw is
            // computed from the stream counter (`nth_u64`), so successive
            // tokens have no serial RNG dependency; the target arc is the
            // branchless count of passed prefix sums (a selected arc
            // always has a positive share, so this node owns its edge);
            // and a "stay" token degenerates to adding `0` to the first
            // sending arc's edge instead of a mispredict-prone skip.
            let u = rng::unit_f64(rng::nth_u64(state, k)) * denom;
            let sel: usize = prefix.iter().map(|&cum| usize::from(u >= cum)).sum();
            let sent = sel < deg;
            let j = if sent { sel } else { first };
            // Arc `j` is an in-arc (σ = −1) through its edge id, or an
            // out-arc (σ = +1) at its offset in the node's edge range.
            // Which one a token takes is a coin flip, so both ids are
            // formed and one kept, branch-free: for an out-arc the in-arc
            // read lands on a later node's in-arc (clamped to the array;
            // a sending node has an arc, so the array is not empty).
            let in_arc = j < ins.len();
            let in_e = all_ins[(i[0] as usize + j).min(all_ins.len() - 1)];
            let out_e = o[0].wrapping_add(j.wrapping_sub(ins.len()) as u32);
            let e = select_unpredictable(in_arc, in_e, out_e);
            let sign = 1 - 2 * i64::from(in_arc);
            let fe = &flows.elems()[e as usize];
            F::write(fe, F::read(fe) + sign * i64::from(sent));
        }
    }
}

/// Materializes a discrete run's SOS memory: a pure zipped
/// sweep copying the integral flows into `prev`. No round phase runs
/// it — the edge passes read the memory straight from the flows
/// ([`FlowsAsMemory`]); it is the kernel form of the cast the round
/// state makes when the simulator's accessors and checkpoint snapshots
/// ask for the memory.
pub fn prev_from_flows<F: Buf<Val = i64>, P: Buf<Val = f64>>(
    edges: Range<usize>,
    flows: &F,
    prev: &P,
) {
    let flow_elems = &flows.elems()[edges.clone()];
    let prevs = &prev.elems()[edges];
    for (fe, pe) in flow_elems.iter().zip(prevs) {
        P::write(pe, F::read(fe) as f64);
    }
}

/// Number of [`DEV_BLOCK`]-node potential blocks over `n` nodes: the
/// length of the block-partial buffer the apply pass writes.
pub fn dev_blocks(n: usize) -> usize {
    n.div_ceil(DEV_BLOCK)
}

/// Folds the first `blocks` per-block squared-deviation partials in
/// block order. Shared by the sequential executor, the pool's control
/// thread, and (structurally) `metrics::snapshot_with_total`, so the
/// potential's summation order never depends on the executor.
pub fn fold_block_sums(blocks: usize, sums: &impl Buf<Val = f64>) -> f64 {
    let mut total = 0.0;
    for b in 0..blocks {
        total += sums.get(b);
    }
    total
}

/// The apply pass's running statistics: the chunk's [`LoadStats`] and
/// the squared-deviation partial of the current potential block.
struct StatsFold {
    stats: LoadStats,
    block: f64,
}

impl StatsFold {
    /// Folds one node's post-round `load` and `transient` load.
    ///
    /// Compare-and-assign instead of `f64::min`/`f64::max`: the updates
    /// are rare once the extrema stabilize, so these are four
    /// well-predicted branches per node, not four IEEE min/max µop
    /// sequences (measured ~0.7 ns/edge cheaper on the 256×256 SOS
    /// nearest case). `metrics::snapshot_with_total` reduces with the
    /// same comparisons, keeping the fused and from-scratch snapshots
    /// bit-identical (NaNs lose every comparison on both paths alike).
    #[inline(always)]
    fn node(&mut self, load: f64, ideal: f64, transient: f64) {
        let (dev, st) = (load - ideal, &mut self.stats);
        if transient < st.min_transient {
            st.min_transient = transient;
        }
        if load < st.min_load {
            st.min_load = load;
        }
        if dev > st.max_dev {
            st.max_dev = dev;
        }
        if dev < st.min_dev {
            st.min_dev = dev;
        }
        self.block += dev * dev;
    }

    /// Stores the block partial into `sums` if global node `end − 1`
    /// closes a [`DEV_BLOCK`] or the chunk (`end == last`).
    #[inline(always)]
    fn close(&mut self, end: usize, last: usize, sums: &impl Buf<Val = f64>) {
        if end.is_multiple_of(DEV_BLOCK) || end == last {
            sums.set((end - 1) / DEV_BLOCK, self.block);
            self.block = 0.0;
        }
    }
}

/// Node-centric application of this round's `flows` to `nodes`, over
/// whole tokens or fluid alike. Each node sums its arcs' signed flows in
/// arc order, in-arcs then out-arcs: `−y_e` over its in-arcs, read
/// through their edge ids, then `+y_e` over its out-arcs, one contiguous
/// edge range. It returns the chunk's fused [`LoadStats`] —
/// the minimum transient load `min_i (x_i − Σ outgoing)` plus the
/// post-round min/max/deviation reduction against
/// [`KernelTables::ideal`] — computed in the same sweep, so stop
/// conditions never pay a separate `O(n)` metrics pass.
/// Per-[`DEV_BLOCK`] squared-deviation partials go to `block_sums`
/// (indexed by global block id `i / DEV_BLOCK`); `nodes.start` must be
/// block-aligned so each block has exactly one writer — the pool aligns
/// its node chunks to guarantee it.
pub fn apply<L: Buf>(
    t: &KernelTables,
    nodes: Range<usize>,
    flows: impl Fn(usize) -> L::Val,
    loads: &L,
    block_sums: &impl Buf<Val = f64>,
) -> LoadStats {
    with_ideal!(t, |ideal| apply_over(
        t, ideal, nodes, flows, loads, block_sums
    ))
}

/// [`apply`] against the balanced loads `ideal` ([`with_ideal!`]).
fn apply_over<L: Buf>(
    t: &KernelTables,
    ideal: impl Column<Item = f64>,
    nodes: Range<usize>,
    flows: impl Fn(usize) -> L::Val,
    loads: &L,
    block_sums: &impl Buf<Val = f64>,
) -> LoadStats {
    debug_assert!(
        nodes.start.is_multiple_of(DEV_BLOCK),
        "chunk must be block-aligned"
    );
    let zero = L::Val::ZERO;
    // Walk the chunk's in-arcs by splitting a running slice (as
    // `arc_round_streamed` does) and zip the per-node tables, so the
    // inner loops carry no repeated global-range bounds checks.
    let graph = t.graph();
    let in_off = &graph.in_offsets()[nodes.start..=nodes.end];
    let out_off = &graph.out_offsets()[nodes.start..=nodes.end];
    let mut ins_rest = &graph.in_edge_ids()[in_off[0] as usize..in_off[nodes.len()] as usize];
    let ideals = ideal.slice(nodes.clone());
    let load_elems = &loads.elems()[nodes.clone()];
    // Local node `k`'s arc reduction, in its exact sequential arc order,
    // in-arcs (σ = −1) then out-arcs (σ = +1): its new load `x − Σ y` and
    // its transient load `x − Σ max(y, 0)`. Nodes are reduced in order,
    // as the running in-arc slice requires.
    // A macro, not a closure, so that every use is inline: LLVM outlined
    // the closure's stale-flow instance, one call per node (+8% per
    // round on a 5%-stale run).
    macro_rules! reduce {
        ($k:expr) => {{
            let k: usize = $k;
            let (ins, rest) = ins_rest.split_at((in_off[k + 1] - in_off[k]) as usize);
            ins_rest = rest;
            let outs = out_off[k] as usize..out_off[k + 1] as usize;
            let (mut outgoing, mut net) = (zero, zero);
            // The positive part, branchless: flow direction is essentially
            // random mid-run, so a `y > 0` branch would mispredict about
            // half the time. The select, hinted as unpredictable,
            // compiles to a conditional move (tokens) or `maxsd` (fluid)
            // in every instance (a plain `if` became a branch in the
            // stale-flow ones) and yields exactly `y` or zero;
            // a fluid accumulator that starts at `+0.0` and only adds
            // these is never `-0.0`, so `acc + 0.0 == acc` bit for bit:
            // identical to skipping non-positive `y`, NaN included.
            for &e in ins {
                let y = flows(e as usize) * L::Val::from(-1);
                outgoing = outgoing + select_unpredictable(y > zero, y, zero);
                net = net + y;
            }
            for e in outs {
                let y = flows(e);
                outgoing = outgoing + select_unpredictable(y > zero, y, zero);
                net = net + y;
            }
            let x = L::read(&load_elems[k]);
            (x - net, x - outgoing)
        }};
    }
    let mut fold = StatsFold {
        stats: LoadStats::identity(),
        block: 0.0,
    };
    let (start, last) = (nodes.start, nodes.end);
    let len = nodes.len();
    let main = len - len % LANES;
    // 8-node chunks: lane 1 runs each node's arc reduction and stages the
    // results; lane 2 folds the fused statistics in lane (= node) order,
    // identical to the scalar sequence. `nodes.start` is block-aligned
    // and `DEV_BLOCK` is a multiple of `LANES`, so a potential-block
    // boundary (or `last` on a full chunk) can only fall at a chunk end —
    // checked once per chunk.
    for k0 in (0..main).step_by(LANES) {
        let mut news = [zero; LANES];
        let mut transients = [zero; LANES];
        for l in 0..LANES {
            (news[l], transients[l]) = reduce!(k0 + l);
        }
        for l in 0..LANES {
            fold.node(news[l].to_f64(), ideals.at(k0 + l), transients[l].to_f64());
            L::write(&load_elems[k0 + l], news[l]);
        }
        fold.close(start + k0 + LANES, last, block_sums);
    }
    for k in main..len {
        let (new, transient) = reduce!(k);
        fold.node(new.to_f64(), ideals.at(k), transient.to_f64());
        fold.close(start + k + 1, last, block_sums);
        L::write(&load_elems[k], new);
    }
    fold.stats
}

/// [`apply`] with the round's `flows` read from their buffer, where the
/// edges set in `stale` land nothing: such an edge applies as zero. The
/// stale step is a select, not a product — for fluid, `0·y` is NaN
/// when `y` is infinite or NaN and `−0.0` when `y < 0` — and a
/// branchless one: as a plain `if`, LLVM branched on the stale bit and
/// then on the positive part, +9% per round on a 5%-stale token run.
pub fn apply_flows<L: Buf, Y: Buf<Val = L::Val>>(
    t: &KernelTables,
    nodes: Range<usize>,
    flows: &Y,
    stale: Option<&[u64]>,
    loads: &L,
    block_sums: &impl Buf<Val = f64>,
) -> LoadStats {
    match stale {
        None => apply(t, nodes, |e| flows.get(e), loads, block_sums),
        Some(s) => {
            let landed = |e| select_unpredictable(bit(s, e) == 1, L::Val::ZERO, flows.get(e));
            apply(t, nodes, landed, loads, block_sums)
        }
    }
}

/// Calls `f` with every edge set in the bitset words `words[range]`, in
/// ascending edge id.
#[inline(always)]
fn for_each_set_bit(words: &[u64], range: Range<usize>, mut f: impl FnMut(usize)) {
    for w in range {
        let mut bits = words[w];
        while bits != 0 {
            f(64 * w + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// Whether edge `e` is set in the round's stale words, if there are any.
#[inline(always)]
fn is_stale(stale: Option<&[u64]>, e: usize) -> bool {
    stale.is_some_and(|s| bit(s, e) == 1)
}

/// The flow memory of a scheme that keeps none (the pairwise schemes):
/// every edge reads `+0.0`, and writes are no-ops. Its elements are
/// zero-sized, so the view spans any edge range and holds nothing.
struct NoMemory;

impl Buf for NoMemory {
    type Val = f64;
    type Elem = ();
    #[inline(always)]
    fn elems(&self) -> &[()] {
        &[(); usize::MAX]
    }
    #[inline(always)]
    fn read(_e: &()) -> f64 {
        0.0
    }
    #[inline(always)]
    fn write(_e: &(), _v: f64) {}
}

/// Lands the flow `y` of the matching edge `(u, v)` at its endpoints:
/// each endpoint's signed flow `σ·y` goes into its slot of `sent`, with
/// the arc orientation σ the apply pass applies (`+1` at the tail, on
/// its out-arc, `−1` at the head, on its in-arc). The endpoints are
/// matched to no other edge, so each slot has this one writer in the
/// round.
#[inline(always)]
fn land<S: Buf>(sent: &S, (u, v): (u32, u32), y: S::Val) {
    sent.set(u as usize, y);
    sent.set(v as usize, y * S::Val::from(-1));
}

/// The randomized framework's excess token on a matching edge `(u, v)`
/// whose scheduled flow has the signed fraction `g = Ŷ_e − trunc(Ŷ_e)`:
/// `+1` if the tail sends it, `−1` if the head does, `0` if none is sent.
///
/// The sender (the tail for `g > 0`, the head for `g < 0`) has one
/// positive share, `|g| < 1`, so its `⌈r⌉ = 1` and its one draw — the
/// first of its `(seed, node, round)` stream under the round key `rk`,
/// scaled by `⌈r⌉ = 1.0` — sends the token iff it falls below `|g|`:
/// exactly what [`arc_round_streamed`]'s count of passed prefix sums
/// decides for such a node. A zero or NaN fraction sends nothing there
/// and here.
#[inline(always)]
fn framework_token(rk: u64, (u, v): (u32, u32), g: f64) -> i64 {
    debug_assert!(
        g.is_nan() || g.abs() < 1.0,
        "a truncation's fraction is below 1"
    );
    if g == 0.0 {
        return 0;
    }
    let (sender, sign) = if g > 0.0 { (u, 1) } else { (v, -1) };
    let draw = rng::unit_f64(rng::nth_u64(rng::warmed_state(rk, sender as u64), 0));
    sign * i64::from(draw < g.abs())
}

/// The edge step of a matching round over one participant's word-aligned
/// `edges`: it visits only the set bits of `active`, the round's
/// matching. Each active edge computes its scheduled flow `Ŷ_e` from the
/// `loads` through [`Schedule::flow`] — the expression and operands of
/// every edge pass, against a memory that reads `+0.0` ([`NoMemory`]) —
/// turns it into its flow `flow(e, Ŷ_e)` (fluid keeps it; tokens round
/// it by an edge-local rounding, `with_edge_rounding!`, or by
/// [`pair_framework`]), and [`land`]s that at both endpoints unless the
/// edge is stale. Nothing is stored per edge.
#[allow(clippy::too_many_arguments)] // a flat hot-path kernel; a params struct would obscure it
pub(crate) fn pair_edge_step<S: Buf>(
    t: &KernelTables,
    edges: Range<usize>,
    active: &[u64],
    stale: Option<&[u64]>,
    (mem, gain): (f64, f64),
    loads: &S,
    sent: &S,
    flow: impl Fn(usize, (u32, u32), f64) -> S::Val,
) {
    // The pool cuts a matching round's edge chunks at word boundaries,
    // so each word is visited by one participant.
    debug_assert!(
        edges.start.is_multiple_of(64) && (edges.end.is_multiple_of(64) || edges.end == t.m),
        "matching-round edge chunks must be cut at word boundaries"
    );
    // Only active edges are visited, so no gate is applied. They come in
    // ascending id, so a forward cursor finds their tails.
    let x = |i| loads.get(i).to_f64();
    let (mut tails, heads) = (t.graph().tails(), t.graph().heads());
    let words = edges.start / 64..edges.end.div_ceil(64);
    with_coefs!(t, |coefs| {
        let sched = Schedule::new(t, coefs, &AllEdges, 0..t.m, mem, gain, &x, &NoMemory);
        for_each_set_bit(active, words.clone(), |e| {
            let uv = (tails.of(e), heads[e]);
            let y = flow(e, uv, sched.flow(e, x(uv.0 as usize)));
            if !is_stale(stale, e) {
                land(sent, uv, y);
            }
        });
    })
}

/// The randomized framework's integral flow on a matching edge
/// `(u, v)` in `round` for its scheduled flow `s`: the truncation plus
/// the sender's one excess token ([`framework_token`]), so a matching
/// round needs no fraction buffer and no node-state sweep.
pub(crate) fn pair_framework(seed: u64, round: u64) -> impl Fn(usize, (u32, u32), f64) -> i64 {
    let rk = rng::round_key(seed, round);
    move |_, uv, s| {
        let base = trunc_i64(s);
        base + framework_token(rk, uv, s - base as f64)
    }
}

/// The node step of a matching round over `nodes`, over whole tokens or
/// fluid alike: each node's new load `x − (0 + y)` and transient load
/// `x − (0 + max(y, 0))` from the one signed flow `y` its matched edge
/// landed in `sent` (a node without a landed flow keeps its slot's
/// zero), with the fused statistics folded in node order as [`apply`]
/// folds them. It resets each slot to zero for the next round.
///
/// This is [`apply`]'s result bit for bit. Its accumulators also start
/// at zero (`+0.0` for fluid), and a node's other arcs carry zero flows
/// there, which change no sum, so a `−0.0` landing counts as `+0.0` in
/// both.
pub(crate) fn pair_node_step<L: Buf>(
    t: &KernelTables,
    nodes: Range<usize>,
    sent: &L,
    loads: &L,
    block_sums: &impl Buf<Val = f64>,
) -> LoadStats {
    with_ideal!(t, |ideal| pair_node_step_over(
        ideal, nodes, sent, loads, block_sums
    ))
}

/// [`pair_node_step`] against the balanced loads `ideal`
/// ([`with_ideal!`]).
fn pair_node_step_over<L: Buf>(
    ideal: impl Column<Item = f64>,
    nodes: Range<usize>,
    sent: &L,
    loads: &L,
    block_sums: &impl Buf<Val = f64>,
) -> LoadStats {
    debug_assert!(
        nodes.start.is_multiple_of(DEV_BLOCK),
        "chunk must be block-aligned"
    );
    let zero = L::Val::ZERO;
    let mut fold = StatsFold {
        stats: LoadStats::identity(),
        block: 0.0,
    };
    let (start, last) = (nodes.start, nodes.end);
    let ideals = ideal.slice(nodes.clone());
    let slots = loads.elems()[nodes.clone()]
        .iter()
        .zip(&sent.elems()[nodes]);
    for (k, (le, se)) in slots.enumerate() {
        let y = L::read(se);
        L::write(se, zero);
        let x = L::read(le);
        let net = zero + y;
        let outgoing = zero + select_unpredictable(y > zero, y, zero);
        fold.node((x - net).to_f64(), ideals.at(k), (x - outgoing).to_f64());
        fold.close(start + k + 1, last, block_sums);
        L::write(le, x - net);
    }
    fold.stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use sodiff_graph::generators;

    #[test]
    fn tables_match_graph_structure() {
        let g = generators::torus2d(4, 5);
        let s = Speeds::linear_ramp(20, 3.0);
        let t = KernelTables::new(&g, &s, false, 60.0);
        assert_eq!(t.n, 20);
        assert_eq!(t.m, g.edge_count());
        for e in 0..t.m {
            let (u, v) = g.edge(e as u32);
            assert_eq!(g.edges().nth(e), Some((u, v)));
            let alpha = g.alpha(u, v);
            let pair = (alpha / s.get(u as usize), alpha / s.get(v as usize));
            assert_eq!(t.coefs.get(e), pair);
        }
        assert_eq!(t.graph().in_offsets().len(), 21);
        assert_eq!(t.graph().arc_offset(20), g.arc_count());
        // Heterogeneous speeds keep two coefficient tables.
        assert!(matches!(&t.coefs, Coefs::Each(tail, head) if !Arc::ptr_eq(tail, head)));
        // The tables own the coefficients and `ideal`, nothing else.
        assert_eq!(t.memory_bytes(), 8 * (2 * t.m + t.n));
    }

    /// Each table is one value exactly when all its entries hold the same
    /// bits: the regular torus under uniform speeds stores one pair and
    /// one balanced load, the irregular grid under uniform speeds one
    /// shared coefficient table, and a star under non-uniform speeds a
    /// per-edge pair: its tails are all the hub's one coefficient, but its
    /// heads vary, so the pair does.
    #[test]
    fn tables_store_one_value_when_every_entry_is_the_same() {
        let torus = KernelTables::new(
            &generators::torus2d(4, 5),
            &Speeds::uniform(20),
            false,
            60.0,
        );
        assert!(matches!(torus.coefs, Coefs::Same(c, h) if c == 0.2 && h == 0.2));
        assert!(matches!(torus.ideal, Ideal::Same(x) if x == 3.0));
        assert_eq!(torus.memory_bytes(), 0);
        let g = generators::grid2d(4, 5);
        let grid = KernelTables::new(&g, &Speeds::uniform(20), false, 60.0);
        assert!(matches!(&grid.coefs, Coefs::Each(tail, head) if Arc::ptr_eq(tail, head)));
        assert!(matches!(grid.ideal, Ideal::Same(x) if x == 3.0));
        assert_eq!(grid.memory_bytes(), 8 * grid.m);
        for (e, (u, v)) in g.edges().enumerate() {
            assert_eq!(grid.coefs.get(e), (g.alpha(u, v), g.alpha(u, v)));
        }
        let star = generators::star(6);
        let speeds = Speeds::new((0..6).map(|i| 1.0 + i as f64).collect());
        let t = KernelTables::new(&star, &speeds, false, 21.0);
        assert!(star.edges().all(|(u, _)| u == 0));
        assert!(matches!(&t.coefs, Coefs::Each(tail, head) if !Arc::ptr_eq(tail, head)));
        assert_eq!(t.memory_bytes(), 8 * (2 * t.m + t.n));
        for i in 0..6 {
            assert_eq!(t.ideal.get(i), 21.0 * speeds.get(i) / speeds.total());
        }
        // No edges: the pair is vacuously one value.
        let lone = KernelTables::new(&generators::star(1), &Speeds::uniform(1), false, 3.0);
        assert_eq!((lone.m, lone.memory_bytes()), (0, 0));
    }

    #[test]
    fn integer_rounding_matches_libm_and_saturates() {
        for s in [
            0.0,
            0.4999,
            0.5,
            0.49999999999999994,
            1.5,
            2.5,
            -0.5,
            -1.5,
            -2.49,
            7.99,
            -7.99,
            1234567.5,
        ] {
            assert_eq!(trunc_i64(s), s.trunc() as i64, "trunc {s}");
            assert_eq!(round_i64(s), s.round() as i64, "round {s}");
            let (f, frac) = floor_frac(s);
            assert_eq!(f, s.floor() as i64, "floor {s}");
            assert_eq!(frac, s - s.floor(), "frac {s}");
        }
        for r in [0.0, 0.1, 1.0, 4.5, 1e9] {
            assert_eq!(ceil_i64(r), r.ceil() as i64, "ceil {r}");
        }
        // Saturation instead of wrap/panic at the i64 boundary.
        assert_eq!(round_i64(1e300), i64::MAX);
        assert_eq!(round_i64(-1e300), i64::MIN);
        assert_eq!(floor_frac(-1e300).0, i64::MIN);
        assert_eq!(ceil_i64(1e300), i64::MAX);
        assert_eq!(round_i64(f64::NAN), 0);
    }

    #[test]
    fn cell_and_atomic_buffers_agree() {
        let mut plain = vec![0.0f64; 8];
        let atomics: Vec<AtomicU64> = (0..8).map(|_| AtomicU64::new(0)).collect();
        {
            let cells = cells(&mut plain);
            for i in 0..8 {
                cells.set(i, i as f64 * 1.5 - 2.0);
                Atomics::<f64>(&atomics).set(i, i as f64 * 1.5 - 2.0);
            }
            for i in 0..8 {
                assert_eq!(cells.get(i), Atomics::<f64>(&atomics).get(i));
            }
        }
        assert_eq!(plain[4], 4.0);
    }

    #[test]
    fn fused_pass_matches_two_phase_for_edge_local_schemes() {
        // One fused sweep must equal "scheduled pass then rounding pass".
        let g = generators::torus2d(5, 5);
        let s = Speeds::uniform(25);
        let t = KernelTables::new(&g, &s, false, 0.0);
        let m = t.m;
        let loads: Vec<f64> = (0..25).map(|i| ((i * 13) % 17) as f64).collect();
        // The last round's integral flows: the memory.
        let last: Vec<i64> = (0..m as i64).map(|e| (e * 3) % 7 - 3).collect();
        for rounding in [
            Rounding::round_down(),
            Rounding::nearest(),
            Rounding::unbiased_edge(7),
        ] {
            let mut fused_flows = last.clone();
            let flows = cells(&mut fused_flows);
            rounded(&t, &AllEdges, 0..m, 9, rounding, |i| loads[i], &flows);
            let sched: Vec<f64> = (0..m)
                .map(|e| {
                    let ((u, v), (ct, ch)) = (t.graph().edge(e as EdgeId), t.coefs.get(e));
                    0.4 * last[e] as f64 + 1.6 * (ct * loads[u as usize] - ch * loads[v as usize])
                })
                .collect();
            for e in 0..m {
                let expected = match rounding {
                    Rounding::RoundDown => sched[e].trunc() as i64,
                    Rounding::Nearest => sched[e].round() as i64,
                    Rounding::UnbiasedEdge { seed } => {
                        let mut rng = SplitMix64::for_node_round(seed, e as u32, 9);
                        let floor = sched[e].floor();
                        floor as i64 + i64::from(rng.next_f64() < sched[e] - floor)
                    }
                    Rounding::RandomizedFramework { .. } => unreachable!(),
                };
                assert_eq!(fused_flows[e], expected, "{rounding:?} edge {e}");
            }
        }
    }

    /// The edge pass with the edge-local `rounding` in `round`, gated by
    /// `gate` (`mem = 0.4`, `gain = 1.6`).
    fn rounded<G: EdgeGate>(
        t: &KernelTables,
        gate: &G,
        edges: Range<usize>,
        round: u64,
        rounding: Rounding,
        x: impl Fn(usize) -> f64,
        flows: &impl Buf<Val = i64>,
    ) {
        with_edge_rounding!(
            rounding,
            round,
            |y| edge_pass(t, gate, edges, 0.4, 1.6, x, flows, y),
            |_| unreachable!("the framework is no edge-local rounding")
        )
    }

    /// The scheduled flows `Ŷ_e` the edge pass computes, recomputed
    /// edge by edge with the same expression and operand order, gated by
    /// `bits` (`None`: every edge).
    fn scheduled(
        t: &KernelTables,
        bits: Option<&[u64]>,
        (mem, gain): (f64, f64),
        remembered: &[f64],
        x: impl Fn(usize) -> f64,
    ) -> Vec<f64> {
        let g = t.graph();
        (0..t.m)
            .map(|e| {
                let ((u, v), (ct, ch)) = (g.edge(e as EdgeId), t.coefs.get(e));
                let s = mem * remembered[e] + gain * (ct * x(u as usize) - ch * x(v as usize));
                bits.map_or(s, |b| bit(b, e) as f64 * s)
            })
            .collect()
    }

    /// One framework round through the real passes, from the last
    /// round's `flows`: the [`scatter`] edge pass over chunks of
    /// `5·split` edges, then [`arc_round_streamed`] over chunks of `split`
    /// nodes (round 5, seed 11). The fraction buffer is longer than `m`,
    /// with a NaN tail that would poison any token it reached.
    fn framework_round<G: EdgeGate>(
        t: &KernelTables,
        gate: &G,
        split: usize,
        x: impl Fn(usize) -> f64 + Copy,
        flows: &mut [i64],
    ) {
        let (n, m) = (t.n, t.m);
        let mut frac = vec![f64::NAN; t.graph().arc_count()];
        let (fr, fl) = (cells(&mut frac), cells(flows));
        for lo in (0..m).step_by(5 * split) {
            let edges = lo..(lo + 5 * split).min(m);
            edge_pass(t, gate, edges, 0.4, 1.6, x, &fl, scatter(&fr));
        }
        let mut scratch = FwScratch::new();
        for lo in (0..n).step_by(split) {
            let nodes = lo..(lo + split).min(n);
            arc_round_streamed(t, nodes, 11, 5, &fr, &fl, &mut scratch);
        }
    }

    /// The real framework passes must reproduce the reference
    /// node-centric rounding ([`Rounding::round_flows`]) of the
    /// independently recomputed scheduled flows bit for bit: on a
    /// configuration-model graph with degree-1 nodes, a geometric graph
    /// whose maximum degree exceeds 32 and a hypercube; under every edge
    /// gate and any chunking.
    #[test]
    fn streamed_pipeline_matches_round_flows() {
        let graphs = [
            generators::random_graph_cm(24, 22).unwrap(),
            generators::rgg_paper(64, 5),
            generators::hypercube(5),
        ];
        assert_eq!(graphs[0].min_degree(), 1, "degree-1 nodes");
        assert!(graphs[1].max_degree() > 32, "Δ > 32");
        for g in &graphs {
            let (n, m) = (g.node_count(), g.edge_count());
            let t = KernelTables::new(g, &Speeds::linear_ramp(n, 2.5), false, 0.0);
            let x = |i: usize| ((i * 37) % 23) as f64 * 1.3;
            let flows_init: Vec<i64> = (0..m as i64).map(|e| (e * 7) % 9 - 4).collect();
            let remembered: Vec<f64> = flows_init.iter().map(|&y| y as f64).collect();
            let mut rng = SplitMix64::new(m as u64);
            let mask: Vec<u64> = (0..m.div_ceil(64)).map(|_| rng.next_u64()).collect();
            for bits in [None, Some(&mask[..])] {
                let sched = scheduled(&t, bits, (0.4, 1.6), &remembered, x);
                let mut direct = vec![0i64; m];
                Rounding::randomized(11).round_flows(g, &sched, 5, &mut direct);
                for split in [1, 3, n] {
                    let case = format!("n={n} mask={} split {split}", bits.is_some());
                    let mut flows = flows_init.clone();
                    match bits {
                        None => framework_round(&t, &AllEdges, split, x, &mut flows),
                        Some(b) => framework_round(&t, &MaskBits(b), split, x, &mut flows),
                    }
                    assert_eq!(flows, direct, "{case}");
                    // The next round's memory is the rounded flows, copied
                    // by `prev_from_flows`.
                    let bits_of = |v: &[f64]| v.iter().map(|y| y.to_bits()).collect::<Vec<_>>();
                    let mut copy = vec![0.5f64; m];
                    prev_from_flows(0..m, &cells(&mut flows), &cells(&mut copy));
                    let as_f64: Vec<f64> = direct.iter().map(|&y| y as f64).collect();
                    assert_eq!(bits_of(&copy), bits_of(&as_f64), "{case} flow memory");
                }
            }
        }
    }

    #[test]
    fn edge_pass_scatter_truncates_flows_and_writes_signed_fracs() {
        let g = generators::torus2d(3, 4);
        let s = Speeds::uniform(12);
        let t = KernelTables::new(&g, &s, false, 0.0);
        let m = t.m;
        let loads: Vec<f64> = (0..12).map(|i| ((i * 7) % 5) as f64).collect();
        // The last round's integral flows: the memory.
        let flows_init: Vec<i64> = (0..m as i64).map(|e| e % 7 - 3).collect();
        let remembered: Vec<f64> = flows_init.iter().map(|&y| y as f64).collect();
        let expected = scheduled(&t, None, (0.3, 1.7), &remembered, |i| loads[i]);
        assert!(expected.iter().any(|&y| y > 0.0 && y.fract() != 0.0));
        assert!(expected.iter().any(|&y| y < 0.0 && y.fract() != 0.0));
        let mut frac = vec![9.9f64; m];
        let mut flows = flows_init.clone();
        let mut prev = vec![f64::NAN; m];
        edge_pass_scatter(
            &t,
            0..m,
            0.3,
            1.7,
            FlowMemory::Rounded,
            |i| loads[i],
            &cells(&mut frac),
            &cells(&mut flows),
            &cells(&mut prev),
        );
        for (e, &s) in expected.iter().enumerate() {
            // The signed base and the signed fraction: the fraction
            // carries the sign of the flow, so it names the sender.
            assert_eq!(flows[e], s.trunc() as i64, "base flow {e}");
            assert_eq!(frac[e], s - s.trunc(), "fraction {e}");
        }
        assert!(prev.iter().all(|p| p.is_nan()), "prev is left untouched");
    }

    /// A NaN scheduled flow truncates to a zero base and leaves a NaN
    /// fraction at both ends, so neither endpoint sends a token on any of
    /// its arcs: each of their sending edges keeps its base flow. A NaN
    /// load makes every edge of its node NaN.
    #[test]
    fn nan_flow_sends_no_tokens() {
        let g = generators::torus2d(4, 4);
        let t = KernelTables::new(&g, &Speeds::uniform(16), false, 0.0);
        let m = t.m;
        let bad = 5;
        let load = |i: usize| ((i * 13) % 17) as f64;
        let loads: Vec<f64> = (0..16)
            .map(|i| if i == bad { f64::NAN } else { load(i) })
            .collect();
        let mut flows: Vec<i64> = (0..m as i64).map(|e| e % 5 - 2).collect();
        let remembered: Vec<f64> = flows.iter().map(|&y| y as f64).collect();
        let sched = scheduled(&t, None, (0.4, 1.6), &remembered, |i| loads[i]);
        let nan_edges: Vec<usize> = (0..m).filter(|&e| sched[e].is_nan()).collect();
        let bad_edges: Vec<usize> = g.neighbor_edges(bad as u32).map(|e| e as usize).collect();
        assert_eq!(nan_edges.len(), bad_edges.len(), "the NaN node's edges");
        let mut frac = vec![0.0f64; m];
        let (fr, fl) = (cells(&mut frac), cells(&mut flows));
        edge_pass(
            &t,
            &AllEdges,
            0..m,
            0.4,
            1.6,
            |i| loads[i],
            &fl,
            scatter(&fr),
        );
        for &e in &nan_edges {
            assert!(fr.get(e).is_nan());
            assert_eq!(fl.get(e), 0);
        }
        arc_round_streamed(&t, 0..16, 3, 2, &fr, &fl, &mut FwScratch::new());
        let mut checked = 0;
        for w in std::iter::once(bad as u32).chain(g.neighbors(bad as u32).map(|(w, _)| w)) {
            for e in g.neighbor_edges(w) {
                let sg = g.orientation(w, e);
                let e = e as usize;
                if sched[e].is_nan() || sched[e] * sg > 0.0 {
                    assert_eq!(fl.get(e), sched[e].trunc() as i64, "node {w} edge {e}");
                    checked += 1;
                }
            }
        }
        assert!(
            checked > 2 * nan_edges.len(),
            "the neighbours send on other edges too"
        );
        // Elsewhere tokens still move: some edge carries more than its base.
        assert!((0..m).any(|e| fl.get(e) != sched[e].trunc() as i64));
    }

    /// Runs the gated edge pass with one store (`0` an edge-local
    /// rounding, `1` the scatter, `2` the continuous identity) over each
    /// chunk between consecutive `bounds` in turn, from a fixed mid-run
    /// state; returns the integral flows, the `f64` flows and the
    /// fractions it leaves.
    fn run_gated<G: EdgeGate>(
        t: &KernelTables,
        pass: usize,
        rounding: Rounding,
        gate: &G,
        bounds: &[usize],
    ) -> (Vec<i64>, Vec<f64>, Vec<f64>) {
        let m = t.m;
        let x = |i: usize| ((i * 13) % 17) as f64;
        let mut flows: Vec<i64> = (0..m as i64).map(|e| e % 5 - 2).collect();
        let mut fluid: Vec<f64> = (0..m).map(|e| e as f64 * 0.17 - 2.0).collect();
        let mut frac = vec![9.9f64; m];
        {
            let (fl, fu) = (cells(&mut flows), cells(&mut fluid));
            let af = cells(&mut frac);
            for w in bounds.windows(2) {
                let r = w[0]..w[1];
                match pass {
                    0 => rounded(t, gate, r, 9, rounding, x, &fl),
                    1 => edge_pass(t, gate, r, 0.4, 1.6, x, &fl, scatter(&af)),
                    _ => edge_pass(t, gate, r, 0.4, 1.6, x, &fu, |_, s| s),
                }
            }
        }
        (flows, fluid, frac)
    }

    /// Every edge pass walks its chunk node-major from the chunk's first
    /// tail, so a chunk cut at any 64-edge word, as the pool cuts them,
    /// leaves the bits of the one-chunk pass. The graphs make the walk's
    /// edge cases happen: chunks that start inside a node's out-range
    /// (the star's hub owns every edge), nodes with no out-arcs (every
    /// leaf, the hypercube's top node, the rgg's last nodes), and the
    /// per-edge coefficient tables of irregular graphs.
    #[test]
    fn edge_passes_keep_their_bits_when_cut_at_every_word() {
        let rgg = generators::random_geometric(300, 2.5, 7);
        let graphs = [generators::hypercube(8), generators::star(300), rgg];
        for g in &graphs {
            let (n, m) = (g.node_count(), g.edge_count());
            let words: Vec<usize> = (0..m).step_by(64).chain([m]).collect();
            assert!(words.len() > 3, "several words");
            assert!(words[1..words.len() - 1]
                .iter()
                .any(|&e| g.tail(e as EdgeId) == g.tail(e as EdgeId - 1)));
            assert!(g.nodes().any(|v| g.out_degree(v) == 0));
            let speeds = Speeds::new((0..n).map(|i| 1.0 + (i % 3) as f64).collect());
            for t in [
                KernelTables::new(g, &Speeds::uniform(n), false, 0.0),
                KernelTables::new(g, &speeds, false, 0.0),
            ] {
                for (pass, rounding) in [
                    (0, Rounding::round_down()),
                    (0, Rounding::nearest()),
                    (0, Rounding::unbiased_edge(7)),
                    (1, Rounding::randomized(1)),
                    (2, Rounding::nearest()),
                ] {
                    let run = |bounds: &[usize]| {
                        let (flows, prev, frac) = run_gated(&t, pass, rounding, &AllEdges, bounds);
                        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect();
                        (flows, bits(prev), bits(frac))
                    };
                    let whole: (Vec<i64>, Vec<u64>, Vec<u64>) = run(&[0, m]);
                    assert_eq!(run(&words), whole, "{g:?} pass {pass} {rounding:?}");
                }
            }
        }
    }

    /// Every gated pass: an all-ones
    /// [`MaskBits`] equals [`AllEdges`] bit for bit, and a random mask run
    /// as two chunks split off the lane grid equals one whole-range pass
    /// — the gate indexes bits by global edge id `e0 + k`, not by the
    /// chunk-local offset.
    #[test]
    fn edge_gates_agree_and_index_bits_by_global_edge_id() {
        let g = generators::torus2d(6, 7); // m = 84: two mask words
        let t = KernelTables::new(&g, &Speeds::linear_ramp(42, 3.0), false, 0.0);
        let m = t.m;
        let ones = [u64::MAX; 2];
        let mut rng = SplitMix64::new(99);
        let random = [rng.next_u64(), rng.next_u64()];
        let off = (0..m).filter(|&e| bit(&random, e) == 0).count();
        assert!(off > 0 && off < m, "the mask gates some edges out");
        for (pass, rounding) in [
            (0, Rounding::nearest()),
            (0, Rounding::unbiased_edge(7)),
            (1, Rounding::randomized(1)),
            (2, Rounding::nearest()),
        ] {
            let case = format!("pass {pass} {rounding:?}");
            let run =
                |gate: &MaskBits<'_>, bounds: &[usize]| run_gated(&t, pass, rounding, gate, bounds);
            let all = run_gated(&t, pass, rounding, &AllEdges, &[0, m]);
            assert_eq!(run(&MaskBits(&ones[..]), &[0, m]), all, "{case}");
            let whole = run(&MaskBits(&random[..]), &[0, m]);
            assert_ne!(whole, all, "{case}: the mask changes the pass");
            for a in [1, 13, 37, 67, 83] {
                assert_ne!(a % LANES, 0);
                let split = run(&MaskBits(&random[..]), &[0, a, m]);
                assert_eq!(split, whole, "{case} split at {a}");
            }
            // A gated-out edge carries no flow (continuous: its flow is
            // the memory slot).
            let (flows, prev, _) = &whole;
            for e in (0..m).filter(|&e| bit(&random, e) == 0) {
                match pass {
                    2 => assert_eq!(prev[e], 0.0, "{case} edge {e}"),
                    _ => assert_eq!(flows[e], 0, "{case} edge {e}"),
                }
            }
        }
    }

    /// The fused pass reads the memory from the flow slots — exactly
    /// what a stored `f64` copy of the last flows would hold — and never
    /// touches `prev`: its flows are the plain model's, the scheduled
    /// flows recomputed from the last flows and rounded by
    /// [`Rounding::round_flows`].
    #[test]
    fn rounded_memory_is_read_from_flows() {
        let g = generators::torus2d(5, 5);
        let t = KernelTables::new(&g, &Speeds::uniform(25), false, 0.0);
        let m = t.m;
        let loads: Vec<f64> = (0..25).map(|i| ((i * 13) % 17) as f64).collect();
        let last: Vec<i64> = (0..m as i64).map(|e| (e * 5) % 11 - 5).collect();
        let remembered: Vec<f64> = last.iter().map(|&y| y as f64).collect();
        let sched = scheduled(&t, None, (0.4, 1.6), &remembered, |i| loads[i]);
        let mut expected = vec![0i64; m];
        Rounding::nearest().round_flows(&g, &sched, 3, &mut expected);
        let mut flows = last.clone();
        let mut untouched = vec![f64::NAN; m];
        edge_pass_fused(
            &t,
            0..m,
            0.4,
            1.6,
            3,
            Rounding::nearest(),
            FlowMemory::Rounded,
            |i| loads[i],
            &cells(&mut untouched),
            &cells(&mut flows),
        );
        assert_eq!(flows, expected);
        assert!(
            untouched.iter().all(|p| p.is_nan()),
            "prev is never read or written"
        );
    }

    #[test]
    fn apply_passes_conserve_and_track_transient() {
        let g = generators::star(5);
        let s = Speeds::uniform(5);
        // Total 10 over 5 uniform nodes: the ideal load is 2 per node.
        let t = KernelTables::new(&g, &s, false, 10.0);
        // Hub (node 0) sends 3 tokens along each of 4 edges.
        let flows = [3i64; 4];
        let mut loads = vec![10i64, 0, 0, 0, 0];
        let mut blocks = vec![0.0f64; dev_blocks(5)];
        let st = apply(
            &t,
            0..5,
            |e| flows[e],
            &cells(&mut loads),
            &cells(&mut blocks),
        );
        assert_eq!(loads, vec![-2, 3, 3, 3, 3]);
        assert_eq!(st.min_transient, -2.0); // hub transient: 10 − 12
        assert_eq!(st.min_load, -2.0);
        assert_eq!(st.max_dev, 1.0); // leaves at 3 vs ideal 2
        assert_eq!(st.min_dev, -4.0); // hub at −2 vs ideal 2
        assert_eq!(st.sum_sq_dev, 0.0, "apply leaves the sum to the fold");
        // Block partials: 16 + 4·1 = 20 squared deviation in one block.
        assert_eq!(fold_block_sums(blocks.len(), &cells(&mut blocks)), 20.0);
        let flows_f = [2.5f64; 4];
        let mut loads_f = vec![10.0f64, 0.0, 0.0, 0.0, 0.0];
        let st = apply(
            &t,
            0..5,
            |e| flows_f[e],
            &cells(&mut loads_f),
            &cells(&mut blocks),
        );
        assert_eq!(loads_f, vec![0.0, 2.5, 2.5, 2.5, 2.5]);
        assert_eq!(st.min_transient, 0.0);
        assert_eq!(st.min_load, 0.0);
        assert_eq!(st.max_dev, 0.5);
        assert_eq!(st.min_dev, -2.0);
        assert_eq!(fold_block_sums(blocks.len(), &cells(&mut blocks)), 5.0);
    }

    /// The block-partial fold must be independent of chunking: any
    /// block-aligned split of the node range produces the same partials
    /// and hence the same folded sum, bit for bit.
    #[test]
    fn block_fold_is_chunking_independent() {
        use crate::metrics::DEV_BLOCK;
        let g = generators::torus2d(12, 12); // n = 144: two full blocks + tail
        let n = g.node_count();
        let s = Speeds::uniform(n);
        let t = KernelTables::new(&g, &s, false, 144.0 * 3.0);
        let flows = vec![0i64; t.m];
        let run = |bounds: &[usize]| {
            let mut loads: Vec<i64> = (0..n as i64).map(|i| (i * 7) % 11).collect();
            let mut blocks = vec![0.0f64; dev_blocks(n)];
            let mut merged = LoadStats::identity();
            for w in bounds.windows(2) {
                merged = merged.merge(apply(
                    &t,
                    w[0]..w[1],
                    |e| flows[e],
                    &cells(&mut loads),
                    &cells(&mut blocks),
                ));
            }
            merged.sum_sq_dev = fold_block_sums(blocks.len(), &cells(&mut blocks));
            merged
        };
        let whole = run(&[0, n]);
        for bounds in [
            vec![0, DEV_BLOCK, n],
            vec![0, DEV_BLOCK, 2 * DEV_BLOCK, n],
            vec![0, 2 * DEV_BLOCK, n],
        ] {
            assert_eq!(run(&bounds), whole, "bounds {bounds:?}");
        }
    }

    /// Bit patterns of every [`LoadStats`] field, so `-0.0` and NaN
    /// compare exactly.
    fn stats_bits(s: &LoadStats) -> [u64; 5] {
        [
            s.min_transient.to_bits(),
            s.min_load.to_bits(),
            s.max_dev.to_bits(),
            s.min_dev.to_bits(),
            s.sum_sq_dev.to_bits(),
        ]
    }

    /// One apply pass over `init` with `flows` (stale edges in `stale`):
    /// the loads as `f64` bits, the statistics' bits and the block
    /// partials' bits.
    fn apply_run<V: Value>(
        t: &KernelTables,
        init: &[V],
        flows: &mut [V],
        stale: Option<&[u64]>,
    ) -> (Vec<u64>, [u64; 5], Vec<u64>) {
        let blocks = dev_blocks(t.n);
        let mut loads = init.to_vec();
        let mut sums = vec![0.0f64; blocks];
        let (l, b) = (cells(&mut loads), cells(&mut sums));
        let mut st = apply_flows(t, 0..t.n, &cells(flows), stale, &l, &b);
        st.sum_sq_dev = fold_block_sums(blocks, &b);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
        let loads: Vec<f64> = loads.iter().map(|x| x.to_f64()).collect();
        (bits(&loads), stats_bits(&st), bits(&sums))
    }

    /// The one apply pass over whole tokens and over fluid holding the
    /// same integral values agrees: equal loads, bit-equal statistics
    /// and block partials, on a graph whose node count leaves a scalar
    /// tail and spans several potential blocks. A stale edge lands
    /// nothing, whatever its fluid flow holds.
    #[test]
    fn apply_pass_agrees_across_value_types() {
        let g = generators::grid2d(9, 15); // n = 135: 16 chunks + a tail of 7
        let n = g.node_count();
        assert!(!n.is_multiple_of(LANES) && n > 2 * DEV_BLOCK);
        let init: Vec<i64> = (0..n as i64).map(|i| (i * 37) % 29 - 6).collect();
        let total = init.iter().sum::<i64>() as f64;
        let t = KernelTables::new(&g, &Speeds::linear_ramp(n, 3.0), false, total);
        let mut flows: Vec<i64> = (0..t.m as i64).map(|e| (e * 11) % 9 - 4).collect();
        let init_f: Vec<f64> = init.iter().map(|&x| x as f64).collect();
        let mut flows_f: Vec<f64> = flows.iter().map(|&y| y as f64).collect();
        let tokens = apply_run(&t, &init, &mut flows, None);
        assert_eq!(tokens, apply_run(&t, &init_f, &mut flows_f, None));
        // A stale edge applies as zero: its endpoints' loads, the
        // transient and the statistics are those of a zero flow.
        let e = 57;
        let mut stale = [0u64; 4];
        stale[e >> 6] |= 1 << (e & 63);
        flows_f[e] = 0.0;
        let want = apply_run(&t, &init_f, &mut flows_f, None);
        assert_ne!(want, tokens, "edge {e} carries flow");
        for y in [-3.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            flows_f[e] = y;
            let got = apply_run(&t, &init_f, &mut flows_f, Some(&stale));
            assert_eq!(got, want, "stale flow {y}");
        }
        flows[e] = -3;
        assert_eq!(apply_run(&t, &init, &mut flows, Some(&stale)), want);
    }

    /// `t` with each table stored one entry per edge or node, as a table
    /// whose entries differ is stored.
    fn per_entry(t: &KernelTables) -> KernelTables {
        let (tail, head): (Vec<f64>, Vec<f64>) = (0..t.m).map(|e| t.coefs.get(e)).unzip();
        KernelTables {
            n: t.n,
            m: t.m,
            graph: t.graph.clone(),
            coefs: Coefs::Each(tail.into(), head.into()),
            ideal: Ideal::Each((0..t.n).map(|i| t.ideal.get(i)).collect()),
        }
    }

    /// One matching round through the real edge and node steps over
    /// `active`, from `init`: the loads as `f64` bits and the statistics'
    /// bits.
    fn matching_run<V: Value>(
        t: &KernelTables,
        active: &[u64],
        flow: impl Fn(usize, (u32, u32), f64) -> V,
        init: &[V],
    ) -> (Vec<u64>, [u64; 5]) {
        let mut loads = init.to_vec();
        let mut sent = vec![V::ZERO; t.n];
        let mut sums = vec![0.0f64; dev_blocks(t.n)];
        let (l, sn, b) = (cells(&mut loads), cells(&mut sent), cells(&mut sums));
        pair_edge_step(t, 0..t.m, active, None, (0.0, 1.3), &l, &sn, flow);
        let mut st = pair_node_step(t, 0..t.n, &sn, &l, &b);
        st.sum_sq_dev = fold_block_sums(dev_blocks(t.n), &b);
        let loads = loads.iter().map(|x| x.to_f64().to_bits()).collect();
        (loads, stats_bits(&st))
    }

    /// A table stored as one value reads exactly as the same table stored
    /// per entry: every edge pass under both gates, the
    /// apply pass and both steps of a matching round leave the same bits.
    /// The torus's node and edge counts leave scalar tails, and its node
    /// count spans two potential blocks.
    #[test]
    fn one_value_tables_read_as_per_entry_tables() {
        let g = generators::torus2d(9, 11);
        let (n, m) = (g.node_count(), g.edge_count());
        assert!(!n.is_multiple_of(LANES) && !m.is_multiple_of(LANES) && n > DEV_BLOCK);
        let init: Vec<i64> = (0..n as i64).map(|i| (i * 37) % 29 - 6).collect();
        let total = init.iter().sum::<i64>() as f64;
        let one = KernelTables::new(&g, &Speeds::uniform(n), false, total);
        assert!(matches!(one.coefs, Coefs::Same(..)) && matches!(one.ideal, Ideal::Same(_)));
        let each = per_entry(&one);
        let bits = |(flows, prev, frac): (Vec<i64>, Vec<f64>, Vec<f64>)| {
            let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            (flows, bits(prev), bits(frac))
        };
        let mut rng = SplitMix64::new(5);
        let mask: Vec<u64> = (0..m.div_ceil(64)).map(|_| rng.next_u64()).collect();
        for (pass, rounding) in [
            (0, Rounding::nearest()),
            (0, Rounding::unbiased_edge(7)),
            (1, Rounding::randomized(1)),
            (2, Rounding::nearest()),
        ] {
            let case = format!("pass {pass} {rounding:?}");
            let bounds = [0, 13, m];
            let run = |t| bits(run_gated(t, pass, rounding, &AllEdges, &bounds));
            assert_eq!(run(&one), run(&each), "{case}");
            let gate = MaskBits(&mask[..]);
            let run = |t| bits(run_gated(t, pass, rounding, &gate, &bounds));
            assert_eq!(run(&one), run(&each), "{case} masked");
        }
        let mut flows: Vec<i64> = (0..m as i64).map(|e| (e * 11) % 9 - 4).collect();
        let init_f: Vec<f64> = init.iter().map(|&x| x as f64 * 0.7).collect();
        let mut flows_f: Vec<f64> = flows.iter().map(|&y| y as f64 * 1.1).collect();
        assert_eq!(
            apply_run(&one, &init, &mut flows, None),
            apply_run(&each, &init, &mut flows, None)
        );
        assert_eq!(
            apply_run(&one, &init_f, &mut flows_f, None),
            apply_run(&each, &init_f, &mut flows_f, None)
        );
        let active = &sodiff_graph::matching::edge_coloring(&g).class_masks()[0];
        let tokens = |t: &KernelTables| matching_run(t, active, pair_framework(3, 4), &init);
        assert_eq!(tokens(&one), tokens(&each));
        let fluid = |t: &KernelTables| matching_run(t, active, |_, _, s| s, &init_f);
        assert_eq!(fluid(&one), fluid(&each));
    }
}
