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
//!   the conversion from `f64`, and relaxed-atomic storage (arc signs
//!   convert through `From<i8>`).
//! * one storage trait, [`Buf`], reads and writes either value type
//!   through one of two views: the sequential executor's [`Cells`], a
//!   zero-cost shared-writable view of a plain slice via
//!   [`std::cell::Cell`], and the persistent worker pool's [`Atomics`],
//!   relaxed atomics. Both executors instantiate the *same* passes.
//!
//! The apply pass ([`apply`], with its stale-edge form [`apply_flows`])
//! exists once for both value types: each node's arc reduction and the
//! fused statistics are written once, and the lane loop and the scalar
//! tail share them. The three edge passes (fused, scatter, continuous)
//! compute the scheduled flow through one inline helper, so the
//! expression exists once, with the same operands in the same order in
//! every pass.
//!
//! The edge passes are also generic over *which* edges carry flow, an
//! [`EdgeGate`]: [`AllEdges`] for the diffusion plan, with no mask test
//! in the loop, or [`MaskBits`], which reads a round's active-edge bitset
//! straight from its `&[u64]` words. So each pass has one loop body for
//! every plan: `edge_pass_*_gated` take the gate, and the fused and
//! scatter passes keep all-edges entry points ([`edge_pass_fused`],
//! [`edge_pass_scatter`]). No pass takes coefficients of its own: each
//! reads the pair held by the [`KernelTables`] it is given.
//!
//! Because both executors run byte-for-byte the same arithmetic in the
//! same per-element order, parallel results are bit-identical to
//! sequential ones by construction — the property `tests/determinism.rs`
//! checks exhaustively.
//!
//! The per-edge work is division-free: [`KernelTables`] precomputes the
//! coefficient tables `coef_tail[e] = α_e/s_u` and `coef_head[e] = α_e/s_v`
//! at simulator construction (for the pairwise schemes
//! `λ·s_v/(s_u+s_v)` and `λ·s_u/(s_u+s_v)` instead; one shared table
//! under uniform speeds, where the two are the same numbers), so the
//! scheduled-flow pass is a fused multiply–add over the graph's canonical
//! `(u, v)` edge list, the two coefficient slices and the flow memory
//! (`Ŷ_e = mem·prev_e + gain·(coef_tail[e]·x_u − coef_head[e]·x_v)`)
//! instead of the two `f64` divisions per edge the naive form
//! `α_e·(x_u/s_u − x_v/s_v)` costs. The tables own no adjacency: the
//! passes read the CSR arrays of the [`Graph`] clone the tables hold,
//! which shares its arrays with the caller's graph. For the edge-local
//! rounding schemes the rounding is fused into the same pass, saving a
//! full sweep over the edge arrays per round.
//!
//! # The streaming randomized pipeline
//!
//! The paper's randomized rounding framework is node-centric (each node
//! rounds all its outgoing flows together), but every edge has exactly
//! one sender, so a round needs only one fractional part per edge. The
//! framework runs as two streaming phases ahead of the apply pass:
//!
//! 1. [`edge_pass_scatter`] — one sweep over edges computes the scheduled
//!    flow `Ŷ_e`, truncates it on the spot (one truncation per edge
//!    instead of one floor per positive arc), writes the signed base
//!    `trunc(Ŷ_e)` straight into the edge's flow slot and the signed
//!    fraction `g_e = Ŷ_e − trunc(Ŷ_e)` into the edge's slot of an
//!    `m`-long buffer: three contiguous stores per edge and no per-edge
//!    select. For [`FlowMemory::Scheduled`] the SOS memory is updated in
//!    the same pass.
//! 2. [`arc_round_streamed`] — one sweep over nodes gathers `g_e` through
//!    each arc's edge id (which the walk reads anyway) and takes its own
//!    share `max(σ·g_e, 0)` for the arc's orientation σ: the sender's
//!    `|g_e|`, the receiver's `0.0`. It sums the shares to `r`, writing
//!    each running sum once into a reusable prefix buffer, skips nodes
//!    with `r = 0` — the common case away from the diffusion wavefront —
//!    and distributes the `⌈r⌉` excess tokens using per-node RNG streams.
//!    Only a sending node computes its warmed-up state, from the hoisted
//!    round key with one `mix64` (`rng::warmed_state`, instead of key
//!    construction plus a discarded warm-up draw), so the phase keeps no
//!    per-node buffer; each token's draw comes straight off the stream
//!    counter ([`crate::rng::nth_u64`]), so draws are independent `mix64`
//!    chains with no serial dependency, and the target arc is found by a
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
//!    cuts at 64-edge word boundaries. Each active edge computes `Ŷ_e`
//!    through the one scheduled-flow expression, against a memory that
//!    reads `+0.0`, and turns it into its flow: fluid keeps it, and
//!    tokens round it inline — the edge-local roundings as the fused
//!    pass does, and the randomized framework by the sender's one draw,
//!    since a sender with a single positive share `|g_e| < 1` has
//!    `⌈r⌉ = 1`. Unless the edge is stale, it lands the signed flow
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
//! # The SOS memory under [`FlowMemory::Rounded`]
//!
//! The memory the paper's discrete SOS process uses — "the amount that
//! was sent in step t−1" — *is* the integral flow each round leaves in an
//! edge's flow slot. Every discrete diffusion edge pass therefore reads
//! it as `flows[e] as f64` ([`FlowsAsMemory`]) and keeps no per-edge
//! `f64` copy: no round phase writes a memory vector, and the framework
//! needs two internal barriers per round under the worker pool.
//! That memory becomes an `f64` vector only on request (the simulator's
//! `previous_flows()` accessor and its checkpoint snapshots), by the
//! cast [`prev_from_flows`] performs. The `prev` buffer the passes take is used only
//! under [`FlowMemory::Scheduled`], whose memory is the unrounded `Ŷ_e`.
//! Only SOS reads the memory, and only FOS shares its rounds; the
//! pairwise schemes keep none (see the matching rounds above), and
//! their `previous_flows()` read zeros.
//!
//! # Lane-chunked SIMD form, and why it is bit-exact
//!
//! The edge passes and the apply pass run in [`LANES`]-wide chunks with
//! a scalar tail (the same shape as the bulk RNG sweeps in
//! [`crate::rng`]): each chunk first computes the eight scheduled flows —
//! a pure independent multiply–add chain the compiler keeps in vector
//! registers — and then rounds/writes the eight results in ascending edge
//! order. This is a pure *reassociation of instructions, not of
//! arithmetic*: every per-edge value is computed by exactly the
//! expression the scalar loop used, on exactly the operands the scalar
//! loop read, because per-edge work is independent — edge `e` reads only
//! `loads[..]` (not written in this pass), its own memory slot (`prev[e]`,
//! or `flows[e]` under [`FlowMemory::Rounded`]), its own mask bit under
//! [`MaskBits`], and the constant tables,
//! and writes only `prev[e]`, `flows[e]`, and (scatter pass) `frac[e]`.
//! Hoisting the eight memory reads above the eight
//! writes therefore never changes an operand, and no f64
//! addition is regrouped anywhere. The same argument covers the apply
//! pass: each node's arc reduction keeps its exact sequential order
//! inside its lane, and the fused statistics (`StatsFold::node` and
//! the per-block squared-deviation partials) are folded lane 0..8 in node
//! order, identical to the scalar sequence. Hence all golden-trace
//! checksums are unchanged by construction — the property
//! `tests/golden_trace.rs` pins. The same holds across value types:
//! each [`Value`] operation monomorphizes to the plain `i64` or `f64`
//! operation, so the token pass and the fluid pass each compute exactly
//! what a pass written by hand for that type would. The one
//! deliberately scalar loop is [`arc_round_streamed`]'s per-node share
//! sum, whose sequential f64 prefix is itself the pinned quantity: it
//! feeds `⌈r⌉`, and every token compares its draw against the exact
//! running prefix. The prefix is therefore built once per node, in arc
//! order, and only read by the token loop; regrouping it across lanes
//! would change which arc a token picks (see the comment there).
//!
//! This module is exported `#[doc(hidden)]` so the stand-alone
//! `perfbench` package can time each phase in isolation; it is **not** a
//! stable API.

use std::cell::Cell;
use std::hint::select_unpredictable;
use std::ops::{Add, Div, Mul, Range, Sub};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use sodiff_graph::{Graph, Speeds};

use crate::engine::FlowMemory;
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
/// have: the coefficient tables and the balanced-load table
/// [`Self::ideal`]. The randomized framework needs nothing more: its
/// scatter writes one fraction per edge and its rounding phase reads it
/// back through the arc's edge id, which the CSR already holds.
/// The coefficients are the ones the simulation's rounds read: the
/// diffusion `α_e/s` pair that [`Self::new`] builds, or the pairwise
/// schemes' λ-scaled harmonic-speed pair. Under uniform speeds each pair's
/// two halves are the same `f64`, so [`Self::coef_tail`] and
/// [`Self::coef_head`] then share one buffer; the passes read the two
/// slices either way.
pub struct KernelTables {
    /// Node count.
    pub(crate) n: usize,
    /// Edge count.
    pub m: usize,
    /// The simulated graph (shares the caller's CSR arrays).
    graph: Graph,
    /// The tail coefficient per edge: `α_e / s_tail` for diffusion,
    /// `λ·s_head/(s_tail+s_head)` for the pairwise schemes.
    pub coef_tail: Arc<[f64]>,
    /// The head coefficient per edge: `α_e / s_head` for diffusion,
    /// `λ·s_tail/(s_tail+s_head)` for the pairwise schemes (the same
    /// buffer as [`Self::coef_tail`] under uniform speeds).
    pub coef_head: Arc<[f64]>,
    /// Per-node speed-proportional balanced load `x̄_i = T·s_i/S`, where
    /// `T` is the total load passed at construction (the conserved
    /// initial total for real simulations). The apply pass reduces load
    /// deviations against this table in the same sweep that applies
    /// flows, so stop conditions never pay a separate metrics pass.
    pub ideal: Vec<f64>,
}

impl KernelTables {
    /// Builds the diffusion tables for `graph` with the given speeds.
    /// `total_load` seeds the [`KernelTables::ideal`] balanced-load table
    /// (pass the initial total; callers that ignore the fused stats may
    /// pass any value).
    ///
    /// The third argument is ignored (every caller in this workspace
    /// passes `false`); it remains only so that existing callers keep
    /// compiling.
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
    /// diffusion `α_e/s` tables: the pairwise schemes' λ-scaled pair.
    pub(crate) fn with_coefs(
        graph: &Graph,
        speeds: &Speeds,
        (coef_tail, coef_head): CoefPair,
        total_load: f64,
    ) -> Self {
        let n = graph.node_count();
        // Same per-node expression as `metrics::snapshot_with_total`, so
        // the fused deviations match a from-scratch recompute bit for bit.
        let ideal = (0..n)
            .map(|i| total_load * speeds.get(i) / speeds.total())
            .collect();
        Self {
            n,
            m: graph.edge_count(),
            graph: graph.clone(),
            coef_tail,
            coef_head,
            ideal,
        }
    }

    /// The graph the tables were built for.
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Heap bytes the tables own: the coefficient tables (a shared
    /// coefficient buffer counts once) and [`Self::ideal`]. The graph's
    /// CSR is not counted; it is [`Graph::memory_bytes`].
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let coef_buffers = if Arc::ptr_eq(&self.coef_tail, &self.coef_head) {
            1
        } else {
            2
        };
        (coef_buffers * self.m + self.ideal.len()) * size_of::<f64>()
    }
}

/// A per-edge `(coef_tail, coef_head)` coefficient table pair; both
/// halves are one shared buffer when they hold the same numbers.
pub(crate) type CoefPair = (Arc<[f64]>, Arc<[f64]>);

/// Builds a per-edge `(coef_tail, coef_head)` table pair from `coefs(u,
/// v)` over the canonical edges. Under uniform speeds every coefficient
/// this crate builds is symmetric in the two endpoint speeds, so both
/// halves are the same `f64` and one table is built and shared; otherwise
/// the two tables are built separately.
pub(crate) fn coef_pair(
    graph: &Graph,
    speeds: &Speeds,
    coefs: impl Fn(u32, u32) -> (f64, f64),
) -> CoefPair {
    let edges = graph.edges().iter();
    if speeds.is_uniform() {
        let shared: Arc<[f64]> = edges
            .map(|&(u, v)| {
                let (tail, head) = coefs(u, v);
                debug_assert_eq!(tail.to_bits(), head.to_bits(), "asymmetric coefficient");
                tail
            })
            .collect();
        (Arc::clone(&shared), shared)
    } else {
        let tail = edges.clone().map(|&(u, v)| coefs(u, v).0).collect();
        let head = edges.map(|&(u, v)| coefs(u, v).1).collect();
        (tail, head)
    }
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

/// The SOS memory under [`FlowMemory::Rounded`]: an `f64` view of the
/// integral flows, where edge `e`'s memory is `flows[e] as f64`. That is
/// bit for bit what a stored `f64` copy of the last flows would hold (an
/// `i64 → f64` cast never yields `-0.0`), so the flow slot *is* the
/// memory and no per-edge `f64` copy is kept. Writes are no-ops: the
/// edge pass updates the memory by writing the new flow.
pub struct FlowsAsMemory<'a, F>(pub &'a F);

impl<F: Buf<Val = i64>> Buf for FlowsAsMemory<'_, F> {
    type Val = f64;
    type Elem = F::Elem;
    #[inline(always)]
    fn elems(&self) -> &[F::Elem] {
        self.0.elems()
    }
    #[inline(always)]
    fn read(e: &F::Elem) -> f64 {
        F::read(e) as f64
    }
    #[inline(always)]
    fn write(_e: &F::Elem, _v: f64) {}
}

/// Evaluates `$body` with `$memory` bound to the SOS memory `flow_memory`
/// selects: `prev` itself under [`FlowMemory::Scheduled`], the integral
/// flows through [`FlowsAsMemory`] under [`FlowMemory::Rounded`] (where
/// `prev` is never touched and may be empty).
macro_rules! with_memory {
    ($flow_memory:expr, $prev:expr, $flows:expr, |$memory:ident| $body:expr) => {
        match $flow_memory {
            FlowMemory::Rounded => {
                let $memory = &FlowsAsMemory($flows);
                $body
            }
            FlowMemory::Scheduled => {
                let $memory = $prev;
                $body
            }
        }
    };
}

/// `s.trunc() as i64` without the libm call: the `f64 → i64` cast *is*
/// truncation toward zero (`cvttsd2si`), with the same saturating
/// overflow/NaN behavior as trunc-then-cast.
#[inline(always)]
fn trunc_i64(s: f64) -> i64 {
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
fn round_i64(s: f64) -> i64 {
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
fn unbiased_edge(seed: u64, e: usize, round: u64, s: f64) -> i64 {
    let mut rng = SplitMix64::for_node_round(seed, e as u32, round);
    let (floor, frac) = floor_frac(s);
    floor + i64::from(rng.next_f64() < frac)
}

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
/// canonical endpoints, the coefficient pair and the flow memory, plus
/// the round's gate, scalars and load reader.
struct Schedule<'a, G, M: Buf, X> {
    gate: &'a G,
    x: &'a X,
    mem: f64,
    gain: f64,
    /// Global id of local edge 0 (the gate indexes bits by global id).
    e0: usize,
    pairs: &'a [(u32, u32)],
    cts: &'a [f64],
    chs: &'a [f64],
    memory: &'a [M::Elem],
}

impl<'a, G: EdgeGate, M: Buf<Val = f64>, X: Fn(usize) -> f64> Schedule<'a, G, M, X> {
    /// The schedule over the edges `edges` of `t`.
    fn new(
        t: &'a KernelTables,
        gate: &'a G,
        edges: Range<usize>,
        mem: f64,
        gain: f64,
        x: &'a X,
        memory: &'a M,
    ) -> Self {
        Self {
            gate,
            x,
            mem,
            gain,
            e0: edges.start,
            pairs: &t.graph().edges()[edges.clone()],
            cts: &t.coef_tail[edges.clone()],
            chs: &t.coef_head[edges.clone()],
            memory: &memory.elems()[edges],
        }
    }

    /// The schedule over the [`LANES`]-edge chunk at local edge `k0`,
    /// whose fixed length lets the compiler drop the lane loop's bounds
    /// checks.
    #[inline(always)]
    fn chunk(&self, k0: usize) -> Self {
        let r = k0..k0 + LANES;
        Self {
            e0: self.e0 + k0,
            pairs: &self.pairs[r.clone()],
            cts: &self.cts[r.clone()],
            chs: &self.chs[r.clone()],
            memory: &self.memory[r],
            ..*self
        }
    }

    /// Local edge `k`'s gated scheduled flow
    /// `Ŷ_e = mem·prev_e + gain·(coef_tail·x_u − coef_head·x_v)`: the one
    /// place the edge passes compute it.
    #[inline(always)]
    fn flow(&self, k: usize) -> f64 {
        let (u, v) = self.pairs[k];
        let x = self.x;
        self.gate.gate(
            self.e0 + k,
            self.mem * M::read(&self.memory[k])
                + self.gain * (self.cts[k] * x(u as usize) - self.chs[k] * x(v as usize)),
        )
    }

    /// The edge-local discrete pass ([`edge_pass_fused_gated`]) over this
    /// schedule's memory view: rounds each flow into `flows` and records
    /// `Ŷ_e` in the memory (a no-op write for [`FlowsAsMemory`]).
    fn fused<F: Buf<Val = i64>>(&self, round: u64, rounding: Rounding, flows: &F) {
        let (e0, len) = (self.e0, self.pairs.len());
        let flow_elems = &flows.elems()[e0..e0 + len];
        let main = len - len % LANES;
        macro_rules! fused_loop {
            (|$k:ident, $s:ident| $round_expr:expr) => {{
                // Lane-chunked main loop (see the module docs for the
                // bit-exactness argument): lane 1 computes the eight
                // independent scheduled flows, lane 2 rounds and writes
                // them in the same ascending edge order as the scalar tail.
                for k0 in (0..main).step_by(LANES) {
                    let c = self.chunk(k0);
                    let fc = &flow_elems[k0..k0 + LANES];
                    let mut s_lanes = [0.0f64; LANES];
                    for (l, s) in s_lanes.iter_mut().enumerate() {
                        *s = c.flow(l);
                    }
                    for l in 0..LANES {
                        let $k = k0 + l;
                        let $s = s_lanes[l];
                        let y: i64 = $round_expr;
                        F::write(&fc[l], y);
                        M::write(&c.memory[l], $s);
                    }
                }
                for $k in main..len {
                    let $s = self.flow($k);
                    let y: i64 = $round_expr;
                    F::write(&flow_elems[$k], y);
                    M::write(&self.memory[$k], $s);
                }
            }};
        }
        match rounding {
            Rounding::RoundDown => fused_loop!(|_k, s| trunc_i64(s)),
            Rounding::Nearest => fused_loop!(|_k, s| round_i64(s)),
            Rounding::UnbiasedEdge { seed } => {
                fused_loop!(|k, s| unbiased_edge(seed, e0 + k, round, s))
            }
            Rounding::RandomizedFramework { .. } => {
                panic!("the randomized framework is node-centric; use the arc passes")
            }
        }
    }

    /// The framework's scatter pass ([`edge_pass_scatter_gated`]) over
    /// this schedule's memory view: writes each edge's signed base flow
    /// `trunc(Ŷ_e)` into `flows` and its signed fraction
    /// `Ŷ_e − trunc(Ŷ_e)` into `frac`, both indexed by edge.
    fn scatter<A: Buf<Val = f64>, F: Buf<Val = i64>>(&self, frac: &A, flows: &F) {
        let (e0, len) = (self.e0, self.pairs.len());
        let flow_elems = &flows.elems()[e0..e0 + len];
        let frac_elems = &frac.elems()[e0..e0 + len];
        let main = len - len % LANES;
        // `trunc(Ŷ) = sign·⌊|Ŷ|⌋` *is* the signed base flow, and
        // `Ŷ − trunc(Ŷ)` is exact (Sterbenz for `|Ŷ| ≥ 1`, trivially
        // below), so one saturating cast replaces the abs/floor/sign
        // chain. Which end sends is left to the rounding phase: the
        // fraction's sign says it, with no per-edge select here.
        let scatter_one = |fr: &A::Elem, pe: &M::Elem, fe: &F::Elem, s: f64| {
            let base = trunc_i64(s);
            A::write(fr, s - base as f64);
            F::write(fe, base);
            M::write(pe, s);
        };
        // Unlike the fused pass, compute and store stay fused per lane:
        // staging the eight scheduled flows first was measured about 10%
        // slower here, even with all three stores contiguous. The chunk
        // still earns its keep by hoisting the bounds checks into the
        // slice splits.
        for k0 in (0..main).step_by(LANES) {
            let c = self.chunk(k0);
            let (frc, fc) = (&frac_elems[k0..k0 + LANES], &flow_elems[k0..k0 + LANES]);
            for l in 0..LANES {
                scatter_one(&frc[l], &c.memory[l], &fc[l], c.flow(l));
            }
        }
        for k in main..len {
            scatter_one(
                &frac_elems[k],
                &self.memory[k],
                &flow_elems[k],
                self.flow(k),
            );
        }
    }

    /// The continuous pass ([`edge_pass_continuous_gated`]): writes each
    /// scheduled flow into the memory.
    fn continuous(&self) {
        let len = self.pairs.len();
        let main = len - len % LANES;
        for k0 in (0..main).step_by(LANES) {
            let c = self.chunk(k0);
            let mut s_lanes = [0.0f64; LANES];
            for (l, s) in s_lanes.iter_mut().enumerate() {
                *s = c.flow(l);
            }
            for (l, &s) in s_lanes.iter().enumerate() {
                M::write(&c.memory[l], s);
            }
        }
        for k in main..len {
            M::write(&self.memory[k], self.flow(k));
        }
    }
}

/// Fused edge pass for the **edge-local** rounding schemes in discrete
/// mode, over every edge with the tables' coefficients: computes the
/// scheduled flow `Ŷ_e` (see the module docs), rounds it, and updates the SOS
/// flow memory, all in one sweep over `edges`. Under
/// [`FlowMemory::Rounded`] the memory is the flow slot itself
/// ([`FlowsAsMemory`]) and `prev` is left untouched; under
/// [`FlowMemory::Scheduled`] `prev` records `Ŷ_e`.
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
    flow_memory: FlowMemory,
    x: impl Fn(usize) -> f64,
    prev: &P,
    flows: &F,
) {
    edge_pass_fused_gated(
        t,
        &AllEdges,
        edges,
        mem,
        gain,
        round,
        rounding,
        flow_memory,
        x,
        prev,
        flows,
    );
}

/// [`edge_pass_fused`] with an edge `gate` ([`AllEdges`] or [`MaskBits`]).
#[allow(clippy::too_many_arguments)] // a flat hot-path kernel; a params struct would obscure it
pub fn edge_pass_fused_gated<G: EdgeGate, P: Buf<Val = f64>, F: Buf<Val = i64>>(
    t: &KernelTables,
    gate: &G,
    edges: Range<usize>,
    mem: f64,
    gain: f64,
    round: u64,
    rounding: Rounding,
    flow_memory: FlowMemory,
    x: impl Fn(usize) -> f64,
    prev: &P,
    flows: &F,
) {
    with_memory!(flow_memory, prev, flows, |memory| {
        Schedule::new(t, gate, edges.clone(), mem, gain, &x, memory).fused(round, rounding, flows)
    })
}

/// Phase 1 of the randomized framework, over every edge with the
/// tables' coefficients: computes the scheduled flow `Ŷ_e`, **truncates
/// it right here** (the sending side's outflow is `|Ŷ_e|` and its floor
/// is the edge's base flow, so the per-arc floor pass of the old
/// formulation collapses into this per-edge one), writes the signed base
/// `trunc(Ŷ_e)` into the edge's flow slot and the signed fraction
/// `Ŷ_e − trunc(Ŷ_e)` into the edge's slot of `frac`. The fraction's sign
/// names the sender (positive: the tail; negative: the head), so the
/// node-centric rounding phase derives each arc's share from it. For
/// [`FlowMemory::Scheduled`] the SOS memory is updated in the same sweep;
/// under [`FlowMemory::Rounded`] it is read from the flow slots
/// ([`FlowsAsMemory`]) and `prev` is left untouched.
///
/// `frac` is indexed by edge id; a longer buffer (such as one sized by
/// arc count) is accepted and its tail left alone.
#[allow(clippy::too_many_arguments)] // a flat hot-path kernel; a params struct would obscure it
pub fn edge_pass_scatter<A: Buf<Val = f64>, F: Buf<Val = i64>, P: Buf<Val = f64>>(
    t: &KernelTables,
    edges: Range<usize>,
    mem: f64,
    gain: f64,
    flow_memory: FlowMemory,
    x: impl Fn(usize) -> f64,
    frac: &A,
    flows: &F,
    prev: &P,
) {
    edge_pass_scatter_gated(
        t,
        &AllEdges,
        edges,
        mem,
        gain,
        flow_memory,
        x,
        frac,
        flows,
        prev,
    );
}

/// [`edge_pass_scatter`] with an edge `gate`.
/// A gated-out edge writes a zero base flow and a zero fraction, so the
/// rounding phase ([`arc_round_streamed`]) runs unchanged: a node whose
/// arcs are all inactive sums `r = 0` and skips out.
#[allow(clippy::too_many_arguments)] // a flat hot-path kernel; a params struct would obscure it
pub fn edge_pass_scatter_gated<
    G: EdgeGate,
    A: Buf<Val = f64>,
    F: Buf<Val = i64>,
    P: Buf<Val = f64>,
>(
    t: &KernelTables,
    gate: &G,
    edges: Range<usize>,
    mem: f64,
    gain: f64,
    flow_memory: FlowMemory,
    x: impl Fn(usize) -> f64,
    frac: &A,
    flows: &F,
    prev: &P,
) {
    with_memory!(flow_memory, prev, flows, |memory| {
        Schedule::new(t, gate, edges.clone(), mem, gain, &x, memory).scatter(frac, flows)
    })
}

/// Edge pass for continuous mode, with an edge `gate` (a gated-out edge
/// carries a zero flow this round): the scheduled flow *is* the flow, so
/// it is written straight into the flow memory, which the apply pass then
/// reads as this round's flows.
#[allow(clippy::too_many_arguments)] // a flat hot-path kernel; a params struct would obscure it
pub fn edge_pass_continuous_gated<G: EdgeGate, P: Buf<Val = f64>>(
    t: &KernelTables,
    gate: &G,
    edges: Range<usize>,
    mem: f64,
    gain: f64,
    x: impl Fn(usize) -> f64,
    prev: &P,
) {
    Schedule::new(t, gate, edges, mem, gain, &x, prev).continuous();
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
/// walks its arcs, gathers `g_e` through the arc's edge id and takes its
/// own share `max(σ·g_e, 0)`, σ the arc's orientation: the sender gets
/// `|g_e|` and the receiver `0.0`, the classic positive-outflow fraction.
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
    let round_key = rng::round_key(seed, round);
    let fracs = frac.elems();
    // Walk the chunk's arc ranges by splitting running slices instead of
    // re-slicing from `offsets` per node — one length computation and
    // two `split_at`s per node, no repeated global-range checks.
    let offsets = &t.graph().arc_offsets()[nodes.start..=nodes.end];
    let chunk_arcs = offsets[0]..offsets[offsets.len() - 1];
    let mut edges_rest = &t.graph().arc_edge_ids()[chunk_arcs.clone()];
    let mut signs_rest = &t.graph().arc_orientations()[chunk_arcs];
    for (node, deg) in nodes.zip(offsets.windows(2).map(|w| w[1] - w[0])) {
        let (edges, rest) = edges_rest.split_at(deg);
        edges_rest = rest;
        let (signs, rest) = signs_rest.split_at(deg);
        signs_rest = rest;
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
        for ((p, &e), &sg) in prefix.iter_mut().zip(edges).zip(signs) {
            // The arc's share `max(σ·g_e, 0)`, branchless. `σ·g_e` is
            // the exact negation of `g_e` on a head arc, so it is taken
            // as a sign-bit flip (cheaper than converting σ and
            // multiplying), and the select keeps it only where positive.
            // The sign of a zero share changes no sum or comparison, and
            // a NaN fraction stays NaN at both ends, so neither sends a
            // token.
            let flip = (i64::from(sg) as u64) & (1 << 63);
            let x = f64::from_bits(A::read(&fracs[e as usize]).to_bits() ^ flip);
            r += select_unpredictable(x <= 0.0, 0.0, x);
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
            let fe = &flows.elems()[edges[j] as usize];
            F::write(fe, F::read(fe) + signs[j] as i64 * i64::from(sent));
        }
    }
}

/// Materializes the [`FlowMemory::Rounded`] SOS memory: a pure zipped
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
/// whole tokens or fluid alike; returns the chunk's fused [`LoadStats`] —
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
    debug_assert!(
        nodes.start.is_multiple_of(DEV_BLOCK),
        "chunk must be block-aligned"
    );
    let zero = L::Val::ZERO;
    // Walk the chunk's arc ranges by splitting running slices (as
    // `arc_round_streamed` does) and zip the per-node tables, so the
    // inner loop carries no repeated global-range bounds checks.
    let offsets = &t.graph().arc_offsets()[nodes.start..=nodes.end];
    let chunk_arcs = offsets[0]..offsets[offsets.len() - 1];
    let mut edges_rest = &t.graph().arc_edge_ids()[chunk_arcs.clone()];
    let mut signs_rest = &t.graph().arc_orientations()[chunk_arcs];
    let ideals = &t.ideal[nodes.clone()];
    let load_elems = &loads.elems()[nodes.clone()];
    // Local node `k`'s arc reduction, in its exact sequential arc order:
    // its new load `x − Σ y` and its transient load `x − Σ max(y, 0)`.
    // A macro, not a closure, so that every use is inline: LLVM outlined
    // the closure's stale-flow instance, one call per node (+8% per
    // round on a 5%-stale run).
    macro_rules! reduce {
        ($k:expr) => {{
            let k: usize = $k;
            let deg = offsets[k + 1] - offsets[k];
            let (arc_edges, rest) = edges_rest.split_at(deg);
            edges_rest = rest;
            let (arc_signs, rest) = signs_rest.split_at(deg);
            signs_rest = rest;
            let (mut outgoing, mut net) = (zero, zero);
            for (&e, &sg) in arc_edges.iter().zip(arc_signs) {
                let y = flows(e as usize) * L::Val::from(sg);
                // The positive part, branchless: flow direction is essentially
                // random mid-run, so a `y > 0` branch would mispredict about
                // half the time. The select, hinted as unpredictable,
                // compiles to a conditional move (tokens) or `maxsd` (fluid)
                // in every instance (a plain `if` became a branch in the
                // stale-flow ones) and yields exactly `y` or zero;
                // a fluid accumulator that starts at `+0.0` and only adds
                // these is never `-0.0`, so `acc + 0.0 == acc` bit for bit:
                // identical to skipping non-positive `y`, NaN included.
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
            fold.node(news[l].to_f64(), ideals[k0 + l], transients[l].to_f64());
            L::write(&load_elems[k0 + l], news[l]);
        }
        fold.close(start + k0 + LANES, last, block_sums);
    }
    for k in main..len {
        let (new, transient) = reduce!(k);
        fold.node(new.to_f64(), ideals[k], transient.to_f64());
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
/// the arc orientation σ the apply pass multiplies by (`+1` at the tail,
/// `−1` at the head). The endpoints are matched to no other edge, so each
/// slot has this one writer in the round.
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
/// turns it into its flow `flow(e, Ŷ_e)` (fluid keeps it, tokens round
/// it: [`pair_rounding`]), and [`land`]s that at both endpoints unless
/// the edge is stale. Nothing is stored per edge.
#[allow(clippy::too_many_arguments)] // a flat hot-path kernel; a params struct would obscure it
pub(crate) fn pair_edge_step<S: Buf>(
    t: &KernelTables,
    edges: Range<usize>,
    active: &[u64],
    stale: Option<&[u64]>,
    (mem, gain): (f64, f64),
    loads: &S,
    sent: &S,
    flow: impl Fn(usize, f64) -> S::Val,
) {
    // The pool cuts a matching round's edge chunks at word boundaries,
    // so each word is visited by one participant.
    debug_assert!(
        edges.start.is_multiple_of(64) && (edges.end.is_multiple_of(64) || edges.end == t.m),
        "matching-round edge chunks must be cut at word boundaries"
    );
    // Only active edges are visited, so no gate is applied.
    let x = |i| loads.get(i).to_f64();
    let sched = Schedule::new(t, &AllEdges, 0..t.m, mem, gain, &x, &NoMemory);
    let pairs = t.graph().edges();
    for_each_set_bit(active, edges.start / 64..edges.end.div_ceil(64), |e| {
        let y = flow(e, sched.flow(e));
        if !is_stale(stale, e) {
            land(sent, pairs[e], y);
        }
    });
}

/// A matching edge's integral flow in `round` for its scheduled flow `s`,
/// rounded inline: by the edge-local roundings as the fused pass rounds,
/// and by the randomized framework as its sender's one draw
/// ([`framework_token`]), so no fraction buffer and no node-state sweep
/// are needed.
pub(crate) fn pair_rounding(
    t: &KernelTables,
    rounding: Rounding,
    round: u64,
) -> impl Fn(usize, f64) -> i64 + '_ {
    let pairs = t.graph().edges();
    move |e, s| match rounding {
        Rounding::RoundDown => trunc_i64(s),
        Rounding::Nearest => round_i64(s),
        Rounding::UnbiasedEdge { seed } => unbiased_edge(seed, e, round, s),
        Rounding::RandomizedFramework { seed } => {
            let base = trunc_i64(s);
            let rk = rng::round_key(seed, round);
            base + framework_token(rk, pairs[e], s - base as f64)
        }
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
    let slots = loads.elems()[nodes.clone()]
        .iter()
        .zip(&sent.elems()[nodes.clone()]);
    for ((k, (le, se)), &ideal) in slots.enumerate().zip(&t.ideal[nodes]) {
        let y = L::read(se);
        L::write(se, zero);
        let x = L::read(le);
        let net = zero + y;
        let outgoing = zero + select_unpredictable(y > zero, y, zero);
        fold.node((x - net).to_f64(), ideal, (x - outgoing).to_f64());
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
        let t = KernelTables::new(&g, &s, false, 0.0);
        assert_eq!(t.n, 20);
        assert_eq!(t.m, g.edge_count());
        for e in 0..t.m {
            let (u, v) = g.edge(e as u32);
            assert_eq!(g.edges()[e], (u, v));
            let alpha = g.alpha(u, v);
            assert_eq!(t.coef_tail[e], alpha / s.get(u as usize));
            assert_eq!(t.coef_head[e], alpha / s.get(v as usize));
        }
        assert_eq!(t.graph().arc_offsets().len(), 21);
        assert_eq!(*t.graph().arc_offsets().last().unwrap(), g.arc_count());
        // Heterogeneous speeds keep two coefficient tables.
        assert!(!Arc::ptr_eq(&t.coef_tail, &t.coef_head));
        // The tables own the coefficients and `ideal`, nothing else.
        assert_eq!(t.memory_bytes(), 8 * (2 * t.m + t.n));
        let uniform = KernelTables::new(&g, &Speeds::uniform(20), false, 0.0);
        assert_eq!(uniform.memory_bytes(), 8 * (t.m + t.n));
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
        let prev_init: Vec<f64> = (0..m).map(|e| (e as f64) * 0.21 - 1.5).collect();
        for rounding in [
            Rounding::round_down(),
            Rounding::nearest(),
            Rounding::unbiased_edge(7),
        ] {
            let mut fused_prev = prev_init.clone();
            let mut fused_flows = vec![0i64; m];
            edge_pass_fused(
                &t,
                0..m,
                0.4,
                1.6,
                9,
                rounding,
                FlowMemory::Scheduled,
                |i| loads[i],
                &cells(&mut fused_prev),
                &cells(&mut fused_flows),
            );
            let sched: Vec<f64> = (0..m)
                .map(|e| {
                    0.4 * prev_init[e]
                        + 1.6
                            * (t.coef_tail[e] * loads[t.graph().edges()[e].0 as usize]
                                - t.coef_head[e] * loads[t.graph().edges()[e].1 as usize])
                })
                .collect();
            assert_eq!(fused_prev, sched, "{rounding:?} flow memory");
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

    /// The scheduled flows `Ŷ_e` the edge passes compute, recomputed
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
                let (u, v) = g.edges()[e];
                let s = mem * remembered[e]
                    + gain * (t.coef_tail[e] * x(u as usize) - t.coef_head[e] * x(v as usize));
                bits.map_or(s, |b| bit(b, e) as f64 * s)
            })
            .collect()
    }

    /// One framework round through the real passes, from `flows` and
    /// `prev`: [`edge_pass_scatter_gated`] over chunks of `5·split` edges,
    /// then [`arc_round_streamed`] over chunks of `split` nodes (round 5,
    /// seed 11). The fraction buffer is longer than `m`, with a NaN tail
    /// that would poison any token it reached.
    fn framework_round<G: EdgeGate>(
        t: &KernelTables,
        gate: &G,
        memory: FlowMemory,
        split: usize,
        x: impl Fn(usize) -> f64 + Copy,
        flows: &mut [i64],
        prev: &mut [f64],
    ) {
        let (n, m) = (t.n, t.m);
        let mut frac = vec![f64::NAN; t.graph().arc_count()];
        let (fr, fl, pr) = (cells(&mut frac), cells(flows), cells(prev));
        for lo in (0..m).step_by(5 * split) {
            let edges = lo..(lo + 5 * split).min(m);
            edge_pass_scatter_gated(t, gate, edges, 0.4, 1.6, memory, x, &fr, &fl, &pr);
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
    /// gate, both flow memories and any chunking.
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
            let prev_init: Vec<f64> = (0..m).map(|e| (e % 13) as f64 * 0.71 - 4.0).collect();
            let mut rng = SplitMix64::new(m as u64);
            let mask: Vec<u64> = (0..m.div_ceil(64)).map(|_| rng.next_u64()).collect();
            for memory in [FlowMemory::Rounded, FlowMemory::Scheduled] {
                let remembered: Vec<f64> = match memory {
                    FlowMemory::Rounded => flows_init.iter().map(|&y| y as f64).collect(),
                    FlowMemory::Scheduled => prev_init.clone(),
                };
                for bits in [None, Some(&mask[..])] {
                    let sched = scheduled(&t, bits, (0.4, 1.6), &remembered, x);
                    let mut direct = vec![0i64; m];
                    Rounding::randomized(11).round_flows(g, &sched, 5, &mut direct);
                    for split in [1, 3, n] {
                        let case =
                            format!("n={n} {memory:?} mask={} split {split}", bits.is_some());
                        let (mut flows, mut prev) = (flows_init.clone(), prev_init.clone());
                        let (f, p) = (&mut flows[..], &mut prev[..]);
                        match bits {
                            None => framework_round(&t, &AllEdges, memory, split, x, f, p),
                            Some(b) => framework_round(&t, &MaskBits(b), memory, split, x, f, p),
                        }
                        assert_eq!(flows, direct, "{case}");
                        let bits_of = |v: &[f64]| v.iter().map(|y| y.to_bits()).collect::<Vec<_>>();
                        match memory {
                            // The next round's memory is the rounded flows,
                            // copied by `prev_from_flows`.
                            FlowMemory::Rounded => {
                                let mut copy = vec![0.5f64; m];
                                prev_from_flows(0..m, &cells(&mut flows), &cells(&mut copy));
                                let as_f64: Vec<f64> = direct.iter().map(|&y| y as f64).collect();
                                assert_eq!(bits_of(&copy), bits_of(&as_f64), "{case} flow memory");
                            }
                            FlowMemory::Scheduled => {
                                assert_eq!(bits_of(&prev), bits_of(&sched), "{case} memory");
                            }
                        }
                    }
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
        let prev_init: Vec<f64> = (0..m).map(|e| (e as f64) * 0.11 - 0.9).collect();
        // The last round's integral flows: the memory under `Rounded`.
        let flows_init: Vec<i64> = (0..m as i64).map(|e| e % 7 - 3).collect();
        for memory in [FlowMemory::Rounded, FlowMemory::Scheduled] {
            let remembered: Vec<f64> = match memory {
                FlowMemory::Rounded => flows_init.iter().map(|&y| y as f64).collect(),
                FlowMemory::Scheduled => prev_init.clone(),
            };
            let expected = scheduled(&t, None, (0.3, 1.7), &remembered, |i| loads[i]);
            assert!(expected.iter().any(|&y| y > 0.0 && y.fract() != 0.0));
            assert!(expected.iter().any(|&y| y < 0.0 && y.fract() != 0.0));
            let mut frac = vec![9.9f64; m];
            let mut flows = flows_init.clone();
            let mut prev = prev_init.clone();
            edge_pass_scatter(
                &t,
                0..m,
                0.3,
                1.7,
                memory,
                |i| loads[i],
                &cells(&mut frac),
                &cells(&mut flows),
                &cells(&mut prev),
            );
            for (e, &s) in expected.iter().enumerate() {
                // The signed base and the signed fraction: the fraction
                // carries the sign of the flow, so it names the sender.
                assert_eq!(flows[e], s.trunc() as i64, "{memory:?} base flow {e}");
                assert_eq!(frac[e], s - s.trunc(), "{memory:?} fraction {e}");
            }
            match memory {
                FlowMemory::Rounded => assert_eq!(prev, prev_init, "prev is left untouched"),
                FlowMemory::Scheduled => assert_eq!(prev, expected),
            }
        }
    }

    /// A NaN scheduled flow truncates to a zero base and leaves a NaN
    /// fraction at both ends, so neither endpoint sends a token on any of
    /// its arcs: each of their sending edges keeps its base flow.
    #[test]
    fn nan_flow_sends_no_tokens() {
        let g = generators::torus2d(4, 4);
        let t = KernelTables::new(&g, &Speeds::uniform(16), false, 0.0);
        let m = t.m;
        let loads: Vec<f64> = (0..16).map(|i| ((i * 13) % 17) as f64).collect();
        let mut prev: Vec<f64> = (0..m).map(|e| (e % 5) as f64 * 0.9 - 2.0).collect();
        let bad = 5;
        prev[bad] = f64::NAN;
        let sched = scheduled(&t, None, (0.4, 1.6), &prev, |i| loads[i]);
        assert!(sched[bad].is_nan() && sched.iter().filter(|y| y.is_nan()).count() == 1);
        let mut frac = vec![0.0f64; m];
        let mut flows = vec![0i64; m];
        let (fr, fl) = (cells(&mut frac), cells(&mut flows));
        edge_pass_scatter(
            &t,
            0..m,
            0.4,
            1.6,
            FlowMemory::Scheduled,
            |i| loads[i],
            &fr,
            &fl,
            &cells(&mut prev),
        );
        assert!(fr.get(bad).is_nan());
        assert_eq!(fl.get(bad), 0);
        arc_round_streamed(&t, 0..16, 3, 2, &fr, &fl, &mut FwScratch::new());
        let (u, v) = g.edges()[bad];
        let mut checked = 0;
        for w in [u, v] {
            for (&e, &sg) in g.neighbor_edges(w).iter().zip(g.neighbor_signs(w)) {
                let e = e as usize;
                if e == bad || sched[e] * f64::from(sg) > 0.0 {
                    assert_eq!(fl.get(e), sched[e].trunc() as i64, "node {w} edge {e}");
                    checked += 1;
                }
            }
        }
        assert!(checked > 2, "the endpoints send on other edges too");
        // Elsewhere tokens still move: some edge carries more than its base.
        assert!((0..m).any(|e| fl.get(e) != sched[e].trunc() as i64));
    }

    /// Runs one gated edge pass (`0` fused, `1` scatter, `2` continuous)
    /// over each chunk between consecutive `bounds` in turn, from a fixed mid-run state on a
    /// heterogeneous-speed torus; returns the flows, memory and
    /// fractions it leaves.
    fn run_gated<G: EdgeGate>(
        t: &KernelTables,
        pass: usize,
        rounding: Rounding,
        memory: FlowMemory,
        gate: &G,
        bounds: &[usize],
    ) -> (Vec<i64>, Vec<f64>, Vec<f64>) {
        let m = t.m;
        let x = |i: usize| ((i * 13) % 17) as f64;
        let mut flows: Vec<i64> = (0..m as i64).map(|e| e % 5 - 2).collect();
        let mut prev: Vec<f64> = (0..m).map(|e| e as f64 * 0.17 - 2.0).collect();
        let mut frac = vec![9.9f64; m];
        {
            let (fl, pr) = (cells(&mut flows), cells(&mut prev));
            let af = cells(&mut frac);
            for w in bounds.windows(2) {
                let r = w[0]..w[1];
                match pass {
                    0 => edge_pass_fused_gated(
                        t, gate, r, 0.4, 1.6, 9, rounding, memory, x, &pr, &fl,
                    ),
                    1 => edge_pass_scatter_gated(t, gate, r, 0.4, 1.6, memory, x, &af, &fl, &pr),
                    _ => edge_pass_continuous_gated(t, gate, r, 0.4, 1.6, x, &pr),
                }
            }
        }
        (flows, prev, frac)
    }

    /// Every gated pass, under both flow memories: an all-ones
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
            for memory in [FlowMemory::Rounded, FlowMemory::Scheduled] {
                let case = format!("pass {pass} {rounding:?} {memory:?}");
                let run = |gate: &MaskBits<'_>, bounds: &[usize]| {
                    run_gated(&t, pass, rounding, memory, gate, bounds)
                };
                let all = run_gated(&t, pass, rounding, memory, &AllEdges, &[0, m]);
                assert_eq!(run(&MaskBits(&ones[..]), &[0, m]), all, "{case}");
                let whole = run(&MaskBits(&random[..]), &[0, m]);
                assert_ne!(whole, all, "{case}: the mask changes the pass");
                for a in [1, 13, 37, 67, 83] {
                    assert_ne!(a % LANES, 0);
                    let split = run(&MaskBits(&random[..]), &[0, a, m]);
                    assert_eq!(split, whole, "{case} split at {a}");
                }
                // A gated-out edge carries no flow (continuous: its flow
                // is the memory slot).
                let (flows, prev, _) = &whole;
                for e in (0..m).filter(|&e| bit(&random, e) == 0) {
                    match pass {
                        2 => assert_eq!(prev[e], 0.0, "{case} edge {e}"),
                        _ => assert_eq!(flows[e], 0, "{case} edge {e}"),
                    }
                }
            }
        }
    }

    /// Under `Rounded` the fused pass reads the memory from the flow
    /// slots — exactly what a stored `f64` copy of the last flows would
    /// hold — and never touches `prev`.
    #[test]
    fn rounded_memory_is_read_from_flows() {
        let g = generators::torus2d(5, 5);
        let t = KernelTables::new(&g, &Speeds::uniform(25), false, 0.0);
        let m = t.m;
        let loads: Vec<f64> = (0..25).map(|i| ((i * 13) % 17) as f64).collect();
        let last: Vec<i64> = (0..m as i64).map(|e| (e * 5) % 11 - 5).collect();
        let run = |flows: &mut Vec<i64>, prev: &mut Vec<f64>, memory| {
            edge_pass_fused(
                &t,
                0..m,
                0.4,
                1.6,
                3,
                Rounding::nearest(),
                memory,
                |i| loads[i],
                &cells(prev),
                &cells(flows),
            )
        };
        // Reference: the last flows stored as `Scheduled` memory.
        let mut ref_flows = vec![0i64; m];
        let mut ref_prev: Vec<f64> = last.iter().map(|&y| y as f64).collect();
        run(&mut ref_flows, &mut ref_prev, FlowMemory::Scheduled);
        let mut flows = last.clone();
        let mut untouched = vec![f64::NAN; m];
        run(&mut flows, &mut untouched, FlowMemory::Rounded);
        assert_eq!(flows, ref_flows);
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
}
