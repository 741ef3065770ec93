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
//! A round is two functions. [`SchemeKernel::prepare`] runs on the
//! control thread: the perturbation channels, the random matching (if
//! the plan draws one) and the round's effective mask — so per-round
//! plan state never depends on the executor; the pool then publishes the
//! mask words into its job. [`SchemeKernel::phases`] is the one phase
//! sequence — edge pass, the framework's rounding phase, apply pass —
//! generic over the buffer views (`Cell`s or atomics), the mask and
//! stale word sources, and a sync hook between phases (a no-op in the
//! sequential round, the barrier on the pool). Each edge pass is gated
//! statically: the all-edges plan runs [`kernel::AllEdges`], with no
//! mask test in the loop; a mask runs [`kernel::MaskBits`], which forces
//! an inactive edge's flow to zero with a branchless bit test. The
//! sequential executor ([`SchemeKernel::run_sequential`]) and every pool
//! participant therefore execute the *same* kernel calls in the same
//! per-element order, so pooled results are bit-identical to sequential
//! ones for every scheme — the property `tests/determinism.rs` and the
//! golden traces check.
//!
//! Pairwise schemes replace the diffusion coefficients `α_e/s` with the
//! λ-scaled harmonic-speed pair `coef_tail = λ·s_v/(s_u+s_v)`,
//! `coef_head = λ·s_u/(s_u+s_v)`, so an active edge schedules
//! `y = λ·(s_u·s_v/(s_u+s_v))·(x_u/s_u − x_v/s_v)` — exact pairwise
//! averaging at `λ = 1` under uniform speeds.
//!
//! See the "adding a scheme" walkthrough in the crate docs
//! ([`crate`]) for the end-to-end list of touch points.

use std::ops::Range;

use sodiff_graph::{matching, EdgeId, Graph, Speeds};

use crate::engine::{FlowMemory, Mode};
use crate::error::BuildError;
use crate::kernel::{
    self, AllEdges, BufF64, BufI64, CellsF64, CellsI64, CoefPair, EdgeGate, FwScratch,
    KernelTables, LoadStats, MaskBits, Words,
};
use crate::matchgen::{self, mask_words, MatchScratch};
use crate::perturb::{Fluid, Perturb, PerturbSpec, RoundMasks, Tokens};
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

/// One simulation's round state as a round participant sees it: `Cell`
/// views of the sequential executor's vectors ([`CellsI64`] /
/// [`CellsF64`]) or the pool job's relaxed atomics
/// ([`kernel::AtomicsI64`] / [`kernel::AtomicsF64`]). Buffers the mode
/// does not use are empty.
pub(crate) struct ChunkBufs<I, F> {
    /// Integer loads (discrete mode).
    pub loads_i: I,
    /// Continuous loads (continuous mode).
    pub loads_f: F,
    /// Per-edge SOS memory (continuous mode — where it also carries the
    /// round's flows — and [`FlowMemory::Scheduled`]; empty under
    /// [`FlowMemory::Rounded`], whose memory is `flows`).
    pub prev: F,
    /// Arc-indexed fractional parts (framework flow pass only).
    pub arc_frac: F,
    /// Per-edge integral flows (discrete mode), kept across rounds: they
    /// are the SOS memory under [`FlowMemory::Rounded`].
    pub flows: I,
}

/// A round's scalar inputs.
#[derive(Clone, Copy)]
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
    /// words. On the pool the workers are parked, so the control thread
    /// has exclusive access to the job's atomics.
    pub fn prepare<'a, I: BufI64, F: BufF64>(
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
            FlowPass::Continuous => {
                perturb.begin_round(spec, graph, round, sweep, &Fluid(&bufs.loads_f));
            }
            _ => perturb.begin_round(spec, graph, round, sweep, &Tokens(&bufs.loads_i)),
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

    /// One full sequential round: [`Self::prepare`], then [`Self::phases`]
    /// over every edge and node, then the block fold. Returns the round's
    /// fused load statistics.
    pub fn run_sequential(
        &self,
        t: &KernelTables,
        graph: &Graph,
        args: &RoundArgs,
        bufs: &ChunkBufs<CellsI64<'_>, CellsF64<'_>>,
        scratch: &mut RoundScratch,
    ) -> LoadStats {
        let RoundScratch {
            fw,
            matchgen,
            block_sums,
            perturb,
        } = scratch;
        let masks = self.prepare(t, graph, args.round, bufs, matchgen, perturb);
        let blocks = kernel::dev_blocks(t.n);
        block_sums.resize(blocks, 0.0);
        let sums = kernel::cells_f64(block_sums);
        let (edges, nodes, stale) = (0..t.m, 0..t.n, masks.stale);
        let mut stats = match masks.active {
            None => self.phases(
                t,
                args,
                edges,
                nodes,
                bufs,
                &sums,
                fw,
                AllEdges,
                stale,
                || {},
            ),
            Some(w) => self.phases(
                t,
                args,
                edges,
                nodes,
                bufs,
                &sums,
                fw,
                MaskBits(w),
                stale,
                || {},
            ),
        };
        stats.sum_sq_dev = kernel::fold_block_sums(blocks, &sums);
        stats
    }

    /// The one phase sequence of a round, over one participant's `edges`
    /// and `nodes`: the gated edge pass, the framework's rounding phase,
    /// then the apply pass with its fused statistics, with `sync` between
    /// phases — a no-op in the sequential round, the pool's barrier on a
    /// participant. Every executor runs the same kernel calls in the same
    /// per-element order, so pooled results are bit-identical to
    /// sequential ones. `stale`, when set, marks the edges whose flow
    /// never lands. Per-block squared-deviation partials go to `sums`
    /// (the returned statistics leave `sum_sq_dev` to the caller's fold).
    #[allow(clippy::too_many_arguments)] // one participant's full round context
    pub fn phases<I, F, G, S>(
        &self,
        t: &KernelTables,
        args: &RoundArgs,
        edges: Range<usize>,
        nodes: Range<usize>,
        bufs: &ChunkBufs<I, F>,
        sums: &F,
        fw: &mut FwScratch,
        gate: G,
        stale: Option<&S>,
        sync: impl Fn(),
    ) -> LoadStats
    where
        I: BufI64,
        F: BufF64,
        G: EdgeGate,
        S: Words + ?Sized,
    {
        let &RoundArgs {
            mem,
            gain,
            round,
            flow_memory,
        } = args;
        let (coefs, flows, prev) = (self.coefs(t), &bufs.flows, &bufs.prev);
        let x = |i| bufs.loads_i.get(i) as f64;
        match self.flow {
            FlowPass::Continuous => {
                let x = |i| bufs.loads_f.get(i);
                kernel::edge_pass_continuous_gated(t, coefs, &gate, edges, mem, gain, x, prev);
                sync();
                let loads = &bufs.loads_f;
                return match stale {
                    None => kernel::apply_continuous(t, nodes, |e| prev.get(e), loads, sums),
                    Some(s) => kernel::apply_continuous(
                        t,
                        nodes,
                        |e| if s.bit(e) == 1 { 0.0 } else { prev.get(e) },
                        loads,
                        sums,
                    ),
                };
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
                let arc_frac = &bufs.arc_frac;
                kernel::edge_pass_scatter_gated(
                    t,
                    coefs,
                    &gate,
                    edges,
                    mem,
                    gain,
                    flow_memory,
                    x,
                    arc_frac,
                    flows,
                    prev,
                );
                sync();
                kernel::arc_round_streamed(t, nodes.clone(), seed, round, arc_frac, flows, fw);
            }
        }
        sync();
        // A stale edge's flow was computed and recorded in the flow
        // memory above, but its tokens never land.
        let loads = &bufs.loads_i;
        match stale {
            None => kernel::apply_discrete(t, nodes, |e| flows.get(e), loads, sums),
            Some(s) => kernel::apply_discrete(
                t,
                nodes,
                |e| flows.get(e) * (s.bit(e) ^ 1) as i64,
                loads,
                sums,
            ),
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
    /// memory) over plain vectors.
    #[allow(clippy::too_many_arguments)]
    fn discrete_round(
        k: &SchemeKernel,
        t: &KernelTables,
        g: &Graph,
        round: u64,
        loads: &mut [i64],
        prev: &mut [f64],
        flows: &mut [i64],
        scratch: &mut RoundScratch,
    ) -> LoadStats {
        let bufs = ChunkBufs {
            loads_i: kernel::cells_i64(loads),
            loads_f: kernel::cells_f64(&mut []),
            prev: kernel::cells_f64(prev),
            arc_frac: kernel::cells_f64(&mut []),
            flows: kernel::cells_i64(flows),
        };
        let args = RoundArgs {
            mem: 0.0,
            gain: 1.0,
            round,
            flow_memory: FlowMemory::Rounded,
        };
        k.run_sequential(t, g, &args, &bufs, scratch)
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
        let stats = discrete_round(
            &k,
            &t,
            &g,
            0,
            &mut loads,
            &mut prev,
            &mut flows,
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
            discrete_round(
                &k,
                &t,
                &g,
                round,
                &mut loads,
                &mut prev,
                &mut flows,
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
            discrete_round(
                &k,
                &t,
                &g,
                round,
                &mut loads,
                &mut prev,
                &mut flows,
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
