//! # sodiff-core — discrete diffusion load balancing
//!
//! A from-scratch implementation of the algorithms and analyses in
//! *Akbari, Berenbrink, Elsässer, Kaaser: "Discrete Load Balancing in
//! Heterogeneous Networks with a Focus on Second-Order Diffusion"*
//! (ICDCS 2015):
//!
//! * first-order (FOS) and second-order (SOS) diffusion schemes, both
//!   continuous (idealized) and discrete (integral tokens), in the
//!   homogeneous and heterogeneous (speed-proportional) models —
//!   [`Scheme`], [`Simulator`];
//! * the classic *pairwise* counterparts of diffusion: **dimension
//!   exchange** (rounds sweep the color classes of an edge coloring, so
//!   each node exchanges with one neighbor per round) and
//!   **matching-based balancing** (one maximal matching per round,
//!   round-robin or freshly randomized) — [`Scheme::dimension_exchange`],
//!   [`Scheme::matching_round_robin`], [`Scheme::matching_random`];
//! * the paper's randomized rounding framework plus deterministic and
//!   per-edge baselines — [`Rounding`];
//! * the SOS→FOS hybrid switch that removes the residual imbalance SOS
//!   leaves behind — [`SwitchPolicy`], [`ExperimentBuilder::hybrid`];
//! * coupled discrete/continuous deviation measurements — [`deviation`],
//!   [`Experiment::coupled_deviation`];
//! * the error-propagation matrices `M^t`/`Q(t)`, edge contributions, and
//!   the refined local divergence `Υ^C(G)` — [`divergence`];
//! * negative-load (transient) tracking in the engine and the paper's
//!   minimum-initial-load bounds — [`theory`];
//! * the evaluation metrics (max−avg, max local difference, 2-norm
//!   potential, remaining imbalance) — [`metrics`].
//!
//! # Quickstart
//!
//! The paper is an *experiment matrix* — every figure sweeps scheme ×
//! rounding × mode × topology × speeds — and the public API mirrors that.
//! One experiment is built with the typestate [`ExperimentBuilder`]: pick
//! a graph, pick a mode (the compiler enforces this step), refine, then
//! `build()` — every invalid input comes back as a typed [`BuildError`]
//! instead of a panic:
//!
//! ```
//! use sodiff_core::prelude::*;
//! use sodiff_graph::generators;
//! use sodiff_linalg::spectral;
//!
//! let graph = generators::torus2d(16, 16);
//! let spectrum = spectral::analyze(&graph, &Speeds::uniform(graph.node_count()));
//! let report = Experiment::on(&graph)
//!     .discrete(Rounding::randomized(42))
//!     .sos(spectrum.beta_opt())
//!     .init(InitialLoad::paper_default(graph.node_count()))
//!     .stop(StopCondition::MaxRounds(400))
//!     .build()
//!     .expect("valid experiment")
//!     .run();
//! assert!(report.final_metrics.max_minus_avg < 20.0);
//! ```
//!
//! Whole experiments can also be described *as text* and executed in
//! batches: a [`ScenarioSpec`] round-trips through `Display`/`FromStr`
//! (`topology=torus2d:16:16 scheme=sos_opt seed=42 …`), and the batch
//! [`Driver`] runs a slice of them over **one** persistent worker pool:
//!
//! ```
//! use sodiff_core::{Driver, ScenarioSpec};
//!
//! let specs = ScenarioSpec::parse_many(
//!     "name=sos topology=torus2d:16:16 scheme=sos_opt seed=42 stop=rounds:120\n\
//!      name=fos topology=torus2d:16:16 scheme=fos seed=42 stop=rounds:120\n",
//! )
//! .unwrap();
//! let batch = Driver::new().run_batch(&specs);
//! assert!(batch.errors.is_empty());
//! assert_eq!(batch.scenarios.len(), 2);
//! // At a short horizon SOS is far ahead of FOS (the paper's Figure 1).
//! assert!(batch.scenarios[0].report.final_metrics.max_minus_avg
//!     < batch.scenarios[1].report.final_metrics.max_minus_avg);
//! ```
//!
//! The builder and the `Simulator` methods above are the only entry
//! points: the configuration struct they fill is crate-internal.
//!
//! # The scheme-kernel layer, and adding a scheme
//!
//! Every scheme's per-round flow computation — edge pass, rounding hook,
//! apply pass, and barrier plan — lives in one crate-internal layer, the
//! `scheme_kernel` module. A simulation is the combination of two
//! statically dispatched axes: its *mode*, which decides what an edge
//! sends for its scheduled flow, and an *active plan* (all edges every
//! round, a precomputed family of edge bitmasks swept round-robin, or a
//! fresh random maximal matching per round). Every mode runs the one
//! edge pass, which stores a value per edge into its flow slot: the
//! scheduled flow itself in continuous mode, its rounded value under an
//! edge-local rounding, and its truncation under the randomized
//! framework, whose node-centric rounding phase then sends the excess
//! tokens. Around that update rule sits one *perturbation layer*
//! (the `perturb` module docs): a *fault plan* ([`FaultSpec`]:
//! deterministic node crash/rejoin, per-round edge drops, load shocks,
//! and stale-flow injection), a *load plan* ([`LoadSpec`]: Poisson
//! arrivals/departures, periodic hotspot bursts, diurnal swings, and an
//! adversarial injector that re-targets the currently most-loaded
//! node), and a *churn plan* ([`ChurnSpec`]: epoch-aligned node
//! departures and (re)arrivals over the graph's reserved node capacity,
//! with conservation-exact handoff of a departing node's entire load to
//! its live neighbors). All three draw from salted counter-indexed RNG
//! streams, write their load changes on the control thread before the
//! edge pass, and share one membership layer: crash and churn derive
//! one up-node set per 16-round epoch, its up-edge mask, and one
//! incrementally repaired sweep family.
//! `faults=none`, `load=none`, and `churn=none` plans keep every hot
//! loop on the original unperturbed kernels.
//! State is `i64` tokens and flows in discrete mode and `f64` loads and
//! flows in continuous mode; a diffusion run's last flows are its SOS
//! memory.
//! Perturbation load changes are written on
//! the control thread before each round's edge pass (and before the
//! pool's first barrier), so both the sequential executor and the
//! worker pool balance identical per-round loads and run the same
//! kernel calls in the same per-element order — pooled results are
//! bit-identical to sequential ones for every scheme, every fault plan,
//! every load plan, and every churn plan, by construction. Dynamic runs
//! stop through the dedicated [`StopCondition::Steady`] /
//! [`StopCondition::Horizon`] modes, which report windowed steady-state
//! deviation statistics ([`RunReport::steady`]) plus injected-token
//! accounting ([`RunReport::load`]) and churn-event accounting
//! ([`RunReport::churn`]) so conservation checks still hold
//! (`total == initial + injected + joined − departed`).
//!
//! To add a new scheme end to end, touch exactly these points:
//!
//! 1. **`scheme.rs`** — add the [`Scheme`] variant, its constructor, its
//!    parameter validation in `Scheme::check`, and its `(memory, gain)`
//!    coefficients (return `(0.0, 1.0)` if the scheme has no flow
//!    memory).
//! 2. **`scheme_kernel.rs`** — map the variant to an active plan in
//!    `SchemeKernel::new`, which is infallible: it only ever
//!    receives a configuration validated at build. If the scheme
//!    activates a subset of edges, build its masks here (e.g. from
//!    [`sodiff_graph::matching`]) and return the round's class from
//!    `SchemeKernel::prepare`, the round's one gate decision; if it
//!    needs its own per-edge coefficients, compute the pair here (as
//!    `exchange_coefs` does for the pairwise schemes) and build the
//!    kernel's tables from it with `KernelTables::with_coefs`, so every
//!    pass reads it with no further plumbing. Only a genuinely new
//!    *phase structure* requires touching `kernel.rs` itself. The fault axis
//!    composes automatically: any masked plan is intersected with the
//!    round's live/dropped edge sets, and sweep families are repaired
//!    incrementally at crash epochs — a new scheme only needs to decide
//!    whether its masks should be *re-covered* after node deaths
//!    (matchings: yes) or merely *masked out* (color classes: no), the
//!    `recover` flag of the sweep plan.
//! 3. **`error.rs`** — add `BuildError` variants for configurations the
//!    scheme cannot run on, and report them from
//!    `SchemeKernel::validate`. The experiment's one validation point,
//!    `ExperimentBuilder::build`, calls it once; nothing downstream
//!    checks the configuration again.
//! 4. **`scenario.rs`** — add the [`SchemeSpec`] variant with its
//!    `scheme=` text form (`Display`/`FromStr` must round-trip exactly;
//!    extend the proptest strategies in `tests/scenario_spec.rs`).
//! 5. **Tests** — pin a golden trace in `tests/golden_trace.rs`
//!    (sequential and pooled against the same checksum) and add the
//!    scheme to the determinism grid in `tests/determinism.rs`.
//! 6. **Bench** — add a `perf_baseline` case so `BENCH_rounds.json`
//!    tracks it (and extend the CI gate if it is a hot path).
//!
//! The engine, the pool, the builder plumbing, and the batch driver need
//! **no** changes: they are scheme-agnostic.
//!
//! # Persistence: exact checkpoint/resume
//!
//! Every point of the six-axis experiment matrix (scheme × rounding ×
//! mode × topology × speeds — faults, dynamic load, and topology churn
//! included) can be frozen mid-run and resumed **bit-identically**,
//! because all randomness is drawn from counter-indexed streams with no
//! serial generator state (see [`rng`]): a snapshot only carries the
//! genuinely evolving state — loads, SOS flow memory, round counters,
//! cumulative event counters, the churn axis's active-node overlay (the
//! one history-dependent piece of axis state, persisted verbatim so
//! restore never redraws a transition), and the run loop's one record
//! of its origin, hybrid/degradation flags and stop-condition trackers,
//! complete at every round boundary — while kernels, coefficient tables,
//! and fault/churn masks are re-derived from the [`ScenarioSpec`]
//! embedded in the checkpoint header. Only format v2 loads; the
//! pre-churn v1 is refused as an unsupported version. Scenario files opt
//! in with `ckpt=every:N:DIR`
//! (plus an automatic pre-degradation snapshot when the divergence
//! watchdog trips); programmatic runs use
//! [`ExperimentBuilder::checkpoint`] or
//! [`Simulator::snapshot`]/[`Simulator::restore`] directly. The
//! [`checkpoint`] module holds the versioned, checksummed file format;
//! the batch recovery story (the recovery journal,
//! [`Driver::resume_batch`], bounded retry-with-backoff for panicked
//! scenarios) lives in the batch [`Driver`], not there. Loading a
//! damaged file **never panics** — truncation, bit corruption, and
//! version skew all surface as typed [`CheckpointError`] variants.
//!
//! # Performance
//!
//! The round loop is the measured fast path of this workspace (see
//! `crates/bench/src/bin/perf_baseline.rs`, which emits
//! `BENCH_rounds.json` at the repo root). Its design, in three layers:
//!
//! **Division-free fused edge kernels** (`kernel` module, crate-private).
//! At construction the simulator's scheme kernel precomputes the
//! per-edge coefficient pair its rounds read — `(α_e/s_u, α_e/s_v)` for
//! FOS/SOS, the λ-scaled pair `(λ·s_v/(s_u+s_v), λ·s_u/(s_u+s_v))` for
//! dimension exchange and matchings, and nothing else (one value when
//! every edge has the same pair, else one shared table under uniform
//! speeds, where the two halves are the same `f64`) — so the
//! scheduled-flow pass is a pure multiply–add sweep
//! `Ŷ_e = mem·y_e + gain·(c_tail·x_u − c_head·x_v)`, `y_e` the last
//! round's flow, with no
//! `f64` division and no `Speeds::get` indirection. The sweep walks
//! each tail's out-range, reading the heads the CSR stores and the
//! tail's load once, and the apply pass
//! walks the graph's own CSR, each node's in-arcs through their edge ids
//! and then its out-arcs as one contiguous edge range, so no orientation
//! sign is stored or read: the kernel tables hold a clone of the
//! [`sodiff_graph::Graph`], whose CSR arrays are shared, not copied. For
//! the edge-local rounding schemes
//! (round-down, nearest, per-edge unbiased) the rounding is fused into
//! the same sweep, whose integral flows are the next round's SOS
//! memory, and rounding itself
//! avoids libm (`trunc`/`round`/`floor` become exact integer-cast
//! sequences — on baseline x86-64 the libm calls dominated the old
//! kernel). Hot loops zip pre-sliced ranges so bounds checks vanish
//! without any `unsafe`.
//!
//! **Streaming three-phase randomized pipeline** (`kernel` module). The
//! paper's randomized rounding framework — long the slowest discrete
//! configuration — runs as three streaming phases instead of four
//! gather-heavy sweeps: the edge pass truncates the scheduled flow on the
//! spot (one truncating cast per edge) and writes its signed fractional
//! part into one per-edge slot; the node-centric rounding phase then
//! derives each arc's share from that slot and the arc's orientation,
//! builds the node's prefix sums once, skips token-free nodes, and
//! distributes excess tokens with per-node RNG streams whose warmed-up
//! states are computed only for sending nodes, from a hoisted round key
//! (one `mix64`, the warm-up discard fused into the key mix), and whose
//! draws come straight off the stream counter (`rng::nth_u64`) with a
//! branchless prefix-count selection — no serial RNG dependency, no
//! data-dependent branch per entry. All outputs are **bit-identical** to the original
//! per-node `SplitMix64` formulation (`tests/golden_trace.rs`,
//! `tests/golden_rng.rs`).
//!
//! **Scheme-kernel dispatch** (`scheme_kernel` module). Both executors
//! keep their state in one container, `RoundState` (plain vectors on the
//! sequential executor, relaxed atomics on the pool), and drive a round
//! through the same three steps: `prepare` on the control thread, which
//! makes the round's one gate decision, one participant function that
//! runs the round's phase sequence on the masks `prepare` returned —
//! over every edge and node sequentially, over its chunk with the
//! barrier between phases on each pool participant — and `collect`,
//! which merges the statistics and folds the block partials. The flow
//! pass × active plan is selected once per simulation through plain
//! enums. The diffusion plan runs the gated phases, each edge pass
//! monomorphized per edge gate, so FOS/SOS run with no mask test — the
//! layer adds no per-round indirection to them — while the masking fault
//! channels run the same loop bodies under a branchless per-edge mask
//! bit. The pairwise plans' active sets are matchings, and the pairwise
//! schemes keep no flow memory, so in every mode they run a matching
//! round instead: an edge step over the set bits of the round's matching
//! (word-aligned edge chunks on the pool), one barrier, and a node step,
//! `O(|M| + n)` per round rather than `O(m)` and two arc walks, with the
//! gated phases' loads bit for bit. A pairwise run's state is its loads
//! alone.
//!
//! **Persistent worker pool + concurrent scenario scheduling** (`pool` /
//! `driver` modules). With [`ExperimentBuilder::threads`]`(t > 1)`,
//! `t − 1` workers are spawned once and park on a barrier between rounds;
//! the framework needs two internal barriers per round (after the
//! scatter pass and after the node-centric rounding), a matching round
//! one (between its edge and node steps). The batch
//! [`Driver`] re-targets one pool at every simulation of a scenario file
//! ([`Driver::with_threads`]) or — new — schedules **independent
//! scenarios concurrently** ([`Driver::concurrent`]): K workers pull
//! scenarios off a work-stealing queue and run each on the sequential
//! executor, which scales with cores for many-small-scenario batches
//! without any per-round synchronization. Pooled and concurrent results
//! are **bit-identical** to sequential ones (`tests/determinism.rs`,
//! `tests/driver_concurrent.rs`).
//!
//! **Fused in-loop metrics** (`kernel::LoadStats` + the apply pass).
//! The apply pass reduces, in the same sweep that applies flows, the
//! minimum transient load, the post-round min/max deviations against a
//! precomputed balanced loads ([`KernelTables`'s `ideal`]), and
//! per-64-node-block squared-deviation partials folded in block order.
//! Threshold/plateau-stopped runs therefore make exactly **one pass
//! over the node loads per round** — the old per-round `O(n + m)`
//! `metrics()` sweep is gone — and every run report's final metrics
//! come from the same fused statistics ([`Simulator::round_metrics`]),
//! bit-identical to a from-scratch recompute for every scheme, mode,
//! and thread count (`tests/fused_metrics.rs`). Cost: ~4–5% on bare
//! diffusion rounds (the reduction rides the apply pass); win: metric-
//! stopped rounds dropped 12.83 → 8.65 ns/edge (1.48×, same-day A/B).
//!
//! The round-loop perf overhaul (PR 5) rebuilt the per-round overhead
//! paths: sort-free `O(m)` random-matching generation
//! ([`matchgen`]: counting-scatter buckets, measured 3.2× over the
//! sort in isolation by a since-retired criterion bench; perfbench's
//! `matchgen.ns_per_edge` times the pass today), the fused metrics
//! reduction above, lane-chunked bulk RNG sweeps
//! ([`rng::fill_node_states`] / [`rng::fill_first_draws`], ~8%; the
//! rounding phase has since replaced its state sweep with one state per
//! sending node, and the first-draw sweep still keys [`matchgen`]), and
//! running-slice apply iteration (which alone took the masked pairwise
//! rounds from ~16.1 to ~9.6 ns/edge). Same-day A/B on the build
//! container (baseline tree → this tree):
//!
//! | case | before | after |
//! |------|-------:|------:|
//! | 256×256 torus, matching (random), nearest | 60.75 | 23.96 (**2.54×**) |
//! | 256×256 torus, matching (round-robin), nearest | 16.13 | 9.59 (1.68×) |
//! | 256×256 torus, dimension exchange, nearest | 16.13 | 9.70 (1.66×) |
//! | 256×256 torus, SOS nearest + threshold stop | 12.83 | 8.65 (1.48×) |
//! | 256×256 torus, SOS discrete nearest | 7.90 | 8.22 (+4%) |
//! | 256×256 torus, SOS discrete **randomized** | 17.32 | 18.16 (+5%) |
//! | 256×256 torus, SOS continuous | 4.45 | 4.49 (+1%) |
//!
//! (The committed `BENCH_rounds.json` was refreshed the same day; its
//! absolute values sit a few percent above this table where the
//! container was busier during the committed run. Host drift, not
//! code: the **unchanged** PR-4 tree re-measured the same day at 7.90
//! `sos_discrete_nearest` / 17.32 randomized / 4.45 continuous / 16.13
//! de — all above its own committed 7.37 / 16.46 / 4.37 / 16.08 — so
//! cross-file deltas of ±5–20% on this box say nothing about the code;
//! trust the same-day A/B column pairs above. The CI gates normalize
//! by the same-run `sos_discrete_nearest` ratio, so they are immune to
//! this drift.)
//!
//! The dynamic-workload axis (`load=`, 2026-08) follows the fault
//! axis's cost discipline: with `load=none` the round loop takes the
//! exact pre-load code paths (same-run min-batch ns/edge ratio vs the
//! fault-free baseline measured at 0.998), and an active
//! `load=poisson:2:42` plan adds only the control-thread generator draw
//! plus a sparse delta application — no extra per-round sweep —
//! measured at 8.40 vs 8.45 min ns/edge against its own `load=none`
//! twin (`sos_load_poisson` in `BENCH_rounds.json`, ratio-gated at +25%
//! like the other kernels).
//!
//! The churn axis (`churn=`, 2026-08) is held to the same
//! discipline: with `churn=none` the kernel's plan predicates all
//! compile the churn path away and the round loop takes the exact
//! pre-churn code. That the all-off path (`faults=none load=none
//! churn=none`) publishes no mask is checked exactly by a scheme-kernel
//! unit test; the old same-run ≤ 1.02 timing gates compared one
//! configuration with itself and were removed (2026-10). An active `churn=flux:…` plan does all of its
//! work on the control thread at 16-round epoch boundaries — one bulk
//! counter-indexed draw sweep over the node capacity, a sparse handoff
//! delta list, and an incremental sweep-mask repair — and between
//! epochs only adds the branchless active-edge mask intersection the
//! fault axis already pays for, so the steady per-round cost rides the
//! existing masked kernels (`sos_churn_flux`, ratio-gated at +25%).
//!
//! The pairwise schemes' rounds touch only the round's matching (the
//! matching round above), so their ns-per-edge cost, taken over all `m`
//! edges, is not comparable to diffusion's.
//! The random-matching plan's remaining premium over round-robin
//! (~14 ns/edge) is the per-round `O(m)` bucket generation — counting,
//! scatter, and greedy passes that are random-access bound; see
//! [`matchgen`] for the layout choices that keep them cache-resident.
//!
//! **8-lane chunked SIMD edge/apply kernels** (PR 9). Every hot per-edge pass — the fused discrete kernels, the
//! framework's scatter pass and the continuous kernel, under either
//! edge gate, and the apply pass — now runs as 8-lane
//! chunks with a scalar tail, the same shape that paid off in the bulk
//! RNG sweeps ([`rng::fill_first_draws`]). Per-edge work is independent and each
//! lane performs the identical operation sequence on its own edge, so
//! the chunked loops are **bit-identical** to the scalar originals (the
//! full argument lives in the `kernel` module docs; every pinned
//! checksum in `tests/golden_trace.rs` is unchanged). The win is
//! largest where the old loops carried a per-edge branch: under a mask
//! the pairwise/fault passes multiply by the edge's bit and go
//! branchless. The random-matching generator additionally packs the
//! greedy pass's endpoint pairs into one `u64` stream ([`matchgen`]).
//! Same-day A/B, 256×256 torus,
//! single-thread default build (min-estimator ns/edge):
//!
//! | case | before | after |
//! |------|-------:|------:|
//! | dimension exchange, nearest | 16.56 | 8.63 (**1.92×**) |
//! | matching (round-robin), nearest | 16.58 | 8.71 (**1.90×**) |
//! | SOS + crash churn (masked kernel) | 16.65 | 8.68 (**1.92×**) |
//! | matching (random), nearest | 31.25 | 23.37 (**1.34×**) |
//! | SOS discrete nearest (unmasked) | — | 1.03× t1 / 1.13× t4 |
//! | SOS continuous | — | 1.05× |
//!
//! The unmasked diffusion kernels were already pure multiply–add
//! streams, so lane-chunking mostly helps the compiler's scheduling
//! there; the masked kernels are where the restructuring removes real
//! work. Levers tried and **rejected** on measurement, so they are not
//! re-attempted blindly: an opt-in x86-64 software-prefetch path for
//! the matchgen and scatter passes (removed 2026-10: 6 alternating
//! `perf_baseline` pairs on a 2-vCPU host showed no resolvable gain —
//! random matching 48.5 vs 47.9 min ns/edge, 3–3 pairs), an opt-in
//! cache-blocked edge renumbering for graphs whose per-edge state
//! outgrows the last-level cache (removed 2026-10: 6 alternating
//! `perf_baseline` runs of FOS on the 2048² torus, 2-vCPU host, median
//! min ns/edge 7.26 plain vs 7.28 blocked, blocked faster in 2 of 6),
//! a compact state layout storing loads and per-edge state as
//! `i32`/`f32` (`mem=compact`, removed 2026-10: single 10-round runs
//! through the `scenarios` example on a 2-vCPU host cut peak RSS only
//! 707 → 580 MB on the 2048² torus and 2757 → 2309 MB on the 4096²
//! torus under SOS with randomized rounding, and 467 → 451 MB on the
//! 2048² torus under FOS with nearest rounding, because the graph and
//! kernel tables dominate; and its `i32` storage capped the total load
//! at 2²⁹ tokens, so it refused the paper's own `init=paper` on every
//! torus from 1024² up — the only sizes where the saving mattered),
//! splatting a
//! uniform coefficient across lanes for speed (no gain — the loads are
//! the bottleneck, not the coefficient reads; `kernel::Coefs::Same` now
//! does exactly that, for memory: a pair that every edge shares, which
//! the degrees and the speeds decide at build, is held as one value and
//! read by every lane, so no table is stored), a
//! degree-4 specialization of
//! the apply pass (regressed irregular graphs), and replacing
//! nearest-rounding with truncation (~1–1.5 ns/edge cheaper but
//! bit-pinned: rounding mode is part of the golden surface).
//!
//! **One copy of the round state** (2026-10). Each piece of per-node and
//! per-edge state now lives in exactly one buffer. On the worker pool the
//! job's atomic `RoundState` is the simulation's only store — the simulator keeps no
//! load, flow or memory vectors beside them, so a pooled round ends at
//! its last barrier with no O(n + m) copy back to the control thread, and
//! [`Simulator::loads_i64`], [`Simulator::loads_f64`] and
//! [`Simulator::previous_flows`] hand out a copy only when asked
//! (borrowed on the sequential executor, which keeps plain vectors so
//! its kernels stay plain loads and stores rather than atomics). A
//! discrete run's SOS memory is the integral flow itself, read as
//! `flows[e] as f64` by the edge pass — bit for bit the value
//! the old stored `f64` copy held — so that copy and its per-round
//! rewrite are gone; an `f64` memory remains only in continuous runs,
//! where it is the round's flows. State bytes on the
//! 256² torus (SOS, randomized rounding): 7 340 032 → 3 670 016 on the
//! 2-thread pool (loads 0.5 MiB, arc fractions 2 MiB, flows 1 MiB) and
//! 4 718 592 → 3 670 016 sequential. End to end on the
//! `torus_sos_balance` benchmark workload (2-vCPU host, 10 alternating
//! pairs): peak RSS 22.9 → 19.4 MB and process CPU 3.64 → 3.22 s
//! (medians), with identical rounds and final imbalance.
//!
//! **One copy of every table** (2026-10). The graph's CSR arrays live
//! behind one shared allocation, so a [`sodiff_graph::Graph`] clone is a
//! reference-count bump. The kernel tables hold such a clone and read
//! the adjacency and the edges from it instead of copying them, and
//! under uniform speeds the tail and head coefficient tables
//! (and the pairwise schemes' λ-scaled pair) are one buffer, since the
//! two halves are the same `f64`s. A simulation's footprint is therefore graph
//! bytes + table bytes + state bytes
//! ([`sodiff_graph::Graph::memory_bytes`] + [`Simulator::table_bytes`] +
//! [`Simulator::state_bytes`]); on the 256² torus (SOS, randomized
//! rounding) that was 3 932 168 + 2 621 440 + 3 670 016 B, where the
//! tables held 6 553 608 B before. Every table is fully written when it
//! is built, so the saving is resident for the whole run: VmRSS right
//! after the simulator is built drops 15.9 → 12.1 MB, and the
//! `torus_sos_balance` peak RSS (VmHWM) 19.53 → 15.78 MB (medians of 10
//! alternating pairs, 2-vCPU host), with identical rounds and final
//! imbalance. After the entries below, the same run's footprint is
//! 1 572 872 + 0 + 2 621 440 B.
//!
//! **One rounding fraction per edge** (2026-10). Every edge has exactly
//! one sender, so the randomized framework keeps one signed fraction
//! `Ŷ_e − trunc(Ŷ_e)` per edge instead of one slot per arc, and the
//! rounding phase derives each arc's share from it and the arc's
//! orientation; the edge-to-arc position table that located the arc
//! slots is gone. On the 256² torus (SOS, randomized rounding) the
//! footprint goes from 3 932 168 + 2 621 440 + 3 670 016 B to
//! 3 932 168 + 1 572 864 + 2 621 440 B (graph + table + state bytes,
//! −2 MiB), and the `torus_sos_balance` peak RSS (VmHWM) falls
//! 15.31 → 13.74 MB (medians of 10 alternating pairs, 2-vCPU host),
//! with identical rounds and final imbalance. The price is in the
//! rounding phase, which now gathers each fraction through the arc's
//! edge id: a few ns per node at degree 4, against about 1 ns per edge
//! saved in the scatter. `torus_sos_balance` process CPU rose by 6.6%
//! (2.47 → 2.63 s by median), and `mixed_sweep`'s fell by 9.8%
//! (3.79 → 3.42 s, with a spread as wide as the change).
//!
//! **One copy of every neighbour** (2026-10). The CSR no longer stores
//! an arc-indexed neighbour array: an arc's neighbour is the endpoint of
//! its edge that does not own the arc, so
//! [`sodiff_graph::Graph::neighbors`] derives it from the arc's edge. No
//! round kernel read the stored array; the churn handoff, BFS and
//! [`divergence`] walk the derived neighbours. The graph's bytes go from
//! `8·(n + 1) + 26·m` to `8·(n + 1) + 18·m`: 3 932 168 → 2 883 592 B on
//! the 256² torus. In the same change the randomized framework stopped
//! keeping a per-node RNG-state buffer: the rounding phase computes a
//! node's warmed-up state only once the node is known to send tokens.
//!
//! **One value for a table that does not vary** (2026-10). A coefficient
//! pair or balanced-load table whose entries all hold the same `f64`
//! bits is stored as that value, and each edge, apply and matching pass
//! picks its loop once per call, so the lane loops read the value from a
//! register with the same operands in the same order. Under uniform
//! speeds that covers the `α_e/s` pair of every graph whose edges share
//! their larger endpoint degree (every regular graph, and a star), every
//! graph's λ-scaled pair and every run's balanced loads. An irregular graph under
//! uniform speeds keeps one shared coefficient table (`8·m` bytes), and
//! non-uniform speeds keep two tables and per-node balanced loads
//! (`16·m + 8·n`). On the 256² torus the table bytes go from 1 572 864
//! to 0, so building the simulator faults 738 pages instead of 1 122,
//! and the `torus_sos_balance` peak RSS (VmHWM) falls 11.08 → 9.55 MB
//! (medians of 10 alternating pairs, 2-vCPU host; 11.08 → 9.57 MB at
//! seed 1234), with identical rounds and final imbalance.
//!
//! **In-arcs, then out-arcs** (2026-10). Edges are sorted by
//! `(tail, head)`, so a node's out-arcs are one contiguous edge-id range
//! and each of its in-arcs has a smaller id than any of its out-arcs. The
//! CSR stores two `u32` offset arrays and one in-arc edge id per edge;
//! no orientation sign and no out-arc edge id. The apply and rounding
//! passes read the in-arcs (σ = −1) through their ids and the out-arcs
//! (σ = +1) as a range, in the arc order they read before, so every sum
//! and prefix keeps its bits. The graph's bytes go from
//! `8·(n + 1) + 18·m` to `8·(n + 1) + 12·m`: 2 883 592 → 2 097 160 B on
//! the 256² torus. In the same change [`sodiff_graph::Speeds`] stores
//! equal speeds as one value, so a homogeneous simulator no longer holds
//! `n` copies of 1.0 (524 288 B on the torus). The `torus_sos_balance`
//! peak RSS (VmHWM) falls 9.57 → 8.23 MB (medians of 10 alternating
//! pairs, 2-vCPU host; 9.59 → 8.22 MB at seed 1234), with identical
//! rounds and final imbalance.
//!
//! **Each edge's head only** (2026-10). Edges are sorted by
//! `(tail, head)`, so edge `e`'s tail is the node whose out-range holds
//! `e`: the CSR stores one head per edge and no tail, and the graph
//! derives a tail by walking the out-ranges, by one search, or with a
//! forward cursor ([`sodiff_graph::Tails`]). The edge passes walk their
//! range node-major and read `x_u` once per node; the matching round and
//! the random-matching generator find their edges' tails with the
//! cursor, so the random plan no longer keeps an endpoint table (8 B per
//! edge). The operands of every flow keep their order, so no value
//! moves. The graph's bytes go from `8·(n + 1) + 12·m` to
//! `8·(n + 1) + 8·m`: 2 097 160 → 1 572 872 B on the 256² torus, which
//! is now built without a pair list. The `torus_sos_balance` peak RSS
//! (VmHWM) falls 8.29 → 7.73 MB (medians of 10 alternating pairs,
//! 2-vCPU host; 8.32 → 7.70 MB at seed 1234), with identical rounds and
//! final imbalance. The node-major walk costs the edge passes about
//! 5–13% per edge on the torus (fused 3.54 → 3.99 ns, scatter
//! 2.38 → 2.50, min of 4 alternating runs), which the end-to-end
//! `cpu_s` does not show.
//!
//! **Tables decided by the structure** (2026-10). Under uniform speeds
//! the degrees and the speeds decide every table, so the build no
//! longer computes each entry to find out that they agree. The
//! diffusion pair is one value exactly when every edge has the same
//! larger endpoint degree: one pass over the offsets finds the degree
//! range (a regular graph stops there), one integer pass over the edges
//! settles the rest, and an irregular graph's shared table is filled
//! from a per-degree lookup of `1/(d + 1)/s`, the per-edge expression,
//! so every entry keeps its bits. The pairwise λ pair and the balanced
//! loads are one value with no pass. Non-uniform speeds keep the
//! per-edge build. `KernelTables::new` on the 256² torus takes 0.028 ms
//! (was 1.25; median of 40 calls), and the `torus_sos_balance`
//! `setup_s` falls 3.42 → 2.23 ms (medians of 10 alternating pairs,
//! 2-vCPU host; lower in 10 of 10), with identical rounds, final
//! imbalance, state bytes and table bytes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod deviation;
pub mod divergence;
mod driver;
mod engine;
mod error;
mod experiment;
pub mod hybrid;
mod init;
#[doc(hidden)]
pub mod kernel;
#[doc(hidden)]
pub mod matchgen;
pub mod metrics;
mod observer;
mod perturb;
mod pool;
pub mod rng;
mod rounding;
mod scenario;
mod scheme;
mod scheme_kernel;
pub mod theory;
mod watch;

pub use checkpoint::{
    read_checkpoint, write_checkpoint, Checkpoint, CheckpointConfig, CheckpointPolicy, Snapshot,
};
pub use driver::{BatchReport, Driver, ScenarioError, ScenarioFailure, ScenarioReport};
pub use engine::{Mode, RoundInputs, RunReport, Simulator, StopCondition, StopReason};
// Accepted and ignored by the all-edges kernel wrappers that the
// stand-alone `perfbench` package calls.
pub use error::{BuildError, CheckpointError, ParseError};
pub use experiment::{Experiment, ExperimentBuilder, NeedsMode, Ready};
pub use hybrid::SwitchPolicy;
pub use init::InitialLoad;
#[doc(hidden)]
pub use kernel::FlowMemory;
pub use metrics::MetricsSnapshot;
pub use observer::{MetricsRow, NullObserver, Observer, Recorder};
pub use perturb::{
    AdversarialLoad, ChurnChannel, ChurnEvents, ChurnSpec, DiurnalLoad, FaultChannel, FaultEvents,
    FaultSpec, HotspotLoad, LoadEvents, LoadSpec, PoissonLoad, EPOCH_LEN, MAX_BURST, MAX_RATE,
};
pub use rounding::{Rounding, RoundingSpec};
pub use scenario::{InitSpec, ModeSpec, ScenarioSpec, SchemeSpec, SpeedsSpec};
pub use scheme::{MatchingStrategy, Scheme};
pub use watch::SteadyStats;

/// Convenient glob import: `use sodiff_core::prelude::*;`.
pub mod prelude {
    pub use crate::checkpoint::{
        read_checkpoint, write_checkpoint, Checkpoint, CheckpointConfig, CheckpointPolicy, Snapshot,
    };
    pub use crate::driver::{BatchReport, Driver, ScenarioError, ScenarioFailure, ScenarioReport};
    pub use crate::engine::{Mode, RunReport, Simulator, StopCondition, StopReason};
    pub use crate::error::{BuildError, CheckpointError, ParseError};
    pub use crate::experiment::{Experiment, ExperimentBuilder};
    pub use crate::hybrid::SwitchPolicy;
    pub use crate::init::InitialLoad;
    pub use crate::metrics::MetricsSnapshot;
    pub use crate::observer::{MetricsRow, NullObserver, Observer, Recorder};
    pub use crate::perturb::{
        AdversarialLoad, ChurnChannel, ChurnEvents, ChurnSpec, DiurnalLoad, FaultChannel,
        FaultEvents, FaultSpec, HotspotLoad, LoadEvents, LoadSpec, PoissonLoad,
    };
    pub use crate::rounding::{Rounding, RoundingSpec};
    pub use crate::scenario::ScenarioSpec;
    pub use crate::scheme::{MatchingStrategy, Scheme};
    pub use crate::watch::SteadyStats;
    pub use sodiff_graph::{Speeds, TopologySpec};
    pub use sodiff_linalg::spectral::beta_opt;
}
