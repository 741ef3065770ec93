//! The perturbation layer: everything that happens to a round *around*
//! the paper's update rule — faults, dynamic load, and live-topology
//! churn — as channels of one per-round plan.
//!
//! Every channel draws from a counter-indexed SplitMix64 stream (the
//! [`crate::rng`] design) keyed by `(seed ⊕ kind-salt, round-or-epoch,
//! k)`, and all of them run on the control thread before the round's
//! flow pass (before the pool's first barrier). There is no serial RNG
//! state, so the sequential executor and the worker pool see the same
//! perturbations in the same order and stay bit-identical. Three specs
//! describe the channels, one per scenario key:
//!
//! * [`FaultSpec`] (`faults=`), what goes wrong:
//!   * **crash** freezes nodes on fixed epochs of [`EPOCH_LEN`] rounds:
//!     each node is independently down for a whole epoch with
//!     probability `p` (fresh draws per epoch, so nodes crash *and*
//!     rejoin at epoch boundaries). A downed node's incident edges carry
//!     no flow, so its load is frozen, and it **returns with its frozen
//!     load**.
//!   * **edgedrop** drops each edge (it carries no flow) for one round
//!     with probability `p`, drawn fresh every round.
//!   * **shock** fires with probability `p` per round and moves a
//!     quarter of a random crash-live donor's load to a random other
//!     crash-live node. Shocks conserve the total.
//!   * **stale** loses each edge's *applied* flow for one round with
//!     probability `p`: the flow is computed and remembered as usual,
//!     but the loads are not updated (a lossy apply). Stale losses are
//!     symmetric, so they also conserve the total.
//! * [`LoadSpec`] (`load=`), what work arrives:
//!   * **poisson** draws two Poisson(`rate`) counts per round; each
//!     arrival adds one token at a uniformly random node and each
//!     departure removes one (`total == initial + injected`).
//!   * **hotspot** moves `burst` tokens every `period` rounds from a
//!     random other node onto a fixed node (`node` modulo `n`).
//!   * **diurnal** injects `amp · sin(2π·r/period)` tokens (rounded to
//!     the nearest integer in discrete mode) at the rotating node
//!     `r mod n`; it has no seed.
//!   * **adversarial** piles `burst` tokens onto the currently most
//!     loaded node every `period` rounds, drained from a random other
//!     node.
//!
//!   Injection is oblivious to membership: a token arriving at a downed
//!   or departed node waits there until the node is back.
//! * [`ChurnSpec`] (`churn=`), which nodes exist: the single **flux**
//!   channel runs a Markov chain over the graph's `n` node slots (the
//!   cluster's reserved capacity). At each epoch boundary every active
//!   slot departs with probability `P_LEAVE` and every inactive slot
//!   (re)arrives with probability `P_JOIN`. A departing machine hands
//!   its whole load to its post-transition active neighbors in
//!   adjacency order — discrete loads split `⌊L/k⌋` each with the first
//!   `L mod k` neighbors taking one extra token (Euclidean division, so
//!   negative loads stay exact), continuous loads `L/k` with the last
//!   neighbor absorbing the remainder. Only a machine with no active
//!   neighbor takes its load out of the system ([`ChurnEvents::departed`]);
//!   an arrival brings the configured `INIT` load
//!   ([`ChurnEvents::joined`]). Every churned run keeps
//!   `total == initial + injected + joined − departed`. The overlay is
//!   history-dependent, so checkpoints persist its words and restore
//!   never redraws a transition.
//!
//! **One membership layer.** Crash and churn both change membership on
//! `EPOCH_LEN` boundaries, so at each boundary the layer derives one
//! node set `up = churn-active ∧ crash-live`, its up-edge mask, and one
//! sweep family (dimension-exchange color classes, round-robin
//! matchings) repaired incrementally against `up`
//! ([`sodiff_graph::matching::repair_matching`] /
//! [`sodiff_graph::matching::mask_dead_edges`]) from the pristine base
//! family. Each round's effective mask is then `plan mask ∧ up-edges ∧
//! ¬dropped`, composed in one loop that also counts drops and stale
//! losses. Only crash, edgedrop and churn gate a round's edge pass by
//! this mask ([`crate::kernel::MaskBits`]); shocks, stale losses and
//! every load generator leave it on the plan's own gate.
//!
//! **One write path.** Per round the channels run in a fixed order —
//! crash epoch, edge draws, shock, churn transition, load injection —
//! and write their load changes straight through one [`Loads`] view of
//! the executor's load buffer. So churn sees the loads after the shock,
//! and the adversarial generator sees them after the churn handoff (and
//! before the round's other injections). A shock moves exactly a
//! quarter of the donor's load, in the buffer's own arithmetic; churn
//! and injection deltas are whole token counts carried as `f64`, exact
//! for any load below 2⁵³ tokens.
//!
//! In scenario text the channels of one spec join with `+`; see the
//! grammar table in [`crate::scenario`]. A spec of `none` (the default)
//! keeps every run on the unperturbed code paths.

use std::fmt;
use std::ops::RangeInclusive;
use std::str::FromStr;

use sodiff_graph::{matching, ActiveSet, Graph};

use crate::error::{BuildError, ParseError};
use crate::kernel::{Buf, Value};
use crate::rng::{fill_first_draws, nth_u64, salted_stream_key, unit_f64};

/// Length of a membership epoch in rounds: the crash schedule redraws
/// which nodes are down, and the churn chain takes one transition, every
/// `EPOCH_LEN` rounds, so membership changes only at round numbers
/// divisible by `EPOCH_LEN`.
pub const EPOCH_LEN: u64 = 16;

/// Per-kind seed salts so channels sharing one user seed decorrelate.
const CRASH_SALT: u64 = 0x6372_6173_685f_9d1c;
const DROP_SALT: u64 = 0x6564_6765_6472_6f70;
const SHOCK_SALT: u64 = 0x7368_6f63_6b5f_5f5f;
const STALE_SALT: u64 = 0x7374_616c_655f_5f5f;
const POISSON_SALT: u64 = 0x706f_6973_736f_6e5f;
const HOTSPOT_SALT: u64 = 0x686f_7473_706f_745f;
const ADVERSE_SALT: u64 = 0x6164_7665_7273_655f;
const FLUX_SALT: u64 = 0x6368_7572_6e5f_5f5f;

/// Upper bound on the Poisson rate (expected events per round); keeps
/// the per-round draw loop short and the arithmetic exact.
pub const MAX_RATE: f64 = 1024.0;

/// Upper bound on burst sizes and the diurnal amplitude; keeps every
/// delta exactly representable in both `i64` and `f64`.
pub const MAX_BURST: i64 = 1_000_000_000;

/// Hard safety cap on one round's Poisson count (the rate bound makes
/// reaching it astronomically unlikely).
const MAX_EVENTS_PER_DRAW: u64 = 4096;

/// Largest accepted initial load of an arriving machine.
const MAX_INIT: f64 = 1_000_000_000.0;

// ---------------------------------------------------------------------
// The grammar shared by the three specs.
// ---------------------------------------------------------------------

/// One channel kind of a spec's grammar: its name, the shape quoted in
/// arity errors, and the accepted number of fields after the kind.
type Kind = (&'static str, &'static str, RangeInclusive<usize>);

/// Parses a channel list: `none`, or `+`-joined `kind:field:…` parts.
/// Checks each part's kind, arity and uniqueness, hands its fields to
/// `set` (with the kind's index in `kinds`), then runs the spec's range
/// `check`. Every error reads `in <axis> '<text>': <why>`.
fn parse_channels<S: Default>(
    axis: &str,
    noun: &str,
    text: &str,
    kinds: &[Kind],
    mut set: impl FnMut(&mut S, usize, &[&str]) -> Result<(), String>,
    check: fn(&S) -> Result<(), BuildError>,
) -> Result<S, ParseError> {
    let bad = |why: String| ParseError::new(format!("in {axis} '{text}': {why}"));
    let mut spec = S::default();
    if text == "none" {
        return Ok(spec);
    }
    let mut seen = 0u64;
    for part in text.split('+') {
        let fields: Vec<&str> = part.split(':').collect();
        let Some(k) = kinds.iter().position(|kind| kind.0 == fields[0]) else {
            let names: Vec<&str> = kinds.iter().map(|kind| kind.0).collect();
            return Err(bad(format!(
                "unknown {noun} kind '{}' ({})",
                fields[0],
                names.join(", ")
            )));
        };
        let (name, shape, arity) = &kinds[k];
        if !arity.contains(&(fields.len() - 1)) {
            return Err(bad(format!("'{part}' should be {shape}")));
        }
        if seen & (1 << k) != 0 {
            return Err(bad(format!("duplicate {noun} kind '{name}'")));
        }
        seen |= 1 << k;
        set(&mut spec, k, &fields[1..]).map_err(bad)?;
    }
    check(&spec).map_err(|err| match err {
        BuildError::InvalidFaults(why)
        | BuildError::InvalidLoad(why)
        | BuildError::InvalidChurn(why) => bad(why),
        other => bad(other.to_string()),
    })?;
    Ok(spec)
}

/// Parses one numeric field, naming it on failure.
fn num<T: FromStr>(field: &str, what: &str) -> Result<T, String> {
    field.parse().map_err(|_| format!("bad {what} '{field}'"))
}

/// Writes the present channels joined with `+`, or `none`.
fn write_channels(f: &mut fmt::Formatter<'_>, parts: &[Option<String>]) -> fmt::Result {
    let mut parts = parts.iter().flatten().peekable();
    if parts.peek().is_none() {
        return f.write_str("none");
    }
    let mut sep = "";
    for part in parts {
        write!(f, "{sep}{part}")?;
        sep = "+";
    }
    Ok(())
}

/// Whether `p` is a probability.
fn is_probability(p: f64) -> bool {
    p.is_finite() && (0.0..=1.0).contains(&p)
}

// ---------------------------------------------------------------------
// Faults.
// ---------------------------------------------------------------------

/// One fault channel: an activation probability (or per-round rate) and
/// the RNG seed of its draw stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultChannel {
    /// Activation probability in `[0, 1]`.
    pub p: f64,
    /// Seed of the channel's counter-indexed draw stream.
    pub seed: u64,
}

/// A deterministic fault-injection plan: which perturbation channels are
/// active and with what probability/seed. See the module docs for the
/// semantics of each channel. [`FaultSpec::none`] (the default) injects
/// nothing and keeps every run on the unperturbed code paths.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultSpec {
    /// Node crash/rejoin churn on [`EPOCH_LEN`]-round epochs.
    pub crash: Option<FaultChannel>,
    /// Per-round independent edge drops.
    pub edgedrop: Option<FaultChannel>,
    /// Per-round load shocks (hotspot bursts).
    pub shock: Option<FaultChannel>,
    /// Per-round stale-flow (lossy apply) injection.
    pub stale: Option<FaultChannel>,
}

impl FaultSpec {
    /// The empty plan: no faults, unperturbed code paths.
    pub fn none() -> Self {
        Self::default()
    }

    /// Returns `true` if no channel is active.
    pub fn is_none(&self) -> bool {
        self.channels().iter().all(|(_, channel)| channel.is_none())
    }

    /// Adds a node crash/rejoin channel (probability `p`, seed `seed`).
    pub fn with_crash(mut self, p: f64, seed: u64) -> Self {
        self.crash = Some(FaultChannel { p, seed });
        self
    }

    /// Adds a per-round edge-drop channel.
    pub fn with_edgedrop(mut self, p: f64, seed: u64) -> Self {
        self.edgedrop = Some(FaultChannel { p, seed });
        self
    }

    /// Adds a per-round load-shock channel (rate `p`).
    pub fn with_shock(mut self, p: f64, seed: u64) -> Self {
        self.shock = Some(FaultChannel { p, seed });
        self
    }

    /// Adds a per-round stale-flow channel.
    pub fn with_stale(mut self, p: f64, seed: u64) -> Self {
        self.stale = Some(FaultChannel { p, seed });
        self
    }

    /// Validates every channel's probability (finite, in `[0, 1]`).
    ///
    /// # Errors
    ///
    /// [`BuildError::InvalidFaults`] naming the offending channel.
    pub fn check(&self) -> Result<(), BuildError> {
        for (kind, channel) in self.channels() {
            if let Some(FaultChannel { p, .. }) = channel {
                if !is_probability(p) {
                    return Err(BuildError::InvalidFaults(format!(
                        "{kind} probability {p} outside [0, 1]"
                    )));
                }
            }
        }
        Ok(())
    }

    /// The crash schedule's live set for `round` on an `n`-node graph:
    /// `out[v]` is `true` iff node `v` is up. All-true when no crash
    /// channel is configured. This is the *exact* schedule the simulator
    /// uses (same draws), exposed so analyses and tests can reconstruct
    /// which nodes were frozen in any epoch.
    pub fn live_nodes(&self, round: u64, n: usize) -> Vec<bool> {
        match self.crash {
            None => vec![true; n],
            Some(FaultChannel { p, seed }) => {
                bulk_draws(&mut Vec::new(), seed, CRASH_SALT, round / EPOCH_LEN, n)
                    .iter()
                    .map(|&d| unit_f64(d) >= p)
                    .collect()
            }
        }
    }

    /// The channels in grammar order, by kind name.
    fn channels(&self) -> [(&'static str, Option<FaultChannel>); 4] {
        [
            ("crash", self.crash),
            ("edgedrop", self.edgedrop),
            ("shock", self.shock),
            ("stale", self.stale),
        ]
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts = self
            .channels()
            .map(|(kind, c)| c.map(|FaultChannel { p, seed }| format!("{kind}:{p}:{seed}")));
        write_channels(f, &parts)
    }
}

impl FromStr for FaultSpec {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let kinds = ["crash", "edgedrop", "shock", "stale"]
            .map(|name| (name, "<kind>:<probability>:<seed>", 2..=2));
        parse_channels(
            "faults",
            "fault",
            s,
            &kinds,
            |spec: &mut Self, k, f| {
                let channel = Some(FaultChannel {
                    p: num(f[0], "probability")?,
                    seed: num(f[1], "seed")?,
                });
                let slot = match k {
                    0 => &mut spec.crash,
                    1 => &mut spec.edgedrop,
                    2 => &mut spec.shock,
                    _ => &mut spec.stale,
                };
                *slot = channel;
                Ok(())
            },
            Self::check,
        )
    }
}

/// Counts of the fault events a run actually experienced, reported in
/// [`crate::RunReport::faults`]. All zero for `faults=none` runs. The
/// counters accumulate over the simulator's lifetime (across repeated
/// `run_until` calls on the same [`crate::Simulator`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultEvents {
    /// Nodes that went down at an epoch boundary.
    pub crashes: u64,
    /// Nodes that came back up at an epoch boundary.
    pub rejoins: u64,
    /// Scheduled-active edges that dropped for a round.
    pub edges_dropped: u64,
    /// Load shocks that moved tokens.
    pub shocks: u64,
    /// Active edges whose applied flow was lost for a round.
    pub stale_edges: u64,
}

impl FaultEvents {
    /// Total churn events (crashes + rejoins): the boundaries between
    /// which per-node load freezing and live-set conservation hold.
    pub fn churn_events(&self) -> u64 {
        self.crashes + self.rejoins
    }
}

// ---------------------------------------------------------------------
// Dynamic load.
// ---------------------------------------------------------------------

/// The Poisson arrival/departure generator: `load=poisson:RATE:SEED`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonLoad {
    /// Expected arrivals per round (= expected departures per round),
    /// a finite value in `[0, MAX_RATE]`.
    pub rate: f64,
    /// Seed of the generator's counter-indexed draw stream.
    pub seed: u64,
}

/// The periodic hotspot burst: `load=hotspot:NODE:BURST:PERIOD:SEED`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HotspotLoad {
    /// Target node of the burst (taken modulo the node count).
    pub node: usize,
    /// Tokens moved per firing, in `[1, MAX_BURST]`.
    pub burst: i64,
    /// Firing period in rounds (fires when `round % period == 0`).
    pub period: u64,
    /// Seed of the donor-node draw stream.
    pub seed: u64,
}

/// The deterministic diurnal swing: `load=diurnal:AMP:PERIOD`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiurnalLoad {
    /// Peak injection amplitude in tokens, a finite value in
    /// `[0, MAX_BURST]`.
    pub amp: f64,
    /// Period of the sine swing in rounds.
    pub period: u64,
}

/// The adversarial most-loaded-region injector:
/// `load=adversarial:BURST:PERIOD:SEED`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdversarialLoad {
    /// Tokens piled onto the current argmax node per firing, in
    /// `[1, MAX_BURST]`.
    pub burst: i64,
    /// Firing period in rounds.
    pub period: u64,
    /// Seed of the donor-node draw stream.
    pub seed: u64,
}

/// A deterministic dynamic-workload plan: which load generators are
/// active and with what parameters. See the module docs for the
/// semantics of each generator. [`LoadSpec::none`] (the default)
/// injects nothing and keeps every run on the pre-load code paths.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LoadSpec {
    /// Poisson arrivals/departures at random nodes.
    pub poisson: Option<PoissonLoad>,
    /// Periodic burst onto a fixed node.
    pub hotspot: Option<HotspotLoad>,
    /// Deterministic sinusoidal surplus/deficit swing.
    pub diurnal: Option<DiurnalLoad>,
    /// Periodic burst onto the currently most-loaded node.
    pub adversarial: Option<AdversarialLoad>,
}

impl LoadSpec {
    /// The empty plan: no injection, pre-load code paths.
    pub fn none() -> Self {
        Self::default()
    }

    /// Returns `true` if no generator is active.
    pub fn is_none(&self) -> bool {
        self.poisson.is_none()
            && self.hotspot.is_none()
            && self.diurnal.is_none()
            && self.adversarial.is_none()
    }

    /// Adds a Poisson arrival/departure generator.
    pub fn with_poisson(mut self, rate: f64, seed: u64) -> Self {
        self.poisson = Some(PoissonLoad { rate, seed });
        self
    }

    /// Adds a periodic hotspot burst.
    pub fn with_hotspot(mut self, node: usize, burst: i64, period: u64, seed: u64) -> Self {
        self.hotspot = Some(HotspotLoad {
            node,
            burst,
            period,
            seed,
        });
        self
    }

    /// Adds a deterministic diurnal swing.
    pub fn with_diurnal(mut self, amp: f64, period: u64) -> Self {
        self.diurnal = Some(DiurnalLoad { amp, period });
        self
    }

    /// Adds an adversarial most-loaded-node injector.
    pub fn with_adversarial(mut self, burst: i64, period: u64, seed: u64) -> Self {
        self.adversarial = Some(AdversarialLoad {
            burst,
            period,
            seed,
        });
        self
    }

    /// Validates every generator's parameters (finite rates and
    /// amplitudes in range, positive bursts and periods).
    ///
    /// # Errors
    ///
    /// [`BuildError::InvalidLoad`] naming the offending generator.
    pub fn check(&self) -> Result<(), BuildError> {
        let bad = |why: String| Err(BuildError::InvalidLoad(why));
        let bursts = |kind: &str, burst: Option<i64>, period: u64| match burst {
            Some(b) if !(1..=MAX_BURST).contains(&b) => {
                bad(format!("{kind} burst {b} outside [1, {MAX_BURST}]"))
            }
            _ if period == 0 => bad(format!("{kind} period must be positive")),
            _ => Ok(()),
        };
        if let Some(PoissonLoad { rate, .. }) = self.poisson {
            if !rate.is_finite() || !(0.0..=MAX_RATE).contains(&rate) {
                return bad(format!("poisson rate {rate} outside [0, {MAX_RATE}]"));
            }
        }
        if let Some(h) = self.hotspot {
            bursts("hotspot", Some(h.burst), h.period)?;
        }
        if let Some(DiurnalLoad { amp, period }) = self.diurnal {
            if !amp.is_finite() || !(0.0..=MAX_BURST as f64).contains(&amp) {
                return bad(format!("diurnal amplitude {amp} outside [0, {MAX_BURST}]"));
            }
            bursts("diurnal", None, period)?;
        }
        if let Some(a) = self.adversarial {
            bursts("adversarial", Some(a.burst), a.period)?;
        }
        Ok(())
    }
}

impl fmt::Display for LoadSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_channels(
            f,
            &[
                self.poisson
                    .map(|PoissonLoad { rate, seed }| format!("poisson:{rate}:{seed}")),
                self.hotspot
                    .map(|h| format!("hotspot:{}:{}:{}:{}", h.node, h.burst, h.period, h.seed)),
                self.diurnal
                    .map(|DiurnalLoad { amp, period }| format!("diurnal:{amp}:{period}")),
                self.adversarial
                    .map(|a| format!("adversarial:{}:{}:{}", a.burst, a.period, a.seed)),
            ],
        )
    }
}

impl FromStr for LoadSpec {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let kinds = [
            ("poisson", "poisson:<rate>:<seed>", 2..=2),
            ("hotspot", "hotspot:<node>:<burst>:<period>:<seed>", 4..=4),
            ("diurnal", "diurnal:<amplitude>:<period>", 2..=2),
            ("adversarial", "adversarial:<burst>:<period>:<seed>", 3..=3),
        ];
        parse_channels(
            "load",
            "load",
            s,
            &kinds,
            |spec: &mut Self, k, f| {
                match k {
                    0 => {
                        spec.poisson = Some(PoissonLoad {
                            rate: num(f[0], "rate")?,
                            seed: num(f[1], "seed")?,
                        })
                    }
                    1 => {
                        spec.hotspot = Some(HotspotLoad {
                            node: num(f[0], "node")?,
                            burst: num(f[1], "burst")?,
                            period: num(f[2], "period")?,
                            seed: num(f[3], "seed")?,
                        })
                    }
                    2 => {
                        spec.diurnal = Some(DiurnalLoad {
                            amp: num(f[0], "amplitude")?,
                            period: num(f[1], "period")?,
                        })
                    }
                    _ => {
                        spec.adversarial = Some(AdversarialLoad {
                            burst: num(f[0], "burst")?,
                            period: num(f[1], "period")?,
                            seed: num(f[2], "seed")?,
                        })
                    }
                }
                Ok(())
            },
            Self::check,
        )
    }
}

/// Counts and totals of the injection a run actually experienced,
/// reported in [`crate::RunReport::load`]. All zero for `load=none`
/// runs. The counters accumulate over the simulator's lifetime (across
/// repeated `run_until` calls on the same [`crate::Simulator`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LoadEvents {
    /// Positive injection events applied (Poisson arrivals, burst
    /// inflows, diurnal surplus rounds).
    pub arrivals: u64,
    /// Negative injection events applied (Poisson departures, burst
    /// outflows, diurnal deficit rounds).
    pub departures: u64,
    /// Cumulative net injected tokens: the exact amount by which the
    /// live total exceeds the initial total, so conservation checks
    /// become `total == initial + injected`. Integer-valued in discrete
    /// mode (every delta is a whole token count).
    pub injected: f64,
}

// ---------------------------------------------------------------------
// Churn.
// ---------------------------------------------------------------------

/// The flux channel: per-epoch leave/join probabilities, the RNG seed of
/// the draw stream, and the initial load an arriving machine brings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnChannel {
    /// Per-epoch departure probability of an active slot, in `[0, 1]`.
    pub leave: f64,
    /// Per-epoch (re)arrival probability of an inactive slot, in `[0, 1]`.
    pub join: f64,
    /// Seed of the channel's counter-indexed draw stream.
    pub seed: u64,
    /// Load an arriving machine activates with (truncated to whole
    /// tokens in discrete mode), accounted in [`ChurnEvents::joined`].
    pub init: f64,
}

/// A deterministic live-topology churn plan. [`ChurnSpec::none`] (the
/// default) keeps membership static and every run on the pre-churn code
/// paths; see the module docs for the flux channel's semantics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChurnSpec {
    /// Epoch-aligned join/leave flux over the reserved node capacity.
    pub flux: Option<ChurnChannel>,
}

impl ChurnSpec {
    /// The empty plan: static membership, pre-churn code paths.
    pub fn none() -> Self {
        Self::default()
    }

    /// Returns `true` if membership is static.
    pub fn is_none(&self) -> bool {
        self.flux.is_none()
    }

    /// Adds the flux channel (leave/join probabilities and seed);
    /// arrivals start empty.
    pub fn with_flux(mut self, leave: f64, join: f64, seed: u64) -> Self {
        self.flux = Some(ChurnChannel {
            leave,
            join,
            seed,
            init: 0.0,
        });
        self
    }

    /// Sets the initial load arriving machines activate with (requires
    /// an active flux channel; a no-op otherwise).
    pub fn with_initial(mut self, init: f64) -> Self {
        if let Some(ch) = &mut self.flux {
            ch.init = init;
        }
        self
    }

    /// Validates the channel's probabilities and initial load.
    ///
    /// # Errors
    ///
    /// [`BuildError::InvalidChurn`] naming the offending field.
    pub fn check(&self) -> Result<(), BuildError> {
        let Some(ChurnChannel {
            leave, join, init, ..
        }) = self.flux
        else {
            return Ok(());
        };
        for (what, p) in [("leave", leave), ("join", join)] {
            if !is_probability(p) {
                return Err(BuildError::InvalidChurn(format!(
                    "{what} probability {p} outside [0, 1]"
                )));
            }
        }
        if !init.is_finite() || !(0.0..=MAX_INIT).contains(&init) {
            return Err(BuildError::InvalidChurn(format!(
                "initial load {init} outside [0, {MAX_INIT}]"
            )));
        }
        Ok(())
    }
}

impl fmt::Display for ChurnSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let flux = self.flux.map(|c| {
            let init = if c.init != 0.0 {
                format!(":{}", c.init)
            } else {
                String::new()
            };
            format!("flux:{}:{}:{}{init}", c.leave, c.join, c.seed)
        });
        write_channels(f, &[flux])
    }
}

impl FromStr for ChurnSpec {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let kinds = [(
            "flux",
            "flux:<p_leave>:<p_join>:<seed>[:<initial-load>]",
            3..=4,
        )];
        parse_channels(
            "churn",
            "churn",
            s,
            &kinds,
            |spec: &mut Self, _, f| {
                spec.flux = Some(ChurnChannel {
                    leave: num(f[0], "leave probability")?,
                    join: num(f[1], "join probability")?,
                    seed: num(f[2], "seed")?,
                    init: f.get(3).map_or(Ok(0.0), |x| num(x, "initial load"))?,
                });
                Ok(())
            },
            Self::check,
        )
    }
}

/// Accounting of the churn a run actually experienced, reported in
/// [`crate::RunReport::churn`]. All zero for `churn=none` runs. The
/// counters accumulate over the simulator's lifetime, and close the
/// conservation invariant `total == initial + injected + joined −
/// departed` (where `injected` is [`crate::LoadEvents::injected`]).
///
/// **Rejoin-semantics audit** (crash vs churn, so the channels compose
/// without double-counting): a *crash-frozen* node returns with its
/// frozen load — no entry in any account here or in
/// [`crate::FaultEvents`] beyond the crash/rejoin counters. A *churn
/// re-arrival* starts from the configured initial load — exactly `init`
/// enters the system and lands in [`ChurnEvents::joined`]; load parked
/// on the empty slot meanwhile was already counted at its source
/// (injection or shocks) and is simply returned to service.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChurnEvents {
    /// Machines that left at an epoch boundary.
    pub departures: u64,
    /// Machines that (re)arrived at an epoch boundary.
    pub arrivals: u64,
    /// Departures that handed their load to at least one active
    /// neighbor (the complement left with their load).
    pub handoffs: u64,
    /// Total load brought by arrivals (`arrivals × init`, truncated to
    /// whole tokens per arrival in discrete mode).
    pub joined: f64,
    /// Total load removed with neighborless departures.
    pub departed: f64,
}

impl ChurnEvents {
    /// Total membership events (departures + arrivals).
    pub fn total(&self) -> u64 {
        self.departures + self.arrivals
    }
}

// ---------------------------------------------------------------------
// The per-round plan.
// ---------------------------------------------------------------------

/// The three perturbation specs of one simulation.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PerturbSpec {
    /// The fault channels.
    pub faults: FaultSpec,
    /// The load generators.
    pub load: LoadSpec,
    /// The churn channel.
    pub churn: ChurnSpec,
}

impl PerturbSpec {
    /// Validates all three specs.
    pub fn check(&self) -> Result<(), BuildError> {
        self.faults.check()?;
        self.load.check()?;
        self.churn.check()
    }

    /// Whether no channel is active.
    pub fn is_none(&self) -> bool {
        self.faults.is_none() && self.load.is_none() && self.churn.is_none()
    }

    /// Whether membership changes at epoch boundaries (crash or churn).
    fn membership(&self) -> bool {
        self.faults.crash.is_some() || !self.churn.is_none()
    }

    /// Whether rounds run on the masked kernels (crash, edgedrop or
    /// churn), routing every plan — diffusion too — through the
    /// effective mask.
    pub fn masks_edges(&self) -> bool {
        self.membership() || self.faults.edgedrop.is_some()
    }
}

/// A round's load buffer as the channels see it: read a node's load,
/// add a delta to it, or move a shock's quarter between two nodes. Every
/// [`Buf`] is one, tokens and fluid alike (one impl over the buffer's
/// [`Value`] type); tests add views that refuse any access.
pub(crate) trait Loads {
    /// Whether the loads are whole tokens.
    const DISCRETE: bool;
    /// Node `i`'s load as `f64`.
    fn get(&self, i: usize) -> f64;
    /// Adds `delta` to node `i`'s load (a whole token count in discrete
    /// mode).
    fn add(&self, i: usize, delta: f64);
    /// Moves a quarter of `from`'s load to `to` — integer division on
    /// tokens, so exact for any `i64` load — and reports whether any
    /// load moved.
    fn shift_quarter(&self, from: usize, to: usize) -> bool;
}

/// Tokens or fluid behind any [`Buf`], in the buffer's own arithmetic:
/// a delta converts to the value type (truncated for tokens), and a
/// shock's quarter is the value type's division by four.
impl<B: Buf> Loads for B {
    const DISCRETE: bool = B::Val::INTEGRAL;
    fn get(&self, i: usize) -> f64 {
        Buf::get(self, i).to_f64()
    }
    fn add(&self, i: usize, delta: f64) {
        self.set(i, Buf::get(self, i) + B::Val::from_f64(delta));
    }
    fn shift_quarter(&self, from: usize, to: usize) -> bool {
        let amt = Buf::get(self, from) / B::Val::from(4);
        let moved = amt != B::Val::ZERO;
        if moved {
            self.set(from, Buf::get(self, from) - amt);
            self.set(to, Buf::get(self, to) + amt);
        }
        moved
    }
}

/// All bits of mask word `w` that correspond to a valid id below `len`.
#[inline]
fn valid_word(w: usize, len: usize) -> u64 {
    let base = w * 64;
    if base + 64 <= len {
        u64::MAX
    } else if base >= len {
        0
    } else {
        (1u64 << (len - base)) - 1
    }
}

/// Whether bit `i` of `words` is set.
#[inline]
fn bit(words: &[u64], i: usize) -> bool {
    (words[i >> 6] >> (i & 63)) & 1 == 1
}

/// The first draw of ids `0..len` in the `(seed ⊕ salt, index)` stream,
/// written into the reusable `buf`.
fn bulk_draws(buf: &mut Vec<u64>, seed: u64, salt: u64, index: u64, len: usize) -> &[u64] {
    buf.resize(buf.len().max(len), 0);
    fill_first_draws(salted_stream_key(seed, salt, index), 0, &mut buf[..len]);
    &buf[..len]
}

/// Samples a Poisson(`rate`) count from `key`'s draw stream starting at
/// counter `*k` (advanced past the draws used): the number of unit-rate
/// exponential inter-arrival gaps that fit into `rate`, accumulated in
/// log space so large rates stay stable.
fn poisson_count(key: u64, k: &mut u64, rate: f64) -> u64 {
    let mut count = 0u64;
    let mut acc = 0.0f64;
    loop {
        let u = unit_f64(nth_u64(key, *k));
        *k += 1;
        // u ∈ [0, 1) so 1 − u ∈ (0, 1] and the log is finite and ≤ 0.
        acc -= (1.0 - u).ln();
        if acc > rate || count >= MAX_EVENTS_PER_DRAW {
            return count;
        }
        count += 1;
    }
}

/// Draws a uniformly random node `≠ exclude` from one stream word
/// (exact distinct sampling, no rejection loop); requires `n ≥ 2`.
fn other_node(word: u64, n: usize, exclude: usize) -> usize {
    let d = (word % (n as u64 - 1)) as usize;
    if d >= exclude {
        d + 1
    } else {
        d
    }
}

/// One round's edge masks, as the flow passes consume them.
pub(crate) struct RoundMasks<'a> {
    /// The effective active-edge words (`None` = every edge).
    pub active: Option<&'a [u64]>,
    /// The stale-edge words the apply pass drops (`None` unless the
    /// stale channel is on).
    pub stale: Option<&'a [u64]>,
}

/// Control-thread perturbation state carried between rounds: the
/// epoch's membership (crash-live set, churn overlay, the derived up
/// edges and repaired sweep family), the round's drop/stale masks, and
/// the accumulated event counters. Lives in
/// [`crate::scheme_kernel::RoundScratch`], so the sequential executor
/// and the pool's control thread share one code path.
#[derive(Default)]
pub(crate) struct Perturb {
    /// Epoch whose membership is materialized (`None` before round 0).
    epoch: Option<u64>,
    /// Crash-live node words (crash channel only).
    live: Vec<u64>,
    /// Crash-live nodes in the current epoch (crash channel only).
    live_count: usize,
    /// The churn overlay — persisted verbatim in checkpoints (flux
    /// channel only).
    active: ActiveSet,
    /// `up = churn-active ∧ crash-live` node words (derivation scratch).
    up: Vec<u64>,
    /// Edges with both endpoints up.
    up_edges: Vec<u64>,
    /// The sweep family repaired against `up` (sweep plans under a
    /// membership channel only; empty otherwise).
    repaired: Vec<Vec<u64>>,
    /// The round's dropped-edge words (edgedrop channel only).
    drop: Vec<u64>,
    /// The round's stale-edge words (stale channel only), consumed by
    /// the apply pass.
    stale: Vec<u64>,
    /// The round's composed effective mask.
    eff: Vec<u64>,
    /// Raw draw scratch for the bulk RNG sweeps.
    draws: Vec<u64>,
    /// Accumulated fault counters.
    pub faults: FaultEvents,
    /// Accumulated injection counters and the injected-total account.
    pub load: LoadEvents,
    /// Accumulated churn counters and load accounts.
    pub churn: ChurnEvents,
}

impl Perturb {
    /// Per-round control-thread preparation, run before the round's flow
    /// pass in every executor: at epoch boundaries redraws the crash
    /// schedule and takes the churn transition, draws the round's drop
    /// and stale masks, and writes the shock, churn and injection load
    /// changes through `loads` in that order. `sweep` is the plan's base sweep
    /// family and its repair style (`true` re-covers freed nodes).
    pub fn begin_round<L: Loads>(
        &mut self,
        spec: &PerturbSpec,
        graph: &Graph,
        round: u64,
        sweep: Option<(&[Vec<u64>], bool)>,
        loads: &L,
    ) {
        if spec.is_none() {
            return;
        }
        let (n, m) = (graph.node_count(), graph.edge_count());
        let epoch = round / EPOCH_LEN;
        let boundary = spec.membership() && self.epoch != Some(epoch);
        if let (true, Some(crash)) = (boundary, spec.faults.crash) {
            self.draw_crash(crash, epoch, n);
        }
        if let Some(c) = spec.faults.edgedrop {
            self.fill_edge_mask(true, c, DROP_SALT, round, m);
        }
        if let Some(c) = spec.faults.stale {
            self.fill_edge_mask(false, c, STALE_SALT, round, m);
        }
        if let Some(shock) = spec.faults.shock {
            self.shock(shock, spec.faults.crash.is_some(), round, n, loads);
        }
        if let (true, Some(flux)) = (boundary, spec.churn.flux) {
            self.flux(flux, graph, epoch, loads);
        }
        if !spec.load.is_none() {
            self.inject(&spec.load, round, n, loads);
        }
        if boundary {
            self.derive_membership(spec, graph, sweep);
            self.epoch = Some(epoch);
        }
    }

    /// Redraws the crash schedule for `epoch`: fresh per-node draws,
    /// with crash/rejoin counting against the previous epoch
    /// (everything live before the first epoch).
    fn draw_crash(&mut self, FaultChannel { p, seed }: FaultChannel, epoch: u64, n: usize) {
        let nw = n.div_ceil(64).max(1);
        let draws = bulk_draws(&mut self.draws, seed, CRASH_SALT, epoch, n);
        let first = self.live.is_empty();
        self.live.resize(nw, 0);
        self.live_count = 0;
        for w in 0..nw {
            let valid = valid_word(w, n);
            let base = w * 64;
            let mut word = 0u64;
            for b in 0..64.min(n.saturating_sub(base)) {
                word |= u64::from(unit_f64(draws[base + b]) >= p) << b;
            }
            let old = if first { valid } else { self.live[w] };
            self.faults.crashes += u64::from((old & !word).count_ones());
            self.faults.rejoins += u64::from((!old & word & valid).count_ones());
            self.live_count += word.count_ones() as usize;
            self.live[w] = word;
        }
    }

    /// Draws one per-round Bernoulli edge mask: the drop mask, or the
    /// stale mask. Each 64-edge word's draws, the same as those of
    /// [`bulk_draws`], go to a stack array, and the word is built in a
    /// local.
    fn fill_edge_mask(&mut self, drop: bool, c: FaultChannel, salt: u64, round: u64, m: usize) {
        let key = salted_stream_key(c.seed, salt, round);
        let out = if drop {
            &mut self.drop
        } else {
            &mut self.stale
        };
        out.clear();
        out.resize(m.div_ceil(64).max(1), 0);
        let mut draws = [0u64; 64];
        for (w, word) in out.iter_mut().enumerate() {
            let draws = &mut draws[..m.saturating_sub(64 * w).min(64)];
            fill_first_draws(key, 64 * w, draws);
            let mut bits = 0;
            for (b, &draw) in draws.iter().enumerate() {
                bits |= u64::from(unit_f64(draw) < c.p) << b;
            }
            *word = bits;
        }
    }

    /// Rejection-samples a crash-live node id from `key`'s draw stream,
    /// starting at draw counter `k`, skipping `exclude`. Returns the
    /// node and the next unused counter; `None` after 128 rejections.
    fn pick_live(
        &self,
        crash: bool,
        key: u64,
        mut k: u64,
        n: usize,
        exclude: Option<usize>,
    ) -> Option<(usize, u64)> {
        for _ in 0..128 {
            let cand = (nth_u64(key, k) % n as u64) as usize;
            k += 1;
            if (!crash || bit(&self.live, cand)) && Some(cand) != exclude {
                return Some((cand, k));
            }
        }
        None
    }

    /// Runs the round's shock, if one fires: a quarter of a crash-live
    /// donor's load moves to a distinct crash-live hotspot, counted iff
    /// tokens move.
    fn shock<L: Loads>(
        &mut self,
        FaultChannel { p, seed }: FaultChannel,
        crash: bool,
        round: u64,
        n: usize,
        loads: &L,
    ) {
        let key = salted_stream_key(seed, SHOCK_SALT, round);
        let live_count = if crash { self.live_count } else { n };
        if unit_f64(nth_u64(key, 0)) >= p || live_count < 2 {
            return;
        }
        let Some((hotspot, k)) = self.pick_live(crash, key, 1, n, None) else {
            return;
        };
        let Some((donor, _)) = self.pick_live(crash, key, k, n, Some(hotspot)) else {
            return;
        };
        if loads.shift_quarter(donor, hotspot) {
            self.faults.shocks += 1;
        }
    }

    /// Takes the churn chain's transition for `epoch` and writes its
    /// conservation-exact handoff and arrival loads. Transition first,
    /// handoff second: a departing machine hands its load to neighbors
    /// active *after* the boundary, so load never lands on a slot
    /// emptying in the same epoch (and no departing load is read after
    /// a handoff wrote to it).
    fn flux<L: Loads>(&mut self, flux: ChurnChannel, graph: &Graph, epoch: u64, loads: &L) {
        let n = graph.node_count();
        if self.active.capacity() != n {
            self.active = ActiveSet::all_active(n);
        }
        let draws = bulk_draws(&mut self.draws, flux.seed, FLUX_SALT, epoch, n);
        // Each slot's move depends only on its own state and draw, so
        // the chain steps in place.
        let (mut departing, mut arriving) = (Vec::new(), Vec::new());
        for v in 0..n as u32 {
            let u = unit_f64(draws[v as usize]);
            if self.active.is_active(v) {
                if u < flux.leave {
                    self.active.deactivate(v);
                    departing.push(v);
                }
            } else if u < flux.join {
                self.active.activate(v);
                arriving.push(v);
            }
        }
        for v in departing {
            self.churn.departures += 1;
            let load = loads.get(v as usize);
            if load == 0.0 {
                continue;
            }
            let targets: Vec<usize> = graph
                .neighbor_nodes(v)
                .filter(|&u| self.active.is_active(u))
                .map(|u| u as usize)
                .collect();
            loads.add(v as usize, -load);
            let k = targets.len();
            if k == 0 {
                self.churn.departed += load;
                continue;
            }
            self.churn.handoffs += 1;
            if L::DISCRETE {
                let tokens = load as i64;
                let q = tokens.div_euclid(k as i64);
                let r = tokens.rem_euclid(k as i64) as usize;
                for (i, &u) in targets.iter().enumerate() {
                    let share = q + i64::from(i < r);
                    if share != 0 {
                        loads.add(u, share as f64);
                    }
                }
            } else {
                let share = load / k as f64;
                for &u in &targets[..k - 1] {
                    loads.add(u, share);
                }
                loads.add(targets[k - 1], load - share * (k - 1) as f64);
            }
        }
        let init = if L::DISCRETE {
            flux.init.trunc()
        } else {
            flux.init
        };
        for v in arriving {
            self.churn.arrivals += 1;
            if init != 0.0 {
                loads.add(v as usize, init);
                self.churn.joined += init;
            }
        }
    }

    /// Injects one round's events from every active generator's
    /// counter-indexed stream, with the event accounting. The
    /// adversarial generator scans the loads only on its firing rounds,
    /// and before any generator writes, so its target does not depend
    /// on the round's other injections.
    fn inject<L: Loads>(&mut self, spec: &LoadSpec, round: u64, n: usize, loads: &L) {
        let adversary = spec
            .adversarial
            .filter(|a| round.is_multiple_of(a.period) && n > 1)
            .map(|a| {
                let mut hot = 0usize;
                let mut best = loads.get(0);
                for i in 1..n {
                    let x = loads.get(i);
                    if x > best {
                        best = x;
                        hot = i;
                    }
                }
                (a, hot)
            });
        let events = &mut self.load;
        let mut push = |node: usize, delta: f64| {
            if delta > 0.0 {
                events.arrivals += 1;
            } else {
                events.departures += 1;
            }
            events.injected += delta;
            loads.add(node, delta);
        };
        if let Some(PoissonLoad { rate, seed }) = spec.poisson.filter(|p| p.rate > 0.0) {
            let key = salted_stream_key(seed, POISSON_SALT, round);
            let mut k = 0u64;
            for delta in [1.0, -1.0] {
                for _ in 0..poisson_count(key, &mut k, rate) {
                    push((nth_u64(key, k) % n as u64) as usize, delta);
                    k += 1;
                }
            }
        }
        if let Some(h) = spec.hotspot {
            if round.is_multiple_of(h.period) && n > 1 {
                let target = h.node % n;
                let key = salted_stream_key(h.seed, HOTSPOT_SALT, round);
                push(target, h.burst as f64);
                push(other_node(nth_u64(key, 0), n, target), -(h.burst as f64));
            }
        }
        if let Some(DiurnalLoad { amp, period }) = spec.diurnal {
            let phase = (round % period) as f64 / period as f64;
            let raw = amp * (std::f64::consts::TAU * phase).sin();
            let delta = if L::DISCRETE { raw.round() } else { raw };
            if delta != 0.0 {
                push((round % n as u64) as usize, delta);
            }
        }
        if let Some((a, hot)) = adversary {
            let key = salted_stream_key(a.seed, ADVERSE_SALT, round);
            push(hot, a.burst as f64);
            push(other_node(nth_u64(key, 0), n, hot), -(a.burst as f64));
        }
    }

    /// Derives the epoch's membership from the current crash-live set
    /// and churn overlay: `up`, its up-edge mask, and the sweep family
    /// repaired against `up` from the pristine base family (repair is
    /// history-dependent, so it never starts from last epoch's result).
    fn derive_membership(
        &mut self,
        spec: &PerturbSpec,
        graph: &Graph,
        sweep: Option<(&[Vec<u64>], bool)>,
    ) {
        let n = graph.node_count();
        let crash = spec.faults.crash.is_some();
        let churn = !spec.churn.is_none();
        self.up.clear();
        self.up.extend((0..n.div_ceil(64).max(1)).map(|w| {
            let live = if crash { self.live[w] } else { u64::MAX };
            let active = if churn {
                self.active.words()[w]
            } else {
                u64::MAX
            };
            valid_word(w, n) & live & active
        }));
        self.up_edges.clear();
        self.up_edges
            .resize(graph.edge_count().div_ceil(64).max(1), 0);
        for (e, (u, v)) in graph.edges().enumerate() {
            let both = bit(&self.up, u as usize) && bit(&self.up, v as usize);
            self.up_edges[e >> 6] |= u64::from(both) << (e & 63);
        }
        if let Some((masks, recover)) = sweep {
            self.repaired.resize(masks.len(), Vec::new());
            for (repaired, base) in self.repaired.iter_mut().zip(masks) {
                repaired.clone_from(base);
                if recover {
                    matching::repair_matching(graph, &self.up, repaired);
                } else {
                    matching::mask_dead_edges(graph, &self.up, repaired);
                }
            }
        }
    }

    /// The round's masks: the effective active mask `plan ∧ up-edges ∧
    /// ¬dropped` (`plan` `None` = all edges; a sweep plan's class is
    /// replaced by its repaired twin under a membership channel), and the
    /// stale words, counting the dropped and stale edges among the active
    /// ones. The active mask is `plan` itself when no channel masks edges.
    pub fn compose<'a>(
        &'a mut self,
        spec: &PerturbSpec,
        plan: Option<&'a [u64]>,
        round: u64,
        m: usize,
    ) -> RoundMasks<'a> {
        let masked = spec.masks_edges();
        let staling = spec.faults.stale.is_some();
        if !masked && !staling {
            return RoundMasks {
                active: plan,
                stale: None,
            };
        }
        let Self {
            repaired,
            up_edges,
            drop,
            stale,
            eff,
            faults,
            ..
        } = self;
        let repaired: &'a [Vec<u64>] = repaired;
        let plan = match repaired.len() {
            0 => plan,
            len => Some(&repaired[(round % len as u64) as usize][..]),
        };
        let membership = spec.membership();
        let dropping = spec.faults.edgedrop.is_some();
        let mw = m.div_ceil(64).max(1);
        eff.resize(mw, 0);
        for (w, out) in eff.iter_mut().enumerate() {
            let mut word = plan.map_or_else(|| valid_word(w, m), |words| words[w]);
            if membership {
                word &= up_edges[w];
            }
            if dropping {
                faults.edges_dropped += u64::from((word & drop[w]).count_ones());
                word &= !drop[w];
            }
            if staling {
                faults.stale_edges += u64::from((word & stale[w]).count_ones());
            }
            *out = word;
        }
        RoundMasks {
            active: if masked { Some(&eff[..]) } else { plan },
            stale: staling.then_some(&stale[..]),
        }
    }

    /// The churn overlay words for checkpointing (empty before the first
    /// churned round).
    pub fn churn_words(&self) -> &[u64] {
        self.active.words()
    }

    /// Rebuilds the state a run had after `round` completed rounds from
    /// its spec and checkpointed churn overlay: crash liveness is
    /// re-derived for epoch `(round − 1) / EPOCH_LEN` (a pure function
    /// of the spec's seeds), the overlay is installed verbatim (never
    /// redrawn), and the membership masks are derived once. The memoized
    /// epoch is the last processed round's, so the next round changes
    /// membership exactly when an uninterrupted run would. Event
    /// counters start at zero; the caller restores them.
    ///
    /// # Errors
    ///
    /// A description of the mismatch when the overlay cannot belong to
    /// this run: present under `churn=none` or before the first round,
    /// missing, the wrong word count, or marking slots at or above `n`.
    pub fn restore(
        spec: &PerturbSpec,
        graph: &Graph,
        sweep: Option<(&[Vec<u64>], bool)>,
        round: u64,
        overlay: &[u64],
    ) -> Result<Self, String> {
        let n = graph.node_count();
        let churned = !spec.churn.is_none() && round > 0;
        let words = if churned { n.div_ceil(64).max(1) } else { 0 };
        if overlay.len() != words {
            return Err(format!(
                "snapshot churn overlay has {} words, this run (churn={}, round {round}) \
                 expects {words}",
                overlay.len(),
                spec.churn
            ));
        }
        if (0..words).any(|w| overlay[w] & !valid_word(w, n) != 0) {
            return Err(format!(
                "snapshot churn overlay marks node slots at or above the node count {n}"
            ));
        }
        let mut state = Self::default();
        if round > 0 && spec.membership() {
            let epoch = (round - 1) / EPOCH_LEN;
            if let Some(crash) = spec.faults.crash {
                state.draw_crash(crash, epoch, n);
            }
            if churned {
                state.active = ActiveSet::from_words(n, overlay.to_vec());
            }
            state.derive_membership(spec, graph, sweep);
            state.epoch = Some(epoch);
        }
        Ok(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{cells, Atomics};
    use sodiff_graph::generators;
    use std::sync::atomic::{AtomicI64, Ordering::Relaxed};

    fn faults(faults: FaultSpec) -> PerturbSpec {
        PerturbSpec {
            faults,
            ..Default::default()
        }
    }

    fn load(load: LoadSpec) -> PerturbSpec {
        PerturbSpec {
            load,
            ..Default::default()
        }
    }

    fn churn(churn: ChurnSpec) -> PerturbSpec {
        PerturbSpec {
            churn,
            ..Default::default()
        }
    }

    /// Runs `rounds` through `state` against discrete `loads`.
    fn drive(
        state: &mut Perturb,
        spec: &PerturbSpec,
        graph: &Graph,
        rounds: std::ops::Range<u64>,
        loads: &mut [i64],
    ) {
        for round in rounds {
            state.begin_round(spec, graph, round, None, &cells(loads));
        }
    }

    #[test]
    fn specs_roundtrip_through_text() {
        for spec in [
            FaultSpec::none(),
            FaultSpec::none().with_crash(0.05, 7),
            FaultSpec::none().with_edgedrop(0.01, 9).with_stale(0.5, 3),
            FaultSpec::none()
                .with_crash(0.1, 1)
                .with_edgedrop(0.2, 2)
                .with_shock(0.3, 3)
                .with_stale(0.4, 4),
        ] {
            let text = spec.to_string();
            assert_eq!(text.parse::<FaultSpec>().unwrap(), spec, "{text}");
        }
        assert_eq!(FaultSpec::none().to_string(), "none");
        assert_eq!(
            FaultSpec::none().with_shock(0.25, 9).to_string(),
            "shock:0.25:9"
        );
        for spec in [
            LoadSpec::none(),
            LoadSpec::none().with_poisson(0.5, 7),
            LoadSpec::none().with_hotspot(3, 100, 16, 9),
            LoadSpec::none().with_diurnal(8.5, 64),
            LoadSpec::none().with_adversarial(50, 32, 5),
            LoadSpec::none()
                .with_poisson(2.0, 1)
                .with_hotspot(0, 10, 4, 2)
                .with_diurnal(3.0, 48)
                .with_adversarial(7, 8, 4),
        ] {
            let text = spec.to_string();
            assert_eq!(text.parse::<LoadSpec>().unwrap(), spec, "{text}");
        }
        assert_eq!(LoadSpec::none().to_string(), "none");
        assert_eq!(
            LoadSpec::none().with_poisson(0.25, 9).to_string(),
            "poisson:0.25:9"
        );
        for text in [
            "none",
            "flux:0.1:0.2:7",
            "flux:0:1:0",
            "flux:0.05:0.3:42:12.5",
        ] {
            let spec: ChurnSpec = text.parse().unwrap();
            assert_eq!(spec.to_string(), text);
        }
        // A zero initial load collapses to the 4-field canonical form.
        let spec: ChurnSpec = "flux:0.1:0.2:7:0".parse().unwrap();
        assert_eq!(spec.to_string(), "flux:0.1:0.2:7");
    }

    #[test]
    fn parse_errors_carry_context() {
        fn check<S: FromStr<Err = ParseError>>(axis: &str, cases: &[(&str, &str)]) {
            for &(text, needle) in cases {
                let Err(err) = text.parse::<S>() else {
                    panic!("{axis} '{text}' should not parse");
                };
                assert!(
                    err.message.starts_with(&format!("in {axis} '{text}': "))
                        && err.message.contains(needle),
                    "{text}: {} should contain {needle}",
                    err.message
                );
            }
        }
        check::<FaultSpec>(
            "faults",
            &[
                ("crash:0.1", "should be <kind>:<probability>:<seed>"),
                ("crash:0.1:2:3", "should be <kind>:<probability>:<seed>"),
                ("crash:x:1", "bad probability"),
                ("crash:1.5:1", "outside [0, 1]"),
                ("crash:-0.1:1", "outside [0, 1]"),
                ("crash:nan:1", "outside [0, 1]"),
                ("crash:0.1:z", "bad seed"),
                ("meteor:0.1:1", "unknown fault kind"),
                ("crash:0.1:1+crash:0.2:2", "duplicate fault kind"),
            ],
        );
        check::<LoadSpec>(
            "load",
            &[
                ("poisson:0.1", "should be poisson:<rate>:<seed>"),
                ("poisson:0.1:2:3", "should be poisson:<rate>:<seed>"),
                ("poisson:x:1", "bad rate"),
                ("poisson:-0.5:1", "outside [0, 1024]"),
                ("poisson:nan:1", "outside [0, 1024]"),
                ("poisson:0.1:z", "bad seed"),
                (
                    "hotspot:0:5:4",
                    "should be hotspot:<node>:<burst>:<period>:<seed>",
                ),
                ("hotspot:0:0:4:1", "outside [1, 1000000000]"),
                ("hotspot:0:5:0:1", "period must be positive"),
                ("diurnal:2", "should be diurnal:<amplitude>:<period>"),
                ("diurnal:inf:4", "outside [0, 1000000000]"),
                ("diurnal:2:0", "period must be positive"),
                (
                    "adversarial:5:4",
                    "should be adversarial:<burst>:<period>:<seed>",
                ),
                ("adversarial:-1:4:1", "outside [1, 1000000000]"),
                ("meteor:0.1:1", "unknown load kind"),
                ("poisson:0.1:1+poisson:0.2:2", "duplicate load kind"),
            ],
        );
        check::<ChurnSpec>(
            "churn",
            &[
                ("flux", "should be flux:<p_leave>"),
                ("flux:0.1", "should be flux:<p_leave>"),
                ("flux:0.1:0.2", "should be flux:<p_leave>"),
                ("flux:0.1:0.2:7:1:9", "should be flux:<p_leave>"),
                ("flux:1.5:0.2:7", "leave probability 1.5 outside [0, 1]"),
                ("flux:0.1:-0.2:7", "join probability -0.2 outside [0, 1]"),
                ("flux:0.1:0.2:7:-3", "initial load -3 outside"),
                ("flux:nope:0.2:7", "bad leave probability"),
                ("flux:0.1:0.2:x", "bad seed"),
                ("drain:0.1:0.2:7", "unknown churn kind 'drain'"),
                ("", "unknown churn kind ''"),
                ("flux:0:0:1+flux:0:0:2", "duplicate churn kind"),
            ],
        );
    }

    #[test]
    fn check_rejects_out_of_range_parameters() {
        assert!(FaultSpec::none().check().is_ok());
        assert!(FaultSpec::none().with_crash(1.0, 1).check().is_ok());
        let err = FaultSpec::none().with_shock(2.0, 1).check().unwrap_err();
        assert!(matches!(err, BuildError::InvalidFaults(_)));
        assert!(err.to_string().contains("shock"));
        assert!(FaultSpec::none().with_stale(f64::NAN, 1).check().is_err());

        assert!(LoadSpec::none().check().is_ok());
        assert!(LoadSpec::none().with_poisson(0.0, 1).check().is_ok());
        assert!(LoadSpec::none().with_poisson(MAX_RATE, 1).check().is_ok());
        let err = LoadSpec::none().with_poisson(-1.0, 1).check().unwrap_err();
        assert!(matches!(err, BuildError::InvalidLoad(_)));
        assert!(err.to_string().contains("poisson"));
        assert!(LoadSpec::none().with_poisson(f64::NAN, 1).check().is_err());
        assert!(LoadSpec::none().with_hotspot(0, 0, 4, 1).check().is_err());
        assert!(LoadSpec::none().with_hotspot(0, 5, 0, 1).check().is_err());
        assert!(LoadSpec::none().with_diurnal(-2.0, 4).check().is_err());
        assert!(LoadSpec::none().with_diurnal(2.0, 0).check().is_err());
        assert!(LoadSpec::none()
            .with_adversarial(MAX_BURST + 1, 4, 1)
            .check()
            .is_err());
        assert!(LoadSpec::none().with_adversarial(5, 0, 1).check().is_err());

        assert!(ChurnSpec::none().check().is_ok());
        assert!(ChurnSpec::none().with_flux(0.2, 0.3, 1).check().is_ok());
        assert!(ChurnSpec::none().with_flux(1.1, 0.3, 1).check().is_err());
        assert!(ChurnSpec::none()
            .with_flux(0.1, f64::NAN, 1)
            .check()
            .is_err());
        let bad_init = ChurnSpec::none().with_flux(0.1, 0.1, 1).with_initial(-1.0);
        assert!(matches!(bad_init.check(), Err(BuildError::InvalidChurn(_))));
        // with_initial without a channel stays the empty plan.
        assert!(ChurnSpec::none().with_initial(5.0).is_none());
    }

    #[test]
    fn crash_schedule_is_per_epoch_and_deterministic() {
        let spec = FaultSpec::none().with_crash(0.3, 42);
        let n = 257;
        // Constant within an epoch, fresh draws across epochs.
        let a = spec.live_nodes(0, n);
        assert_eq!(a, spec.live_nodes(EPOCH_LEN - 1, n));
        let b = spec.live_nodes(EPOCH_LEN, n);
        assert_ne!(a, b, "new epoch redraws (p = 0.3 on 257 nodes)");
        assert_eq!(b, spec.live_nodes(2 * EPOCH_LEN - 1, n));
        // p = 0 keeps everyone up; p = 1 takes everyone down.
        assert!(FaultSpec::none()
            .with_crash(0.0, 1)
            .live_nodes(0, 64)
            .iter()
            .all(|&l| l));
        assert!(FaultSpec::none()
            .with_crash(1.0, 1)
            .live_nodes(0, 64)
            .iter()
            .all(|&l| !l));
    }

    #[test]
    fn crash_state_matches_public_schedule() {
        let fs = FaultSpec::none().with_crash(0.25, 7);
        let spec = faults(fs);
        let g = generators::torus2d(6, 6);
        let mut state = Perturb::default();
        let mut loads = vec![0i64; 36];
        for round in [0, 5, 16, 40] {
            drive(&mut state, &spec, &g, round..round + 1, &mut loads);
            let public = fs.live_nodes(round, g.node_count());
            for (v, &live) in public.iter().enumerate() {
                assert_eq!(bit(&state.live, v), live, "round {round} node {v}");
                assert_eq!(bit(&state.up, v), live, "round {round} node {v}");
            }
            let live_count = public.iter().filter(|&&l| l).count();
            assert_eq!(state.live_count, live_count, "round {round}");
        }
        // Crashes were counted at the two epoch transitions.
        assert!(state.faults.crashes > 0);
    }

    #[test]
    fn effective_mask_excludes_down_and_dropped_edges() {
        let fs = FaultSpec::none().with_crash(0.3, 3).with_edgedrop(0.2, 5);
        let spec = faults(fs);
        let g = generators::torus2d(5, 5);
        let m = g.edge_count();
        let mut state = Perturb::default();
        drive(&mut state, &spec, &g, 0..1, &mut [0i64; 25]);
        let drop = state.drop.clone();
        let eff = state.compose(&spec, None, 0, m).active.unwrap().to_vec();
        let live = fs.live_nodes(0, g.node_count());
        for (e, (u, v)) in g.edges().enumerate() {
            assert_eq!(
                bit(&eff, e),
                live[u as usize] && live[v as usize] && !bit(&drop, e),
                "edge {e}"
            );
        }
        assert!(state.faults.edges_dropped > 0);
    }

    /// Each mask word is built from its own 64 draws, which are the
    /// per-edge draws of one `m`-long sweep: the same bits, for edge
    /// counts that do and do not fill the last word.
    #[test]
    fn edge_masks_are_the_bulk_draws_bit_for_bit() {
        let c = FaultChannel { p: 0.3, seed: 9 };
        let mut state = Perturb::default();
        for m in [0, 1, 63, 64, 65, 200, 1024] {
            for (drop, salt) in [(true, DROP_SALT), (false, STALE_SALT)] {
                state.fill_edge_mask(drop, c, salt, 7, m);
                let got = if drop { &state.drop } else { &state.stale };
                let mut want = vec![0u64; m.div_ceil(64).max(1)];
                let mut buf = Vec::new();
                for (e, &draw) in bulk_draws(&mut buf, c.seed, salt, 7, m).iter().enumerate() {
                    want[e >> 6] |= u64::from(unit_f64(draw) < c.p) << (e & 63);
                }
                assert_eq!(got, &want, "m = {m}, drop = {drop}");
            }
        }
    }

    #[test]
    fn unmasked_channels_leave_the_plan_mask_alone() {
        // Shock and stale never mask edges: compose hands back the plan
        // (None = all edges) and only counts the stale losses.
        let spec = faults(FaultSpec::none().with_shock(0.5, 1).with_stale(0.5, 2));
        let g = generators::cycle(64);
        let mut state = Perturb::default();
        drive(&mut state, &spec, &g, 0..1, &mut [10i64; 64]);
        let masks = state.compose(&spec, None, 0, g.edge_count());
        assert!(masks.active.is_none());
        let stale: u64 = masks
            .stale
            .unwrap()
            .iter()
            .map(|w| w.count_ones() as u64)
            .sum();
        assert_eq!(state.faults.stale_edges, stale);
    }

    #[test]
    fn shocks_move_a_quarter_between_distinct_live_nodes() {
        let g = generators::torus2d(6, 6);
        let fs = FaultSpec::none().with_crash(0.3, 11).with_shock(0.5, 13);
        let spec = faults(fs);
        let mut state = Perturb::default();
        let mut loads = vec![400i64; 36];
        let mut fired = 0u64;
        for round in 0..200 {
            let before = loads.clone();
            drive(&mut state, &spec, &g, round..round + 1, &mut loads);
            let changed: Vec<usize> = (0..36).filter(|&v| loads[v] != before[v]).collect();
            if changed.is_empty() {
                continue;
            }
            fired += 1;
            assert_eq!(changed.len(), 2, "round {round}");
            let live = fs.live_nodes(round, 36);
            let donor = changed.iter().copied().find(|&v| loads[v] < before[v]);
            let donor = donor.unwrap();
            assert_eq!(before[donor] - loads[donor], before[donor] / 4);
            assert!(changed.iter().all(|&v| live[v]), "round {round}");
        }
        assert_eq!(state.faults.shocks, fired);
        // Rate 0.5 over 200 rounds: the count concentrates around 100.
        assert!((60..=140).contains(&fired), "{fired} shocks at rate 0.5");
        assert_eq!(loads.iter().sum::<i64>(), 400 * 36, "shocks conserve");
        // Rate 0 never fires, and never touches the loads.
        let mut quiet = Perturb::default();
        let zero = faults(FaultSpec::none().with_shock(0.0, 13));
        for round in 0..200 {
            quiet.begin_round(&zero, &g, round, None, &Untouchable);
        }
        assert_eq!(quiet.faults.shocks, 0);
        // A single-node graph cannot host a donor/hotspot pair.
        let mut single = Perturb::default();
        let one = faults(FaultSpec::none().with_shock(1.0, 13));
        drive(&mut single, &one, &generators::path(1), 0..8, &mut [100]);
        assert_eq!(single.faults.shocks, 0);
    }

    #[test]
    fn discrete_shocks_move_the_exact_quarter_of_any_load() {
        // 2⁶⁰ + 7 tokens: the quarter, 2⁵⁸ + 1, has no exact f64.
        let big = (1i64 << 60) + 7;
        let spec = faults(FaultSpec::none().with_shock(1.0, 5));
        let mut state = Perturb::default();
        let mut loads = [big, big];
        drive(&mut state, &spec, &generators::path(2), 0..1, &mut loads);
        assert_eq!(state.faults.shocks, 1);
        loads.sort_unstable();
        assert_eq!(loads, [big - big / 4, big + big / 4]);
    }

    /// A load view that fails the test on any read or write.
    struct Untouchable;

    impl Loads for Untouchable {
        const DISCRETE: bool = true;
        fn get(&self, i: usize) -> f64 {
            unreachable!("read node {i}")
        }
        fn add(&self, i: usize, _: f64) {
            unreachable!("wrote node {i}")
        }
        fn shift_quarter(&self, from: usize, to: usize) -> bool {
            unreachable!("shifted {from} -> {to}")
        }
    }

    #[test]
    fn poisson_injection_is_deterministic_and_rate_plausible() {
        let spec = LoadSpec::none().with_poisson(2.0, 11);
        let (mut la, mut lb) = ([0i64; 36], [0i64; 36]);
        let mut a = Perturb::default();
        let mut b = Perturb::default();
        for round in 0..200 {
            a.inject(&spec, round, 36, &cells(&mut la));
            b.inject(&spec, round, 36, &cells(&mut lb));
            assert_eq!(la, lb, "round {round}");
        }
        // Rate 2 over 200 rounds: the arrival count concentrates near 400.
        let arrivals = a.load.arrivals;
        assert!(
            (280..=520).contains(&arrivals),
            "{arrivals} arrivals at rate 2"
        );
        // Injected stays integral, equals arrivals − departures, and
        // accounts for the realized total.
        assert_eq!(
            a.load.injected,
            a.load.arrivals as f64 - a.load.departures as f64
        );
        assert_eq!(la.iter().sum::<i64>() as f64, a.load.injected);
        // Rate 0 never fires.
        let mut c = Perturb::default();
        c.inject(&LoadSpec::none().with_poisson(0.0, 11), 0, 36, &Untouchable);
        assert_eq!(c.load, LoadEvents::default());
    }

    #[test]
    fn hotspot_fires_on_period_and_conserves() {
        let spec = LoadSpec::none().with_hotspot(40, 25, 8, 3);
        let n = 16;
        let target = 40 % n;
        let mut loads = [0i64; 16];
        let mut state = Perturb::default();
        for round in 0..32 {
            let before = loads;
            state.inject(&spec, round, n, &cells(&mut loads));
            let changed: Vec<usize> = (0..n).filter(|&v| loads[v] != before[v]).collect();
            if round % 8 == 0 {
                assert_eq!(changed.len(), 2, "round {round}");
                assert_eq!(loads[target] - before[target], 25, "node is taken modulo n");
                let donor = changed.into_iter().find(|&v| v != target).unwrap();
                assert_eq!(loads[donor] - before[donor], -25);
            } else {
                assert!(changed.is_empty(), "round {round}");
            }
        }
        assert_eq!(state.load.injected, 0.0, "bursts conserve the total");
        assert_eq!((state.load.arrivals, state.load.departures), (4, 4));
    }

    #[test]
    fn diurnal_swings_and_rounds_in_discrete_mode() {
        let spec = LoadSpec::none().with_diurnal(10.0, 8);
        let mut tokens = [0i64; 4];
        let mut state = Perturb::default();
        let (mut surplus, mut deficit) = (false, false);
        for round in 0..8 {
            let (total, injected) = (tokens.iter().sum::<i64>(), state.load.injected);
            state.inject(&spec, round, 4, &cells(&mut tokens));
            let delta = state.load.injected - injected;
            assert_eq!(delta, delta.round(), "discrete deltas are integral");
            assert_eq!((tokens.iter().sum::<i64>() - total) as f64, delta);
            surplus |= delta > 0.0;
            deficit |= delta < 0.0;
        }
        assert!(surplus && deficit, "a full period swings both ways");
        // A full sine period integrates to zero injected load.
        assert_eq!(state.load.injected, 0.0);
        // Continuous mode keeps the fractional amplitude.
        let mut fluid = [0f64; 4];
        let mut c = Perturb::default();
        c.inject(&spec, 1, 4, &cells(&mut fluid));
        let swing = 10.0 * (std::f64::consts::TAU / 8.0).sin();
        assert!(
            (fluid[1] - swing).abs() < 1e-12,
            "delta lands on the rotating node"
        );
        assert_eq!([fluid[0], fluid[2], fluid[3]], [0.0; 3]);
    }

    #[test]
    fn adversarial_targets_the_most_loaded_node() {
        let spec = LoadSpec::none().with_adversarial(30, 4, 7);
        let before = [5.0, 80.0, 2.0, 80.0, 1.0];
        let mut loads = before;
        let mut state = Perturb::default();
        state.inject(&spec, 0, 5, &cells(&mut loads));
        assert_eq!(loads[1], 110.0, "first argmax wins ties");
        let donors: Vec<usize> = (0..5).filter(|&v| loads[v] < before[v]).collect();
        assert_eq!(donors.len(), 1);
        assert_eq!(loads[donors[0]], before[donors[0]] - 30.0);
        // Off-period rounds stay quiet and never read the loads.
        state.inject(&spec, 1, 5, &Untouchable);
        assert_eq!((state.load.arrivals, state.load.departures), (1, 1));
        // The target is the argmax before the round's other injections:
        // a same-round hotspot burst onto node 4 does not draw it.
        let hotspot = LoadSpec::none().with_hotspot(4, 500, 4, 1);
        let both = LoadSpec {
            adversarial: spec.adversarial,
            ..hotspot
        };
        let (mut with, mut without) = (before, before);
        Perturb::default().inject(&both, 0, 5, &cells(&mut with));
        Perturb::default().inject(&hotspot, 0, 5, &cells(&mut without));
        assert_eq!(with[1] - without[1], 30.0);
    }

    #[test]
    fn injection_matches_across_representations() {
        let spec = load(
            LoadSpec::none()
                .with_poisson(1.5, 3)
                .with_hotspot(2, 10, 2, 4)
                .with_adversarial(7, 3, 5),
        );
        let g = generators::cycle(9);
        let mut seq = vec![100i64; 9];
        let atomics: Vec<AtomicI64> = (0..9).map(|_| AtomicI64::new(100)).collect();
        let mut a = Perturb::default();
        let mut b = Perturb::default();
        for round in 0..24 {
            a.begin_round(&spec, &g, round, None, &cells(&mut seq));
            b.begin_round(&spec, &g, round, None, &Atomics::<i64>(&atomics));
        }
        let pooled: Vec<i64> = atomics.iter().map(|x| x.load(Relaxed)).collect();
        assert_eq!(seq, pooled);
        // The injected account matches the realized totals exactly.
        let total: i64 = seq.iter().sum();
        assert_eq!(total as f64, 900.0 + a.load.injected);
    }

    #[test]
    fn churn_is_deterministic_and_conserving() {
        let g = generators::torus2d(6, 6);
        let spec = churn(ChurnSpec::none().with_flux(0.3, 0.5, 99).with_initial(4.0));
        let (mut a, mut b) = (vec![10i64; 36], vec![10i64; 36]);
        let (mut sa, mut sb) = (Perturb::default(), Perturb::default());
        drive(&mut sa, &spec, &g, 0..64, &mut a);
        drive(&mut sb, &spec, &g, 0..64, &mut b);
        assert_eq!(sa.churn_words(), sb.churn_words());
        assert_eq!(sa.churn, sb.churn);
        assert_eq!(a, b);
        let ev = sa.churn;
        assert!(ev.departures > 0 && ev.arrivals > 0, "{ev:?}");
        // Conservation: total == initial + joined − departed.
        let total: i64 = a.iter().sum();
        assert_eq!(total as f64, 360.0 + ev.joined - ev.departed);
    }

    #[test]
    fn total_departure_drains_the_system() {
        // leave=1, join=0: every machine departs at round 0, nobody is
        // left to take a handoff, all load exits through `departed`.
        let g = generators::star(4);
        let spec = churn(ChurnSpec::none().with_flux(1.0, 0.0, 5));
        let mut state = Perturb::default();
        let mut loads = [7i64, 1, 2, 3];
        drive(&mut state, &spec, &g, 0..1, &mut loads);
        assert_eq!(loads, [0, 0, 0, 0]);
        assert_eq!(state.churn.departed, 13.0);
        assert_eq!(state.churn.handoffs, 0);
        assert_eq!(state.active.active_count(), 0);
        assert!(state.up_edges.iter().all(|&w| w == 0));
    }

    #[test]
    fn handoff_split_is_integer_exact() {
        // The hub of a star departs with 7 tokens while its 3 leaves
        // stay: shares are ⌊7/3⌋ = 2 each plus one extra for the first
        // neighbor in adjacency order.
        let g = generators::star(4);
        let seed = (0..256)
            .find(|&seed| {
                let flux = ChurnSpec::none().with_flux(0.5, 0.0, seed).flux.unwrap();
                let mut state = Perturb::default();
                state.flux(flux, &g, 0, &cells(&mut [7, 0, 0, 0]));
                !state.active.is_active(0) && state.active.active_count() == 3
            })
            .expect("some seed departs the hub alone");
        let flux = ChurnSpec::none().with_flux(0.5, 0.0, seed).flux.unwrap();
        let mut state = Perturb::default();
        let mut loads = [7i64, 0, 0, 0];
        state.flux(flux, &g, 0, &cells(&mut loads));
        let mut expected = [0i64; 4];
        for (u, share) in g.neighbor_nodes(0).zip([3, 2, 2]) {
            expected[u as usize] = share;
        }
        assert_eq!(loads, expected);
        assert_eq!(state.churn.handoffs, 1);
    }

    #[test]
    fn proportional_split_conserves_the_departing_load() {
        // Continuous: an awkward load splits across k neighbors with the
        // last share absorbing the rounding remainder, so the total is
        // kept up to floating-point summation order.
        let g = generators::complete(5);
        let mut checked = 0;
        for seed in 0..32 {
            let flux = ChurnSpec::none().with_flux(0.4, 0.0, seed).flux.unwrap();
            let mut state = Perturb::default();
            let mut loads = [0.1f64, 7.3, 11.0, 0.0, 2.25];
            let before: f64 = loads.iter().sum();
            state.flux(flux, &g, 0, &cells(&mut loads));
            if state.churn.handoffs > 0 && state.churn.departed == 0.0 {
                let after: f64 = loads.iter().sum();
                assert!(
                    (after - before).abs() < 1e-12,
                    "seed {seed}: total {before} became {after}"
                );
                checked += 1;
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn membership_changes_only_at_epoch_boundaries() {
        let g = generators::cycle(8);
        let spec = churn(ChurnSpec::none().with_flux(0.5, 0.5, 11));
        let mut state = Perturb::default();
        let mut loads = [5i64; 8];
        let mut changes = 0;
        for round in 0..2 * EPOCH_LEN {
            let before = (loads, state.churn_words().to_vec());
            drive(&mut state, &spec, &g, round..round + 1, &mut loads);
            if (loads, state.churn_words().to_vec()) != before {
                assert_eq!(round % EPOCH_LEN, 0, "change outside a boundary");
                changes += 1;
            }
        }
        assert_eq!(changes, 2);
    }

    #[test]
    fn restore_matches_the_uninterrupted_run() {
        // Crash and churn together on a sweep plan, cut mid-epoch.
        let g = generators::torus2d(5, 5);
        let masks = matching::edge_coloring(&g).class_masks();
        let sweep = Some((&masks[..], false));
        let spec = PerturbSpec {
            faults: FaultSpec::none().with_crash(0.2, 5),
            churn: ChurnSpec::none().with_flux(0.3, 0.4, 17).with_initial(2.0),
            ..Default::default()
        };
        let run = |state: &mut Perturb, rounds: std::ops::Range<u64>, loads: &mut Vec<i64>| {
            for round in rounds {
                state.begin_round(&spec, &g, round, sweep, &cells(loads));
            }
        };
        let mut full = Perturb::default();
        let mut loads = vec![8i64; 25];
        run(&mut full, 0..3 * EPOCH_LEN, &mut loads);
        let cut = 2 * EPOCH_LEN + 3;
        let mut head = Perturb::default();
        let mut loads2 = vec![8i64; 25];
        run(&mut head, 0..cut, &mut loads2);
        let mut tail = Perturb::restore(&spec, &g, sweep, cut, head.churn_words()).unwrap();
        assert_eq!(tail.up_edges, head.up_edges);
        assert_eq!(tail.repaired, head.repaired);
        tail.faults = head.faults;
        tail.churn = head.churn;
        run(&mut tail, cut..3 * EPOCH_LEN, &mut loads2);
        assert_eq!(tail.churn_words(), full.churn_words());
        assert_eq!((tail.faults, tail.churn), (full.faults, full.churn));
        assert_eq!(loads, loads2);
    }

    #[test]
    fn restore_refuses_overlays_that_do_not_fit() {
        let g = generators::cycle(70); // two overlay words, 6 spare bits
        let churned = churn(ChurnSpec::none().with_flux(0.1, 0.1, 1));
        let ok = [u64::MAX, (1 << 6) - 1];
        assert!(Perturb::restore(&churned, &g, None, 5, &ok).is_ok());
        assert!(Perturb::restore(&churned, &g, None, 0, &[]).is_ok());
        for (spec, round, overlay) in [
            (churned, 5, &ok[..1]),
            (churned, 5, &[u64::MAX, 1 << 6][..]),
            (churned, 5, &[][..]),
            (churned, 0, &ok[..]),
            (PerturbSpec::default(), 5, &ok[..]),
        ] {
            assert!(
                Perturb::restore(&spec, &g, None, round, overlay).is_err(),
                "{overlay:?} at round {round}"
            );
        }
    }

    #[test]
    fn repaired_sweep_masks_stay_matchings_over_the_up_set() {
        let g = generators::torus2d(4, 4);
        let masks = matching::maximal_matchings(&g, &matching::edge_coloring(&g));
        let spec = PerturbSpec {
            faults: FaultSpec::none().with_crash(0.2, 3),
            churn: ChurnSpec::none().with_flux(0.4, 0.2, 23),
            ..Default::default()
        };
        let mut state = Perturb::default();
        let mut loads = [0i64; 16];
        state.begin_round(&spec, &g, 0, Some((&masks, true)), &cells(&mut loads));
        for (i, base) in masks.iter().enumerate() {
            let eff = state.compose(&spec, Some(base), i as u64, g.edge_count());
            let eff = eff.active.unwrap().to_vec();
            let repaired: Vec<_> = (0..g.edge_count())
                .filter(|&e| bit(&eff, e))
                .map(|e| e as sodiff_graph::EdgeId)
                .collect();
            assert!(matching::is_matching(&g, &repaired));
            for &e in &repaired {
                let (u, v) = g.edge(e);
                assert!(bit(&state.up, u as usize) && bit(&state.up, v as usize));
            }
        }
    }
}
