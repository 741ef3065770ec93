//! Exact checkpoint/resume: freeze any simulation mid-run, resume it
//! bit-identically — in the same process, or days later in a different
//! one.
//!
//! # Why resume can be *exact*
//!
//! Every random decision in the engine is drawn from counter-indexed
//! streams ([`crate::rng::nth_u64`] and the salted stream keys): the
//! k-th draw of round `r` is a pure function of `(seed, salt, r, k)`,
//! never of a mutable generator that advanced through rounds `0..r`.
//! There is **no serial RNG state to save** — a simulator rebuilt from
//! its [`ScenarioSpec`] and fast-forwarded to round `r` draws the exact
//! same words the original would have drawn. A snapshot therefore only
//! needs the genuinely evolving state:
//!
//! * the load vector (integer tokens or continuous) and the SOS flow
//!   memory (`prev_flow`),
//! * the round counters (`round`, `rounds_in_scheme`),
//! * the fused per-round statistics (`min_transient`, the last round's
//!   [`crate::kernel::LoadStats`]),
//! * the cumulative [`FaultEvents`]/[`LoadEvents`]/[`ChurnEvents`]
//!   counters (the fault *masks* are re-derived per epoch from the
//!   spec's streams),
//! * the churn axis's active-node overlay words — the one
//!   history-dependent piece of axis state (a Markov chain over
//!   epochs), persisted verbatim so restore installs it without ever
//!   redrawing a transition,
//! * the run loop's one record of its state: the run origin, the
//!   hybrid/degradation state (`switch_round`, `degraded`), the
//!   divergence-watchdog window, the steady-state ring and the plateau
//!   tracker. The run loop updates that record in place, so a snapshot
//!   carries it as it is, at any round boundary.
//!
//! Everything else — graph, speeds, kernels, coefficient tables, sweep
//! families — is deterministically rebuilt from the [`ScenarioSpec`]
//! embedded in the snapshot header.
//!
//! # File format (version 2)
//!
//! A file is an 8-byte magic (`SODIFFCK`), a `u32` format version, the
//! [`ScenarioSpec`] display line, the snapshot payload, and a trailing
//! `u64` FNV-1a checksum over every preceding byte. Every value follows
//! one rule:
//!
//! * integers are little-endian at their width (`u8`, `u32`, `u64`,
//!   `i64`); a `usize` is a `u64`, and an `f64` is its IEEE bits as a
//!   `u64`;
//! * a `bool` is one byte, `1` or `0`;
//! * an `Option` is a `bool` presence flag, then the value if present;
//! * a sequence (a vector or ring) is a `u64` element count, then the
//!   elements; a string is a `u32` byte length, then its UTF-8 bytes;
//! * a record is its fields in declaration order.
//!
//! The payload holds, in order: `round`, `rounds_in_scheme`, the run
//! origin, `switch_round` (an `Option<u64>`), the `degraded` flag,
//! `min_transient`, `initial_total`, the last round's `Option<LoadStats>`,
//! the loads (a `u8` tag, `0` for discrete `i64` loads or `1` for
//! continuous `f64` loads, then the sequence), `prev_flow`, the
//! [`FaultEvents`] and [`LoadEvents`] counters, the watchdog,
//! steady-state and plateau trackers (each an `Option`), the
//! [`ChurnEvents`] counters, and the churn overlay words.
//!
//! Version 2 is the only version this build reads or
//! writes; any other version (the pre-churn version 1 included) is
//! rejected as [`CheckpointError::UnsupportedVersion`] before the
//! checksum is checked. Files are written to a temporary sibling and
//! atomically renamed, so a crash mid-write never leaves a torn "latest"
//! checkpoint. Loading **never panics**: truncation, bit corruption,
//! bytes left over after the snapshot, version skew and tracker state
//! the run loop could not have produced surface as typed
//! [`CheckpointError`] variants.
//!
//! # Usage
//!
//! Scenario files opt in with `ckpt=every:N:DIR`; the engine then
//! snapshots to `DIR/<name>.ckpt` every `N` rounds (and to
//! `DIR/<name>-degraded.ckpt` the moment the divergence watchdog trips,
//! preserving the pre-degradation state for post-mortem). Programmatic
//! runs attach the same policy with
//! [`crate::ExperimentBuilder::checkpoint`], or call
//! [`crate::Simulator::snapshot`]/[`crate::Simulator::restore`]
//! directly:
//!
//! ```
//! use sodiff_core::checkpoint::{read_checkpoint, write_checkpoint};
//! use sodiff_core::ScenarioSpec;
//!
//! let spec: ScenarioSpec =
//!     "name=demo topology=torus2d:8:8 scheme=sos:1.8 rounding=nearest \
//!      init=point:0:6400 stop=rounds:40"
//!         .parse()
//!         .unwrap();
//! let graph = spec.build_graph().unwrap();
//! let experiment = spec.experiment_on(&graph).unwrap();
//!
//! // Run half, snapshot, "crash".
//! let mut sim = experiment.simulator();
//! for _ in 0..20 {
//!     sim.step();
//! }
//! let dir = std::env::temp_dir().join(format!("sodiff-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("demo.ckpt");
//! write_checkpoint(&path, &spec, &sim.snapshot()).unwrap();
//! drop(sim);
//!
//! // Resume in a "new process": finishes the remaining 20 rounds.
//! let report = read_checkpoint(&path).unwrap().resume().unwrap();
//! assert_eq!(report.rounds, 20);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

use std::collections::VecDeque;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::str::FromStr;

use crate::engine::{RunReport, StopCondition};
use crate::error::{CheckpointError, ParseError};
use crate::kernel::LoadStats;
use crate::metrics::RemainingImbalance;
use crate::observer::{NullObserver, Observer};
use crate::perturb::{ChurnEvents, FaultEvents, LoadEvents};
use crate::scenario::ScenarioSpec;
use crate::watch::{DivergenceWatch, RunRecord, SteadyTracker};

/// Magic bytes every checkpoint file starts with.
const MAGIC: &[u8; 8] = b"SODIFFCK";
/// The format version this build reads and writes.
const VERSION: u32 = 2;

/// When and where to checkpoint: the `ckpt=every:N:DIR` scenario key as
/// data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Snapshot every `every` rounds (must be positive).
    pub every: u64,
    /// Directory the snapshot files go to (created on first write).
    pub dir: PathBuf,
}

impl fmt::Display for CheckpointPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "every:{}:{}", self.every, self.dir.display())
    }
}

impl FromStr for CheckpointPolicy {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = || ParseError::new(format!("invalid ckpt '{s}' (expected every:N:DIR)"));
        let mut it = s.splitn(3, ':');
        match (it.next(), it.next(), it.next()) {
            (Some("every"), Some(n), Some(dir)) if !dir.is_empty() => {
                let every: u64 = n.parse().map_err(|_| bad())?;
                if every == 0 {
                    return Err(ParseError::new(format!(
                        "invalid ckpt '{s}': interval must be positive"
                    )));
                }
                Ok(CheckpointPolicy {
                    every,
                    dir: PathBuf::from(dir),
                })
            }
            _ => Err(bad()),
        }
    }
}

/// A checkpoint policy plus the identity the engine stamps into every
/// file it writes: the scenario name (the file stem) and the canonical
/// scenario line embedded in the header (what [`read_checkpoint`]
/// rebuilds the experiment from).
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointConfig {
    /// Interval and target directory.
    pub policy: CheckpointPolicy,
    /// Scenario name; becomes the checkpoint file stem.
    pub name: String,
    /// The canonical [`ScenarioSpec`] display line embedded in each
    /// snapshot header.
    pub spec_line: String,
}

/// Path separators in a scenario name would escape the checkpoint
/// directory; flatten them into the file stem.
fn file_stem(name: &str) -> String {
    name.replace(['/', '\\'], "_")
}

impl CheckpointConfig {
    /// Where the periodic "latest" snapshot goes (overwritten in place,
    /// atomically).
    pub fn latest_path(&self) -> PathBuf {
        self.policy
            .dir
            .join(format!("{}.ckpt", file_stem(&self.name)))
    }

    /// Where the watchdog-trip snapshot goes: the pre-degradation state,
    /// written once when the divergence watchdog fires.
    pub fn degraded_path(&self) -> PathBuf {
        self.policy
            .dir
            .join(format!("{}-degraded.ckpt", file_stem(&self.name)))
    }
}

/// The load vector in the snapshot's execution mode.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum LoadsSnapshot {
    /// Integer token counts (discrete mode).
    Discrete(Vec<i64>),
    /// Continuous loads.
    Continuous(Vec<f64>),
}

/// The full evolving state of one [`crate::Simulator`] at a round
/// boundary, as captured by [`crate::Simulator::snapshot`] and restored
/// by [`crate::Simulator::restore`].
///
/// Opaque on purpose: the contents mirror engine internals and are only
/// meaningful to a simulator built from the same [`ScenarioSpec`]. Use
/// [`write_checkpoint`]/[`read_checkpoint`] to persist one.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    pub(crate) round: u64,
    pub(crate) rounds_in_scheme: u64,
    pub(crate) min_transient: f64,
    /// Total initial load baked into the kernel tables; restore
    /// validates it bit-exactly against the target simulator's.
    pub(crate) initial_total: f64,
    /// The last round's fused statistics, if a round has run.
    pub(crate) round_stats: Option<LoadStats>,
    pub(crate) loads: LoadsSnapshot,
    pub(crate) prev_flow: Vec<f64>,
    pub(crate) fault_events: FaultEvents,
    pub(crate) load_events: LoadEvents,
    pub(crate) churn_events: ChurnEvents,
    /// The churn axis's active-node overlay words at snapshot time
    /// (empty = churn never ran). Persisted verbatim because the
    /// overlay is a Markov chain over epochs — restore must never redraw
    /// a transition.
    pub(crate) churn_active: Vec<u64>,
    /// The run loop's state, as it is at the snapshot's round boundary.
    pub(crate) run: RunRecord,
}

impl Snapshot {
    /// The round the snapshot was taken at (rounds fully executed).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Rounds executed by the interrupted run up to this snapshot.
    pub fn rounds_done(&self) -> u64 {
        self.round.saturating_sub(self.run.origin)
    }

    /// Converts the run's (absolute) stop condition into the condition
    /// for the *remaining* run after this snapshot. Round-count budgets
    /// shrink by [`Self::rounds_done`] (a finished `horizon:` leaves
    /// `Horizon(0)`, which still reports the restored ring's statistics);
    /// `steady:` keeps watching the restored ring, and its built-in cap
    /// counts from the run origin.
    pub(crate) fn remaining_stop(&self, stop: StopCondition) -> StopCondition {
        let done = self.rounds_done() as usize;
        match stop {
            StopCondition::MaxRounds(r) => StopCondition::MaxRounds(r.saturating_sub(done)),
            StopCondition::BalancedWithin {
                threshold,
                max_rounds,
            } => StopCondition::BalancedWithin {
                threshold,
                max_rounds: max_rounds.saturating_sub(done),
            },
            StopCondition::Plateau { window, max_rounds } => StopCondition::Plateau {
                window,
                max_rounds: max_rounds.saturating_sub(done),
            },
            StopCondition::Steady { .. } => stop,
            StopCondition::Horizon(r) => StopCondition::Horizon(r.saturating_sub(done)),
        }
    }
}

/// A parsed checkpoint file: the embedded scenario plus the snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The scenario the snapshot belongs to, parsed from the header.
    pub spec: ScenarioSpec,
    /// The frozen simulation state.
    pub snapshot: Snapshot,
}

impl Checkpoint {
    /// Rebuilds the scenario's experiment, restores the snapshot, and
    /// runs the *remaining* part of the spec's stop condition. The
    /// returned report covers only the resumed segment (its `rounds` is
    /// the post-restore count), but its final state is bit-identical to
    /// an uninterrupted run.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Build`] when the embedded scenario no longer
    /// builds, [`CheckpointError::Mismatch`] when the snapshot does not
    /// fit the rebuilt simulation.
    pub fn resume(&self) -> Result<RunReport, CheckpointError> {
        self.resume_with(&mut NullObserver)
    }

    /// [`Self::resume`] with a per-round [`Observer`].
    pub fn resume_with(&self, observer: &mut dyn Observer) -> Result<RunReport, CheckpointError> {
        let graph = self.spec.build_graph()?;
        let experiment = self.spec.experiment_on(&graph)?;
        experiment.resume_on(&mut experiment.simulator(), &self.snapshot, observer)
    }
}

// ---------------------------------------------------------------------
// Binary encoding
// ---------------------------------------------------------------------

/// FNV-1a, the same function the golden-trace suite uses.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// One type's form in the version-2 format (the module docs list the
/// rules): `put` appends it, `get` reads it back from the front of `r`
/// and fails typed on bytes no `put` wrote.
trait Wire {
    /// The fewest bytes one value encodes to; bounds a length prefix.
    const MIN_BYTES: usize = 1;
    fn put(&self, out: &mut Vec<u8>);
    fn get(r: &mut &[u8]) -> Result<Self, CheckpointError>
    where
        Self: Sized;
}

/// Splits `n` bytes off the front of `r`.
fn take<'a>(r: &mut &'a [u8], n: usize) -> Result<&'a [u8], CheckpointError> {
    let (head, tail) = r.split_at_checked(n).ok_or(CheckpointError::Truncated)?;
    *r = tail;
    Ok(head)
}

/// Integers: little-endian at their width.
macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN_BYTES: usize = std::mem::size_of::<$t>();
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn get(r: &mut &[u8]) -> Result<Self, CheckpointError> {
                let bytes = take(r, Self::MIN_BYTES)?;
                Ok(Self::from_le_bytes(bytes.try_into().expect("take returns the width")))
            }
        }
    )*};
}

wire_int!(u8, u32, u64, i64);

/// `usize`: a `u64`; one this platform cannot hold reads as truncation.
impl Wire for usize {
    const MIN_BYTES: usize = 8;
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }
    fn get(r: &mut &[u8]) -> Result<Self, CheckpointError> {
        usize::try_from(u64::get(r)?).map_err(|_| CheckpointError::Truncated)
    }
}

/// `f64`: its IEEE bits as a `u64`.
impl Wire for f64 {
    const MIN_BYTES: usize = 8;
    fn put(&self, out: &mut Vec<u8>) {
        self.to_bits().put(out);
    }
    fn get(r: &mut &[u8]) -> Result<Self, CheckpointError> {
        u64::get(r).map(f64::from_bits)
    }
}

/// `bool`: one byte, `1` or `0` (any nonzero byte reads as `true`).
impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>) {
        u8::from(*self).put(out);
    }
    fn get(r: &mut &[u8]) -> Result<Self, CheckpointError> {
        Ok(u8::get(r)? != 0)
    }
}

/// `Option`: a `bool` presence flag, then the value if present.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        self.is_some().put(out);
        if let Some(x) = self {
            x.put(out);
        }
    }
    fn get(r: &mut &[u8]) -> Result<Self, CheckpointError> {
        Ok(if bool::get(r)? {
            Some(T::get(r)?)
        } else {
            None
        })
    }
}

/// Sequences: a `u64` element count, then the elements.
fn put_seq<'a, T: Wire + 'a>(xs: impl ExactSizeIterator<Item = &'a T>, out: &mut Vec<u8>) {
    xs.len().put(out);
    for x in xs {
        x.put(out);
    }
}

/// The one reader of a sequence. Its count is checked against the bytes
/// left before it sizes the allocation, so a corrupted count can never
/// trigger a huge one.
impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        put_seq(self.iter(), out);
    }
    fn get(r: &mut &[u8]) -> Result<Self, CheckpointError> {
        let n = usize::get(r)?;
        if n.checked_mul(T::MIN_BYTES)
            .is_none_or(|bytes| bytes > r.len())
        {
            return Err(CheckpointError::Truncated);
        }
        let mut xs = Vec::with_capacity(n);
        for _ in 0..n {
            xs.push(T::get(r)?);
        }
        Ok(xs)
    }
}

impl<T: Wire> Wire for VecDeque<T> {
    fn put(&self, out: &mut Vec<u8>) {
        put_seq(self.iter(), out);
    }
    fn get(r: &mut &[u8]) -> Result<Self, CheckpointError> {
        Vec::get(r).map(VecDeque::from)
    }
}

/// The divergence watchdog's fixed ring, the format's one array: a
/// sequence that must hold exactly `N` values.
impl<const N: usize> Wire for [f64; N] {
    fn put(&self, out: &mut Vec<u8>) {
        put_seq(self.iter(), out);
    }
    fn get(r: &mut &[u8]) -> Result<Self, CheckpointError> {
        Vec::get(r)?
            .try_into()
            .map_err(|_| impossible("watchdog ring"))
    }
}

/// Strings: a `u32` byte length, then the UTF-8 bytes.
impl Wire for str {
    fn put(&self, out: &mut Vec<u8>) {
        u32::try_from(self.len())
            .expect("a scenario line is shorter than 4 GiB")
            .put(out);
        out.extend_from_slice(self.as_bytes());
    }
}

impl Wire for String {
    fn put(&self, out: &mut Vec<u8>) {
        self.as_str().put(out);
    }
    fn get(r: &mut &[u8]) -> Result<Self, CheckpointError> {
        let n = u32::get(r)? as usize;
        String::from_utf8(take(r, n)?.to_vec()).map_err(|_| CheckpointError::Truncated)
    }
}

/// Plain records: their fields, in the order listed (declaration order).
macro_rules! wire_fields {
    ($($t:ty { $($field:ident),* })*) => {$(
        impl Wire for $t {
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$field.put(out);)*
            }
            fn get(r: &mut &[u8]) -> Result<Self, CheckpointError> {
                Ok(Self { $($field: Wire::get(r)?),* })
            }
        }
    )*};
}

wire_fields! {
    LoadStats { min_transient, min_load, max_dev, min_dev, sum_sq_dev }
    FaultEvents { crashes, rejoins, edges_dropped, shocks, stale_edges }
    LoadEvents { arrivals, departures, injected }
    ChurnEvents { departures, arrivals, handoffs, joined, departed }
    DivergenceWatch { armed, window, len, pos }
    SteadyTracker { window, ring, pos, len, newer_sum, older_sum, check }
    RemainingImbalance { window, history }
}

/// The load vector: a `u8` mode tag (`0` discrete, `1` continuous), then
/// the loads.
impl Wire for LoadsSnapshot {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            LoadsSnapshot::Discrete(loads) => {
                0u8.put(out);
                loads.put(out);
            }
            LoadsSnapshot::Continuous(loads) => {
                1u8.put(out);
                loads.put(out);
            }
        }
    }
    fn get(r: &mut &[u8]) -> Result<Self, CheckpointError> {
        match u8::get(r)? {
            0 => Vec::get(r).map(LoadsSnapshot::Discrete),
            1 => Vec::get(r).map(LoadsSnapshot::Continuous),
            _ => Err(CheckpointError::Truncated),
        }
    }
}

/// The payload. Version 2 interleaves the run record's fields with the
/// snapshot's own; the decoded record is checked for plausibility.
impl Wire for Snapshot {
    fn put(&self, out: &mut Vec<u8>) {
        let run = &self.run;
        self.round.put(out);
        self.rounds_in_scheme.put(out);
        run.origin.put(out);
        run.switch_round.put(out);
        run.degraded.put(out);
        self.min_transient.put(out);
        self.initial_total.put(out);
        self.round_stats.put(out);
        self.loads.put(out);
        self.prev_flow.put(out);
        self.fault_events.put(out);
        self.load_events.put(out);
        run.watch.put(out);
        run.steady.put(out);
        run.plateau.put(out);
        self.churn_events.put(out);
        self.churn_active.put(out);
    }
    fn get(r: &mut &[u8]) -> Result<Self, CheckpointError> {
        let (round, rounds_in_scheme) = (Wire::get(r)?, Wire::get(r)?);
        let (origin, switch_round, degraded) = (Wire::get(r)?, Wire::get(r)?, Wire::get(r)?);
        let (min_transient, initial_total) = (Wire::get(r)?, Wire::get(r)?);
        let (round_stats, loads, prev_flow) = (Wire::get(r)?, Wire::get(r)?, Wire::get(r)?);
        let (fault_events, load_events) = (Wire::get(r)?, Wire::get(r)?);
        let (watch, steady, plateau) = (Wire::get(r)?, Wire::get(r)?, Wire::get(r)?);
        let snap = Snapshot {
            round,
            rounds_in_scheme,
            min_transient,
            initial_total,
            round_stats,
            loads,
            prev_flow,
            fault_events,
            load_events,
            churn_events: Wire::get(r)?,
            churn_active: Wire::get(r)?,
            run: RunRecord {
                origin,
                switch_round,
                degraded,
                watch,
                steady,
                plateau,
            },
        };
        snap.run.check(snap.round)?;
        Ok(snap)
    }
}

/// Refuses run-loop state the run loop could not have produced: resuming
/// from it would not continue the run exactly.
fn impossible(what: &str) -> CheckpointError {
    CheckpointError::Mismatch(format!("its {what} could not have come from the run loop"))
}

impl RunRecord {
    /// Checks a record decoded at `round` against what the run loop can
    /// produce, naming the first part it could not have.
    fn check(&self, round: u64) -> Result<(), CheckpointError> {
        let watch = self.watch.as_ref().is_none_or(|w| {
            let cap = w.window.len();
            w.len <= cap && w.pos < cap
        });
        let steady = self.steady.as_ref().is_none_or(|s| {
            let cap = s.ring.len();
            let expected = if s.check {
                SteadyTracker::steady_ring(s.window)
            } else {
                Some(s.window)
            };
            s.window > 0 && expected == Some(cap) && s.len <= cap && s.pos < cap
        });
        let plateau = self
            .plateau
            .as_ref()
            .is_none_or(|p| p.window > 0 && p.history.len() <= p.window.saturating_mul(2));
        for (ok, what) in [
            (self.origin <= round, "run origin"),
            (watch, "watchdog ring"),
            (steady, "steady-state ring"),
            (plateau, "plateau history"),
        ] {
            if !ok {
                return Err(impossible(what));
            }
        }
        Ok(())
    }
}

/// Serializes a checkpoint to bytes (magic, version, spec line,
/// payload, trailing FNV-1a). Takes the already-rendered canonical
/// scenario line: the engine's auto-checkpoint path carries the line,
/// not the parsed spec.
fn encode_checkpoint_line(spec_line: &str, snap: &Snapshot) -> Vec<u8> {
    let mut out = Vec::with_capacity(256 + 16 * snap.prev_flow.len());
    out.extend_from_slice(MAGIC);
    VERSION.put(&mut out);
    spec_line.put(&mut out);
    snap.put(&mut out);
    fnv1a(&out).put(&mut out);
    out
}

/// Parses checkpoint bytes; the inverse of [`encode_checkpoint_line`].
fn decode_checkpoint(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
    let mut r = bytes;
    if take(&mut r, MAGIC.len())? != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = u32::get(&mut r)?;
    if version != VERSION {
        return Err(CheckpointError::UnsupportedVersion { found: version });
    }
    // Decode only the body: the checksum trailer is not payload.
    let body_len = r.len().checked_sub(8).ok_or(CheckpointError::Truncated)?;
    let (mut body, mut trailer) = r.split_at(body_len);
    let stored = u64::get(&mut trailer)?;
    let computed = fnv1a(&bytes[..bytes.len() - 8]);
    if stored != computed {
        return Err(CheckpointError::ChecksumMismatch { stored, computed });
    }
    let spec: ScenarioSpec = String::get(&mut body)?.parse()?;
    let snapshot = Snapshot::get(&mut body)?;
    if !body.is_empty() {
        return Err(CheckpointError::TrailingBytes(body.len()));
    }
    Ok(Checkpoint { spec, snapshot })
}

/// Writes a checkpoint file: encode, write to a temporary sibling,
/// atomically rename over `path`. The parent directory is created if
/// missing.
///
/// # Errors
///
/// [`CheckpointError::Io`] with the failing path on any filesystem
/// error.
pub fn write_checkpoint(
    path: &Path,
    spec: &ScenarioSpec,
    snap: &Snapshot,
) -> Result<(), CheckpointError> {
    write_checkpoint_line(path, &spec.to_string(), snap)
}

/// [`write_checkpoint`] from an already-rendered scenario line; the
/// engine's auto-checkpoint sink uses this to avoid re-parsing the spec
/// every interval.
pub(crate) fn write_checkpoint_line(
    path: &Path,
    spec_line: &str,
    snap: &Snapshot,
) -> Result<(), CheckpointError> {
    create_parent_dir(path)?;
    let bytes = encode_checkpoint_line(spec_line, snap);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    fs::write(&tmp, &bytes).map_err(|e| CheckpointError::io(&tmp, e))?;
    fs::rename(&tmp, path).map_err(|e| CheckpointError::io(path, e))
}

/// Creates `path`'s parent directory if it is missing.
pub(crate) fn create_parent_dir(path: &Path) -> Result<(), CheckpointError> {
    match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => {
            fs::create_dir_all(parent).map_err(|e| CheckpointError::io(parent, e))
        }
        _ => Ok(()),
    }
}

/// Reads and validates a checkpoint file.
///
/// # Errors
///
/// Every failure mode is a typed [`CheckpointError`]:
/// [`CheckpointError::Io`] (unreadable), [`CheckpointError::BadMagic`]
/// (not a checkpoint), [`CheckpointError::UnsupportedVersion`],
/// [`CheckpointError::Truncated`],
/// [`CheckpointError::ChecksumMismatch`] (bit corruption),
/// [`CheckpointError::Spec`] (unparseable embedded scenario), or
/// [`CheckpointError::Mismatch`] (run-loop tracker state the run loop
/// could not have produced). Never panics on malformed input.
pub fn read_checkpoint(path: &Path) -> Result<Checkpoint, CheckpointError> {
    let bytes = fs::read(path).map_err(|e| CheckpointError::io(path, e))?;
    decode_checkpoint(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> Snapshot {
        let mut steady = SteadyTracker::steady(4);
        let mut plateau = RemainingImbalance::new(3);
        for x in [9.0, 8.0, 7.5, 7.25, 7.25, 7.25, 7.0] {
            steady.push(x);
            plateau.push(x);
        }
        Snapshot {
            round: 40,
            rounds_in_scheme: 12,
            min_transient: -3.5,
            initial_total: 6400.0,
            round_stats: Some(LoadStats {
                min_transient: 1.0,
                min_load: 2.0,
                max_dev: 3.0,
                min_dev: -4.0,
                sum_sq_dev: 5.5,
            }),
            loads: LoadsSnapshot::Discrete(vec![3, -1, 98]),
            prev_flow: vec![0.25, -7.125],
            fault_events: FaultEvents {
                crashes: 4,
                rejoins: 3,
                edges_dropped: 17,
                shocks: 1,
                stale_edges: 9,
            },
            load_events: LoadEvents {
                arrivals: 11,
                departures: 6,
                injected: 123.5,
            },
            churn_events: ChurnEvents {
                departures: 2,
                arrivals: 3,
                handoffs: 5,
                joined: 24.0,
                departed: 17.5,
            },
            churn_active: vec![0xdead_beef_0042_1337, 0b101],
            run: RunRecord {
                origin: 8,
                switch_round: Some(36),
                degraded: true,
                watch: Some(DivergenceWatch {
                    armed: true,
                    window: std::array::from_fn(|i| i as f64),
                    len: 16,
                    pos: 5,
                }),
                steady: Some(steady),
                plateau: Some(plateau),
            },
        }
    }

    #[test]
    fn policy_display_roundtrip() {
        for text in ["every:16:ckpts", "every:1:/tmp/sodiff/run-a"] {
            let policy: CheckpointPolicy = text.parse().unwrap();
            assert_eq!(policy.to_string(), text);
        }
        assert!("every:0:dir".parse::<CheckpointPolicy>().is_err());
        assert!("every:16".parse::<CheckpointPolicy>().is_err());
        assert!("always:16:dir".parse::<CheckpointPolicy>().is_err());
        assert!("every:x:dir".parse::<CheckpointPolicy>().is_err());
    }

    #[test]
    fn snapshot_encoding_roundtrips() {
        let spec: ScenarioSpec = "name=t topology=cycle:8 stop=rounds:80".parse().unwrap();
        let snap = sample_snapshot();
        let bytes = encode_checkpoint_line(&spec.to_string(), &snap);
        let back = decode_checkpoint(&bytes).unwrap();
        assert_eq!(back.spec, spec);
        assert_eq!(back.snapshot, snap);

        // A continuous snapshot with all the optionals absent.
        let snap = Snapshot {
            round_stats: None,
            loads: LoadsSnapshot::Continuous(vec![1.5, 2.5]),
            run: RunRecord::default(),
            ..snap
        };
        let back = decode_checkpoint(&encode_checkpoint_line(&spec.to_string(), &snap)).unwrap();
        assert_eq!(back.snapshot, snap);
    }

    #[test]
    fn corrupted_bytes_yield_typed_errors() {
        let spec: ScenarioSpec = "name=t topology=cycle:8".parse().unwrap();
        let good = encode_checkpoint_line(&spec.to_string(), &sample_snapshot());

        assert_eq!(
            decode_checkpoint(&good[..4]),
            Err(CheckpointError::Truncated)
        );
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xff;
        assert_eq!(
            decode_checkpoint(&bad_magic),
            Err(CheckpointError::BadMagic)
        );
        let mut bad_version = good.clone();
        bad_version[8] = 0x7f;
        assert_eq!(
            decode_checkpoint(&bad_version),
            Err(CheckpointError::UnsupportedVersion { found: 0x7f })
        );
        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        assert!(matches!(
            decode_checkpoint(&flipped),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));
        // Truncation anywhere in the body: never a panic, always typed.
        for cut in [9, 15, 40, good.len() - 9, good.len() - 1] {
            assert!(decode_checkpoint(&good[..cut]).is_err());
        }
    }

    /// A checksum-valid file whose length prefix claims more than the
    /// file holds is refused as truncation before the prefix sizes any
    /// allocation: for every sequence in the payload and for the spec
    /// line.
    #[test]
    fn oversized_length_prefixes_are_truncation() {
        let spec_line = "name=t topology=cycle:8"
            .parse::<ScenarioSpec>()
            .unwrap()
            .to_string();
        let good = encode_checkpoint_line(&spec_line, &sample_snapshot());
        let decode_with = |at: usize, prefix: &[u8]| {
            let mut bytes = good.clone();
            bytes[at..at + prefix.len()].copy_from_slice(prefix);
            let body = bytes.len() - 8;
            let checksum = fnv1a(&bytes[..body]);
            bytes[body..].copy_from_slice(&checksum.to_le_bytes());
            decode_checkpoint(&bytes)
        };
        assert_eq!(
            u32::from_le_bytes(good[12..16].try_into().unwrap()) as usize,
            spec_line.len()
        );
        for prefix in [u32::MAX, (good.len() - 16) as u32 + 1] {
            assert_eq!(
                decode_with(12, &prefix.to_le_bytes()),
                Err(CheckpointError::Truncated)
            );
        }

        // Each sequence's count prefix starts at the first byte that an
        // appended element changes (the watchdog ring has a fixed
        // length, so its prefix is found as the byte after `armed`).
        let refused = |what: &str, skip: usize, edit: &dyn Fn(&mut Snapshot)| {
            let mut snap = sample_snapshot();
            edit(&mut snap);
            let edited = encode_checkpoint_line(&spec_line, &snap);
            let at = skip + (0..good.len()).find(|&i| good[i] != edited[i]).unwrap();
            let len = u64::from_le_bytes(good[at..at + 8].try_into().unwrap());
            assert!((2..=16).contains(&len), "{what}: {len} is no length prefix");
            let remaining = (good.len() - at - 8 - 8) as u64;
            for prefix in [u64::MAX, 1 << 60, remaining / 8 + 1] {
                assert_eq!(
                    decode_with(at, &prefix.to_le_bytes()),
                    Err(CheckpointError::Truncated),
                    "{what} with a length prefix of {prefix}"
                );
            }
        };
        refused("loads", 0, &|s| match &mut s.loads {
            LoadsSnapshot::Discrete(loads) => loads.push(0),
            LoadsSnapshot::Continuous(_) => unreachable!(),
        });
        refused("prev_flow", 0, &|s| s.prev_flow.push(0.0));
        refused("churn overlay", 0, &|s| s.churn_active.push(0));
        refused("watchdog ring", 1, &|s| {
            s.run.watch.as_mut().unwrap().armed = false
        });
        refused("steady ring", 0, &|s| {
            s.run.steady.as_mut().unwrap().ring.push(0.0)
        });
        refused("plateau history", 0, &|s| {
            s.run.plateau.as_mut().unwrap().history.push_back(0.0)
        });
    }

    /// Tracker state the run loop could not have produced is refused at
    /// decode, each kind by name.
    #[test]
    fn impossible_tracker_state_is_refused() {
        let spec: ScenarioSpec = "name=t topology=cycle:8".parse().unwrap();
        let refused = |edit: &dyn Fn(&mut RunRecord), what: &str| {
            let mut snap = sample_snapshot();
            edit(&mut snap.run);
            match decode_checkpoint(&encode_checkpoint_line(&spec.to_string(), &snap)) {
                Err(CheckpointError::Mismatch(msg)) => assert!(msg.contains(what), "{msg}"),
                other => panic!("{what}: {other:?}"),
            }
        };
        refused(&|r| r.origin = 41, "run origin");
        refused(&|r| r.watch.as_mut().unwrap().pos = 16, "watchdog ring");
        refused(&|r| r.watch.as_mut().unwrap().len = 17, "watchdog ring");
        refused(&|r| r.steady.as_mut().unwrap().pos = 8, "steady-state ring");
        refused(&|r| r.steady.as_mut().unwrap().len = 9, "steady-state ring");
        refused(
            &|r| r.steady.as_mut().unwrap().window = 3,
            "steady-state ring",
        );
        refused(
            &|r| r.steady.as_mut().unwrap().check = false,
            "steady-state ring",
        );
        refused(
            &|r| r.plateau.as_mut().unwrap().history.push_back(1.0),
            "plateau history",
        );
        refused(
            &|r| r.plateau.as_mut().unwrap().window = 0,
            "plateau history",
        );
    }

    #[test]
    fn remaining_stop_shrinks_budgets() {
        let mut snap = Snapshot {
            round: 30,
            ..sample_snapshot()
        };
        snap.run.origin = 0;
        assert_eq!(
            snap.remaining_stop(StopCondition::MaxRounds(80)),
            StopCondition::MaxRounds(50)
        );
        assert_eq!(
            snap.remaining_stop(StopCondition::Horizon(30)),
            StopCondition::Horizon(0)
        );
        assert_eq!(
            snap.remaining_stop(StopCondition::Horizon(31)),
            StopCondition::Horizon(1)
        );
        assert_eq!(
            snap.remaining_stop(StopCondition::Steady { window: 16 }),
            StopCondition::Steady { window: 16 }
        );
        let plateau = snap.remaining_stop(StopCondition::Plateau {
            window: 10,
            max_rounds: 100,
        });
        assert_eq!(
            plateau,
            StopCondition::Plateau {
                window: 10,
                max_rounds: 70
            }
        );
    }
}
