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
//! Little-endian throughout: an 8-byte magic (`SODIFFCK`), a `u32`
//! format version, a length-prefixed [`ScenarioSpec`] display line, the
//! encoded snapshot payload, and a trailing FNV-1a checksum over every
//! preceding byte. Version 2 is the only version this build reads or
//! writes; any other version (the pre-churn version 1 included) is
//! rejected as [`CheckpointError::UnsupportedVersion`] before the
//! checksum is checked. Files are written to a temporary sibling and
//! atomically renamed, so a crash mid-write never leaves a torn "latest"
//! checkpoint. Loading **never panics**: truncation, bit corruption,
//! version skew and tracker state the run loop could not have produced
//! surface as typed [`CheckpointError`] variants.
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

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, x: u8) {
        self.buf.push(x);
    }
    fn bool(&mut self, x: bool) {
        self.u8(x as u8);
    }
    fn u32(&mut self, x: u32) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }
    fn u64(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }
    fn usize(&mut self, x: usize) {
        self.u64(x as u64);
    }
    fn i64(&mut self, x: i64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }
    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }
    fn opt_u64(&mut self, x: Option<u64>) {
        match x {
            Some(v) => {
                self.bool(true);
                self.u64(v);
            }
            None => self.bool(false),
        }
    }
    fn vec_f64<'a, I>(&mut self, xs: I)
    where
        I: IntoIterator<Item = &'a f64>,
        I::IntoIter: ExactSizeIterator,
    {
        let xs = xs.into_iter();
        self.usize(xs.len());
        for &x in xs {
            self.f64(x);
        }
    }
    fn vec_i64(&mut self, xs: &[i64]) {
        self.usize(xs.len());
        for &x in xs {
            self.i64(x);
        }
    }
    fn vec_u64(&mut self, xs: &[u64]) {
        self.usize(xs.len());
        for &x in xs {
            self.u64(x);
        }
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.bytes.len() - self.pos < n {
            return Err(CheckpointError::Truncated);
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }
    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }
    fn bool(&mut self) -> Result<bool, CheckpointError> {
        Ok(self.u8()? != 0)
    }
    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn usize(&mut self) -> Result<usize, CheckpointError> {
        usize::try_from(self.u64()?).map_err(|_| CheckpointError::Truncated)
    }
    fn i64(&mut self) -> Result<i64, CheckpointError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn opt_u64(&mut self) -> Result<Option<u64>, CheckpointError> {
        Ok(if self.bool()? {
            Some(self.u64()?)
        } else {
            None
        })
    }
    /// A length prefix, bounded by what the remaining bytes could hold
    /// so a corrupted length can never trigger a huge allocation.
    fn len(&mut self, elem_size: usize) -> Result<usize, CheckpointError> {
        let n = self.usize()?;
        if n.checked_mul(elem_size)
            .is_none_or(|total| total > self.bytes.len() - self.pos)
        {
            return Err(CheckpointError::Truncated);
        }
        Ok(n)
    }
    fn vec_f64(&mut self) -> Result<Vec<f64>, CheckpointError> {
        let n = self.len(8)?;
        (0..n).map(|_| self.f64()).collect()
    }
    fn vec_i64(&mut self) -> Result<Vec<i64>, CheckpointError> {
        let n = self.len(8)?;
        (0..n).map(|_| self.i64()).collect()
    }
    fn vec_u64(&mut self) -> Result<Vec<u64>, CheckpointError> {
        let n = self.len(8)?;
        (0..n).map(|_| self.u64()).collect()
    }
    fn str(&mut self) -> Result<String, CheckpointError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CheckpointError::Truncated)
    }
}

/// Refuses run-loop state the run loop could not have produced: resuming
/// from it would not continue the run exactly.
fn impossible(what: &str) -> CheckpointError {
    CheckpointError::Mismatch(format!("its {what} could not have come from the run loop"))
}

fn encode_snapshot(enc: &mut Enc, snap: &Snapshot) {
    let run = &snap.run;
    enc.u64(snap.round);
    enc.u64(snap.rounds_in_scheme);
    enc.u64(run.origin);
    enc.opt_u64(run.switch_round);
    enc.bool(run.degraded);
    enc.f64(snap.min_transient);
    enc.f64(snap.initial_total);
    enc.bool(snap.round_stats.is_some());
    if let Some(s) = snap.round_stats {
        for x in [
            s.min_transient,
            s.min_load,
            s.max_dev,
            s.min_dev,
            s.sum_sq_dev,
        ] {
            enc.f64(x);
        }
    }
    match &snap.loads {
        LoadsSnapshot::Discrete(loads) => {
            enc.u8(0);
            enc.vec_i64(loads);
        }
        LoadsSnapshot::Continuous(loads) => {
            enc.u8(1);
            enc.vec_f64(loads);
        }
    }
    enc.vec_f64(&snap.prev_flow);
    let fe = snap.fault_events;
    enc.u64(fe.crashes);
    enc.u64(fe.rejoins);
    enc.u64(fe.edges_dropped);
    enc.u64(fe.shocks);
    enc.u64(fe.stale_edges);
    let le = snap.load_events;
    enc.u64(le.arrivals);
    enc.u64(le.departures);
    enc.f64(le.injected);
    enc.bool(run.watch.is_some());
    if let Some(w) = &run.watch {
        enc.bool(w.armed);
        enc.vec_f64(&w.window);
        enc.usize(w.len);
        enc.usize(w.pos);
    }
    enc.bool(run.steady.is_some());
    if let Some(s) = &run.steady {
        enc.usize(s.window);
        enc.vec_f64(&s.ring);
        enc.usize(s.pos);
        enc.usize(s.len);
        enc.f64(s.newer_sum);
        enc.f64(s.older_sum);
        enc.bool(s.check);
    }
    enc.bool(run.plateau.is_some());
    if let Some(p) = &run.plateau {
        enc.usize(p.window);
        enc.vec_f64(&p.history);
    }
    let ce = snap.churn_events;
    enc.u64(ce.departures);
    enc.u64(ce.arrivals);
    enc.u64(ce.handoffs);
    enc.f64(ce.joined);
    enc.f64(ce.departed);
    enc.vec_u64(&snap.churn_active);
}

fn decode_snapshot(dec: &mut Dec<'_>) -> Result<Snapshot, CheckpointError> {
    let round = dec.u64()?;
    let rounds_in_scheme = dec.u64()?;
    let origin = dec.u64()?;
    if origin > round {
        return Err(impossible("run origin"));
    }
    let switch_round = dec.opt_u64()?;
    let degraded = dec.bool()?;
    let min_transient = dec.f64()?;
    let initial_total = dec.f64()?;
    let round_stats = if dec.bool()? {
        Some(LoadStats {
            min_transient: dec.f64()?,
            min_load: dec.f64()?,
            max_dev: dec.f64()?,
            min_dev: dec.f64()?,
            sum_sq_dev: dec.f64()?,
        })
    } else {
        None
    };
    let loads = match dec.u8()? {
        0 => LoadsSnapshot::Discrete(dec.vec_i64()?),
        1 => LoadsSnapshot::Continuous(dec.vec_f64()?),
        _ => return Err(CheckpointError::Truncated),
    };
    let prev_flow = dec.vec_f64()?;
    let fault_events = FaultEvents {
        crashes: dec.u64()?,
        rejoins: dec.u64()?,
        edges_dropped: dec.u64()?,
        shocks: dec.u64()?,
        stale_edges: dec.u64()?,
    };
    let load_events = LoadEvents {
        arrivals: dec.u64()?,
        departures: dec.u64()?,
        injected: dec.f64()?,
    };
    let watch = if dec.bool()? {
        let armed = dec.bool()?;
        let window = dec.vec_f64()?;
        let w = DivergenceWatch {
            armed,
            window: window.try_into().map_err(|_| impossible("watchdog ring"))?,
            len: dec.usize()?,
            pos: dec.usize()?,
        };
        if w.len > w.window.len() || w.pos >= w.window.len() {
            return Err(impossible("watchdog ring"));
        }
        Some(w)
    } else {
        None
    };
    let steady = if dec.bool()? {
        let s = SteadyTracker {
            window: dec.usize()?,
            ring: dec.vec_f64()?,
            pos: dec.usize()?,
            len: dec.usize()?,
            newer_sum: dec.f64()?,
            older_sum: dec.f64()?,
            check: dec.bool()?,
        };
        let capacity = if s.check {
            s.window.checked_mul(2)
        } else {
            Some(s.window)
        };
        if s.window == 0
            || capacity != Some(s.ring.len())
            || s.pos >= s.ring.len()
            || s.len > s.ring.len()
        {
            return Err(impossible("steady-state ring"));
        }
        Some(s)
    } else {
        None
    };
    let plateau = if dec.bool()? {
        let window = dec.usize()?;
        let history = dec.vec_f64()?;
        if window == 0 || history.len() > window.saturating_mul(2) {
            return Err(impossible("plateau history"));
        }
        Some(RemainingImbalance {
            window,
            history: history.into(),
        })
    } else {
        None
    };
    let churn_events = ChurnEvents {
        departures: dec.u64()?,
        arrivals: dec.u64()?,
        handoffs: dec.u64()?,
        joined: dec.f64()?,
        departed: dec.f64()?,
    };
    Ok(Snapshot {
        round,
        rounds_in_scheme,
        min_transient,
        initial_total,
        round_stats,
        loads,
        prev_flow,
        fault_events,
        load_events,
        churn_events,
        churn_active: dec.vec_u64()?,
        run: RunRecord {
            origin,
            switch_round,
            degraded,
            watch,
            steady,
            plateau,
        },
    })
}

/// Serializes a checkpoint to bytes (magic, version, spec line,
/// payload, trailing FNV-1a). Takes the already-rendered canonical
/// scenario line: the engine's auto-checkpoint path carries the line,
/// not the parsed spec.
fn encode_checkpoint_line(spec_line: &str, snap: &Snapshot) -> Vec<u8> {
    let mut enc = Enc {
        buf: Vec::with_capacity(256 + 16 * snap.prev_flow.len()),
    };
    enc.buf.extend_from_slice(MAGIC);
    enc.u32(VERSION);
    enc.str(spec_line);
    encode_snapshot(&mut enc, snap);
    let checksum = fnv1a(&enc.buf);
    enc.u64(checksum);
    enc.buf
}

/// Parses checkpoint bytes; the inverse of [`encode_checkpoint`].
fn decode_checkpoint(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
    if bytes.len() < MAGIC.len() {
        return Err(CheckpointError::Truncated);
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let mut dec = Dec {
        bytes,
        pos: MAGIC.len(),
    };
    let version = dec.u32()?;
    if version != VERSION {
        return Err(CheckpointError::UnsupportedVersion { found: version });
    }
    if bytes.len() < MAGIC.len() + 4 + 8 {
        return Err(CheckpointError::Truncated);
    }
    let body_len = bytes.len() - 8;
    let stored = u64::from_le_bytes(bytes[body_len..].try_into().unwrap());
    let computed = fnv1a(&bytes[..body_len]);
    if stored != computed {
        return Err(CheckpointError::ChecksumMismatch { stored, computed });
    }
    // Decode only the body: the checksum trailer is not payload.
    dec.bytes = &bytes[..body_len];
    let spec_line = dec.str()?;
    let spec: ScenarioSpec = spec_line.parse()?;
    let snapshot = decode_snapshot(&mut dec)?;
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
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent).map_err(|e| CheckpointError::io(parent, e))?;
        }
    }
    let bytes = encode_checkpoint_line(spec_line, snap);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    fs::write(&tmp, &bytes).map_err(|e| CheckpointError::io(&tmp, e))?;
    fs::rename(&tmp, path).map_err(|e| CheckpointError::io(path, e))
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
