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
//! * the round counters (`round`, `rounds_in_scheme`, the run origin)
//!   and the hybrid/switch state (`switch_round`, `degraded`),
//! * the fused per-round statistics (`min_transient`, the last round's
//!   [`crate::kernel::LoadStats`]),
//! * the cumulative [`FaultEvents`]/[`LoadEvents`]/[`ChurnEvents`]
//!   counters (the fault *masks* are re-derived per epoch from the
//!   spec's streams),
//! * the churn axis's active-node overlay words — the one
//!   history-dependent piece of axis state (a Markov chain over
//!   epochs), persisted verbatim so restore installs it without ever
//!   redrawing a transition,
//! * the divergence-watchdog window, the steady-state ring, and the
//!   plateau history — the small metric rings the stop conditions and
//!   the degradation logic read.
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
//! preceding byte. Version 2 (the churn release) appends the churn
//! event counters and the active-node overlay words after the version-1
//! payload; **version-1 files still load** — their churn fields decode
//! to the "churn never ran" defaults, which is exactly right because a
//! v1 writer predates the axis. Unknown (v3+) or zero versions are
//! rejected as [`CheckpointError::UnsupportedVersion`]. Files are
//! written to a temporary sibling and atomically renamed, so a crash
//! mid-write never leaves a torn "latest" checkpoint. Loading **never
//! panics**: truncation, bit corruption, and version skew surface as
//! typed [`CheckpointError`] variants.
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
use crate::observer::{NullObserver, Observer};
use crate::perturb::{ChurnEvents, FaultEvents, LoadEvents};
use crate::scenario::{ScenarioSpec, StopSpec};

/// Magic bytes every checkpoint file starts with.
const MAGIC: &[u8; 8] = b"SODIFFCK";
/// The format version this build writes. Version 2 appended the churn
/// event counters and the active-node overlay; every version from
/// [`MIN_VERSION`] up is still readable.
const VERSION: u32 = 2;
/// The oldest format version this build still reads.
const MIN_VERSION: u32 = 1;

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

/// The divergence-watchdog ring at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WatchSnapshot {
    pub armed: bool,
    pub ring: Vec<f64>,
    pub len: usize,
    pub pos: usize,
}

/// The steady-state tracker ring at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SteadySnapshot {
    pub window: usize,
    pub ring: Vec<f64>,
    pub pos: usize,
    pub len: usize,
    pub newer_sum: f64,
    pub older_sum: f64,
    pub check: bool,
}

/// The plateau tracker's history tail at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PlateauSnapshot {
    pub window: usize,
    pub history: Vec<f64>,
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
    /// `round` at the start of the interrupted `run_*` call: the origin
    /// hybrid triggers count from, and what turns the spec's absolute
    /// stop budget into a remaining one.
    pub(crate) run_start: u64,
    pub(crate) switch_round: Option<u64>,
    pub(crate) degraded: bool,
    pub(crate) min_transient: f64,
    /// Total initial load baked into the kernel tables; restore
    /// validates it bit-exactly against the target simulator's.
    pub(crate) initial_total: f64,
    /// The last round's fused statistics, if a round has run.
    pub(crate) round_stats: Option<[f64; 5]>,
    pub(crate) loads: LoadsSnapshot,
    pub(crate) prev_flow: Vec<f64>,
    pub(crate) fault_events: FaultEvents,
    pub(crate) load_events: LoadEvents,
    pub(crate) churn_events: ChurnEvents,
    /// The churn axis's active-node overlay words at snapshot time
    /// (empty = churn never ran; version-1 files always decode to
    /// empty). Persisted verbatim because the overlay is a Markov chain
    /// over epochs — restore must never redraw a transition.
    pub(crate) churn_active: Vec<u64>,
    pub(crate) watch: Option<WatchSnapshot>,
    pub(crate) steady: Option<SteadySnapshot>,
    pub(crate) plateau: Option<PlateauSnapshot>,
}

impl Snapshot {
    /// The round the snapshot was taken at (rounds fully executed).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Rounds executed by the interrupted run up to this snapshot.
    pub fn rounds_done(&self) -> u64 {
        self.round.saturating_sub(self.run_start)
    }

    /// Converts the spec's (absolute) stop condition into the condition
    /// for the *remaining* run after this snapshot. Round-count budgets
    /// shrink by [`Self::rounds_done`]; `steady:` keeps watching the
    /// restored ring.
    pub(crate) fn remaining_stop(&self, stop: StopSpec) -> StopCondition {
        let done = self.rounds_done() as usize;
        match stop {
            StopSpec::Rounds(r) => StopCondition::MaxRounds(r.saturating_sub(done)),
            StopSpec::Balanced {
                threshold,
                max_rounds,
            } => StopCondition::BalancedWithin {
                threshold,
                max_rounds: max_rounds.saturating_sub(done),
            },
            StopSpec::Plateau { window, max_rounds } => StopCondition::Plateau {
                window,
                max_rounds: max_rounds.saturating_sub(done),
            },
            StopSpec::Steady { window } => StopCondition::Steady { window },
            StopSpec::Horizon(r) => {
                if r > done {
                    StopCondition::Horizon(r - done)
                } else {
                    StopCondition::MaxRounds(0)
                }
            }
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
        let mut sim = experiment.simulator();
        sim.restore(&self.snapshot)?;
        let stop = self.snapshot.remaining_stop(self.spec.stop);
        Ok(match experiment.hybrid_policy() {
            Some(policy) => sim.run_hybrid_with(policy, stop, observer),
            None => sim.run_until_with(stop, observer),
        })
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
    fn vec_f64(&mut self, xs: &[f64]) {
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

fn encode_snapshot(enc: &mut Enc, snap: &Snapshot, version: u32) {
    enc.u64(snap.round);
    enc.u64(snap.rounds_in_scheme);
    enc.u64(snap.run_start);
    enc.opt_u64(snap.switch_round);
    enc.bool(snap.degraded);
    enc.f64(snap.min_transient);
    enc.f64(snap.initial_total);
    match snap.round_stats {
        Some(stats) => {
            enc.bool(true);
            for x in stats {
                enc.f64(x);
            }
        }
        None => enc.bool(false),
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
    match &snap.watch {
        Some(w) => {
            enc.bool(true);
            enc.bool(w.armed);
            enc.vec_f64(&w.ring);
            enc.usize(w.len);
            enc.usize(w.pos);
        }
        None => enc.bool(false),
    }
    match &snap.steady {
        Some(s) => {
            enc.bool(true);
            enc.usize(s.window);
            enc.vec_f64(&s.ring);
            enc.usize(s.pos);
            enc.usize(s.len);
            enc.f64(s.newer_sum);
            enc.f64(s.older_sum);
            enc.bool(s.check);
        }
        None => enc.bool(false),
    }
    match &snap.plateau {
        Some(p) => {
            enc.bool(true);
            enc.usize(p.window);
            enc.vec_f64(&p.history);
        }
        None => enc.bool(false),
    }
    // Version 2 appends the churn axis: event counters plus the
    // active-node overlay words (the history-dependent Markov state).
    if version >= 2 {
        let ce = snap.churn_events;
        enc.u64(ce.departures);
        enc.u64(ce.arrivals);
        enc.u64(ce.handoffs);
        enc.f64(ce.joined);
        enc.f64(ce.departed);
        enc.vec_u64(&snap.churn_active);
    }
}

fn decode_snapshot(dec: &mut Dec<'_>, version: u32) -> Result<Snapshot, CheckpointError> {
    let round = dec.u64()?;
    let rounds_in_scheme = dec.u64()?;
    let run_start = dec.u64()?;
    let switch_round = dec.opt_u64()?;
    let degraded = dec.bool()?;
    let min_transient = dec.f64()?;
    let initial_total = dec.f64()?;
    let round_stats = if dec.bool()? {
        let mut stats = [0.0; 5];
        for x in &mut stats {
            *x = dec.f64()?;
        }
        Some(stats)
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
        let ring = dec.vec_f64()?;
        let len = dec.usize()?;
        let pos = dec.usize()?;
        Some(WatchSnapshot {
            armed,
            ring,
            len,
            pos,
        })
    } else {
        None
    };
    let steady = if dec.bool()? {
        let window = dec.usize()?;
        let ring = dec.vec_f64()?;
        let pos = dec.usize()?;
        let len = dec.usize()?;
        let newer_sum = dec.f64()?;
        let older_sum = dec.f64()?;
        let check = dec.bool()?;
        Some(SteadySnapshot {
            window,
            ring,
            pos,
            len,
            newer_sum,
            older_sum,
            check,
        })
    } else {
        None
    };
    let plateau = if dec.bool()? {
        let window = dec.usize()?;
        let history = dec.vec_f64()?;
        Some(PlateauSnapshot { window, history })
    } else {
        None
    };
    // Version-1 files predate the churn axis: their churn fields decode
    // to the "churn never ran" defaults (empty overlay, zero counters).
    let (churn_events, churn_active) = if version >= 2 {
        let churn_events = ChurnEvents {
            departures: dec.u64()?,
            arrivals: dec.u64()?,
            handoffs: dec.u64()?,
            joined: dec.f64()?,
            departed: dec.f64()?,
        };
        (churn_events, dec.vec_u64()?)
    } else {
        (ChurnEvents::default(), Vec::new())
    };
    Ok(Snapshot {
        round,
        rounds_in_scheme,
        run_start,
        switch_round,
        degraded,
        min_transient,
        initial_total,
        round_stats,
        loads,
        prev_flow,
        fault_events,
        load_events,
        churn_events,
        churn_active,
        watch,
        steady,
        plateau,
    })
}

/// Serializes a checkpoint to bytes (magic, version, spec line,
/// payload, trailing FNV-1a). Takes the already-rendered canonical
/// scenario line: the engine's auto-checkpoint path carries the line,
/// not the parsed spec.
fn encode_checkpoint_line(spec_line: &str, snap: &Snapshot) -> Vec<u8> {
    encode_checkpoint_line_at(spec_line, snap, VERSION)
}

/// Serializes at an explicit (older) format version. Production writes
/// always use [`VERSION`]; the back-compat fixture generator uses this
/// to emit a faithful version-1 file.
pub(crate) fn encode_checkpoint_line_at(spec_line: &str, snap: &Snapshot, version: u32) -> Vec<u8> {
    let mut enc = Enc {
        buf: Vec::with_capacity(256 + 16 * snap.prev_flow.len()),
    };
    enc.buf.extend_from_slice(MAGIC);
    enc.u32(version);
    enc.str(spec_line);
    encode_snapshot(&mut enc, snap, version);
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
    if !(MIN_VERSION..=VERSION).contains(&version) {
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
    let snapshot = decode_snapshot(&mut dec, version)?;
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
/// [`CheckpointError::ChecksumMismatch`] (bit corruption), or
/// [`CheckpointError::Spec`] (unparseable embedded scenario). Never
/// panics on malformed input.
pub fn read_checkpoint(path: &Path) -> Result<Checkpoint, CheckpointError> {
    let bytes = fs::read(path).map_err(|e| CheckpointError::io(path, e))?;
    decode_checkpoint(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> Snapshot {
        Snapshot {
            round: 40,
            rounds_in_scheme: 12,
            run_start: 8,
            switch_round: Some(36),
            degraded: true,
            min_transient: -3.5,
            initial_total: 6400.0,
            round_stats: Some([1.0, 2.0, 3.0, -4.0, 5.5]),
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
            watch: Some(WatchSnapshot {
                armed: true,
                ring: (0..16).map(|i| i as f64).collect(),
                len: 16,
                pos: 5,
            }),
            steady: Some(SteadySnapshot {
                window: 4,
                ring: vec![1.0; 8],
                pos: 3,
                len: 8,
                newer_sum: 4.0,
                older_sum: 4.0,
                check: true,
            }),
            plateau: Some(PlateauSnapshot {
                window: 3,
                history: vec![9.0, 8.0, 7.5, 7.25, 7.25, 7.25],
            }),
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
            switch_round: None,
            round_stats: None,
            loads: LoadsSnapshot::Continuous(vec![1.5, 2.5]),
            watch: None,
            steady: None,
            plateau: None,
            degraded: false,
            ..snap
        };
        let back = decode_checkpoint(&encode_checkpoint_line(&spec.to_string(), &snap)).unwrap();
        assert_eq!(back.snapshot, snap);
    }

    /// Regenerates the committed version-1 back-compat fixture
    /// (`tests/fixtures/checkpoint_v1.ckpt`): the crash-churn golden
    /// scenario run to round 33, encoded with the v1 codec (no churn
    /// fields). `tests/checkpoint_corruption.rs` resumes it under the
    /// v2 reader and must land on the pinned golden checksum. Ignored:
    /// run `cargo test -p sodiff-core regenerate_v1 -- --ignored` only
    /// when the fixture scenario itself changes.
    #[test]
    #[ignore]
    fn regenerate_v1_fixture() {
        let line = "name=v1fix topology=torus2d:8:8 rounding=nearest scheme=sos:1.7 \
                    init=point:0:6400 faults=crash:0.1:7 stop=rounds:64";
        let spec: ScenarioSpec = line.parse().unwrap();
        let graph = spec.build_graph().unwrap();
        let mut sim = spec.experiment_on(&graph).unwrap().simulator();
        sim.run_until(StopCondition::MaxRounds(33));
        let bytes = encode_checkpoint_line_at(&spec.to_string(), &sim.snapshot(), 1);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/fixtures/checkpoint_v1.ckpt");
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, &bytes).unwrap();
        // The file we just wrote must decode as a v1 checkpoint.
        let back = decode_checkpoint(&bytes).unwrap();
        assert_eq!(back.snapshot.round, 33);
        assert_eq!(back.snapshot.churn_active, Vec::<u64>::new());
    }

    #[test]
    fn version_one_files_decode_with_churn_defaults() {
        let spec: ScenarioSpec = "name=t topology=cycle:8 stop=rounds:80".parse().unwrap();
        let snap = sample_snapshot();
        let v1 = encode_checkpoint_line_at(&spec.to_string(), &snap, 1);
        let back = decode_checkpoint(&v1).unwrap();
        // Everything the v1 format carries round-trips; the churn
        // fields decode to "churn never ran".
        let expected = Snapshot {
            churn_events: ChurnEvents::default(),
            churn_active: Vec::new(),
            ..snap
        };
        assert_eq!(back.snapshot, expected);
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

    #[test]
    fn remaining_stop_shrinks_budgets() {
        let snap = Snapshot {
            run_start: 0,
            round: 30,
            ..sample_snapshot()
        };
        assert_eq!(
            snap.remaining_stop(StopSpec::Rounds(80)),
            StopCondition::MaxRounds(50)
        );
        assert_eq!(
            snap.remaining_stop(StopSpec::Horizon(30)),
            StopCondition::MaxRounds(0)
        );
        assert_eq!(
            snap.remaining_stop(StopSpec::Horizon(31)),
            StopCondition::Horizon(1)
        );
        assert_eq!(
            snap.remaining_stop(StopSpec::Steady { window: 16 }),
            StopCondition::Steady { window: 16 }
        );
        let plateau = snap.remaining_stop(StopSpec::Plateau {
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
