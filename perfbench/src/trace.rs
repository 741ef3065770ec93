//! In-memory spans for the traced run, and the round clock observer.
//!
//! The library has no timers of its own here: every span is opened and
//! closed by the benchmark around one call into a layer's public
//! function, kept in memory, and written out as JSON lines when the run
//! ends.

use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use sodiff_core::{Observer, Simulator};

use crate::report::json_str;

/// One closed span. `parent` is the span that caused it; spans of one
/// scenario share `scenario`.
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub scenario: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// A span that has been opened but not closed yet.
pub struct Open {
    pub id: u64,
    parent: Option<u64>,
    scenario: u32,
    name: &'static str,
    start: Instant,
}

/// Span recorder. Tracers whose spans are merged later share an epoch
/// and get disjoint id ranges through `lane`.
pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, lane: u64) -> Self {
        Self {
            epoch,
            next_id: lane << 40,
            spans: Vec::with_capacity(1024),
        }
    }

    pub fn open(&mut self, name: &'static str, parent: Option<u64>, scenario: u32) -> Open {
        self.next_id += 1;
        Open {
            id: self.next_id,
            parent,
            scenario,
            name,
            start: Instant::now(),
        }
    }

    /// Closes `open` and returns its duration in seconds.
    pub fn close(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            id: open.id,
            parent: open.parent,
            scenario: open.scenario,
            name: open.name,
            start_ns: ns(open.start),
            end_ns: ns(end),
        };
        let secs = span.secs();
        self.spans.push(span);
        secs
    }

    /// Sum of the durations of every span called `name`, in seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// The share of the `worker` spans' time that no layer span covers
    /// (layer spans are every span but `worker` and `scenario`, which
    /// only group them).
    pub fn unaccounted_frac(&self) -> f64 {
        let total = self.total("worker");
        let covered: f64 = self
            .spans
            .iter()
            .filter(|s| s.name != "worker" && s.name != "scenario")
            .map(Span::secs)
            .sum();
        if total > 0.0 {
            1.0 - covered / total
        } else {
            0.0
        }
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"scenario\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.id,
                s.scenario,
                json_str(s.name),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Mid-run state copied out of a simulator: integer loads and SOS flow
/// memory (the input of the kernel phase timings).
pub struct Captured {
    pub loads: Vec<i64>,
    pub prev: Vec<f64>,
}

impl Captured {
    pub fn of(sim: &Simulator<'_>) -> Option<Self> {
        Some(Self {
            loads: sim.loads_i64()?.to_vec(),
            prev: sim.previous_flows().to_vec(),
        })
    }
}

/// Observer that timestamps the end of every round, and optionally
/// copies the state out once at a given round.
pub struct RoundClock {
    start: Instant,
    stamps: Vec<Instant>,
    capture_at: Option<u64>,
    pub captured: Option<Captured>,
}

impl RoundClock {
    pub fn new(capture_at: Option<u64>) -> Self {
        Self {
            start: Instant::now(),
            stamps: Vec::with_capacity(8192),
            capture_at,
            captured: None,
        }
    }

    /// Marks the start of the round loop.
    pub fn start(&mut self) {
        self.start = Instant::now();
    }

    /// Duration of every observed round, in seconds.
    pub fn round_secs(&self) -> Vec<f64> {
        let mut prev = self.start;
        self.stamps
            .iter()
            .map(|&t| {
                let d = t.duration_since(prev).as_secs_f64();
                prev = t;
                d
            })
            .collect()
    }
}

impl Observer for RoundClock {
    fn on_round(&mut self, sim: &Simulator<'_>) {
        self.stamps.push(Instant::now());
        if self.capture_at == Some(sim.round()) {
            self.captured = Captured::of(sim);
        }
    }
}
