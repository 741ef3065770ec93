//! The run loop's state, [`RunRecord`], and the watchers in it. The
//! watchers are fed by the fused per-round `max_dev` statistic of
//! [`crate::kernel::LoadStats`] (so none adds a per-round sweep): the
//! divergence watchdog behind graceful degradation, the windowed
//! steady-state tracker behind the `steady:`/`horizon:` stop modes, and
//! the plateau tracker behind `plateau:`.

use crate::engine::{StopCondition, StopReason};
use crate::metrics::RemainingImbalance;

/// Window length of the divergence watchdog.
const WATCH_WINDOW: usize = 16;

/// The graceful-degradation watchdog of [`crate::Simulator`]'s run loop:
/// observes the fused per-round `max_dev` statistic (free since the
/// in-loop metrics reduction) and fires when the deviation is non-finite
/// or grew more than 8× over the best of the last [`WATCH_WINDOW`]
/// rounds (clamped below at 1.0 so settled runs never trip on noise).
/// Armed only while faults are injected, so clean runs are untouched.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DivergenceWatch {
    pub(crate) armed: bool,
    pub(crate) window: [f64; WATCH_WINDOW],
    pub(crate) len: usize,
    pub(crate) pos: usize,
}

impl DivergenceWatch {
    /// A watchdog; `armed = false` never fires.
    pub fn new(armed: bool) -> Self {
        Self {
            armed,
            window: [0.0; WATCH_WINDOW],
            len: 0,
            pos: 0,
        }
    }

    /// Feeds one round's `max_dev`; returns `true` if the watchdog
    /// fires (divergence detected). The window resets after a firing so
    /// the fallback scheme gets a fresh observation period.
    pub fn observe(&mut self, max_dev: f64) -> bool {
        if !self.armed {
            return false;
        }
        if !max_dev.is_finite() {
            return true;
        }
        if self.len == WATCH_WINDOW {
            let min = self.window.iter().copied().fold(f64::INFINITY, f64::min);
            if max_dev > 8.0 * min.max(1.0) {
                self.len = 0;
                self.pos = 0;
                return true;
            }
        }
        self.window[self.pos] = max_dev;
        self.pos = (self.pos + 1) % WATCH_WINDOW;
        self.len = (self.len + 1).min(WATCH_WINDOW);
        false
    }
}

/// Windowed steady-state deviation statistics of a dynamic run,
/// reported in [`crate::RunReport::steady`] by the `steady:`/`horizon:`
/// stop modes: the mean, max, and 99th percentile of the fused
/// per-round `max_dev` (from [`crate::kernel::LoadStats`], so no extra
/// per-round sweep) over the window the run ended on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SteadyStats {
    /// Rounds the statistics cover (the trailing window for `steady:`,
    /// the whole horizon for `horizon:`; shorter if the run ended
    /// early).
    pub window: usize,
    /// Mean per-round `max_dev` over the window.
    pub mean_dev: f64,
    /// Largest per-round `max_dev` over the window.
    pub max_dev: f64,
    /// 99th-percentile per-round `max_dev` over the window.
    pub p99_dev: f64,
}

/// Accumulates the per-round fused `max_dev` for the steady-state stop
/// modes and computes [`SteadyStats`] at the end of the run.
///
/// In *steady* mode the ring holds the last `2·window` samples and
/// [`SteadyTracker::is_steady`] compares the trailing window's mean
/// against the preceding window's: once the newer window stops
/// improving on the older one by more than 1%, the deviation process is
/// declared steady. In *horizon* mode the ring holds the whole horizon
/// and the steadiness check never fires. Both maintain the window sums
/// incrementally (O(1) per round).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SteadyTracker {
    /// The statistics window (`W` for steady, the horizon for horizon).
    pub(crate) window: usize,
    /// Sample ring: capacity `2W` (steady) or `W` (horizon).
    pub(crate) ring: Vec<f64>,
    pub(crate) pos: usize,
    pub(crate) len: usize,
    /// Running sum of the newest `window` samples.
    pub(crate) newer_sum: f64,
    /// Running sum of the preceding `window` samples (steady mode).
    pub(crate) older_sum: f64,
    /// Whether the steadiness trigger is evaluated (steady mode).
    pub(crate) check: bool,
}

impl SteadyTracker {
    /// A tracker for `stop=steady:window`.
    pub fn steady(window: usize) -> Self {
        let ring = Self::steady_ring(window).expect("StopCondition::check bounds the window");
        Self::with_capacity(window, ring, true)
    }

    /// The sample ring length of `stop=steady:window`, `2·window`
    /// (`None` when that overflows).
    pub fn steady_ring(window: usize) -> Option<usize> {
        window.checked_mul(2)
    }

    /// A tracker for `stop=horizon:rounds`.
    pub fn horizon(rounds: usize) -> Self {
        Self::with_capacity(rounds, rounds, false)
    }

    fn with_capacity(window: usize, capacity: usize, check: bool) -> Self {
        Self {
            window,
            ring: vec![0.0; capacity.max(1)],
            pos: 0,
            len: 0,
            newer_sum: 0.0,
            older_sum: 0.0,
            check,
        }
    }

    /// Feeds one round's fused `max_dev`.
    pub fn push(&mut self, max_dev: f64) {
        let cap = self.ring.len();
        if self.len == cap {
            // The slot about to be overwritten leaves the older window
            // (steady mode) or the horizon window.
            self.older_sum -= self.ring[self.pos];
        }
        if self.len >= self.window {
            // The sample pushed `window` rounds ago moves newer → older.
            let moving = self.ring[(self.pos + cap - self.window) % cap];
            self.newer_sum -= moving;
            self.older_sum += moving;
        }
        self.ring[self.pos] = max_dev;
        self.newer_sum += max_dev;
        self.pos = (self.pos + 1) % cap;
        self.len = (self.len + 1).min(cap);
    }

    /// Whether the deviation process has reached steady state: the ring
    /// is full and the trailing window's mean no longer improves on the
    /// preceding window's by more than 1%. Always `false` in horizon
    /// mode.
    pub fn is_steady(&self) -> bool {
        self.check && self.len == self.ring.len() && self.newer_sum >= 0.99 * self.older_sum
    }

    /// The statistics over the trailing window (recomputed exactly from
    /// the stored samples, not the running sums). `None` before any
    /// sample arrived.
    pub fn stats(&self) -> Option<SteadyStats> {
        if self.len == 0 {
            return None;
        }
        let cap = self.ring.len();
        let count = self.len.min(self.window);
        let mut samples: Vec<f64> = (0..count)
            .map(|back| self.ring[(self.pos + cap - 1 - back) % cap])
            .collect();
        samples.sort_by(f64::total_cmp);
        let mean = samples.iter().sum::<f64>() / count as f64;
        let p99_idx = ((count as f64 * 0.99).ceil() as usize).clamp(1, count) - 1;
        Some(SteadyStats {
            window: count,
            mean_dev: mean,
            max_dev: samples[count - 1],
            p99_dev: samples[p99_idx],
        })
    }
}

/// The run loop's state besides the loads: the origin, the SOS→FOS
/// switch, the degradation flag and the three watchers. It lives once, on
/// the [`crate::Simulator`], and the run loop updates it in place, so a
/// [`crate::checkpoint::Snapshot`] taken at any round boundary (between
/// calls, from an observer, or by the auto-checkpoint) carries it as it
/// is, and [`crate::Simulator::restore`] puts it back.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct RunRecord {
    /// `round` at the start of the run. Hybrid `AtRound` triggers and the
    /// `steady:` cap count from here, and a resume subtracts the rounds
    /// since it from the spec's stop budget.
    pub(crate) origin: u64,
    /// The round the SOS→FOS switch fired (hybrid policy or degradation).
    pub(crate) switch_round: Option<u64>,
    /// Whether the divergence watchdog fired during the run.
    pub(crate) degraded: bool,
    /// The divergence watchdog; `None` until the first run.
    pub(crate) watch: Option<DivergenceWatch>,
    /// The `steady:`/`horizon:` sample ring.
    pub(crate) steady: Option<SteadyTracker>,
    /// The `plateau:` tracker.
    pub(crate) plateau: Option<RemainingImbalance>,
}

impl RunRecord {
    /// Arms the record for a run from `round` to `stop`. A fresh run
    /// starts everything anew; a resumed one keeps the restored origin
    /// and flags, and each restored watcher that fits the run.
    pub fn begin(&mut self, round: u64, stop: StopCondition, armed: bool, resume: bool) {
        if !resume {
            *self = RunRecord {
                origin: round,
                ..RunRecord::default()
            };
        }
        if self.watch.as_ref().is_none_or(|w| w.armed != armed) {
            self.watch = Some(DivergenceWatch::new(armed));
        }
        let checks = self.steady.as_ref().map(|s| s.check);
        self.steady = match stop {
            StopCondition::Steady { window } if checks != Some(true) => {
                Some(SteadyTracker::steady(window))
            }
            StopCondition::Horizon(rounds) if checks != Some(false) => {
                Some(SteadyTracker::horizon(rounds))
            }
            StopCondition::Steady { .. } | StopCondition::Horizon(_) => self.steady.take(),
            _ => None,
        };
        self.plateau = match (stop, self.plateau.take()) {
            (StopCondition::Plateau { window, .. }, Some(p)) if p.window == window => Some(p),
            (StopCondition::Plateau { window, .. }, _) => Some(RemainingImbalance::new(window)),
            _ => None,
        };
    }

    /// Feeds one round's fused `max − avg` to the watchers; returns why
    /// the run stops after this round, if it does.
    pub fn feed(&mut self, max_dev: f64, stop: StopCondition) -> Option<StopReason> {
        if let Some(p) = &mut self.plateau {
            p.push(max_dev);
        }
        if let Some(s) = &mut self.steady {
            s.push(max_dev);
        }
        self.stopped(max_dev, stop)
    }

    /// Why `stop` holds after a round whose fused `max − avg` was
    /// `max_dev` and whose sample the watchers already hold, if it does.
    pub fn stopped(&self, max_dev: f64, stop: StopCondition) -> Option<StopReason> {
        match stop {
            StopCondition::BalancedWithin { threshold, .. } => {
                (max_dev <= threshold).then_some(StopReason::Threshold)
            }
            StopCondition::Plateau { .. } => {
                (self.plateau.as_ref()?.converged()).then_some(StopReason::Plateau)
            }
            StopCondition::Steady { .. } => {
                (self.steady.as_ref()?.is_steady()).then_some(StopReason::Steady)
            }
            StopCondition::MaxRounds(_) | StopCondition::Horizon(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watchdog_fires_on_growth_and_non_finite_only() {
        let mut w = DivergenceWatch::new(true);
        for _ in 0..WATCH_WINDOW {
            assert!(!w.observe(10.0));
        }
        assert!(!w.observe(50.0), "5x growth stays under the 8x bar");
        assert!(w.observe(200.0), "20x growth fires");
        // The window resets after firing: no immediate re-fire.
        assert!(!w.observe(200.0));
        let mut w = DivergenceWatch::new(true);
        assert!(w.observe(f64::NAN), "non-finite fires immediately");
        let mut disarmed = DivergenceWatch::new(false);
        assert!(!disarmed.observe(f64::INFINITY), "disarmed never fires");
        // Settled runs (deviation below 1) never trip on relative noise.
        let mut w = DivergenceWatch::new(true);
        for _ in 0..WATCH_WINDOW {
            assert!(!w.observe(0.01));
        }
        assert!(!w.observe(0.5), "50x growth below the absolute floor");
    }

    #[test]
    fn steady_tracker_detects_flat_windows_and_reports_stats() {
        let mut t = SteadyTracker::steady(4);
        // Steep decay: every newer window improves by far more than 1%.
        for x in [100.0, 80.0, 60.0, 40.0, 20.0, 10.0, 5.0, 2.0] {
            t.push(x);
            assert!(!t.is_steady(), "still improving at {x}");
        }
        // Flat tail: the trigger compares the newest window against the
        // one before it, so it trips only once *both* windows are flat —
        // after 2·window − 1 flat rounds here (the older window still
        // holds decaying samples until then).
        for _ in 0..6 {
            t.push(2.0);
            assert!(!t.is_steady(), "older window still decaying");
        }
        t.push(2.0);
        assert!(t.is_steady());
        let stats = t.stats().unwrap();
        assert_eq!(stats.window, 4);
        assert_eq!(stats.mean_dev, 2.0);
        assert_eq!(stats.max_dev, 2.0);
        assert_eq!(stats.p99_dev, 2.0);
    }

    #[test]
    fn horizon_tracker_covers_the_whole_run() {
        let mut t = SteadyTracker::horizon(10);
        for i in 0..10 {
            t.push(i as f64);
            assert!(!t.is_steady(), "horizon mode never self-stops");
        }
        let stats = t.stats().unwrap();
        assert_eq!(stats.window, 10);
        assert_eq!(stats.mean_dev, 4.5);
        assert_eq!(stats.max_dev, 9.0);
        assert_eq!(stats.p99_dev, 9.0);
        // A short run reports over what it saw.
        let mut t = SteadyTracker::horizon(10);
        t.push(3.0);
        t.push(5.0);
        let stats = t.stats().unwrap();
        assert_eq!((stats.window, stats.mean_dev, stats.max_dev), (2, 4.0, 5.0));
        assert!(SteadyTracker::horizon(5).stats().is_none());
    }
}
