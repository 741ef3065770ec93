//! Run-loop watchers fed by the fused per-round `max_dev` statistic of
//! [`crate::kernel::LoadStats`] (so neither adds a per-round sweep): the
//! divergence watchdog behind graceful degradation, and the windowed
//! steady-state tracker behind the `steady:`/`horizon:` stop modes.

/// Window length of the divergence watchdog.
const WATCH_WINDOW: usize = 16;

/// The graceful-degradation watchdog of [`crate::Simulator`]'s run loop:
/// observes the fused per-round `max_dev` statistic (free since the
/// in-loop metrics reduction) and fires when the deviation is non-finite
/// or grew more than 8× over the best of the last [`WATCH_WINDOW`]
/// rounds (clamped below at 1.0 so settled runs never trip on noise).
/// Armed only while faults are injected, so clean runs are untouched.
#[derive(Clone)]
pub(crate) struct DivergenceWatch {
    armed: bool,
    window: [f64; WATCH_WINDOW],
    len: usize,
    pos: usize,
}

impl DivergenceWatch {
    /// Whether this watchdog can ever fire.
    pub fn armed(&self) -> bool {
        self.armed
    }

    /// The observation ring as raw parts `(armed, window, len, pos)` for
    /// checkpointing.
    pub fn raw_parts(&self) -> (bool, &[f64], usize, usize) {
        (self.armed, &self.window, self.len, self.pos)
    }

    /// Rebuilds a watchdog from checkpointed [`Self::raw_parts`];
    /// returns `None` when the parts are not a valid ring.
    pub fn from_raw_parts(armed: bool, window: &[f64], len: usize, pos: usize) -> Option<Self> {
        if window.len() != WATCH_WINDOW || len > WATCH_WINDOW || pos >= WATCH_WINDOW {
            return None;
        }
        let mut ring = [0.0; WATCH_WINDOW];
        ring.copy_from_slice(window);
        Some(Self {
            armed,
            window: ring,
            len,
            pos,
        })
    }

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
#[derive(Clone)]
pub(crate) struct SteadyTracker {
    /// The statistics window (`W` for steady, the horizon for horizon).
    window: usize,
    /// Sample ring: capacity `2W` (steady) or `W` (horizon).
    ring: Vec<f64>,
    pos: usize,
    len: usize,
    /// Running sum of the newest `window` samples.
    newer_sum: f64,
    /// Running sum of the preceding `window` samples (steady mode).
    older_sum: f64,
    /// Whether the steadiness trigger is evaluated (steady mode).
    check: bool,
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

    /// Whether this tracker evaluates the steadiness trigger (steady
    /// mode) rather than recording a fixed horizon.
    pub fn checks_steadiness(&self) -> bool {
        self.check
    }

    /// The ring and running sums as raw parts
    /// `(window, ring, pos, len, newer_sum, older_sum, check)` for
    /// checkpointing.
    #[allow(clippy::type_complexity)]
    pub fn raw_parts(&self) -> (usize, &[f64], usize, usize, f64, f64, bool) {
        (
            self.window,
            &self.ring,
            self.pos,
            self.len,
            self.newer_sum,
            self.older_sum,
            self.check,
        )
    }

    /// Rebuilds a tracker from checkpointed [`Self::raw_parts`]; returns
    /// `None` when the parts are not a valid ring.
    pub fn from_raw_parts(
        window: usize,
        ring: Vec<f64>,
        pos: usize,
        len: usize,
        newer_sum: f64,
        older_sum: f64,
        check: bool,
    ) -> Option<Self> {
        if ring.is_empty() || pos >= ring.len() || len > ring.len() || window == 0 {
            return None;
        }
        Some(Self {
            window,
            ring,
            pos,
            len,
            newer_sum,
            older_sum,
            check,
        })
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
