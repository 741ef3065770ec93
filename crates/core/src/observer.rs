//! Observation hooks and the per-round metrics recorder.

use crate::engine::Simulator;
use crate::metrics::MetricsSnapshot;

/// Callback invoked after every simulated round.
pub trait Observer {
    /// Called once per round, after loads have been updated and the run
    /// loop has taken the round in (hybrid switch, watchdog, stop
    /// trackers), so a [`Simulator::snapshot`] taken here is complete.
    fn on_round(&mut self, sim: &Simulator<'_>);
}

/// An [`Observer`] that ignores every round (the default for quiet runs).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl Observer for NullObserver {
    fn on_round(&mut self, _sim: &Simulator<'_>) {}
}

/// One recorded row of the per-round metric series.
#[derive(Debug, Clone, Copy)]
pub struct MetricsRow {
    /// Round number (1-based: recorded after the round executed).
    pub round: u64,
    /// Quality metrics at the end of the round.
    pub metrics: MetricsSnapshot,
    /// Minimum transient load observed so far.
    pub min_transient: f64,
    /// Total load (conservation check / float-error tracking, Figure 6).
    pub total_load: f64,
}

/// An [`Observer`] that records the metric series of a run, optionally
/// subsampled.
///
/// # Example
///
/// ```
/// use sodiff_core::prelude::*;
/// use sodiff_graph::generators;
///
/// let g = generators::cycle(8);
/// let mut sim = Experiment::on(&g)
///     .discrete(Rounding::randomized(1))
///     .init(InitialLoad::point(0, 80))
///     .build()
///     .unwrap()
///     .simulator();
/// let mut rec = Recorder::every(2);
/// sim.run_until_with(StopCondition::MaxRounds(10), &mut rec);
/// assert_eq!(rec.rows().len(), 5);
/// assert_eq!(rec.rows()[0].round, 2);
/// ```
#[derive(Debug, Clone)]
pub struct Recorder {
    every: u64,
    rows: Vec<MetricsRow>,
}

impl Recorder {
    /// Records every round.
    pub fn new() -> Self {
        Self::every(1)
    }

    /// Records every `stride`-th round.
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0`.
    pub fn every(stride: u64) -> Self {
        assert!(stride > 0, "stride must be positive");
        Self {
            every: stride,
            rows: Vec::new(),
        }
    }

    /// The recorded rows.
    pub fn rows(&self) -> &[MetricsRow] {
        &self.rows
    }

    /// The last recorded row.
    pub fn last(&self) -> Option<&MetricsRow> {
        self.rows.last()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Observer for Recorder {
    fn on_round(&mut self, sim: &Simulator<'_>) {
        if !sim.round().is_multiple_of(self.every) {
            return;
        }
        self.rows.push(MetricsRow {
            round: sim.round(),
            // The fused snapshot of the round just run (bit-identical to
            // `metrics()`, without its node sweep); `metrics()` only
            // before the first round, when nothing has been fused yet.
            metrics: sim.round_metrics().unwrap_or_else(|| sim.metrics()),
            min_transient: sim.min_transient_load(),
            total_load: sim.total_load(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StopCondition;
    use crate::experiment::Experiment;
    use crate::init::InitialLoad;
    use crate::rounding::Rounding;
    use sodiff_graph::generators;

    #[test]
    fn recorder_records_every_round() {
        let g = generators::cycle(6);
        let mut sim = Experiment::on(&g)
            .discrete(Rounding::randomized(1))
            .init(InitialLoad::point(0, 60))
            .build()
            .unwrap()
            .simulator();
        let mut rec = Recorder::new();
        sim.run_until_with(StopCondition::MaxRounds(7), &mut rec);
        assert_eq!(rec.rows().len(), 7);
        assert_eq!(rec.rows()[6].round, 7);
        assert!(rec.last().unwrap().metrics.max_minus_avg >= 0.0);
    }

    #[test]
    fn recorder_conservation_column() {
        let g = generators::torus2d(3, 3);
        let mut sim = Experiment::on(&g)
            .discrete(Rounding::nearest())
            .init(InitialLoad::point(0, 900))
            .build()
            .unwrap()
            .simulator();
        let mut rec = Recorder::new();
        sim.run_until_with(StopCondition::MaxRounds(20), &mut rec);
        assert!(rec.rows().iter().all(|r| r.total_load == 900.0));
    }
}
