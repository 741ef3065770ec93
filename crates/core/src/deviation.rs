//! Coupled discrete/continuous runs measuring the deviation
//! `max_k |x_k^D(t) − x_k^C(t)|` that the paper's Theorems 3, 8, and 9
//! bound.

use crate::metrics::MetricsSnapshot;

/// Per-round deviation series between a discrete process and its
/// continuous twin, started from the same initial load, with the
/// discrete run's final state.
#[derive(Debug, Clone)]
pub struct DeviationSeries {
    /// `deviation[t]` = `max_k |x_k^D(t+1) − x_k^C(t+1)|` after round `t+1`.
    pub per_round: Vec<f64>,
    /// The discrete run's metrics after its last round.
    pub final_metrics: MetricsSnapshot,
    /// The discrete run's minimum transient load.
    pub min_transient: f64,
}

impl DeviationSeries {
    /// The largest deviation over the whole run.
    pub fn max(&self) -> f64 {
        self.per_round.iter().copied().fold(0.0, f64::max)
    }

    /// The deviation at the final recorded round.
    pub fn last(&self) -> f64 {
        self.per_round.last().copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StopCondition;
    use crate::experiment::Experiment;
    use crate::init::InitialLoad;
    use crate::rounding::Rounding;
    use sodiff_graph::{generators, Speeds};
    use sodiff_linalg::spectral;

    /// `exp`'s coupled run of `rounds` rounds, after checking that its
    /// final metrics and minimum transient load are, bit for bit, those
    /// of a separate discrete run of the same rounds.
    fn coupled(exp: &Experiment<'_>, rounds: usize) -> DeviationSeries {
        let series = exp.coupled_deviation(rounds).unwrap();
        let mut sim = exp.simulator();
        sim.run_until(StopCondition::MaxRounds(rounds));
        let bits = |m: &MetricsSnapshot| {
            [
                m.max_minus_avg,
                m.min_minus_avg,
                m.max_local_diff,
                m.potential_over_n,
                m.min_load,
            ]
            .map(f64::to_bits)
        };
        assert_eq!(bits(&series.final_metrics), bits(&sim.metrics()));
        assert_eq!(
            series.min_transient.to_bits(),
            sim.min_transient_load().to_bits()
        );
        series
    }

    #[test]
    fn deviation_starts_small_and_stays_bounded() {
        let g = generators::torus2d(8, 8);
        let exp = Experiment::on(&g)
            .discrete(Rounding::randomized(3))
            .build()
            .unwrap();
        let series = coupled(&exp, 300);
        assert_eq!(series.per_round.len(), 300);
        // Round 1 rounds at most d tokens per node off.
        assert!(series.per_round[0] <= 5.0);
        // Theorem 4 shape: stays O(d √(log n / (1−λ))) — small here.
        assert!(series.max() < 40.0, "max deviation {}", series.max());
    }

    #[test]
    fn randomized_beats_round_down_deviation() {
        // Deterministic round-down creates a systematic bias that the
        // randomized framework avoids; after convergence the randomized
        // deviation should be clearly smaller.
        let g = generators::torus2d(10, 10);
        let spec = spectral::analyze(&g, &Speeds::uniform(100));
        let beta = spec.beta_opt();
        let rounds = 1500;
        let run = |rounding: Rounding| {
            let exp = Experiment::on(&g)
                .discrete(rounding)
                .sos(beta)
                .build()
                .unwrap();
            coupled(&exp, rounds)
        };
        let randomized = run(Rounding::randomized(5));
        let down = run(Rounding::round_down());
        assert!(
            randomized.last() <= down.last() + 1.0,
            "randomized {} vs round-down {}",
            randomized.last(),
            down.last()
        );
    }

    #[test]
    fn heterogeneous_coupled_run_works() {
        let g = generators::torus2d(5, 5);
        let speeds = Speeds::linear_ramp(25, 4.0);
        let exp = Experiment::on(&g)
            .discrete(Rounding::randomized(7))
            .speeds(speeds)
            .init(InitialLoad::point(0, 12_500))
            .build()
            .unwrap();
        let series = coupled(&exp, 200);
        assert!(series.max() < 60.0, "max deviation {}", series.max());
    }
}
