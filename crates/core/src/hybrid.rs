//! The SOS→FOS hybrid strategy (paper Section VI).
//!
//! The paper's central empirical observation: SOS converges fast but its
//! residual imbalance plateaus above what FOS can reach; switching every
//! node to FOS once the system is "almost" balanced removes most of the
//! remaining imbalance. The switch trigger can be a fixed round (the
//! paper's 2500/3000-step experiments, Figures 4–5) or a *local* criterion
//! such as the maximum local load difference — which, as the paper notes,
//! is available in a distributed system, unlike eigenvector information.
//!
//! Hybrid execution is part of the core run loop: attach a
//! [`SwitchPolicy`] with [`crate::ExperimentBuilder::hybrid`], or call
//! [`crate::Simulator::run_hybrid`] /
//! [`crate::Simulator::run_hybrid_with`] / [`crate::Simulator::run_when`]
//! on an existing simulator. The round the run switched at is reported
//! in [`RunReport::switch_round`].
//!
//! [`RunReport::switch_round`]: crate::RunReport

use std::fmt;
use std::str::FromStr;

use crate::error::ParseError;

/// When the hybrid controller flips from SOS to FOS.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SwitchPolicy {
    /// Switch at a fixed round (counted from the start of the hybrid run).
    AtRound(u64),
    /// Switch once the maximum local load difference drops to the given
    /// number of tokens (the distributed-friendly trigger the paper
    /// recommends).
    MaxLocalDiffBelow(f64),
    /// Switch once `max − avg` drops to the given number of tokens.
    MaxMinusAvgBelow(f64),
    /// Never switch (pure-SOS baseline, for comparisons).
    Never,
}

impl SwitchPolicy {
    /// The range rule, shared by `FromStr` and the experiment's build
    /// check: a NaN threshold compares false with every metric, so the
    /// switch could never fire.
    pub(crate) fn check(&self) -> Result<(), &'static str> {
        match *self {
            SwitchPolicy::MaxLocalDiffBelow(t) | SwitchPolicy::MaxMinusAvgBelow(t)
                if t.is_nan() =>
            {
                Err("switch threshold must not be NaN")
            }
            _ => Ok(()),
        }
    }
}

impl fmt::Display for SwitchPolicy {
    /// Scenario-file form: `at:R`, `local_diff:T`, `max_minus_avg:T`, or
    /// `never`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwitchPolicy::AtRound(r) => write!(f, "at:{r}"),
            SwitchPolicy::MaxLocalDiffBelow(t) => write!(f, "local_diff:{t}"),
            SwitchPolicy::MaxMinusAvgBelow(t) => write!(f, "max_minus_avg:{t}"),
            SwitchPolicy::Never => f.write_str("never"),
        }
    }
}

impl FromStr for SwitchPolicy {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = || {
            ParseError::new(format!(
                "unknown hybrid policy '{s}' (expected at:R, local_diff:T, \
                 max_minus_avg:T, or never)"
            ))
        };
        if s == "never" {
            return Ok(SwitchPolicy::Never);
        }
        let (kind, value) = s.split_once(':').ok_or_else(bad)?;
        let threshold = || value.parse().map_err(|_| bad());
        let policy = match kind {
            "at" => SwitchPolicy::AtRound(value.parse().map_err(|_| bad())?),
            "local_diff" => SwitchPolicy::MaxLocalDiffBelow(threshold()?),
            "max_minus_avg" => SwitchPolicy::MaxMinusAvgBelow(threshold()?),
            _ => return Err(bad()),
        };
        policy
            .check()
            .map_err(|why| ParseError::new(format!("invalid hybrid policy '{s}': {why}")))?;
        Ok(policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Simulator, StopCondition};
    use crate::experiment::Experiment;
    use crate::rounding::Rounding;
    use crate::scheme::Scheme;
    use sodiff_graph::generators;
    use sodiff_linalg::spectral;

    fn sos_sim(g: &sodiff_graph::Graph, seed: u64) -> Simulator<'_> {
        let spec = spectral::analyze(g, &sodiff_graph::Speeds::uniform(g.node_count()));
        Experiment::on(g)
            .discrete(Rounding::randomized(seed))
            .sos(spec.beta_opt())
            .build()
            .expect("valid experiment")
            .simulator()
    }

    #[test]
    fn fixed_round_switch_fires_exactly_once() {
        let g = generators::torus2d(8, 8);
        let mut sim = sos_sim(&g, 1);
        let report = sim.run_hybrid(SwitchPolicy::AtRound(50), StopCondition::MaxRounds(200));
        assert_eq!(report.switch_round, Some(50));
        assert_eq!(sim.scheme(), Scheme::fos());
        assert_eq!(report.rounds, 200);
    }

    #[test]
    fn never_policy_keeps_sos() {
        let g = generators::torus2d(6, 6);
        let mut sim = sos_sim(&g, 2);
        let report = sim.run_hybrid(SwitchPolicy::Never, StopCondition::MaxRounds(100));
        assert_eq!(report.switch_round, None);
        assert!(sim.scheme().is_sos());
    }

    #[test]
    fn local_diff_trigger_fires_after_convergence() {
        let g = generators::torus2d(10, 10);
        let mut sim = sos_sim(&g, 3);
        let report = sim.run_hybrid(
            SwitchPolicy::MaxLocalDiffBelow(10.0),
            StopCondition::MaxRounds(3000),
        );
        let switch = report
            .switch_round
            .expect("local-diff trigger should fire on a 10x10 torus within 3000 rounds");
        assert!(switch > 0);
        assert_eq!(sim.scheme(), Scheme::fos());
    }

    #[test]
    fn custom_trigger_switches_once() {
        let g = generators::torus2d(8, 8);
        let mut sim = sos_sim(&g, 5);
        let mut calls = 0u32;
        let report = sim.run_when(
            |s| {
                calls += 1;
                s.round() >= 30
            },
            StopCondition::MaxRounds(100),
            &mut crate::observer::NullObserver,
        );
        assert_eq!(report.switch_round, Some(30));
        // Trigger stops being evaluated after it fires.
        assert_eq!(calls, 31);
        assert_eq!(sim.scheme(), Scheme::fos());
    }

    /// The paper's headline hybrid result (Figure 5): on identical
    /// copies of one simulation, switching to FOS drops the remaining
    /// imbalance below what pure SOS reaches.
    #[test]
    fn hybrid_improves_remaining_imbalance() {
        let g = generators::torus2d(16, 16);
        let (mut sos, mut hybrid) = (sos_sim(&g, 7), sos_sim(&g, 7));
        let rounds = StopCondition::MaxRounds(800);
        sos.run_until(rounds);
        hybrid.run_hybrid(SwitchPolicy::AtRound(400), rounds);
        let sos_final = sos.metrics().max_minus_avg;
        let hybrid_final = hybrid.metrics().max_minus_avg;
        assert!(
            hybrid_final <= sos_final,
            "hybrid ({hybrid_final}) should not be worse than SOS ({sos_final})"
        );
        assert!(
            hybrid_final <= 8.0,
            "paper: post-switch max-avg drops to ~7 tokens, got {hybrid_final}"
        );
    }
}
