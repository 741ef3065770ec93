//! Rounding schemes that turn continuous scheduled flows into integral
//! token movements (paper Section III-B).
//!
//! A discrete process is `D(x) = R_D(C(x))` (Definition 1): the continuous
//! scheme computes a scheduled flow `Ŷ_e` for every edge, and the rounding
//! scheme maps it to an integer. Flows are stored per canonical edge
//! (`u < v`), positive meaning `u → v`; the *sender* of an edge is the
//! endpoint whose outflow is positive, and node-centric schemes (the
//! paper's randomized framework) round all outgoing flows of one node
//! together.

use std::fmt;
use std::str::FromStr;

use crate::error::{BuildError, ParseError};

/// A rounding scheme *kind*, without its RNG seed: the serializable form
/// used by [`crate::ScenarioSpec`]. Seeds are supplied separately
/// (`seed=`), so the same spec text can be run under many seeds;
/// [`RoundingSpec::seeded`] resolves the pair into a concrete
/// [`Rounding`] for [`crate::ExperimentBuilder::discrete`], reporting a
/// missing seed as a [`BuildError::MissingSeed`] instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoundingSpec {
    /// The paper's randomized rounding framework (needs a seed).
    #[default]
    Randomized,
    /// Deterministic truncation of flow magnitudes.
    RoundDown,
    /// Deterministic round-to-nearest.
    Nearest,
    /// Independent per-edge unbiased rounding (needs a seed).
    UnbiasedEdge,
}

impl RoundingSpec {
    /// Returns `true` if this kind draws random bits and therefore needs
    /// a seed.
    pub fn needs_seed(&self) -> bool {
        matches!(self, RoundingSpec::Randomized | RoundingSpec::UnbiasedEdge)
    }

    /// Resolves the kind plus an optional seed into a concrete
    /// [`Rounding`].
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::MissingSeed`] when the kind needs randomness
    /// but no seed was provided.
    pub fn seeded(self, seed: Option<u64>) -> Result<Rounding, BuildError> {
        match self {
            RoundingSpec::Randomized => seed
                .map(Rounding::randomized)
                .ok_or(BuildError::MissingSeed("randomized")),
            RoundingSpec::RoundDown => Ok(Rounding::round_down()),
            RoundingSpec::Nearest => Ok(Rounding::nearest()),
            RoundingSpec::UnbiasedEdge => seed
                .map(Rounding::unbiased_edge)
                .ok_or(BuildError::MissingSeed("unbiased per-edge")),
        }
    }
}

impl From<Rounding> for RoundingSpec {
    /// Forgets the seed, keeping the kind.
    fn from(r: Rounding) -> Self {
        match r {
            Rounding::RandomizedFramework { .. } => RoundingSpec::Randomized,
            Rounding::RoundDown => RoundingSpec::RoundDown,
            Rounding::Nearest => RoundingSpec::Nearest,
            Rounding::UnbiasedEdge { .. } => RoundingSpec::UnbiasedEdge,
        }
    }
}

impl fmt::Display for RoundingSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            RoundingSpec::Randomized => "randomized",
            RoundingSpec::RoundDown => "round_down",
            RoundingSpec::Nearest => "nearest",
            RoundingSpec::UnbiasedEdge => "unbiased",
        };
        f.write_str(name)
    }
}

impl FromStr for RoundingSpec {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "randomized" => Ok(RoundingSpec::Randomized),
            "round_down" => Ok(RoundingSpec::RoundDown),
            "nearest" => Ok(RoundingSpec::Nearest),
            "unbiased" => Ok(RoundingSpec::UnbiasedEdge),
            other => Err(ParseError::new(format!(
                "unknown rounding '{other}' (expected randomized, round_down, nearest, \
                 or unbiased)"
            ))),
        }
    }
}

/// The rounding scheme of a discrete diffusion process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rounding {
    /// The paper's randomized rounding framework (Section III-B): every
    /// node floors its outgoing flows, then distributes the `⌈r⌉` excess
    /// tokens (where `r` is the sum of the dropped fractional parts)
    /// randomly — each token leaves with probability `r/⌈r⌉` and picks
    /// neighbor `j` with probability `{Ŷ_{i,j}}/r`.
    RandomizedFramework {
        /// Seed of the per-(node, round) random streams.
        seed: u64,
    },
    /// Deterministic "always round down" (magnitudes are truncated); the
    /// baseline the paper cites from Sauerwald & Sun.
    RoundDown,
    /// Deterministic round-to-nearest (half away from zero).
    Nearest,
    /// Independent per-edge unbiased randomized rounding: round up with
    /// probability equal to the fractional part (the Friedrich–Gairing–
    /// Sauerwald style scheme; may overdraw a node, producing negative
    /// load more readily than the framework above).
    UnbiasedEdge {
        /// Seed of the per-(edge, round) random streams.
        seed: u64,
    },
}

impl Rounding {
    /// The paper's randomized rounding framework.
    pub fn randomized(seed: u64) -> Self {
        Rounding::RandomizedFramework { seed }
    }

    /// Deterministic truncation of flow magnitudes.
    pub fn round_down() -> Self {
        Rounding::RoundDown
    }

    /// Deterministic round-to-nearest.
    pub fn nearest() -> Self {
        Rounding::Nearest
    }

    /// Independent per-edge unbiased rounding.
    pub fn unbiased_edge(seed: u64) -> Self {
        Rounding::UnbiasedEdge { seed }
    }

    /// Rounds the scheduled flows into `out` (one integer per canonical
    /// edge, same sign convention).
    ///
    /// `round` is the current round number, used to key the random streams
    /// so that every round draws fresh randomness while remaining
    /// reproducible and iteration-order independent.
    ///
    /// The paper's rounding written the plain way, kept as the test
    /// reference: no round calls it. The unit tests here check its
    /// properties, and `kernel`'s tests check the simulator's streamed
    /// scatter and rounding passes against it.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths mismatch the graph.
    #[cfg(test)]
    pub(crate) fn round_flows(
        &self,
        graph: &sodiff_graph::Graph,
        scheduled: &[f64],
        round: u64,
        out: &mut [i64],
    ) {
        use crate::rng::SplitMix64;
        assert_eq!(scheduled.len(), graph.edge_count());
        assert_eq!(out.len(), graph.edge_count());
        match *self {
            Rounding::RoundDown => {
                for (o, &s) in out.iter_mut().zip(scheduled) {
                    *o = s.trunc() as i64;
                }
            }
            Rounding::Nearest => {
                for (o, &s) in out.iter_mut().zip(scheduled) {
                    *o = s.round() as i64;
                }
            }
            Rounding::UnbiasedEdge { seed } => {
                for (e, (o, &s)) in out.iter_mut().zip(scheduled).enumerate() {
                    let mut rng = SplitMix64::for_node_round(seed, e as u32, round);
                    let floor = s.floor();
                    let frac = s - floor;
                    *o = floor as i64 + i64::from(rng.next_f64() < frac);
                }
            }
            Rounding::RandomizedFramework { seed } => {
                out.fill(0);
                // Reusable buffer: (edge, sign, fractional part).
                let mut excess: Vec<(usize, i64, f64)> = Vec::new();
                for v in graph.nodes() {
                    excess.clear();
                    let mut r = 0.0f64;
                    for e in graph.neighbor_edges(v) {
                        let sign = graph.orientation(v, e);
                        let outflow = scheduled[e as usize] * sign;
                        if outflow > 0.0 {
                            let base = outflow.floor();
                            let frac = outflow - base;
                            out[e as usize] = sign as i64 * base as i64;
                            if frac > 0.0 {
                                excess.push((e as usize, sign as i64, frac));
                                r += frac;
                            }
                        }
                    }
                    if excess.is_empty() {
                        continue;
                    }
                    let tokens = r.ceil() as i64;
                    if tokens == 0 {
                        continue;
                    }
                    let mut rng = SplitMix64::for_node_round(seed, v, round);
                    let denom = tokens as f64;
                    for _ in 0..tokens {
                        // P(edge k) = frac_k / ⌈r⌉; P(stay) = 1 − r/⌈r⌉.
                        let u = rng.next_f64() * denom;
                        let mut cum = 0.0;
                        for &(e, sign, frac) in &excess {
                            cum += frac;
                            if u < cum {
                                out[e] += sign;
                                break;
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sodiff_graph::{generators, Graph};

    #[test]
    fn rounding_spec_roundtrip_and_seeding() {
        for spec in [
            RoundingSpec::Randomized,
            RoundingSpec::RoundDown,
            RoundingSpec::Nearest,
            RoundingSpec::UnbiasedEdge,
        ] {
            let text = spec.to_string();
            assert_eq!(text.parse::<RoundingSpec>().unwrap(), spec);
            if spec.needs_seed() {
                assert!(matches!(spec.seeded(None), Err(BuildError::MissingSeed(_))));
            }
            let rounding = spec.seeded(Some(9)).unwrap();
            assert_eq!(RoundingSpec::from(rounding), spec);
        }
        assert!("banker".parse::<RoundingSpec>().is_err());
    }

    fn star_scheduled(graph: &Graph, outflows: &[f64]) -> Vec<f64> {
        // On a star, canonical edges are (0, leaf); positive = hub sends.
        assert_eq!(outflows.len(), graph.edge_count());
        outflows.to_vec()
    }

    #[test]
    fn round_down_truncates_magnitudes() {
        let g = generators::star(3);
        let sched = star_scheduled(&g, &[1.9, -2.7]);
        let mut out = vec![0i64; 2];
        Rounding::round_down().round_flows(&g, &sched, 0, &mut out);
        assert_eq!(out, vec![1, -2]);
    }

    #[test]
    fn nearest_rounds_half_away() {
        let g = generators::star(3);
        let sched = star_scheduled(&g, &[1.5, -1.5]);
        let mut out = vec![0i64; 2];
        Rounding::nearest().round_flows(&g, &sched, 0, &mut out);
        assert_eq!(out, vec![2, -2]);
    }

    #[test]
    fn per_edge_schemes_error_below_one() {
        // Round-down, nearest, and per-edge unbiased rounding keep the
        // rounding error strictly below one token per edge. (The
        // randomized framework only bounds the error per *node*: several
        // excess tokens may ride the same edge.)
        let g = generators::torus2d(4, 4);
        let m = g.edge_count();
        let sched: Vec<f64> = (0..m)
            .map(|e| ((e * 31 % 17) as f64 - 8.0) * 0.37)
            .collect();
        for rounding in [
            Rounding::round_down(),
            Rounding::nearest(),
            Rounding::unbiased_edge(1),
        ] {
            let mut out = vec![0i64; m];
            rounding.round_flows(&g, &sched, 5, &mut out);
            for (e, (&s, &o)) in sched.iter().zip(&out).enumerate() {
                assert!(
                    (s - o as f64).abs() < 1.0,
                    "{rounding:?} edge {e}: scheduled {s} rounded {o}"
                );
            }
        }
    }

    #[test]
    fn randomized_node_error_bounded_by_degree() {
        // Framework guarantee: per node, the rounded outflow differs from
        // the scheduled outflow by less than ⌈r⌉ ≤ d tokens.
        let g = generators::torus2d(4, 4);
        let m = g.edge_count();
        let sched: Vec<f64> = (0..m)
            .map(|e| ((e * 31 % 17) as f64 - 8.0) * 0.37)
            .collect();
        let mut out = vec![0i64; m];
        Rounding::randomized(1).round_flows(&g, &sched, 5, &mut out);
        for v in g.nodes() {
            let mut scheduled_out = 0.0;
            let mut rounded_out = 0i64;
            for (_, e) in g.neighbors(v) {
                let sign = g.orientation(v, e);
                let s = sched[e as usize] * sign;
                if s > 0.0 {
                    scheduled_out += s;
                    rounded_out += (out[e as usize] as f64 * sign) as i64;
                }
            }
            assert!(
                (scheduled_out - rounded_out as f64).abs() <= g.degree(v) as f64,
                "node {v}: scheduled {scheduled_out} rounded {rounded_out}"
            );
        }
    }

    #[test]
    fn integral_flows_pass_through_unchanged() {
        let g = generators::cycle(5);
        let sched = vec![3.0, -2.0, 0.0, 7.0, -1.0];
        for rounding in [
            Rounding::round_down(),
            Rounding::nearest(),
            Rounding::unbiased_edge(2),
            Rounding::randomized(2),
        ] {
            let mut out = vec![0i64; 5];
            rounding.round_flows(&g, &sched, 1, &mut out);
            assert_eq!(out, vec![3, -2, 0, 7, -1], "{rounding:?}");
        }
    }

    #[test]
    fn randomized_is_deterministic_per_seed_and_round() {
        let g = generators::torus2d(3, 3);
        let m = g.edge_count();
        let sched: Vec<f64> = (0..m).map(|e| (e as f64) * 0.21 - 1.5).collect();
        let run = |seed, round| {
            let mut out = vec![0i64; m];
            Rounding::randomized(seed).round_flows(&g, &sched, round, &mut out);
            out
        };
        assert_eq!(run(7, 3), run(7, 3));
        assert_ne!(run(7, 3), run(7, 4));
        assert_ne!(run(7, 3), run(8, 3));
    }

    #[test]
    fn randomized_framework_is_unbiased() {
        // E[rounded] == scheduled, checked empirically over many rounds.
        let g = generators::star(5);
        let sched = vec![0.3, 0.7, 1.25, 2.5];
        let m = g.edge_count();
        let trials = 20_000;
        let mut sums = vec![0i64; m];
        let rounding = Rounding::randomized(99);
        let mut out = vec![0i64; m];
        for round in 0..trials {
            rounding.round_flows(&g, &sched, round, &mut out);
            for (s, &o) in sums.iter_mut().zip(&out) {
                *s += o;
            }
        }
        for (e, (&s, &sum)) in sched.iter().zip(&sums).enumerate() {
            let mean = sum as f64 / trials as f64;
            assert!(
                (mean - s).abs() < 0.02,
                "edge {e}: mean {mean} vs scheduled {s}"
            );
        }
    }

    #[test]
    fn unbiased_edge_is_unbiased() {
        let g = generators::star(4);
        let sched = vec![0.25, -0.75, 1.5];
        let m = g.edge_count();
        let trials = 20_000;
        let mut sums = vec![0i64; m];
        let rounding = Rounding::unbiased_edge(123);
        let mut out = vec![0i64; m];
        for round in 0..trials {
            rounding.round_flows(&g, &sched, round, &mut out);
            for (s, &o) in sums.iter_mut().zip(&out) {
                *s += o;
            }
        }
        for (&s, &sum) in sched.iter().zip(&sums) {
            let mean = sum as f64 / trials as f64;
            assert!((mean - s).abs() < 0.02, "mean {mean} vs scheduled {s}");
        }
    }

    #[test]
    fn randomized_never_overdraws_excess_budget() {
        // The number of excess tokens a node sends is at most ⌈r⌉ where r
        // is the sum of fractional parts of its outgoing flows: the
        // rounded outflow of each node is at most ceil of its scheduled
        // outflow total.
        let g = generators::star(6);
        // Hub sends 0.9 to each of 5 leaves: r = 4.5, ⌈r⌉ = 5.
        let sched = vec![0.9; 5];
        let rounding = Rounding::randomized(5);
        for round in 0..500 {
            let mut out = vec![0i64; 5];
            rounding.round_flows(&g, &sched, round, &mut out);
            let total: i64 = out.iter().sum();
            assert!(total <= 5, "round {round}: hub sent {total} > ⌈4.5⌉");
            assert!(out.iter().all(|&y| y >= 0), "tokens only flow outward");
        }
    }
}
