//! Initial load distributions.

use sodiff_graph::NodeId;

use crate::rng::SplitMix64;

/// The largest [`InitialLoad::UniformRandom`] total. The placement draws
/// one random node per token, so its time grows with the total: at even
/// one nanosecond per draw, 2^40 draws take 18 minutes.
const MAX_RANDOM_TOTAL: i64 = 1 << 40;

/// How the `m` tokens are placed at round 0.
///
/// The paper's default initialization assigns `1000·n` tokens to a fixed
/// node `v0` ([`InitialLoad::point`]); the alternatives are used in the
/// initial-load sensitivity experiment (Figure 2) and in tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InitialLoad {
    /// All `total` tokens on one node.
    Point {
        /// The loaded node.
        node: NodeId,
        /// Total number of tokens.
        total: i64,
    },
    /// Every node starts with the same number of tokens.
    EqualPerNode(i64),
    /// `total` tokens dropped on nodes independently and uniformly, one
    /// draw per token; `total` is capped at 2^40, since the placement
    /// time grows with it.
    UniformRandom {
        /// Total number of tokens.
        total: i64,
        /// RNG seed.
        seed: u64,
    },
    /// Node `i` starts with `i·max_per_node/(n−1)` tokens (a linear ramp).
    Ramp {
        /// Load of the last node.
        max_per_node: i64,
    },
    /// Explicit per-node loads.
    Custom(Vec<i64>),
}

impl InitialLoad {
    /// All `total` tokens on `node` (the paper's default with
    /// `total = 1000·n`).
    pub fn point(node: NodeId, total: i64) -> Self {
        InitialLoad::Point { node, total }
    }

    /// The paper's default for an `n`-node network: `1000·n` tokens on
    /// node 0.
    pub fn paper_default(n: usize) -> Self {
        InitialLoad::Point {
            node: 0,
            total: 1000 * n as i64,
        }
    }

    /// Validates the distribution against an `n`-node network, returning
    /// the message the builder wraps into
    /// [`crate::BuildError::InvalidInitialLoad`]. Besides the shape checks
    /// it refuses any distribution whose total does not fit the `i64`
    /// token counters (every per-node value then fits as well).
    pub(crate) fn check(&self, n: usize) -> Result<(), String> {
        match self {
            InitialLoad::Point { node, total } => {
                if *node as usize >= n {
                    return Err(format!(
                        "point load node {node} out of range (graph has {n} nodes)"
                    ));
                }
                if *total < 0 {
                    return Err(format!("negative total load {total}"));
                }
            }
            InitialLoad::EqualPerNode(per) => {
                if *per < 0 {
                    return Err(format!("negative per-node load {per}"));
                }
            }
            InitialLoad::UniformRandom { total, .. } => {
                if *total < 0 {
                    return Err(format!("negative total load {total}"));
                }
                if *total > MAX_RANDOM_TOTAL {
                    return Err(format!(
                        "random placement draws one node per token; \
                         {total} tokens exceed the cap of 2^40"
                    ));
                }
            }
            InitialLoad::Ramp { max_per_node } => {
                if *max_per_node < 0 {
                    return Err(format!("negative ramp load {max_per_node}"));
                }
            }
            InitialLoad::Custom(loads) => {
                if loads.len() != n {
                    return Err(format!(
                        "custom load vector length mismatch: {} loads for {n} nodes",
                        loads.len()
                    ));
                }
            }
        }
        if self.checked_total(n).is_none() {
            return Err(format!("total load on {n} nodes overflows i64"));
        }
        Ok(())
    }

    /// The total as `i64`, or `None` when it does not fit.
    fn checked_total(&self, n: usize) -> Option<i64> {
        match self {
            InitialLoad::Point { total, .. } | InitialLoad::UniformRandom { total, .. } => {
                Some(*total)
            }
            InitialLoad::EqualPerNode(per) => per.checked_mul(i64::try_from(n).ok()?),
            InitialLoad::Ramp { max_per_node } => i64::try_from(
                (0..n)
                    .map(|i| i128::from(ramp(*max_per_node, i, n)))
                    .sum::<i128>(),
            )
            .ok(),
            InitialLoad::Custom(loads) => {
                i64::try_from(loads.iter().map(|&x| i128::from(x)).sum::<i128>()).ok()
            }
        }
    }

    /// Materializes the distribution for an `n`-node network.
    ///
    /// # Panics
    ///
    /// Panics if the distribution references a node `>= n`, a negative
    /// total, or a `Custom` vector of the wrong length.
    pub fn materialize(&self, n: usize) -> Vec<i64> {
        match self {
            InitialLoad::Point { node, total } => {
                assert!((*node as usize) < n, "point load node out of range");
                assert!(*total >= 0, "negative total load");
                let mut loads = vec![0; n];
                loads[*node as usize] = *total;
                loads
            }
            InitialLoad::EqualPerNode(per) => {
                assert!(*per >= 0, "negative per-node load");
                vec![*per; n]
            }
            InitialLoad::UniformRandom { total, seed } => {
                assert!(*total >= 0, "negative total load");
                let mut loads = vec![0i64; n];
                let mut rng = SplitMix64::new(*seed);
                for _ in 0..*total {
                    let v = (rng.next_u64() % n as u64) as usize;
                    loads[v] += 1;
                }
                loads
            }
            InitialLoad::Ramp { max_per_node } => {
                assert!(*max_per_node >= 0, "negative ramp load");
                (0..n).map(|i| ramp(*max_per_node, i, n)).collect()
            }
            InitialLoad::Custom(loads) => {
                assert_eq!(loads.len(), n, "custom load vector length mismatch");
                loads.clone()
            }
        }
    }

    /// Total number of tokens this distribution places on `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if the total does not fit an `i64` (the builders refuse
    /// such distributions as [`crate::BuildError::InvalidInitialLoad`]).
    pub fn total(&self, n: usize) -> i64 {
        self.checked_total(n)
            .expect("initial load total overflows i64")
    }
}

/// Node `i`'s load under [`InitialLoad::Ramp`] on `n` nodes:
/// `i·max/(n−1)`, widened so the product cannot overflow (the quotient
/// is at most `max` and narrows back exactly); `max` on a single node.
fn ramp(max: i64, i: usize, n: usize) -> i64 {
    if n <= 1 {
        return max;
    }
    (i128::from(max) * i as i128 / (n as i128 - 1)) as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_load_shape() {
        let loads = InitialLoad::point(2, 100).materialize(4);
        assert_eq!(loads, vec![0, 0, 100, 0]);
    }

    #[test]
    fn paper_default_is_1000n_at_node0() {
        let init = InitialLoad::paper_default(16);
        let loads = init.materialize(16);
        assert_eq!(loads[0], 16_000);
        assert_eq!(loads.iter().sum::<i64>(), 16_000);
        assert_eq!(init.total(16), 16_000);
    }

    #[test]
    fn uniform_random_conserves_total() {
        let init = InitialLoad::UniformRandom {
            total: 5000,
            seed: 3,
        };
        let loads = init.materialize(50);
        assert_eq!(loads.iter().sum::<i64>(), 5000);
        assert_eq!(loads, init.materialize(50)); // deterministic
    }

    #[test]
    fn ramp_is_monotone() {
        let loads = InitialLoad::Ramp { max_per_node: 90 }.materialize(10);
        assert_eq!(loads[0], 0);
        assert_eq!(loads[9], 90);
        assert!(loads.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn custom_roundtrips() {
        let v = vec![5, 0, 7];
        assert_eq!(InitialLoad::Custom(v.clone()).materialize(3), v);
        assert_eq!(InitialLoad::Custom(v).total(3), 12);
    }

    #[test]
    fn ramp_never_overflows_and_custom_totals_are_checked() {
        let max = i64::MAX;
        let loads = InitialLoad::Ramp { max_per_node: max }.materialize(16);
        assert_eq!((loads[0], loads[15]), (0, max));
        assert!(loads.windows(2).all(|w| w[0] <= w[1]));
        let err = InitialLoad::Custom(vec![max, 1]).check(2).unwrap_err();
        assert!(err.contains("overflows i64"), "{err}");
        assert_eq!(InitialLoad::Custom(vec![max - 1, 1]).check(2), Ok(()));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn point_out_of_range_panics() {
        InitialLoad::point(9, 1).materialize(4);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn custom_wrong_length_panics() {
        InitialLoad::Custom(vec![1, 2]).materialize(3);
    }
}
