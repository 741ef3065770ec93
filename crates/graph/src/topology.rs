//! Declarative topology specifications: a serializable, fallible layer in
//! front of [`crate::generators`].
//!
//! A [`TopologySpec`] describes one network instance as data
//! (`torus2d:16:16`, `random_cm:4096:7`, …), round-trips through
//! `Display`/`FromStr`, and builds the graph with every invalid parameter
//! reported as a [`GraphError`] instead of a panic. This is the topology
//! half of the workspace's scenario files (see `sodiff_core::ScenarioSpec`).

use std::fmt;
use std::str::FromStr;

use crate::csr::Graph;
use crate::error::GraphError;
use crate::generators;

/// A network topology described as data.
///
/// The textual form is `kind:arg:arg:…` with `:`-separated arguments, e.g.
/// `torus2d:16:16`, `hypercube:10`, `random_regular:200:6:3`. Randomized
/// generators carry their seed in the spec, so a spec names one concrete
/// graph instance.
///
/// # Example
///
/// ```
/// use sodiff_graph::TopologySpec;
///
/// let spec: TopologySpec = "torus2d:8:4".parse().unwrap();
/// let g = spec.build().unwrap();
/// assert_eq!(g.node_count(), 32);
/// assert_eq!(spec.to_string(), "torus2d:8:4");
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TopologySpec {
    /// 2D torus `rows × cols` (`torus2d:R:C`).
    Torus2d {
        /// Number of rows.
        rows: usize,
        /// Number of columns.
        cols: usize,
    },
    /// k-dimensional torus (`torus:D1:D2:…`).
    Torus {
        /// Side lengths per dimension.
        dims: Vec<usize>,
    },
    /// Hypercube of the given dimension (`hypercube:D`).
    Hypercube {
        /// Dimension (`2^dim` nodes).
        dim: u32,
    },
    /// Cycle on `n ≥ 3` nodes (`cycle:N`).
    Cycle {
        /// Number of nodes.
        n: usize,
    },
    /// Path on `n ≥ 1` nodes (`path:N`).
    Path {
        /// Number of nodes.
        n: usize,
    },
    /// Complete graph (`complete:N`).
    Complete {
        /// Number of nodes.
        n: usize,
    },
    /// Star with hub 0 (`star:N`).
    Star {
        /// Number of nodes including the hub.
        n: usize,
    },
    /// Open 2D grid (`grid2d:R:C`).
    Grid2d {
        /// Number of rows.
        rows: usize,
        /// Number of columns.
        cols: usize,
    },
    /// Random `d`-regular configuration-model graph
    /// (`random_regular:N:D:SEED`).
    RandomRegular {
        /// Number of nodes.
        n: usize,
        /// Target degree.
        d: usize,
        /// RNG seed.
        seed: u64,
    },
    /// The paper's "Random Graph (CM)" with `d = ⌊log₂ n⌋`
    /// (`random_cm:N:SEED`).
    RandomCm {
        /// Number of nodes.
        n: usize,
        /// RNG seed.
        seed: u64,
    },
    /// Erdős–Rényi `G(n, p)` (`erdos_renyi:N:P:SEED`).
    ErdosRenyi {
        /// Number of nodes.
        n: usize,
        /// Edge probability.
        p: f64,
        /// RNG seed.
        seed: u64,
    },
    /// Random geometric graph with explicit radius
    /// (`geometric:N:RADIUS:SEED`).
    Geometric {
        /// Number of nodes.
        n: usize,
        /// Connection radius.
        radius: f64,
        /// RNG seed.
        seed: u64,
    },
    /// The paper's RGG configuration, `r = 4·(log n)^(1/4)` (`rgg:N:SEED`).
    RggPaper {
        /// Number of nodes.
        n: usize,
        /// RNG seed.
        seed: u64,
    },
}

impl TopologySpec {
    /// Builds the described graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] for parameters the
    /// corresponding generator would reject (zero-sized tori, cycles below
    /// 3 nodes, hypercube dimension ≥ 32, `p` outside `[0, 1]`, negative
    /// radius, or impossible regular-graph configurations), and for sizes
    /// whose node or edge count does not fit the `u32` ids.
    pub fn build(&self) -> Result<Graph, GraphError> {
        self.check_id_space()?;
        let invalid = |msg: String| Err(GraphError::InvalidParameter(msg));
        match self {
            TopologySpec::Torus2d { rows, cols } => {
                if *rows == 0 || *cols == 0 {
                    return invalid(format!("torus sides must be positive ({rows}x{cols})"));
                }
                Ok(generators::torus2d(*rows, *cols))
            }
            TopologySpec::Torus { dims } => {
                if dims.is_empty() || dims.contains(&0) {
                    return invalid(format!("torus sides must be positive ({dims:?})"));
                }
                Ok(generators::torus(dims))
            }
            TopologySpec::Hypercube { dim } => {
                if *dim >= 32 {
                    return invalid(format!("hypercube dimension must be < 32, got {dim}"));
                }
                Ok(generators::hypercube(*dim))
            }
            TopologySpec::Cycle { n } => {
                if *n < 3 {
                    return invalid(format!("cycle needs at least 3 nodes, got {n}"));
                }
                Ok(generators::cycle(*n))
            }
            TopologySpec::Path { n } => Ok(generators::path(*n)),
            TopologySpec::Complete { n } => Ok(generators::complete(*n)),
            TopologySpec::Star { n } => Ok(generators::star(*n)),
            TopologySpec::Grid2d { rows, cols } => Ok(generators::grid2d(*rows, *cols)),
            TopologySpec::RandomRegular { n, d, seed } => generators::random_regular(*n, *d, *seed),
            TopologySpec::RandomCm { n, seed } => {
                if *n < 2 {
                    return invalid(format!("random_cm needs at least 2 nodes, got {n}"));
                }
                generators::random_graph_cm(*n, *seed)
            }
            TopologySpec::ErdosRenyi { n, p, seed } => {
                if !(0.0..=1.0).contains(p) {
                    return invalid(format!(
                        "erdos_renyi probability must be in [0, 1], got {p}"
                    ));
                }
                Ok(generators::erdos_renyi(*n, *p, *seed))
            }
            TopologySpec::Geometric { n, radius, seed } => {
                if !radius.is_finite() || *radius < 0.0 {
                    return invalid(format!(
                        "geometric radius must be non-negative, got {radius}"
                    ));
                }
                Ok(generators::random_geometric(*n, *radius, *seed))
            }
            TopologySpec::RggPaper { n, seed } => {
                if *n < 2 {
                    return invalid(format!("rgg needs at least 2 nodes, got {n}"));
                }
                Ok(generators::rgg_paper(*n, *seed))
            }
        }
    }

    /// Refuses a spec whose node count, or deterministic edge count,
    /// does not fit the `u32` node and edge ids — before anything is
    /// allocated. Counts are computed with checked arithmetic, so a
    /// product that overflows `usize` is refused too. The random
    /// families whose edge count is drawn (`erdos_renyi`, `geometric`,
    /// `rgg`) are checked on their node count only.
    fn check_id_space(&self) -> Result<(), GraphError> {
        let half = |m: Option<usize>| m.map(|m| m / 2);
        let (nodes, edges) = match self {
            TopologySpec::Torus2d { rows, cols } | TopologySpec::Grid2d { rows, cols } => {
                let n = rows.checked_mul(*cols);
                (n, n.and_then(|n| n.checked_mul(2)))
            }
            TopologySpec::Torus { dims } => {
                let n = dims.iter().try_fold(1usize, |acc, &d| acc.checked_mul(d));
                (n, n.and_then(|n| n.checked_mul(dims.len())))
            }
            TopologySpec::Hypercube { dim } => {
                let n = 1usize.checked_shl(*dim);
                (n, half(n.and_then(|n| n.checked_mul(*dim as usize))))
            }
            TopologySpec::Cycle { n } => (Some(*n), Some(*n)),
            TopologySpec::Path { n } | TopologySpec::Star { n } => {
                (Some(*n), Some(n.saturating_sub(1)))
            }
            TopologySpec::Complete { n } => (Some(*n), half(n.checked_mul(n.saturating_sub(1)))),
            TopologySpec::RandomRegular { n, d, .. } => (Some(*n), half(n.checked_mul(*d))),
            TopologySpec::RandomCm { n, .. } => {
                let d = n.max(&1).ilog2() as usize;
                (Some(*n), half(n.checked_mul(d)))
            }
            TopologySpec::ErdosRenyi { n, .. }
            | TopologySpec::Geometric { n, .. }
            | TopologySpec::RggPaper { n, .. } => (Some(*n), Some(0)),
        };
        let ids = u32::MAX as usize;
        match (nodes, edges) {
            (Some(n), Some(m)) if n <= ids && m <= ids => Ok(()),
            _ => Err(GraphError::InvalidParameter(format!(
                "topology {self} needs more nodes or edges than the u32 ids address \
                 ({} nodes, {} edges)",
                nodes.map_or("overflowing".to_string(), |n| n.to_string()),
                edges.map_or("overflowing".to_string(), |m| m.to_string()),
            ))),
        }
    }
}

impl fmt::Display for TopologySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologySpec::Torus2d { rows, cols } => write!(f, "torus2d:{rows}:{cols}"),
            TopologySpec::Torus { dims } => {
                write!(f, "torus")?;
                for d in dims {
                    write!(f, ":{d}")?;
                }
                Ok(())
            }
            TopologySpec::Hypercube { dim } => write!(f, "hypercube:{dim}"),
            TopologySpec::Cycle { n } => write!(f, "cycle:{n}"),
            TopologySpec::Path { n } => write!(f, "path:{n}"),
            TopologySpec::Complete { n } => write!(f, "complete:{n}"),
            TopologySpec::Star { n } => write!(f, "star:{n}"),
            TopologySpec::Grid2d { rows, cols } => write!(f, "grid2d:{rows}:{cols}"),
            TopologySpec::RandomRegular { n, d, seed } => {
                write!(f, "random_regular:{n}:{d}:{seed}")
            }
            TopologySpec::RandomCm { n, seed } => write!(f, "random_cm:{n}:{seed}"),
            TopologySpec::ErdosRenyi { n, p, seed } => write!(f, "erdos_renyi:{n}:{p}:{seed}"),
            TopologySpec::Geometric { n, radius, seed } => {
                write!(f, "geometric:{n}:{radius}:{seed}")
            }
            TopologySpec::RggPaper { n, seed } => write!(f, "rgg:{n}:{seed}"),
        }
    }
}

/// Parses one `:`-separated argument.
fn arg<T: FromStr>(parts: &[&str], idx: usize, what: &str, spec: &str) -> Result<T, GraphError> {
    parts
        .get(idx)
        .ok_or_else(|| {
            GraphError::InvalidParameter(format!("topology '{spec}' is missing its {what}"))
        })?
        .parse()
        .map_err(|_| {
            GraphError::InvalidParameter(format!("topology '{spec}' has an invalid {what}"))
        })
}

/// Rejects extra arguments beyond `expected`.
fn exactly(parts: &[&str], expected: usize, spec: &str) -> Result<(), GraphError> {
    if parts.len() == expected {
        Ok(())
    } else {
        Err(GraphError::InvalidParameter(format!(
            "topology '{spec}' takes {expected} argument(s), got {}",
            parts.len()
        )))
    }
}

impl FromStr for TopologySpec {
    type Err = GraphError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut pieces = s.split(':');
        let kind = pieces.next().unwrap_or_default();
        let parts: Vec<&str> = pieces.collect();
        let spec = match kind {
            "torus2d" => {
                exactly(&parts, 2, s)?;
                TopologySpec::Torus2d {
                    rows: arg(&parts, 0, "row count", s)?,
                    cols: arg(&parts, 1, "column count", s)?,
                }
            }
            "torus" => {
                if parts.is_empty() {
                    return Err(GraphError::InvalidParameter(format!(
                        "topology '{s}' needs at least one side length"
                    )));
                }
                let dims = parts
                    .iter()
                    .enumerate()
                    .map(|(i, _)| arg(&parts, i, "side length", s))
                    .collect::<Result<Vec<usize>, _>>()?;
                TopologySpec::Torus { dims }
            }
            "hypercube" => {
                exactly(&parts, 1, s)?;
                TopologySpec::Hypercube {
                    dim: arg(&parts, 0, "dimension", s)?,
                }
            }
            "cycle" => {
                exactly(&parts, 1, s)?;
                TopologySpec::Cycle {
                    n: arg(&parts, 0, "node count", s)?,
                }
            }
            "path" => {
                exactly(&parts, 1, s)?;
                TopologySpec::Path {
                    n: arg(&parts, 0, "node count", s)?,
                }
            }
            "complete" => {
                exactly(&parts, 1, s)?;
                TopologySpec::Complete {
                    n: arg(&parts, 0, "node count", s)?,
                }
            }
            "star" => {
                exactly(&parts, 1, s)?;
                TopologySpec::Star {
                    n: arg(&parts, 0, "node count", s)?,
                }
            }
            "grid2d" => {
                exactly(&parts, 2, s)?;
                TopologySpec::Grid2d {
                    rows: arg(&parts, 0, "row count", s)?,
                    cols: arg(&parts, 1, "column count", s)?,
                }
            }
            "random_regular" => {
                exactly(&parts, 3, s)?;
                TopologySpec::RandomRegular {
                    n: arg(&parts, 0, "node count", s)?,
                    d: arg(&parts, 1, "degree", s)?,
                    seed: arg(&parts, 2, "seed", s)?,
                }
            }
            "random_cm" => {
                exactly(&parts, 2, s)?;
                TopologySpec::RandomCm {
                    n: arg(&parts, 0, "node count", s)?,
                    seed: arg(&parts, 1, "seed", s)?,
                }
            }
            "erdos_renyi" => {
                exactly(&parts, 3, s)?;
                TopologySpec::ErdosRenyi {
                    n: arg(&parts, 0, "node count", s)?,
                    p: arg(&parts, 1, "edge probability", s)?,
                    seed: arg(&parts, 2, "seed", s)?,
                }
            }
            "geometric" => {
                exactly(&parts, 3, s)?;
                TopologySpec::Geometric {
                    n: arg(&parts, 0, "node count", s)?,
                    radius: arg(&parts, 1, "radius", s)?,
                    seed: arg(&parts, 2, "seed", s)?,
                }
            }
            "rgg" => {
                exactly(&parts, 2, s)?;
                TopologySpec::RggPaper {
                    n: arg(&parts, 0, "node count", s)?,
                    seed: arg(&parts, 1, "seed", s)?,
                }
            }
            other => {
                return Err(GraphError::InvalidParameter(format!(
                    "unknown topology kind '{other}' \
                     (expected torus2d, torus, hypercube, cycle, path, complete, star, \
                     grid2d, random_regular, random_cm, erdos_renyi, geometric, or rgg)"
                )))
            }
        };
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oversized_specs_are_refused_before_allocating() {
        for text in [
            "torus2d:4000000000:4000000000",
            "torus2d:70000:70000",
            "grid2d:65536:65536",
            "torus:65536:65536:65536",
            "hypercube:31",
            "complete:100000",
            "random_regular:3000000000:4:1",
            "cycle:5000000000",
            "erdos_renyi:5000000000:0.5:1",
        ] {
            let spec: TopologySpec = text.parse().unwrap();
            match spec.build() {
                Err(GraphError::InvalidParameter(msg)) => {
                    assert!(msg.contains("u32 ids"), "{text}: {msg}")
                }
                other => panic!("{text}: expected a typed refusal, got {other:?}"),
            }
        }
        // The largest ids still fit: the checks pass (nothing is built).
        for text in ["torus2d:65535:32768", "hypercube:28", "complete:92681"] {
            let spec: TopologySpec = text.parse().unwrap();
            assert_eq!(spec.check_id_space(), Ok(()), "{text}");
        }
    }

    #[test]
    fn parse_build_roundtrip() {
        for text in [
            "torus2d:5:7",
            "torus:3:3:3",
            "hypercube:6",
            "cycle:12",
            "path:4",
            "complete:9",
            "star:5",
            "grid2d:3:4",
            "random_regular:40:4:7",
            "random_cm:64:3",
            "erdos_renyi:50:0.2:9",
            "geometric:50:2.5:4",
            "rgg:60:2",
        ] {
            let spec: TopologySpec = text.parse().unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(spec.to_string(), text, "display must round-trip");
            let reparsed: TopologySpec = spec.to_string().parse().unwrap();
            assert_eq!(reparsed, spec);
            let g = spec.build().unwrap_or_else(|e| panic!("{text}: {e}"));
            assert!(g.node_count() > 0, "{text} built an empty graph");
        }
    }

    #[test]
    fn build_matches_generators() {
        let spec = TopologySpec::Torus2d { rows: 4, cols: 6 };
        assert_eq!(spec.build().unwrap(), generators::torus2d(4, 6));
        let spec = TopologySpec::RandomRegular {
            n: 30,
            d: 4,
            seed: 11,
        };
        assert_eq!(
            spec.build().unwrap(),
            generators::random_regular(30, 4, 11).unwrap()
        );
    }

    #[test]
    fn invalid_parameters_are_errors_not_panics() {
        let bad = [
            "torus2d:0:4",
            "torus:0",
            "hypercube:40",
            "cycle:2",
            "erdos_renyi:10:1.5:1",
            "geometric:10:-1:1",
            "random_regular:5:3:1",
            "rgg:1:1",
        ];
        for text in bad {
            let spec: TopologySpec = text.parse().unwrap_or_else(|e| panic!("{text}: {e}"));
            assert!(
                matches!(spec.build(), Err(GraphError::InvalidParameter(_))),
                "{text} should be rejected"
            );
        }
    }

    #[test]
    fn parse_errors() {
        for text in [
            "",
            "mesh:4:4",
            "torus2d:4",
            "torus2d:4:5:6",
            "torus2d:a:b",
            "hypercube",
            "random_regular:10:2",
        ] {
            assert!(
                text.parse::<TopologySpec>().is_err(),
                "'{text}' should not parse"
            );
        }
    }
}
