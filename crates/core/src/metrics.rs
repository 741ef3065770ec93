//! Quality metrics for load distributions (paper Section VI).

use std::collections::VecDeque;

use sodiff_graph::{Graph, Speeds};

use crate::kernel::Value;

/// Snapshot of the load-distribution quality metrics the paper tracks.
///
/// All values are in token units. In the heterogeneous model, "average"
/// means the speed-proportional balanced load `x̄_i = m·s_i/s`, and the
/// local difference is measured on the speed-normalized loads `x_i/s_i`
/// (which coincide with the raw definitions when `s ≡ 1`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricsSnapshot {
    /// `φ_global = max_v (x_v − x̄_v)` — maximum load above the balanced
    /// load (the paper's "maximum load minus average load").
    pub max_minus_avg: f64,
    /// `min_v (x_v − x̄_v)` — most underloaded node (negative when below
    /// the balanced load; detects negative load when `< −x̄`).
    pub min_minus_avg: f64,
    /// `φ_local = max_{(u,v)∈E} |x_u/s_u − x_v/s_v|` — maximum local load
    /// difference over edges.
    pub max_local_diff: f64,
    /// `φ_t/n = Σ_v (x_v − x̄_v)²/n` — the 2-norm potential of
    /// Muthukrishnan et al., divided by `n` as in the paper's plots.
    pub potential_over_n: f64,
    /// Minimum raw load (goes negative when SOS overdraws a node).
    pub min_load: f64,
}

/// Computes all metrics, reading loads through a closure (allocation-free)
/// and deriving the balanced load from the total the closure sums to.
///
/// # Panics
///
/// Panics if `speeds.len()` does not match the graph.
pub fn snapshot_with(
    graph: &Graph,
    speeds: &Speeds,
    load_of: impl Fn(usize) -> f64,
) -> MetricsSnapshot {
    let total: f64 = (0..graph.node_count()).map(&load_of).sum();
    snapshot_with_total(graph, speeds, total, load_of)
}

/// Node-block width of the potential sum: `Σ dev²` is accumulated per
/// consecutive block of this many nodes and the block partials are then
/// folded in block order. Summation order is thereby **independent of
/// the executor** — the sequential apply pass, every pooled chunking
/// (node chunks are block-aligned), and the from-scratch
/// [`snapshot_with_total`] all produce bit-identical potentials, which
/// keeps `RunReport`s bit-identical across thread counts.
pub const DEV_BLOCK: usize = 64;

/// Like [`snapshot_with`], but measures deviations against an externally
/// known `total` instead of re-summing the loads.
///
/// The simulator uses its **conserved initial total** here: in discrete
/// mode token conservation makes that bit-identical to re-summing, and in
/// continuous mode it pins the balanced load to the invariant the scheme
/// converges to instead of a float sum that drifts by rounding error.
/// This is also what makes the fused in-loop reduction of the apply
/// kernels (`Simulator::round_metrics`) reproduce a from-scratch
/// recompute exactly: both sides derive `x̄_i = T·s_i/S` from the same
/// `T` and sum the potential in the same [`DEV_BLOCK`] grouping.
///
/// # Panics
///
/// Panics if `speeds.len()` does not match the graph.
pub fn snapshot_with_total(
    graph: &Graph,
    speeds: &Speeds,
    total: f64,
    load_of: impl Fn(usize) -> f64,
) -> MetricsSnapshot {
    let n = graph.node_count();
    assert_eq!(speeds.len(), n, "speeds length mismatch");
    let mut max_dev = f64::NEG_INFINITY;
    let mut min_dev = f64::INFINITY;
    let mut potential = 0.0;
    let mut block_acc = 0.0;
    let mut min_load = f64::INFINITY;
    // Compare-and-assign extrema, matching the fused apply-pass
    // reduction (`kernel::StatsFold::node`) operation for operation so
    // the two paths agree bit for bit.
    for i in 0..n {
        let x = load_of(i);
        let ideal = total * speeds.get(i) / speeds.total();
        let dev = x - ideal;
        if dev > max_dev {
            max_dev = dev;
        }
        if dev < min_dev {
            min_dev = dev;
        }
        block_acc += dev * dev;
        if (i + 1).is_multiple_of(DEV_BLOCK) {
            potential += block_acc;
            block_acc = 0.0;
        }
        if x < min_load {
            min_load = x;
        }
    }
    potential += block_acc;
    MetricsSnapshot {
        max_minus_avg: max_dev,
        min_minus_avg: min_dev,
        max_local_diff: local_diff_with(graph, speeds, load_of),
        potential_over_n: potential / n as f64,
        min_load,
    }
}

/// `φ_local = max_{(u,v)∈E} |x_u/s_u − x_v/s_v|` alone: the one snapshot
/// field that inherently needs an edge sweep. Exposed separately so
/// callers that already have the node-derived fields from the fused
/// in-loop reduction (the run loop's final report, the
/// `MaxLocalDiffBelow` switch policy) pay exactly this sweep and nothing
/// else.
///
/// The sweep walks the edges node-major, each tail's out-range in turn,
/// so `x_u/s_u` is read once per node. A maximum does not depend on the
/// order of its operands, and each difference is the same expression on
/// the same operands as an edge-by-edge sweep, so the result is that
/// sweep's bit for bit.
pub fn local_diff_with(graph: &Graph, speeds: &Speeds, load_of: impl Fn(usize) -> f64) -> f64 {
    let heads = graph.heads();
    let out_ranges = graph.out_offsets().windows(2);
    let mut max_local = 0.0f64;
    for (u, range) in out_ranges.enumerate() {
        let x_u = load_of(u) / speeds.get(u);
        for &v in &heads[range[0] as usize..range[1] as usize] {
            let v = v as usize;
            let diff = (x_u - load_of(v) / speeds.get(v)).abs();
            max_local = max_local.max(diff);
        }
    }
    max_local
}

/// Computes all metrics for a load vector of whole tokens or fluid.
///
/// # Panics
///
/// Panics if `loads.len()` does not match the graph/speeds.
pub fn snapshot<V: Value>(graph: &Graph, speeds: &Speeds, loads: &[V]) -> MetricsSnapshot {
    assert_eq!(
        loads.len(),
        graph.node_count(),
        "load vector length mismatch"
    );
    snapshot_with(graph, speeds, |i| loads[i].to_f64())
}

/// Detects the *remaining imbalance* of a converged discrete system
/// (paper metric 5): the value around which `max − avg` fluctuates once it
/// stops improving.
///
/// Feed one `max_minus_avg` value per round; [`RemainingImbalance::value`]
/// reports the minimum over the trailing window once the improvement over
/// a full window is below one token. Only the trailing `2·window` samples
/// are kept: they are all the detection reads.
#[derive(Debug, Clone, PartialEq)]
pub struct RemainingImbalance {
    pub(crate) window: usize,
    pub(crate) history: VecDeque<f64>,
}

impl RemainingImbalance {
    /// Tracker with the given detection window (in rounds).
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        Self {
            window,
            history: VecDeque::new(),
        }
    }

    /// Records the `max − avg` value of one round.
    pub fn push(&mut self, max_minus_avg: f64) {
        if self.history.len() == self.window.saturating_mul(2) {
            self.history.pop_front();
        }
        self.history.push_back(max_minus_avg);
    }

    /// Returns `true` once the metric has stopped improving: the best
    /// value in the latest window is no more than one token better than
    /// the best value in the window before it.
    pub fn converged(&self) -> bool {
        self.history.len() == self.window.saturating_mul(2)
            && self.latest_min() > window_min(self.history.iter().take(self.window)) - 1.0
    }

    /// The remaining imbalance: minimum `max − avg` over the latest
    /// window; `None` until [`Self::converged`].
    pub fn value(&self) -> Option<f64> {
        self.converged().then(|| self.latest_min())
    }

    fn latest_min(&self) -> f64 {
        window_min(self.history.iter().skip(self.window))
    }
}

fn window_min<'a>(samples: impl Iterator<Item = &'a f64>) -> f64 {
    samples.copied().fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sodiff_graph::generators;

    #[test]
    fn balanced_vector_has_zero_metrics() {
        let g = generators::torus2d(3, 3);
        let s = Speeds::uniform(9);
        let m = snapshot(&g, &s, &[7.0; 9]);
        assert_eq!(m.max_minus_avg, 0.0);
        assert_eq!(m.min_minus_avg, 0.0);
        assert_eq!(m.max_local_diff, 0.0);
        assert_eq!(m.potential_over_n, 0.0);
        assert_eq!(m.min_load, 7.0);
    }

    #[test]
    fn point_load_metrics() {
        let g = generators::cycle(4);
        let s = Speeds::uniform(4);
        let m = snapshot(&g, &s, &[8.0, 0.0, 0.0, 0.0]);
        assert_eq!(m.max_minus_avg, 6.0); // 8 - avg(2)
        assert_eq!(m.min_minus_avg, -2.0);
        assert_eq!(m.max_local_diff, 8.0);
        // potential = (36 + 4 + 4 + 4)/4 = 12
        assert_eq!(m.potential_over_n, 12.0);
        assert_eq!(m.min_load, 0.0);
    }

    #[test]
    fn heterogeneous_ideal_is_speed_proportional() {
        let g = generators::cycle(3);
        let s = Speeds::new(vec![1.0, 2.0, 3.0]);
        // Perfectly balanced for these speeds: 10, 20, 30.
        let m = snapshot(&g, &s, &[10.0, 20.0, 30.0]);
        assert!(m.max_minus_avg.abs() < 1e-12);
        assert!(m.max_local_diff.abs() < 1e-12);
        // Homogeneous-looking vector is *not* balanced here.
        let m = snapshot(&g, &s, &[20.0, 20.0, 20.0]);
        assert!(m.max_minus_avg > 0.0);
    }

    #[test]
    fn negative_load_shows_in_min_load() {
        let g = generators::path(2);
        let s = Speeds::uniform(2);
        let m = snapshot(&g, &s, &[-3.0, 7.0]);
        assert_eq!(m.min_load, -3.0);
    }

    #[test]
    fn token_snapshot_matches_fluid() {
        let g = generators::torus2d(3, 3);
        let s = Speeds::uniform(9);
        let ints: Vec<i64> = (0..9).map(|i| i * i).collect();
        let floats: Vec<f64> = ints.iter().map(|&x| x as f64).collect();
        assert_eq!(snapshot(&g, &s, &ints), snapshot(&g, &s, &floats));
    }

    #[test]
    fn remaining_imbalance_detects_plateau() {
        let mut tracker = RemainingImbalance::new(5);
        // Decaying phase.
        for v in [100.0, 60.0, 40.0, 25.0, 15.0] {
            tracker.push(v);
        }
        assert!(!tracker.converged());
        // Plateau around 7.
        for _ in 0..10 {
            tracker.push(7.0);
        }
        assert!(tracker.converged());
        assert_eq!(tracker.value(), Some(7.0));
    }

    /// The tracker keeps only the trailing `2·window` samples, and
    /// answers exactly as an unbounded history read the same way would.
    #[test]
    fn remaining_imbalance_history_is_bounded() {
        let window = 7;
        let mut tracker = RemainingImbalance::new(window);
        let mut all = Vec::new();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        // Which answers a full window gave: not converged, converged.
        let mut seen = [false; 2];
        for round in 0..10 * window {
            // Decay, then noise around a plateau of 5 tokens.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let noise = (x % 400) as f64 / 100.0;
            let sample = 200.0 / (round + 1) as f64 + 5.0 + noise;
            tracker.push(sample);
            all.push(sample);
            assert!(tracker.history.len() <= 2 * window);
            let (converged, value) = if all.len() < 2 * window {
                (false, None)
            } else {
                let min = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
                let latest = min(&all[all.len() - window..]);
                let before = min(&all[all.len() - 2 * window..all.len() - window]);
                let converged = latest > before - 1.0;
                (converged, converged.then_some(latest))
            };
            assert_eq!(tracker.converged(), converged, "round {round}");
            assert_eq!(tracker.value(), value, "round {round}");
            if all.len() >= 2 * window {
                seen[usize::from(converged)] = true;
            }
        }
        assert_eq!(seen, [true, true], "the samples exercise both answers");
    }

    #[test]
    fn remaining_imbalance_not_fooled_by_decay() {
        let mut tracker = RemainingImbalance::new(3);
        for v in [100.0, 80.0, 60.0, 40.0, 20.0, 10.0] {
            tracker.push(v);
        }
        assert!(!tracker.converged(), "still improving by > 1 per window");
    }
}
