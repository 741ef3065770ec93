//! Processor speeds for the heterogeneous network model.
//!
//! In the paper's model every node `i` has a speed `s_i ≥ 1` (minimum speed
//! normalized to 1) and the balanced load of node `i` is `x̄_i = m·s_i/s`
//! with `s = Σ s_i`. The homogeneous model is the special case `s_i = 1`.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Per-node processor speeds `s_i ≥ 1`.
///
/// # Example
///
/// ```
/// use sodiff_graph::Speeds;
///
/// let s = Speeds::two_class(4, 2, 8.0);
/// assert_eq!(s.len(), 4);
/// assert_eq!(s.max(), 8.0);
/// assert_eq!(s.total(), 2.0 + 2.0 * 8.0);
/// assert!(!s.is_uniform());
/// ```
///
/// Speeds that are all equal are stored as one value, however they were
/// built: the homogeneous model allocates nothing per node.
#[derive(Debug, Clone, PartialEq)]
pub struct Speeds {
    values: Values,
    len: usize,
    total: f64,
    max: f64,
}

/// The speeds of a [`Speeds`]: one value for every node, or one per node.
#[derive(Debug, Clone, PartialEq)]
enum Values {
    Same(f64),
    Each(Box<[f64]>),
}

impl Speeds {
    /// Wraps explicit speed values.
    ///
    /// # Panics
    ///
    /// Panics if any speed is below 1 or not finite (the model normalizes
    /// the minimum speed to 1).
    pub fn new(values: Vec<f64>) -> Self {
        assert!(
            values.iter().all(|&s| s.is_finite() && s >= 1.0),
            "speeds must be finite and >= 1"
        );
        let len = values.len();
        let total = values.iter().sum();
        let max = values.iter().copied().fold(1.0, f64::max);
        let values = match values.first() {
            Some(&first) if values.iter().any(|&s| s != first) => Values::Each(values.into()),
            first => Values::Same(first.copied().unwrap_or(1.0)),
        };
        Self {
            values,
            len,
            total,
            max,
        }
    }

    /// The homogeneous model: `n` nodes of speed 1.
    pub fn uniform(n: usize) -> Self {
        Self {
            values: Values::Same(1.0),
            len: n,
            total: n as f64,
            max: 1.0,
        }
    }

    /// Two speed classes: the first `fast_count` nodes run at `fast_speed`,
    /// the rest at speed 1.
    pub fn two_class(n: usize, fast_count: usize, fast_speed: f64) -> Self {
        assert!(fast_count <= n);
        let mut values = vec![1.0; n];
        for v in values.iter_mut().take(fast_count) {
            *v = fast_speed;
        }
        Self::new(values)
    }

    /// Speeds drawn as `1 + (max_speed − 1)·U^exponent` with `U` uniform in
    /// `[0, 1]`; larger exponents skew towards slow nodes.
    pub fn random_skewed(n: usize, max_speed: f64, exponent: f64, seed: u64) -> Self {
        assert!(max_speed >= 1.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let values = (0..n)
            .map(|_| 1.0 + (max_speed - 1.0) * rng.random_range(0.0..1.0f64).powf(exponent))
            .collect();
        Self::new(values)
    }

    /// A linear ramp of speeds from 1 (node 0) to `max_speed` (node n−1).
    pub fn linear_ramp(n: usize, max_speed: f64) -> Self {
        assert!(max_speed >= 1.0);
        if n <= 1 {
            return Self::uniform(n);
        }
        let values = (0..n)
            .map(|i| 1.0 + (max_speed - 1.0) * i as f64 / (n - 1) as f64)
            .collect();
        Self::new(values)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if there are no nodes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Speed of node `i`.
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        match &self.values {
            Values::Same(s) => {
                assert!(i < self.len, "node {i} out of {} speeds", self.len);
                *s
            }
            Values::Each(values) => values[i],
        }
    }

    /// All speeds, in node order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = f64> + '_ {
        (0..self.len).map(|i| self.get(i))
    }

    /// `s = Σ s_i`.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// `s_max`.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Returns `true` for the homogeneous model (all speeds equal).
    pub fn is_uniform(&self) -> bool {
        matches!(self.values, Values::Same(_))
    }

    /// Returns `true` if every speed is exactly 1 (the normalized
    /// homogeneous model for which analytic spectra apply).
    pub fn is_unit(&self) -> bool {
        self.values == Values::Same(1.0)
    }

    /// The balanced (ideal) load `x̄_i = m·s_i/s` for total load `m`.
    pub fn balanced_load(&self, total_load: f64) -> Vec<f64> {
        self.iter().map(|s| total_load * s / self.total).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_properties() {
        let s = Speeds::uniform(10);
        assert!(s.is_uniform());
        assert_eq!(s.total(), 10.0);
        assert_eq!(s.max(), 1.0);
        assert_eq!(s.get(3), 1.0);
    }

    #[test]
    #[should_panic(expected = "speeds must be finite and >= 1")]
    fn rejects_sub_unit_speed() {
        Speeds::new(vec![1.0, 0.5]);
    }

    #[test]
    fn two_class_layout() {
        let s = Speeds::two_class(5, 2, 4.0);
        assert!(s.iter().eq([4.0, 4.0, 1.0, 1.0, 1.0]));
        assert_eq!(s.max(), 4.0);
    }

    #[test]
    fn linear_ramp_endpoints() {
        let s = Speeds::linear_ramp(5, 9.0);
        assert_eq!(s.get(0), 1.0);
        assert_eq!(s.get(4), 9.0);
        assert!(!s.is_uniform());
    }

    #[test]
    fn random_skewed_within_bounds() {
        let s = Speeds::random_skewed(100, 16.0, 2.0, 7);
        assert!(s.iter().all(|v| (1.0..=16.0).contains(&v)));
        assert_eq!(s, Speeds::random_skewed(100, 16.0, 2.0, 7));
    }

    #[test]
    fn balanced_load_is_proportional() {
        let s = Speeds::new(vec![1.0, 3.0]);
        let bal = s.balanced_load(100.0);
        assert_eq!(bal, vec![25.0, 75.0]);
    }

    #[test]
    fn single_constant_speed_is_uniform() {
        // All nodes at the same non-1 speed is still "uniform" for the
        // analytic-spectrum dispatch... except the model scales differ.
        let s = Speeds::new(vec![2.0, 2.0]);
        assert!(s.is_uniform());
        assert!(!s.is_unit());
        assert_eq!((s.get(1), s.total(), s.max()), (2.0, 4.0, 2.0));
    }

    #[test]
    fn uniform_speeds_allocate_nothing_per_node() {
        let n = 1 << 20;
        let s = Speeds::uniform(n);
        assert_eq!(s.values, Values::Same(1.0));
        assert_eq!(s.len(), n);
        assert_eq!(s.get(n - 1), 1.0);
        assert!(s.is_unit());
        // Equal speeds passed one per node collapse to one value too, and
        // compare equal to the homogeneous model.
        let ones = Speeds::new(vec![1.0; 1000]);
        assert_eq!(ones.values, Values::Same(1.0));
        assert_eq!(ones, Speeds::uniform(1000));
        assert_eq!(Speeds::new(Vec::new()), Speeds::uniform(0));
        // Speeds that differ keep one value per node.
        let two = Speeds::two_class(1000, 1, 2.0);
        assert!(matches!(&two.values, Values::Each(v) if v.len() == 1000));
    }

    #[test]
    #[should_panic(expected = "out of 3 speeds")]
    fn uniform_speeds_bound_their_index() {
        Speeds::uniform(3).get(3);
    }
}
