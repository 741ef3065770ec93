//! Small dense-vector helpers shared by the solvers.

/// Dot product `⟨a, b⟩`.
///
/// # Panics
///
/// Panics if the lengths differ.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm `‖a‖₂`.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// `y ← y + alpha·x`.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Scales `a` in place by `1/‖a‖₂`; returns the prior norm.
///
/// Leaves a zero vector untouched and returns 0.
pub fn normalize(a: &mut [f64]) -> f64 {
    let n = norm2(a);
    if n > 0.0 {
        for x in a.iter_mut() {
            *x /= n;
        }
    }
    n
}

/// Removes the component of `a` along the (unit) direction `u`:
/// `a ← a − ⟨a, u⟩·u`.
pub fn orthogonalize_against(a: &mut [f64], u: &[f64]) {
    let c = dot(a, u);
    axpy(-c, u, a);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        let a = [3.0, 4.0];
        assert_eq!(dot(&a, &a), 25.0);
        assert_eq!(norm2(&a), 5.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[10.0, -1.0], &mut y);
        assert_eq!(y, vec![21.0, -1.0]);
    }

    #[test]
    fn normalize_unit_vector() {
        let mut a = vec![3.0, 4.0];
        let prior = normalize(&mut a);
        assert_eq!(prior, 5.0);
        assert!((norm2(&a) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn normalize_zero_is_noop() {
        let mut a = vec![0.0, 0.0];
        assert_eq!(normalize(&mut a), 0.0);
        assert_eq!(a, vec![0.0, 0.0]);
    }

    #[test]
    fn orthogonalize_removes_component() {
        let u = [1.0, 0.0];
        let mut a = vec![5.0, 2.0];
        orthogonalize_against(&mut a, &u);
        assert_eq!(a, vec![0.0, 2.0]);
    }
}
