//! Solving Equation System 1 / eq. (17) for `(ε0, ε1, β)`.
//!
//! Given the approximation target `α`, the slack `ε < α`, and the
//! ground-set size `n`, the paper couples `ε0 = n·ε1` (so that the `p_max`
//! estimation and the covering phase have the same asymptotic cost) and
//! requires
//!
//! ```text
//! β = (α − ε1(1+ε0)) / (1 + ε1(1+ε0))          (eq. 12)
//! β·(1 − ε1(1+ε0)) − ε1(1+ε0) = α − ε           (eq. 13)
//! ```
//!
//! The left side of eq. (13) decreases monotonically from `α` (at
//! `ε1 → 0`) as `ε1` grows, so a unique root exists whenever
//! `0 < ε < α`; we find it by bisection.
//!
//! Paper errata handled here: the printed eq. (17)
//! swaps `α` and `ε1` relative to eq. (13) — we solve the consistent
//! system — and for large `n` the coupling `ε0 = n·ε1` can push `ε0`
//! beyond 1, where eq. (10) becomes vacuous and eq. (16) ill-defined, so
//! `ε0` is clamped to a configurable cap (default 0.5).

use crate::CoreError;
use serde::{Deserialize, Serialize};

/// The solved parameter set consumed by the RAF pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParameterSet {
    /// Approximation target `α ∈ (0, 1]`.
    pub alpha: f64,
    /// Total slack `ε ∈ (0, α)`.
    pub epsilon: f64,
    /// Relative error allotted to the `p_max` estimation (eq. 10).
    pub eps0: f64,
    /// Relative error allotted to the pool estimate (eq. 11).
    pub eps1: f64,
    /// The covering fraction `β` of eq. (12).
    pub beta: f64,
}

impl ParameterSet {
    /// Default cap on `ε0` (see module docs).
    pub const DEFAULT_EPS0_CAP: f64 = 0.5;

    /// Solves the system with the paper's `ε0 = n·ε1` coupling (clamped at
    /// [`Self::DEFAULT_EPS0_CAP`]).
    ///
    /// # Errors
    ///
    /// [`CoreError::ParameterSolveFailed`] unless `0 < ε < α ≤ 1` and
    /// `n ≥ 1`.
    pub fn solve(alpha: f64, epsilon: f64, n: usize) -> Result<Self, CoreError> {
        Self::solve_with_cap(alpha, epsilon, n, Self::DEFAULT_EPS0_CAP)
    }

    /// Solves the system with an explicit `ε0` cap.
    ///
    /// # Errors
    ///
    /// [`CoreError::ParameterSolveFailed`] when the inputs are outside
    /// their valid ranges (`0 < ε < α ≤ 1`, `n ≥ 1`, cap in `(0, 1)`).
    pub fn solve_with_cap(
        alpha: f64,
        epsilon: f64,
        n: usize,
        eps0_cap: f64,
    ) -> Result<Self, CoreError> {
        if !(alpha > 0.0 && alpha <= 1.0 && epsilon > 0.0 && epsilon < alpha)
            || n == 0
            || !(eps0_cap > 0.0 && eps0_cap < 1.0)
        {
            return Err(CoreError::ParameterSolveFailed { alpha, epsilon });
        }
        let c = n as f64;
        let eps0_of = |eps1: f64| (c * eps1).min(eps0_cap);
        // h(ε1) = LHS of eq. (13) − (α − ε); strictly decreasing.
        let h = |eps1: f64| -> f64 {
            let eps0 = eps0_of(eps1);
            let x = eps1 * (1.0 + eps0);
            let beta = (alpha - x) / (1.0 + x);
            beta * (1.0 - x) - x - (alpha - epsilon)
        };
        // Upper bracket: x = ε1(1+ε0) must stay below α (β > 0); ε1 < α
        // certainly suffices as a hard ceiling.
        let mut lo = 0.0f64;
        let mut hi = alpha.min(1.0);
        // Ensure h(hi) < 0; shrink if numerical surprises occur.
        let mut guard = 0;
        while h(hi) > 0.0 && guard < 60 {
            hi *= 1.5;
            guard += 1;
            if hi > 10.0 {
                return Err(CoreError::ParameterSolveFailed { alpha, epsilon });
            }
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if h(mid) > 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let eps1 = 0.5 * (lo + hi);
        let eps0 = eps0_of(eps1);
        let x = eps1 * (1.0 + eps0);
        let beta = (alpha - x) / (1.0 + x);
        if !(beta > 0.0 && beta <= 1.0) || eps1 <= 0.0 {
            return Err(CoreError::ParameterSolveFailed { alpha, epsilon });
        }
        Ok(ParameterSet { alpha, epsilon, eps0, eps1, beta })
    }

    /// The eq. (13) residual — zero (within bisection tolerance) for a
    /// valid parameter set; exposed for tests and diagnostics.
    pub fn residual(&self) -> f64 {
        let x = self.eps1 * (1.0 + self.eps0);
        self.beta * (1.0 - x) - x - (self.alpha - self.epsilon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_standard_settings() {
        // The paper's evaluation setting: α varies, ε = 0.01.
        for &alpha in &[0.05, 0.1, 0.2, 0.35, 1.0] {
            for &n in &[100usize, 7_000, 1_100_000] {
                let p = ParameterSet::solve(alpha, 0.01, n).unwrap();
                assert!(p.eps1 > 0.0 && p.eps1 < 1.0, "eps1 {}", p.eps1);
                assert!(p.eps0 > 0.0 && p.eps0 <= 0.5);
                assert!(p.beta > 0.0 && p.beta <= 1.0, "beta {}", p.beta);
                assert!(p.residual().abs() < 1e-9, "residual {}", p.residual());
            }
        }
    }

    #[test]
    fn beta_close_to_alpha_for_small_epsilon() {
        let p = ParameterSet::solve(0.3, 0.001, 1_000).unwrap();
        assert!((p.beta - 0.3).abs() < 0.01, "beta {}", p.beta);
    }

    #[test]
    fn rejects_invalid_ranges() {
        assert!(ParameterSet::solve(0.0, 0.01, 10).is_err());
        assert!(ParameterSet::solve(1.5, 0.01, 10).is_err());
        assert!(ParameterSet::solve(0.1, 0.1, 10).is_err()); // ε ≥ α
        assert!(ParameterSet::solve(0.1, 0.0, 10).is_err());
        assert!(ParameterSet::solve(0.1, 0.01, 0).is_err());
        assert!(ParameterSet::solve_with_cap(0.1, 0.01, 10, 1.5).is_err());
    }

    #[test]
    fn coupling_saturates_at_cap_for_large_n() {
        let p = ParameterSet::solve(0.1, 0.01, 10_000_000).unwrap();
        assert_eq!(p.eps0, ParameterSet::DEFAULT_EPS0_CAP);
    }

    #[test]
    fn coupling_proportional_for_small_n() {
        let p = ParameterSet::solve(0.5, 0.01, 3).unwrap();
        assert!(p.eps0 < ParameterSet::DEFAULT_EPS0_CAP);
        assert!((p.eps0 - 3.0 * p.eps1).abs() < 1e-12);
    }

    #[test]
    fn eps1_decreases_with_larger_n_before_cap() {
        let p_small = ParameterSet::solve(0.2, 0.01, 10).unwrap();
        let p_big = ParameterSet::solve(0.2, 0.01, 1_000).unwrap();
        assert!(p_big.eps1 < p_small.eps1);
    }

    #[test]
    fn smaller_epsilon_means_tighter_eps1() {
        let loose = ParameterSet::solve(0.2, 0.05, 100).unwrap();
        let tight = ParameterSet::solve(0.2, 0.005, 100).unwrap();
        assert!(tight.eps1 < loose.eps1);
    }

    #[test]
    fn serde_roundtrip_shape() {
        let p = ParameterSet::solve(0.1, 0.01, 100).unwrap();
        let cloned = p.clone();
        assert_eq!(p, cloned);
    }
}
