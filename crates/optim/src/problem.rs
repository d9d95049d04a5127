//! The selective data acquisition optimization problem (Section 5.1).

use st_curve::PowerLaw;

/// The convex program of Section 5.1:
///
/// ```text
/// min  Σ b_i (|s_i| + d_i)^(-a_i)
///    + λ Σ max(0, b_i (|s_i| + d_i)^(-a_i) / A − 1)
/// s.t. Σ C(s_i) d_i = B,   d_i ≥ 0
/// ```
///
/// `A` is the average of the current per-slice losses (a constant while
/// solving, per the paper's convexity argument).
///
/// ```
/// use st_curve::PowerLaw;
/// use st_optim::{solve, AcquisitionProblem};
///
/// // Two slices of 100 examples each; slice 0's curve is much steeper.
/// let problem = AcquisitionProblem::new(
///     vec![PowerLaw::new(5.0, 0.5), PowerLaw::new(3.0, 0.1)],
///     vec![100.0, 100.0],
///     vec![1.0, 1.0],
///     200.0, // budget
///     1.0,   // lambda
/// );
/// let (d, theta) = solve(&problem);
/// assert!(problem.is_feasible(&d, 1e-9));
/// assert!(theta > 0.0);
/// assert!(problem.objective(&d) < problem.objective(&[100.0, 100.0]));
/// ```
#[derive(Debug, Clone)]
pub struct AcquisitionProblem {
    /// Fitted learning curves, one per slice.
    pub curves: Vec<PowerLaw>,
    /// Current slice sizes `|s_i|`.
    pub sizes: Vec<f64>,
    /// Per-example acquisition costs `C(s_i)`.
    pub costs: Vec<f64>,
    /// Total acquisition budget `B`.
    pub budget: f64,
    /// Fairness weight `λ ≥ 0` (paper default 1).
    pub lambda: f64,
}

impl AcquisitionProblem {
    /// Builds a problem, validating shapes and ranges.
    ///
    /// # Panics
    /// Panics on length mismatches, non-positive costs, negative sizes,
    /// negative budget, or negative lambda.
    pub fn new(
        curves: Vec<PowerLaw>,
        sizes: Vec<f64>,
        costs: Vec<f64>,
        budget: f64,
        lambda: f64,
    ) -> Self {
        let n = curves.len();
        assert!(n > 0, "need at least one slice");
        assert_eq!(sizes.len(), n, "sizes length mismatch");
        assert_eq!(costs.len(), n, "costs length mismatch");
        assert!(
            sizes.iter().all(|&s| s >= 0.0),
            "sizes must be non-negative"
        );
        assert!(costs.iter().all(|&c| c > 0.0), "costs must be positive");
        assert!(budget >= 0.0, "budget must be non-negative");
        assert!(lambda >= 0.0, "lambda must be non-negative");
        AcquisitionProblem {
            curves,
            sizes,
            costs,
            budget,
            lambda,
        }
    }

    /// Number of slices.
    pub fn n(&self) -> usize {
        self.curves.len()
    }

    /// Current per-slice losses (curve value at the current size).
    pub fn current_losses(&self) -> Vec<f64> {
        self.curves
            .iter()
            .zip(&self.sizes)
            .map(|(c, &s)| c.eval(s))
            .collect()
    }

    /// The constant `A`: average of the current per-slice losses.
    pub fn avg_loss(&self) -> f64 {
        let losses = self.current_losses();
        losses.iter().sum::<f64>() / losses.len() as f64
    }

    /// Predicted per-slice losses after acquiring `d`.
    pub fn losses_after(&self, d: &[f64]) -> Vec<f64> {
        assert_eq!(d.len(), self.n(), "allocation length mismatch");
        self.curves
            .iter()
            .zip(&self.sizes)
            .zip(d)
            .map(|((c, &s), &di)| c.eval(s + di))
            .collect()
    }

    /// Objective value at allocation `d` (loss term + λ·unfairness penalty).
    pub fn objective(&self, d: &[f64]) -> f64 {
        let a = self.avg_loss();
        let losses = self.losses_after(d);
        let loss_term: f64 = losses.iter().sum();
        let penalty: f64 = losses.iter().map(|&l| (l / a - 1.0).max(0.0)).sum();
        loss_term + self.lambda * penalty
    }

    /// A subgradient of the objective at `d`.
    ///
    /// The loss term is differentiable; the penalty's `max(0, ·)` kink uses
    /// the one-sided derivative (active only when `loss_i > A`).
    pub fn subgradient(&self, d: &[f64]) -> Vec<f64> {
        assert_eq!(d.len(), self.n(), "allocation length mismatch");
        let a = self.avg_loss();
        self.curves
            .iter()
            .zip(&self.sizes)
            .zip(d)
            .map(|((c, &s), &di)| {
                let x = s + di;
                let slope = c.slope(x);
                let active = c.eval(x) > a;
                slope * (1.0 + if active { self.lambda / a } else { 0.0 })
            })
            .collect()
    }

    /// Total cost of an allocation `Σ C(s_i) d_i`.
    pub fn total_cost(&self, d: &[f64]) -> f64 {
        self.costs.iter().zip(d).map(|(c, x)| c * x).sum()
    }

    /// True when `d` is (approximately) feasible: non-negative and on the
    /// budget hyperplane within `tol` (relative to `B`).
    pub fn is_feasible(&self, d: &[f64], tol: f64) -> bool {
        d.iter().all(|&x| x >= -tol)
            && (self.total_cost(d) - self.budget).abs() <= tol * self.budget.max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_slice() -> AcquisitionProblem {
        AcquisitionProblem::new(
            vec![PowerLaw::new(5.0, 0.5), PowerLaw::new(3.0, 0.1)],
            vec![100.0, 100.0],
            vec![1.0, 1.0],
            200.0,
            1.0,
        )
    }

    #[test]
    fn avg_loss_matches_manual() {
        let p = two_slice();
        let l0 = 5.0 * 100.0_f64.powf(-0.5);
        let l1 = 3.0 * 100.0_f64.powf(-0.1);
        assert!((p.avg_loss() - (l0 + l1) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn objective_decreases_with_more_data() {
        let p = two_slice();
        assert!(p.objective(&[200.0, 0.0]) < p.objective(&[0.0, 0.0]));
    }

    #[test]
    fn subgradient_is_negative() {
        let p = two_slice();
        let g = p.subgradient(&[10.0, 10.0]);
        assert!(
            g.iter().all(|&x| x < 0.0),
            "more data always reduces the objective"
        );
    }

    #[test]
    fn subgradient_matches_finite_difference() {
        let p = two_slice();
        let d = vec![37.0, 55.0];
        let g = p.subgradient(&d);
        let eps = 1e-5;
        for i in 0..2 {
            let mut dp = d.clone();
            dp[i] += eps;
            let mut dm = d.clone();
            dm[i] -= eps;
            let fd = (p.objective(&dp) - p.objective(&dm)) / (2.0 * eps);
            assert!((g[i] - fd).abs() < 1e-5, "slice {i}: {} vs {}", g[i], fd);
        }
    }

    #[test]
    fn penalty_only_hits_above_average_slices() {
        // Slice 0 loss above A, slice 1 below: only slice 0's gradient gets
        // the λ boost.
        let p = two_slice();
        let d = vec![0.0, 0.0];
        let g1 = {
            let mut q = p.clone();
            q.lambda = 0.0;
            q.subgradient(&d)
        };
        let g2 = p.subgradient(&d);
        let losses = p.current_losses();
        let a = p.avg_loss();
        for i in 0..2 {
            if losses[i] > a {
                assert!(g2[i] < g1[i], "penalized slice has steeper descent");
            } else {
                assert_eq!(g2[i], g1[i]);
            }
        }
    }

    #[test]
    fn feasibility_check() {
        let p = two_slice();
        assert!(p.is_feasible(&[150.0, 50.0], 1e-9));
        assert!(!p.is_feasible(&[150.0, 100.0], 1e-9));
        assert!(!p.is_feasible(&[-1.0, 201.0], 1e-9));
    }

    #[test]
    #[should_panic(expected = "costs must be positive")]
    fn rejects_zero_cost() {
        let _ = AcquisitionProblem::new(
            vec![PowerLaw::new(1.0, 0.1)],
            vec![1.0],
            vec![0.0],
            1.0,
            0.0,
        );
    }
}
