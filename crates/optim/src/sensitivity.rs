//! Sensitivity analysis of the acquisition optimum.
//!
//! Practitioners running Slice Tuner face the question "is my budget in the
//! right ballpark?" before committing crowdsourcing money. This module
//! differentiates the solved program with respect to the budget:
//!
//! - the **marginal value of budget**: predicted objective improvement per
//!   extra unit of budget. It is `−θ`, where `θ` is the budget constraint's
//!   multiplier that [`solve`] returns (the envelope theorem);
//! - **allocation sensitivities** `∂d_i/∂B`: where the next unit of budget
//!   would go.
//!
//! Both are validated against finite differences in tests.

use crate::problem::AcquisitionProblem;
use crate::solver::solve;

/// Sensitivity report at the optimum for a given budget.
#[derive(Debug, Clone)]
pub struct SensitivityReport {
    /// The optimal allocation at the probed budget.
    pub allocation: Vec<f64>,
    /// Marginal objective change per unit budget (≤ 0: more budget can only
    /// help). This is `−θ`, the negative multiplier of the budget
    /// constraint.
    pub marginal_value: f64,
    /// `∂d_i/∂B` — how the next budget unit would be split across slices
    /// (costs-weighted entries sum to ≈ 1).
    pub allocation_gradient: Vec<f64>,
}

/// Finite-difference step used for the allocation probe, relative to `B`.
const REL_STEP: f64 = 1e-3;

/// Solves the program at `B` and `B(1 + ε)`: the marginal value is `−θ` at
/// `B`, and the allocation gradient is the forward difference.
///
/// # Panics
/// Panics when the problem's budget is non-positive (there is no meaningful
/// sensitivity at `B = 0`).
pub fn budget_sensitivity(p: &AcquisitionProblem) -> SensitivityReport {
    assert!(p.budget > 0.0, "sensitivity needs a positive budget");
    let (d0, theta) = solve(p);
    let h = p.budget * REL_STEP;

    let mut bumped = p.clone();
    bumped.budget = p.budget + h;
    let (d1, _) = solve(&bumped);

    let allocation_gradient: Vec<f64> = d0.iter().zip(&d1).map(|(a, b)| (b - a) / h).collect();
    SensitivityReport {
        allocation: d0,
        marginal_value: -theta,
        allocation_gradient,
    }
}

/// Sweeps budgets and reports the objective at each optimum — the data
/// behind "how much budget do I actually need" plots (Figure 10's x-axis).
///
/// # Panics
/// Panics when `budgets` is empty.
pub fn budget_curve(p: &AcquisitionProblem, budgets: &[f64]) -> Vec<(f64, f64)> {
    assert!(!budgets.is_empty(), "need at least one budget");
    budgets
        .iter()
        .map(|&b| {
            let mut q = p.clone();
            q.budget = b;
            (b, p.objective(&solve(&q).0))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_curve::PowerLaw;

    fn problem() -> AcquisitionProblem {
        AcquisitionProblem::new(
            vec![
                PowerLaw::new(5.0, 0.5),
                PowerLaw::new(3.0, 0.2),
                PowerLaw::new(4.0, 0.35),
            ],
            vec![100.0, 200.0, 120.0],
            vec![1.0, 1.3, 0.9],
            400.0,
            1.0,
        )
    }

    #[test]
    fn marginal_value_is_negative() {
        let rep = budget_sensitivity(&problem());
        assert!(
            rep.marginal_value < 0.0,
            "extra budget must lower the objective"
        );
    }

    #[test]
    fn allocation_gradient_spends_the_extra_budget() {
        let p = problem();
        let rep = budget_sensitivity(&p);
        let spent: f64 = rep
            .allocation_gradient
            .iter()
            .zip(&p.costs)
            .map(|(g, c)| g * c)
            .sum();
        assert!(
            (spent - 1.0).abs() < 0.05,
            "cost-weighted gradient sums to {spent}"
        );
    }

    #[test]
    fn marginal_value_matches_objective_difference() {
        // Direct check at a coarser step: f(B + ΔB) − f(B) ≈ marginal · ΔB.
        let p = problem();
        let rep = budget_sensitivity(&p);
        let mut big = p.clone();
        big.budget = p.budget * 1.1;
        let (d_big, _) = solve(&big);
        let actual = p.objective(&d_big) - p.objective(&rep.allocation);
        let predicted = rep.marginal_value * (big.budget - p.budget);
        // The objective is convex decreasing in B, so the linear prediction
        // overestimates the improvement; both must be negative and same
        // order of magnitude.
        assert!(actual < 0.0 && predicted < 0.0);
        assert!(
            predicted <= actual * 0.5,
            "predicted {predicted}, actual {actual}"
        );
        assert!(
            predicted >= actual * 3.0,
            "predicted {predicted}, actual {actual}"
        );
    }

    #[test]
    fn diminishing_returns_across_budgets() {
        let p = problem();
        let curve = budget_curve(&p, &[100.0, 200.0, 400.0, 800.0, 1600.0]);
        // Objective decreases with budget...
        for w in curve.windows(2) {
            assert!(w[1].1 < w[0].1, "{curve:?}");
        }
        // ...and the *per-unit* improvement shrinks (convexity in B).
        let rates: Vec<f64> = curve
            .windows(2)
            .map(|w| (w[0].1 - w[1].1) / (w[1].0 - w[0].0))
            .collect();
        for r in rates.windows(2) {
            assert!(r[1] < r[0], "per-unit returns should diminish: {rates:?}");
        }
    }

    #[test]
    #[should_panic(expected = "positive budget")]
    fn rejects_zero_budget() {
        let mut p = problem();
        p.budget = 0.0;
        let _ = budget_sensitivity(&p);
    }
}
