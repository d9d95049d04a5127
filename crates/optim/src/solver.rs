//! The exact solver for the acquisition program.
//!
//! With the average loss `A` held constant (the paper's own convexity
//! argument in Section 5.1), the objective is separable: slice `i`
//! contributes `f_i(x) = g_i(x) + λ·max(0, g_i(x)/A − 1)` with
//! `g_i(x) = b_i x^(−a_i)` at size `x = |s_i| + d_i`. For a budget
//! multiplier `θ > 0`, each slice minimizes `f_i(x) + θ c_i x` on its own,
//! and the minimizer has a closed form in one of three regions:
//!
//! ```text
//! above A:  x = (a b (1 + λ/A) / (θ c))^(1 / (a + 1))   if that x has g(x) > A
//! below A:  x = (a b / (θ c))^(1 / (a + 1))             if that x has g(x) < A
//! kink:     x = (b / A)^(1 / a)                          otherwise (g(x) = A)
//! ```
//!
//! and `d_i = max(0, x − |s_i|)`. Each `d_i` is non-increasing and
//! continuous in `θ`, so bisection on `θ` meets the budget.

use crate::problem::AcquisitionProblem;
use crate::projection::project_weighted_simplex;

/// One slice's separable term, prepared for repeated evaluation at
/// different multipliers.
struct SliceTerm {
    size: f64,
    cost: f64,
    /// `1 / (a + 1)`: the exponent of the closed forms.
    exp: f64,
    /// `(a b / c)^(1/(a+1))`: the below-`A` optimum at `θ = 1`.
    below: f64,
    /// The above-`A` optimum at `θ = 1` (the slope scaled by `1 + λ/A`).
    above: f64,
    /// The size where the loss meets `A`.
    kink: f64,
}

impl SliceTerm {
    /// The slice's optimal acquisition at multiplier `theta`.
    fn acquisition(&self, theta: f64) -> f64 {
        let t = theta.powf(-self.exp);
        let (above, below) = (self.above * t, self.below * t);
        let x = if above < self.kink {
            above
        } else if below > self.kink {
            below
        } else {
            self.kink
        };
        (x - self.size).max(0.0)
    }
}

/// Solves the acquisition program exactly.
///
/// Returns the continuous optimum `d ≥ 0` with `Σ c_i d_i = B` and the
/// budget multiplier `θ ≥ 0`: every funded slice's marginal objective
/// change per unit cost is `−θ`, every unfunded slice's is no steeper,
/// and `−θ` is the optimum's derivative with respect to `B`.
///
/// When every curve is flat (every current loss underflows, as with the
/// tuner's zero-benefit stand-in for drift-quarantined slices), no
/// allocation moves the objective: the budget is split evenly, every
/// slice getting `B / Σ c_i` examples, with `θ = 0`.
pub fn solve(problem: &AcquisitionProblem) -> (Vec<f64>, f64) {
    let losses = problem.current_losses();
    let avg = losses.iter().sum::<f64>() / losses.len() as f64;
    // The smallest multiplier that funds nothing: the steepest per-cost
    // descent at the current sizes.
    let theta_max = problem
        .subgradient(&vec![0.0; problem.n()])
        .iter()
        .zip(&problem.costs)
        .map(|(g, c)| -g / c)
        .fold(0.0, f64::max);
    if losses.iter().all(|&l| l <= f64::MIN_POSITIVE) || !theta_max.is_normal() {
        let per = problem.budget / problem.costs.iter().sum::<f64>();
        return (vec![per; problem.n()], 0.0);
    }

    let boost = 1.0 + problem.lambda / avg;
    let terms: Vec<SliceTerm> = problem
        .curves
        .iter()
        .zip(&problem.sizes)
        .zip(&problem.costs)
        .map(|((curve, &size), &cost)| {
            let exp = 1.0 / (curve.a + 1.0);
            let below = (curve.a * curve.b / cost).powf(exp);
            SliceTerm {
                size,
                cost,
                exp,
                below,
                above: below * boost.powf(exp),
                kink: (curve.b / avg).powf(1.0 / curve.a),
            }
        })
        .collect();
    let spend = |theta: f64| -> f64 { terms.iter().map(|t| t.cost * t.acquisition(theta)).sum() };

    // Bracket: spend(hi) ≤ B ≤ spend(lo). θ spans decades, so the
    // bisection is geometric.
    let mut hi = theta_max;
    while spend(hi) > problem.budget {
        hi *= 2.0;
    }
    let mut lo = hi;
    while spend(lo) < problem.budget && lo > f64::MIN_POSITIVE {
        lo *= 0.5;
    }
    loop {
        let mid = lo * (hi / lo).sqrt();
        if mid <= lo || mid >= hi {
            break;
        }
        if spend(mid) >= problem.budget {
            lo = mid;
        } else {
            hi = mid;
        }
    }

    // `lo` over-spends by the bisection's last bit; the projection takes
    // it back with a non-negative shift, so unfunded slices stay at 0.
    let d: Vec<f64> = terms.iter().map(|t| t.acquisition(lo)).collect();
    (
        project_weighted_simplex(&d, &problem.costs, problem.budget),
        lo,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_curve::PowerLaw;

    fn problem(lambda: f64) -> AcquisitionProblem {
        AcquisitionProblem::new(
            vec![
                PowerLaw::new(5.0, 0.5),
                PowerLaw::new(3.0, 0.1),
                PowerLaw::new(2.0, 0.9),
            ],
            vec![100.0, 200.0, 50.0],
            vec![1.0, 1.5, 1.0],
            500.0,
            lambda,
        )
    }

    #[test]
    fn equalizes_marginal_utility_per_cost() {
        // Every slice receiving data has the same marginal loss reduction
        // per unit cost (= θ); starved slices have a smaller one.
        let p = problem(0.0);
        let (d, theta) = solve(&p);
        assert!(p.is_feasible(&d, 1e-9), "{d:?}");
        let marginal: Vec<f64> = p
            .curves
            .iter()
            .zip(&p.sizes)
            .zip(&d)
            .zip(&p.costs)
            .map(|(((c, &s), &di), &cost)| -c.slope(s + di) / cost)
            .collect();
        assert!(
            d.iter().filter(|&&x| x > 0.0).count() >= 2,
            "expected several funded slices: {d:?}"
        );
        for (&m, &di) in marginal.iter().zip(&d) {
            if di > 0.0 {
                assert!((m - theta).abs() < 1e-9 * theta, "{marginal:?} vs {theta}");
            } else {
                assert!(
                    m <= theta * (1.0 + 1e-9),
                    "starved slice must have lower value"
                );
            }
        }
    }

    #[test]
    fn beats_uniform() {
        for lambda in [0.0, 1.0, 10.0] {
            let p = problem(lambda);
            let (d, _) = solve(&p);
            let per = p.budget / p.costs.iter().sum::<f64>();
            assert!(
                p.objective(&d) <= p.objective(&[per; 3]) + 1e-12,
                "λ={lambda}"
            );
        }
    }

    #[test]
    fn lambda_shifts_budget_toward_high_loss_slices() {
        let p0 = problem(0.0);
        let p50 = AcquisitionProblem {
            lambda: 50.0,
            ..p0.clone()
        };
        let (d0, _) = solve(&p0);
        let (d50, _) = solve(&p50);
        let losses = p0.current_losses();
        let worst = losses
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!(
            d50[worst] >= d0[worst] - 1e-6,
            "λ must not reduce the worst slice's share: {d0:?} -> {d50:?}"
        );
        // And the post-acquisition spread (max loss / avg) must not grow.
        let spread = |d: &[f64], p: &AcquisitionProblem| {
            let l = p.losses_after(d);
            let avg = l.iter().sum::<f64>() / l.len() as f64;
            l.iter().cloned().fold(f64::MIN, f64::max) / avg
        };
        assert!(spread(&d50, &p50) <= spread(&d0, &p0) + 1e-6);
    }

    #[test]
    fn zero_budget_returns_zero() {
        for lambda in [0.0, 1.0] {
            let mut p = problem(lambda);
            p.budget = 0.0;
            assert_eq!(solve(&p).0, vec![0.0; 3]);
        }
    }

    #[test]
    fn flat_curve_gets_nothing_at_lambda_zero() {
        // One nearly-flat curve vs one steep curve of equal size: the flat
        // slice's marginal benefit is negligible, so it is starved.
        let p = AcquisitionProblem::new(
            vec![PowerLaw::new(1.0, 0.001), PowerLaw::new(3.0, 0.8)],
            vec![100.0, 100.0],
            vec![1.0, 1.0],
            300.0,
            0.0,
        );
        let (d, _) = solve(&p);
        assert_eq!(d[0], 0.0, "{d:?}");
        assert!((d[1] - 300.0).abs() < 1e-9, "{d:?}");
    }

    #[test]
    fn identical_slices_get_equal_shares() {
        for lambda in [0.0, 1.0] {
            let p = AcquisitionProblem::new(
                vec![PowerLaw::new(2.0, 0.4); 4],
                vec![100.0; 4],
                vec![1.0; 4],
                400.0,
                lambda,
            );
            for &x in &solve(&p).0 {
                assert!((x - 100.0).abs() < 1e-9, "λ={lambda}: {x}");
            }
        }
    }

    #[test]
    fn toy_example_from_paper_intro() {
        // Section 1's toy: two equal-size slices; s1's curve steep, s2's
        // flat. Slice Tuner should spend (nearly) everything on s1.
        let p = AcquisitionProblem::new(
            vec![PowerLaw::new(20.0, 0.3), PowerLaw::new(3.17, 0.012)],
            vec![100.0, 100.0],
            vec![1.0, 1.0],
            300.0,
            1.0,
        );
        let (d, _) = solve(&p);
        assert!(d[0] > 0.9 * 300.0, "{d:?}");
    }

    #[test]
    fn expensive_lossy_slice_is_pinned_at_the_average_loss() {
        // Slice 0 is lossy but 20× as expensive. Below the average loss
        // its data is not worth the price; above it, the λ-boosted slope
        // is. So it is bought exactly up to `A` (size 256) and the rest
        // of the budget goes to slice 1.
        let p = AcquisitionProblem::new(
            vec![PowerLaw::new(4.0, 0.5), PowerLaw::new(1.0, 0.5)],
            vec![100.0, 100.0],
            vec![20.0, 1.0],
            3560.0,
            1.0,
        );
        let (d, _) = solve(&p);
        assert!((d[0] - 156.0).abs() < 1e-9, "{d:?}");
        assert!((d[1] - 440.0).abs() < 1e-9, "{d:?}");
    }
}
