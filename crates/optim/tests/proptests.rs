//! Property-based tests for the acquisition optimizer.

use proptest::prelude::*;
use st_curve::PowerLaw;
use st_optim::{
    budget_sensitivity, change_ratio, project_weighted_simplex, round_to_budget, solve,
    solve_overlap, AcquisitionProblem, OverlapProblem,
};

/// The fairness weights the solver properties are checked at.
const LAMBDAS: [f64; 4] = [0.0, 0.1, 1.0, 10.0];

fn arb_sized(
    slices: std::ops::Range<usize>,
    lambda: f64,
) -> impl Strategy<Value = AcquisitionProblem> {
    slices.prop_flat_map(move |n| {
        (
            prop::collection::vec((0.3f64..5.0, 0.05f64..1.0), n..=n),
            prop::collection::vec(20.0f64..400.0, n..=n),
            prop::collection::vec(0.5f64..2.0, n..=n),
            50.0f64..2000.0,
        )
            .prop_map(move |(ba, sizes, costs, budget)| {
                let curves = ba.into_iter().map(|(b, a)| PowerLaw::new(b, a)).collect();
                AcquisitionProblem::new(curves, sizes, costs, budget, lambda)
            })
    })
}

fn arb_problem(lambda: f64) -> impl Strategy<Value = AcquisitionProblem> {
    arb_sized(2..6, lambda)
}

/// A random problem at a random one of [`LAMBDAS`].
fn arb_any_lambda(slices: std::ops::Range<usize>) -> impl Strategy<Value = AcquisitionProblem> {
    (0usize..LAMBDAS.len()).prop_flat_map(move |i| arb_sized(slices.clone(), LAMBDAS[i]))
}

/// The one-sided slopes of slice `i`'s objective term at acquisition
/// `d`, with the penalty's kink (loss = `A`) widened by `tol` relative.
fn one_sided_slopes(p: &AcquisitionProblem, i: usize, d: f64, tol: f64) -> (f64, f64) {
    let a = p.avg_loss();
    let x = p.sizes[i] + d;
    let (loss, slope) = (p.curves[i].eval(x), p.curves[i].slope(x));
    let boosted = slope * (1.0 + p.lambda / a);
    let left = if loss >= a * (1.0 - tol) {
        boosted
    } else {
        slope
    };
    let right = if loss > a * (1.0 + tol) {
        boosted
    } else {
        slope
    };
    (left, right)
}

/// The optimal objective at budget `b`.
fn optimum_at(p: &AcquisitionProblem, b: f64) -> f64 {
    let q = AcquisitionProblem {
        budget: b,
        ..p.clone()
    };
    p.objective(&solve(&q).0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn projection_always_feasible(
        y in prop::collection::vec(-100.0f64..100.0, 1..8),
        budget in 0.0f64..500.0,
    ) {
        let costs: Vec<f64> = (0..y.len()).map(|i| 0.5 + (i % 3) as f64 * 0.5).collect();
        let d = project_weighted_simplex(&y, &costs, budget);
        prop_assert!(d.iter().all(|&x| x >= 0.0));
        let total: f64 = d.iter().zip(&costs).map(|(x, c)| x * c).sum();
        prop_assert!((total - budget).abs() < 1e-6 * budget.max(1.0), "{total} vs {budget}");
    }

    #[test]
    fn projection_is_idempotent(
        y in prop::collection::vec(-50.0f64..50.0, 2..6),
        budget in 1.0f64..200.0,
    ) {
        let costs = vec![1.0; y.len()];
        let once = project_weighted_simplex(&y, &costs, budget);
        let twice = project_weighted_simplex(&once, &costs, budget);
        for (a, b) in once.iter().zip(&twice) {
            prop_assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn solve_is_feasible_and_no_worse_than_uniform(p in arb_problem(1.0)) {
        let (d, _) = solve(&p);
        prop_assert!(p.is_feasible(&d, 1e-9), "{d:?}");
        let per = p.budget / p.costs.iter().sum::<f64>();
        let uniform = vec![per; p.n()];
        prop_assert!(p.objective(&d) <= p.objective(&uniform) + 1e-12);
    }

    #[test]
    fn more_budget_never_hurts(p in arb_problem(0.0)) {
        for lambda in [0.0, 1.0] {
            let p = AcquisitionProblem { lambda, ..p.clone() };
            prop_assert!(optimum_at(&p, 2.0 * p.budget) <= optimum_at(&p, p.budget) + 1e-12);
        }
    }

    #[test]
    fn rounding_stays_within_budget(
        d in prop::collection::vec(0.0f64..300.0, 1..8),
        extra in 0.0f64..10.0,
    ) {
        let costs: Vec<f64> = (0..d.len()).map(|i| 1.0 + (i % 4) as f64 * 0.25).collect();
        let budget: f64 = d.iter().zip(&costs).map(|(x, c)| x * c).sum::<f64>() + extra;
        let counts = round_to_budget(&d, &costs, budget);
        let spent: f64 = counts.iter().zip(&costs).map(|(&n, &c)| n as f64 * c).sum();
        prop_assert!(spent <= budget + 1e-6);
        // Never rounds down by more than one whole example per slice.
        for (&n, &x) in counts.iter().zip(&d) {
            prop_assert!(n as f64 >= x.floor());
            prop_assert!(n as f64 <= x.ceil());
        }
    }

    #[test]
    fn change_ratio_keeps_limit(
        sizes in prop::collection::vec(10.0f64..300.0, 2..6),
        adds_seed in 0u64..1000,
        t in 0.2f64..3.0,
    ) {
        let add: Vec<f64> = sizes
            .iter()
            .enumerate()
            .map(|(i, _)| ((adds_seed as usize + i * 131) % 500) as f64)
            .collect();
        let ir = |s: &[f64]| {
            s.iter().cloned().fold(f64::MIN, f64::max) / s.iter().cloned().fold(f64::MAX, f64::min)
        };
        let ir0 = ir(&sizes);
        let after_full: Vec<f64> = sizes.iter().zip(&add).map(|(s, a)| s + a).collect();
        let target = ir0 + t * (ir(&after_full) - ir0).signum();
        let x = change_ratio(&sizes, &add, target);
        prop_assert!((0.0..=1.0).contains(&x));
        let after: Vec<f64> = sizes.iter().zip(&add).map(|(s, a)| s + x * a).collect();
        prop_assert!((ir(&after) - ir0).abs() <= t + 1e-4, "x={x}");
    }

    #[test]
    fn objective_monotone_in_lambda(p in arb_problem(0.0), lambda in 0.1f64..5.0) {
        // With any fixed allocation, the objective grows with λ whenever a
        // slice sits above average (penalty ≥ 0 pointwise).
        let per = p.budget / p.costs.iter().sum::<f64>();
        let d = vec![per; p.n()];
        let with = AcquisitionProblem { lambda, ..p.clone() };
        prop_assert!(with.objective(&d) >= p.objective(&d) - 1e-12);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn solve_meets_the_kkt_conditions(base in arb_problem(0.0)) {
        let tol = 1e-9;
        for lambda in LAMBDAS {
            let p = AcquisitionProblem { lambda, ..base.clone() };
            let (d, theta) = solve(&p);
            prop_assert!(p.is_feasible(&d, tol), "λ={lambda}: {d:?}");
            prop_assert!(d.iter().all(|&x| x >= 0.0), "λ={lambda}: {d:?}");
            prop_assert!(theta > 0.0, "λ={lambda}: θ={theta}");
            for (i, &di) in d.iter().enumerate() {
                let price = -theta * p.costs[i];
                if di > 0.0 {
                    let (left, right) = one_sided_slopes(&p, i, di, tol);
                    prop_assert!(
                        left <= price * (1.0 - tol) && right >= price * (1.0 + tol),
                        "λ={lambda} funded slice {i}: slopes [{left}, {right}] vs −θc {price}"
                    );
                } else {
                    let (_, right) = one_sided_slopes(&p, i, 0.0, tol);
                    prop_assert!(
                        right >= price * (1.0 + tol),
                        "λ={lambda} unfunded slice {i}: right slope {right} vs −θc {price}"
                    );
                }
            }
        }
    }

    #[test]
    fn solve_is_never_beaten_by_a_grid_over_the_budget_simplex(p in arb_any_lambda(2..4)) {
        // Every split of the budget's spend into shares of 1/steps.
        let steps = if p.n() == 2 { 4000 } else { 200 };
        let splits: Vec<Vec<usize>> = if p.n() == 2 {
            (0..=steps).map(|i| vec![i, steps - i]).collect()
        } else {
            (0..=steps)
                .flat_map(|i| (0..=steps - i).map(move |j| vec![i, j, steps - i - j]))
                .collect()
        };
        let (d, _) = solve(&p);
        let f = p.objective(&d);
        for split in splits {
            let point: Vec<f64> = split
                .iter()
                .zip(&p.costs)
                .map(|(&share, c)| p.budget * share as f64 / steps as f64 / c)
                .collect();
            let g = p.objective(&point);
            prop_assert!(f <= g + 1e-9 * g.abs(), "grid point {point:?} ({g}) beats {d:?} ({f})");
        }
    }

    #[test]
    fn degenerate_inputs_stay_finite_and_feasible(p in arb_any_lambda(2..6)) {
        let check = |q: &AcquisitionProblem| -> Vec<f64> {
            let (d, theta) = solve(q);
            prop_assert!(theta.is_finite() && theta >= 0.0, "θ={theta}");
            prop_assert!(d.iter().all(|x| x.is_finite()), "{d:?}");
            prop_assert!(q.is_feasible(&d, 1e-9), "{d:?}");
            d
        };
        let with = |f: &dyn Fn(&mut AcquisitionProblem)| {
            let mut q = p.clone();
            f(&mut q);
            q
        };
        prop_assert!(check(&with(&|q| q.budget = 0.0)).iter().all(|&x| x == 0.0));
        let one = AcquisitionProblem::new(
            vec![p.curves[0]],
            vec![p.sizes[0]],
            vec![p.costs[0]],
            p.budget,
            p.lambda,
        );
        check(&one);
        check(&with(&|q| q.sizes[0] = 0.0));

        // The tuner's zero-benefit stand-in for a drift-quarantined slice.
        let stand_in = |c: &PowerLaw| PowerLaw::new(f64::MIN_POSITIVE, c.a);
        let all_flat = with(&|q| q.curves = q.curves.iter().map(stand_in).collect());
        let per = p.budget / p.costs.iter().sum::<f64>();
        prop_assert_eq!(check(&all_flat), vec![per; p.n()]);
        let one_flat = with(&|q| q.curves[0] = stand_in(&q.curves[0]));
        prop_assert_eq!(check(&one_flat)[0], 0.0);
    }

    #[test]
    fn sensitivity_is_the_budget_multiplier(p in arb_any_lambda(2..6)) {
        let rep = budget_sensitivity(&p);
        let (d, theta) = solve(&p);
        prop_assert_eq!(rep.marginal_value, -theta);
        prop_assert_eq!(&rep.allocation, &d);
        let h = 1e-4 * p.budget;
        let fd = (optimum_at(&p, p.budget + h) - optimum_at(&p, p.budget - h)) / (2.0 * h);
        prop_assert!(
            (fd - rep.marginal_value).abs() <= 1e-3 * rep.marginal_value.abs(),
            "finite difference {fd} vs marginal value {}",
            rep.marginal_value
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sensitivity_marginal_value_is_nonpositive(p in arb_problem(1.0)) {
        let rep = budget_sensitivity(&p);
        prop_assert!(rep.marginal_value <= 0.0, "extra budget cannot hurt: {}", rep.marginal_value);
        prop_assert_eq!(rep.allocation.len(), p.n());
    }

    #[test]
    fn overlap_identity_matches_partition_solver(p in arb_any_lambda(2..6)) {
        // The projected loop on identity membership: feasible, never
        // better than the exact optimum, and close to it.
        let d_ov = solve_overlap(&OverlapProblem::from_partition(&p));
        prop_assert!(p.is_feasible(&d_ov, 1e-6), "{d_ov:?}");
        let (fo, fe) = (p.objective(&d_ov), p.objective(&solve(&p).0));
        prop_assert!(fo >= fe - 1e-9 * fe.abs(), "projected {fo} beats exact {fe}");
        prop_assert!(fo <= fe + 5e-3 * fe.abs(), "projected {fo} vs exact {fe}");
    }

    #[test]
    fn overlap_solution_feasible_and_beats_uniform(
        p in arb_problem(1.0),
        share in 0usize..3,
    ) {
        // Random overlap: add one shared atom that belongs to every slice.
        let n = p.n();
        let m = n + 1;
        let mut membership: Vec<Vec<bool>> =
            (0..n).map(|i| (0..m).map(|j| j == i).collect()).collect();
        for row in membership.iter_mut() {
            row[n] = true; // the shared atom
        }
        let mut atom_costs = p.costs.clone();
        atom_costs.push(0.8 + share as f64 * 0.6);
        let ov = OverlapProblem::new(
            p.curves.clone(),
            p.sizes.clone(),
            membership,
            atom_costs.clone(),
            p.budget,
            p.lambda,
        );
        let d = solve_overlap(&ov);
        prop_assert!(ov.is_feasible(&d, 1e-5), "{d:?}");
        let per = ov.budget / atom_costs.iter().sum::<f64>();
        let uniform = vec![per; m];
        prop_assert!(ov.objective(&d) <= ov.objective(&uniform) + 1e-7);
    }
}
