//! Property-based tests for the curve fitter.

use proptest::prelude::*;
use st_curve::{fit_power_law, fit_power_law_with_floor, CurvePoint, PowerLaw};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exact_curves_are_recovered(b in 0.2f64..8.0, a in 0.05f64..1.0) {
        let xs = [15.0, 40.0, 90.0, 160.0, 250.0, 400.0];
        let pts: Vec<CurvePoint> =
            xs.iter().map(|&x| CurvePoint::size_weighted(x, b * x.powf(-a))).collect();
        let fit = fit_power_law(&pts).unwrap();
        prop_assert!((fit.b - b).abs() < 1e-3 * b.max(1.0), "b {} vs {b}", fit.b);
        prop_assert!((fit.a - a).abs() < 1e-4, "a {} vs {a}", fit.a);
    }

    #[test]
    fn fit_is_scale_equivariant(b in 0.5f64..4.0, a in 0.1f64..0.8, scale in 0.5f64..3.0) {
        // Multiplying all losses by s multiplies b by s and leaves a alone.
        let xs = [20.0, 60.0, 120.0, 300.0];
        let base: Vec<CurvePoint> =
            xs.iter().map(|&x| CurvePoint::size_weighted(x, b * x.powf(-a))).collect();
        let scaled: Vec<CurvePoint> = base
            .iter()
            .map(|p| CurvePoint::size_weighted(p.n, p.loss * scale))
            .collect();
        let f1 = fit_power_law(&base).unwrap();
        let f2 = fit_power_law(&scaled).unwrap();
        prop_assert!((f2.a - f1.a).abs() < 1e-6);
        prop_assert!((f2.b / f1.b - scale).abs() < 1e-6 * scale);
    }

    #[test]
    fn fitted_exponent_stays_in_bounds(
        losses in prop::collection::vec(0.01f64..5.0, 4..10),
    ) {
        let pts: Vec<CurvePoint> = losses
            .iter()
            .enumerate()
            .map(|(i, &l)| CurvePoint::size_weighted(10.0 * (i + 1) as f64, l))
            .collect();
        let fit = fit_power_law(&pts).unwrap();
        prop_assert!(fit.a > 0.0 && fit.a <= 4.0);
        prop_assert!(fit.b > 0.0 && fit.b.is_finite());
    }

    #[test]
    fn floor_fit_never_has_higher_cost_than_plain(
        b in 0.5f64..4.0, a in 0.2f64..0.9, c in 0.0f64..0.5,
    ) {
        let xs = [10.0, 30.0, 80.0, 200.0, 500.0, 1000.0];
        let pts: Vec<CurvePoint> =
            xs.iter().map(|&x| CurvePoint::size_weighted(x, b * x.powf(-a) + c)).collect();
        let plain = fit_power_law(&pts).unwrap();
        let floored = fit_power_law_with_floor(&pts).unwrap();
        let cost = |f: &dyn Fn(f64) -> f64| -> f64 {
            pts.iter().map(|p| p.weight * (f(p.n) - p.loss).powi(2)).sum()
        };
        // The floor family contains the plain family (c = 0 is on the grid).
        prop_assert!(
            cost(&|n| floored.eval(n)) <= cost(&|n| plain.eval(n)) + 1e-9,
        );
    }

    #[test]
    fn log_mean_is_between_extremes(
        b1 in 0.5f64..4.0, a1 in 0.1f64..0.9,
        b2 in 0.5f64..4.0, a2 in 0.1f64..0.9,
    ) {
        let m = PowerLaw::log_mean(&[PowerLaw::new(b1, a1), PowerLaw::new(b2, a2)]);
        prop_assert!(m.a >= a1.min(a2) - 1e-12 && m.a <= a1.max(a2) + 1e-12);
        prop_assert!(m.b >= b1.min(b2) - 1e-9 && m.b <= b1.max(b2) + 1e-9);
    }

    #[test]
    fn eval_monotone_nonincreasing(b in 0.1f64..10.0, a in 0.01f64..2.0,
                                   n1 in 1.0f64..1e5, n2 in 1.0f64..1e5) {
        let c = PowerLaw::new(b, a);
        let (lo, hi) = if n1 <= n2 { (n1, n2) } else { (n2, n1) };
        prop_assert!(c.eval(lo) >= c.eval(hi));
    }

    #[test]
    fn examples_for_loss_round_trips(b in 0.5f64..5.0, a in 0.1f64..1.0, n in 10.0f64..1e4) {
        let c = PowerLaw::new(b, a);
        let loss = c.eval(n);
        let back = c.examples_for_loss(loss).unwrap();
        prop_assert!((back - n).abs() < 1e-6 * n);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn zoo_winner_never_loses_to_the_dedicated_power_law_fit(
        b in 0.3f64..5.0,
        a in 0.08f64..0.9,
        noise in 0.0f64..0.08,
    ) {
        // The AIC winner's weighted SSE can be at most the plain power law's
        // (pow2 is in the menu, and AIC only reorders equal-k fits by SSE).
        let xs = [15.0, 40.0, 90.0, 160.0, 250.0, 400.0];
        let pts: Vec<CurvePoint> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let wobble = 1.0 + noise * ((i as f64 * 2.7).sin());
                CurvePoint::size_weighted(x, b * x.powf(-a) * wobble)
            })
            .collect();
        let best = st_curve::fit_best(&pts).unwrap();
        let pow = st_curve::fit_family(&pts, st_curve::CurveFamily::PowerLaw).unwrap();
        prop_assert!(best.wsse <= pow.wsse + 1e-9, "winner {} vs pow {}", best.wsse, pow.wsse);
    }

    #[test]
    fn zoo_fits_are_deterministic(
        b in 0.3f64..3.0,
        a in 0.1f64..0.8,
    ) {
        let xs = [20.0, 60.0, 150.0, 400.0];
        let pts: Vec<CurvePoint> =
            xs.iter().map(|&x| CurvePoint::size_weighted(x, b * x.powf(-a) + 0.1)).collect();
        let f1 = st_curve::fit_best(&pts).unwrap();
        let f2 = st_curve::fit_best(&pts).unwrap();
        prop_assert_eq!(f1, f2);
    }

    #[test]
    fn bootstrap_bands_contain_the_point_fit(
        b in 0.5f64..3.0,
        a in 0.1f64..0.7,
        seed in 0u64..500,
    ) {
        let xs = [20.0, 50.0, 100.0, 200.0, 350.0];
        let pts: Vec<CurvePoint> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let wobble = 1.0 + 0.05 * ((i as f64 + seed as f64) * 1.9).sin();
                CurvePoint::size_weighted(x, b * x.powf(-a) * wobble)
            })
            .collect();
        let bands = st_curve::bootstrap_curve(&pts, 100, 0.95, seed).unwrap();
        prop_assert!(bands.b_interval().lo <= bands.b_interval().hi);
        prop_assert!(bands.a_interval().lo <= bands.a_interval().hi);
        let iv = bands.loss_interval(500.0);
        prop_assert!(iv.lo <= iv.hi);
    }
}
