//! `ST_FAULT` injection into the power-law fitter.
//!
//! An installed fault plan is process-global, so this test lives in a test
//! binary of its own: a `fit_diverge@1.0` plan would make every fit that
//! runs alongside it in a shared binary diverge.

use st_curve::{fit_power_law, CurvePoint, FitError};
use st_linalg::fault;

#[test]
fn injected_divergence_is_typed_and_deterministic() {
    let pts: Vec<CurvePoint> = [10.0, 30.0, 60.0, 100.0]
        .iter()
        .map(|&x: &f64| CurvePoint::size_weighted(x, 2.9 * x.powf(-0.21)))
        .collect();
    fault::install(Some(fault::parse_plan("fit_diverge@1.0").unwrap()));
    assert_eq!(fit_power_law(&pts), Err(FitError::Diverged));
    assert_eq!(fit_power_law(&pts), Err(FitError::Diverged), "reproducible");
    // Order-independent hash: shuffled points make the same decision.
    let mut rev = pts.clone();
    rev.reverse();
    assert_eq!(fit_power_law(&rev), Err(FitError::Diverged));
    fault::install(None);
    assert!(fit_power_law(&pts).is_ok());
}
