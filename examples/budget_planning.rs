//! Budget planning with sensitivity analysis.
//!
//! ```sh
//! cargo run --release --example budget_planning
//! ```
//!
//! Before spending crowdsourcing money, a practitioner wants to know: what
//! is another unit of budget worth, where would it go, and when do returns
//! flatten? This example estimates learning curves once, then interrogates
//! the acquisition program directly — no data is acquired.

use slice_tuner::{PoolSource, SliceTuner, TunerConfig};
use st_data::{families, SlicedDataset};
use st_models::ModelSpec;
use st_optim::{budget_curve, budget_sensitivity, AcquisitionProblem};

fn main() {
    // UTKFace analog: 8 face slices with real Table 1 costs.
    let family = families::faces();
    let dataset = SlicedDataset::generate(&family, &[300; 8], 300, 21);
    let mut pool = PoolSource::new(family.clone(), 21);
    let config = TunerConfig::new(ModelSpec::basic()).with_seed(21);
    let tuner = SliceTuner::new(dataset, &mut pool, config);

    println!(
        "estimating learning curves ({} slices)...",
        family.num_slices()
    );
    let curves = tuner.estimate_curves(0);
    for (name, c) in family.slice_names().iter().zip(&curves) {
        println!("  {name:<14} y = {:.3}·x^(-{:.3})", c.b, c.a);
    }

    let sizes: Vec<f64> = tuner
        .dataset()
        .train_sizes()
        .iter()
        .map(|&s| s as f64)
        .collect();
    let problem = AcquisitionProblem::new(curves, sizes, tuner.dataset().costs(), 3000.0, 1.0);

    // Where would the next unit of budget go at B = 3000?
    let report = budget_sensitivity(&problem);
    println!("\nat B = 3000:");
    println!(
        "  marginal objective value: {:.6} per budget unit",
        report.marginal_value
    );
    println!(
        "  {:<14} {:>12} {:>14}",
        "slice", "allocation", "next-unit share"
    );
    for (i, name) in family.slice_names().iter().enumerate() {
        println!(
            "  {name:<14} {:>12.0} {:>14.3}",
            report.allocation[i],
            report.allocation_gradient[i] * problem.costs[i]
        );
    }

    // How fast do returns flatten?
    let budgets = [500.0, 1000.0, 2000.0, 4000.0, 8000.0, 16000.0];
    let sweep = budget_curve(&problem, &budgets);
    println!("\nobjective vs budget (diminishing returns):");
    let mut prev: Option<(f64, f64)> = None;
    for (b, f) in sweep {
        let rate = prev
            .map(|(pb, pf)| format!("{:+.6}/unit", (f - pf) / (b - pb)))
            .unwrap_or_else(|| "-".into());
        println!("  B = {b:<8.0} objective = {f:.4}   marginal {rate}");
        prev = Some((b, f));
    }
    println!("\n(the marginal column shrinking toward zero is the 'plateau' of Figure 5 —");
    println!(" the point where further acquisition is not worth the crowdsourcing effort)");
}
