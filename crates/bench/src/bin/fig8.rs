//! Figure 8: fitted learning curves for two slices of each dataset.
//!
//! For each family we subsample the initial data at K sizes, fit power-law
//! curves with the paper's weighted NLLS, and print both the raw points and
//! the fitted `y = b·x^(-a)` for two contrasting slices.

use slice_tuner::{PoolSource, SliceTuner};
use st_bench::FamilySetup;
use st_data::SlicedDataset;

fn main() {
    println!("Figure 8: learning curves (two slices per dataset)\n");
    for setup in FamilySetup::all() {
        let ds = SlicedDataset::generate(
            &setup.family,
            &vec![300; setup.family.num_slices()],
            setup.validation,
            88,
        );
        let mut src = PoolSource::new(setup.family.clone(), 88);
        let mut cfg = setup.config(88);
        cfg.fractions = (1..=10).map(|i| i as f64 / 10.0).collect();
        cfg.repeats = if st_bench::quick() { 1 } else { 3 };
        let tuner = SliceTuner::new(ds, &mut src, cfg);
        let curves = tuner.estimate_curves(0);

        // Pick the steepest and shallowest slices — the contrast the paper
        // highlights (e.g. Sandal vs Digit-0).
        let mut order: Vec<usize> = (0..curves.len()).collect();
        order.sort_by(|&i, &j| curves[i].a.partial_cmp(&curves[j].a).expect("finite"));
        let flat = order[0];
        let steep = *order.last().expect("nonempty");

        println!("== {} ==", setup.label);
        for &s in &[steep, flat] {
            let name = setup.family.slice_names()[s];
            let c = &curves[s];
            println!("  slice {name:<14} y = {:.3}x^(-{:.3})", c.b, c.a);
            let preds: Vec<String> = [30.0, 100.0, 200.0, 300.0]
                .iter()
                .map(|&n| format!("loss({n:.0})={:.3}", c.eval(n)))
                .collect();
            println!("    {}", preds.join("  "));
        }
        println!();
    }
    println!("paper reference fits:");
    println!("  Fashion-MNIST  Shirt: 2.894x^-0.204      Pullover: 2.035x^-0.195");
    println!("  Mixed-MNIST    Sandal: 1.875x^-0.446     Digit 0: 2.592x^-0.928");
    println!("  UTKFace        White-Male: 2.273x^-0.199 Black-Female: 3.502x^-0.314");
    println!("  AdultCensus    Black-Male: 0.447x^-0.060 White-Female: 0.356x^-0.097");
}
