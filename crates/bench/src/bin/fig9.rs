//! Figure 9: how a slice's learning curve drifts as the slice itself grows.
//!
//! We grow one Fashion slice through several sizes; at each size we re-fit
//! the curve from subsets of the *current* data. Curves fitted on small
//! slices deviate most from the large-slice fit — the paper's argument for
//! iterative updates.

use slice_tuner::{PoolSource, SliceTuner};
use st_bench::FamilySetup;
use st_curve::PowerLaw;
use st_data::SlicedDataset;

fn main() {
    let setup = FamilySetup::fashion();
    let sizes = if st_bench::quick() {
        vec![100usize, 400]
    } else {
        vec![100usize, 400, 1000, 2000]
    };
    let probe = 2000.0; // where we compare predictions

    println!("Figure 9: learning-curve drift as the slice grows (Fashion slice 6 = Shirt)\n");
    let mut fits: Vec<(usize, PowerLaw)> = Vec::new();
    for &n in &sizes {
        // Slice 6 has n examples; the others stay at 300 as context.
        let mut init = vec![300; 10];
        init[6] = n;
        let ds = SlicedDataset::generate(&setup.family, &init, setup.validation, 99);
        let mut src = PoolSource::new(setup.family.clone(), 99);
        let mut cfg = setup.config(99);
        cfg.fractions = (1..=8).map(|i| i as f64 / 8.0).collect();
        let tuner = SliceTuner::new(ds, &mut src, cfg);
        let curve = tuner.estimate_curves(n as u64)[6];
        println!(
            "  fitted from {n:>5} examples: y = {:.3}x^(-{:.3})   predicted loss({probe:.0}) = {:.3}",
            curve.b,
            curve.a,
            curve.eval(probe)
        );
        fits.push((n, curve));
    }

    let reference = fits.last().expect("nonempty").1;
    println!("\ndeviation from the largest-slice fit at n = {probe}:");
    for (n, c) in &fits {
        println!(
            "  from {n:>5}: |Δloss| = {:.3}",
            (c.eval(probe) - reference.eval(probe)).abs()
        );
    }
    println!(
        "\n(paper: curves fitted on smaller slices deviate more — motivates iterative updates)"
    );
}
