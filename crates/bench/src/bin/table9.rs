//! Table 9 (Appendix B): the ResNet-18 stand-in — an overparameterized
//! model on Fashion-MNIST. Absolute losses rise (the model is too big for
//! the data), but the method ranking is unchanged.

use slice_tuner::{Strategy, TSchedule};
use st_bench::{rule, run_cell, trials, FamilySetup};
use st_models::ModelSpec;

fn main() {
    let mut setup = FamilySetup::fashion();
    setup.spec = ModelSpec::deep();
    let init = 400usize;
    let budget = if st_bench::quick() { 750.0 } else { 3000.0 };
    let trials = trials();

    println!(
        "Table 9: overparameterized model ({}) on Fashion-MNIST (init {init}, B = {budget}, {trials} trials)\n",
        setup.spec.repr()
    );
    println!(
        "{:<14} {:>8} {:>10} {:>10}",
        "Method", "Loss", "Avg EER", "Max EER"
    );
    rule(46);

    let cfg = setup.config(9);
    let orig = run_cell(
        &setup.family,
        &[init; 10],
        setup.validation,
        0.0,
        Strategy::Uniform,
        &cfg,
        trials,
    );
    println!(
        "{:<14} {:>8.3} {:>10.3} {:>10.3}",
        "Original", orig.original_loss.mean, orig.original_avg_eer.mean, orig.original_max_eer.mean
    );
    for (name, strategy) in [
        ("Uniform", Strategy::Uniform),
        ("Water filling", Strategy::WaterFilling),
        ("Moderate", Strategy::Iterative(TSchedule::moderate())),
    ] {
        let agg = run_cell(
            &setup.family,
            &[init; 10],
            setup.validation,
            budget,
            strategy,
            &cfg,
            trials,
        );
        println!(
            "{name:<14} {:>8.3} {:>10.3} {:>10.3}",
            agg.loss.mean, agg.avg_eer.mean, agg.max_eer.mean
        );
    }
    println!("\n(paper shape: same ranking as Table 6's basic setting, higher absolute losses)");
}
