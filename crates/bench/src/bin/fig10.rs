//! Figure 10: loss and avg-EER versus budget on Mixed-MNIST, comparing
//! Moderate against Uniform and Water filling (basic setting).

use slice_tuner::{Strategy, TSchedule};
use st_bench::{rule, run_cell, trials, FamilySetup};

fn main() {
    let setup = FamilySetup::mixed();
    let sizes = setup.equal_sizes();
    let budgets: Vec<f64> = if st_bench::quick() {
        vec![500.0, 1500.0]
    } else {
        vec![1000.0, 2000.0, 3000.0, 4000.0, 5000.0]
    };
    let methods = [
        ("Uniform", Strategy::Uniform),
        ("Water filling", Strategy::WaterFilling),
        ("Moderate", Strategy::Iterative(TSchedule::moderate())),
    ];
    let trials = trials();

    println!("Figure 10: budget sweep on Mixed-MNIST ({trials} trials)\n");
    println!(
        "{:<16} {:>8} {:>10} {:>10}",
        "Method", "Budget", "Loss", "Avg EER"
    );
    rule(48);
    for (name, strategy) in &methods {
        for &b in &budgets {
            let agg = run_cell(
                &setup.family,
                &sizes,
                setup.validation,
                b,
                *strategy,
                &setup.config(4).with_lambda(1.0),
                trials,
            );
            println!(
                "{name:<16} {b:>8.0} {:>10.3} {:>10.3}",
                agg.loss.mean, agg.avg_eer.mean
            );
        }
        rule(48);
    }
    println!("(paper shape: Moderate dominates both baselines at every budget; the");
    println!(" unfairness gap is larger than the loss gap)");
}
