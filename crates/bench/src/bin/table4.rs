//! Tables 4 and 5: the λ accuracy–fairness tradeoff with the Moderate
//! method, and the per-slice acquisitions behind the Fashion-MNIST rows.

use slice_tuner::{Strategy, TSchedule};
use st_bench::{fmt_counts, rule, run_cell, trials, FamilySetup};

fn main() {
    let lambdas = [0.0, 0.1, 1.0, 10.0];
    let trials = trials();

    println!("Table 4: Moderate with varying λ ({trials} trials)");
    println!(
        "{:<14} {:>6} {:>8} {:>10} {:>10}",
        "Dataset", "λ", "Loss", "Avg EER", "Max EER"
    );
    rule(52);

    let mut table5: Vec<(f64, Vec<f64>)> = Vec::new();
    for setup in FamilySetup::all() {
        let sizes = setup.equal_sizes();
        let budget = setup.scaled_budget();
        for &lambda in &lambdas {
            let cfg = setup.config(2).with_lambda(lambda);
            let agg = run_cell(
                &setup.family,
                &sizes,
                setup.validation,
                budget,
                Strategy::Iterative(TSchedule::moderate()),
                &cfg,
                trials,
            );
            println!(
                "{:<14} {:>6} {:>8.3} {:>10.3} {:>10.3}",
                setup.label, lambda, agg.loss.mean, agg.avg_eer.mean, agg.max_eer.mean
            );
            if setup.label == "Fashion-MNIST" {
                table5.push((lambda, agg.acquired_mean.clone()));
            }
        }
        rule(52);
    }

    println!("\nTable 5: Fashion-MNIST acquisitions per slice across λ");
    for (lambda, counts) in &table5 {
        println!("λ = {lambda:<5} {}", fmt_counts(counts));
    }
    println!("\n(paper trend: higher λ lowers avg/max EER, raises loss, and concentrates");
    println!(" acquisition on the high-loss slices)");
}
