//! Tables 2 and 3: Slice Tuner method comparison on the four datasets
//! (loss, avg/max EER) plus the per-slice acquisition counts and iteration
//! counts behind them.

use slice_tuner::{Strategy, TSchedule};
use st_bench::{fmt_counts, rule, run_cell, trials, FamilySetup};

fn main() {
    let methods = [
        ("Original", None),
        ("One-shot", Some(Strategy::OneShot)),
        (
            "Aggressive",
            Some(Strategy::Iterative(TSchedule::aggressive())),
        ),
        ("Moderate", Some(Strategy::Iterative(TSchedule::moderate()))),
        (
            "Conservative",
            Some(Strategy::Iterative(TSchedule::conservative())),
        ),
    ];
    let trials = trials();

    println!("Table 2: Slice Tuner methods comparison ({trials} trials)");
    println!(
        "{:<14} {:<14} {:>8} {:>10} {:>10}",
        "Dataset", "Method", "Loss", "Avg EER", "Max EER"
    );
    rule(60);

    let mut table3: Vec<(String, Vec<(String, Vec<f64>, f64)>)> = Vec::new();

    for setup in FamilySetup::all() {
        let sizes = setup.equal_sizes();
        let budget = setup.scaled_budget();
        let mut rows = Vec::new();
        for (name, strategy) in &methods {
            match strategy {
                None => {
                    // "Original": evaluate with zero budget via any strategy.
                    let agg = run_cell(
                        &setup.family,
                        &sizes,
                        setup.validation,
                        0.0,
                        Strategy::Uniform,
                        &setup.config(1),
                        trials,
                    );
                    println!(
                        "{:<14} {:<14} {:>8.3} {:>10.3} {:>10.3}",
                        setup.label,
                        name,
                        agg.original_loss.mean,
                        agg.original_avg_eer.mean,
                        agg.original_max_eer.mean
                    );
                }
                Some(s) => {
                    let agg = run_cell(
                        &setup.family,
                        &sizes,
                        setup.validation,
                        budget,
                        *s,
                        &setup.config(1),
                        trials,
                    );
                    println!(
                        "{:<14} {:<14} {:>8.3} {:>10.3} {:>10.3}",
                        setup.label, name, agg.loss.mean, agg.avg_eer.mean, agg.max_eer.mean
                    );
                    rows.push((name.to_string(), agg.acquired_mean.clone(), agg.iterations));
                }
            }
        }
        rule(60);
        table3.push((format!("{} (B = {})", setup.label, budget), rows));
    }

    println!("\nTable 3: data acquired per slice and iteration counts");
    for (label, rows) in &table3 {
        println!("\n== {label} ==");
        for (name, counts, iters) in rows {
            println!("{name:<14} {}  ({iters:.1} iters)", fmt_counts(counts));
        }
    }
}
