//! Tables 10 and 11 (Appendix C): the method comparison when initial slice
//! sizes follow the paper's decaying ("exponential") distribution instead of
//! being equal.

use slice_tuner::{Strategy, TSchedule};
use st_bench::{fmt_counts, rule, run_cell, trials, FamilySetup};
use st_data::decaying_sizes;

fn main() {
    let methods = [
        ("One-shot", Strategy::OneShot),
        ("Aggressive", Strategy::Iterative(TSchedule::aggressive())),
        ("Moderate", Strategy::Iterative(TSchedule::moderate())),
        (
            "Conservative",
            Strategy::Iterative(TSchedule::conservative()),
        ),
    ];
    let trials = trials();

    println!("Table 10: methods with decaying initial slice sizes ({trials} trials)");
    println!(
        "{:<14} {:<14} {:>8} {:>10} {:>10}",
        "Dataset", "Method", "Loss", "Avg EER", "Max EER"
    );
    rule(60);

    let mut table11: Vec<(String, Vec<usize>, Vec<(String, Vec<f64>, f64)>)> = Vec::new();
    for setup in FamilySetup::all() {
        // Paper's Appendix C bases: Fashion 400, Mixed 600, UTKFace 400,
        // AdultCensus 150 (the first slice's size).
        let base = match setup.label {
            "Fashion-MNIST" => 400,
            "Mixed-MNIST" => 600,
            "UTKFace" => 400,
            _ => 150,
        };
        let sizes = decaying_sizes(setup.family.num_slices(), base);
        let budget = setup.scaled_budget();

        let orig = run_cell(
            &setup.family,
            &sizes,
            setup.validation,
            0.0,
            Strategy::Uniform,
            &setup.config(10),
            trials,
        );
        println!(
            "{:<14} {:<14} {:>8.3} {:>10.3} {:>10.3}",
            setup.label,
            "Original",
            orig.original_loss.mean,
            orig.original_avg_eer.mean,
            orig.original_max_eer.mean
        );
        let mut rows = Vec::new();
        for (name, strategy) in &methods {
            let agg = run_cell(
                &setup.family,
                &sizes,
                setup.validation,
                budget,
                *strategy,
                &setup.config(10),
                trials,
            );
            println!(
                "{:<14} {:<14} {:>8.3} {:>10.3} {:>10.3}",
                setup.label, name, agg.loss.mean, agg.avg_eer.mean, agg.max_eer.mean
            );
            rows.push((name.to_string(), agg.acquired_mean.clone(), agg.iterations));
        }
        rule(60);
        table11.push((format!("{} (B = {budget})", setup.label), sizes, rows));
    }

    println!("\nTable 11: initial sizes and acquisitions per slice");
    for (label, sizes, rows) in &table11 {
        println!("\n== {label} ==");
        let as_f: Vec<f64> = sizes.iter().map(|&s| s as f64).collect();
        println!("{:<14} {}", "Original", fmt_counts(&as_f));
        for (name, counts, iters) in rows {
            println!("{name:<14} {}  ({iters:.1} iters)", fmt_counts(counts));
        }
    }
}
