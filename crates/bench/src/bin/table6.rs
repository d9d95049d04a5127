//! Table 6: Moderate vs the Uniform and Water-filling baselines under the
//! three initial-size settings (Basic / Bad for Uniform / Bad for Water
//! filling), with λ = 0.1 like the paper.

use slice_tuner::{Setting, Strategy, TSchedule};
use st_bench::{rule, run_cell, trials, FamilySetup};

fn main() {
    let settings = [
        Setting::Basic,
        Setting::BadForUniform,
        Setting::BadForWaterFilling,
    ];
    let methods = [
        ("Uni", Strategy::Uniform),
        ("WF", Strategy::WaterFilling),
        ("Mod", Strategy::Iterative(TSchedule::moderate())),
    ];
    let trials = trials();

    println!("Table 6: Moderate vs baselines under three settings (λ = 0.1, {trials} trials)\n");
    for setup in FamilySetup::all() {
        // Paper: B = 3K for image datasets, 300 for AdultCensus.
        let budget = if setup.label == "AdultCensus" {
            300.0
        } else {
            3000.0
        };
        let budget = if st_bench::quick() {
            budget / 4.0
        } else {
            budget
        };
        println!("== {} (B = {budget}) ==", setup.label);
        println!(
            "{:<24} {:<5} {:>16} {:>16} {:>9}",
            "Setting", "Alg", "Loss", "Avg EER", "(iters)"
        );
        rule(74);
        for setting in &settings {
            let sizes = setting.initial_sizes(&setup.family, setup.initial, 6);
            for (name, strategy) in &methods {
                let cfg = setup.config(3).with_lambda(0.1);
                let agg = run_cell(
                    &setup.family,
                    &sizes,
                    setup.validation,
                    budget,
                    *strategy,
                    &cfg,
                    trials,
                );
                let iters = if matches!(strategy, Strategy::Iterative(_)) {
                    format!("({:.0})", agg.iterations)
                } else {
                    String::new()
                };
                println!(
                    "{:<24} {:<5} {:>7.3} ± {:<6.3} {:>7.3} ± {:<6.3} {:>9}",
                    setting.name(),
                    name,
                    agg.loss.mean,
                    agg.loss.std,
                    agg.avg_eer.mean,
                    agg.avg_eer.std,
                    iters
                );
            }
        }
        println!();
    }
    println!("(paper shape: Mod ≤ both baselines everywhere; Uniform suffers most in");
    println!(" 'Bad for Uniform'; Water filling suffers most in 'Bad for Water filling')");
}
