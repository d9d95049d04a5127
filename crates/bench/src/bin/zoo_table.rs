//! Re-verification of the paper's curve-model claim (Section 4.1): "a
//! power-law curve fits as well as any other curve" (citing Domhan et al.'s
//! 11-model comparison).
//!
//! Measures real per-slice learning-curve points on two dataset families,
//! fits the whole parametric zoo to each slice, and prints the AIC ranking.
//! The power law (or its floor variant) should sit at or near the top on
//! most slices despite having the fewest parameters.

use slice_tuner::{PoolSource, SliceTuner};
use st_bench::{rule, FamilySetup};
use st_curve::{fit_zoo, CurveFamily, CurvePoint};
use st_data::SlicedDataset;
use std::collections::HashMap;

fn main() {
    let mut wins: HashMap<&'static str, usize> = HashMap::new();
    let mut power_in_top2 = 0usize;
    let mut total = 0usize;

    for setup in [FamilySetup::fashion(), FamilySetup::census()] {
        println!("== {} ==", setup.label);
        println!("{:<10} {:>12} {:>14}", "slice", "winner", "power-law rank");
        rule(40);

        // Measure curve points exactly as the estimator does, but keep the
        // raw (n, loss) pairs so every family sees identical data.
        let ds = SlicedDataset::generate(&setup.family, &setup.equal_sizes(), setup.validation, 11);
        let mut src = PoolSource::new(setup.family.clone(), 11);
        let mut cfg = setup.config(11);
        cfg.fractions = vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];
        cfg.repeats = 2;
        let tuner = SliceTuner::new(ds, &mut src, cfg.clone());

        // estimate_curves fits internally; we want the points, so re-measure
        // with the public measurement API: train on X% of all slices, eval
        // per slice (amortized schedule). The loop rides the dataset's
        // cached dense snapshot — validation matrices gathered once, subsets
        // sampled as row ids, per-slice counts from the sampling pass —
        // instead of re-gathering per iteration.
        let n_slices = setup.family.num_slices();
        let mut points: Vec<Vec<CurvePoint>> = vec![Vec::new(); n_slices];
        let dense = tuner.dataset().matrices();
        let mut scratch = st_models::EvalScratch::default();
        for (k, &frac) in cfg.fractions.iter().enumerate() {
            for r in 0..cfg.repeats {
                let ds = tuner.dataset();
                let subset = ds.joint_train_subset_rows_seeded(frac, (k * 31 + r) as u64 + 1, 0);
                let model = st_models::train_on_rows(
                    &dense.train_x,
                    &dense.train_y,
                    &subset.rows,
                    ds.feature_dim,
                    ds.num_classes,
                    &cfg.spec,
                    &cfg.train.with_seed((k * 7 + r) as u64),
                );
                let packed = model.packed();
                for s in 0..n_slices {
                    let loss = st_models::log_loss_packed_scratch(
                        &packed,
                        &dense.val_x[s],
                        &dense.val_y[s],
                        &mut scratch,
                    );
                    points[s].push(CurvePoint::size_weighted(subset.per_slice[s] as f64, loss));
                }
            }
        }

        for (s, pts) in points.iter().enumerate() {
            let Ok(fits) = fit_zoo(pts, &CurveFamily::ALL) else {
                println!("{:<10} (unfittable)", s);
                continue;
            };
            total += 1;
            let winner = fits[0].family.name();
            *wins.entry(winner).or_default() += 1;
            let rank = fits
                .iter()
                .position(|f| {
                    matches!(f.family, CurveFamily::PowerLaw | CurveFamily::PowerLawFloor)
                })
                .map(|r| r + 1)
                .unwrap_or(usize::MAX);
            if rank <= 2 {
                power_in_top2 += 1;
            }
            println!(
                "{:<10} {:>12} {:>14}",
                setup.family.slices[s].name, winner, rank
            );
        }
        println!();
    }

    println!("Winner counts across {total} slices:");
    let mut rows: Vec<_> = wins.into_iter().collect();
    rows.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    for (name, n) in rows {
        println!("  {name:<10} {n}");
    }
    println!("\nPower law (pow2/pow3) in the AIC top-2 on {power_in_top2}/{total} slices");
    println!("(paper claim: the power law fits as well as any other curve — expect a");
    println!(" large top-2 fraction, not necessarily outright wins on every slice)");
}
