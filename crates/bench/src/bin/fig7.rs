//! Figure 7: influence (loss change) on the other UTKFace slices as more
//! data is acquired only for White_Male, plotted against the change of the
//! imbalance ratio.
//!
//! Expected shape: magnitudes grow with the imbalance-ratio change; the
//! content-similar slice (White_Female, same race cluster) trends *down*
//! while dissimilar slices trend up.

use slice_tuner::influence_sweep;
use st_bench::{quick, rule};
use st_data::{families, SliceId};
use st_models::{ModelSpec, TrainConfig};

fn main() {
    let family = families::faces();
    // Paper protocol: all slices size 300, White_Male starts at 50 and
    // grows alone.
    let mut sizes = vec![300; 8];
    sizes[0] = 50;
    let steps: Vec<usize> = if quick() {
        vec![250, 950]
    } else {
        vec![250, 550, 950, 1450, 2050, 2950]
    };
    let trials = if quick() { 1 } else { st_bench::trials() };

    let train = TrainConfig {
        epochs: if quick() { 8 } else { 20 },
        ..Default::default()
    };

    let sweep = influence_sweep(
        &family,
        &sizes,
        SliceId(0),
        &steps,
        300,
        &ModelSpec::basic(),
        &train,
        trials,
        2021,
    );

    println!("Figure 7: influence on other slices while growing White_Male (start 50)\n");
    print!("{:<16}", "IR change");
    for p in &sweep.points {
        print!("{:>9.2}", p.ir_change);
    }
    println!();
    rule(16 + 9 * sweep.points.len());
    for (i, name) in sweep.slice_names.iter().enumerate().skip(1) {
        print!("{name:<16}");
        for p in &sweep.points {
            print!("{:>9.3}", p.influence[i]);
        }
        println!();
    }
    print!("{:<16}", "White_Male(own)");
    for p in &sweep.points {
        print!("{:>9.3}", p.influence[0]);
    }
    println!();

    // Summarize the two paper claims numerically.
    let last = sweep.points.last().expect("at least one step");
    let first = &sweep.points[0];
    let mag = |p: &slice_tuner::InfluencePoint| -> f64 {
        p.influence[1..].iter().map(|x| x.abs()).sum::<f64>() / (p.influence.len() - 1) as f64
    };
    println!(
        "\nmean |influence| grows with IR change: {:.3} (ΔIR {:.1}) -> {:.3} (ΔIR {:.1})",
        mag(first),
        first.ir_change,
        mag(last),
        last.ir_change
    );
    println!(
        "content-similar White_Female influence at max ΔIR: {:+.3} (paper: negative)",
        last.influence[1]
    );
}
