//! Validation of the model substitution: do per-slice learning curves look
//! the same under a real CNN as under the MLP stand-in?
//!
//! The paper trains small CNNs; the main experiments here use MLPs because
//! Slice Tuner only consumes per-slice losses. This bin trains *both* model
//! families on the synthetic image dataset at growing subset sizes, fits
//! power laws per slice, and reports (a) the fit quality for each model and
//! (b) the Spearman rank correlation between the two models' per-slice
//! decay exponents. High rank agreement means the optimizer would make the
//! same relative acquisition decisions either way — which is exactly what
//! the substitution needs to preserve.

use st_bench::rule;
use st_curve::{fit_power_law, CurvePoint};
use st_data::{image_fashion, seeded_rng, Example, SliceId};
use st_linalg::spearman;
use st_models::{
    examples_to_matrix, labels_of, log_loss_of, log_loss_packed_scratch, train, ConvEvalScratch,
    ConvNet, ConvTrainConfig, EvalScratch, ImageShape, ModelSpec, TrainConfig,
};

const SHAPE: ImageShape = ImageShape {
    channels: 1,
    height: 8,
    width: 8,
};

fn main() {
    let fam = image_fashion();
    let sizes = if st_bench::quick() {
        vec![30usize, 60, 120]
    } else {
        vec![30, 60, 120, 240]
    };
    let val_per_slice = 120;
    let mut rng = seeded_rng(5);

    // Fixed validation sets per slice — gathered into dense matrices
    // **once** here instead of once per (size × repeat × slice) loop
    // iteration below (the bench-side analog of the estimator's cached
    // validation matrices).
    let validation: Vec<Vec<Example>> = (0..fam.num_slices())
        .map(|s| fam.sample_slice(SliceId(s), val_per_slice, &mut rng))
        .collect();
    let val_mats: Vec<(st_linalg::Matrix, Vec<usize>)> = validation
        .iter()
        .map(|v| (examples_to_matrix(v), labels_of(v)))
        .collect();

    // Measured (n, loss) points per slice for both model families.
    let mut mlp_points: Vec<Vec<CurvePoint>> = vec![Vec::new(); fam.num_slices()];
    let mut cnn_points: Vec<Vec<CurvePoint>> = vec![Vec::new(); fam.num_slices()];

    // Average the measured losses over several independent trainings per
    // size — the same variance-reduction move as the paper's "draw multiple
    // curves and average them" (Section 4.1).
    let repeats = if st_bench::quick() { 2 } else { 4 };
    // Pack each trained model once and reuse one scratch per family across
    // every (size × repeat × slice) evaluation — the snapshot-native eval
    // path the estimator uses (docs/kernels.md "Prepacked operands").
    let mut mlp_scratch = EvalScratch::default();
    let mut cnn_scratch = ConvEvalScratch::default();
    for &n in &sizes {
        let mut mlp_loss = vec![0.0; fam.num_slices()];
        let mut cnn_loss = vec![0.0; fam.num_slices()];
        for rep in 0..repeats {
            let mut train_set = Vec::new();
            for s in 0..fam.num_slices() {
                train_set.extend(fam.sample_slice(SliceId(s), n, &mut rng));
            }
            let x = examples_to_matrix(&train_set);
            let y = labels_of(&train_set);

            let mlp_cfg = TrainConfig {
                epochs: 15,
                seed: rep as u64,
                ..TrainConfig::default()
            };
            let mlp = train(
                &x,
                &y,
                SHAPE.flat_len(),
                fam.num_classes,
                &ModelSpec::basic(),
                &mlp_cfg,
            );
            let conv_cfg = ConvTrainConfig {
                epochs: 15,
                filters: 6,
                seed: rep as u64,
                ..Default::default()
            };
            let cnn = ConvNet::train(&x, &y, SHAPE, fam.num_classes, &conv_cfg);

            let mlp_packed = mlp.packed();
            let cnn_packed = cnn.packed();
            for (s, (vx, vy)) in val_mats.iter().enumerate() {
                mlp_loss[s] +=
                    log_loss_packed_scratch(&mlp_packed, vx, vy, &mut mlp_scratch) / repeats as f64;
                cnn_loss[s] +=
                    cnn_packed.log_loss_scratch(vx, vy, &mut cnn_scratch) / repeats as f64;
            }
        }
        for s in 0..fam.num_slices() {
            mlp_points[s].push(CurvePoint::size_weighted(n as f64, mlp_loss[s]));
            cnn_points[s].push(CurvePoint::size_weighted(n as f64, cnn_loss[s]));
        }
    }

    println!("CNN vs MLP learning-curve agreement (image-fashion, sizes {sizes:?})\n");
    println!(
        "{:<12} {:>10} {:>10} {:>10} {:>10}",
        "slice", "MLP b", "MLP a", "CNN b", "CNN a"
    );
    rule(56);
    let mut mlp_a = Vec::new();
    let mut cnn_a = Vec::new();
    for s in 0..fam.num_slices() {
        let m = fit_power_law(&mlp_points[s]);
        let c = fit_power_law(&cnn_points[s]);
        match (m, c) {
            (Ok(m), Ok(c)) => {
                println!(
                    "{:<12} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
                    fam.slices[s].name, m.b, m.a, c.b, c.a
                );
                mlp_a.push(m.a);
                cnn_a.push(c.a);
            }
            _ => println!("{:<12} (fit failed)", fam.slices[s].name),
        }
    }

    if mlp_a.len() >= 3 {
        let rho = spearman(&mlp_a, &cnn_a);
        println!("\nSpearman rank correlation of decay exponents: {rho:.3}");
        println!("(expected shape: ρ well above 0 — the MLP ranks slice cost-benefits like");
        println!(" the CNN does, so the optimizer's relative decisions are preserved)");
    }

    // Sanity anchor: the CNN really is the better image model.
    let mut rng2 = seeded_rng(9);
    let mut big = Vec::new();
    for s in 0..fam.num_slices() {
        big.extend(fam.sample_slice(SliceId(s), 200, &mut rng2));
    }
    let x = examples_to_matrix(&big);
    let y = labels_of(&big);
    let mlp = train(
        &x,
        &y,
        SHAPE.flat_len(),
        fam.num_classes,
        &ModelSpec::basic(),
        &TrainConfig {
            epochs: 15,
            ..TrainConfig::default()
        },
    );
    let cnn = ConvNet::train(
        &x,
        &y,
        SHAPE,
        fam.num_classes,
        &ConvTrainConfig {
            epochs: 15,
            filters: 6,
            ..Default::default()
        },
    );
    let vx = examples_to_matrix(&validation.concat());
    let vy: Vec<usize> = validation.concat().iter().map(|e| e.label).collect();
    println!(
        "\nAt 200/slice: CNN val loss {:.3} vs MLP val loss {:.3} ({} vs {} params)",
        log_loss_of(&cnn, &vx, &vy),
        log_loss_of(&mlp, &vx, &vy),
        cnn.num_params(),
        mlp.num_params()
    );
}
