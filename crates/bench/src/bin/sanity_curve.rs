//! Diagnostic: print raw loss-vs-size measurements for each family so the
//! power-law behaviour of the substrate can be eyeballed.

use st_data::{families, SlicedDataset};
use st_models::{
    overall_validation_loss, per_slice_validation_losses, train_on_examples, ModelSpec, TrainConfig,
};

fn main() {
    for (fam, spec) in [
        (families::fashion(), ModelSpec::basic()),
        (
            families::mixed().select_slices(&[10, 11, 12, 13, 14, 0, 2, 4, 6, 8]),
            ModelSpec::basic(),
        ),
        (families::faces(), ModelSpec::basic()),
        (families::census(), ModelSpec::softmax()),
    ] {
        println!("== {} ==", fam.name);
        for &n in &[25usize, 50, 100, 200, 400, 800] {
            let sizes = vec![n; fam.num_slices()];
            let ds = SlicedDataset::generate(&fam, &sizes, 300, 42);
            let cfg = TrainConfig::default();
            let t0 = std::time::Instant::now();
            let model = train_on_examples(
                &ds.all_train(),
                fam.feature_dim,
                fam.num_classes,
                &spec,
                &cfg,
            );
            let dt = t0.elapsed().as_millis();
            let overall = overall_validation_loss(&model, &ds);
            let per = per_slice_validation_losses(&model, &ds);
            let pstr: Vec<String> = per.iter().map(|l| format!("{l:.3}")).collect();
            println!("n={n:4} loss={overall:.4} [{}] ({dt} ms)", pstr.join(" "));
        }
    }
}
