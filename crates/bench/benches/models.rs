//! Microbench: the model substrate — MLP vs ConvNet training cost, the
//! quantitative side of the reproduction's MLPs standing in for the
//! paper's CNNs (the CNN path exists but costs this much more per
//! training).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use st_data::{image_fashion, seeded_rng, SliceId};
use st_linalg::Matrix;
use st_models::{
    examples_to_matrix, labels_of, train, ConvNet, ConvTrainConfig, ImageShape, ModelSpec,
    TrainConfig,
};
use std::hint::black_box;

fn image_batch(per_slice: usize) -> (Matrix, Vec<usize>) {
    let fam = image_fashion();
    let mut rng = seeded_rng(1);
    let mut all = Vec::new();
    for s in 0..fam.num_slices() {
        all.extend(fam.sample_slice(SliceId(s), per_slice, &mut rng));
    }
    (examples_to_matrix(&all), labels_of(&all))
}

fn bench_models(c: &mut Criterion) {
    let mut group = c.benchmark_group("model_training");
    group.sample_size(10);

    for per_slice in [20usize, 50] {
        let (x, y) = image_batch(per_slice);
        let mlp_cfg = TrainConfig {
            epochs: 5,
            ..TrainConfig::default()
        };
        group.bench_with_input(BenchmarkId::new("mlp_basic", per_slice), &(), |b, _| {
            b.iter(|| {
                train(
                    black_box(&x),
                    black_box(&y),
                    64,
                    10,
                    &ModelSpec::basic(),
                    &mlp_cfg,
                )
            })
        });
        let conv_cfg = ConvTrainConfig {
            epochs: 5,
            filters: 4,
            ..Default::default()
        };
        let shape = ImageShape {
            channels: 1,
            height: 8,
            width: 8,
        };
        group.bench_with_input(BenchmarkId::new("convnet", per_slice), &(), |b, _| {
            b.iter(|| ConvNet::train(black_box(&x), black_box(&y), shape, 10, &conv_cfg))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_models);
criterion_main!(benches);
