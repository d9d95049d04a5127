//! Microbench: the convex acquisition solver (§5.1) and its pieces, at
//! λ = 0 (pure loss) and λ = 1 (the paper's default fairness weight).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use st_curve::PowerLaw;
use st_optim::{change_ratio, project_weighted_simplex, solve, AcquisitionProblem};
use std::hint::black_box;

fn problem(n: usize, lambda: f64) -> AcquisitionProblem {
    let curves: Vec<PowerLaw> = (0..n)
        .map(|i| PowerLaw::new(1.5 + (i % 7) as f64 * 0.4, 0.1 + (i % 5) as f64 * 0.15))
        .collect();
    let sizes: Vec<f64> = (0..n).map(|i| 100.0 + (i * 37 % 300) as f64).collect();
    let costs: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64 * 0.25).collect();
    AcquisitionProblem::new(curves, sizes, costs, 250.0 * n as f64, lambda)
}

fn bench_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("optimizer");
    group.sample_size(20);
    for n in [4usize, 10, 20, 50] {
        for lambda in [0.0, 1.0] {
            let p = problem(n, lambda);
            group.bench_with_input(
                BenchmarkId::new(format!("exact_lambda{lambda}"), n),
                &p,
                |b, p| b.iter(|| solve(black_box(p))),
            );
        }
    }
    group.finish();

    let mut group = c.benchmark_group("optimizer_pieces");
    group.sample_size(30);
    let y: Vec<f64> = (0..50).map(|i| (i as f64 * 0.37).sin() * 100.0).collect();
    let costs: Vec<f64> = (0..50).map(|i| 1.0 + (i % 4) as f64 * 0.2).collect();
    group.bench_function("simplex_projection_n50", |b| {
        b.iter(|| project_weighted_simplex(black_box(&y), black_box(&costs), 500.0))
    });
    let sizes: Vec<f64> = (0..20).map(|i| 50.0 + (i * 53 % 400) as f64).collect();
    let add: Vec<f64> = (0..20).map(|i| (i * 91 % 700) as f64).collect();
    group.bench_function("change_ratio_n20", |b| {
        b.iter(|| change_ratio(black_box(&sizes), black_box(&add), 6.0))
    });
    group.finish();
}

criterion_group!(benches, bench_solvers);
criterion_main!(benches);
