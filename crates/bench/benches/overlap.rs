//! Microbench: the overlapping-slices solver vs the partition solver.
//!
//! Overlap turns an `n`-slice problem into an `m`-atom problem with a
//! membership matrix in the subgradient's inner loop; this bench records
//! what that generality costs as atoms multiply (the combinatorial growth
//! the paper's reference [7] worries about).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use st_curve::PowerLaw;
use st_optim::{solve, solve_overlap, AcquisitionProblem, OverlapProblem};
use std::hint::black_box;

/// `n` overlapping slices over `n·(n−1)/2 + n` atoms: one exclusive atom
/// per slice plus one shared atom per slice pair.
fn pairwise_overlap(n: usize) -> OverlapProblem {
    let curves: Vec<PowerLaw> = (0..n)
        .map(|i| PowerLaw::new(1.5 + (i % 5) as f64 * 0.5, 0.1 + (i % 4) as f64 * 0.15))
        .collect();
    let sizes: Vec<f64> = (0..n).map(|i| 100.0 + (i * 37 % 250) as f64).collect();

    let mut atoms: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
    for i in 0..n {
        for j in i + 1..n {
            atoms.push(vec![i, j]);
        }
    }
    let m = atoms.len();
    let membership: Vec<Vec<bool>> = (0..n)
        .map(|i| (0..m).map(|j| atoms[j].contains(&i)).collect())
        .collect();
    let costs: Vec<f64> = (0..m).map(|j| 1.0 + (j % 3) as f64 * 0.3).collect();
    OverlapProblem::new(curves, sizes, membership, costs, 200.0 * n as f64, 1.0)
}

fn bench_overlap(c: &mut Criterion) {
    let mut group = c.benchmark_group("overlap_solver");
    group.sample_size(15);
    for n in [4usize, 8, 12] {
        let ov = pairwise_overlap(n);
        group.bench_with_input(
            BenchmarkId::new(
                "pairwise_overlap",
                format!("{n}slices_{}atoms", ov.num_atoms()),
            ),
            &ov,
            |b, ov| b.iter(|| solve_overlap(black_box(ov))),
        );
        // The exact partition solver on the same slice count, for scale.
        let p = AcquisitionProblem::new(
            ov.curves.clone(),
            ov.slice_sizes.clone(),
            vec![1.0; n],
            ov.budget,
            1.0,
        );
        group.bench_with_input(BenchmarkId::new("partition", n), &p, |b, p| {
            b.iter(|| solve(black_box(p)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_overlap);
criterion_main!(benches);
