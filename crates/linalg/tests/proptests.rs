//! Property-based tests for the linear algebra kernels.

use proptest::prelude::*;
use st_linalg::{
    cholesky_solve, dot, gaussian_solve, l2_norm, log_sum_exp, mean, quantile, sigmoid,
    softmax_in_place, sub, variance, BlockedKernel, Matrix, NaiveKernel, PackedB, SimdKernel,
};

fn finite_vec(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e3..1e3_f64, len)
}

fn square_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-10.0..10.0_f64, n * n).prop_map(move |d| Matrix::from_vec(n, n, d))
}

proptest! {
    #[test]
    fn dot_is_commutative(a in finite_vec(8), b in finite_vec(8)) {
        prop_assert!((dot(&a, &b) - dot(&b, &a)).abs() < 1e-6);
    }

    #[test]
    fn dot_is_linear_in_first_arg(a in finite_vec(6), b in finite_vec(6), alpha in -5.0..5.0_f64) {
        let scaled: Vec<f64> = a.iter().map(|x| alpha * x).collect();
        prop_assert!((dot(&scaled, &b) - alpha * dot(&a, &b)).abs() < 1e-4);
    }

    #[test]
    fn cauchy_schwarz(a in finite_vec(5), b in finite_vec(5)) {
        prop_assert!(dot(&a, &b).abs() <= l2_norm(&a) * l2_norm(&b) + 1e-6);
    }

    #[test]
    fn matmul_is_associative(a in square_matrix(3), b in square_matrix(3), c in square_matrix(3)) {
        let ab_c = a.matmul(&b).matmul(&c);
        let a_bc = a.matmul(&b.matmul(&c));
        for i in 0..3 {
            for j in 0..3 {
                prop_assert!((ab_c[(i, j)] - a_bc[(i, j)]).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn transpose_reverses_product(a in square_matrix(3), b in square_matrix(3)) {
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        for i in 0..3 {
            for j in 0..3 {
                prop_assert!((lhs[(i, j)] - rhs[(i, j)]).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn gaussian_solution_satisfies_system(a in square_matrix(4), b in finite_vec(4)) {
        if let Ok(x) = gaussian_solve(a.clone(), &b) {
            let ax: Vec<f64> = (0..4).map(|r| dot(a.row(r), &x)).collect();
            let r = sub(&ax, &b);
            // Residual scaled by solution magnitude: ill-conditioned random
            // matrices can legitimately amplify error.
            let scale = 1.0 + l2_norm(&x) * a.frobenius_norm();
            prop_assert!(l2_norm(&r) / scale < 1e-6);
        }
    }

    #[test]
    fn cholesky_agrees_with_gaussian(m in square_matrix(3), b in finite_vec(3)) {
        // Build an SPD matrix A = M Mᵀ + I.
        let mut a = m.matmul(&m.transpose());
        for i in 0..3 {
            a[(i, i)] += 1.0;
        }
        let xc = cholesky_solve(&a, &b).expect("SPD by construction");
        let xg = gaussian_solve(a.clone(), &b).expect("nonsingular by construction");
        for (c, g) in xc.iter().zip(&xg) {
            prop_assert!((c - g).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_is_a_distribution(mut v in finite_vec(6)) {
        softmax_in_place(&mut v);
        prop_assert!((v.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(v.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn softmax_shift_invariant(v in finite_vec(5), shift in -100.0..100.0_f64) {
        let mut a = v.clone();
        let mut b: Vec<f64> = v.iter().map(|x| x + shift).collect();
        softmax_in_place(&mut a);
        softmax_in_place(&mut b);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn log_sum_exp_bounds(v in finite_vec(5)) {
        let m = v.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
        let lse = log_sum_exp(&v);
        prop_assert!(lse >= m - 1e-12);
        prop_assert!(lse <= m + (v.len() as f64).ln() + 1e-12);
    }

    #[test]
    fn sigmoid_in_unit_interval(x in -1e6..1e6_f64) {
        let s = sigmoid(x);
        prop_assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn mean_between_min_and_max(v in finite_vec(7)) {
        let m = mean(&v);
        let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
    }

    #[test]
    fn variance_nonnegative(v in finite_vec(7)) {
        prop_assert!(variance(&v) >= -1e-9);
    }

    #[test]
    fn quantile_monotone(v in finite_vec(9), q1 in 0.0..1.0_f64, q2 in 0.0..1.0_f64) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(quantile(&v, lo) <= quantile(&v, hi) + 1e-12);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn qr_least_squares_satisfies_normal_equations(
        entries in prop::collection::vec(-3.0f64..3.0, 12..=12),
        rhs in prop::collection::vec(-5.0f64..5.0, 6..=6),
    ) {
        // 6x2 design with an intercept column: always full rank.
        let a = Matrix::from_fn(6, 2, |r, c| if c == 0 { 1.0 } else { entries[r] });
        if let Ok(x) = st_linalg::least_squares(&a, &rhs) {
            // AᵀA x = Aᵀ b within tolerance.
            let at = a.transpose();
            let ata = at.matmul(&a);
            let atb: Vec<f64> = (0..2)
                .map(|i| at.row(i).iter().zip(&rhs).map(|(p, q)| p * q).sum())
                .collect();
            for i in 0..2 {
                let lhs: f64 = (0..2).map(|j| ata[(i, j)] * x[j]).sum();
                prop_assert!((lhs - atb[i]).abs() < 1e-6, "row {i}: {lhs} vs {}", atb[i]);
            }
        }
    }

    #[test]
    fn running_stats_merge_is_order_invariant(
        xs in prop::collection::vec(-100.0f64..100.0, 1..20),
        ys in prop::collection::vec(-100.0f64..100.0, 1..20),
    ) {
        let mut ab = st_linalg::RunningStats::new();
        ab.extend(&xs);
        let mut b = st_linalg::RunningStats::new();
        b.extend(&ys);
        ab.merge(&b);

        let mut ba = st_linalg::RunningStats::new();
        ba.extend(&ys);
        let mut a2 = st_linalg::RunningStats::new();
        a2.extend(&xs);
        ba.merge(&a2);

        prop_assert!((ab.mean() - ba.mean()).abs() < 1e-9);
        prop_assert!((ab.variance() - ba.variance()).abs() < 1e-9);
        prop_assert_eq!(ab.count(), ba.count());
    }

    #[test]
    fn spearman_is_bounded_and_symmetric(
        xs in prop::collection::vec(-10.0f64..10.0, 3..15),
        shift in -5.0f64..5.0,
    ) {
        let ys: Vec<f64> = xs.iter().rev().map(|v| v + shift).collect();
        let r = st_linalg::spearman(&xs, &ys);
        if r.is_finite() {
            prop_assert!((-1.0 - 1e-12..=1.0 + 1e-12).contains(&r));
            let r2 = st_linalg::spearman(&ys, &xs);
            prop_assert!((r - r2).abs() < 1e-12);
        }
    }

    #[test]
    fn bootstrap_interval_ordering_holds(
        xs in prop::collection::vec(0.0f64..10.0, 2..30),
        seed in 0u64..1000,
    ) {
        let ci = st_linalg::bootstrap_ci(&xs, 100, 0.9, seed, st_linalg::mean);
        prop_assert!(ci.lo <= ci.hi);
        // The point estimate is the statistic on the original sample.
        prop_assert!((ci.point - st_linalg::mean(&xs)).abs() < 1e-12);
    }
}

/// Deterministic dense buffer for the kernel-equivalence suite.
fn kernel_data(len: usize, seed: u64) -> Vec<f64> {
    let mut rng = st_linalg::SplitMix64::new(seed ^ 0xD15E);
    (0..len).map(|_| rng.next_f64() * 6.0 - 3.0).collect()
}

fn assert_bits_equal(op: &str, a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len(), "{op}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.to_bits() == y.to_bits(),
            "{op}: bit divergence at {i}: {x:?} vs {y:?}"
        );
    }
}

/// A `gemm`-shaped entry: `(m, k, n, a, b, out)`.
type Product = fn(usize, usize, usize, &[f64], &[f64], &mut [f64]);

/// Runs every product entry on one `(m, k, n)` shape and asserts bitwise
/// equality against the naive reference: `gemm` and `gemm_nt` of the
/// production kernel and both packed cores — blocked and simd — and the
/// production kernel's `gemm_tn` and `transpose`.
fn check_kernel_equivalence(m: usize, k: usize, n: usize, seed: u64) {
    let a = kernel_data(m * k, seed);
    let b = kernel_data(k * n, seed.wrapping_add(1));
    let bt = kernel_data(n * k, seed.wrapping_add(2));
    let c = kernel_data(m * n, seed.wrapping_add(3));

    let mut x = vec![0.0; m * n];
    NaiveKernel.gemm(m, k, n, &a, &b, &mut x);
    let mut u = vec![0.0; k * n];
    NaiveKernel.gemm_tn(m, k, n, &a, &c, &mut u);
    let mut nt = vec![0.0; m * n];
    NaiveKernel.gemm_nt(m, k, n, &a, &bt, &mut nt);
    let mut t_n = vec![0.0; m * k];
    NaiveKernel.transpose(m, k, &a, &mut t_n);

    let cores: [(&str, Product, Product); 3] = [
        (
            "kernel()",
            |m, k, n, a, b, out| st_linalg::kernel().gemm(m, k, n, a, b, out),
            |m, k, n, a, bt, out| st_linalg::kernel().gemm_nt(m, k, n, a, bt, out),
        ),
        (
            "blocked",
            |m, k, n, a, b, out| BlockedKernel.gemm(m, k, n, a, b, out),
            |m, k, n, a, bt, out| BlockedKernel.gemm_nt(m, k, n, a, bt, out),
        ),
        (
            "simd",
            |m, k, n, a, b, out| SimdKernel.gemm(m, k, n, a, b, out),
            |m, k, n, a, bt, out| SimdKernel.gemm_nt(m, k, n, a, bt, out),
        ),
    ];
    for (name, gemm, gemm_nt) in cores {
        let mut y = vec![0.0; m * n];
        gemm(m, k, n, &a, &b, &mut y);
        assert_bits_equal(&format!("{name} gemm"), &x, &y);

        y.fill(0.0);
        gemm_nt(m, k, n, &a, &bt, &mut y);
        assert_bits_equal(&format!("{name} gemm_nt"), &nt, &y);
    }

    let ker = st_linalg::kernel();
    let mut z = vec![0.0; k * n];
    ker.gemm_tn(m, k, n, &a, &c, &mut z);
    assert_bits_equal("kernel() gemm_tn", &u, &z);

    let mut t = vec![0.0; m * k];
    ker.transpose(m, k, &a, &mut t);
    assert_bits_equal("kernel() transpose", &t_n, &t);
}

/// Asserts the production kernel's prepacked products are
/// `to_bits`-identical to the naive reference on one `(m, k, n)` shape:
/// `gemm_prepacked` on a `pack_b` handle against `gemm`, and on a
/// `pack_b_t_into` handle against `gemm_nt`.
fn check_prepacked_equivalence(m: usize, k: usize, n: usize, seed: u64) {
    let a = kernel_data(m * k, seed.wrapping_add(11));
    let b = kernel_data(k * n, seed.wrapping_add(12));
    let bt = kernel_data(n * k, seed.wrapping_add(13));
    let ker = st_linalg::kernel();

    let mut plain = vec![0.0; m * n];
    NaiveKernel.gemm(m, k, n, &a, &b, &mut plain);
    let pb = ker.pack_b(k, n, &b);
    let mut packed = vec![0.0; m * n];
    ker.gemm_prepacked(m, k, n, &a, &pb, &mut packed);
    assert_bits_equal("gemm_prepacked", &plain, &packed);

    let mut plain_nt = vec![0.0; m * n];
    NaiveKernel.gemm_nt(m, k, n, &a, &bt, &mut plain_nt);
    let mut pbt = PackedB::default();
    ker.pack_b_t_into(k, n, &bt, &mut pbt);
    let mut packed_nt = vec![0.0; m * n];
    ker.gemm_prepacked(m, k, n, &a, &pbt, &mut packed_nt);
    assert_bits_equal("gemm_prepacked on Bᵀ", &plain_nt, &packed_nt);
}

/// Asserts the production kernel's fused-bias epilogue
/// (`gemm_prepacked_bias`) is `to_bits`-identical to `gemm_prepacked`
/// followed by a separate element-wise bias pass on one `(m, k, n)` shape.
fn check_fused_bias_equivalence(m: usize, k: usize, n: usize, seed: u64) {
    let a = kernel_data(m * k, seed.wrapping_add(21));
    let b = kernel_data(k * n, seed.wrapping_add(22));
    let bias = kernel_data(n, seed.wrapping_add(23));
    let ker = st_linalg::kernel();

    let pb = ker.pack_b(k, n, &b);
    let mut want = vec![0.0; m * n];
    ker.gemm_prepacked(m, k, n, &a, &pb, &mut want);
    if n > 0 {
        for row in want.chunks_exact_mut(n) {
            for (o, &bv) in row.iter_mut().zip(&bias) {
                *o += bv;
            }
        }
    }
    let mut fused = vec![0.0; m * n];
    ker.gemm_prepacked_bias(m, k, n, &a, &pb, &bias, &mut fused);
    assert_bits_equal("gemm_prepacked_bias", &want, &fused);
}

/// Asserts the production kernel's fused-ReLU epilogue
/// (`gemm_prepacked_bias_relu`) is `to_bits`-identical to
/// `gemm_prepacked_bias` followed by a separate clamp-at-zero pass on one
/// `(m, k, n)` shape.
fn check_fused_relu_equivalence(m: usize, k: usize, n: usize, seed: u64) {
    let a = kernel_data(m * k, seed.wrapping_add(26));
    let b = kernel_data(k * n, seed.wrapping_add(27));
    let bias = kernel_data(n, seed.wrapping_add(28));
    let ker = st_linalg::kernel();

    let pb = ker.pack_b(k, n, &b);
    let mut want = vec![0.0; m * n];
    ker.gemm_prepacked_bias(m, k, n, &a, &pb, &bias, &mut want);
    for v in want.iter_mut() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
    let mut fused = vec![0.0; m * n];
    ker.gemm_prepacked_bias_relu(m, k, n, &a, &pb, &bias, &mut fused);
    assert_bits_equal("gemm_prepacked_bias_relu", &want, &fused);
}

/// A fixed shape gallery: degenerate (empty, 1×1),
/// prime, and just-past-blocking-boundary dimensions.
#[test]
fn kernels_bit_identical_on_degenerate_and_prime_shapes() {
    for &(m, k, n) in &[
        (0, 3, 4),
        (3, 0, 4),
        (3, 4, 0),
        (0, 0, 0),
        (1, 1, 1),
        (1, 7, 1),
        (2, 3, 5),
        (7, 11, 13),
        (31, 37, 41),
        (61, 67, 71),
        (1, 64, 129),
        (5, 1, 9),
        (8, 8, 8),
        (65, 2, 3),
    ] {
        check_kernel_equivalence(m, k, n, 7 + (m * 131 + k * 17 + n) as u64);
        check_prepacked_equivalence(m, k, n, 7 + (m * 131 + k * 17 + n) as u64);
        check_fused_bias_equivalence(m, k, n, 7 + (m * 131 + k * 17 + n) as u64);
        check_fused_relu_equivalence(m, k, n, 7 + (m * 131 + k * 17 + n) as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Production kernel, blocked and simd vs naive bit-identity on random
    /// rectangular shapes, including empty dimensions (the ranges start at
    /// 0) and all three sides of the kernel's width rule (under 4
    /// columns, 4 to 7, and 8 up).
    #[test]
    fn kernels_bit_identical_on_random_shapes(
        m in 0usize..24,
        k in 0usize..24,
        n in 0usize..24,
        seed in 0u64..100_000,
    ) {
        check_kernel_equivalence(m, k, n, seed);
    }

    /// The production kernel's prepacked products on `B` and `Bᵀ` handles
    /// vs naive's `gemm` and `gemm_nt` on random rectangular shapes (empty
    /// dimensions included), on all three sides of the width rule.
    #[test]
    fn prepacked_bit_identical_on_random_shapes(
        m in 0usize..24,
        k in 0usize..24,
        n in 0usize..24,
        seed in 0u64..100_000,
    ) {
        check_prepacked_equivalence(m, k, n, seed);
    }

    /// The fused-bias forward vs the unfused `gemm_prepacked` +
    /// bias-rows sequence on random rectangular shapes (empty dimensions
    /// included — a `k == 0` product must still broadcast the bias), in
    /// every layout the width rule packs.
    #[test]
    fn fused_bias_bit_identical_on_random_shapes(
        m in 0usize..24,
        k in 0usize..24,
        n in 0usize..24,
        seed in 0u64..100_000,
    ) {
        check_fused_bias_equivalence(m, k, n, seed);
    }

    /// The fused-ReLU forward vs the fused-bias call plus a separate
    /// clamp-at-zero pass on random rectangular shapes (empty dimensions
    /// included), in every layout the width rule packs.
    #[test]
    fn fused_relu_bit_identical_on_random_shapes(
        m in 0usize..24,
        k in 0usize..24,
        n in 0usize..24,
        seed in 0u64..100_000,
    ) {
        check_fused_relu_equivalence(m, k, n, seed);
    }

    /// The Matrix layer dispatches every product through the production
    /// kernel, which must agree with the naive reference bit-for-bit.
    #[test]
    fn matrix_ops_match_reference_kernel(
        m in 1usize..16,
        k in 1usize..16,
        n in 1usize..16,
        seed in 0u64..100_000,
    ) {
        let a = Matrix::from_vec(m, k, kernel_data(m * k, seed));
        let b = Matrix::from_vec(k, n, kernel_data(k * n, seed ^ 1));
        let product = a.matmul(&b);
        let mut reference = vec![0.0; m * n];
        NaiveKernel.gemm(m, k, n, a.as_slice(), b.as_slice(), &mut reference);
        assert_bits_equal("Matrix::matmul", product.as_slice(), &reference);

        let mut out = Matrix::zeros(0, 0);
        let bt = Matrix::from_vec(n, k, kernel_data(n * k, seed ^ 2));
        a.matmul_nt_into(&bt, &mut out);
        assert_bits_equal(
            "Matrix::matmul_nt_into",
            out.as_slice(),
            a.matmul(&bt.transpose()).as_slice(),
        );
        let c = Matrix::from_vec(m, n, kernel_data(m * n, seed ^ 3));
        a.matmul_tn_into(&c, &mut out);
        assert_bits_equal(
            "Matrix::matmul_tn_into",
            out.as_slice(),
            a.transpose().matmul(&c).as_slice(),
        );
    }
}
