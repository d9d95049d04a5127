//! Row-major dense matrix.
//!
//! Every dense product dispatches to the production compute kernel
//! ([`crate::kernel()`]), which picks the narrow, 4-wide or 8-wide core for
//! each product from its output width without changing a single output
//! bit (see [`crate::kernel`](mod@crate::kernel)).

use crate::kernel::{kernel, PackedB};
use crate::simd::SimdWidth;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major `f64` matrix.
///
/// The layout is a single contiguous buffer of `rows * cols` elements, which
/// keeps matrix-vector products cache friendly for the small/medium shapes
/// the training loops use (feature dimension ≤ a few dozen, batch size ≤ a
/// few hundred).
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix by evaluating `f(row, col)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// The identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        Self::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r` as a slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy column `c` into a new vector.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols);
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        kernel().transpose(self.rows, self.cols, &self.data, &mut out.data);
        out
    }

    /// Reshapes `self` to an all-zero `rows × cols` matrix, reusing the
    /// existing allocation when it is large enough. The workhorse of the
    /// `*_into` methods: a cleared scratch matrix costs a memset, not a
    /// round-trip through the allocator.
    pub fn reset_to_zeros(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// [`matmul`](Self::matmul) into a reusable output matrix (resized and
    /// zeroed, allocation reused) — same kernel call, identical bits, no
    /// per-call allocation in steady state.
    ///
    /// # Panics
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.reset_to_zeros(self.rows, rhs.cols);
        kernel().gemm(
            self.rows,
            self.cols,
            rhs.cols,
            &self.data,
            &rhs.data,
            &mut out.data,
        );
    }

    /// Matrix product `self * rhsᵀ` into a reusable output matrix, without
    /// materializing the transpose.
    ///
    /// This is the backward-pass shape `dZ · Wᵀ`: row `j` of `rhs` serves
    /// directly as column `j` of `rhsᵀ`, so both operands stream row-major.
    ///
    /// # Panics
    /// Panics if `self.cols() != rhs.cols()`.
    pub fn matmul_nt_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_nt shape mismatch: {}x{} * ({}x{})ᵀ",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.reset_to_zeros(self.rows, rhs.rows);
        kernel().gemm_nt(
            self.rows,
            self.cols,
            rhs.rows,
            &self.data,
            &rhs.data,
            &mut out.data,
        );
    }

    /// Matrix product `selfᵀ * rhs` into a reusable output matrix, without
    /// materializing the transpose.
    ///
    /// This is the gradient shape `Xᵀ · dZ`; both operands are streamed
    /// row-major as a sequence of rank-1 updates.
    ///
    /// # Panics
    /// Panics if `self.rows() != rhs.rows()`.
    pub fn matmul_tn_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_tn shape mismatch: ({}x{})ᵀ * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.reset_to_zeros(self.cols, rhs.cols);
        kernel().gemm_tn(
            self.rows,
            self.cols,
            rhs.cols,
            &self.data,
            &rhs.data,
            &mut out.data,
        );
    }

    /// Packs `self` once as the right-hand side of [`matmul`](Self::matmul)
    /// (`X · self` products) for reuse across calls; see
    /// [`crate::kernel::PackedB`] for the lifetime/invalidation contract.
    pub fn pack_as_rhs(&self) -> PackedB {
        kernel().pack_b(self.rows, self.cols, &self.data)
    }

    /// [`pack_as_rhs`](Self::pack_as_rhs) into a reusable handle
    /// (allocation reused — re-packing after a weight update is a copy).
    pub fn pack_as_rhs_into(&self, dst: &mut PackedB) {
        kernel().pack_b_into(self.rows, self.cols, &self.data, dst);
    }

    /// Packs `self` as the (transposed) right-hand side of
    /// [`matmul_nt_into`](Self::matmul_nt_into) (`X · selfᵀ` products) into
    /// a reusable handle. The transpose is resolved at pack time, so
    /// [`matmul_prepacked_into`](Self::matmul_prepacked_into) on the
    /// handle gives `matmul_nt_into`'s bits.
    pub fn pack_as_rhs_t_into(&self, dst: &mut PackedB) {
        kernel().pack_b_t_into(self.cols, self.rows, &self.data, dst);
    }

    /// [`matmul_into`](Self::matmul_into) against a prepacked right-hand
    /// side ([`pack_as_rhs`](Self::pack_as_rhs)), or
    /// [`matmul_nt_into`](Self::matmul_nt_into) against one packed by
    /// [`pack_as_rhs_t_into`](Self::pack_as_rhs_t_into): same kernel
    /// arithmetic, identical bits, no per-call packing.
    ///
    /// # Panics
    /// Panics if `self.cols() != pack.k()`.
    pub fn matmul_prepacked_into(&self, pack: &PackedB, out: &mut Matrix) {
        assert_eq!(
            self.cols,
            pack.k(),
            "matmul_prepacked shape mismatch: {}x{} * packed {}x{}",
            self.rows,
            self.cols,
            pack.k(),
            pack.n()
        );
        out.reset_to_zeros(self.rows, pack.n());
        kernel().gemm_prepacked(
            self.rows,
            self.cols,
            pack.n(),
            &self.data,
            pack,
            &mut out.data,
        );
    }

    /// The affine forward `self · W + b` in one kernel pass:
    /// [`matmul_prepacked_into`](Self::matmul_prepacked_into) with the
    /// bias broadcast fused into the packed cores' write-back instead of a
    /// second full sweep over `out` ([`add_bias_rows`](Self::add_bias_rows)).
    /// Bit-identical to the two-step sequence in every pack layout (the
    /// fused-bias contract, proptested).
    ///
    /// # Panics
    /// Panics if `self.cols() != pack.k()` or `bias.len() != pack.n()`.
    pub fn matmul_prepacked_bias_into(&self, pack: &PackedB, bias: &[f64], out: &mut Matrix) {
        assert_eq!(
            self.cols,
            pack.k(),
            "matmul_prepacked shape mismatch: {}x{} * packed {}x{}",
            self.rows,
            self.cols,
            pack.k(),
            pack.n()
        );
        assert_eq!(bias.len(), pack.n(), "bias length mismatch");
        out.reset_to_zeros(self.rows, pack.n());
        kernel().gemm_prepacked_bias(
            self.rows,
            self.cols,
            pack.n(),
            &self.data,
            pack,
            bias,
            &mut out.data,
        );
    }

    /// [`matmul_prepacked_bias_into`](Self::matmul_prepacked_bias_into)
    /// with the hidden-layer ReLU clamp also fused into the single packed
    /// write-back. The clamp is `v < 0.0 → 0.0` (keeps `-0.0` and NaN),
    /// bit-identical to the fused-bias call followed by a separate scalar
    /// ReLU sweep in every pack layout.
    ///
    /// # Panics
    /// Panics if `self.cols() != pack.k()` or `bias.len() != pack.n()`.
    pub fn matmul_prepacked_bias_relu_into(&self, pack: &PackedB, bias: &[f64], out: &mut Matrix) {
        assert_eq!(
            self.cols,
            pack.k(),
            "matmul_prepacked shape mismatch: {}x{} * packed {}x{}",
            self.rows,
            self.cols,
            pack.k(),
            pack.n()
        );
        assert_eq!(bias.len(), pack.n(), "bias length mismatch");
        out.reset_to_zeros(self.rows, pack.n());
        kernel().gemm_prepacked_bias_relu(
            self.rows,
            self.cols,
            pack.n(),
            &self.data,
            pack,
            bias,
            &mut out.data,
        );
    }

    /// Per-column sums (the bias-gradient reduction of a batch) into a
    /// reusable vector (cleared and refilled, allocation reused).
    ///
    /// Accumulated directly in ascending row order, one chain per column.
    /// Runs at the host's vector width ([`SimdWidth::run`]): the lanes hold
    /// distinct columns, each still one chain down the rows, so every width
    /// gives the same bits.
    pub fn col_sums_into(&self, out: &mut Vec<f64>) {
        self.col_sums_at(SimdWidth::detected(), out);
    }

    /// [`col_sums_into`](Self::col_sums_into) compiled for `width`
    /// (capped at the host's).
    fn col_sums_at(&self, width: SimdWidth, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.cols, 0.0);
        width.run(
            #[inline(always)]
            || {
                for row in self.data.chunks_exact(self.cols.max(1)) {
                    for (o, &x) in out.iter_mut().zip(row) {
                        *o += x;
                    }
                }
            },
        );
    }

    /// Copies the listed rows into a new matrix (minibatch gathering).
    ///
    /// # Panics
    /// Panics if any index is out of range.
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.gather_rows_into(indices, &mut out);
        out
    }

    /// [`gather_rows`](Self::gather_rows) into a reusable matrix: the
    /// training loop gathers a fresh minibatch hundreds of times per
    /// epoch, and this keeps it allocation-free in steady state.
    ///
    /// # Panics
    /// Panics if any index is out of range.
    pub fn gather_rows_into(&self, indices: &[usize], out: &mut Matrix) {
        out.rows = indices.len();
        out.cols = self.cols;
        out.data.clear();
        out.data.reserve(indices.len() * self.cols);
        for &i in indices {
            assert!(i < self.rows, "gather_rows: row {i} out of {}", self.rows);
            out.data.extend_from_slice(self.row(i));
        }
    }

    /// Adds `bias` to every row (the broadcast `+ b` of an affine layer).
    ///
    /// # Panics
    /// Panics if `bias.len() != self.cols()`.
    pub fn add_bias_rows(&mut self, bias: &[f64]) {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        for r in 0..self.rows {
            for (o, &b) in self.row_mut(r).iter_mut().zip(bias) {
                *o += b;
            }
        }
    }

    /// Fill every entry with `value`.
    pub fn fill(&mut self, value: f64) {
        self.data.fill(value);
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }
}

impl Default for Matrix {
    /// An empty `0 × 0` matrix (the natural seed for `*_into` scratch).
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            writeln!(f, "  {:?}", self.row(r))?;
        }
        if self.rows > 8 {
            writeln!(f, "  ... ({} more rows)", self.rows - 8)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_right_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_vec_round_trips() {
        let m = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 0)], 4.0);
        assert_eq!(m[(1, 2)], 6.0);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_rejects_bad_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0; 5]);
    }

    #[test]
    fn identity_matmul_is_noop() {
        let m = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let i = Matrix::identity(2);
        assert_eq!(m.matmul(&i), m);
        assert_eq!(i.matmul(&m), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_vec(2, 2, vec![58., 64., 139., 154.]));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn frobenius_norm_of_unit_rows() {
        let m = Matrix::from_vec(2, 2, vec![3., 0., 0., 4.]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(4, 3, (0..12).map(|i| i as f64 * 0.5 - 2.0).collect());
        let mut out = Matrix::zeros(0, 0);
        a.matmul_nt_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b.transpose()));
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Matrix::from_vec(3, 2, vec![1., -2., 3., 4., -5., 6.]);
        let b = Matrix::from_vec(3, 4, (0..12).map(|i| (i as f64).sin()).collect());
        let mut out = Matrix::zeros(0, 0);
        a.matmul_tn_into(&b, &mut out);
        assert_eq!(out, a.transpose().matmul(&b));
    }

    #[test]
    fn col_sums_reduce_rows() {
        let m = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let mut sums = vec![1.0; 7];
        m.col_sums_into(&mut sums);
        assert_eq!(sums, vec![9., 12.]);
    }

    #[test]
    fn col_sums_keep_their_bits_at_every_width() {
        // Against the row-by-row loop, at baseline and every width the
        // host supports, on widths that leave vector tails, with signed
        // zeros, subnormals, infinities and the host's default NaN mixed
        // in (one NaN kind, so a chain meeting two has one payload).
        let nan = std::hint::black_box(f64::INFINITY) - std::hint::black_box(f64::INFINITY);
        let specials = [0.0, -0.0, 4e-320, -2.5e-310, f64::INFINITY, -1e308, nan];
        let mut rng = crate::resample::SplitMix64::new(0xC015);
        for (rows, cols) in [(32, 2), (32, 4), (33, 16), (7, 32), (24, 3), (1, 9), (0, 5)] {
            let data: Vec<f64> = (0..rows * cols)
                .map(|i| {
                    if i % 11 == 3 {
                        specials[i % specials.len()]
                    } else {
                        rng.next_f64() * 4.0 - 2.0
                    }
                })
                .collect();
            let m = Matrix::from_vec(rows, cols, data);
            let mut want = vec![0.0; cols];
            for r in 0..rows {
                for (o, &x) in want.iter_mut().zip(m.row(r)) {
                    *o += x;
                }
            }
            for width in SimdWidth::supported() {
                let mut got = vec![1.0; 3];
                m.col_sums_at(width, &mut got);
                assert_eq!(got.len(), cols);
                for (j, (w, g)) in want.iter().zip(&got).enumerate() {
                    assert_eq!(
                        w.to_bits(),
                        g.to_bits(),
                        "{width:?} {rows}x{cols} column {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn gather_rows_copies_in_order() {
        let m = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let g = m.gather_rows(&[2, 0, 2]);
        assert_eq!(g, Matrix::from_vec(3, 2, vec![5., 6., 1., 2., 5., 6.]));
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn gather_rows_rejects_bad_index() {
        let m = Matrix::zeros(2, 2);
        let _ = m.gather_rows(&[3]);
    }

    #[test]
    fn add_bias_rows_broadcasts() {
        let mut m = Matrix::zeros(2, 3);
        m.add_bias_rows(&[1.0, 2.0, 3.0]);
        assert_eq!(m, Matrix::from_vec(2, 3, vec![1., 2., 3., 1., 2., 3.]));
    }

    #[test]
    fn col_extracts_column() {
        let m = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(m.col(1), vec![2., 4., 6.]);
    }

    #[test]
    fn into_variants_match_and_reuse_allocations() {
        let a = Matrix::from_vec(3, 4, (0..12).map(|i| i as f64 * 0.7 - 4.0).collect());
        let b = Matrix::from_vec(4, 2, (0..8).map(|i| (i as f64).cos()).collect());
        let bt = Matrix::from_vec(5, 4, (0..20).map(|i| (i as f64).sin()).collect());
        let c = Matrix::from_vec(3, 5, (0..15).map(|i| i as f64 - 7.0).collect());

        // Seed the scratch with a larger shape so reuse paths run.
        let mut out = Matrix::zeros(9, 9);
        let cap = out.data.capacity();
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
        a.matmul_nt_into(&bt, &mut out);
        assert_eq!(out, a.matmul(&bt.transpose()));
        a.matmul_tn_into(&c, &mut out);
        assert_eq!(out, a.transpose().matmul(&c));
        a.gather_rows_into(&[2, 0], &mut out);
        assert_eq!(out, a.gather_rows(&[2, 0]));
        assert_eq!(out.data.capacity(), cap, "allocation reused");

        let mut sums = vec![1.0; 7];
        let cap = sums.capacity();
        a.col_sums_into(&mut sums);
        let want: Vec<f64> = (0..a.cols()).map(|j| a.col(j).iter().sum()).collect();
        assert_eq!(sums, want);
        assert_eq!(sums.capacity(), cap, "allocation reused");
    }

    #[test]
    fn prepacked_matmuls_match_plain() {
        let a = Matrix::from_vec(3, 4, (0..12).map(|i| i as f64 * 0.7 - 4.0).collect());
        let b = Matrix::from_vec(4, 2, (0..8).map(|i| (i as f64).cos()).collect());
        let bt = Matrix::from_vec(5, 4, (0..20).map(|i| (i as f64).sin()).collect());

        let pb = b.pack_as_rhs();
        let mut out = Matrix::zeros(0, 0);
        a.matmul_prepacked_into(&pb, &mut out);
        assert_eq!(out, a.matmul(&b));

        let mut pbt = PackedB::default();
        bt.pack_as_rhs_t_into(&mut pbt);
        a.matmul_prepacked_into(&pbt, &mut out);
        assert_eq!(out, a.matmul(&bt.transpose()));

        // Fused bias == matmul_prepacked_into + add_bias_rows, bitwise.
        let bias = vec![0.25, -1.5];
        let mut want = Matrix::zeros(0, 0);
        a.matmul_prepacked_into(&pb, &mut want);
        want.add_bias_rows(&bias);
        a.matmul_prepacked_bias_into(&pb, &bias, &mut out);
        for (w, g) in want.as_slice().iter().zip(out.as_slice()) {
            assert_eq!(w.to_bits(), g.to_bits());
        }

        // Fused bias+relu == fused bias + separate scalar clamp, bitwise.
        let mut want_relu = Matrix::zeros(0, 0);
        a.matmul_prepacked_bias_into(&pb, &bias, &mut want_relu);
        for v in want_relu.as_mut_slice() {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        a.matmul_prepacked_bias_relu_into(&pb, &bias, &mut out);
        for (w, g) in want_relu.as_slice().iter().zip(out.as_slice()) {
            assert_eq!(w.to_bits(), g.to_bits());
        }

        // Re-pack into the same handles after mutating the operands.
        let mut b2 = b.clone();
        b2.as_mut_slice()[0] += 1.5;
        let mut pb2 = pb;
        b2.pack_as_rhs_into(&mut pb2);
        a.matmul_prepacked_into(&pb2, &mut out);
        assert_eq!(out, a.matmul(&b2));
    }

    #[test]
    fn reset_to_zeros_reshapes_and_clears() {
        let mut m = Matrix::from_vec(2, 3, vec![1.; 6]);
        m.reset_to_zeros(3, 2);
        assert_eq!((m.rows(), m.cols()), (3, 2));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }
}
