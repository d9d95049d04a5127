//! The compute-kernel layer.
//!
//! Every dense product in the workspace — batch forward/backward passes in
//! `st-models`, the QR factorization behind the curve fitter, the trial
//! executor's evaluation matmuls — bottoms out in the handful of primitives
//! defined by [`GemmBackend`]. This module owns that trait, a transparent
//! reference implementation ([`NaiveKernel`]), two packed compute cores
//! ([`BlockedKernel`], four output columns per panel, and [`SimdKernel`],
//! eight per panel with explicit AVX2/AVX-512 micro-kernels), a private
//! narrow core for products under four columns, and the one production
//! backend, [`kernel`].
//!
//! **Bit-identical accumulation.** Slice Tuner's determinism story (trial
//! aggregates independent of `--jobs`, memoized curve estimations, pinned
//! proptest seeds) requires that the choice of core never changes a single
//! output bit. Every backend therefore accumulates each output element in
//! strictly ascending `k` order — blocking and vector lanes only re-tile the
//! *interleaving* across output elements, never the per-element summation
//! chain. The unit tests below check every vector width the host supports,
//! and the proptest suite in `crates/linalg/tests/proptests.rs` checks
//! [`kernel`] and both cores, with exact (`to_bits`) equality against
//! [`NaiveKernel`] on rectangular and degenerate shapes.
//!
//! **One kernel, routed per product.** [`kernel`] picks a core on every
//! call from the product's output width `n`: the narrow core when `n < 4`,
//! the 8-wide core when `n ≥ 8` and the CPU has AVX2 or AVX-512, and the
//! 4-wide core otherwise. A 2-column product, such as census's softmax
//! layer, would leave half of a 4-wide panel as padding, and the narrow
//! core skips packing altogether. On a 4-column product most of an 8-wide
//! panel is padding, while 16- and 32-wide layers fill the vectors.
//! `gemm_tn` has one edge instead: the narrow core's walk below 8 columns
//! and the 8-wide core's from 8 up, both reading `A` and `B` where they
//! lie. The rule reads the shape and the CPU, never the environment, and
//! every core gives the same bits. See `docs/kernels.md` for the
//! measurements behind it.
//!
//! **Prepacked operands.** Workloads that multiply a stream of activation
//! batches against one fixed weight matrix pack that operand **once**
//! ([`PackedB`]) and reuse it across `gemm_prepacked`/`gemm_nt_prepacked`
//! calls — the packing cores skip their per-call pack, the naive reference
//! falls back to pack-on-call, and all results stay bit-identical. Handles
//! are snapshots: re-pack (buffer-reusing `*_into`) when the operand
//! mutates.

use crate::simd::SimdWidth;

/// Panel width of the packed GEMM micro-kernel: output columns are packed
/// four at a time, interleaved per `k` step, so the inner loop reads one
/// contiguous 4-lane group per multiply (vectorizes as broadcast·panel).
const PW: usize = 4;
/// Byte budget for the set of `B` panels kept hot between reuses; panels
/// are processed in blocks of roughly this size so they stay in L2 while
/// every row of `A` streams over them.
const PANEL_BLOCK_BYTES: usize = 128 * 1024;
/// Below this many `A` rows the packing pass costs more than it saves and
/// the register-tiled axpy path is used instead.
const PACK_MIN_ROWS: usize = 5;
/// `k`-tile of the axpy fallback path.
const KC: usize = 64;
/// `j`-tile of the axpy fallback path.
const NC: usize = 512;
/// Tile side of the blocked transpose swap.
const TB: usize = 32;
/// Panel width of the SIMD kernels: eight output columns per packed group
/// (one 512-bit vector, or two 256-bit vectors).
const SPW: usize = 8;
/// Panel-block byte budget of the SIMD kernels. Larger than
/// [`PANEL_BLOCK_BYTES`]: the explicit micro-kernels stream `A` once per
/// block, so on the bigger L2 of AVX-512-era cores a wider resident set
/// trades a little cache pressure for fewer passes over `A`.
const SIMD_PANEL_BLOCK_BYTES: usize = 512 * 1024;

/// Internal layout tag of a [`PackedB`] handle.
///
/// The layout decides which packed compute core consumes the handle; both
/// cores keep every output element's ascending-`k` accumulation chain, so
/// the layout affects throughput only, never bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PackLayout {
    /// Verbatim row-major copy of `B` (`k×n`): every prepacked call runs
    /// the backend's ordinary `gemm` on it. It is [`NaiveKernel`]'s
    /// pack-on-call fallback, and what [`kernel`] packs when `n < PW`, so
    /// those prepacked products run the narrow core with no per-call pack.
    Raw,
    /// [`PW`]-wide interleaved column panels, read by [`BlockedKernel`]'s
    /// core. [`kernel`] packs these when `PW ≤ n < SPW`, and from `PW` up
    /// when the CPU has neither AVX2 nor AVX-512.
    Panels4,
    /// [`SPW`]-wide interleaved column panels, read by [`SimdKernel`]'s
    /// core. [`kernel`] packs these when `n ≥ SPW` on AVX2 and AVX-512
    /// hosts.
    Panels8,
}

/// A `B` operand packed **once** into a backend's panel layout and reused
/// across many [`GemmBackend::gemm_prepacked`] /
/// [`GemmBackend::gemm_nt_prepacked`] calls.
///
/// The estimator hot path multiplies thousands of different activation
/// batches against the *same* weight matrix; packing per call re-shuffles
/// the identical `k×n` bytes every time. A `PackedB` hoists that shuffle
/// out of the loop.
///
/// **Lifetime / invalidation contract.** The handle is a snapshot: it
/// captures the operand's bytes at pack time and never observes later
/// mutations. Callers that mutate the source (an optimizer step updating
/// weights) must re-pack — [`GemmBackend::pack_b_into`] reuses the
/// handle's allocation, so re-packing is a copy, not an allocation.
///
/// **Bit identity.** Packing is pure data movement; the packed cores run
/// the same ascending-`k` per-element chains as the pack-on-call paths, so
/// a prepacked product is bit-identical to its pack-on-call twin on every
/// backend (proptested).
#[derive(Debug, Clone)]
pub struct PackedB {
    layout: PackLayout,
    k: usize,
    n: usize,
    data: Vec<f64>,
}

impl PackedB {
    /// Reduction dimension (`B` rows) the handle was packed for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output columns (`B` columns) the handle was packed for.
    pub fn n(&self) -> usize {
        self.n
    }
}

impl Default for PackedB {
    /// An empty handle (the natural seed for `pack_b_into` scratch slots).
    fn default() -> Self {
        PackedB {
            layout: PackLayout::Raw,
            k: 0,
            n: 0,
            data: Vec::new(),
        }
    }
}

/// Adds `bias` to every row of the row-major `… × n` buffer `out`: the
/// shared unfused epilogue of the `Raw`-layout and `k == 0` fused-bias
/// paths, and the op-for-op twin of `Matrix::add_bias_rows`.
fn bias_rows(n: usize, bias: &[f64], out: &mut [f64]) {
    debug_assert_eq!(bias.len(), n);
    if n == 0 {
        return;
    }
    for row in out.chunks_exact_mut(n) {
        for (o, &b) in row.iter_mut().zip(bias) {
            *o += b;
        }
    }
}

/// Clamps every element of `out` at zero from below, exactly like the
/// model stack's separate ReLU pass (`if v < 0.0 { 0.0 }` — `-0.0` and
/// `NaN` pass through untouched): the shared unfused epilogue of the
/// `Raw`-layout and `k == 0` fused-ReLU paths. The vector micro-kernels
/// mirror this comparison with a `< 0` blend, **not** a `max`, so the
/// fused and separate passes agree on every bit pattern.
fn relu_rows(out: &mut [f64]) {
    for v in out {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
}

/// Pointer to `bias[j0]` for the vector micro-kernels, or null when no
/// bias epilogue is requested (the micro-kernels branch on null once per
/// tile, not per element).
///
/// # Safety
/// When `bias` is `Some`, `j0` must be in bounds.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn bias_ptr(bias: Option<&[f64]>, j0: usize) -> *const f64 {
    match bias {
        Some(b) => b.as_ptr().add(j0),
        None => std::ptr::null(),
    }
}

/// Packs `B` (`k×n` row-major) into `W`-wide interleaved column panels:
/// panel `q` holds columns `W·q ..` with layout
/// `panel[step·W + lane] = b[step][W·q + lane]`, so a micro-kernel reads
/// one contiguous lane group per reduction step. The final panel may be
/// narrower than `W`; every panel occupies `k·W` slots so panel addressing
/// stays uniform. `packed` is cleared and zero-filled, its allocation
/// reused.
fn pack_panels_into<const W: usize>(k: usize, n: usize, b: &[f64], packed: &mut Vec<f64>) {
    let panels = n.div_ceil(W);
    packed.clear();
    packed.resize(panels * k * W, 0.0);
    for q in 0..panels {
        let j0 = q * W;
        let w = W.min(n - j0);
        let dst = &mut packed[q * k * W..(q + 1) * k * W];
        if w == W {
            // Const-length group copies compile to straight vector moves
            // instead of per-step memcpy calls.
            for (step, group) in dst.chunks_exact_mut(W).enumerate() {
                let src: &[f64; W] = b[step * n + j0..step * n + j0 + W]
                    .try_into()
                    .expect("group");
                group.copy_from_slice(src);
            }
        } else {
            for step in 0..k {
                let src = &b[step * n + j0..step * n + j0 + w];
                dst[step * W..step * W + w].copy_from_slice(src);
            }
        }
    }
}

/// Packs `B` given its transposed storage `bt` (`n×k` row-major: row `j`
/// of `bt` is column `j` of the logical `B`) into the layout of
/// [`pack_panels_into`]. The rows of `bt` are read contiguously, so no
/// transpose pass is needed.
fn pack_panels_t_into<const W: usize>(k: usize, n: usize, bt: &[f64], packed: &mut Vec<f64>) {
    let panels = n.div_ceil(W);
    packed.clear();
    packed.resize(panels * k * W, 0.0);
    for q in 0..panels {
        let j0 = q * W;
        let w = W.min(n - j0);
        let dst = &mut packed[q * k * W..(q + 1) * k * W];
        for lane in 0..w {
            let src = &bt[(j0 + lane) * k..(j0 + lane + 1) * k];
            for (step, &x) in src.iter().enumerate() {
                dst[step * W + lane] = x;
            }
        }
    }
}

/// The shared body of the `gemm_prepacked*` entries: `out += a·B` for the
/// `B` the handle holds, then the optional bias and ReLU epilogues. A
/// panel handle feeds its packed core, which appends the epilogues to each
/// element's chain at its single store. `Raw` handles, and `k == 0`
/// products (nothing to reduce, but the bias still broadcasts), run
/// `backend.gemm` and then the unfused passes in the same order — the
/// same bits either way.
///
/// # Panics
/// Panics when the handle's shape does not match `(k, n)` or
/// `bias.len() != n`.
#[allow(clippy::too_many_arguments)]
fn prepacked<B: GemmBackend + ?Sized>(
    backend: &B,
    m: usize,
    k: usize,
    n: usize,
    a: &[f64],
    pb: &PackedB,
    bias: Option<&[f64]>,
    relu: bool,
    out: &mut [f64],
) {
    assert_eq!((pb.k, pb.n), (k, n), "prepacked B shape mismatch");
    if let Some(bias) = bias {
        assert_eq!(bias.len(), n, "bias length mismatch");
    }
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    match pb.layout {
        PackLayout::Panels4 if k > 0 => {
            BlockedKernel::packed_gemm(m, k, n, a, &pb.data, bias, relu, out)
        }
        PackLayout::Panels8 if k > 0 => {
            let ops = Operands::packed(k, a, &pb.data);
            SimdKernel::walk(SimdWidth::detected(), m, k, n, ops, bias, relu, out)
        }
        _ => {
            backend.gemm(m, k, n, a, &pb.data, out);
            if let Some(bias) = bias {
                bias_rows(n, bias, out);
            }
            if relu {
                relu_rows(out);
            }
        }
    }
}

/// The dense compute primitives every backend must provide.
///
/// All matrices are row-major `f64` slices with explicit dimensions; `out`
/// buffers are **accumulated into** (callers zero them for a plain
/// product), except [`transpose`](Self::transpose) and
/// [`matvec`](Self::matvec) which assign.
///
/// Implementations must accumulate each output element in ascending-`k`
/// order so all backends produce bit-identical results (see module docs).
pub trait GemmBackend: Send + Sync {
    /// Human-readable backend name (for logs and the `kernels` bench).
    fn name(&self) -> &'static str;

    /// `out += a · b` with `a: m×k`, `b: k×n`, `out: m×n`.
    fn gemm(&self, m: usize, k: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]);

    /// `out += a · bᵀ` with `a: m×k`, `bt: n×k` (row-major), `out: m×n`.
    ///
    /// This is the backward-pass shape `dZ · Wᵀ` without materializing the
    /// transpose: row `j` of `bt` is exactly column `j` of `btᵀ`.
    fn gemm_nt(&self, m: usize, k: usize, n: usize, a: &[f64], bt: &[f64], out: &mut [f64]);

    /// `out += aᵀ · b` with `a: m×k`, `b: m×n`, `out: k×n`.
    ///
    /// This is the gradient shape `Xᵀ · dZ` without materializing the
    /// transpose: the cores read both operands where they lie.
    fn gemm_tn(&self, m: usize, k: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]);

    /// `out[r] = dot(a.row(r), v)` with `a: rows×cols`.
    fn matvec(&self, rows: usize, cols: usize, a: &[f64], v: &[f64], out: &mut [f64]);

    /// `out[c] += Σ_r v[r] · a[r][c]` with `a: rows×cols` (i.e. `aᵀ · v`).
    fn matvec_t(&self, rows: usize, cols: usize, a: &[f64], v: &[f64], out: &mut [f64]);

    /// `out = aᵀ` with `a: rows×cols`, `out: cols×rows`.
    fn transpose(&self, rows: usize, cols: usize, a: &[f64], out: &mut [f64]);

    // ---- The prepacked operand API ------------------------------------
    //
    // Pack once, multiply many times. The default pack methods are the
    // pack-on-call fallback `naive` uses: the handle stores the operand
    // verbatim and every prepacked call runs the backend's ordinary entry
    // point. `blocked` and `simd` override them to emit their native panel
    // layouts, and the production kernel emits `Raw` or one of the two by
    // the product's output width. The prepacked entries dispatch on the
    // handle's layout, so a panel handle feeds its packed core directly,
    // skipping the per-call pack. Every combination is bit-identical to
    // the pack-on-call twin.

    /// Packs the `B` operand of [`gemm`](Self::gemm) (`b: k×n` row-major)
    /// into `dst`, reusing `dst`'s allocation.
    fn pack_b_into(&self, k: usize, n: usize, b: &[f64], dst: &mut PackedB) {
        debug_assert_eq!(b.len(), k * n);
        dst.layout = PackLayout::Raw;
        dst.k = k;
        dst.n = n;
        dst.data.clear();
        dst.data.extend_from_slice(b);
    }

    /// Packs the `B` operand of [`gemm_nt`](Self::gemm_nt) given its
    /// transposed storage (`bt: n×k` row-major — row `j` of `bt` is column
    /// `j` of the logical `B`), reusing `dst`'s allocation. The transpose
    /// is resolved at pack time, so the handle feeds
    /// [`gemm_nt_prepacked`](Self::gemm_nt_prepacked) with no per-call
    /// transpose work.
    fn pack_b_t_into(&self, k: usize, n: usize, bt: &[f64], dst: &mut PackedB) {
        debug_assert_eq!(bt.len(), n * k);
        dst.layout = PackLayout::Raw;
        dst.k = k;
        dst.n = n;
        dst.data.clear();
        dst.data.resize(k * n, 0.0);
        if k > 0 && n > 0 {
            // An exact copy: `gemm` on the materialized `B` accumulates
            // the same ascending-`k` chains `gemm_nt` runs on `bt`.
            self.transpose(n, k, bt, &mut dst.data);
        }
    }

    /// Allocating convenience for [`pack_b_into`](Self::pack_b_into).
    fn pack_b(&self, k: usize, n: usize, b: &[f64]) -> PackedB {
        let mut dst = PackedB::default();
        self.pack_b_into(k, n, b, &mut dst);
        dst
    }

    /// Allocating convenience for [`pack_b_t_into`](Self::pack_b_t_into).
    fn pack_b_t(&self, k: usize, n: usize, bt: &[f64]) -> PackedB {
        let mut dst = PackedB::default();
        self.pack_b_t_into(k, n, bt, &mut dst);
        dst
    }

    /// [`gemm`](Self::gemm) with `B` prepacked: `out += a · B`.
    ///
    /// Bit-identical to `gemm(m, k, n, a, b, out)` for the `b` the handle
    /// was packed from, on every backend.
    ///
    /// # Panics
    /// Panics when the handle's shape does not match `(k, n)`.
    fn gemm_prepacked(
        &self,
        m: usize,
        k: usize,
        n: usize,
        a: &[f64],
        pb: &PackedB,
        out: &mut [f64],
    ) {
        prepacked(self, m, k, n, a, pb, None, false, out);
    }

    /// [`gemm_nt`](Self::gemm_nt) with `Bᵀ` prepacked: `out += a · bᵀ`
    /// where the handle came from [`pack_b_t`](Self::pack_b_t). The
    /// transpose was resolved at pack time, so this is the same packed
    /// walk as [`gemm_prepacked`](Self::gemm_prepacked) — and bit-identical
    /// to the pack-on-call `gemm_nt`.
    ///
    /// # Panics
    /// Panics when the handle's shape does not match `(k, n)`.
    fn gemm_nt_prepacked(
        &self,
        m: usize,
        k: usize,
        n: usize,
        a: &[f64],
        pb: &PackedB,
        out: &mut [f64],
    ) {
        self.gemm_prepacked(m, k, n, a, pb, out);
    }

    /// [`gemm_prepacked`](Self::gemm_prepacked) with a **fused bias
    /// epilogue**: `out += a · B`, then `bias[j]` added to every row's
    /// column `j` — the affine forward `X·W + b` in one pass.
    ///
    /// **Bit identity.** The packed cores accumulate each output element
    /// in a single ascending-`k` register chain and store it exactly once;
    /// the epilogue appends `+ bias[j]` to the end of that chain at the
    /// write-back, which is precisely where a separate
    /// `add_bias_rows` pass would add it. The fused product is therefore
    /// `to_bits`-identical to `gemm_prepacked` followed by the separate
    /// bias pass on every backend (proptested). `Raw` handles (naive's
    /// pack-on-call fallback, and [`kernel`]'s products under four
    /// columns) run the product first and an unfused bias pass after —
    /// same contract, no fusion.
    ///
    /// # Panics
    /// Panics when the handle's shape does not match `(k, n)` or
    /// `bias.len() != n`.
    #[allow(clippy::too_many_arguments)]
    fn gemm_prepacked_bias(
        &self,
        m: usize,
        k: usize,
        n: usize,
        a: &[f64],
        pb: &PackedB,
        bias: &[f64],
        out: &mut [f64],
    ) {
        prepacked(self, m, k, n, a, pb, Some(bias), false, out);
    }

    /// [`gemm_prepacked_bias`](Self::gemm_prepacked_bias) with a **fused
    /// ReLU epilogue** appended after the bias: `out = relu(out + a·B +
    /// bias)` — the hidden-layer forward `relu(X·W + b)` in one pass.
    ///
    /// **Bit identity.** The packed cores store each output element
    /// exactly once, so clamping at the write-back reads the same value a
    /// separate ReLU pass would read; the clamp itself is the separate
    /// pass's `< 0` comparison (see `relu_rows` — `-0.0` and `NaN`
    /// survive untouched, a vector `max` would flip them). The fused call
    /// is therefore `to_bits`-identical to `gemm_prepacked_bias` followed
    /// by `relu_rows` on every backend (proptested). `Raw` handles and
    /// `k == 0` products run the unfused passes in that exact order
    /// instead.
    ///
    /// # Panics
    /// Panics when the handle's shape does not match `(k, n)` or
    /// `bias.len() != n`.
    #[allow(clippy::too_many_arguments)]
    fn gemm_prepacked_bias_relu(
        &self,
        m: usize,
        k: usize,
        n: usize,
        a: &[f64],
        pb: &PackedB,
        bias: &[f64],
        out: &mut [f64],
    ) {
        prepacked(self, m, k, n, a, pb, Some(bias), true, out);
    }
}

/// The straight-line reference backend: textbook `ikj` loops, no blocking,
/// no branches. Every other backend is tested against this one bit-for-bit.
#[derive(Debug, Default, Clone, Copy)]
pub struct NaiveKernel;

impl GemmBackend for NaiveKernel {
    fn name(&self) -> &'static str {
        "naive"
    }

    fn gemm(&self, m: usize, k: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(b.len(), k * n);
        debug_assert_eq!(out.len(), m * n);
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (p, &aip) in a_row.iter().enumerate() {
                let b_row = &b[p * n..(p + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += aip * bv;
                }
            }
        }
    }

    fn gemm_nt(&self, m: usize, k: usize, n: usize, a: &[f64], bt: &[f64], out: &mut [f64]) {
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(bt.len(), n * k);
        debug_assert_eq!(out.len(), m * n);
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (j, o) in out_row.iter_mut().enumerate() {
                let bt_row = &bt[j * k..(j + 1) * k];
                let mut acc = *o;
                for (&x, &y) in a_row.iter().zip(bt_row) {
                    acc += x * y;
                }
                *o = acc;
            }
        }
    }

    fn gemm_tn(&self, m: usize, k: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(b.len(), m * n);
        debug_assert_eq!(out.len(), k * n);
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let b_row = &b[i * n..(i + 1) * n];
            for (p, &aip) in a_row.iter().enumerate() {
                let out_row = &mut out[p * n..(p + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += aip * bv;
                }
            }
        }
    }

    fn matvec(&self, rows: usize, cols: usize, a: &[f64], v: &[f64], out: &mut [f64]) {
        debug_assert_eq!(a.len(), rows * cols);
        debug_assert_eq!(v.len(), cols);
        debug_assert_eq!(out.len(), rows);
        for (r, o) in out.iter_mut().enumerate() {
            let row = &a[r * cols..(r + 1) * cols];
            let mut acc = 0.0;
            for (&x, &y) in row.iter().zip(v) {
                acc += x * y;
            }
            *o = acc;
        }
    }

    fn matvec_t(&self, rows: usize, cols: usize, a: &[f64], v: &[f64], out: &mut [f64]) {
        debug_assert_eq!(a.len(), rows * cols);
        debug_assert_eq!(v.len(), rows);
        debug_assert_eq!(out.len(), cols);
        for (r, &vr) in v.iter().enumerate() {
            let row = &a[r * cols..(r + 1) * cols];
            for (o, &x) in out.iter_mut().zip(row) {
                *o += vr * x;
            }
        }
    }

    fn transpose(&self, rows: usize, cols: usize, a: &[f64], out: &mut [f64]) {
        debug_assert_eq!(a.len(), rows * cols);
        debug_assert_eq!(out.len(), rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                out[c * rows + r] = a[r * cols + c];
            }
        }
    }
}

/// The 4-wide core: cache-blocked and register-tiled. [`kernel`] runs its
/// `gemm` and `gemm_nt` for products four to seven columns wide, and from
/// four columns up on CPUs without AVX2 or AVX-512; its `gemm_tn` is
/// [`kernel`]'s.
///
/// `gemm` tiles the output columns (`NC`) and the reduction dimension
/// (`KC`) so a `KC × NC` panel of `B` stays cache-resident, processes
/// rows of `A` in pairs per panel pass, and micro-tiles the reduction four
/// `k` steps at a time — each output element is loaded into a register
/// once per 4 products instead of once per product. The adds inside a
/// micro-tile are issued in ascending `k` order, so results are
/// bit-identical to [`NaiveKernel`] (asserted by proptests).
#[derive(Debug, Default, Clone, Copy)]
pub struct BlockedKernel;

impl BlockedKernel {
    /// The packed dot core: `out += a · B` with `B` pre-packed into
    /// [`PW`]-wide panels. Every output element is accumulated in one
    /// register across the whole reduction (ascending `k`, bit-identical
    /// to naive) and written exactly once; panels are walked in
    /// cache-sized blocks so they stay in L2 while all rows of `A` stream
    /// over them. When `bias` is set, `bias[j]` is appended to each
    /// element's chain at that single write-back — the bits of a separate
    /// `add_bias_rows` pass — and `relu` then clamps the element with the
    /// [`relu_rows`] comparison, the bits of a separate ReLU pass.
    ///
    /// Runs at AVX width where the CPU has AVX ([`SimdWidth::run`]): the
    /// *same* Rust body compiled with 256-bit lanes enabled — per-lane
    /// accumulation chains are untouched (and Rust never contracts mul+add
    /// into FMA), so both copies are bit-identical; only throughput
    /// changes.
    #[allow(clippy::too_many_arguments)]
    fn packed_gemm(
        m: usize,
        k: usize,
        n: usize,
        a: &[f64],
        packed: &[f64],
        bias: Option<&[f64]>,
        relu: bool,
        out: &mut [f64],
    ) {
        SimdWidth::Avx.run(
            #[inline(always)]
            || Self::packed_gemm_body(m, k, n, a, packed, bias, relu, out),
        );
    }

    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn packed_gemm_body(
        m: usize,
        k: usize,
        n: usize,
        a: &[f64],
        packed: &[f64],
        bias: Option<&[f64]>,
        relu: bool,
        out: &mut [f64],
    ) {
        let panels = n.div_ceil(PW);
        let panel_len = k * PW;
        let block = (PANEL_BLOCK_BYTES / (panel_len * 8)).max(1);
        for qb in (0..panels).step_by(block) {
            let qe = (qb + block).min(panels);
            // Row pairs share every panel load (the 2×2 micro-tile keeps
            // 16 accumulator lanes live); odd trailing rows take the
            // single-row kernel.
            let mut i = 0;
            while i + 2 <= m {
                let (head, tail) = out.split_at_mut((i + 1) * n);
                Self::row_pair_block(
                    k,
                    n,
                    qb,
                    qe,
                    &a[i * k..(i + 1) * k],
                    &a[(i + 1) * k..(i + 2) * k],
                    packed,
                    bias,
                    relu,
                    &mut head[i * n..],
                    &mut tail[..n],
                );
                i += 2;
            }
            if i < m {
                Self::row_block(
                    k,
                    n,
                    qb,
                    qe,
                    &a[i * k..(i + 1) * k],
                    packed,
                    bias,
                    relu,
                    &mut out[i * n..(i + 1) * n],
                );
            }
        }
    }

    /// One output row over the panel block `qb..qe` (single-row kernel).
    /// When `bias` is set, `bias[j]` is added after the reduction, right
    /// before each lane's single store; `relu` then clamps the lane with
    /// the [`relu_rows`] comparison at the same write-back.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn row_block(
        k: usize,
        n: usize,
        qb: usize,
        qe: usize,
        a_row: &[f64],
        packed: &[f64],
        bias: Option<&[f64]>,
        relu: bool,
        out_row: &mut [f64],
    ) {
        let panel_len = k * PW;
        let mut q = qb;
        // Pairs of full panels: two 4-lane accumulator groups (8
        // independent chains) hide add latency; lane loads are contiguous
        // `[f64; PW]` groups, so the loop maps onto SIMD broadcast·panel.
        while q + 2 <= qe && (q + 2) * PW <= n {
            let p0 = &packed[q * panel_len..(q + 1) * panel_len];
            let p1 = &packed[(q + 1) * panel_len..(q + 2) * panel_len];
            let o = &mut out_row[q * PW..(q + 2) * PW];
            let mut acc0: [f64; PW] = o[..PW].try_into().expect("lane group");
            let mut acc1: [f64; PW] = o[PW..].try_into().expect("lane group");
            for ((&x, g0), g1) in a_row
                .iter()
                .zip(p0.chunks_exact(PW))
                .zip(p1.chunks_exact(PW))
            {
                for l in 0..PW {
                    acc0[l] += x * g0[l];
                }
                for l in 0..PW {
                    acc1[l] += x * g1[l];
                }
            }
            if let Some(b) = bias {
                for l in 0..PW {
                    acc0[l] += b[q * PW + l];
                }
                for l in 0..PW {
                    acc1[l] += b[(q + 1) * PW + l];
                }
            }
            if relu {
                for l in 0..PW {
                    if acc0[l] < 0.0 {
                        acc0[l] = 0.0;
                    }
                    if acc1[l] < 0.0 {
                        acc1[l] = 0.0;
                    }
                }
            }
            o[..PW].copy_from_slice(&acc0);
            o[PW..].copy_from_slice(&acc1);
            q += 2;
        }
        // Lone full panel.
        if q < qe && (q + 1) * PW <= n {
            let p0 = &packed[q * panel_len..(q + 1) * panel_len];
            let o = &mut out_row[q * PW..(q + 1) * PW];
            let mut acc: [f64; PW] = o[..].try_into().expect("lane group");
            for (&x, g) in a_row.iter().zip(p0.chunks_exact(PW)) {
                for l in 0..PW {
                    acc[l] += x * g[l];
                }
            }
            if let Some(b) = bias {
                for l in 0..PW {
                    acc[l] += b[q * PW + l];
                }
            }
            if relu {
                for l in 0..PW {
                    if acc[l] < 0.0 {
                        acc[l] = 0.0;
                    }
                }
            }
            o.copy_from_slice(&acc);
            q += 1;
        }
        // Narrow tail panel (n % PW columns).
        if q < qe {
            let w = n - q * PW;
            let p0 = &packed[q * panel_len..(q + 1) * panel_len];
            let o = &mut out_row[q * PW..q * PW + w];
            for (lane, ov) in o.iter_mut().enumerate() {
                let mut acc = *ov;
                for (step, &x) in a_row.iter().enumerate() {
                    acc += x * p0[step * PW + lane];
                }
                if let Some(b) = bias {
                    acc += b[q * PW + lane];
                }
                if relu && acc < 0.0 {
                    acc = 0.0;
                }
                *ov = acc;
            }
        }
    }

    /// Two output rows over the panel block `qb..qe`: the 2-row × 2-panel
    /// micro-tile loads each packed lane group once for both rows,
    /// halving panel traffic. Leftover panels fall back to the single-row
    /// kernel per row.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn row_pair_block(
        k: usize,
        n: usize,
        qb: usize,
        qe: usize,
        a0: &[f64],
        a1: &[f64],
        packed: &[f64],
        bias: Option<&[f64]>,
        relu: bool,
        out0: &mut [f64],
        out1: &mut [f64],
    ) {
        let panel_len = k * PW;
        let mut q = qb;
        while q + 2 <= qe && (q + 2) * PW <= n {
            let p0 = &packed[q * panel_len..(q + 1) * panel_len];
            let p1 = &packed[(q + 1) * panel_len..(q + 2) * panel_len];
            let o0 = &mut out0[q * PW..(q + 2) * PW];
            let o1 = &mut out1[q * PW..(q + 2) * PW];
            let mut r0p0: [f64; PW] = o0[..PW].try_into().expect("lane group");
            let mut r0p1: [f64; PW] = o0[PW..].try_into().expect("lane group");
            let mut r1p0: [f64; PW] = o1[..PW].try_into().expect("lane group");
            let mut r1p1: [f64; PW] = o1[PW..].try_into().expect("lane group");
            for (((&x0, &x1), g0), g1) in a0
                .iter()
                .zip(a1)
                .zip(p0.chunks_exact(PW))
                .zip(p1.chunks_exact(PW))
            {
                for l in 0..PW {
                    r0p0[l] += x0 * g0[l];
                }
                for l in 0..PW {
                    r0p1[l] += x0 * g1[l];
                }
                for l in 0..PW {
                    r1p0[l] += x1 * g0[l];
                }
                for l in 0..PW {
                    r1p1[l] += x1 * g1[l];
                }
            }
            if let Some(b) = bias {
                for l in 0..PW {
                    r0p0[l] += b[q * PW + l];
                }
                for l in 0..PW {
                    r0p1[l] += b[(q + 1) * PW + l];
                }
                for l in 0..PW {
                    r1p0[l] += b[q * PW + l];
                }
                for l in 0..PW {
                    r1p1[l] += b[(q + 1) * PW + l];
                }
            }
            if relu {
                for l in 0..PW {
                    if r0p0[l] < 0.0 {
                        r0p0[l] = 0.0;
                    }
                    if r0p1[l] < 0.0 {
                        r0p1[l] = 0.0;
                    }
                    if r1p0[l] < 0.0 {
                        r1p0[l] = 0.0;
                    }
                    if r1p1[l] < 0.0 {
                        r1p1[l] = 0.0;
                    }
                }
            }
            o0[..PW].copy_from_slice(&r0p0);
            o0[PW..].copy_from_slice(&r0p1);
            o1[..PW].copy_from_slice(&r1p0);
            o1[PW..].copy_from_slice(&r1p1);
            q += 2;
        }
        if q < qe {
            Self::row_block(k, n, q, qe, a0, packed, bias, relu, out0);
            Self::row_block(k, n, q, qe, a1, packed, bias, relu, out1);
        }
    }

    /// Register-tiled axpy fallback for row counts too small to amortize
    /// packing: tiles `k` ([`KC`]) and the output columns ([`NC`]), and
    /// micro-tiles the reduction four steps at a time so each output
    /// element is loaded once per 4 products. Adds stay in ascending `k`
    /// order.
    fn axpy_gemm(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
        for jc in (0..n).step_by(NC) {
            let w = NC.min(n - jc);
            for kc in (0..k).step_by(KC) {
                let kw = KC.min(k - kc);
                for i in 0..m {
                    let out_row = &mut out[i * n + jc..i * n + jc + w];
                    let a_seg = &a[i * k + kc..i * k + kc + kw];
                    let mut p = 0;
                    while p + 4 <= kw {
                        let (x0, x1, x2, x3) = (a_seg[p], a_seg[p + 1], a_seg[p + 2], a_seg[p + 3]);
                        let b0 = &b[(kc + p) * n + jc..(kc + p) * n + jc + w];
                        let b1 = &b[(kc + p + 1) * n + jc..(kc + p + 1) * n + jc + w];
                        let b2 = &b[(kc + p + 2) * n + jc..(kc + p + 2) * n + jc + w];
                        let b3 = &b[(kc + p + 3) * n + jc..(kc + p + 3) * n + jc + w];
                        for j in 0..w {
                            let mut o = out_row[j];
                            o += x0 * b0[j];
                            o += x1 * b1[j];
                            o += x2 * b2[j];
                            o += x3 * b3[j];
                            out_row[j] = o;
                        }
                        p += 4;
                    }
                    while p < kw {
                        let x = a_seg[p];
                        let brow = &b[(kc + p) * n + jc..(kc + p) * n + jc + w];
                        for (o, &bv) in out_row.iter_mut().zip(brow) {
                            *o += x * bv;
                        }
                        p += 1;
                    }
                }
            }
        }
    }
}

impl GemmBackend for BlockedKernel {
    fn name(&self) -> &'static str {
        "blocked"
    }

    fn gemm(&self, m: usize, k: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(b.len(), k * n);
        debug_assert_eq!(out.len(), m * n);
        if m == 0 || k == 0 || n == 0 {
            return;
        }
        if m < PACK_MIN_ROWS {
            Self::axpy_gemm(m, k, n, a, b, out);
            return;
        }
        let mut packed = Vec::new();
        pack_panels_into::<PW>(k, n, b, &mut packed);
        Self::packed_gemm(m, k, n, a, &packed, None, false, out);
    }

    fn gemm_nt(&self, m: usize, k: usize, n: usize, a: &[f64], bt: &[f64], out: &mut [f64]) {
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(bt.len(), n * k);
        debug_assert_eq!(out.len(), m * n);
        if m == 0 || k == 0 || n == 0 {
            return;
        }
        let mut packed = Vec::new();
        pack_panels_t_into::<PW>(k, n, bt, &mut packed);
        Self::packed_gemm(m, k, n, a, &packed, None, false, out);
    }

    fn gemm_tn(&self, m: usize, k: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
        // The 4-wide core reads contiguous rows of `Aᵀ` and packed panels,
        // so its `gemm_tn` would transpose `A` and pack `B` first; the
        // production walks read both in place.
        AutoKernel.gemm_tn(m, k, n, a, b, out);
    }

    fn matvec(&self, rows: usize, cols: usize, a: &[f64], v: &[f64], out: &mut [f64]) {
        debug_assert_eq!(a.len(), rows * cols);
        debug_assert_eq!(v.len(), cols);
        debug_assert_eq!(out.len(), rows);
        // Row pairs share the streamed v loads; per-row accumulation stays
        // ascending-k, so bits match the naive dot.
        let mut r = 0;
        while r + 2 <= rows {
            let row0 = &a[r * cols..(r + 1) * cols];
            let row1 = &a[(r + 1) * cols..(r + 2) * cols];
            let mut acc0 = 0.0;
            let mut acc1 = 0.0;
            for (p, &vv) in v.iter().enumerate() {
                acc0 += row0[p] * vv;
                acc1 += row1[p] * vv;
            }
            out[r] = acc0;
            out[r + 1] = acc1;
            r += 2;
        }
        if r < rows {
            let row = &a[r * cols..(r + 1) * cols];
            let mut acc = 0.0;
            for (&x, &y) in row.iter().zip(v) {
                acc += x * y;
            }
            out[r] = acc;
        }
    }

    fn matvec_t(&self, rows: usize, cols: usize, a: &[f64], v: &[f64], out: &mut [f64]) {
        debug_assert_eq!(a.len(), rows * cols);
        debug_assert_eq!(v.len(), rows);
        debug_assert_eq!(out.len(), cols);
        let mut r = 0;
        while r + 2 <= rows {
            let (v0, v1) = (v[r], v[r + 1]);
            let row0 = &a[r * cols..(r + 1) * cols];
            let row1 = &a[(r + 1) * cols..(r + 2) * cols];
            for (c, o) in out.iter_mut().enumerate() {
                let mut acc = *o;
                acc += v0 * row0[c];
                acc += v1 * row1[c];
                *o = acc;
            }
            r += 2;
        }
        if r < rows {
            let vr = v[r];
            let row = &a[r * cols..(r + 1) * cols];
            for (o, &x) in out.iter_mut().zip(row) {
                *o += vr * x;
            }
        }
    }

    fn pack_b_into(&self, k: usize, n: usize, b: &[f64], dst: &mut PackedB) {
        debug_assert_eq!(b.len(), k * n);
        dst.layout = PackLayout::Panels4;
        dst.k = k;
        dst.n = n;
        pack_panels_into::<PW>(k, n, b, &mut dst.data);
    }

    fn pack_b_t_into(&self, k: usize, n: usize, bt: &[f64], dst: &mut PackedB) {
        debug_assert_eq!(bt.len(), n * k);
        dst.layout = PackLayout::Panels4;
        dst.k = k;
        dst.n = n;
        pack_panels_t_into::<PW>(k, n, bt, &mut dst.data);
    }

    fn transpose(&self, rows: usize, cols: usize, a: &[f64], out: &mut [f64]) {
        debug_assert_eq!(a.len(), rows * cols);
        debug_assert_eq!(out.len(), rows * cols);
        // Blocked swap: both the strided reads and the strided writes stay
        // inside a TB×TB tile that fits L1, instead of walking a whole
        // column per output row.
        for rb in (0..rows).step_by(TB) {
            let rh = TB.min(rows - rb);
            for cb in (0..cols).step_by(TB) {
                let cw = TB.min(cols - cb);
                for r in rb..rb + rh {
                    let row = &a[r * cols + cb..r * cols + cb + cw];
                    for (dc, &x) in row.iter().enumerate() {
                        out[(cb + dc) * rows + r] = x;
                    }
                }
            }
        }
    }
}

/// The 8-wide core: AVX2 intrinsics with an AVX-512 path where the CPU
/// offers one, selected at runtime. [`kernel`] runs it for products at
/// least eight columns wide.
///
/// The vector lanes map to **distinct output columns** — eight at a time,
/// packed like [`BlockedKernel`]'s panels but `SPW`-wide — and every
/// output element keeps its own ascending-`k` multiply/add chain (no FMA
/// contraction, no horizontal reductions). The scalar fallback mirrors the
/// lane arithmetic exactly, so `simd` is bit-identical to [`NaiveKernel`]
/// on every target; only throughput differs between the AVX2, AVX-512, and
/// scalar instantiations. From 8 columns up, `gemm_tn` runs the same
/// micro-kernels on `A` and `B` where they lie, with no transpose or pack;
/// below 8 it is [`kernel`]'s narrow walk.
#[derive(Debug, Default, Clone, Copy)]
pub struct SimdKernel;

/// Where the 8-wide core reads the operands of `out += L·R`, for an `L`
/// of `rows × depth` and an `R` of `depth × n`: `L[r][p]` is
/// `a[r·arow + p·astep]`, and step `p` of `R`'s column panel `q` (columns
/// `SPW·q ..`) starts at `b[q·qstride + p·ldb]`. The walk and its
/// micro-kernels read every product through this one addressing.
#[derive(Debug, Clone, Copy)]
struct Operands<'a> {
    a: &'a [f64],
    arow: usize,
    astep: usize,
    b: &'a [f64],
    ldb: usize,
    qstride: usize,
}

impl<'a> Operands<'a> {
    /// Row-major `a` (`k` columns) against `B` packed into [`SPW`]-wide
    /// panels ([`pack_panels_into`], [`pack_panels_t_into`]).
    fn packed(k: usize, a: &'a [f64], panels: &'a [f64]) -> Self {
        Operands {
            a,
            arow: k,
            astep: 1,
            b: panels,
            ldb: SPW,
            qstride: k * SPW,
        }
    }

    /// `aᵀ·b` for `a: m×k` and `b: m×n`, neither copied: row `r` of `L` is
    /// column `r` of `a`, and step `p` of `R` is row `p` of `b`.
    fn tn(k: usize, n: usize, a: &'a [f64], b: &'a [f64]) -> Self {
        Operands {
            a,
            arow: 1,
            astep: k,
            b,
            ldb: n,
            qstride: SPW,
        }
    }

    /// Panics unless every element a `rows × depth` by `depth × n` walk
    /// reads lies inside the operands: the last row's last step of `L`,
    /// and the last step of `R`'s last panel (whose live lanes end the
    /// farthest read; a full panel before it ends at least `qstride`
    /// elements earlier). The micro-kernels read through raw pointers, so
    /// this check is what keeps them in bounds; its arithmetic is checked,
    /// so no dimensions can wrap past it.
    fn assert_covers(&self, rows: usize, depth: usize, n: usize) {
        if rows == 0 || depth == 0 || n == 0 {
            return;
        }
        // One past the last element read: `tail + Σ index·stride`.
        let end = |terms: [(usize, usize); 2], tail: usize| {
            terms.iter().try_fold(tail, |acc, &(i, stride)| {
                i.checked_mul(stride)?.checked_add(acc)
            })
        };
        let last = (n - 1) / SPW;
        assert!(
            end([(rows - 1, self.arow), (depth - 1, self.astep)], 1)
                .is_some_and(|e| e <= self.a.len()),
            "left operand too short for a {rows}x{depth} walk"
        );
        assert!(
            end(
                [(last, self.qstride), (depth - 1, self.ldb)],
                n - last * SPW
            )
            .is_some_and(|e| e <= self.b.len()),
            "right operand too short for a {depth}x{n} walk"
        );
    }
}

impl SimdKernel {
    /// `out += L·R` for the `rows × depth` by `depth × n` operands `ops`
    /// describes, on the `width` path. The width is capped at the detected
    /// one, so a test can run a narrower path on a wider host but nothing
    /// can run a path the CPU lacks. All paths accumulate each output
    /// element in ascending `p` order in one register chain, so their bits
    /// agree. `bias` and `relu` are the fused epilogues of
    /// [`BlockedKernel`]'s core, appended at each element's single
    /// write-back; the vector ReLU is a `< 0` blend, not a `max`, so `-0.0`
    /// and `NaN` keep their bits as in [`relu_rows`].
    #[allow(clippy::too_many_arguments)]
    fn walk(
        width: SimdWidth,
        rows: usize,
        depth: usize,
        n: usize,
        ops: Operands<'_>,
        bias: Option<&[f64]>,
        relu: bool,
        out: &mut [f64],
    ) {
        ops.assert_covers(rows, depth, n);
        assert!(
            rows.checked_mul(n).is_some_and(|len| len <= out.len()),
            "output too short"
        );
        assert!(bias.is_none_or(|b| b.len() >= n), "bias too short");
        match width.min(SimdWidth::detected()) {
            // SAFETY: the width is capped at the one detected at runtime,
            // and the operands, `out` and `bias` cover every tile the walk
            // visits (asserted above).
            #[cfg(target_arch = "x86_64")]
            SimdWidth::Avx512 => unsafe { Self::walk_avx512(rows, depth, n, ops, bias, relu, out) },
            // SAFETY: as above.
            #[cfg(target_arch = "x86_64")]
            SimdWidth::Avx2 => unsafe { Self::walk_avx2(rows, depth, n, ops, bias, relu, out) },
            _ => Self::walk_scalar(rows, depth, n, ops, bias, relu, out),
        }
    }

    /// Panels per L2 block of a `depth`-step walk: the run of panels kept
    /// hot while every row of `L` streams over them.
    fn panel_block(depth: usize) -> usize {
        (SIMD_PANEL_BLOCK_BYTES / (depth * SPW * 8).max(1)).max(1)
    }

    /// Scalar mirror of the vector paths: same panel walk, same per-element
    /// ascending-`p` chains, lane loops written out by hand.
    fn walk_scalar(
        rows: usize,
        depth: usize,
        n: usize,
        ops: Operands<'_>,
        bias: Option<&[f64]>,
        relu: bool,
        out: &mut [f64],
    ) {
        let panels = n.div_ceil(SPW);
        let block = Self::panel_block(depth);
        for qb in (0..panels).step_by(block) {
            let qe = (qb + block).min(panels);
            for r in 0..rows {
                for q in qb..qe {
                    Self::panel_row_scalar(depth, n, &ops, r, q, bias, relu, out);
                }
            }
        }
    }

    /// Row `r` of `L` × panel `q` of `R`, scalar: the shared tail/fallback
    /// body. Each live lane (eight, or `n`'s remainder in a tail panel)
    /// accumulates across the whole reduction in ascending `p` order and
    /// is stored once; `bias` is appended just before the store, and
    /// `relu` clamps each lane with the [`relu_rows`] comparison right
    /// after.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn panel_row_scalar(
        depth: usize,
        n: usize,
        ops: &Operands<'_>,
        r: usize,
        q: usize,
        bias: Option<&[f64]>,
        relu: bool,
        out: &mut [f64],
    ) {
        let j0 = q * SPW;
        let w = SPW.min(n - j0);
        let out_seg = &mut out[r * n + j0..r * n + j0 + w];
        let mut acc = [0.0; SPW];
        acc[..w].copy_from_slice(out_seg);
        let (a, b) = (&ops.a[r * ops.arow..], &ops.b[q * ops.qstride..]);
        if ops.astep == 1 && ops.ldb == SPW {
            // A packed product: contiguous steps the compiler can walk
            // without per-step bounds checks, about twice as fast.
            for (&x, g) in a[..depth].iter().zip(b.chunks_exact(SPW)) {
                for l in 0..w {
                    acc[l] += x * g[l];
                }
            }
        } else if w == SPW {
            // A full panel read in place (`gemm_tn`): eight lanes known at
            // compile time, which the compiler keeps in vector registers.
            for p in 0..depth {
                let x = a[p * ops.astep];
                let g = &b[p * ops.ldb..][..SPW];
                for l in 0..SPW {
                    acc[l] += x * g[l];
                }
            }
        } else {
            for p in 0..depth {
                let x = a[p * ops.astep];
                let g = &b[p * ops.ldb..][..w];
                for l in 0..w {
                    acc[l] += x * g[l];
                }
            }
        }
        if let Some(b) = bias {
            for (o, &bv) in acc[..w].iter_mut().zip(&b[j0..]) {
                *o += bv;
            }
        }
        if relu {
            for o in &mut acc[..w] {
                if *o < 0.0 {
                    *o = 0.0;
                }
            }
        }
        out_seg.copy_from_slice(&acc[..w]);
    }

    /// AVX2 instantiation: 4 rows × 8 columns per micro-tile (eight 256-bit
    /// accumulators), remainder rows one at a time, narrow tail panels via
    /// the scalar body.
    ///
    /// # Safety
    /// The caller must ensure the CPU supports AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn walk_avx2(
        rows: usize,
        depth: usize,
        n: usize,
        ops: Operands<'_>,
        bias: Option<&[f64]>,
        relu: bool,
        out: &mut [f64],
    ) {
        let panels = n.div_ceil(SPW);
        let full = n / SPW;
        let block = Self::panel_block(depth);
        for qb in (0..panels).step_by(block) {
            let qe = (qb + block).min(panels);
            let mut i = 0;
            while i + 4 <= rows {
                for q in qb..qe {
                    if q < full {
                        Self::mk4x8_avx2(depth, n, &ops, i, q, bias, relu, out);
                    } else {
                        for r in i..i + 4 {
                            Self::panel_row_scalar(depth, n, &ops, r, q, bias, relu, out);
                        }
                    }
                }
                i += 4;
            }
            for r in i..rows {
                for q in qb..qe {
                    if q < full {
                        Self::mk1x8_avx2(depth, n, &ops, r, q, bias, relu, out);
                    } else {
                        Self::panel_row_scalar(depth, n, &ops, r, q, bias, relu, out);
                    }
                }
            }
        }
    }

    /// 4-row × 8-column AVX2 micro-kernel: rows `i..i + 4` of `L` over the
    /// full panel `q`, eight independent accumulator vectors (one per row
    /// × half-panel), each lane one output element, loads/stores exactly
    /// once.
    ///
    /// # Safety
    /// Requires AVX2; `ops` must describe `depth` reduction steps, rows
    /// `i..i + 4` must be rows of `L`, panel `q` must be full
    /// (`SPW·(q + 1) ≤ n`), `out` must hold `L`'s rows × `n` columns, and
    /// `bias`, when set, `n` values.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn mk4x8_avx2(
        depth: usize,
        n: usize,
        ops: &Operands<'_>,
        i: usize,
        q: usize,
        bias: Option<&[f64]>,
        relu: bool,
        out: &mut [f64],
    ) {
        use std::arch::x86_64::*;
        let (astep, arow, ldb) = (ops.astep, ops.arow, ops.ldb);
        let a = ops.a.as_ptr().add(i * arow);
        let panel = ops.b.as_ptr().add(q * ops.qstride);
        let bias = bias_ptr(bias, q * SPW);
        let ldo = n;
        let out = out.as_mut_ptr().add(i * ldo + q * SPW);
        let mut acc00 = _mm256_loadu_pd(out);
        let mut acc01 = _mm256_loadu_pd(out.add(4));
        let mut acc10 = _mm256_loadu_pd(out.add(ldo));
        let mut acc11 = _mm256_loadu_pd(out.add(ldo + 4));
        let mut acc20 = _mm256_loadu_pd(out.add(2 * ldo));
        let mut acc21 = _mm256_loadu_pd(out.add(2 * ldo + 4));
        let mut acc30 = _mm256_loadu_pd(out.add(3 * ldo));
        let mut acc31 = _mm256_loadu_pd(out.add(3 * ldo + 4));
        for p in 0..depth {
            let b0 = _mm256_loadu_pd(panel.add(p * ldb));
            let b1 = _mm256_loadu_pd(panel.add(p * ldb + 4));
            let ap = a.add(p * astep);
            let a0 = _mm256_set1_pd(*ap);
            acc00 = _mm256_add_pd(acc00, _mm256_mul_pd(a0, b0));
            acc01 = _mm256_add_pd(acc01, _mm256_mul_pd(a0, b1));
            let a1 = _mm256_set1_pd(*ap.add(arow));
            acc10 = _mm256_add_pd(acc10, _mm256_mul_pd(a1, b0));
            acc11 = _mm256_add_pd(acc11, _mm256_mul_pd(a1, b1));
            let a2 = _mm256_set1_pd(*ap.add(2 * arow));
            acc20 = _mm256_add_pd(acc20, _mm256_mul_pd(a2, b0));
            acc21 = _mm256_add_pd(acc21, _mm256_mul_pd(a2, b1));
            let a3 = _mm256_set1_pd(*ap.add(3 * arow));
            acc30 = _mm256_add_pd(acc30, _mm256_mul_pd(a3, b0));
            acc31 = _mm256_add_pd(acc31, _mm256_mul_pd(a3, b1));
        }
        if !bias.is_null() {
            // Fused epilogue: append the bias to the end of each lane's
            // accumulation chain — exactly where the separate pass adds it.
            let bv0 = _mm256_loadu_pd(bias);
            let bv1 = _mm256_loadu_pd(bias.add(4));
            acc00 = _mm256_add_pd(acc00, bv0);
            acc01 = _mm256_add_pd(acc01, bv1);
            acc10 = _mm256_add_pd(acc10, bv0);
            acc11 = _mm256_add_pd(acc11, bv1);
            acc20 = _mm256_add_pd(acc20, bv0);
            acc21 = _mm256_add_pd(acc21, bv1);
            acc30 = _mm256_add_pd(acc30, bv0);
            acc31 = _mm256_add_pd(acc31, bv1);
        }
        if relu {
            // Fused ReLU epilogue: a `< 0` blend against zero — the exact
            // comparison the scalar pass uses, so `-0.0`/`NaN` lanes keep
            // their bits (a `max` would not).
            let z = _mm256_setzero_pd();
            acc00 = _mm256_blendv_pd(acc00, z, _mm256_cmp_pd(acc00, z, _CMP_LT_OQ));
            acc01 = _mm256_blendv_pd(acc01, z, _mm256_cmp_pd(acc01, z, _CMP_LT_OQ));
            acc10 = _mm256_blendv_pd(acc10, z, _mm256_cmp_pd(acc10, z, _CMP_LT_OQ));
            acc11 = _mm256_blendv_pd(acc11, z, _mm256_cmp_pd(acc11, z, _CMP_LT_OQ));
            acc20 = _mm256_blendv_pd(acc20, z, _mm256_cmp_pd(acc20, z, _CMP_LT_OQ));
            acc21 = _mm256_blendv_pd(acc21, z, _mm256_cmp_pd(acc21, z, _CMP_LT_OQ));
            acc30 = _mm256_blendv_pd(acc30, z, _mm256_cmp_pd(acc30, z, _CMP_LT_OQ));
            acc31 = _mm256_blendv_pd(acc31, z, _mm256_cmp_pd(acc31, z, _CMP_LT_OQ));
        }
        _mm256_storeu_pd(out, acc00);
        _mm256_storeu_pd(out.add(4), acc01);
        _mm256_storeu_pd(out.add(ldo), acc10);
        _mm256_storeu_pd(out.add(ldo + 4), acc11);
        _mm256_storeu_pd(out.add(2 * ldo), acc20);
        _mm256_storeu_pd(out.add(2 * ldo + 4), acc21);
        _mm256_storeu_pd(out.add(3 * ldo), acc30);
        _mm256_storeu_pd(out.add(3 * ldo + 4), acc31);
    }

    /// Single-row AVX2 micro-kernel: row `i` of `L` over the full panel
    /// `q`.
    ///
    /// # Safety
    /// As [`Self::mk4x8_avx2`], for the one row `i`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn mk1x8_avx2(
        depth: usize,
        n: usize,
        ops: &Operands<'_>,
        i: usize,
        q: usize,
        bias: Option<&[f64]>,
        relu: bool,
        out: &mut [f64],
    ) {
        use std::arch::x86_64::*;
        let (astep, ldb) = (ops.astep, ops.ldb);
        let a = ops.a.as_ptr().add(i * ops.arow);
        let panel = ops.b.as_ptr().add(q * ops.qstride);
        let bias = bias_ptr(bias, q * SPW);
        let out = out.as_mut_ptr().add(i * n + q * SPW);
        let mut acc0 = _mm256_loadu_pd(out);
        let mut acc1 = _mm256_loadu_pd(out.add(4));
        for p in 0..depth {
            let av = _mm256_set1_pd(*a.add(p * astep));
            let b0 = _mm256_loadu_pd(panel.add(p * ldb));
            let b1 = _mm256_loadu_pd(panel.add(p * ldb + 4));
            acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(av, b0));
            acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(av, b1));
        }
        if !bias.is_null() {
            acc0 = _mm256_add_pd(acc0, _mm256_loadu_pd(bias));
            acc1 = _mm256_add_pd(acc1, _mm256_loadu_pd(bias.add(4)));
        }
        if relu {
            let z = _mm256_setzero_pd();
            acc0 = _mm256_blendv_pd(acc0, z, _mm256_cmp_pd(acc0, z, _CMP_LT_OQ));
            acc1 = _mm256_blendv_pd(acc1, z, _mm256_cmp_pd(acc1, z, _CMP_LT_OQ));
        }
        _mm256_storeu_pd(out, acc0);
        _mm256_storeu_pd(out.add(4), acc1);
    }

    /// AVX-512 instantiation: a full panel is exactly one 512-bit vector,
    /// so the main micro-tile is 8 rows × 3 panels (24 zmm accumulators),
    /// with pair/single tiles for edges and remainder rows one at a time.
    ///
    /// # Safety
    /// The caller must ensure the CPU supports AVX-512F.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn walk_avx512(
        rows: usize,
        depth: usize,
        n: usize,
        ops: Operands<'_>,
        bias: Option<&[f64]>,
        relu: bool,
        out: &mut [f64],
    ) {
        let panels = n.div_ceil(SPW);
        let full = n / SPW;
        // Round the L2 block down to a multiple of three panels so a full
        // block decomposes into the main (8×24) tiles only; narrower
        // tiles amortize the `L` broadcasts over less arithmetic and are
        // kept for the edges.
        let block = (Self::panel_block(depth).max(3) / 3) * 3;
        for qb in (0..panels).step_by(block) {
            let qe = (qb + block).min(panels);
            // The block's full panels end at `fe`; a tail panel, if any,
            // is the last panel of the last block.
            let fe = qe.min(full);
            let mut i = 0;
            while i + 8 <= rows {
                // Panel triples first (8 rows × 3 panels = 24 zmm
                // accumulators, each broadcast of `L` feeding three
                // vectors), then a pair, a single and the tail.
                let mut q = qb;
                while q + 3 <= fe {
                    Self::mk_avx512::<8, 3>(depth, n, &ops, i, q, bias, relu, out);
                    q += 3;
                }
                if q + 2 <= fe {
                    Self::mk_avx512::<8, 2>(depth, n, &ops, i, q, bias, relu, out);
                    q += 2;
                }
                if q < fe {
                    Self::mk_avx512::<8, 1>(depth, n, &ops, i, q, bias, relu, out);
                    q += 1;
                }
                if q < qe {
                    for r in i..i + 8 {
                        Self::panel_row_scalar(depth, n, &ops, r, q, bias, relu, out);
                    }
                }
                i += 8;
            }
            for r in i..rows {
                for q in qb..qe {
                    if q < full {
                        Self::mk_avx512::<1, 1>(depth, n, &ops, r, q, bias, relu, out);
                    } else {
                        Self::panel_row_scalar(depth, n, &ops, r, q, bias, relu, out);
                    }
                }
            }
        }
    }

    /// The const-generic AVX-512 micro-kernel: rows `i..i + R` of `L` ×
    /// the `P` full panels from `q` (`R·P` zmm accumulators, one per
    /// 8-wide output group). Each broadcast of `L` feeds `P` vectors, so
    /// load-port µops per output update shrink as the tile widens; the
    /// main tile is 8×3 (24 accumulators + 3 panel registers + 1
    /// broadcast). Every accumulator is one output group's ascending-`p`
    /// chain, loaded and stored exactly once, so any `(R, P)` choice
    /// produces identical bits.
    ///
    /// # Safety
    /// Requires AVX-512F; `ops` must describe `depth` reduction steps, rows
    /// `i..i + R` must be rows of `L`, panels `q..q + P` must be full
    /// (`SPW·(q + P) ≤ n`), `out` must hold `L`'s rows × `n` columns, and
    /// `bias`, when set, `n` values. `L[r][p]` is read at
    /// `a[r·arow + p·astep]` (`arow = k, astep = 1` for row-major `A`;
    /// `arow = 1, astep = k` for the columns of `gemm_tn`'s `A`) and panel
    /// `q + c`'s step `p` at `b[(q + c)·qstride + p·ldb]`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    #[allow(clippy::needless_range_loop)]
    unsafe fn mk_avx512<const R: usize, const P: usize>(
        depth: usize,
        n: usize,
        ops: &Operands<'_>,
        i: usize,
        q: usize,
        bias: Option<&[f64]>,
        relu: bool,
        out: &mut [f64],
    ) {
        use std::arch::x86_64::*;
        let (astep, arow, ldb, qstride) = (ops.astep, ops.arow, ops.ldb, ops.qstride);
        let a = ops.a.as_ptr().add(i * arow);
        let panels = ops.b.as_ptr().add(q * qstride);
        let bias = bias_ptr(bias, q * SPW);
        let ldo = n;
        let out = out.as_mut_ptr().add(i * ldo + q * SPW);
        let mut acc = [[_mm512_setzero_pd(); P]; R];
        for r in 0..R {
            for c in 0..P {
                acc[r][c] = _mm512_loadu_pd(out.add(r * ldo + c * SPW));
            }
        }
        // Two reduction steps per iteration (halved loop overhead); per
        // output element the adds still land in ascending `p` order, so
        // the unroll is invisible to the bit-identity contract.
        let mut p = 0;
        while p + 2 <= depth {
            for step in [p, p + 1] {
                let mut b = [_mm512_setzero_pd(); P];
                for c in 0..P {
                    b[c] = _mm512_loadu_pd(panels.add(c * qstride + step * ldb));
                }
                for r in 0..R {
                    let av = _mm512_set1_pd(*a.add(step * astep + r * arow));
                    for c in 0..P {
                        acc[r][c] = _mm512_add_pd(acc[r][c], _mm512_mul_pd(av, b[c]));
                    }
                }
            }
            p += 2;
        }
        if p < depth {
            let mut b = [_mm512_setzero_pd(); P];
            for c in 0..P {
                b[c] = _mm512_loadu_pd(panels.add(c * qstride + p * ldb));
            }
            for r in 0..R {
                let av = _mm512_set1_pd(*a.add(p * astep + r * arow));
                for c in 0..P {
                    acc[r][c] = _mm512_add_pd(acc[r][c], _mm512_mul_pd(av, b[c]));
                }
            }
        }
        if !bias.is_null() {
            // Fused epilogue: one bias vector per panel, appended to the
            // end of every row's accumulation chain before the store.
            let mut bv = [_mm512_setzero_pd(); P];
            for c in 0..P {
                bv[c] = _mm512_loadu_pd(bias.add(c * SPW));
            }
            for r in 0..R {
                for c in 0..P {
                    acc[r][c] = _mm512_add_pd(acc[r][c], bv[c]);
                }
            }
        }
        if relu {
            // Fused ReLU epilogue: a `< 0` masked move against zero — the
            // exact comparison of the scalar pass (`-0.0`/`NaN` lanes keep
            // their bits; a `max` would not).
            let z = _mm512_setzero_pd();
            for r in 0..R {
                for c in 0..P {
                    let neg = _mm512_cmp_pd_mask(acc[r][c], z, _CMP_LT_OQ);
                    acc[r][c] = _mm512_mask_mov_pd(acc[r][c], neg, z);
                }
            }
        }
        for r in 0..R {
            for c in 0..P {
                _mm512_storeu_pd(out.add(r * ldo + c * SPW), acc[r][c]);
            }
        }
    }

    /// `out += aᵀ·b` (`a: m×k`, `b: m×n`, `out: k×n`) on the `width`
    /// path: the walk over the columns of `a` and the rows of `b` where
    /// they lie. Each output element is one chain over the samples in
    /// ascending order, started from `out` and stored once, so nothing is
    /// transposed, packed or allocated and the bits are [`NaiveKernel`]'s.
    fn gemm_tn_at(
        width: SimdWidth,
        m: usize,
        k: usize,
        n: usize,
        a: &[f64],
        b: &[f64],
        out: &mut [f64],
    ) {
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(b.len(), m * n);
        debug_assert_eq!(out.len(), k * n);
        if m == 0 || k == 0 || n == 0 {
            return;
        }
        Self::walk(width, k, m, n, Operands::tn(k, n, a, b), None, false, out);
    }
}

impl GemmBackend for SimdKernel {
    fn name(&self) -> &'static str {
        "simd"
    }

    fn gemm(&self, m: usize, k: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(b.len(), k * n);
        debug_assert_eq!(out.len(), m * n);
        if m == 0 || k == 0 || n == 0 {
            return;
        }
        if m < PACK_MIN_ROWS {
            // Packing never amortizes on a handful of rows; the blocked
            // axpy fallback is bit-identical (ascending-k everywhere).
            BlockedKernel::axpy_gemm(m, k, n, a, b, out);
            return;
        }
        let mut packed = Vec::new();
        pack_panels_into::<SPW>(k, n, b, &mut packed);
        let ops = Operands::packed(k, a, &packed);
        Self::walk(SimdWidth::detected(), m, k, n, ops, None, false, out);
    }

    fn gemm_nt(&self, m: usize, k: usize, n: usize, a: &[f64], bt: &[f64], out: &mut [f64]) {
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(bt.len(), n * k);
        debug_assert_eq!(out.len(), m * n);
        if m == 0 || k == 0 || n == 0 {
            return;
        }
        let mut packed = Vec::new();
        pack_panels_t_into::<SPW>(k, n, bt, &mut packed);
        let ops = Operands::packed(k, a, &packed);
        Self::walk(SimdWidth::detected(), m, k, n, ops, None, false, out);
    }

    fn gemm_tn(&self, m: usize, k: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
        // [`kernel`]'s: below 8 columns a panel is mostly padding, and
        // the narrow walk reads the same operands in place.
        AutoKernel.gemm_tn(m, k, n, a, b, out);
    }

    fn pack_b_into(&self, k: usize, n: usize, b: &[f64], dst: &mut PackedB) {
        debug_assert_eq!(b.len(), k * n);
        dst.layout = PackLayout::Panels8;
        dst.k = k;
        dst.n = n;
        pack_panels_into::<SPW>(k, n, b, &mut dst.data);
    }

    fn pack_b_t_into(&self, k: usize, n: usize, bt: &[f64], dst: &mut PackedB) {
        debug_assert_eq!(bt.len(), n * k);
        dst.layout = PackLayout::Panels8;
        dst.k = k;
        dst.n = n;
        pack_panels_t_into::<SPW>(k, n, bt, &mut dst.data);
    }

    fn matvec(&self, rows: usize, cols: usize, a: &[f64], v: &[f64], out: &mut [f64]) {
        // A dot product vectorized across `k` would need partial-sum lanes
        // (a reassociation); the paired-row scalar walk is the fastest
        // schedule that keeps the naive chain. Shared with `blocked`.
        BlockedKernel.matvec(rows, cols, a, v, out);
    }

    fn matvec_t(&self, rows: usize, cols: usize, a: &[f64], v: &[f64], out: &mut [f64]) {
        BlockedKernel.matvec_t(rows, cols, a, v, out);
    }

    fn transpose(&self, rows: usize, cols: usize, a: &[f64], out: &mut [f64]) {
        BlockedKernel.transpose(rows, cols, a, out);
    }
}

/// Rows the narrow core's `gemm` and `gemm_nt` interleave: `NR·n`
/// independent accumulation chains per reduction step, where one row alone
/// would leave `n < 4` serial chains waiting on add latency.
const NR: usize = 4;
/// `k`-chunk of the narrow core's `gemm_tn`: the chunk's `n × NK`
/// accumulators live in a stack buffer while every row of `A` streams
/// through it.
const NK: usize = 64;

/// The narrow `gemm_tn`'s stack accumulators, one [`NK`]-row column per
/// output column, aligned to a cache line so the vector loads and stores
/// of each column never straddle two lines, wherever the stack sits.
#[repr(align(64))]
struct TnLanes<const N: usize>([[f64; NK]; N]);

/// A narrow-core body monomorphized for one output width:
/// `(m, k, a, b, out)`.
type NarrowBody = fn(usize, usize, &[f64], &[f64], &mut [f64]);

/// The core [`kernel`] runs `gemm` and `gemm_nt` on for products with
/// fewer than [`PW`] output columns, such as census's two-class softmax
/// layer, and `gemm_tn` on for fewer than [`SPW`]: direct loops over the
/// unpacked operands, with no panel pack, transpose or heap buffer. On
/// such a product a panel is mostly padding, and the panel cores' tail
/// paths run one serial chain at a time. Each output element is still one
/// chain over the ascending reduction index, started from `out`'s value
/// and stored once, so the bits are [`NaiveKernel`]'s.
struct NarrowCore;

impl NarrowCore {
    /// `out += a·b`, [`NR`] rows of `a` per pass.
    fn gemm(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
        fn body<const N: usize>(m: usize, k: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
            NarrowCore::rows::<N>(m, k, a, out, |p| std::array::from_fn(|j| b[p * N + j]));
        }
        Self::run(m, k, n, a, b, out, [body::<1>, body::<2>, body::<3>]);
    }

    /// `out += a·bᵀ` with `bt: n×k`: [`gemm`](Self::gemm)'s walk reading
    /// `B`'s rows across the rows of `bt`.
    fn gemm_nt(m: usize, k: usize, n: usize, a: &[f64], bt: &[f64], out: &mut [f64]) {
        fn body<const N: usize>(m: usize, k: usize, a: &[f64], bt: &[f64], out: &mut [f64]) {
            NarrowCore::rows::<N>(m, k, a, out, |p| std::array::from_fn(|j| bt[j * k + p]));
        }
        Self::run(m, k, n, a, bt, out, [body::<1>, body::<2>, body::<3>]);
    }

    /// `out += aᵀ·b` for `n` up to 7. Runs the AVX-compiled copy of the
    /// same body where the CPU has AVX ([`SimdWidth::run`]): 256-bit lanes
    /// along `k`, per-element chains untouched, about twice the speed on
    /// census's 32×12×2 gradient.
    fn gemm_tn(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
        fn body<const N: usize>(m: usize, k: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
            SimdWidth::Avx.run(
                #[inline(always)]
                || NarrowCore::tn::<N>(m, k, a, b, out),
            );
        }
        let bodies: [NarrowBody; SPW - 1] = [
            body::<1>, body::<2>, body::<3>, body::<4>, body::<5>, body::<6>, body::<7>,
        ];
        Self::run(m, k, n, a, b, out, bodies);
    }

    /// Runs `bodies[n - 1]`, the body for `n` columns, on a non-empty
    /// product; an empty one leaves `out` as it is.
    fn run<const B: usize>(
        m: usize,
        k: usize,
        n: usize,
        a: &[f64],
        b: &[f64],
        out: &mut [f64],
        bodies: [NarrowBody; B],
    ) {
        if m == 0 || k == 0 || n == 0 {
            return;
        }
        bodies[n - 1](m, k, a, b, out);
    }

    /// The `gemm` / `gemm_nt` walk: `out += a·B` with `b_row(p)` yielding
    /// row `p` of the logical `B`, [`NR`] rows of `a` per tile.
    #[inline(always)]
    fn rows<const N: usize>(
        m: usize,
        k: usize,
        a: &[f64],
        out: &mut [f64],
        b_row: impl Fn(usize) -> [f64; N],
    ) {
        let mut i = 0;
        while i + NR <= m {
            let a_rows: [&[f64]; NR] = std::array::from_fn(|r| &a[(i + r) * k..(i + r + 1) * k]);
            Self::tile(k, a_rows, &mut out[i * N..(i + NR) * N], &b_row);
            i += NR;
        }
        for i in i..m {
            Self::tile(
                k,
                [&a[i * k..(i + 1) * k]],
                &mut out[i * N..(i + 1) * N],
                &b_row,
            );
        }
    }

    /// `R` rows × `N` columns of [`rows`](Self::rows), accumulated in
    /// registers.
    #[inline(always)]
    fn tile<const N: usize, const R: usize>(
        k: usize,
        rows: [&[f64]; R],
        out: &mut [f64],
        b_row: &impl Fn(usize) -> [f64; N],
    ) {
        let mut acc = [[0.0; N]; R];
        for (lanes, o) in acc.iter_mut().zip(out.chunks_exact(N)) {
            lanes.copy_from_slice(o);
        }
        for p in 0..k {
            let bp = b_row(p);
            for (lanes, row) in acc.iter_mut().zip(&rows) {
                let x = row[p];
                for (o, &y) in lanes.iter_mut().zip(&bp) {
                    *o += x * y;
                }
            }
        }
        for (lanes, o) in acc.iter().zip(out.chunks_exact_mut(N)) {
            o.copy_from_slice(lanes);
        }
    }

    /// The `gemm_tn` walk. For each [`NK`]-chunk of `out`'s rows, the
    /// chunk's `N` columns sit in a stack buffer; the rows of `a` and `b`
    /// then stream through in ascending `i`, and each `(column, i)` step is
    /// one axpy along the contiguous row of `a`, which vectorizes across
    /// `k`.
    #[inline(always)]
    fn tn<const N: usize>(m: usize, k: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
        debug_assert_eq!(a.len(), m * k);
        let mut lanes = TnLanes([[0.0; NK]; N]);
        let acc = &mut lanes.0;
        for k0 in (0..k).step_by(NK) {
            let kw = NK.min(k - k0);
            let chunk = &mut out[k0 * N..(k0 + kw) * N];
            for (p, o) in chunk.chunks_exact(N).enumerate() {
                for (col, &v) in acc.iter_mut().zip(o) {
                    col[p] = v;
                }
            }
            for (a_row, b_row) in a.chunks_exact(k).zip(b.chunks_exact(N)) {
                let seg = &a_row[k0..k0 + kw];
                for (col, &y) in acc.iter_mut().zip(b_row) {
                    for (o, &x) in col[..kw].iter_mut().zip(seg) {
                        *o += x * y;
                    }
                }
            }
            for (p, o) in chunk.chunks_exact_mut(N).enumerate() {
                for (v, col) in o.iter_mut().zip(acc.iter()) {
                    *v = col[p];
                }
            }
        }
    }
}

/// The core [`kernel`] runs a product on, chosen from its output width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Core {
    /// [`NarrowCore`], for `n < PW`.
    Narrow,
    /// [`BlockedKernel`]'s 4-wide core.
    Blocked,
    /// [`SimdKernel`]'s 8-wide core.
    Simd,
}

/// The production backend [`kernel`] returns: each product's output width
/// picks its core.
///
/// `gemm` and `gemm_nt` run the narrow core when the output width `n` is
/// below [`PW`] (4), the 8-wide [`SimdKernel`] core when `n` is at least
/// [`SPW`] and the CPU has AVX2 or AVX-512, and the 4-wide
/// [`BlockedKernel`] core otherwise. `gemm_tn` runs the narrow core's walk
/// below [`SPW`] and the 8-wide core's direct walk from [`SPW`] up (its
/// scalar mirror without AVX2): both read `A` and `B` where they lie, so
/// no panel width has a pack to amortize. The pack methods follow the
/// `gemm` rule: the `Raw` layout below four columns (so the prepacked
/// entries run the narrow core through `gemm`), and the matching panel
/// layout above. The prepacked entries dispatch on the handle's layout.
/// `matvec`, `matvec_t` and `transpose` run the blocked schedules. Every
/// core is bit-identical to [`NaiveKernel`], so the routing changes no
/// output bit.
#[derive(Debug, Default, Clone, Copy)]
struct AutoKernel;

impl AutoKernel {
    /// The core a `gemm` or `gemm_nt` with `n` output columns runs on.
    fn core(n: usize) -> Core {
        if n < PW {
            Core::Narrow
        } else if n >= SPW && SimdWidth::detected() >= SimdWidth::Avx2 {
            Core::Simd
        } else {
            Core::Blocked
        }
    }
}

impl GemmBackend for AutoKernel {
    fn name(&self) -> &'static str {
        "auto"
    }

    fn gemm(&self, m: usize, k: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
        match Self::core(n) {
            Core::Narrow => NarrowCore::gemm(m, k, n, a, b, out),
            Core::Blocked => BlockedKernel.gemm(m, k, n, a, b, out),
            Core::Simd => SimdKernel.gemm(m, k, n, a, b, out),
        }
    }

    fn gemm_nt(&self, m: usize, k: usize, n: usize, a: &[f64], bt: &[f64], out: &mut [f64]) {
        match Self::core(n) {
            Core::Narrow => NarrowCore::gemm_nt(m, k, n, a, bt, out),
            Core::Blocked => BlockedKernel.gemm_nt(m, k, n, a, bt, out),
            Core::Simd => SimdKernel.gemm_nt(m, k, n, a, bt, out),
        }
    }

    fn gemm_tn(&self, m: usize, k: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
        if n < SPW {
            NarrowCore::gemm_tn(m, k, n, a, b, out);
        } else {
            SimdKernel::gemm_tn_at(SimdWidth::detected(), m, k, n, a, b, out);
        }
    }

    fn matvec(&self, rows: usize, cols: usize, a: &[f64], v: &[f64], out: &mut [f64]) {
        BlockedKernel.matvec(rows, cols, a, v, out);
    }

    fn matvec_t(&self, rows: usize, cols: usize, a: &[f64], v: &[f64], out: &mut [f64]) {
        BlockedKernel.matvec_t(rows, cols, a, v, out);
    }

    fn transpose(&self, rows: usize, cols: usize, a: &[f64], out: &mut [f64]) {
        BlockedKernel.transpose(rows, cols, a, out);
    }

    fn pack_b_into(&self, k: usize, n: usize, b: &[f64], dst: &mut PackedB) {
        // The narrow core reads `B` unpacked: `Raw`, as naive stores it.
        match Self::core(n) {
            Core::Narrow => NaiveKernel.pack_b_into(k, n, b, dst),
            Core::Blocked => BlockedKernel.pack_b_into(k, n, b, dst),
            Core::Simd => SimdKernel.pack_b_into(k, n, b, dst),
        }
    }

    fn pack_b_t_into(&self, k: usize, n: usize, bt: &[f64], dst: &mut PackedB) {
        match Self::core(n) {
            Core::Narrow => NaiveKernel.pack_b_t_into(k, n, bt, dst),
            Core::Blocked => BlockedKernel.pack_b_t_into(k, n, bt, dst),
            Core::Simd => SimdKernel.pack_b_t_into(k, n, bt, dst),
        }
    }
}

/// The kind of [`kernel`]. Nothing in the workspace selects by kind any
/// more; the type stays because the repository benchmark names it
/// (`perfbench/src/main.rs:191,321` and `perfbench/src/serve.rs:120`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// The width-routed production kernel, the only kind
    /// [`kernel_kind`] returns.
    Auto,
    /// No backend: [`kernel_kind`] never returns it. Kept because
    /// `perfbench/src/serve.rs:120` compares against it.
    Sharded,
}

impl KernelKind {
    /// The kind's name; `kernel().name()` for [`KernelKind::Auto`].
    /// Kept because `perfbench/src/main.rs:191,321` prints it.
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Auto => kernel().name(),
            KernelKind::Sharded => "sharded",
        }
    }

    /// Always `true`: every backend is bit-identical to [`NaiveKernel`].
    /// Kept because `perfbench/src/main.rs:191` checks it.
    pub fn bit_deterministic(self) -> bool {
        true
    }
}

/// The kind of [`kernel`], always [`KernelKind::Auto`]. Kept because
/// `perfbench/src/main.rs:191,321` reads it.
pub fn kernel_kind() -> KernelKind {
    KernelKind::Auto
}

/// The backend every [`crate::Matrix`] operation dispatches to: one
/// deterministic kernel that picks the narrow, 4-wide or 8-wide core for
/// each product from its output width (see the module docs).
pub fn kernel() -> &'static dyn GemmBackend {
    &AutoKernel
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(len: usize, seed: u64) -> Vec<f64> {
        let mut rng = crate::resample::SplitMix64::new(seed);
        (0..len).map(|_| rng.next_f64() * 4.0 - 2.0).collect()
    }

    fn assert_bits_eq(a: &[f64], b: &[f64]) {
        assert_bits_eq_at("", a, b);
    }

    fn assert_bits_eq_at(what: &str, a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len(), "{what}");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what} index {i}: {x} vs {y}");
        }
    }

    /// The fixed shape gallery: unit, odd, prime, blocking-boundary and
    /// multi-block (`m > IB`) shapes.
    const GALLERY: [(usize, usize, usize); 7] = [
        (1, 1, 1),
        (2, 3, 4),
        (7, 5, 3),
        (17, 13, 11),
        (64, 64, 64),
        (65, 67, 66),
        (130, 70, 150),
    ];

    /// The gallery plus `count` seeded random shapes with sides below 40
    /// (empty sides included).
    fn gallery_and_random(seed: u64, count: usize) -> Vec<(usize, usize, usize)> {
        let mut rng = crate::resample::SplitMix64::new(seed);
        let mut side = move || (rng.next_f64() * 40.0) as usize;
        let mut shapes = GALLERY.to_vec();
        shapes.extend((0..count).map(|_| (side(), side(), side())));
        shapes
    }

    /// The unfused epilogues, written out: `+ bias[j]` on every row, then
    /// (when `relu`) the model stack's `< 0` clamp, which keeps `-0.0` and
    /// `NaN`.
    fn epilogue_reference(n: usize, bias: &[f64], relu: bool, out: &mut [f64]) {
        for (i, v) in out.iter_mut().enumerate() {
            *v += bias[i % n];
            if relu && *v < 0.0 {
                *v = 0.0;
            }
        }
    }

    #[test]
    fn blocked_gemm_matches_naive_bitwise() {
        for &(m, k, n) in &GALLERY {
            let a = fill(m * k, 1 + m as u64);
            let b = fill(k * n, 2 + n as u64);
            let mut on = vec![0.0; m * n];
            let mut ob = vec![0.0; m * n];
            NaiveKernel.gemm(m, k, n, &a, &b, &mut on);
            BlockedKernel.gemm(m, k, n, &a, &b, &mut ob);
            assert_bits_eq(&on, &ob);
        }
    }

    #[test]
    fn blocked_nt_tn_match_naive_bitwise() {
        let (m, k, n) = (19, 23, 17);
        let a = fill(m * k, 3);
        let bt = fill(n * k, 4);
        let b = fill(m * n, 5);
        let mut x = vec![0.0; m * n];
        let mut y = vec![0.0; m * n];
        NaiveKernel.gemm_nt(m, k, n, &a, &bt, &mut x);
        BlockedKernel.gemm_nt(m, k, n, &a, &bt, &mut y);
        assert_bits_eq(&x, &y);
        let mut u = vec![0.0; k * n];
        let mut v = vec![0.0; k * n];
        NaiveKernel.gemm_tn(m, k, n, &a, &b, &mut u);
        BlockedKernel.gemm_tn(m, k, n, &a, &b, &mut v);
        assert_bits_eq(&u, &v);
    }

    #[test]
    fn gemm_tn_equals_explicit_transpose_product() {
        let (m, k, n) = (9, 4, 6);
        let a = fill(m * k, 6);
        let b = fill(m * n, 7);
        let mut at = vec![0.0; m * k];
        NaiveKernel.transpose(m, k, &a, &mut at);
        let mut want = vec![0.0; k * n];
        NaiveKernel.gemm(k, m, n, &at, &b, &mut want);
        let mut got = vec![0.0; k * n];
        NaiveKernel.gemm_tn(m, k, n, &a, &b, &mut got);
        assert_bits_eq(&want, &got);
    }

    #[test]
    fn gemm_nt_equals_explicit_transpose_product() {
        let (m, k, n) = (8, 5, 7);
        let a = fill(m * k, 8);
        let bt = fill(n * k, 9);
        let mut b = vec![0.0; n * k];
        NaiveKernel.transpose(n, k, &bt, &mut b);
        let mut want = vec![0.0; m * n];
        NaiveKernel.gemm(m, k, n, &a, &b, &mut want);
        let mut got = vec![0.0; m * n];
        NaiveKernel.gemm_nt(m, k, n, &a, &bt, &mut got);
        assert_bits_eq(&want, &got);
    }

    #[test]
    fn vector_ops_match_bitwise() {
        let (rows, cols) = (21, 15);
        let a = fill(rows * cols, 10);
        let v = fill(cols, 11);
        let w = fill(rows, 12);
        let mut x = vec![0.0; rows];
        let mut y = vec![0.0; rows];
        NaiveKernel.matvec(rows, cols, &a, &v, &mut x);
        BlockedKernel.matvec(rows, cols, &a, &v, &mut y);
        assert_bits_eq(&x, &y);
        let mut s = vec![0.0; cols];
        let mut t = vec![0.0; cols];
        NaiveKernel.matvec_t(rows, cols, &a, &w, &mut s);
        BlockedKernel.matvec_t(rows, cols, &a, &w, &mut t);
        assert_bits_eq(&s, &t);
    }

    #[test]
    fn transposes_match_and_invert() {
        let (rows, cols) = (37, 41);
        let a = fill(rows * cols, 13);
        let mut x = vec![0.0; rows * cols];
        let mut y = vec![0.0; rows * cols];
        NaiveKernel.transpose(rows, cols, &a, &mut x);
        BlockedKernel.transpose(rows, cols, &a, &mut y);
        assert_bits_eq(&x, &y);
        let mut back = vec![0.0; rows * cols];
        BlockedKernel.transpose(cols, rows, &y, &mut back);
        assert_bits_eq(&a, &back);
    }

    #[test]
    fn empty_shapes_are_noops() {
        let mut out: Vec<f64> = Vec::new();
        BlockedKernel.gemm(0, 3, 0, &[], &fill(0, 1), &mut out);
        NaiveKernel.gemm(0, 0, 0, &[], &[], &mut out);
        let mut o2 = vec![0.0; 4];
        // 0-row gemm_tn leaves the accumulator untouched.
        BlockedKernel.gemm_tn(0, 2, 2, &[], &[], &mut o2);
        assert!(o2.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn simd_gemm_matches_naive_bitwise() {
        for &(m, k, n) in &GALLERY {
            let a = fill(m * k, 21 + m as u64);
            let b = fill(k * n, 22 + n as u64);
            let mut on = vec![0.0; m * n];
            let mut os = vec![0.0; m * n];
            NaiveKernel.gemm(m, k, n, &a, &b, &mut on);
            SimdKernel.gemm(m, k, n, &a, &b, &mut os);
            assert_bits_eq(&on, &os);
        }
    }

    #[test]
    fn simd_nt_tn_match_naive_bitwise() {
        let (m, k, n) = (19, 23, 17);
        let a = fill(m * k, 31);
        let bt = fill(n * k, 32);
        let b = fill(m * n, 33);
        let mut x = vec![0.0; m * n];
        let mut y = vec![0.0; m * n];
        NaiveKernel.gemm_nt(m, k, n, &a, &bt, &mut x);
        SimdKernel.gemm_nt(m, k, n, &a, &bt, &mut y);
        assert_bits_eq(&x, &y);
        let mut u = vec![0.0; k * n];
        let mut v = vec![0.0; k * n];
        NaiveKernel.gemm_tn(m, k, n, &a, &b, &mut u);
        SimdKernel.gemm_tn(m, k, n, &a, &b, &mut v);
        assert_bits_eq(&u, &v);
    }

    #[test]
    fn simd_core_matches_naive_at_every_supported_width() {
        // Each width the host supports (AVX-512, AVX2, and below AVX2
        // the scalar mirror) runs the 8-wide core directly: the plain,
        // bias and bias+ReLU write-backs on `B` panels, the plain one on
        // `Bᵀ` panels, and the `gemm_tn` walk, all against the naive
        // reference.
        let widths = SimdWidth::supported();
        assert_eq!(widths[0], SimdWidth::Scalar);
        for width in widths {
            for (si, &(m, k, n)) in gallery_and_random(0x51D7, 40).iter().enumerate() {
                let seed = 200 + 8 * si as u64;
                let a = fill(m * k, seed);
                let b = fill(k * n, seed + 1);
                let bt = fill(n * k, seed + 2);
                let c = fill(m * n, seed + 3);
                let bias = fill(n, seed + 4);
                let tag = format!("{width:?} {m}x{k}x{n}");
                let mut panels = Vec::new();
                let mut got = vec![0.0; m * n];

                let mut want = vec![0.0; m * n];
                NaiveKernel.gemm(m, k, n, &a, &b, &mut want);
                pack_panels_into::<SPW>(k, n, &b, &mut panels);
                let ops = Operands::packed(k, &a, &panels);
                SimdKernel::walk(width, m, k, n, ops, None, false, &mut got);
                assert_bits_eq_at(&format!("{tag} plain"), &want, &got);
                for relu in [false, true] {
                    let mut want_epi = want.clone();
                    epilogue_reference(n, &bias, relu, &mut want_epi);
                    got.fill(0.0);
                    let b = Some(bias.as_slice());
                    SimdKernel::walk(width, m, k, n, ops, b, relu, &mut got);
                    assert_bits_eq_at(&format!("{tag} bias relu={relu}"), &want_epi, &got);
                }

                want.fill(0.0);
                NaiveKernel.gemm_nt(m, k, n, &a, &bt, &mut want);
                pack_panels_t_into::<SPW>(k, n, &bt, &mut panels);
                got.fill(0.0);
                let ops = Operands::packed(k, &a, &panels);
                SimdKernel::walk(width, m, k, n, ops, None, false, &mut got);
                assert_bits_eq_at(&format!("{tag} nt"), &want, &got);

                let mut want_tn = vec![0.0; k * n];
                NaiveKernel.gemm_tn(m, k, n, &a, &c, &mut want_tn);
                let mut got_tn = vec![0.0; k * n];
                SimdKernel::gemm_tn_at(width, m, k, n, &a, &c, &mut got_tn);
                assert_bits_eq_at(&format!("{tag} tn"), &want_tn, &got_tn);
            }
        }
    }

    #[test]
    fn direct_gemm_tn_matches_naive_at_every_supported_width() {
        // The direct walks' bit contract: `kernel().gemm_tn` (the narrow
        // walk below 8 columns, the 8-wide one from 8 up) and the 8-wide
        // walk capped at each vector width the host supports (the scalar
        // mirror below AVX2), against naive. The widths cross the
        // narrow/8-wide edge, the panel triple/pair/single split and a
        // tail panel (n); the output rows cross the 8-row tile (k); the
        // samples cross the two-step unroll (m). Outputs start non-zero.
        //
        // Every fifth operand is a signed zero or a subnormal, and each
        // operand holds one +∞, one −∞ and one NaN (each poisons one row or
        // column of the output, so most elements stay finite). The NaN is
        // the host's default NaN, the one ∞ − ∞ gives, so a chain that
        // meets two NaNs has one possible payload whichever operand the
        // hardware keeps.
        let nan = std::hint::black_box(f64::INFINITY) - std::hint::black_box(f64::INFINITY);
        let spiked = |len: usize, seed: u64| {
            let mut v = fill(len, seed);
            let tame = [-0.0, 0.0, 4e-320, -2.5e-310];
            for (i, x) in v.iter_mut().enumerate().skip(seed as usize % 5).step_by(5) {
                *x = tame[i % tame.len()];
            }
            if len > 0 {
                for (j, wild) in [f64::INFINITY, f64::NEG_INFINITY, nan]
                    .into_iter()
                    .enumerate()
                {
                    v[(seed as usize * 31 + j * 97) % len] = wild;
                }
            }
            v
        };
        for n in [4, 5, 7, 8, 9, 12, 16, 17, 24, 32, 33] {
            for k in [0, 1, 7, 8, 9, 65] {
                for m in [0, 1, 31, 32, 33, 300] {
                    let seed = (n * 10_000 + k * 1_000 + m) as u64;
                    let a = spiked(m * k, seed);
                    let b = spiked(m * n, seed + 1);
                    let start = spiked(k * n, seed + 2);
                    let mut want = start.clone();
                    NaiveKernel.gemm_tn(m, k, n, &a, &b, &mut want);
                    let mut got = start.clone();
                    kernel().gemm_tn(m, k, n, &a, &b, &mut got);
                    assert_bits_eq_at(&format!("kernel() {m}x{k}x{n}"), &want, &got);
                    for width in SimdWidth::supported() {
                        got.copy_from_slice(&start);
                        SimdKernel::gemm_tn_at(width, m, k, n, &a, &b, &mut got);
                        assert_bits_eq_at(&format!("{width:?} {m}x{k}x{n}"), &want, &got);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "right operand too short")]
    fn walk_rejects_an_operand_too_short_for_the_product() {
        // The micro-kernels read through raw pointers, so the walk checks
        // that its operands cover the product before any of them runs.
        let (m, k, n) = (9, 8, 16);
        let a = fill(m * k, 1);
        let b = fill(m * n - 1, 2);
        let mut out = vec![0.0; k * n];
        let ops = Operands::tn(k, n, &a, &b);
        SimdKernel::walk(SimdWidth::detected(), k, m, n, ops, None, false, &mut out);
    }

    #[test]
    fn kernel_packs_by_output_width() {
        // The width rule: the raw layout (read by the narrow core) below
        // four columns, the 8-wide layout from n = 8 up on an AVX2 or
        // AVX-512 host, and the 4-wide layout in between and, from four
        // up, on hosts with neither.
        #[cfg(target_arch = "x86_64")]
        let vector = std::arch::is_x86_feature_detected!("avx2")
            || std::arch::is_x86_feature_detected!("avx512f");
        #[cfg(not(target_arch = "x86_64"))]
        let vector = false;
        let k = 5;
        for n in 1..=40 {
            let want = if n < 4 {
                PackLayout::Raw
            } else if vector && n >= 8 {
                PackLayout::Panels8
            } else {
                PackLayout::Panels4
            };
            let b = fill(k * n, 300 + n as u64);
            assert_eq!(kernel().pack_b(k, n, &b).layout, want, "pack_b, n = {n}");
            assert_eq!(
                kernel().pack_b_t(k, n, &b).layout,
                want,
                "pack_b_t, n = {n}"
            );
        }
    }

    #[test]
    fn kernel_matches_naive_on_every_entry() {
        // All three sides of the width rule and both edges (n = 3, 4 and
        // 7, 8, 9), empty and odd row counts and the axpy cut (m = 0, 3,
        // 4, 5), the trainers' batch of 32 and the 300-row evaluations, at
        // the workloads' reduction depths, an empty one, and depths that
        // cross the narrow `gemm_tn`'s `NK` chunk (65, 130). Every output
        // starts non-zero: each entry accumulates into `out`.
        let ker = kernel();
        for n in [1, 2, 3, 4, 7, 8, 9, 16, 32] {
            for m in [0, 1, 3, 4, 5, 32, 300] {
                for k in [0, 1, 12, 32, 65, 130] {
                    let seed = (n * 10_000 + m * 10 + k) as u64;
                    let a = fill(m * k, seed);
                    let b = fill(k * n, seed + 1);
                    let bt = fill(n * k, seed + 2);
                    let c = fill(m * n, seed + 3);
                    let bias = fill(n, seed + 4);
                    let start = fill(m * n, seed + 5);
                    let start_tn = fill(k * n, seed + 6);
                    let tag = format!("{m}x{k}x{n}");

                    let mut want = start.clone();
                    NaiveKernel.gemm(m, k, n, &a, &b, &mut want);
                    let mut got = start.clone();
                    ker.gemm(m, k, n, &a, &b, &mut got);
                    assert_bits_eq_at(&format!("{tag} gemm"), &want, &got);
                    let pb = ker.pack_b(k, n, &b);
                    got.copy_from_slice(&start);
                    ker.gemm_prepacked(m, k, n, &a, &pb, &mut got);
                    assert_bits_eq_at(&format!("{tag} gemm_prepacked"), &want, &got);
                    let mut want_epi = want.clone();
                    epilogue_reference(n, &bias, false, &mut want_epi);
                    got.copy_from_slice(&start);
                    ker.gemm_prepacked_bias(m, k, n, &a, &pb, &bias, &mut got);
                    assert_bits_eq_at(&format!("{tag} gemm_prepacked_bias"), &want_epi, &got);
                    let mut want_epi = want.clone();
                    epilogue_reference(n, &bias, true, &mut want_epi);
                    got.copy_from_slice(&start);
                    ker.gemm_prepacked_bias_relu(m, k, n, &a, &pb, &bias, &mut got);
                    assert_bits_eq_at(&format!("{tag} bias_relu"), &want_epi, &got);

                    want.copy_from_slice(&start);
                    NaiveKernel.gemm_nt(m, k, n, &a, &bt, &mut want);
                    got.copy_from_slice(&start);
                    ker.gemm_nt(m, k, n, &a, &bt, &mut got);
                    assert_bits_eq_at(&format!("{tag} gemm_nt"), &want, &got);
                    got.copy_from_slice(&start);
                    ker.gemm_nt_prepacked(m, k, n, &a, &ker.pack_b_t(k, n, &bt), &mut got);
                    assert_bits_eq_at(&format!("{tag} gemm_nt_prepacked"), &want, &got);

                    let mut want_tn = start_tn.clone();
                    NaiveKernel.gemm_tn(m, k, n, &a, &c, &mut want_tn);
                    let mut got_tn = start_tn.clone();
                    ker.gemm_tn(m, k, n, &a, &c, &mut got_tn);
                    assert_bits_eq_at(&format!("{tag} gemm_tn"), &want_tn, &got_tn);
                }
            }
        }
    }

    #[test]
    fn kernel_kind_names_the_production_kernel() {
        assert_eq!(kernel_kind(), KernelKind::Auto);
        assert_eq!(kernel_kind().name(), kernel().name());
        assert!(kernel_kind().bit_deterministic());
    }

    #[test]
    fn prepacked_matches_pack_on_call_bitwise() {
        // Every backend, every prepacked entry point, across degenerate,
        // small-m (axpy fallback boundary), and general shapes, and a deep
        // minibatch profile (16 rows against a 784x64 operand, k spanning
        // many K blocks): the prepacked product must equal its
        // pack-on-call twin bit-for-bit.
        let backends: [&dyn GemmBackend; 4] = [&NaiveKernel, &BlockedKernel, &SimdKernel, kernel()];
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 9, 8),
            (7, 5, 3),
            (17, 13, 11),
            (33, 29, 37),
            (16, 784, 64),
        ] {
            let a = fill(m * k, 71 + m as u64);
            let b = fill(k * n, 72 + n as u64);
            let bt = fill(n * k, 73 + k as u64);
            for backend in backends {
                let mut plain = vec![0.0; m * n];
                backend.gemm(m, k, n, &a, &b, &mut plain);
                let pb = backend.pack_b(k, n, &b);
                assert_eq!((pb.k(), pb.n()), (k, n));
                let mut packed = vec![0.0; m * n];
                backend.gemm_prepacked(m, k, n, &a, &pb, &mut packed);
                assert_bits_eq(&plain, &packed);

                let mut plain_nt = vec![0.0; m * n];
                backend.gemm_nt(m, k, n, &a, &bt, &mut plain_nt);
                let pbt = backend.pack_b_t(k, n, &bt);
                let mut packed_nt = vec![0.0; m * n];
                backend.gemm_nt_prepacked(m, k, n, &a, &pbt, &mut packed_nt);
                assert_bits_eq(&plain_nt, &packed_nt);
            }
        }
    }

    #[test]
    fn fused_bias_matches_separate_pass_bitwise() {
        // The fused-bias contract: `gemm_prepacked_bias` must equal
        // `gemm_prepacked` followed by a separate bias pass, bit for bit,
        // on the same backend — including the k == 0 edge (bias only),
        // narrow tails, the raw fallback handles, and a 784-deep forward.
        let backends: [&dyn GemmBackend; 4] = [&NaiveKernel, &BlockedKernel, &SimdKernel, kernel()];
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 9, 8),
            (7, 5, 3),
            (17, 13, 11),
            (33, 29, 37),
            (4, 0, 6),
            (0, 3, 5),
            (5, 4, 0),
            (2, 8, 30),
            (64, 784, 64),
        ] {
            let a = fill(m * k, 91 + m as u64);
            let b = fill(k * n, 92 + n as u64);
            let bias = fill(n, 93 + k as u64);
            for backend in backends {
                let pb = backend.pack_b(k, n, &b);
                let mut want = vec![0.0; m * n];
                backend.gemm_prepacked(m, k, n, &a, &pb, &mut want);
                for row in want.chunks_exact_mut(n.max(1)) {
                    for (o, &bv) in row.iter_mut().zip(&bias) {
                        *o += bv;
                    }
                }
                let mut got = vec![0.0; m * n];
                backend.gemm_prepacked_bias(m, k, n, &a, &pb, &bias, &mut got);
                assert_bits_eq(&want, &got);
            }
        }
    }

    #[test]
    #[should_panic(expected = "bias length mismatch")]
    fn fused_bias_rejects_wrong_bias_length() {
        let pb = SimdKernel.pack_b(4, 4, &fill(16, 97));
        let mut out = vec![0.0; 3 * 4];
        SimdKernel.gemm_prepacked_bias(3, 4, 4, &fill(12, 98), &pb, &fill(3, 99), &mut out);
    }

    fn relu_reference(out: &mut [f64]) {
        // Mirror of the model stack's epilogue: keeps -0.0 and NaN.
        for v in out {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
    }

    #[test]
    fn fused_relu_matches_separate_pass_bitwise() {
        // `gemm_prepacked_bias_relu` must equal `gemm_prepacked_bias`
        // followed by the model stack's scalar clamp, bit for bit, on the
        // same backend — the clamp happens at each element's single
        // write-back, never inside a summation chain.
        let backends: [&dyn GemmBackend; 4] = [&NaiveKernel, &BlockedKernel, &SimdKernel, kernel()];
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 9, 8),
            (7, 5, 3),
            (17, 13, 11),
            (33, 29, 37),
            (4, 0, 6),
            (0, 3, 5),
            (5, 4, 0),
            (2, 8, 30),
        ] {
            let a = fill(m * k, 141 + m as u64);
            let b = fill(k * n, 142 + n as u64);
            let bias = fill(n, 143 + k as u64);
            for backend in backends {
                let pb = backend.pack_b(k, n, &b);
                let mut want = vec![0.0; m * n];
                backend.gemm_prepacked_bias(m, k, n, &a, &pb, &bias, &mut want);
                relu_reference(&mut want);
                let mut got = vec![0.0; m * n];
                backend.gemm_prepacked_bias_relu(m, k, n, &a, &pb, &bias, &mut got);
                assert_bits_eq(&want, &got);
            }
        }
    }

    #[test]
    fn fused_relu_keeps_negative_zero() {
        // The clamp is `< 0.0`, not `max`: -0.0 and NaN pass through
        // unchanged, exactly like the model stack's scalar epilogue.
        let mut v = [-0.0, f64::NAN, -3.0, 2.0, 0.0];
        relu_rows(&mut v);
        assert_eq!(v[0].to_bits(), (-0.0f64).to_bits());
        assert!(v[1].is_nan());
        assert_eq!(v[2].to_bits(), 0.0f64.to_bits());
        assert_eq!(v[3].to_bits(), 2.0f64.to_bits());
        assert_eq!(v[4].to_bits(), 0.0f64.to_bits());
        // k == 0 broadcasts the bias into a caller-zeroed out, then clamps.
        let bias = [-1.0, 1.5, -2.0, 0.25];
        for backend in [
            &NaiveKernel as &dyn GemmBackend,
            &BlockedKernel,
            &SimdKernel,
            kernel(),
        ] {
            let pb = backend.pack_b(0, 4, &[]);
            let mut out = vec![0.0; 2 * 4];
            backend.gemm_prepacked_bias_relu(2, 0, 4, &[], &pb, &bias, &mut out);
            for row in out.chunks_exact(4) {
                assert_eq!(row[0].to_bits(), 0.0f64.to_bits());
                assert_eq!(row[1].to_bits(), 1.5f64.to_bits());
                assert_eq!(row[2].to_bits(), 0.0f64.to_bits());
                assert_eq!(row[3].to_bits(), 0.25f64.to_bits());
            }
            // n = 2 with k > 0: `kernel()`'s raw handle, whose product runs
            // the narrow core before the unfused bias and clamp passes.
            // From `out = -0.0`: row 0 gives `-0.0 + 1·-0.0 + -0.0 = -0.0`
            // (kept) and `-0.0 + 1·-1 + 0.5 = -0.5` (clamped to +0.0);
            // row 1 multiplies by NaN (kept).
            let pb = backend.pack_b(1, 2, &[-0.0, -1.0]);
            let mut out = vec![-0.0; 2 * 2];
            backend.gemm_prepacked_bias_relu(
                2,
                1,
                2,
                &[1.0, f64::NAN],
                &pb,
                &[-0.0, 0.5],
                &mut out,
            );
            assert_eq!(out[0].to_bits(), (-0.0f64).to_bits());
            assert_eq!(out[1].to_bits(), 0.0f64.to_bits());
            assert!(out[2].is_nan() && out[3].is_nan());
        }
        assert_eq!(kernel().pack_b(1, 2, &[-0.0, -1.0]).layout, PackLayout::Raw);
    }

    #[test]
    fn prepacked_handle_reused_across_calls() {
        // The point of the API: pack once, multiply many different
        // left-hand sides — each call must match its pack-on-call twin.
        let (k, n) = (23, 17);
        let b = fill(k * n, 81);
        for backend in [&BlockedKernel as &dyn GemmBackend, &SimdKernel, kernel()] {
            let pb = backend.pack_b(k, n, &b);
            for (round, &m) in [1usize, 6, 13].iter().enumerate() {
                let a = fill(m * k, 82 + round as u64);
                let mut plain = vec![0.0; m * n];
                backend.gemm(m, k, n, &a, &b, &mut plain);
                let mut packed = vec![0.0; m * n];
                backend.gemm_prepacked(m, k, n, &a, &pb, &mut packed);
                assert_bits_eq(&plain, &packed);
            }
        }
    }

    #[test]
    fn pack_b_into_reuses_allocation_and_repacks() {
        let (k, n) = (31, 24);
        let b1 = fill(k * n, 85);
        let b2 = fill(k * n, 86);
        let mut pb = PackedB::default();
        SimdKernel.pack_b_into(k, n, &b1, &mut pb);
        let cap = pb.data.capacity();
        let a = fill(9 * k, 87);
        let mut first = vec![0.0; 9 * n];
        SimdKernel.gemm_prepacked(9, k, n, &a, &pb, &mut first);
        // Re-pack (the optimizer-update invalidation path) into the same
        // allocation; results must track the new operand.
        SimdKernel.pack_b_into(k, n, &b2, &mut pb);
        assert_eq!(pb.data.capacity(), cap, "allocation reused");
        let mut second = vec![0.0; 9 * n];
        SimdKernel.gemm_prepacked(9, k, n, &a, &pb, &mut second);
        let mut want = vec![0.0; 9 * n];
        SimdKernel.gemm(9, k, n, &a, &b2, &mut want);
        assert_bits_eq(&want, &second);
    }

    #[test]
    fn prepacked_empty_shapes_are_noops() {
        let pb = BlockedKernel.pack_b(0, 4, &[]);
        let mut out = vec![1.0; 0];
        BlockedKernel.gemm_prepacked(0, 0, 4, &[], &pb, &mut out);
        let pb2 = SimdKernel.pack_b(3, 0, &[]);
        let mut out2: Vec<f64> = Vec::new();
        SimdKernel.gemm_prepacked(2, 3, 0, &fill(6, 1), &pb2, &mut out2);
    }

    #[test]
    #[should_panic(expected = "prepacked B shape mismatch")]
    fn prepacked_shape_mismatch_is_rejected() {
        let pb = BlockedKernel.pack_b(4, 4, &fill(16, 1));
        let mut out = vec![0.0; 3 * 5];
        BlockedKernel.gemm_prepacked(3, 4, 5, &fill(12, 2), &pb, &mut out);
    }
}
