//! A small convolutional network — the native analog of the paper's "basic
//! CNNs with 2–3 hidden layers".
//!
//! The main experiments use MLPs because Slice Tuner only reads per-slice
//! losses, but the CNN path exists to validate that substitution: the
//! `cnn_compare` bench shows the method ranking (Moderate > baselines) is
//! unchanged when the shared model is an actual convolution over the
//! synthetic image families.
//!
//! Architecture: `conv 3×3 (valid) → ReLU → maxpool 2×2 → flatten → dense
//! softmax`. Batches are row-major [`Matrix`] values whose rows are
//! flattened `channels × height × width` images, so the rest of the stack
//! (loss functions, estimators) is unchanged.

use crate::classifier::Classifier;
use crate::network::Layer;
use crate::optimizer::{OptimizerKind, OptimizerState};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use st_data::rng::normal;
use st_data::seeded_rng;
use st_linalg::{softmax_in_place, softmax_xent_grad, Matrix, PackedB};

/// Shape of one input image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImageShape {
    /// Input channels.
    pub channels: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Image width in pixels.
    pub width: usize,
}

impl ImageShape {
    /// Flattened length of one image.
    pub fn flat_len(&self) -> usize {
        self.channels * self.height * self.width
    }
}

/// Convolution kernel bank: `out_ch × in_ch × k × k` weights plus one bias
/// per output channel.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvKernels {
    /// Flat weights indexed `[o][i][ky][kx]`.
    pub w: Vec<f64>,
    /// Per-output-channel bias.
    pub b: Vec<f64>,
    /// Output channels.
    pub out_ch: usize,
    /// Input channels.
    pub in_ch: usize,
    /// Kernel side length.
    pub k: usize,
}

impl ConvKernels {
    /// He-initialized kernels.
    pub fn he_init(out_ch: usize, in_ch: usize, k: usize, rng: &mut StdRng) -> Self {
        let fan_in = in_ch * k * k;
        let scale = (2.0 / fan_in.max(1) as f64).sqrt();
        let w = (0..out_ch * fan_in).map(|_| scale * normal(rng)).collect();
        ConvKernels {
            w,
            b: vec![0.0; out_ch],
            out_ch,
            in_ch,
            k,
        }
    }
}

/// The convolutional classifier.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvNet {
    /// Input image shape.
    pub shape: ImageShape,
    /// The single convolution block.
    pub conv: ConvKernels,
    /// Dense softmax head on the flattened pooled features.
    pub head: Layer,
}

/// Hyperparameters for [`ConvNet::train`].
#[derive(Debug, Clone, PartialEq)]
pub struct ConvTrainConfig {
    /// Output channels of the conv block.
    pub filters: usize,
    /// Kernel side length (3 reproduces the paper's 3×3 kernels).
    pub kernel: usize,
    /// Passes over the data.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Learning rate (constant; these nets train for few epochs).
    pub lr: f64,
    /// Update rule.
    pub optimizer: OptimizerKind,
    /// Seed for init and shuffling.
    pub seed: u64,
}

impl Default for ConvTrainConfig {
    fn default() -> Self {
        ConvTrainConfig {
            filters: 8,
            kernel: 3,
            epochs: 15,
            batch_size: 32,
            lr: 0.05,
            optimizer: OptimizerKind::default_momentum(),
            seed: 0,
        }
    }
}

/// Reusable buffers for the conv minibatch loop.
///
/// The dominant per-batch allocation used to be the im2col patch matrix —
/// `(n · ch · cw) × (in_ch · k · k)` values rebuilt for every minibatch of
/// every epoch. One scratch threaded through the loop reuses it (and every
/// other intermediate) across minibatches without changing a single
/// arithmetic operation. The scratch also holds the packed convolution
/// kernel bank and head weights; every step updates both, so each forward
/// re-packs them into the same buffers (the [`PackedB`] snapshot
/// contract).
#[derive(Debug, Default)]
struct ConvScratch {
    /// The im2col patch matrix, `(n · ch · cw) × (in_ch · k · k)`: one row
    /// per output position, reused by the backward pass as the GEMM
    /// operand for kernel gradients.
    cols: Matrix,
    /// Bias-seeded conv GEMM output, position-major.
    conv_out: Matrix,
    /// Post-ReLU conv activations, `n × (out_ch · ch · cw)`.
    relu: Matrix,
    /// Pooled features, `n × (out_ch · ph · pw)`.
    pooled: Matrix,
    /// Flat index (into the relu row) of each pooled maximum.
    argmax: Vec<usize>,
    /// Head logits of the forward pass (becomes `dZ` via pointer swap).
    logits: Matrix,
    /// Softmax cross-entropy gradient on the logits.
    dz: Matrix,
    /// Conv-space gradients routed back through pool + ReLU.
    dconv: Matrix,
    /// Position-major regrouping of `dconv` (the im2col-matching layout).
    d: Matrix,
    /// Head weight/bias gradients.
    grad_head_w: Matrix,
    grad_head_b: Vec<f64>,
    /// Gradient w.r.t. the pooled features.
    dpooled: Matrix,
    /// Kernel-bank weight/bias gradients.
    gw: Matrix,
    gb: Vec<f64>,
    /// Prepacked kernel bank (`cols · Wᵀ` operand, packed transposed).
    w_pack: PackedB,
    /// Prepacked dense-head weights: `W` for the forward `pooled·W`, then
    /// `Wᵀ` for the backward `dZ·Wᵀ`.
    head_pack: PackedB,
}

impl ConvNet {
    /// Builds a seeded, He-initialized network.
    ///
    /// # Panics
    /// Panics when the convolution or pooling would not fit the image
    /// (needs `height, width ≥ kernel` and pooled dims ≥ 1).
    pub fn new(
        shape: ImageShape,
        filters: usize,
        kernel: usize,
        num_classes: usize,
        rng: &mut StdRng,
    ) -> Self {
        assert!(
            shape.height >= kernel && shape.width >= kernel,
            "kernel larger than image"
        );
        let (ch, cw) = (shape.height - kernel + 1, shape.width - kernel + 1);
        let (ph, pw) = (ch / 2, cw / 2);
        assert!(ph >= 1 && pw >= 1, "image too small to pool");
        let conv = ConvKernels::he_init(filters, shape.channels, kernel, rng);
        let head = Layer::he_init(filters * ph * pw, num_classes, rng);
        ConvNet { shape, conv, head }
    }

    /// Conv output spatial dims (valid padding).
    fn conv_dims(&self) -> (usize, usize) {
        (
            self.shape.height - self.conv.k + 1,
            self.shape.width - self.conv.k + 1,
        )
    }

    /// Pooled spatial dims (2×2, stride 2, floor).
    fn pool_dims(&self) -> (usize, usize) {
        let (ch, cw) = self.conv_dims();
        (ch / 2, cw / 2)
    }

    /// Total trainable parameter count.
    pub fn num_params(&self) -> usize {
        self.conv.w.len()
            + self.conv.b.len()
            + self.head.w.rows() * self.head.w.cols()
            + self.head.b.len()
    }

    /// Lowers a batch of flattened images to the im2col patch matrix: one
    /// row per output position `(ex, y, x)` holding the receptive field in
    /// `(in_ch, ky, kx)` order — exactly the layout of one kernel row in
    /// [`ConvKernels::w`], so convolution becomes `cols · Wᵀ`.
    fn im2col_into(&self, x: &Matrix, cols: &mut Matrix) {
        let n = x.rows();
        let (ch, cw) = self.conv_dims();
        let s = &self.shape;
        let k = self.conv.k;
        let patch = self.conv.in_ch * k * k;
        cols.reset_to_zeros(n * ch * cw, patch);
        for ex in 0..n {
            let img = x.row(ex);
            for y in 0..ch {
                for xx in 0..cw {
                    let dst = cols.row_mut((ex * ch + y) * cw + xx);
                    let mut w_off = 0;
                    for i in 0..s.channels {
                        let plane = &img[i * s.height * s.width..];
                        for ky in 0..k {
                            let src = &plane[(y + ky) * s.width + xx..(y + ky) * s.width + xx + k];
                            dst[w_off..w_off + k].copy_from_slice(src);
                            w_off += k;
                        }
                    }
                }
            }
        }
    }

    /// Forward pass into the scratch, keeping the intermediates backprop
    /// needs (`cols`, `relu`, `pooled`, `argmax`, `logits`).
    ///
    /// The convolution itself is one batched GEMM over the im2col matrix:
    /// the output accumulator is seeded with the bias and then reduced in
    /// `(in_ch, ky, kx)` order, matching the nested-loop formulation
    /// bit-for-bit. The kernel bank and head weights are re-packed into the
    /// scratch's handles on every call: the only caller is [`Self::step`],
    /// and every step updates both.
    fn forward_scratch(&self, x: &Matrix, s: &mut ConvScratch) {
        let k = self.conv.k;
        let patch = self.conv.in_ch * k * k;
        // `conv.w` rows are kernel banks = columns of the logical B,
        // exactly the transposed-storage shape `pack_b_t_into` consumes.
        st_linalg::kernel().pack_b_t_into(patch, self.conv.out_ch, &self.conv.w, &mut s.w_pack);
        self.head.pack_weights_into(&mut s.head_pack);
        let ConvScratch {
            cols,
            conv_out,
            relu,
            pooled,
            argmax,
            logits,
            w_pack,
            head_pack,
            ..
        } = s;
        self.forward_core(
            x, w_pack, head_pack, cols, conv_out, relu, pooled, argmax, logits,
        );
    }

    /// The pack-agnostic forward body shared by the training path
    /// ([`Self::forward_scratch`], packs held in the train scratch) and
    /// the evaluation view ([`PackedConvNet`], packs owned by the view) —
    /// identical ops either way, so the two paths are bit-identical.
    #[allow(clippy::too_many_arguments)]
    fn forward_core(
        &self,
        x: &Matrix,
        w_pack: &PackedB,
        head_pack: &PackedB,
        cols: &mut Matrix,
        conv_out: &mut Matrix,
        relu: &mut Matrix,
        pooled: &mut Matrix,
        argmax: &mut Vec<usize>,
        logits: &mut Matrix,
    ) {
        let n = x.rows();
        let (ch, cw) = self.conv_dims();
        let (ph, pw) = self.pool_dims();
        let k = self.conv.k;
        let patch = self.conv.in_ch * k * k;
        let positions = n * ch * cw;

        self.im2col_into(x, cols);

        // conv_out[pos][o] = b[o] + cols.row(pos) · w.row(o).
        conv_out.reset_to_zeros(positions, self.conv.out_ch);
        conv_out.add_bias_rows(&self.conv.b);
        st_linalg::kernel().gemm_prepacked(
            positions,
            patch,
            self.conv.out_ch,
            cols.as_slice(),
            w_pack,
            conv_out.as_mut_slice(),
        );

        // Scatter position-major GEMM output into the per-example
        // `(o, y, x)` activation layout, applying the ReLU.
        relu.reset_to_zeros(n, self.conv.out_ch * ch * cw);
        pooled.reset_to_zeros(n, self.conv.out_ch * ph * pw);
        argmax.clear();
        argmax.resize(n * self.conv.out_ch * ph * pw, 0);
        for ex in 0..n {
            let relu_row = relu.row_mut(ex);
            for y in 0..ch {
                for xx in 0..cw {
                    let src = conv_out.row((ex * ch + y) * cw + xx);
                    for (o, &v) in src.iter().enumerate() {
                        relu_row[(o * ch + y) * cw + xx] = v.max(0.0);
                    }
                }
            }
            // 2×2 max pool with argmax bookkeeping.
            let pooled_row = pooled.row_mut(ex);
            for o in 0..self.conv.out_ch {
                for py in 0..ph {
                    for px in 0..pw {
                        let mut best = f64::NEG_INFINITY;
                        let mut best_idx = 0usize;
                        for dy in 0..2 {
                            for dx in 0..2 {
                                let idx = (o * ch + 2 * py + dy) * cw + 2 * px + dx;
                                if relu_row[idx] > best {
                                    best = relu_row[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        let p_idx = (o * ph + py) * pw + px;
                        pooled_row[p_idx] = best;
                        argmax[ex * self.conv.out_ch * ph * pw + p_idx] = best_idx;
                    }
                }
            }
        }
        self.head.forward_prepacked_into(head_pack, pooled, logits);
    }

    /// Batch logits.
    pub fn logits(&self, x: &Matrix) -> Matrix {
        let mut s = ConvEvalScratch::default();
        self.packed().logits_into(x, &mut s);
        s.logits
    }

    /// An evaluation view with the kernel bank and head weights packed
    /// **once** for reuse across many forward passes — the conv analog of
    /// [`crate::Mlp::packed`]. The view borrows the network immutably, so
    /// the packs cannot go stale while it lives; outputs are bit-identical
    /// to [`Self::logits`] (identical ops through the shared forward
    /// core, identical packed bytes).
    pub fn packed(&self) -> PackedConvNet<'_> {
        let patch = self.conv.in_ch * self.conv.k * self.conv.k;
        let mut w_pack = PackedB::default();
        st_linalg::kernel().pack_b_t_into(patch, self.conv.out_ch, &self.conv.w, &mut w_pack);
        let mut head_pack = PackedB::default();
        self.head.pack_weights_into(&mut head_pack);
        PackedConvNet {
            net: self,
            w_pack,
            head_pack,
        }
    }

    /// Trains a `ConvNet` on flattened-image rows. Deterministic in
    /// `(x, y, shape, config)`.
    ///
    /// # Panics
    /// Panics on shape/label mismatches.
    pub fn train(
        x: &Matrix,
        y: &[usize],
        shape: ImageShape,
        num_classes: usize,
        config: &ConvTrainConfig,
    ) -> ConvNet {
        assert_eq!(x.rows(), y.len(), "feature/label count mismatch");
        assert_eq!(
            x.cols(),
            shape.flat_len(),
            "row length does not match image shape"
        );
        assert!(y.iter().all(|&l| l < num_classes), "label out of range");

        let mut rng = seeded_rng(config.seed);
        let mut net = ConvNet::new(shape, config.filters, config.kernel, num_classes, &mut rng);
        let n = x.rows();
        if n == 0 {
            return net;
        }
        let lens = [
            net.conv.w.len(),
            net.conv.b.len(),
            net.head.w.rows() * net.head.w.cols(),
            net.head.b.len(),
        ];
        let mut opt = OptimizerState::new(config.optimizer, &lens);
        let mut order: Vec<usize> = (0..n).collect();
        let mut scratch = ConvScratch::default();
        let mut bx = Matrix::zeros(0, 0);
        let mut by: Vec<usize> = Vec::new();

        for _epoch in 0..config.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(config.batch_size.max(1)) {
                x.gather_rows_into(chunk, &mut bx);
                by.clear();
                by.extend(chunk.iter().map(|&i| y[i]));
                opt.next_step();
                net.step(&bx, &by, config.lr, &mut opt, &mut scratch);
            }
        }
        net
    }

    /// One optimizer step on a minibatch, entirely in scratch space.
    fn step(
        &mut self,
        bx: &Matrix,
        by: &[usize],
        lr: f64,
        opt: &mut OptimizerState,
        s: &mut ConvScratch,
    ) {
        let m = bx.rows();
        self.forward_scratch(bx, s);
        let (ch, cw) = self.conv_dims();
        let (ph, pw) = self.pool_dims();

        // Softmax cross-entropy gradient. The logits buffer *becomes* dZ
        // (a pointer swap, not a copy).
        std::mem::swap(&mut s.dz, &mut s.logits);
        let classes = s.dz.cols();
        softmax_xent_grad(s.dz.as_mut_slice(), classes, by);

        // Dense head gradients, via the transpose-free GEMM shapes.
        s.pooled.matmul_tn_into(&s.dz, &mut s.grad_head_w);
        s.dz.col_sums_into(&mut s.grad_head_b);
        // Gradient wrt pooled features, before updating the head: against
        // `Wᵀ` packed into the head's pack, whose forward use is over.
        self.head.w.pack_as_rhs_t_into(&mut s.head_pack);
        s.dz.matmul_prepacked_into(&s.head_pack, &mut s.dpooled);

        // Route through the max pool and the ReLU into conv-space gradients.
        s.dconv.reset_to_zeros(m, self.conv.out_ch * ch * cw);
        for ex in 0..m {
            let drow = s.dpooled.row(ex);
            let dconv_row = s.dconv.row_mut(ex);
            for p_idx in 0..self.conv.out_ch * ph * pw {
                let src = s.argmax[ex * self.conv.out_ch * ph * pw + p_idx];
                // ReLU: the stored activation is post-ReLU; zero activations
                // pass no gradient.
                if s.relu[(ex, src)] > 0.0 {
                    dconv_row[src] += drow[p_idx];
                }
            }
        }

        // Kernel gradients: regroup the conv-space gradients to the
        // position-major layout of the im2col matrix, then one batched
        // `Dᵀ · cols` GEMM yields all kernel rows at once (`gw[o] =
        // Σ_pos D[pos][o] · cols[pos]`), and the bias gradient is the
        // column sum of `D` — both reduce positions in ascending order,
        // exactly like the nested-loop formulation.
        let positions = m * ch * cw;
        s.d.reset_to_zeros(positions, self.conv.out_ch);
        for ex in 0..m {
            let drow = s.dconv.row(ex);
            for o in 0..self.conv.out_ch {
                for y in 0..ch {
                    for xx in 0..cw {
                        s.d[((ex * ch + y) * cw + xx, o)] = drow[(o * ch + y) * cw + xx];
                    }
                }
            }
        }
        s.d.matmul_tn_into(&s.cols, &mut s.gw);
        s.d.col_sums_into(&mut s.gb);

        opt.update(0, &mut self.conv.w, s.gw.as_slice(), lr, 0.0);
        opt.update(1, &mut self.conv.b, &s.gb, lr, 0.0);
        opt.update(
            2,
            self.head.w.as_mut_slice(),
            s.grad_head_w.as_slice(),
            lr,
            0.0,
        );
        opt.update(3, &mut self.head.b, &s.grad_head_b, lr, 0.0);
    }
}

/// A read-only [`ConvNet`] evaluation view with prepacked weights (see
/// [`ConvNet::packed`]): the per-slice evaluation loops score one trained
/// model against every slice's cached validation matrix, and re-packing
/// identical weight bytes per call was the conv path's last avoidable
/// per-evaluation cost.
#[derive(Debug)]
pub struct PackedConvNet<'a> {
    net: &'a ConvNet,
    w_pack: PackedB,
    head_pack: PackedB,
}

/// Reusable forward buffers for [`PackedConvNet`] — the conv analog of
/// [`crate::EvalScratch`]: one scratch serves any number of batches and
/// models, keeping repeated evaluation allocation-free in steady state.
#[derive(Debug, Default)]
pub struct ConvEvalScratch {
    cols: Matrix,
    conv_out: Matrix,
    relu: Matrix,
    pooled: Matrix,
    argmax: Vec<usize>,
    logits: Matrix,
}

impl PackedConvNet<'_> {
    /// The underlying network.
    pub fn network(&self) -> &ConvNet {
        self.net
    }

    /// Batch logits into the scratch's `logits` buffer — bit-identical to
    /// [`ConvNet::logits`].
    pub fn logits_into(&self, x: &Matrix, s: &mut ConvEvalScratch) {
        self.net.forward_core(
            x,
            &self.w_pack,
            &self.head_pack,
            &mut s.cols,
            &mut s.conv_out,
            &mut s.relu,
            &mut s.pooled,
            &mut s.argmax,
            &mut s.logits,
        );
    }

    /// Mean clamped negative log-likelihood on one validation batch —
    /// bit-identical to [`crate::log_loss_of`] on the unpacked network
    /// (same logits bits, same softmax/clamp arithmetic). Returns `NaN`
    /// for an empty batch.
    ///
    /// # Panics
    /// Panics when `x.rows() != y.len()`.
    pub fn log_loss_scratch(&self, x: &Matrix, y: &[usize], s: &mut ConvEvalScratch) -> f64 {
        assert_eq!(x.rows(), y.len(), "feature/label count mismatch");
        if y.is_empty() {
            return f64::NAN;
        }
        self.logits_into(x, s);
        for r in 0..s.logits.rows() {
            softmax_in_place(s.logits.row_mut(r));
        }
        crate::loss::nll_of_proba(&s.logits, y)
    }
}

impl Classifier for ConvNet {
    fn predict_proba(&self, x: &Matrix) -> Matrix {
        let mut logits = self.logits(x);
        for r in 0..logits.rows() {
            softmax_in_place(logits.row_mut(r));
        }
        logits
    }

    fn num_classes(&self) -> usize {
        self.head.fan_out()
    }

    fn input_dim(&self) -> usize {
        self.shape.flat_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::{accuracy_of, log_loss_of};

    const SHAPE: ImageShape = ImageShape {
        channels: 1,
        height: 8,
        width: 8,
    };

    /// Class 0: bright vertical bar; class 1: bright horizontal bar.
    fn bars(n_per: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let mut rng = seeded_rng(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for label in [0usize, 1] {
            for _ in 0..n_per {
                let mut img = vec![0.0; SHAPE.flat_len()];
                for v in img.iter_mut() {
                    *v = 0.1 * normal(&mut rng);
                }
                let pos = 2 + (rng.next_u32() as usize) % 4;
                for t in 0..8 {
                    let idx = if label == 0 { t * 8 + pos } else { pos * 8 + t };
                    img[idx] += 1.0;
                }
                rows.extend_from_slice(&img);
                labels.push(label);
            }
        }
        (
            Matrix::from_vec(labels.len(), SHAPE.flat_len(), rows),
            labels,
        )
    }

    use rand::RngCore;

    #[test]
    fn shapes_and_param_count() {
        let mut rng = seeded_rng(1);
        let net = ConvNet::new(SHAPE, 4, 3, 2, &mut rng);
        // conv out 6×6, pooled 3×3 → head input 4·9 = 36.
        assert_eq!(net.conv_dims(), (6, 6));
        assert_eq!(net.pool_dims(), (3, 3));
        assert_eq!(net.head.fan_in(), 36);
        assert_eq!(net.num_params(), 4 * 9 + 4 + 36 * 2 + 2);
    }

    #[test]
    fn forward_produces_distributions() {
        let mut rng = seeded_rng(2);
        let net = ConvNet::new(SHAPE, 3, 3, 4, &mut rng);
        let (x, _) = bars(3, 3);
        let p = net.predict_proba(&x);
        assert_eq!((p.rows(), p.cols()), (6, 4));
        for r in 0..p.rows() {
            let s: f64 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn learns_oriented_bars() {
        let (x, y) = bars(40, 4);
        let cfg = ConvTrainConfig {
            epochs: 12,
            ..Default::default()
        };
        let net = ConvNet::train(&x, &y, SHAPE, 2, &cfg);
        let acc = accuracy_of(&net, &x, &y);
        assert!(acc > 0.95, "train accuracy {acc}");
        // Generalizes to a fresh sample of the same distribution.
        let (tx, ty) = bars(40, 5);
        assert!(accuracy_of(&net, &tx, &ty) > 0.9);
        assert!(log_loss_of(&net, &tx, &ty) < 0.35);
    }

    #[test]
    fn training_is_deterministic() {
        let (x, y) = bars(10, 6);
        let cfg = ConvTrainConfig {
            epochs: 3,
            ..Default::default()
        };
        let a = ConvNet::train(&x, &y, SHAPE, 2, &cfg);
        let b = ConvNet::train(&x, &y, SHAPE, 2, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn conv_beats_untrained_baseline() {
        let (x, y) = bars(30, 7);
        let cfg = ConvTrainConfig {
            epochs: 10,
            ..Default::default()
        };
        let trained = ConvNet::train(&x, &y, SHAPE, 2, &cfg);
        let mut rng = seeded_rng(cfg.seed);
        let init = ConvNet::new(SHAPE, cfg.filters, cfg.kernel, 2, &mut rng);
        assert!(log_loss_of(&trained, &x, &y) < 0.5 * log_loss_of(&init, &x, &y));
    }

    #[test]
    fn packed_view_is_bit_identical_and_scratch_is_shareable() {
        let (x, y) = bars(12, 9);
        let cfg = ConvTrainConfig {
            epochs: 2,
            ..Default::default()
        };
        let a = ConvNet::train(&x, &y, SHAPE, 2, &cfg);
        let b = ConvNet::train(
            &x,
            &y,
            SHAPE,
            2,
            &ConvTrainConfig {
                seed: 7,
                ..cfg.clone()
            },
        );
        // One scratch across two different models and two batch sizes: the
        // packs live in the views, so scratch reuse cannot go stale.
        let mut s = ConvEvalScratch::default();
        for net in [&a, &b] {
            let packed = net.packed();
            for rows in [1usize, 5] {
                let xs = x.gather_rows(&(0..rows).collect::<Vec<_>>());
                let want = net.logits(&xs);
                packed.logits_into(&xs, &mut s);
                for (w, g) in want.as_slice().iter().zip(s.logits.as_slice()) {
                    assert_eq!(w.to_bits(), g.to_bits());
                }
            }
            let want = log_loss_of(net, &x, &y);
            let got = packed.log_loss_scratch(&x, &y, &mut s);
            assert_eq!(want.to_bits(), got.to_bits());
        }
        // Empty batch keeps the NaN convention.
        assert!(a
            .packed()
            .log_loss_scratch(&Matrix::zeros(0, SHAPE.flat_len()), &[], &mut s)
            .is_nan());
    }

    #[test]
    #[should_panic(expected = "kernel larger than image")]
    fn rejects_oversized_kernel() {
        let mut rng = seeded_rng(8);
        let tiny = ImageShape {
            channels: 1,
            height: 2,
            width: 2,
        };
        let _ = ConvNet::new(tiny, 2, 3, 2, &mut rng);
    }

    #[test]
    #[should_panic(expected = "row length does not match image shape")]
    fn rejects_wrong_row_length() {
        let x = Matrix::zeros(1, 10);
        let _ = ConvNet::train(&x, &[0], SHAPE, 2, &ConvTrainConfig::default());
    }
}
