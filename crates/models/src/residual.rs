//! A residual MLP — the closer ResNet-18 analog for Appendix B.
//!
//! Appendix B's point is that an overly complex model raises absolute
//! losses on modest data while leaving the *method ranking* unchanged. The
//! main experiments use [`crate::ModelSpec::deep`] (a plain oversized MLP);
//! this module adds genuine residual blocks — `h ← ReLU(h + W₂·ReLU(W₁·h))`
//! with identity skip connections — so the architecture family actually
//! matches ResNet's, and the `residual_compare` bin can check that the
//! per-slice loss structure is architecture-independent.

use crate::classifier::Classifier;
use crate::network::{relu_backward, Layer};
use crate::optimizer::{OptimizerKind, OptimizerState};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use st_data::seeded_rng;
use st_linalg::{softmax_in_place, softmax_xent_grad, Matrix, PackedB};

/// One residual block: two width-preserving dense layers with an identity
/// skip, post-activation (`out = ReLU(x + W₂·ReLU(W₁·x + b₁) + b₂)`).
#[derive(Debug, Clone, PartialEq)]
pub struct ResidualBlock {
    /// First dense layer (width × width).
    pub l1: Layer,
    /// Second dense layer (width × width).
    pub l2: Layer,
}

impl ResidualBlock {
    /// He-initializes the inner layer and zero-initializes the outer one,
    /// so every block starts as the identity map — the standard trick that
    /// keeps deep residual stacks stable at initialization (the analog of
    /// zero-init'ing the last batch-norm scale in ResNets).
    fn he_init(width: usize, rng: &mut StdRng) -> Self {
        let l1 = Layer::he_init(width, width, rng);
        let mut l2 = Layer::he_init(width, width, rng);
        l2.w.scale(0.0);
        ResidualBlock { l1, l2 }
    }
}

/// Intermediates of one block's forward pass (for backprop).
struct BlockTrace {
    /// Block input `x`.
    input: Matrix,
    /// Post-ReLU inner activation `ReLU(W₁x + b₁)`.
    hidden: Matrix,
    /// Block output `ReLU(x + W₂·hidden + b₂)`.
    output: Matrix,
}

/// A residual classifier: input projection → `depth` residual blocks →
/// softmax head.
#[derive(Debug, Clone, PartialEq)]
pub struct ResidualMlp {
    /// Projection from the input dimension to the trunk width.
    pub stem: Layer,
    /// The residual trunk.
    pub blocks: Vec<ResidualBlock>,
    /// Softmax head.
    pub head: Layer,
}

/// Hyperparameters for [`ResidualMlp::train`].
#[derive(Debug, Clone, PartialEq)]
pub struct ResidualTrainConfig {
    /// Trunk width.
    pub width: usize,
    /// Number of residual blocks.
    pub depth: usize,
    /// Passes over the data.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f64,
    /// Update rule.
    pub optimizer: OptimizerKind,
    /// Seed for init and shuffling.
    pub seed: u64,
}

impl Default for ResidualTrainConfig {
    fn default() -> Self {
        ResidualTrainConfig {
            width: 32,
            depth: 4,
            epochs: 20,
            batch_size: 32,
            lr: 0.05,
            optimizer: OptimizerKind::default_momentum(),
            seed: 0,
        }
    }
}

fn relu_in_place(m: &mut Matrix) {
    for v in m.as_mut_slice() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
}

/// Prepacked forward weights of every layer, kept alive across minibatches
/// by the training loop. Packs are snapshots: the loop re-packs (buffer
/// reuse, no allocation) after each optimizer step, exactly when the
/// weights change — the [`PackedB`] invalidation contract.
#[derive(Debug, Default)]
struct ResidualPacks {
    stem: PackedB,
    /// `(l1, l2)` per residual block.
    blocks: Vec<(PackedB, PackedB)>,
    head: PackedB,
}

impl ResidualPacks {
    fn for_net(net: &ResidualMlp) -> Self {
        let mut packs = ResidualPacks {
            blocks: net.blocks.iter().map(|_| Default::default()).collect(),
            ..Default::default()
        };
        packs.refresh(net);
        packs
    }

    /// Re-packs every layer from the current weights.
    fn refresh(&mut self, net: &ResidualMlp) {
        net.stem.pack_weights_into(&mut self.stem);
        for (block, (p1, p2)) in net.blocks.iter().zip(&mut self.blocks) {
            block.l1.pack_weights_into(p1);
            block.l2.pack_weights_into(p2);
        }
        net.head.pack_weights_into(&mut self.head);
    }
}

/// Forward of one layer through its pack when available (bit-identical to
/// the plain forward either way).
fn layer_forward(layer: &Layer, pack: Option<&PackedB>, x: &Matrix) -> Matrix {
    match pack {
        Some(p) => {
            let mut out = Matrix::zeros(0, 0);
            layer.forward_prepacked_into(p, x, &mut out);
            out
        }
        None => layer.forward(x),
    }
}

impl ResidualMlp {
    /// Builds a seeded, He-initialized network.
    ///
    /// # Panics
    /// Panics when any dimension is zero.
    pub fn new(
        input_dim: usize,
        width: usize,
        depth: usize,
        num_classes: usize,
        rng: &mut StdRng,
    ) -> Self {
        assert!(
            input_dim > 0 && width > 0 && num_classes > 0,
            "dimensions must be positive"
        );
        ResidualMlp {
            stem: Layer::he_init(input_dim, width, rng),
            blocks: (0..depth)
                .map(|_| ResidualBlock::he_init(width, rng))
                .collect(),
            head: Layer::he_init(width, num_classes, rng),
        }
    }

    /// Total trainable parameter count.
    pub fn num_params(&self) -> usize {
        let layer = |l: &Layer| l.w.rows() * l.w.cols() + l.b.len();
        layer(&self.stem)
            + self
                .blocks
                .iter()
                .map(|b| layer(&b.l1) + layer(&b.l2))
                .sum::<usize>()
            + layer(&self.head)
    }

    /// Forward pass keeping per-block intermediates.
    fn forward_trace(&self, x: &Matrix) -> (Matrix, Vec<BlockTrace>, Matrix) {
        self.forward_trace_with(x, None)
    }

    /// [`forward_trace`](Self::forward_trace) through prepacked weights
    /// when the training loop supplies them — identical operations, so
    /// training bits are unchanged.
    fn forward_trace_with(
        &self,
        x: &Matrix,
        packs: Option<&ResidualPacks>,
    ) -> (Matrix, Vec<BlockTrace>, Matrix) {
        let mut cur = layer_forward(&self.stem, packs.map(|p| &p.stem), x);
        relu_in_place(&mut cur);
        let stem_out = cur.clone();
        let mut traces = Vec::with_capacity(self.blocks.len());
        for (bi, block) in self.blocks.iter().enumerate() {
            let mut hidden = layer_forward(&block.l1, packs.map(|p| &p.blocks[bi].0), &cur);
            relu_in_place(&mut hidden);
            let mut out = layer_forward(&block.l2, packs.map(|p| &p.blocks[bi].1), &hidden);
            out.add_assign(&cur);
            relu_in_place(&mut out);
            traces.push(BlockTrace {
                input: cur,
                hidden: hidden.clone(),
                output: out.clone(),
            });
            cur = out;
        }
        let logits = layer_forward(&self.head, packs.map(|p| &p.head), &cur);
        (stem_out, traces, logits)
    }

    /// Batch logits.
    pub fn logits(&self, x: &Matrix) -> Matrix {
        self.forward_trace(x).2
    }

    /// An evaluation view with every layer's weights packed **once** for
    /// reuse across many forward passes — the residual analog of
    /// [`crate::Mlp::packed`]. Outputs are bit-identical to
    /// [`Self::logits`]: every dense product goes through the prepacked
    /// fused-bias path, which is bit-identical to the plain forward (the
    /// fused-bias contract), and the block arithmetic (ReLU, identity
    /// skip) is op-for-op the traced forward's.
    pub fn packed(&self) -> PackedResidualMlp<'_> {
        PackedResidualMlp {
            net: self,
            packs: ResidualPacks::for_net(self),
        }
    }

    /// Trains a residual classifier. Deterministic in `(x, y, config)`.
    ///
    /// # Panics
    /// Panics on shape/label mismatches.
    pub fn train(
        x: &Matrix,
        y: &[usize],
        input_dim: usize,
        num_classes: usize,
        config: &ResidualTrainConfig,
    ) -> ResidualMlp {
        assert_eq!(x.rows(), y.len(), "feature/label count mismatch");
        assert!(y.iter().all(|&l| l < num_classes), "label out of range");

        let mut rng = seeded_rng(config.seed);
        let mut net =
            ResidualMlp::new(input_dim, config.width, config.depth, num_classes, &mut rng);
        let n = x.rows();
        if n == 0 {
            return net;
        }

        // Slot layout: stem w/b, then per block l1 w/b + l2 w/b, then head.
        let layer_lens = |l: &Layer| [l.w.rows() * l.w.cols(), l.b.len()];
        let mut lens: Vec<usize> = layer_lens(&net.stem).to_vec();
        for b in &net.blocks {
            lens.extend(layer_lens(&b.l1));
            lens.extend(layer_lens(&b.l2));
        }
        lens.extend(layer_lens(&net.head));
        let mut opt = OptimizerState::new(config.optimizer, &lens);

        // Forward weights are packed once here and kept alive across
        // minibatches; each step invalidates them (the optimizer updates
        // every layer), so `refresh` re-packs into the same buffers.
        let mut packs = ResidualPacks::for_net(&net);
        let mut order: Vec<usize> = (0..n).collect();
        let mut bx = Matrix::zeros(0, 0);
        let mut by: Vec<usize> = Vec::new();
        for _epoch in 0..config.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(config.batch_size.max(1)) {
                x.gather_rows_into(chunk, &mut bx);
                by.clear();
                by.extend(chunk.iter().map(|&i| y[i]));
                opt.next_step();
                net.step(&bx, &by, config.lr, &mut opt, &packs);
                packs.refresh(&net);
            }
        }
        net
    }

    /// One optimizer step on a minibatch.
    fn step(
        &mut self,
        bx: &Matrix,
        by: &[usize],
        lr: f64,
        opt: &mut OptimizerState,
        packs: &ResidualPacks,
    ) {
        let (stem_out, traces, logits) = self.forward_trace_with(bx, Some(packs));

        // Softmax cross-entropy gradient.
        let mut dz = logits;
        let classes = dz.cols();
        softmax_xent_grad(dz.as_mut_slice(), classes, by);

        // Gradients of (w, b) for a dense layer given input and dout,
        // via the transpose-free batched GEMM shapes.
        let grads = |input: &Matrix, dout: &Matrix| -> (Matrix, Vec<f64>) {
            (input.matmul_tn(dout), dout.col_sums())
        };
        // Applies the ReLU mask of `act` (post-activation) to `d` in place.
        let mask =
            |d: &mut Matrix, act: &Matrix| relu_backward(d.as_mut_slice(), act.as_slice(), &[]);

        // Head.
        let trunk_out = traces.last().map(|t| &t.output).unwrap_or(&stem_out);
        let (head_gw, head_gb) = grads(trunk_out, &dz);
        let mut dcur = dz.matmul_nt(&self.head.w);

        // Blocks, last first. Per block (post-activation residual):
        //   out = ReLU(x + W₂·h + b₂),  h = ReLU(W₁·x + b₁)
        //   d(pre-out) = dout ⊙ [out > 0]
        //   dW₂ = hᵀ·d(pre-out); dh = d(pre-out)·W₂ᵀ ⊙ [h > 0]
        //   dW₁ = xᵀ·dh; dx = dh·W₁ᵀ + d(pre-out)   (identity skip)
        let mut block_grads: Vec<(Matrix, Vec<f64>, Matrix, Vec<f64>)> =
            Vec::with_capacity(self.blocks.len());
        for (bi, trace) in traces.iter().enumerate().rev() {
            mask(&mut dcur, &trace.output);
            let dpre = dcur; // gradient at the pre-ReLU sum
            let (g2w, g2b) = grads(&trace.hidden, &dpre);
            let mut dh = dpre.matmul_nt(&self.blocks[bi].l2.w);
            mask(&mut dh, &trace.hidden);
            let (g1w, g1b) = grads(&trace.input, &dh);
            let mut dx = dh.matmul_nt(&self.blocks[bi].l1.w);
            dx.add_assign(&dpre); // the skip path
            block_grads.push((g1w, g1b, g2w, g2b));
            dcur = dx;
        }
        block_grads.reverse();

        // Stem.
        mask(&mut dcur, &stem_out);
        let (stem_gw, stem_gb) = grads(bx, &dcur);

        // Apply updates in the slot order used at allocation.
        let mut slot = 0;
        let mut upd = |params: &mut [f64], grads: &[f64], opt: &mut OptimizerState| {
            opt.update(slot, params, grads, lr, 0.0);
            slot += 1;
        };
        upd(self.stem.w.as_mut_slice(), stem_gw.as_slice(), opt);
        upd(&mut self.stem.b, &stem_gb, opt);
        for (b, (g1w, g1b, g2w, g2b)) in self.blocks.iter_mut().zip(&block_grads) {
            upd(b.l1.w.as_mut_slice(), g1w.as_slice(), opt);
            upd(&mut b.l1.b, g1b, opt);
            upd(b.l2.w.as_mut_slice(), g2w.as_slice(), opt);
            upd(&mut b.l2.b, g2b, opt);
        }
        upd(self.head.w.as_mut_slice(), head_gw.as_slice(), opt);
        upd(&mut self.head.b, &head_gb, opt);
    }
}

/// A read-only [`ResidualMlp`] evaluation view with prepacked weights (see
/// [`ResidualMlp::packed`]).
#[derive(Debug)]
pub struct PackedResidualMlp<'a> {
    net: &'a ResidualMlp,
    packs: ResidualPacks,
}

/// Reusable forward buffers for [`PackedResidualMlp`] — the residual analog
/// of [`crate::EvalScratch`]: ping-pong trunk activations plus the inner
/// block activation, reused across batches and models.
#[derive(Debug, Default)]
pub struct ResidualEvalScratch {
    cur: Matrix,
    next: Matrix,
    hidden: Matrix,
}

impl PackedResidualMlp<'_> {
    /// The underlying network.
    pub fn network(&self) -> &ResidualMlp {
        self.net
    }

    /// Batch logits into the scratch's `cur` buffer — bit-identical to
    /// [`ResidualMlp::logits`] (the traced forward keeps intermediates;
    /// this one reuses two trunk buffers, same ops and bits). The
    /// stem/inner ReLUs ride the packed cores' fused write-back; the block
    /// output ReLU follows the skip add, so it stays a separate sweep.
    pub fn logits_into(&self, x: &Matrix, s: &mut ResidualEvalScratch) {
        let net = self.net;
        net.stem
            .forward_prepacked_relu_into(&self.packs.stem, x, &mut s.cur);
        for (block, (p1, p2)) in net.blocks.iter().zip(&self.packs.blocks) {
            block
                .l1
                .forward_prepacked_relu_into(p1, &s.cur, &mut s.hidden);
            block.l2.forward_prepacked_into(p2, &s.hidden, &mut s.next);
            s.next.add_assign(&s.cur);
            relu_in_place(&mut s.next);
            std::mem::swap(&mut s.cur, &mut s.next);
        }
        net.head
            .forward_prepacked_into(&self.packs.head, &s.cur, &mut s.next);
        std::mem::swap(&mut s.cur, &mut s.next);
    }

    /// Mean clamped negative log-likelihood on one validation batch —
    /// bit-identical to [`crate::log_loss_of`] on the unpacked network.
    /// Returns `NaN` for an empty batch.
    ///
    /// # Panics
    /// Panics when `x.rows() != y.len()`.
    pub fn log_loss_scratch(&self, x: &Matrix, y: &[usize], s: &mut ResidualEvalScratch) -> f64 {
        assert_eq!(x.rows(), y.len(), "feature/label count mismatch");
        if y.is_empty() {
            return f64::NAN;
        }
        self.logits_into(x, s);
        for r in 0..s.cur.rows() {
            softmax_in_place(s.cur.row_mut(r));
        }
        crate::loss::nll_of_proba(&s.cur, y)
    }
}

impl Classifier for ResidualMlp {
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
        self.stem.fan_in()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::{accuracy_of, log_loss_of};
    use st_data::normal;

    fn blobs(n_per: usize, centers: &[(f64, f64)], seed: u64) -> (Matrix, Vec<usize>) {
        let mut rng = seeded_rng(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for (label, &(cx, cy)) in centers.iter().enumerate() {
            for _ in 0..n_per {
                rows.push(cx + 0.3 * normal(&mut rng));
                rows.push(cy + 0.3 * normal(&mut rng));
                labels.push(label);
            }
        }
        (Matrix::from_vec(labels.len(), 2, rows), labels)
    }

    #[test]
    fn shapes_and_param_count() {
        let mut rng = seeded_rng(1);
        let net = ResidualMlp::new(4, 8, 3, 5, &mut rng);
        assert_eq!(net.input_dim(), 4);
        assert_eq!(net.num_classes(), 5);
        assert_eq!(net.blocks.len(), 3);
        // stem 4·8+8, 3 blocks of 2·(8·8+8), head 8·5+5.
        assert_eq!(net.num_params(), (32 + 8) + 3 * 2 * (64 + 8) + (40 + 5));
    }

    #[test]
    fn forward_produces_distributions() {
        let mut rng = seeded_rng(2);
        let net = ResidualMlp::new(3, 6, 2, 4, &mut rng);
        let x = Matrix::from_fn(5, 3, |r, c| (r as f64 - 2.0) * (c as f64 + 0.3));
        let p = net.predict_proba(&x);
        for r in 0..5 {
            let s: f64 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn learns_separable_blobs() {
        let (x, y) = blobs(60, &[(-2.0, 0.0), (2.0, 0.0), (0.0, 2.0)], 3);
        let cfg = ResidualTrainConfig {
            epochs: 30,
            ..Default::default()
        };
        let net = ResidualMlp::train(&x, &y, 2, 3, &cfg);
        let acc = accuracy_of(&net, &x, &y);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn packed_view_is_bit_identical_and_scratch_is_shareable() {
        let (x, y) = blobs(40, &[(-2.0, 0.0), (2.0, 0.0), (0.0, 2.0)], 9);
        let cfg = ResidualTrainConfig {
            width: 6,
            depth: 2,
            epochs: 3,
            ..Default::default()
        };
        let a = ResidualMlp::train(&x, &y, 2, 3, &cfg);
        let b = ResidualMlp::train(&x, &y, 2, 3, &ResidualTrainConfig { seed: 5, ..cfg });
        // One scratch across two models and two batch sizes: the packs live
        // in the views, so scratch reuse cannot go stale.
        let mut s = ResidualEvalScratch::default();
        for net in [&a, &b] {
            let packed = net.packed();
            for rows in [1usize, 7] {
                let xs = x.gather_rows(&(0..rows).collect::<Vec<_>>());
                let want = net.logits(&xs);
                packed.logits_into(&xs, &mut s);
                for (w, g) in want.as_slice().iter().zip(s.cur.as_slice()) {
                    assert_eq!(w.to_bits(), g.to_bits());
                }
            }
            let want = log_loss_of(net, &x, &y);
            let got = packed.log_loss_scratch(&x, &y, &mut s);
            assert_eq!(want.to_bits(), got.to_bits());
        }
        assert!(a
            .packed()
            .log_loss_scratch(&Matrix::zeros(0, 2), &[], &mut s)
            .is_nan());
    }

    #[test]
    fn learns_xor_which_needs_depth() {
        let mut rng = seeded_rng(4);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..100 {
            for (cx, cy, l) in [
                (-1.0, -1.0, 0),
                (1.0, 1.0, 0),
                (-1.0, 1.0, 1),
                (1.0, -1.0, 1),
            ] {
                rows.push(cx + 0.15 * normal(&mut rng));
                rows.push(cy + 0.15 * normal(&mut rng));
                labels.push(l);
            }
        }
        let x = Matrix::from_vec(labels.len(), 2, rows);
        let cfg = ResidualTrainConfig {
            epochs: 40,
            width: 16,
            depth: 2,
            ..Default::default()
        };
        let net = ResidualMlp::train(&x, &labels, 2, 2, &cfg);
        assert!(log_loss_of(&net, &x, &labels) < 0.2);
    }

    #[test]
    fn training_is_deterministic() {
        let (x, y) = blobs(20, &[(-1.5, 0.0), (1.5, 0.0)], 5);
        let cfg = ResidualTrainConfig {
            epochs: 5,
            ..Default::default()
        };
        let a = ResidualMlp::train(&x, &y, 2, 2, &cfg);
        let b = ResidualMlp::train(&x, &y, 2, 2, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn deeper_trunk_still_trains_thanks_to_skips() {
        // 8 blocks of width 16 — a plain 17-layer MLP at this width would
        // struggle; residual skips keep gradients flowing. Deeper trunks
        // need a gentler step (heavy-ball at lr 0.05 oscillates at depth 8).
        let (x, y) = blobs(60, &[(-2.0, 0.0), (2.0, 0.0)], 6);
        let cfg = ResidualTrainConfig {
            epochs: 40,
            width: 16,
            depth: 8,
            lr: 0.02,
            ..Default::default()
        };
        let net = ResidualMlp::train(&x, &y, 2, 2, &cfg);
        assert!(
            log_loss_of(&net, &x, &y) < 0.2,
            "loss {}",
            log_loss_of(&net, &x, &y)
        );
    }

    #[test]
    fn zero_depth_degenerates_to_one_hidden_layer() {
        let (x, y) = blobs(40, &[(-2.0, 0.0), (2.0, 0.0)], 7);
        let cfg = ResidualTrainConfig {
            epochs: 20,
            depth: 0,
            ..Default::default()
        };
        let net = ResidualMlp::train(&x, &y, 2, 2, &cfg);
        assert!(net.blocks.is_empty());
        assert!(accuracy_of(&net, &x, &y) > 0.95);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_bad_labels() {
        let x = Matrix::zeros(1, 2);
        let _ = ResidualMlp::train(&x, &[9], 2, 2, &ResidualTrainConfig::default());
    }
}
