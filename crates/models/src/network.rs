//! The multi-layer perceptron.

use rand::rngs::StdRng;
use st_data::rng::normal;
use st_linalg::{softmax_in_place, Matrix, PackedB, SimdWidth};

/// One fully-connected layer: `out = in · W + b`.
///
/// `w` is stored `fan_in × fan_out` so a row-major batch `X (n × fan_in)`
/// multiplies directly.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    /// Weight matrix, `fan_in × fan_out`.
    pub w: Matrix,
    /// Bias vector, length `fan_out`.
    pub b: Vec<f64>,
}

impl Layer {
    /// He-initialized layer (`N(0, 2/fan_in)` weights, zero bias).
    pub fn he_init(fan_in: usize, fan_out: usize, rng: &mut StdRng) -> Self {
        let scale = (2.0 / fan_in.max(1) as f64).sqrt();
        let w = Matrix::from_fn(fan_in, fan_out, |_, _| scale * normal(rng));
        Layer {
            w,
            b: vec![0.0; fan_out],
        }
    }

    /// Output dimensionality.
    pub fn fan_out(&self) -> usize {
        self.w.cols()
    }

    /// Input dimensionality.
    pub fn fan_in(&self) -> usize {
        self.w.rows()
    }

    /// Affine forward pass for a batch: `X·W + b`.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.forward_into(x, &mut out);
        out
    }

    /// [`forward`](Self::forward) into a reusable output matrix (same
    /// ops, identical bits, no allocation in steady state).
    pub fn forward_into(&self, x: &Matrix, out: &mut Matrix) {
        x.matmul_into(&self.w, out);
        out.add_bias_rows(&self.b);
    }

    /// Packs `w` once for reuse across forward calls (the `X·W` shape).
    ///
    /// The handle is a snapshot: re-pack after any weight update (see the
    /// lifetime contract on [`PackedB`]).
    pub fn pack_weights(&self) -> PackedB {
        self.w.pack_as_rhs()
    }

    /// [`pack_weights`](Self::pack_weights) into a reusable handle.
    pub fn pack_weights_into(&self, dst: &mut PackedB) {
        self.w.pack_as_rhs_into(dst);
    }

    /// [`forward_into`](Self::forward_into) against a prepacked weight
    /// handle — bit-identical, no per-call packing. The bias broadcast is
    /// fused into the packed cores' write-back
    /// ([`Matrix::matmul_prepacked_bias_into`]), so the affine forward is
    /// one pass over the output instead of two.
    pub fn forward_prepacked_into(&self, pack: &PackedB, x: &Matrix, out: &mut Matrix) {
        x.matmul_prepacked_bias_into(pack, &self.b, out);
    }

    /// Hidden-layer forward: [`forward_prepacked_into`](Self::forward_prepacked_into)
    /// with the ReLU clamp also fused into
    /// the packed write-back ([`Matrix::matmul_prepacked_bias_relu_into`]).
    /// One pass over the output instead of three (gemm, bias, clamp);
    /// bit-identical to the affine forward followed by the scalar clamp.
    pub fn forward_prepacked_relu_into(&self, pack: &PackedB, x: &Matrix, out: &mut Matrix) {
        x.matmul_prepacked_bias_relu_into(pack, &self.b, out);
    }
}

/// Backward pass through a ReLU: zeroes `d` wherever the post-ReLU
/// activation `act` is `<= 0.0`.
///
/// Each element is a select, not a branch: about half of a layer's units
/// are inactive in no learnable pattern, so a per-element branch
/// mispredicts, while a select over whole slices vectorizes. The select
/// gives the branch's bits: `+0.0` and `-0.0` activations pass no
/// gradient, and a NaN activation passes its gradient through. The pass
/// runs at the host's vector width (`st_linalg::SimdWidth::run`), with the
/// same bits at every width.
pub(crate) fn relu_backward(d: &mut [f64], act: &[f64]) {
    relu_backward_at(SimdWidth::detected(), d, act);
}

/// [`relu_backward`] compiled for `width` (capped at the host's).
fn relu_backward_at(width: SimdWidth, d: &mut [f64], act: &[f64]) {
    assert_eq!(d.len(), act.len(), "gradient/activation length mismatch");
    width.run(
        #[inline(always)]
        || {
            for (v, &a) in d.iter_mut().zip(act) {
                *v = if a <= 0.0 { 0.0 } else { *v };
            }
        },
    );
}

/// A ReLU multi-layer perceptron with a softmax output head.
///
/// With no hidden layers this is exactly multinomial logistic (softmax)
/// regression — the model the paper uses for AdultCensus. With one or two
/// hidden layers it plays the role of the paper's "basic CNNs"; see
/// [`crate::ModelSpec::deep`] for the ResNet-18 stand-in.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    /// Layers, input first. The last layer produces logits.
    pub layers: Vec<Layer>,
}

impl Mlp {
    /// Builds a seeded, He-initialized network.
    ///
    /// # Panics
    /// Panics if `input_dim` or `num_classes` is zero.
    pub fn new(input_dim: usize, hidden: &[usize], num_classes: usize, rng: &mut StdRng) -> Self {
        assert!(input_dim > 0, "input_dim must be positive");
        assert!(num_classes > 0, "num_classes must be positive");
        let mut dims = Vec::with_capacity(hidden.len() + 2);
        dims.push(input_dim);
        dims.extend_from_slice(hidden);
        dims.push(num_classes);
        let layers = dims
            .windows(2)
            .map(|d| Layer::he_init(d[0], d[1], rng))
            .collect::<Vec<_>>();
        Mlp { layers }
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.layers.last().expect("at least one layer").fan_out()
    }

    /// Expected input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.layers.first().expect("at least one layer").fan_in()
    }

    /// Total trainable parameter count.
    pub fn num_params(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.w.rows() * l.w.cols() + l.b.len())
            .sum()
    }

    /// True when every weight and bias is finite. A non-finite parameter
    /// means some minibatch produced a non-finite loss or gradient and the
    /// model is poisoned; the trainer's numeric guard checks this once per
    /// epoch (O(params), negligible next to the epoch's GEMMs).
    pub fn params_finite(&self) -> bool {
        self.layers.iter().all(|l| {
            l.w.as_slice().iter().all(|v| v.is_finite()) && l.b.iter().all(|v| v.is_finite())
        })
    }

    /// Forward pass retaining every post-activation (used by backprop).
    ///
    /// Returns `(activations, logits)`: `activations[0]` is the input, and
    /// `activations[i]` the ReLU output of hidden layer `i`.
    pub fn forward_trace(&self, x: &Matrix) -> (Vec<Matrix>, Matrix) {
        let mut activations = Vec::with_capacity(self.layers.len());
        activations.push(x.clone());
        let mut cur = x.clone();
        for (i, layer) in self.layers.iter().enumerate() {
            let mut z = layer.forward(&cur);
            let is_last = i + 1 == self.layers.len();
            if !is_last {
                for v in z.as_mut_slice() {
                    if *v < 0.0 {
                        *v = 0.0;
                    }
                }
                activations.push(z.clone());
            }
            cur = z;
        }
        (activations, cur)
    }

    /// Batch logits.
    pub fn logits(&self, x: &Matrix) -> Matrix {
        self.forward_trace(x).1
    }

    /// Batch class probabilities: each row of the result sums to one.
    pub fn predict_proba(&self, x: &Matrix) -> Matrix {
        let mut logits = self.logits(x);
        for r in 0..logits.rows() {
            softmax_in_place(logits.row_mut(r));
        }
        logits
    }

    /// Class predictions (argmax of probabilities).
    pub fn predict(&self, x: &Matrix) -> Vec<usize> {
        let logits = self.logits(x);
        (0..logits.rows())
            .map(|r| st_linalg::argmax(logits.row(r)))
            .collect()
    }

    /// An evaluation view with every layer's weights packed **once** for
    /// reuse across many forward passes.
    ///
    /// The estimator and the per-slice evaluators run the same trained
    /// model over every slice's validation set; packing per `matmul` call
    /// re-shuffles identical weight bytes each time. The view borrows the
    /// network immutably, so the packs cannot go stale while it lives —
    /// the invalidation contract is enforced by the borrow checker.
    /// Outputs are bit-identical to the unpacked paths.
    pub fn packed(&self) -> PackedMlp<'_> {
        PackedMlp {
            net: self,
            packs: self.layers.iter().map(Layer::pack_weights).collect(),
        }
    }
}

/// A read-only [`Mlp`] evaluation view with prepacked weights (see
/// [`Mlp::packed`]).
#[derive(Debug)]
pub struct PackedMlp<'a> {
    net: &'a Mlp,
    packs: Vec<PackedB>,
}

impl PackedMlp<'_> {
    /// The underlying network.
    pub fn network(&self) -> &Mlp {
        self.net
    }

    /// Batch logits — the op-for-op mirror of [`Mlp::logits`] (same ReLU,
    /// same GEMM chains), so the bits match exactly.
    pub fn logits(&self, x: &Matrix) -> Matrix {
        let mut cur = Matrix::zeros(0, 0);
        let mut next = Matrix::zeros(0, 0);
        self.logits_into(x, &mut cur, &mut next);
        cur
    }

    /// [`Self::logits`] into caller-owned ping-pong buffers, reused across
    /// calls: the per-slice evaluation loop scores hundreds of batches
    /// against one packed model, and the activation buffers are the last
    /// per-call allocation on that path. The logits land in `cur`; `next`
    /// is scratch. Identical ops and bits to [`Self::logits`].
    pub fn logits_into(&self, x: &Matrix, cur: &mut Matrix, next: &mut Matrix) {
        let last = self.net.layers.len() - 1;
        for (i, (layer, pack)) in self.net.layers.iter().zip(&self.packs).enumerate() {
            let input = if i == 0 { x } else { &*cur };
            if i != last {
                // Hidden layer: the ReLU clamp rides the packed cores'
                // single write-back instead of a second sweep. Same clamp
                // (`< 0.0`), same bits as the two-pass sequence.
                layer.forward_prepacked_relu_into(pack, input, next);
            } else {
                layer.forward_prepacked_into(pack, input, next);
            }
            std::mem::swap(cur, next);
        }
    }

    /// Batch class probabilities: each row of the result sums to one.
    pub fn predict_proba(&self, x: &Matrix) -> Matrix {
        let mut logits = self.logits(x);
        for r in 0..logits.rows() {
            softmax_in_place(logits.row_mut(r));
        }
        logits
    }

    /// Class predictions (argmax of probabilities).
    pub fn predict(&self, x: &Matrix) -> Vec<usize> {
        let logits = self.logits(x);
        (0..logits.rows())
            .map(|r| st_linalg::argmax(logits.row(r)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_data::seeded_rng;

    #[test]
    fn shapes_of_constructed_network() {
        let mut rng = seeded_rng(1);
        let net = Mlp::new(4, &[8, 6], 3, &mut rng);
        assert_eq!(net.layers.len(), 3);
        assert_eq!(net.input_dim(), 4);
        assert_eq!(net.num_classes(), 3);
        assert_eq!(net.num_params(), 4 * 8 + 8 + 8 * 6 + 6 + 6 * 3 + 3);
    }

    #[test]
    fn no_hidden_layers_is_linear_model() {
        let mut rng = seeded_rng(2);
        let net = Mlp::new(3, &[], 2, &mut rng);
        assert_eq!(net.layers.len(), 1);
        // Logits must be affine: f(2x) - f(0) = 2(f(x) - f(0)).
        let x0 = Matrix::zeros(1, 3);
        let x1 = Matrix::from_vec(1, 3, vec![1.0, -0.5, 2.0]);
        let x2 = Matrix::from_vec(1, 3, vec![2.0, -1.0, 4.0]);
        let f0 = net.logits(&x0);
        let f1 = net.logits(&x1);
        let f2 = net.logits(&x2);
        for j in 0..2 {
            let lhs = f2[(0, j)] - f0[(0, j)];
            let rhs = 2.0 * (f1[(0, j)] - f0[(0, j)]);
            assert!((lhs - rhs).abs() < 1e-10);
        }
    }

    #[test]
    fn predict_proba_rows_are_distributions() {
        let mut rng = seeded_rng(3);
        let net = Mlp::new(5, &[7], 4, &mut rng);
        let x = Matrix::from_fn(6, 5, |r, c| (r * 5 + c) as f64 / 10.0 - 1.0);
        let p = net.predict_proba(&x);
        for r in 0..6 {
            let s: f64 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
            assert!(p.row(r).iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn seeded_init_is_reproducible() {
        let a = Mlp::new(4, &[5], 3, &mut seeded_rng(7));
        let b = Mlp::new(4, &[5], 3, &mut seeded_rng(7));
        assert_eq!(a, b);
        let c = Mlp::new(4, &[5], 3, &mut seeded_rng(8));
        assert_ne!(a, c);
    }

    #[test]
    fn packed_view_is_bit_identical_to_plain_forward() {
        let mut rng = seeded_rng(21);
        for hidden in [&[] as &[usize], &[7], &[9, 6]] {
            let net = Mlp::new(5, hidden, 3, &mut rng);
            let packed = net.packed();
            for rows in [1usize, 4, 33] {
                let x = Matrix::from_fn(rows, 5, |r, c| ((r * 5 + c) as f64 * 0.37).sin());
                let want = net.logits(&x);
                let got = packed.logits(&x);
                assert_eq!(want.as_slice().len(), got.as_slice().len());
                for (w, g) in want.as_slice().iter().zip(got.as_slice()) {
                    assert_eq!(w.to_bits(), g.to_bits(), "{w} vs {g}");
                }
                assert_eq!(net.predict(&x), packed.predict(&x));
            }
        }
    }

    /// The branchy backward ReLU the trainer ran before [`relu_backward`],
    /// kept as its bit reference.
    fn relu_backward_reference(d: &mut [f64], act: &[f64]) {
        for (v, &a) in d.iter_mut().zip(act) {
            if a <= 0.0 {
                *v = 0.0;
            }
        }
    }

    #[test]
    fn relu_backward_keeps_the_branchy_bits() {
        let sub = f64::MIN_POSITIVE / 4.0;
        let acts = [
            0.0,
            -0.0,
            sub,
            -sub,
            1.0,
            -1.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let grads = [
            0.0,
            -0.0,
            1.5,
            -1.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        // Every (activation, gradient) pair. Opaque inputs: constant
        // folding may not pick a NaN payload the hardware would not.
        let (act, grad): (Vec<f64>, Vec<f64>) = std::hint::black_box(
            acts.iter()
                .flat_map(|&a| grads.iter().map(move |&g| (a, g)))
                .unzip(),
        );
        let mut want = grad.clone();
        relu_backward_reference(&mut want, &act);
        // Baseline and every vector width the host supports.
        for width in SimdWidth::supported() {
            let mut got = grad.clone();
            relu_backward_at(width, &mut got, &act);
            for (i, (w, g)) in want.iter().zip(&got).enumerate() {
                assert_eq!(
                    w.to_bits(),
                    g.to_bits(),
                    "{width:?}: act {:?}, grad {:?}: want {w:?}, got {g:?}",
                    act[i],
                    grad[i]
                );
            }
        }
    }

    #[test]
    fn relu_trace_is_nonnegative() {
        let mut rng = seeded_rng(9);
        let net = Mlp::new(4, &[6, 6], 2, &mut rng);
        let x = Matrix::from_fn(3, 4, |r, c| (r as f64 - 1.0) * (c as f64 + 0.5));
        let (acts, _) = net.forward_trace(&x);
        assert_eq!(acts.len(), 3); // input + two hidden activations
        for a in &acts[1..] {
            assert!(a.as_slice().iter().all(|&v| v >= 0.0));
        }
    }
}
