//! Log-loss and accuracy evaluation, overall and per slice.
//!
//! These functions compute the paper's `ψ(s, M)` — the log loss of model `M`
//! on dataset `s` — which is the only model signal Slice Tuner's estimator
//! and optimizer consume.

use crate::batch::{examples_to_matrix, labels_of};
use crate::network::{Mlp, PackedMlp};
use st_data::{Example, SlicedDataset};
use st_linalg::{Matrix, PackedB, EPS_PROB};

/// The clamped negative log-likelihood reduction shared by every loss
/// entry point (Keras-style `[EPS_PROB, 1-EPS_PROB]` clamp so a single
/// confident mistake cannot produce an infinite loss).
pub(crate) fn nll_of_proba(p: &Matrix, y: &[usize]) -> f64 {
    let mut total = 0.0;
    for (r, &label) in y.iter().enumerate() {
        let prob = p[(r, label)].clamp(EPS_PROB, 1.0 - EPS_PROB);
        total -= prob.ln();
    }
    total / y.len() as f64
}

/// Mean negative log-likelihood of the true labels under the model.
///
/// Probabilities are clamped to `[EPS_PROB, 1-EPS_PROB]` (Keras-style) so a
/// single confident mistake cannot produce an infinite loss. Returns `NaN`
/// for an empty batch.
pub fn log_loss(model: &Mlp, x: &Matrix, y: &[usize]) -> f64 {
    assert_eq!(x.rows(), y.len(), "feature/label count mismatch");
    if y.is_empty() {
        return f64::NAN;
    }
    nll_of_proba(&model.predict_proba(x), y)
}

/// [`log_loss`] against a prepacked evaluation view ([`Mlp::packed`]):
/// bit-identical, but the weights are packed once for the view instead of
/// once per call — the win when one model scores many slices.
pub fn log_loss_packed(model: &PackedMlp<'_>, x: &Matrix, y: &[usize]) -> f64 {
    log_loss_packed_scratch(model, x, y, &mut EvalScratch::default())
}

/// Reusable activation buffers for the packed evaluation loop
/// ([`log_loss_packed_scratch`]): one scratch serves any number of
/// batches/models, keeping repeated evaluation allocation-free in steady
/// state.
#[derive(Debug, Default)]
pub struct EvalScratch {
    cur: Matrix,
    next: Matrix,
}

/// [`log_loss_packed`] with caller-owned scratch: identical bits, but the
/// forward activations reuse `scratch`'s buffers instead of allocating per
/// call — the estimator scores every slice against every trained subset
/// model, and these buffers were its last per-call allocations.
pub fn log_loss_packed_scratch(
    model: &PackedMlp<'_>,
    x: &Matrix,
    y: &[usize],
    scratch: &mut EvalScratch,
) -> f64 {
    assert_eq!(x.rows(), y.len(), "feature/label count mismatch");
    if y.is_empty() {
        return f64::NAN;
    }
    model.logits_into(x, &mut scratch.cur, &mut scratch.next);
    let p = &mut scratch.cur;
    for r in 0..p.rows() {
        st_linalg::softmax_in_place(p.row_mut(r));
    }
    nll_of_proba(p, y)
}

/// [`log_loss_packed`] over a list of examples.
pub fn log_loss_packed_on(model: &PackedMlp<'_>, examples: &[Example]) -> f64 {
    log_loss_packed(model, &examples_to_matrix(examples), &labels_of(examples))
}

/// Fraction of correct argmax predictions. Returns `NaN` for an empty batch.
pub fn accuracy(model: &Mlp, x: &Matrix, y: &[usize]) -> f64 {
    assert_eq!(x.rows(), y.len(), "feature/label count mismatch");
    if y.is_empty() {
        return f64::NAN;
    }
    let pred = model.predict(x);
    let hits = pred.iter().zip(y).filter(|(p, t)| p == t).count();
    hits as f64 / y.len() as f64
}

/// A multi-model evaluation view: scores one estimation group (the
/// repeats of one subset size, each trained alone) on the validation set.
///
/// All models' weights are packed once for any number of validation
/// batches. When every model is a single affine layer — the
/// softmax-regression shape of the estimator's hottest cell — the weight
/// matrices are column-stacked into one `d × (R·c)` operand
/// `[W_1 | … | W_R]` so a single packed GEMM scores every model per batch,
/// filling the simd panels that a 2-column per-model product leaves idle.
/// Deeper models fall back to per-model packed views sharing one scratch.
///
/// Per-model losses are bit-identical to [`log_loss_packed_scratch`]
/// against each model's own packed view: an output element's ascending-k
/// accumulation chain depends only on its A row and its B column, which
/// column-stacking preserves, and the per-row
/// softmax/NLL reads exactly the model's own `c` logits.
pub struct MultiEval<'a> {
    packed: Vec<PackedMlp<'a>>,
    stacked: Option<StackedHead>,
    classes: usize,
    batch: usize,
}

/// The column-stacked single-layer head: `[b_1 | … | b_R]` plus the packed
/// `[W_1 | … | W_R]` operand.
struct StackedHead {
    bias: Vec<f64>,
    pack: PackedB,
}

/// Reusable buffers for [`MultiEval::losses`]: the stacked logits and the
/// fallback path's [`EvalScratch`].
#[derive(Debug, Default)]
pub struct MultiEvalScratch {
    cur: Matrix,
    eval: EvalScratch,
}

impl<'a> MultiEval<'a> {
    /// Builds the view, packing every model's weights exactly once.
    ///
    /// # Panics
    /// Panics if `models` is empty.
    pub fn new(models: &'a [Mlp]) -> Self {
        assert!(!models.is_empty(), "MultiEval needs at least one model");
        let classes = models[0].num_classes();
        let d = models[0].input_dim();
        let single = models
            .iter()
            .all(|m| m.layers.len() == 1 && m.input_dim() == d && m.num_classes() == classes);
        if single {
            let cols = classes * models.len();
            let mut wcat = Matrix::zeros(d, cols);
            let mut bias = vec![0.0; cols];
            for (r, m) in models.iter().enumerate() {
                let layer = &m.layers[0];
                for i in 0..d {
                    wcat.row_mut(i)[r * classes..(r + 1) * classes].copy_from_slice(layer.w.row(i));
                }
                bias[r * classes..(r + 1) * classes].copy_from_slice(&layer.b);
            }
            let pack = wcat.pack_as_rhs();
            MultiEval {
                packed: Vec::new(),
                stacked: Some(StackedHead { bias, pack }),
                classes,
                batch: models.len(),
            }
        } else {
            MultiEval {
                packed: models.iter().map(Mlp::packed).collect(),
                stacked: None,
                classes,
                batch: models.len(),
            }
        }
    }

    /// Per-model losses on one validation batch: `result[r]` is
    /// bit-identical to `log_loss_packed_scratch(&models[r].packed(), x, y,
    /// ..)`. Returns all-`NaN` for an empty batch (the [`log_loss`]
    /// convention).
    pub fn losses(&self, x: &Matrix, y: &[usize], scratch: &mut MultiEvalScratch) -> Vec<f64> {
        assert_eq!(x.rows(), y.len(), "feature/label count mismatch");
        let mut out = vec![f64::NAN; self.batch];
        if y.is_empty() {
            return out;
        }
        match &self.stacked {
            Some(head) => {
                x.matmul_prepacked_bias_into(&head.pack, &head.bias, &mut scratch.cur);
                let c = self.classes;
                for (r, slot) in out.iter_mut().enumerate() {
                    let mut total = 0.0;
                    for (i, &label) in y.iter().enumerate() {
                        // NLL reads one probability, so the segment is
                        // scored in place: `softmax_prob` is bit-identical
                        // to softmaxing the copied segment and indexing it,
                        // minus the copy and the unread divisions.
                        let seg = &scratch.cur.row(i)[r * c..(r + 1) * c];
                        let p = st_linalg::softmax_prob(seg, label);
                        total -= p.clamp(EPS_PROB, 1.0 - EPS_PROB).ln();
                    }
                    *slot = total / y.len() as f64;
                }
            }
            None => {
                for (r, m) in self.packed.iter().enumerate() {
                    out[r] = log_loss_packed_scratch(m, x, y, &mut scratch.eval);
                }
            }
        }
        out
    }
}

/// Per-slice validation losses `ψ(s_i, M)`, in slice-id order.
///
/// One model scores every slice, so the weights are packed **once** and
/// reused for all per-slice forward passes (bit-identical to per-call
/// packing; the prepacked contract), and the per-slice validation
/// matrices come from the dataset's cached dense snapshot
/// ([`SlicedDataset::matrices`]) instead of being re-gathered from the
/// example lists on every evaluation — byte-identical inputs, identical
/// loss bits.
pub fn per_slice_validation_losses(model: &Mlp, ds: &SlicedDataset) -> Vec<f64> {
    let packed = model.packed();
    let m = ds.matrices();
    let mut scratch = EvalScratch::default();
    (0..ds.num_slices())
        .map(|s| log_loss_packed_scratch(&packed, &m.val_x[s], &m.val_y[s], &mut scratch))
        .collect()
}

/// Loss on the pooled validation set: the paper's `ψ(D, M)`.
///
/// Computed as the size-weighted mean of per-slice losses, which equals the
/// loss on the concatenated validation data. Packs the weights once and
/// rides the cached validation matrices like
/// [`per_slice_validation_losses`].
pub fn overall_validation_loss(model: &Mlp, ds: &SlicedDataset) -> f64 {
    let packed = model.packed();
    let m = ds.matrices();
    let mut scratch = EvalScratch::default();
    let mut total = 0.0;
    let mut count = 0usize;
    for s in 0..ds.num_slices() {
        if m.val_y[s].is_empty() {
            continue;
        }
        total += log_loss_packed_scratch(&packed, &m.val_x[s], &m.val_y[s], &mut scratch)
            * m.val_y[s].len() as f64;
        count += m.val_y[s].len();
    }
    if count == 0 {
        f64::NAN
    } else {
        total / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ModelSpec;
    use crate::trainer::{train_on_examples, TrainConfig};
    use st_data::{seeded_rng, SliceId};

    fn perfect_model() -> (Mlp, Matrix, Vec<usize>) {
        // A hand-built linear model that classifies x[0] sign perfectly.
        let mut rng = seeded_rng(0);
        let mut net = Mlp::new(1, &[], 2, &mut rng);
        net.layers[0].w = Matrix::from_vec(1, 2, vec![-10.0, 10.0]);
        net.layers[0].b = vec![0.0, 0.0];
        let x = Matrix::from_vec(4, 1, vec![-1.0, -2.0, 1.0, 2.0]);
        let y = vec![0, 0, 1, 1];
        (net, x, y)
    }

    #[test]
    fn perfect_predictions_have_tiny_loss_and_full_accuracy() {
        let (net, x, y) = perfect_model();
        assert!(log_loss(&net, &x, &y) < 1e-4);
        assert_eq!(accuracy(&net, &x, &y), 1.0);
    }

    #[test]
    fn inverted_predictions_have_large_loss() {
        let (net, x, mut y) = perfect_model();
        y.reverse(); // now every prediction is wrong
        assert!(log_loss(&net, &x, &y) > 5.0);
        assert_eq!(accuracy(&net, &x, &y), 0.0);
    }

    #[test]
    fn loss_is_clamped_not_infinite() {
        let (mut net, x, y) = perfect_model();
        net.layers[0].w = Matrix::from_vec(1, 2, vec![-1e6, 1e6]);
        let mut wrong = y.clone();
        wrong.swap(0, 2);
        let loss = log_loss(&net, &x, &wrong);
        assert!(loss.is_finite());
        assert!(loss <= -(EPS_PROB.ln()) + 1e-9);
    }

    #[test]
    fn empty_batch_is_nan() {
        let (net, _, _) = perfect_model();
        assert!(log_loss(&net, &Matrix::zeros(0, 0), &[]).is_nan());
    }

    #[test]
    fn per_slice_and_overall_agree_on_sliced_dataset() {
        let fam = st_data::families::census();
        let ds = SlicedDataset::generate(&fam, &[60; 4], 40, 21);
        let model = train_on_examples(
            &ds.all_train(),
            fam.feature_dim,
            fam.num_classes,
            &ModelSpec::softmax(),
            &TrainConfig::default(),
        );
        let per = per_slice_validation_losses(&model, &ds);
        assert_eq!(per.len(), 4);
        assert!(per.iter().all(|l| l.is_finite() && *l > 0.0));
        // Equal validation sizes: overall = mean of per-slice losses.
        let overall = overall_validation_loss(&model, &ds);
        let mean = per.iter().sum::<f64>() / 4.0;
        assert!((overall - mean).abs() < 1e-9);
    }

    #[test]
    fn random_guessing_loss_near_ln_k() {
        // An untrained model on balanced random labels scores about ln(k).
        let fam = st_data::families::fashion();
        let ds = SlicedDataset::generate(&fam, &[5; 10], 30, 33);
        let mut rng = seeded_rng(1);
        let net = Mlp::new(fam.feature_dim, &[], fam.num_classes, &mut rng);
        let loss = overall_validation_loss(&net, &ds);
        // He-initialized logits are not exactly uniform, but the loss must
        // sit in the "best guess" band around ln(10) ≈ 2.30, far above a
        // trained model's and far below the clamped maximum (~16).
        assert!(loss > 1.6 && loss < 6.0, "loss {loss}");
    }

    #[test]
    fn slice_example_count_weighting() {
        // Overall loss must weight slices by validation size, not equally.
        let fam = st_data::families::census();
        let mut ds = SlicedDataset::generate(&fam, &[30; 4], 20, 5);
        ds.slices[0].validation.truncate(1); // unbalance the validation sets
        let model = train_on_examples(
            &ds.all_train(),
            fam.feature_dim,
            fam.num_classes,
            &ModelSpec::softmax(),
            &TrainConfig::default(),
        );
        let per = per_slice_validation_losses(&model, &ds);
        let sizes = [1.0, 20.0, 20.0, 20.0];
        let weighted: f64 =
            per.iter().zip(sizes).map(|(l, s)| l * s).sum::<f64>() / sizes.iter().sum::<f64>();
        assert!((overall_validation_loss(&model, &ds) - weighted).abs() < 1e-9);
    }

    #[test]
    fn multi_eval_matches_per_model_losses_bitwise() {
        let fam = st_data::families::census();
        let ds = SlicedDataset::generate(&fam, &[40; 4], 30, 13);
        let m = ds.matrices();
        // Both head shapes: the stacked single-layer fast path and the
        // per-model fallback for hidden layers.
        for hidden in [&[] as &[usize], &[6]] {
            let models: Vec<Mlp> = (0..5)
                .map(|i| {
                    let mut rng = seeded_rng(100 + i);
                    Mlp::new(fam.feature_dim, hidden, fam.num_classes, &mut rng)
                })
                .collect();
            let eval = MultiEval::new(&models);
            let mut scratch = MultiEvalScratch::default();
            for s in 0..ds.num_slices() {
                let got = eval.losses(&m.val_x[s], &m.val_y[s], &mut scratch);
                for (r, model) in models.iter().enumerate() {
                    let want = log_loss_packed_scratch(
                        &model.packed(),
                        &m.val_x[s],
                        &m.val_y[s],
                        &mut EvalScratch::default(),
                    );
                    assert_eq!(
                        want.to_bits(),
                        got[r].to_bits(),
                        "hidden {hidden:?} s {s} r {r}"
                    );
                }
            }
        }
        // Empty batch keeps the NaN convention per model.
        let models = vec![Mlp::new(
            fam.feature_dim,
            &[],
            fam.num_classes,
            &mut seeded_rng(1),
        )];
        let eval = MultiEval::new(&models);
        let got = eval.losses(&Matrix::zeros(0, 0), &[], &mut MultiEvalScratch::default());
        assert!(got.iter().all(|l| l.is_nan()));
    }

    #[test]
    fn trained_on_examples_classifies_generated_data() {
        let fam = st_data::families::fashion();
        let ds = SlicedDataset::generate(&fam, &[80; 10], 50, 77);
        let model = train_on_examples(
            &ds.all_train(),
            fam.feature_dim,
            fam.num_classes,
            &ModelSpec::basic(),
            &TrainConfig::default(),
        );
        let val = ds.all_validation();
        let x = examples_to_matrix(&val);
        let y: Vec<usize> = val.iter().map(|e| e.label).collect();
        let acc = accuracy(&model, &x, &y);
        // The fashion family deliberately contains a near-unresolvable
        // confusable trio, so Bayes accuracy is well below 1; the trained
        // model must still beat chance (0.1) by a wide margin.
        assert!(
            acc > 0.40,
            "accuracy {acc} too low for 10-way with 80/slice"
        );
        let _ = SliceId(0); // silence unused import lint in some cfgs
    }
}
