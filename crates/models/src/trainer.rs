//! Minibatch training with pluggable update rules, dropout, and optional
//! early stopping.
//!
//! The paper fixes hyperparameters once per dataset by grid search and never
//! changes them afterwards "for consistent model training"; experiments here
//! do the same — each dataset harness owns one [`TrainConfig`], and every
//! run is a deterministic function of `(data, spec, config)`.

use crate::batch::{examples_to_matrix, labels_of};
use crate::network::{relu_backward, Mlp};
use crate::optimizer::{LrSchedule, OptimizerKind, OptimizerState};
use crate::spec::ModelSpec;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use st_data::{seeded_rng, Example};
use st_linalg::{softmax_xent_grad, Matrix, PackedB};

/// Hyperparameters for one training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Base learning rate (scheduled per epoch by `schedule`).
    pub lr: f64,
    /// L2 weight-decay coefficient.
    pub l2: f64,
    /// Parameter update rule.
    pub optimizer: OptimizerKind,
    /// Learning-rate schedule.
    pub schedule: LrSchedule,
    /// Dropout probability on hidden activations (0 disables).
    pub dropout: f64,
    /// Seed for parameter init, minibatch shuffling, and dropout masks.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 30,
            batch_size: 32,
            lr: 0.12,
            l2: 1e-4,
            optimizer: OptimizerKind::default_momentum(),
            schedule: LrSchedule::Exponential { gamma: 0.97 },
            dropout: 0.0,
            seed: 0,
        }
    }
}

impl TrainConfig {
    /// Returns a copy with a different seed (per-trial reseeding).
    pub fn with_seed(&self, seed: u64) -> Self {
        TrainConfig {
            seed,
            ..self.clone()
        }
    }

    /// Returns a copy with a different update rule.
    pub fn with_optimizer(&self, optimizer: OptimizerKind) -> Self {
        TrainConfig {
            optimizer,
            ..self.clone()
        }
    }

    /// Returns a copy with dropout enabled at probability `p`.
    ///
    /// # Panics
    /// Panics unless `0 ≤ p < 1`.
    pub fn with_dropout(&self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout must be in [0, 1)");
        TrainConfig {
            dropout: p,
            ..self.clone()
        }
    }
}

/// A training run the numeric guards rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainError {
    /// A minibatch produced a non-finite loss or gradient: the epoch-end
    /// parameter scan found NaN/Inf weights, so the model is poisoned.
    NonFiniteLoss {
        /// Epoch (0-based) whose parameter scan failed.
        epoch: usize,
    },
    /// The validation loss became non-finite.
    NonFiniteValidation {
        /// Epoch (0-based) whose validation loss was non-finite.
        epoch: usize,
    },
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::NonFiniteLoss { epoch } => write!(
                f,
                "non-finite minibatch loss poisoned the model parameters at epoch {epoch}"
            ),
            TrainError::NonFiniteValidation { epoch } => {
                write!(f, "validation loss became non-finite at epoch {epoch}")
            }
        }
    }
}

impl std::error::Error for TrainError {}

/// Outcome of [`train_validated`]: the chosen model plus stopping metadata.
#[derive(Debug, Clone)]
pub struct TrainOutcome {
    /// The best model found (by validation loss when early stopping is on,
    /// otherwise the final model).
    pub model: Mlp,
    /// Epochs actually executed.
    pub epochs_run: usize,
    /// Validation loss of the returned model (`NaN` without validation).
    pub best_val_loss: f64,
}

/// Trains a network of architecture `spec` on a dense batch.
///
/// `x` is `n × input_dim`, `y` holds class indices below `num_classes`.
/// The run is a deterministic function of `(x, y, spec, config)`.
///
/// # Panics
/// Panics if `y.len() != x.rows()` or a label is out of range.
pub fn train(
    x: &Matrix,
    y: &[usize],
    input_dim: usize,
    num_classes: usize,
    spec: &ModelSpec,
    config: &TrainConfig,
) -> Mlp {
    train_validated(x, y, None, input_dim, num_classes, spec, config, None).model
}

/// Relative margin an epoch must beat the best validation loss by to count
/// as an improvement for early stopping (the `min_delta` of other
/// frameworks, expressed relatively so it is loss-scale-free).
const MIN_RELATIVE_IMPROVEMENT: f64 = 1e-3;

/// [`train`] with an optional validation set and early-stopping patience.
///
/// When `validation = Some((vx, vy))` and `patience = Some(p)`, training
/// stops after `p` consecutive epochs without improving the validation loss
/// by at least 0.1% relative (`MIN_RELATIVE_IMPROVEMENT`)
/// and returns the best model seen. Without patience the validation set is
/// only used to report `best_val_loss`.
///
/// # Panics
/// Panics on shape/label mismatches (see [`train`]), or when the numeric
/// guards reject the run — use [`try_train_validated`] to handle a
/// [`TrainError`] instead.
#[allow(clippy::too_many_arguments)]
pub fn train_validated(
    x: &Matrix,
    y: &[usize],
    validation: Option<(&Matrix, &[usize])>,
    input_dim: usize,
    num_classes: usize,
    spec: &ModelSpec,
    config: &TrainConfig,
    patience: Option<usize>,
) -> TrainOutcome {
    try_train_validated(
        x,
        y,
        validation,
        input_dim,
        num_classes,
        spec,
        config,
        patience,
    )
    .unwrap_or_else(|e| panic!("{e}"))
}

/// [`train_validated`] with the numeric guards surfaced as a typed error
/// instead of a panic.
///
/// # Errors
/// Returns a [`TrainError`] when a minibatch poisons the parameters with
/// non-finite values or the validation loss becomes non-finite.
#[allow(clippy::too_many_arguments)]
pub fn try_train_validated(
    x: &Matrix,
    y: &[usize],
    validation: Option<(&Matrix, &[usize])>,
    input_dim: usize,
    num_classes: usize,
    spec: &ModelSpec,
    config: &TrainConfig,
    patience: Option<usize>,
) -> Result<TrainOutcome, TrainError> {
    train_core(
        x,
        y,
        None,
        validation,
        input_dim,
        num_classes,
        spec,
        config,
        patience,
    )
}

/// Trains on the subset of `x`'s rows named by `rows` (with `y` labelling
/// **all** of `x`'s rows) without materializing the sub-matrix.
///
/// This is the estimator's gather-free entry point: the dataset keeps one
/// stacked training matrix (`SlicedDataset::matrices`), subset sampling
/// yields row ids, and every minibatch gathers its rows straight from the
/// stacked matrix. The run is bit-identical to extracting the sub-matrix
/// first and calling [`train`] on it — same RNG draws (init, shuffles,
/// dropout), same gathered bytes, same op order — just without the
/// intermediate copy.
///
/// Returns the freshly-initialized network when `rows` is empty (mirroring
/// [`train_on_examples`] on an empty list).
///
/// # Panics
/// Panics on shape mismatches, out-of-range row ids, or out-of-range
/// labels among the sampled rows.
pub fn train_on_rows(
    x: &Matrix,
    y: &[usize],
    rows: &[usize],
    input_dim: usize,
    num_classes: usize,
    spec: &ModelSpec,
    config: &TrainConfig,
) -> Mlp {
    try_train_on_rows(x, y, rows, input_dim, num_classes, spec, config)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// [`train_on_rows`] with the numeric guards surfaced as a typed error
/// instead of a panic. This is what the estimation layer's panic-isolation
/// wrapper catches and converts into an `EstimateError`.
///
/// # Errors
/// Returns a [`TrainError`] when a minibatch poisons the parameters with
/// non-finite values.
pub fn try_train_on_rows(
    x: &Matrix,
    y: &[usize],
    rows: &[usize],
    input_dim: usize,
    num_classes: usize,
    spec: &ModelSpec,
    config: &TrainConfig,
) -> Result<Mlp, TrainError> {
    if rows.is_empty() {
        let mut rng = seeded_rng(config.seed);
        return Ok(Mlp::new(input_dim, &spec.hidden, num_classes, &mut rng));
    }
    Ok(train_core(
        x,
        y,
        Some(rows),
        None,
        input_dim,
        num_classes,
        spec,
        config,
        None,
    )?
    .model)
}

/// The shared minibatch loop behind [`train_validated`] and
/// [`train_on_rows`]. `rows = Some(ids)` restricts training to those rows
/// of `x` (an index indirection resolved at minibatch-gather time);
/// `None` trains on all rows. Both paths run the identical op and RNG
/// sequence for the same effective training set.
#[allow(clippy::too_many_arguments)]
fn train_core(
    x: &Matrix,
    y: &[usize],
    rows: Option<&[usize]>,
    validation: Option<(&Matrix, &[usize])>,
    input_dim: usize,
    num_classes: usize,
    spec: &ModelSpec,
    config: &TrainConfig,
    patience: Option<usize>,
) -> Result<TrainOutcome, TrainError> {
    assert_eq!(x.rows(), y.len(), "feature/label count mismatch");
    match rows {
        None => assert!(y.iter().all(|&l| l < num_classes), "label out of range"),
        Some(ids) => {
            assert!(
                ids.iter().all(|&i| i < x.rows()),
                "row id out of range: {} rows",
                x.rows()
            );
            assert!(
                ids.iter().all(|&i| y[i] < num_classes),
                "label out of range"
            );
        }
    }

    let mut rng = seeded_rng(config.seed);
    let mut net = Mlp::new(input_dim, &spec.hidden, num_classes, &mut rng);
    let n = rows.map_or(x.rows(), <[usize]>::len);
    if n == 0 {
        return Ok(TrainOutcome {
            model: net,
            epochs_run: 0,
            best_val_loss: f64::NAN,
        });
    }

    // One optimizer slot per tensor: w then b per layer.
    let lens: Vec<usize> = net
        .layers
        .iter()
        .flat_map(|l| [l.w.rows() * l.w.cols(), l.b.len()])
        .collect();
    let mut opt = OptimizerState::new(config.optimizer, &lens);

    let mut order: Vec<usize> = (0..n).collect();
    let mut best: Option<(f64, Mlp)> = None;
    let mut since_best = 0usize;
    let mut epochs_run = 0usize;
    let mut scratch = TrainScratch::for_net(&net);

    for epoch in 0..config.epochs {
        let lr = config.schedule.lr_at(config.lr, epoch);
        order.shuffle(&mut rng);
        for chunk in order.chunks(config.batch_size.max(1)) {
            // With a row map the chunk's positions resolve to rows of the
            // backing matrix first; the gathered bytes — and therefore the
            // training bits — match gathering from the extracted
            // sub-matrix exactly.
            let gather: &[usize] = match rows {
                None => chunk,
                Some(ids) => {
                    scratch.map.clear();
                    scratch.map.extend(chunk.iter().map(|&i| ids[i]));
                    &scratch.map
                }
            };
            x.gather_rows_into(gather, &mut scratch.bx);
            scratch.by.clear();
            scratch.by.extend(gather.iter().map(|&i| y[i]));
            // ST_FAULT nan_loss injection point: a poisoned feature turns
            // this minibatch's loss non-finite, which the epoch-end
            // parameter scan below converts into a typed error.
            if st_linalg::fault::nan_loss_armed() {
                if let Some(v) = scratch.bx.as_mut_slice().first_mut() {
                    *v = f64::NAN;
                }
            }
            // Numeric guard, input side: a non-finite feature would flow
            // through softmax into every parameter; reject it as a typed
            // error before the step runs. One read pass over a minibatch,
            // folded without an early exit so it vectorizes.
            let finite = scratch
                .bx
                .as_slice()
                .iter()
                .fold(true, |ok, v| ok & v.is_finite());
            if !finite {
                return Err(TrainError::NonFiniteLoss { epoch });
            }
            opt.next_step();
            descent_step(&mut net, &mut scratch, lr, config, &mut opt, &mut rng);
        }
        epochs_run = epoch + 1;
        // Numeric guard: a single non-finite minibatch loss propagates into
        // the weights through the update, so one O(params) scan per epoch
        // catches it without touching the minibatch hot loop.
        if !net.params_finite() {
            return Err(TrainError::NonFiniteLoss { epoch });
        }

        if let Some((vx, vy)) = validation {
            let val = crate::loss::log_loss(&net, vx, vy);
            if !vy.is_empty() && !val.is_finite() {
                return Err(TrainError::NonFiniteValidation { epoch });
            }
            // An epoch only counts as an improvement when it beats the best
            // loss by a relative margin. Without the margin, smoothly
            // decaying learning rates produce ever-smaller but strictly
            // positive improvements on easy data, and patience never fires.
            let improved = best
                .as_ref()
                .is_none_or(|(b, _)| val < *b - b.abs() * MIN_RELATIVE_IMPROVEMENT);
            if improved {
                best = Some((val, net.clone()));
                since_best = 0;
            } else {
                since_best += 1;
                if patience.is_some_and(|p| since_best >= p) {
                    break;
                }
            }
        }
    }

    Ok(match best {
        Some((loss, model)) if patience.is_some() => TrainOutcome {
            model,
            epochs_run,
            best_val_loss: loss,
        },
        Some((loss, _)) => TrainOutcome {
            model: net,
            epochs_run,
            best_val_loss: loss,
        },
        None => TrainOutcome {
            model: net,
            epochs_run,
            best_val_loss: f64::NAN,
        },
    })
}

/// Reusable buffers for the minibatch loop.
///
/// Gathered batches, activations, dropout factors, gradients and the
/// weight pack of the forward and input-gradient products live here and
/// are resized in place, so once the loop has seen its largest minibatch
/// it makes no heap allocation (`tests/alloc_free.rs` counts; the weight
/// gradients' `gemm_tn` reads its operands in place and allocates
/// nothing). Each buffer is filled by an `_into` or prepacked twin of an
/// allocating call with the same operations, so the training bits are
/// those of the allocating loop.
#[derive(Debug, Default)]
struct TrainScratch {
    /// Gathered minibatch features.
    bx: Matrix,
    /// Gathered minibatch labels.
    by: Vec<usize>,
    /// Chunk positions resolved through the caller's row map
    /// ([`train_on_rows`]); unused when training on all rows.
    map: Vec<usize>,
    /// Post-ReLU (and post-dropout) activation of hidden layer `i`,
    /// feeding layer `i + 1`.
    acts: Vec<Matrix>,
    /// Output-layer logits of the forward pass.
    logits: Matrix,
    /// Multiplicative dropout factors (0 or `1/keep`) per hidden
    /// activation; empty vectors when dropout is off.
    masks: Vec<Vec<f64>>,
    /// Gradient flowing backward (`dZ`), and its ping-pong partner.
    dz: Matrix,
    da: Matrix,
    /// Per-layer weight gradient (consumed before the next layer).
    grad_w: Matrix,
    /// Per-layer bias gradient.
    grad_b: Vec<f64>,
    /// The weights of the layer in hand, packed as the right operand of
    /// `X·W` in the forward pass and of `dZ·Wᵀ` in the backward pass. A
    /// pack is a snapshot and every step updates every layer, so each use
    /// re-packs into this buffer (a copy, not an allocation).
    w_pack: PackedB,
}

impl TrainScratch {
    fn for_net(net: &Mlp) -> Self {
        let hidden = net.layers.len() - 1;
        TrainScratch {
            acts: (0..hidden).map(|_| Matrix::zeros(0, 0)).collect(),
            masks: vec![Vec::new(); hidden],
            ..Default::default()
        }
    }
}

/// Forward pass with inverted dropout on hidden activations, into the
/// scratch: `scratch.acts[i]` receives the *post-dropout* activation of
/// hidden layer `i` (feeding layer `i + 1`), `scratch.logits` the output
/// logits, and `scratch.masks[i]` the dropout factors (empty when dropout
/// is off). Identical operations — and RNG draws — to the allocating
/// version this replaced, so training bits are unchanged.
fn forward_train(net: &Mlp, dropout: f64, rng: &mut StdRng, scratch: &mut TrainScratch) {
    let last = net.layers.len() - 1;
    for (i, layer) in net.layers.iter().enumerate() {
        layer.pack_weights_into(&mut scratch.w_pack);
        // Split so the input activation (or `bx`) can be read while this
        // layer's output is written.
        let (done, rest) = scratch.acts.split_at_mut(i);
        let input = if i == 0 { &scratch.bx } else { &done[i - 1] };
        let z = if i == last {
            &mut scratch.logits
        } else {
            &mut rest[0]
        };
        if i == last {
            layer.forward_prepacked_into(&scratch.w_pack, input, z);
            break;
        }
        // Hidden layer: the ReLU clamp rides the packed cores' single
        // write-back ([`Layer::forward_prepacked_relu_into`]) — same
        // `< 0.0` clamp, same bits as the affine forward plus a separate
        // sweep, one pass over `z` instead of two.
        layer.forward_prepacked_relu_into(&scratch.w_pack, input, z);
        let mask = &mut scratch.masks[i];
        mask.clear();
        if dropout > 0.0 {
            let keep = 1.0 - dropout;
            for v in z.as_mut_slice() {
                let factor = if rng.gen::<f64>() < keep {
                    1.0 / keep
                } else {
                    0.0
                };
                *v *= factor;
                mask.push(factor);
            }
        }
    }
}

/// One optimizer step on the gathered minibatch (backprop + per-tensor
/// update), entirely in scratch space.
fn descent_step(
    net: &mut Mlp,
    scratch: &mut TrainScratch,
    lr: f64,
    config: &TrainConfig,
    opt: &mut OptimizerState,
    rng: &mut StdRng,
) {
    forward_train(net, config.dropout, rng, scratch);

    // Softmax cross-entropy gradient on logits: (p - onehot) / m. The
    // logits buffer *becomes* dZ (a pointer swap, not a copy).
    std::mem::swap(&mut scratch.dz, &mut scratch.logits);
    let classes = scratch.dz.cols();
    softmax_xent_grad(scratch.dz.as_mut_slice(), classes, &scratch.by);

    // Backward pass, output layer first: per layer the weight gradient
    // `Aᵀ·dZ`, which the kernel reads in place, and, past the input layer,
    // the input gradient `dZ·Wᵀ` against the scratch's packed `Wᵀ`.
    for li in (0..net.layers.len()).rev() {
        let a_in = if li == 0 {
            &scratch.bx
        } else {
            &scratch.acts[li - 1]
        };
        // grad_w = a_inᵀ · dz ; grad_b = column sums of dz.
        a_in.matmul_tn_into(&scratch.dz, &mut scratch.grad_w);
        scratch.dz.col_sums_into(&mut scratch.grad_b);

        // Propagate before mutating this layer's weights.
        if li > 0 {
            net.layers[li].w.pack_as_rhs_t_into(&mut scratch.w_pack);
            scratch
                .dz
                .matmul_prepacked_into(&scratch.w_pack, &mut scratch.da);
            // ReLU mask from the stored post-activation (dropped units have
            // zero activation, so the same test covers both), plus the
            // inverted-dropout scale factors.
            relu_backward(
                scratch.da.as_mut_slice(),
                scratch.acts[li - 1].as_slice(),
                &scratch.masks[li - 1],
            );
            std::mem::swap(&mut scratch.dz, &mut scratch.da);
        }

        let layer = &mut net.layers[li];
        opt.update(
            2 * li,
            layer.w.as_mut_slice(),
            scratch.grad_w.as_slice(),
            lr,
            config.l2,
        );
        opt.update(2 * li + 1, &mut layer.b, &scratch.grad_b, lr, 0.0);
    }
}

/// Convenience wrapper: trains directly on a list of [`Example`]s.
///
/// Returns the freshly-initialized network untouched when `examples` is
/// empty (the caller decides what an untrained model means).
pub fn train_on_examples(
    examples: &[Example],
    input_dim: usize,
    num_classes: usize,
    spec: &ModelSpec,
    config: &TrainConfig,
) -> Mlp {
    if examples.is_empty() {
        let mut rng = seeded_rng(config.seed);
        return Mlp::new(input_dim, &spec.hidden, num_classes, &mut rng);
    }
    let x = examples_to_matrix(examples);
    let y = labels_of(examples);
    train(&x, &y, input_dim, num_classes, spec, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::log_loss;

    fn blobs(n_per: usize, centers: &[(f64, f64)], seed: u64) -> (Matrix, Vec<usize>) {
        let mut rng = seeded_rng(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for (label, &(cx, cy)) in centers.iter().enumerate() {
            for _ in 0..n_per {
                rows.push(cx + 0.3 * st_data::normal(&mut rng));
                rows.push(cy + 0.3 * st_data::normal(&mut rng));
                labels.push(label);
            }
        }
        (Matrix::from_vec(labels.len(), 2, rows), labels)
    }

    #[test]
    fn softmax_learns_linearly_separable_blobs() {
        let (x, y) = blobs(60, &[(-2.0, 0.0), (2.0, 0.0)], 1);
        let net = train(&x, &y, 2, 2, &ModelSpec::softmax(), &TrainConfig::default());
        let loss = log_loss(&net, &x, &y);
        assert!(loss < 0.1, "loss {loss}");
    }

    #[test]
    fn mlp_learns_xor_but_softmax_cannot() {
        // XOR corners.
        let (x, y) = {
            let mut rows = Vec::new();
            let mut labels = Vec::new();
            let mut rng = seeded_rng(2);
            for _ in 0..80 {
                for (cx, cy, l) in [
                    (-1.0, -1.0, 0),
                    (1.0, 1.0, 0),
                    (-1.0, 1.0, 1),
                    (1.0, -1.0, 1),
                ] {
                    rows.push(cx + 0.15 * st_data::normal(&mut rng));
                    rows.push(cy + 0.15 * st_data::normal(&mut rng));
                    labels.push(l);
                }
            }
            (Matrix::from_vec(labels.len(), 2, rows), labels)
        };
        let cfg = TrainConfig {
            epochs: 60,
            lr: 0.2,
            ..TrainConfig::default()
        };
        let mlp = train(&x, &y, 2, 2, &ModelSpec::small(), &cfg);
        let linear = train(&x, &y, 2, 2, &ModelSpec::softmax(), &cfg);
        let mlp_loss = log_loss(&mlp, &x, &y);
        let linear_loss = log_loss(&linear, &x, &y);
        assert!(mlp_loss < 0.15, "mlp loss {mlp_loss}");
        assert!(
            linear_loss > 0.6,
            "linear loss {linear_loss} should stay near ln 2"
        );
    }

    #[test]
    fn packed_weight_reuse_is_bit_stable_across_optimizer_steps() {
        // The pack contract: forwards through the scratch's re-packed
        // weights must be bit-identical to the plain (pack-on-call)
        // forward — before any update, on a repeat, and after an optimizer
        // step changed every layer.
        let (x, y) = blobs(12, &[(-1.0, 0.5), (1.0, -0.5)], 31);
        let config = TrainConfig::default();
        let mut rng = seeded_rng(config.seed);
        let mut net = Mlp::new(2, &[6], 2, &mut rng);
        let mut scratch = TrainScratch::for_net(&net);
        let all: Vec<usize> = (0..x.rows()).collect();
        x.gather_rows_into(&all, &mut scratch.bx);
        scratch.by = y.clone();

        let assert_logits_match = |net: &Mlp, scratch: &TrainScratch| {
            let want = net.logits(&scratch.bx);
            for (w, g) in want.as_slice().iter().zip(scratch.logits.as_slice()) {
                assert_eq!(w.to_bits(), g.to_bits(), "{w} vs {g}");
            }
        };

        forward_train(&net, 0.0, &mut rng, &mut scratch);
        assert_logits_match(&net, &scratch);
        forward_train(&net, 0.0, &mut rng, &mut scratch);
        assert_logits_match(&net, &scratch);

        // A real optimizer step updates every layer; the next forward must
        // match the plain forward of the *updated* network.
        let lens: Vec<usize> = net
            .layers
            .iter()
            .flat_map(|l| [l.w.rows() * l.w.cols(), l.b.len()])
            .collect();
        let mut opt = OptimizerState::new(config.optimizer, &lens);
        opt.next_step();
        let before = net.clone();
        descent_step(&mut net, &mut scratch, 0.1, &config, &mut opt, &mut rng);
        assert!(
            net.layers.iter().zip(&before.layers).all(|(a, b)| a != b),
            "a step updates every layer"
        );
        forward_train(&net, 0.0, &mut rng, &mut scratch);
        assert_logits_match(&net, &scratch);
    }

    #[test]
    fn train_on_rows_is_bit_identical_to_submatrix_training() {
        let (x, y) = blobs(40, &[(-1.5, 0.5), (1.5, -0.5), (0.0, 2.0)], 23);
        // A scrambled, repeat-free subset of the rows.
        let rows: Vec<usize> = (0..x.rows()).step_by(3).chain([1, 4, 7]).collect();
        let sub_x = x.gather_rows(&rows);
        let sub_y: Vec<usize> = rows.iter().map(|&i| y[i]).collect();
        for cfg in [
            TrainConfig::default().with_seed(5),
            TrainConfig::default().with_dropout(0.2).with_seed(5),
        ] {
            let direct = train(&sub_x, &sub_y, 2, 3, &ModelSpec::small(), &cfg);
            let via_rows = train_on_rows(&x, &y, &rows, 2, 3, &ModelSpec::small(), &cfg);
            assert_eq!(direct, via_rows, "row-mapped training must match bits");
        }
        // Empty rows mirror train_on_examples on an empty list.
        let cfg = TrainConfig::default();
        let empty = train_on_rows(&x, &y, &[], 2, 3, &ModelSpec::small(), &cfg);
        let init = train_on_examples(&[], 2, 3, &ModelSpec::small(), &cfg);
        assert_eq!(empty, init);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn train_on_rows_rejects_bad_sampled_labels() {
        let x = Matrix::zeros(3, 2);
        let _ = train_on_rows(
            &x,
            &[0, 9, 0],
            &[1],
            2,
            2,
            &ModelSpec::softmax(),
            &TrainConfig::default(),
        );
    }

    #[test]
    fn nan_features_yield_typed_train_error() {
        let (x, y) = blobs(20, &[(-2.0, 0.0), (2.0, 0.0)], 9);
        let mut poisoned = x.clone();
        poisoned.as_mut_slice()[3] = f64::NAN;
        let rows: Vec<usize> = (0..poisoned.rows()).collect();
        let err = try_train_on_rows(
            &poisoned,
            &y,
            &rows,
            2,
            2,
            &ModelSpec::softmax(),
            &TrainConfig::default(),
        )
        .expect_err("NaN features must poison the first epoch");
        assert_eq!(err, TrainError::NonFiniteLoss { epoch: 0 });
        // The panicking wrapper carries the typed message.
        let caught = std::panic::catch_unwind(|| {
            train_on_rows(
                &poisoned,
                &y,
                &rows,
                2,
                2,
                &ModelSpec::softmax(),
                &TrainConfig::default(),
            )
        })
        .expect_err("wrapper panics");
        let msg = caught
            .downcast_ref::<String>()
            .cloned()
            .expect("string payload");
        assert!(msg.contains("non-finite minibatch loss"), "{msg}");
    }

    /// Fault plans are process-global: the tests installing one hold this
    /// lock so they cannot clear each other's plan mid-run.
    fn fault_plan_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn injected_nan_loss_fails_training_on_every_attempt() {
        let _serial = fault_plan_lock();
        let (x, y) = blobs(20, &[(-2.0, 0.0), (2.0, 0.0)], 10);
        let rows: Vec<usize> = (0..x.rows()).collect();
        st_linalg::fault::install(Some(
            st_linalg::fault::parse_plan("nan_loss@slice1:round2").unwrap(),
        ));
        {
            let _armed = st_linalg::fault::arm_nan_loss(Some(1), 2);
            for _attempt in 0..2 {
                let err = try_train_on_rows(
                    &x,
                    &y,
                    &rows,
                    2,
                    2,
                    &ModelSpec::softmax(),
                    &TrainConfig::default(),
                )
                .expect_err("armed injection must poison training");
                assert!(matches!(err, TrainError::NonFiniteLoss { epoch: 0 }));
            }
        }
        // Scope dropped: the same call trains clean.
        assert!(try_train_on_rows(
            &x,
            &y,
            &rows,
            2,
            2,
            &ModelSpec::softmax(),
            &TrainConfig::default(),
        )
        .is_ok());
        st_linalg::fault::install(None);
    }

    #[test]
    fn training_is_deterministic() {
        let (x, y) = blobs(30, &[(-1.0, 1.0), (1.0, -1.0), (0.0, 2.0)], 3);
        let cfg = TrainConfig::default().with_seed(11);
        let a = train(&x, &y, 2, 3, &ModelSpec::small(), &cfg);
        let b = train(&x, &y, 2, 3, &ModelSpec::small(), &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn dropout_training_is_deterministic_and_still_learns() {
        let (x, y) = blobs(60, &[(-2.0, 0.0), (2.0, 0.0)], 13);
        let cfg = TrainConfig::default().with_dropout(0.3).with_seed(5);
        let a = train(&x, &y, 2, 2, &ModelSpec::small(), &cfg);
        let b = train(&x, &y, 2, 2, &ModelSpec::small(), &cfg);
        assert_eq!(a, b, "dropout masks must derive from the seed");
        assert!(log_loss(&a, &x, &y) < 0.3, "dropout net should still learn");
    }

    #[test]
    fn adam_learns_the_same_task() {
        let (x, y) = blobs(60, &[(-2.0, 0.0), (2.0, 0.0)], 17);
        let cfg = TrainConfig {
            lr: 0.01,
            optimizer: OptimizerKind::default_adam(),
            schedule: LrSchedule::Constant,
            ..TrainConfig::default()
        };
        let net = train(&x, &y, 2, 2, &ModelSpec::small(), &cfg);
        assert!(log_loss(&net, &x, &y) < 0.1);
    }

    #[test]
    fn training_beats_initialization() {
        let (x, y) = blobs(50, &[(-1.5, 0.0), (1.5, 0.0), (0.0, 1.5)], 4);
        let cfg = TrainConfig::default();
        let trained = train(&x, &y, 2, 3, &ModelSpec::small(), &cfg);
        let mut rng = seeded_rng(cfg.seed);
        let init = Mlp::new(2, &ModelSpec::small().hidden, 3, &mut rng);
        assert!(log_loss(&trained, &x, &y) < log_loss(&init, &x, &y) * 0.5);
    }

    #[test]
    fn early_stopping_halts_before_epoch_budget() {
        let (x, y) = blobs(40, &[(-3.0, 0.0), (3.0, 0.0)], 6);
        let (vx, vy) = blobs(40, &[(-3.0, 0.0), (3.0, 0.0)], 7);
        let cfg = TrainConfig {
            epochs: 200,
            ..TrainConfig::default()
        };
        let out = train_validated(
            &x,
            &y,
            Some((&vx, &vy)),
            2,
            2,
            &ModelSpec::softmax(),
            &cfg,
            Some(5),
        );
        assert!(
            out.epochs_run < 200,
            "should stop early, ran {}",
            out.epochs_run
        );
        assert!(out.best_val_loss < 0.1);
        // Returned model must realize the reported validation loss.
        assert!((log_loss(&out.model, &vx, &vy) - out.best_val_loss).abs() < 1e-12);
    }

    #[test]
    fn validation_without_patience_reports_loss_but_runs_full() {
        let (x, y) = blobs(30, &[(-2.0, 0.0), (2.0, 0.0)], 8);
        let cfg = TrainConfig {
            epochs: 12,
            ..TrainConfig::default()
        };
        let out = train_validated(
            &x,
            &y,
            Some((&x, &y)),
            2,
            2,
            &ModelSpec::softmax(),
            &cfg,
            None,
        );
        assert_eq!(out.epochs_run, 12);
        assert!(out.best_val_loss.is_finite());
    }

    #[test]
    fn empty_training_set_returns_init() {
        let net = train_on_examples(&[], 4, 3, &ModelSpec::softmax(), &TrainConfig::default());
        assert_eq!(net.input_dim(), 4);
        assert_eq!(net.num_classes(), 3);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_out_of_range_labels() {
        let x = Matrix::zeros(1, 2);
        let _ = train(
            &x,
            &[5],
            2,
            2,
            &ModelSpec::softmax(),
            &TrainConfig::default(),
        );
    }

    #[test]
    #[should_panic(expected = "dropout must be in [0, 1)")]
    fn rejects_dropout_of_one() {
        let _ = TrainConfig::default().with_dropout(1.0);
    }
}
