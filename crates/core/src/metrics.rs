//! Accuracy and fairness measures (Section 2.1, Definition 1).

use st_data::SlicedDataset;
use st_models::{log_loss_packed_on, per_slice_validation_losses, Mlp};

/// Evaluation of one trained model against a sliced dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalReport {
    /// `ψ(s_i, M)` per slice, in slice-id order.
    pub per_slice_losses: Vec<f64>,
    /// `ψ(D, M)` on the pooled validation data.
    pub overall_loss: f64,
    /// Average equalized error rates: `avg_i |ψ(s_i) − ψ(D)|` (Definition 1).
    pub avg_eer: f64,
    /// Maximum equalized error rates: `max_i |ψ(s_i) − ψ(D)|`.
    pub max_eer: f64,
}

impl EvalReport {
    /// Evaluates `model` on the dataset's validation slices (via the
    /// cached dense snapshot, `SlicedDataset::matrices`).
    ///
    /// The overall loss is the size-weighted mean of the per-slice losses
    /// (what `overall_validation_loss` computes), derived from the
    /// per-slice vector instead of re-running every slice's forward pass
    /// a second time — identical bits, half the evaluation GEMMs.
    pub fn evaluate(model: &Mlp, ds: &SlicedDataset) -> Self {
        let per_slice_losses = per_slice_validation_losses(model, ds);
        let m = ds.matrices();
        let mut total = 0.0;
        let mut count = 0usize;
        for (loss, y) in per_slice_losses.iter().zip(m.val_y.iter()) {
            if y.is_empty() {
                continue;
            }
            total += loss * y.len() as f64;
            count += y.len();
        }
        let overall_loss = if count == 0 {
            f64::NAN
        } else {
            total / count as f64
        };
        let avg_eer = avg_eer(&per_slice_losses, overall_loss);
        let max_eer = max_eer(&per_slice_losses, overall_loss);
        EvalReport {
            per_slice_losses,
            overall_loss,
            avg_eer,
            max_eer,
        }
    }

    /// [`Self::evaluate`] built from per-call gathers of each slice's
    /// validation examples — the reference the data-plane tests compare
    /// the snapshot path against. Bit-identical to
    /// [`Self::evaluate`]: the gathered matrices hold the same bytes the
    /// snapshot caches.
    pub fn evaluate_per_call(model: &Mlp, ds: &SlicedDataset) -> Self {
        let packed = model.packed();
        let per_slice_losses: Vec<f64> = ds
            .slices
            .iter()
            .map(|s| log_loss_packed_on(&packed, &s.validation))
            .collect();
        let mut total = 0.0;
        let mut count = 0usize;
        for (loss, s) in per_slice_losses.iter().zip(&ds.slices) {
            if s.validation.is_empty() {
                continue;
            }
            total += loss * s.validation.len() as f64;
            count += s.validation.len();
        }
        let overall_loss = if count == 0 {
            f64::NAN
        } else {
            total / count as f64
        };
        let avg_eer = avg_eer(&per_slice_losses, overall_loss);
        let max_eer = max_eer(&per_slice_losses, overall_loss);
        EvalReport {
            per_slice_losses,
            overall_loss,
            avg_eer,
            max_eer,
        }
    }

    /// Per-slice health flags: `true` where the slice's validation loss is
    /// finite. A `false` entry means that slice's evaluation degenerated
    /// (for example an empty validation set) — reports surface these
    /// instead of averaging NaNs away silently.
    pub fn slice_health(&self) -> Vec<bool> {
        self.per_slice_losses
            .iter()
            .map(|l| l.is_finite())
            .collect()
    }

    /// True when every slice is healthy (see
    /// [`slice_health`](Self::slice_health)) and the overall loss is
    /// finite.
    pub fn is_healthy(&self) -> bool {
        self.overall_loss.is_finite() && self.per_slice_losses.iter().all(|l| l.is_finite())
    }
}

/// Definition 1: the average absolute difference between each slice's loss
/// and the overall loss.
pub fn avg_eer(per_slice: &[f64], overall: f64) -> f64 {
    if per_slice.is_empty() {
        return f64::NAN;
    }
    per_slice.iter().map(|l| (l - overall).abs()).sum::<f64>() / per_slice.len() as f64
}

/// The worst-case variant of Definition 1: the maximum absolute difference.
pub fn max_eer(per_slice: &[f64], overall: f64) -> f64 {
    per_slice
        .iter()
        .map(|l| (l - overall).abs())
        .fold(f64::NAN, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toy_example_from_paper_section1() {
        // Losses 5 and 3, overall 4 ⇒ unfairness avg{|5−4|, |3−4|} = 1.
        assert_eq!(avg_eer(&[5.0, 3.0], 4.0), 1.0);
        assert_eq!(max_eer(&[5.0, 3.0], 4.0), 1.0);
        // After acquisition: losses 2 and 3, overall 2.4 ⇒ 0.5.
        assert!((avg_eer(&[2.0, 3.0], 2.4) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn equal_losses_are_perfectly_fair() {
        assert_eq!(avg_eer(&[0.7, 0.7, 0.7], 0.7), 0.0);
        assert_eq!(max_eer(&[0.7, 0.7, 0.7], 0.7), 0.0);
    }

    #[test]
    fn max_dominates_avg() {
        let per = [1.0, 2.0, 10.0];
        let overall = 3.0;
        assert!(max_eer(&per, overall) >= avg_eer(&per, overall));
        assert_eq!(max_eer(&per, overall), 7.0);
    }

    #[test]
    fn empty_slices_are_nan() {
        assert!(avg_eer(&[], 1.0).is_nan());
        assert!(max_eer(&[], 1.0).is_nan());
    }
}
