//! The [`Classifier`] abstraction: anything that yields class probabilities.
//!
//! Slice Tuner only ever consumes per-slice log losses of a shared model, so
//! every architecture (the MLPs standing in for the paper's small CNNs, the
//! real [`ConvNet`](crate::ConvNet), future models) plugs in through this
//! one trait.

use st_linalg::{argmax, Matrix};

/// A trained multi-class classifier over dense feature batches.
pub trait Classifier {
    /// Batch class probabilities: `n × num_classes`, rows summing to one.
    fn predict_proba(&self, x: &Matrix) -> Matrix;

    /// Number of output classes.
    fn num_classes(&self) -> usize;

    /// Expected input dimensionality.
    fn input_dim(&self) -> usize;

    /// Argmax class predictions.
    fn predict(&self, x: &Matrix) -> Vec<usize> {
        let p = self.predict_proba(x);
        (0..p.rows()).map(|r| argmax(p.row(r))).collect()
    }
}

impl Classifier for crate::Mlp {
    fn predict_proba(&self, x: &Matrix) -> Matrix {
        crate::Mlp::predict_proba(self, x)
    }

    fn num_classes(&self) -> usize {
        crate::Mlp::num_classes(self)
    }

    fn input_dim(&self) -> usize {
        crate::Mlp::input_dim(self)
    }
}

impl Classifier for crate::PackedMlp<'_> {
    fn predict_proba(&self, x: &Matrix) -> Matrix {
        crate::PackedMlp::predict_proba(self, x)
    }

    fn num_classes(&self) -> usize {
        self.network().num_classes()
    }

    fn input_dim(&self) -> usize {
        self.network().input_dim()
    }
}

/// Mean negative log-likelihood for any [`Classifier`] (clamped like
/// [`crate::log_loss`]). Returns `NaN` for an empty batch.
///
/// # Panics
/// Panics when `x.rows() != y.len()`.
pub fn log_loss_of<C: Classifier + ?Sized>(model: &C, x: &Matrix, y: &[usize]) -> f64 {
    assert_eq!(x.rows(), y.len(), "feature/label count mismatch");
    if y.is_empty() {
        return f64::NAN;
    }
    crate::loss::nll_of_proba(&model.predict_proba(x), y)
}

/// Argmax accuracy for any [`Classifier`]. Returns `NaN` for an empty batch.
///
/// # Panics
/// Panics when `x.rows() != y.len()`.
pub fn accuracy_of<C: Classifier + ?Sized>(model: &C, x: &Matrix, y: &[usize]) -> f64 {
    assert_eq!(x.rows(), y.len(), "feature/label count mismatch");
    if y.is_empty() {
        return f64::NAN;
    }
    let pred = model.predict(x);
    pred.iter().zip(y).filter(|(p, t)| p == t).count() as f64 / y.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mlp, ModelSpec, TrainConfig};
    use st_data::seeded_rng;

    #[test]
    fn trait_object_usable_for_mlp() {
        let mut rng = seeded_rng(1);
        let net = Mlp::new(3, &[4], 2, &mut rng);
        let dynamic: &dyn Classifier = &net;
        assert_eq!(dynamic.num_classes(), 2);
        assert_eq!(dynamic.input_dim(), 3);
        let x = Matrix::from_fn(5, 3, |r, c| (r + c) as f64 * 0.1);
        let p = dynamic.predict_proba(&x);
        assert_eq!((p.rows(), p.cols()), (5, 2));
    }

    #[test]
    fn generic_loss_matches_concrete_loss() {
        let mut rng = seeded_rng(2);
        let net = Mlp::new(2, &[5], 3, &mut rng);
        let x = Matrix::from_fn(8, 2, |r, c| ((r * 2 + c) as f64 * 0.3).sin());
        let y: Vec<usize> = (0..8).map(|i| i % 3).collect();
        let a = log_loss_of(&net, &x, &y);
        let b = crate::log_loss(&net, &x, &y);
        assert!((a - b).abs() < 1e-15);
    }

    #[test]
    fn generic_accuracy_matches_concrete() {
        let mut rng = seeded_rng(3);
        let net = Mlp::new(2, &[], 2, &mut rng);
        let x = Matrix::from_fn(10, 2, |r, _| r as f64 - 5.0);
        let y: Vec<usize> = (0..10).map(|i| usize::from(i >= 5)).collect();
        assert_eq!(accuracy_of(&net, &x, &y), crate::accuracy(&net, &x, &y));
    }

    #[test]
    fn empty_batch_is_nan_generic() {
        let mut rng = seeded_rng(4);
        let net = Mlp::new(2, &[], 2, &mut rng);
        assert!(log_loss_of(&net, &Matrix::zeros(0, 0), &[]).is_nan());
        assert!(accuracy_of(&net, &Matrix::zeros(0, 0), &[]).is_nan());
    }

    #[test]
    fn trained_model_scores_well_through_the_trait() {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        let mut rng = seeded_rng(5);
        for i in 0..100 {
            let sign = if i % 2 == 0 { -1.0 } else { 1.0 };
            rows.push(sign * 2.0 + 0.2 * st_data::normal(&mut rng));
            rows.push(0.2 * st_data::normal(&mut rng));
            labels.push(usize::from(i % 2 == 1));
        }
        let x = Matrix::from_vec(100, 2, rows);
        let net = crate::train(
            &x,
            &labels,
            2,
            2,
            &ModelSpec::softmax(),
            &TrainConfig::default(),
        );
        assert!(accuracy_of(&net, &x, &labels) > 0.95);
        assert!(log_loss_of(&net, &x, &labels) < 0.15);
    }
}
