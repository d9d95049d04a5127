//! Numerically stable special functions for classification losses.

/// Probabilities are clamped into `[EPS_PROB, 1 - EPS_PROB]` before taking
/// logs, matching the clipping that Keras' `categorical_crossentropy`
/// performs. This bounds a single example's log loss at about 16.1 nats.
pub const EPS_PROB: f64 = 1e-7;

/// Numerically stable log-sum-exp: `ln Σ exp(x_i)`.
///
/// Returns `-inf` for an empty slice (the sum of zero exponentials).
pub fn log_sum_exp(xs: &[f64]) -> f64 {
    let m = xs.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
    if m == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    m + xs.iter().map(|&x| (x - m).exp()).sum::<f64>().ln()
}

/// Replaces `logits` with softmax probabilities, in place.
///
/// Uses the max-shift trick so large logits cannot overflow.
pub fn softmax_in_place(logits: &mut [f64]) {
    let m = logits.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
    let mut sum = 0.0;
    for x in logits.iter_mut() {
        *x = (*x - m).exp();
        sum += *x;
    }
    debug_assert!(sum > 0.0);
    for x in logits.iter_mut() {
        *x /= sum;
    }
}

/// One softmax probability without materializing the distribution:
/// bit-identical to `softmax_in_place` followed by reading `logits[index]`,
/// with one division instead of `len` and no mutation.
///
/// The bit-identity argument: the max fold and the exponential/sum
/// accumulation sweep run in the same ascending-index order over the same
/// values as [`softmax_in_place`], so `sum` carries identical bits, and the
/// final `exp(logits[index] - m) / sum` divides the identical operand pair
/// the in-place version divides at `index`. Negative-log-likelihood
/// epilogues only read the label's probability, so this is their exact
/// drop-in — `st_models`' `MultiEval` scores several softmax models'
/// stacked logits with it, skipping the per-row segment copy and the
/// unread divisions.
///
/// # Panics
/// Panics if `index` is out of bounds.
pub fn softmax_prob(logits: &[f64], index: usize) -> f64 {
    assert!(index < logits.len(), "softmax index out of bounds");
    let m = logits.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
    let mut sum = 0.0;
    let mut picked = 0.0;
    for (i, &x) in logits.iter().enumerate() {
        let e = (x - m).exp();
        sum += e;
        if i == index {
            picked = e;
        }
    }
    debug_assert!(sum > 0.0);
    picked / sum
}

/// Logistic sigmoid, stable for large-magnitude inputs.
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        let e = (-x).exp();
        1.0 / (1.0 + e)
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_sum_exp_matches_naive_for_small_inputs() {
        let xs = [0.1, -0.5, 1.2];
        let naive = xs.iter().map(|&x: &f64| x.exp()).sum::<f64>().ln();
        assert!((log_sum_exp(&xs) - naive).abs() < 1e-12);
    }

    #[test]
    fn log_sum_exp_stable_for_huge_inputs() {
        let xs = [1000.0, 1000.0];
        assert!((log_sum_exp(&xs) - (1000.0 + 2.0_f64.ln())).abs() < 1e-9);
    }

    #[test]
    fn log_sum_exp_empty_is_neg_inf() {
        assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
    }

    #[test]
    fn softmax_sums_to_one_and_preserves_order() {
        let mut v = vec![1.0, 3.0, 2.0];
        softmax_in_place(&mut v);
        assert!((v.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(v[1] > v[2] && v[2] > v[0]);
    }

    #[test]
    fn softmax_stable_for_large_logits() {
        let mut v = vec![1e6, 1e6 - 1.0];
        softmax_in_place(&mut v);
        assert!(v.iter().all(|p| p.is_finite()));
        assert!((v.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn softmax_prob_bits_match_in_place_softmax() {
        let cases: [&[f64]; 4] = [
            &[1.0, 3.0, 2.0],
            &[1e6, 1e6 - 1.0],
            &[-4.25, 0.0, 17.5, 3.125, -0.5],
            &[0.7],
        ];
        for logits in cases {
            let mut dist = logits.to_vec();
            softmax_in_place(&mut dist);
            for (i, &p) in dist.iter().enumerate() {
                assert_eq!(
                    softmax_prob(logits, i).to_bits(),
                    p.to_bits(),
                    "lane {i} of {logits:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "softmax index out of bounds")]
    fn softmax_prob_rejects_out_of_bounds_index() {
        let _ = softmax_prob(&[0.0, 1.0], 2);
    }

    #[test]
    fn sigmoid_symmetry_and_limits() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!((sigmoid(3.0) + sigmoid(-3.0) - 1.0).abs() < 1e-12);
        assert!(sigmoid(100.0) > 1.0 - 1e-12);
        assert!(sigmoid(-100.0) < 1e-12);
        assert!(sigmoid(-1000.0).is_finite());
    }
}
