//! Numerically stable special functions for classification losses.
//!
//! [`softmax_xent_grad`], the training step's loss gradient, runs at the
//! host's vector width ([`SimdWidth::run`]); the rest are scalar.

use crate::simd::SimdWidth;

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

/// `exp(d)` for a logit `d` already shifted by its row's maximum. The
/// maximum itself shifts to `±0`, whose exponential is exactly `1.0`
/// (`exp_of_signed_zero_is_exactly_one` pins it), so that entry skips the
/// libm call and every result keeps `exp`'s bits.
#[inline(always)]
fn exp_shifted(d: f64) -> f64 {
    if d == 0.0 {
        1.0
    } else {
        d.exp()
    }
}

/// Replaces `logits` with softmax probabilities, in place.
///
/// Uses the max-shift trick so large logits cannot overflow; the maximum
/// itself takes `exp(±0) = 1` without the libm call, with the same bits.
pub fn softmax_in_place(logits: &mut [f64]) {
    let m = logits.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
    let mut sum = 0.0;
    for x in logits.iter_mut() {
        *x = exp_shifted(*x - m);
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
        let e = exp_shifted(x - m);
        sum += e;
        if i == index {
            picked = e;
        }
    }
    debug_assert!(sum > 0.0);
    picked / sum
}

/// Shifted logits per pass of [`softmax_xent_grad`]'s exponential stage:
/// the ones that need `exp` are gathered into a stack buffer this long (a
/// power of two, so an index masked by it needs no bounds check).
const EXP_CHUNK: usize = 64;

/// The softmax cross-entropy gradient of a minibatch, in place:
/// `logits` (`labels.len()` rows of `n`, row-major) becomes
/// `(softmax(row) − onehot(label)) / m` with `m = labels.len()`, the `dZ`
/// a trainer's backward pass starts from. Allocates nothing.
///
/// Each element sees the operations of the per-row loop it replaces —
/// [`softmax_in_place`] on the row, `row[label] -= 1.0`, then `/= m` —
/// in the same order, so the bits are that loop's; the work runs in
/// stages over the whole minibatch instead of one row at a time:
///
/// 1. each row's maximum, subtracted from the row;
/// 2. the exponentials: the shifted logits that are not `±0` are
///    gathered into a stack buffer and exponentiated in one tight loop,
///    and the `±0` ones (each row's maximum) become `1.0`, which is
///    `exp(±0)` exactly — half the libm calls of a two-class batch. The
///    gather is not `exp_shifted` in a loop over the minibatch: that loop
///    vectorizes, and the vectorized loop calls `exp` on every lane and
///    blends in the `1.0`s, so it skips no call;
/// 3. each row's sum, in ascending order from `0.0`, and the division by
///    it;
/// 4. `1.0` subtracted at each label;
/// 5. the scale by `1/m`: a multiply by the reciprocal when `m` is a
///    power of two, where it is exact (`x / m` and `x · (1/m)` round the
///    same exact value once), and a division otherwise.
///
/// The body is compiled once per vector width and runs at the widest the
/// CPU offers ([`SimdWidth::run`]), where its loops vectorize as far as
/// their shapes allow (the scale across the whole minibatch, a row's
/// shift and division across its entries); every width gives the same
/// bits.
///
/// # Panics
/// Panics if `logits.len() != labels.len() · n` or a label is not below
/// `n`.
pub fn softmax_xent_grad(logits: &mut [f64], n: usize, labels: &[usize]) {
    softmax_xent_grad_at(SimdWidth::detected(), logits, n, labels);
}

/// [`softmax_xent_grad`] compiled for `width` (capped at the host's).
fn softmax_xent_grad_at(width: SimdWidth, logits: &mut [f64], n: usize, labels: &[usize]) {
    assert_eq!(
        Some(logits.len()),
        labels.len().checked_mul(n),
        "logits must hold one row of n per label"
    );
    if logits.is_empty() {
        // No rows, or rows of no classes, where no label can be in range.
        assert!(labels.is_empty(), "label out of range for 0 classes");
        return;
    }
    width.run(
        #[inline(always)]
        || xent_grad_body(logits, n, labels),
    );
}

#[inline(always)]
fn xent_grad_body(z: &mut [f64], n: usize, labels: &[usize]) {
    for row in z.chunks_exact_mut(n) {
        let max = row.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
        for x in row.iter_mut() {
            *x -= max;
        }
    }
    let mut live = [0.0; EXP_CHUNK];
    for chunk in z.chunks_mut(EXP_CHUNK) {
        // Compact, exponentiate, scatter back: selects, not branches,
        // since where the maximum sits in a row follows the data. The
        // cursors stay below `EXP_CHUNK`, so masking them changes no
        // index.
        let mut count = 0;
        for &d in chunk.iter() {
            live[count % EXP_CHUNK] = d;
            count += usize::from(d != 0.0);
        }
        for e in &mut live[..count] {
            *e = e.exp();
        }
        let mut next = 0;
        for x in chunk.iter_mut() {
            let called = *x != 0.0;
            let e = live[next % EXP_CHUNK];
            *x = if called { e } else { 1.0 };
            next += usize::from(called);
        }
    }
    for row in z.chunks_exact_mut(n) {
        let mut sum = 0.0;
        for &e in row.iter() {
            sum += e;
        }
        for x in row.iter_mut() {
            *x /= sum;
        }
    }
    for (row, &label) in z.chunks_exact_mut(n).zip(labels) {
        row[label] -= 1.0;
    }
    let m = labels.len();
    if m.is_power_of_two() {
        let recip = 1.0 / m as f64;
        for x in z.iter_mut() {
            *x *= recip;
        }
    } else {
        let m = m as f64;
        for x in z.iter_mut() {
            *x /= m;
        }
    }
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
    fn softmax_keeps_the_bits_of_calling_exp_everywhere() {
        // The `exp(±0)` shortcut against the softmax that called `exp` on
        // every entry, on ties at the maximum, signed zeros, subnormals,
        // huge spreads and underflowing entries (the inputs whose sum is
        // positive, as the debug assertion requires; the gradient's test
        // covers infinities and NaN).
        let cases: [&[f64]; 7] = [
            &[2.0, 2.0, -1.0],
            &[0.0, -0.0],
            &[-0.0, 4e-320, -4e-320],
            &[-745.5, 0.0, -1e300],
            &[1e308, -1e308],
            &[f64::NEG_INFINITY, 1.5],
            &[0.25],
        ];
        for logits in cases {
            let logits = std::hint::black_box(logits);
            let mx = logits.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
            let mut want: Vec<f64> = logits.iter().map(|&x| (x - mx).exp()).collect();
            let sum = want.iter().fold(0.0, |s, &e| s + e);
            for x in &mut want {
                *x /= sum;
            }
            let mut got = logits.to_vec();
            softmax_in_place(&mut got);
            for (i, (w, g)) in want.iter().zip(&got).enumerate() {
                assert_eq!(w.to_bits(), g.to_bits(), "lane {i} of {logits:?}");
                let p = softmax_prob(logits, i);
                assert_eq!(w.to_bits(), p.to_bits(), "prob {i} of {logits:?}");
            }
        }
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

    /// The per-row loop the trainers ran before [`softmax_xent_grad`],
    /// with the `softmax_in_place` of that time inlined (every `exp`
    /// called, no debug assertion): the gradient's bit reference.
    fn xent_grad_per_row(z: &mut [f64], n: usize, labels: &[usize]) {
        let m = labels.len();
        for r in 0..m {
            let row = &mut z[r * n..(r + 1) * n];
            let mx = row.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
            let mut sum = 0.0;
            for x in row.iter_mut() {
                *x = (*x - mx).exp();
                sum += *x;
            }
            for x in row.iter_mut() {
                *x /= sum;
            }
            row[labels[r]] -= 1.0;
            for v in row.iter_mut() {
                *v /= m as f64;
            }
        }
    }

    #[test]
    fn xent_grad_matches_the_per_row_loop_at_every_width() {
        // Random logits with every fifth one replaced from a gallery of
        // special values, and every third row given a tie at its maximum.
        // The NaN is the host's default one (what ∞ − ∞ gives inside the
        // gradient), so a chain meeting two NaNs has one possible payload.
        let nan = std::hint::black_box(f64::INFINITY) - std::hint::black_box(f64::INFINITY);
        let specials = [
            0.0,
            -0.0,
            4e-320,
            -2.5e-310,
            f64::INFINITY,
            f64::NEG_INFINITY,
            nan,
            700.0,
            -745.5,
        ];
        let mut rng = crate::resample::SplitMix64::new(0x5E7);
        for n in [1, 2, 3, 4, 10] {
            for m in [1, 7, 24, 32, 33, 64] {
                let mut logits: Vec<f64> = (0..m * n)
                    .map(|i| {
                        let x = rng.next_f64() * 16.0 - 8.0;
                        if (i + m) % 5 == 0 {
                            specials[(i / 5 + n) % specials.len()]
                        } else {
                            x
                        }
                    })
                    .collect();
                for row in logits.chunks_exact_mut(n).step_by(3) {
                    let mx = row.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
                    let last = row.len() - 1;
                    row[last] = mx;
                }
                let labels: Vec<usize> = (0..m).map(|r| (r * 7 + m) % n).collect();
                let logits = std::hint::black_box(logits);
                let mut want = logits.clone();
                xent_grad_per_row(&mut want, n, &labels);
                for width in SimdWidth::supported() {
                    let mut got = logits.clone();
                    softmax_xent_grad_at(width, &mut got, n, &labels);
                    for (i, (w, g)) in want.iter().zip(&got).enumerate() {
                        assert_eq!(
                            w.to_bits(),
                            g.to_bits(),
                            "{width:?} {m}x{n}, element {i} (logit {}): want {w:?}, got {g:?}",
                            logits[i]
                        );
                    }
                }
                let mut got = logits.clone();
                softmax_xent_grad(&mut got, n, &labels);
                assert!(want
                    .iter()
                    .zip(&got)
                    .all(|(w, g)| w.to_bits() == g.to_bits()));
            }
        }
    }

    #[test]
    fn xent_grad_of_no_rows_is_a_no_op() {
        softmax_xent_grad(&mut [], 3, &[]);
        softmax_xent_grad(&mut [], 0, &[]);
    }

    #[test]
    #[should_panic(expected = "one row of n per label")]
    fn xent_grad_rejects_a_shape_mismatch() {
        softmax_xent_grad(&mut [0.0; 5], 2, &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn xent_grad_rejects_a_label_out_of_range() {
        softmax_xent_grad(&mut [0.0; 4], 2, &[0, 2]);
    }

    #[test]
    fn exp_of_signed_zero_is_exactly_one() {
        // What the exponential stage's shortcut rests on.
        for z in [0.0f64, -0.0] {
            let e = std::hint::black_box(z).exp();
            assert_eq!(e.to_bits(), 1.0f64.to_bits(), "exp({z:?}) = {e:?}");
        }
    }

    #[test]
    fn power_of_two_division_is_a_reciprocal_multiply() {
        // What the gradient's `1/m` scale rests on: for m a power of two,
        // `x / m` and `x · (1/m)` round the same exact value once, so
        // their bits agree — subnormal results, signed zeros, infinities
        // and NaN included.
        let nan = std::hint::black_box(f64::INFINITY) - std::hint::black_box(f64::INFINITY);
        let gallery = [
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            4e-320,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::MIN_POSITIVE * 1.5,
            1.0,
            -1.0,
            1.0 / 3.0,
            -std::f64::consts::FRAC_1_SQRT_2,
            123456.789,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            nan,
            f64::NAN,
        ];
        for shift in [0, 1, 5, 6, 7, 10, 31, 52, 53, 62] {
            let m = std::hint::black_box((1u64 << shift) as f64);
            let recip = 1.0 / m;
            for &x in &gallery {
                let x = std::hint::black_box(x);
                assert_eq!(
                    (x / m).to_bits(),
                    (x * recip).to_bits(),
                    "{x:?} / 2^{shift}"
                );
            }
        }
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
