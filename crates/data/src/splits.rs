//! Stratified splitting.
//!
//! The paper splits each slice into train and validation sets and assumes a
//! validation set "large enough to evaluate models" (Section 4.1). This
//! helper makes the splits label-stratified — important for small slices,
//! where an unlucky split can starve a class.

use crate::example::Example;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::BTreeMap;

/// Splits `examples` into `(train, validation)` with `val_fraction` of each
/// label going to validation (rounded half-up, at least one per label when
/// the label has ≥ 2 examples).
///
/// # Panics
/// Panics when `val_fraction` is outside `[0, 1]`.
pub fn stratified_split<R: Rng + ?Sized>(
    examples: &[Example],
    val_fraction: f64,
    rng: &mut R,
) -> (Vec<Example>, Vec<Example>) {
    assert!(
        (0.0..=1.0).contains(&val_fraction),
        "val_fraction out of range"
    );
    // BTreeMap for deterministic label iteration order.
    let mut by_label: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, e) in examples.iter().enumerate() {
        by_label.entry(e.label).or_default().push(i);
    }
    let mut train = Vec::new();
    let mut val = Vec::new();
    for (_, mut idx) in by_label {
        idx.shuffle(rng);
        let mut k = (idx.len() as f64 * val_fraction).round() as usize;
        if val_fraction > 0.0 && k == 0 && idx.len() >= 2 {
            k = 1;
        }
        k = k.min(idx.len());
        for (j, &i) in idx.iter().enumerate() {
            if j < k {
                val.push(examples[i].clone());
            } else {
                train.push(examples[i].clone());
            }
        }
    }
    (train, val)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::example::SliceId;
    use crate::rng::seeded_rng;

    fn labeled(n: usize, labels: &[usize]) -> Vec<Example> {
        (0..n)
            .map(|i| Example::new(vec![i as f64], labels[i % labels.len()], SliceId(0)))
            .collect()
    }

    #[test]
    fn split_sizes_match_fraction() {
        let ex = labeled(100, &[0, 1]);
        let mut rng = seeded_rng(1);
        let (train, val) = stratified_split(&ex, 0.2, &mut rng);
        assert_eq!(train.len() + val.len(), 100);
        assert_eq!(val.len(), 20);
    }

    #[test]
    fn split_is_stratified_per_label() {
        // 80 of label 0, 20 of label 1: validation must contain both labels
        // in ≈ the same ratio.
        let mut ex = labeled(80, &[0]);
        ex.extend(labeled(20, &[1]));
        let mut rng = seeded_rng(2);
        let (_, val) = stratified_split(&ex, 0.25, &mut rng);
        let ones = val.iter().filter(|e| e.label == 1).count();
        let zeros = val.iter().filter(|e| e.label == 0).count();
        assert_eq!(zeros, 20);
        assert_eq!(ones, 5);
    }

    #[test]
    fn tiny_labels_still_reach_validation() {
        // 2 examples of label 1 and fraction 0.1 would round to 0 — the
        // at-least-one rule must kick in.
        let mut ex = labeled(50, &[0]);
        ex.extend(labeled(2, &[1]));
        let mut rng = seeded_rng(3);
        let (_, val) = stratified_split(&ex, 0.1, &mut rng);
        assert!(val.iter().any(|e| e.label == 1));
    }

    #[test]
    fn zero_fraction_keeps_everything_in_train() {
        let ex = labeled(30, &[0, 1, 2]);
        let mut rng = seeded_rng(4);
        let (train, val) = stratified_split(&ex, 0.0, &mut rng);
        assert_eq!(train.len(), 30);
        assert!(val.is_empty());
    }

    #[test]
    fn split_partitions_without_duplication() {
        let ex = labeled(40, &[0, 1]);
        let mut rng = seeded_rng(5);
        let (train, val) = stratified_split(&ex, 0.3, &mut rng);
        let mut seen: Vec<f64> = train.iter().chain(&val).map(|e| e.features[0]).collect();
        seen.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let expected: Vec<f64> = (0..40).map(|i| i as f64).collect();
        assert_eq!(seen, expected);
    }
}
