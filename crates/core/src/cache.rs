//! Memoization of repeated learning-curve estimations.
//!
//! Curve estimation is the dominant cost of every Slice Tuner run: each
//! estimate is `K·R` (amortized) or `|S|·K·R` (exhaustive) model trainings.
//! Experiment suites re-estimate identical curves constantly — every
//! strategy that shares a trial seed sees the *same* initial dataset, and
//! sweep binaries (λ sweeps, budget sweeps, schedule comparisons) re-run
//! the same `(dataset, seed)` estimation once per swept value.
//!
//! [`CurveCache`] memoizes full [`SliceEstimate`] vectors behind a
//! [`parking_lot::Mutex`], keyed on the *content fingerprint* of the
//! dataset, a fingerprint of the model spec + training hyperparameters,
//! the estimator's derived seed, and the estimation schedule. Keying on
//! content (which covers every slice's size and examples) means two
//! same-shaped datasets from different trials can never alias, and keying
//! on the model means tuners training different architectures can share a
//! cache safely — a hit is bit-identical to recomputation, so cached runs
//! stay exactly as deterministic as uncached ones.
//!
//! The cache is opt-in: hand one to
//! [`TunerConfig::with_cache`](crate::TunerConfig::with_cache) and share it
//! (via [`Arc`]) across as
//! many tuners, strategies, and threads as useful. Trials with distinct
//! seeds have disjoint keys, so sharing one cache across a whole
//! experiment is always sound.
//!
//! **Incremental estimations bypass this cache.** Under
//! [`TunerConfig::incremental`](crate::TunerConfig), an exhaustive-mode
//! estimation's result is a merge of fresh measurements (dirty slices)
//! and the previous round's carried-over estimates (clean slices) — a
//! function of the whole acquisition history, not of the current dataset
//! content alone. No [`CurveKey`] can name that history, so inserting such
//! a result would poison lookups from non-incremental tuners that share
//! the cache; the tuner's exhaustive incremental path therefore never
//! consults or fills the cache. (Amortized incremental runs delegate to
//! the plain full schedule, whose results are content-keyed as usual and
//! stay cache-safe.)

use parking_lot::Mutex;
use st_curve::{EstimationMode, SliceEstimate};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Cache key: everything the estimation result is a function of.
///
/// `fractions` are stored as raw bits so the key is `Eq + Hash`; the same
/// configuration always produces the same bits. The model architecture and
/// training hyperparameters enter through `model_fingerprint` — without
/// them, two tuners sharing a cache over the same dataset but training
/// different models would silently read each other's fits.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CurveKey {
    /// Content hash of the dataset (`SlicedDataset::fingerprint`).
    pub dataset_fingerprint: u64,
    /// Hash of the model spec + training hyperparameters (see
    /// [`model_fingerprint`]).
    pub model_fingerprint: u64,
    /// The estimator's fully derived seed (master seed × stream).
    pub seed: u64,
    /// Subset fractions, as `f64::to_bits`.
    pub fraction_bits: Vec<u64>,
    /// Curves averaged per slice.
    pub repeats: usize,
    /// `true` for exhaustive scheduling, `false` for amortized.
    pub exhaustive: bool,
}

impl CurveKey {
    /// Assembles a key from estimation inputs.
    pub fn new(
        dataset_fingerprint: u64,
        model_fingerprint: u64,
        seed: u64,
        fractions: &[f64],
        repeats: usize,
        mode: EstimationMode,
    ) -> Self {
        CurveKey {
            dataset_fingerprint,
            model_fingerprint,
            seed,
            fraction_bits: fractions.iter().map(|f| f.to_bits()).collect(),
            repeats,
            exhaustive: mode == EstimationMode::Exhaustive,
        }
    }
}

/// Hashes everything about the trained model an estimation depends on:
/// the architecture and every training hyperparameter.
///
/// `train.seed` is deliberately excluded — the estimator overrides it with
/// a request-derived seed for every measurement, so it cannot influence
/// results and would only cause spurious cache misses.
pub fn model_fingerprint(spec: &st_models::ModelSpec, train: &st_models::TrainConfig) -> u64 {
    const OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let seedless = st_models::TrainConfig {
        seed: 0,
        ..train.clone()
    };
    let repr = format!("{spec:?}|{seedless:?}");
    let mut h = OFFSET;
    for b in repr.bytes() {
        h = (h ^ b as u64).wrapping_mul(PRIME);
    }
    h
}

/// A shared, thread-safe memo table for curve estimations.
///
/// Results are stored as `Arc<Vec<SliceEstimate>>` so a hit is a pointer
/// clone, not a deep copy.
#[derive(Default)]
pub struct CurveCache {
    entries: Mutex<HashMap<CurveKey, Arc<Vec<SliceEstimate>>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl CurveCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Convenience: an empty cache behind an [`Arc`], ready to share.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Returns the cached estimate for `key`, or computes it with `compute`
    /// and stores it.
    ///
    /// The lock is *not* held during `compute` (estimations run many model
    /// trainings); two threads racing on the same fresh key may both
    /// compute, and the first insert wins — both receive identical values,
    /// so results never depend on the race.
    pub fn get_or_compute(
        &self,
        key: CurveKey,
        compute: impl FnOnce() -> Vec<SliceEstimate>,
    ) -> Arc<Vec<SliceEstimate>> {
        if let Some(found) = self.entries.lock().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(found);
        }
        let fresh = Arc::new(compute());
        self.misses.fetch_add(1, Ordering::Relaxed);
        Arc::clone(self.entries.lock().entry(key).or_insert(fresh))
    }

    /// Number of lookups answered from the cache.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that had to compute.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct estimations stored.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&self) {
        self.entries.lock().clear();
    }
}

impl std::fmt::Debug for CurveCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CurveCache")
            .field("entries", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_curve::PowerLaw;

    fn key(seed: u64) -> CurveKey {
        CurveKey::new(
            0xF00D,
            0xCAFE,
            seed,
            &[0.5, 1.0],
            2,
            EstimationMode::Amortized,
        )
    }

    fn estimate(b: f64) -> Vec<SliceEstimate> {
        vec![SliceEstimate {
            fit: Ok(PowerLaw::new(b, 0.3)),
            repeat_fits: vec![],
            points: vec![],
        }]
    }

    #[test]
    fn second_lookup_hits_without_recompute() {
        let cache = CurveCache::new();
        let mut computes = 0;
        for _ in 0..3 {
            let out = cache.get_or_compute(key(1), || {
                computes += 1;
                estimate(2.0)
            });
            assert_eq!(out[0].fit.as_ref().unwrap().b, 2.0);
        }
        assert_eq!(computes, 1);
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (2, 1, 1));
    }

    #[test]
    fn distinct_keys_do_not_alias() {
        let cache = CurveCache::new();
        let a = cache.get_or_compute(key(1), || estimate(1.0));
        let b = cache.get_or_compute(key(2), || estimate(9.0));
        assert_eq!(a[0].fit.as_ref().unwrap().b, 1.0);
        assert_eq!(b[0].fit.as_ref().unwrap().b, 9.0);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn key_distinguishes_every_component() {
        let base = key(1);
        let mut content = base.clone();
        content.dataset_fingerprint ^= 1;
        let mut model = base.clone();
        model.model_fingerprint ^= 1;
        let mut fracs = base.clone();
        fracs.fraction_bits.pop();
        let mut mode = base.clone();
        mode.exhaustive = !mode.exhaustive;
        for other in [content, model, fracs, mode] {
            assert_ne!(base, other);
        }
    }

    #[test]
    fn model_fingerprint_tracks_spec_and_hypers_but_not_seed() {
        use st_models::{ModelSpec, TrainConfig};
        let base = TrainConfig::default();
        let softmax = model_fingerprint(&ModelSpec::softmax(), &base);
        assert_ne!(
            softmax,
            model_fingerprint(&ModelSpec::deep(), &base),
            "architecture must enter the key"
        );
        assert_ne!(
            softmax,
            model_fingerprint(
                &ModelSpec::softmax(),
                &TrainConfig {
                    epochs: 99,
                    ..base.clone()
                }
            ),
            "training hyperparameters must enter the key"
        );
        assert_eq!(
            softmax,
            model_fingerprint(&ModelSpec::softmax(), &TrainConfig { seed: 123, ..base }),
            "the overridden train seed must not cause misses"
        );
    }

    #[test]
    fn clear_empties_entries() {
        let cache = CurveCache::new();
        let _ = cache.get_or_compute(key(1), || estimate(1.0));
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn concurrent_same_key_is_consistent() {
        let cache = std::sync::Arc::new(CurveCache::new());
        crossbeam::scope(|s| {
            for _ in 0..8 {
                let cache = std::sync::Arc::clone(&cache);
                s.spawn(move |_| {
                    let out = cache.get_or_compute(key(7), || estimate(4.0));
                    assert_eq!(out[0].fit.as_ref().unwrap().b, 4.0);
                });
            }
        })
        .unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.hits() + cache.misses(), 8);
    }
}
