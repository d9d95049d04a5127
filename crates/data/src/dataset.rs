//! Materialized train/validation data, organized by slice.

use crate::example::{Example, SliceId};
use crate::generator::DatasetFamily;
use crate::rng::{seeded_rng, split_seed};
use rand::seq::SliceRandom;
use rand::Rng;
use st_linalg::Matrix;
use std::fmt;
use std::ops::Range;
use std::sync::{Arc, Mutex};

/// Train and validation examples for one slice.
#[derive(Debug, Clone, Default)]
pub struct SliceData {
    /// Slice name (copied from the family for reporting).
    pub name: String,
    /// Acquisition cost `C(s)` of one example.
    pub cost: f64,
    /// Training examples (grows as data is acquired).
    pub train: Vec<Example>,
    /// Validation examples (fixed; the paper uses 500 per slice).
    pub validation: Vec<Example>,
}

impl SliceData {
    /// Current training-set size `|s_i|`.
    pub fn train_size(&self) -> usize {
        self.train.len()
    }
}

/// A dataset partitioned into slices, with per-slice train/validation splits.
///
/// This is the object Slice Tuner operates on: strategies inspect
/// [`SlicedDataset::train_sizes`], training consumes
/// [`SlicedDataset::all_train`], and evaluation uses the fixed per-slice
/// validation sets. The matrix-native hot paths (the estimator's repeated
/// per-slice evaluations, `train_on_rows`) go through
/// [`SlicedDataset::matrices`], a lazily-built dense snapshot that is
/// rebuilt only when the data changes.
pub struct SlicedDataset {
    /// Feature dimensionality.
    pub feature_dim: usize,
    /// Number of classes.
    pub num_classes: usize,
    /// Per-slice data, indexed by [`SliceId`].
    pub slices: Vec<SliceData>,
    /// The cached dense snapshot (see [`Self::matrices`]); `None` until
    /// first use and after [`Self::invalidate_matrices`].
    matrices: Mutex<Option<Arc<DatasetMatrices>>>,
    /// When true, [`Self::absorb`] extends the cached snapshot in place
    /// (append layout) instead of leaving it to be re-stacked. See
    /// [`Self::enable_incremental_snapshot`].
    incremental_snapshot: bool,
}

impl Clone for SlicedDataset {
    /// Clones the data; the dense-snapshot cache starts cold (the clone
    /// will rebuild it on first use).
    fn clone(&self) -> Self {
        SlicedDataset {
            feature_dim: self.feature_dim,
            num_classes: self.num_classes,
            slices: self.slices.clone(),
            matrices: Mutex::new(None),
            incremental_snapshot: self.incremental_snapshot,
        }
    }
}

impl fmt::Debug for SlicedDataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SlicedDataset")
            .field("feature_dim", &self.feature_dim)
            .field("num_classes", &self.num_classes)
            .field("slices", &self.slices)
            .finish()
    }
}

/// The dense, matrix-native snapshot of a [`SlicedDataset`] — the
/// estimation data plane.
///
/// One `measure` call of the curve estimator trains a model on a training
/// subset and scores **every** slice's validation set; doing that from the
/// example lists re-gathers each slice's validation matrix and clones the
/// subset examples on every call. This snapshot materializes everything
/// once per dataset state:
///
/// - [`train_x`](Self::train_x)/[`train_y`](Self::train_y): every training
///   example stacked in slice order (the exact layout of
///   [`SlicedDataset::all_train`]), with [`slice_rows`](Self::slice_rows)
///   mapping each slice to its row range. Subset *row ids*
///   ([`SlicedDataset::joint_train_subset_rows`]) index into this matrix,
///   so sampling never clones an [`Example`].
/// - [`val_x`](Self::val_x)/[`val_y`](Self::val_y): each slice's
///   validation features/labels, byte-identical to what
///   `examples_to_matrix`/`labels_of` build from the example lists (an
///   empty slice mirrors the `0×0` matrix the per-call gather produces).
#[derive(Debug, Clone)]
pub struct DatasetMatrices {
    /// Signature of the training data this snapshot was built from.
    sig_train: u64,
    /// Signature of the validation data this snapshot was built from.
    sig_val: u64,
    /// All training examples stacked row-major: in slice order when the
    /// snapshot is [slice-major](Self::is_slice_major), with acquired rows
    /// appended below the original stack otherwise (incremental mode).
    pub train_x: Matrix,
    /// Labels of `train_x`'s rows.
    pub train_y: Vec<usize>,
    /// Per-slice row ranges of `train_x` (slice `i` owns rows
    /// `slice_rows[i]`). Only meaningful for
    /// [slice-major](Self::is_slice_major) snapshots; empty after an
    /// in-place append — use [`Self::slice_segments`], which covers both
    /// layouts.
    pub slice_rows: Vec<Range<usize>>,
    /// Per-slice physical row segments of `train_x`, in each slice's
    /// logical (acquisition) order. A slice-major snapshot has at most one
    /// segment per slice; incremental appends add segments at the bottom
    /// of the matrix.
    segments: Vec<Vec<Range<usize>>>,
    /// True while rows are stacked in slice order (the layout of
    /// [`SlicedDataset::all_train`]); false once incremental appends have
    /// landed rows out of that order.
    slice_major: bool,
    /// Per-slice validation feature matrices. `Arc`-shared across
    /// snapshots: acquisition touches only training data, so a rebuild
    /// triggered by [`SlicedDataset::absorb`] re-stacks the train matrix
    /// but *reuses* the validation matrices untouched.
    pub val_x: Arc<Vec<Matrix>>,
    /// Per-slice validation labels (shared like [`Self::val_x`]).
    pub val_y: Arc<Vec<Vec<usize>>>,
}

impl DatasetMatrices {
    /// True while `train_x` stacks rows in slice order. Incremental appends
    /// ([`SlicedDataset::absorb`] in incremental-snapshot mode) clear this;
    /// consumers that need the canonical order gather through
    /// [`Self::canonical_row_order`] instead of re-stacking.
    pub fn is_slice_major(&self) -> bool {
        self.slice_major
    }

    /// Per-slice physical row segments of `train_x`, each slice's rows in
    /// logical (acquisition) order. Valid for both layouts.
    pub fn slice_segments(&self) -> &[Vec<Range<usize>>] {
        &self.segments
    }

    /// Number of training rows slice `s` owns.
    pub fn slice_len(&self, s: usize) -> usize {
        self.segments[s].iter().map(|r| r.end - r.start).sum()
    }

    /// The physical rows of `train_x` in canonical slice-major logical
    /// order — gathering minibatches through this order trains bit-identical
    /// to the re-stacked matrix a from-scratch build would produce.
    pub fn canonical_row_order(&self) -> Vec<usize> {
        let mut rows = Vec::with_capacity(self.train_y.len());
        for segs in &self.segments {
            for seg in segs {
                rows.extend(seg.clone());
            }
        }
        rows
    }

    /// [`SlicedDataset::joint_train_subset_rows`] evaluated against this
    /// snapshot: identical RNG draws and per-slice picks, with logical
    /// example indices mapped to physical rows through
    /// [`Self::slice_segments`]. On a slice-major snapshot the output is
    /// bit-identical to the dataset method; on an appended layout it names
    /// the same logical examples. The ≥ 1 clamp applies only to `frac > 0`;
    /// a zero fraction returns an empty subset without consuming RNG draws.
    pub fn joint_subset_rows<R: Rng + ?Sized>(&self, frac: f64, rng: &mut R) -> SubsetRows {
        assert!((0.0..=1.0).contains(&frac), "frac must be in [0,1]");
        if frac == 0.0 {
            return SubsetRows {
                rows: Vec::new(),
                per_slice: vec![0; self.segments.len()],
            };
        }
        let mut rows = Vec::new();
        let mut per_slice = Vec::with_capacity(self.segments.len());
        for segs in &self.segments {
            let n = segs.iter().map(|r| r.end - r.start).sum::<usize>();
            if n == 0 {
                per_slice.push(0);
                continue;
            }
            let take = ((n as f64 * frac).round() as usize).clamp(1, n);
            let mut idx: Vec<usize> = (0..n).collect();
            idx.shuffle(rng);
            rows.extend(idx[..take].iter().map(|&i| physical_row(segs, i)));
            per_slice.push(take);
        }
        SubsetRows { rows, per_slice }
    }

    /// [`SlicedDataset::exhaustive_train_subset_rows`] evaluated against
    /// this snapshot (same contract as [`Self::joint_subset_rows`]).
    pub fn exhaustive_subset_rows<R: Rng + ?Sized>(
        &self,
        slice: SliceId,
        k: usize,
        rng: &mut R,
    ) -> SubsetRows {
        let mut rows = Vec::new();
        let mut per_slice = Vec::with_capacity(self.segments.len());
        for (i, segs) in self.segments.iter().enumerate() {
            let n = segs.iter().map(|r| r.end - r.start).sum::<usize>();
            if i == slice.index() {
                let take = k.min(n);
                let mut idx: Vec<usize> = (0..n).collect();
                idx.shuffle(rng);
                rows.extend(idx[..take].iter().map(|&j| physical_row(segs, j)));
                per_slice.push(take);
            } else {
                for seg in segs {
                    rows.extend(seg.clone());
                }
                per_slice.push(n);
            }
        }
        SubsetRows { rows, per_slice }
    }
}

/// Maps a slice-logical example index to its physical row through the
/// slice's segment list.
fn physical_row(segs: &[Range<usize>], mut i: usize) -> usize {
    for seg in segs {
        let len = seg.end - seg.start;
        if i < len {
            return seg.start + i;
        }
        i -= len;
    }
    panic!("logical row index out of range");
}

/// A training subset sampled as row ids into
/// [`DatasetMatrices::train_x`] — the allocation-light replacement for the
/// cloned `Vec<Example>` subsets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubsetRows {
    /// Sampled row ids, in slice-major order (the order the example-based
    /// subsets list their clones).
    pub rows: Vec<usize>,
    /// How many rows of each slice the subset contains — the estimator's
    /// per-slice `n`, computed during sampling instead of by re-scanning
    /// the subset once per slice.
    pub per_slice: Vec<usize>,
}

/// A recoverable [`SlicedDataset::try_absorb`] rejection: an example named
/// a slice the dataset does not have. Nothing was absorbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbsorbError {
    /// The offending slice index.
    pub slice: usize,
    /// Number of slices in the dataset.
    pub num_slices: usize,
}

impl fmt::Display for AbsorbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "acquired example names slice {} but the dataset has {} slices",
            self.slice, self.num_slices
        )
    }
}

impl std::error::Error for AbsorbError {}

impl SlicedDataset {
    /// Generates a dataset from `family` with the given initial train sizes
    /// and a fixed validation size per slice.
    ///
    /// Streams are derived from `seed` so the result is deterministic;
    /// validation draws never overlap the training streams.
    ///
    /// # Panics
    /// Panics if `train_sizes.len()` differs from the slice count.
    pub fn generate(
        family: &DatasetFamily,
        train_sizes: &[usize],
        validation_size: usize,
        seed: u64,
    ) -> Self {
        assert_eq!(
            train_sizes.len(),
            family.num_slices(),
            "train_sizes length must match slice count"
        );
        let slices = family
            .slices
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let id = SliceId(i);
                // Stream 0: initial train data. Stream 1: validation data.
                let train = family.sample_slice_seeded(id, train_sizes[i], seed, 0);
                let validation = family.sample_slice_seeded(id, validation_size, seed, 1);
                SliceData {
                    name: spec.name.clone(),
                    cost: spec.cost,
                    train,
                    validation,
                }
            })
            .collect();
        Self {
            feature_dim: family.feature_dim,
            num_classes: family.num_classes,
            slices,
            matrices: Mutex::new(None),
            incremental_snapshot: false,
        }
    }

    /// Builds an empty dataset shell with named slices and costs — for
    /// callers assembling data from their own sources (e.g. after
    /// [`auto_slice`](crate::auto_slice) rediscovers slice structure).
    ///
    /// # Panics
    /// Panics when `names` and `costs` lengths differ or are empty.
    pub fn empty<S: AsRef<str>>(
        names: &[S],
        costs: &[f64],
        feature_dim: usize,
        num_classes: usize,
    ) -> Self {
        assert!(!names.is_empty(), "need at least one slice");
        assert_eq!(names.len(), costs.len(), "names/costs length mismatch");
        let slices = names
            .iter()
            .zip(costs)
            .map(|(name, &cost)| SliceData {
                name: name.as_ref().to_string(),
                cost,
                train: Vec::new(),
                validation: Vec::new(),
            })
            .collect();
        Self {
            feature_dim,
            num_classes,
            slices,
            matrices: Mutex::new(None),
            incremental_snapshot: false,
        }
    }

    /// Number of slices.
    pub fn num_slices(&self) -> usize {
        self.slices.len()
    }

    /// Current per-slice training sizes `{|s_i|}`.
    pub fn train_sizes(&self) -> Vec<usize> {
        self.slices.iter().map(|s| s.train_size()).collect()
    }

    /// Per-slice acquisition costs.
    pub fn costs(&self) -> Vec<f64> {
        self.slices.iter().map(|s| s.cost).collect()
    }

    /// Imbalance ratio `max |s_i| / min |s_i|` (Buda et al.; Section 5.2).
    ///
    /// Returns `f64::INFINITY` when the smallest slice is empty.
    pub fn imbalance_ratio(&self) -> f64 {
        imbalance_ratio_of(&self.train_sizes())
    }

    /// Order-sensitive content hash over every training and validation
    /// example (bit-exact features, labels, slice ids) plus the shape.
    ///
    /// Two datasets with equal fingerprints produce identical training
    /// subsets, models, and losses for the same seeds, which is what lets
    /// curve-estimation caches key on `(fingerprint, seed)` without risking
    /// collisions between same-sized datasets with different content.
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a over little-endian words; cheap relative to one training.
        const OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut h = OFFSET;
        let mut mix = |word: u64| {
            for byte in word.to_le_bytes() {
                h = (h ^ byte as u64).wrapping_mul(PRIME);
            }
        };
        mix(self.feature_dim as u64);
        mix(self.num_classes as u64);
        for slice in &self.slices {
            mix(slice.train.len() as u64);
            mix(slice.validation.len() as u64);
            for e in slice.train.iter().chain(&slice.validation) {
                mix(e.label as u64);
                mix(e.slice.0 as u64);
                for &f in &e.features {
                    mix(f.to_bits());
                }
            }
        }
        h
    }

    /// All training examples across slices, cloned into one buffer in slice
    /// order. The shared model trains on this.
    pub fn all_train(&self) -> Vec<Example> {
        let total: usize = self.slices.iter().map(|s| s.train.len()).sum();
        let mut out = Vec::with_capacity(total);
        for s in &self.slices {
            out.extend(s.train.iter().cloned());
        }
        out
    }

    /// All validation examples across slices.
    pub fn all_validation(&self) -> Vec<Example> {
        let total: usize = self.slices.iter().map(|s| s.validation.len()).sum();
        let mut out = Vec::with_capacity(total);
        for s in &self.slices {
            out.extend(s.validation.iter().cloned());
        }
        out
    }

    /// Switches [`Self::absorb`] to append-only snapshot maintenance: an
    /// acquisition extends the cached dense snapshot in place — new rows
    /// stack below the existing train matrix, the affected slices' row
    /// segments grow, and the validation half keeps its `Arc`s — instead of
    /// leaving the whole snapshot to be re-stacked on the next
    /// [`Self::matrices`] call.
    ///
    /// The appended layout is no longer slice-major
    /// ([`DatasetMatrices::is_slice_major`] turns false), so consumers that
    /// depend on the canonical row order must gather through
    /// [`DatasetMatrices::canonical_row_order`] or sample through the
    /// snapshot's segment-aware subset methods. The incremental tuner mode
    /// enables this; the default stays off, keeping the rebuilt-snapshot
    /// path bit-identical to previous behavior.
    pub fn enable_incremental_snapshot(&mut self) {
        self.incremental_snapshot = true;
    }

    /// True when [`Self::enable_incremental_snapshot`] has been called.
    pub fn incremental_snapshot(&self) -> bool {
        self.incremental_snapshot
    }

    /// Appends acquired examples to their slices' training sets.
    ///
    /// In incremental-snapshot mode the cached dense snapshot is extended
    /// in place (see [`Self::enable_incremental_snapshot`]); otherwise the
    /// next [`Self::matrices`] call re-stacks it.
    ///
    /// # Panics
    /// Panics if an example's slice id is out of range — validated before
    /// any mutation, so a panic leaves the dataset untouched. Data from
    /// outside the process should go through [`Self::try_absorb`] (or be
    /// bounds-checked at parse time, see `io::read_examples_bounded`).
    pub fn absorb(&mut self, acquired: Vec<Example>) {
        // An empty acquisition is a guaranteed snapshot no-op: no signature
        // moves and the cached snapshot keeps its identity.
        if acquired.is_empty() {
            return;
        }
        for e in &acquired {
            let idx = e.slice.index();
            assert!(
                idx < self.slices.len(),
                "acquired example for unknown slice {idx}"
            );
        }
        if self.incremental_snapshot && self.feature_dim > 0 {
            self.absorb_append(acquired);
        } else {
            for e in acquired {
                self.slices[e.slice.index()].train.push(e);
            }
        }
    }

    /// [`Self::absorb`] with a recoverable error instead of a panic when an
    /// example names a slice the dataset does not have — the ingestion
    /// boundary for user-supplied data. Nothing is absorbed on error.
    pub fn try_absorb(&mut self, acquired: Vec<Example>) -> Result<(), AbsorbError> {
        if let Some(e) = acquired
            .iter()
            .find(|e| e.slice.index() >= self.slices.len())
        {
            return Err(AbsorbError {
                slice: e.slice.index(),
                num_slices: self.slices.len(),
            });
        }
        self.absorb(acquired);
        Ok(())
    }

    /// The incremental-mode absorb: grows the cached snapshot in place
    /// (uniquely-owned snapshots are extended without a copy; an `Arc`
    /// still held by a caller forces one clone) and refreshes its
    /// signatures so the next [`Self::matrices`] call hits. With a cold
    /// cache there is nothing to extend — examples are appended to the
    /// lists and the next call stacks slice-major as usual.
    fn absorb_append(&mut self, acquired: Vec<Example>) {
        let extended = {
            let mut guard = self.matrices.lock().expect("matrix cache lock");
            guard.take().map(|arc| {
                let mut snap = Arc::try_unwrap(arc).unwrap_or_else(|shared| (*shared).clone());
                let mut flat = Vec::with_capacity(acquired.len() * self.feature_dim);
                for (row, e) in (snap.train_x.rows()..).zip(acquired.iter()) {
                    assert_eq!(
                        e.features.len(),
                        self.feature_dim,
                        "example feature dim {} does not match dataset dim {}",
                        e.features.len(),
                        self.feature_dim
                    );
                    flat.extend_from_slice(&e.features);
                    snap.train_y.push(e.label);
                    let segs = &mut snap.segments[e.slice.index()];
                    match segs.last_mut() {
                        // Consecutive rows of one slice coalesce into one
                        // segment, so segment lists stay short.
                        Some(last) if last.end == row => last.end = row + 1,
                        _ => segs.push(row..row + 1),
                    }
                }
                snap.train_x.append_rows(self.feature_dim, &flat);
                snap.slice_major = false;
                snap.slice_rows = Vec::new();
                snap
            })
        };
        for e in acquired {
            self.slices[e.slice.index()].train.push(e);
        }
        if let Some(mut snap) = extended {
            let (sig_train, sig_val) = self.matrices_sigs();
            snap.sig_train = sig_train;
            snap.sig_val = sig_val;
            *self.matrices.lock().expect("matrix cache lock") = Some(Arc::new(snap));
        }
    }

    /// Takes an X% random subset of *every* slice's training data jointly —
    /// the amortized subset used by the efficient curve estimation of
    /// Section 4.2. For `frac > 0`, fractions are clamped so each non-empty
    /// slice keeps at least one example; `frac == 0.0` returns an empty
    /// subset without consuming any RNG draws.
    pub fn joint_train_subset<R: Rng + ?Sized>(&self, frac: f64, rng: &mut R) -> Vec<Example> {
        assert!((0.0..=1.0).contains(&frac), "frac must be in [0,1]");
        if frac == 0.0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        for s in &self.slices {
            let n = s.train.len();
            if n == 0 {
                continue;
            }
            let take = ((n as f64 * frac).round() as usize).clamp(1, n);
            let mut idx: Vec<usize> = (0..n).collect();
            idx.shuffle(rng);
            out.extend(idx[..take].iter().map(|&i| s.train[i].clone()));
        }
        out
    }

    /// Takes a random subset of size `k` from one slice's training data and
    /// returns it together with the *full* training data of every other
    /// slice — the exhaustive per-slice subset of Section 4.1.
    pub fn exhaustive_train_subset<R: Rng + ?Sized>(
        &self,
        slice: SliceId,
        k: usize,
        rng: &mut R,
    ) -> Vec<Example> {
        let mut out = Vec::new();
        for (i, s) in self.slices.iter().enumerate() {
            if i == slice.index() {
                let n = s.train.len();
                let take = k.min(n);
                let mut idx: Vec<usize> = (0..n).collect();
                idx.shuffle(rng);
                out.extend(idx[..take].iter().map(|&j| s.train[j].clone()));
            } else {
                out.extend(s.train.iter().cloned());
            }
        }
        out
    }

    /// Deterministic helper: a seeded joint subset (stream-split from `seed`).
    pub fn joint_train_subset_seeded(&self, frac: f64, seed: u64, stream: u64) -> Vec<Example> {
        let mut rng = seeded_rng(split_seed(seed, stream));
        self.joint_train_subset(frac, &mut rng)
    }

    // ---- The matrix-native data plane ----------------------------------

    /// Cheap change signatures of the dense snapshot, one for the
    /// training data and one for the validation data: shape (per-slice
    /// lengths) plus content probes of each list's first and last example.
    /// Every mutation this workspace performs — acquisition appends
    /// ([`Self::absorb`]), truncations, wholesale replacement of a split —
    /// moves the affected signature. They deliberately do **not** hash
    /// every example (that is [`Self::fingerprint`], too expensive per
    /// evaluation); callers that mutate example *content* in place without
    /// changing either endpoint must call [`Self::invalidate_matrices`].
    fn matrices_sigs(&self) -> (u64, u64) {
        const OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        fn mix(h: &mut u64, word: u64) {
            for byte in word.to_le_bytes() {
                *h = (*h ^ byte as u64).wrapping_mul(PRIME);
            }
        }
        fn probe(h: &mut u64, e: &Example) {
            mix(h, e.label as u64);
            mix(h, e.slice.0 as u64);
            if let Some(&f) = e.features.first() {
                mix(h, f.to_bits());
            }
            if let Some(&f) = e.features.last() {
                mix(h, f.to_bits());
            }
        }
        let mut sigs = [OFFSET, OFFSET];
        for h in &mut sigs {
            mix(h, self.feature_dim as u64);
            mix(h, self.num_classes as u64);
            mix(h, self.slices.len() as u64);
        }
        for slice in &self.slices {
            for (h, list) in sigs.iter_mut().zip([&slice.train, &slice.validation]) {
                mix(h, list.len() as u64);
                if let Some(e) = list.first() {
                    probe(h, e);
                }
                if let Some(e) = list.last() {
                    probe(h, e);
                }
            }
        }
        (sigs[0], sigs[1])
    }

    /// The dense snapshot of the current dataset state, built lazily and
    /// cached until the data changes. The train and validation halves are
    /// invalidated independently: an acquisition ([`Self::absorb`]) moves
    /// only the train signature, so the rebuild re-stacks the training
    /// matrix but reuses the (fixed) validation matrices via their `Arc`s.
    /// A full cache hit returns the same [`Arc`] — callers grab it once
    /// per estimation and index it freely across threads.
    ///
    /// **Staleness contract.** Change detection uses the cheap signatures
    /// of [`Self::matrices_sigs`]: per-slice list lengths plus content
    /// probes of each list's first and last example. Every mutation this
    /// workspace performs moves a signature, but `slices` is a public
    /// field — code that edits example *content* in place (through
    /// `slices`) without changing a list's length or its endpoint
    /// examples must call [`Self::invalidate_matrices`] before the next
    /// read, or it will be served the cached snapshot of the old data.
    pub fn matrices(&self) -> Arc<DatasetMatrices> {
        let (sig_train, sig_val) = self.matrices_sigs();
        let mut reuse_val = None;
        if let Some(cached) = self.matrices.lock().expect("matrix cache lock").as_ref() {
            if cached.sig_train == sig_train && cached.sig_val == sig_val {
                return Arc::clone(cached);
            }
            if cached.sig_val == sig_val {
                reuse_val = Some((Arc::clone(&cached.val_x), Arc::clone(&cached.val_y)));
            }
        }
        let built = Arc::new(self.build_with(sig_train, sig_val, reuse_val));
        *self.matrices.lock().expect("matrix cache lock") = Some(Arc::clone(&built));
        built
    }

    /// Builds a fresh dense snapshot, bypassing the cache entirely (the
    /// reference the cache-identity tests compare against).
    pub fn build_matrices(&self) -> DatasetMatrices {
        let (sig_train, sig_val) = self.matrices_sigs();
        self.build_with(sig_train, sig_val, None)
    }

    /// Drops the cached snapshot so the next [`Self::matrices`] rebuilds
    /// both halves. Needed only after in-place *content* mutation that
    /// keeps every list's length and endpoints (see
    /// [`Self::matrices_sigs`]).
    pub fn invalidate_matrices(&self) {
        *self.matrices.lock().expect("matrix cache lock") = None;
    }

    #[allow(clippy::type_complexity)]
    fn build_with(
        &self,
        sig_train: u64,
        sig_val: u64,
        reuse_val: Option<(Arc<Vec<Matrix>>, Arc<Vec<Vec<usize>>>)>,
    ) -> DatasetMatrices {
        let stack = |lists: &mut dyn Iterator<Item = &Vec<Example>>| -> (Matrix, Vec<usize>) {
            let mut data = Vec::new();
            let mut labels = Vec::new();
            for list in lists {
                for e in list {
                    assert_eq!(
                        e.features.len(),
                        self.feature_dim,
                        "example feature dim {} does not match dataset dim {}",
                        e.features.len(),
                        self.feature_dim
                    );
                    data.extend_from_slice(&e.features);
                    labels.push(e.label);
                }
            }
            // An empty stack mirrors `examples_to_matrix(&[])`'s 0×0 so
            // the snapshot is byte-identical to the per-call gather.
            let x = if labels.is_empty() {
                Matrix::zeros(0, 0)
            } else {
                Matrix::from_vec(labels.len(), self.feature_dim, data)
            };
            (x, labels)
        };

        let (train_x, train_y) = stack(&mut self.slices.iter().map(|s| &s.train));
        let mut slice_rows = Vec::with_capacity(self.slices.len());
        let mut segments = Vec::with_capacity(self.slices.len());
        let mut start = 0;
        for s in &self.slices {
            slice_rows.push(start..start + s.train.len());
            segments.push(if s.train.is_empty() {
                Vec::new()
            } else {
                // One whole-slice segment (a Vec<Range>, not a collected
                // range — the append layout adds more segments later).
                std::iter::once(start..start + s.train.len()).collect()
            });
            start += s.train.len();
        }
        let (val_x, val_y) = match reuse_val {
            Some(pair) => pair,
            None => {
                let mut val_x = Vec::with_capacity(self.slices.len());
                let mut val_y = Vec::with_capacity(self.slices.len());
                for s in &self.slices {
                    let (x, y) = stack(&mut std::iter::once(&s.validation));
                    val_x.push(x);
                    val_y.push(y);
                }
                (Arc::new(val_x), Arc::new(val_y))
            }
        };
        DatasetMatrices {
            sig_train,
            sig_val,
            train_x,
            train_y,
            slice_rows,
            segments,
            slice_major: true,
            val_x,
            val_y,
        }
    }

    /// [`Self::joint_train_subset`] as row ids into the dense snapshot's
    /// train matrix: same RNG draws, same per-slice picks, same slice-major
    /// order — training on the gathered rows is bit-identical to training
    /// on the cloned subset — but no `Example` is cloned, and the
    /// per-slice counts come out of the sampling pass for free. The ≥ 1
    /// clamp applies only to `frac > 0`; a zero fraction returns an empty
    /// subset without consuming RNG draws.
    pub fn joint_train_subset_rows<R: Rng + ?Sized>(&self, frac: f64, rng: &mut R) -> SubsetRows {
        assert!((0.0..=1.0).contains(&frac), "frac must be in [0,1]");
        if frac == 0.0 {
            return SubsetRows {
                rows: Vec::new(),
                per_slice: vec![0; self.slices.len()],
            };
        }
        let mut rows = Vec::new();
        let mut per_slice = Vec::with_capacity(self.slices.len());
        let mut start = 0;
        for s in &self.slices {
            let n = s.train.len();
            if n == 0 {
                per_slice.push(0);
                continue;
            }
            let take = ((n as f64 * frac).round() as usize).clamp(1, n);
            let mut idx: Vec<usize> = (0..n).collect();
            idx.shuffle(rng);
            rows.extend(idx[..take].iter().map(|&i| start + i));
            per_slice.push(take);
            start += n;
        }
        SubsetRows { rows, per_slice }
    }

    /// [`Self::exhaustive_train_subset`] as row ids into the dense
    /// snapshot's train matrix (same RNG draws and ordering; see
    /// [`Self::joint_train_subset_rows`]).
    pub fn exhaustive_train_subset_rows<R: Rng + ?Sized>(
        &self,
        slice: SliceId,
        k: usize,
        rng: &mut R,
    ) -> SubsetRows {
        let mut rows = Vec::new();
        let mut per_slice = Vec::with_capacity(self.slices.len());
        let mut start = 0;
        for (i, s) in self.slices.iter().enumerate() {
            let n = s.train.len();
            if i == slice.index() {
                let take = k.min(n);
                let mut idx: Vec<usize> = (0..n).collect();
                idx.shuffle(rng);
                rows.extend(idx[..take].iter().map(|&j| start + j));
                per_slice.push(take);
            } else {
                rows.extend(start..start + n);
                per_slice.push(n);
            }
            start += n;
        }
        SubsetRows { rows, per_slice }
    }

    /// Deterministic helper: seeded [`Self::joint_train_subset_rows`]
    /// (stream-split exactly like [`Self::joint_train_subset_seeded`], so
    /// the two sample the same subset).
    pub fn joint_train_subset_rows_seeded(&self, frac: f64, seed: u64, stream: u64) -> SubsetRows {
        let mut rng = seeded_rng(split_seed(seed, stream));
        self.joint_train_subset_rows(frac, &mut rng)
    }
}

/// Imbalance ratio of a size vector: `max / min`.
///
/// Returns 1.0 for an empty vector and `f64::INFINITY` when the minimum is
/// zero but the maximum is not.
pub fn imbalance_ratio_of(sizes: &[usize]) -> f64 {
    if sizes.is_empty() {
        return 1.0;
    }
    let max = *sizes.iter().max().expect("nonempty") as f64;
    let min = *sizes.iter().min().expect("nonempty") as f64;
    if min == 0.0 {
        if max == 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        max / min
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{GaussianSliceModel, LabelCluster, SliceSpec};

    fn family() -> DatasetFamily {
        let mk = |label: usize, x: f64| {
            GaussianSliceModel::new(vec![LabelCluster::new(label, 1.0, vec![x, -x], 0.2)], 0.0)
        };
        DatasetFamily::new(
            "fam",
            2,
            3,
            vec![
                SliceSpec::new("a", 1.0, mk(0, 0.0)),
                SliceSpec::new("b", 1.5, mk(1, 2.0)),
                SliceSpec::new("c", 2.0, mk(2, -2.0)),
            ],
        )
    }

    #[test]
    fn generate_respects_sizes() {
        let ds = SlicedDataset::generate(&family(), &[10, 20, 30], 5, 7);
        assert_eq!(ds.train_sizes(), vec![10, 20, 30]);
        assert!(ds.slices.iter().all(|s| s.validation.len() == 5));
        assert_eq!(ds.all_train().len(), 60);
        assert_eq!(ds.all_validation().len(), 15);
    }

    #[test]
    fn generate_is_deterministic() {
        let a = SlicedDataset::generate(&family(), &[5, 5, 5], 3, 11);
        let b = SlicedDataset::generate(&family(), &[5, 5, 5], 3, 11);
        assert_eq!(a.all_train(), b.all_train());
        assert_eq!(a.all_validation(), b.all_validation());
    }

    #[test]
    fn validation_disjoint_from_train_stream() {
        let ds = SlicedDataset::generate(&family(), &[50, 50, 50], 50, 13);
        let train = ds.slices[0].train.clone();
        let val = ds.slices[0].validation.clone();
        // Exact feature collisions between independent continuous draws are
        // measure-zero; any overlap means the streams are shared.
        for t in &train {
            assert!(val.iter().all(|v| v.features != t.features));
        }
    }

    #[test]
    fn imbalance_ratio_basics() {
        assert_eq!(imbalance_ratio_of(&[10, 20, 30]), 3.0);
        assert_eq!(imbalance_ratio_of(&[7, 7]), 1.0);
        assert_eq!(imbalance_ratio_of(&[]), 1.0);
        assert_eq!(imbalance_ratio_of(&[0, 0]), 1.0);
        assert!(imbalance_ratio_of(&[0, 5]).is_infinite());
    }

    #[test]
    fn absorb_grows_right_slice() {
        let mut ds = SlicedDataset::generate(&family(), &[2, 2, 2], 2, 3);
        let extra = vec![Example::new(vec![0.0, 0.0], 0, SliceId(1))];
        ds.absorb(extra);
        assert_eq!(ds.train_sizes(), vec![2, 3, 2]);
    }

    #[test]
    fn joint_subset_scales_each_slice() {
        let ds = SlicedDataset::generate(&family(), &[100, 50, 10], 2, 5);
        let sub = ds.joint_train_subset_seeded(0.5, 1, 0);
        let count = |id: usize| sub.iter().filter(|e| e.slice == SliceId(id)).count();
        assert_eq!(count(0), 50);
        assert_eq!(count(1), 25);
        assert_eq!(count(2), 5);
    }

    #[test]
    fn joint_subset_keeps_at_least_one() {
        let ds = SlicedDataset::generate(&family(), &[3, 3, 3], 2, 5);
        let sub = ds.joint_train_subset_seeded(0.01, 1, 0);
        assert_eq!(
            sub.len(),
            3,
            "one example per slice survives tiny fractions"
        );
    }

    #[test]
    fn exhaustive_subset_only_shrinks_target_slice() {
        let ds = SlicedDataset::generate(&family(), &[40, 40, 40], 2, 5);
        let mut rng = seeded_rng(2);
        let sub = ds.exhaustive_train_subset(SliceId(1), 10, &mut rng);
        let count = |id: usize| sub.iter().filter(|e| e.slice == SliceId(id)).count();
        assert_eq!(count(0), 40);
        assert_eq!(count(1), 10);
        assert_eq!(count(2), 40);
    }

    #[test]
    fn fingerprint_is_deterministic_and_content_sensitive() {
        let a = SlicedDataset::generate(&family(), &[20, 20, 20], 5, 7);
        let b = SlicedDataset::generate(&family(), &[20, 20, 20], 5, 7);
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "same generation, same hash"
        );

        // Same shape, different seed: the content differs, so must the hash.
        let c = SlicedDataset::generate(&family(), &[20, 20, 20], 5, 8);
        assert_eq!(a.train_sizes(), c.train_sizes());
        assert_ne!(
            a.fingerprint(),
            c.fingerprint(),
            "content must be hashed, not shape"
        );
    }

    #[test]
    fn matrices_match_example_lists() {
        let ds = SlicedDataset::generate(&family(), &[10, 0, 30], 5, 7);
        let m = ds.matrices();
        // Train stack mirrors all_train() exactly.
        let all = ds.all_train();
        assert_eq!(m.train_x.rows(), all.len());
        assert_eq!(m.train_x.cols(), 2);
        for (r, e) in all.iter().enumerate() {
            assert_eq!(m.train_x.row(r), &e.features[..]);
            assert_eq!(m.train_y[r], e.label);
        }
        // Row ranges partition the stack in slice order.
        assert_eq!(m.slice_rows, vec![0..10, 10..10, 10..40]);
        // Per-slice validation matrices mirror the validation lists.
        for (s, slice) in ds.slices.iter().enumerate() {
            assert_eq!(m.val_x[s].rows(), slice.validation.len());
            for (r, e) in slice.validation.iter().enumerate() {
                assert_eq!(m.val_x[s].row(r), &e.features[..]);
                assert_eq!(m.val_y[s][r], e.label);
            }
        }
    }

    #[test]
    fn matrices_cache_hits_until_data_changes() {
        let fam = family();
        let mut ds = SlicedDataset::generate(&fam, &[8, 8, 8], 4, 9);
        let a = ds.matrices();
        let b = ds.matrices();
        assert!(Arc::ptr_eq(&a, &b), "unchanged data must hit the cache");
        // Acquisition moves the signature: the snapshot is rebuilt …
        ds.absorb(fam.sample_slice_seeded(SliceId(1), 3, 9, 42));
        let c = ds.matrices();
        assert!(!Arc::ptr_eq(&a, &c), "absorb must invalidate the snapshot");
        assert_eq!(c.train_x.rows(), 27);
        assert_eq!(c.slice_rows[1], 8..19);
        // Acquisition touches only training data: the validation
        // matrices are carried over by Arc, not re-stacked.
        assert!(
            Arc::ptr_eq(&a.val_x, &c.val_x) && Arc::ptr_eq(&a.val_y, &c.val_y),
            "absorb must not rebuild the validation matrices"
        );
        // … and matches a from-scratch build bit for bit.
        let fresh = ds.build_matrices();
        assert_eq!(c.train_x.as_slice(), fresh.train_x.as_slice());
        assert_eq!(c.train_y, fresh.train_y);
        for s in 0..3 {
            assert_eq!(c.val_x[s].as_slice(), fresh.val_x[s].as_slice());
            assert_eq!(c.val_y[s], fresh.val_y[s]);
        }
        // Explicit invalidation also forces a rebuild.
        ds.invalidate_matrices();
        let d = ds.matrices();
        assert!(!Arc::ptr_eq(&c, &d));
        assert_eq!(c.train_x.as_slice(), d.train_x.as_slice());
    }

    #[test]
    fn empty_dataset_matrices_mirror_per_call_gather() {
        let ds = SlicedDataset::empty(&["a", "b"], &[1.0, 2.0], 3, 2);
        let m = ds.matrices();
        // examples_to_matrix(&[]) is 0×0; the snapshot mirrors that.
        assert_eq!((m.train_x.rows(), m.train_x.cols()), (0, 0));
        assert_eq!((m.val_x[0].rows(), m.val_x[0].cols()), (0, 0));
        assert_eq!(m.slice_rows, vec![0..0, 0..0]);
    }

    #[test]
    fn subset_rows_mirror_example_subsets() {
        let ds = SlicedDataset::generate(&family(), &[40, 0, 25], 2, 5);
        let m = ds.matrices();
        // Joint: same RNG stream ⇒ the row ids name exactly the examples
        // the cloning subset picks, in the same order.
        let sub = ds.joint_train_subset_seeded(0.5, 3, 0);
        let rows = ds.joint_train_subset_rows_seeded(0.5, 3, 0);
        assert_eq!(rows.rows.len(), sub.len());
        for (&r, e) in rows.rows.iter().zip(&sub) {
            assert_eq!(m.train_x.row(r), &e.features[..]);
            assert_eq!(m.train_y[r], e.label);
        }
        // Per-slice counts equal the old per-slice re-scan.
        for s in 0..3 {
            let scan = sub.iter().filter(|e| e.slice == SliceId(s)).count();
            assert_eq!(rows.per_slice[s], scan, "slice {s}");
        }
        assert_eq!(rows.per_slice.iter().sum::<usize>(), rows.rows.len());

        // Exhaustive: same contract.
        let mut rng1 = seeded_rng(11);
        let sub = ds.exhaustive_train_subset(SliceId(2), 10, &mut rng1);
        let mut rng2 = seeded_rng(11);
        let rows = ds.exhaustive_train_subset_rows(SliceId(2), 10, &mut rng2);
        assert_eq!(rows.rows.len(), sub.len());
        for (&r, e) in rows.rows.iter().zip(&sub) {
            assert_eq!(m.train_x.row(r), &e.features[..]);
        }
        assert_eq!(rows.per_slice, vec![40, 0, 10]);
    }

    #[test]
    fn joint_subset_zero_fraction_is_empty_and_draws_nothing() {
        let ds = SlicedDataset::generate(&family(), &[10, 10, 10], 2, 5);
        let mut rng = seeded_rng(7);
        assert!(ds.joint_train_subset(0.0, &mut rng).is_empty());
        let rows = ds.joint_train_subset_rows(0.0, &mut rng);
        assert!(rows.rows.is_empty());
        assert_eq!(rows.per_slice, vec![0, 0, 0]);
        let snap = ds.matrices();
        let snap_rows = snap.joint_subset_rows(0.0, &mut rng);
        assert!(snap_rows.rows.is_empty());
        // No RNG draw was consumed by any of the three: the stream is still
        // at its seeded start.
        let mut fresh = seeded_rng(7);
        assert_eq!(rng.gen::<u64>(), fresh.gen::<u64>());
    }

    #[test]
    fn absorb_empty_is_a_snapshot_no_op() {
        let mut ds = SlicedDataset::generate(&family(), &[4, 4, 4], 2, 5);
        let before = ds.matrices();
        ds.absorb(Vec::new());
        assert!(
            Arc::ptr_eq(&before, &ds.matrices()),
            "absorbing nothing must preserve snapshot identity"
        );
        assert_eq!(ds.train_sizes(), vec![4, 4, 4]);
    }

    #[test]
    fn try_absorb_rejects_unknown_slice_without_mutating() {
        let mut ds = SlicedDataset::generate(&family(), &[2, 2, 2], 2, 3);
        let bad = vec![
            Example::new(vec![0.0, 0.0], 0, SliceId(1)),
            Example::new(vec![0.0, 0.0], 0, SliceId(9)),
        ];
        assert_eq!(
            ds.try_absorb(bad),
            Err(AbsorbError {
                slice: 9,
                num_slices: 3
            })
        );
        assert_eq!(ds.train_sizes(), vec![2, 2, 2], "nothing absorbed on error");
        assert!(ds
            .try_absorb(vec![Example::new(vec![0.0, 0.0], 0, SliceId(1))])
            .is_ok());
        assert_eq!(ds.train_sizes(), vec![2, 3, 2]);
    }

    #[test]
    #[should_panic(expected = "unknown slice")]
    fn absorb_still_asserts_on_unknown_slice() {
        let mut ds = SlicedDataset::generate(&family(), &[2, 2, 2], 2, 3);
        ds.absorb(vec![Example::new(vec![0.0, 0.0], 0, SliceId(7))]);
    }

    #[test]
    fn incremental_absorb_appends_below_and_keeps_val_arcs() {
        let fam = family();
        let mut ds = SlicedDataset::generate(&fam, &[8, 8, 8], 4, 9);
        ds.enable_incremental_snapshot();
        let before = ds.matrices();
        assert!(before.is_slice_major());
        let acquired = fam.sample_slice_seeded(SliceId(1), 3, 9, 42);
        let expected_new: Vec<_> = acquired.clone();
        ds.absorb(acquired);
        let after = ds.matrices();
        // Appended layout: old rows untouched, new rows at the bottom.
        assert!(!after.is_slice_major());
        assert!(after.slice_rows.is_empty());
        assert_eq!(after.train_x.rows(), 27);
        for r in 0..24 {
            assert_eq!(after.train_x.row(r), before.train_x.row(r));
            assert_eq!(after.train_y[r], before.train_y[r]);
        }
        for (k, e) in expected_new.iter().enumerate() {
            assert_eq!(after.train_x.row(24 + k), &e.features[..]);
            assert_eq!(after.train_y[24 + k], e.label);
        }
        // Segments: slice 1 owns its original range plus the appended tail.
        assert_eq!(after.slice_segments()[1], vec![8..16, 24..27]);
        assert_eq!(after.slice_len(1), 11);
        // Validation half carried over by Arc.
        assert!(Arc::ptr_eq(&before.val_x, &after.val_x));
        assert!(Arc::ptr_eq(&before.val_y, &after.val_y));
        // Signatures were refreshed: the next call is a cache hit.
        assert!(Arc::ptr_eq(&after, &ds.matrices()));
        // The canonical row order recovers the slice-major stack of a
        // from-scratch build exactly.
        let fresh = ds.build_matrices();
        let order = after.canonical_row_order();
        assert_eq!(order.len(), fresh.train_x.rows());
        for (canon_r, &phys_r) in order.iter().enumerate() {
            assert_eq!(after.train_x.row(phys_r), fresh.train_x.row(canon_r));
            assert_eq!(after.train_y[phys_r], fresh.train_y[canon_r]);
        }
    }

    #[test]
    fn incremental_absorb_with_cold_cache_stacks_canonically() {
        let fam = family();
        let mut ds = SlicedDataset::generate(&fam, &[5, 5, 5], 2, 9);
        ds.enable_incremental_snapshot();
        // No snapshot built yet: absorb just appends to the lists.
        ds.absorb(fam.sample_slice_seeded(SliceId(0), 2, 9, 42));
        let snap = ds.matrices();
        assert!(snap.is_slice_major());
        assert_eq!(snap.slice_rows, vec![0..7, 7..12, 12..17]);
    }

    #[test]
    fn snapshot_subsets_match_dataset_subsets_when_slice_major() {
        let ds = SlicedDataset::generate(&family(), &[40, 0, 25], 2, 5);
        let snap = ds.matrices();
        let a = ds.joint_train_subset_rows_seeded(0.5, 3, 0);
        let mut rng = seeded_rng(split_seed(3, 0));
        let b = snap.joint_subset_rows(0.5, &mut rng);
        assert_eq!(a, b);
        let mut rng1 = seeded_rng(11);
        let c = ds.exhaustive_train_subset_rows(SliceId(2), 10, &mut rng1);
        let mut rng2 = seeded_rng(11);
        let d = snap.exhaustive_subset_rows(SliceId(2), 10, &mut rng2);
        assert_eq!(c, d);
    }

    #[test]
    fn snapshot_subsets_name_same_logical_examples_after_append() {
        let fam = family();
        let mut canonical = SlicedDataset::generate(&fam, &[12, 6, 9], 3, 21);
        let mut incremental = canonical.clone();
        incremental.enable_incremental_snapshot();
        let _warm = incremental.matrices(); // seed the cache so absorb appends
        let batch = fam.sample_slice_seeded(SliceId(0), 4, 21, 42);
        canonical.absorb(batch.clone());
        incremental.absorb(batch);
        let cs = canonical.matrices();
        let is = incremental.matrices();
        // Same draws, same logical picks: the gathered feature rows agree
        // even though the physical layouts differ.
        for frac in [0.3, 0.6, 1.0] {
            let a = cs.joint_subset_rows(frac, &mut seeded_rng(5));
            let b = is.joint_subset_rows(frac, &mut seeded_rng(5));
            assert_eq!(a.per_slice, b.per_slice);
            for (&ra, &rb) in a.rows.iter().zip(&b.rows) {
                assert_eq!(cs.train_x.row(ra), is.train_x.row(rb));
                assert_eq!(cs.train_y[ra], is.train_y[rb]);
            }
        }
        let a = cs.exhaustive_subset_rows(SliceId(0), 7, &mut seeded_rng(6));
        let b = is.exhaustive_subset_rows(SliceId(0), 7, &mut seeded_rng(6));
        assert_eq!(a.per_slice, b.per_slice);
        for (&ra, &rb) in a.rows.iter().zip(&b.rows) {
            assert_eq!(cs.train_x.row(ra), is.train_x.row(rb));
        }
    }

    #[test]
    fn fingerprint_tracks_acquisition() {
        let fam = family();
        let mut ds = SlicedDataset::generate(&fam, &[10, 10, 10], 5, 9);
        let before = ds.fingerprint();
        ds.absorb(fam.sample_slice_seeded(SliceId(0), 4, 9, 42));
        assert_ne!(
            before,
            ds.fingerprint(),
            "absorbed data must change the hash"
        );
    }
}
