//! Cross-round state for incremental curve re-estimation.
//!
//! Algorithm 1 re-estimates every slice's learning curve on every
//! iteration, but an iteration's acquisition usually touches only a few
//! slices — the others' training data is bit-for-bit unchanged. Under the
//! exhaustive schedule every measurement belongs to exactly one slice, and
//! the tuner pins the estimator seed across rounds in incremental mode, so
//! re-measuring an unchanged slice would reproduce its cached measurements
//! exactly. [`IncrementalState`] is therefore a pure memo: it carries the
//! previous round's estimates, a per-slice dirty set that
//! [`SliceTuner::apply_round`](crate::SliceTuner::apply_round) refreshes after each
//! acquisition, and the drift layer's per-slice seed bumps.
//!
//! Results that depend on this history must never be inserted into the
//! shared [`CurveCache`](crate::CurveCache) — see the cache module docs.

use st_curve::SliceEstimate;

/// Per-run state threaded through incremental re-estimation
/// ([`SliceTuner::estimate_curves_incremental`](crate::SliceTuner)).
pub struct IncrementalState {
    /// The last round's estimates (`None` before the first estimation).
    pub(crate) prev: Option<Vec<SliceEstimate>>,
    /// Which slices' training data changed since the last estimation.
    /// Starts all-true so the first round measures everything.
    pub(crate) dirty: Vec<bool>,
    /// Per-slice measurement-seed bump, raised by drift recovery so a
    /// flagged slice's next re-measure draws from a fresh seed stream
    /// instead of replaying the pinned pre-drift one. Zero (the default
    /// everywhere drift never fires) leaves the pinned seed untouched.
    pub(crate) seed_bumps: Vec<u64>,
}

impl IncrementalState {
    /// Fresh state for `num_slices` slices; every slice starts dirty.
    pub fn new(num_slices: usize) -> Self {
        IncrementalState {
            prev: None,
            dirty: vec![true; num_slices],
            seed_bumps: vec![0; num_slices],
        }
    }

    /// Unconditionally invalidates one slice's memoized estimate — the
    /// drift layer's hook for "this slice's evidence is no longer
    /// trustworthy even though its training data did not change".
    pub fn force_dirty(&mut self, slice: usize) {
        self.dirty[slice] = true;
    }

    /// Flags every slice whose training size changed between two
    /// [`train_sizes`](st_data::SlicedDataset::train_sizes) snapshots.
    /// Growth is the only change the tuner performs (absorb is
    /// append-only), so a size delta is exactly "this slice's train data
    /// changed".
    pub fn mark_dirty(&mut self, before: &[usize], after: &[usize]) {
        assert_eq!(before.len(), self.dirty.len(), "size snapshot mismatch");
        assert_eq!(after.len(), self.dirty.len(), "size snapshot mismatch");
        for (d, (b, a)) in self.dirty.iter_mut().zip(before.iter().zip(after)) {
            if b != a {
                *d = true;
            }
        }
    }

    /// The current dirty flags (for diagnostics and tests).
    pub fn dirty(&self) -> &[bool] {
        &self.dirty
    }

    /// Whether a previous round's estimates are available.
    pub fn has_estimates(&self) -> bool {
        self.prev.is_some()
    }

    /// Serializable view for the round checkpoint.
    pub(crate) fn snapshot(&self) -> crate::checkpoint::IncSnapshot {
        crate::checkpoint::IncSnapshot {
            dirty: self.dirty.clone(),
            prev: self
                .prev
                .as_ref()
                .map(|p| crate::checkpoint::snapshot_estimates(p)),
            seed_bumps: self.seed_bumps.clone(),
        }
    }

    /// Restores a [`snapshot`](Self::snapshot) taken by a compatible run
    /// (the checkpoint's fingerprint check precedes this, so the widths
    /// always line up).
    pub(crate) fn restore(&mut self, snap: &crate::checkpoint::IncSnapshot) {
        assert_eq!(
            snap.dirty.len(),
            self.dirty.len(),
            "checkpoint sized for a different dataset"
        );
        self.dirty = snap.dirty.clone();
        self.prev = snap
            .prev
            .as_ref()
            .map(|p| crate::checkpoint::restore_estimates(p));
        self.seed_bumps = snap.seed_bumps.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_all_dirty() {
        let st = IncrementalState::new(3);
        assert_eq!(st.dirty(), &[true; 3]);
        assert!(!st.has_estimates());
    }

    #[test]
    fn marks_only_changed_slices() {
        let mut st = IncrementalState::new(4);
        st.dirty = vec![false; 4];
        st.mark_dirty(&[10, 20, 30, 40], &[10, 25, 30, 41]);
        assert_eq!(st.dirty(), &[false, true, false, true]);
    }

    #[test]
    fn dirty_flags_are_sticky_until_reset() {
        let mut st = IncrementalState::new(2);
        st.dirty = vec![true, false];
        st.mark_dirty(&[5, 5], &[5, 5]);
        assert_eq!(st.dirty(), &[true, false]);
    }

    #[test]
    #[should_panic(expected = "size snapshot mismatch")]
    fn rejects_wrong_width_snapshots() {
        let mut st = IncrementalState::new(2);
        st.mark_dirty(&[1, 2, 3], &[1, 2, 3]);
    }
}
