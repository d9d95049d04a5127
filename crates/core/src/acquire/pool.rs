//! Pool-backed acquisition: the paper's simulated setting.

use super::AcquisitionSource;
use st_data::{drift, DatasetFamily, DriftPlan, Example, SliceId};

/// Draws fresh examples straight from a dataset family's generative pool.
///
/// This matches the paper's simulation protocol for Fashion-MNIST,
/// Mixed-MNIST, and AdultCensus: "start from a subset and add more
/// examples", with a constant cost function taken from the family's slice
/// specs. Draw streams never collide with the streams `SlicedDataset::
/// generate` uses (0 = initial train, 1 = validation), so acquired data is
/// always fresh.
///
/// Under a drift plan — attached with [`with_drift`](Self::with_drift) or
/// installed process-wide with [`st_data::drift::install`] — draws for a slice
/// whose scheduled round has passed come from the drifted model instead.
/// The seed/stream bookkeeping is identical either way, so a plan that
/// never fires leaves the draw sequence bit-identical to a stationary pool.
#[derive(Debug, Clone)]
pub struct PoolSource {
    family: DatasetFamily,
    seed: u64,
    /// Next draw stream per slice (starts at 2).
    next_stream: Vec<u64>,
    /// Total examples drawn per slice, for reporting.
    drawn: Vec<usize>,
    /// Current acquisition round, set by the tuner via `note_round`
    /// (0 = pre-pass).
    round: u64,
    /// Source-local drift plan; when `None` the process-wide installed
    /// plan still applies.
    plan: Option<DriftPlan>,
}

impl PoolSource {
    /// Creates a pool over `family`, seeded independently of the dataset.
    pub fn new(family: DatasetFamily, seed: u64) -> Self {
        let n = family.num_slices();
        PoolSource {
            family,
            seed,
            next_stream: vec![2; n],
            drawn: vec![0; n],
            round: 0,
            plan: None,
        }
    }

    /// Attaches a source-local drift plan (takes precedence over the
    /// process-wide installed plan for this source only).
    pub fn with_drift(mut self, plan: DriftPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Examples drawn so far per slice.
    pub fn drawn(&self) -> &[usize] {
        &self.drawn
    }

    /// The model `slice` draws from at the current round, or `None` while
    /// it is still stationary.
    fn drifted_model(&self, slice: SliceId) -> Option<st_data::GaussianSliceModel> {
        let base = &self.family.slices[slice.index()].model;
        match &self.plan {
            Some(plan) => plan.drifted_model(base, slice.index(), self.round),
            None => drift::active_model(base, slice.index(), self.round),
        }
    }
}

impl AcquisitionSource for PoolSource {
    fn cost(&self, slice: SliceId) -> f64 {
        self.family.slices[slice.index()].cost
    }

    fn acquire(&mut self, slice: SliceId, n: usize) -> Vec<Example> {
        let i = slice.index();
        let stream = self.next_stream[i];
        self.next_stream[i] += 1;
        self.drawn[i] += n;
        match self.drifted_model(slice) {
            Some(model) => self
                .family
                .sample_slice_seeded_as(&model, slice, n, self.seed, stream),
            None => self.family.sample_slice_seeded(slice, n, self.seed, stream),
        }
    }

    fn name(&self) -> &'static str {
        "pool"
    }

    fn note_round(&mut self, round: u64) {
        self.round = round;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_data::families::census;

    #[test]
    fn acquires_requested_amount_with_family_cost() {
        let mut src = PoolSource::new(census(), 3);
        let got = src.acquire(SliceId(1), 25);
        assert_eq!(got.len(), 25);
        assert!(got.iter().all(|e| e.slice == SliceId(1)));
        assert_eq!(src.cost(SliceId(1)), 1.0);
        assert_eq!(src.drawn()[1], 25);
    }

    #[test]
    fn successive_draws_differ() {
        let mut src = PoolSource::new(census(), 3);
        let a = src.acquire(SliceId(0), 10);
        let b = src.acquire(SliceId(0), 10);
        assert_ne!(a, b, "fresh draws must come from fresh streams");
    }

    #[test]
    fn same_seed_same_draw_sequence() {
        let mut s1 = PoolSource::new(census(), 9);
        let mut s2 = PoolSource::new(census(), 9);
        assert_eq!(s1.acquire(SliceId(2), 5), s2.acquire(SliceId(2), 5));
    }

    #[test]
    fn local_drift_plan_shifts_draws_from_its_round_only() {
        let plan = st_data::drift::parse_plan("shift@slice0:round2:mag5.0").unwrap();
        let mut plain = PoolSource::new(census(), 3);
        let mut drifting = PoolSource::new(census(), 3).with_drift(plan);
        for round in 0..2 {
            plain.note_round(round);
            drifting.note_round(round);
            assert_eq!(
                plain.acquire(SliceId(0), 8),
                drifting.acquire(SliceId(0), 8),
                "before the scheduled round the pool is stationary"
            );
        }
        plain.note_round(2);
        drifting.note_round(2);
        let before = plain.acquire(SliceId(0), 8);
        let after = drifting.acquire(SliceId(0), 8);
        let mean = |ex: &[Example]| ex.iter().map(|e| e.features[0]).sum::<f64>() / ex.len() as f64;
        assert!(
            (mean(&after) - mean(&before) - 5.0).abs() < 1.0,
            "drifted draws move by the shift magnitude: {} vs {}",
            mean(&after),
            mean(&before)
        );
        assert_eq!(
            plain.acquire(SliceId(1), 8),
            drifting.acquire(SliceId(1), 8),
            "other slices stay stationary"
        );
    }

    #[test]
    fn drifting_draws_replay_bit_identically() {
        let plan = || st_data::drift::parse_plan("label@slice1:round1:mag0.4").unwrap();
        let mut a = PoolSource::new(census(), 9).with_drift(plan());
        let mut b = PoolSource::new(census(), 9).with_drift(plan());
        for round in 0..3 {
            a.note_round(round);
            b.note_round(round);
            assert_eq!(a.acquire(SliceId(1), 12), b.acquire(SliceId(1), 12));
        }
    }

    #[test]
    fn pool_draws_disjoint_from_dataset_streams() {
        use st_data::SlicedDataset;
        let fam = census();
        let ds = SlicedDataset::generate(&fam, &[20; 4], 20, 9);
        let mut src = PoolSource::new(fam, 9);
        let fresh = src.acquire(SliceId(0), 20);
        for f in &fresh {
            assert!(ds.slices[0].train.iter().all(|t| t.features != f.features));
            assert!(ds.slices[0]
                .validation
                .iter()
                .all(|v| v.features != f.features));
        }
    }
}
