//! Data acquisition sources (Section 2.1's cost abstraction).
//!
//! The paper abstracts all acquisition mechanics — dataset discovery,
//! crowdsourcing, simulators — behind a per-slice cost function and the
//! ability to obtain fresh examples at will. [`AcquisitionSource`] is that
//! abstraction; [`PoolSource`] is the "simulated acquisition" used for
//! Fashion-MNIST / Mixed-MNIST / AdultCensus (hold out a pool, draw from
//! it), and [`CrowdSimulator`] reproduces the Amazon Mechanical Turk
//! pipeline used for UTKFace, including worker mistakes, duplicates, and
//! task-latency-proportional costs (Table 1).

mod crowd;
mod escalating;
mod faulty;
mod pool;

pub use crowd::{CrowdConfig, CrowdSimulator, CrowdStats};
pub use escalating::{EscalatingSource, EscalationConfig};
pub use faulty::{FaultConfig, FaultySource};
pub use pool::PoolSource;

use st_data::{Example, SliceId};

/// A source of fresh labeled examples with per-slice costs.
pub trait AcquisitionSource {
    /// Cost `C(s)` of acquiring one example of slice `slice`.
    fn cost(&self, slice: SliceId) -> f64;

    /// Acquires up to `n` fresh examples for `slice`.
    ///
    /// Sources with imperfect yield (e.g. crowdsourcing after error
    /// filtering) may return fewer than `n` examples; callers are charged
    /// only for what is returned.
    fn acquire(&mut self, slice: SliceId, n: usize) -> Vec<Example>;

    /// All per-slice costs, in slice-id order.
    fn costs(&self, num_slices: usize) -> Vec<f64> {
        (0..num_slices).map(|i| self.cost(SliceId(i))).collect()
    }

    /// Informs the source which acquisition round subsequent [`acquire`]
    /// calls belong to (0 = the tuner's pre-pass, `r ≥ 1` = the `r`-th
    /// iterative round). Sources with round-dependent behavior — e.g.
    /// [`PoolSource`] under a drift plan — key their draws on it;
    /// the default is a no-op, so stationary sources are unaffected.
    ///
    /// [`acquire`]: Self::acquire
    fn note_round(&mut self, _round: u64) {}

    /// Human-readable source name for reports.
    fn name(&self) -> &'static str {
        "source"
    }
}
