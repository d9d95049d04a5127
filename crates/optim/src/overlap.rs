//! Selective acquisition with overlapping slices (the paper's future work).
//!
//! Section 8: "In the future, we would like to ... support overlapping
//! slices." The paper's program assumes slices partition the data, so one
//! acquired example belongs to exactly one slice. With overlap (e.g.
//! `region = Europe` and `gender = Female` as two slices), an example can
//! belong to several.
//!
//! The generalization: partition the example space into disjoint **atoms**
//! (the nonempty intersection cells, e.g. `Europe ∧ Female`). Acquisition
//! is decided per atom — that is what a data source can actually deliver —
//! and a 0/1 membership matrix `M` maps atom counts to slice increments:
//! acquiring `d_j` examples of atom `j` grows slice `i` by `M[i][j]·d_j`.
//! The objective becomes
//!
//! ```text
//! min  Σ_i b_i (|s_i| + (M·d)_i)^(-a_i)
//!    + λ Σ_i max(0, b_i (|s_i| + (M·d)_i)^(-a_i) / A − 1)
//! s.t. Σ_j C_j · d_j = B,   d ≥ 0
//! ```
//!
//! which is still convex: each term is a convex decreasing function
//! composed with the linear map `d ↦ |s_i| + (M·d)_i`. Overlapping slices
//! couple through shared atoms, so the partition solver's per-slice closed
//! form does not apply; [`solve_overlap`] runs projected subgradient
//! descent instead. The partition case is recovered when `M` is the
//! identity, and tests assert the solver then lands within `5e-3` of the
//! exact [`solve`](crate::solve).

use crate::problem::AcquisitionProblem;
use crate::projection::project_weighted_simplex;
use st_curve::PowerLaw;

/// The overlapping-slices acquisition program.
#[derive(Debug, Clone)]
pub struct OverlapProblem {
    /// Fitted learning curves, one per slice.
    pub curves: Vec<PowerLaw>,
    /// Current slice sizes `|s_i|`.
    pub slice_sizes: Vec<f64>,
    /// Membership matrix: `membership[i][j]` is true when atom `j`'s
    /// examples belong to slice `i`.
    pub membership: Vec<Vec<bool>>,
    /// Per-example acquisition cost of each atom.
    pub atom_costs: Vec<f64>,
    /// Total budget `B`.
    pub budget: f64,
    /// Fairness weight `λ ≥ 0`.
    pub lambda: f64,
}

impl OverlapProblem {
    /// Builds a problem, validating shapes.
    ///
    /// # Panics
    /// Panics on empty inputs, shape mismatches, non-positive costs,
    /// negative sizes/budget/lambda, or an atom belonging to no slice.
    pub fn new(
        curves: Vec<PowerLaw>,
        slice_sizes: Vec<f64>,
        membership: Vec<Vec<bool>>,
        atom_costs: Vec<f64>,
        budget: f64,
        lambda: f64,
    ) -> Self {
        let n = curves.len();
        let m = atom_costs.len();
        assert!(n > 0, "need at least one slice");
        assert!(m > 0, "need at least one atom");
        assert_eq!(slice_sizes.len(), n, "slice_sizes length mismatch");
        assert_eq!(
            membership.len(),
            n,
            "membership rows must equal slice count"
        );
        assert!(
            membership.iter().all(|row| row.len() == m),
            "membership columns must equal atom count"
        );
        for j in 0..m {
            assert!(
                (0..n).any(|i| membership[i][j]),
                "atom {j} belongs to no slice — drop it from the problem"
            );
        }
        assert!(
            slice_sizes.iter().all(|&s| s >= 0.0),
            "sizes must be non-negative"
        );
        assert!(
            atom_costs.iter().all(|&c| c > 0.0),
            "costs must be positive"
        );
        assert!(budget >= 0.0, "budget must be non-negative");
        assert!(lambda >= 0.0, "lambda must be non-negative");
        OverlapProblem {
            curves,
            slice_sizes,
            membership,
            atom_costs,
            budget,
            lambda,
        }
    }

    /// Builds the partition (non-overlapping) special case from a standard
    /// [`AcquisitionProblem`]: one atom per slice, identity membership.
    pub fn from_partition(p: &AcquisitionProblem) -> Self {
        let n = p.n();
        let membership = (0..n).map(|i| (0..n).map(|j| i == j).collect()).collect();
        OverlapProblem::new(
            p.curves.clone(),
            p.sizes.clone(),
            membership,
            p.costs.clone(),
            p.budget,
            p.lambda,
        )
    }

    /// Number of slices.
    pub fn num_slices(&self) -> usize {
        self.curves.len()
    }

    /// Number of atoms.
    pub fn num_atoms(&self) -> usize {
        self.atom_costs.len()
    }

    /// Effective slice sizes after acquiring `d` per atom: `|s_i| + (M·d)_i`.
    pub fn slice_sizes_after(&self, d: &[f64]) -> Vec<f64> {
        assert_eq!(d.len(), self.num_atoms(), "allocation length mismatch");
        self.membership
            .iter()
            .zip(&self.slice_sizes)
            .map(|(row, &s)| {
                s + row
                    .iter()
                    .zip(d)
                    .filter(|(&m, _)| m)
                    .map(|(_, &x)| x)
                    .sum::<f64>()
            })
            .collect()
    }

    /// The constant `A`: average of the current per-slice losses.
    pub fn avg_loss(&self) -> f64 {
        let total: f64 = self
            .curves
            .iter()
            .zip(&self.slice_sizes)
            .map(|(c, &s)| c.eval(s))
            .sum();
        total / self.num_slices() as f64
    }

    /// Objective value at the per-atom allocation `d`.
    pub fn objective(&self, d: &[f64]) -> f64 {
        let a = self.avg_loss();
        let sizes = self.slice_sizes_after(d);
        let mut total = 0.0;
        for (c, &n) in self.curves.iter().zip(&sizes) {
            let l = c.eval(n);
            total += l + self.lambda * (l / a - 1.0).max(0.0);
        }
        total
    }

    /// A subgradient of the objective with respect to the atom counts:
    /// `g_j = Σ_{i : M[i][j]} ∂f_i/∂n_i` (chain rule through `M`).
    pub fn subgradient(&self, d: &[f64]) -> Vec<f64> {
        let a = self.avg_loss();
        let sizes = self.slice_sizes_after(d);
        // Per-slice derivative of loss + active penalty.
        let slice_grads: Vec<f64> = self
            .curves
            .iter()
            .zip(&sizes)
            .map(|(c, &n)| {
                let slope = c.slope(n);
                let active = c.eval(n) > a;
                slope * (1.0 + if active { self.lambda / a } else { 0.0 })
            })
            .collect();
        (0..self.num_atoms())
            .map(|j| {
                (0..self.num_slices())
                    .filter(|&i| self.membership[i][j])
                    .map(|i| slice_grads[i])
                    .sum()
            })
            .collect()
    }

    /// Total cost of a per-atom allocation.
    pub fn total_cost(&self, d: &[f64]) -> f64 {
        self.atom_costs.iter().zip(d).map(|(c, x)| c * x).sum()
    }

    /// Approximate feasibility check (non-negative, on the budget plane).
    pub fn is_feasible(&self, d: &[f64], tol: f64) -> bool {
        d.iter().all(|&x| x >= -tol)
            && (self.total_cost(d) - self.budget).abs() <= tol * self.budget.max(1.0)
    }
}

/// Solves the overlapping-slices program by projected subgradient descent
/// in atom space: a diminishing step normalized by the gradient norm, an
/// exact weighted-simplex projection, and best-iterate tracking. Stops
/// after 4000 steps, or once 50 steps improve the best objective by less
/// than `1e-10` relative.
pub fn solve_overlap(p: &OverlapProblem) -> Vec<f64> {
    let m = p.num_atoms();
    if p.budget <= 0.0 {
        return vec![0.0; m];
    }
    // Feasible start: equal spend per atom.
    let cost_sum: f64 = p.atom_costs.iter().sum();
    let mut d: Vec<f64> = vec![p.budget / cost_sum; m];

    let mut best = d.clone();
    let mut best_obj = p.objective(&d);
    let mut last_check = best_obj;
    let base_step = p.budget / m as f64 * 0.5;

    for t in 0..4000 {
        let g = p.subgradient(&d);
        let gnorm = g.iter().map(|x| x * x).sum::<f64>().sqrt();
        if gnorm < 1e-18 {
            break;
        }
        let step = base_step / ((t + 1) as f64).sqrt() / gnorm;
        let y: Vec<f64> = d.iter().zip(&g).map(|(x, gi)| x - step * gi).collect();
        d = project_weighted_simplex(&y, &p.atom_costs, p.budget);
        let obj = p.objective(&d);
        if obj < best_obj {
            best_obj = obj;
            best.copy_from_slice(&d);
        }
        if t % 50 == 49 {
            if (last_check - best_obj).abs() < 1e-10 * (1.0 + best_obj.abs()) {
                break;
            }
            last_check = best_obj;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two overlapping slices (rows) over three atoms (columns):
    /// slice 0 = atoms {0, 1}, slice 1 = atoms {1, 2}; atom 1 is shared.
    fn overlap2x3(budget: f64, lambda: f64) -> OverlapProblem {
        OverlapProblem::new(
            vec![PowerLaw::new(5.0, 0.5), PowerLaw::new(5.0, 0.5)],
            vec![100.0, 100.0],
            vec![vec![true, true, false], vec![false, true, true]],
            vec![1.0, 1.0, 1.0],
            budget,
            lambda,
        )
    }

    #[test]
    fn solution_is_feasible_in_atom_space() {
        for lambda in [0.0, 1.0, 10.0] {
            let p = overlap2x3(200.0, lambda);
            let d = solve_overlap(&p);
            assert!(p.is_feasible(&d, 1e-6), "λ={lambda}: {d:?}");
        }
    }

    #[test]
    fn shared_atom_dominates_when_it_helps_both_slices() {
        // Atom 1 grows both slices per example bought; with identical
        // curves and costs it strictly dominates the exclusive atoms.
        let p = overlap2x3(200.0, 0.0);
        let d = solve_overlap(&p);
        assert!(
            d[1] > d[0] && d[1] > d[2],
            "shared atom should get the most budget: {d:?}"
        );
        // In fact essentially all of it.
        assert!(d[1] > 190.0, "{d:?}");
    }

    #[test]
    fn expensive_shared_atom_loses_to_cheap_exclusive_atoms() {
        // Same structure, but the shared atom costs 3x: two exclusive
        // examples (cost 2) now grow both slices for less than one shared
        // example (cost 3).
        let p = OverlapProblem::new(
            vec![PowerLaw::new(5.0, 0.5), PowerLaw::new(5.0, 0.5)],
            vec![100.0, 100.0],
            vec![vec![true, true, false], vec![false, true, true]],
            vec![1.0, 3.0, 1.0],
            200.0,
            0.0,
        );
        let d = solve_overlap(&p);
        assert!(
            d[0] + d[2] > d[1],
            "exclusive atoms should carry the budget: {d:?}"
        );
    }

    #[test]
    fn subgradient_matches_finite_differences() {
        let p = overlap2x3(300.0, 1.0);
        let d = vec![40.0, 90.0, 55.0];
        let g = p.subgradient(&d);
        let eps = 1e-5;
        for j in 0..3 {
            let mut dp = d.clone();
            dp[j] += eps;
            let mut dm = d.clone();
            dm[j] -= eps;
            let fd = (p.objective(&dp) - p.objective(&dm)) / (2.0 * eps);
            assert!((g[j] - fd).abs() < 1e-5, "atom {j}: {} vs {fd}", g[j]);
        }
    }

    #[test]
    fn sizes_after_apply_the_membership_map() {
        let p = overlap2x3(0.0, 0.0);
        let sizes = p.slice_sizes_after(&[10.0, 20.0, 30.0]);
        assert_eq!(sizes, vec![100.0 + 30.0, 100.0 + 50.0]);
    }

    #[test]
    fn unfairness_penalty_steers_toward_the_lossy_slice() {
        // Slice 0 has much higher loss; with λ large, its exclusive atom
        // must out-receive slice 1's exclusive atom.
        let p = OverlapProblem::new(
            vec![PowerLaw::new(8.0, 0.3), PowerLaw::new(1.0, 0.3)],
            vec![100.0, 100.0],
            vec![vec![true, true, false], vec![false, true, true]],
            vec![1.0, 1.0, 1.0],
            200.0,
            10.0,
        );
        let d = solve_overlap(&p);
        assert!(
            d[0] > d[2],
            "lossy slice's exclusive atom should win: {d:?}"
        );
    }

    #[test]
    fn zero_budget_returns_zero() {
        let p = overlap2x3(0.0, 1.0);
        assert_eq!(solve_overlap(&p), vec![0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "belongs to no slice")]
    fn orphan_atoms_are_rejected() {
        let _ = OverlapProblem::new(
            vec![PowerLaw::new(1.0, 0.1)],
            vec![10.0],
            vec![vec![true, false]],
            vec![1.0, 1.0],
            10.0,
            0.0,
        );
    }
}
