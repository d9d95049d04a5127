//! Weighted non-linear least squares fitting of power-law curves.
//!
//! The paper fits `y = b·x^(-a)` with a weighted non-linear least squares
//! method (SciPy's in the original). This module reproduces that estimator:
//!
//! 1. **Initialization** — weighted linear regression in log-log space
//!    (`ln y = ln b − a·ln x`), which is the exact NLLS solution under
//!    multiplicative noise and an excellent starting point otherwise.
//! 2. **Refinement** — Levenberg–Marquardt on the original (not log) scale,
//!    minimizing `Σ wᵢ (b·xᵢ^(-a) − yᵢ)²`, so large-`n` points with large
//!    weights dominate exactly as in the paper.

use crate::model::{PowerLaw, PowerLawWithFloor};
use crate::points::CurvePoint;
use st_linalg::{gaussian_solve, Matrix};

/// Why a fit could not be produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FitError {
    /// Fewer than two distinct-x points with positive weight.
    NotEnoughPoints,
    /// All measured losses were non-positive after clamping.
    DegenerateLosses,
    /// A point carried a non-finite or negative subset size, or a non-finite
    /// weight. Unlike a non-finite *loss* (a legitimate outcome of a
    /// degenerate training run, silently filtered), these fields are
    /// caller-constructed and a bad value is a bug upstream.
    NonFinitePoint,
    /// The optimizer diverged. Today this is only produced by the `ST_FAULT`
    /// injection harness (`fit_diverge@p`); it exercises the same fallback
    /// path a genuine divergence would take.
    Diverged,
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::NotEnoughPoints => write!(f, "need >= 2 distinct subset sizes to fit"),
            FitError::DegenerateLosses => write!(f, "all losses non-positive; cannot fit"),
            FitError::NonFinitePoint => {
                write!(f, "curve point has non-finite or negative size/weight")
            }
            FitError::Diverged => write!(f, "power-law fit diverged"),
        }
    }
}

impl std::error::Error for FitError {}

/// Smallest loss considered measurable; values below are clamped before the
/// log transform (near-zero losses happen on saturated easy slices).
const LOSS_FLOOR: f64 = 1e-6;
/// Exponent bounds keeping the optimizer's curvature well behaved. Empirical
/// decay exponents sit in [0.05, 1.0] (Hestness et al.); the bounds leave
/// generous slack.
const A_MIN: f64 = 1e-3;
const A_MAX: f64 = 4.0;
const LM_ITERS: usize = 60;

/// Fits `y = b·x^(-a)` to weighted points.
///
/// Points with non-positive `n` or weight are ignored; losses are clamped to
/// a small positive floor. See the module docs for the algorithm.
pub fn fit_power_law(points: &[CurvePoint]) -> Result<PowerLaw, FitError> {
    let pts = clean(points)?;
    inject_divergence(&pts)?;

    // --- Log-space weighted linear regression initialization. ---
    let (ln_b, a) = log_space_init(&pts)?;

    Ok(lm_refine(&pts, ln_b, a))
}

/// `ST_FAULT=fit_diverge@p` injection point: decides from an
/// order-independent hash of the cleaned points, so the same measurements
/// always diverge (or not) together — across runs, retries, and resumes.
/// A no-op (one relaxed atomic load) when no fault plan is active.
fn inject_divergence(pts: &[CurvePoint]) -> Result<(), FitError> {
    if st_linalg::fault::active() && st_linalg::fault::fit_diverges(points_hash(pts)) {
        return Err(FitError::Diverged);
    }
    Ok(())
}

fn points_hash(pts: &[CurvePoint]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for p in pts {
        let mut x =
            p.n.to_bits() ^ p.loss.to_bits().rotate_left(17) ^ p.weight.to_bits().rotate_left(31);
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        h ^= x; // XOR-fold: insensitive to point order
    }
    h
}

/// [`fit_power_law`] seeded from caller-supplied `(ln b, a)` instead of the
/// batch log-space initialization.
///
/// The incremental estimation path keeps a [`LogLogAccumulator`] per slice
/// and seeds the LM refinement from it, so appending a round's new points
/// costs O(new) instead of a full re-initialization. The seed only moves the
/// optimizer's starting point: with the same points, results agree with
/// [`fit_power_law`] to refinement tolerance, not bit-for-bit.
pub fn fit_power_law_seeded(
    points: &[CurvePoint],
    ln_b: f64,
    a: f64,
) -> Result<PowerLaw, FitError> {
    let pts = clean(points)?;
    inject_divergence(&pts)?;
    Ok(lm_refine(&pts, ln_b, a.clamp(A_MIN, A_MAX)))
}

/// The batch log-space initialization on cleaned points, exposed so the
/// incremental accumulator can be pinned against it: returns the `(ln b, a)`
/// seed [`fit_power_law`] starts its refinement from.
pub fn log_space_seed(points: &[CurvePoint]) -> Result<(f64, f64), FitError> {
    let pts = clean(points)?;
    log_space_init(&pts)
}

fn lm_refine(pts: &[CurvePoint], mut ln_b: f64, mut a: f64) -> PowerLaw {
    // --- Levenberg–Marquardt refinement in (ln b, a). ---
    // Residuals r_i = b x^{-a} - y, parameters p = (ln b, a):
    //   dr/d(ln b) = b x^{-a};  dr/da = -b ln(x) x^{-a}.
    let mut mu = 1e-3;
    let mut cost = nlls_cost(pts, ln_b, a);
    for _ in 0..LM_ITERS {
        let b = ln_b.exp();
        // Normal equations JᵀWJ δ = -JᵀWr.
        let mut jtj = [[0.0_f64; 2]; 2];
        let mut jtr = [0.0_f64; 2];
        for p in pts {
            let xa = p.n.powf(-a);
            let pred = b * xa;
            let r = pred - p.loss;
            let j0 = pred; // ∂r/∂ln b
            let j1 = -pred * p.n.ln(); // ∂r/∂a
            jtj[0][0] += p.weight * j0 * j0;
            jtj[0][1] += p.weight * j0 * j1;
            jtj[1][1] += p.weight * j1 * j1;
            jtr[0] += p.weight * j0 * r;
            jtr[1] += p.weight * j1 * r;
        }
        jtj[1][0] = jtj[0][1];

        let damped = Matrix::from_vec(
            2,
            2,
            vec![
                jtj[0][0] * (1.0 + mu),
                jtj[0][1],
                jtj[1][0],
                jtj[1][1] * (1.0 + mu),
            ],
        );
        let Ok(delta) = gaussian_solve(damped, &[-jtr[0], -jtr[1]]) else {
            break; // singular: the init is already as good as we can do
        };
        let cand_ln_b = ln_b + delta[0];
        let cand_a = (a + delta[1]).clamp(A_MIN, A_MAX);
        let cand_cost = nlls_cost(pts, cand_ln_b, cand_a);
        if cand_cost < cost {
            ln_b = cand_ln_b;
            a = cand_a;
            let improved = cost - cand_cost;
            cost = cand_cost;
            mu = (mu * 0.5).max(1e-12);
            if improved < 1e-14 * (1.0 + cost) {
                break;
            }
        } else {
            mu *= 4.0;
            if mu > 1e8 {
                break;
            }
        }
    }
    PowerLaw::new(ln_b.exp(), a.clamp(A_MIN, A_MAX))
}

/// Fits `y = b·x^(-a) + c` with `c ≥ 0` by scanning a floor grid.
///
/// For each candidate floor `c`, the residual losses `y − c` are fitted with
/// [`fit_power_law`]; the floor minimizing weighted squared error wins. The
/// grid runs from 0 to just below the smallest observed loss, which is where
/// any feasible floor must lie.
pub fn fit_power_law_with_floor(points: &[CurvePoint]) -> Result<PowerLawWithFloor, FitError> {
    let pts = clean(points)?;
    let min_loss = pts.iter().map(|p| p.loss).fold(f64::INFINITY, f64::min);
    let max_loss = pts.iter().map(|p| p.loss).fold(f64::NEG_INFINITY, f64::max);
    // Degenerate grid: when every cleaned loss is (numerically) the same, or
    // the smallest sits at the clamp floor, every candidate floor shifts a
    // constant vector and the scan cannot rank them — the pre-fix code then
    // "won" with the largest floor and an exponent clamped at A_MIN. Fall
    // back to the plain c = 0 fit instead.
    if max_loss - min_loss <= LOSS_FLOOR || min_loss <= LOSS_FLOOR {
        let pl = fit_power_law(points)?;
        return Ok(PowerLawWithFloor::new(pl.b, pl.a, 0.0));
    }
    let mut best: Option<(f64, PowerLawWithFloor)> = None;
    const GRID: usize = 24;
    for g in 0..GRID {
        let c = min_loss * (g as f64 / GRID as f64) * 0.999;
        let shifted: Vec<CurvePoint> = pts
            .iter()
            .map(|p| CurvePoint::weighted(p.n, (p.loss - c).max(LOSS_FLOOR), p.weight))
            .collect();
        let Ok(pl) = fit_power_law(&shifted) else {
            continue;
        };
        let cand = PowerLawWithFloor::new(pl.b, pl.a, c);
        let cost: f64 = pts
            .iter()
            .map(|p| {
                let r = cand.eval(p.n) - p.loss;
                p.weight * r * r
            })
            .sum();
        if best.as_ref().is_none_or(|(bc, _)| cost < *bc) {
            best = Some((cost, cand));
        }
    }
    match best {
        Some((_, c)) => Ok(c),
        // Every shifted candidate failed to fit: same fallback as the
        // degenerate grid above.
        None => {
            let pl = fit_power_law(points)?;
            Ok(PowerLawWithFloor::new(pl.b, pl.a, 0.0))
        }
    }
}

fn clean(points: &[CurvePoint]) -> Result<Vec<CurvePoint>, FitError> {
    // Sizes and weights are caller-constructed; a non-finite or negative
    // value is rejected up front rather than silently filtered like the
    // measurement-derived loss field.
    if points
        .iter()
        .any(|p| !p.n.is_finite() || !p.weight.is_finite() || p.n < 0.0)
    {
        return Err(FitError::NonFinitePoint);
    }
    let pts: Vec<CurvePoint> = points
        .iter()
        .filter(|p| p.n >= 1.0 && p.weight > 0.0 && p.loss.is_finite())
        .map(|p| CurvePoint::weighted(p.n, p.loss.max(LOSS_FLOOR), p.weight))
        .collect();
    let mut xs: Vec<u64> = pts.iter().map(|p| p.n.to_bits()).collect();
    xs.sort_unstable();
    xs.dedup();
    if xs.len() < 2 {
        return Err(FitError::NotEnoughPoints);
    }
    if pts.iter().all(|p| p.loss <= LOSS_FLOOR) {
        return Err(FitError::DegenerateLosses);
    }
    Ok(pts)
}

fn log_space_init(pts: &[CurvePoint]) -> Result<(f64, f64), FitError> {
    // Weighted simple regression of ln y on ln x.
    let wsum: f64 = pts.iter().map(|p| p.weight).sum();
    let mx = pts.iter().map(|p| p.weight * p.n.ln()).sum::<f64>() / wsum;
    let my = pts.iter().map(|p| p.weight * p.loss.ln()).sum::<f64>() / wsum;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    for p in pts {
        let dx = p.n.ln() - mx;
        let dy = p.loss.ln() - my;
        sxx += p.weight * dx * dx;
        sxy += p.weight * dx * dy;
    }
    if sxx <= 0.0 {
        return Err(FitError::NotEnoughPoints);
    }
    let slope = sxy / sxx; // = -a
    let a = (-slope).clamp(A_MIN, A_MAX);
    let ln_b = my + a * mx;
    Ok((ln_b, a))
}

/// Streaming weighted log-log regression accumulator.
///
/// The incremental counterpart of the batch initialization inside
/// [`fit_power_law`]: a weighted Welford recurrence over `(ln n, ln loss)`
/// (the idiom of `st_linalg::running::RunningStats`) that absorbs
/// [`CurvePoint`]s one at a time and yields the same `(ln b, a)` seed — to
/// floating-point tolerance — that [`log_space_seed`] computes from the full
/// batch. Each acquisition round pushes only its new measurements instead of
/// re-folding every point since round one.
///
/// Points are admitted under the same rules [`fit_power_law`]'s cleaning
/// pass applies: `n ≥ 1`, positive weight, finite loss, losses clamped to
/// the measurement floor.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LogLogAccumulator {
    w: f64,
    mx: f64,
    my: f64,
    sxx: f64,
    sxy: f64,
    /// Distinct subset sizes seen (bit patterns); the fit needs ≥ 2.
    seen_n: Vec<u64>,
    any_above_floor: bool,
    count: usize,
}

impl LogLogAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one point in. Returns `false` (and changes nothing) for points
    /// the batch cleaning pass would discard.
    pub fn push(&mut self, p: &CurvePoint) -> bool {
        // NaN in any field fails the comparisons and is rejected too.
        let usable = p.n >= 1.0 && p.weight > 0.0 && p.loss.is_finite();
        if !usable {
            return false;
        }
        let loss = p.loss.max(LOSS_FLOOR);
        if loss > LOSS_FLOOR {
            self.any_above_floor = true;
        }
        let x = p.n.ln();
        let y = loss.ln();
        self.w += p.weight;
        let dx = x - self.mx;
        let dy = y - self.my;
        let r = p.weight / self.w;
        self.mx += r * dx;
        self.my += r * dy;
        self.sxx += p.weight * dx * (x - self.mx);
        self.sxy += p.weight * dx * (y - self.my);
        if !self.seen_n.contains(&p.n.to_bits()) {
            self.seen_n.push(p.n.to_bits());
        }
        self.count += 1;
        true
    }

    /// Folds every point of `pts` in.
    pub fn extend(&mut self, pts: &[CurvePoint]) {
        for p in pts {
            self.push(p);
        }
    }

    /// Merges another accumulator, as if all of its points had been pushed
    /// here (parallel aggregation).
    pub fn merge(&mut self, other: &LogLogAccumulator) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let w1 = self.w;
        let w2 = other.w;
        let total = w1 + w2;
        let dx = other.mx - self.mx;
        let dy = other.my - self.my;
        self.sxx += other.sxx + dx * dx * w1 * w2 / total;
        self.sxy += other.sxy + dx * dy * w1 * w2 / total;
        self.mx += dx * w2 / total;
        self.my += dy * w2 / total;
        self.w = total;
        for &bits in &other.seen_n {
            if !self.seen_n.contains(&bits) {
                self.seen_n.push(bits);
            }
        }
        self.any_above_floor |= other.any_above_floor;
        self.count += other.count;
    }

    /// Number of admitted points.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The `(ln b, a)` seed of the accumulated regression, under the same
    /// error conditions as the batch initialization: fewer than two distinct
    /// subset sizes (or no spread in `ln n`) is [`FitError::NotEnoughPoints`],
    /// all losses at the floor is [`FitError::DegenerateLosses`].
    pub fn seed(&self) -> Result<(f64, f64), FitError> {
        if self.seen_n.len() < 2 {
            return Err(FitError::NotEnoughPoints);
        }
        if !self.any_above_floor {
            return Err(FitError::DegenerateLosses);
        }
        if self.sxx <= 0.0 {
            return Err(FitError::NotEnoughPoints);
        }
        let slope = self.sxy / self.sxx;
        let a = (-slope).clamp(A_MIN, A_MAX);
        let ln_b = self.my + a * self.mx;
        Ok((ln_b, a))
    }
}

/// One-sided CUSUM over log-scale learning-curve residuals, the drift
/// detector's accumulator (the change-detection counterpart of
/// [`LogLogAccumulator`]).
///
/// A stationary slice's measured losses scatter around its fitted curve, so
/// the log residual `ln(measured) − ln(predicted)` is near zero and the
/// cumulative sum — debited a per-observation `slack` and floored at zero —
/// hovers near zero. When the slice's distribution shifts, measured losses
/// sit persistently *above* the stale curve and the sum climbs until it
/// crosses the caller's threshold. One-sided by design: losses falling
/// below the curve (the slice got easier) never trigger — a tuner that
/// over-serves an easy slice wastes budget but does not mis-allocate on
/// stale evidence.
///
/// State is three floats and a count, snapshot/restored bit-exactly for the
/// checkpoint layer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResidualCusum {
    cum: f64,
    last: f64,
    count: usize,
}

impl ResidualCusum {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds in one residual between a curve's prediction and a fresh
    /// measurement at the same subset size, debiting `slack` (the tolerated
    /// per-round residual — measurement noise that must not accumulate).
    /// Returns the updated score. Non-finite inputs are ignored: a poisoned
    /// measurement is the fault layer's problem, not a drift signal.
    pub fn observe(&mut self, predicted: f64, measured: f64, slack: f64) -> f64 {
        if !predicted.is_finite() || !measured.is_finite() || !slack.is_finite() {
            return self.cum;
        }
        let res = measured.max(LOSS_FLOOR).ln() - predicted.max(LOSS_FLOOR).ln();
        self.last = res;
        self.cum = (self.cum + res - slack).max(0.0);
        self.count += 1;
        self.cum
    }

    /// The current cumulative drift score (≥ 0).
    pub fn score(&self) -> f64 {
        self.cum
    }

    /// The most recent raw log residual.
    pub fn last_residual(&self) -> f64 {
        self.last
    }

    /// Number of residuals observed since the last reset.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Clears the accumulator (after a recovery re-measurement the slice's
    /// curve is fresh again, so accumulated evidence no longer applies).
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Bit-exact state for the checkpoint layer: `(cum, last, count)` with
    /// the floats as raw bit patterns.
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (self.cum.to_bits(), self.last.to_bits(), self.count as u64)
    }

    /// Rebuilds an accumulator from [`snapshot`](Self::snapshot) output.
    pub fn restore((cum, last, count): (u64, u64, u64)) -> Self {
        ResidualCusum {
            cum: f64::from_bits(cum),
            last: f64::from_bits(last),
            count: count as usize,
        }
    }
}

/// An updatable power-law fit: absorb [`CurvePoint`]s as they are measured,
/// then [`fit`](Self::fit) seeds the LM refinement from the running
/// [`LogLogAccumulator`] instead of re-initializing from the full batch.
///
/// With the same points, the result agrees with [`fit_power_law`] to
/// refinement tolerance (the seed differs by streaming round-off only); it
/// is what the incremental estimation path uses, while from-scratch
/// estimations keep the bit-exact batch path.
#[derive(Debug, Clone, Default)]
pub struct IncrementalFit {
    acc: LogLogAccumulator,
    points: Vec<CurvePoint>,
}

impl IncrementalFit {
    /// An empty fit.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs one measurement. Returns `false` for points the cleaning
    /// rules discard (those are not retained either).
    pub fn absorb(&mut self, p: CurvePoint) -> bool {
        let admitted = self.acc.push(&p);
        if admitted {
            self.points.push(p);
        }
        admitted
    }

    /// Absorbs every point of `pts`.
    pub fn absorb_all(&mut self, pts: &[CurvePoint]) {
        for &p in pts {
            self.absorb(p);
        }
    }

    /// The retained (admitted) points.
    pub fn points(&self) -> &[CurvePoint] {
        &self.points
    }

    /// Number of retained points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if nothing has been absorbed.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Fits `y = b·x^(-a)` to everything absorbed so far, seeding the LM
    /// refinement from the running accumulator.
    pub fn fit(&self) -> Result<PowerLaw, FitError> {
        let (ln_b, a) = self.acc.seed()?;
        fit_power_law_seeded(&self.points, ln_b, a)
    }
}

fn nlls_cost(pts: &[CurvePoint], ln_b: f64, a: f64) -> f64 {
    let b = ln_b.exp();
    pts.iter()
        .map(|p| {
            let r = b * p.n.powf(-a) - p.loss;
            p.weight * r * r
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_curve(b: f64, a: f64, xs: &[f64]) -> Vec<CurvePoint> {
        xs.iter()
            .map(|&x| CurvePoint::size_weighted(x, b * x.powf(-a)))
            .collect()
    }

    #[test]
    fn recovers_exact_power_law() {
        let pts = sample_curve(2.9, 0.21, &[10., 30., 60., 100., 200., 300.]);
        let fit = fit_power_law(&pts).unwrap();
        assert!((fit.b - 2.9).abs() < 1e-6, "b {}", fit.b);
        assert!((fit.a - 0.21).abs() < 1e-6, "a {}", fit.a);
    }

    #[test]
    fn recovers_under_multiplicative_noise() {
        // Deterministic pseudo-noise; the fit should land close.
        let xs = [20., 40., 80., 120., 180., 240., 300.];
        let pts: Vec<CurvePoint> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let noise = 1.0 + 0.05 * ((i as f64 * 2.3).sin());
                CurvePoint::size_weighted(x, 1.875 * x.powf(-0.446) * noise)
            })
            .collect();
        let fit = fit_power_law(&pts).unwrap();
        assert!((fit.b - 1.875).abs() < 0.3, "b {}", fit.b);
        assert!((fit.a - 0.446).abs() < 0.06, "a {}", fit.a);
    }

    #[test]
    fn weights_prioritize_large_subsets() {
        // Corrupt the smallest-x point heavily; size weighting must keep the
        // fit anchored to the big subsets.
        let mut pts = sample_curve(2.0, 0.3, &[10., 50., 100., 200., 400.]);
        pts[0].loss *= 3.0;
        let weighted_fit = fit_power_law(&pts).unwrap();
        let equal: Vec<CurvePoint> = pts
            .iter()
            .map(|p| CurvePoint::weighted(p.n, p.loss, 1.0))
            .collect();
        let equal_fit = fit_power_law(&equal).unwrap();
        // Size weighting must anchor the prediction at the big subsets: the
        // weighted fit is strictly closer to the uncorrupted truth at n=400.
        let truth = 2.0 * 400.0_f64.powf(-0.3);
        assert!(
            (weighted_fit.eval(400.0) - truth).abs() < (equal_fit.eval(400.0) - truth).abs(),
            "weighted {} equal {} truth {truth}",
            weighted_fit.eval(400.0),
            equal_fit.eval(400.0)
        );
        // The raw-scale NLLS optimum still tilts toward a 3x outlier with
        // only five points; the bound documents how far it can drift.
        assert!((weighted_fit.eval(400.0) - truth).abs() < 0.15);
    }

    #[test]
    fn rejects_single_size() {
        let pts = vec![CurvePoint::size_weighted(50.0, 1.0); 3];
        assert_eq!(fit_power_law(&pts), Err(FitError::NotEnoughPoints));
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(fit_power_law(&[]), Err(FitError::NotEnoughPoints));
    }

    #[test]
    fn ignores_zero_weight_and_bad_points() {
        let mut pts = sample_curve(2.0, 0.25, &[10., 100., 300.]);
        pts.push(CurvePoint::weighted(50.0, 99.0, 0.0)); // zero weight
        pts.push(CurvePoint::weighted(0.0, 1.0, 5.0)); // n < 1
        pts.push(CurvePoint::weighted(60.0, f64::NAN, 1.0)); // NaN loss
        let fit = fit_power_law(&pts).unwrap();
        assert!((fit.a - 0.25).abs() < 1e-6);
    }

    #[test]
    fn rejects_non_finite_sizes_and_weights_up_front() {
        for bad in [
            CurvePoint::weighted(f64::NAN, 1.0, 1.0),
            CurvePoint::weighted(f64::INFINITY, 1.0, 1.0),
            CurvePoint::weighted(-5.0, 1.0, 1.0),
            CurvePoint::weighted(50.0, 1.0, f64::NAN),
        ] {
            let mut pts = sample_curve(2.0, 0.25, &[10., 100., 300.]);
            pts.push(bad);
            assert_eq!(fit_power_law(&pts), Err(FitError::NonFinitePoint));
            assert_eq!(
                fit_power_law_with_floor(&pts),
                Err(FitError::NonFinitePoint)
            );
        }
    }

    #[test]
    fn clamps_tiny_losses_instead_of_failing() {
        let pts = vec![
            CurvePoint::size_weighted(10.0, 0.5),
            CurvePoint::size_weighted(100.0, 0.0), // clamped to floor
            CurvePoint::size_weighted(300.0, 0.0),
        ];
        let fit = fit_power_law(&pts).unwrap();
        assert!(fit.a > 0.0);
    }

    #[test]
    fn increasing_losses_degrade_to_minimal_exponent() {
        // A slice whose loss grows with data (pathological); the exponent is
        // clamped at A_MIN rather than going negative.
        let pts = vec![
            CurvePoint::size_weighted(10.0, 0.2),
            CurvePoint::size_weighted(100.0, 0.4),
            CurvePoint::size_weighted(300.0, 0.6),
        ];
        let fit = fit_power_law(&pts).unwrap();
        assert!(fit.a <= 2e-3, "a {}", fit.a);
    }

    #[test]
    fn floor_fit_recovers_floor() {
        let xs = [10., 30., 80., 150., 300., 600., 1200.];
        let pts: Vec<CurvePoint> = xs
            .iter()
            .map(|&x| CurvePoint::size_weighted(x, 2.0 * x.powf(-0.5) + 0.3))
            .collect();
        let fit = fit_power_law_with_floor(&pts).unwrap();
        assert!((fit.c - 0.3).abs() < 0.05, "c {}", fit.c);
        assert!((fit.a - 0.5).abs() < 0.12, "a {}", fit.a);
    }

    #[test]
    fn floor_fit_constant_losses_fall_back_to_zero_floor() {
        // Pre-fix, the degenerate grid (every candidate shifts a constant
        // vector) "won" with the largest floor c ≈ min_loss·23/24, leaving a
        // near-zero amplitude on the shifted fit. The fallback must return
        // the plain fit with c = 0 instead.
        let pts: Vec<CurvePoint> = [10.0, 50.0, 200.0, 800.0]
            .iter()
            .map(|&n| CurvePoint::size_weighted(n, 0.4))
            .collect();
        let fit = fit_power_law_with_floor(&pts).unwrap();
        assert_eq!(fit.c, 0.0, "c {}", fit.c);
        let plain = fit_power_law(&pts).unwrap();
        assert_eq!(fit.b.to_bits(), plain.b.to_bits());
        assert_eq!(fit.a.to_bits(), plain.a.to_bits());
    }

    #[test]
    fn floor_fit_losses_at_clamp_floor_fall_back() {
        // One loss sits at the clamp floor, so the grid range collapses to
        // [0, ~1e-6); the fallback takes over.
        let pts = vec![
            CurvePoint::size_weighted(10.0, 0.5),
            CurvePoint::size_weighted(100.0, 0.0), // clamped to the floor
            CurvePoint::size_weighted(300.0, 0.0),
        ];
        let fit = fit_power_law_with_floor(&pts).unwrap();
        assert_eq!(fit.c, 0.0);
        assert!(fit.a > 0.0);
    }

    #[test]
    fn floor_fit_degenerate_errors_still_propagate() {
        // All losses at/below the floor is DegenerateLosses, same as the
        // plain fit.
        let pts = vec![
            CurvePoint::size_weighted(10.0, 0.0),
            CurvePoint::size_weighted(100.0, 0.0),
        ];
        assert_eq!(
            fit_power_law_with_floor(&pts),
            Err(FitError::DegenerateLosses)
        );
    }

    #[test]
    fn floor_fit_beats_plain_fit_when_floor_exists() {
        let xs = [10., 30., 80., 150., 300., 600., 1200.];
        let pts: Vec<CurvePoint> = xs
            .iter()
            .map(|&x| CurvePoint::size_weighted(x, 2.0 * x.powf(-0.5) + 0.3))
            .collect();
        let plain = fit_power_law(&pts).unwrap();
        let floored = fit_power_law_with_floor(&pts).unwrap();
        let sse = |f: &dyn Fn(f64) -> f64| -> f64 {
            pts.iter()
                .map(|p| (f(p.n) - p.loss).powi(2) * p.weight)
                .sum()
        };
        assert!(sse(&|n| floored.eval(n)) < sse(&|n| plain.eval(n)));
    }

    #[test]
    fn accumulator_seed_matches_batch_init() {
        let xs = [20., 40., 80., 120., 180., 240., 300.];
        let pts: Vec<CurvePoint> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let noise = 1.0 + 0.05 * ((i as f64 * 2.3).sin());
                CurvePoint::size_weighted(x, 1.875 * x.powf(-0.446) * noise)
            })
            .collect();
        let (ln_b, a) = log_space_seed(&pts).unwrap();
        let mut acc = LogLogAccumulator::new();
        for p in &pts {
            assert!(acc.push(p));
        }
        let (inc_ln_b, inc_a) = acc.seed().unwrap();
        assert!((inc_ln_b - ln_b).abs() < 1e-12, "{inc_ln_b} vs {ln_b}");
        assert!((inc_a - a).abs() < 1e-12, "{inc_a} vs {a}");
    }

    #[test]
    fn accumulator_rejects_what_clean_rejects() {
        let mut acc = LogLogAccumulator::new();
        assert!(!acc.push(&CurvePoint::weighted(0.5, 1.0, 1.0))); // n < 1
        assert!(!acc.push(&CurvePoint::weighted(10.0, 1.0, 0.0))); // zero weight
        assert!(!acc.push(&CurvePoint::weighted(10.0, f64::NAN, 1.0))); // NaN
        assert_eq!(acc.count(), 0);
        assert_eq!(acc.seed(), Err(FitError::NotEnoughPoints));
    }

    #[test]
    fn accumulator_error_conditions_match_batch() {
        // Single distinct size → NotEnoughPoints.
        let mut acc = LogLogAccumulator::new();
        acc.push(&CurvePoint::size_weighted(50.0, 1.0));
        acc.push(&CurvePoint::size_weighted(50.0, 0.9));
        assert_eq!(acc.seed(), Err(FitError::NotEnoughPoints));
        // All losses at the floor → DegenerateLosses, like clean().
        let mut acc = LogLogAccumulator::new();
        acc.push(&CurvePoint::size_weighted(10.0, 0.0));
        acc.push(&CurvePoint::size_weighted(100.0, 0.0));
        assert_eq!(acc.seed(), Err(FitError::DegenerateLosses));
    }

    #[test]
    fn accumulator_merge_equals_sequential() {
        let first = sample_curve(2.0, 0.3, &[10., 50., 100.]);
        let second = sample_curve(2.0, 0.3, &[200., 400.]);
        let mut all = LogLogAccumulator::new();
        all.extend(&first);
        all.extend(&second);
        let mut a = LogLogAccumulator::new();
        a.extend(&first);
        let mut b = LogLogAccumulator::new();
        b.extend(&second);
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        let (s1, s2) = (a.seed().unwrap(), all.seed().unwrap());
        assert!((s1.0 - s2.0).abs() < 1e-12);
        assert!((s1.1 - s2.1).abs() < 1e-12);

        let mut empty = LogLogAccumulator::new();
        empty.merge(&all);
        assert_eq!(empty.seed().unwrap(), all.seed().unwrap());
    }

    #[test]
    fn incremental_fit_matches_batch_fit_to_tolerance() {
        let xs = [20., 40., 80., 120., 180., 240., 300.];
        let pts: Vec<CurvePoint> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let noise = 1.0 + 0.04 * ((i as f64 * 1.7).cos());
                CurvePoint::size_weighted(x, 2.4 * x.powf(-0.31) * noise)
            })
            .collect();
        let batch = fit_power_law(&pts).unwrap();
        let mut inc = IncrementalFit::new();
        // Absorb one at a time, as successive rounds would.
        for &p in &pts {
            inc.absorb(p);
        }
        assert_eq!(inc.len(), pts.len());
        let fit = inc.fit().unwrap();
        // The seed differs from the batch init by streaming round-off, so
        // the refined optimum agrees to LM convergence tolerance, not bits.
        assert!(
            (fit.b - batch.b).abs() < 1e-6 * batch.b,
            "{} {}",
            fit.b,
            batch.b
        );
        assert!((fit.a - batch.a).abs() < 1e-6, "{} {}", fit.a, batch.a);
    }

    #[test]
    fn incremental_fit_drops_rejected_points() {
        let mut inc = IncrementalFit::new();
        assert!(!inc.absorb(CurvePoint::weighted(0.0, 1.0, 1.0)));
        assert!(inc.is_empty());
        inc.absorb_all(&sample_curve(2.9, 0.21, &[10., 60., 200.]));
        let fit = inc.fit().unwrap();
        assert!((fit.a - 0.21).abs() < 1e-6);
    }

    #[test]
    fn seeded_fit_converges_from_offset_seed() {
        let pts = sample_curve(2.9, 0.21, &[10., 30., 60., 100., 200., 300.]);
        let (ln_b, a) = log_space_seed(&pts).unwrap();
        let fit = fit_power_law_seeded(&pts, ln_b + 0.05, a * 1.1).unwrap();
        assert!((fit.b - 2.9).abs() < 1e-6, "b {}", fit.b);
        assert!((fit.a - 0.21).abs() < 1e-6, "a {}", fit.a);
    }

    #[test]
    fn cusum_stays_cold_on_curve_and_climbs_off_it() {
        let mut on = ResidualCusum::new();
        for _ in 0..10 {
            // ±5% scatter around the prediction, inside the slack.
            on.observe(1.0, 1.05, 0.1);
            on.observe(1.0, 0.95, 0.1);
        }
        assert!(
            on.score() < 1e-9,
            "stationary residuals stay cold: {}",
            on.score()
        );

        let mut off = ResidualCusum::new();
        for _ in 0..4 {
            off.observe(1.0, 2.0, 0.1); // measured 2× the stale prediction
        }
        assert!(
            off.score() > 4.0 * (2.0f64.ln() - 0.1) - 1e-9,
            "persistent excess accumulates: {}",
            off.score()
        );
        assert_eq!(off.count(), 4);
    }

    #[test]
    fn cusum_is_one_sided_and_resettable() {
        let mut c = ResidualCusum::new();
        for _ in 0..20 {
            c.observe(1.0, 0.2, 0.0); // slice got easier
        }
        assert_eq!(c.score(), 0.0, "improvement never triggers");
        c.observe(1.0, 3.0, 0.0);
        assert!(c.score() > 1.0);
        c.reset();
        assert_eq!(c.score(), 0.0);
        assert_eq!(c.count(), 0);
    }

    #[test]
    fn cusum_ignores_poisoned_measurements() {
        let mut c = ResidualCusum::new();
        c.observe(1.0, f64::NAN, 0.1);
        c.observe(f64::INFINITY, 2.0, 0.1);
        assert_eq!(c.count(), 0);
        assert_eq!(c.score(), 0.0);
    }

    #[test]
    fn cusum_snapshot_round_trips_bit_exactly() {
        let mut c = ResidualCusum::new();
        c.observe(0.731, 1.214, 0.05);
        c.observe(0.693, 1.512, 0.05);
        let restored = ResidualCusum::restore(c.snapshot());
        assert_eq!(restored, c);
        assert_eq!(restored.score().to_bits(), c.score().to_bits());
        assert_eq!(
            restored.last_residual().to_bits(),
            c.last_residual().to_bits()
        );
    }
}
