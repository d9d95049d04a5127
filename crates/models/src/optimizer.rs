//! Parameter-update rules and learning-rate schedules.
//!
//! The paper fixes hyperparameters per dataset and never tunes them while
//! Slice Tuner runs; this module makes the update rule itself a fixed,
//! replayable part of the configuration. All rules operate on flat parameter
//! slices so dense layers, biases, and convolution kernels share one code
//! path.
//!
//! Every rule is one elementwise pass compiled once per vector width, and
//! [`OptimizerState::update`] runs it at the widest the CPU offers
//! (`st_linalg::SimdWidth::run`); each parameter's arithmetic is the same
//! at every width, so the bits are too.

use st_linalg::SimdWidth;

/// Learning-rate schedule, evaluated per epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LrSchedule {
    /// Constant learning rate.
    Constant,
    /// `lr · gamma^epoch` (the paper-era Keras default style).
    Exponential {
        /// Per-epoch decay factor in `(0, 1]`.
        gamma: f64,
    },
    /// Drop by `gamma` every `every` epochs.
    Step {
        /// Epochs between drops (≥ 1).
        every: usize,
        /// Multiplicative drop factor in `(0, 1]`.
        gamma: f64,
    },
    /// Cosine annealing from `lr` down to `lr · min_frac` over `total` epochs.
    Cosine {
        /// Total epochs of the anneal (≥ 1); epochs beyond stay at the floor.
        total: usize,
        /// Final learning rate as a fraction of the base rate.
        min_frac: f64,
    },
}

impl LrSchedule {
    /// Learning rate for `epoch` (0-based) given the base rate.
    pub fn lr_at(&self, base: f64, epoch: usize) -> f64 {
        match *self {
            LrSchedule::Constant => base,
            LrSchedule::Exponential { gamma } => base * gamma.powi(epoch as i32),
            LrSchedule::Step { every, gamma } => base * gamma.powi((epoch / every.max(1)) as i32),
            LrSchedule::Cosine { total, min_frac } => {
                let total = total.max(1);
                let t = (epoch.min(total) as f64) / total as f64;
                let floor = base * min_frac;
                floor + 0.5 * (base - floor) * (1.0 + (std::f64::consts::PI * t).cos())
            }
        }
    }
}

/// The update rule applied to every parameter tensor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptimizerKind {
    /// Plain stochastic gradient descent.
    Sgd,
    /// Classical (heavy-ball) momentum.
    Momentum {
        /// Momentum coefficient in `[0, 1)`.
        beta: f64,
    },
    /// Adam (Kingma & Ba) with bias correction.
    Adam {
        /// First-moment decay, typically 0.9.
        beta1: f64,
        /// Second-moment decay, typically 0.999.
        beta2: f64,
        /// Denominator fuzz, typically 1e-8.
        eps: f64,
    },
    /// AdaGrad: per-coordinate rates from accumulated squared gradients.
    AdaGrad {
        /// Denominator fuzz.
        eps: f64,
    },
}

impl OptimizerKind {
    /// The paper-default rule: momentum 0.9.
    pub fn default_momentum() -> Self {
        OptimizerKind::Momentum { beta: 0.9 }
    }

    /// Standard Adam constants.
    pub fn default_adam() -> Self {
        OptimizerKind::Adam {
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }
}

/// Per-tensor optimizer slot: the moment buffers for one parameter tensor.
#[derive(Debug, Clone)]
struct Slot {
    /// Momentum velocity / Adam first moment.
    m: Vec<f64>,
    /// Adam second moment / AdaGrad accumulator (empty for SGD/momentum).
    v: Vec<f64>,
}

/// Mutable optimizer state across all tensors of a network.
///
/// Create one per training run with [`OptimizerState::new`], then call
/// [`update`](OptimizerState::update) once per tensor per step, always in
/// the same slot order.
#[derive(Debug, Clone)]
pub struct OptimizerState {
    kind: OptimizerKind,
    slots: Vec<Slot>,
    /// Global step counter (for Adam bias correction), advanced by
    /// [`next_step`](OptimizerState::next_step).
    t: u64,
}

impl OptimizerState {
    /// Allocates state for tensors of the given lengths.
    pub fn new(kind: OptimizerKind, tensor_lens: &[usize]) -> Self {
        let needs_v = matches!(
            kind,
            OptimizerKind::Adam { .. } | OptimizerKind::AdaGrad { .. }
        );
        let slots = tensor_lens
            .iter()
            .map(|&len| Slot {
                m: vec![0.0; len],
                v: if needs_v { vec![0.0; len] } else { Vec::new() },
            })
            .collect();
        OptimizerState { kind, slots, t: 0 }
    }

    /// The update rule in effect.
    pub fn kind(&self) -> OptimizerKind {
        self.kind
    }

    /// Advances the global step counter; call once per optimization step
    /// (before the per-tensor updates of that step).
    pub fn next_step(&mut self) {
        self.t += 1;
    }

    /// Applies one update to tensor `slot`: `params ← params − lr · step`,
    /// where the step direction depends on the rule. `l2` adds classical
    /// weight decay (`grad + l2 · param`). Runs at the host's vector width.
    ///
    /// # Panics
    /// Panics when lengths disagree with the slot allocation.
    pub fn update(&mut self, slot: usize, params: &mut [f64], grads: &[f64], lr: f64, l2: f64) {
        self.update_at(SimdWidth::detected(), slot, params, grads, lr, l2);
    }

    /// [`update`](Self::update) compiled for `width` (capped at the
    /// host's).
    fn update_at(
        &mut self,
        width: SimdWidth,
        slot: usize,
        params: &mut [f64],
        grads: &[f64],
        lr: f64,
        l2: f64,
    ) {
        let t = self.t;
        let Slot { m, v } = &mut self.slots[slot];
        assert_eq!(params.len(), m.len(), "slot {slot} length mismatch");
        assert_eq!(params.len(), grads.len(), "grad length mismatch");
        let kind = self.kind;
        width.run(
            #[inline(always)]
            || match kind {
                OptimizerKind::Sgd => {
                    for (p, &g) in params.iter_mut().zip(grads) {
                        *p -= lr * (g + l2 * *p);
                    }
                }
                OptimizerKind::Momentum { beta } => {
                    for ((p, &g), m) in params.iter_mut().zip(grads).zip(m) {
                        *m = beta * *m - lr * (g + l2 * *p);
                        *p += *m;
                    }
                }
                OptimizerKind::Adam { beta1, beta2, eps } => {
                    let t = t.max(1) as i32;
                    let bc1 = 1.0 - beta1.powi(t);
                    let bc2 = 1.0 - beta2.powi(t);
                    for (((p, &g), m), v) in params.iter_mut().zip(grads).zip(m).zip(v) {
                        let g = g + l2 * *p;
                        *m = beta1 * *m + (1.0 - beta1) * g;
                        *v = beta2 * *v + (1.0 - beta2) * g * g;
                        let mhat = *m / bc1;
                        let vhat = *v / bc2;
                        *p -= lr * mhat / (vhat.sqrt() + eps);
                    }
                }
                OptimizerKind::AdaGrad { eps } => {
                    for ((p, &g), v) in params.iter_mut().zip(grads).zip(v) {
                        let g = g + l2 * *p;
                        *v += g * g;
                        *p -= lr * g / (v.sqrt() + eps);
                    }
                }
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `steps` optimizer steps on the 1-D quadratic `f(x) = (x-3)²/2`
    /// (gradient `x − 3`) and returns the final iterate.
    fn descend(kind: OptimizerKind, lr: f64, steps: usize) -> f64 {
        let mut st = OptimizerState::new(kind, &[1]);
        let mut x = [0.0f64];
        for _ in 0..steps {
            st.next_step();
            let g = [x[0] - 3.0];
            st.update(0, &mut x, &g, lr, 0.0);
        }
        x[0]
    }

    #[test]
    fn all_rules_converge_on_a_quadratic() {
        for kind in [
            OptimizerKind::Sgd,
            OptimizerKind::default_momentum(),
            OptimizerKind::default_adam(),
            OptimizerKind::AdaGrad { eps: 1e-8 },
        ] {
            let lr = match kind {
                OptimizerKind::Adam { .. } => 0.3,
                OptimizerKind::AdaGrad { .. } => 2.0,
                _ => 0.1,
            };
            let x = descend(kind, lr, 400);
            assert!((x - 3.0).abs() < 0.05, "{kind:?} ended at {x}");
        }
    }

    #[test]
    fn momentum_accelerates_over_sgd() {
        let sgd = descend(OptimizerKind::Sgd, 0.02, 50);
        let mom = descend(OptimizerKind::default_momentum(), 0.02, 50);
        assert!(
            (mom - 3.0).abs() < (sgd - 3.0).abs(),
            "sgd {sgd}, momentum {mom}"
        );
    }

    #[test]
    fn l2_shrinks_the_fixed_point() {
        let mut st = OptimizerState::new(OptimizerKind::Sgd, &[1]);
        let mut x = [0.0f64];
        for _ in 0..2000 {
            st.next_step();
            let g = [x[0] - 3.0];
            st.update(0, &mut x, &g, 0.05, 0.5);
        }
        // Fixed point of (x−3) + 0.5x = 0 → x = 2.
        assert!((x[0] - 2.0).abs() < 1e-6, "x {}", x[0]);
    }

    #[test]
    fn adam_bias_correction_makes_first_step_lr_sized() {
        // With bias correction the first Adam step is ≈ lr·sign(g).
        let mut st = OptimizerState::new(OptimizerKind::default_adam(), &[1]);
        let mut x = [0.0f64];
        st.next_step();
        st.update(0, &mut x, &[1.0], 0.1, 0.0);
        assert!((x[0] + 0.1).abs() < 1e-6, "first step {}", x[0]);
    }

    #[test]
    fn slots_are_independent() {
        let mut st = OptimizerState::new(OptimizerKind::default_momentum(), &[2, 3]);
        let mut a = [0.0; 2];
        let mut b = [0.0; 3];
        st.next_step();
        st.update(0, &mut a, &[1.0, 1.0], 0.1, 0.0);
        st.update(1, &mut b, &[0.0, 0.0, 0.0], 0.1, 0.0);
        assert!(a.iter().all(|&v| v != 0.0));
        assert!(b.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn every_rule_keeps_its_bits_at_every_width() {
        // Each rule's pass at every width the host supports against its
        // baseline copy, over three steps (so the moments carry state) on
        // a tensor with a vector tail, with signed zeros, subnormals and
        // large values among the parameters and gradients, with and
        // without weight decay.
        let mut rng = st_linalg::SplitMix64::new(0x0917);
        let len = 37;
        let specials = [0.0, -0.0, 4e-320, -2.5e-310, 1e300, -3.0];
        let mut draw = |i: usize| {
            if i % 7 == 2 {
                specials[i % specials.len()]
            } else {
                rng.next_f64() * 2.0 - 1.0
            }
        };
        let start: Vec<f64> = (0..len).map(&mut draw).collect();
        let grads: Vec<Vec<f64>> = (0..3).map(|_| (0..len).map(&mut draw).collect()).collect();
        for kind in [
            OptimizerKind::Sgd,
            OptimizerKind::default_momentum(),
            OptimizerKind::default_adam(),
            OptimizerKind::AdaGrad { eps: 1e-8 },
        ] {
            for l2 in [0.0, 1e-4] {
                let run = |width: SimdWidth| {
                    let mut st = OptimizerState::new(kind, &[len]);
                    let mut p = start.clone();
                    for g in &grads {
                        st.next_step();
                        st.update_at(width, 0, &mut p, g, 0.05, l2);
                    }
                    p
                };
                let want = run(SimdWidth::Scalar);
                for width in SimdWidth::supported() {
                    for (i, (w, g)) in want.iter().zip(&run(width)).enumerate() {
                        assert_eq!(
                            w.to_bits(),
                            g.to_bits(),
                            "{kind:?} l2 {l2} {width:?} at {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_length_is_rejected() {
        let mut st = OptimizerState::new(OptimizerKind::Sgd, &[2]);
        let mut p = [0.0; 3];
        st.update(0, &mut p, &[0.0; 3], 0.1, 0.0);
    }

    #[test]
    fn constant_schedule_is_flat() {
        let s = LrSchedule::Constant;
        assert_eq!(s.lr_at(0.1, 0), 0.1);
        assert_eq!(s.lr_at(0.1, 99), 0.1);
    }

    #[test]
    fn exponential_schedule_decays_geometrically() {
        let s = LrSchedule::Exponential { gamma: 0.5 };
        assert_eq!(s.lr_at(1.0, 0), 1.0);
        assert_eq!(s.lr_at(1.0, 3), 0.125);
    }

    #[test]
    fn step_schedule_is_piecewise_constant() {
        let s = LrSchedule::Step {
            every: 10,
            gamma: 0.1,
        };
        assert_eq!(s.lr_at(1.0, 9), 1.0);
        assert!((s.lr_at(1.0, 10) - 0.1).abs() < 1e-15);
        assert!((s.lr_at(1.0, 25) - 0.01).abs() < 1e-15);
    }

    #[test]
    fn cosine_schedule_hits_endpoints_and_decreases() {
        let s = LrSchedule::Cosine {
            total: 100,
            min_frac: 0.01,
        };
        assert!((s.lr_at(1.0, 0) - 1.0).abs() < 1e-12);
        assert!((s.lr_at(1.0, 100) - 0.01).abs() < 1e-12);
        assert!(
            (s.lr_at(1.0, 200) - 0.01).abs() < 1e-12,
            "clamped past total"
        );
        let mid = s.lr_at(1.0, 50);
        assert!(mid < 1.0 && mid > 0.01);
    }
}
