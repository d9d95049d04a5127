//! The parameter-update rule: heavy-ball momentum with β = 0.9.
//!
//! The paper fixes hyperparameters per dataset and never tunes them while
//! Slice Tuner runs, so the update rule is a constant of both trainers
//! rather than a configuration choice. It operates on flat parameter
//! slices so dense layers, biases, and convolution kernels share one code
//! path.
//!
//! The rule is one elementwise pass compiled once per vector width, and
//! [`OptimizerState::update`] runs it at the widest the CPU offers
//! (`st_linalg::SimdWidth::run`); each parameter's arithmetic is the same
//! at every width, so the bits are too.

use st_linalg::SimdWidth;

/// Momentum coefficient.
const BETA: f64 = 0.9;

/// Momentum state across all tensors of a network: one velocity buffer
/// per tensor.
///
/// Create one per training run with [`OptimizerState::new`], then call
/// [`update`](OptimizerState::update) once per tensor per step, always in
/// the same slot order.
#[derive(Debug, Clone)]
pub(crate) struct OptimizerState {
    velocities: Vec<Vec<f64>>,
}

impl OptimizerState {
    /// Allocates zeroed velocities for tensors of the given lengths.
    pub(crate) fn new(tensor_lens: &[usize]) -> Self {
        OptimizerState {
            velocities: tensor_lens.iter().map(|&len| vec![0.0; len]).collect(),
        }
    }

    /// Applies one update to tensor `slot`: `m ← β·m − lr·(grad + l2·param)`,
    /// then `param ← param + m`. `l2` is classical weight decay. Runs at the
    /// host's vector width.
    ///
    /// # Panics
    /// Panics when lengths disagree with the slot allocation.
    pub(crate) fn update(
        &mut self,
        slot: usize,
        params: &mut [f64],
        grads: &[f64],
        lr: f64,
        l2: f64,
    ) {
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
        let m = &mut self.velocities[slot];
        assert_eq!(params.len(), m.len(), "slot {slot} length mismatch");
        assert_eq!(params.len(), grads.len(), "grad length mismatch");
        width.run(
            #[inline(always)]
            || {
                for ((p, &g), m) in params.iter_mut().zip(grads).zip(m.iter_mut()) {
                    *m = BETA * *m - lr * (g + l2 * *p);
                    *p += *m;
                }
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `steps` momentum steps on the 1-D quadratic `f(x) = (x-3)²/2`
    /// (gradient `x − 3`) and returns the final iterate.
    fn descend(lr: f64, steps: usize) -> f64 {
        let mut st = OptimizerState::new(&[1]);
        let mut x = [0.0f64];
        for _ in 0..steps {
            let g = [x[0] - 3.0];
            st.update(0, &mut x, &g, lr, 0.0);
        }
        x[0]
    }

    #[test]
    fn momentum_converges_on_a_quadratic() {
        let x = descend(0.1, 400);
        assert!((x - 3.0).abs() < 0.05, "ended at {x}");
    }

    #[test]
    fn momentum_accelerates_over_plain_gradient_descent() {
        let mut sgd = 0.0f64;
        for _ in 0..50 {
            sgd -= 0.02 * (sgd - 3.0);
        }
        let mom = descend(0.02, 50);
        assert!(
            (mom - 3.0).abs() < (sgd - 3.0).abs(),
            "sgd {sgd}, momentum {mom}"
        );
    }

    #[test]
    fn l2_shrinks_the_fixed_point() {
        let mut st = OptimizerState::new(&[1]);
        let mut x = [0.0f64];
        for _ in 0..2000 {
            let g = [x[0] - 3.0];
            st.update(0, &mut x, &g, 0.05, 0.5);
        }
        // Fixed point of (x−3) + 0.5x = 0 → x = 2.
        assert!((x[0] - 2.0).abs() < 1e-6, "x {}", x[0]);
    }

    #[test]
    fn slots_are_independent() {
        let mut st = OptimizerState::new(&[2, 3]);
        let mut a = [0.0; 2];
        let mut b = [0.0; 3];
        st.update(0, &mut a, &[1.0, 1.0], 0.1, 0.0);
        st.update(1, &mut b, &[0.0, 0.0, 0.0], 0.1, 0.0);
        assert!(a.iter().all(|&v| v != 0.0));
        assert!(b.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn momentum_keeps_its_bits_at_every_width() {
        // The pass at every width the host supports against its baseline
        // copy, over three steps (so the velocity carries state) on a
        // tensor with a vector tail, with signed zeros, subnormals and
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
        for l2 in [0.0, 1e-4] {
            let run = |width: SimdWidth| {
                let mut st = OptimizerState::new(&[len]);
                let mut p = start.clone();
                for g in &grads {
                    st.update_at(width, 0, &mut p, g, 0.05, l2);
                }
                p
            };
            let want = run(SimdWidth::Scalar);
            for width in SimdWidth::supported() {
                for (i, (w, g)) in want.iter().zip(&run(width)).enumerate() {
                    assert_eq!(w.to_bits(), g.to_bits(), "l2 {l2} {width:?} at {i}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_length_is_rejected() {
        let mut st = OptimizerState::new(&[2]);
        let mut p = [0.0; 3];
        st.update(0, &mut p, &[0.0; 3], 0.1, 0.0);
    }
}
