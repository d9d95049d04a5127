//! Host-speed normalisation.
//!
//! On a shared host the CPU speed drifts between states up to ~1.7x apart,
//! for seconds or for minutes at a time, so a whole run can sit in a slow
//! state and no statistic over one run's samples removes it. The benchmark
//! therefore times a fixed piece of its own CPU work (a naive f64 matrix
//! product, code the program under test never runs) between timed
//! operations, and scales each operation's time by how much slower or
//! faster than [`NOMINAL_MS`] the reference ran around it. A change to the
//! program moves the scaled figure; a change of host state moves both and
//! cancels. The times as measured are printed beside the scaled ones.

use crate::stats::ms_since;
use std::time::Instant;

/// The reference's time in a fast state of the 2-vCPU x86-64 (AVX-512)
/// host the bounds were set on. Scaled times read as they would on a host
/// where the reference takes this long.
pub const NOMINAL_MS: f64 = 1.8;

/// Times the reference work once (about [`NOMINAL_MS`]).
pub fn reference_ms() -> f64 {
    const N: usize = 48;
    let a: Vec<f64> = (0..N * N)
        .map(|i| ((i * 7919) % 113) as f64 / 113.0 - 0.5)
        .collect();
    let b: Vec<f64> = (0..N * N)
        .map(|i| ((i * 104729) % 97) as f64 / 97.0 - 0.5)
        .collect();
    let mut c = vec![0.0f64; N * N];
    let t0 = Instant::now();
    for _ in 0..20 {
        c.iter_mut().for_each(|x| *x = 0.0);
        for i in 0..N {
            for k in 0..N {
                let aik = a[i * N + k];
                for j in 0..N {
                    c[i * N + j] += aik * b[k * N + j];
                }
            }
        }
        std::hint::black_box(&mut c);
    }
    ms_since(t0)
}

/// `t` scaled to the nominal host, given the reference times taken just
/// before and just after it.
pub fn normalise(t: f64, before_ms: f64, after_ms: f64) -> f64 {
    t * NOMINAL_MS / (0.5 * (before_ms + after_ms))
}
