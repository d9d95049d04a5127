//! One body, compiled per vector width: the dispatch the elementwise
//! passes of a training step and the GEMM cores' portable walks share.
//!
//! Rust compiles a crate for the baseline of its target (SSE2 on
//! x86-64), so a loop that auto-vectorizes runs two `f64` lanes wide
//! unless something compiles it again with wider registers enabled.
//! [`SimdWidth::run`] is that something: it takes the loop as an
//! `#[inline(always)]` closure and calls it from a copy of itself built
//! with the `avx`, `avx2` or `avx512f` target feature, capped at what the
//! CPU offers. Inlined there, the same Rust body is code-generated with
//! 256- or 512-bit lanes.
//!
//! **Same bits at every width.** Widening re-tiles independent
//! elements across lanes; it never reassociates a chain. Rust emits no
//! fast-math flags and never contracts a multiply and an add into an FMA,
//! so a vectorized `+`, `*`, `/` or `sqrt` rounds exactly like its scalar
//! twin, and a reduction the compiler cannot reorder stays serial. Every
//! body run through here is checked with `to_bits` at baseline and at
//! every width the host supports.

use std::sync::OnceLock;

/// A vector width a body can be compiled for, ordered narrowest first.
/// [`detected`](Self::detected) fixes the widest one once per process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdWidth {
    /// The target's baseline (SSE2 on x86-64).
    Scalar,
    /// 256-bit AVX.
    Avx,
    /// 256-bit AVX2.
    Avx2,
    /// 512-bit AVX-512F.
    Avx512,
}

impl SimdWidth {
    /// The widest width this CPU offers, detected on first use.
    pub fn detected() -> SimdWidth {
        static DETECTED: OnceLock<SimdWidth> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            {
                if std::arch::is_x86_feature_detected!("avx512f") {
                    return SimdWidth::Avx512;
                }
                if std::arch::is_x86_feature_detected!("avx2") {
                    return SimdWidth::Avx2;
                }
                if std::arch::is_x86_feature_detected!("avx") {
                    return SimdWidth::Avx;
                }
            }
            SimdWidth::Scalar
        })
    }

    /// Every width this CPU can run, narrowest first: what a bit-identity
    /// test sweeps.
    pub fn supported() -> Vec<SimdWidth> {
        [
            SimdWidth::Scalar,
            SimdWidth::Avx,
            SimdWidth::Avx2,
            SimdWidth::Avx512,
        ]
        .into_iter()
        .filter(|&w| w <= SimdWidth::detected())
        .collect()
    }

    /// Runs `body` compiled for this width, or for the detected one when
    /// the CPU offers less, so no caller can reach an instruction the CPU
    /// lacks. Production code passes [`detected`](Self::detected); tests
    /// pass each of [`supported`](Self::supported).
    ///
    /// Pass an `#[inline(always)]` closure: each width's copy of this
    /// function must inline the body to compile it at that width, and
    /// with four callers of one closure the inliner's own cost model
    /// might decline.
    #[inline]
    pub fn run<R>(self, body: impl FnOnce() -> R) -> R {
        match self.min(SimdWidth::detected()) {
            // SAFETY (all three arms): the width is capped at the one
            // detected at runtime, so the CPU has the target feature each
            // copy is compiled with.
            #[cfg(target_arch = "x86_64")]
            SimdWidth::Avx512 => unsafe { with_avx512(body) },
            #[cfg(target_arch = "x86_64")]
            SimdWidth::Avx2 => unsafe { with_avx2(body) },
            #[cfg(target_arch = "x86_64")]
            SimdWidth::Avx => unsafe { with_avx(body) },
            _ => body(),
        }
    }
}

/// `body` compiled with AVX-512F enabled.
///
/// # Safety
/// The caller must ensure the CPU supports AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn with_avx512<R>(body: impl FnOnce() -> R) -> R {
    body()
}

/// `body` compiled with AVX2 enabled.
///
/// # Safety
/// The caller must ensure the CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn with_avx2<R>(body: impl FnOnce() -> R) -> R {
    body()
}

/// `body` compiled with AVX enabled.
///
/// # Safety
/// The caller must ensure the CPU supports AVX.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn with_avx<R>(body: impl FnOnce() -> R) -> R {
    body()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supported_widths_start_at_scalar_and_end_at_the_detected_one() {
        let widths = SimdWidth::supported();
        assert_eq!(widths[0], SimdWidth::Scalar);
        assert_eq!(*widths.last().unwrap(), SimdWidth::detected());
        assert!(widths.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn run_returns_the_body_value_at_every_width() {
        for width in SimdWidth::supported() {
            let mut v = [1.0, 2.0, 3.0];
            let total = width.run(
                #[inline(always)]
                || {
                    for x in &mut v {
                        *x *= 2.0;
                    }
                    v.iter().sum::<f64>()
                },
            );
            assert_eq!(total, 12.0, "{width:?}");
        }
        // A width above the host's runs at the host's.
        assert_eq!(SimdWidth::Avx512.run(|| 7), 7);
    }
}
