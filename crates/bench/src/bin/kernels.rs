//! Microbenchmark of the compute-kernel layer: the naive reference, both
//! packed cores and the production `kernel()` on a tour of shapes, with a
//! bit-identity cross-check against naive on every timed shape, and of the
//! training step's softmax cross-entropy gradient (gate 5).
//!
//! ```text
//! cargo run --release -p st_bench --bin kernels
//! ```
//!
//! The tour holds square matmuls, one 784-deep layer that no workload runs
//! (no family has more than 16 features), the solver/metric matvec, and
//! the products the benchmark workloads do run: census's 12→2 softmax and
//! faces' 16→32→16→4 MLP at the trainers' batch of 32 — each forward with
//! its `gemm_tn` (weight gradient) twin and, past the input layer, its
//! `gemm_nt` (input gradient) twin, since the trainers skip the input
//! layer's — and the 300-row validation evaluations, including census's
//! two-repeat stacked head (12→4). A 12→3 product at the same batch, which
//! no workload runs, stands in for the narrow core's widest case and is
//! gated with them. The `kernel()` column shows the width rule at work:
//! below four output columns it runs the narrow core, which no other
//! column times, so it should beat every column there; from four to seven
//! its `gemm` and `gemm_nt` should track `blocked`, and from eight up
//! `simd` on AVX2 and AVX-512 hosts. Its `gemm_tn` runs the narrow core's
//! walk below eight columns and the 8-wide direct walk from eight up;
//! `blocked` and `simd` run the same `gemm_tn`, so the three columns
//! time the same walks.
//!
//! Gates enforced at the end (ST_QUICK=1 for a faster sweep, same checks):
//!
//! * `blocked` ≥ 2× `naive` on 256×256 matmul;
//! * `simd` ≥ 1.5× `blocked` on 256×256 matmul on hosts whose AVX-512
//!   path is live (gates 1 and 2 each take the best of single reps timed
//!   in turn, gate 4's schedule); on AVX2-only hosts the bar is parity, because `blocked`'s
//!   auto-vectorized core already saturates the 256-bit mul/add ports
//!   (see docs/kernels.md), and the AVX2 `simd` path is gated on ≥ 1×;
//! * `kernel()` no more than 10% slower than `naive` on every workload
//!   product in the tour (and the 12→3 stand-in), again the best of
//!   interleaved rounds: the two give the same bits, so a production
//!   kernel that loses to the oracle on a product the workloads run is a
//!   perf bug;
//! * `kernel()`'s `gemm_tn` no slower than the route the MLP trainer took
//!   to the same weight gradient before `gemm_tn` read its operands in
//!   place — `kernel().transpose` of `A` into a reused buffer,
//!   `pack_b_into` of `dZ` into a reused handle, then `gemm_prepacked` —
//!   on faces' three weight gradients (32×16×32, 32×32×16, 32×16×4), best
//!   of interleaved rounds, after a bit cross-check of the two routes;
//! * `softmax_xent_grad`, the trainers' staged softmax cross-entropy
//!   gradient at the host's vector width, no slower than the per-row loop
//!   it replaced (a softmax call per row, the one-hot subtraction, a
//!   division by the batch) on census's 32×2 batch, faces' 32×4 and a
//!   ragged 24×2 last batch: bits first, then the best of single reps
//!   timed in turn.

use st_bench::{assert_bits_identical, bench_fill as fill, best_secs, rule};
use st_linalg::{
    kernel, softmax_xent_grad, BlockedKernel, GemmBackend, NaiveKernel, PackedB, SimdKernel,
};

/// One timed operation on one shape across all backends.
enum Op {
    /// `m×k · k×n`.
    Gemm(usize, usize, usize),
    /// `m×k · (n×k)ᵀ` (backprop `dZ·Wᵀ`).
    GemmNt(usize, usize, usize),
    /// `(m×k)ᵀ · m×n` (gradient `Xᵀ·dZ`).
    GemmTn(usize, usize, usize),
    /// `rows×cols · v`.
    Matvec(usize, usize),
}

impl Op {
    fn label(&self) -> String {
        match *self {
            Op::Gemm(m, k, n) if m == k && k == n => format!("matmul {m}x{n}"),
            Op::Gemm(m, k, n) => format!("gemm {m}x{k}x{n}"),
            Op::GemmNt(m, k, n) => format!("gemm_nt {m}x{k}x{n}"),
            Op::GemmTn(m, k, n) => format!("gemm_tn {m}x{k}x{n}"),
            Op::Matvec(r, c) => format!("matvec {r}x{c}"),
        }
    }

    fn flops(&self) -> f64 {
        match *self {
            Op::Gemm(m, k, n) | Op::GemmNt(m, k, n) | Op::GemmTn(m, k, n) => {
                2.0 * (m * k * n) as f64
            }
            Op::Matvec(r, c) => 2.0 * (r * c) as f64,
        }
    }

    /// Runs the op with `backend` once, returning the output buffer.
    fn run(&self, backend: &dyn GemmBackend, seed: u64, out: &mut Vec<f64>) {
        match *self {
            Op::Gemm(m, k, n) => {
                let a = fill(m * k, seed);
                let b = fill(k * n, seed ^ 1);
                out.clear();
                out.resize(m * n, 0.0);
                backend.gemm(m, k, n, &a, &b, out);
            }
            Op::GemmNt(m, k, n) => {
                let a = fill(m * k, seed);
                let bt = fill(n * k, seed ^ 2);
                out.clear();
                out.resize(m * n, 0.0);
                backend.gemm_nt(m, k, n, &a, &bt, out);
            }
            Op::GemmTn(m, k, n) => {
                let a = fill(m * k, seed);
                let b = fill(m * n, seed ^ 3);
                out.clear();
                out.resize(k * n, 0.0);
                backend.gemm_tn(m, k, n, &a, &b, out);
            }
            Op::Matvec(r, c) => {
                let a = fill(r * c, seed);
                let v = fill(c, seed ^ 4);
                out.clear();
                out.resize(r, 0.0);
                backend.matvec(r, c, &a, &v, out);
            }
        }
    }

    /// Times the op's core loop (inputs pre-built, output zeroed per
    /// call). Each timed rep repeats the op until it has done about 4
    /// MFLOP, so the microsecond-scale workload products read above the
    /// timer's resolution; the result is seconds per call.
    fn time(&self, backend: &dyn GemmBackend, seed: u64, reps: usize) -> f64 {
        let calls = (4e6 / self.flops()).ceil().max(1.0) as usize;
        let secs = match *self {
            Op::Gemm(m, k, n) => {
                let a = fill(m * k, seed);
                let b = fill(k * n, seed ^ 1);
                let mut out = vec![0.0; m * n];
                best_secs(reps, || {
                    for _ in 0..calls {
                        out.fill(0.0);
                        backend.gemm(m, k, n, &a, &b, &mut out);
                    }
                })
            }
            Op::GemmNt(m, k, n) => {
                let a = fill(m * k, seed);
                let bt = fill(n * k, seed ^ 2);
                let mut out = vec![0.0; m * n];
                best_secs(reps, || {
                    for _ in 0..calls {
                        out.fill(0.0);
                        backend.gemm_nt(m, k, n, &a, &bt, &mut out);
                    }
                })
            }
            Op::GemmTn(m, k, n) => {
                let a = fill(m * k, seed);
                let b = fill(m * n, seed ^ 3);
                let mut out = vec![0.0; k * n];
                best_secs(reps, || {
                    for _ in 0..calls {
                        out.fill(0.0);
                        backend.gemm_tn(m, k, n, &a, &b, &mut out);
                    }
                })
            }
            Op::Matvec(r, c) => {
                let a = fill(r * c, seed);
                let v = fill(c, seed ^ 4);
                let mut out = vec![0.0; r];
                best_secs(reps, || {
                    for _ in 0..calls {
                        backend.matvec(r, c, &a, &v, &mut out);
                    }
                })
            }
        };
        secs / calls as f64
    }
}

fn main() {
    let quick = std::env::var("ST_QUICK").is_ok();
    let reps = if quick { 3 } else { 7 };

    let backends: [&dyn GemmBackend; 4] = [&NaiveKernel, &BlockedKernel, &SimdKernel, kernel()];

    println!(
        "Compute-kernel microbench (best of {reps}); gate 5 times the softmax cross-entropy \
         gradient"
    );
    println!(
        "production kernel: {} (gemm/gemm_nt: narrow core below 4 output columns, 4-wide \
         blocked core from 4 to 7, 8-wide simd core from 8 up on AVX2/AVX-512 hosts, 4-wide \
         from 4 up without them; gemm_tn: narrow walk below 8 columns, 8-wide direct walk \
         from 8 up)",
        kernel().name()
    );
    #[cfg(target_arch = "x86_64")]
    println!(
        "vector units: avx2={} avx512f={}\n",
        std::arch::is_x86_feature_detected!("avx2"),
        std::arch::is_x86_feature_detected!("avx512f"),
    );

    // The shape tour (see the module docs): square matmuls, a 784-deep
    // layer no workload runs and the solver/metric matvec, then the
    // workloads' batch-32 forwards with their gradient twins and the
    // 300-row evaluations (gate 3 times the latter).
    let generic = [
        Op::Gemm(64, 64, 64),
        Op::Gemm(128, 128, 128),
        Op::Gemm(256, 256, 256),
        Op::Gemm(512, 784, 64),
        Op::GemmTn(512, 784, 64),
        Op::GemmNt(512, 64, 784),
        Op::Matvec(2048, 512),
    ];
    let workload = [
        Op::Gemm(32, 12, 2),
        Op::GemmTn(32, 12, 2),
        Op::Gemm(32, 12, 3),
        Op::GemmTn(32, 12, 3),
        Op::Gemm(32, 16, 32),
        Op::GemmTn(32, 16, 32),
        Op::Gemm(32, 32, 16),
        Op::GemmTn(32, 32, 16),
        Op::GemmNt(32, 16, 32),
        Op::Gemm(32, 16, 4),
        Op::GemmTn(32, 16, 4),
        Op::GemmNt(32, 4, 16),
        Op::Gemm(300, 12, 2),
        Op::Gemm(300, 12, 4),
        Op::Gemm(300, 16, 32),
        Op::Gemm(300, 32, 16),
        Op::Gemm(300, 16, 4),
    ];

    println!(
        "{:<22} {:>10} {:>10} {:>10} {:>10}   (µs, GF/s below)",
        "op", "naive", "blocked", "simd", "kernel()"
    );
    rule(78);
    for (si, op) in generic.iter().chain(&workload).enumerate() {
        let seed = 0xC0FFEE + si as u64;
        // Correctness first: every backend must be bit-identical to naive.
        let mut reference = Vec::new();
        op.run(&NaiveKernel, seed, &mut reference);
        let mut got = Vec::new();
        for backend in backends.iter().skip(1) {
            op.run(*backend, seed, &mut got);
            let name = backend.name();
            assert_bits_identical(&format!("{} [{name}]", op.label()), &reference, &got);
        }

        let times: Vec<f64> = backends.iter().map(|b| op.time(*b, seed, reps)).collect();
        print!("{:<22}", op.label());
        for t in &times {
            print!(" {:>9.2}µ", t * 1e6);
        }
        println!();
        print!("{:<22}", "");
        for t in &times {
            print!(" {:>10.2}", op.flops() / t / 1e9);
        }
        println!();
    }

    // ---- Gates -----------------------------------------------------------
    println!("\ngates:");
    let gate_rounds = if quick { 3 } else { 5 };

    // Gate 1 + 2: blocked vs naive, simd vs blocked on 256x256, each the
    // best of single reps taken in turn (gate 4's schedule): a slow host
    // phase then costs every contender a rep, where blocks of reps per
    // contender could let it land on one of them only.
    let (m, k, n) = (256, 256, 256);
    let a = fill(m * k, 0xA256);
    let b = fill(k * n, 0xB256);
    let mut out = vec![0.0; m * n];
    let (mut t_naive, mut t_blocked, mut t_simd) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..gate_rounds * reps * 2 {
        t_naive = t_naive.min(best_secs(1, || {
            out.fill(0.0);
            NaiveKernel.gemm(m, k, n, &a, &b, &mut out);
        }));
        t_blocked = t_blocked.min(best_secs(1, || {
            out.fill(0.0);
            BlockedKernel.gemm(m, k, n, &a, &b, &mut out);
        }));
        t_simd = t_simd.min(best_secs(1, || {
            out.fill(0.0);
            SimdKernel.gemm(m, k, n, &a, &b, &mut out);
        }));
    }
    let blocked_speedup = t_naive / t_blocked;
    println!("  blocked vs naive on 256x256: {blocked_speedup:.2}x (target >= 2x)");
    assert!(
        blocked_speedup >= 2.0,
        "blocked kernel must be >= 2x naive on 256x256 matmul, got {blocked_speedup:.2}x"
    );

    let simd_speedup = t_blocked / t_simd;
    #[cfg(target_arch = "x86_64")]
    let avx512 = std::arch::is_x86_feature_detected!("avx512f");
    #[cfg(not(target_arch = "x86_64"))]
    let avx512 = false;
    #[cfg(target_arch = "x86_64")]
    let avx2 = std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;
    if avx512 {
        // The architectural uplift of the AVX-512 path over blocked's
        // 256-bit auto-vectorized core is 2x width x ~0.75x sustained
        // 512-bit license clock = ~1.5x, and the micro-kernel measures at
        // >= 95% of the throttled port ceiling — so the measured ratio
        // sits *on* the target and shared-runner noise swings it a few
        // percent either way. The gate therefore allows a 4% measurement
        // band below the 1.5x target.
        println!("  simd vs blocked on 256x256:  {simd_speedup:.2}x (AVX-512 path; target 1.5x, gate >= 1.44x)");
        assert!(
            simd_speedup >= 1.44,
            "simd kernel must reach the 1.5x-target band (>= 1.44x after noise) over blocked \
             on 256x256 matmul with AVX-512, got {simd_speedup:.2}x"
        );
    } else if avx2 {
        // Parity is the documented outcome here, so the gate needs the
        // same noise band the AVX-512 gate gets — a genuine tie measures
        // a few percent either side of 1x run to run.
        println!(
            "  simd vs blocked on 256x256:  {simd_speedup:.2}x (AVX2-only host; target 1x, \
             gate >= 0.95x — blocked's auto-vectorized core already saturates the 256-bit \
             mul/add ports, the 1.5x uplift needs the AVX-512 path)"
        );
        assert!(
            simd_speedup >= 0.95,
            "simd kernel must not lose to blocked on 256x256 matmul (>= 0.95x after noise), \
             got {simd_speedup:.2}x"
        );
    } else {
        println!(
            "  simd vs blocked on 256x256:  {simd_speedup:.2}x (no vector unit; bit gate only)"
        );
    }

    // Gate 3: kernel() vs naive on every workload product, best of the
    // interleaved rounds. 10% absorbs timer noise on microsecond calls.
    let mut slowest = (0.0, String::new());
    for op in &workload {
        let (mut t_naive, mut t_kernel) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..gate_rounds {
            t_naive = t_naive.min(op.time(&NaiveKernel, 0x6A7E3, reps));
            t_kernel = t_kernel.min(op.time(kernel(), 0x6A7E3, reps));
        }
        let ratio = t_kernel / t_naive;
        assert!(
            ratio <= 1.10,
            "kernel() must be no more than 10% slower than naive on the workload product {}, \
             got {ratio:.2}x naive's time",
            op.label()
        );
        if ratio > slowest.0 {
            slowest = (ratio, op.label());
        }
    }
    println!(
        "  kernel() vs naive on the {} gated products: slowest {:.2}x naive's time ({}; \
         gate <= 1.10x)",
        workload.len(),
        slowest.0,
        slowest.1
    );

    // Gate 4: kernel()'s gemm_tn against the transpose-and-pack route to
    // the same product, on faces' three weight gradients. Both routes
    // reuse their buffers, as a training step does, and give the same
    // bits, so the direct walk must not be the slower one.
    let ker = kernel();
    let mut slowest = (0.0, String::new());
    for (m, k, n) in [(32, 16, 32), (32, 32, 16), (32, 16, 4)] {
        let label = format!("gemm_tn {m}x{k}x{n}");
        let a = fill(m * k, 0x7A11);
        let dz = fill(m * n, 0x7A12);
        let mut at = vec![0.0; k * m];
        let mut pack = PackedB::default();
        let (mut direct, mut packed) = (vec![0.0; k * n], vec![0.0; k * n]);
        let run_direct = |out: &mut [f64]| {
            out.fill(0.0);
            ker.gemm_tn(m, k, n, &a, &dz, out);
        };
        let mut run_packed = |out: &mut [f64]| {
            ker.transpose(m, k, &a, &mut at);
            ker.pack_b_into(m, n, &dz, &mut pack);
            out.fill(0.0);
            ker.gemm_prepacked(k, m, n, &at, &pack, out);
        };
        run_direct(&mut direct);
        run_packed(&mut packed);
        assert_bits_identical(&format!("{label} [transpose + pack]"), &direct, &packed);
        // One timed rep per turn, alternating: a host that drifts between
        // speed states within milliseconds then slows both routes alike.
        let calls = (4e6 / (2.0 * (m * k * n) as f64)).ceil() as usize;
        let (mut t_direct, mut t_packed) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..gate_rounds * reps * 3 {
            t_direct = t_direct.min(best_secs(1, || {
                for _ in 0..calls {
                    run_direct(&mut direct);
                }
            }));
            t_packed = t_packed.min(best_secs(1, || {
                for _ in 0..calls {
                    run_packed(&mut packed);
                }
            }));
        }
        let ratio = t_direct / t_packed;
        println!(
            "    {label}: {:.2}µ direct, {:.2}µ transpose + pack + gemm_prepacked",
            t_direct / calls as f64 * 1e6,
            t_packed / calls as f64 * 1e6
        );
        assert!(
            ratio <= 1.0,
            "kernel()'s gemm_tn must be no slower than transpose + pack + gemm_prepacked on \
             {label}, got {ratio:.2}x that route's time"
        );
        if ratio > slowest.0 {
            slowest = (ratio, label);
        }
    }
    println!(
        "  kernel() gemm_tn vs transpose + pack + gemm_prepacked on faces' weight gradients: \
         slowest {:.2}x the packed route's time ({}; gate <= 1.00x)",
        slowest.0, slowest.1
    );

    // Gate 5: the trainers' softmax cross-entropy gradient, one staged
    // pass over the minibatch at the host's vector width, against the
    // per-row loop it replaced, on census's batch (32×2), faces' (32×4)
    // and a ragged last batch (24×2, where the 1/m scale divides). Bits
    // first, then the best of single reps taken in turn; each call starts
    // from a fresh copy of the logits, as a step does.
    let mut slowest = (0.0, String::new());
    for (m, n) in [(32, 2), (32, 4), (24, 2)] {
        let label = format!("softmax gradient {m}x{n}");
        let logits: Vec<f64> = fill(m * n, 0x50F7 + (m * n) as u64)
            .iter()
            .map(|x| 4.0 * x)
            .collect();
        let labels: Vec<usize> = (0..m).map(|r| (r * 7 + 3) % n).collect();
        let (mut shared, mut per_row) = (logits.clone(), logits.clone());
        softmax_xent_grad(&mut shared, n, &labels);
        xent_grad_per_row(&mut per_row, n, &labels);
        assert_bits_identical(&format!("{label} [per-row loop]"), &per_row, &shared);
        // A turn takes about 0.1 ms, so many turns cost little and keep
        // one slow host phase from deciding the best of either side.
        let calls = 64;
        let (mut t_shared, mut t_per_row) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..gate_rounds * reps * 20 {
            t_shared = t_shared.min(best_secs(1, || {
                for _ in 0..calls {
                    shared.copy_from_slice(&logits);
                    softmax_xent_grad(std::hint::black_box(&mut shared), n, &labels);
                }
            }));
            t_per_row = t_per_row.min(best_secs(1, || {
                for _ in 0..calls {
                    per_row.copy_from_slice(&logits);
                    xent_grad_per_row(std::hint::black_box(&mut per_row), n, &labels);
                }
            }));
        }
        let ratio = t_shared / t_per_row;
        println!(
            "    {label}: {:.2}µ staged, {:.2}µ per row",
            t_shared / calls as f64 * 1e6,
            t_per_row / calls as f64 * 1e6
        );
        assert!(
            ratio <= 1.0,
            "the staged softmax gradient must be no slower than the per-row loop on {label}, \
             got {ratio:.2}x that loop's time"
        );
        if ratio > slowest.0 {
            slowest = (ratio, label);
        }
    }
    println!(
        "  softmax_xent_grad vs the per-row loop: slowest {:.2}x the loop's time ({}; gate <= \
         1.00x)",
        slowest.0, slowest.1
    );

    println!("\nall gates passed; every backend bit-identical to naive on every timed shape");
}

/// The softmax cross-entropy gradient as the trainers computed it before
/// `softmax_xent_grad`: a softmax call per row (every `exp` taken), the
/// one-hot subtraction, then a division of each element by the batch.
/// Gate 5's baseline.
fn xent_grad_per_row(z: &mut [f64], n: usize, labels: &[usize]) {
    #[inline(never)]
    fn softmax(row: &mut [f64]) {
        let mx = row.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
        let mut sum = 0.0;
        for x in row.iter_mut() {
            *x = (*x - mx).exp();
            sum += *x;
        }
        for x in row.iter_mut() {
            *x /= sum;
        }
    }
    let m = labels.len();
    for (row, &label) in z.chunks_exact_mut(n).zip(labels) {
        softmax(row);
        row[label] -= 1.0;
        for v in row.iter_mut() {
            *v /= m as f64;
        }
    }
}
