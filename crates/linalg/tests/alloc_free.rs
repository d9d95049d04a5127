//! The narrow core allocates nothing: after one warm-up call, every product
//! entry of `kernel()` on the workloads' narrow shapes (census's 12→2
//! softmax at the trainers' batch of 32 and on a 300-row evaluation, and a
//! three-class head) runs without a single heap allocation, and so does
//! re-packing into a handle that already holds the operand's size. Nor
//! does `kernel().gemm_tn` at any width: faces' three weight gradients,
//! a 300-row one and a deep 512×784×64 product read `A` and `B` where
//! they lie.
//!
//! A counting global allocator tallies the allocations made on the calling
//! thread, so other test threads cannot disturb the count.

use st_linalg::{kernel, PackedB};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call forwards to the system allocator unchanged; the
// thread-local counter has a const initializer and no destructor, so
// touching it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: &mut dyn FnMut()) -> usize {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

fn fill(len: usize, seed: u64) -> Vec<f64> {
    let mut rng = st_linalg::SplitMix64::new(seed);
    (0..len).map(|_| rng.next_f64() * 4.0 - 2.0).collect()
}

#[test]
fn narrow_products_allocate_nothing_after_warm_up() {
    let ker = kernel();
    for (m, k, n) in [(32, 12, 2), (300, 12, 2), (32, 16, 3)] {
        let a = fill(m * k, 1);
        let b = fill(k * n, 2);
        let bt = fill(n * k, 3);
        let c = fill(m * n, 4);
        let bias = fill(n, 5);
        let mut out = vec![0.0; m * n];
        let mut out_tn = vec![0.0; k * n];
        let mut pb = PackedB::default();
        let mut pbt = PackedB::default();
        // One warm-up call (it sizes the handles), then the counted one.
        let check = |what: &str, f: &mut dyn FnMut()| {
            f();
            let count = allocations(f);
            assert_eq!(
                count, 0,
                "{what} {m}x{k}x{n}: {count} allocations after warm-up"
            );
        };
        check("gemm", &mut || ker.gemm(m, k, n, &a, &b, &mut out));
        check("gemm_nt", &mut || ker.gemm_nt(m, k, n, &a, &bt, &mut out));
        check("gemm_tn", &mut || ker.gemm_tn(m, k, n, &a, &c, &mut out_tn));
        check("pack_b_into", &mut || ker.pack_b_into(k, n, &b, &mut pb));
        check("pack_b_t_into", &mut || {
            ker.pack_b_t_into(k, n, &bt, &mut pbt)
        });
        check("gemm_prepacked", &mut || {
            ker.gemm_prepacked(m, k, n, &a, &pb, &mut out)
        });
        check("gemm_prepacked_bias", &mut || {
            ker.gemm_prepacked_bias(m, k, n, &a, &pb, &bias, &mut out)
        });
        check("gemm_prepacked_bias_relu", &mut || {
            ker.gemm_prepacked_bias_relu(m, k, n, &a, &pb, &bias, &mut out)
        });
        check("gemm_prepacked on the pack_b_t_into handle", &mut || {
            ker.gemm_prepacked(m, k, n, &a, &pbt, &mut out)
        });
    }
}

#[test]
fn gemm_tn_allocates_nothing_after_warm_up_at_any_width() {
    // Faces' weight gradients at the trainers' batch of 32 (16→32, 32→16,
    // 16→4), a 300-row 4-column one, and a deep product that spans many
    // 8-row tiles and a full L2 panel block.
    let ker = kernel();
    for (m, k, n) in [
        (32, 16, 4),
        (32, 32, 16),
        (32, 16, 32),
        (300, 16, 4),
        (512, 784, 64),
    ] {
        let a = fill(m * k, 6);
        let c = fill(m * n, 7);
        let mut out = vec![0.0; k * n];
        let mut gemm_tn = || ker.gemm_tn(m, k, n, &a, &c, &mut out);
        gemm_tn();
        let count = allocations(&mut gemm_tn);
        assert_eq!(
            count, 0,
            "gemm_tn {m}x{k}x{n}: {count} allocations after warm-up"
        );
    }
}
