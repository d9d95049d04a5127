//! The MLP and conv training steps allocate nothing: `train_on_rows` on
//! the census family's 12→2 softmax model and the faces family's
//! 16→32→16→4 network, and `ConvNet::train` on 8×8 images, make exactly as
//! many heap allocations when they train for two epochs as for one. Every
//! buffer the minibatch loop needs (gathered batch, activations,
//! gradients, operand packs) reaches its size in the first epoch and is
//! reused from then on, and the softmax gradient works in stack buffers.
//!
//! A counting global allocator tallies the allocations made on the calling
//! thread, so other test threads cannot disturb the count.

use st_linalg::{Matrix, SplitMix64};
use st_models::{train_on_rows, ConvNet, ConvTrainConfig, ImageShape, ModelSpec, TrainConfig};
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
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn mlp_training_allocates_nothing_after_the_first_epoch() {
    const FEATURES: usize = 16;
    const CLASSES: usize = 4;
    let mut rng = SplitMix64::new(7);
    let n = 300;
    let x = Matrix::from_fn(n, FEATURES, |_, _| rng.next_f64() * 4.0 - 2.0);
    let y: Vec<usize> = (0..n).map(|i| (i * 7) % CLASSES).collect();
    // A scrambled subset whose size leaves a short last minibatch (the
    // default batch is 32).
    let rows: Vec<usize> = (0..n).rev().step_by(2).chain(1..21).collect();
    let spec = ModelSpec::basic();
    assert_eq!(spec.hidden, [32, 16], "the faces network");
    let count = |epochs: usize| {
        let cfg = TrainConfig {
            epochs,
            ..TrainConfig::default().with_seed(3)
        };
        allocations(|| {
            std::hint::black_box(train_on_rows(&x, &y, &rows, FEATURES, CLASSES, &spec, &cfg));
        })
    };
    let (one, two) = (count(1), count(2));
    assert_eq!(one, two, "{one} allocations at 1 epoch, {two} at 2");
}

#[test]
fn softmax_training_allocates_nothing_after_the_first_epoch() {
    const FEATURES: usize = 12;
    const CLASSES: usize = 2;
    let mut rng = SplitMix64::new(5);
    // 150 rows: four minibatches of 32, then a ragged one of 22.
    let n = 150;
    let x = Matrix::from_fn(n, FEATURES, |_, _| rng.next_f64() * 4.0 - 2.0);
    let y: Vec<usize> = (0..n).map(|i| (i * 3) % CLASSES).collect();
    let rows: Vec<usize> = (0..n).rev().collect();
    let spec = ModelSpec::softmax();
    assert!(spec.hidden.is_empty(), "the census model");
    let count = |epochs: usize| {
        let cfg = TrainConfig {
            epochs,
            ..TrainConfig::default().with_seed(3)
        };
        allocations(|| {
            std::hint::black_box(train_on_rows(&x, &y, &rows, FEATURES, CLASSES, &spec, &cfg));
        })
    };
    let (one, two) = (count(1), count(2));
    assert_eq!(one, two, "{one} allocations at 1 epoch, {two} at 2");
}

#[test]
fn conv_training_allocates_nothing_after_the_first_epoch() {
    const CLASSES: usize = 4;
    let shape = ImageShape {
        channels: 1,
        height: 8,
        width: 8,
    };
    let mut rng = SplitMix64::new(11);
    // 300 rows leave a short last minibatch (the default batch is 32).
    let n = 300;
    let x = Matrix::from_fn(n, shape.flat_len(), |_, _| rng.next_f64() * 2.0 - 1.0);
    let y: Vec<usize> = (0..n).map(|i| (i * 5) % CLASSES).collect();
    let count = |epochs: usize| {
        let cfg = ConvTrainConfig {
            epochs,
            seed: 3,
            ..ConvTrainConfig::default()
        };
        allocations(|| {
            std::hint::black_box(ConvNet::train(&x, &y, shape, CLASSES, &cfg));
        })
    };
    let (one, two) = (count(1), count(2));
    assert_eq!(one, two, "{one} allocations at 1 epoch, {two} at 2");
}
