//! The trainers' output bits, pinned.
//!
//! Every Slice Tuner number is a function of trained parameters, so a
//! change to the training step that claims "no output bit moved" must leave
//! these digests alone. Each case trains one model with a default
//! configuration (only `epochs` and `seed` set) on seeded synthetic rows and
//! folds every parameter's `to_bits()` into a 64-bit FNV-1a digest, in layer
//! order, weights before biases. The cases cover the three MLP shapes the
//! engine trains (`softmax`, `basic`, `deep`) through `train` and through
//! `train_on_rows` on a scrambled subset, and a default 8×8 `ConvNet`.
//!
//! The softmax gradient calls libm's `exp`, so the digests belong to the
//! host they were generated on ([`GENERATED_ON`]). The kernel is
//! bit-identical at every vector width and uses no FMA, so the CPU's vector
//! width does not matter. A deliberate change to the training bits updates
//! [`EXPECTED`] from the table this test prints on a mismatch, and says why.

use st_linalg::{Matrix, SplitMix64};
use st_models::{
    train, train_on_rows, ConvNet, ConvTrainConfig, ImageShape, Mlp, ModelSpec, TrainConfig,
};

/// The host triple and libm the constants below were generated with.
const GENERATED_ON: &str = "x86_64-unknown-linux-gnu, glibc 2.36";

/// `(case, digest)` for every case of [`digests`], in order.
const EXPECTED: [(&str, u64); 7] = [
    ("softmax/train", 0x003d_19e7_ba5b_21b1),
    ("basic/train", 0x749d_9c90_60d4_b0c0),
    ("deep/train", 0xda97_15b3_d48b_f453),
    ("softmax/train_on_rows", 0xe8dd_b613_8882_e9cb),
    ("basic/train_on_rows", 0x7fc8_fa7a_400c_63c7),
    ("deep/train_on_rows", 0xfa8a_8b9d_82d6_a9ef),
    ("conv/train", 0x0dda_410b_03f7_27aa),
];

const ROWS: usize = 160;
const FEATURES: usize = 16;
const CLASSES: usize = 4;
const EPOCHS: usize = 3;

const IMAGE: ImageShape = ImageShape {
    channels: 1,
    height: 8,
    width: 8,
};

/// 64-bit FNV-1a over the little-endian bytes of each value's bits.
#[derive(Clone, Copy)]
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn add(mut self, values: &[f64]) -> Self {
        for v in values {
            for byte in v.to_bits().to_le_bytes() {
                self.0 ^= u64::from(byte);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        self
    }
}

fn mlp_digest(net: &Mlp) -> u64 {
    net.layers
        .iter()
        .fold(Fnv1a::new(), |h, l| h.add(l.w.as_slice()).add(&l.b))
        .0
}

fn conv_digest(net: &ConvNet) -> u64 {
    Fnv1a::new()
        .add(&net.conv.w)
        .add(&net.conv.b)
        .add(net.head.w.as_slice())
        .add(&net.head.b)
        .0
}

/// `rows × cols` features around a per-class center, so every model has
/// something to learn; labels cycle through the classes.
fn blobs(rows: usize, cols: usize, seed: u64) -> (Matrix, Vec<usize>) {
    let mut rng = SplitMix64::new(seed);
    let centers: Vec<f64> = (0..CLASSES * cols)
        .map(|_| rng.next_f64() * 2.0 - 1.0)
        .collect();
    let y: Vec<usize> = (0..rows).map(|i| (i * 7 + i / 5) % CLASSES).collect();
    let x = Matrix::from_fn(rows, cols, |r, c| {
        centers[y[r] * cols + c] + 0.8 * (rng.next_f64() * 2.0 - 1.0)
    });
    (x, y)
}

fn digests() -> Vec<(String, u64)> {
    let (x, y) = blobs(ROWS, FEATURES, 0x7B17);
    let config = TrainConfig {
        epochs: EPOCHS,
        seed: 11,
        ..TrainConfig::default()
    };
    let specs = [
        ("softmax", ModelSpec::softmax()),
        ("basic", ModelSpec::basic()),
        ("deep", ModelSpec::deep()),
    ];
    // A scrambled, repeat-free subset whose size leaves a ragged last
    // minibatch.
    let rows: Vec<usize> = (0..ROWS)
        .rev()
        .step_by(2)
        .chain((0..36).step_by(2))
        .collect();
    let mut out = Vec::new();
    for (name, spec) in &specs {
        let net = train(&x, &y, FEATURES, CLASSES, spec, &config);
        out.push((format!("{name}/train"), mlp_digest(&net)));
    }
    for (name, spec) in &specs {
        let net = train_on_rows(&x, &y, &rows, FEATURES, CLASSES, spec, &config);
        out.push((format!("{name}/train_on_rows"), mlp_digest(&net)));
    }

    let (images, labels) = blobs(ROWS, IMAGE.flat_len(), 0x1A6E);
    let conv_config = ConvTrainConfig {
        epochs: EPOCHS,
        seed: 5,
        ..ConvTrainConfig::default()
    };
    let net = ConvNet::train(&images, &labels, IMAGE, CLASSES, &conv_config);
    out.push(("conv/train".to_string(), conv_digest(&net)));
    out
}

#[test]
fn trained_parameters_match_the_pinned_digests() {
    let got = digests();
    let names: Vec<&str> = got.iter().map(|(n, _)| n.as_str()).collect();
    let want: Vec<&str> = EXPECTED.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, want, "case list changed");
    if got.iter().zip(&EXPECTED).all(|(g, w)| g.1 == w.1) {
        return;
    }
    let mut table = String::new();
    for ((name, g), (_, w)) in got.iter().zip(&EXPECTED) {
        let mark = if g == w { "" } else { "  // differs" };
        table.push_str(&format!("    (\"{name}\", {g:#018x}),{mark}\n"));
    }
    panic!(
        "trained parameter bits differ from the pinned digests.\n\
         The constants were generated on {GENERATED_ON}; this host is {}-{}.\n\
         On another host or libm a mismatch may come from `exp`, not from a \
         regression.\nActual digests:\n{table}",
        std::env::consts::ARCH,
        std::env::consts::OS,
    );
}
