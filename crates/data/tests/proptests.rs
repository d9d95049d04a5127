//! Property-based tests for the dataset substrate.

use proptest::prelude::*;
use rand::Rng;
use st_data::dataset::imbalance_ratio_of;
use st_data::{DatasetFamily, GaussianSliceModel, LabelCluster, SliceSpec, SlicedDataset};

fn arb_family() -> impl Strategy<Value = DatasetFamily> {
    (2usize..5, 2usize..4).prop_map(|(n_slices, dim)| {
        let slices = (0..n_slices)
            .map(|i| {
                let center: Vec<f64> = (0..dim).map(|d| (i * dim + d) as f64 * 0.5).collect();
                let cluster = LabelCluster::new(i % 2, 1.0, center, 0.5 + i as f64 * 0.1);
                SliceSpec::new(
                    format!("s{i}"),
                    1.0 + i as f64 * 0.25,
                    GaussianSliceModel::new(vec![cluster], 0.05),
                )
            })
            .collect();
        DatasetFamily::new("prop", dim, 2, slices)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn generation_sizes_always_honored(
        fam in arb_family(),
        sizes_seed in 0u64..1000,
        val in 1usize..20,
    ) {
        let sizes: Vec<usize> =
            (0..fam.num_slices()).map(|i| 1 + ((sizes_seed as usize + i * 7) % 40)).collect();
        let ds = SlicedDataset::generate(&fam, &sizes, val, sizes_seed);
        prop_assert_eq!(ds.train_sizes(), sizes);
        prop_assert!(ds.slices.iter().all(|s| s.validation.len() == val));
    }

    #[test]
    fn generation_is_pure(fam in arb_family(), seed in 0u64..500) {
        let sizes = vec![10; fam.num_slices()];
        let a = SlicedDataset::generate(&fam, &sizes, 5, seed);
        let b = SlicedDataset::generate(&fam, &sizes, 5, seed);
        prop_assert_eq!(a.all_train(), b.all_train());
    }

    #[test]
    fn imbalance_ratio_at_least_one(sizes in prop::collection::vec(1usize..1000, 1..10)) {
        let ir = imbalance_ratio_of(&sizes);
        prop_assert!(ir >= 1.0);
        // Scaling all sizes leaves the ratio unchanged.
        let doubled: Vec<usize> = sizes.iter().map(|s| s * 2).collect();
        prop_assert!((imbalance_ratio_of(&doubled) - ir).abs() < 1e-9);
    }

    #[test]
    fn joint_subset_is_per_slice_proportional(
        fam in arb_family(),
        frac in 0.1f64..1.0,
        seed in 0u64..200,
    ) {
        let sizes = vec![50; fam.num_slices()];
        let ds = SlicedDataset::generate(&fam, &sizes, 5, seed);
        let sub = ds.joint_train_subset_seeded(frac, seed, 3);
        for i in 0..fam.num_slices() {
            let k = sub.iter().filter(|e| e.slice.index() == i).count();
            let expected = (50.0 * frac).round() as usize;
            prop_assert!(k == expected.clamp(1, 50), "slice {i}: {k} vs {expected}");
        }
    }

    #[test]
    fn absorb_preserves_total_count(
        fam in arb_family(),
        extra in 1usize..30,
        seed in 0u64..200,
    ) {
        let sizes = vec![8; fam.num_slices()];
        let mut ds = SlicedDataset::generate(&fam, &sizes, 4, seed);
        let before = ds.all_train().len();
        let fresh = fam.sample_slice_seeded(st_data::SliceId(0), extra, seed, 99);
        ds.absorb(fresh);
        prop_assert_eq!(ds.all_train().len(), before + extra);
        prop_assert_eq!(ds.train_sizes()[0], 8 + extra);
    }

    #[test]
    fn sampled_features_are_finite(fam in arb_family(), seed in 0u64..200) {
        let ex = fam.sample_slice_seeded(st_data::SliceId(0), 50, seed, 0);
        prop_assert!(ex.iter().all(|e| e.features.iter().all(|f| f.is_finite())));
        prop_assert!(ex.iter().all(|e| e.label < fam.num_classes));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn csv_round_trip_is_lossless(
        rows in prop::collection::vec(
            (prop::collection::vec(-1e6f64..1e6, 3..=3), 0usize..5, 0usize..8),
            0..12,
        ),
    ) {
        let ex: Vec<st_data::Example> = rows
            .into_iter()
            .map(|(f, l, s)| st_data::Example::new(f, l, st_data::SliceId(s)))
            .collect();
        let back = st_data::read_examples(&st_data::write_examples(&ex)).unwrap();
        prop_assert_eq!(ex, back);
    }

    #[test]
    fn hflip_is_involutive_and_shift_composes(
        img in prop::collection::vec(-2.0f64..2.0, 24..=24),
        dy in -2i64..=2,
        dx in -2i64..=2,
    ) {
        // 4x6 image.
        let twice = st_data::augment::hflip(&st_data::augment::hflip(&img, 4, 6), 4, 6);
        prop_assert_eq!(&twice, &img);
        // Shifting there and back only loses what fell off the canvas:
        // surviving pixels match the original.
        let there = st_data::augment::shift(&img, 4, 6, dy, dx);
        let back = st_data::augment::shift(&there, 4, 6, -dy, -dx);
        for y in 0..4i64 {
            for x in 0..6i64 {
                let survived = y + dy >= 0 && y + dy < 4 && x + dx >= 0 && x + dx < 6;
                if survived {
                    prop_assert_eq!(back[(y * 6 + x) as usize], img[(y * 6 + x) as usize]);
                }
            }
        }
    }

    #[test]
    fn stratified_split_partitions_exactly(
        n in 4usize..60,
        frac in 0.0f64..1.0,
        seed in 0u64..100,
    ) {
        let ex: Vec<st_data::Example> = (0..n)
            .map(|i| st_data::Example::new(vec![i as f64], i % 3, st_data::SliceId(0)))
            .collect();
        let mut rng = st_data::seeded_rng(seed);
        let (train, val) = st_data::stratified_split(&ex, frac, &mut rng);
        prop_assert_eq!(train.len() + val.len(), n);
        // No example lost or duplicated.
        let mut ids: Vec<i64> = train.iter().chain(&val).map(|e| e.features[0] as i64).collect();
        ids.sort_unstable();
        let expect: Vec<i64> = (0..n as i64).collect();
        prop_assert_eq!(ids, expect);
    }

    /// The dense-snapshot cache contract: a cached `matrices()` read must
    /// be bit-identical to a from-scratch `build_matrices()` at every
    /// point of a mutate/read sequence — before any acquisition, after an
    /// acquisition step invalidates the (train half of the) cache, and
    /// after an explicit invalidation.
    #[test]
    fn cached_matrices_bit_identical_to_fresh_gather(
        fam in arb_family(),
        size_a in 1usize..20,
        size_b in 0usize..15,
        val in 1usize..10,
        grow in 1usize..12,
        seed in 0u64..1000,
    ) {
        let n = fam.num_slices();
        let mut sizes = vec![size_a; n];
        sizes[n - 1] = size_b;
        let mut ds = SlicedDataset::generate(&fam, &sizes, val, seed);

        let check = |ds: &SlicedDataset| {
            let cached = ds.matrices();
            let fresh = ds.build_matrices();
            assert_eq!(cached.train_x.as_slice(), fresh.train_x.as_slice());
            assert_eq!(cached.train_y, fresh.train_y);
            assert_eq!(cached.slice_rows, fresh.slice_rows);
            for s in 0..n {
                assert_eq!(cached.val_x[s].as_slice(), fresh.val_x[s].as_slice());
                assert_eq!(cached.val_y[s], fresh.val_y[s]);
            }
        };

        check(&ds);
        // Acquisition invalidates: the rebuilt snapshot must track it.
        ds.absorb(fam.sample_slice_seeded(st_data::SliceId(seed as usize % n), grow, seed, 7));
        check(&ds);
        // A second read is a cache hit — the same bits as a rebuild.
        check(&ds);
        ds.invalidate_matrices();
        check(&ds);
    }

    /// The snapshot's row-id subsets — the samplers the estimator runs —
    /// must name exactly the examples the cloning subsets pick (same RNG
    /// stream, same draws consumed), and the per-slice counts must equal
    /// the per-slice re-scan they replace.
    #[test]
    fn subset_rows_match_cloned_subsets(
        fam in arb_family(),
        size in 1usize..25,
        frac in 0.01f64..1.0,
        seed in 0u64..1000,
    ) {
        let n = fam.num_slices();
        let ds = SlicedDataset::generate(&fam, &vec![size; n], 2, seed);
        let m = ds.matrices();

        let sub = ds.joint_train_subset_seeded(frac, seed, 0);
        let rows = m.joint_subset_rows(frac, &mut st_data::seeded_rng(st_data::split_seed(seed, 0)));
        prop_assert_eq!(rows.rows.len(), sub.len());
        for (&r, e) in rows.rows.iter().zip(&sub) {
            prop_assert_eq!(m.train_x.row(r), &e.features[..]);
            prop_assert_eq!(m.train_y[r], e.label);
        }
        for s in 0..n {
            let scan = sub.iter().filter(|e| e.slice == st_data::SliceId(s)).count();
            prop_assert_eq!(rows.per_slice[s], scan);
        }

        let k = (size as f64 * frac).ceil() as usize;
        let mut rng1 = st_data::seeded_rng(seed ^ 5);
        let ex_sub = ds.exhaustive_train_subset(st_data::SliceId(0), k, &mut rng1);
        let mut rng2 = st_data::seeded_rng(seed ^ 5);
        let ex_rows = m.exhaustive_subset_rows(st_data::SliceId(0), k, &mut rng2);
        prop_assert_eq!(ex_rows.rows.len(), ex_sub.len());
        for (&r, e) in ex_rows.rows.iter().zip(&ex_sub) {
            prop_assert_eq!(m.train_x.row(r), &e.features[..]);
        }
        prop_assert_eq!(ex_rows.per_slice[0], k.min(size));
        prop_assert_eq!(rng1.gen::<u64>(), rng2.gen::<u64>());
    }

    #[test]
    fn image_samples_have_fixed_shape_and_finite_pixels(
        slice in 0usize..10,
        n in 1usize..20,
        seed in 0u64..50,
    ) {
        let fam = st_data::image_fashion();
        let mut rng = st_data::seeded_rng(seed);
        let ex = fam.sample_slice(st_data::SliceId(slice), n, &mut rng);
        prop_assert_eq!(ex.len(), n);
        for e in &ex {
            prop_assert_eq!(e.dim(), 64);
            prop_assert!(e.features.iter().all(|v| v.is_finite()));
            prop_assert!(e.label < 10);
        }
    }
}

// Drift plans must be a parse/print fixpoint and a pure function of the
// spec: the `ST_DRIFT` grammar round-trips through `Display` exactly
// (Rust's shortest-round-trip f64 printing makes magnitudes survive), and
// `drifted_model` is deterministic, applies an event only to its slice
// from its round onward, and leaves everything else on the stationary
// (allocation-free) path.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn drift_plan_specs_round_trip_through_display(
        events in prop::collection::vec(
            (0usize..3, 0u64..8, 0u64..10, -3.0f64..3.0),
            1..6,
        ),
    ) {
        use st_data::{DriftEvent, DriftKind, DriftPlan};
        let plan = DriftPlan {
            events: events
                .iter()
                .map(|&(k, slice, round, mag)| DriftEvent {
                    kind: [DriftKind::Shift, DriftKind::Label, DriftKind::Scale][k],
                    slice,
                    round,
                    mag,
                })
                .collect(),
        };
        let spec = plan
            .events
            .iter()
            .map(|e| e.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let reparsed = st_data::drift::parse_plan(&spec).expect("own output parses");
        prop_assert_eq!(reparsed, plan);
    }

    #[test]
    fn drifted_model_is_deterministic_and_scoped_to_its_event(
        kind in 0usize..3,
        slice in 0u64..4,
        round in 0u64..6,
        mag in 0.05f64..2.0,
        query_round in 0u64..8,
    ) {
        use st_data::{DriftEvent, DriftKind, DriftPlan};
        let base = GaussianSliceModel::new(
            vec![LabelCluster::new(0, 1.0, vec![0.5, -0.5], 0.7)],
            0.1,
        );
        let plan = DriftPlan {
            events: vec![DriftEvent {
                kind: [DriftKind::Shift, DriftKind::Label, DriftKind::Scale][kind],
                slice,
                round,
                mag,
            }],
        };
        let a = plan.drifted_model(&base, slice as usize, query_round);
        let b = plan.drifted_model(&base, slice as usize, query_round);
        prop_assert_eq!(&a, &b, "drifted_model must be pure");
        if query_round >= round {
            let drifted = a.expect("event round has passed; the model must drift");
            prop_assert_ne!(&drifted, &base, "a nonzero magnitude must change the model");
        } else {
            prop_assert!(a.is_none(), "the event has not fired yet");
        }
        // Other slices never see this event.
        prop_assert!(plan
            .drifted_model(&base, slice as usize + 1, query_round)
            .is_none());
    }
}
