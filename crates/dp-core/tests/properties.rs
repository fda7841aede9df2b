//! Property-based tests of the core DP invariants and quality metrics.

use dp_core::distance::squared_euclidean;
use dp_core::dp::NO_UPSLOPE;
use dp_core::{compute_exact, decision, quality, Dataset};
use proptest::prelude::*;

fn dataset_strategy() -> impl Strategy<Value = (Dataset, f64)> {
    (1usize..=3, 2usize..=50)
        .prop_flat_map(|(dim, n)| {
            (
                proptest::collection::vec(-100.0f64..100.0, dim * n),
                Just(dim),
                0.1f64..50.0,
            )
        })
        .prop_map(|(flat, dim, dc)| (Dataset::from_flat(dim, flat), dc))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// rho is bounded by N-1 and symmetric in the pair relation: the
    /// total neighbor count equals twice the number of close pairs.
    #[test]
    fn rho_counts_are_consistent((ds, dc) in dataset_strategy()) {
        let r = compute_exact(&ds, dc);
        let n = ds.len();
        let total: u64 = r.rho.iter().map(|&x| x as u64).sum();
        // Brute-force the pair count with the kernels' predicate,
        // `d² < d_c²`, so borderline pairs are judged alike.
        let mut pairs_within = 0u64;
        for i in 0..n {
            for j in (i + 1)..n {
                let d2 = squared_euclidean(ds.point(i as u32), ds.point(j as u32));
                if d2 < dc * dc {
                    pairs_within += 1;
                }
            }
        }
        prop_assert_eq!(total, 2 * pairs_within);
        prop_assert!(r.rho.iter().all(|&x| (x as usize) < n));
    }

    /// Exactly one absolute peak exists; its delta is the max distance
    /// from it; every other point's upslope is strictly denser.
    #[test]
    fn single_absolute_peak((ds, dc) in dataset_strategy()) {
        let r = compute_exact(&ds, dc);
        let peaks: Vec<usize> = (0..r.len())
            .filter(|&i| r.upslope[i] == NO_UPSLOPE)
            .collect();
        prop_assert_eq!(peaks.len(), 1);
        let p = peaks[0] as u32;
        // The peak maximizes (rho, id) lexicographically.
        for i in 0..r.len() as u32 {
            if i != p {
                prop_assert!(dp_core::dp::denser(r.rho[p as usize], p, r.rho[i as usize], i));
            }
        }
    }

    /// delta_i is realized: d(i, upslope_i) == delta_i, and no denser
    /// point is closer.
    #[test]
    fn delta_is_realized_and_minimal((ds, dc) in dataset_strategy()) {
        let r = compute_exact(&ds, dc);
        for i in 0..r.len() as u32 {
            let u = r.upslope[i as usize];
            if u == NO_UPSLOPE {
                continue;
            }
            let d = dp_core::distance::euclidean(ds.point(i), ds.point(u));
            prop_assert!((d - r.delta[i as usize]).abs() < 1e-9);
            for j in 0..r.len() as u32 {
                if j == i {
                    continue;
                }
                if dp_core::dp::denser(r.rho[j as usize], j, r.rho[i as usize], i) {
                    let dj = dp_core::distance::euclidean(ds.point(i), ds.point(j));
                    prop_assert!(dj >= r.delta[i as usize] - 1e-9);
                }
            }
        }
    }

    /// Scaling all coordinates scales every delta by the same factor and
    /// leaves rho unchanged (with dc scaled too).
    #[test]
    fn dp_is_scale_equivariant((ds, dc) in dataset_strategy(), factor in 0.1f64..10.0) {
        let r1 = compute_exact(&ds, dc);
        let scaled = Dataset::from_flat(
            ds.dim(),
            ds.as_flat().iter().map(|x| x * factor).collect(),
        );
        let r2 = compute_exact(&scaled, dc * factor);
        prop_assert_eq!(&r1.rho, &r2.rho);
        for (a, b) in r1.delta.iter().zip(&r2.delta) {
            prop_assert!((a * factor - b).abs() < 1e-6 * (1.0 + b.abs()));
        }
    }

    /// Quality metric ranges.
    #[test]
    fn metric_ranges(
        a in proptest::collection::vec(0u32..5, 2..60),
        seed in any::<u64>(),
    ) {
        // A pseudo-random second labeling of the same length.
        let b: Vec<u32> = a
            .iter()
            .enumerate()
            .map(|(i, _)| ((seed >> (i % 48)) as u32 ^ i as u32) % 5)
            .collect();
        let ari = quality::adjusted_rand_index(&a, &b);
        prop_assert!((-1.0..=1.0 + 1e-12).contains(&ari));
        let nmi = quality::normalized_mutual_information(&a, &b);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&nmi));
        let p = quality::purity(&a, &b);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&p));
        let (pr, rc, f1) = quality::pairwise_f1(&a, &b);
        for v in [pr, rc, f1] {
            prop_assert!((0.0..=1.0 + 1e-12).contains(&v));
        }
    }

    /// tau metrics: identity gives 1; tau1 <= 1 always; tau2 can be
    /// negative only when estimates wildly overshoot.
    #[test]
    fn tau_metric_properties(rho in proptest::collection::vec(0u32..100, 1..50)) {
        prop_assert_eq!(quality::tau1(&rho, &rho), 1.0);
        prop_assert_eq!(quality::tau2(&rho, &rho), 1.0);
        // Underestimates keep tau2 in [0, 1].
        let under: Vec<u32> = rho.iter().map(|&x| x / 2).collect();
        let t2 = quality::tau2(&rho, &under);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&t2));
    }

    /// Normalization maps into the unit box and is idempotent.
    #[test]
    fn normalize_into_unit_box(flat in proptest::collection::vec(-1e6f64..1e6, 4..60)) {
        let dim = 2;
        let flat = &flat[..(flat.len() / dim) * dim];
        let mut ds = Dataset::from_flat(dim, flat.to_vec());
        ds.normalize_min_max();
        for (_, p) in ds.iter() {
            for &x in p {
                prop_assert!((-1e-12..=1.0 + 1e-12).contains(&x));
            }
        }
        let once = ds.clone();
        ds.normalize_min_max();
        for (a, b) in once.as_flat().iter().zip(ds.as_flat()) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    /// The Gaussian-kernel variant produces a valid rank permutation and
    /// the same absolute peak ordering semantics.
    #[test]
    fn kernel_rank_is_valid((ds, dc) in dataset_strategy()) {
        let k = dp_core::compute_gaussian(&ds, dc);
        let mut ranks = k.result.rho.clone();
        ranks.sort_unstable();
        let expected: Vec<u32> = (0..ds.len() as u32).collect();
        prop_assert_eq!(ranks, expected);
        let abs_peaks = k.result.upslope.iter().filter(|&&u| u == NO_UPSLOPE).count();
        prop_assert_eq!(abs_peaks, 1);
    }

    /// select_top_k returns k distinct in-range ids (or all points when
    /// k >= N).
    #[test]
    fn top_k_shape((ds, dc) in dataset_strategy(), k in 1usize..10) {
        let r = compute_exact(&ds, dc);
        let peaks = decision::select_top_k(&r, k);
        prop_assert_eq!(peaks.len(), k.min(ds.len()));
        let set: std::collections::HashSet<_> = peaks.iter().collect();
        prop_assert_eq!(set.len(), peaks.len());
        prop_assert!(peaks.iter().all(|&p| (p as usize) < ds.len()));
    }
}
