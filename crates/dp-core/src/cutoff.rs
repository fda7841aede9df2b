//! Cutoff distance (`d_c`) estimation.
//!
//! `d_c` controls what "local" means in the density `rho`. Following the
//! original DP code and §III-A of the LSH-DDP paper, `d_c` is chosen so that
//! the average number of neighbors is a small fraction `t` (1%–2%) of the
//! data set: the `t`-quantile of the ascending set of all pairwise
//! distances.
//!
//! Computing all N(N-1)/2 distances is itself quadratic, so — exactly like
//! the paper's preprocessing MapReduce job — large data sets use *sampled*
//! estimation: a seeded subsample of point pairs whose distance quantile
//! approximates the population quantile.

use crate::distance::euclidean;
use crate::point::Dataset;

/// Default neighborhood fraction (2%, the value the paper uses).
pub const DEFAULT_PERCENTILE: f64 = 0.02;

/// Exact `d_c`: the `t`-quantile of all pairwise distances.
///
/// O(N²) time and O(N²) memory for the distance list; intended for data
/// sets up to a few tens of thousands of points and for validating the
/// sampled estimator.
///
/// # Panics
/// Panics if `t` is outside `(0, 1]` or the dataset has fewer than 2 points.
pub fn estimate_dc_exact(ds: &Dataset, t: f64) -> f64 {
    assert!(t > 0.0 && t <= 1.0, "percentile must be in (0, 1], got {t}");
    let n = ds.len();
    assert!(n >= 2, "need at least two points to estimate d_c");
    let mut dists = Vec::with_capacity(n * (n - 1) / 2);
    for i in 0..n {
        let pi = ds.point(i as u32);
        for j in (i + 1)..n {
            dists.push(euclidean(pi, ds.point(j as u32)));
        }
    }
    quantile_in_place(&mut dists, t)
}

/// Sampled `d_c`: draws `samples` random point pairs (deterministic in
/// `seed`) and takes the `t`-quantile of their distances.
///
/// This mirrors the paper's preprocessing job, whose `map()` samples point
/// pairs and whose single `reduce()` sorts the sampled distances.
///
/// # Panics
/// Panics if `t` is outside `(0, 1]`, `samples == 0`, or the dataset has
/// fewer than 2 points.
pub fn estimate_dc_sampled(ds: &Dataset, t: f64, samples: usize, seed: u64) -> f64 {
    assert!(t > 0.0 && t <= 1.0, "percentile must be in (0, 1], got {t}");
    assert!(samples > 0, "need at least one sample");
    let n = ds.len() as u64;
    assert!(n >= 2, "need at least two points to estimate d_c");

    // SplitMix64: tiny, seedable, and good enough for pair sampling without
    // pulling a rand dependency into this low-level crate.
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };

    let mut dists = Vec::with_capacity(samples);
    while dists.len() < samples {
        let i = (next() % n) as u32;
        let j = (next() % n) as u32;
        if i == j {
            continue;
        }
        dists.push(euclidean(ds.point(i), ds.point(j)));
    }
    quantile_in_place(&mut dists, t)
}

/// The `t`-quantile of `values` (ascending), by selection; mutates order.
///
/// Uses the "nearest rank" definition the original DP code applies:
/// index `round(t * len) - 1`, clamped into range.
pub fn quantile_in_place(values: &mut [f64], t: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of empty slice");
    let len = values.len();
    let rank = ((t * len as f64).round() as usize).clamp(1, len) - 1;
    let (_, v, _) =
        values.select_nth_unstable_by(rank, |a, b| a.partial_cmp(b).expect("NaN distance"));
    *v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_dataset(n: usize) -> Dataset {
        // Points at 0, 1, 2, ..., n-1 on a line.
        Dataset::from_flat(1, (0..n).map(|i| i as f64).collect())
    }

    #[test]
    fn quantile_nearest_rank() {
        let mut v = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile_in_place(&mut v.clone(), 0.2), 1.0);
        assert_eq!(quantile_in_place(&mut v.clone(), 0.5), 3.0);
        assert_eq!(quantile_in_place(&mut v, 1.0), 5.0);
    }

    #[test]
    fn quantile_small_t_clamps_to_minimum() {
        let mut v = vec![9.0, 7.0, 8.0];
        assert_eq!(quantile_in_place(&mut v, 1e-9), 7.0);
    }

    #[test]
    fn exact_dc_on_line() {
        let ds = line_dataset(10);
        // Pairwise distances are 1..=9 with multiplicities 9,8,...,1 (45 total).
        // The 20%-quantile is the 9th smallest = 1.0.
        assert_eq!(estimate_dc_exact(&ds, 0.2), 1.0);
        // The maximum is 9.
        assert_eq!(estimate_dc_exact(&ds, 1.0), 9.0);
    }

    #[test]
    fn sampled_dc_approximates_exact() {
        let ds = line_dataset(200);
        let exact = estimate_dc_exact(&ds, 0.05);
        let sampled = estimate_dc_sampled(&ds, 0.05, 20_000, 42);
        let rel = (sampled - exact).abs() / exact;
        assert!(rel < 0.15, "sampled {sampled} vs exact {exact} (rel {rel})");
    }

    #[test]
    fn sampled_dc_is_deterministic_in_seed() {
        let ds = line_dataset(100);
        let a = estimate_dc_sampled(&ds, 0.02, 1000, 7);
        let b = estimate_dc_sampled(&ds, 0.02, 1000, 7);
        assert_eq!(a, b);
        let c = estimate_dc_sampled(&ds, 0.02, 1000, 8);
        // Different seed will generally pick a different sample set.
        // (Equality is possible but would be a coincidence on this data.)
        let _ = c;
    }

    #[test]
    #[should_panic(expected = "percentile must be in")]
    fn rejects_zero_percentile() {
        let ds = line_dataset(10);
        let _ = estimate_dc_exact(&ds, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn rejects_single_point() {
        let ds = line_dataset(1);
        let _ = estimate_dc_exact(&ds, 0.5);
    }
}
