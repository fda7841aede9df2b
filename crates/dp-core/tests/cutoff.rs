//! `d_c` estimation against its definition: the plain loops it replaced,
//! which take one `sqrt` per pair, keep every distance and select the
//! nearest rank among all of them. Estimates must agree bit for bit.
//!
//! Rows are drawn from a pool of distinct rows, often a small one, so
//! duplicates (and `d² = 0` ties at the low quantiles) are common; sample
//! counts run below and across the sampler's lane and block widths.

use dp_core::cutoff::{
    estimate_dc_exact, estimate_dc_sampled, for_each_sampled_d2, DistanceQuantile,
};
use dp_core::distance::{euclidean, squared_euclidean};
use dp_core::Dataset;
use proptest::prelude::*;

const DIMS: [usize; 5] = [1, 2, 4, 17, 74];
const PERCENTILES: [f64; 4] = [1e-9, 0.02, 0.5, 1.0];

/// SplitMix64, seeded as `estimate_dc_sampled` seeds it.
struct SplitMix(u64);
impl SplitMix {
    fn new(seed: u64) -> Self {
        SplitMix(seed.wrapping_add(0x9E37_79B9_7F4A_7C15))
    }
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The nearest-rank quantile: index `round(t * len) - 1`, clamped.
fn quantile_in_place(values: &mut [f64], t: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of empty slice");
    let len = values.len();
    let rank = ((t * len as f64).round() as usize).clamp(1, len) - 1;
    let (_, v, _) =
        values.select_nth_unstable_by(rank, |a, b| a.partial_cmp(b).expect("NaN distance"));
    *v
}

fn exact_by_definition(ds: &Dataset, t: f64) -> f64 {
    let n = ds.len();
    let mut dists = Vec::with_capacity(n * (n - 1) / 2);
    for i in 0..n {
        let pi = ds.point(i as u32);
        for j in (i + 1)..n {
            dists.push(euclidean(pi, ds.point(j as u32)));
        }
    }
    quantile_in_place(&mut dists, t)
}

/// The sampled pairs' squared distances, in draw order.
fn sampled_d2_by_definition(ds: &Dataset, samples: usize, seed: u64) -> Vec<f64> {
    let n = ds.len() as u64;
    let mut rng = SplitMix::new(seed);
    let mut d2 = Vec::with_capacity(samples);
    while d2.len() < samples {
        let i = (rng.next() % n) as u32;
        let j = (rng.next() % n) as u32;
        if i == j {
            continue;
        }
        d2.push(squared_euclidean(ds.point(i), ds.point(j)));
    }
    d2
}

fn sampled_by_definition(ds: &Dataset, t: f64, samples: usize, seed: u64) -> f64 {
    let mut dists: Vec<f64> = sampled_d2_by_definition(ds, samples, seed)
        .into_iter()
        .map(f64::sqrt)
        .collect();
    quantile_in_place(&mut dists, t)
}

/// `n` rows of dimension `dim`, each a copy of one of `distinct` pool
/// rows. A coarse grid makes distinct pairs tie too; a fine one keeps the
/// neighbouring ranks apart, so that an off-by-one rank shows.
fn rows(seed: u64, n: usize, dim: usize, distinct: usize) -> Dataset {
    let mut rng = SplitMix::new(seed ^ 0x5EED);
    let step = if seed.is_multiple_of(2) {
        0.25
    } else {
        1.0 / 1024.0
    };
    let pool: Vec<f64> = (0..distinct * dim)
        .map(|_| (rng.next() % 4096) as f64 * step - 1.0)
        .collect();
    let mut flat = Vec::with_capacity(n * dim);
    for _ in 0..n {
        let r = (rng.next() % distinct as u64) as usize;
        flat.extend_from_slice(&pool[r * dim..][..dim]);
    }
    Dataset::from_flat(dim, flat)
}

/// `n` rows of dimension `dim` around `clusters` centres spread over a
/// box a thousand times wider than each cluster: a pair across two
/// clusters passes a low quantile within its first few dimensions.
fn clustered(seed: u64, n: usize, dim: usize, clusters: usize) -> Dataset {
    let mut rng = SplitMix::new(seed ^ 0xC1u64);
    let centres: Vec<f64> = (0..clusters * dim)
        .map(|_| (rng.next() % 4096) as f64 - 2048.0)
        .collect();
    let mut flat = Vec::with_capacity(n * dim);
    for _ in 0..n {
        let c = (rng.next() % clusters as u64) as usize;
        for d in 0..dim {
            flat.push(centres[c * dim + d] + (rng.next() % 1024) as f64 / 1024.0);
        }
    }
    Dataset::from_flat(dim, flat)
}

/// `n` rows of dimension `dim` over `±1e308`, `±0.0` and `1.0`. The
/// difference of `1e308` and `-1e308` overflows to `inf`, and the square
/// of `1e308 - 1.0` does, and so does every partial sum after either.
fn extreme(seed: u64, n: usize, dim: usize) -> Dataset {
    const VALUES: [f64; 5] = [1e308, -1e308, -0.0, 0.0, 1.0];
    let mut rng = SplitMix::new(seed ^ 0xE7u64);
    let mut flat = Vec::with_capacity(n * dim);
    for _ in 0..n {
        // Three rows in four hold one value throughout, so that small
        // distances are common.
        let base = VALUES[(rng.next() % 5) as usize];
        let mixed = rng.next().is_multiple_of(4);
        for _ in 0..dim {
            flat.push(if mixed {
                VALUES[(rng.next() % 5) as usize]
            } else {
                base
            });
        }
    }
    Dataset::from_flat(dim, flat)
}

/// The row families: 0 the box rows of [`rows`], 1 clustered rows,
/// 2 extreme values, 3 one row repeated (every `d² = 0`).
fn rows_of(kind: usize, seed: u64, n: usize, dim: usize, distinct: usize) -> Dataset {
    match kind {
        0 => rows(seed, n, dim, distinct),
        1 => clustered(seed, n, dim, 1 + distinct % 24),
        2 => extreme(seed, n, dim),
        _ => rows(seed, n, dim, 1),
    }
}

fn sorted_bits(values: &[f64]) -> Vec<u64> {
    let mut bits: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
    bits.sort_unstable();
    bits
}

/// Half the cases stay within two draw blocks of 64 pairs.
fn samples() -> impl Strategy<Value = usize> {
    (any::<bool>(), 1usize..=130, 1usize..5000).prop_map(|(few, a, b)| if few { a } else { b })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sampled_matches_the_definition(
        seed in any::<u64>(), dim_ix in 0usize..5, n in 2usize..400,
        distinct in 1usize..400, t_ix in 0usize..4, samples in samples(),
    ) {
        let ds = rows(seed, n, DIMS[dim_ix], distinct);
        let t = PERCENTILES[t_ix];
        let want = sampled_by_definition(&ds, t, samples, seed);
        let got = estimate_dc_sampled(&ds, t, samples, seed);
        prop_assert_eq!(got.to_bits(), want.to_bits(), "{} vs {}", got, want);
    }

    /// The sampler visits each of the definition's pairs once, and hands
    /// on every value at or below the bound exactly: the values it visits
    /// at or below the final bound are the definition's values there, bit
    /// for bit, and it visits `samples` values in all. The bound falls as
    /// a selector's does, from the definition's value at one rank of
    /// `samples` (past the last one: infinite) to that at a lower rank
    /// halfway through.
    #[test]
    fn sampler_hands_on_the_definitions_values_below_the_bound(
        seed in any::<u64>(), kind in 0usize..4, dim_ix in 0usize..5, n in 2usize..400,
        distinct in 1usize..400, samples in samples(), ranks in (0usize..5000, 0usize..5000),
    ) {
        let ds = rows_of(kind, seed, n, DIMS[dim_ix], distinct);
        let want = sampled_d2_by_definition(&ds, samples, seed);
        let mut sorted = want.clone();
        sorted.sort_unstable_by(f64::total_cmp);
        let at = |rank: usize| sorted.get(rank).copied().unwrap_or(f64::INFINITY);
        let (tight, loose) = (at(ranks.0.min(ranks.1)), at(ranks.0.max(ranks.1)));
        let mut rng = SplitMix::new(seed);
        let mut got = Vec::new();
        for_each_sampled_d2(ds.as_flat(), ds.dim(), samples, || rng.next(), |d2| {
            got.push(d2);
            if got.len() < samples / 2 { loose } else { tight }
        });
        let below = |v: &[f64]| {
            sorted_bits(&v.iter().copied().filter(|&x| x <= tight).collect::<Vec<_>>())
        };
        prop_assert_eq!(got.len(), samples);
        prop_assert_eq!(below(&got), below(&want));
    }

    /// Rows whose partial sums pass a low quantile early, and rows that
    /// stress the cut-short pairs' arithmetic, against the definition.
    #[test]
    fn sampled_matches_the_definition_where_pairs_are_cut_short(
        seed in any::<u64>(), kind in 1usize..4, dim_ix in 0usize..3, n in 2usize..400,
        t_ix in 0usize..4, samples in samples(),
    ) {
        let ds = rows_of(kind, seed, n, [8, 17, 74][dim_ix], n);
        let t = PERCENTILES[t_ix];
        let want = sampled_by_definition(&ds, t, samples, seed);
        let got = estimate_dc_sampled(&ds, t, samples, seed);
        prop_assert_eq!(got.to_bits(), want.to_bits(), "{} vs {}", got, want);
    }

    #[test]
    fn exact_matches_the_definition(
        seed in any::<u64>(), dim_ix in 0usize..5, n in 2usize..400,
        distinct in 1usize..400, t_ix in 0usize..4,
    ) {
        let ds = rows(seed, n, DIMS[dim_ix], distinct);
        let t = PERCENTILES[t_ix];
        let want = exact_by_definition(&ds, t);
        let got = estimate_dc_exact(&ds, t);
        prop_assert_eq!(got.to_bits(), want.to_bits(), "{} vs {}", got, want);
    }
}

/// One NaN row among two: every pair meets it.
fn nan_pair(dim: usize) -> Dataset {
    let mut flat = vec![0.5; 2 * dim];
    flat[dim + dim / 2] = f64::NAN;
    Dataset::from_flat(dim, flat)
}

#[test]
#[should_panic(expected = "NaN distance")]
fn sampled_panics_on_a_nan_row() {
    let _ = estimate_dc_sampled(&nan_pair(74), 0.02, 1000, 1);
}

#[test]
#[should_panic(expected = "NaN distance")]
fn sampled_panics_on_a_nan_row_below_a_lane_group() {
    let _ = estimate_dc_sampled(&nan_pair(4), 0.5, 3, 1);
}

/// A NaN that only late pairs reach, deep in its row: the sampler's
/// first fill misses the row, and the row's first coordinate sets it so
/// far from the four clusters that every pair with it would be cut short
/// within its first few dimensions.
#[test]
#[should_panic(expected = "NaN distance")]
fn sampled_panics_on_a_nan_row_reached_after_the_first_fill() {
    let (n, dim, samples, seed) = (300, 74, 5000, 3);
    // At 2%, k = 100: the first fill is the first 200 pairs, and the
    // sampler draws a block of 64 ahead of them.
    let mut rng = SplitMix::new(seed);
    let mut order = Vec::new();
    while order.len() < samples {
        let (i, j) = (rng.next() % n as u64, rng.next() % n as u64);
        if i != j {
            order.push((i, j));
        }
    }
    let early = |r: u64| order[..264].iter().any(|&(i, j)| i == r || j == r);
    let late = (0..n as u64)
        .find(|&r| !early(r))
        .expect("a row the fill misses");
    assert!(order.iter().any(|&(i, j)| i == late || j == late));
    let mut flat = clustered(seed, n, dim, 4).as_flat().to_vec();
    flat[late as usize * dim] = 1e6;
    flat[late as usize * dim + 60] = f64::NAN;
    let _ = estimate_dc_sampled(&Dataset::from_flat(dim, flat), 0.02, samples, seed);
}

#[test]
#[should_panic(expected = "NaN distance")]
fn exact_panics_on_a_nan_row() {
    let _ = estimate_dc_exact(&nan_pair(2), 1.0);
}

fn quantile(d2: &[f64], t: f64) -> f64 {
    let mut q = DistanceQuantile::new(t, d2.len()).unwrap();
    d2.iter().for_each(|&v| q.push(v));
    q.distance()
}

#[test]
fn quantile_survives_many_cuts() {
    // k = 3: the buffer of 6 fills and is cut many times, on a descending
    // stream that passes every value through the bound.
    let v: Vec<f64> = (0..100).rev().map(|i| (i * i) as f64).collect();
    assert_eq!(quantile(&v, 0.03), 2.0);
}

#[test]
fn quantile_keeps_infinite_values() {
    let inf = f64::INFINITY;
    assert_eq!(quantile(&[inf, inf, 4.0], 1.0), inf);
    // k = 1: every push after the first cut ties the bound.
    assert_eq!(quantile(&[inf; 5], 0.2), inf);
}

#[test]
#[should_panic(expected = "NaN distance")]
fn quantile_rejects_nan_after_a_cut() {
    let _ = quantile(&[1.0, 2.0, 3.0, f64::NAN], 0.25);
}

#[test]
#[should_panic(expected = "pushed 1 of 2 values")]
fn quantile_counts_its_values() {
    let mut q = DistanceQuantile::new(0.5, 2).unwrap();
    q.push(1.0);
    let _ = q.distance();
}
