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
//!
//! Every estimate, here and in the distributed preprocessing job, is one
//! [`DistanceQuantile`] fed squared distances: by all pairs
//! ([`crate::for_each_pair_d2`]) or by drawn pairs
//! ([`for_each_sampled_d2`]).

use crate::distance::squared_euclidean_lanes;
use crate::point::Dataset;

/// Exact `d_c`: the `t`-quantile of all pairwise distances.
///
/// O(N²) time and O(N²) memory reserved, of which O(t·N²) is written;
/// intended for data sets up to a few tens of thousands of points and for
/// validating the sampled estimator.
///
/// # Panics
/// Panics if `t` is outside `(0, 1]` or the dataset has fewer than 2 points.
pub fn estimate_dc_exact(ds: &Dataset, t: f64) -> f64 {
    assert!(t > 0.0 && t <= 1.0, "percentile must be in (0, 1], got {t}");
    let n = ds.len();
    assert!(n >= 2, "need at least two points to estimate d_c");
    let mut q = DistanceQuantile::new(t, n * (n - 1) / 2);
    crate::for_each_pair_d2(ds.as_flat(), ds.dim(), |_, _, d2| q.push(d2));
    q.distance()
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
    assert!(ds.len() >= 2, "need at least two points to estimate d_c");

    // SplitMix64: tiny, seedable, and good enough for pair sampling without
    // pulling a rand dependency into this low-level crate.
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };

    let mut q = DistanceQuantile::new(t, samples);
    for_each_sampled_d2(ds.as_flat(), ds.dim(), samples, next, |d2| q.push(d2));
    q.distance()
}

/// Pairs evaluated side by side, as independent add chains; eight
/// measured no faster than four at 74-D.
const PAIR_LANES: usize = 4;

/// Pairs drawn ahead of their evaluation: each pair's rows are prefetched
/// when it is drawn, and a full block of draws separates that from the
/// pair's use.
const DRAW_BLOCK: usize = 64;

/// Visits the squared distances of `samples` random pairs of distinct rows
/// of a flat row-major point block.
///
/// Each pair is `(draw() % n, draw() % n)`, redrawn while the two rows
/// are the same, so the pairs are a pure function of `draw`'s stream. The
/// draws are made a block at a time, and the block's pairs are evaluated
/// four at a time in independent accumulators, each bit for bit
/// [`crate::distance::squared_euclidean`]. Distances arrive block by
/// block, not in draw order; an order statistic does not care.
///
/// # Panics
/// Panics if `dim` is zero, `flat.len()` is not a multiple of `dim`, or
/// the block holds fewer than 2 rows.
pub fn for_each_sampled_d2(
    flat: &[f64],
    dim: usize,
    samples: usize,
    mut draw: impl FnMut() -> u64,
    mut visit: impl FnMut(f64),
) {
    assert!(dim > 0, "dimension must be positive");
    assert_eq!(
        flat.len() % dim,
        0,
        "point block length must be a multiple of dim"
    );
    let n = (flat.len() / dim) as u64;
    assert!(n >= 2, "need at least two points to sample pairs");
    let row = |i: usize| &flat[i * dim..][..dim];

    let mut block = [(0, 0); DRAW_BLOCK];
    let mut left = samples;
    while left > 0 {
        let m = left.min(DRAW_BLOCK);
        left -= m;
        for pair in &mut block[..m] {
            *pair = loop {
                let i = (draw() % n) as usize;
                let j = (draw() % n) as usize;
                if i != j {
                    break (i, j);
                }
            };
            prefetch(row(pair.0));
            prefetch(row(pair.1));
        }
        for group in block[..m].chunks(PAIR_LANES) {
            // A short last group repeats its first pair in the spare
            // lanes and reads back only its own.
            let pair = |l: usize| *group.get(l).unwrap_or(&group[0]);
            let d2: [f64; PAIR_LANES] = squared_euclidean_lanes(
                std::array::from_fn(|l| row(pair(l).0)),
                std::array::from_fn(|l| row(pair(l).1)),
                dim,
            );
            d2[..group.len()].iter().for_each(|&v| visit(v));
        }
    }
}

/// Asks the cache for the lines holding `row`'s first and last
/// coordinates: the whole row up to 8-D wherever it starts, and the two
/// ends of a wider row, whose middle the hardware prefetcher streams in.
#[inline(always)]
fn prefetch(row: &[f64]) {
    #[cfg(target_arch = "x86_64")]
    for x in [row.first(), row.last()].into_iter().flatten() {
        // SAFETY: a prefetch is a hint that never faults and changes no
        // memory; `x` borrows a live element of `row`. `tests/cutoff.rs`
        // (`sampled_matches_the_definition`) drives every sampled pair
        // through here and checks the bits against the plain loop.
        unsafe {
            std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(
                std::ptr::from_ref(x).cast(),
            )
        };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = row;
}

/// The nearest-rank `t`-quantile of a stream of `len` squared distances,
/// returned as a distance.
///
/// The rank is the original DP code's: index `round(t * len) - 1` of the
/// ascending values, clamped into range. Selecting on `d²` and taking one
/// `sqrt` of the winner gives the same bits as taking the rank of the
/// distances themselves, because `sqrt` is monotone and correctly rounded.
///
/// Only the `k = rank + 1` smallest values matter. A value above the
/// k-th smallest seen so far is dropped on arrival, and the rest fill a
/// buffer of `2k` that is cut back to its `k` smallest whenever it fills:
/// the exact k-th order statistic in amortised `O(len)` time, writing at
/// most `2k` slots.
#[derive(Debug)]
pub struct DistanceQuantile {
    kept: Vec<f64>,
    k: usize,
    len: usize,
    seen: usize,
    /// The k-th smallest value seen so far, once `kept` has first filled.
    bound: f64,
}

impl DistanceQuantile {
    /// A quantile `t` of `len` values still to be pushed.
    ///
    /// # Panics
    /// Panics if `len` is zero.
    pub fn new(t: f64, len: usize) -> Self {
        assert!(len > 0, "quantile of an empty set");
        DistanceQuantile {
            // Reserved for all `len` values although at most `2k` slots are
            // ever written: pages past those are never touched, so they cost
            // no resident memory. A smaller block would be worse: glibc
            // raises its mmap threshold when a mapped block of 128 KiB to
            // 32 MiB is freed, and the fit after an estimate then keeps
            // more of its heap resident (+3% peak RSS on a 76k x 4-D fit).
            kept: Vec::with_capacity(len),
            k: ((t * len as f64).round() as usize).clamp(1, len),
            len,
            seen: 0,
            bound: f64::INFINITY,
        }
    }

    /// Adds one squared distance.
    ///
    /// # Panics
    /// Panics with "NaN distance" if `d2` is NaN.
    #[inline]
    pub fn push(&mut self, d2: f64) {
        self.seen += 1;
        if d2 <= self.bound {
            self.kept.push(d2);
            if self.kept.len() == 2 * self.k {
                self.cut();
            }
        } else if d2.is_nan() {
            panic!("NaN distance");
        }
    }

    /// Keeps the `k` smallest values, and bounds what is kept from now on
    /// by the largest of them.
    fn cut(&mut self) {
        let k = self.k;
        self.kept.select_nth_unstable_by(k - 1, f64::total_cmp);
        self.kept.truncate(k);
        self.bound = self.kept[k - 1];
    }

    /// The quantile, as a (non-squared) distance.
    ///
    /// # Panics
    /// Panics if the number of values pushed is not the `len` given to
    /// [`DistanceQuantile::new`].
    pub fn distance(mut self) -> f64 {
        assert_eq!(
            self.seen, self.len,
            "pushed {} of {} values",
            self.seen, self.len
        );
        let (_, d2, _) = self.kept.select_nth_unstable_by(self.k - 1, f64::total_cmp);
        d2.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_dataset(n: usize) -> Dataset {
        // Points at 0, 1, 2, ..., n-1 on a line.
        Dataset::from_flat(1, (0..n).map(|i| i as f64).collect())
    }

    fn quantile(d2: &[f64], t: f64) -> f64 {
        let mut q = DistanceQuantile::new(t, d2.len());
        d2.iter().for_each(|&v| q.push(v));
        q.distance()
    }

    #[test]
    fn quantile_nearest_rank() {
        let v = [25.0, 1.0, 9.0, 4.0, 16.0];
        assert_eq!(quantile(&v, 0.2), 1.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
    }

    #[test]
    fn quantile_small_t_clamps_to_minimum() {
        assert_eq!(quantile(&[81.0, 49.0, 64.0], 1e-9), 7.0);
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
