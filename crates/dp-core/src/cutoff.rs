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

use std::collections::TryReserveError;

use crate::distance::squared_euclidean_lanes;
use crate::point::Dataset;

/// Exact `d_c`: the `t`-quantile of all pairwise distances.
///
/// O(N²) time and O(t·N²) memory written; intended for data sets up to a
/// few tens of thousands of points and for validating the sampled
/// estimator.
///
/// # Panics
/// Panics if `t` is outside `(0, 1]` or the dataset has fewer than 2 points.
pub fn estimate_dc_exact(ds: &Dataset, t: f64) -> f64 {
    assert!(t > 0.0 && t <= 1.0, "percentile must be in (0, 1], got {t}");
    let n = ds.len();
    assert!(n >= 2, "need at least two points to estimate d_c");
    let mut q = DistanceQuantile::new(t, n * (n - 1) / 2).expect("room for the selector");
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
/// Panics if `t` is outside `(0, 1]`, `samples == 0`, the dataset has
/// fewer than 2 points, or the selector for `samples` values cannot be
/// reserved (see [`try_estimate_dc_sampled`]).
pub fn estimate_dc_sampled(ds: &Dataset, t: f64, samples: usize, seed: u64) -> f64 {
    try_estimate_dc_sampled(ds, t, samples, seed)
        .unwrap_or_else(|e| panic!("d_c selector for {samples} pairs: {e}"))
}

/// [`estimate_dc_sampled`], returning the error when the selector for
/// `samples` values cannot be reserved instead of panicking.
///
/// # Panics
/// Panics if `t` is outside `(0, 1]`, `samples == 0`, or the dataset has
/// fewer than 2 points.
pub fn try_estimate_dc_sampled(
    ds: &Dataset,
    t: f64,
    samples: usize,
    seed: u64,
) -> Result<f64, TryReserveError> {
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
    sampled_quantile(ds.as_flat(), ds.dim(), t, samples, next)
}

/// The nearest-rank `t`-quantile, as a distance, of the `samples` pairs
/// [`for_each_sampled_d2`] draws from `draw`.
///
/// The selector proposes a candidate bound at its first fill (see
/// [`DistanceQuantile`]), and the sampler cuts short every later pair
/// whose partial sum passes it. If the answer turns out to lie above the
/// candidate, the draws are replayed without one, from a clone of `draw`
/// taken before the first draw. The result is the same bits either way.
///
/// # Errors
/// Returns the error of reserving the selector's buffer.
///
/// # Panics
/// As [`for_each_sampled_d2`], and with "NaN distance" if a drawn pair's
/// distance is NaN.
pub fn sampled_quantile(
    flat: &[f64],
    dim: usize,
    t: f64,
    samples: usize,
    draw: impl FnMut() -> u64 + Clone,
) -> Result<f64, TryReserveError> {
    let mut q = DistanceQuantile::new(t, samples)?;
    q.propose = true;
    let run = |q: &mut DistanceQuantile, draw| {
        for_each_sampled_d2(flat, dim, samples, draw, |d2| {
            q.push(d2);
            q.bound
        })
    };
    run(&mut q, draw.clone());
    if q.kth() > q.candidate {
        q.restart();
        run(&mut q, draw);
    }
    Ok(q.distance())
}

/// Pairs evaluated side by side, as independent add chains; eight
/// measured no faster than four at 74-D.
const PAIR_LANES: usize = 4;

/// Pairs drawn ahead of their evaluation: each pair's rows are prefetched
/// when it is drawn, and a full block of draws separates that from the
/// pair's use.
const DRAW_BLOCK: usize = 64;

/// Dimensions a pair that may be cut short sums between two looks at
/// the bound: a cache line's worth of each row. Strides of 4 and 16
/// measured slower at 74-D.
const EXIT_STRIDE: usize = 8;

/// Visits the squared distances of `samples` random pairs of distinct rows
/// of a flat row-major point block, and may cut short a pair whose
/// distance passes the bound that `visit` returned last.
///
/// Each pair is `(draw() % n, draw() % n)`, redrawn while the two rows
/// are the same, so the pairs are a pure function of `draw`'s stream. The
/// draws are made a block at a time. Every pair is visited once, with its
/// `d²` bit for bit [`crate::distance::squared_euclidean`], except that
/// a pair whose `d²` exceeds the bound may instead be visited with a
/// partial sum that already exceeds it. Distances arrive block by block,
/// not in draw order; an order statistic does not care.
///
/// A pair is cut short only when every coordinate of the block is
/// finite: then a sum of squares taken in dimension order from `0.0`
/// never decreases, as rounding to nearest is monotone and no NaN can
/// arise, so a partial sum past the bound is a full one past it too. It
/// is then summed 8 dimensions at a time, with a look at the bound after
/// each stride. Otherwise, and for a block drawn while
/// the bound is infinite, pairs are summed whole, four at a time in
/// independent accumulators.
///
/// # Panics
/// Panics if `dim` is zero, `flat.len()` is not a multiple of `dim`, or
/// the block holds fewer than 2 rows.
pub fn for_each_sampled_d2(
    flat: &[f64],
    dim: usize,
    samples: usize,
    mut draw: impl FnMut() -> u64,
    mut visit: impl FnMut(f64) -> f64,
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
    let exits = dim > EXIT_STRIDE && flat.iter().all(|x| x.is_finite());

    let mut bound = f64::INFINITY;
    let mut block = [(0, 0); DRAW_BLOCK];
    let mut left = samples;
    while left > 0 {
        let m = left.min(DRAW_BLOCK);
        left -= m;
        let cut_short = exits && bound < f64::INFINITY;
        for pair in &mut block[..m] {
            *pair = loop {
                let i = (draw() % n) as usize;
                let j = (draw() % n) as usize;
                if i != j {
                    break (i, j);
                }
            };
            // A pair cut short mostly reads one stride of each row.
            let head = if cut_short { EXIT_STRIDE } else { dim };
            prefetch(&row(pair.0)[..head]);
            prefetch(&row(pair.1)[..head]);
        }
        if cut_short {
            for &(i, j) in &block[..m] {
                bound = visit(d2_or_past(row(i), row(j), bound));
            }
            continue;
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
            d2[..group.len()].iter().for_each(|&v| bound = visit(v));
        }
    }
}

/// `d²(a, b)`, or a partial sum of it, taken in dimension order, that
/// exceeds `bound`.
#[inline(always)]
fn d2_or_past(a: &[f64], b: &[f64], bound: f64) -> f64 {
    let (a, b) = (a.chunks_exact(EXIT_STRIDE), b.chunks_exact(EXIT_STRIDE));
    let tail = a.remainder().iter().zip(b.remainder());
    let mut acc = 0.0;
    for (a, b) in a.zip(b) {
        for d in 0..EXIT_STRIDE {
            let t = a[d] - b[d];
            acc += t * t;
        }
        if acc > bound {
            return acc;
        }
    }
    for (x, y) in tail {
        let t = x - y;
        acc += t * t;
    }
    acc
}

/// Asks the cache for the lines holding `row`'s first and last
/// coordinates: the whole of a row (or a row's head) of up to 8
/// coordinates wherever it starts, and the two ends of a wider one, whose
/// middle the hardware prefetcher streams in.
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

/// How far above the answer's expected rank in the first fill a
/// candidate is taken, in standard deviations of that rank (and as many
/// ranks again, for fills that expect only a few values below the
/// answer).
const CANDIDATE_SIGMAS: f64 = 8.0;

/// Fewest slots a selector reserves when it has more values to come:
/// 64 MiB of address space, above the range of blocks whose release
/// moves glibc's mmap threshold.
const RESERVE_FLOOR: usize = 1 << 23;

/// The rank in the first `2k` of `len` values at which a selector takes
/// its candidate. How many of them fall below the answer is
/// hypergeometric (the draws are exchangeable) about `mean`, with at most
/// that variance.
fn candidate_rank(k: usize, len: usize) -> usize {
    let mean = (2 * k) as f64 * (k as f64 / len as f64);
    (mean + CANDIDATE_SIGMAS * (mean.sqrt() + 1.0)) as usize
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
///
/// A selector built by [`sampled_quantile`] also proposes a candidate at
/// its first fill: the value of those first `2k` at a rank 8 standard
/// deviations above where the answer is expected among them. From then on the bound is at most the
/// candidate, so the selector is the plain one over the first fill and
/// the later values at or below the candidate. Its k-th smallest is the
/// true one whenever it is at or below the candidate; otherwise the
/// stream is replayed without one.
#[derive(Debug)]
pub struct DistanceQuantile {
    kept: Vec<f64>,
    k: usize,
    len: usize,
    seen: usize,
    /// Every later value above this is dropped: the k-th smallest kept
    /// so far (infinite until the buffer first fills), or the candidate
    /// if that is lower.
    bound: f64,
    /// Whether the first cut proposes a candidate.
    propose: bool,
    /// At least the bound from the first cut on; infinite until proposed.
    candidate: f64,
}

impl DistanceQuantile {
    /// A quantile `t` of `len` values still to be pushed.
    ///
    /// # Errors
    /// Returns the error of reserving the buffer of `min(len, max(2k,
    /// 2^23))` slots, of which at most `2k` are ever written.
    ///
    /// # Panics
    /// Panics if `len` is zero.
    pub fn new(t: f64, len: usize) -> Result<Self, TryReserveError> {
        assert!(len > 0, "quantile of an empty set");
        let k = ((t * len as f64).round() as usize).clamp(1, len);
        let mut kept = Vec::new();
        // Reserved for up to `len` values although at most `2k` slots are
        // ever written: pages past those are never touched, so they cost
        // no resident memory. A smaller block would be worse: glibc
        // raises its mmap threshold when a mapped block of 128 KiB to
        // 32 MiB is freed, and the fit after an estimate then keeps
        // more of its heap resident (+3% peak RSS on a 76k x 4-D fit).
        kept.try_reserve_exact(len.min(k.saturating_mul(2).max(RESERVE_FLOOR)))?;
        Ok(DistanceQuantile {
            kept,
            k,
            len,
            seen: 0,
            bound: f64::INFINITY,
            propose: false,
            candidate: f64::INFINITY,
        })
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
    /// by the largest of them, or by the candidate that the first cut of
    /// a proposing selector takes from the values below them.
    fn cut(&mut self) {
        let k = self.k;
        let (below, kth, _) = self.kept.select_nth_unstable_by(k - 1, f64::total_cmp);
        let kth = *kth;
        if std::mem::take(&mut self.propose) {
            let rank = candidate_rank(k, self.len);
            if rank < below.len() {
                self.candidate = *below.select_nth_unstable_by(rank, f64::total_cmp).1;
            }
        }
        self.kept.truncate(k);
        self.bound = kth.min(self.candidate);
    }

    /// The k-th smallest value kept.
    fn kth(&mut self) -> f64 {
        assert_eq!(
            self.seen, self.len,
            "pushed {} of {} values",
            self.seen, self.len
        );
        *self
            .kept
            .select_nth_unstable_by(self.k - 1, f64::total_cmp)
            .1
    }

    /// Forgets every value and the candidate, keeping the buffer.
    fn restart(&mut self) {
        self.kept.clear();
        self.seen = 0;
        self.bound = f64::INFINITY;
        self.candidate = f64::INFINITY;
    }

    /// The quantile, as a (non-squared) distance.
    ///
    /// # Panics
    /// Panics if the number of values pushed is not the `len` given to
    /// [`DistanceQuantile::new`].
    pub fn distance(mut self) -> f64 {
        self.kth().sqrt()
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
        let mut q = DistanceQuantile::new(t, d2.len()).unwrap();
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

    /// A scripted draw stream over the rows `0, 0, 5, 10` of a line:
    /// the first `head` pairs at `d² = 0`, the rest of the first fill at
    /// `d² = 100`, and every later pair between row 0 and row `later`.
    /// Returns the estimate and the number of draws made, replay included.
    fn scripted(t: f64, len: usize, head: usize, later: u64) -> (f64, usize) {
        let ds = Dataset::from_flat(1, vec![0.0, 0.0, 5.0, 10.0]);
        let fill = 2 * ((t * len as f64).round() as usize);
        let script: Vec<u64> = (0..len)
            .flat_map(|p| match p {
                p if p < head => [0, 1],
                p if p < fill => [0, 3],
                _ => [0, later],
            })
            .collect();
        let draws = std::rc::Rc::new(std::cell::Cell::new(0));
        let (mut at, counter, script) = (0, draws.clone(), &script);
        let draw = move || {
            counter.set(counter.get() + 1);
            at += 1;
            script[at - 1]
        };
        let d = sampled_quantile(ds.as_flat(), 1, t, len, draw).unwrap();
        (d, draws.get())
    }

    #[test]
    fn a_candidate_below_the_answer_replays_the_draws() {
        let (t, len) = (0.1, 1000);
        let (k, rank) = (100, candidate_rank(100, 1000));
        assert!(rank + 1 < k, "the candidate sits below the first cut");
        // The candidate is 0, and k exceeds the zeros: the answer, 5, is
        // a later value that the candidate dropped.
        assert_eq!(scripted(t, len, rank + 1, 2), (5.0, 2 * 2 * len));
        // Here the candidate holds: k zeros are still below the answer.
        assert_eq!(scripted(t, len, rank + 1, 1), (0.0, 2 * len));
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
