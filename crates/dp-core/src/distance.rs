//! The distance and distance-computation accounting.
//!
//! The one metric is Euclidean, as in the paper and the original DP code:
//! every local kernel compares squared Euclidean distances, and the
//! triangle-inequality filters of the EDDPC baseline rely on it being a
//! metric.
//!
//! The paper's cost model counts the *number of distance measurements* as
//! the computational cost (Figure 10(c), Table IV). To reproduce those
//! numbers without instrumenting every call site, the distributed pipelines
//! route distance evaluations through a [`DistanceTracker`], a cheap cloneable
//! handle around an atomic counter shared across all map/reduce worker
//! threads.

use crate::simd::Isa;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Euclidean (L2) distance.
#[inline]
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    squared_euclidean(a, b).sqrt()
}

/// Squared Euclidean distance; avoids the `sqrt` when only comparisons
/// against a squared threshold are needed (the `rho` kernels use this).
#[inline]
pub fn squared_euclidean(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b.iter()) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

/// Squared Euclidean distances of `L` unrelated pairs of `dim`-long rows:
/// `out[l] = d²(a[l], b[l])`.
///
/// Each lane sums its terms in dimension order from `0.0`, which is
/// [`squared_euclidean`]'s exact sequence of roundings, so every lane
/// equals the scalar result bit for bit. What changes is the schedule:
/// the `L` sums are independent add chains, so a wide pair no longer waits
/// out one add latency per dimension, and the rows of all `L` pairs are
/// loaded at once.
#[inline(always)]
pub(crate) fn squared_euclidean_lanes<const L: usize>(
    a: [&[f64]; L],
    b: [&[f64]; L],
    dim: usize,
) -> [f64; L] {
    let (a, b) = (a.map(|r| &r[..dim]), b.map(|r| &r[..dim]));
    let mut acc = [0.0; L];
    for d in 0..dim {
        for l in 0..L {
            let t = a[l][d] - b[l][d];
            acc[l] += t * t;
        }
    }
    acc
}

/// Lane count of [`accumulate_tile_d2`]: one lane per target, so one lane
/// per *pair*. Sixteen `f64` accumulators are eight 128-bit registers on
/// the baseline x86-64 build and four 256-bit ones on the AVX2 build (see
/// [`crate::simd`]); either way they leave room for the operands.
pub(crate) const LANES: usize = 16;

/// Dimensions [`squared_euclidean_block`] transposes per pass (a fixed
/// 8 KiB stack tile; wider points take several passes over the same
/// accumulators).
const TILE_DIMS: usize = 64;

/// Transposes up to [`LANES`] row-major `dim`-dimensional points to
/// dimension-major: `cols[d][lane] = rows[lane * dim + d0 + d]` for
/// `d < cols.len()`. Lanes past the last row are zeroed — padding, whose
/// results callers never read.
#[inline(always)]
pub(crate) fn transpose_tile(rows: &[f64], dim: usize, d0: usize, cols: &mut [[f64; LANES]]) {
    debug_assert!(rows.len() <= LANES * dim && d0 + cols.len() <= dim);
    for (d, col) in cols.iter_mut().enumerate() {
        *col = [0.0; LANES];
        for (c, row) in col.iter_mut().zip(rows.chunks_exact(dim)) {
            *c = row[d0 + d];
        }
    }
}

/// The tile primitive: one query against [`LANES`] targets held
/// dimension-major, `acc[lane] += (q[d] - cols[d][lane])²` for each `d` in
/// order.
///
/// Every lane is its own pair and accumulates its terms in dimension
/// order from whatever `acc` held — starting from `0.0` that is exactly
/// [`squared_euclidean`]'s sequence of roundings, so each lane equals the
/// scalar result bit for bit, and a wide point may be fed in consecutive
/// dimension ranges. Lanes never mix, so the fixed-width inner loop
/// vectorises without reassociating anything.
#[inline(always)]
pub(crate) fn accumulate_tile_d2(q: &[f64], cols: &[[f64; LANES]], acc: &mut [f64; LANES]) {
    debug_assert_eq!(q.len(), cols.len());
    let mut a = *acc;
    for (&x, col) in q.iter().zip(cols) {
        for (a, &c) in a.iter_mut().zip(col) {
            let t = x - c;
            *a += t * t;
        }
    }
    *acc = a;
}

/// Fills `out` with the squared Euclidean distances between every query
/// and every target: `out[q * n_targets + t] = d²(queries[q], targets[t])`.
///
/// Both point blocks are flat row-major `dim`-dimensional coordinates, the
/// layout [`crate::Dataset`] stores. Targets are taken `LANES` at a time,
/// transposed once into a stack tile and swept by every query through
/// `accumulate_tile_d2`, so the stripe stays hot in cache across the
/// batch (the serving runtime's micro-batches feed this) and each entry is
/// bit-identical to [`squared_euclidean`] on either vector width
/// ([`crate::simd`]).
///
/// # Panics
/// Panics if `dim` is zero or either block's length is not a multiple of
/// `dim`.
pub fn squared_euclidean_block(queries: &[f64], targets: &[f64], dim: usize, out: &mut Vec<f64>) {
    block_on(Isa::detect(), queries, targets, dim, out);
}

/// [`squared_euclidean_block`] on the `isa` build.
pub(crate) fn block_on(isa: Isa, queries: &[f64], targets: &[f64], dim: usize, out: &mut Vec<f64>) {
    assert!(dim > 0, "dimension must be positive");
    assert_eq!(
        queries.len() % dim,
        0,
        "query block length must be a multiple of dim"
    );
    assert_eq!(
        targets.len() % dim,
        0,
        "target block length must be a multiple of dim"
    );
    let nq = queries.len() / dim;
    let nt = targets.len() / dim;
    out.clear();
    out.resize(nq * nt, 0.0);
    isa.run(
        #[inline(always)]
        || block(queries, targets, dim, out),
    );
}

#[inline(always)]
fn block(queries: &[f64], targets: &[f64], dim: usize, out: &mut [f64]) {
    let nt = targets.len() / dim;
    let mut tile = [[0.0; LANES]; TILE_DIMS];
    for t0 in (0..nt).step_by(LANES) {
        let m = (nt - t0).min(LANES);
        let stripe = &targets[t0 * dim..(t0 + m) * dim];
        for d0 in (0..dim).step_by(TILE_DIMS) {
            let d1 = (d0 + TILE_DIMS).min(dim);
            let cols = &mut tile[..d1 - d0];
            transpose_tile(stripe, dim, d0, cols);
            // The output row carries each lane's accumulator between
            // dimension passes.
            for (q, qp) in queries.chunks_exact(dim).enumerate() {
                let row = &mut out[q * nt + t0..][..m];
                let mut acc = [0.0; LANES];
                acc[..m].copy_from_slice(row);
                accumulate_tile_d2(&qp[d0..d1], cols, &mut acc);
                row.copy_from_slice(&acc[..m]);
            }
        }
    }
}

/// For each query in the flat block, the index of its nearest target and
/// the (non-squared) Euclidean distance to it; ties go to the lower index.
///
/// This is the batched kernel behind the serving layer's exact
/// nearest-center fallback: one call resolves a whole micro-batch.
///
/// # Panics
/// Panics if `targets` is empty, `dim` is zero, or either block's length
/// is not a multiple of `dim`.
pub fn nearest_in_block(queries: &[f64], targets: &[f64], dim: usize) -> Vec<(usize, f64)> {
    assert!(!targets.is_empty(), "need at least one target");
    let mut d2 = Vec::new();
    squared_euclidean_block(queries, targets, dim, &mut d2);
    let nt = targets.len() / dim;
    d2.chunks_exact(nt)
        .map(|row| {
            let (best, &d) = row
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.total_cmp(b))
                .expect("non-empty target row");
            (best, d.sqrt())
        })
        .collect()
}

/// Visits every unordered pair `(i, j)` with `i < j` of a flat row-major
/// point block, passing the squared Euclidean distance `d²(i, j)`.
///
/// Distances are computed through [`squared_euclidean_block`] on query
/// blocks, so the O(n²) partition-local rho/delta loops get the kernel's
/// cache tiling instead of a pointer-chasing call per pair. Pairs arrive
/// in ascending `(i, j)` order, but correct callers must not depend on
/// visitation order beyond that (the local-DP update rules are
/// order-independent).
///
/// # Panics
/// Panics if `dim` is zero or `flat.len()` is not a multiple of `dim`.
pub fn for_each_pair_d2(flat: &[f64], dim: usize, visit: impl FnMut(usize, usize, f64)) {
    pairs_on(Isa::detect(), flat, dim, visit);
}

/// [`for_each_pair_d2`] on the `isa` build.
pub(crate) fn pairs_on(
    isa: Isa,
    flat: &[f64],
    dim: usize,
    mut visit: impl FnMut(usize, usize, f64),
) {
    assert!(dim > 0, "dimension must be positive");
    assert_eq!(
        flat.len() % dim,
        0,
        "point block length must be a multiple of dim"
    );
    let n = flat.len() / dim;
    if n < 2 {
        return;
    }
    const QBLOCK: usize = 32;
    let mut d2 = Vec::new();
    for q0 in (0..n).step_by(QBLOCK) {
        let q1 = (q0 + QBLOCK).min(n);
        // Targets are the suffix starting at the query block, so row `qi`
        // holds distances to every j >= q0; entries with j > i are the
        // unordered pairs owned by this block.
        block_on(
            isa,
            &flat[q0 * dim..q1 * dim],
            &flat[q0 * dim..],
            dim,
            &mut d2,
        );
        let nt = n - q0;
        for (qi, row) in d2.chunks_exact(nt).enumerate() {
            let i = q0 + qi;
            for (tj, &d) in row.iter().enumerate().skip(qi + 1) {
                visit(i, q0 + tj, d);
            }
        }
    }
}

/// Visits every cross pair `(i, j)` between two flat row-major point
/// blocks (`i` indexes `a`, `j` indexes `b`), passing `d²(a_i, b_j)`.
///
/// The batched counterpart of a nested `for i in a { for j in b }` loop;
/// see [`for_each_pair_d2`]. Pairs arrive in ascending `(i, j)` order.
///
/// # Panics
/// Panics if `dim` is zero or either block's length is not a multiple of
/// `dim`.
pub fn for_each_cross_d2(a: &[f64], b: &[f64], dim: usize, visit: impl FnMut(usize, usize, f64)) {
    cross_on(Isa::detect(), a, b, dim, visit);
}

/// [`for_each_cross_d2`] on the `isa` build.
pub(crate) fn cross_on(
    isa: Isa,
    a: &[f64],
    b: &[f64],
    dim: usize,
    mut visit: impl FnMut(usize, usize, f64),
) {
    assert!(dim > 0, "dimension must be positive");
    assert_eq!(a.len() % dim, 0, "block length must be a multiple of dim");
    assert_eq!(b.len() % dim, 0, "block length must be a multiple of dim");
    let nb = b.len() / dim;
    if a.is_empty() || nb == 0 {
        return;
    }
    const QBLOCK: usize = 32;
    let na = a.len() / dim;
    let mut d2 = Vec::new();
    for q0 in (0..na).step_by(QBLOCK) {
        let q1 = (q0 + QBLOCK).min(na);
        block_on(isa, &a[q0 * dim..q1 * dim], b, dim, &mut d2);
        for (qi, row) in d2.chunks_exact(nb).enumerate() {
            for (tj, &d) in row.iter().enumerate() {
                visit(q0 + qi, tj, d);
            }
        }
    }
}

/// Shared counter of distance evaluations.
///
/// ```
/// use dp_core::DistanceTracker;
/// let t = DistanceTracker::new();
/// assert_eq!(t.distance(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
/// assert!(t.within(&[0.0], &[1.0], 2.0));
/// assert_eq!(t.total(), 2);
/// ```
///
/// Cloning is cheap (an `Arc` bump); all clones observe the same count.
/// Counting uses `Relaxed` ordering — the count is only read after the
/// parallel phase has joined, so no ordering stronger than the join is
/// needed.
#[derive(Debug, Clone, Default)]
pub struct DistanceTracker {
    count: Arc<AtomicU64>,
}

impl DistanceTracker {
    /// A fresh tracker starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The Euclidean distance, counted as one distance measurement.
    #[inline]
    pub fn distance(&self, a: &[f64], b: &[f64]) -> f64 {
        self.count.fetch_add(1, Ordering::Relaxed);
        euclidean(a, b)
    }

    /// Counts `n` distance measurements performed externally (e.g. by a
    /// squared-threshold kernel that bypasses [`Self::distance`]).
    #[inline]
    pub fn add(&self, n: u64) {
        self.count.fetch_add(n, Ordering::Relaxed);
    }

    /// Threshold predicate `d(a, b) < threshold` as `d² < threshold²`,
    /// counted as one distance measurement.
    ///
    /// It is the predicate every `rho` kernel applies: mixing `d² < t²` with `sqrt(d²) < t` flips pairs whose
    /// distance ties the threshold, and with `d_c` chosen as a quantile of
    /// the data's own distances such ties are common.
    #[inline]
    pub fn within(&self, a: &[f64], b: &[f64], threshold: f64) -> bool {
        self.count.fetch_add(1, Ordering::Relaxed);
        squared_euclidean(a, b) < threshold * threshold
    }

    /// Total distance measurements recorded so far.
    pub fn total(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Resets the counter to zero.
    pub fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_matches_hand_computation() {
        assert_eq!(euclidean(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(euclidean(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn squared_euclidean_is_square_of_euclidean() {
        let a = [1.0, -2.0, 0.5];
        let b = [0.0, 4.0, 2.5];
        let d = euclidean(&a, &b);
        assert!((squared_euclidean(&a, &b) - d * d).abs() < 1e-12);
    }

    #[test]
    fn tracker_counts_and_resets() {
        let t = DistanceTracker::new();
        assert_eq!(t.total(), 0);
        let _ = t.distance(&[0.0], &[1.0]);
        let _ = t.distance(&[0.0], &[2.0]);
        t.add(10);
        assert_eq!(t.total(), 12);
        t.reset();
        assert_eq!(t.total(), 0);
    }

    #[test]
    fn tracker_clones_share_state() {
        let t = DistanceTracker::new();
        let u = t.clone();
        let _ = u.distance(&[0.0], &[1.0]);
        assert_eq!(t.total(), 1);
    }

    #[test]
    fn tracker_is_thread_safe() {
        let t = DistanceTracker::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let tc = t.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        let _ = tc.distance(&[0.0, 0.0], &[1.0, 1.0]);
                    }
                });
            }
        });
        assert_eq!(t.total(), 4000);
    }

    #[test]
    fn block_kernel_matches_pairwise_calls() {
        let queries = [0.0, 0.0, 1.0, 2.0, -3.0, 0.5, 7.0, 7.0];
        let targets = [0.5, 0.5, 4.0, -1.0, 6.9, 7.2];
        let dim = 2;
        let mut out = Vec::new();
        squared_euclidean_block(&queries, &targets, dim, &mut out);
        assert_eq!(out.len(), 4 * 3);
        for (q, qp) in queries.chunks_exact(dim).enumerate() {
            for (t, tp) in targets.chunks_exact(dim).enumerate() {
                assert_eq!(
                    out[q * 3 + t],
                    squared_euclidean(qp, tp),
                    "entry ({q}, {t})"
                );
            }
        }
    }

    #[test]
    fn block_kernel_tiles_past_the_stripe_width() {
        // More targets than one LANES-wide stripe, so the tiling loop wraps.
        let dim = 3;
        let targets: Vec<f64> = (0..150 * dim).map(|i| (i % 17) as f64 * 0.25).collect();
        let queries: Vec<f64> = (0..4 * dim).map(|i| i as f64).collect();
        let mut out = Vec::new();
        squared_euclidean_block(&queries, &targets, dim, &mut out);
        for (q, qp) in queries.chunks_exact(dim).enumerate() {
            for (t, tp) in targets.chunks_exact(dim).enumerate() {
                assert_eq!(out[q * 150 + t], squared_euclidean(qp, tp));
            }
        }
    }

    /// Awkward but finite values: mixed signs and magnitudes, so a changed
    /// accumulation order shows up in the low bits.
    fn wobble(i: usize) -> f64 {
        let x = ((i * 2_654_435_761) % 10_007) as f64 / 97.0 - 51.0;
        x * [1.0, 1e-3, 1e3, -0.37][i % 4]
    }

    #[test]
    fn every_tile_lane_equals_the_scalar_distance_bitwise() {
        for dim in 1..=80 {
            let q: Vec<f64> = (0..dim).map(|d| wobble(d + 7 * dim)).collect();
            for m in [1, 5, LANES - 1, LANES] {
                let rows: Vec<f64> = (0..m * dim).map(|i| wobble(i + dim)).collect();
                let mut cols = vec![[f64::NAN; LANES]; dim];
                transpose_tile(&rows, dim, 0, &mut cols);
                let mut acc = [0.0; LANES];
                accumulate_tile_d2(&q, &cols, &mut acc);
                for (lane, row) in rows.chunks_exact(dim).enumerate() {
                    let want = squared_euclidean(&q, row);
                    assert_eq!(acc[lane].to_bits(), want.to_bits(), "dim={dim} lane={lane}");
                }
                // Fed in two dimension ranges, each lane continues its sum.
                let cut = dim / 2;
                let mut split = [0.0; LANES];
                accumulate_tile_d2(&q[..cut], &cols[..cut], &mut split);
                accumulate_tile_d2(&q[cut..], &cols[cut..], &mut split);
                assert_eq!(acc.map(f64::to_bits), split.map(f64::to_bits), "dim={dim}");
            }
        }
    }

    #[test]
    fn block_kernel_is_bitwise_scalar_for_ragged_target_counts() {
        // Target counts off the stripe width, dims on both sides of the
        // 64-dimension pass.
        for dim in [1, 3, 8, 63, 64, 65, 74, 80] {
            for nt in [1, 15, 17, 33, 47] {
                let targets: Vec<f64> = (0..nt * dim).map(wobble).collect();
                let queries: Vec<f64> = (0..3 * dim).map(|i| wobble(i + 11)).collect();
                let mut out = Vec::new();
                squared_euclidean_block(&queries, &targets, dim, &mut out);
                for (q, qp) in queries.chunks_exact(dim).enumerate() {
                    for (t, tp) in targets.chunks_exact(dim).enumerate() {
                        let want = squared_euclidean(qp, tp);
                        assert_eq!(
                            out[q * nt + t].to_bits(),
                            want.to_bits(),
                            "dim={dim} nt={nt}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn nearest_in_block_finds_true_nearest_with_low_index_ties() {
        let targets = [0.0, 0.0, 10.0, 0.0, 10.0, 0.0];
        let queries = [9.0, 0.0, 1.0, 1.0];
        let got = nearest_in_block(&queries, &targets, 2);
        assert_eq!(
            got[0].0, 1,
            "ties between equal targets go to the lower index"
        );
        assert!((got[0].1 - 1.0).abs() < 1e-12);
        assert_eq!(got[1].0, 0);
        assert!((got[1].1 - 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn block_kernel_handles_empty_query_batch() {
        let mut out = vec![1.0];
        squared_euclidean_block(&[], &[1.0, 2.0], 2, &mut out);
        assert!(out.is_empty());
        assert!(nearest_in_block(&[], &[1.0, 2.0], 2).is_empty());
    }

    #[test]
    fn pair_visitor_covers_each_unordered_pair_once() {
        let dim = 2;
        // 70 points: crosses the 32-wide query block twice.
        let flat: Vec<f64> = (0..70 * dim)
            .map(|i| ((i * 31) % 23) as f64 * 0.5)
            .collect();
        let n = flat.len() / dim;
        let mut seen = std::collections::BTreeMap::new();
        for_each_pair_d2(&flat, dim, |i, j, d| {
            assert!(i < j, "pairs must be unordered (i < j)");
            assert!(seen.insert((i, j), d).is_none(), "pair visited twice");
        });
        assert_eq!(seen.len(), n * (n - 1) / 2);
        for ((i, j), d) in seen {
            let expect =
                squared_euclidean(&flat[i * dim..(i + 1) * dim], &flat[j * dim..(j + 1) * dim]);
            assert_eq!(d, expect, "pair ({i}, {j})");
        }
    }

    #[test]
    fn cross_visitor_covers_full_product() {
        let dim = 3;
        let a: Vec<f64> = (0..40 * dim).map(|i| (i % 11) as f64).collect();
        let b: Vec<f64> = (0..7 * dim).map(|i| (i % 5) as f64 * 1.5).collect();
        let mut count = 0usize;
        for_each_cross_d2(&a, &b, dim, |i, j, d| {
            let expect = squared_euclidean(&a[i * dim..(i + 1) * dim], &b[j * dim..(j + 1) * dim]);
            assert_eq!(d, expect);
            count += 1;
        });
        assert_eq!(count, 40 * 7);
    }

    #[test]
    fn visitors_handle_degenerate_blocks() {
        let mut called = false;
        for_each_pair_d2(&[1.0, 2.0], 2, |_, _, _| called = true);
        for_each_pair_d2(&[], 2, |_, _, _| called = true);
        for_each_cross_d2(&[], &[1.0, 2.0], 2, |_, _, _| called = true);
        for_each_cross_d2(&[1.0, 2.0], &[], 2, |_, _, _| called = true);
        assert!(!called);
    }
}
