//! Exact sequential Density Peaks (the O(N²) reference algorithm).
//!
//! This is the ground truth the distributed pipelines are validated against:
//! Basic-DDP must match it bit-for-bit, LSH-DDP approximately (quantified by
//! `tau1`/`tau2` from [`crate::quality`]).

use crate::distance::DistanceTracker;
use crate::point::{Dataset, PointId};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Sentinel upslope id for the absolute density peak (no denser point).
pub const NO_UPSLOPE: PointId = PointId::MAX;

/// Canonical "denser than" total order.
///
/// The paper defines `delta_i` over points with *strictly higher* density.
/// With integer densities, ties are common; every point sharing the maximum
/// density would then become an "absolute peak". To keep the algorithm
/// deterministic — one of DP's advertised properties — and to make the
/// distributed computations agree with the sequential reference, ties are
/// broken by point id: `j` is denser than `i` iff
/// `rho_j > rho_i  ||  (rho_j == rho_i && j > i)`.
///
/// Exactly one point (max `(rho, id)` lexicographically) has no denser
/// point; it is the absolute density peak.
#[inline]
pub fn denser(rho_j: u32, j: PointId, rho_i: u32, i: PointId) -> bool {
    rho_j > rho_i || (rho_j == rho_i && j > i)
}

/// The total order behind [`denser`], densest first: `Less` iff `a` is
/// denser than `b`, `Equal` only for a point against itself — what a
/// "descending canonical density" sort must compare with (a comparator
/// that never answers `Equal` is not a total order, and `sort_by` may
/// panic on one).
#[inline]
pub fn density_order(rho_a: u32, a: PointId, rho_b: u32, b: PointId) -> std::cmp::Ordering {
    (rho_b, b).cmp(&(rho_a, a))
}

/// Output of a Density Peaks computation: per-point `rho`, `delta`, and the
/// upslope point id (Eq. 1–2 of the paper).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DpResult {
    /// The cutoff distance the densities were computed with.
    pub dc: f64,
    /// Local densities: `rho[i]` = number of points within `dc` of `i`.
    pub rho: Vec<u32>,
    /// Separations: `delta[i]` = distance to the nearest denser point; for
    /// the absolute peak, the maximum distance from it to any other point.
    pub delta: Vec<f64>,
    /// Upslope ids: the denser point realizing `delta[i]`; [`NO_UPSLOPE`]
    /// for the absolute peak (and, in *approximate* results, for points that
    /// looked like absolute peaks in every local partition).
    pub upslope: Vec<PointId>,
}

impl DpResult {
    /// Number of points.
    pub fn len(&self) -> usize {
        self.rho.len()
    }

    /// Whether the result covers no points.
    pub fn is_empty(&self) -> bool {
        self.rho.is_empty()
    }

    /// `gamma[i] = rho_norm[i] * delta_norm[i]` — the product criterion used
    /// for automatic top-k peak picking on the decision graph. Infinite or
    /// rectified deltas participate with the maximum finite value.
    pub fn gamma(&self) -> Vec<f64> {
        let max_rho = self.rho.iter().copied().max().unwrap_or(0).max(1) as f64;
        let max_delta = self
            .delta
            .iter()
            .copied()
            .filter(|d| d.is_finite())
            .fold(0.0_f64, f64::max)
            .max(f64::MIN_POSITIVE);
        self.rho
            .iter()
            .zip(self.delta.iter())
            .map(|(&r, &d)| {
                let d = if d.is_finite() { d } else { max_delta };
                (r as f64 / max_rho) * (d / max_delta)
            })
            .collect()
    }

    /// Replaces non-finite `delta` values with the maximum finite `delta`
    /// (the paper rectifies infinite deltas before drawing the decision
    /// graph); returns which entries were rectified.
    pub fn rectify_infinite_delta(&mut self) -> Vec<bool> {
        let max_finite = self
            .delta
            .iter()
            .copied()
            .filter(|d| d.is_finite())
            .fold(0.0_f64, f64::max);
        self.delta
            .iter_mut()
            .map(|d| {
                if d.is_finite() {
                    false
                } else {
                    *d = max_finite;
                    true
                }
            })
            .collect()
    }
}

/// Computes exact DP (`rho`, `delta`, upslope) with Euclidean distance.
///
/// # Panics
/// Panics if the dataset is empty or `dc` is not positive and finite.
pub fn compute_exact(ds: &Dataset, dc: f64) -> DpResult {
    compute_exact_tracked(ds, dc, &DistanceTracker::new())
}

/// Computes exact DP, recording every distance evaluation in `tracker`.
///
/// Both phases are embarrassingly parallel over points and use Rayon.
/// Distance evaluations use the tracker's metric ([`DistanceKind`]).
pub fn compute_exact_tracked(ds: &Dataset, dc: f64, tracker: &DistanceTracker) -> DpResult {
    assert!(!ds.is_empty(), "cannot run DP on an empty dataset");
    assert!(
        dc.is_finite() && dc > 0.0,
        "d_c must be positive and finite, got {dc}"
    );
    let n = ds.len();
    let kind = tracker.kind();

    // Phase 1: rho. For the Euclidean metric compare squared distances to
    // avoid N² square roots.
    let rho: Vec<u32> = (0..n as PointId)
        .into_par_iter()
        .map(|i| {
            let pi = ds.point(i);
            let mut count = 0u32;
            for (j, pj) in ds.iter() {
                if j != i && kind.within(pi, pj, dc) {
                    count += 1;
                }
            }
            tracker.add(n as u64 - 1);
            count
        })
        .collect();

    // Phase 2: delta + upslope under the canonical denser-than order.
    let mut delta = vec![0.0f64; n];
    let mut upslope = vec![NO_UPSLOPE; n];
    let pairs: Vec<(f64, PointId)> = (0..n as PointId)
        .into_par_iter()
        .map(|i| {
            let pi = ds.point(i);
            let rho_i = rho[i as usize];
            let mut best = f64::INFINITY;
            let mut best_j = NO_UPSLOPE;
            let mut max_d = 0.0f64;
            for (j, pj) in ds.iter() {
                if j == i {
                    continue;
                }
                let d = kind.eval(pi, pj);
                max_d = max_d.max(d);
                if denser(rho[j as usize], j, rho_i, i) && (d < best || (d == best && j < best_j)) {
                    best = d;
                    best_j = j;
                }
            }
            tracker.add(n as u64 - 1);
            if best_j == NO_UPSLOPE {
                // Absolute density peak: delta is its max distance to anyone.
                (max_d, NO_UPSLOPE)
            } else {
                (best, best_j)
            }
        })
        .collect();
    for (i, (d, u)) in pairs.into_iter().enumerate() {
        delta[i] = d;
        upslope[i] = u;
    }

    DpResult {
        dc,
        rho,
        delta,
        upslope,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    /// Three points on a line at 0, 1, 10 with dc = 1.5:
    /// rho = [1, 1, 0]; densest (tie id-broken) is point 1.
    fn tiny() -> Dataset {
        Dataset::from_flat(1, vec![0.0, 1.0, 10.0])
    }

    #[test]
    fn rho_counts_dc_neighbors_strictly() {
        let r = compute_exact(&tiny(), 1.5);
        assert_eq!(r.rho, vec![1, 1, 0]);
    }

    #[test]
    fn rho_threshold_is_strict() {
        // Distance exactly dc must NOT count (chi(x) = 1 iff x < 0).
        let ds = Dataset::from_flat(1, vec![0.0, 1.0]);
        let r = compute_exact(&ds, 1.0);
        assert_eq!(r.rho, vec![0, 0]);
    }

    #[test]
    fn tie_break_by_id_gives_single_absolute_peak() {
        let r = compute_exact(&tiny(), 1.5);
        // Points 0 and 1 tie on rho=1; id 1 wins, so 1 is the absolute peak.
        assert_eq!(r.upslope[1], NO_UPSLOPE);
        assert_eq!(r.delta[1], 9.0); // max distance from point 1
        assert_eq!(r.upslope[0], 1);
        assert_eq!(r.delta[0], 1.0);
        // Point 2 (rho 0): nearest denser is point 1 at distance 9.
        assert_eq!(r.upslope[2], 1);
        assert_eq!(r.delta[2], 9.0);
    }

    #[test]
    fn two_blob_structure() {
        // Blob A: 0.0, 0.1, 0.2 — blob B: 100.0, 100.1.
        let ds = Dataset::from_flat(1, vec![0.0, 0.1, 0.2, 100.0, 100.1]);
        let r = compute_exact(&ds, 0.15);
        assert_eq!(r.rho, vec![1, 2, 1, 1, 1]);
        // Point 1 is the absolute peak (highest rho).
        assert_eq!(r.upslope[1], NO_UPSLOPE);
        // Blob-B points chain within blob B (4 denser than 3 by id tie-break)
        assert_eq!(r.upslope[3], 4);
        assert!((r.delta[3] - 0.1).abs() < 1e-12);
        // Point 4's nearest denser point is far away, across blobs.
        assert!(r.delta[4] > 50.0);
    }

    #[test]
    fn denser_order_is_total_and_antisymmetric() {
        for (rj, j, ri, i) in [(5u32, 3u32, 4u32, 9u32), (5, 3, 5, 2), (5, 3, 5, 4)] {
            let a = denser(rj, j, ri, i);
            let b = denser(ri, i, rj, j);
            assert!(
                a != b,
                "denser must order every distinct pair exactly one way"
            );
            // The sort comparator agrees with it and is antisymmetric.
            let want = if a { Ordering::Less } else { Ordering::Greater };
            assert_eq!(density_order(rj, j, ri, i), want);
            assert_eq!(density_order(ri, i, rj, j), want.reverse());
            assert_eq!(density_order(rj, j, rj, j), Ordering::Equal);
        }
    }

    #[test]
    fn gamma_is_normalized_product() {
        let r = compute_exact(&tiny(), 1.5);
        let g = r.gamma();
        assert_eq!(g.len(), 3);
        // The absolute peak has max rho and max delta -> gamma = 1.
        assert!((g[1] - 1.0).abs() < 1e-12);
        for v in &g {
            assert!(*v >= 0.0 && *v <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn rectify_infinite_delta_replaces_with_max_finite() {
        let mut r = DpResult {
            dc: 1.0,
            rho: vec![3, 2, 1],
            delta: vec![f64::INFINITY, 2.0, 0.5],
            upslope: vec![NO_UPSLOPE, 0, 1],
        };
        let rect = r.rectify_infinite_delta();
        assert_eq!(rect, vec![true, false, false]);
        assert_eq!(r.delta, vec![2.0, 2.0, 0.5]);
    }

    #[test]
    fn tracker_records_quadratic_distance_count() {
        let ds = tiny();
        let t = DistanceTracker::new();
        let _ = compute_exact_tracked(&ds, 1.5, &t);
        // rho phase: n*(n-1) + delta phase: n*(n-1)
        assert_eq!(t.total(), 2 * 3 * 2);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn rejects_empty() {
        let _ = compute_exact(&Dataset::new(2), 1.0);
    }

    #[test]
    #[should_panic(expected = "d_c must be positive")]
    fn rejects_nonpositive_dc() {
        let _ = compute_exact(&tiny(), 0.0);
    }

    #[test]
    fn single_point_dataset() {
        let ds = Dataset::from_flat(2, vec![1.0, 1.0]);
        let r = compute_exact(&ds, 1.0);
        assert_eq!(r.rho, vec![0]);
        assert_eq!(r.upslope, vec![NO_UPSLOPE]);
        assert_eq!(r.delta, vec![0.0]);
    }
}
