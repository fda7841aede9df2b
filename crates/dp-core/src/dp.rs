//! Exact sequential Density Peaks: the whole data set as one
//! [`Partition`] of [`crate::local`].
//!
//! This is the ground truth the distributed pipelines are validated against:
//! Basic-DDP must match it bit-for-bit, LSH-DDP approximately (quantified by
//! `tau1`/`tau2` from [`crate::quality`]). It is checked in turn against
//! the definition — Eq. 1 and Eq. 2 as plain loops — in
//! `crates/dp-core/tests/local.rs`.

use crate::distance::DistanceTracker;
use crate::local::{Key, Partition};
use crate::point::{Dataset, PointId};
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
        let max_delta = self.max_finite_delta().max(f64::MIN_POSITIVE);
        self.rho
            .iter()
            .zip(self.delta.iter())
            .map(|(&r, &d)| {
                let d = if d.is_finite() { d } else { max_delta };
                (r as f64 / max_rho) * (d / max_delta)
            })
            .collect()
    }

    /// The largest finite `delta` (0 when there is none): what a
    /// non-finite `delta` is rectified to on the decision graph.
    pub(crate) fn max_finite_delta(&self) -> f64 {
        // Bits below +inf's are the non-negative finite deltas, ordered as
        // their bits; no other delta beats the starting 0.0: an integer max.
        let finite = |&bits: &u64| bits < f64::INFINITY.to_bits();
        let max = self.delta.iter().map(|d| d.to_bits()).filter(finite).max();
        f64::from_bits(max.unwrap_or(0))
    }

    /// Replaces non-finite `delta` values with the maximum finite `delta`
    /// (the paper rectifies infinite deltas before drawing the decision
    /// graph); returns which entries were rectified.
    pub fn rectify_infinite_delta(&mut self) -> Vec<bool> {
        let max_finite = self.max_finite_delta();
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

/// Computes exact DP, recording every distance evaluation in `tracker`:
/// the whole data set is one [`Partition`], so the kernels and routing
/// rule every distributed pipeline runs per partition answer it here. The
/// two phases run under one `dp/rho` and one `dp/delta` span.
pub fn compute_exact_tracked(ds: &Dataset, dc: f64, tracker: &DistanceTracker) -> DpResult {
    assert!(!ds.is_empty(), "cannot run DP on an empty dataset");
    assert!(
        dc.is_finite() && dc > 0.0,
        "d_c must be positive and finite, got {dc}"
    );
    let part = Partition::new(ds.as_flat(), ds.dim(), dc);
    let (rho, evals) = obsv::span!("dp", "rho" => { part.rho() });
    tracker.add(evals);
    let (delta, upslope) = obsv::span!("dp", "delta" => { delta_by_keys(&part, &rho, tracker) });
    DpResult {
        dc,
        rho,
        delta,
        upslope,
    }
}

/// Eq. 2 over every point of `part` under the keys `(rho[i], i)`: the
/// nearest denser point and its distance, the absolute peak's `delta`
/// being its distance to the farthest point.
pub(crate) fn delta_by_keys(
    part: &Partition,
    rho: &[u32],
    tracker: &DistanceTracker,
) -> (Vec<f64>, Vec<PointId>) {
    let keys: Vec<Key> = (0..rho.len() as PointId)
        .map(|i| (rho[i as usize], i))
        .collect();
    let mut delta = vec![0.0f64; keys.len()];
    let mut upslope = vec![NO_UPSLOPE; keys.len()];
    tracker.add(part.delta(&keys, true, |i, (d, u, maxd)| {
        delta[i] = if u == NO_UPSLOPE { maxd } else { d };
        upslope[i] = u;
    }));
    (delta, upslope)
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
    fn tracker_records_the_partition_evaluations() {
        let ds = tiny();
        let t = DistanceTracker::new();
        let _ = compute_exact_tracked(&ds, 1.5, &t);
        // Three points stay pairwise: each phase evaluates the 3 pairs once.
        assert_eq!(t.total(), 3 + 3);
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
