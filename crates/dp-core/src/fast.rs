//! Accelerated sequential DP — the two §II-A optimizations.
//!
//! The paper notes that a sequential implementation can be improved with
//! techniques "orthogonal to our proposed techniques":
//!
//! 1. **Triangle-inequality filtering for `rho`.** Precompute every
//!    point's distances to a small set of pivots; then
//!    `|d(i, p) − d(j, p)| ≤ d(i, j)` for any pivot `p`, so a pair whose
//!    best pivot bound already reaches `d_c` cannot be a neighbor pair
//!    and is skipped without evaluating the real distance.
//! 2. **Sorted-`rho` scan for `delta`.** Sort points by descending
//!    density; `delta_i` only needs the points *ahead* of `i` in that
//!    order, and the same pivot lower bound prunes candidates that
//!    cannot beat the current best.
//!
//! The results are **bit-identical** to [`crate::dp::compute_exact`]
//! (property-tested); only the number of distance evaluations changes.
//! The [`DistanceTracker`] counts real distance evaluations, so the
//! savings are measurable (see `benches/distance_kernels.rs`).

use crate::distance::DistanceTracker;
use crate::dp::{density_order, DpResult, NO_UPSLOPE};
use crate::point::{Dataset, PointId};

/// Pivot distance table for triangle-inequality bounds.
struct PivotTable {
    /// Row-major `N × P` distances.
    dists: Vec<f64>,
    p: usize,
}

impl PivotTable {
    /// Builds the table with `p` evenly strided pivots, charging `N × p`
    /// distance evaluations.
    fn build(ds: &Dataset, p: usize, tracker: &DistanceTracker) -> Self {
        let n = ds.len();
        let p = p.clamp(1, n);
        let stride = (n / p).max(1);
        let pivots: Vec<&[f64]> = (0..p)
            .map(|k| ds.point(((k * stride) % n) as PointId))
            .collect();
        let mut dists = Vec::with_capacity(n * p);
        for (_, point) in ds.iter() {
            for pv in &pivots {
                dists.push(tracker.distance(pv, point));
            }
        }
        PivotTable { dists, p }
    }

    /// Lower bound on `d(i, j)`: `max_p |d(i,p) − d(j,p)|`.
    #[inline]
    fn lower_bound(&self, i: PointId, j: PointId) -> f64 {
        let a = &self.dists[i as usize * self.p..(i as usize + 1) * self.p];
        let b = &self.dists[j as usize * self.p..(j as usize + 1) * self.p];
        let mut lb = 0.0f64;
        for (x, y) in a.iter().zip(b) {
            let d = (x - y).abs();
            if d > lb {
                lb = d;
            }
        }
        lb
    }
}

/// Accelerated exact DP; identical output to [`crate::dp::compute_exact`].
///
/// `n_pivots` controls the filter strength (≈8–16 is a good default; more
/// pivots prune harder but cost `N` distance evaluations each).
pub fn compute_exact_fast(ds: &Dataset, dc: f64, n_pivots: usize) -> DpResult {
    compute_exact_fast_tracked(ds, dc, n_pivots, &DistanceTracker::new())
}

/// Accelerated exact DP with distance accounting.
pub fn compute_exact_fast_tracked(
    ds: &Dataset,
    dc: f64,
    n_pivots: usize,
    tracker: &DistanceTracker,
) -> DpResult {
    assert!(!ds.is_empty(), "cannot run DP on an empty dataset");
    assert!(
        dc.is_finite() && dc > 0.0,
        "d_c must be positive and finite, got {dc}"
    );
    let n = ds.len();
    let kind = tracker.kind();
    let pivots = PivotTable::build(ds, n_pivots, tracker);

    // ---- rho with triangle filtering -------------------------------
    let mut rho = vec![0u32; n];
    for i in 0..n as PointId {
        let pi = ds.point(i);
        for j in (i + 1)..n as PointId {
            if pivots.lower_bound(i, j) >= dc {
                continue; // cannot be within d_c
            }
            if tracker.within(pi, ds.point(j), dc) {
                rho[i as usize] += 1;
                rho[j as usize] += 1;
            }
        }
    }

    // ---- delta with a sorted-density scan --------------------------
    // Descending canonical density order; position in this order is the
    // number of denser points.
    let mut order: Vec<PointId> = (0..n as PointId).collect();
    order.sort_by(|&a, &b| density_order(rho[a as usize], a, rho[b as usize], b));

    let mut delta = vec![0.0f64; n];
    let mut upslope = vec![NO_UPSLOPE; n];
    for (pos, &i) in order.iter().enumerate() {
        let pi = ds.point(i);
        if pos == 0 {
            // The absolute peak: delta = max distance to anyone.
            let mut max_d = 0.0f64;
            for (j, pj) in ds.iter() {
                if j != i {
                    max_d = max_d.max(tracker.distance(pi, pj));
                }
            }
            delta[i as usize] = max_d;
            continue;
        }
        let mut best = f64::INFINITY;
        let mut best_j = NO_UPSLOPE;
        for &j in &order[..pos] {
            // Pivot bound: j cannot improve on the current best.
            if pivots.lower_bound(i, j) >= best {
                continue;
            }
            let d = kind.eval(pi, ds.point(j));
            tracker.add(1);
            if d < best || (d == best && j < best_j) {
                best = d;
                best_j = j;
            }
        }
        delta[i as usize] = best;
        upslope[i as usize] = best_j;
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
    use crate::dp::compute_exact;

    fn clustered(n_per: usize) -> Dataset {
        let mut ds = Dataset::new(2);
        for (cx, cy) in [(0.0, 0.0), (30.0, 5.0), (10.0, 40.0)] {
            for k in 0..n_per {
                // Deterministic spiral-ish spread inside each blob.
                let t = k as f64 * 0.7;
                let r = 0.1 + (k as f64).sqrt() * 0.3;
                ds.push(&[cx + r * t.cos(), cy + r * t.sin()]);
            }
        }
        ds
    }

    #[test]
    fn identical_to_reference() {
        let ds = clustered(40);
        for dc in [0.5, 2.0, 10.0] {
            let slow = compute_exact(&ds, dc);
            for pivots in [1, 4, 12] {
                let fast = compute_exact_fast(&ds, dc, pivots);
                assert_eq!(fast.rho, slow.rho, "dc={dc} pivots={pivots}");
                assert_eq!(fast.upslope, slow.upslope, "dc={dc} pivots={pivots}");
                for (a, b) in fast.delta.iter().zip(&slow.delta) {
                    assert!((a - b).abs() < 1e-12, "dc={dc} pivots={pivots}");
                }
            }
        }
    }

    #[test]
    fn filter_saves_distance_evaluations() {
        let ds = clustered(60); // 180 points, 3 tight far-apart blobs
        let dc = 1.0;
        let t_slow = DistanceTracker::new();
        let _ = crate::dp::compute_exact_tracked(&ds, dc, &t_slow);
        let t_fast = DistanceTracker::new();
        let _ = compute_exact_fast_tracked(&ds, dc, 8, &t_fast);
        assert!(
            t_fast.total() < t_slow.total() / 2,
            "fast {} vs slow {}",
            t_fast.total(),
            t_slow.total()
        );
    }

    #[test]
    fn pivot_bound_is_valid() {
        let ds = clustered(20);
        let t = DistanceTracker::new();
        let pv = PivotTable::build(&ds, 6, &t);
        for i in 0..ds.len() as u32 {
            for j in 0..ds.len() as u32 {
                let lb = pv.lower_bound(i, j);
                let d = crate::distance::euclidean(ds.point(i), ds.point(j));
                assert!(lb <= d + 1e-9, "bound {lb} exceeds distance {d}");
            }
        }
    }

    mod properties {
        use super::*;
        use crate::distance::DistanceKind;
        use proptest::prelude::*;

        /// Tight, far-apart blobs in `dim` dimensions (offset along the
        /// first axis), deterministic in `seed` — shaped so the pivot
        /// bounds actually prune.
        fn blob_dataset(dim: usize, n_per: usize, seed: u64) -> Dataset {
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64
            };
            let mut ds = Dataset::new(dim);
            let mut p = vec![0.0f64; dim];
            for blob in 0..3 {
                for _ in 0..n_per {
                    for (d, slot) in p.iter_mut().enumerate() {
                        let center = if d == 0 { blob as f64 * 40.0 } else { 0.0 };
                        *slot = center + next() * 2.0 - 1.0;
                    }
                    ds.push(&p);
                }
            }
            ds
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            /// Across dimensionalities and metrics, the pivot-pruned path
            /// is bit-identical to the exhaustive reference and performs
            /// strictly fewer distance evaluations.
            #[test]
            fn pruned_path_is_identical_and_strictly_cheaper(
                seed in 1u64..10_000,
                dim_idx in 0usize..4,
                kind_idx in 0usize..2,
                n_per in 20usize..40,
                n_pivots in 2usize..10,
            ) {
                let dim = [1usize, 2, 8, 32][dim_idx];
                let kind = [DistanceKind::Euclidean, DistanceKind::Manhattan][kind_idx];
                let ds = blob_dataset(dim, n_per, seed);
                let dc = 0.8;

                let t_slow = DistanceTracker::with_kind(kind);
                let slow = crate::dp::compute_exact_tracked(&ds, dc, &t_slow);
                let t_fast = DistanceTracker::with_kind(kind);
                let fast = compute_exact_fast_tracked(&ds, dc, n_pivots, &t_fast);

                prop_assert_eq!(&fast.rho, &slow.rho, "dim={} kind={:?}", dim, kind);
                prop_assert_eq!(&fast.upslope, &slow.upslope, "dim={} kind={:?}", dim, kind);
                for (a, b) in fast.delta.iter().zip(&slow.delta) {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "dim={} kind={:?}", dim, kind);
                }
                prop_assert!(
                    t_fast.total() < t_slow.total(),
                    "pruning must strictly reduce evals: fast {} vs slow {} (dim={} kind={:?})",
                    t_fast.total(), t_slow.total(), dim, kind
                );
            }
        }
    }

    #[test]
    fn works_on_tiny_inputs() {
        let ds = Dataset::from_flat(1, vec![0.0, 5.0]);
        let fast = compute_exact_fast(&ds, 1.0, 8);
        let slow = compute_exact(&ds, 1.0);
        assert_eq!(fast.rho, slow.rho);
        assert_eq!(fast.delta, slow.delta);
    }

    #[test]
    fn single_point() {
        let ds = Dataset::from_flat(3, vec![1.0, 2.0, 3.0]);
        let fast = compute_exact_fast(&ds, 1.0, 4);
        assert_eq!(fast.rho, vec![0]);
        assert_eq!(fast.upslope, vec![NO_UPSLOPE]);
    }
}
