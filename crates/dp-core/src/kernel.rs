//! Gaussian-kernel Density Peaks — the variant the original DP paper uses
//! for small/noisy data, and the extension hook the LSH-DDP paper's §VII
//! points at ("feasible to modify our solution to support variants of
//! DP").
//!
//! The cutoff kernel (Eq. 1) counts neighbors, so densities are small
//! integers that tie constantly; on uniform-density manifolds the
//! tie-broken upslope chains become arbitrary and clustering degrades
//! (see `examples/shaped_clusters.rs`). The Gaussian kernel
//!
//! ```text
//! rho_i = Σ_{j != i} exp(-(d_ij / d_c)²)
//! ```
//!
//! yields continuous, almost-surely distinct densities and smooth chains.
//!
//! To reuse the whole decision-graph/assignment/distributed machinery —
//! which speaks integer densities — [`compute_gaussian`] *rank-transforms*
//! the continuous densities: the returned [`DpResult`] carries each
//! point's density rank (0 = sparsest), which preserves the denser-than
//! order exactly and eliminates ties; the raw kernel densities ride along
//! for inspection.

use crate::distance::{euclidean, DistanceTracker};
use crate::dp::{delta_by_keys, DpResult};
use crate::local::Partition;
use crate::point::{Dataset, PointId};
use rayon::prelude::*;

/// Result of a Gaussian-kernel DP run: the rank-transformed [`DpResult`]
/// plus the raw continuous densities.
#[derive(Debug, Clone)]
pub struct KernelDpResult {
    /// Rank-density result, drop-in compatible with the decision-graph
    /// and assignment machinery (`rho[i]` = density rank, all distinct).
    pub result: DpResult,
    /// The raw kernel densities `Σ exp(-(d/dc)²)`.
    pub raw_rho: Vec<f64>,
}

/// Computes Gaussian-kernel DP with Euclidean distance.
///
/// # Panics
/// Panics if the dataset is empty or `dc` is not positive and finite.
pub fn compute_gaussian(ds: &Dataset, dc: f64) -> KernelDpResult {
    compute_gaussian_tracked(ds, dc, &DistanceTracker::new())
}

/// Computes Gaussian-kernel DP, recording distance evaluations.
pub fn compute_gaussian_tracked(
    ds: &Dataset,
    dc: f64,
    tracker: &DistanceTracker,
) -> KernelDpResult {
    assert!(!ds.is_empty(), "cannot run DP on an empty dataset");
    assert!(
        dc.is_finite() && dc > 0.0,
        "d_c must be positive and finite, got {dc}"
    );
    let n = ds.len();

    // Phase 1: continuous densities.
    let raw_rho: Vec<f64> = (0..n as PointId)
        .into_par_iter()
        .map(|i| {
            let pi = ds.point(i);
            let mut acc = 0.0;
            for (j, pj) in ds.iter() {
                if j != i {
                    let d = euclidean(pi, pj) / dc;
                    acc += (-d * d).exp();
                }
            }
            tracker.add(n as u64 - 1);
            acc
        })
        .collect();

    // Rank transform: sparsest -> 0, densest -> n-1; ties (exactly equal
    // kernel sums, e.g. duplicated points) broken by id for determinism.
    let mut order: Vec<PointId> = (0..n as PointId).collect();
    order.sort_by(|&a, &b| {
        raw_rho[a as usize]
            .partial_cmp(&raw_rho[b as usize])
            .expect("finite densities")
            .then(a.cmp(&b))
    });
    let mut rho = vec![0u32; n];
    for (rank, &id) in order.iter().enumerate() {
        rho[id as usize] = rank as u32;
    }

    // Phase 2: delta/upslope under the rank order (identical to the
    // continuous denser-than order).
    let part = Partition::new(ds.as_flat(), ds.dim(), dc);
    let (delta, upslope) = delta_by_keys(&part, &rho, tracker);

    KernelDpResult {
        result: DpResult {
            dc,
            rho,
            delta,
            upslope,
        },
        raw_rho,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::{assign, select_top_k};

    fn two_blobs() -> Dataset {
        let mut ds = Dataset::new(1);
        for i in 0..12 {
            ds.push(&[i as f64 * 0.1]);
        }
        for i in 0..12 {
            ds.push(&[50.0 + i as f64 * 0.1]);
        }
        ds
    }

    #[test]
    fn ranks_are_a_permutation() {
        let k = compute_gaussian(&two_blobs(), 0.3);
        let mut ranks = k.result.rho.clone();
        ranks.sort_unstable();
        assert_eq!(ranks, (0..24).collect::<Vec<u32>>());
    }

    #[test]
    fn rank_order_matches_raw_density_order() {
        let k = compute_gaussian(&two_blobs(), 0.3);
        for i in 0..k.raw_rho.len() {
            for j in 0..k.raw_rho.len() {
                if k.raw_rho[i] < k.raw_rho[j] {
                    assert!(k.result.rho[i] < k.result.rho[j]);
                }
            }
        }
    }

    #[test]
    fn clusters_two_blobs() {
        let ds = two_blobs();
        let k = compute_gaussian(&ds, 0.3);
        let peaks = select_top_k(&k.result, 2);
        let c = assign(&k.result, &peaks);
        assert_eq!(c.label(0), c.label(11));
        assert_eq!(c.label(12), c.label(23));
        assert_ne!(c.label(0), c.label(12));
    }

    #[test]
    fn gaussian_kernel_handles_graded_rings() {
        // DP needs one density peak per cluster (a perfectly uniform ring
        // has none — no DP variant can anchor there). Give each ring an
        // angular density gradient: points concentrated toward angle 0.
        // The cutoff kernel still tends to scramble this (integer ties on
        // the sparse arc), while the continuous Gaussian kernel chains
        // cleanly along each ring.
        let mut ds = Dataset::new(2);
        let mut truth = Vec::new();
        for (ri, r) in [1.5f64, 6.0].iter().enumerate() {
            for k in 0..80 {
                // Angles t^2-compressed: dense near 0, sparse near tau.
                let u = k as f64 / 80.0;
                let t = u * u * std::f64::consts::TAU;
                ds.push(&[r * t.cos(), r * t.sin()]);
                truth.push(ri as u32);
            }
        }
        let dc = 0.8;
        let k = compute_gaussian(&ds, dc);
        let peaks = select_top_k(&k.result, 2);
        let c = assign(&k.result, &peaks);
        let ari = crate::quality::adjusted_rand_index(c.labels(), &truth);
        assert!(ari > 0.9, "Gaussian-kernel DP on graded rings: ARI = {ari}");
    }

    #[test]
    fn denser_points_get_higher_raw_density() {
        // A dense blob and one isolated point.
        let mut ds = Dataset::new(1);
        for i in 0..10 {
            ds.push(&[i as f64 * 0.01]);
        }
        ds.push(&[100.0]);
        let k = compute_gaussian(&ds, 0.5);
        let iso = k.raw_rho[10];
        assert!(k.raw_rho[..10].iter().all(|&r| r > iso));
        assert_eq!(k.result.rho[10], 0, "the isolated point is the sparsest");
    }

    #[test]
    fn tracker_counts_kernel_distances() {
        let ds = two_blobs();
        let t = DistanceTracker::new();
        let _ = compute_gaussian_tracked(&ds, 0.3, &t);
        // Every ordered pair for the densities, the 276 unordered pairs
        // once for delta (24 points stay pairwise).
        assert_eq!(t.total(), 24 * 23 + 24 * 23 / 2);
    }
}
