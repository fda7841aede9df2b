//! Localized `rho`/`delta` update kernels for incremental ingest.
//!
//! The batch pipelines compute densities and separations globally; an
//! ingest path cannot afford that per batch. Following the observation
//! that hash-bucket structure localizes density maintenance (the
//! approximate-NN mean-shift line of work), these kernels update only
//! the points a mutation's LSH buckets can reach:
//!
//! * [`candidate_neighbors`] (one [`neighbor`] per id) scores candidates
//!   against a probe; the ingest session counts the density side — the
//!   paper's max-over-layouts `rho_q`, and `±1` for every bucket-mate
//!   within `d_c` — while it scores its bucket union;
//! * [`nearest_denser`] anchors a point on its nearest denser candidate
//!   (the localized Eq. 2);
//! * [`relax_toward`] re-anchors every candidate whose separation an
//!   inserted point now realizes.
//!
//! The kernels are deliberately storage-agnostic: they work on the same
//! flat `coords`/`rho`/`delta`/`upslope` arrays the [`ClusterModel`]
//! artifact carries, with candidate sets supplied by the caller (the
//! ingest session owns the bucket tables). Everything here is exact
//! *given the candidates*; the approximation lives in which candidates
//! LSH surfaces, exactly as in the batch pipeline.
//!
//! [`ClusterModel`]: https://en.wikipedia.org/wiki/Cluster_analysis

use crate::distance::squared_euclidean;
use crate::dp::denser;
use crate::PointId;

/// A candidate neighbor surfaced by a bucket probe: its id and its
/// euclidean distance to the probe point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// The candidate's point id (a slot id on the ingest side).
    pub id: PointId,
    /// Euclidean distance from the probe point to the candidate.
    pub dist: f64,
}

/// Distances from `query` to every candidate id over a flat row-major
/// coordinate block. No filtering — this is the raw material for both
/// the density count (within `d_c`) and the separation search (any
/// distance).
///
/// # Panics
/// Panics if a candidate id addresses past the end of `coords`.
pub fn candidate_neighbors(
    query: &[f64],
    cands: &[PointId],
    coords: &[f64],
    dim: usize,
) -> Vec<Neighbor> {
    cands
        .iter()
        .map(|&id| neighbor(query, id, coords, dim))
        .collect()
}

/// One candidate scored: the euclidean distance from `query` to row `id`
/// of a flat row-major coordinate block, as `sqrt` of
/// [`squared_euclidean`].
///
/// # Panics
/// Panics if `id` addresses past the end of `coords`.
#[inline]
pub fn neighbor(query: &[f64], id: PointId, coords: &[f64], dim: usize) -> Neighbor {
    let at = id as usize * dim;
    let d2 = squared_euclidean(query, &coords[at..at + dim]);
    Neighbor {
        id,
        dist: d2.sqrt(),
    }
}

/// The localized Eq. 2: among `cands`, the nearest one strictly denser
/// than `(rho_q, q)` under the global [`denser`] order (rho first, id
/// tie-break). Ties on distance break toward the lower id so the result
/// is independent of candidate order. `None` when nothing in the
/// candidate set dominates `q` — the caller decides whether that means
/// "local peak" or "widen the search".
pub fn nearest_denser(q: PointId, rho_q: u32, cands: &[Neighbor], rho: &[u32]) -> Option<Neighbor> {
    cands
        .iter()
        .filter(|n| n.id != q && denser(rho[n.id as usize], n.id, rho_q, q))
        .min_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)))
        .copied()
}

/// Separation relaxation after inserting `q`: every candidate that `q`
/// now dominates (`q` denser) and sits farther from its current upslope
/// point than from `q` re-anchors on `q`. Returns how many links moved
/// — the ingest session counts these as newly stale points.
pub fn relax_toward(
    q: PointId,
    rho_q: u32,
    cands: &[Neighbor],
    rho: &[u32],
    delta: &mut [f64],
    upslope: &mut [PointId],
) -> usize {
    let mut moved = 0;
    for n in cands {
        let i = n.id as usize;
        if n.id != q && denser(rho_q, q, rho[i], n.id) && n.dist < delta[i] {
            delta[i] = n.dist;
            upslope[i] = q;
            moved += 1;
        }
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NO_UPSLOPE;

    // Five points on a line at 0, 1, 2, 10, 11 (dim 1).
    fn line() -> Vec<f64> {
        vec![0.0, 1.0, 2.0, 10.0, 11.0]
    }

    #[test]
    fn candidate_distances_are_euclidean() {
        let coords = line();
        let ns = candidate_neighbors(&[1.5], &[0, 2, 4], &coords, 1);
        assert_eq!(ns.len(), 3);
        assert!((ns[0].dist - 1.5).abs() < 1e-12);
        assert!((ns[1].dist - 0.5).abs() < 1e-12);
        assert!((ns[2].dist - 9.5).abs() < 1e-12);
    }

    #[test]
    fn nearest_denser_respects_the_global_order() {
        let coords = line();
        let rho = vec![2, 5, 5, 1, 9];
        let cands = candidate_neighbors(&[2.5], &[0, 1, 2, 3, 4], &coords, 1);
        // Probe has rho 5 and id 5: ids 1, 2 tie on rho but lose the id
        // tie-break against 5, so only point 4 (rho 9) dominates.
        let got = nearest_denser(5, 5, &cands, &rho).unwrap();
        assert_eq!(got.id, 4);
        // A weaker probe anchors on the nearest of the (rho 5) pair.
        let got = nearest_denser(5, 2, &cands, &rho).unwrap();
        assert_eq!(got.id, 2);
        // Nothing dominates the densest probe.
        assert!(nearest_denser(5, 10, &cands, &rho).is_none());
    }

    #[test]
    fn relaxation_moves_only_dominated_farther_links() {
        let coords = line();
        let rho = vec![1, 1, 1, 1, 1];
        let mut delta = vec![5.0, 0.2, 5.0, 5.0, 5.0];
        let mut upslope = vec![NO_UPSLOPE; 5];
        // New point q = 5 at 2.5 with rho 4 dominates everyone.
        let cands = candidate_neighbors(&[2.5], &[0, 1, 2], &coords, 1);
        let moved = relax_toward(5, 4, &cands, &rho, &mut delta, &mut upslope);
        // Point 1 keeps its tighter 0.2 link; points 0 and 2 re-anchor.
        assert_eq!(moved, 2);
        assert_eq!(upslope[0], 5);
        assert_eq!(upslope[1], NO_UPSLOPE);
        assert_eq!(upslope[2], 5);
        assert!((delta[0] - 2.5).abs() < 1e-12);
        assert!((delta[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn relaxation_never_moves_a_denser_candidate() {
        let coords = line();
        let rho = vec![9, 1, 1, 1, 1];
        let mut delta = vec![5.0; 5];
        let mut upslope = vec![NO_UPSLOPE; 5];
        let cands = candidate_neighbors(&[0.5], &[0], &coords, 1);
        let moved = relax_toward(5, 3, &cands, &rho, &mut delta, &mut upslope);
        assert_eq!(moved, 0, "a denser point never re-anchors on the probe");
        assert_eq!(upslope[0], NO_UPSLOPE);
    }
}
