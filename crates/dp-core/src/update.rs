//! Localized `delta` relaxation kernels over a caller-supplied candidate
//! set: [`candidate_neighbors`] scores candidates against a probe point,
//! and [`relax_toward`] re-anchors every candidate whose separation an
//! inserted point realizes. The ingest session answers its writes through
//! the exact index instead; these stay public, with their signatures, for
//! the ledger's `dp-core.update_ms` probe.

use crate::distance::squared_euclidean;
use crate::dp::denser;
use crate::PointId;

/// A candidate neighbor surfaced by a bucket probe: its id and its
/// euclidean distance to the probe point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// The candidate's point id.
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
        .map(|&id| {
            let at = id as usize * dim;
            Neighbor {
                id,
                dist: squared_euclidean(query, &coords[at..at + dim]).sqrt(),
            }
        })
        .collect()
}

/// Separation relaxation after inserting `q`: every candidate that `q`
/// now dominates (`q` denser) and sits farther from its current upslope
/// point than from `q` re-anchors on `q`. Returns how many links moved.
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
