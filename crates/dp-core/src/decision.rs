//! Decision graph, density-peak selection, and cluster assignment.
//!
//! The paper deliberately keeps peak selection interactive: the `(rho,
//! delta)` decision graph is a 2-D summary of an arbitrarily
//! high-dimensional data set, and the user picks the outliers in its
//! top-right region (§III-A, Step 3). This module supports that workflow
//! ([`DecisionGraph`] + [`select_by_threshold`]) and also the common
//! automatic criterion ([`select_top_k`] by the normalized product
//! `gamma = rho * delta`).

use crate::dp::{density_order, DpResult, NO_UPSLOPE};
use crate::local::Partition;
use crate::point::PointId;
use serde::{Deserialize, Serialize};

/// One point of the decision graph.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DecisionPoint {
    /// Point id.
    pub id: PointId,
    /// Local density.
    pub rho: u32,
    /// Separation (already rectified: always finite).
    pub delta: f64,
    /// Whether this delta was rectified from an infinite local value —
    /// i.e. no denser point was found; such points are peak candidates.
    pub rectified: bool,
}

/// The `(rho, delta)` scatter the user inspects to pick cluster centers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DecisionGraph {
    points: Vec<DecisionPoint>,
}

impl DecisionGraph {
    /// Builds the graph from a DP result, rectifying infinite deltas to the
    /// maximum finite delta as the paper prescribes.
    pub fn from_result(result: &DpResult) -> Self {
        let mut r = result.clone();
        let rectified = r.rectify_infinite_delta();
        let points = r
            .rho
            .iter()
            .zip(r.delta.iter())
            .zip(rectified.iter())
            .enumerate()
            .map(|(i, ((&rho, &delta), &rect))| DecisionPoint {
                id: i as PointId,
                rho,
                delta,
                rectified: rect,
            })
            .collect();
        DecisionGraph { points }
    }

    /// All decision points, in id order.
    pub fn points(&self) -> &[DecisionPoint] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Serializes the graph as `id,rho,delta,rectified` CSV rows — the
    /// format the figure binaries print so the paper's Figure 7 can be
    /// re-plotted.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("id,rho,delta,rectified\n");
        for p in &self.points {
            out.push_str(&format!(
                "{},{},{},{}\n",
                p.id, p.rho, p.delta, p.rectified as u8
            ));
        }
        out
    }

    /// Suggests `(rho_min, delta_min)` thresholds as a starting point for
    /// interactive refinement (not an oracle).
    ///
    /// `delta_min` is the midpoint of the largest gap in the sorted `delta`
    /// values — decision graphs of clusterable data show a wide empty band
    /// between the peaks' deltas and everyone else's. `rho_min` is zero so
    /// that low-density but well-separated peaks are not discarded.
    pub fn suggest_thresholds(&self) -> (u32, f64) {
        assert!(!self.points.is_empty(), "empty decision graph");
        let mut deltas: Vec<f64> = self.points.iter().map(|p| p.delta).collect();
        deltas.sort_by(|a, b| a.partial_cmp(b).expect("finite deltas"));
        let mut best_gap = 0.0;
        let mut cut = *deltas.last().expect("non-empty");
        for w in deltas.windows(2) {
            let gap = w[1] - w[0];
            if gap >= best_gap {
                best_gap = gap;
                cut = (w[0] + w[1]) / 2.0;
            }
        }
        (0, cut)
    }
}

/// Selects every point with `rho > rho_min` and `delta > delta_min` as a
/// density peak — the manual rectangle the user draws on the decision graph.
pub fn select_by_threshold(result: &DpResult, rho_min: u32, delta_min: f64) -> Vec<PointId> {
    let graph = DecisionGraph::from_result(result);
    graph
        .points()
        .iter()
        .filter(|p| p.rho > rho_min && p.delta > delta_min)
        .map(|p| p.id)
        .collect()
}

/// Selects the `k` points with the largest `gamma = rho_norm * delta_norm`
/// as density peaks. Deterministic: ties broken by id.
pub fn select_top_k(result: &DpResult, k: usize) -> Vec<PointId> {
    let gamma = result.gamma();
    let mut ids: Vec<PointId> = (0..result.len() as PointId).collect();
    ids.sort_by(|&a, &b| {
        gamma[b as usize]
            .partial_cmp(&gamma[a as usize])
            .expect("gamma is finite")
            .then(a.cmp(&b))
    });
    ids.truncate(k);
    ids.sort_unstable();
    ids
}

/// A hard clustering: one label per point.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Clustering {
    labels: Vec<u32>,
    n_clusters: u32,
}

impl Clustering {
    /// Builds a clustering from raw labels in `0..n_clusters`.
    ///
    /// # Panics
    /// Panics if any label is out of range.
    pub fn from_labels(labels: Vec<u32>, n_clusters: u32) -> Self {
        assert!(
            labels.iter().all(|&l| l < n_clusters),
            "label out of range (n_clusters = {n_clusters})"
        );
        Clustering { labels, n_clusters }
    }

    /// Cluster label of point `i`.
    pub fn label(&self, i: PointId) -> u32 {
        self.labels[i as usize]
    }

    /// All labels, indexed by point id.
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// Number of clusters.
    pub fn n_clusters(&self) -> u32 {
        self.n_clusters
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the clustering covers no points.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Per-cluster sizes, indexed by label.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.n_clusters as usize];
        for &l in &self.labels {
            sizes[l as usize] += 1;
        }
        sizes
    }
}

/// Assigns every point to a cluster by following the upslope chain from the
/// selected `peaks` (paper §III-A Step 3, Figure 1d).
///
/// Points are visited in descending density order (the canonical
/// [`density_order`]), so each point's upslope has already been labeled.
/// A point whose upslope is [`NO_UPSLOPE`] (the absolute peak, or an
/// approximate result's stranded candidates) that was *not* selected as a
/// peak is attached to the nearest-by-id selected peak's cluster via the
/// first peak — in exact DP this situation only arises when the user
/// excludes the absolute peak from the selection.
///
/// # Panics
/// Panics if `peaks` is empty or contains duplicate/out-of-range ids.
pub fn assign(result: &DpResult, peaks: &[PointId]) -> Clustering {
    assert!(!peaks.is_empty(), "at least one density peak is required");
    let n = result.len();
    let mut peak_cluster = vec![u32::MAX; n];
    for (c, &p) in peaks.iter().enumerate() {
        let slot = &mut peak_cluster[p as usize];
        assert!(*slot == u32::MAX, "duplicate peak id {p}");
        *slot = c as u32;
    }

    // Descending canonical density order.
    let mut order: Vec<PointId> = (0..n as PointId).collect();
    order.sort_by(|&a, &b| density_order(result.rho[a as usize], a, result.rho[b as usize], b));

    let mut labels = vec![u32::MAX; n];
    for &i in &order {
        let idx = i as usize;
        labels[idx] = if peak_cluster[idx] != u32::MAX {
            peak_cluster[idx]
        } else {
            match result.upslope[idx] {
                NO_UPSLOPE => 0, // stranded candidate not chosen as a peak
                u => {
                    let lbl = labels[u as usize];
                    debug_assert!(
                        lbl != u32::MAX,
                        "upslope point {u} of {i} not yet labeled — denser order violated"
                    );
                    lbl
                }
            }
        };
    }

    Clustering::from_labels(labels, peaks.len() as u32)
}

/// Cluster-halo detection from the original DP paper (Rodriguez & Laio
/// 2014): within each cluster, the *border region* is the set of points
/// within `d_c` of a point assigned to a different cluster; the cluster's
/// halo is every member whose density does not exceed the maximum
/// border-region density. Halo points are reliable cluster cores'
/// complement — noise and boundary points — and are reported as `true`.
///
/// The original formulation compares continuous (Gaussian-kernel)
/// densities strictly; with Eq. 1's integer densities the border points
/// themselves tie the bound, so the comparison here is inclusive
/// (`rho <= border_rho`), which keeps the border points in the halo.
///
/// Only cross-cluster pairs within `d_c` matter, so the candidates come
/// from [`Partition::pairs_near`] — O(N log N + N · neighbours) on its
/// indexed route against the all-pairs loop's O(N²) — and the predicate
/// itself, `euclidean(p_i, p_j) < d_c`, runs on each once; the flags are
/// the same on either route. Halo evaluations are not metered: the pass is
/// model assembly, outside a run's reported distance count.
pub fn compute_halo(
    ds: &crate::point::Dataset,
    result: &DpResult,
    clustering: &Clustering,
) -> Vec<bool> {
    assert_eq!(ds.len(), result.len(), "result must cover the dataset");
    assert_eq!(
        ds.len(),
        clustering.len(),
        "clustering must cover the dataset"
    );
    let n = ds.len();
    // Max density seen in each cluster's border region.
    let mut border_rho = vec![0u32; clustering.n_clusters() as usize];
    Partition::new(ds.as_flat(), ds.dim(), result.dc).pairs_near(|i, j, d2| {
        let ci = clustering.label(i as PointId) as usize;
        let cj = clustering.label(j as PointId) as usize;
        if ci != cj && d2.sqrt() < result.dc {
            // The ORIGINAL DP code uses the average density of the
            // cross-boundary pair as the bound candidate.
            let avg = (result.rho[i] + result.rho[j]) / 2;
            border_rho[ci] = border_rho[ci].max(avg);
            border_rho[cj] = border_rho[cj].max(avg);
        }
    });
    (0..n)
        .map(|i| {
            let b = border_rho[clustering.label(i as PointId) as usize];
            b > 0 && result.rho[i] <= b
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::compute_exact;
    use crate::point::Dataset;

    fn two_blobs() -> Dataset {
        // Blob A around 0, blob B around 100 (1-D).
        Dataset::from_flat(1, vec![0.0, 0.1, 0.2, 0.3, 0.4, 100.0, 100.1, 100.2, 100.3])
    }

    #[test]
    fn top_k_finds_both_blob_centers() {
        let ds = two_blobs();
        let r = compute_exact(&ds, 0.25);
        let peaks = select_top_k(&r, 2);
        assert_eq!(peaks.len(), 2);
        // One peak per blob.
        let in_a = peaks.iter().filter(|&&p| p < 5).count();
        let in_b = peaks.iter().filter(|&&p| p >= 5).count();
        assert_eq!((in_a, in_b), (1, 1));
    }

    #[test]
    fn assignment_separates_blobs() {
        let ds = two_blobs();
        let r = compute_exact(&ds, 0.25);
        let peaks = select_top_k(&r, 2);
        let c = assign(&r, &peaks);
        assert_eq!(c.n_clusters(), 2);
        for i in 0..5 {
            assert_eq!(c.label(i), c.label(0), "blob A must be one cluster");
        }
        for i in 5..9 {
            assert_eq!(c.label(i), c.label(5), "blob B must be one cluster");
        }
        assert_ne!(c.label(0), c.label(5));
        let mut sizes = c.sizes();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![4, 5]);
    }

    #[test]
    fn threshold_selection_matches_rectangle() {
        let ds = two_blobs();
        let r = compute_exact(&ds, 0.25);
        let g = DecisionGraph::from_result(&r);
        // The two blob centers have delta ~100 (cross-blob); everyone else
        // has delta <= 0.4.
        let peaks = select_by_threshold(&r, 0, 1.0);
        assert_eq!(peaks.len(), 2);
        // Exact DP assigns the absolute peak a finite max-distance delta,
        // so nothing needed rectification.
        assert!(g.points().iter().all(|p| !p.rectified));
    }

    #[test]
    fn decision_graph_is_finite_and_csv_exports() {
        let ds = two_blobs();
        let r = compute_exact(&ds, 0.25);
        let g = DecisionGraph::from_result(&r);
        assert_eq!(g.len(), ds.len());
        assert!(g.points().iter().all(|p| p.delta.is_finite()));
        let csv = g.to_csv();
        assert!(csv.starts_with("id,rho,delta,rectified\n"));
        assert_eq!(csv.lines().count(), ds.len() + 1);
    }

    #[test]
    fn suggest_thresholds_flags_outlier_deltas() {
        let ds = two_blobs();
        let r = compute_exact(&ds, 0.25);
        let g = DecisionGraph::from_result(&r);
        let (_rho_min, delta_min) = g.suggest_thresholds();
        let peaks = select_by_threshold(&r, 0, delta_min);
        assert_eq!(peaks.len(), 2);
    }

    #[test]
    fn single_cluster_assignment() {
        let ds = Dataset::from_flat(1, vec![0.0, 0.1, 0.2]);
        let r = compute_exact(&ds, 0.15);
        let peaks = select_top_k(&r, 1);
        let c = assign(&r, &peaks);
        assert_eq!(c.n_clusters(), 1);
        assert!(c.labels().iter().all(|&l| l == 0));
    }

    #[test]
    #[should_panic(expected = "at least one density peak")]
    fn assign_rejects_empty_peaks() {
        let ds = two_blobs();
        let r = compute_exact(&ds, 0.25);
        let _ = assign(&r, &[]);
    }

    #[test]
    #[should_panic(expected = "duplicate peak")]
    fn assign_rejects_duplicate_peaks() {
        let ds = two_blobs();
        let r = compute_exact(&ds, 0.25);
        let _ = assign(&r, &[1, 1]);
    }

    #[test]
    fn stranded_candidate_defaults_to_first_peak_cluster() {
        // Hand-build an approximate result where point 2 has NO_UPSLOPE but
        // is not selected as a peak.
        let r = DpResult {
            dc: 1.0,
            rho: vec![5, 3, 4],
            delta: vec![10.0, 1.0, f64::INFINITY],
            upslope: vec![NO_UPSLOPE, 0, NO_UPSLOPE],
        };
        let c = assign(&r, &[0]);
        assert_eq!(c.labels(), &[0, 0, 0]);
    }

    #[test]
    fn halo_is_empty_for_well_separated_blobs() {
        let ds = two_blobs();
        let r = compute_exact(&ds, 0.25);
        let peaks = select_top_k(&r, 2);
        let c = assign(&r, &peaks);
        let halo = compute_halo(&ds, &r, &c);
        // No cross-cluster pair is within dc, so no border region at all.
        assert!(halo.iter().all(|&h| !h));
    }

    #[test]
    fn halo_flags_bridge_points_between_touching_blobs() {
        // Two blobs connected by a sparse bridge; the bridge points (low
        // rho, within dc of the other cluster) must be halo.
        let mut ds = Dataset::new(1);
        for i in 0..20 {
            ds.push(&[i as f64 * 0.05]); // dense blob A: 0.00..0.95
        }
        ds.push(&[1.5]); // bridge point
        for i in 0..20 {
            ds.push(&[2.0 + i as f64 * 0.05]); // dense blob B
        }
        let r = compute_exact(&ds, 0.6);
        let peaks = select_top_k(&r, 2);
        let c = assign(&r, &peaks);
        let halo = compute_halo(&ds, &r, &c);
        assert!(halo[20], "the bridge point must be halo");
        // Blob cores (interior points) stay core.
        assert!(!halo[5], "blob A interior must be core");
        assert!(!halo[30], "blob B interior must be core");
    }

    #[test]
    #[should_panic(expected = "clustering must cover")]
    fn halo_rejects_mismatched_clustering() {
        let ds = two_blobs();
        let r = compute_exact(&ds, 0.25);
        let c = Clustering::from_labels(vec![0], 1);
        let _ = compute_halo(&ds, &r, &c);
    }

    /// The all-pairs formulation `compute_halo` must keep agreeing with.
    fn halo_all_pairs(ds: &Dataset, result: &DpResult, clustering: &Clustering) -> Vec<bool> {
        let n = ds.len();
        let mut border_rho = vec![0u32; clustering.n_clusters() as usize];
        for i in 0..n {
            let pi = ds.point(i as PointId);
            let ci = clustering.label(i as PointId) as usize;
            for j in (i + 1)..n {
                let cj = clustering.label(j as PointId) as usize;
                if ci == cj {
                    continue;
                }
                if crate::distance::euclidean(pi, ds.point(j as PointId)) < result.dc {
                    let avg = (result.rho[i] + result.rho[j]) / 2;
                    border_rho[ci] = border_rho[ci].max(avg);
                    border_rho[cj] = border_rho[cj].max(avg);
                }
            }
        }
        (0..n)
            .map(|i| {
                let b = border_rho[clustering.label(i as PointId) as usize];
                b > 0 && result.rho[i] <= b
            })
            .collect()
    }

    /// A result that only carries what the halo pass reads.
    fn halo_input(dc: f64, rho: Vec<u32>) -> DpResult {
        let n = rho.len();
        DpResult {
            dc,
            rho,
            delta: vec![0.0; n],
            upslope: vec![NO_UPSLOPE; n],
        }
    }

    /// `n` points in four slabs side by side along the first axis, labelled
    /// by slab, with their exact densities: neighbouring slabs sit closer
    /// than `d_c`, so each has a sparse border and a dense core.
    fn touching_blobs(n: usize, dim: usize) -> (Dataset, DpResult, Clustering) {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut ds = Dataset::new(dim);
        for i in 0..n {
            let row: Vec<f64> = (0..dim)
                .map(|d| match d {
                    0 => (i % 4) as f64 * 4.5 + next() * 4.0,
                    _ => next(),
                })
                .collect();
            ds.push(&row);
        }
        let labels = (0..n as u32).map(|i| i % 4).collect();
        let result = compute_exact(&ds, 0.8);
        (ds, result, Clustering::from_labels(labels, 4))
    }

    #[test]
    fn indexed_halo_matches_all_pairs_on_kd_and_grid_inputs() {
        for dim in [2, 5] {
            let (ds, r, c) = touching_blobs(600, dim);
            let halo = compute_halo(&ds, &r, &c);
            assert!(halo.contains(&true) && halo.contains(&false), "dim {dim}");
            assert_eq!(halo, halo_all_pairs(&ds, &r, &c), "dim {dim}");
        }
    }

    /// Regression: a NaN or infinite coordinate must never reach the index
    /// (a kd box cannot bound it); such inputs keep the all-pairs loop.
    #[test]
    fn non_finite_rows_take_the_all_pairs_route() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let (mut ds, r, c) = touching_blobs(400, 3);
            let mut flat = ds.as_flat().to_vec();
            flat[3 * 57 + 1] = bad;
            flat[3 * 311] = bad;
            ds = Dataset::from_flat(3, flat);
            assert_eq!(
                compute_halo(&ds, &r, &c),
                halo_all_pairs(&ds, &r, &c),
                "{bad}"
            );
        }
    }

    #[test]
    fn degenerate_cutoffs_match_all_pairs() {
        let (ds, r, c) = touching_blobs(300, 2);
        for dc in [0.0, -1.0, 1e-170, 1e170, f64::INFINITY, f64::NAN] {
            let r = halo_input(dc, r.rho.clone());
            assert_eq!(
                compute_halo(&ds, &r, &c),
                halo_all_pairs(&ds, &r, &c),
                "{dc}"
            );
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Halo flags equal the all-pairs reference below and above
            /// the index threshold. On the half-unit lattice, duplicates
            /// abound and `d_c = sqrt(k) / 2` sits exactly on attainable
            /// pair distances, which the strict predicate must exclude.
            #[test]
            fn halo_equals_the_all_pairs_reference(
                dim in 1usize..=8,
                n in 2usize..420,
                cells in proptest::collection::vec(0u8..6, 420 * 8),
                jitter in proptest::collection::vec(-0.2f64..0.2, 420 * 8),
                lattice in any::<bool>(),
                k in 1u32..=12,
                rho in proptest::collection::vec(0u32..40, 420),
                raw_labels in proptest::collection::vec(0u32..5, 420),
                shape in 0u8..4,
            ) {
                let flat: Vec<f64> = cells[..n * dim]
                    .iter()
                    .zip(&jitter)
                    .map(|(&c, &j)| f64::from(c) * 0.5 + if lattice { 0.0 } else { j })
                    .collect();
                let ds = Dataset::from_flat(dim, flat);
                let clustering = match shape {
                    0 => Clustering::from_labels(vec![0; n], 1),
                    1 => Clustering::from_labels((0..n as u32).collect(), n as u32),
                    _ => Clustering::from_labels(raw_labels[..n].to_vec(), 5),
                };
                let result = halo_input(f64::from(k).sqrt() * 0.5, rho[..n].to_vec());
                prop_assert_eq!(
                    compute_halo(&ds, &result, &clustering),
                    halo_all_pairs(&ds, &result, &clustering)
                );
            }
        }
    }

    #[test]
    fn select_top_k_is_deterministic_and_sorted() {
        let ds = two_blobs();
        let r = compute_exact(&ds, 0.25);
        let a = select_top_k(&r, 3);
        let b = select_top_k(&r, 3);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
    }
}
