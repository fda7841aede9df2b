//! The centralized final step (paper §III-A Step 3): decision graph, peak
//! selection, and cluster assignment.
//!
//! The `(rho, delta)` sets are tiny compared to the input (the paper notes
//! a billion points fit in ~12 GB), so — exactly like the paper — peak
//! selection and assignment run on the "master" in a single thread, over
//! the result assembled from the distributed jobs.

use dp_core::decision::{Clustering, DecisionGraph};
use dp_core::{decision, DpResult, PointId};
use serde::{Deserialize, Serialize};

/// How density peaks are chosen from the decision graph.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum PeakSelection {
    /// The interactive rectangle: all points with `rho > rho_min` and
    /// `delta > delta_min`. This is the paper's preferred mode — the user
    /// inspects the decision graph and draws the thresholds.
    Threshold {
        /// Minimum density (exclusive).
        rho_min: u32,
        /// Minimum separation (exclusive).
        delta_min: f64,
    },
    /// Automatic: the `k` points with the largest `gamma = rho * delta`.
    TopK(usize),
    /// Oracle-k rectangle: the `k` largest-`delta` points among those
    /// whose density reaches the `rho_quantile` of all densities
    /// ([`decision::select_delta_outliers`]).
    ///
    /// This emulates what the paper's interactive user actually does on a
    /// decision graph: isolated outliers also show large `delta` but sit
    /// at the *bottom* of the `rho` axis, so the user's rectangle demands
    /// both coordinates. Preferable to [`PeakSelection::TopK`] when
    /// cluster densities vary widely (the `rho·delta` product then favors
    /// secondary fluctuations inside dense clusters over the true peaks
    /// of sparse ones).
    DeltaOutliers {
        /// Number of peaks to select.
        k: usize,
        /// Density floor as a quantile of all `rho` values (e.g. `0.5`).
        rho_quantile: f64,
    },
    /// Fully automatic: thresholds from
    /// [`DecisionGraph::suggest_thresholds`]; when they select nothing, the
    /// canonical densest point alone.
    Auto,
}

/// Result of the centralized step.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CentralizedOutput {
    /// The decision graph handed to the user (deltas rectified).
    pub graph: DecisionGraph,
    /// The selected density peaks (cluster centers), ascending by id.
    pub peaks: Vec<PointId>,
    /// The final hard clustering.
    pub clustering: Clustering,
}

/// Runs the centralized step over a distributed `(rho, delta, upslope)`
/// result.
#[derive(Debug, Clone)]
pub struct CentralizedStep {
    selection: PeakSelection,
}

impl CentralizedStep {
    /// A step with the given selection policy.
    pub fn new(selection: PeakSelection) -> Self {
        CentralizedStep { selection }
    }

    /// Selects peaks and assigns every point to a cluster: one pass to
    /// build the graph, a selection, and one chain walk, so a relabel on
    /// the same result costs `O(N + k log k)` with no sort of all points
    /// (except under [`PeakSelection::Auto`], whose suggested thresholds
    /// sort the deltas).
    ///
    /// # Panics
    /// Panics if the selection yields no peaks (nothing to assign to) —
    /// re-run with looser thresholds.
    pub fn run(&self, result: &DpResult) -> CentralizedOutput {
        let _span = obsv::span!("ddp", "centralized");
        let (graph, peaks) = obsv::span!("ddp", "select" => {
            let graph = DecisionGraph::from_result(result);
            let peaks = match &self.selection {
                PeakSelection::Threshold { rho_min, delta_min } => {
                    decision::select_by_threshold(result, *rho_min, *delta_min)
                }
                PeakSelection::TopK(k) => decision::select_top_k(result, *k),
                PeakSelection::DeltaOutliers { k, rho_quantile } => {
                    decision::select_delta_outliers(result, *k, *rho_quantile)
                }
                PeakSelection::Auto => {
                    let (rho_min, delta_min) = graph.suggest_thresholds();
                    let peaks = decision::select_by_threshold(result, rho_min, delta_min);
                    if peaks.is_empty() {
                        vec![densest(result)]
                    } else {
                        peaks
                    }
                }
            };
            (graph, peaks)
        });
        assert!(
            !peaks.is_empty(),
            "peak selection produced no density peaks; loosen the thresholds"
        );
        let clustering = obsv::span!("ddp", "assign" => { decision::assign(result, &peaks) });
        CentralizedOutput {
            graph,
            peaks,
            clustering,
        }
    }
}

/// The canonical densest point, max `(rho, id)`: the one peak
/// [`PeakSelection::Auto`] falls back to when the largest-gap cut selects
/// nothing (a single point, duplicates only, no positive density).
fn densest(result: &DpResult) -> PointId {
    (0..result.len() as PointId)
        .max_by_key(|&i| (result.rho[i as usize], i))
        .expect("a result with at least one point")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_core::{compute_exact, Dataset};

    fn blobs() -> Dataset {
        let mut ds = Dataset::new(1);
        for i in 0..10 {
            ds.push(&[i as f64 * 0.1]);
        }
        for i in 0..10 {
            ds.push(&[50.0 + i as f64 * 0.1]);
        }
        ds
    }

    #[test]
    fn top_k_selection_and_assignment() {
        let ds = blobs();
        let r = compute_exact(&ds, 0.35);
        let out = CentralizedStep::new(PeakSelection::TopK(2)).run(&r);
        assert_eq!(out.peaks.len(), 2);
        assert_eq!(out.clustering.n_clusters(), 2);
        assert_eq!(out.graph.len(), 20);
        assert_eq!(out.clustering.label(0), out.clustering.label(9));
        assert_ne!(out.clustering.label(0), out.clustering.label(10));
    }

    #[test]
    fn auto_selection_finds_two_blobs() {
        let ds = blobs();
        let r = compute_exact(&ds, 0.35);
        let out = CentralizedStep::new(PeakSelection::Auto).run(&r);
        assert_eq!(
            out.peaks.len(),
            2,
            "largest delta gap separates the two centers"
        );
    }

    #[test]
    fn auto_selection_on_one_point_picks_it() {
        let r = compute_exact(&Dataset::from_flat(2, vec![1.0, 2.0]), 1.0);
        let out = CentralizedStep::new(PeakSelection::Auto).run(&r);
        assert_eq!(out.peaks, vec![0]);
        assert_eq!(out.clustering.n_clusters(), 1);
    }

    #[test]
    fn auto_selection_on_duplicates_picks_the_canonical_densest() {
        let r = compute_exact(&Dataset::from_flat(1, vec![3.0; 3]), 1.0);
        let out = CentralizedStep::new(PeakSelection::Auto).run(&r);
        assert_eq!(out.peaks, vec![2], "max (rho, id)");
        assert_eq!(out.clustering.n_clusters(), 1);
    }

    #[test]
    fn threshold_selection() {
        let ds = blobs();
        let r = compute_exact(&ds, 0.35);
        let out = CentralizedStep::new(PeakSelection::Threshold {
            rho_min: 0,
            delta_min: 5.0,
        })
        .run(&r);
        assert_eq!(out.peaks.len(), 2);
    }

    #[test]
    #[should_panic(expected = "no density peaks")]
    fn impossible_threshold_panics() {
        let ds = blobs();
        let r = compute_exact(&ds, 0.35);
        let _ = CentralizedStep::new(PeakSelection::Threshold {
            rho_min: u32::MAX - 1,
            delta_min: f64::MAX,
        })
        .run(&r);
    }
}
