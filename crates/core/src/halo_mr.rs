//! Distributed cluster-halo detection over LSH partitions.
//!
//! The original DP paper's core/halo split needs, per cluster, the
//! maximum density seen in its *border region* — pairs of points from
//! different clusters within `d_c` of each other. Centralized halo
//! detection ([`dp_core::decision::compute_halo`]) needs the whole data
//! set in one place; this module reuses LSH-DDP's partitioning insight:
//! border pairs are `d_c`-close, so they co-locate in an LSH partition
//! with the probability the paper's Lemma 1 machinery already quantifies.
//!
//! One MapReduce job: the mapper hashes each labeled point under all `M`
//! layouts; each reducer scans its partition for cross-cluster close
//! pairs (never evaluating a same-cluster one) and emits `(cluster, avg
//! pair density)` candidates with a max combiner; the driver folds the
//! per-cluster maxima and flags `rho_i < border_rho[cluster_i]`.
//!
//! The approximation errs exactly one way: a missed border pair can only
//! *lower* a cluster's border density, so the distributed halo set is
//! always a **subset** of the exact one (property-tested).

use crate::common::{flatten_coords, point_snapshot, PipelineConfig, PointRecord};
use crate::lsh_ddp::{LshDdpConfig, LshPartitionMapper, PartitionKey};
use dp_core::decision::Clustering;
use dp_core::dp::DpResult;
use dp_core::local::Partition;
use dp_core::{Dataset, DistanceTracker};
use lsh::MultiLsh;
use mapreduce::{plan, Emitter, JobMetrics, Reducer, Stage};
use std::sync::Arc;

/// Scans a partition for cross-cluster `d_c` pairs; emits per-cluster
/// border-density candidates.
struct BorderReducer {
    dc: f64,
    rho: Arc<Vec<u32>>,
    labels: Arc<Vec<u32>>,
    tracker: DistanceTracker,
}

impl Reducer for BorderReducer {
    type InKey = PartitionKey;
    type InValue = PointRecord;
    type OutKey = u32;
    type OutValue = u32;

    fn reduce(&self, _k: &PartitionKey, points: Vec<PointRecord>, out: &mut Emitter<u32, u32>) {
        let k_clusters = self
            .labels
            .iter()
            .copied()
            .max()
            .map_or(0, |m| m as usize + 1);
        let mut border = vec![0u32; k_clusters];
        let (flat, dim) = flatten_coords(points.iter().map(|(_, c)| &c[..]));
        let dc2 = self.dc * self.dc;
        let labels: Vec<u32> = points.iter().map(|p| self.labels[p.0 as usize]).collect();
        // A cross-cluster pair within `d_c` (the max update is idempotent).
        let evals = Partition::new(&flat, dim, self.dc).pairs_across(&labels, |i, j, d2| {
            if d2 < dc2 {
                let avg = (self.rho[points[i].0 as usize] + self.rho[points[j].0 as usize]) / 2;
                for c in [labels[i], labels[j]] {
                    border[c as usize] = border[c as usize].max(avg);
                }
            }
        });
        self.tracker.add(evals);
        for (c, b) in border.into_iter().enumerate() {
            if b > 0 {
                out.emit(c as u32, b);
            }
        }
    }
}

/// Output of the distributed halo computation.
#[derive(Debug)]
pub struct DistributedHalo {
    /// `true` = halo (boundary/noise) point.
    pub halo: Vec<bool>,
    /// Per-cluster border density bound that was applied.
    pub border_rho: Vec<u32>,
    /// Engine metrics of the border-scan job.
    pub job: JobMetrics,
}

/// Computes the (conservative) halo flags with one LSH-partitioned job.
///
/// `config` supplies the LSH layouts; reuse the same parameters (and
/// seed) as the clustering run so partition quality matches.
pub fn compute_halo_distributed(
    ds: &Dataset,
    result: &DpResult,
    clustering: &Clustering,
    config: &LshDdpConfig,
    pipeline: &PipelineConfig,
) -> DistributedHalo {
    let _pipeline_span = obsv::span!("pipeline", "halo-mr");
    assert_eq!(ds.len(), result.len(), "result must cover the dataset");
    assert_eq!(
        ds.len(),
        clustering.len(),
        "clustering must cover the dataset"
    );
    let tracker = DistanceTracker::new();
    let multi = Arc::new(MultiLsh::new(ds.dim(), &config.params, config.seed));
    let rho = Arc::new(result.rho.clone());
    let labels = Arc::new(clustering.labels().to_vec());

    let snap = point_snapshot(ds);
    let mut driver = pipeline.driver();
    let t = tracker.clone();
    let candidates = driver.run_plan(
        plan("halo")
            .snapshot(&snap)
            .stage(
                Stage::new(
                    "halo/border-scan",
                    LshPartitionMapper {
                        multi,
                        lost: Arc::default(),
                    },
                    BorderReducer {
                        dc: result.dc,
                        rho: rho.clone(),
                        labels: labels.clone(),
                        tracker: tracker.clone(),
                    },
                )
                .config(pipeline.job_config())
                .finalize(move |m| {
                    m.user.insert("distances".into(), t.total());
                }),
            )
            .build(),
    );
    let job = driver
        .into_history()
        .pop()
        .expect("halo pipeline ran one stage");

    let mut border_rho = vec![0u32; clustering.n_clusters() as usize];
    for (c, b) in candidates {
        let slot = &mut border_rho[c as usize];
        *slot = (*slot).max(b);
    }
    let halo = (0..ds.len())
        .map(|i| {
            let b = border_rho[labels[i] as usize];
            b > 0 && result.rho[i] <= b
        })
        .collect();
    DistributedHalo {
        halo,
        border_rho,
        job,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_core::compute_exact;
    use dp_core::decision::{assign, compute_halo, select_top_k};

    /// Two dense blobs joined by a sparse bridge whose spacing stays
    /// within `d_c = 0.6`, so cross-cluster border pairs exist.
    fn bridged() -> Dataset {
        let mut ds = Dataset::new(1);
        for i in 0..30 {
            ds.push(&[i as f64 * 0.05]); // blob A: 0.00..1.45
        }
        for b in 0..4 {
            ds.push(&[1.85 + b as f64 * 0.4]); // bridge: 1.85..3.05
        }
        for i in 0..30 {
            ds.push(&[3.45 + i as f64 * 0.05]); // blob B: 3.45..4.90
        }
        ds
    }

    fn lsh_config(dc: f64) -> LshDdpConfig {
        LshDdpConfig {
            params: lsh::LshParams::for_accuracy(0.99, 10, 3, dc).expect("valid"),
            seed: 3,
            pipeline: PipelineConfig::default(),
            partition_cap: None,
            rho_aggregation: Default::default(),
        }
    }

    #[test]
    fn distributed_halo_is_subset_of_exact() {
        let ds = bridged();
        let dc = 0.6;
        let r = compute_exact(&ds, dc);
        let peaks = select_top_k(&r, 2);
        let c = assign(&r, &peaks);
        let exact = compute_halo(&ds, &r, &c);
        let dist =
            compute_halo_distributed(&ds, &r, &c, &lsh_config(dc), &PipelineConfig::default());
        for (i, (&d, &e)) in dist.halo.iter().zip(&exact).enumerate() {
            assert!(
                !d || e,
                "point {i}: distributed halo must be a subset of exact"
            );
        }
    }

    #[test]
    fn high_accuracy_layouts_recover_the_exact_halo() {
        let ds = bridged();
        let dc = 0.6;
        let r = compute_exact(&ds, dc);
        let peaks = select_top_k(&r, 2);
        let c = assign(&r, &peaks);
        let exact = compute_halo(&ds, &r, &c);
        let dist =
            compute_halo_distributed(&ds, &r, &c, &lsh_config(dc), &PipelineConfig::default());
        let agree = dist.halo.iter().zip(&exact).filter(|(a, b)| a == b).count();
        assert!(
            agree as f64 / ds.len() as f64 > 0.95,
            "{agree}/{} flags agree",
            ds.len()
        );
        // The bridge region must be detected.
        assert!(
            dist.halo[30..34].iter().any(|&h| h),
            "bridge points flagged"
        );
    }

    #[test]
    fn no_border_no_halo() {
        // Far-apart blobs: no cross-cluster d_c pairs anywhere.
        let mut ds = Dataset::new(1);
        for i in 0..20 {
            ds.push(&[i as f64 * 0.05]);
        }
        for i in 0..20 {
            ds.push(&[1000.0 + i as f64 * 0.05]);
        }
        let dc = 0.3;
        let r = compute_exact(&ds, dc);
        let peaks = select_top_k(&r, 2);
        let c = assign(&r, &peaks);
        let dist =
            compute_halo_distributed(&ds, &r, &c, &lsh_config(dc), &PipelineConfig::default());
        assert!(dist.halo.iter().all(|&h| !h));
        assert!(dist.border_rho.iter().all(|&b| b == 0));
    }
}
