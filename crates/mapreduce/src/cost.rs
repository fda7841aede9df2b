//! Cluster cost model: converts measured job counters into a simulated wall
//! time for an arbitrary cluster size.
//!
//! The paper evaluates on two clusters — a 5-node local cluster (4 slaves,
//! i5-4690) and 64 m1.medium EC2 instances. We run the actual MapReduce
//! computation on one machine, but the job counters (shuffled bytes,
//! records, distance computations) are *exact*, so a linear cost model
//! reproduces cluster-level runtimes and, crucially, their ratios:
//!
//! ```text
//! time(job) = startup
//!           + cpu_work / (workers * cpu_rate)
//!           + shuffle_bytes / (workers * net_rate)
//!           + records * per_record / workers
//! ```
//!
//! Basic-DDP's quadratic shuffle and distance terms dominate exactly as on
//! real Hadoop, which is what produces the paper's 70× EC2 gap.

use crate::counters::JobMetrics;
use serde::{Deserialize, Serialize};

/// A linear cost model of a shared-nothing cluster.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Number of worker machines (Hadoop slaves).
    pub workers: usize,
    /// Distance computations per second *per worker*. A 4-dim Euclidean
    /// distance is ~10 ns on a 2010s-era core; high-dimensional points are
    /// proportionally slower, which `dims_factor` captures.
    pub distances_per_sec: f64,
    /// Aggregate shuffle bandwidth per worker, bytes/second (network +
    /// serialization + disk spill, the effective Hadoop shuffle rate).
    pub shuffle_bytes_per_sec: f64,
    /// Fixed per-record processing overhead, seconds (deserialization,
    /// context switches).
    pub per_record_secs: f64,
    /// Fixed startup cost of one MapReduce job, seconds (JVM spin-up,
    /// scheduling); Hadoop 1.x jobs pay ~10–20 s.
    pub job_startup_secs: f64,
}

impl ClusterSpec {
    /// The paper's local cluster: 1 master + 4 slaves, i5-4690, GbE,
    /// Hadoop 1.2.1. The effective rates reflect the Hadoop stack, not
    /// raw hardware: ~5×10⁷ 4-dim distance evaluations/s per core under
    /// the JVM, and ~10 MB/s effective shuffle per node once
    /// serialization, sort spills and HTTP fetch are accounted — shuffle
    /// is the dominant term, exactly as the paper's Figure 10 shows.
    pub fn local_cluster() -> Self {
        ClusterSpec {
            workers: 4,
            distances_per_sec: 5.0e7,
            shuffle_bytes_per_sec: 10.0e6,
            per_record_secs: 1.0e-6,
            job_startup_secs: 15.0,
        }
    }

    /// The paper's EC2 cluster: 64 m1.medium instances (1 vCPU, moderate
    /// network) — roughly half the local cluster's per-worker rates.
    pub fn ec2_m1_medium(workers: usize) -> Self {
        ClusterSpec {
            workers,
            distances_per_sec: 2.5e7,
            shuffle_bytes_per_sec: 6.0e6,
            per_record_secs: 2.0e-6,
            job_startup_secs: 20.0,
        }
    }

    /// Simulated wall time of one job, given its metrics and the number of
    /// distance computations it performed (`dist`), with a dimensionality
    /// scale factor `dims_factor` (= point dimensionality / 4.0, clamped to
    /// at least 1) applied to distance cost.
    pub fn simulate_job(&self, m: &JobMetrics, dist: u64, dims_factor: f64) -> f64 {
        assert!(self.workers > 0, "cluster must have at least one worker");
        let w = self.workers as f64;
        let cpu = dist as f64 * dims_factor.max(1.0) / (self.distances_per_sec * w);
        let net = m.shuffle_bytes as f64 / (self.shuffle_bytes_per_sec * w);
        let rec = (m.map_input_records + m.shuffle_records + m.reduce_output_records) as f64
            * self.per_record_secs
            / w;
        self.job_startup_secs + cpu + net + rec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(shuffle_bytes: u64, records: u64) -> JobMetrics {
        JobMetrics {
            name: "j".into(),
            map_input_records: records,
            shuffle_records: records,
            shuffle_bytes,
            ..Default::default()
        }
    }

    #[test]
    fn startup_dominates_empty_job() {
        let spec = ClusterSpec::local_cluster();
        let t = spec.simulate_job(&job(0, 0), 0, 1.0);
        assert!((t - spec.job_startup_secs).abs() < 1e-9);
    }

    #[test]
    fn time_scales_inversely_with_workers() {
        let m = job(1_000_000_000, 1_000_000);
        let few = ClusterSpec {
            workers: 4,
            ..ClusterSpec::ec2_m1_medium(4)
        };
        let many = ClusterSpec {
            workers: 64,
            ..ClusterSpec::ec2_m1_medium(64)
        };
        let t_few = few.simulate_job(&m, 10_000_000_000, 1.0) - few.job_startup_secs;
        let t_many = many.simulate_job(&m, 10_000_000_000, 1.0) - many.job_startup_secs;
        assert!(
            (t_few / t_many - 16.0).abs() < 1e-6,
            "work terms scale 1/workers"
        );
    }

    #[test]
    fn quadratic_vs_linear_work_produces_large_ratio() {
        // Basic-DDP on N = 1M: ~N²/2 distances and ~N*(n_blocks+1)/2 point
        // shuffles. LSH-DDP: ~N*avg_partition distances, 2M copies shuffled.
        let n: u64 = 1_000_000;
        let spec = ClusterSpec::ec2_m1_medium(64);
        let basic_dist = n * n / 2;
        let basic = job(n * 500 * 60, n * 50);
        let lsh_dist = n * 2000;
        let lsh = job(n * 2 * 10 * 60, n * 20);
        let t_basic = spec.simulate_job(&basic, basic_dist, 14.0);
        let t_lsh = spec.simulate_job(&lsh, lsh_dist, 14.0);
        let speedup = t_basic / t_lsh;
        assert!(speedup > 20.0, "expected a large speedup, got {speedup}");
    }

    #[test]
    fn dims_factor_clamps_to_one() {
        let spec = ClusterSpec::local_cluster();
        let m = job(0, 0);
        let lo = spec.simulate_job(&m, 1_000_000, 0.25);
        let one = spec.simulate_job(&m, 1_000_000, 1.0);
        assert_eq!(lo, one);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let spec = ClusterSpec {
            workers: 0,
            ..ClusterSpec::local_cluster()
        };
        let _ = spec.simulate_job(&job(0, 0), 0, 1.0);
    }
}
