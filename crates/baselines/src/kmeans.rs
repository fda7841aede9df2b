//! K-means: sequential Lloyd's algorithm and its MapReduce formulation.
//!
//! The MapReduce variant mirrors the canonical Hadoop K-means the paper
//! benchmarks (Figure 11): each Lloyd iteration is one job whose mapper
//! assigns points to the nearest broadcast centroid and emits partial sums,
//! a combiner pre-aggregates them, and the reducer computes new centroids.
//! Per-iteration [`mapreduce::JobMetrics`] let the harness reproduce the
//! paper's "runtime after every iteration" curve.

use dp_core::decision::Clustering;
use dp_core::{Dataset, DistanceTracker};
use mapreduce::{Emitter, JobBuilder, JobConfig, JobMetrics, Mapper, Merge, Reducer};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

/// Sequential K-means configuration.
#[derive(Debug, Clone)]
pub struct KMeans {
    /// Number of clusters.
    pub k: usize,
    /// Iteration cap.
    pub max_iters: usize,
    /// Convergence threshold on total centroid movement.
    pub tol: f64,
    /// Seed for k-means++ initialization.
    pub seed: u64,
}

impl KMeans {
    /// Standard configuration: k-means++ init, 100 iterations, 1e-9
    /// tolerance.
    pub fn new(k: usize, seed: u64) -> Self {
        assert!(k > 0, "k must be positive");
        KMeans {
            k,
            max_iters: 100,
            tol: 1e-9,
            seed,
        }
    }
}

/// Output of a K-means fit.
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// Hard assignment of every point.
    pub clustering: Clustering,
    /// Final centroids, row-major (`k × dim`).
    pub centroids: Vec<Vec<f64>>,
    /// Iterations actually run.
    pub iterations: usize,
    /// Final sum of squared distances to assigned centroids.
    pub inertia: f64,
}

/// k-means++ seeding: spread initial centroids proportionally to squared
/// distance from the chosen set.
pub fn kmeans_plus_plus(ds: &Dataset, k: usize, seed: u64) -> Vec<Vec<f64>> {
    assert!(k > 0 && k <= ds.len(), "k must be in 1..=N");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    let first = rng.random_range(0..ds.len() as u32);
    centroids.push(ds.point(first).to_vec());
    let mut d2 = vec![f64::INFINITY; ds.len()];
    while centroids.len() < k {
        let latest = centroids.last().expect("non-empty");
        let mut total = 0.0;
        for (i, (_, p)) in ds.iter().enumerate() {
            let d = dp_core::distance::squared_euclidean(p, latest);
            if d < d2[i] {
                d2[i] = d;
            }
            total += d2[i];
        }
        let next = if total > 0.0 {
            let mut target: f64 = rng.random_range(0.0..total);
            let mut chosen = ds.len() - 1;
            for (i, &w) in d2.iter().enumerate() {
                if target < w {
                    chosen = i;
                    break;
                }
                target -= w;
            }
            chosen
        } else {
            // All remaining points coincide with a centroid.
            rng.random_range(0..ds.len())
        };
        centroids.push(ds.point(next as u32).to_vec());
    }
    centroids
}

fn nearest_centroid(p: &[f64], centroids: &[Vec<f64>]) -> (usize, f64) {
    let mut best = (0usize, f64::INFINITY);
    for (c, centroid) in centroids.iter().enumerate() {
        let d = dp_core::distance::squared_euclidean(p, centroid);
        if d < best.1 {
            best = (c, d);
        }
    }
    best
}

impl KMeans {
    /// Runs Lloyd's algorithm to convergence (or the iteration cap).
    pub fn fit(&self, ds: &Dataset) -> KMeansResult {
        assert!(!ds.is_empty(), "cannot cluster an empty dataset");
        assert!(
            self.k <= ds.len(),
            "k = {} exceeds N = {}",
            self.k,
            ds.len()
        );
        let dim = ds.dim();
        let mut centroids = kmeans_plus_plus(ds, self.k, self.seed);
        let mut labels = vec![0u32; ds.len()];
        let mut iterations = 0;
        let mut inertia = f64::INFINITY;
        for iter in 0..self.max_iters {
            iterations = iter + 1;
            // Assignment step.
            inertia = 0.0;
            for (i, (_, p)) in ds.iter().enumerate() {
                let (c, d) = nearest_centroid(p, &centroids);
                labels[i] = c as u32;
                inertia += d;
            }
            // Update step.
            let mut sums = vec![vec![0.0f64; dim]; self.k];
            let mut counts = vec![0usize; self.k];
            for (i, (_, p)) in ds.iter().enumerate() {
                let c = labels[i] as usize;
                counts[c] += 1;
                for (s, x) in sums[c].iter_mut().zip(p) {
                    *s += x;
                }
            }
            let mut movement = 0.0;
            for c in 0..self.k {
                if counts[c] == 0 {
                    continue; // empty cluster keeps its centroid
                }
                let mut new_c = sums[c].clone();
                for x in new_c.iter_mut() {
                    *x /= counts[c] as f64;
                }
                movement += dp_core::distance::euclidean(&new_c, &centroids[c]);
                centroids[c] = new_c;
            }
            if movement <= self.tol {
                break;
            }
        }
        KMeansResult {
            clustering: Clustering::from_labels(labels, self.k as u32),
            centroids,
            iterations,
            inertia,
        }
    }
}

/// One Lloyd iteration's map output: partial `(sum, count)` per centroid.
type PartialSum = (Vec<f64>, u64);

struct AssignMapper {
    centroids: Arc<Vec<Vec<f64>>>,
    tracker: DistanceTracker,
}

impl Mapper for AssignMapper {
    type InKey = u32;
    type InValue = Vec<f64>;
    type OutKey = u32;
    type OutValue = PartialSum;

    fn map(&self, _id: u32, coords: Vec<f64>, out: &mut Emitter<u32, PartialSum>) {
        self.tracker.add(self.centroids.len() as u64);
        let (c, _) = nearest_centroid(&coords, &self.centroids);
        out.emit(c as u32, (coords, 1));
    }
}

/// Adds partial sums: the combiner of every iteration job, and the fold of
/// its reducer. f64 addition is not associative, so the sums depend on the
/// order they are added in; the engine folds each key's values in
/// emission order, which keeps them deterministic for a fixed map split.
struct SumPartials;
impl Merge for SumPartials {
    type Value = PartialSum;
    fn merge(&self, (sum, count): &mut PartialSum, (s, c): PartialSum) {
        for (a, b) in sum.iter_mut().zip(s) {
            *a += b;
        }
        *count += c;
    }
}

/// Folds a centroid's partial sums with [`SumPartials`], in order, then
/// divides by the count.
struct CentroidReducer;
impl Reducer for CentroidReducer {
    type InKey = u32;
    type InValue = PartialSum;
    type OutKey = u32;
    type OutValue = Vec<f64>;
    fn reduce(&self, k: &u32, vs: Vec<PartialSum>, out: &mut Emitter<u32, Vec<f64>>) {
        let (mut sum, count) = SumPartials.fold(vs);
        for x in sum.iter_mut() {
            *x /= count as f64;
        }
        out.emit(*k, sum);
    }
}

/// The MapReduce K-means driver.
#[derive(Debug, Clone)]
pub struct MapReduceKMeans {
    /// Number of clusters.
    pub k: usize,
    /// Seed for initialization.
    pub seed: u64,
    /// Engine parallelism.
    pub job_config: JobConfig,
}

/// Result of a MapReduce K-means run.
#[derive(Debug)]
pub struct MapReduceKMeansResult {
    /// Final hard assignment.
    pub clustering: Clustering,
    /// Final centroids.
    pub centroids: Vec<Vec<f64>>,
    /// Engine metrics of every iteration job, in order — the Figure 11
    /// series.
    pub iteration_metrics: Vec<JobMetrics>,
    /// Total distance computations.
    pub distances: u64,
}

impl MapReduceKMeans {
    /// A driver with default engine parallelism.
    pub fn new(k: usize, seed: u64) -> Self {
        assert!(k > 0, "k must be positive");
        MapReduceKMeans {
            k,
            seed,
            job_config: JobConfig::default(),
        }
    }

    /// Runs `iterations` Lloyd iterations as MapReduce jobs.
    pub fn run(&self, ds: &Dataset, iterations: usize) -> MapReduceKMeansResult {
        assert!(!ds.is_empty(), "cannot cluster an empty dataset");
        assert!(
            self.k <= ds.len(),
            "k = {} exceeds N = {}",
            self.k,
            ds.len()
        );
        let tracker = DistanceTracker::new();
        let mut centroids = Arc::new(kmeans_plus_plus(ds, self.k, self.seed));
        let mut metrics = Vec::with_capacity(iterations);
        let input: Vec<(u32, Vec<f64>)> = ds.iter().map(|(id, p)| (id, p.to_vec())).collect();
        for iter in 0..iterations {
            let (out, mut m) = JobBuilder::new(
                format!("kmeans/iter-{iter}"),
                AssignMapper {
                    centroids: centroids.clone(),
                    tracker: tracker.clone(),
                },
                CentroidReducer,
            )
            .combiner(SumPartials)
            .config(self.job_config)
            .run(input.clone());
            m.user.insert("distances".into(), tracker.total());
            metrics.push(m);
            let mut next: Vec<Vec<f64>> = (*centroids).clone();
            for (c, coords) in out {
                next[c as usize] = coords;
            }
            centroids = Arc::new(next);
        }
        // Final assignment pass (master side).
        let labels: Vec<u32> = ds
            .iter()
            .map(|(_, p)| nearest_centroid(p, &centroids).0 as u32)
            .collect();
        MapReduceKMeansResult {
            clustering: Clustering::from_labels(labels, self.k as u32),
            centroids: (*centroids).clone(),
            iteration_metrics: metrics,
            distances: tracker.total(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> Dataset {
        let mut ds = Dataset::new(2);
        for i in 0..30 {
            let t = i as f64 * 0.01;
            ds.push(&[t, -t]);
        }
        for i in 0..30 {
            let t = i as f64 * 0.01;
            ds.push(&[50.0 + t, 50.0 - t]);
        }
        ds
    }

    #[test]
    fn sequential_separates_two_blobs() {
        let r = KMeans::new(2, 1).fit(&blobs());
        assert!(r.iterations >= 1);
        let c = &r.clustering;
        for i in 1..30 {
            assert_eq!(c.label(i), c.label(0));
        }
        for i in 31..60 {
            assert_eq!(c.label(i), c.label(30));
        }
        assert_ne!(c.label(0), c.label(30));
        assert!(r.inertia < 10.0, "inertia {}", r.inertia);
    }

    #[test]
    fn kmeanspp_selects_k_distinct_spread_centroids() {
        let ds = blobs();
        let cents = kmeans_plus_plus(&ds, 2, 3);
        assert_eq!(cents.len(), 2);
        let d = dp_core::distance::euclidean(&cents[0], &cents[1]);
        assert!(d > 10.0, "k-means++ must spread centroids, got {d}");
    }

    #[test]
    fn deterministic_in_seed() {
        let ds = blobs();
        let a = KMeans::new(2, 7).fit(&ds);
        let b = KMeans::new(2, 7).fit(&ds);
        assert_eq!(a.clustering.labels(), b.clustering.labels());
        assert_eq!(a.centroids, b.centroids);
    }

    #[test]
    fn inertia_is_monotone_in_k() {
        let ds = blobs();
        let i1 = KMeans::new(1, 5).fit(&ds).inertia;
        let i2 = KMeans::new(2, 5).fit(&ds).inertia;
        let i4 = KMeans::new(4, 5).fit(&ds).inertia;
        assert!(i2 <= i1);
        assert!(i4 <= i2 + 1e-9);
    }

    #[test]
    fn mapreduce_matches_sequential_fixed_point() {
        let ds = blobs();
        let seq = KMeans::new(2, 1).fit(&ds);
        let mr = MapReduceKMeans::new(2, 1).run(&ds, 10);
        // Both converge to the same two-blob solution (same seed, same
        // init); compare assignments up to label permutation via ARI.
        let ari =
            dp_core::quality::adjusted_rand_index(seq.clustering.labels(), mr.clustering.labels());
        assert!((ari - 1.0).abs() < 1e-12, "ARI = {ari}");
        assert_eq!(mr.iteration_metrics.len(), 10);
        assert!(mr.distances > 0);
    }

    #[test]
    fn mapreduce_iteration_metrics_have_constant_shuffle() {
        // The combiner collapses each map task's points to <= k partial
        // sums, so shuffle volume is independent of N per task count.
        let ds = blobs();
        let mr = MapReduceKMeans::new(2, 2).run(&ds, 3);
        for m in &mr.iteration_metrics {
            assert!(m.shuffle_records <= 2 * m.user.len() as u64 + 64);
            assert_eq!(m.map_input_records, 60);
        }
    }

    #[test]
    fn empty_cluster_keeps_centroid() {
        // k = 3 on two tight blobs: one centroid may starve; fit must not
        // panic and must return 3 centroids.
        let r = KMeans::new(3, 11).fit(&blobs());
        assert_eq!(r.centroids.len(), 3);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn rejects_zero_k() {
        let _ = KMeans::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "exceeds N")]
    fn rejects_k_above_n() {
        let mut ds = Dataset::new(1);
        ds.push(&[0.0]);
        let _ = KMeans::new(2, 1).fit(&ds);
    }
}
