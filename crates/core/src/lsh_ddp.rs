//! LSH-DDP (paper §IV): the approximate multi-layout pipeline.
//!
//! Four MapReduce jobs:
//!
//! 1. **LSH partition + local `rho`** — the mapper hashes each point with
//!    all `M` hash groups and emits `((m, G_m(p)), point)`; each reducer
//!    owns one partition `S_k^m` and computes `rho_hat_i^m` by local
//!    all-pairs counting.
//! 2. **`rho` aggregation** — `rho_hat_i = max_m rho_hat_i^m`
//!    (local densities are never over-counted, so `max` is the tightest
//!    choice; Theorem 1 gives its accuracy).
//! 3. **LSH partition + local `delta`** — same partitioning (same seeded
//!    hash groups); each reducer finds the nearest locally-denser point
//!    under the aggregated `rho_hat` (broadcast like a distributed-cache
//!    file). The locally densest point gets `delta = ∞`.
//! 4. **`delta` aggregation** — `delta_hat_i = min_m delta_hat_i^m`;
//!    points that were the densest in *every* partition they visited stay
//!    at `∞` and become *peak candidates* — the paper's resolution of the
//!    non-local `delta` (§IV-C). The centralized step rectifies `∞` to the
//!    max finite `delta` before drawing the decision graph.

use crate::common::{
    dc_sampling_stage, debug_assert_euclidean, density_keys, flatten_coords, point_records,
    point_snapshot, IdentityMapper, PipelineConfig, PointRecord,
};
use crate::stats::RunReport;
use dp_core::dp::{DpResult, NO_UPSLOPE};
use dp_core::local::Partition;
use dp_core::{Dataset, DistanceTracker, PointId};
use lsh::tuning::TuningError;
use lsh::{LshParams, MultiLsh, Signature};
use mapreduce::{
    plan, Combiner, Driver, Emitter, JobBuilder, JobMetrics, Mapper, ReduceStage, Reducer, Snapshot,
};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// The co-partitioning contract of jobs 1 and 3: both apply the same
/// seeded [`LshPartitionMapper`] (identical `MultiLsh` layouts) and hash
/// partitioner to the same point snapshot, so the scheduler reuses job 1's
/// post-shuffle partitions for job 3 and elides its map+shuffle entirely —
/// the plan layer's formalization of "same partitioning (same seeded hash
/// groups)".
const LSH_LAYOUT_CONTRACT: &str = "lsh/layout";

/// Chaos scope of the LSH layouts under
/// [`mapreduce::ChaosPlan::loses_partition`]: losing "partition `m`" of
/// this scope means every partition of layout `m` is permanently gone (the
/// node holding that layout's buckets died and its replicas with it). The
/// pipeline degrades gracefully: it aggregates over the surviving layouts
/// and reports the expected-accuracy impact instead of failing.
const LAYOUT_LOSS_SCOPE: u64 = 0x6c73_685f_6c61_796f; // "lsh_layo"

/// LSH-DDP configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LshDdpConfig {
    /// The LSH parameters `(M, pi, w)`.
    pub params: LshParams,
    /// Seed for the hash-group draws (layouts are deterministic in it).
    pub seed: u64,
    /// Engine parallelism.
    pub pipeline: PipelineConfig,
    /// How per-layout density estimates are aggregated (job 2).
    #[serde(default)]
    pub rho_aggregation: RhoAggregation,
    /// Reducer memory bound: partitions larger than this are processed in
    /// chunks of this many points (local all-pairs within each chunk
    /// only), the way a memory-bounded Hadoop reducer would spill.
    ///
    /// `None` = unbounded. Small `M` with the Theorem-1 width can blow a
    /// partition up to the whole data set (`M = 1, A = 0.99` solves to
    /// `w ≈ 478·d_c`); a cap is what real deployments do, and it
    /// reproduces the paper's Figure 12(b) observation that `tau2` is
    /// *degraded* for `M < 5` instead of trivially perfect.
    #[serde(default)]
    pub partition_cap: Option<usize>,
}

/// Aggregation rule for the per-layout density estimates
/// `rho_hat_i^1 … rho_hat_i^M`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum RhoAggregation {
    /// `rho_hat = max_m rho_hat^m` — the paper's choice. Local counting
    /// can only *undercount* (a partition misses some of the true
    /// neighbors, never invents one), so the largest estimate is always
    /// the closest; Theorem 1 quantifies how often it is exact.
    #[default]
    Max,
    /// `rho_hat = round(mean_m rho_hat^m)` — the ablation alternative.
    /// Mixes good layouts with bad ones and systematically
    /// underestimates; kept to demonstrate empirically why `max` is
    /// right (see `benches/parameter_ablation.rs`).
    Mean,
}

/// The approximate multi-layout pipeline.
#[derive(Debug, Clone)]
pub struct LshDdp {
    config: LshDdpConfig,
}

/// Partition key: `(layout index m, group signature G_m(p))`.
type PartitionKey = (u16, Signature);

/// Mapper of jobs 1 and 3: emit each point under all `M` layouts — minus
/// the permanently lost ones (`lost[m]`), which both jobs skip
/// identically, so the co-partitioning contract stays valid under loss.
struct LshPartitionMapper {
    multi: Arc<MultiLsh>,
    lost: Arc<Vec<bool>>,
}

impl Mapper for LshPartitionMapper {
    type InKey = PointId;
    type InValue = Vec<f64>;
    type OutKey = PartitionKey;
    type OutValue = PointRecord;

    fn map(&self, id: PointId, coords: Vec<f64>, out: &mut Emitter<PartitionKey, PointRecord>) {
        for (m, sig) in self.multi.signatures(&coords).into_iter().enumerate() {
            if self.lost.get(m).copied().unwrap_or(false) {
                continue;
            }
            out.emit((m as u16, sig), (id, coords.clone()));
        }
    }
}

/// Reducer of job 1: local density within one partition, processed in
/// memory-bounded chunks when a `partition_cap` is set.
struct LocalRhoReducer {
    dc: f64,
    cap: usize,
    tracker: DistanceTracker,
}

impl Reducer for LocalRhoReducer {
    type InKey = PartitionKey;
    type InValue = PointRecord;
    type OutKey = PointId;
    type OutValue = u32;

    fn reduce(&self, _k: &PartitionKey, points: Vec<PointRecord>, out: &mut Emitter<PointId, u32>) {
        debug_assert_euclidean(&self.tracker);
        for chunk in points.chunks(self.cap) {
            let (flat, dim) = flatten_coords(chunk.iter().map(|(_, c)| c.as_slice()));
            let (rho, evals) = Partition::new(&flat, dim, self.dc).rho();
            self.tracker.add(evals);
            for ((id, _), r) in chunk.iter().zip(rho) {
                out.emit(*id, r);
            }
        }
    }
}

/// Max combiner/reducer for job 2 (`rho_hat = max_m rho_hat^m`).
struct MaxCombiner;
impl Combiner for MaxCombiner {
    type Key = PointId;
    type Value = u32;
    fn combine(&self, _k: &PointId, vs: Vec<u32>) -> Vec<u32> {
        vec![vs.into_iter().max().unwrap_or(0)]
    }
}

struct MaxReducer;
impl Reducer for MaxReducer {
    type InKey = PointId;
    type InValue = u32;
    type OutKey = PointId;
    type OutValue = u32;
    fn reduce(&self, k: &PointId, vs: Vec<u32>, out: &mut Emitter<PointId, u32>) {
        out.emit(*k, vs.into_iter().max().unwrap_or(0));
    }
}

/// Mean aggregation for the [`RhoAggregation::Mean`] ablation. No
/// combiner: the mean needs every layout's estimate at one reducer.
struct MeanReducer;
impl Reducer for MeanReducer {
    type InKey = PointId;
    type InValue = u32;
    type OutKey = PointId;
    type OutValue = u32;
    fn reduce(&self, k: &PointId, vs: Vec<u32>, out: &mut Emitter<PointId, u32>) {
        let n = vs.len().max(1) as u64;
        let sum: u64 = vs.into_iter().map(u64::from).sum();
        out.emit(*k, ((sum + n / 2) / n) as u32);
    }
}

/// Local delta record: `(delta_hat, upslope)`; `(∞, NO_UPSLOPE)` for the
/// locally densest point.
type LocalDelta = (f64, PointId);

/// Reducer of job 3: nearest locally-denser point under the broadcast
/// `rho_hat`, processed in memory-bounded chunks when a cap is set. The
/// densest point of a chunk stays at `(∞, NO_UPSLOPE)`.
struct LocalDeltaReducer {
    dc: f64,
    rho: Arc<Vec<u32>>,
    cap: usize,
    tracker: DistanceTracker,
}

impl Reducer for LocalDeltaReducer {
    type InKey = PartitionKey;
    type InValue = PointRecord;
    type OutKey = PointId;
    type OutValue = LocalDelta;

    fn reduce(
        &self,
        _k: &PartitionKey,
        points: Vec<PointRecord>,
        out: &mut Emitter<PointId, LocalDelta>,
    ) {
        debug_assert_euclidean(&self.tracker);
        for chunk in points.chunks(self.cap) {
            let (flat, dim) = flatten_coords(chunk.iter().map(|(_, c)| c.as_slice()));
            let keys = density_keys(&self.rho, chunk.iter().map(|(id, _)| *id));
            let evals = Partition::new(&flat, dim, self.dc)
                .delta(&keys, false, |i, (d, u, _)| out.emit(chunk[i].0, (d, u)));
            self.tracker.add(evals);
        }
    }
}

/// Min combiner/reducer for job 4 (`delta_hat = min_m delta_hat^m`).
fn merge_local_deltas(vs: Vec<LocalDelta>) -> LocalDelta {
    let mut best = (f64::INFINITY, NO_UPSLOPE);
    for (d, u) in vs {
        if d < best.0 || (d == best.0 && u < best.1) {
            best = (d, u);
        }
    }
    best
}

struct MinCombiner;
impl Combiner for MinCombiner {
    type Key = PointId;
    type Value = LocalDelta;
    fn combine(&self, _k: &PointId, vs: Vec<LocalDelta>) -> Vec<LocalDelta> {
        vec![merge_local_deltas(vs)]
    }
}

struct MinReducer;
impl Reducer for MinReducer {
    type InKey = PointId;
    type InValue = LocalDelta;
    type OutKey = PointId;
    type OutValue = LocalDelta;
    fn reduce(&self, k: &PointId, vs: Vec<LocalDelta>, out: &mut Emitter<PointId, LocalDelta>) {
        out.emit(*k, merge_local_deltas(vs));
    }
}

impl LshDdp {
    /// A pipeline with explicit parameters.
    pub fn new(config: LshDdpConfig) -> Self {
        assert!(
            config.params.m > 0 && config.params.pi > 0,
            "M and pi must be positive"
        );
        assert!(config.params.w > 0.0, "slot width must be positive");
        LshDdp { config }
    }

    /// Derives `w` from a target expected accuracy `a` (Theorem 1) with
    /// `m` layouts and `pi` functions per group at cutoff `dc` —
    /// the paper's §V user interface.
    pub fn with_accuracy(
        a: f64,
        m: usize,
        pi: usize,
        dc: f64,
        seed: u64,
    ) -> Result<Self, TuningError> {
        Ok(LshDdp::new(LshDdpConfig {
            params: LshParams::for_accuracy(a, m, pi, dc)?,
            seed,
            pipeline: PipelineConfig::default(),
            partition_cap: None,
            rho_aggregation: RhoAggregation::default(),
        }))
    }

    /// The configured parameters.
    pub fn config(&self) -> &LshDdpConfig {
        &self.config
    }

    /// Replaces the engine/pipeline configuration (parallelism, chaos
    /// injection, checkpointing) — the hook the CLI's chaos flags use on
    /// top of [`Self::with_accuracy`].
    pub fn with_pipeline(mut self, pipeline: PipelineConfig) -> Self {
        self.config.pipeline = pipeline;
        self
    }

    /// Runs the sampled `d_c` job first, derives `w` for `accuracy`, then
    /// runs the pipeline.
    pub fn run_auto_dc(
        ds: &Dataset,
        accuracy: f64,
        m: usize,
        pi: usize,
        percentile: f64,
        sample_target: usize,
        seed: u64,
    ) -> Result<RunReport, TuningError> {
        let pipeline = PipelineConfig::default();
        let tracker = DistanceTracker::new();
        let start = Instant::now();
        // One snapshot and one scheduler for the whole run: the dc stage
        // reads the same materialization as the four pipeline jobs, and its
        // metrics land first in the shared history.
        let snap = point_snapshot(ds);
        let mut driver = pipeline.driver();
        let dc = dc_sampling_stage(
            &snap,
            &mut driver,
            percentile,
            sample_target,
            seed,
            &pipeline,
            &tracker,
        );
        let this = LshDdp::new(LshDdpConfig {
            params: LshParams::for_accuracy(accuracy, m, pi, dc)?,
            seed,
            pipeline,
            partition_cap: None,
            rho_aggregation: RhoAggregation::default(),
        });
        Ok(this.run_tracked(ds.dim(), &snap, driver, dc, tracker, start))
    }

    /// Runs the four-job pipeline with a known `d_c`.
    pub fn run(&self, ds: &Dataset, dc: f64) -> RunReport {
        self.run_with_driver(ds, dc, self.config.pipeline.driver())
    }

    /// Runs the four-job pipeline on a caller-supplied scheduler. Like
    /// [`BasicDdp::run_with_driver`](crate::BasicDdp::run_with_driver),
    /// this is the kill-and-resume entry point: a checkpointing driver
    /// whose previous run of this pipeline was killed mid-stage still
    /// holds the materialized stage outputs in its [`Dfs`](mapreduce::Dfs),
    /// so the rerun resumes from the last checkpoint instead of
    /// recomputing from scratch. The ingest crate's compaction leans on
    /// exactly this to make a restarted refit cheap.
    pub fn run_with_driver(&self, ds: &Dataset, dc: f64, driver: Driver) -> RunReport {
        let snap = point_snapshot(ds);
        self.run_tracked(
            ds.dim(),
            &snap,
            driver,
            dc,
            DistanceTracker::new(),
            Instant::now(),
        )
    }

    /// Runs the four-job pipeline from a point snapshot whose rows may
    /// already live on the disk spill tier
    /// ([`Snapshot::from_spilled`](mapreduce::Snapshot)) — the bounded-
    /// memory entry point: the coordinates are never materialized as one
    /// resident `Vec`; map tasks stream their slices off disk and every
    /// downstream exchange obeys the driver's memory governor. `dim` must
    /// be the dimensionality of the spilled coordinate rows (a spilled
    /// snapshot cannot be asked for it).
    pub fn run_spilled(
        &self,
        snap: &Snapshot<PointId, Vec<f64>>,
        dim: usize,
        dc: f64,
    ) -> RunReport {
        self.run_tracked(
            dim,
            snap,
            self.config.pipeline.driver(),
            dc,
            DistanceTracker::new(),
            Instant::now(),
        )
    }

    /// Which layouts the effective chaos plan declares permanently lost.
    ///
    /// # Panics
    /// Panics when *every* layout is lost — with no surviving layout there
    /// is nothing to aggregate and no principled degraded answer.
    fn lost_layouts(&self) -> Arc<Vec<bool>> {
        let m = self.config.params.m;
        let lost: Vec<bool> = match self.config.pipeline.effective_chaos() {
            Some(c) => (0..m)
                .map(|i| c.loses_partition(LAYOUT_LOSS_SCOPE, i))
                .collect(),
            None => vec![false; m],
        };
        assert!(
            lost.iter().any(|l| !l),
            "all {m} LSH layouts permanently lost; no surviving layout to aggregate over"
        );
        Arc::new(lost)
    }

    fn run_tracked(
        &self,
        dim: usize,
        snap: &Snapshot<PointId, Vec<f64>>,
        mut driver: Driver,
        dc: f64,
        tracker: DistanceTracker,
        start: Instant,
    ) -> RunReport {
        let _pipeline_span = obsv::span!("pipeline", "lsh-ddp");
        assert!(!snap.is_empty(), "cannot cluster an empty dataset");
        assert!(dc.is_finite() && dc > 0.0, "d_c must be positive, got {dc}");
        let n = snap.len();
        let multi = Arc::new(MultiLsh::new(dim, &self.config.params, self.config.seed));
        let cap = self.config.partition_cap.unwrap_or(usize::MAX).max(2);
        let lost = self.lost_layouts();
        let layouts_lost = lost.iter().filter(|&&l| l).count();
        let dist_snapshot = |t: &DistanceTracker| {
            let t = t.clone();
            move |m: &mut JobMetrics| {
                m.user.insert("distances".into(), t.total());
            }
        };

        // ---- Jobs 1 + 2: LSH partition + local rho, aggregate over
        // layouts. The local stage declares the layout contract, retaining
        // its post-shuffle partitions for job 3.
        let local_rho = ReduceStage::new(
            "lsh/rho-local",
            LocalRhoReducer {
                dc,
                cap,
                tracker: tracker.clone(),
            },
        )
        .config(self.config.pipeline.job_config_for("lsh/rho-local"))
        .co_partitioned(LSH_LAYOUT_CONTRACT)
        .finalize(dist_snapshot(&tracker));
        let rho_plan = match self.config.rho_aggregation {
            RhoAggregation::Max => plan("lsh/rho")
                .snapshot(snap)
                .map_stage(LshPartitionMapper {
                    multi: multi.clone(),
                    lost: lost.clone(),
                })
                .reduce_stage(local_rho)
                .reduce_stage(
                    ReduceStage::new("lsh/rho-aggregate", MaxReducer)
                        .combiner(MaxCombiner)
                        .config(self.config.pipeline.job_config_for("lsh/rho-aggregate"))
                        .finalize(dist_snapshot(&tracker)),
                )
                .build(),
            RhoAggregation::Mean => plan("lsh/rho")
                .snapshot(snap)
                .map_stage(LshPartitionMapper {
                    multi: multi.clone(),
                    lost: lost.clone(),
                })
                .reduce_stage(local_rho)
                .reduce_stage(
                    ReduceStage::new("lsh/rho-aggregate-mean", MeanReducer)
                        .config(
                            self.config
                                .pipeline
                                .job_config_for("lsh/rho-aggregate-mean"),
                        )
                        .finalize(dist_snapshot(&tracker)),
                )
                .build(),
        };
        let rho_out = driver.run_plan(rho_plan);

        // Broadcast the aggregated densities (distributed-cache style).
        let mut rho = vec![0u32; n];
        for (id, r) in rho_out {
            rho[id as usize] = r;
        }
        let rho = Arc::new(rho);

        // ---- Jobs 3 + 4: LSH partition + local delta, min over layouts.
        // Job 3 re-declares the layout contract: same mapper (same seeded
        // layouts), same partitioner, same snapshot — the scheduler feeds
        // it job 1's retained partitions and elides its map+shuffle.
        let delta_plan = plan("lsh/delta")
            .snapshot(snap)
            .map_stage(LshPartitionMapper {
                multi,
                lost: lost.clone(),
            })
            .reduce_stage(
                ReduceStage::new(
                    "lsh/delta-local",
                    LocalDeltaReducer {
                        dc,
                        rho: rho.clone(),
                        cap,
                        tracker: tracker.clone(),
                    },
                )
                .config(self.config.pipeline.job_config_for("lsh/delta-local"))
                .co_partitioned(LSH_LAYOUT_CONTRACT)
                .finalize(dist_snapshot(&tracker)),
            )
            .reduce_stage(
                ReduceStage::new("lsh/delta-aggregate", MinReducer)
                    .combiner(MinCombiner)
                    .config(self.config.pipeline.job_config_for("lsh/delta-aggregate"))
                    .finalize(dist_snapshot(&tracker)),
            )
            .build();
        let delta_out = driver.run_plan(delta_plan);

        // ---- Assemble: infinite deltas stay infinite; the centralized
        // step rectifies them (the paper draws them at the top of the
        // decision graph and treats them as peak candidates).
        let mut delta = vec![f64::INFINITY; n];
        let mut upslope = vec![NO_UPSLOPE; n];
        for (id, (d, u)) in delta_out {
            delta[id as usize] = d;
            upslope[id as usize] = u;
        }

        let rho = Arc::try_unwrap(rho).unwrap_or_else(|arc| (*arc).clone());
        let mut jobs = driver.into_history();
        if layouts_lost > 0 {
            // Graceful degradation bookkeeping: aggregate over the
            // surviving layouts (already done — the mappers skipped the
            // lost ones) and report the expected Theorem-1 accuracy hit
            // instead of failing the run.
            let m_total = self.config.params.m;
            let per_layout =
                lsh::prob::expected_accuracy(self.config.params.w, dc, self.config.params.pi, 1);
            let degraded =
                dp_core::quality::ensemble_degradation(per_layout, m_total, layouts_lost);
            if let Some(last) = jobs.last_mut() {
                last.user.insert("layouts_lost".into(), layouts_lost as u64);
                last.user.insert("layouts_total".into(), m_total as u64);
                last.user.insert(
                    "accuracy_delta_per_mille".into(),
                    degraded.delta_per_mille(),
                );
            }
            obsv::global()
                .counter("layouts_lost")
                .inc(layouts_lost as u64);
        }
        RunReport {
            algorithm: "lsh-ddp".into(),
            jobs,
            distances: tracker.total(),
            wall: start.elapsed(),
            result: DpResult {
                dc,
                rho,
                delta,
                upslope,
            },
        }
    }

    /// The pre-plan execution path: the same four jobs hand-chained
    /// through [`JobBuilder`] with a fresh input materialization per
    /// blocked job and no shuffle elision. Retained as the reference the
    /// equivalence suite proves the scheduler bit-identical against.
    pub fn run_reference(&self, ds: &Dataset, dc: f64) -> RunReport {
        let _pipeline_span = obsv::span!("pipeline", "lsh-ddp-reference");
        assert!(!ds.is_empty(), "cannot cluster an empty dataset");
        assert!(dc.is_finite() && dc > 0.0, "d_c must be positive, got {dc}");
        let tracker = DistanceTracker::new();
        let start = Instant::now();
        let n = ds.len();
        let job_cfg = self.config.pipeline.job_config();
        let multi = Arc::new(MultiLsh::new(
            ds.dim(),
            &self.config.params,
            self.config.seed,
        ));
        let cap = self.config.partition_cap.unwrap_or(usize::MAX).max(2);
        let lost = self.lost_layouts();
        let mut jobs: Vec<JobMetrics> = Vec::with_capacity(4);
        let snap = |m: &mut JobMetrics, t: &DistanceTracker| {
            m.user.insert("distances".into(), t.total());
        };

        let (rho_partials, mut m1) = JobBuilder::new(
            "lsh/rho-local",
            LshPartitionMapper {
                multi: multi.clone(),
                lost: lost.clone(),
            },
            LocalRhoReducer {
                dc,
                cap,
                tracker: tracker.clone(),
            },
        )
        .config(job_cfg)
        .run(point_records(ds));
        snap(&mut m1, &tracker);
        jobs.push(m1);

        let (rho_out, mut m2) = match self.config.rho_aggregation {
            RhoAggregation::Max => JobBuilder::new(
                "lsh/rho-aggregate",
                IdentityMapper::<PointId, u32>::new(),
                MaxReducer,
            )
            .combiner(MaxCombiner)
            .config(job_cfg)
            .run(rho_partials),
            RhoAggregation::Mean => JobBuilder::new(
                "lsh/rho-aggregate-mean",
                IdentityMapper::<PointId, u32>::new(),
                MeanReducer,
            )
            .config(job_cfg)
            .run(rho_partials),
        };
        snap(&mut m2, &tracker);
        jobs.push(m2);

        let mut rho = vec![0u32; n];
        for (id, r) in rho_out {
            rho[id as usize] = r;
        }
        let rho = Arc::new(rho);

        let (delta_partials, mut m3) = JobBuilder::new(
            "lsh/delta-local",
            LshPartitionMapper { multi, lost },
            LocalDeltaReducer {
                dc,
                rho: rho.clone(),
                cap,
                tracker: tracker.clone(),
            },
        )
        .config(job_cfg)
        .run(point_records(ds));
        snap(&mut m3, &tracker);
        jobs.push(m3);

        let (delta_out, mut m4) = JobBuilder::new(
            "lsh/delta-aggregate",
            IdentityMapper::<PointId, LocalDelta>::new(),
            MinReducer,
        )
        .combiner(MinCombiner)
        .config(job_cfg)
        .run(delta_partials);
        snap(&mut m4, &tracker);
        jobs.push(m4);

        let mut delta = vec![f64::INFINITY; n];
        let mut upslope = vec![NO_UPSLOPE; n];
        for (id, (d, u)) in delta_out {
            delta[id as usize] = d;
            upslope[id as usize] = u;
        }

        let rho = Arc::try_unwrap(rho).unwrap_or_else(|arc| (*arc).clone());
        RunReport {
            algorithm: "lsh-ddp".into(),
            jobs,
            distances: tracker.total(),
            wall: start.elapsed(),
            result: DpResult {
                dc,
                rho,
                delta,
                upslope,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_core::quality::{tau1, tau2};
    use dp_core::{compute_exact, Dataset};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Three well-separated Gaussian blobs in 2-D.
    fn blobs(n_per: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = Dataset::new(2);
        for (cx, cy) in [(0.0, 0.0), (10.0, 0.0), (5.0, 9.0)] {
            for _ in 0..n_per {
                let dx: f64 = rng.random_range(-1.0..1.0);
                let dy: f64 = rng.random_range(-1.0..1.0);
                ds.push(&[cx + dx, cy + dy]);
            }
        }
        ds
    }

    fn accurate_config(dc: f64) -> LshDdpConfig {
        LshDdpConfig {
            params: LshParams::for_accuracy(0.99, 10, 3, dc).unwrap(),
            seed: 7,
            pipeline: PipelineConfig::default(),
            partition_cap: None,
            rho_aggregation: RhoAggregation::default(),
        }
    }

    #[test]
    fn rho_is_never_overestimated() {
        let ds = blobs(60, 1);
        let dc = 0.5;
        let exact = compute_exact(&ds, dc);
        let report = LshDdp::new(accurate_config(dc)).run(&ds, dc);
        for (a, e) in report.result.rho.iter().zip(exact.rho.iter()) {
            assert!(a <= e, "local rho can only undercount: {a} > {e}");
        }
    }

    #[test]
    fn high_accuracy_config_recovers_most_densities() {
        let ds = blobs(80, 2);
        let dc = 0.5;
        let exact = compute_exact(&ds, dc);
        let report = LshDdp::new(accurate_config(dc)).run(&ds, dc);
        let t1 = tau1(&exact.rho, &report.result.rho);
        let t2 = tau2(&exact.rho, &report.result.rho);
        assert!(t1 > 0.9, "tau1 = {t1}");
        assert!(t2 > 0.95, "tau2 = {t2}");
    }

    #[test]
    fn does_far_fewer_distance_computations_than_exact() {
        // LSH-DDP wins when partitions are much smaller than N, i.e. when
        // the data has many localized groups — a 6×5 grid of 20-point
        // blobs. (On tiny data with few coarse clusters the local
        // all-pairs across M layouts can exceed N²; the paper's speedups
        // are measured at N >= 28k.)
        let mut rng = StdRng::seed_from_u64(3);
        let mut ds = Dataset::new(2);
        for gx in 0..6 {
            for gy in 0..5 {
                for _ in 0..20 {
                    let dx: f64 = rng.random_range(-0.5..0.5);
                    let dy: f64 = rng.random_range(-0.5..0.5);
                    ds.push(&[gx as f64 * 20.0 + dx, gy as f64 * 20.0 + dy]);
                }
            }
        }
        let n = ds.len() as u64;
        let dc = 0.3;
        let report = LshDdp::new(accurate_config(dc)).run(&ds, dc);
        let basic_dist = 2 * n * (n - 1) / 2;
        assert!(
            report.distances < basic_dist / 2,
            "lsh {} vs basic {basic_dist}",
            report.distances
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let ds = blobs(40, 4);
        let dc = 0.5;
        let a = LshDdp::new(accurate_config(dc)).run(&ds, dc);
        let b = LshDdp::new(accurate_config(dc)).run(&ds, dc);
        assert_eq!(a.result.rho, b.result.rho);
        assert_eq!(a.result.upslope, b.result.upslope);
    }

    #[test]
    fn peak_candidates_carry_infinite_delta() {
        let ds = blobs(50, 5);
        let dc = 0.5;
        let report = LshDdp::new(accurate_config(dc)).run(&ds, dc);
        let n_inf = report
            .result
            .delta
            .iter()
            .filter(|d| d.is_infinite())
            .count();
        // At least the global densest point is a candidate; typically the
        // three blob centers are.
        assert!(n_inf >= 1, "at least one peak candidate expected");
        assert!(n_inf <= 10, "candidates must be rare, got {n_inf}");
        for (d, u) in report.result.delta.iter().zip(report.result.upslope.iter()) {
            assert_eq!(d.is_infinite(), *u == NO_UPSLOPE);
        }
    }

    #[test]
    fn clustering_matches_exact_dp() {
        use crate::centralized::{CentralizedStep, PeakSelection};
        use dp_core::quality::adjusted_rand_index;

        // Seed chosen so no blob has a far-from-peak density runner-up:
        // such a point's nearest-denser link spans many dc and is missed by
        // LSH under (almost) any hash draw, creating a high-rho false peak
        // candidate that breaks TopK selection regardless of M. Verified
        // ARI = 1.0 across pipeline seeds 1..=16 for this dataset.
        let ds = blobs(70, 2);
        let dc = 0.5;
        let exact = compute_exact(&ds, dc);
        let exact_out = CentralizedStep::new(PeakSelection::TopK(3)).run(&exact);
        let report = LshDdp::new(accurate_config(dc)).run(&ds, dc);
        let approx_out = CentralizedStep::new(PeakSelection::TopK(3)).run(&report.result);
        let ari = adjusted_rand_index(
            exact_out.clustering.labels(),
            approx_out.clustering.labels(),
        );
        assert!(ari > 0.95, "ARI = {ari}");
    }

    #[test]
    fn shuffles_m_copies_of_each_point() {
        let ds = blobs(20, 7);
        let dc = 0.5;
        let cfg = accurate_config(dc);
        let m = cfg.params.m as u64;
        let report = LshDdp::new(cfg).run(&ds, dc);
        assert_eq!(report.jobs[0].map_output_records, ds.len() as u64 * m);
        // Job 3 declares the same layout contract as job 1, so the
        // scheduler elides its map+shuffle and reuses job 1's partitions:
        // the M copies are shuffled once, and job 3 books the skipped
        // volume as saved bytes instead.
        assert_eq!(report.jobs[2].map_output_records, 0);
        assert_eq!(report.jobs[2].shuffle_bytes, 0);
        assert_eq!(
            report.jobs[2].shuffle_bytes_saved,
            report.jobs[0].shuffle_bytes
        );
    }

    #[test]
    fn elision_disabled_shuffles_twice_with_identical_results() {
        let ds = blobs(20, 7);
        let dc = 0.5;
        let cfg = accurate_config(dc);
        let m = cfg.params.m as u64;
        let on = LshDdp::new(cfg.clone()).run(&ds, dc);
        let off_cfg = LshDdpConfig {
            pipeline: PipelineConfig {
                disable_elision: true,
                ..cfg.pipeline
            },
            ..cfg
        };
        let off = LshDdp::new(off_cfg).run(&ds, dc);
        assert_eq!(off.jobs[2].map_output_records, ds.len() as u64 * m);
        assert!(off.jobs[2].shuffle_bytes > 0);
        assert_eq!(off.jobs[2].shuffle_bytes_saved, 0);
        assert_eq!(on.result.rho, off.result.rho);
        assert_eq!(on.result.upslope, off.result.upslope);
        let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&on.result.delta), bits(&off.result.delta));
    }

    #[test]
    fn with_accuracy_constructor_round_trips() {
        let p = LshDdp::with_accuracy(0.95, 12, 4, 0.3, 1).unwrap();
        assert_eq!(p.config().params.m, 12);
        assert_eq!(p.config().params.pi, 4);
        assert!((p.config().params.accuracy(0.3) - 0.95).abs() < 1e-9);
        assert!(LshDdp::with_accuracy(1.5, 10, 3, 0.3, 1).is_err());
    }

    #[test]
    fn max_aggregation_dominates_mean() {
        // The ablation behind RhoAggregation: max is closer to the truth
        // because local counts only undercount.
        let ds = blobs(60, 10);
        let dc = 0.5;
        let exact = compute_exact(&ds, dc);
        let run_with = |agg| {
            let cfg = LshDdpConfig {
                rho_aggregation: agg,
                ..accurate_config(dc)
            };
            LshDdp::new(cfg).run(&ds, dc)
        };
        let max_r = run_with(RhoAggregation::Max);
        let mean_r = run_with(RhoAggregation::Mean);
        let t_max = tau2(&exact.rho, &max_r.result.rho);
        let t_mean = tau2(&exact.rho, &mean_r.result.rho);
        assert!(t_max > t_mean, "max tau2 {t_max} must beat mean {t_mean}");
        // And mean still never overestimates.
        for (a, e) in mean_r.result.rho.iter().zip(&exact.rho) {
            assert!(a <= e);
        }
    }

    #[test]
    fn layout_loss_degrades_gracefully() {
        let ds = blobs(40, 6);
        let dc = 0.5;
        let mut cfg = accurate_config(dc);
        cfg.pipeline.chaos = Some(mapreduce::ChaosPlan::new(0, 99).with_partition_loss(300));
        let chaos = cfg.pipeline.chaos.unwrap();
        let lost = (0..cfg.params.m)
            .filter(|&i| chaos.loses_partition(LAYOUT_LOSS_SCOPE, i))
            .count();
        assert!(
            lost > 0 && lost < cfg.params.m,
            "test seed must lose some but not all layouts, lost {lost}"
        );

        let report = LshDdp::new(cfg.clone()).run(&ds, dc);

        // The run completed and reported the degradation instead of failing.
        let last = report.jobs.last().unwrap();
        assert_eq!(last.user["layouts_lost"], lost as u64);
        assert_eq!(last.user["layouts_total"], cfg.params.m as u64);
        assert!(last.user["accuracy_delta_per_mille"] > 0);
        // Only surviving layouts' copies were shuffled.
        assert_eq!(
            report.jobs[0].map_output_records,
            ds.len() as u64 * (cfg.params.m - lost) as u64
        );
        // Degraded estimates are still undercounts, never inventions.
        let exact = compute_exact(&ds, dc);
        for (a, e) in report.result.rho.iter().zip(exact.rho.iter()) {
            assert!(a <= e, "degraded rho must still undercount: {a} > {e}");
        }
        assert!(report.result.rho.iter().any(|&r| r > 0));
    }

    #[test]
    #[should_panic(expected = "layouts permanently lost")]
    fn losing_every_layout_is_fatal() {
        let ds = blobs(10, 6);
        let dc = 0.5;
        let mut cfg = accurate_config(dc);
        // Loss rate 999/1000: with 10 layouts the odds any survives are
        // negligible for this fixed seed (verified by the schedule).
        cfg.pipeline.chaos = Some(mapreduce::ChaosPlan::new(0, 5).with_partition_loss(999));
        let chaos = cfg.pipeline.chaos.unwrap();
        assert!((0..cfg.params.m).all(|i| chaos.loses_partition(LAYOUT_LOSS_SCOPE, i)));
        let _ = LshDdp::new(cfg).run(&ds, dc);
    }

    #[test]
    fn run_auto_dc_pipeline() {
        let ds = blobs(50, 8);
        let report = LshDdp::run_auto_dc(&ds, 0.9, 8, 3, 0.02, 100, 11).unwrap();
        assert_eq!(report.jobs.len(), 5, "dc job + 4 pipeline jobs");
        assert!(report.result.dc > 0.0);
    }
}
