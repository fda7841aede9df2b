//! Shared plumbing for the three pipelines: configuration, input-record
//! construction, and the sampled `d_c` preprocessing job (paper §III-A).

use dp_core::dp::NO_UPSLOPE;
use dp_core::local::Key;
use dp_core::{Dataset, DistanceKind, DistanceTracker, PointId};
use mapreduce::task::{MrKey, MrValue};
use mapreduce::{
    plan, Combiner, Driver, Emitter, JobConfig, JobMetrics, Mapper, Reducer, Snapshot, Stage,
};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// A shuffled point record: `(id, coordinates)`. Its shuffle size is
/// `4 + 4 + 8·dim` bytes, matching the paper's accounting.
pub type PointRecord = (PointId, Vec<f64>);

/// Engine-level knobs shared by all pipelines.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Map tasks per job (0 = one per hardware thread).
    pub map_tasks: usize,
    /// Reduce tasks per job (0 = one per hardware thread).
    pub reduce_tasks: usize,
    /// Optional task-failure injection applied to every job of the
    /// pipeline — end-to-end fault-tolerance testing (retried attempts
    /// are invisible in results and counted in
    /// [`mapreduce::JobMetrics::task_retries`]).
    #[serde(default)]
    pub fault: Option<mapreduce::FaultPlan>,
    /// Restricts [`Self::fault`] to the single named stage (see
    /// [`Self::job_config_for`]). The failure schedule is a pure
    /// function of `(seed, phase, task, attempt)` with no job identity,
    /// so an unrestricted doomed plan always dies at the *first* stage —
    /// kill-and-restart drills scope the doom to a later stage with this
    /// so earlier stages complete (and checkpoint) first. `None` applies
    /// the fault everywhere.
    #[serde(with = "fault_stage_serde", default)]
    pub fault_stage: Option<&'static str>,
    /// Optional full chaos injection (crashes + stragglers + corruption +
    /// partition loss) applied to every job of the pipeline. Takes
    /// precedence over [`Self::fault`] when both are set.
    #[serde(default)]
    pub chaos: Option<mapreduce::ChaosPlan>,
    /// Disables the scheduler's co-partitioned shuffle elision (see
    /// [`mapreduce::plan`]). Outputs are bit-identical either way; the
    /// switch exists for A/B measurement of the shuffle savings.
    #[serde(default)]
    pub disable_elision: bool,
    /// Enables stage-granular checkpointing on the pipeline's scheduler
    /// (see [`mapreduce::Driver::with_checkpoints`]): each plan stage
    /// materializes its output into the driver's DFS so a killed run can
    /// resume from the last completed stage.
    #[serde(default)]
    pub checkpoints: bool,
    /// Optional memory budget in bytes for in-flight shuffle data (see
    /// [`mapreduce::Driver::with_mem_budget`]): map output over the budget
    /// spills to the disk tier and reduce decode is admission-gated.
    /// Outputs are bit-identical with or without a budget. `Some(0)` is
    /// the deterministic always-spill stress mode; `None` (default) runs
    /// unbudgeted.
    #[serde(default)]
    pub mem_budget: Option<u64>,
}

/// `Option<&'static str>` under the vendored serde: written as an
/// optional string, leaked back to `'static` on read (configs are
/// deserialized a handful of times per process, and the field is a short
/// stage name).
mod fault_stage_serde {
    use serde::{Deserialize, Deserializer, Serialize, Serializer};

    pub fn serialize<S: Serializer>(v: &Option<&'static str>, s: S) -> Result<S::Ok, S::Error> {
        v.map(str::to_owned).serialize(s)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Option<&'static str>, D::Error> {
        Ok(Option::<String>::deserialize(d)?.map(|s| &*s.leak()))
    }
}

impl PipelineConfig {
    /// Resolves to a concrete [`JobConfig`].
    pub fn job_config(&self) -> JobConfig {
        let d = JobConfig::default();
        JobConfig {
            map_tasks: if self.map_tasks == 0 {
                d.map_tasks
            } else {
                self.map_tasks
            },
            reduce_tasks: if self.reduce_tasks == 0 {
                d.reduce_tasks
            } else {
                self.reduce_tasks
            },
            fault: self.fault,
            chaos: self.chaos,
        }
    }

    /// [`Self::job_config`] scoped to the stage named `stage`: when
    /// [`Self::fault_stage`] names a different stage, the fault plan is
    /// stripped so only the targeted stage can die. Chaos plans are
    /// unaffected (they model environment-wide weather, not a drill).
    pub fn job_config_for(&self, stage: &str) -> JobConfig {
        let mut cfg = self.job_config();
        if let Some(only) = self.fault_stage {
            if only != stage {
                cfg.fault = None;
            }
        }
        cfg
    }

    /// The effective chaos plan (explicit [`Self::chaos`], else
    /// [`Self::fault`] lifted to a crash-only plan, else `None`).
    pub fn effective_chaos(&self) -> Option<mapreduce::ChaosPlan> {
        self.chaos.or(self.fault.map(mapreduce::ChaosPlan::from))
    }

    /// A plan scheduler configured by this pipeline config: elision on
    /// unless [`Self::disable_elision`] is set, checkpointing on when
    /// [`Self::checkpoints`] is set, and a memory governor when
    /// [`Self::mem_budget`] is set.
    pub fn driver(&self) -> Driver {
        let mut d = Driver::new()
            .with_elision(!self.disable_elision)
            .with_checkpoints(self.checkpoints);
        if let Some(budget) = self.mem_budget {
            d = d.with_mem_budget(budget);
        }
        d
    }
}

/// How many times `point_records` has materialized a dataset since process
/// start. The pipelines share one [`Snapshot`] per run, so each run must
/// bump this exactly once — asserted by the materialization test.
static POINT_RECORD_BUILDS: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of [`point_records`] materializations.
pub fn point_record_materializations() -> u64 {
    POINT_RECORD_BUILDS.load(Ordering::Relaxed)
}

/// Builds the job input `(id, coords)` records from a dataset — the
/// equivalent of reading the point file from HDFS at the start of each job.
pub fn point_records(ds: &Dataset) -> Vec<(PointId, Vec<f64>)> {
    POINT_RECORD_BUILDS.fetch_add(1, Ordering::Relaxed);
    ds.iter().map(|(id, p)| (id, p.to_vec())).collect()
}

/// Materializes the dataset ONCE as an immutable shared snapshot every
/// stage of a pipeline reads in place — the fix for re-reading the point
/// file from the DFS at the start of each job.
pub fn point_snapshot(ds: &Dataset) -> Snapshot<PointId, Vec<f64>> {
    Snapshot::new(point_records(ds))
}

/// Flattens per-point coordinate slices into the one row-major buffer a
/// [`dp_core::local::Partition`] works over; returns the buffer and the
/// dimensionality (1 for an empty input). Every local reducer is *flatten
/// → call → emit*.
pub(crate) fn flatten_coords<'a>(coords: impl Iterator<Item = &'a [f64]>) -> (Vec<f64>, usize) {
    let mut flat = Vec::new();
    let mut dim = 0usize;
    for c in coords {
        if dim == 0 {
            dim = c.len();
        }
        flat.extend_from_slice(c);
    }
    (flat, dim.max(1))
}

/// The `(rho, id)` keys the local `delta` kernels order points by, from the
/// broadcast density table.
pub(crate) fn density_keys(rho: &[u32], ids: impl Iterator<Item = PointId>) -> Vec<Key> {
    ids.map(|id| (rho[id as usize], id)).collect()
}

/// The local kernels compute squared Euclidean distances; their reducers
/// must never run under a tracker configured with a different metric (no
/// pipeline constructs one, asserted in debug).
#[inline]
pub(crate) fn debug_assert_euclidean(tracker: &DistanceTracker) {
    debug_assert_eq!(
        tracker.kind(),
        DistanceKind::Euclidean,
        "local-kernel reducers require the Euclidean metric"
    );
}

/// Deterministic per-point coin flip used by sampling mappers: keeps point
/// `id` with probability `keep_per_4096 / 4096`, independent of point order.
#[inline]
pub fn sample_hash(id: PointId, seed: u64) -> u64 {
    let mut z = (id as u64)
        .wrapping_add(seed)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A partial `delta` record produced by a distance-covering reducer:
/// `(delta, upslope, max distance seen)`. `delta = +∞` with
/// `upslope = NO_UPSLOPE` when the reducer met no denser point; the max
/// distance feeds the absolute density peak's `delta = max_j d_ij`.
pub type DeltaPartial = (f64, PointId, f64);

/// Merges delta partials: smallest finite delta wins (ties by smaller
/// upslope id, matching the sequential reference), max distances combine
/// by max.
pub fn merge_delta_partials(vs: impl IntoIterator<Item = DeltaPartial>) -> DeltaPartial {
    let mut best = (f64::INFINITY, NO_UPSLOPE, 0.0f64);
    for (d, u, maxd) in vs {
        best.2 = best.2.max(maxd);
        if d < best.0 || (d == best.0 && u < best.1) {
            best.0 = d;
            best.1 = u;
        }
    }
    best
}

/// Map-side combiner over [`DeltaPartial`]s.
pub struct MinDeltaCombiner;
impl Combiner for MinDeltaCombiner {
    type Key = PointId;
    type Value = DeltaPartial;
    fn combine(&self, _k: &PointId, vs: Vec<DeltaPartial>) -> Vec<DeltaPartial> {
        vec![merge_delta_partials(vs)]
    }
}

/// Reducer of the delta-aggregation jobs.
pub struct MinDeltaReducer;
impl Reducer for MinDeltaReducer {
    type InKey = PointId;
    type InValue = DeltaPartial;
    type OutKey = PointId;
    type OutValue = DeltaPartial;
    fn reduce(&self, k: &PointId, vs: Vec<DeltaPartial>, out: &mut Emitter<PointId, DeltaPartial>) {
        out.emit(*k, merge_delta_partials(vs));
    }
}

/// Pass-through mapper for aggregation jobs whose inputs are already
/// keyed intermediate records.
pub struct IdentityMapper<K, V>(std::marker::PhantomData<fn(K, V)>);

impl<K, V> IdentityMapper<K, V> {
    /// A fresh identity mapper.
    pub fn new() -> Self {
        IdentityMapper(std::marker::PhantomData)
    }
}

impl<K, V> Default for IdentityMapper<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: MrKey, V: MrValue> Mapper for IdentityMapper<K, V> {
    type InKey = K;
    type InValue = V;
    type OutKey = K;
    type OutValue = V;
    fn map(&self, k: K, v: V, out: &mut Emitter<K, V>) {
        out.emit(k, v);
    }
}

/// Assembles `(delta, upslope)` vectors from aggregated [`DeltaPartial`]s:
/// points whose merged delta stayed infinite are absolute-peak candidates
/// and receive `delta = max distance seen` when `rectify_to_maxd` (exact
/// pipelines) or keep `+∞` (LSH-DDP's peak candidates).
pub fn assemble_delta(
    n: usize,
    merged: impl IntoIterator<Item = (PointId, DeltaPartial)>,
    rectify_to_maxd: bool,
) -> (Vec<f64>, Vec<PointId>) {
    let mut delta = vec![f64::INFINITY; n];
    let mut upslope = vec![NO_UPSLOPE; n];
    for (id, (d, u, maxd)) in merged {
        let idx = id as usize;
        if u == NO_UPSLOPE {
            delta[idx] = if rectify_to_maxd { maxd } else { f64::INFINITY };
            upslope[idx] = NO_UPSLOPE;
        } else {
            delta[idx] = d;
            upslope[idx] = u;
        }
    }
    (delta, upslope)
}

/// Mapper of the `d_c` sampling job: deterministic per-point coin flip
/// toward the single quantile reducer.
struct SampleMapper {
    keep_per_4096: u64,
    seed: u64,
}
impl Mapper for SampleMapper {
    type InKey = PointId;
    type InValue = Vec<f64>;
    type OutKey = u8;
    type OutValue = PointRecord;
    fn map(&self, id: PointId, coords: Vec<f64>, out: &mut Emitter<u8, PointRecord>) {
        if sample_hash(id, self.seed) % 4096 < self.keep_per_4096 {
            out.emit(0, (id, coords));
        }
    }
}

/// Largest number of pairwise distances the `d_c` quantile reducer will
/// materialize. A sample of `k` pairs estimates a quantile with standard
/// error `O(1/sqrt(k))`; at 2^17 pairs that is far below the estimator's
/// own point-sampling noise, so the cap costs no accuracy while bounding
/// memory and time at a constant instead of O(n²).
const DC_PAIR_CAP: usize = 1 << 17;

/// Reducer of the `d_c` sampling job: pairwise distances of the sample
/// (all pairs when that is at most [`DC_PAIR_CAP`], otherwise a seeded
/// deterministic pair sample of exactly that size), `percentile`-quantile
/// out.
struct QuantileReducer {
    percentile: f64,
    seed: u64,
    tracker: DistanceTracker,
}
impl Reducer for QuantileReducer {
    type InKey = u8;
    type InValue = PointRecord;
    type OutKey = u8;
    type OutValue = f64;
    fn reduce(&self, _k: &u8, points: Vec<PointRecord>, out: &mut Emitter<u8, f64>) {
        debug_assert_euclidean(&self.tracker);
        let n = points.len();
        let (flat, dim) = flatten_coords(points.iter().map(|(_, c)| c.as_slice()));
        let total_pairs = n * n.saturating_sub(1) / 2;
        let mut dists;
        if total_pairs <= DC_PAIR_CAP {
            // Small sample: the exact all-pairs quantile, bit-identical to
            // the pre-cap behavior.
            dists = Vec::with_capacity(total_pairs);
            dp_core::for_each_pair_d2(&flat, dim, |_i, _j, d2| dists.push(d2.sqrt()));
            self.tracker.add(total_pairs as u64);
        } else {
            // Large sample: a seeded uniform draw of DC_PAIR_CAP pairs.
            // Same splitmix generator as `sample_hash`, so the estimate is
            // a pure function of (points, seed) — independent of map task
            // layout and thread count.
            dists = Vec::with_capacity(DC_PAIR_CAP);
            let mut counter = 0u32;
            let mut draw = |bound: usize| {
                counter += 1;
                sample_hash(counter, self.seed) % bound as u64
            };
            while dists.len() < DC_PAIR_CAP {
                let i = draw(n) as usize;
                let j = draw(n) as usize;
                if i == j {
                    continue;
                }
                let d2 = dp_core::distance::squared_euclidean(
                    &flat[i * dim..][..dim],
                    &flat[j * dim..][..dim],
                );
                dists.push(d2.sqrt());
            }
            self.tracker.add(DC_PAIR_CAP as u64);
        }
        assert!(
            !dists.is_empty(),
            "d_c sample produced no distances — increase sample"
        );
        out.emit(
            0,
            dp_core::cutoff::quantile_in_place(&mut dists, self.percentile),
        );
    }
}

/// The preprocessing stage that estimates `d_c` (paper §III-A), run over a
/// shared snapshot through the pipeline's own scheduler: mappers sample
/// points toward a single reducer, which computes all pairwise distances
/// of the sample and takes the `percentile`-quantile. The stage's metrics
/// (with a cumulative `"distances"` snapshot) land in `driver`'s history.
pub fn dc_sampling_stage(
    snap: &Snapshot<PointId, Vec<f64>>,
    driver: &mut Driver,
    percentile: f64,
    sample_target: usize,
    seed: u64,
    cfg: &PipelineConfig,
    tracker: &DistanceTracker,
) -> f64 {
    assert!(snap.len() >= 2, "need at least two points to estimate d_c");
    assert!(sample_target >= 2, "need at least two sampled points");

    // Keep probability targeting `sample_target` sampled points, capped at
    // keeping everything.
    let keep = ((sample_target as f64 / snap.len() as f64) * 4096.0).ceil() as u64;
    let mapper = SampleMapper {
        keep_per_4096: keep.min(4096),
        seed,
    };
    let reducer = QuantileReducer {
        percentile,
        seed,
        tracker: tracker.clone(),
    };
    let t = tracker.clone();
    let p = plan("dc-sampling")
        .snapshot(snap)
        .stage(
            Stage::new("dc-sampling", mapper, reducer)
                .config(cfg.job_config())
                .finalize(move |m| {
                    m.user.insert("distances".into(), t.total());
                }),
        )
        .build();
    let out = driver.run_plan(p);
    out.first()
        .map(|(_, d)| *d)
        .expect("sampling kept at least two points")
}

/// The preprocessing MapReduce job that estimates `d_c` (paper §III-A) as
/// a standalone job over a freshly materialized input. Pipelines share
/// their snapshot and scheduler via [`dc_sampling_stage`] instead.
///
/// Returns `(d_c, job metrics)`.
pub fn dc_sampling_job(
    ds: &Dataset,
    percentile: f64,
    sample_target: usize,
    seed: u64,
    cfg: &PipelineConfig,
    tracker: &DistanceTracker,
) -> (f64, JobMetrics) {
    let snap = point_snapshot(ds);
    let mut driver = cfg.driver();
    let dc = dc_sampling_stage(
        &snap,
        &mut driver,
        percentile,
        sample_target,
        seed,
        cfg,
        tracker,
    );
    let metrics = driver
        .into_history()
        .pop()
        .expect("dc sampling ran one stage");
    (dc, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: usize) -> Dataset {
        Dataset::from_flat(1, (0..n).map(|i| i as f64).collect())
    }

    #[test]
    fn point_records_cover_dataset() {
        let ds = line(5);
        let recs = point_records(&ds);
        assert_eq!(recs.len(), 5);
        assert_eq!(recs[3], (3, vec![3.0]));
    }

    #[test]
    fn pipeline_config_resolves_zeros() {
        let cfg = PipelineConfig::default();
        let jc = cfg.job_config();
        assert!(jc.map_tasks > 0 && jc.reduce_tasks > 0);
        let cfg = PipelineConfig {
            map_tasks: 3,
            reduce_tasks: 5,
            ..Default::default()
        };
        let jc = cfg.job_config();
        assert_eq!((jc.map_tasks, jc.reduce_tasks), (3, 5));
    }

    #[test]
    fn sample_hash_is_deterministic_and_spread() {
        let a = sample_hash(1, 42);
        assert_eq!(a, sample_hash(1, 42));
        assert_ne!(a, sample_hash(2, 42));
        assert_ne!(a, sample_hash(1, 43));
        // Roughly half of ids pass a 50% filter.
        let kept = (0..10_000)
            .filter(|&i| sample_hash(i, 7) % 4096 < 2048)
            .count();
        assert!((4000..6000).contains(&kept), "kept {kept}");
    }

    #[test]
    fn dc_job_approximates_exact_quantile() {
        let ds = line(300);
        let tracker = DistanceTracker::new();
        let (dc, metrics) =
            dc_sampling_job(&ds, 0.05, 150, 1, &PipelineConfig::default(), &tracker);
        let exact = dp_core::cutoff::estimate_dc_exact(&ds, 0.05);
        let rel = (dc - exact).abs() / exact;
        assert!(rel < 0.25, "sampled dc {dc} vs exact {exact}");
        assert!(metrics.shuffle_records > 0);
        assert!(tracker.total() > 0);
    }

    #[test]
    fn dc_pair_cap_is_deterministic_accurate_and_pinned() {
        // 1000 points -> 499_500 pairs, well over DC_PAIR_CAP: the reducer
        // takes the seeded pair-sampling path instead of materializing
        // every pair.
        let ds = line(1000);
        let cfg = PipelineConfig::default();
        let tracker = DistanceTracker::new();
        let (dc, _) = dc_sampling_job(&ds, 0.05, usize::MAX, 9, &cfg, &tracker);
        assert_eq!(
            tracker.total(),
            DC_PAIR_CAP as u64,
            "capped path must evaluate exactly DC_PAIR_CAP distances"
        );
        // Deterministic: a rerun reproduces the same bits.
        let (dc2, _) = dc_sampling_job(&ds, 0.05, usize::MAX, 9, &cfg, &tracker);
        assert_eq!(dc.to_bits(), dc2.to_bits());
        // Accurate: within a few percent of the exact all-pairs quantile.
        let exact = dp_core::cutoff::estimate_dc_exact(&ds, 0.05);
        let rel = (dc - exact).abs() / exact;
        assert!(rel < 0.05, "sampled dc {dc} vs exact {exact} (rel {rel})");
        // Pinned on the reference dataset: any change to the sampling
        // scheme must be deliberate and show up here.
        assert_eq!(dc, 26.0, "pinned d_c drifted");
    }

    #[test]
    fn dc_job_with_full_sampling_is_exact() {
        let ds = line(60);
        let tracker = DistanceTracker::new();
        let (dc, _) = dc_sampling_job(&ds, 0.1, 60, 1, &PipelineConfig::default(), &tracker);
        let exact = dp_core::cutoff::estimate_dc_exact(&ds, 0.1);
        assert_eq!(
            dc, exact,
            "keeping every point must reproduce the exact quantile"
        );
    }
}
