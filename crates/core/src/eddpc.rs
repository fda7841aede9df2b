//! EDDPC — the state-of-the-art *exact* distributed DP comparator
//! (paper §VI-D, Table IV; re-implemented from its published description,
//! ref \[21\] of the paper).
//!
//! EDDPC partitions the data with a **Voronoi diagram** around a sampled
//! set of pivots and uses careful replication/filtering to keep results
//! exact while avoiding most of Basic-DDP's all-pairs work:
//!
//! * **`rho` (one job).** Each point is owned by its nearest pivot's cell
//!   and *replicated* to every cell `l` that could contain one of its
//!   `d_c`-neighbors. The triangle inequality gives the filter:
//!   a neighbor `q` owned by cell `l` implies
//!   `d(p, pivot_l) ≤ d_c + d(q, pivot_l) ≤ d_c + (d(q,p) + d(p, pivot_own))
//!   ≤ 2·d_c + d(p, pivot_own)`. Within a cell, owners count all present
//!   points within `d_c` — exact.
//! * **`delta` (three jobs).** Round 1 computes an upper bound `ub_i`
//!   among the owners of `i`'s own cell. Round 2 replicates `i` to every
//!   other cell `l` with `d(i, pivot_l) ≤ ub_i + radius_l` (any denser
//!   point closer than `ub_i` must be owned by such a cell) and finishes
//!   the search there. A final job min-merges the two rounds. Points with
//!   no denser point anywhere (the absolute peak) visit every cell and
//!   collect the true max distance.
//!
//! Compared to LSH-DDP, EDDPC returns exact `(rho, delta)` but shuffles
//! replicas of boundary points and pays the pivot-distance overhead —
//! exactly the trade-off Table IV of the paper measures.

use crate::common::{
    assemble_delta, density_keys, flatten_coords, point_snapshot, DeltaPartial, MinDeltaCombiner,
    MinDeltaReducer, PipelineConfig,
};
use crate::stats::RunReport;
use dp_core::distance::squared_euclidean;
use dp_core::dp::{denser, DpResult, NO_UPSLOPE};
use dp_core::local::Partition;
use dp_core::{Dataset, DistanceTracker, PointId};
use mapreduce::{plan, Emitter, JobMetrics, Mapper, Reducer, Stage};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// EDDPC configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EddpcConfig {
    /// Number of Voronoi pivots (cells). More pivots = smaller cells but
    /// more replication candidates; `~sqrt(N)` is a reasonable default.
    pub n_pivots: usize,
    /// Seed for pivot sampling.
    pub seed: u64,
    /// Engine parallelism.
    pub pipeline: PipelineConfig,
}

impl EddpcConfig {
    /// A config with `sqrt(N)`-scaled pivots for a dataset of `n` points.
    pub fn for_size(n: usize, seed: u64) -> Self {
        EddpcConfig {
            n_pivots: (n as f64).sqrt().ceil().max(1.0) as usize,
            seed,
            pipeline: PipelineConfig::default(),
        }
    }
}

/// The exact Voronoi pipeline.
#[derive(Debug, Clone)]
pub struct Eddpc {
    config: EddpcConfig,
}

/// Shared pivot table (broadcast to every task).
struct Pivots {
    coords: Vec<Vec<f64>>,
}

/// The point→pivot distance table, computed ONCE by the partitioning pass
/// and broadcast to every subsequent job (the real EDDPC caches its
/// Voronoi partition the same way instead of re-deriving it per job).
struct PivotIndex {
    /// Number of pivots.
    p: usize,
    /// Owning cell of each point.
    own: Vec<u32>,
    /// Row-major `N × p` point-to-pivot distances.
    dists: Vec<f64>,
    /// Cell radii: max owner-to-pivot distance per cell.
    radii: Vec<f64>,
}

impl PivotIndex {
    /// Builds the index, charging `N × p` distance computations.
    fn build(ds: &Dataset, pivots: &Pivots, tracker: &DistanceTracker) -> Self {
        let p = pivots.coords.len();
        let n = ds.len();
        let mut own = Vec::with_capacity(n);
        let mut dists = Vec::with_capacity(n * p);
        let mut radii = vec![0.0f64; p];
        for (_, point) in ds.iter() {
            let row_start = dists.len();
            let mut best = (0u32, f64::INFINITY);
            for (l, c) in pivots.coords.iter().enumerate() {
                let d = tracker.distance(c, point);
                dists.push(d);
                if d < best.1 {
                    best = (l as u32, d);
                }
            }
            own.push(best.0);
            let _ = row_start;
            if best.1 > radii[best.0 as usize] {
                radii[best.0 as usize] = best.1;
            }
        }
        PivotIndex {
            p,
            own,
            dists,
            radii,
        }
    }

    /// The pivot distances of point `id`.
    #[inline]
    fn row(&self, id: PointId) -> &[f64] {
        let i = id as usize * self.p;
        &self.dists[i..i + self.p]
    }

    /// The owning cell of point `id`.
    #[inline]
    fn own(&self, id: PointId) -> u32 {
        self.own[id as usize]
    }
}

/// Samples `n_pivots` distinct points as pivots, deterministically.
fn sample_pivots(ds: &Dataset, n_pivots: usize, seed: u64) -> Pivots {
    let n = ds.len();
    let k = n_pivots.min(n).max(1);
    // Deterministic stride sampling over a hashed permutation start.
    let start = crate::common::sample_hash(0, seed) % n as u64;
    let stride = (n / k).max(1) as u64;
    let mut coords = Vec::with_capacity(k);
    for i in 0..k as u64 {
        let idx = ((start + i * stride) % n as u64) as u32;
        coords.push(ds.point(idx).to_vec());
    }
    Pivots { coords }
}

/// Value of the rho job: `(point id, coords, is_owner)`.
type CellPoint = (PointId, Vec<f64>, u8);

/// Mapper of the rho job: Voronoi ownership + 2·dc-bounded replication.
struct RhoVoronoiMapper {
    index: Arc<PivotIndex>,
    dc: f64,
}

impl Mapper for RhoVoronoiMapper {
    type InKey = PointId;
    type InValue = Vec<f64>;
    type OutKey = u32;
    type OutValue = CellPoint;

    fn map(&self, id: PointId, coords: Vec<f64>, out: &mut Emitter<u32, CellPoint>) {
        let own = self.index.own(id);
        let dists = self.index.row(id);
        let bound = dists[own as usize] + 2.0 * self.dc;
        for (l, d) in dists.iter().enumerate() {
            if l as u32 == own {
                out.emit(own, (id, coords.clone(), 1));
            } else if *d <= bound {
                out.emit(l as u32, (id, coords.clone(), 0));
            }
        }
    }
}

/// Reducer of the rho job: exact density for the cell's owners, counted
/// over everything present in the cell.
struct RhoVoronoiReducer {
    dc: f64,
    tracker: DistanceTracker,
}

impl Reducer for RhoVoronoiReducer {
    type InKey = u32;
    type InValue = CellPoint;
    type OutKey = PointId;
    type OutValue = u32;

    fn reduce(&self, _cell: &u32, points: Vec<CellPoint>, out: &mut Emitter<PointId, u32>) {
        let owners: Vec<&CellPoint> = points.iter().filter(|(_, _, owner)| *owner == 1).collect();
        if owners.is_empty() {
            return;
        }
        let (all_flat, dim) = flatten_coords(points.iter().map(|(_, c, _)| c.as_slice()));
        let (owner_flat, _) = flatten_coords(owners.iter().map(|(_, c, _)| c.as_slice()));
        let (rho, evals) = Partition::new(&all_flat, dim, self.dc).count_of(&owner_flat);
        self.tracker.add(evals);
        let dc2 = self.dc * self.dc;
        for ((id, c, _), r) in owners.into_iter().zip(rho) {
            // Each owner appears exactly once in the cell: take its
            // self-pair back out where the predicate counted it.
            out.emit(*id, r - u32::from(squared_euclidean(c, c) < dc2));
        }
    }
}

/// Mapper of the delta round-1 job: owners only, no replication.
struct OwnerMapper {
    index: Arc<PivotIndex>,
}

impl Mapper for OwnerMapper {
    type InKey = PointId;
    type InValue = Vec<f64>;
    type OutKey = u32;
    type OutValue = (PointId, Vec<f64>);

    fn map(&self, id: PointId, coords: Vec<f64>, out: &mut Emitter<u32, (PointId, Vec<f64>)>) {
        out.emit(self.index.own(id), (id, coords));
    }
}

/// Reducer of round 1: nearest denser owner within the cell — the upper
/// bound `ub_i` round 2 replicates by. (Cell radii come from the
/// partitioning pass's pivot distances in [`Eddpc::run`], not from here.)
struct DeltaRound1Reducer {
    rho: Arc<Vec<u32>>,
    dc: f64,
    tracker: DistanceTracker,
}

impl Reducer for DeltaRound1Reducer {
    type InKey = u32;
    type InValue = (PointId, Vec<f64>);
    type OutKey = PointId;
    type OutValue = DeltaPartial;

    fn reduce(
        &self,
        _cell: &u32,
        points: Vec<(PointId, Vec<f64>)>,
        out: &mut Emitter<PointId, DeltaPartial>,
    ) {
        let (flat, dim) = flatten_coords(points.iter().map(|(_, c)| c.as_slice()));
        let keys = density_keys(&self.rho, points.iter().map(|(id, _)| *id));
        let evals = Partition::new(&flat, dim, self.dc)
            .delta(&keys, true, |i, part| out.emit(points[i].0, part));
        self.tracker.add(evals);
    }
}

/// Round-2 value: either a cell owner serving as candidate, or a visitor
/// searching for a closer denser point. `role`: 1 = owner, 0 = visitor;
/// `ub` is the visitor's current upper bound (ignored for owners).
type Round2Point = (PointId, Vec<f64>, u8, f64);

/// Mapper of round 2: owners re-emitted to their cell; visitors emitted to
/// every other cell that may own a denser point within their bound.
///
/// Two filters keep the replication down (the "careful filtering" of the
/// EDDPC paper):
///
/// * **distance filter** — a denser point closer than `ub_i` owned by
///   cell `l` implies `d(i, pivot_l) ≤ ub_i + radius_l`;
/// * **density filter** — a cell whose densest owner is not denser than
///   `i` cannot improve `delta_i` at all and is skipped. The absolute
///   density peak (infinite `ub`, no denser point anywhere) still visits
///   every cell, because its `delta` is the max distance to anyone.
struct DeltaRound2Mapper {
    index: Arc<PivotIndex>,
    ub: Arc<Vec<f64>>,
    /// Per-cell densest owner under the canonical order: `(rho, id)`.
    cell_max: Arc<Vec<(u32, PointId)>>,
    rho: Arc<Vec<u32>>,
}

impl Mapper for DeltaRound2Mapper {
    type InKey = PointId;
    type InValue = Vec<f64>;
    type OutKey = u32;
    type OutValue = Round2Point;

    fn map(&self, id: PointId, coords: Vec<f64>, out: &mut Emitter<u32, Round2Point>) {
        let own = self.index.own(id);
        out.emit(own, (id, coords.clone(), 1, 0.0));
        let ub = self.ub[id as usize];
        let rho_i = self.rho[id as usize];
        for (l, d) in self.index.row(id).iter().enumerate() {
            if l as u32 == own || *d > ub + self.index.radii[l] {
                continue;
            }
            let (mr, mi) = self.cell_max[l];
            if ub.is_finite() && !denser(mr, mi, rho_i, id) {
                continue; // no owner of cell l is denser than i
            }
            out.emit(l as u32, (id, coords.clone(), 0, ub));
        }
    }
}

/// Reducer of round 2: finish each visitor's search among the cell
/// owners, capped at its round-1 upper bound.
struct DeltaRound2Reducer {
    rho: Arc<Vec<u32>>,
    dc: f64,
    tracker: DistanceTracker,
}

impl Reducer for DeltaRound2Reducer {
    type InKey = u32;
    type InValue = Round2Point;
    type OutKey = PointId;
    type OutValue = DeltaPartial;

    fn reduce(
        &self,
        _cell: &u32,
        points: Vec<Round2Point>,
        out: &mut Emitter<PointId, DeltaPartial>,
    ) {
        let (owners, visitors): (Vec<_>, Vec<_>) =
            points.into_iter().partition(|(_, _, role, _)| *role == 1);
        // Either side may be empty (and then reports dimension 1).
        let (visitor_flat, vdim) = flatten_coords(visitors.iter().map(|(_, c, ..)| c.as_slice()));
        let (owner_flat, odim) = flatten_coords(owners.iter().map(|(_, c, ..)| c.as_slice()));
        let dim = vdim.max(odim);
        let owner_keys = density_keys(&self.rho, owners.iter().map(|(id, ..)| *id));
        let visitor_keys = density_keys(&self.rho, visitors.iter().map(|(id, ..)| *id));
        let evals = Partition::new(&owner_flat, dim, self.dc).delta_of(
            &owner_keys,
            &visitor_flat,
            &visitor_keys,
            |v| ((f64::INFINITY, NO_UPSLOPE), visitors[v].3),
            |v, part| out.emit(visitors[v].0, part),
        );
        self.tracker.add(evals);
    }
}

impl Eddpc {
    /// A pipeline with the given configuration.
    pub fn new(config: EddpcConfig) -> Self {
        assert!(config.n_pivots > 0, "need at least one pivot");
        Eddpc { config }
    }

    /// Runs the full exact pipeline with a known `d_c`.
    ///
    /// All four jobs execute as plans through one scheduler over one
    /// shared point snapshot. EDDPC's jobs use three *different* mappers
    /// over the point file (ownership changes per phase), so no
    /// co-partitioning contract applies — the plan layer's win here is
    /// the single input materialization and automatic stage metrics.
    pub fn run(&self, ds: &Dataset, dc: f64) -> RunReport {
        let _pipeline_span = obsv::span!("pipeline", "eddpc");
        assert!(!ds.is_empty(), "cannot cluster an empty dataset");
        assert!(dc.is_finite() && dc > 0.0, "d_c must be positive, got {dc}");
        let tracker = DistanceTracker::new();
        let start = Instant::now();
        let n = ds.len();
        let job_cfg = self.config.pipeline.job_config();
        let pivots = sample_pivots(ds, self.config.n_pivots, self.config.seed);
        let snap = point_snapshot(ds);
        let mut driver = self.config.pipeline.driver();
        let dist_snapshot = |t: &DistanceTracker| {
            let t = t.clone();
            move |m: &mut JobMetrics| {
                m.user.insert("distances".into(), t.total());
            }
        };

        // The partitioning pass: point-to-pivot distances, Voronoi
        // ownership, and cell radii — computed once and broadcast to all
        // four jobs (EDDPC's cached Voronoi partition).
        let index = Arc::new(PivotIndex::build(ds, &pivots, &tracker));

        // ---- Job 1: Voronoi rho (replication + exact local count) ------
        let rho_out = driver.run_plan(
            plan("eddpc/rho")
                .snapshot(&snap)
                .stage(
                    Stage::new(
                        "eddpc/rho-voronoi",
                        RhoVoronoiMapper {
                            index: index.clone(),
                            dc,
                        },
                        RhoVoronoiReducer {
                            dc,
                            tracker: tracker.clone(),
                        },
                    )
                    .config(job_cfg)
                    .finalize(dist_snapshot(&tracker)),
                )
                .build(),
        );

        let mut rho = vec![0u32; n];
        for (id, r) in rho_out {
            rho[id as usize] = r;
        }
        let rho = Arc::new(rho);

        // ---- Job 2: delta round 1 (own cell upper bound) ----------------
        let round1 = driver.run_plan(
            plan("eddpc/delta-r1")
                .snapshot(&snap)
                .stage(
                    Stage::new(
                        "eddpc/delta-local",
                        OwnerMapper {
                            index: index.clone(),
                        },
                        DeltaRound1Reducer {
                            rho: rho.clone(),
                            dc,
                            tracker: tracker.clone(),
                        },
                    )
                    .config(job_cfg)
                    .finalize(dist_snapshot(&tracker)),
                )
                .build(),
        );

        let mut ub = vec![f64::INFINITY; n];
        for (id, (d, _, _)) in &round1 {
            ub[*id as usize] = *d;
        }
        let ub = Arc::new(ub);

        // Densest owner per cell (canonical order), for the round-2
        // density filter.
        let mut cell_max = vec![(0u32, PointId::MAX); index.p];
        for i in 0..n as PointId {
            let cell = index.own(i) as usize;
            let (mr, mi) = cell_max[cell];
            if mi == PointId::MAX || denser(rho[i as usize], i, mr, mi) {
                cell_max[cell] = (rho[i as usize], i);
            }
        }
        let cell_max = Arc::new(cell_max);

        // ---- Job 3: delta round 2 (bounded cross-cell refinement) -------
        let round2 = driver.run_plan(
            plan("eddpc/delta-r2")
                .snapshot(&snap)
                .stage(
                    Stage::new(
                        "eddpc/delta-refine",
                        DeltaRound2Mapper {
                            index,
                            ub,
                            cell_max,
                            rho: rho.clone(),
                        },
                        DeltaRound2Reducer {
                            rho: rho.clone(),
                            dc,
                            tracker: tracker.clone(),
                        },
                    )
                    .config(job_cfg)
                    .finalize(dist_snapshot(&tracker)),
                )
                .build(),
        );

        // ---- Job 4: min-merge the two rounds ----------------------------
        let mut merged_input = round1;
        merged_input.extend(round2);
        let delta_out = driver.run_plan(
            plan("eddpc/delta-merge")
                .rows(merged_input)
                .reduce_stage(
                    Stage::reduce_only("eddpc/delta-merge", MinDeltaReducer)
                        .combiner(MinDeltaCombiner)
                        .config(job_cfg)
                        .finalize(dist_snapshot(&tracker)),
                )
                .build(),
        );

        let (delta, upslope) = assemble_delta(n, delta_out, true);
        let rho = Arc::try_unwrap(rho).unwrap_or_else(|arc| (*arc).clone());
        RunReport {
            algorithm: "eddpc".into(),
            jobs: driver.into_history(),
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
    use dp_core::compute_exact;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn blobs(n_per: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = Dataset::new(2);
        for (cx, cy) in [(0.0, 0.0), (8.0, 1.0), (4.0, 7.0)] {
            for _ in 0..n_per {
                let dx: f64 = rng.random_range(-1.0..1.0);
                let dy: f64 = rng.random_range(-1.0..1.0);
                ds.push(&[cx + dx, cy + dy]);
            }
        }
        ds
    }

    fn config(n_pivots: usize) -> EddpcConfig {
        EddpcConfig {
            n_pivots,
            seed: 3,
            pipeline: PipelineConfig::default(),
        }
    }

    #[test]
    fn rho_is_exact() {
        let ds = blobs(50, 1);
        let dc = 0.6;
        let exact = compute_exact(&ds, dc);
        for pivots in [1, 4, 12, 30] {
            let report = Eddpc::new(config(pivots)).run(&ds, dc);
            assert_eq!(report.result.rho, exact.rho, "n_pivots = {pivots}");
        }
    }

    #[test]
    fn delta_and_upslope_are_exact() {
        let ds = blobs(40, 2);
        let dc = 0.6;
        let exact = compute_exact(&ds, dc);
        for pivots in [1, 5, 11] {
            let report = Eddpc::new(config(pivots)).run(&ds, dc);
            assert_eq!(report.result.upslope, exact.upslope, "n_pivots = {pivots}");
            for (i, (a, b)) in report
                .result
                .delta
                .iter()
                .zip(exact.delta.iter())
                .enumerate()
            {
                assert!(
                    (a - b).abs() < 1e-12,
                    "delta[{i}] mismatch with {pivots} pivots: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn fewer_distances_than_basic_on_clustered_data() {
        let ds = blobs(120, 3);
        let n = ds.len() as u64;
        let dc = 0.4;
        let report = Eddpc::new(EddpcConfig::for_size(ds.len(), 3)).run(&ds, dc);
        let basic_dist = 2 * n * (n - 1) / 2;
        assert!(
            report.distances < basic_dist,
            "eddpc {} vs basic {}",
            report.distances,
            basic_dist
        );
    }

    #[test]
    fn density_filter_reduces_round2_shuffle() {
        // Compare round-2 map output against the theoretical unfiltered
        // volume: with many cells and strong density structure, the
        // density filter must prune a meaningful share while staying
        // exact (exactness is covered by delta_and_upslope_are_exact and
        // the workspace property tests).
        let ds = blobs(80, 9);
        let dc = 0.5;
        let report = Eddpc::new(config(16)).run(&ds, dc);
        let round2 = &report.jobs[2];
        let unfiltered = ds.len() as u64 * 16;
        assert!(
            round2.map_output_records < unfiltered / 2,
            "round-2 emitted {} of {} unfiltered",
            round2.map_output_records,
            unfiltered
        );
        let exact = compute_exact(&ds, dc);
        assert_eq!(report.result.upslope, exact.upslope);
    }

    #[test]
    fn for_size_scales_pivots() {
        let c = EddpcConfig::for_size(10_000, 1);
        assert_eq!(c.n_pivots, 100);
        let c = EddpcConfig::for_size(1, 1);
        assert_eq!(c.n_pivots, 1);
    }

    #[test]
    fn pivot_sampling_is_deterministic_and_distinct() {
        let ds = blobs(30, 4);
        let a = sample_pivots(&ds, 10, 5);
        let b = sample_pivots(&ds, 10, 5);
        assert_eq!(a.coords, b.coords);
        assert_eq!(a.coords.len(), 10);
    }

    #[test]
    #[should_panic(expected = "at least one pivot")]
    fn rejects_zero_pivots() {
        let _ = Eddpc::new(config(0));
    }
}
