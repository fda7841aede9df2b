//! Basic-DDP (paper §III): the exact blocked MapReduce baseline.
//!
//! The point set is split into `n` blocks of `block_size` points. Every
//! unordered pair of blocks must meet in some reducer; Basic-DDP uses the
//! round-robin tournament schedule, so each point is shuffled
//! `⌈(n+1)/2⌉` times (the paper's cost analysis, §III-B) instead of `n`
//! times:
//!
//! * reducer *a* (the *anchor*) receives block `a` plus blocks
//!   `(a+1) mod n … (a+⌊(n-1)/2⌋) mod n` (one extra "opposite" block for
//!   half the anchors when `n` is even);
//! * it computes the block-`a` diagonal pairs and the cross pairs between
//!   block `a` and each partner block — every unordered block pair is
//!   covered exactly once, so `rho`/`delta` partials are exact and
//!   `N(N+1)/2`-ish distances are computed per step.
//!
//! Four MapReduce jobs (plus the optional `d_c` sampling job): blocked
//! `rho` partials → sum-combine → blocked `delta` partials (with the
//! `rho` table broadcast, Hadoop's distributed cache) → min-combine.
//! `delta` recomputes distances rather than materializing the O(N²)
//! distance matrix on the DFS (§III-A, Step 2).

use crate::common::{
    assemble_delta, dc_sampling_stage, density_keys, flatten_coords, point_snapshot, DeltaPartial,
    MinDelta, PipelineConfig, RhoSum,
};
use crate::stats::RunReport;
use dp_core::dp::{DpResult, NO_UPSLOPE};
use dp_core::local::Partition;
use dp_core::{Dataset, DistanceTracker, PointId};
use mapreduce::{plan, Driver, Emitter, JobMetrics, Mapper, Reducer, Snapshot, Stage};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// The co-partitioning contract of the two blocked jobs: both apply the
/// same deterministic [`BlockMapper`] (same block size, same tournament
/// schedule) and hash partitioner to the same point snapshot, so the
/// scheduler reuses the rho job's post-shuffle partitions for the delta
/// job and elides its map+shuffle.
const BLOCK_LAYOUT_CONTRACT: &str = "basic/blocks";

/// Basic-DDP configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BasicConfig {
    /// Points per block (the paper's experiments use 500).
    pub block_size: usize,
    /// Engine parallelism.
    pub pipeline: PipelineConfig,
}

impl Default for BasicConfig {
    fn default() -> Self {
        BasicConfig {
            block_size: 500,
            pipeline: PipelineConfig::default(),
        }
    }
}

/// The exact blocked pipeline.
#[derive(Debug, Clone)]
pub struct BasicDdp {
    config: BasicConfig,
}

/// Tournament partners: the anchors that must receive a point of block `k`
/// among `n` blocks (including `k` itself).
fn anchors_for_block(k: u32, n: u32) -> Vec<u32> {
    debug_assert!(k < n);
    let mut anchors = vec![k];
    if n == 1 {
        return anchors;
    }
    let half = (n - 1) / 2;
    for j in 1..=half {
        anchors.push((k + n - j) % n);
    }
    if n.is_multiple_of(2) {
        // The "opposite" pair {a, a + n/2} is anchored at a < n/2.
        let a = (k + n - n / 2) % n;
        if a < n / 2 {
            anchors.push(a);
        }
    }
    anchors
}

/// Partner blocks a given anchor `a` receives (excluding `a` itself).
#[cfg_attr(not(test), allow(dead_code))]
fn partners_of_anchor(a: u32, n: u32) -> Vec<u32> {
    let mut partners = Vec::new();
    if n == 1 {
        return partners;
    }
    let half = (n - 1) / 2;
    for j in 1..=half {
        partners.push((a + j) % n);
    }
    if n.is_multiple_of(2) && a < n / 2 {
        partners.push(a + n / 2);
    }
    partners
}

/// Map output value: `(block id, point id, coordinates)`.
type BlockedPoint = (u32, PointId, Arc<[f64]>);

/// Mapper of both blocked jobs: routes each point to its tournament
/// anchors.
struct BlockMapper {
    block_size: usize,
    n_blocks: u32,
}

impl Mapper for BlockMapper {
    type InKey = PointId;
    type InValue = Arc<[f64]>;
    type OutKey = u32;
    type OutValue = BlockedPoint;

    fn map(&self, id: PointId, coords: Arc<[f64]>, out: &mut Emitter<u32, BlockedPoint>) {
        let block = (id as usize / self.block_size) as u32;
        for anchor in anchors_for_block(block, self.n_blocks) {
            out.emit(anchor, (block, id, coords.clone()));
        }
    }
}

/// Splits an anchor's input into its own block and the partner blocks,
/// each flattened: `(own ids, own coords, partner ids, partner coords, dim)`.
fn split_blocks(
    anchor: u32,
    points: &[BlockedPoint],
) -> (Vec<PointId>, Vec<f64>, Vec<PointId>, Vec<f64>, usize) {
    let (own, partners): (Vec<_>, Vec<_>) = points.iter().partition(|(b, _, _)| *b == anchor);
    let ids = |side: &[&BlockedPoint]| side.iter().map(|(_, id, _)| *id).collect();
    let (own_flat, dim) = flatten_coords(own.iter().map(|(_, _, c)| &c[..]));
    let (partner_flat, _) = flatten_coords(partners.iter().map(|(_, _, c)| &c[..]));
    (ids(&own), own_flat, ids(&partners), partner_flat, dim)
}

/// Reducer of the `rho` step: computes partial densities for the anchor's
/// diagonal and cross pairs.
struct RhoBlockReducer {
    dc: f64,
    tracker: DistanceTracker,
}

impl Reducer for RhoBlockReducer {
    type InKey = u32;
    type InValue = BlockedPoint;
    type OutKey = PointId;
    type OutValue = u32;

    fn reduce(&self, anchor: &u32, points: Vec<BlockedPoint>, out: &mut Emitter<PointId, u32>) {
        let (own, own_flat, partners, partner_flat, dim) = split_blocks(*anchor, &points);
        let block = Partition::new(&own_flat, dim, self.dc);
        // Diagonal pairs of the anchor block, then each partner point ×
        // the anchor block.
        let (mut own_rho, mut evals) = block.rho();
        let mut partner_rho = vec![0u32; partners.len()];
        evals += block.within_of(&partner_flat, |q, i| {
            own_rho[i] += 1;
            partner_rho[q] += 1;
        });
        self.tracker.add(evals);
        for (id, r) in partners.into_iter().zip(partner_rho) {
            out.emit(id, r);
        }
        for (id, r) in own.into_iter().zip(own_rho) {
            out.emit(id, r);
        }
    }
}

/// Reducer of the `delta` step: nearest denser point among the anchor's
/// covered pairs, with the full density table broadcast (distributed
/// cache). Partner points only meet the anchor block in this reducer.
struct DeltaBlockReducer {
    rho: Arc<Vec<u32>>,
    dc: f64,
    tracker: DistanceTracker,
}

impl Reducer for DeltaBlockReducer {
    type InKey = u32;
    type InValue = BlockedPoint;
    type OutKey = PointId;
    type OutValue = DeltaPartial;

    fn reduce(
        &self,
        anchor: &u32,
        points: Vec<BlockedPoint>,
        out: &mut Emitter<PointId, DeltaPartial>,
    ) {
        let (own, own_flat, partners, partner_flat, dim) = split_blocks(*anchor, &points);
        let own_keys = density_keys(&self.rho, own.iter().copied());
        let partner_keys = density_keys(&self.rho, partners.iter().copied());
        let block = Partition::new(&own_flat, dim, self.dc);
        let mut own_part: Vec<DeltaPartial> = vec![(f64::INFINITY, NO_UPSLOPE, 0.0); own.len()];
        let mut evals = block.delta(&own_keys, true, |i, part| own_part[i] = part);
        evals += block.delta_between(
            &own_keys,
            &mut own_part,
            (&partner_flat, &partner_keys),
            |q, part| out.emit(partners[q], part),
        );
        self.tracker.add(evals);
        for (id, part) in own.into_iter().zip(own_part) {
            out.emit(id, part);
        }
    }
}

impl BasicDdp {
    /// A pipeline with the given configuration.
    pub fn new(config: BasicConfig) -> Self {
        assert!(config.block_size > 0, "block size must be positive");
        BasicDdp { config }
    }

    /// Runs the sampled `d_c` preprocessing job (paper §III-A), then the
    /// full pipeline. `percentile` is the neighborhood fraction (1–2%
    /// typical); `sample_target` points are sampled for the quantile.
    pub fn run_auto_dc(
        &self,
        ds: &Dataset,
        percentile: f64,
        sample_target: usize,
        seed: u64,
    ) -> RunReport {
        let tracker = DistanceTracker::new();
        let start = Instant::now();
        // One snapshot and one scheduler across the dc stage and the four
        // pipeline jobs.
        let snap = point_snapshot(ds);
        let mut driver = self.config.pipeline.driver();
        let dc = dc_sampling_stage(
            &snap,
            &mut driver,
            percentile,
            sample_target,
            seed,
            &self.config.pipeline,
            &tracker,
        );
        self.run_tracked(ds, &snap, driver, dc, tracker, start)
    }

    /// Runs the pipeline with a known `d_c`.
    pub fn run(&self, ds: &Dataset, dc: f64) -> RunReport {
        self.run_with_driver(ds, dc, self.config.pipeline.driver())
    }

    /// Runs the pipeline on a caller-supplied scheduler. This is the
    /// kill-and-resume entry point: a checkpointing driver whose previous
    /// run of this pipeline was killed mid-stage still holds the
    /// materialized stage outputs in its [`Dfs`](mapreduce::Dfs), so the
    /// rerun resumes from the last checkpoint instead of recomputing from
    /// scratch.
    pub fn run_with_driver(&self, ds: &Dataset, dc: f64, driver: Driver) -> RunReport {
        let snap = point_snapshot(ds);
        self.run_tracked(
            ds,
            &snap,
            driver,
            dc,
            DistanceTracker::new(),
            Instant::now(),
        )
    }

    fn run_tracked(
        &self,
        ds: &Dataset,
        snap: &Snapshot<PointId, Arc<[f64]>>,
        mut driver: Driver,
        dc: f64,
        tracker: DistanceTracker,
        start: Instant,
    ) -> RunReport {
        let _pipeline_span = obsv::span!("pipeline", "basic-ddp");
        assert!(!ds.is_empty(), "cannot cluster an empty dataset");
        assert!(dc.is_finite() && dc > 0.0, "d_c must be positive, got {dc}");
        let n = ds.len();
        let n_blocks = n.div_ceil(self.config.block_size) as u32;
        let job_cfg = |stage: &str| self.config.pipeline.job_config_for(stage);
        let dist_snapshot = |t: &DistanceTracker| {
            let t = t.clone();
            move |m: &mut JobMetrics| {
                m.user.insert("distances".into(), t.total());
            }
        };

        // ---- Jobs 1 + 2: blocked rho partials, then sum. The blocked
        // stage declares the tournament-layout contract, retaining its
        // post-shuffle partitions for the delta job.
        let rho_plan = plan("basic/rho")
            .snapshot(snap)
            .stage(
                Stage::new(
                    "basic/rho-local",
                    BlockMapper {
                        block_size: self.config.block_size,
                        n_blocks,
                    },
                    RhoBlockReducer {
                        dc,
                        tracker: tracker.clone(),
                    },
                )
                .config(job_cfg("basic/rho-local"))
                .co_partitioned(BLOCK_LAYOUT_CONTRACT)
                .finalize(dist_snapshot(&tracker)),
            )
            .stage(
                Stage::aggregate("basic/rho-aggregate", RhoSum)
                    .config(job_cfg("basic/rho-aggregate"))
                    .finalize(dist_snapshot(&tracker)),
            )
            .build();
        let rho_out = driver.run_plan(rho_plan);

        // Broadcast the density table (Hadoop's distributed cache).
        let mut rho = vec![0u32; n];
        for (id, r) in rho_out {
            rho[id as usize] = r;
        }
        let rho = Arc::new(rho);

        // ---- Jobs 3 + 4: blocked delta partials (same block layout —
        // map+shuffle elided via the retained partitions), then min-merge.
        let delta_plan = plan("basic/delta")
            .snapshot(snap)
            .stage(
                Stage::new(
                    "basic/delta-local",
                    BlockMapper {
                        block_size: self.config.block_size,
                        n_blocks,
                    },
                    DeltaBlockReducer {
                        rho: rho.clone(),
                        dc,
                        tracker: tracker.clone(),
                    },
                )
                .config(job_cfg("basic/delta-local"))
                .co_partitioned(BLOCK_LAYOUT_CONTRACT)
                .finalize(dist_snapshot(&tracker)),
            )
            .stage(
                Stage::aggregate("basic/delta-aggregate", MinDelta)
                    .config(job_cfg("basic/delta-aggregate"))
                    .finalize(dist_snapshot(&tracker)),
            )
            .build();
        let delta_out = driver.run_plan(delta_plan);

        // The absolute density peak gets delta = max distance to anyone.
        let (delta, upslope) = assemble_delta(n, delta_out, true);

        let rho = Arc::try_unwrap(rho).unwrap_or_else(|arc| (*arc).clone());
        RunReport {
            algorithm: "basic-ddp".into(),
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

    fn grid_dataset(nx: usize, ny: usize) -> Dataset {
        let mut ds = Dataset::new(2);
        for x in 0..nx {
            for y in 0..ny {
                // Slight shear so no two pairwise distances tie across axes.
                ds.push(&[x as f64 + 0.01 * y as f64, 1.7 * y as f64]);
            }
        }
        ds
    }

    #[test]
    fn tournament_covers_every_pair_exactly_once() {
        for n in 1..=12u32 {
            let mut covered = std::collections::HashMap::new();
            for a in 0..n {
                for p in partners_of_anchor(a, n) {
                    let key = if a < p { (a, p) } else { (p, a) };
                    *covered.entry(key).or_insert(0) += 1;
                }
            }
            for k in 0..n {
                for l in (k + 1)..n {
                    assert_eq!(
                        covered.get(&(k, l)).copied().unwrap_or(0),
                        1,
                        "pair ({k},{l}) of n={n} covered wrong number of times"
                    );
                }
            }
        }
    }

    #[test]
    fn anchors_and_partners_are_consistent() {
        for n in 1..=12u32 {
            let mut total_copies = 0u32;
            for k in 0..n {
                let anchors = anchors_for_block(k, n);
                // k must be its own anchor.
                assert!(anchors.contains(&k));
                // Every anchor != k must list k as partner.
                for &a in anchors.iter().filter(|&&a| a != k) {
                    assert!(
                        partners_of_anchor(a, n).contains(&k),
                        "anchor {a} of n={n} must receive block {k}"
                    );
                }
                // Per-block copies are within one of the paper's
                // ⌈(n+1)/2⌉ (even n alternates between n/2 and n/2+1).
                let copies = anchors.len() as u32;
                let target = (n + 1).div_ceil(2);
                assert!(
                    copies == target || copies + 1 == target,
                    "block {k} of n={n}: {copies} copies vs target {target}"
                );
                total_copies += copies;
            }
            // Average copies per block is exactly (n+1)/2 (§III-B).
            assert_eq!(2 * total_copies, n * (n + 1), "n={n}");
        }
    }

    #[test]
    fn matches_sequential_dp_exactly() {
        let ds = grid_dataset(6, 5); // 30 points
        let dc = 1.3;
        let exact = compute_exact(&ds, dc);
        let report = BasicDdp::new(BasicConfig {
            block_size: 7,
            ..Default::default()
        })
        .run(&ds, dc);
        assert_eq!(report.result.rho, exact.rho, "rho must be exact");
        assert_eq!(
            report.result.upslope, exact.upslope,
            "upslope must be exact"
        );
        for (a, b) in report.result.delta.iter().zip(exact.delta.iter()) {
            assert!((a - b).abs() < 1e-12, "delta mismatch: {a} vs {b}");
        }
    }

    #[test]
    fn matches_sequential_for_various_block_sizes() {
        let ds = grid_dataset(5, 5);
        let dc = 1.1;
        let exact = compute_exact(&ds, dc);
        for block_size in [1, 3, 10, 25, 100] {
            let report = BasicDdp::new(BasicConfig {
                block_size,
                ..Default::default()
            })
            .run(&ds, dc);
            assert_eq!(report.result.rho, exact.rho, "block_size {block_size}");
            assert_eq!(
                report.result.upslope, exact.upslope,
                "block_size {block_size}"
            );
        }
    }

    #[test]
    fn distance_count_matches_paper_formula() {
        // N(N-1)/2 distances in the rho step and again in the delta step.
        let ds = grid_dataset(4, 5); // N = 20
        let n = ds.len() as u64;
        let report = BasicDdp::new(BasicConfig {
            block_size: 6,
            ..Default::default()
        })
        .run(&ds, 1.0);
        assert_eq!(report.distances, 2 * n * (n - 1) / 2);
    }

    #[test]
    fn run_auto_dc_produces_reasonable_cutoff() {
        let ds = grid_dataset(6, 6);
        let report = BasicDdp::new(BasicConfig::default()).run_auto_dc(&ds, 0.05, 36, 7);
        assert!(report.result.dc > 0.0);
        assert_eq!(report.jobs.len(), 5, "dc job + 4 pipeline jobs");
        let exact = compute_exact(&ds, report.result.dc);
        assert_eq!(report.result.rho, exact.rho);
    }

    #[test]
    fn single_block_degenerates_to_sequential() {
        let ds = grid_dataset(3, 3);
        let report = BasicDdp::new(BasicConfig {
            block_size: 1000,
            ..Default::default()
        })
        .run(&ds, 1.2);
        let exact = compute_exact(&ds, 1.2);
        assert_eq!(report.result.rho, exact.rho);
    }

    #[test]
    fn shuffle_records_scale_with_copies() {
        // Each point shuffled ⌈(n_blocks+1)/2⌉ times in each blocked job.
        let ds = grid_dataset(4, 5); // N = 20
        let block_size = 4; // n_blocks = 5 -> 3 copies each
        let report = BasicDdp::new(BasicConfig {
            block_size,
            ..Default::default()
        })
        .run(&ds, 1.0);
        let rho_job = &report.jobs[0];
        assert_eq!(rho_job.map_output_records, 20 * 3);
    }

    #[test]
    fn jobs_carry_the_shared_stage_names() {
        // The benchmark reads `ddp.<suffix>_s` off these names, the same
        // suffixes LSH-DDP's jobs end in.
        let report = BasicDdp::new(BasicConfig::default()).run(&grid_dataset(3, 3), 1.2);
        let names: Vec<&str> = report.jobs.iter().map(|j| j.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "basic/rho-local",
                "basic/rho-aggregate",
                "basic/delta-local",
                "basic/delta-aggregate"
            ]
        );
    }

    #[test]
    #[should_panic(expected = "block size must be positive")]
    fn rejects_zero_block_size() {
        let _ = BasicDdp::new(BasicConfig {
            block_size: 0,
            ..Default::default()
        });
    }
}
