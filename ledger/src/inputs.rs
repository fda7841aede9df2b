//! Input generation, done once per run by the parent: children receive only
//! the files written here.

use crate::spec::{self, Kind, Sizes, Workload, STRUCTURE_SEED};
use datasets::{LabeledDataset, PaperDataset};
use ddp::prelude::*;
use dp_core::Dataset;
use serve::ClusterModel;
use std::path::Path;

/// SplitMix64, the generator `dp_core::cutoff` samples pairs with.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `take` of `0..total`, ascending, each subset equally likely
/// (selection sampling, Knuth 3.4.2 S).
fn choose(total: usize, take: usize, rng: &mut Rng) -> Vec<usize> {
    let mut picked = Vec::with_capacity(take);
    for i in 0..total {
        if rng.below(total - i) < take - picked.len() {
            picked.push(i);
        }
    }
    picked
}

/// The engine configuration of every fit and compaction.
pub fn pipeline(budget: Option<u64>) -> PipelineConfig {
    PipelineConfig {
        map_tasks: spec::MAP_TASKS,
        reduce_tasks: spec::REDUCE_TASKS,
        mem_budget: budget,
        ..PipelineConfig::default()
    }
}

/// `d_c` and the LSH-DDP pipeline for `ds`, as every fit sets them up.
pub fn tuned(ds: &Dataset, budget: Option<u64>) -> (f64, LshDdp) {
    let dc = dp_core::cutoff::estimate_dc_sampled(
        ds,
        spec::DC_PERCENTILE,
        spec::DC_SAMPLES,
        STRUCTURE_SEED,
    );
    let params = lsh::LshParams::for_accuracy(spec::ACCURACY, spec::LAYOUTS, spec::PI, dc)
        .expect("accuracy and d_c are in the solver's domain");
    let ddp = LshDdp::new(LshDdpConfig {
        params,
        seed: STRUCTURE_SEED,
        pipeline: pipeline(budget),
        rho_aggregation: Default::default(),
        partition_cap: None,
    });
    (dc, ddp)
}

/// Towns of the serve workload's base model.
pub const SERVE_K: usize = 30;

/// What a query of the serve workload exercises; a function of its row
/// number so that the query file needs no extra column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A jittered base point: LSH probe. 70%.
    Near,
    /// One of a small repeated set: cache. 10%.
    Hot,
    /// Out of distribution: exact fallback. 15%.
    Far,
    /// An exact base point: must get that point's stored label. 5%.
    Twin,
}

pub fn query_class(row: usize) -> Class {
    match row % 20 {
        0..=13 => Class::Near,
        14 | 15 => Class::Hot,
        16..=18 => Class::Far,
        _ => Class::Twin,
    }
}

pub const POINTS: &str = "points.csv";
pub const MODEL: &str = "model.bin";
pub const QUERIES: &str = "queries.csv";
pub const INSERTS: &str = "inserts.csv";
pub const DELETES: &str = "deletes.txt";

fn jittered(p: &[f64], rng: &mut Rng) -> Vec<f64> {
    p.iter().map(|x| x + rng.uniform(-0.5, 0.5)).collect()
}

/// Peak selection for `k` clusters, as the CLI's `--k` makes it: the `k`
/// largest-delta points above the lower density quartile.
pub fn selection(k: usize) -> PeakSelection {
    PeakSelection::DeltaOutliers {
        k,
        rho_quantile: 0.25,
    }
}

/// Fits `ds` end to end into a servable model.
pub fn base_model(ds: &Dataset, k: usize) -> ClusterModel {
    let (dc, ddp) = tuned(ds, None);
    let report = ddp.run(ds, dc);
    let outcome = CentralizedStep::new(selection(k)).run(&report.result);
    ClusterModel::from_run(ds, &report, &outcome, &ddp.config().params, STRUCTURE_SEED)
}

/// Writes `w`'s inputs for `seed` into `dir`.
pub fn generate(w: &Workload, sizes: &Sizes, seed: u64, dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    match w.kind {
        Kind::Fit { dataset, .. } => {
            let scale = match dataset {
                PaperDataset::Spatial3d => sizes.spatial_scale,
                _ => sizes.kdd_scale,
            };
            let ld = dataset.generate(scale, STRUCTURE_SEED);
            datasets::io::write_csv(dir.join(POINTS), &ld.data, Some(&ld.labels))
                .map_err(|e| format!("writing {POINTS}: {e}"))
        }
        Kind::Serve => {
            let ld = PaperDataset::Spatial3d.generate(sizes.serve_scale, STRUCTURE_SEED);
            serve_inputs(&base_model(&ld.data, SERVE_K), &ld, sizes, seed, dir)
        }
    }
}

/// Writes what a serve cycle starts from: the base `model` of `ld`, and
/// the query, insert and delete streams drawn around its points. Which
/// points those are is pinned: the write stream decides what the compaction
/// refits, and with it `dist_evals_m` and `shuffle_mb`; the queried points
/// decide `ari`, which moved 1.1% between ten seeds when each seed asked
/// about another 5 000 of the 37 000 points (the model's few wrong labels
/// sit together). The seed draws where around its point each near query
/// lands and where the far ones lie.
fn serve_inputs(
    model: &ClusterModel,
    ld: &LabeledDataset,
    sizes: &Sizes,
    seed: u64,
    dir: &Path,
) -> Result<(), String> {
    let csv = |name: &str, ds: &Dataset, labels: &[u32]| {
        datasets::io::write_csv(dir.join(name), ds, Some(labels))
            .map_err(|e| format!("writing {name}: {e}"))
    };
    let base = &ld.data;
    let path = dir.join(MODEL);
    model
        .save(path.to_str().ok_or("non-UTF-8 path")?)
        .map_err(|e| format!("saving base model: {e}"))?;

    let mut pinned = Rng::new(STRUCTURE_SEED ^ 0x5e7e);
    let mut drawn = Rng::new(seed ^ 0x5e7e);
    let n = base.len();
    let dim = base.dim();
    let (_, hi) = base.bounds().expect("non-empty base");
    let hot: Vec<(Vec<f64>, u32)> = (0..sizes.hot_set)
        .map(|_| {
            let id = pinned.below(n);
            (jittered(base.point(id as u32), &mut pinned), ld.labels[id])
        })
        .collect();
    let mut queries = Dataset::with_capacity(dim, sizes.queries());
    let mut truth = Vec::with_capacity(sizes.queries());
    for row in 0..sizes.queries() {
        let (q, town) = match query_class(row) {
            Class::Near => {
                let id = pinned.below(n);
                (jittered(base.point(id as u32), &mut drawn), ld.labels[id])
            }
            Class::Hot => hot[pinned.below(hot.len())].clone(),
            Class::Far => (
                hi.iter()
                    .map(|h| h + drawn.uniform(500.0, 1500.0))
                    .collect(),
                0,
            ),
            Class::Twin => {
                let id = pinned.below(n);
                (base.point(id as u32).to_vec(), ld.labels[id])
            }
        };
        queries.push(&q);
        truth.push(town);
    }
    csv(QUERIES, &queries, &truth)?;

    let rng = &mut pinned;
    let n_inserts = sizes.batches * sizes.inserts_per_batch;
    let mut inserts = Dataset::with_capacity(dim, n_inserts);
    let mut towns = Vec::with_capacity(n_inserts);
    for _ in 0..n_inserts {
        let id = rng.below(n);
        inserts.push(&jittered(base.point(id as u32), rng));
        towns.push(ld.labels[id]);
    }
    csv(INSERTS, &inserts, &towns)?;

    let deletes = choose(n, sizes.batches * sizes.deletes_per_batch, rng);
    let text: String = deletes.iter().map(|k| format!("{k}\n")).collect();
    std::fs::write(dir.join(DELETES), text).map_err(|e| format!("writing {DELETES}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choose_is_exact_ascending_and_seeded() {
        let a = choose(1000, 100, &mut Rng::new(3));
        assert_eq!(a.len(), 100);
        assert!(a.windows(2).all(|w| w[0] < w[1]) && a[99] < 1000);
        assert_eq!(a, choose(1000, 100, &mut Rng::new(3)));
        assert_ne!(a, choose(1000, 100, &mut Rng::new(4)));
        assert_eq!(choose(5, 5, &mut Rng::new(1)), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn query_mix_is_70_10_15_5() {
        let count = |c| (0..2000).filter(|&i| query_class(i) == c).count();
        assert_eq!(
            [Class::Near, Class::Hot, Class::Far, Class::Twin].map(count),
            [1400, 200, 300, 100]
        );
    }
}
