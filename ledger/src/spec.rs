//! The benchmark's definition as data: workloads, sizes, protocol
//! constants, metrics, bounds. `BENCHMARK.json` repeats the workload and
//! metric tables; a test keeps the two equal.

use datasets::PaperDataset;

/// Pinned, not taken from `--seed`: the data set of every workload, the LSH
/// layouts, the `d_c` pair sampler, and which points `serve-ingest` writes
/// and asks about. `--seed` draws the request streams: the order of the
/// relabel sweep, where around its point each query lands, and the far
/// queries. What a fit or a compaction computes is therefore the same
/// under every seed, and the paper's counts (`dist_evals_m`, `shuffle_mb`)
/// can carry the bound of a count. Measured over ten seeds: a re-drawn data
/// set moves `dist_evals_m` by 6% and `ari` by 12%, a seeded half of a
/// pinned one by 3.3% and 0.6%, the same points in a seeded row order still
/// by 0.2-0.6% and 0.1% (the `d_c` sampler draws pairs by row number).
pub const STRUCTURE_SEED: u64 = 7;

/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 7;
/// Default `--seconds`: seven measured cycles.
pub const DEFAULT_SECONDS: f64 = 35.0;
/// `run_seconds` in `BENCHMARK.json`, the `--seconds` of the benchmark
/// contract's driver: five measured cycles, all that its 92 runs in
/// 3420 s leave room for.
pub const RUN_SECONDS: u64 = 25;
/// Nominal length of one cycle at full size. A run measures
/// `--seconds / CYCLE_S` cycles (at least [`MIN_CYCLES`]) after one
/// discarded warm-up: a count fixed by the command line, not by how fast
/// the commit under test happens to be.
pub const CYCLE_S: f64 = 5.0;
pub const MIN_CYCLES: usize = 3;
/// A timing's reported value is the mean of its `BEST_OF` best cycles.
pub const BEST_OF: usize = 3;
/// Baseline, traced and two-thread cycles of the traced run, each.
pub const TRACED_CYCLES: usize = 2;

/// LSH-DDP parameters of every fit: `A = 0.99`, `M = 10`, `pi = 3`.
pub const ACCURACY: f64 = 0.99;
pub const LAYOUTS: usize = 10;
pub const PI: usize = 3;
/// `estimate_dc_sampled(t, samples)`: 5M pairs is a steady `d_c` and, at
/// 4-D, the 0.1 s of real work a `setup_s` sample needs to repeat.
pub const DC_PERCENTILE: f64 = 0.02;
pub const DC_SAMPLES: usize = 5_000_000;
/// Task counts are fixed so that shuffle bytes do not follow `nproc`.
pub const MAP_TASKS: usize = 8;
pub const REDUCE_TASKS: usize = 8;
/// `fit-budget`'s governor budget: two fifths of its 5.3 MB dataset.
pub const MEM_BUDGET: u64 = 2 << 20;
/// Values of `k'` the relabel sweep walks through, starting at 2.
pub const RELABEL_KS: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Fit one dataset and relabel it; `budget` turns the governor on.
    Fit {
        dataset: PaperDataset,
        k: usize,
        budget: Option<u64>,
        /// Relabels per cycle, the `op` samples: at least 64.
        relabels: usize,
    },
    /// Reads beside writes on one model lineage.
    Serve,
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    /// Directory under `target/ledger/` holding the inputs, named after the
    /// workload that owns them. `fit-budget` borrows `fit-wide`'s: the two
    /// read the same bytes, and every run checks that they give the same.
    pub input_dir: &'static str,
}

impl Workload {
    /// Whether a per-layer metric measured `on` those workloads is measured
    /// on this one; elsewhere it reads 0.
    pub fn measures(&self, on: On) -> bool {
        match (on, self.kind) {
            (On::All, _) => true,
            (On::Fit, Kind::Fit { .. }) => true,
            (On::Budget, Kind::Fit { budget, .. }) => budget.is_some(),
            (On::Serve, Kind::Serve) => true,
            _ => false,
        }
    }
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fit-spatial",
        why: "76k x 4-D road-network analog, resident: index kernels and per-record map/shuffle cost carry it; the distance itself is 4 multiplies",
        kind: Kind::Fit {
            dataset: PaperDataset::Spatial3d,
            k: 30,
            budget: None,
            relabels: 64,
        },
        input_dir: "fit-spatial",
    },
    Workload {
        name: "fit-wide",
        why: "9k x 74-D mixture, resident: box pruning is weak, so the kd-tree kernels over the distance primitive do nearly all the work",
        kind: Kind::Fit {
            dataset: PaperDataset::Kdd,
            k: 24,
            budget: None,
            relabels: 128,
        },
        input_dir: "fit-wide",
    },
    Workload {
        name: "fit-budget",
        why: "fit-wide's exact input under a 2 MiB memory budget: same answer through the spill tier and governor; fit-wide must not move with it",
        kind: Kind::Fit {
            dataset: PaperDataset::Kdd,
            k: 24,
            budget: Some(MEM_BUDGET),
            relabels: 128,
        },
        input_dir: "fit-wide",
    },
    Workload {
        name: "serve-ingest",
        why: "closed-loop reads (near, cached, far, twin) beside WAL-logged write batches, hot swaps and a compaction on one model lineage",
        kind: Kind::Serve,
        input_dir: "serve-ingest",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Input sizes. A `*_scale` is the `PaperDataset::generate` scale of the
/// pinned data set.
#[derive(Debug, Clone, Copy, serde::Serialize)]
pub struct Sizes {
    pub spatial_scale: f64,
    pub kdd_scale: f64,
    pub serve_scale: f64,
    /// Cache warm-up queries, part of `setup_s`.
    pub warm_reads: usize,
    /// Timed reads of the read phase.
    pub reads: usize,
    pub batches: usize,
    pub inserts_per_batch: usize,
    pub deletes_per_batch: usize,
    /// Timed reads after each swap, against the cold version-keyed cache.
    pub reads_per_swap: usize,
    /// Distinct points of the repeated "hot" query class: each is re-touched
    /// every ~640 reads, well inside the default 4096-entry LRU.
    pub hot_set: usize,
}

impl Sizes {
    /// Every `job_s` sample at least 3 s, every `setup_s` sample at least
    /// 0.1 s, 5 000 timed reads on `serve-ingest`.
    pub const FULL: Sizes = Sizes {
        spatial_scale: 0.175,
        kdd_scale: 0.062,
        serve_scale: 0.086,
        warm_reads: 1_000,
        reads: 3_000,
        batches: 16,
        inserts_per_batch: 64,
        deletes_per_batch: 16,
        reads_per_swap: 125,
        hot_set: 64,
    };
    /// Every cycle under 2 s; the tests run these.
    pub const SMOKE: Sizes = Sizes {
        spatial_scale: 0.015,
        kdd_scale: 0.015,
        serve_scale: 0.01,
        warm_reads: 500,
        reads: 2_000,
        batches: 4,
        inserts_per_batch: 16,
        deletes_per_batch: 4,
        reads_per_swap: 100,
        hot_set: 64,
    };

    pub fn of(smoke: bool) -> Sizes {
        if smoke {
            Sizes::SMOKE
        } else {
            Sizes::FULL
        }
    }

    /// Reads of one serve cycle, warm-up included: the query file's rows.
    pub fn queries(&self) -> usize {
        self.warm_reads + self.reads + self.batches * self.reads_per_swap
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// The workloads whose cycle goes through the layer a per-layer metric
/// describes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum On {
    All,
    /// The three `fit-*` workloads.
    Fit,
    /// `fit-budget` only: the spill tier and the codec under it.
    Budget,
    /// `serve-ingest` only.
    Serve,
}

#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; per-layer metrics have none.
    pub bound: Option<f64>,
    pub on: On,
}

impl Metric {
    /// A count of the program's rather than a measurement: it must repeat
    /// exactly from cycle to cycle and from run to run of one seed.
    pub fn exact(&self) -> bool {
        EXACT.contains(&self.name)
    }

    /// The value a run reports for this metric. A count is the same in
    /// every cycle (checked), so its median is that count. A measurement
    /// is the mean of its [`BEST_OF`] best cycles: the host's noise is
    /// one-sided and comes in bursts of seconds, so the low end repeats
    /// where the median does not, and a mean of three does not hang on
    /// one lucky cycle the way the minimum does.
    pub fn reported(&self, cycles: &[f64]) -> f64 {
        if self.exact() {
            crate::stats::median(cycles)
        } else {
            crate::stats::best_mean(cycles, BEST_OF, self.better == Better::Higher)
        }
    }

    /// Spread of the statistic [`Metric::reported`] is made of, as a share
    /// of it: the distance from the best cycle to the worst one averaged in.
    pub fn spread(&self, cycles: &[f64]) -> f64 {
        if self.exact() {
            return crate::stats::Summary::of(cycles).rel_range();
        }
        let best = crate::stats::best(cycles, BEST_OF, self.better == Better::Higher);
        crate::stats::Summary::of(&best).rel_range()
    }
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        on: On::All,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, on: On) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        on,
    }
}

/// Every workload reports all eight. The bounds are shares of the parent's
/// median, as the benchmark contract compares them between runs of
/// different seeds; see README, "Bounds", for the spreads they were set
/// from.
pub const END_TO_END: [Metric; 8] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("job_s", "s", Better::Lower, 0.25),
    e2e("op_p50_ms", "ms", Better::Lower, 0.25),
    e2e("op_p95_ms", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.05),
    e2e("ari", "ratio", Better::Higher, 0.005),
    e2e("dist_evals_m", "1e6", Better::Lower, 0.001),
    e2e("shuffle_mb", "MB", Better::Lower, 0.001),
];

/// The paper's Fig. 10(b)/(c) axes and accuracy: deterministic for a fixed
/// seed and configuration, and the only metrics a later change may claim as
/// a count.
pub const EXACT: [&str; 3] = ["ari", "dist_evals_m", "shuffle_mb"];

use Better::{Higher, Lower};
use On::{All, Budget, Fit, Serve};

pub const PER_LAYER: [Metric; 70] = [
    layer("datasets.read_csv_s", "s", Lower, All),
    layer("dp-core.dc_estimate_s", "s", Lower, Fit),
    layer("dp-core.pair_d2_ns", "ns", Lower, Fit),
    layer("dp-core.cross_d2_ns", "ns", Lower, Fit),
    layer("dp-core.index_build_s", "s", Lower, Fit),
    layer("dp-core.range_count_s", "s", Lower, Fit),
    layer("dp-core.nearest_denser_s", "s", Lower, Fit),
    layer("dp-core.range_evals", "count", Lower, Fit),
    layer("dp-core.nearest_evals", "count", Lower, Fit),
    layer("dp-core.evals_pruned_frac", "ratio", Higher, All),
    layer("dp-core.select_assign_ms", "ms", Lower, Fit),
    layer("dp-core.update_ms", "ms", Lower, Serve),
    layer("lsh.signatures_s", "s", Lower, Fit),
    layer("lsh.signatures_per_s", "1/s", Higher, Fit),
    layer("lsh.bucket_tables_s", "s", Lower, All),
    layer("lsh.buckets", "count", Lower, All),
    layer("lsh.mean_bucket", "count", Lower, All),
    layer("lsh.max_bucket", "count", Lower, All),
    layer("mapreduce.map_s", "s", Lower, All),
    layer("mapreduce.shuffle_s", "s", Lower, All),
    layer("mapreduce.retain_s", "s", Lower, All),
    layer("mapreduce.reduce_s", "s", Lower, All),
    layer("mapreduce.collect_s", "s", Lower, All),
    layer("mapreduce.unattributed_s", "s", Lower, All),
    layer("mapreduce.shuffle_records", "count", Lower, All),
    layer("mapreduce.shuffle_bytes_saved", "MB", Higher, All),
    layer("mapreduce.reduce_skew", "ratio", Lower, All),
    layer("mapreduce.wire_encode_mb_per_s", "MB/s", Higher, Budget),
    layer("mapreduce.wire_decode_mb_per_s", "MB/s", Higher, Budget),
    layer("mapreduce.spill_write_mb_per_s", "MB/s", Higher, Budget),
    layer("mapreduce.spill_read_mb_per_s", "MB/s", Higher, Budget),
    layer("mapreduce.spill_mb", "MB", Lower, All),
    layer("mapreduce.stall_s", "s", Lower, All),
    layer("mapreduce.stage_peak_heap_mb", "MB", Lower, All),
    layer("mapreduce.engine_job_s", "s", Lower, Fit),
    layer("ddp.rho_local_s", "s", Lower, All),
    layer("ddp.rho_aggregate_s", "s", Lower, All),
    layer("ddp.delta_local_s", "s", Lower, All),
    layer("ddp.delta_aggregate_s", "s", Lower, All),
    layer("ddp.centralized_s", "s", Lower, Fit),
    layer("ddp.unattributed_s", "s", Lower, Fit),
    layer("ddp.sim_5node_s", "s", Lower, All),
    layer("serve.model_load_s", "s", Lower, Serve),
    layer("serve.engine_build_s", "s", Lower, Serve),
    layer("serve.engine_assign_us", "us", Lower, Serve),
    layer("serve.engine_fallback_us", "us", Lower, Serve),
    layer("serve.near_p50_us", "us", Lower, Serve),
    layer("serve.cached_p50_us", "us", Lower, Serve),
    layer("serve.far_p50_us", "us", Lower, Serve),
    layer("serve.post_swap_p50_us", "us", Lower, Serve),
    layer("serve.queue_wait_p50_us", "us", Lower, Serve),
    layer("serve.mean_batch", "count", Higher, Serve),
    layer("serve.cache_hit_frac", "ratio", Higher, Serve),
    layer("serve.fallback_frac", "ratio", Lower, Serve),
    layer("serve.timed_out", "count", Lower, Serve),
    layer("serve.request_p99_ms", "ms", Lower, Serve),
    layer("serve.request_p999_ms", "ms", Lower, Serve),
    layer("serve.swap_ms", "ms", Lower, Serve),
    layer("serve.model_save_s", "s", Lower, Serve),
    layer("ingest.session_open_s", "s", Lower, Serve),
    layer("ingest.replay_s", "s", Lower, Serve),
    layer("ingest.apply_p50_ms", "ms", Lower, Serve),
    layer("ingest.apply_p95_ms", "ms", Lower, Serve),
    layer("ingest.wal_append_ms", "ms", Lower, Serve),
    layer("ingest.wal_bytes", "count", Lower, Serve),
    layer("ingest.publish_ms", "ms", Lower, Serve),
    layer("ingest.compact_s", "s", Lower, Serve),
    layer("ingest.stale_points", "count", Lower, Serve),
    layer("obsv.trace_overhead_frac", "ratio", Lower, All),
    layer("obsv.spans_recorded", "count", Lower, All),
];

pub fn metrics(traced: bool) -> &'static [Metric] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

#[derive(serde::Serialize)]
struct WorkloadRow {
    name: &'static str,
    why: &'static str,
}

#[derive(serde::Serialize)]
struct BoundedRow {
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
}

#[derive(serde::Serialize)]
struct LayerRow {
    name: &'static str,
    unit: &'static str,
    better: &'static str,
}

#[derive(serde::Serialize)]
struct Manifest {
    command: Vec<&'static str>,
    paths: Vec<&'static str>,
    run_seconds: u64,
    workloads: Vec<WorkloadRow>,
    end_to_end: Vec<BoundedRow>,
    per_layer: Vec<LayerRow>,
}

/// The text of `BENCHMARK.json`, from the tables above
/// (`ledger manifest > BENCHMARK.json`).
pub fn manifest() -> String {
    let m = Manifest {
        command: vec![
            "cargo",
            "run",
            "--release",
            "--quiet",
            "--manifest-path",
            "ledger/Cargo.toml",
            "--",
            "run",
        ],
        paths: vec!["ledger"],
        run_seconds: RUN_SECONDS,
        workloads: WORKLOADS
            .iter()
            .map(|w| WorkloadRow {
                name: w.name,
                why: w.why,
            })
            .collect(),
        end_to_end: END_TO_END
            .iter()
            .map(|m| BoundedRow {
                name: m.name,
                unit: m.unit,
                better: m.better.as_str(),
                bound: m.bound.expect("end-to-end metrics are bounded"),
            })
            .collect(),
        per_layer: PER_LAYER
            .iter()
            .map(|m| LayerRow {
                name: m.name,
                unit: m.unit,
                better: m.better.as_str(),
            })
            .collect(),
    };
    serde_json::to_string_pretty(&m).expect("printing JSON cannot fail") + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_the_manifest() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            manifest(),
            "regenerate with `ledger manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_units_and_reasons_meet_the_contract() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            (1..=16).contains(&u.len())
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(unit_ok(m.unit), "{}", m.name);
            names.push(m.name);
        }
        assert!(names.iter().all(|n| name_ok(n)));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for m in &END_TO_END {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()) && PER_LAYER.len() <= 128);
        assert!(END_TO_END[0].name == "setup_s" && END_TO_END[0].unit == "s");
        assert!(EXACT
            .iter()
            .all(|e| END_TO_END.iter().any(|m| m.name == *e)));
    }
}
