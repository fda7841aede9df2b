//! End-to-end pipeline benchmarks: sequential DP vs Basic-DDP vs LSH-DDP
//! vs EDDPC at growing N — the Criterion companion to Figure 10's
//! runtime panel (who wins and how the gap scales) — the centralized
//! step's relabel, the decision-graph interaction, at growing N, one
//! ingest write batch against a served model, and that model's read path.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use datasets::generators::blob_grid;
use datasets::PaperDataset;
use ddp::prelude::*;
use dp_core::{density_order, DpResult, PointId, NO_UPSLOPE};
use ingest::{DeltaOp, IngestConfig, IngestSession};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;

fn bench_pipelines(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipelines");
    g.sample_size(10);
    for n_per in [10usize, 40] {
        // 5×5 grid of blobs; N = 25 * n_per.
        let ld = blob_grid(5, 5, n_per, 25.0, 0.6, 7);
        let ds = ld.data;
        let n = ds.len();
        let dc = 0.8;
        g.throughput(Throughput::Elements(n as u64));

        g.bench_with_input(BenchmarkId::new("sequential", n), &ds, |b, ds| {
            b.iter(|| black_box(dp_core::compute_exact(ds, dc)))
        });
        g.bench_with_input(BenchmarkId::new("basic_ddp", n), &ds, |b, ds| {
            let pipe = BasicDdp::new(BasicConfig {
                block_size: 100,
                ..Default::default()
            });
            b.iter(|| black_box(pipe.run(ds, dc)))
        });
        g.bench_with_input(BenchmarkId::new("lsh_ddp_a99", n), &ds, |b, ds| {
            let pipe = LshDdp::with_accuracy(0.99, 10, 3, dc, 42).unwrap();
            b.iter(|| black_box(pipe.run(ds, dc)))
        });
        g.bench_with_input(BenchmarkId::new("eddpc", n), &ds, |b, ds| {
            let pipe = Eddpc::new(EddpcConfig::for_size(n, 42));
            b.iter(|| black_box(pipe.run(ds, dc)))
        });
    }
    g.finish();
}

/// A synthetic `n`-point result shaped like a fitted one: densities in
/// `0..64`, every point but the densest linked to one of the 32 points
/// just denser than it (long chains), a few stranded candidates with an
/// infinite delta.
fn synthetic_result(n: usize, seed: u64) -> DpResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let rho: Vec<u32> = (0..n).map(|_| rng.random_range(0..64)).collect();
    let mut order: Vec<PointId> = (0..n as PointId).collect();
    order.sort_by(|&a, &b| density_order(rho[a as usize], a, rho[b as usize], b));
    let mut delta = vec![f64::INFINITY; n];
    let mut upslope = vec![NO_UPSLOPE; n];
    for (rank, &i) in order.iter().enumerate().skip(1) {
        if rng.random_range(0..1000) == 0 {
            continue;
        }
        upslope[i as usize] = order[rank - 1 - rng.random_range(0..rank.min(32))];
        delta[i as usize] = rng.random_range(0.0..1.0);
    }
    DpResult {
        dc: 1.0,
        rho,
        delta,
        upslope,
    }
}

/// One relabel — graph, selection and assignment over a fixed result —
/// as `ledger`'s `fit-*` workloads time it (`DeltaOutliers`), and one by
/// `TopK`, at growing `N`: the cost should grow linearly.
fn bench_centralized(c: &mut Criterion) {
    let mut g = c.benchmark_group("centralized");
    g.sample_size(20);
    let step = CentralizedStep::new(PeakSelection::DeltaOutliers {
        k: 30,
        rho_quantile: 0.25,
    });
    let top_k = CentralizedStep::new(PeakSelection::TopK(30));
    for n in [10_000usize, 100_000, 400_000] {
        let result = synthetic_result(n, 7);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("relabel", n), &result, |b, r| {
            b.iter(|| black_box(step.run(r)))
        });
        g.bench_with_input(BenchmarkId::new("relabel_top_k", n), &result, |b, r| {
            b.iter(|| black_box(top_k.run(r)))
        });
    }
    g.finish();
}

/// The ledger's serve-ingest model: 3dspatial at 0.086 (37,200 × 4-D),
/// fitted by LSH-DDP (`M = 10`) under `DeltaOutliers`, and its selection.
fn served_model() -> (serve::ClusterModel, PeakSelection) {
    let ds = PaperDataset::Spatial3d.generate(0.086, 7).data;
    let dc = dp_core::cutoff::estimate_dc_sampled(&ds, 0.02, 5_000_000, 7);
    let ddp = LshDdp::with_accuracy(0.99, 10, 3, dc, 7).expect("valid LSH params");
    let report = ddp.run(&ds, dc);
    let selection = PeakSelection::DeltaOutliers {
        k: 30,
        rho_quantile: 0.25,
    };
    let outcome = CentralizedStep::new(selection.clone()).run(&report.result);
    let model = serve::ClusterModel::from_run(&ds, &report, &outcome, &ddp.config().params, 7);
    (model, selection)
}

/// One write batch shaped like `batches` of the ledger's serve-ingest
/// batches: 64 jittered copies of `model`'s points and 16 deletes of its
/// keys per batch.
fn write_batch(model: &serve::ClusterModel, batches: usize) -> Vec<DeltaOp> {
    let mut rng = StdRng::seed_from_u64(11);
    let n = model.len();
    let mut ops: Vec<DeltaOp> = (0..64 * batches)
        .map(|_| {
            let p = model.point(rng.random_range(0..n) as PointId);
            DeltaOp::Insert(p.iter().map(|x| x + rng.random_range(-0.5..0.5)).collect())
        })
        .collect();
    let step = n / (16 * batches);
    ops.extend(
        (0..16 * batches).map(|i| DeltaOp::Delete((i * step + rng.random_range(0..step)) as u64)),
    );
    ops
}

/// One write batch applied to a fresh session over the served model
/// (`M = 10`, so every insert scores a union of 10 overlapping buckets).
/// The session is set up outside the timing.
fn bench_ingest(c: &mut Criterion) {
    let mut g = c.benchmark_group("ingest");
    g.sample_size(20);
    let (model, selection) = served_model();
    let ops = write_batch(&model, 1);
    let config = IngestConfig {
        selection,
        ..IngestConfig::default()
    };

    g.throughput(Throughput::Elements(ops.len() as u64));
    g.bench_function(BenchmarkId::new("apply_batch", model.len()), |b| {
        b.iter_batched(
            || (IngestSession::new(&model, config.clone()), ops.clone()),
            |(mut session, ops)| {
                session.apply(ops).expect("a legal batch");
                session
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

/// The read path over the served model: an engine built over a freshly
/// loaded model (its index included), 1,000 near reads (model points
/// jittered by ±0.5 per coordinate), the swap step of a write — a publish
/// after one batch and an engine over the published model — and the same
/// near reads through a model published after all 16 of the ledger's
/// batches (1,024 inserted rows scanned, 256 deleted rows subtracted).
fn bench_serve(c: &mut Criterion) {
    let mut g = c.benchmark_group("serve");
    g.sample_size(20);
    let (model, selection) = served_model();
    let n = model.len();
    let bytes = mapreduce::wire::encode(&model);
    g.bench_function(BenchmarkId::new("engine_build", n), |b| {
        b.iter_batched(
            || mapreduce::wire::decode::<serve::ClusterModel>(&bytes).expect("own bytes"),
            serve::QueryEngine::new,
            BatchSize::LargeInput,
        )
    });

    let engine = serve::QueryEngine::new(model.clone());
    let mut rng = StdRng::seed_from_u64(13);
    let near: Vec<Vec<f64>> = (0..1000)
        .map(|_| {
            let p = model.point(rng.random_range(0..n) as PointId);
            p.iter().map(|x| x + rng.random_range(-0.5..0.5)).collect()
        })
        .collect();
    g.throughput(Throughput::Elements(near.len() as u64));
    g.bench_function(BenchmarkId::new("near_assign", n), |b| {
        b.iter(|| {
            for q in &near {
                black_box(engine.assign(q));
            }
        })
    });

    let config = IngestConfig {
        selection,
        ..IngestConfig::default()
    };
    let mut session = IngestSession::new(&model, config.clone());
    session
        .apply(write_batch(&model, 1))
        .expect("a legal batch");
    g.throughput(Throughput::Elements(1));
    g.bench_function(BenchmarkId::new("publish_engine", n), |b| {
        b.iter(|| black_box(serve::QueryEngine::new(session.publish())))
    });

    let mut session = IngestSession::new(&model, config);
    session
        .apply(write_batch(&model, 16))
        .expect("a legal batch");
    let published = serve::QueryEngine::new(session.publish());
    g.throughput(Throughput::Elements(near.len() as u64));
    g.bench_function(BenchmarkId::new("near_assign_published", n), |b| {
        b.iter(|| {
            for q in &near {
                black_box(published.assign(q));
            }
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_pipelines,
    bench_centralized,
    bench_ingest,
    bench_serve
);
criterion_main!(benches);
