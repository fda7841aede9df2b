//! End-to-end pipeline benchmarks: sequential DP vs Basic-DDP vs LSH-DDP
//! vs EDDPC at growing N — the Criterion companion to Figure 10's
//! runtime panel (who wins and how the gap scales) — and the centralized
//! step's relabel, the decision-graph interaction, at growing N.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use datasets::generators::blob_grid;
use ddp::prelude::*;
use dp_core::{density_order, DpResult, PointId, NO_UPSLOPE};
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

criterion_group!(benches, bench_pipelines, bench_centralized);
criterion_main!(benches);
