//! End-to-end pipeline benchmarks: sequential DP vs Basic-DDP vs LSH-DDP
//! vs EDDPC at growing N — the Criterion companion to Figure 10's
//! runtime panel (who wins and how the gap scales).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use datasets::generators::blob_grid;
use ddp::prelude::*;
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

criterion_group!(benches, bench_pipelines);
criterion_main!(benches);
