//! Ablation of LSH-DDP's design parameters (Criterion companion to
//! Figure 12): layouts `M`, group size `pi`, and the accuracy target's
//! effect on the slot width and therefore on local-partition work.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datasets::generators::blob_grid;
use ddp::prelude::*;
use std::hint::black_box;

fn bench_m_sweep(c: &mut Criterion) {
    let ld = blob_grid(5, 5, 20, 25.0, 0.6, 7);
    let ds = ld.data;
    let dc = 0.8;
    let mut g = c.benchmark_group("ablation_M");
    g.sample_size(10);
    for m in [1usize, 5, 10, 20] {
        g.bench_with_input(BenchmarkId::from_parameter(m), &ds, |b, ds| {
            let pipe = LshDdp::with_accuracy(0.99, m, 3, dc, 42).unwrap();
            b.iter(|| black_box(pipe.run(ds, dc)))
        });
    }
    g.finish();
}

fn bench_pi_sweep(c: &mut Criterion) {
    let ld = blob_grid(5, 5, 20, 25.0, 0.6, 7);
    let ds = ld.data;
    let dc = 0.8;
    let mut g = c.benchmark_group("ablation_pi");
    g.sample_size(10);
    for pi in [1usize, 3, 10, 20] {
        g.bench_with_input(BenchmarkId::from_parameter(pi), &ds, |b, ds| {
            let pipe = LshDdp::with_accuracy(0.99, 10, pi, dc, 42).unwrap();
            b.iter(|| black_box(pipe.run(ds, dc)))
        });
    }
    g.finish();
}

fn bench_accuracy_sweep(c: &mut Criterion) {
    let ld = blob_grid(5, 5, 20, 25.0, 0.6, 7);
    let ds = ld.data;
    let dc = 0.8;
    let mut g = c.benchmark_group("ablation_accuracy");
    g.sample_size(10);
    for a in [50usize, 90, 99] {
        g.bench_with_input(BenchmarkId::from_parameter(a), &ds, |b, ds| {
            let pipe = LshDdp::with_accuracy(a as f64 / 100.0, 10, 3, dc, 42).unwrap();
            b.iter(|| black_box(pipe.run(ds, dc)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_m_sweep, bench_pi_sweep, bench_accuracy_sweep);
criterion_main!(benches);
