//! Micro-benchmarks of the distance kernels that dominate every pipeline
//! (the paper's cost model counts these as the computational cost).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn gen_points(dim: usize, n: usize) -> Vec<Vec<f64>> {
    // Deterministic pseudo-data; values don't matter for throughput.
    (0..n)
        .map(|i| {
            (0..dim)
                .map(|d| ((i * 31 + d * 17) % 97) as f64 * 0.013)
                .collect()
        })
        .collect()
}

fn bench_euclidean(c: &mut Criterion) {
    let mut g = c.benchmark_group("euclidean");
    // The paper's dimensionalities: 2 (S2), 4 (3Dspatial), 57 (BigCross),
    // 74 (KDD), 300 (Facial).
    for dim in [2usize, 4, 57, 74, 300] {
        let pts = gen_points(dim, 64);
        g.throughput(Throughput::Elements((64 * 64) as u64));
        g.bench_with_input(BenchmarkId::new("full", dim), &pts, |b, pts| {
            b.iter(|| {
                let mut acc = 0.0;
                for a in pts {
                    for q in pts {
                        acc += dp_core::distance::euclidean(a, q);
                    }
                }
                black_box(acc)
            })
        });
        g.bench_with_input(
            BenchmarkId::new("squared_threshold", dim),
            &pts,
            |b, pts| {
                b.iter(|| {
                    let mut count = 0u32;
                    for a in pts {
                        for q in pts {
                            if dp_core::distance::squared_euclidean(a, q) < 0.5 * 0.5 {
                                count += 1;
                            }
                        }
                    }
                    black_box(count)
                })
            },
        );
    }
    g.finish();
}

fn bench_tracker_overhead(c: &mut Criterion) {
    let pts = gen_points(57, 64);
    let tracker = dp_core::DistanceTracker::new();
    let mut g = c.benchmark_group("tracker_overhead");
    g.throughput(Throughput::Elements((64 * 64) as u64));
    g.bench_function("untracked", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for a in &pts {
                for q in &pts {
                    acc += dp_core::distance::euclidean(a, q);
                }
            }
            black_box(acc)
        })
    });
    g.bench_function("tracked", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for a in &pts {
                for q in &pts {
                    acc += tracker.distance(a, q);
                }
            }
            black_box(acc)
        })
    });
    g.finish();
}

/// The `d_c` preprocessing job's kernel: the 2% quantile of 1M sampled
/// pairs, on the ledger's `fit-spatial` (76k x 4-D) and `fit-wide`
/// (9k x 74-D) inputs. Both are larger than L2. The 74-D mixture's pairs
/// mostly pass the quantile's bound within their first few dimensions,
/// where uniform rows would only pass it near the end.
fn bench_dc_estimate(c: &mut Criterion) {
    const PAIRS: usize = 1_000_000;
    let mut g = c.benchmark_group("dc_estimate");
    g.sample_size(10);
    g.throughput(Throughput::Elements(PAIRS as u64));
    for (set, scale) in [
        (datasets::PaperDataset::Spatial3d, 0.175),
        (datasets::PaperDataset::Kdd, 0.062),
    ] {
        let ds = set.generate(scale, 7).data;
        g.bench_with_input(BenchmarkId::new("sampled", ds.dim()), &ds, |b, ds| {
            b.iter(|| black_box(dp_core::cutoff::estimate_dc_sampled(ds, 0.02, PAIRS, 7)))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_euclidean,
    bench_tracker_overhead,
    bench_dc_estimate
);
criterion_main!(benches);
