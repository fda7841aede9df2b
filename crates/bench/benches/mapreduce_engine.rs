//! Engine benchmarks: shuffle/grouping throughput and the combiner
//! ablation (the design choice DESIGN.md calls out — map-side combining
//! trades CPU for shuffle volume).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mapreduce::{Emitter, JobBuilder, JobConfig, Mapper, Merge, Reducer};
use std::hint::black_box;

struct ModMapper {
    buckets: u32,
}
impl Mapper for ModMapper {
    type InKey = u32;
    type InValue = u32;
    type OutKey = u32;
    type OutValue = u64;
    fn map(&self, k: u32, v: u32, out: &mut Emitter<u32, u64>) {
        out.emit(k % self.buckets, v as u64);
    }
}

struct SumReducer;
impl Reducer for SumReducer {
    type InKey = u32;
    type InValue = u64;
    type OutKey = u32;
    type OutValue = u64;
    fn reduce(&self, k: &u32, vs: Vec<u64>, out: &mut Emitter<u32, u64>) {
        out.emit(*k, vs.into_iter().sum());
    }
}

struct Sum;
impl Merge for Sum {
    type Value = u64;
    fn merge(&self, acc: &mut u64, v: u64) {
        *acc += v;
    }
}

fn input(n: usize) -> Vec<(u32, u32)> {
    (0..n as u32)
        .map(|i| (i, i.wrapping_mul(2654435761)))
        .collect()
}

fn bench_shuffle(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_shuffle");
    g.sample_size(20);
    for n in [10_000usize, 100_000] {
        let data = input(n);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("sum_no_combiner", n), &data, |b, data| {
            b.iter(|| {
                let (out, _) = JobBuilder::new("bench", ModMapper { buckets: 256 }, SumReducer)
                    .config(JobConfig::uniform(4))
                    .run(data.clone());
                black_box(out)
            })
        });
        g.bench_with_input(
            BenchmarkId::new("sum_with_combiner", n),
            &data,
            |b, data| {
                b.iter(|| {
                    let (out, _) = JobBuilder::new("bench", ModMapper { buckets: 256 }, SumReducer)
                        .combiner(Sum)
                        .config(JobConfig::uniform(4))
                        .run(data.clone());
                    black_box(out)
                })
            },
        );
    }
    g.finish();
}

fn bench_task_counts(c: &mut Criterion) {
    let data = input(100_000);
    let mut g = c.benchmark_group("engine_parallelism");
    g.sample_size(20);
    g.throughput(Throughput::Elements(100_000));
    for tasks in [1usize, 2, 4, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(tasks), &data, |b, data| {
            b.iter(|| {
                let (out, _) = JobBuilder::new("bench", ModMapper { buckets: 4096 }, SumReducer)
                    .config(JobConfig::uniform(tasks))
                    .run(data.clone());
                black_box(out)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_shuffle, bench_task_counts);
criterion_main!(benches);
