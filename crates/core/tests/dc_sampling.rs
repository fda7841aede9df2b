//! The `d_c` preprocessing job against the reducer body it replaced: one
//! `sqrt` per pair, every distance kept, the nearest rank selected among
//! all of them. Every point is sampled, so the reducer sees the whole
//! data set in id order; sizes fall on both sides of the job's pair cap
//! (2^17 pairs: all pairs up to 512 points, a seeded draw above).

use ddp::common::{dc_sampling_job, sample_hash, PipelineConfig};
use dp_core::distance::euclidean;
use dp_core::{Dataset, DistanceTracker};
use proptest::prelude::*;

const PAIR_CAP: usize = 1 << 17;
const DIMS: [usize; 4] = [1, 4, 17, 74];
const PERCENTILES: [f64; 4] = [1e-9, 0.02, 0.5, 1.0];

fn quantile_in_place(values: &mut [f64], t: f64) -> f64 {
    let len = values.len();
    let rank = ((t * len as f64).round() as usize).clamp(1, len) - 1;
    let (_, v, _) =
        values.select_nth_unstable_by(rank, |a, b| a.partial_cmp(b).expect("NaN distance"));
    *v
}

fn reducer_by_definition(ds: &Dataset, t: f64, seed: u64) -> f64 {
    let n = ds.len();
    let row = |i: usize| ds.point(i as u32);
    let mut dists = Vec::new();
    if n * (n - 1) / 2 <= PAIR_CAP {
        for i in 0..n {
            for j in (i + 1)..n {
                dists.push(euclidean(row(i), row(j)));
            }
        }
    } else {
        let mut counter = 0u32;
        let mut draw = || {
            counter += 1;
            (sample_hash(counter, seed) % n as u64) as usize
        };
        while dists.len() < PAIR_CAP {
            let (i, j) = (draw(), draw());
            if i != j {
                dists.push(euclidean(row(i), row(j)));
            }
        }
    }
    quantile_in_place(&mut dists, t)
}

/// `n` rows, a third of them duplicates, on a grid fine enough that
/// neighbouring ranks rarely tie.
fn rows(seed: u64, n: usize, dim: usize) -> Dataset {
    let distinct = (2 * n / 3).max(1) as u64;
    let flat = (0..n)
        .flat_map(|i| {
            let r = sample_hash(i as u32, seed) % distinct;
            (0..dim).map(move |d| (sample_hash(d as u32, r ^ seed) % 4096) as f64 / 1024.0)
        })
        .collect();
    Dataset::from_flat(dim, flat)
}

fn job(ds: &Dataset, t: f64, seed: u64) -> (f64, u64) {
    let tracker = DistanceTracker::new();
    let cfg = PipelineConfig {
        map_tasks: 3,
        reduce_tasks: 2,
        ..Default::default()
    };
    let (dc, _) = dc_sampling_job(ds, t, usize::MAX, seed, &cfg, &tracker);
    (dc, tracker.total())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn job_matches_the_definition_on_both_sides_of_the_cap(
        seed in any::<u64>(), dim_ix in 0usize..4, t_ix in 0usize..4,
        capped in any::<bool>(), small in 2usize..=512, large in 513usize..700,
    ) {
        let n = if capped { large } else { small };
        let ds = rows(seed, n, DIMS[dim_ix]);
        let t = PERCENTILES[t_ix];
        let (dc, evals) = job(&ds, t, seed);
        let want = reducer_by_definition(&ds, t, seed);
        prop_assert_eq!(dc.to_bits(), want.to_bits(), "n {}: {} vs {}", n, dc, want);
        prop_assert_eq!(evals as usize, (n * (n - 1) / 2).min(PAIR_CAP));
    }
}

#[test]
fn cap_boundary_sizes_match_the_definition() {
    for n in [512, 513] {
        let ds = rows(5, n, 3);
        let (dc, _) = job(&ds, 0.02, 5);
        assert_eq!(
            dc.to_bits(),
            reducer_by_definition(&ds, 0.02, 5).to_bits(),
            "n {n}"
        );
    }
}
