//! Model-based testing of the MapReduce engine: for arbitrary inputs and
//! task counts, the engine must produce exactly what a naive sequential
//! interpretation of MapReduce semantics produces.

use mapreduce::task::{FnMapper, FnReducer};
use mapreduce::{Emitter, JobBuilder, JobConfig, Merge};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The reference model: group-by-key, apply reduce per key (value order
/// within a key = input order).
fn reference_sum(input: &[(u32, u32)], buckets: u32) -> BTreeMap<u32, u64> {
    let mut grouped: BTreeMap<u32, u64> = BTreeMap::new();
    for &(k, v) in input {
        *grouped.entry(k % buckets).or_insert(0) += v as u64;
    }
    grouped
}

fn reference_concat(input: &[(u32, u32)], buckets: u32) -> BTreeMap<u32, Vec<u32>> {
    let mut grouped: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for &(k, v) in input {
        grouped.entry(k % buckets).or_default().push(v);
    }
    grouped
}

fn run_sum(
    input: Vec<(u32, u32)>,
    buckets: u32,
    map_tasks: usize,
    reduce_tasks: usize,
    with_combiner: bool,
) -> BTreeMap<u32, u64> {
    struct Sum;
    impl Merge for Sum {
        type Value = u64;
        fn merge(&self, acc: &mut u64, v: u64) {
            *acc += v;
        }
    }
    let m = FnMapper::new(move |k: u32, v: u32, out: &mut Emitter<u32, u64>| {
        out.emit(k % buckets, v as u64);
    });
    let r = FnReducer::new(|k: &u32, vs: Vec<u64>, out: &mut Emitter<u32, u64>| {
        out.emit(*k, vs.into_iter().sum());
    });
    let b = JobBuilder::new("sum", m, r).config(JobConfig {
        map_tasks,
        reduce_tasks,
        chaos: None,
    });
    let b = if with_combiner { b.combiner(Sum) } else { b };
    let (out, _) = b.run(input);
    out.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sum aggregation matches the reference for every parallelism
    /// configuration, with and without combiner.
    #[test]
    fn sum_matches_reference(
        input in proptest::collection::vec((any::<u32>(), 0u32..1000), 0..200),
        buckets in 1u32..20,
        map_tasks in 1usize..9,
        reduce_tasks in 1usize..9,
        with_combiner in any::<bool>(),
    ) {
        let expected = reference_sum(&input, buckets);
        let got = run_sum(input, buckets, map_tasks, reduce_tasks, with_combiner);
        prop_assert_eq!(got, expected);
    }

    /// Value ordering within a key follows input order regardless of the
    /// task counts (the stable-shuffle guarantee the pipelines rely on).
    #[test]
    fn value_order_is_stable(
        input in proptest::collection::vec((0u32..8, any::<u32>()), 0..150),
        map_tasks in 1usize..6,
        reduce_tasks in 1usize..6,
    ) {
        let buckets = 4;
        let expected = reference_concat(&input, buckets);
        let m = FnMapper::new(move |k: u32, v: u32, out: &mut Emitter<u32, u32>| {
            out.emit(k % buckets, v);
        });
        let r = FnReducer::new(|k: &u32, vs: Vec<u32>, out: &mut Emitter<u32, Vec<u32>>| {
            out.emit(*k, vs);
        });
        let (out, _) = JobBuilder::new("concat", m, r)
            .config(JobConfig { map_tasks, reduce_tasks, chaos: None })
            .run(input);
        let got: BTreeMap<u32, Vec<u32>> = out.into_iter().collect();
        prop_assert_eq!(got, expected);
    }

    /// The wire codec round-trips arbitrary pipeline-shaped records and
    /// its length always equals the ShuffleSize estimate.
    #[test]
    fn wire_round_trips_point_records(
        id in any::<u32>(),
        coords in proptest::collection::vec(any::<f64>().prop_filter("finite", |x| x.is_finite()), 0..80),
    ) {
        use mapreduce::{decode, encode, ShuffleSize};
        let record = (id, coords);
        let bytes = encode(&record);
        prop_assert_eq!(bytes.len() as u64, record.shuffle_bytes());
        let back: (u32, Vec<f64>) = decode(&bytes).expect("decode");
        prop_assert_eq!(back, record);
    }

    /// Wire codec on delta partials (the other hot shuffled type).
    #[test]
    fn wire_round_trips_delta_partials(
        d in any::<f64>().prop_filter("finite", |x| x.is_finite()),
        u in any::<u32>(),
        maxd in any::<f64>().prop_filter("finite", |x| x.is_finite()),
    ) {
        use mapreduce::{decode, encode};
        let v = (d, u, maxd);
        let back: (f64, u32, f64) = decode(&encode(&v)).expect("decode");
        prop_assert_eq!(back, v);
    }

    /// Metric identities: map_output >= combine_output = shuffle records;
    /// reduce groups = distinct keys; empty input yields all-zero
    /// counters.
    #[test]
    fn metric_identities(
        input in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..150),
        map_tasks in 1usize..6,
        reduce_tasks in 1usize..6,
    ) {
        let buckets = 6;
        let distinct: std::collections::HashSet<u32> =
            input.iter().map(|&(k, _)| k % buckets).collect();
        let m = FnMapper::new(move |k: u32, v: u32, out: &mut Emitter<u32, u64>| {
            out.emit(k % buckets, v as u64);
        });
        let r = FnReducer::new(|k: &u32, vs: Vec<u64>, out: &mut Emitter<u32, u64>| {
            out.emit(*k, vs.len() as u64);
        });
        let (_, metrics) = JobBuilder::new("ids", m, r)
            .config(JobConfig { map_tasks, reduce_tasks, chaos: None })
            .run(input.clone());
        prop_assert_eq!(metrics.map_input_records, input.len() as u64);
        prop_assert_eq!(metrics.map_output_records, input.len() as u64);
        prop_assert_eq!(metrics.shuffle_records, metrics.combine_output_records);
        prop_assert_eq!(metrics.reduce_input_groups, distinct.len() as u64);
        prop_assert_eq!(metrics.reduce_output_records, distinct.len() as u64);
        // Shuffle bytes: (4 key + 8 value) per record.
        prop_assert_eq!(metrics.shuffle_bytes, 12 * input.len() as u64);
    }
}
