//! Shuffle elision retains the producer's post-shuffle partitions for
//! its co-partitioned consumer by sharing them, not by copying them. The
//! producer stage's peak heap with elision on may exceed the elision-off
//! run only by the bucket each running reducer copies while the cache
//! still holds its parts — never by a second copy of the whole shuffle.
//!
//! Heap accounting is process-wide and one-way, so this is the only test
//! in its binary: nothing else may allocate while the peak is measured.

use mapreduce::{
    plan, Driver, Emitter, FnMapper, FnReducer, JobConfig, JobMetrics, Mapper, Reducer, Snapshot,
    Stage,
};

const ROWS: u32 = 1 << 19;
const KEYS: u32 = 4096;
const REDUCE_TASKS: usize = 64;
/// Worker threads the plans run on. The bound scales with the reducers
/// running at once, so the pool size is pinned rather than the host's.
const THREADS: usize = 2;
/// The accounting allocator publishes its total in 64 KiB steps per
/// shard, so a measured peak can lag the true one by up to 1 MiB.
const ACCOUNTING_SLACK: u64 = 1 << 20;

fn by_key() -> impl Mapper<InKey = u32, InValue = u64, OutKey = u32, OutValue = u64> {
    FnMapper::new(|k: u32, v: u64, out: &mut Emitter<u32, u64>| out.emit(k % KEYS, v))
}

fn reducer(
    f: fn(u64, u64) -> u64,
) -> impl Reducer<InKey = u32, InValue = u64, OutKey = u32, OutValue = u64> {
    FnReducer::new(move |k: &u32, vs: Vec<u64>, out: &mut Emitter<u32, u64>| {
        out.emit(*k, vs.into_iter().fold(0, f))
    })
}

/// Runs the producer (sum) and its consumer (max) as two plans over one
/// snapshot on one driver. Returns both outputs, both stages' metrics and
/// the producer's peak heap growth over the heap at its start.
fn run(snap: &Snapshot<u32, u64>, elide: bool) -> (Vec<(u32, u64)>, u64, Vec<JobMetrics>) {
    let config = JobConfig {
        map_tasks: 8,
        reduce_tasks: REDUCE_TASKS,
        chaos: None,
    };
    let mut driver = Driver::new().with_elision(elide);
    let baseline = obsv::alloc::current_bytes();
    let mut out = driver.run_plan(
        plan("sum")
            .snapshot(snap)
            .stage(
                Stage::new("sum", by_key(), reducer(u64::wrapping_add))
                    .config(config)
                    .co_partitioned("by-key"),
            )
            .build(),
    );
    out.extend(
        driver.run_plan(
            plan("max")
                .snapshot(snap)
                .stage(
                    Stage::new("max", by_key(), reducer(u64::max))
                        .config(config)
                        .co_partitioned("by-key"),
                )
                .build(),
        ),
    );
    let history = driver.into_history();
    let growth = history[0].peak_resident_bytes.saturating_sub(baseline);
    (out, growth, history)
}

#[test]
fn elision_retains_the_producers_partitions_without_copying_them() {
    // The pool reads its size once, on first use: pin it before then.
    std::env::set_var("LSHDDP_THREADS", THREADS.to_string());
    assert_eq!(
        rayon::current_num_threads(),
        THREADS,
        "the worker pool started before its size was pinned"
    );
    obsv::alloc::enable_accounting();
    let snap = Snapshot::new(
        (0..ROWS)
            .map(|i| (i, u64::from(i).wrapping_mul(0x9e37_79b9)))
            .collect(),
    );

    let (want, off, plain) = run(&snap, false);
    let (got, on, elided) = run(&snap, true);
    assert_eq!(got, want, "elision changed the output");
    assert_eq!(elided[1].shuffle_bytes_saved, plain[1].shuffle_bytes);

    let record = std::mem::size_of::<(u32, u64)>() as u64;
    let shuffle = plain[0].shuffle_records * record;
    let bucket = plain[0].max_reduce_task_records * record;
    // Each running reducer holds one copied bucket while the cache keeps
    // the parts it was copied from.
    let bound = bucket * THREADS as u64 + ACCOUNTING_SLACK;
    println!(
        "producer peak growth: elision off {off} B, on {on} B; \
         shuffle {shuffle} B, largest bucket {bucket} B, bound +{bound} B"
    );
    assert!(
        bound * 2 <= shuffle,
        "the shuffle is too small for the bound to tell a copy from a share"
    );
    assert!(
        on <= off + bound,
        "elision-on producer peak {on} B exceeds elision-off {off} B + {bound} B: \
         the retained partitions were copied"
    );
}
