//! Bounded-memory streaming, end to end: LSH-DDP over a dataset 4× the
//! memory governor's budget, fed from a spilled input snapshot (the
//! coordinates are never resident as one `Vec`), must reproduce the
//! unbudgeted resident run bit for bit, push real volume through the
//! spill tier, and keep its own heap growth within 1.25× the budget.
//!
//! Heap accounting is process-wide and one-way, so this is the only test
//! in its binary: nothing else may allocate while the peak is measured.

use ddp::{LshDdp, LshDdpConfig, PipelineConfig};
use dp_core::{Dataset, PointId};
use mapreduce::{Snapshot, SpilledRows};
use std::sync::Arc;

const POINTS: usize = 16_384;
const DIM: usize = 64;
const BUDGET: u64 = 2 * 1024 * 1024;
const DC: f64 = 2.0;
const MAP_TASKS: usize = 128;

/// Point `i`, from a hash of its id: the resident dataset and the
/// spilled batches are both built from it, so both hold the same bits.
/// Its 128 blobs cover *contiguous* id ranges, so each map task's points
/// share a blob, its output lands in a handful of partitions, and the
/// per-(task, bucket) spill frame metadata stays negligible.
fn point(i: usize) -> Vec<f64> {
    let (b, i) = ((i / POINTS.div_ceil(128)) as u64, i as u64);
    (0..DIM as u64)
        .map(|d| {
            let hc = b
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(d.wrapping_mul(0x517c_c1b7_2722_0a95))
                >> 17;
            let hj = i
                .wrapping_mul(2654435761)
                .wrapping_add(d.wrapping_mul(40503))
                >> 7;
            (hc % 1000) as f64 / 10.0 + (hj % 2000) as f64 / 1000.0 - 1.0
        })
        .collect()
}

/// Wide slots relative to the blob jitter keep whole blobs together, so
/// each partition is a real fraction of the budget.
fn pipeline(mem_budget: Option<u64>) -> LshDdp {
    LshDdp::new(LshDdpConfig {
        params: lsh::LshParams {
            m: 3,
            pi: 4,
            w: 50.0,
        },
        seed: 42,
        pipeline: PipelineConfig {
            map_tasks: MAP_TASKS,
            reduce_tasks: 256,
            mem_budget,
            ..PipelineConfig::default()
        },
        partition_cap: None,
        rho_aggregation: Default::default(),
    })
}

#[test]
fn spilled_input_four_times_the_budget_matches_the_resident_run() {
    obsv::alloc::enable_accounting();
    assert!((POINTS * DIM * 8) as u64 >= 4 * BUDGET);

    let resident = {
        let mut ds = Dataset::new(DIM);
        for i in 0..POINTS {
            ds.push(&point(i));
        }
        pipeline(None).run(&ds, DC).result
    };

    // One spilled batch per map task: a task then decodes exactly its
    // own frame, never an oversized neighbour's.
    let batch = POINTS / MAP_TASKS;
    let rows = SpilledRows::from_batches(
        "streaming-budget",
        (0..POINTS).step_by(batch).map(|lo| {
            (lo..(lo + batch).min(POINTS))
                .map(|i| (i as PointId, Arc::<[f64]>::from(point(i))))
                .collect::<Vec<_>>()
        }),
    )
    .expect("write spilled input snapshot");
    let snap = Snapshot::from_spilled(rows);

    let baseline = obsv::alloc::current_bytes();
    let budgeted = pipeline(Some(BUDGET)).run_spilled(&snap, DIM, DC);
    let growth = budgeted.peak_resident_bytes().saturating_sub(baseline);
    println!(
        "streaming: spilled {} B, stalled {:.1} ms, peak growth {growth} B ({:.2}x budget)",
        budgeted.spill_bytes(),
        budgeted.backpressure_stall_ns() as f64 / 1e6,
        growth as f64 / BUDGET as f64
    );

    assert_eq!(
        budgeted.result, resident,
        "the budgeted streaming run diverged from the resident run"
    );
    assert!(budgeted.spill_bytes() > 0, "nothing crossed the spill tier");
    assert!(growth > 0, "heap accounting recorded no growth");
    assert!(
        growth * 4 <= BUDGET * 5,
        "peak heap growth {growth} B exceeds 1.25x the {BUDGET} B budget"
    );
}
