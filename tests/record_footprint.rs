//! Resident footprint of LSH-DDP's shuffle: at M = 10 every point is
//! shuffled ten times, and the ten records must share the point's one
//! coordinate row and carry their layout key inline. A mapper that goes
//! back to one row copy per layout adds ~10 x 600 B per 74-D point and
//! trips the bound below.
//!
//! Heap accounting is process-wide and one-way, so this is the only test
//! in its binary: nothing else may allocate while the peak is measured.

use ddp::{LshDdp, LshDdpConfig, PipelineConfig};
use dp_core::Dataset;

const POINTS: usize = 2_000;
const DIM: usize = 74;
const BLOBS: u64 = 8;

/// Eight blobs with centres hashed per `(blob, coordinate)` over
/// `[0, 100)` and a unit jitter hashed per `(point, coordinate)`.
fn blobs() -> Dataset {
    let mut ds = Dataset::new(DIM);
    for i in 0..POINTS as u64 {
        let b = i % BLOBS;
        let row: Vec<f64> = (0..DIM as u64)
            .map(|d| {
                let centre = b
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(d.wrapping_mul(0x517c_c1b7_2722_0a95))
                    >> 17;
                let jitter = i
                    .wrapping_mul(2_654_435_761)
                    .wrapping_add(d.wrapping_mul(40_503))
                    >> 7;
                (centre % 100) as f64 + (jitter % 1000) as f64 / 1000.0
            })
            .collect();
        ds.push(&row);
    }
    ds
}

#[test]
fn m_layouts_share_one_row_per_point() {
    obsv::alloc::enable_accounting();
    let ds = blobs();
    let dc = 3.0;
    let lsh = LshDdp::new(LshDdpConfig {
        params: lsh::LshParams::for_accuracy(0.99, 10, 3, dc).unwrap(),
        seed: 5,
        pipeline: PipelineConfig {
            map_tasks: 4,
            reduce_tasks: 8,
            ..PipelineConfig::default()
        },
        partition_cap: None,
        rho_aggregation: Default::default(),
    });

    let scope = obsv::alloc::scope();
    let baseline = obsv::alloc::current_bytes();
    let report = lsh.run(&ds, dc);
    let growth = scope.peak().saturating_sub(baseline);
    println!("footprint: peak growth {growth} B over {baseline} B during run");

    assert_eq!(
        report.jobs[0].map_output_records,
        10 * POINTS as u64,
        "every point is shuffled once per layout"
    );
    // Measured peak growth, identical in debug and release builds:
    // 19,487,219 B with a `Vec<f64>` row and a heap signature per record;
    // 4,062,467 B with shared rows and inline keys. The bound is 1.5x the
    // latter; one row copy per layout adds ~12 MB on top of it.
    const BOUND: u64 = 6_000_000;
    assert!(
        growth <= BOUND,
        "peak heap growth {growth} B exceeds {BOUND} B: are the M records of a point copying its row again?"
    );
}
