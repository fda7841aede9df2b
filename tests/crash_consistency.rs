//! Crash-consistency drills over the durability tier (see
//! `ingest::drill`): every I/O operation of the fit → ingest → compact
//! → save → retire workflow is killed in turn with a simulated power
//! cut (clean and torn), plus randomized fault-mix plans, and each
//! outcome must recover to the tier's invariants — acknowledged WAL
//! batches replay exactly, artifacts are wholly old or wholly new,
//! interrupted retirement is all-or-nothing, stale logs are refused,
//! and spill segments never feed a corrupt frame downstream.

use ingest::drill;
use mapreduce::io_shim::{is_crash, FaultFs};
use mapreduce::spill::{scan_frames, SegmentWriter};
use mapreduce::FaultPlan;
use serve::ClusterModel;
use std::path::PathBuf;

fn root(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("crash-consistency-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn base_model() -> ClusterModel {
    drill::fit_base_model(&drill::drill_dataset(20, 41), 41)
}

#[test]
fn every_enumerated_power_cut_recovers_to_the_invariants() {
    let base = base_model();
    let dir = root("enumerate");
    let report = drill::enumerate_crash_points(&dir, &base, 400);
    std::fs::remove_dir_all(&dir).ok();

    println!(
        "crash drill: {} io ops, {} cuts fired, {} vacuous, {} retries absorbed",
        report.io_ops, report.crash_attempts, report.vacuous, report.retries
    );
    assert!(
        report.io_ops >= 30,
        "the workflow should gate a substantial number of I/O ops, saw {}",
        report.io_ops
    );
    assert!(
        report.crash_attempts >= 100,
        "the drill must actually fire >= 100 distinct power cuts, fired {}",
        report.crash_attempts
    );
    assert_eq!(
        report.violations,
        Vec::<String>::new(),
        "every crash point must recover to the durability invariants"
    );
}

#[test]
fn random_fault_mixes_recover_to_the_invariants() {
    let base = base_model();
    let dir = root("random");
    let report = drill::random_fault_drill(&dir, &base, 0..24);
    std::fs::remove_dir_all(&dir).ok();

    println!(
        "random drill: {} attempts faulted, {} injected, {} retries, {} give-ups",
        report.fault_attempts, report.injected, report.retries, report.give_ups
    );
    assert!(
        report.fault_attempts >= 12,
        "the per-mille mixes should fault most attempts, faulted {}",
        report.fault_attempts
    );
    assert!(
        report.retries > 0,
        "transient EIO should be absorbed by the retry policy somewhere"
    );
    assert_eq!(report.violations, Vec::<String>::new());
}

#[test]
fn killed_checkpointed_compaction_resumes_bit_identically_under_io_faults() {
    let base = base_model();
    drill::checkpoint_resume_drill(&base).expect("resume drill");
}

/// Spill segments are all-or-nothing under power cuts: nothing is
/// acknowledged durable before `finish`'s fsync, so a cut anywhere in
/// the segment's life leaves a file whose scan yields an intact
/// (possibly empty) prefix of the written frames — never a corrupt one.
#[test]
fn spill_segment_power_cuts_never_yield_a_corrupt_frame() {
    let dir = root("segments");
    let frames: Vec<Vec<u64>> = (0..6)
        .map(|f| (0..40).map(|i| f * 1000 + i).collect())
        .collect();

    // Counting pass.
    let count_fs = FaultFs::with_plan(FaultPlan {
        crash_at: Some(u64::MAX),
        ..Default::default()
    });
    let path = dir.join("count.seg");
    let mut w = SegmentWriter::create_with(path.clone(), count_fs.clone()).unwrap();
    for frame in &frames {
        w.write_frame(frame).unwrap();
    }
    // Hold the finished segment: dropping it deletes its file.
    let _count_seg = w.finish().unwrap();
    let n = count_fs.ops();
    assert!(n >= frames.len() as u64);

    let mut cuts = 0;
    for op in 0..n {
        for torn in [false, true] {
            let path = dir.join(format!("cut{op}-{torn}.seg"));
            let fs = FaultFs::with_plan(FaultPlan {
                crash_at: Some(op),
                crash_torn: torn,
                ..Default::default()
            });
            let mut written = 0usize;
            let outcome = (|| {
                let mut w = SegmentWriter::create_with(path.clone(), fs.clone())?;
                for frame in &frames {
                    w.write_frame(frame)?;
                    written += 1;
                }
                w.finish()
            })();
            if let Err(e) = &outcome {
                assert!(is_crash(e), "only the injected cut may fail this loop: {e}");
                cuts += 1;
            }
            if path.exists() {
                let scan = scan_frames::<u64>(&path).unwrap();
                assert!(
                    scan.frames.len() <= written,
                    "recovery returned more frames than were written"
                );
                for (i, frame) in scan.frames.iter().enumerate() {
                    assert_eq!(frame, &frames[i], "recovered frame {i} is corrupt");
                }
            }
        }
    }
    assert!(cuts > 0, "the sweep must have fired actual cuts");
    std::fs::remove_dir_all(&dir).ok();
}
