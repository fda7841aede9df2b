//! ALICE-style crash-consistency drill over the durability tier.
//!
//! One *attempt* runs the full durable workflow — save a fitted model,
//! open a WAL-backed session, apply batches, compact (spilling and
//! checkpointing through the governed tier), save the compacted
//! artifact, retire the log — with every file operation routed through
//! one [`FaultFs`] domain. The driver first runs the workflow under an
//! armed-but-inert plan to *count* its I/O operations, then replays it
//! once per operation with [`IoFaultPlan::crash_at`] pinned to that op
//! (clean and torn flavors), simulating a power cut at every distinct
//! point of the write path. After each cut, [`verify_attempt`] restarts
//! on clean storage and checks the recovery invariants:
//!
//! * the model artifact is **wholly old or wholly new** (and loadable)
//!   — never a blend, never garbage;
//! * WAL replay returns **exactly the acknowledged batches** (a torn
//!   tail is truncated, an unacknowledged record never resurfaces, an
//!   acknowledged one is never lost), and the truncation itself is
//!   durable across a second reopen;
//! * an interrupted retirement leaves the log **all-or-nothing**;
//! * a restart over a new artifact plus a stale log refuses the
//!   out-of-lineage batches ([`IngestError::WalMismatch`]) instead of
//!   replaying them twice.
//!
//! [`random_fault_drill`] runs the same workflow and verification under
//! seeded per-mille mixes of transient `EIO`, `ENOSPC`, and power cuts;
//! [`checkpoint_resume_drill`] kills a compaction mid-pipeline (under
//! transient storage faults) and checks the resumed refit is
//! bit-identical to a from-scratch one. The root `crash_consistency`
//! test and the bench `crash_consistency` scenario both drive this
//! module.

use crate::batch::{DeltaBatch, DeltaOp};
use crate::wal::Wal;
use crate::{IngestConfig, IngestError, IngestSession};
use ddp::prelude::{CentralizedStep, LshDdp, PeakSelection, PipelineConfig};
use dp_core::Dataset;
use mapreduce::io_shim::{FaultFs, IoFaultPlan};
use mapreduce::wire;
use serve::ClusterModel;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Batches each attempt applies (the later ones mix deletes in).
const ROUNDS: usize = 8;
/// Inserts per batch.
const PER_ROUND: usize = 3;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn jitter(state: &mut u64) -> f64 {
    // Uniform in [-1.5, 1.5] — tight enough that every synthetic point
    // stays unambiguously inside its blob.
    (splitmix(state) as f64 / u64::MAX as f64 - 0.5) * 3.0
}

const CENTERS: [[f64; 2]; 3] = [[-30.0, 0.0], [30.0, 20.0], [0.0, -25.0]];

/// A deterministic 3-blob 2-D dataset (the drill cannot use the
/// `datasets` crate — it is a dev-dependency here).
pub fn drill_dataset(n_per: usize, seed: u64) -> Dataset {
    let mut ds = Dataset::new(2);
    let mut state = seed ^ 0xD1F7_F00D;
    for center in CENTERS {
        for _ in 0..n_per {
            ds.push(&[
                center[0] + jitter(&mut state),
                center[1] + jitter(&mut state),
            ]);
        }
    }
    ds
}

/// Fits the drill's base model end to end (the same recipe the ingest
/// behavioral tests use).
pub fn fit_base_model(ds: &Dataset, seed: u64) -> ClusterModel {
    let dc = dp_core::cutoff::estimate_dc_exact(ds, 0.05);
    let ddp = LshDdp::with_accuracy(0.99, 8, 3, dc, seed).expect("valid LSH params");
    let params = ddp.config().params;
    let report = ddp.run(ds, dc);
    let outcome = CentralizedStep::new(PeakSelection::TopK(3)).run(&report.result);
    ClusterModel::from_run(ds, &report, &outcome, &params, seed)
}

/// The drill's session config: checkpoints on and a zero memory budget,
/// so compaction exercises the checkpoint *and* spill write paths.
fn drill_config() -> IngestConfig {
    IngestConfig {
        pipeline: PipelineConfig {
            map_tasks: 2,
            reduce_tasks: 2,
            checkpoints: true,
            mem_budget: Some(0),
            ..Default::default()
        },
        selection: PeakSelection::TopK(3),
    }
}

/// The ops of batch `round`: [`PER_ROUND`] inserts near a rotating blob
/// center, plus (from round 2 on) a delete of a point inserted two
/// rounds earlier — deterministic, validation-clean, and key-exact.
fn drill_ops(base_len: usize, round: usize) -> Vec<DeltaOp> {
    let mut state = 0x0BA7_C4E5 ^ round as u64;
    let center = CENTERS[round % CENTERS.len()];
    let mut ops: Vec<DeltaOp> = (0..PER_ROUND)
        .map(|_| {
            DeltaOp::Insert(vec![
                center[0] + jitter(&mut state),
                center[1] + jitter(&mut state),
            ])
        })
        .collect();
    if round >= 2 {
        // The first insert of round-2 got key base_len + (round-2)*PER_ROUND.
        ops.push(DeltaOp::Delete((base_len + (round - 2) * PER_ROUND) as u64));
    }
    ops
}

/// Attempts in flight whose panics are *expected* (a simulated power
/// cut killing a compaction). While nonzero, the process panic hook
/// stays quiet — a drill fires hundreds of these and each would
/// otherwise print a full backtrace. Genuine panics elsewhere still
/// fail their tests; only the message printing is suppressed during a
/// drill window.
static EXPECTED_PANICS: AtomicUsize = AtomicUsize::new(0);

fn install_quiet_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if EXPECTED_PANICS.load(Ordering::Relaxed) == 0 {
                prev(info);
            }
        }));
    });
}

/// RAII window in which drill-induced panics print nothing.
struct QuietPanics;

impl QuietPanics {
    fn enter() -> QuietPanics {
        install_quiet_hook();
        EXPECTED_PANICS.fetch_add(1, Ordering::Relaxed);
        QuietPanics
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        EXPECTED_PANICS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// What one attempt acknowledged before its storage failed (or it ran
/// to completion): the ground truth [`verify_attempt`] checks recovery
/// against.
#[derive(Debug)]
pub struct AttemptTrace {
    /// Batches whose `apply` returned `Ok` — the durability contract
    /// covers exactly these.
    pub acked: Vec<DeltaBatch>,
    /// Wire bytes of the base artifact.
    pub v1: Vec<u8>,
    /// Wire bytes of the compacted artifact, if compaction ran.
    pub v2: Option<Vec<u8>>,
    /// The v1 save returned `Ok`.
    pub save1_done: bool,
    /// The v2 save started (its partial effects are on disk).
    pub save2_attempted: bool,
    /// The v2 save returned `Ok`.
    pub save2_done: bool,
    /// WAL retirement started.
    pub retire_attempted: bool,
    /// WAL retirement returned `Ok`.
    pub retire_done: bool,
    /// The simulated power cut fired during this attempt.
    pub crashed: bool,
    /// I/O ops the fault domain gated (0 when unarmed).
    pub ops: u64,
}

/// Runs one full durable workflow under `fs`, recording what was
/// acknowledged. Never panics: every storage failure ends the relevant
/// phase and is captured in the trace.
pub fn run_attempt(dir: &Path, fs: &FaultFs, base: &ClusterModel) -> AttemptTrace {
    let model_path = dir.join("model.bin");
    let wal_path = dir.join("ingest.wal");
    let mut t = AttemptTrace {
        acked: Vec::new(),
        v1: wire::encode(base),
        v2: None,
        save1_done: false,
        save2_attempted: false,
        save2_done: false,
        retire_attempted: false,
        retire_done: false,
        crashed: false,
        ops: 0,
    };

    'attempt: {
        t.save1_done = base.save_with(model_path.to_str().unwrap(), fs).is_ok();
        if fs.crashed() {
            break 'attempt;
        }

        let opened = IngestSession::with_wal_fs(base, drill_config(), &wal_path, fs.clone());
        let Ok((mut session, _)) = opened else {
            break 'attempt;
        };

        for round in 0..ROUNDS {
            match session.apply(drill_ops(base.len(), round)) {
                Ok(applied) => t.acked.push(applied.batch),
                // Give-ups and cuts alike end the ingest phase; the
                // failed batch changed nothing and is not acked.
                Err(_) => break,
            }
        }
        if fs.crashed() {
            break 'attempt;
        }

        // Compaction is compute plus *governed* storage: write failures
        // degrade the spill tier to resident. But a power cut after
        // frames already spilled makes their read-back fail — the
        // process dies with its storage. That panic is this simulation's
        // process death: the attempt ends at the cut and recovery is
        // judged from what's on disk, exactly as for any other crash
        // point. A panic on *healthy* storage is a real bug and is
        // re-raised.
        let quiet = QuietPanics::enter();
        let compacted =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| session.compact()));
        drop(quiet);
        let compaction = match compacted {
            Ok(c) => c,
            Err(payload) => {
                if fs.crashed() {
                    break 'attempt;
                }
                std::panic::resume_unwind(payload);
            }
        };
        t.v2 = Some(wire::encode(&compaction.model));
        t.save2_attempted = true;
        t.save2_done = compaction
            .model
            .save_with(model_path.to_str().unwrap(), fs)
            .is_ok();

        // Lifecycle contract: retire only once the artifact durably
        // holds the batches.
        if t.save2_done {
            t.retire_attempted = true;
            t.retire_done = session.retire_wal().is_ok();
        }
    }

    t.crashed = fs.crashed();
    t.ops = fs.ops();
    t
}

/// Restarts on clean storage and checks every recovery invariant the
/// durability tier promises. Returns human-readable violations (empty =
/// the attempt's outcome is consistent).
pub fn verify_attempt(dir: &Path, t: &AttemptTrace) -> Vec<String> {
    let mut violations = Vec::new();
    let clean = FaultFs::real();
    let model_path = dir.join("model.bin");
    let wal_path = dir.join("ingest.wal");

    // --- Artifact: wholly old, wholly new, or (before the first save
    // committed) absent. Never a blend, never unloadable.
    let artifact = std::fs::read(&model_path).ok();
    let (is_v1, is_v2) = match &artifact {
        Some(bytes) => {
            let is_v1 = bytes == &t.v1;
            let is_v2 = t.v2.as_deref() == Some(&bytes[..]);
            if !is_v1 && !is_v2 {
                violations.push(format!(
                    "artifact is neither wholly v1 nor wholly v2 ({} bytes)",
                    bytes.len()
                ));
            }
            if ClusterModel::load_with(model_path.to_str().unwrap(), &clean).is_err() {
                violations.push("artifact present but unloadable".into());
            }
            (is_v1, is_v2)
        }
        None => {
            if t.save1_done {
                violations.push("save of v1 was acknowledged but the artifact is missing".into());
            }
            (false, false)
        }
    };
    if t.save2_done && !is_v2 {
        violations.push("save of v2 was acknowledged but the artifact is not v2".into());
    }
    if !t.save2_attempted && is_v2 {
        violations.push("artifact is v2 before the v2 save started".into());
    }

    // --- WAL: replay is exactly the acked batches; an interrupted
    // retirement is all-or-nothing; truncation repair is durable.
    if wal_path.exists() {
        match Wal::open_with(&wal_path, clean.clone()) {
            Ok((_, rec)) => {
                if t.retire_done {
                    if !rec.batches.is_empty() {
                        violations.push(format!(
                            "retirement was acknowledged but {} batch(es) resurfaced",
                            rec.batches.len()
                        ));
                    }
                } else if t.retire_attempted {
                    if !(rec.batches.is_empty() || rec.batches == t.acked) {
                        violations.push(format!(
                            "interrupted retirement left a partial log ({} of {} batches)",
                            rec.batches.len(),
                            t.acked.len()
                        ));
                    }
                } else if rec.batches != t.acked {
                    violations.push(format!(
                        "WAL replay returned {} batch(es), {} were acknowledged",
                        rec.batches.len(),
                        t.acked.len()
                    ));
                }
                let survivors = rec.batches.len();
                // The torn-tail truncation must itself be durable: a
                // second reopen sees a clean log with the same batches.
                match Wal::open_with(&wal_path, clean.clone()) {
                    Ok((_, rec2)) => {
                        if rec2.torn_bytes != 0 {
                            violations.push("torn tail was not durably truncated".into());
                        }
                        if rec2.batches.len() != survivors {
                            violations.push("second reopen changed the replayed batches".into());
                        }
                    }
                    Err(e) => violations.push(format!("second WAL reopen failed: {e}")),
                }
            }
            Err(e) => violations.push(format!("WAL recovery failed on clean storage: {e}")),
        }
    } else if !t.acked.is_empty() && !t.retire_done && !t.retire_attempted {
        violations.push("batches were acknowledged but the log vanished".into());
    }

    // --- Session restart over whatever survived: a fresh artifact plus
    // a stale log must be *refused* (the batches are already folded in),
    // an old artifact plus its log must replay every acked batch.
    if artifact.is_some() && (is_v1 || is_v2) {
        let model = ClusterModel::load_with(model_path.to_str().unwrap(), &clean)
            .expect("loadability checked above");
        let survivors = Wal::open_with(&wal_path, clean.clone())
            .map(|(_, rec)| rec.batches.len())
            .unwrap_or(0);
        match IngestSession::with_wal_fs(&model, drill_config(), &wal_path, clean) {
            Ok((_, replayed)) => {
                if is_v2 && survivors > 0 {
                    violations.push(
                        "restart replayed already-compacted batches onto the new artifact".into(),
                    );
                } else if is_v1 && replayed != t.acked.len() {
                    violations.push(format!(
                        "restart over v1 replayed {replayed} of {} acked batches",
                        t.acked.len()
                    ));
                }
            }
            Err(IngestError::WalMismatch { .. }) => {
                if !(is_v2 && survivors > 0) {
                    violations.push("restart refused a log that matches its artifact".into());
                }
            }
            Err(e) => violations.push(format!("restart failed on clean storage: {e}")),
        }
    }

    violations
}

/// Aggregate outcome of a drill sweep.
#[derive(Debug, Default)]
pub struct DrillReport {
    /// I/O ops the counting pass gated — the size of the crash-point space.
    pub io_ops: u64,
    /// Attempts whose simulated power cut actually fired.
    pub crash_attempts: u64,
    /// Attempts that ran to completion (op-order variance moved the
    /// pinned op past the end, or a random plan never rolled a fault).
    pub vacuous: u64,
    /// Attempts where a fault (of any class) was injected.
    pub fault_attempts: u64,
    /// Every invariant violation found, labeled with its attempt.
    pub violations: Vec<String>,
    /// Transient-fault retries absorbed across the sweep.
    pub retries: u64,
    /// Faults injected across the sweep.
    pub injected: u64,
    /// Faults surfaced to callers after exhausting retry policy.
    pub give_ups: u64,
}

fn fresh_dir(root: &Path, name: &str) -> std::path::PathBuf {
    let dir = root.join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create drill dir");
    dir
}

fn absorb(report: &mut DrillReport, fs: &FaultFs, label: &str, dir: &Path, t: &AttemptTrace) {
    if t.crashed {
        report.crash_attempts += 1;
    } else if fs.injected_faults() == 0 {
        report.vacuous += 1;
    }
    if fs.injected_faults() > 0 {
        report.fault_attempts += 1;
    }
    report.retries += fs.retries();
    report.injected += fs.injected_faults();
    report.give_ups += fs.give_ups();
    for v in verify_attempt(dir, t) {
        report.violations.push(format!("{label}: {v}"));
    }
}

/// Enumerates the workflow's crash points: one counting pass, then one
/// attempt per selected op index with a power cut pinned there,
/// alternating clean and torn flavors (both flavors per point when the
/// budget of `max_runs` allows). Every attempt is verified; directories
/// are removed as the sweep goes so disk stays bounded.
pub fn enumerate_crash_points(root: &Path, base: &ClusterModel, max_runs: usize) -> DrillReport {
    let mut report = DrillReport::default();

    // Counting pass: armed (so ops are counted) but the pinned op is
    // unreachable, so nothing fires.
    let count_fs = FaultFs::with_plan(IoFaultPlan {
        crash_at: Some(u64::MAX),
        ..Default::default()
    });
    let dir = fresh_dir(root, "count");
    let t = run_attempt(&dir, &count_fs, base);
    report.io_ops = t.ops;
    for v in verify_attempt(&dir, &t) {
        report.violations.push(format!("counting pass: {v}"));
    }
    std::fs::remove_dir_all(&dir).ok();

    let n = report.io_ops as usize;
    let both_flavors = n * 2 <= max_runs;
    let stride = if both_flavors {
        1
    } else {
        (2 * n).div_ceil(max_runs).max(1)
    };
    for (i, op) in (0..n).step_by(stride).enumerate() {
        let flavors: &[bool] = if both_flavors {
            &[false, true]
        } else if i % 2 == 0 {
            &[false]
        } else {
            &[true]
        };
        for &torn in flavors {
            let tag = if torn { "torn" } else { "clean" };
            let dir = fresh_dir(root, &format!("p{op}-{tag}"));
            let fs = FaultFs::with_plan(IoFaultPlan {
                crash_at: Some(op as u64),
                crash_torn: torn,
                ..Default::default()
            });
            let t = run_attempt(&dir, &fs, base);
            absorb(&mut report, &fs, &format!("cut@{op}/{tag}"), &dir, &t);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
    report
}

/// Runs the workflow under seeded per-mille fault mixes (transient EIO,
/// ENOSPC, clean and torn power cuts) — the randomized complement of
/// the exhaustive enumeration.
pub fn random_fault_drill(
    root: &Path,
    base: &ClusterModel,
    seeds: std::ops::Range<u64>,
) -> DrillReport {
    let mut report = DrillReport::default();
    for seed in seeds {
        let fs = FaultFs::with_plan(IoFaultPlan {
            seed,
            eio_per_mille: 60,
            enospc_per_mille: 8,
            crash_per_mille: 5,
            torn_per_mille: 5,
            ..Default::default()
        });
        let dir = fresh_dir(root, &format!("rand{seed}"));
        let t = run_attempt(&dir, &fs, base);
        report.io_ops = report.io_ops.max(t.ops);
        absorb(&mut report, &fs, &format!("plan seed={seed}"), &dir, &t);
        std::fs::remove_dir_all(&dir).ok();
    }
    report
}

/// Kills a checkpointed compaction mid-pipeline (while the storage tier
/// also suffers transient EIO) and verifies the resumed refit is
/// bit-identical to a from-scratch one on a pristine session. Returns
/// `Err` with a description on any divergence.
pub fn checkpoint_resume_drill(base: &ClusterModel) -> Result<(), String> {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let batches: Vec<Vec<DeltaOp>> = (0..3).map(|r| drill_ops(base.len(), r)).collect();

    // Doomed run: transient storage faults plus a compute-stage kill
    // scoped to the delta aggregate, so earlier stages checkpoint first.
    let fs = FaultFs::with_plan(IoFaultPlan {
        seed: 5,
        eio_per_mille: 120,
        ..Default::default()
    });
    let mut session = IngestSession::new(base, drill_config());
    session.dfs().set_io_fs(fs);
    for ops in &batches {
        session
            .apply(ops.clone())
            .map_err(|e| format!("apply failed before the kill: {e}"))?;
    }
    let doom = mapreduce::FaultPlan {
        fail_per_mille: 999,
        max_attempts: 0,
        seed: 7,
    };
    session.config_mut().pipeline.chaos = Some(doom.into());
    session.config_mut().pipeline.fault_stage = Some("lsh/delta-aggregate");
    let quiet = QuietPanics::enter();
    let killed = catch_unwind(AssertUnwindSafe(|| session.compact()));
    drop(quiet);
    if killed.is_ok() {
        return Err("the doomed refit did not die mid-pipeline".into());
    }
    session.config_mut().pipeline.chaos = None;
    session.config_mut().pipeline.fault_stage = None;
    let resumed = session.compact();
    if !resumed
        .report
        .jobs
        .iter()
        .any(|j| j.user.get("resumed_from_checkpoint") == Some(&1))
    {
        return Err("no stage resumed from the killed run's checkpoint".into());
    }

    // From-scratch reference: clean storage, no kill, same batches.
    let mut pristine = IngestSession::new(base, drill_config());
    for ops in &batches {
        pristine
            .apply(ops.clone())
            .map_err(|e| format!("reference apply failed: {e}"))?;
    }
    let reference = pristine.compact();
    if wire::encode(&resumed.model) != wire::encode(&reference.model) {
        return Err("resumed compaction diverged from the from-scratch refit".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ingest-drill-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn clean_attempt_completes_and_verifies() {
        let base = fit_base_model(&drill_dataset(20, 9), 9);
        let dir = root("clean");
        let fs = FaultFs::real();
        let t = run_attempt(&dir, &fs, &base);
        assert!(t.save1_done && t.save2_done && t.retire_done && !t.crashed);
        assert_eq!(t.acked.len(), ROUNDS);
        assert_eq!(verify_attempt(&dir, &t), Vec::<String>::new());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn early_cut_loses_nothing_acknowledged() {
        let base = fit_base_model(&drill_dataset(20, 9), 9);
        let dir = root("early");
        // Op 7 lands inside the WAL append run of the first batches.
        let fs = FaultFs::with_plan(IoFaultPlan {
            crash_at: Some(7),
            crash_torn: true,
            ..Default::default()
        });
        let t = run_attempt(&dir, &fs, &base);
        assert!(t.crashed);
        assert_eq!(verify_attempt(&dir, &t), Vec::<String>::new());
        std::fs::remove_dir_all(&dir).ok();
    }
}
