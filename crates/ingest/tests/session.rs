//! Behavioral tests for [`IngestSession`]: localized updates, batch
//! validation atomicity, WAL-backed recovery, and compaction resetting
//! the session onto an exact artifact.

use ddp::prelude::*;
use ingest::{DeltaOp, IngestConfig, IngestError, IngestSession};
use mapreduce::wire;
use serve::{ClusterModel, Exactness, QueryEngine};
use std::path::PathBuf;

/// Fits a small 3-blob model end to end (mirrors serve's test fixture).
fn fitted(n_per: usize, seed: u64) -> ClusterModel {
    let ld = datasets::gaussian_mixture(2, 3, n_per, 40.0, 1.0, seed);
    let ds = &ld.data;
    let dc = dp_core::cutoff::estimate_dc_exact(ds, 0.05);
    let ddp = LshDdp::with_accuracy(0.99, 8, 3, dc, seed).expect("valid LSH params");
    let params = ddp.config().params;
    let report = ddp.run(ds, dc);
    let outcome = CentralizedStep::new(PeakSelection::TopK(3)).run(&report.result);
    ClusterModel::from_run(ds, &report, &outcome, &params, seed)
}

fn config() -> IngestConfig {
    IngestConfig {
        selection: PeakSelection::TopK(3),
        ..IngestConfig::default()
    }
}

/// A tiny hand-built model: cluster 0 = {p0 (peak), p1}, cluster 1 =
/// {p2 (peak)} — small enough to reason about validation exactly.
fn two_cluster_line() -> ClusterModel {
    ClusterModel::from_parts(
        1,
        "test".to_string(),
        1,
        2.0,
        lsh::LshParams {
            m: 2,
            pi: 2,
            w: 8.0,
        },
        7,
        vec![0.0, 1.0, 10.0],
        vec![2, 1, 1],
        vec![10.0, 1.0, 9.0],
        vec![dp_core::NO_UPSLOPE, 0, dp_core::NO_UPSLOPE],
        vec![0, 0, 1],
        vec![0, 2],
        vec![false, false, false],
        None,
    )
}

fn wal_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ingest-session-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::remove_file(&path).ok();
    path
}

#[test]
fn insert_bumps_neighbor_density_and_versions_the_model() {
    let model = fitted(20, 11);
    let n = model.len();
    let mut session = IngestSession::new(&model, config());
    assert_eq!(session.version(), 1);
    assert_eq!(session.len(), n);
    assert_eq!(session.stale_points(), 0);

    // A duplicate of point 0 shares its signatures, so point 0 is a
    // within-dc bucket-mate and must gain density.
    let dup = model.point(0).to_vec();
    let applied = session.apply(vec![DeltaOp::Insert(dup)]).unwrap();
    assert_eq!(applied.version, 2);
    assert_eq!(session.version(), 2);
    assert!(
        applied.newly_stale > 0,
        "localized updates mark points stale"
    );
    assert_eq!(session.len(), n + 1);

    let published = session.publish();
    assert_eq!(published.version(), 2);
    assert_eq!(published.len(), n + 1);
    assert_eq!(
        published.rhos()[0],
        model.rhos()[0] + 1,
        "the duplicated point gains one within-dc neighbor"
    );
    assert!((published.n_clusters()) == model.n_clusters());

    // Deleting the insert restores the neighbor's density.
    let key = n as u64; // base points hold 0..n, the insert took n
    session.apply(vec![DeltaOp::Delete(key)]).unwrap();
    assert_eq!(session.len(), n);
    assert_eq!(session.publish().rhos()[0], model.rhos()[0]);
    assert_eq!(session.version(), 3);
}

#[test]
fn rejected_batches_leave_the_session_untouched() {
    let model = two_cluster_line();
    let mut session = IngestSession::new(&model, config());

    // Wrong dimensionality.
    let err = session
        .apply(vec![DeltaOp::Insert(vec![1.0, 2.0])])
        .unwrap_err();
    assert!(matches!(
        err,
        IngestError::DimMismatch {
            expected: 1,
            got: 2
        }
    ));

    // Unknown / repeated keys.
    let err = session.apply(vec![DeltaOp::Delete(99)]).unwrap_err();
    assert!(matches!(err, IngestError::UnknownKey(99)));
    let err = session
        .apply(vec![DeltaOp::Delete(1), DeltaOp::Delete(1)])
        .unwrap_err();
    assert!(matches!(err, IngestError::UnknownKey(1)));

    // Emptying a cluster — directly, or across the batch.
    let err = session.apply(vec![DeltaOp::Delete(2)]).unwrap_err();
    assert!(matches!(err, IngestError::WouldEmptyCluster(1)));
    let err = session
        .apply(vec![DeltaOp::Delete(0), DeltaOp::Delete(1)])
        .unwrap_err();
    assert!(matches!(err, IngestError::WouldEmptyCluster(0)));

    // Nothing above changed any state: full-batch validation runs
    // before the first op is applied.
    assert_eq!(session.version(), 1);
    assert_eq!(session.len(), 3);
    assert_eq!(session.stale_points(), 0);
    assert_eq!(session.batches_applied(), 0);

    // The same deletes succeed one at a time when legal.
    session.apply(vec![DeltaOp::Delete(1)]).unwrap();
    assert_eq!(session.len(), 2);
}

#[test]
fn deleting_a_peak_hands_the_cluster_to_the_densest_survivor() {
    let model = two_cluster_line();
    let mut session = IngestSession::new(&model, config());
    session.apply(vec![DeltaOp::Delete(0)]).unwrap();
    let published = session.publish();
    assert_eq!(published.len(), 2);
    assert_eq!(published.n_clusters(), 2);
    // p1 (dense id 0 after the squeeze) inherits cluster 0's peak slot.
    assert_eq!(published.labels()[published.peaks()[0] as usize], 0);
    assert_eq!(published.labels()[published.peaks()[1] as usize], 1);
}

#[test]
fn wal_replay_reconstructs_the_exact_session_state() {
    let model = fitted(15, 23);
    let path = wal_path("replay-session.wal");

    let (mut session, replayed) = IngestSession::with_wal(&model, config(), &path).unwrap();
    assert_eq!(replayed, 0);
    session
        .apply(vec![
            DeltaOp::Insert(vec![1.5, -0.5]),
            DeltaOp::Insert(model.point(3).to_vec()),
        ])
        .unwrap();
    session.apply(vec![DeltaOp::Delete(2)]).unwrap();
    let before = wire::encode(&session.publish());
    let version = session.version();
    drop(session);

    // Reopen against the same base artifact: the log replays both
    // batches and lands on byte-identical published state.
    let (session, replayed) = IngestSession::with_wal(&model, config(), &path).unwrap();
    assert_eq!(replayed, 2);
    assert_eq!(session.version(), version);
    assert_eq!(wire::encode(&session.publish()), before);
    std::fs::remove_file(&path).ok();
}

#[test]
fn wal_from_a_different_lineage_is_rejected() {
    let model = fitted(15, 23);
    let path = wal_path("lineage-mismatch.wal");
    let (mut session, _) = IngestSession::with_wal(&model, config(), &path).unwrap();
    session.apply(vec![DeltaOp::Delete(0)]).unwrap();
    drop(session);

    // The same log replayed onto a *newer* artifact must refuse.
    let newer = model.clone().with_version(5);
    let Err(err) = IngestSession::with_wal(&newer, config(), &path) else {
        panic!("a foreign WAL must be rejected");
    };
    assert!(matches!(
        err,
        IngestError::WalMismatch {
            expected: 5,
            got: 1
        }
    ));
    std::fs::remove_file(&path).ok();
}

#[test]
fn compaction_folds_the_wal_and_clears_staleness() {
    let model = fitted(15, 31);
    let path = wal_path("compact-folds.wal");
    let (mut session, _) = IngestSession::with_wal(&model, config(), &path).unwrap();
    session
        .apply(vec![DeltaOp::Insert(vec![0.5, 0.5]), DeltaOp::Delete(4)])
        .unwrap();
    assert!(session.stale_points() > 0);
    let degraded = session.staleness();
    assert!(degraded.accuracy_after < degraded.accuracy_before);

    let version_before = session.version();
    let compaction = session.compact();
    assert_eq!(compaction.model.version(), version_before + 1);
    assert_eq!(session.version(), version_before + 1);
    assert_eq!(session.stale_points(), 0, "compaction is exact");
    let healed = session.staleness();
    assert_eq!(healed.accuracy_after, healed.accuracy_before);

    // External keys survive: base keys minus the delete, plus the
    // insert's fresh key.
    let keys = session.live_keys();
    assert!(!keys.contains(&4));
    assert!(keys.contains(&(model.len() as u64)));

    // Compaction does NOT retire the log by itself: until the caller
    // durably persists the artifact and acknowledges, the batches stay
    // replayable against the old base (crash-between-save-and-retire
    // leaves new artifact + stale log, which is refused, not replayed).
    {
        let (unretired, replayed) = IngestSession::with_wal(&model, config(), &path).unwrap();
        assert_eq!(
            replayed, 1,
            "unretired batches still replay on the old base"
        );
        assert_eq!(unretired.version(), version_before);
    }
    match IngestSession::with_wal(&compaction.model, config(), &path) {
        Err(IngestError::WalMismatch { .. }) => {}
        Err(other) => panic!("expected WalMismatch, got {other:?}"),
        Ok(_) => panic!("a stale log never replays onto the compacted artifact"),
    }

    // After the acknowledge step the folded log is empty on reopen.
    session.retire_wal().unwrap();
    drop(session);
    let (restored, replayed) = IngestSession::with_wal(&compaction.model, config(), &path).unwrap();
    assert_eq!(replayed, 0);
    assert_eq!(restored.version(), version_before + 1);
    std::fs::remove_file(&path).ok();
}

#[test]
fn lifecycle_counters_are_metered() {
    let reg = obsv::global();
    let batches = reg.counter("ingest_batches");
    let stale = reg.counter("stale_points");
    let compactions = reg.counter("model_compactions");
    let (b0, s0, c0) = (batches.get(), stale.get(), compactions.get());

    let model = fitted(15, 47);
    let mut session = IngestSession::new(&model, config());
    session
        .apply(vec![DeltaOp::Insert(model.point(1).to_vec())])
        .unwrap();
    session.compact();

    assert!(batches.get() > b0);
    assert!(stale.get() > s0);
    assert!(compactions.get() > c0);
}

mod storage_fault_mixes {
    use super::*;
    use ingest::Wal;
    use mapreduce::io_shim::{FaultFs, IoFaultPlan};
    use proptest::prelude::*;
    use std::sync::OnceLock;

    /// One fitted model shared across proptest cases (a fit per case
    /// would dominate the runtime without adding coverage).
    fn shared_model() -> &'static serve::ClusterModel {
        static MODEL: OnceLock<serve::ClusterModel> = OnceLock::new();
        MODEL.get_or_init(|| fitted(15, 5))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The WAL acknowledgement contract under arbitrary seeded
        /// storage-fault plans: whatever mix of transient EIO, power
        /// cuts, and torn writes the schedule rolls, a clean reopen
        /// replays *exactly* the acknowledged batches — never a lost
        /// ack, never a resurfaced reject — and the torn-tail repair is
        /// durable across a second reopen.
        #[test]
        fn wal_replays_exactly_the_acked_batches(
            seed in any::<u64>(),
            eio in 0u16..250,
            crash in 0u16..40,
            torn in 0u16..40,
            rounds in 1usize..8,
        ) {
            let model = shared_model();
            let path = wal_path(&format!("prop-{seed}-{eio}-{crash}-{torn}.wal"));
            let fs = FaultFs::with_plan(IoFaultPlan {
                seed,
                eio_per_mille: eio,
                crash_per_mille: crash,
                torn_per_mille: torn,
                ..Default::default()
            });

            let mut acked = Vec::new();
            if let Ok((mut session, _)) =
                IngestSession::with_wal_fs(model, config(), &path, fs)
            {
                for r in 0..rounds {
                    let point = model.point((r % model.len()) as u32).to_vec();
                    match session.apply(vec![DeltaOp::Insert(point)]) {
                        Ok(applied) => acked.push(applied.batch),
                        Err(_) => break, // nothing acknowledged, nothing owed
                    }
                }
            }

            // Recovery on clean storage: exactly the acked batches.
            let clean = FaultFs::real();
            let (_, rec) = Wal::open_with(&path, clean.clone()).unwrap();
            prop_assert_eq!(&rec.batches, &acked);
            // The truncation repair (if any) was fsynced in place.
            let (_, again) = Wal::open_with(&path, clean).unwrap();
            prop_assert_eq!(again.torn_bytes, 0);
            prop_assert_eq!(&again.batches, &acked);

            // And the session-level restart replays them all.
            let (restarted, replayed) =
                IngestSession::with_wal(model, config(), &path).unwrap();
            prop_assert_eq!(replayed, acked.len());
            prop_assert_eq!(restarted.len(), model.len() + acked.len());

            std::fs::remove_file(&path).ok();
        }
    }
}

/// The bucket probes of the read and write paths once hashed every
/// colliding id and sorted the result; they now share `lsh::BucketUnion`.
/// The digests below were recorded with the hashed probes (at the commit
/// before the switch) over a seeded lineage that has held-in twins,
/// queries no bucket collides with, and a deleted peak: every served
/// answer and every published byte must still match them.
#[test]
fn served_answers_and_published_artifacts_match_the_hashed_probe_digests() {
    let model = fitted(120, 23);
    let dim = model.dim();
    let mut queries: Vec<f64> = Vec::new();
    for id in 0..model.len() as u32 {
        let p = model.point(id);
        if id % 3 == 0 {
            queries.extend_from_slice(p); // twin
        }
        queries.extend(p.iter().map(|x| x + 0.3 - f64::from(id % 7) * 0.1));
    }
    queries.extend([1e6, -1e6, 500.0, 500.0, 20.0, 20.0]); // nothing collides
    let answers = |model: &ClusterModel, exactness| {
        let engine = QueryEngine::with_exactness(model.clone(), exactness);
        let bytes: Vec<u8> = engine
            .assign_batch(&queries)
            .iter()
            .flat_map(|a| {
                let flags = u64::from(a.fallback) << 1 | u64::from(a.halo);
                [
                    u64::from(a.cluster),
                    a.confidence.to_bits(),
                    u64::from(a.rho_estimate),
                    flags,
                ]
            })
            .flat_map(u64::to_le_bytes)
            .collect();
        assert_eq!(bytes.len(), queries.len() / dim * 32);
        mapreduce::checksum64(&bytes)
    };
    assert_eq!(answers(&model, Exactness::Hybrid), 0x7dc6_e261_be50_7297);
    assert_eq!(answers(&model, Exactness::Lsh), 0x7059_f37d_bc35_62cc);

    let mut session = IngestSession::new(&model, config());
    let near = |id: u32, dx: f64| {
        let p = model.point(id);
        DeltaOp::Insert(vec![p[0] + dx, p[1] - dx])
    };
    let peak = u64::from(model.peaks()[0]);
    let mut first: Vec<DeltaOp> = (0..40).map(|i| near(i * 9, 0.05 * f64::from(i))).collect();
    first.push(DeltaOp::Insert(model.point(5).to_vec())); // twin of a base point
    first.push(DeltaOp::Insert(vec![1e6, 1e6])); // no bucket-mates
    session.apply(first).unwrap();
    session
        .apply(vec![
            DeltaOp::Delete(peak),
            DeltaOp::Delete(7),
            DeltaOp::Delete(8),
            DeltaOp::Delete(model.len() as u64 + 3), // an inserted point
            near(model.peaks()[0], 0.01),
        ])
        .unwrap();
    session
        .apply((0..20).map(|i| near(200 + i, -0.2)).collect())
        .unwrap();
    let published = session.publish();
    assert_eq!(
        mapreduce::checksum64(&wire::encode(&published)),
        0xd421_9e79_1494_bd5c
    );
    assert_eq!(
        answers(&published, Exactness::Hybrid),
        0x7f50_a1ef_8b4f_de9b
    );
}
