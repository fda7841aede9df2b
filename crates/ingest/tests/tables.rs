//! A published or compacted model carries the session's own bucket
//! tables, remapped from slots to the model's ids — never rebuilt.
//! Whatever the lineage did, they must be exactly what a from-scratch
//! build over the model's coordinates gives: the same buckets under every
//! layout, each listing its ids ascending. Checked after random batches
//! (exact duplicates, peak deletes, a point deleted and reinserted in one
//! batch), after a WAL replay, and after a compaction and the batches
//! that follow it.

use ddp::prelude::*;
use ingest::{DeltaOp, IngestConfig, IngestSession};
use mapreduce::wire;
use proptest::prelude::*;
use serve::ClusterModel;
use std::sync::OnceLock;

/// One fitted 3-blob model shared across cases.
fn base() -> &'static ClusterModel {
    static MODEL: OnceLock<ClusterModel> = OnceLock::new();
    MODEL.get_or_init(|| {
        let ld = datasets::gaussian_mixture(2, 3, 40, 40.0, 1.0, 19);
        let ds = &ld.data;
        let dc = dp_core::cutoff::estimate_dc_exact(ds, 0.05);
        let ddp = LshDdp::with_accuracy(0.99, 8, 3, dc, 19).expect("valid LSH params");
        let report = ddp.run(ds, dc);
        let outcome = CentralizedStep::new(PeakSelection::TopK(3)).run(&report.result);
        ClusterModel::from_run(ds, &report, &outcome, &ddp.config().params, 19)
    })
}

fn config() -> IngestConfig {
    IngestConfig {
        selection: PeakSelection::TopK(3),
        ..IngestConfig::default()
    }
}

/// The model's tables equal a from-scratch build, bucket by bucket, and
/// every bucket is ascending.
fn assert_fresh(model: &ClusterModel, when: &str) {
    let want = lsh::bucket_tables(&model.layouts(), model.coords().chunks_exact(model.dim()));
    let got = model.tables();
    assert_eq!(got.len(), want.len(), "{when}: one table per layout");
    for (m, (got, want)) in got.iter().zip(&want).enumerate() {
        assert_eq!(got, want, "{when}: layout {m}");
        for ids in got.values() {
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "{when}: {ids:?}");
        }
    }
}

/// One batch from `(kind, pick)` codes against the session's current
/// state: a jittered copy of a live point, an exact duplicate, a delete,
/// a peak delete, or a delete and a reinsert of the same coordinates.
fn batch(session: &IngestSession, codes: &[(u8, u16)]) -> Vec<DeltaOp> {
    let now = session.publish();
    let keys = session.live_keys();
    let n = keys.len();
    let mut ops = Vec::new();
    for &(kind, pick) in codes {
        let id = pick as usize % n;
        let p = now.point(id as u32);
        match kind {
            0 => ops.push(DeltaOp::Insert(p.iter().map(|x| x + 0.37).collect())),
            1 => ops.push(DeltaOp::Insert(p.to_vec())),
            2 => ops.push(DeltaOp::Delete(keys[id])),
            3 => {
                let peak = now.peaks()[pick as usize % now.n_clusters()];
                ops.push(DeltaOp::Delete(keys[peak as usize]));
            }
            _ => {
                ops.push(DeltaOp::Delete(keys[id]));
                ops.push(DeltaOp::Insert(p.to_vec()));
            }
        }
    }
    ops
}

/// Applies each batch the session accepts (a rejected one, e.g. a
/// repeated key, changes nothing) and checks the published tables.
fn drive(session: &mut IngestSession, batches: &[Vec<(u8, u16)>], when: &str) {
    for (b, codes) in batches.iter().enumerate() {
        let ops = batch(session, codes);
        if session.apply(ops).is_ok() {
            assert_fresh(&session.publish(), &format!("{when}, batch {b}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn published_tables_equal_a_fresh_build(
        batches in proptest::collection::vec(
            proptest::collection::vec((0u8..5, any::<u16>()), 1..8),
            1..5,
        ),
        later in proptest::collection::vec((0u8..5, any::<u16>()), 1..8),
        case in any::<u64>(),
    ) {
        let model = base();
        let dir = std::env::temp_dir().join("ingest-tables-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("tables-{case}.wal"));
        std::fs::remove_file(&path).ok();

        let (mut session, _) = IngestSession::with_wal(model, config(), &path).unwrap();
        drive(&mut session, &batches, "applied");
        let before = wire::encode(&session.publish());
        drop(session);

        // Replay lands on the same artifact and the same tables.
        let (mut session, _) = IngestSession::with_wal(model, config(), &path).unwrap();
        let replayed = session.publish();
        prop_assert_eq!(wire::encode(&replayed), before);
        assert_fresh(&replayed, "replayed");

        // The compacted model gets the session's tables, remapped to its
        // ids; the session re-seeded from them keeps handing over correct
        // ones.
        let compaction = session.compact();
        assert_fresh(&compaction.model, "compacted");
        assert_fresh(&session.publish(), "re-seeded");
        drive(&mut session, &[later], "after compaction");
        std::fs::remove_file(&path).ok();
    }
}
