//! The compaction invariant, property-tested: after an arbitrary legal
//! sequence of inserts and deletes, [`IngestSession::compact`] must
//! produce a model **bit-identical** to the Eq. 1 / Eq. 2 definition
//! ([`dp_core::compute_exact`]) over the same live point set, decided and
//! haloed the same way. Incremental ingest may drift; compaction may not.

use ddp::prelude::*;
use dp_core::compute_exact;
use ingest::{DeltaOp, IngestConfig, IngestSession};
use mapreduce::wire;
use proptest::prelude::*;
use serve::ClusterModel;
use std::time::Duration;

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

#[derive(Debug, Clone)]
enum Op {
    Insert(f64, f64),
    /// Re-insert an exact copy of the live point at this (wrapped) index.
    Duplicate(usize),
    /// Delete the live key at this (wrapped) index; skipped when the
    /// session rejects it (emptying a cluster).
    DeleteNth(usize),
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..3, -60.0f64..60.0, -60.0f64..60.0, 0usize..1000).prop_map(
        |(kind, x, y, nth)| match kind {
            0 => Op::Insert(x, y),
            1 => Op::Duplicate(nth),
            _ => Op::DeleteNth(nth),
        },
    )
}

/// The definition over exactly the session's live points: exact
/// rho/delta, the centralized step, then the halo pass — no pipeline and
/// no session code involved.
fn scratch_refit(session: &IngestSession) -> ClusterModel {
    let ds = session.live_dataset();
    let report = RunReport {
        algorithm: "basic-ddp".into(),
        jobs: Vec::new(),
        distances: 0,
        wall: Duration::ZERO,
        result: compute_exact(&ds, session.dc()),
    };
    let outcome = CentralizedStep::new(PeakSelection::TopK(3)).run(&report.result);
    ClusterModel::from_run(&ds, &report, &outcome, session.params(), session.seed())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn compaction_is_bit_identical_to_the_definition(
        seed in 0u64..3,
        ops in proptest::collection::vec(op(), 1..10),
    ) {
        let model = fitted(12, 100 + seed);
        let mut session = IngestSession::new(&model, IngestConfig {
            selection: PeakSelection::TopK(3),
            ..IngestConfig::default()
        });

        for op in ops {
            let delta = match op {
                Op::Insert(x, y) => DeltaOp::Insert(vec![x, y]),
                Op::Duplicate(nth) => {
                    let live = session.live_dataset();
                    DeltaOp::Insert(live.point((nth % live.len()) as u32).to_vec())
                }
                Op::DeleteNth(nth) => {
                    let keys = session.live_keys();
                    DeltaOp::Delete(keys[nth % keys.len()])
                }
            };
            // A rejected delete (would empty a cluster) is skipped;
            // everything else must apply.
            let _ = session.apply(vec![delta]);
        }

        let compacted = session.compact().model;
        let scratch = scratch_refit(&session).with_version(compacted.version());
        prop_assert_eq!(
            wire::encode(&compacted),
            wire::encode(&scratch),
            "compaction must equal the definition byte for byte"
        );

        // And the session itself now *is* that artifact.
        prop_assert_eq!(wire::encode(&session.publish()), wire::encode(&scratch));

        // A second compaction over the same DFS (checkpoint paths,
        // snapshot ids) is just as exact.
        session.apply(vec![DeltaOp::Insert(vec![0.25, -0.25])]).unwrap();
        let again = session.compact().model;
        let scratch = scratch_refit(&session).with_version(again.version());
        prop_assert_eq!(wire::encode(&again), wire::encode(&scratch));
    }
}
