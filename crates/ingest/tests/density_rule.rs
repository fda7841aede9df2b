//! An insert's density is the paper's job-2 rule applied to one point:
//! `rho_hat = max_m rho_hat^m`, where `rho_hat^m` counts the points that
//! share its layout-`m` bucket and lie strictly within `d_c` (§IV). The
//! session scores its bucket union once and takes the per-layout counts
//! from that one scored set; this checks the result against the rule
//! counted naively, bucket by bucket, from the published model's tables,
//! after each insert of a lineage that interleaves deletes.

use ddp::prelude::*;
use dp_core::distance::squared_euclidean;
use ingest::{DeltaOp, IngestConfig, IngestSession};
use proptest::prelude::*;
use serve::ClusterModel;
use std::sync::OnceLock;

/// One fitted 3-blob model shared across cases; its 8 layouts overlap,
/// so most bucket-mates collide in several of them.
fn base() -> &'static ClusterModel {
    static MODEL: OnceLock<ClusterModel> = OnceLock::new();
    MODEL.get_or_init(|| {
        let ld = datasets::gaussian_mixture(2, 3, 40, 40.0, 1.0, 29);
        let ds = &ld.data;
        let dc = dp_core::cutoff::estimate_dc_exact(ds, 0.05);
        let ddp = LshDdp::with_accuracy(0.99, 8, 3, dc, 29).expect("valid LSH params");
        let report = ddp.run(ds, dc);
        let outcome = CentralizedStep::new(PeakSelection::TopK(3)).run(&report.result);
        ClusterModel::from_run(ds, &report, &outcome, &ddp.config().params, 29)
    })
}

/// The rule by its definition: for each layout, the ids in `q`'s bucket
/// other than `q` with `sqrt(d²) < d_c`; the largest of those counts. The
/// buckets are built from scratch over the model's points.
fn max_over_layouts(model: &ClusterModel, q: u32) -> u32 {
    let p = model.point(q);
    let multi = model.layouts();
    let tables = lsh::bucket_tables(&multi, model.coords().chunks_exact(model.dim()));
    let within = |j: &&u32| **j != q && squared_euclidean(p, model.point(**j)).sqrt() < model.dc();
    (0..multi.layouts())
        .map(|m| {
            tables[m][&multi.signature(m, p)]
                .iter()
                .filter(within)
                .count() as u32
        })
        .max()
        .expect("a model has at least one layout")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `(kind, pick, jitter)`: kind 0 inserts a jittered copy of a live
    /// point, 1 an exact duplicate, 2 a point anywhere in the blobs'
    /// span, 3 deletes a live key (skipped when it would empty a
    /// cluster), 4 deletes a peak.
    #[test]
    fn an_inserts_density_is_the_max_over_its_layouts(
        ops in proptest::collection::vec((0u8..5, any::<u16>(), -1.5f64..1.5), 1..40),
    ) {
        let model = base();
        let config = IngestConfig {
            selection: PeakSelection::TopK(3),
            ..IngestConfig::default()
        };
        let mut session = IngestSession::new(model, config);
        for (kind, pick, jitter) in ops {
            let now = session.publish();
            let keys = session.live_keys();
            let id = pick as usize % keys.len();
            let p = now.point(id as u32);
            let op = match kind {
                0 => DeltaOp::Insert(p.iter().map(|x| x + jitter).collect()),
                1 => DeltaOp::Insert(p.to_vec()),
                2 => DeltaOp::Insert(vec![jitter * 40.0, f64::from(pick) / 600.0 - 50.0]),
                3 => DeltaOp::Delete(keys[id]),
                _ => {
                    let peak = now.peaks()[pick as usize % now.n_clusters()];
                    DeltaOp::Delete(keys[peak as usize])
                }
            };
            let inserted = matches!(op, DeltaOp::Insert(_));
            if session.apply(vec![op]).is_err() || !inserted {
                continue;
            }
            // The newest slot is the published model's last id.
            let published = session.publish();
            let q = published.len() as u32 - 1;
            prop_assert_eq!(published.rhos()[q as usize], max_over_layouts(&published, q));
        }
    }
}
