//! Every served answer is the upslope rule written out by brute force over
//! the served model's points: a twin (the smallest id at `d² == 0`)
//! answers at confidence 1.0; else the nearest point, by `(d², id)`, whose
//! stored `rho` is at least the query's exact ball count, unless it lies at
//! `d² >= d_c²`, when the nearest point answers; a non-finite query takes
//! the nearest center. Checked bit for bit on base models below and above
//! the index's size threshold and on every model a session publishes from
//! them — which read through the base model's index, tombstones skipped
//! and inserted rows scanned — before and after a compaction and from a
//! session opened on a published model, and against an engine over the
//! same model decoded from its bytes.

use ddp::prelude::*;
use dp_core::distance::squared_euclidean;
use dp_core::local::AUTO_MIN_POINTS;
use dp_core::PointId;
use ingest::{DeltaOp, IngestConfig, IngestSession};
use mapreduce::wire;
use proptest::prelude::*;
use serve::{Assignment, ClusterModel, QueryEngine};
use std::sync::OnceLock;

/// A fitted 3-blob model of `3 * n_per` points.
fn fit(n_per: usize, seed: u64) -> ClusterModel {
    let ld = datasets::gaussian_mixture(2, 3, n_per, 40.0, 1.0, seed);
    let ds = &ld.data;
    let dc = dp_core::cutoff::estimate_dc_exact(ds, 0.05);
    let ddp = LshDdp::with_accuracy(0.99, 8, 3, dc, seed).expect("valid LSH params");
    let report = ddp.run(ds, dc);
    let outcome = CentralizedStep::new(PeakSelection::TopK(3)).run(&report.result);
    ClusterModel::from_run(ds, &report, &outcome, &ddp.config().params, seed)
}

/// One model that scans and one that reads through its index, shared
/// across cases.
fn bases() -> &'static [ClusterModel; 2] {
    static MODELS: OnceLock<[ClusterModel; 2]> = OnceLock::new();
    MODELS.get_or_init(|| {
        let models = [fit(40, 31), fit(100, 37)];
        assert!(models[0].len() < AUTO_MIN_POINTS && models[1].len() >= AUTO_MIN_POINTS);
        models
    })
}

fn config() -> IngestConfig {
    IngestConfig {
        selection: PeakSelection::TopK(3),
        ..IngestConfig::default()
    }
}

/// `d_c / (d_c + d)`, 0 at a NaN distance.
fn proximity(dc: f64, d: f64) -> f64 {
    if d.is_nan() {
        0.0
    } else {
        dc / (dc + d)
    }
}

/// The rule, by brute force over `m`'s points.
fn rule(m: &ClusterModel, q: &[f64]) -> Assignment {
    let ids = 0..m.len() as PointId;
    let by_d2 = |d2: &[f64], a: &PointId, b: &PointId| {
        let (a, b) = (*a, *b);
        d2[a as usize].total_cmp(&d2[b as usize]).then(a.cmp(&b))
    };
    if !q.iter().all(|x| x.is_finite()) {
        let centers: Vec<f64> = m
            .peaks()
            .iter()
            .map(|&p| squared_euclidean(q, m.point(p)))
            .collect();
        let c = (0..m.n_clusters() as PointId)
            .min_by(|a, b| by_d2(&centers, a, b))
            .unwrap();
        return Assignment {
            cluster: c,
            confidence: 0.0,
            fallback: true,
            rho_estimate: 0,
            halo: m.is_halo(m.peaks()[c as usize]),
        };
    }
    let d2: Vec<f64> = ids
        .clone()
        .map(|id| squared_euclidean(q, m.point(id)))
        .collect();
    let dc2 = m.dc() * m.dc();
    let rho = d2.iter().filter(|&&d| d > 0.0 && d < dc2).count() as u32;
    let nearest = |floor: u32| {
        ids.clone()
            .filter(|&id| m.rho(id) >= floor)
            .min_by(|a, b| by_d2(&d2, a, b))
    };
    let twin = ids.clone().find(|&id| d2[id as usize] == 0.0);
    let id = twin.unwrap_or_else(|| match nearest(rho) {
        Some(anchor) if d2[anchor as usize] < dc2 => anchor,
        _ => nearest(0).unwrap(),
    });
    let d2 = d2[id as usize];
    Assignment {
        cluster: m.label(id),
        confidence: if d2 == 0.0 {
            1.0
        } else {
            proximity(m.dc(), d2.sqrt())
        },
        fallback: false,
        rho_estimate: rho,
        halo: m.is_halo(id),
    }
}

/// Every field, the confidence as bits.
fn bits(a: &Assignment) -> (u32, u64, bool, u32, bool) {
    (
        a.cluster,
        a.confidence.to_bits(),
        a.fallback,
        a.rho_estimate,
        a.halo,
    )
}

/// Queries against `m`: twins of some of its points, jittered copies,
/// points far away, the coordinates `gone` of points deleted from it, and
/// non-finite points.
fn queries(m: &ClusterModel, picks: &[(u16, f64)], gone: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let mut out: Vec<Vec<f64>> = gone.to_vec();
    for &(pick, jitter) in picks {
        let p = m.point(u32::from(pick) % m.len() as u32);
        out.push(p.to_vec());
        out.push(p.iter().map(|x| x + jitter).collect());
        out.push(p.iter().map(|x| x * 1e3 + jitter).collect());
    }
    out.extend([
        vec![f64::NAN, 0.0],
        vec![1.0, f64::INFINITY],
        vec![-1e300, 1e300],
    ]);
    out
}

/// Every answer of an engine over `m`, and of one over `m` decoded from
/// its bytes, equals the rule's.
fn check(m: &ClusterModel, qs: &[Vec<f64>], when: &str) {
    let engine = QueryEngine::new(m.clone());
    let reloaded = QueryEngine::new(wire::decode(&wire::encode(m)).unwrap());
    let flat: Vec<f64> = qs.concat();
    let batch = engine.assign_batch(&flat);
    for (q, got) in qs.iter().zip(&batch) {
        let want = bits(&rule(m, q));
        assert_eq!(bits(got), want, "{when}: {q:?}");
        assert_eq!(bits(&reloaded.assign(q)), want, "{when} reloaded: {q:?}");
    }
}

/// One batch from `(kind, pick, jitter)` codes against the published
/// model `now`: a jittered copy of a point, an exact duplicate, a far
/// point, a delete, or a peak delete. Returns the ops and the deleted
/// points' coordinates.
fn batch(
    now: &ClusterModel,
    keys: &[u64],
    codes: &[(u8, u16, f64)],
) -> (Vec<DeltaOp>, Vec<Vec<f64>>) {
    let (mut ops, mut gone) = (Vec::new(), Vec::new());
    for &(kind, pick, jitter) in codes {
        let id = pick as usize % now.len();
        let p = now.point(id as u32);
        let delete = |id: usize, ops: &mut Vec<DeltaOp>, gone: &mut Vec<Vec<f64>>| {
            ops.push(DeltaOp::Delete(keys[id]));
            gone.push(now.point(id as u32).to_vec());
        };
        match kind {
            0 => ops.push(DeltaOp::Insert(p.iter().map(|x| x + jitter).collect())),
            1 => ops.push(DeltaOp::Insert(p.to_vec())),
            2 => ops.push(DeltaOp::Insert(vec![jitter * 200.0, 300.0])),
            3 => delete(id, &mut ops, &mut gone),
            _ => {
                let peak = now.peaks()[pick as usize % now.n_clusters()];
                delete(peak as usize, &mut ops, &mut gone);
            }
        }
    }
    (ops, gone)
}

/// Applies each batch the session accepts (a rejected one changes
/// nothing) and checks the model it publishes.
fn drive(
    session: &mut IngestSession,
    batches: &[Vec<(u8, u16, f64)>],
    picks: &[(u16, f64)],
    when: &str,
) {
    for (b, codes) in batches.iter().enumerate() {
        let now = session.publish();
        let (ops, gone) = batch(&now, &session.live_keys(), codes);
        if session.apply(ops).is_ok() {
            let published = session.publish();
            check(
                &published,
                &queries(&published, picks, &gone),
                &format!("{when}, batch {b}"),
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_served_answer_is_the_rule_by_brute_force(
        indexed in any::<bool>(),
        batches in proptest::collection::vec(
            proptest::collection::vec((0u8..5, any::<u16>(), -2.0f64..2.0), 1..12),
            1..4,
        ),
        later in proptest::collection::vec((0u8..5, any::<u16>(), -2.0f64..2.0), 1..12),
        picks in proptest::collection::vec((any::<u16>(), -1.5f64..1.5), 1..12),
    ) {
        let base = &bases()[usize::from(indexed)];
        check(base, &queries(base, &picks, &[]), "base");
        let mut session = IngestSession::new(base, config());
        drive(&mut session, &batches, &picks, "applied");
        // A session opened on a published model builds its own index.
        let mut opened = IngestSession::new(&session.publish(), config());
        drive(&mut opened, std::slice::from_ref(&later), &picks, "reopened");
        let compacted = session.compact().model;
        check(&compacted, &queries(&compacted, &picks, &[]), "compacted");
        drive(&mut session, &[later], &picks, "after compaction");
    }
}

/// An engine over a published model, which reads through the base
/// model's index, answers as one over the same model loaded from disk,
/// which builds its own.
#[test]
fn a_published_model_answers_as_its_reloaded_artifact() {
    let base = &bases()[1];
    let mut session = IngestSession::new(base, config());
    let mut ops: Vec<DeltaOp> = (0..40u32)
        .map(|i| {
            let p = base.point(i * 7);
            DeltaOp::Insert(vec![p[0] + 0.3, p[1] - 0.2])
        })
        .collect();
    let peak = u64::from(base.peaks()[0]);
    ops.extend(
        [1, 2, 70, 150]
            .iter()
            .filter(|&&k| k != peak)
            .chain([&peak])
            .map(|&k| DeltaOp::Delete(k)),
    );
    session.apply(ops).unwrap();
    let published = session.publish();
    assert_eq!(
        format!("{published:?}").matches("index: derived").count(),
        1
    );

    let dir = std::env::temp_dir().join("ingest-served-answers");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("published.bin");
    let path = path.to_str().unwrap();
    published.save(path).unwrap();
    let loaded = ClusterModel::load(path).unwrap();
    std::fs::remove_file(path).ok();

    let (derived, own) = (
        QueryEngine::new(published.clone()),
        QueryEngine::new(loaded),
    );
    let mut n = 0;
    for id in 0..published.len() as u32 {
        let p = published.point(id);
        for q in [
            p.to_vec(),
            vec![p[0] + 0.25, p[1] + 0.5],
            vec![p[0] * 50.0, -p[1]],
        ] {
            assert_eq!(bits(&derived.assign(&q)), bits(&own.assign(&q)), "{q:?}");
            n += 1;
        }
    }
    assert_eq!(n, 3 * published.len());
}
