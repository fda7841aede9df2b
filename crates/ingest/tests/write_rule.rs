//! Every write a session answers is the rule written out by brute force
//! over the live points at the moment of the write, and every model it
//! publishes is a DP forest.
//!
//! * An insert stores, as its `rho`, the live points at `0 < d² < d_c²`;
//!   as its link and `delta`, the nearest live point by `(d², id)` whose
//!   stored `rho` is larger (the insert takes the largest id, so a tie
//!   loses), or `NO_UPSLOPE` at an infinite `delta` (a peak candidate)
//!   when there is none; as its label and halo flag, those of the point
//!   the read of its coordinates answers with.
//! * A delete leaves every stored `rho` and label as it was. A deleted
//!   peak hands its cluster to the live member with the largest
//!   `(rho, id)`, and each live point that linked to the deleted one
//!   re-links to the nearest live point strictly denser under `(rho, id)`,
//!   by the same rule.
//!
//! A reference model of the live points, kept in slot order, applies the
//! same writes by brute force; after each accepted batch every published
//! field must equal it bit for bit. Batches mix jittered and duplicate
//! inserts, far inserts, deletes, peak deletes and deletes of the newest
//! point's link target (whose child sits in the last, partial block of
//! links), on base models below and above the index's size threshold and
//! on a session opened on a published model.

use ddp::prelude::*;
use dp_core::distance::squared_euclidean;
use dp_core::local::AUTO_MIN_POINTS;
use dp_core::{PointId, NO_UPSLOPE};
use ingest::{DeltaOp, IngestConfig, IngestSession};
use proptest::prelude::*;
use serve::ClusterModel;
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

/// One model that scans and one that reads through its index, neither a
/// multiple of the 64-link block, shared across cases.
fn bases() -> &'static [ClusterModel; 2] {
    static MODELS: OnceLock<[ClusterModel; 2]> = OnceLock::new();
    MODELS.get_or_init(|| {
        let models = [fit(41, 43), fit(99, 47)];
        assert!(models[0].len() < AUTO_MIN_POINTS && models[1].len() >= AUTO_MIN_POINTS);
        assert!(models.iter().all(|m| m.len() % 64 != 0));
        models
    })
}

fn config() -> IngestConfig {
    IngestConfig {
        selection: PeakSelection::TopK(3),
        ..IngestConfig::default()
    }
}

/// One live point of the reference, with its link as an external key.
#[derive(Debug, Clone, PartialEq)]
struct Point {
    key: u64,
    coords: Vec<f64>,
    rho: u32,
    delta: f64,
    link: Option<u64>,
    label: u32,
    halo: bool,
}

/// The live points in slot order (a point's index is its published id)
/// and each cluster's peak, by key.
#[derive(Debug)]
struct Reference {
    dc: f64,
    points: Vec<Point>,
    peaks: Vec<u64>,
    next_key: u64,
}

impl Reference {
    /// The reference of `m` as a session opened on it sees it.
    fn of(m: &ClusterModel) -> Self {
        let points = (0..m.len())
            .map(|i| Point {
                key: i as u64,
                coords: m.point(i as PointId).to_vec(),
                rho: m.rhos()[i],
                delta: m.deltas()[i],
                link: match m.upslopes()[i] {
                    NO_UPSLOPE => None,
                    u => Some(u64::from(u)),
                },
                label: m.labels()[i],
                halo: m.halos()[i],
            })
            .collect();
        Reference {
            dc: m.dc(),
            points,
            peaks: m.peaks().iter().map(|&p| u64::from(p)).collect(),
            next_key: m.len() as u64,
        }
    }

    fn d2(&self, q: &[f64]) -> Vec<f64> {
        self.points
            .iter()
            .map(|p| squared_euclidean(q, &p.coords))
            .collect()
    }

    /// The nearest point, by `(d², id)`, that `admit` takes.
    fn nearest(&self, d2: &[f64], admit: impl Fn(usize) -> bool) -> Option<usize> {
        (0..self.points.len())
            .filter(|&i| admit(i))
            .min_by(|&a, &b| d2[a].total_cmp(&d2[b]).then(a.cmp(&b)))
    }

    /// `(delta, link)` for a point at `d2`: the nearest point `denser`
    /// admits, else none at an infinite `delta`.
    fn anchor(&self, d2: &[f64], denser: impl Fn(usize) -> bool) -> (f64, Option<u64>) {
        match self.nearest(d2, denser) {
            Some(i) => (d2[i].sqrt(), Some(self.points[i].key)),
            None => (f64::INFINITY, None),
        }
    }

    fn insert(&mut self, q: &[f64]) {
        let d2 = self.d2(q);
        let dc2 = self.dc * self.dc;
        let rho = d2.iter().filter(|&&d| d > 0.0 && d < dc2).count() as u32;
        let (delta, link) = self.anchor(&d2, |i| self.points[i].rho > rho);
        // The read of `q`: a twin, else the nearest point at least as
        // dense within `d_c` (or at any distance when `rho` is 0), else
        // the nearest point.
        let read = (0..self.points.len())
            .find(|&i| d2[i] == 0.0)
            .or_else(|| {
                self.nearest(&d2, |i| self.points[i].rho >= rho)
                    .filter(|&i| d2[i] < dc2 || rho == 0)
            })
            .or_else(|| self.nearest(&d2, |_| true))
            .expect("a live point");
        let (label, halo) = (self.points[read].label, self.points[read].halo);
        self.points.push(Point {
            key: self.next_key,
            coords: q.to_vec(),
            rho,
            delta,
            link,
            label,
            halo,
        });
        self.next_key += 1;
    }

    fn delete(&mut self, key: u64) {
        let at = self.points.iter().position(|p| p.key == key).unwrap();
        let gone = self.points.remove(at);
        if let Some(c) = self.peaks.iter().position(|&k| k == key) {
            let heir = (0..self.points.len())
                .filter(|&i| self.points[i].label == gone.label)
                .max_by_key(|&i| (self.points[i].rho, i))
                .expect("validation keeps every cluster non-empty");
            self.peaks[c] = self.points[heir].key;
        }
        for p in 0..self.points.len() {
            if self.points[p].link == Some(key) {
                let d2 = self.d2(&self.points[p].coords);
                let key_p = (self.points[p].rho, p);
                let (delta, link) = self.anchor(&d2, |i| (self.points[i].rho, i) > key_p);
                (self.points[p].delta, self.points[p].link) = (delta, link);
            }
        }
    }

    /// Every field of the published model `m`, whose points carry the
    /// external keys `keys`, equals the reference's.
    fn check(&self, m: &ClusterModel, keys: &[u64], when: &str) {
        assert_eq!(keys.len(), self.points.len(), "{when}");
        for (i, (p, &key)) in self.points.iter().zip(keys).enumerate() {
            let id = i as PointId;
            let link = match m.upslopes()[i] {
                NO_UPSLOPE => None,
                u => Some(keys[u as usize]),
            };
            let got = Point {
                key,
                coords: m.point(id).to_vec(),
                rho: m.rho(id),
                delta: m.deltas()[i],
                link,
                label: m.label(id),
                halo: m.is_halo(id),
            };
            assert_eq!(got.delta.to_bits(), p.delta.to_bits(), "{when}: point {i}");
            assert_eq!(&got, p, "{when}: point {i}");
        }
        let peaks: Vec<u64> = m.peaks().iter().map(|&p| keys[p as usize]).collect();
        assert_eq!(peaks, self.peaks, "{when}: peaks");
    }
}

/// `m` is a DP forest: every non-peak link climbs in `(rho, id)` (so no
/// link can close a cycle), and no chain of links revisits a point.
fn assert_forest(m: &ClusterModel, when: &str) {
    let n = m.len();
    let up = m.upslopes();
    for i in (0..n as PointId).filter(|i| !m.peaks().contains(i)) {
        let u = up[i as usize];
        if u != NO_UPSLOPE {
            assert!(
                (m.rho(u), u) > (m.rho(i), i),
                "{when}: {i} links down to {u}"
            );
        }
    }
    // Colour each chain: 1 on the current walk, 2 once known to end.
    let mut state = vec![0u8; n];
    for start in 0..n {
        let mut walk = Vec::new();
        let mut at = start;
        while state[at] == 0 {
            state[at] = 1;
            walk.push(at);
            match up[at] {
                NO_UPSLOPE => break,
                u => at = u as usize,
            }
        }
        assert!(
            state[at] != 1 || up[at] == NO_UPSLOPE,
            "{when}: a cycle through {at}"
        );
        walk.iter().for_each(|&w| state[w] = 2);
    }
}

/// One batch from `(kind, pick, jitter)` codes against the published model
/// `now`, whose points carry `keys`: a jittered copy of a point, an exact
/// duplicate, a far point, a delete, a peak delete, or a delete of the
/// newest point's link target.
fn batch(now: &ClusterModel, keys: &[u64], codes: &[(u8, u16, f64)]) -> Vec<DeltaOp> {
    let mut ops = Vec::new();
    for &(kind, pick, jitter) in codes {
        let id = pick as usize % now.len();
        let p = now.point(id as u32);
        match kind {
            0 => ops.push(DeltaOp::Insert(p.iter().map(|x| x + jitter).collect())),
            1 => ops.push(DeltaOp::Insert(p.to_vec())),
            2 => ops.push(DeltaOp::Insert(vec![jitter * 200.0, 300.0])),
            3 => ops.push(DeltaOp::Delete(keys[id])),
            4 => {
                let peak = now.peaks()[pick as usize % now.n_clusters()];
                ops.push(DeltaOp::Delete(keys[peak as usize]));
            }
            _ => {
                let newest = now.upslopes()[now.len() - 1];
                if newest != NO_UPSLOPE {
                    ops.push(DeltaOp::Delete(keys[newest as usize]));
                }
            }
        }
    }
    ops
}

/// Applies each batch, mirrors every accepted one (a rejected one changes
/// nothing) in `reference`, and checks the published model against it.
fn drive(
    session: &mut IngestSession,
    reference: &mut Reference,
    batches: &[Vec<(u8, u16, f64)>],
    when: &str,
) {
    for (b, codes) in batches.iter().enumerate() {
        let now = session.publish();
        let ops = batch(&now, &session.live_keys(), codes);
        if session.apply(ops.clone()).is_err() {
            continue;
        }
        for op in &ops {
            match op {
                DeltaOp::Insert(q) => reference.insert(q),
                DeltaOp::Delete(key) => reference.delete(*key),
            }
        }
        let published = session.publish();
        let when = format!("{when}, batch {b}");
        reference.check(&published, &session.live_keys(), &when);
        assert_forest(&published, &when);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_write_is_the_rule_by_brute_force_and_publishes_a_forest(
        indexed in any::<bool>(),
        batches in proptest::collection::vec(
            proptest::collection::vec((0u8..6, any::<u16>(), -2.0f64..2.0), 1..12),
            1..4,
        ),
        later in proptest::collection::vec(
            proptest::collection::vec((0u8..6, any::<u16>(), -2.0f64..2.0), 1..12),
            1..3,
        ),
    ) {
        let base = &bases()[usize::from(indexed)];
        assert_forest(base, "base");
        let mut session = IngestSession::new(base, config());
        let mut reference = Reference::of(base);
        drive(&mut session, &mut reference, &batches, "applied");
        // A session opened on a published model keys its points afresh.
        let published = session.publish();
        let mut opened = IngestSession::new(&published, config());
        let mut reopened = Reference::of(&published);
        drive(&mut opened, &mut reopened, &later, "reopened");
        drive(&mut session, &mut reference, &later, "continued");
    }
}
