//! The online query path: the paper's upslope rule applied to one query
//! (§II-A, §IV-C). A query takes the label of the nearest model point at
//! least as dense as itself, found exactly by the model's kd index — a
//! ball count for the query's density, then a nearest search under a
//! density-key floor — the serving-time analog of the batch pipeline's
//! upslope assignment.
//!
//! A published model reads through the base index of its lineage
//! ([`ClusterModel::with_derived_index`]): its deleted base rows are
//! skipped, and the rows inserted since are scanned beside the index, so
//! every answer is the rule over exactly the model's points. [`View`] is
//! that point set as the rule sees it, and [`Probe`] the rule itself: the
//! engine reads through one, and so does an ingest session, which answers
//! each write with the same searches.

use crate::model::ClusterModel;
use dp_core::distance::{nearest_in_block, squared_euclidean_block};
use dp_core::local::Key;
use dp_core::{DensityKeys, PointId, SpatialIndex, NO_UPSLOPE};

/// The answer to one `assign` query.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// The assigned cluster.
    pub cluster: u32,
    /// Assignment confidence in `[0, 1]`: 1.0 for a query on a model point,
    /// else the proximity score `d_c / (d_c + d)` to the chosen point or,
    /// for the center fallback, center.
    pub confidence: f64,
    /// Whether the nearest-center fallback produced the answer: only a
    /// query with a NaN or infinite coordinate gets it.
    pub fallback: bool,
    /// The query's local density under the model's `d_c`: the model
    /// points at `0 < d² < d_c²`.
    pub rho_estimate: u32,
    /// Whether the point the query attached to is a halo (border) point.
    pub halo: bool,
}

/// A loaded model plus the density keys its reads search under —
/// everything needed to answer queries, immutable and shareable across
/// threads.
pub struct QueryEngine {
    model: ClusterModel,
    centers: Vec<f64>,
    /// Per row of the model's index, the key `(rho + 1, id)` in this
    /// model's ids and `rho`, and `(0, 0)` for a deleted row, so a floor of
    /// `(r + 1, 0)` admits exactly the live points with `rho >= r`. `None`
    /// when the model has no index and reads scan every point.
    keys: Option<DensityKeys>,
    /// The same keys for the points the index does not hold, in id order.
    scanned: Vec<Key>,
}

impl QueryEngine {
    /// Builds the engine: the model's index (built on first use and shared
    /// by its clones and lineage) and the density keys over it.
    pub fn new(model: ClusterModel) -> Self {
        let _span = obsv::span!("serve", "engine/build");
        let centers = model.center_block();
        let reads = model.reads();
        let key = |id: PointId| (model.rho(id).saturating_add(1), id);
        let keys = reads.index.map(|index| {
            index.density_keys(|row| match reads.id(row) {
                NO_UPSLOPE => (0, 0),
                id => key(id),
            })
        });
        let scanned = (reads.block..model.len() as PointId).map(key).collect();
        QueryEngine {
            model,
            centers,
            keys,
            scanned,
        }
    }

    /// The underlying model.
    pub fn model(&self) -> &ClusterModel {
        &self.model
    }

    /// Assigns one query point to a cluster.
    ///
    /// A finite query takes, among the model's points:
    /// * the smallest id at `d² == 0` (a twin), at confidence 1.0;
    /// * else the nearest point whose stored `rho` is at least the query's
    ///   [`rho_estimate`](Assignment::rho_estimate), ties to the smaller id;
    /// * else, or if that point lies at `d² >= d_c²`, the nearest point.
    ///
    /// A query with a NaN or infinite coordinate gets the nearest-center
    /// fallback, with `fallback: true`, `rho_estimate: 0` and
    /// `confidence: 0.0`.
    ///
    /// # Panics
    /// Panics if the query's dimensionality does not match the model.
    pub fn assign(&self, query: &[f64]) -> Assignment {
        assert_eq!(query.len(), self.model.dim(), "query dim mismatch");
        self.assign_batch(query)
            .pop()
            .expect("one query in, one answer out")
    }

    /// Assigns a flat row-major block of queries in one call.
    ///
    /// Finite queries are answered one by one; every non-finite query is
    /// deferred and resolved with a single [`nearest_in_block`] sweep over
    /// the centers. Each answer is the one [`QueryEngine::assign`] gives.
    ///
    /// # Panics
    /// Panics if the block length is not a multiple of the model dimension.
    pub fn assign_batch(&self, queries: &[f64]) -> Vec<Assignment> {
        let dim = self.model.dim();
        assert_eq!(
            queries.len() % dim,
            0,
            "query block length must be a multiple of dim"
        );

        let mut out: Vec<Option<Assignment>> = Vec::with_capacity(queries.len() / dim);
        let mut deferred: Vec<usize> = Vec::new(); // indices needing the center sweep
        let mut deferred_block: Vec<f64> = Vec::new();
        for (qi, q) in queries.chunks_exact(dim).enumerate() {
            if q.iter().all(|x| x.is_finite()) {
                out.push(Some(self.probe(q)));
            } else {
                out.push(None);
                deferred.push(qi);
                deferred_block.extend_from_slice(q);
            }
        }

        if !deferred.is_empty() {
            let nearest = nearest_in_block(&deferred_block, &self.centers, dim);
            for (&qi, (center, d)) in deferred.iter().zip(nearest) {
                let peak = self.model.peaks()[center];
                out[qi] = Some(Assignment {
                    cluster: center as u32,
                    confidence: proximity(self.model.dc(), d),
                    fallback: true,
                    rho_estimate: 0,
                    halo: self.model.is_halo(peak),
                });
            }
        }
        out.into_iter()
            .map(|a| a.expect("every query answered"))
            .collect()
    }

    /// The rule [`QueryEngine::assign`] states, for one finite query.
    fn probe(&self, q: &[f64]) -> Assignment {
        let model = &self.model;
        let reads = model.reads();
        let view = View {
            dc: model.dc(),
            index: reads.index.zip(self.keys.as_ref()),
            dead: reads.dead,
            scanned: &model.coords()[reads.block as usize * model.dim()..],
            scanned_keys: &self.scanned,
        };
        let read = view.probe(q).read();
        Assignment {
            cluster: model.label(read.id),
            confidence: if read.d2 == 0.0 {
                1.0
            } else {
                proximity(model.dc(), read.d2.sqrt())
            },
            fallback: false,
            rho_estimate: read.rho,
            halo: model.is_halo(read.id),
        }
    }
}

/// A point set as the read rule sees it: the points an exact index holds,
/// found through it, and the rest scanned. Every point carries the key
/// `(rho + 1, id)`, and a deleted one `(0, 0)`, so that a key floor of
/// `(r + 1, 0)` admits the live points with `rho >= r`, and one of
/// `(r + 1, i + 1)` those strictly denser than `(r, i)` under
/// [`dp_core::dp::denser`].
pub struct View<'a> {
    /// The cutoff distance.
    pub dc: f64,
    /// The kd index and the keys laid over its rows; `None` when every
    /// point is scanned.
    pub index: Option<(&'a SpatialIndex, &'a DensityKeys)>,
    /// The coordinates of the index's deleted rows, row-major.
    pub dead: &'a [f64],
    /// The coordinates of the points the index does not hold, row-major.
    pub scanned: &'a [f64],
    /// Their keys, one per scanned point.
    pub scanned_keys: &'a [Key],
}

/// What the read rule answers for one query: its density, and the point
/// it attaches to with the squared distance to it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Read {
    /// The live points at `0 < d² < d_c²`.
    pub rho: u32,
    /// The point the query takes its label from.
    pub id: PointId,
    /// The query's `d²` to it; `0.0` for a twin.
    pub d2: f64,
}

impl View<'_> {
    /// One query against this view, which must be finite and of the
    /// view's dimensionality. The scanned points' distances are computed
    /// here, once for every search the probe runs.
    pub fn probe<'q>(&'q self, q: &'q [f64]) -> Probe<'q> {
        debug_assert!(q.iter().all(|x| x.is_finite()), "a finite query");
        let mut d2 = Vec::new();
        if !self.scanned.is_empty() {
            squared_euclidean_block(q, self.scanned, q.len(), &mut d2);
        }
        Probe { view: self, q, d2 }
    }
}

/// One finite query against a [`View`].
pub struct Probe<'a> {
    view: &'a View<'a>,
    q: &'a [f64],
    /// `d²` to each scanned point.
    d2: Vec<f64>,
}

impl Probe<'_> {
    /// The live scanned points, as `(d², key)`.
    fn scanned(&self) -> impl Iterator<Item = (f64, Key)> + '_ {
        let keys = self.view.scanned_keys.iter().copied();
        self.d2.iter().copied().zip(keys).filter(|&(_, k)| k.0 > 0)
    }

    /// The nearest point, by `(d², id)`, whose key is at least `floor`.
    pub fn nearest(&self, floor: Key) -> Option<(f64, PointId)> {
        let mut best = self
            .view
            .index
            .map(|(index, keys)| index.nearest_by_d2(self.q, keys, floor).0)
            .filter(|&(_, id)| id != NO_UPSLOPE);
        for (d2, (_, id)) in self.scanned().filter(|&(_, k)| k >= floor) {
            if best.is_none_or(|(b2, b)| d2.total_cmp(&b2).then(id.cmp(&b)).is_lt()) {
                best = Some((d2, id));
            }
        }
        best
    }

    /// The read rule: the smallest id at `d² == 0` (a twin); else the
    /// nearest point whose `rho` is at least the query's, unless it lies
    /// at `d² >= d_c²` while that `rho` is positive; else the nearest
    /// point. The index counts the rows in the query's ball box by box and
    /// its rows at `d² == 0` the same way, and the deleted rows are taken
    /// back out of the count by a scan.
    ///
    /// # Panics
    /// Panics if the view holds no live point.
    pub fn read(&self) -> Read {
        let (view, q) = (self.view, self.q);
        let dc2 = view.dc * view.dc;
        // The query's density excludes exact coordinate matches: a held-in
        // query *is* its twin, and `rho` never counts the point itself.
        let (mut rho, mut twin) = (0u32, None);
        if let Some((index, keys)) = view.index {
            // Only `d² == 0` lies below the smallest positive `f64`.
            let zero = f64::from_bits(1);
            let (ball, _) = index.range_count_d2(q, dc2);
            let (twins, _) = index.range_count_d2(q, zero);
            if twins > 0 {
                let ((d2, id), _) = index.nearest_by_d2(q, keys, (1, 0));
                twin = (d2 == 0.0).then_some(id);
            }
            let mut dead = Vec::new();
            if !view.dead.is_empty() {
                squared_euclidean_block(q, view.dead, q.len(), &mut dead);
            }
            let dead = dead.iter().filter(|&&d2| d2 > 0.0 && d2 < dc2).count() as u32;
            rho = ball.saturating_sub(twins) - dead;
        }
        for (d2, (_, id)) in self.scanned() {
            if d2 == 0.0 {
                twin = Some(twin.map_or(id, |t: PointId| t.min(id)));
            } else if d2 < dc2 {
                rho += 1;
            }
        }

        let (d2, id) = match twin {
            Some(id) => (0.0, id),
            // An anchor beyond `d_c` would make the query a peak candidate,
            // and a query cannot become a peak: it yields to the nearest
            // point, which is the anchor itself when `rho` is 0.
            None => match self.nearest((rho + 1, 0)) {
                Some((d2, id)) if d2 < dc2 || rho == 0 => (d2, id),
                _ => self.nearest((1, 0)).expect("a view holds a live point"),
            },
        };
        Read { rho, id, d2 }
    }
}

/// Smooth proximity score in `[0, 1]`: 1 at distance 0, 0.5 at `d_c`;
/// 0 at an infinite or NaN distance (a non-finite query).
fn proximity(dc: f64, d: f64) -> f64 {
    if d.is_nan() {
        0.0
    } else {
        dc / (dc + d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::fitted_model;
    use dp_core::distance::squared_euclidean;

    /// The nearest center to `query` by `(distance, id)`.
    fn nearest_center(engine: &QueryEngine, query: &[f64]) -> u32 {
        let m = engine.model();
        (0..m.n_clusters() as u32)
            .map(|c| (squared_euclidean(query, m.point(m.peaks()[c as usize])), c))
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
            .expect("a model keeps a peak")
            .1
    }

    #[test]
    fn held_in_points_reproduce_their_batch_labels_exactly() {
        // 240 points scan, 360 go through the index.
        for n_per in [80, 120] {
            let engine = QueryEngine::new(fitted_model(n_per, 11));
            assert_eq!(engine.keys.is_some(), n_per == 120);
            let m = engine.model().clone();
            for id in 0..m.len() as u32 {
                let a = engine.assign(m.point(id));
                assert_eq!(a.cluster, m.label(id), "point {id}");
                assert_eq!(a.confidence, 1.0, "a held-in point is its own twin");
                assert!(!a.fallback);
            }
        }
    }

    #[test]
    fn a_far_query_takes_its_nearest_points_label() {
        let engine = QueryEngine::new(fitted_model(120, 13));
        let m = engine.model();
        for far in [1e6, -3e5] {
            let q = vec![far; m.dim()];
            let nearest = (0..m.len() as u32)
                .min_by(|&a, &b| {
                    let d = |id| squared_euclidean(&q, m.point(id));
                    d(a).total_cmp(&d(b)).then(a.cmp(&b))
                })
                .unwrap();
            let a = engine.assign(&q);
            assert!(!a.fallback, "a finite query never falls back");
            assert_eq!(a.rho_estimate, 0);
            assert_eq!(a.cluster, m.label(nearest));
            assert!(a.confidence < 0.01, "confidence decays with distance");
        }
    }

    #[test]
    fn a_non_finite_query_takes_the_nearest_center_fallback() {
        for n_per in [60, 120] {
            let engine = QueryEngine::new(fitted_model(n_per, 17));
            for q in [
                [f64::NAN, 0.0],
                [f64::INFINITY, 1.0],
                [2.0, f64::NEG_INFINITY],
            ] {
                let a = engine.assign(&q);
                assert!(a.fallback, "{q:?}");
                assert_eq!(a.rho_estimate, 0);
                assert_eq!(a.confidence.to_bits(), 0.0f64.to_bits());
                assert_eq!(a.cluster, nearest_center(&engine, &q));
            }
            // A finite query whose distances overflow still gets a point.
            assert!(!engine.assign(&[1e300, -1e300]).fallback);
        }
    }

    #[test]
    fn rho_estimate_is_the_exact_ball_count() {
        for n_per in [50, 120] {
            let engine = QueryEngine::new(fitted_model(n_per, 15));
            let m = engine.model().clone();
            let dc2 = m.dc() * m.dc();
            for id in (0..m.len() as u32).step_by(7) {
                let q: Vec<f64> = m.point(id).iter().map(|x| x + 0.1).collect();
                let truth = (0..m.len() as u32)
                    .filter(|&j| {
                        let d2 = squared_euclidean(&q, m.point(j));
                        d2 > 0.0 && d2 < dc2
                    })
                    .count() as u32;
                assert_eq!(engine.assign(&q).rho_estimate, truth);
            }
        }
    }

    #[test]
    fn batched_and_single_assignment_agree() {
        let model = fitted_model(40, 16);
        let dim = model.dim();
        let engine = QueryEngine::new(model);
        let m = engine.model();
        let mut block: Vec<f64> = m.coords()[..10 * dim].to_vec();
        block.extend(std::iter::repeat_n(1e6, dim)); // far, but finite
        block.extend(std::iter::repeat_n(f64::NAN, dim));
        let batch = engine.assign_batch(&block);
        for (i, a) in batch.iter().enumerate() {
            let single = engine.assign(&block[i * dim..(i + 1) * dim]);
            assert_eq!(*a, single, "query {i}");
        }
        assert_eq!(batch.iter().filter(|a| a.fallback).count(), 1);
    }
}
