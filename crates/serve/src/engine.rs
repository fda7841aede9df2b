//! The online query path: hash an incoming point through the model's
//! stored LSH layouts, probe the colliding buckets for its nearest
//! higher-density neighbor, and inherit that neighbor's cluster — the
//! serving-time analog of the batch pipeline's upslope assignment.
//!
//! The engine redraws the `M` hash layouts deterministically from the
//! model's `(params, seed)` at construction and probes the model's own
//! bucket tables ([`ClusterModel::tables`]), so queries see exactly the
//! partitioning the batch run used: a query collides with the training
//! points it *would have* shared reducer partitions with.

use crate::model::ClusterModel;
use dp_core::distance::{nearest_in_block, squared_euclidean};
use dp_core::{DensityKeys, SpatialIndex, NO_UPSLOPE};
use lsh::{BucketUnion, MultiLsh};
use std::cell::RefCell;

/// A scored probe candidate: `(id, stored rho, d²)`.
type Scored = (u32, u32, f64);

thread_local! {
    /// Per-thread bucket-probe scratch: a server worker reuses its own.
    static UNION: RefCell<BucketUnion> = RefCell::default();
    /// Per-thread candidate scores, reused by every probe like `UNION`.
    static SCORED: RefCell<Vec<Scored>> = RefCell::default();
}

/// How much exact work the query path may do — the accuracy/latency knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Exactness {
    /// Buckets only: answer purely from LSH collisions; the exact
    /// nearest-center fallback fires only when no bucket collides at all.
    Lsh,
    /// Buckets first, but a query with no bucket-mate within `d_c` (i.e.
    /// outside the modeled density support) falls back to the exact
    /// nearest-center scan. The default: held-in points keep the pure LSH
    /// path, out-of-distribution points degrade gracefully.
    #[default]
    Hybrid,
    /// Ignore the buckets: exact density and exact nearest
    /// higher-density-neighbor scan over all training points. The gold
    /// standard the approximate modes are measured against.
    Exact,
}

impl std::str::FromStr for Exactness {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "lsh" => Ok(Exactness::Lsh),
            "hybrid" => Ok(Exactness::Hybrid),
            "exact" => Ok(Exactness::Exact),
            other => Err(format!("unknown exactness {other:?} (lsh|hybrid|exact)")),
        }
    }
}

/// The answer to one `assign` query.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// The assigned cluster.
    pub cluster: u32,
    /// Assignment confidence in `(0, 1]`. On the LSH path this is the
    /// fraction of the `M` layouts in which the chosen anchor shares the
    /// query's bucket (a held-in point anchors on itself in every layout
    /// and scores 1.0); on exact paths it is the proximity score
    /// `d_c / (d_c + d)` to the chosen anchor or center.
    pub confidence: f64,
    /// Whether the exact nearest-center fallback produced the answer.
    pub fallback: bool,
    /// The query's estimated local density (bucket-mates within `d_c`;
    /// exact count under [`Exactness::Exact`]).
    pub rho_estimate: u32,
    /// Whether the anchor the query attached to is a halo (border) point.
    pub halo: bool,
}

/// A loaded model plus its hash layouts — everything needed to answer
/// queries, immutable and shareable across threads.
pub struct QueryEngine {
    model: ClusterModel,
    multi: MultiLsh,
    centers: Vec<f64>,
    exactness: Exactness,
    /// Spatial index over the training points, built once at construction
    /// when the policy is [`Exactness::Exact`] and the local-DP routing
    /// rule ([`dp_core::local::use_indexed`]) picks the index. The
    /// training ids double as index positions (coords are stored in id
    /// order), so index hits map straight back to model ids. The keys are
    /// `(rho, id)`, so "at least as dense as the query" is a key floor.
    index: Option<(SpatialIndex, DensityKeys)>,
}

impl QueryEngine {
    /// Builds the engine with the default [`Exactness::Hybrid`] policy.
    pub fn new(model: ClusterModel) -> Self {
        Self::with_exactness(model, Exactness::default())
    }

    /// Builds the engine with an explicit exactness policy. The bucket
    /// policies make sure the model's tables exist before the first query
    /// (a no-op for a model that already has them); [`Exactness::Exact`]
    /// never probes a bucket, so it never builds them.
    pub fn with_exactness(model: ClusterModel, exactness: Exactness) -> Self {
        let _span = obsv::span!("serve", "engine/build");
        let multi = model.layouts();
        let n = model.len();
        let dim = model.dim();
        if exactness != Exactness::Exact {
            model.tables();
        }
        let centers = model.center_block();
        let indexed =
            exactness == Exactness::Exact && dp_core::local::use_indexed(n, &[model.coords()]);
        let index = indexed.then(|| {
            let index = SpatialIndex::build(model.coords(), dim, model.dc());
            let keys = index.density_keys(|id| (model.rho(id), id));
            (index, keys)
        });
        QueryEngine {
            model,
            multi,
            centers,
            exactness,
            index,
        }
    }

    /// The underlying model.
    pub fn model(&self) -> &ClusterModel {
        &self.model
    }

    /// The active exactness policy.
    pub fn exactness(&self) -> Exactness {
        self.exactness
    }

    /// Assigns one query point to a cluster.
    ///
    /// A query with a NaN or infinite coordinate skips the buckets and the
    /// index under every policy: the nearest-center fallback answers it,
    /// with `fallback: true`, `rho_estimate: 0` and `confidence: 0.0`.
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
    /// The per-query bucket probes run sequentially, but every query that
    /// needs the exact nearest-center fallback is deferred and resolved
    /// with a single [`nearest_in_block`] sweep — the batched distance
    /// kernel the server's micro-batches exist to feed. Non-finite queries
    /// get the fallback answer [`QueryEngine::assign`] describes.
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
            let finite = q.iter().all(|x| x.is_finite());
            match finite.then(|| self.probe(q)).flatten() {
                Some(a) => out.push(Some(a)),
                None => {
                    out.push(None);
                    deferred.push(qi);
                    deferred_block.extend_from_slice(q);
                }
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

    /// The `k` centers nearest to `query` as `(cluster id, distance)`,
    /// ascending by distance. Always exact — there are only `n_clusters`
    /// centers.
    pub fn top_k_centers(&self, query: &[f64], k: usize) -> Vec<(u32, f64)> {
        assert_eq!(query.len(), self.model.dim(), "query dim mismatch");
        let mut scored: Vec<(u32, f64)> = self
            .centers
            .chunks_exact(self.model.dim())
            .enumerate()
            .map(|(c, p)| (c as u32, squared_euclidean(query, p).sqrt()))
            .collect();
        scored.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        scored.truncate(k);
        scored
    }

    /// The query's estimated local density: its would-be `rho` under the
    /// model's `d_c`. Counted over bucket-mates (a lower bound, exactly
    /// the paper's LSH density estimate) unless the policy is
    /// [`Exactness::Exact`], which counts over all training points.
    pub fn density_at(&self, query: &[f64]) -> u32 {
        assert_eq!(query.len(), self.model.dim(), "query dim mismatch");
        let dc2 = self.model.dc() * self.model.dc();
        let within = |id: u32| {
            let d2 = squared_euclidean(query, self.model.point(id));
            d2 > 0.0 && d2 < dc2
        };
        if let Some((idx, _)) = &self.index {
            let mut count = 0u32;
            idx.for_each_within_d2(query, dc2, |_, d2| {
                if d2 > 0.0 {
                    count += 1;
                }
            });
            return count;
        }
        match self.exactness {
            Exactness::Exact => (0..self.model.len() as u32).filter(|&i| within(i)).count() as u32,
            _ => self.collisions(query, |u| {
                u.ids().iter().filter(|&&i| within(i)).count() as u32
            }),
        }
    }

    /// Bucket probe: hands `f` the ids sharing a bucket with the query, in
    /// collision order, and the number of layouts each collided in.
    fn collisions<R>(&self, query: &[f64], f: impl FnOnce(&BucketUnion) -> R) -> R {
        let tables = self.model.tables();
        UNION.with_borrow_mut(|u| f(u.collect(tables, &self.multi.signatures(query))))
    }

    /// The LSH/exact anchor search. `None` means "defer to the batched
    /// nearest-center fallback".
    fn probe(&self, query: &[f64]) -> Option<Assignment> {
        if let Some((idx, keys)) = &self.index {
            let dc = self.model.dc();
            return self.probe_indexed((idx, keys), query, dc, dc * dc);
        }
        SCORED.with_borrow_mut(|scored| match self.exactness {
            Exactness::Exact => {
                let layouts = self.multi.layouts() as u32;
                self.anchor(query, 0..self.model.len() as u32, |_| layouts, scored)
            }
            _ => self.collisions(query, |u| {
                self.anchor(query, u.ids().iter().copied(), |id| u.hits(id), scored)
            }),
        })
    }

    /// Scores `candidates` (ids in any order) into `scored` and picks the
    /// anchor; `hits` counts the layouts a candidate collided in. Every
    /// choice is a function of the candidate *set*: the twin is the
    /// smallest id at `d² == 0`, and the anchor is the minimum under
    /// `(d².total_cmp, id)`.
    fn anchor(
        &self,
        query: &[f64],
        candidates: impl Iterator<Item = u32>,
        hits: impl Fn(u32) -> u32,
        scored: &mut Vec<Scored>,
    ) -> Option<Assignment> {
        let dc = self.model.dc();
        let dc2 = dc * dc;
        // The query's density estimate excludes exact coordinate matches:
        // a held-in query *is* its training twin, and `rho` never counts
        // the point itself. A zero-distance candidate (the smallest id of
        // several) IS the query: inherit its cluster outright. Without
        // this, a training point whose pipeline-estimated `rho`
        // undercounts the bucket-union recount here could lose its own
        // anchor slot to a farther neighbor.
        scored.clear();
        let mut rho_est = 0u32;
        let mut twin: Option<Scored> = None;
        for id in candidates {
            let d2 = squared_euclidean(query, self.model.point(id));
            let c = (id, self.model.rho(id), d2);
            if d2 > 0.0 && d2 < dc2 {
                rho_est += 1;
            } else if d2 == 0.0 && twin.is_none_or(|t| id < t.0) {
                twin = Some(c);
            }
            scored.push(c);
        }
        if scored.is_empty() {
            return None;
        }
        if twin.is_none() && self.exactness == Exactness::Hybrid && rho_est == 0 {
            return None; // outside the modeled support: exact fallback
        }
        // Otherwise the anchor: nearest candidate at least as dense as the
        // query (the upslope rule); failing that, plain nearest candidate.
        let nearest = |dense: bool| {
            scored
                .iter()
                .filter(|c| !dense || c.1 >= rho_est)
                .min_by(|a, b| a.2.total_cmp(&b.2).then(a.0.cmp(&b.0)))
                .copied()
        };
        let (id, _, d2) = twin.or_else(|| nearest(true)).or_else(|| nearest(false))?;
        let confidence = match self.exactness {
            Exactness::Exact if d2 == 0.0 => 1.0,
            Exactness::Exact => proximity(dc, d2.sqrt()),
            _ => f64::from(hits(id)) / self.multi.layouts() as f64,
        };
        Some(Assignment {
            cluster: self.model.label(id),
            confidence,
            fallback: false,
            rho_estimate: rho_est,
            halo: self.model.is_halo(id),
        })
    }

    /// The exact anchor search over the spatial index: one ball query
    /// yields the density estimate and the zero-distance twin; the anchor
    /// comes from a pruned nearest search comparing raw squared distances
    /// with the same smallest-id tie-break as the scalar scan. `None`
    /// defers to the batched nearest-center fallback (only a non-finite
    /// query, whose distance keys defeat every comparison, gets there).
    fn probe_indexed(
        &self,
        (idx, keys): (&SpatialIndex, &DensityKeys),
        query: &[f64],
        dc: f64,
        dc2: f64,
    ) -> Option<Assignment> {
        let mut rho_est = 0u32;
        let mut twin: Option<u32> = None;
        idx.for_each_within_d2(query, dc2, |id, d2| {
            if d2 > 0.0 {
                rho_est += 1;
            } else {
                twin = Some(twin.map_or(id, |t| t.min(id)));
            }
        });
        if let Some(id) = twin {
            // A zero-distance candidate IS the query (cf. the scalar path).
            return Some(Assignment {
                cluster: self.model.label(id),
                confidence: 1.0,
                fallback: false,
                rho_estimate: rho_est,
                halo: self.model.is_halo(id),
            });
        }
        let ((mut d2, mut id), _) = idx.nearest_by_d2(query, keys, (rho_est, 0));
        if id == NO_UPSLOPE {
            // No candidate at least as dense as the query: plain nearest.
            ((d2, id), _) = idx.nearest_by_d2(query, keys, (0, 0));
        }
        if id == NO_UPSLOPE {
            // Even unrestricted nearest found nothing: a NaN coordinate
            // fails every `key <= cap` test. Never index the model with
            // the sentinel — hand the query to the center fallback.
            return None;
        }
        Some(Assignment {
            cluster: self.model.label(id),
            confidence: proximity(dc, d2.sqrt()),
            fallback: false,
            rho_estimate: rho_est,
            halo: self.model.is_halo(id),
        })
    }
}

/// Smooth proximity score in `(0, 1]`: 1 at distance 0, 0.5 at `d_c`;
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

    #[test]
    fn held_in_points_reproduce_their_batch_labels_exactly() {
        let model = fitted_model(80, 11);
        let engine = QueryEngine::new(model);
        let m = engine.model().clone();
        for id in 0..m.len() as u32 {
            let a = engine.assign(m.point(id));
            assert_eq!(a.cluster, m.label(id), "point {id}");
            assert_eq!(a.confidence, 1.0, "self-collision in every layout");
            assert!(!a.fallback);
        }
    }

    #[test]
    fn exact_mode_agrees_on_held_in_points_too() {
        let model = fitted_model(60, 12);
        let engine = QueryEngine::with_exactness(model, Exactness::Exact);
        assert!(engine.index.is_none(), "180 points stay on the scalar scan");
        let unbuilt = |e: &QueryEngine| format!("{:?}", e.model()).contains("tables: unbuilt");
        assert!(unbuilt(&engine), "an exact engine never builds the tables");
        assert!(!unbuilt(&QueryEngine::new(engine.model().clone())));
        let m = engine.model().clone();
        for id in (0..m.len() as u32).step_by(3) {
            let a = engine.assign(m.point(id));
            assert_eq!(a.cluster, m.label(id), "point {id}");
            assert_eq!(a.confidence, 1.0);
        }
    }

    /// The exact engine over 360 finite points, which the routing rule
    /// indexes, beside the same engine with its index taken away — the
    /// scalar scan every smaller or non-finite model gets.
    fn scalar_and_indexed() -> (QueryEngine, QueryEngine) {
        let model = fitted_model(120, 17);
        let indexed = QueryEngine::with_exactness(model.clone(), Exactness::Exact);
        assert!(indexed.index.is_some(), "360 finite points must index");
        let mut scalar = QueryEngine::with_exactness(model, Exactness::Exact);
        scalar.index = None;
        (scalar, indexed)
    }

    #[test]
    fn exact_indexed_probe_matches_blocked_bitwise() {
        let (blocked, indexed) = scalar_and_indexed();
        let m = blocked.model().clone();
        for id in (0..m.len() as u32).step_by(5) {
            let mut q = m.point(id).to_vec();
            assert_eq!(blocked.assign(&q), indexed.assign(&q), "held-in {id}");
            for (k, v) in q.iter_mut().enumerate() {
                *v += 0.37 + k as f64 * 0.11;
            }
            assert_eq!(blocked.assign(&q), indexed.assign(&q), "perturbed {id}");
            assert_eq!(blocked.density_at(&q), indexed.density_at(&q));
        }
    }

    /// Regression: far out-of-distribution queries against the indexed
    /// exact engine must return promptly and agree with the blocked scalar
    /// path bit-for-bit.
    #[test]
    fn exact_indexed_probe_survives_far_and_nonfinite_queries() {
        let (blocked, indexed) = scalar_and_indexed();
        for q in [[1e9, 1e9], [-1e12, 4.0], [1e300, -1e300]] {
            assert_eq!(blocked.assign(&q), indexed.assign(&q), "q={q:?}");
        }
        // A NaN query defeats every distance comparison: the indexed path
        // must hand it to the nearest-center fallback, not panic on the
        // NO_UPSLOPE sentinel.
        let a = indexed.assign(&[f64::NAN, 0.0]);
        assert!(a.fallback, "non-finite query must use the center fallback");
        assert!((a.cluster as usize) < indexed.model().n_clusters());
    }

    #[test]
    fn far_away_query_takes_the_nearest_center_fallback() {
        let model = fitted_model(60, 13);
        let engine = QueryEngine::new(model);
        let far = vec![1e6; engine.model().dim()];
        let a = engine.assign(&far);
        assert!(
            a.fallback,
            "a point far outside every bucket must fall back"
        );
        assert!(
            a.confidence < 0.01,
            "fallback confidence decays with distance"
        );
        assert_eq!(a.rho_estimate, 0);
        let (nearest_center, _) = engine.top_k_centers(&far, 1)[0];
        assert_eq!(a.cluster, nearest_center);
    }

    #[test]
    fn top_k_centers_is_sorted_and_bounded() {
        let model = fitted_model(60, 14);
        let k_max = model.n_clusters();
        let engine = QueryEngine::new(model);
        let q = engine.model().point(0).to_vec();
        let got = engine.top_k_centers(&q, 100);
        assert_eq!(got.len(), k_max);
        assert!(got.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn density_at_matches_a_brute_force_count_in_exact_mode() {
        // Note: training `rho` is itself the pipeline's LSH *estimate*, so
        // the reference here is a brute-force recount, not `model.rho`.
        let model = fitted_model(50, 15);
        let engine = QueryEngine::with_exactness(model, Exactness::Exact);
        let m = engine.model().clone();
        let dc2 = m.dc() * m.dc();
        for id in (0..m.len() as u32).step_by(7) {
            let q = m.point(id);
            let truth = (0..m.len() as u32)
                .filter(|&j| {
                    let d2 = dp_core::distance::squared_euclidean(q, m.point(j));
                    d2 > 0.0 && d2 < dc2
                })
                .count() as u32;
            assert_eq!(engine.density_at(q), truth);
        }
    }

    #[test]
    fn batched_and_single_assignment_agree() {
        let model = fitted_model(40, 16);
        let dim = model.dim();
        let engine = QueryEngine::new(model);
        let m = engine.model();
        let mut block: Vec<f64> = m.coords()[..10 * dim].to_vec();
        block.extend(std::iter::repeat_n(1e6, dim)); // one OOD straggler
        let batch = engine.assign_batch(&block);
        for (i, a) in batch.iter().enumerate() {
            let single = engine.assign(&block[i * dim..(i + 1) * dim]);
            assert_eq!(*a, single, "query {i}");
        }
        assert!(batch.last().unwrap().fallback);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// The probe as it was over an ascending union, kept as the
        /// definition of the tie-breaks: candidates scored in id order,
        /// the twin by `find`, the anchor by `min_by` on `d²` alone (the
        /// first of equals, so the smallest id).
        fn sorted_union_probe(e: &QueryEngine, query: &[f64]) -> Option<Assignment> {
            let dc = e.model.dc();
            let dc2 = dc * dc;
            let m_layouts = e.multi.layouts() as f64;
            let d2 = |id: u32| squared_euclidean(query, e.model.point(id));
            let scored: Vec<(u32, u32, f64)> = match e.exactness {
                Exactness::Exact => (0..e.model.len() as u32)
                    .map(|id| (id, e.multi.layouts() as u32, d2(id)))
                    .collect(),
                _ => e.collisions(query, |u| {
                    let mut ids = u.ids().to_vec();
                    ids.sort_unstable();
                    ids.iter().map(|&id| (id, u.hits(id), d2(id))).collect()
                }),
            };
            if scored.is_empty() {
                return None;
            }
            let rho_est = scored.iter().filter(|c| c.2 > 0.0 && c.2 < dc2).count() as u32;
            let twin = scored.iter().find(|c| c.2 == 0.0);
            if twin.is_none() && e.exactness == Exactness::Hybrid && rho_est == 0 {
                return None;
            }
            let nearest = |dense: bool| {
                scored
                    .iter()
                    .filter(|c| !dense || e.model.rho(c.0) >= rho_est)
                    .min_by(|a, b| a.2.total_cmp(&b.2))
            };
            let &(id, hits, d2) = twin.or_else(|| nearest(true)).or_else(|| nearest(false))?;
            let confidence = match e.exactness {
                Exactness::Exact if d2 == 0.0 => 1.0,
                Exactness::Exact => proximity(dc, d2.sqrt()),
                _ => f64::from(hits) / m_layouts,
            };
            Some(Assignment {
                cluster: e.model.label(id),
                confidence,
                fallback: false,
                rho_estimate: rho_est,
                halo: e.model.is_halo(id),
            })
        }

        /// Every `Assignment` field, the confidence as bits.
        fn bits(a: &Assignment) -> (u32, u64, bool, u32, bool) {
            (
                a.cluster,
                a.confidence.to_bits(),
                a.fallback,
                a.rho_estimate,
                a.halo,
            )
        }

        /// A point on a half-unit grid over the model's unit grid (so
        /// queries land on training points, between two at equal
        /// distance, or nowhere near), occasionally far or NaN.
        fn coord() -> impl Strategy<Value = f64> {
            (-4i32..14).prop_map(|v| match v {
                12 => 1e9,
                13 => f64::NAN,
                v => f64::from(v) / 2.0,
            })
        }

        proptest! {
            /// Over random small models — duplicate coordinates, few
            /// density levels, so candidates tie on distance and density
            /// alike — the order-free probe answers every query with the
            /// bits the sorted-union probe gave, under every policy. Half
            /// the models list their buckets descending, so the union's
            /// collision order is not the id order either.
            #[test]
            fn probe_matches_the_sorted_union_probe(
                rows in proptest::collection::vec((0i32..4, 0i32..4, 0u32..3, 0u32..3, any::<bool>()), 1..24),
                m in 1usize..6,
                pi in 1usize..3,
                w in (0usize..3).prop_map(|i| [0.5, 1.5, 4.0][i]),
                dc in (0usize..4).prop_map(|i| [0.5, 1.0, 1.5, 2.5][i]),
                (seed, descending) in (any::<u64>(), any::<bool>()),
                queries in proptest::collection::vec((coord(), coord()), 1..16),
            ) {
                let n = rows.len();
                let k = n.min(3);
                let params = lsh::LshParams { m, pi, w };
                let coords: Vec<f64> =
                    rows.iter().flat_map(|r| [f64::from(r.0), f64::from(r.1)]).collect();
                let mut model = ClusterModel::from_parts(
                    1,
                    "test".to_string(),
                    2,
                    dc,
                    params,
                    seed,
                    coords,
                    rows.iter().map(|r| r.2).collect(),
                    vec![1.0; n],
                    vec![NO_UPSLOPE; n],
                    (0..n).map(|i| if i < k { i as u32 } else { rows[i].3 % k as u32 }).collect(),
                    (0..k as u32).collect(),
                    rows.iter().map(|r| r.4).collect(),
                );
                if descending {
                    let mut tables = model.tables().clone();
                    tables.iter_mut().flat_map(|t| t.values_mut()).for_each(|b| b.reverse());
                    model = model.with_tables(tables);
                }
                for exactness in [Exactness::Lsh, Exactness::Hybrid, Exactness::Exact] {
                    let mut engine = QueryEngine::with_exactness(model.clone(), exactness);
                    engine.index = None;
                    for &(x, y) in &queries {
                        let q = [x, y];
                        let want = sorted_union_probe(&engine, &q);
                        let got = engine.probe(&q);
                        prop_assert_eq!(got.as_ref().map(bits), want.as_ref().map(bits), "{:?} at {:?}", exactness, q);
                        let finite = q.iter().all(|x| x.is_finite());
                        prop_assert_eq!(engine.assign(&q).fallback, want.is_none() || !finite);
                    }
                }
            }
        }
    }

    #[test]
    fn exactness_parses_from_cli_strings() {
        assert_eq!("lsh".parse::<Exactness>().unwrap(), Exactness::Lsh);
        assert_eq!("hybrid".parse::<Exactness>().unwrap(), Exactness::Hybrid);
        assert_eq!("exact".parse::<Exactness>().unwrap(), Exactness::Exact);
        assert!("fast".parse::<Exactness>().is_err());
    }
}
