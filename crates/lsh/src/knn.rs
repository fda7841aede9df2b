//! An approximate k-nearest-neighbor index on the multi-layout hashing —
//! the classic E2LSH application (the paper's §VII cites LSH kNN join as
//! the family LSH-DDP borrows from).
//!
//! Build once over a point set; queries collect the candidate union of
//! the query's bucket under every layout and rank candidates by true
//! distance. Recall grows with `M` exactly as LSH-DDP's accuracy does.

use crate::hash::{MultiLsh, Signature};
use crate::tuning::LshParams;
use std::collections::HashMap;

/// Builds one bucket table per layout: `tables[m]` maps each signature
/// under layout `m` to the ids (enumeration order, as `u32`) of the points
/// hashing to it.
///
/// This is the query-time half of the paper's partitioning, factored out
/// so consumers that already own the point storage (the [`LshIndex`] here,
/// the serving layer's `ClusterModel`) can rebuild the tables from a
/// [`MultiLsh`] without copying their points into a second container.
///
/// # Panics
/// Debug-asserts each point's dimensionality matches `multi`.
pub fn bucket_tables<'a, I>(multi: &MultiLsh, points: I) -> Vec<HashMap<Signature, Vec<u32>>>
where
    I: IntoIterator<Item = &'a [f64]>,
{
    let mut tables: Vec<HashMap<Signature, Vec<u32>>> =
        (0..multi.layouts()).map(|_| HashMap::new()).collect();
    for (i, p) in points.into_iter().enumerate() {
        debug_assert_eq!(p.len(), multi.dim(), "point dim mismatch");
        for (m, sig) in multi.signatures(p).into_iter().enumerate() {
            tables[m].entry(sig).or_default().push(i as u32);
        }
    }
    tables
}

/// The union of a query's colliding buckets: every id sharing a bucket
/// with it under any layout, ascending, with the number of layouts it
/// collided in. Collisions are counted in a dense per-id array that is
/// cleared through the ids the previous query touched, so a query costs
/// its buckets' sizes plus a sort of the *distinct* ids — no hashing per
/// id, nothing proportional to the table size. Keep one per batch,
/// session or worker thread and reuse it.
#[derive(Debug, Default)]
pub struct BucketUnion {
    /// Collision count per id; zero for every id not in `ids`.
    hits: Vec<u32>,
    ids: Vec<u32>,
}

impl BucketUnion {
    /// Recounts for the buckets `sigs` (one signature per layout) selects
    /// in `tables`; returns the refreshed union.
    pub fn collect(
        &mut self,
        tables: &[HashMap<Signature, Vec<u32>>],
        sigs: &[Signature],
    ) -> &Self {
        for id in self.ids.drain(..) {
            self.hits[id as usize] = 0;
        }
        for bucket in tables.iter().zip(sigs).filter_map(|(t, sig)| t.get(sig)) {
            let bound = bucket.iter().max().map_or(0, |&id| id as usize + 1);
            if self.hits.len() < bound {
                self.hits.resize(bound, 0);
            }
            for &id in bucket {
                if self.hits[id as usize] == 0 {
                    self.ids.push(id);
                }
                self.hits[id as usize] += 1;
            }
        }
        // Tables list a bucket's ids ascending, so `ids` is one ascending
        // run per layout: the stable sort finds the runs and merges them.
        self.ids.sort();
        self
    }

    /// The ids of the last [`collect`](Self::collect), ascending.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// In how many layouts `id` shared the last query's bucket.
    pub fn hits(&self, id: u32) -> u32 {
        self.hits.get(id as usize).copied().unwrap_or(0)
    }
}

/// An immutable LSH index over a set of points.
///
/// ```
/// use lsh::{LshIndex, LshParams};
/// let points = vec![vec![0.0, 0.0], vec![1.0, 0.0], vec![50.0, 50.0]];
/// let idx = LshIndex::build(points, &LshParams { m: 8, pi: 2, w: 4.0 }, 7);
/// let nn = idx.knn(&[0.1, 0.0], 1);
/// assert_eq!(nn[0].0, 0);
/// ```
pub struct LshIndex {
    multi: MultiLsh,
    /// One bucket table per layout.
    tables: Vec<HashMap<Signature, Vec<u32>>>,
    points: Vec<Vec<f64>>,
}

impl LshIndex {
    /// Builds the index over `points` with the given parameters and seed.
    ///
    /// # Panics
    /// Panics if `points` is empty or rows have inconsistent dimensions.
    pub fn build(points: Vec<Vec<f64>>, params: &LshParams, seed: u64) -> Self {
        assert!(!points.is_empty(), "cannot index an empty point set");
        let dim = points[0].len();
        assert!(
            points.iter().all(|p| p.len() == dim),
            "all points must share one dimensionality"
        );
        let multi = MultiLsh::new(dim, params, seed);
        let tables = bucket_tables(&multi, points.iter().map(Vec::as_slice));
        LshIndex {
            multi,
            tables,
            points,
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the index is empty (never true after `build`).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The candidate set for `query`: ids sharing a bucket under any
    /// layout (deduplicated, ascending).
    pub fn candidates(&self, query: &[f64]) -> Vec<u32> {
        BucketUnion::default()
            .collect(&self.tables, &self.multi.signatures(query))
            .ids()
            .to_vec()
    }

    /// Approximate k nearest neighbors of `query`: the `k` closest
    /// candidates by true Euclidean distance, ascending, ties by id.
    /// May return fewer than `k` when the candidate set is small — that
    /// is the approximation; raise `M` (or widen `w`) for recall.
    pub fn knn(&self, query: &[f64], k: usize) -> Vec<(u32, f64)> {
        let mut scored: Vec<(u32, f64)> = self
            .candidates(query)
            .into_iter()
            .map(|id| {
                let d = euclid(query, &self.points[id as usize]);
                (id, d)
            })
            .collect();
        scored.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite").then(a.0.cmp(&b.0)));
        scored.truncate(k);
        scored
    }
}

fn euclid(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_points() -> Vec<Vec<f64>> {
        // A 10x10 grid, spacing 1.0.
        let mut pts = Vec::new();
        for x in 0..10 {
            for y in 0..10 {
                pts.push(vec![x as f64, y as f64]);
            }
        }
        pts
    }

    fn params() -> LshParams {
        LshParams {
            m: 12,
            pi: 2,
            w: 4.0,
        }
    }

    #[test]
    fn nearest_neighbor_of_an_indexed_point_is_itself() {
        let pts = grid_points();
        let idx = LshIndex::build(pts.clone(), &params(), 1);
        for (i, p) in pts.iter().enumerate().step_by(17) {
            let nn = idx.knn(p, 1);
            assert_eq!(nn[0].0, i as u32, "self must be its own NN");
            assert_eq!(nn[0].1, 0.0);
        }
    }

    #[test]
    fn knn_recall_on_grid() {
        let pts = grid_points();
        let idx = LshIndex::build(pts.clone(), &params(), 2);
        // Query near the middle: true 4-NN of (4.5, 4.5) are the 4 cell
        // corners at distance sqrt(0.5).
        let got = idx.knn(&[4.5, 4.5], 4);
        assert_eq!(got.len(), 4);
        for (_, d) in &got {
            assert!((d - 0.5f64.sqrt()).abs() < 1e-9, "corner distance, got {d}");
        }
    }

    #[test]
    fn results_are_sorted_and_deduplicated() {
        let pts = grid_points();
        let idx = LshIndex::build(pts, &params(), 3);
        let got = idx.knn(&[3.2, 7.7], 10);
        assert!(got.windows(2).all(|w| w[0].1 <= w[1].1));
        let ids: std::collections::HashSet<u32> = got.iter().map(|(i, _)| *i).collect();
        assert_eq!(ids.len(), got.len());
    }

    #[test]
    fn recall_improves_with_more_layouts() {
        let pts = grid_points();
        let query = vec![5.1, 5.1];
        // True 8-NN by brute force.
        let mut truth: Vec<(u32, f64)> = pts
            .iter()
            .enumerate()
            .map(|(i, p)| (i as u32, euclid(&query, p)))
            .collect();
        truth.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        let truth_ids: std::collections::HashSet<u32> =
            truth[..8].iter().map(|(i, _)| *i).collect();

        let recall = |m: usize| {
            let idx = LshIndex::build(pts.clone(), &LshParams { m, pi: 3, w: 2.0 }, 7);
            let got = idx.knn(&query, 8);
            got.iter().filter(|(i, _)| truth_ids.contains(i)).count()
        };
        let r1 = recall(1);
        let r16 = recall(16);
        assert!(
            r16 >= r1,
            "recall must not fall with more layouts: {r1} vs {r16}"
        );
        assert!(
            r16 >= 6,
            "16 layouts should recover most true neighbors, got {r16}"
        );
    }

    #[test]
    fn bucket_tables_group_identical_points_under_every_layout() {
        let pts = grid_points();
        let multi = MultiLsh::new(2, &params(), 9);
        let tables = bucket_tables(&multi, pts.iter().map(Vec::as_slice));
        assert_eq!(tables.len(), params().m);
        for (m, table) in tables.iter().enumerate() {
            // Every point appears exactly once per layout, in its own bucket.
            let total: usize = table.values().map(Vec::len).sum();
            assert_eq!(total, pts.len());
            for (i, p) in pts.iter().enumerate() {
                let sig = multi.signature(m, p);
                assert!(
                    table[&sig].contains(&(i as u32)),
                    "point {i} missing from its layout-{m} bucket"
                );
            }
        }
    }

    /// The formulation [`BucketUnion`] replaced: hash every id, sort.
    fn hashed_union(
        tables: &[HashMap<Signature, Vec<u32>>],
        sigs: &[Signature],
    ) -> Vec<(u32, u32)> {
        let mut hits: HashMap<u32, u32> = HashMap::new();
        for (table, sig) in tables.iter().zip(sigs) {
            for &id in table.get(sig).into_iter().flatten() {
                *hits.entry(id).or_insert(0) += 1;
            }
        }
        let mut v: Vec<(u32, u32)> = hits.into_iter().collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn candidates_are_the_hashed_union_of_the_query_buckets() {
        let idx = LshIndex::build(grid_points(), &params(), 5);
        for q in [[4.5, 4.5], [0.0, 9.0], [1e6, -1e6]] {
            let want: Vec<u32> = hashed_union(&idx.tables, &idx.multi.signatures(&q))
                .into_iter()
                .map(|(id, _)| id)
                .collect();
            assert_eq!(idx.candidates(&q), want, "{q:?}");
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// One scratch reused over a run of queries — buckets in any
            /// order, ids shared between layouts, missing buckets, an id
            /// range that grows — reports the ids, order and hit counts of
            /// the hash-and-sort formulation every time.
            #[test]
            fn bucket_union_matches_hash_and_sort(
                layouts in proptest::collection::vec(
                    proptest::collection::vec(proptest::collection::vec(0u32..300, 0..40), 4),
                    1..6,
                ),
                queries in proptest::collection::vec(proptest::collection::vec(0i64..6, 6), 1..8),
            ) {
                let tables: Vec<HashMap<Signature, Vec<u32>>> = layouts
                    .into_iter()
                    .map(|buckets| {
                        (0..).zip(buckets).filter(|(_, b)| !b.is_empty()).map(|(k, b)| (vec![k], b)).collect()
                    })
                    .collect();
                let mut union = BucketUnion::default();
                for keys in queries {
                    let sigs: Vec<Signature> = keys[..tables.len()].iter().map(|&k| vec![k]).collect();
                    let got = union.collect(&tables, &sigs);
                    let want = hashed_union(&tables, &sigs);
                    let pairs: Vec<(u32, u32)> =
                        got.ids().iter().map(|&id| (id, got.hits(id))).collect();
                    prop_assert_eq!(pairs, want);
                    for id in (0..320).filter(|id| !got.ids().contains(id)) {
                        prop_assert_eq!(got.hits(id), 0);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty point set")]
    fn rejects_empty() {
        let _ = LshIndex::build(vec![], &params(), 1);
    }

    #[test]
    #[should_panic(expected = "share one dimensionality")]
    fn rejects_ragged() {
        let _ = LshIndex::build(vec![vec![1.0], vec![1.0, 2.0]], &params(), 1);
    }
}
