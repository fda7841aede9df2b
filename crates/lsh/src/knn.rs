//! Bucket tables and bucket unions: the query-time half of the paper's
//! partitioning. [`bucket_tables`] files every point under its signature
//! in each of the `M` layouts; [`BucketUnion`] collects, for one query, the
//! ids sharing its bucket under any layout — the candidate set the serving
//! engine scores and the ingest session updates against (the LSH kNN join
//! family of the paper's §VII).

use crate::hash::{MultiLsh, Signature};
use std::collections::HashMap;

/// One bucket table per layout: `tables[m]` maps each signature under
/// layout `m` to the ids of the points hashing to it, ascending.
pub type BucketTables = Vec<HashMap<Signature, Vec<u32>>>;

/// Builds one bucket table per layout: `tables[m]` maps each signature
/// under layout `m` to the ids (enumeration order, as `u32`) of the points
/// hashing to it.
///
/// Consumers that already own the point storage (the serving layer's
/// `ClusterModel`, the ingest session) build the tables from a
/// [`MultiLsh`] without copying their points into a second container.
///
/// # Panics
/// Debug-asserts each point's dimensionality matches `multi`.
pub fn bucket_tables<'a, I>(multi: &MultiLsh, points: I) -> BucketTables
where
    I: IntoIterator<Item = &'a [f64]>,
{
    let mut tables: BucketTables = (0..multi.layouts()).map(|_| HashMap::new()).collect();
    for (i, p) in points.into_iter().enumerate() {
        debug_assert_eq!(p.len(), multi.dim(), "point dim mismatch");
        for (m, sig) in multi.signatures(p).into_iter().enumerate() {
            tables[m].entry(sig).or_default().push(i as u32);
        }
    }
    tables
}

/// The union of a query's colliding buckets: every id sharing a bucket
/// with it under any layout, in collision order, with the number of
/// layouts it collided in. Collisions are counted in a dense per-id array
/// that grows only when an id reaches past it and is cleared through the
/// ids the previous query touched, so a query costs its buckets' sizes —
/// no hashing or sorting per id, nothing proportional to the table size.
/// Keep one per batch, session or worker thread and reuse it.
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
        // Every id is written at `ids[n]`, and only a first collision
        // advances `n`: no branch on whether the id was seen before.
        let mut n = 0;
        for bucket in tables.iter().zip(sigs).filter_map(|(t, sig)| t.get(sig)) {
            self.ids.resize(n + bucket.len(), 0);
            for &id in bucket {
                let i = id as usize;
                if i >= self.hits.len() {
                    self.hits.resize(i + 1, 0);
                }
                self.ids[n] = id;
                n += usize::from(self.hits[i] == 0);
                self.hits[i] += 1;
            }
        }
        self.ids.truncate(n);
        self
    }

    /// The distinct ids of the last [`collect`](Self::collect), in
    /// collision order: layout by layout, each id where the first bucket
    /// holding it lists it. No order beyond that is promised; a caller
    /// that breaks ties by id does so itself.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// In how many layouts `id` shared the last query's bucket.
    pub fn hits(&self, id: u32) -> u32 {
        self.hits.get(id as usize).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuning::LshParams;

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

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// One scratch reused over a run of queries — buckets in any
            /// order, ids shared between layouts, missing buckets, an id
            /// range that grows — reports the id set and hit counts of the
            /// hash-and-sort formulation every time, each id once. The
            /// order is collision order, which nothing promises beyond
            /// that, so the ids are compared as a set.
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
                    let mut pairs: Vec<(u32, u32)> =
                        got.ids().iter().map(|&id| (id, got.hits(id))).collect();
                    pairs.sort_unstable();
                    prop_assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0), "an id listed twice");
                    prop_assert_eq!(pairs, want);
                    for id in (0..320).filter(|id| !got.ids().contains(id)) {
                        prop_assert_eq!(got.hits(id), 0);
                    }
                }
            }
        }
    }
}
