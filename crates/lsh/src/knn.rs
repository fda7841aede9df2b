//! Bucket tables: the query-time half of the paper's partitioning.
//! [`bucket_tables`] files every point under its signature in each of the
//! `M` layouts — the candidate buckets the ingest session updates against
//! (the LSH kNN join family of the paper's §VII).

use crate::hash::{MultiLsh, Signature};
use std::collections::HashMap;

/// One bucket table per layout: `tables[m]` maps each signature under
/// layout `m` to the ids of the points hashing to it, ascending.
pub type BucketTables = Vec<HashMap<Signature, Vec<u32>>>;

/// Builds one bucket table per layout: `tables[m]` maps each signature
/// under layout `m` to the ids (enumeration order, as `u32`) of the points
/// hashing to it.
///
/// Consumers that already own the point storage (the ingest session)
/// build the tables from a [`MultiLsh`] without copying their points into
/// a second container.
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
}
