//! Flat, contiguous storage for fixed-dimension point sets.
//!
//! A [`Dataset`] stores all coordinates in one `Vec<f64>` so that the hot
//! O(N²) distance loops of Density Peaks stream linearly through memory.
//! Points are addressed by a dense [`PointId`] (`u32`), which is also the
//! identifier shuffled through the MapReduce pipelines.

use serde::{Deserialize, Serialize};

/// Identifier of a point inside a [`Dataset`].
///
/// `u32` bounds the supported dataset size at ~4.29 billion points — far
/// beyond the 11.6M-point BigCross set, while halving key shuffle bytes
/// compared to `u64`.
pub type PointId = u32;

/// A dense set of `dim`-dimensional points stored in row-major order.
///
/// ```
/// use dp_core::Dataset;
/// let mut ds = Dataset::new(2);
/// let id = ds.push(&[1.0, 2.0]);
/// assert_eq!(ds.point(id), &[1.0, 2.0]);
/// assert_eq!(ds.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    dim: usize,
    data: Vec<f64>,
}

impl Dataset {
    /// Creates an empty dataset of dimensionality `dim`.
    ///
    /// # Panics
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dataset dimensionality must be positive");
        Dataset {
            dim,
            data: Vec::new(),
        }
    }

    /// Creates an empty dataset with room for `n` points.
    pub fn with_capacity(dim: usize, n: usize) -> Self {
        assert!(dim > 0, "dataset dimensionality must be positive");
        Dataset {
            dim,
            data: Vec::with_capacity(dim * n),
        }
    }

    /// Builds a dataset from row-major coordinates.
    ///
    /// # Panics
    /// Panics if `data.len()` is not a multiple of `dim`.
    pub fn from_flat(dim: usize, data: Vec<f64>) -> Self {
        assert!(dim > 0, "dataset dimensionality must be positive");
        assert!(
            data.len().is_multiple_of(dim),
            "flat data length {} is not a multiple of dim {}",
            data.len(),
            dim
        );
        Dataset { dim, data }
    }

    /// Appends one point; returns its id.
    ///
    /// # Panics
    /// Panics if `coords.len() != self.dim()`.
    pub fn push(&mut self, coords: &[f64]) -> PointId {
        assert_eq!(
            coords.len(),
            self.dim,
            "point dimensionality {} does not match dataset dim {}",
            coords.len(),
            self.dim
        );
        let id = self.len() as PointId;
        self.data.extend_from_slice(coords);
        id
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Whether the dataset holds no points.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Dimensionality of every point.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Coordinates of point `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of bounds.
    #[inline]
    pub fn point(&self, id: PointId) -> &[f64] {
        let i = id as usize * self.dim;
        &self.data[i..i + self.dim]
    }

    /// Coordinates of point `id`, or `None` when out of bounds.
    pub fn get(&self, id: PointId) -> Option<&[f64]> {
        if (id as usize) < self.len() {
            Some(self.point(id))
        } else {
            None
        }
    }

    /// Iterator over `(id, coords)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (PointId, &[f64])> {
        self.data
            .chunks_exact(self.dim)
            .enumerate()
            .map(|(i, c)| (i as PointId, c))
    }

    /// All point ids, `0..len`.
    pub fn ids(&self) -> impl Iterator<Item = PointId> + use<> {
        0..self.len() as PointId
    }

    /// Raw row-major coordinate storage.
    pub fn as_flat(&self) -> &[f64] {
        &self.data
    }

    /// Returns a new dataset containing only the points in `ids`,
    /// in the given order.
    pub fn subset(&self, ids: &[PointId]) -> Dataset {
        let mut out = Dataset::with_capacity(self.dim, ids.len());
        for &id in ids {
            out.push(self.point(id));
        }
        out
    }

    /// Per-dimension minima and maxima; `None` for an empty dataset.
    pub fn bounds(&self) -> Option<(Vec<f64>, Vec<f64>)> {
        if self.is_empty() {
            return None;
        }
        let mut lo = self.point(0).to_vec();
        let mut hi = lo.clone();
        for (_, p) in self.iter().skip(1) {
            for d in 0..self.dim {
                lo[d] = lo[d].min(p[d]);
                hi[d] = hi[d].max(p[d]);
            }
        }
        Some((lo, hi))
    }

    /// Rescales every dimension into `[0, 1]` (min-max normalization),
    /// leaving constant dimensions at `0`.
    ///
    /// Normalization is what the paper's preprocessing applies to the
    /// UCI-style data sets so that one global `d_c` is meaningful.
    pub fn normalize_min_max(&mut self) {
        let Some((lo, hi)) = self.bounds() else {
            return;
        };
        let dim = self.dim;
        for (d, (l, h)) in lo.iter().zip(hi.iter()).enumerate() {
            let range = h - l;
            if range > 0.0 {
                for row in self.data.chunks_exact_mut(dim) {
                    row[d] = (row[d] - l) / range;
                }
            } else {
                for row in self.data.chunks_exact_mut(dim) {
                    row[d] = 0.0;
                }
            }
        }
    }

    /// Estimated serialized size of a single point record in bytes:
    /// 4 (id) + 8·dim (coordinates). Used for shuffle-cost accounting.
    pub fn point_record_bytes(&self) -> usize {
        4 + 8 * self.dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_back() {
        let mut ds = Dataset::new(3);
        let a = ds.push(&[1.0, 2.0, 3.0]);
        let b = ds.push(&[4.0, 5.0, 6.0]);
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.point(0), &[1.0, 2.0, 3.0]);
        assert_eq!(ds.point(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn from_flat_round_trip() {
        let ds = Dataset::from_flat(2, vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.point(1), &[2.0, 3.0]);
        assert_eq!(ds.as_flat(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn from_flat_rejects_ragged() {
        let _ = Dataset::from_flat(3, vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "does not match dataset dim")]
    fn push_rejects_wrong_dim() {
        let mut ds = Dataset::new(2);
        ds.push(&[1.0]);
    }

    #[test]
    fn get_handles_out_of_bounds() {
        let ds = Dataset::from_flat(1, vec![5.0]);
        assert_eq!(ds.get(0), Some(&[5.0][..]));
        assert_eq!(ds.get(1), None);
    }

    #[test]
    fn iter_yields_ids_in_order() {
        let ds = Dataset::from_flat(1, vec![9.0, 8.0, 7.0]);
        let collected: Vec<_> = ds.iter().map(|(id, p)| (id, p[0])).collect();
        assert_eq!(collected, vec![(0, 9.0), (1, 8.0), (2, 7.0)]);
    }

    #[test]
    fn subset_preserves_order() {
        let ds = Dataset::from_flat(1, vec![10.0, 20.0, 30.0, 40.0]);
        let sub = ds.subset(&[3, 1]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.point(0), &[40.0]);
        assert_eq!(sub.point(1), &[20.0]);
    }

    #[test]
    fn bounds_and_normalize() {
        let mut ds = Dataset::from_flat(2, vec![0.0, 10.0, 4.0, 30.0, 2.0, 20.0]);
        let (lo, hi) = ds.bounds().unwrap();
        assert_eq!(lo, vec![0.0, 10.0]);
        assert_eq!(hi, vec![4.0, 30.0]);
        ds.normalize_min_max();
        assert_eq!(ds.point(0), &[0.0, 0.0]);
        assert_eq!(ds.point(1), &[1.0, 1.0]);
        assert_eq!(ds.point(2), &[0.5, 0.5]);
    }

    #[test]
    fn normalize_constant_dimension_becomes_zero() {
        let mut ds = Dataset::from_flat(2, vec![3.0, 1.0, 3.0, 2.0]);
        ds.normalize_min_max();
        assert_eq!(ds.point(0)[0], 0.0);
        assert_eq!(ds.point(1)[0], 0.0);
    }

    #[test]
    fn normalize_empty_is_noop() {
        let mut ds = Dataset::new(2);
        ds.normalize_min_max();
        assert!(ds.is_empty());
    }

    #[test]
    fn record_bytes_accounting() {
        let ds = Dataset::new(57);
        assert_eq!(ds.point_record_bytes(), 4 + 8 * 57);
    }
}
