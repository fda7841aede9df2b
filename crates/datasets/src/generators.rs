//! Gaussian-mixture and blob-field generators with ground-truth labels.

use dp_core::Dataset;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rand_distr::StandardNormal;

/// A dataset together with its generating ground-truth labels.
#[derive(Debug, Clone)]
pub struct LabeledDataset {
    /// The points.
    pub data: Dataset,
    /// Ground-truth cluster of every point (generator component index).
    pub labels: Vec<u32>,
}

impl LabeledDataset {
    /// Number of points.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the dataset holds no points.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of distinct ground-truth clusters.
    pub fn n_clusters(&self) -> u32 {
        self.labels.iter().copied().max().map_or(0, |m| m + 1)
    }
}

/// One mixture component.
#[derive(Debug, Clone)]
pub struct Component {
    /// Component mean.
    pub center: Vec<f64>,
    /// Isotropic standard deviation.
    pub std: f64,
    /// Number of points drawn from this component.
    pub n: usize,
}

/// A fully specified Gaussian mixture.
#[derive(Debug, Clone)]
pub struct GaussianMixture {
    /// The components; all centers must share one dimensionality.
    pub components: Vec<Component>,
}

impl GaussianMixture {
    /// Draws random well-separated components: `k` centers uniform in
    /// `[0, spread]^dim` with point count `n_per` and standard deviation
    /// `std` each.
    pub fn random(
        dim: usize,
        k: usize,
        n_per: usize,
        spread: f64,
        std: f64,
        rng: &mut StdRng,
    ) -> Self {
        assert!(
            dim > 0 && k > 0 && n_per > 0,
            "dim, k, n_per must be positive"
        );
        let components = (0..k)
            .map(|_| Component {
                center: (0..dim).map(|_| rng.random_range(0.0..spread)).collect(),
                std,
                n: n_per,
            })
            .collect();
        GaussianMixture { components }
    }

    /// Samples the mixture; labels are component indices.
    pub fn sample(&self, rng: &mut StdRng) -> LabeledDataset {
        let dim = self
            .components
            .first()
            .expect("mixture needs at least one component")
            .center
            .len();
        let total: usize = self.components.iter().map(|c| c.n).sum();
        let mut data = Dataset::with_capacity(dim, total);
        let mut labels = Vec::with_capacity(total);
        let mut buf = vec![0.0f64; dim];
        for (ci, c) in self.components.iter().enumerate() {
            assert_eq!(c.center.len(), dim, "all components must share dim");
            for _ in 0..c.n {
                for (b, m) in buf.iter_mut().zip(c.center.iter()) {
                    let z: f64 = rng.sample(StandardNormal);
                    *b = m + c.std * z;
                }
                data.push(&buf);
                labels.push(ci as u32);
            }
        }
        LabeledDataset { data, labels }
    }
}

/// Convenience: `k` random components of `n_per` points each in
/// `dim` dimensions, deterministic in `seed`.
pub fn gaussian_mixture(
    dim: usize,
    k: usize,
    n_per: usize,
    spread: f64,
    std: f64,
    seed: u64,
) -> LabeledDataset {
    let mut rng = StdRng::seed_from_u64(seed);
    GaussianMixture::random(dim, k, n_per, spread, std, &mut rng).sample(&mut rng)
}

/// A Gaussian mixture living on a low-dimensional latent manifold,
/// linearly embedded into a high-dimensional ambient space.
///
/// Real high-dimensional data (face images, network flows) has low
/// *intrinsic* dimensionality; isotropic high-dim Gaussians instead show
/// distance concentration — all pairwise distances collapse into a narrow
/// band, a quantile-chosen `d_c` cuts that band arbitrarily, and Density
/// Peaks (or any density notion) degenerates. Sampling in a latent space
/// of `latent_dim` and embedding with a fixed random linear map keeps the
/// distance geometry of the latent mixture (the map is a near-isometry in
/// expectation) while exercising full `ambient_dim`-wide distance kernels.
pub fn embedded_mixture(
    ambient_dim: usize,
    latent_dim: usize,
    components: Vec<Component>,
    ambient_noise: f64,
    seed: u64,
) -> LabeledDataset {
    assert!(
        latent_dim > 0 && latent_dim <= ambient_dim,
        "latent dim must be in 1..=ambient"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    // Random embedding with E[|Ex|] = |x|: entries N(0, 1/latent_dim).
    let scale = 1.0 / (latent_dim as f64).sqrt();
    let embed: Vec<f64> = (0..ambient_dim * latent_dim)
        .map(|_| rng.sample::<f64, _>(StandardNormal) * scale)
        .collect();
    let latent = GaussianMixture { components }.sample(&mut rng);
    let mut data = Dataset::with_capacity(ambient_dim, latent.len());
    let mut out = vec![0.0f64; ambient_dim];
    for (_, z) in latent.data.iter() {
        for (d, o) in out.iter_mut().enumerate() {
            let row = &embed[d * latent_dim..(d + 1) * latent_dim];
            let mut acc = 0.0;
            for (r, zi) in row.iter().zip(z) {
                acc += r * zi;
            }
            *o = acc + ambient_noise * rng.sample::<f64, _>(StandardNormal);
        }
        data.push(&out);
    }
    LabeledDataset {
        data,
        labels: latent.labels,
    }
}

/// A regular `gx × gy` grid of compact 2-D blobs — the workload where
/// LSH partitions align with natural groups (used by scaling tests).
pub fn blob_grid(
    gx: usize,
    gy: usize,
    n_per: usize,
    pitch: f64,
    std: f64,
    seed: u64,
) -> LabeledDataset {
    assert!(
        gx > 0 && gy > 0 && n_per > 0,
        "grid dimensions must be positive"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Dataset::with_capacity(2, gx * gy * n_per);
    let mut labels = Vec::with_capacity(gx * gy * n_per);
    for ix in 0..gx {
        for iy in 0..gy {
            let label = (ix * gy + iy) as u32;
            for _ in 0..n_per {
                let zx: f64 = rng.sample(StandardNormal);
                let zy: f64 = rng.sample(StandardNormal);
                data.push(&[ix as f64 * pitch + std * zx, iy as f64 * pitch + std * zy]);
                labels.push(label);
            }
        }
    }
    LabeledDataset { data, labels }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixture_has_requested_shape() {
        let ld = gaussian_mixture(5, 4, 25, 100.0, 1.0, 7);
        assert_eq!(ld.len(), 100);
        assert_eq!(ld.data.dim(), 5);
        assert_eq!(ld.n_clusters(), 4);
        let mut counts = vec![0usize; 4];
        for &l in &ld.labels {
            counts[l as usize] += 1;
        }
        assert_eq!(counts, vec![25; 4]);
    }

    #[test]
    fn mixture_is_deterministic_in_seed() {
        let a = gaussian_mixture(3, 2, 10, 50.0, 0.5, 1);
        let b = gaussian_mixture(3, 2, 10, 50.0, 0.5, 1);
        assert_eq!(a.data, b.data);
        assert_eq!(a.labels, b.labels);
        let c = gaussian_mixture(3, 2, 10, 50.0, 0.5, 2);
        assert_ne!(a.data, c.data);
    }

    #[test]
    fn points_cluster_around_their_component() {
        let mut rng = StdRng::seed_from_u64(3);
        let gm = GaussianMixture {
            components: vec![
                Component {
                    center: vec![0.0, 0.0],
                    std: 0.1,
                    n: 50,
                },
                Component {
                    center: vec![100.0, 100.0],
                    std: 0.1,
                    n: 50,
                },
            ],
        };
        let ld = gm.sample(&mut rng);
        for (i, (_, p)) in ld.data.iter().enumerate() {
            let c: &[f64] = if ld.labels[i] == 0 {
                &[0.0, 0.0]
            } else {
                &[100.0, 100.0]
            };
            let d = dp_core::distance::euclidean(p, c);
            assert!(d < 1.0, "point {i} is {d} from its center");
        }
    }

    #[test]
    fn blob_grid_shape_and_labels() {
        let ld = blob_grid(3, 4, 5, 10.0, 0.1, 9);
        assert_eq!(ld.len(), 60);
        assert_eq!(ld.n_clusters(), 12);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn mixture_rejects_zero_k() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = GaussianMixture::random(2, 0, 10, 1.0, 1.0, &mut rng);
    }
}
