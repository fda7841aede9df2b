//! # dp-core — Density Peaks clustering fundamentals
//!
//! This crate implements the data model and the *exact sequential* Density
//! Peaks (DP) algorithm of Rodriguez & Laio (Science, 2014), which is the
//! ground truth against which the distributed algorithms in the [`ddp`]
//! crate (Basic-DDP, LSH-DDP, EDDPC) are validated.
//!
//! DP computes two quantities per point `i`:
//!
//! * the **local density** `rho_i` — the number of other points within the
//!   cutoff distance `d_c` (Eq. 1 of the LSH-DDP paper);
//! * the **separation** `delta_i` — the distance from `i` to the nearest
//!   point of higher density (Eq. 2), together with that point's id, the
//!   *upslope point* `u_i`.
//!
//! Cluster centers ("density peaks") are points with simultaneously high
//! `rho` and high `delta`; every other point is assigned to the cluster of
//! its upslope point by following the assignment chain.
//!
//! ## Modules
//!
//! * [`point`] — the flat, cache-friendly [`Dataset`] container;
//! * [`distance`] — metrics and the global distance-computation counter used
//!   by the paper's Figure 10(c) / Table IV cost accounting;
//! * [`cutoff`] — `d_c` estimation by distance percentile (paper §III-A);
//! * [`dp`] — the exact O(N²) sequential algorithm;
//! * [`local`] — the per-partition `rho`/`delta` kernels every distributed
//!   pipeline calls, over [`index`]'s spatial index or the pairwise loops;
//! * [`simd`] — the vector width those kernels run at, picked from the CPU;
//! * [`decision`] — decision graph, peak selection, cluster assignment;
//! * [`quality`] — external cluster validation (ARI, NMI, purity, pairwise
//!   F-measure) and the paper's approximation metrics `tau1`/`tau2` (§VI-C);
//! * [`update`] — localized `rho`/`delta` update kernels backing the
//!   incremental ingest path.
//!
//! ## Quick example
//!
//! ```
//! use dp_core::{Dataset, cutoff, dp, decision};
//!
//! // Two well-separated blobs on a line.
//! let mut ds = Dataset::new(1);
//! for i in 0..10 { ds.push(&[i as f64 * 0.1]); }
//! for i in 0..10 { ds.push(&[100.0 + i as f64 * 0.1]); }
//!
//! // 20% neighborhood quantile — this toy set has only 20 points, so the
//! // paper's 1–2% rule of thumb would leave every density at zero.
//! let dc = cutoff::estimate_dc_exact(&ds, 0.2);
//! let result = dp::compute_exact(&ds, dc);
//! let peaks = decision::select_top_k(&result, 2);
//! let clusters = decision::assign(&result, &peaks);
//! assert_eq!(clusters.label(0), clusters.label(9));
//! assert_ne!(clusters.label(0), clusters.label(10));
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod cutoff;
pub mod decision;
pub mod distance;
pub mod dp;
pub mod fast;
pub mod index;
pub mod kernel;
pub mod local;
pub mod point;
pub mod quality;
pub mod simd;
pub mod update;

pub use decision::{
    assign, compute_halo, select_by_threshold, select_top_k, Clustering, DecisionGraph,
};
pub use distance::{
    for_each_cross_d2, for_each_pair_d2, nearest_in_block, squared_euclidean_block, DistanceKind,
    DistanceTracker,
};
pub use dp::{compute_exact, denser, density_order, DpResult, NO_UPSLOPE};
pub use fast::compute_exact_fast;
pub use index::{DensityKeys, SpatialIndex};
pub use kernel::{compute_gaussian, KernelDpResult};
pub use point::{Dataset, PointId};

/// Errors produced by `dp-core` operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DpError {
    /// The dataset was empty where at least one point was required.
    EmptyDataset,
    /// A point with a mismatched dimensionality was supplied.
    DimensionMismatch {
        /// Dimensionality of the dataset.
        expected: usize,
        /// Dimensionality of the offending point.
        got: usize,
    },
    /// A parameter was outside of its valid domain.
    InvalidParameter(String),
}

impl std::fmt::Display for DpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DpError::EmptyDataset => write!(f, "dataset is empty"),
            DpError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            DpError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
        }
    }
}

impl std::error::Error for DpError {}
