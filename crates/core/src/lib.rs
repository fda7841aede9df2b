//! # ddp — Distributed Density Peaks pipelines (the paper's contribution)
//!
//! Three complete MapReduce pipelines for computing Density Peaks `(rho,
//! delta, upslope)` at scale, all running on the [`mapreduce`] engine and
//! validated against the exact sequential algorithm in [`dp_core`]:
//!
//! * [`basic`] — **Basic-DDP** (paper §III): the exact baseline. Blocks the
//!   point set into subsets and covers every pair of blocks with a
//!   tournament schedule, so each point is shuffled `⌈(n+1)/2⌉` times and
//!   `N(N+1)/2` distances are computed — twice (once for `rho`, once for
//!   `delta`, which is recomputed rather than materialized, §III-A).
//! * [`lsh_ddp`] — **LSH-DDP** (paper §IV): the approximate contribution.
//!   `M` p-stable LSH layouts partition the data; `rho` and `delta` are
//!   computed *within* partitions and aggregated across layouts
//!   (`rho = max`, `delta = min`). Points that look like the densest point
//!   of every partition they visit keep `delta = ∞` and become peak
//!   candidates — the paper's key trick for the non-local `delta`.
//! * [`eddpc`] — **EDDPC** (the paper's state-of-the-art exact comparator,
//!   ref \[21\]): Voronoi partitioning around sampled pivots, `rho` via
//!   triangle-inequality bounded replication, and exact `delta` via a
//!   two-round bounded search.
//!
//! Every pipeline returns a [`stats::RunReport`] carrying the per-job
//! [`mapreduce::JobMetrics`], the total distance-computation count, and the
//! assembled [`dp_core::DpResult`], so the benchmark harness can reproduce
//! the paper's Figures 9–12 and Tables III–IV directly.
//!
//! ```
//! use dp_core::Dataset;
//! use ddp::prelude::*;
//!
//! // A toy data set: two 1-D blobs.
//! let mut ds = Dataset::new(1);
//! for i in 0..20 { ds.push(&[i as f64 * 0.01]); }
//! for i in 0..20 { ds.push(&[5.0 + i as f64 * 0.01]); }
//!
//! // Exact distributed DP.
//! let basic = BasicDdp::new(BasicConfig { block_size: 8, ..BasicConfig::default() });
//! let report = basic.run(&ds, 0.05);
//! let exact = dp_core::compute_exact(&ds, 0.05);
//! assert_eq!(report.result.rho, exact.rho);
//!
//! // Approximate distributed DP at 99% expected accuracy.
//! let lsh = LshDdp::with_accuracy(0.99, 10, 3, 0.05, 42).unwrap();
//! let approx = lsh.run(&ds, 0.05);
//! assert!(dp_core::quality::tau2(&exact.rho, &approx.result.rho) > 0.9);
//! ```

pub mod assign_mr;
pub mod basic;
pub mod centralized;
pub mod common;
pub mod eddpc;
pub mod halo_mr;
pub mod lsh_ddp;
pub mod stats;
pub mod tuning;

/// Convenient glob imports for pipeline users.
pub mod prelude {
    pub use crate::assign_mr::{assign_distributed, DistributedAssignment};
    pub use crate::basic::{BasicConfig, BasicDdp};
    pub use crate::centralized::{CentralizedStep, PeakSelection};
    pub use crate::common::PipelineConfig;
    pub use crate::eddpc::{Eddpc, EddpcConfig};
    pub use crate::halo_mr::{compute_halo_distributed, DistributedHalo};
    pub use crate::lsh_ddp::{LshDdp, LshDdpConfig};
    pub use crate::stats::RunReport;
    pub use crate::tuning::{autotune, TuningReport, RECOMMENDED_GRID};
}

pub use prelude::*;
