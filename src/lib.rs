//! # lsh-ddp — Efficient Distributed Density Peaks clustering in MapReduce
//!
//! A complete Rust reproduction of *"Efficient Distributed Density Peaks
//! for Clustering Large Data Sets in MapReduce"* (Zhang & Chen, ICDE 2017),
//! including every substrate the paper depends on:
//!
//! * [`dp_core`] — the exact sequential Density Peaks algorithm, decision
//!   graph, cluster assignment, and quality metrics;
//! * [`mapreduce`] — an in-process shared-nothing MapReduce engine with
//!   byte-exact shuffle accounting and a cluster cost model;
//! * [`lsh`] — p-stable Locality-Sensitive Hashing with the paper's
//!   collision-probability analysis and parameter tuning;
//! * [`ddp`] — the three distributed pipelines: **Basic-DDP** (exact,
//!   blocked), **LSH-DDP** (the paper's approximate contribution), and
//!   **EDDPC** (exact Voronoi comparator);
//! * [`baselines`] — K-means (sequential + MapReduce), DBSCAN, EM-GMM,
//!   agglomerative hierarchical;
//! * [`datasets`] — seeded analogs of the paper's seven evaluation data
//!   sets plus shaped generators and CSV IO;
//! * [`serve`] — the online layer: snapshot a finished run as a
//!   [`serve::ClusterModel`] artifact and answer `assign(point)` queries
//!   through a concurrent micro-batching server;
//! * [`ingest`] — the model lifecycle: batched incremental inserts and
//!   deletes through a write-ahead log with bucket-localized updates,
//!   stale-point accounting, and checkpoint-reusing compaction back to an
//!   exact refit, hot-swapped into the server via [`serve::ModelStore`].
//!
//! ## Five-minute tour
//!
//! ```
//! use lsh_ddp::prelude::*;
//!
//! // 1. A data set (three Gaussian blobs).
//! let ld = datasets::gaussian_mixture(2, 3, 120, 100.0, 1.0, 42);
//! let ds = ld.data;
//!
//! // 2. Estimate the cutoff distance (2% neighborhood rule).
//! let dc = dp_core::cutoff::estimate_dc_sampled(&ds, 0.02, 100_000, 42);
//!
//! // 3. Run LSH-DDP at 99% expected accuracy with the paper's
//! //    recommended M = 10 layouts of pi = 3 hash functions.
//! let report = LshDdp::with_accuracy(0.99, 10, 3, dc, 42)
//!     .expect("valid parameters")
//!     .run(&ds, dc);
//!
//! // 4. Select density peaks on the decision graph and assign clusters.
//! let out = CentralizedStep::new(PeakSelection::TopK(3)).run(&report.result);
//! assert_eq!(out.clustering.n_clusters(), 3);
//!
//! // 5. Validate against ground truth.
//! let ari = dp_core::quality::adjusted_rand_index(out.clustering.labels(), &ld.labels);
//! assert!(ari > 0.99, "ARI = {ari}");
//! ```

pub use baselines;
pub use datasets;
pub use ddp;
pub use dp_core;
pub use ingest;
pub use lsh;
pub use mapreduce;
pub use serve;

/// The types most applications need.
pub mod prelude {
    pub use baselines::{Dbscan, EmGmm, Hierarchical, KMeans, Linkage, MapReduceKMeans};
    pub use datasets::{self, PaperDataset};
    pub use ddp::prelude::*;
    pub use dp_core::{
        self, compute_exact, Clustering, Dataset, DecisionGraph, DistanceTracker, DpResult,
    };
    pub use ingest::{DeltaBatch, DeltaOp, IngestConfig, IngestSession, Wal};
    pub use lsh::{LshParams, MultiLsh};
    pub use mapreduce::{ClusterSpec, JobBuilder, JobConfig};
    pub use serve::{ClusterModel, ModelStore, QueryEngine, Server, ServerConfig};
}
