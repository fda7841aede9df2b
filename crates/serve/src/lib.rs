//! # serve — online serving for LSH-DDP clusterings
//!
//! The batch pipelines in [`ddp`] answer "cluster this data set"; this
//! crate answers the question that follows in any deployment: *"which
//! cluster is this new point in?"* — without re-running the pipeline.
//!
//! Four layers:
//!
//! * [`ClusterModel`] — an immutable artifact snapshotting a finished run
//!   (coordinates, `rho`/`delta`/upslope, labels, peaks, halo flags,
//!   `d_c`, and the `M × pi` LSH layout provenance), saved and loaded
//!   with the engine's own `wire` encoding;
//! * [`QueryEngine`] — the single-threaded query path: count the query's
//!   density and find its nearest at-least-as-dense model point through
//!   the model's exact kd index (the serving-time upslope rule), and fall
//!   back to a nearest-center sweep for a query with a non-finite
//!   coordinate;
//! * [`ModelStore`] — an atomic, versioned publication point for
//!   engines: batches resolve the current engine per micro-batch, so a
//!   hot-swap lets readers on version N drain while N+1 serves every
//!   later batch (the ingest path publishes here);
//! * [`Server`] — a concurrent runtime wrapping the engine: a bounded
//!   request queue for backpressure, worker threads that drain the queue
//!   in micro-batches to feed the batched distance kernels in
//!   [`dp_core`], a sharded LRU cache over quantized query coordinates,
//!   and service metrics ([`ServiceStats`]) kept in an [`obsv::Registry`]
//!   (latency/queue-wait/batch-size histograms plus counters) and served
//!   through a `stats` query.
//!
//! ```
//! use ddp::prelude::*;
//! use dp_core::Dataset;
//! use serve::{ClusterModel, QueryEngine};
//!
//! // Two tight blobs on a line.
//! let mut ds = Dataset::new(1);
//! for i in 0..20 { ds.push(&[i as f64 * 0.05]); }
//! for i in 0..20 { ds.push(&[10.0 + i as f64 * 0.05]); }
//!
//! let dc = 0.3;
//! let ddp = LshDdp::with_accuracy(0.99, 8, 2, dc, 7).unwrap();
//! let params = ddp.config().params;
//! let report = ddp.run(&ds, dc);
//! let outcome = CentralizedStep::new(PeakSelection::TopK(2)).run(&report.result);
//!
//! let model = ClusterModel::from_run(&ds, &report, &outcome, &params, 7);
//! let engine = QueryEngine::new(model);
//! let left = engine.assign(&[0.52]);
//! let right = engine.assign(&[10.48]);
//! assert_ne!(left.cluster, right.cluster);
//! assert!(!left.fallback);
//! ```

pub mod engine;
pub mod model;
pub mod server;
pub mod store;

pub use engine::{Assignment, Probe, QueryEngine, Read, View};
pub use model::{ClusterModel, ExactIndex, ModelError, ModelHeader};
pub use server::{Client, ServeError, Server, ServerConfig, ServiceStats};
pub use store::ModelStore;

#[cfg(test)]
pub(crate) mod test_support {
    use crate::model::ClusterModel;
    use ddp::prelude::*;

    /// Fits a small 3-blob model end to end: generate, run LSH-DDP,
    /// select peaks, snapshot. Deterministic in `seed`.
    pub fn fitted_model(n_per: usize, seed: u64) -> ClusterModel {
        let ld = datasets::gaussian_mixture(2, 3, n_per, 40.0, 1.0, seed);
        let ds = &ld.data;
        let dc = dp_core::cutoff::estimate_dc_exact(ds, 0.05);
        let ddp = LshDdp::with_accuracy(0.99, 8, 3, dc, seed).expect("valid LSH params");
        let params = ddp.config().params;
        let report = ddp.run(ds, dc);
        let outcome = CentralizedStep::new(PeakSelection::TopK(3)).run(&report.result);
        ClusterModel::from_run(ds, &report, &outcome, &params, seed)
    }
}
