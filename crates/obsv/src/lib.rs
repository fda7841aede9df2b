//! # obsv — end-to-end tracing and metrics for the LSH-DDP workspace
//!
//! Hand-rolled (vendor-style, like every dependency in this repo), three
//! pieces:
//!
//! 1. **Spans** ([`tracer`]) — hierarchical `(pipeline → job → phase →
//!    task)` intervals recorded into a lock-sharded in-memory ring
//!    buffer. Capture is globally toggled; while off, opening a span
//!    costs one atomic load and nothing else.
//! 2. **Metrics** ([`metrics`]) — a registry of named counters, gauges,
//!    and log-linear-bucket histograms exposing p50/p95/p99/max with a
//!    bounded 1/16 relative error.
//! 3. **Exporters** ([`export`]) — a `chrome://tracing`-compatible
//!    `trace.json` timeline, a JSONL event log, and a human text report;
//!    plus a [`json`] parser so tests (and smoke checks) can validate
//!    the emitted documents.
//! 4. **Live telemetry** — heap accounting via an instrumenting global
//!    allocator ([`alloc`]), an HTTP exposition endpoint serving
//!    Prometheus text and strict JSON ([`expose`]), multi-window SLO
//!    burn-rate monitoring ([`slo`]), and folded-stack stage profiles
//!    ([`profile`]).
//!
//! ## Usage
//!
//! ```
//! // A leaf span via the macro (guard form):
//! {
//!     let _s = obsv::span!("job", "wordcount");
//!     // ... work ...
//! }
//!
//! // Block form:
//! let out = obsv::span!("phase", "map" => {
//!     21 * 2
//! });
//! assert_eq!(out, 42);
//!
//! // Phase timing that also feeds always-on metrics:
//! let (result, dur) = obsv::timed_span("phase", || "reduce".into(), || 7);
//! assert_eq!(result, 7);
//! assert!(dur.as_nanos() < 1_000_000_000);
//!
//! // Metrics:
//! let reg = obsv::Registry::new();
//! reg.counter("hits").inc(1);
//! reg.histogram("latency_ns").record(1234);
//! assert_eq!(reg.snapshot().counters["hits"], 1);
//! ```
//!
//! Spans crossing the thread pool: capture [`current_span`] on the
//! submitting thread and wrap the task body in [`with_parent`] — see the
//! mapreduce engine's task spans for the pattern.

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod alloc;
pub mod export;
pub mod expose;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod slo;
pub mod tracer;

mod executor;

pub use executor::{install_executor_metrics, snapshot_pool_stats};
pub use expose::{Exposition, MetricsServer, RegistryRef};
pub use metrics::{global, Counter, Gauge, Histogram, HistogramSummary, Registry};
pub use slo::{SloConfig, SloMonitor, SloVerdict};
pub use tracer::{
    capture_enabled, clear_events, current_span, disable_capture, drain_events, enable_capture,
    record_external, timed_span, with_parent, SpanCtx, SpanEvent, SpanGuard,
};

/// Opens a span in category `$cat` named `$name`.
///
/// Guard form — `let _g = span!("job", name);` — keeps the span open
/// until `_g` drops. Block form — `span!("job", name => { ... })` —
/// scopes it around the block and yields the block's value. The name
/// expression is evaluated lazily, only when capture is enabled.
#[macro_export]
macro_rules! span {
    ($cat:expr, $name:expr => $body:block) => {{
        let _obsv_span_guard = $crate::tracer::SpanGuard::enter($cat, || ($name).into());
        $body
    }};
    ($cat:expr, $name:expr) => {
        $crate::tracer::SpanGuard::enter($cat, || ($name).into())
    };
}
