//! # pnm-obs — observability for the PNM workspace
//!
//! Dependency-free (vendored-serde only) tracing and metrics used by
//! every layer of the traceback stack:
//!
//! * **Tracing** ([`trace`]): [`Tracer`] hands out RAII [`Span`] guards
//!   with monotonic microsecond timing and structured fields, delivering
//!   events to a pluggable [`Collector`]. The no-op tracer is completely
//!   inert — instrumented code pays one `Option` check, pinned < 2%
//!   end-to-end by the `bench_obs` bin in `pnm-sim`. [`Tracer::ring`]
//!   buffers the newest events in a bounded ring that exports JSONL.
//!   Spans carry causal identity: a [`TraceContext`] (trace id + parent
//!   span) crosses threads, queues, and the gateway wire, so one
//!   packet's journey is one trace.
//! * **Flight recording** ([`flight`]): the sharded
//!   [`ShardedRingCollector`] is cheap enough to leave armed always-on
//!   (pinned < 5% by `bench_obs`); [`FlightRecorder`] dumps its recent
//!   history as an anomaly-tagged JSONL black-box when something breaks.
//! * **Metrics** ([`metrics`]): a labeled [`Registry`] of counters and
//!   histograms; [`prometheus_text`] and [`series_json`] render the
//!   series of one or several registries deterministically. [`LatencyHistogram`] (formerly in `pnm-service`) lives
//!   here: power-of-two buckets, saturating arithmetic, mergeable across
//!   shards, conservative upper-bound quantiles.
//! * **JSON** ([`json`]): the one shared hand-rolled JSON renderer and a
//!   strict parser, so emitters cannot drift in keys or escaping and CI
//!   can validate everything the workspace writes.
//!
//! ## Quickstart
//!
//! ```
//! use pnm_obs::{Registry, Tracer};
//!
//! // Metrics: get handles once, hit atomics on the hot path.
//! let registry = Registry::new();
//! let verified = registry.counter("pnm_marks_verified_total", &[("shard", "0")]);
//! verified.add(3);
//! let stage = registry.histogram("pnm_stage_us", &[("stage", "verify")]);
//! stage.record(42);
//! assert!(registry.prometheus_text().contains("pnm_marks_verified_total{shard=\"0\"} 3"));
//!
//! // Tracing: spans measure, the ring collector buffers, JSONL exports.
//! let (tracer, ring) = Tracer::ring(1024);
//! {
//!     let mut span = tracer.span("sink.verify");
//!     span.field("hashes", 12u64);
//! }
//! assert_eq!(ring.events().len(), 2); // open + close
//!
//! // Disabled tracing is inert: no clock reads, no allocation.
//! let off = Tracer::noop();
//! let _guard = off.span("sink.verify");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flight;
pub mod json;
pub mod metrics;
pub mod trace;

pub use flight::{AnomalySummary, FlightRecorder, ShardedRingCollector};
pub use json::JsonValue;
pub use metrics::{
    prometheus_text, series_json, Counter, Histogram, LatencyHistogram, Registry, Series,
    SeriesValue, BUCKETS,
};
pub use trace::{
    Collector, Event, EventKind, FieldValue, NoopCollector, Span, TraceContext, Tracer,
};
