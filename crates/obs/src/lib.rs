//! # asr-obs — the observability layer
//!
//! The paper's low-power argument is an accounting argument: it only holds
//! if every cycle, frame, and joule is attributable.  This crate is the
//! runtime side of that accounting — one coherent layer the whole
//! serve→stream→shard pipeline reports into, instead of per-crate counters
//! that fold differently per layer:
//!
//! ```text
//!  asr-serve ──┐  Admitted/Enqueued/BatchFormed/DecodeStarted/Finished…
//!  asr-stream ─┴► Telemetry ──► span Facts ──► ObsSink ──► facts.jsonl
//!                 (TraceId per admitted request / stream session)
//!
//!  Counters / Gauges / Histograms ──► MetricsRegistry ──► MetricsSnapshot
//!  (lock-cheap handles: relaxed atomics on the hot path)      │
//!                                            metric Facts ◄───┘
//! ```
//!
//! Three pieces:
//!
//! * **Request tracing** ([`trace`]): every admitted decode request or
//!   stream session gets a [`TraceId`]; typed [`SpanEvent`]s are emitted at
//!   each seam and recorded as `span` facts.  A [`Telemetry`] handle passed
//!   to a layer is the only way its events reach a sink.  Off by default
//!   ([`Telemetry::disabled`]) — the disabled hot path is one branch,
//!   enforced by the `obs_overhead` bench gate.
//! * **Metrics registry** ([`metrics`]): named counters, gauges, and
//!   latency histograms.  Handles are `Arc`s over plain atomics, so
//!   recording never takes a lock; [`LatencyHistogram`] (promoted out of
//!   the serving crate) keeps percentile math exact under merging.
//! * **Fact sink** ([`sink`]): one self-describing JSONL record per event
//!   or snapshot, written to memory (tests) or an append-only run directory
//!   with host metadata — the format the experiment harness and
//!   `obs_validate` read back.
//!
//! # Example
//!
//! ```
//! use asr_obs::{MetricsRegistry, SpanEvent, Telemetry, RequestKind, Outcome};
//!
//! // Metrics: registry once, handles on the hot path.
//! let registry = MetricsRegistry::new();
//! let served = registry.counter("serve.completed");
//! served.inc();
//! assert_eq!(registry.snapshot().len(), 1);
//!
//! // Tracing: a trace per request, events at each seam, one terminal.
//! let (telemetry, sink) = Telemetry::to_memory();
//! let trace = telemetry.begin_trace();
//! telemetry.emit(trace, &SpanEvent::Admitted {
//!     kind: RequestKind::Decode, model: None, tenant: None,
//! });
//! telemetry.emit(trace, &SpanEvent::Finished {
//!     outcome: Outcome::Completed, frames: 42,
//! });
//! assert_eq!(sink.facts().len(), 2);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod hist;
pub mod metrics;
pub mod sink;
pub mod trace;

pub use hist::{percentile_of, LatencyHistogram, LATENCY_BUCKETS};
pub use metrics::{Counter, Gauge, Histogram, MetricValue, MetricsRegistry, MetricsSnapshot};
pub use sink::{host_fact, now_micros, Fact, FieldValue, MemorySink, ObsSink, RunDirSink};
pub use trace::{Outcome, RequestKind, SpanEvent, Telemetry, TraceId};
