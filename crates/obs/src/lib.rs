//! # asr-obs — the observability layer
//!
//! The paper's low-power argument is an accounting argument: it only holds
//! if every cycle, frame, and joule is attributable.  This crate is the
//! runtime side of that accounting — one tracing layer the serve→stream
//! pipeline reports into, and one latency histogram every layer's counters
//! share:
//!
//! ```text
//!  asr-serve ──┐  Admitted/Enqueued/BatchFormed/DecodeStarted/Finished…
//!  asr-stream ─┴► Telemetry ──► span Facts ──► ObsSink ──► facts.jsonl
//!                 (TraceId per admitted request / stream session)
//!
//!  LatencyHistogram: log₂ µs buckets, relaxed atomics, summed across
//!  sources before one percentile walk
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
//! * **Latency histograms** ([`hist`]): [`LatencyHistogram`] is the one
//!   bucket geometry and percentile walk every layer shares; recording is a
//!   relaxed atomic add, and per-source histograms merge bucket-wise so
//!   aggregate percentiles stay exact.
//! * **Fact sink** ([`sink`]): one self-describing JSONL record per event
//!   or snapshot, written to memory (tests) or an append-only run directory
//!   with host metadata — the format the experiment harness and
//!   `obs_validate` read back.
//!
//! # Example
//!
//! ```
//! use asr_obs::{LatencyHistogram, SpanEvent, Telemetry, RequestKind, Outcome};
//! use std::time::Duration;
//!
//! // Latency: record on the hot path, read percentiles at snapshot time.
//! let service = LatencyHistogram::new();
//! service.record(Duration::from_micros(300));
//! assert_eq!(service.percentile(0.5), Some(Duration::from_micros(512)));
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
pub mod sink;
pub mod trace;

pub use hist::{percentile_of, LatencyHistogram, LATENCY_BUCKETS};
pub use sink::{host_fact, now_micros, Fact, FieldValue, MemorySink, ObsSink, RunDirSink};
pub use trace::{Outcome, RequestKind, SpanEvent, Telemetry, TraceId};
