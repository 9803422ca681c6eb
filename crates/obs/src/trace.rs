//! Request tracing: trace ids minted at admission, typed span events emitted
//! at every seam of the serve→stream→shard pipeline, recorded as `span`
//! facts through an [`ObsSink`].
//!
//! A **trace** is one admitted unit of work — a whole-utterance decode
//! request, a stream session, or a rejected admission attempt.  Its span
//! events form a flat tree ordered by a per-telemetry sequence number:
//! [`SpanEvent::Admitted`] first, then interior events, then exactly one
//! terminal ([`SpanEvent::Finished`] or [`SpanEvent::Rejected`]).  The
//! workspace's `tests/obs_trace.rs` property-checks this balance across all
//! backends and worker counts.
//!
//! [`Telemetry`] is the handle instrumented code holds.  It is off by
//! default ([`Telemetry::disabled`]) and then every call is a branch on a
//! `None` — the hot path pays near zero, which the `obs_overhead` bench
//! gate enforces.  A handle is the only way telemetry reaches a layer:
//! whatever records span facts is handed one.  Layers below the decode call
//! (the shard pool) hold none; they expose counts that the layer owning the
//! trace reads and reports (see [`SpanEvent::ShardDispatch`]).

use crate::sink::{Fact, ObsSink};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Identifier of one trace (one admitted request / session).  Ids are minted
/// by [`Telemetry::begin_trace`], start at 1, and never repeat within a
/// telemetry instance; [`TraceId::NONE`] (0) marks untraced work and is
/// never recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TraceId(u64);

impl TraceId {
    /// The null trace: what a disabled handle mints for untraced work.  No
    /// span fact is ever recorded under it.
    pub const NONE: TraceId = TraceId(0);

    /// The raw id value (0 for [`TraceId::NONE`]).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Whether this is the null trace.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// How a finished trace ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The request decoded successfully.
    Completed,
    /// The decode failed; the error went to the caller.
    Failed,
    /// The client abandoned the work (dropped handle / barge-in cancel).
    Cancelled,
}

impl Outcome {
    /// Stable lowercase name used in fact records.
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Completed => "completed",
            Outcome::Failed => "failed",
            Outcome::Cancelled => "cancelled",
        }
    }
}

/// What kind of work a trace covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// A whole-utterance decode request.
    Decode,
    /// An incremental stream session.
    Stream,
}

impl RequestKind {
    /// Stable lowercase name used in fact records.
    pub fn name(self) -> &'static str {
        match self {
            RequestKind::Decode => "decode",
            RequestKind::Stream => "stream",
        }
    }
}

/// One typed span event.  Every variant maps to one `span` fact whose
/// `event` field is [`SpanEvent::name`]; variant payloads become additional
/// fact fields.
#[derive(Debug, Clone, PartialEq)]
pub enum SpanEvent {
    /// The request passed admission routing: a trace exists.  Always the
    /// first event of a trace.
    Admitted {
        /// Decode request or stream session.
        kind: RequestKind,
        /// The model name it was admitted under, when routed by a registry.
        model: Option<String>,
        /// The tenant it was charged to, when tenant quotas apply.
        tenant: Option<String>,
    },
    /// The command entered the bounded queue.
    Enqueued {
        /// Queue depth after the insert (this command included).
        depth: usize,
    },
    /// A worker took a flush of queued commands; recorded on the trace of
    /// every decode in it.
    BatchFormed {
        /// Which worker flushed it.
        worker: usize,
        /// Whole-utterance decodes of this request's model in the flush.
        batch: usize,
    },
    /// A worker began decoding this request.
    DecodeStarted {
        /// Which worker picked it up.
        worker: usize,
    },
    /// The decode of this request spawned shard lane threads: the
    /// serve worker reads its decoder's spawn count before and after each
    /// whole-utterance decode and, when it grew, records this before the
    /// trace's `Finished`.
    ShardDispatch {
        /// Worker threads spawned during this decode.
        threads: usize,
    },
    /// The stream endpointer opened an utterance (speech detected).
    VadSpeechStart {
        /// Stream position (feature frames consumed so far).
        frame: usize,
    },
    /// The endpointer closed an utterance naturally (trailing silence).
    VadSpeechEnd {
        /// Feature frames the closed utterance decoded.
        frames: usize,
    },
    /// The session forced an endpoint at the utterance length cap.
    ForcedEndpoint {
        /// Feature frames the force-closed utterance decoded.
        frames: usize,
    },
    /// A partial hypothesis was published to the client.
    PartialEmitted {
        /// Words in the partial.
        words: usize,
        /// Wall-clock cost of the chunk that produced it, in microseconds.
        latency_us: u64,
    },
    /// The client cancelled mid-stream (barge-in); the session continues.
    BargeIn {
        /// Feature frames of the utterance that was discarded.
        frames: usize,
    },
    /// Terminal: the trace's work finished (successfully or not).
    Finished {
        /// How it ended.
        outcome: Outcome,
        /// Feature frames processed over the trace's lifetime.
        frames: usize,
    },
    /// Terminal: admission refused the request (queue/model/tenant quota).
    Rejected {
        /// The quota scope that rejected it (`"queue"`, `"model"`,
        /// `"tenant"`).
        scope: String,
    },
}

impl SpanEvent {
    /// Stable lowercase event name used in fact records.
    pub fn name(&self) -> &'static str {
        match self {
            SpanEvent::Admitted { .. } => "admitted",
            SpanEvent::Enqueued { .. } => "enqueued",
            SpanEvent::BatchFormed { .. } => "batch_formed",
            SpanEvent::DecodeStarted { .. } => "decode_started",
            SpanEvent::ShardDispatch { .. } => "shard_dispatch",
            SpanEvent::VadSpeechStart { .. } => "vad_speech_start",
            SpanEvent::VadSpeechEnd { .. } => "vad_speech_end",
            SpanEvent::ForcedEndpoint { .. } => "forced_endpoint",
            SpanEvent::PartialEmitted { .. } => "partial_emitted",
            SpanEvent::BargeIn { .. } => "barge_in",
            SpanEvent::Finished { .. } => "finished",
            SpanEvent::Rejected { .. } => "rejected",
        }
    }

    /// Whether this event closes its trace (each trace must end with
    /// exactly one terminal event).
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            SpanEvent::Finished { .. } | SpanEvent::Rejected { .. }
        )
    }

    fn append_fields(&self, fact: Fact) -> Fact {
        match self {
            SpanEvent::Admitted {
                kind,
                model,
                tenant,
            } => {
                let mut fact = fact.with("req", kind.name());
                if let Some(model) = model {
                    fact = fact.with("model", model.as_str());
                }
                if let Some(tenant) = tenant {
                    fact = fact.with("tenant", tenant.as_str());
                }
                fact
            }
            SpanEvent::Enqueued { depth } => fact.with("depth", *depth),
            SpanEvent::BatchFormed { worker, batch } => {
                fact.with("worker", *worker).with("batch", *batch)
            }
            SpanEvent::DecodeStarted { worker } => fact.with("worker", *worker),
            SpanEvent::ShardDispatch { threads } => fact.with("threads", *threads),
            SpanEvent::VadSpeechStart { frame } => fact.with("frame", *frame),
            SpanEvent::VadSpeechEnd { frames } | SpanEvent::ForcedEndpoint { frames } => {
                fact.with("frames", *frames)
            }
            SpanEvent::PartialEmitted { words, latency_us } => {
                fact.with("words", *words).with("latency_us", *latency_us)
            }
            SpanEvent::BargeIn { frames } => fact.with("frames", *frames),
            SpanEvent::Finished { outcome, frames } => {
                fact.with("outcome", outcome.name()).with("frames", *frames)
            }
            SpanEvent::Rejected { scope } => fact.with("scope", scope.as_str()),
        }
    }
}

#[derive(Debug)]
struct TelemetryInner {
    sink: Arc<dyn ObsSink>,
    next_trace: AtomicU64,
    /// The next sequence number.  Held across the sink append, so sink
    /// order is `seq` order.
    seq: Mutex<u64>,
}

/// The tracing handle instrumented code holds.  Cheap to clone (an
/// `Option<Arc>`); [`Telemetry::disabled`] is the default everywhere, and
/// then [`Telemetry::emit`] is a single branch — the off state costs
/// near zero on the hot path (bench-gated by `obs_overhead`).
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<TelemetryInner>>,
}

impl Telemetry {
    /// The no-op handle: mints no trace ids, records nothing.
    pub const fn disabled() -> Telemetry {
        Telemetry { inner: None }
    }

    /// An enabled handle recording every span fact into `sink`.
    pub fn to_sink(sink: Arc<dyn ObsSink>) -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(TelemetryInner {
                sink,
                next_trace: AtomicU64::new(1),
                seq: Mutex::new(1),
            })),
        }
    }

    /// Shorthand: an enabled handle over a fresh [`crate::MemorySink`],
    /// returning both (tests).
    pub fn to_memory() -> (Telemetry, Arc<crate::MemorySink>) {
        let sink = Arc::new(crate::MemorySink::new());
        (Telemetry::to_sink(sink.clone() as Arc<dyn ObsSink>), sink)
    }

    /// Whether events will be recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Mints a fresh trace id, or [`TraceId::NONE`] when disabled.
    pub fn begin_trace(&self) -> TraceId {
        match &self.inner {
            Some(inner) => TraceId(inner.next_trace.fetch_add(1, Ordering::Relaxed)),
            None => TraceId::NONE,
        }
    }

    /// Records `event` under `trace` as one `span` fact.  No-op when
    /// disabled.  `trace` is one this handle minted, never
    /// [`TraceId::NONE`].
    ///
    /// The sequence number is allocated, and the fact stamped and appended,
    /// under one lock, so every sink sees facts in strictly increasing `seq`
    /// order with monotone timestamps, whichever threads emit them.
    pub fn emit(&self, trace: TraceId, event: &SpanEvent) {
        let Some(inner) = &self.inner else { return };
        debug_assert!(!trace.is_none(), "span fact on the null trace");
        // The counter is advanced before the append, so it stays valid even
        // if a sink panics while the guard is held.
        let mut next_seq = inner.seq.lock().unwrap_or_else(PoisonError::into_inner);
        let seq = *next_seq;
        *next_seq += 1;
        let fact = Fact::new("span")
            .with("trace", trace.raw())
            .with("seq", seq)
            .with("event", event.name());
        inner.sink.record(&event.append_fields(fact));
    }

    /// Flushes the underlying sink (no-op when disabled).
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            inner.sink.flush();
        }
    }

    /// The sink behind this handle, when enabled (snapshot export paths).
    pub fn sink(&self) -> Option<Arc<dyn ObsSink>> {
        self.inner.as_ref().map(|inner| inner.sink.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_telemetry_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        assert_eq!(t.begin_trace(), TraceId::NONE);
        t.emit(TraceId::NONE, &SpanEvent::DecodeStarted { worker: 0 }); // must not panic
        t.flush();
        assert!(t.sink().is_none());
    }

    #[test]
    fn concurrent_emitters_append_in_seq_order() {
        let (t, sink) = Telemetry::to_memory();
        std::thread::scope(|scope| {
            for worker in 0..4 {
                let t = t.clone();
                scope.spawn(move || {
                    let trace = t.begin_trace();
                    for _ in 0..500 {
                        t.emit(trace, &SpanEvent::DecodeStarted { worker });
                    }
                });
            }
        });
        let facts = sink.facts();
        let seqs: Vec<u64> = facts
            .iter()
            .map(|f| f.field("seq").and_then(|v| v.as_u64()).unwrap())
            .collect();
        assert_eq!(seqs, (1..=2000).collect::<Vec<u64>>());
        assert!(facts.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
    }

    #[test]
    fn emit_records_span_facts_with_monotone_seq() {
        let (t, sink) = Telemetry::to_memory();
        let a = t.begin_trace();
        let b = t.begin_trace();
        assert_ne!(a, b);
        assert!(!a.is_none());
        t.emit(
            a,
            &SpanEvent::Admitted {
                kind: RequestKind::Decode,
                model: Some("default".into()),
                tenant: None,
            },
        );
        t.emit(a, &SpanEvent::Enqueued { depth: 1 });
        t.emit(
            b,
            &SpanEvent::Rejected {
                scope: "queue".into(),
            },
        );
        let facts = sink.facts();
        assert_eq!(facts.len(), 3);
        let seqs: Vec<u64> = facts
            .iter()
            .map(|f| f.field("seq").and_then(|v| v.as_u64()).unwrap())
            .collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "seqs {seqs:?}");
        assert_eq!(
            facts[0].field("event").and_then(|v| v.as_str()),
            Some("admitted")
        );
        assert_eq!(
            facts[0].field("trace").and_then(|v| v.as_u64()),
            Some(a.raw())
        );
        assert_eq!(
            facts[2].field("scope").and_then(|v| v.as_str()),
            Some("queue")
        );
        // Round-trip through the JSONL encoding.
        let line = facts[0].to_json();
        assert_eq!(Fact::parse_json(&line).unwrap(), facts[0]);
    }

    #[test]
    fn terminal_classification() {
        assert!(SpanEvent::Finished {
            outcome: Outcome::Completed,
            frames: 1
        }
        .is_terminal());
        assert!(SpanEvent::Rejected {
            scope: "model".into()
        }
        .is_terminal());
        assert!(!SpanEvent::Enqueued { depth: 0 }.is_terminal());
        assert!(!SpanEvent::BargeIn { frames: 3 }.is_terminal());
    }
}
