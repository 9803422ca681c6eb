//! # asr-serve — the async batched, multi-model serving front
//!
//! The paper's SoC decodes one fixed LVCSR task; this crate turns the
//! reproduction into a traffic-serving system for *heterogeneous* traffic.
//! A [`ModelRegistry`] names the models one server hosts (dictation, a
//! command grammar, per-domain LMs — each an `Arc`-held [`Recognizer`]);
//! callers [`submit`] a [`DecodeRequest`] carrying feature frames plus
//! routing (model name, tenant) into a **bounded request queue** and get
//! back a [`DecodeFuture`]; M decoder workers ([`ServeConfig::workers`])
//! drain the queue.  Each worker waits until it has `max_batch` commands or
//! its oldest has waited `max_batch_delay`, takes them in **arrival order**,
//! and decodes each request on a **warm decoder of the request's own model
//! version**, lent from the worker's pool — so models amortise their scorer
//! state across the whole stream, and a bad utterance fails alone.  Under a
//! sharded backend the pooled decoders' shard lanes stay warm across
//! utterances, so a warm server decodes indefinitely with zero thread
//! spawns.
//!
//! ```text
//!  clients ──DecodeRequest{features, model?, tenant?}──► admission
//!     ▲         │ registry: name ──► Arc<ModelVersion>  (version pinned
//!     │         │ quotas:  queue bound, per-model, per-tenant → QueueFull)
//!     │         ▼
//!     │      bounded queue ──┬─► worker 0 ─► flush in arrival order; each
//!     │       (FIFO, typed   ├─► worker 1 ─►   decode on a pooled decoder
//!     │        backpressure) └─► worker M ─►   of its own (model, version)
//!     └── DecodeFuture (std Future and/or blocking wait()) ◄──┘
//! ```
//!
//! **Routing** is part of the request, not the server: an unnamed request
//! goes to the registry's default model, so single-model callers still write
//! `server.submit(features)`.  **Hot-swap**
//! ([`AsrServer::swap_model`]) replaces the `Arc` a name resolves to;
//! requests admitted before the swap finish on the version they were
//! admitted under (their `Arc` pins it), new admissions see the new version,
//! and the queue never drains.  **Admission control** is layered: the global
//! `max_pending` bound on queued commands, an optional per-model quota, and
//! an optional per-tenant quota — each rejection is a typed
//! [`ServeError::QueueFull`] naming the [`QueueScope`] that was hit.  A
//! quota counts requests from admission until they complete, so a burst is
//! rejected the same way however fast the workers drain the queue.  [`ServeStats`] and hardware
//! reports split per model ([`AsrServer::model_stats`],
//! [`AsrServer::model_hardware_report`]).
//!
//! Whole-utterance requests go to whichever worker is idle; stream sessions
//! are **pinned** to one worker (`id % workers`), which keeps each session's
//! chunks in order while different sessions fan out across workers.
//!
//! Overload is **typed, not silent**: when a scope is full, [`submit`]
//! returns [`ServeError::QueueFull`] immediately — the request is never
//! dropped on the floor and the caller decides whether to retry, shed or
//! block.  The server never cancels accepted work: every accepted request's
//! future resolves, and requests still queued at shutdown are drained before
//! the worker exits.
//!
//! The crate is executor-agnostic by construction: [`DecodeFuture`]
//! implements [`std::future::Future`] so it can be awaited on any executor,
//! and also offers a blocking [`DecodeFuture::wait`] for synchronous callers.
//! A minimal [`block_on`] shim ships for environments without an async
//! runtime (this workspace builds offline with no external dependencies).
//!
//! [`submit`]: AsrServer::submit
//! [`Recognizer`]: asr_core::Recognizer
//!
//! # Example
//!
//! Two models co-resident in one server, routed by name, hot-swapped live:
//!
//! ```
//! use asr_corpus::{TaskConfig, TaskGenerator};
//! use asr_core::{DecoderConfig, Recognizer};
//! use asr_serve::{block_on, AsrServer, DecodeRequest, ModelRegistry, ServeConfig};
//!
//! fn recognizer(seed: u64) -> Recognizer {
//!     let task = TaskGenerator::new(seed).generate(&TaskConfig::tiny()).unwrap();
//!     Recognizer::new(
//!         task.acoustic_model.clone(),
//!         task.dictionary.clone(),
//!         task.language_model.clone(),
//!         DecoderConfig::simd(),
//!     )
//!     .unwrap()
//! }
//!
//! let task = TaskGenerator::new(9).generate(&TaskConfig::tiny()).unwrap();
//! let registry = ModelRegistry::new()
//!     .register("dictation", recognizer(9))
//!     .unwrap()
//!     .register("voice_command", recognizer(40))
//!     .unwrap()
//!     .default_model("dictation");
//! let server = AsrServer::spawn(registry, ServeConfig::default()).unwrap();
//!
//! // Enqueue a few utterances; a worker takes them in one flush and decodes
//! // each on its warm "dictation" decoder.
//! let pending: Vec<_> = (0..4)
//!     .map(|seed| {
//!         let (features, reference) = task.synthesize_utterance(1, 0.2, seed);
//!         let request = DecodeRequest::new(features).model("dictation");
//!         (server.submit(request).unwrap(), reference)
//!     })
//!     .collect();
//! for (future, reference) in pending {
//!     // A DecodeFuture is a std Future — await it on any executor (the
//!     // bundled block_on here), or call .wait() to block synchronously.
//!     let result = block_on(future).unwrap();
//!     assert_eq!(result.hypothesis.words, reference);
//! }
//! assert_eq!(server.stats().completed, 4);
//! assert_eq!(server.model_stats("dictation").unwrap().completed, 4);
//! assert_eq!(server.model_stats("voice_command").unwrap().completed, 0);
//!
//! // Hot-swap "dictation" to a retrained version — no drain, no downtime.
//! assert_eq!(server.swap_model("dictation", recognizer(9)).unwrap(), 2);
//! assert_eq!(server.model_version("dictation"), Some(2));
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod future;
mod registry;
mod request;
mod server;

pub use future::{block_on, DecodeFuture};
pub use registry::{ModelRegistry, DEFAULT_MODEL};
pub use request::{DecodeRequest, StreamOptions};
pub use server::{AsrServer, ServeStats, StreamHandle};

// Streaming clients read partial hypotheses through the serve layer too; the
// type is asr-core's, re-exported so callers need only this crate.
pub use asr_core::PartialHypothesis;

// The telemetry handle the observed spawn path takes; re-exported so
// serving callers need only this crate.
pub use asr_obs::Telemetry;

use asr_core::DecodeError;
use std::time::Duration;

/// Configuration of the serving front.
///
/// Construct with the builders —
/// `ServeConfig::default().workers(4).max_batch(16)` — the struct is
/// `#[non_exhaustive]`, so fields may be added without breaking callers.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct ServeConfig {
    /// Bound on requests waiting in the queue (accepted but not yet decoding).
    /// When the queue is full, [`AsrServer::submit`] returns
    /// [`ServeError::QueueFull`] instead of blocking or dropping — the typed
    /// backpressure signal.
    pub max_pending: usize,
    /// The micro-batcher flushes as soon as this many requests are pending.
    pub max_batch: usize,
    /// …or when the oldest pending request has waited this long, whichever
    /// comes first.  The knob trades per-request latency against batch
    /// amortisation.
    pub max_batch_delay: Duration,
    /// Number of decoder workers draining the queue.  Each worker owns its
    /// own long-lived per-model decoders (with the backend's shard threads
    /// underneath), so `workers` independent micro-batches decode
    /// concurrently; stream sessions are pinned to one worker each so their
    /// chunks stay ordered.  The default of 1 reproduces the single-batcher
    /// behaviour exactly.
    pub workers: usize,
    /// Per-model admission quota: at most this many requests per model
    /// admitted and not yet completed (queued or decoding), so one model's
    /// burst cannot starve its neighbours.  `None` (the default) disables
    /// the per-model scope.
    pub model_quota: Option<usize>,
    /// Per-tenant admission quota, counted like the per-model one for
    /// requests that name a tenant ([`DecodeRequest::tenant`]).  `None` (the
    /// default) disables the per-tenant scope.
    pub tenant_quota: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_pending: 64,
            max_batch: 8,
            max_batch_delay: Duration::from_millis(2),
            workers: 1,
            model_quota: None,
            tenant_quota: None,
        }
    }
}

impl ServeConfig {
    /// Sets the queue bound (builder style).
    #[must_use]
    pub fn max_pending(mut self, max_pending: usize) -> Self {
        self.max_pending = max_pending;
        self
    }

    /// Sets the micro-batch flush size (builder style).
    #[must_use]
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Sets the micro-batch flush deadline (builder style).
    #[must_use]
    pub fn max_batch_delay(mut self, max_batch_delay: Duration) -> Self {
        self.max_batch_delay = max_batch_delay;
        self
    }

    /// Sets the number of decoder workers (builder style):
    /// `ServeConfig::default().workers(4)` is a four-lane serving front.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the per-model admission quota (builder style).
    #[must_use]
    pub fn model_quota(mut self, quota: usize) -> Self {
        self.model_quota = Some(quota);
        self
    }

    /// Sets the per-tenant admission quota (builder style).
    #[must_use]
    pub fn tenant_quota(mut self, quota: usize) -> Self {
        self.tenant_quota = Some(quota);
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] when the queue bound, batch
    /// size, worker count, or a set quota is zero.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.max_pending == 0 {
            return Err(ServeError::InvalidConfig("max_pending must be >= 1".into()));
        }
        if self.max_batch == 0 {
            return Err(ServeError::InvalidConfig("max_batch must be >= 1".into()));
        }
        if self.workers == 0 {
            return Err(ServeError::InvalidConfig("workers must be >= 1".into()));
        }
        if self.model_quota == Some(0) {
            return Err(ServeError::InvalidConfig(
                "model_quota must be >= 1 when set".into(),
            ));
        }
        if self.tenant_quota == Some(0) {
            return Err(ServeError::InvalidConfig(
                "tenant_quota must be >= 1 when set".into(),
            ));
        }
        Ok(())
    }
}

/// Which admission scope rejected a request — carried by
/// [`ServeError::QueueFull`] so callers can tell *shared* overload (shed or
/// retry anywhere) from a *per-model* or *per-tenant* quota (reroute, or
/// back off just that traffic class).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum QueueScope {
    /// The global `max_pending` bound across all models and tenants.
    Queue,
    /// The named model's [`ServeConfig::model_quota`].
    Model(String),
    /// The named tenant's [`ServeConfig::tenant_quota`].
    Tenant(String),
}

impl core::fmt::Display for QueueScope {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            QueueScope::Queue => write!(f, "request queue"),
            QueueScope::Model(model) => write!(f, "model '{model}' quota"),
            QueueScope::Tenant(tenant) => write!(f, "tenant '{tenant}' quota"),
        }
    }
}

/// Errors produced by the serving front.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// An admission scope is full — the typed backpressure/overload signal.
    /// The request was **not** enqueued (and not dropped from the queue);
    /// retry later or shed load upstream.
    #[non_exhaustive]
    QueueFull {
        /// The configured bound of the scope that was hit (`max_pending`
        /// for [`QueueScope::Queue`], the quota otherwise).
        capacity: usize,
        /// Which admission scope rejected the request: the shared queue, a
        /// model quota, or a tenant quota.
        scope: QueueScope,
    },
    /// The request named a model the registry does not serve.
    #[non_exhaustive]
    UnknownModel {
        /// The unrecognised model name.
        model: String,
    },
    /// The server is shutting down (or its worker died); no new requests are
    /// accepted and unstarted work resolves to this error.
    Closed,
    /// The underlying decode failed; the typed [`DecodeError`] is preserved.
    Decode(DecodeError),
    /// The serving configuration was invalid.
    InvalidConfig(String),
}

impl core::fmt::Display for ServeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ServeError::QueueFull { capacity, scope } => {
                write!(f, "{scope} full ({capacity} pending)")
            }
            ServeError::UnknownModel { model } => {
                write!(f, "unknown model '{model}'")
            }
            ServeError::Closed => write!(f, "server is closed"),
            ServeError::Decode(e) => write!(f, "decode failed: {e}"),
            ServeError::InvalidConfig(msg) => write!(f, "invalid serve config: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DecodeError> for ServeError {
    fn from(e: DecodeError) -> Self {
        ServeError::Decode(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        ServeConfig::default().validate().unwrap();
        assert!(ServeConfig::default().max_pending(0).validate().is_err());
        assert!(ServeConfig::default().max_batch(0).validate().is_err());
        assert!(ServeConfig::default().workers(0).validate().is_err());
        assert!(ServeConfig::default().model_quota(0).validate().is_err());
        assert!(ServeConfig::default().tenant_quota(0).validate().is_err());
    }

    #[test]
    fn config_builders_cover_every_field() {
        let config = ServeConfig::default()
            .max_pending(128)
            .max_batch(16)
            .max_batch_delay(Duration::from_millis(5))
            .workers(4)
            .model_quota(32)
            .tenant_quota(8);
        assert_eq!(config.max_pending, 128);
        assert_eq!(config.max_batch, 16);
        assert_eq!(config.max_batch_delay, Duration::from_millis(5));
        assert_eq!(config.workers, 4);
        assert_eq!(config.model_quota, Some(32));
        assert_eq!(config.tenant_quota, Some(8));
        config.validate().unwrap();
    }

    #[test]
    fn error_display_and_source() {
        use std::error::Error;
        let full = ServeError::QueueFull {
            capacity: 8,
            scope: QueueScope::Queue,
        };
        assert!(full.to_string().contains('8'));
        assert!(ServeError::QueueFull {
            capacity: 2,
            scope: QueueScope::Model("dictation".into()),
        }
        .to_string()
        .contains("dictation"));
        assert!(ServeError::QueueFull {
            capacity: 2,
            scope: QueueScope::Tenant("acme".into()),
        }
        .to_string()
        .contains("acme"));
        assert!(ServeError::UnknownModel {
            model: "nope".into()
        }
        .to_string()
        .contains("nope"));
        assert!(!ServeError::Closed.to_string().is_empty());
        assert!(ServeError::InvalidConfig("x".into())
            .to_string()
            .contains('x'));
        let e: ServeError = DecodeError::InvalidConfig("beam".into()).into();
        assert!(matches!(e, ServeError::Decode(_)));
        assert!(e.source().is_some(), "typed decode source must survive");
        assert!(ServeError::Closed.source().is_none());
    }
}
