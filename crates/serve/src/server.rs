//! The server: a bounded request queue routed across a registry of named
//! models and fanned out to M decoder workers.  Each worker takes its next
//! commands in arrival order and decodes each on a warm decoder of the
//! request's own *(model, version)*, lent from the worker's pool;
//! incremental stream sessions multiplex over the same queue (pinned to one
//! worker each so their chunks stay ordered) and pin the model version they
//! opened under.

use crate::future::{DecodeFuture, Slot};
use crate::registry::{ModelRegistry, ModelVersion};
use crate::request::{DecodeRequest, StreamOptions};
use crate::{QueueScope, ServeConfig, ServeError};
use asr_core::{DecodeResult, DecodeSession, PartialHypothesis, PhoneDecoder, Recognizer};
use asr_hw::UtteranceReport;
use asr_obs::{
    percentile_of, LatencyHistogram, Outcome, RequestKind, SpanEvent, Telemetry, TraceId,
    LATENCY_BUCKETS,
};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What a request was admitted *under*: the pinned model version that will
/// decode it and the tenant its quota accounting charges.
///
/// The `Arc<ModelVersion>` is the hot-swap invariant: admission clones the
/// registry slot's current `Arc`, so a swap that replaces the slot cannot
/// retarget work already admitted — queued requests and open stream sessions
/// keep decoding the exact version they were admitted under.
#[derive(Debug, Clone)]
struct Admission {
    model: Arc<ModelVersion>,
    tenant: Option<Arc<str>>,
    /// The request's trace id ([`TraceId::NONE`] when telemetry is off).
    /// A decode request mints one per request; a stream session mints one
    /// at open, and every push/finish/cancel of the session reuses it.
    trace: TraceId,
}

/// One accepted command: a whole-utterance decode, or one step in the life
/// of an incremental stream session.
///
/// The drop guard is the no-dangling-future invariant: however a
/// slot-carrying command leaves the queue (served, drained at shutdown, or
/// dropped because the worker died), its future resolves — unserved requests
/// fail with the typed [`ServeError::Closed`] instead of hanging their
/// caller.  Dropped stream pushes need no guard: their session's finish
/// command resolves (or fails `Closed`) on its own.
#[derive(Debug)]
enum Command {
    /// Decode one complete utterance and fulfil the slot.
    Decode {
        features: Vec<Vec<f32>>,
        slot: Arc<Slot>,
        admission: Admission,
    },
    /// Create an incremental session for stream `id`.
    StreamOpen {
        id: u64,
        state: Arc<StreamState>,
        admission: Admission,
    },
    /// Feed a feature chunk to stream `id`.
    StreamPush {
        id: u64,
        chunk: Vec<Vec<f32>>,
        admission: Admission,
    },
    /// Close stream `id` and fulfil the slot with its final result.
    StreamFinish {
        id: u64,
        slot: Arc<Slot>,
        admission: Admission,
    },
    /// Discard stream `id`'s session without producing a result (the
    /// client's handle was dropped unfinished).
    StreamCancel { id: u64, admission: Admission },
}

impl Command {
    /// Stream pushes, finishes and cancels are latency-sensitive: the
    /// micro-batcher skips its coalescing wait while one is queued.  An open
    /// carries no audio, so it waits for the session's first push or the
    /// next flush like a decode — and cannot sweep the decodes queued
    /// behind it into an early flush.
    fn is_urgent(&self) -> bool {
        !matches!(self, Command::Decode { .. } | Command::StreamOpen { .. })
    }

    /// Whether worker `worker` (of `workers`) may take this command.
    /// Whole-utterance decodes go to whichever worker is free; stream
    /// commands are pinned to `id % workers`, so one worker sees a session's
    /// open/push/finish in queue order and its partials stay ordered even
    /// while other sessions decode on other workers.
    fn belongs_to(&self, worker: usize, workers: usize) -> bool {
        match self {
            Command::Decode { .. } => true,
            Command::StreamOpen { id, .. }
            | Command::StreamPush { id, .. }
            | Command::StreamFinish { id, .. }
            | Command::StreamCancel { id, .. } => id % workers as u64 == worker as u64,
        }
    }

    /// The admission the command was accepted under.
    fn admission(&self) -> &Admission {
        match self {
            Command::Decode { admission, .. }
            | Command::StreamOpen { admission, .. }
            | Command::StreamPush { admission, .. }
            | Command::StreamFinish { admission, .. }
            | Command::StreamCancel { admission, .. } => admission,
        }
    }

    /// Whether the command carries a feature payload: the queue bound and
    /// the quotas apply to it, and it holds its quota charge until applied.
    /// Opens, finishes and cancels carry none — and bouncing a *finish*
    /// would strand a session whose work is already done.
    fn bounded(&self) -> bool {
        matches!(self, Command::Decode { .. } | Command::StreamPush { .. })
    }

    /// Whether the command resolves as `completed`/`failed`, and so counts
    /// as `submitted` work.
    fn counted(&self) -> bool {
        matches!(self, Command::Decode { .. } | Command::StreamFinish { .. })
    }
}

#[derive(Debug)]
struct Request {
    command: Command,
    /// When the command entered the queue; the micro-batcher flushes when
    /// the *oldest* pending command has waited `max_batch_delay`.
    enqueued: Instant,
}

impl Drop for Request {
    fn drop(&mut self) {
        // No-op when the batcher already fulfilled the slot.
        match &self.command {
            Command::Decode { slot, .. } | Command::StreamFinish { slot, .. } => {
                slot.fulfil(Err(ServeError::Closed));
            }
            Command::StreamOpen { .. }
            | Command::StreamPush { .. }
            | Command::StreamCancel { .. } => {}
        }
    }
}

/// Shared per-stream state: the latest partial hypothesis, readable by the
/// client between pushes.
#[derive(Debug, Default)]
struct StreamState {
    partial: Mutex<PartialHypothesis>,
}

impl StreamState {
    fn snapshot(&self) -> PartialHypothesis {
        self.partial
            .lock()
            .expect("stream partial lock poisoned")
            .clone()
    }

    fn store(&self, partial: PartialHypothesis) {
        *self.partial.lock().expect("stream partial lock poisoned") = partial;
    }
}

#[derive(Debug, Default)]
struct Queue {
    pending: VecDeque<Request>,
    closed: bool,
    /// Bounded commands (decodes and stream pushes) admitted and not yet
    /// resolved, per model name and per tenant — what the quotas count.
    /// Admission charges them; the worker releases a decode just before
    /// fulfilling its slot and a push once it has been applied, and a
    /// drain releases whatever it discards.
    in_flight_models: HashMap<Arc<str>, usize>,
    in_flight_tenants: HashMap<Arc<str>, usize>,
}

impl Queue {
    fn charge(&mut self, admission: &Admission) {
        *self
            .in_flight_models
            .entry(Arc::clone(&admission.model.name))
            .or_default() += 1;
        if let Some(tenant) = &admission.tenant {
            *self
                .in_flight_tenants
                .entry(Arc::clone(tenant))
                .or_default() += 1;
        }
    }

    fn release(&mut self, admission: &Admission) {
        fn dec(counts: &mut HashMap<Arc<str>, usize>, key: &str) {
            if let Some(n) = counts.get_mut(key) {
                *n -= 1;
                if *n == 0 {
                    counts.remove(key);
                }
            }
        }
        dec(&mut self.in_flight_models, &admission.model.name);
        if let Some(tenant) = &admission.tenant {
            dec(&mut self.in_flight_tenants, tenant);
        }
    }

    /// Discards every pending command (each drop guard fails its future
    /// [`ServeError::Closed`]), releasing the quota the bounded ones held.
    fn drain(&mut self) {
        while let Some(request) = self.pending.pop_front() {
            if request.command.bounded() {
                self.release(request.command.admission());
            }
        }
    }
}

/// Releases a resolved bounded command's quota charge.
fn release_quota(shared: &Shared, admission: &Admission) {
    shared
        .queue
        .lock()
        .expect("request queue lock poisoned")
        .release(admission);
}

/// Monotonic counters, one set **per registered model**; the whole-server
/// snapshot is a fold over every model's set ([`ServeStats`] is the one way
/// to read them).  Relaxed atomics: each is a statistic that publishes no
/// other data.
#[derive(Debug, Default)]
struct Counters {
    submitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    batches: AtomicU64,
    largest_batch: AtomicU64,
    stream_sessions: AtomicU64,
    stream_chunks: AtomicU64,
    /// Enqueue-to-dequeue wait of result-producing requests (decodes and
    /// stream finishes — the same units `submitted` counts).
    queue_wait: LatencyHistogram,
    /// Decode/finish execution time of those same requests.
    service: LatencyHistogram,
}

/// One registry slot: the hot-swappable current version plus the model's
/// counters and hardware report (which survive swaps — stats are per
/// *name*, not per version).
#[derive(Debug)]
struct ModelState {
    current: RwLock<Arc<ModelVersion>>,
    counters: Counters,
    /// Every served utterance of this model folded with
    /// [`UtteranceReport::merge`]; `None` until a hardware-backed one
    /// completes.
    hardware: Mutex<Option<UtteranceReport>>,
}

#[derive(Debug)]
struct Shared {
    queue: Mutex<Queue>,
    wakeup: Condvar,
    /// The registry: model name → hot-swappable state.  The *set* of names
    /// is fixed at spawn (no insertion or removal at runtime), which is what
    /// lets workers read this map without a lock; only each slot's `current`
    /// version swaps.
    models: HashMap<Arc<str>, ModelState>,
    /// The model unnamed requests route to.
    default_model: Arc<str>,
    /// Stream-session ids (monotonic; never reused within a server).  Also
    /// the pinning key: session `id` lives on worker `id % workers`.
    next_stream_id: AtomicU64,
    /// The tracing handle: disabled unless the server was spawned through
    /// [`AsrServer::spawn_observed`], and then every admitted request's span
    /// events record through it.
    telemetry: Telemetry,
}

impl Shared {
    /// The registry slot of a registered model.  Admission interns every
    /// request's model through the registry, so a name reaching the workers
    /// is always present.
    fn model(&self, name: &str) -> &ModelState {
        self.models
            .get(name)
            .expect("admitted request references a registered model")
    }
}

/// A point-in-time snapshot of serving counters — the whole server's
/// ([`AsrServer::stats`]) or one model's ([`AsrServer::model_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Units of result-producing work accepted into the queue:
    /// whole-utterance decode requests plus stream-session finishes.  Every
    /// `completed`/`failed` tick has a matching `submitted` tick, so
    /// `submitted - completed - failed` is the in-flight depth.
    pub submitted: u64,
    /// Requests refused with [`ServeError::QueueFull`] (any scope) at this
    /// model's admission.
    pub rejected: u64,
    /// Requests decoded successfully.
    pub completed: u64,
    /// Requests that failed to decode (the error went to the caller).
    pub failed: u64,
    /// Flushes that decoded this model: a worker's flush counts once for
    /// each model it carried whole-utterance decodes of, whatever else it
    /// carried.
    pub batches: u64,
    /// Largest number of this model's whole-utterance decodes in one flush
    /// so far.
    pub largest_batch: usize,
    /// Incremental stream sessions opened.
    pub stream_sessions: u64,
    /// Stream feature chunks processed by the workers.
    pub stream_chunks: u64,
    /// Median queue wait (enqueue to dequeue) of result-producing requests,
    /// as the upper bound of its power-of-two-microsecond histogram bucket.
    /// `None` until a request has been dequeued.
    pub queue_wait_p50: Option<Duration>,
    /// 99th-percentile queue wait (same histogram as
    /// [`ServeStats::queue_wait_p50`]).
    pub queue_wait_p99: Option<Duration>,
    /// Median service time (decode/finish execution) of result-producing
    /// requests, bucketed like the queue-wait percentiles.  Stream chunk
    /// decoding is paid during pushes, so a stream's service time covers its
    /// finish step only.
    pub service_p50: Option<Duration>,
    /// 99th-percentile service time.
    pub service_p99: Option<Duration>,
}

impl ServeStats {
    /// Mean whole-utterance decodes per flushed batch — the amortisation the
    /// micro-batcher achieved (1.0 means no coalescing happened).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            (self.completed + self.failed) as f64 / self.batches as f64
        }
    }
}

/// Folds per-model counter sets into one snapshot: sums everywhere except
/// `largest_batch` (a max) and the percentiles (bucket-summed histograms,
/// then one percentile walk — exact over the merged observations).
fn fold_stats<'c>(counters: impl Iterator<Item = &'c Counters>) -> ServeStats {
    let mut stats = ServeStats::default();
    let mut queue_wait = [0u64; LATENCY_BUCKETS];
    let mut service = [0u64; LATENCY_BUCKETS];
    let get = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
    for c in counters {
        stats.submitted += get(&c.submitted);
        stats.rejected += get(&c.rejected);
        stats.completed += get(&c.completed);
        stats.failed += get(&c.failed);
        stats.batches += get(&c.batches);
        stats.largest_batch = stats.largest_batch.max(get(&c.largest_batch) as usize);
        stats.stream_sessions += get(&c.stream_sessions);
        stats.stream_chunks += get(&c.stream_chunks);
        c.queue_wait.add_counts(&mut queue_wait);
        c.service.add_counts(&mut service);
    }
    stats.queue_wait_p50 = percentile_of(&queue_wait, 0.50);
    stats.queue_wait_p99 = percentile_of(&queue_wait, 0.99);
    stats.service_p50 = percentile_of(&service, 0.50);
    stats.service_p99 = percentile_of(&service, 0.99);
    stats
}

/// The async batched, multi-model serving front.
///
/// [`AsrServer::spawn`] moves a [`ModelRegistry`] of named recognisers (or
/// a single [`Recognizer`]) behind [`ServeConfig::workers`] decoder worker
/// threads.  Requests enter through [`AsrServer::submit`] as
/// [`DecodeRequest`]s — feature frames plus routing — pass layered
/// admission (queue bound, per-model quota, per-tenant quota, each
/// rejecting with a typed scope), and fan out to whichever worker is idle.
/// Each worker waits out a short coalescing window, takes its next commands
/// in arrival order, and decodes each request on a **warm decoder of the
/// request's own (model, version)**, lent from the worker's pool — so one
/// flush may carry several models and versions.  Stream sessions are
/// pinned to one worker each and pin the model version they opened under.
/// With a sharded backend each pooled decoder's shard lanes survive across
/// utterances, so a warm server decodes indefinitely without spawning a
/// single thread.
///
/// [`AsrServer::swap_model`] hot-swaps the version a name resolves to:
/// requests admitted before the swap finish on the version that admitted
/// them, new admissions decode on the new one, and the queue never drains.
///
/// Dropping the server closes the queue, drains the already-accepted
/// requests, and joins every worker; see [`AsrServer::close`] for the
/// explicit form.
#[derive(Debug)]
pub struct AsrServer {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    config: ServeConfig,
}

impl AsrServer {
    /// Validates `config` and the registry, probes every model's backend,
    /// and starts the worker threads serving all registered models side by
    /// side.  A single [`Recognizer`] converts into a one-entry registry
    /// under [`DEFAULT_MODEL`](crate::DEFAULT_MODEL), every unnamed request
    /// routed to it.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for a bad serving configuration
    /// or an invalid registry, [`ServeError::UnknownModel`] when the
    /// registry's default names an unregistered model, and
    /// [`ServeError::Decode`] when a model's backend fails to build.
    pub fn spawn(
        models: impl Into<ModelRegistry>,
        config: ServeConfig,
    ) -> Result<Self, ServeError> {
        Self::spawn_observed(models, config, Telemetry::disabled())
    }

    /// [`AsrServer::spawn`] with request tracing: every admitted request's
    /// span events record through `telemetry` (pass
    /// [`Telemetry::disabled`] for the plain untraced server — that is
    /// exactly what [`AsrServer::spawn`] does).
    ///
    /// # Errors
    ///
    /// As [`AsrServer::spawn`].
    pub fn spawn_observed(
        models: impl Into<ModelRegistry>,
        config: ServeConfig,
        telemetry: Telemetry,
    ) -> Result<Self, ServeError> {
        config.validate()?;
        let (models, default) = models.into().into_parts()?;
        let mut map = HashMap::with_capacity(models.len());
        let mut default_name: Option<Arc<str>> = None;
        for (name, recognizer) in models {
            // Probe the backend once per model so a bad config fails at
            // spawn, not on the first routed request; the workers build
            // their own long-lived decoders lazily per (model, version).
            drop(recognizer.phone_decoder()?);
            let name: Arc<str> = name.into();
            if *name == *default {
                default_name = Some(Arc::clone(&name));
            }
            let version = Arc::new(ModelVersion {
                name: Arc::clone(&name),
                version: 1,
                recognizer,
            });
            map.insert(
                name,
                ModelState {
                    current: RwLock::new(version),
                    counters: Counters::default(),
                    hardware: Mutex::new(None),
                },
            );
        }
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue::default()),
            wakeup: Condvar::new(),
            models: map,
            default_model: default_name.expect("into_parts validated the default name"),
            next_stream_id: AtomicU64::new(0),
            telemetry,
        });
        let workers = (0..config.workers)
            .map(|worker| {
                let shared = Arc::clone(&shared);
                let config = config.clone();
                std::thread::Builder::new()
                    .name(format!("asr-serve-worker-{worker}"))
                    .spawn(move || worker_loop(worker, &shared, &config))
                    .expect("spawning a serve worker thread failed")
            })
            .collect();
        Ok(AsrServer {
            shared,
            workers,
            config,
        })
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The registered model names, sorted.
    pub fn models(&self) -> Vec<String> {
        let mut names: Vec<String> = self.shared.models.keys().map(|n| n.to_string()).collect();
        names.sort();
        names
    }

    /// The model unnamed requests route to.
    pub fn default_model(&self) -> &str {
        &self.shared.default_model
    }

    /// The current version of a registered model (1 at spawn, +1 per
    /// [`AsrServer::swap_model`]); `None` for an unregistered name.
    pub fn model_version(&self, name: &str) -> Option<u64> {
        self.shared
            .models
            .get(name)
            .map(|m| m.current.read().expect("model slot lock poisoned").version)
    }

    /// Resolves a request's routing into the admission it decodes under: the
    /// named (or default) model's *current* version, pinned by `Arc` clone.
    fn admission_for(
        &self,
        model: Option<&str>,
        tenant: Option<String>,
    ) -> Result<Admission, ServeError> {
        let name = model.unwrap_or(&self.shared.default_model);
        let state = self
            .shared
            .models
            .get(name)
            .ok_or_else(|| ServeError::UnknownModel {
                model: name.to_string(),
            })?;
        let model = Arc::clone(&state.current.read().expect("model slot lock poisoned"));
        Ok(Admission {
            model,
            tenant: tenant.map(Arc::from),
            trace: TraceId::NONE,
        })
    }

    /// Mints the trace for a freshly resolved admission and emits its
    /// [`SpanEvent::Admitted`] — the first event of every trace.  A no-op
    /// (leaving the trace [`TraceId::NONE`]) when telemetry is disabled.
    fn trace_admission(&self, admission: &mut Admission, kind: RequestKind) {
        let telemetry = &self.shared.telemetry;
        if !telemetry.is_enabled() {
            return;
        }
        admission.trace = telemetry.begin_trace();
        telemetry.emit(
            admission.trace,
            &SpanEvent::Admitted {
                kind,
                model: Some(admission.model.name.to_string()),
                tenant: admission.tenant.as_deref().map(str::to_string),
            },
        );
    }

    /// Terminates `trace` after a failed enqueue: admission rejections map
    /// to [`SpanEvent::Rejected`] with their quota scope, a closed server
    /// to scope `"closed"` — either way the trace is balanced.
    fn trace_rejection(&self, trace: TraceId, error: &ServeError) {
        if trace.is_none() {
            return;
        }
        let scope = match error {
            ServeError::QueueFull { scope, .. } => match scope {
                QueueScope::Queue => "queue",
                QueueScope::Model(_) => "model",
                QueueScope::Tenant(_) => "tenant",
            },
            ServeError::Closed => "closed",
            _ => "error",
        };
        self.shared.telemetry.emit(
            trace,
            &SpanEvent::Rejected {
                scope: scope.to_string(),
            },
        );
    }

    /// Enqueues one utterance for decoding and returns its future.  Takes
    /// anything convertible into a [`DecodeRequest`]: plain feature frames
    /// route to the default model, `DecodeRequest::new(features).model(..)`
    /// routes by name.
    ///
    /// Never blocks: admission is a queue-bound and quota check under a
    /// short lock, and the model version is pinned here — a concurrent
    /// [`AsrServer::swap_model`] cannot retarget this request once admitted.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`] when the request names a model
    /// the registry does not serve, [`ServeError::QueueFull`] when an
    /// admission scope is at capacity (the request is not enqueued — the
    /// [`QueueScope`] says whether the shared queue, the model's quota, or
    /// the tenant's quota pushed back), and [`ServeError::Closed`] after
    /// [`AsrServer::close`]/drop began.
    pub fn submit(&self, request: impl Into<DecodeRequest>) -> Result<DecodeFuture, ServeError> {
        let (features, model, tenant) = request.into().into_parts();
        let mut admission = self.admission_for(model.as_deref(), tenant)?;
        self.trace_admission(&mut admission, RequestKind::Decode);
        let trace = admission.trace;
        let slot = Slot::new();
        if let Err(error) = self.enqueue(Command::Decode {
            features,
            slot: Arc::clone(&slot),
            admission,
        }) {
            self.trace_rejection(trace, &error);
            return Err(error);
        }
        Ok(DecodeFuture::new(slot))
    }

    /// Checks the layered admission bounds under the queue lock, innermost
    /// scope last: the global queue bound, then the per-model quota, then
    /// the per-tenant quota.  Quotas count the *bounded* commands (decodes
    /// and stream pushes) charged to the same model / tenant from admission
    /// until they resolve, whether they are still queued or decoding.
    fn check_quotas(&self, queue: &Queue, admission: &Admission) -> Result<(), ServeError> {
        if queue.pending.len() >= self.config.max_pending {
            return Err(ServeError::QueueFull {
                capacity: self.config.max_pending,
                scope: QueueScope::Queue,
            });
        }
        if let Some(quota) = self.config.model_quota {
            let name = &admission.model.name;
            if queue.in_flight_models.get(name).copied().unwrap_or(0) >= quota {
                return Err(ServeError::QueueFull {
                    capacity: quota,
                    scope: QueueScope::Model(name.to_string()),
                });
            }
        }
        if let (Some(quota), Some(tenant)) = (self.config.tenant_quota, admission.tenant.as_deref())
        {
            if queue.in_flight_tenants.get(tenant).copied().unwrap_or(0) >= quota {
                return Err(ServeError::QueueFull {
                    capacity: quota,
                    scope: QueueScope::Tenant(tenant.to_string()),
                });
            }
        }
        Ok(())
    }

    /// Enqueues one command.  A [bounded](Command::bounded) command passes
    /// the admission bounds first; a [counted](Command::counted) one ticks
    /// `submitted` while the queue lock is still held, before a worker can
    /// complete it, so a `stats()` snapshot never sees `completed + failed >
    /// submitted`.
    fn enqueue(&self, command: Command) -> Result<(), ServeError> {
        let mut queue = self.lock_queue();
        if queue.closed {
            return Err(ServeError::Closed);
        }
        let admission = command.admission();
        let counters = || &self.shared.model(&admission.model.name).counters;
        if command.bounded() {
            if let Err(rejection) = self.check_quotas(&queue, admission) {
                counters().rejected.fetch_add(1, Ordering::Relaxed);
                return Err(rejection);
            }
            queue.charge(admission);
        }
        if command.counted() {
            counters().submitted.fetch_add(1, Ordering::Relaxed);
        }
        // Emit the Enqueued span while the queue lock is still held: the
        // worker cannot dequeue (and emit this trace's next event) until
        // the lock drops, so per-trace event order matches queue order.  A
        // cancel's trace goes straight to its terminal.
        let trace = admission.trace;
        let traced = !trace.is_none() && !matches!(command, Command::StreamCancel { .. });
        queue.pending.push_back(Request {
            command,
            enqueued: Instant::now(),
        });
        if traced {
            let depth = queue.pending.len();
            self.shared
                .telemetry
                .emit(trace, &SpanEvent::Enqueued { depth });
        }
        drop(queue);
        self.shared.wakeup.notify_all();
        Ok(())
    }

    /// Opens an incremental stream session on the default model: the
    /// serving-side counterpart of
    /// [`DecodeSession`](asr_core::DecodeSession), decoding on a warm
    /// decoder its worker lends it until the session finishes or is
    /// cancelled.
    /// Push feature chunks as they arrive, read partial hypotheses between
    /// pushes, and [`StreamHandle::finish`] for a [`DecodeFuture`] resolving
    /// to the same result an offline decode of the concatenated chunks would
    /// produce.  Sessions share the queue with batch requests but are
    /// **pinned** to worker `id % workers`, so one worker sees a session's
    /// commands in queue order (partials stay prefix-consistent) while
    /// different sessions spread across workers; a worker skips its
    /// coalescing delay while stream commands are queued for it, so
    /// interactive sessions are not taxed with batch latency.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Closed`] after shutdown began.
    pub fn open_stream(&self) -> Result<StreamHandle<'_>, ServeError> {
        self.open_stream_with(StreamOptions::default())
    }

    /// Opens an incremental stream session with explicit routing: the model
    /// is resolved — and its version **pinned** — here, so every chunk of
    /// the session decodes on this version even across a hot-swap.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`] for an unregistered model name
    /// and [`ServeError::Closed`] after shutdown began.
    pub fn open_stream_with(&self, options: StreamOptions) -> Result<StreamHandle<'_>, ServeError> {
        let (model, tenant) = options.into_parts();
        let mut admission = self.admission_for(model.as_deref(), tenant)?;
        self.trace_admission(&mut admission, RequestKind::Stream);
        let id = self.shared.next_stream_id.fetch_add(1, Ordering::Relaxed);
        let state = Arc::new(StreamState::default());
        if let Err(error) = self.enqueue(Command::StreamOpen {
            id,
            state: Arc::clone(&state),
            admission: admission.clone(),
        }) {
            self.trace_rejection(admission.trace, &error);
            return Err(error);
        }
        self.shared
            .model(&admission.model.name)
            .counters
            .stream_sessions
            .fetch_add(1, Ordering::Relaxed);
        Ok(StreamHandle {
            server: self,
            id,
            state,
            admission,
            consumed: false,
        })
    }

    /// Hot-swaps the recogniser a model name resolves to and returns the new
    /// version number.  Lock-free for traffic: requests and stream sessions
    /// admitted before the swap finish on the version that admitted them
    /// (their `Arc` pins it), new admissions decode on the new version, and
    /// the queue never drains — the workers retire the old version's cached
    /// decoders once nothing queued references it.  Pass an `Arc` to swap in
    /// a recogniser also decoded directly (parity tests verify against it).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`] for an unregistered name (swap
    /// replaces versions, it does not add models) and [`ServeError::Decode`]
    /// when the new recogniser's backend fails to build — the old version
    /// keeps serving in that case.
    pub fn swap_model(
        &self,
        name: &str,
        recognizer: impl Into<Arc<Recognizer>>,
    ) -> Result<u64, ServeError> {
        let recognizer = recognizer.into();
        let state = self
            .shared
            .models
            .get(name)
            .ok_or_else(|| ServeError::UnknownModel {
                model: name.to_string(),
            })?;
        // Probe before taking the write lock: a bad backend fails the swap
        // while the old version keeps serving.
        drop(recognizer.phone_decoder()?);
        let mut slot = state.current.write().expect("model slot lock poisoned");
        let version = slot.version + 1;
        *slot = Arc::new(ModelVersion {
            name: Arc::clone(&slot.name),
            version,
            recognizer,
        });
        Ok(version)
    }

    /// A snapshot of the serving counters across every model (per-model
    /// histograms are bucket-summed before the percentile walk, so the
    /// percentiles are exact over the merged observations).
    pub fn stats(&self) -> ServeStats {
        fold_stats(self.shared.models.values().map(|m| &m.counters))
    }

    /// The telemetry handle this server traces requests through — disabled
    /// unless spawned via [`AsrServer::spawn_observed`].
    pub fn telemetry(&self) -> &Telemetry {
        &self.shared.telemetry
    }

    /// One model's slice of the serving counters; `None` for an
    /// unregistered name.  Counters survive hot-swaps — they are per name,
    /// not per version.
    pub fn model_stats(&self, name: &str) -> Option<ServeStats> {
        self.shared
            .models
            .get(name)
            .map(|m| fold_stats(std::iter::once(&m.counters)))
    }

    /// The hardware report of everything served so far: each model's
    /// report ([`AsrServer::model_hardware_report`]) folded with
    /// [`UtteranceReport::merge`] in sorted name order, so frames, audio
    /// seconds, work counters and energies add over every served utterance,
    /// however the workers split them.  `None` until a hardware-backed
    /// utterance completes (software backends keep no report).
    pub fn hardware_report(&self) -> Option<UtteranceReport> {
        let mut names: Vec<&Arc<str>> = self.shared.models.keys().collect();
        names.sort();
        names
            .into_iter()
            .filter_map(|name| self.model_hardware_report(name))
            .reduce(|acc, report| acc.merge(&report))
    }

    /// One model's hardware report: its served utterances folded with
    /// [`UtteranceReport::merge`], across versions and workers.  `None` for
    /// an unregistered name or before a hardware-backed utterance of this
    /// model completes.
    pub fn model_hardware_report(&self, name: &str) -> Option<UtteranceReport> {
        self.shared
            .models
            .get(name)?
            .hardware
            .lock()
            .expect("hardware report lock poisoned")
            .clone()
    }

    /// Number of requests currently waiting in the queue.
    pub fn pending(&self) -> usize {
        self.lock_queue().pending.len()
    }

    /// Closes the queue, waits for the already-accepted requests to finish,
    /// and joins every worker thread.  Equivalent to dropping the server,
    /// but explicit about when the blocking happens.
    pub fn close(mut self) {
        self.shutdown();
    }

    fn lock_queue(&self) -> MutexGuard<'_, Queue> {
        self.shared
            .queue
            .lock()
            .expect("request queue lock poisoned")
    }

    fn shutdown(&mut self) {
        self.lock_queue().closed = true;
        self.shared.wakeup.notify_all();
        for worker in self.workers.drain(..) {
            // A panicked worker is already detached from the queue; the drain
            // below (and each Request's drop guard) fails what it left behind.
            let _ = worker.join();
        }
        // Normally empty (every worker drains its own work before exiting);
        // non-empty only if a worker died mid-stream.
        self.lock_queue().drain();
    }
}

impl Drop for AsrServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A client-side handle on one incremental stream session.
///
/// Obtained from [`AsrServer::open_stream`] /
/// [`AsrServer::open_stream_with`].  Chunks pushed through the handle are
/// processed in order by the server's worker; the latest partial hypothesis
/// is always readable without blocking; [`StreamHandle::finish`] converts
/// the session into a [`DecodeFuture`].  Commands of different sessions (and
/// batch submissions) interleave freely on the queue — each session has its
/// own decoder state on the worker, pinned to the model version resolved at
/// open.
///
/// Dropping the handle without finishing cancels the session: the worker
/// discards its decoder state (no result is produced, nothing counts as
/// completed or failed), so abandoned sessions cannot accumulate on a
/// long-running server.
#[derive(Debug)]
pub struct StreamHandle<'s> {
    server: &'s AsrServer,
    id: u64,
    state: Arc<StreamState>,
    /// The admission resolved at open; every push/finish of the session
    /// re-uses it, which is what pins the model version across hot-swaps.
    admission: Admission,
    /// Whether `finish` consumed the session (suppresses the cancel-on-drop).
    consumed: bool,
}

impl Drop for StreamHandle<'_> {
    fn drop(&mut self) {
        if !self.consumed {
            // Best effort: on a closed server the worker is draining anyway
            // and its session map dies with it.
            let _ = self.cancel_session();
        }
    }
}

impl StreamHandle<'_> {
    /// The session's id (unique within its server).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The model this session decodes on (resolved at open, pinned since).
    pub fn model(&self) -> &str {
        &self.admission.model.name
    }

    /// Enqueues one feature chunk for this session.
    ///
    /// Never blocks.  The chunk is cloned into the queue, so on backpressure
    /// the caller still owns the data and can retry.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::QueueFull`] when an admission scope is at
    /// capacity (the chunk was not enqueued) and [`ServeError::Closed`]
    /// after shutdown began.  Decode errors inside the worker surface on
    /// [`StreamHandle::finish`], not here.
    pub fn push_chunk(&self, chunk: &[Vec<f32>]) -> Result<(), ServeError> {
        self.server.enqueue(Command::StreamPush {
            id: self.id,
            chunk: chunk.to_vec(),
            admission: self.admission.clone(),
        })
    }

    /// The latest partial hypothesis the worker has published for this
    /// session.  Non-blocking; lags the most recent push until the worker
    /// processes it.
    pub fn partial(&self) -> PartialHypothesis {
        self.state.snapshot()
    }

    /// Closes the session and returns the future of its final result —
    /// identical to an offline decode of every chunk pushed so far (the
    /// typed empty result if none were), on the model version pinned at
    /// open.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Closed`] if the server shut down before the
    /// finish could be enqueued.
    pub fn finish(mut self) -> Result<DecodeFuture, ServeError> {
        // Either way the handle is spent: on success the worker will remove
        // the session at the finish command; on Closed the worker is
        // draining and its session map dies with it.  Never cancel-on-drop
        // after this.
        self.consumed = true;
        let slot = Slot::new();
        let finish = Command::StreamFinish {
            id: self.id,
            slot: Arc::clone(&slot),
            admission: self.admission.clone(),
        };
        self.end_session(finish, Outcome::Failed)?;
        Ok(DecodeFuture::new(slot))
    }

    /// Explicitly cancels the session (barge-in): the worker discards its
    /// decoder state without producing a result — nothing counts as
    /// completed or failed.  Equivalent to dropping the handle, but returns
    /// whether the cancel was actually enqueued, so callers can distinguish
    /// a delivered barge-in from a server already shutting down.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Closed`] if the server shut down first (the
    /// worker's session map dies with it, so the session is gone either
    /// way).
    pub fn cancel(mut self) -> Result<(), ServeError> {
        self.consumed = true;
        self.cancel_session()
    }

    fn cancel_session(&self) -> Result<(), ServeError> {
        let cancel = Command::StreamCancel {
            id: self.id,
            admission: self.admission.clone(),
        };
        self.end_session(cancel, Outcome::Cancelled)
    }

    /// Enqueues the command that ends this session.  The worker terminates
    /// the session's trace when it processes the command; if the command
    /// cannot be enqueued the worker never sees the session again, so the
    /// trace terminates here with `outcome` and stays balanced.
    fn end_session(&self, command: Command, outcome: Outcome) -> Result<(), ServeError> {
        let result = self.server.enqueue(command);
        if result.is_err() {
            let finished = SpanEvent::Finished { outcome, frames: 0 };
            self.server
                .shared
                .telemetry
                .emit(self.admission.trace, &finished);
        }
        result
    }
}

/// Closes the queue and fails every pending request: each dropped `Request`
/// fires its drop guard, so pending futures resolve to
/// [`ServeError::Closed`] instead of hanging.  Recovers the queue lock even
/// when the caller is panicking with it poisoned.
fn fail_pending(shared: &Shared) {
    let mut queue = shared
        .queue
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    queue.closed = true;
    queue.drain();
    drop(queue);
    shared.wakeup.notify_all();
}

/// Fails the queue when a worker dies by *panic*.  Without this, a panicking
/// worker (e.g. a poisoned lock, a backend bug) would leave `closed ==
/// false`: `submit` would keep accepting requests that nothing will ever
/// dequeue, and their futures would hang until the server itself is dropped.
/// A normal worker exit must NOT trigger it: with M workers, one worker
/// returning from its loop (queue closed, nothing left *for it*) must not
/// clear commands still pending for its siblings.
struct CloseOnExit<'a>(&'a Shared);

impl Drop for CloseOnExit<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            fail_pending(self.0);
        }
    }
}

/// One live stream session on a worker: the incremental decoder (owning an
/// `Arc` of the model version pinned at open) on a decoder lent from the
/// worker's pool, and the shared state its partials publish into.  The
/// worker keeps `Err` in the session's place once it hit an error, for the
/// finish command to collect.
struct WorkerStream {
    session: DecodeSession<Arc<Recognizer>>,
    state: Arc<StreamState>,
    loan: Loan,
}

/// What a worker needs to take a lent decoder back: the model version it
/// decodes and its scorer's spawn count when it was lent.
struct Loan {
    model: Arc<ModelVersion>,
    spawned: usize,
}

/// A worker's decoders: idle ones per (model, version), lent to a decode or
/// a stream session and given back when it is done.  A warm worker builds
/// nothing, and holds at most one decoder per concurrently open session per
/// version.
struct DecoderPool<'s> {
    shared: &'s Shared,
    idle: HashMap<(Arc<str>, u64), Vec<PhoneDecoder>>,
}

impl DecoderPool<'_> {
    /// Lends an idle decoder for `model`, building one when none is idle.
    fn lend(&mut self, model: &Arc<ModelVersion>) -> Result<(PhoneDecoder, Loan), ServeError> {
        let key = (Arc::clone(&model.name), model.version);
        let decoder = match self.idle.get_mut(&key).and_then(Vec::pop) {
            Some(decoder) => decoder,
            None => model.recognizer.phone_decoder()?,
        };
        let spawned = decoder.scorer().threads_spawned();
        let model = Arc::clone(model);
        Ok((decoder, Loan { model, spawned }))
    }

    /// Takes a lent decoder back.  The scorer holds no telemetry, so the
    /// lane threads it spawned while lent are reported on the borrower's
    /// trace.
    fn give_back(&mut self, loan: &Loan, decoder: PhoneDecoder, trace: TraceId) {
        let spawned = decoder.scorer().threads_spawned() - loan.spawned;
        if spawned > 0 {
            let event = SpanEvent::ShardDispatch { threads: spawned };
            self.shared.telemetry.emit(trace, &event);
        }
        let key = (Arc::clone(&loan.model.name), loan.model.version);
        self.idle.entry(key).or_default().push(decoder);
    }
}

/// Resolves a result-producing command — a decode or a stream finish — the
/// one way: `serve` produces its outcome, timed as its service; the queue
/// wait, the outcome and the model's hardware report are recorded, the
/// trace terminates, a bounded command's quota is released, and the slot is
/// fulfilled.
fn resolve(
    shared: &Shared,
    request: &Request,
    slot: &Slot,
    serve: impl FnOnce() -> Result<DecodeResult, ServeError>,
) {
    let admission = request.command.admission();
    let model = shared.model(&admission.model.name);
    let c = &model.counters;
    c.queue_wait.record(request.enqueued.elapsed());
    let started = Instant::now();
    let outcome = serve();
    c.service.record(started.elapsed());
    match &outcome {
        Ok(result) => {
            c.completed.fetch_add(1, Ordering::Relaxed);
            if let Some(report) = &result.hardware {
                let mut acc = model
                    .hardware
                    .lock()
                    .expect("hardware report lock poisoned");
                *acc = Some(match acc.take() {
                    Some(folded) => folded.merge(report),
                    None => report.clone(),
                });
            }
        }
        Err(_) => {
            c.failed.fetch_add(1, Ordering::Relaxed);
        }
    }
    let frames = match (&request.command, &outcome) {
        (Command::Decode { features, .. }, _) => features.len(),
        (_, Ok(result)) => result.stats.num_frames(),
        (_, Err(_)) => 0,
    };
    let outcome_name = match &outcome {
        Ok(_) => Outcome::Completed,
        Err(_) => Outcome::Failed,
    };
    shared.telemetry.emit(
        admission.trace,
        &SpanEvent::Finished {
            outcome: outcome_name,
            frames,
        },
    );
    // Release before fulfilling, so a caller that waits and resubmits
    // always finds its quota free.
    if request.command.bounded() {
        release_quota(shared, admission);
    }
    slot.fulfil(outcome);
}

/// One decoder worker: wait for commands it may take, coalesce, decode,
/// fulfil — until the queue is closed *and* holds nothing for this worker.
/// The worker owns every decoder it uses ([`DecoderPool`]): each decode
/// borrows one of its own model version and gives it back when done; an
/// open stream session keeps its own until it finishes, fails or is
/// cancelled (interleaved sessions cannot share CDS / arena state).
/// Stream commands pinned to a sibling are left in place, in order.
fn worker_loop(worker: usize, shared: &Shared, config: &ServeConfig) {
    let workers = config.workers;
    let _close_on_exit = CloseOnExit(shared);
    let mut sessions: HashMap<u64, Result<WorkerStream, ServeError>> = HashMap::new();
    let mut pool = DecoderPool {
        shared,
        idle: HashMap::new(),
    };
    let mine = |queue: &Queue| {
        queue
            .pending
            .iter()
            .filter(|r| r.command.belongs_to(worker, workers))
            .count()
    };
    let my_urgent = |queue: &Queue| {
        queue
            .pending
            .iter()
            .any(|r| r.command.is_urgent() && r.command.belongs_to(worker, workers))
    };
    loop {
        let batch = {
            let mut queue = shared.queue.lock().expect("request queue lock poisoned");
            // Sleep until there is work for this worker (or shutdown with
            // nothing left that it could ever take — a decode belongs to
            // everyone, so no worker exits while decodes remain, and a
            // pinned stream command is only ever left for a live sibling).
            loop {
                if mine(&queue) > 0 {
                    break;
                }
                if queue.closed {
                    return;
                }
                queue = shared
                    .wakeup
                    .wait(queue)
                    .expect("request queue lock poisoned");
            }
            // Micro-batching: give later requests until the *oldest* pending
            // request of this worker has waited `max_batch_delay` to join
            // this flush, unless the batch is already full, the server is
            // draining for shutdown (then latency no longer buys anything),
            // or an urgent stream command is queued for this worker (streams
            // are latency-bound: their chunks gain nothing from coalescing
            // with batch traffic).  Anchoring the deadline at enqueue time means
            // a request that already waited out a previous flush's decode is
            // not made to wait a fresh window on top.
            if mine(&queue) < config.max_batch && !queue.closed && !my_urgent(&queue) {
                let deadline = queue
                    .pending
                    .iter()
                    .find(|r| r.command.belongs_to(worker, workers))
                    .expect("this worker has pending work here")
                    .enqueued
                    + config.max_batch_delay;
                while mine(&queue) < config.max_batch && !queue.closed {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    let (guard, _timeout) = shared
                        .wakeup
                        .wait_timeout(queue, deadline - now)
                        .expect("request queue lock poisoned");
                    queue = guard;
                    if my_urgent(&queue) {
                        break;
                    }
                }
            }
            // The flush is this worker's next `max_batch` commands in
            // arrival order; everything else stays queued, in order, for the
            // other workers (or this worker's next flush).
            let mut batch = Vec::new();
            let mut rest = VecDeque::with_capacity(queue.pending.len());
            for request in queue.pending.drain(..) {
                if batch.len() < config.max_batch && request.command.belongs_to(worker, workers) {
                    batch.push(request);
                } else {
                    rest.push_back(request);
                }
            }
            queue.pending = rest;
            batch
        };
        // Taking a batch may have freed queue capacity and left work for
        // siblings in front; wake them in case they slept through the
        // original notify while this worker held the lock.
        shared.wakeup.notify_all();

        // A flush counts once per model it decodes, at that model's decode
        // count, and every coalesced decode's trace records that count.
        let mut decodes: Vec<(&Arc<str>, usize)> = Vec::new();
        for request in &batch {
            if let Command::Decode { admission, .. } = &request.command {
                let name = &admission.model.name;
                match decodes.iter_mut().find(|(model, _)| *model == name) {
                    Some((_, count)) => *count += 1,
                    None => decodes.push((name, 1)),
                }
            }
        }
        for (name, count) in &decodes {
            let c = &shared.model(name).counters;
            c.batches.fetch_add(1, Ordering::Relaxed);
            c.largest_batch.fetch_max(*count as u64, Ordering::Relaxed);
        }
        if shared.telemetry.is_enabled() {
            for request in &batch {
                if let Command::Decode { admission, .. } = &request.command {
                    let (_, batch) = decodes
                        .iter()
                        .find(|(model, _)| **model == admission.model.name)
                        .expect("every decode was counted");
                    let event = SpanEvent::BatchFormed {
                        worker,
                        batch: *batch,
                    };
                    shared.telemetry.emit(admission.trace, &event);
                }
            }
        }

        // Work outside the lock so submissions stay non-blocking.  Commands
        // run in arrival order: each whole-utterance decode runs on a
        // decoder of its own model version (so a bad utterance fails
        // alone), and stream commands advance their session's own
        // incremental state.
        for request in &batch {
            match &request.command {
                Command::Decode {
                    features,
                    slot,
                    admission,
                } => {
                    let model = &admission.model;
                    shared
                        .telemetry
                        .emit(admission.trace, &SpanEvent::DecodeStarted { worker });
                    resolve(shared, request, slot, || {
                        let (mut decoder, loan) = pool.lend(model)?;
                        let result = model
                            .recognizer
                            .decode_features_with(features, &mut decoder);
                        pool.give_back(&loan, decoder, admission.trace);
                        Ok(result?)
                    });
                }
                Command::StreamOpen {
                    id,
                    state,
                    admission,
                } => {
                    let recognizer = &admission.model.recognizer;
                    let entry = pool
                        .lend(&admission.model)
                        .map(|(decoder, loan)| WorkerStream {
                            session: DecodeSession::begin(Arc::clone(recognizer), decoder),
                            state: Arc::clone(state),
                            loan,
                        });
                    sessions.insert(*id, entry);
                }
                Command::StreamPush {
                    id,
                    chunk,
                    admission,
                } => {
                    shared
                        .model(&admission.model.name)
                        .counters
                        .stream_chunks
                        .fetch_add(1, Ordering::Relaxed);
                    if let Some(Ok(stream)) = sessions.get_mut(id) {
                        // Timestamps only when traced: the disabled path
                        // pays one branch per push.
                        let started = shared.telemetry.is_enabled().then(Instant::now);
                        match stream.session.push_chunk(chunk) {
                            Ok(()) => {
                                let partial = stream.session.partial();
                                if let Some(started) = started {
                                    shared.telemetry.emit(
                                        admission.trace,
                                        &SpanEvent::PartialEmitted {
                                            words: partial.words.len(),
                                            latency_us: started
                                                .elapsed()
                                                .as_micros()
                                                .min(u64::MAX as u128)
                                                as u64,
                                        },
                                    );
                                }
                                stream.state.store(partial);
                            }
                            // The session degrades to its first error, which
                            // finish() will deliver; its decoder goes back
                            // to the idle list now.
                            Err(e) => {
                                if let Some(Ok(stream)) =
                                    sessions.insert(*id, Err(ServeError::from(e)))
                                {
                                    let decoder = stream.session.cancel();
                                    pool.give_back(&stream.loan, decoder, admission.trace);
                                }
                            }
                        }
                    }
                    release_quota(shared, admission);
                }
                Command::StreamFinish {
                    id,
                    slot,
                    admission,
                } => resolve(shared, request, slot, || {
                    match sessions.remove(id) {
                        Some(Ok(stream)) => {
                            let (result, decoder) = stream.session.finish();
                            pool.give_back(&stream.loan, decoder, admission.trace);
                            Ok(result?)
                        }
                        Some(Err(e)) => Err(e),
                        // Unreachable through the handle API (open precedes
                        // finish in queue order on the same pinned worker);
                        // fail typed, not by hanging.
                        None => Err(ServeError::Closed),
                    }
                }),
                Command::StreamCancel { id, admission } => {
                    // The client cancelled (explicitly or by dropping its
                    // handle): abandon the session through the decode-side
                    // cancel seam, which hard-resets the backend's
                    // per-utterance state and hands the decoder back.  No
                    // result, no completed/failed tick — but the trace
                    // terminates as cancelled.
                    if let Some(Ok(stream)) = sessions.remove(id) {
                        let decoder = stream.session.cancel();
                        pool.give_back(&stream.loan, decoder, admission.trace);
                    }
                    shared.telemetry.emit(
                        admission.trace,
                        &SpanEvent::Finished {
                            outcome: Outcome::Cancelled,
                            frames: 0,
                        },
                    );
                }
            }
        }
        // Retire idle decoders whose version a hot-swap replaced.  A
        // straggler admitted under the old version can still arrive (its Arc
        // pins the recogniser) — the worker just rebuilds for it, and a
        // stream still open on the old version gives its decoder back to be
        // retired here; what must not happen is a stale scorer (and its
        // shard pool) lingering for the life of the server.
        pool.idle.retain(|(name, version), _| {
            shared.models.get(name).is_some_and(|m| {
                m.current.read().expect("model slot lock poisoned").version == *version
            })
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{block_on, DEFAULT_MODEL};
    use asr_core::{DecodeError, DecoderConfig};
    use asr_corpus::{SyntheticTask, TaskConfig, TaskGenerator};

    fn task() -> SyntheticTask {
        TaskGenerator::new(77)
            .generate(&TaskConfig::tiny())
            .unwrap()
    }

    fn recognizer(task: &SyntheticTask, config: DecoderConfig) -> Recognizer {
        Recognizer::new(
            task.acoustic_model.clone(),
            task.dictionary.clone(),
            task.language_model.clone(),
            config,
        )
        .unwrap()
    }

    #[test]
    fn serves_requests_and_matches_direct_decode() {
        let task = task();
        let rec = recognizer(&task, DecoderConfig::simd());
        let direct = recognizer(&task, DecoderConfig::simd());
        let server = AsrServer::spawn(rec, ServeConfig::default()).unwrap();
        assert_eq!(server.models(), [DEFAULT_MODEL]);
        assert_eq!(server.default_model(), DEFAULT_MODEL);
        assert_eq!(server.model_version(DEFAULT_MODEL), Some(1));
        let utterances: Vec<_> = (0..6)
            .map(|seed| task.synthesize_utterance(1, 0.2, seed).0)
            .collect();
        let futures: Vec<_> = utterances
            .iter()
            .map(|u| server.submit(u.clone()).unwrap())
            .collect();
        let want = direct.decode_batch(&utterances).unwrap();
        for (future, want) in futures.into_iter().zip(&want) {
            let got = future.wait().unwrap();
            assert_eq!(got.hypothesis, want.hypothesis);
            assert_eq!(got.stats.num_frames(), want.stats.num_frames());
        }
        let stats = server.stats();
        assert_eq!(stats.submitted, 6);
        assert_eq!(stats.completed, 6);
        assert_eq!(stats.failed, 0);
        assert!(stats.batches >= 1);
        assert!(stats.largest_batch >= 1);
        assert!(stats.mean_batch_size() >= 1.0);
        // The single model's slice is the whole server's story.
        assert_eq!(server.model_stats(DEFAULT_MODEL).unwrap(), stats);
        assert!(server.model_stats("missing").is_none());
        // Software backend → no hardware report stream.
        assert!(server.hardware_report().is_none());
        server.close();
    }

    #[test]
    fn unknown_models_are_typed_errors_not_default_fallbacks() {
        let task = task();
        let server = AsrServer::spawn(
            recognizer(&task, DecoderConfig::simd()),
            ServeConfig::default(),
        )
        .unwrap();
        let (features, _) = task.synthesize_utterance(1, 0.2, 1);
        assert!(matches!(
            server.submit(DecodeRequest::new(features).model("nope")),
            Err(ServeError::UnknownModel { model }) if model == "nope"
        ));
        assert!(matches!(
            server.open_stream_with(StreamOptions::new().model("nope")),
            Err(ServeError::UnknownModel { model }) if model == "nope"
        ));
        assert_eq!(server.model_version("nope"), None);
        // Nothing was admitted, so nothing was counted anywhere.
        assert_eq!(server.stats().submitted, 0);
        assert_eq!(server.stats().rejected, 0);
    }

    #[test]
    fn hardware_stream_report_accumulates() {
        let task = task();
        let server = AsrServer::spawn(
            recognizer(&task, DecoderConfig::hardware(2)),
            ServeConfig::default(),
        )
        .unwrap();
        let (features, _) = task.synthesize_utterance(1, 0.2, 3);
        let frames = features.len();
        let a = server.submit(features.clone()).unwrap();
        let b = server.submit(features).unwrap();
        a.wait().unwrap();
        b.wait().unwrap();
        let report = server.hardware_report().expect("hardware stream report");
        assert_eq!(report.frames, 2 * frames);
        // One model: its per-model report is the whole server's.
        let per_model = server
            .model_hardware_report(DEFAULT_MODEL)
            .expect("per-model report");
        assert_eq!(per_model.frames, report.frames);
        assert!(server.model_hardware_report("missing").is_none());
    }

    #[test]
    fn queue_full_is_typed_backpressure_not_a_drop() {
        let task = task();
        // A deliberately tiny queue and a long coalescing window so the
        // worker is still waiting while we overfill.
        let server = AsrServer::spawn(
            recognizer(&task, DecoderConfig::simd()),
            ServeConfig::default()
                .max_pending(2)
                .max_batch(64)
                .max_batch_delay(std::time::Duration::from_millis(250)),
        )
        .unwrap();
        let (features, _) = task.synthesize_utterance(1, 0.2, 1);
        let mut accepted = Vec::new();
        let mut rejections = 0;
        for _ in 0..20 {
            match server.submit(features.clone()) {
                Ok(future) => accepted.push(future),
                Err(ServeError::QueueFull { capacity, scope }) => {
                    assert_eq!(capacity, 2);
                    assert_eq!(scope, QueueScope::Queue);
                    rejections += 1;
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(rejections > 0, "the bound must push back");
        let stats = server.stats();
        assert_eq!(stats.rejected, rejections);
        // Every *accepted* request completes successfully — backpressure
        // refuses at the door, it never drops admitted work.
        let accepted_count = accepted.len() as u64;
        for future in accepted {
            assert!(future.wait().is_ok());
        }
        assert_eq!(server.stats().completed, accepted_count);
    }

    #[test]
    fn model_and_tenant_quotas_reject_with_their_own_scopes() {
        let task = task();
        let server = AsrServer::spawn(
            recognizer(&task, DecoderConfig::simd()),
            ServeConfig::default()
                .max_batch(64)
                .max_batch_delay(std::time::Duration::from_millis(250))
                .model_quota(1)
                .tenant_quota(1),
        )
        .unwrap();
        let (features, _) = task.synthesize_utterance(1, 0.2, 1);
        let mut accepted = Vec::new();
        let mut model_rejections = 0;
        for _ in 0..10 {
            match server.submit(features.clone()) {
                Ok(future) => accepted.push(future),
                Err(ServeError::QueueFull { capacity, scope }) => {
                    assert_eq!(capacity, 1);
                    assert_eq!(scope, QueueScope::Model(DEFAULT_MODEL.into()));
                    model_rejections += 1;
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(model_rejections > 0, "the model quota must push back");
        for future in accepted.drain(..) {
            assert!(future.wait().is_ok());
        }

        // Tenant quota: tighter than the model quota cannot be exercised
        // with one model, so re-check scope precedence the other way round —
        // an anonymous request occupying the model quota still rejects a
        // tenant request at the *model* scope (model is checked first), and
        // with the model quota free the tenant scope fires.
        let mut tenant_rejections = 0;
        for _ in 0..10 {
            match server.submit(DecodeRequest::new(features.clone()).tenant("acme")) {
                Ok(future) => accepted.push(future),
                Err(ServeError::QueueFull { scope, .. }) => {
                    assert!(
                        scope == QueueScope::Model(DEFAULT_MODEL.into())
                            || scope == QueueScope::Tenant("acme".into()),
                        "unexpected scope {scope:?}"
                    );
                    tenant_rejections += 1;
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(tenant_rejections > 0, "a quota must push back");
        for future in accepted {
            assert!(future.wait().is_ok());
        }
        assert_eq!(
            server.stats().rejected,
            model_rejections + tenant_rejections
        );
    }

    #[test]
    fn quotas_are_released_before_the_request_resolves() {
        let task = task();
        let server = AsrServer::spawn(
            recognizer(&task, DecoderConfig::simd()),
            ServeConfig::default()
                .max_batch_delay(std::time::Duration::ZERO)
                .model_quota(1)
                .tenant_quota(1),
        )
        .unwrap();
        let (features, _) = task.synthesize_utterance(1, 0.2, 1);
        let acme = || DecodeRequest::new(features.clone()).tenant("acme");
        // The charge is released before the future resolves, so waiting
        // and resubmitting never meets a full quota.
        for _ in 0..5 {
            let future = server.submit(acme()).expect("the quota is free again");
            assert!(future.wait().is_ok());
        }
        // A push holds the quota until the worker applies it, which is
        // before the session's finish resolves.
        let stream = server
            .open_stream_with(StreamOptions::new().tenant("acme"))
            .unwrap();
        stream.push_chunk(&features).unwrap();
        assert!(stream.finish().unwrap().wait().is_ok());
        assert!(server.submit(acme()).unwrap().wait().is_ok());
        let queue = server.lock_queue();
        assert!(queue.in_flight_models.is_empty());
        assert!(queue.in_flight_tenants.is_empty());
    }

    #[test]
    fn close_drains_accepted_requests_then_rejects_new_ones() {
        let task = task();
        let server = AsrServer::spawn(
            recognizer(&task, DecoderConfig::simd()),
            ServeConfig::default().max_batch_delay(std::time::Duration::from_millis(100)),
        )
        .unwrap();
        let (features, reference) = task.synthesize_utterance(1, 0.2, 5);
        let futures: Vec<_> = (0..4)
            .map(|_| server.submit(features.clone()).unwrap())
            .collect();
        server.close();
        for future in futures {
            // Accepted before close → decoded during the drain, not failed.
            assert_eq!(future.wait().unwrap().hypothesis.words, reference);
        }
    }

    #[test]
    fn submissions_after_close_fail_closed() {
        let task = task();
        let rec = recognizer(&task, DecoderConfig::simd());
        let server = AsrServer::spawn(rec, ServeConfig::default()).unwrap();
        // Close via the explicit path, keeping a handle: mimic with drop
        // ordering instead — mark closed through a second scope.
        let (features, _) = task.synthesize_utterance(1, 0.2, 2);
        {
            // Mark the shared queue closed exactly as shutdown does.
            server.lock_queue().closed = true;
        }
        assert!(matches!(server.submit(features), Err(ServeError::Closed)));
    }

    #[test]
    fn a_bad_utterance_fails_alone_without_poisoning_the_batch() {
        let task = task();
        let dim = task.acoustic_model.feature_dim();
        let server = AsrServer::spawn(
            recognizer(&task, DecoderConfig::simd()),
            // Force everything into one coalesced batch.
            ServeConfig::default()
                .max_batch(8)
                .max_batch_delay(std::time::Duration::from_millis(100)),
        )
        .unwrap();
        let (good, reference) = task.synthesize_utterance(1, 0.2, 4);
        let bad = vec![vec![0.0f32; dim + 1]];
        let first = server.submit(good.clone()).unwrap();
        let poison = server.submit(bad).unwrap();
        let last = server.submit(good).unwrap();
        assert_eq!(first.wait().unwrap().hypothesis.words, reference);
        assert!(matches!(
            poison.wait(),
            Err(ServeError::Decode(DecodeError::DimensionMismatch { .. }))
        ));
        assert_eq!(last.wait().unwrap().hypothesis.words, reference);
        let stats = server.stats();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.failed, 1);
    }

    fn bare_shared() -> Shared {
        let task = task();
        let name: Arc<str> = Arc::from(DEFAULT_MODEL);
        let version = Arc::new(ModelVersion {
            name: Arc::clone(&name),
            version: 1,
            recognizer: Arc::new(recognizer(&task, DecoderConfig::simd())),
        });
        let mut models = HashMap::new();
        models.insert(
            Arc::clone(&name),
            ModelState {
                current: RwLock::new(version),
                counters: Counters::default(),
                hardware: Mutex::new(None),
            },
        );
        Shared {
            queue: Mutex::new(Queue::default()),
            wakeup: Condvar::new(),
            models,
            default_model: name,
            next_stream_id: AtomicU64::new(0),
            telemetry: Telemetry::disabled(),
        }
    }

    fn enqueue_decode(shared: &Shared) -> DecodeFuture {
        let slot = Slot::new();
        let model = Arc::clone(
            &shared.models[&*shared.default_model]
                .current
                .read()
                .unwrap(),
        );
        shared.queue.lock().unwrap().pending.push_back(Request {
            command: Command::Decode {
                features: Vec::new(),
                slot: Arc::clone(&slot),
                admission: Admission {
                    model,
                    tenant: None,
                    trace: TraceId::NONE,
                },
            },
            enqueued: Instant::now(),
        });
        DecodeFuture::new(slot)
    }

    #[test]
    fn a_dying_worker_closes_the_queue_and_fails_pending_futures() {
        // Drive the failure path directly: whatever takes a worker down, the
        // queue must close and pending futures must resolve instead of
        // hanging.
        let shared = bare_shared();
        let future = enqueue_decode(&shared);
        fail_pending(&shared);
        assert!(shared.queue.lock().unwrap().closed);
        assert!(matches!(future.wait(), Err(ServeError::Closed)));
    }

    #[test]
    fn the_exit_guard_fires_on_panic_but_not_on_normal_exit() {
        // Normal exit: a worker returning from its loop must leave the queue
        // open and its siblings' pending work intact.
        let shared = bare_shared();
        let future = enqueue_decode(&shared);
        drop(CloseOnExit(&shared));
        assert!(!shared.queue.lock().unwrap().closed);
        assert_eq!(shared.queue.lock().unwrap().pending.len(), 1);

        // Panic: the guard must close the queue and fail what is pending.
        let shared = Arc::new(shared);
        let panicking = Arc::clone(&shared);
        let handle = std::thread::spawn(move || {
            let _guard = CloseOnExit(&panicking);
            panic!("synthetic worker death");
        });
        assert!(handle.join().is_err());
        assert!(shared.queue.lock().unwrap().closed);
        assert!(matches!(future.wait(), Err(ServeError::Closed)));
    }

    #[test]
    fn stream_session_matches_offline_decode() {
        let task = task();
        let direct = recognizer(&task, DecoderConfig::simd());
        let server = AsrServer::spawn(
            recognizer(&task, DecoderConfig::simd()),
            ServeConfig::default(),
        )
        .unwrap();
        let (features, reference) = task.synthesize_utterance(2, 0.2, 21);
        let offline = direct.decode_features(&features).unwrap();

        let handle = server.open_stream().unwrap();
        assert_eq!(handle.model(), DEFAULT_MODEL);
        for chunk in features.chunks(3) {
            handle.push_chunk(chunk).unwrap();
        }
        let result = handle.finish().unwrap().wait().unwrap();
        assert_eq!(result.hypothesis.words, reference);
        assert_eq!(result.hypothesis, offline.hypothesis);
        assert_eq!(result.best_score.raw(), offline.best_score.raw());
        assert_eq!(result.stats.num_frames(), features.len());
        let stats = server.stats();
        assert_eq!(stats.stream_sessions, 1);
        assert_eq!(stats.stream_chunks as usize, features.len().div_ceil(3));
        assert_eq!(stats.completed, 1);
        // The finish counted as submitted work: completed never outruns it.
        assert_eq!(stats.submitted, 1);
        server.close();
    }

    #[test]
    fn dropped_stream_handles_cancel_their_worker_sessions() {
        let task = task();
        let server = AsrServer::spawn(
            recognizer(&task, DecoderConfig::simd()),
            ServeConfig::default(),
        )
        .unwrap();
        let (features, reference) = task.synthesize_utterance(1, 0.2, 81);
        {
            let handle = server.open_stream().unwrap();
            handle.push_chunk(&features).unwrap();
            // Dropped here without finish: the worker discards the session.
        }
        // Subsequent traffic is unaffected, and the abandoned session never
        // produced a result tick.
        let got = server.submit(features.clone()).unwrap().wait().unwrap();
        assert_eq!(got.hypothesis.words, reference);
        let stats = server.stats();
        assert_eq!(stats.stream_sessions, 1);
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.failed, 0);
        server.close();
    }

    #[test]
    fn explicit_stream_cancel_is_a_delivered_barge_in() {
        let task = task();
        let server = AsrServer::spawn(
            recognizer(&task, DecoderConfig::hardware(1)),
            ServeConfig::default(),
        )
        .unwrap();
        let (features, reference) = task.synthesize_utterance(2, 0.2, 83);

        // Cancel one session mid-utterance while a sibling keeps decoding.
        let doomed = server.open_stream().unwrap();
        let survivor = server.open_stream().unwrap();
        doomed.push_chunk(&features[..features.len() / 2]).unwrap();
        survivor.push_chunk(&features).unwrap();
        doomed.cancel().unwrap();

        // The survivor (and fresh traffic) is unaffected; the cancelled
        // session produced no completed/failed tick.
        let got = survivor.finish().unwrap().wait().unwrap();
        assert_eq!(got.hypothesis.words, reference);
        let got = server.submit(features.clone()).unwrap().wait().unwrap();
        assert_eq!(got.hypothesis.words, reference);
        let stats = server.stats();
        assert_eq!(stats.stream_sessions, 2);
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.failed, 0);
        server.close();
        // Cancelling after shutdown reports Closed instead of pretending the
        // barge-in was delivered.
        let server = AsrServer::spawn(
            recognizer(&task, DecoderConfig::simd()),
            ServeConfig::default(),
        )
        .unwrap();
        let handle = server.open_stream().unwrap();
        {
            // Mark the shared queue closed exactly as shutdown does.
            server.lock_queue().closed = true;
        }
        assert!(matches!(handle.cancel(), Err(ServeError::Closed)));
    }

    #[test]
    fn interleaved_streams_and_batch_requests_stay_isolated() {
        let task = task();
        let direct = recognizer(&task, DecoderConfig::simd());
        let server = AsrServer::spawn(
            recognizer(&task, DecoderConfig::simd()),
            ServeConfig::default(),
        )
        .unwrap();
        let (first, first_ref) = task.synthesize_utterance(1, 0.2, 31);
        let (second, second_ref) = task.synthesize_utterance(2, 0.2, 32);
        let (batch_utt, batch_ref) = task.synthesize_utterance(1, 0.2, 33);
        let want_first = direct.decode_features(&first).unwrap();
        let want_second = direct.decode_features(&second).unwrap();

        // Two sessions interleaved chunk by chunk, with a whole-utterance
        // request racing through the same queue.
        let a = server.open_stream().unwrap();
        let b = server.open_stream().unwrap();
        assert_ne!(a.id(), b.id());
        let batch_future = server.submit(batch_utt).unwrap();
        let mut ai = first.chunks(2);
        let mut bi = second.chunks(2);
        loop {
            match (ai.next(), bi.next()) {
                (None, None) => break,
                (chunk_a, chunk_b) => {
                    if let Some(chunk) = chunk_a {
                        a.push_chunk(chunk).unwrap();
                    }
                    if let Some(chunk) = chunk_b {
                        b.push_chunk(chunk).unwrap();
                    }
                }
            }
        }
        let got_a = a.finish().unwrap().wait().unwrap();
        let got_b = b.finish().unwrap().wait().unwrap();
        assert_eq!(got_a.hypothesis.words, first_ref);
        assert_eq!(got_b.hypothesis.words, second_ref);
        assert_eq!(got_a.hypothesis, want_first.hypothesis);
        assert_eq!(got_b.hypothesis, want_second.hypothesis);
        assert_eq!(batch_future.wait().unwrap().hypothesis.words, batch_ref);
        assert_eq!(server.stats().completed, 3);
    }

    #[test]
    fn stream_partials_are_published_and_prefix_consistent() {
        let task = task();
        let server = AsrServer::spawn(
            recognizer(&task, DecoderConfig::simd()),
            ServeConfig::default(),
        )
        .unwrap();
        let (features, reference) = task.synthesize_utterance(3, 0.2, 41);
        let handle = server.open_stream().unwrap();
        assert_eq!(handle.partial(), PartialHypothesis::default());
        let mut previous = PartialHypothesis::default();
        for chunk in features.chunks(4) {
            handle.push_chunk(chunk).unwrap();
            // The worker publishes asynchronously; wait for it to catch up
            // so the snapshot is deterministic.
            while handle.partial().frames < previous.frames + chunk.len() {
                std::thread::yield_now();
            }
            let partial = handle.partial();
            assert!(partial.words.starts_with(&previous.words));
            previous = partial;
        }
        assert!(!previous.words.is_empty());
        let result = handle.finish().unwrap().wait().unwrap();
        assert_eq!(result.hypothesis.words, reference);
    }

    #[test]
    fn empty_stream_session_resolves_to_the_typed_empty_result() {
        let task = task();
        let server = AsrServer::spawn(
            recognizer(&task, DecoderConfig::simd()),
            ServeConfig::default(),
        )
        .unwrap();
        let handle = server.open_stream().unwrap();
        let result = handle.finish().unwrap().wait().unwrap();
        assert!(result.is_empty());
        assert_eq!(server.stats().completed, 1);
    }

    #[test]
    fn a_bad_chunk_fails_the_session_at_finish_not_its_neighbours() {
        let task = task();
        let dim = task.acoustic_model.feature_dim();
        let server = AsrServer::spawn(
            recognizer(&task, DecoderConfig::simd()),
            ServeConfig::default(),
        )
        .unwrap();
        let (good, reference) = task.synthesize_utterance(1, 0.2, 51);
        let poisoned = server.open_stream().unwrap();
        let healthy = server.open_stream().unwrap();
        poisoned.push_chunk(&[vec![0.0; dim + 2]]).unwrap();
        // Later pushes to the failed session are absorbed, not decoded.
        poisoned.push_chunk(&good).unwrap();
        healthy.push_chunk(&good).unwrap();
        assert!(matches!(
            poisoned.finish().unwrap().wait(),
            Err(ServeError::Decode(DecodeError::DimensionMismatch { .. }))
        ));
        assert_eq!(
            healthy.finish().unwrap().wait().unwrap().hypothesis.words,
            reference
        );
        let stats = server.stats();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.failed, 1);
    }

    #[test]
    fn a_stream_that_fails_on_a_push_leaves_its_worker_decoding() {
        let task = task();
        let dim = task.acoustic_model.feature_dim();
        let direct = recognizer(&task, DecoderConfig::hardware(2));
        let server = AsrServer::spawn(
            recognizer(&task, DecoderConfig::hardware(2)),
            ServeConfig::default().workers(1),
        )
        .unwrap();
        let (good, reference) = task.synthesize_utterance(2, 0.2, 52);
        let failing = server.open_stream().unwrap();
        failing.push_chunk(&good[..good.len() / 2]).unwrap();
        failing.push_chunk(&[vec![0.0; dim + 2]]).unwrap();
        assert!(matches!(
            failing.finish().unwrap().wait(),
            Err(ServeError::Decode(DecodeError::DimensionMismatch { .. }))
        ));
        // The failed stream gave its decoder back mid-utterance; the next
        // request decodes on it exactly as on a fresh one, counters
        // included.
        let offline = direct.decode_features(&good).unwrap();
        let served = server.submit(good.clone()).unwrap().wait().unwrap();
        assert_eq!(served.hypothesis.words, reference);
        assert_eq!(served.hypothesis, offline.hypothesis);
        assert_eq!(served.best_score.raw(), offline.best_score.raw());
        let (a, b) = (served.hardware.unwrap(), offline.hardware.unwrap());
        assert_eq!(a.frames, b.frames);
        assert_eq!(a.senones_scored, b.senones_scored);
        assert_eq!(a.hmm_updates, b.hmm_updates);
    }

    #[test]
    fn streams_cannot_be_opened_or_pushed_after_close() {
        let task = task();
        let server = AsrServer::spawn(
            recognizer(&task, DecoderConfig::simd()),
            ServeConfig::default(),
        )
        .unwrap();
        let (features, _) = task.synthesize_utterance(1, 0.2, 61);
        let handle = server.open_stream().unwrap();
        handle.push_chunk(&features).unwrap();
        {
            // Mark the shared queue closed exactly as shutdown does.
            server.lock_queue().closed = true;
        }
        assert!(matches!(
            handle.push_chunk(&features),
            Err(ServeError::Closed)
        ));
        assert!(matches!(server.open_stream(), Err(ServeError::Closed)));
        assert!(matches!(handle.finish(), Err(ServeError::Closed)));
    }

    #[test]
    fn stream_hardware_reports_fold_into_the_server_report() {
        let task = task();
        let server = AsrServer::spawn(
            recognizer(&task, DecoderConfig::hardware(2)),
            ServeConfig::default(),
        )
        .unwrap();
        let (features, _) = task.synthesize_utterance(1, 0.2, 71);
        let frames = features.len();
        let handle = server.open_stream().unwrap();
        handle.push_chunk(&features).unwrap();
        handle.finish().unwrap().wait().unwrap();
        let direct = server.submit(features).unwrap();
        direct.wait().unwrap();
        let report = server.hardware_report().expect("merged stream report");
        assert_eq!(report.frames, 2 * frames);
    }

    #[test]
    fn futures_are_pollable_on_an_executor() {
        let task = task();
        let server = AsrServer::spawn(
            recognizer(&task, DecoderConfig::simd()),
            ServeConfig::default(),
        )
        .unwrap();
        let (features, reference) = task.synthesize_utterance(2, 0.2, 6);
        let future = server.submit(features).unwrap();
        let result = block_on(future).unwrap();
        assert_eq!(result.hypothesis.words, reference);
    }

    #[test]
    fn spawn_rejects_invalid_configs_up_front() {
        let task = task();
        let bad_serve = AsrServer::spawn(
            recognizer(&task, DecoderConfig::simd()),
            ServeConfig::default().max_batch(0),
        );
        assert!(matches!(bad_serve, Err(ServeError::InvalidConfig(_))));
        // A recogniser whose backend cannot build fails at spawn, not on the
        // first request.  (An invalid SoC config is rejected by Recognizer::new
        // already, so exercise the path through a valid-at-construction but
        // unbuildable sharded config is impossible — instead check the
        // spawn-time decoder probe succeeds for a sharded backend.)
        let sharded = AsrServer::spawn(
            recognizer(&task, DecoderConfig::sharded_hardware(2)),
            ServeConfig::default(),
        )
        .unwrap();
        let (features, reference) = task.synthesize_utterance(1, 0.2, 9);
        assert_eq!(
            sharded
                .submit(features)
                .unwrap()
                .wait()
                .unwrap()
                .hypothesis
                .words,
            reference
        );
        assert!(sharded.hardware_report().is_some());
    }

    /// The histogram itself is unit-tested in `asr-obs`; here: the counters
    /// surface through `stats()`, and an observed server's traces are
    /// balanced.
    #[test]
    fn stats_and_traces_balance() {
        let task = task();
        let (telemetry, sink) = Telemetry::to_memory();
        let server = AsrServer::spawn_observed(
            recognizer(&task, DecoderConfig::simd()),
            ServeConfig::default(),
            telemetry,
        )
        .unwrap();
        assert!(server.telemetry().is_enabled());
        let (features, _) = task.synthesize_utterance(1, 0.2, 21);
        for _ in 0..3 {
            server.submit(features.clone()).unwrap().wait().unwrap();
        }
        let stats = server.stats();
        assert_eq!(stats.submitted, 3);
        assert_eq!(stats.completed, 3);
        assert!(stats.queue_wait_p50.is_some());
        // Three decode traces, each Admitted → … → exactly one terminal.
        let spans = sink.facts();
        let mut by_trace: HashMap<u64, Vec<&asr_obs::Fact>> = HashMap::new();
        for fact in &spans {
            assert_eq!(fact.kind, "span");
            let trace = fact.field("trace").and_then(|v| v.as_u64()).unwrap();
            by_trace.entry(trace).or_default().push(fact);
        }
        assert_eq!(by_trace.len(), 3);
        for events in by_trace.values() {
            let names: Vec<&str> = events
                .iter()
                .map(|f| f.field("event").and_then(|v| v.as_str()).unwrap())
                .collect();
            assert_eq!(names.first(), Some(&"admitted"));
            assert_eq!(names.last(), Some(&"finished"));
            assert_eq!(
                names.iter().filter(|n| **n == "finished").count(),
                1,
                "one terminal per trace: {names:?}"
            );
            assert!(names.contains(&"enqueued"));
            assert!(names.contains(&"decode_started"));
        }
        server.close();
    }

    #[test]
    fn stats_expose_queue_wait_and_service_percentiles() {
        let task = task();
        let server = AsrServer::spawn(
            recognizer(&task, DecoderConfig::simd()),
            ServeConfig::default(),
        )
        .unwrap();
        assert_eq!(server.stats().queue_wait_p50, None);
        assert_eq!(server.stats().service_p50, None);
        let (features, _) = task.synthesize_utterance(1, 0.2, 13);
        for _ in 0..3 {
            server.submit(features.clone()).unwrap().wait().unwrap();
        }
        let stats = server.stats();
        let (p50, p99) = (stats.queue_wait_p50.unwrap(), stats.queue_wait_p99.unwrap());
        assert!(p50 <= p99, "p50 {p50:?} must not exceed p99 {p99:?}");
        let (s50, s99) = (stats.service_p50.unwrap(), stats.service_p99.unwrap());
        assert!(s50 <= s99);
        server.close();
    }

    #[test]
    fn multi_worker_server_matches_direct_decode() {
        let task = task();
        let direct = recognizer(&task, DecoderConfig::simd());
        let server = AsrServer::spawn(
            recognizer(&task, DecoderConfig::simd()),
            ServeConfig::default().workers(3),
        )
        .unwrap();
        let utterances: Vec<_> = (0..9)
            .map(|seed| task.synthesize_utterance(1, 0.2, seed).0)
            .collect();
        let futures: Vec<_> = utterances
            .iter()
            .map(|u| server.submit(u.clone()).unwrap())
            .collect();
        let want = direct.decode_batch(&utterances).unwrap();
        for (future, want) in futures.into_iter().zip(&want) {
            assert_eq!(future.wait().unwrap().hypothesis, want.hypothesis);
        }
        let stats = server.stats();
        assert_eq!(stats.completed, 9);
        assert_eq!(stats.failed, 0);
        server.close();
    }

    #[test]
    fn multi_worker_hardware_reports_add_every_utterance() {
        let task = task();
        let server = AsrServer::spawn(
            recognizer(&task, DecoderConfig::hardware(2)),
            ServeConfig::default().workers(2),
        )
        .unwrap();
        let (features, _) = task.synthesize_utterance(1, 0.2, 3);
        let frames = features.len();
        let futures: Vec<_> = (0..4)
            .map(|_| server.submit(features.clone()).unwrap())
            .collect();
        for future in futures {
            future.wait().unwrap();
        }
        let report = server.hardware_report().expect("merged stream report");
        // Every served utterance adds its frames, however the two workers
        // split the four requests.
        assert_eq!(report.frames, 4 * frames);
        server.close();
    }

    #[test]
    fn streams_stay_pinned_and_ordered_across_workers() {
        let task = task();
        let direct = recognizer(&task, DecoderConfig::simd());
        let server = AsrServer::spawn(
            recognizer(&task, DecoderConfig::simd()),
            ServeConfig::default().workers(4),
        )
        .unwrap();
        let sessions: Vec<_> = (0..6)
            .map(|i| {
                let (features, reference) = task.synthesize_utterance(1, 0.2, 100 + i);
                (server.open_stream().unwrap(), features, reference)
            })
            .collect();
        // Interleave every session's chunks round-robin across the one queue.
        let mut offsets = vec![0usize; sessions.len()];
        loop {
            let mut pushed = false;
            for (i, (handle, features, _)) in sessions.iter().enumerate() {
                if offsets[i] < features.len() {
                    let end = (offsets[i] + 2).min(features.len());
                    handle.push_chunk(&features[offsets[i]..end]).unwrap();
                    offsets[i] = end;
                    pushed = true;
                }
            }
            if !pushed {
                break;
            }
        }
        for (handle, features, reference) in sessions {
            let want = direct.decode_features(&features).unwrap();
            let got = handle.finish().unwrap().wait().unwrap();
            assert_eq!(got.hypothesis.words, reference);
            assert_eq!(got.hypothesis, want.hypothesis);
        }
        assert_eq!(server.stats().completed, 6);
        server.close();
    }
}
