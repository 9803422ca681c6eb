//! Multi-model serving integration tests: a registry of named models behind
//! one queue must route every request to exactly the model (and version) it
//! was admitted under — across mixed traffic, per-model/per-tenant admission
//! control, and live hot-swaps — while staying observationally identical to
//! decoding on each model directly.

use lvcsr::corpus::{SyntheticTask, TaskConfig, TaskGenerator};
use lvcsr::decoder::{DecodeResult, DecoderConfig, Recognizer};
use lvcsr::obs::Telemetry;
use lvcsr::serve::{
    AsrServer, DecodeRequest, ModelRegistry, QueueScope, ServeConfig, ServeError, StreamOptions,
    DEFAULT_MODEL,
};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn build_task(seed: u64) -> SyntheticTask {
    TaskGenerator::new(seed)
        .generate(&TaskConfig::tiny())
        .expect("task")
}

fn build_recognizer(task: &SyntheticTask, config: DecoderConfig) -> Recognizer {
    Recognizer::new(
        task.acoustic_model.clone(),
        task.dictionary.clone(),
        task.language_model.clone(),
        config,
    )
    .expect("recogniser")
}

fn fingerprint(r: &DecodeResult) -> (Vec<u32>, usize, u64, Option<(usize, u64)>) {
    (
        r.hypothesis.words.iter().map(|w| w.0).collect(),
        r.stats.num_frames(),
        r.stats.total_senones_scored(),
        r.hardware.as_ref().map(|h| (h.frames, h.senones_scored)),
    )
}

/// The four stock backends the multi-model layer must be transparent over.
fn backend(index: usize) -> DecoderConfig {
    match index % 4 {
        0 => DecoderConfig::software(),
        1 => DecoderConfig::simd(),
        2 => DecoderConfig::hardware(2),
        _ => DecoderConfig::sharded_hardware(4),
    }
}

/// Acceptance: two named models served concurrently from one queue, every
/// request decoded by exactly the model it named, with per-model stats and
/// per-model hardware reports splitting the shared totals.
#[test]
fn two_models_serve_concurrently_with_per_model_stats_and_reports() {
    let task_a = build_task(31415);
    let task_b = build_task(27182);
    let direct_a = build_recognizer(&task_a, DecoderConfig::hardware(2));
    let direct_b = build_recognizer(&task_b, DecoderConfig::hardware(2));
    let registry = ModelRegistry::new()
        .register(
            "dictation",
            build_recognizer(&task_a, DecoderConfig::hardware(2)),
        )
        .expect("register")
        .register(
            "voice_command",
            build_recognizer(&task_b, DecoderConfig::hardware(2)),
        )
        .expect("register")
        .default_model("dictation");
    let server = AsrServer::spawn(registry, ServeConfig::default().workers(2)).expect("server");
    assert_eq!(server.models(), ["dictation", "voice_command"]);
    assert_eq!(server.default_model(), "dictation");

    let a_utts: Vec<Vec<Vec<f32>>> = (0..4)
        .map(|seed| task_a.synthesize_utterance(1, 0.2, seed).0)
        .collect();
    let b_utts: Vec<Vec<Vec<f32>>> = (0..3)
        .map(|seed| task_b.synthesize_utterance(1, 0.2, 50 + seed).0)
        .collect();
    let want_a = direct_a.decode_batch(&a_utts).expect("direct a");
    let want_b = direct_b.decode_batch(&b_utts).expect("direct b");

    // Interleave the two models' traffic through the one queue.
    let futures_a: Vec<_> = a_utts
        .iter()
        .map(|u| {
            server
                .submit(DecodeRequest::new(u.clone()).model("dictation"))
                .expect("submit a")
        })
        .collect();
    let futures_b: Vec<_> = b_utts
        .iter()
        .map(|u| {
            server
                .submit(DecodeRequest::new(u.clone()).model("voice_command"))
                .expect("submit b")
        })
        .collect();
    for (future, want) in futures_a.into_iter().zip(&want_a) {
        assert_eq!(
            fingerprint(&future.wait().expect("decode a")),
            fingerprint(want),
            "dictation requests must decode on the dictation model"
        );
    }
    for (future, want) in futures_b.into_iter().zip(&want_b) {
        assert_eq!(
            fingerprint(&future.wait().expect("decode b")),
            fingerprint(want),
            "voice_command requests must decode on the voice_command model"
        );
    }

    // Per-model stats split the shared totals exactly.
    let stats = server.stats();
    let stats_a = server.model_stats("dictation").expect("dictation stats");
    let stats_b = server
        .model_stats("voice_command")
        .expect("voice_command stats");
    assert_eq!(stats_a.completed, 4);
    assert_eq!(stats_b.completed, 3);
    assert_eq!(stats.completed, 7);
    assert_eq!(stats_a.submitted + stats_b.submitted, stats.submitted);
    assert_eq!(stats.failed, 0);

    // Per-model hardware reports: each model saw exactly its own frames.
    let frames_a: usize = a_utts.iter().map(Vec::len).sum();
    let frames_b: usize = b_utts.iter().map(Vec::len).sum();
    let report_a = server
        .model_hardware_report("dictation")
        .expect("dictation report");
    let report_b = server
        .model_hardware_report("voice_command")
        .expect("voice_command report");
    // Whichever worker decoded them, every utterance adds its frames to its
    // own model's report, and the server's report adds the two models.
    assert_eq!(report_a.frames, frames_a);
    assert_eq!(report_b.frames, frames_b);
    let total = server.hardware_report().expect("server report");
    assert_eq!(total.frames, frames_a + frames_b);
    server.close();
}

/// A flush is the worker's next commands in arrival order, whatever models
/// they name: with a, b, a queued on one worker, b decodes second instead of
/// waiting out a second coalescing window behind a's.  The flush counts once
/// for each model it decodes, at that model's decode count.
#[test]
fn a_flush_decodes_mixed_models_in_arrival_order() {
    let task_a = build_task(31415);
    let task_b = build_task(27182);
    let registry = ModelRegistry::new()
        .register("a", build_recognizer(&task_a, DecoderConfig::simd()))
        .expect("register")
        .register("b", build_recognizer(&task_b, DecoderConfig::simd()))
        .expect("register");
    let (telemetry, sink) = Telemetry::to_memory();
    let server = AsrServer::spawn_observed(
        registry,
        // Three commands fill the flush at once; the long window is what
        // a request left behind would wait out.
        ServeConfig::default()
            .workers(1)
            .max_batch(3)
            .max_batch_delay(Duration::from_millis(300)),
        telemetry,
    )
    .expect("server");
    let (features_a, _) = task_a.synthesize_utterance(1, 0.2, 1);
    let (features_b, _) = task_b.synthesize_utterance(1, 0.2, 2);
    let futures =
        [("a", &features_a), ("b", &features_b), ("a", &features_a)].map(|(model, features)| {
            server
                .submit(DecodeRequest::new(features.clone()).model(model))
                .expect("submit")
        });
    for future in futures {
        future.wait().expect("decode");
    }

    // The sink holds span facts in `seq` order.
    let facts = sink.facts();
    let traces_of = |event: &str| -> Vec<u64> {
        facts
            .iter()
            .filter(|f| f.field("event").and_then(|v| v.as_str()) == Some(event))
            .map(|f| f.field("trace").and_then(|v| v.as_u64()).expect("trace"))
            .collect()
    };
    assert_eq!(
        traces_of("decode_started"),
        traces_of("admitted"),
        "decodes must start in arrival order a1, b1, a2"
    );
    let stats_a = server.model_stats("a").expect("a stats");
    let stats_b = server.model_stats("b").expect("b stats");
    assert_eq!((stats_a.batches, stats_a.largest_batch), (1, 2));
    assert_eq!((stats_b.batches, stats_b.largest_batch), (1, 1));
    server.close();
}

/// An unnamed request routes to the default model; [`AsrServer::spawn`] keeps
/// the whole single-model surface working without naming anything.
#[test]
fn default_model_routing_keeps_single_model_callers_working() {
    let task = build_task(31415);
    let direct = build_recognizer(&task, DecoderConfig::simd());
    let server = AsrServer::spawn(
        build_recognizer(&task, DecoderConfig::simd()),
        ServeConfig::default(),
    )
    .expect("server");
    assert_eq!(server.default_model(), DEFAULT_MODEL);
    let (features, _) = task.synthesize_utterance(1, 0.2, 11);
    let want = direct.decode_features(&features).expect("direct");

    // Bare features, an unnamed DecodeRequest, and an explicitly-named one
    // all land on the same model.
    let plain = server.submit(features.clone()).expect("plain");
    let unnamed = server
        .submit(DecodeRequest::new(features.clone()))
        .expect("unnamed");
    let named = server
        .submit(DecodeRequest::new(features.clone()).model(DEFAULT_MODEL))
        .expect("named");
    for future in [plain, unnamed, named] {
        assert_eq!(
            fingerprint(&future.wait().expect("decode")),
            fingerprint(&want)
        );
    }
    // Streams route the same way.
    let stream = server
        .open_stream_with(StreamOptions::new())
        .expect("stream");
    assert_eq!(stream.model(), DEFAULT_MODEL);
    stream.push_chunk(&features).expect("push");
    assert_eq!(
        fingerprint(&stream.finish().expect("finish").wait().expect("result")),
        fingerprint(&want)
    );
    assert_eq!(
        server.model_stats(DEFAULT_MODEL).expect("stats").completed,
        4
    );
    // Naming a model nobody registered is a typed error, not a fallback.
    assert!(matches!(
        server.submit(DecodeRequest::new(features).model("absent")),
        Err(ServeError::UnknownModel { model, .. }) if model == "absent"
    ));
}

/// Per-model quota: one model's burst is rejected at its own scope while the
/// co-resident model keeps admitting — the noisy neighbour is contained.
#[test]
fn per_model_quota_rejects_with_the_model_scope() {
    let task_a = build_task(31415);
    let task_b = build_task(27182);
    let registry = ModelRegistry::new()
        .register("noisy", build_recognizer(&task_a, DecoderConfig::simd()))
        .expect("register")
        .register("quiet", build_recognizer(&task_b, DecoderConfig::simd()))
        .expect("register");
    let server = AsrServer::spawn(
        registry,
        ServeConfig::default()
            .max_batch(64)
            // Requests hold the model quota until they complete, so the
            // burst overfills it however fast the worker drains.
            .max_batch_delay(Duration::from_millis(300))
            .model_quota(2),
    )
    .expect("server");
    let (features_a, _) = task_a.synthesize_utterance(1, 0.2, 1);
    let (features_b, _) = task_b.synthesize_utterance(1, 0.2, 2);
    let mut accepted = Vec::new();
    let mut noisy_rejections = 0u64;
    for _ in 0..12 {
        match server.submit(DecodeRequest::new(features_a.clone()).model("noisy")) {
            Ok(future) => accepted.push(future),
            Err(ServeError::QueueFull {
                capacity, scope, ..
            }) => {
                assert_eq!(capacity, 2);
                assert_eq!(scope, QueueScope::Model("noisy".into()));
                noisy_rejections += 1;
                // The moment the noisy model's quota pushes back, its idle
                // neighbour still admits — the burst is contained to the
                // scope that caused it.
                accepted.push(
                    server
                        .submit(DecodeRequest::new(features_b.clone()).model("quiet"))
                        .expect("the quiet model must keep admitting"),
                );
                break;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert!(noisy_rejections > 0, "the model quota must push back");
    for future in accepted {
        assert!(future.wait().is_ok());
    }
    assert_eq!(
        server.model_stats("noisy").expect("stats").rejected,
        noisy_rejections
    );
    assert_eq!(server.model_stats("quiet").expect("stats").rejected, 0);
}

/// Per-tenant quota: one tenant's burst is rejected at its own scope while
/// another tenant of the *same model* keeps admitting.
#[test]
fn per_tenant_quota_rejects_with_the_tenant_scope() {
    let task = build_task(31415);
    let server = AsrServer::spawn(
        build_recognizer(&task, DecoderConfig::simd()),
        ServeConfig::default()
            .max_batch(64)
            .max_batch_delay(Duration::from_millis(300))
            .tenant_quota(2),
    )
    .expect("server");
    let (features, _) = task.synthesize_utterance(1, 0.2, 1);
    let mut accepted = Vec::new();
    let mut acme_rejections = 0u64;
    for _ in 0..12 {
        match server.submit(DecodeRequest::new(features.clone()).tenant("acme")) {
            Ok(future) => accepted.push(future),
            Err(ServeError::QueueFull {
                capacity, scope, ..
            }) => {
                assert_eq!(capacity, 2);
                assert_eq!(scope, QueueScope::Tenant("acme".into()));
                acme_rejections += 1;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert!(acme_rejections > 0, "the tenant quota must push back");
    // A different tenant — and anonymous traffic — still admit.
    accepted.push(
        server
            .submit(DecodeRequest::new(features.clone()).tenant("globex"))
            .expect("another tenant must keep admitting"),
    );
    accepted.push(
        server
            .submit(features.clone())
            .expect("anonymous traffic is not charged to any tenant"),
    );
    for future in accepted {
        assert!(future.wait().is_ok());
    }
    assert_eq!(server.stats().rejected, acme_rejections);
}

/// Hot-swap, deterministically: requests submitted before the swap decode on
/// the old version, requests after it on the new one, no drain in between —
/// and a pinned stream session opened before the swap finishes on the
/// version that opened it.
#[test]
fn hot_swap_routes_new_admissions_and_pins_old_ones() {
    let task_v1 = build_task(31415);
    let task_v2 = build_task(27182);
    let rec_v1 = Arc::new(build_recognizer(&task_v1, DecoderConfig::simd()));
    let rec_v2 = Arc::new(build_recognizer(&task_v2, DecoderConfig::simd()));
    let registry = ModelRegistry::new()
        .register("m", Arc::clone(&rec_v1))
        .expect("register");
    let server = AsrServer::spawn(
        registry,
        // A long window so pre-swap submissions are still queued when the
        // swap lands — the version pin, not timing, must route them.
        ServeConfig::default()
            .max_batch(64)
            .max_batch_delay(Duration::from_millis(200)),
    )
    .expect("server");
    let (features, _) = task_v1.synthesize_utterance(2, 0.2, 5);
    let want_v1 = rec_v1.decode_features(&features).expect("direct v1");
    let want_v2 = rec_v2.decode_features(&features).expect("direct v2");
    assert_ne!(
        fingerprint(&want_v1),
        fingerprint(&want_v2),
        "the two versions must be distinguishable for this test to mean anything"
    );

    let stream = server
        .open_stream_with(StreamOptions::new().model("m"))
        .expect("stream");
    stream.push_chunk(&features[..3]).expect("push");
    let before: Vec<_> = (0..3)
        .map(|_| server.submit(features.clone()).expect("submit before"))
        .collect();
    assert_eq!(server.model_version("m"), Some(1));
    assert_eq!(
        server.swap_model("m", Arc::clone(&rec_v2)).expect("swap"),
        2
    );
    assert_eq!(server.model_version("m"), Some(2));
    let after: Vec<_> = (0..3)
        .map(|_| server.submit(features.clone()).expect("submit after"))
        .collect();
    stream.push_chunk(&features[3..]).expect("push after swap");

    for future in before {
        assert_eq!(
            fingerprint(&future.wait().expect("before")),
            fingerprint(&want_v1),
            "pre-swap admissions must decode on the version that admitted them"
        );
    }
    for future in after {
        assert_eq!(
            fingerprint(&future.wait().expect("after")),
            fingerprint(&want_v2),
            "post-swap admissions must decode on the new version"
        );
    }
    // The stream pinned v1 at open: chunks pushed after the swap still
    // decode there, and the final result is v1's offline decode.
    assert_eq!(
        fingerprint(&stream.finish().expect("finish").wait().expect("stream")),
        fingerprint(&want_v1),
        "a session spans the swap on the version that opened it"
    );
    // Swapping an unregistered name is a typed error, not an insert.
    assert!(matches!(
        server.swap_model("absent", rec_v2),
        Err(ServeError::UnknownModel { model, .. }) if model == "absent"
    ));
    let stats = server.model_stats("m").expect("stats");
    assert_eq!(stats.completed, 7);
    assert_eq!(stats.failed, 0);
    server.close();
}

proptest! {
    /// Acceptance: hot-swap under sustained mixed load loses and misroutes
    /// nothing, on every backend and worker count.  A co-resident "other"
    /// model takes interleaved traffic throughout; "m" is swapped mid-flood;
    /// every future resolves, pre-swap admissions match direct decoding on
    /// v1, post-swap admissions on v2, and the other model's results are
    /// untouched by its neighbour's swap.
    #[test]
    fn hot_swap_under_load_loses_and_misroutes_nothing(
        backend_index in 0usize..4,
        workers_index in 0usize..3,
        n_before in 1usize..4,
        n_after in 1usize..4,
        seed in 0u64..200,
    ) {
        let workers = [1usize, 2, 4][workers_index];
        let task_v1 = build_task(31415);
        let task_v2 = build_task(27182);
        let config = backend(backend_index);
        let rec_v1 = Arc::new(build_recognizer(&task_v1, config.clone()));
        let rec_v2 = Arc::new(build_recognizer(&task_v2, config.clone()));
        let rec_other = Arc::new(build_recognizer(&task_v2, config));

        let (features, _) = task_v1.synthesize_utterance(2, 0.2, seed);
        let (other_features, _) = task_v2.synthesize_utterance(1, 0.2, seed + 1000);
        let want_v1 = rec_v1.decode_features(&features).expect("direct v1");
        let want_v2 = rec_v2.decode_features(&features).expect("direct v2");
        let want_other = rec_other.decode_features(&other_features).expect("direct other");
        prop_assume!(fingerprint(&want_v1) != fingerprint(&want_v2));

        let registry = ModelRegistry::new()
            .register("m", Arc::clone(&rec_v1)).expect("register m")
            .register("other", Arc::clone(&rec_other)).expect("register other");
        let server = AsrServer::spawn(
            registry,
            ServeConfig::default().workers(workers),
        ).expect("server");

        let mut other_futures = Vec::new();
        let mut submit_other = |server: &AsrServer| {
            other_futures.push(
                server
                    .submit(DecodeRequest::new(other_features.clone()).model("other"))
                    .expect("submit other"),
            );
        };
        let before: Vec<_> = (0..n_before)
            .map(|_| {
                submit_other(&server);
                server.submit(features.clone()).expect("submit before")
            })
            .collect();
        prop_assert_eq!(
            server.swap_model("m", Arc::clone(&rec_v2)).expect("swap"),
            2
        );
        let after: Vec<_> = (0..n_after)
            .map(|_| {
                submit_other(&server);
                server.submit(features.clone()).expect("submit after")
            })
            .collect();

        for future in before {
            prop_assert_eq!(
                fingerprint(&future.wait().expect("before resolves")),
                fingerprint(&want_v1)
            );
        }
        for future in after {
            prop_assert_eq!(
                fingerprint(&future.wait().expect("after resolves")),
                fingerprint(&want_v2)
            );
        }
        for future in other_futures {
            prop_assert_eq!(
                fingerprint(&future.wait().expect("other resolves")),
                fingerprint(&want_other)
            );
        }
        let total = (n_before + n_after) as u64;
        let stats = server.stats();
        prop_assert_eq!(stats.completed, 2 * total);
        prop_assert_eq!(stats.failed, 0);
        prop_assert_eq!(server.model_stats("m").expect("m stats").completed, total);
        prop_assert_eq!(server.model_stats("other").expect("other stats").completed, total);
        server.close();
    }
}
