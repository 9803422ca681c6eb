//! Serving-front integration tests: the queue + micro-batcher must be
//! observationally identical to calling `decode_batch` directly, on every
//! backend, and overload must surface as the typed backpressure error rather
//! than dropped or corrupted requests.

use lvcsr::corpus::{SyntheticTask, TaskConfig, TaskGenerator};
use lvcsr::decoder::{DecodeResult, DecoderConfig, Recognizer};
use lvcsr::serve::{AsrServer, PartialHypothesis, ServeConfig, ServeError};
use proptest::prelude::*;
use std::time::Duration;

fn build_task() -> SyntheticTask {
    TaskGenerator::new(31415)
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

/// Acceptance: `decode_batch` routed through the serving queue matches a
/// direct `decode_batch` call, on every backend (including the sharded
/// scale-out one).
#[test]
fn queued_decoding_matches_direct_decode_batch_on_every_backend() {
    let task = build_task();
    let utterances: Vec<Vec<Vec<f32>>> = (0..8)
        .map(|seed| {
            task.synthesize_utterance(1 + (seed as usize) % 2, 0.2, seed)
                .0
        })
        .collect();
    for config in [
        DecoderConfig::software(),
        DecoderConfig::simd(),
        DecoderConfig::hardware(2),
        DecoderConfig::sharded_hardware(4),
    ] {
        let direct = build_recognizer(&task, config.clone())
            .decode_batch(&utterances)
            .expect("direct decode");
        let server = AsrServer::spawn(
            build_recognizer(&task, config.clone()),
            ServeConfig::default(),
        )
        .expect("server");
        let futures: Vec<_> = utterances
            .iter()
            .map(|u| server.submit(u.clone()).expect("submit"))
            .collect();
        for (future, want) in futures.into_iter().zip(&direct) {
            let got = future.wait().expect("queued decode");
            assert_eq!(
                fingerprint(&got),
                fingerprint(want),
                "queue must not change results for {config:?}"
            );
        }
    }
}

/// The four stock backends the serving front must be transparent over.
fn backend(index: usize) -> DecoderConfig {
    match index % 4 {
        0 => DecoderConfig::software(),
        1 => DecoderConfig::simd(),
        2 => DecoderConfig::hardware(2),
        _ => DecoderConfig::sharded_hardware(4),
    }
}

proptest! {
    /// Acceptance: an M-worker server is observationally identical to direct
    /// decoding for workers ∈ {1, 2, 4} on every backend — batch submissions
    /// match `decode_batch`, and stream sessions interleaved with the batch
    /// traffic match offline decodes of their chunks, with partials
    /// prefix-consistent and per-session chunk order preserved (the pinning
    /// rule at work: more workers must never reorder one session's chunks).
    #[test]
    fn multi_worker_serving_matches_direct_decoding_on_every_backend(
        backend_index in 0usize..4,
        workers_index in 0usize..3,
        n_utterances in 2usize..6,
        chunk in 1usize..5,
        seed in 0u64..500,
    ) {
        let workers = [1usize, 2, 4][workers_index];
        let task = build_task();
        let config = backend(backend_index);
        let direct = build_recognizer(&task, config.clone());
        let server = AsrServer::spawn(
            build_recognizer(&task, config),
            ServeConfig::default().workers(workers),
        )
        .expect("server");

        let utterances: Vec<Vec<Vec<f32>>> = (0..n_utterances)
            .map(|i| {
                task.synthesize_utterance(1 + i % 2, 0.2, seed + i as u64).0
            })
            .collect();
        let want_batch = direct.decode_batch(&utterances).expect("direct batch");
        let (stream_a, _) = task.synthesize_utterance(1, 0.2, seed + 1000);
        let (stream_b, _) = task.synthesize_utterance(2, 0.2, seed + 2000);
        let want_a = direct.decode_features(&stream_a).expect("direct a");
        let want_b = direct.decode_features(&stream_b).expect("direct b");

        // Open both sessions, then flood the batch traffic, then interleave
        // the two sessions' chunks — everything shares the one queue.
        let a = server.open_stream().expect("open a");
        let b = server.open_stream().expect("open b");
        let futures: Vec<_> = utterances
            .iter()
            .map(|u| server.submit(u.clone()).expect("submit"))
            .collect();
        let mut pushed = [0usize; 2];
        let mut previous = [PartialHypothesis::default(), PartialHypothesis::default()];
        let sessions = [(&a, &stream_a), (&b, &stream_b)];
        loop {
            let mut advanced = false;
            for (i, (handle, features)) in sessions.iter().enumerate() {
                if pushed[i] < features.len() {
                    let end = (pushed[i] + chunk).min(features.len());
                    handle.push_chunk(&features[pushed[i]..end]).expect("push");
                    pushed[i] = end;
                    advanced = true;
                    // Wait for the pinned worker to publish, then check the
                    // partial extends (never rewrites) the previous snapshot.
                    while handle.partial().frames < pushed[i] {
                        std::thread::yield_now();
                    }
                    let partial = handle.partial();
                    prop_assert!(partial.words.starts_with(&previous[i].words));
                    previous[i] = partial;
                }
            }
            if !advanced {
                break;
            }
        }
        let got_a = a.finish().expect("finish a").wait().expect("stream a");
        let got_b = b.finish().expect("finish b").wait().expect("stream b");
        prop_assert_eq!(fingerprint(&got_a), fingerprint(&want_a));
        prop_assert_eq!(fingerprint(&got_b), fingerprint(&want_b));
        for (future, want) in futures.into_iter().zip(&want_batch) {
            let got = future.wait().expect("queued decode");
            prop_assert_eq!(fingerprint(&got), fingerprint(want));
        }
        let stats = server.stats();
        prop_assert_eq!(stats.completed, n_utterances as u64 + 2);
        prop_assert_eq!(stats.failed, 0);
        server.close();
    }
}

/// Overload: a full queue refuses with the typed [`ServeError::QueueFull`]
/// and *every accepted request still completes* — backpressure sheds at the
/// door, it never drops admitted work.
#[test]
fn overload_returns_typed_backpressure_and_drops_nothing() {
    let task = build_task();
    let server = AsrServer::spawn(
        build_recognizer(&task, DecoderConfig::simd()),
        ServeConfig::default()
            .max_pending(3)
            .max_batch(16)
            // A long coalescing window keeps the worker waiting while the
            // burst overfills the queue.
            .max_batch_delay(Duration::from_millis(300)),
    )
    .expect("server");
    let (features, reference) = task.synthesize_utterance(1, 0.2, 7);
    let mut accepted = Vec::new();
    let mut rejected = 0u64;
    for _ in 0..24 {
        match server.submit(features.clone()) {
            Ok(future) => accepted.push(future),
            Err(ServeError::QueueFull {
                capacity, scope, ..
            }) => {
                assert_eq!(capacity, 3);
                assert_eq!(scope, lvcsr::serve::QueueScope::Queue);
                rejected += 1;
            }
            Err(other) => panic!("overload must be QueueFull, got {other}"),
        }
    }
    assert!(rejected > 0, "a 3-deep queue must push back on a 24-burst");
    assert!(!accepted.is_empty(), "admission must still work under load");
    let accepted_count = accepted.len() as u64;
    for future in accepted {
        let result = future.wait().expect("accepted requests complete");
        assert_eq!(result.hypothesis.words, reference);
    }
    let stats = server.stats();
    assert_eq!(stats.rejected, rejected);
    assert_eq!(stats.completed, accepted_count);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.submitted, accepted_count);
}

/// The stream-level hardware report accumulates across queued utterances
/// exactly like a manual `UtteranceReport::merge` fold over direct decodes.
#[test]
fn stream_hardware_report_matches_a_direct_fold() {
    let task = build_task();
    let utterances: Vec<Vec<Vec<f32>>> = (0..5)
        .map(|seed| task.synthesize_utterance(1, 0.2, 40 + seed).0)
        .collect();
    let direct = build_recognizer(&task, DecoderConfig::hardware(2))
        .decode_batch(&utterances)
        .expect("direct decode");
    let mut want = lvcsr::hw::UtteranceReport::default();
    for result in &direct {
        want = want.merge(result.hardware.as_ref().expect("report"));
    }
    let server = AsrServer::spawn(
        build_recognizer(&task, DecoderConfig::hardware(2)),
        ServeConfig::default(),
    )
    .expect("server");
    let futures: Vec<_> = utterances
        .iter()
        .map(|u| server.submit(u.clone()).expect("submit"))
        .collect();
    for future in futures {
        future.wait().expect("queued decode");
    }
    let got = server.hardware_report().expect("stream report");
    assert_eq!(got.frames, want.frames);
    assert_eq!(got.senones_scored, want.senones_scored);
    assert!((got.energy.audio_seconds - want.energy.audio_seconds).abs() < 1e-12);
}

/// Two workers over a 4-shard machine report exactly what the utterances
/// they served add up to: a sequential `UtteranceReport::merge` fold of
/// direct decodes, with one senone count per shard of the machine, however
/// the workers split the requests.
#[test]
fn multi_worker_sharded_report_adds_every_served_utterance() {
    let task = build_task();
    let utterances: Vec<Vec<Vec<f32>>> = (0..12)
        .map(|seed| {
            task.synthesize_utterance(1 + seed as usize % 2, 0.2, 60 + seed)
                .0
        })
        .collect();
    let direct = build_recognizer(&task, DecoderConfig::sharded_hardware(4));
    let mut want = lvcsr::hw::UtteranceReport::default();
    for features in &utterances {
        let result = direct.decode_features(features).expect("direct decode");
        want = want.merge(result.hardware.as_ref().expect("report"));
    }
    // Two-request flushes, so both workers take a share of the burst.
    let server = AsrServer::spawn(
        build_recognizer(&task, DecoderConfig::sharded_hardware(4)),
        ServeConfig::default().workers(2).max_batch(2),
    )
    .expect("server");
    let futures: Vec<_> = utterances
        .iter()
        .map(|u| server.submit(u.clone()).expect("submit"))
        .collect();
    for future in futures {
        future.wait().expect("queued decode");
    }
    let got = server.hardware_report().expect("server report");
    assert_eq!(got.frames, want.frames);
    assert_eq!(got.senones_scored, want.senones_scored);
    assert_eq!(got.hmm_updates, want.hmm_updates);
    assert_eq!(got.shard_senones, want.shard_senones);
    assert_eq!(got.shard_senones.len(), 4);
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs();
    assert!(close(got.energy.audio_seconds, want.energy.audio_seconds));
    assert!(close(
        got.energy.total_energy_j(),
        want.energy.total_energy_j()
    ));
    server.close();
}

/// Shutdown is graceful: accepted work drains, later submissions fail
/// `Closed`, and nothing hangs.
#[test]
fn shutdown_drains_accepted_work() {
    let task = build_task();
    let server = AsrServer::spawn(
        build_recognizer(&task, DecoderConfig::simd()),
        ServeConfig::default().max_batch_delay(Duration::from_millis(200)),
    )
    .expect("server");
    let (features, reference) = task.synthesize_utterance(1, 0.2, 3);
    let pending: Vec<_> = (0..6)
        .map(|_| server.submit(features.clone()).expect("submit"))
        .collect();
    server.close();
    for future in pending {
        assert_eq!(
            future.wait().expect("drained on close").hypothesis.words,
            reference
        );
    }
}
