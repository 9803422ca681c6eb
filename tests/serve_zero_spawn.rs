//! Steady-state zero-spawn acceptance: a warm sharded decoder — whether
//! driven directly through `decode_batch_with` or behind a multi-worker
//! `AsrServer`, for decodes and stream sessions alike — must not spawn
//! threads per utterance.  A sharded scorer spawns its lane threads once, on
//! the first parallel frame, and they live until the scorer is dropped.
//!
//! Each test reads only counts it owns: the direct tests read
//! `SenoneScorer::threads_spawned` on their own decoder, and the server tests
//! sum the `shard_dispatch` facts of their own telemetry sink.  On
//! single-CPU hosts the parallelism heuristic keeps scoring inline, making
//! zero spawns trivially true for the configured backends — the
//! forced-parallel batch test below carries the property there.

use lvcsr::corpus::{SyntheticTask, TaskConfig, TaskGenerator};
use lvcsr::decoder::{
    DecoderConfig, GmmSelectionConfig, PhoneDecoder, Recognizer, ScoringBackendKind, SenoneScorer,
    ShardedScorer,
};
use lvcsr::obs::{FieldValue, MemorySink, Telemetry};
use lvcsr::serve::{AsrServer, ServeConfig};

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

/// The lane threads the `shard_dispatch` facts in `sink` report.
fn shard_dispatch_threads(sink: &MemorySink) -> u64 {
    sink.facts()
        .iter()
        .filter(|f| f.field("event").and_then(FieldValue::as_str) == Some("shard_dispatch"))
        .map(|f| {
            f.field("threads")
                .and_then(FieldValue::as_u64)
                .expect("threads")
        })
        .sum()
}

/// A 16-utterance `decode_batch_with` over a 4-shard backend costs at most
/// one pool spawn (at most 3 lane threads) for the whole batch — not one per
/// utterance, as a `finish_utterance`-scoped pool would.
#[test]
fn decode_batch_pays_at_most_one_pool_spawn_for_16_utterances() {
    let task = build_task();
    let rec = build_recognizer(&task, DecoderConfig::sharded_hardware(4));
    let mut decoder = rec.phone_decoder().expect("decoder");
    let utterances: Vec<Vec<Vec<f32>>> = (0..16)
        .map(|seed| task.synthesize_utterance(1, 0.2, seed).0)
        .collect();
    let results = rec
        .decode_batch_with(&utterances, &mut decoder)
        .expect("batch decode");
    assert_eq!(results.len(), 16);
    let spawned = decoder.scorer().threads_spawned();
    assert!(
        spawned <= 3,
        "one 4-shard pool spawn (3 threads) may serve the whole batch, \
         but {spawned} threads were spawned — is the pool per-utterance again?"
    );
}

/// The same property with the pool forced on, so it holds on single-CPU
/// hosts too: a 16-utterance `decode_batch_with` through one decoder over a
/// forced-parallel 4-shard scorer spawns its lane threads exactly once:
/// `min(3, max(1, cpus − 1))` of them.
#[test]
fn forced_parallel_decode_batch_spawns_exactly_one_pool() {
    let task = build_task();
    let rec = build_recognizer(&task, DecoderConfig::hardware(2));
    let selection = GmmSelectionConfig::default();
    let shards: Vec<Box<dyn SenoneScorer>> = (0..4)
        .map(|_| {
            ScoringBackendKind::Hardware(lvcsr::hw::SocConfig::default())
                .build_scorer(&selection)
                .expect("shard")
        })
        .collect();
    let scorer = ShardedScorer::new(shards)
        .expect("sharded scorer")
        .with_parallelism(true);
    let mut decoder = PhoneDecoder::new(Box::new(scorer), selection);
    let utterances: Vec<Vec<Vec<f32>>> = (0..16)
        .map(|seed| task.synthesize_utterance(1, 0.2, seed).0)
        .collect();
    let results = rec
        .decode_batch_with(&utterances, &mut decoder)
        .expect("batch decode");
    assert_eq!(results.len(), 16);
    let cpus = std::thread::available_parallelism().map_or(1, |c| c.get());
    assert_eq!(
        decoder.scorer().threads_spawned(),
        3.min(cpus.saturating_sub(1).max(1)),
        "a forced-parallel 4-shard decoder spawns its lane threads once for the batch"
    );
}

/// A warm multi-worker server decodes indefinitely with zero thread spawns:
/// each worker's long-lived decoder spawns its pool once, on its first
/// parallel frame, and further traffic spawns nothing.  Which worker takes
/// which micro-batch is up to the scheduler, so the test bounds the total
/// its own sink reports over many rounds by one pool per worker instead of
/// waiting for a quiet round.
#[test]
fn a_warm_multi_worker_server_decodes_with_zero_thread_spawns() {
    const WORKERS: usize = 2;
    const SHARDS: usize = 3;
    let task = build_task();
    let (telemetry, sink) = Telemetry::to_memory();
    let server = AsrServer::spawn_observed(
        build_recognizer(&task, DecoderConfig::sharded_hardware(SHARDS)),
        ServeConfig::default().workers(WORKERS),
        telemetry,
    )
    .expect("server");
    let (features, reference) = task.synthesize_utterance(1, 0.2, 7);
    let decode_round = |n: usize| {
        let futures: Vec<_> = (0..n)
            .map(|_| server.submit(features.clone()).expect("submit"))
            .collect();
        for future in futures {
            assert_eq!(future.wait().expect("decode").hypothesis.words, reference);
        }
    };
    // 32 utterances across both workers: a per-utterance pool would spawn
    // SHARDS - 1 threads for each of them.
    for _ in 0..8 {
        decode_round(4);
    }
    server.close();
    let spawned = shard_dispatch_threads(&sink);
    assert!(
        spawned <= (WORKERS * (SHARDS - 1)) as u64,
        "a warm server must not spawn threads per utterance: {spawned} threads \
         for 32 utterances on {WORKERS} workers of {SHARDS} shards"
    );
}

/// Stream sessions borrow their worker's warm decoder too: a 2-worker
/// server on a 4-shard backend serves 16 stream sessions, two open at a
/// time (one per worker), and the lane threads their traces report stay
/// within one pool per worker.  On a multi-core host the first session on
/// each worker is the one that spins its pool up, so the traces must report
/// that spawn rather than nothing.
#[test]
fn a_warm_multi_worker_server_streams_with_zero_thread_spawns() {
    const WORKERS: usize = 2;
    const SHARDS: usize = 4;
    let task = build_task();
    let (telemetry, sink) = Telemetry::to_memory();
    let server = AsrServer::spawn_observed(
        build_recognizer(&task, DecoderConfig::sharded_hardware(SHARDS)),
        ServeConfig::default().workers(WORKERS),
        telemetry,
    )
    .expect("server");
    let (features, reference) = task.synthesize_utterance(1, 0.2, 7);
    for _ in 0..16 / WORKERS {
        // Consecutive stream ids pin to different workers.
        let streams: Vec<_> = (0..WORKERS)
            .map(|_| server.open_stream().expect("open"))
            .collect();
        for chunk in features.chunks(4) {
            for stream in &streams {
                stream.push_chunk(chunk).expect("push");
            }
        }
        for stream in streams {
            let result = stream.finish().expect("finish").wait().expect("decode");
            assert_eq!(result.hypothesis.words, reference);
        }
    }
    server.close();
    let spawned = shard_dispatch_threads(&sink);
    assert!(
        spawned <= (WORKERS * (SHARDS - 1)) as u64,
        "a warm server must not spawn threads per stream: {spawned} threads \
         for 16 streams on {WORKERS} workers of {SHARDS} shards"
    );
    if std::thread::available_parallelism().map_or(1, |c| c.get()) > 1 {
        assert!(
            spawned > 0,
            "the streams' traces report their pools' spawns"
        );
    }
}
