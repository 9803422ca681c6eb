//! Steady-state zero-spawn acceptance: a warm sharded decoder — whether
//! driven directly through `decode_batch` or behind a multi-worker
//! `AsrServer` — must not spawn threads per utterance.  The shard pool
//! spawns its workers once, on the first parallel frame, and lives until the
//! scorer is dropped.
//!
//! These tests watch the process-global `shard_threads_spawned_total()`
//! counter, so they live in their own test binary (no sibling tests spawning
//! shard threads concurrently) and serialise against each other through a
//! lock.  On single-CPU hosts the parallelism heuristic keeps scoring
//! inline, making zero spawns trivially true here — the forced-parallel pool
//! lifetime property is carried by the asr-core shard tests either way.

// The legacy free-function counter is deprecated in favour of the
// `shard.threads_spawned_total` registry counter; these tests deliberately
// keep exercising the shim so its readings stay wired to the registry.
#![allow(deprecated)]

use lvcsr::corpus::{SyntheticTask, TaskConfig, TaskGenerator};
use lvcsr::decoder::{shard_threads_spawned_total, DecoderConfig, Recognizer};
use lvcsr::serve::{AsrServer, ServeConfig};
use std::sync::Mutex;

static COUNTER_LOCK: Mutex<()> = Mutex::new(());

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

/// A 16-utterance `decode_batch` over a 4-shard backend costs at most one
/// pool spawn (3 worker threads) for the whole batch — not one per
/// utterance, as a `finish_utterance`-scoped pool would.
#[test]
fn decode_batch_pays_at_most_one_pool_spawn_for_16_utterances() {
    let _serial = COUNTER_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let task = build_task();
    let rec = build_recognizer(&task, DecoderConfig::sharded_hardware(4));
    let utterances: Vec<Vec<Vec<f32>>> = (0..16)
        .map(|seed| task.synthesize_utterance(1, 0.2, seed).0)
        .collect();
    let before = shard_threads_spawned_total();
    let results = rec.decode_batch(&utterances).expect("batch decode");
    assert_eq!(results.len(), 16);
    let spawned = shard_threads_spawned_total() - before;
    assert!(
        spawned <= 3,
        "one 4-shard pool spawn (3 threads) may serve the whole batch, \
         but {spawned} threads were spawned — is the pool per-utterance again?"
    );
}

/// A warm multi-worker server decodes indefinitely with zero thread spawns:
/// each worker's long-lived decoder spawns its pool once, on its first
/// parallel frame, and further traffic leaves the global spawn counter
/// untouched.  Which worker takes which micro-batch is up to the scheduler,
/// so the test bounds the total over many rounds by one pool per worker
/// instead of waiting for a quiet round.
#[test]
fn a_warm_multi_worker_server_decodes_with_zero_thread_spawns() {
    const WORKERS: usize = 2;
    const SHARDS: usize = 3;
    let _serial = COUNTER_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let task = build_task();
    let server = AsrServer::spawn(
        build_recognizer(&task, DecoderConfig::sharded_hardware(SHARDS)),
        ServeConfig::default().workers(WORKERS),
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
    let before = shard_threads_spawned_total();
    // 32 utterances across both workers: a per-utterance pool would spawn
    // SHARDS - 1 threads for each of them.
    for _ in 0..8 {
        decode_round(4);
    }
    let spawned = shard_threads_spawned_total() - before;
    assert!(
        spawned <= WORKERS * (SHARDS - 1),
        "a warm server must not spawn threads per utterance: {spawned} threads \
         for 32 utterances on {WORKERS} workers of {SHARDS} shards"
    );
    server.close();
}
