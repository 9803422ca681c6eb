//! Trace-completeness acceptance: under randomised mixed traffic — batch
//! decodes, finished streams, cancelled streams, and quota-rejected
//! admissions — every admitted trace must form a balanced span sequence:
//! it opens with exactly one `admitted` event, closes with exactly one
//! terminal (`finished` or `rejected`), carries strictly increasing
//! sequence numbers and monotone timestamps, and no span fact is recorded
//! outside a trace (none on the nil trace 0).

use lvcsr::corpus::{SyntheticTask, TaskConfig, TaskGenerator};
use lvcsr::decoder::{DecoderConfig, Recognizer};
use lvcsr::obs::{Fact, FieldValue, Telemetry};
use lvcsr::serve::{AsrServer, DecodeRequest, QueueScope, ServeConfig, ServeError};
use proptest::prelude::*;
use std::time::Duration;

fn build_task() -> SyntheticTask {
    TaskGenerator::new(27182)
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

/// The four stock backends the trace taxonomy must hold over.
fn backend(index: usize) -> DecoderConfig {
    match index % 4 {
        0 => DecoderConfig::software(),
        1 => DecoderConfig::simd(),
        2 => DecoderConfig::hardware(2),
        _ => DecoderConfig::sharded_hardware(4),
    }
}

fn str_field<'f>(fact: &'f Fact, name: &str) -> &'f str {
    fact.field(name)
        .and_then(FieldValue::as_str)
        .unwrap_or_else(|| panic!("span fact missing string field {name}: {fact:?}"))
}

fn u64_field(fact: &Fact, name: &str) -> u64 {
    fact.field(name)
        .and_then(FieldValue::as_u64)
        .unwrap_or_else(|| panic!("span fact missing u64 field {name}: {fact:?}"))
}

proptest! {
    /// Every admitted trace is balanced, on every backend × worker count,
    /// under decode, stream-finish, stream-cancel, and rejected traffic.
    #[test]
    fn every_trace_is_balanced_under_mixed_traffic(
        backend_index in 0usize..4,
        workers_index in 0usize..3,
        n_decodes in 1usize..4,
        n_over_quota in 2usize..4,
        chunk in 1usize..5,
        seed in 0u64..500,
    ) {
        let workers = [1usize, 2, 4][workers_index];
        let task = build_task();
        let (telemetry, sink) = Telemetry::to_memory();
        let server = AsrServer::spawn_observed(
            build_recognizer(&task, backend(backend_index)),
            ServeConfig::default()
                .workers(workers)
                // Deep shared queue: the only admissions that may bounce in
                // this scenario are the tenant burst's.
                .max_pending(4096)
                .max_batch(64)
                // A coalescing window long enough that the whole admission
                // burst lands while the first tenant-tagged request is still
                // queued — the quota then rejects the rest of its tenant's
                // burst deterministically.
                .max_batch_delay(Duration::from_millis(60))
                .tenant_quota(1),
            telemetry,
        )
        .expect("server");

        // Two stream sessions ride along with the batch traffic: one is
        // finished (worker-side Finished{completed}), one dropped mid-stream
        // (StreamCancel -> Finished{cancelled}).
        let finished_stream = server.open_stream().expect("open finished stream");
        let cancelled_stream = server.open_stream().expect("open cancelled stream");

        let futures: Vec<_> = (0..n_decodes)
            .map(|i| {
                let (features, _) = task.synthesize_utterance(1, 0.2, seed + i as u64);
                server.submit(features).expect("submit")
            })
            .collect();

        // A burst from one tenant against a quota of one: the first request
        // holds the quota from admission until its decode completes, so the
        // rest of the burst rejects at tenant scope.
        let mut tenant_accepted = Vec::new();
        let mut tenant_rejected = 0usize;
        let (noisy, _) = task.synthesize_utterance(1, 0.2, seed + 900);
        for _ in 0..n_over_quota {
            match server.submit(DecodeRequest::new(noisy.clone()).tenant("noisy")) {
                Ok(future) => tenant_accepted.push(future),
                Err(ServeError::QueueFull { scope, .. }) => {
                    prop_assert_eq!(scope, QueueScope::Tenant("noisy".into()));
                    tenant_rejected += 1;
                }
                Err(other) => panic!("unexpected admission error: {other}"),
            }
        }
        prop_assert!(tenant_rejected >= 1, "a 1-deep tenant quota must push back");

        let (stream_features, _) = task.synthesize_utterance(2, 0.2, seed + 1000);
        for feats in stream_features.chunks(chunk) {
            finished_stream.push_chunk(feats).expect("push finished");
            cancelled_stream.push_chunk(feats).expect("push cancelled");
        }
        let stream_future = finished_stream.finish().expect("finish stream");
        drop(cancelled_stream);

        for future in futures.into_iter().chain(tenant_accepted) {
            future.wait().expect("decode");
        }
        stream_future.wait().expect("stream decode");
        // Draining close: the dropped stream's cancel command is processed
        // before the workers exit.
        server.close();

        // Group the span facts by trace, preserving emission order.
        let facts = sink.facts();
        let mut traces: Vec<(u64, Vec<Fact>)> = Vec::new();
        for fact in facts.iter().filter(|f| f.kind == "span") {
            let trace = u64_field(fact, "trace");
            prop_assert!(trace != 0, "span fact on the nil trace: {:?}", fact);
            match traces.iter_mut().find(|(t, _)| *t == trace) {
                Some((_, events)) => events.push(fact.clone()),
                None => traces.push((trace, vec![fact.clone()])),
            }
        }

        // One trace per admission: plain decodes, the accepted + rejected
        // tenant burst, and both stream sessions.
        prop_assert_eq!(traces.len(), n_decodes + n_over_quota + 2);

        let mut rejected_traces = 0usize;
        let mut cancelled_traces = 0usize;
        for (trace, events) in &traces {
            prop_assert_eq!(
                str_field(&events[0], "event"), "admitted",
                "trace {} must open with admitted", trace
            );
            let terminals = events
                .iter()
                .filter(|f| matches!(str_field(f, "event"), "finished" | "rejected"))
                .count();
            prop_assert_eq!(terminals, 1, "trace {} must terminate exactly once", trace);
            let last = events.last().expect("non-empty trace");
            let last_event = str_field(last, "event");
            prop_assert!(
                matches!(last_event, "finished" | "rejected"),
                "trace {} must end on its terminal, ended on {}",
                trace,
                last_event
            );
            match last_event {
                "rejected" => {
                    prop_assert_eq!(str_field(last, "scope"), "tenant");
                    rejected_traces += 1;
                }
                _ if str_field(last, "outcome") == "cancelled" => cancelled_traces += 1,
                _ => {}
            }
            for pair in events.windows(2) {
                prop_assert!(
                    u64_field(&pair[0], "seq") < u64_field(&pair[1], "seq"),
                    "trace {} sequence numbers must strictly increase", trace
                );
                prop_assert!(
                    pair[0].ts_us <= pair[1].ts_us,
                    "trace {} timestamps must be monotone", trace
                );
            }
        }
        prop_assert_eq!(rejected_traces, tenant_rejected);
        prop_assert_eq!(cancelled_traces, 1, "the dropped stream must cancel");
    }
}

/// Two observed sharded servers in one process, each with its own sink:
/// each sink holds exactly its own admissions' traces, each balanced, and
/// every `shard_dispatch` a decode caused sits inside that decode, between
/// its trace's `decode_started` and `finished`.
#[test]
fn two_observed_servers_keep_their_traces_apart() {
    const DECODES: usize = 12;
    const WORKERS: usize = 2;
    const SHARDS: usize = 4;
    let task = build_task();
    let servers: Vec<_> = (0..2)
        .map(|_| {
            let (telemetry, sink) = Telemetry::to_memory();
            let server = AsrServer::spawn_observed(
                build_recognizer(&task, DecoderConfig::sharded_hardware(SHARDS)),
                ServeConfig::default().workers(WORKERS),
                telemetry,
            )
            .expect("server");
            (server, sink)
        })
        .collect();
    // Interleaved admissions, so both servers decode (and spawn) at once.
    let mut futures = Vec::new();
    for seed in 0..DECODES as u64 {
        let (features, _) = task.synthesize_utterance(1, 0.2, seed);
        for (server, _) in &servers {
            futures.push(server.submit(features.clone()).expect("submit"));
        }
    }
    for future in futures {
        future.wait().expect("decode");
    }
    let parallel_host = std::thread::available_parallelism().map_or(1, |n| n.get()) > 1;
    for (server, sink) in servers {
        server.close();
        let mut traces: Vec<(u64, Vec<Fact>)> = Vec::new();
        for fact in sink.facts().into_iter().filter(|f| f.kind == "span") {
            let trace = u64_field(&fact, "trace");
            assert_ne!(trace, 0, "span fact on the nil trace: {fact:?}");
            match traces.iter_mut().find(|(t, _)| *t == trace) {
                Some((_, events)) => events.push(fact),
                None => traces.push((trace, vec![fact])),
            }
        }
        assert_eq!(traces.len(), DECODES, "one trace per own admission");
        let mut spawned = 0;
        for (trace, events) in &traces {
            let names: Vec<&str> = events.iter().map(|f| str_field(f, "event")).collect();
            let position = |name: &str| {
                let at: Vec<usize> = (0..names.len()).filter(|&i| names[i] == name).collect();
                assert_eq!(at.len(), 1, "trace {trace} must have one {name}: {names:?}");
                at[0]
            };
            assert_eq!(position("admitted"), 0, "trace {trace}: {names:?}");
            assert_eq!(
                position("finished"),
                names.len() - 1,
                "trace {trace}: {names:?}"
            );
            let started = position("decode_started");
            for (i, fact) in events.iter().enumerate() {
                if names[i] == "shard_dispatch" {
                    assert!(
                        started < i,
                        "trace {trace}: dispatch outside its decode: {names:?}"
                    );
                    spawned += u64_field(fact, "threads");
                }
            }
        }
        assert!(
            spawned <= (WORKERS * (SHARDS - 1)) as u64,
            "{spawned} threads spawned by {WORKERS} workers of {SHARDS} shards"
        );
        if parallel_host {
            assert!(spawned > 0, "each server's shard pools report their spawns");
        }
    }
}
