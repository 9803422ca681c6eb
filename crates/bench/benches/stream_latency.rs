//! Streaming latency bench: the same 32-utterance workload decoded (a)
//! offline through `decode_batch` (one warmed decoder, whole utterances) and
//! (b) through `DecodeSession`s fed 5-frame chunks, each push timed into a
//! `StreamTiming` and followed by a partial-hypothesis read as a streaming
//! caller does, with the decoder recycled across sessions so both paths
//! amortise the backend's model caches identically — the measured
//! difference is the price of incremental operation itself.
//!
//! The `bench_gate` acceptance check reads both: streaming must stay within
//! 15 % of the offline path's throughput (the stream-vs-offline RTF overhead
//! bound), or chunked operation has stopped being free.  The bench also
//! records `stream_latency/p50_chunk_seconds` — the median per-chunk
//! processing latency of a streamed run — which the gate tracks under the
//! ordinary regression rule.

use asr_bench::experiments::{batch_bench_task, recognizer};
use asr_core::{DecodeSession, DecoderConfig, PhoneDecoder, Recognizer};
use asr_corpus::{ScenarioGenerator, ScenarioKind, ScenarioVoiceTask};
use asr_hw::StreamTiming;
use asr_stream::{AdaptiveVadConfig, StreamConfig, StreamingRecognizer, VadConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::{Duration, Instant};

/// Frames per streamed chunk: 5 frames = 50 ms of audio per push, a typical
/// interactive packet size.
const CHUNK_FRAMES: usize = 5;

/// Audio covered by one feature frame (the default 10 ms frame shift).
const FRAME_SHIFT_S: f64 = 0.010;

/// Streams one utterance through a decode session on `decoder` in
/// `CHUNK_FRAMES` chunks, timing each push into `timing` and reading the
/// partial after it; returns the words decoded and the decoder.
fn stream_utterance(
    rec: &Recognizer,
    decoder: PhoneDecoder,
    features: &[Vec<f32>],
    timing: &mut StreamTiming,
) -> (usize, PhoneDecoder) {
    let mut session = DecodeSession::begin(rec, decoder);
    for chunk in features.chunks(CHUNK_FRAMES) {
        let start = Instant::now();
        session.push_chunk(chunk).expect("chunk decodes");
        timing.record_chunk(
            start.elapsed().as_secs_f64(),
            chunk.len() as f64 * FRAME_SHIFT_S,
        );
        std::hint::black_box(session.partial());
    }
    let (result, decoder) = session.finish();
    (result.expect("finish").hypothesis.words.len(), decoder)
}

fn bench_stream_latency(c: &mut Criterion) {
    let task = batch_bench_task(17);
    let utterances: Vec<Vec<Vec<f32>>> = (0..32)
        .map(|i| task.synthesize_utterance(1, 0.3, 300 + i as u64).0)
        .collect();

    let mut group = c.benchmark_group("stream_latency");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    let offline = recognizer(&task, DecoderConfig::simd()).expect("recogniser");
    group.bench_function("offline_32", |b| {
        b.iter(|| offline.decode_batch(&utterances).expect("decode").len())
    });

    group.bench_function("stream_32", |b| {
        b.iter(|| {
            let mut decoder = offline.phone_decoder().expect("decoder builds");
            let mut words = 0usize;
            for features in &utterances {
                let mut timing = StreamTiming::new();
                let (decoded, recycled) =
                    stream_utterance(&offline, decoder, features, &mut timing);
                words += decoded;
                decoder = recycled;
            }
            words
        })
    });
    group.finish();

    record_p50_chunk_latency(&offline, &utterances);
}

/// Adversarial audio streaming: the full VAD → frontend → decoder path over a
/// scenario whose noise floor ramps an order of magnitude, endpointed by the
/// adaptive tracker.  Measures the cost of continuous-listening operation —
/// every hop pays RMS tracking and the percentile floor even when no
/// utterance is open — on the same 15 % gate as the plain streaming path.
fn bench_stream_adversarial(c: &mut Criterion) {
    let task = ScenarioVoiceTask::train(11).expect("scenario task trains");
    let scenario = ScenarioGenerator::new(&task.dictionary, 17).generate(ScenarioKind::NoiseRampUp);
    let streamer = StreamingRecognizer::new(
        Recognizer::new(
            task.acoustic_model.clone(),
            task.dictionary.clone(),
            task.language_model.clone(),
            DecoderConfig::simd(),
        )
        .expect("recogniser"),
        StreamConfig {
            frontend: ScenarioVoiceTask::frontend_config(),
            vad: VadConfig {
                adaptive: Some(AdaptiveVadConfig),
                ..VadConfig::default()
            },
            ..StreamConfig::default()
        },
    )
    .expect("streamer");

    let mut group = c.benchmark_group("stream_adversarial");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    // 480-sample chunks: 30 ms packets, three VAD hops per push.
    group.bench_function("noise_ramp_session", |b| {
        b.iter(|| {
            let mut session = streamer.audio_session().expect("session");
            let mut utterances = 0usize;
            for chunk in scenario.samples.chunks(480) {
                for event in session.push_audio(chunk).expect("push") {
                    if matches!(
                        event,
                        asr_stream::StreamEvent::UtteranceEnd(_)
                            | asr_stream::StreamEvent::UtteranceForceEnded(_)
                    ) {
                        utterances += 1;
                    }
                }
            }
            session.close().expect("close");
            utterances
        })
    });
    group.finish();
}

/// Measures one representative streamed pass and records the median per-chunk
/// latency into the `LVCSR_BENCH_JSON` document as
/// `stream_latency/p50_chunk_seconds`.
fn record_p50_chunk_latency(rec: &Recognizer, utterances: &[Vec<Vec<f32>>]) {
    let path = match std::env::var("LVCSR_BENCH_JSON") {
        Ok(p) if !p.is_empty() => p,
        _ => return,
    };
    let mut timing = StreamTiming::new();
    for features in utterances {
        let decoder = rec.phone_decoder().expect("decoder builds");
        stream_utterance(rec, decoder, features, &mut timing);
    }
    if let Err(e) = asr_bench::bench_json::record_entry(
        &path,
        "stream_latency/p50_chunk_seconds",
        timing.p50_latency_s(),
    ) {
        eprintln!("warning: could not record p50 chunk latency in {path}: {e}");
    }
}

criterion_group!(benches, bench_stream_latency, bench_stream_adversarial);
criterion_main!(benches);
