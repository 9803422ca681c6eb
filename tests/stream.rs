//! Streaming integration tests: the central invariant of the streaming
//! subsystem is that **chunking is invisible** — feeding an utterance's
//! feature frames through a streaming session in chunks of any size produces
//! the identical hypothesis, score and statistics as the offline
//! `decode_features` on the concatenated input, on every backend; and the
//! partial hypotheses surfaced between chunks are prefix-consistent with
//! monotone frame counts.

use lvcsr::corpus::{SyntheticTask, TaskConfig, TaskGenerator};
use lvcsr::decoder::{
    DecodeResult, DecodeSession, DecoderConfig, PartialHypothesis, Recognizer, ScoringBackendKind,
};
use lvcsr::stream::{AdaptiveVadConfig, StreamEvent, StreamingRecognizer, VadConfig};
use proptest::prelude::*;

fn build_task() -> SyntheticTask {
    TaskGenerator::new(4242)
        .generate(&TaskConfig::tiny())
        .expect("task")
}

fn build_recognizer(task: &SyntheticTask, backend: ScoringBackendKind) -> Recognizer {
    Recognizer::new(
        task.acoustic_model.clone(),
        task.dictionary.clone(),
        task.language_model.clone(),
        DecoderConfig {
            backend,
            ..DecoderConfig::default()
        },
    )
    .expect("recogniser")
}

fn backend(index: usize) -> ScoringBackendKind {
    match index % 4 {
        0 => ScoringBackendKind::Software,
        1 => ScoringBackendKind::Simd,
        2 => ScoringBackendKind::Hardware(lvcsr::hw::SocConfig::default()),
        _ => ScoringBackendKind::Sharded {
            shards: 2,
            inner: Box::new(ScoringBackendKind::Hardware(lvcsr::hw::SocConfig::default())),
        },
    }
}

/// The decode surface that must not change under chunking: both hypotheses,
/// the live score, the statistics, the lattice shape and the hardware work
/// counters.
type Fingerprint = (
    Vec<u32>,
    Vec<u32>,
    f32,
    usize,
    u64,
    usize,
    Option<(usize, u64)>,
);

fn fingerprint(r: &DecodeResult) -> Fingerprint {
    (
        r.hypothesis.words.iter().map(|w| w.0).collect(),
        r.live_hypothesis.words.iter().map(|w| w.0).collect(),
        r.best_score.raw(),
        r.stats.num_frames(),
        r.stats.total_senones_scored(),
        r.lattice.len(),
        r.hardware.as_ref().map(|h| (h.frames, h.senones_scored)),
    )
}

proptest! {
    /// The acceptance property: for chunk sizes 1, 3, 7 and whole-utterance,
    /// on every backend (software / simd / soc / sharded), a streaming
    /// session equals the offline decode, and its partials are
    /// prefix-consistent with monotone frame counts.
    #[test]
    fn streaming_equals_offline_on_every_backend_and_chunking(
        backend_index in 0usize..4,
        chunk_index in 0usize..4,
        words in 1usize..4,
        seed in 0u64..300,
    ) {
        let task = build_task();
        let rec = build_recognizer(&task, backend(backend_index));
        let (features, _) = task.synthesize_utterance(words, 0.2, seed);
        let chunk = [1usize, 3, 7, features.len()][chunk_index].max(1);

        let offline = rec.decode_features(&features).expect("offline decode");

        let decoder = rec.phone_decoder().expect("decoder");
        let mut session = DecodeSession::begin(&rec, decoder);
        let mut previous = PartialHypothesis::default();
        for piece in features.chunks(chunk) {
            session.push_chunk(piece).expect("chunk decodes");
            let partial = session.partial();
            // Monotone frame counts…
            prop_assert!(partial.frames > previous.frames);
            prop_assert_eq!(partial.frames, session.frames());
            // …and prefix-consistent words.
            prop_assert!(
                partial.words.starts_with(&previous.words),
                "partial {:?} must extend {:?}",
                partial.words,
                previous.words
            );
            previous = partial;
        }
        let streamed = session.finish().0.expect("finish");
        prop_assert_eq!(fingerprint(&streamed), fingerprint(&offline));
    }
}

/// The serve-layer stream sessions obey the same equality, across backends.
#[test]
fn serve_stream_sessions_equal_offline_on_every_backend() {
    let task = build_task();
    let (features, reference) = task.synthesize_utterance(2, 0.2, 77);
    for backend_index in 0..4 {
        let offline = build_recognizer(&task, backend(backend_index))
            .decode_features(&features)
            .expect("offline");
        let server = lvcsr::serve::AsrServer::spawn(
            build_recognizer(&task, backend(backend_index)),
            lvcsr::serve::ServeConfig::default(),
        )
        .expect("server");
        let handle = server.open_stream().expect("stream");
        for chunk in features.chunks(5) {
            handle.push_chunk(chunk).expect("push");
        }
        let result = handle.finish().expect("finish").wait().expect("decode");
        assert_eq!(
            fingerprint(&result),
            fingerprint(&offline),
            "backend {backend_index}"
        );
        assert_eq!(result.hypothesis.words, reference);
        server.close();
    }
}

/// An audio streamer on a 13-dim task: the statics-only frontend matches
/// it, and each 10 ms hop (and the endpoint tail) carries at most one
/// feature frame.
fn audio_streamer(backend: ScoringBackendKind, vad: VadConfig) -> StreamingRecognizer {
    let task = TaskGenerator::new(99)
        .generate(&TaskConfig {
            feature_dim: 13,
            ..TaskConfig::tiny()
        })
        .expect("task");
    StreamingRecognizer::new(
        build_recognizer(&task, backend),
        lvcsr::stream::StreamConfig {
            frontend: lvcsr::frontend::FrontendConfig {
                use_delta: false,
                use_delta_delta: false,
                ..lvcsr::frontend::FrontendConfig::default()
            },
            vad,
            ..lvcsr::stream::StreamConfig::default()
        },
    )
    .expect("streamer")
}

/// An audio session's latency record covers its utterance exactly, on every
/// backend: one timed chunk per non-empty feature push — with a statics-only
/// frontend each push is one hop of at most one frame, so that is one chunk
/// per decoded frame — and the audio those pushes carried, frames × the
/// 10 ms frame shift.  Hardware backends report the same frames.
#[test]
fn audio_session_timing_covers_every_feature_push_on_every_backend() {
    let mut audio = vec![0.0f32; 3_200];
    audio.extend((0..4_800).map(|n| 0.5 * (n as f32 * 0.17).sin()));
    audio.extend(vec![0.0f32; 8_000]);
    for backend_index in 0..4 {
        let streamer = audio_streamer(backend(backend_index), VadConfig::default());
        let mut session = streamer.audio_session().expect("audio session");
        let mut ended = Vec::new();
        for chunk in audio.chunks(777) {
            for event in session.push_audio(chunk).expect("push") {
                if let StreamEvent::UtteranceEnd(outcome) = event {
                    ended.push(outcome);
                }
            }
        }
        assert_eq!(ended.len(), 1, "backend {backend_index}");
        let outcome = &ended[0];
        let frames = outcome.result.stats.num_frames();
        assert!(frames > 10, "backend {backend_index}");
        assert_eq!(outcome.timing.chunks(), frames, "backend {backend_index}");
        let audio_s = outcome.timing.audio_seconds();
        assert!(
            (audio_s - frames as f64 * 0.010).abs() < 1e-9,
            "backend {backend_index}: {audio_s} s for {frames} frames"
        );
        // The SoC and sharded backends report the same frames in hardware.
        let hw = outcome.result.hardware.as_ref();
        assert_eq!(hw.is_some(), backend_index >= 2, "backend {backend_index}");
        if let Some(hw) = hw {
            assert_eq!(hw.frames, frames, "backend {backend_index}");
        }
    }
}

/// A continuous-audio session over silence only: the VAD never opens an
/// utterance and close() is the typed empty result — not an error.
#[test]
fn silent_audio_session_closes_empty() {
    let streamer = audio_streamer(ScoringBackendKind::Software, VadConfig::default());
    let mut session = streamer.audio_session().expect("audio session");
    let events = session.push_audio(&vec![0.0f32; 16_000]).expect("push");
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, StreamEvent::UtteranceStarted)),
        "silence must not trigger the VAD"
    );
    let outcome = session.close().expect("close");
    assert!(outcome.result.is_empty());
    assert_eq!(outcome.result.hypothesis.words.len(), 0);
}

/// Hostile audio at the session boundary: bursts of NaN, ±Inf, denormal
/// (1e-40) and huge (1e30) samples, in chunks of 0, 1, 159 and 161
/// samples, through an adaptive-VAD audio session.  Nothing may panic or
/// error, the adaptive threshold must stay finite inside its clamps, and
/// clean speech afterwards must still open and end an utterance.
#[test]
fn hostile_audio_neither_breaks_the_session_nor_deafens_it() {
    let vad = VadConfig::adaptive();
    let streamer = audio_streamer(ScoringBackendKind::Software, vad);
    let mut session = streamer.audio_session().expect("audio session");
    let check_threshold = |threshold: f32, label: &str| {
        assert!(
            (AdaptiveVadConfig::MIN_THRESHOLD..=AdaptiveVadConfig::MAX_THRESHOLD)
                .contains(&threshold),
            "{label}: threshold {threshold} left [{}, {}]",
            AdaptiveVadConfig::MIN_THRESHOLD,
            AdaptiveVadConfig::MAX_THRESHOLD
        );
    };

    let hostile = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        1e-40,
        1e30,
        -1e30,
    ];
    let chunk_sizes = [0usize, 1, 159, 161];
    let mut events = Vec::new();
    for (i, &value) in hostile.iter().enumerate() {
        // A burst of 40 hops of the hostile value, alternating its sign
        // sample by sample, in every chunk size.
        let burst: Vec<f32> = (0..40 * 160)
            .map(|n| if n % 2 == 0 { value } else { -value })
            .collect();
        let mut pos = 0;
        let mut k = 0;
        while pos < burst.len() {
            let take = chunk_sizes[(i + k) % chunk_sizes.len()].min(burst.len() - pos);
            let pushed = session.push_audio(&burst[pos..pos + take]);
            events.extend(pushed.unwrap_or_else(|e| panic!("burst of {value}: {e}")));
            check_threshold(session.vad_threshold(), &format!("burst of {value}"));
            pos += take;
            k += 1;
        }
        // A 2 s gap of quiet noise between bursts, in odd chunks.
        let gap: Vec<f32> = (0..32_000)
            .map(|n| 0.001 * ((n * 7919 % 200) as f32 / 100.0 - 1.0))
            .collect();
        for chunk in gap.chunks(161) {
            events.extend(session.push_audio(chunk).expect("quiet gap"));
            check_threshold(session.vad_threshold(), "quiet gap");
        }
    }
    assert!(
        !session.in_utterance(),
        "2 s of quiet closes whatever a burst opened"
    );

    // Clean speech: a 400 ms two-tone burst at speech level, then 1 s of
    // silence, in 159-sample chunks.
    let mut speech: Vec<f32> = (0..6_400)
        .map(|n| {
            let t = n as f32 / 16_000.0;
            0.2 * (2.0 * std::f32::consts::PI * 440.0 * t).sin()
                + 0.1 * (2.0 * std::f32::consts::PI * 1320.0 * t).sin()
        })
        .collect();
    speech.extend(vec![0.0f32; 16_000]);
    let mut after = Vec::new();
    for chunk in speech.chunks(159) {
        after.extend(session.push_audio(chunk).expect("clean speech"));
        check_threshold(session.vad_threshold(), "clean speech");
    }
    assert!(
        matches!(after.first(), Some(StreamEvent::UtteranceStarted)),
        "clean speech must open an utterance: {after:?}"
    );
    assert!(
        after
            .iter()
            .any(|e| matches!(e, StreamEvent::UtteranceEnd(_))),
        "and end it after the hangover: {after:?}"
    );
    assert!(!session.in_utterance());
    session.close().expect("close");
}
