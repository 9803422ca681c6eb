//! Adversarial-scenario streaming tests: every labelled stream the
//! [`ScenarioGenerator`] produces — noise ramps, clipping, far-field gain,
//! back-to-back utterances, long sessions — is driven through the full
//! audio-streaming stack (`StreamingFrontend` → `EnergyVad` → incremental
//! decode) on every scoring backend and several chunk sizes, and checked
//! against the scenario's ground truth:
//!
//! * **utterance count and boundaries** — detected endpoints sit within the
//!   scenario's slack of the labelled spans (merged per the configured
//!   hangover);
//! * **offline parity** — each endpointed utterance's captured feature
//!   frames replay through `decode_features` to the identical result;
//! * **chunking invisibility** — the decode surface is byte-identical across
//!   audio chunk sizes;
//! * **frame accounting** — every feature frame the frontend emitted lands
//!   in exactly one finished utterance (zero loss, also under forced
//!   endpoints) or is explicitly discarded by a barge-in cancel;
//! * **state-machine invariants** — `UtteranceStarted` strictly alternates
//!   with the end events, pre-roll stays bounded, and `EnergyVad::reset`
//!   returns the exact initial state.

use lvcsr::corpus::{
    AudioSynthesizer, Scenario, ScenarioGenerator, ScenarioKind, ScenarioVoiceTask,
};
use lvcsr::decoder::{DecodeResult, DecoderConfig, Recognizer, ScoringBackendKind};
use lvcsr::frontend::Frontend;
use lvcsr::lexicon::WordId;
use lvcsr::stream::{
    AdaptiveVadConfig, EnergyVad, StreamConfig, StreamEvent, StreamOutcome, StreamingRecognizer,
    VadConfig, VadEvent,
};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Samples per VAD hop at the default 16 kHz / 10 ms frontend geometry.
const HOP: usize = 160;
const MIN_SPEECH: usize = 2;
const HANGOVER: usize = 5;
const PREROLL: usize = 2;
/// The generator seed every test shares, so failures name one fixed corpus.
const CORPUS_SEED: u64 = 17;

/// The audio-trained voice task is expensive to fit; train it once for the
/// whole test binary.
fn voice_task() -> &'static ScenarioVoiceTask {
    static TASK: OnceLock<ScenarioVoiceTask> = OnceLock::new();
    TASK.get_or_init(|| ScenarioVoiceTask::train(11).expect("voice task trains"))
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

fn recognizer(backend_index: usize) -> Recognizer {
    let task = voice_task();
    Recognizer::new(
        task.acoustic_model.clone(),
        task.dictionary.clone(),
        task.language_model.clone(),
        DecoderConfig {
            backend: backend(backend_index),
            ..DecoderConfig::default()
        },
    )
    .expect("recogniser")
}

/// The endpointing configuration the whole scenario matrix runs under:
/// adaptive noise-floor tracking over the voice task's frontend, capturing
/// features so every utterance carries its own parity oracle.
fn stream_config() -> StreamConfig {
    StreamConfig {
        frontend: ScenarioVoiceTask::frontend_config(),
        vad: VadConfig {
            energy_threshold: 0.05,
            min_speech_hops: MIN_SPEECH,
            hangover_hops: HANGOVER,
            preroll_hops: PREROLL,
            adaptive: Some(AdaptiveVadConfig),
        },
        max_utterance_frames: None,
        capture_features: true,
    }
}

/// The decode surface that must match offline and be identical across
/// chunkings (mirrors `tests/stream.rs`).
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

/// Everything one streamed scenario run produced, with the state-machine
/// invariants asserted along the way.
struct Run {
    outcomes: Vec<StreamOutcome>,
    /// Hop index (10 ms units into the stream) at which each utterance
    /// opened / closed.
    started_hops: Vec<usize>,
    ended_hops: Vec<usize>,
    forced: usize,
    features_emitted: usize,
    frames_discarded: usize,
}

/// Streams `samples` through a fresh audio session in `chunk_hops`-hop
/// chunks, asserting event alternation and the pre-roll bound at every step.
/// The stream must end endpointed (scenarios close in silence).
fn run_stream(streamer: &StreamingRecognizer, samples: &[f32], chunk_hops: usize) -> Run {
    let mut session = streamer.audio_session().expect("audio session");
    let preroll_cap = streamer.config().vad.preroll_hops + streamer.config().vad.min_speech_hops;
    let mut run = Run {
        outcomes: Vec::new(),
        started_hops: Vec::new(),
        ended_hops: Vec::new(),
        forced: 0,
        features_emitted: 0,
        frames_discarded: 0,
    };
    let mut open = false;
    let mut hops = 0usize;
    for chunk in samples.chunks(chunk_hops * HOP) {
        let events = session.push_audio(chunk).expect("push");
        hops += chunk.len() / HOP;
        for event in events {
            match event {
                StreamEvent::UtteranceStarted => {
                    assert!(!open, "start events must alternate with end events");
                    open = true;
                    run.started_hops.push(hops);
                }
                StreamEvent::Partial(_) => {
                    assert!(open, "partials only surface inside an utterance")
                }
                StreamEvent::UtteranceEnd(outcome) => {
                    assert!(open, "an end event needs an open utterance");
                    open = false;
                    run.ended_hops.push(hops);
                    run.outcomes.push(*outcome);
                }
                StreamEvent::UtteranceForceEnded(outcome) => {
                    assert!(open, "a forced end needs an open utterance");
                    open = false;
                    run.forced += 1;
                    run.ended_hops.push(hops);
                    run.outcomes.push(*outcome);
                }
            }
        }
        assert_eq!(open, session.in_utterance(), "event log vs session state");
        assert!(
            session.preroll_buffered() <= preroll_cap,
            "pre-roll must stay bounded"
        );
    }
    assert!(
        !session.in_utterance(),
        "every scenario ends in silence long past the hangover"
    );
    run.features_emitted = session.features_emitted();
    run.frames_discarded = session.frames_discarded();
    let last = session.close().expect("close");
    assert!(last.result.is_empty(), "nothing was left open");
    run
}

/// Boundary + count + zero-loss assertions of one run against the labels.
fn check_against_labels(scenario: &Scenario, run: &Run, chunk_hops: usize) {
    let label = format!("{} (chunk {chunk_hops})", scenario.kind.name());
    let expected = scenario.expected_utterances(HANGOVER * HOP);
    assert_eq!(
        run.outcomes.len(),
        expected.len(),
        "{label}: utterance count (started at hops {:?})",
        run.started_hops
    );
    assert_eq!(run.forced, 0, "{label}: no frame limit is configured");
    // Slack in hops: the scenario's own tolerance, plus event granularity
    // (events surface at chunk boundaries) and one hop of rounding.
    let slack = (scenario.boundary_slack_s * 100.0).ceil() as usize + chunk_hops + 1;
    for (i, span) in expected.iter().enumerate() {
        // Detection lags onset by the debounce and trails the span's end by
        // the hangover; both by construction of the endpointer.
        let start_expected = span.onset_sample / HOP + MIN_SPEECH;
        let end_expected = span.end_sample / HOP + HANGOVER;
        assert!(
            run.started_hops[i].abs_diff(start_expected) <= slack,
            "{label}: utterance {i} \"{}\" started at hop {} vs labelled {start_expected} ± {slack}",
            span.text.join(" "),
            run.started_hops[i]
        );
        assert!(
            run.ended_hops[i].abs_diff(end_expected) <= slack,
            "{label}: utterance {i} \"{}\" ended at hop {} vs labelled {end_expected} ± {slack}",
            span.text.join(" "),
            run.ended_hops[i]
        );
    }
    // Zero-loss ledger: every frame the frontend emitted is in exactly one
    // finished utterance.
    let decoded: usize = run
        .outcomes
        .iter()
        .map(|o| o.result.stats.num_frames())
        .sum();
    assert_eq!(run.frames_discarded, 0, "{label}");
    assert_eq!(run.features_emitted, decoded, "{label}: frame ledger");
}

/// Offline-parity: each utterance's captured frames replay to the identical
/// decode on the same backend.
fn check_offline_parity(offline: &Recognizer, run: &Run, label: &str) {
    for (i, outcome) in run.outcomes.iter().enumerate() {
        let captured = outcome
            .features
            .as_ref()
            .expect("capture_features is on for scenario runs");
        assert_eq!(
            captured.len(),
            outcome.result.stats.num_frames(),
            "{label}: utterance {i} captured frames"
        );
        let replayed = offline.decode_features(captured).expect("offline decode");
        assert_eq!(
            fingerprint(&outcome.result),
            fingerprint(&replayed),
            "{label}: utterance {i} must equal its offline replay"
        );
    }
}

/// The acceptance matrix for one backend: every scenario × chunk sizes
/// {1, 3, 7} hops, with parity checked once and fingerprints identical
/// across chunkings.
fn scenario_matrix(backend_index: usize) {
    let task = voice_task();
    let generator = ScenarioGenerator::new(&task.dictionary, CORPUS_SEED);
    let streamer =
        StreamingRecognizer::new(recognizer(backend_index), stream_config()).expect("streamer");
    let offline = recognizer(backend_index);
    for scenario in generator.all() {
        let mut per_chunk: Vec<Vec<Fingerprint>> = Vec::new();
        for chunk_hops in [1usize, 3, 7] {
            let run = run_stream(&streamer, &scenario.samples, chunk_hops);
            check_against_labels(&scenario, &run, chunk_hops);
            if chunk_hops == 1 {
                check_offline_parity(
                    &offline,
                    &run,
                    &format!("backend {backend_index} {}", scenario.kind.name()),
                );
            }
            per_chunk.push(
                run.outcomes
                    .iter()
                    .map(|o| fingerprint(&o.result))
                    .collect(),
            );
        }
        // Audio chunking is invisible: identical utterances at every size
        // (parity therefore transfers from the chunk-1 check to all sizes).
        assert_eq!(per_chunk[0], per_chunk[1], "{}", scenario.kind.name());
        assert_eq!(per_chunk[0], per_chunk[2], "{}", scenario.kind.name());

        // The clean long session must also *transcribe*: a majority of its
        // single-command utterances decode to the exact spoken word.
        if scenario.kind == ScenarioKind::LongSession {
            let expected = scenario.expected_utterances(HANGOVER * HOP);
            let exact = per_chunk[0]
                .iter()
                .zip(&expected)
                .filter(|(fp, span)| fp.0 == span.words.iter().map(|w| w.0).collect::<Vec<_>>())
                .count();
            assert!(
                2 * exact >= expected.len(),
                "backend {backend_index}: only {exact}/{} long-session commands transcribed",
                expected.len()
            );
        }
    }
}

#[test]
fn scenario_matrix_on_the_software_backend() {
    scenario_matrix(0);
}

#[test]
fn scenario_matrix_on_the_simd_backend() {
    scenario_matrix(1);
}

#[test]
fn scenario_matrix_on_the_soc_backend() {
    scenario_matrix(2);
}

#[test]
fn scenario_matrix_on_the_sharded_backend() {
    scenario_matrix(3);
}

/// Utterance segmentation is a property of the frontend + VAD alone: frame
/// counts per utterance are identical on every backend.
#[test]
fn segmentation_is_backend_independent() {
    let task = voice_task();
    let generator = ScenarioGenerator::new(&task.dictionary, CORPUS_SEED);
    for kind in [ScenarioKind::BackToBack, ScenarioKind::LongSession] {
        let scenario = generator.generate(kind);
        let mut reference: Option<Vec<usize>> = None;
        for backend_index in 0..4 {
            let streamer = StreamingRecognizer::new(recognizer(backend_index), stream_config())
                .expect("streamer");
            let run = run_stream(&streamer, &scenario.samples, 7);
            let frames: Vec<usize> = run
                .outcomes
                .iter()
                .map(|o| o.result.stats.num_frames())
                .collect();
            match &reference {
                None => reference = Some(frames),
                Some(expected) => {
                    assert_eq!(&frames, expected, "{} backend {backend_index}", kind.name())
                }
            }
        }
    }
}

/// The tentpole contrast: a fixed threshold *under* the rising noise floor
/// hallucinates speech in the pure-noise tail, while the adaptive tracker
/// rides the ramp and reports exactly the labelled utterances.
#[test]
fn fixed_threshold_floods_on_a_noise_ramp_and_adaptive_does_not() {
    let task = voice_task();
    let generator = ScenarioGenerator::new(&task.dictionary, CORPUS_SEED);
    let scenario = generator.generate(ScenarioKind::NoiseRampUp);
    let expected = scenario.expected_utterances(HANGOVER * HOP).len();

    // Fixed 0.008 threshold: plausible for the stream's start (noise RMS
    // ≈ 0.001) but under its end (≈ 0.012).
    let fixed = StreamConfig {
        vad: VadConfig {
            energy_threshold: 0.008,
            adaptive: None,
            ..stream_config().vad
        },
        ..stream_config()
    };
    let streamer = StreamingRecognizer::new(recognizer(0), fixed).expect("streamer");
    let mut session = streamer.audio_session().expect("session");
    let mut started = 0usize;
    for chunk in scenario.samples.chunks(7 * HOP) {
        for event in session.push_audio(chunk).expect("push") {
            if matches!(event, StreamEvent::UtteranceStarted) {
                started += 1;
            }
        }
    }
    // The labels say the tail is noise; the fixed threshold calls it speech.
    assert!(
        started > expected || session.in_utterance(),
        "fixed threshold was expected to flood: {started} starts vs {expected} labelled, \
         in_utterance={}",
        session.in_utterance()
    );
    session.close().expect("close");

    // Same stream, adaptive tracker: exactly the labels (the matrix pins the
    // boundaries too; here the point is the side-by-side contrast).
    let streamer = StreamingRecognizer::new(recognizer(0), stream_config()).expect("streamer");
    let run = run_stream(&streamer, &scenario.samples, 7);
    assert_eq!(run.outcomes.len(), expected);
}

/// Forced endpoints on a real scenario: every utterance over the frame
/// budget is split, nothing is lost, every piece replays to offline parity,
/// and the natural utterance count is preserved.
#[test]
fn forced_endpoints_preserve_every_frame_of_a_scenario_stream() {
    let task = voice_task();
    let generator = ScenarioGenerator::new(&task.dictionary, CORPUS_SEED);
    let scenario = generator.generate(ScenarioKind::LongSession);
    let expected = scenario.expected_utterances(HANGOVER * HOP);
    let config = StreamConfig {
        max_utterance_frames: Some(25),
        ..stream_config()
    };
    // The SoC backend, so the hardware work counters ride through the splits.
    let streamer = StreamingRecognizer::new(recognizer(2), config).expect("streamer");
    let run = run_stream(&streamer, &scenario.samples, 3);

    // Each ~40-frame command splits at least once at a 25-frame budget…
    assert!(
        run.forced >= expected.len(),
        "{} forced cuts across {} utterances",
        run.forced,
        expected.len()
    );
    // …while every true utterance still closes naturally at its end.
    assert_eq!(run.outcomes.len() - run.forced, expected.len());
    for outcome in &run.outcomes {
        assert!(outcome.result.stats.num_frames() <= 25 + MIN_SPEECH + HANGOVER + PREROLL);
    }
    // Zero-loss ledger and per-piece parity.
    let decoded: usize = run
        .outcomes
        .iter()
        .map(|o| o.result.stats.num_frames())
        .sum();
    assert_eq!(run.frames_discarded, 0);
    assert_eq!(run.features_emitted, decoded);
    check_offline_parity(&recognizer(2), &run, "forced long_session");
}

/// Barge-in mid-scenario: cancel discards exactly what was in flight, the
/// session re-arms, and the rest of the stream endpoints normally with the
/// frame ledger intact.
#[test]
fn barge_in_cancel_recovers_mid_scenario() {
    let task = voice_task();
    let generator = ScenarioGenerator::new(&task.dictionary, CORPUS_SEED);
    let scenario = generator.generate(ScenarioKind::BackToBack);
    let streamer = StreamingRecognizer::new(recognizer(1), stream_config()).expect("streamer");
    let mut session = streamer.audio_session().expect("session");

    // Push hop by hop until the first utterance opens, then barge in.
    let mut fed = 0usize;
    for chunk in scenario.samples.chunks(HOP) {
        session.push_audio(chunk).expect("push");
        fed += chunk.len();
        if session.in_utterance() {
            break;
        }
    }
    assert!(session.in_utterance(), "the first utterance must open");
    let discarded = session.cancel().expect("an utterance was in flight");
    assert!(discarded > 0);
    assert_eq!(session.frames_discarded(), discarded);
    assert_eq!(session.utterances_cancelled(), 1);
    assert!(!session.in_utterance());
    // Cancelling twice is a no-op.
    assert_eq!(session.cancel(), None);

    // The rest of the stream: the interrupted merged utterance re-triggers
    // as one, then the genuinely separate third command.
    let mut finished: Vec<StreamOutcome> = Vec::new();
    for chunk in scenario.samples[fed..].chunks(3 * HOP) {
        for event in session.push_audio(chunk).expect("push") {
            if let StreamEvent::UtteranceEnd(outcome) = event {
                finished.push(*outcome);
            }
        }
    }
    assert_eq!(finished.len(), 2, "remainder + third command");
    assert!(!session.in_utterance());
    let decoded: usize = finished.iter().map(|o| o.result.stats.num_frames()).sum();
    assert_eq!(
        session.features_emitted(),
        session.frames_discarded() + decoded,
        "every emitted frame is either decoded or explicitly discarded"
    );
    session.close().expect("close");
}

/// Satellite: degenerate streams end-to-end through the serve layer — a
/// zero-voiced (pure silence) stream and the all-clipped scenario both
/// complete through `AsrServer::open_stream` with offline parity on every
/// backend.
#[test]
fn zero_voiced_and_clipped_streams_through_the_server() {
    let task = voice_task();
    let frontend = Frontend::new(ScenarioVoiceTask::frontend_config()).expect("frontend");
    let silent_features = frontend.process(&vec![0.0f32; 16_000]);
    assert!(!silent_features.is_empty());
    let generator = ScenarioGenerator::new(&task.dictionary, CORPUS_SEED);
    let clipped = generator.generate(ScenarioKind::Clipped);
    let clipped_features = frontend.process(&clipped.samples);

    for backend_index in 0..4 {
        let offline = recognizer(backend_index);
        let server = lvcsr::serve::AsrServer::spawn(recognizer(backend_index), Default::default())
            .expect("server");
        for features in [&silent_features, &clipped_features] {
            let reference = offline.decode_features(features).expect("offline");
            let handle = server.open_stream().expect("stream");
            for chunk in features.chunks(9) {
                handle.push_chunk(chunk).expect("push");
            }
            let result = handle.finish().expect("finish").wait().expect("decode");
            assert_eq!(
                fingerprint(&result),
                fingerprint(&reference),
                "backend {backend_index}"
            );
        }
        server.close();
    }
}

/// The voice task is a real recogniser: isolated renderings of its own
/// vocabulary decode back to the right command for a majority of words.
#[test]
fn scenario_voice_task_decodes_its_own_vocabulary() {
    let task = voice_task();
    let frontend = Frontend::new(ScenarioVoiceTask::frontend_config()).expect("frontend");
    let rec = recognizer(0);
    // The same synthesiser the task trained from: its mild noise bed is part
    // of the acoustic conditions the models learned.
    let synth = AudioSynthesizer::default_16khz();
    let vocabulary = task.dictionary.len() as u32;
    let mut exact = 0usize;
    for id in 0..vocabulary {
        let audio = synth.render_words(&task.dictionary, &[WordId(id)], 555 + u64::from(id));
        let result = rec.decode_audio(&audio, &frontend).expect("decode");
        if result.hypothesis.words == [WordId(id)] {
            exact += 1;
        }
    }
    assert!(
        2 * exact >= vocabulary as usize,
        "only {exact}/{vocabulary} commands decoded exactly"
    );
}

proptest! {
    /// Satellite: the endpointer state machine alone, under random hop-RMS
    /// sequences in both modes — events strictly alternate and agree with
    /// `in_speech`, the adaptive threshold respects its clamps, and
    /// `reset()` returns the *exact* initial state (`EnergyVad` is
    /// `PartialEq` precisely for this check).
    #[test]
    fn energy_vad_invariants_hold_on_random_hop_sequences(
        rms_values in collection::vec(0.0f32..0.6, 10..240),
        adaptive_flag in 0usize..2,
        min_speech in 1usize..4,
        hangover in 1usize..6,
    ) {
        let config = VadConfig {
            energy_threshold: 0.05,
            min_speech_hops: min_speech,
            hangover_hops: hangover,
            preroll_hops: 2,
            adaptive: (adaptive_flag == 1).then_some(AdaptiveVadConfig),
        };
        config.validate().expect("config is valid");
        let fresh = EnergyVad::new(config.clone());
        let mut vad = EnergyVad::new(config.clone());
        prop_assert_eq!(&vad, &fresh);
        let mut last: Option<VadEvent> = None;
        for &rms in &rms_values {
            let was_in = vad.in_speech();
            let event = vad.push_hop(rms);
            match event {
                Some(VadEvent::SpeechStart) => {
                    prop_assert!(!was_in && vad.in_speech());
                    prop_assert_ne!(last, Some(VadEvent::SpeechStart), "events alternate");
                    last = event;
                }
                Some(VadEvent::SpeechEnd) => {
                    prop_assert!(was_in && !vad.in_speech());
                    prop_assert_eq!(last, Some(VadEvent::SpeechStart), "end follows start");
                    last = event;
                }
                None => prop_assert_eq!(was_in, vad.in_speech()),
            }
            match config.adaptive {
                Some(AdaptiveVadConfig) => {
                    prop_assert!(vad.threshold() >= AdaptiveVadConfig::MIN_THRESHOLD);
                    prop_assert!(vad.threshold() <= AdaptiveVadConfig::MAX_THRESHOLD);
                    let floor = vad.noise_floor().expect("adaptive mode reports a floor");
                    prop_assert!(floor >= 0.0);
                }
                None => {
                    prop_assert_eq!(vad.threshold(), config.energy_threshold);
                    prop_assert_eq!(vad.noise_floor(), None);
                }
            }
        }
        vad.reset();
        prop_assert_eq!(&vad, &fresh, "reset must be total");
    }
}
