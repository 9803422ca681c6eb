//! Streaming quickstart: the real-time regime the paper's SoC was built for.
//!
//! Two demonstrations:
//!
//! 1. **Feature streaming** — one utterance pushed through a
//!    [`DecodeSession`](lvcsr::decoder::DecodeSession) in small chunks,
//!    partial hypotheses surfacing as words complete, and the final result
//!    provably identical to the offline decode of the same frames.  The
//!    session hands its warm phone decoder back, and a second utterance
//!    decodes on it.
//! 2. **Continuous audio** — raw PCM with silence around two tone bursts
//!    pushed into an [`AudioStreamSession`](lvcsr::stream::AudioStreamSession):
//!    the energy VAD opens an utterance per burst, decodes it incrementally
//!    on the session's one decoder while its audio is still arriving, and
//!    reports per-chunk latency and the stream's host real-time factor.
//!
//! Run with: `cargo run --example streaming --release`

use lvcsr::corpus::{TaskConfig, TaskGenerator};
use lvcsr::decoder::{DecodeSession, DecoderConfig, Recognizer};
use lvcsr::frontend::FrontendConfig;
use lvcsr::stream::{StreamConfig, StreamEvent, StreamingRecognizer, VadConfig};
use lvcsr::LvcsrError;

fn main() -> Result<(), LvcsrError> {
    // --- 1. feature streaming: chunks in, partials out, offline-identical ---
    let task = TaskGenerator::new(11).generate(&TaskConfig::small())?;
    let recognizer = Recognizer::new(
        task.acoustic_model.clone(),
        task.dictionary.clone(),
        task.language_model.clone(),
        DecoderConfig::hardware(2),
    )?;
    let (features, reference) = task.synthesize_utterance(4, 0.2, 3);
    let offline = recognizer.decode_features(&features)?;

    let mut session = DecodeSession::begin(&recognizer, recognizer.phone_decoder()?);
    println!("streaming {} frames in 5-frame chunks:", features.len());
    let mut last_words = 0;
    for chunk in features.chunks(5) {
        session.push_chunk(chunk)?;
        let partial = session.partial();
        if partial.words.len() > last_words {
            last_words = partial.words.len();
            println!(
                "  after {:>3} frames: \"{}\"",
                partial.frames,
                partial.to_sentence()
            );
        }
    }
    let (result, decoder) = session.finish();
    let result = result?;
    println!(
        "final: \"{}\" ({})",
        result.hypothesis.to_sentence(),
        if result.hypothesis.words == reference {
            "correct"
        } else {
            "incorrect"
        }
    );
    assert_eq!(result.hypothesis, offline.hypothesis);
    let hw = result.hardware.expect("hardware backend report");
    println!(
        "identical to offline decode; SoC report: {} frames",
        hw.frames
    );

    // The session handed its warm decoder back: the next utterance decodes
    // on it without rebuilding the backend.
    let (features, _) = task.synthesize_utterance(3, 0.2, 5);
    let mut session = DecodeSession::begin(&recognizer, decoder);
    session.push_chunk(&features)?;
    let result = session.finish().0?;
    let sentence = result.hypothesis.to_sentence();
    println!("second utterance on the recycled decoder: \"{sentence}\"\n");

    // --- 2. continuous audio with VAD endpointing ---
    // A 13-dim task so the delta-less MFCC frontend matches the model.
    let audio_task = TaskGenerator::new(23).generate(&TaskConfig {
        feature_dim: 13,
        ..TaskConfig::tiny()
    })?;
    let audio_recognizer = Recognizer::new(
        audio_task.acoustic_model.clone(),
        audio_task.dictionary.clone(),
        audio_task.language_model.clone(),
        DecoderConfig::software(),
    )?;
    let streamer = StreamingRecognizer::new(
        audio_recognizer,
        StreamConfig {
            frontend: FrontendConfig {
                use_delta: false,
                use_delta_delta: false,
                ..FrontendConfig::default()
            },
            vad: VadConfig {
                energy_threshold: 0.05,
                min_speech_hops: 2,
                hangover_hops: 8,
                preroll_hops: 3,
                adaptive: None,
            },
            ..StreamConfig::default()
        },
    )?;
    let mut audio_session = streamer.audio_session()?;

    // 2 tone bursts with silence between: two utterances for the endpointer.
    let tone = |seconds: f32, freq: f32| -> Vec<f32> {
        (0..(seconds * 16_000.0) as usize)
            .map(|n| 0.5 * (2.0 * std::f32::consts::PI * freq * n as f32 / 16_000.0).sin())
            .collect()
    };
    let mut audio = vec![0.0f32; 2_400];
    audio.extend(tone(0.25, 440.0));
    audio.extend(vec![0.0f32; 3_200]);
    audio.extend(tone(0.20, 1200.0));
    audio.extend(vec![0.0f32; 3_200]);

    println!(
        "pushing {:.2} s of audio (two bursts) through the VAD in 50 ms chunks:",
        audio.len() as f32 / 16_000.0
    );
    for chunk in audio.chunks(800) {
        for event in audio_session.push_audio(chunk)? {
            match event {
                StreamEvent::UtteranceStarted => println!("  [VAD] speech started"),
                StreamEvent::Partial(p) => {
                    println!("  [partial] \"{}\" @ frame {}", p.to_sentence(), p.frames)
                }
                StreamEvent::UtteranceEnd(outcome) => println!(
                    "  [VAD] speech ended: {} frames decoded, stream RTF {:.4}",
                    outcome.result.stats.num_frames(),
                    outcome.timing.real_time_factor()
                ),
                StreamEvent::UtteranceForceEnded(outcome) => println!(
                    "  [VAD] forced endpoint at the frame budget: {} frames decoded",
                    outcome.result.stats.num_frames(),
                ),
            }
        }
    }
    let finished = audio_session.utterances_finished();
    let last = audio_session.close()?;
    println!(
        "closed: {finished} endpointed utterances, trailing session empty: {}",
        last.result.is_empty()
    );
    Ok(())
}
