//! Hostile decoder and stream configurations.
//!
//! Every numeric field of a `DecoderConfig`, of its `GmmSelectionConfig`,
//! of the `SocConfig` of a hardware backend and the shard count of a
//! sharded backend (one or two nesting levels) is drawn from a valid value,
//! zero, −1, NaN, ±∞ and `f32::MAX` (an integer field takes the saturating
//! cast of the same draw: 0 or `usize::MAX`).  Each configuration must
//! either be refused with `DecodeError::InvalidConfig` or build a
//! recogniser that decodes a tiny utterance without panicking.
//!
//! Every numeric field of a `StreamConfig` is drawn the same way: the
//! frontend's dither and CMN prior, the VAD threshold and hop counts, and
//! the forced-endpoint limit.  Each configuration must either be refused
//! with a typed `StreamError` or open an audio session that streams 1 s of
//! tone and silence and closes.

use lvcsr::corpus::{SyntheticTask, TaskConfig, TaskGenerator};
use lvcsr::decoder::{DecodeError, DecoderConfig, Recognizer, ScoringBackendKind};
use lvcsr::float::MantissaWidth;
use lvcsr::frontend::FrontendConfig;
use lvcsr::hw::SocConfig;
use lvcsr::stream::{AdaptiveVadConfig, StreamConfig, StreamError, StreamingRecognizer, VadConfig};

/// The hostile values every numeric field is drawn from, besides its valid
/// one.
const HOSTILE: [f32; 6] = [
    0.0,
    -1.0,
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::MAX,
];

/// A seeded xorshift64 stream.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// `valid` half the time, otherwise one of the hostile values.
    fn f32_or(&mut self, valid: f32) -> f32 {
        if self.below(2) == 0 {
            return valid;
        }
        HOSTILE[self.below(HOSTILE.len())]
    }

    /// `valid` half the time, otherwise a hostile float cast to `usize`.
    fn usize_or(&mut self, valid: usize) -> usize {
        match self.f32_or(f32::NAN) {
            x if x.is_nan() => valid,
            x => x as usize,
        }
    }
}

/// A plain backend, or one sharded at one or two nesting levels with a
/// drawn shard count at each level.
fn hostile_backend(rng: &mut XorShift) -> ScoringBackendKind {
    let leaf = match rng.below(3) {
        0 => ScoringBackendKind::Software,
        1 => ScoringBackendKind::Simd,
        _ => ScoringBackendKind::Hardware(SocConfig {
            num_structures: rng.usize_or(2),
            datapath_width: MantissaWidth::PAPER_SWEEP[rng.below(3)],
        }),
    };
    let levels = rng.below(3);
    (0..levels).fold(leaf, |inner, _| ScoringBackendKind::Sharded {
        shards: rng.usize_or(2),
        inner: Box::new(inner),
    })
}

fn hostile_config(rng: &mut XorShift) -> DecoderConfig {
    let base = DecoderConfig::default();
    let mut config = DecoderConfig {
        backend: hostile_backend(rng),
        beam: rng.f32_or(base.beam),
        word_beam: rng.f32_or(base.word_beam),
        max_active_hmms: rng.usize_or(base.max_active_hmms),
        lm_weight: rng.f32_or(base.lm_weight),
        word_insertion_penalty: rng.f32_or(base.word_insertion_penalty),
        ..base
    };
    let selection = &mut config.gmm_selection;
    selection.cds_period = rng.usize_or(2);
    selection.cds_threshold = rng.f32_or(selection.cds_threshold);
    selection.senone_feedback = rng.below(2) == 0;
    config
}

fn tiny_task() -> SyntheticTask {
    TaskGenerator::new(5)
        .generate(&TaskConfig::tiny())
        .expect("task generation")
}

#[test]
fn hostile_configs_are_refused_or_decode() {
    let task = tiny_task();
    let (features, _) = task.synthesize_utterance(2, 0.2, 7);
    let mut rng = XorShift(0x5EED_C0DE_2006);
    let (mut refused, mut decoded) = (0, 0);
    for _ in 0..1000 {
        let config = hostile_config(&mut rng);
        let recognizer = match Recognizer::new(
            task.acoustic_model.clone(),
            task.dictionary.clone(),
            task.language_model.clone(),
            config.clone(),
        ) {
            Ok(recognizer) => recognizer,
            Err(DecodeError::InvalidConfig(_)) => {
                refused += 1;
                continue;
            }
            Err(other) => panic!("{config:?} failed with {other:?}"),
        };
        // A wild but accepted setting may decode badly; it must not panic.
        eprintln!("decoding with {config:?}");
        let _ = recognizer.decode_features(&features);
        decoded += 1;
    }
    assert!(
        refused > 0 && decoded > 0,
        "{refused} refused, {decoded} decoded"
    );
}

/// A stream configuration with every numeric field drawn: a frontend
/// without deltas (to match a 13-dimensional model), with or without CMN,
/// and a fixed or adaptive VAD.
fn hostile_stream_config(rng: &mut XorShift) -> StreamConfig {
    let prior_mean = f64::from(rng.f32_or(1.5));
    StreamConfig {
        frontend: FrontendConfig {
            use_delta: false,
            use_delta_delta: false,
            cepstral_mean_norm: rng.below(2) == 0,
            cmn_prior_frames: f64::from(rng.f32_or(100.0)),
            cmn_prior_mean: match rng.below(3) {
                0 => None,
                1 => Some(vec![prior_mean; FrontendConfig::NUM_CEPSTRA]),
                _ => Some(vec![prior_mean; 3]),
            },
            dither: rng.f32_or(FrontendConfig::default().dither),
        },
        vad: VadConfig {
            energy_threshold: rng.f32_or(0.05),
            min_speech_hops: rng.usize_or(2),
            hangover_hops: rng.usize_or(5),
            preroll_hops: rng.usize_or(2),
            adaptive: (rng.below(2) == 0).then_some(AdaptiveVadConfig),
        },
        max_utterance_frames: (rng.below(2) == 0).then(|| rng.usize_or(20)),
        capture_features: false,
    }
}

#[test]
fn hostile_stream_configs_are_refused_or_stream() {
    let task = TaskGenerator::new(5)
        .generate(&TaskConfig {
            feature_dim: FrontendConfig::NUM_CEPSTRA,
            ..TaskConfig::tiny()
        })
        .expect("task generation");
    // 1 s: 0.2 s of silence, a 0.5 s tone, 0.3 s of silence.
    let mut audio = vec![0.0f32; 3_200];
    audio.extend((0..8_000).map(|n| 0.5 * (n as f32 * 0.17).sin()));
    audio.extend(vec![0.0f32; 4_800]);
    let mut rng = XorShift(0x5EED_5712_2006);
    let (mut refused, mut streamed) = (0, 0);
    // Most draws are refused, so many are needed for a few dozen streams.
    for _ in 0..3000 {
        let config = hostile_stream_config(&mut rng);
        let recognizer = Recognizer::new(
            task.acoustic_model.clone(),
            task.dictionary.clone(),
            task.language_model.clone(),
            DecoderConfig::software(),
        )
        .expect("recogniser");
        let streamer = match StreamingRecognizer::new(recognizer, config.clone()) {
            Ok(streamer) => streamer,
            Err(StreamError::InvalidConfig(_) | StreamError::Frontend(_)) => {
                refused += 1;
                continue;
            }
            Err(other) => panic!("{config:?} failed with {other:?}"),
        };
        let mut session = streamer
            .audio_session()
            .unwrap_or_else(|e| panic!("{config:?}: audio session: {e}"));
        for hop in audio.chunks(FrontendConfig::FRAME_SHIFT_SAMPLES) {
            session
                .push_audio(hop)
                .unwrap_or_else(|e| panic!("{config:?}: push: {e}"));
        }
        session
            .close()
            .unwrap_or_else(|e| panic!("{config:?}: close: {e}"));
        streamed += 1;
    }
    assert!(
        refused > 0 && streamed > 0,
        "{refused} refused, {streamed} streamed"
    );
}
