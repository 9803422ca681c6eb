//! # asr-stream — streaming recognition
//!
//! The paper's SoC is a *real-time* recognizer: audio arrives frame by frame
//! and the hardware keeps up at low power.  Every other path in this
//! workspace is offline — it takes the whole utterance up front.  This crate
//! is the real-time regime as a subsystem:
//!
//! ```text
//!  audio chunks ──► StreamingFrontend ──► EnergyVad ──► DecodeSession
//!   (any size)       (25 ms windows,       (energy        (incremental
//!                     live CMN,             endpointer:    Viterbi: partial
//!                     incremental deltas)   segments       hypotheses per
//!                                           utterances)    chunk)
//!                                                              │
//!                 StreamOutcome { DecodeResult, StreamTiming } ◄┘
//!                  (hardware UtteranceReport in the result;
//!                   per-chunk latency + stream RTF beside it)
//! ```
//!
//! A [`StreamingRecognizer`] opens [`AudioStreamSession`]s: continuous raw
//! audio in, a stream of endpointed utterances out.  The chunked frontend
//! turns samples into features with *live* (running-mean) CMN, the energy
//! VAD opens an utterance when speech starts and closes it after a hangover
//! of silence, and each utterance decodes incrementally while its audio is
//! still arriving.  The session builds one phone decoder when it opens and
//! lends it to every utterance's [`asr_core::DecodeSession`], so a long
//! stream keeps one warm backend, as the paper's OP and Viterbi units serve
//! utterance after utterance.
//!
//! The core invariant, property-tested across every backend in the
//! workspace's `tests/stream.rs`: **any chunking of the same frames decodes
//! to exactly the offline result** of
//! [`Recognizer::decode_features`](asr_core::Recognizer::decode_features),
//! because chunk boundaries never reach the search
//! ([`asr_core::DecodeSession`] steps the identical per-frame loop).
//! Callers that stream feature chunks rather than audio use
//! [`asr_core::DecodeSession`] directly.
//!
//! Between chunks, the session surfaces [`PartialHypothesis`] snapshots —
//! prefix-consistent, monotone previews of the final result.  Every chunk's
//! wall-clock latency and audio coverage is recorded into an
//! [`asr_hw::StreamTiming`], which [`StreamOutcome`] carries beside the
//! decode result — so a streamed decode reports its host real-time factor
//! next to the SoC's simulated one in the result's hardware
//! [`UtteranceReport`](asr_hw::UtteranceReport).
//!
//! # Example
//!
//! ```
//! use asr_core::{DecoderConfig, Recognizer};
//! use asr_corpus::{TaskConfig, TaskGenerator};
//! use asr_frontend::FrontendConfig;
//! use asr_stream::{StreamConfig, StreamEvent, StreamingRecognizer};
//!
//! // A 13-dim model, to match the delta-less MFCC frontend below.
//! let task = TaskGenerator::new(7)
//!     .generate(&TaskConfig { feature_dim: 13, ..TaskConfig::tiny() })
//!     .unwrap();
//! let recognizer = Recognizer::new(
//!     task.acoustic_model.clone(),
//!     task.dictionary.clone(),
//!     task.language_model.clone(),
//!     DecoderConfig::simd(),
//! )
//! .unwrap();
//! let config = StreamConfig {
//!     frontend: FrontendConfig {
//!         use_delta: false,
//!         use_delta_delta: false,
//!         ..FrontendConfig::default()
//!     },
//!     capture_features: true,
//!     ..StreamConfig::default()
//! };
//! let streamer = StreamingRecognizer::new(recognizer, config).unwrap();
//! let mut session = streamer.audio_session().unwrap();
//!
//! // 0.2 s of silence, a 0.3 s tone burst, 0.5 s of silence, in 10 ms hops.
//! let mut audio = vec![0.0f32; 3_200];
//! audio.extend((0..4_800).map(|n| 0.5 * (n as f32 * 0.17).sin()));
//! audio.extend(vec![0.0f32; 8_000]);
//! let mut ended = Vec::new();
//! for hop in audio.chunks(160) {
//!     for event in session.push_audio(hop).unwrap() {
//!         if let StreamEvent::UtteranceEnd(outcome) = event {
//!             ended.push(outcome);
//!         }
//!     }
//! }
//! assert_eq!(ended.len(), 1);
//! assert!(ended[0].timing.chunks() > 0);
//! // The streamed utterance equals the offline decode of its frames.
//! let frames = ended[0].features.as_ref().unwrap();
//! let offline = streamer.recognizer().decode_features(frames).unwrap();
//! assert_eq!(ended[0].result.hypothesis, offline.hypothesis);
//! assert!(session.close().unwrap().result.is_empty());
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod frontend;
pub mod session;
pub mod vad;

pub use frontend::StreamingFrontend;
pub use session::{AudioStreamSession, StreamEvent, StreamOutcome, StreamingRecognizer};
pub use vad::{AdaptiveVadConfig, EnergyVad, VadConfig, VadEvent};

// The partial-hypothesis type is asr-core's (the serving layer shares it);
// re-exported so streaming callers need only this crate.
pub use asr_core::PartialHypothesis;

use asr_core::DecodeError;
use asr_frontend::{FrontendConfig, FrontendError};

/// Configuration of the streaming subsystem: the chunked frontend and the
/// energy endpointer.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StreamConfig {
    /// Feature layout, dither and live-CMN prior
    /// ([`FrontendConfig::cmn_prior_frames`] / `cmn_prior_mean`).
    pub frontend: FrontendConfig,
    /// Energy VAD / endpointing parameters.
    pub vad: VadConfig,
    /// Forced endpoint: when an open utterance has decoded this many feature
    /// frames, the session closes it (emitting
    /// [`StreamEvent::UtteranceForceEnded`]) and immediately re-opens, so a
    /// noise step the adaptive VAD mistakes for unending speech cannot grow
    /// an utterance without bound.  The limit is a *trigger* threshold: the
    /// closing utterance still flushes its delta-lookahead tail, so its
    /// final frame count can exceed the limit by that tail.  `None` (the
    /// default) disables forcing.
    pub max_utterance_frames: Option<usize>,
    /// When set, every [`StreamOutcome`] carries the exact feature frames
    /// that were decoded ([`StreamOutcome::features`]), so tests can replay
    /// them through the offline decoder and assert parity.  Off by default —
    /// it clones every frame.
    pub capture_features: bool,
}

impl StreamConfig {
    /// Validates the configuration, including the cross-field endpointing
    /// guarantee: any endpointed utterance has received at least
    /// `min_speech_hops + hangover_hops` hops of audio (preroll is *not*
    /// guaranteed — the stream may start mid-trigger), so
    ///
    /// ```text
    /// (min_speech_hops + hangover_hops) · FRAME_SHIFT_SAMPLES  ≥  FRAME_LENGTH_SAMPLES
    /// ```
    ///
    /// is exactly the condition under which every `UtteranceEnd` carries at
    /// least one analysis window — i.e. a non-empty decode.  Configurations
    /// violating it could emit empty-utterance endpoints and are rejected.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::Frontend`] or [`StreamError::InvalidConfig`]
    /// for an invalid frontend or VAD configuration (including a hop count
    /// above [`VadConfig::MAX_HOPS`]), a zero `max_utterance_frames`, or a
    /// debounce+hangover span shorter than one analysis window.
    pub fn validate(&self) -> Result<(), StreamError> {
        self.frontend.validate()?;
        self.vad.validate()?;
        if self.max_utterance_frames == Some(0) {
            return Err(StreamError::InvalidConfig(
                "max_utterance_frames must be >= 1 when set".into(),
            ));
        }
        // `VadConfig::validate` bounds both hop counts, so this cannot overflow.
        let buffered_samples = (self.vad.min_speech_hops + self.vad.hangover_hops)
            * FrontendConfig::FRAME_SHIFT_SAMPLES;
        if buffered_samples < FrontendConfig::FRAME_LENGTH_SAMPLES {
            return Err(StreamError::InvalidConfig(format!(
                "min_speech_hops + hangover_hops buffer only {buffered_samples} samples, \
                 fewer than one {}-sample analysis window: an endpointed utterance could \
                 be empty",
                FrontendConfig::FRAME_LENGTH_SAMPLES
            )));
        }
        Ok(())
    }
}

/// Errors produced by the streaming subsystem.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamError {
    /// The streaming configuration was invalid (VAD parameters, or a
    /// frontend whose feature dimension does not match the acoustic model).
    InvalidConfig(String),
    /// The frontend configuration was invalid (typed source preserved).
    Frontend(FrontendError),
    /// Decoding failed (typed source preserved).
    Decode(DecodeError),
}

impl core::fmt::Display for StreamError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StreamError::InvalidConfig(msg) => write!(f, "invalid stream config: {msg}"),
            StreamError::Frontend(e) => write!(f, "stream frontend: {e}"),
            StreamError::Decode(e) => write!(f, "stream decode: {e}"),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Frontend(e) => Some(e),
            StreamError::Decode(e) => Some(e),
            StreamError::InvalidConfig(_) => None,
        }
    }
}

impl From<FrontendError> for StreamError {
    fn from(e: FrontendError) -> Self {
        StreamError::Frontend(e)
    }
}

impl From<DecodeError> for StreamError {
    fn from(e: DecodeError) -> Self {
        StreamError::Decode(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        use std::error::Error;
        let e = StreamError::InvalidConfig("vad".into());
        assert!(e.to_string().contains("vad"));
        assert!(e.source().is_none());
        let e: StreamError = FrontendError::InvalidConfig("cmn".into()).into();
        assert!(e.to_string().contains("cmn"));
        assert!(e.source().is_some());
        let e: StreamError = DecodeError::InvalidConfig("beam".into()).into();
        assert!(e.to_string().contains("beam"));
        assert!(e.source().is_some());
    }

    #[test]
    fn config_validation_covers_both_halves() {
        StreamConfig::default().validate().unwrap();
        let bad_frontend = StreamConfig {
            frontend: FrontendConfig {
                dither: -1.0,
                ..FrontendConfig::default()
            },
            ..StreamConfig::default()
        };
        assert!(matches!(
            bad_frontend.validate(),
            Err(StreamError::Frontend(_))
        ));
        let bad_vad = StreamConfig {
            vad: VadConfig {
                energy_threshold: -1.0,
                ..VadConfig::default()
            },
            ..StreamConfig::default()
        };
        assert!(matches!(
            bad_vad.validate(),
            Err(StreamError::InvalidConfig(_))
        ));
    }

    #[test]
    fn zero_max_utterance_frames_is_rejected() {
        let bad = StreamConfig {
            max_utterance_frames: Some(0),
            ..StreamConfig::default()
        };
        assert!(matches!(bad.validate(), Err(StreamError::InvalidConfig(_))));
        StreamConfig {
            max_utterance_frames: Some(1),
            ..StreamConfig::default()
        }
        .validate()
        .unwrap();
    }

    #[test]
    fn endpoint_shorter_than_one_window_is_rejected() {
        // 1 debounce + 1 hangover hop buffer 2 × 160 = 320 samples — less
        // than the 400-sample analysis window, so an utterance endpointed at
        // stream start (no preroll yet) would decode zero frames.  The
        // cross-field check must reject this even though each half validates
        // on its own.
        let bad = StreamConfig {
            vad: VadConfig {
                min_speech_hops: 1,
                hangover_hops: 1,
                preroll_hops: 0,
                ..VadConfig::default()
            },
            ..StreamConfig::default()
        };
        bad.vad.validate().unwrap();
        assert!(matches!(bad.validate(), Err(StreamError::InvalidConfig(_))));
        // One more hangover hop crosses the window boundary (480 >= 400).
        let ok = StreamConfig {
            vad: VadConfig {
                min_speech_hops: 1,
                hangover_hops: 2,
                preroll_hops: 0,
                ..VadConfig::default()
            },
            ..StreamConfig::default()
        };
        ok.validate().unwrap();
    }

    #[test]
    fn huge_hop_counts_are_refused_without_overflow() {
        for vad in [
            VadConfig {
                min_speech_hops: usize::MAX,
                ..VadConfig::default()
            },
            VadConfig {
                hangover_hops: usize::MAX,
                ..VadConfig::default()
            },
            VadConfig {
                preroll_hops: usize::MAX,
                ..VadConfig::default()
            },
        ] {
            let config = StreamConfig {
                vad,
                ..StreamConfig::default()
            };
            assert!(
                matches!(config.validate(), Err(StreamError::InvalidConfig(_))),
                "{config:?}"
            );
        }
    }

    #[test]
    fn crate_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<StreamingFrontend>();
        assert_send::<EnergyVad>();
        assert_send::<StreamConfig>();
    }
}
