//! # lvcsr — a reproduction of *Architecture for Low Power Large Vocabulary
//! Speech Recognition* (Chandra, Pazhayaveetil, Franzon — SOCC 2006)
//!
//! This facade crate re-exports the workspace's crates under one roof:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`float`] | `asr-float` | log-domain math, the 512-byte log-add SRAM table, reduced-mantissa storage, the OP/Viterbi datapath model (IEEE-754 single with per-operation mantissa quantisation) |
//! | [`frontend`] | `asr-frontend` | the MFCC frontend (25 ms windows / 10 ms shift, 39-dim features) |
//! | [`acoustic`] | `asr-acoustic` | senones, Gaussian mixtures, triphone HMMs, flash storage layout |
//! | [`lexicon`] | `asr-lexicon` | phone set, pronunciation dictionary, lexical tree, n-gram LM |
//! | [`hw`] | `asr-hw` | cycle-accurate OP unit and Viterbi unit, flash/DMA, power & area model, the 2-structure SoC |
//! | [`decoder`] | `asr-core` | the `SenoneScorer` backend seam (SoC / scalar / SIMD scorers), phone decode, word decode (token passing over the lexical tree), word lattice, global best path, batch decoding |
//! | [`corpus`] | `asr-corpus` | synthetic WSJ5K-like tasks, utterance/audio synthesis, WER scoring |
//! | [`baseline`] | `asr-baseline` | software-decoder and related-work accelerator baselines |
//! | [`serve`] | `asr-serve` | async batched serving front: bounded queue, micro-batcher, typed backpressure, incremental stream sessions |
//! | [`stream`] | `asr-stream` | streaming recognition: chunked frontend with live CMN, energy VAD endpointing, incremental decode sessions with partials and chunk-latency accounting |
//! | [`obs`] | `asr-obs` | observability: request traces with typed span events, the shared log-bucketed latency histogram, JSONL fact sinks |
//!
//! # Quickstart
//!
//! ```
//! use lvcsr::corpus::{TaskConfig, TaskGenerator};
//! use lvcsr::decoder::{DecoderConfig, Recognizer};
//!
//! // Generate a small synthetic task and decode one utterance on the
//! // cycle-accurate hardware model with two accelerator structures.
//! let task = TaskGenerator::new(1).generate(&TaskConfig::tiny()).unwrap();
//! let recognizer = Recognizer::new(
//!     task.acoustic_model.clone(),
//!     task.dictionary.clone(),
//!     task.language_model.clone(),
//!     DecoderConfig::hardware(2),
//! )
//! .unwrap();
//! let (features, reference) = task.synthesize_utterance(2, 0.2, 7);
//! let result = recognizer.decode_features(&features).unwrap();
//! assert_eq!(result.hypothesis.words, reference);
//! let hw = result.hardware.unwrap();
//! assert!(hw.real_time_fraction > 0.99);
//!
//! // A stream of utterances decodes through one scorer (the SoC model is
//! // built once and its counters reset between utterances), with results
//! // identical to per-utterance decoding.
//! let (more, _) = task.synthesize_utterance(3, 0.2, 8);
//! let batch = recognizer.decode_batch(&[features, more]).unwrap();
//! assert_eq!(batch[0].hypothesis.words, reference);
//! assert_eq!(batch.len(), 2);
//! ```
//!
//! # Serving quickstart
//!
//! Many callers share one warmed scorer through the async front (the
//! README's serving quickstart and `examples/serving.rs` are the long
//! forms):
//!
//! ```
//! use lvcsr::corpus::{TaskConfig, TaskGenerator};
//! use lvcsr::decoder::{DecoderConfig, Recognizer};
//! use lvcsr::serve::{AsrServer, ServeConfig};
//!
//! let task = TaskGenerator::new(1).generate(&TaskConfig::tiny()).unwrap();
//! let recognizer = Recognizer::new(
//!     task.acoustic_model.clone(),
//!     task.dictionary.clone(),
//!     task.language_model.clone(),
//!     // Two SoC instances sharing each frame's active-senone set.
//!     DecoderConfig::sharded_hardware(2),
//! )
//! .unwrap();
//! let server = AsrServer::spawn(recognizer, ServeConfig::default()).unwrap();
//! let pending: Vec<_> = (0..4)
//!     .map(|seed| {
//!         let (features, reference) = task.synthesize_utterance(1, 0.2, seed);
//!         (server.submit(features).unwrap(), reference)
//!     })
//!     .collect();
//! for (future, reference) in pending {
//!     assert_eq!(future.wait().unwrap().hypothesis.words, reference);
//! }
//! let report = server.hardware_report().unwrap();
//! assert!(report.real_time_fraction > 0.99);
//! assert_eq!(server.stats().completed, 4);
//! ```

#![deny(missing_docs)]

pub use asr_acoustic as acoustic;
pub use asr_baseline as baseline;
pub use asr_core as decoder;
pub use asr_corpus as corpus;
pub use asr_float as float;
pub use asr_frontend as frontend;
pub use asr_hw as hw;
pub use asr_lexicon as lexicon;
pub use asr_obs as obs;
pub use asr_serve as serve;
pub use asr_stream as stream;

/// One error type for the whole workspace: every crate's error converts into
/// it via `From`, so application code (the `examples/`, integration tests,
/// downstream users) can thread any layer's failure through `?` without
/// flattening it to a string. The typed source is preserved and exposed
/// through [`std::error::Error::source`].
#[derive(Debug, Clone, PartialEq)]
pub enum LvcsrError {
    /// Numeric-substrate error (`asr-float`).
    Float(float::FloatError),
    /// Frontend configuration error (`asr-frontend`).
    Frontend(frontend::FrontendError),
    /// Acoustic-model error (`asr-acoustic`).
    Acoustic(acoustic::AcousticError),
    /// Lexicon / language-model error (`asr-lexicon`).
    Lexicon(lexicon::LexiconError),
    /// Hardware-model error (`asr-hw`).
    Hardware(hw::HwError),
    /// Decoder error (`asr-core`).
    Decode(decoder::DecodeError),
    /// Synthetic-corpus error (`asr-corpus`).
    Corpus(corpus::CorpusError),
    /// Serving-front error (`asr-serve`): backpressure, shutdown, or a decode
    /// failure surfaced through the queue.
    Serve(serve::ServeError),
    /// Streaming-subsystem error (`asr-stream`): an invalid stream/VAD
    /// configuration, or a frontend/decode failure inside a session.
    Stream(stream::StreamError),
}

impl core::fmt::Display for LvcsrError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LvcsrError::Float(e) => write!(f, "float: {e}"),
            LvcsrError::Frontend(e) => write!(f, "frontend: {e}"),
            LvcsrError::Acoustic(e) => write!(f, "acoustic model: {e}"),
            LvcsrError::Lexicon(e) => write!(f, "lexicon: {e}"),
            LvcsrError::Hardware(e) => write!(f, "hardware model: {e}"),
            LvcsrError::Decode(e) => write!(f, "decoder: {e}"),
            LvcsrError::Corpus(e) => write!(f, "corpus: {e}"),
            LvcsrError::Serve(e) => write!(f, "serving front: {e}"),
            LvcsrError::Stream(e) => write!(f, "streaming: {e}"),
        }
    }
}

impl std::error::Error for LvcsrError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LvcsrError::Float(e) => Some(e),
            LvcsrError::Frontend(e) => Some(e),
            LvcsrError::Acoustic(e) => Some(e),
            LvcsrError::Lexicon(e) => Some(e),
            LvcsrError::Hardware(e) => Some(e),
            LvcsrError::Decode(e) => Some(e),
            LvcsrError::Corpus(e) => Some(e),
            LvcsrError::Serve(e) => Some(e),
            LvcsrError::Stream(e) => Some(e),
        }
    }
}

macro_rules! lvcsr_error_from {
    ($($variant:ident($ty:ty)),+ $(,)?) => {$(
        impl From<$ty> for LvcsrError {
            fn from(e: $ty) -> Self {
                LvcsrError::$variant(e)
            }
        }
    )+};
}

lvcsr_error_from!(
    Float(float::FloatError),
    Frontend(frontend::FrontendError),
    Acoustic(acoustic::AcousticError),
    Lexicon(lexicon::LexiconError),
    Hardware(hw::HwError),
    Decode(decoder::DecodeError),
    Corpus(corpus::CorpusError),
    Serve(serve::ServeError),
    Stream(stream::StreamError),
);

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn every_layer_converts_and_keeps_its_source() {
        let errors: Vec<LvcsrError> = vec![
            float::FloatError::InvalidMantissaWidth(31).into(),
            frontend::FrontendError::InvalidConfig("x".into()).into(),
            acoustic::AcousticError::UnknownId("senone#7".into()).into(),
            lexicon::LexiconError::UnknownWord("zzz".into()).into(),
            hw::HwError::NoFeatureLoaded.into(),
            decoder::DecodeError::InvalidConfig("beam".into()).into(),
            corpus::CorpusError::InvalidConfig("vocab".into()).into(),
            serve::ServeError::Decode(decoder::DecodeError::InvalidConfig("queue".into())).into(),
            stream::StreamError::Decode(decoder::DecodeError::InvalidConfig("chunk".into())).into(),
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
            assert!(e.source().is_some(), "{e} must expose its source");
        }
    }

    #[test]
    fn question_mark_threads_through_layers() {
        fn build() -> Result<(), LvcsrError> {
            // A decoder-layer failure propagates with `?` from a deeper error.
            let bad = decoder::DecoderConfig {
                beam: -1.0,
                ..decoder::DecoderConfig::default()
            };
            bad.validate()?;
            Ok(())
        }
        assert!(matches!(build(), Err(LvcsrError::Decode(_))));
    }
}
