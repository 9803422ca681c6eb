//! # asr-core — the low-power large-vocabulary speech recogniser
//!
//! This crate assembles the paper's full recognition pipeline (Figure 1):
//!
//! ```text
//! speech ─► Frontend ─► Phone decode ─► Word decode ─► Global best path ─► text
//!            (software)  (OP unit +      (software,      (software, uses
//!                         Viterbi unit)   lexical tree)    the language model)
//!                             ▲               │
//!                             └── "Phones for evaluation" feedback ──┘
//! ```
//!
//! * The **phone-decode stage** scores only the *active* senones each frame —
//!   the set requested by the word-decode stage — through the object-safe
//!   [`SenoneScorer`] seam.  Three backends ship in-tree (the cycle-accurate
//!   hardware model of `asr-hw`, a scalar software reference, and a
//!   batching-aware SIMD-style software scorer) and custom accelerators plug
//!   in as `Box<dyn SenoneScorer>` without touching this crate.
//! * The **word-decode stage** is a token-passing search over the lexical
//!   prefix tree: it advances triphone HMM instances with the Viterbi unit,
//!   starts new words from the tree root, records word-end candidates into a
//!   word lattice, and feeds the next frame's active senone set back to the
//!   phone decode.
//! * The **global best path search** rescoes the word lattice with the n-gram
//!   language model to produce the recognised utterance.
//!
//! See the `examples/` directory of the workspace for full end-to-end runs on
//! synthetic tasks built by `asr-corpus`; the unit tests in
//! [`recognizer`] show a minimal hand-built task decoded through both the
//! hardware and software backends.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod config;
pub mod lattice;
pub mod phone_decode;
pub mod recognizer;
pub mod scorer;
pub mod search;
pub mod session;
pub mod shard;
pub mod stats;

pub use config::{DecoderConfig, GmmSelectionConfig, ScoringBackendKind};
pub use lattice::{WordLattice, WordLatticeEntry};
pub use phone_decode::PhoneDecoder;
pub use recognizer::{DecodeResult, Hypothesis, Recognizer};
pub use scorer::{
    software_step_hmm, HmmStateScores, HmmStepResult, SenoneScoreArena, SenoneScorer, SimdScorer,
    SocScorer, SoftwareScorer,
};
pub use search::{SearchNetwork, SearchOutcome, SearchState, TokenPassingSearch};
pub use session::{DecodeSession, PartialHypothesis};
pub use shard::ShardedScorer;
pub use stats::{DecodeStats, FrameStats};

/// Errors produced by decoding.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodeError {
    /// The decoder configuration was invalid.
    InvalidConfig(String),
    /// A feature vector had the wrong dimension.
    DimensionMismatch {
        /// Expected dimension (the acoustic model's).
        expected: usize,
        /// Dimension found in the input.
        got: usize,
    },
    /// The knowledge sources were inconsistent (e.g. dictionary references a
    /// phone with no acoustic model).
    InconsistentModels(String),
    /// An acoustic-model error surfaced during decoding (the typed source is
    /// preserved and exposed through [`std::error::Error::source`]).
    Acoustic(asr_acoustic::AcousticError),
    /// A lexicon / language-model error surfaced during decoding (typed
    /// source preserved).
    Lexicon(asr_lexicon::LexiconError),
    /// A hardware-model error surfaced during decoding (typed source
    /// preserved).
    Hardware(asr_hw::HwError),
}

impl core::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DecodeError::InvalidConfig(msg) => write!(f, "invalid decoder config: {msg}"),
            DecodeError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "feature dimension mismatch: expected {expected}, got {got}"
                )
            }
            DecodeError::InconsistentModels(msg) => write!(f, "inconsistent models: {msg}"),
            DecodeError::Acoustic(e) => write!(f, "acoustic model error: {e}"),
            DecodeError::Lexicon(e) => write!(f, "lexicon error: {e}"),
            DecodeError::Hardware(e) => write!(f, "hardware model error: {e}"),
        }
    }
}

impl std::error::Error for DecodeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DecodeError::Acoustic(e) => Some(e),
            DecodeError::Lexicon(e) => Some(e),
            DecodeError::Hardware(e) => Some(e),
            _ => None,
        }
    }
}

impl From<asr_hw::HwError> for DecodeError {
    fn from(e: asr_hw::HwError) -> Self {
        DecodeError::Hardware(e)
    }
}

impl From<asr_acoustic::AcousticError> for DecodeError {
    fn from(e: asr_acoustic::AcousticError) -> Self {
        DecodeError::Acoustic(e)
    }
}

impl From<asr_lexicon::LexiconError> for DecodeError {
    fn from(e: asr_lexicon::LexiconError) -> Self {
        DecodeError::Lexicon(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_conversion() {
        assert!(DecodeError::InvalidConfig("beam".into())
            .to_string()
            .contains("beam"));
        assert!(DecodeError::DimensionMismatch {
            expected: 39,
            got: 13
        }
        .to_string()
        .contains("39"));
        assert!(DecodeError::InconsistentModels("x".into())
            .to_string()
            .contains("x"));
        let hw: DecodeError = asr_hw::HwError::NoFeatureLoaded.into();
        assert!(matches!(hw, DecodeError::Hardware(_)));
        // The typed source survives the conversion.
        use std::error::Error;
        assert!(hw.source().is_some());
        let ac: DecodeError = asr_acoustic::AcousticError::UnknownId("senone#9".into()).into();
        assert!(matches!(ac, DecodeError::Acoustic(_)));
        assert!(ac.source().is_some());
        let lx: DecodeError = asr_lexicon::LexiconError::UnknownWord("zz".into()).into();
        assert!(matches!(lx, DecodeError::Lexicon(_)));
        assert!(lx.to_string().contains("zz"));
    }
}
