//! # asr-acoustic — senones, Gaussian mixtures and triphone HMMs
//!
//! The acoustic-model substrate of the SOCC 2006 low-power LVCSR architecture.
//! In the paper the acoustic model lives in flash memory and is streamed into
//! the Observation Probability unit every frame; it consists of
//!
//! * **senones** — tied HMM states, each modelled by a mixture of diagonal-
//!   covariance Gaussians over the 39-dimensional feature vector
//!   (the paper's system uses 6 000 senones with 8 mixture components),
//! * **triphones** — context-dependent phones whose 3/5/7 emitting states map
//!   onto senones,
//! * **HMM topologies** — left-to-right transition structures with self loops,
//!   solved by the hardware Viterbi unit.
//!
//! The crate also provides the flash storage layout (so the memory /
//! bandwidth table of the paper can be regenerated), mantissa quantisation of
//! model parameters, and a small k-means + EM trainer used by the synthetic
//! corpus generator.
//!
//! # Example
//!
//! ```
//! use asr_acoustic::{AcousticModelConfig, DiagGaussian, GaussianMixture};
//!
//! let g = DiagGaussian::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
//! let mix = GaussianMixture::new(vec![(1.0, g)]).unwrap();
//! let at_mean = mix.log_likelihood(&[0.0, 0.0]);
//! let far = mix.log_likelihood(&[5.0, 5.0]);
//! assert!(at_mean.raw() > far.raw());
//!
//! let cfg = AcousticModelConfig::paper_default();
//! assert_eq!(cfg.num_senones, 6000);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod gmm;
pub mod hmm;
pub mod model;
pub mod quantize;
pub mod senone;
pub mod storage;
pub mod trainer;
pub mod triphone;

pub use gmm::{DiagGaussian, GaussianMixture};
pub use hmm::{HmmTopology, TransitionMatrix};
pub use model::{AcousticModel, AcousticModelConfig};
pub use quantize::quantize_model;
pub use senone::{Senone, SenoneId, SenonePool};
pub use storage::{FlashImage, StorageLayout};
pub use trainer::{GmmTrainer, TrainerConfig};
pub use triphone::{PhoneId, Triphone, TriphoneId, TriphoneInventory};

/// Speech frame period in seconds: one feature vector every 10 ms, the
/// period over which the paper re-reads the model from flash and budgets the
/// machine's cycles, power and bandwidth.
pub const FRAME_PERIOD_S: f64 = 0.010;

/// Errors produced by acoustic-model construction and evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum AcousticError {
    /// A Gaussian was constructed with inconsistent or empty dimensions.
    DimensionMismatch {
        /// Expected dimension.
        expected: usize,
        /// Dimension that was supplied.
        got: usize,
    },
    /// A variance or mixture weight was non-positive or otherwise invalid.
    InvalidParameter(String),
    /// A senone, triphone or phone identifier was out of range.
    UnknownId(String),
    /// A flash image could not be decoded.
    CorruptImage(String),
}

impl core::fmt::Display for AcousticError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AcousticError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            AcousticError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            AcousticError::UnknownId(msg) => write!(f, "unknown identifier: {msg}"),
            AcousticError::CorruptImage(msg) => write!(f, "corrupt flash image: {msg}"),
        }
    }
}

impl std::error::Error for AcousticError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        assert!(AcousticError::DimensionMismatch {
            expected: 39,
            got: 13
        }
        .to_string()
        .contains("39"));
        assert!(AcousticError::InvalidParameter("bad".into())
            .to_string()
            .contains("bad"));
        assert!(AcousticError::UnknownId("senone 9".into())
            .to_string()
            .contains("senone"));
        assert!(AcousticError::CorruptImage("magic".into())
            .to_string()
            .contains("magic"));
    }

    #[test]
    fn types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AcousticModel>();
        assert_send_sync::<SenonePool>();
        assert_send_sync::<TriphoneInventory>();
        assert_send_sync::<AcousticError>();
    }
}
