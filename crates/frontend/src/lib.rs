//! # asr-frontend — acoustic feature extraction (the paper's "Frontend" stage)
//!
//! The paper's system runs the frontend in software on the embedded host
//! processor: "The prime function of the Frontend is to divide the input
//! speech into blocks (time intervals) and from each block, derive a
//! smoothened spectral estimate.  The intervals are typically spaced 10 msecs.
//! Blocks are overlapped to give a longer analysis window, typically 25
//! msecs."  The authors extracted feature vectors with the Sphinx-3 frontend;
//! this crate re-implements an equivalent MFCC pipeline from scratch:
//!
//! 1. pre-emphasis (`y[n] = x[n] − 0.97·x[n−1]`),
//! 2. framing into 25 ms windows every 10 ms,
//! 3. Hamming window,
//! 4. real-input radix-2 FFT → power spectrum,
//! 5. mel-scale triangular filter bank,
//! 6. log compression,
//! 7. DCT-II → cepstral coefficients,
//! 8. cepstral mean normalisation,
//! 9. delta and delta-delta appending → 39-dimensional feature vectors.
//!
//! # Example
//!
//! ```
//! use asr_frontend::{Frontend, FrontendConfig};
//!
//! let config = FrontendConfig::default();
//! let frontend = Frontend::new(config.clone()).unwrap();
//! // 0.5 s of a 440 Hz tone at 16 kHz
//! let samples: Vec<f32> = (0..8000)
//!     .map(|n| (2.0 * std::f32::consts::PI * 440.0 * n as f32 / 16000.0).sin())
//!     .collect();
//! let features = frontend.process(&samples);
//! assert!(!features.is_empty());
//! assert_eq!(features[0].len(), config.feature_dim());
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod cmn;
pub mod config;
pub mod delta;
pub mod dsp;
pub mod mfcc;

pub use cmn::CepstralMeanNorm;
pub use config::{FrontendConfig, FrontendError};
pub use delta::DeltaComputer;
pub use mfcc::{Frontend, MfccExtractor, MfccScratch};

/// A single acoustic feature vector (one 10 ms frame).
pub type FeatureVector = Vec<f32>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Frontend>();
        assert_send_sync::<FrontendConfig>();
        assert_send_sync::<CepstralMeanNorm>();
    }
}
