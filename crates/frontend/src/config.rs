//! Frontend configuration.

use core::fmt;

/// Errors produced while configuring or running the frontend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrontendError {
    /// The configuration contained an invalid value.
    InvalidConfig(String),
}

impl fmt::Display for FrontendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrontendError::InvalidConfig(msg) => write!(f, "invalid frontend config: {msg}"),
        }
    }
}

impl std::error::Error for FrontendError {}

/// Configuration of the MFCC frontend.
///
/// The frame geometry is the paper's and fixed: 16 kHz input, 25 ms analysis
/// window, 10 ms shift, 40 mel filters, 13 cepstra (the associated
/// constants).  What a caller chooses is which derivatives are appended
/// (deltas and delta-deltas give the 39-dimensional Sphinx vector),
/// cepstral mean normalisation with its live prior, and the dither.
///
/// # Example
///
/// ```
/// use asr_frontend::FrontendConfig;
/// assert_eq!(FrontendConfig::FRAME_LENGTH_SAMPLES, 400);
/// assert_eq!(FrontendConfig::FRAME_SHIFT_SAMPLES, 160);
/// assert_eq!(FrontendConfig::default().feature_dim(), 39);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FrontendConfig {
    /// Whether delta (velocity) coefficients are appended.
    pub use_delta: bool,
    /// Whether delta-delta (acceleration) coefficients are appended.
    pub use_delta_delta: bool,
    /// Whether cepstral mean normalisation is applied per utterance.
    pub cepstral_mean_norm: bool,
    /// Weight, in frames, of the initial mean estimate when CMN runs in
    /// *live* (streaming) mode: the running mean is blended with
    /// [`FrontendConfig::cmn_prior_mean`] as if the prior had already been
    /// observed for this many frames, so early frames are not over-corrected.
    /// 0 trusts the observed running mean immediately.  Ignored by the batch
    /// (whole-utterance) path.
    pub cmn_prior_frames: f64,
    /// Initial per-coefficient mean estimate for live CMN (`None` → zeros).
    /// Must have [`FrontendConfig::NUM_CEPSTRA`] entries when set.  Ignored
    /// by the batch path.
    pub cmn_prior_mean: Option<Vec<f64>>,
    /// Dither amplitude added to the signal to avoid log(0) on digital
    /// silence, in `[0, FrontendConfig::MAX_DITHER]`.
    pub dither: f32,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        FrontendConfig {
            use_delta: true,
            use_delta_delta: true,
            cepstral_mean_norm: true,
            cmn_prior_frames: 100.0,
            cmn_prior_mean: None,
            dither: 1.0e-6,
        }
    }
}

impl FrontendConfig {
    /// Input sample rate in Hz.
    pub const SAMPLE_RATE_HZ: u32 = 16_000;
    /// Analysis window length in milliseconds (the paper: "typically 25
    /// msecs").
    pub const FRAME_LENGTH_MS: f32 = 25.0;
    /// Frame shift in milliseconds (the paper: "typically spaced 10 msecs").
    /// It is the decoder's frame period, `asr_acoustic::FRAME_PERIOD_S`; the
    /// streaming layer asserts the two equal at compile time.
    pub const FRAME_SHIFT_MS: f32 = 10.0;
    /// Pre-emphasis coefficient: `y[n] = x[n] − 0.97·x[n−1]`.
    pub const PRE_EMPHASIS: f32 = 0.97;
    /// Number of triangular mel filters.
    pub const NUM_MEL_FILTERS: usize = 40;
    /// Number of cepstral coefficients kept after the DCT (including C0).
    pub const NUM_CEPSTRA: usize = 13;
    /// Lowest filterbank edge frequency in Hz (Sphinx-3's wideband default).
    pub const LOW_FREQ_HZ: f32 = 133.333_3;
    /// Highest filterbank edge frequency in Hz (Sphinx-3's wideband
    /// default, below the 8 kHz Nyquist frequency).
    pub const HIGH_FREQ_HZ: f32 = 6_855.5;
    /// Frames on each side of the delta regression window.
    pub const DELTA_WINDOW: usize = 2;
    /// Analysis window length in samples (exact: 25 ms at 16 kHz).
    pub const FRAME_LENGTH_SAMPLES: usize =
        (Self::SAMPLE_RATE_HZ as f32 * Self::FRAME_LENGTH_MS / 1000.0) as usize;
    /// Frame shift in samples (exact: 10 ms at 16 kHz).
    pub const FRAME_SHIFT_SAMPLES: usize =
        (Self::SAMPLE_RATE_HZ as f32 * Self::FRAME_SHIFT_MS / 1000.0) as usize;
    /// FFT size: the smallest power of two that holds one analysis window.
    pub const FFT_SIZE: usize = Self::FRAME_LENGTH_SAMPLES.next_power_of_two();
    /// The largest accepted dither: the full scale of the `[-1, 1]` input the
    /// frontend expects.  A larger dither drowns the signal, and a dither
    /// near `f32::MAX` overflows the power spectrum to non-finite features.
    pub const MAX_DITHER: f32 = 1.0;

    /// Dimension of the final feature vector
    /// (cepstra, optionally + deltas + delta-deltas).
    pub fn feature_dim(&self) -> usize {
        let mut dim = Self::NUM_CEPSTRA;
        if self.use_delta {
            dim += Self::NUM_CEPSTRA;
        }
        if self.use_delta_delta {
            dim += Self::NUM_CEPSTRA;
        }
        dim
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FrontendError::InvalidConfig`] for a dither outside
    /// `[0, MAX_DITHER]`, a negative or non-finite CMN prior weight, or a CMN
    /// prior mean with the wrong length or a non-finite entry.
    pub fn validate(&self) -> Result<(), FrontendError> {
        if !(0.0..=Self::MAX_DITHER).contains(&self.dither) {
            return Err(FrontendError::InvalidConfig(format!(
                "dither must be in [0, {}]",
                Self::MAX_DITHER
            )));
        }
        if !self.cmn_prior_frames.is_finite() || self.cmn_prior_frames < 0.0 {
            return Err(FrontendError::InvalidConfig(
                "cmn_prior_frames must be finite and non-negative".into(),
            ));
        }
        if let Some(prior) = &self.cmn_prior_mean {
            if prior.len() != Self::NUM_CEPSTRA {
                return Err(FrontendError::InvalidConfig(format!(
                    "cmn_prior_mean has {} entries but there are {} cepstra",
                    prior.len(),
                    Self::NUM_CEPSTRA
                )));
            }
            if prior.iter().any(|v| !v.is_finite()) {
                return Err(FrontendError::InvalidConfig(
                    "cmn_prior_mean entries must be finite".into(),
                ));
            }
        }
        Ok(())
    }

    /// Builds the live (streaming) CMN normaliser this configuration
    /// describes, over [`FrontendConfig::NUM_CEPSTRA`] coefficients.
    ///
    /// # Panics
    ///
    /// Panics on an invalid prior; call [`FrontendConfig::validate`] first
    /// (every frontend constructor does).
    pub fn live_cmn(&self) -> crate::CepstralMeanNorm {
        crate::CepstralMeanNorm::with_prior(
            Self::NUM_CEPSTRA,
            self.cmn_prior_frames,
            self.cmn_prior_mean.clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_frame_geometry() {
        let cfg = FrontendConfig::default();
        cfg.validate().unwrap();
        assert_eq!(FrontendConfig::FRAME_LENGTH_SAMPLES, 400); // 25 ms @ 16 kHz
        assert_eq!(FrontendConfig::FRAME_SHIFT_SAMPLES, 160); // 10 ms @ 16 kHz
        assert_eq!(FrontendConfig::FFT_SIZE, 512);
        assert_eq!(cfg.feature_dim(), 39);
    }

    #[test]
    fn feature_dim_combinations() {
        let mut cfg = FrontendConfig {
            use_delta: false,
            use_delta_delta: false,
            ..FrontendConfig::default()
        };
        assert_eq!(cfg.feature_dim(), 13);
        cfg.use_delta = true;
        assert_eq!(cfg.feature_dim(), 26);
        cfg.use_delta_delta = true;
        assert_eq!(cfg.feature_dim(), 39);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let base = FrontendConfig::default();
        for dither in [
            -1.0,
            f32::NAN,
            f32::INFINITY,
            FrontendConfig::MAX_DITHER * 1.001,
            1.0e30,
        ] {
            let c = FrontendConfig {
                dither,
                ..base.clone()
            };
            assert!(c.validate().is_err(), "dither {dither}");
        }
        for dither in [0.0, FrontendConfig::MAX_DITHER] {
            FrontendConfig {
                dither,
                ..base.clone()
            }
            .validate()
            .unwrap();
        }
        let mut c = base.clone();
        c.cmn_prior_frames = -1.0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.cmn_prior_frames = f64::NAN;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.cmn_prior_mean = Some(vec![0.0; 3]); // needs NUM_CEPSTRA = 13 entries
        assert!(c.validate().is_err());
        let mut c = base;
        c.cmn_prior_mean = Some(vec![f64::INFINITY; 13]);
        assert!(c.validate().is_err());
    }

    #[test]
    fn live_cmn_builder_applies_the_configured_prior() {
        let cfg = FrontendConfig {
            cmn_prior_frames: 25.0,
            cmn_prior_mean: Some(vec![1.5; 13]),
            ..FrontendConfig::default()
        };
        cfg.validate().unwrap();
        let cmn = cfg.live_cmn();
        assert_eq!(cmn.dim(), 13);
        assert_eq!(cmn.prior_frames(), 25.0);
        assert_eq!(cmn.prior_mean(), &[1.5f64; 13][..]);
        // The default prior matches the historical hardcoded values.
        let default_cmn = FrontendConfig::default().live_cmn();
        assert_eq!(default_cmn.prior_frames(), 100.0);
        assert!(default_cmn.prior_mean().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn error_display() {
        let e = FrontendError::InvalidConfig("boom".into());
        assert!(e.to_string().contains("boom"));
    }
}
