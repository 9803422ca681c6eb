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
/// The defaults mirror the Sphinx-3 frontend the paper used: 16 kHz input,
/// 25 ms analysis window, 10 ms shift, 40 mel filters, 13 cepstra, deltas and
/// delta-deltas appended for a 39-dimensional feature vector.
///
/// # Example
///
/// ```
/// use asr_frontend::FrontendConfig;
/// let cfg = FrontendConfig::default();
/// assert_eq!(cfg.frame_length_samples(), 400);
/// assert_eq!(cfg.frame_shift_samples(), 160);
/// assert_eq!(cfg.feature_dim(), 39);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FrontendConfig {
    /// Input sample rate in Hz.
    pub sample_rate_hz: u32,
    /// Analysis window length in milliseconds (the paper: "typically 25 msecs").
    pub frame_length_ms: f32,
    /// Frame shift in milliseconds (the paper: "typically spaced 10 msecs").
    pub frame_shift_ms: f32,
    /// Pre-emphasis coefficient (0 disables pre-emphasis).
    pub pre_emphasis: f32,
    /// Number of triangular mel filters.
    pub num_mel_filters: usize,
    /// Number of cepstral coefficients kept after the DCT (including C0).
    pub num_cepstra: usize,
    /// Lowest filterbank edge frequency in Hz.
    pub low_freq_hz: f32,
    /// Highest filterbank edge frequency in Hz (`None` → Nyquist).
    pub high_freq_hz: Option<f32>,
    /// Whether delta (velocity) coefficients are appended.
    pub use_delta: bool,
    /// Whether delta-delta (acceleration) coefficients are appended.
    pub use_delta_delta: bool,
    /// Window (in frames) used on each side when estimating deltas.
    pub delta_window: usize,
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
    /// Must have [`FrontendConfig::num_cepstra`] entries when set.  Ignored
    /// by the batch path.
    pub cmn_prior_mean: Option<Vec<f64>>,
    /// Dither amplitude added to the signal to avoid log(0) on digital silence.
    pub dither: f32,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        FrontendConfig {
            sample_rate_hz: 16_000,
            frame_length_ms: 25.0,
            frame_shift_ms: 10.0,
            pre_emphasis: 0.97,
            num_mel_filters: 40,
            num_cepstra: 13,
            low_freq_hz: 133.333_3,
            high_freq_hz: Some(6_855.5),
            use_delta: true,
            use_delta_delta: true,
            delta_window: 2,
            cepstral_mean_norm: true,
            cmn_prior_frames: 100.0,
            cmn_prior_mean: None,
            dither: 1.0e-6,
        }
    }
}

impl FrontendConfig {
    /// Analysis window length in samples.
    pub fn frame_length_samples(&self) -> usize {
        (self.sample_rate_hz as f32 * self.frame_length_ms / 1000.0).round() as usize
    }

    /// Frame shift in samples.
    pub fn frame_shift_samples(&self) -> usize {
        (self.sample_rate_hz as f32 * self.frame_shift_ms / 1000.0).round() as usize
    }

    /// FFT size: the smallest power of two that holds one analysis window.
    pub fn fft_size(&self) -> usize {
        self.frame_length_samples().next_power_of_two()
    }

    /// Dimension of the final feature vector
    /// (cepstra, optionally + deltas + delta-deltas).
    pub fn feature_dim(&self) -> usize {
        let mut dim = self.num_cepstra;
        if self.use_delta {
            dim += self.num_cepstra;
        }
        if self.use_delta_delta {
            dim += self.num_cepstra;
        }
        dim
    }

    /// Effective upper filterbank edge.
    pub fn effective_high_freq(&self) -> f32 {
        self.high_freq_hz
            .unwrap_or(self.sample_rate_hz as f32 / 2.0)
            .min(self.sample_rate_hz as f32 / 2.0)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FrontendError::InvalidConfig`] when any dimension is zero,
    /// the window is shorter than the shift, or the filterbank edges are
    /// inconsistent with the sample rate.
    pub fn validate(&self) -> Result<(), FrontendError> {
        if self.sample_rate_hz == 0 {
            return Err(FrontendError::InvalidConfig("sample_rate_hz == 0".into()));
        }
        if self.frame_length_ms <= 0.0 || self.frame_shift_ms <= 0.0 {
            return Err(FrontendError::InvalidConfig(
                "frame length and shift must be positive".into(),
            ));
        }
        if self.frame_length_ms < self.frame_shift_ms {
            return Err(FrontendError::InvalidConfig(
                "frame length must be >= frame shift (overlapping blocks)".into(),
            ));
        }
        if self.num_mel_filters == 0 {
            return Err(FrontendError::InvalidConfig("num_mel_filters == 0".into()));
        }
        if self.num_cepstra == 0 || self.num_cepstra > self.num_mel_filters {
            return Err(FrontendError::InvalidConfig(
                "num_cepstra must be in 1..=num_mel_filters".into(),
            ));
        }
        if !(0.0..1.0).contains(&self.pre_emphasis) {
            return Err(FrontendError::InvalidConfig(
                "pre_emphasis must be in [0, 1)".into(),
            ));
        }
        let nyquist = self.sample_rate_hz as f32 / 2.0;
        if self.low_freq_hz < 0.0 || self.low_freq_hz >= nyquist {
            return Err(FrontendError::InvalidConfig(
                "low_freq_hz must be in [0, nyquist)".into(),
            ));
        }
        if let Some(hi) = self.high_freq_hz {
            if hi <= self.low_freq_hz {
                return Err(FrontendError::InvalidConfig(
                    "high_freq_hz must exceed low_freq_hz".into(),
                ));
            }
        }
        if self.use_delta && self.delta_window == 0 {
            return Err(FrontendError::InvalidConfig(
                "delta_window must be >= 1 when deltas are enabled".into(),
            ));
        }
        if !self.cmn_prior_frames.is_finite() || self.cmn_prior_frames < 0.0 {
            return Err(FrontendError::InvalidConfig(
                "cmn_prior_frames must be finite and non-negative".into(),
            ));
        }
        if let Some(prior) = &self.cmn_prior_mean {
            if prior.len() != self.num_cepstra {
                return Err(FrontendError::InvalidConfig(format!(
                    "cmn_prior_mean has {} entries but num_cepstra is {}",
                    prior.len(),
                    self.num_cepstra
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
    /// describes, over [`FrontendConfig::num_cepstra`] coefficients.
    ///
    /// # Panics
    ///
    /// Panics on an invalid prior; call [`FrontendConfig::validate`] first
    /// (every frontend constructor does).
    pub fn live_cmn(&self) -> crate::CepstralMeanNorm {
        crate::CepstralMeanNorm::with_prior(
            self.num_cepstra,
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
        assert_eq!(cfg.frame_length_samples(), 400); // 25 ms @ 16 kHz
        assert_eq!(cfg.frame_shift_samples(), 160); // 10 ms @ 16 kHz
        assert_eq!(cfg.fft_size(), 512);
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
        let mut c = base.clone();
        c.sample_rate_hz = 0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.frame_shift_ms = 30.0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.num_cepstra = 100;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.num_mel_filters = 0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.pre_emphasis = 1.5;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.low_freq_hz = 9_000.0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.high_freq_hz = Some(10.0);
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.delta_window = 0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.frame_length_ms = -1.0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.cmn_prior_frames = -1.0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.cmn_prior_frames = f64::NAN;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.cmn_prior_mean = Some(vec![0.0; 3]); // needs num_cepstra = 13 entries
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
    fn high_freq_clamps_to_nyquist() {
        let mut cfg = FrontendConfig {
            high_freq_hz: Some(100_000.0),
            ..FrontendConfig::default()
        };
        assert_eq!(cfg.effective_high_freq(), 8_000.0);
        cfg.high_freq_hz = None;
        assert_eq!(cfg.effective_high_freq(), 8_000.0);
    }

    #[test]
    fn error_display() {
        let e = FrontendError::InvalidConfig("boom".into());
        assert!(e.to_string().contains("boom"));
    }
}
