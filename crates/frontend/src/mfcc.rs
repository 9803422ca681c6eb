//! The MFCC extraction pipeline and the top-level [`Frontend`].

use crate::cmn::CepstralMeanNorm;
use crate::config::{FrontendConfig, FrontendError};
use crate::delta::DeltaComputer;
use crate::dsp::{hamming_window, pre_emphasis, DctII, Fft, FrameIter, MelFilterBank};
use crate::FeatureVector;

/// Log-mel floor that keeps exact digital silence away from `ln 0`.
const LOG_MEL_FLOOR: f32 = 1.0e-10;

/// Caller-owned working memory of [`MfccExtractor::frame_cepstra`]: the
/// windowed frame, the half-size FFT's `N/2` points as split real and
/// imaginary lanes, the power spectrum and the log-mel energies.  Build it
/// once with [`MfccExtractor::scratch`] and reuse it for every frame, so the
/// kernel allocates nothing.
#[derive(Debug, Clone)]
pub struct MfccScratch {
    windowed: Vec<f32>,
    /// Real lanes, then imaginary lanes, of the FFT's points.
    fft: Vec<f32>,
    spectrum: Vec<f32>,
    log_mel: Vec<f32>,
}

/// Extracts static MFCC vectors (no deltas, no CMN) frame by frame.
///
/// This is the per-frame compute kernel; [`Frontend`] wraps it with
/// pre-emphasis, framing, CMN and delta appending to provide the
/// utterance-level API used by the recogniser.
///
/// # Example
///
/// ```
/// use asr_frontend::{FrontendConfig, MfccExtractor};
/// let extractor = MfccExtractor::new(FrontendConfig::default()).unwrap();
/// let mut scratch = extractor.scratch();
/// let mut cepstra = [0.0f32; 13];
/// extractor.frame_cepstra(&[0.1; 400], &mut scratch, &mut cepstra);
/// assert!(cepstra.iter().all(|c| c.is_finite()));
/// ```
#[derive(Debug, Clone)]
pub struct MfccExtractor {
    config: FrontendConfig,
    window: Vec<f32>,
    fft: Fft,
    filterbank: MelFilterBank,
    dct: DctII,
}

impl MfccExtractor {
    /// Builds the extractor for a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FrontendError::InvalidConfig`] if the configuration fails
    /// validation.
    pub fn new(config: FrontendConfig) -> Result<Self, FrontendError> {
        config.validate()?;
        Ok(MfccExtractor {
            window: hamming_window(FrontendConfig::FRAME_LENGTH_SAMPLES),
            config,
            fft: Fft::new(FrontendConfig::FFT_SIZE).expect("the FFT size is a power of two"),
            filterbank: MelFilterBank::new(
                FrontendConfig::NUM_MEL_FILTERS,
                FrontendConfig::FFT_SIZE,
                FrontendConfig::SAMPLE_RATE_HZ,
                FrontendConfig::LOW_FREQ_HZ,
                FrontendConfig::HIGH_FREQ_HZ,
            ),
            dct: DctII::new(FrontendConfig::NUM_MEL_FILTERS, FrontendConfig::NUM_CEPSTRA),
        })
    }

    /// The configuration this extractor was built with.
    pub fn config(&self) -> &FrontendConfig {
        &self.config
    }

    /// Working memory for [`MfccExtractor::frame_cepstra`].
    pub fn scratch(&self) -> MfccScratch {
        MfccScratch {
            windowed: vec![0.0; self.window.len()],
            fft: vec![0.0; self.fft.size()],
            spectrum: vec![0.0; self.filterbank.num_bins()],
            log_mel: vec![0.0; self.filterbank.num_filters()],
        }
    }

    /// Computes the static cepstra of one frame of (pre-emphasised) samples
    /// into `out`, using `scratch` as working memory.
    ///
    /// # Panics
    ///
    /// Panics if the frame is not exactly one analysis window long or if
    /// `out` does not hold [`FrontendConfig::NUM_CEPSTRA`] values.
    pub fn frame_cepstra(&self, frame: &[f32], scratch: &mut MfccScratch, out: &mut [f32]) {
        assert_eq!(
            frame.len(),
            self.window.len(),
            "frame must be exactly one analysis window"
        );
        for ((w, &s), &h) in scratch.windowed.iter_mut().zip(frame).zip(&self.window) {
            *w = s * h;
        }
        self.fft
            .power_spectrum(&scratch.windowed, &mut scratch.fft, &mut scratch.spectrum);
        self.filterbank
            .apply_log(&scratch.spectrum, LOG_MEL_FLOOR, &mut scratch.log_mel);
        self.dct.apply(&scratch.log_mel, out);
    }
}

/// The complete software frontend of the paper's system: waveform in,
/// 39-dimensional feature vectors out, one per 10 ms.
#[derive(Debug, Clone)]
pub struct Frontend {
    extractor: MfccExtractor,
    delta: DeltaComputer,
}

impl Frontend {
    /// Builds a frontend for a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FrontendError::InvalidConfig`] if the configuration fails
    /// validation.
    pub fn new(config: FrontendConfig) -> Result<Self, FrontendError> {
        Ok(Frontend {
            extractor: MfccExtractor::new(config)?,
            delta: DeltaComputer::new(FrontendConfig::DELTA_WINDOW),
        })
    }

    /// The configuration this frontend was built with.
    pub fn config(&self) -> &FrontendConfig {
        self.extractor.config()
    }

    /// Processes a whole utterance of PCM samples (any amplitude scale) into
    /// feature vectors.  Returns one vector of [`FrontendConfig::feature_dim`]
    /// values per 10 ms frame; utterances shorter than one analysis window
    /// yield an empty result.
    pub fn process(&self, samples: &[f32]) -> Vec<FeatureVector> {
        let cfg = self.extractor.config();
        let mut emphasized = pre_emphasis(samples, FrontendConfig::PRE_EMPHASIS);
        if cfg.dither > 0.0 {
            // Deterministic tiny dither keeps log() away from -inf on exact
            // digital silence without requiring a random source here.
            for (i, v) in emphasized.iter_mut().enumerate() {
                *v += cfg.dither * if i % 2 == 0 { 1.0 } else { -1.0 };
            }
        }
        let mut scratch = self.extractor.scratch();
        let mut cepstra: Vec<Vec<f32>> = FrameIter::new(
            &emphasized,
            FrontendConfig::FRAME_LENGTH_SAMPLES,
            FrontendConfig::FRAME_SHIFT_SAMPLES,
        )
        .map(|frame| {
            let mut c = vec![0.0; FrontendConfig::NUM_CEPSTRA];
            self.extractor.frame_cepstra(frame, &mut scratch, &mut c);
            c
        })
        .collect();
        if cfg.cepstral_mean_norm {
            CepstralMeanNorm::normalize_batch(&mut cepstra);
        }
        self.delta
            .append(&cepstra, cfg.use_delta, cfg.use_delta_delta)
    }

    /// Number of feature frames `process` would produce for `num_samples`
    /// input samples.
    pub fn expected_frames(num_samples: usize) -> usize {
        match num_samples.checked_sub(FrontendConfig::FRAME_LENGTH_SAMPLES) {
            None => 0,
            Some(rest) => rest / FrontendConfig::FRAME_SHIFT_SAMPLES + 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(freq: f32, seconds: f32, rate: u32) -> Vec<f32> {
        (0..(seconds * rate as f32) as usize)
            .map(|n| (2.0 * std::f32::consts::PI * freq * n as f32 / rate as f32).sin())
            .collect()
    }

    #[test]
    fn produces_expected_frame_count_and_dim() {
        let cfg = FrontendConfig::default();
        let fe = Frontend::new(cfg.clone()).unwrap();
        let samples = tone(440.0, 1.0, 16_000);
        let feats = fe.process(&samples);
        assert_eq!(feats.len(), Frontend::expected_frames(samples.len()));
        assert_eq!(feats.len(), 98);
        assert!(feats.iter().all(|f| f.len() == cfg.feature_dim()));
        assert!(feats.iter().flatten().all(|v| v.is_finite()));
    }

    #[test]
    fn short_input_yields_nothing() {
        let fe = Frontend::new(FrontendConfig::default()).unwrap();
        assert!(fe.process(&[0.0; 100]).is_empty());
        assert_eq!(Frontend::expected_frames(100), 0);
    }

    #[test]
    fn silence_produces_finite_features() {
        let fe = Frontend::new(FrontendConfig::default()).unwrap();
        let feats = fe.process(&vec![0.0; 8000]);
        assert!(!feats.is_empty());
        assert!(feats.iter().flatten().all(|v| v.is_finite()));
    }

    #[test]
    fn the_largest_accepted_dither_gives_finite_features() {
        let fe = Frontend::new(FrontendConfig {
            dither: FrontendConfig::MAX_DITHER,
            ..FrontendConfig::default()
        })
        .unwrap();
        let mut samples = tone(440.0, 1.0, 16_000);
        samples.extend(vec![0.0; 8000]);
        let feats = fe.process(&samples);
        assert_eq!(feats.len(), Frontend::expected_frames(samples.len()));
        assert!(feats.iter().flatten().all(|v| v.is_finite()));
    }

    #[test]
    fn different_tones_produce_different_features() {
        let cfg = FrontendConfig {
            cepstral_mean_norm: false,
            ..FrontendConfig::default()
        };
        let fe = Frontend::new(cfg).unwrap();
        let a = fe.process(&tone(300.0, 0.3, 16_000));
        let b = fe.process(&tone(2500.0, 0.3, 16_000));
        // Compare the mean static cepstra of the two tones.
        let mean = |fs: &Vec<Vec<f32>>| -> Vec<f32> {
            let mut m = [0.0f32; 13];
            for f in fs {
                for d in 0..13 {
                    m[d] += f[d];
                }
            }
            m.iter().map(|v| v / fs.len() as f32).collect()
        };
        let (ma, mb) = (mean(&a), mean(&b));
        let dist: f32 = ma.iter().zip(&mb).map(|(x, y)| (x - y).powi(2)).sum();
        assert!(
            dist > 1.0,
            "distinct spectra must give distinct cepstra, dist={dist}"
        );
    }

    #[test]
    fn cmn_removes_gain_differences() {
        let cfg = FrontendConfig::default();
        let fe = Frontend::new(cfg).unwrap();
        let quiet = tone(440.0, 0.3, 16_000);
        let loud: Vec<f32> = quiet.iter().map(|s| s * 20.0).collect();
        let fq = fe.process(&quiet);
        let fl = fe.process(&loud);
        // With CMN, a constant gain (constant offset in log domain / C0) largely
        // cancels: static cepstra should be close.
        let diff: f32 = fq
            .iter()
            .zip(&fl)
            .map(|(a, b)| {
                a[..13]
                    .iter()
                    .zip(&b[..13])
                    .map(|(x, y)| (x - y).powi(2))
                    .sum::<f32>()
            })
            .sum::<f32>()
            / fq.len() as f32;
        assert!(
            diff < 0.5,
            "CMN should suppress gain differences, diff={diff}"
        );
    }

    #[test]
    fn frame_cepstra_requires_full_window() {
        let ex = MfccExtractor::new(FrontendConfig::default()).unwrap();
        let mut out = [f32::NAN; 13];
        ex.frame_cepstra(&[0.0; 400], &mut ex.scratch(), &mut out);
        assert!(out.iter().all(|c| c.is_finite()));
    }

    #[test]
    fn reused_scratch_gives_the_same_cepstra_as_a_fresh_one() {
        let ex = MfccExtractor::new(FrontendConfig::default()).unwrap();
        let a = tone(300.0, 0.025, 16_000);
        let b = tone(2500.0, 0.025, 16_000);
        let mut reused = ex.scratch();
        let (mut first, mut again, mut fresh) = ([0.0; 13], [0.0; 13], [0.0; 13]);
        ex.frame_cepstra(&a, &mut reused, &mut first);
        ex.frame_cepstra(&b, &mut reused, &mut again);
        ex.frame_cepstra(&b, &mut ex.scratch(), &mut fresh);
        assert_eq!(again, fresh);
        assert_ne!(first, again);
    }

    #[test]
    #[should_panic(expected = "analysis window")]
    fn wrong_frame_size_panics() {
        let ex = MfccExtractor::new(FrontendConfig::default()).unwrap();
        ex.frame_cepstra(&[0.0; 100], &mut ex.scratch(), &mut [0.0; 13]);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let cfg = FrontendConfig {
            dither: f32::NAN,
            ..FrontendConfig::default()
        };
        assert!(Frontend::new(cfg.clone()).is_err());
        assert!(MfccExtractor::new(cfg).is_err());
    }

    #[test]
    fn no_delta_configuration() {
        let cfg = FrontendConfig {
            use_delta: false,
            use_delta_delta: false,
            ..FrontendConfig::default()
        };
        let fe = Frontend::new(cfg).unwrap();
        let feats = fe.process(&tone(500.0, 0.2, 16_000));
        assert!(feats.iter().all(|f| f.len() == 13));
    }
}
