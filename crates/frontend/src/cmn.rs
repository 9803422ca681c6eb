//! Cepstral mean normalisation (CMN).
//!
//! Subtracting the per-utterance mean of each cepstral coefficient removes
//! stationary channel effects (microphone colouration).  Two modes are
//! provided: batch (whole utterance available, used by the offline decoder)
//! and live (running mean, used when streaming frames into the accelerator in
//! real time as the paper's system does).

/// Batch and streaming cepstral mean normalisation.
#[derive(Debug, Clone)]
pub struct CepstralMeanNorm {
    dim: usize,
    running_sum: Vec<f64>,
    count: u64,
    /// Prior weight (in frames) given to the initial mean estimate when
    /// streaming, so early frames are not over-corrected.
    prior_frames: f64,
    prior_mean: Vec<f64>,
}

impl CepstralMeanNorm {
    /// Creates a normaliser for `dim`-dimensional cepstra with the default
    /// prior: 100 frames of weight at a zero mean.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        Self::with_prior(dim, 100.0, None)
    }

    /// Creates a normaliser with an explicit streaming prior: the initial
    /// mean estimate (`None` → zeros) and the weight, in frames, it carries
    /// against observed data.  A `prior_frames` of 0 trusts the observed
    /// running mean immediately — the setting whose frame-by-frame behaviour
    /// is pinned against batch CMN by this module's equivalence test.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`, if `prior_frames` is negative or non-finite, or
    /// if a supplied `prior_mean` has the wrong dimension or non-finite
    /// values ([`crate::FrontendConfig::validate`] rejects such configs
    /// before they reach this constructor).
    pub fn with_prior(dim: usize, prior_frames: f64, prior_mean: Option<Vec<f64>>) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert!(
            prior_frames.is_finite() && prior_frames >= 0.0,
            "prior_frames must be finite and non-negative"
        );
        let prior_mean = prior_mean.unwrap_or_else(|| vec![0.0; dim]);
        assert_eq!(prior_mean.len(), dim, "inconsistent prior dimension");
        assert!(
            prior_mean.iter().all(|v| v.is_finite()),
            "prior mean must be finite"
        );
        CepstralMeanNorm {
            dim,
            running_sum: vec![0.0; dim],
            count: 0,
            prior_frames,
            prior_mean,
        }
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The prior weight in frames.
    pub fn prior_frames(&self) -> f64 {
        self.prior_frames
    }

    /// The current prior mean (updated by
    /// [`CepstralMeanNorm::reset_between_utterances`]).
    pub fn prior_mean(&self) -> &[f64] {
        &self.prior_mean
    }

    /// Number of frames accumulated so far in streaming mode.
    pub fn frames_seen(&self) -> u64 {
        self.count
    }

    /// Normalises a whole utterance in place: subtracts the utterance mean of
    /// each coefficient.
    ///
    /// # Panics
    ///
    /// Panics if any frame has the wrong dimension.
    pub fn normalize_batch(frames: &mut [Vec<f32>]) {
        if frames.is_empty() {
            return;
        }
        let dim = frames[0].len();
        let mut mean = vec![0.0f64; dim];
        for f in frames.iter() {
            assert_eq!(f.len(), dim, "inconsistent feature dimension");
            for (m, &v) in mean.iter_mut().zip(f) {
                *m += v as f64;
            }
        }
        for m in &mut mean {
            *m /= frames.len() as f64;
        }
        for f in frames.iter_mut() {
            for (v, &m) in f.iter_mut().zip(&mean) {
                *v -= m as f32;
            }
        }
    }

    /// Streaming normalisation: subtracts the current running-mean estimate
    /// and then updates it with the new frame.
    ///
    /// # Panics
    ///
    /// Panics if the frame has the wrong dimension.
    pub fn normalize_live(&mut self, frame: &mut [f32]) {
        assert_eq!(frame.len(), self.dim, "inconsistent feature dimension");
        // Current estimate = (prior + observed) / (prior_frames + count)
        let total = self.prior_frames + self.count as f64;
        for (i, v) in frame.iter_mut().enumerate() {
            let mean =
                (self.prior_mean[i] * self.prior_frames + self.running_sum[i]) / total.max(1.0);
            let original = *v as f64;
            *v = (original - mean) as f32;
            self.running_sum[i] += original;
        }
        self.count += 1;
    }

    /// Resets the streaming state (e.g. between utterances), keeping the last
    /// utterance's mean as the prior for the next one, which is how Sphinx's
    /// `cmn prior` mode behaves.
    pub fn reset_between_utterances(&mut self) {
        if self.count > 0 {
            for i in 0..self.dim {
                self.prior_mean[i] = self.running_sum[i] / self.count as f64;
            }
        }
        self.running_sum.fill(0.0);
        self.count = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn batch_mean_is_zero_after_normalisation() {
        let mut frames: Vec<Vec<f32>> = (0..50)
            .map(|t| vec![t as f32, 5.0, -3.0 + 0.1 * t as f32])
            .collect();
        CepstralMeanNorm::normalize_batch(&mut frames);
        for d in 0..3 {
            let mean: f32 = frames.iter().map(|f| f[d]).sum::<f32>() / frames.len() as f32;
            assert!(mean.abs() < 1e-4, "dim {d} mean {mean}");
        }
    }

    #[test]
    fn batch_empty_is_noop() {
        let mut frames: Vec<Vec<f32>> = Vec::new();
        CepstralMeanNorm::normalize_batch(&mut frames);
        assert!(frames.is_empty());
    }

    #[test]
    fn live_converges_to_batch() {
        let mut cmn = CepstralMeanNorm::new(2);
        // Long stationary signal with mean (3, -1): late frames should come out
        // close to zero-mean.
        let mut last = [0.0f32; 2];
        for _ in 0..5000 {
            let mut frame = vec![3.0f32, -1.0];
            cmn.normalize_live(&mut frame);
            last = [frame[0], frame[1]];
        }
        // The fixed prior weight (100 frames at zero) leaves a small residual
        // bias of mean * prior/(prior + n) ≈ 0.06 after 5000 frames.
        assert!(last[0].abs() < 0.1, "{}", last[0]);
        assert!(last[1].abs() < 0.1, "{}", last[1]);
        assert_eq!(cmn.frames_seen(), 5000);
        assert_eq!(cmn.dim(), 2);
    }

    #[test]
    fn reset_carries_prior() {
        let mut cmn = CepstralMeanNorm::new(1);
        for _ in 0..1000 {
            let mut f = vec![10.0f32];
            cmn.normalize_live(&mut f);
        }
        cmn.reset_between_utterances();
        assert_eq!(cmn.frames_seen(), 0);
        // First frame of the next utterance benefits from the learned prior.
        let mut f = vec![10.0f32];
        cmn.normalize_live(&mut f);
        assert!(
            f[0].abs() < 1.0,
            "prior should nearly cancel the mean, got {}",
            f[0]
        );
    }

    #[test]
    fn explicit_prior_is_used_and_exposed() {
        let mut cmn = CepstralMeanNorm::with_prior(2, 50.0, Some(vec![4.0, -2.0]));
        assert_eq!(cmn.prior_frames(), 50.0);
        assert_eq!(cmn.prior_mean(), &[4.0, -2.0]);
        // The very first frame is corrected by the supplied prior mean.
        let mut f = vec![4.0f32, -2.0];
        cmn.normalize_live(&mut f);
        assert!(f[0].abs() < 1e-5 && f[1].abs() < 1e-5, "{f:?}");
    }

    #[test]
    fn zero_prior_trusts_observations_immediately() {
        let mut cmn = CepstralMeanNorm::with_prior(1, 0.0, None);
        // First frame: no estimate yet, passes through unchanged.
        let mut f = vec![6.0f32];
        cmn.normalize_live(&mut f);
        assert_eq!(f[0], 6.0);
        // Second frame: the running mean (exactly 6.0) is subtracted in full,
        // with no prior pulling the estimate toward zero.
        let mut g = vec![6.0f32];
        cmn.normalize_live(&mut g);
        assert!(g[0].abs() < 1e-6, "{}", g[0]);
    }

    /// The satellite equivalence property: live CMN with `prior_frames = 0`
    /// fed frame by frame converges to batch CMN on the same utterance — the
    /// foundation of the streaming frontend's stream≈offline behaviour.  The
    /// early frames differ by construction (the running mean has seen less
    /// data); after a burn-in the gap must be small, and the *mean* over the
    /// whole utterance must agree tightly.
    #[test]
    fn live_cmn_with_zero_prior_matches_batch_cmn_frame_by_frame() {
        // A deterministic quasi-stationary utterance: a fixed offset per
        // dimension plus small bounded oscillation (what stationary channel
        // colouration plus speech modulation looks like to CMN).
        let dim = 4;
        let n = 400;
        let utterance: Vec<Vec<f32>> = (0..n)
            .map(|t| {
                (0..dim)
                    .map(|d| {
                        let offset = [5.0f32, -3.0, 0.5, 12.0][d];
                        offset + 0.3 * ((0.7 * t as f32 + d as f32).sin())
                    })
                    .collect()
            })
            .collect();

        let mut batch = utterance.clone();
        CepstralMeanNorm::normalize_batch(&mut batch);

        let mut cmn = CepstralMeanNorm::with_prior(dim, 0.0, None);
        let live: Vec<Vec<f32>> = utterance
            .iter()
            .map(|f| {
                let mut frame = f.clone();
                cmn.normalize_live(&mut frame);
                frame
            })
            .collect();

        // After burn-in, every frame agrees within a small tolerance.
        for (t, (l, b)) in live.iter().zip(&batch).enumerate().skip(n / 4) {
            for d in 0..dim {
                assert!(
                    (l[d] - b[d]).abs() < 0.05,
                    "frame {t} dim {d}: live {} vs batch {}",
                    l[d],
                    b[d]
                );
            }
        }
        // And the settled-region means agree even more tightly (the early
        // frames carry the running mean's warm-up bias by construction).
        for d in 0..dim {
            let mean = |fs: &[Vec<f32>]| {
                fs[n / 4..].iter().map(|f| f[d]).sum::<f32>() / (n - n / 4) as f32
            };
            assert!((mean(&live) - mean(&batch)).abs() < 0.02, "dim {d}");
        }
    }

    #[test]
    #[should_panic(expected = "prior_frames")]
    fn negative_prior_frames_panics() {
        CepstralMeanNorm::with_prior(2, -1.0, None);
    }

    #[test]
    #[should_panic(expected = "inconsistent prior dimension")]
    fn wrong_prior_dim_panics() {
        CepstralMeanNorm::with_prior(2, 10.0, Some(vec![0.0; 3]));
    }

    #[test]
    #[should_panic(expected = "dimension")]
    fn wrong_dim_panics() {
        let mut cmn = CepstralMeanNorm::new(3);
        cmn.normalize_live(&mut [0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "dimension must be positive")]
    fn zero_dim_panics() {
        CepstralMeanNorm::new(0);
    }

    proptest! {
        #[test]
        fn prop_batch_zero_mean(rows in proptest::collection::vec(
            proptest::collection::vec(-10.0f32..10.0, 4), 1..40)) {
            let mut frames = rows;
            CepstralMeanNorm::normalize_batch(&mut frames);
            for d in 0..4 {
                let mean: f32 = frames.iter().map(|f| f[d]).sum::<f32>() / frames.len() as f32;
                prop_assert!(mean.abs() < 1e-3);
            }
        }

        #[test]
        fn prop_batch_preserves_variance(rows in proptest::collection::vec(
            proptest::collection::vec(-10.0f32..10.0, 3), 2..40)) {
            let original = rows.clone();
            let mut frames = rows;
            CepstralMeanNorm::normalize_batch(&mut frames);
            // CMN is a shift: pairwise differences are untouched.
            for t in 1..frames.len() {
                for d in 0..3 {
                    let before = original[t][d] - original[t - 1][d];
                    let after = frames[t][d] - frames[t - 1][d];
                    prop_assert!((before - after).abs() < 1e-3);
                }
            }
        }
    }
}
