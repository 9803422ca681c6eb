//! Mel-scale triangular filter bank.

/// Converts a frequency in Hz to the mel scale.
///
/// Uses the O'Shaughnessy formula `mel = 2595·log10(1 + hz/700)`, the same
/// warping Sphinx-3 uses.
#[inline]
pub fn hz_to_mel(hz: f32) -> f32 {
    2595.0 * (1.0 + hz / 700.0).log10()
}

/// Converts a mel-scale value back to Hz.
#[inline]
pub fn mel_to_hz(mel: f32) -> f32 {
    700.0 * (10.0f32.powf(mel / 2595.0) - 1.0)
}

/// A bank of triangular filters spaced evenly on the mel scale.
///
/// # Example
///
/// ```
/// use asr_frontend::dsp::MelFilterBank;
/// let bank = MelFilterBank::new(40, 512, 16_000, 133.0, 6_855.0);
/// assert_eq!(bank.num_filters(), 40);
/// let spectrum = vec![1.0f32; 257];
/// let mut log_energies = [0.0f32; 40];
/// bank.apply_log(&spectrum, 1e-10, &mut log_energies);
/// // A flat spectrum puts energy into every filter.
/// assert!(log_energies.iter().all(|&e| e > (1e-10f32).ln()));
/// ```
#[derive(Debug, Clone)]
pub struct MelFilterBank {
    num_filters: usize,
    /// Every filter's weights over its span of bins, filter after filter.
    weights: Vec<f32>,
    /// For each filter, its first bin and the end of its run in `weights`;
    /// the run starts where the previous filter's ends.
    spans: Vec<(usize, usize)>,
    num_bins: usize,
}

impl MelFilterBank {
    /// Builds a filter bank.
    ///
    /// * `num_filters` — number of triangular filters.
    /// * `fft_size` — FFT length used to produce the power spectrum; the bank
    ///   expects `fft_size / 2 + 1` bins.
    /// * `sample_rate_hz` — input sample rate.
    /// * `low_hz` / `high_hz` — edge frequencies of the bank.
    ///
    /// # Panics
    ///
    /// Panics if `num_filters == 0`, `fft_size < 2`, or the frequency range is
    /// empty or exceeds Nyquist.
    pub fn new(
        num_filters: usize,
        fft_size: usize,
        sample_rate_hz: u32,
        low_hz: f32,
        high_hz: f32,
    ) -> Self {
        assert!(num_filters > 0, "num_filters must be positive");
        assert!(fft_size >= 2, "fft_size must be >= 2");
        let nyquist = sample_rate_hz as f32 / 2.0;
        assert!(
            low_hz >= 0.0 && high_hz > low_hz && high_hz <= nyquist + 1.0,
            "invalid filter bank frequency range [{low_hz}, {high_hz}] for nyquist {nyquist}"
        );
        let num_bins = fft_size / 2 + 1;
        let low_mel = hz_to_mel(low_hz);
        let high_mel = hz_to_mel(high_hz);
        // num_filters + 2 edge points evenly spaced in mel.
        let edges_hz: Vec<f32> = (0..num_filters + 2)
            .map(|i| {
                mel_to_hz(low_mel + (high_mel - low_mel) * i as f32 / (num_filters + 1) as f32)
            })
            .collect();
        let hz_per_bin = sample_rate_hz as f32 / fft_size as f32;
        let bin_of = |hz: f32| -> f32 { hz / hz_per_bin };

        let mut weights = Vec::new();
        let mut spans = Vec::with_capacity(num_filters);
        for f in 0..num_filters {
            let left = bin_of(edges_hz[f]);
            let centre = bin_of(edges_hz[f + 1]);
            let right = bin_of(edges_hz[f + 2]);
            let start = left.ceil().max(0.0) as usize;
            let end = (right.floor() as usize).min(num_bins - 1);
            for bin in start..=end {
                let b = bin as f32;
                let w = if b <= centre {
                    if centre > left {
                        (b - left) / (centre - left)
                    } else {
                        0.0
                    }
                } else if right > centre {
                    (right - b) / (right - centre)
                } else {
                    0.0
                };
                weights.push(w.max(0.0));
            }
            // A filter too narrow to cover a bin is empty: pin its start
            // inside the spectrum so its span slices as empty.
            spans.push((start.min(num_bins), weights.len()));
        }
        MelFilterBank {
            num_filters,
            weights,
            spans,
            num_bins,
        }
    }

    /// Number of filters in the bank.
    pub fn num_filters(&self) -> usize {
        self.num_filters
    }

    /// Number of power-spectrum bins the bank expects.
    pub fn num_bins(&self) -> usize {
        self.num_bins
    }

    /// Applies the bank to a power spectrum and log-compresses the energies
    /// (natural log, with `floor` keeping silent frames away from `-inf`),
    /// writing one value per filter into `out`.
    ///
    /// # Panics
    ///
    /// Panics if the spectrum does not have [`MelFilterBank::num_bins`] bins
    /// or `out` does not have [`MelFilterBank::num_filters`] slots.
    pub fn apply_log(&self, power_spectrum: &[f32], floor: f32, out: &mut [f32]) {
        assert_eq!(
            power_spectrum.len(),
            self.num_bins,
            "power spectrum length mismatch"
        );
        assert_eq!(out.len(), self.num_filters, "filter output length mismatch");
        // All the weighted sums first, then all the logs: the sums are short
        // dependent chains that overlap each other only when no `ln` call
        // stands between them.
        let mut from = 0;
        for (o, &(start, to)) in out.iter_mut().zip(&self.spans) {
            let weights = &self.weights[from..to];
            *o = weights
                .iter()
                .zip(&power_spectrum[start..start + weights.len()])
                .map(|(&w, &p)| w * p)
                .sum();
            from = to;
        }
        for o in out.iter_mut() {
            *o = o.max(floor).ln();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mel_conversion_roundtrip() {
        for hz in [0.0f32, 100.0, 440.0, 1000.0, 4000.0, 8000.0] {
            let back = mel_to_hz(hz_to_mel(hz));
            assert!((back - hz).abs() < 0.5, "{hz} -> {back}");
        }
        // 1000 Hz is ~1000 mel by construction of the scale.
        assert!((hz_to_mel(1000.0) - 999.99).abs() < 1.0);
        // Monotonicity.
        assert!(hz_to_mel(200.0) < hz_to_mel(300.0));
    }

    /// Log-mel energies of `spectrum` into a fresh buffer.
    fn log_mel(bank: &MelFilterBank, spectrum: &[f32], floor: f32) -> Vec<f32> {
        let mut out = vec![0.0; bank.num_filters()];
        bank.apply_log(spectrum, floor, &mut out);
        out
    }

    #[test]
    fn bank_shape() {
        let bank = MelFilterBank::new(40, 512, 16_000, 133.33, 6855.5);
        assert_eq!(bank.num_filters(), 40);
        assert_eq!(bank.num_bins(), 257);
        // A zero floor maps an empty filter to -inf: every filter should
        // capture some energy from a flat spectrum.
        let energies = log_mel(&bank, &[1.0; 257], 0.0);
        assert_eq!(energies.len(), 40);
        assert!(energies.iter().all(|&e| e.is_finite()));
    }

    #[test]
    fn filters_respond_to_their_band() {
        let bank = MelFilterBank::new(20, 512, 16_000, 100.0, 8000.0);
        // Put energy only in bin 40 (≈ 1250 Hz); nearby filters should respond,
        // far ones should not.
        let mut spectrum = vec![0.0f32; 257];
        spectrum[40] = 100.0;
        let energies = log_mel(&bank, &spectrum, 0.0);
        let responding: Vec<usize> = energies
            .iter()
            .enumerate()
            .filter(|(_, &e)| e.is_finite())
            .map(|(i, _)| i)
            .collect();
        assert!(!responding.is_empty());
        assert!(
            responding.len() <= 3,
            "at most two adjacent filters overlap a bin"
        );
        // Low and high extremes see nothing.
        assert_eq!(energies[0], f32::NEG_INFINITY);
        assert_eq!(energies[19], f32::NEG_INFINITY);
    }

    #[test]
    fn log_compression_floors_silence() {
        let bank = MelFilterBank::new(10, 256, 16_000, 100.0, 8000.0);
        let log_e = log_mel(&bank, &[0.0; 129], 1e-10);
        assert!(log_e.iter().all(|v| v.is_finite()));
        assert!(log_e.iter().all(|&v| (v - (1e-10f32).ln()).abs() < 1e-3));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_spectrum_length_panics() {
        let bank = MelFilterBank::new(10, 256, 16_000, 100.0, 8000.0);
        bank.apply_log(&[0.0; 10], 1e-10, &mut [0.0; 10]);
    }

    #[test]
    #[should_panic(expected = "filter output length mismatch")]
    fn wrong_output_length_panics() {
        let bank = MelFilterBank::new(10, 256, 16_000, 100.0, 8000.0);
        bank.apply_log(&[0.0; 129], 1e-10, &mut [0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "invalid filter bank frequency range")]
    fn bad_range_panics() {
        MelFilterBank::new(10, 256, 16_000, 5000.0, 1000.0);
    }

    proptest! {
        #[test]
        fn prop_log_energy_respects_the_floor(spec in proptest::collection::vec(0.0f32..10.0, 129)) {
            let bank = MelFilterBank::new(12, 256, 16_000, 100.0, 8000.0);
            let e = log_mel(&bank, &spec, 1e-10);
            prop_assert!(e.iter().all(|&v| v >= (1e-10f32).ln()));
        }

        #[test]
        fn prop_linearity_in_spectrum(spec in proptest::collection::vec(0.0f32..10.0, 129), k in 0.1f32..5.0) {
            // Scaling the spectrum by k shifts every unfloored log energy
            // by ln k.
            let bank = MelFilterBank::new(12, 256, 16_000, 100.0, 8000.0);
            let base = log_mel(&bank, &spec, 0.0);
            let scaled_spec: Vec<f32> = spec.iter().map(|&v| v * k).collect();
            let scaled = log_mel(&bank, &scaled_spec, 0.0);
            for (b, s) in base.iter().zip(&scaled) {
                if b.is_finite() {
                    prop_assert!((b + k.ln() - s).abs() < 1e-3 * (1.0 + b.abs()));
                } else {
                    prop_assert_eq!(*s, f32::NEG_INFINITY);
                }
            }
        }

        #[test]
        fn prop_mel_monotone(a in 0.0f32..8000.0, b in 0.0f32..8000.0) {
            if a < b {
                prop_assert!(hz_to_mel(a) <= hz_to_mel(b));
            }
        }
    }
}
