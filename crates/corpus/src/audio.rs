//! Waveform synthesis, so the MFCC frontend can be exercised from raw audio.
//!
//! Each phone is rendered as a sum of a few sinusoids at phone-specific
//! "formant" frequencies with an amplitude envelope — not natural speech, but
//! a signal whose short-time spectrum is stable within a phone and distinct
//! across phones, which is exactly the property the frontend + acoustic-model
//! pipeline relies on.

use asr_acoustic::PhoneId;
use asr_frontend::FrontendConfig;
use asr_lexicon::{Dictionary, WordId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sample rate of the rendered audio: the frontend's.
const SAMPLE_RATE_HZ: f32 = FrontendConfig::SAMPLE_RATE_HZ as f32;

/// Renders phone sequences to PCM samples at the frontend's 16 kHz.
#[derive(Debug, Clone)]
pub struct AudioSynthesizer {
    phone_duration_s: f32,
    noise_amplitude: f32,
}

impl AudioSynthesizer {
    /// Creates a synthesiser.
    ///
    /// # Panics
    ///
    /// Panics if the phone duration is not positive.
    pub fn new(phone_duration_s: f32, noise_amplitude: f32) -> Self {
        assert!(phone_duration_s > 0.0, "phone duration must be positive");
        AudioSynthesizer {
            phone_duration_s,
            noise_amplitude: noise_amplitude.max(0.0),
        }
    }

    /// A 16 kHz synthesiser with 120 ms phones and mild noise.
    pub fn default_16khz() -> Self {
        Self::new(0.12, 0.01)
    }

    /// The three "formant" frequencies assigned to a phone (deterministic in
    /// the phone id, spread over 200–3800 Hz).
    pub fn formants(&self, phone: PhoneId) -> [f32; 3] {
        let p = phone.index() as f32;
        [
            200.0 + 67.0 * p,
            900.0 + 41.0 * ((p * 7.0) % 51.0),
            2200.0 + 29.0 * ((p * 13.0) % 51.0),
        ]
    }

    /// Renders one phone.
    pub fn render_phone(&self, phone: PhoneId, rng: &mut StdRng) -> Vec<f32> {
        let n = (SAMPLE_RATE_HZ * self.phone_duration_s) as usize;
        let formants = self.formants(phone);
        let amps = [0.6f32, 0.3, 0.15];
        (0..n)
            .map(|i| {
                let t = i as f32 / SAMPLE_RATE_HZ;
                // Attack/decay envelope avoids clicks at phone boundaries.
                let env = (i.min(n - i) as f32 / (0.1 * n as f32)).min(1.0);
                let tone: f32 = formants
                    .iter()
                    .zip(&amps)
                    .map(|(&f, &a)| a * (2.0 * std::f32::consts::PI * f * t).sin())
                    .sum();
                let noise = (rng.gen::<f32>() - 0.5) * 2.0 * self.noise_amplitude;
                env * tone + noise
            })
            .collect()
    }

    /// Renders a phone sequence.
    pub fn render_phones(&self, phones: &[PhoneId], seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::new();
        for &p in phones {
            out.extend(self.render_phone(p, &mut rng));
        }
        out
    }

    /// Renders a word sequence by concatenating its pronunciations (with a
    /// short silence gap between words).
    pub fn render_words(&self, dictionary: &Dictionary, words: &[WordId], seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let gap = vec![0.0f32; (SAMPLE_RATE_HZ * 0.03) as usize];
        let mut out = Vec::new();
        for &w in words {
            if let Some(pron) = dictionary.pronunciation(w) {
                for &p in pron.phones() {
                    out.extend(self.render_phone(p, &mut rng));
                }
            }
            out.extend_from_slice(&gap);
        }
        out
    }
}

impl Default for AudioSynthesizer {
    fn default() -> Self {
        Self::default_16khz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asr_frontend::{Frontend, FrontendConfig};
    use asr_lexicon::Pronunciation;

    #[test]
    fn renders_expected_length() {
        let synth = AudioSynthesizer::default_16khz();
        let mut rng = StdRng::seed_from_u64(0);
        let samples = synth.render_phone(PhoneId(3), &mut rng);
        assert_eq!(samples.len(), (16_000.0f32 * 0.12) as usize);
        assert!(samples.iter().all(|s| s.is_finite() && s.abs() <= 1.5));
        let seq = synth.render_phones(&[PhoneId(1), PhoneId(2), PhoneId(3)], 1);
        assert_eq!(seq.len(), 3 * samples.len());
    }

    #[test]
    fn different_phones_have_different_spectra() {
        let synth = AudioSynthesizer::new(0.1, 0.0);
        let a = synth.formants(PhoneId(1));
        let b = synth.formants(PhoneId(30));
        assert_ne!(a, b);
        // Their MFCCs differ substantially.
        let cfg = FrontendConfig {
            cepstral_mean_norm: false,
            use_delta: false,
            use_delta_delta: false,
            ..FrontendConfig::default()
        };
        let fe = Frontend::new(cfg).unwrap();
        let fa = fe.process(&synth.render_phones(&[PhoneId(1)], 2));
        let fb = fe.process(&synth.render_phones(&[PhoneId(30)], 2));
        let mean = |fs: &Vec<Vec<f32>>| -> Vec<f32> {
            let mut m = vec![0.0f32; 13];
            for f in fs {
                for d in 0..13 {
                    m[d] += f[d] / fs.len() as f32;
                }
            }
            m
        };
        let dist: f32 = mean(&fa)
            .iter()
            .zip(&mean(&fb))
            .map(|(x, y)| (x - y).powi(2))
            .sum();
        assert!(dist > 0.5, "{dist}");
    }

    #[test]
    fn renders_words_with_gaps() {
        let mut dict = Dictionary::new();
        dict.add_word("ab", Pronunciation::new(vec![PhoneId(1), PhoneId(2)]))
            .unwrap();
        let synth = AudioSynthesizer::default_16khz();
        let audio = synth.render_words(&dict, &[WordId(0), WordId(0)], 3);
        // 2 words × 2 phones × 0.12 s + 2 gaps × 0.03 s.
        let expected = 2 * 2 * (16_000.0f32 * 0.12) as usize + 2 * (16_000.0f32 * 0.03) as usize;
        assert_eq!(audio.len(), expected);
        // Unknown word ids are skipped gracefully.
        let only_gap = synth.render_words(&dict, &[WordId(9)], 3);
        assert_eq!(only_gap.len(), (16_000.0f32 * 0.03) as usize);
    }
}
