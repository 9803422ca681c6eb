//! Adversarial streaming scenarios: labelled audio streams that stress the
//! endpointer the way deployed conditions do.
//!
//! The WSN comparative study this repo's PAPERS.md cites shows exactly what
//! breaks fixed-threshold endpointing in the field — non-stationary noise
//! floors, gain variation across microphone distances, clipped radio links.
//! [`ScenarioGenerator`] reproduces each of those conditions as a
//! deterministic waveform built on [`AudioSynthesizer`], and — because the
//! generator *constructs* the stream — every [`Scenario`] carries exact
//! ground truth: where each speech span starts and ends in samples, and what
//! was said.  The workspace's `tests/scenarios.rs` drives every scenario
//! through the full streaming stack and asserts boundaries, offline parity
//! and frame accounting against these labels.
//!
//! The speech content comes from [`ScenarioVoiceTask`]: a small command
//! vocabulary whose acoustic models are *trained from rendered audio* (a
//! k-means/EM recipe the `voice_command` and `multi_model` examples share),
//! so scenario transcripts are meaningful end-to-end — raw samples to word
//! ids — rather than features sampled from the model being scored.

use crate::{AudioSynthesizer, CorpusError};
use asr_acoustic::{
    AcousticModel, AcousticModelConfig, GaussianMixture, GmmTrainer, HmmTopology, PhoneId,
    SenoneId, SenonePool, TrainerConfig, TransitionMatrix, Triphone, TriphoneInventory,
};
use asr_frontend::{Frontend, FrontendConfig};
use asr_lexicon::{Dictionary, NGramModel, Pronunciation, WordId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The scenario command vocabulary: (spelling, phone sequence).  Small enough
/// to train in a test, distinct enough in formant space to decode reliably.
const SCENARIO_WORDS: &[(&str, &[u16])] = &[
    ("open", &[1, 2, 3]),
    ("close", &[4, 5]),
    ("lights", &[6, 7, 8]),
    ("music", &[9, 10, 11]),
    ("warmer", &[12, 13]),
    ("cooler", &[14, 15, 16]),
];

/// A recognition task whose acoustic models were trained from rendered
/// audio, so scenario streams decode to meaningful transcripts.
///
/// Training renders each phone several times with [`AudioSynthesizer`],
/// extracts MFCCs with [`ScenarioVoiceTask::frontend_config`], splits each
/// rendering into thirds (one per HMM state) and fits a 2-component mixture
/// per state.  The `voice_command` and `multi_model` examples decode this
/// task too.
#[derive(Debug, Clone)]
pub struct ScenarioVoiceTask {
    /// Audio-trained acoustic model (3-state Bakis phones, 2-component
    /// mixtures, 13-dim static MFCCs).
    pub acoustic_model: AcousticModel,
    /// The command dictionary ([`SCENARIO_WORDS`](self)).
    pub dictionary: Dictionary,
    /// Uniform language model over the commands.
    pub language_model: NGramModel,
}

impl ScenarioVoiceTask {
    /// The frontend geometry the task was trained with — 13 static cepstra,
    /// no deltas, no CMN (phone models are trained on isolated renderings
    /// whose utterance mean differs from a full command's), no dither (bit
    /// reproducibility).  Streaming this exact configuration is what makes
    /// scenario decodes match the trained models.
    pub fn frontend_config() -> FrontendConfig {
        FrontendConfig {
            use_delta: false,
            use_delta_delta: false,
            cepstral_mean_norm: false,
            dither: 0.0,
            ..FrontendConfig::default()
        }
    }

    /// Trains the task from rendered audio, deterministically in `seed`.
    ///
    /// # Errors
    ///
    /// Propagates acoustic-model and lexicon construction failures as
    /// [`CorpusError::Generation`].
    pub fn train(seed: u64) -> Result<Self, CorpusError> {
        let synth = AudioSynthesizer::default_16khz();
        let fe = Frontend::new(Self::frontend_config())
            .map_err(|e| CorpusError::Generation(e.to_string()))?;
        let dim = fe.config().feature_dim();
        let mut phones: Vec<u16> = SCENARIO_WORDS
            .iter()
            .flat_map(|(_, ph)| ph.iter().copied())
            .collect();
        phones.sort_unstable();
        phones.dedup();
        let num_phones = 1 + *phones.last().expect("vocabulary is non-empty") as usize;

        let trainer = GmmTrainer::new(TrainerConfig {
            num_components: 2,
            kmeans_iterations: 6,
            em_iterations: 3,
            ..TrainerConfig::default()
        });
        let states = 3usize;
        let mut mixtures: Vec<GaussianMixture> = Vec::new();
        let mut inventory = TriphoneInventory::new(HmmTopology::Three);
        for &phone in &phones {
            // Several renderings per phone; each rendering's frames split
            // into three equal thirds, one per HMM state.
            let mut per_state: Vec<Vec<Vec<f32>>> = vec![Vec::new(); states];
            for take in 0..6u64 {
                let audio = synth.render_phones(&[PhoneId(phone)], seed + take * 31 + phone as u64);
                let frames = fe.process(&audio);
                let third = frames.len() / states;
                for (i, f) in frames.into_iter().enumerate() {
                    let state = (i / third.max(1)).min(states - 1);
                    per_state[state].push(f);
                }
            }
            let senone_base = mixtures.len() as u32;
            for state_frames in per_state {
                mixtures.push(trainer.fit(&state_frames)?);
            }
            inventory.add(
                Triphone::context_independent(PhoneId(phone)),
                (0..states as u32)
                    .map(|k| SenoneId(senone_base + k))
                    .collect(),
            )?;
        }
        let num_senones = mixtures.len();
        let acoustic_model = AcousticModel::new(
            AcousticModelConfig {
                num_senones,
                num_components: 2,
                feature_dim: dim,
                topology: HmmTopology::Three,
                num_phones,
                self_loop_prob: 0.7,
            },
            SenonePool::new(mixtures)?,
            inventory,
            TransitionMatrix::bakis(HmmTopology::Three, 0.7)?,
        )?;

        let mut dictionary = Dictionary::new();
        for (spelling, phones) in SCENARIO_WORDS {
            dictionary.add_word(
                spelling,
                Pronunciation::new(phones.iter().map(|&p| PhoneId(p)).collect()),
            )?;
        }
        let language_model = NGramModel::uniform(dictionary.len())?;
        Ok(ScenarioVoiceTask {
            acoustic_model,
            dictionary,
            language_model,
        })
    }
}

/// The adversarial conditions a scenario reproduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioKind {
    /// The noise floor rises steadily under the whole stream (and keeps
    /// rising through a pure-noise tail after the last utterance): a fixed
    /// threshold under the final floor *floods* — everything classifies as
    /// speech — while an adaptive floor must ride the ramp and stay quiet.
    NoiseRampUp,
    /// The noise floor starts high and falls; a late utterance is rendered
    /// quiet (far-talker) so only a threshold that followed the floor *down*
    /// still catches it.
    NoiseRampDown,
    /// Utterances hard-clipped at a fraction of full scale, as a saturated
    /// ADC or radio link produces.
    Clipped,
    /// Far-field capture: speech attenuated to a fraction of its close-talk
    /// level over a faint noise bed.
    FarField,
    /// Two utterances separated by a sub-hangover gap (they must merge into
    /// one endpointed utterance) followed, after a real pause, by a third.
    BackToBack,
    /// A long session of many utterances with ordinary pauses — endurance
    /// for per-utterance state resets (CMN priors, VAD re-arm, decoder
    /// recycling).
    LongSession,
}

impl ScenarioKind {
    /// Every scenario kind, in a fixed order.
    pub const ALL: [ScenarioKind; 6] = [
        ScenarioKind::NoiseRampUp,
        ScenarioKind::NoiseRampDown,
        ScenarioKind::Clipped,
        ScenarioKind::FarField,
        ScenarioKind::BackToBack,
        ScenarioKind::LongSession,
    ];

    /// A stable snake_case name (used in test output and bench ids).
    pub fn name(&self) -> &'static str {
        match self {
            ScenarioKind::NoiseRampUp => "noise_ramp_up",
            ScenarioKind::NoiseRampDown => "noise_ramp_down",
            ScenarioKind::Clipped => "clipped",
            ScenarioKind::FarField => "far_field",
            ScenarioKind::BackToBack => "back_to_back",
            ScenarioKind::LongSession => "long_session",
        }
    }
}

/// One ground-truth speech span: what was said, and exactly where.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeechSpan {
    /// The word ids spoken in this span, in order.
    pub words: Vec<WordId>,
    /// Their spellings.
    pub text: Vec<String>,
    /// First sample of rendered speech (inclusive).
    pub onset_sample: usize,
    /// One past the last sample of rendered speech (the synthesiser's
    /// trailing inter-word gap is *excluded*).
    pub end_sample: usize,
}

/// A labelled adversarial stream: the waveform plus its ground truth.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Which adversarial condition this stream reproduces.
    pub kind: ScenarioKind,
    /// The waveform, in `[-1, 1]`, at [`FrontendConfig::SAMPLE_RATE_HZ`].
    pub samples: Vec<f32>,
    /// Ground-truth speech spans, in stream order, non-overlapping.
    pub spans: Vec<SpeechSpan>,
    /// How far (in seconds) a detected boundary may reasonably sit from the
    /// labelled one for this condition — generous for ramps and far-field
    /// (the tracker needs hops to adapt), tight for clean streams.
    pub boundary_slack_s: f32,
}

impl Scenario {
    /// Stream duration in seconds.
    pub fn duration_s(&self) -> f32 {
        self.samples.len() as f32 / FrontendConfig::SAMPLE_RATE_HZ as f32
    }

    /// The utterances an endpointer bridging gaps up to `merge_gap_samples`
    /// should produce: ground-truth spans whose silence gap is within the
    /// endpointer's hangover merge into one expected utterance.  This makes
    /// the expectation a function of the *detector* configuration, so one
    /// scenario serves any hangover setting.
    pub fn expected_utterances(&self, merge_gap_samples: usize) -> Vec<SpeechSpan> {
        let mut merged: Vec<SpeechSpan> = Vec::new();
        for span in &self.spans {
            match merged.last_mut() {
                Some(last)
                    if span.onset_sample.saturating_sub(last.end_sample) <= merge_gap_samples =>
                {
                    last.words.extend(span.words.iter().copied());
                    last.text.extend(span.text.iter().cloned());
                    last.end_sample = span.end_sample;
                }
                _ => merged.push(span.clone()),
            }
        }
        merged
    }
}

/// Builds labelled adversarial streams over a command dictionary.
///
/// Deterministic: the same dictionary, seed and kind always produce the
/// identical waveform and labels (the shimmed [`StdRng`] is a fixed
/// algorithm, and speech is rendered noiselessly — each kind then layers its
/// own seeded noise/degradation on top).
#[derive(Debug)]
pub struct ScenarioGenerator<'d> {
    dictionary: &'d Dictionary,
    synth: AudioSynthesizer,
    seed: u64,
}

/// Accumulates a stream and its span labels while a scenario is assembled.
struct StreamBuilder<'d> {
    dictionary: &'d Dictionary,
    synth: AudioSynthesizer,
    samples: Vec<f32>,
    spans: Vec<SpeechSpan>,
}

impl StreamBuilder<'_> {
    fn silence(&mut self, seconds: f32) {
        let n = (FrontendConfig::SAMPLE_RATE_HZ as f32 * seconds) as usize;
        self.samples.extend(std::iter::repeat(0.0f32).take(n));
    }

    /// Renders `words` at `gain` and records the ground-truth span.  The
    /// synthesiser appends a 30 ms gap after every word; the trailing one is
    /// kept in the waveform (it is genuine silence) but excluded from the
    /// span's `end_sample`.
    fn utterance(&mut self, words: &[WordId], seed: u64, gain: f32) {
        let audio = self.synth.render_words(self.dictionary, words, seed);
        let trailing_gap = (FrontendConfig::SAMPLE_RATE_HZ as f32 * 0.03) as usize;
        let onset_sample = self.samples.len();
        let end_sample = onset_sample + audio.len().saturating_sub(trailing_gap);
        self.samples.extend(audio.iter().map(|s| s * gain));
        self.spans.push(SpeechSpan {
            words: words.to_vec(),
            text: words
                .iter()
                .map(|&w| self.dictionary.spelling(w).unwrap_or("<unk>").to_string())
                .collect(),
            onset_sample,
            end_sample,
        });
    }

    fn into_scenario(self, kind: ScenarioKind, boundary_slack_s: f32) -> Scenario {
        Scenario {
            kind,
            samples: self.samples,
            spans: self.spans,
            boundary_slack_s,
        }
    }
}

impl<'d> ScenarioGenerator<'d> {
    /// Creates a generator over a dictionary (typically
    /// [`ScenarioVoiceTask::dictionary`]).  Speech is rendered noiselessly;
    /// each scenario layers its own degradation.
    pub fn new(dictionary: &'d Dictionary, seed: u64) -> Self {
        ScenarioGenerator {
            dictionary,
            synth: AudioSynthesizer::new(0.12, 0.0),
            seed,
        }
    }

    /// Generates every scenario kind, in [`ScenarioKind::ALL`] order.
    pub fn all(&self) -> Vec<Scenario> {
        ScenarioKind::ALL
            .iter()
            .map(|&kind| self.generate(kind))
            .collect()
    }

    /// Generates one labelled stream.  Deterministic in
    /// `(dictionary, seed, kind)`.
    pub fn generate(&self, kind: ScenarioKind) -> Scenario {
        let kind_index = ScenarioKind::ALL
            .iter()
            .position(|&k| k == kind)
            .expect("ALL contains every kind") as u64;
        let mut rng =
            StdRng::seed_from_u64(self.seed.wrapping_mul(6364136223846793005) + kind_index);
        let mut builder = StreamBuilder {
            dictionary: self.dictionary,
            synth: self.synth.clone(),
            samples: Vec::new(),
            spans: Vec::new(),
        };
        match kind {
            ScenarioKind::NoiseRampUp => {
                builder.silence(0.5);
                let words = self.pick_words(&mut rng, 1);
                builder.utterance(&words, rng.gen(), 1.0);
                // A long gap, so the floor window refills between the
                // utterances (it cannot observe noise masked by speech).
                builder.silence(0.8);
                let words = self.pick_words(&mut rng, 2);
                builder.utterance(&words, rng.gen(), 1.0);
                // A pure-noise tail: the ramp keeps rising after the last
                // utterance, so a flooding detector would hallucinate speech
                // here — the labels say there is none.
                builder.silence(1.5);
                let noise_seed = rng.gen();
                let mut scenario = builder.into_scenario(kind, 0.3);
                // Uniform noise whose amplitude ramps 0.002 → 0.02 across
                // the stream: an order of magnitude in ~3 s, a per-window
                // ratio the adaptive margin absorbs (the ramp is geometric,
                // so that ratio is uniform over the whole stream).
                add_noise_ramp(&mut scenario.samples, 0.002, 0.02, noise_seed);
                scenario
            }
            ScenarioKind::NoiseRampDown => {
                builder.silence(0.5);
                let words = self.pick_words(&mut rng, 2);
                builder.utterance(&words, rng.gen(), 1.0);
                // A long falling stretch, so the floor estimate has time to
                // come down before the quiet talker speaks.
                builder.silence(1.5);
                let words = self.pick_words(&mut rng, 1);
                builder.utterance(&words, rng.gen(), 0.1);
                builder.silence(0.5);
                let noise_seed = rng.gen();
                let mut scenario = builder.into_scenario(kind, 0.3);
                add_noise_ramp(&mut scenario.samples, 0.03, 0.002, noise_seed);
                scenario
            }
            ScenarioKind::Clipped => {
                builder.silence(0.4);
                let words = self.pick_words(&mut rng, 1);
                builder.utterance(&words, rng.gen(), 2.2);
                builder.silence(0.5);
                let words = self.pick_words(&mut rng, 2);
                builder.utterance(&words, rng.gen(), 2.2);
                builder.silence(0.4);
                let mut scenario = builder.into_scenario(kind, 0.15);
                // Hard saturation at 30 % of full scale.
                for s in &mut scenario.samples {
                    *s = s.clamp(-0.3, 0.3);
                }
                scenario
            }
            ScenarioKind::FarField => {
                builder.silence(0.5);
                let words = self.pick_words(&mut rng, 1);
                builder.utterance(&words, rng.gen(), 0.12);
                builder.silence(0.4);
                let words = self.pick_words(&mut rng, 2);
                builder.utterance(&words, rng.gen(), 0.12);
                builder.silence(0.4);
                let noise_seed = rng.gen();
                let mut scenario = builder.into_scenario(kind, 0.3);
                add_noise_ramp(&mut scenario.samples, 0.001, 0.001, noise_seed);
                scenario
            }
            ScenarioKind::BackToBack => {
                builder.silence(0.4);
                let first = self.pick_words(&mut rng, 1);
                builder.utterance(&first, rng.gen(), 1.0);
                // 10 ms of extra silence + the synthesiser's own 30 ms
                // trailing gap: a 40 ms pause, well inside any reasonable
                // hangover, so the next utterance must merge with this one.
                builder.silence(0.01);
                let second = self.pick_words(&mut rng, 1);
                builder.utterance(&second, rng.gen(), 1.0);
                // A full second: a genuine boundary.
                builder.silence(1.0);
                let third = self.pick_words(&mut rng, 1);
                builder.utterance(&third, rng.gen(), 1.0);
                builder.silence(0.4);
                builder.into_scenario(kind, 0.15)
            }
            ScenarioKind::LongSession => {
                builder.silence(0.4);
                for _ in 0..6 {
                    let words = self.pick_words(&mut rng, 1);
                    builder.utterance(&words, rng.gen(), 1.0);
                    builder.silence(0.4);
                }
                let noise_seed = rng.gen();
                let mut scenario = builder.into_scenario(kind, 0.15);
                // The training synthesiser's own noise bed (amplitude 0.01),
                // so long-session speech is acoustically matched and its
                // transcripts are checkable, not just its boundaries.
                add_noise_ramp(&mut scenario.samples, 0.01, 0.01, noise_seed);
                scenario
            }
        }
    }

    fn pick_words(&self, rng: &mut StdRng, count: usize) -> Vec<WordId> {
        (0..count)
            .map(|_| WordId(rng.gen_range(0..self.dictionary.len() as u32)))
            .collect()
    }
}

/// Adds uniform noise whose amplitude ramps from `from` to `to` across the
/// buffer (equal endpoints → a stationary noise bed).  The ramp is
/// *geometric* — a constant amplitude ratio per second, as a fan spinning up
/// or a receding source produces — so its relative slope is uniform: a
/// linear ramp from a near-silent floor quadruples within the first second,
/// which no bounded-margin tracker could ride without flooding.
fn add_noise_ramp(samples: &mut [f32], from: f32, to: f32, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = samples.len().max(1) as f32;
    let geometric = from > 0.0 && to > 0.0;
    for (i, s) in samples.iter_mut().enumerate() {
        let t = i as f32 / n;
        let amplitude = if geometric {
            from * (to / from).powf(t)
        } else {
            from + (to - from) * t
        };
        *s += (rng.gen::<f32>() - 0.5) * 2.0 * amplitude;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task() -> ScenarioVoiceTask {
        ScenarioVoiceTask::train(11).unwrap()
    }

    #[test]
    fn generation_is_deterministic_and_labelled() {
        let task = task();
        let g = ScenarioGenerator::new(&task.dictionary, 7);
        for kind in ScenarioKind::ALL {
            let a = g.generate(kind);
            let b = g.generate(kind);
            assert_eq!(a.samples, b.samples, "{}", kind.name());
            assert_eq!(a.spans, b.spans, "{}", kind.name());
            assert_eq!(a.kind, kind);
            assert!(!a.spans.is_empty());
            assert!(a.duration_s() > 1.0);
            assert!(a.boundary_slack_s > 0.0);
            // Labels are ordered, non-overlapping, inside the stream, and
            // every span names real words.
            let mut previous_end = 0usize;
            for span in &a.spans {
                assert!(span.onset_sample >= previous_end, "{}", kind.name());
                assert!(span.onset_sample < span.end_sample);
                assert!(span.end_sample <= a.samples.len());
                assert_eq!(span.words.len(), span.text.len());
                for (w, t) in span.words.iter().zip(&span.text) {
                    assert_eq!(task.dictionary.spelling(*w), Some(t.as_str()));
                }
                previous_end = span.end_sample;
            }
            // All samples in range (clipping bounds the worst case).
            assert!(a.samples.iter().all(|s| s.is_finite() && s.abs() <= 1.1));
        }
        // Different seeds change the content.
        let other = ScenarioGenerator::new(&task.dictionary, 8);
        assert_ne!(
            g.generate(ScenarioKind::LongSession).samples,
            other.generate(ScenarioKind::LongSession).samples
        );
    }

    #[test]
    fn back_to_back_merges_under_the_gap_and_splits_over_it() {
        let task = task();
        let g = ScenarioGenerator::new(&task.dictionary, 3);
        let scenario = g.generate(ScenarioKind::BackToBack);
        assert_eq!(scenario.spans.len(), 3);
        // A 50 ms hangover bridges the 40 ms pause but not the 1 s one.
        let merged = scenario.expected_utterances(800);
        assert_eq!(merged.len(), 2);
        assert_eq!(
            merged[0].words.len(),
            scenario.spans[0].words.len() + scenario.spans[1].words.len()
        );
        assert_eq!(merged[0].onset_sample, scenario.spans[0].onset_sample);
        assert_eq!(merged[0].end_sample, scenario.spans[1].end_sample);
        assert_eq!(merged[1], scenario.spans[2]);
        // A zero-gap endpointer merges nothing; a huge one merges all.
        assert_eq!(scenario.expected_utterances(0).len(), 3);
        assert_eq!(scenario.expected_utterances(usize::MAX).len(), 1);
    }

    #[test]
    fn clipping_saturates_and_far_field_attenuates() {
        let task = task();
        let g = ScenarioGenerator::new(&task.dictionary, 5);
        let clipped = g.generate(ScenarioKind::Clipped);
        let peak = clipped.samples.iter().fold(0.0f32, |m, s| m.max(s.abs()));
        assert!(peak <= 0.3 + 1e-6);
        // A meaningful share of speech samples sit *at* the rails.
        let span = &clipped.spans[0];
        let at_rail = clipped.samples[span.onset_sample..span.end_sample]
            .iter()
            .filter(|s| (s.abs() - 0.3).abs() < 1e-6)
            .count();
        assert!(
            at_rail > (span.end_sample - span.onset_sample) / 10,
            "{at_rail} samples at the rail"
        );

        let far = g.generate(ScenarioKind::FarField);
        let span = &far.spans[0];
        let speech_peak = far.samples[span.onset_sample..span.end_sample]
            .iter()
            .fold(0.0f32, |m, s| m.max(s.abs()));
        assert!(speech_peak < 0.2, "{speech_peak}");
    }

    #[test]
    fn voice_task_trains_consistent_artefacts() {
        let task = task();
        assert_eq!(task.dictionary.len(), SCENARIO_WORDS.len());
        assert_eq!(
            task.acoustic_model.feature_dim(),
            ScenarioVoiceTask::frontend_config().feature_dim()
        );
        // Training is deterministic in the seed.
        let again = ScenarioVoiceTask::train(11).unwrap();
        assert_eq!(
            task.dictionary.id_of("lights"),
            again.dictionary.id_of("lights")
        );
        // Decoding quality against the trained models is asserted end-to-end
        // in the workspace's `tests/scenarios.rs` (asr-corpus cannot depend
        // on asr-core).
    }
}
