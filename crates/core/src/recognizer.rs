//! The top-level recogniser: frontend to recognised text.

use crate::config::DecoderConfig;
use crate::lattice::WordLattice;
use crate::phone_decode::PhoneDecoder;
use crate::search::{SearchNetwork, SearchOutcome, TokenPassingSearch};
use crate::stats::DecodeStats;
use crate::DecodeError;
use asr_acoustic::AcousticModel;
use asr_float::LogProb;
use asr_frontend::Frontend;
use asr_hw::UtteranceReport;
use asr_lexicon::{Dictionary, NGramModel, WordId};

/// A recognised word sequence.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Hypothesis {
    /// Word identifiers in order.
    pub words: Vec<WordId>,
    /// Word spellings in order (the paper's word-ID → ASCII mapping applied).
    pub text: Vec<String>,
}

impl Hypothesis {
    /// The hypothesis as a single space-separated string.
    pub fn to_sentence(&self) -> String {
        self.text.join(" ")
    }
}

/// Everything produced by decoding one utterance.
#[derive(Debug, Clone)]
pub struct DecodeResult {
    /// The utterance chosen by the global best path search over the lattice
    /// (falls back to the live search's best token when the lattice search
    /// finds nothing).
    pub hypothesis: Hypothesis,
    /// The raw best-token hypothesis from the on-the-fly search.
    pub live_hypothesis: Hypothesis,
    /// Combined acoustic + LM score of the live best-token hypothesis
    /// ([`asr_float::LogProb::zero`] when nothing was recognised) — the
    /// utterance-level figure the streaming equivalence property compares.
    pub best_score: LogProb,
    /// The word lattice.
    pub lattice: WordLattice,
    /// Per-frame decoding statistics (active senones, pruning, CDS).
    pub stats: DecodeStats,
    /// Hardware report (cycles, bandwidth, power, energy) when decoding on the
    /// hardware backend.
    pub hardware: Option<UtteranceReport>,
}

impl DecodeResult {
    /// The typed result of decoding zero frames: empty hypotheses, an empty
    /// lattice, zero-frame statistics, no hardware report.  Returned by the
    /// decode entry points for empty utterances instead of running the search
    /// machinery (and, historically, leaking stale CDS state into the next
    /// utterance of a batch).
    pub fn empty() -> Self {
        DecodeResult {
            hypothesis: Hypothesis::default(),
            live_hypothesis: Hypothesis::default(),
            best_score: LogProb::zero(),
            lattice: WordLattice::new(0),
            stats: DecodeStats::new(),
            hardware: None,
        }
    }

    /// Whether this is the result of decoding zero frames.
    pub fn is_empty(&self) -> bool {
        self.stats.num_frames() == 0
    }
}

/// The complete recogniser of Figure 1.
#[derive(Debug)]
pub struct Recognizer {
    model: AcousticModel,
    dictionary: Dictionary,
    lm: NGramModel,
    network: SearchNetwork,
    config: DecoderConfig,
}

impl Recognizer {
    /// Assembles a recogniser from its knowledge sources.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::InvalidConfig`] for an invalid decoder
    /// configuration and [`DecodeError::InconsistentModels`] if the dictionary
    /// references phones missing from the acoustic model.
    pub fn new(
        model: AcousticModel,
        dictionary: Dictionary,
        lm: NGramModel,
        config: DecoderConfig,
    ) -> Result<Self, DecodeError> {
        config.validate()?;
        let network = SearchNetwork::build(&model, &dictionary)?;
        Ok(Recognizer {
            model,
            dictionary,
            lm,
            network,
            config,
        })
    }

    /// The acoustic model.
    pub fn model(&self) -> &AcousticModel {
        &self.model
    }

    /// The dictionary.
    pub fn dictionary(&self) -> &Dictionary {
        &self.dictionary
    }

    /// The language model.
    pub fn language_model(&self) -> &NGramModel {
        &self.lm
    }

    /// The decoder configuration.
    pub fn config(&self) -> &DecoderConfig {
        &self.config
    }

    /// The static search network.
    pub fn network(&self) -> &SearchNetwork {
        &self.network
    }

    fn spell(&self, words: &[WordId]) -> Hypothesis {
        Hypothesis {
            words: words.to_vec(),
            text: words
                .iter()
                .map(|&w| self.dictionary.spelling(w).unwrap_or("<unk>").to_string())
                .collect(),
        }
    }

    /// Builds a fresh phone decoder from the configured backend, ready to
    /// serve one utterance at a time.  Its owner keeps it warm and lends it
    /// utterance after utterance to [`Recognizer::decode_features_with`],
    /// [`Recognizer::decode_batch_with`] and
    /// [`DecodeSession::begin`](crate::DecodeSession::begin).
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::InvalidConfig`] if the backend configuration is
    /// invalid.
    pub fn phone_decoder(&self) -> Result<PhoneDecoder, DecodeError> {
        Ok(PhoneDecoder::new(
            self.config
                .backend
                .build_scorer(&self.config.gmm_selection)?,
            self.config.gmm_selection,
        ))
    }

    /// Decodes one utterance of feature vectors on the configured backend.
    ///
    /// An empty utterance yields [`DecodeResult::empty`].
    ///
    /// # Errors
    ///
    /// Propagates configuration, dimension and hardware errors.
    pub fn decode_features(&self, features: &[Vec<f32>]) -> Result<DecodeResult, DecodeError> {
        let mut phone_decoder = self.phone_decoder()?;
        self.decode_features_with(features, &mut phone_decoder)
    }

    /// Decodes one utterance through a caller-supplied phone decoder — the
    /// entry point for custom [`SenoneScorer`] backends and for reusing one
    /// scorer (and its warmed model caches) across many utterances.
    ///
    /// Per-utterance state (the CDS cache, the score arena, the backend's
    /// counters) is cleared on entry, so a decoder can be passed back in for
    /// utterance after utterance; model-level caches survive.
    ///
    /// [`SenoneScorer`]: crate::SenoneScorer
    ///
    /// # Errors
    ///
    /// Propagates dimension and backend errors.
    pub fn decode_features_with(
        &self,
        features: &[Vec<f32>],
        phone_decoder: &mut PhoneDecoder,
    ) -> Result<DecodeResult, DecodeError> {
        // Validate up front for every backend: the software scorer would
        // otherwise silently truncate short frames, and the hardware model
        // only notices several layers down.
        let expected = self.model.feature_dim();
        if let Some(bad) = features.iter().find(|f| f.len() != expected) {
            return Err(DecodeError::DimensionMismatch {
                expected,
                got: bad.len(),
            });
        }
        // A clean per-utterance slate even when the decoder is reused (or a
        // previous decode aborted half-way through an utterance).
        phone_decoder.begin_utterance();
        if features.is_empty() {
            return Ok(DecodeResult::empty());
        }
        let search = TokenPassingSearch::new(&self.model, &self.network, &self.lm, &self.config);
        let outcome = search.decode(features, phone_decoder)?;
        let hardware = phone_decoder.finish_utterance();
        Ok(self.assemble_result(outcome, hardware))
    }

    /// Runs the global best path search over a finished [`SearchOutcome`]'s
    /// lattice and packages everything into a [`DecodeResult`] — shared by
    /// the offline decode above and [`DecodeSession::finish`], so both paths
    /// post-process identically by construction.
    ///
    /// [`DecodeSession::finish`]: crate::DecodeSession::finish
    pub(crate) fn assemble_result(
        &self,
        outcome: SearchOutcome,
        hardware: Option<UtteranceReport>,
    ) -> DecodeResult {
        let lattice_words = outcome.lattice.best_path(
            &self.lm,
            self.config.lm_weight,
            self.config.word_insertion_penalty,
            3,
        );
        let chosen = if lattice_words.is_empty() {
            outcome.best_token_words.clone()
        } else {
            lattice_words
        };
        DecodeResult {
            hypothesis: self.spell(&chosen),
            live_hypothesis: self.spell(&outcome.best_token_words),
            best_score: outcome.best_token_score,
            lattice: outcome.lattice,
            stats: outcome.stats,
            hardware,
        }
    }

    /// Decodes a batch of utterances through **one** scorer, so the backend's
    /// model-level caches (the SoC model, the SIMD scorer's flattened
    /// parameter arena) and the senone-score arena amortise across the whole
    /// stream instead of being rebuilt per utterance.
    ///
    /// Results are positionally aligned with the input; per-utterance state
    /// (including the CDS last-scored-frame cache) is reset between
    /// utterances, so the outputs are identical to decoding each utterance
    /// alone with [`Recognizer::decode_features`].  Empty utterances yield
    /// [`DecodeResult::empty`].
    ///
    /// # Examples
    ///
    /// ```
    /// use asr_core::{DecoderConfig, Recognizer};
    /// use asr_corpus::{TaskConfig, TaskGenerator};
    ///
    /// let task = TaskGenerator::new(5).generate(&TaskConfig::tiny()).unwrap();
    /// let recognizer = Recognizer::new(
    ///     task.acoustic_model.clone(),
    ///     task.dictionary.clone(),
    ///     task.language_model.clone(),
    ///     DecoderConfig::simd(),
    /// )
    /// .unwrap();
    /// let (first, first_ref) = task.synthesize_utterance(1, 0.2, 1);
    /// let (second, second_ref) = task.synthesize_utterance(2, 0.2, 2);
    /// let results = recognizer.decode_batch(&[first, second]).unwrap();
    /// assert_eq!(results[0].hypothesis.words, first_ref);
    /// assert_eq!(results[1].hypothesis.words, second_ref);
    /// ```
    ///
    /// # Errors
    ///
    /// Fails on the first utterance that fails to decode.
    pub fn decode_batch<U: AsRef<[Vec<f32>]>>(
        &self,
        utterances: &[U],
    ) -> Result<Vec<DecodeResult>, DecodeError> {
        let mut phone_decoder = self.phone_decoder()?;
        self.decode_batch_with(utterances, &mut phone_decoder)
    }

    /// Decodes a batch of utterances through a caller-supplied phone decoder
    /// — [`Recognizer::decode_batch`] with the scorer's lifetime under the
    /// caller's control, so one decoder (and its warmed model caches) can
    /// serve *many* batches instead of rebuilding the backend per batch.
    ///
    /// # Errors
    ///
    /// Fails on the first utterance that fails to decode.
    pub fn decode_batch_with<U: AsRef<[Vec<f32>]>>(
        &self,
        utterances: &[U],
        phone_decoder: &mut PhoneDecoder,
    ) -> Result<Vec<DecodeResult>, DecodeError> {
        utterances
            .iter()
            .map(|u| self.decode_features_with(u.as_ref(), phone_decoder))
            .collect()
    }

    /// Decodes raw audio samples by running the software frontend first.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::DimensionMismatch`] if the frontend's feature
    /// dimension differs from the acoustic model's, plus any decoding error.
    pub fn decode_audio(
        &self,
        samples: &[f32],
        frontend: &Frontend,
    ) -> Result<DecodeResult, DecodeError> {
        if frontend.config().feature_dim() != self.model.feature_dim() {
            return Err(DecodeError::DimensionMismatch {
                expected: self.model.feature_dim(),
                got: frontend.config().feature_dim(),
            });
        }
        let features = frontend.process(samples);
        self.decode_features(&features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScoringBackendKind;
    use asr_acoustic::{
        AcousticModelConfig, DiagGaussian, GaussianMixture, HmmTopology, PhoneId, SenoneId,
        SenonePool, TransitionMatrix, Triphone, TriphoneInventory,
    };
    use asr_lexicon::Pronunciation;

    const DIM: usize = 4;
    const NUM_PHONES: usize = 5;

    fn tiny_model() -> AcousticModel {
        let states = 3;
        let mixtures: Vec<GaussianMixture> = (0..NUM_PHONES * states)
            .map(|i| {
                let mean = vec![(7 * (i / states) + 2 * (i % states)) as f32; DIM];
                GaussianMixture::new(vec![(
                    1.0,
                    DiagGaussian::new(mean, vec![0.5; DIM]).unwrap(),
                )])
                .unwrap()
            })
            .collect();
        let pool = SenonePool::new(mixtures).unwrap();
        let mut inventory = TriphoneInventory::new(HmmTopology::Three);
        for p in 0..NUM_PHONES {
            let senones: Vec<SenoneId> = (0..states)
                .map(|s| SenoneId((p * states + s) as u32))
                .collect();
            inventory
                .add(Triphone::context_independent(PhoneId(p as u16)), senones)
                .unwrap();
        }
        AcousticModel::new(
            AcousticModelConfig {
                num_senones: NUM_PHONES * states,
                num_components: 1,
                feature_dim: DIM,
                topology: HmmTopology::Three,
                num_phones: NUM_PHONES,
                self_loop_prob: 0.5,
            },
            pool,
            inventory,
            TransitionMatrix::bakis(HmmTopology::Three, 0.5).unwrap(),
        )
        .unwrap()
    }

    fn tiny_dictionary() -> Dictionary {
        let mut d = Dictionary::new();
        let p = |ids: &[u16]| Pronunciation::new(ids.iter().map(|&i| PhoneId(i)).collect());
        d.add_word("one", p(&[1, 2])).unwrap();
        d.add_word("two", p(&[3, 4])).unwrap();
        d
    }

    fn synth(dict: &Dictionary, words: &[&str]) -> Vec<Vec<f32>> {
        let mut frames = Vec::new();
        for w in words {
            let id = dict.id_of(w).unwrap();
            for &phone in dict.pronunciation(id).unwrap().phones() {
                for state in 0..3usize {
                    for _ in 0..3 {
                        frames.push(vec![(7 * phone.index() + 2 * state) as f32; DIM]);
                    }
                }
            }
        }
        frames
    }

    fn recognizer(backend: ScoringBackendKind) -> Recognizer {
        Recognizer::new(
            tiny_model(),
            tiny_dictionary(),
            NGramModel::uniform(2).unwrap(),
            DecoderConfig {
                backend,
                ..DecoderConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn end_to_end_software_decode() {
        let rec = recognizer(ScoringBackendKind::Software);
        let dict = tiny_dictionary();
        let features = synth(&dict, &["one", "two"]);
        let result = rec.decode_features(&features).unwrap();
        assert_eq!(result.hypothesis.text, vec!["one", "two"]);
        assert_eq!(result.hypothesis.to_sentence(), "one two");
        assert!(result.hardware.is_none());
        assert!(!result.lattice.is_empty());
        assert_eq!(result.stats.num_frames(), features.len());
        assert_eq!(result.live_hypothesis.words, result.hypothesis.words);
    }

    #[test]
    fn end_to_end_hardware_decode_with_report() {
        let rec = recognizer(ScoringBackendKind::Hardware(asr_hw::SocConfig::default()));
        let dict = tiny_dictionary();
        let features = synth(&dict, &["two", "one"]);
        let result = rec.decode_features(&features).unwrap();
        assert_eq!(result.hypothesis.text, vec!["two", "one"]);
        let hw = result.hardware.expect("hardware backend produces a report");
        assert_eq!(hw.frames, features.len());
        assert!(hw.senones_scored > 0);
        assert!(hw.real_time_fraction > 0.99, "tiny task must be real-time");
        assert!(hw.energy.total_energy_j() > 0.0);
        // Feedback keeps the active fraction well under 1.
        assert!(result.stats.mean_active_senone_fraction() < 0.9);
    }

    #[test]
    fn accessors_and_validation() {
        let rec = recognizer(ScoringBackendKind::Software);
        assert_eq!(rec.dictionary().len(), 2);
        assert_eq!(rec.model().senones().len(), NUM_PHONES * 3);
        assert_eq!(rec.language_model().vocab_size(), 2);
        assert!(rec.network().num_instances() > 0);
        assert!(rec.config().validate().is_ok());
        // Invalid config is rejected at construction.
        let mut bad = DecoderConfig::software();
        bad.beam = -1.0;
        assert!(Recognizer::new(
            tiny_model(),
            tiny_dictionary(),
            NGramModel::uniform(2).unwrap(),
            bad
        )
        .is_err());
    }

    #[test]
    fn decode_audio_checks_dimensions() {
        let rec = recognizer(ScoringBackendKind::Software);
        let frontend = Frontend::new(asr_frontend::FrontendConfig::default()).unwrap();
        // The default frontend produces 39-dim vectors but the tiny model wants 4.
        assert!(matches!(
            rec.decode_audio(&vec![0.0; 16_000], &frontend),
            Err(DecodeError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn empty_feature_input_is_the_typed_empty_result() {
        let rec = recognizer(ScoringBackendKind::Software);
        let result = rec.decode_features(&[]).unwrap();
        assert!(result.is_empty());
        assert!(result.hypothesis.words.is_empty());
        assert!(result.hypothesis.to_sentence().is_empty());
        assert!(result.lattice.is_empty());
        assert_eq!(result.stats.num_frames(), 0);
        assert!(result.hardware.is_none());
        assert_eq!(Hypothesis::default().to_sentence(), "");
        // DecodeResult::empty() is what the decode path returns.
        assert!(DecodeResult::empty().is_empty());
    }

    #[test]
    fn end_to_end_simd_decode() {
        let rec = recognizer(ScoringBackendKind::Simd);
        let dict = tiny_dictionary();
        let features = synth(&dict, &["two", "one"]);
        let result = rec.decode_features(&features).unwrap();
        assert_eq!(result.hypothesis.text, vec!["two", "one"]);
        assert!(result.hardware.is_none());
    }

    #[test]
    fn decode_batch_matches_singles_on_every_backend() {
        let dict = tiny_dictionary();
        let utterances = [
            synth(&dict, &["one", "two"]),
            synth(&dict, &["two"]),
            synth(&dict, &["two", "one"]),
        ];
        for backend in [
            ScoringBackendKind::Software,
            ScoringBackendKind::Simd,
            ScoringBackendKind::Hardware(asr_hw::SocConfig::default()),
            ScoringBackendKind::Sharded {
                shards: 2,
                inner: Box::new(ScoringBackendKind::Hardware(asr_hw::SocConfig::default())),
            },
        ] {
            let rec = recognizer(backend);
            let batch = rec.decode_batch(&utterances).unwrap();
            assert_eq!(batch.len(), utterances.len());
            for (features, batched) in utterances.iter().zip(&batch) {
                let single = rec.decode_features(features).unwrap();
                assert_eq!(batched.hypothesis, single.hypothesis);
                assert_eq!(batched.live_hypothesis, single.live_hypothesis);
                assert_eq!(batched.stats.num_frames(), single.stats.num_frames());
                assert_eq!(
                    batched.stats.total_senones_scored(),
                    single.stats.total_senones_scored()
                );
                assert_eq!(
                    batched
                        .hardware
                        .as_ref()
                        .map(|h| (h.frames, h.senones_scored)),
                    single
                        .hardware
                        .as_ref()
                        .map(|h| (h.frames, h.senones_scored)),
                );
            }
        }
    }

    #[test]
    fn decode_batch_handles_empty_utterances_and_resets_cds() {
        let dict = tiny_dictionary();
        let utt = synth(&dict, &["one"]);
        let mut config = DecoderConfig::software();
        config.gmm_selection = crate::config::GmmSelectionConfig::with_cds(2);
        let rec = Recognizer::new(
            tiny_model(),
            tiny_dictionary(),
            NGramModel::uniform(2).unwrap(),
            config,
        )
        .unwrap();
        let batch = rec
            .decode_batch(&[utt.clone(), Vec::new(), utt.clone()])
            .unwrap();
        assert!(batch[1].is_empty());
        // With per-utterance CDS reset, the first and third results are
        // bit-identical — no state leaks across the empty utterance.
        assert_eq!(batch[0].hypothesis, batch[2].hypothesis);
        assert_eq!(
            batch[0].stats.total_senones_scored(),
            batch[2].stats.total_senones_scored()
        );
        assert_eq!(
            batch[0].stats.cds_skip_fraction(),
            batch[2].stats.cds_skip_fraction()
        );
    }
}
