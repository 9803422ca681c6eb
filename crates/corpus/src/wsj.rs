//! The WSJ5K-like evaluation task.
//!
//! The paper evaluates word error rate on "the Wall Street Journal 5000
//! (WSJ5K)" task and sizes its memory figures for a 20 000-word WSJ
//! dictionary with 6 000 senones.  This module packages those geometries:
//!
//! * [`Wsj5kTask::paper_geometry`] — the full-size dimensions used purely for
//!   storage / bandwidth accounting (E1), where no decoding is needed;
//! * [`Wsj5kTask::evaluation`] — a scaled synthetic task that is actually
//!   decoded for the WER and active-senone experiments (E3, E4, E7), keeping
//!   the *structural* properties (triphone words, n-gram LM, senone sharing)
//!   while staying small enough to run in CI.

use crate::generator::{SyntheticTask, TaskConfig, TaskGenerator};
use crate::CorpusError;
use asr_acoustic::{AcousticModelConfig, HmmTopology};
use asr_lexicon::NGramOrder;

/// The WSJ5K-like task bundle.
#[derive(Debug, Clone)]
pub struct Wsj5kTask;

impl Wsj5kTask {
    /// The acoustic-model geometry the paper's sizing assumes: 6 000 senones,
    /// 8 Gaussians, 39 dimensions, 3-state HMMs, 51 phones.
    pub fn paper_geometry() -> AcousticModelConfig {
        AcousticModelConfig::paper_default()
    }

    /// A scaled synthetic stand-in for the WSJ5K evaluation set: `scale` is a
    /// divisor applied to the 5 000-word vocabulary (e.g. `scale = 50` gives
    /// a 100-word task).  The phone inventory, HMM topology, trigram LM and
    /// per-word triphone statistics keep the WSJ shape.
    ///
    /// # Errors
    ///
    /// Returns [`CorpusError::InvalidConfig`] when the scale reduces the task
    /// below a usable size.
    pub fn evaluation(scale: usize, seed: u64) -> Result<SyntheticTask, CorpusError> {
        if scale == 0 {
            return Err(CorpusError::InvalidConfig("scale must be >= 1".into()));
        }
        let vocabulary = (5_000 / scale).max(10);
        let config = TaskConfig {
            vocabulary_size: vocabulary,
            num_phones: 40,
            feature_dim: 13,
            components_per_senone: 2,
            topology: HmmTopology::Three,
            // WSJ words average ≈ 9 triphones; keep the mean around 6–9 while
            // bounding the tail so the lexical tree stays balanced.
            word_length_range: (4, 10),
            mean_separation: 4.5,
            self_loop_prob: 0.6,
            lm_order: NGramOrder::Trigram,
            lm_training_sentences: 800,
        };
        TaskGenerator::new(seed).generate(&config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry_matches_results_table() {
        let g = Wsj5kTask::paper_geometry();
        assert_eq!(g.num_senones, 6_000);
        assert_eq!(g.num_components, 8);
        assert_eq!(g.feature_dim, 39);
        assert_eq!(g.params_per_senone(), 632);
    }

    #[test]
    fn scaled_evaluation_task() {
        let task = Wsj5kTask::evaluation(500, 1).unwrap();
        assert_eq!(task.dictionary.len(), 10);
        assert_eq!(task.config.num_phones, 40);
        assert_eq!(task.language_model.order(), NGramOrder::Trigram);
        let mean_len = task.dictionary.mean_phones_per_word();
        assert!((4.0..=10.0).contains(&mean_len), "{mean_len}");
        assert!(Wsj5kTask::evaluation(0, 1).is_err());
    }

    #[test]
    fn tiny_evaluation_task_is_decodeable_shape() {
        let task = Wsj5kTask::evaluation(200, 2).unwrap();
        assert!(task.dictionary.len() >= 10);
        let (features, words) = task.synthesize_utterance(3, 0.3, 1);
        assert_eq!(words.len(), 3);
        assert!(features.len() > 10);
        assert!(features.iter().all(|f| f.len() == 13));
    }
}
