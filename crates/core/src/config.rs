//! Decoder configuration.

use crate::scorer::{SenoneScorer, SimdScorer, SocScorer, SoftwareScorer};
use crate::shard::ShardedScorer;
use crate::DecodeError;
use asr_hw::SocConfig;

/// Which built-in backend scores senones and advances HMMs.
///
/// This is a *configuration descriptor*: it names one of the stock
/// [`SenoneScorer`] implementations and is turned into a live trait object by
/// [`ScoringBackendKind::build_scorer`].  Backends beyond these three plug in
/// directly as `Box<dyn SenoneScorer>` through
/// [`Recognizer::decode_features_with`] — no enum variant needed.
///
/// [`Recognizer::decode_features_with`]: crate::Recognizer::decode_features_with
#[derive(Debug, Clone, PartialEq)]
pub enum ScoringBackendKind {
    /// The cycle-accurate hardware model (`asr-hw`): OP units + Viterbi units,
    /// flash/DMA traffic and power accounting.  This is the paper's system.
    Hardware(SocConfig),
    /// A pure-software floating-point reference (no cycle/power accounting in
    /// the decode loop; the baseline crate wraps this with a host-CPU cost
    /// model for the related-work comparison).
    Software,
    /// The batching-aware SIMD-style software scorer: flattens the acoustic
    /// model into a contiguous parameter arena (built once, reused across a
    /// whole [`decode_batch`] stream) and scores with vectorisable blocked
    /// loops.
    ///
    /// [`decode_batch`]: crate::Recognizer::decode_batch
    Simd,
    /// A sharded scale-out scorer ([`crate::ShardedScorer`]):
    /// `shards` instances of `inner`, each scoring a cost-balanced
    /// contiguous slice of every frame's active-senone set — the first
    /// group of shards on the calling thread, the rest on the scorer's lane
    /// threads, at most one per spare CPU —
    /// with the per-shard hardware reports folded by
    /// [`UtteranceReport::merge_parallel`](asr_hw::UtteranceReport::merge_parallel).
    /// Results are identical to running `inner` unsharded; only throughput
    /// and the report's shape change.
    Sharded {
        /// Number of inner scorers (≥ 1).
        shards: usize,
        /// The backend each shard runs (nesting is allowed but pointless).
        inner: Box<ScoringBackendKind>,
    },
}

impl Default for ScoringBackendKind {
    fn default() -> Self {
        ScoringBackendKind::Hardware(SocConfig::default())
    }
}

impl ScoringBackendKind {
    /// Builds a live scorer for this backend.
    ///
    /// `_selection` is unused: no scorer reads the fast-GMM layers (the two
    /// the machine runs, CDS and senone feedback, are applied around the
    /// scorer by the [`PhoneDecoder`](crate::PhoneDecoder) and the search).
    /// The parameter stays only because `perfbench`'s layer tracer
    /// (`TracedDecoder::new`) calls this signature; it goes with the next
    /// change to the benchmark.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::InvalidConfig`] if the SoC configuration or
    /// a shard count is invalid.
    pub fn build_scorer(
        &self,
        _selection: &GmmSelectionConfig,
    ) -> Result<Box<dyn SenoneScorer>, DecodeError> {
        match self {
            ScoringBackendKind::Hardware(cfg) => Ok(Box::new(SocScorer::new(*cfg)?)),
            ScoringBackendKind::Software => Ok(Box::new(SoftwareScorer::new())),
            ScoringBackendKind::Simd => Ok(Box::new(SimdScorer::new())),
            ScoringBackendKind::Sharded { shards, inner } => {
                self.validate()?;
                let built = (0..*shards)
                    .map(|_| inner.build_scorer(_selection))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Box::new(ShardedScorer::new(built)?))
            }
        }
    }

    /// Validates the backend descriptor (recursively for sharded backends).
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::InvalidConfig`] for an invalid SoC
    /// configuration, a zero shard count, or more than
    /// [`SocConfig::MAX_STRUCTURES`] scorers in total (the product of the
    /// nested shard counts: every scorer is built, so a hostile count must
    /// not become an unbounded allocation).
    pub fn validate(&self) -> Result<(), DecodeError> {
        match self {
            ScoringBackendKind::Hardware(soc) => soc
                .validate()
                .map_err(|e| DecodeError::InvalidConfig(e.to_string())),
            ScoringBackendKind::Software | ScoringBackendKind::Simd => Ok(()),
            ScoringBackendKind::Sharded { shards, inner } => {
                if *shards == 0 {
                    return Err(DecodeError::InvalidConfig(
                        "a sharded backend needs at least one shard".into(),
                    ));
                }
                if self.scorer_count() > SocConfig::MAX_STRUCTURES {
                    return Err(DecodeError::InvalidConfig(format!(
                        "a sharded backend may build at most {} scorers",
                        SocConfig::MAX_STRUCTURES
                    )));
                }
                inner.validate()
            }
        }
    }

    /// The number of scorers this backend builds: the product of the nested
    /// shard counts (saturating), 1 for an unsharded backend.
    fn scorer_count(&self) -> usize {
        match self {
            ScoringBackendKind::Sharded { shards, inner } => {
                shards.saturating_mul(inner.scorer_count())
            }
            _ => 1,
        }
    }
}

/// The fast-GMM-computation layers the machine runs.
///
/// The paper's architecture "adapts to" the four-layer scheme of Chan et
/// al.: frame, GMM, Gaussian and component layers, each skipping work at a
/// different granularity.  The machine runs the first two, around whichever
/// scorer it drives: Conditional Down Sampling (the frame layer), which the
/// paper highlights as having "the potential to cut the power usage by a
/// considerable margin", and the word-decode senone feedback (the GMM
/// layer).  The Gaussian layer (best component only) and the component
/// layer (dimension truncation) are not modelled: the OP unit evaluates
/// every component over every dimension, only the software scorers ever
/// honoured them, and no experiment or workload set them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GmmSelectionConfig {
    /// Frame layer — Conditional Down Sampling: reuse the previous frame's
    /// senone scores when the acoustics are stable, rescoring at least every
    /// `cds_period` frames (1 = off). The *condition* is what keeps this
    /// cheap trick accurate: frames are only skipped while the feature vector
    /// stays within [`GmmSelectionConfig::cds_threshold`] of the last scored
    /// one, so phone transitions are always rescored.
    pub cds_period: usize,
    /// Mean squared per-dimension distance between the current feature vector
    /// and the last fully scored one below which a CDS-eligible frame may be
    /// skipped. Calibrated so that frames within one HMM state (emission
    /// noise) skip while state/phone transitions rescore.
    pub cds_threshold: f32,
    /// GMM layer: only senones requested by the word-decode feedback are
    /// scored at all (this is the paper's own feedback mechanism; always on in
    /// the real system but can be disabled to measure its effect).
    pub senone_feedback: bool,
}

impl Default for GmmSelectionConfig {
    fn default() -> Self {
        GmmSelectionConfig {
            cds_period: 1,
            cds_threshold: 1.0,
            senone_feedback: true,
        }
    }
}

impl GmmSelectionConfig {
    /// Conditional Down Sampling at the given period, other layers default.
    pub fn with_cds(period: usize) -> Self {
        GmmSelectionConfig {
            cds_period: period.max(1),
            ..Self::default()
        }
    }
}

/// Configuration of the token-passing decoder.
#[derive(Debug, Clone, PartialEq)]
pub struct DecoderConfig {
    /// Scoring backend.
    pub backend: ScoringBackendKind,
    /// Main beam: active HMM instances whose best state score falls more than
    /// this (in natural-log units) below the frame's best are pruned.
    pub beam: f32,
    /// Word-end beam (tighter than the main beam, as usual).
    pub word_beam: f32,
    /// Hard cap on simultaneously active HMM instances (histogram pruning).
    pub max_active_hmms: usize,
    /// Language-model weight applied to LM log probabilities.
    pub lm_weight: f32,
    /// Word insertion penalty (natural-log, negative discourages insertions).
    pub word_insertion_penalty: f32,
    /// Fast-GMM-computation layers.
    pub gmm_selection: GmmSelectionConfig,
}

impl Default for DecoderConfig {
    fn default() -> Self {
        DecoderConfig {
            backend: ScoringBackendKind::default(),
            beam: 60.0,
            word_beam: 40.0,
            max_active_hmms: 2_000,
            lm_weight: 4.0,
            word_insertion_penalty: -1.0,
            gmm_selection: GmmSelectionConfig::default(),
        }
    }
}

impl DecoderConfig {
    /// A configuration using the software reference backend.
    pub fn software() -> Self {
        DecoderConfig {
            backend: ScoringBackendKind::Software,
            ..Self::default()
        }
    }

    /// A configuration using the batching-aware SIMD-style software backend.
    pub fn simd() -> Self {
        DecoderConfig {
            backend: ScoringBackendKind::Simd,
            ..Self::default()
        }
    }

    /// A configuration using the hardware model with `n` accelerator
    /// structures and the full 23-bit datapath.  The SoC's other knob, the
    /// mantissa width, is [`SocConfig::datapath_width`].
    pub fn hardware(num_structures: usize) -> Self {
        DecoderConfig {
            backend: ScoringBackendKind::Hardware(SocConfig {
                num_structures,
                ..SocConfig::default()
            }),
            ..Self::default()
        }
    }

    /// A configuration sharding the active-senone set across `shards`
    /// default-configured SoC instances (the scale-out counterpart of
    /// [`DecoderConfig::hardware`], which scales one SoC *up*).
    pub fn sharded_hardware(shards: usize) -> Self {
        DecoderConfig {
            backend: ScoringBackendKind::Sharded {
                shards,
                inner: Box::new(ScoringBackendKind::Hardware(SocConfig::default())),
            },
            ..Self::default()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::InvalidConfig`] for beams or an LM weight
    /// that are not finite and positive, a word insertion penalty that is
    /// not finite, a zero instance cap, an invalid CDS setting or an invalid
    /// SoC configuration.  NaN and infinite scores would otherwise pass the
    /// comparisons below and silently wreck the search.
    pub fn validate(&self) -> Result<(), DecodeError> {
        let finite_positive = |x: f32| x.is_finite() && x > 0.0;
        if !finite_positive(self.beam) || !finite_positive(self.word_beam) {
            return Err(DecodeError::InvalidConfig(
                "beams must be finite and positive".into(),
            ));
        }
        if self.max_active_hmms == 0 {
            return Err(DecodeError::InvalidConfig("max_active_hmms == 0".into()));
        }
        if !finite_positive(self.lm_weight) {
            return Err(DecodeError::InvalidConfig(
                "lm_weight must be finite and positive".into(),
            ));
        }
        if !self.word_insertion_penalty.is_finite() {
            return Err(DecodeError::InvalidConfig(
                "word_insertion_penalty must be finite".into(),
            ));
        }
        if self.gmm_selection.cds_period == 0 {
            return Err(DecodeError::InvalidConfig("cds_period must be >= 1".into()));
        }
        if !self.gmm_selection.cds_threshold.is_finite() || self.gmm_selection.cds_threshold < 0.0 {
            return Err(DecodeError::InvalidConfig(
                "cds_threshold must be finite and non-negative".into(),
            ));
        }
        self.backend.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        DecoderConfig::default().validate().unwrap();
        DecoderConfig::software().validate().unwrap();
        DecoderConfig::simd().validate().unwrap();
        DecoderConfig::hardware(1).validate().unwrap();
        DecoderConfig::hardware(2).validate().unwrap();
        assert!(matches!(
            DecoderConfig::default().backend,
            ScoringBackendKind::Hardware(_)
        ));
    }

    #[test]
    fn every_kind_builds_a_scorer() {
        let sel = GmmSelectionConfig::default();
        for (kind, name) in [
            (ScoringBackendKind::default(), "soc"),
            (ScoringBackendKind::Software, "software"),
            (ScoringBackendKind::Simd, "simd"),
            (
                ScoringBackendKind::Sharded {
                    shards: 2,
                    inner: Box::new(ScoringBackendKind::Simd),
                },
                "sharded",
            ),
        ] {
            assert_eq!(kind.build_scorer(&sel).unwrap().name(), name);
        }
    }

    #[test]
    fn sharded_configs_validate_recursively() {
        DecoderConfig::sharded_hardware(4).validate().unwrap();
        let zero = DecoderConfig {
            backend: ScoringBackendKind::Sharded {
                shards: 0,
                inner: Box::new(ScoringBackendKind::Software),
            },
            ..DecoderConfig::default()
        };
        assert!(zero.validate().is_err());
        // An invalid inner SoC config fails through the shard wrapper.
        let bad_inner = DecoderConfig {
            backend: ScoringBackendKind::Sharded {
                shards: 2,
                inner: Box::new(ScoringBackendKind::Hardware(SocConfig {
                    num_structures: 0,
                    ..SocConfig::default()
                })),
            },
            ..DecoderConfig::default()
        };
        assert!(bad_inner.validate().is_err());
        assert!(bad_inner
            .backend
            .build_scorer(&GmmSelectionConfig::default())
            .is_err());
    }

    #[test]
    fn nested_sharded_configs_validate_to_any_depth() {
        let nest = |inner: ScoringBackendKind, shards: usize| ScoringBackendKind::Sharded {
            shards,
            inner: Box::new(inner),
        };
        // Sharded(2, Sharded(2, Simd)) is pointless but legal.
        let valid = DecoderConfig {
            backend: nest(nest(ScoringBackendKind::Simd, 2), 2),
            ..DecoderConfig::default()
        };
        valid.validate().unwrap();
        assert_eq!(
            valid
                .backend
                .build_scorer(&GmmSelectionConfig::default())
                .unwrap()
                .name(),
            "sharded"
        );
        // A zero shard count is rejected at every nesting depth.
        for bad_backend in [
            nest(nest(ScoringBackendKind::Software, 0), 2),
            nest(nest(ScoringBackendKind::Software, 2), 0),
            nest(nest(nest(ScoringBackendKind::Simd, 0), 1), 1),
        ] {
            let bad = DecoderConfig {
                backend: bad_backend,
                ..DecoderConfig::default()
            };
            assert!(bad.validate().is_err(), "{:?}", bad.backend);
        }
        // An invalid SoC leaf fails through two shard wrappers.
        let bad_leaf = DecoderConfig {
            backend: nest(
                nest(
                    ScoringBackendKind::Hardware(SocConfig {
                        num_structures: 0,
                        ..SocConfig::default()
                    }),
                    2,
                ),
                2,
            ),
            ..DecoderConfig::default()
        };
        assert!(bad_leaf.validate().is_err());
        // The total scorer count is bounded by the SoC's structure bound,
        // as a product over the nesting.
        let max = SocConfig::MAX_STRUCTURES;
        nest(nest(ScoringBackendKind::Simd, 32), max / 32)
            .validate()
            .unwrap();
        for too_many in [
            nest(ScoringBackendKind::Simd, max + 1),
            nest(ScoringBackendKind::Software, usize::MAX),
            nest(nest(ScoringBackendKind::Simd, 33), max / 32),
            nest(nest(ScoringBackendKind::Simd, usize::MAX), usize::MAX),
        ] {
            assert!(
                matches!(too_many.validate(), Err(DecodeError::InvalidConfig(_))),
                "{too_many:?}"
            );
            assert!(too_many
                .build_scorer(&GmmSelectionConfig::default())
                .is_err());
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        let c = DecoderConfig {
            beam: 0.0,
            ..DecoderConfig::default()
        };
        assert!(c.validate().is_err());
        let c = DecoderConfig {
            word_beam: -1.0,
            ..DecoderConfig::default()
        };
        assert!(c.validate().is_err());
        let c = DecoderConfig {
            max_active_hmms: 0,
            ..DecoderConfig::default()
        };
        assert!(c.validate().is_err());
        let c = DecoderConfig {
            lm_weight: 0.0,
            ..DecoderConfig::default()
        };
        assert!(c.validate().is_err());
        let mut c = DecoderConfig::default();
        c.gmm_selection.cds_period = 0;
        assert!(c.validate().is_err());
        let mut c = DecoderConfig::default();
        c.gmm_selection.cds_threshold = -0.5;
        assert!(c.validate().is_err());
        let mut c = DecoderConfig::default();
        c.gmm_selection.cds_threshold = f32::NAN;
        assert!(c.validate().is_err());
        let c = DecoderConfig::hardware(0);
        assert!(c.validate().is_err());
    }

    /// NaN and ∞ compare false against `<= 0.0`, so a sign check alone lets
    /// each of these through, and each decodes to a wrong result (a
    /// one-word hypothesis scored −1e30 or +∞, or pruning switched off)
    /// instead of failing.
    #[test]
    fn non_finite_scores_are_rejected() {
        type Case = (&'static str, fn(&mut DecoderConfig));
        let cases: [Case; 9] = [
            ("lm_weight = NaN", |c| c.lm_weight = f32::NAN),
            ("lm_weight = +inf", |c| c.lm_weight = f32::INFINITY),
            ("word_insertion_penalty = NaN", |c| {
                c.word_insertion_penalty = f32::NAN
            }),
            ("word_insertion_penalty = +inf", |c| {
                c.word_insertion_penalty = f32::INFINITY
            }),
            ("word_insertion_penalty = -inf", |c| {
                c.word_insertion_penalty = f32::NEG_INFINITY
            }),
            ("beam = NaN", |c| c.beam = f32::NAN),
            ("beam = +inf", |c| c.beam = f32::INFINITY),
            ("word_beam = NaN", |c| c.word_beam = f32::NAN),
            ("word_beam = +inf", |c| c.word_beam = f32::INFINITY),
        ];
        for (case, set) in cases {
            let mut config = DecoderConfig::simd();
            set(&mut config);
            assert!(
                matches!(config.validate(), Err(DecodeError::InvalidConfig(_))),
                "{case} must be rejected"
            );
        }
    }

    #[test]
    fn gmm_selection_helpers() {
        let base = GmmSelectionConfig::default();
        assert_eq!(base.cds_period, 1);
        assert!(base.senone_feedback);
        let cds = GmmSelectionConfig::with_cds(2);
        assert_eq!(cds.cds_period, 2);
        assert_eq!(GmmSelectionConfig::with_cds(0).cds_period, 1);
    }
}
