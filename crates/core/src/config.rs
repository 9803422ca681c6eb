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
//
// `SocConfig` is much larger than the unit variants, but a `DecoderConfig` is
// built once per recogniser, never stored in bulk, so boxing it would only
// complicate every construction site.
#[allow(clippy::large_enum_variant)]
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
    /// # Errors
    ///
    /// Returns [`DecodeError::InvalidConfig`] if the SoC configuration is
    /// invalid.
    pub fn build_scorer(
        &self,
        selection: &GmmSelectionConfig,
    ) -> Result<Box<dyn SenoneScorer>, DecodeError> {
        match self {
            ScoringBackendKind::Hardware(cfg) => Ok(Box::new(SocScorer::new(cfg.clone())?)),
            ScoringBackendKind::Software => Ok(Box::new(SoftwareScorer::new(*selection))),
            ScoringBackendKind::Simd => Ok(Box::new(SimdScorer::new(*selection))),
            ScoringBackendKind::Sharded { shards, inner } => {
                let built = (0..*shards)
                    .map(|_| inner.build_scorer(selection))
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
    /// configuration or a zero shard count.
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
                inner.validate()
            }
        }
    }
}

/// The four-layer fast-GMM-computation scheme of Chan et al. that the paper's
/// architecture "adapts to".  Each layer skips work at a different
/// granularity; Conditional Down Sampling (the frame layer) is the one the
/// paper highlights as having "the potential to cut the power usage by a
/// considerable margin".
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
    /// Gaussian layer: evaluate only the best-scoring mixture component
    /// instead of the full log-sum (a common approximation).
    pub best_component_only: bool,
    /// Component layer: evaluate only the first `max_dims` feature dimensions
    /// of each Gaussian (`None` = all), a dimension-truncation shortcut.
    pub max_dims: Option<usize>,
}

impl Default for GmmSelectionConfig {
    fn default() -> Self {
        GmmSelectionConfig {
            cds_period: 1,
            cds_threshold: 1.0,
            senone_feedback: true,
            best_component_only: false,
            max_dims: None,
        }
    }
}

impl GmmSelectionConfig {
    /// All four layers disabled except the architectural senone feedback.
    pub fn baseline() -> Self {
        Self::default()
    }

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
    /// structures.
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
    /// Returns [`DecodeError::InvalidConfig`] for non-positive beams, a zero
    /// instance cap, a non-positive LM weight or an invalid SoC configuration.
    pub fn validate(&self) -> Result<(), DecodeError> {
        if self.beam <= 0.0 || self.word_beam <= 0.0 {
            return Err(DecodeError::InvalidConfig("beams must be positive".into()));
        }
        if self.max_active_hmms == 0 {
            return Err(DecodeError::InvalidConfig("max_active_hmms == 0".into()));
        }
        if self.lm_weight <= 0.0 {
            return Err(DecodeError::InvalidConfig(
                "lm_weight must be positive".into(),
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

    #[test]
    fn gmm_selection_helpers() {
        let base = GmmSelectionConfig::baseline();
        assert_eq!(base.cds_period, 1);
        assert!(base.senone_feedback);
        assert!(!base.best_component_only);
        assert_eq!(base.max_dims, None);
        let cds = GmmSelectionConfig::with_cds(2);
        assert_eq!(cds.cds_period, 2);
        assert_eq!(GmmSelectionConfig::with_cds(0).cds_period, 1);
    }
}
