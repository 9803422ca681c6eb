//! The complete acoustic model: senone pool + HMM topology + triphone
//! inventory + transition matrices.

use crate::gmm::GaussianMixture;
use crate::hmm::{HmmTopology, TransitionMatrix};
use crate::senone::{SenoneId, SenonePool};
use crate::triphone::{Triphone, TriphoneInventory};
use crate::AcousticError;
use asr_float::LogProb;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Dimensions of an acoustic model; the defaults are the paper's system
/// (6 000 senones, 8 Gaussians each, 39-dimensional features, 3-state HMMs,
/// 51 base phones).
#[derive(Debug, Clone, PartialEq)]
pub struct AcousticModelConfig {
    /// Number of tied states (senones).
    pub num_senones: usize,
    /// Gaussian components per senone mixture.
    pub num_components: usize,
    /// Feature-vector dimension.
    pub feature_dim: usize,
    /// HMM topology used by every triphone.
    pub topology: HmmTopology,
    /// Number of base phones ("there are 51 phones in English language").
    pub num_phones: usize,
    /// Self-loop probability used for default Bakis transition matrices.
    pub self_loop_prob: f64,
}

impl AcousticModelConfig {
    /// The configuration the paper's results assume: 6 000 senones,
    /// 8 components, 39 dimensions, 3-state HMMs, 51 phones.
    pub fn paper_default() -> Self {
        AcousticModelConfig {
            num_senones: 6_000,
            num_components: 8,
            feature_dim: 39,
            topology: HmmTopology::Three,
            num_phones: 51,
            self_loop_prob: 0.6,
        }
    }

    /// A tiny configuration for unit tests and examples that need to run in
    /// milliseconds.
    pub fn tiny() -> Self {
        AcousticModelConfig {
            num_senones: 24,
            num_components: 2,
            feature_dim: 6,
            topology: HmmTopology::Three,
            num_phones: 8,
            self_loop_prob: 0.5,
        }
    }

    /// Gaussian parameters stored per senone: `2·dim` per component plus one
    /// weight per component.
    pub fn params_per_senone(&self) -> usize {
        self.num_components * (2 * self.feature_dim) + self.num_components
    }

    /// Total Gaussian parameters in the senone pool.
    pub fn total_gaussian_params(&self) -> usize {
        self.num_senones * self.params_per_senone()
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`AcousticError::InvalidParameter`] if any dimension is zero or
    /// the self-loop probability is not in `(0, 1)`.
    pub fn validate(&self) -> Result<(), AcousticError> {
        if self.num_senones == 0
            || self.num_components == 0
            || self.feature_dim == 0
            || self.num_phones == 0
        {
            return Err(AcousticError::InvalidParameter(
                "model dimensions must be positive".into(),
            ));
        }
        if !(self.self_loop_prob > 0.0 && self.self_loop_prob < 1.0) {
            return Err(AcousticError::InvalidParameter(
                "self_loop_prob must be in (0, 1)".into(),
            ));
        }
        Ok(())
    }
}

impl Default for AcousticModelConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// A complete acoustic model.
///
/// Immutable once built: every constructor goes through
/// [`AcousticModel::new`], which stamps the model with a process-unique
/// [`AcousticModel::id`].  `Clone` shares the parameters: everything sits
/// behind one [`Arc`], so a clone costs one reference count and keeps the
/// id, because it keeps every parameter.
#[derive(Debug, Clone)]
pub struct AcousticModel {
    parts: Arc<ModelParts>,
}

#[derive(Debug)]
struct ModelParts {
    id: u64,
    config: AcousticModelConfig,
    senones: SenonePool,
    triphones: TriphoneInventory,
    transitions: TransitionMatrix,
}

impl AcousticModel {
    /// Assembles an acoustic model from its parts.
    ///
    /// # Errors
    ///
    /// Returns [`AcousticError::InvalidParameter`] or
    /// [`AcousticError::DimensionMismatch`] if the parts are inconsistent with
    /// the configuration (senone count, feature dimension or topology).
    pub fn new(
        config: AcousticModelConfig,
        senones: SenonePool,
        triphones: TriphoneInventory,
        transitions: TransitionMatrix,
    ) -> Result<Self, AcousticError> {
        config.validate()?;
        if senones.len() != config.num_senones {
            return Err(AcousticError::InvalidParameter(format!(
                "senone pool has {} senones, config says {}",
                senones.len(),
                config.num_senones
            )));
        }
        if senones.dim() != config.feature_dim {
            return Err(AcousticError::DimensionMismatch {
                expected: config.feature_dim,
                got: senones.dim(),
            });
        }
        if triphones.topology() != config.topology || transitions.topology() != config.topology {
            return Err(AcousticError::InvalidParameter(
                "triphone inventory / transition topology disagrees with config".into(),
            ));
        }
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        Ok(AcousticModel {
            parts: Arc::new(ModelParts {
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                config,
                senones,
                triphones,
                transitions,
            }),
        })
    }

    /// Builds a structurally valid model whose senones all share a single
    /// flat (untrained) distribution — used for sizing/bandwidth experiments
    /// where the parameter *values* do not matter, only their count.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation errors.
    pub fn untrained(config: AcousticModelConfig) -> Result<Self, AcousticError> {
        config.validate()?;
        let mixtures: Vec<GaussianMixture> = (0..config.num_senones)
            .map(|s| {
                let comps: Vec<(f32, crate::gmm::DiagGaussian)> = (0..config.num_components)
                    .map(|c| {
                        let offset = (s * config.num_components + c) as f32 * 1.0e-3;
                        let mean: Vec<f32> =
                            (0..config.feature_dim).map(|d| offset + d as f32).collect();
                        (
                            1.0,
                            crate::gmm::DiagGaussian::new(mean, vec![1.0; config.feature_dim])
                                .expect("valid gaussian"),
                        )
                    })
                    .collect();
                GaussianMixture::new(comps).expect("valid mixture")
            })
            .collect();
        let senones = SenonePool::new(mixtures)?;
        let mut triphones = TriphoneInventory::new(config.topology);
        let states = config.topology.num_states();
        for p in 0..config.num_phones {
            let first = (p * states) % config.num_senones;
            let ids: Vec<SenoneId> = (0..states)
                .map(|k| SenoneId(((first + k) % config.num_senones) as u32))
                .collect();
            triphones.add(
                Triphone::context_independent(crate::triphone::PhoneId(p as u16)),
                ids,
            )?;
        }
        let transitions = TransitionMatrix::bakis(config.topology, config.self_loop_prob)?;
        AcousticModel::new(config, senones, triphones, transitions)
    }

    /// Process-unique identity of this model's parameters: two models share
    /// an id only if one is a clone of the other.  Scorers key their derived
    /// per-model caches on it.
    pub fn id(&self) -> u64 {
        self.parts.id
    }

    /// The model configuration.
    pub fn config(&self) -> &AcousticModelConfig {
        &self.parts.config
    }

    /// The senone pool.
    pub fn senones(&self) -> &SenonePool {
        &self.parts.senones
    }

    /// The triphone inventory.
    pub fn triphones(&self) -> &TriphoneInventory {
        &self.parts.triphones
    }

    /// The shared transition matrix.
    pub fn transitions(&self) -> &TransitionMatrix {
        &self.parts.transitions
    }

    /// Feature dimension expected by [`AcousticModel::score_senone`].
    pub fn feature_dim(&self) -> usize {
        self.parts.config.feature_dim
    }

    /// Scores one senone against a feature vector.
    ///
    /// # Errors
    ///
    /// Returns [`AcousticError::UnknownId`] for an out-of-range id.
    pub fn score_senone(&self, id: SenoneId, x: &[f32]) -> Result<LogProb, AcousticError> {
        self.senones().score(id, x)
    }

    /// Scores every senone (the worst-case full-frame evaluation).
    pub fn score_all_senones(&self, x: &[f32]) -> Vec<LogProb> {
        self.senones().score_all(x)
    }

    /// Total stored Gaussian parameters (the quantity that drives the paper's
    /// memory/bandwidth table).
    pub fn gaussian_param_count(&self) -> usize {
        self.senones().param_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gmm::DiagGaussian;

    #[test]
    fn paper_config_reproduces_param_count() {
        let cfg = AcousticModelConfig::paper_default();
        cfg.validate().unwrap();
        assert_eq!(cfg.params_per_senone(), 632);
        assert_eq!(cfg.total_gaussian_params(), 3_792_000);
        assert_eq!(AcousticModelConfig::default(), cfg);
    }

    #[test]
    fn config_validation() {
        let mut c = AcousticModelConfig::tiny();
        c.num_senones = 0;
        assert!(c.validate().is_err());
        let mut c = AcousticModelConfig::tiny();
        c.self_loop_prob = 1.0;
        assert!(c.validate().is_err());
        let mut c = AcousticModelConfig::tiny();
        c.feature_dim = 0;
        assert!(c.validate().is_err());
        assert!(AcousticModelConfig::tiny().validate().is_ok());
    }

    #[test]
    fn untrained_model_is_consistent() {
        let cfg = AcousticModelConfig::tiny();
        let m = AcousticModel::untrained(cfg.clone()).unwrap();
        assert_eq!(m.senones().len(), cfg.num_senones);
        assert_eq!(m.feature_dim(), cfg.feature_dim);
        assert_eq!(m.triphones().len(), cfg.num_phones);
        assert_eq!(m.config(), &cfg);
        assert_eq!(m.gaussian_param_count(), cfg.total_gaussian_params());
        assert_eq!(m.transitions().topology(), cfg.topology);
        // A clone keeps the identity and shares the parameters; a fresh
        // build of the same shape does not.
        assert_eq!(m.clone().id(), m.id());
        assert!(std::ptr::eq(m.clone().senones(), m.senones()));
        assert_ne!(AcousticModel::untrained(cfg.clone()).unwrap().id(), m.id());
        // Every registered triphone's senones are valid.
        for (_, _, senones) in m.triphones().iter() {
            for &s in senones {
                assert!(m.senones().get(s).is_some());
            }
        }
    }

    #[test]
    fn scoring_paths_agree() {
        let m = AcousticModel::untrained(AcousticModelConfig::tiny()).unwrap();
        let x = vec![0.5f32; m.feature_dim()];
        let all = m.score_all_senones(&x);
        assert_eq!(all.len(), m.senones().len());
        for id in (0..5).map(SenoneId) {
            assert_eq!(m.score_senone(id, &x).unwrap().raw(), all[id.index()].raw());
        }
        assert!(m.score_senone(SenoneId(9999), &x).is_err());
    }

    #[test]
    fn new_rejects_inconsistent_parts() {
        let cfg = AcousticModelConfig::tiny();
        let good = AcousticModel::untrained(cfg.clone()).unwrap();

        // Senone count mismatch.
        let small_pool = SenonePool::new(vec![GaussianMixture::new(vec![(
            1.0,
            DiagGaussian::new(vec![0.0; cfg.feature_dim], vec![1.0; cfg.feature_dim]).unwrap(),
        )])
        .unwrap()])
        .unwrap();
        assert!(AcousticModel::new(
            cfg.clone(),
            small_pool,
            good.triphones().clone(),
            good.transitions().clone()
        )
        .is_err());

        // Topology mismatch.
        let bad_transitions = TransitionMatrix::bakis(HmmTopology::Five, 0.5).unwrap();
        assert!(AcousticModel::new(
            cfg.clone(),
            good.senones().clone(),
            good.triphones().clone(),
            bad_transitions
        )
        .is_err());

        // Feature-dim mismatch.
        let mut cfg2 = cfg.clone();
        cfg2.feature_dim = 4;
        assert!(AcousticModel::new(
            cfg2,
            good.senones().clone(),
            good.triphones().clone(),
            good.transitions().clone()
        )
        .is_err());
    }
}
