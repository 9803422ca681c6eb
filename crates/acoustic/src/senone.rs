//! Senones — tied HMM states shared across triphones.
//!
//! "In absence of enough training data, the states of different triphones are
//! represented by the same distribution, these are called senones. Therefore,
//! combination of senones forms triphones, which put together form words and
//! words put together form a sentence or utterance." (paper, Section II)

use crate::gmm::GaussianMixture;
use crate::AcousticError;
use asr_float::{LogProb, Quantizer};

/// Identifier of a senone within a [`SenonePool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SenoneId(pub u32);

impl SenoneId {
    /// The numeric index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for SenoneId {
    fn from(v: u32) -> Self {
        SenoneId(v)
    }
}

impl core::fmt::Display for SenoneId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "senone#{}", self.0)
    }
}

/// A senone: an identifier plus its output distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct Senone {
    id: SenoneId,
    mixture: GaussianMixture,
}

impl Senone {
    /// Creates a senone.
    pub fn new(id: SenoneId, mixture: GaussianMixture) -> Self {
        Senone { id, mixture }
    }

    /// The senone identifier.
    pub fn id(&self) -> SenoneId {
        self.id
    }

    /// The output distribution.
    pub fn mixture(&self) -> &GaussianMixture {
        &self.mixture
    }

    /// The senone score of the paper: `log b_j(O_t)` for feature vector `x`.
    pub fn score(&self, x: &[f32]) -> LogProb {
        self.mixture.log_likelihood(x)
    }

    /// Stored parameter count of this senone.
    pub fn param_count(&self) -> usize {
        self.mixture.param_count()
    }
}

/// The pool of all senones in an acoustic model.
///
/// Evaluating *all* senones every frame is the worst case the paper's
/// bandwidth figure assumes ("assuming all 6000 senones are evaluated in a
/// frame of 10 ms"); the decoder normally evaluates only the *active* subset
/// supplied by the word-decode feedback.
#[derive(Debug, Clone, PartialEq)]
pub struct SenonePool {
    senones: Vec<Senone>,
    dim: usize,
}

impl SenonePool {
    /// Builds a pool from senone output distributions (ids are assigned in
    /// order).
    ///
    /// # Errors
    ///
    /// Returns [`AcousticError::InvalidParameter`] if the pool is empty and
    /// [`AcousticError::DimensionMismatch`] if mixtures disagree on dimension.
    pub fn new(mixtures: Vec<GaussianMixture>) -> Result<Self, AcousticError> {
        if mixtures.is_empty() {
            return Err(AcousticError::InvalidParameter(
                "senone pool cannot be empty".into(),
            ));
        }
        let dim = mixtures[0].dim();
        for m in &mixtures {
            if m.dim() != dim {
                return Err(AcousticError::DimensionMismatch {
                    expected: dim,
                    got: m.dim(),
                });
            }
        }
        let senones = mixtures
            .into_iter()
            .enumerate()
            .map(|(i, m)| Senone::new(SenoneId(i as u32), m))
            .collect();
        Ok(SenonePool { senones, dim })
    }

    /// Number of senones in the pool.
    pub fn len(&self) -> usize {
        self.senones.len()
    }

    /// Returns `true` if the pool is empty (never true for a constructed pool).
    pub fn is_empty(&self) -> bool {
        self.senones.is_empty()
    }

    /// Feature dimension of every senone.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Looks up a senone.
    pub fn get(&self, id: SenoneId) -> Option<&Senone> {
        self.senones.get(id.index())
    }

    /// Iterates over all senones.
    pub fn iter(&self) -> impl Iterator<Item = &Senone> {
        self.senones.iter()
    }

    /// Scores a single senone against a feature vector.
    ///
    /// # Errors
    ///
    /// Returns [`AcousticError::UnknownId`] for an out-of-range senone id.
    pub fn score(&self, id: SenoneId, x: &[f32]) -> Result<LogProb, AcousticError> {
        self.get(id)
            .map(|s| s.score(x))
            .ok_or_else(|| AcousticError::UnknownId(format!("{id}")))
    }

    /// Scores every senone in the pool (the worst-case full evaluation).
    pub fn score_all(&self, x: &[f32]) -> Vec<LogProb> {
        self.senones.iter().map(|s| s.score(x)).collect()
    }

    /// Total stored parameter count over all senones.
    pub fn param_count(&self) -> usize {
        self.senones.iter().map(|s| s.param_count()).sum()
    }

    /// Returns a pool with every senone's parameters quantised.
    pub fn quantized(&self, quantizer: &Quantizer) -> SenonePool {
        SenonePool {
            senones: self
                .senones
                .iter()
                .map(|s| Senone::new(s.id, s.mixture.quantized(quantizer)))
                .collect(),
            dim: self.dim,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gmm::DiagGaussian;
    use asr_float::MantissaWidth;

    fn pool(n: usize, dim: usize) -> SenonePool {
        let mixtures: Vec<GaussianMixture> = (0..n)
            .map(|i| {
                let mean: Vec<f32> = (0..dim).map(|d| (i + d) as f32 * 0.1).collect();
                let g = DiagGaussian::new(mean, vec![1.0; dim]).unwrap();
                GaussianMixture::new(vec![(1.0, g)]).unwrap()
            })
            .collect();
        SenonePool::new(mixtures).unwrap()
    }

    #[test]
    fn pool_basics() {
        let p = pool(10, 4);
        assert_eq!(p.len(), 10);
        assert!(!p.is_empty());
        assert_eq!(p.dim(), 4);
        assert_eq!(p.iter().count(), 10);
        assert!(p.get(SenoneId(3)).is_some());
        assert!(p.get(SenoneId(10)).is_none());
        assert_eq!(p.get(SenoneId(3)).unwrap().id(), SenoneId(3));
        assert_eq!(SenoneId::from(7u32), SenoneId(7));
        assert_eq!(SenoneId(5).index(), 5);
        assert_eq!(format!("{}", SenoneId(2)), "senone#2");
    }

    #[test]
    fn empty_pool_rejected() {
        assert!(SenonePool::new(vec![]).is_err());
    }

    #[test]
    fn mismatched_dims_rejected() {
        let g2 = GaussianMixture::new(vec![(
            1.0,
            DiagGaussian::new(vec![0.0; 2], vec![1.0; 2]).unwrap(),
        )])
        .unwrap();
        let g3 = GaussianMixture::new(vec![(
            1.0,
            DiagGaussian::new(vec![0.0; 3], vec![1.0; 3]).unwrap(),
        )])
        .unwrap();
        assert!(SenonePool::new(vec![g2, g3]).is_err());
    }

    #[test]
    fn scoring_all_and_single_senones() {
        let p = pool(20, 4);
        let x = [0.3f32, 0.2, 0.1, 0.0];
        let all = p.score_all(&x);
        assert_eq!(all.len(), 20);
        for id in [2u32, 5, 19].map(SenoneId) {
            assert_eq!(p.score(id, &x).unwrap().raw(), all[id.index()].raw());
        }
        // Out-of-range ids error in single scoring.
        assert!(p.score(SenoneId(99), &x).is_err());
        assert!(p.score(SenoneId(0), &x).is_ok());
    }

    #[test]
    fn closest_senone_scores_best() {
        let p = pool(10, 4);
        // Senone i has mean ≈ (i*0.1, …); a vector near senone 9's mean should
        // score best there.
        let x: Vec<f32> = (0..4).map(|d| (9 + d) as f32 * 0.1).collect();
        let all = p.score_all(&x);
        let best = all
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(best, 9);
    }

    #[test]
    fn param_count_scales_with_pool() {
        let p = pool(10, 4);
        assert_eq!(p.param_count(), 10 * (2 * 4 + 1));
    }

    #[test]
    fn quantized_pool_scores_close() {
        let p = pool(5, 4);
        let q = p.quantized(&Quantizer::new(MantissaWidth::BITS_12));
        let x = [0.1f32, 0.3, -0.2, 0.4];
        for (a, b) in p.score_all(&x).iter().zip(q.score_all(&x)) {
            assert!((a.raw() - b.raw()).abs() < 0.05);
        }
        assert_eq!(q.len(), p.len());
    }
}
