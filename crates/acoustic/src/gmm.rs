//! Diagonal-covariance Gaussians and Gaussian mixtures.
//!
//! The paper evaluates the observation probability of equation (3)–(4):
//! a weighted mixture of multivariate Gaussians with diagonal covariance,
//! computed entirely in the log domain.  Equation (6) rewrites one component
//! as
//!
//! ```text
//! log(A_kj) = C_jk + Σ_i (O_ji − µ_ji)² · δ_ji
//! ```
//!
//! where `δ_ji = −1 / (2σ_ji²)` and `C_jk` folds the mixture weight and the
//! Gaussian normalisation constant.  [`DiagGaussian`] precomputes exactly the
//! `δ` and `C` terms the hardware's Gaussian-parameter buffer holds, so both
//! the software decoder and the cycle-accurate OP-unit model consume the same
//! parameters.

use crate::AcousticError;
use asr_float::{LogProb, Quantizer};

/// Floor applied to variances to avoid division by ~zero and the resulting
/// spiky likelihoods; standard practice in HMM training.
pub const VARIANCE_FLOOR: f32 = 1.0e-4;

/// A single diagonal-covariance Gaussian.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagGaussian {
    mean: Vec<f32>,
    variance: Vec<f32>,
    /// `δ_i = -1 / (2 σ_i²)` — the precision terms streamed to the OP unit.
    precision: Vec<f32>,
    /// `log( (2π)^(-L/2) · Π σ_i^(-1) )` — the log normalisation constant.
    log_norm: f32,
}

impl DiagGaussian {
    /// Creates a Gaussian from a mean and variance vector.
    ///
    /// Variances are floored at [`VARIANCE_FLOOR`].
    ///
    /// # Errors
    ///
    /// Returns [`AcousticError::DimensionMismatch`] if the vectors differ in
    /// length or are empty, and [`AcousticError::InvalidParameter`] if any
    /// value is not finite.
    pub fn new(mean: Vec<f32>, variance: Vec<f32>) -> Result<Self, AcousticError> {
        if mean.is_empty() || mean.len() != variance.len() {
            return Err(AcousticError::DimensionMismatch {
                expected: mean.len(),
                got: variance.len(),
            });
        }
        if mean.iter().chain(variance.iter()).any(|v| !v.is_finite()) {
            return Err(AcousticError::InvalidParameter(
                "mean/variance must be finite".into(),
            ));
        }
        let variance: Vec<f32> = variance.iter().map(|&v| v.max(VARIANCE_FLOOR)).collect();
        let precision: Vec<f32> = variance.iter().map(|&v| -0.5 / v).collect();
        let dim = mean.len() as f64;
        let log_det: f64 = variance.iter().map(|&v| (v as f64).ln()).sum();
        let log_norm = (-0.5 * (dim * (2.0 * std::f64::consts::PI).ln() + log_det)) as f32;
        Ok(DiagGaussian {
            mean,
            variance,
            precision,
            log_norm,
        })
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Mean vector.
    pub fn mean(&self) -> &[f32] {
        &self.mean
    }

    /// Variance vector (after flooring).
    pub fn variance(&self) -> &[f32] {
        &self.variance
    }

    /// The `δ_i = −1/(2σ_i²)` precision terms fed to the OP unit datapath.
    pub fn precision(&self) -> &[f32] {
        &self.precision
    }

    /// The log normalisation constant
    /// `log((2π)^(−L/2) · Πσ_i^(−1/2)·…)` of this Gaussian.
    pub fn log_norm(&self) -> f32 {
        self.log_norm
    }

    /// Log density `log N(x; µ, σ)` evaluated in the log domain, the reference
    /// computation the hardware OP unit is verified against.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `x` has the wrong dimension.
    pub fn log_density(&self, x: &[f32]) -> LogProb {
        debug_assert_eq!(x.len(), self.dim(), "feature dimension mismatch");
        let mut acc = self.log_norm as f64;
        for ((&xi, &mi), &pi) in x.iter().zip(&self.mean).zip(&self.precision) {
            let d = (xi - mi) as f64;
            acc += d * d * pi as f64;
        }
        LogProb::new(acc as f32)
    }

    /// Returns a copy with every stored parameter quantised by `quantizer`
    /// (mean, variance and the derived precision/constant terms, since the
    /// hardware stores the derived forms).
    pub fn quantized(&self, quantizer: &Quantizer) -> DiagGaussian {
        let mean = quantizer.quantized(&self.mean);
        let variance = quantizer.quantized(&self.variance);
        let mut g = DiagGaussian::new(mean, variance).expect("quantised Gaussian stays valid");
        g.precision = quantizer.quantized(&g.precision);
        g.log_norm = quantizer.quantize(g.log_norm);
        g
    }

    /// Number of stored parameters (mean + variance), as counted by the flash
    /// layout: the derived `δ`/`C` values are what is streamed, but they are
    /// the same count as mean + variance (+1 constant folded into the weight).
    pub fn param_count(&self) -> usize {
        2 * self.dim()
    }
}

/// A weighted mixture of diagonal Gaussians — one senone's output density.
#[derive(Debug, Clone, PartialEq)]
pub struct GaussianMixture {
    components: Vec<DiagGaussian>,
    weights: Vec<f32>,
    /// `C_jk` of equation (6): log(weight_k) + log_norm_k, precomputed.
    log_weight_consts: Vec<f32>,
}

impl GaussianMixture {
    /// Creates a mixture from `(weight, gaussian)` pairs.  Weights are
    /// normalised to sum to one.
    ///
    /// # Errors
    ///
    /// Returns [`AcousticError::InvalidParameter`] if there are no components,
    /// any weight is non-positive/not finite, or
    /// [`AcousticError::DimensionMismatch`] if components disagree on the
    /// dimension.
    pub fn new(components: Vec<(f32, DiagGaussian)>) -> Result<Self, AcousticError> {
        if components.is_empty() {
            return Err(AcousticError::InvalidParameter(
                "mixture needs at least one component".into(),
            ));
        }
        let dim = components[0].1.dim();
        for (w, g) in &components {
            if g.dim() != dim {
                return Err(AcousticError::DimensionMismatch {
                    expected: dim,
                    got: g.dim(),
                });
            }
            if !w.is_finite() || *w <= 0.0 {
                return Err(AcousticError::InvalidParameter(format!(
                    "mixture weight {w} must be positive and finite"
                )));
            }
        }
        let total: f32 = components.iter().map(|(w, _)| w).sum();
        let weights: Vec<f32> = components.iter().map(|(w, _)| w / total).collect();
        let comps: Vec<DiagGaussian> = components.into_iter().map(|(_, g)| g).collect();
        let log_weight_consts = weights
            .iter()
            .zip(&comps)
            .map(|(&w, g)| (w as f64).ln() as f32 + g.log_norm())
            .collect();
        Ok(GaussianMixture {
            components: comps,
            weights,
            log_weight_consts,
        })
    }

    /// Number of mixture components.
    pub fn num_components(&self) -> usize {
        self.components.len()
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.components[0].dim()
    }

    /// The mixture components.
    pub fn components(&self) -> &[DiagGaussian] {
        &self.components
    }

    /// Normalised mixture weights.
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// The precomputed `C_jk = log(c_k) + log_norm_k` constants of equation (6).
    pub fn log_weight_consts(&self) -> &[f32] {
        &self.log_weight_consts
    }

    /// Log mixture likelihood `log b_j(x) = log Σ_k c_k N(x; µ_k, σ_k)` —
    /// equation (5) of the paper, evaluated with the exact log-add.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `x` has the wrong dimension.
    pub fn log_likelihood(&self, x: &[f32]) -> LogProb {
        let mut acc = LogProb::zero();
        for (k, g) in self.components.iter().enumerate() {
            let comp = LogProb::new(self.log_weight_consts[k] - g.log_norm()) + g.log_density(x);
            acc = acc.log_add(comp);
        }
        acc
    }

    /// Returns a copy with all parameters quantised.
    pub fn quantized(&self, quantizer: &Quantizer) -> GaussianMixture {
        let comps: Vec<DiagGaussian> = self
            .components
            .iter()
            .map(|g| g.quantized(quantizer))
            .collect();
        let weights = quantizer.quantized(&self.weights);
        let mut mix = GaussianMixture::new(weights.iter().copied().zip(comps).collect())
            .expect("quantised mixture stays valid");
        mix.log_weight_consts = quantizer.quantized(&mix.log_weight_consts);
        mix
    }

    /// Stored parameter count: per component, mean + variance + weight.
    /// With 8 components and 39 dimensions this is 8·(2·39) + 8 = 632, which
    /// at 6 000 senones and 32-bit storage reproduces the paper's 15.16 MB.
    pub fn param_count(&self) -> usize {
        self.components
            .iter()
            .map(|g| g.param_count())
            .sum::<usize>()
            + self.weights.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asr_float::MantissaWidth;
    use proptest::prelude::*;

    fn unit_gaussian(dim: usize) -> DiagGaussian {
        DiagGaussian::new(vec![0.0; dim], vec![1.0; dim]).unwrap()
    }

    #[test]
    fn gaussian_rejects_bad_input() {
        assert!(DiagGaussian::new(vec![], vec![]).is_err());
        assert!(DiagGaussian::new(vec![0.0], vec![1.0, 2.0]).is_err());
        assert!(DiagGaussian::new(vec![f32::NAN], vec![1.0]).is_err());
        assert!(DiagGaussian::new(vec![0.0], vec![f32::INFINITY]).is_err());
    }

    #[test]
    fn variance_is_floored() {
        let g = DiagGaussian::new(vec![0.0], vec![0.0]).unwrap();
        assert!(g.variance()[0] >= VARIANCE_FLOOR);
        assert!(g.precision()[0].is_finite());
    }

    #[test]
    fn log_density_matches_closed_form_1d() {
        let g = DiagGaussian::new(vec![1.0], vec![4.0]).unwrap();
        // N(x=3; µ=1, σ²=4) = 1/sqrt(2π·4) · exp(-(2)²/(2·4))
        let expected = (1.0 / (2.0 * std::f64::consts::PI * 4.0).sqrt()) * (-0.5f64).exp();
        let got = g.log_density(&[3.0]).to_linear();
        assert!((got - expected).abs() / expected < 1e-5);
        assert_eq!(g.dim(), 1);
        assert_eq!(g.param_count(), 2);
    }

    #[test]
    fn density_is_maximised_at_mean() {
        let g = DiagGaussian::new(vec![1.0, -2.0, 0.5], vec![0.5, 1.0, 2.0]).unwrap();
        let at_mean = g.log_density(&[1.0, -2.0, 0.5]);
        for offset in [[0.5, 0.0, 0.0], [0.0, -1.0, 0.0], [1.0, 1.0, 1.0]] {
            let x: Vec<f32> = g.mean().iter().zip(&offset).map(|(m, o)| m + o).collect();
            assert!(g.log_density(&x).raw() < at_mean.raw());
        }
    }

    #[test]
    fn gaussian_integrates_to_one_1d() {
        // Riemann sum of exp(log_density) over a wide interval ≈ 1.
        let g = DiagGaussian::new(vec![0.3], vec![0.8]).unwrap();
        let step = 0.01f64;
        let total: f64 = (-1000..1000)
            .map(|i| g.log_density(&[(i as f32) * 0.01]).to_linear() * step)
            .sum();
        assert!((total - 1.0).abs() < 1e-3, "integral {total}");
    }

    #[test]
    fn mixture_rejects_bad_input() {
        assert!(GaussianMixture::new(vec![]).is_err());
        assert!(GaussianMixture::new(vec![(0.0, unit_gaussian(2))]).is_err());
        assert!(GaussianMixture::new(vec![(-1.0, unit_gaussian(2))]).is_err());
        assert!(GaussianMixture::new(vec![(f32::NAN, unit_gaussian(2))]).is_err());
        assert!(
            GaussianMixture::new(vec![(0.5, unit_gaussian(2)), (0.5, unit_gaussian(3)),]).is_err()
        );
    }

    #[test]
    fn mixture_weights_are_normalised() {
        let mix =
            GaussianMixture::new(vec![(2.0, unit_gaussian(2)), (6.0, unit_gaussian(2))]).unwrap();
        assert!((mix.weights()[0] - 0.25).abs() < 1e-6);
        assert!((mix.weights()[1] - 0.75).abs() < 1e-6);
        assert_eq!(mix.num_components(), 2);
        assert_eq!(mix.dim(), 2);
        assert_eq!(mix.log_weight_consts().len(), 2);
        assert_eq!(mix.components().len(), 2);
    }

    #[test]
    fn single_component_mixture_equals_gaussian() {
        let g = DiagGaussian::new(vec![0.5, -1.0], vec![1.0, 2.0]).unwrap();
        let mix = GaussianMixture::new(vec![(1.0, g.clone())]).unwrap();
        let x = [0.2f32, 0.3];
        assert!((mix.log_likelihood(&x).raw() - g.log_density(&x).raw()).abs() < 1e-4);
    }

    #[test]
    fn mixture_likelihood_between_min_and_max_component() {
        let g1 = DiagGaussian::new(vec![0.0], vec![1.0]).unwrap();
        let g2 = DiagGaussian::new(vec![4.0], vec![1.0]).unwrap();
        let mix = GaussianMixture::new(vec![(0.5, g1.clone()), (0.5, g2.clone())]).unwrap();
        let x = [1.0f32];
        let full = mix.log_likelihood(&x);
        let best = g1.log_density(&x).max(g2.log_density(&x));
        // An equal-weight mixture of two lies between half its best
        // component's density and that density.
        assert!(full.raw() >= best.raw() - core::f32::consts::LN_2 - 1e-5);
        assert!(full.raw() <= best.raw() + 1e-5);
    }

    #[test]
    fn param_count_matches_paper_geometry() {
        // 8 components × 39 dims → 8·78 + 8 = 632 parameters per senone.
        let comps: Vec<(f32, DiagGaussian)> = (0..8).map(|_| (1.0f32, unit_gaussian(39))).collect();
        let mix = GaussianMixture::new(comps).unwrap();
        assert_eq!(mix.param_count(), 632);
    }

    #[test]
    fn quantisation_changes_little_at_12_bits() {
        let g = DiagGaussian::new(vec![0.123456, -4.56789], vec![0.9876, 2.3456]).unwrap();
        let mix = GaussianMixture::new(vec![(0.3, g.clone()), (0.7, g)]).unwrap();
        let q = Quantizer::new(MantissaWidth::BITS_12);
        let qmix = mix.quantized(&q);
        let x = [0.5f32, -3.0];
        let a = mix.log_likelihood(&x).raw();
        let b = qmix.log_likelihood(&x).raw();
        assert!(
            (a - b).abs() < 0.05,
            "quantised mixture differs too much: {a} vs {b}"
        );
        assert_eq!(qmix.param_count(), mix.param_count());
    }

    proptest! {
        #[test]
        fn prop_density_finite(
            mean in proptest::collection::vec(-5.0f32..5.0, 4),
            var in proptest::collection::vec(0.1f32..5.0, 4),
            x in proptest::collection::vec(-10.0f32..10.0, 4),
        ) {
            let g = DiagGaussian::new(mean, var).unwrap();
            prop_assert!(g.log_density(&x).raw().is_finite());
        }

        #[test]
        fn prop_mixture_dominated_by_components(
            x in proptest::collection::vec(-5.0f32..5.0, 3),
            m1 in proptest::collection::vec(-3.0f32..3.0, 3),
            m2 in proptest::collection::vec(-3.0f32..3.0, 3),
            w in 0.05f32..0.95,
        ) {
            let g1 = DiagGaussian::new(m1, vec![1.0; 3]).unwrap();
            let g2 = DiagGaussian::new(m2, vec![1.0; 3]).unwrap();
            let mix = GaussianMixture::new(vec![(w, g1.clone()), (1.0 - w, g2.clone())]).unwrap();
            let lik = mix.log_likelihood(&x).to_linear();
            let manual = w as f64 * g1.log_density(&x).to_linear()
                + (1.0 - w) as f64 * g2.log_density(&x).to_linear();
            prop_assert!((lik - manual).abs() <= 1e-6 + 1e-3 * manual.abs());
        }

        #[test]
        fn prop_quantised_likelihood_close(
            x in proptest::collection::vec(-3.0f32..3.0, 4),
            mean in proptest::collection::vec(-3.0f32..3.0, 4),
        ) {
            let g = DiagGaussian::new(mean, vec![1.0; 4]).unwrap();
            let mix = GaussianMixture::new(vec![(1.0, g)]).unwrap();
            let q = Quantizer::new(MantissaWidth::BITS_12);
            let diff = (mix.log_likelihood(&x).raw()
                - mix.quantized(&q).log_likelihood(&x).raw()).abs();
            prop_assert!(diff < 0.1);
        }
    }
}
