//! Cycle-accurate model of the Observation Probability (OP) unit (Figure 2).
//!
//! Datapath, as described in Section III-B of the paper:
//!
//! 1. the input feature vector is stored in an internal buffer;
//! 2. Gaussian parameters (mean `µ_ji`, precision `δ_ji`, constant `C_jk`)
//!    are streamed into the Gaussian-parameter buffer from flash;
//! 3. an `(X−Y)²·Z` floating-point unit followed by an adder closes the inner
//!    loop of equation (6), one feature dimension per pipeline beat;
//! 4. a fused multiply-add performs the scale-and-weight adjustment (SWA);
//! 5. the `logadd` unit folds mixture components together using the identity
//!    `log(A+B) = log(A) + log(1 + B/A)` and a 512-byte SRAM lookup table.
//!
//! The model computes exactly what that datapath computes (IEEE-754 single
//! operations quantised to the datapath width by [`asr_float::SoftFloat`],
//! and the SRAM table of [`asr_float::LogAddTable`]) and counts
//! cycles per pipeline stage so the SoC model can answer the paper's
//! real-time and power questions.

use crate::clock::{ClockGate, CycleCount};
use crate::HwError;
use asr_acoustic::{AcousticModel, SenoneId};
use asr_float::{LogAddTable, LogProb, MantissaWidth, SoftFloat};

/// Pipeline fill latency in cycles before the first result of a Gaussian
/// emerges (depth of the (X−Y)²·Z + adder pipeline).
const PIPELINE_FILL_CYCLES: CycleCount = 6;
/// Cycles per feature dimension once the pipeline is full (fully pipelined).
const CYCLES_PER_DIMENSION: CycleCount = 1;
/// Cycles for the scale-and-weight fused multiply-add closing each Gaussian.
const SWA_CYCLES: CycleCount = 2;
/// Cycles for one log-add (SRAM lookup + add).
const LOGADD_CYCLES: CycleCount = 2;
/// Cycles to latch one feature-vector element into the input buffer.
const FEATURE_LOAD_CYCLES_PER_DIM: CycleCount = 1;

/// Activity statistics of the OP unit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpuStats {
    /// Total busy cycles.
    pub cycles: CycleCount,
    /// Senones scored.
    pub senones_evaluated: u64,
    /// Individual Gaussians evaluated.
    pub gaussians_evaluated: u64,
    /// Log-add operations performed.
    pub logadds: u64,
    /// Gaussian parameters streamed from flash (values, not bytes).
    pub parameters_streamed: u64,
    /// Feature values loaded into the input buffer.
    pub feature_loads: u64,
}

/// The Observation Probability unit simulator.
#[derive(Debug, Clone)]
pub struct ObservationProbabilityUnit {
    datapath: SoftFloat,
    logadd: LogAddTable,
    feature: Option<Vec<f32>>,
    stats: OpuStats,
    gate: ClockGate,
}

impl ObservationProbabilityUnit {
    /// Builds an OP unit whose floating-point datapath carries `width`
    /// mantissa bits (the paper's sweep: 23, 15 or 12).
    pub fn new(width: MantissaWidth) -> Self {
        ObservationProbabilityUnit {
            datapath: SoftFloat::with_width(width),
            logadd: LogAddTable::new(),
            feature: None,
            stats: OpuStats::default(),
            gate: ClockGate::new(),
        }
    }

    /// Cycles to evaluate one Gaussian over `dim` feature dimensions:
    /// pipeline fill, one beat per dimension and the scale-and-weight step.
    pub fn cycles_per_gaussian(dim: usize) -> CycleCount {
        PIPELINE_FILL_CYCLES + CYCLES_PER_DIMENSION * dim as u64 + SWA_CYCLES
    }

    /// Cycles needed to score one senone with `components` mixture components
    /// over `dim` feature dimensions (analytic form of the cycle model, used
    /// by capacity planning; the simulator charges exactly this per senone).
    pub fn cycles_per_senone(dim: usize, components: usize) -> CycleCount {
        components as u64 * (Self::cycles_per_gaussian(dim) + LOGADD_CYCLES)
    }

    /// Maximum senones one OP unit can score within a cycle budget
    /// (e.g. the 500 000 cycles of a 10 ms frame at 50 MHz).
    pub fn senone_capacity(dim: usize, components: usize, budget: CycleCount) -> usize {
        (budget / Self::cycles_per_senone(dim, components).max(1)) as usize
    }

    /// Activity statistics since the last reset.
    pub fn stats(&self) -> &OpuStats {
        &self.stats
    }

    /// Clock-gating record (active vs gated cycles).
    pub fn clock_gate(&self) -> &ClockGate {
        &self.gate
    }

    /// Loads the frame's feature vector into the internal buffer
    /// ("the input feature vector is first stored in the internal buffer").
    pub fn load_feature_vector(&mut self, x: &[f32]) {
        let cycles = FEATURE_LOAD_CYCLES_PER_DIM * x.len() as u64;
        self.stats.cycles += cycles;
        self.stats.feature_loads += x.len() as u64;
        self.gate.record_active(cycles);
        let buffer = self.feature.get_or_insert_with(Vec::new);
        buffer.clear();
        buffer.extend_from_slice(x);
    }

    /// Records idle time (no senones to score) during which the unit's clock
    /// is gated.
    pub fn idle(&mut self, cycles: CycleCount) {
        self.gate.record_gated(cycles);
    }

    /// Scores one senone of `model` against the loaded feature vector,
    /// returning the log observation probability (the "senone score").
    ///
    /// # Errors
    ///
    /// * [`HwError::NoFeatureLoaded`] if no feature vector has been loaded;
    /// * [`HwError::UnknownId`] if the senone id is out of range;
    /// * [`HwError::ShapeMismatch`] if the loaded vector's dimension differs
    ///   from the model's.
    pub fn score_senone(
        &mut self,
        model: &AcousticModel,
        id: SenoneId,
    ) -> Result<LogProb, HwError> {
        let x = self.feature.as_deref().ok_or(HwError::NoFeatureLoaded)?;
        if x.len() != model.feature_dim() {
            return Err(HwError::ShapeMismatch(format!(
                "feature dim {} vs model dim {}",
                x.len(),
                model.feature_dim()
            )));
        }
        let senone = model
            .senones()
            .get(id)
            .ok_or_else(|| HwError::UnknownId(format!("{id}")))?;
        let mix = senone.mixture();
        let components = mix.components();
        let mut score = LogProb::zero();
        for (gaussian, &constant) in components.iter().zip(mix.log_weight_consts()) {
            // Inner loop of equation (6): C_jk + Σ_i (o_i − µ_i)²·δ_i,
            // computed on the reduced-width datapath exactly as the pipeline
            // would; the logadd stage folds it into the running mixture sum.
            let exponent =
                self.datapath
                    .gaussian_exponent(x, gaussian.mean(), gaussian.precision(), constant);
            score = self.logadd.log_add(score, LogProb::new(exponent));
        }
        // Every component of a mixture has the model's dimension, so the
        // whole senone is charged at once: µ, δ and C streamed from flash per
        // component, one Gaussian and one log-add each, and the cycles of
        // the pipeline model.
        let (dim, k) = (x.len() as u64, components.len() as u64);
        let cycles = Self::cycles_per_senone(x.len(), components.len());
        self.stats.parameters_streamed += k * (2 * dim + 1);
        self.stats.gaussians_evaluated += k;
        self.stats.logadds += k;
        self.stats.cycles += cycles;
        self.stats.senones_evaluated += 1;
        self.gate.record_active(cycles);
        Ok(score)
    }

    /// Resets statistics and clock-gating counters (keeps the loaded feature).
    pub fn reset_stats(&mut self) {
        self.stats = OpuStats::default();
        self.gate.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asr_acoustic::{
        AcousticModelConfig, DiagGaussian, GaussianMixture, SenonePool, TransitionMatrix,
        TriphoneInventory,
    };
    use proptest::prelude::*;

    fn model() -> AcousticModel {
        AcousticModel::untrained(AcousticModelConfig::tiny()).unwrap()
    }

    #[test]
    fn requires_feature_vector() {
        let m = model();
        let mut opu = ObservationProbabilityUnit::new(MantissaWidth::FULL);
        assert_eq!(
            opu.score_senone(&m, SenoneId(0)).unwrap_err(),
            HwError::NoFeatureLoaded
        );
    }

    #[test]
    fn rejects_bad_ids_and_shapes() {
        let m = model();
        let mut opu = ObservationProbabilityUnit::new(MantissaWidth::FULL);
        opu.load_feature_vector(&vec![0.0; m.feature_dim()]);
        assert!(matches!(
            opu.score_senone(&m, SenoneId(9_999)),
            Err(HwError::UnknownId(_))
        ));
        opu.load_feature_vector(&[0.0; 3]);
        assert!(matches!(
            opu.score_senone(&m, SenoneId(0)),
            Err(HwError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn matches_reference_scoring_closely() {
        // The hardware's answer (table log-add, full-width datapath) must track
        // the exact software reference within the table's error bound.
        let m = model();
        let mut opu = ObservationProbabilityUnit::new(MantissaWidth::FULL);
        let x: Vec<f32> = (0..m.feature_dim()).map(|d| 0.3 * d as f32 - 0.7).collect();
        opu.load_feature_vector(&x);
        for i in 0..m.senones().len() {
            let id = SenoneId(i as u32);
            let hw = opu.score_senone(&m, id).unwrap();
            let sw = m.score_senone(id, &x).unwrap();
            assert!(
                (hw.raw() - sw.raw()).abs() < 0.1,
                "senone {i}: hw {} vs sw {}",
                hw.raw(),
                sw.raw()
            );
        }
    }

    #[test]
    fn reduced_width_still_tracks_reference() {
        let m = model();
        let mut opu = ObservationProbabilityUnit::new(MantissaWidth::BITS_12);
        let x: Vec<f32> = (0..m.feature_dim()).map(|d| 0.1 * d as f32).collect();
        opu.load_feature_vector(&x);
        let hw = opu.score_senone(&m, SenoneId(3)).unwrap();
        let sw = m.score_senone(SenoneId(3), &x).unwrap();
        assert!((hw.raw() - sw.raw()).abs() < 0.5);
    }

    /// A random model: 1–40 dimensions, 1–8 components per senone, means in
    /// ±3, variances in [0.05, 4) and weights in [0.1, 1).
    fn random_model(rng: &mut crate::TestRng) -> AcousticModel {
        let config = AcousticModelConfig {
            num_senones: 1 + rng.below(6),
            num_components: 1 + rng.below(8),
            feature_dim: 1 + rng.below(40),
            ..AcousticModelConfig::tiny()
        };
        let dim = config.feature_dim;
        let mixtures = (0..config.num_senones)
            .map(|_| {
                let components = (0..config.num_components)
                    .map(|_| {
                        let mean = (0..dim).map(|_| rng.uniform(-3.0, 3.0)).collect();
                        let variance = (0..dim).map(|_| rng.uniform(0.05, 4.0)).collect();
                        (
                            rng.uniform(0.1, 1.0),
                            DiagGaussian::new(mean, variance).unwrap(),
                        )
                    })
                    .collect();
                GaussianMixture::new(components).unwrap()
            })
            .collect();
        AcousticModel::new(
            config.clone(),
            SenonePool::new(mixtures).unwrap(),
            TriphoneInventory::new(config.topology),
            TransitionMatrix::bakis(config.topology, config.self_loop_prob).unwrap(),
        )
        .unwrap()
    }

    /// A priori bound on `|OP unit − AcousticModel::score_senone|` for one
    /// senone at datapath width `width`.
    ///
    /// Each datapath operation (f32 rounding, then quantisation to `width`)
    /// has relative error at most `u = 2^-width`, and a component's exponent
    /// `C + Σ (x − µ)²·δ` passes each input through at most `dim + 3` of
    /// them, so it is off by at most `γ(dim + 3)·(|C| + Σ|(x − µ)²·δ|)` with
    /// `γ(m) = m·u / (1 − m·u)`.  The f32 reference rounds a handful of
    /// times per component, bounded generously by `8·2^-24` of the same sum
    /// plus its normalisation constant.  Log-add is 1-Lipschitz in each
    /// argument, so those input errors pass through the mixture fold
    /// undiminished but unamplified, and each of the `K − 1` folds adds at
    /// most the SRAM table's worst error plus a few f32 roundings on each
    /// side.
    fn senone_bound(width: MantissaWidth, mix: &GaussianMixture, x: &[f32]) -> f64 {
        let u = width.max_relative_error();
        let gamma = |m: usize| m as f64 * u / (1.0 - m as f64 * u);
        let f32_unit = 2.0f64.powi(-24);
        let (mut datapath, mut reference, mut largest) = (0.0f64, 0.0f64, 0.0f64);
        for (g, &c) in mix.components().iter().zip(mix.log_weight_consts()) {
            let terms: f64 = x
                .iter()
                .zip(g.mean())
                .zip(g.precision())
                .map(|((&o, &m), &p)| ((o as f64 - m as f64).powi(2) * p as f64).abs())
                .sum();
            let magnitude = c.abs() as f64 + terms;
            datapath = datapath.max(gamma(x.len() + 3) * magnitude);
            reference = reference.max(8.0 * f32_unit * (magnitude + g.log_norm().abs() as f64));
            largest = largest.max(magnitude);
        }
        let folds = (mix.num_components() - 1) as f64;
        let table = LogAddTable::new().max_abs_error() as f64;
        datapath + reference + folds * (table + 8.0 * f32_unit * (2.0 * largest + 1.0))
    }

    proptest! {
        /// The SoC path's senone score stays within the a priori bound of
        /// the exact software reference at the paper's widths, over random
        /// models and features.
        #[test]
        fn prop_senone_scores_stay_within_the_datapath_bound(seed in 0u64..u64::MAX) {
            let mut rng = crate::TestRng(seed);
            let m = random_model(&mut rng);
            let x: Vec<f32> = (0..m.feature_dim()).map(|_| rng.uniform(-4.0, 4.0)).collect();
            for width in MantissaWidth::PAPER_SWEEP {
                let mut opu = ObservationProbabilityUnit::new(width);
                opu.load_feature_vector(&x);
                for (i, senone) in m.senones().iter().enumerate() {
                    let id = SenoneId(i as u32);
                    let hw = opu.score_senone(&m, id).unwrap().raw() as f64;
                    let sw = m.score_senone(id, &x).unwrap().raw() as f64;
                    let bound = senone_bound(width, senone.mixture(), &x);
                    prop_assert!(
                        (hw - sw).abs() <= bound,
                        "{}: senone {} of a {}-dim {}-component model: hw {} sw {} bound {}",
                        width,
                        i,
                        m.feature_dim(),
                        senone.mixture().num_components(),
                        hw,
                        sw,
                        bound
                    );
                }
            }
        }
    }

    #[test]
    fn cycle_counts_match_analytic_model() {
        let m = model();
        let mut opu = ObservationProbabilityUnit::new(MantissaWidth::FULL);
        let x = vec![0.0f32; m.feature_dim()];
        opu.load_feature_vector(&x);
        let before = opu.stats().cycles;
        opu.score_senone(&m, SenoneId(0)).unwrap();
        let per_senone = opu.stats().cycles - before;
        let dim = m.feature_dim();
        let comps = m.config().num_components;
        assert_eq!(
            per_senone,
            ObservationProbabilityUnit::cycles_per_senone(dim, comps)
        );
    }

    #[test]
    fn paper_capacity_is_under_half_the_senones_per_structure() {
        // With the paper's geometry (39 dims, 8 components) one OP unit at
        // 50 MHz can score ~1400 senones in a 10 ms frame, so two structures
        // cover just under half of the 6000-senone inventory — exactly the
        // claim that active senones must stay below 50 % for real time.
        let per_senone = ObservationProbabilityUnit::cycles_per_senone(39, 8);
        assert!(per_senone > 300 && per_senone < 450, "{per_senone}");
        let capacity = ObservationProbabilityUnit::senone_capacity(39, 8, 500_000);
        assert!(capacity > 1000 && capacity < 2000, "{capacity}");
        let two_units = 2 * capacity;
        assert!(two_units < 3000, "two structures stay under 50% of 6000");
        assert!(two_units > 2000);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let m = model();
        let mut opu = ObservationProbabilityUnit::new(MantissaWidth::FULL);
        let x = vec![0.0f32; m.feature_dim()];
        opu.load_feature_vector(&x);
        let ids: Vec<SenoneId> = (0..4).map(SenoneId).collect();
        let scores: Vec<LogProb> = ids
            .iter()
            .map(|&id| opu.score_senone(&m, id).unwrap())
            .collect();
        assert_eq!(scores.len(), 4);
        let s = opu.stats();
        assert_eq!(s.senones_evaluated, 4);
        assert_eq!(s.gaussians_evaluated, 4 * m.config().num_components as u64);
        assert_eq!(s.logadds, s.gaussians_evaluated);
        assert_eq!(
            s.parameters_streamed,
            4 * (m.config().num_components * (2 * m.feature_dim() + 1)) as u64
        );
        assert_eq!(s.feature_loads, m.feature_dim() as u64);
        assert!(s.cycles > 0);
        // Idle time counts as gated.
        opu.idle(10_000);
        assert!(opu.clock_gate().gated_cycles() >= 10_000);
        assert!(opu.clock_gate().activity_factor() < 1.0);
        opu.reset_stats();
        assert_eq!(opu.stats().cycles, 0);
        assert_eq!(opu.clock_gate().total_cycles(), 0);
    }

    #[test]
    fn scoring_discriminates_between_senones() {
        // A feature vector equal to senone 5's mean must score senone 5 best —
        // through the hardware path, not just the software reference.
        let m = model();
        let mut opu = ObservationProbabilityUnit::new(MantissaWidth::FULL);
        let target_mean = m.senones().get(SenoneId(5)).unwrap().mixture().components()[0]
            .mean()
            .to_vec();
        opu.load_feature_vector(&target_mean);
        let ids: Vec<SenoneId> = (0..m.senones().len() as u32).map(SenoneId).collect();
        let scores: Vec<(SenoneId, LogProb)> = ids
            .iter()
            .map(|&id| (id, opu.score_senone(&m, id).unwrap()))
            .collect();
        let best = scores.iter().max_by(|a, b| a.1.total_cmp(&b.1)).unwrap().0;
        assert_eq!(best, SenoneId(5));
    }
}
