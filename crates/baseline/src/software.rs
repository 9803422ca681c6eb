//! The software-decoder baseline: the same recognition algorithm run entirely
//! on a general-purpose processor, with an operation-level cost model that
//! converts the decode's measured workload (Gaussians evaluated, HMM updates,
//! bytes moved) into cycles, real-time factor, power and energy.

use asr_acoustic::AcousticModelConfig;
use asr_hw::{ClockDomain, HostCpuModel};

/// Which general-purpose platform runs the software decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SoftwarePlatform {
    /// A 200 MHz embedded ARM9-class core with a floating-point coprocessor —
    /// what a mobile device of the paper's era offers.
    EmbeddedArm,
    /// A 2 GHz desktop processor ("Pentium Series"), the platform the
    /// software recognisers of the related work actually run on.
    DesktopPentium,
}

impl SoftwarePlatform {
    /// The host-CPU model for this platform.
    pub fn cpu_model(self) -> HostCpuModel {
        match self {
            SoftwarePlatform::EmbeddedArm => HostCpuModel::arm9_embedded(),
            SoftwarePlatform::DesktopPentium => HostCpuModel::desktop_pentium(),
        }
    }

    /// The clock the platform runs at.
    pub fn clock(self) -> ClockDomain {
        self.cpu_model().clock
    }
}

/// Cycles a general-purpose processor spends per unit of decoding work.
///
/// The numbers follow the usual software-decoder breakdown: the mixture
/// evaluation dominates (a multiply-accumulate, a subtract and a load per
/// dimension per component, plus log-add overhead), with the search and
/// language model contributing a smaller share — consistent with the profile
/// that motivates both this paper and Mathew et al.'s accelerator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoftwareCostModel {
    /// Cycles per feature dimension per Gaussian component
    /// (load µ/σ, subtract, square, multiply, accumulate).
    pub cycles_per_gaussian_dim: f64,
    /// Fixed cycles per Gaussian component (weight, log-add, bookkeeping).
    pub cycles_per_gaussian_overhead: f64,
    /// Cycles per HMM state update in the Viterbi search.
    pub cycles_per_state_update: f64,
    /// Cycles per active HMM per frame for search bookkeeping (pruning,
    /// lexical-tree traversal, lattice updates).
    pub cycles_per_active_hmm: f64,
    /// Cycles per frame for the frontend.
    pub frontend_cycles_per_frame: f64,
}

impl SoftwareCostModel {
    /// A model of an optimised scalar software decoder (no SIMD), the class
    /// of implementation the paper compares against.
    pub fn scalar_decoder() -> Self {
        SoftwareCostModel {
            cycles_per_gaussian_dim: 6.0,
            cycles_per_gaussian_overhead: 40.0,
            cycles_per_state_update: 25.0,
            cycles_per_active_hmm: 60.0,
            frontend_cycles_per_frame: 60_000.0,
        }
    }

    /// Cycles to evaluate one senone (all mixture components).
    pub fn cycles_per_senone(&self, feature_dim: usize, components: usize) -> f64 {
        components as f64
            * (self.cycles_per_gaussian_dim * feature_dim as f64
                + self.cycles_per_gaussian_overhead)
    }
}

impl Default for SoftwareCostModel {
    fn default() -> Self {
        Self::scalar_decoder()
    }
}

/// The software baseline evaluated for a given platform and model geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoftwareBaseline {
    /// Platform running the decoder.
    pub platform: SoftwarePlatform,
    /// Operation-level cost model.
    pub cost: SoftwareCostModel,
    /// Senones in the decoded model's inventory.
    pub num_senones: usize,
    /// Mixture components per senone.
    pub num_components: usize,
    /// Feature dimension.
    pub feature_dim: usize,
    /// HMM states per triphone.
    pub states_per_hmm: usize,
}

/// Result of evaluating the software baseline over a decode's workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoftwareReport {
    /// Platform evaluated.
    pub platform: SoftwarePlatform,
    /// Mean CPU cycles per 10 ms frame.
    pub cycles_per_frame: f64,
    /// Real-time factor (processing time / audio time); ≤ 1 is real time.
    pub real_time_factor: f64,
    /// Average power while decoding, watts.
    pub average_power_w: f64,
    /// Energy per second of audio, joules.
    pub energy_per_audio_second_j: f64,
}

impl SoftwareBaseline {
    /// Creates a baseline.
    pub fn new(
        platform: SoftwarePlatform,
        cost: SoftwareCostModel,
        geometry: &AcousticModelConfig,
    ) -> Self {
        SoftwareBaseline {
            platform,
            cost,
            num_senones: geometry.num_senones,
            num_components: geometry.num_components,
            feature_dim: geometry.feature_dim,
            states_per_hmm: geometry.topology.num_states(),
        }
    }

    /// Evaluates the baseline for a workload in which `senones_per_frame`
    /// senones are scored and `active_hmms_per_frame` HMMs are advanced every
    /// 10 ms frame.
    pub fn evaluate_workload(
        &self,
        senones_per_frame: f64,
        active_hmms_per_frame: f64,
    ) -> SoftwareReport {
        let frame_period = 0.010f64;
        let per_senone = self
            .cost
            .cycles_per_senone(self.feature_dim, self.num_components);
        let gaussian_cycles = senones_per_frame * per_senone;
        let viterbi_cycles =
            active_hmms_per_frame * self.states_per_hmm as f64 * self.cost.cycles_per_state_update;
        let search_cycles = active_hmms_per_frame * self.cost.cycles_per_active_hmm;
        let cycles_per_frame =
            gaussian_cycles + viterbi_cycles + search_cycles + self.cost.frontend_cycles_per_frame;

        let cpu = self.platform.cpu_model();
        let available = cpu.clock.cycles_in(frame_period) as f64;
        let rtf = cycles_per_frame / available;
        // When the decoder cannot keep up, it runs flat out; otherwise it
        // idles for the rest of the frame.
        let duty = rtf.min(1.0);
        let average_power_w = cpu.active_power_w * duty + cpu.idle_power_w * (1.0 - duty);
        // Energy per second of *audio*: if slower than real time the CPU works
        // rtf seconds per audio second at full power.
        let energy_per_audio_second_j = if rtf <= 1.0 {
            average_power_w
        } else {
            cpu.active_power_w * rtf
        };
        SoftwareReport {
            platform: self.platform,
            cycles_per_frame,
            real_time_factor: rtf,
            average_power_w,
            energy_per_audio_second_j,
        }
    }

    /// Evaluates the baseline for the *worst case* the paper's bandwidth
    /// figure assumes: every senone scored every frame, with a proportional
    /// number of active HMMs.
    pub fn evaluate_full_evaluation(&self) -> SoftwareReport {
        let senones = self.num_senones as f64;
        // Roughly one active triphone per 3 scored senones (its 3 states).
        let hmms = senones / self.states_per_hmm as f64;
        self.evaluate_workload(senones, hmms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_geometry() -> AcousticModelConfig {
        AcousticModelConfig::paper_default()
    }

    #[test]
    fn cost_model_per_senone() {
        let c = SoftwareCostModel::scalar_decoder();
        // 8 comps × (6 × 39 + 40) = 8 × 274 = 2192 cycles per senone.
        assert!((c.cycles_per_senone(39, 8) - 2192.0).abs() < 1e-9);
        assert_eq!(SoftwareCostModel::default(), c);
    }

    #[test]
    fn desktop_is_borderline_real_time_on_full_evaluation() {
        // The paper cites [3]: "Sphinx barely shows real-time performance
        // using present day computers."  Full 6000-senone evaluation on the
        // 2 GHz desktop must land near RTF ≈ 1 (between 0.5 and 2).
        let b = SoftwareBaseline::new(
            SoftwarePlatform::DesktopPentium,
            SoftwareCostModel::scalar_decoder(),
            &paper_geometry(),
        );
        let r = b.evaluate_full_evaluation();
        assert!(
            r.real_time_factor > 0.5 && r.real_time_factor < 2.0,
            "desktop RTF {}",
            r.real_time_factor
        );
        // And it burns tens of watts doing it.
        assert!(r.average_power_w > 10.0);
    }

    #[test]
    fn embedded_software_cannot_do_large_vocabulary_in_real_time() {
        // "Real-time recognition is not achieved by porting software
        // solutions on embedded device."
        let b = SoftwareBaseline::new(
            SoftwarePlatform::EmbeddedArm,
            SoftwareCostModel::scalar_decoder(),
            &paper_geometry(),
        );
        let r = b.evaluate_full_evaluation();
        assert!(
            r.real_time_factor > 3.0,
            "embedded RTF {}",
            r.real_time_factor
        );
        assert!(r.energy_per_audio_second_j > r.average_power_w);
    }

    #[test]
    fn reduced_workload_helps_but_energy_still_exceeds_accelerator() {
        let b = SoftwareBaseline::new(
            SoftwarePlatform::EmbeddedArm,
            SoftwareCostModel::scalar_decoder(),
            &paper_geometry(),
        );
        // Even with only 1500 active senones (the feedback-limited load), the
        // embedded CPU is well above the paper's 0.4 W accelerator budget or
        // fails real time.
        let r = b.evaluate_workload(1500.0, 500.0);
        assert!(r.real_time_factor > 1.0 || r.average_power_w > 0.4);
        // Larger workloads cost more.
        let r2 = b.evaluate_workload(3000.0, 1000.0);
        assert!(r2.cycles_per_frame > r.cycles_per_frame);
        assert!(r2.real_time_factor > r.real_time_factor);
    }

    #[test]
    fn platform_models() {
        assert!(SoftwarePlatform::DesktopPentium.cpu_model().active_power_w > 10.0);
        assert!(SoftwarePlatform::EmbeddedArm.cpu_model().active_power_w < 1.0);
        assert!(
            SoftwarePlatform::DesktopPentium.clock().frequency_hz()
                > SoftwarePlatform::EmbeddedArm.clock().frequency_hz()
        );
    }
}
