//! A model of the Mathew, Davis and Fang (CASES 2003) SPHINX-3 accelerator,
//! the closest related design the paper compares against.
//!
//! The paper's characterisation: "This implementation meets real-time
//! performance requirement and reduces bandwidth. Though the power requirement
//! is low for Gaussian calculation, our design has much less power
//! consumption. The speech recognition application is memory intensive [...]
//! and the acoustic models are not accessed through a DMA, therefore,
//! performance may be poor because of resource contention."
//!
//! The model here reproduces those properties quantitatively so the E6
//! comparison table can be regenerated: it meets real time, evaluates the full
//! senone set (no word-decode feedback), consumes roughly an order of
//! magnitude more power than the paper's 2 × 200 mW structures, and charges a
//! host-contention penalty for the non-DMA model accesses.

use asr_acoustic::{AcousticModelConfig, FRAME_PERIOD_S};
use asr_float::MantissaWidth;
use asr_hw::ClockDomain;

/// Model of the CASES'03 Gaussian-acceleration coprocessor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MathewAccelerator {
    /// Accelerator clock (the published design runs faster than 50 MHz).
    pub clock: ClockDomain,
    /// Power of the Gaussian accelerator while active, watts.
    pub accelerator_power_w: f64,
    /// Power of the host processor that still runs the search, watts.
    pub host_power_w: f64,
    /// Fraction of host cycles lost to contention because acoustic-model
    /// fetches are not DMA-decoupled.
    pub contention_overhead: f64,
    /// Feature dimensions the accelerator's datapath processes per cycle
    /// (the CASES'03 design is wider than the paper's single-lane OP unit).
    pub parallel_lanes: f64,
}

impl MathewAccelerator {
    /// The published design point, scaled to the same 0.18 µm-era assumptions
    /// as the rest of the workspace: a 160 MHz accelerator at ≈ 1.8 W plus a
    /// host running the search.
    pub fn published() -> Self {
        MathewAccelerator {
            clock: ClockDomain::new(160.0e6),
            accelerator_power_w: 1.8,
            host_power_w: 0.4,
            contention_overhead: 0.25,
            parallel_lanes: 2.0,
        }
    }

    /// Total system power while decoding, watts.
    pub fn system_power_w(&self) -> f64 {
        self.accelerator_power_w + self.host_power_w
    }

    /// Senones evaluated per frame: the design scores the full inventory
    /// (it has no word-decode feedback path).
    pub fn senones_per_frame(&self, geometry: &AcousticModelConfig) -> usize {
        geometry.num_senones
    }

    /// Worst-case acoustic-model bandwidth in GB/s (full model per 10 ms
    /// frame at 32-bit parameters — the design does not use reduced-mantissa
    /// storage).
    pub fn bandwidth_gb_per_s(&self, geometry: &AcousticModelConfig) -> f64 {
        let params = geometry.total_gaussian_params() as f64;
        let bytes = params * MantissaWidth::FULL.storage_bytes();
        bytes / FRAME_PERIOD_S / 1.0e9
    }

    /// Real-time factor: the published design meets real time for the full
    /// evaluation, but host contention inflates the search time.
    pub fn real_time_factor(&self, geometry: &AcousticModelConfig) -> f64 {
        // Accelerator throughput: `parallel_lanes` dimension-MACs per cycle at
        // a higher clock than the paper's 50 MHz OP unit.
        let cycles_per_senone = geometry.num_components as f64
            * (geometry.feature_dim as f64 / self.parallel_lanes.max(1.0) + 8.0);
        let accel_cycles = geometry.num_senones as f64 * cycles_per_senone;
        let accel_time = accel_cycles / self.clock.frequency_hz();
        let accel_rtf = accel_time / FRAME_PERIOD_S;
        // Host search at ~0.4 RTF, inflated by contention.
        let host_rtf = 0.4 * (1.0 + self.contention_overhead);
        accel_rtf.max(host_rtf)
    }

    /// Energy per second of audio, joules.
    pub fn energy_per_audio_second_j(&self, geometry: &AcousticModelConfig) -> f64 {
        self.system_power_w() * self.real_time_factor(geometry).max(1.0)
    }
}

impl Default for MathewAccelerator {
    fn default() -> Self {
        Self::published()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asr_hw::PowerModel;

    #[test]
    fn meets_real_time_like_the_paper_says() {
        let m = MathewAccelerator::published();
        let g = AcousticModelConfig::paper_default();
        let rtf = m.real_time_factor(&g);
        assert!(
            rtf <= 1.0,
            "CASES'03 accelerator meets real time, rtf {rtf}"
        );
        assert_eq!(MathewAccelerator::default(), m);
    }

    #[test]
    fn consumes_much_more_power_than_the_paper_design() {
        // "our design has much less power consumption" — at least 5× less.
        let m = MathewAccelerator::published();
        let ours = 2.0 * PowerModel::paper_calibrated().structure_full_power_w();
        assert!(
            m.system_power_w() > 5.0 * ours,
            "{} vs {}",
            m.system_power_w(),
            ours
        );
    }

    #[test]
    fn full_inventory_and_full_bandwidth() {
        let m = MathewAccelerator::published();
        let g = AcousticModelConfig::paper_default();
        assert_eq!(m.senones_per_frame(&g), 6000);
        // No feedback and no mantissa reduction → the 1.5 GB/s worst case.
        assert!((m.bandwidth_gb_per_s(&g) - 1.5168).abs() < 0.01);
        assert!(m.energy_per_audio_second_j(&g) >= m.system_power_w());
    }

    #[test]
    fn contention_inflates_rtf() {
        let mut m = MathewAccelerator::published();
        let g = AcousticModelConfig::paper_default();
        let base = m.real_time_factor(&g);
        m.contention_overhead = 2.0;
        assert!(m.real_time_factor(&g) > base);
    }
}
