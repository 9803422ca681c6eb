//! Clock domains and cycle accounting.
//!
//! "These units operate at a low frequency of 50MHz thus consuming low
//! power." — every hardware model in this crate counts its work in cycles of
//! a [`ClockDomain`], and the SoC model converts cycle counts into wall-clock
//! time and real-time factors against the 10 ms frame period.

/// A number of clock cycles.
pub type CycleCount = u64;

/// A fixed-frequency clock domain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockDomain {
    frequency_hz: f64,
}

impl ClockDomain {
    /// The paper's accelerator clock: 50 MHz.
    pub const ACCELERATOR_50MHZ: ClockDomain = ClockDomain {
        frequency_hz: 50.0e6,
    };

    /// A representative embedded host-processor clock (ARM9-class, 200 MHz).
    pub const HOST_200MHZ: ClockDomain = ClockDomain {
        frequency_hz: 200.0e6,
    };

    /// A desktop-class processor clock used by the software baseline
    /// comparison (2 GHz Pentium-class, per the paper's related-work section).
    pub const DESKTOP_2GHZ: ClockDomain = ClockDomain {
        frequency_hz: 2.0e9,
    };

    /// Creates a clock domain.
    ///
    /// # Panics
    ///
    /// Panics if the frequency is not positive and finite.
    pub fn new(frequency_hz: f64) -> Self {
        assert!(
            frequency_hz.is_finite() && frequency_hz > 0.0,
            "clock frequency must be positive"
        );
        ClockDomain { frequency_hz }
    }

    /// The frequency in Hz.
    pub fn frequency_hz(&self) -> f64 {
        self.frequency_hz
    }

    /// Duration of `cycles` in seconds.
    pub fn cycles_to_seconds(&self, cycles: CycleCount) -> f64 {
        cycles as f64 / self.frequency_hz
    }

    /// Number of whole cycles available in `seconds`.
    pub fn cycles_in(&self, seconds: f64) -> CycleCount {
        (seconds * self.frequency_hz).floor() as CycleCount
    }

    /// Real-time factor of a workload: processing time divided by the audio
    /// time it covers.  Values ≤ 1 mean real-time operation.
    pub fn real_time_factor(&self, cycles: CycleCount, audio_seconds: f64) -> f64 {
        if audio_seconds <= 0.0 {
            return f64::INFINITY;
        }
        self.cycles_to_seconds(cycles) / audio_seconds
    }
}

impl Default for ClockDomain {
    fn default() -> Self {
        Self::ACCELERATOR_50MHZ
    }
}

/// Tracks active versus gated cycles for a clock-gated unit.
///
/// "To save power, our dedicated units use clock gating." — the power model
/// charges dynamic energy only for active cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClockGate {
    active_cycles: CycleCount,
    gated_cycles: CycleCount,
}

impl ClockGate {
    /// Creates a gate with no recorded activity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `cycles` of real work (clock running).
    pub fn record_active(&mut self, cycles: CycleCount) {
        self.active_cycles += cycles;
    }

    /// Records `cycles` during which the unit was idle and its clock gated.
    pub fn record_gated(&mut self, cycles: CycleCount) {
        self.gated_cycles += cycles;
    }

    /// Cycles spent doing work.
    pub fn active_cycles(&self) -> CycleCount {
        self.active_cycles
    }

    /// Cycles spent gated.
    pub fn gated_cycles(&self) -> CycleCount {
        self.gated_cycles
    }

    /// Total elapsed cycles (active + gated).
    pub fn total_cycles(&self) -> CycleCount {
        self.active_cycles + self.gated_cycles
    }

    /// Fraction of time the unit was active, in `[0, 1]`.
    pub fn activity_factor(&self) -> f64 {
        let total = self.total_cycles();
        if total == 0 {
            0.0
        } else {
            self.active_cycles as f64 / total as f64
        }
    }

    /// Resets both counters.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_clock_constants() {
        assert_eq!(ClockDomain::ACCELERATOR_50MHZ.frequency_hz(), 50.0e6);
        assert_eq!(ClockDomain::default(), ClockDomain::ACCELERATOR_50MHZ);
        // 10 ms frame at 50 MHz = 500 000 cycles.
        assert_eq!(ClockDomain::ACCELERATOR_50MHZ.cycles_in(0.010), 500_000);
        assert_eq!(ClockDomain::HOST_200MHZ.cycles_in(0.010), 2_000_000);
    }

    #[test]
    fn cycle_time_conversions() {
        let clk = ClockDomain::new(100.0e6);
        assert_eq!(clk.cycles_in(1.0), 100_000_000);
        assert!((clk.cycles_to_seconds(50_000_000) - 0.5).abs() < 1e-12);
        // Round trip.
        assert_eq!(clk.cycles_in(clk.cycles_to_seconds(12345)), 12345);
    }

    #[test]
    fn real_time_factor() {
        let clk = ClockDomain::ACCELERATOR_50MHZ;
        // 250k cycles of work per 10 ms frame → RT factor 0.5.
        assert!((clk.real_time_factor(250_000, 0.010) - 0.5).abs() < 1e-9);
        // 1M cycles per 10 ms frame → 2× slower than real time.
        assert!((clk.real_time_factor(1_000_000, 0.010) - 2.0).abs() < 1e-9);
        assert_eq!(clk.real_time_factor(1, 0.0), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_frequency_panics() {
        ClockDomain::new(0.0);
    }

    #[test]
    fn clock_gate_accounting() {
        let mut g = ClockGate::new();
        assert_eq!(g.activity_factor(), 0.0);
        g.record_active(300);
        g.record_gated(700);
        assert_eq!(g.active_cycles(), 300);
        assert_eq!(g.gated_cycles(), 700);
        assert_eq!(g.total_cycles(), 1000);
        assert!((g.activity_factor() - 0.3).abs() < 1e-12);
        g.reset();
        assert_eq!(g.total_cycles(), 0);
    }

    proptest! {
        #[test]
        fn prop_activity_factor_bounded(active in 0u64..1_000_000, gated in 0u64..1_000_000) {
            let mut g = ClockGate::new();
            g.record_active(active);
            g.record_gated(gated);
            let f = g.activity_factor();
            prop_assert!((0.0..=1.0).contains(&f));
        }

        #[test]
        fn prop_rtf_scales_linearly(cycles in 1u64..10_000_000) {
            let clk = ClockDomain::ACCELERATOR_50MHZ;
            let rtf1 = clk.real_time_factor(cycles, 1.0);
            let rtf2 = clk.real_time_factor(cycles * 2, 1.0);
            prop_assert!((rtf2 - 2.0 * rtf1).abs() < 1e-9);
        }
    }
}
