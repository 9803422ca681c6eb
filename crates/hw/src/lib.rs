//! # asr-hw — cycle-accurate models of the dedicated hardware units
//!
//! The paper's architecture pairs a low-power embedded host processor with
//! dedicated 50 MHz ASIC datapaths for the two expensive kernels of HMM
//! decoding:
//!
//! * the **Observation Probability (OP) unit** (Figure 2) — a pipelined
//!   `(X−Y)²·Z` datapath, an accumulator closing the inner loop of
//!   equation (6), a fused multiply-add for scale-and-weight adjustment and a
//!   `logadd` stage backed by a 512-byte SRAM lookup table, producing one
//!   senone score per mixture evaluation;
//! * the **Viterbi decoder unit** (Figure 3) — pipelined 32-bit adders and a
//!   2-cycle comparator that solve the log-domain Viterbi recursion for 3, 5
//!   or 7-state HMMs.
//!
//! Since the original units exist only as Verilog synthesised with a 0.18 µm
//! library, this crate reproduces them as *cycle-accurate simulators*:
//! identical arithmetic (IEEE-754 single with per-operation mantissa
//! quantisation via [`asr_float::SoftFloat`], and the SRAM log-add table of
//! [`asr_float::LogAddTable`]), explicit cycle counting per pipeline stage,
//! activity tracking for clock gating, a flash model with bandwidth counters
//! (the Gaussian parameters streamed into the OP units and the word decode's
//! DMA fetches), and a power/area model calibrated to the paper's synthesis
//! results (200 mW and 2.2 mm² per structure at 50 MHz; two structures →
//! 400 mW, 4.4 mm²).
//!
//! The units are fixed-function, as in the paper: their pipeline depths,
//! the log-add SRAM and the clock are constants, and a unit is built from
//! its datapath's mantissa width alone.  The SoC ([`SocConfig`]) has the two
//! knobs the paper's results vary: the number of structures and that width.
//!
//! # Example
//!
//! ```
//! use asr_hw::ObservationProbabilityUnit;
//! use asr_acoustic::{AcousticModel, AcousticModelConfig, SenoneId};
//! use asr_float::MantissaWidth;
//!
//! let model = AcousticModel::untrained(AcousticModelConfig::tiny()).unwrap();
//! let mut opu = ObservationProbabilityUnit::new(MantissaWidth::FULL);
//! let x = vec![0.1_f32; model.feature_dim()];
//! opu.load_feature_vector(&x);
//! let score = opu.score_senone(&model, SenoneId(0)).unwrap();
//! assert!(score.raw().is_finite());
//! assert!(opu.stats().cycles > 0);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod clock;
pub mod latency;
pub mod memory;
pub mod opu;
pub mod power;
pub mod soc;
pub mod viterbi_unit;

pub use clock::{ClockDomain, CycleCount};
pub use latency::StreamTiming;
pub use memory::{FlashMemory, MemoryStats};
pub use opu::{ObservationProbabilityUnit, OpuStats};
pub use power::{AreaBudget, EnergyReport, HostCpuModel, PowerModel};
pub use soc::{FrameReport, SocConfig, SpeechSoc, UtteranceReport};
pub use viterbi_unit::{ViterbiUnit, ViterbiUnitStats};
// The period each simulated frame's cycles are budgeted in, re-exported so
// the streaming layer times its chunks by the same constant.
pub use asr_acoustic::FRAME_PERIOD_S;

/// Errors produced by the hardware simulators.
#[derive(Debug, Clone, PartialEq)]
pub enum HwError {
    /// The OP unit was asked to score before a feature vector was loaded.
    NoFeatureLoaded,
    /// A senone or triphone id was out of range for the supplied model.
    UnknownId(String),
    /// A configuration value was invalid.
    InvalidConfig(String),
    /// The Viterbi unit was driven with inconsistent state counts.
    ShapeMismatch(String),
}

impl core::fmt::Display for HwError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            HwError::NoFeatureLoaded => write!(f, "no feature vector loaded into the OP unit"),
            HwError::UnknownId(msg) => write!(f, "unknown identifier: {msg}"),
            HwError::InvalidConfig(msg) => write!(f, "invalid hardware config: {msg}"),
            HwError::ShapeMismatch(msg) => write!(f, "shape mismatch: {msg}"),
        }
    }
}

impl std::error::Error for HwError {}

/// A seeded SplitMix64 stream for the simulators' property tests.
#[cfg(test)]
#[derive(Debug)]
pub(crate) struct TestRng(pub(crate) u64);

#[cfg(test)]
impl TestRng {
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut r = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        r = (r ^ (r >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        r ^ (r >> 31)
    }

    /// Uniform in `0..n`.
    pub(crate) fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub(crate) fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        let unit = (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32;
        lo + (hi - lo) * unit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(!HwError::NoFeatureLoaded.to_string().is_empty());
        assert!(HwError::UnknownId("senone#7".into())
            .to_string()
            .contains("senone#7"));
        assert!(HwError::InvalidConfig("x".into()).to_string().contains("x"));
        assert!(HwError::ShapeMismatch("y".into()).to_string().contains("y"));
    }

    #[test]
    fn types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ObservationProbabilityUnit>();
        assert_send_sync::<ViterbiUnit>();
        assert_send_sync::<SpeechSoc>();
        assert_send_sync::<PowerModel>();
        assert_send_sync::<FlashMemory>();
    }
}
