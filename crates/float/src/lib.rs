//! # asr-float — numeric substrate for the low-power LVCSR architecture
//!
//! This crate provides the arithmetic building blocks used throughout the
//! reproduction of *"Architecture for Low Power Large Vocabulary Speech
//! Recognition"* (Chandra, Pazhayaveetil, Franzon — SOCC 2006):
//!
//! * [`LogProb`] — probabilities kept in the natural-log domain, exactly as the
//!   paper's Observation Probability unit and Viterbi decoder operate
//!   ("all the calculation are done in logarithm domain").
//! * [`LogAddTable`] — the 512-byte SRAM lookup table the OP unit uses to
//!   evaluate `log(A + B) = log(A) + log(1 + B/A)` with 16-bit fraction
//!   entries (paper Section III-B).  Its geometry is the paper's and fixed:
//!   256 entries over differences up to 11.1, 16 fraction bits.
//! * [`MantissaWidth`] / [`Quantizer`] — reduced-mantissa IEEE-754 storage
//!   (23 / 15 / 12-bit mantissas) used for the memory-and-bandwidth study in
//!   the paper's results table.
//! * [`SoftFloat`] — the 32-bit floating-point datapath elements
//!   ( (X−Y)²·Z, add, fused multiply-add ) as IEEE-754 single operations
//!   with per-operation mantissa quantisation, so the hardware simulator in
//!   `asr-hw` computes exactly what a fixed-width datapath would.
//!
//! # Example
//!
//! ```
//! use asr_float::{LogProb, LogAddTable};
//!
//! let table = LogAddTable::new();
//! let a = LogProb::from_linear(0.25);
//! let b = LogProb::from_linear(0.50);
//! // exact log-add versus the SRAM-table approximation used by the hardware
//! let exact = a.log_add(b);
//! let approx = table.log_add(a, b);
//! assert!((exact.raw() - approx.raw()).abs() < 0.05);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod logmath;
pub mod lut;
pub mod reduced;
pub mod softfloat;

pub use logmath::LogProb;
pub use lut::LogAddTable;
pub use reduced::{MantissaWidth, Quantizer};
pub use softfloat::SoftFloat;

/// Errors produced by this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FloatError {
    /// A mantissa width outside the representable `1..=23` range was requested.
    InvalidMantissaWidth(u8),
}

impl core::fmt::Display for FloatError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FloatError::InvalidMantissaWidth(bits) => {
                write!(f, "invalid mantissa width {bits}, expected 1..=23")
            }
        }
    }
}

impl std::error::Error for FloatError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_nonempty() {
        let e = FloatError::InvalidMantissaWidth(31);
        assert!(e.to_string().contains("31"));
    }

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LogProb>();
        assert_send_sync::<LogAddTable>();
        assert_send_sync::<Quantizer>();
        assert_send_sync::<FloatError>();
    }
}
