//! # asr-baseline — the comparison points of the paper's Section V
//!
//! The paper argues for its architecture against three alternatives:
//!
//! 1. **Pure-software decoders** (Sphinx/HTK class) on a desktop processor —
//!    "barely shows real-time performance using present day computers" and is
//!    "not particularly designed to be power efficient"; the same software on
//!    an embedded processor is far from real time.
//! 2. **The Mathew et al. CASES'03 accelerator** — meets real time and
//!    reduces bandwidth, but draws more power than the paper's design and
//!    does not stream the acoustic model over a DMA, so it suffers host
//!    resource contention.
//! 3. **The Nedevschi et al. DAC'05 low-power recogniser** — very low power
//!    but limited to a few hundred words and not triphone-based.
//!
//! This crate provides quantitative models of those baselines over the same
//! synthetic tasks, so experiment E6 can regenerate the comparison the paper
//! makes qualitatively.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod comparison;
pub mod mathew;
pub mod software;

pub use comparison::{ComparisonRow, ComparisonTable};
pub use mathew::MathewAccelerator;
pub use software::{SoftwareBaseline, SoftwareCostModel, SoftwarePlatform, SoftwareReport};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SoftwareCostModel>();
        assert_send_sync::<MathewAccelerator>();
        assert_send_sync::<ComparisonTable>();
    }
}
