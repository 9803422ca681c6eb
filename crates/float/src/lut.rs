//! The OP unit's log-add SRAM lookup table.
//!
//! Section III-B of the paper: the `logadd` stage of the Observation
//! Probability unit evaluates `log(A + B)` using the identity
//!
//! ```text
//! log(A + B) = log(A (1 + B/A)) = log(A) + log(1 + B/A)
//! ```
//!
//! With `B <= A`, the correction term `log(1 + B/A)` lies in `[0, 0.693]`.
//! The paper stores that correction in a **512-byte SRAM** as 16-bit binary
//! fractions, indexed by "a few least significant bits of `log(B) - log(A)`".
//! 512 bytes / 2 bytes-per-entry = **256 entries**.
//!
//! [`LogAddTable`] reproduces that hardware table bit-exactly: entries are
//! quantised to 16 fractional bits, the index is a clamped fixed-point
//! quantisation of `d = log(A) - log(B) >= 0`, and the table reports its own
//! size and worst-case error so the experiment harness can show the
//! approximation is harmless for recognition.

use crate::logmath::LogProb;

/// Number of table entries: the paper's 512-byte SRAM holds 256 × 16-bit
/// values.
const ENTRIES: usize = 256;
/// Largest difference `d = log(A) - log(B)` the table covers.  Beyond it the
/// correction is below the 16-bit quantisation step and the hardware simply
/// returns `log(A)`.
const MAX_DIFFERENCE: f32 = 11.1;
/// Fractional bits stored per entry.
const FRACTION_BITS: u32 = 16;
/// Width of one table cell in the difference dimension.
const STEP: f32 = MAX_DIFFERENCE / ENTRIES as f32;

/// The 512-byte SRAM log-add lookup table of the OP unit.
///
/// # Example
///
/// ```
/// use asr_float::{LogAddTable, LogProb};
/// let t = LogAddTable::new();
/// assert_eq!(LogAddTable::SRAM_BYTES, 512);
/// let approx = t.log_add(LogProb::new(-3.0), LogProb::new(-4.0));
/// let exact = LogProb::new(-3.0).log_add(LogProb::new(-4.0));
/// assert!((approx.raw() - exact.raw()).abs() < 0.05);
/// ```
#[derive(Debug, Clone)]
pub struct LogAddTable {
    /// 16-bit fraction entries: `round(log(1 + exp(-d)) * 2^16)`.
    entries: Vec<u16>,
    /// The same entries as the corrections they encode, `entry / 2^16`.  A
    /// `u16` and a power-of-two divisor are both exact in f32, so each
    /// correction is its word's value exactly.
    corrections: Vec<f32>,
}

impl LogAddTable {
    /// SRAM footprint in bytes: 256 entries of 16 bits.
    pub const SRAM_BYTES: usize = ENTRIES * 2;

    /// Builds the table the paper describes: 256 × 16-bit entries over
    /// differences up to 11.1, 512 bytes of SRAM.
    pub fn new() -> Self {
        let scale = (1u32 << FRACTION_BITS) as f64;
        let entries: Vec<u16> = (0..ENTRIES)
            .map(|i| {
                // Index i covers differences in [i*step, (i+1)*step); the
                // hardware stores the value at the bin centre.
                let d = (i as f64 + 0.5) * STEP as f64;
                let value = (1.0 + (-d).exp()).ln();
                (value * scale).round().min(scale - 1.0) as u16
            })
            .collect();
        let corrections = entries.iter().map(|&e| e as f32 / scale as f32).collect();
        LogAddTable {
            entries,
            corrections,
        }
    }

    /// Raw table contents, as they would be loaded into the SRAM at start-up.
    pub fn sram_contents(&self) -> &[u16] {
        &self.entries
    }

    /// Looks up the correction `log(1 + exp(-d))` for a non-negative
    /// difference `d = log(A) - log(B)`.
    ///
    /// Differences beyond the table range return `0.0`, exactly as the
    /// hardware saturates the index.  The index is `d / step` truncated: the
    /// step (11.1 / 256) is not a power of two, so a multiply by its
    /// reciprocal would move bin edges.
    #[inline]
    pub fn correction(&self, difference: f32) -> f32 {
        debug_assert!(difference >= 0.0, "difference must be non-negative");
        if difference >= MAX_DIFFERENCE {
            return 0.0;
        }
        let idx = (difference / STEP) as usize;
        self.corrections[idx.min(ENTRIES - 1)]
    }

    /// Hardware log-add: `log(exp(a) + exp(b))` via the SRAM table.
    #[inline]
    pub fn log_add(&self, a: LogProb, b: LogProb) -> LogProb {
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        let (hi, lo) = if a.raw() >= b.raw() {
            (a.raw(), b.raw())
        } else {
            (b.raw(), a.raw())
        };
        let d = hi - lo;
        LogProb::new(hi + self.correction(d))
    }

    /// Folds the table-based log-add over an iterator, the way the OP unit
    /// accumulates mixture components.
    pub fn log_sum<I: IntoIterator<Item = LogProb>>(&self, iter: I) -> LogProb {
        iter.into_iter()
            .fold(LogProb::zero(), |acc, p| self.log_add(acc, p))
    }

    /// Maximum absolute error of [`LogAddTable::correction`] versus the exact
    /// correction `ln(1 + e^-d)` over every `d >= 0`.  The exact correction
    /// falls monotonically while a cell returns one constant, so each cell's
    /// worst error sits at one of its two edges; past the table's range the
    /// lookup returns 0, so the worst error there is the exact correction at
    /// the range's end.  Used by the experiment harness to report the
    /// quality of the 512-byte table.
    pub fn max_abs_error(&self) -> f32 {
        let exact = |d: f64| (1.0 + (-d).exp()).ln();
        let scale = (1u32 << FRACTION_BITS) as f64;
        let step = STEP as f64;
        let max_difference = MAX_DIFFERENCE as f64;
        let mut worst = exact(max_difference);
        for (i, &entry) in self.entries.iter().enumerate() {
            let value = entry as f64 / scale;
            let lo = i as f64 * step;
            let hi = ((i + 1) as f64 * step).min(max_difference);
            worst = worst
                .max((exact(lo) - value).abs())
                .max((exact(hi) - value).abs());
        }
        worst as f32
    }

    /// Mean absolute error over a dense sweep of the covered range.
    pub fn mean_abs_error(&self) -> f32 {
        let samples = ENTRIES * 16;
        let mut total = 0.0f64;
        for i in 0..samples {
            let d = MAX_DIFFERENCE * (i as f32 + 0.5) / samples as f32;
            let exact = (1.0 + (-(d as f64)).exp()).ln() as f32;
            total += (exact - self.correction(d)).abs() as f64;
        }
        (total / samples as f64) as f32
    }
}

impl Default for LogAddTable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_config_is_512_bytes() {
        let t = LogAddTable::new();
        assert_eq!(LogAddTable::SRAM_BYTES, 512);
        assert_eq!(t.sram_contents().len(), 256);
    }

    #[test]
    fn entries_are_monotone_decreasing() {
        let t = LogAddTable::new();
        let e = t.sram_contents();
        for w in e.windows(2) {
            assert!(w[0] >= w[1], "table must decrease with the difference");
        }
    }

    #[test]
    fn correction_bounds() {
        let t = LogAddTable::new();
        // At d = 0 the correction is ln(2) = 0.693…; the table stores bin-centre
        // values so the lookup at the exact edge is off by about half a bin.
        assert!((t.correction(0.0) - core::f32::consts::LN_2).abs() < 0.015);
        // Far beyond the range the correction saturates to 0.
        assert_eq!(t.correction(100.0), 0.0);
        // It never exceeds ln 2.
        for i in 0..1000 {
            let d = i as f32 * 0.02;
            let c = t.correction(d);
            assert!((0.0..=core::f32::consts::LN_2 + 1e-6).contains(&c));
        }
    }

    #[test]
    fn table_log_add_matches_exact_closely() {
        let t = LogAddTable::new();
        let cases = [(-1.0, -1.5), (-10.0, -10.0), (-3.0, -20.0), (-0.1, -5.0)];
        for &(a, b) in &cases {
            let (a, b) = (LogProb::new(a), LogProb::new(b));
            let exact = a.log_add(b);
            let approx = t.log_add(a, b);
            assert!(
                (exact.raw() - approx.raw()).abs() < 0.05,
                "a={a:?} b={b:?} exact={exact:?} approx={approx:?}"
            );
        }
    }

    #[test]
    fn table_log_add_identity_with_zero() {
        let t = LogAddTable::new();
        let a = LogProb::new(-2.0);
        assert_eq!(t.log_add(a, LogProb::zero()).raw(), a.raw());
        assert_eq!(t.log_add(LogProb::zero(), a).raw(), a.raw());
    }

    #[test]
    fn log_sum_over_mixture() {
        let t = LogAddTable::new();
        let comps: Vec<LogProb> = [-2.0f32, -2.5, -3.0, -8.0]
            .iter()
            .map(|&x| LogProb::new(x))
            .collect();
        let exact = LogProb::log_sum(comps.iter().copied());
        let approx = t.log_sum(comps);
        assert!((exact.raw() - approx.raw()).abs() < 0.05);
    }

    #[test]
    fn max_error_is_small() {
        let t = LogAddTable::new();
        // 256 entries over ~11.1 range: worst-case error comes from the bin
        // width near d=0 where the slope is ~0.5 → ~0.011; also the truncation
        // at max_difference contributes ~1.5e-5.
        assert!(t.max_abs_error() < 0.02, "max err {}", t.max_abs_error());
        assert!(t.mean_abs_error() < 0.01);
        assert!(t.mean_abs_error() <= t.max_abs_error());
    }

    #[test]
    fn max_abs_error_is_the_maximum_over_the_whole_domain() {
        let t = LogAddTable::new();
        let error = |d: f32| ((1.0 + (-(d as f64)).exp()).ln() - t.correction(d) as f64).abs();
        // Every cell edge and the f32 values either side of it, a dense
        // sweep inside every cell, then the saturated region out to 4× the
        // range and beyond.
        let edges = (0..=ENTRIES)
            .map(|cell| cell as f32 * STEP)
            .flat_map(|edge| {
                let bits = edge.to_bits();
                [
                    edge,
                    f32::from_bits(bits + 1),
                    f32::from_bits(bits.max(1) - 1),
                ]
            });
        let cells = (0..ENTRIES * 32).map(|k| k as f32 * STEP / 32.0);
        let saturated = (0..1000).map(|k| MAX_DIFFERENCE * (1.0 + k as f32 / 333.0));
        let swept = edges
            .chain(cells)
            .chain(saturated)
            .chain([f32::MAX])
            .map(error)
            .fold(0.0, f64::max);
        let claimed = t.max_abs_error() as f64;
        assert!(
            (swept - claimed).abs() < 1e-6,
            "swept maximum {swept} vs max_abs_error {claimed}"
        );
    }

    /// The lookup serves the SRAM word of the cell `d / step` falls in, as a
    /// fraction of `2^16`, at every cell edge and centre.
    #[test]
    fn lookups_return_the_sram_words_as_fractions() {
        let t = LogAddTable::new();
        let scale = (1u32 << FRACTION_BITS) as f32;
        for i in 0..ENTRIES {
            for d in [i as f32 * STEP, (i as f32 + 0.5) * STEP] {
                let cell = ((d / STEP) as usize).min(ENTRIES - 1);
                let want = t.sram_contents()[cell] as f32 / scale;
                assert_eq!(t.correction(d).to_bits(), want.to_bits(), "d = {d}");
            }
        }
    }

    #[test]
    fn default_matches_new() {
        let a = LogAddTable::default();
        let b = LogAddTable::new();
        assert_eq!(a.sram_contents(), b.sram_contents());
    }

    proptest! {
        #[test]
        fn prop_table_close_to_exact(a in -60.0f32..0.0, b in -60.0f32..0.0) {
            let t = LogAddTable::new();
            let (a, b) = (LogProb::new(a), LogProb::new(b));
            let exact = a.log_add(b);
            let approx = t.log_add(a, b);
            prop_assert!((exact.raw() - approx.raw()).abs() < 0.05);
        }

        #[test]
        fn prop_table_commutative(a in -60.0f32..0.0, b in -60.0f32..0.0) {
            let t = LogAddTable::new();
            let (a, b) = (LogProb::new(a), LogProb::new(b));
            prop_assert_eq!(t.log_add(a, b).raw(), t.log_add(b, a).raw());
        }

        #[test]
        fn prop_correction_monotone(d1 in 0.0f32..11.0, d2 in 0.0f32..11.0) {
            let t = LogAddTable::new();
            let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
            prop_assert!(t.correction(lo) >= t.correction(hi));
        }
    }
}
