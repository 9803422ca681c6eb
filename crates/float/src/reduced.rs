//! Reduced-mantissa IEEE-754 storage.
//!
//! The paper's results section studies shrinking the mantissa of the 32-bit
//! floating-point acoustic-model parameters from the full 23 bits down to 15
//! and 12 bits, which shrinks both the flash footprint of the acoustic model
//! and — because the model is re-read every frame — the worst-case memory
//! bandwidth:
//!
//! | mantissa | memory (MB) | bandwidth (GB/s) |
//! |---------:|------------:|-----------------:|
//! | 23 bits  | 15.16       | 1.516            |
//! | 15 bits  | 11.37       | 1.137            |
//! | 12 bits  |  9.95       | 0.995            |
//!
//! This module provides [`MantissaWidth`] (how many mantissa bits are kept)
//! and [`Quantizer`] (applies the truncation to values and whole parameter
//! vectors, and reports storage sizes).

use crate::FloatError;

/// Number of explicitly stored mantissa bits in an IEEE-754 single.
pub const F32_MANTISSA_BITS: u8 = 23;
/// Exponent bits in an IEEE-754 single.
pub const F32_EXPONENT_BITS: u8 = 8;
/// Sign bits in an IEEE-754 single.
pub const F32_SIGN_BITS: u8 = 1;

/// How many mantissa bits of each stored 32-bit float are kept.
///
/// The total storage width of a value is `1 (sign) + 8 (exponent) + mantissa`
/// bits; the paper considers 23 (full single precision), 15 and 12 bits.
///
/// # Example
///
/// ```
/// use asr_float::MantissaWidth;
/// assert_eq!(MantissaWidth::FULL.storage_bits(), 32);
/// assert_eq!(MantissaWidth::new(12).unwrap().storage_bits(), 21);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MantissaWidth(u8);

impl MantissaWidth {
    /// Full IEEE-754 single precision (23 mantissa bits, 32-bit storage).
    pub const FULL: MantissaWidth = MantissaWidth(23);
    /// The paper's 15-bit mantissa configuration (24-bit storage).
    pub const BITS_15: MantissaWidth = MantissaWidth(15);
    /// The paper's 12-bit mantissa configuration (21-bit storage).
    pub const BITS_12: MantissaWidth = MantissaWidth(12);

    /// The three widths studied in the paper's results table.
    pub const PAPER_SWEEP: [MantissaWidth; 3] =
        [MantissaWidth(23), MantissaWidth(15), MantissaWidth(12)];

    /// Creates a mantissa width.
    ///
    /// # Errors
    ///
    /// Returns [`FloatError::InvalidMantissaWidth`] unless `1 <= bits <= 23`.
    pub fn new(bits: u8) -> Result<Self, FloatError> {
        if (1..=F32_MANTISSA_BITS).contains(&bits) {
            Ok(MantissaWidth(bits))
        } else {
            Err(FloatError::InvalidMantissaWidth(bits))
        }
    }

    /// Number of mantissa bits kept.
    #[inline]
    pub fn bits(self) -> u8 {
        self.0
    }

    /// Number of mantissa bits dropped relative to full precision.
    #[inline]
    pub fn dropped_bits(self) -> u8 {
        F32_MANTISSA_BITS - self.0
    }

    /// Total storage width of one value: sign + exponent + kept mantissa.
    #[inline]
    pub fn storage_bits(self) -> u32 {
        (F32_SIGN_BITS + F32_EXPONENT_BITS + self.0) as u32
    }

    /// Storage size of one value in bytes (fractional — packed storage).
    #[inline]
    pub fn storage_bytes(self) -> f64 {
        self.storage_bits() as f64 / 8.0
    }

    /// The worst relative quantisation error introduced by truncating to this
    /// width: `2^-bits` (one unit in the last kept place).
    #[inline]
    pub fn max_relative_error(self) -> f64 {
        2.0f64.powi(-(self.0 as i32))
    }

    /// Truncates a value's mantissa to this width (round-to-nearest-even on
    /// the kept bits, as a storage quantiser would).
    #[inline]
    pub fn quantize(self, value: f32) -> f32 {
        if self.0 == F32_MANTISSA_BITS || !value.is_finite() {
            return value;
        }
        let drop = self.dropped_bits() as u32;
        let bits = value.to_bits();
        let mask = (1u32 << drop) - 1;
        let remainder = bits & mask;
        let half = 1u32 << (drop - 1);
        let mut truncated = bits & !mask;
        // round to nearest, ties to even on the kept LSB
        if remainder > half || (remainder == half && (truncated >> drop) & 1 == 1) {
            truncated = truncated.wrapping_add(1u32 << drop);
        }
        let q = f32::from_bits(truncated);
        if q.is_finite() {
            q
        } else {
            // rounding overflowed the exponent; clamp to the largest finite
            // value with the original sign, as saturating hardware would.
            if value.is_sign_negative() {
                f32::MIN
            } else {
                f32::MAX
            }
        }
    }
}

impl Default for MantissaWidth {
    fn default() -> Self {
        Self::FULL
    }
}

impl core::fmt::Display for MantissaWidth {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}-bit mantissa", self.0)
    }
}

impl TryFrom<u8> for MantissaWidth {
    type Error = FloatError;

    fn try_from(bits: u8) -> Result<Self, Self::Error> {
        MantissaWidth::new(bits)
    }
}

/// Applies mantissa reduction to values, slices and whole parameter sets, and
/// accounts for the packed storage they would occupy in flash.
///
/// # Example
///
/// ```
/// use asr_float::{MantissaWidth, Quantizer};
/// let q = Quantizer::new(MantissaWidth::BITS_12);
/// let x = q.quantize(1.000123_f32);
/// assert!((x - 1.000123).abs() < 1.0e-3);
/// // 4 values × 21 bits = 84 bits = 10.5 bytes
/// assert!((q.storage_bytes(4) - 10.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quantizer {
    width: MantissaWidth,
}

impl Quantizer {
    /// Creates a quantiser for the given width.
    pub fn new(width: MantissaWidth) -> Self {
        Quantizer { width }
    }

    /// The width this quantiser truncates to.
    pub fn width(&self) -> MantissaWidth {
        self.width
    }

    /// Quantises a single value.
    #[inline]
    pub fn quantize(&self, value: f32) -> f32 {
        self.width.quantize(value)
    }

    /// Quantises a slice in place.
    pub fn quantize_slice(&self, values: &mut [f32]) {
        if self.width.bits() == F32_MANTISSA_BITS {
            return;
        }
        for v in values.iter_mut() {
            *v = self.width.quantize(*v);
        }
    }

    /// Returns a quantised copy of the input.
    pub fn quantized(&self, values: &[f32]) -> Vec<f32> {
        values.iter().map(|&v| self.width.quantize(v)).collect()
    }

    /// Packed storage, in bits, of `count` values at this width.
    pub fn storage_bits(&self, count: usize) -> u64 {
        count as u64 * self.width.storage_bits() as u64
    }

    /// Packed storage, in bytes, of `count` values at this width.
    pub fn storage_bytes(&self, count: usize) -> f64 {
        self.storage_bits(count) as f64 / 8.0
    }

    /// Largest relative error introduced on any single quantised value.
    pub fn max_relative_error(&self) -> f64 {
        self.width.max_relative_error()
    }
}

impl Default for Quantizer {
    fn default() -> Self {
        Quantizer::new(MantissaWidth::FULL)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn widths_and_storage() {
        assert_eq!(MantissaWidth::FULL.bits(), 23);
        assert_eq!(MantissaWidth::FULL.storage_bits(), 32);
        assert_eq!(MantissaWidth::BITS_15.storage_bits(), 24);
        assert_eq!(MantissaWidth::BITS_12.storage_bits(), 21);
        assert_eq!(MantissaWidth::BITS_12.dropped_bits(), 11);
        assert_eq!(MantissaWidth::default(), MantissaWidth::FULL);
        assert_eq!(MantissaWidth::PAPER_SWEEP.len(), 3);
    }

    #[test]
    fn invalid_widths_rejected() {
        assert!(MantissaWidth::new(0).is_err());
        assert!(MantissaWidth::new(24).is_err());
        assert!(MantissaWidth::try_from(12).is_ok());
        assert!(MantissaWidth::try_from(200).is_err());
    }

    #[test]
    fn full_width_is_identity() {
        let q = Quantizer::new(MantissaWidth::FULL);
        for &v in &[0.0f32, 1.5, -3.75, 1.0e-20, 1.0e20, core::f32::consts::PI] {
            assert_eq!(q.quantize(v), v);
        }
    }

    #[test]
    fn quantize_respects_relative_error_bound() {
        for width in MantissaWidth::PAPER_SWEEP {
            let q = Quantizer::new(width);
            let bound = width.max_relative_error();
            for i in 1..2000 {
                let v = (i as f32) * 0.37 - 350.0;
                if v == 0.0 {
                    continue;
                }
                let e = ((q.quantize(v) - v).abs() / v.abs()) as f64;
                assert!(e <= bound, "width {width} value {v} error {e} > {bound}");
            }
        }
    }

    #[test]
    fn quantize_is_idempotent() {
        let q = Quantizer::new(MantissaWidth::BITS_12);
        for i in 0..500 {
            let v = (i as f32 - 250.0) * 1.7;
            let once = q.quantize(v);
            assert_eq!(q.quantize(once), once);
        }
    }

    #[test]
    fn quantize_preserves_specials() {
        let w = MantissaWidth::BITS_12;
        assert_eq!(w.quantize(0.0), 0.0);
        assert_eq!(w.quantize(f32::INFINITY), f32::INFINITY);
        assert_eq!(w.quantize(f32::NEG_INFINITY), f32::NEG_INFINITY);
        assert!(w.quantize(f32::NAN).is_nan());
        assert_eq!(w.quantize(-1.0), -1.0);
        // Rounding near f32::MAX must not produce infinity.
        assert!(w.quantize(f32::MAX).is_finite());
        assert!(w.quantize(f32::MIN).is_finite());
    }

    #[test]
    fn slice_and_vec_quantisation() {
        let q = Quantizer::new(MantissaWidth::BITS_15);
        let src = vec![0.123_456_79_f32, -9.876_543, 3.3333333, 100000.123];
        let copy = q.quantized(&src);
        let mut in_place = src.clone();
        q.quantize_slice(&mut in_place);
        assert_eq!(copy, in_place);
        // Full-width in-place is a no-op fast path.
        let full = Quantizer::default();
        let mut same = src.clone();
        full.quantize_slice(&mut same);
        assert_eq!(same, src);
    }

    #[test]
    fn storage_accounting() {
        let q = Quantizer::new(MantissaWidth::BITS_12);
        assert_eq!(q.storage_bits(1000), 21_000);
        assert!((q.storage_bytes(1000) - 2625.0).abs() < 1e-9);
        let full = Quantizer::new(MantissaWidth::FULL);
        assert_eq!(full.storage_bits(10), 320);
    }

    #[test]
    fn display_mentions_bits() {
        assert_eq!(format!("{}", MantissaWidth::BITS_12), "12-bit mantissa");
    }

    proptest! {
        #[test]
        fn prop_error_within_bound(v in -1.0e6f32..1.0e6, bits in 1u8..=23) {
            prop_assume!(v != 0.0);
            let w = MantissaWidth::new(bits).unwrap();
            let q = w.quantize(v);
            let rel = ((q - v).abs() / v.abs()) as f64;
            prop_assert!(rel <= w.max_relative_error() + f64::EPSILON);
        }

        #[test]
        fn prop_idempotent(v in -1.0e6f32..1.0e6, bits in 1u8..=23) {
            let w = MantissaWidth::new(bits).unwrap();
            let q = w.quantize(v);
            prop_assert_eq!(w.quantize(q), q);
        }

        #[test]
        fn prop_sign_preserved(v in -1.0e6f32..1.0e6, bits in 1u8..=23) {
            prop_assume!(v != 0.0);
            let w = MantissaWidth::new(bits).unwrap();
            let q = w.quantize(v);
            prop_assert!(q == 0.0 || (q > 0.0) == (v > 0.0));
        }

        #[test]
        fn prop_monotone_storage(bits_a in 1u8..=23, bits_b in 1u8..=23) {
            let wa = MantissaWidth::new(bits_a).unwrap();
            let wb = MantissaWidth::new(bits_b).unwrap();
            if bits_a <= bits_b {
                prop_assert!(wa.storage_bits() <= wb.storage_bits());
                prop_assert!(wa.max_relative_error() >= wb.max_relative_error());
            }
        }
    }
}
