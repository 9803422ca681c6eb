//! Model of the 32-bit floating-point datapath.
//!
//! The OP unit and the Viterbi unit are "designed for 32-bit floating-point
//! (IEEE-754 standards) operations" (paper Section III).  The cycle-accurate
//! hardware simulator in `asr-hw` wants to compute *exactly* what the silicon
//! datapath would compute, including when the mantissa datapath is narrowed
//! for the memory/bandwidth study.  [`SoftFloat`] therefore performs every
//! add and multiply as an IEEE-754 single-precision operation
//! (round-to-nearest-even, gradual underflow) and then quantises the result
//! to the configured [`MantissaWidth`], so narrowed datapaths round after
//! each operation the way truncated hardware would.  Rust's `f32` `+`, `-`
//! and `*` are exactly those IEEE-754 operations, so the model uses them
//! directly; the differential oracle tests in this module pin that against
//! an independent f64 reference at every width.
//!
//! The width is dispatched once per kernel, not once per operation: at the
//! full 23 bits [`MantissaWidth::quantize`] is the identity for every value
//! (NaN and ±∞ included), so [`SoftFloat::gaussian_exponent`] runs the plain
//! f32 fold there, with the same operations in the same order, and keeps the
//! per-operation quantised loop as the only path for narrower widths.

use crate::reduced::MantissaWidth;

/// A model of the accelerator's floating-point datapath.
///
/// All operations are IEEE-754 single precision with round-to-nearest-even;
/// when constructed with a reduced [`MantissaWidth`], every *result* is
/// additionally quantised to that width, modelling a narrowed datapath.
///
/// # Example
///
/// ```
/// use asr_float::SoftFloat;
/// let fp = SoftFloat::ieee754();
/// assert_eq!(fp.add(1.5, 2.25), 3.75);
/// assert_eq!(fp.mul(3.0, -2.0), -6.0);
/// // (x - y)^2 * z, the first stage of the OP unit pipeline
/// assert_eq!(fp.sq_diff_mul(5.0, 3.0, 0.5), 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoftFloat {
    width: MantissaWidth,
}

impl SoftFloat {
    /// Datapath with the full 23-bit mantissa (standard IEEE-754 single).
    pub fn ieee754() -> Self {
        SoftFloat {
            width: MantissaWidth::FULL,
        }
    }

    /// Datapath whose results are quantised to `width`.
    pub fn with_width(width: MantissaWidth) -> Self {
        SoftFloat { width }
    }

    /// The mantissa width of this datapath.
    pub fn width(&self) -> MantissaWidth {
        self.width
    }

    #[inline]
    fn finish(&self, value: f32) -> f32 {
        self.width.quantize(value)
    }

    /// Floating-point addition as the hardware adder computes it.
    #[inline]
    pub fn add(&self, a: f32, b: f32) -> f32 {
        self.finish(a + b)
    }

    /// Floating-point subtraction.
    #[inline]
    pub fn sub(&self, a: f32, b: f32) -> f32 {
        self.finish(a - b)
    }

    /// Floating-point multiplication as the hardware multiplier computes it.
    #[inline]
    pub fn mul(&self, a: f32, b: f32) -> f32 {
        self.finish(a * b)
    }

    /// Fused multiply-add `a * b + c`, rounded once — the OP unit's
    /// scale-and-weight-adjust (SWA) stage is a fused multiply-add.
    pub fn fma(&self, a: f32, b: f32, c: f32) -> f32 {
        // A faithful single-rounding FMA via double precision: the product of
        // two f32 values is exact in f64, and the final rounding to f32
        // happens once, which matches fused hardware.
        let exact = (a as f64) * (b as f64) + (c as f64);
        self.finish(exact as f32)
    }

    /// The first pipeline stage of the OP unit: `(x − y)² · z`.
    ///
    /// In the paper `x` is a feature-vector component `O_ji`, `y` the Gaussian
    /// mean `µ_ji`, and `z` the precision term `δ_ji` (a function of the
    /// variance), giving one term of the exponent sum in equation (6).
    #[inline]
    pub fn sq_diff_mul(&self, x: f32, y: f32, z: f32) -> f32 {
        let d = self.sub(x, y);
        let sq = self.mul(d, d);
        self.mul(sq, z)
    }

    /// The full inner-loop accumulation of equation (6):
    /// `C + Σ_i (o_i − µ_i)² · δ_i`, evaluated the way the pipelined hardware
    /// does — one `sq_diff_mul` plus one accumulate per dimension, in
    /// dimension order.
    ///
    /// The width is checked once per call: at [`MantissaWidth::FULL`] every
    /// quantisation is the identity, so the fold runs on plain f32 operations
    /// (`d = o − µ`, then `acc + (d·d)·δ`), bit-identical to the
    /// per-operation loop that every narrower width runs (NaN payloads, which
    /// are not part of the datapath contract, aside).
    #[inline]
    pub fn gaussian_exponent(&self, obs: &[f32], mean: &[f32], prec: &[f32], constant: f32) -> f32 {
        debug_assert_eq!(obs.len(), mean.len());
        debug_assert_eq!(obs.len(), prec.len());
        let terms = obs.iter().zip(mean).zip(prec);
        if self.width == MantissaWidth::FULL {
            terms.fold(constant, |acc, ((&o, &m), &p)| {
                let d = o - m;
                acc + d * d * p
            })
        } else {
            terms.fold(constant, |acc, ((&o, &m), &p)| {
                self.add(acc, self.sq_diff_mul(o, m, p))
            })
        }
    }
}

impl Default for SoftFloat {
    fn default() -> Self {
        Self::ieee754()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The widths the oracle covers: the paper's sweep plus a narrow 8 bits.
    const ORACLE_WIDTHS: [u8; 4] = [23, 15, 12, 8];

    /// Bit equality, with every NaN equal to every other NaN (payloads are
    /// not part of the datapath contract).
    fn same(a: f32, b: f32) -> bool {
        (a.is_nan() && b.is_nan()) || a.to_bits() == b.to_bits()
    }

    /// Independent reference for one datapath operation: the exact operation
    /// in f64, rounded to f32 once, then quantised to the datapath width.
    /// f64 holds every product of two f32 values exactly, and its 53-bit
    /// significand is wide enough (≥ 2·24 + 2) that rounding a sum through
    /// it first still gives the correctly rounded f32 sum.
    fn oracle(width: MantissaWidth, exact: f64) -> f32 {
        width.quantize(exact as f32)
    }

    fn oracle_sq_diff_mul(width: MantissaWidth, x: f32, y: f32, z: f32) -> f32 {
        let d = oracle(width, x as f64 - y as f64);
        let sq = oracle(width, d as f64 * d as f64);
        oracle(width, sq as f64 * z as f64)
    }

    /// Seeded SplitMix64 stream of operands.
    struct Operands(u64);

    impl Operands {
        /// A uniformly random bit pattern (every class, NaN and ±∞
        /// included) one time in four, a special value one time in eight,
        /// otherwise a random sign and significand with an exponent within
        /// ±`spread` of 127 (close exponents exercise carries and
        /// cancellation).
        fn next(&mut self, spread: u32) -> f32 {
            // ±0, ±∞, NaN, the smallest and a negative largest subnormal,
            // the smallest normal, the largest finite value, 1.0.
            const SPECIALS: [u32; 10] = [
                0x0, 0x80000000, 0x7f800000, 0xff800000, 0x7fc00000, 0x1, 0x807fffff, 0x800000,
                0x7f7fffff, 0x3f800000,
            ];
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut r = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            r = (r ^ (r >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            r ^= r >> 31;
            let (high, exp) = ((r >> 32) as u32, (r >> 8) as u32 % (2 * spread + 1));
            match r & 7 {
                0 | 1 => f32::from_bits(high),
                2 => f32::from_bits(SPECIALS[high as usize % SPECIALS.len()]),
                _ => f32::from_bits((high & 0x807f_ffff) | ((127 + exp - spread) << 23)),
            }
        }
    }

    fn widths() -> impl Iterator<Item = (MantissaWidth, SoftFloat)> {
        ORACLE_WIDTHS.into_iter().map(|bits| {
            let width = MantissaWidth::new(bits).unwrap();
            (width, SoftFloat::with_width(width))
        })
    }

    #[test]
    fn binary_ops_match_the_f64_oracle_at_every_width() {
        let mut operands = Operands(1);
        for (width, fp) in widths() {
            for i in 0..50_000 {
                let spread = if i % 2 == 0 { 30 } else { 126 };
                let (a, b) = (operands.next(spread), operands.next(spread));
                let (a64, b64) = (a as f64, b as f64);
                for (op, got, want) in [
                    ("add", fp.add(a, b), oracle(width, a64 + b64)),
                    ("sub", fp.sub(a, b), oracle(width, a64 - b64)),
                    ("mul", fp.mul(a, b), oracle(width, a64 * b64)),
                ] {
                    assert!(
                        same(got, want),
                        "{width}: {op}({a:?}, {b:?}) = {got:?} not {want:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn sq_diff_mul_matches_the_f64_oracle_at_every_width() {
        let mut operands = Operands(2);
        for (width, fp) in widths() {
            for _ in 0..30_000 {
                let [x, y, z] = [0; 3].map(|_| operands.next(40));
                let (got, want) = (fp.sq_diff_mul(x, y, z), oracle_sq_diff_mul(width, x, y, z));
                assert!(
                    same(got, want),
                    "{width}: ({x:?}, {y:?}, {z:?}): {got:?} not {want:?}"
                );
            }
        }
    }

    #[test]
    fn gaussian_exponent_matches_the_f64_oracle_at_every_width() {
        let mut operands = Operands(3);
        for (width, fp) in widths() {
            for i in 0..3_000 {
                // The task geometries (13 and 39 dimensions); every eighth
                // vector draws from the full range, specials included.
                let dim = if i % 2 == 0 { 13 } else { 39 };
                let spread = if i % 8 == 0 { 126 } else { 6 };
                let [obs, mean, prec] =
                    [0; 3].map(|_| (0..dim).map(|_| operands.next(spread)).collect::<Vec<_>>());
                let constant = operands.next(spread);
                let want = (0..dim).fold(constant, |acc, d| {
                    let term = oracle_sq_diff_mul(width, obs[d], mean[d], prec[d]);
                    oracle(width, acc as f64 + term as f64)
                });
                let got = fp.gaussian_exponent(&obs, &mean, &prec, constant);
                assert!(same(got, want), "{width}: dim {dim}: {got:?} not {want:?}");
            }
        }
    }

    proptest! {
        /// The width-dispatched kernel against the per-operation fold
        /// (`sq_diff_mul`, then `add`, in dimension order), bit for bit (any
        /// NaN equals any NaN, as in the f64 oracle), at every oracle width
        /// and every length from 1 to 64.  Each case draws vectors at four
        /// exponent spreads, so random bit patterns (NaN and ±∞ among them),
        /// subnormals, overflow and cancellation all occur.
        #[test]
        fn prop_gaussian_exponent_is_the_per_operation_fold(
            seed in 0u64..u64::MAX,
            dim in 1usize..=64,
        ) {
            let mut operands = Operands(seed);
            for (width, fp) in widths() {
                for spread in [1, 6, 30, 126] {
                    let [obs, mean, prec] = [0; 3]
                        .map(|_| (0..dim).map(|_| operands.next(spread)).collect::<Vec<_>>());
                    let constant = operands.next(spread);
                    let want = (0..dim).fold(constant, |acc, d| {
                        fp.add(acc, fp.sq_diff_mul(obs[d], mean[d], prec[d]))
                    });
                    let got = fp.gaussian_exponent(&obs, &mean, &prec, constant);
                    prop_assert!(
                        same(got, want),
                        "{}: dim {}, spread {}: {:?} not {:?}",
                        width,
                        dim,
                        spread,
                        got,
                        want
                    );
                }
            }
        }
    }

    /// Regression: when an addition carried out of the significand, the
    /// bit-level emulation's renormalising shift dropped the sticky bit and
    /// rounded this sum down to `0x440063b2`.
    #[test]
    fn add_keeps_the_sticky_bit_when_the_sum_carries_out() {
        let (a, b) = (f32::from_bits(0x40c7_8601), f32::from_bits(0x43fd_a94d));
        assert_eq!(SoftFloat::ieee754().add(a, b).to_bits(), 0x4400_63b3);
        assert_eq!(SoftFloat::ieee754().add(b, a).to_bits(), 0x4400_63b3);
    }

    /// Regression: the bit-level emulation never normalised a subnormal
    /// multiplicand, so this product came out as `0x876ed118`.
    #[test]
    fn mul_normalises_a_subnormal_operand() {
        let (a, b) = (f32::from_bits(0x478c_8884), f32::from_bits(0x801b_3095));
        assert!(b.is_subnormal());
        assert_eq!(SoftFloat::ieee754().mul(a, b).to_bits(), 0x876e_d115);
        assert_eq!(SoftFloat::ieee754().mul(b, a).to_bits(), 0x876e_d115);
    }

    #[test]
    fn simple_cases_match_native_bit_for_bit() {
        let fp = SoftFloat::ieee754();
        let cases = [
            (1.5f32, 2.25f32),
            (0.1, 0.2),
            (-1.0, 1.0),
            (1.0e-10, 1.0),
            (-3.5, -4.25),
            (12345.678, -0.0001),
            (1.0, -1.0000001),
            (1.0e10, 1.0e-10),
            (123.456, -654.321),
            (1.0000001, 0.9999999),
        ];
        for (a, b) in cases {
            assert_eq!(fp.add(a, b).to_bits(), (a + b).to_bits(), "add({a}, {b})");
            assert_eq!(fp.mul(a, b).to_bits(), (a * b).to_bits(), "mul({a}, {b})");
        }
    }

    #[test]
    fn add_special_values() {
        let fp = SoftFloat::ieee754();
        assert_eq!(fp.add(0.0, 5.0), 5.0);
        assert_eq!(fp.add(5.0, 0.0), 5.0);
        assert_eq!(fp.add(f32::INFINITY, 1.0), f32::INFINITY);
        assert!(fp.add(f32::NAN, 1.0).is_nan());
        assert_eq!(fp.add(1.0, -1.0), 0.0);
    }

    #[test]
    fn mul_special_values() {
        let fp = SoftFloat::ieee754();
        assert_eq!(fp.mul(0.0, 5.0), 0.0);
        assert_eq!(fp.mul(5.0, -0.0), -0.0);
        assert_eq!(fp.mul(f32::INFINITY, 2.0), f32::INFINITY);
        assert!(fp.mul(f32::NAN, 1.0).is_nan());
        assert_eq!(fp.mul(1.0e30, 1.0e30), f32::INFINITY);
    }

    #[test]
    fn fma_is_single_rounded() {
        let fp = SoftFloat::ieee754();
        let (a, b, c) = (1.0000001f32, 1.0000001f32, -1.0000002f32);
        assert_eq!(fp.fma(a, b, c).to_bits(), f32::mul_add(a, b, c).to_bits());
    }

    #[test]
    fn sq_diff_mul_basic() {
        let fp = SoftFloat::ieee754();
        assert_eq!(fp.sq_diff_mul(5.0, 3.0, 0.5), 2.0);
        assert_eq!(fp.sq_diff_mul(3.0, 5.0, 0.5), 2.0);
        assert_eq!(fp.sq_diff_mul(1.0, 1.0, 100.0), 0.0);
    }

    #[test]
    fn gaussian_exponent_matches_reference() {
        let fp = SoftFloat::ieee754();
        let obs = [1.0f32, 2.0, 3.0, 4.0];
        let mean = [0.5f32, 2.5, 2.0, 4.5];
        let prec = [2.0f32, 1.0, 0.5, 4.0];
        let c = -3.25f32;
        let want = (0..4).fold(c, |acc, i| {
            acc + (obs[i] - mean[i]) * (obs[i] - mean[i]) * prec[i]
        });
        assert_eq!(
            fp.gaussian_exponent(&obs, &mean, &prec, c).to_bits(),
            want.to_bits()
        );
    }

    #[test]
    fn reduced_width_quantises_results() {
        let fp12 = SoftFloat::with_width(MantissaWidth::BITS_12);
        let r = fp12.add(1.0, 1.0e-6);
        // With only 12 mantissa bits, 1 + 1e-6 is indistinguishable from 1.
        assert_eq!(r, 1.0);
        let full = SoftFloat::ieee754();
        assert!(full.add(1.0, 1.0e-6) > 1.0);
        assert_eq!(fp12.width(), MantissaWidth::BITS_12);
        assert_eq!(SoftFloat::default().width(), MantissaWidth::FULL);
    }

    #[test]
    fn reduced_width_error_is_bounded() {
        let fp = SoftFloat::with_width(MantissaWidth::BITS_12);
        let bound = MantissaWidth::BITS_12.max_relative_error() * 4.0;
        for i in 1..200 {
            let a = i as f32 * 0.77;
            let b = (200 - i) as f32 * 1.3;
            let got = fp.add(a, b) as f64;
            let want = (a + b) as f64;
            assert!(((got - want).abs() / want) <= bound);
        }
    }

    proptest! {
        #[test]
        fn prop_add_is_bit_equal_to_native(a in -1.0e20f32..1.0e20, b in -1.0e20f32..1.0e20) {
            let fp = SoftFloat::ieee754();
            prop_assert_eq!(fp.add(a, b).to_bits(), (a + b).to_bits(), "add({}, {})", a, b);
        }

        #[test]
        fn prop_mul_is_bit_equal_to_native(a in -1.0e15f32..1.0e15, b in -1.0e15f32..1.0e15) {
            let fp = SoftFloat::ieee754();
            prop_assert_eq!(fp.mul(a, b).to_bits(), (a * b).to_bits(), "mul({}, {})", a, b);
        }

        #[test]
        fn prop_add_commutative(a in -1.0e20f32..1.0e20, b in -1.0e20f32..1.0e20) {
            let fp = SoftFloat::ieee754();
            prop_assert_eq!(fp.add(a, b).to_bits(), fp.add(b, a).to_bits());
        }

        #[test]
        fn prop_sq_diff_mul_nonnegative_for_positive_z(
            x in -1.0e3f32..1.0e3, y in -1.0e3f32..1.0e3, z in 0.0f32..1.0e3
        ) {
            let fp = SoftFloat::ieee754();
            prop_assert!(fp.sq_diff_mul(x, y, z) >= 0.0);
        }
    }
}
