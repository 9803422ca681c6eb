//! Log-domain probability arithmetic.
//!
//! The paper performs every probability computation — Gaussian evaluation,
//! mixture summation and Viterbi recursion — in the logarithm domain so the
//! hardware never needs an exponential unit and never underflows.  This module
//! provides the [`LogProb`] newtype (natural logarithms) used everywhere in
//! the workspace.

use core::cmp::Ordering;
use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Sub, SubAssign};

/// The value used to represent `log(0)` (an impossible event).
///
/// Chosen to be very negative but far enough from `f32::MIN` that sums of a
/// few such values do not overflow to `-inf`, which matters for the hardware
/// model where `-inf` would poison the pipelined comparators.
pub const LOG_ZERO: f32 = -1.0e30;

/// Values below this threshold are treated as `log(0)` when normalising.
pub const LOG_ZERO_THRESHOLD: f32 = -0.5e30;

/// A probability stored in the natural-log domain.
///
/// `LogProb(0.0)` is probability 1, `LogProb::zero()` is probability 0.
/// Multiplication of probabilities becomes [`Add`]; addition of probabilities
/// becomes [`LogProb::log_add`].
///
/// # Example
///
/// ```
/// use asr_float::LogProb;
/// let half = LogProb::from_linear(0.5);
/// let quarter = half + half;          // 0.5 * 0.5
/// assert!((quarter.to_linear() - 0.25).abs() < 1e-6);
/// let three_quarters = half.log_add(quarter);
/// assert!((three_quarters.to_linear() - 0.75).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct LogProb(f32);

impl LogProb {
    /// The log-probability of a certain event (probability 1).
    pub const ONE: LogProb = LogProb(0.0);

    /// Creates a log probability from a raw natural-log value.
    #[inline]
    pub fn new(log_value: f32) -> Self {
        if log_value < LOG_ZERO_THRESHOLD || log_value.is_nan() {
            LogProb(LOG_ZERO)
        } else {
            LogProb(log_value)
        }
    }

    /// The log-probability of an impossible event (probability 0).
    #[inline]
    pub fn zero() -> Self {
        LogProb(LOG_ZERO)
    }

    /// Converts a linear-domain probability (or likelihood) into the log domain.
    ///
    /// Non-positive inputs map to [`LogProb::zero`].
    #[inline]
    pub fn from_linear(p: f64) -> Self {
        if p <= 0.0 {
            Self::zero()
        } else {
            LogProb(p.ln() as f32)
        }
    }

    /// Converts back to the linear domain. Underflows gracefully to `0.0`.
    #[inline]
    pub fn to_linear(self) -> f64 {
        if self.is_zero() {
            0.0
        } else {
            (self.0 as f64).exp()
        }
    }

    /// Returns the raw natural-log value.
    #[inline]
    pub fn raw(self) -> f32 {
        self.0
    }

    /// Returns `true` if this represents probability zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 <= LOG_ZERO_THRESHOLD
    }

    /// Exact log-domain addition of the underlying probabilities:
    /// `log(exp(a) + exp(b))`, computed stably as
    /// `max + ln(1 + exp(-(max - min)))`.
    #[inline]
    pub fn log_add(self, other: LogProb) -> LogProb {
        if self.is_zero() {
            return other;
        }
        if other.is_zero() {
            return self;
        }
        let (hi, lo) = if self.0 >= other.0 {
            (self.0, other.0)
        } else {
            (other.0, self.0)
        };
        let diff = lo - hi; // <= 0
        if diff < -30.0 {
            // exp(diff) below f32 resolution relative to 1.0
            return LogProb(hi);
        }
        LogProb(hi + (diff as f64).exp().ln_1p() as f32)
    }

    /// Log-domain subtraction `log(exp(a) - exp(b))`.
    ///
    /// Returns [`LogProb::zero`] when `other >= self` (the difference would be
    /// non-positive), which is the conventional clamped behaviour for pruning
    /// arithmetic.
    #[inline]
    pub fn log_sub(self, other: LogProb) -> LogProb {
        if other.is_zero() {
            return self;
        }
        if self.is_zero() || other.0 >= self.0 {
            return Self::zero();
        }
        let diff = other.0 - self.0; // < 0
        let inner = 1.0 - (diff as f64).exp();
        if inner <= 0.0 {
            Self::zero()
        } else {
            LogProb(self.0 + inner.ln() as f32)
        }
    }

    /// Returns the larger of two log probabilities (the Viterbi max operator).
    #[inline]
    pub fn max(self, other: LogProb) -> LogProb {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two log probabilities.
    #[inline]
    pub fn min(self, other: LogProb) -> LogProb {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Scales the underlying probability by raising it to `power`
    /// (log-domain multiply by a scalar), used for language-model weighting.
    #[inline]
    pub fn powf(self, power: f32) -> LogProb {
        if self.is_zero() {
            self
        } else {
            LogProb::new(self.0 * power)
        }
    }

    /// Total order that treats `NaN` as the smallest value.  Log probabilities
    /// never contain `NaN` when constructed through [`LogProb::new`], but the
    /// hardware simulator compares raw register contents and needs totality.
    #[inline]
    pub fn total_cmp(&self, other: &LogProb) -> Ordering {
        self.0.total_cmp(&other.0)
    }

    /// Sums an iterator of log probabilities in the linear domain
    /// (`log(Σ exp(x_i))`), stably.
    pub fn log_sum<I: IntoIterator<Item = LogProb>>(iter: I) -> LogProb {
        let items: Vec<LogProb> = iter.into_iter().filter(|p| !p.is_zero()).collect();
        if items.is_empty() {
            return LogProb::zero();
        }
        let max = items.iter().fold(LogProb::zero(), |acc, &p| acc.max(p));
        let mut acc = 0.0f64;
        for p in &items {
            acc += ((p.0 - max.0) as f64).exp();
        }
        LogProb(max.0 + acc.ln() as f32)
    }
}

impl Default for LogProb {
    /// The default log probability is probability **zero** (an empty
    /// hypothesis), matching an uninitialised Viterbi cell.
    fn default() -> Self {
        Self::zero()
    }
}

impl Add for LogProb {
    type Output = LogProb;

    /// Log-domain `+` corresponds to multiplying the underlying probabilities.
    #[inline]
    fn add(self, rhs: LogProb) -> LogProb {
        if self.is_zero() || rhs.is_zero() {
            LogProb::zero()
        } else {
            LogProb::new(self.0 + rhs.0)
        }
    }
}

impl AddAssign for LogProb {
    #[inline]
    fn add_assign(&mut self, rhs: LogProb) {
        *self = *self + rhs;
    }
}

impl Sub for LogProb {
    type Output = LogProb;

    /// Log-domain `-` corresponds to dividing the underlying probabilities.
    #[inline]
    fn sub(self, rhs: LogProb) -> LogProb {
        if self.is_zero() {
            LogProb::zero()
        } else if rhs.is_zero() {
            // dividing by zero probability: saturate at certainty
            LogProb::ONE
        } else {
            LogProb::new(self.0 - rhs.0)
        }
    }
}

impl SubAssign for LogProb {
    #[inline]
    fn sub_assign(&mut self, rhs: LogProb) {
        *self = *self - rhs;
    }
}

impl Sum for LogProb {
    /// `Sum` composes with `+`, i.e. it multiplies the underlying
    /// probabilities (a path score).  Use [`LogProb::log_sum`] to add them.
    fn sum<I: Iterator<Item = LogProb>>(iter: I) -> LogProb {
        iter.fold(LogProb::ONE, |acc, p| acc + p)
    }
}

impl fmt::Display for LogProb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            write!(f, "log(0)")
        } else {
            write!(f, "{:.4}", self.0)
        }
    }
}

impl From<f32> for LogProb {
    fn from(v: f32) -> Self {
        LogProb::new(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn one_and_zero_behave() {
        assert!((LogProb::ONE.to_linear() - 1.0).abs() < 1e-12);
        assert_eq!(LogProb::zero().to_linear(), 0.0);
        assert!(LogProb::zero().is_zero());
        assert!(!LogProb::ONE.is_zero());
        assert!(LogProb::default().is_zero());
    }

    #[test]
    fn from_linear_roundtrip() {
        for &p in &[1.0, 0.5, 0.1, 1e-6, 1e-20] {
            let lp = LogProb::from_linear(p);
            assert!((lp.to_linear() - p).abs() / p < 1e-5, "p = {p}");
        }
    }

    #[test]
    fn nonpositive_linear_maps_to_zero() {
        assert!(LogProb::from_linear(0.0).is_zero());
        assert!(LogProb::from_linear(-1.0).is_zero());
    }

    #[test]
    fn nan_maps_to_zero() {
        assert!(LogProb::new(f32::NAN).is_zero());
    }

    #[test]
    fn add_multiplies() {
        let a = LogProb::from_linear(0.3);
        let b = LogProb::from_linear(0.2);
        assert!(((a + b).to_linear() - 0.06).abs() < 1e-7);
    }

    #[test]
    fn add_with_zero_is_zero() {
        let a = LogProb::from_linear(0.3);
        assert!((a + LogProb::zero()).is_zero());
        assert!((LogProb::zero() + a).is_zero());
    }

    #[test]
    fn sub_divides() {
        let a = LogProb::from_linear(0.06);
        let b = LogProb::from_linear(0.2);
        assert!(((a - b).to_linear() - 0.3).abs() < 1e-6);
    }

    #[test]
    fn log_add_adds() {
        let a = LogProb::from_linear(0.25);
        let b = LogProb::from_linear(0.5);
        assert!((a.log_add(b).to_linear() - 0.75).abs() < 1e-6);
        // commutativity
        assert!((a.log_add(b).raw() - b.log_add(a).raw()).abs() < 1e-6);
    }

    #[test]
    fn log_add_with_zero_is_identity() {
        let a = LogProb::from_linear(0.25);
        assert_eq!(a.log_add(LogProb::zero()).raw(), a.raw());
        assert_eq!(LogProb::zero().log_add(a).raw(), a.raw());
    }

    #[test]
    fn log_add_huge_dynamic_range() {
        let a = LogProb::new(-1.0);
        let b = LogProb::new(-200.0);
        // b is negligible compared to a
        assert!((a.log_add(b).raw() - a.raw()).abs() < 1e-6);
    }

    #[test]
    fn log_sub_inverts_log_add() {
        let a = LogProb::from_linear(0.6);
        let b = LogProb::from_linear(0.3);
        let sum = a.log_add(b);
        let back = sum.log_sub(b);
        assert!((back.to_linear() - 0.6).abs() < 1e-5);
    }

    #[test]
    fn log_sub_clamps_to_zero() {
        let a = LogProb::from_linear(0.2);
        let b = LogProb::from_linear(0.3);
        assert!(a.log_sub(b).is_zero());
        assert!(a.log_sub(a).is_zero());
    }

    #[test]
    fn max_and_min() {
        let a = LogProb::from_linear(0.2);
        let b = LogProb::from_linear(0.3);
        assert_eq!(a.max(b).raw(), b.raw());
        assert_eq!(a.min(b).raw(), a.raw());
    }

    #[test]
    fn log_sum_matches_pairwise() {
        let ps = [0.1, 0.2, 0.05, 0.3];
        let items: Vec<LogProb> = ps.iter().map(|&p| LogProb::from_linear(p)).collect();
        let total = LogProb::log_sum(items.iter().copied());
        let expected: f64 = ps.iter().sum();
        assert!((total.to_linear() - expected).abs() < 1e-6);
    }

    #[test]
    fn log_sum_of_empty_is_zero() {
        assert!(LogProb::log_sum(std::iter::empty()).is_zero());
        assert!(LogProb::log_sum(vec![LogProb::zero(); 4]).is_zero());
    }

    #[test]
    fn sum_trait_multiplies() {
        let items = vec![LogProb::from_linear(0.5); 3];
        let product: LogProb = items.into_iter().sum();
        assert!((product.to_linear() - 0.125).abs() < 1e-7);
    }

    #[test]
    fn powf_scales() {
        let a = LogProb::from_linear(0.5);
        let sq = a.powf(2.0);
        assert!((sq.to_linear() - 0.25).abs() < 1e-6);
        assert!(LogProb::zero().powf(2.0).is_zero());
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", LogProb::from_linear(0.5)).is_empty());
        assert_eq!(format!("{}", LogProb::zero()), "log(0)");
    }

    proptest! {
        #[test]
        fn prop_log_add_commutative(a in -50.0f32..0.0, b in -50.0f32..0.0) {
            let (a, b) = (LogProb::new(a), LogProb::new(b));
            prop_assert!((a.log_add(b).raw() - b.log_add(a).raw()).abs() < 1e-4);
        }

        #[test]
        fn prop_log_add_ge_max(a in -50.0f32..0.0, b in -50.0f32..0.0) {
            let (a, b) = (LogProb::new(a), LogProb::new(b));
            prop_assert!(a.log_add(b).raw() >= a.max(b).raw() - 1e-6);
        }

        #[test]
        fn prop_log_add_le_max_plus_ln2(a in -50.0f32..0.0, b in -50.0f32..0.0) {
            let (a, b) = (LogProb::new(a), LogProb::new(b));
            prop_assert!(a.log_add(b).raw() <= a.max(b).raw() + core::f32::consts::LN_2 + 1e-6);
        }

        #[test]
        fn prop_add_associative_approx(a in -30.0f32..0.0, b in -30.0f32..0.0, c in -30.0f32..0.0) {
            let (a, b, c) = (LogProb::new(a), LogProb::new(b), LogProb::new(c));
            let left = (a + b) + c;
            let right = a + (b + c);
            prop_assert!((left.raw() - right.raw()).abs() < 1e-3);
        }

        #[test]
        fn prop_linear_roundtrip(p in 1e-12f64..1.0) {
            let lp = LogProb::from_linear(p);
            prop_assert!((lp.to_linear() - p).abs() / p < 1e-4);
        }

        #[test]
        fn prop_log_sum_permutation_invariant(mut xs in proptest::collection::vec(-40.0f32..0.0, 1..8)) {
            let a: Vec<LogProb> = xs.iter().map(|&x| LogProb::new(x)).collect();
            xs.reverse();
            let b: Vec<LogProb> = xs.iter().map(|&x| LogProb::new(x)).collect();
            let sa = LogProb::log_sum(a);
            let sb = LogProb::log_sum(b);
            prop_assert!((sa.raw() - sb.raw()).abs() < 1e-3);
        }
    }
}
