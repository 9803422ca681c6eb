//! Radix-2 decimation-in-time FFT, implemented from scratch.
//!
//! The frontend only needs power spectra of real 512-point frames.  It gets
//! them from [`Fft::power_spectrum`], which packs the real frame into half as
//! many complex points, runs one half-size complex transform and splits the
//! result into the spectrum of the real frame.  The general complex
//! [`Fft::forward`] and [`Fft::inverse`] stay public: they are property-tested
//! against each other and against a naive DFT, and serve as the reference the
//! real-input path is tested against.

use core::fmt;
use core::ops::{Add, Mul, Sub};

/// A complex number (single precision), minimal but sufficient for the FFT.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f32,
    /// Imaginary part.
    pub im: f32,
}

impl Complex {
    /// Creates a complex number.
    #[inline]
    pub const fn new(re: f32, im: f32) -> Self {
        Complex { re, im }
    }

    /// Zero.
    pub const ZERO: Complex = Complex::new(0.0, 0.0);

    /// `e^{iθ}`.
    #[inline]
    pub fn from_polar(theta: f32) -> Self {
        Complex::new(theta.cos(), theta.sin())
    }

    /// Squared magnitude `re² + im²`.
    #[inline]
    pub fn norm_sqr(self) -> f32 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude.
    #[inline]
    pub fn norm(self) -> f32 {
        self.norm_sqr().sqrt()
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex::new(self.re, -self.im)
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, s: f32) -> Self {
        Complex::new(self.re * s, self.im * s)
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{:+}i", self.re, self.im)
    }
}

/// A radix-2 FFT plan for a fixed power-of-two size.
///
/// Twiddle factors and the bit-reversal permutations (one for the full size,
/// one for the half-size transform behind [`Fft::power_spectrum`]) are
/// precomputed once so per-frame transforms allocate nothing.
///
/// # Example
///
/// ```
/// use asr_frontend::dsp::{Complex, Fft};
/// let fft = Fft::new(8).unwrap();
/// let mut data: Vec<Complex> = (0..8).map(|i| Complex::new(i as f32, 0.0)).collect();
/// fft.forward(&mut data);
/// // DC bin is the sum of the inputs.
/// assert!((data[0].re - 28.0).abs() < 1e-4);
/// ```
#[derive(Debug, Clone)]
pub struct Fft {
    size: usize,
    /// `W_N^k = e^{-2πik/N}` for `k < N/2`; a transform of length `N/2`
    /// reads them at twice the stride.
    twiddles: Vec<Complex>,
    bit_rev: Vec<u32>,
    /// Bit-reversal permutation of the `N/2`-point transform.
    half_bit_rev: Vec<u32>,
}

/// Bit-reversal permutation of `0..n` (`n` a power of two).
fn bit_reversal(n: usize) -> Vec<u32> {
    let bits = n.trailing_zeros();
    if bits == 0 {
        return vec![0];
    }
    (0..n as u32)
        .map(|i| i.reverse_bits() >> (32 - bits))
        .collect()
}

impl Fft {
    /// Creates a plan for `size` points.
    ///
    /// Returns `None` if `size` is not a power of two or is smaller than 2.
    pub fn new(size: usize) -> Option<Self> {
        if size < 2 || !size.is_power_of_two() {
            return None;
        }
        let twiddles = (0..size / 2)
            .map(|k| Complex::from_polar(-2.0 * std::f32::consts::PI * k as f32 / size as f32))
            .collect();
        Some(Fft {
            size,
            twiddles,
            bit_rev: bit_reversal(size),
            half_bit_rev: bit_reversal(size / 2),
        })
    }

    /// The transform size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Iterative Cooley–Tukey butterflies over bit-reversed `data`, whose
    /// length is the plan size or a power-of-two fraction of it: a stage of
    /// butterfly length `len` reads twiddle `k · size/len`, which is
    /// `W_len^k` whatever the transform length.
    fn butterflies(&self, data: &mut [Complex]) {
        let mut len = 2;
        while len <= data.len() {
            let half = len / 2;
            let step = self.size / len;
            for block in data.chunks_exact_mut(len) {
                let (lo, hi) = block.split_at_mut(half);
                for (k, (e, o)) in lo.iter_mut().zip(hi.iter_mut()).enumerate() {
                    let even = *e;
                    let odd = *o * self.twiddles[k * step];
                    *e = even + odd;
                    *o = even - odd;
                }
            }
            len <<= 1;
        }
    }

    /// In-place forward FFT.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the plan size.
    pub fn forward(&self, data: &mut [Complex]) {
        assert_eq!(data.len(), self.size, "buffer length must match plan size");
        for i in 0..self.size {
            let j = self.bit_rev[i] as usize;
            if j > i {
                data.swap(i, j);
            }
        }
        self.butterflies(data);
    }

    /// In-place inverse FFT (including the `1/N` normalisation).
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the plan size.
    pub fn inverse(&self, data: &mut [Complex]) {
        assert_eq!(data.len(), self.size, "buffer length must match plan size");
        for v in data.iter_mut() {
            *v = v.conj();
        }
        self.forward(data);
        let scale = 1.0 / self.size as f32;
        for v in data.iter_mut() {
            *v = v.conj().scale(scale);
        }
    }

    /// Power spectrum of a real signal: writes the `size/2 + 1` bins of
    /// `|X[k]|²` into `out`.  The input is zero-padded (or truncated) to the
    /// plan size.
    ///
    /// The `N` real samples are packed as `z[n] = x[2n] + i·x[2n+1]` (already
    /// in bit-reversed order) into `scratch`, which one `N/2`-point complex
    /// transform turns into `Z = E + i·O`, the spectra of the even and odd
    /// samples.  The split step `X[k] = E[k] + W_N^k·O[k]` then gives bin `k`
    /// and, through `X[N/2−k] = conj(E[k] − W_N^k·O[k])`, its mirror.
    ///
    /// # Example
    ///
    /// ```
    /// use asr_frontend::dsp::{Complex, Fft};
    /// let fft = Fft::new(8).unwrap();
    /// let mut scratch = [Complex::ZERO; 4];
    /// let mut power = [0.0f32; 5];
    /// fft.power_spectrum(&[1.0; 8], &mut scratch, &mut power);
    /// // A constant signal has all of its energy at DC: |8|² = 64.
    /// assert!((power[0] - 64.0).abs() < 1e-3);
    /// assert!(power[1..].iter().all(|p| p.abs() < 1e-3));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `scratch` does not hold `size/2` points or `out` does not
    /// hold `size/2 + 1` bins.
    pub fn power_spectrum(&self, signal: &[f32], scratch: &mut [Complex], out: &mut [f32]) {
        let half = self.size / 2;
        assert_eq!(scratch.len(), half, "scratch must hold size/2 points");
        assert_eq!(out.len(), half + 1, "output must hold size/2 + 1 bins");
        let signal = &signal[..signal.len().min(self.size)];
        let (pairs, odd) = signal.split_at(signal.len() & !1);
        let mut filled = 0;
        for (pair, &slot) in pairs.chunks_exact(2).zip(&self.half_bit_rev) {
            scratch[slot as usize] = Complex::new(pair[0], pair[1]);
            filled += 1;
        }
        if let Some(&last) = odd.first() {
            scratch[self.half_bit_rev[filled] as usize] = Complex::new(last, 0.0);
            filled += 1;
        }
        for &slot in &self.half_bit_rev[filled..] {
            scratch[slot as usize] = Complex::ZERO;
        }
        self.butterflies(scratch);

        // k = 0 and k = N/2: E[0] = Re Z[0], O[0] = Im Z[0], W_N^{N/2} = −1.
        let z0 = scratch[0];
        out[0] = (z0.re + z0.im) * (z0.re + z0.im);
        out[half] = (z0.re - z0.im) * (z0.re - z0.im);
        for k in 1..=half / 2 {
            let zk = scratch[k];
            let zm = scratch[half - k].conj();
            let even = (zk + zm).scale(0.5);
            // (zk − zm) / 2i
            let d = zk - zm;
            let odd = Complex::new(d.im, -d.re).scale(0.5);
            let rotated = self.twiddles[k] * odd;
            out[k] = (even + rotated).norm_sqr();
            out[half - k] = (even - rotated).norm_sqr();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn naive_dft(data: &[Complex]) -> Vec<Complex> {
        let n = data.len();
        (0..n)
            .map(|k| {
                let mut acc = Complex::ZERO;
                for (j, &x) in data.iter().enumerate() {
                    let w = Complex::from_polar(
                        -2.0 * std::f32::consts::PI * (k * j) as f32 / n as f32,
                    );
                    acc = acc + x * w;
                }
                acc
            })
            .collect()
    }

    #[test]
    fn rejects_bad_sizes() {
        assert!(Fft::new(0).is_none());
        assert!(Fft::new(1).is_none());
        assert!(Fft::new(3).is_none());
        assert!(Fft::new(100).is_none());
        assert!(Fft::new(2).is_some());
        assert!(Fft::new(512).is_some());
    }

    #[test]
    fn matches_naive_dft() {
        let fft = Fft::new(16).unwrap();
        let data: Vec<Complex> = (0..16)
            .map(|i| Complex::new((i as f32 * 0.7).sin(), (i as f32 * 0.3).cos()))
            .collect();
        let want = naive_dft(&data);
        let mut got = data.clone();
        fft.forward(&mut got);
        for (g, w) in got.iter().zip(&want) {
            assert!((g.re - w.re).abs() < 1e-3 && (g.im - w.im).abs() < 1e-3);
        }
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let fft = Fft::new(64).unwrap();
        let mut data = vec![Complex::ZERO; 64];
        data[0] = Complex::new(1.0, 0.0);
        fft.forward(&mut data);
        for c in &data {
            assert!((c.re - 1.0).abs() < 1e-5 && c.im.abs() < 1e-5);
        }
    }

    /// `Fft::power_spectrum` into freshly sized buffers.
    fn power(fft: &Fft, signal: &[f32]) -> Vec<f32> {
        let mut scratch = vec![Complex::ZERO; fft.size() / 2];
        let mut out = vec![0.0; fft.size() / 2 + 1];
        fft.power_spectrum(signal, &mut scratch, &mut out);
        out
    }

    /// The reference: `|forward(x)|²` of the zero-padded (or truncated)
    /// signal, through the full complex transform.
    fn complex_power(fft: &Fft, signal: &[f32]) -> Vec<f32> {
        let mut buf = vec![Complex::ZERO; fft.size()];
        for (b, &s) in buf.iter_mut().zip(signal) {
            *b = Complex::new(s, 0.0);
        }
        fft.forward(&mut buf);
        buf[..=fft.size() / 2]
            .iter()
            .map(|c| c.norm_sqr())
            .collect()
    }

    #[test]
    fn sine_peaks_at_its_bin() {
        let n = 256;
        let fft = Fft::new(n).unwrap();
        let bin = 17;
        let signal: Vec<f32> = (0..n)
            .map(|i| (2.0 * std::f32::consts::PI * bin as f32 * i as f32 / n as f32).sin())
            .collect();
        let ps = power(&fft, &signal);
        let peak = ps
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(peak, bin);
    }

    #[test]
    fn power_spectrum_length_and_padding() {
        let fft = Fft::new(512).unwrap();
        let ps = power(&fft, &[1.0; 400]);
        assert_eq!(ps.len(), 257);
        // A constant signal concentrates energy near DC.
        assert!(ps[0] > ps[100]);
    }

    #[test]
    fn power_spectrum_overwrites_stale_scratch() {
        // The scratch is caller-owned and reused frame after frame: a short
        // frame must not see the tail of a longer one.
        let fft = Fft::new(16).unwrap();
        let mut scratch = vec![Complex::new(9.0, -9.0); 8];
        let mut out = vec![f32::NAN; 9];
        fft.power_spectrum(&[1.0, 2.0, 3.0], &mut scratch, &mut out);
        assert_eq!(out, power(&fft, &[1.0, 2.0, 3.0]));
    }

    #[test]
    #[should_panic(expected = "size/2 points")]
    fn power_spectrum_rejects_a_wrong_scratch() {
        let fft = Fft::new(8).unwrap();
        fft.power_spectrum(&[0.0; 8], &mut [Complex::ZERO; 8], &mut [0.0; 5]);
    }

    #[test]
    #[should_panic(expected = "size/2 + 1 bins")]
    fn power_spectrum_rejects_a_wrong_output() {
        let fft = Fft::new(8).unwrap();
        fft.power_spectrum(&[0.0; 8], &mut [Complex::ZERO; 4], &mut [0.0; 4]);
    }

    #[test]
    fn parseval_theorem_holds() {
        let n = 128;
        let fft = Fft::new(n).unwrap();
        let signal: Vec<f32> = (0..n).map(|i| ((i * 37 % 13) as f32 - 6.0) / 6.0).collect();
        let time_energy: f32 = signal.iter().map(|x| x * x).sum();
        let mut buf: Vec<Complex> = signal.iter().map(|&s| Complex::new(s, 0.0)).collect();
        fft.forward(&mut buf);
        let freq_energy: f32 = buf.iter().map(|c| c.norm_sqr()).sum::<f32>() / n as f32;
        assert!((time_energy - freq_energy).abs() / time_energy < 1e-4);
    }

    #[test]
    #[should_panic(expected = "plan size")]
    fn wrong_buffer_length_panics() {
        let fft = Fft::new(8).unwrap();
        let mut data = vec![Complex::ZERO; 4];
        fft.forward(&mut data);
    }

    #[test]
    fn complex_ops() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert_eq!(a + b, Complex::new(4.0, 1.0));
        assert_eq!(a - b, Complex::new(-2.0, 3.0));
        assert_eq!(a * b, Complex::new(5.0, 5.0));
        assert_eq!(a.conj(), Complex::new(1.0, -2.0));
        assert!((a.norm() - 5.0f32.sqrt()).abs() < 1e-6);
        assert_eq!(a.scale(2.0), Complex::new(2.0, 4.0));
        assert!(!format!("{a}").is_empty());
        assert_eq!(Complex::default(), Complex::ZERO);
    }

    proptest! {
        /// The real-input power spectrum matches `|forward(x)|²` at every
        /// plan size from 2 to 1024, for signals shorter than the plan
        /// (zero-padded), exactly as long, and longer (truncated).  Bins are
        /// compared relative to the spectrum's peak: f32 rounding in either
        /// path is relative to the largest magnitude it accumulates.
        #[test]
        fn prop_real_power_spectrum_matches_the_complex_transform(
            log2 in 1u32..11,
            len_code in 0usize..3,
            values in proptest::collection::vec(-1.0f32..1.0, 1..1300),
        ) {
            let n = 1usize << log2;
            let fft = Fft::new(n).unwrap();
            let len = match len_code {
                0 => values.len().min(n.saturating_sub(1)).max(1),
                1 => n,
                _ => n + 1 + values.len() % n,
            };
            let signal: Vec<f32> = (0..len).map(|i| values[i % values.len()]).collect();
            let want = complex_power(&fft, &signal);
            let got = power(&fft, &signal);
            prop_assert_eq!(got.len(), n / 2 + 1);
            let peak = want.iter().copied().fold(1e-12f32, f32::max);
            for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                prop_assert!(
                    (g - w).abs() <= 1e-5 * peak,
                    "n {n}, len {len}, bin {k}: real path {g}, complex path {w}"
                );
            }
        }

        #[test]
        fn prop_roundtrip(values in proptest::collection::vec(-1.0f32..1.0, 64)) {
            let fft = Fft::new(64).unwrap();
            let mut data: Vec<Complex> = values.iter().map(|&v| Complex::new(v, 0.0)).collect();
            let original = data.clone();
            fft.forward(&mut data);
            fft.inverse(&mut data);
            for (a, b) in data.iter().zip(&original) {
                prop_assert!((a.re - b.re).abs() < 1e-4);
                prop_assert!(a.im.abs() < 1e-4);
            }
        }

        #[test]
        fn prop_linearity(
            a in proptest::collection::vec(-1.0f32..1.0, 32),
            b in proptest::collection::vec(-1.0f32..1.0, 32),
        ) {
            let fft = Fft::new(32).unwrap();
            let mut fa: Vec<Complex> = a.iter().map(|&v| Complex::new(v, 0.0)).collect();
            let mut fb: Vec<Complex> = b.iter().map(|&v| Complex::new(v, 0.0)).collect();
            let mut fab: Vec<Complex> = a.iter().zip(&b).map(|(&x, &y)| Complex::new(x + y, 0.0)).collect();
            fft.forward(&mut fa);
            fft.forward(&mut fb);
            fft.forward(&mut fab);
            for i in 0..32 {
                let sum = fa[i] + fb[i];
                prop_assert!((sum.re - fab[i].re).abs() < 1e-3);
                prop_assert!((sum.im - fab[i].im).abs() < 1e-3);
            }
        }
    }
}
