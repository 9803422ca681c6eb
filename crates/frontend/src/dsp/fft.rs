//! Power spectrum of a real frame through a radix-2 FFT, implemented from
//! scratch.
//!
//! The frontend only needs power spectra of real 512-point frames, and
//! [`Fft::power_spectrum`] is the one transform this module offers.  It packs
//! the `N` real samples as `N/2` complex points `z[n] = x[2n] + i·x[2n+1]`,
//! runs one decimation-in-time transform of size `N/2` on them, and splits
//! the result into the `N/2 + 1` bins of the real frame's spectrum.
//!
//! The kernel is laid out so that the compiler vectorises it with the
//! baseline instruction set:
//!
//! * one radix-4 pass reads the zero-padded frame directly and does the
//!   transform's first two stages, so the bit-reversal permutation is a
//!   gather of its inputs rather than a separate scatter pass;
//! * the remaining stages work on split real and imaginary lanes, each
//!   stage reading its own contiguous run of twiddles, and every block goes
//!   through `butterflies`, whose slices arrive as function parameters —
//!   the form in which LLVM knows they do not alias (the same loop written
//!   inline over sub-slices of one buffer stays scalar);
//! * the split step reads each bin's mirror from the same lanes.
//!
//! Every butterfly performs the floating-point operations of the textbook
//! radix-2 transform in the same order, including the rotation by
//! `W⁰ = (1, −0)`, so the spectrum is bit-identical to that transform's
//! (signed zeros, infinities and NaNs included).  The test module keeps the
//! textbook transform as the oracle it is checked against.

/// `W_N^k = e^{-2πik/N}`, as the real and imaginary parts of one complex
/// value.
fn twiddle(k: usize, n: usize) -> (f32, f32) {
    let theta = -2.0 * std::f32::consts::PI * k as f32 / n as f32;
    (theta.cos(), theta.sin())
}

/// `a · b` for complex values held as `(re, im)`.
#[inline(always)]
fn mul((a_re, a_im): (f32, f32), (b_re, b_im): (f32, f32)) -> (f32, f32) {
    (a_re * b_re - a_im * b_im, a_re * b_im + a_im * b_re)
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

/// One radix-2 stage over a block: `lo[k] ± hi[k]·w[k]`.
///
/// The six slices are parameters so that the compiler may assume they do
/// not alias, which is what lets it vectorise the loop.
#[inline(always)]
fn butterflies(
    lo_re: &mut [f32],
    lo_im: &mut [f32],
    hi_re: &mut [f32],
    hi_im: &mut [f32],
    w_re: &[f32],
    w_im: &[f32],
) {
    let n = lo_re.len();
    let (lo_im, hi_re, hi_im) = (&mut lo_im[..n], &mut hi_re[..n], &mut hi_im[..n]);
    let (w_re, w_im) = (&w_re[..n], &w_im[..n]);
    for k in 0..n {
        let (odd_re, odd_im) = mul((hi_re[k], hi_im[k]), (w_re[k], w_im[k]));
        let (even_re, even_im) = (lo_re[k], lo_im[k]);
        lo_re[k] = even_re + odd_re;
        lo_im[k] = even_im + odd_im;
        hi_re[k] = even_re - odd_re;
        hi_im[k] = even_im - odd_im;
    }
}

/// The split step for bins `1..n+1` and their mirrors: from
/// `Z[k] = E[k] + i·O[k]` and `conj(Z[N/2−k])`, bin `k` is
/// `|E[k] + W_N^k·O[k]|²` and bin `N/2−k` is `|E[k] − W_N^k·O[k]|²`.
/// `mirror_*` and `out_mirror` run from bin `N/2−1` down, so element `i` of
/// every slice belongs to `k = i + 1`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn split(
    re: &[f32],
    im: &[f32],
    mirror_re: &[f32],
    mirror_im: &[f32],
    w_re: &[f32],
    w_im: &[f32],
    out: &mut [f32],
    out_mirror: &mut [f32],
) {
    let n = out.len();
    let (re, im, w_re, w_im) = (&re[..n], &im[..n], &w_re[..n], &w_im[..n]);
    let (mirror_re, mirror_im, out_mirror) =
        (&mirror_re[..n], &mirror_im[..n], &mut out_mirror[..n]);
    for i in 0..n {
        let (bin, mirror) = split_bin(
            (re[i], im[i]),
            (mirror_re[n - 1 - i], mirror_im[n - 1 - i]),
            (w_re[i], w_im[i]),
        );
        out[i] = bin;
        out_mirror[n - 1 - i] = mirror;
    }
}

/// Bins `k` and `N/2−k` from `Z[k]`, `Z[N/2−k]` and `W_N^k`.
#[inline(always)]
fn split_bin(zk: (f32, f32), (m_re, m_im): (f32, f32), w: (f32, f32)) -> (f32, f32) {
    let zm = (m_re, -m_im);
    let even = ((zk.0 + zm.0) * 0.5, (zk.1 + zm.1) * 0.5);
    // (zk − zm) / 2i
    let d = (zk.0 - zm.0, zk.1 - zm.1);
    let odd = (d.1 * 0.5, -d.0 * 0.5);
    let rotated = mul(w, odd);
    let sum = (even.0 + rotated.0, even.1 + rotated.1);
    let diff = (even.0 - rotated.0, even.1 - rotated.1);
    (
        sum.0 * sum.0 + sum.1 * sum.1,
        diff.0 * diff.0 + diff.1 * diff.1,
    )
}

/// A real-input FFT plan for a fixed power-of-two size `N`.
///
/// Twiddles and the one bit-reversal table are precomputed, so per-frame
/// transforms allocate nothing.
///
/// # Example
///
/// ```
/// use asr_frontend::dsp::Fft;
/// let fft = Fft::new(8).unwrap();
/// let mut scratch = [0.0f32; 8];
/// let mut power = [0.0f32; 5];
/// fft.power_spectrum(&[1.0, 0.0, -1.0, 0.0], &mut scratch, &mut power);
/// // A cosine at a quarter of the sample rate, zero-padded to 8 points.
/// assert_eq!(power[0], 0.0);
/// assert!((power[2] - 4.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct Fft {
    size: usize,
    /// Bit-reversal permutation of `0..N/8`: block `j` of the fused pass
    /// reads the points at `quarter_rev[j] + {0, 2, 1, 3}·N/8`.
    quarter_rev: Vec<u32>,
    /// Twiddles of the stages after the fused pass, stage by stage: the
    /// stage whose blocks have halves of length `h` reads `W_N^{k·N/2h}`
    /// for `k < h` at offset `h − 4`.
    stage_re: Vec<f32>,
    stage_im: Vec<f32>,
    /// `W_N^k` for `k ≤ N/4`, read by the split step; the fused first pass
    /// reads `W⁰` and `W_N^{N/4}` from here too.
    split_re: Vec<f32>,
    split_im: Vec<f32>,
}

impl Fft {
    /// Creates a plan for `size` points.
    ///
    /// Returns `None` if `size` is not a power of two or is smaller than 2.
    pub fn new(size: usize) -> Option<Self> {
        if size < 2 || !size.is_power_of_two() {
            return None;
        }
        let half = size / 2;
        let twiddles: Vec<(f32, f32)> = (0..half).map(|k| twiddle(k, size)).collect();
        let mut stage = Vec::with_capacity(half);
        let mut h = 4;
        while h < half {
            stage.extend(twiddles.iter().step_by(half / h));
            h *= 2;
        }
        let (stage_re, stage_im) = stage.into_iter().unzip();
        let (split_re, split_im) = twiddles[..=half / 2].iter().copied().unzip();
        Some(Fft {
            size,
            quarter_rev: bit_reversal((half / 4).max(1)),
            stage_re,
            stage_im,
            split_re,
            split_im,
        })
    }

    /// The transform size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Power spectrum of a real signal: writes the `size/2 + 1` bins of
    /// `|X[k]|²` into `out`.  The input is zero-padded (or truncated) to the
    /// plan size.
    ///
    /// The `N` real samples are read as `z[n] = x[2n] + i·x[2n+1]` into the
    /// first and second halves of `scratch` (real and imaginary lanes), and
    /// one `N/2`-point complex transform turns them into `Z = E + i·O`, the
    /// spectra of the even and odd samples.  The split step
    /// `X[k] = E[k] + W_N^k·O[k]` then gives bin `k` and, through
    /// `X[N/2−k] = conj(E[k] − W_N^k·O[k])`, its mirror.
    ///
    /// # Example
    ///
    /// ```
    /// use asr_frontend::dsp::Fft;
    /// let fft = Fft::new(8).unwrap();
    /// let mut scratch = [0.0f32; 8];
    /// let mut power = [0.0f32; 5];
    /// fft.power_spectrum(&[1.0; 8], &mut scratch, &mut power);
    /// // A constant signal has all of its energy at DC: |8|² = 64.
    /// assert!((power[0] - 64.0).abs() < 1e-3);
    /// assert!(power[1..].iter().all(|p| p.abs() < 1e-3));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `scratch` does not hold `size` values or `out` does not
    /// hold `size/2 + 1` bins.
    pub fn power_spectrum(&self, signal: &[f32], scratch: &mut [f32], out: &mut [f32]) {
        let half = self.size / 2;
        assert_eq!(scratch.len(), self.size, "scratch must hold size values");
        assert_eq!(out.len(), half + 1, "output must hold size/2 + 1 bins");
        let (re, im) = scratch.split_at_mut(half);
        self.first_stages(&signal[..signal.len().min(self.size)], re, im);
        let mut h = 4;
        while h < half {
            let (w_re, w_im) = (
                &self.stage_re[h - 4..2 * h - 4],
                &self.stage_im[h - 4..2 * h - 4],
            );
            for (block_re, block_im) in re.chunks_exact_mut(2 * h).zip(im.chunks_exact_mut(2 * h)) {
                let (lo_re, hi_re) = block_re.split_at_mut(h);
                let (lo_im, hi_im) = block_im.split_at_mut(h);
                butterflies(lo_re, lo_im, hi_re, hi_im, w_re, w_im);
            }
            h *= 2;
        }

        // k = 0 and k = N/2: E[0] = Re Z[0], O[0] = Im Z[0], W_N^{N/2} = −1.
        let (z0_re, z0_im) = (re[0], im[0]);
        out[0] = (z0_re + z0_im) * (z0_re + z0_im);
        out[half] = (z0_re - z0_im) * (z0_re - z0_im);
        if half < 2 {
            return;
        }
        // Bins 1..N/4 and their mirrors N/2−1 down to N/4+1, then bin N/4,
        // its own mirror: the mirror formula is the one it keeps.
        let quarter = half / 2;
        let (lower, upper) = out[1..half].split_at_mut(quarter - 1);
        let (middle, upper) = upper.split_at_mut(1);
        split(
            &re[1..quarter],
            &im[1..quarter],
            &re[quarter + 1..half],
            &im[quarter + 1..half],
            &self.split_re[1..quarter],
            &self.split_im[1..quarter],
            lower,
            upper,
        );
        let w = (self.split_re[quarter], self.split_im[quarter]);
        middle[0] = split_bin((re[quarter], im[quarter]), (re[quarter], im[quarter]), w).1;
    }

    /// The transform's first two stages, straight from the zero-padded
    /// `signal` into bit-reversed order: position `4j + r` of the lanes
    /// receives the length-4 butterfly of the points the bit-reversal
    /// permutation would have put at `4j..4j+4`.  Plans of 2 and 4 points
    /// have fewer stages than that.
    fn first_stages(&self, signal: &[f32], re: &mut [f32], im: &mut [f32]) {
        let sample = |i: usize| signal.get(i).copied().unwrap_or(0.0);
        let point = |n: usize| (sample(2 * n), sample(2 * n + 1));
        let half = re.len();
        let w0 = (self.split_re[0], self.split_im[0]);
        let w1 = (self.split_re[half / 2], self.split_im[half / 2]);
        match half {
            1 => (re[0], im[0]) = point(0),
            2 => {
                let even = point(0);
                let odd = mul(point(1), w0);
                (re[0], im[0]) = (even.0 + odd.0, even.1 + odd.1);
                (re[1], im[1]) = (even.0 - odd.0, even.1 - odd.1);
            }
            _ => {
                let eighth = half / 4;
                let lanes = re.chunks_exact_mut(4).zip(im.chunks_exact_mut(4));
                for ((out_re, out_im), &q) in lanes.zip(&self.quarter_rev) {
                    let q = q as usize;
                    let (a, b) = (point(q), mul(point(q + 2 * eighth), w0));
                    let (c, d) = (point(q + eighth), mul(point(q + 3 * eighth), w0));
                    let (a0, a1) = ((a.0 + b.0, a.1 + b.1), (a.0 - b.0, a.1 - b.1));
                    let (a2, a3) = ((c.0 + d.0, c.1 + d.1), (c.0 - d.0, c.1 - d.1));
                    let (e, f) = (mul(a2, w0), mul(a3, w1));
                    out_re.copy_from_slice(&[a0.0 + e.0, a1.0 + f.0, a0.0 - e.0, a1.0 - f.0]);
                    out_im.copy_from_slice(&[a0.1 + e.1, a1.1 + f.1, a0.1 - e.1, a1.1 - f.1]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A complex number (single precision) for the reference transform.
    #[derive(Debug, Clone, Copy, PartialEq, Default)]
    struct Complex {
        re: f32,
        im: f32,
    }

    impl Complex {
        const ZERO: Complex = Complex::new(0.0, 0.0);

        const fn new(re: f32, im: f32) -> Self {
            Complex { re, im }
        }

        fn norm_sqr(self) -> f32 {
            self.re * self.re + self.im * self.im
        }

        fn conj(self) -> Self {
            Complex::new(self.re, -self.im)
        }

        fn scale(self, s: f32) -> Self {
            Complex::new(self.re * s, self.im * s)
        }
    }

    impl std::ops::Add for Complex {
        type Output = Complex;
        fn add(self, rhs: Complex) -> Complex {
            Complex::new(self.re + rhs.re, self.im + rhs.im)
        }
    }

    impl std::ops::Sub for Complex {
        type Output = Complex;
        fn sub(self, rhs: Complex) -> Complex {
            Complex::new(self.re - rhs.re, self.im - rhs.im)
        }
    }

    impl std::ops::Mul for Complex {
        type Output = Complex;
        fn mul(self, rhs: Complex) -> Complex {
            Complex::new(
                self.re * rhs.re - self.im * rhs.im,
                self.re * rhs.im + self.im * rhs.re,
            )
        }
    }

    /// The textbook radix-2 transform on interleaved complex points: the
    /// full complex transform, and the real-input power spectrum as a
    /// bit-reversed pack, the complex transform of size `N/2` and the split.
    /// The production kernel must match it bit for bit.
    struct Reference {
        size: usize,
        /// `W_N^k` for `k < N/2`; a transform of length `N/2` reads them at
        /// twice the stride.
        twiddles: Vec<Complex>,
        bit_rev: Vec<u32>,
        half_bit_rev: Vec<u32>,
    }

    impl Reference {
        fn new(size: usize) -> Self {
            Reference {
                size,
                twiddles: (0..size / 2)
                    .map(|k| {
                        let (re, im) = twiddle(k, size);
                        Complex::new(re, im)
                    })
                    .collect(),
                bit_rev: bit_reversal(size),
                half_bit_rev: bit_reversal(size / 2),
            }
        }

        /// Iterative Cooley–Tukey butterflies over bit-reversed `data`, whose
        /// length is the plan size or a power-of-two fraction of it.
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

        /// In-place forward transform.
        fn forward(&self, data: &mut [Complex]) {
            assert_eq!(data.len(), self.size, "buffer length must match plan size");
            for i in 0..self.size {
                let j = self.bit_rev[i] as usize;
                if j > i {
                    data.swap(i, j);
                }
            }
            self.butterflies(data);
        }

        /// In-place inverse transform (with the `1/N` normalisation).
        fn inverse(&self, data: &mut [Complex]) {
            for v in data.iter_mut() {
                *v = v.conj();
            }
            self.forward(data);
            let scale = 1.0 / self.size as f32;
            for v in data.iter_mut() {
                *v = v.conj().scale(scale);
            }
        }

        fn power_spectrum(&self, signal: &[f32]) -> Vec<f32> {
            let half = self.size / 2;
            let mut scratch = vec![Complex::new(f32::NAN, f32::NAN); half];
            let mut out = vec![f32::NAN; half + 1];
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
            self.butterflies(&mut scratch);
            let z0 = scratch[0];
            out[0] = (z0.re + z0.im) * (z0.re + z0.im);
            out[half] = (z0.re - z0.im) * (z0.re - z0.im);
            for k in 1..=half / 2 {
                let zk = scratch[k];
                let zm = scratch[half - k].conj();
                let even = (zk + zm).scale(0.5);
                let d = zk - zm;
                let odd = Complex::new(d.im, -d.re).scale(0.5);
                let rotated = self.twiddles[k] * odd;
                out[k] = (even + rotated).norm_sqr();
                out[half - k] = (even - rotated).norm_sqr();
            }
            out
        }

        /// `|forward(x)|²` of the zero-padded (or truncated) signal,
        /// through the full complex transform.
        fn complex_power(&self, signal: &[f32]) -> Vec<f32> {
            let mut buf = vec![Complex::ZERO; self.size];
            for (b, &s) in buf.iter_mut().zip(signal) {
                *b = Complex::new(s, 0.0);
            }
            self.forward(&mut buf);
            buf[..=self.size / 2].iter().map(|c| c.norm_sqr()).collect()
        }
    }

    fn naive_dft(data: &[Complex]) -> Vec<Complex> {
        let n = data.len();
        (0..n)
            .map(|k| {
                let mut acc = Complex::ZERO;
                for (j, &x) in data.iter().enumerate() {
                    let (re, im) = twiddle(k * j, n);
                    acc = acc + x * Complex::new(re, im);
                }
                acc
            })
            .collect()
    }

    /// `Fft::power_spectrum` into freshly sized buffers.
    fn power(fft: &Fft, signal: &[f32]) -> Vec<f32> {
        let mut scratch = vec![0.0; fft.size()];
        let mut out = vec![0.0; fft.size() / 2 + 1];
        fft.power_spectrum(signal, &mut scratch, &mut out);
        out
    }

    /// A deterministic stream of awkward samples: ordinary values of mixed
    /// scale, and with probability `special` a ±0, ±Inf or NaN.
    fn samples(seed: u64, len: usize, special: u32) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let draw = (state >> 40) as u32;
                if draw % 1000 < special {
                    [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN][draw as usize % 5]
                } else {
                    let unit = (state >> 11) as f32 / (1u64 << 53) as f32 * 2.0 - 1.0;
                    unit * [1.0, 1e-3, 3e4][draw as usize % 3]
                }
            })
            .collect()
    }

    #[test]
    fn power_spectrum_is_bit_identical_to_the_textbook_transform() {
        // Seeded signals at every plan size and length class, plus a few
        // written out: signed zeros and infinities meet the rotation by
        // W⁰ = (1, −0) there, whose omission would turn −0 + −0·… into +0
        // and Inf·0 into a finite value.
        let written = [
            vec![-0.0; 8],
            vec![-0.0, 0.0, -0.0],
            vec![f32::INFINITY],
            vec![1.0, f32::NEG_INFINITY, 0.0, -0.0, 2.0],
            vec![f32::NAN, -0.0],
        ];
        // Bins compared, and of them NaN and infinite ones: the seeds with
        // special samples must reach the spectrum, not only finite values.
        let (mut compared, mut nan, mut inf) = (0usize, 0usize, 0usize);
        for log2 in 1..=10 {
            let n = 1usize << log2;
            let (fft, reference) = (Fft::new(n).unwrap(), Reference::new(n));
            let seeded = [1, 2, 3, n / 2 + 1, n - 1, n, n + 1, 2 * n + 3]
                .into_iter()
                .flat_map(|len| {
                    [(1, 0), (2, 0), (3, 5), (4, 50), (5, 500)]
                        .map(|(seed, special)| samples(seed * 7919 + len as u64, len, special))
                });
            for signal in seeded.chain(written.iter().cloned()) {
                let (got, want) = (power(&fft, &signal), reference.power_spectrum(&signal));
                for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "n {n}, bin {k} of {signal:?}: {g} vs {w}"
                    );
                }
                compared += got.len();
                nan += want.iter().filter(|w| w.is_nan()).count();
                inf += want.iter().filter(|w| w.is_infinite()).count();
            }
        }
        assert_eq!(compared, 45 * (1023 + 10));
        assert!(nan > 1_000 && inf > 0, "{nan} NaN and {inf} infinite bins");
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
        let reference = Reference::new(16);
        let data: Vec<Complex> = (0..16)
            .map(|i| Complex::new((i as f32 * 0.7).sin(), (i as f32 * 0.3).cos()))
            .collect();
        let want = naive_dft(&data);
        let mut got = data.clone();
        reference.forward(&mut got);
        for (g, w) in got.iter().zip(&want) {
            assert!((g.re - w.re).abs() < 1e-3 && (g.im - w.im).abs() < 1e-3);
        }
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let fft = Fft::new(64).unwrap();
        let mut impulse = vec![0.0; 64];
        impulse[0] = 1.0;
        assert!(power(&fft, &impulse)
            .iter()
            .all(|&p| (p - 1.0).abs() < 1e-5));
        let reference = Reference::new(64);
        let mut data = vec![Complex::ZERO; 64];
        data[0] = Complex::new(1.0, 0.0);
        reference.forward(&mut data);
        for c in &data {
            assert!((c.re - 1.0).abs() < 1e-5 && c.im.abs() < 1e-5);
        }
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
        let mut scratch = vec![9.0; 16];
        let mut out = vec![f32::NAN; 9];
        fft.power_spectrum(&[1.0, 2.0, 3.0], &mut scratch, &mut out);
        assert_eq!(out, power(&fft, &[1.0, 2.0, 3.0]));
    }

    #[test]
    #[should_panic(expected = "size values")]
    fn power_spectrum_rejects_a_wrong_scratch() {
        let fft = Fft::new(8).unwrap();
        fft.power_spectrum(&[0.0; 8], &mut [0.0; 4], &mut [0.0; 5]);
    }

    #[test]
    #[should_panic(expected = "size/2 + 1 bins")]
    fn power_spectrum_rejects_a_wrong_output() {
        let fft = Fft::new(8).unwrap();
        fft.power_spectrum(&[0.0; 8], &mut [0.0; 8], &mut [0.0; 4]);
    }

    #[test]
    fn parseval_theorem_holds() {
        let n = 128;
        let fft = Fft::new(n).unwrap();
        let signal: Vec<f32> = (0..n).map(|i| ((i * 37 % 13) as f32 - 6.0) / 6.0).collect();
        let time_energy: f32 = signal.iter().map(|x| x * x).sum();
        // Bins 1..N/2 stand for themselves and their mirrors.
        let ps = power(&fft, &signal);
        let freq_energy = (ps[0] + ps[n / 2] + 2.0 * ps[1..n / 2].iter().sum::<f32>()) / n as f32;
        assert!((time_energy - freq_energy).abs() / time_energy < 1e-4);
    }

    #[test]
    #[should_panic(expected = "plan size")]
    fn wrong_buffer_length_panics() {
        let reference = Reference::new(8);
        let mut data = vec![Complex::ZERO; 4];
        reference.forward(&mut data);
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
            let want = Reference::new(n).complex_power(&signal);
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
            let reference = Reference::new(64);
            let mut data: Vec<Complex> = values.iter().map(|&v| Complex::new(v, 0.0)).collect();
            let original = data.clone();
            reference.forward(&mut data);
            reference.inverse(&mut data);
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
            let reference = Reference::new(32);
            let mut fa: Vec<Complex> = a.iter().map(|&v| Complex::new(v, 0.0)).collect();
            let mut fb: Vec<Complex> = b.iter().map(|&v| Complex::new(v, 0.0)).collect();
            let mut fab: Vec<Complex> = a.iter().zip(&b).map(|(&x, &y)| Complex::new(x + y, 0.0)).collect();
            reference.forward(&mut fa);
            reference.forward(&mut fb);
            reference.forward(&mut fab);
            for i in 0..32 {
                let sum = fa[i] + fb[i];
                prop_assert!((sum.re - fab[i].re).abs() < 1e-3);
                prop_assert!((sum.im - fab[i].im).abs() < 1e-3);
            }
        }
    }
}
