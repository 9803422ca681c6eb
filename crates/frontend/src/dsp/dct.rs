//! Type-II discrete cosine transform used to decorrelate log mel energies
//! into cepstral coefficients.

/// Outputs per block of the column-major basis: one block holds the 13
/// cepstra of every configuration in use, as four SSE registers.
const LANES: usize = 16;

/// A DCT-II plan from `input_len` log-mel energies to `output_len` cepstra.
///
/// Uses the orthonormal normalisation so energy is preserved when
/// `output_len == input_len`.
///
/// # Example
///
/// ```
/// use asr_frontend::dsp::DctII;
/// let dct = DctII::new(40, 13);
/// let mut cepstra = [0.0f32; 13];
/// dct.apply(&[1.0; 40], &mut cepstra);
/// // A constant input has all of its energy in C0.
/// assert!(cepstra[1..].iter().all(|c| c.abs() < 1e-4));
/// ```
#[derive(Debug, Clone)]
pub struct DctII {
    input_len: usize,
    output_len: usize,
    /// Column-major cosine basis in blocks of [`LANES`] outputs: block `b`
    /// holds, input after input, the weights of outputs
    /// `b·LANES..(b+1)·LANES` (zero past `output_len`), so one input updates
    /// a whole block of accumulators in one vectorisable step.
    basis: Vec<f32>,
}

impl DctII {
    /// Builds a DCT-II plan.
    ///
    /// # Panics
    ///
    /// Panics if either length is zero or `output_len > input_len`.
    pub fn new(input_len: usize, output_len: usize) -> Self {
        assert!(input_len > 0 && output_len > 0, "lengths must be positive");
        assert!(
            output_len <= input_len,
            "cannot produce more cepstra than filterbank channels"
        );
        let n = input_len as f32;
        let (dc_scale, ac_scale) = ((1.0 / n).sqrt(), (2.0 / n).sqrt());
        let blocks = output_len.div_ceil(LANES);
        let mut basis = Vec::with_capacity(blocks * LANES * input_len);
        for block in 0..blocks {
            for i in 0..input_len {
                basis.extend((block * LANES..(block + 1) * LANES).map(|k| {
                    if k >= output_len {
                        return 0.0;
                    }
                    let scale = if k == 0 { dc_scale } else { ac_scale };
                    scale
                        * (std::f32::consts::PI * k as f32 * (2.0 * i as f32 + 1.0) / (2.0 * n))
                            .cos()
                }));
            }
        }
        DctII {
            input_len,
            output_len,
            basis,
        }
    }

    /// Input (filterbank) dimension.
    pub fn input_len(&self) -> usize {
        self.input_len
    }

    /// Output (cepstral) dimension.
    pub fn output_len(&self) -> usize {
        self.output_len
    }

    /// Applies the transform, writing the `output_len` coefficients into
    /// `out`.  Each coefficient is the sum of its products in input order,
    /// starting from the value an empty [`Iterator::sum`] returns (`+0.0` on
    /// older toolchains, `-0.0` on newer ones), so it equals that sum bit for
    /// bit on every toolchain.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != input_len` or `out.len() != output_len`.
    pub fn apply(&self, input: &[f32], out: &mut [f32]) {
        assert_eq!(input.len(), self.input_len, "DCT input length mismatch");
        assert_eq!(out.len(), self.output_len, "DCT output length mismatch");
        let start: f32 = std::iter::empty::<f32>().sum();
        let blocks = self.basis.chunks_exact(LANES * self.input_len);
        for (out, block) in out.chunks_mut(LANES).zip(blocks) {
            let mut acc = [start; LANES];
            for (column, &x) in block.chunks_exact(LANES).zip(input) {
                for (a, &b) in acc.iter_mut().zip(column) {
                    *a += b * x;
                }
            }
            out.copy_from_slice(&acc[..out.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The transform into a fresh buffer.
    fn dct_of(dct: &DctII, input: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0; dct.output_len()];
        dct.apply(input, &mut out);
        out
    }

    #[test]
    fn column_major_sums_equal_the_row_major_iterator_sums() {
        // Each coefficient must be `Σ basis·x` in input order from the start
        // value `Iterator::sum` uses, bit for bit, whatever the loop nesting.
        let dct = DctII::new(40, 13);
        assert_eq!(dct.basis.len(), 40 * LANES);
        let inputs = [
            (0..40)
                .map(|i| (i as f32 * 0.77).sin() * 20.0)
                .collect::<Vec<_>>(),
            vec![-0.0; 40],
            (0..40)
                .map(|i| if i == 7 { f32::INFINITY } else { -(i as f32) })
                .collect(),
        ];
        for input in &inputs {
            let got = dct_of(&dct, input);
            for (k, g) in got.iter().enumerate() {
                let want: f32 = (0..40).map(|i| dct.basis[i * LANES + k] * input[i]).sum();
                assert_eq!(g.to_bits(), want.to_bits(), "coefficient {k} of {input:?}");
            }
        }
    }

    #[test]
    fn constant_input_concentrates_in_c0() {
        let dct = DctII::new(40, 13);
        let out = dct_of(&dct, &[2.5; 40]);
        assert!((out[0] - 2.5 * (40.0f32).sqrt()).abs() < 1e-3);
        assert!(out[1..].iter().all(|c| c.abs() < 1e-4));
        assert_eq!(dct.input_len(), 40);
        assert_eq!(dct.output_len(), 13);
    }

    #[test]
    fn full_dct_preserves_energy() {
        let n = 16;
        let dct = DctII::new(n, n);
        let input: Vec<f32> = (0..n).map(|i| ((i * 7 % 5) as f32) - 2.0).collect();
        let out = dct_of(&dct, &input);
        let ein: f32 = input.iter().map(|x| x * x).sum();
        let eout: f32 = out.iter().map(|x| x * x).sum();
        assert!((ein - eout).abs() / ein < 1e-4);
    }

    #[test]
    fn alternating_input_concentrates_in_high_coefficient() {
        let n = 32;
        let dct = DctII::new(n, n);
        let input: Vec<f32> = (0..n)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let out = dct_of(&dct, &input);
        let max_idx = out
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap())
            .unwrap()
            .0;
        assert!(max_idx > n / 2, "alternating signal is high-frequency");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_input_length_panics() {
        DctII::new(10, 5).apply(&[1.0; 3], &mut [0.0; 5]);
    }

    #[test]
    #[should_panic(expected = "output length mismatch")]
    fn wrong_output_length_panics() {
        DctII::new(10, 5).apply(&[1.0; 10], &mut [0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "more cepstra")]
    fn too_many_outputs_panics() {
        DctII::new(5, 10);
    }

    proptest! {
        #[test]
        fn prop_linearity(a in proptest::collection::vec(-5.0f32..5.0, 20),
                          b in proptest::collection::vec(-5.0f32..5.0, 20)) {
            let dct = DctII::new(20, 13);
            let oa = dct_of(&dct, &a);
            let ob = dct_of(&dct, &b);
            let sum: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
            let osum = dct_of(&dct, &sum);
            for i in 0..13 {
                prop_assert!((oa[i] + ob[i] - osum[i]).abs() < 1e-3);
            }
        }

        #[test]
        fn prop_output_finite(a in proptest::collection::vec(-100.0f32..100.0, 40)) {
            let dct = DctII::new(40, 13);
            prop_assert!(dct_of(&dct, &a).iter().all(|v| v.is_finite()));
        }
    }
}
