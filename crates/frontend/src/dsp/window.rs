//! Pre-emphasis, framing and windowing.
//!
//! The paper: "The prime function of the Frontend is to divide the input
//! speech into blocks (time intervals) and from each block, derive a
//! smoothened spectral estimate."  These helpers perform the block division
//! (overlapping frames) and the smoothing window.

/// Applies the first-order pre-emphasis filter `y[n] = x[n] − α·x[n−1]`.
///
/// Pre-emphasis boosts the high-frequency content of speech before spectral
/// analysis, compensating for the natural −6 dB/octave tilt of voiced speech.
///
/// # Example
///
/// ```
/// use asr_frontend::dsp::pre_emphasis;
/// let y = pre_emphasis(&[1.0, 1.0, 1.0], 0.97);
/// assert_eq!(y.len(), 3);
/// assert_eq!(y[0], 1.0);
/// assert!((y[1] - 0.03).abs() < 1e-6 && (y[2] - 0.03).abs() < 1e-6);
/// ```
pub fn pre_emphasis(samples: &[f32], alpha: f32) -> Vec<f32> {
    if samples.is_empty() || alpha == 0.0 {
        return samples.to_vec();
    }
    let mut out = Vec::with_capacity(samples.len());
    out.push(samples[0]);
    for i in 1..samples.len() {
        out.push(samples[i] - alpha * samples[i - 1]);
    }
    out
}

/// Returns an `n`-point Hamming window.
///
/// `w[i] = 0.54 − 0.46·cos(2πi / (n−1))`.
pub fn hamming_window(n: usize) -> Vec<f32> {
    if n == 0 {
        return Vec::new();
    }
    if n == 1 {
        return vec![1.0];
    }
    (0..n)
        .map(|i| 0.54 - 0.46 * (2.0 * std::f32::consts::PI * i as f32 / (n as f32 - 1.0)).cos())
        .collect()
}

/// Iterator over the overlapping frames of a signal: `frame_len` samples
/// every `frame_shift` samples, as borrowed slices (no copies).  Only frames
/// that fit entirely inside the signal are produced (no padding), matching
/// Sphinx behaviour.
#[derive(Debug, Clone)]
pub struct FrameIter<'a> {
    samples: &'a [f32],
    frame_len: usize,
    frame_shift: usize,
    pos: usize,
}

impl<'a> FrameIter<'a> {
    /// Creates a frame iterator.
    ///
    /// # Panics
    ///
    /// Panics if `frame_len` or `frame_shift` is zero.
    pub fn new(samples: &'a [f32], frame_len: usize, frame_shift: usize) -> Self {
        assert!(frame_len > 0, "frame_len must be positive");
        assert!(frame_shift > 0, "frame_shift must be positive");
        FrameIter {
            samples,
            frame_len,
            frame_shift,
            pos: 0,
        }
    }

    /// Number of frames this iterator will produce.
    pub fn frame_count(&self) -> usize {
        if self.samples.len() < self.frame_len {
            0
        } else {
            (self.samples.len() - self.frame_len) / self.frame_shift + 1
        }
    }
}

impl<'a> Iterator for FrameIter<'a> {
    type Item = &'a [f32];

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos + self.frame_len > self.samples.len() {
            return None;
        }
        let frame = &self.samples[self.pos..self.pos + self.frame_len];
        self.pos += self.frame_shift;
        Some(frame)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = if self.pos + self.frame_len > self.samples.len() {
            0
        } else {
            (self.samples.len() - self.pos - self.frame_len) / self.frame_shift + 1
        };
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for FrameIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pre_emphasis_dc_removal() {
        // A DC signal should be almost entirely removed (except the first sample).
        let y = pre_emphasis(&[1.0; 10], 1.0 - 1e-7);
        assert_eq!(y[0], 1.0);
        for &v in &y[1..] {
            assert!(v.abs() < 1e-5);
        }
    }

    #[test]
    fn pre_emphasis_zero_alpha_is_identity() {
        let x = vec![0.5, -0.25, 0.75];
        assert_eq!(pre_emphasis(&x, 0.0), x);
        assert!(pre_emphasis(&[], 0.97).is_empty());
    }

    #[test]
    fn hamming_window_properties() {
        let w = hamming_window(400);
        assert_eq!(w.len(), 400);
        // symmetric
        for i in 0..200 {
            assert!((w[i] - w[399 - i]).abs() < 1e-5);
        }
        // endpoints at 0.08, peak at ~1.0
        assert!((w[0] - 0.08).abs() < 1e-5);
        assert!(w.iter().cloned().fold(0.0f32, f32::max) <= 1.0 + 1e-6);
        assert!(w[200] > 0.99);
        assert!(hamming_window(0).is_empty());
        assert_eq!(hamming_window(1), vec![1.0]);
    }

    #[test]
    fn framing_counts_and_overlap() {
        // 25 ms / 10 ms at 16 kHz over 1 second: (16000 - 400)/160 + 1 = 98 frames.
        let samples = vec![0.0f32; 16_000];
        let it = FrameIter::new(&samples, 400, 160);
        assert_eq!(it.frame_count(), 98);
        assert_eq!(it.len(), 98);
        let frames: Vec<&[f32]> = it.collect();
        assert_eq!(frames.len(), 98);
        assert!(frames.iter().all(|f| f.len() == 400));
    }

    #[test]
    fn framing_short_signal_yields_nothing() {
        let samples = vec![0.0f32; 100];
        assert_eq!(FrameIter::new(&samples, 400, 160).next(), None);
        assert_eq!(FrameIter::new(&samples, 400, 160).frame_count(), 0);
    }

    #[test]
    fn frames_overlap_correctly() {
        let samples: Vec<f32> = (0..1000).map(|i| i as f32).collect();
        let frames: Vec<&[f32]> = FrameIter::new(&samples, 400, 160).collect();
        // Second frame starts 160 samples later.
        assert_eq!(frames[1][0], 160.0);
        assert_eq!(frames[2][0], 320.0);
        // Overlap region matches.
        assert_eq!(frames[0][160], frames[1][0]);
    }

    #[test]
    #[should_panic(expected = "frame_len")]
    fn zero_frame_len_panics() {
        let _ = FrameIter::new(&[0.0], 0, 1);
    }

    #[test]
    #[should_panic(expected = "frame_shift")]
    fn zero_frame_shift_panics() {
        let _ = FrameIter::new(&[0.0], 1, 0);
    }

    proptest! {
        #[test]
        fn prop_frame_count_formula(
            len in 0usize..5000,
            frame_len in 1usize..500,
            shift in 1usize..500,
        ) {
            let samples = vec![0.0f32; len];
            let frames = FrameIter::new(&samples, frame_len, shift).count();
            let expected = if len < frame_len { 0 } else { (len - frame_len) / shift + 1 };
            prop_assert_eq!(frames, expected);
        }

        #[test]
        fn prop_pre_emphasis_preserves_length(xs in proptest::collection::vec(-1.0f32..1.0, 0..200)) {
            prop_assert_eq!(pre_emphasis(&xs, 0.97).len(), xs.len());
        }

        #[test]
        fn prop_hamming_bounded(n in 2usize..1000) {
            let w = hamming_window(n);
            prop_assert!(w.iter().all(|&v| (0.0..=1.0 + 1e-6).contains(&v)));
        }
    }
}
