//! The chunked frontend: raw audio pushed in arbitrary-size chunks, feature
//! vectors out as soon as they are computable.
//!
//! Reuses the per-frame MFCC kernel ([`MfccExtractor`]) of the offline
//! frontend unchanged; what changes is the state that the offline path gets
//! for free from seeing the whole utterance:
//!
//! * **pre-emphasis** carries its one-sample history across chunks;
//! * **framing** buffers the 15 ms of window overlap between 10 ms hops;
//! * **CMN** runs in *live* mode (running mean with the configured prior),
//!   because the utterance mean is unknowable mid-stream;
//! * **deltas** are computed incrementally: a frame's feature vector is
//!   emitted once its full regression context has arrived (a fixed lookahead
//!   of [`FrontendConfig::DELTA_WINDOW`] frames per derivative order), and
//!   [`StreamingFrontend::finish_utterance`] flushes the tail with the same
//!   edge clamping the offline [`DeltaComputer`](asr_frontend::DeltaComputer)
//!   applies — so with CMN disabled the streamed features are **bit-identical**
//!   to [`Frontend::process`](asr_frontend::Frontend::process) regardless of
//!   chunking (pinned by this module's tests).

use asr_frontend::dsp::FrameIter;
use asr_frontend::mfcc::{MfccExtractor, MfccScratch};
use asr_frontend::{CepstralMeanNorm, FeatureVector, FrontendConfig, FrontendError};
use std::collections::VecDeque;
use std::sync::Arc;

/// The most recent `slots` frames of a sequence, by absolute frame index,
/// in one flat buffer reused for the whole stream.
#[derive(Debug, Clone)]
struct FrameRing {
    dim: usize,
    slots: usize,
    data: Vec<f32>,
    /// Frames pushed since the last `clear`.
    len: usize,
}

impl FrameRing {
    fn new(dim: usize, slots: usize) -> Self {
        FrameRing {
            dim,
            slots,
            data: vec![0.0; dim * slots],
            len: 0,
        }
    }

    /// Appends frame `len`, overwriting the oldest held frame, and returns
    /// its slot for the caller to fill.
    fn push(&mut self) -> &mut [f32] {
        let at = (self.len % self.slots) * self.dim;
        self.len += 1;
        &mut self.data[at..at + self.dim]
    }

    /// Frame `t`, which must still be held.
    fn get(&self, t: usize) -> &[f32] {
        assert!(
            t < self.len && t + self.slots >= self.len,
            "frame {t} is outside the held history"
        );
        let at = (t % self.slots) * self.dim;
        &self.data[at..at + self.dim]
    }

    fn clear(&mut self) {
        self.len = 0;
    }
}

/// Incremental delta / delta-delta appender over a growing cepstra sequence.
///
/// Each Δ is computed once, as soon as its regression window is complete (or
/// at `flush`, with the end clamped), and kept beside the cepstra; each ΔΔ is
/// computed from the kept Δs when its own window is complete.  Both histories
/// hold only the `2·window + 1` frames a clamped window can still read, and
/// the statics wait in `pending` until their frame is emitted.
#[derive(Debug, Clone)]
struct IncrementalDelta {
    window: usize,
    /// `2·Σ n²` over the window — the regression's normaliser.
    denom: f32,
    use_delta: bool,
    use_delta_delta: bool,
    /// Static cepstra pushed so far (their count is `cepstra.len`).
    cepstra: FrameRing,
    /// Δ of the cepstra computed so far (their count is `deltas.len`).
    deltas: FrameRing,
    /// Static vectors of frames not yet emitted, oldest first; each becomes
    /// its frame's feature vector.
    pending: VecDeque<FeatureVector>,
}

impl IncrementalDelta {
    /// An appender for `dim`-wide cepstra.
    fn new(dim: usize, window: usize, use_delta: bool, use_delta_delta: bool) -> Self {
        let window = window.max(1);
        IncrementalDelta {
            window,
            denom: 2.0 * (1..=window).map(|i| (i * i) as f32).sum::<f32>(),
            use_delta,
            use_delta_delta,
            cepstra: FrameRing::new(dim, 2 * window + 1),
            deltas: FrameRing::new(dim, 2 * window + 1),
            pending: VecDeque::new(),
        }
    }

    /// The regression delta of frame `t` of `seq`, whose last frame is
    /// `last`, with indices clamped to `[0, last]` — the exact per-frame
    /// formula and operation order of [`asr_frontend::DeltaComputer::delta`].
    fn regress(seq: &FrameRing, t: usize, last: usize, window: usize, denom: f32, out: &mut [f32]) {
        out.fill(0.0);
        for w in 1..=window {
            let plus = seq.get((t + w).min(last));
            let minus = seq.get(t.saturating_sub(w));
            for ((o, &p), &m) in out.iter_mut().zip(plus).zip(minus) {
                *o += w as f32 * (p - m);
            }
        }
        for o in out.iter_mut() {
            *o /= denom;
        }
    }

    /// Index of the oldest frame not yet emitted.
    fn emitted(&self) -> usize {
        self.cepstra.len - self.pending.len()
    }

    /// Frames whose features are complete now that Δ is known up to
    /// `deltas.len`: every frame without ΔΔ, and with it those whose ΔΔ
    /// window ends inside the known Δs.
    fn ready(&self) -> usize {
        match (self.use_delta, self.use_delta_delta) {
            (false, _) => self.cepstra.len,
            (true, false) => self.deltas.len,
            (true, true) => self.deltas.len.saturating_sub(self.window),
        }
    }

    /// Emits, oldest first, every pending frame before `ready`.  A ΔΔ window
    /// is clamped to the newest known Δ, which is the end-of-utterance clamp
    /// once every Δ is known.
    fn emit(&mut self, ready: usize, out: &mut Vec<FeatureVector>) {
        let known = self.deltas.len;
        let dim = self.cepstra.dim;
        while self.emitted() < ready {
            let t = self.emitted();
            let mut v = self
                .pending
                .pop_front()
                .expect("every un-emitted frame has a pending vector");
            if self.use_delta {
                v.extend_from_slice(self.deltas.get(t));
                if self.use_delta_delta {
                    v.resize(3 * dim, 0.0);
                    Self::regress(
                        &self.deltas,
                        t,
                        known - 1,
                        self.window,
                        self.denom,
                        &mut v[2 * dim..],
                    );
                }
            }
            out.push(v);
        }
    }

    /// Computes Δ one frame at a time up to frame `upto` (exclusive),
    /// clamping its windows to cepstrum `last`, and emits every frame as
    /// soon as it is complete, so neither history outgrows `2·window + 1`
    /// frames.
    fn advance(&mut self, upto: usize, last: usize, out: &mut Vec<FeatureVector>) {
        while self.deltas.len < upto {
            let t = self.deltas.len;
            let slot = self.deltas.push();
            Self::regress(&self.cepstra, t, last, self.window, self.denom, slot);
            self.emit(self.ready(), out);
        }
    }

    /// Accepts one static cepstrum and appends to `out` every frame whose
    /// context is now complete.  `cepstrum` itself becomes that frame's
    /// feature vector, so give it the capacity of the full feature.
    fn push(&mut self, cepstrum: Vec<f32>, out: &mut Vec<FeatureVector>) {
        self.cepstra.push().copy_from_slice(&cepstrum);
        self.pending.push_back(cepstrum);
        let n = self.cepstra.len;
        if self.use_delta {
            // Δ at t reads cepstra up to t + window.
            self.advance(n.saturating_sub(self.window), n - 1, out);
        } else {
            self.emit(n, out);
        }
    }

    /// Appends the remaining tail to `out` with end-of-utterance clamping
    /// and resets for the next utterance.
    fn flush(&mut self, out: &mut Vec<FeatureVector>) {
        let n = self.cepstra.len;
        if self.use_delta && n > 0 {
            self.advance(n, n - 1, out);
        }
        self.emit(n, out);
        self.cepstra.clear();
        self.deltas.clear();
    }
}

/// The chunked streaming frontend: push samples of any chunk size, collect
/// feature vectors as their context completes, and
/// [`finish_utterance`](StreamingFrontend::finish_utterance) at an endpoint.
#[derive(Debug, Clone)]
pub struct StreamingFrontend {
    /// The window, FFT, mel and DCT plan; a
    /// [`StreamingRecognizer`](crate::StreamingRecognizer) builds it once and
    /// shares it with every session it opens.
    extractor: Arc<MfccExtractor>,
    /// The MFCC kernel's working memory, reused for every frame.
    scratch: MfccScratch,
    cmn: Option<CepstralMeanNorm>,
    delta: IncrementalDelta,
    /// Emphasized + dithered samples not yet consumed by framing (the next
    /// frame starts at index 0).
    buffer: Vec<f32>,
    /// Last *raw* input sample of the previous chunk (pre-emphasis history).
    last_raw: Option<f32>,
    /// Absolute sample index within the utterance (dither parity).
    samples_seen: usize,
    /// Feature frames emitted for the current utterance.
    frames_emitted: usize,
}

impl StreamingFrontend {
    /// Builds a streaming frontend for a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FrontendError::InvalidConfig`] if the configuration fails
    /// validation.
    pub fn new(config: FrontendConfig) -> Result<Self, FrontendError> {
        Ok(Self::with_extractor(Arc::new(MfccExtractor::new(config)?)))
    }

    /// A streaming frontend on an already built MFCC plan, whose
    /// configuration it takes.
    pub(crate) fn with_extractor(extractor: Arc<MfccExtractor>) -> Self {
        let config = extractor.config();
        let cmn = config.cepstral_mean_norm.then(|| config.live_cmn());
        let delta = IncrementalDelta::new(
            FrontendConfig::NUM_CEPSTRA,
            FrontendConfig::DELTA_WINDOW,
            config.use_delta,
            config.use_delta_delta,
        );
        StreamingFrontend {
            scratch: extractor.scratch(),
            extractor,
            cmn,
            delta,
            buffer: Vec::new(),
            last_raw: None,
            samples_seen: 0,
            frames_emitted: 0,
        }
    }

    /// The configuration this frontend was built with.
    pub fn config(&self) -> &FrontendConfig {
        self.extractor.config()
    }

    /// Feature frames emitted so far for the current utterance.
    pub fn frames_emitted(&self) -> usize {
        self.frames_emitted
    }

    /// Samples consumed so far for the current utterance.
    pub fn samples_seen(&self) -> usize {
        self.samples_seen
    }

    /// Consumes one chunk of PCM samples and returns every feature vector
    /// whose analysis window *and* delta context are now complete.  Returns
    /// an empty vector while the stream is still inside the initial window
    /// or the delta lookahead.
    ///
    /// Once warm, a call allocates only the returned vector and the feature
    /// vector of each frame it analyses (which it returns once the frame's
    /// delta lookahead has arrived).
    pub fn push_samples(&mut self, samples: &[f32]) -> Vec<FeatureVector> {
        const ALPHA: f32 = FrontendConfig::PRE_EMPHASIS;
        let dither = self.extractor.config().dither;
        let feature_dim = self.extractor.config().feature_dim();
        // Pre-emphasis with cross-chunk history, exactly as the offline pass
        // over the concatenated signal: y[0] = x[0], y[n] = x[n] − α·x[n−1].
        let start = self.buffer.len();
        if let Some((&first, _)) = samples.split_first() {
            self.buffer.push(match self.last_raw {
                Some(prev) => first - ALPHA * prev,
                None => first,
            });
            self.buffer
                .extend(samples.windows(2).map(|w| w[1] - ALPHA * w[0]));
            self.last_raw = samples.last().copied();
        }
        // Deterministic dither, parity-indexed by the absolute sample
        // position (matches the offline frontend's alternating sign).
        if dither > 0.0 {
            let parity = self.samples_seen % 2;
            for (i, v) in self.buffer[start..].iter_mut().enumerate() {
                *v += dither * if (i + parity) % 2 == 0 { 1.0 } else { -1.0 };
            }
        }
        self.samples_seen += samples.len();

        // Slide complete analysis windows over the buffer, then drop the
        // consumed hops in one move.
        let shift = FrontendConfig::FRAME_SHIFT_SAMPLES;
        let frames = FrameIter::new(&self.buffer, FrontendConfig::FRAME_LENGTH_SAMPLES, shift);
        let consumed = frames.len() * shift;
        let mut out = Vec::new();
        for frame in frames {
            let mut cepstra = Vec::with_capacity(feature_dim);
            cepstra.resize(FrontendConfig::NUM_CEPSTRA, 0.0);
            self.extractor
                .frame_cepstra(frame, &mut self.scratch, &mut cepstra);
            if let Some(cmn) = &mut self.cmn {
                cmn.normalize_live(&mut cepstra);
            }
            self.delta.push(cepstra, &mut out);
        }
        self.buffer.drain(..consumed);
        self.frames_emitted += out.len();
        out
    }

    /// Ends the current utterance: flushes the delta lookahead tail (with the
    /// offline edge clamping), discards the sub-window sample remainder, and
    /// resets per-utterance state.  The live-CMN running mean becomes the
    /// prior of the next utterance (Sphinx's `cmn prior` behaviour).
    pub fn finish_utterance(&mut self) -> Vec<FeatureVector> {
        let mut tail = Vec::new();
        self.delta.flush(&mut tail);
        self.buffer.clear();
        self.last_raw = None;
        self.samples_seen = 0;
        self.frames_emitted = 0;
        if let Some(cmn) = &mut self.cmn {
            cmn.reset_between_utterances();
        }
        tail
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asr_frontend::{DeltaComputer, Frontend};
    use proptest::prelude::*;

    fn tone(freq: f32, seconds: f32, rate: u32) -> Vec<f32> {
        (0..(seconds * rate as f32) as usize)
            .map(|n| (2.0 * std::f32::consts::PI * freq * n as f32 / rate as f32).sin())
            .collect()
    }

    /// Streams `samples` through a fresh frontend in the given chunk sizes
    /// (cycled) and returns all emitted features.
    fn stream_in_chunks(cfg: &FrontendConfig, samples: &[f32], chunks: &[usize]) -> Vec<Vec<f32>> {
        let mut fe = StreamingFrontend::new(cfg.clone()).unwrap();
        let mut out = Vec::new();
        let mut pos = 0;
        let mut i = 0;
        while pos < samples.len() {
            let take = chunks[i % chunks.len()].max(1).min(samples.len() - pos);
            out.extend(fe.push_samples(&samples[pos..pos + take]));
            pos += take;
            i += 1;
        }
        out.extend(fe.finish_utterance());
        out
    }

    #[test]
    fn matches_offline_frontend_exactly_without_cmn() {
        // CMN off isolates the streaming machinery (pre-emphasis carry,
        // framing, dither parity, incremental deltas), all of which must be
        // bit-identical to the offline pass.
        let cfg = FrontendConfig {
            cepstral_mean_norm: false,
            ..FrontendConfig::default()
        };
        let samples = tone(440.0, 0.5, 16_000);
        let offline = Frontend::new(cfg.clone()).unwrap().process(&samples);
        for chunks in [&[1usize][..], &[7, 160, 3][..], &[4096][..]] {
            let streamed = stream_in_chunks(&cfg, &samples, chunks);
            assert_eq!(streamed.len(), offline.len(), "chunks {chunks:?}");
            for (t, (s, o)) in streamed.iter().zip(&offline).enumerate() {
                assert_eq!(s, o, "frame {t} with chunks {chunks:?}");
            }
        }
    }

    #[test]
    fn matches_offline_without_deltas_or_dither() {
        let cfg = FrontendConfig {
            cepstral_mean_norm: false,
            use_delta: false,
            use_delta_delta: false,
            dither: 0.0,
            ..FrontendConfig::default()
        };
        let samples = tone(900.0, 0.3, 16_000);
        let offline = Frontend::new(cfg.clone()).unwrap().process(&samples);
        let streamed = stream_in_chunks(&cfg, &samples, &[123]);
        assert_eq!(streamed, offline);
    }

    #[test]
    fn delta_only_configuration_matches_offline() {
        let cfg = FrontendConfig {
            cepstral_mean_norm: false,
            use_delta: true,
            use_delta_delta: false,
            ..FrontendConfig::default()
        };
        let samples = tone(600.0, 0.3, 16_000);
        let offline = Frontend::new(cfg.clone()).unwrap().process(&samples);
        let streamed = stream_in_chunks(&cfg, &samples, &[50, 1]);
        assert_eq!(streamed, offline);
    }

    #[test]
    fn incremental_delta_equals_offline_delta_computer() {
        // The delta appender alone, against the offline DeltaComputer, for a
        // sequence shorter than the lookahead (pure flush), around it, and
        // well beyond it.
        for n in [1usize, 3, 4, 5, 20] {
            let frames: Vec<Vec<f32>> = (0..n)
                .map(|t| vec![t as f32, -(t as f32) * 0.5, (t * t) as f32 * 0.1])
                .collect();
            let offline = DeltaComputer::new(2).append(&frames, true, true);
            let mut inc = IncrementalDelta::new(3, 2, true, true);
            let mut streamed = Vec::new();
            for f in &frames {
                inc.push(f.clone(), &mut streamed);
            }
            inc.flush(&mut streamed);
            assert_eq!(streamed, offline, "n = {n}");
        }
    }

    #[test]
    fn bounded_histories_match_offline_at_every_window_and_mode() {
        // Sequences long enough to wrap both rings many times, for every
        // window the rings are sized by, in both delta modes, across two
        // utterances of one appender.
        for window in 1..=4 {
            for use_delta_delta in [false, true] {
                let mut inc = IncrementalDelta::new(2, window, true, use_delta_delta);
                for n in [1usize, 2 * window, 2 * window + 1, 57] {
                    let frames: Vec<Vec<f32>> = (0..n)
                        .map(|t| vec![(t as f32 * 0.37).sin(), (t * t % 11) as f32])
                        .collect();
                    let offline = DeltaComputer::new(window).append(&frames, true, use_delta_delta);
                    let mut streamed = Vec::new();
                    for f in &frames {
                        inc.push(f.clone(), &mut streamed);
                    }
                    inc.flush(&mut streamed);
                    assert_eq!(
                        streamed, offline,
                        "window {window}, ΔΔ {use_delta_delta}, n {n}"
                    );
                }
            }
        }
    }

    #[test]
    fn live_cmn_path_produces_sane_features_and_resets() {
        let cfg = FrontendConfig::default(); // CMN on
        let mut fe = StreamingFrontend::new(cfg.clone()).unwrap();
        let samples = tone(500.0, 0.4, 16_000);
        let mut feats = fe.push_samples(&samples);
        feats.extend(fe.finish_utterance());
        let offline_count = Frontend::new(cfg.clone()).unwrap().process(&samples).len();
        assert_eq!(feats.len(), offline_count);
        assert!(feats.iter().all(|f| f.len() == cfg.feature_dim()));
        assert!(feats.iter().flatten().all(|v| v.is_finite()));
        // After finish_utterance the frontend starts the next utterance clean.
        assert_eq!(fe.samples_seen(), 0);
        assert_eq!(fe.frames_emitted(), 0);
        let again = fe.push_samples(&samples);
        assert!(!again.is_empty());
    }

    #[test]
    fn short_input_yields_nothing_even_after_flush() {
        let mut fe = StreamingFrontend::new(FrontendConfig {
            cepstral_mean_norm: false,
            ..FrontendConfig::default()
        })
        .unwrap();
        assert!(fe.push_samples(&[0.0; 100]).is_empty());
        assert!(fe.finish_utterance().is_empty());
    }

    #[test]
    fn invalid_config_is_rejected() {
        let cfg = FrontendConfig {
            dither: f32::INFINITY,
            ..FrontendConfig::default()
        };
        assert!(StreamingFrontend::new(cfg).is_err());
    }

    proptest! {
        /// Chunking invariance: the emitted features never depend on how the
        /// sample stream was sliced.
        #[test]
        fn prop_chunking_is_invisible(chunk in 1usize..700, freq in 100.0f32..3000.0) {
            let cfg = FrontendConfig {
                cepstral_mean_norm: false,
                ..FrontendConfig::default()
            };
            let samples = tone(freq, 0.2, 16_000);
            let whole = stream_in_chunks(&cfg, &samples, &[samples.len()]);
            let sliced = stream_in_chunks(&cfg, &samples, &[chunk]);
            prop_assert_eq!(whole, sliced);
        }
    }
}
