//! Incremental decoding sessions: the real-time counterpart of
//! [`Recognizer::decode_features`].
//!
//! The paper's SoC is a *real-time* recognizer — feature frames arrive one
//! 10 ms hop at a time and the hardware keeps up.  A [`DecodeSession`] is
//! that regime as an API: open a session, push feature chunks of any size as
//! they arrive, read a [`PartialHypothesis`] between chunks, and [`finish`]
//! for the full [`DecodeResult`].  The session drives the exact same
//! per-frame search step as the offline path
//! ([`TokenPassingSearch::step`](crate::TokenPassingSearch::step)), so the
//! final hypothesis, score and statistics are identical to calling
//! [`Recognizer::decode_features`] on the concatenated input — the invariant
//! the workspace's `tests/stream.rs` property test pins on every backend.
//!
//! One session type serves both ways of holding the recogniser:
//! [`DecodeSession<&Recognizer>`](DecodeSession) for a caller that owns the
//! recogniser on the same thread, and
//! [`DecodeSession<Arc<Recognizer>>`](DecodeSession) — an **owned**
//! decode-task handle with no lifetime, for worker threads that serve many
//! models and must pin each session to the model version it was opened on
//! (the serve layer's hot-swap invariant).
//!
//! A session borrows its [`PhoneDecoder`] from its owner: [`begin`] takes
//! one, and [`finish`] and [`cancel`] hand it back, re-armed, so one warm
//! backend serves utterance after utterance the way the paper's OP and
//! Viterbi units do.  A caller with no decoder to recycle opens a one-off
//! session with `DecodeSession::begin(&rec, rec.phone_decoder()?)`.
//!
//! [`begin`]: DecodeSession::begin
//! [`cancel`]: DecodeSession::cancel
//! [`finish`]: DecodeSession::finish

use crate::phone_decode::PhoneDecoder;
use crate::recognizer::{DecodeResult, Recognizer};
use crate::search::{SearchState, TokenPassingSearch};
use crate::DecodeError;
use asr_lexicon::WordId;
use std::ops::Deref;

/// A snapshot of what the search believes so far, surfaced between chunks.
///
/// Partials are **prefix-consistent by construction**: each snapshot's word
/// sequence extends the previous snapshot's (the session holds its last
/// partial while the search is mid-revision instead of retracting words),
/// and `frames` grows monotonically.  The final result of
/// [`DecodeSession::finish`] is produced by the global best path search and
/// may differ from the last partial — partials are a live preview, not a
/// commitment.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PartialHypothesis {
    /// Feature frames consumed when this snapshot was taken.
    pub frames: usize,
    /// Word identifiers recognised so far.
    pub words: Vec<WordId>,
    /// Word spellings recognised so far.
    pub text: Vec<String>,
}

impl PartialHypothesis {
    /// The partial as a single space-separated string.
    pub fn to_sentence(&self) -> String {
        self.text.join(" ")
    }
}

fn search(recognizer: &Recognizer) -> TokenPassingSearch<'_> {
    TokenPassingSearch::new(
        recognizer.model(),
        recognizer.network(),
        recognizer.language_model(),
        recognizer.config(),
    )
}

/// An in-flight incremental decode of one utterance.
///
/// `R` is how the session holds its recogniser: `&Recognizer` or
/// `Arc<Recognizer>`.  An `Arc` session has no lifetime, so it can be stored
/// in long-lived worker state, moved across threads, or outlive the place
/// that opened it; a session opened on one model
/// *version* keeps decoding that exact version even if a registry has since
/// hot-swapped the name to a newer one — the `Arc` pins it.
///
/// Open it around a phone decoder with [`DecodeSession::begin`], feed it
/// frames with [`DecodeSession::step_frame`] / [`DecodeSession::push_chunk`]
/// and close it with [`DecodeSession::finish`] (or abandon it with
/// [`DecodeSession::cancel`]); both closes hand the decoder back for the
/// next session.  Chunk boundaries are invisible to the search: any chunking
/// of the same frames produces the same result.
///
/// # Example
///
/// ```
/// use asr_core::{DecodeSession, DecoderConfig, Recognizer};
/// use asr_corpus::{TaskConfig, TaskGenerator};
/// use std::sync::Arc;
///
/// let task = TaskGenerator::new(5).generate(&TaskConfig::tiny()).unwrap();
/// let recognizer = Arc::new(
///     Recognizer::new(
///         task.acoustic_model.clone(),
///         task.dictionary.clone(),
///         task.language_model.clone(),
///         DecoderConfig::simd(),
///     )
///     .unwrap(),
/// );
/// let (features, reference) = task.synthesize_utterance(2, 0.2, 1);
///
/// // Borrowed: the session lives inside the recogniser's scope.
/// let decoder = recognizer.phone_decoder().unwrap();
/// let mut session = DecodeSession::begin(&*recognizer, decoder);
/// for chunk in features.chunks(3) {
///     session.push_chunk(chunk).unwrap();
/// }
/// let (streamed, decoder) = session.finish();
/// let streamed = streamed.unwrap();
/// let offline = recognizer.decode_features(&features).unwrap();
/// assert_eq!(streamed.hypothesis.words, reference);
/// assert_eq!(streamed.hypothesis, offline.hypothesis);
///
/// // Owned: no lifetime, so the session may move to another thread, and
/// // dropping (or even replacing) `recognizer` would not invalidate it.
/// // The warm decoder the first session handed back serves this one.
/// let mut session = DecodeSession::begin(Arc::clone(&recognizer), decoder);
/// session.push_chunk(&features).unwrap();
/// assert_eq!(session.finish().0.unwrap().hypothesis, offline.hypothesis);
/// ```
#[derive(Debug)]
pub struct DecodeSession<R: Deref<Target = Recognizer>> {
    recognizer: R,
    phone_decoder: PhoneDecoder,
    state: SearchState,
    partial_words: Vec<WordId>,
}

impl<R: Deref<Target = Recognizer>> DecodeSession<R> {
    /// Opens a session around a phone decoder — the recogniser's own
    /// ([`Recognizer::phone_decoder`]) or a custom backend — which
    /// [`DecodeSession::finish`] or [`DecodeSession::cancel`] hands back so
    /// one warm decoder serves session after session.
    pub fn begin(recognizer: R, mut phone_decoder: PhoneDecoder) -> Self {
        phone_decoder.begin_utterance();
        let state = search(&recognizer).begin();
        DecodeSession {
            recognizer,
            phone_decoder,
            state,
            partial_words: Vec::new(),
        }
    }

    /// The recogniser this session decodes against.
    pub fn recognizer(&self) -> &R {
        &self.recognizer
    }

    /// Feature frames consumed so far.
    pub fn frames(&self) -> usize {
        self.state.frames()
    }

    /// Consumes one feature frame.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::DimensionMismatch`] for a frame of the wrong
    /// dimension, or propagates backend errors.  The session stays usable
    /// after a dimension error (the bad frame was rejected before touching
    /// the search).
    pub fn step_frame(&mut self, feature: &[f32]) -> Result<(), DecodeError> {
        search(&self.recognizer).step(&mut self.state, &mut self.phone_decoder, feature)?;
        // Hold the previous partial while the search revises; only ever
        // extend, so partials stay prefix-consistent.
        let best = self.state.best_words();
        if best.len() > self.partial_words.len() && best.starts_with(&self.partial_words) {
            self.partial_words = best.to_vec();
        }
        Ok(())
    }

    /// Consumes a chunk of feature frames (any size, including empty).
    ///
    /// # Errors
    ///
    /// Fails on the first frame that fails to decode; earlier frames of the
    /// chunk have been consumed.
    pub fn push_chunk(&mut self, frames: &[Vec<f32>]) -> Result<(), DecodeError> {
        for frame in frames {
            self.step_frame(frame)?;
        }
        Ok(())
    }

    /// The words of the current partial hypothesis, without spelling them
    /// out: a cheap way to see whether [`DecodeSession::partial`] grew.
    pub fn partial_words(&self) -> &[WordId] {
        &self.partial_words
    }

    /// The current partial hypothesis (words completed so far).
    pub fn partial(&self) -> PartialHypothesis {
        let spelled = self
            .partial_words
            .iter()
            .map(|&w| {
                self.recognizer
                    .dictionary()
                    .spelling(w)
                    .unwrap_or("<unk>")
                    .to_string()
            })
            .collect();
        PartialHypothesis {
            frames: self.state.frames(),
            words: self.partial_words.clone(),
            text: spelled,
        }
    }

    /// Closes the session: runs the global best path search over the lattice
    /// and returns the full [`DecodeResult`] together with the phone
    /// decoder, ready for the next session.  A session that consumed zero
    /// frames yields [`DecodeResult::empty`].  The result is currently
    /// infallible in practice; the `Result` keeps the signature stable for
    /// backends that may fail on utterance close.
    pub fn finish(mut self) -> (Result<DecodeResult, DecodeError>, PhoneDecoder) {
        if self.state.frames() == 0 {
            // Matches the offline path for empty input: no search ran, no
            // hardware report (the backend scored nothing).
            self.phone_decoder.begin_utterance();
            return (Ok(DecodeResult::empty()), self.phone_decoder);
        }
        let outcome = search(&self.recognizer).finish(self.state);
        let hardware = self.phone_decoder.finish_utterance();
        (
            Ok(self.recognizer.assemble_result(outcome, hardware)),
            self.phone_decoder,
        )
    }

    /// Abandons the utterance without running the final best-path search
    /// (barge-in / client cancellation): everything decoded so far is
    /// discarded and the phone decoder is handed back, already re-armed for
    /// the next utterance — no [`UtteranceReport`](asr_hw::UtteranceReport)
    /// is produced for the abandoned frames.
    pub fn cancel(mut self) -> PhoneDecoder {
        // The same re-arm the zero-frame finish path uses, so a cancelled
        // decoder is indistinguishable from a fresh one.
        self.phone_decoder.begin_utterance();
        self.phone_decoder
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DecoderConfig;
    use asr_corpus::{SyntheticTask, TaskConfig, TaskGenerator};
    use std::sync::Arc;

    fn task() -> SyntheticTask {
        TaskGenerator::new(31)
            .generate(&TaskConfig::tiny())
            .unwrap()
    }

    fn recognizer(task: &SyntheticTask, config: DecoderConfig) -> Recognizer {
        Recognizer::new(
            task.acoustic_model.clone(),
            task.dictionary.clone(),
            task.language_model.clone(),
            config,
        )
        .unwrap()
    }

    /// A one-off session on the recogniser's own backend.
    fn open(rec: &Recognizer) -> DecodeSession<&Recognizer> {
        DecodeSession::begin(rec, rec.phone_decoder().unwrap())
    }

    #[test]
    fn session_matches_offline_decode_frame_by_frame() {
        let task = task();
        let rec = recognizer(&task, DecoderConfig::software());
        let (features, reference) = task.synthesize_utterance(2, 0.2, 3);
        let offline = rec.decode_features(&features).unwrap();

        let mut session = open(&rec);
        for frame in &features {
            session.step_frame(frame).unwrap();
        }
        assert_eq!(session.frames(), features.len());
        let streamed = session.finish().0.unwrap();
        assert_eq!(streamed.hypothesis, offline.hypothesis);
        assert_eq!(streamed.live_hypothesis, offline.live_hypothesis);
        assert_eq!(streamed.best_score.raw(), offline.best_score.raw());
        assert_eq!(streamed.stats, offline.stats);
        assert_eq!(streamed.lattice.len(), offline.lattice.len());
        assert_eq!(streamed.lattice.num_frames(), offline.lattice.num_frames());
        assert_eq!(streamed.hypothesis.words, reference);
    }

    #[test]
    fn hardware_session_reports_match_offline() {
        let task = task();
        let rec = recognizer(&task, DecoderConfig::hardware(2));
        let (features, _) = task.synthesize_utterance(1, 0.2, 9);
        let offline = rec.decode_features(&features).unwrap();
        let mut session = open(&rec);
        session.push_chunk(&features).unwrap();
        let streamed = session.finish().0.unwrap();
        let (a, b) = (streamed.hardware.unwrap(), offline.hardware.unwrap());
        assert_eq!(a.frames, b.frames);
        assert_eq!(a.senones_scored, b.senones_scored);
        assert_eq!(a.hmm_updates, b.hmm_updates);
    }

    #[test]
    fn partials_grow_monotonically_and_stay_prefixes() {
        let task = task();
        let rec = recognizer(&task, DecoderConfig::simd());
        let (features, _) = task.synthesize_utterance(3, 0.2, 17);
        let mut session = open(&rec);
        let mut previous = PartialHypothesis::default();
        for chunk in features.chunks(2) {
            session.push_chunk(chunk).unwrap();
            let partial = session.partial();
            assert!(partial.frames >= previous.frames, "frames must be monotone");
            assert!(
                partial.words.starts_with(&previous.words),
                "{:?} must extend {:?}",
                partial.words,
                previous.words
            );
            previous = partial;
        }
        // A multi-word utterance surfaces at least one word before finish.
        assert!(!previous.words.is_empty());
        assert_eq!(previous.words.len(), previous.text.len());
        assert!(!previous.to_sentence().is_empty());
    }

    #[test]
    fn zero_frame_session_is_the_typed_empty_result() {
        let task = task();
        let rec = recognizer(&task, DecoderConfig::software());
        let session = open(&rec);
        assert_eq!(session.partial(), PartialHypothesis::default());
        let result = session.finish().0.unwrap();
        assert!(result.is_empty());
        assert!(result.hypothesis.words.is_empty());
        assert!(result.best_score.is_zero());
    }

    #[test]
    fn a_rejected_frame_leaves_the_session_usable() {
        let task = task();
        let rec = recognizer(&task, DecoderConfig::software());
        let (features, reference) = task.synthesize_utterance(1, 0.2, 4);
        let mut session = open(&rec);
        let bad = vec![0.0f32; task.acoustic_model.feature_dim() + 1];
        assert!(matches!(
            session.step_frame(&bad),
            Err(DecodeError::DimensionMismatch { .. })
        ));
        session.push_chunk(&features).unwrap();
        assert_eq!(session.finish().0.unwrap().hypothesis.words, reference);
    }

    #[test]
    fn shared_session_matches_the_borrowed_session_and_outlives_its_opener() {
        let task = task();
        let rec = Arc::new(recognizer(&task, DecoderConfig::hardware(2)));
        let (features, reference) = task.synthesize_utterance(2, 0.2, 12);
        let offline = rec.decode_features(&features).unwrap();

        // Open on this thread, decode on another: no lifetime ties the
        // session to the opener's stack frame.
        let mut session = DecodeSession::begin(Arc::clone(&rec), rec.phone_decoder().unwrap());
        assert!(Arc::ptr_eq(session.recognizer(), &rec));
        let streamed = std::thread::spawn(move || {
            for chunk in features.chunks(3) {
                session.push_chunk(chunk).unwrap();
            }
            assert_eq!(session.partial().frames, session.frames());
            session.finish().0.unwrap()
        })
        .join()
        .unwrap();
        assert_eq!(streamed.hypothesis.words, reference);
        assert_eq!(streamed.hypothesis, offline.hypothesis);
        assert_eq!(streamed.best_score.raw(), offline.best_score.raw());
        let (a, b) = (streamed.hardware.unwrap(), offline.hardware.unwrap());
        assert_eq!(a.frames, b.frames);
        assert_eq!(a.senones_scored, b.senones_scored);
    }

    #[test]
    fn cancel_hands_back_a_decoder_that_decodes_the_next_utterance_cleanly() {
        let task = task();
        let (features, reference) = task.synthesize_utterance(2, 0.2, 8);
        for config in [DecoderConfig::software(), DecoderConfig::hardware(2)] {
            let rec = recognizer(&task, config);
            let offline = rec.decode_features(&features).unwrap();

            // Decode half an utterance, then abandon it mid-flight.
            let mut session = open(&rec);
            session.push_chunk(&features[..features.len() / 2]).unwrap();
            assert!(session.frames() > 0);
            let decoder = session.cancel();

            // The recycled decoder behaves exactly like a fresh one — no
            // residue from the abandoned frames (hardware counters included).
            let mut session = DecodeSession::begin(&rec, decoder);
            session.push_chunk(&features).unwrap();
            let streamed = session.finish().0.unwrap();
            assert_eq!(streamed.hypothesis.words, reference);
            assert_eq!(streamed.hypothesis, offline.hypothesis);
            assert_eq!(streamed.best_score.raw(), offline.best_score.raw());
            match (&streamed.hardware, &offline.hardware) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.frames, b.frames);
                    assert_eq!(a.senones_scored, b.senones_scored);
                }
                (None, None) => {}
                other => panic!("hardware report mismatch: {other:?}"),
            }
        }

        // An `Arc` session exposes the same seam.
        let rec = Arc::new(recognizer(&task, DecoderConfig::simd()));
        let mut session = DecodeSession::begin(Arc::clone(&rec), rec.phone_decoder().unwrap());
        session.push_chunk(&features[..3]).unwrap();
        let decoder = session.cancel();
        let mut session = DecodeSession::begin(Arc::clone(&rec), decoder);
        session.push_chunk(&features).unwrap();
        assert_eq!(session.finish().0.unwrap().hypothesis.words, reference);
    }

    #[test]
    fn finish_recycles_the_decoder_across_sessions_and_empty_input() {
        let task = task();
        let rec = Arc::new(recognizer(&task, DecoderConfig::simd()));
        let (features, reference) = task.synthesize_utterance(1, 0.2, 6);

        // Zero frames → typed empty result, decoder handed back.
        let empty = DecodeSession::begin(Arc::clone(&rec), rec.phone_decoder().unwrap());
        let (result, mut decoder) = empty.finish();
        assert!(result.unwrap().is_empty());

        for _ in 0..2 {
            let mut session = DecodeSession::begin(Arc::clone(&rec), decoder);
            session.push_chunk(&features).unwrap();
            let (result, recycled) = session.finish();
            assert_eq!(result.unwrap().hypothesis.words, reference);
            decoder = recycled;
        }
    }
}
