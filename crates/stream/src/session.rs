//! Continuous-audio streaming sessions: raw PCM in, VAD-endpointed
//! utterances out, each decoded incrementally with per-chunk latency
//! accounting.

use crate::frontend::StreamingFrontend;
use crate::vad::{hop_rms, EnergyVad, VadEvent};
use crate::{StreamConfig, StreamError};
use asr_core::{DecodeResult, DecodeSession, PartialHypothesis, PhoneDecoder, Recognizer};
use asr_frontend::{FrontendConfig, MfccExtractor};
use asr_hw::{StreamTiming, FRAME_PERIOD_S};
use asr_obs::{Outcome, RequestKind, SpanEvent, Telemetry, TraceId};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Samples per VAD hop: one frontend frame shift.
const HOP: usize = FrontendConfig::FRAME_SHIFT_SAMPLES;

// The frontend's hop is the decoder's frame: a chunk's audio coverage and
// the SoC's real-time budget count the same 10 ms.
const _: () = assert!(HOP as f64 / FrontendConfig::SAMPLE_RATE_HZ as f64 == FRAME_PERIOD_S);

/// Everything produced by one streamed utterance: the decode result (with
/// the SoC's hardware report, when the backend keeps one) and the host
/// wall-clock timing record of its chunks.
#[derive(Debug, Clone)]
pub struct StreamOutcome {
    /// The decoded utterance — identical to what the offline path would have
    /// produced for the same feature frames.
    pub result: DecodeResult,
    /// Per-chunk latency / stream real-time-factor record.
    pub timing: StreamTiming,
    /// The exact feature frames this utterance decoded, captured when
    /// [`StreamConfig::capture_features`] is set (`None` otherwise).
    /// Replaying them through
    /// [`Recognizer::decode_features`](asr_core::Recognizer::decode_features)
    /// reproduces `result` exactly — the parity oracle the scenario tests
    /// assert on.
    pub features: Option<Vec<Vec<f32>>>,
}

/// An event surfaced by [`AudioStreamSession::push_audio`].
#[derive(Debug, Clone)]
pub enum StreamEvent {
    /// The endpointer opened an utterance (speech detected).  Also emitted
    /// after an [`UtteranceForceEnded`](StreamEvent::UtteranceForceEnded)
    /// re-open, so `UtteranceStarted` and the two end events strictly
    /// alternate.
    UtteranceStarted,
    /// The in-flight utterance's partial hypothesis grew.
    Partial(PartialHypothesis),
    /// The endpointer closed the utterance; here is everything it produced.
    UtteranceEnd(Box<StreamOutcome>),
    /// The utterance hit [`StreamConfig::max_utterance_frames`] and was
    /// force-closed mid-speech; a fresh utterance re-opens on the very next
    /// event.  No frames are lost: every feature decoded so far is in this
    /// outcome, and subsequent audio feeds the re-opened utterance.
    UtteranceForceEnded(Box<StreamOutcome>),
}

/// The streaming façade over a [`Recognizer`]: owns it plus the stream
/// configuration and the frontend's MFCC plan, and opens sessions.
#[derive(Debug)]
pub struct StreamingRecognizer {
    recognizer: Recognizer,
    config: StreamConfig,
    /// The window, FFT, mel and DCT plan of `config.frontend`, built once
    /// and shared by every audio session.
    extractor: Arc<MfccExtractor>,
    telemetry: Telemetry,
}

impl StreamingRecognizer {
    /// Wraps a recogniser for streaming with the given configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`StreamError`] for an invalid stream configuration.  (The
    /// frontend-vs-model feature-dimension match is checked when an audio
    /// session is opened — feature sessions don't involve the frontend.)
    pub fn new(recognizer: Recognizer, config: StreamConfig) -> Result<Self, StreamError> {
        config.validate()?;
        Ok(StreamingRecognizer {
            extractor: Arc::new(MfccExtractor::new(config.frontend.clone())?),
            recognizer,
            config,
            telemetry: Telemetry::disabled(),
        })
    }

    /// Attaches a telemetry pipeline: every subsequent
    /// [`audio_session`](StreamingRecognizer::audio_session) mints a trace
    /// and emits endpointing span events ([`SpanEvent::VadSpeechStart`],
    /// [`SpanEvent::VadSpeechEnd`], [`SpanEvent::ForcedEndpoint`],
    /// [`SpanEvent::PartialEmitted`], [`SpanEvent::BargeIn`]) as the VAD
    /// drives the session, ending with one [`SpanEvent::Finished`] when the
    /// session is [`close`](AudioStreamSession::close)d.  With the default
    /// [`Telemetry::disabled`], every emission site is a single branch.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The attached telemetry pipeline (disabled unless
    /// [`with_telemetry`](StreamingRecognizer::with_telemetry) was called).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The wrapped recogniser.
    pub fn recognizer(&self) -> &Recognizer {
        &self.recognizer
    }

    /// The stream configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Decodes one utterance pushed as feature chunks, on a phone decoder
    /// built for it alone.  New code opens an [`asr_core::DecodeSession`]
    /// around a decoder it keeps warm instead; this entry stays only for the
    /// repository benchmark's stream workload, which replays captured
    /// features through it.
    ///
    /// # Errors
    ///
    /// Propagates backend construction failures.
    #[doc(hidden)]
    pub fn feature_session(&self) -> Result<Utterance<'_>, StreamError> {
        Ok(Utterance::open(self, self.recognizer.phone_decoder()?))
    }

    /// Opens a continuous-audio session: push raw samples, collect endpointed
    /// utterances.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::InvalidConfig`] when the configured frontend's
    /// feature dimension does not match the acoustic model's, and propagates
    /// backend construction failures: the session builds its one phone
    /// decoder here, which then serves every utterance it endpoints.  Its
    /// frontend runs on the MFCC plan this recogniser built once.
    pub fn audio_session(&self) -> Result<AudioStreamSession<'_>, StreamError> {
        let frontend_dim = self.config.frontend.feature_dim();
        let model_dim = self.recognizer.model().feature_dim();
        if frontend_dim != model_dim {
            return Err(StreamError::InvalidConfig(format!(
                "frontend produces {frontend_dim}-dim features but the acoustic model \
                 expects {model_dim}"
            )));
        }
        let preroll_len =
            (self.config.vad.preroll_hops + self.config.vad.min_speech_hops).max(1) * HOP;
        let trace = if self.telemetry.is_enabled() {
            let trace = self.telemetry.begin_trace();
            self.telemetry.emit(
                trace,
                &SpanEvent::Admitted {
                    kind: RequestKind::Stream,
                    model: None,
                    tenant: None,
                },
            );
            trace
        } else {
            TraceId::NONE
        };
        Ok(AudioStreamSession {
            owner: self,
            trace,
            frontend: StreamingFrontend::with_extractor(Arc::clone(&self.extractor)),
            vad: EnergyVad::new(self.config.vad.clone()),
            residue: Vec::with_capacity(HOP),
            preroll: VecDeque::with_capacity(preroll_len),
            preroll_len,
            decoder: Some(self.recognizer.phone_decoder()?),
            current: None,
            last_partial_words: 0,
            utterances_finished: 0,
            utterances_cancelled: 0,
            features_emitted: 0,
            frames_discarded: 0,
        })
    }
}

/// The utterance an [`AudioStreamSession`] has open: a decode session on
/// the audio session's phone decoder, plus the utterance's latency record
/// and (when [`StreamConfig::capture_features`] is on) every frame pushed.
#[derive(Debug)]
pub struct Utterance<'r> {
    session: DecodeSession<&'r Recognizer>,
    timing: StreamTiming,
    /// `Some` when [`StreamConfig::capture_features`] is on: every pushed
    /// frame, for offline-parity replay.
    captured: Option<Vec<Vec<f32>>>,
}

impl<'r> Utterance<'r> {
    fn open(owner: &'r StreamingRecognizer, decoder: PhoneDecoder) -> Self {
        Utterance {
            session: DecodeSession::begin(&owner.recognizer, decoder),
            timing: StreamTiming::new(),
            captured: owner.config.capture_features.then(Vec::new),
        }
    }

    /// Decodes one chunk of feature frames (any size), recording its
    /// wall-clock latency and audio coverage.
    ///
    /// # Errors
    ///
    /// Propagates decode errors; earlier frames of the chunk have been
    /// consumed.
    pub fn push_chunk(&mut self, frames: &[Vec<f32>]) -> Result<(), StreamError> {
        let start = Instant::now();
        self.session.push_chunk(frames)?;
        if let Some(captured) = &mut self.captured {
            captured.extend(frames.iter().cloned());
        }
        self.timing.record_chunk(
            start.elapsed().as_secs_f64(),
            frames.len() as f64 * FRAME_PERIOD_S,
        );
        Ok(())
    }

    /// Closes the utterance: the [`StreamOutcome`] and the phone decoder,
    /// re-armed for the next utterance.
    fn close(self) -> (Result<StreamOutcome, StreamError>, PhoneDecoder) {
        let (result, decoder) = self.session.finish();
        let outcome = result
            .map_err(StreamError::from)
            .map(|result| StreamOutcome {
                result,
                timing: self.timing,
                features: self.captured,
            });
        (outcome, decoder)
    }

    /// Closes a one-off utterance opened by
    /// [`StreamingRecognizer::feature_session`], dropping its decoder.
    ///
    /// # Errors
    ///
    /// Propagates decode errors.
    pub fn finish(self) -> Result<StreamOutcome, StreamError> {
        self.close().0
    }
}

/// A continuous-audio session: raw PCM in, endpointed utterances out.
///
/// Audio is consumed in VAD hops (one frame shift each).  While the
/// endpointer reports silence, hops accumulate in a bounded pre-roll; when
/// speech opens, the pre-roll and every further hop stream through the
/// chunked frontend into an incremental decode session, and utterance events
/// surface as they happen.  The session builds one phone decoder when it
/// opens, and every utterance it endpoints, finishes or cancels decodes on
/// that same warm decoder.
#[derive(Debug)]
pub struct AudioStreamSession<'r> {
    owner: &'r StreamingRecognizer,
    /// The session's telemetry trace ([`TraceId::NONE`] when telemetry is
    /// disabled).  One trace spans the whole session: every endpointed
    /// utterance adds span events to it, and [`close`] emits the single
    /// terminal [`SpanEvent::Finished`].  Dropping the session without
    /// closing it leaves the trace unterminated — same as a client that
    /// vanished mid-stream.
    ///
    /// [`close`]: AudioStreamSession::close
    trace: TraceId,
    frontend: StreamingFrontend,
    vad: EnergyVad,
    /// Samples not yet forming a full hop.
    residue: Vec<f32>,
    /// The samples of recent silence hops, oldest first, replayed into the
    /// utterance hop by hop on speech start.  Its length is always a whole
    /// number of hops, at most `preroll_len`.
    preroll: VecDeque<f32>,
    /// Samples of `preroll_hops + min_speech_hops` hops (at least one hop).
    preroll_len: usize,
    /// The phone decoder while no utterance is open; the open utterance
    /// holds it otherwise, so exactly one of `decoder` and `current` is
    /// `Some`.
    decoder: Option<PhoneDecoder>,
    current: Option<Utterance<'r>>,
    last_partial_words: usize,
    utterances_finished: usize,
    utterances_cancelled: usize,
    /// Feature frames the frontend has emitted into decode sessions (preroll
    /// replay + in-speech hops + endpoint tails).  On an error-free stream,
    /// `features_emitted == Σ finished num_frames + frames_discarded +
    /// frames still in the open utterance` — the zero-loss ledger the
    /// forced-endpoint tests audit.
    features_emitted: usize,
    /// Feature frames deliberately dropped by [`AudioStreamSession::cancel`].
    frames_discarded: usize,
}

impl<'r> AudioStreamSession<'r> {
    /// Emits a span event on the session trace (one branch when telemetry is
    /// disabled: `Telemetry::emit` returns immediately).
    fn emit(&self, event: &SpanEvent) {
        self.owner.telemetry.emit(self.trace, event);
    }

    /// The session's telemetry trace ([`TraceId::NONE`] when the owning
    /// recogniser has no telemetry attached).
    pub fn trace(&self) -> TraceId {
        self.trace
    }

    /// Whether an utterance is currently open.
    pub fn in_utterance(&self) -> bool {
        self.current.is_some()
    }

    /// Utterances endpointed and decoded so far.
    pub fn utterances_finished(&self) -> usize {
        self.utterances_finished
    }

    /// Utterances abandoned via [`AudioStreamSession::cancel`].
    pub fn utterances_cancelled(&self) -> usize {
        self.utterances_cancelled
    }

    /// Feature frames the frontend has emitted into decode sessions so far.
    pub fn features_emitted(&self) -> usize {
        self.features_emitted
    }

    /// Feature frames deliberately discarded by cancellation.
    pub fn frames_discarded(&self) -> usize {
        self.frames_discarded
    }

    /// Silence hops currently buffered for pre-roll replay — bounded by
    /// `preroll_hops + min_speech_hops` at all times.
    pub fn preroll_buffered(&self) -> usize {
        self.preroll.len() / HOP
    }

    /// The endpointer's current voiced threshold (adapts when
    /// [`crate::VadConfig::adaptive`] is set).
    pub fn vad_threshold(&self) -> f32 {
        self.vad.threshold()
    }

    /// Consumes a chunk of PCM samples (any size) and returns the stream
    /// events it caused, in order.
    ///
    /// Whole hops are read from `samples` in place; only a sub-hop remainder
    /// is copied, to be completed by the next call.  A silent hop allocates
    /// nothing once the pre-roll is full.
    ///
    /// # Errors
    ///
    /// Propagates decode errors from the in-flight utterance.  The hop that
    /// failed is consumed; the samples after it stay buffered for the next
    /// call.
    pub fn push_audio(&mut self, samples: &[f32]) -> Result<Vec<StreamEvent>, StreamError> {
        let mut events = Vec::new();
        let mut rest = samples;
        if !self.residue.is_empty() {
            let missing = HOP - self.residue.len();
            if rest.len() < missing {
                self.residue.extend_from_slice(rest);
                return Ok(events);
            }
            let (head, tail) = rest.split_at(missing);
            self.residue.extend_from_slice(head);
            rest = tail;
            let hop = std::mem::take(&mut self.residue);
            let processed = self.process_hop(&hop, &mut events);
            self.residue = hop;
            self.residue.clear();
            if let Err(e) = processed {
                self.residue.extend_from_slice(rest);
                return Err(e);
            }
        }
        while rest.len() >= HOP {
            let (hop, tail) = rest.split_at(HOP);
            rest = tail;
            if let Err(e) = self.process_hop(hop, &mut events) {
                self.residue.extend_from_slice(rest);
                return Err(e);
            }
        }
        self.residue.extend_from_slice(rest);
        Ok(events)
    }

    fn process_hop(
        &mut self,
        hop: &[f32],
        events: &mut Vec<StreamEvent>,
    ) -> Result<(), StreamError> {
        let rms = hop_rms(hop);
        if !self.vad.in_speech() {
            // Buffer the hop first so the trigger hops themselves (and the
            // configured pre-roll before them) belong to the utterance.
            if self.preroll.len() >= self.preroll_len {
                self.preroll.drain(..HOP);
            }
            self.preroll.extend(hop);
            if self.vad.push_hop(rms) == Some(VadEvent::SpeechStart) {
                events.push(StreamEvent::UtteranceStarted);
                self.emit(&SpanEvent::VadSpeechStart {
                    frame: self.features_emitted,
                });
                self.last_partial_words = 0;
                if let Err(e) = self.open_utterance() {
                    // The VAD already flipped to speech; roll everything back
                    // to silence so the session stays usable (the next hop
                    // must not find in_speech with no open utterance).
                    self.vad.reset();
                    self.frontend.finish_utterance();
                    return Err(e);
                }
            }
            return Ok(());
        }

        // In speech: the hop (voiced, or silence inside the hangover) is part
        // of the utterance.
        let ended = self.vad.push_hop(rms) == Some(VadEvent::SpeechEnd);
        let features = self.frontend.push_samples(hop);
        self.features_emitted += features.len();
        let utterance = self
            .current
            .as_mut()
            .expect("an utterance is open while the VAD is in speech");
        if !features.is_empty() {
            let started = self.owner.telemetry.is_enabled().then(Instant::now);
            utterance.push_chunk(&features)?;
            // Spell the partial out only when it grew.
            let words = utterance.session.partial_words().len();
            if words > self.last_partial_words {
                self.last_partial_words = words;
                events.push(StreamEvent::Partial(utterance.session.partial()));
                if let Some(started) = started {
                    self.emit(&SpanEvent::PartialEmitted {
                        words,
                        latency_us: started.elapsed().as_micros().min(u64::MAX as u128) as u64,
                    });
                }
            }
        }
        if ended {
            let outcome = self.finish_current()?;
            self.emit(&SpanEvent::VadSpeechEnd {
                frames: outcome.result.stats.num_frames(),
            });
            events.push(StreamEvent::UtteranceEnd(Box::new(outcome)));
        } else if let Some(limit) = self.owner.config.max_utterance_frames {
            let frames = self
                .current
                .as_ref()
                .expect("utterance still open: the VAD did not end it")
                .session
                .frames();
            if frames >= limit {
                // Forced endpoint: close the runaway utterance (flushing the
                // frontend tail into it — nothing decoded so far is lost) and
                // re-open immediately, since the VAD still reports speech.
                let outcome = self.finish_current()?;
                self.emit(&SpanEvent::ForcedEndpoint {
                    frames: outcome.result.stats.num_frames(),
                });
                events.push(StreamEvent::UtteranceForceEnded(Box::new(outcome)));
                if let Err(e) = self.open_utterance() {
                    // Same rollback as the SpeechStart path: return the whole
                    // session to silence so it stays usable.
                    self.vad.reset();
                    self.frontend.finish_utterance();
                    return Err(e);
                }
                events.push(StreamEvent::UtteranceStarted);
                self.emit(&SpanEvent::VadSpeechStart {
                    frame: self.features_emitted,
                });
            }
        }
        Ok(())
    }

    /// Opens the utterance the VAD just triggered on the session's decoder
    /// and replays the buffered pre-roll into it.  On a replay error the
    /// decoder comes back and no utterance is open.
    fn open_utterance(&mut self) -> Result<(), StreamError> {
        let decoder = self
            .decoder
            .take()
            .expect("no utterance is open, so the session holds its decoder");
        let mut utterance = Utterance::open(self.owner, decoder);
        let replayed = self.replay_preroll(&mut utterance);
        self.preroll.clear();
        if let Err(e) = replayed {
            self.decoder = Some(utterance.session.cancel());
            return Err(e);
        }
        self.current = Some(utterance);
        Ok(())
    }

    /// Streams the buffered pre-roll into `utterance`, one hop per chunk.
    fn replay_preroll(&mut self, utterance: &mut Utterance<'r>) -> Result<(), StreamError> {
        for buffered in self.preroll.make_contiguous().chunks(HOP) {
            let features = self.frontend.push_samples(buffered);
            self.features_emitted += features.len();
            if !features.is_empty() {
                utterance.push_chunk(&features)?;
            }
        }
        Ok(())
    }

    /// Flushes the frontend tail into the open utterance and finishes it,
    /// taking the decoder back (also when the flush fails).
    fn finish_current(&mut self) -> Result<StreamOutcome, StreamError> {
        let mut utterance = self
            .current
            .take()
            .expect("finish_current requires an open utterance");
        let tail = self.frontend.finish_utterance();
        self.features_emitted += tail.len();
        self.last_partial_words = 0;
        if !tail.is_empty() {
            if let Err(e) = utterance.push_chunk(&tail) {
                self.decoder = Some(utterance.session.cancel());
                return Err(e);
            }
        }
        let (outcome, decoder) = utterance.close();
        self.decoder = Some(decoder);
        let outcome = outcome?;
        self.utterances_finished += 1;
        Ok(outcome)
    }

    /// Barge-in: abandons the in-flight utterance, discarding everything it
    /// decoded, and re-arms the session for fresh speech.  Returns the
    /// number of feature frames discarded (decoded so far plus the flushed
    /// frontend tail), or `None` if no utterance was open.  The VAD resets
    /// (adaptive noise floor re-primed), and buffered pre-roll and sub-hop
    /// sample residue are cleared — the next audio pushed is treated as the
    /// start of a new listening window.
    pub fn cancel(&mut self) -> Option<usize> {
        let utterance = self.current.take()?;
        let decoded = utterance.session.frames();
        self.decoder = Some(utterance.session.cancel());
        let tail = self.frontend.finish_utterance();
        self.features_emitted += tail.len();
        let discarded = decoded + tail.len();
        self.frames_discarded += discarded;
        self.utterances_cancelled += 1;
        self.emit(&SpanEvent::BargeIn { frames: discarded });
        self.vad.reset();
        self.preroll.clear();
        self.residue.clear();
        self.last_partial_words = 0;
        Some(discarded)
    }

    /// Closes the session.  An utterance still open (speech ran into the end
    /// of the stream) is finished and returned; a session in which the VAD
    /// never triggered — or whose last utterance already ended — returns
    /// [`DecodeResult::empty`] with an empty timing record rather than an
    /// error.  Sub-hop residue and un-triggered pre-roll audio are discarded.
    ///
    /// # Errors
    ///
    /// Propagates decode errors from finishing the open utterance.
    pub fn close(mut self) -> Result<StreamOutcome, StreamError> {
        let outcome = if self.current.is_some() {
            self.vad.reset();
            let finished = self.finish_current();
            if let Ok(outcome) = &finished {
                // Speech ran into the end of the stream: balance the
                // trace's VadSpeechStart before terminating it.
                self.emit(&SpanEvent::VadSpeechEnd {
                    frames: outcome.result.stats.num_frames(),
                });
            }
            finished
        } else {
            Ok(StreamOutcome {
                result: DecodeResult::empty(),
                timing: StreamTiming::new(),
                features: None,
            })
        };
        self.emit(&SpanEvent::Finished {
            outcome: if outcome.is_ok() {
                Outcome::Completed
            } else {
                Outcome::Failed
            },
            frames: self.features_emitted,
        });
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vad::VadConfig;
    use asr_core::DecoderConfig;
    use asr_corpus::{SyntheticTask, TaskConfig, TaskGenerator};
    use asr_frontend::FrontendConfig;

    fn task_with_dim(dim: usize) -> SyntheticTask {
        TaskGenerator::new(51)
            .generate(&TaskConfig {
                feature_dim: dim,
                ..TaskConfig::tiny()
            })
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

    /// A stream config whose frontend emits 13-dim statics (matching the
    /// test task) and whose VAD endpoints quickly.
    fn audio_config() -> StreamConfig {
        StreamConfig {
            frontend: FrontendConfig {
                use_delta: false,
                use_delta_delta: false,
                ..FrontendConfig::default()
            },
            vad: VadConfig {
                energy_threshold: 0.05,
                min_speech_hops: 2,
                hangover_hops: 5,
                preroll_hops: 2,
                adaptive: None,
            },
            ..StreamConfig::default()
        }
    }

    fn tone(seconds: f32) -> Vec<f32> {
        (0..(seconds * 16_000.0) as usize)
            .map(|n| 0.5 * (2.0 * std::f32::consts::PI * 440.0 * n as f32 / 16_000.0).sin())
            .collect()
    }

    #[test]
    fn audio_session_endpoints_a_tone_burst() {
        let task = task_with_dim(13);
        let rec = recognizer(&task, DecoderConfig::hardware(1));
        let streamer = StreamingRecognizer::new(rec, audio_config()).unwrap();
        let mut session = streamer.audio_session().unwrap();
        assert!(!session.in_utterance());

        let mut events = Vec::new();
        // 200 ms of leading silence, 300 ms of tone, 300 ms of trailing
        // silence — pushed in odd-sized chunks.
        let mut audio = vec![0.0f32; 3200];
        audio.extend(tone(0.3));
        audio.extend(vec![0.0f32; 4800]);
        for chunk in audio.chunks(777) {
            events.extend(session.push_audio(chunk).unwrap());
        }
        let started = events
            .iter()
            .filter(|e| matches!(e, StreamEvent::UtteranceStarted))
            .count();
        let ended: Vec<&StreamOutcome> = events
            .iter()
            .filter_map(|e| match e {
                StreamEvent::UtteranceEnd(o) => Some(o.as_ref()),
                _ => None,
            })
            .collect();
        assert_eq!(started, 1, "{events:?}");
        assert_eq!(ended.len(), 1);
        assert_eq!(session.utterances_finished(), 1);
        let outcome = ended[0];
        assert!(outcome.result.stats.num_frames() > 10);
        assert!(outcome.timing.chunks() > 0);
        assert!(outcome.timing.audio_seconds() > 0.2);
        assert!(outcome.result.hardware.is_some());
        // The stream went back to silence; closing now is the empty result.
        assert!(!session.in_utterance());
        let last = session.close().unwrap();
        assert!(last.result.is_empty());
    }

    #[test]
    fn telemetry_traces_an_endpointed_session() {
        let task = task_with_dim(13);
        let rec = recognizer(&task, DecoderConfig::software());
        let (telemetry, sink) = asr_obs::Telemetry::to_memory();
        let streamer = StreamingRecognizer::new(rec, audio_config())
            .unwrap()
            .with_telemetry(telemetry);
        let mut session = streamer.audio_session().unwrap();
        assert!(!session.trace().is_none());

        let mut audio = vec![0.0f32; 3200];
        audio.extend(tone(0.3));
        audio.extend(vec![0.0f32; 4800]);
        for chunk in audio.chunks(777) {
            session.push_audio(chunk).unwrap();
        }
        // Second burst, abandoned by barge-in mid-speech.
        audio = vec![0.0f32; 3200];
        audio.extend(tone(0.3));
        for chunk in audio.chunks(777) {
            session.push_audio(chunk).unwrap();
        }
        assert!(session.in_utterance());
        assert!(session.cancel().unwrap() > 0);
        session.close().unwrap();

        let facts = sink.facts();
        let events: Vec<String> = facts
            .iter()
            .filter(|f| f.kind == "span")
            .map(|f| {
                f.field("event")
                    .and_then(asr_obs::FieldValue::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(events.first().map(String::as_str), Some("admitted"));
        assert_eq!(events.last().map(String::as_str), Some("finished"));
        assert_eq!(events.iter().filter(|e| *e == "finished").count(), 1);
        assert_eq!(
            events.iter().filter(|e| *e == "vad_speech_start").count(),
            2
        );
        // The first utterance ended naturally; the second was barged in on.
        assert_eq!(events.iter().filter(|e| *e == "vad_speech_end").count(), 1);
        assert_eq!(events.iter().filter(|e| *e == "barge_in").count(), 1);
        assert!(events.iter().any(|e| e == "partial_emitted"));
        // Timestamps are monotone in emission order.
        let spans: Vec<&asr_obs::Fact> = facts.iter().filter(|f| f.kind == "span").collect();
        assert!(spans.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
    }

    #[test]
    fn close_finishes_an_utterance_cut_by_end_of_stream() {
        let task = task_with_dim(13);
        let rec = recognizer(&task, DecoderConfig::software());
        let streamer = StreamingRecognizer::new(rec, audio_config()).unwrap();
        let mut session = streamer.audio_session().unwrap();
        // Tone right up to the end: the VAD never sees the hangover.
        session.push_audio(&tone(0.3)).unwrap();
        assert!(session.in_utterance());
        let outcome = session.close().unwrap();
        assert!(outcome.result.stats.num_frames() > 0);
        assert!(outcome.timing.chunks() > 0);
    }

    #[test]
    fn zero_voiced_session_closes_to_the_typed_empty_result() {
        let task = task_with_dim(13);
        let rec = recognizer(&task, DecoderConfig::software());
        let streamer = StreamingRecognizer::new(rec, audio_config()).unwrap();
        let mut session = streamer.audio_session().unwrap();
        // Half a second of silence: the VAD never triggers.
        for chunk in vec![0.0f32; 8000].chunks(640) {
            let events = session.push_audio(chunk).unwrap();
            assert!(events.is_empty(), "{events:?}");
        }
        assert!(!session.in_utterance());
        let outcome = session.close().unwrap();
        assert!(outcome.result.is_empty());
        assert_eq!(outcome.result.hypothesis.words.len(), 0);
        assert_eq!(outcome.timing.chunks(), 0);
    }

    #[test]
    fn forced_endpoint_splits_a_long_utterance_without_losing_frames() {
        let task = task_with_dim(13);
        let rec = recognizer(&task, DecoderConfig::software());
        let config = StreamConfig {
            max_utterance_frames: Some(20),
            capture_features: true,
            ..audio_config()
        };
        let streamer = StreamingRecognizer::new(rec, config).unwrap();
        let mut session = streamer.audio_session().unwrap();
        let mut audio = vec![0.0f32; 3200];
        audio.extend(tone(1.0)); // ~100 frames of speech: several forced cuts
        audio.extend(vec![0.0f32; 4800]);
        let mut events = Vec::new();
        for chunk in audio.chunks(640) {
            events.extend(session.push_audio(chunk).unwrap());
        }
        let forced: Vec<&StreamOutcome> = events
            .iter()
            .filter_map(|e| match e {
                StreamEvent::UtteranceForceEnded(o) => Some(o.as_ref()),
                _ => None,
            })
            .collect();
        let natural: Vec<&StreamOutcome> = events
            .iter()
            .filter_map(|e| match e {
                StreamEvent::UtteranceEnd(o) => Some(o.as_ref()),
                _ => None,
            })
            .collect();
        let started = events
            .iter()
            .filter(|e| matches!(e, StreamEvent::UtteranceStarted))
            .count();
        assert!(forced.len() >= 2, "{} forced cuts", forced.len());
        assert_eq!(natural.len(), 1, "the hangover still closes the last piece");
        // Every end (forced or natural) pairs with a start.
        assert_eq!(started, forced.len() + natural.len());
        assert_eq!(session.utterances_finished(), started);
        // Zero-loss ledger: every feature the frontend emitted is in exactly
        // one finished outcome.
        let total_frames: usize = forced
            .iter()
            .chain(natural.iter())
            .map(|o| o.result.stats.num_frames())
            .sum();
        assert_eq!(session.frames_discarded(), 0);
        assert_eq!(session.features_emitted(), total_frames);
        // Each piece hits the trigger (the tail flush may push it past it).
        for piece in &forced {
            assert!(piece.result.stats.num_frames() >= 20);
        }
        // And every piece replays to offline parity.
        for piece in forced.iter().chain(natural.iter()) {
            let captured = piece.features.as_ref().expect("capture_features on");
            assert_eq!(captured.len(), piece.result.stats.num_frames());
            let offline = streamer.recognizer().decode_features(captured).unwrap();
            assert_eq!(piece.result.hypothesis, offline.hypothesis);
        }
    }

    #[test]
    fn cancel_discards_the_utterance_and_rearms_the_session() {
        let task = task_with_dim(13);
        let rec = recognizer(&task, DecoderConfig::software());
        let streamer = StreamingRecognizer::new(rec, audio_config()).unwrap();
        let mut session = streamer.audio_session().unwrap();
        // Nothing open yet: cancel is a no-op.
        assert_eq!(session.cancel(), None);
        session.push_audio(&tone(0.3)).unwrap();
        assert!(session.in_utterance());
        let emitted_before = session.features_emitted();
        assert!(emitted_before > 0);
        let discarded = session.cancel().expect("an utterance was open");
        assert!(discarded > 0);
        assert!(!session.in_utterance());
        assert_eq!(session.utterances_cancelled(), 1);
        assert_eq!(session.utterances_finished(), 0);
        assert_eq!(session.frames_discarded(), discarded);
        // Ledger: everything emitted so far was discarded (the cancel also
        // flushed the frontend tail).
        assert_eq!(session.features_emitted(), session.frames_discarded());
        assert_eq!(session.preroll_buffered(), 0);

        // The session is re-armed: a fresh burst endpoints normally.
        let mut audio = vec![0.0f32; 3200];
        audio.extend(tone(0.3));
        audio.extend(vec![0.0f32; 4800]);
        let mut events = Vec::new();
        for chunk in audio.chunks(777) {
            events.extend(session.push_audio(chunk).unwrap());
        }
        let ended = events
            .iter()
            .filter(|e| matches!(e, StreamEvent::UtteranceEnd(_)))
            .count();
        assert_eq!(ended, 1, "{events:?}");
        assert_eq!(session.utterances_finished(), 1);
        assert_eq!(
            session.features_emitted(),
            session.frames_discarded()
                + events
                    .iter()
                    .filter_map(|e| match e {
                        StreamEvent::UtteranceEnd(o) => Some(o.result.stats.num_frames()),
                        _ => None,
                    })
                    .sum::<usize>()
        );
    }

    #[test]
    fn adaptive_session_reports_a_moving_threshold() {
        let task = task_with_dim(13);
        let rec = recognizer(&task, DecoderConfig::software());
        let config = StreamConfig {
            vad: VadConfig {
                adaptive: Some(crate::vad::AdaptiveVadConfig),
                ..audio_config().vad
            },
            ..audio_config()
        };
        let streamer = StreamingRecognizer::new(rec, config).unwrap();
        let mut session = streamer.audio_session().unwrap();
        let initial = session.vad_threshold();
        // A steady 0.004-RMS noise bed: the threshold settles onto it.
        let noise: Vec<f32> = (0..8000)
            .map(|n| if n % 2 == 0 { 0.004 } else { -0.004 })
            .collect();
        session.push_audio(&noise).unwrap();
        assert!(!session.in_utterance(), "noise bed must not trigger");
        assert!(session.vad_threshold() < initial);
    }

    #[test]
    fn audio_session_requires_matching_dimensions() {
        let task = task_with_dim(6); // model wants 6-dim, frontend makes 13
        let rec = recognizer(&task, DecoderConfig::software());
        let streamer = StreamingRecognizer::new(rec, audio_config()).unwrap();
        assert!(matches!(
            streamer.audio_session(),
            Err(StreamError::InvalidConfig(_))
        ));
        assert_eq!(streamer.config().vad.min_speech_hops, 2);
        assert_eq!(streamer.recognizer().model().feature_dim(), 6);
    }
}
