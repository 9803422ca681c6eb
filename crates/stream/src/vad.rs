//! Energy-based voice activity detection and endpointing.
//!
//! The continuous-audio session needs to know where utterances begin and end
//! so the decoder is only driven while someone is speaking — the same
//! power-saving instinct as the paper's feedback path, one stage earlier.
//! The detector is deliberately simple (per-hop RMS energy against a
//! threshold, with debounce and hangover), which is exactly what low-power
//! always-listening front ends deploy: the expensive recognizer only wakes
//! up behind it.
//!
//! The detector consumes one *hop* (one 10 ms frame shift) of audio at a
//! time and runs a two-state machine:
//!
//! ```text
//!             ≥ min_speech_hops consecutive voiced hops
//!   Silence ────────────────────────────────────────────► Speech
//!      ▲                                                    │
//!      └──────────────────────────────────────────────────┘
//!             ≥ hangover_hops consecutive silent hops
//! ```
//!
//! The voiced/silent decision compares the hop RMS against either a **fixed**
//! threshold ([`VadConfig::energy_threshold`], the default mode) or an
//! **adaptive** one ([`VadConfig::adaptive`]): a running percentile of recent
//! hop energies estimates the noise floor, and the threshold rides a
//! multiplicative margin above it.  Fixed thresholds break under exactly the
//! conditions a deployed endpointer meets — a rising noise floor *floods* the
//! detector (everything is "speech"), a falling one plus a quiet talker
//! *freezes* it (nothing ever is) — while the adaptive floor tracks both
//! directions.  Hops that classify as voiced while an utterance is open are
//! excluded from the floor estimate, so speech itself cannot lift the
//! threshold from under the very utterance it belongs to.  To keep that
//! exclusion from immortalising an utterance when the noise floor rises
//! *during* speech (the stale threshold would classify the new, louder
//! noise as voiced forever), adaptive mode also tracks the utterance's
//! running peak energy: a hop more than [`AdaptiveVadConfig::DROP_RATIO`]
//! below the peak counts as silent regardless of the floor — the classic
//! peak-relative endpoint rule — which both ends the utterance through the
//! normal hangover and resumes floor observation.  The hard bound on
//! utterance length remains the session's forced endpoint
//! (`StreamConfig::max_utterance_frames`).

use crate::StreamError;
use std::collections::VecDeque;

/// The adaptive noise-floor tracker behind [`EnergyVad`]: a marker that
/// switches it on, with its parameters fixed as the associated constants.
///
/// The floor is the [`PERCENTILE`](Self::PERCENTILE) of the last
/// [`WINDOW_HOPS`](Self::WINDOW_HOPS) observed hop RMS values (voiced hops
/// inside an open utterance are not observed), and the voiced threshold is
/// `floor * MARGIN`, clamped to `[MIN_THRESHOLD, MAX_THRESHOLD]`.  Until real
/// hops displace it, the window is pre-filled with the prior
/// `energy_threshold / MARGIN`, so an adaptive detector starts out behaving
/// exactly like the fixed one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdaptiveVadConfig;

impl AdaptiveVadConfig {
    /// Hops of history the floor percentile is computed over (1 s at the
    /// 10 ms hop).
    pub const WINDOW_HOPS: usize = 100;
    /// Percentile of the windowed energies taken as the noise floor.  A low
    /// percentile makes the floor a robust minimum statistic: brief energy
    /// bursts in the window cannot raise it.
    pub const PERCENTILE: f32 = 0.2;
    /// Multiplicative headroom between the floor and the voiced threshold.
    /// Noise may drift by up to this factor per window without ever
    /// classifying as speech.
    pub const MARGIN: f32 = 3.0;
    /// Lower clamp on the derived threshold, so digital silence cannot
    /// collapse it to zero and arm the detector on quantisation noise.
    pub const MIN_THRESHOLD: f32 = 0.004;
    /// Upper clamp on the derived threshold.
    pub const MAX_THRESHOLD: f32 = 0.5;
    /// Peak-relative endpoint level: while an utterance is open, a hop whose
    /// RMS falls below this fraction of the utterance's running peak is
    /// classified silent even if it clears the (possibly stale) floor
    /// threshold.  0.1 is a 20 dB drop — far below any speech, far above a
    /// noise floor that merely drifted during the utterance.
    pub const DROP_RATIO: f32 = 0.1;
}

/// Configuration of the energy VAD / endpointer.
#[derive(Debug, Clone, PartialEq)]
pub struct VadConfig {
    /// RMS amplitude above which a hop counts as voiced (input samples are
    /// expected roughly in `[-1, 1]`).  In adaptive mode this is the
    /// *bootstrap* threshold: the tracker starts from it and then follows
    /// the measured noise floor.
    pub energy_threshold: f32,
    /// Consecutive voiced hops required to open an utterance (debounce
    /// against clicks).
    pub min_speech_hops: usize,
    /// Consecutive silent hops required to close an utterance (hangover
    /// across short intra-utterance pauses).
    pub hangover_hops: usize,
    /// Hops of audio kept before the trigger and prepended to the utterance,
    /// so a soft word onset is not clipped.
    pub preroll_hops: usize,
    /// `Some` enables the adaptive noise-floor tracker; `None` (the default)
    /// keeps the fixed-threshold behaviour.
    pub adaptive: Option<AdaptiveVadConfig>,
}

impl Default for VadConfig {
    fn default() -> Self {
        VadConfig {
            energy_threshold: 0.01,
            min_speech_hops: 3,
            // 300 ms of hangover at the 10 ms default hop.
            hangover_hops: 30,
            preroll_hops: 5,
            adaptive: None,
        }
    }
}

impl VadConfig {
    /// The largest accepted hop count for `min_speech_hops`,
    /// `hangover_hops` and `preroll_hops`: one minute of 10 ms hops.  It
    /// keeps the endpointing sums from overflowing and bounds the pre-roll
    /// buffer an audio session allocates when it opens.
    pub const MAX_HOPS: usize = 6_000;

    /// The default configuration with the adaptive noise-floor tracker on.
    pub fn adaptive() -> Self {
        VadConfig {
            adaptive: Some(AdaptiveVadConfig),
            ..VadConfig::default()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::InvalidConfig`] for a non-positive or
    /// non-finite threshold, zero debounce/hangover counts, or a hop count
    /// above [`VadConfig::MAX_HOPS`].
    ///
    /// This check is per-field only: whether `min_speech_hops` +
    /// `hangover_hops` buffer enough audio for at least one analysis window
    /// (so an endpointed utterance can never finish empty) depends on the
    /// frontend geometry and is enforced by
    /// [`crate::StreamConfig::validate`].
    pub fn validate(&self) -> Result<(), StreamError> {
        if !self.energy_threshold.is_finite() || self.energy_threshold <= 0.0 {
            return Err(StreamError::InvalidConfig(
                "energy_threshold must be finite and positive".into(),
            ));
        }
        if self.min_speech_hops == 0 {
            return Err(StreamError::InvalidConfig(
                "min_speech_hops must be >= 1".into(),
            ));
        }
        if self.hangover_hops == 0 {
            return Err(StreamError::InvalidConfig(
                "hangover_hops must be >= 1".into(),
            ));
        }
        if self
            .min_speech_hops
            .max(self.hangover_hops)
            .max(self.preroll_hops)
            > Self::MAX_HOPS
        {
            return Err(StreamError::InvalidConfig(format!(
                "min_speech_hops, hangover_hops and preroll_hops must be <= {}",
                Self::MAX_HOPS
            )));
        }
        Ok(())
    }
}

/// A state transition reported by the detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VadEvent {
    /// An utterance opened at this hop (its voiced run reaches back
    /// `min_speech_hops − 1` hops).
    SpeechStart,
    /// The utterance closed at this hop (its last voiced hop was
    /// `hangover_hops` ago).
    SpeechEnd,
}

/// RMS amplitude of one hop of samples (0 for an empty hop).
pub fn hop_rms(samples: &[f32]) -> f32 {
    if samples.is_empty() {
        return 0.0;
    }
    let sum_sq: f32 = samples.iter().map(|s| s * s).sum();
    (sum_sq / samples.len() as f32).sqrt()
}

/// The adaptive voiced threshold above a noise floor.
fn adaptive_threshold(floor: f32) -> f32 {
    (floor * AdaptiveVadConfig::MARGIN).clamp(
        AdaptiveVadConfig::MIN_THRESHOLD,
        AdaptiveVadConfig::MAX_THRESHOLD,
    )
}

/// The energy endpointer state machine.
///
/// `PartialEq` compares the *entire* detector state (configuration, speech
/// state, debounce/hangover runs and the adaptive floor window), so
/// `detector == EnergyVad::new(config)` is the definition of "freshly
/// reset" — the property `reset()` guarantees.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyVad {
    config: VadConfig,
    in_speech: bool,
    voiced_run: usize,
    silent_run: usize,
    /// Recent observed hop energies, oldest first (adaptive mode only; empty
    /// in fixed mode).  Pre-filled with the bootstrap prior on
    /// construction/reset, so it always holds
    /// [`AdaptiveVadConfig::WINDOW_HOPS`] values.
    window: VecDeque<f32>,
    /// The same multiset as `window`, kept in `f32::total_cmp` order, so the
    /// floor percentile is an index lookup.
    sorted: Vec<f32>,
    /// The current noise-floor estimate (adaptive mode only).
    noise_floor: f32,
    /// The current voiced threshold (equals `energy_threshold` in fixed
    /// mode).
    threshold: f32,
    /// Running peak RMS of the current (or forming) utterance, for the
    /// adaptive peak-relative drop rule; 0 while listening to silence.
    speech_peak: f32,
}

impl EnergyVad {
    /// Creates a detector (validate the config first via
    /// [`VadConfig::validate`]; [`crate::StreamConfig::validate`] does).
    pub fn new(config: VadConfig) -> Self {
        let mut vad = EnergyVad {
            config,
            in_speech: false,
            voiced_run: 0,
            silent_run: 0,
            window: VecDeque::new(),
            sorted: Vec::new(),
            noise_floor: 0.0,
            threshold: 0.0,
            speech_peak: 0.0,
        };
        vad.reset();
        vad
    }

    /// The configuration.
    pub fn config(&self) -> &VadConfig {
        &self.config
    }

    /// Whether the detector currently believes speech is in progress.
    pub fn in_speech(&self) -> bool {
        self.in_speech
    }

    /// The RMS threshold the *next* hop will be classified against: the
    /// fixed `energy_threshold`, or `noise_floor() * MARGIN` (clamped) in
    /// adaptive mode.
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// The current noise-floor estimate, or `None` in fixed-threshold mode.
    pub fn noise_floor(&self) -> Option<f32> {
        self.config.adaptive.as_ref().map(|_| self.noise_floor)
    }

    /// Feeds one observed hop energy into the adaptive floor window and
    /// refreshes the cached floor/threshold.  Voiced hops inside an open
    /// utterance are excluded so speech cannot lift the floor; everything
    /// else — silence, noise, and the few debounce hops before a trigger —
    /// is tracked.
    fn observe(&mut self, rms: f32, voiced: bool) {
        if self.config.adaptive.is_none() || (voiced && self.in_speech) {
            return;
        }
        // Evict the oldest value and insert the new one by binary search.
        // `total_cmp` equality is bit equality, so the value found for
        // eviction has the evicted value's exact bits, and `sorted` stays
        // the window's multiset in the order a full sort would give.
        let rms = rms.max(0.0);
        if self.window.len() >= AdaptiveVadConfig::WINDOW_HOPS {
            if let Some(oldest) = self.window.pop_front() {
                let at = self
                    .sorted
                    .partition_point(|v| v.total_cmp(&oldest).is_lt());
                self.sorted.remove(at);
            }
        }
        self.window.push_back(rms);
        let at = self.sorted.partition_point(|v| v.total_cmp(&rms).is_lt());
        self.sorted.insert(at, rms);
        let last = self.sorted.len() - 1;
        let rank = (AdaptiveVadConfig::PERCENTILE * last as f32).round() as usize;
        self.noise_floor = self.sorted[rank.min(last)];
        self.threshold = adaptive_threshold(self.noise_floor);
    }

    /// Consumes one hop's RMS energy; returns the state transition it caused,
    /// if any.
    pub fn push_hop(&mut self, rms: f32) -> Option<VadEvent> {
        let mut voiced = rms >= self.threshold;
        // Peak-relative drop: a hop this far under the utterance's own level
        // is silence, whatever a stale floor says.
        if voiced
            && self.in_speech
            && self.config.adaptive.is_some()
            && rms < self.speech_peak * AdaptiveVadConfig::DROP_RATIO
        {
            voiced = false;
        }
        self.observe(rms, voiced);
        if voiced {
            self.speech_peak = self.speech_peak.max(rms);
        } else if !self.in_speech {
            // The debounce run broke: nothing to anchor a peak to.
            self.speech_peak = 0.0;
        }
        if self.in_speech {
            if voiced {
                self.silent_run = 0;
            } else {
                self.silent_run += 1;
                if self.silent_run >= self.config.hangover_hops {
                    self.in_speech = false;
                    self.voiced_run = 0;
                    self.silent_run = 0;
                    self.speech_peak = 0.0;
                    return Some(VadEvent::SpeechEnd);
                }
            }
        } else if voiced {
            self.voiced_run += 1;
            if self.voiced_run >= self.config.min_speech_hops {
                self.in_speech = true;
                self.silent_run = 0;
                return Some(VadEvent::SpeechStart);
            }
        } else {
            self.voiced_run = 0;
        }
        None
    }

    /// Returns the detector to its exact initial state (e.g. when a session
    /// force-closes or cancels an utterance): silence, empty runs, and the
    /// adaptive floor window re-primed with the bootstrap prior — total, by
    /// the `PartialEq` definition (`*self == EnergyVad::new(config)`).
    pub fn reset(&mut self) {
        self.in_speech = false;
        self.voiced_run = 0;
        self.silent_run = 0;
        self.speech_peak = 0.0;
        self.window.clear();
        self.sorted.clear();
        if self.config.adaptive.is_some() {
            let prior = self.config.energy_threshold / AdaptiveVadConfig::MARGIN;
            self.window.resize(AdaptiveVadConfig::WINDOW_HOPS, prior);
            self.sorted.resize(AdaptiveVadConfig::WINDOW_HOPS, prior);
            self.noise_floor = prior;
            self.threshold = adaptive_threshold(prior);
        } else {
            self.noise_floor = 0.0;
            self.threshold = self.config.energy_threshold;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn vad() -> EnergyVad {
        EnergyVad::new(VadConfig {
            energy_threshold: 0.1,
            min_speech_hops: 3,
            hangover_hops: 4,
            preroll_hops: 2,
            adaptive: None,
        })
    }

    fn adaptive_vad() -> EnergyVad {
        EnergyVad::new(VadConfig {
            energy_threshold: 0.03,
            min_speech_hops: 2,
            hangover_hops: 4,
            preroll_hops: 2,
            adaptive: Some(AdaptiveVadConfig),
        })
    }

    #[test]
    fn triggers_after_min_speech_and_ends_after_hangover() {
        let mut v = vad();
        assert!(!v.in_speech());
        // Two voiced hops: still debouncing.
        assert_eq!(v.push_hop(0.5), None);
        assert_eq!(v.push_hop(0.5), None);
        assert!(!v.in_speech());
        // Third: speech starts.
        assert_eq!(v.push_hop(0.5), Some(VadEvent::SpeechStart));
        assert!(v.in_speech());
        // Three silent hops: hangover not yet exhausted.
        for _ in 0..3 {
            assert_eq!(v.push_hop(0.0), None);
        }
        assert!(v.in_speech());
        // Fourth: utterance ends.
        assert_eq!(v.push_hop(0.0), Some(VadEvent::SpeechEnd));
        assert!(!v.in_speech());
    }

    #[test]
    fn clicks_shorter_than_debounce_do_not_trigger() {
        let mut v = vad();
        for _ in 0..10 {
            assert_eq!(v.push_hop(0.5), None); // one voiced hop…
            assert_eq!(v.push_hop(0.0), None); // …then silence resets the run
        }
        assert!(!v.in_speech());
    }

    #[test]
    fn short_pauses_inside_speech_are_bridged() {
        let mut v = vad();
        for _ in 0..3 {
            v.push_hop(0.5);
        }
        assert!(v.in_speech());
        // A 3-hop pause (< hangover of 4), then speech resumes: no end event.
        for _ in 0..3 {
            assert_eq!(v.push_hop(0.0), None);
        }
        assert_eq!(v.push_hop(0.5), None);
        assert!(v.in_speech());
        // The hangover counter restarted: four fresh silent hops to close.
        for _ in 0..3 {
            assert_eq!(v.push_hop(0.0), None);
        }
        assert_eq!(v.push_hop(0.0), Some(VadEvent::SpeechEnd));
    }

    #[test]
    fn reset_returns_to_silence() {
        let mut v = vad();
        for _ in 0..3 {
            v.push_hop(0.9);
        }
        assert!(v.in_speech());
        v.reset();
        assert!(!v.in_speech());
        assert_eq!(v.config().min_speech_hops, 3);
    }

    #[test]
    fn reset_is_total_in_both_modes() {
        for mut v in [vad(), adaptive_vad()] {
            let fresh = EnergyVad::new(v.config().clone());
            assert_eq!(v, fresh, "a new detector is its own reset state");
            for rms in [0.0, 0.7, 0.7, 0.7, 0.01, 0.0, 0.2, 0.0, 0.0] {
                v.push_hop(rms);
            }
            assert_ne!(v, fresh, "pushing hops must move the state");
            v.reset();
            assert_eq!(v, fresh, "reset must restore the exact initial state");
        }
    }

    #[test]
    fn rms_is_zero_for_empty_and_scales_with_amplitude() {
        assert_eq!(hop_rms(&[]), 0.0);
        assert!((hop_rms(&[0.5; 160]) - 0.5).abs() < 1e-6);
        assert!(hop_rms(&[0.2; 160]) < hop_rms(&[0.8; 160]));
    }

    #[test]
    fn adaptive_starts_at_the_bootstrap_threshold() {
        let v = adaptive_vad();
        assert!((v.threshold() - 0.03).abs() < 1e-6);
        assert!((v.noise_floor().unwrap() - 0.01).abs() < 1e-6);
        // Fixed mode reports no floor.
        assert_eq!(vad().noise_floor(), None);
        assert!((vad().threshold() - 0.1).abs() < 1e-6);
    }

    #[test]
    fn adaptive_floor_tracks_a_rising_ramp_without_flooding() {
        let mut v = adaptive_vad();
        // Noise rises 0.002 → 0.02 over 300 hops (three floor windows):
        // always inside the margin, so the detector must never open an
        // utterance.
        for i in 0..300 {
            let rms = 0.002 + 0.018 * i as f32 / 300.0;
            assert_eq!(v.push_hop(rms), None, "hop {i}: noise must not trigger");
        }
        assert!(!v.in_speech());
        // The threshold followed the ramp up…
        assert!(v.threshold() > 0.04, "threshold {}", v.threshold());
        // …and genuine speech above it still triggers.
        assert_eq!(v.push_hop(0.4), None);
        assert_eq!(v.push_hop(0.4), Some(VadEvent::SpeechStart));
    }

    #[test]
    fn adaptive_floor_falls_so_quiet_speech_is_found_again() {
        let mut v = adaptive_vad();
        // A long stretch of near-silence drags the floor to the clamp.
        for _ in 0..100 {
            v.push_hop(0.0005);
        }
        assert!((v.threshold() - 0.004).abs() < 1e-6, "clamped at min");
        // Far-field speech at 0.01 RMS — under the 0.03 bootstrap threshold,
        // but over the adapted one.
        assert_eq!(v.push_hop(0.01), None);
        assert_eq!(v.push_hop(0.01), Some(VadEvent::SpeechStart));
    }

    #[test]
    fn speech_does_not_lift_the_adaptive_floor() {
        let mut v = adaptive_vad();
        for _ in 0..30 {
            v.push_hop(0.001);
        }
        let before = v.threshold();
        v.push_hop(0.5);
        v.push_hop(0.5);
        assert!(v.in_speech());
        // A long loud utterance: voiced hops are excluded from the window.
        for _ in 0..100 {
            assert_eq!(v.push_hop(0.5), None);
        }
        assert!(v.in_speech(), "speech must not end itself via the floor");
        assert!((v.threshold() - before).abs() < 1e-6);
        // Hangover silence still closes it (and is observed again).
        for _ in 0..3 {
            assert_eq!(v.push_hop(0.0), None);
        }
        assert_eq!(v.push_hop(0.0), Some(VadEvent::SpeechEnd));
    }

    #[test]
    fn a_noise_step_during_speech_ends_via_the_peak_relative_drop() {
        let mut v = adaptive_vad();
        for _ in 0..30 {
            v.push_hop(0.001);
        }
        v.push_hop(0.5);
        assert_eq!(v.push_hop(0.5), Some(VadEvent::SpeechStart));
        for _ in 0..10 {
            assert_eq!(v.push_hop(0.5), None);
        }
        // The noise floor steps to 0.02 mid-utterance: above the stale
        // 0.004 threshold (so floor-only classification would keep the
        // utterance open forever) but 28 dB under the utterance's peak —
        // the drop rule classifies it silent and the hangover closes.
        for _ in 0..3 {
            assert_eq!(v.push_hop(0.02), None);
        }
        assert_eq!(v.push_hop(0.02), Some(VadEvent::SpeechEnd));
        // The hops were observed, so the floor is free to absorb the step.
        assert!(!v.in_speech());
    }

    #[test]
    fn adaptive_threshold_respects_the_max_clamp() {
        let mut v = adaptive_vad();
        for _ in 0..100 {
            v.push_hop(0.9);
        }
        assert!(v.threshold() <= 0.5 + 1e-6);
    }

    #[test]
    fn config_validation() {
        VadConfig::default().validate().unwrap();
        VadConfig::adaptive().validate().unwrap();
        for bad in [
            VadConfig {
                energy_threshold: 0.0,
                ..VadConfig::default()
            },
            VadConfig {
                energy_threshold: f32::NAN,
                ..VadConfig::default()
            },
            VadConfig {
                min_speech_hops: 0,
                ..VadConfig::default()
            },
            VadConfig {
                hangover_hops: 0,
                ..VadConfig::default()
            },
            VadConfig {
                min_speech_hops: usize::MAX,
                ..VadConfig::default()
            },
            VadConfig {
                hangover_hops: usize::MAX,
                ..VadConfig::default()
            },
            VadConfig {
                preroll_hops: VadConfig::MAX_HOPS + 1,
                ..VadConfig::default()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
        // Zero preroll is allowed: it only trades onset clipping for memory.
        VadConfig {
            preroll_hops: 0,
            ..VadConfig::default()
        }
        .validate()
        .unwrap();
        VadConfig {
            min_speech_hops: VadConfig::MAX_HOPS,
            hangover_hops: VadConfig::MAX_HOPS,
            preroll_hops: VadConfig::MAX_HOPS,
            ..VadConfig::default()
        }
        .validate()
        .unwrap();
    }

    type A = AdaptiveVadConfig;

    /// The adaptive detector as first written: the floor is a full
    /// copy-and-sort of the window on every observed hop.  Kept as the
    /// oracle the sorted ring must match bit for bit.
    struct ReferenceVad {
        config: VadConfig,
        in_speech: bool,
        voiced_run: usize,
        silent_run: usize,
        window: VecDeque<f32>,
        noise_floor: f32,
        threshold: f32,
        speech_peak: f32,
    }

    impl ReferenceVad {
        fn new(config: VadConfig) -> Self {
            let prior = config.energy_threshold / A::MARGIN;
            ReferenceVad {
                window: std::iter::repeat(prior).take(A::WINDOW_HOPS).collect(),
                noise_floor: prior,
                threshold: (prior * A::MARGIN).clamp(A::MIN_THRESHOLD, A::MAX_THRESHOLD),
                config,
                in_speech: false,
                voiced_run: 0,
                silent_run: 0,
                speech_peak: 0.0,
            }
        }

        fn push_hop(&mut self, rms: f32) {
            let mut voiced = rms >= self.threshold;
            if voiced && self.in_speech && rms < self.speech_peak * A::DROP_RATIO {
                voiced = false;
            }
            if !(voiced && self.in_speech) {
                self.window.push_back(rms.max(0.0));
                while self.window.len() > A::WINDOW_HOPS {
                    self.window.pop_front();
                }
                let mut sorted: Vec<f32> = self.window.iter().copied().collect();
                sorted.sort_by(f32::total_cmp);
                let rank = (A::PERCENTILE * (sorted.len() - 1) as f32).round() as usize;
                self.noise_floor = sorted[rank.min(sorted.len() - 1)];
                self.threshold =
                    (self.noise_floor * A::MARGIN).clamp(A::MIN_THRESHOLD, A::MAX_THRESHOLD);
            }
            if voiced {
                self.speech_peak = self.speech_peak.max(rms);
            } else if !self.in_speech {
                self.speech_peak = 0.0;
            }
            if self.in_speech {
                if voiced {
                    self.silent_run = 0;
                } else {
                    self.silent_run += 1;
                    if self.silent_run >= self.config.hangover_hops {
                        self.in_speech = false;
                        self.voiced_run = 0;
                        self.silent_run = 0;
                        self.speech_peak = 0.0;
                    }
                }
            } else if voiced {
                self.voiced_run += 1;
                if self.voiced_run >= self.config.min_speech_hops {
                    self.in_speech = true;
                    self.silent_run = 0;
                }
            } else {
                self.voiced_run = 0;
            }
        }
    }

    proptest! {
        /// The sorted-ring floor equals a copy-and-sort of the window after
        /// every hop, bit for bit, on hop sequences with zeros, repeats,
        /// `+Inf` and NaN (observed as 0).
        #[test]
        fn prop_sorted_ring_floor_matches_copy_and_sort(
            min_speech_hops in 1usize..4,
            hangover_hops in 1usize..12,
            codes in proptest::collection::vec(0u32..12, 1..600),
            levels in proptest::collection::vec(0.0f32..0.6, 8),
        ) {
            let config = VadConfig {
                energy_threshold: 0.03,
                min_speech_hops,
                hangover_hops,
                preroll_hops: 2,
                adaptive: Some(AdaptiveVadConfig),
            };
            let mut vad = EnergyVad::new(config.clone());
            let mut reference = ReferenceVad::new(config);
            let mut previous = 0.0f32;
            for (i, &code) in codes.iter().enumerate() {
                let rms = match code {
                    0 => 0.0,
                    1 => f32::INFINITY,
                    2 => f32::NAN,
                    3 => previous,
                    c => levels[c as usize % levels.len()],
                };
                previous = rms;
                vad.push_hop(rms);
                reference.push_hop(rms);
                prop_assert_eq!(vad.in_speech(), reference.in_speech, "hop {}", i);
                prop_assert_eq!(
                    vad.noise_floor().map(f32::to_bits),
                    Some(reference.noise_floor.to_bits()),
                    "floor after hop {}", i
                );
                prop_assert_eq!(
                    vad.threshold().to_bits(),
                    reference.threshold.to_bits(),
                    "threshold after hop {}", i
                );
            }
        }
    }
}
