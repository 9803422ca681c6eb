//! The phone-decode stage: senone scoring and HMM stepping through the
//! object-safe [`SenoneScorer`] seam, plus the backend-independent fast-GMM
//! frame layer (Conditional Down Sampling) and the senone-score arena.

use crate::config::GmmSelectionConfig;
pub use crate::scorer::HmmStepResult;
use crate::scorer::{SenoneScoreArena, SenoneScorer};
use crate::DecodeError;
use asr_acoustic::{AcousticModel, SenoneId, TransitionMatrix};
use asr_float::LogProb;
use asr_hw::UtteranceReport;

/// Log-score handicap applied to senones that were never cached when a frame
/// is skipped by Conditional Down Sampling: poor but finite, so new words can
/// still start at reduced fidelity.
const CDS_FLOOR_OFFSET: f32 = -20.0;

/// The phone-decode stage.
///
/// Owns a boxed [`SenoneScorer`] (the accelerator seam), the
/// [`SenoneScoreArena`] holding the current frame's scores, and the
/// Conditional Down Sampling state.  CDS lives here rather than in the
/// scorers because the frame layer is backend-independent: a skipped frame
/// never reaches the backend at all — which is exactly the power saving.
#[derive(Debug)]
pub struct PhoneDecoder {
    scorer: Box<dyn SenoneScorer>,
    selection: GmmSelectionConfig,
    /// Scores of the current frame (or, on CDS skip frames, the last fully
    /// scored frame).
    arena: SenoneScoreArena,
    /// Feature vector of the last fully scored frame (the CDS condition
    /// compares against this, not against the previous frame, so drift over a
    /// run of skipped frames is bounded).
    last_scored_feature: Vec<f32>,
    /// Frames skipped since the last full scoring pass.
    skips_since_scored: usize,
    /// Reusable per-frame result buffer passed to
    /// [`SenoneScorer::score_senones_into`], so scoring a frame costs no
    /// result allocation once the buffer has grown to the active-set size.
    scored_scratch: Vec<(SenoneId, LogProb)>,
}

impl PhoneDecoder {
    /// Creates the stage around any scoring backend.
    pub fn new(scorer: Box<dyn SenoneScorer>, selection: GmmSelectionConfig) -> Self {
        PhoneDecoder {
            scorer,
            selection,
            arena: SenoneScoreArena::new(),
            last_scored_feature: Vec::new(),
            skips_since_scored: 0,
            scored_scratch: Vec::new(),
        }
    }

    /// The scoring backend.
    pub fn scorer(&self) -> &dyn SenoneScorer {
        self.scorer.as_ref()
    }

    /// The senone-score arena (current frame's scores).
    pub fn arena(&self) -> &SenoneScoreArena {
        &self.arena
    }

    /// Clears all per-utterance state — CDS cache, arena, and the backend's
    /// own counters — so the decoder can start the next utterance of a batch
    /// from a clean slate while keeping warmed model-level caches.
    pub fn begin_utterance(&mut self) {
        self.skips_since_scored = 0;
        self.last_scored_feature.clear();
        self.arena.clear();
        self.scorer.reset();
    }

    /// Starts a frame: loads the feature vector into the backend.
    pub fn begin_frame(&mut self, feature: &[f32]) {
        self.scorer.begin_frame(feature);
    }

    /// Scores the requested senones for the current frame into the arena,
    /// honouring the fast-GMM frame layer.  Returns whether the evaluation
    /// was skipped by Conditional Down Sampling; individual scores are read
    /// back with [`PhoneDecoder::score_of`].
    ///
    /// # Errors
    ///
    /// Propagates backend errors (e.g. [`DecodeError::Hardware`]).
    pub fn score_frame(
        &mut self,
        model: &AcousticModel,
        active: &[SenoneId],
        feature: &[f32],
    ) -> Result<bool, DecodeError> {
        let cds_skip = self.selection.cds_period > 1
            && self.arena.has_scores()
            && self.skips_since_scored + 1 < self.selection.cds_period
            && mean_squared_distance(feature, &self.last_scored_feature)
                <= self.selection.cds_threshold;
        if cds_skip {
            // Reuse the previous frame's scores; senones that were not cached
            // get a neutral (poor but finite) floor so new words can still
            // start, at reduced fidelity — this is the accuracy/power
            // trade-off CDS makes.
            let floor = self.arena.best() + LogProb::new(CDS_FLOOR_OFFSET);
            self.arena.reuse_with_floor(floor);
            self.skips_since_scored += 1;
            return Ok(true);
        }

        self.scored_scratch.clear();
        self.scorer
            .score_senones_into(model, active, feature, &mut self.scored_scratch)?;
        self.arena.begin_scored_frame(model.senones().len());
        for &(id, score) in &self.scored_scratch {
            self.arena.set(id, score);
        }
        // CDS bookkeeping costs a per-frame feature copy; skip it entirely
        // when down-sampling is off.
        if self.selection.cds_period > 1 {
            self.last_scored_feature.clear();
            self.last_scored_feature.extend_from_slice(feature);
        }
        self.skips_since_scored = 0;
        Ok(false)
    }

    /// The score of one senone for the current frame (the arena's floor for
    /// senones that were not scored).
    pub fn score_of(&self, id: SenoneId) -> LogProb {
        self.arena.get(id)
    }

    /// Advances one HMM by one frame on the backend.
    ///
    /// # Errors
    ///
    /// Propagates backend errors as [`DecodeError::Hardware`] or shape errors
    /// as [`DecodeError::DimensionMismatch`].
    pub fn step_hmm(
        &mut self,
        prev_scores: &[LogProb],
        entry_score: LogProb,
        transitions: &TransitionMatrix,
        senone_scores: &[LogProb],
    ) -> Result<HmmStepResult, DecodeError> {
        self.scorer
            .step_hmm(prev_scores, entry_score, transitions, senone_scores)
    }

    /// Records a dictionary / LM fetch over the DMA (hardware backends).
    pub fn dma_fetch(&mut self, bytes: u64) {
        self.scorer.dma_fetch(bytes);
    }

    /// Ends the frame on the backend (charges the host-CPU software stages
    /// and closes the bandwidth window on hardware backends).
    pub fn end_frame(&mut self, active_triphones: usize, lattice_edges: usize) {
        self.scorer.end_frame(active_triphones, lattice_edges);
    }

    /// Finishes the utterance, returning the backend's report if it keeps
    /// one, and clears per-utterance state so the decoder is ready for the
    /// next utterance of a batch.
    pub fn finish_utterance(&mut self) -> Option<UtteranceReport> {
        self.skips_since_scored = 0;
        self.last_scored_feature.clear();
        self.arena.clear();
        self.scorer.finish_utterance()
    }
}

/// Mean squared per-dimension distance between two feature vectors; the CDS
/// stability condition. Mismatched lengths count as infinitely far apart (the
/// frame is rescored).
fn mean_squared_distance(a: &[f32], b: &[f32]) -> f32 {
    if a.len() != b.len() || a.is_empty() {
        return f32::INFINITY;
    }
    let sum: f32 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    sum / a.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScoringBackendKind;
    use crate::scorer::software_step_hmm;
    use asr_acoustic::AcousticModelConfig;
    use asr_hw::SocConfig;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn model() -> AcousticModel {
        AcousticModel::untrained(AcousticModelConfig::tiny()).unwrap()
    }

    fn decoder(kind: &ScoringBackendKind, selection: GmmSelectionConfig) -> PhoneDecoder {
        PhoneDecoder::new(kind.build_scorer(&selection).unwrap(), selection)
    }

    fn hardware_decoder(selection: GmmSelectionConfig) -> PhoneDecoder {
        decoder(
            &ScoringBackendKind::Hardware(SocConfig::default()),
            selection,
        )
    }

    fn software_decoder(selection: GmmSelectionConfig) -> PhoneDecoder {
        decoder(&ScoringBackendKind::Software, selection)
    }

    /// A mock backend that counts how often the decode loop actually asks it
    /// to score — the trait-object seam observed from the outside.
    #[derive(Debug)]
    struct CountingScorer {
        score_calls: Arc<AtomicUsize>,
    }

    impl SenoneScorer for CountingScorer {
        fn name(&self) -> &'static str {
            "counting-mock"
        }
        fn begin_frame(&mut self, _feature: &[f32]) {}
        fn score_senones_into(
            &mut self,
            _model: &AcousticModel,
            active: &[SenoneId],
            _feature: &[f32],
            out: &mut Vec<(SenoneId, LogProb)>,
        ) -> Result<(), DecodeError> {
            self.score_calls.fetch_add(1, Ordering::SeqCst);
            out.extend(active.iter().map(|&id| (id, LogProb::new(-2.0))));
            Ok(())
        }
        fn step_hmm(
            &mut self,
            prev_scores: &[LogProb],
            entry_score: LogProb,
            transitions: &TransitionMatrix,
            senone_scores: &[LogProb],
        ) -> Result<HmmStepResult, DecodeError> {
            software_step_hmm(prev_scores, entry_score, transitions, senone_scores)
        }
        fn finish_utterance(&mut self) -> Option<UtteranceReport> {
            None
        }
        fn reset(&mut self) {}
    }

    #[test]
    fn mock_scorer_sees_only_unskipped_frames_under_cds() {
        let m = model();
        let calls = Arc::new(AtomicUsize::new(0));
        let mut dec = PhoneDecoder::new(
            Box::new(CountingScorer {
                score_calls: Arc::clone(&calls),
            }),
            GmmSelectionConfig::with_cds(2),
        );
        let x = vec![0.25f32; m.feature_dim()];
        let ids: Vec<SenoneId> = (0..4).map(SenoneId).collect();
        // Six identical frames at cds_period = 2: frames 1, 3 and 5 are
        // skipped, so the backend is asked to score exactly three times.
        let mut skips = Vec::new();
        for _ in 0..6 {
            dec.begin_frame(&x);
            skips.push(dec.score_frame(&m, &ids, &x).unwrap());
        }
        assert_eq!(skips, [false, true, false, true, false, true]);
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        // A new utterance starts from a fully scored frame again.
        assert!(dec.finish_utterance().is_none());
        dec.begin_frame(&x);
        assert!(!dec.score_frame(&m, &ids, &x).unwrap());
        assert_eq!(calls.load(Ordering::SeqCst), 4);
        assert_eq!(dec.scorer().name(), "counting-mock");
    }

    #[test]
    fn hardware_and_software_scores_agree() {
        let m = model();
        let x: Vec<f32> = (0..m.feature_dim()).map(|d| 0.1 * d as f32).collect();
        let ids: Vec<SenoneId> = (0..m.senones().len() as u32).map(SenoneId).collect();

        let mut hw = hardware_decoder(GmmSelectionConfig::default());
        hw.begin_frame(&x);
        let skipped_hw = hw.score_frame(&m, &ids, &x).unwrap();

        let mut sw = software_decoder(GmmSelectionConfig::default());
        sw.begin_frame(&x);
        let skipped_sw = sw.score_frame(&m, &ids, &x).unwrap();

        assert!(!skipped_hw && !skipped_sw);
        for id in &ids {
            let a = hw.score_of(*id).raw();
            let b = sw.score_of(*id).raw();
            assert!((a - b).abs() < 0.1, "{id:?}: hw {a} sw {b}");
        }
    }

    #[test]
    fn cds_skips_and_reuses_scores() {
        let m = model();
        let x = vec![0.2f32; m.feature_dim()];
        let ids: Vec<SenoneId> = (0..5).map(SenoneId).collect();
        let mut dec = hardware_decoder(GmmSelectionConfig::with_cds(2));
        dec.begin_frame(&x);
        let skip0 = dec.score_frame(&m, &ids, &x).unwrap();
        let first: Vec<LogProb> = ids.iter().map(|&id| dec.score_of(id)).collect();
        dec.begin_frame(&x);
        let skip1 = dec.score_frame(&m, &ids, &x).unwrap();
        let second: Vec<LogProb> = ids.iter().map(|&id| dec.score_of(id)).collect();
        dec.begin_frame(&x);
        let skip2 = dec.score_frame(&m, &ids, &x).unwrap();
        assert!(!skip0);
        assert!(skip1);
        assert!(!skip2);
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.raw(), b.raw(), "CDS must reuse scores");
        }
        // A senone never scored before gets the floor score on a skipped frame.
        dec.begin_frame(&x);
        let skip3 = dec.score_frame(&m, &[SenoneId(20)], &x).unwrap();
        assert!(skip3);
        assert!(dec.score_of(SenoneId(20)).raw() < first[0].raw());
    }

    #[test]
    fn cds_rescores_when_the_acoustics_move() {
        let m = model();
        let x = vec![0.2f32; m.feature_dim()];
        // A feature jump far beyond cds_threshold (mean squared distance per
        // dimension of 3.0² = 9.0 against the default threshold of 1.0).
        let y = vec![3.2f32; m.feature_dim()];
        let ids: Vec<SenoneId> = (0..5).map(SenoneId).collect();
        let mut dec = hardware_decoder(GmmSelectionConfig::with_cds(2));
        dec.begin_frame(&x);
        assert!(!dec.score_frame(&m, &ids, &x).unwrap());
        // Skip-eligible frame, but the condition fails → full rescore.
        dec.begin_frame(&y);
        assert!(!dec.score_frame(&m, &ids, &y).unwrap());
        // Back to stable acoustics → the skip resumes.
        dec.begin_frame(&y);
        assert!(dec.score_frame(&m, &ids, &y).unwrap());
    }

    #[test]
    fn begin_utterance_resets_the_cds_cache() {
        let m = model();
        let x = vec![0.4f32; m.feature_dim()];
        let ids: Vec<SenoneId> = (0..5).map(SenoneId).collect();
        let mut dec = software_decoder(GmmSelectionConfig::with_cds(2));
        dec.begin_frame(&x);
        assert!(!dec.score_frame(&m, &ids, &x).unwrap());
        // Without the reset this frame would be CDS-skipped against the
        // previous utterance's cache — exactly the stale-state bug the batch
        // API must not have.
        dec.begin_utterance();
        dec.begin_frame(&x);
        assert!(!dec.score_frame(&m, &ids, &x).unwrap());
    }

    #[test]
    fn hmm_step_backends_agree() {
        let m = model();
        let t = m.transitions();
        let n = t.num_states();
        let prev = vec![LogProb::new(-4.0), LogProb::new(-6.0), LogProb::new(-9.0)];
        let obs = vec![LogProb::new(-1.0), LogProb::new(-2.0), LogProb::new(-1.5)];
        let mut hw = hardware_decoder(GmmSelectionConfig::default());
        let mut sw = software_decoder(GmmSelectionConfig::default());
        let a = hw.step_hmm(&prev, LogProb::new(-3.0), t, &obs).unwrap();
        let b = sw.step_hmm(&prev, LogProb::new(-3.0), t, &obs).unwrap();
        assert_eq!(a.scores.len(), n);
        for (x, y) in a.scores.iter().zip(b.scores.iter()) {
            assert!((x.raw() - y.raw()).abs() < 1e-3);
        }
        assert!((a.exit_score.raw() - b.exit_score.raw()).abs() < 1e-3);
        // Software backend validates shapes.
        assert!(sw.step_hmm(&prev[..2], LogProb::zero(), t, &obs).is_err());
    }

    #[test]
    fn utterance_lifecycle() {
        let m = model();
        let x = vec![0.0f32; m.feature_dim()];
        let mut dec = hardware_decoder(GmmSelectionConfig::default());
        dec.begin_frame(&x);
        dec.score_frame(&m, &[SenoneId(0), SenoneId(1)], &x)
            .unwrap();
        dec.dma_fetch(128);
        dec.end_frame(2, 1);
        let report = dec.finish_utterance().unwrap();
        assert_eq!(report.frames, 1);
        assert_eq!(report.senones_scored, 2);
        // The same decoder serves a second utterance from clean counters.
        dec.begin_frame(&x);
        dec.score_frame(&m, &[SenoneId(0)], &x).unwrap();
        dec.end_frame(1, 0);
        let second = dec.finish_utterance().unwrap();
        assert_eq!(second.frames, 1);
        assert_eq!(second.senones_scored, 1);
        // Software backend has no hardware report.
        let mut sw = software_decoder(GmmSelectionConfig::default());
        sw.begin_frame(&x);
        sw.dma_fetch(128);
        sw.end_frame(0, 0);
        assert!(sw.finish_utterance().is_none());
    }
}
