//! The object-safe senone-scoring seam.
//!
//! The paper's core observation is that senone scoring dominates LVCSR
//! compute and belongs behind a swappable accelerator interface.  This module
//! is that interface: [`SenoneScorer`] is an object-safe trait for anything
//! that can score a frame's active senones and advance HMMs — the
//! cycle-accurate SoC model ([`SocScorer`]), the scalar software reference
//! ([`SoftwareScorer`]), a batching-aware SIMD-style software path
//! ([`SimdScorer`]), or a user-supplied backend (sharded multi-SoC, remote
//! accelerator, …) plugged in as a `Box<dyn SenoneScorer>` without touching
//! `asr-core`.
//!
//! [`SenoneScoreArena`] is the companion hot-path structure: a
//! generation-stamped dense score table that replaces the per-frame
//! `HashMap<SenoneId, LogProb>` the decoder used to allocate and clone every
//! frame.

use crate::DecodeError;
use asr_acoustic::{AcousticError, AcousticModel, HmmTopology, SenoneId, TransitionMatrix};
use asr_float::LogProb;
use asr_hw::{SocConfig, SpeechSoc, UtteranceReport};

/// Result of advancing one HMM by one frame, independent of backend.
#[derive(Debug, Clone, PartialEq)]
pub struct HmmStepResult {
    /// New per-state path scores.
    pub scores: HmmStateScores,
    /// Best score of leaving the HMM this frame.
    pub exit_score: LogProb,
}

/// Per-state path scores of one HMM, held inline: an HMM has at most
/// [`HmmTopology::MAX_STATES`] states, so stepping one needs no heap.  Reads
/// as a `[LogProb]` slice.
#[derive(Clone, Copy)]
pub struct HmmStateScores {
    len: usize,
    scores: [LogProb; HmmTopology::MAX_STATES],
}

impl HmmStateScores {
    /// Copies `scores`.
    ///
    /// # Panics
    ///
    /// Panics if `scores` has more than [`HmmTopology::MAX_STATES`] entries.
    pub fn from_slice(scores: &[LogProb]) -> Self {
        assert!(
            scores.len() <= HmmTopology::MAX_STATES,
            "{} states exceed the {} an HMM can have",
            scores.len(),
            HmmTopology::MAX_STATES
        );
        let mut inline = [LogProb::zero(); HmmTopology::MAX_STATES];
        inline[..scores.len()].copy_from_slice(scores);
        HmmStateScores {
            len: scores.len(),
            scores: inline,
        }
    }
}

impl std::ops::Deref for HmmStateScores {
    type Target = [LogProb];

    fn deref(&self) -> &[LogProb] {
        &self.scores[..self.len]
    }
}

impl PartialEq for HmmStateScores {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for HmmStateScores {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// An object-safe senone-scoring / HMM-stepping backend.
///
/// One scorer serves one utterance at a time but may be reused across a whole
/// batch (see [`Recognizer::decode_batch`]): [`SenoneScorer::finish_utterance`]
/// closes an utterance and clears per-utterance accounting, while model-level
/// caches (e.g. [`SimdScorer`]'s flattened parameter arena) survive so their
/// cost amortises across the stream.
///
/// [`Recognizer::decode_batch`]: crate::Recognizer::decode_batch
///
/// # Plugging in a custom backend
///
/// ```
/// use asr_acoustic::{AcousticModel, AcousticModelConfig, SenoneId, TransitionMatrix};
/// use asr_core::{
///     software_step_hmm, DecodeError, GmmSelectionConfig, HmmStepResult, PhoneDecoder,
///     SenoneScorer,
/// };
/// use asr_float::LogProb;
///
/// /// A toy backend: every senone scores a fixed constant.
/// #[derive(Debug)]
/// struct FlatScorer;
///
/// impl SenoneScorer for FlatScorer {
///     fn name(&self) -> &'static str {
///         "flat"
///     }
///     fn begin_frame(&mut self, _feature: &[f32]) {}
///     fn score_senones_into(
///         &mut self,
///         _model: &AcousticModel,
///         active: &[SenoneId],
///         _feature: &[f32],
///         out: &mut Vec<(SenoneId, LogProb)>,
///     ) -> Result<(), DecodeError> {
///         out.extend(active.iter().map(|&id| (id, LogProb::new(-1.0))));
///         Ok(())
///     }
///     fn step_hmm(
///         &mut self,
///         prev_scores: &[LogProb],
///         entry_score: LogProb,
///         transitions: &TransitionMatrix,
///         senone_scores: &[LogProb],
///     ) -> Result<HmmStepResult, DecodeError> {
///         // Custom backends can delegate the Viterbi recursion.
///         software_step_hmm(prev_scores, entry_score, transitions, senone_scores)
///     }
///     fn finish_utterance(&mut self) -> Option<asr_hw::UtteranceReport> {
///         None
///     }
///     fn reset(&mut self) {}
/// }
///
/// // The decoder dispatches through the trait object; no enum to extend.
/// let model = AcousticModel::untrained(AcousticModelConfig::tiny()).unwrap();
/// let mut decoder = PhoneDecoder::new(Box::new(FlatScorer), GmmSelectionConfig::default());
/// let x = vec![0.0; model.feature_dim()];
/// decoder.begin_frame(&x);
/// let skipped = decoder
///     .score_frame(&model, &[SenoneId(0), SenoneId(1)], &x)
///     .unwrap();
/// assert!(!skipped);
/// assert_eq!(decoder.score_of(SenoneId(1)).raw(), -1.0);
/// ```
pub trait SenoneScorer: std::fmt::Debug + Send {
    /// A short stable name for reports and benchmarks.
    fn name(&self) -> &'static str;

    /// Starts a 10 ms frame (hardware backends load the feature vector).
    fn begin_frame(&mut self, feature: &[f32]);

    /// Scores the requested senones for the current frame, appending them
    /// in `active` order to a caller-supplied buffer so a per-frame result
    /// allocation can be reused across frames.  The decode hot path
    /// ([`PhoneDecoder::score_frame`]) calls this with a persistent scratch
    /// buffer; backends that assemble results from parts (e.g.
    /// [`ShardedScorer`](crate::ShardedScorer)) write the concatenation
    /// directly into `out`.
    ///
    /// [`PhoneDecoder::score_frame`]: crate::PhoneDecoder::score_frame
    ///
    /// # Errors
    ///
    /// Backend-specific: hardware errors surface as
    /// [`DecodeError::Hardware`], unknown senone ids as
    /// [`DecodeError::Acoustic`].  On error `out` may hold a partial prefix
    /// and must be discarded by the caller.
    fn score_senones_into(
        &mut self,
        model: &AcousticModel,
        active: &[SenoneId],
        feature: &[f32],
        out: &mut Vec<(SenoneId, LogProb)>,
    ) -> Result<(), DecodeError>;

    /// Scores the requested senones into a fresh vector: the allocating
    /// convenience over [`SenoneScorer::score_senones_into`].
    ///
    /// # Errors
    ///
    /// Identical to [`SenoneScorer::score_senones_into`].
    fn score_senones(
        &mut self,
        model: &AcousticModel,
        active: &[SenoneId],
        feature: &[f32],
    ) -> Result<Vec<(SenoneId, LogProb)>, DecodeError> {
        let mut out = Vec::with_capacity(active.len());
        self.score_senones_into(model, active, feature, &mut out)?;
        Ok(out)
    }

    /// Advances one HMM by one frame.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::DimensionMismatch`] for shape errors and
    /// propagates backend failures.
    fn step_hmm(
        &mut self,
        prev_scores: &[LogProb],
        entry_score: LogProb,
        transitions: &TransitionMatrix,
        senone_scores: &[LogProb],
    ) -> Result<HmmStepResult, DecodeError>;

    /// Records a dictionary / LM fetch over the DMA (hardware backends).
    fn dma_fetch(&mut self, _bytes: u64) {}

    /// Ends the frame (hardware backends charge the host-CPU software stages
    /// and close the bandwidth window).
    fn end_frame(&mut self, _active_triphones: usize, _lattice_edges: usize) {}

    /// Finishes the utterance: returns the power/cycle report when the
    /// backend keeps one, and clears all per-utterance accounting so the
    /// scorer can serve the next utterance of a batch.  Model-level caches
    /// survive.
    fn finish_utterance(&mut self) -> Option<UtteranceReport>;

    /// Hard-resets per-utterance state without producing a report (used to
    /// guarantee a clean start even after an aborted decode).  Model-level
    /// caches survive.
    fn reset(&mut self);

    /// Cumulative OS threads this scorer has spawned over its life (0 for
    /// backends that score on the calling thread).  A caller that owns the
    /// request's trace reads it around a decode to attribute the spawns
    /// (see [`ShardedScorer`](crate::ShardedScorer)).
    fn threads_spawned(&self) -> usize {
        0
    }
}

/// The shared software Viterbi recursion, usable by any [`SenoneScorer`]
/// implementation that has no dedicated HMM-stepping hardware.
///
/// # Errors
///
/// Returns [`DecodeError::DimensionMismatch`] if `prev_scores` or
/// `senone_scores` disagree with the transition matrix's state count.
pub fn software_step_hmm(
    prev_scores: &[LogProb],
    entry_score: LogProb,
    transitions: &TransitionMatrix,
    senone_scores: &[LogProb],
) -> Result<HmmStepResult, DecodeError> {
    let n = transitions.num_states();
    if prev_scores.len() != n || senone_scores.len() != n {
        return Err(DecodeError::DimensionMismatch {
            expected: n,
            got: prev_scores.len(),
        });
    }
    let mut scores = HmmStateScores {
        len: n,
        scores: [LogProb::zero(); HmmTopology::MAX_STATES],
    };
    for (j, &obs_j) in senone_scores.iter().enumerate() {
        let mut best = LogProb::zero();
        for (i, a_ij) in transitions.column(j) {
            let c = prev_scores[i] + a_ij;
            if c.raw() > best.raw() {
                best = c;
            }
        }
        if j == 0 && entry_score.raw() > best.raw() {
            best = entry_score;
        }
        scores.scores[j] = best + obs_j;
    }
    let mut exit = LogProb::zero();
    for (i, &score_i) in scores.iter().enumerate() {
        let e = score_i + transitions.log_exit_prob(i);
        if e.raw() > exit.raw() {
            exit = e;
        }
    }
    Ok(HmmStepResult {
        scores,
        exit_score: exit,
    })
}

/// The paper's system: OP units + Viterbi units with cycle, bandwidth and
/// power accounting, behind the [`SenoneScorer`] seam.
#[derive(Debug)]
pub struct SocScorer {
    soc: Box<SpeechSoc>,
}

impl SocScorer {
    /// Builds the scorer around a fresh SoC model.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::InvalidConfig`] if the SoC configuration is
    /// invalid.
    pub fn new(config: SocConfig) -> Result<Self, DecodeError> {
        Ok(SocScorer {
            soc: Box::new(
                SpeechSoc::new(config).map_err(|e| DecodeError::InvalidConfig(e.to_string()))?,
            ),
        })
    }

    /// Access to the underlying SoC model.
    pub fn soc(&self) -> &SpeechSoc {
        &self.soc
    }
}

impl SenoneScorer for SocScorer {
    fn name(&self) -> &'static str {
        "soc"
    }

    fn begin_frame(&mut self, feature: &[f32]) {
        self.soc.begin_frame(feature);
    }

    fn score_senones_into(
        &mut self,
        model: &AcousticModel,
        active: &[SenoneId],
        _feature: &[f32],
        out: &mut Vec<(SenoneId, LogProb)>,
    ) -> Result<(), DecodeError> {
        Ok(self.soc.score_senones_into(model, active, out)?)
    }

    fn step_hmm(
        &mut self,
        prev_scores: &[LogProb],
        entry_score: LogProb,
        transitions: &TransitionMatrix,
        senone_scores: &[LogProb],
    ) -> Result<HmmStepResult, DecodeError> {
        let step = self
            .soc
            .step_hmm(prev_scores, entry_score, transitions, senone_scores)?;
        Ok(HmmStepResult {
            scores: HmmStateScores::from_slice(step.scores()),
            exit_score: step.exit_score,
        })
    }

    fn dma_fetch(&mut self, bytes: u64) {
        self.soc.dma_fetch(bytes);
    }

    fn end_frame(&mut self, active_triphones: usize, lattice_edges: usize) {
        self.soc.end_frame(active_triphones, lattice_edges);
    }

    fn finish_utterance(&mut self) -> Option<UtteranceReport> {
        let report = self.soc.finish_utterance();
        // Clear the counters so the same SoC model (and its warmed caches)
        // serves the next utterance of a batch without re-allocation.
        self.soc.reset();
        Some(report)
    }

    fn reset(&mut self) {
        self.soc.reset();
    }
}

/// The scalar software reference: the same arithmetic as the hardware OP
/// unit, evaluated senone by senone with no cycle/power accounting.
#[derive(Debug, Clone, Default)]
pub struct SoftwareScorer;

impl SoftwareScorer {
    /// Creates the scorer.
    pub fn new() -> Self {
        SoftwareScorer
    }
}

impl SenoneScorer for SoftwareScorer {
    fn name(&self) -> &'static str {
        "software"
    }

    fn begin_frame(&mut self, _feature: &[f32]) {}

    fn score_senones_into(
        &mut self,
        model: &AcousticModel,
        active: &[SenoneId],
        feature: &[f32],
        out: &mut Vec<(SenoneId, LogProb)>,
    ) -> Result<(), DecodeError> {
        out.reserve(active.len());
        for &id in active {
            let senone = model
                .senones()
                .get(id)
                .ok_or_else(|| AcousticError::UnknownId(format!("senone {}", id.0)))?;
            out.push((id, senone.mixture().log_likelihood(feature)));
        }
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

/// Flattened Gaussian parameters of one acoustic model, laid out for linear
/// streaming: per mixture component a `C_jk` constant plus contiguous mean
/// and precision (`δ = −1/2σ²`) rows.  This is the software analogue of the
/// OP unit's Gaussian-parameter buffer.
#[derive(Debug)]
struct FlattenedModel {
    /// [`AcousticModel::id`] of the model this table was built from.
    model_id: u64,
    dim: usize,
    /// Per senone: (first component row, component count).
    components: Vec<(usize, usize)>,
    /// Per component row: `C_jk = log(c_k) + log_norm_k`.
    consts: Vec<f32>,
    /// Per component row: `dim` contiguous mean values.
    means: Vec<f32>,
    /// Per component row: `dim` contiguous precision values.
    precisions: Vec<f32>,
}

impl FlattenedModel {
    fn build(model: &AcousticModel) -> Self {
        let dim = model.feature_dim();
        let pool = model.senones();
        let mut components = Vec::with_capacity(pool.len());
        let mut consts = Vec::new();
        let mut means = Vec::new();
        let mut precisions = Vec::new();
        for senone in pool.iter() {
            let mix = senone.mixture();
            components.push((consts.len(), mix.num_components()));
            for (k, g) in mix.components().iter().enumerate() {
                consts.push(mix.log_weight_consts()[k]);
                means.extend_from_slice(g.mean());
                precisions.extend_from_slice(g.precision());
            }
        }
        FlattenedModel {
            model_id: model.id(),
            dim,
            components,
            consts,
            means,
            precisions,
        }
    }
}

/// Width of the blocked accumulation in [`SimdScorer`]: four independent f32
/// lanes, the shape auto-vectorisers map onto 128-bit SIMD registers.
const LANES: usize = 4;

/// A batching-aware SIMD-style software scorer.
///
/// On first use it flattens the acoustic model's Gaussian parameters into
/// contiguous mean/precision rows (the private `FlattenedModel`) and evaluates each
/// component with four independent accumulator lanes over the feature
/// dimensions — branch-free, cache-linear inner loops that the compiler
/// auto-vectorises.  The flattened arena survives
/// [`SenoneScorer::finish_utterance`]/[`SenoneScorer::reset`], so its build
/// cost amortises across a [`decode_batch`] stream — exactly the cache reuse
/// the batch API exists to exploit.
///
/// [`decode_batch`]: crate::Recognizer::decode_batch
#[derive(Debug, Default)]
pub struct SimdScorer {
    table: Option<FlattenedModel>,
    table_builds: usize,
}

impl SimdScorer {
    /// Creates the scorer; the parameter arena is built lazily on the first
    /// scored frame.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the flattened parameter arena has been built.
    pub fn is_warm(&self) -> bool {
        self.table.is_some()
    }

    /// How many times the parameter arena has been (re)built — 1 for a whole
    /// batch is the amortisation working; one per utterance means the model
    /// cache is being invalidated.
    pub fn table_builds(&self) -> usize {
        self.table_builds
    }

    fn score_one(table: &FlattenedModel, senone: usize, x: &[f32]) -> LogProb {
        let (first, count) = table.components[senone];
        let dim = table.dim;
        let main = dim - dim % LANES;
        let mut acc = LogProb::zero();
        for k in first..first + count {
            let mean = &table.means[k * dim..k * dim + dim];
            let prec = &table.precisions[k * dim..k * dim + dim];
            let mut lanes = [0.0f32; LANES];
            for ((xs, ms), ps) in x[..main]
                .chunks_exact(LANES)
                .zip(mean[..main].chunks_exact(LANES))
                .zip(prec[..main].chunks_exact(LANES))
            {
                for l in 0..LANES {
                    let d = xs[l] - ms[l];
                    lanes[l] += d * d * ps[l];
                }
            }
            let tail: f32 = x[main..]
                .iter()
                .zip(&mean[main..])
                .zip(&prec[main..])
                .map(|((&xi, &mi), &pi)| {
                    let d = xi - mi;
                    d * d * pi
                })
                .sum();
            acc = acc.log_add(LogProb::new(
                table.consts[k] + lanes.iter().sum::<f32>() + tail,
            ));
        }
        acc
    }
}

impl SenoneScorer for SimdScorer {
    fn name(&self) -> &'static str {
        "simd"
    }

    fn begin_frame(&mut self, _feature: &[f32]) {}

    fn score_senones_into(
        &mut self,
        model: &AcousticModel,
        active: &[SenoneId],
        feature: &[f32],
        out: &mut Vec<(SenoneId, LogProb)>,
    ) -> Result<(), DecodeError> {
        if !self
            .table
            .as_ref()
            .is_some_and(|t| t.model_id == model.id())
        {
            self.table = Some(FlattenedModel::build(model));
            self.table_builds += 1;
        }
        let table = self.table.as_ref().expect("table built above");
        out.reserve(active.len());
        for &id in active {
            if id.index() >= table.components.len() {
                return Err(AcousticError::UnknownId(format!("senone {}", id.0)).into());
            }
            out.push((id, Self::score_one(table, id.index(), feature)));
        }
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

/// Default score for a senone that was not scored this frame — matches the
/// search's historical "effectively pruned" constant.
const UNSCORED: f32 = -1.0e6;

/// A generation-stamped dense senone-score table.
///
/// Replaces the per-frame `HashMap<SenoneId, LogProb>` on the decode hot
/// path: one allocation sized to the senone inventory, O(1) per-frame clear
/// by bumping an epoch counter, and O(1) lookups by senone index.  Entries
/// stamped with an older epoch fall back to the current frame's floor score,
/// which is how Conditional Down Sampling's "poor but finite" score for
/// never-cached senones is realised without touching the table.
#[derive(Debug, Default)]
pub struct SenoneScoreArena {
    scores: Vec<LogProb>,
    stamps: Vec<u64>,
    epoch: u64,
    stamped: usize,
    best: LogProb,
    floor: LogProb,
}

impl SenoneScoreArena {
    /// Creates an empty arena; it grows to the senone inventory on first use.
    pub fn new() -> Self {
        SenoneScoreArena {
            scores: Vec::new(),
            stamps: Vec::new(),
            epoch: 1,
            stamped: 0,
            best: LogProb::zero(),
            floor: LogProb::new(UNSCORED),
        }
    }

    /// Starts a freshly scored frame: invalidates all previous entries in
    /// O(1) and resets the floor for unscored senones.
    pub fn begin_scored_frame(&mut self, inventory: usize) {
        if self.scores.len() < inventory {
            self.scores.resize(inventory, LogProb::zero());
            self.stamps.resize(inventory, 0);
        }
        self.epoch += 1;
        self.stamped = 0;
        self.best = LogProb::zero();
        self.floor = LogProb::new(UNSCORED);
    }

    /// Keeps the previous frame's entries (a CDS skip frame) but serves
    /// `floor` for senones that were never cached.
    pub fn reuse_with_floor(&mut self, floor: LogProb) {
        self.floor = floor;
    }

    /// Records one senone's score for the current frame.
    pub fn set(&mut self, id: SenoneId, score: LogProb) {
        let i = id.index();
        if i >= self.scores.len() {
            self.scores.resize(i + 1, LogProb::zero());
            self.stamps.resize(i + 1, 0);
        }
        if self.stamps[i] != self.epoch {
            self.stamps[i] = self.epoch;
            self.stamped += 1;
        }
        self.scores[i] = score;
        self.best = self.best.max(score);
    }

    /// The senone's score this frame, or the frame's floor if it was not
    /// scored (and, on CDS skip frames, never cached).
    pub fn get(&self, id: SenoneId) -> LogProb {
        match self.stamps.get(id.index()) {
            Some(&stamp) if stamp == self.epoch => self.scores[id.index()],
            _ => self.floor,
        }
    }

    /// Whether any senone is cached for the current epoch.
    pub fn has_scores(&self) -> bool {
        self.stamped > 0
    }

    /// Number of senones cached for the current epoch.
    pub fn len(&self) -> usize {
        self.stamped
    }

    /// Whether the arena holds no current-epoch scores.
    pub fn is_empty(&self) -> bool {
        self.stamped == 0
    }

    /// Best score cached for the current epoch.
    pub fn best(&self) -> LogProb {
        self.best
    }

    /// Invalidates everything (end of utterance).
    pub fn clear(&mut self) {
        self.epoch += 1;
        self.stamped = 0;
        self.best = LogProb::zero();
        self.floor = LogProb::new(UNSCORED);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScoringBackendKind;
    use asr_acoustic::AcousticModelConfig;

    fn model() -> AcousticModel {
        AcousticModel::untrained(AcousticModelConfig::tiny()).unwrap()
    }

    fn all_ids(m: &AcousticModel) -> Vec<SenoneId> {
        (0..m.senones().len() as u32).map(SenoneId).collect()
    }

    #[test]
    fn scorer_construction_and_names() {
        let sel = crate::GmmSelectionConfig::default();
        let soc = ScoringBackendKind::Hardware(SocConfig::default())
            .build_scorer(&sel)
            .unwrap();
        assert_eq!(soc.name(), "soc");
        let sw = ScoringBackendKind::Software.build_scorer(&sel).unwrap();
        assert_eq!(sw.name(), "software");
        let simd = ScoringBackendKind::Simd.build_scorer(&sel).unwrap();
        assert_eq!(simd.name(), "simd");
        let bad = ScoringBackendKind::Hardware(SocConfig {
            num_structures: 0,
            ..SocConfig::default()
        });
        assert!(bad.build_scorer(&sel).is_err());
    }

    #[test]
    fn simd_matches_scalar_reference() {
        let m = model();
        let x: Vec<f32> = (0..m.feature_dim()).map(|d| 0.17 * d as f32).collect();
        let ids = all_ids(&m);
        let mut scalar = SoftwareScorer::new();
        let mut simd = SimdScorer::new();
        assert!(!simd.is_warm());
        let a = scalar.score_senones(&m, &ids, &x).unwrap();
        let b = simd.score_senones(&m, &ids, &x).unwrap();
        assert!(simd.is_warm());
        for ((ia, sa), (ib, sb)) in a.iter().zip(&b) {
            assert_eq!(ia, ib);
            assert!(
                (sa.raw() - sb.raw()).abs() < 1e-2,
                "{ia:?}: scalar {} simd {}",
                sa.raw(),
                sb.raw()
            );
        }
    }

    #[test]
    fn simd_arena_survives_utterance_reset_and_tracks_the_model() {
        let m = model();
        let x = vec![0.1f32; m.feature_dim()];
        let mut simd = SimdScorer::new();
        simd.score_senones(&m, &all_ids(&m), &x).unwrap();
        assert!(simd.is_warm());
        assert_eq!(simd.table_builds(), 1);
        assert!(simd.finish_utterance().is_none());
        simd.reset();
        assert!(
            simd.is_warm(),
            "the model arena must survive the batch seam"
        );
        // Repeated scoring of the same model — or of a clone, which keeps
        // the model's identity — reuses the arena.
        simd.score_senones(&m, &all_ids(&m), &x).unwrap();
        simd.score_senones(&m.clone(), &all_ids(&m), &x).unwrap();
        assert_eq!(simd.table_builds(), 1, "warm hits must not rebuild");
        // A different model forces a rebuild.
        let m2 = AcousticModel::untrained(AcousticModelConfig {
            num_phones: 4,
            num_senones: 12,
            ..AcousticModelConfig::tiny()
        })
        .unwrap();
        let scores = simd
            .score_senones(&m2, &all_ids(&m2), &vec![0.1f32; m2.feature_dim()])
            .unwrap();
        assert_eq!(scores.len(), m2.senones().len());
        assert_eq!(simd.table_builds(), 2);
    }

    #[test]
    fn simd_rebuilds_for_a_same_shape_model_with_different_parameters() {
        // Model B has A's shape but different Gaussians (the quantised copy)
        // and is built after A is dropped, so its allocation may reuse A's
        // address.  Both model-keyed caches — the SIMD arena and the sharded
        // scorer's cost table and pooled model clone — must serve B's
        // parameters, never A's.
        let x: Vec<f32> = (0..model().feature_dim())
            .map(|d| 0.21 * d as f32)
            .collect();
        let mut warm = SimdScorer::new();
        let mut sharded = crate::ShardedScorer::new(vec![
            Box::new(SimdScorer::new()) as Box<dyn SenoneScorer>,
            Box::new(SimdScorer::new()) as Box<dyn SenoneScorer>,
        ])
        .unwrap()
        .with_parallelism(true);
        let a = model();
        let ids = all_ids(&a);
        let a_id = a.id();
        let via_a = warm.score_senones(&a, &ids, &x).unwrap();
        sharded.score_senones(&a, &ids, &x).unwrap();
        drop(a);
        let b = asr_acoustic::quantize_model(&model(), asr_float::MantissaWidth::BITS_12).unwrap();
        assert_ne!(b.id(), a_id);
        let via_warm_scorer = warm.score_senones(&b, &ids, &x).unwrap();
        assert_eq!(warm.table_builds(), 2, "same-shape model must rebuild");
        let via_sharded_scorer = sharded.score_senones(&b, &ids, &x).unwrap();
        let via_fresh_scorer = SimdScorer::new().score_senones(&b, &ids, &x).unwrap();
        assert!(
            via_a
                .iter()
                .zip(&via_fresh_scorer)
                .any(|((_, sa), (_, sb))| sa.raw() != sb.raw()),
            "A and B must score differently for a stale cache to show"
        );
        for got in [&via_warm_scorer, &via_sharded_scorer] {
            assert_eq!(got.len(), via_fresh_scorer.len());
            for ((ia, sa), (ib, sb)) in got.iter().zip(&via_fresh_scorer) {
                assert_eq!(ia, ib);
                assert_eq!(sa.raw(), sb.raw(), "stale parameters served for {ia:?}");
            }
        }
    }

    #[test]
    fn unknown_senones_are_typed_errors_not_panics() {
        let m = model();
        let x = vec![0.0f32; m.feature_dim()];
        let bad = [SenoneId(9_999)];
        let mut scalar = SoftwareScorer::new();
        let mut simd = SimdScorer::new();
        assert!(matches!(
            scalar.score_senones(&m, &bad, &x),
            Err(DecodeError::Acoustic(_))
        ));
        assert!(matches!(
            simd.score_senones(&m, &bad, &x),
            Err(DecodeError::Acoustic(_))
        ));
    }

    #[test]
    fn software_step_hmm_validates_shapes() {
        let m = model();
        let t = m.transitions();
        let n = t.num_states();
        let prev = vec![LogProb::new(-2.0); n];
        let obs = vec![LogProb::new(-1.0); n];
        let step = software_step_hmm(&prev, LogProb::zero(), t, &obs).unwrap();
        assert_eq!(step.scores.len(), n);
        assert!(software_step_hmm(&prev[..n - 1], LogProb::zero(), t, &obs).is_err());
    }

    #[test]
    fn arena_epochs_and_floors() {
        let mut arena = SenoneScoreArena::new();
        assert!(arena.is_empty());
        assert_eq!(arena.get(SenoneId(3)).raw(), UNSCORED);

        arena.begin_scored_frame(8);
        arena.set(SenoneId(2), LogProb::new(-1.5));
        arena.set(SenoneId(5), LogProb::new(-0.5));
        assert_eq!(arena.len(), 2);
        assert!(arena.has_scores());
        assert_eq!(arena.get(SenoneId(2)).raw(), -1.5);
        assert_eq!(arena.best().raw(), -0.5);
        assert_eq!(arena.get(SenoneId(4)).raw(), UNSCORED);

        // A CDS skip frame keeps the cache but floors unscored senones.
        arena.reuse_with_floor(LogProb::new(-20.5));
        assert_eq!(arena.get(SenoneId(5)).raw(), -0.5);
        assert_eq!(arena.get(SenoneId(4)).raw(), -20.5);

        // A new scored frame invalidates everything in O(1).
        arena.begin_scored_frame(8);
        assert!(arena.is_empty());
        assert_eq!(arena.get(SenoneId(2)).raw(), UNSCORED);

        // Out-of-range ids grow the table rather than panicking.
        arena.set(SenoneId(40), LogProb::new(-3.0));
        assert_eq!(arena.get(SenoneId(40)).raw(), -3.0);
        arena.clear();
        assert!(arena.is_empty());
        assert_eq!(arena.get(SenoneId(40)).raw(), UNSCORED);
        // Re-stamping the same senone twice counts once.
        arena.begin_scored_frame(8);
        arena.set(SenoneId(1), LogProb::new(-2.0));
        arena.set(SenoneId(1), LogProb::new(-1.0));
        assert_eq!(arena.len(), 1);
        assert_eq!(arena.get(SenoneId(1)).raw(), -1.0);
    }
}
