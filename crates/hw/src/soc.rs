//! The assembled SoC: host processor + dedicated accelerator structures +
//! flash.
//!
//! "Two such dedicated structures (observation probability unit and the
//! Viterbi decoder combined) can support real time speech recognition."
//! [`SpeechSoc`] instantiates `n` structures (default 2), distributes the
//! active-senone scoring and HMM updates across them, charges every streamed
//! parameter and every DMA fetch to the flash model, and produces per-frame
//! and per-utterance reports of cycles, real-time factor, bandwidth, power
//! and energy — the raw material for experiments E2, E5, E6 and E7.

use crate::clock::CycleCount;
use crate::memory::FlashMemory;
use crate::opu::ObservationProbabilityUnit;
use crate::power::{EnergyReport, HostCpuModel, PowerModel};
use crate::viterbi_unit::{HmmStep, ViterbiUnit};
use crate::HwError;
use asr_acoustic::{AcousticModel, SenoneId, TransitionMatrix, FRAME_PERIOD_S};
use asr_float::{LogProb, MantissaWidth};

/// Configuration of the SoC: the paper's two design axes.
///
/// Everything else about the machine is fixed, as in the paper's
/// fixed-function silicon: the 50 MHz clock and the 200 mW / 2.2 mm² per
/// structure of [`PowerModel::paper_calibrated`], the ARM9-class host of
/// [`HostCpuModel::arm9_embedded`], the 10 ms frame, the units' pipeline
/// depths and the 512-byte log-add SRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SocConfig {
    /// Number of accelerator structures (OP unit + Viterbi decoder pairs),
    /// 1 to 1024.
    pub num_structures: usize,
    /// Mantissa width of the OP units' datapath and of the Gaussian
    /// parameters stored in flash (the paper's sweep: 23, 15 or 12 bits).
    /// The Viterbi units keep the full 23 bits.
    pub datapath_width: MantissaWidth,
}

impl Default for SocConfig {
    fn default() -> Self {
        SocConfig {
            num_structures: 2,
            datapath_width: MantissaWidth::FULL,
        }
    }
}

impl SocConfig {
    /// Most structures a SoC may have.  The paper's machine has two; the
    /// bound keeps a hostile count from becoming an unbounded allocation,
    /// since every structure carries its own units, log-add table and
    /// buffers.
    pub const MAX_STRUCTURES: usize = 1024;

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::InvalidConfig`] when there are no structures or
    /// more than 1024.
    pub fn validate(&self) -> Result<(), HwError> {
        if self.num_structures == 0 {
            return Err(HwError::InvalidConfig("num_structures == 0".into()));
        }
        if self.num_structures > Self::MAX_STRUCTURES {
            return Err(HwError::InvalidConfig(format!(
                "num_structures must be at most {}",
                Self::MAX_STRUCTURES
            )));
        }
        Ok(())
    }
}

#[derive(Debug, Clone)]
struct Structure {
    opu: ObservationProbabilityUnit,
    viterbi: ViterbiUnit,
    frame_start_opu_cycles: CycleCount,
    frame_start_viterbi_cycles: CycleCount,
}

/// Per-frame report of the accelerator's work.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FrameReport {
    /// Senones scored this frame.
    pub senones_scored: usize,
    /// HMM (triphone) updates this frame.
    pub hmm_updates: usize,
    /// Busiest structure's OP-unit cycles this frame.
    pub opu_cycles: CycleCount,
    /// Busiest structure's Viterbi-unit cycles this frame.
    pub viterbi_cycles: CycleCount,
    /// Host-CPU cycles spent on the software stages this frame.
    pub host_cycles: CycleCount,
    /// Bytes streamed from flash this frame.
    pub flash_bytes: u64,
    /// Real-time factor of the accelerator for this frame
    /// (busiest structure's cycles / cycle budget).
    pub accelerator_rtf: f64,
    /// Real-time factor of the host for this frame.
    pub host_rtf: f64,
    /// Whether the whole frame finished within its 10 ms budget.
    pub real_time: bool,
}

/// Whole-utterance aggregation of frame reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UtteranceReport {
    /// Number of frames processed.
    pub frames: usize,
    /// Total senones scored.
    pub senones_scored: u64,
    /// Total HMM updates.
    pub hmm_updates: u64,
    /// Mean senones scored per frame.
    pub mean_senones_per_frame: f64,
    /// Worst per-frame accelerator real-time factor.
    pub worst_frame_rtf: f64,
    /// Mean accelerator real-time factor.
    pub mean_rtf: f64,
    /// Fraction of frames that met the real-time budget.
    pub real_time_fraction: f64,
    /// Peak per-frame flash bandwidth (GB/s).
    pub peak_bandwidth_gb_per_s: f64,
    /// Mean per-frame flash bandwidth (GB/s).
    pub mean_bandwidth_gb_per_s: f64,
    /// Energy/power summary.
    pub energy: EnergyReport,
    /// Scored-senone counts per parallel shard, in shard order — filled by
    /// [`UtteranceReport::merge_parallel`] when per-shard reports fold into
    /// one (a sharded scorer), empty for an unsharded machine.
    /// [`UtteranceReport::merge`] adds the counts element-wise, so utterances
    /// decoded on N-shard machines accumulate N per-shard totals.
    pub shard_senones: Vec<u64>,
}

impl UtteranceReport {
    /// The worst shard's share of the total scored senones, when this report
    /// was folded from parallel shards ([`UtteranceReport::merge_parallel`]):
    /// `1/N` is a perfectly balanced N-shard split, `1.0` means one shard
    /// scored everything.  `None` for unsharded reports or when nothing was
    /// scored.
    pub fn worst_shard_share(&self) -> Option<f64> {
        let total: u64 = self.shard_senones.iter().sum();
        if self.shard_senones.len() < 2 || total == 0 {
            return None;
        }
        let worst = *self.shard_senones.iter().max().expect("non-empty");
        Some(worst as f64 / total as f64)
    }

    /// This report as one self-describing telemetry fact (kind
    /// `"hw_report"`), ready for an [`asr_obs::ObsSink`] — the bridge from
    /// the cycle-accurate hardware model into the JSONL observability
    /// pipeline.  Flat scalar fields only; the per-shard senone vector is
    /// summarised by `shards` and [`worst_shard_share`].
    ///
    /// [`worst_shard_share`]: UtteranceReport::worst_shard_share
    pub fn snapshot_fact(&self) -> asr_obs::Fact {
        let mut fact = asr_obs::Fact::new("hw_report")
            .with("frames", self.frames as u64)
            .with("senones_scored", self.senones_scored)
            .with("hmm_updates", self.hmm_updates)
            .with("mean_senones_per_frame", self.mean_senones_per_frame)
            .with("worst_frame_rtf", self.worst_frame_rtf)
            .with("mean_rtf", self.mean_rtf)
            .with("real_time_fraction", self.real_time_fraction)
            .with("peak_bandwidth_gb_per_s", self.peak_bandwidth_gb_per_s)
            .with("accelerator_energy_j", self.energy.accelerator_energy_j)
            .with("host_energy_j", self.energy.host_energy_j)
            .with("audio_seconds", self.energy.audio_seconds)
            .with("average_power_w", self.energy.average_power_w())
            .with("shards", self.shard_senones.len() as u64);
        if let Some(share) = self.worst_shard_share() {
            fact = fact.with("worst_shard_share", share);
        }
        fact
    }

    /// This report's per-shard senone counts as a parallel leaf: an already
    /// folded report contributes its shard vector, an unsharded report
    /// contributes itself as a single shard.
    fn shard_counts(&self) -> Vec<u64> {
        if self.shard_senones.is_empty() {
            vec![self.senones_scored]
        } else {
            self.shard_senones.clone()
        }
    }

    /// Folds another utterance's report into this one — the aggregation of
    /// *different* utterances, wherever they were decoded (one batch, one
    /// session, or a server's concurrent workers): counters, frames, audio
    /// seconds and energies add, means re-weight by frame (or audio-second)
    /// counts, and peak figures take the maximum.  Every figure depends only
    /// on the utterances folded, not on where or in which order they ran
    /// (up to floating-point rounding of the sums).
    pub fn merge(&self, other: &UtteranceReport) -> UtteranceReport {
        if self.frames == 0 {
            return other.clone();
        }
        if other.frames == 0 {
            return self.clone();
        }
        let frames = self.frames + other.frames;
        let fa = self.frames as f64;
        let fb = other.frames as f64;
        let ft = frames as f64;
        let weighted = |a: f64, b: f64| (a * fa + b * fb) / ft;
        let audio = self.energy.audio_seconds + other.energy.audio_seconds;
        let by_audio = |a: f64, b: f64| {
            (a * self.energy.audio_seconds + b * other.energy.audio_seconds)
                / audio.max(f64::MIN_POSITIVE)
        };
        UtteranceReport {
            frames,
            senones_scored: self.senones_scored + other.senones_scored,
            hmm_updates: self.hmm_updates + other.hmm_updates,
            mean_senones_per_frame: weighted(
                self.mean_senones_per_frame,
                other.mean_senones_per_frame,
            ),
            worst_frame_rtf: self.worst_frame_rtf.max(other.worst_frame_rtf),
            mean_rtf: weighted(self.mean_rtf, other.mean_rtf),
            real_time_fraction: weighted(self.real_time_fraction, other.real_time_fraction),
            peak_bandwidth_gb_per_s: self
                .peak_bandwidth_gb_per_s
                .max(other.peak_bandwidth_gb_per_s),
            mean_bandwidth_gb_per_s: weighted(
                self.mean_bandwidth_gb_per_s,
                other.mean_bandwidth_gb_per_s,
            ),
            // The same machine served both utterances, so per-shard counts
            // accumulate position-wise.  If either side is sharded, both are
            // expanded through `shard_counts` (an unsharded report is one
            // shard) and zero-padded, so `sum(shard_senones)` stays equal to
            // `senones_scored` even across mixed merges; two unsharded
            // reports stay unsharded.
            shard_senones: if self.shard_senones.is_empty() && other.shard_senones.is_empty() {
                Vec::new()
            } else {
                let mut counts = self.shard_counts();
                let other_counts = other.shard_counts();
                if counts.len() < other_counts.len() {
                    counts.resize(other_counts.len(), 0);
                }
                for (acc, &c) in counts.iter_mut().zip(&other_counts) {
                    *acc += c;
                }
                counts
            },
            energy: EnergyReport {
                accelerator_energy_j: self.energy.accelerator_energy_j
                    + other.energy.accelerator_energy_j,
                host_energy_j: self.energy.host_energy_j + other.energy.host_energy_j,
                audio_seconds: audio,
                opu_activity: by_audio(self.energy.opu_activity, other.energy.opu_activity),
                viterbi_activity: by_audio(
                    self.energy.viterbi_activity,
                    other.energy.viterbi_activity,
                ),
            },
        }
    }

    /// Folds the report of a *parallel shard* into this one — the aggregation
    /// used when several SoC instances process the **same** frames
    /// concurrently, each scoring a slice of the active-senone set (a sharded
    /// scorer), as opposed to [`UtteranceReport::merge`], which adds reports
    /// of *different* utterances.  Only a sharded scorer's
    /// `finish_utterance` calls it.
    ///
    /// The combination models one scaled-out machine over one audio stream:
    /// work counters (senones, HMM updates) add; frame and audio-second
    /// counts take the maximum (the shards saw the same frames, so summing
    /// them would multiply the audio length by the shard count); per-frame
    /// real-time factors take the maximum because the slowest shard bounds
    /// the frame, and `real_time_fraction` the minimum for the same reason;
    /// flash bandwidth adds (each shard streams its own parameter slice
    /// concurrently); energies add, over the un-multiplied audio length.
    pub fn merge_parallel(&self, shard: &UtteranceReport) -> UtteranceReport {
        if self.frames == 0 {
            return shard.clone();
        }
        if shard.frames == 0 {
            return self.clone();
        }
        let frames = self.frames.max(shard.frames);
        // Activity factors are averaged weighted by accelerator energy, which
        // keeps a left fold over N shards associative: the accumulated
        // report's energy is exactly the weight its activity already carries.
        let e_self = self.energy.accelerator_energy_j;
        let e_shard = shard.energy.accelerator_energy_j;
        let by_energy =
            |a: f64, b: f64| (a * e_self + b * e_shard) / (e_self + e_shard).max(f64::MIN_POSITIVE);
        UtteranceReport {
            frames,
            senones_scored: self.senones_scored + shard.senones_scored,
            hmm_updates: self.hmm_updates + shard.hmm_updates,
            mean_senones_per_frame: (self.senones_scored + shard.senones_scored) as f64
                / frames as f64,
            worst_frame_rtf: self.worst_frame_rtf.max(shard.worst_frame_rtf),
            mean_rtf: self.mean_rtf.max(shard.mean_rtf),
            real_time_fraction: self.real_time_fraction.min(shard.real_time_fraction),
            peak_bandwidth_gb_per_s: self.peak_bandwidth_gb_per_s + shard.peak_bandwidth_gb_per_s,
            mean_bandwidth_gb_per_s: self.mean_bandwidth_gb_per_s + shard.mean_bandwidth_gb_per_s,
            // Concatenating in fold order keeps a left fold over N shards
            // producing one count per shard, in shard order.
            shard_senones: {
                let mut counts = self.shard_counts();
                counts.extend(shard.shard_counts());
                counts
            },
            energy: EnergyReport {
                accelerator_energy_j: self.energy.accelerator_energy_j
                    + shard.energy.accelerator_energy_j,
                host_energy_j: self.energy.host_energy_j + shard.energy.host_energy_j,
                audio_seconds: self.energy.audio_seconds.max(shard.energy.audio_seconds),
                opu_activity: by_energy(self.energy.opu_activity, shard.energy.opu_activity),
                viterbi_activity: by_energy(
                    self.energy.viterbi_activity,
                    shard.energy.viterbi_activity,
                ),
            },
        }
    }
}

/// The assembled low-power speech-recognition SoC.
#[derive(Debug, Clone)]
pub struct SpeechSoc {
    config: SocConfig,
    power: PowerModel,
    host: HostCpuModel,
    structures: Vec<Structure>,
    flash: FlashMemory,
    frames: Vec<FrameReport>,
    next_structure: usize,
    /// Senones and HMM updates already counted in `frames`.
    reported_senones: u64,
    reported_hmms: u64,
}

impl SpeechSoc {
    /// Builds the SoC.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::InvalidConfig`] if the configuration is invalid.
    pub fn new(config: SocConfig) -> Result<Self, HwError> {
        config.validate()?;
        let structures = (0..config.num_structures)
            .map(|_| Structure {
                opu: ObservationProbabilityUnit::new(config.datapath_width),
                viterbi: ViterbiUnit::default(),
                frame_start_opu_cycles: 0,
                frame_start_viterbi_cycles: 0,
            })
            .collect();
        Ok(SpeechSoc {
            config,
            power: PowerModel::paper_calibrated(),
            host: HostCpuModel::arm9_embedded(),
            structures,
            flash: FlashMemory::new(config.datapath_width),
            frames: Vec::new(),
            next_structure: 0,
            reported_senones: 0,
            reported_hmms: 0,
        })
    }

    /// The SoC configuration.
    pub fn config(&self) -> &SocConfig {
        &self.config
    }

    /// Cycle budget of one structure per 10 ms frame at the power model's
    /// 50 MHz (500 000).
    pub fn cycle_budget_per_frame() -> CycleCount {
        PowerModel::paper_calibrated()
            .clock
            .cycles_in(FRAME_PERIOD_S)
    }

    /// The flash memory model (for inspecting bandwidth counters).
    pub fn flash(&self) -> &FlashMemory {
        &self.flash
    }

    /// Completed per-frame reports.
    pub fn frame_reports(&self) -> &[FrameReport] {
        &self.frames
    }

    /// Starts a new 10 ms frame: loads the feature vector into every
    /// structure's OP unit and opens a new flash bandwidth window.
    pub fn begin_frame(&mut self, feature: &[f32]) {
        self.flash.begin_frame();
        for s in &mut self.structures {
            s.frame_start_opu_cycles = s.opu.stats().cycles;
            s.frame_start_viterbi_cycles = s.viterbi.stats().cycles;
            s.opu.load_feature_vector(feature);
        }
    }

    /// Scores the frame's active senones into `out` (appended in `ids`
    /// order), splitting them into one contiguous slice per structure, and
    /// charges the streamed parameters to flash.  The caller owns `out`, so
    /// the decode hot path reuses one allocation across frames.  On error
    /// `out` may hold a partial prefix.
    ///
    /// # Errors
    ///
    /// Propagates OP-unit errors ([`HwError::NoFeatureLoaded`],
    /// [`HwError::UnknownId`], [`HwError::ShapeMismatch`]).
    pub fn score_senones_into(
        &mut self,
        model: &AcousticModel,
        ids: &[SenoneId],
        out: &mut Vec<(SenoneId, LogProb)>,
    ) -> Result<(), HwError> {
        let n = self.structures.len();
        out.reserve(ids.len());
        for (chunk_idx, chunk) in ids.chunks(ids.len().div_ceil(n).max(1)).enumerate() {
            let structure = &mut self.structures[chunk_idx % n];
            let before = structure.opu.stats().parameters_streamed;
            for &id in chunk {
                let score = structure.opu.score_senone(model, id)?;
                out.push((id, score));
            }
            let streamed = structure.opu.stats().parameters_streamed - before;
            self.flash.read_parameters(streamed as usize);
        }
        Ok(())
    }

    /// Advances one triphone HMM by one frame on the next structure's Viterbi
    /// unit (round-robin load balancing).
    ///
    /// # Errors
    ///
    /// Propagates [`HwError::ShapeMismatch`] from the Viterbi unit.
    pub fn step_hmm(
        &mut self,
        prev_scores: &[LogProb],
        entry_score: LogProb,
        transitions: &TransitionMatrix,
        senone_scores: &[LogProb],
    ) -> Result<HmmStep, HwError> {
        let idx = self.next_structure;
        self.next_structure = (self.next_structure + 1) % self.structures.len();
        self.structures[idx]
            .viterbi
            .step_hmm(prev_scores, entry_score, transitions, senone_scores)
    }

    /// Records a dictionary / language-model DMA transfer (word-decode
    /// stage): its bytes are read from flash.
    pub fn dma_fetch(&mut self, bytes: u64) {
        self.flash.read_bytes(bytes);
    }

    /// Ends the frame, charging the host-CPU cost of the software stages and
    /// producing a [`FrameReport`].
    pub fn end_frame(&mut self, active_triphones: usize, lattice_edges: usize) -> FrameReport {
        let budget = Self::cycle_budget_per_frame();
        let mut senones = 0u64;
        let mut hmms = 0u64;
        let mut worst_opu = 0u64;
        let mut worst_vit = 0u64;
        for s in &mut self.structures {
            let opu_cycles = s.opu.stats().cycles - s.frame_start_opu_cycles;
            let vit_cycles = s.viterbi.stats().cycles - s.frame_start_viterbi_cycles;
            worst_opu = worst_opu.max(opu_cycles);
            worst_vit = worst_vit.max(vit_cycles);
            // Idle for the rest of the frame: clock gated.
            let busy = opu_cycles + vit_cycles;
            if busy < budget {
                s.opu.idle(budget - busy);
                s.viterbi.idle(budget - busy);
            }
            senones += s.opu.stats().senones_evaluated;
            hmms += s.viterbi.stats().hmm_updates;
        }
        // Cumulative unit stats minus the totals already reported give this
        // frame's counts.
        let frame_senones = senones - self.reported_senones;
        let frame_hmms = hmms - self.reported_hmms;
        self.reported_senones = senones;
        self.reported_hmms = hmms;

        let host_cycles = self
            .host
            .software_cycles_per_frame(active_triphones, lattice_edges);

        let accel_busy = worst_opu + worst_vit;
        let accelerator_rtf = accel_busy as f64 / budget as f64;
        let host_budget = self.host.clock.cycles_in(FRAME_PERIOD_S);
        let host_rtf = host_cycles as f64 / host_budget.max(1) as f64;

        let report = FrameReport {
            senones_scored: frame_senones as usize,
            hmm_updates: frame_hmms as usize,
            opu_cycles: worst_opu,
            viterbi_cycles: worst_vit,
            host_cycles,
            flash_bytes: self.flash.peak_frame_bytes(),
            accelerator_rtf,
            host_rtf,
            real_time: accelerator_rtf <= 1.0 && host_rtf <= 1.0,
        };
        self.frames.push(report);
        report
    }

    /// Finishes the utterance and produces the aggregated report.
    pub fn finish_utterance(&mut self) -> UtteranceReport {
        self.flash.end_utterance();
        let frames = self.frames.len();
        if frames == 0 {
            return UtteranceReport::default();
        }
        let audio_seconds = frames as f64 * FRAME_PERIOD_S;
        let mut opu_activity_sum = 0.0;
        let mut vit_activity_sum = 0.0;
        let mut accel_energy = 0.0;
        for s in &self.structures {
            let opu_act = s.opu.clock_gate().activity_factor();
            let vit_act = s.viterbi.clock_gate().activity_factor();
            opu_activity_sum += opu_act;
            vit_activity_sum += vit_act;
            let elapsed = self.power.clock.cycles_in(audio_seconds);
            accel_energy += self.power.structure_energy_j(elapsed, opu_act, vit_act);
        }
        let n = self.structures.len() as f64;
        let host_energy: f64 = self
            .frames
            .iter()
            .map(|f| self.host.energy_per_frame_j(f.host_cycles))
            .sum();

        let worst_rtf = self
            .frames
            .iter()
            .map(|f| f.accelerator_rtf.max(f.host_rtf))
            .fold(0.0f64, f64::max);
        let mean_rtf = self
            .frames
            .iter()
            .map(|f| f.accelerator_rtf.max(f.host_rtf))
            .sum::<f64>()
            / frames as f64;
        let rt_frames = self.frames.iter().filter(|f| f.real_time).count();

        UtteranceReport {
            frames,
            senones_scored: self.reported_senones,
            hmm_updates: self.reported_hmms,
            mean_senones_per_frame: self.reported_senones as f64 / frames as f64,
            worst_frame_rtf: worst_rtf,
            mean_rtf,
            real_time_fraction: rt_frames as f64 / frames as f64,
            peak_bandwidth_gb_per_s: self.flash.peak_bandwidth_gb_per_s(),
            mean_bandwidth_gb_per_s: self.flash.mean_frame_bytes() / FRAME_PERIOD_S / 1.0e9,
            shard_senones: Vec::new(),
            energy: EnergyReport {
                accelerator_energy_j: accel_energy,
                host_energy_j: host_energy,
                audio_seconds,
                opu_activity: opu_activity_sum / n,
                viterbi_activity: vit_activity_sum / n,
            },
        }
    }

    /// Resets all counters for a fresh utterance (keeps the configuration).
    pub fn reset(&mut self) {
        for s in &mut self.structures {
            s.opu.reset_stats();
            s.viterbi.reset_stats();
            s.frame_start_opu_cycles = 0;
            s.frame_start_viterbi_cycles = 0;
        }
        self.flash.reset();
        self.frames.clear();
        self.next_structure = 0;
        self.reported_senones = 0;
        self.reported_hmms = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asr_acoustic::{AcousticModelConfig, HmmTopology};

    fn model() -> AcousticModel {
        AcousticModel::untrained(AcousticModelConfig::tiny()).unwrap()
    }

    fn soc(n: usize) -> SpeechSoc {
        SpeechSoc::new(SocConfig {
            num_structures: n,
            ..SocConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn config_validation_and_budget() {
        assert!(SocConfig {
            num_structures: 0,
            ..SocConfig::default()
        }
        .validate()
        .is_err());
        assert!(SocConfig {
            num_structures: SocConfig::MAX_STRUCTURES + 1,
            ..SocConfig::default()
        }
        .validate()
        .is_err());
        assert_eq!(SpeechSoc::cycle_budget_per_frame(), 500_000);
        assert!(SpeechSoc::new(SocConfig {
            num_structures: 0,
            ..SocConfig::default()
        })
        .is_err());
    }

    #[test]
    fn frame_flow_produces_consistent_report() {
        let m = model();
        let mut soc = soc(2);
        let x = vec![0.1f32; m.feature_dim()];
        soc.begin_frame(&x);
        let ids: Vec<SenoneId> = (0..10).map(SenoneId).collect();
        let mut scores = Vec::new();
        soc.score_senones_into(&m, &ids, &mut scores).unwrap();
        assert_eq!(scores.len(), 10);
        // Drive a few HMM updates.
        let t = m.transitions();
        let prev = vec![LogProb::new(-3.0); t.num_states()];
        let obs = vec![LogProb::new(-2.0); t.num_states()];
        for _ in 0..4 {
            soc.step_hmm(&prev, LogProb::zero(), t, &obs).unwrap();
        }
        soc.dma_fetch(256);
        let report = soc.end_frame(4, 2);
        assert_eq!(report.senones_scored, 10);
        assert_eq!(report.hmm_updates, 4);
        assert!(report.opu_cycles > 0);
        assert!(report.viterbi_cycles > 0);
        assert!(report.flash_bytes > 0);
        assert!(report.real_time, "tiny frame must be real-time: {report:?}");
        assert!(report.accelerator_rtf < 0.1);
        assert_eq!(soc.frame_reports().len(), 1);
    }

    #[test]
    fn snapshot_fact_round_trips_through_jsonl() {
        let report = UtteranceReport {
            frames: 7,
            senones_scored: 140,
            hmm_updates: 21,
            mean_senones_per_frame: 20.0,
            worst_frame_rtf: 0.25,
            mean_rtf: 0.1,
            real_time_fraction: 1.0,
            shard_senones: vec![90, 50],
            ..UtteranceReport::default()
        };
        let fact = report.snapshot_fact();
        assert_eq!(fact.kind, "hw_report");
        let parsed = asr_obs::Fact::parse_json(&fact.to_json()).unwrap();
        assert_eq!(parsed.field("frames").and_then(|v| v.as_u64()), Some(7));
        assert_eq!(parsed.field("shards").and_then(|v| v.as_u64()), Some(2));
        let share = match parsed.field("worst_shard_share") {
            Some(asr_obs::FieldValue::F64(v)) => *v,
            other => panic!("expected f64 share, got {other:?}"),
        };
        assert!((share - 90.0 / 140.0).abs() < 1e-12);
        // An unsharded offline report omits the optional fields.
        let plain = UtteranceReport::default().snapshot_fact();
        assert!(plain.field("worst_shard_share").is_none());
    }

    #[test]
    fn scores_match_single_unit_reference() {
        // Splitting work across 2 structures must not change the scores.
        let m = model();
        let x: Vec<f32> = (0..m.feature_dim()).map(|d| 0.2 * d as f32).collect();
        let ids: Vec<SenoneId> = (0..m.senones().len() as u32).map(SenoneId).collect();

        let mut soc1 = soc(1);
        soc1.begin_frame(&x);
        let mut a = Vec::new();
        soc1.score_senones_into(&m, &ids, &mut a).unwrap();

        let mut soc2 = soc(2);
        soc2.begin_frame(&x);
        let mut b = Vec::new();
        soc2.score_senones_into(&m, &ids, &mut b).unwrap();

        let mut a_sorted = a.clone();
        a_sorted.sort_by_key(|(id, _)| *id);
        let mut b_sorted = b.clone();
        b_sorted.sort_by_key(|(id, _)| *id);
        for ((ia, sa), (ib, sb)) in a_sorted.iter().zip(&b_sorted) {
            assert_eq!(ia, ib);
            assert_eq!(sa.raw(), sb.raw());
        }
    }

    #[test]
    fn two_structures_halve_per_structure_load() {
        let m = model();
        let x = vec![0.0f32; m.feature_dim()];
        let ids: Vec<SenoneId> = (0..20).map(SenoneId).collect();

        let mut one = soc(1);
        one.begin_frame(&x);
        one.score_senones_into(&m, &ids, &mut Vec::new()).unwrap();
        let r1 = one.end_frame(0, 0);

        let mut two = soc(2);
        two.begin_frame(&x);
        two.score_senones_into(&m, &ids, &mut Vec::new()).unwrap();
        let r2 = two.end_frame(0, 0);

        // The busiest structure in the 2-structure SoC does about half the
        // OPU cycles of the single structure (feature-load overhead aside).
        assert!(r2.opu_cycles < r1.opu_cycles);
        assert!((r2.opu_cycles as f64) > 0.4 * r1.opu_cycles as f64);
        assert!(r2.accelerator_rtf < r1.accelerator_rtf);
    }

    #[test]
    fn utterance_report_aggregates_energy_and_bandwidth() {
        let m = model();
        let mut soc = soc(2);
        let frames = 20;
        let ids: Vec<SenoneId> = (0..m.senones().len() as u32).map(SenoneId).collect();
        for f in 0..frames {
            let x: Vec<f32> = (0..m.feature_dim())
                .map(|d| 0.01 * (f * d) as f32)
                .collect();
            soc.begin_frame(&x);
            soc.score_senones_into(&m, &ids, &mut Vec::new()).unwrap();
            let t = m.transitions();
            let prev = vec![LogProb::new(-2.0); t.num_states()];
            let obs = vec![LogProb::new(-1.0); t.num_states()];
            soc.step_hmm(&prev, LogProb::zero(), t, &obs).unwrap();
            soc.end_frame(2, 1);
        }
        let report = soc.finish_utterance();
        assert_eq!(report.frames, frames);
        assert_eq!(report.senones_scored, (frames * ids.len()) as u64);
        assert_eq!(report.hmm_updates, frames as u64);
        assert!(report.mean_senones_per_frame > 0.0);
        assert!(report.real_time_fraction > 0.99);
        assert!(report.worst_frame_rtf < 1.0);
        assert!(report.mean_rtf <= report.worst_frame_rtf);
        assert!(report.peak_bandwidth_gb_per_s > 0.0);
        assert!(report.mean_bandwidth_gb_per_s <= report.peak_bandwidth_gb_per_s + 1e-12);
        // Power: a lightly loaded SoC must be far below the 2×200 mW ceiling,
        // but above leakage.
        let avg_power = report.energy.average_power_w();
        assert!(avg_power < 0.4, "{avg_power}");
        assert!(avg_power > 2.0 * PowerModel::paper_calibrated().leakage_w * 0.9);
        // Energy is positive and dominated by the accelerator or host, not NaN.
        assert!(report.energy.total_energy_j() > 0.0);

        soc.reset();
        assert!(soc.frame_reports().is_empty());
        assert_eq!(soc.finish_utterance(), UtteranceReport::default());
    }

    #[test]
    fn utterance_reports_merge_for_batches() {
        let m = model();
        let ids: Vec<SenoneId> = (0..m.senones().len() as u32).map(SenoneId).collect();
        let decode = |frames: usize| -> UtteranceReport {
            let mut soc = soc(2);
            for f in 0..frames {
                let x: Vec<f32> = (0..m.feature_dim())
                    .map(|d| 0.02 * (f + d) as f32)
                    .collect();
                soc.begin_frame(&x);
                soc.score_senones_into(&m, &ids, &mut Vec::new()).unwrap();
                soc.end_frame(1, 0);
            }
            soc.finish_utterance()
        };
        let a = decode(10);
        let b = decode(30);
        let merged = a.merge(&b);
        assert_eq!(merged.frames, 40);
        assert_eq!(merged.senones_scored, a.senones_scored + b.senones_scored);
        assert_eq!(merged.hmm_updates, a.hmm_updates + b.hmm_updates);
        // Weighted mean lands between the parts and reproduces the total.
        let total_senones = merged.mean_senones_per_frame * merged.frames as f64;
        assert!((total_senones - merged.senones_scored as f64).abs() < 1e-6);
        assert!(merged.worst_frame_rtf >= a.worst_frame_rtf.max(b.worst_frame_rtf) - 1e-12);
        assert!(
            (merged.energy.audio_seconds - (a.energy.audio_seconds + b.energy.audio_seconds)).abs()
                < 1e-12
        );
        assert!(
            (merged.energy.total_energy_j()
                - (a.energy.total_energy_j() + b.energy.total_energy_j()))
            .abs()
                < 1e-12
        );
        // Merging with an empty report is the identity.
        let empty = UtteranceReport::default();
        assert_eq!(empty.merge(&a), a);
        assert_eq!(a.merge(&empty), a);
    }

    #[test]
    fn parallel_merge_models_shards_over_the_same_audio() {
        let m = model();
        let all: Vec<SenoneId> = (0..m.senones().len() as u32).map(SenoneId).collect();
        // Two shards decode the *same* 10 frames, each scoring half the
        // active set — the sharded-scorer situation.
        let shard_report = |ids: &[SenoneId]| -> UtteranceReport {
            let mut soc = soc(1);
            for f in 0..10 {
                let x: Vec<f32> = (0..m.feature_dim())
                    .map(|d| 0.02 * (f + d) as f32)
                    .collect();
                soc.begin_frame(&x);
                soc.score_senones_into(&m, ids, &mut Vec::new()).unwrap();
                soc.end_frame(1, 0);
            }
            soc.finish_utterance()
        };
        let (left, right) = all.split_at(all.len() / 2);
        let a = shard_report(left);
        let b = shard_report(right);
        let merged = a.merge_parallel(&b);
        // Same audio: frames and audio seconds do NOT multiply by the shard
        // count (the sequential `merge` would report 20 frames here).
        assert_eq!(merged.frames, 10);
        assert!(
            (merged.energy.audio_seconds - a.energy.audio_seconds).abs() < 1e-12,
            "parallel shards must not stretch the audio"
        );
        // Work and energy add; the slowest shard bounds the real-time factor.
        assert_eq!(merged.senones_scored, a.senones_scored + b.senones_scored);
        assert!((merged.worst_frame_rtf - a.worst_frame_rtf.max(b.worst_frame_rtf)).abs() < 1e-12);
        assert!(
            (merged.energy.accelerator_energy_j
                - (a.energy.accelerator_energy_j + b.energy.accelerator_energy_j))
                .abs()
                < 1e-12
        );
        assert!(
            (merged.mean_senones_per_frame * merged.frames as f64 - merged.senones_scored as f64)
                .abs()
                < 1e-6
        );
        // The fold records each shard's senone count, in order, and the
        // worst-shard share reads off the balance.
        assert_eq!(
            merged.shard_senones,
            vec![a.senones_scored, b.senones_scored]
        );
        let share = merged.worst_shard_share().expect("two shards have a share");
        assert!(
            (share - a.senones_scored.max(b.senones_scored) as f64 / merged.senones_scored as f64)
                .abs()
                < 1e-12
        );
        assert!(a.worst_shard_share().is_none(), "leaves are unsharded");
        // A sequential merge of two sharded utterances accumulates the
        // per-shard counts instead of concatenating them.
        let batch = merged.merge(&merged);
        assert_eq!(
            batch.shard_senones,
            vec![2 * a.senones_scored, 2 * b.senones_scored]
        );
        // A mixed merge (sharded machine + unsharded machine) folds the
        // unsharded side in as one shard, keeping the balance total honest.
        let mixed = merged.merge(&a);
        assert_eq!(
            mixed.shard_senones.iter().sum::<u64>(),
            mixed.senones_scored,
            "sum(shard_senones) must stay equal to senones_scored"
        );
        assert_eq!(
            mixed.shard_senones,
            vec![2 * a.senones_scored, b.senones_scored]
        );
        // Two unsharded reports merge without inventing a shard vector.
        assert!(a.merge(&b).shard_senones.is_empty());
        // Concurrent flash streams add up.
        assert!(merged.peak_bandwidth_gb_per_s >= a.peak_bandwidth_gb_per_s);
        // Activity stays a valid factor and the fold is associative.
        assert!(merged.energy.opu_activity > 0.0 && merged.energy.opu_activity <= 1.0);
        let c = shard_report(&all[..3]);
        let left_fold = a.merge_parallel(&b).merge_parallel(&c);
        let right_fold = a.merge_parallel(&b.merge_parallel(&c));
        assert!((left_fold.energy.opu_activity - right_fold.energy.opu_activity).abs() < 1e-9);
        // Identity on empty reports, in both positions.
        let empty = UtteranceReport::default();
        assert_eq!(empty.merge_parallel(&a), a);
        assert_eq!(a.merge_parallel(&empty), a);
    }

    #[test]
    fn hmm_updates_work_for_all_topologies() {
        let mut soc = soc(2);
        for topo in HmmTopology::ALL {
            let t = TransitionMatrix::bakis(topo, 0.5).unwrap();
            let n = topo.num_states();
            let step = soc
                .step_hmm(
                    &vec![LogProb::new(-1.0); n],
                    LogProb::zero(),
                    &t,
                    &vec![LogProb::new(-1.0); n],
                )
                .unwrap();
            assert_eq!(step.scores().len(), n);
        }
    }
}
