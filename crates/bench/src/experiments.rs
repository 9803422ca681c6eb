//! The per-experiment harness functions (see the experiment index in
//! DESIGN.md).  Every function is deterministic given its arguments.

use asr_acoustic::{
    quantize_model, AcousticModel, AcousticModelConfig, StorageLayout, FRAME_PERIOD_S,
};
use asr_baseline::ComparisonTable;
use asr_core::{DecoderConfig, GmmSelectionConfig, Recognizer, ScoringBackendKind};
use asr_corpus::{align_wer, SyntheticTask, WerScore, Wsj5kTask};
use asr_float::{LogAddTable, MantissaWidth};
use asr_hw::{
    AreaBudget, HostCpuModel, ObservationProbabilityUnit, PowerModel, SpeechSoc, ViterbiUnit,
};
use asr_lexicon::DictionaryStorage;

/// One row of the paper's memory/bandwidth table (E1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct E1Row {
    /// Mantissa width.
    pub width: MantissaWidth,
    /// Paper: acoustic-model memory in MB.
    pub paper_memory_mb: f64,
    /// Measured (from the storage layout / flash packer).
    pub measured_memory_mb: f64,
    /// Paper: worst-case bandwidth in GB/s.
    pub paper_bandwidth_gbps: f64,
    /// Measured worst-case bandwidth in GB/s.
    pub measured_bandwidth_gbps: f64,
}

/// E1 — memory and bandwidth versus mantissa width (paper Section IV table).
pub fn e1_memory_bandwidth() -> Vec<E1Row> {
    let cfg = AcousticModelConfig::paper_default();
    let paper = [
        (MantissaWidth::FULL, 15.16, 1.516),
        (MantissaWidth::BITS_15, 11.37, 1.137),
        (MantissaWidth::BITS_12, 9.95, 0.995),
    ];
    paper
        .iter()
        .map(|&(width, mb, gbps)| {
            let layout = StorageLayout::for_config(&cfg, width);
            E1Row {
                width,
                paper_memory_mb: mb,
                measured_memory_mb: layout.model_megabytes(),
                paper_bandwidth_gbps: gbps,
                measured_bandwidth_gbps: layout.worst_case_bandwidth_gb_per_s(),
            }
        })
        .collect()
}

/// E2 — synthesis results: power and area of the dedicated structures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct E2Report {
    /// Paper: power of one structure at 50 MHz (W).
    pub paper_structure_power_w: f64,
    /// Model: power of one fully-active structure (W).
    pub model_structure_power_w: f64,
    /// Paper: total power of two structures (W).
    pub paper_total_power_w: f64,
    /// Model: total power of two fully-active structures (W).
    pub model_total_power_w: f64,
    /// Paper: area of one structure (mm²).
    pub paper_structure_area_mm2: f64,
    /// Model: area of one structure (mm²).
    pub model_structure_area_mm2: f64,
    /// Paper: total area (mm²).
    pub paper_total_area_mm2: f64,
    /// Model: total area of two structures (mm²).
    pub model_total_area_mm2: f64,
    /// Average power measured on a real decode (clock gating active), W.
    pub measured_decode_power_w: f64,
    /// Measured OP-unit activity factor on that decode.
    pub measured_opu_activity: f64,
}

/// E2 — power/area calibration plus a measured clock-gated operating point.
pub fn e2_power_area() -> E2Report {
    let power = PowerModel::paper_calibrated();
    let area = AreaBudget::PAPER;
    // Measure a small hardware decode to get a realistic activity factor.
    let task = build_eval_task(250, 7);
    let rec = recognizer(&task, DecoderConfig::hardware(2)).expect("valid recogniser");
    let set = task.synthesize_test_set(3, 3, 0.3);
    let mut total_power = 0.0;
    let mut total_activity = 0.0;
    let mut n = 0.0;
    for (features, _) in &set {
        let result = rec.decode_features(features).expect("decode succeeds");
        if let Some(hw) = result.hardware {
            total_power += hw.energy.average_power_w();
            total_activity += hw.energy.opu_activity;
            n += 1.0;
        }
    }
    E2Report {
        paper_structure_power_w: 0.200,
        model_structure_power_w: power.structure_full_power_w(),
        paper_total_power_w: 0.400,
        model_total_power_w: 2.0 * power.structure_full_power_w(),
        paper_structure_area_mm2: 2.2,
        model_structure_area_mm2: area.structure_mm2(),
        paper_total_area_mm2: 4.4,
        model_total_area_mm2: area.total_mm2(2),
        measured_decode_power_w: if n > 0.0 { total_power / n } else { 0.0 },
        measured_opu_activity: if n > 0.0 { total_activity / n } else { 0.0 },
    }
}

/// One row of the WER-versus-mantissa experiment (E3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct E3Row {
    /// Mantissa width of the stored acoustic model and datapath.
    pub width: MantissaWidth,
    /// Measured word error rate on the synthetic WSJ5K-like test set.
    pub wer: f64,
    /// The paper's bound for this width (it reports "< 10 %" for 23 and 12
    /// bits), if stated.
    pub paper_bound: Option<f64>,
    /// Number of reference words scored.
    pub reference_words: usize,
}

/// E3 — WER versus mantissa width on the synthetic WSJ5K-like task.
///
/// `scale` divides the 5 000-word vocabulary (larger = smaller/faster task);
/// `utterances` × `words_per_utterance` defines the test set.
pub fn e3_wer_vs_mantissa(
    scale: usize,
    utterances: usize,
    words_per_utterance: usize,
    noise_std: f32,
) -> Vec<E3Row> {
    let task = build_eval_task(scale, 13);
    let set = task.synthesize_test_set(utterances, words_per_utterance, noise_std);
    MantissaWidth::PAPER_SWEEP
        .iter()
        .map(|&width| {
            let model = quantize_model(&task.acoustic_model, width).expect("quantise");
            let mut config = DecoderConfig::hardware(2);
            if let ScoringBackendKind::Hardware(soc) = &mut config.backend {
                soc.datapath_width = width;
            }
            let rec = Recognizer::new(
                model,
                task.dictionary.clone(),
                task.language_model.clone(),
                config,
            )
            .expect("valid recogniser");
            let mut total = WerScore::default();
            for (features, reference) in &set {
                let result = rec.decode_features(features).expect("decode succeeds");
                total = total.merge(&align_wer(reference, &result.hypothesis.words));
            }
            E3Row {
                width,
                wer: total.wer(),
                paper_bound: match width.bits() {
                    23 | 12 => Some(0.10),
                    _ => None,
                },
                reference_words: total.reference_words,
            }
        })
        .collect()
}

/// E4 — active senone fraction with and without word-decode feedback.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct E4Report {
    /// Mean fraction of the senone inventory evaluated per frame with the
    /// feedback path enabled (the paper's architecture).
    pub with_feedback_mean: f64,
    /// Worst-frame fraction with feedback.
    pub with_feedback_peak: f64,
    /// Fraction evaluated when the feedback is disabled (always 1.0: every
    /// senone scored every frame).
    pub without_feedback_mean: f64,
    /// The paper's claim: active senones stay below this fraction.
    pub paper_claim_upper_bound: f64,
    /// Dictionary storage sizing that accompanies the claim (the 11 Mb
    /// figure).
    pub dictionary_megabits: f64,
}

/// E4 — word-decode feedback keeps the active senone set small.
pub fn e4_active_senones(scale: usize, utterances: usize) -> E4Report {
    let task = build_eval_task(scale, 21);
    let set = task.synthesize_test_set(utterances, 4, 0.3);

    let run = |feedback: bool| -> (f64, f64) {
        let mut config = DecoderConfig::hardware(2);
        config.gmm_selection = GmmSelectionConfig {
            senone_feedback: feedback,
            ..GmmSelectionConfig::default()
        };
        let rec = recognizer(&task, config).expect("valid recogniser");
        let mut mean = 0.0;
        let mut peak = 0.0f64;
        for (features, _) in &set {
            let result = rec.decode_features(features).expect("decode succeeds");
            mean += result.stats.mean_active_senone_fraction();
            peak = peak.max(result.stats.peak_active_senone_fraction());
        }
        (mean / set.len() as f64, peak)
    };
    let (with_mean, with_peak) = run(true);
    let (without_mean, _) = run(false);
    E4Report {
        with_feedback_mean: with_mean,
        with_feedback_peak: with_peak,
        without_feedback_mean: without_mean,
        paper_claim_upper_bound: 0.5,
        dictionary_megabits: DictionaryStorage::paper_estimate().total_megabits(),
    }
}

/// E5 — real-time capacity of the 50 MHz structures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct E5Report {
    /// Cycles one OP unit needs per senone (paper geometry).
    pub cycles_per_senone: u64,
    /// Senones one structure can score in a 10 ms frame at 50 MHz.
    pub senones_per_frame_one_structure: usize,
    /// Senones two structures can score (the paper's configuration).
    pub senones_per_frame_two_structures: usize,
    /// That capacity as a fraction of the 6 000-senone inventory — the paper
    /// requires the active fraction to stay below ~50 % for real time.
    pub capacity_fraction_of_inventory: f64,
    /// Worst-frame real-time factor measured on a synthetic decode with two
    /// structures.
    pub measured_worst_rtf: f64,
    /// Fraction of frames meeting the 10 ms budget on that decode.
    pub measured_real_time_fraction: f64,
}

/// E5 — two structures support real time at the feedback-limited workload.
pub fn e5_realtime_capacity(scale: usize) -> E5Report {
    let paper = AcousticModelConfig::paper_default();
    let per_senone =
        ObservationProbabilityUnit::cycles_per_senone(paper.feature_dim, paper.num_components);
    let one = ObservationProbabilityUnit::senone_capacity(
        paper.feature_dim,
        paper.num_components,
        500_000,
    );
    let two = 2 * one;

    let task = build_eval_task(scale, 31);
    let rec = recognizer(&task, DecoderConfig::hardware(2)).expect("valid recogniser");
    let set = task.synthesize_test_set(3, 4, 0.3);
    let mut worst = 0.0f64;
    let mut rt_frac = 0.0;
    for (features, _) in &set {
        let result = rec.decode_features(features).expect("decode succeeds");
        if let Some(hw) = result.hardware {
            worst = worst.max(hw.worst_frame_rtf);
            rt_frac += hw.real_time_fraction;
        }
    }
    E5Report {
        cycles_per_senone: per_senone,
        senones_per_frame_one_structure: one,
        senones_per_frame_two_structures: two,
        capacity_fraction_of_inventory: two as f64 / paper.num_senones as f64,
        measured_worst_rtf: worst,
        measured_real_time_fraction: rt_frac / set.len() as f64,
    }
}

/// E6 — the Section V related-work comparison.
pub fn e6_comparison(active_senones_per_frame: usize) -> ComparisonTable {
    ComparisonTable::section_v(
        &AcousticModelConfig::paper_default(),
        active_senones_per_frame,
    )
}

/// One row of the Conditional Down Sampling ablation (E7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct E7Row {
    /// CDS period (1 = off; 2 = score every other frame; …).
    pub cds_period: usize,
    /// Word error rate at this setting.
    pub wer: f64,
    /// Mean senones scored per frame.
    pub mean_senones_per_frame: f64,
    /// Mean OP-unit activity factor.
    pub opu_activity: f64,
    /// Average SoC power on the decode, watts.
    pub average_power_w: f64,
}

/// E7 — Conditional Down Sampling "has the potential to cut the power usage
/// by a considerable margin": the power/accuracy trade-off of the frame layer.
pub fn e7_cds_ablation(scale: usize, utterances: usize) -> Vec<E7Row> {
    let task = build_eval_task(scale, 41);
    let set = task.synthesize_test_set(utterances, 4, 0.3);
    [1usize, 2, 3]
        .iter()
        .map(|&period| {
            let mut config = DecoderConfig::hardware(2);
            config.gmm_selection = GmmSelectionConfig::with_cds(period);
            let rec = recognizer(&task, config).expect("valid recogniser");
            let mut wer = WerScore::default();
            let mut senones = 0.0;
            let mut activity = 0.0;
            let mut power = 0.0;
            let mut n = 0.0;
            for (features, reference) in &set {
                let result = rec.decode_features(features).expect("decode succeeds");
                wer = wer.merge(&align_wer(reference, &result.hypothesis.words));
                senones += result.stats.mean_senones_scored();
                if let Some(hw) = result.hardware {
                    activity += hw.energy.opu_activity;
                    power += hw.energy.average_power_w();
                    n += 1.0;
                }
            }
            E7Row {
                cds_period: period,
                wer: wer.wer(),
                mean_senones_per_frame: senones / set.len() as f64,
                opu_activity: if n > 0.0 { activity / n } else { 0.0 },
                average_power_w: if n > 0.0 { power / n } else { 0.0 },
            }
        })
        .collect()
}

/// F1 — per-stage breakdown of one decoded frame (Figure 1's pipeline).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct F1Report {
    /// Mean OP-unit cycles per frame (busiest structure).
    pub opu_cycles_per_frame: f64,
    /// Mean Viterbi-unit cycles per frame (busiest structure).
    pub viterbi_cycles_per_frame: f64,
    /// Mean host-CPU cycles per frame (frontend + word decode + best path).
    pub host_cycles_per_frame: f64,
    /// Mean flash bytes per frame.
    pub flash_bytes_per_frame: f64,
    /// Accelerator cycle budget per frame (50 MHz × 10 ms).
    pub cycle_budget: u64,
}

/// F1 — stage-by-stage workload of the Figure 1 pipeline on a real decode.
pub fn f1_pipeline_breakdown(scale: usize) -> F1Report {
    let task = build_eval_task(scale, 51);
    let rec = recognizer(&task, DecoderConfig::hardware(2)).expect("valid recogniser");
    let (features, _) = task.synthesize_utterance(4, 0.3, 5);
    let result = rec.decode_features(&features).expect("decode succeeds");
    // Recover per-frame means from the per-utterance report by decoding once
    // and averaging the per-frame numbers the stats carry.
    let hw = result.hardware.expect("hardware decode");
    // Approximate per-frame unit cycles from activity factors and the budget.
    let budget = SpeechSoc::cycle_budget_per_frame();
    F1Report {
        opu_cycles_per_frame: hw.energy.opu_activity * budget as f64,
        viterbi_cycles_per_frame: hw.energy.viterbi_activity * budget as f64,
        host_cycles_per_frame: HostCpuModel::arm9_embedded().software_cycles_per_frame(
            result.stats.mean_active_hmms() as usize,
            result.lattice.len() / result.stats.num_frames().max(1),
        ) as f64,
        flash_bytes_per_frame: hw.mean_bandwidth_gb_per_s * 1.0e9 * FRAME_PERIOD_S,
        cycle_budget: budget,
    }
}

/// F2 — Observation Probability unit microarchitecture figures (Figure 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct F2Report {
    /// Log-add SRAM size in bytes (paper: 512).
    pub logadd_sram_bytes: usize,
    /// Maximum absolute error of the table-based log-add.
    pub logadd_max_error: f32,
    /// Cycles per Gaussian (39 dimensions) including pipeline fill.
    pub cycles_per_gaussian: u64,
    /// Cycles per senone (8 Gaussians + mixture log-adds).
    pub cycles_per_senone: u64,
    /// Largest senone-score deviation of the hardware path from the exact
    /// software reference on a probe model.
    pub max_score_deviation: f32,
}

/// F2 — characterises the OP unit against its reference.
pub fn f2_opu_figures() -> F2Report {
    let table = LogAddTable::new();
    let paper = AcousticModelConfig::paper_default();

    // Probe accuracy on a small model.
    let model = AcousticModel::untrained(AcousticModelConfig::tiny()).expect("tiny model");
    let mut opu = ObservationProbabilityUnit::new(MantissaWidth::FULL);
    let x: Vec<f32> = (0..model.feature_dim())
        .map(|d| 0.21 * d as f32 - 0.4)
        .collect();
    opu.load_feature_vector(&x);
    let mut max_dev = 0.0f32;
    for i in 0..model.senones().len() {
        let id = asr_acoustic::SenoneId(i as u32);
        let hw = opu.score_senone(&model, id).expect("score").raw();
        let sw = model.score_senone(id, &x).expect("score").raw();
        max_dev = max_dev.max((hw - sw).abs());
    }
    F2Report {
        logadd_sram_bytes: LogAddTable::SRAM_BYTES,
        logadd_max_error: table.max_abs_error(),
        cycles_per_gaussian: ObservationProbabilityUnit::cycles_per_gaussian(paper.feature_dim),
        cycles_per_senone: ObservationProbabilityUnit::cycles_per_senone(
            paper.feature_dim,
            paper.num_components,
        ),
        max_score_deviation: max_dev,
    }
}

/// One row of the Viterbi-unit characterisation (Figure 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct F3Row {
    /// Number of emitting HMM states.
    pub states: usize,
    /// Cycles per HMM per frame on the unit.
    pub cycles_per_hmm: u64,
    /// HMM updates per 10 ms frame one unit sustains at 50 MHz.
    pub hmms_per_frame: u64,
}

/// F3 — Viterbi unit throughput for the 3/5/7-state topologies it supports,
/// at what the unit charges for a Bakis step.
pub fn f3_viterbi_figures() -> Vec<F3Row> {
    [3usize, 5, 7]
        .iter()
        .map(|&states| {
            // Bakis: a self-loop into every state, a forward transition
            // into every state but the first.
            let cycles = ViterbiUnit::cycles_per_hmm(states, 2 * states - 1);
            F3Row {
                states,
                cycles_per_hmm: cycles,
                hmms_per_frame: 500_000 / cycles.max(1),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// shared helpers
// ---------------------------------------------------------------------------

/// Builds the scaled WSJ5K-like evaluation task used by the decode-based
/// experiments.
pub fn build_eval_task(scale: usize, seed: u64) -> SyntheticTask {
    Wsj5kTask::evaluation(scale, seed).expect("valid task configuration")
}

/// Builds the task for the batch-decoding benches: a heavy acoustic model
/// (paper-like 39-dim, 8-component mixtures over 40 phones → 120 senones)
/// with deliberately *short* utterances, so the per-utterance model-cache
/// build cost is a large fraction of each decode — the regime a streaming
/// server lives in and the one `decode_batch` exists to amortise.
pub fn batch_bench_task(seed: u64) -> SyntheticTask {
    let config = asr_corpus::TaskConfig {
        vocabulary_size: 30,
        num_phones: 40,
        feature_dim: 39,
        components_per_senone: 8,
        word_length_range: (2, 3),
        ..asr_corpus::TaskConfig::small()
    };
    asr_corpus::TaskGenerator::new(seed)
        .generate(&config)
        .expect("valid batch bench task")
}

/// Builds the task for the serving/sharding benches: like
/// [`batch_bench_task`] but with a larger senone inventory (50 phones → 150
/// senones) and heavier mixtures (12 components), so each frame's active-set
/// scoring is heavy enough for a sharded scorer's thread-level parallelism
/// to pay for its spawn overhead — the regime a saturated serving node lives
/// in.
pub fn serve_bench_task(seed: u64) -> SyntheticTask {
    let config = asr_corpus::TaskConfig {
        vocabulary_size: 30,
        num_phones: 50,
        feature_dim: 39,
        components_per_senone: 12,
        word_length_range: (2, 3),
        ..asr_corpus::TaskConfig::small()
    };
    asr_corpus::TaskGenerator::new(seed)
        .generate(&config)
        .expect("valid serve bench task")
}

/// Builds a recogniser over a synthetic task.
pub fn recognizer(
    task: &SyntheticTask,
    config: DecoderConfig,
) -> Result<Recognizer, asr_core::DecodeError> {
    Recognizer::new(
        task.acoustic_model.clone(),
        task.dictionary.clone(),
        task.language_model.clone(),
        config,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_reproduces_paper_table() {
        for row in e1_memory_bandwidth() {
            assert!(
                (row.measured_memory_mb - row.paper_memory_mb).abs() < 0.02,
                "{row:?}"
            );
            assert!(
                (row.measured_bandwidth_gbps - row.paper_bandwidth_gbps).abs() < 0.002,
                "{row:?}"
            );
        }
    }

    #[test]
    fn e2_matches_synthesis_numbers() {
        let r = e2_power_area();
        assert!((r.model_structure_power_w - r.paper_structure_power_w).abs() < 1e-9);
        assert!((r.model_total_power_w - r.paper_total_power_w).abs() < 1e-9);
        assert!((r.model_structure_area_mm2 - r.paper_structure_area_mm2).abs() < 1e-9);
        assert!((r.model_total_area_mm2 - r.paper_total_area_mm2).abs() < 1e-9);
        // Clock gating keeps the measured decode power below the ceiling.
        assert!(r.measured_decode_power_w < r.model_total_power_w);
        assert!(r.measured_opu_activity <= 1.0);
    }

    #[test]
    fn e3_wer_stays_low_at_all_paper_widths() {
        let rows = e3_wer_vs_mantissa(400, 3, 3, 0.3);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            if let Some(bound) = row.paper_bound {
                assert!(
                    row.wer < bound,
                    "{} WER {} exceeds paper bound {bound}",
                    row.width,
                    row.wer
                );
            }
            assert!(row.reference_words > 0);
        }
        // 12-bit mantissa is not catastrophically worse than full precision.
        assert!(rows[2].wer <= rows[0].wer + 0.15);
    }

    #[test]
    fn e4_feedback_keeps_active_fraction_below_claim() {
        let r = e4_active_senones(400, 2);
        assert!(r.with_feedback_mean < r.paper_claim_upper_bound, "{r:?}");
        assert!(r.with_feedback_mean < r.without_feedback_mean);
        assert!((r.without_feedback_mean - 1.0).abs() < 1e-9);
        assert!((r.dictionary_megabits - 11.0).abs() < 0.2);
    }

    #[test]
    fn e5_capacity_matches_paper_argument() {
        let r = e5_realtime_capacity(400);
        assert!(r.cycles_per_senone > 300 && r.cycles_per_senone < 450);
        assert!(r.senones_per_frame_two_structures > 2000);
        assert!(r.capacity_fraction_of_inventory < 0.5);
        assert!(r.measured_worst_rtf < 1.0, "{r:?}");
        assert!(r.measured_real_time_fraction > 0.99);
    }

    #[test]
    fn e6_table_has_expected_shape() {
        let t = e6_comparison(2_500);
        assert_eq!(t.rows().len(), 5);
        assert!(t.ours().is_real_time());
    }

    #[test]
    fn e7_cds_reduces_work() {
        let rows = e7_cds_ablation(400, 2);
        assert_eq!(rows.len(), 3);
        // More aggressive CDS → fewer senones scored and no higher activity.
        assert!(rows[1].mean_senones_per_frame < rows[0].mean_senones_per_frame);
        assert!(rows[2].mean_senones_per_frame < rows[1].mean_senones_per_frame);
        assert!(rows[1].opu_activity <= rows[0].opu_activity + 1e-9);
        assert!(rows[1].average_power_w <= rows[0].average_power_w + 1e-9);
    }

    #[test]
    fn figure_reports() {
        let f2 = f2_opu_figures();
        assert_eq!(f2.logadd_sram_bytes, 512);
        assert!(f2.logadd_max_error < 0.02);
        assert!(f2.max_score_deviation < 0.1);
        assert!(f2.cycles_per_senone > f2.cycles_per_gaussian);
        let f3 = f3_viterbi_figures();
        assert_eq!(f3.len(), 3);
        assert!(f3[0].cycles_per_hmm < f3[2].cycles_per_hmm);
        assert!(f3[0].hmms_per_frame > f3[2].hmms_per_frame);
        let f1 = f1_pipeline_breakdown(400);
        assert!(f1.opu_cycles_per_frame > 0.0);
        assert!(f1.host_cycles_per_frame > 0.0);
        assert_eq!(f1.cycle_budget, 500_000);
    }
}
