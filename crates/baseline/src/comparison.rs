//! The Section V comparison table (experiment E6).

use crate::mathew::MathewAccelerator;
use crate::software::{SoftwareBaseline, SoftwareCostModel, SoftwarePlatform};
use asr_acoustic::AcousticModelConfig;
use asr_acoustic::StorageLayout;
use asr_float::MantissaWidth;
use asr_hw::PowerModel;

/// One row of the related-work comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonRow {
    /// System name.
    pub system: String,
    /// Real-time factor on the paper's 6 000-senone task (≤ 1 is real time).
    pub real_time_factor: f64,
    /// Decoding power, watts.
    pub power_w: f64,
    /// Vocabulary size supported.
    pub vocabulary: usize,
    /// Whether the system models triphones (context-dependent phones).
    pub triphone_based: bool,
    /// Worst-case acoustic-model bandwidth, GB/s.
    pub bandwidth_gb_per_s: f64,
}

impl ComparisonRow {
    /// Whether this row meets real time.
    pub fn is_real_time(&self) -> bool {
        self.real_time_factor <= 1.0
    }
}

/// The full comparison table.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ComparisonTable {
    rows: Vec<ComparisonRow>,
}

impl ComparisonTable {
    /// Builds the Section V comparison for a given acoustic-model geometry and
    /// a measured (or assumed) active-senone count per frame for the paper's
    /// own architecture.
    pub fn section_v(geometry: &AcousticModelConfig, active_senones_per_frame: usize) -> Self {
        let mut rows = Vec::new();

        // This paper's architecture: 2 structures, feedback-limited workload,
        // reduced bandwidth proportional to the active fraction.
        let ours_power = 2.0 * PowerModel::paper_calibrated().structure_full_power_w();
        let layout = StorageLayout::for_config(geometry, MantissaWidth::FULL);
        let ours_bandwidth =
            layout.active_bandwidth_gb_per_s(active_senones_per_frame, geometry.num_senones);
        // Capacity argument: two OP units at 50 MHz cover ~2800 senones/frame.
        let capacity = 2 * asr_hw::ObservationProbabilityUnit::senone_capacity(
            geometry.feature_dim,
            geometry.num_components,
            500_000,
        );
        let ours_rtf = active_senones_per_frame as f64 / capacity.max(1) as f64;
        rows.push(ComparisonRow {
            system: "This paper (2 × OPU + Viterbi @ 50 MHz)".into(),
            real_time_factor: ours_rtf,
            power_w: ours_power,
            vocabulary: 20_000,
            triphone_based: true,
            bandwidth_gb_per_s: ours_bandwidth,
        });

        // Desktop software decoder.
        let desktop = SoftwareBaseline::new(
            SoftwarePlatform::DesktopPentium,
            SoftwareCostModel::scalar_decoder(),
            geometry,
        )
        .evaluate_full_evaluation();
        rows.push(ComparisonRow {
            system: "Software decoder on desktop (Sphinx/HTK class)".into(),
            real_time_factor: desktop.real_time_factor,
            power_w: desktop.average_power_w,
            vocabulary: 20_000,
            triphone_based: true,
            bandwidth_gb_per_s: layout.worst_case_bandwidth_gb_per_s(),
        });

        // Embedded software decoder.
        let embedded = SoftwareBaseline::new(
            SoftwarePlatform::EmbeddedArm,
            SoftwareCostModel::scalar_decoder(),
            geometry,
        )
        .evaluate_full_evaluation();
        rows.push(ComparisonRow {
            system: "Software decoder on embedded ARM".into(),
            real_time_factor: embedded.real_time_factor,
            power_w: embedded.average_power_w,
            vocabulary: 20_000,
            triphone_based: true,
            bandwidth_gb_per_s: layout.worst_case_bandwidth_gb_per_s(),
        });

        // Mathew et al. CASES'03.
        let mathew = MathewAccelerator::published();
        rows.push(ComparisonRow {
            system: "Mathew et al. (CASES'03) accelerator".into(),
            real_time_factor: mathew.real_time_factor(geometry),
            power_w: mathew.system_power_w(),
            vocabulary: 20_000,
            triphone_based: true,
            bandwidth_gb_per_s: mathew.bandwidth_gb_per_s(geometry),
        });

        // Nedevschi et al. DAC'05: very low power but small-vocabulary and not
        // triphone based (figures from the paper's characterisation).
        rows.push(ComparisonRow {
            system: "Nedevschi et al. (DAC'05) low-cost recogniser".into(),
            real_time_factor: 1.0,
            power_w: 0.05,
            vocabulary: 200,
            triphone_based: false,
            bandwidth_gb_per_s: 0.01,
        });

        ComparisonTable { rows }
    }

    /// The rows.
    pub fn rows(&self) -> &[ComparisonRow] {
        &self.rows
    }

    /// The row describing this paper's architecture.
    pub fn ours(&self) -> &ComparisonRow {
        &self.rows[0]
    }

    /// Renders the table as fixed-width text (used by the experiment binary).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<48} {:>8} {:>10} {:>10} {:>10} {:>10}\n",
            "system", "RTF", "power(W)", "vocab", "triphone", "BW(GB/s)"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<48} {:>8.2} {:>10.3} {:>10} {:>10} {:>10.3}\n",
                r.system,
                r.real_time_factor,
                r.power_w,
                r.vocabulary,
                if r.triphone_based { "yes" } else { "no" },
                r.bandwidth_gb_per_s
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> ComparisonTable {
        ComparisonTable::section_v(&AcousticModelConfig::paper_default(), 2_500)
    }

    #[test]
    fn has_all_five_systems() {
        let t = table();
        assert_eq!(t.rows().len(), 5);
        assert!(t.to_text().lines().count() >= 6);
        assert!(t.to_text().contains("Mathew"));
    }

    #[test]
    fn paper_claims_hold_in_the_comparison() {
        let t = table();
        let ours = t.ours();
        // We are real-time at the feedback-limited workload.
        assert!(ours.is_real_time(), "rtf {}", ours.real_time_factor);
        // We are the lowest-power *large-vocabulary* real-time system.
        for r in t.rows().iter().skip(1) {
            if r.vocabulary >= 5_000 && r.is_real_time() {
                assert!(
                    ours.power_w < r.power_w,
                    "{} at {} W beats us at {} W",
                    r.system,
                    r.power_w,
                    ours.power_w
                );
            }
        }
        // The Nedevschi row is lower power but not large-vocabulary/triphone.
        let nedevschi = &t.rows()[4];
        assert!(nedevschi.power_w < ours.power_w);
        assert!(nedevschi.vocabulary < 1_000);
        assert!(!nedevschi.triphone_based);
        // Our feedback cuts bandwidth below the full-evaluation systems.
        let desktop = &t.rows()[1];
        assert!(ours.bandwidth_gb_per_s < desktop.bandwidth_gb_per_s);
        let mathew = &t.rows()[3];
        assert!(ours.bandwidth_gb_per_s < mathew.bandwidth_gb_per_s);
        // The embedded software port is nowhere near real time.
        let embedded = &t.rows()[2];
        assert!(!embedded.is_real_time());
    }
}
