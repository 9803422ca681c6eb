//! Power/real-time design-space exploration: how many accelerator structures
//! are needed, what Conditional Down Sampling buys, and how the architecture
//! compares to the software baselines of the paper's Section V.
//!
//! Run with: `cargo run --example power_explorer --release`

use lvcsr::acoustic::AcousticModelConfig;
use lvcsr::baseline::{ComparisonTable, SoftwareBaseline, SoftwareCostModel, SoftwarePlatform};
use lvcsr::corpus::Wsj5kTask;
use lvcsr::decoder::{DecoderConfig, GmmSelectionConfig, Recognizer};
use lvcsr::hw::{ObservationProbabilityUnit, PowerModel};
use lvcsr::LvcsrError;

fn main() -> Result<(), LvcsrError> {
    let geometry = AcousticModelConfig::paper_default();
    let power = PowerModel::paper_calibrated();

    // --- capacity: how many senones fit in a 10 ms frame per structure? ---
    let per_structure = ObservationProbabilityUnit::senone_capacity(
        geometry.feature_dim,
        geometry.num_components,
        500_000,
    );
    println!("-- capacity at 50 MHz --");
    for structures in 1..=4 {
        let capacity = structures * per_structure;
        println!(
            "{structures} structure(s): {capacity:>5} senones/frame ({:>4.1}% of 6000), {:.3} W fully active, {:.1} mm2",
            100.0 * capacity as f64 / geometry.num_senones as f64,
            structures as f64 * power.structure_full_power_w(),
            structures as f64 * power.area.structure_mm2(),
        );
    }

    // --- measured decode: CDS ablation on a synthetic task ---
    println!("\n-- Conditional Down Sampling on a synthetic task (2 structures) --");
    let task = Wsj5kTask::evaluation(200, 3)?;
    let test_set = task.synthesize_test_set(3, 4, 0.3);
    for period in [1usize, 2, 3] {
        let mut config = DecoderConfig::hardware(2);
        config.gmm_selection = GmmSelectionConfig::with_cds(period);
        let recognizer = Recognizer::new(
            task.acoustic_model.clone(),
            task.dictionary.clone(),
            task.language_model.clone(),
            config,
        )?;
        let mut senones = 0.0f64;
        let mut watts = 0.0f64;
        let mut n = 0.0f64;
        for (features, _) in &test_set {
            let result = recognizer.decode_features(features)?;
            senones += result.stats.mean_senones_scored();
            if let Some(hw) = result.hardware {
                watts += hw.energy.average_power_w();
                n += 1.0;
            }
        }
        println!(
            "CDS period {period}: {:>6.1} senones scored/frame, average SoC power {:.3} W",
            senones / test_set.len() as f64,
            watts / n.max(1.0)
        );
    }

    // --- the Section V comparison ---
    println!("\n-- related work comparison (paper Section V) --");
    print!(
        "{}",
        ComparisonTable::section_v(&geometry, 2 * per_structure).to_text()
    );

    // --- why software alone is not enough ---
    println!("\n-- software-only decoding of the full 6000-senone task --");
    for platform in [
        SoftwarePlatform::EmbeddedArm,
        SoftwarePlatform::DesktopPentium,
    ] {
        let report =
            SoftwareBaseline::new(platform, SoftwareCostModel::scalar_decoder(), &geometry)
                .evaluate_full_evaluation();
        println!(
            "{:?}: RTF {:.2}, {:.2} W, {:.2} J per second of audio",
            platform,
            report.real_time_factor,
            report.average_power_w,
            report.energy_per_audio_second_j
        );
    }
    Ok(())
}
