//! WSJ5K-style evaluation: word error rate versus stored-mantissa width,
//! the experiment behind the paper's claim that "the length of mantissa can be
//! reduced by couple of bits without compromising the accuracy of speech
//! recognition", together with the memory/bandwidth the narrower model needs.
//!
//! Run with: `cargo run --example wsj5k_eval --release`

use lvcsr::acoustic::{quantize_model, AcousticModelConfig, StorageLayout};
use lvcsr::corpus::{align_wer, WerScore, Wsj5kTask};
use lvcsr::decoder::{DecoderConfig, Recognizer, ScoringBackendKind};
use lvcsr::float::MantissaWidth;
use lvcsr::LvcsrError;

fn main() -> Result<(), LvcsrError> {
    // A scaled synthetic stand-in for the WSJ5K test set (the structure of the
    // task matches the paper's geometry; see DESIGN.md for the substitution).
    let task = Wsj5kTask::evaluation(100, 7)?;
    let test_set = task.synthesize_test_set(8, 4, 0.3);
    println!(
        "synthetic WSJ task: {} words, trigram LM, {} senones",
        task.dictionary.len(),
        task.acoustic_model.senones().len()
    );
    println!(
        "{:<16} {:>8} {:>16} {:>18} {:>14}",
        "mantissa", "WER", "model size (MB)", "bandwidth (GB/s)", "paper bound"
    );

    for width in MantissaWidth::PAPER_SWEEP {
        let model = quantize_model(&task.acoustic_model, width)?;
        let mut config = DecoderConfig::hardware(2);
        if let ScoringBackendKind::Hardware(soc) = &mut config.backend {
            soc.datapath_width = width;
        }
        let recognizer = Recognizer::new(
            model,
            task.dictionary.clone(),
            task.language_model.clone(),
            config,
        )?;

        // One batched decode per width: the whole test set shares one scorer,
        // so the SoC model is built once instead of once per utterance.
        let utterances: Vec<&[Vec<f32>]> = test_set.iter().map(|(f, _)| f.as_slice()).collect();
        let results = recognizer.decode_batch(&utterances)?;
        let mut wer = WerScore::default();
        for ((_, reference), result) in test_set.iter().zip(&results) {
            wer = wer.merge(&align_wer(reference, &result.hypothesis.words));
        }
        // Storage/bandwidth at the *paper's* full 6000-senone geometry.
        let layout = StorageLayout::for_config(&AcousticModelConfig::paper_default(), width);
        let bound = match width.bits() {
            23 | 12 => "< 10%",
            _ => "-",
        };
        println!(
            "{:<16} {:>7.1}% {:>16.2} {:>18.3} {:>14}",
            format!("{width}"),
            100.0 * wer.wer(),
            layout.model_megabytes(),
            layout.worst_case_bandwidth_gb_per_s(),
            bound
        );
    }
    Ok(())
}
