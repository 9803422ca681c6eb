//! Voice-command pipeline from raw audio: the paper's motivating use case of
//! controlling a device by speech on a low-power platform.
//!
//! This example runs the *whole* chain with no shortcuts:
//!
//! 1. train the command task ([`lvcsr::corpus::ScenarioVoiceTask::train`]):
//!    phones rendered to waveforms, MFCC features extracted with the
//!    software frontend (Figure 1's first box), senone Gaussians fitted to
//!    them with the k-means/EM trainer, and a recogniser's dictionary and
//!    uniform language model over the commands,
//! 2. render fresh spoken commands to audio
//!    ([`lvcsr::corpus::AudioSynthesizer`]),
//! 3. decode them from audio, through the task's frontend, on a
//!    single-structure hardware model.
//!
//! Run with: `cargo run --example voice_command --release`

use lvcsr::corpus::{AudioSynthesizer, ScenarioVoiceTask};
use lvcsr::decoder::{DecoderConfig, Recognizer};
use lvcsr::frontend::Frontend;
use lvcsr::LvcsrError;

fn main() -> Result<(), LvcsrError> {
    println!("training the command phone models from synthesised audio...");
    let task = ScenarioVoiceTask::train(11)?;
    let fe = Frontend::new(ScenarioVoiceTask::frontend_config())?;
    let recognizer = Recognizer::new(
        task.acoustic_model,
        task.dictionary.clone(),
        task.language_model,
        DecoderConfig::hardware(1),
    )?;

    println!("\nrecognising spoken commands (fresh renderings, decoded from audio):");
    let synth = AudioSynthesizer::default_16khz();
    let mut correct = 0usize;
    for (i, (word, spelling, _)) in task.dictionary.iter().enumerate() {
        let audio = synth.render_words(&task.dictionary, &[word], 1000 + i as u64);
        let result = recognizer.decode_audio(&audio, &fe)?;
        let ok = result.hypothesis.text.first().map(String::as_str) == Some(spelling);
        if ok {
            correct += 1;
        }
        println!(
            "  said '{spelling}' -> heard '{}' {}",
            result.hypothesis.to_sentence(),
            if ok { "✓" } else { "✗" }
        );
    }
    println!(
        "\ncommand accuracy: {}/{} with a single 50 MHz structure",
        correct,
        task.dictionary.len()
    );
    Ok(())
}
