//! Multi-model serving quickstart: two very different recognisers — a
//! synthetic dictation task and a voice-command model trained from rendered
//! audio — co-resident in one `AsrServer`, with routed traffic, per-model
//! stats/hardware reports, and a lock-free hot-swap under load.
//!
//! The flow:
//!
//! 1. build a "dictation" recogniser over a synthetic task (hardware backend),
//! 2. train the "voice_command" model from synthesised audio
//!    ([`ScenarioVoiceTask::train`], the `voice_command` example's task),
//! 3. register both in a [`ModelRegistry`] and spawn one two-worker server,
//! 4. submit mixed traffic routed by model id (and tagged by tenant),
//! 5. hot-swap the dictation model to a sharded backend mid-service,
//! 6. read per-model stats and hardware reports.
//!
//! Run with: `cargo run --example multi_model --release`

use lvcsr::corpus::{
    align_wer, AudioSynthesizer, ScenarioVoiceTask, TaskConfig, TaskGenerator, WerScore,
};
use lvcsr::decoder::{DecoderConfig, Recognizer};
use lvcsr::frontend::Frontend;
use lvcsr::serve::{AsrServer, DecodeRequest, ModelRegistry, ServeConfig};
use lvcsr::LvcsrError;
use std::time::Duration;

fn main() -> Result<(), LvcsrError> {
    // 1. The "dictation" model: a synthetic task on a two-structure SoC.
    let dictation_task = TaskGenerator::new(2024).generate(&TaskConfig::small())?;
    let dictation = |config: DecoderConfig| {
        Recognizer::new(
            dictation_task.acoustic_model.clone(),
            dictation_task.dictionary.clone(),
            dictation_task.language_model.clone(),
            config,
        )
    };

    // 2. The "voice_command" model, trained from rendered audio, and the
    //    frontend its features must be extracted with.
    println!("training the voice-command model from synthesised audio...");
    let commands = ScenarioVoiceTask::train(11)?;
    let fe = Frontend::new(ScenarioVoiceTask::frontend_config())?;
    let command_dict = commands.dictionary.clone();
    let command_model = Recognizer::new(
        commands.acoustic_model,
        commands.dictionary,
        commands.language_model,
        DecoderConfig::hardware(1),
    )?;

    // 3. One server, both models.  Unnamed requests route to "dictation";
    //    the per-model quota keeps either workload from starving the other.
    let registry = ModelRegistry::new()
        .register("dictation", dictation(DecoderConfig::hardware(2))?)?
        .register("voice_command", command_model)?
        .default_model("dictation");
    let server = AsrServer::spawn(
        registry,
        ServeConfig::default()
            .max_pending(64)
            .max_batch(8)
            .max_batch_delay(Duration::from_millis(2))
            .workers(2)
            .model_quota(48),
    )?;

    // 4. Mixed traffic: 16 dictation utterances (default route, so plain
    //    feature submissions still work) interleaved with spoken commands
    //    routed by model id and tagged by tenant.
    let synth = AudioSynthesizer::default_16khz();
    let dictation_set = dictation_task.synthesize_test_set(16, 3, 0.3);
    let mut dictation_pending = Vec::new();
    let mut command_pending = Vec::new();
    let mut command_frames = 0usize;
    for (i, (features, _)) in dictation_set.iter().enumerate() {
        dictation_pending.push(server.submit(features.clone())?);
        let (word, spelling, _) = command_dict
            .iter()
            .nth(i % command_dict.len())
            .expect("command in dictionary");
        let audio = synth.render_words(&command_dict, &[word], 1000 + i as u64);
        let features = fe.process(&audio);
        command_frames += features.len();
        command_pending.push((
            spelling,
            server.submit(
                DecodeRequest::new(features)
                    .model("voice_command")
                    .tenant("robot-7"),
            )?,
        ));
    }

    // 5. Hot-swap the dictation model to a 2-shard backend while the queue
    //    is still draining: in-flight requests finish on v1, new admissions
    //    decode on v2, and nothing is lost on either side.
    let v2 = server.swap_model("dictation", dictation(DecoderConfig::sharded_hardware(2))?)?;
    println!("hot-swapped 'dictation' to version {v2} (sharded backend) under load");
    let after_swap: Vec<_> = dictation_set
        .iter()
        .map(|(features, _)| server.submit(features.clone()))
        .collect::<Result<_, _>>()?;

    // 6. Collect both workloads and read per-model telemetry.
    let mut wer = WerScore::default();
    for ((_, reference), future) in dictation_set.iter().zip(dictation_pending) {
        wer = wer.merge(&align_wer(reference, &future.wait()?.hypothesis.words));
    }
    for ((_, reference), future) in dictation_set.iter().zip(after_swap) {
        wer = wer.merge(&align_wer(reference, &future.wait()?.hypothesis.words));
    }
    let mut correct = 0usize;
    let command_total = command_pending.len();
    for (spelling, future) in command_pending {
        let result = future.wait()?;
        if result.hypothesis.text.first().map(String::as_str) == Some(spelling) {
            correct += 1;
        }
    }

    // Each model's report covers exactly the frames submitted to it: the
    // dictation set twice (before and after the swap) and every command.
    let dictation_frames: usize = dictation_set.iter().map(|(f, _)| f.len()).sum();
    for name in server.models() {
        let stats = server.model_stats(&name).expect("registered model");
        let report = server.model_hardware_report(&name).expect("served model");
        let submitted = match name.as_str() {
            "dictation" => 2 * dictation_frames,
            _ => command_frames,
        };
        assert_eq!(report.frames, submitted, "model '{name}' report frames");
        println!(
            "\nmodel '{name}' (version {}):",
            server.model_version(&name).expect("version")
        );
        println!(
            "  served       : {} utterances in {} micro-batches (largest {})",
            stats.completed, stats.batches, stats.largest_batch
        );
        let ms = |d: Option<Duration>| d.map_or(f64::NAN, |d| d.as_secs_f64() * 1e3);
        println!(
            "  latency      : queue p50 {:.1} ms, service p50 {:.1} ms",
            ms(stats.queue_wait_p50),
            ms(stats.service_p50)
        );
        println!(
            "  hardware     : {:.1} s audio, {} frames, {:.3} W average",
            report.energy.audio_seconds,
            report.frames,
            report.energy.average_power_w()
        );
    }
    println!("\ndictation word error rate : {:.1}%", 100.0 * wer.wer());
    println!("command accuracy          : {correct}/{command_total}");
    server.close();
    Ok(())
}
