//! Multi-model serving quickstart: two very different recognisers — a
//! synthetic dictation task and a voice-command model trained from rendered
//! audio — co-resident in one `AsrServer`, with routed traffic, per-model
//! stats/hardware reports, and a lock-free hot-swap under load.
//!
//! The flow:
//!
//! 1. build a "dictation" recogniser over a synthetic task (hardware backend),
//! 2. train a compact "voice_command" model from synthesised audio (the
//!    `voice_command` example's pipeline, abbreviated),
//! 3. register both in a [`ModelRegistry`] and spawn one two-worker server,
//! 4. submit mixed traffic routed by model id (and tagged by tenant),
//! 5. hot-swap the dictation model to a sharded backend mid-service,
//! 6. read per-model stats and hardware reports.
//!
//! Run with: `cargo run --example multi_model --release`

use lvcsr::acoustic::{
    AcousticModel, AcousticModelConfig, GaussianMixture, GmmTrainer, HmmTopology, PhoneId,
    SenoneId, SenonePool, TrainerConfig, TransitionMatrix, Triphone, TriphoneInventory,
};
use lvcsr::corpus::{align_wer, AudioSynthesizer, TaskConfig, TaskGenerator, WerScore};
use lvcsr::decoder::{DecoderConfig, Recognizer};
use lvcsr::frontend::{Frontend, FrontendConfig};
use lvcsr::lexicon::{Dictionary, NGramModel, Pronunciation};
use lvcsr::serve::{AsrServer, DecodeRequest, ModelRegistry, ServeConfig};
use lvcsr::LvcsrError;
use std::time::Duration;

/// The command vocabulary: (spelling, phone sequence).
const COMMANDS: &[(&str, &[u16])] = &[
    ("forward", &[1, 2, 3]),
    ("back", &[4, 5]),
    ("left", &[6, 7, 8]),
    ("right", &[9, 10, 11]),
];

/// Trains the compact voice-command recogniser from rendered audio, returning
/// it with the frontend and dictionary needed to feed it at decode time.
fn train_voice_command() -> Result<(Recognizer, Frontend, Dictionary), LvcsrError> {
    let synth = AudioSynthesizer::default_16khz();
    // Static cepstra only, no per-utterance mean normalisation: the phone
    // models are trained on isolated phone renderings, so the features of a
    // full command must be extracted the same way.
    let fe = Frontend::new(FrontendConfig {
        use_delta: false,
        use_delta_delta: false,
        cepstral_mean_norm: false,
        ..FrontendConfig::default()
    })?;
    let dim = fe.config().feature_dim();
    let phones: Vec<u16> = {
        let mut p: Vec<u16> = COMMANDS
            .iter()
            .flat_map(|(_, ph)| ph.iter().copied())
            .collect();
        p.sort_unstable();
        p.dedup();
        p
    };
    let num_phones = 1 + *phones.iter().max().unwrap() as usize;

    let trainer = GmmTrainer::new(TrainerConfig {
        num_components: 2,
        kmeans_iterations: 6,
        em_iterations: 3,
        ..TrainerConfig::default()
    });
    let states = 3usize;
    let mut mixtures: Vec<GaussianMixture> = Vec::new();
    let mut inventory = TriphoneInventory::new(HmmTopology::Three);
    for &phone in &phones {
        let mut per_state: Vec<Vec<Vec<f32>>> = vec![Vec::new(); states];
        for take in 0..6u64 {
            let audio = synth.render_phones(&[PhoneId(phone)], take * 31 + phone as u64);
            let frames = fe.process(&audio);
            let third = frames.len() / states;
            for (i, f) in frames.into_iter().enumerate() {
                let state = (i / third.max(1)).min(states - 1);
                per_state[state].push(f);
            }
        }
        let senone_base = mixtures.len() as u32;
        for state_frames in per_state {
            mixtures.push(trainer.fit(&state_frames)?);
        }
        inventory.add(
            Triphone::context_independent(PhoneId(phone)),
            (0..states as u32)
                .map(|k| SenoneId(senone_base + k))
                .collect(),
        )?;
    }
    let num_senones = mixtures.len();
    let model = AcousticModel::new(
        AcousticModelConfig {
            num_senones,
            num_components: 2,
            feature_dim: dim,
            topology: HmmTopology::Three,
            num_phones,
            self_loop_prob: 0.7,
        },
        SenonePool::new(mixtures)?,
        inventory,
        TransitionMatrix::bakis(HmmTopology::Three, 0.7)?,
    )?;
    let mut dictionary = Dictionary::new();
    for (spelling, phones) in COMMANDS {
        dictionary.add_word(
            spelling,
            Pronunciation::new(phones.iter().map(|&p| PhoneId(p)).collect()),
        )?;
    }
    let lm = NGramModel::uniform(dictionary.len())?;
    let recognizer = Recognizer::new(model, dictionary.clone(), lm, DecoderConfig::hardware(1))?;
    Ok((recognizer, fe, dictionary))
}

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

    // 2. The "voice_command" model, trained from rendered audio.
    println!("training the voice-command model from synthesised audio...");
    let (command_model, fe, command_dict) = train_voice_command()?;

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
    for (i, (features, _)) in dictation_set.iter().enumerate() {
        dictation_pending.push(server.submit(features.clone())?);
        let (spelling, _) = COMMANDS[i % COMMANDS.len()];
        let word = command_dict.id_of(spelling).expect("command in dictionary");
        let audio = synth.render_words(&command_dict, &[word], 1000 + i as u64);
        command_pending.push((
            spelling,
            server.submit(
                DecodeRequest::new(fe.process(&audio))
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

    for name in server.models() {
        let stats = server.model_stats(&name).expect("registered model");
        let report = server.model_hardware_report(&name).expect("served model");
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
