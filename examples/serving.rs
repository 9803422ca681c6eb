//! Serving quickstart: an async batched front over a sharded multi-SoC
//! scorer, with end-to-end telemetry.  32 utterances are enqueued into the
//! bounded request queue, two decoder workers take them in flushes and
//! decode each on a warm decoder from their own pool, every request is traced
//! admission-to-finish into a JSONL run directory, and the serving stats
//! plus the stream-level hardware report show what the sharded machines
//! did.
//!
//! Run with: `cargo run --example serving --release`
//!
//! The run directory defaults to `target/obs-demo`; set `LVCSR_OBS_DIR` to
//! write the `facts.jsonl` somewhere else (CI points it at a scratch dir and
//! validates the document with the `obs_validate` tool).

use lvcsr::corpus::{align_wer, TaskConfig, TaskGenerator, WerScore};
use lvcsr::decoder::{DecoderConfig, Recognizer};
use lvcsr::obs::{ObsSink, RunDirSink, Telemetry};
use lvcsr::serve::{AsrServer, ServeConfig};
use lvcsr::LvcsrError;
use std::sync::Arc;
use std::time::Duration;

fn main() -> Result<(), LvcsrError> {
    // 1. A synthetic task and a recogniser whose backend shards the
    //    active-senone set across four SoC instances.
    let task = TaskGenerator::new(2024).generate(&TaskConfig::small())?;
    let recognizer = Recognizer::new(
        task.acoustic_model.clone(),
        task.dictionary.clone(),
        task.language_model.clone(),
        DecoderConfig::sharded_hardware(4),
    )?;

    // 2. Telemetry: an append-only run directory receiving one JSONL fact
    //    per span event, and the hardware report at the end.  The server is the only holder of the
    //    handle; a shard pool spun up by a request's decode is reported on
    //    that request's trace.
    let obs_dir = std::env::var("LVCSR_OBS_DIR").unwrap_or_else(|_| "target/obs-demo".to_string());
    // The sink appends; start each demo run from a fresh document so the
    // file always holds exactly one validatable run.
    let _ = std::fs::remove_file(std::path::Path::new(&obs_dir).join("facts.jsonl"));
    let sink = Arc::new(RunDirSink::create(&obs_dir).map_err(|e| {
        lvcsr::serve::ServeError::InvalidConfig(format!("cannot create run dir {obs_dir}: {e}"))
    })?);
    let telemetry = Telemetry::to_sink(sink.clone() as Arc<dyn ObsSink>);

    // 3. The serving front: a bounded queue (typed backpressure when full)
    //    feeding two decoder workers, each taking flushes of up to 8
    //    requests (or what arrived within 2 ms) and decoding them on warm
    //    sharded decoders it keeps across flushes.
    let server = AsrServer::spawn_observed(
        recognizer,
        ServeConfig::default()
            .max_pending(64)
            .max_batch(8)
            .max_batch_delay(Duration::from_millis(2))
            .workers(2),
        telemetry,
    )?;

    // 4. Enqueue 32 utterances; every submit returns a future immediately.
    let test_set = task.synthesize_test_set(32, 3, 0.3);
    let pending: Vec<_> = test_set
        .iter()
        .map(|(features, _)| server.submit(features.clone()))
        .collect::<Result<_, _>>()?;

    // 5. Collect results (DecodeFuture also implements std::future::Future
    //    for async callers; wait() is the blocking form).
    let mut wer = WerScore::default();
    for ((_, reference), future) in test_set.iter().zip(pending) {
        let result = future.wait()?;
        wer = wer.merge(&align_wer(reference, &result.hypothesis.words));
    }

    // 6. What the serving layer and the sharded machine did.
    let stats = server.stats();
    let report = server.hardware_report().expect("hardware stream report");
    println!("served                  : {} utterances", stats.completed);
    println!(
        "micro-batching          : {} batches, mean size {:.1}, largest {}",
        stats.batches,
        stats.mean_batch_size(),
        stats.largest_batch
    );
    let ms = |d: Option<Duration>| d.map_or(f64::NAN, |d| d.as_secs_f64() * 1e3);
    println!(
        "queue wait              : p50 {:.1} ms, p99 {:.1} ms",
        ms(stats.queue_wait_p50),
        ms(stats.queue_wait_p99)
    );
    println!(
        "service time            : p50 {:.1} ms, p99 {:.1} ms",
        ms(stats.service_p50),
        ms(stats.service_p99)
    );
    println!("word error rate         : {:.1}%", 100.0 * wer.wer());
    println!(
        "audio processed         : {:.1} s in {} frames",
        report.energy.audio_seconds, report.frames
    );
    println!(
        "frames meeting 10 ms    : {:.1}% (worst shard rtf {:.3})",
        100.0 * report.real_time_fraction,
        report.worst_frame_rtf
    );
    if let Some(share) = report.worst_shard_share() {
        println!(
            "shard balance           : {:?} senones/shard (worst share {:.1}%, {:.1}% = perfect)",
            report.shard_senones,
            100.0 * share,
            100.0 / report.shard_senones.len() as f64
        );
    }
    println!(
        "average power, 4 shards : {:.3} W (paper budget: 0.400 W per fully active SoC)",
        report.energy.average_power_w()
    );

    // The report adds every served utterance, and keeps one senone count
    // per shard of the 4-shard machine.
    let submitted: usize = test_set.iter().map(|(features, _)| features.len()).sum();
    assert_eq!(report.frames, submitted, "report covers every served frame");
    assert_eq!(report.shard_senones.len(), 4, "one count per shard");

    // 7. The run directory ends with the hardware report next to the
    //    per-request spans.
    sink.record(&report.snapshot_fact());
    server.close();
    sink.flush();
    assert_eq!(sink.dropped(), 0, "telemetry sink dropped facts");
    println!(
        "\ntelemetry               : run directory {}",
        sink.facts_path().display()
    );
    Ok(())
}
