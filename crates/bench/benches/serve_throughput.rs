//! Serving/sharding throughput bench: a 32-utterance workload decoded on
//! (a) one SoC scorer, (b) a 4-shard `ShardedScorer` (4 SoC instances, the
//! active-senone set split across the calling thread and at most
//! `cpus − 1` lane threads, each owning a group of shards; `decode_batch`
//! builds a fresh scorer, so every iteration pays its lane spawn), (c) the
//! same sharded scorer fed through the `asr-serve` queue + micro-batcher,
//! and (d) the serving front at 1, 2 and 4 decoder workers over plain SoC
//! scorers — the inter-utterance parallelism axis on its own.
//!
//! The `bench_gate` acceptance checks read (a)/(b) — the sharded scorer
//! must beat the single-SoC path — and the `workers{1,4}` pair from (d):
//! four workers must beat one on multi-core measurement hosts, or the
//! multi-worker claim is regressing.  An open-loop arrival smoke
//! (`open_loop_workers2_32`) replays a fixed pseudo-random arrival schedule
//! through a two-worker server, covering the worker wake-up path that
//! closed-loop floods never exercise, and `two_model_mixed_32` floods a
//! two-model registry with interleaved per-model traffic to guard the
//! routing and per-model decoder-pool overhead.

use asr_bench::experiments::{recognizer, serve_bench_task};
use asr_core::DecoderConfig;
use asr_serve::{AsrServer, DecodeRequest, ModelRegistry, ServeConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

fn bench_serve_throughput(c: &mut Criterion) {
    let task = serve_bench_task(13);
    let utterances: Vec<Vec<Vec<f32>>> = (0..32)
        .map(|i| task.synthesize_utterance(1, 0.3, 200 + i as u64).0)
        .collect();

    let mut group = c.benchmark_group("serve_throughput");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    let single = recognizer(&task, DecoderConfig::hardware(2)).expect("recogniser");
    group.bench_function("single_soc_32", |b| {
        b.iter(|| single.decode_batch(&utterances).expect("decode").len())
    });

    let sharded = recognizer(&task, DecoderConfig::sharded_hardware(4)).expect("recogniser");
    group.bench_function("sharded4_soc_32", |b| {
        b.iter(|| sharded.decode_batch(&utterances).expect("decode").len())
    });

    // The full serving path: 32 submissions through the bounded queue, each
    // decoded on the worker's warm pooled sharded decoder.
    let serve_config = ServeConfig::default()
        .max_pending(64)
        .max_batch(8)
        .max_batch_delay(Duration::from_millis(1));
    let server = AsrServer::spawn(
        recognizer(&task, DecoderConfig::sharded_hardware(4)).expect("recogniser"),
        serve_config.clone(),
    )
    .expect("server");
    let flood = |server: &AsrServer| {
        let pending: Vec<_> = utterances
            .iter()
            .map(|u| server.submit(u.clone()).expect("submit"))
            .collect();
        pending
            .into_iter()
            .map(|f| f.wait().expect("decode").hypothesis.words.len())
            .sum::<usize>()
    };
    group.bench_function("queue_sharded4_soc_32", |b| b.iter(|| flood(&server)));
    drop(server);

    // The worker-scaling curve: the same closed-loop 32-utterance flood
    // through 1, 2 and 4 decoder workers, each worker over its own plain SoC
    // scorer, so worker count is the only variable.  `bench_gate` compares
    // the 4-worker and 1-worker points.
    for workers in [1usize, 2, 4] {
        let server = AsrServer::spawn(
            recognizer(&task, DecoderConfig::hardware(2)).expect("recogniser"),
            serve_config.clone().workers(workers),
        )
        .expect("server");
        group.bench_function(format!("workers{workers}_soc_32"), |b| {
            b.iter(|| flood(&server))
        });
    }

    // Two models co-resident in one server, mixed traffic: 16 requests to
    // each, interleaved, through two workers.  Routing, per-model admission
    // and mixed-model flushes over per-version pooled decoders are all on
    // the hot path here, so the variant guards the multi-model layer's
    // overhead.
    let other_task = serve_bench_task(14);
    let other_utterances: Vec<Vec<Vec<f32>>> = (0..16)
        .map(|i| other_task.synthesize_utterance(1, 0.3, 400 + i as u64).0)
        .collect();
    let registry = ModelRegistry::new()
        .register(
            "dictation",
            recognizer(&task, DecoderConfig::hardware(2)).expect("recogniser"),
        )
        .expect("register")
        .register(
            "command",
            recognizer(&other_task, DecoderConfig::hardware(2)).expect("recogniser"),
        )
        .expect("register")
        .default_model("dictation");
    let two_model_server =
        AsrServer::spawn(registry, serve_config.clone().workers(2)).expect("server");
    group.bench_function("two_model_mixed_32", |b| {
        b.iter(|| {
            let pending: Vec<_> = utterances
                .iter()
                .take(16)
                .zip(&other_utterances)
                .flat_map(|(a, b)| {
                    [
                        two_model_server
                            .submit(DecodeRequest::new(a.clone()).model("dictation"))
                            .expect("submit"),
                        two_model_server
                            .submit(DecodeRequest::new(b.clone()).model("command"))
                            .expect("submit"),
                    ]
                })
                .collect();
            pending
                .into_iter()
                .map(|f| f.wait().expect("decode").hypothesis.words.len())
                .sum::<usize>()
        })
    });
    drop(two_model_server);

    // Open-loop arrival smoke: requests arrive on a fixed pseudo-random
    // schedule (deterministic seed, so baseline and PR replay the same
    // arrivals) instead of a closed-loop flood — idle workers must wake per
    // arrival rather than coast on an always-full queue.
    let mut rng = StdRng::seed_from_u64(0x5e21);
    let gaps: Vec<Duration> = (0..utterances.len())
        .map(|_| Duration::from_micros(rng.gen_range(0u64..150)))
        .collect();
    let open_loop_server = AsrServer::spawn(
        recognizer(&task, DecoderConfig::hardware(2)).expect("recogniser"),
        serve_config.workers(2),
    )
    .expect("server");
    group.bench_function("open_loop_workers2_32", |b| {
        b.iter(|| {
            let pending: Vec<_> = utterances
                .iter()
                .zip(&gaps)
                .map(|(u, gap)| {
                    std::thread::sleep(*gap);
                    open_loop_server.submit(u.clone()).expect("submit")
                })
                .collect();
            pending
                .into_iter()
                .map(|f| f.wait().expect("decode").hypothesis.words.len())
                .sum::<usize>()
        })
    });
    drop(open_loop_server);

    group.finish();
    // The gate's host-sensitive checks (shard scale-out, multi-worker
    // serving) need the *measurement* host's CPU count next to the results.
    asr_bench::bench_json::record_host_metadata();
}

criterion_group!(benches, bench_serve_throughput);
criterion_main!(benches);
