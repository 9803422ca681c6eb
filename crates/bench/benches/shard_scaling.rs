//! Shard dispatch-overhead bench: the same 200-frame scoring workload
//! driven through a 4-shard `ShardedScorer` two ways —
//!
//! * `pool_200f`   — the lane threads (spawned once per scorer, each owning
//!   a contiguous group of shards, meeting the caller in lock-step on
//!   per-lane frame counters),
//! * `inline_200f` — sequential fan-out on the calling thread (the
//!   dispatch-free floor).
//!
//! The shards run the *software* backend on purpose: its per-senone cost is
//! tiny, so these numbers are dominated by dispatch overhead rather than
//! arithmetic.  The measured per-frame pool dispatch overhead over the
//! inline floor is recorded into the `LVCSR_BENCH_JSON` document as
//! `shard_scaling/pool_dispatch_overhead_per_frame_seconds`.

use asr_acoustic::{AcousticModel, AcousticModelConfig, SenoneId};
use asr_core::{GmmSelectionConfig, ScoringBackendKind, SenoneScorer, ShardedScorer};
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::{Duration, Instant};

const FRAMES: usize = 200;
const SHARDS: usize = 4;

fn bench_model() -> AcousticModel {
    AcousticModel::untrained(AcousticModelConfig::tiny()).expect("bench model")
}

fn build_sharded(parallel: bool) -> ShardedScorer {
    let selection = GmmSelectionConfig::default();
    let shards: Vec<Box<dyn SenoneScorer>> = (0..SHARDS)
        .map(|_| {
            ScoringBackendKind::Software
                .build_scorer(&selection)
                .expect("software shard")
        })
        .collect();
    ShardedScorer::new(shards)
        .expect("sharded scorer")
        .with_parallelism(parallel)
}

/// One utterance: `FRAMES` frames, every senone active each frame — the
/// exact per-frame call sequence the decode loop makes, minus the search.
fn run_utterance(scorer: &mut ShardedScorer, model: &AcousticModel, ids: &[SenoneId], x: &[f32]) {
    for _ in 0..FRAMES {
        scorer.begin_frame(x);
        scorer.score_senones(model, ids, x).expect("score");
        scorer.end_frame(0, 0);
    }
    assert!(
        scorer.finish_utterance().is_none(),
        "software shards keep no report"
    );
}

fn bench_shard_scaling(c: &mut Criterion) {
    let model = bench_model();
    let ids: Vec<SenoneId> = (0..model.senones().len() as u32).map(SenoneId).collect();
    let x: Vec<f32> = (0..model.feature_dim()).map(|d| 0.1 * d as f32).collect();

    let mut group = c.benchmark_group("shard_scaling");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    let mut pooled = build_sharded(true);
    group.bench_function("pool_200f", |b| {
        b.iter(|| run_utterance(&mut pooled, &model, &ids, &x))
    });

    let mut inline = build_sharded(false);
    group.bench_function("inline_200f", |b| {
        b.iter(|| run_utterance(&mut inline, &model, &ids, &x))
    });

    group.finish();
    record_dispatch_metadata(&model, &ids, &x);
}

/// Records two pseudo-entries next to the criterion results:
///
/// * the shared `host/cpus` metadata record (see
///   `asr_bench::bench_json::record_host_metadata`), naming the CPU count
///   the numbers were measured with;
/// * `shard_scaling/pool_dispatch_overhead_per_frame_seconds` — pooled
///   minus inline wall-clock per frame on a directly timed run (clamped at
///   zero: on multi-core hosts the pool can beat the inline floor outright).
fn record_dispatch_metadata(model: &AcousticModel, ids: &[SenoneId], x: &[f32]) {
    asr_bench::bench_json::record_host_metadata();
    let path = match std::env::var("LVCSR_BENCH_JSON") {
        Ok(p) if !p.is_empty() => p,
        _ => return,
    };
    let time_utterances = |parallel: bool| -> f64 {
        let mut scorer = build_sharded(parallel);
        run_utterance(&mut scorer, model, ids, x); // warm-up
        let rounds = 3;
        let start = Instant::now();
        for _ in 0..rounds {
            run_utterance(&mut scorer, model, ids, x);
        }
        start.elapsed().as_secs_f64() / (rounds * FRAMES) as f64
    };
    let pooled = time_utterances(true);
    let inline = time_utterances(false);
    let overhead = (pooled - inline).max(0.0);
    if let Err(e) = asr_bench::bench_json::record_entry(
        &path,
        "shard_scaling/pool_dispatch_overhead_per_frame_seconds",
        overhead,
    ) {
        eprintln!("warning: could not record pool dispatch overhead in {path}: {e}");
    }
}

criterion_group!(benches, bench_shard_scaling);
criterion_main!(benches);
