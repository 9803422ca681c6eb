//! Telemetry-overhead bench: the same 32-utterance decode loop measured
//! three ways — bare (the pre-telemetry hot path), with the serving front's
//! full instrumentation sequence against a *disabled* `Telemetry` handle,
//! and with an enabled handle recording every span fact into a memory sink.
//!
//! The `bench_gate` acceptance check judges both pairs as same-run ratios
//! (machine-independent): disabled telemetry must stay within 2 % of the
//! bare loop — telemetry that is off must be indistinguishable from
//! telemetry that does not exist — and enabled within 15 %, so turning
//! tracing on for a production incident never costs real throughput.
//!
//! A 2 % bound cannot be read off the three criterion means: sequential
//! measurement windows on a busy host drift by far more than 2 % between
//! benches.  The gated numbers are therefore *paired*: the bench interleaves
//! the three variants round-robin, takes per-round overhead ratios (drift
//! hits both sides of a round almost equally and cancels), and records the
//! median ratio under `obs_overhead/disabled_over_baseline` and
//! `obs_overhead/enabled_over_baseline` — the entries `bench_gate` enforces.
//! The three criterion means stay informational.

use asr_bench::experiments::{batch_bench_task, recognizer};
use asr_core::{DecoderConfig, Recognizer};
use asr_obs::{LatencyHistogram, Outcome, RequestKind, SpanEvent, Telemetry, TraceId};
use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The per-request instrumentation the serving front performs: its
/// per-model counters (relaxed atomics and a latency histogram) plus a
/// telemetry pipeline.  One instance per bench variant, built outside the
/// measured loop — exactly like a server building its model counters once
/// at spawn.
struct Instrumentation {
    telemetry: Telemetry,
    submitted: AtomicU64,
    completed: AtomicU64,
    service: LatencyHistogram,
}

impl Instrumentation {
    fn new(telemetry: Telemetry) -> Self {
        Instrumentation {
            telemetry,
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            service: LatencyHistogram::new(),
        }
    }
}

/// One utterance through the decode hot path.  With `instr` `None` this is
/// the bare pre-telemetry decode; with `Some` it performs the same
/// instrumentation sequence the serving front's worker does around it:
/// counter increments, a service-latency histogram record, and the
/// admitted → enqueued → decode-started → finished span emissions.
///
/// `inline(never)` pins all three variants to the *same* machine code: the
/// measured difference is then the instrumentation work itself, not the
/// code-alignment lottery of three separately monomorphised bench closures.
#[inline(never)]
fn decode_one(rec: &Recognizer, features: &[Vec<f32>], instr: Option<&Instrumentation>) -> usize {
    let started = instr.map(|i| {
        i.submitted.fetch_add(1, Ordering::Relaxed);
        Instant::now()
    });
    let trace = match instr {
        Some(i) if i.telemetry.is_enabled() => {
            let trace = i.telemetry.begin_trace();
            i.telemetry.emit(
                trace,
                &SpanEvent::Admitted {
                    kind: RequestKind::Decode,
                    model: None,
                    tenant: None,
                },
            );
            trace
        }
        _ => TraceId::NONE,
    };
    if let Some(i) = instr {
        i.telemetry.emit(trace, &SpanEvent::Enqueued { depth: 1 });
        i.telemetry
            .emit(trace, &SpanEvent::DecodeStarted { worker: 0 });
    }
    let result = rec.decode_features(features).expect("decode");
    if let Some(i) = instr {
        i.service
            .record(started.expect("timed with instrumentation").elapsed());
        i.completed.fetch_add(1, Ordering::Relaxed);
        i.telemetry.emit(
            trace,
            &SpanEvent::Finished {
                outcome: Outcome::Completed,
                frames: features.len(),
            },
        );
    }
    result.hypothesis.words.len()
}

fn decode_pass(
    rec: &Recognizer,
    utterances: &[Vec<Vec<f32>>],
    instr: Option<&Instrumentation>,
) -> usize {
    utterances
        .iter()
        .map(|features| decode_one(rec, features, instr))
        .sum()
}

fn bench_obs_overhead(c: &mut Criterion) {
    let task = batch_bench_task(23);
    let utterances: Vec<Vec<Vec<f32>>> = (0..32)
        .map(|i| task.synthesize_utterance(1, 0.3, 700 + i as u64).0)
        .collect();
    let rec = recognizer(&task, DecoderConfig::simd()).expect("recogniser");

    let mut group = c.benchmark_group("obs_overhead");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    group.bench_function("baseline_32", |b| {
        b.iter(|| decode_pass(&rec, &utterances, None))
    });

    let disabled = Instrumentation::new(Telemetry::disabled());
    group.bench_function("disabled_32", |b| {
        b.iter(|| decode_pass(&rec, &utterances, Some(&disabled)))
    });

    group.bench_function("enabled_32", |b| {
        b.iter(|| {
            // A fresh memory sink per pass keeps the recorded-fact buffer
            // from growing across iterations — each pass pays the full
            // recording cost on an empty sink, like a fresh run directory.
            let (telemetry, _sink) = Telemetry::to_memory();
            let enabled = Instrumentation::new(telemetry);
            decode_pass(&rec, &utterances, Some(&enabled))
        })
    });
    group.finish();

    record_overhead_ratios(&rec, &utterances);
}

/// Measures the two gated overhead ratios by paired interleaving and merges
/// them into the `LVCSR_BENCH_JSON` document (no-op when unset, like the
/// stream bench's p50 record).  The pairing is per *utterance*: the three
/// variants decode the same utterance back to back (order rotated every
/// triple), so the three timings sit inside a window of under a
/// millisecond and even short host-load episodes hit them near-equally;
/// each triple yields one disabled/base and one enabled/base ratio, and
/// the reported figure is the median over every (round × utterance)
/// triple.  Sequential window means on a shared host drift by more than
/// the 2 % bound being enforced, so none of the three raw criterion means
/// is usable for the gate — only tightly paired ratios are.
fn record_overhead_ratios(rec: &Recognizer, utterances: &[Vec<Vec<f32>>]) {
    let path = match std::env::var("LVCSR_BENCH_JSON") {
        Ok(p) if !p.is_empty() => p,
        _ => return,
    };
    const WARMUP_ROUNDS: usize = 1;
    const ROUNDS: usize = 30;
    let disabled = Instrumentation::new(Telemetry::disabled());
    let (telemetry, _sink) = Telemetry::to_memory();
    let enabled = Instrumentation::new(telemetry);
    let timed = |features: &[Vec<f32>], instr: Option<&Instrumentation>| {
        let start = Instant::now();
        std::hint::black_box(decode_one(rec, features, instr));
        start.elapsed().as_secs_f64()
    };
    let mut disabled_ratios = Vec::with_capacity(ROUNDS * utterances.len());
    let mut enabled_ratios = Vec::with_capacity(ROUNDS * utterances.len());
    for round in 0..WARMUP_ROUNDS + ROUNDS {
        for (index, features) in utterances.iter().enumerate() {
            // The same utterance three ways, back to back, order rotated
            // per triple so cache-warming and position bias spread evenly
            // across the variants.
            let mut times = [0.0f64; 3];
            for position in 0..3 {
                let variant = (position + round + index) % 3;
                times[variant] = timed(
                    features,
                    match variant {
                        0 => None,
                        1 => Some(&disabled),
                        _ => Some(&enabled),
                    },
                );
            }
            let [base, dis, ena] = times;
            if round >= WARMUP_ROUNDS && base > 0.0 {
                disabled_ratios.push(dis / base);
                enabled_ratios.push(ena / base);
            }
        }
    }
    let median = |ratios: &mut Vec<f64>| {
        ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
        ratios[ratios.len() / 2]
    };
    for (key, ratios) in [
        ("obs_overhead/disabled_over_baseline", &mut disabled_ratios),
        ("obs_overhead/enabled_over_baseline", &mut enabled_ratios),
    ] {
        let samples = ratios.len();
        let value = median(ratios);
        println!("{key}: {value:.4} (median of {samples} per-utterance paired triples)");
        if let Err(e) = asr_bench::bench_json::record_entry(&path, key, value) {
            eprintln!("warning: could not record {key} in {path}: {e}");
        }
    }
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
