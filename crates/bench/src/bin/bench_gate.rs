//! CI bench-regression gate.
//!
//! Compares a freshly measured `BENCH_pr.json` (written by the criterion
//! shim when `LVCSR_BENCH_JSON` is set) against the committed
//! `BENCH_baseline.json` and fails if any benchmark shared by both files
//! regressed by more than the allowed fraction (default 15 %).  It also
//! enforces the ratio claims: `decode_batch` of 32 utterances must beat 32
//! sequential `decode_features` calls, the 4-shard scorer must beat the
//! single SoC (multi-core hosts), a 4-worker serving front must beat a
//! single worker (multi-core hosts), chunked streaming must stay within
//! 15 % of offline decoding, and telemetry must cost nothing when disabled
//! (within 2 % of an uninstrumented loop) and stay within 15 % when enabled.
//!
//! Usage:
//!
//! ```text
//! bench_gate <BENCH_baseline.json> <BENCH_pr.json> [--max-regression 0.15]
//! ```
//!
//! Benchmarks present in only one file are reported but never fail the gate,
//! so benches can be added or retired without ceremony.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// The two benchmarks backing the batch-amortisation acceptance check.
///
/// This pair is judged as a *ratio* (batch must beat sequential), not by the
/// per-benchmark regression rule: the pair's absolute numbers swing with
/// allocator/machine noise far more than the single-utterance benches, and
/// the property that matters — batching wins — is scale-free.
const BATCH_BENCH: &str = "decode_batch_amortisation/batch_32";
const SEQUENTIAL_BENCH: &str = "decode_batch_amortisation/sequential_32";

/// The two benchmarks backing the scale-out acceptance check: the 4-shard
/// `ShardedScorer` against the single-SoC path on the same 32-utterance
/// workload.  Also judged as a ratio, for the same noise reasons as the
/// batch pair — but the ratio's meaning depends on the host (see
/// [`shard_ratio_limit`]).
const SHARDED_BENCH: &str = "serve_throughput/sharded4_soc_32";
const SINGLE_SOC_BENCH: &str = "serve_throughput/single_soc_32";

/// The 200-frame workload through the sharded scorer's lane threads.
/// Reported with its measured dispatch overhead ([`POOL_OVERHEAD_KEY`]) but
/// exempt from the regression rule: its per-frame cost is a cross-core
/// wake-up whose price depends on the host class far more than on the code.
const POOL_BENCH: &str = "shard_scaling/pool_200f";

/// The two benchmarks backing the streaming-overhead acceptance check: the
/// same 32-utterance workload decoded through chunked streaming sessions and
/// through the offline batch path (both with one recycled decoder).  Judged
/// as a ratio: streaming must stay within [`STREAM_OVERHEAD_LIMIT`] of
/// offline, or incremental operation has started to tax throughput.
const STREAM_BENCH: &str = "stream_latency/stream_32";
const STREAM_OFFLINE_BENCH: &str = "stream_latency/offline_32";

/// Allowed stream-vs-offline overhead: 15 %.
const STREAM_OVERHEAD_LIMIT: f64 = 1.15;

/// The three benchmarks around the telemetry-overhead acceptance check:
/// the same 32-utterance decode loop bare, with the serving front's full
/// instrumentation sequence against a disabled `Telemetry` handle, and with
/// an enabled handle recording into a memory sink.  Informational context
/// only (ratio-checked, so exempt from the regression rule): their
/// sequential means drift with host load far more than the bound being
/// enforced.  The *gated* numbers are the paired-round ratio entries the
/// bench records alongside them ([`OBS_DISABLED_RATIO_KEY`] /
/// [`OBS_ENABLED_RATIO_KEY`]).
const OBS_BASELINE_BENCH: &str = "obs_overhead/baseline_32";
const OBS_DISABLED_BENCH: &str = "obs_overhead/disabled_32";
const OBS_ENABLED_BENCH: &str = "obs_overhead/enabled_32";

/// Paired-measurement overhead ratios recorded by the `obs_overhead` bench:
/// each is the median over interleaved rounds of (instrumented pass time /
/// bare pass time), so host-load drift cancels instead of masquerading as
/// overhead.  Metadata (dimensionless, not a timing), consumed only by the
/// telemetry-overhead check: disabled telemetry must be indistinguishable
/// from absent telemetry ([`OBS_DISABLED_LIMIT`]), enabled telemetry must
/// stay cheap enough to flip on in production ([`OBS_ENABLED_LIMIT`]).
const OBS_DISABLED_RATIO_KEY: &str = "obs_overhead/disabled_over_baseline";
const OBS_ENABLED_RATIO_KEY: &str = "obs_overhead/enabled_over_baseline";

/// Allowed overhead of disabled telemetry over the bare loop: 2 %.
const OBS_DISABLED_LIMIT: f64 = 1.02;

/// Allowed overhead of enabled telemetry over the bare loop: 15 %.
const OBS_ENABLED_LIMIT: f64 = 1.15;

/// The two benchmarks backing the multi-worker serving acceptance check:
/// the same 32-utterance closed-loop flood through four decoder workers and
/// through one, each worker over its own plain SoC scorer.  Judged as a
/// host-gated ratio like the shard pair: four lanes must genuinely win on a
/// multi-core measurement host, and may only cost bounded overhead on a
/// single core where the lanes serialise.
const WORKERS4_BENCH: &str = "serve_throughput/workers4_soc_32";
const WORKERS1_BENCH: &str = "serve_throughput/workers1_soc_32";

/// The shared host-metadata record (`asr_bench::bench_json::HOST_CPUS_KEY`):
/// the CPU count of the machine that *measured* the results, written once
/// per document by every bench target that feeds a host-gated check.  Not a
/// benchmark — it is excluded from the regression comparison and consumed
/// only by the ratio checks, so the strict multi-core rules are applied
/// exactly when the measurement itself had parallelism available (not when
/// the gate happens to run on a different host class than the bench did).
const HOST_CPUS_KEY: &str = asr_bench::bench_json::HOST_CPUS_KEY;

/// The measured per-frame pool dispatch overhead over the inline floor —
/// informational (recorded alongside the results, printed by the bench),
/// not a gated benchmark: it is a small difference of two noisy numbers.
const POOL_OVERHEAD_KEY: &str = "shard_scaling/pool_dispatch_overhead_per_frame_seconds";

fn metadata(name: &str) -> bool {
    name == HOST_CPUS_KEY
        || name == POOL_OVERHEAD_KEY
        || name == OBS_DISABLED_RATIO_KEY
        || name == OBS_ENABLED_RATIO_KEY
}

/// Benchmarks exempt from the regression rule: the ratio-checked ones and
/// the informational pool timing.
fn ratio_checked(name: &str) -> bool {
    name == BATCH_BENCH
        || name == SEQUENTIAL_BENCH
        || name == SHARDED_BENCH
        || name == SINGLE_SOC_BENCH
        || name == POOL_BENCH
        || name == STREAM_BENCH
        || name == STREAM_OFFLINE_BENCH
        || name == WORKERS4_BENCH
        || name == WORKERS1_BENCH
        || name == OBS_BASELINE_BENCH
        || name == OBS_DISABLED_BENCH
        || name == OBS_ENABLED_BENCH
}

/// The sharded/single ratio the gate tolerates for a host with `cpus`
/// CPUs.  The sharded scorer's speedup comes from scoring shard slices on
/// real threads, so on a multi-core host it must genuinely win (< 1.0).  On
/// a single-core host a parallel speedup is physically impossible (the
/// scorer falls back to sequential fan-out) and the gate can only bound the
/// sharding *overhead*: 10 % on top of the single-SoC path.
fn shard_ratio_limit(cpus: usize) -> f64 {
    if cpus > 1 {
        1.0
    } else {
        1.10
    }
}

/// The document format (writer: the criterion shim; shared reader:
/// `asr_bench::bench_json`, whose format-snapshot test pins it).
use asr_bench::bench_json::parse_flat_map;

fn load(path: &str) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let map = parse_flat_map(&text);
    if map.is_empty() {
        return Err(format!("{path} contains no benchmark results"));
    }
    Ok(map)
}

/// One host-sensitive ratio claim: `contender` must beat `reference` when
/// the numbers were measured with real parallelism, and stay within the
/// single-core overhead bound otherwise (see [`shard_ratio_limit`]).
struct HostGatedRatio<'a> {
    /// Human label for the report line (e.g. "shard scale-out").
    label: &'a str,
    /// Benchmark key that must win (or stay within the overhead bound).
    contender: &'a str,
    /// Benchmark key it is judged against.
    reference: &'a str,
    /// CPU count of the *measurement* host, with its provenance.
    cpus: usize,
    cpus_source: &'a str,
}

fn check_host_gated_ratio(
    pr: &BTreeMap<String, f64>,
    failures: &mut Vec<String>,
    pr_path: &str,
    check: HostGatedRatio<'_>,
) {
    let short = |key: &str| key.rsplit('/').next().unwrap_or(key).to_string();
    let HostGatedRatio {
        label,
        contender,
        reference,
        cpus,
        cpus_source,
    } = check;
    match (pr.get(contender), pr.get(reference)) {
        (Some(&fast), Some(&slow)) => {
            let limit = shard_ratio_limit(cpus);
            println!(
                "{label} ({cpus} cpu(s), {cpus_source}): {} {} vs {} {} \
                 ({:.2}x, limit {limit:.2}x)",
                short(contender),
                format_time(fast),
                short(reference),
                format_time(slow),
                fast / slow,
            );
            if fast >= slow * limit {
                failures.push(if cpus > 1 {
                    format!(
                        "{} ({}) must beat {} ({}) when measured on a {cpus}-cpu host",
                        short(contender),
                        format_time(fast),
                        short(reference),
                        format_time(slow)
                    )
                } else {
                    format!(
                        "{} ({}) exceeds the single-core overhead bound \
                         ({:.0}% over {}'s {})",
                        short(contender),
                        format_time(fast),
                        (shard_ratio_limit(1) - 1.0) * 100.0,
                        short(reference),
                        format_time(slow)
                    )
                });
            }
        }
        _ => failures.push(format!("missing {contender} / {reference} in {pr_path}")),
    }
}

fn format_time(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:.3} s")
    } else if seconds >= 1.0e-3 {
        format!("{:.3} ms", seconds * 1.0e3)
    } else if seconds >= 1.0e-6 {
        format!("{:.3} µs", seconds * 1.0e6)
    } else {
        format!("{:.1} ns", seconds * 1.0e9)
    }
}

fn run(baseline_path: &str, pr_path: &str, max_regression: f64) -> Result<(), String> {
    let baseline = load(baseline_path)?;
    let pr = load(pr_path)?;
    let mut failures = Vec::new();

    println!(
        "{:<44} {:>12} {:>12} {:>9}",
        "benchmark", "baseline", "pr", "delta"
    );
    for (name, &pr_mean) in pr.iter().filter(|(name, _)| !metadata(name)) {
        match baseline.get(name) {
            Some(&base_mean) if base_mean > 0.0 => {
                let delta = pr_mean / base_mean - 1.0;
                let gated = !ratio_checked(name);
                let marker = if gated && delta > max_regression {
                    "  <-- REGRESSION"
                } else if !gated {
                    "  (not regression-gated)"
                } else {
                    ""
                };
                println!(
                    "{:<44} {:>12} {:>12} {:>+8.1}%{marker}",
                    name,
                    format_time(base_mean),
                    format_time(pr_mean),
                    delta * 100.0,
                );
                if gated && delta > max_regression {
                    failures.push(format!(
                        "{name} regressed {:.1}% (limit {:.0}%)",
                        delta * 100.0,
                        max_regression * 100.0
                    ));
                }
            }
            _ => println!(
                "{:<44} {:>12} {:>12}   (new)",
                name,
                "-",
                format_time(pr_mean)
            ),
        }
    }
    for name in baseline
        .keys()
        .filter(|n| !pr.contains_key(*n) && !metadata(n))
    {
        println!("{name:<44} (not measured in this run)");
    }

    // The amortisation claim: one warmed scorer across the batch must beat
    // per-utterance scorers.
    match (pr.get(BATCH_BENCH), pr.get(SEQUENTIAL_BENCH)) {
        (Some(&batch), Some(&sequential)) => {
            println!(
                "\nbatch amortisation: batch_32 {} vs sequential_32 {} ({:.2}x)",
                format_time(batch),
                format_time(sequential),
                sequential / batch
            );
            if batch >= sequential {
                failures.push(format!(
                    "decode_batch(32) ({}) must beat 32x decode_features ({})",
                    format_time(batch),
                    format_time(sequential)
                ));
            }
        }
        _ => failures.push(format!(
            "missing {BATCH_BENCH} / {SEQUENTIAL_BENCH} in {pr_path}"
        )),
    }

    // The scale-out claim: the 4-shard scorer must beat the single SoC when
    // the numbers were measured with real parallelism available (and stay
    // within the overhead bound when they were measured on a single core,
    // where no parallel speedup is possible).  The bench records its host's
    // CPU count next to the results; the gate's own host is only a fallback
    // for documents without that entry.
    let recorded_cpus = pr.get(HOST_CPUS_KEY).copied().filter(|&cpus| cpus >= 1.0);
    let (cpus, cpus_source) = match recorded_cpus {
        Some(recorded) => (recorded as usize, "measurement host"),
        None => (
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            "gate host, unrecorded",
        ),
    };
    check_host_gated_ratio(
        &pr,
        &mut failures,
        pr_path,
        HostGatedRatio {
            label: "shard scale-out",
            contender: SHARDED_BENCH,
            reference: SINGLE_SOC_BENCH,
            cpus,
            cpus_source,
        },
    );

    // The pool's dispatch cost, reported for context only.
    if let (Some(&pool), Some(&overhead)) = (pr.get(POOL_BENCH), pr.get(POOL_OVERHEAD_KEY)) {
        println!(
            "pool dispatch ({cpus} cpu(s), {cpus_source}): pool_200f {}, \
             overhead {}/frame over inline (not gated)",
            format_time(pool),
            format_time(overhead)
        );
    }

    // The multi-worker claim: four decoder workers draining one queue must
    // beat a single worker on the same 32-utterance flood when measured with
    // real parallelism (and may only cost bounded coordination overhead on a
    // single core, where the lanes serialise onto one CPU).
    check_host_gated_ratio(
        &pr,
        &mut failures,
        pr_path,
        HostGatedRatio {
            label: "multi-worker serving",
            contender: WORKERS4_BENCH,
            reference: WORKERS1_BENCH,
            cpus,
            cpus_source,
        },
    );

    // The streaming claim: chunked incremental decoding must stay within the
    // overhead bound of the offline batch path on the same workload.  Both
    // sides come from the same run, so the check is machine-independent.
    match (pr.get(STREAM_BENCH), pr.get(STREAM_OFFLINE_BENCH)) {
        (Some(&stream), Some(&offline)) => {
            println!(
                "stream overhead: stream_32 {} vs offline_32 {} ({:.2}x, limit {:.2}x)",
                format_time(stream),
                format_time(offline),
                stream / offline,
                STREAM_OVERHEAD_LIMIT
            );
            if stream >= offline * STREAM_OVERHEAD_LIMIT {
                failures.push(format!(
                    "stream_32 ({}) exceeds the {:.0}% streaming-overhead bound over \
                     offline_32 ({})",
                    format_time(stream),
                    (STREAM_OVERHEAD_LIMIT - 1.0) * 100.0,
                    format_time(offline)
                ));
            }
        }
        _ => failures.push(format!(
            "missing {STREAM_BENCH} / {STREAM_OFFLINE_BENCH} in {pr_path}"
        )),
    }

    // The telemetry claim, judged on the paired-round ratios the bench
    // records (sequential means drift too much to resolve a 2 % bound):
    // disabled telemetry must be free, enabled telemetry merely cheap.
    for (key, limit, label) in [
        (OBS_DISABLED_RATIO_KEY, OBS_DISABLED_LIMIT, "disabled"),
        (OBS_ENABLED_RATIO_KEY, OBS_ENABLED_LIMIT, "enabled"),
    ] {
        match pr.get(key) {
            Some(&ratio) => {
                println!(
                    "telemetry overhead ({label}): {ratio:.4}x of the bare decode loop \
                     (limit {limit:.2}x, paired rounds)"
                );
                if ratio >= limit {
                    failures.push(format!(
                        "{key} ({ratio:.4}x) exceeds the {:.0}% {label}-telemetry bound",
                        (limit - 1.0) * 100.0
                    ));
                }
            }
            None => failures.push(format!("missing {key} in {pr_path}")),
        }
    }

    if failures.is_empty() {
        println!(
            "\nbench gate: OK ({} benchmarks compared)",
            pr.keys().filter(|n| !metadata(n)).count()
        );
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional = Vec::new();
    let mut max_regression = 0.15f64;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--max-regression" {
            match args.get(i + 1).and_then(|v| v.parse().ok()) {
                Some(v) => max_regression = v,
                None => {
                    eprintln!("--max-regression needs a numeric argument");
                    return ExitCode::FAILURE;
                }
            }
            i += 2;
        } else {
            positional.push(args[i].clone());
            i += 1;
        }
    }
    let [baseline, pr] = positional.as_slice() else {
        eprintln!("usage: bench_gate <baseline.json> <pr.json> [--max-regression 0.15]");
        return ExitCode::FAILURE;
    };
    match run(baseline, pr, max_regression) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("\nbench gate: FAIL\n{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The document format itself (snapshot of the shim's output, garbage
    // tolerance, round-trip) is pinned by `asr_bench::bench_json`'s tests;
    // here only the gate's own policy is covered.

    #[test]
    fn shard_gate_is_strict_only_with_real_parallelism() {
        // Multi-core hosts must show a genuine win; a single core can only
        // bound the overhead.
        assert_eq!(shard_ratio_limit(4), 1.0);
        assert_eq!(shard_ratio_limit(2), 1.0);
        assert!(shard_ratio_limit(1) > 1.0);
        assert!(shard_ratio_limit(1) < 1.2);
    }

    #[test]
    fn ratio_checked_benches_skip_the_regression_rule() {
        for name in [
            BATCH_BENCH,
            SEQUENTIAL_BENCH,
            SHARDED_BENCH,
            SINGLE_SOC_BENCH,
            POOL_BENCH,
            STREAM_BENCH,
            STREAM_OFFLINE_BENCH,
            WORKERS4_BENCH,
            WORKERS1_BENCH,
            OBS_BASELINE_BENCH,
            OBS_DISABLED_BENCH,
            OBS_ENABLED_BENCH,
        ] {
            assert!(ratio_checked(name), "{name}");
        }
        assert!(!ratio_checked("serve_throughput/queue_sharded4_soc_32"));
        assert!(!ratio_checked("decode_batch/simd/32"));
        // The scaling-curve midpoint and the open-loop smoke are real
        // measurements: regression-gated, not part of a ratio pair.
        assert!(!ratio_checked("serve_throughput/workers2_soc_32"));
        assert!(!ratio_checked("serve_throughput/open_loop_workers2_32"));
        // The inline floor is a stable single-thread measurement: plain
        // regression-gated.
        assert!(!ratio_checked("shard_scaling/inline_200f"));
        assert!(!metadata("shard_scaling/inline_200f"));
        // The p50 chunk latency is a real measurement: regression-gated, not
        // ratio-checked, not metadata.
        assert!(!ratio_checked("stream_latency/p50_chunk_seconds"));
        assert!(!metadata("stream_latency/p50_chunk_seconds"));
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // the bounds under test are consts
    fn telemetry_overhead_bounds_are_ordered() {
        // Disabled telemetry is held to a far tighter bound than enabled:
        // the disabled path is a branch, not a feature.
        assert!(OBS_DISABLED_LIMIT > 1.0);
        assert!(OBS_DISABLED_LIMIT < OBS_ENABLED_LIMIT);
        assert!((OBS_DISABLED_LIMIT - 1.02).abs() < 1e-12);
        assert!((OBS_ENABLED_LIMIT - 1.15).abs() < 1e-12);
        assert!(!metadata(OBS_BASELINE_BENCH));
        assert!(!metadata(OBS_DISABLED_BENCH));
        assert!(!metadata(OBS_ENABLED_BENCH));
        // The paired ratios are dimensionless gate inputs, not timings: they
        // must be excluded from the per-benchmark regression comparison.
        assert!(metadata(OBS_DISABLED_RATIO_KEY));
        assert!(metadata(OBS_ENABLED_RATIO_KEY));
    }

    #[test]
    fn host_cpus_entry_is_metadata_not_a_benchmark() {
        assert!(metadata(HOST_CPUS_KEY));
        assert!(metadata(POOL_OVERHEAD_KEY));
        assert!(!metadata(SHARDED_BENCH));
        assert!(!metadata(POOL_BENCH));
        assert!(!metadata(WORKERS4_BENCH));
        // The flat parser reads the recorded count back as a number.
        let map = parse_flat_map("{\n  \"host/cpus\": 4\n}\n");
        assert_eq!(map[HOST_CPUS_KEY], 4.0);
    }
}
