//! F3 bench: Viterbi-unit HMM updates for the 3/5/7-state topologies.

use asr_acoustic::{HmmTopology, TransitionMatrix};
use asr_float::LogProb;
use asr_hw::{ViterbiUnit, ViterbiUnitConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench_viterbi(c: &mut Criterion) {
    let mut group = c.benchmark_group("f3_viterbi_step");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(800));
    for topo in HmmTopology::ALL {
        let n = topo.num_states();
        let transitions = TransitionMatrix::bakis(topo, 0.6).expect("bakis");
        let prev = vec![LogProb::new(-5.0); n];
        let obs = vec![LogProb::new(-2.0); n];
        println!(
            "# {}: {} hardware cycles per HMM update",
            topo,
            ViterbiUnitConfig::default().cycles_per_hmm(n, 2 * n - 1)
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{topo}")),
            &n,
            |b, _| {
                b.iter(|| {
                    let mut unit = ViterbiUnit::default();
                    for _ in 0..100 {
                        unit.step_hmm(&prev, LogProb::zero(), &transitions, &obs)
                            .expect("step");
                    }
                    unit.stats().cycles
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_viterbi);
criterion_main!(benches);
