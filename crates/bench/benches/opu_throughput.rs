//! F2 / E5 bench: senone-scoring throughput of the Observation Probability
//! unit model, at the three datapath widths of the paper.

use asr_acoustic::{AcousticModel, AcousticModelConfig, SenoneId};
use asr_float::MantissaWidth;
use asr_hw::ObservationProbabilityUnit;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench_opu(c: &mut Criterion) {
    let model = AcousticModel::untrained(AcousticModelConfig {
        num_senones: 64,
        num_components: 8,
        feature_dim: 39,
        ..AcousticModelConfig::tiny()
    })
    .expect("model");
    let ids: Vec<SenoneId> = (0..64).map(SenoneId).collect();
    let x: Vec<f32> = (0..39).map(|d| 0.1 * d as f32).collect();

    let mut group = c.benchmark_group("f2_opu_scoring");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(800));
    for width in MantissaWidth::PAPER_SWEEP {
        println!(
            "# {}: {} hardware cycles per senone (39 dims x 8 Gaussians)",
            width,
            ObservationProbabilityUnit::cycles_per_senone(39, 8)
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{width}")),
            &width,
            |b, &width| {
                b.iter(|| {
                    let mut opu = ObservationProbabilityUnit::new(width);
                    opu.load_feature_vector(&x);
                    ids.iter()
                        .map(|&id| opu.score_senone(&model, id).expect("score"))
                        .count()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_opu);
criterion_main!(benches);
