//! Frontend fingerprint: the MFCC pipeline must keep emitting the same
//! feature bits.  The scenario corpus for generator seeds 1–4 runs through
//! [`Frontend::process`] (one call per stream) and through a
//! [`StreamingFrontend`] fed 10 ms hops (one frontend per seed, closing an
//! utterance after each stream), under the scenario voice task's frontend
//! and under the default one (CMN, Δ/ΔΔ and dither on).  Every feature
//! value's bit pattern is folded into a checksum and compared with values
//! recorded before the FFT, mel and DCT kernels were restructured for
//! vectorisation, so any reordering of their floating-point operations
//! shows here rather than as a drift in WER.

use lvcsr::corpus::{ScenarioGenerator, ScenarioVoiceTask};
use lvcsr::frontend::{Frontend, FrontendConfig};
use lvcsr::stream::StreamingFrontend;

/// Samples per 10 ms hop at 16 kHz.
const HOP: usize = 160;

/// Training seed of the voice task whose dictionary the scenarios speak.
/// The rendered audio depends on the dictionary alone, not on the trained
/// models.
const TRAIN_SEED: u64 = 11;

/// One generator seed's recorded figures for one configuration: frames and
/// checksum of `Frontend::process`, then of the streamed hops.
type Fingerprint = (usize, u64, usize, u64);

/// Generator seeds 1..=4 under `ScenarioVoiceTask::frontend_config()`.
#[rustfmt::skip]
const SCENARIO_CONFIG: [Fingerprint; 4] = [
    (1950, 0x53b66902ac65c164, 1950, 0x53b66902ac65c164),
    (2010, 0x6c73d0bd7b843022, 2010, 0x6c73d0bd7b843022),
    (1998, 0x7d53662af7de78d5, 1998, 0x7d53662af7de78d5),
    (1938, 0x7a9cb780d20acf51, 1938, 0x7a9cb780d20acf51),
];

/// Generator seeds 1..=4 under `FrontendConfig::default()`.
#[rustfmt::skip]
const DEFAULT_CONFIG: [Fingerprint; 4] = [
    (1950, 0xe4e992654779e547, 1950, 0xd044058ca2320e19),
    (2010, 0xe7996f5ec818dfa6, 2010, 0x9350ef3ed1d40514),
    (1998, 0x14b1fbe22d8787d6, 1998, 0xebab2ca03a1385cd),
    (1938, 0xca1eed3f68c7d480, 1938, 0x672b71cee73926e3),
];

/// FNV-1a over the bit patterns of every value of every frame, in order.
#[derive(Debug, Clone, Copy)]
struct Checksum(u64);

impl Checksum {
    fn new() -> Self {
        Checksum(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, frames: &[Vec<f32>]) {
        for value in frames.iter().flatten() {
            for byte in value.to_bits().to_le_bytes() {
                self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
}

/// The fingerprint of one generator seed's corpus under `config`.
fn fingerprint(config: &FrontendConfig, streams: &[Vec<f32>]) -> Fingerprint {
    let offline = Frontend::new(config.clone()).expect("frontend");
    let (mut offline_frames, mut offline_sum) = (0, Checksum::new());
    for samples in streams {
        let features = offline.process(samples);
        offline_frames += features.len();
        offline_sum.add(&features);
    }
    let mut streaming = StreamingFrontend::new(config.clone()).expect("streaming frontend");
    let (mut streamed_frames, mut streamed_sum) = (0, Checksum::new());
    for samples in streams {
        for hop in samples.chunks(HOP) {
            let features = streaming.push_samples(hop);
            streamed_frames += features.len();
            streamed_sum.add(&features);
        }
        let tail = streaming.finish_utterance();
        streamed_frames += tail.len();
        streamed_sum.add(&tail);
    }
    (
        offline_frames,
        offline_sum.0,
        streamed_frames,
        streamed_sum.0,
    )
}

#[test]
fn scenario_corpus_features_match_the_recorded_bits() {
    let task = ScenarioVoiceTask::train(TRAIN_SEED).expect("voice task trains");
    let corpora: Vec<Vec<Vec<f32>>> = (1..=4u64)
        .map(|seed| {
            ScenarioGenerator::new(&task.dictionary, seed)
                .all()
                .into_iter()
                .map(|scenario| scenario.samples)
                .collect()
        })
        .collect();
    for (name, config, recorded) in [
        (
            "scenario",
            ScenarioVoiceTask::frontend_config(),
            &SCENARIO_CONFIG,
        ),
        ("default", FrontendConfig::default(), &DEFAULT_CONFIG),
    ] {
        for (i, (streams, expected)) in corpora.iter().zip(recorded).enumerate() {
            let got = fingerprint(&config, streams);
            assert_eq!(
                got,
                *expected,
                "{name} configuration, generator seed {}",
                i + 1
            );
        }
    }
}
