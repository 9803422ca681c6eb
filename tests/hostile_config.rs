//! Hostile decoder configurations.
//!
//! Every numeric field of a `DecoderConfig`, of its `GmmSelectionConfig`,
//! of the `SocConfig` of a hardware backend and the shard count of a
//! sharded backend (one or two nesting levels) is drawn from a valid value,
//! zero, −1, NaN, ±∞ and `f32::MAX` (an integer field takes the saturating
//! cast of the same draw: 0 or `usize::MAX`).  Each configuration must
//! either be refused with `DecodeError::InvalidConfig` or build a
//! recogniser that decodes a tiny utterance without panicking.

use lvcsr::corpus::{SyntheticTask, TaskConfig, TaskGenerator};
use lvcsr::decoder::{DecodeError, DecoderConfig, Recognizer, ScoringBackendKind};
use lvcsr::float::MantissaWidth;
use lvcsr::hw::SocConfig;

/// The hostile values every numeric field is drawn from, besides its valid
/// one.
const HOSTILE: [f32; 6] = [
    0.0,
    -1.0,
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::MAX,
];

/// A seeded xorshift64 stream.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// `valid` half the time, otherwise one of the hostile values.
    fn f32_or(&mut self, valid: f32) -> f32 {
        if self.below(2) == 0 {
            return valid;
        }
        HOSTILE[self.below(HOSTILE.len())]
    }

    /// `valid` half the time, otherwise a hostile float cast to `usize`.
    fn usize_or(&mut self, valid: usize) -> usize {
        match self.f32_or(f32::NAN) {
            x if x.is_nan() => valid,
            x => x as usize,
        }
    }
}

/// A plain backend, or one sharded at one or two nesting levels with a
/// drawn shard count at each level.
fn hostile_backend(rng: &mut XorShift) -> ScoringBackendKind {
    let leaf = match rng.below(3) {
        0 => ScoringBackendKind::Software,
        1 => ScoringBackendKind::Simd,
        _ => ScoringBackendKind::Hardware(SocConfig {
            num_structures: rng.usize_or(2),
            datapath_width: MantissaWidth::PAPER_SWEEP[rng.below(3)],
        }),
    };
    let levels = rng.below(3);
    (0..levels).fold(leaf, |inner, _| ScoringBackendKind::Sharded {
        shards: rng.usize_or(2),
        inner: Box::new(inner),
    })
}

fn hostile_config(rng: &mut XorShift) -> DecoderConfig {
    let base = DecoderConfig::default();
    let mut config = DecoderConfig {
        backend: hostile_backend(rng),
        beam: rng.f32_or(base.beam),
        word_beam: rng.f32_or(base.word_beam),
        max_active_hmms: rng.usize_or(base.max_active_hmms),
        lm_weight: rng.f32_or(base.lm_weight),
        word_insertion_penalty: rng.f32_or(base.word_insertion_penalty),
        ..base
    };
    let selection = &mut config.gmm_selection;
    selection.cds_period = rng.usize_or(2);
    selection.cds_threshold = rng.f32_or(selection.cds_threshold);
    selection.senone_feedback = rng.below(2) == 0;
    config
}

fn tiny_task() -> SyntheticTask {
    TaskGenerator::new(5)
        .generate(&TaskConfig::tiny())
        .expect("task generation")
}

#[test]
fn hostile_configs_are_refused_or_decode() {
    let task = tiny_task();
    let (features, _) = task.synthesize_utterance(2, 0.2, 7);
    let mut rng = XorShift(0x5EED_C0DE_2006);
    let (mut refused, mut decoded) = (0, 0);
    for _ in 0..1000 {
        let config = hostile_config(&mut rng);
        let recognizer = match Recognizer::new(
            task.acoustic_model.clone(),
            task.dictionary.clone(),
            task.language_model.clone(),
            config.clone(),
        ) {
            Ok(recognizer) => recognizer,
            Err(DecodeError::InvalidConfig(_)) => {
                refused += 1;
                continue;
            }
            Err(other) => panic!("{config:?} failed with {other:?}"),
        };
        // A wild but accepted setting may decode badly; it must not panic.
        eprintln!("decoding with {config:?}");
        let _ = recognizer.decode_features(&features);
        decoded += 1;
    }
    assert!(
        refused > 0 && decoded > 0,
        "{refused} refused, {decoded} decoded"
    );
}
