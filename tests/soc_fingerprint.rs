//! SoC fingerprint: the cycle-accurate model must keep simulating the same
//! machine.  A fixed set of WSJ5K utterances is decoded under
//! `DecoderConfig::hardware(2)` and every hypothesis and `UtteranceReport`
//! counter is compared with values recorded from the simulator before its
//! datapath moved from bit-level emulation to native IEEE-754 operations.
//!
//! Cycles and flash bytes reach the report through the real-time factors
//! (busy cycles over the frame budget), the bandwidths (flash bytes per
//! frame period), the clock-gating activity factors and the energies, so
//! those are compared bit for bit rather than within a tolerance.

use lvcsr::corpus::Wsj5kTask;
use lvcsr::decoder::{DecoderConfig, Recognizer};
use lvcsr::hw::UtteranceReport;

/// Words per utterance and feature noise of the synthesised inputs.
const WORDS: usize = 8;
const NOISE: f32 = 0.3;

/// One utterance's recorded result: hypothesis word ids, frames, senones
/// scored, HMM updates, and the bit patterns of `mean_rtf`,
/// `worst_frame_rtf`, peak and mean flash bandwidth, accelerator and host
/// energy, and OP-unit and Viterbi-unit activity.
type Fingerprint = (&'static [u32], usize, u64, u64, [u64; 8]);

/// Utterance seeds 1..=12 of `Wsj5kTask::evaluation(1, 1)`, in order.
#[rustfmt::skip]
const RECORDED: [Fingerprint; 12] = [
    (&[2068, 948, 556, 1867, 4480, 2246, 3503, 765], 416, 6675, 2269,
     [0x3f9edc13fd0d069c, 0x3f9f160956c0d6f5, 0x3f64c158248443c7, 0x3f36bc2d73e71656,
      0x3fb58db782e1cd14, 0x3fa0bf5a601535db, 0x3f490a833f5508b3, 0x3f1f7ae62424e928]),
    (&[1511, 921, 1165, 4001, 1973, 959, 383, 1559], 497, 7464, 2539,
     [0x3f9ed67059b384f2, 0x3f9f2f9873ffac1d, 0x3f64c158248443c7, 0x3f3545d649290545,
      0x3fb9bb42fdf9b31e, 0x3fa400d1a08ae944, 0x3f477de82d2206ee, 0x3f1d7bcc7dd70f86]),
    (&[4170, 1273, 540, 1373, 4387, 4539, 2548, 2341], 401, 6771, 2302,
     [0x3f9ed305110b4764, 0x3f9f08ede54b48d4, 0x3f64c158248443c7, 0x3f37eb0a1e81310b,
      0x3fb4c9f0671c1654, 0x3fa023091cbcd7c4, 0x3f4a4e94aaac9e00, 0x3f209123034329c0]),
    (&[808, 134, 4617, 2155, 3727, 2599, 2207, 2981], 406, 7008, 2385,
     [0x3f9edbefe1e11799, 0x3f9f2a5a469d7343, 0x3f64c158248443c7, 0x3f3874c2d99afa23,
      0x3fb50dbd897c2bde, 0x3fa05843b38903e3, 0x3f4adfa15cbdd676, 0x3f20f403c3b48eee]),
    (&[268, 1102, 4632, 3249, 1086, 933, 1659, 2615], 370, 5793, 1964,
     [0x3f9edb1b7297c16b, 0x3f9f43e963dc486b, 0x3f64c158248443c7, 0x3f362f9f678215a7,
      0x3fb32a386f74e33e, 0x3f9dca333f7286b2, 0x3f487466aba78339, 0x3f1ea2b775b76614]),
    (&[3154, 3243, 770, 1599, 1074, 2528, 2422, 1196], 401, 5346, 1814,
     [0x3f9ed59f22757ac2, 0x3f9f2ef0ae536502, 0x3f64c158248443c7, 0x3f32e34091d1aa58,
      0x3fb4bc7c19f611cc, 0x3fa02387fb47c5a8, 0x3f44f30248e77265, 0x3f1a1b06d2c078c8]),
    (&[4781, 4739, 2529, 4324, 1307, 4504, 3779, 2380], 365, 7056, 2395,
     [0x3f9eedbde10d976d, 0x3f9f34d6a161e4f7, 0x3f64c158248443c7, 0x3f3b6526ee92f906,
      0x3fb2f4952105d082, 0x3f9d699add5549fb, 0x3f4dfec6b671aea6, 0x3f22f039fc6ca813]),
    (&[3188, 1821, 3883, 3501, 3688, 3600, 170, 3935], 383, 6123, 2082,
     [0x3f9ee61dd22e4b75, 0x3f9f304039abf338, 0x3f64c158248443c7, 0x3f36a7ec496e52ae,
      0x3fb3d7cd411b34a7, 0x3f9eda274abf0d43, 0x3f48f3d87f2a04f6, 0x3f1f5fd850205acb]),
    (&[1333, 2557, 797, 2877, 4111, 811, 686, 1033], 457, 8001, 2727,
     [0x3f9edc4352d3957e, 0x3f9f2f9873ffac1d, 0x3f64c158248443c7, 0x3f38cf244b2a5244,
      0x3fb7b3d859ef31a2, 0x3fa265f1dd8ea224, 0x3f4b3ecddf105f4b, 0x3f21389eda5db19d]),
    (&[3000, 4303, 3261, 1603, 1992, 3583, 1924, 3367], 441, 6096, 2071,
     [0x3f9eddcce3c4d0b3, 0x3f9f36262cba732e, 0x3f64c158248443c7, 0x3f3395b78867b421,
      0x3fb6d00ecc920e57, 0x3fa1c15e02ae74f2, 0x3f45b0b0dd800faa, 0x3f1b19f512eb9f58]),
    (&[3053, 780, 3865, 4516, 3721, 1053, 3369, 1320], 472, 6882, 2336,
     [0x3f9ee365bd8fbe1f, 0x3f9f41f212d77319, 0x3f64c158248443c7, 0x3f34a97c8db5db89,
      0x3fb86df4817dba36, 0x3fa302234076e89f, 0x3f46d5020f09b4c4, 0x3f1c8fff97c576f6]),
    (&[495, 2519, 3406, 3472, 2955, 2412, 2067, 3612], 400, 7341, 2495,
     [0x3f9ef52e80460bd1, 0x3f9f54f3775b8130, 0x3f64c158248443c7, 0x3f3a0350305dda95,
      0x3fb4c234ca114e23, 0x3fa01f3979a6e889, 0x3f4c84e4f6e76da6, 0x3f2200847498ec54]),
];

fn fingerprint(report: &UtteranceReport) -> [u64; 8] {
    [
        report.mean_rtf.to_bits(),
        report.worst_frame_rtf.to_bits(),
        report.peak_bandwidth_gb_per_s.to_bits(),
        report.mean_bandwidth_gb_per_s.to_bits(),
        report.energy.accelerator_energy_j.to_bits(),
        report.energy.host_energy_j.to_bits(),
        report.energy.opu_activity.to_bits(),
        report.energy.viterbi_activity.to_bits(),
    ]
}

#[test]
fn hardware_decode_of_wsj5k_matches_the_recorded_machine() {
    let task = Wsj5kTask::evaluation(1, 1).expect("task");
    let utterances: Vec<_> = (1..=RECORDED.len() as u64)
        .map(|seed| task.synthesize_utterance(WORDS, NOISE, seed).0)
        .collect();
    let recognizer = Recognizer::new(
        task.acoustic_model,
        task.dictionary,
        task.language_model,
        DecoderConfig::hardware(2),
    )
    .expect("recogniser");
    for (i, (features, expected)) in utterances.iter().zip(&RECORDED).enumerate() {
        let result = recognizer.decode_features(features).expect("decode");
        let report = result.hardware.expect("hardware report");
        let words: Vec<u32> = result.hypothesis.words.iter().map(|w| w.0).collect();
        let (want_words, want_frames, want_senones, want_hmms, want_bits) = *expected;
        assert_eq!(words, want_words, "utterance {i}: hypothesis");
        assert_eq!(report.frames, want_frames, "utterance {i}: frames");
        assert_eq!(
            report.senones_scored, want_senones,
            "utterance {i}: senones scored"
        );
        assert_eq!(report.hmm_updates, want_hmms, "utterance {i}: HMM updates");
        assert_eq!(
            fingerprint(&report),
            want_bits,
            "utterance {i}: rtf / bandwidth / energy / activity bits"
        );
    }
}
