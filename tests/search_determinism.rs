//! Cross-process determinism of the word-decode search: two processes
//! decoding the same WSJ5K-style utterances must produce the same best
//! words, the same lattice entries in the same order (scores compared as
//! raw bits), and the same per-frame statistics.  Nothing in a decode result
//! may depend on per-process state such as hash-map seeds.
//!
//! The test re-executes its own binary with [`CHILD_ENV`] set; the child
//! decodes and prints its digest between markers, and the parent compares
//! that digest with its own.

use lvcsr::corpus::{SyntheticTask, Wsj5kTask};
use lvcsr::decoder::{DecoderConfig, Recognizer, TokenPassingSearch};
use std::fmt::Write as _;
use std::process::Command;

/// Set in the child process: print the digest instead of spawning.
const CHILD_ENV: &str = "LVCSR_SEARCH_DETERMINISM_CHILD";
const BEGIN: &str = "----- digest begin -----";
const END: &str = "----- digest end -----";

/// The configurations compared: the stock one; beams wide enough that
/// several word ends share a frame (so lattice order and pending-entry
/// tie-breaks matter) under a cap that truncates most frames; and the stock
/// beams under a cap small enough that the first frames, with every word
/// start active, are truncated.
fn configs() -> Vec<(&'static str, DecoderConfig)> {
    let stock = DecoderConfig::simd();
    vec![
        ("stock", stock.clone()),
        (
            "wide-capped",
            DecoderConfig {
                beam: 1000.0,
                word_beam: 1000.0,
                max_active_hmms: 64,
                ..stock.clone()
            },
        ),
        (
            "small-cap",
            DecoderConfig {
                max_active_hmms: 8,
                ..stock
            },
        ),
    ]
}

fn task() -> SyntheticTask {
    Wsj5kTask::evaluation(10, 3).expect("task")
}

/// Decodes three utterances under each of [`configs`], rendering everything
/// the search produced as text.
fn digest(task: &SyntheticTask) -> String {
    let mut out = String::new();
    for (label, config) in configs() {
        let cap = config.max_active_hmms;
        let recognizer = Recognizer::new(
            task.acoustic_model.clone(),
            task.dictionary.clone(),
            task.language_model.clone(),
            config,
        )
        .expect("recogniser");
        let search = TokenPassingSearch::new(
            recognizer.model(),
            recognizer.network(),
            recognizer.language_model(),
            recognizer.config(),
        );
        let mut decoder = recognizer.phone_decoder().expect("decoder");
        let mut cap_reached = false;
        for seed in 0..3 {
            let (features, _) = task.synthesize_utterance(4, 0.3, 100 + seed);
            decoder.begin_utterance();
            let outcome = search.decode(&features, &mut decoder).expect("decode");
            decoder.finish_utterance();
            writeln!(out, "{label} utterance {seed}").unwrap();
            writeln!(
                out,
                "best {:?} {:08x}",
                outcome.best_token_words,
                outcome.best_token_score.raw().to_bits()
            )
            .unwrap();
            for e in outcome.lattice.entries() {
                writeln!(
                    out,
                    "lattice {} {} {} {:08x}",
                    e.word.0,
                    e.start_frame,
                    e.end_frame,
                    e.acoustic_score.raw().to_bits()
                )
                .unwrap();
            }
            for f in &outcome.stats.frames {
                cap_reached |= f.active_hmms == cap;
                writeln!(out, "frame {f:?}").unwrap();
            }
        }
        if label != "stock" {
            assert!(cap_reached, "{label}: the cap must truncate some frame");
        }
    }
    out
}

#[test]
fn decode_results_are_identical_across_processes() {
    let task = task();
    let digest = digest(&task);
    if std::env::var_os(CHILD_ENV).is_some() {
        println!("{BEGIN}\n{digest}{END}");
        return;
    }
    let output = Command::new(std::env::current_exe().expect("test binary"))
        .args([
            "decode_results_are_identical_across_processes",
            "--exact",
            "--nocapture",
            "--test-threads=1",
        ])
        .env(CHILD_ENV, "1")
        .output()
        .expect("re-run the test binary");
    assert!(output.status.success(), "child failed: {output:?}");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 digest");
    let child = stdout
        .split_once(BEGIN)
        .and_then(|(_, rest)| rest.split_once(END))
        .map(|(body, _)| body.trim_start_matches('\n'))
        .expect("child printed a digest");
    // Several word ends in one frame: their order is under test.
    assert!(digest.contains("word_ends: 2"));
    assert_eq!(child.lines().count(), digest.lines().count());
    for (i, (ours, theirs)) in digest.lines().zip(child.lines()).enumerate() {
        assert_eq!(ours, theirs, "first difference at digest line {i}");
    }
}
