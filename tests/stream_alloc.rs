//! Allocation budget of the streaming hop path, when warm, on the scenario
//! voice task's frontend configuration:
//!
//! * `EnergyVad::push_hop` allocates nothing (the adaptive floor is a sorted
//!   ring updated in place);
//! * `StreamingFrontend::push_samples` allocates at most the vector it
//!   returns plus one feature vector per frame it emits (the MFCC kernel
//!   writes into scratch the frontend owns);
//! * a silent hop through `AudioStreamSession::push_audio` allocates nothing
//!   (whole hops are borrowed from the caller's chunk and the pre-roll
//!   recycles its storage).
//! * a warm in-speech hop under a standing partial allocates little more
//!   than the frontend returns: the session checks the partial's word count
//!   before it spells the partial out;
//! * the hop that opens an audio session's second utterance skips the
//!   allocations a fresh decoder makes on its first frames: the session
//!   decodes every utterance on the one decoder it built when it opened.
//!
//! The counting allocator below counts per thread, so tests of other
//! binaries or threads cannot disturb the figures.

use lvcsr::corpus::{
    ScenarioGenerator, ScenarioKind, ScenarioVoiceTask, TaskConfig, TaskGenerator,
};
use lvcsr::decoder::{DecoderConfig, Recognizer, ScoringBackendKind};
use lvcsr::frontend::FrontendConfig;
use lvcsr::stream::vad::hop_rms;
use lvcsr::stream::{
    EnergyVad, StreamConfig, StreamEvent, StreamingFrontend, StreamingRecognizer, VadConfig,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Samples per 10 ms hop at 16 kHz.
const HOP: usize = 160;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Forwards to the system allocator, counting allocations and reallocations
/// of the calling thread.
struct CountingAlloc;

// SAFETY: every call forwards unchanged to `System`; the counter is a
// const-initialised thread-local `Cell`, which neither allocates nor touches
// the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `seconds` of a two-tone signal at speech level.
fn speech(seconds: f32) -> Vec<f32> {
    (0..(seconds * 16_000.0) as usize)
        .map(|n| {
            let t = n as f32 / 16_000.0;
            0.2 * (2.0 * std::f32::consts::PI * 440.0 * t).sin()
                + 0.1 * (2.0 * std::f32::consts::PI * 1320.0 * t).sin()
        })
        .collect()
}

/// `seconds` of low-level deterministic noise, well under any VAD threshold.
fn quiet(seconds: f32) -> Vec<f32> {
    (0..(seconds * 16_000.0) as usize)
        .map(|n| 0.001 * ((n * 7919 % 200) as f32 / 100.0 - 1.0))
        .collect()
}

#[test]
fn warm_vad_push_hop_allocates_nothing() {
    let mut vad = EnergyVad::new(VadConfig::adaptive());
    let audio = [quiet(2.0), speech(0.5), quiet(2.0)].concat();
    let hops: Vec<f32> = audio.chunks(HOP).map(hop_rms).collect();
    for &rms in &hops {
        vad.push_hop(rms);
    }
    let before = allocations();
    for &rms in &hops {
        vad.push_hop(rms);
    }
    assert_eq!(
        allocations() - before,
        0,
        "{} warm hops through the adaptive VAD",
        hops.len()
    );
}

#[test]
fn warm_frontend_allocates_only_what_it_returns() {
    let audio = speech(1.0);
    // With deltas, a frame's feature vector is allocated when the frame is
    // analysed and returned once its lookahead has arrived (at the latest by
    // `finish_utterance`), so the budget is checked over a whole utterance.
    for config in [
        ScenarioVoiceTask::frontend_config(),
        FrontendConfig::default(),
    ] {
        let mut frontend = StreamingFrontend::new(config.clone()).expect("frontend");
        for hop in audio.chunks(HOP) {
            frontend.push_samples(hop);
        }
        frontend.finish_utterance();
        let (mut made, mut frames, mut returned) = (0, 0, 0);
        for hop in audio.chunks(HOP) {
            let before = allocations();
            let features = frontend.push_samples(hop);
            made += allocations() - before;
            frames += features.len() as u64;
            returned += u64::from(!features.is_empty());
        }
        let before = allocations();
        let tail = frontend.finish_utterance();
        made += allocations() - before;
        frames += tail.len() as u64;
        returned += u64::from(!tail.is_empty());
        assert_eq!(frames, 98, "one second of audio is 98 frames");
        assert!(
            made <= returned + frames,
            "{made} allocations for {frames} frames in {returned} returned vectors \
             with {config:?}"
        );
    }
}

/// A SIMD recogniser on a 13-dim task behind the scenario voice task's
/// frontend and the adaptive VAD.
fn voice_streamer() -> StreamingRecognizer {
    let task = TaskGenerator::new(99)
        .generate(&TaskConfig {
            feature_dim: 13,
            ..TaskConfig::tiny()
        })
        .expect("task");
    let recognizer = Recognizer::new(
        task.acoustic_model.clone(),
        task.dictionary.clone(),
        task.language_model.clone(),
        DecoderConfig {
            backend: ScoringBackendKind::Simd,
            ..DecoderConfig::default()
        },
    )
    .expect("recogniser");
    StreamingRecognizer::new(
        recognizer,
        StreamConfig {
            frontend: ScenarioVoiceTask::frontend_config(),
            vad: VadConfig::adaptive(),
            ..StreamConfig::default()
        },
    )
    .expect("streamer")
}

#[test]
fn warm_silent_hop_through_the_audio_session_allocates_nothing() {
    let streamer = voice_streamer();
    let mut session = streamer.audio_session().expect("audio session");
    // Warm up through one utterance, so the pre-roll has been drained and
    // refilled once.
    let warm = [quiet(1.0), speech(0.5), quiet(2.0)].concat();
    let mut ended = false;
    for chunk in warm.chunks(HOP) {
        for event in session.push_audio(chunk).expect("warm-up") {
            ended |= matches!(event, StreamEvent::UtteranceEnd(_));
        }
    }
    assert!(
        ended && !session.in_utterance(),
        "the warm-up utterance ended"
    );

    let silence = quiet(1.0);
    let before = allocations();
    for hop in silence.chunks(HOP) {
        let events = session.push_audio(hop).expect("silent hop");
        assert!(events.is_empty());
    }
    assert_eq!(
        allocations() - before,
        0,
        "{} silent hops through a warm audio session",
        silence.len() / HOP
    );
    // Sub-hop chunks take the residue path: still nothing once warm.
    let before = allocations();
    for chunk in silence.chunks(HOP / 2 + 1) {
        session.push_audio(chunk).expect("silent chunk");
    }
    assert_eq!(allocations() - before, 0, "silent sub-hop chunks");
}

/// The session builds its phone decoder once, when it opens, and every
/// utterance decodes on it.  A fresh decoder allocates its per-utterance
/// buffers as it scores its first frames, which happens in the hop that
/// opens an utterance (the pre-roll replays there) — a quarter or more of
/// that hop's allocations.  The hop that opens the second utterance finds
/// them warm; a session that built a decoder per utterance would pay them
/// again.
#[test]
fn the_second_utterance_opens_on_the_warm_decoder() {
    let streamer = voice_streamer();
    let mut session = streamer.audio_session().expect("audio session");
    let audio = [quiet(1.0), speech(0.5), quiet(2.0)].concat();
    let mut opening_hops = Vec::new();
    for _ in 0..2 {
        for hop in audio.chunks(HOP) {
            let was_open = session.in_utterance();
            let before = allocations();
            session.push_audio(hop).expect("hop");
            let made = allocations() - before;
            if !was_open && session.in_utterance() {
                opening_hops.push(made);
            }
        }
        assert!(!session.in_utterance(), "the utterance ended");
    }
    let [first, second] = opening_hops[..] else {
        panic!("one utterance per burst: {opening_hops:?}");
    };
    assert!(
        second * 4 <= first * 3,
        "opening the second utterance allocated {second} times, the first {first}"
    );
}

/// Most extra allocations a warm in-speech hop may make, on average, beyond
/// the frontend's output while a partial stands.  They are the search's
/// per-utterance records (word ends, lattice, frame stats) growing by
/// doubling, about 0.2 per hop on the voice task; spelling the standing
/// partial out on every hop would cost at least 2 (a word-id vector and one
/// string per word).
const STANDING_PARTIAL_BUDGET_PER_HOP: f64 = 0.5;

/// While a partial stands, in-speech hops that emit no event allocate
/// little more than the frontend returns (one vector per hop that yields
/// frames, plus one feature vector per frame): the session compares the
/// partial's word count before it spells the partial out.  The
/// audio-trained voice task recognises its commands, so partials stand
/// through much of each utterance.  The session's first utterance warms it
/// and is not counted.
#[test]
fn warm_in_speech_hops_do_not_rebuild_a_standing_partial() {
    let task = ScenarioVoiceTask::train(11).expect("voice task trains");
    let scenario = ScenarioGenerator::new(&task.dictionary, 17).generate(ScenarioKind::LongSession);
    let recognizer = Recognizer::new(
        task.acoustic_model,
        task.dictionary,
        task.language_model,
        DecoderConfig {
            backend: ScoringBackendKind::Simd,
            ..DecoderConfig::default()
        },
    )
    .expect("recogniser");
    let streamer = StreamingRecognizer::new(
        recognizer,
        StreamConfig {
            frontend: ScenarioVoiceTask::frontend_config(),
            vad: VadConfig::adaptive(),
            ..StreamConfig::default()
        },
    )
    .expect("streamer");
    let mut session = streamer.audio_session().expect("audio session");

    let (mut hops, mut made, mut frontend) = (0u64, 0, 0);
    let mut partial_words = 0;
    for hop in scenario.samples.chunks(HOP) {
        let was_open = session.in_utterance();
        let frames_before = session.features_emitted();
        let before = allocations();
        let events = session.push_audio(hop).expect("hop");
        let allocated = allocations() - before;
        let frames = (session.features_emitted() - frames_before) as u64;
        let warm = session.utterances_finished() >= 1;
        if warm && was_open && events.is_empty() && frames > 0 && partial_words > 0 {
            hops += 1;
            made += allocated;
            frontend += 1 + frames;
        }
        for event in &events {
            match event {
                StreamEvent::Partial(partial) => partial_words = partial.words.len(),
                StreamEvent::UtteranceStarted => partial_words = 0,
                _ => {}
            }
        }
    }
    assert!(hops >= 50, "only {hops} counted hops stood under a partial");
    let extra = made.saturating_sub(frontend) as f64 / hops as f64;
    assert!(
        extra <= STANDING_PARTIAL_BUDGET_PER_HOP,
        "{made} allocations in {hops} in-speech hops under a standing partial, \
         {frontend} of them frontend output: {extra:.2} extra per hop \
         (budget {STANDING_PARTIAL_BUDGET_PER_HOP})"
    );
}
