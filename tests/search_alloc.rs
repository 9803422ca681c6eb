//! Allocation budgets of the decode hot path.
//!
//! A warm decode allocates essentially nothing inside
//! `TokenPassingSearch::step`: the token table, history arena and per-frame
//! buffers are reused, walking the lexical tree borrows, and each
//! `SenoneScorer::step_hmm` call returns its state scores inline.  That holds
//! on the SIMD backend and on the cycle-accurate SoC, whose own frame
//! (feature load, senone scoring into the caller's buffer, Viterbi steps,
//! frame report) allocates nothing once warm.
//!
//! The counting allocator below counts per thread, so tests of other
//! binaries or threads cannot disturb the figure.

use lvcsr::acoustic::{AcousticModel, AcousticModelConfig, SenoneId};
use lvcsr::corpus::Wsj5kTask;
use lvcsr::decoder::{
    software_step_hmm, DecoderConfig, PhoneDecoder, Recognizer, SenoneScorer, SocScorer,
    TokenPassingSearch,
};
use lvcsr::float::LogProb;
use lvcsr::hw::SocConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The most allocations per warm frame `step` may make.
const BUDGET_PER_FRAME: f64 = 0.1;

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

/// Decodes one utterance to warm `config`'s backend, then checks that
/// `step` over a second utterance stays within the budget.
fn assert_warm_step_budget(config: DecoderConfig) {
    let task = Wsj5kTask::evaluation(1, 1).expect("task");
    let recognizer = Recognizer::new(
        task.acoustic_model.clone(),
        task.dictionary.clone(),
        task.language_model.clone(),
        config,
    )
    .expect("recogniser");
    let config = recognizer.config();
    let scorer = config
        .backend
        .build_scorer(&config.gmm_selection)
        .expect("scorer");
    let backend = scorer.name();
    let mut decoder = PhoneDecoder::new(scorer, config.gmm_selection);
    let search = TokenPassingSearch::new(
        recognizer.model(),
        recognizer.network(),
        recognizer.language_model(),
        config,
    );
    let (warm_up, _) = task.synthesize_utterance(8, 0.3, 11);
    let (features, _) = task.synthesize_utterance(8, 0.3, 12);

    // Warm the backend's model-level caches and the decoder's scratch.
    decoder.begin_utterance();
    search
        .decode(&warm_up, &mut decoder)
        .expect("warm-up decode");
    decoder.finish_utterance();

    decoder.begin_utterance();
    let mut state = search.begin();
    let mut step_allocations = 0;
    for feature in &features {
        let before = allocations();
        search
            .step(&mut state, &mut decoder, feature)
            .expect("step");
        step_allocations += allocations() - before;
    }
    let outcome = search.finish(state);
    assert!(
        !outcome.best_token_words.is_empty(),
        "the decode found words"
    );

    let per_frame = step_allocations as f64 / features.len() as f64;
    assert!(
        per_frame <= BUDGET_PER_FRAME,
        "{backend}: {step_allocations} allocations in {} frames: {per_frame:.3} per frame \
         (budget {BUDGET_PER_FRAME})",
        features.len()
    );
}

#[test]
fn warm_search_step_does_not_allocate_per_frame() {
    assert_warm_step_budget(DecoderConfig::simd());
}

#[test]
fn warm_hardware_search_step_does_not_allocate_per_frame() {
    assert_warm_step_budget(DecoderConfig::hardware(2));
}

/// Frames of the SoC frame test's utterances.
const SOC_FRAMES: usize = 40;

#[test]
fn warm_soc_frame_allocates_nothing() {
    let model = AcousticModel::untrained(AcousticModelConfig::tiny()).expect("model");
    let ids: Vec<SenoneId> = (0..model.senones().len() as u32).map(SenoneId).collect();
    let features: Vec<Vec<f32>> = (0..SOC_FRAMES)
        .map(|f| {
            (0..model.feature_dim())
                .map(|d| 0.01 * (f * d) as f32)
                .collect()
        })
        .collect();
    let mut scorer = SocScorer::new(SocConfig::default()).expect("scorer");
    let mut scores = Vec::with_capacity(ids.len());
    let mut frame = |scorer: &mut SocScorer, feature: &[f32]| {
        scorer.begin_frame(feature);
        scores.clear();
        scorer
            .score_senones_into(&model, &ids, feature, &mut scores)
            .expect("score");
        scorer.dma_fetch(256);
        scorer.end_frame(4, 2);
    };
    // The first utterance grows the SoC's per-frame report list to its
    // length; the clear between utterances keeps the capacity.
    for feature in &features {
        frame(&mut scorer, feature);
    }
    scorer.finish_utterance().expect("a hardware report");
    for (f, feature) in features.iter().enumerate() {
        let before = allocations();
        frame(&mut scorer, feature);
        assert_eq!(allocations() - before, 0, "warm frame {f} allocated");
    }
}

#[test]
fn soc_and_software_hmm_steps_allocate_nothing() {
    let model = AcousticModel::untrained(AcousticModelConfig::tiny()).expect("model");
    let transitions = model.transitions();
    let n = transitions.num_states();
    let mut scorer = SocScorer::new(SocConfig::default()).expect("scorer");
    let prev = vec![LogProb::new(-3.0); n];
    let obs = vec![LogProb::new(-2.0); n];
    for entry in [LogProb::zero(), LogProb::new(-1.0)] {
        let before = allocations();
        let step = scorer
            .step_hmm(&prev, entry, transitions, &obs)
            .expect("step");
        let software = software_step_hmm(&prev, entry, transitions, &obs).expect("step");
        assert_eq!(allocations() - before, 0, "the scores are held inline");
        assert_eq!(step.scores.len(), n);
        assert_eq!(software.scores.len(), n);
    }
}
