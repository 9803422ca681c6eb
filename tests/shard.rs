//! Sharding integration tests: a `ShardedScorer` must be observationally
//! identical to its unsharded inner scorer — same senone scores, same
//! hypotheses, same decode statistics — for any shard count, whether its
//! shards score on lane threads or inline on the calling thread.  Sharding is a pure throughput optimisation, exactly like
//! batching.

use lvcsr::acoustic::{
    AcousticModel, AcousticModelConfig, DiagGaussian, GaussianMixture, HmmTopology, PhoneId,
    SenoneId, SenonePool, TransitionMatrix, Triphone, TriphoneInventory,
};
use lvcsr::corpus::{SyntheticTask, TaskConfig, TaskGenerator};
use lvcsr::decoder::{
    software_step_hmm, DecodeError, DecodeResult, DecodeSession, DecoderConfig, GmmSelectionConfig,
    HmmStepResult, PhoneDecoder, Recognizer, ScoringBackendKind, SenoneScorer, ShardedScorer,
};
use lvcsr::float::LogProb;
use lvcsr::hw::UtteranceReport;
use proptest::prelude::*;
use std::sync::mpsc;
use std::time::Duration;

/// Lane threads a parallel `n`-shard scorer spawns on this host:
/// `min(n − 1, max(1, cpus − 1))`.
fn lane_threads(n: usize) -> usize {
    let cpus = std::thread::available_parallelism().map_or(1, |c| c.get());
    (n - 1).min(cpus.saturating_sub(1).max(1))
}

fn build_task() -> SyntheticTask {
    TaskGenerator::new(2424)
        .generate(&TaskConfig::tiny())
        .expect("task")
}

fn build_recognizer(task: &SyntheticTask, config: DecoderConfig) -> Recognizer {
    Recognizer::new(
        task.acoustic_model.clone(),
        task.dictionary.clone(),
        task.language_model.clone(),
        config,
    )
    .expect("recogniser")
}

/// The four stock backends a shard can run: the three leaves plus a nested
/// sharded backend (pointless but legal, and it must stay pure too).
fn inner_backend(index: usize) -> ScoringBackendKind {
    match index % 4 {
        0 => ScoringBackendKind::Software,
        1 => ScoringBackendKind::Simd,
        2 => ScoringBackendKind::Hardware(lvcsr::hw::SocConfig::default()),
        _ => ScoringBackendKind::Sharded {
            shards: 2,
            inner: Box::new(ScoringBackendKind::Hardware(lvcsr::hw::SocConfig::default())),
        },
    }
}

/// The decode surface that must not change under sharding.  The hardware
/// report is compared through its work counters (frames, senones): the
/// sharded report's cycle/energy shape legitimately differs (N machines),
/// but the amount of audio and scoring work must not.
type Fingerprint = (Vec<u32>, Vec<u32>, usize, u64, usize, Option<(usize, u64)>);

fn fingerprint(r: &DecodeResult) -> Fingerprint {
    (
        r.hypothesis.words.iter().map(|w| w.0).collect(),
        r.live_hypothesis.words.iter().map(|w| w.0).collect(),
        r.stats.num_frames(),
        r.stats.total_senones_scored(),
        r.lattice.len(),
        r.hardware.as_ref().map(|h| (h.frames, h.senones_scored)),
    )
}

proptest! {
    /// Sharded(n, inner) == inner, for n in {1, 2, 4}, every inner backend
    /// (software / simd / soc / nested sharded), with and without
    /// Conditional Down Sampling — both offline and through `DecodeSession`
    /// streaming steps.
    #[test]
    fn sharded_decoding_matches_the_unsharded_inner_scorer(
        backend_index in 0usize..4,
        shards_index in 0usize..3,
        cds_period in 1usize..3,
        words in 1usize..3,
        chunk_index in 0usize..3,
        seed in 0u64..500,
    ) {
        let shards = [1usize, 2, 4][shards_index];
        let chunk = [1usize, 3, 7][chunk_index];
        let task = build_task();
        let inner = inner_backend(backend_index);
        let selection = GmmSelectionConfig::with_cds(cds_period);

        let mut plain_config = DecoderConfig {
            backend: inner.clone(),
            ..DecoderConfig::default()
        };
        plain_config.gmm_selection = selection;
        let mut sharded_config = DecoderConfig {
            backend: ScoringBackendKind::Sharded {
                shards,
                inner: Box::new(inner),
            },
            ..DecoderConfig::default()
        };
        sharded_config.gmm_selection = selection;

        let plain = build_recognizer(&task, plain_config);
        let sharded = build_recognizer(&task, sharded_config);
        let (features, _) = task.synthesize_utterance(words, 0.2, seed);

        let want = plain.decode_features(&features).expect("plain decode");
        let got = sharded.decode_features(&features).expect("sharded decode");
        prop_assert_eq!(fingerprint(&want), fingerprint(&got));

        // The same sharded decoder fed frame chunks through a streaming
        // session must land on the identical result.
        let decoder = sharded.phone_decoder().expect("decoder");
        let mut session = DecodeSession::begin(&sharded, decoder);
        for piece in features.chunks(chunk) {
            session.push_chunk(piece).expect("chunk decodes");
        }
        let streamed = session.finish().0.expect("finish");
        prop_assert_eq!(fingerprint(&want), fingerprint(&streamed));
    }
}

/// The lane threads must give the same results as the inline fan-out on
/// the same shards — run both explicitly so the parallel code is exercised
/// even where the host heuristic would disable it (single-CPU CI
/// containers), both offline and through `DecodeSession` streaming steps.
#[test]
fn forced_pool_and_inline_dispatch_agree() {
    let task = build_task();
    let rec = build_recognizer(&task, DecoderConfig::software());
    let (features, _) = task.synthesize_utterance(2, 0.2, 11);
    let decoder_with = |parallel: bool| -> PhoneDecoder {
        let selection = GmmSelectionConfig::default();
        let shards: Vec<Box<dyn SenoneScorer>> = (0..4)
            .map(|_| {
                ScoringBackendKind::Hardware(lvcsr::hw::SocConfig::default())
                    .build_scorer(&selection)
                    .expect("shard")
            })
            .collect();
        let scorer = ShardedScorer::new(shards)
            .expect("sharded scorer")
            .with_parallelism(parallel);
        PhoneDecoder::new(Box::new(scorer), selection)
    };
    let decode_with = |parallel: bool| -> DecodeResult {
        let mut decoder = decoder_with(parallel);
        rec.decode_features_with(&features, &mut decoder)
            .expect("decode")
    };
    let pooled = decode_with(true);
    let inline = decode_with(false);
    assert_eq!(fingerprint(&pooled), fingerprint(&inline));
    // Both produced a merged hardware report covering the whole utterance.
    let hw = pooled.hardware.as_ref().expect("sharded SoC report");
    assert_eq!(hw.frames, features.len());
    assert_eq!(hw.shard_senones.iter().sum::<u64>(), hw.senones_scored);

    // The threaded path holds across streaming steps too: frames arrive one
    // chunk at a time, the lane threads persist between chunks, and they
    // join when the session's decoder drops.
    let session_result = {
        let mut session = DecodeSession::begin(&rec, decoder_with(true));
        for piece in features.chunks(3) {
            session.push_chunk(piece).expect("chunk decodes");
        }
        session.finish().0.expect("finish")
    };
    assert_eq!(fingerprint(&pooled), fingerprint(&session_result));
}

/// The scorer must spawn its lane threads once — never per frame.
/// Driven through the scorer directly (`PhoneDecoder` +
/// `Recognizer::decode_features_with` would hide the counter behind the
/// trait object).
#[test]
fn pooled_dispatch_spawns_zero_threads_per_frame() {
    let task = build_task();
    let model = &task.acoustic_model;
    let ids: Vec<SenoneId> = (0..model.senones().len() as u32).map(SenoneId).collect();
    let selection = GmmSelectionConfig::default();
    let shards: Vec<Box<dyn SenoneScorer>> = (0..4)
        .map(|_| {
            ScoringBackendKind::Software
                .build_scorer(&selection)
                .expect("shard")
        })
        .collect();
    let mut scorer = ShardedScorer::new(shards)
        .expect("sharded scorer")
        .with_parallelism(true);
    for f in 0..25 {
        let x: Vec<f32> = (0..model.feature_dim())
            .map(|d| 0.02 * (f + d) as f32)
            .collect();
        scorer.begin_frame(&x);
        scorer.score_senones(model, &ids, &x).expect("score");
        scorer.end_frame(0, 0);
    }
    assert!(scorer.finish_utterance().is_none(), "software shards");
    assert_eq!(
        scorer.threads_spawned(),
        lane_threads(4),
        "one lane thread per CPU beyond the caller's, spawned once"
    );
}

/// Sixteen shards on however many CPUs: the lanes group them, so a forced-
/// parallel scorer spawns `min(15, max(1, cpus − 1))` threads — not one per
/// shard — and its scores and merged report match the inline fan-out bit for
/// bit.
#[test]
fn forced_parallel_16_shards_spawn_one_thread_per_spare_cpu() {
    let task = build_task();
    let model = &task.acoustic_model;
    let ids: Vec<SenoneId> = (0..model.senones().len() as u32).map(SenoneId).collect();
    let sharded = |parallel: bool| {
        let shards: Vec<Box<dyn SenoneScorer>> = (0..16)
            .map(|_| {
                ScoringBackendKind::Hardware(lvcsr::hw::SocConfig::default())
                    .build_scorer(&GmmSelectionConfig::default())
                    .expect("shard")
            })
            .collect();
        ShardedScorer::new(shards)
            .expect("sharded scorer")
            .with_parallelism(parallel)
    };
    let (mut parallel, mut inline) = (sharded(true), sharded(false));
    for f in 0..20 {
        let x: Vec<f32> = (0..model.feature_dim())
            .map(|d| 0.02 * (f + d) as f32)
            .collect();
        let frame = |scorer: &mut ShardedScorer| {
            scorer.begin_frame(&x);
            let scores = scorer.score_senones(model, &ids, &x).expect("score");
            scorer.end_frame(1, 0);
            scores
        };
        let (a, b) = (frame(&mut parallel), frame(&mut inline));
        assert_eq!(a.len(), ids.len());
        for ((ia, sa), (ib, sb)) in a.iter().zip(&b) {
            assert_eq!(ia, ib);
            assert_eq!(sa.raw().to_bits(), sb.raw().to_bits(), "frame {f}, {ia:?}");
        }
    }
    assert_eq!(parallel.threads_spawned(), lane_threads(16));
    assert_eq!(inline.threads_spawned(), 0);
    let (a, b) = (
        parallel.finish_utterance().expect("report"),
        inline.finish_utterance().expect("report"),
    );
    assert_eq!(
        (a.frames, a.senones_scored, a.hmm_updates, &a.shard_senones),
        (b.frames, b.senones_scored, b.hmm_updates, &b.shard_senones)
    );
}

/// A shard whose scoring always panics: an inner-scorer bug on a lane thread.
#[derive(Debug)]
struct PanickingScorer;

impl SenoneScorer for PanickingScorer {
    fn name(&self) -> &'static str {
        "panicking"
    }
    fn begin_frame(&mut self, _feature: &[f32]) {}
    fn score_senones_into(
        &mut self,
        _model: &AcousticModel,
        _active: &[SenoneId],
        _feature: &[f32],
        _out: &mut Vec<(SenoneId, LogProb)>,
    ) -> Result<(), DecodeError> {
        panic!("inner scorer bug");
    }
    fn step_hmm(
        &mut self,
        prev_scores: &[LogProb],
        entry_score: LogProb,
        transitions: &TransitionMatrix,
        senone_scores: &[LogProb],
    ) -> Result<HmmStepResult, DecodeError> {
        software_step_hmm(prev_scores, entry_score, transitions, senone_scores)
    }
    fn finish_utterance(&mut self) -> Option<UtteranceReport> {
        None
    }
    fn reset(&mut self) {}
}

/// Lane threads park once they have spun past their window.  A frame posted
/// to a parked lane must wake it, and dropping a scorer must join a parked
/// lane and a lane whose thread panicked.  A lost wake-up would hang rather
/// than fail, so the body runs on its own thread under a watchdog.
#[test]
fn parked_and_panicked_lanes_wake_score_and_drop_under_a_watchdog() {
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        let task = build_task();
        let model = &task.acoustic_model;
        let ids: Vec<SenoneId> = (0..model.senones().len() as u32).map(SenoneId).collect();
        let x: Vec<f32> = (0..model.feature_dim()).map(|d| 0.05 * d as f32).collect();
        let software = || -> Box<dyn SenoneScorer> {
            ScoringBackendKind::Software
                .build_scorer(&GmmSelectionConfig::default())
                .expect("shard")
        };
        let sharded = |shards: Vec<Box<dyn SenoneScorer>>| {
            ShardedScorer::new(shards)
                .expect("sharded scorer")
                .with_parallelism(true)
        };
        let mut inline = sharded((0..2).map(|_| software()).collect()).with_parallelism(false);
        let want = inline.score_senones(model, &ids, &x).expect("score");
        let mut pooled = sharded((0..2).map(|_| software()).collect());
        for _ in 0..3 {
            let got = pooled.score_senones(model, &ids, &x).expect("score");
            assert_eq!(got, want);
            // About 80 times the lane's spin window, so the next frame is
            // posted to a parked thread.  The scores are checked whichever
            // way the threads interleave; the sleep only picks the path.
            std::thread::sleep(Duration::from_millis(30));
        }
        assert!(pooled.pool_is_live());
        drop(pooled);

        let mut broken = sharded(vec![software(), Box::new(PanickingScorer)]);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = broken.score_senones(model, &ids, &x);
        }));
        assert!(caught.is_err(), "a dead lane thread must panic the caller");
        drop(broken);
        done_tx.send(()).expect("watchdog listening");
    });
    match done_rx.recv_timeout(Duration::from_secs(60)) {
        Ok(()) => {}
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("a lane handoff hung: lost wake-up or unjoinable lane thread")
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            panic!("the watched test body panicked (see its output above)")
        }
    }
}

/// Sharding the SoC quarters the per-shard accelerator load, which the
/// merged report shows as per-frame real-time slack — the scale-out effect
/// the serving layer banks on, measured in *simulated cycles* rather than
/// host wall-clock so it holds deterministically on any machine (including
/// single-CPU CI containers where no wall-clock win is possible).
#[test]
fn sharding_creates_real_time_slack_in_simulated_cycles() {
    // A heavy acoustic load: every senone of a 12-component, 39-dim model
    // scored every frame, with no host-stage charge, so the real-time factor
    // is purely the accelerator's.
    let task = TaskGenerator::new(88)
        .generate(&TaskConfig {
            vocabulary_size: 20,
            num_phones: 40,
            feature_dim: 39,
            components_per_senone: 12,
            ..TaskConfig::small()
        })
        .expect("task");
    let model = &task.acoustic_model;
    let ids: Vec<SenoneId> = (0..model.senones().len() as u32).map(SenoneId).collect();
    let run = |backend: lvcsr::decoder::ScoringBackendKind| {
        let mut scorer = backend
            .build_scorer(&GmmSelectionConfig::default())
            .expect("scorer");
        for f in 0..10 {
            let x: Vec<f32> = (0..model.feature_dim())
                .map(|d| 0.01 * (f + d) as f32)
                .collect();
            scorer.begin_frame(&x);
            scorer.score_senones(model, &ids, &x).expect("score");
            scorer.end_frame(0, 0);
        }
        scorer.finish_utterance().expect("report")
    };
    let single = run(lvcsr::decoder::ScoringBackendKind::Hardware(
        lvcsr::hw::SocConfig::default(),
    ));
    let sharded = run(lvcsr::decoder::ScoringBackendKind::Sharded {
        shards: 4,
        inner: Box::new(lvcsr::decoder::ScoringBackendKind::Hardware(
            lvcsr::hw::SocConfig::default(),
        )),
    });
    assert_eq!(sharded.frames, single.frames);
    assert_eq!(sharded.senones_scored, single.senones_scored);
    // Four shards of two structures each: the busiest shard carries ~1/4 of
    // the scoring cycles, so its simulated real-time factor must be well
    // under the single SoC's (feature-load overhead keeps it above 1/4).
    assert!(
        sharded.worst_frame_rtf < single.worst_frame_rtf * 0.5,
        "4 shards must at least halve the accelerator load: {} vs {}",
        sharded.worst_frame_rtf,
        single.worst_frame_rtf
    );
    // This model is uniform-cost, so the cost-weighted partition lands on
    // the equal count split: the per-shard balance is near-perfect.
    let share = sharded.worst_shard_share().expect("sharded share");
    assert!(share < 0.27, "uniform model must split evenly: {share}");
}

/// A 120-senone model whose second half costs 32 mixture components per
/// senone against the first half's 2: an equal *count* split would pile the
/// heavy senones onto the last two shards, the cost-weighted split does
/// not.  Sized so the busiest shard's accelerator cycles dominate the
/// constant host-stage floor, which `worst_frame_rtf` takes a max with.
fn skewed_cost_model() -> AcousticModel {
    const DIM: usize = 39;
    const PHONES: usize = 40;
    const STATES: usize = 3;
    let n = PHONES * STATES;
    let mixtures: Vec<GaussianMixture> = (0..n)
        .map(|i| {
            let components = if i < n / 2 { 2 } else { 32 };
            let comps: Vec<(f32, DiagGaussian)> = (0..components)
                .map(|c| {
                    let mean: Vec<f32> = (0..DIM)
                        .map(|d| 0.1 * i as f32 + 0.01 * c as f32 + 0.05 * d as f32)
                        .collect();
                    (
                        1.0 / components as f32,
                        DiagGaussian::new(mean, vec![1.0; DIM]).unwrap(),
                    )
                })
                .collect();
            GaussianMixture::new(comps).unwrap()
        })
        .collect();
    let pool = SenonePool::new(mixtures).unwrap();
    let mut inventory = TriphoneInventory::new(HmmTopology::Three);
    for p in 0..PHONES {
        let senones: Vec<SenoneId> = (0..STATES)
            .map(|s| SenoneId((p * STATES + s) as u32))
            .collect();
        inventory
            .add(Triphone::context_independent(PhoneId(p as u16)), senones)
            .unwrap();
    }
    AcousticModel::new(
        AcousticModelConfig {
            num_senones: n,
            num_components: 32,
            feature_dim: DIM,
            topology: HmmTopology::Three,
            num_phones: PHONES,
            self_loop_prob: 0.5,
        },
        pool,
        inventory,
        TransitionMatrix::bakis(HmmTopology::Three, 0.5).unwrap(),
    )
    .unwrap()
}

/// On a skewed-cost model the cost-weighted partition moves the boundaries
/// away from an equal count split, the scores stay bit-identical to the
/// unsharded inner scorer, and the merged report's worst-shard bound
/// (`worst_frame_rtf`) comes in under the count split's.
#[test]
fn cost_weighted_partition_tightens_the_worst_shard_bound_on_skewed_models() {
    let model = skewed_cost_model();
    let ids: Vec<SenoneId> = (0..model.senones().len() as u32).map(SenoneId).collect();
    // Single-structure SoCs per shard: the intra-SoC structure split is
    // count-based, so a multi-structure shard would re-skew the load the
    // shard-level cost weighting just balanced.
    let soc = || {
        ScoringBackendKind::Hardware(lvcsr::hw::SocConfig {
            num_structures: 1,
            ..lvcsr::hw::SocConfig::default()
        })
        .build_scorer(&GmmSelectionConfig::default())
        .expect("shard")
    };
    let mut weighted = ShardedScorer::new((0..4).map(|_| soc()).collect()).expect("sharded scorer");

    // The partitions differ: the count split cuts every 30 senones, the
    // cost-weighted one by estimated component cost (total 60·2 + 60·32 =
    // 2040, ~510 per shard).
    let wb = weighted.partition_bounds(&model, &ids);
    let eb: Vec<usize> = (0..=4).map(|k| k * ids.len() / 4).collect();
    assert_eq!(eb, vec![0, 30, 60, 90, 120]);
    assert_ne!(wb, eb, "cost weighting must move the boundaries");
    let shard_cost = |bounds: &[usize], k: usize| -> u64 {
        ids[bounds[k]..bounds[k + 1]]
            .iter()
            .map(|id| {
                model
                    .senones()
                    .get(*id)
                    .map(|s| s.mixture().num_components() as u64)
                    .unwrap_or(1)
            })
            .sum()
    };
    let worst_cost = |bounds: &[usize]| (0..4).map(|k| shard_cost(bounds, k)).max().unwrap();
    assert!(
        worst_cost(&wb) < worst_cost(&eb),
        "cost-weighted worst shard {} must beat the count split's {}",
        worst_cost(&wb),
        worst_cost(&eb)
    );

    // Drive the sharded scorer, the unsharded inner scorer, and four SoCs
    // over the count split by hand, through the same eight frames.
    let frame = |f: usize| -> Vec<f32> {
        (0..model.feature_dim())
            .map(|d| 0.01 * (f + d) as f32)
            .collect()
    };
    let mut weighted_scores = Vec::new();
    let mut single = soc();
    let mut single_scores = Vec::new();
    let mut counted: Vec<Box<dyn SenoneScorer>> = (0..4).map(|_| soc()).collect();
    let mut counted_scores = Vec::new();
    for f in 0..8 {
        let x = frame(f);
        weighted.begin_frame(&x);
        weighted_scores.push(weighted.score_senones(&model, &ids, &x).expect("score"));
        weighted.end_frame(0, 0);
        single.begin_frame(&x);
        single_scores.push(single.score_senones(&model, &ids, &x).expect("score"));
        single.end_frame(0, 0);
        let mut frame_scores = Vec::new();
        for (k, shard) in counted.iter_mut().enumerate() {
            shard.begin_frame(&x);
            frame_scores.extend(
                shard
                    .score_senones(&model, &ids[eb[k]..eb[k + 1]], &x)
                    .expect("score"),
            );
            shard.end_frame(0, 0);
        }
        counted_scores.push(frame_scores);
    }
    let weighted_report = weighted.finish_utterance().expect("report");
    let single_report = single.finish_utterance().expect("report");
    let equal_report = counted
        .iter_mut()
        .map(|shard| shard.finish_utterance().expect("report"))
        .reduce(|acc, r| acc.merge_parallel(&r))
        .expect("four reports");

    // Observational purity: the partition never changes a score.
    for reference in [&single_scores, &counted_scores] {
        for (a_frame, b_frame) in weighted_scores.iter().zip(reference) {
            assert_eq!(a_frame.len(), b_frame.len());
            for ((ia, sa), (ib, sb)) in a_frame.iter().zip(b_frame) {
                assert_eq!(ia, ib);
                assert_eq!(sa.raw(), sb.raw(), "partition changed {ia:?}");
            }
        }
    }
    assert_eq!(weighted_report.senones_scored, single_report.senones_scored);
    assert_eq!(weighted_report.senones_scored, equal_report.senones_scored);

    // The balance stats surface the difference: the count split is
    // count-perfect but cost-lopsided; cost-weighting trades senone counts
    // for a tighter worst-shard work bound, which the merged simulated-cycle
    // report shows.
    assert_eq!(equal_report.shard_senones, vec![240, 240, 240, 240]);
    assert_eq!(
        weighted_report.shard_senones.iter().sum::<u64>(),
        weighted_report.senones_scored
    );
    assert_ne!(weighted_report.shard_senones, equal_report.shard_senones);
    assert!((equal_report.worst_shard_share().unwrap() - 0.25).abs() < 1e-12);
    assert!(
        weighted_report.worst_frame_rtf < equal_report.worst_frame_rtf * 0.95,
        "cost weighting must tighten the worst-shard bound: {} vs {}",
        weighted_report.worst_frame_rtf,
        equal_report.worst_frame_rtf
    );
}
