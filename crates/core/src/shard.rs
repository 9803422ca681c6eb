//! The sharded multi-SoC scorer: one [`SenoneScorer`] built from several.
//!
//! The paper scales senone scoring *up* by adding accelerator structures
//! inside one SoC; ASRPU-style designs scale it *out* by partitioning the
//! active-senone set across parallel scoring units.  [`ShardedScorer`] is
//! that scale-out step behind the existing seam: it owns N inner scorers
//! (N [`SpeechSoc`] instances via [`SocScorer`], or any mix of backends),
//! splits every frame's active set into N contiguous slices, scores the
//! slices concurrently, and folds the per-shard hardware reports with
//! [`UtteranceReport::merge_parallel`] so the final report describes one
//! scaled-out machine over one audio stream rather than N copies of the
//! audio.
//!
//! There is one way to do each step, and nothing to tune:
//!
//! * **Lanes** — the shards are cut into `min(N, max(2, cpus))` contiguous
//!   groups, one per *lane*.  Lane 0 (the floor share of the shards) scores
//!   on the calling thread; every other lane is a thread that owns its group
//!   for the life of the scorer, so at most `max(1, cpus − 1)` threads run
//!   however many shards there are.  The threads are spawned lazily on the
//!   first parallel frame and joined when the scorer drops; neither
//!   [`SenoneScorer::finish_utterance`] nor [`SenoneScorer::reset`] touches
//!   them, so a batch — or a serving worker decoding indefinitely — spawns
//!   them exactly once.
//! * **Lock-step** — like the paper's OP and Viterbi units on one frame
//!   clock, the caller and the lane threads meet once per frame: the caller
//!   copies the frame's inputs into each busy lane, bumps its `posted`
//!   counter and scores lane 0, then waits on each lane's `done` counter.
//!   A lane thread spins on `posted` for a bounded count before it parks,
//!   so back-to-back frames never pay an OS wake-up.  Frames with fewer
//!   than eight active senones, and every frame on a single-CPU host, are
//!   scored lane by lane on the calling thread instead.  Each group sits
//!   behind a [`Mutex`], which the caller also takes between frames for the
//!   per-shard calls (frame windows, HMM steps, reports), so nothing
//!   borrows across threads.
//! * **Partition** — the active set splits into contiguous slices of equal
//!   *estimated cost* (per-senone mixture component count), so a model with
//!   skewed mixture sizes still loads its shards evenly.  On a uniform-cost
//!   model no slice is larger than `ceil(len / N)` senones.
//!
//! Because every senone is scored by exactly one shard with the same
//! arithmetic the unsharded backend would use, and results are appended in
//! shard order, sharding is *observationally pure*: scores, hypotheses and
//! decode statistics are identical to the unsharded inner scorer
//! (property-tested in `tests/shard.rs`), and only wall-clock throughput
//! and the hardware report's shape change.
//!
//! [`SpeechSoc`]: asr_hw::SpeechSoc
//! [`SocScorer`]: crate::SocScorer

use crate::scorer::{HmmStepResult, SenoneScorer};
use crate::DecodeError;
use asr_acoustic::{AcousticModel, SenoneId, TransitionMatrix};
use asr_float::LogProb;
use asr_hw::UtteranceReport;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// A lane thread died, which only happens if an inner scorer panicked on
/// it — propagated to the caller as a panic.
const WORKER_DIED: &str = "shard scoring worker panicked";

/// Below this many active senones a frame is scored on the calling thread,
/// shard by shard: a tiny frame's dispatch overhead would otherwise dominate
/// its scoring cost.
const MIN_PARALLEL_SENONES: usize = 8;

/// How many times a waiting side polls its counter (see [`spin_until`])
/// before it stops spinning: a lane thread then parks, the caller yields.
/// About 0.36 ms on a Xeon whose `pause` takes 22 ns — longer than the run
/// of small, inline-scored frames a decode has between two parallel ones,
/// so a warm decode does not park its lanes, and short enough that an idle
/// scorer hands its CPUs back within a millisecond.
const SPIN_LIMIT: u32 = 1 << 14;

/// The `posted` value that tells a lane thread to exit.
const STOP: u64 = u64::MAX;

/// One lane's shards, and — for a thread lane — the frame posted to it.
#[derive(Debug, Default)]
struct Group {
    shards: Vec<Box<dyn SenoneScorer>>,
    /// The model the posted frame is scored against: a clone of the
    /// caller's (which shares its parameters), refreshed when the id
    /// changes.
    model: Option<AcousticModel>,
    /// Copies of the frame's active set, of the partition's cut points from
    /// this group's first shard on (see [`score_shards`]), and of the
    /// feature vector.
    active: Vec<SenoneId>,
    bounds: Vec<usize>,
    feature: Vec<f32>,
    /// The posted frame's scores and the first error among its shards.
    scores: Vec<(SenoneId, LogProb)>,
    error: Option<DecodeError>,
}

/// The frame counters the caller and one lane thread meet on, aligned so
/// that polling them never contends with the group lock's cache line.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Signals {
    /// Frames posted to the lane (or [`STOP`]); written only by the caller.
    posted: AtomicU64,
    /// Frames the lane has finished; written only by its thread.
    done: AtomicU64,
    /// Set by the lane thread while it is (about to be) parked.
    parked: AtomicBool,
}

#[derive(Debug, Default)]
struct Lane {
    signals: Signals,
    /// The shards the group holds, as indices into the whole scorer's.
    span: Range<usize>,
    group: Mutex<Group>,
}

impl Lane {
    /// The lane's group.  A poisoned lock means a shard panicked while it
    /// was held, on this lane's thread or on the caller's.
    fn lock(&self) -> MutexGuard<'_, Group> {
        self.group.lock().expect(WORKER_DIED)
    }

    /// Caller side: publishes frame number `frame` and wakes the lane
    /// thread if it parked.  The `SeqCst` store-then-load here and the
    /// thread's store-`parked`-then-load-`posted` cannot both miss each
    /// other, so no wake-up is lost.
    fn post(&self, frame: u64, worker: &JoinHandle<()>) {
        self.signals.posted.store(frame, SeqCst);
        if self.signals.parked.load(SeqCst) {
            worker.thread().unpark();
        }
    }

    /// Caller side: waits until the lane has finished `frame`, spinning
    /// first and then yielding, and panics if its thread has died.
    fn wait_done(&self, frame: u64, worker: &JoinHandle<()>) {
        let done = || self.signals.done.load(SeqCst) == frame;
        if !spin_until(done) {
            while !done() {
                assert!(!worker.is_finished(), "{WORKER_DIED}");
                std::thread::yield_now();
            }
        }
    }

    /// Lane-thread side: the next frame posted after `seen`, or `None` once
    /// the scorer is dropped.
    fn next_frame(&self, seen: u64) -> Option<u64> {
        let posted = || self.signals.posted.load(SeqCst);
        while !spin_until(|| posted() != seen) {
            self.signals.parked.store(true, SeqCst);
            if posted() == seen {
                std::thread::park();
            }
            self.signals.parked.store(false, SeqCst);
        }
        Some(posted()).filter(|&frame| frame != STOP)
    }

    /// The body of a lane thread: score every posted frame until `STOP`.
    fn serve(&self) {
        let mut seen = 0;
        while let Some(frame) = self.next_frame(seen) {
            seen = frame;
            let mut guard = self.lock();
            let Group {
                shards,
                model,
                active,
                bounds,
                feature,
                scores,
                error,
            } = &mut *guard;
            let model = model.as_ref().expect("a model is posted with every frame");
            scores.clear();
            *error = score_shards(shards, model, active, bounds, feature, scores).err();
            drop(guard);
            self.signals.done.store(frame, SeqCst);
        }
    }
}

/// Polls `ready` up to [`SPIN_LIMIT`] times; whether it came true.
fn spin_until(ready: impl Fn() -> bool) -> bool {
    (0..SPIN_LIMIT).any(|_| {
        std::hint::spin_loop();
        ready()
    })
}

/// Scores `shards[k]`'s slice `active[bounds[k]..bounds[k + 1]]` for each
/// `k`, appending to `out` in shard order.
fn score_shards(
    shards: &mut [Box<dyn SenoneScorer>],
    model: &AcousticModel,
    active: &[SenoneId],
    bounds: &[usize],
    feature: &[f32],
    out: &mut Vec<(SenoneId, LogProb)>,
) -> Result<(), DecodeError> {
    for (shard, cut) in shards.iter_mut().zip(bounds.windows(2)) {
        let part = &active[cut[0]..cut[1]];
        if !part.is_empty() {
            shard.score_senones_into(model, part, feature, out)?;
        }
    }
    Ok(())
}

/// Writes the partition boundaries for `active` into `bounds`
/// (`n + 1` entries, `bounds[k]..bounds[k + 1]` is shard `k`'s slice): each
/// shard is cut as soon as the prefix holds its share of the total
/// estimated cost.
fn fill_bounds(bounds: &mut Vec<usize>, n: usize, active: &[SenoneId], costs: &[u32]) {
    bounds.clear();
    bounds.push(0);
    let cost_of = |id: SenoneId| -> u64 { costs.get(id.index()).copied().unwrap_or(1) as u64 };
    let total: u64 = active.iter().map(|&id| cost_of(id)).sum();
    let mut acc = 0u64;
    for (i, &id) in active.iter().enumerate() {
        acc += cost_of(id);
        // Cut shard k = bounds.len() as soon as the prefix holds a k/n
        // share of the total cost; a dominant senone may produce empty
        // slices for later shards, which simply score nothing that frame.
        while bounds.len() < n && acc * n as u64 >= total * bounds.len() as u64 {
            bounds.push(i + 1);
        }
    }
    while bounds.len() <= n {
        bounds.push(active.len());
    }
}

/// A scorer that shards the active-senone set across several inner scorers.
///
/// * [`SenoneScorer::score_senones_into`] splits the active set into
///   `num_shards()` contiguous slices of equal estimated cost (mixture
///   component count) and scores them concurrently, concatenating the
///   per-slice results in `active` order.  The shards are grouped into
///   lanes: lane 0 scores on the calling thread, every other lane on a
///   thread that owns its shards for the scorer's life and meets the
///   caller once per frame (zero thread spawns per frame).
/// * [`SenoneScorer::step_hmm`] dispatches HMM updates round-robin across the
///   shards, mirroring [`SpeechSoc`]'s internal structure scheduling.
/// * [`SenoneScorer::finish_utterance`] folds the shards' reports with
///   [`UtteranceReport::merge_parallel`], which also records the per-shard
///   scored-senone balance ([`UtteranceReport::shard_senones`] /
///   [`UtteranceReport::worst_shard_share`]).  The lane threads stay warm
///   across utterances (neither `finish_utterance` nor
///   [`SenoneScorer::reset`] touches them); they join when the scorer is
///   dropped, so a batch — or a serving worker — spawns threads once, not
///   once per utterance.
/// * The host-side bookkeeping calls ([`SenoneScorer::dma_fetch`], the
///   software-stage charge of [`SenoneScorer::end_frame`]) go to shard 0
///   only, so host cycles and dictionary traffic are not multiplied by the
///   shard count; every shard still opens and closes its frame window.
///
/// Build one directly from live scorers with [`ShardedScorer::new`], or
/// declaratively through
/// [`ScoringBackendKind::Sharded`](crate::ScoringBackendKind::Sharded).
///
/// [`SpeechSoc`]: asr_hw::SpeechSoc
#[derive(Debug)]
pub struct ShardedScorer {
    /// The shard groups in shard order; lane 0 scores on the caller.
    lanes: Vec<Arc<Lane>>,
    /// The threads serving lanes `1..`: empty until the first parallel
    /// frame, then warm across utterances until the scorer drops.
    workers: Vec<JoinHandle<()>>,
    num_shards: usize,
    next_hmm_shard: usize,
    /// Whether to score lanes on threads at all.  Defaults to "only when the
    /// host has more than one CPU": on a single-core host the threads would
    /// serialise anyway and only the dispatch overhead would remain.
    parallel: bool,
    /// The partition's estimated relative scoring cost per senone: its
    /// mixture component count (each component costs one full pass over the
    /// feature vector on every backend).  A model-level cache in the sense
    /// of the [`SenoneScorer`] contract, keyed on [`AcousticModel::id`].
    costs: Vec<u32>,
    costs_model: Option<u64>,
    /// Reusable partition-boundary scratch.
    bounds: Vec<usize>,
}

impl ShardedScorer {
    /// Builds the scorer around the given shards (any mix of backends).
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::InvalidConfig`] when `shards` is empty.
    pub fn new(shards: Vec<Box<dyn SenoneScorer>>) -> Result<Self, DecodeError> {
        if shards.is_empty() {
            return Err(DecodeError::InvalidConfig(
                "a sharded scorer needs at least one shard".into(),
            ));
        }
        let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let n = shards.len();
        let lanes = n.min(host_cpus.max(2));
        let mut shards = shards.into_iter();
        Ok(ShardedScorer {
            lanes: (0..lanes)
                .map(|k| {
                    let span = k * n / lanes..(k + 1) * n / lanes;
                    let lane = Lane {
                        span,
                        ..Lane::default()
                    };
                    lane.lock()
                        .shards
                        .extend(shards.by_ref().take(lane.span.len()));
                    Arc::new(lane)
                })
                .collect(),
            workers: Vec::new(),
            num_shards: n,
            next_hmm_shard: 0,
            parallel: n > 1 && host_cpus > 1,
            costs: Vec::new(),
            costs_model: None,
            bounds: Vec::new(),
        })
    }

    /// Overrides the host-parallelism heuristic: `true` forces threaded
    /// scoring even on a single-core host, `false` forces the sequential
    /// fan-out.  Results are identical either way; only wall-clock changes.
    pub fn with_parallelism(mut self, parallel: bool) -> Self {
        self.parallel = parallel && self.num_shards > 1;
        self
    }

    /// Whether frames are scored on threads (false on single-core hosts,
    /// where the shards still partition the work but score in turn).
    pub fn is_parallel(&self) -> bool {
        self.parallel
    }

    /// Number of inner scorers.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Whether the lane threads are live (any time after the first parallel
    /// frame; they survive [`SenoneScorer::finish_utterance`] and
    /// [`SenoneScorer::reset`] and join on drop).
    pub fn pool_is_live(&self) -> bool {
        !self.workers.is_empty()
    }

    /// The inner scorers' names, in shard order.
    pub fn shard_names(&self) -> Vec<&'static str> {
        let mut names = Vec::new();
        self.for_each_shard(|_, shard| names.push(shard.name()));
        names
    }

    /// The contiguous slice boundaries `active` is partitioned into for
    /// `model` (`num_shards() + 1` entries).  Exposed for tests and
    /// load-balance inspection; scoring uses exactly this split.
    pub fn partition_bounds(&mut self, model: &AcousticModel, active: &[SenoneId]) -> Vec<usize> {
        let mut bounds = Vec::new();
        fill_bounds(&mut bounds, self.num_shards, active, self.costs(model));
        bounds
    }

    /// The per-senone cost table of `model`, rebuilding the model cache
    /// when `model` is not the one it was built from.
    fn costs(&mut self, model: &AcousticModel) -> &[u32] {
        if self.costs_model != Some(model.id()) {
            let senones = model.senones().iter();
            self.costs = senones
                .map(|s| s.mixture().num_components() as u32)
                .collect();
            self.costs_model = Some(model.id());
        }
        &self.costs
    }

    /// Calls `f` on every shard in shard order, with its index.
    fn for_each_shard(&self, mut f: impl FnMut(usize, &mut dyn SenoneScorer)) {
        for lane in &self.lanes {
            for (k, shard) in lane.span.clone().zip(lane.lock().shards.iter_mut()) {
                f(k, shard.as_mut());
            }
        }
    }

    /// Sequential fan-out over the partition on the calling thread (small
    /// frames, and hosts where threading cannot win).
    fn score_inline(
        &self,
        lanes: Range<usize>,
        model: &AcousticModel,
        active: &[SenoneId],
        feature: &[f32],
        bounds: &[usize],
        out: &mut Vec<(SenoneId, LogProb)>,
    ) -> Result<(), DecodeError> {
        for lane in &self.lanes[lanes] {
            let cuts = &bounds[lane.span.start..];
            score_shards(&mut lane.lock().shards, model, active, cuts, feature, out)?;
        }
        Ok(())
    }

    /// Lock-step dispatch: posts the frame to every thread lane that has
    /// work, scores lane 0 here, then collects the lanes' results in shard
    /// order.  An error is held until every posted lane has answered, so no
    /// lane is still scoring when the call returns; the first one wins.
    fn score_parallel(
        &mut self,
        model: &AcousticModel,
        active: &[SenoneId],
        feature: &[f32],
        bounds: &[usize],
        out: &mut Vec<(SenoneId, LogProb)>,
    ) -> Result<(), DecodeError> {
        if self.workers.is_empty() {
            for (k, lane) in self.lanes.iter().enumerate().skip(1) {
                let lane = Arc::clone(lane);
                let worker = std::thread::Builder::new()
                    .name(format!("shard-lane-{k}"))
                    .spawn(move || lane.serve())
                    .expect("spawn shard lane thread");
                self.workers.push(worker);
            }
        }
        for (lane, worker) in self.lanes[1..].iter().zip(&self.workers) {
            if bounds[lane.span.start] == bounds[lane.span.end] {
                continue;
            }
            let mut group = lane.lock();
            if group.model.as_ref().map(AcousticModel::id) != Some(model.id()) {
                group.model = Some(model.clone());
            }
            group.active.clear();
            group.active.extend_from_slice(active);
            group.bounds.clear();
            group.bounds.extend_from_slice(&bounds[lane.span.start..]);
            group.feature.clear();
            group.feature.extend_from_slice(feature);
            drop(group);
            lane.post(lane.signals.posted.load(SeqCst) + 1, worker);
        }
        let mut result = self.score_inline(0..1, model, active, feature, bounds, out);
        for (lane, worker) in self.lanes[1..].iter().zip(&self.workers) {
            if bounds[lane.span.start] == bounds[lane.span.end] {
                continue;
            }
            lane.wait_done(lane.signals.posted.load(SeqCst), worker);
            let mut group = lane.lock();
            if let Some(e) = group.error.take() {
                result = result.and(Err(e));
            }
            if result.is_ok() {
                out.append(&mut group.scores);
            }
        }
        result
    }
}

impl Drop for ShardedScorer {
    fn drop(&mut self) {
        // A lane thread that panicked already surfaced as a caller panic in
        // `wait_done`, so join errors are not re-raised here.
        for (lane, worker) in self.lanes[1..].iter().zip(&self.workers) {
            lane.signals.posted.store(STOP, SeqCst);
            worker.thread().unpark();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl SenoneScorer for ShardedScorer {
    fn name(&self) -> &'static str {
        "sharded"
    }

    fn begin_frame(&mut self, feature: &[f32]) {
        self.for_each_shard(|_, shard| shard.begin_frame(feature));
    }

    fn score_senones_into(
        &mut self,
        model: &AcousticModel,
        active: &[SenoneId],
        feature: &[f32],
        out: &mut Vec<(SenoneId, LogProb)>,
    ) -> Result<(), DecodeError> {
        if self.num_shards == 1 {
            return self.lanes[0].lock().shards[0].score_senones_into(model, active, feature, out);
        }
        let mut bounds = std::mem::take(&mut self.bounds);
        fill_bounds(&mut bounds, self.num_shards, active, self.costs(model));
        let result = if !self.parallel || active.len() < MIN_PARALLEL_SENONES {
            self.score_inline(0..self.lanes.len(), model, active, feature, &bounds, out)
        } else {
            self.score_parallel(model, active, feature, &bounds, out)
        };
        self.bounds = bounds;
        result
    }

    fn step_hmm(
        &mut self,
        prev_scores: &[LogProb],
        entry_score: LogProb,
        transitions: &TransitionMatrix,
        senone_scores: &[LogProb],
    ) -> Result<HmmStepResult, DecodeError> {
        let idx = self.next_hmm_shard;
        self.next_hmm_shard = (idx + 1) % self.num_shards;
        let lane = self.lanes.iter().find(|lane| lane.span.contains(&idx));
        let lane = lane.expect("the lanes cover every shard");
        lane.lock().shards[idx - lane.span.start].step_hmm(
            prev_scores,
            entry_score,
            transitions,
            senone_scores,
        )
    }

    fn dma_fetch(&mut self, bytes: u64) {
        // Dictionary / LM traffic happens once, not once per shard.
        self.lanes[0].lock().shards[0].dma_fetch(bytes);
    }

    fn end_frame(&mut self, active_triphones: usize, lattice_edges: usize) {
        // The host software stages run once; charge them to shard 0.  Every
        // other shard still closes its frame window (idle cycles, bandwidth).
        self.for_each_shard(|i, shard| {
            if i == 0 {
                shard.end_frame(active_triphones, lattice_edges);
            } else {
                shard.end_frame(0, 0);
            }
        });
    }

    fn finish_utterance(&mut self) -> Option<UtteranceReport> {
        self.next_hmm_shard = 0;
        // The lane threads deliberately survive this call: like the model
        // cache, they are cross-utterance state, so the next utterance of a
        // batch — or the next request on a warm serving worker — reuses
        // them.  They join when the scorer drops.
        let mut merged: Option<UtteranceReport> = None;
        self.for_each_shard(|_, shard| {
            if let Some(report) = shard.finish_utterance() {
                merged = Some(match merged.take() {
                    Some(acc) => acc.merge_parallel(&report),
                    None => report,
                });
            }
        });
        merged
    }

    fn reset(&mut self) {
        self.next_hmm_shard = 0;
        // The lane threads are cross-utterance state like the model cache:
        // the decoder resets its scorer at the start of every utterance, so
        // joining them here would respawn them per utterance.
        self.for_each_shard(|_, shard| shard.reset());
    }

    /// This scorer's lane threads, `min(N − 1, max(1, cpus − 1))`, spawned
    /// exactly once for the scorer's whole life however many utterances it
    /// decodes, plus whatever its shards spawned (a sharded shard has lanes
    /// of its own).
    fn threads_spawned(&self) -> usize {
        let mut spawned = self.workers.len();
        self.for_each_shard(|_, shard| spawned += shard.threads_spawned());
        spawned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GmmSelectionConfig, ScoringBackendKind};
    use crate::scorer::{SimdScorer, SocScorer, SoftwareScorer};
    use asr_acoustic::AcousticModelConfig;
    use asr_hw::SocConfig;

    fn model() -> AcousticModel {
        AcousticModel::untrained(AcousticModelConfig::tiny()).unwrap()
    }

    fn all_ids(m: &AcousticModel) -> Vec<SenoneId> {
        (0..m.senones().len() as u32).map(SenoneId).collect()
    }

    /// Lane threads a parallel `n`-shard scorer spawns on this host:
    /// `min(n − 1, max(1, cpus − 1))`.
    fn lane_threads(n: usize) -> usize {
        let cpus = std::thread::available_parallelism().map_or(1, |c| c.get());
        (n - 1).min(cpus.saturating_sub(1).max(1))
    }

    fn soc_shards(n: usize) -> ShardedScorer {
        let shards: Vec<Box<dyn SenoneScorer>> = (0..n)
            .map(|_| {
                Box::new(SocScorer::new(SocConfig::default()).unwrap()) as Box<dyn SenoneScorer>
            })
            .collect();
        ShardedScorer::new(shards).unwrap()
    }

    #[test]
    fn empty_shard_list_is_a_typed_error() {
        assert!(matches!(
            ShardedScorer::new(Vec::new()),
            Err(DecodeError::InvalidConfig(_))
        ));
    }

    #[test]
    fn sharded_scores_match_the_unsharded_inner_scorer() {
        let m = model();
        let ids = all_ids(&m);
        let x: Vec<f32> = (0..m.feature_dim()).map(|d| 0.23 * d as f32).collect();
        let mut reference = SocScorer::new(SocConfig::default()).unwrap();
        reference.begin_frame(&x);
        let want = reference.score_senones(&m, &ids, &x).unwrap();
        for n in [1usize, 2, 4] {
            let mut sharded = soc_shards(n).with_parallelism(true);
            sharded.begin_frame(&x);
            let got = sharded.score_senones(&m, &ids, &x).unwrap();
            assert_eq!(got.len(), want.len());
            for ((ia, sa), (ib, sb)) in want.iter().zip(&got) {
                assert_eq!(ia, ib, "{n} shards must keep active order");
                assert_eq!(sa.raw(), sb.raw(), "{n} shards changed {ia:?}");
            }
        }
    }

    #[test]
    fn forced_parallel_and_sequential_paths_agree() {
        let m = model();
        let ids = all_ids(&m); // 24 senones: above the parallel threshold
        let x: Vec<f32> = (0..m.feature_dim()).map(|d| 0.31 * d as f32).collect();
        let mut parallel = soc_shards(4).with_parallelism(true);
        let mut sequential = soc_shards(4).with_parallelism(false);
        assert!(parallel.is_parallel());
        assert!(!sequential.is_parallel());
        parallel.begin_frame(&x);
        sequential.begin_frame(&x);
        let a = parallel.score_senones(&m, &ids, &x).unwrap();
        let b = sequential.score_senones(&m, &ids, &x).unwrap();
        for ((ia, sa), (ib, sb)) in a.iter().zip(&b) {
            assert_eq!(ia, ib);
            assert_eq!(sa.raw(), sb.raw(), "thread scheduling must not leak in");
        }
        // A single shard never parallelises, even when asked to.
        assert!(!soc_shards(1).with_parallelism(true).is_parallel());
    }

    #[test]
    fn pooled_dispatch_spawns_workers_once_per_scorer() {
        let m = model();
        let ids = all_ids(&m);
        let frames = 12;
        let mut pooled = soc_shards(3).with_parallelism(true);
        assert_eq!(pooled.threads_spawned(), 0);
        for _utterance in 1..=2u32 {
            for f in 0..frames {
                let x: Vec<f32> = (0..m.feature_dim())
                    .map(|d| 0.01 * (f + d) as f32)
                    .collect();
                pooled.begin_frame(&x);
                pooled.score_senones(&m, &ids, &x).unwrap();
                pooled.end_frame(1, 0);
            }
            assert!(pooled.pool_is_live());
            pooled.finish_utterance().unwrap();
            // The pool survives the utterance boundary: the workers spawned
            // on the first parallel frame serve every later utterance too.
            assert!(pooled.pool_is_live(), "finish_utterance keeps the pool");
            assert_eq!(pooled.threads_spawned(), lane_threads(3));
        }
        // reset() — what the decoder calls at every utterance start — keeps
        // the pool too: the next parallel frame reuses the same workers.
        pooled.reset();
        assert!(pooled.pool_is_live(), "reset keeps the pool");
        let x = vec![0.1f32; m.feature_dim()];
        pooled.begin_frame(&x);
        pooled.score_senones(&m, &ids, &x).unwrap();
        assert_eq!(pooled.threads_spawned(), lane_threads(3));
    }

    #[test]
    fn spawn_count_includes_a_sharded_shard_pool() {
        let m = model();
        let ids = all_ids(&m); // 24 senones: each half is above the threshold
        let x = vec![0.1f32; m.feature_dim()];
        let inner: Box<dyn SenoneScorer> = Box::new(soc_shards(3).with_parallelism(true));
        let plain: Box<dyn SenoneScorer> = Box::new(SocScorer::new(SocConfig::default()).unwrap());
        let mut nested = ShardedScorer::new(vec![inner, plain])
            .unwrap()
            .with_parallelism(true);
        nested.begin_frame(&x);
        nested.score_senones(&m, &ids, &x).unwrap();
        // The outer scorer's lane thread plus the inner scorer's own.
        assert_eq!(nested.threads_spawned(), lane_threads(2) + lane_threads(3));
    }

    /// The tentpole property behind warm-server zero-spawn serving: a
    /// 16-utterance stream through one pooled scorer spawns its lane threads
    /// exactly once, on the first parallel frame of the first utterance,
    /// and the results stay identical to a fresh scorer's.
    #[test]
    fn pool_survives_a_16_utterance_stream_with_one_spawn() {
        let m = model();
        let ids = all_ids(&m);
        let mut warm = soc_shards(3).with_parallelism(true);
        let mut reports = Vec::new();
        for utterance in 0..16 {
            for f in 0..4 {
                let x: Vec<f32> = (0..m.feature_dim())
                    .map(|d| 0.01 * (utterance + f + d) as f32)
                    .collect();
                warm.begin_frame(&x);
                let scores = warm.score_senones(&m, &ids, &x).unwrap();
                // Same arithmetic as a cold scorer on the same frame.
                let mut cold = soc_shards(3).with_parallelism(false);
                cold.begin_frame(&x);
                let want = cold.score_senones(&m, &ids, &x).unwrap();
                for ((ia, sa), (ib, sb)) in want.iter().zip(&scores) {
                    assert_eq!(ia, ib);
                    assert_eq!(sa.raw(), sb.raw());
                }
                warm.end_frame(1, 0);
            }
            reports.push(warm.finish_utterance().unwrap());
            assert_eq!(
                warm.threads_spawned(),
                lane_threads(3),
                "utterance {utterance} must not respawn the pool"
            );
        }
        assert_eq!(reports.len(), 16);
        assert!(reports.iter().all(|r| r.frames == 4));
    }

    /// A backend whose scoring panics — stands in for an inner-scorer bug.
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
            crate::scorer::software_step_hmm(prev_scores, entry_score, transitions, senone_scores)
        }
        fn finish_utterance(&mut self) -> Option<UtteranceReport> {
            None
        }
        fn reset(&mut self) {}
    }

    /// A backend that scores normally for `healthy_calls` frames, then
    /// panics — an inner-scorer bug that only bites once the pool is warm.
    #[derive(Debug)]
    struct LatePanickingScorer {
        inner: SoftwareScorer,
        healthy_calls: usize,
        calls: usize,
    }

    impl SenoneScorer for LatePanickingScorer {
        fn name(&self) -> &'static str {
            "late-panicking"
        }
        fn begin_frame(&mut self, _feature: &[f32]) {}
        fn score_senones_into(
            &mut self,
            model: &AcousticModel,
            active: &[SenoneId],
            feature: &[f32],
            out: &mut Vec<(SenoneId, LogProb)>,
        ) -> Result<(), DecodeError> {
            self.calls += 1;
            if self.calls > self.healthy_calls {
                panic!("inner scorer bug on call {}", self.calls);
            }
            self.inner.score_senones_into(model, active, feature, out)
        }
        fn step_hmm(
            &mut self,
            prev_scores: &[LogProb],
            entry_score: LogProb,
            transitions: &TransitionMatrix,
            senone_scores: &[LogProb],
        ) -> Result<HmmStepResult, DecodeError> {
            crate::scorer::software_step_hmm(prev_scores, entry_score, transitions, senone_scores)
        }
        fn finish_utterance(&mut self) -> Option<UtteranceReport> {
            None
        }
        fn reset(&mut self) {}
    }

    /// With the pool surviving utterance boundaries, a worker that panics on
    /// a *later* utterance of a batch (its threads long since spawned) must
    /// still propagate to the caller as a panic, never a hang: the caller
    /// stops waiting on the lane's `done` counter once its thread has
    /// finished.
    #[test]
    fn pooled_worker_panic_mid_batch_propagates() {
        let m = model();
        let ids = all_ids(&m);
        let healthy = || Box::new(SoftwareScorer::new()) as Box<dyn SenoneScorer>;
        // Worker shard 1 stays healthy for its first 2 frames (utterance 1),
        // then dies on its first frame of utterance 2.
        let mut sharded = ShardedScorer::new(vec![
            healthy(),
            Box::new(LatePanickingScorer {
                inner: SoftwareScorer::new(),
                healthy_calls: 2,
                calls: 0,
            }) as Box<dyn SenoneScorer>,
            healthy(),
        ])
        .unwrap()
        .with_parallelism(true);
        let x = vec![0.1f32; m.feature_dim()];
        for _ in 0..2 {
            sharded.begin_frame(&x);
            sharded.score_senones(&m, &ids, &x).unwrap();
            sharded.end_frame(1, 0);
        }
        assert!(sharded.finish_utterance().is_none());
        assert!(sharded.pool_is_live(), "pool warm into utterance 2");
        sharded.begin_frame(&x);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = sharded.score_senones(&m, &ids, &x);
        }))
        .expect_err("a dead worker must panic the caller");
        let message = caught
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| caught.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            message.contains("shard scoring worker panicked"),
            "unexpected panic payload: {message}"
        );
    }

    /// A lane thread that dies mid-frame must panic the caller, never leave
    /// it waiting on a `done` counter that cannot advance.
    #[test]
    #[should_panic(expected = "shard scoring worker panicked")]
    fn pooled_worker_panic_propagates_instead_of_deadlocking() {
        let m = model();
        let ids = all_ids(&m);
        let x = vec![0.1f32; m.feature_dim()];
        let mut sharded = ShardedScorer::new(vec![
            Box::new(SoftwareScorer::new()) as Box<dyn SenoneScorer>,
            Box::new(SoftwareScorer::new()) as Box<dyn SenoneScorer>,
            Box::new(PanickingScorer) as Box<dyn SenoneScorer>,
            Box::new(SoftwareScorer::new()) as Box<dyn SenoneScorer>,
        ])
        .unwrap()
        .with_parallelism(true);
        sharded.begin_frame(&x);
        let _ = sharded.score_senones(&m, &ids, &x);
    }

    #[test]
    fn small_frames_stay_inline_under_the_threshold() {
        let m = model();
        let x: Vec<f32> = (0..m.feature_dim()).map(|d| 0.05 * d as f32).collect();
        let small: Vec<SenoneId> = (0..4).map(SenoneId).collect();
        let mut sharded = soc_shards(4).with_parallelism(true);
        sharded.begin_frame(&x);
        sharded.score_senones(&m, &small, &x).unwrap();
        assert_eq!(
            sharded.threads_spawned(),
            0,
            "a 4-senone frame must not reach the dispatcher"
        );
        assert!(!sharded.pool_is_live());
        // A frame at the threshold is dispatched.
        let eligible: Vec<SenoneId> = (0..MIN_PARALLEL_SENONES as u32).map(SenoneId).collect();
        sharded.begin_frame(&x);
        sharded.score_senones(&m, &eligible, &x).unwrap();
        assert_eq!(sharded.threads_spawned(), lane_threads(4));
    }

    /// Wraps a [`SimdScorer`] and publishes its arena build count, which the
    /// sharded scorer otherwise hides behind `Box<dyn SenoneScorer>`.
    #[derive(Debug)]
    struct BuildCountingSimd {
        inner: SimdScorer,
        builds: Arc<std::sync::atomic::AtomicUsize>,
    }

    impl SenoneScorer for BuildCountingSimd {
        fn name(&self) -> &'static str {
            "simd"
        }
        fn begin_frame(&mut self, _feature: &[f32]) {}
        fn score_senones_into(
            &mut self,
            model: &AcousticModel,
            active: &[SenoneId],
            feature: &[f32],
            out: &mut Vec<(SenoneId, LogProb)>,
        ) -> Result<(), DecodeError> {
            let scores = self.inner.score_senones_into(model, active, feature, out);
            let builds = self.inner.table_builds();
            self.builds
                .store(builds, std::sync::atomic::Ordering::Relaxed);
            scores
        }
        fn step_hmm(
            &mut self,
            prev_scores: &[LogProb],
            entry_score: LogProb,
            transitions: &TransitionMatrix,
            senone_scores: &[LogProb],
        ) -> Result<HmmStepResult, DecodeError> {
            crate::scorer::software_step_hmm(prev_scores, entry_score, transitions, senone_scores)
        }
        fn finish_utterance(&mut self) -> Option<UtteranceReport> {
            None
        }
        fn reset(&mut self) {}
    }

    /// Frames alternating above and below the parallel threshold score
    /// shard 1 on a lane thread (against the lane's model clone) and inline
    /// (against the caller's model) in turn.  Both copies share one model
    /// identity, so each shard builds its SIMD arena exactly once.
    #[test]
    fn inline_and_pooled_frames_share_the_inner_simd_arenas() {
        let m = model();
        let builds: Vec<_> = (0..2)
            .map(|_| Arc::new(std::sync::atomic::AtomicUsize::new(0)))
            .collect();
        let mut sharded = ShardedScorer::new(
            builds
                .iter()
                .map(|b| {
                    Box::new(BuildCountingSimd {
                        inner: SimdScorer::new(),
                        builds: Arc::clone(b),
                    }) as Box<dyn SenoneScorer>
                })
                .collect(),
        )
        .unwrap()
        .with_parallelism(true);
        let x = vec![0.1f32; m.feature_dim()];
        let large = all_ids(&m);
        let small: Vec<SenoneId> = (0..MIN_PARALLEL_SENONES as u32 - 1).map(SenoneId).collect();
        assert!(large.len() >= MIN_PARALLEL_SENONES);
        for f in 0..8 {
            let active = if f % 2 == 0 { &large } else { &small };
            sharded.begin_frame(&x);
            sharded.score_senones(&m, active, &x).unwrap();
            sharded.end_frame(1, 0);
        }
        assert!(sharded.pool_is_live());
        for (shard, b) in builds.iter().enumerate() {
            assert_eq!(
                b.load(std::sync::atomic::Ordering::Relaxed),
                1,
                "shard {shard} rebuilt its arena"
            );
        }
    }

    #[test]
    fn partition_bounds_cover_the_active_set_in_order() {
        let m = model();
        let ids = all_ids(&m);
        let mut sharded = soc_shards(4);
        // The tiny untrained model is uniform-cost, so the cost-weighted cut
        // lands on the equal count split.
        assert_eq!(sharded.partition_bounds(&m, &ids), vec![0, 6, 12, 18, 24]);
        // Every bound list is monotone and covers the active set exactly.
        let few: Vec<SenoneId> = (0..3).map(SenoneId).collect();
        let bounds = sharded.partition_bounds(&m, &few);
        assert_eq!(bounds.first(), Some(&0));
        assert_eq!(bounds.last(), Some(&few.len()));
        assert!(bounds.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(sharded.partition_bounds(&m, &[]), vec![0; 5]);
    }

    #[test]
    fn mixed_backends_shard_too() {
        let m = model();
        let ids = all_ids(&m);
        let x: Vec<f32> = (0..m.feature_dim()).map(|d| 0.11 * d as f32).collect();
        let mut mixed = ShardedScorer::new(vec![
            Box::new(SoftwareScorer::new()) as Box<dyn SenoneScorer>,
            Box::new(SimdScorer::new()) as Box<dyn SenoneScorer>,
        ])
        .unwrap();
        assert_eq!(mixed.num_shards(), 2);
        assert_eq!(mixed.shard_names(), vec!["software", "simd"]);
        assert_eq!(mixed.name(), "sharded");
        mixed.begin_frame(&x);
        let got = mixed.score_senones(&m, &ids, &x).unwrap();
        let mut scalar = SoftwareScorer::new();
        let want = scalar.score_senones(&m, &ids, &x).unwrap();
        for ((ia, sa), (ib, sb)) in want.iter().zip(&got) {
            assert_eq!(ia, ib);
            // Scalar and SIMD agree to float tolerance, so the mixed shard
            // output stays within it as well.
            assert!((sa.raw() - sb.raw()).abs() < 1e-2, "{ia:?}");
        }
        // Software shards keep no hardware report.
        assert!(mixed.finish_utterance().is_none());
    }

    #[test]
    fn per_shard_reports_fold_without_multiplying_frames() {
        let m = model();
        let ids = all_ids(&m);
        let frames = 6;
        let decode_frames = |scorer: &mut dyn SenoneScorer| {
            for f in 0..frames {
                let x: Vec<f32> = (0..m.feature_dim())
                    .map(|d| 0.03 * (f + d) as f32)
                    .collect();
                scorer.begin_frame(&x);
                scorer.score_senones(&m, &ids, &x).unwrap();
                scorer.end_frame(2, 1);
            }
        };
        let mut single = SocScorer::new(SocConfig::default()).unwrap();
        decode_frames(&mut single);
        let want = single.finish_utterance().unwrap();

        let mut sharded = soc_shards(4);
        decode_frames(&mut sharded);
        let got = sharded.finish_utterance().unwrap();

        // Same audio stream: frames and audio seconds match the unsharded
        // run; the scored work is the same total, split across shards.
        assert_eq!(got.frames, want.frames);
        assert!((got.energy.audio_seconds - want.energy.audio_seconds).abs() < 1e-12);
        assert_eq!(got.senones_scored, want.senones_scored);
        // The merged report carries the per-shard senone balance.
        assert_eq!(got.shard_senones.len(), 4);
        assert_eq!(got.shard_senones.iter().sum::<u64>(), got.senones_scored);
        let share = got.worst_shard_share().expect("sharded report has a share");
        assert!((0.25..=1.0).contains(&share), "{share}");
        assert!(want.shard_senones.is_empty());
        assert!(want.worst_shard_share().is_none());
        // Each shard carries a quarter of the load, so the sharded machine
        // has per-frame slack the single SoC does not.
        assert!(got.worst_frame_rtf <= want.worst_frame_rtf + 1e-12);
        // A finished scorer serves the next utterance from clean counters.
        let mut second = soc_shards(2);
        decode_frames(&mut second);
        second.finish_utterance().unwrap();
        decode_frames(&mut second);
        let again = second.finish_utterance().unwrap();
        assert_eq!(again.frames, frames);
    }

    #[test]
    fn hmm_updates_round_robin_across_shards() {
        let m = model();
        let t = m.transitions();
        let n = t.num_states();
        let prev = vec![LogProb::new(-2.0); n];
        let obs = vec![LogProb::new(-1.0); n];
        let mut sharded = soc_shards(3);
        for _ in 0..6 {
            sharded.step_hmm(&prev, LogProb::zero(), t, &obs).unwrap();
        }
        sharded.dma_fetch(128);
        sharded.end_frame(6, 2);
        let report = sharded.finish_utterance().unwrap();
        // 6 updates over 3 shards: every shard stepped twice, and the merged
        // report sees all six.
        assert_eq!(report.hmm_updates, 6);
        // reset() clears the round-robin cursor and the shards' counters:
        // finishing straight away yields a zero-frame report.
        sharded.reset();
        let cleared = sharded.finish_utterance().unwrap();
        assert_eq!(cleared.frames, 0);
        assert_eq!(cleared.hmm_updates, 0);
    }

    #[test]
    fn config_built_sharded_backend_matches_direct_construction() {
        let sel = GmmSelectionConfig::default();
        let kind = ScoringBackendKind::Sharded {
            shards: 2,
            inner: Box::new(ScoringBackendKind::Hardware(SocConfig::default())),
        };
        let mut scorer = kind.build_scorer(&sel).unwrap();
        assert_eq!(scorer.name(), "sharded");
        let m = model();
        let x = vec![0.1f32; m.feature_dim()];
        scorer.begin_frame(&x);
        let got = scorer.score_senones(&m, &all_ids(&m), &x).unwrap();
        assert_eq!(got.len(), m.senones().len());
        assert!(scorer.finish_utterance().is_some());
        // Zero shards is rejected at construction.
        let bad = ScoringBackendKind::Sharded {
            shards: 0,
            inner: Box::new(ScoringBackendKind::Software),
        };
        assert!(bad.build_scorer(&sel).is_err());
    }
}
