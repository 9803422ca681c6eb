//! The word-decode stage: a token-passing Viterbi search over the lexical
//! prefix tree.
//!
//! Each active lexical-tree node holds one triphone HMM instance.  Every
//! frame the search:
//!
//! 1. collects the senones of all active instances — the
//!    "Phones for evaluation" feedback to the phone-decode stage;
//! 2. has the phone-decode stage score exactly that set;
//! 3. advances every instance with the Viterbi unit;
//! 4. propagates good exit scores into child nodes (word-internal
//!    transitions) and into the word lattice at word-end nodes;
//! 5. starts new words from the tree root after each word end,
//!    applying the language model and the word-insertion penalty;
//! 6. prunes instances outside the beam and beyond the instance cap.

use crate::config::DecoderConfig;
use crate::lattice::{WordLattice, WordLatticeEntry};
use crate::phone_decode::PhoneDecoder;
use crate::stats::{DecodeStats, FrameStats};
use crate::DecodeError;
use asr_acoustic::{AcousticModel, PhoneId, SenoneId, Triphone, TriphoneId};
use asr_float::LogProb;
use asr_lexicon::{Dictionary, LexNodeId, LexTree, NGramModel, WordId};

/// The static search network: the lexical tree with each node resolved to a
/// senone sequence (one per HMM state) of the acoustic model.
#[derive(Debug, Clone)]
pub struct SearchNetwork {
    lextree: LexTree,
    /// `senone_ids[senone_offsets[n]..senone_offsets[n + 1]]` are node `n`'s
    /// senones (empty for the root).
    senone_offsets: Vec<u32>,
    senone_ids: Vec<SenoneId>,
}

impl SearchNetwork {
    /// Builds the network from a dictionary and an acoustic model.
    ///
    /// Triphone contexts are resolved with the left context taken from the
    /// parent node's phone (silence at word starts) and the acoustic model's
    /// context-independent fallback for unseen contexts.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::InconsistentModels`] if a dictionary phone has
    /// no acoustic model at all.
    pub fn build(model: &AcousticModel, dictionary: &Dictionary) -> Result<Self, DecodeError> {
        let lextree = LexTree::build(dictionary);
        let silence = PhoneId(0);
        let mut triphones: Vec<Option<TriphoneId>> = vec![None; lextree.num_nodes()];
        // Walk from the root resolving each node's triphone.
        let mut queue = vec![LexNodeId::ROOT];
        while let Some(node) = queue.pop() {
            let parent_phone = lextree.phone(node).unwrap_or(silence);
            for &(phone, child) in lextree.successors(node) {
                let right = lextree
                    .successors(child)
                    .first()
                    .map_or(silence, |&(p, _)| p);
                let triphone = Triphone::new(phone, parent_phone, right);
                let id = model.triphones().resolve(&triphone).ok_or_else(|| {
                    DecodeError::InconsistentModels(format!(
                        "no acoustic model for phone {phone} (triphone {triphone})"
                    ))
                })?;
                triphones[child.index()] = Some(id);
                queue.push(child);
            }
        }
        // Lay the senone sequences out flat in node order.
        let mut senone_offsets = Vec::with_capacity(triphones.len() + 1);
        let mut senone_ids = Vec::new();
        for triphone in triphones {
            senone_offsets.push(senone_ids.len() as u32);
            if let Some(id) = triphone {
                senone_ids.extend_from_slice(model.triphones().senones(id)?);
            }
        }
        senone_offsets.push(senone_ids.len() as u32);
        Ok(SearchNetwork {
            lextree,
            senone_offsets,
            senone_ids,
        })
    }

    /// The lexical tree.
    pub fn lextree(&self) -> &LexTree {
        &self.lextree
    }

    /// Senones of a node (empty for the root).
    pub fn senones(&self, node: LexNodeId) -> &[SenoneId] {
        let i = node.index();
        &self.senone_ids[self.senone_offsets[i] as usize..self.senone_offsets[i + 1] as usize]
    }

    /// Total number of HMM instances the network can instantiate.
    pub fn num_instances(&self) -> usize {
        self.lextree.num_nodes().saturating_sub(1)
    }
}

/// States of the largest supported HMM topology; token scores are stored
/// inline in arrays of this size.
const MAX_STATES: usize = 7;

/// Marks an empty slot in the node-indexed slot tables, and the empty word
/// history.
const NONE: u32 = u32::MAX;

/// One word end in the per-utterance history arena: the word and the index
/// of the word end before it ([`NONE`] at the utterance start).
#[derive(Debug, Clone, Copy)]
struct WordEnd {
    word: WordId,
    parent: u32,
}

/// Word bookkeeping a path carries from node to node: its word history and
/// where (and with what score) its current word started.
#[derive(Debug, Clone, Copy)]
struct PathInfo {
    /// Index of the last word end in the history arena ([`NONE`] if none).
    history: u32,
    word_start_frame: usize,
    score_at_word_start: LogProb,
}

/// A live HMM instance at one lexical-tree node.
#[derive(Debug, Clone, Copy)]
struct Token {
    node: LexNodeId,
    scores: [LogProb; MAX_STATES],
    /// Best state score after the last step.
    best: LogProb,
    /// Score entering the first state this frame ([`LogProb::zero`] when
    /// nothing enters).
    entry_score: LogProb,
    path: PathInfo,
}

/// A token about to enter a node at the next frame.
#[derive(Debug, Clone, Copy)]
struct PendingEntry {
    node: LexNodeId,
    entry_score: LogProb,
    path: PathInfo,
}

/// Output of decoding one utterance.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Best word sequence found by the on-the-fly search (token history).
    pub best_token_words: Vec<WordId>,
    /// Combined acoustic + LM score of [`SearchOutcome::best_token_words`]
    /// ([`LogProb::zero`] when no word end was ever reached).
    pub best_token_score: LogProb,
    /// The word lattice handed to the global best path search.
    pub lattice: WordLattice,
    /// Per-frame statistics.
    pub stats: DecodeStats,
}

/// The mutable state of one in-flight utterance: the live and pending token
/// tables, the word-history arena, the growing word lattice, the per-frame
/// statistics and the best completed hypothesis so far.
///
/// Created by [`TokenPassingSearch::begin`], advanced one frame at a time by
/// [`TokenPassingSearch::step`], and closed by [`TokenPassingSearch::finish`].
/// [`TokenPassingSearch::decode`] is exactly this loop over a full feature
/// slice, so a streaming caller feeding frames incrementally produces results
/// identical to the offline path by construction.
#[derive(Debug, Clone)]
pub struct SearchState {
    /// Live tokens; in node order from the merge until the end of the frame.
    tokens: Vec<Token>,
    /// Entries staged for the next frame, one per node.
    pending: Vec<PendingEntry>,
    /// Node-indexed position in `tokens` ([`NONE`] if the node is idle).
    /// Valid between frames.
    token_slot: Vec<u32>,
    /// Node-indexed position in `pending` ([`NONE`] if nothing is staged).
    pending_slot: Vec<u32>,
    /// Every word end of the utterance, linked back to its predecessor.
    history: Vec<WordEnd>,
    lattice: WordLattice,
    stats: DecodeStats,
    /// Best completed (word-end) hypothesis: (score, history, end frame).
    best_final: Option<(LogProb, u32, usize)>,
    /// The word sequence of `best_final`.
    best_words: Vec<WordId>,
    /// Frames consumed so far.
    frames: usize,
    /// Per-frame buffers reused across frames.
    active_senones: Vec<SenoneId>,
    /// One bit per senone of the inventory, set while collecting the active
    /// set and cleared as it is read back in id order.
    senone_bits: Vec<u64>,
    /// The whole inventory, scored every frame when senone feedback is off.
    all_senones: Vec<SenoneId>,
    exits: Vec<(usize, LogProb)>,
}

impl SearchState {
    /// Number of frames stepped so far.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// The best completed word sequence so far (empty until the first word
    /// end survives the word beam) — the live partial hypothesis a streaming
    /// caller can surface between chunks.
    pub fn best_words(&self) -> &[WordId] {
        &self.best_words
    }

    /// Stages `entry` for the next frame unless an entry at least as strong
    /// is already staged at its node.
    fn offer(&mut self, entry: PendingEntry) {
        let slot = &mut self.pending_slot[entry.node.index()];
        if *slot == NONE {
            *slot = self.pending.len() as u32;
            self.pending.push(entry);
        } else {
            let existing = &mut self.pending[*slot as usize];
            if entry.entry_score.raw() > existing.entry_score.raw() {
                *existing = entry;
            }
        }
    }

    /// Appends a word end to the history arena and returns its index.
    fn push_word(&mut self, word: WordId, parent: u32) -> u32 {
        self.history.push(WordEnd { word, parent });
        (self.history.len() - 1) as u32
    }

    /// Rebuilds `best_words` from the history arena.
    fn rebuild_best_words(&mut self) {
        self.best_words.clear();
        let mut at = self.best_final.map_or(NONE, |(_, h, _)| h);
        while at != NONE {
            let end = self.history[at as usize];
            self.best_words.push(end.word);
            at = end.parent;
        }
        self.best_words.reverse();
    }
}

/// The token-passing search engine.
#[derive(Debug)]
pub struct TokenPassingSearch<'a> {
    model: &'a AcousticModel,
    network: &'a SearchNetwork,
    lm: &'a NGramModel,
    config: &'a DecoderConfig,
}

impl<'a> TokenPassingSearch<'a> {
    /// Creates a search engine over prebuilt knowledge sources.
    pub fn new(
        model: &'a AcousticModel,
        network: &'a SearchNetwork,
        lm: &'a NGramModel,
        config: &'a DecoderConfig,
    ) -> Self {
        TokenPassingSearch {
            model,
            network,
            lm,
            config,
        }
    }

    /// LM score of `word` after the history ending at word end `history`,
    /// with the language-model weight and word-insertion penalty applied.
    fn lm_score(&self, arena: &[WordEnd], history: u32, word: WordId) -> LogProb {
        let mut tail = [WordId(0); 2];
        let mut n = 0;
        let mut at = history;
        while n < 2 && at != NONE {
            let end = arena[at as usize];
            tail[1 - n] = end.word;
            at = end.parent;
            n += 1;
        }
        self.lm
            .log_prob(&tail[2 - n..], word)
            .powf(self.config.lm_weight)
            + LogProb::new(self.config.word_insertion_penalty)
    }

    /// Starts a fresh utterance: an empty token set with word starts pending
    /// at frame 0.  The per-frame buffers are sized for the first frame,
    /// where every word start is live.
    pub fn begin(&self) -> SearchState {
        let nodes = self.network.lextree().num_nodes();
        let roots = self.network.lextree().successors(LexNodeId::ROOT);
        let states = self.model.config().topology.num_states();
        let inventory = self.model.senones().len();
        let (senone_bits, all_senones) = if self.config.gmm_selection.senone_feedback {
            (vec![0; inventory.div_ceil(64)], Vec::new())
        } else {
            (Vec::new(), (0..inventory as u32).map(SenoneId).collect())
        };
        let mut state = SearchState {
            tokens: Vec::with_capacity(roots.len()),
            pending: Vec::with_capacity(roots.len()),
            token_slot: vec![NONE; nodes],
            pending_slot: vec![NONE; nodes],
            history: Vec::new(),
            lattice: WordLattice::new(0),
            stats: DecodeStats::new(),
            best_final: None,
            best_words: Vec::new(),
            frames: 0,
            active_senones: Vec::with_capacity(roots.len() * states),
            senone_bits,
            all_senones,
            exits: Vec::with_capacity(roots.len()),
        };
        let start = PathInfo {
            history: NONE,
            word_start_frame: 0,
            score_at_word_start: LogProb::ONE,
        };
        for &(_, node) in roots {
            state.offer(PendingEntry {
                node,
                entry_score: LogProb::ONE,
                path: start,
            });
        }
        state
    }

    /// Advances the search by one frame, driving the phone-decode stage for
    /// senone scores and HMM updates.  The caller never has to announce how
    /// many frames are coming: word starts and word-internal transitions are
    /// always staged as pending entries, and [`TokenPassingSearch::finish`]
    /// simply drops the entries of the frame that never arrived — so stepping
    /// frame by frame is bit-identical to the offline loop.
    ///
    /// Every loop after the merge runs over the live tokens in node order, so
    /// lattice order and every tie-break are the same in every process.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::DimensionMismatch`] if the feature vector has
    /// the wrong dimension, or propagates backend errors.
    pub fn step(
        &self,
        state: &mut SearchState,
        phone_decoder: &mut PhoneDecoder,
        feature: &[f32],
    ) -> Result<(), DecodeError> {
        let dim = self.model.feature_dim();
        if feature.len() != dim {
            return Err(DecodeError::DimensionMismatch {
                expected: dim,
                got: feature.len(),
            });
        }
        let t = state.frames;
        let tree = self.network.lextree();
        let inventory_size = self.model.senones().len();
        let states = self.model.config().topology.num_states();
        let transitions = self.model.transitions();

        phone_decoder.begin_frame(feature);

        // Merge pending entries into the live tokens.
        for entry in state.pending.drain(..) {
            let node = entry.node.index();
            state.pending_slot[node] = NONE;
            match state.token_slot[node] {
                NONE => state.tokens.push(Token {
                    node: entry.node,
                    scores: [LogProb::zero(); MAX_STATES],
                    best: LogProb::zero(),
                    entry_score: entry.entry_score,
                    path: entry.path,
                }),
                slot => {
                    let token = &mut state.tokens[slot as usize];
                    // The entering path may take over the instance's word
                    // bookkeeping if it is stronger than everything inside.
                    if entry.entry_score.raw() > token.best.raw() {
                        token.path = entry.path;
                    }
                    token.entry_score = entry.entry_score;
                }
            }
        }
        state.tokens.sort_unstable_by_key(|token| token.node);

        // Active senone set — the feedback to the phone decode stage.
        let requested = if self.config.gmm_selection.senone_feedback {
            // Sorted and deduplicated through the bitmap: set one bit per
            // senone, then read the words back in order, clearing them.
            for token in &state.tokens {
                for id in self.network.senones(token.node) {
                    state.senone_bits[id.index() / 64] |= 1 << (id.index() % 64);
                }
            }
            state.active_senones.clear();
            for (w, bits) in state.senone_bits.iter_mut().enumerate() {
                while *bits != 0 {
                    let bit = bits.trailing_zeros();
                    state.active_senones.push(SenoneId(w as u32 * 64 + bit));
                    *bits &= *bits - 1;
                }
            }
            &state.active_senones
        } else {
            // Feedback disabled (for the E4 ablation): score everything.
            &state.all_senones
        };
        let cds_skipped = phone_decoder.score_frame(self.model, requested, feature)?;
        let senones_scored = if cds_skipped { 0 } else { requested.len() };

        // Advance every live instance, reading scores straight out of the
        // phone decoder's senone-score arena.
        let mut frame_best = LogProb::zero();
        state.exits.clear();
        for (i, token) in state.tokens.iter_mut().enumerate() {
            let mut obs = [LogProb::zero(); MAX_STATES];
            for (o, &id) in obs.iter_mut().zip(self.network.senones(token.node)) {
                *o = phone_decoder.score_of(id);
            }
            let step = phone_decoder.step_hmm(
                &token.scores[..states],
                token.entry_score,
                transitions,
                &obs[..states],
            )?;
            if step.scores.len() != states {
                return Err(DecodeError::DimensionMismatch {
                    expected: states,
                    got: step.scores.len(),
                });
            }
            token.scores[..states].copy_from_slice(&step.scores);
            token.entry_score = LogProb::zero();
            token.best = step
                .scores
                .iter()
                .fold(LogProb::zero(), |acc, &s| acc.max(s));
            if token.best.raw() > frame_best.raw() {
                frame_best = token.best;
            }
            if !step.exit_score.is_zero() {
                state.exits.push((i, step.exit_score));
            }
        }

        // Handle exits: word ends and word-internal propagation.  Entries for
        // the next frame are always staged; if the utterance ends here they
        // are discarded by `finish`, which is what the offline loop's
        // "is there a next frame" guard amounted to.
        let word_beam_floor = frame_best + LogProb::new(-self.config.word_beam);
        let mut word_ends_this_frame = 0usize;
        let mut best_changed = false;
        for x in 0..state.exits.len() {
            let (i, exit_score) = state.exits[x];
            if exit_score.raw() < word_beam_floor.raw() {
                continue;
            }
            let Token { node, path, .. } = state.tokens[i];
            // Word ends at this node.
            for &word in tree.words_at(node) {
                word_ends_this_frame += 1;
                state.lattice.push(WordLatticeEntry {
                    word,
                    start_frame: path.word_start_frame,
                    end_frame: t,
                    acoustic_score: exit_score - path.score_at_word_start,
                });
                let with_lm = exit_score + self.lm_score(&state.history, path.history, word);
                let history = state.push_word(word, path.history);
                let better_final = state.best_final.map_or(true, |(s, _, e)| {
                    t > e || (t == e && with_lm.raw() > s.raw())
                });
                if better_final {
                    state.best_final = Some((with_lm, history, t));
                    best_changed = true;
                }
                // Start new words at the next frame.
                let next_word = PathInfo {
                    history,
                    word_start_frame: t + 1,
                    score_at_word_start: with_lm,
                };
                for &(_, root_child) in tree.successors(LexNodeId::ROOT) {
                    state.offer(PendingEntry {
                        node: root_child,
                        entry_score: with_lm,
                        path: next_word,
                    });
                }
            }
            // Word-internal transition into child nodes.
            for &(_, child) in tree.successors(node) {
                state.offer(PendingEntry {
                    node: child,
                    entry_score: exit_score,
                    path,
                });
            }
        }
        if best_changed {
            state.rebuild_best_words();
        }

        // Beam pruning and the instance cap (ties kept in node order).
        let beam_floor = frame_best + LogProb::new(-self.config.beam);
        let before = state.tokens.len();
        for token in &state.tokens {
            state.token_slot[token.node.index()] = NONE;
        }
        state
            .tokens
            .retain(|token| token.best.raw() >= beam_floor.raw());
        if state.tokens.len() > self.config.max_active_hmms {
            state
                .tokens
                .sort_unstable_by(|a, b| b.best.total_cmp(&a.best).then(a.node.cmp(&b.node)));
            state.tokens.truncate(self.config.max_active_hmms);
        }
        for (i, token) in state.tokens.iter().enumerate() {
            state.token_slot[token.node.index()] = i as u32;
        }
        let pruned = before - state.tokens.len();

        state.stats.push(FrameStats {
            frame: t,
            senones_scored,
            senone_inventory: inventory_size,
            active_hmms: state.tokens.len(),
            pruned_hmms: pruned,
            word_ends: word_ends_this_frame,
            cds_skipped,
        });
        // Word-decode dictionary lookups go over the DMA.
        phone_decoder.dma_fetch((word_ends_this_frame * 64) as u64);
        phone_decoder.end_frame(state.tokens.len(), state.lattice.len());
        state.frames = t + 1;
        Ok(())
    }

    /// Closes the utterance: drops the pending entries of the frame that
    /// never arrived and packages the outcome.
    pub fn finish(&self, mut state: SearchState) -> SearchOutcome {
        state.lattice.set_num_frames(state.frames);
        SearchOutcome {
            best_token_words: state.best_words,
            best_token_score: state.best_final.map_or(LogProb::zero(), |(s, _, _)| s),
            lattice: state.lattice,
            stats: state.stats,
        }
    }

    /// Decodes one utterance of feature vectors, driving the phone-decode
    /// stage for senone scores and HMM updates — [`TokenPassingSearch::begin`]
    /// / [`TokenPassingSearch::step`] / [`TokenPassingSearch::finish`] rolled
    /// into one loop over the whole feature slice.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::DimensionMismatch`] if a feature vector has the
    /// wrong dimension, or propagates backend errors.
    pub fn decode(
        &self,
        features: &[Vec<f32>],
        phone_decoder: &mut PhoneDecoder,
    ) -> Result<SearchOutcome, DecodeError> {
        let dim = self.model.feature_dim();
        for f in features {
            if f.len() != dim {
                return Err(DecodeError::DimensionMismatch {
                    expected: dim,
                    got: f.len(),
                });
            }
        }
        let mut state = self.begin();
        for feature in features {
            self.step(&mut state, phone_decoder, feature)?;
        }
        Ok(self.finish(state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GmmSelectionConfig, ScoringBackendKind};
    use asr_acoustic::{
        AcousticModel, AcousticModelConfig, DiagGaussian, GaussianMixture, HmmTopology, SenonePool,
        TransitionMatrix, TriphoneInventory,
    };
    use asr_lexicon::{NGramModel, Pronunciation};

    const DIM: usize = 5;
    const NUM_PHONES: usize = 6;

    /// Builds a tiny, well-separated acoustic model: phone p, state s has a
    /// single Gaussian with mean (10p + 3s) in every dimension.
    fn tiny_model() -> AcousticModel {
        let states = 3;
        let mixtures: Vec<GaussianMixture> = (0..NUM_PHONES * states)
            .map(|i| {
                let phone = i / states;
                let state = i % states;
                let mean = vec![(10 * phone + 3 * state) as f32; DIM];
                GaussianMixture::new(vec![(
                    1.0,
                    DiagGaussian::new(mean, vec![1.0; DIM]).unwrap(),
                )])
                .unwrap()
            })
            .collect();
        let pool = SenonePool::new(mixtures).unwrap();
        let mut inventory = TriphoneInventory::new(HmmTopology::Three);
        for p in 0..NUM_PHONES {
            let senones: Vec<SenoneId> = (0..states)
                .map(|s| SenoneId((p * states + s) as u32))
                .collect();
            inventory
                .add(Triphone::context_independent(PhoneId(p as u16)), senones)
                .unwrap();
        }
        let transitions = TransitionMatrix::bakis(HmmTopology::Three, 0.5).unwrap();
        let config = AcousticModelConfig {
            num_senones: NUM_PHONES * states,
            num_components: 1,
            feature_dim: DIM,
            topology: HmmTopology::Three,
            num_phones: NUM_PHONES,
            self_loop_prob: 0.5,
        };
        AcousticModel::new(config, pool, inventory, transitions).unwrap()
    }

    fn tiny_dictionary() -> Dictionary {
        let mut d = Dictionary::new();
        let p = |ids: &[u16]| Pronunciation::new(ids.iter().map(|&i| PhoneId(i)).collect());
        d.add_word("alpha", p(&[1, 2])).unwrap(); // word 0
        d.add_word("bravo", p(&[3, 4])).unwrap(); // word 1
        d.add_word("mix", p(&[1, 4])).unwrap(); // word 2
        d
    }

    /// Synthesises feature frames for a word sequence: each phone contributes
    /// 3 states × `frames_per_state` frames of that state's Gaussian mean.
    fn synth_features(dict: &Dictionary, words: &[&str], frames_per_state: usize) -> Vec<Vec<f32>> {
        let mut frames = Vec::new();
        for w in words {
            let id = dict.id_of(w).unwrap();
            for &phone in dict.pronunciation(id).unwrap().phones() {
                for state in 0..3 {
                    let mean = vec![(10 * phone.index() + 3 * state) as f32; DIM];
                    for _ in 0..frames_per_state {
                        frames.push(mean.clone());
                    }
                }
            }
        }
        frames
    }

    fn decode_with(
        backend_kind: &ScoringBackendKind,
        words: &[&str],
    ) -> (SearchOutcome, Vec<WordId>, Dictionary) {
        let model = tiny_model();
        let dict = tiny_dictionary();
        let network = SearchNetwork::build(&model, &dict).unwrap();
        let lm = NGramModel::uniform(dict.len()).unwrap();
        let config = DecoderConfig {
            backend: backend_kind.clone(),
            ..DecoderConfig::default()
        };
        let features = synth_features(&dict, words, 3);
        let mut phone_decoder = PhoneDecoder::new(
            backend_kind
                .build_scorer(&GmmSelectionConfig::default())
                .unwrap(),
            GmmSelectionConfig::default(),
        );
        let search = TokenPassingSearch::new(&model, &network, &lm, &config);
        let outcome = search.decode(&features, &mut phone_decoder).unwrap();
        let expected: Vec<WordId> = words.iter().map(|w| dict.id_of(w).unwrap()).collect();
        (outcome, expected, dict)
    }

    #[test]
    fn network_build_resolves_all_nodes() {
        let model = tiny_model();
        let dict = tiny_dictionary();
        let network = SearchNetwork::build(&model, &dict).unwrap();
        assert_eq!(network.num_instances(), network.lextree().num_nodes() - 1);
        for node in 1..network.lextree().num_nodes() {
            assert_eq!(network.senones(LexNodeId(node as u32)).len(), 3);
        }
        assert!(network.senones(LexNodeId::ROOT).is_empty());
    }

    #[test]
    fn network_build_fails_for_unknown_phone() {
        let model = tiny_model();
        let mut dict = tiny_dictionary();
        dict.add_word(
            "zz",
            Pronunciation::new(vec![PhoneId(40)]), // no acoustic model
        )
        .unwrap();
        assert!(matches!(
            SearchNetwork::build(&model, &dict),
            Err(DecodeError::InconsistentModels(_))
        ));
    }

    #[test]
    fn decodes_single_word_software() {
        let (outcome, expected, _) = decode_with(&ScoringBackendKind::Software, &["alpha"]);
        assert_eq!(outcome.best_token_words, expected);
        assert!(!outcome.lattice.is_empty());
        assert_eq!(outcome.stats.num_frames(), 18);
    }

    #[test]
    fn decodes_two_words_software() {
        let (outcome, expected, _) =
            decode_with(&ScoringBackendKind::Software, &["alpha", "bravo"]);
        assert_eq!(outcome.best_token_words, expected);
        // The lattice's best path under the LM agrees.
        let lm = NGramModel::uniform(3).unwrap();
        let path = outcome.lattice.best_path(&lm, 1.0, -1.0, 3);
        assert_eq!(path, expected);
    }

    #[test]
    fn decodes_with_hardware_backend() {
        let kind = ScoringBackendKind::Hardware(asr_hw::SocConfig::default());
        let (outcome, expected, _) = decode_with(&kind, &["bravo", "alpha"]);
        assert_eq!(outcome.best_token_words, expected);
    }

    #[test]
    fn decodes_with_simd_backend() {
        let (outcome, expected, _) = decode_with(&ScoringBackendKind::Simd, &["alpha", "bravo"]);
        assert_eq!(outcome.best_token_words, expected);
    }

    #[test]
    fn feedback_keeps_active_senones_sparse() {
        let (outcome, _, _) =
            decode_with(&ScoringBackendKind::Software, &["alpha", "bravo", "mix"]);
        // Only a fraction of the 18-senone inventory is scored per frame.
        let frac = outcome.stats.mean_active_senone_fraction();
        assert!(frac < 0.75, "{frac}");
        assert!(frac > 0.0);
        assert!(outcome.stats.peak_active_senone_fraction() <= 1.0);
    }

    #[test]
    fn rejects_wrong_feature_dimension() {
        let model = tiny_model();
        let dict = tiny_dictionary();
        let network = SearchNetwork::build(&model, &dict).unwrap();
        let lm = NGramModel::uniform(dict.len()).unwrap();
        let config = DecoderConfig::software();
        let search = TokenPassingSearch::new(&model, &network, &lm, &config);
        let mut pd = PhoneDecoder::new(
            ScoringBackendKind::Software
                .build_scorer(&GmmSelectionConfig::default())
                .unwrap(),
            GmmSelectionConfig::default(),
        );
        let bad = vec![vec![0.0f32; 2]];
        assert!(matches!(
            search.decode(&bad, &mut pd),
            Err(DecodeError::DimensionMismatch { .. })
        ));
    }

    /// A backend whose HMM step returns one state score too few.
    #[derive(Debug)]
    struct ShortStepScorer;

    impl crate::SenoneScorer for ShortStepScorer {
        fn name(&self) -> &'static str {
            "short-step"
        }
        fn begin_frame(&mut self, _feature: &[f32]) {}
        fn score_senones_into(
            &mut self,
            _model: &AcousticModel,
            active: &[SenoneId],
            _feature: &[f32],
            out: &mut Vec<(SenoneId, LogProb)>,
        ) -> Result<(), DecodeError> {
            out.extend(active.iter().map(|&id| (id, LogProb::new(-1.0))));
            Ok(())
        }
        fn step_hmm(
            &mut self,
            prev_scores: &[LogProb],
            _entry_score: LogProb,
            _transitions: &asr_acoustic::TransitionMatrix,
            _senone_scores: &[LogProb],
        ) -> Result<crate::HmmStepResult, DecodeError> {
            Ok(crate::HmmStepResult {
                scores: crate::HmmStateScores::from_slice(&prev_scores[1..]),
                exit_score: LogProb::zero(),
            })
        }
        fn finish_utterance(&mut self) -> Option<asr_hw::UtteranceReport> {
            None
        }
        fn reset(&mut self) {}
    }

    #[test]
    fn a_backend_returning_the_wrong_state_count_is_an_error() {
        let model = tiny_model();
        let dict = tiny_dictionary();
        let network = SearchNetwork::build(&model, &dict).unwrap();
        let lm = NGramModel::uniform(dict.len()).unwrap();
        let config = DecoderConfig::software();
        let search = TokenPassingSearch::new(&model, &network, &lm, &config);
        let mut pd = PhoneDecoder::new(Box::new(ShortStepScorer), GmmSelectionConfig::default());
        let features = synth_features(&dict, &["alpha"], 1);
        assert!(matches!(
            search.decode(&features, &mut pd),
            Err(DecodeError::DimensionMismatch {
                expected: 3,
                got: 2
            })
        ));
    }

    #[test]
    fn empty_utterance_gives_empty_result() {
        let model = tiny_model();
        let dict = tiny_dictionary();
        let network = SearchNetwork::build(&model, &dict).unwrap();
        let lm = NGramModel::uniform(dict.len()).unwrap();
        let config = DecoderConfig::software();
        let search = TokenPassingSearch::new(&model, &network, &lm, &config);
        let mut pd = PhoneDecoder::new(
            ScoringBackendKind::Software
                .build_scorer(&GmmSelectionConfig::default())
                .unwrap(),
            GmmSelectionConfig::default(),
        );
        let outcome = search.decode(&[], &mut pd).unwrap();
        assert!(outcome.best_token_words.is_empty());
        assert!(outcome.lattice.is_empty());
        assert_eq!(outcome.stats.num_frames(), 0);
    }
}
