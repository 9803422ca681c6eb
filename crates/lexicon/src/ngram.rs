//! Back-off n-gram language model.
//!
//! The global best path search "iterates over the word lattice and combines
//! the language model to produce the utterance".  This module provides a
//! unigram/bigram/trigram model with Katz-style back-off, built either from
//! explicit probabilities or estimated from a text corpus with add-one
//! discounting (used by the synthetic task generator).

use crate::dictionary::WordId;
use crate::LexiconError;
use asr_float::LogProb;
use std::collections::HashMap;
use std::hash::Hash;

/// Maximum n-gram order supported.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NGramOrder {
    /// Unigram (context-free word priors).
    Unigram,
    /// Bigram (one word of history).
    Bigram,
    /// Trigram (two words of history).
    Trigram,
}

impl NGramOrder {
    /// The numeric order (1, 2 or 3).
    pub fn order(self) -> usize {
        match self {
            NGramOrder::Unigram => 1,
            NGramOrder::Bigram => 2,
            NGramOrder::Trigram => 3,
        }
    }
}

/// A back-off n-gram language model over [`WordId`]s.
///
/// Sentence boundaries are modelled with the special [`NGramModel::BOS`] /
/// [`NGramModel::EOS`] pseudo-words.
#[derive(Debug, Clone)]
pub struct NGramModel {
    order: NGramOrder,
    vocab_size: usize,
    unigrams: HashMap<WordId, LogProb>,
    bigrams: HashMap<(WordId, WordId), LogProb>,
    trigrams: HashMap<(WordId, WordId, WordId), LogProb>,
    /// Back-off weights per history.
    bigram_backoff: HashMap<WordId, LogProb>,
    trigram_backoff: HashMap<(WordId, WordId), LogProb>,
    /// Probability assigned to a word never seen in training.
    unseen: LogProb,
}

impl NGramModel {
    /// Beginning-of-sentence pseudo-word.
    pub const BOS: WordId = WordId(u32::MAX - 1);
    /// End-of-sentence pseudo-word.
    pub const EOS: WordId = WordId(u32::MAX);

    /// Creates a uniform unigram model over a vocabulary of `vocab_size`
    /// words (every word equally likely) — the fallback when no LM training
    /// text is available.
    ///
    /// # Errors
    ///
    /// Returns [`LexiconError::InvalidModel`] if `vocab_size == 0`.
    pub fn uniform(vocab_size: usize) -> Result<Self, LexiconError> {
        if vocab_size == 0 {
            return Err(LexiconError::InvalidModel("vocabulary is empty".into()));
        }
        let p = LogProb::from_linear(1.0 / vocab_size as f64);
        let unigrams = (0..vocab_size as u32)
            .map(|w| (WordId(w), p))
            .chain([(Self::EOS, p)])
            .collect();
        Ok(NGramModel {
            order: NGramOrder::Unigram,
            vocab_size,
            unigrams,
            bigrams: HashMap::new(),
            trigrams: HashMap::new(),
            bigram_backoff: HashMap::new(),
            trigram_backoff: HashMap::new(),
            unseen: p,
        })
    }

    /// Estimates a model of the given order from training sentences
    /// (sequences of word ids, without BOS/EOS which are added internally),
    /// using add-one smoothing for the n-gram probabilities and Katz-style
    /// back-off weights.  The cost is linear in the number of distinct
    /// n-grams after one sort per order (see `estimate_order`).
    ///
    /// # Errors
    ///
    /// Returns [`LexiconError::InvalidModel`] if `vocab_size == 0` or the
    /// training data is empty.
    pub fn train(
        order: NGramOrder,
        vocab_size: usize,
        sentences: &[Vec<WordId>],
    ) -> Result<Self, LexiconError> {
        if vocab_size == 0 {
            return Err(LexiconError::InvalidModel("vocabulary is empty".into()));
        }
        if sentences.is_empty() || sentences.iter().all(|s| s.is_empty()) {
            return Err(LexiconError::InvalidModel("no training sentences".into()));
        }
        let v = vocab_size as f64 + 1.0; // + EOS
        let mut uni_counts: HashMap<WordId, u64> = HashMap::new();
        let mut bi_counts: HashMap<(WordId, WordId), u64> = HashMap::new();
        let mut tri_counts: HashMap<(WordId, WordId, WordId), u64> = HashMap::new();
        let mut total_words = 0u64;

        for s in sentences {
            if s.is_empty() {
                continue;
            }
            let padded: Vec<WordId> = [Self::BOS, Self::BOS]
                .into_iter()
                .chain(s.iter().copied())
                .chain([Self::EOS])
                .collect();
            for i in 2..padded.len() {
                let w = padded[i];
                let h1 = padded[i - 1];
                let h2 = padded[i - 2];
                *uni_counts.entry(w).or_default() += 1;
                total_words += 1;
                if order >= NGramOrder::Bigram {
                    *bi_counts.entry((h1, w)).or_default() += 1;
                }
                if order == NGramOrder::Trigram {
                    *tri_counts.entry((h2, h1, w)).or_default() += 1;
                }
            }
        }

        let unigrams: HashMap<WordId, LogProb> = uni_counts
            .iter()
            .map(|(&w, &c)| {
                (
                    w,
                    LogProb::from_linear((c as f64 + 1.0) / (total_words as f64 + v)),
                )
            })
            .collect();
        let unseen = LogProb::from_linear(1.0 / (total_words as f64 + v));
        let uni_prob = |w: WordId| -> f64 {
            uni_counts
                .get(&w)
                .map(|&c| (c as f64 + 1.0) / (total_words as f64 + v))
                .unwrap_or(1.0 / (total_words as f64 + v))
        };

        let (bigrams, bigram_backoff) =
            estimate_order(bi_counts, v, |(h, w)| (h, w), |_, w| uni_prob(w));

        // Bigram-level conditional used when a trigram is unseen.
        let bigram_cond = |h1: WordId, w: WordId| -> f64 {
            if let Some(p) = bigrams.get(&(h1, w)) {
                p.to_linear()
            } else {
                let backoff = bigram_backoff
                    .get(&h1)
                    .map(|b| b.to_linear())
                    .unwrap_or(1.0);
                backoff * uni_prob(w)
            }
        };
        let (trigrams, trigram_backoff) = estimate_order(
            tri_counts,
            v,
            |(h2, h1, w)| ((h2, h1), w),
            |(_, h1), w| bigram_cond(h1, w),
        );

        Ok(NGramModel {
            order,
            vocab_size,
            unigrams,
            bigrams,
            trigrams,
            bigram_backoff,
            trigram_backoff,
            unseen,
        })
    }

    /// The model order.
    pub fn order(&self) -> NGramOrder {
        self.order
    }

    /// Vocabulary size the model was built for.
    pub fn vocab_size(&self) -> usize {
        self.vocab_size
    }

    /// Unigram log probability of a word.
    pub fn unigram(&self, w: WordId) -> LogProb {
        *self.unigrams.get(&w).unwrap_or(&self.unseen)
    }

    /// Log probability of `w` given up to two words of history
    /// (`history` ordered oldest → newest), backing off to lower orders when
    /// the exact n-gram was never seen.
    pub fn log_prob(&self, history: &[WordId], w: WordId) -> LogProb {
        match self.order {
            NGramOrder::Unigram => self.unigram(w),
            NGramOrder::Bigram => {
                let h1 = history.last().copied().unwrap_or(Self::BOS);
                if let Some(&p) = self.bigrams.get(&(h1, w)) {
                    p
                } else {
                    let backoff = self
                        .bigram_backoff
                        .get(&h1)
                        .copied()
                        .unwrap_or(LogProb::ONE);
                    backoff + self.unigram(w)
                }
            }
            NGramOrder::Trigram => {
                let h1 = history.last().copied().unwrap_or(Self::BOS);
                let h2 = if history.len() >= 2 {
                    history[history.len() - 2]
                } else {
                    Self::BOS
                };
                if let Some(&p) = self.trigrams.get(&(h2, h1, w)) {
                    return p;
                }
                let backoff3 = self
                    .trigram_backoff
                    .get(&(h2, h1))
                    .copied()
                    .unwrap_or(LogProb::ONE);
                if let Some(&p) = self.bigrams.get(&(h1, w)) {
                    backoff3 + p
                } else {
                    let backoff2 = self
                        .bigram_backoff
                        .get(&h1)
                        .copied()
                        .unwrap_or(LogProb::ONE);
                    backoff3 + backoff2 + self.unigram(w)
                }
            }
        }
    }

    /// Log probability of a whole sentence (BOS/EOS handled internally).
    pub fn sentence_log_prob(&self, sentence: &[WordId]) -> LogProb {
        let mut history: Vec<WordId> = vec![Self::BOS, Self::BOS];
        let mut total = LogProb::ONE;
        for &w in sentence.iter().chain([&Self::EOS]) {
            total += self.log_prob(&history, w);
            history.push(w);
        }
        total
    }

    /// Perplexity of the model on held-out sentences (lower is better).
    pub fn perplexity(&self, sentences: &[Vec<WordId>]) -> f64 {
        let mut total_logprob = 0.0f64;
        let mut total_words = 0usize;
        for s in sentences {
            total_logprob += self.sentence_log_prob(s).raw() as f64;
            total_words += s.len() + 1; // + EOS
        }
        if total_words == 0 {
            return f64::INFINITY;
        }
        (-total_logprob / total_words as f64).exp()
    }

    /// Number of explicitly stored n-gram parameters (used for the flash
    /// storage accounting of the language model).
    pub fn param_count(&self) -> usize {
        self.unigrams.len() + self.bigrams.len() + self.trigrams.len()
    }
}

/// Add-one probabilities and Katz-style back-off weights of one order from
/// its n-gram counts.
///
/// `split` splits an n-gram into its history and its word, and `lower` is the
/// next-lower order's conditional `p(w | shortened history)`.  The counts are
/// sorted by (history, word), so each history's n-grams form one run: its
/// total count, and then the two sums its back-off weight needs (the mass its
/// seen n-grams claim and the lower-order mass of the same words), come from
/// that run alone, added in word order.  Training is therefore linear in the
/// number of n-grams after the sort, and the sums do not depend on hash-map
/// iteration order.  The count map is consumed before the tables grow.
fn estimate_order<K, H>(
    counts: HashMap<K, u64>,
    v: f64,
    split: impl Fn(K) -> (H, WordId),
    lower: impl Fn(H, WordId) -> f64,
) -> (HashMap<K, LogProb>, HashMap<H, LogProb>)
where
    K: Copy + Ord + Hash,
    H: Copy + Eq + Hash,
{
    let mut sorted: Vec<(K, u64)> = counts.into_iter().collect();
    sorted.sort_unstable_by_key(|&(key, _)| key);
    let mut probs = HashMap::with_capacity(sorted.len());
    let mut backoff = HashMap::new();
    let mut rest = &sorted[..];
    while let Some(&(first, _)) = rest.first() {
        let (history, _) = split(first);
        let len = rest
            .iter()
            .position(|&(key, _)| split(key).0 != history)
            .unwrap_or(rest.len());
        let (run, tail) = rest.split_at(len);
        rest = tail;
        let hist: u64 = run.iter().map(|&(_, c)| c).sum();
        let mut seen_sum = 0.0f64;
        let mut seen_lower_sum = 0.0f64;
        for &(key, c) in run {
            let p = LogProb::from_linear((c as f64 + 1.0) / (hist as f64 + v));
            probs.insert(key, p);
            seen_sum += p.to_linear();
            seen_lower_sum += lower(history, split(key).1);
        }
        // The probability mass not claimed by the seen n-grams, redistributed
        // over the lower-order mass of the words not seen after this history,
        // so Σ_w p(w | h) ≤ 1.
        let weight = if seen_lower_sum < 1.0 {
            ((1.0 - seen_sum).max(0.0)) / (1.0 - seen_lower_sum)
        } else {
            0.0
        };
        backoff.insert(history, LogProb::from_linear(weight.min(1.0)));
    }
    (probs, backoff)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn w(i: u32) -> WordId {
        WordId(i)
    }

    fn training_data() -> Vec<Vec<WordId>> {
        // A tiny corpus over words 0..5 with a strong 0 → 1 → 2 pattern.
        vec![
            vec![w(0), w(1), w(2)],
            vec![w(0), w(1), w(2), w(3)],
            vec![w(0), w(1), w(4)],
            vec![w(3), w(4)],
            vec![w(0), w(1), w(2)],
        ]
    }

    #[test]
    fn uniform_model() {
        let lm = NGramModel::uniform(100).unwrap();
        assert_eq!(lm.order(), NGramOrder::Unigram);
        assert_eq!(lm.vocab_size(), 100);
        let p = lm.unigram(w(3));
        assert!((p.to_linear() - 0.01).abs() < 1e-9);
        // Unknown words get the same probability in a uniform model.
        assert_eq!(lm.log_prob(&[], w(7)).raw(), p.raw());
        assert!(NGramModel::uniform(0).is_err());
    }

    #[test]
    fn training_rejects_empty() {
        assert!(NGramModel::train(NGramOrder::Bigram, 5, &[]).is_err());
        assert!(NGramModel::train(NGramOrder::Bigram, 5, &[vec![]]).is_err());
        assert!(NGramModel::train(NGramOrder::Bigram, 0, &training_data()).is_err());
    }

    #[test]
    fn bigram_prefers_seen_transitions() {
        let lm = NGramModel::train(NGramOrder::Bigram, 5, &training_data()).unwrap();
        assert_eq!(lm.order().order(), 2);
        // 0 → 1 was always observed; 0 → 3 never.
        let seen = lm.log_prob(&[w(0)], w(1));
        let unseen = lm.log_prob(&[w(0)], w(3));
        assert!(seen.raw() > unseen.raw());
        assert!(lm.param_count() > 0);
    }

    #[test]
    fn trigram_uses_two_words_of_history() {
        let lm = NGramModel::train(NGramOrder::Trigram, 5, &training_data()).unwrap();
        // (0, 1) → 2 was observed 3 times; (0, 1) → 3 never.
        let seen = lm.log_prob(&[w(0), w(1)], w(2));
        let unseen = lm.log_prob(&[w(0), w(1)], w(3));
        assert!(seen.raw() > unseen.raw());
        // With no history at all the model still returns something finite.
        assert!(!lm.log_prob(&[], w(2)).is_zero());
    }

    #[test]
    fn probabilities_sum_to_at_most_one_over_vocab() {
        let lm = NGramModel::train(NGramOrder::Bigram, 5, &training_data()).unwrap();
        // Σ_w p(w | history=0) over the vocabulary + EOS should be ≤ 1 + ε
        // (add-one smoothing leaks a little mass to BOS which never follows
        // anything, so strictly < 1).
        let total: f64 = (0..5)
            .map(|i| lm.log_prob(&[w(0)], w(i)).to_linear())
            .chain([lm.log_prob(&[w(0)], NGramModel::EOS).to_linear()])
            .sum();
        assert!(total <= 1.0 + 1e-6, "{total}");
        assert!(total > 0.5, "{total}");
    }

    #[test]
    fn sentence_probability_and_perplexity() {
        let lm = NGramModel::train(NGramOrder::Bigram, 5, &training_data()).unwrap();
        let common = vec![w(0), w(1), w(2)];
        let rare = vec![w(4), w(3), w(0)];
        assert!(lm.sentence_log_prob(&common).raw() > lm.sentence_log_prob(&rare).raw());
        let ppl_common = lm.perplexity(&[common]);
        let ppl_rare = lm.perplexity(&[rare]);
        assert!(ppl_common < ppl_rare);
        assert!(ppl_common > 1.0);
        assert_eq!(lm.perplexity(&[]), f64::INFINITY);
    }

    /// A seeded xorshift stream for the random corpora below.
    struct XorShift(u64);

    impl XorShift {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }
    }

    /// `count` sentences of 0–6 words drawn uniformly from `vocab` words.
    fn random_corpus(seed: u64, vocab: usize, count: usize) -> Vec<Vec<WordId>> {
        let mut rng = XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        (0..count)
            .map(|_| {
                let len = rng.below(7);
                (0..len).map(|_| w(rng.below(vocab) as u32)).collect()
            })
            .collect()
    }

    /// Every word a probe may name: the vocabulary, one word outside it and
    /// both sentence boundaries.
    fn probe_words(vocab: usize) -> Vec<WordId> {
        (0..=vocab as u32)
            .map(w)
            .chain([NGramModel::BOS, NGramModel::EOS])
            .collect()
    }

    /// The bits of `log_prob` for every (h2, h1, w) over `probe_words`.
    fn log_prob_bits(lm: &NGramModel) -> Vec<u32> {
        let words = probe_words(lm.vocab_size());
        let mut bits = Vec::new();
        for &h2 in &words {
            for &h1 in &words {
                for &word in &words {
                    bits.push(lm.log_prob(&[h2, h1], word).raw().to_bits());
                }
            }
        }
        bits
    }

    /// The model straight from its definition: counts per position in
    /// ordered maps, and each history's back-off sums taken over its seen
    /// words in ascending order.
    struct Oracle {
        order: NGramOrder,
        total: f64,
        v: f64,
        uni: BTreeMap<WordId, u64>,
        bi: BTreeMap<(WordId, WordId), u64>,
        tri: BTreeMap<(WordId, WordId, WordId), u64>,
        hist1: BTreeMap<WordId, u64>,
        hist2: BTreeMap<(WordId, WordId), u64>,
        bi_backoff: BTreeMap<WordId, LogProb>,
        tri_backoff: BTreeMap<(WordId, WordId), LogProb>,
    }

    impl Oracle {
        fn new(order: NGramOrder, vocab: usize, sentences: &[Vec<WordId>]) -> Self {
            let mut oracle = Oracle {
                order,
                total: 0.0,
                v: vocab as f64 + 1.0,
                uni: BTreeMap::new(),
                bi: BTreeMap::new(),
                tri: BTreeMap::new(),
                hist1: BTreeMap::new(),
                hist2: BTreeMap::new(),
                bi_backoff: BTreeMap::new(),
                tri_backoff: BTreeMap::new(),
            };
            for s in sentences.iter().filter(|s| !s.is_empty()) {
                let (mut h2, mut h1) = (NGramModel::BOS, NGramModel::BOS);
                for &word in s.iter().chain([&NGramModel::EOS]) {
                    oracle.total += 1.0;
                    *oracle.uni.entry(word).or_default() += 1;
                    *oracle.bi.entry((h1, word)).or_default() += 1;
                    *oracle.tri.entry((h2, h1, word)).or_default() += 1;
                    *oracle.hist1.entry(h1).or_default() += 1;
                    *oracle.hist2.entry((h2, h1)).or_default() += 1;
                    (h2, h1) = (h1, word);
                }
            }
            let weight = |seen: f64, seen_lower: f64| {
                let weight = if seen_lower < 1.0 {
                    ((1.0 - seen).max(0.0)) / (1.0 - seen_lower)
                } else {
                    0.0
                };
                LogProb::from_linear(weight.min(1.0))
            };
            for &h in oracle.hist1.keys() {
                let (mut seen, mut seen_uni) = (0.0, 0.0);
                for (&(_, word), _) in oracle.bi.range((h, WordId(0))..=(h, WordId(u32::MAX))) {
                    seen += oracle.bigram(h, word).unwrap().to_linear();
                    seen_uni += oracle.uni_linear(word);
                }
                oracle.bi_backoff.insert(h, weight(seen, seen_uni));
            }
            for &(h2, h1) in oracle.hist2.keys() {
                let (mut seen, mut seen_lower) = (0.0, 0.0);
                let range = (h2, h1, WordId(0))..=(h2, h1, WordId(u32::MAX));
                for (&(_, _, word), _) in oracle.tri.range(range) {
                    seen += oracle.trigram(h2, h1, word).unwrap().to_linear();
                    seen_lower += oracle.bigram_linear(h1, word);
                }
                oracle
                    .tri_backoff
                    .insert((h2, h1), weight(seen, seen_lower));
            }
            oracle
        }

        fn uni_linear(&self, word: WordId) -> f64 {
            let c = self.uni.get(&word).map_or(0.0, |&c| c as f64 + 1.0);
            c.max(1.0) / (self.total + self.v)
        }

        fn bigram(&self, h1: WordId, word: WordId) -> Option<LogProb> {
            let c = *self.bi.get(&(h1, word))?;
            Some(LogProb::from_linear(
                (c as f64 + 1.0) / (self.hist1[&h1] as f64 + self.v),
            ))
        }

        fn trigram(&self, h2: WordId, h1: WordId, word: WordId) -> Option<LogProb> {
            let c = *self.tri.get(&(h2, h1, word))?;
            Some(LogProb::from_linear(
                (c as f64 + 1.0) / (self.hist2[&(h2, h1)] as f64 + self.v),
            ))
        }

        fn bigram_linear(&self, h1: WordId, word: WordId) -> f64 {
            self.bigram(h1, word).map_or_else(
                || self.bi_backoff.get(&h1).map_or(1.0, |b| b.to_linear()) * self.uni_linear(word),
                LogProb::to_linear,
            )
        }

        fn log_prob(&self, h2: WordId, h1: WordId, word: WordId) -> LogProb {
            let unigram = LogProb::from_linear(self.uni_linear(word));
            let bi_backoff = self.bi_backoff.get(&h1).copied().unwrap_or(LogProb::ONE);
            let tri_backoff = self
                .tri_backoff
                .get(&(h2, h1))
                .copied()
                .unwrap_or(LogProb::ONE);
            // The sums associate as `log_prob` writes them, left to right.
            match (
                self.order,
                self.trigram(h2, h1, word),
                self.bigram(h1, word),
            ) {
                (NGramOrder::Unigram, _, _) => unigram,
                (NGramOrder::Bigram, _, Some(p)) | (NGramOrder::Trigram, Some(p), _) => p,
                (NGramOrder::Bigram, _, None) => bi_backoff + unigram,
                (NGramOrder::Trigram, None, Some(p)) => tri_backoff + p,
                (NGramOrder::Trigram, None, None) => tri_backoff + bi_backoff + unigram,
            }
        }
    }

    #[test]
    fn training_matches_the_per_history_definition_bit_for_bit() {
        for order in [NGramOrder::Unigram, NGramOrder::Bigram, NGramOrder::Trigram] {
            for vocab in [1, 2, 3, 5, 8] {
                for seed in 0..12 {
                    let sentences = random_corpus(seed, vocab, 1 + seed as usize * 4);
                    if sentences.iter().all(Vec::is_empty) {
                        continue;
                    }
                    let lm = NGramModel::train(order, vocab, &sentences).unwrap();
                    let oracle = Oracle::new(order, vocab, &sentences);
                    let words = probe_words(vocab);
                    for &h2 in &words {
                        for &h1 in &words {
                            for &word in &words {
                                assert_eq!(
                                    lm.log_prob(&[h2, h1], word).raw().to_bits(),
                                    oracle.log_prob(h2, h1, word).raw().to_bits(),
                                    "{order:?}, vocab {vocab}, seed {seed}: \
                                     p({word:?} | {h2:?} {h1:?})"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn training_does_not_depend_on_sentence_order() {
        let corpora = (0..8).flat_map(|seed| [(seed, 2, 12), (seed, 3, 20), (seed, 7, 60)]);
        for (seed, vocab, count) in corpora.chain([(0, 40, 300)]) {
            let sentences = random_corpus(seed, vocab, count);
            let mut shuffled = sentences.clone();
            let mut rng = XorShift(0x5EED + seed);
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, rng.below(i + 1));
            }
            assert_ne!(shuffled, sentences, "the shuffle moved something");
            for order in [NGramOrder::Bigram, NGramOrder::Trigram] {
                let lm = NGramModel::train(order, vocab, &sentences).unwrap();
                let relearned = NGramModel::train(order, vocab, &shuffled).unwrap();
                assert!(
                    log_prob_bits(&lm) == log_prob_bits(&relearned),
                    "{order:?}, vocab {vocab}, seed {seed}: the shuffled corpus trains another model"
                );
            }
        }
    }

    #[test]
    fn trained_model_beats_uniform_on_training_like_data() {
        let data = training_data();
        let uniform = NGramModel::uniform(5).unwrap();
        let trained = NGramModel::train(NGramOrder::Bigram, 5, &data).unwrap();
        assert!(trained.perplexity(&data) < uniform.perplexity(&data));
    }
}
