//! Lexical prefix tree.
//!
//! The word-decode stage "decides which senones are to be evaluated by the
//! phone decode based on the phone combinations of the active words in the
//! dictionary".  A prefix tree over pronunciations shares common word
//! beginnings so the decoder can expand only the phones that can actually
//! continue some dictionary word — the data structure behind the
//! "Phones for evaluation" feedback arrow in Figure 1.

use crate::dictionary::{Dictionary, WordId};
use asr_acoustic::PhoneId;

/// Identifier of a node in the [`LexTree`]. The root has id 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LexNodeId(pub u32);

impl LexNodeId {
    /// The root node.
    pub const ROOT: LexNodeId = LexNodeId(0);

    /// The numeric index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One frozen node: its incoming phone, its depth, and where its children
/// and words start in the tree's flat arrays (they end where the next
/// node's begin).
#[derive(Debug, Clone, Copy)]
struct LexNode {
    /// Phone labelling the edge from the parent to this node
    /// (`None` only for the root).
    phone: Option<PhoneId>,
    depth: u32,
    first_edge: u32,
    first_word: u32,
}

/// A prefix tree over the pronunciations of a [`Dictionary`].
///
/// The tree is built with temporary per-node child lists and then frozen
/// into flat arrays: one `(phone, child)` edge list sorted by phone within
/// each node and one word list, both indexed by per-node offsets.  Walking
/// the tree therefore never allocates.
#[derive(Debug, Clone)]
pub struct LexTree {
    /// One entry per node plus a trailing sentinel holding the end offsets.
    nodes: Vec<LexNode>,
    edges: Vec<(PhoneId, LexNodeId)>,
    words: Vec<WordId>,
}

impl LexTree {
    /// Builds the prefix tree of a dictionary.
    pub fn build(dictionary: &Dictionary) -> Self {
        // Node ids are assigned in insertion order while the tree grows.
        // Each node's children form a list threaded through `first_child` /
        // `next_sibling` and searched linearly: a node has at most one child
        // per phone, so the lists stay short and the build allocates no
        // per-node table.
        const NONE: u32 = u32::MAX;
        let mut phones: Vec<Option<PhoneId>> = vec![None];
        let mut depths: Vec<u32> = vec![0];
        let mut first_child: Vec<u32> = vec![NONE];
        let mut next_sibling: Vec<u32> = vec![NONE];
        let mut words: Vec<Vec<WordId>> = vec![Vec::new()];
        for (word, _, pron) in dictionary.iter() {
            let mut node = LexNodeId::ROOT.0;
            for &phone in pron.phones() {
                let mut child = first_child[node as usize];
                while child != NONE && phones[child as usize] != Some(phone) {
                    child = next_sibling[child as usize];
                }
                if child == NONE {
                    child = phones.len() as u32;
                    phones.push(Some(phone));
                    depths.push(depths[node as usize] + 1);
                    first_child.push(NONE);
                    next_sibling.push(first_child[node as usize]);
                    first_child[node as usize] = child;
                    words.push(Vec::new());
                }
                node = child;
            }
            words[node as usize].push(word);
        }

        let mut tree = LexTree {
            nodes: Vec::with_capacity(phones.len() + 1),
            edges: Vec::with_capacity(phones.len().saturating_sub(1)),
            words: Vec::with_capacity(words.iter().map(Vec::len).sum()),
        };
        for (i, node_words) in words.iter().enumerate() {
            tree.nodes.push(LexNode {
                phone: phones[i],
                depth: depths[i],
                first_edge: tree.edges.len() as u32,
                first_word: tree.words.len() as u32,
            });
            let first = tree.edges.len();
            let mut child = first_child[i];
            while child != NONE {
                let phone = phones[child as usize].expect("only the root has no phone");
                tree.edges.push((phone, LexNodeId(child)));
                child = next_sibling[child as usize];
            }
            tree.edges[first..].sort_unstable_by_key(|&(p, _)| p);
            tree.words.extend_from_slice(node_words);
        }
        tree.nodes.push(LexNode {
            phone: None,
            depth: 0,
            first_edge: tree.edges.len() as u32,
            first_word: tree.words.len() as u32,
        });
        tree
    }

    /// `node` and the node after it (whose offsets end `node`'s ranges), or
    /// `None` for an unknown node.
    fn bounds(&self, node: LexNodeId) -> Option<(&LexNode, &LexNode)> {
        let i = node.index();
        Some((self.nodes.get(i)?, self.nodes.get(i + 1)?))
    }

    /// Total number of nodes (including the root).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Number of word end-points in the tree.
    pub fn num_words(&self) -> usize {
        self.words.len()
    }

    /// The phone on the edge into `node` (`None` for the root).
    pub fn phone(&self, node: LexNodeId) -> Option<PhoneId> {
        self.bounds(node).and_then(|(n, _)| n.phone)
    }

    /// Depth of a node (root = 0).
    pub fn depth(&self, node: LexNodeId) -> Option<usize> {
        self.bounds(node).map(|(n, _)| n.depth as usize)
    }

    /// The child of `node` reached by `phone`, if any.
    pub fn child(&self, node: LexNodeId, phone: PhoneId) -> Option<LexNodeId> {
        let succ = self.successors(node);
        succ.binary_search_by_key(&phone, |&(p, _)| p)
            .ok()
            .map(|i| succ[i].1)
    }

    /// All `(phone, child)` successors of a node, sorted by phone — the
    /// phones that can continue some dictionary word from this prefix.
    pub fn successors(&self, node: LexNodeId) -> &[(PhoneId, LexNodeId)] {
        self.bounds(node)
            .map(|(n, next)| &self.edges[n.first_edge as usize..next.first_edge as usize])
            .unwrap_or(&[])
    }

    /// Words ending exactly at `node`.
    pub fn words_at(&self, node: LexNodeId) -> &[WordId] {
        self.bounds(node)
            .map(|(n, next)| &self.words[n.first_word as usize..next.first_word as usize])
            .unwrap_or(&[])
    }

    /// Follows a phone sequence from the root, returning the reached node if
    /// the whole sequence is a prefix of some word.
    pub fn lookup_prefix(&self, phones: &[PhoneId]) -> Option<LexNodeId> {
        let mut node = LexNodeId::ROOT;
        for &p in phones {
            node = self.child(node, p)?;
        }
        Some(node)
    }

    /// Words whose pronunciation is exactly `phones`.
    pub fn lookup_words(&self, phones: &[PhoneId]) -> Vec<WordId> {
        self.lookup_prefix(phones)
            .map(|n| self.words_at(n).to_vec())
            .unwrap_or_default()
    }

    /// The set of *first* phones of all dictionary words — the phones the
    /// word-decode stage activates whenever a new word can start.
    pub fn initial_phones(&self) -> Vec<PhoneId> {
        self.successors(LexNodeId::ROOT)
            .iter()
            .map(|&(p, _)| p)
            .collect()
    }

    /// Compression ratio of the tree versus a flat pronunciation list:
    /// `total phones in dictionary / (nodes − 1)`.  Greater than 1 whenever
    /// words share prefixes.
    pub fn sharing_ratio(&self, dictionary: &Dictionary) -> f64 {
        let total_phones: usize = dictionary.iter().map(|(_, _, p)| p.len()).sum();
        if self.num_nodes() <= 1 {
            return 1.0;
        }
        total_phones as f64 / (self.num_nodes() - 1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dictionary::Pronunciation;

    fn dict() -> Dictionary {
        let mut d = Dictionary::new();
        let p = |ids: &[u16]| Pronunciation::new(ids.iter().map(|&i| PhoneId(i)).collect());
        d.add_word("cat", p(&[10, 1, 20])).unwrap(); // K AE T
        d.add_word("cab", p(&[10, 1, 9])).unwrap(); // K AE B
        d.add_word("dog", p(&[11, 4, 18])).unwrap(); // D AO G
        d.add_word("do", p(&[11, 39])).unwrap(); // D UW
        d.add_word("a", p(&[3])).unwrap(); // AH
        d
    }

    #[test]
    fn build_and_count() {
        let d = dict();
        let t = LexTree::build(&d);
        assert_eq!(t.num_words(), 5);
        // Nodes: root + cat/cab share "K AE" → K, AE, T, B (4) + dog/do share D → D, AO, G, UW (4) + A (1) = 10 + root
        assert_eq!(t.num_nodes(), 10);
        assert!(t.sharing_ratio(&d) > 1.0);
        assert_eq!(t.depth(LexNodeId::ROOT), Some(0));
        assert_eq!(t.phone(LexNodeId::ROOT), None);
    }

    #[test]
    fn prefix_and_word_lookup() {
        let d = dict();
        let t = LexTree::build(&d);
        let cat = [PhoneId(10), PhoneId(1), PhoneId(20)];
        let words = t.lookup_words(&cat);
        assert_eq!(words.len(), 1);
        assert_eq!(d.spelling(words[0]), Some("cat"));
        // Prefix that is not a full word has no words but exists.
        let ka = t.lookup_prefix(&[PhoneId(10), PhoneId(1)]).unwrap();
        assert!(t.words_at(ka).is_empty());
        assert_eq!(t.depth(ka), Some(2));
        // Non-existent prefix.
        assert!(t.lookup_prefix(&[PhoneId(30)]).is_none());
        assert!(t.lookup_words(&[PhoneId(30)]).is_empty());
        // "do" ends at an interior node on the way to nothing else — both words under D.
        let do_words = t.lookup_words(&[PhoneId(11), PhoneId(39)]);
        assert_eq!(do_words.len(), 1);
    }

    #[test]
    fn successors_and_initial_phones() {
        let d = dict();
        let t = LexTree::build(&d);
        let initials = t.initial_phones();
        assert_eq!(initials, vec![PhoneId(3), PhoneId(10), PhoneId(11)]);
        let k_node = t.child(LexNodeId::ROOT, PhoneId(10)).unwrap();
        let succ = t.successors(k_node);
        assert_eq!(succ.len(), 1); // only AE continues K
        assert_eq!(succ[0].0, PhoneId(1));
        let ae_node = succ[0].1;
        assert_eq!(t.successors(ae_node).len(), 2); // T and B
        assert_eq!(t.phone(ae_node), Some(PhoneId(1)));
        // Unknown node id behaves gracefully.
        assert!(t.successors(LexNodeId(999)).is_empty());
        assert!(t.words_at(LexNodeId(999)).is_empty());
        assert_eq!(t.child(LexNodeId(999), PhoneId(0)), None);
        assert_eq!(t.depth(LexNodeId(999)), None);
    }

    #[test]
    fn empty_dictionary_tree() {
        let d = Dictionary::new();
        let t = LexTree::build(&d);
        assert_eq!(t.num_nodes(), 1);
        assert_eq!(t.num_words(), 0);
        assert!(t.initial_phones().is_empty());
        assert_eq!(t.sharing_ratio(&d), 1.0);
    }

    #[test]
    fn deep_sharing_reduces_nodes() {
        // 50 words all sharing a long common prefix.
        let mut d = Dictionary::new();
        for i in 0..50u16 {
            let mut phones: Vec<PhoneId> = (1..=8).map(PhoneId).collect();
            phones.push(PhoneId(10 + i));
            d.add_word(&format!("w{i}"), Pronunciation::new(phones))
                .unwrap();
        }
        let t = LexTree::build(&d);
        // Flat storage: 50 * 9 = 450 phones; tree: 8 shared + 50 leaves = 58 nodes.
        assert_eq!(t.num_nodes(), 1 + 8 + 50);
        assert!(t.sharing_ratio(&d) > 7.0);
    }

    /// A few hundred words over a small phone set (so prefixes are shared
    /// deeply), with homophones, drawn from a fixed linear congruential
    /// sequence.
    fn random_dict() -> Dictionary {
        let mut d = dict();
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        let mut next = |m: u64| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 33) % m
        };
        let mut prons: Vec<Vec<PhoneId>> = Vec::new();
        for i in 0..400 {
            let phones = if i % 10 == 9 && !prons.is_empty() {
                prons[next(prons.len() as u64) as usize].clone()
            } else {
                let len = 1 + next(6) as usize;
                (0..len).map(|_| PhoneId(next(12) as u16)).collect()
            };
            d.add_word(&format!("r{i}"), Pronunciation::new(phones.clone()))
                .unwrap();
            prons.push(phones);
        }
        d
    }

    /// The tree as the dictionary defines it, built the obvious way: node
    /// ids in insertion order, children in ordered maps, and the words of a
    /// node in dictionary order.
    struct Reference {
        phone: Vec<Option<PhoneId>>,
        depth: Vec<usize>,
        children: Vec<std::collections::BTreeMap<PhoneId, u32>>,
        words: Vec<Vec<WordId>>,
    }

    fn reference(d: &Dictionary) -> Reference {
        let mut r = Reference {
            phone: vec![None],
            depth: vec![0],
            children: vec![Default::default()],
            words: vec![Vec::new()],
        };
        for (word, _, pron) in d.iter() {
            let mut node = 0usize;
            for &p in pron.phones() {
                let fresh = r.phone.len() as u32;
                let child = *r.children[node].entry(p).or_insert(fresh);
                if child == fresh {
                    r.phone.push(Some(p));
                    r.depth.push(r.depth[node] + 1);
                    r.children.push(Default::default());
                    r.words.push(Vec::new());
                }
                node = child as usize;
            }
            r.words[node].push(word);
        }
        r
    }

    #[test]
    fn frozen_tree_matches_the_reference_node_for_node() {
        for d in [dict(), random_dict()] {
            let t = LexTree::build(&d);
            let r = reference(&d);
            assert_eq!(t.num_nodes(), r.phone.len());
            assert_eq!(t.num_words(), d.len());
            for n in 0..t.num_nodes() {
                let node = LexNodeId(n as u32);
                assert_eq!(t.phone(node), r.phone[n]);
                assert_eq!(t.depth(node), Some(r.depth[n]));
                assert_eq!(t.words_at(node), r.words[n].as_slice(), "node {n}");
                let want: Vec<(PhoneId, LexNodeId)> = r.children[n]
                    .iter()
                    .map(|(&p, &c)| (p, LexNodeId(c)))
                    .collect();
                assert_eq!(t.successors(node), want.as_slice(), "node {n}");
            }
        }
    }

    #[test]
    fn successors_are_sorted_borrowed_slices() {
        let d = random_dict();
        let t = LexTree::build(&d);
        let mut edges = 0;
        for n in 0..t.num_nodes() {
            let node = LexNodeId(n as u32);
            let succ = t.successors(node);
            assert!(succ.windows(2).all(|w| w[0].0 < w[1].0), "node {n}");
            // The same borrowed storage every call: nothing is built per call.
            assert!(std::ptr::eq(succ, t.successors(node)));
            edges += succ.len();
        }
        // Every node but the root is exactly one edge.
        assert_eq!(edges, t.num_nodes() - 1);
    }

    #[test]
    fn lookups_agree_with_the_dictionary() {
        let d = random_dict();
        let t = LexTree::build(&d);
        for (word, _, pron) in d.iter() {
            let phones = pron.phones();
            // `child` walks the same path `lookup_prefix` does, one phone
            // at a time, and every prefix reaches a node of its depth.
            let mut node = LexNodeId::ROOT;
            for (i, &p) in phones.iter().enumerate() {
                node = t.child(node, p).expect("every prefix is in the tree");
                assert_eq!(t.lookup_prefix(&phones[..=i]), Some(node));
                assert_eq!(t.depth(node), Some(i + 1));
                assert_eq!(t.phone(node), Some(p));
            }
            let homophones: Vec<WordId> = d
                .iter()
                .filter(|(_, _, q)| q.phones() == phones)
                .map(|(w, _, _)| w)
                .collect();
            assert!(homophones.contains(&word));
            assert_eq!(t.lookup_words(phones), homophones);
            assert_eq!(t.words_at(node), homophones.as_slice());
        }
        let mut initials: Vec<PhoneId> = d.iter().map(|(_, _, p)| p.phones()[0]).collect();
        initials.sort_unstable();
        initials.dedup();
        assert_eq!(t.initial_phones(), initials);
        // A phone outside the set continues nothing.
        assert_eq!(t.child(LexNodeId::ROOT, PhoneId(50)), None);
        assert!(t.lookup_words(&[PhoneId(50)]).is_empty());
    }
}
