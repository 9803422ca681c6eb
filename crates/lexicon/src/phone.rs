//! The phone set.
//!
//! "For Example, there are 51 phones in English language." (paper, Section II)
//! This module provides a named phone inventory (a superset of the CMU/ARPAbet
//! phones plus silence) and name ↔ id mapping.

use asr_acoustic::PhoneId;
use std::collections::HashMap;

/// The ARPAbet-style phone names used by the built-in English set, in id
/// order.  SIL (silence) is always phone 0.
const ENGLISH_PHONES: [&str; 51] = [
    "SIL", "AA", "AE", "AH", "AO", "AW", "AX", "AXR", "AY", "B", "CH", "D", "DH", "DX", "EH", "ER",
    "EY", "F", "G", "HH", "IH", "IX", "IY", "JH", "K", "L", "M", "N", "NG", "OW", "OY", "P", "R",
    "S", "SH", "T", "TH", "TS", "UH", "UW", "V", "W", "Y", "Z", "ZH", "EM", "EN", "EL", "PAU",
    "BRE", "NOI",
];

/// A named inventory of phones.
#[derive(Debug, Clone, PartialEq)]
pub struct PhoneSet {
    names: Vec<String>,
    index: HashMap<String, PhoneId>,
}

impl PhoneSet {
    /// The 51-phone English inventory the paper refers to
    /// (ARPAbet plus silence/pause/noise units).
    pub fn english_51() -> Self {
        Self::from_names(ENGLISH_PHONES.iter().map(|s| s.to_string()))
    }

    /// Builds a phone set from names; duplicate names are ignored after the
    /// first occurrence.
    pub fn from_names<I: IntoIterator<Item = String>>(names: I) -> Self {
        let mut set = PhoneSet {
            names: Vec::new(),
            index: HashMap::new(),
        };
        for name in names {
            if !set.index.contains_key(&name) {
                let id = PhoneId(set.names.len() as u16);
                set.index.insert(name.clone(), id);
                set.names.push(name);
            }
        }
        set
    }

    /// Number of phones.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Returns `true` if the set has no phones.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The silence phone (always id 0 in the built-in set).
    pub fn silence(&self) -> PhoneId {
        PhoneId(0)
    }

    /// Id of a phone name.
    pub fn id_of(&self, name: &str) -> Option<PhoneId> {
        self.index.get(name).copied()
    }

    /// Name of a phone id.
    pub fn name_of(&self, id: PhoneId) -> Option<&str> {
        self.names.get(id.index()).map(|s| s.as_str())
    }

    /// Iterates over `(id, name)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (PhoneId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (PhoneId(i as u16), n.as_str()))
    }
}

impl Default for PhoneSet {
    fn default() -> Self {
        Self::english_51()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn english_set_has_51_phones() {
        let p = PhoneSet::english_51();
        assert_eq!(p.len(), 51);
        assert!(!p.is_empty());
        assert_eq!(p.silence(), PhoneId(0));
        assert_eq!(p.name_of(PhoneId(0)), Some("SIL"));
        assert_eq!(PhoneSet::default(), p);
    }

    #[test]
    fn name_id_roundtrip() {
        let p = PhoneSet::english_51();
        for (id, name) in p.iter() {
            assert_eq!(p.id_of(name), Some(id));
            assert_eq!(p.name_of(id), Some(name));
        }
        assert_eq!(p.id_of("NOT_A_PHONE"), None);
        assert_eq!(p.name_of(PhoneId(200)), None);
    }

    #[test]
    fn duplicates_are_ignored() {
        let p = PhoneSet::from_names(vec!["A".into(), "B".into(), "A".into()]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.id_of("A"), Some(PhoneId(0)));
        assert_eq!(p.id_of("B"), Some(PhoneId(1)));
    }
}
