//! Record and group mappings between two successive snapshots.
//!
//! [`RecordMapping`] enforces the 1:1 cardinality of the paper's `M_R`
//! (Eq. 1): every old record links to at most one new record and vice
//! versa. [`GroupMapping`] is the N:M `M_G` (Eq. 2): a plain set of
//! household pairs.

use crate::{HouseholdId, RecordId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};

/// A 1:1 mapping between old and new record ids.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecordMapping {
    forward: HashMap<RecordId, RecordId>,
    backward: HashMap<RecordId, RecordId>,
}

impl RecordMapping {
    /// Empty mapping.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from pairs, rejecting any 1:1 violation.
    ///
    /// # Errors
    ///
    /// Returns the first conflicting pair.
    pub fn from_pairs<I>(pairs: I) -> Result<Self, (RecordId, RecordId)>
    where
        I: IntoIterator<Item = (RecordId, RecordId)>,
    {
        let mut m = Self::new();
        for (old, new) in pairs {
            if !m.insert(old, new) {
                return Err((old, new));
            }
        }
        Ok(m)
    }

    /// Insert a link. Returns `false` (and leaves the mapping unchanged)
    /// if either endpoint is already linked to a *different* partner;
    /// re-inserting an existing link returns `true`.
    pub fn insert(&mut self, old: RecordId, new: RecordId) -> bool {
        match (self.forward.get(&old), self.backward.get(&new)) {
            (Some(&n), _) if n != new => false,
            (_, Some(&o)) if o != old => false,
            _ => {
                self.forward.insert(old, new);
                self.backward.insert(new, old);
                true
            }
        }
    }

    /// The new-side partner of an old record.
    #[must_use]
    pub fn get_new(&self, old: RecordId) -> Option<RecordId> {
        self.forward.get(&old).copied()
    }

    /// The old-side partner of a new record.
    #[must_use]
    pub fn get_old(&self, new: RecordId) -> Option<RecordId> {
        self.backward.get(&new).copied()
    }

    /// Whether the exact pair is present.
    #[must_use]
    pub fn contains(&self, old: RecordId, new: RecordId) -> bool {
        self.forward.get(&old) == Some(&new)
    }

    /// Whether the old record is linked to anything.
    #[must_use]
    pub fn contains_old(&self, old: RecordId) -> bool {
        self.forward.contains_key(&old)
    }

    /// Whether the new record is linked to anything.
    #[must_use]
    pub fn contains_new(&self, new: RecordId) -> bool {
        self.backward.contains_key(&new)
    }

    /// Number of links.
    #[must_use]
    pub fn len(&self) -> usize {
        self.forward.len()
    }

    /// Whether the mapping is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }

    /// Iterate over `(old, new)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (RecordId, RecordId)> + '_ {
        self.forward.iter().map(|(&o, &n)| (o, n))
    }
}

impl FromIterator<(RecordId, RecordId)> for RecordMapping {
    /// Collect pairs, silently skipping 1:1 violations (first writer wins).
    fn from_iter<T: IntoIterator<Item = (RecordId, RecordId)>>(iter: T) -> Self {
        let mut m = Self::new();
        for (o, n) in iter {
            m.insert(o, n);
        }
        m
    }
}

/// An N:M mapping between old and new household ids.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupMapping {
    pairs: BTreeSet<(HouseholdId, HouseholdId)>,
}

impl GroupMapping {
    /// Empty mapping.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a household pair; returns `false` if it was already present.
    pub fn insert(&mut self, old: HouseholdId, new: HouseholdId) -> bool {
        self.pairs.insert((old, new))
    }

    /// Whether the pair is present.
    #[must_use]
    pub fn contains(&self, old: HouseholdId, new: HouseholdId) -> bool {
        self.pairs.contains(&(old, new))
    }

    /// Whether the old household appears in any pair.
    #[must_use]
    pub fn contains_old(&self, old: HouseholdId) -> bool {
        self.pairs
            .range((old, HouseholdId(0))..=(old, HouseholdId(u64::MAX)))
            .next()
            .is_some()
    }

    /// Whether the new household appears in any pair. The pairs are
    /// ordered by old household, so this scans all of them: O(pairs) per
    /// call. Collect the linked new households once when asking for many.
    #[must_use]
    pub fn contains_new(&self, new: HouseholdId) -> bool {
        self.pairs.iter().any(|&(_, n)| n == new)
    }

    /// All new households linked to an old one.
    pub fn linked_new(&self, old: HouseholdId) -> impl Iterator<Item = HouseholdId> + '_ {
        self.pairs
            .range((old, HouseholdId(0))..=(old, HouseholdId(u64::MAX)))
            .map(|&(_, n)| n)
    }

    /// All old households linked to a new one. Like
    /// [`GroupMapping::contains_new`], this scans every pair.
    pub fn linked_old(&self, new: HouseholdId) -> impl Iterator<Item = HouseholdId> + '_ {
        self.pairs
            .iter()
            .filter(move |&&(_, n)| n == new)
            .map(|&(o, _)| o)
    }

    /// Number of pairs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the mapping is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Iterate over `(old, new)` pairs in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (HouseholdId, HouseholdId)> + '_ {
        self.pairs.iter().copied()
    }
}

impl FromIterator<(HouseholdId, HouseholdId)> for GroupMapping {
    fn from_iter<T: IntoIterator<Item = (HouseholdId, HouseholdId)>>(iter: T) -> Self {
        GroupMapping {
            pairs: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn record_mapping_enforces_one_to_one() {
        let mut m = RecordMapping::new();
        assert!(m.insert(RecordId(1), RecordId(10)));
        assert!(m.insert(RecordId(1), RecordId(10))); // idempotent
        assert!(!m.insert(RecordId(1), RecordId(11))); // old side taken
        assert!(!m.insert(RecordId(2), RecordId(10))); // new side taken
        assert!(m.insert(RecordId(2), RecordId(11)));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get_new(RecordId(1)), Some(RecordId(10)));
        assert_eq!(m.get_old(RecordId(11)), Some(RecordId(2)));
    }

    #[test]
    fn from_pairs_rejects_conflicts() {
        let err =
            RecordMapping::from_pairs([(RecordId(1), RecordId(10)), (RecordId(1), RecordId(11))])
                .unwrap_err();
        assert_eq!(err, (RecordId(1), RecordId(11)));
        let ok =
            RecordMapping::from_pairs([(RecordId(1), RecordId(10)), (RecordId(2), RecordId(11))]);
        assert!(ok.is_ok());
    }

    #[test]
    fn group_mapping_is_n_to_m() {
        let mut g = GroupMapping::new();
        assert!(g.insert(HouseholdId(1), HouseholdId(10)));
        assert!(g.insert(HouseholdId(1), HouseholdId(11))); // split
        assert!(g.insert(HouseholdId(2), HouseholdId(10))); // merge
        assert!(!g.insert(HouseholdId(1), HouseholdId(10))); // dup
        assert_eq!(g.len(), 3);
        let new_of_1: Vec<_> = g.linked_new(HouseholdId(1)).collect();
        assert_eq!(new_of_1, vec![HouseholdId(10), HouseholdId(11)]);
        let old_of_10: Vec<_> = g.linked_old(HouseholdId(10)).collect();
        assert_eq!(old_of_10, vec![HouseholdId(1), HouseholdId(2)]);
        assert!(g.contains_old(HouseholdId(2)));
        assert!(!g.contains_old(HouseholdId(3)));
        assert!(g.contains_new(HouseholdId(11)));
        assert!(!g.contains_new(HouseholdId(12)));
    }

    proptest! {
        #[test]
        fn prop_record_mapping_invariant(pairs in proptest::collection::vec((0u64..20, 0u64..20), 0..40)) {
            let m: RecordMapping = pairs
                .into_iter()
                .map(|(o, n)| (RecordId(o), RecordId(n)))
                .collect();
            // forward and backward stay mutually inverse
            for (o, n) in m.iter() {
                prop_assert_eq!(m.get_old(n), Some(o));
                prop_assert_eq!(m.get_new(o), Some(n));
            }
            // no new id appears twice
            let news: std::collections::HashSet<_> = m.iter().map(|(_, n)| n).collect();
            prop_assert_eq!(news.len(), m.len());
        }

        #[test]
        fn prop_group_mapping_dedups(pairs in proptest::collection::vec((0u64..10, 0u64..10), 0..60)) {
            let g: GroupMapping = pairs
                .iter()
                .map(|&(o, n)| (HouseholdId(o), HouseholdId(n)))
                .collect();
            let unique: std::collections::HashSet<_> = pairs.iter().copied().collect();
            prop_assert_eq!(g.len(), unique.len());
        }
    }
}
