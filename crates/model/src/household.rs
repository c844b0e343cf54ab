//! Households: the groups `g ∈ G` of the problem definition.

use crate::{HouseholdId, RecordId};
use serde::{Deserialize, Serialize};

/// A household — an ordered, non-overlapping group of person records.
///
/// Records are stored by id; attribute data lives in the owning
/// [`crate::CensusDataset`]. The member order follows the census form
/// (head first by convention of the generator, though the model does not
/// require it).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Household {
    /// Snapshot-local household id (dense, usable as index).
    pub id: HouseholdId,
    /// Member record ids.
    pub members: Vec<RecordId>,
}

impl Household {
    /// Create a household from its member list.
    #[must_use]
    pub fn new(id: HouseholdId, members: Vec<RecordId>) -> Self {
        Self { id, members }
    }

    /// Number of members.
    #[must_use]
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Whether the given record belongs to this household.
    #[must_use]
    pub fn contains(&self, record: RecordId) -> bool {
        self.members.contains(&record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_and_contains() {
        let h = Household::new(HouseholdId(0), vec![RecordId(1), RecordId(2)]);
        assert_eq!(h.size(), 2);
        assert!(h.contains(RecordId(1)));
        assert!(!h.contains(RecordId(3)));
    }

    #[test]
    fn empty_household() {
        let h = Household::new(HouseholdId(1), vec![]);
        assert_eq!(h.size(), 0);
    }
}
