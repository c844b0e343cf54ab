//! Census snapshots `D_i = (R_i, G_i)`.

use crate::{DatasetStats, Household, HouseholdId, ModelError, PersonRecord, RecordId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One census snapshot: a year, its person records and its households.
///
/// Invariants enforced by [`CensusDataset::new`]:
///
/// * record ids and household ids are unique,
/// * every record belongs to exactly one household, and that household's
///   member list contains it,
/// * every household member id refers to an existing record.
///
/// Ids are snapshot-local. They need not be dense; lookups go through the
/// internal hash indices.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CensusDataset {
    /// Census year (e.g. 1871).
    pub year: i32,
    records: Vec<PersonRecord>,
    households: Vec<Household>,
    #[serde(skip)]
    record_index: HashMap<RecordId, usize>,
    #[serde(skip)]
    household_index: HashMap<HouseholdId, usize>,
}

impl CensusDataset {
    /// Build and validate a snapshot.
    ///
    /// # Errors
    ///
    /// Returns a [`ModelError`] if any structural invariant is violated.
    pub fn new(
        year: i32,
        records: Vec<PersonRecord>,
        households: Vec<Household>,
    ) -> Result<Self, ModelError> {
        let mut record_index = HashMap::with_capacity(records.len());
        for (i, r) in records.iter().enumerate() {
            if record_index.insert(r.id, i).is_some() {
                return Err(ModelError::DuplicateRecord(r.id.to_string()));
            }
        }
        Self::indexed(year, records, households, record_index)
    }

    /// [`CensusDataset::new`] over the record index the caller built
    /// while collecting `records` (each id maps to the position of its one
    /// record), so a reader that rejects duplicate ids as it goes does
    /// not index the records twice.
    pub(crate) fn indexed(
        year: i32,
        records: Vec<PersonRecord>,
        households: Vec<Household>,
        record_index: HashMap<RecordId, usize>,
    ) -> Result<Self, ModelError> {
        debug_assert_eq!(record_index.len(), records.len());
        let mut household_index = HashMap::with_capacity(households.len());
        for (i, h) in households.iter().enumerate() {
            if household_index.insert(h.id, i).is_some() {
                return Err(ModelError::DuplicateHousehold(h.id.to_string()));
            }
        }
        // every record's household exists and lists the record
        for r in &records {
            let Some(&hi) = household_index.get(&r.household) else {
                return Err(ModelError::UnknownHousehold {
                    record: r.id.to_string(),
                    household: r.household.to_string(),
                });
            };
            if !households[hi].contains(r.id) {
                return Err(ModelError::MembershipMismatch(r.id.to_string()));
            }
        }
        // every member id refers to an existing record of that household
        let mut seen_member = HashMap::new();
        for h in &households {
            for &m in &h.members {
                let Some(&ri) = record_index.get(&m) else {
                    return Err(ModelError::MembershipMismatch(m.to_string()));
                };
                if records[ri].household != h.id {
                    return Err(ModelError::MembershipMismatch(m.to_string()));
                }
                if seen_member.insert(m, h.id).is_some() {
                    return Err(ModelError::MembershipMismatch(m.to_string()));
                }
            }
        }
        Ok(Self {
            year,
            records,
            households,
            record_index,
            household_index,
        })
    }

    /// All person records.
    #[must_use]
    pub fn records(&self) -> &[PersonRecord] {
        &self.records
    }

    /// All households.
    #[must_use]
    pub fn households(&self) -> &[Household] {
        &self.households
    }

    /// Look up a record by id.
    #[must_use]
    pub fn record(&self, id: RecordId) -> Option<&PersonRecord> {
        self.record_index.get(&id).map(|&i| &self.records[i])
    }

    /// Look up a household by id.
    #[must_use]
    pub fn household(&self, id: HouseholdId) -> Option<&Household> {
        self.household_index.get(&id).map(|&i| &self.households[i])
    }

    /// Member records of a household, in form order.
    pub fn members(&self, household: HouseholdId) -> impl Iterator<Item = &PersonRecord> + '_ {
        self.household(household)
            .into_iter()
            .flat_map(move |h| h.members.iter().filter_map(move |&m| self.record(m)))
    }

    /// Number of records `|R_i|`.
    #[must_use]
    pub fn record_count(&self) -> usize {
        self.records.len()
    }

    /// Number of households `|G_i|`.
    #[must_use]
    pub fn household_count(&self) -> usize {
        self.households.len()
    }

    /// Descriptive statistics (paper Table 1 row).
    #[must_use]
    pub fn stats(&self) -> DatasetStats {
        DatasetStats::of(self)
    }

    /// Rebuild the hash indices — required after deserialisation, which
    /// skips them.
    pub fn rebuild_indices(&mut self) {
        self.record_index = self
            .records
            .iter()
            .enumerate()
            .map(|(i, r)| (r.id, i))
            .collect();
        self.household_index = self
            .households
            .iter()
            .enumerate()
            .map(|(i, h)| (h.id, i))
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Role, Sex};

    fn rec(id: u64, hh: u64, fname: &str, sname: &str, role: Role) -> PersonRecord {
        PersonRecord {
            id: RecordId(id),
            household: HouseholdId(hh),
            truth: None,
            first_name: fname.into(),
            surname: sname.into(),
            sex: Some(Sex::Male),
            age: Some(30),
            address: "mill lane".into(),
            occupation: "weaver".into(),
            role,
        }
    }

    fn valid() -> CensusDataset {
        CensusDataset::new(
            1871,
            vec![
                rec(0, 0, "john", "ashworth", Role::Head),
                rec(1, 0, "william", "ashworth", Role::Son),
                rec(2, 1, "john", "smith", Role::Head),
            ],
            vec![
                Household::new(HouseholdId(0), vec![RecordId(0), RecordId(1)]),
                Household::new(HouseholdId(1), vec![RecordId(2)]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn valid_dataset_builds() {
        let d = valid();
        assert_eq!(d.record_count(), 3);
        assert_eq!(d.household_count(), 2);
        assert_eq!(d.record(RecordId(1)).unwrap().first_name, "william");
        assert_eq!(d.record(RecordId(2)).unwrap().household, HouseholdId(1));
        assert_eq!(d.members(HouseholdId(0)).count(), 2);
    }

    #[test]
    fn duplicate_record_rejected() {
        let e = CensusDataset::new(
            1871,
            vec![
                rec(0, 0, "a", "b", Role::Head),
                rec(0, 0, "c", "d", Role::Son),
            ],
            vec![Household::new(HouseholdId(0), vec![RecordId(0)])],
        )
        .unwrap_err();
        assert!(matches!(e, ModelError::DuplicateRecord(_)));
    }

    #[test]
    fn unknown_household_rejected() {
        let e = CensusDataset::new(
            1871,
            vec![rec(0, 9, "a", "b", Role::Head)],
            vec![Household::new(HouseholdId(0), vec![])],
        )
        .unwrap_err();
        assert!(matches!(e, ModelError::UnknownHousehold { .. }));
    }

    #[test]
    fn membership_must_be_listed() {
        // record says household 0, but household 0 does not list it
        let e = CensusDataset::new(
            1871,
            vec![rec(0, 0, "a", "b", Role::Head)],
            vec![Household::new(HouseholdId(0), vec![])],
        )
        .unwrap_err();
        assert!(matches!(e, ModelError::MembershipMismatch(_)));
    }

    #[test]
    fn member_of_two_households_rejected() {
        let e = CensusDataset::new(
            1871,
            vec![rec(0, 0, "a", "b", Role::Head)],
            vec![
                Household::new(HouseholdId(0), vec![RecordId(0)]),
                Household::new(HouseholdId(1), vec![RecordId(0)]),
            ],
        )
        .unwrap_err();
        assert!(matches!(e, ModelError::MembershipMismatch(_)));
    }

    #[test]
    fn serde_round_trip_requires_index_rebuild() {
        let d = valid();
        let json = serde_json::to_string(&d).unwrap();
        let mut back: CensusDataset = serde_json::from_str(&json).unwrap();
        // indices are skipped by serde: lookups are empty until rebuilt
        assert!(back.record(RecordId(0)).is_none());
        back.rebuild_indices();
        assert_eq!(back.record(RecordId(0)).unwrap().first_name, "john");
        assert_eq!(back.record(RecordId(2)).unwrap().household, HouseholdId(1));
    }

    #[test]
    fn missing_record_lookup_is_none() {
        let d = valid();
        assert!(d.record(RecordId(99)).is_none());
        assert!(d.household(HouseholdId(99)).is_none());
    }
}
