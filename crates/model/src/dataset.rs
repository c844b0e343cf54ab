//! Census snapshots `D_i = (R_i, G_i)`.

use crate::{DatasetStats, Household, HouseholdId, ModelError, PersonRecord, RecordId};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
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
        let mut household_index = HashMap::with_capacity(households.len());
        for (i, h) in households.iter().enumerate() {
            if household_index.insert(h.id, i).is_some() {
                return Err(ModelError::DuplicateHousehold(h.id.to_string()));
            }
        }
        let ds = Self {
            year,
            records,
            households,
            record_index,
            household_index,
        };
        ds.check_membership()?;
        Ok(ds)
    }

    /// A snapshot whose `households` the caller grouped from `records`
    /// themselves: each record's id appended, once, to the members of the
    /// household its own field names, in record order. The indexes map
    /// each of the unique record and household ids to its position. The
    /// membership invariants of [`CensusDataset::new`] then hold by
    /// construction, so only debug builds check them.
    pub(crate) fn grouped(
        year: i32,
        records: Vec<PersonRecord>,
        households: Vec<Household>,
        record_index: HashMap<RecordId, usize>,
        household_index: HashMap<HouseholdId, usize>,
    ) -> Self {
        let ds = Self {
            year,
            records,
            households,
            record_index,
            household_index,
        };
        debug_assert_eq!(ds.record_index.len(), ds.records.len());
        debug_assert_eq!(ds.household_index.len(), ds.households.len());
        debug_assert!(ds.check_membership().is_ok());
        ds
    }

    /// Every record's household exists and lists it, and every member id
    /// names a record of that household, listed once. Linear in the
    /// records: a record's membership is one probe, not a scan of its
    /// household, which for an institution lists thousands.
    fn check_membership(&self) -> Result<(), ModelError> {
        let (records, households) = (&self.records, &self.households);
        // the household listing each member id (the first, if several do)
        let mut listed_in: HashMap<RecordId, HouseholdId> = HashMap::with_capacity(records.len());
        let mut listed_twice = false;
        for h in households {
            for &m in &h.members {
                match listed_in.entry(m) {
                    Entry::Occupied(_) => listed_twice = true,
                    Entry::Vacant(slot) => {
                        slot.insert(h.id);
                    }
                }
            }
        }
        for r in records {
            let Some(&hi) = self.household_index.get(&r.household) else {
                return Err(ModelError::UnknownHousehold {
                    record: r.id.to_string(),
                    household: r.household.to_string(),
                });
            };
            // an id listed twice fails below; until then a record passes
            // when any of its listings is its own household's
            let listed = listed_in.get(&r.id) == Some(&r.household)
                || listed_twice && households[hi].contains(r.id);
            if !listed {
                return Err(ModelError::MembershipMismatch(r.id.to_string()));
            }
        }
        // the first listing of an id takes it out of the map, so a second
        // finds it gone
        for h in households {
            for &m in &h.members {
                let Some(&ri) = self.record_index.get(&m) else {
                    return Err(ModelError::MembershipMismatch(m.to_string()));
                };
                if records[ri].household != h.id || listed_in.remove(&m).is_none() {
                    return Err(ModelError::MembershipMismatch(m.to_string()));
                }
            }
        }
        Ok(())
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
    use std::collections::HashMap;

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

    /// The former validation, which scanned a record's household for
    /// each record: the error it reports, if any, as text.
    fn quadratic_oracle(records: &[PersonRecord], households: &[Household]) -> Option<String> {
        let mut record_index = HashMap::new();
        for (i, r) in records.iter().enumerate() {
            if record_index.insert(r.id, i).is_some() {
                return Some(ModelError::DuplicateRecord(r.id.to_string()).to_string());
            }
        }
        let mut household_index = HashMap::new();
        for (i, h) in households.iter().enumerate() {
            if household_index.insert(h.id, i).is_some() {
                return Some(ModelError::DuplicateHousehold(h.id.to_string()).to_string());
            }
        }
        for r in records {
            let Some(&hi) = household_index.get(&r.household) else {
                let (record, household) = (r.id.to_string(), r.household.to_string());
                return Some(ModelError::UnknownHousehold { record, household }.to_string());
            };
            if !households[hi].contains(r.id) {
                return Some(ModelError::MembershipMismatch(r.id.to_string()).to_string());
            }
        }
        let mut seen = HashMap::new();
        for h in households {
            for &m in &h.members {
                let bad = record_index
                    .get(&m)
                    .is_none_or(|&ri| records[ri].household != h.id)
                    || seen.insert(m, h.id).is_some();
                if bad {
                    return Some(ModelError::MembershipMismatch(m.to_string()).to_string());
                }
            }
        }
        None
    }

    fn hh(id: u64, members: &[u64]) -> Household {
        Household::new(
            HouseholdId(id),
            members.iter().map(|&m| RecordId(m)).collect(),
        )
    }

    /// Build `records` into `households` and check the outcome against
    /// the former quadratic validation, error text included.
    fn build_like_the_oracle(
        records: Vec<PersonRecord>,
        households: Vec<Household>,
    ) -> Result<CensusDataset, ModelError> {
        let want = quadratic_oracle(&records, &households);
        let got = CensusDataset::new(1871, records, households);
        assert_eq!(got.as_ref().err().map(ToString::to_string), want);
        got
    }

    #[test]
    fn duplicate_household_rejected() {
        let e = build_like_the_oracle(
            vec![rec(0, 0, "a", "b", Role::Head)],
            vec![hh(0, &[0]), hh(0, &[])],
        )
        .unwrap_err();
        assert!(matches!(e, ModelError::DuplicateHousehold(_)), "{e:?}");
    }

    #[test]
    fn unknown_household_wins_over_a_later_membership_fault() {
        // record 1 names a missing household; household 0 also lists a
        // record that does not exist
        let e = build_like_the_oracle(
            vec![
                rec(0, 0, "a", "b", Role::Head),
                rec(1, 9, "c", "d", Role::Son),
            ],
            vec![hh(0, &[0, 7])],
        )
        .unwrap_err();
        assert!(matches!(e, ModelError::UnknownHousehold { .. }), "{e:?}");
    }

    #[test]
    fn every_membership_fault_is_a_mismatch() {
        let two = || {
            vec![
                rec(0, 0, "a", "b", Role::Head),
                rec(1, 1, "c", "d", Role::Head),
            ]
        };
        let cases: [(&str, Vec<Household>); 6] = [
            ("record not listed", vec![hh(0, &[0]), hh(1, &[])]),
            (
                "listed by the wrong household",
                vec![hh(0, &[0, 1]), hh(1, &[])],
            ),
            (
                "listed twice in one household",
                vec![hh(0, &[0, 0]), hh(1, &[1])],
            ),
            (
                "listed by two households",
                vec![hh(0, &[0]), hh(1, &[1, 0])],
            ),
            (
                "listed first by the other household",
                vec![hh(1, &[0, 1]), hh(0, &[0])],
            ),
            ("member without a record", vec![hh(0, &[0]), hh(1, &[1, 5])]),
        ];
        for (what, households) in cases {
            let e = build_like_the_oracle(two(), households).unwrap_err();
            assert!(
                matches!(e, ModelError::MembershipMismatch(_)),
                "{what}: {e:?}"
            );
        }
        // a record listed by its own household and, earlier, by another
        // passes the record check, as it did; the first fault is then a
        // member without a record, further on
        let records = vec![
            rec(5, 2, "a", "b", Role::Head),
            rec(0, 0, "c", "d", Role::Head),
            rec(1, 1, "e", "f", Role::Head),
        ];
        let households = vec![hh(2, &[5, 9]), hh(1, &[0, 1]), hh(0, &[0])];
        let e = build_like_the_oracle(records, households).unwrap_err();
        assert!(
            matches!(e, ModelError::MembershipMismatch(ref id) if id == "r9"),
            "{e:?}"
        );
    }

    /// An institution of 3,000 members validates in linear time, and a
    /// fault at its far end is still found.
    #[test]
    fn institution_sized_household_validates() {
        const MEMBERS: u64 = 3_000;
        let records = || -> Vec<PersonRecord> {
            (0..MEMBERS)
                .map(|i| {
                    rec(
                        i,
                        0,
                        "a",
                        "b",
                        if i == 0 { Role::Head } else { Role::Lodger },
                    )
                })
                .collect()
        };
        let all: Vec<u64> = (0..MEMBERS).collect();
        let d = build_like_the_oracle(records(), vec![hh(0, &all)]).unwrap();
        assert_eq!(d.household(HouseholdId(0)).unwrap().size(), 3_000);
        let e = build_like_the_oracle(records(), vec![hh(0, &all[..all.len() - 1])]).unwrap_err();
        assert!(
            matches!(e, ModelError::MembershipMismatch(ref id) if id == "r2999"),
            "{e:?}"
        );
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
