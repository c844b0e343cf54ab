//! Detection of record and group evolution patterns for one snapshot
//! pair (§4.1).

use census_model::{CensusDataset, GroupMapping, HouseholdId, RecordMapping};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// The type assigned to one group link (or unlinked household).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum GroupPatternKind {
    /// 1:1 strong link with ≥ 2 preserved members on a household pair
    /// that is neither side of a split nor a merge.
    Preserve,
    /// Link with exactly one preserved member: that person moved.
    Move,
    /// Strong link that is part of a split (old household has ≥ 2 strong
    /// links).
    Split,
    /// Strong link that is part of a merge (new household has ≥ 2 strong
    /// links).
    Merge,
}

/// Aggregated pattern counts for one snapshot pair — one bar group of the
/// paper's Fig. 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PatternCounts {
    /// Preserved individuals (`preserve_R`).
    pub preserve_r: usize,
    /// Newly appearing individuals (`add_R`).
    pub add_r: usize,
    /// Disappearing individuals (`remove_R`).
    pub remove_r: usize,
    /// Preserved households (`preserve_G`).
    pub preserve_g: usize,
    /// Newly appearing households (`add_G`).
    pub add_g: usize,
    /// Disappearing households (`remove_G`).
    pub remove_g: usize,
    /// Individual moves between households (`move`).
    pub moves: usize,
    /// Households splitting into several (`split`), counted once per
    /// splitting old household.
    pub splits: usize,
    /// Households merging into one (`merge`), counted once per merged new
    /// household.
    pub merges: usize,
}

/// Full pattern detection result for one snapshot pair.
#[derive(Debug, Clone, Default)]
pub struct PairPatterns {
    /// Aggregated counts.
    pub counts: PatternCounts,
    /// Every group link with its pattern kind and shared-member count.
    pub group_links: Vec<(HouseholdId, HouseholdId, GroupPatternKind, usize)>,
    /// Households of the old census with no link (`remove_G`).
    pub removed_groups: Vec<HouseholdId>,
    /// Households of the new census with no link (`add_G`).
    pub added_groups: Vec<HouseholdId>,
    /// Old households that split, with their strong-link partners.
    pub splits: Vec<(HouseholdId, Vec<HouseholdId>)>,
    /// New households that merged, with their strong-link sources.
    pub merges: Vec<(Vec<HouseholdId>, HouseholdId)>,
}

/// Detect all evolution patterns for one linked snapshot pair.
#[must_use]
pub fn detect_patterns(
    old: &CensusDataset,
    new: &CensusDataset,
    records: &RecordMapping,
    groups: &GroupMapping,
) -> PairPatterns {
    let mut out = PairPatterns::default();

    // record patterns
    out.counts.preserve_r = records.len();
    out.counts.remove_r = old
        .records()
        .iter()
        .filter(|r| !records.contains_old(r.id))
        .count();
    out.counts.add_r = new
        .records()
        .iter()
        .filter(|r| !records.contains_new(r.id))
        .count();

    // shared preserved members per group link
    let mut shared: HashMap<(HouseholdId, HouseholdId), usize> = HashMap::new();
    for (go, gn) in groups.iter() {
        shared.insert((go, gn), 0);
    }
    for (o, n) in records.iter() {
        let (Some(ro), Some(rn)) = (old.record(o), new.record(n)) else {
            continue;
        };
        if let Some(c) = shared.get_mut(&(ro.household, rn.household)) {
            *c += 1;
        }
    }

    // strong-link degrees
    let mut strong_out: HashMap<HouseholdId, Vec<HouseholdId>> = HashMap::new();
    let mut strong_in: HashMap<HouseholdId, Vec<HouseholdId>> = HashMap::new();
    for (&(go, gn), &s) in &shared {
        if s >= 2 {
            strong_out.entry(go).or_default().push(gn);
            strong_in.entry(gn).or_default().push(go);
        }
    }

    // classify every group link
    let mut links: Vec<_> = shared.iter().map(|(&k, &s)| (k, s)).collect();
    links.sort();
    for ((go, gn), s) in links {
        let kind = if s >= 2 {
            let split = strong_out.get(&go).is_some_and(|v| v.len() >= 2);
            let merge = strong_in.get(&gn).is_some_and(|v| v.len() >= 2);
            match (split, merge) {
                (true, _) => GroupPatternKind::Split,
                (false, true) => GroupPatternKind::Merge,
                (false, false) => GroupPatternKind::Preserve,
            }
        } else {
            GroupPatternKind::Move
        };
        match kind {
            GroupPatternKind::Preserve => out.counts.preserve_g += 1,
            GroupPatternKind::Move => out.counts.moves += 1,
            GroupPatternKind::Split | GroupPatternKind::Merge => {}
        }
        out.group_links.push((go, gn, kind, s));
    }

    // split / merge instances (counted once per household)
    let mut splits: Vec<_> = strong_out
        .iter()
        .filter(|(_, v)| v.len() >= 2)
        .map(|(&go, v)| {
            let mut targets = v.clone();
            targets.sort();
            (go, targets)
        })
        .collect();
    splits.sort();
    out.counts.splits = splits.len();
    out.splits = splits;

    let mut merges: Vec<_> = strong_in
        .iter()
        .filter(|(_, v)| v.len() >= 2)
        .map(|(&gn, v)| {
            let mut sources = v.clone();
            sources.sort();
            (sources, gn)
        })
        .collect();
    merges.sort();
    out.counts.merges = merges.len();
    out.merges = merges;

    // add_G / remove_G
    out.removed_groups = old
        .households()
        .iter()
        .map(|h| h.id)
        .filter(|&g| !groups.contains_old(g))
        .collect();
    // one pass over the pairs: `contains_new` scans them, so calling it
    // per new household would make this loop quadratic
    let linked_new: HashSet<HouseholdId> = groups.iter().map(|(_, n)| n).collect();
    out.added_groups = new
        .households()
        .iter()
        .map(|h| h.id)
        .filter(|g| !linked_new.contains(g))
        .collect();
    out.counts.remove_g = out.removed_groups.len();
    out.counts.add_g = out.added_groups.len();

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use census_model::{Household, PersonRecord, RecordId, Role, Sex};

    /// Build the paper's running example (Fig. 1 / Fig. 5a):
    /// 1871: g_a = {john, elizabeth, alice, william, riley},
    ///       g_b = {john s, elizabeth s, steve}
    /// 1881: g_a = {john, elizabeth, william}, g_b = {john s, elizabeth s,
    ///       mary}, g_c = {steve, alice}, g_d = {john2, elizabeth2, william2}
    fn running_example() -> (CensusDataset, CensusDataset, RecordMapping, GroupMapping) {
        let rec = |id: u64, hh: u64, name: &str| {
            let mut r = PersonRecord::empty(RecordId(id), HouseholdId(hh), Role::Head);
            r.first_name = name.into();
            r.sex = Some(Sex::Male);
            r.age = Some(30);
            r
        };
        let old_records: Vec<PersonRecord> = vec![
            rec(1, 0, "john"),
            rec(2, 0, "elizabeth"),
            rec(3, 0, "alice"),
            rec(4, 0, "william"),
            rec(5, 0, "riley"),
            rec(6, 1, "john s"),
            rec(7, 1, "elizabeth s"),
            rec(8, 1, "steve"),
        ];
        let old_hh = vec![
            Household::new(HouseholdId(0), (1..=5).map(RecordId).collect()),
            Household::new(HouseholdId(1), (6..=8).map(RecordId).collect()),
        ];
        let old = CensusDataset::new(1871, old_records, old_hh).unwrap();

        let new_records: Vec<PersonRecord> = vec![
            rec(1, 0, "john"),
            rec(2, 0, "elizabeth"),
            rec(3, 0, "william"),
            rec(4, 1, "john s"),
            rec(5, 1, "elizabeth s"),
            rec(8, 1, "mary"),
            rec(6, 2, "steve"),
            rec(7, 2, "alice"),
            rec(9, 3, "john2"),
            rec(10, 3, "elizabeth2"),
            rec(11, 3, "william2"),
        ];
        let new_hh = vec![
            Household::new(HouseholdId(0), vec![RecordId(1), RecordId(2), RecordId(3)]),
            Household::new(HouseholdId(1), vec![RecordId(4), RecordId(5), RecordId(8)]),
            Household::new(HouseholdId(2), vec![RecordId(6), RecordId(7)]),
            Household::new(
                HouseholdId(3),
                vec![RecordId(9), RecordId(10), RecordId(11)],
            ),
        ];
        let new = CensusDataset::new(1881, new_records, new_hh).unwrap();

        // the 7 person links of the paper
        let records = RecordMapping::from_pairs([
            (RecordId(1), RecordId(1)),
            (RecordId(2), RecordId(2)),
            (RecordId(4), RecordId(3)),
            (RecordId(3), RecordId(7)), // alice moved
            (RecordId(6), RecordId(4)),
            (RecordId(7), RecordId(5)),
            (RecordId(8), RecordId(6)), // steve moved
        ])
        .unwrap();
        let groups: GroupMapping = [
            (HouseholdId(0), HouseholdId(0)),
            (HouseholdId(0), HouseholdId(2)),
            (HouseholdId(1), HouseholdId(1)),
            (HouseholdId(1), HouseholdId(2)),
        ]
        .into_iter()
        .collect();
        (old, new, records, groups)
    }

    #[test]
    fn fig5a_record_counts() {
        let (old, new, records, groups) = running_example();
        let p = detect_patterns(&old, &new, &records, &groups);
        assert_eq!(p.counts.preserve_r, 7);
        assert_eq!(p.counts.add_r, 4); // mary + household d's three
        assert_eq!(p.counts.remove_r, 1); // riley
    }

    #[test]
    fn fig5a_group_patterns() {
        let (old, new, records, groups) = running_example();
        let p = detect_patterns(&old, &new, &records, &groups);
        assert_eq!(p.counts.preserve_g, 2, "g_a and g_b preserved");
        assert_eq!(p.counts.moves, 2, "alice and steve moved to g_c");
        assert_eq!(p.counts.add_g, 1, "g_d appeared");
        assert_eq!(p.counts.remove_g, 0);
        assert_eq!(p.counts.splits, 0);
        assert_eq!(p.counts.merges, 0);
    }

    #[test]
    fn split_detection() {
        // one old household of 4, splitting into two new households of 2
        let rec = |id: u64, hh: u64| {
            let mut r = PersonRecord::empty(RecordId(id), HouseholdId(hh), Role::Head);
            r.age = Some(30);
            r
        };
        let old = CensusDataset::new(
            1871,
            (0..4).map(|i| rec(i, 0)).collect(),
            vec![Household::new(
                HouseholdId(0),
                (0..4).map(RecordId).collect(),
            )],
        )
        .unwrap();
        let new = CensusDataset::new(
            1881,
            (0..4).map(|i| rec(i, if i < 2 { 0 } else { 1 })).collect(),
            vec![
                Household::new(HouseholdId(0), vec![RecordId(0), RecordId(1)]),
                Household::new(HouseholdId(1), vec![RecordId(2), RecordId(3)]),
            ],
        )
        .unwrap();
        let records =
            RecordMapping::from_pairs((0..4).map(|i| (RecordId(i), RecordId(i)))).unwrap();
        let groups: GroupMapping = [
            (HouseholdId(0), HouseholdId(0)),
            (HouseholdId(0), HouseholdId(1)),
        ]
        .into_iter()
        .collect();
        let p = detect_patterns(&old, &new, &records, &groups);
        assert_eq!(p.counts.splits, 1);
        assert_eq!(p.counts.preserve_g, 0);
        assert_eq!(p.counts.moves, 0);
        assert_eq!(
            p.splits,
            vec![(HouseholdId(0), vec![HouseholdId(0), HouseholdId(1)])]
        );
        // both strong links are typed Split
        assert!(p
            .group_links
            .iter()
            .all(|&(_, _, k, _)| k == GroupPatternKind::Split));
    }

    #[test]
    fn merge_detection() {
        // mirror image: two old households of 2 merge into one of 4
        let rec = |id: u64, hh: u64| {
            let mut r = PersonRecord::empty(RecordId(id), HouseholdId(hh), Role::Head);
            r.age = Some(30);
            r
        };
        let old = CensusDataset::new(
            1871,
            (0..4).map(|i| rec(i, if i < 2 { 0 } else { 1 })).collect(),
            vec![
                Household::new(HouseholdId(0), vec![RecordId(0), RecordId(1)]),
                Household::new(HouseholdId(1), vec![RecordId(2), RecordId(3)]),
            ],
        )
        .unwrap();
        let new = CensusDataset::new(
            1881,
            (0..4).map(|i| rec(i, 0)).collect(),
            vec![Household::new(
                HouseholdId(0),
                (0..4).map(RecordId).collect(),
            )],
        )
        .unwrap();
        let records =
            RecordMapping::from_pairs((0..4).map(|i| (RecordId(i), RecordId(i)))).unwrap();
        let groups: GroupMapping = [
            (HouseholdId(0), HouseholdId(0)),
            (HouseholdId(1), HouseholdId(0)),
        ]
        .into_iter()
        .collect();
        let p = detect_patterns(&old, &new, &records, &groups);
        assert_eq!(p.counts.merges, 1);
        assert_eq!(
            p.merges,
            vec![(vec![HouseholdId(0), HouseholdId(1)], HouseholdId(0))]
        );
        assert_eq!(p.counts.preserve_g, 0);
    }

    #[test]
    fn empty_mappings_everything_added_and_removed() {
        let (old, new, _, _) = running_example();
        let p = detect_patterns(&old, &new, &RecordMapping::new(), &GroupMapping::new());
        assert_eq!(p.counts.preserve_r, 0);
        assert_eq!(p.counts.remove_r, old.record_count());
        assert_eq!(p.counts.add_r, new.record_count());
        assert_eq!(p.counts.remove_g, old.household_count());
        assert_eq!(p.counts.add_g, new.household_count());
    }

    #[test]
    fn group_link_without_shared_records_is_move_like_zero() {
        // a group link in M_G with no record link gets shared = 0; it is
        // classified Move (degenerate) but with shared count 0 visible
        let (old, new, _, groups) = running_example();
        let p = detect_patterns(&old, &new, &RecordMapping::new(), &groups);
        assert!(p
            .group_links
            .iter()
            .all(|&(_, _, k, s)| k == GroupPatternKind::Move && s == 0));
    }
}
