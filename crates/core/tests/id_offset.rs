//! Metamorphic suite: record and household ids are opaque labels.
//! Relabelling them must yield the same mapping, relabelled the same way,
//! on the cache-served, recompute (zero budget) and parallel paths:
//! - offsetting every record id of both snapshots by a constant — here
//!   2^40, far beyond any dense id space;
//! - offsetting every household id by the same constant;
//! - renaming households by a bijection that scrambles their id order.

mod common;

use census_model::{CensusDataset, Household, HouseholdId, PersonRecord, RecordId};
use common::small_series;
use linkage_core::{link, LinkageConfig, LinkageResult};
use std::collections::BTreeSet;

const OFFSET: u64 = 1 << 40;

/// A relabelling of both snapshots: one map for record ids, one for
/// household ids, each with its inverse.
struct Relabel {
    name: &'static str,
    record: fn(u64) -> u64,
    record_back: fn(u64) -> u64,
    household: fn(u64) -> u64,
    household_back: fn(u64) -> u64,
}

fn same(id: u64) -> u64 {
    id
}

fn offset(id: u64) -> u64 {
    id + OFFSET
}

fn unoffset(id: u64) -> u64 {
    id - OFFSET
}

/// An involution that reverses id order within each block of 2048 ids
/// (all of a small town's households), so households are visited in
/// another order.
fn scramble(id: u64) -> u64 {
    id ^ 0x7ff
}

const RELABELS: [Relabel; 3] = [
    Relabel {
        name: "record ids + 2^40",
        record: offset,
        record_back: unoffset,
        household: same,
        household_back: same,
    },
    Relabel {
        name: "household ids + 2^40",
        record: same,
        record_back: same,
        household: offset,
        household_back: unoffset,
    },
    Relabel {
        name: "households renamed",
        record: same,
        record_back: same,
        household: scramble,
        household_back: scramble,
    },
];

fn relabelled(d: &CensusDataset, map: &Relabel) -> CensusDataset {
    let records: Vec<PersonRecord> = d
        .records()
        .iter()
        .map(|r| PersonRecord {
            id: RecordId((map.record)(r.id.raw())),
            household: HouseholdId((map.household)(r.household.raw())),
            ..r.clone()
        })
        .collect();
    let households = d
        .households()
        .iter()
        .map(|h| {
            Household::new(
                HouseholdId((map.household)(h.id.raw())),
                h.members
                    .iter()
                    .map(|m| RecordId((map.record)(m.raw())))
                    .collect(),
            )
        })
        .collect();
    CensusDataset::new(d.year, records, households).expect("relabelled dataset stays valid")
}

type Links = (BTreeSet<(u64, u64)>, BTreeSet<(u64, u64)>);

/// The record and group links of `r`, mapped back through `map`'s
/// inverses.
fn links(r: &LinkageResult, map: &Relabel) -> Links {
    let (rb, hb) = (map.record_back, map.household_back);
    (
        r.records
            .iter()
            .map(|(o, n)| (rb(o.raw()), rb(n.raw())))
            .collect(),
        r.groups
            .iter()
            .map(|(o, n)| (hb(o.raw()), hb(n.raw())))
            .collect(),
    )
}

const IDENTITY: Relabel = Relabel {
    name: "identity",
    record: same,
    record_back: same,
    household: same,
    household_back: same,
};

/// Link the small series' first pair plainly and under each of `maps`,
/// on the served, recompute and parallel paths, and require equal
/// mappings after mapping ids back.
fn assert_invariant_under(maps: &[Relabel]) {
    let series = small_series();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let base = LinkageConfig::default();
    for (path, config) in [
        ("served", base.clone()),
        (
            "recompute",
            LinkageConfig {
                memory_budget: Some(0),
                ..base.clone()
            },
        ),
        (
            "parallel",
            LinkageConfig {
                threads: 4,
                ..base.clone()
            },
        ),
    ] {
        let plain = link(old, new, &config);
        assert!(!plain.records.is_empty(), "{path}: nothing linked");
        let want = links(&plain, &IDENTITY);
        for map in maps {
            let got = link(&relabelled(old, map), &relabelled(new, map), &config);
            let label = format!("{path}, {}", map.name);
            assert_eq!(links(&got, map), want, "{label}");
            assert_eq!(plain.remainder_links, got.remainder_links, "{label}");
            assert_eq!(plain.iterations, got.iterations, "{label}");
        }
    }
}

#[test]
fn offsetting_record_ids_shifts_the_mapping() {
    assert_invariant_under(&RELABELS[..1]);
}

#[test]
fn offsetting_or_renaming_households_relabels_the_mapping() {
    assert_invariant_under(&RELABELS[1..]);
}
