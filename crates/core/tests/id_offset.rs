//! Metamorphic suite: record ids are opaque labels. Offsetting every
//! record id of both snapshots by a constant — here 2^40, far beyond any
//! dense id space — must yield the same mapping, shifted by the same
//! offset, on the incremental, recompute and parallel paths.

mod common;

use census_model::{CensusDataset, Household, PersonRecord, RecordId};
use common::small_series;
use linkage_core::{link, LinkageConfig, LinkageResult};
use std::collections::BTreeSet;

const OFFSET: u64 = 1 << 40;

fn shifted(d: &CensusDataset) -> CensusDataset {
    let records: Vec<PersonRecord> = d
        .records()
        .iter()
        .map(|r| PersonRecord {
            id: RecordId(r.id.raw() + OFFSET),
            ..r.clone()
        })
        .collect();
    let households = d
        .households()
        .iter()
        .map(|h| {
            Household::new(
                h.id,
                h.members
                    .iter()
                    .map(|m| RecordId(m.raw() + OFFSET))
                    .collect(),
            )
        })
        .collect();
    CensusDataset::new(d.year, records, households).expect("shifted dataset stays valid")
}

type Links = (BTreeSet<(u64, u64)>, BTreeSet<(u64, u64)>);

fn links(r: &LinkageResult, offset: u64) -> Links {
    (
        r.records
            .iter()
            .map(|(o, n)| (o.raw() - offset, n.raw() - offset))
            .collect(),
        r.groups.iter().map(|(o, n)| (o.raw(), n.raw())).collect(),
    )
}

#[test]
fn offsetting_record_ids_shifts_the_mapping() {
    let series = small_series();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let (old_s, new_s) = (shifted(old), shifted(new));
    let base = LinkageConfig::default();
    for (name, config) in [
        ("incremental", base.clone()),
        (
            "recompute",
            LinkageConfig {
                incremental: false,
                ..base.clone()
            },
        ),
        (
            "parallel",
            LinkageConfig {
                threads: 4,
                parallel_cutoff: 0,
                ..base.clone()
            },
        ),
    ] {
        let plain = link(old, new, &config);
        let offset = link(&old_s, &new_s, &config);
        assert!(!plain.records.is_empty(), "{name}: nothing linked");
        assert_eq!(links(&plain, 0), links(&offset, OFFSET), "{name}");
        assert_eq!(plain.remainder_links, offset.remainder_links, "{name}");
        assert_eq!(plain.iterations, offset.iterations, "{name}");
    }
}
