//! Cross-validation between the simulator's event log and the evolution
//! analysis: when the detector runs on *ground-truth* mappings, the
//! patterns it reports must explain the events the simulator actually
//! performed.

use temporal_census_linkage::prelude::*;
use temporal_census_linkage::synth::LifeEvent;

fn series() -> CensusSeries {
    let mut config = SimConfig::small();
    config.initial_households = 250;
    config.snapshots = 3;
    generate_series(&config)
}

#[test]
fn deaths_and_births_bound_record_patterns() {
    let series = series();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let truth = series.truth_between(0, 1).unwrap();
    let patterns = detect_patterns(old, new, &truth.records, &truth.groups);

    // deaths are stamped with the end-of-step year; births carry their
    // true birth year inside the decade
    let window = |e: &LifeEvent| e.year() > old.year && e.year() <= new.year;
    let deaths = series
        .events
        .all()
        .iter()
        .filter(|e| matches!(e, LifeEvent::Death { .. }) && window(e))
        .count();
    let births = series
        .events
        .all()
        .iter()
        .filter(|e| matches!(e, LifeEvent::Birth { .. }) && window(e))
        .count();
    // every removed record is explained by a death or an emigration;
    // deaths alone cannot exceed the removals of people present at the
    // old census — but some deaths hit people born after it, so use the
    // forgiving direction: removals ≥ deaths of old-census people is hard
    // to count exactly; instead check orders of magnitude
    assert!(
        patterns.counts.remove_r >= deaths / 2,
        "removals {} vs deaths {deaths}",
        patterns.counts.remove_r
    );
    assert!(
        patterns.counts.add_r >= births / 2,
        "additions {} vs births {births}",
        patterns.counts.add_r
    );
}

#[test]
fn subfamily_departures_appear_as_splits_or_moves() {
    // every logged sub-family departure between the two censuses whose
    // members survive to the new census must surface as a truth-level
    // group link between the old parental household and the new household
    let series = series();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let truth = series.truth_between(0, 1).unwrap();

    // person -> old/new snapshot household
    let old_home: std::collections::HashMap<_, _> = old
        .records()
        .iter()
        .map(|r| (r.truth.unwrap(), r.household))
        .collect();
    let new_home: std::collections::HashMap<_, _> = new
        .records()
        .iter()
        .map(|r| (r.truth.unwrap(), r.household))
        .collect();

    let mut checked = 0;
    for e in series.events.all() {
        let LifeEvent::SubfamilyDeparture { year, members, .. } = e else {
            continue;
        };
        if !(old.year < *year && *year <= new.year) {
            continue;
        }
        // members observed in both censuses
        let survivors: Vec<_> = members
            .iter()
            .filter(|m| old_home.contains_key(m) && new_home.contains_key(m))
            .collect();
        if survivors.len() < 2 {
            continue; // too few survivors to be visible as a split
        }
        // they must all have left their old household together...
        let from = old_home[survivors[0]];
        let to = new_home[survivors[0]];
        if survivors.iter().any(|m| new_home[*m] != to) {
            continue; // a later event (death split them up) intervened
        }
        assert!(
            truth.groups.contains(from, to),
            "departure of {survivors:?} ({from} → {to}) missing from truth groups"
        );
        checked += 1;
    }
    assert!(checked > 0, "no checkable departures in the window");
}

#[test]
fn household_emigrations_become_remove_g() {
    let series = series();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let truth = series.truth_between(0, 1).unwrap();
    let patterns = detect_patterns(old, new, &truth.records, &truth.groups);
    let removed: std::collections::HashSet<_> = patterns.removed_groups.iter().copied().collect();

    // map world households to snapshot households via any member present
    // in the old census
    let old_home: std::collections::HashMap<_, _> = old
        .records()
        .iter()
        .map(|r| (r.truth.unwrap(), r.household))
        .collect();
    let mut checked = 0;
    for e in series.events.all() {
        let LifeEvent::HouseholdEmigrated { year, members, .. } = e else {
            continue;
        };
        if !(old.year < *year && *year <= new.year) {
            continue;
        }
        // find the snapshot household the emigrants lived in at the old
        // census (they may have moved between census and departure —
        // only check households whose members all lived together)
        let homes: std::collections::HashSet<_> = members
            .iter()
            .filter_map(|m| old_home.get(m))
            .copied()
            .collect();
        if homes.len() != 1 {
            continue;
        }
        let home = *homes.iter().next().unwrap();
        // if NO member of that snapshot household exists in the new
        // census, it must be a remove_G
        let any_survivor = old
            .members(home)
            .any(|r| new.records().iter().any(|x| x.truth == r.truth));
        if !any_survivor {
            assert!(
                removed.contains(&home),
                "fully emigrated household {home} not reported as remove_G"
            );
            checked += 1;
        }
    }
    assert!(checked > 0, "no checkable emigrations in the window");
}

#[test]
fn marriages_explain_surname_changes() {
    let series = series();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let truth = series.truth_between(0, 1).unwrap();

    // brides married in the window
    let brides: std::collections::HashSet<_> = series
        .events
        .all()
        .iter()
        .filter_map(|e| match e {
            // decade events are stamped with the end-of-step year
            LifeEvent::Marriage { year, wife, .. } if *year > old.year && *year <= new.year => {
                Some(*wife)
            }
            _ => None,
        })
        .collect();

    // every truth-linked woman whose *true* surname changed must be a
    // bride (noise can also corrupt surnames, so compare modulo noise by
    // requiring a clean-ish change: both sides non-empty and different)
    let mut bride_changes = 0;
    let mut nonbride_changes = 0;
    for (o, n) in truth.records.iter() {
        let ro = old.record(o).unwrap();
        let rn = new.record(n).unwrap();
        if ro.sex != Some(Sex::Female) {
            continue;
        }
        if ro.surname.is_empty() || rn.surname.is_empty() || ro.surname == rn.surname {
            continue;
        }
        // ignore single-typo noise: require a big difference
        if textsim::qgram_similarity(&ro.surname, &rn.surname, 2) > 0.55 {
            continue;
        }
        let pid = ro.truth.unwrap();
        if brides.contains(&pid) {
            bride_changes += 1;
        } else {
            nonbride_changes += 1;
        }
    }
    assert!(bride_changes > 0, "expected some marriages in the window");
    assert!(
        nonbride_changes <= bride_changes / 4 + 2,
        "too many unexplained surname changes: {nonbride_changes} vs {bride_changes} brides"
    );
}
