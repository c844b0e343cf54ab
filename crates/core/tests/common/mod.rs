//! Shared generate→link→compare scaffolding for the differential
//! suites (`incremental_vs_recompute`, `mem_budget`,
//! `parallel_vs_serial`, `prematch_oracle`).
//!
//! Each suite pits two driver configurations against each other on the
//! same synthetic corpus and demands **bit-identical** output. The
//! comparison and canonicalization helpers live here so every suite
//! states its claim the same way: same record links, same group links,
//! same provenance δs and g_sims, same per-iteration stats, same
//! remainder count. [`oracle_pair_sims`] is the pair-at-a-time scoring
//! oracle the production batch kernel is checked against.

#![allow(dead_code)] // each test binary uses a subset of the helpers

use census_model::PersonRecord;
use census_synth::{generate_series, CensusSeries, SimConfig};
use linkage_core::{candidate_pairs, BlockingStrategy, LinkageResult, SimFunc};
use std::collections::{BTreeMap, BTreeSet};

/// The record- and group-link sets of a run, as raw-id pairs.
pub type LinkSets = (BTreeSet<(u64, u64)>, BTreeSet<(u64, u64)>);

/// Extract the order-insensitive link sets of a result.
pub fn link_sets(r: &LinkageResult) -> LinkSets {
    (
        r.records.iter().map(|(o, n)| (o.raw(), n.raw())).collect(),
        r.groups.iter().map(|(o, n)| (o.raw(), n.raw())).collect(),
    )
}

/// The small synthetic corpus (120 initial households, 3 snapshots).
pub fn small_series() -> CensusSeries {
    generate_series(&SimConfig::small())
}

/// A 2-snapshot medium corpus.
pub fn medium_pair_series() -> CensusSeries {
    generate_series(&SimConfig {
        snapshots: 2,
        ..SimConfig::medium()
    })
}

/// Canonical byte serialization of a [`LinkageResult`]: every mapping
/// is emitted in sorted order, provenance with its exact floats, so two
/// byte-equal strings mean bit-identical results regardless of hash-map
/// iteration order.
pub fn canonical(r: &LinkageResult) -> String {
    let mut out = String::new();
    let mut records: Vec<_> = r.records.iter().map(|(o, n)| (o.raw(), n.raw())).collect();
    records.sort_unstable();
    out.push_str("records\n");
    for (o, n) in records {
        out.push_str(&format!("{o}:{n}\n"));
    }
    let mut groups: Vec<_> = r.groups.iter().map(|(o, n)| (o.raw(), n.raw())).collect();
    groups.sort_unstable();
    out.push_str("groups\n");
    for (o, n) in groups {
        out.push_str(&format!("{o}:{n}\n"));
    }
    let mut prov: Vec<_> = r
        .provenance
        .iter()
        .map(|(&(o, n), phase)| ((o.raw(), n.raw()), format!("{phase:?}")))
        .collect();
    prov.sort();
    out.push_str("provenance\n");
    for ((o, n), phase) in prov {
        out.push_str(&format!("{o}:{n} {phase}\n"));
    }
    out.push_str("iterations\n");
    for it in &r.iterations {
        out.push_str(&format!("{it:?}\n"));
    }
    out.push_str(&format!("remainder {}\n", r.remainder_links));
    out
}

/// Assert that two runs produced bit-identical linkage output: link
/// sets, provenance (exact δ and g_sim per link), per-iteration stats
/// and the remainder count.
pub fn assert_same_result(a: &LinkageResult, b: &LinkageResult, label: &str) {
    assert_eq!(
        link_sets(a),
        link_sets(b),
        "{label}: record/group links diverge"
    );
    // provenance carries the exact δ and g_sim each link was accepted
    // at; LinkPhase derives PartialEq, so this is an exact f64 compare
    assert_eq!(a.provenance, b.provenance, "{label}: provenance diverges");
    assert_eq!(
        a.iterations, b.iterations,
        "{label}: per-iteration stats diverge"
    );
    assert_eq!(
        a.remainder_links, b.remainder_links,
        "{label}: remainder link count diverges"
    );
    assert_eq!(
        canonical(a),
        canonical(b),
        "{label}: canonical form diverges"
    );
}

/// Whether the new age lies within `tolerance` years of `old age +
/// year_gap` (the paper's footnote 2); a missing age passes. Written
/// here independently of the library's filter.
fn age_ok(old: &PersonRecord, new: &PersonRecord, year_gap: i64, tolerance: u32) -> bool {
    match (old.age, new.age) {
        (Some(a), Some(b)) => {
            (i64::from(b) - i64::from(a) - year_gap).abs() <= i64::from(tolerance)
        }
        _ => true,
    }
}

/// The matched pairs of the scoring oracle, keyed by raw `(old, new)`
/// record ids, with each `agg_sim` as its exact bit pattern.
pub type OracleSims = BTreeMap<(u64, u64), u64>;

/// The scalar scoring oracle: every `candidate_pairs` pair that passes
/// the age filter, scored one pair at a time with
/// `SimFunc::matches_compiled_counted`. Returns the matched pairs and
/// the early-exit prune count — what pre-matching must reproduce bit
/// for bit, whatever kernel or schedule it runs.
pub fn oracle_pair_sims(
    old: &[&PersonRecord],
    new: &[&PersonRecord],
    year_gap: i64,
    sim: &SimFunc,
    max_age_gap: Option<u32>,
) -> (OracleSims, u64) {
    let old_p: Vec<_> = old.iter().map(|r| sim.compile(r)).collect();
    let new_p: Vec<_> = new.iter().map(|r| sim.compile(r)).collect();
    let mut prunes = 0;
    let mut sims = OracleSims::new();
    for (i, j) in candidate_pairs(old, new, year_gap, BlockingStrategy::Standard) {
        let (o, n) = (old[i as usize], new[j as usize]);
        if max_age_gap.is_some_and(|t| !age_ok(o, n, year_gap, t)) {
            continue;
        }
        if let Some(s) =
            sim.matches_compiled_counted(&old_p[i as usize], &new_p[j as usize], &mut prunes)
        {
            sims.insert((o.id.raw(), n.id.raw()), s.to_bits());
        }
    }
    (sims, prunes)
}
