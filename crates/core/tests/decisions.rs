//! Integration tests of decision provenance and histogram recording:
//! recording must never change the linkage outcome (bit-identity), and
//! the recorded decisions must fully explain it — every group link
//! resolves to a decision record whose `g_sim` recomputes from its
//! logged components, and every record link is attributed exactly once.

use census_synth::{generate_series, SimConfig};
use linkage_core::{link_traced, LinkageConfig, LinkageResult, SimFunc};
use obs::{Collector, DecisionConfig, DecisionRecord};
use std::collections::{BTreeSet, HashMap, HashSet};

fn pair() -> census_synth::CensusSeries {
    generate_series(&SimConfig::small())
}

/// Link with full decision + histogram recording; returns the result,
/// the finished trace and the decision log entries.
fn traced_run(
    old: &census_model::CensusDataset,
    new: &census_model::CensusDataset,
    config: &LinkageConfig,
) -> (LinkageResult, obs::RunTrace, Vec<DecisionRecord>) {
    let obs = Collector::enabled().with_decisions(DecisionConfig::default());
    let result = link_traced(old, new, config, &obs);
    let log = obs.take_decisions().expect("decisions enabled");
    assert_eq!(log.dropped_links, 0, "default caps must not drop links");
    let entries = log.entries().to_vec();
    (result, obs.finish(), entries)
}

/// A provenance entry with float payloads made exactly comparable.
type ProvenanceBits = (u64, u64, Option<(u64, u64)>);

fn provenance_bits(r: &LinkageResult) -> BTreeSet<ProvenanceBits> {
    r.provenance
        .iter()
        .map(|(&(o, n), phase)| {
            let payload = match phase {
                linkage_core::LinkPhase::Subgraph { delta, g_sim } => {
                    Some((delta.to_bits(), g_sim.to_bits()))
                }
                linkage_core::LinkPhase::Remainder => None,
            };
            (o.raw(), n.raw(), payload)
        })
        .collect()
}

#[test]
fn recording_decisions_and_histograms_is_bit_identical() {
    let series = pair();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let config = LinkageConfig::default();

    let plain = link_traced(old, new, &config, &Collector::disabled());
    let (recorded, trace, entries) = traced_run(old, new, &config);
    assert!(!entries.is_empty());
    assert!(trace.histogram("pair_agg_sim_bp").is_some());

    let a: BTreeSet<_> = plain.records.iter().collect();
    let b: BTreeSet<_> = recorded.records.iter().collect();
    assert_eq!(a, b, "record mapping must be bit-identical");
    let ga: BTreeSet<_> = plain.groups.iter().collect();
    let gb: BTreeSet<_> = recorded.groups.iter().collect();
    assert_eq!(ga, gb, "group mapping must be bit-identical");
    assert_eq!(plain.iterations, recorded.iterations);
    assert_eq!(plain.remainder_links, recorded.remainder_links);
    assert_eq!(provenance_bits(&plain), provenance_bits(&recorded));
}

#[test]
fn every_group_link_resolves_to_a_decision() {
    let series = pair();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    // the paper's two attribute weightings, both over the full schedule
    for sim_func in [SimFunc::omega1(0.5), SimFunc::omega2(0.5)] {
        let config = LinkageConfig {
            sim_func,
            ..LinkageConfig::default()
        };
        let (result, _, entries) = traced_run(old, new, &config);

        let mut group_decisions: HashSet<(u64, u64)> = HashSet::new();
        let mut remainder_groups: HashSet<(u64, u64)> = HashSet::new();
        for e in &entries {
            match e {
                DecisionRecord::Group(g) => {
                    group_decisions.insert((g.old_group, g.new_group));
                    // the winning score must recompute from its parts
                    assert!(
                        (g.recomputed_g_sim() - g.g_sim).abs() <= 1e-9,
                        "g_sim {} does not recompute from components ({})",
                        g.g_sim,
                        g.recomputed_g_sim()
                    );
                    assert!(g.subgraph_size > 0);
                    // (g.records may be empty: a group re-confirmed
                    // through anchor pairs adds no new record links)
                    // listed losers scored at most the winner's g_sim
                    for l in &g.losers {
                        assert!(l.g_sim <= g.g_sim + 1e-12);
                    }
                }
                DecisionRecord::Remainder(r) => {
                    remainder_groups.insert((r.old_group, r.new_group));
                }
                DecisionRecord::Rejected(_) => {}
            }
        }
        for (o, n) in result.groups.iter() {
            let key = (o.raw(), n.raw());
            assert!(
                group_decisions.contains(&key) || remainder_groups.contains(&key),
                "group link {o}->{n} has no decision record"
            );
        }
    }
}

#[test]
fn every_record_link_is_attributed_exactly_once() {
    let series = pair();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let (result, _, entries) = traced_run(old, new, &LinkageConfig::default());

    let mut attributed: HashMap<(u64, u64), usize> = HashMap::new();
    for e in &entries {
        match e {
            DecisionRecord::Group(g) => {
                for &(o, n) in &g.records {
                    *attributed.entry((o, n)).or_default() += 1;
                }
            }
            DecisionRecord::Remainder(r) => {
                *attributed.entry((r.old_record, r.new_record)).or_default() += 1;
            }
            DecisionRecord::Rejected(_) => {}
        }
    }
    assert_eq!(attributed.len(), result.records.len());
    for (o, n) in result.records.iter() {
        assert_eq!(
            attributed.get(&(o.raw(), n.raw())),
            Some(&1),
            "record link {o}->{n} must be attributed exactly once"
        );
    }
}

#[test]
fn decision_log_respects_tiny_caps() {
    let series = pair();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let obs = Collector::enabled().with_decisions(DecisionConfig {
        max_links: 5,
        max_rejections: 2,
        top_k: 1,
    });
    let unbounded = link_traced(old, new, &LinkageConfig::default(), &Collector::disabled());
    let bounded = link_traced(old, new, &LinkageConfig::default(), &obs);
    let log = obs.take_decisions().unwrap();
    assert!(log.len() <= 7);
    assert!(log.dropped_links > 0, "small caps must overflow");
    for e in log.entries() {
        if let DecisionRecord::Group(g) = e {
            assert!(g.losers.len() <= 1, "top_k=1 must bound the loser list");
        }
    }
    // bounding the log must not change the linkage
    let a: BTreeSet<_> = unbounded.records.iter().collect();
    let b: BTreeSet<_> = bounded.records.iter().collect();
    assert_eq!(a, b);
}

#[test]
fn histogram_sample_counts_match_the_counters() {
    let series = pair();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let (_, trace, _) = traced_run(old, new, &LinkageConfig::default());
    trace.validate_pipeline().unwrap();

    // every non-empty matched subgraph is sampled exactly once per
    // iteration it is scored in, same as the group_candidates counter
    let sizes = trace.histogram("subgraph_size").expect("sampled");
    assert_eq!(sizes.count, trace.counter("group_candidates"));
    assert!(sizes.min >= 1);

    // the default run scores each blocked pair once at the schedule
    // floor; with the remainder served from the cache (no fresh scoring)
    // the pair-score histogram holds exactly the matched pairs
    assert_eq!(
        trace.counter("remainder_pairs_scored"),
        0,
        "default run serves the remainder from the cache"
    );
    let scores = trace.histogram("pair_agg_sim_bp").expect("sampled");
    assert_eq!(scores.count, trace.counter("prematch_pairs_matched"));
    // agg_sim ∈ [δ_low, 1] ⇒ basis points within (0, 10000]
    assert!(scores.min >= 5000 - 1, "scores at or above the floor");
    assert!(scores.max <= 10_000);

    // derived latency histograms cover each phase's calls
    for phase in obs::PIPELINE_PHASES {
        let h = trace
            .histogram(&format!("phase_us_{phase}"))
            .unwrap_or_else(|| panic!("phase_us_{phase} missing"));
        assert_eq!(h.count, trace.phase(phase).unwrap().calls);
    }
}
