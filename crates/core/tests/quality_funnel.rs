//! End-to-end invariants of the ground-truth quality telemetry: the
//! recall-loss funnel must partition the truth set exactly, across
//! serial and parallel execution, and turning truth telemetry on must not
//! change the produced mappings.

use census_synth::{generate_series, SimConfig};
use linkage_core::{link_traced, LinkageConfig};
use obs::{Collector, DecisionConfig, TruthConfig};
use std::collections::BTreeSet;

fn truth_config(series: &census_synth::CensusSeries) -> TruthConfig {
    let truth = series.truth_between(0, 1).unwrap();
    TruthConfig {
        record_pairs: truth
            .records
            .iter()
            .map(|(o, n)| (o.raw(), n.raw()))
            .collect(),
        group_pairs: truth
            .groups
            .iter()
            .map(|(o, n)| (o.raw(), n.raw()))
            .collect(),
    }
}

#[test]
fn funnel_partitions_truth_exactly_in_every_execution_mode() {
    let series = generate_series(&SimConfig::small());
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let tc = truth_config(&series);
    let truth_records: BTreeSet<(u64, u64)> = tc.record_pairs.iter().copied().collect();

    let mut sections = Vec::new();
    // one worker, and four
    for threads in [1, 4] {
        let config = LinkageConfig {
            threads,
            ..LinkageConfig::default()
        };
        let obs = Collector::enabled().with_truth(tc.clone());
        let result = link_traced(old, new, &config, &obs);
        let trace = obs.finish();
        let q = trace
            .quality
            .unwrap_or_else(|| panic!("no quality section ({threads}t)"));
        q.validate()
            .unwrap_or_else(|e| panic!("invalid quality section ({threads}t): {e}"));
        assert_eq!(
            q.funnel.total,
            truth_records.len() as u64,
            "funnel total must cover every distinct true pair"
        );
        assert_eq!(q.records.found, result.records.len() as u64);
        assert_eq!(q.groups.found, result.groups.len() as u64);
        // the funnel recovers decent recall on clean synthetic data
        assert!(q.funnel.recovered() * 2 > q.funnel.total);
        sections.push((threads, q));
    }
    // the funnel classification itself is execution-mode invariant
    let (_, first) = &sections[0];
    for (mode, q) in &sections[1..] {
        assert_eq!(q.funnel, first.funnel, "funnel diverged at {mode} threads");
        assert_eq!(
            q.records, first.records,
            "counts diverged at {mode} threads"
        );
        assert_eq!(q.bands, first.bands, "bands diverged at {mode} threads");
    }
}

#[test]
fn truth_telemetry_does_not_change_the_mappings() {
    let series = generate_series(&SimConfig::small());
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let tc = truth_config(&series);

    for threads in [1, 2] {
        let config = LinkageConfig {
            threads,
            ..LinkageConfig::default()
        };
        let plain = link_traced(old, new, &config, &Collector::disabled());
        let obs = Collector::enabled().with_truth(tc.clone());
        let with_truth = link_traced(old, new, &config, &obs);

        let a: BTreeSet<_> = plain.records.iter().collect();
        let b: BTreeSet<_> = with_truth.records.iter().collect();
        assert_eq!(a, b, "record mapping changed under truth telemetry");
        let ga: BTreeSet<_> = plain.groups.iter().collect();
        let gb: BTreeSet<_> = with_truth.groups.iter().collect();
        assert_eq!(ga, gb, "group mapping changed under truth telemetry");
        assert_eq!(plain.remainder_links, with_truth.remainder_links);
    }
}

#[test]
fn funnel_agrees_with_independent_quality_arithmetic() {
    let series = generate_series(&SimConfig::small());
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let truth = series.truth_between(0, 1).unwrap();
    let tc = truth_config(&series);
    let config = LinkageConfig::default();

    let obs = Collector::enabled().with_truth(tc);
    let result = link_traced(old, new, &config, &obs);
    let q = obs.finish().quality.unwrap();

    let correct = result
        .records
        .iter()
        .filter(|&(o, n)| truth.records.contains(o, n))
        .count() as u64;
    assert_eq!(q.records.correct, correct);
    assert_eq!(q.funnel.recovered(), correct);
    let recall = correct as f64 / truth.records.len() as f64;
    assert!((q.records.quality.recall - recall).abs() < 1e-12);
    // losses are the recall complement, pair for pair
    assert_eq!(
        q.funnel.losses(),
        truth.records.len() as u64 - correct,
        "loss buckets must sum to the recall complement"
    );
}

#[test]
fn decision_log_does_not_change_the_quality_section() {
    // only the decision log sorts the below-floor rejections; the funnel
    // joins them by household pair, so it must read the same without it.
    // The collector feeds the funnel before the log's caps, so a log
    // that drops almost every record must leave it unchanged too
    let series = generate_series(&SimConfig::small());
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let tc = truth_config(&series);
    // a raised floor sends many candidates below it
    let config = LinkageConfig {
        min_g_sim: 0.3,
        ..LinkageConfig::default()
    };
    let quality = |obs: Collector| {
        let _ = link_traced(old, new, &config, &obs);
        obs.finish().quality.expect("quality section")
    };
    let truth_only = quality(Collector::enabled().with_truth(tc.clone()));
    let logged = Collector::enabled()
        .with_truth(tc.clone())
        .with_decisions(DecisionConfig::default());
    let with_log = quality(logged);
    let capped = Collector::enabled()
        .with_truth(tc)
        .with_decisions(DecisionConfig {
            max_links: 2,
            max_rejections: 2,
            ..DecisionConfig::default()
        });
    let with_capped_log = quality(capped);
    assert!(
        truth_only.funnel.selection.below_min_g_sim > 0,
        "degenerate corpus: no true pair lost below the floor"
    );
    assert_eq!(truth_only, with_log);
    assert_eq!(truth_only, with_capped_log);
}
