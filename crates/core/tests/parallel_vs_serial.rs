//! Differential suite: parallel execution is an *execution strategy*,
//! not a semantics change.
//!
//! Every test pits a multi-threaded run against a one-thread run on the
//! same corpus and demands **bit-identical** output: record mappings,
//! group links, provenance (exact δ and g_sim per link), per-iteration
//! stats, and the per-pair results feeding evolution analysis. Every
//! scoring pass cuts the same fixed task split at any thread count, so
//! the trace's counters must agree too. The suite covers both schedule
//! floors and both the cache-served and rescoring drivers (the latter,
//! taken when a zero memory budget refuses the pair cache, re-scores
//! every δ iteration and runs the remainder fresh pass, which the pair
//! cache otherwise serves).

mod common;

use census_model::CensusDataset;
use common::{assert_same_result, canonical, medium_pair_series, small_series};
use linkage_core::{link, link_series, link_traced, LinkageConfig, Linker};
use obs::{Collector, DecisionConfig};

fn with_threads(config: &LinkageConfig, threads: usize) -> LinkageConfig {
    LinkageConfig {
        threads,
        ..config.clone()
    }
}

#[test]
fn thread_count_never_changes_the_result_at_either_floor() {
    let series = small_series();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    for delta_low in [0.5, 0.6] {
        let base = LinkageConfig {
            delta_low,
            ..LinkageConfig::default()
        };
        let reference = link(old, new, &with_threads(&base, 1));
        assert!(!reference.records.is_empty(), "degenerate corpus");
        for threads in [2, 4] {
            let run = link(old, new, &with_threads(&base, threads));
            assert_same_result(
                &run,
                &reference,
                &format!("δ_low={delta_low} threads={threads}"),
            );
        }
    }
}

/// Every counter of a traced run, by name.
fn counters(
    old: &CensusDataset,
    new: &CensusDataset,
    config: &LinkageConfig,
) -> Vec<(String, u64)> {
    let obs = Collector::enabled();
    let _ = link_traced(old, new, config, &obs);
    obs.finish()
        .counters
        .into_iter()
        .map(|c| (c.name, c.value))
        .collect()
}

#[test]
fn every_counter_is_independent_of_the_thread_count() {
    // the value-pair memo is emptied per task, so the kernel's unique
    // count follows the task split; a split fixed at every thread count
    // keeps it, and every other counter, the same
    let (small, medium) = (small_series(), medium_pair_series());
    for (corpus, series) in [("small", &small), ("medium", &medium)] {
        let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
        for (driver, budget) in [("served", None), ("recompute", Some(0))] {
            let base = LinkageConfig {
                memory_budget: budget,
                ..LinkageConfig::default()
            };
            let reference = counters(old, new, &with_threads(&base, 1));
            let unique = reference
                .iter()
                .find(|(name, _)| name == "pair_score_batched_unique");
            assert!(
                unique.is_some_and(|&(_, v)| v > 0),
                "{corpus}/{driver}: {reference:?}"
            );
            for threads in [2, 4] {
                let got = counters(old, new, &with_threads(&base, threads));
                assert_eq!(got, reference, "{corpus}/{driver} at {threads} threads");
            }
        }
    }
}

#[test]
fn recompute_driver_is_bit_identical_serial_and_parallel() {
    // a zero budget refuses the pair cache: every δ iteration re-blocks
    // and re-scores its residue, and the remainder pass scores its
    // residue afresh
    let series = small_series();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let base = LinkageConfig {
        memory_budget: Some(0),
        ..LinkageConfig::default()
    };
    let reference = link(old, new, &with_threads(&base, 1));
    for threads in [2, 4] {
        let run = link(old, new, &with_threads(&base, threads));
        assert_same_result(&run, &reference, &format!("recompute threads={threads}"));
    }
}

#[test]
fn medium_series_feeds_evolution_identically_serial_and_parallel() {
    // the full multi-snapshot path: every pairwise result that evolution
    // analysis consumes must be bit-identical under parallel execution
    let series = medium_pair_series();
    let snaps: Vec<_> = series.snapshots.iter().collect();
    let base = LinkageConfig::default();
    let reference = link_series(&snaps, &with_threads(&base, 1));
    let parallel = link_series(&snaps, &with_threads(&base, 4));
    assert_eq!(reference.len(), parallel.len());
    for (i, (a, b)) in parallel.iter().zip(&reference).enumerate() {
        assert_same_result(a, b, &format!("medium series pair {i} (parallel)"));
    }
}

#[test]
fn parallel_runs_are_deterministic_and_reproducible() {
    // three repeats on the work-stealing pool must serialize to the same
    // bytes and log byte-identical decision provenance: task completion
    // order must never leak into the output
    let series = small_series();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let linker = Linker::new(old, new);
    let config = with_threads(&LinkageConfig::default(), 4);
    let mut runs = Vec::new();
    for _ in 0..3 {
        let obs = Collector::enabled().with_decisions(DecisionConfig::default());
        let result = linker.run_traced(&config, &obs);
        let decisions = obs
            .take_decisions()
            .expect("decision log enabled")
            .to_jsonl()
            .expect("serializable decision log");
        assert!(!decisions.is_empty(), "no decisions recorded");
        runs.push((canonical(&result), decisions));
    }
    assert_eq!(runs[0], runs[1], "repeat 1 diverged");
    assert_eq!(runs[0], runs[2], "repeat 2 diverged");
}
