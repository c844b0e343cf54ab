//! Differential suite: the incremental (score-once, filter-per-δ)
//! driver must be **bit-identical** to the recompute-from-scratch
//! driver — same record links, same group links, same provenance δs and
//! g_sims, same per-iteration stats — across similarity functions,
//! schedule floors and scales. `agg_sim` is δ-independent (Eq. 3), so
//! any divergence is a bug in the pair-score cache, not a tolerance
//! matter; every comparison is exact.
//!
//! The recompute side is a zero memory budget, which refuses the floor
//! cache and scores each δ step's residue afresh. Its trace must show
//! the refusal and no cache hit, so the suite cannot pass by comparing
//! the cache-served path with itself.

mod common;

use common::{assert_same_result, medium_pair_series, small_series};
use linkage_core::{link, link_traced, LinkageConfig, SimFunc};
use obs::Collector;

/// Link `old`→`new` served from the pair cache and again under a zero
/// budget, require the budgeted run to have refused the cache, and
/// demand bit-identical results.
fn assert_served_matches_recompute(
    old: &census_model::CensusDataset,
    new: &census_model::CensusDataset,
    config: &LinkageConfig,
    label: &str,
) {
    let served = link(old, new, config);
    let obs = Collector::enabled();
    let recompute = link_traced(
        old,
        new,
        &LinkageConfig {
            memory_budget: Some(0),
            ..config.clone()
        },
        &obs,
    );
    let trace = obs.finish();
    assert_eq!(
        trace.counter("mem_fallback_pair_cache"),
        1,
        "{label}: a zero budget must refuse the floor cache"
    );
    assert_eq!(
        trace.counter("pair_cache_hits"),
        0,
        "{label}: the recompute run must not be served from a cache"
    );
    assert_same_result(&served, &recompute, label);
    assert!(!served.records.is_empty(), "{label}: degenerate run");
}

#[test]
fn small_scale_over_simfuncs_and_floors() {
    let series = small_series();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    for (name, sim_func) in [("ω1", SimFunc::omega1(0.5)), ("ω2", SimFunc::omega2(0.5))] {
        for delta_low in [0.5, 0.6] {
            let config = LinkageConfig {
                sim_func: sim_func.clone(),
                delta_low,
                ..LinkageConfig::default()
            };
            assert_served_matches_recompute(
                old,
                new,
                &config,
                &format!("{name} δ_low={delta_low}"),
            );
        }
    }
}

#[test]
fn non_iterative_schedule_is_identical_too() {
    // a single-pass schedule exercises the build-then-filter-at-the-same-δ
    // corner (the cache floor equals the only δ)
    let series = small_series();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let config = LinkageConfig::non_iterative();
    assert_served_matches_recompute(old, new, &config, "non-iterative");
}

#[test]
fn medium_scale_series_is_identical() {
    // a 2-snapshot medium series with standard blocking
    let series = medium_pair_series();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let config = LinkageConfig::default();
    assert_served_matches_recompute(old, new, &config, "medium 2-snapshot");
}
