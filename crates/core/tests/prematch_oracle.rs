//! Oracle suite: pre-matching must reproduce the pair-at-a-time scoring
//! oracle (`common::oracle_pair_sims`) **bit for bit** — the same match
//! pairs with the same `agg_sim` floats and the same early-exit prune
//! count — across similarity functions (ω1/ω2), thresholds, serial and
//! parallel execution, and memory budgets.
//!
//! Production scoring is the row kernel: it scores each old record's
//! blocked row pair by pair, stops at the pair loop's own bound check
//! (`SimFunc::bound_fails_after`) and folds survivors through
//! `SimFunc::fold_survivor`. It only changes *where* a per-attribute
//! similarity comes from: a per-worker memo over the new value ids of
//! the `ProfileCache` value table (a fresh table per
//! `prematch_with_profiles` call), tagged with the old value id it was
//! computed against, or else a one-vs-many merge through
//! `textsim::MultisetArena`. Serial and parallel runs share that path
//! and differ only in how the old records split into tasks, and the
//! memo takes no budget share, so a zero-byte budget must not change a
//! single score either.

mod common;

use census_model::PersonRecord;
use census_synth::CensusSeries;
use common::{medium_pair_series, oracle_pair_sims, small_series, OracleSims};
use linkage_core::{prematch_with_profiles, BlockingStrategy, MemGovernor, Parallelism, SimFunc};
use obs::Collector;

/// Compare pre-matching with the oracle over ω1/ω2 × δ {0.5, 0.6, 0.7}
/// × threads {1, 4} × budget {none, zero} on the series' first
/// snapshot pair.
fn assert_matrix_matches_oracle(series: &CensusSeries) {
    let (old_ds, new_ds) = (&series.snapshots[0], &series.snapshots[1]);
    let old: Vec<&PersonRecord> = old_ds.records().iter().collect();
    let new: Vec<&PersonRecord> = new_ds.records().iter().collect();
    let year_gap = i64::from(new_ds.year - old_ds.year);
    let max_age_gap = Some(3);
    for (omega, base) in [(1, SimFunc::omega1(0.5)), (2, SimFunc::omega2(0.5))] {
        for delta in [0.5, 0.6, 0.7] {
            let sim = base.with_threshold(delta);
            let (want, want_prunes) = oracle_pair_sims(&old, &new, year_gap, &sim, max_age_gap);
            assert!(!want.is_empty(), "ω{omega} δ={delta}: degenerate corpus");
            let old_c: Vec<_> = old.iter().map(|r| sim.compile(r)).collect();
            let new_c: Vec<_> = new.iter().map(|r| sim.compile(r)).collect();
            let old_p: Vec<_> = old_c.iter().collect();
            let new_p: Vec<_> = new_c.iter().collect();
            for threads in [1, 4] {
                for budget in [None, Some(0)] {
                    let label = format!("ω{omega} δ={delta} {threads} threads budget={budget:?}");
                    let obs = Collector::enabled();
                    let pm = prematch_with_profiles(
                        &old,
                        &new,
                        &old_p,
                        &new_p,
                        year_gap,
                        &sim,
                        BlockingStrategy::Standard,
                        Parallelism {
                            threads,
                            ..Parallelism::default()
                        },
                        max_age_gap,
                        &MemGovernor::new(budget),
                        &obs,
                    );
                    let got: OracleSims = pm
                        .pairs
                        .iter()
                        .map(|&(i, j, s)| {
                            let (o, n) = (old[i as usize].id, new[j as usize].id);
                            ((o.raw(), n.raw()), s.to_bits())
                        })
                        .collect();
                    assert_eq!(got, want, "{label}: pair_sims diverge");
                    let trace = obs.finish();
                    assert_eq!(
                        trace.counter("early_exit_prunes"),
                        want_prunes,
                        "{label}: prune count diverges"
                    );
                }
            }
        }
    }
}

#[test]
fn prematch_equals_oracle_across_the_matrix() {
    assert_matrix_matches_oracle(&small_series());
}

/// The medium corpus has value universes and blocks the small one never
/// reaches, so memo cells are overwritten far more often.
#[test]
fn prematch_equals_oracle_on_the_medium_corpus() {
    assert_matrix_matches_oracle(&medium_pair_series());
}
