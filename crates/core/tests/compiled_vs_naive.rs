//! Differential suite: the compiled scoring path (precomputed q-gram
//! multisets, early-exit pruning, the run-wide value table) must
//! reproduce the naive `aggregate_profiles` path — same scores to 1e-12,
//! same match decisions at every threshold — on a synthetic census
//! corpus.

use census_model::{GroupMapping, PersonRecord, RecordMapping};
use census_synth::{generate_series, SimConfig};
use linkage_core::{
    match_remaining, match_remaining_cached, prematch_cached, prematch_with_profiles,
    BlockingStrategy, LinkageConfig, MemGovernor, Parallelism, ProfileCache, RemainderConfig,
    SimFunc,
};
use obs::Collector;

fn corpus() -> census_synth::CensusSeries {
    generate_series(&SimConfig::small())
}

#[test]
fn compiled_scoring_matches_naive_for_every_pair() {
    let series = corpus();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    // a slice keeps the cross product tractable while still covering
    // hundreds of households' worth of names, addresses and occupations
    let old_recs: Vec<&PersonRecord> = old.records().iter().take(200).collect();
    let new_recs: Vec<&PersonRecord> = new.records().iter().take(200).collect();

    for base in [SimFunc::omega1(0.5), SimFunc::omega2(0.5)] {
        // profiles depend on specs only — compile once per ω
        let old_naive: Vec<Vec<String>> = old_recs.iter().map(|r| base.profile(r)).collect();
        let new_naive: Vec<Vec<String>> = new_recs.iter().map(|r| base.profile(r)).collect();
        let old_comp: Vec<_> = old_recs.iter().map(|r| base.compile(r)).collect();
        let new_comp: Vec<_> = new_recs.iter().map(|r| base.compile(r)).collect();

        for &delta in &[0.5, 0.7, 1.0] {
            let sim = base.with_threshold(delta);
            for (i, _) in old_recs.iter().enumerate() {
                for (j, _) in new_recs.iter().enumerate() {
                    let naive = sim.aggregate_profiles(&old_naive[i], &new_naive[j]);
                    let fast = sim.aggregate_compiled(&old_comp[i], &new_comp[j]);
                    assert!(
                        (fast - naive).abs() < 1e-12,
                        "pair ({i},{j}) at δ={delta}: compiled {fast} vs naive {naive}"
                    );
                    // early exit must never change which pairs reach δ…
                    let m = sim.matches_compiled(&old_comp[i], &new_comp[j]);
                    assert_eq!(
                        m.is_some(),
                        naive >= sim.threshold,
                        "pair ({i},{j}) at δ={delta}: decision diverged (naive {naive})"
                    );
                    // …and survivors carry the naive score
                    if let Some(s) = m {
                        assert!(
                            (s - naive).abs() < 1e-12,
                            "pair ({i},{j}) at δ={delta}: accepted score {s} vs naive {naive}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn prematch_with_cached_profiles_is_identical() {
    let series = corpus();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let old_recs: Vec<&PersonRecord> = old.records().iter().collect();
    let new_recs: Vec<&PersonRecord> = new.records().iter().collect();
    let year_gap = i64::from(new.year - old.year);

    for &delta in &[0.5, 0.7] {
        let sim = SimFunc::omega2(delta);
        let plain = prematch_cached(
            &old_recs,
            &new_recs,
            &mut ProfileCache::new(),
            year_gap,
            &sim,
            BlockingStrategy::Full,
            Parallelism {
                threads: 1,
                ..Parallelism::default()
            },
            Some(3),
            &Collector::disabled(),
        );
        let old_c: Vec<_> = old_recs.iter().map(|r| sim.compile(r)).collect();
        let new_c: Vec<_> = new_recs.iter().map(|r| sim.compile(r)).collect();
        let (old_p, new_p): (Vec<_>, Vec<_>) = (old_c.iter().collect(), new_c.iter().collect());
        let mut cache = ProfileCache::new();
        // two rounds: first fills the cache, second is served from it —
        // both must reproduce the uncached run exactly
        for round in 0..2 {
            let par = Parallelism {
                threads: 1 + round, // also cross the thread counts
                ..Parallelism::default()
            };
            let (want_obs, got_obs) = (Collector::enabled(), Collector::enabled());
            // a fresh value table for the pass, traced at the same
            // parallelism
            let _ = prematch_with_profiles(
                &old_recs,
                &new_recs,
                &old_p,
                &new_p,
                year_gap,
                &sim,
                BlockingStrategy::Full,
                par,
                Some(3),
                &MemGovernor::unlimited(),
                &want_obs,
            );
            let cached = prematch_cached(
                &old_recs,
                &new_recs,
                &mut cache,
                year_gap,
                &sim,
                BlockingStrategy::Full,
                par,
                Some(3),
                &got_obs,
            );
            assert_eq!(plain.pairs, cached.pairs, "δ={delta} round {round}");
            assert_eq!(plain.label_old, cached.label_old, "δ={delta} round {round}");
            assert_eq!(plain.label_new, cached.label_new, "δ={delta} round {round}");
            // rows served from an earlier round name the same values as
            // a fresh table's, so the kernel does the same work
            let (want, got) = (want_obs.finish(), got_obs.finish());
            for counter in [
                "prematch_pairs_scored",
                "pair_score_batch_probes",
                "pair_score_batched_unique",
                "early_exit_prunes",
            ] {
                assert_eq!(
                    got.counter(counter),
                    want.counter(counter),
                    "δ={delta} round {round}: {counter}"
                );
            }
            assert!(got.counter("pair_score_batched_unique") > 0);
        }
        assert!(cache.reused() > 0, "second round must hit the cache");
    }
}

#[test]
fn remainder_cached_equals_uncached() {
    let series = corpus();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let old_recs: Vec<&PersonRecord> = old.records().iter().take(120).collect();
    let new_recs: Vec<&PersonRecord> = new.records().iter().take(120).collect();
    let config = RemainderConfig::default();

    let run_uncached = || {
        let mut records = RecordMapping::new();
        let mut groups = GroupMapping::new();
        let added = match_remaining(
            old,
            new,
            &old_recs,
            &new_recs,
            &config,
            BlockingStrategy::Full,
            &mut records,
            &mut groups,
        );
        (added, records, groups)
    };
    let (added1, rec1, grp1) = run_uncached();

    // warm the cache under the *linker's* ω2 specs first: the remainder
    // function shares them, so every profile must be reused, not rebuilt
    let mut cache = ProfileCache::new();
    let _ = prematch_cached(
        &old_recs,
        &new_recs,
        &mut cache,
        i64::from(new.year - old.year),
        &LinkageConfig::default().sim_func,
        BlockingStrategy::Full,
        Parallelism::default(),
        Some(3),
        &Collector::disabled(),
    );
    let built_before = cache.built();
    let mut records = RecordMapping::new();
    let mut groups = GroupMapping::new();
    let added2 = match_remaining_cached(
        old,
        new,
        &old_recs,
        &new_recs,
        &config,
        BlockingStrategy::Full,
        &mut records,
        &mut groups,
        &mut cache,
        None,
        Parallelism::default(),
        &Collector::disabled(),
    );
    assert_eq!(added1, added2);
    assert_eq!(
        rec1.iter().collect::<std::collections::BTreeSet<_>>(),
        records.iter().collect::<std::collections::BTreeSet<_>>()
    );
    assert_eq!(
        grp1.iter().collect::<std::collections::BTreeSet<_>>(),
        groups.iter().collect::<std::collections::BTreeSet<_>>()
    );
    assert_eq!(cache.built(), built_before, "shared specs must not rebuild");
    assert!(!added1.is_empty(), "corpus slice should yield some links");
}

#[test]
fn full_pipeline_scores_are_unchanged_by_the_fast_path() {
    // the linker's per-link provenance stores the δ and g_sim each link
    // was accepted at; two runs (the cache is rebuilt per run) must agree
    // on every accepted pair and score
    let series = corpus();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let r1 = linkage_core::link(old, new, &LinkageConfig::default());
    let r2 = linkage_core::link(old, new, &LinkageConfig::default());
    assert_eq!(r1.provenance, r2.provenance);
    // the served run compiles each profile exactly once (the pair cache
    // makes every later pass filter-only, so nothing re-requests them);
    // a run whose zero budget refuses the cache re-requests them every
    // δ step
    assert!(r1.profiles_built > 0);
    assert_eq!(r1.profiles_reused, 0);
    let recompute = linkage_core::link(
        old,
        new,
        &LinkageConfig {
            memory_budget: Some(0),
            ..LinkageConfig::default()
        },
    );
    assert_eq!(recompute.provenance, r1.provenance);
    assert!(
        recompute.profiles_reused > 0,
        "recompute δ schedule must reuse profiles"
    );
}
