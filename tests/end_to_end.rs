//! End-to-end integration: generator → linkage → evaluation → evolution,
//! across crate boundaries.

use temporal_census_linkage::prelude::*;

fn small_series(seed: u64) -> CensusSeries {
    let mut config = SimConfig::small();
    config.seed = seed;
    generate_series(&config)
}

#[test]
fn full_pipeline_quality_holds_across_seeds() {
    // quality must be robust to the random world, not one lucky seed
    for seed in [1, 42, 1851] {
        let series = small_series(seed);
        let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
        let truth = series.truth_between(0, 1).unwrap();
        let result = link(old, new, &LinkageConfig::default());
        let q = evaluate_record_mapping(&result.records, &truth.records);
        assert!(
            q.f1 > 0.82,
            "seed {seed}: record F1 {:.3} below floor (P {:.3} R {:.3})",
            q.f1,
            q.precision,
            q.recall
        );
        let g = evaluate_group_mapping(&result.groups, &truth.groups);
        assert!(
            g.f1 > 0.75,
            "seed {seed}: group F1 {:.3} below floor (P {:.3} R {:.3})",
            g.f1,
            g.precision,
            g.recall
        );
    }
}

#[test]
fn record_links_imply_group_links() {
    let series = small_series(7);
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let result = link(old, new, &LinkageConfig::default());
    for (o, n) in result.records.iter() {
        let ho = old.record(o).unwrap().household;
        let hn = new.record(n).unwrap().household;
        assert!(
            result.groups.contains(ho, hn),
            "record link {o}→{n} lacks its group link {ho}→{hn}"
        );
    }
}

#[test]
fn clean_data_links_nearly_perfectly() {
    // with observation noise off, the only remaining difficulty is
    // genuine ambiguity; quality should be near-perfect
    let mut config = SimConfig::small();
    config.noise = NoiseConfig::clean();
    let series = generate_series(&config);
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let truth = series.truth_between(0, 1).unwrap();
    let result = link(old, new, &LinkageConfig::default());
    let q = evaluate_record_mapping(&result.records, &truth.records);
    assert!(
        q.f1 > 0.93,
        "clean data should link nearly perfectly: F1 {:.3}",
        q.f1
    );
}

#[test]
fn heavy_noise_degrades_gracefully() {
    let mut config = SimConfig::small();
    config.noise = NoiseConfig::heavy();
    let series = generate_series(&config);
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let truth = series.truth_between(0, 1).unwrap();
    let result = link(old, new, &LinkageConfig::default());
    let q = evaluate_record_mapping(&result.records, &truth.records);
    // heavy corruption must hurt recall but never crash, and precision
    // should stay defensible
    assert!(q.precision > 0.8, "precision {:.3}", q.precision);
    assert!(q.recall > 0.5, "recall {:.3}", q.recall);
}

#[test]
fn baselines_rank_as_in_the_paper() {
    let mut config = SimConfig::small();
    config.initial_households = 250;
    let series = generate_series(&config);
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let truth = series.truth_between(0, 1).unwrap();

    let ours = link(old, new, &LinkageConfig::default());
    let cl = collective_link(old, new, &CollectiveConfig::default());
    let gs = graphsim_link(old, new, &GraphSimConfig::default());

    let ours_rec = evaluate_record_mapping(&ours.records, &truth.records);
    let cl_rec = evaluate_record_mapping(&cl, &truth.records);
    assert!(
        ours_rec.recall > cl_rec.recall,
        "Table 6 shape: our recall {:.3} must beat CL {:.3}",
        ours_rec.recall,
        cl_rec.recall
    );

    let ours_grp = evaluate_group_mapping(&ours.groups, &truth.groups);
    let gs_grp = evaluate_group_mapping(&gs.groups, &truth.groups);
    assert!(
        ours_grp.recall > gs_grp.recall,
        "Table 7 shape: our group recall {:.3} must beat GraphSim {:.3}",
        ours_grp.recall,
        gs_grp.recall
    );
}

#[test]
fn evolution_graph_over_whole_series() {
    let mut config = SimConfig::small();
    config.snapshots = 4;
    let series = generate_series(&config);
    let linkage_config = LinkageConfig::default();
    let mappings: Vec<(RecordMapping, GroupMapping)> = series
        .snapshots
        .windows(2)
        .map(|w| {
            let r = link(&w[0], &w[1], &linkage_config);
            (r.records, r.groups)
        })
        .collect();
    let snapshots: Vec<&CensusDataset> = series.snapshots.iter().collect();
    let graph = EvolutionGraph::build(&snapshots, &mappings);

    assert_eq!(graph.snapshot_count(), 4);
    assert!(graph.edges.len() > 100, "expect substantial linkage");

    let chains = preserve_chain_counts(&graph);
    assert_eq!(chains.len(), 3);
    for w in chains.windows(2) {
        assert!(w[0] >= w[1], "chains must decay: {chains:?}");
    }
    assert!(chains[2] > 0, "some households should survive all decades");

    let (components, largest, total) = largest_component(&graph);
    assert!(components > 1);
    assert!(largest <= total);
    assert!(
        largest as f64 / total as f64 > 0.15,
        "largest component should be substantial: {largest}/{total}"
    );
}

#[test]
fn truth_patterns_versus_found_patterns_agree_in_shape() {
    let series = small_series(3);
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let truth = series.truth_between(0, 1).unwrap();
    let result = link(old, new, &LinkageConfig::default());

    let found = detect_patterns(old, new, &result.records, &result.groups);
    let ideal = detect_patterns(old, new, &truth.records, &truth.groups);

    // found counts track truth counts within a generous band
    let close = |a: usize, b: usize| {
        let (a, b) = (a as f64, b as f64);
        (a - b).abs() <= 0.35 * a.max(b).max(10.0)
    };
    assert!(
        close(found.counts.preserve_g, ideal.counts.preserve_g),
        "preserve_G found {} vs truth {}",
        found.counts.preserve_g,
        ideal.counts.preserve_g
    );
    assert!(
        close(found.counts.preserve_r, ideal.counts.preserve_r),
        "preserve_R found {} vs truth {}",
        found.counts.preserve_r,
        ideal.counts.preserve_r
    );
}

#[test]
fn thread_count_does_not_change_results() {
    // pair scoring is chunked across workers; joins are ordered, so the
    // mappings and the per-link provenance must be bit-identical
    let series = small_series(5);
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let run = |threads: usize| {
        let config = LinkageConfig {
            threads,
            ..LinkageConfig::default()
        };
        link(old, new, &config)
    };
    let base = run(1);
    assert!(!base.records.is_empty());
    for threads in [2, 8] {
        let r = run(threads);
        let rec = |x: &temporal_census_linkage::linkage::LinkageResult| {
            x.records.iter().collect::<std::collections::BTreeSet<_>>()
        };
        let grp = |x: &temporal_census_linkage::linkage::LinkageResult| {
            x.groups.iter().collect::<std::collections::BTreeSet<_>>()
        };
        assert_eq!(rec(&base), rec(&r), "records differ at {threads} threads");
        assert_eq!(grp(&base), grp(&r), "groups differ at {threads} threads");
        assert_eq!(
            base.provenance, r.provenance,
            "provenance differs at {threads} threads"
        );
    }
}

#[test]
fn profile_cache_reuses_profiles_across_iterations() {
    let series = small_series(9);
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let total = old.records().len() + new.records().len();

    // default (cache-served) pipeline: pairs are scored once at the
    // schedule floor, so each profile is compiled exactly once and no
    // later pass needs to fetch it again
    let result = link(old, new, &LinkageConfig::default());
    assert!(
        result.profiles_built <= total,
        "{} built, {total} records",
        result.profiles_built
    );
    assert!(result.profiles_built > 0);

    // recompute pipeline (a zero budget refuses the pair cache): the
    // iterative schedule re-scores residue records at δ−Δ and the
    // remainder pass re-scores the leftovers — those must all be
    // profile-cache hits
    let recompute = link(
        old,
        new,
        &LinkageConfig {
            memory_budget: Some(0),
            ..LinkageConfig::default()
        },
    );
    assert!(
        recompute.profiles_built <= total,
        "{} built, {total} records",
        recompute.profiles_built
    );
    assert!(
        recompute.profiles_reused > 0,
        "iterative recompute run should reuse cached profiles"
    );
}

#[test]
fn csv_round_trip_preserves_linkage_behaviour() {
    use temporal_census_linkage::model::csv::{read_dataset, write_dataset};
    let series = small_series(11);
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);

    let round_trip = |ds: &CensusDataset| -> CensusDataset {
        let mut buf = Vec::new();
        write_dataset(ds, &mut buf).unwrap();
        read_dataset(ds.year, buf.as_slice()).unwrap()
    };
    let old2 = round_trip(old);
    let new2 = round_trip(new);

    let config = LinkageConfig::default();
    let r1 = link(old, new, &config);
    let r2 = link(&old2, &new2, &config);
    assert_eq!(r1.records.len(), r2.records.len());
    let links1: std::collections::BTreeSet<_> = r1.records.iter().collect();
    let links2: std::collections::BTreeSet<_> = r2.records.iter().collect();
    assert_eq!(links1, links2, "CSV round trip must not change the result");
}
