//! Differential test for budget-aware degradation: a memory budget may
//! only ever degrade *caches*, so linkage output must be bit-identical
//! under any budget — including one of zero bytes, which refuses every
//! cache the governor controls. Each fallback path is additionally
//! pinned by its counter: a run that was supposed to degrade must say
//! so in the trace.

mod common;

use common::{link_sets, small_series};
use linkage_core::{LinkageConfig, Linker};
use obs::Collector;

#[test]
fn output_is_bit_identical_under_any_budget() {
    let series = small_series();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let linker = Linker::new(old, new);
    // serial and parallel scoring; the schedule reaches the pair-cache
    // and per-iteration recompute paths
    for threads in [1, 2] {
        let base_config = LinkageConfig {
            threads,
            ..LinkageConfig::default()
        };
        let baseline = linker.run(&base_config);
        assert!(!baseline.records.is_empty());
        let expected = link_sets(&baseline);
        for budget in [Some(0), Some(64 << 10), Some(4 << 20), None] {
            let run = linker.run(&LinkageConfig {
                memory_budget: budget,
                ..base_config.clone()
            });
            assert_eq!(
                link_sets(&run),
                expected,
                "budget {budget:?} (threads {threads}) changed the linkage output"
            );
        }
    }
}

#[test]
fn zero_budget_records_each_fallback() {
    let series = small_series();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let linker = Linker::new(old, new);
    // threads = 1 runs every scoring task on the calling thread
    let config = LinkageConfig {
        memory_budget: Some(0),
        threads: 1,
        ..LinkageConfig::default()
    };
    let obs = Collector::enabled();
    let _ = linker.run_traced(&config, &obs);
    let trace = obs.finish();
    assert!(
        trace.counter("mem_fallback_pair_cache") >= 1,
        "zero budget must refuse the pair-score cache"
    );
    assert!(
        trace
            .events
            .iter()
            .any(|e| e.name == "mem_fallback_pair_cache"),
        "fallback event mem_fallback_pair_cache missing from the trace"
    );
}

#[test]
fn unlimited_run_records_no_fallbacks() {
    let series = small_series();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let obs = Collector::enabled();
    let _ = Linker::new(old, new).run_traced(&LinkageConfig::default(), &obs);
    let trace = obs.finish();
    assert_eq!(trace.counter("mem_fallback_pair_cache"), 0);
    assert_eq!(trace.counter("mem_fallback_decision_caps"), 0);
}

#[test]
fn tracing_and_memory_accounting_do_not_change_results() {
    let series = small_series();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let config = LinkageConfig {
        memory_budget: Some(1 << 20),
        ..LinkageConfig::default()
    };
    let obs = Collector::enabled().with_memory();
    let linker = Linker::new_traced(old, new, 1, &obs);
    let plain = linker.run(&config);
    let traced = linker.run_traced(&config, &obs);
    let trace = obs.finish();
    assert_eq!(link_sets(&plain), link_sets(&traced));
    trace.validate_basic().expect("traced budget run valid");
    // footprint snapshots cover the pipeline's big structures
    for structure in ["enriched_graphs", "profile_cache"] {
        assert!(
            trace.footprints.iter().any(|f| f.structure == structure),
            "no footprint snapshot for {structure}"
        );
    }
}
