//! Integration tests of the observability layer: the trace recorded by
//! [`link_traced`] must agree exactly with the [`LinkageResult`] it
//! accompanies, and tracing must never change the linkage outcome.

use census_synth::{generate_series, SimConfig};
use linkage_core::{link, link_traced, LinkageConfig};
use obs::{Collector, DriverSection, EventKind, PIPELINE_PHASES};

fn pair() -> census_synth::CensusSeries {
    generate_series(&SimConfig::small())
}

#[test]
fn iteration_spans_match_result_one_to_one() {
    let series = pair();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let obs = Collector::enabled();
    let result = link_traced(old, new, &LinkageConfig::default(), &obs);
    let trace = obs.finish();

    assert_eq!(
        trace.iterations.len(),
        result.iterations.len(),
        "one trace span per executed δ iteration"
    );
    for (span, stats) in trace.iterations.iter().zip(&result.iterations) {
        assert!(
            (span.delta - stats.delta).abs() < 1e-9,
            "iteration {} δ mismatch: trace {} vs result {}",
            span.index,
            span.delta,
            stats.delta
        );
    }
    // indices are contiguous from 0 in execution order
    for (i, span) in trace.iterations.iter().enumerate() {
        assert_eq!(span.index, i);
    }
}

#[test]
fn trace_has_all_pipeline_phases_and_consistent_times() {
    let series = pair();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let obs = Collector::enabled();
    let _ = link_traced(old, new, &LinkageConfig::default(), &obs);
    let trace = obs.finish();

    assert!(trace.enabled);
    for phase in PIPELINE_PHASES {
        assert!(
            trace.phase(phase).is_some(),
            "phase {phase:?} missing from trace"
        );
    }
    // the full pipeline invariants (phase sums ≤ totals, δ monotone)
    trace.validate_pipeline().unwrap();

    // iterative phases sum to at most each iteration's wall time
    for it in &trace.iterations {
        let sum: u64 = it.phases.iter().map(|p| p.total_us).sum();
        assert!(sum <= it.total_us, "iteration {} over-counts", it.index);
    }
}

#[test]
fn tracing_does_not_change_the_result() {
    let series = pair();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let config = LinkageConfig::default();
    let plain = link(old, new, &config);
    let traced = link_traced(old, new, &config, &Collector::enabled());

    let a: std::collections::BTreeSet<_> = plain.records.iter().collect();
    let b: std::collections::BTreeSet<_> = traced.records.iter().collect();
    assert_eq!(a, b);
    let ga: std::collections::BTreeSet<_> = plain.groups.iter().collect();
    let gb: std::collections::BTreeSet<_> = traced.groups.iter().collect();
    assert_eq!(ga, gb);
    assert_eq!(plain.iterations.len(), traced.iterations.len());
    assert_eq!(plain.remainder_links, traced.remainder_links);
}

#[test]
fn counters_agree_with_result_fields() {
    let series = pair();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let obs = Collector::enabled();
    let result = link_traced(old, new, &LinkageConfig::default(), &obs);
    let trace = obs.finish();

    let counter = |name: &str| trace.counter(name);
    assert_eq!(counter("profiles_built"), result.profiles_built as u64);
    assert_eq!(counter("profiles_reused"), result.profiles_reused as u64);
    assert_eq!(counter("remainder_links"), result.remainder_links as u64);
    assert_eq!(
        counter("record_links"),
        result.records.len() as u64 - result.remainder_links as u64
    );
    let group_links: usize = result.iterations.iter().map(|i| i.group_links).sum();
    assert_eq!(counter("group_links_accepted"), group_links as u64);
    // scoring happened and the hit rate is well-formed
    assert!(counter("prematch_pairs_scored") > 0);
    let rate = trace.profile_cache_hit_rate();
    assert!((0.0..=1.0).contains(&rate));
}

#[test]
fn pair_cache_scores_each_unique_pair_at_most_once() {
    // the point of the pair-score cache: across the *whole* δ schedule
    // (5 iterations by default), every unique blocked pair is scored at
    // most once — later iterations are served from the pair-score cache
    let series = pair();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let config = LinkageConfig::default();
    let obs = Collector::enabled();
    let result = link_traced(old, new, &config, &obs);
    let trace = obs.finish();

    let unique_pairs =
        linkage_core::dataset_candidate_pairs(old, new, config.blocking).len() as u64;
    let scored = trace.counter("prematch_pairs_scored");
    assert!(scored > 0);
    assert!(
        scored <= unique_pairs,
        "scored {scored} pairs but only {unique_pairs} unique blocked pairs exist"
    );
    // every iteration after the first was served from the cache
    assert!(result.iterations.len() >= 2, "schedule must iterate");
    assert!(trace.counter("pair_cache_hits") > 0);
    assert!(trace.counter("blocking_pairs_generated") >= scored);
}

#[test]
fn timeline_records_worker_events_without_changing_the_result() {
    let series = pair();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    // multi-threaded; every pass runs on the pool, so the run exercises
    // every event source: prematch and subgraph chunks, the remainder
    // pass and the δ-iteration markers
    let config = LinkageConfig {
        threads: 2,
        ..LinkageConfig::default()
    };
    let plain = link(old, new, &config);
    let obs = Collector::enabled();
    let timed = link_traced(old, new, &config, &obs);
    let trace = obs.finish();

    // recording never changes the linkage outcome
    let a: std::collections::BTreeSet<_> = plain.records.iter().collect();
    let b: std::collections::BTreeSet<_> = timed.records.iter().collect();
    assert_eq!(a, b);
    assert_eq!(plain.remainder_links, timed.remainder_links);

    let tl = trace.timeline.as_ref().expect("timeline recorded");
    assert!(!tl.events.is_empty());
    assert!(tl.workers >= 1);
    assert!(tl.active_us > 0);
    let kinds: std::collections::BTreeSet<EventKind> = tl.events.iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&EventKind::PrematchTask), "{kinds:?}");
    assert!(kinds.contains(&EventKind::SubgraphChunk), "{kinds:?}");
    assert!(kinds.contains(&EventKind::Iteration), "{kinds:?}");
    assert!(kinds.contains(&EventKind::RemainderChunk), "{kinds:?}");
    // exactly one δ-boundary mark per iteration span, on the driver
    // lane at the span's start, and one per executed iteration
    let mut marks: Vec<_> = tl
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Iteration)
        .map(|e| (e.worker, e.iteration, e.start_us, e.detail))
        .collect();
    marks.sort_unstable();
    let mut spans: Vec<_> = trace
        .spans
        .iter()
        .filter(|s| s.name == obs::ITERATION_SPAN)
        .map(|s| (0, s.iteration, s.start_us, obs::score_bp(s.delta.unwrap())))
        .collect();
    spans.sort_unstable();
    assert_eq!(marks, spans);
    assert_eq!(marks.len(), timed.iterations.len());
    // derived analytics are well-formed
    assert!(tl.mean_utilization() > 0.0 && tl.mean_utilization() <= 1.0);
    assert!(tl.critical_path_us > 0);
    // every phase-scoped event sits inside its phase's span windows
    trace.validate_pipeline().unwrap();
    trace.validate_basic().unwrap();
}

#[test]
fn disabled_collector_records_nothing() {
    let series = pair();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let obs = Collector::disabled();
    let result = link_traced(old, new, &LinkageConfig::default(), &obs);
    assert!(!result.records.is_empty());
    let trace = obs.finish();
    assert!(!trace.enabled);
    assert!(trace.spans.is_empty());
    assert!(trace.iterations.is_empty());
    assert!(trace.counters.iter().all(|c| c.value == 0));
}

#[test]
fn pooled_subgraph_passes_record_their_scratch_and_every_chunk() {
    // the medium pair has thousands of household candidates per δ step,
    // so at two threads every subgraph pass shares its chunks between
    // two pool workers; the workers' matcher scratch must still be
    // recorded, and each pass cut into its fixed task split
    let series = generate_series(&SimConfig {
        snapshots: 2,
        ..SimConfig::medium()
    });
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let config = LinkageConfig {
        threads: 2,
        ..LinkageConfig::default()
    };
    let obs = Collector::enabled();
    let result = link_traced(old, new, &config, &obs);
    let trace = obs.finish();
    let steps = result.iterations.len();
    assert!(steps >= 2, "schedule must iterate");

    let scratch: Vec<_> = trace
        .footprints
        .iter()
        .filter(|f| f.structure == "subgraph_scratch")
        .collect();
    assert_eq!(
        scratch.len(),
        steps,
        "one subgraph_scratch snapshot per δ step"
    );
    for f in &scratch {
        assert_eq!(f.phase, "subgraph", "{f:?}");
        assert!(f.bytes > 0, "{f:?}");
    }

    let tl = trace.timeline.as_ref().expect("timeline recorded");
    for step in 0..steps {
        let chunks = tl
            .events
            .iter()
            .filter(|e| e.kind == EventKind::SubgraphChunk && e.iteration == Some(step))
            .count();
        // more chunks than workers, at most the fixed split
        assert!((3..=16).contains(&chunks), "step {step}: {chunks} chunks");
    }
}

/// The driver's sections around each scoring pass of one traced run, as
/// `(section, iteration)` in start order.
fn driver_sections(
    config: &LinkageConfig,
) -> (Vec<(DriverSection, Option<usize>)>, usize, obs::RunTrace) {
    let series = pair();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let obs = Collector::enabled();
    let result = link_traced(old, new, config, &obs);
    let trace = obs.finish();
    let tl = trace.timeline.as_ref().expect("timeline recorded");
    let mut driver: Vec<_> = tl
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Driver)
        .map(|e| (e.start_us, e.detail, e.iteration))
        .collect();
    driver.sort_unstable();
    let sections = driver
        .into_iter()
        .map(|(_, code, it)| (DriverSection::from_code(code).expect("a known section"), it))
        .collect();
    (sections, result.iterations.len(), trace)
}

#[test]
fn driver_sections_are_on_the_timeline_and_outside_busy_time() {
    for threads in [1, 2] {
        let config = LinkageConfig {
            threads,
            ..LinkageConfig::default()
        };
        let (sections, steps, trace) = driver_sections(&config);
        let count = |s: DriverSection| sections.iter().filter(|(x, _)| *x == s).count();
        // the first step and the remainder pass (served from the cache,
        // so it blocks nothing) build one head between them; every step
        // clusters; the first step orders its selection and the cache
        let at = format!("{threads} thread(s): {sections:?}");
        assert_eq!(count(DriverSection::Buckets), 1, "{at}");
        assert_eq!(count(DriverSection::Intern), 1, "{at}");
        assert_eq!(count(DriverSection::Cluster), steps, "{at}");
        assert_eq!(count(DriverSection::Order), 2, "{at}");
        assert!(sections.contains(&(DriverSection::Order, Some(0))), "{at}");
        let tl = trace.timeline.as_ref().expect("timeline recorded");
        for e in tl.events.iter().filter(|e| e.kind == EventKind::Driver) {
            assert_eq!(e.worker, 0, "{at}: driver events sit on worker 0");
        }
        // driver time is not worker busy time
        let busy: u64 = tl
            .events
            .iter()
            .filter(|e| e.worker == 0 && e.kind.phase().is_some())
            .map(|e| e.duration_us)
            .sum();
        assert_eq!(tl.utilization[0].busy_us, busy, "{at}");
        trace.validate_pipeline().unwrap();
    }
}

#[test]
fn a_refused_floor_cache_builds_its_buckets_once() {
    // a zero budget refuses the floor cache at the first step, which
    // then scores at its own δ over the refused pass's buckets: one
    // bucket build per step and one for the remainder, but two value
    // fills at the first step
    let config = LinkageConfig {
        memory_budget: Some(0),
        threads: 2,
        ..LinkageConfig::default()
    };
    let (sections, steps, trace) = driver_sections(&config);
    assert_eq!(trace.counter("mem_fallback_pair_cache"), 1);
    let count = |s: DriverSection| sections.iter().filter(|(x, _)| *x == s).count();
    assert_eq!(count(DriverSection::Buckets), steps + 1, "{sections:?}");
    assert_eq!(count(DriverSection::Intern), steps + 2, "{sections:?}");
    // and the mappings are those of an unbudgeted run
    let series = pair();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let plain = link(old, new, &LinkageConfig::default());
    let budgeted = link(old, new, &config);
    assert_eq!(
        plain
            .records
            .iter()
            .collect::<std::collections::BTreeSet<_>>(),
        budgeted
            .records
            .iter()
            .collect::<std::collections::BTreeSet<_>>()
    );
}
