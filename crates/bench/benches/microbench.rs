//! Micro-benchmarks of the pipeline's hot substrates: string similarity,
//! blocking, pre-matching, enrichment and subgraph matching.

use census_bench::bench_context;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hhgraph::{match_subgraph, EnrichedGraph, SubgraphConfig};
use linkage_core::{candidate_pairs, prematch, BlockingStrategy, SimFunc};
use std::hint::black_box;
use std::sync::OnceLock;
use textsim::{qgram_similarity, soundex};

fn ctx() -> &'static census_eval::experiments::ExperimentContext {
    static CTX: OnceLock<census_eval::experiments::ExperimentContext> = OnceLock::new();
    CTX.get_or_init(bench_context)
}

const NAME_PAIRS: [(&str, &str); 5] = [
    ("ashworth", "ashworth"),
    ("elizabeth", "elizabteh"),
    ("pilkington", "smith"),
    ("thistlethwaite", "thistlethwait"),
    ("jo", "john"),
];

fn bench_string_metrics(c: &mut Criterion) {
    let mut group = c.benchmark_group("string_metrics");
    group.throughput(Throughput::Elements(NAME_PAIRS.len() as u64));
    group.bench_function("qgram2", |b| {
        b.iter(|| {
            for (a, x) in NAME_PAIRS {
                black_box(qgram_similarity(a, x, 2));
            }
        })
    });
    group.bench_function("soundex", |b| {
        b.iter(|| {
            for (a, _) in NAME_PAIRS {
                black_box(soundex(a));
            }
        })
    });
    group.finish();
}

fn bench_record_similarity(c: &mut Criterion) {
    let ctx = ctx();
    let (old, new) = ctx.eval_datasets();
    let sim = SimFunc::omega2(0.5);
    let a = &old.records()[0];
    let b2 = &new.records()[0];
    let pa = sim.profile(a);
    let pb = sim.profile(b2);
    c.bench_function("agg_sim_profiles", |b| {
        b.iter(|| black_box(sim.aggregate_profiles(&pa, &pb)))
    });
    let ca = sim.compile(a);
    let cb = sim.compile(b2);
    c.bench_function("agg_sim_compiled", |b| {
        b.iter(|| black_box(sim.aggregate_compiled(&ca, &cb)))
    });
}

/// Naive vs compiled pair scoring over a `SimConfig::small()` corpus —
/// the acceptance target is ≥3× on the compiled sweep.
fn bench_pair_scoring_naive_vs_compiled(c: &mut Criterion) {
    let series = census_synth::generate_series(&census_synth::SimConfig::small());
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let old_recs: Vec<_> = old.records().iter().take(120).collect();
    let new_recs: Vec<_> = new.records().iter().take(120).collect();
    let sim = SimFunc::omega2(0.7);

    let old_naive: Vec<Vec<String>> = old_recs.iter().map(|r| sim.profile(r)).collect();
    let new_naive: Vec<Vec<String>> = new_recs.iter().map(|r| sim.profile(r)).collect();
    let old_comp: Vec<_> = old_recs.iter().map(|r| sim.compile(r)).collect();
    let new_comp: Vec<_> = new_recs.iter().map(|r| sim.compile(r)).collect();

    let mut group = c.benchmark_group("pair_scoring");
    group.throughput(Throughput::Elements(
        (old_recs.len() * new_recs.len()) as u64,
    ));
    group.sample_size(10);
    group.bench_function("naive", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for pa in &old_naive {
                for pb in &new_naive {
                    let s = sim.aggregate_profiles(pa, pb);
                    acc += usize::from(s >= sim.threshold);
                }
            }
            black_box(acc)
        })
    });
    group.bench_function("compiled", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for pa in &old_comp {
                for pb in &new_comp {
                    let s = sim.aggregate_compiled(pa, pb);
                    acc += usize::from(s >= sim.threshold);
                }
            }
            black_box(acc)
        })
    });
    group.bench_function("compiled_early_exit", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for pa in &old_comp {
                for pb in &new_comp {
                    acc += usize::from(sim.matches_compiled(pa, pb).is_some());
                }
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_blocking(c: &mut Criterion) {
    let ctx = ctx();
    let (old, new) = ctx.eval_datasets();
    let old_refs: Vec<_> = old.records().iter().collect();
    let new_refs: Vec<_> = new.records().iter().collect();
    let mut group = c.benchmark_group("blocking");
    group.throughput(Throughput::Elements(
        (old_refs.len() + new_refs.len()) as u64,
    ));
    group.sample_size(20);
    group.bench_function("standard", |b| {
        b.iter(|| {
            black_box(candidate_pairs(
                &old_refs,
                &new_refs,
                10,
                BlockingStrategy::Standard,
            ))
        })
    });
    group.finish();
}

fn bench_prematch(c: &mut Criterion) {
    let ctx = ctx();
    let (old, new) = ctx.eval_datasets();
    let old_refs: Vec<_> = old.records().iter().collect();
    let new_refs: Vec<_> = new.records().iter().collect();
    let sim = SimFunc::omega2(0.7);
    let mut group = c.benchmark_group("prematch");
    group.sample_size(10);
    for threads in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("threads", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    black_box(prematch(
                        &old_refs,
                        &new_refs,
                        10,
                        &sim,
                        BlockingStrategy::Standard,
                        threads,
                        Some(3),
                    ))
                })
            },
        );
    }
    group.finish();
}

fn bench_enrichment(c: &mut Criterion) {
    let ctx = ctx();
    let (old, _) = ctx.eval_datasets();
    let mut group = c.benchmark_group("enrichment");
    group.throughput(Throughput::Elements(old.household_count() as u64));
    group.bench_function("build_all", |b| {
        b.iter(|| black_box(EnrichedGraph::build_all(old)))
    });
    group.finish();
}

fn bench_subgraph_matching(c: &mut Criterion) {
    let ctx = ctx();
    let (old, new) = ctx.eval_datasets();
    // pick the largest household of each side for a worst-case-ish match
    let big = |ds: &census_model::CensusDataset| {
        ds.households()
            .iter()
            .max_by_key(|h| h.size())
            .map(|h| h.id)
            .expect("non-empty")
    };
    let g_old = EnrichedGraph::build(old, big(old)).expect("exists");
    let g_new = EnrichedGraph::build(new, big(new)).expect("exists");
    // labels that pair members positionally (dense synthetic labels)
    let label = |idx: Option<usize>| idx.map(|i| i as u64);
    let config = SubgraphConfig::default();
    c.bench_function("subgraph_match_largest_households", |b| {
        b.iter(|| {
            black_box(match_subgraph(
                &g_old,
                &g_new,
                |r| label(g_old.index_of(r)),
                |r| label(g_new.index_of(r)),
                |_, _| true,
                &config,
            ))
        })
    });
}

criterion_group!(
    micro,
    bench_string_metrics,
    bench_record_similarity,
    bench_pair_scoring_naive_vs_compiled,
    bench_blocking,
    bench_prematch,
    bench_enrichment,
    bench_subgraph_matching
);
criterion_main!(micro);
