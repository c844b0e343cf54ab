//! The two kinds of run: end-to-end metrics with tracing off, and
//! per-layer metrics from a separate traced run.

use crate::ops::{self, check_outputs, linkage_config, run_cli, run_layered, LayerTimes, Outputs};
use crate::workload::{Inputs, PairBlocking, Workload};
use census_model::{CensusDataset, PersonRecord};
use evolution::{detect_patterns, EvolutionGraph};
use linkage_core::{prematch_with_profiles, CompiledProfile, MemGovernor, Parallelism};
use obs::{Collector, RunTrace};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

/// Fewest timed operations per end-to-end run, however long each takes.
const MIN_SAMPLES: usize = 3;

/// Fewest untraced + traced pairs of operations per traced run.
const MIN_ROUNDS: usize = 2;

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 21;

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Operations attempted and failed in one run, and the outputs of the
/// first operation that passed its check, which every later one must
/// reproduce exactly.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reference: Option<Outputs>,
}

impl Tally {
    /// Run one operation into an emptied `out`, catching panics, then
    /// check what it wrote. Returns the operation's value and its wall
    /// seconds when both the operation and the check succeeded.
    fn attempt<T>(
        &mut self,
        workload: Workload,
        inputs: &Inputs,
        out: &Path,
        op: impl FnOnce() -> Result<T, String>,
    ) -> Option<(T, f64)> {
        self.attempted += 1;
        // a failed operation must not pass on the previous one's files
        let _ = std::fs::remove_dir_all(out);
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(op));
        let wall = start.elapsed().as_secs_f64();
        let checked = match result {
            Err(_) => Err("operation panicked".to_owned()),
            Ok(Err(e)) => Err(e),
            Ok(Ok(value)) => check_outputs(workload, inputs, out).and_then(|o| {
                match self.reference {
                    None => self.reference = Some(o),
                    Some(r) if r != o => {
                        return Err(format!(
                            "outputs differ from the first operation's: digest {:016x} vs {:016x}",
                            o.digest, r.digest
                        ))
                    }
                    Some(_) => {}
                }
                Ok(value)
            }),
        };
        match checked {
            Ok(value) => Some((value, wall)),
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: operation failed: {e}");
                None
            }
        }
    }

    pub fn digest(&self) -> Option<u64> {
        self.reference.map(|o| o.digest)
    }
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest nearest-rank percentile with at least ten samples above
/// it, as `(percentile, value)`; `None` below eleven samples.
pub fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 11 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = n - 10;
    Some((100.0 * rank as f64 / n as f64, v[rank - 1]))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// What an end-to-end run measured.
pub struct EndToEnd {
    pub walls: Vec<f64>,
    pub setups: Vec<f64>,
    pub metrics: Vec<Metric>,
}

/// Make one memory-tracked operation for the heap peak, then time the
/// user-facing operation for `seconds`. `first_setup_s` is the set-up
/// that made `inputs`; `set_up` repeats it and returns its seconds.
pub fn end_to_end(
    workload: Workload,
    inputs: &Inputs,
    out: &Path,
    seconds: f64,
    first_setup_s: f64,
    mut set_up: impl FnMut() -> Result<f64, String>,
    tally: &mut Tally,
) -> Result<EndToEnd, String> {
    // allocation tracking costs time, so the heap peak comes from an
    // untimed operation, which also serves as the warm-up
    let peak = tally
        .attempt(workload, inputs, out, || {
            obs::alloc::start_tracking();
            let result = run_cli(workload, inputs, out);
            let peak = obs::alloc::stop_tracking().peak_live_bytes;
            result.map(|()| peak)
        })
        .map_or(0, |(peak, _)| peak);
    // the set-ups are spread over the window, between operations, so that
    // they see the same machine as the timed operations and not one
    // moment of it
    let mut setups = vec![first_setup_s];
    let start = Instant::now();
    let (mut walls, mut tries) = (Vec::new(), 0);
    while tries < MIN_SAMPLES || start.elapsed().as_secs_f64() < seconds {
        tries += 1;
        if let Some(((), wall)) =
            tally.attempt(workload, inputs, out, || run_cli(workload, inputs, out))
        {
            walls.push(wall);
        }
        let due = (start.elapsed().as_secs_f64() / seconds * SETUP_REPS as f64).ceil() as usize;
        while setups.len() < due.min(SETUP_REPS) {
            setups.push(set_up()?);
        }
    }
    while setups.len() < SETUP_REPS {
        setups.push(set_up()?);
    }

    let wall_s = median(&walls);
    let q = tally.reference.unwrap_or(Outputs {
        digest: 0,
        record_links: 0,
        group_links: 0,
        record_correct: 0,
        record_truth: 0,
        group_correct: 0,
        group_truth: 0,
    });
    let f1 = |correct: u64, found: u64, truth: u64| {
        let (p, r) = (
            ratio(correct as f64, found as f64),
            ratio(correct as f64, truth as f64),
        );
        ratio(2.0 * p * r, p + r)
    };
    let metrics = vec![
        ("wall_s", wall_s, "s"),
        (
            "records_per_s",
            ratio(inputs.total_records() as f64, wall_s),
            "records/s",
        ),
        ("peak_heap_mb", peak as f64 / 1e6, "MB"),
        ("setup_s", median(&setups), "s"),
        (
            "record_f1",
            f1(q.record_correct, q.record_links, q.record_truth),
            "ratio",
        ),
        (
            "record_recall",
            ratio(q.record_correct as f64, q.record_truth as f64),
            "ratio",
        ),
        (
            "group_f1",
            f1(q.group_correct, q.group_links, q.group_truth),
            "ratio",
        ),
        (
            "success_rate",
            ratio(
                tally.attempted.saturating_sub(tally.failed) as f64,
                tally.attempted as f64,
            ),
            "ratio",
        ),
    ];
    Ok(EndToEnd {
        walls,
        setups,
        metrics,
    })
}

/// Work counts of one layered run, which must repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WorkCounts {
    blocked_pairs: u64,
    pairs_scored: u64,
    group_candidates: u64,
    record_links: u64,
    group_links: u64,
    remainder_links: u64,
}

fn counter(traces: &[RunTrace], name: &str) -> u64 {
    traces.iter().map(|t| t.counter(name)).sum()
}

fn work_counts(traces: &[RunTrace]) -> WorkCounts {
    WorkCounts {
        blocked_pairs: counter(traces, "blocking_pairs_generated"),
        pairs_scored: counter(traces, "prematch_pairs_scored"),
        group_candidates: counter(traces, "group_candidates"),
        record_links: counter(traces, "record_links"),
        group_links: counter(traces, "group_links_accepted"),
        remainder_links: counter(traces, "remainder_links"),
    }
}

/// The prematch kernel alone, at δ_low, over every pair of the workload
/// with the operation's parallelism and memory budget. Returns seconds
/// and pairs scored (the distinct age-filtered blocked pairs).
fn prematch_kernel(workload: Workload, inputs: &Inputs) -> (f64, u64) {
    let config = linkage_config(workload);
    let sim = config.sim_func.with_threshold(config.delta_low);
    let (mut seconds, mut pairs) = (0.0, 0);
    for w in inputs.snapshots.windows(2) {
        let old: Vec<&PersonRecord> = w[0].records().iter().collect();
        let new: Vec<&PersonRecord> = w[1].records().iter().collect();
        let old_c: Vec<CompiledProfile> = old.iter().map(|r| sim.compile(r)).collect();
        let new_c: Vec<CompiledProfile> = new.iter().map(|r| sim.compile(r)).collect();
        let old_p: Vec<&CompiledProfile> = old_c.iter().collect();
        let new_p: Vec<&CompiledProfile> = new_c.iter().collect();
        let par = Parallelism {
            shards: config.resolved_shards(old.len() + new.len()),
            ..config.parallelism()
        };
        let obs = Collector::enabled();
        let start = Instant::now();
        black_box(prematch_with_profiles(
            &old,
            &new,
            &old_p,
            &new_p,
            i64::from(w[1].year - w[0].year),
            &sim,
            config.blocking,
            par,
            config.prematch_max_age_gap,
            &MemGovernor::new(config.memory_budget),
            &obs,
        ));
        seconds += start.elapsed().as_secs_f64();
        pairs += obs.finish().counter("prematch_pairs_scored");
    }
    (seconds, pairs)
}

/// Interleave untraced and layered operations for `seconds`, then time
/// the isolated kernels, and derive every per-layer metric.
pub fn per_layer(
    workload: Workload,
    inputs: &Inputs,
    blocking: &[PairBlocking],
    out: &Path,
    seconds: f64,
    tally: &mut Tally,
) -> Vec<Metric> {
    tally.attempt(workload, inputs, out, || run_cli(workload, inputs, out));
    let start = Instant::now();
    let mut untraced = Vec::new();
    let mut layered: Vec<LayerTimes> = Vec::new();
    let mut first: Option<ops::LayeredRun> = None;
    let mut round = 0;
    while round < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        // alternate which side goes first, so drift cancels out
        for traced in [round % 2 == 1, round % 2 == 0] {
            if traced {
                let run =
                    tally.attempt(workload, inputs, out, || run_layered(workload, inputs, out));
                if let Some((run, _)) = run {
                    let expected = first.as_ref().map(|f| work_counts(&f.traces));
                    if expected.is_some_and(|c| c != work_counts(&run.traces)) {
                        tally.failed += 1;
                        eprintln!("perfbench: work counts differ from the first traced run");
                    }
                    layered.push(run.times);
                    first.get_or_insert(run);
                }
            } else if let Some(((), wall)) =
                tally.attempt(workload, inputs, out, || run_cli(workload, inputs, out))
            {
                untraced.push(wall);
            }
        }
        round += 1;
    }
    let Some(first) = first else {
        return Vec::new();
    };
    let med = |f: fn(&LayerTimes) -> f64| median(&layered.iter().map(f).collect::<Vec<_>>());
    let times = LayerTimes {
        csv_read: med(|t| t.csv_read),
        enrich: med(|t| t.enrich),
        prematch: med(|t| t.prematch),
        subgraph: med(|t| t.subgraph),
        selection: med(|t| t.selection),
        remainder: med(|t| t.remainder),
        mapping_write: med(|t| t.mapping_write),
        detect: med(|t| t.detect),
        evolution: med(|t| t.evolution),
        wall: med(|t| t.wall),
    };
    let unaccounted = med(|t| t.wall - t.layers_sum());

    // the layers the operation does not run on this workload, timed alone
    let snapshots: Vec<&CensusDataset> = inputs.snapshots.iter().collect();
    let (evolution_s, detect_s, vertices) = {
        let start = Instant::now();
        let graph = EvolutionGraph::build(&snapshots, &first.mappings);
        let build_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        for (w, (records, groups)) in snapshots.windows(2).zip(&first.mappings) {
            black_box(detect_patterns(w[0], w[1], records, groups));
        }
        let detect_s = start.elapsed().as_secs_f64();
        if workload.is_series() {
            (times.evolution, detect_s, graph.vertex_count())
        } else {
            (build_s, times.detect, graph.vertex_count())
        }
    };
    let (kernel_s, distinct_pairs) = prematch_kernel(workload, inputs);

    let traces = &first.traces;
    let c = |name| counter(traces, name) as f64;
    let csv_bytes: u64 = inputs
        .files
        .iter()
        .filter_map(|f| std::fs::metadata(f).ok())
        .map(|m| m.len())
        .sum();
    let households: usize = inputs
        .snapshots
        .windows(2)
        .map(|w| w[0].household_count() + w[1].household_count())
        .sum();
    let blocking_s: f64 = blocking.iter().map(|b| b.blocking_s).sum();
    let blocked: u64 = blocking.iter().map(|b| b.blocked_pairs).sum();
    let truth_blocked: u64 = blocking.iter().map(|b| b.truth_blocked).sum();
    let truth_pairs: u64 = blocking.iter().map(|b| b.truth_pairs).sum();
    let footprint_mb = |name| {
        traces
            .iter()
            .filter_map(|t| t.max_footprint_bytes(name))
            .max()
            .unwrap_or(0) as f64
            / 1e6
    };
    let shards = traces
        .iter()
        .map(|t| t.shards.len().max(1))
        .max()
        .unwrap_or(1);
    let shard_skew = traces
        .iter()
        .map(|t| {
            let d: Vec<f64> = t.shards.iter().map(|s| s.duration_us as f64).collect();
            let mean = d.iter().sum::<f64>() / d.len().max(1) as f64;
            d.iter().copied().fold(0.0, f64::max) / mean.max(1.0)
        })
        .fold(1.0, f64::max);
    let timelines: Vec<f64> = traces
        .iter()
        .filter_map(|t| t.timeline.as_ref().map(obs::Timeline::mean_utilization))
        .collect();
    let scored = c("prematch_pairs_scored");
    let candidates = c("group_candidates");
    let untraced_s = median(&untraced);

    vec![
        ("model.csv_read_s", times.csv_read, "s"),
        (
            "model.csv_read_mb_per_s",
            ratio(csv_bytes as f64 / 1e6, times.csv_read),
            "MB/s",
        ),
        ("model.mapping_write_s", times.mapping_write, "s"),
        ("graph.enrich_s", times.enrich, "s"),
        (
            "graph.enrich_us_per_household",
            ratio(times.enrich * 1e6, households as f64),
            "us",
        ),
        ("core.blocking_s", blocking_s, "s"),
        ("core.blocked_pairs", blocked as f64, "count"),
        (
            "core.blocking_pairs_per_s",
            ratio(blocked as f64, blocking_s),
            "pairs/s",
        ),
        (
            "core.max_block_pairs",
            blocking
                .iter()
                .map(|b| b.max_block_pairs)
                .max()
                .unwrap_or(0) as f64,
            "count",
        ),
        (
            "core.blocking_recall",
            ratio(truth_blocked as f64, truth_pairs as f64),
            "ratio",
        ),
        ("core.prematch_s", times.prematch, "s"),
        ("core.pairs_scored", scored, "count"),
        (
            "core.prematch_ns_per_pair",
            ratio(kernel_s * 1e9, distinct_pairs as f64),
            "ns",
        ),
        (
            "core.prematch_match_rate",
            ratio(c("prematch_pairs_matched"), scored),
            "ratio",
        ),
        (
            "core.early_exit_rate",
            ratio(c("early_exit_prunes"), scored + c("remainder_pairs_scored")),
            "ratio",
        ),
        (
            "core.batch_dedup_rate",
            1.0 - ratio(c("pair_score_batched_unique"), c("pair_score_batch_probes")),
            "ratio",
        ),
        (
            "core.rescore_ratio",
            ratio(scored, distinct_pairs as f64),
            "ratio",
        ),
        ("core.pair_cache_hits", c("pair_cache_hits"), "count"),
        (
            "core.mem_fallbacks",
            c("mem_fallback_sim_table")
                + c("mem_fallback_pair_cache")
                + c("mem_fallback_decision_caps"),
            "count",
        ),
        ("core.pair_cache_mb", footprint_mb("pair_score_cache"), "MB"),
        ("core.sim_table_mb", footprint_mb("sim_tables"), "MB"),
        ("core.subgraph_s", times.subgraph, "s"),
        ("core.group_candidates", candidates, "count"),
        (
            "core.subgraph_us_per_candidate",
            ratio(times.subgraph * 1e6, c("subgraph_pairs_scored")),
            "us",
        ),
        ("core.selection_s", times.selection, "s"),
        (
            "core.selection_us_per_candidate",
            ratio(times.selection * 1e6, candidates),
            "us",
        ),
        (
            "core.group_accept_rate",
            ratio(c("group_links_accepted"), candidates),
            "ratio",
        ),
        ("core.remainder_s", times.remainder, "s"),
        ("core.remainder_links", c("remainder_links"), "count"),
        ("core.shards", shards as f64, "count"),
        ("core.shard_skew", shard_skew, "ratio"),
        (
            "core.worker_utilization",
            ratio(timelines.iter().sum(), timelines.len() as f64),
            "ratio",
        ),
        (
            "core.delta_iterations",
            traces.iter().map(|t| t.iterations.len()).sum::<usize>() as f64,
            "count",
        ),
        ("evolution.build_s", evolution_s, "s"),
        ("evolution.detect_s", detect_s, "s"),
        ("evolution.vertices", vertices as f64, "count"),
        (
            "obs.trace_overhead_pct",
            (ratio(times.wall, untraced_s) - 1.0) * 100.0,
            "%",
        ),
        ("cli.unaccounted_s", unaccounted, "s"),
    ]
}
