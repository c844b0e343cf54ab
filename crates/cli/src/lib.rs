//! Library backing the `census-linkage` command-line tool.
//!
//! The CLI drives the full pipeline over CSV files on disk:
//!
//! ```text
//! census-linkage generate --out DIR [--scale small|medium|paper] [--seed N]
//! census-linkage stats FILE.csv --year YEAR
//! census-linkage link OLD.csv NEW.csv --old-year Y --new-year Y --out DIR
//!                [--threads N] [--delta-low D] [--mem-budget BYTES]
//!                [--trace-out FILE.json] [--timeline-out FILE.json] [--trace-mem]
//!                [--decisions-out DIR] [--truth DIR|PREFIX] [--progress] [--verbose]
//! census-linkage evolve FILE.csv... --start-year Y [--interval N] [--out DIR]
//!                [--threads N] [--delta-low D] [--mem-budget BYTES]
//!                [--trace-out FILE.json] [--verbose]
//! census-linkage trace-check FILE.json
//! census-linkage trace-diff OLD.json NEW.json [--fail-on SPEC]...
//! census-linkage timeline TRACE.json [--min-utilization PCT]
//! census-linkage quality-report TRACE.json
//! census-linkage explain link --decisions DIR --group OLD:NEW
//! census-linkage explain miss OLD.csv NEW.csv --old-year Y --new-year Y
//!                --truth DIR|PREFIX --record OLD:NEW
//! ```
//!
//! All subcommand logic — including argument parsing, via [`run_cli`] —
//! lives here so it is unit-testable; `main.rs` only forwards
//! `std::env::args`.

#![warn(missing_docs)]

use census_model::csv::{
    read_dataset, read_group_mapping, read_record_mapping, write_dataset, write_group_mapping,
    write_record_mapping,
};
use census_model::{CensusDataset, GroupMapping, RecordMapping};
use census_synth::{generate_series, SimConfig};
use evolution::{detect_patterns, largest_component, preserve_chain_counts, EvolutionGraph};
use linkage_core::{link_traced, LinkageConfig, MemGovernor};
use obs::diff::{compare, Threshold};
use obs::{
    Collector, Counter, DecisionConfig, DecisionRecord, MultiTrace, Progress, RunTrace, TraceSink,
    TruthConfig, PIPELINE_PHASES,
};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// CLI error: message plus exit code 1.
pub type CliError = String;

fn io_err(context: &str, e: impl std::fmt::Display) -> CliError {
    format!("{context}: {e}")
}

/// Observability and tuning options shared by `link` and `evolve`.
#[derive(Debug, Clone, Default)]
pub struct LinkOptions {
    /// Worker threads for the parallel scoring stages (`--threads`, 1 to
    /// 256).
    pub threads: Option<usize>,
    /// Ignored. `--shards` is still parsed (with a warning that it has
    /// no effect) so old command lines keep working; there is one
    /// unsharded execution path.
    pub shards: Option<usize>,
    /// Override of the iterative schedule's lower bound (`--delta-low`).
    pub delta_low: Option<f64>,
    /// Write the pipeline trace as JSON to this file (`--trace-out`).
    pub trace_out: Option<PathBuf>,
    /// Export the run's per-worker execution timeline as Chrome
    /// trace-event JSON (loadable in Perfetto / `chrome://tracing`) to
    /// this file (`--timeline-out`, `link` only). Every traced run
    /// records the timeline: it also lands in the `--trace-out` JSON and
    /// the `--verbose` phase table.
    pub timeline_out: Option<PathBuf>,
    /// Record decision provenance and write it as JSONL into this
    /// directory (`--decisions-out`, `link` only).
    pub decisions_out: Option<PathBuf>,
    /// Load ground-truth mappings and embed the quality section — P/R/F1
    /// plus the recall-loss funnel — in the trace (`--truth DIR|PREFIX`,
    /// `link` only). A directory resolves to
    /// `DIR/truth_records_{Y1}_{Y2}.csv` and
    /// `DIR/truth_groups_{Y1}_{Y2}.csv` (what `generate` writes); any
    /// other path is used as a filename prefix. Truth telemetry never
    /// changes the produced mappings.
    pub truth: Option<PathBuf>,
    /// Memory budget in bytes for the run's caches (`--mem-budget`);
    /// over-budget caches degrade to recomputation, never changing the
    /// linkage output.
    pub mem_budget: Option<u64>,
    /// Track allocations per phase and embed the memory table plus live
    /// footprint snapshots in the trace (`--trace-mem`, `link` only).
    pub trace_mem: bool,
    /// Emit throttled live progress lines on stderr (`--progress`,
    /// `link` only).
    pub progress: bool,
    /// Print the human-readable phase table (`--verbose`).
    pub verbose: bool,
}

/// The most worker threads `--threads` may ask for; a larger count is
/// refused as a CLI error. The scoring pool starts at most one OS thread
/// per task, and a pass cuts at most 16 tasks, so threads beyond 16 add
/// no parallelism.
const MAX_THREADS: usize = 256;

impl LinkOptions {
    fn tracing_enabled(&self) -> bool {
        self.trace_out.is_some() || self.verbose
    }

    /// Apply the overrides to a linkage configuration, validating them as
    /// CLI errors rather than letting `LinkageConfig::validate` panic.
    fn apply(&self, config: &mut LinkageConfig) -> Result<(), CliError> {
        if let Some(threads) = self.threads {
            if threads == 0 {
                return Err("--threads must be at least 1".into());
            }
            if threads > MAX_THREADS {
                return Err(format!(
                    "--threads must be at most {MAX_THREADS}, got {threads}"
                ));
            }
            config.threads = threads;
        }
        if let Some(delta_low) = self.delta_low {
            if !(0.0..=1.0).contains(&delta_low) {
                return Err(format!(
                    "--delta-low must be within [0, 1], got {delta_low}"
                ));
            }
            if delta_low > config.delta_high + 1e-9 {
                return Err(format!(
                    "--delta-low {delta_low} exceeds the schedule's δ_high {}",
                    config.delta_high
                ));
            }
            config.delta_low = delta_low;
        }
        if let Some(budget) = self.mem_budget {
            config.memory_budget = Some(budget);
        }
        Ok(())
    }
}

/// Parse a byte count with an optional binary `K`/`M`/`G` suffix
/// (`512M` = 512 × 1024²).
fn parse_bytes(s: &str) -> Result<u64, CliError> {
    let t = s.trim();
    let (digits, unit) = match t.chars().last() {
        Some('k' | 'K') => (&t[..t.len() - 1], 1u64 << 10),
        Some('m' | 'M') => (&t[..t.len() - 1], 1u64 << 20),
        Some('g' | 'G') => (&t[..t.len() - 1], 1u64 << 30),
        _ => (t, 1),
    };
    digits
        .parse::<u64>()
        .ok()
        .and_then(|n| n.checked_mul(unit))
        .ok_or_else(|| format!("bad byte count {s:?} (expected e.g. 1048576, 512M or 2G)"))
}

/// Resolve a `--truth DIR|PREFIX` spec to the record and group truth CSV
/// paths for one year pair: a directory uses the filenames `generate`
/// writes, anything else is a literal filename prefix (so
/// `--truth data/truth_` finds `data/truth_records_1851_1861.csv`).
fn resolve_truth_paths(spec: &Path, old_year: i32, new_year: i32) -> (PathBuf, PathBuf) {
    if spec.is_dir() {
        (
            spec.join(format!("truth_records_{old_year}_{new_year}.csv")),
            spec.join(format!("truth_groups_{old_year}_{new_year}.csv")),
        )
    } else {
        let prefix = spec.to_string_lossy();
        (
            PathBuf::from(format!("{prefix}records_{old_year}_{new_year}.csv")),
            PathBuf::from(format!("{prefix}groups_{old_year}_{new_year}.csv")),
        )
    }
}

fn load_truth_config(spec: &Path, old_year: i32, new_year: i32) -> Result<TruthConfig, CliError> {
    let (rec_path, grp_path) = resolve_truth_paths(spec, old_year, new_year);
    let f = File::open(&rec_path)
        .map_err(|e| io_err(&format!("opening truth records {}", rec_path.display()), e))?;
    let records = read_record_mapping(BufReader::new(f))
        .map_err(|e| io_err(&format!("parsing {}", rec_path.display()), e))?;
    let f = File::open(&grp_path)
        .map_err(|e| io_err(&format!("opening truth groups {}", grp_path.display()), e))?;
    let groups = read_group_mapping(BufReader::new(f))
        .map_err(|e| io_err(&format!("parsing {}", grp_path.display()), e))?;
    Ok(TruthConfig {
        record_pairs: records.iter().map(|(o, n)| (o.raw(), n.raw())).collect(),
        group_pairs: groups.iter().map(|(o, n)| (o.raw(), n.raw())).collect(),
    })
}

fn write_trace_json<T: serde::Serialize>(path: &Path, value: &T) -> Result<(), CliError> {
    let text = serde_json::to_string_pretty(value).map_err(|e| io_err("serializing trace", e))?;
    std::fs::write(path, text + "\n").map_err(|e| io_err("writing trace file", e))
}

/// `generate`: write a synthetic census series (and its truth mappings)
/// as CSV files into `out`.
///
/// Returns the written file paths.
///
/// # Errors
///
/// Fails on I/O errors or unknown scale names.
pub fn cmd_generate(out: &Path, scale: &str, seed: Option<u64>) -> Result<Vec<PathBuf>, CliError> {
    let mut config = match scale {
        "small" => {
            let mut c = SimConfig::small();
            c.snapshots = 6;
            c
        }
        "medium" => SimConfig::medium(),
        "paper" => SimConfig::paper_scale(),
        other => return Err(format!("unknown scale {other:?} (small|medium|paper)")),
    };
    if let Some(s) = seed {
        config.seed = s;
    }
    std::fs::create_dir_all(out).map_err(|e| io_err("creating output dir", e))?;
    let series = generate_series(&config);
    let mut written = Vec::new();
    for ds in &series.snapshots {
        let path = out.join(format!("census_{}.csv", ds.year));
        let f = File::create(&path).map_err(|e| io_err("creating snapshot file", e))?;
        write_dataset(ds, BufWriter::new(f)).map_err(|e| io_err("writing snapshot", e))?;
        written.push(path);
    }
    for (i, w) in series.snapshots.windows(2).enumerate() {
        let truth = series.truth_between(i, i + 1).expect("in range");
        let path = out.join(format!("truth_records_{}_{}.csv", w[0].year, w[1].year));
        let f = File::create(&path).map_err(|e| io_err("creating truth file", e))?;
        write_record_mapping(&truth.records, BufWriter::new(f))
            .map_err(|e| io_err("writing truth records", e))?;
        written.push(path);
        let path = out.join(format!("truth_groups_{}_{}.csv", w[0].year, w[1].year));
        let f = File::create(&path).map_err(|e| io_err("creating truth file", e))?;
        write_group_mapping(&truth.groups, BufWriter::new(f))
            .map_err(|e| io_err("writing truth groups", e))?;
        written.push(path);
    }
    Ok(written)
}

/// `stats`: render the Table 1 row of one snapshot.
///
/// # Errors
///
/// Fails on I/O or parse errors.
pub fn cmd_stats(file: &Path, year: i32) -> Result<String, CliError> {
    let ds = load(file, year)?;
    let s = ds.stats();
    let mut out = String::new();
    let _ = writeln!(out, "file:        {}", file.display());
    let _ = writeln!(out, "year:        {}", s.year);
    let _ = writeln!(out, "records:     {}", s.records);
    let _ = writeln!(out, "households:  {}", s.households);
    let _ = writeln!(out, "|fn+sn|:     {}", s.unique_names);
    let _ = writeln!(out, "missing:     {:.2}%", s.missing_ratio * 100.0);
    let _ = writeln!(out, "ambiguity:   {:.2}", s.name_ambiguity);
    let _ = writeln!(out, "mean hh:     {:.2}", s.mean_household_size);
    Ok(out)
}

/// `link`: run the full iterative linkage over two snapshot CSVs; write
/// `record_mapping.csv` and `group_mapping.csv` into `out` and return a
/// human-readable summary. With `opts.trace_out` the pipeline trace is
/// written as JSON; with `opts.verbose` the phase table is appended to
/// the summary. With `opts.decisions_out` the decision log is written
/// as `decisions.jsonl` into that directory, for `explain`.
///
/// # Errors
///
/// Fails on I/O or parse errors, or invalid option values.
pub fn cmd_link(
    old_file: &Path,
    new_file: &Path,
    old_year: i32,
    new_year: i32,
    out: &Path,
    opts: &LinkOptions,
) -> Result<String, CliError> {
    let mut config = LinkageConfig::default();
    opts.apply(&mut config)?;
    let loaded = load_all(
        &[(old_file, old_year), (new_file, new_year)],
        config.threads,
    )?;
    let Ok([old, new]) = <[CensusDataset; 2]>::try_from(loaded) else {
        unreachable!("two files load as two datasets");
    };
    let mut obs = Collector::new(
        opts.tracing_enabled()
            || opts.decisions_out.is_some()
            || opts.progress
            || opts.timeline_out.is_some()
            || opts.truth.is_some(),
    );
    if opts.trace_mem {
        obs = obs.with_memory();
    }
    if opts.progress {
        obs = obs.with_progress(Progress::stderr());
    }
    if let Some(spec) = &opts.truth {
        obs = obs.with_truth(load_truth_config(spec, old_year, new_year)?);
    }
    if opts.decisions_out.is_some() {
        let (caps, tightened) =
            MemGovernor::new(config.memory_budget).decision_caps(DecisionConfig::default());
        obs = obs.with_decisions(caps);
        if tightened {
            obs.add(Counter::MemFallbackDecisionCaps, 1);
            obs.event(
                "mem_fallback_decision_caps",
                format!(
                    "decision log capped at {} links / {} rejections to fit the budget share",
                    caps.max_links, caps.max_rejections
                ),
            );
        }
    }
    let result = link_traced(&old, &new, &config, &obs);
    std::fs::create_dir_all(out).map_err(|e| io_err("creating output dir", e))?;
    let rec_path = out.join("record_mapping.csv");
    let f = File::create(&rec_path).map_err(|e| io_err("creating mapping file", e))?;
    write_record_mapping(&result.records, BufWriter::new(f))
        .map_err(|e| io_err("writing record mapping", e))?;
    let grp_path = out.join("group_mapping.csv");
    let f = File::create(&grp_path).map_err(|e| io_err("creating mapping file", e))?;
    write_group_mapping(&result.groups, BufWriter::new(f))
        .map_err(|e| io_err("writing group mapping", e))?;

    let patterns = detect_patterns(&old, &new, &result.records, &result.groups);
    let c = patterns.counts;
    let mut summary = String::new();
    let _ = writeln!(
        summary,
        "linked {} record pairs and {} household pairs in {} iteration(s)",
        result.records.len(),
        result.groups.len(),
        result.iterations.len()
    );
    let _ = writeln!(
        summary,
        "profile cache: {} compiled, {} reused across iterations",
        result.profiles_built, result.profiles_reused
    );
    let _ = writeln!(
        summary,
        "patterns: {} preserved households, {} moves, {} splits, {} merges, +{} new, -{} gone",
        c.preserve_g, c.moves, c.splits, c.merges, c.add_g, c.remove_g
    );
    let _ = writeln!(summary, "wrote {}", rec_path.display());
    let _ = writeln!(summary, "wrote {}", grp_path.display());
    if let Some(dir) = &opts.decisions_out {
        let log = obs.take_decisions().expect("decisions were enabled");
        std::fs::create_dir_all(dir).map_err(|e| io_err("creating decisions dir", e))?;
        let path = dir.join("decisions.jsonl");
        let text = log
            .to_jsonl()
            .map_err(|e| io_err("serializing decisions", e))?;
        std::fs::write(&path, text).map_err(|e| io_err("writing decisions file", e))?;
        let _ = writeln!(
            summary,
            "wrote {} ({} decision(s), {} dropped)",
            path.display(),
            log.len(),
            log.dropped_links + log.dropped_rejections
        );
    }
    if obs.is_enabled() {
        // finishing also stops allocation tracking when --trace-mem
        // started it, so always finish an enabled collector
        let trace = obs.finish();
        if let Some(q) = &trace.quality {
            let [p, r, f] = q.records.quality.percent_row();
            let _ = writeln!(
                summary,
                "quality: records P {p}% R {r}% F1 {f}%  ({} of {} true pair(s) recovered)",
                q.funnel.recovered(),
                q.funnel.total
            );
            let [p, r, f] = q.groups.quality.percent_row();
            let _ = writeln!(summary, "quality: groups  P {p}% R {r}% F1 {f}%");
            let _ = writeln!(
                summary,
                "quality: losses — never blocked {}, age filter {}, below δ floor {}, \
                 selection {}, remainder {}, missing endpoint {}",
                q.funnel.not_blocked,
                q.funnel.age_filtered,
                q.funnel.below_delta,
                q.funnel.lost_selection,
                q.funnel.lost_remainder,
                q.funnel.missing_endpoint
            );
        }
        if let Some(path) = &opts.trace_out {
            write_trace_json(path, &trace)?;
            let _ = writeln!(summary, "wrote {}", path.display());
        }
        if let Some(path) = &opts.timeline_out {
            let text = chrome_trace_json(&trace)?;
            std::fs::write(path, text).map_err(|e| io_err("writing timeline file", e))?;
            let _ = writeln!(summary, "wrote {}", path.display());
        }
        if opts.verbose {
            let _ = writeln!(summary, "\n{}", trace.phase_table());
        }
    }
    Ok(summary)
}

/// Render a recorded timeline as Chrome trace-event JSON, loadable in
/// Perfetto or `chrome://tracing`: one *process* per pipeline phase
/// (plus process 0 for scheduler lanes — δ-iteration markers, queue-wait
/// gaps and driver sections, named `driver:<section>`), one *thread* per
/// worker, `"X"` duration events in
/// microseconds and `"i"` instants for the iteration boundaries.
///
/// # Errors
///
/// Fails when the trace carries no timeline section.
fn chrome_trace_json(trace: &RunTrace) -> Result<String, CliError> {
    use serde_json::{json, Value};
    let tl = trace
        .timeline
        .as_ref()
        .ok_or("trace has no timeline section")?;
    let phase_pid = |kind: obs::EventKind| -> u64 {
        kind.phase().map_or(0, |p| {
            PIPELINE_PHASES
                .iter()
                .position(|&q| q == p)
                .map_or(0, |i| i as u64 + 1)
        })
    };
    let mut events: Vec<Value> = Vec::new();
    // process names: 0 = scheduler, 1..=5 = the pipeline phases
    events.push(json!({
        "name": "process_name", "ph": "M", "pid": 0u64,
        "args": {"name": "scheduler"}
    }));
    for (i, phase) in PIPELINE_PHASES.iter().enumerate() {
        let pid = i as u64 + 1;
        events.push(json!({
            "name": "process_name", "ph": "M", "pid": pid,
            "args": {"name": (*phase)}
        }));
    }
    // thread names for every (process, worker) lane that has events
    let mut lanes: Vec<(u64, u64)> = tl
        .events
        .iter()
        .map(|e| (phase_pid(e.kind), u64::from(e.worker)))
        .collect();
    lanes.sort_unstable();
    lanes.dedup();
    for &(pid, tid) in &lanes {
        let name = format!("worker {tid}");
        events.push(json!({
            "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": name}
        }));
    }
    for e in &tl.events {
        let pid = phase_pid(e.kind);
        let tid = u64::from(e.worker);
        // a driver event is named after its section
        let name = match obs::DriverSection::from_code(e.detail) {
            Some(section) if e.kind == obs::EventKind::Driver => {
                format!("{}:{}", e.kind.name(), section.name())
            }
            _ => e.kind.name().to_owned(),
        };
        if e.kind.is_instant() {
            events.push(json!({
                "name": (name), "cat": "timeline", "ph": "i", "s": "g",
                "ts": (e.start_us), "pid": pid, "tid": tid,
                "args": {"detail": (e.detail), "iteration": (e.iteration)}
            }));
        } else {
            events.push(json!({
                "name": (name), "cat": "timeline", "ph": "X",
                "ts": (e.start_us), "dur": (e.duration_us), "pid": pid, "tid": tid,
                "args": {"detail": (e.detail), "iteration": (e.iteration)}
            }));
        }
    }
    let doc = json!({
        "traceEvents": events,
        "displayTimeUnit": "ms"
    });
    serde_json::to_string_pretty(&doc)
        .map(|t| t + "\n")
        .map_err(|e| io_err("serializing timeline", e))
}

/// `evolve`: link a whole series of snapshot CSVs and print the evolution
/// analysis (Fig. 6 counts, Table 8 chains, largest component). With
/// `opts.trace_out` a multi-run trace (one linkage run per pair plus the
/// evolution-graph build) is written as JSON.
///
/// # Errors
///
/// Fails on I/O or parse errors, when fewer than two files are given, or
/// on invalid option values.
pub fn cmd_evolve(
    files: &[PathBuf],
    start_year: i32,
    interval: i32,
    out: Option<&Path>,
    opts: &LinkOptions,
) -> Result<String, CliError> {
    if files.len() < 2 {
        return Err("evolve needs at least two snapshot files".into());
    }
    if opts.decisions_out.is_some() {
        return Err("--decisions-out is only supported by link".into());
    }
    if opts.trace_mem {
        return Err("--trace-mem is only supported by link".into());
    }
    if opts.progress {
        return Err("--progress is only supported by link".into());
    }
    if opts.timeline_out.is_some() {
        return Err("--timeline-out is only supported by link".into());
    }
    if opts.truth.is_some() {
        return Err("--truth is only supported by link".into());
    }
    let mut config = LinkageConfig::default();
    opts.apply(&mut config)?;
    let years: Vec<(&Path, i32)> = files
        .iter()
        .enumerate()
        .map(|(i, file)| (file.as_path(), start_year + interval * i as i32))
        .collect();
    let snapshots = load_all(&years, config.threads)?;
    let mut sink = if opts.tracing_enabled() {
        TraceSink::enabled()
    } else {
        TraceSink::disabled()
    };
    let mut mappings: Vec<(RecordMapping, GroupMapping)> = Vec::new();
    for w in snapshots.windows(2) {
        let obs = sink.collector();
        let r = link_traced(&w[0], &w[1], &config, &obs);
        sink.record(format!("link {}→{}", w[0].year, w[1].year), &obs);
        mappings.push((r.records, r.groups));
    }
    let refs: Vec<&CensusDataset> = snapshots.iter().collect();
    let graph = {
        let obs = sink.collector();
        let graph = EvolutionGraph::build_traced(&refs, &mappings, &obs);
        sink.record("evolution", &obs);
        graph
    };

    let mut summary = String::new();
    let _ = writeln!(
        summary,
        "pair        preserve  add  remove  move  split  merge"
    );
    for (i, p) in graph.pair_patterns.iter().enumerate() {
        let c = p.counts;
        let _ = writeln!(
            summary,
            "{}→{}  {:8} {:4} {:7} {:5} {:6} {:6}",
            refs[i].year,
            refs[i + 1].year,
            c.preserve_g,
            c.add_g,
            c.remove_g,
            c.moves,
            c.splits,
            c.merges
        );
    }
    let chains = preserve_chain_counts(&graph);
    let _ = writeln!(summary, "\npreserved households per interval:");
    for (k, count) in chains.iter().enumerate() {
        let _ = writeln!(summary, "  {} years: {count}", interval * (k as i32 + 1));
    }
    let (components, largest, total) = largest_component(&graph);
    let _ = writeln!(
        summary,
        "\n{components} connected components; largest spans {largest}/{total} households ({:.1}%)",
        largest as f64 / total.max(1) as f64 * 100.0
    );

    if let Some(dir) = out {
        std::fs::create_dir_all(dir).map_err(|e| io_err("creating output dir", e))?;
        for (i, (records, groups)) in mappings.iter().enumerate() {
            let tag = format!("{}_{}", refs[i].year, refs[i + 1].year);
            let f = File::create(dir.join(format!("record_mapping_{tag}.csv")))
                .map_err(|e| io_err("creating mapping file", e))?;
            write_record_mapping(records, BufWriter::new(f))
                .map_err(|e| io_err("writing record mapping", e))?;
            let f = File::create(dir.join(format!("group_mapping_{tag}.csv")))
                .map_err(|e| io_err("creating mapping file", e))?;
            write_group_mapping(groups, BufWriter::new(f))
                .map_err(|e| io_err("writing group mapping", e))?;
        }
        let _ = writeln!(summary, "mappings written to {}", dir.display());
    }
    if opts.tracing_enabled() {
        let multi = sink.into_multi();
        if let Some(path) = &opts.trace_out {
            write_trace_json(path, &multi)?;
            let _ = writeln!(summary, "wrote {}", path.display());
        }
        if opts.verbose {
            for run in &multi.runs {
                let _ = writeln!(
                    summary,
                    "\n== {} ==\n{}",
                    run.label,
                    run.trace.phase_table()
                );
            }
        }
    }
    Ok(summary)
}

/// `evaluate`: compare a found mapping CSV against a truth mapping CSV
/// and print precision / recall / F-measure. `kind` is "records" or
/// "groups".
///
/// # Errors
///
/// Fails on I/O or parse errors or an unknown kind.
pub fn cmd_evaluate(found: &Path, truth: &Path, kind: &str) -> Result<String, CliError> {
    let open = |p: &Path| File::open(p).map_err(|e| io_err(&format!("opening {}", p.display()), e));
    let quality = match kind {
        "records" => {
            let f = read_record_mapping(BufReader::new(open(found)?))
                .map_err(|e| io_err("parsing found mapping", e))?;
            let t = read_record_mapping(BufReader::new(open(truth)?))
                .map_err(|e| io_err("parsing truth mapping", e))?;
            census_eval::evaluate_record_mapping(&f, &t)
        }
        "groups" => {
            let f = read_group_mapping(BufReader::new(open(found)?))
                .map_err(|e| io_err("parsing found mapping", e))?;
            let t = read_group_mapping(BufReader::new(open(truth)?))
                .map_err(|e| io_err("parsing truth mapping", e))?;
            census_eval::evaluate_group_mapping(&f, &t)
        }
        other => return Err(format!("unknown kind {other:?} (records|groups)")),
    };
    Ok(format!(
        "precision: {:.2}%
recall:    {:.2}%
f-measure: {:.2}%
",
        quality.precision * 100.0,
        quality.recall * 100.0,
        quality.f1 * 100.0
    ))
}

/// `trace-check`: validate a trace JSON file written by `link --trace-out`
/// (a single run) or `evolve --trace-out` / `repro --traces` (multi-run).
///
/// Checks that every pipeline phase is present, all durations are
/// non-negative, and per-phase times sum to at most the total wall time.
///
/// # Errors
///
/// Fails on I/O errors, malformed JSON, or a trace violating the
/// invariants above.
pub fn cmd_trace_check(file: &Path) -> Result<String, CliError> {
    let text = std::fs::read_to_string(file)
        .map_err(|e| io_err(&format!("reading {}", file.display()), e))?;
    if let Ok(multi) = serde_json::from_str::<MultiTrace>(&text) {
        multi
            .validate()
            .map_err(|e| format!("invalid multi-run trace: {e}"))?;
        return Ok(format!(
            "trace OK: {} run(s), {} span(s) in total",
            multi.runs.len(),
            multi
                .runs
                .iter()
                .map(|r| r.trace.spans.len())
                .sum::<usize>()
        ));
    }
    let trace =
        serde_json::from_str::<RunTrace>(&text).map_err(|e| io_err("parsing trace JSON", e))?;
    if trace.iterations.is_empty() {
        trace.validate_basic()
    } else {
        trace.validate_pipeline()
    }
    .map_err(|e| format!("invalid trace: {e}"))?;
    Ok(format!(
        "trace OK: {} phase(s), {} iteration(s), {} span(s)",
        trace.phases.len(),
        trace.iterations.len(),
        trace.spans.len()
    ))
}

fn load_run_trace(file: &Path) -> Result<RunTrace, CliError> {
    let text = std::fs::read_to_string(file)
        .map_err(|e| io_err(&format!("reading {}", file.display()), e))?;
    if let Ok(trace) = serde_json::from_str::<RunTrace>(&text) {
        return Ok(trace);
    }
    if serde_json::from_str::<MultiTrace>(&text).is_ok() {
        return Err(format!(
            "{} is a multi-run trace; trace-diff compares single-run traces \
             (written by `link --trace-out`)",
            file.display()
        ));
    }
    Err(format!("{}: not a valid trace JSON file", file.display()))
}

/// `trace-diff`: compare two single-run trace JSON files — counter
/// deltas, histogram distribution shift (normalised L1), phase-time
/// ratios, memory, footprints, timeline utilization and quality — and
/// render a report. Each `--fail-on` spec (see [`Threshold`]) turns a
/// regression past the threshold into a nonzero exit, for CI gating.
///
/// # Errors
///
/// Fails on I/O or parse errors, invalid `--fail-on` specs, or — with
/// the rendered report — when any threshold is violated.
pub fn cmd_trace_diff(
    old_file: &Path,
    new_file: &Path,
    fail_on: &[String],
) -> Result<String, CliError> {
    let thresholds = fail_on
        .iter()
        .map(|s| Threshold::parse(s))
        .collect::<Result<Vec<_>, _>>()?;
    let old = load_run_trace(old_file)?;
    let new = load_run_trace(new_file)?;
    let report = compare(&old, &new);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace-diff {} -> {}",
        old_file.display(),
        new_file.display()
    );
    let _ = writeln!(out, "{}", report.render());
    if report.is_identical() {
        let _ = writeln!(out, "traces are identical (ignoring wall times)");
    }
    let violations = report.check(&thresholds);
    if violations.is_empty() {
        return Ok(out);
    }
    for v in &violations {
        let _ = writeln!(out, "FAIL {}: {}", v.spec, v.message);
    }
    let _ = writeln!(out, "{} threshold(s) violated", violations.len());
    Err(out)
}

/// `quality-report`: read a trace JSON file written by `link --trace-out`
/// for a run made with `--truth`, re-validate the quality section's
/// funnel invariants, and render the full quality report — P/R/F1 at
/// both levels, the recall-loss funnel with its blocking and selection
/// detail, and the per-iteration / per-band strata.
///
/// # Errors
///
/// Fails on I/O or parse errors, on traces without a quality section, or
/// on a section violating the funnel invariants.
pub fn cmd_quality_report(file: &Path) -> Result<String, CliError> {
    let trace = load_run_trace(file)?;
    let Some(q) = &trace.quality else {
        return Err(format!(
            "{} has no quality section; re-run link with --truth DIR|PREFIX",
            file.display()
        ));
    };
    q.validate()
        .map_err(|e| format!("invalid quality section: {e}"))?;
    Ok(q.render())
}

/// `explain miss`: relink two snapshots with single-pair truth telemetry
/// and report where in the pipeline the queried true pair died (or which
/// phase recovered it), with the oracle-replayed evidence — `agg_sim`
/// against the executed δ floor, blocking-key agreement per family, and
/// where each endpoint actually ended up linked.
///
/// The pair must be present in the loaded truth record mapping — this is
/// a forensics tool for true pairs, not arbitrary id pairs.
///
/// # Errors
///
/// Fails on I/O or parse errors, or when the pair is not in the truth
/// mapping.
pub fn cmd_explain_miss(
    old_file: &Path,
    new_file: &Path,
    old_year: i32,
    new_year: i32,
    truth: &Path,
    pair: (u64, u64),
) -> Result<String, CliError> {
    let tc = load_truth_config(truth, old_year, new_year)?;
    let (o, n) = pair;
    if !tc.record_pairs.contains(&(o, n)) {
        return Err(format!(
            "record pair {o}:{n} is not in the truth mapping ({} true pair(s) loaded); \
             explain miss diagnoses true pairs",
            tc.record_pairs.len()
        ));
    }
    let old = load(old_file, old_year)?;
    let new = load(new_file, new_year)?;
    let report = linkage_core::explain_miss(&old, &new, &LinkageConfig::default(), o, n);
    Ok(report.render())
}

/// Width of the `timeline` subcommand's ASCII Gantt lanes, in cells.
const GANTT_WIDTH: usize = 64;

/// `timeline`: read a trace JSON file written by `link --trace-out`, and
/// render the execution timeline: an ASCII Gantt chart (one lane per worker, one
/// glyph per event kind over the run's event window), the per-worker
/// utilization table and the critical-path estimate.
///
/// # Errors
///
/// Fails on I/O or parse errors, on traces without a timeline section,
/// or — with the rendered report — when `--min-utilization PCT` is
/// given and the mean worker utilization falls below it.
pub fn cmd_timeline(file: &Path, min_utilization: Option<f64>) -> Result<String, CliError> {
    let trace = load_run_trace(file)?;
    let Some(tl) = &trace.timeline else {
        return Err(format!(
            "{} has no timeline section; re-run link with --trace-out",
            file.display()
        ));
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "timeline: {} event(s) across {} worker(s)",
        tl.events.len(),
        tl.workers
    );
    // the Gantt window spans the recorded events, not the whole run —
    // enrich and other untimed stretches would otherwise crush the lanes
    let t0 = tl.events.iter().map(|e| e.start_us).min().unwrap_or(0);
    let t1 = tl
        .events
        .iter()
        .map(obs::TimelineEvent::end_us)
        .max()
        .unwrap_or(t0);
    let span = (t1 - t0).max(1);
    let _ = writeln!(
        out,
        "window: {:.1}ms of recorded activity, active (union of busy intervals) {:.1}ms",
        span as f64 / 1e3,
        tl.active_us as f64 / 1e3
    );
    let cell = |us: u64| -> usize {
        ((us.saturating_sub(t0)) as usize * GANTT_WIDTH / span as usize).min(GANTT_WIDTH - 1)
    };
    for w in &tl.utilization {
        let mut lane = vec![' '; GANTT_WIDTH];
        for e in tl.events.iter().filter(|e| e.worker == w.worker) {
            let (a, b) = (cell(e.start_us), cell(e.end_us()));
            for c in &mut lane[a..=b] {
                *c = e.kind.glyph();
            }
        }
        let lane: String = lane.into_iter().collect();
        let _ = writeln!(
            out,
            "worker {:>3} |{lane}| busy {:5.1}%  ({} event(s), {:.1}ms)",
            w.worker,
            w.utilization * 100.0,
            w.events,
            w.busy_us as f64 / 1e3
        );
    }
    let legend: Vec<String> = obs::EventKind::ALL
        .iter()
        .map(|k| format!("{} {}", k.glyph(), k.name()))
        .collect();
    let _ = writeln!(out, "legend: {}", legend.join("  "));
    let mean_pct = tl.mean_utilization() * 100.0;
    let _ = writeln!(
        out,
        "mean utilization {mean_pct:.1}%, critical path {:.1}ms",
        tl.critical_path_us as f64 / 1e3
    );
    if let Some(min) = min_utilization {
        if mean_pct < min {
            let _ = writeln!(
                out,
                "FAIL mean worker utilization {mean_pct:.1}% below the --min-utilization {min}% floor"
            );
            return Err(out);
        }
        let _ = writeln!(out, "utilization floor {min}%: OK");
    }
    Ok(out)
}

/// Parse an `OLD:NEW` id pair; a leading non-digit prefix per side (as
/// in `G1880:G42`) is ignored.
fn parse_id_pair(spec: &str) -> Result<(u64, u64), CliError> {
    let bad = || format!("bad id pair {spec:?} (expected OLD:NEW, e.g. 1880:42 or G1880:G42)");
    let (old, new) = spec.split_once(':').ok_or_else(bad)?;
    let digits = |s: &str| {
        let t = s.trim_start_matches(|c: char| !c.is_ascii_digit());
        if t.is_empty() {
            Err(bad())
        } else {
            t.parse::<u64>().map_err(|_| bad())
        }
    };
    Ok((digits(old)?, digits(new)?))
}

fn reason_text(reason: obs::RejectionReason) -> &'static str {
    match reason {
        obs::RejectionReason::LowerGSim => "lower g_sim than the conflicting winner",
        obs::RejectionReason::TieBreak => "lost the (old, new) tie-break at equal g_sim",
        obs::RejectionReason::BelowMinGSim => "g_sim below the min_g_sim floor",
        obs::RejectionReason::EmptySubgraph => "empty matched subgraph",
    }
}

fn render_group_decision(g: &obs::GroupDecision) -> String {
    let uniq_w = (1.0 - g.alpha - g.beta).max(0.0);
    let mut out = String::new();
    let _ = writeln!(out, "group link G{} -> G{}", g.old_group, g.new_group);
    let _ = writeln!(
        out,
        "  accepted in iteration {} (delta = {:.2})",
        g.iteration, g.delta
    );
    let _ = writeln!(out, "  g_sim = {:.6}", g.g_sim);
    let _ = writeln!(
        out,
        "        = {:.2}*avg_sim({:.6}) + {:.2}*e_sim({:.6}) + {:.2}*unique({:.6})",
        g.alpha, g.avg_sim, g.beta, g.e_sim, uniq_w, g.unique
    );
    let _ = writeln!(out, "  matched subgraph: {} vertices", g.subgraph_size);
    if g.records.is_empty() {
        let _ = writeln!(out, "  record links: none new (members already linked)");
    } else {
        let pairs: Vec<String> = g.records.iter().map(|(o, n)| format!("{o}->{n}")).collect();
        let _ = writeln!(out, "  record links: {}", pairs.join(", "));
    }
    if g.losers.is_empty() {
        let _ = writeln!(out, "  no competing candidates lost to this link");
    } else {
        let _ = writeln!(out, "  beat {} candidate(s):", g.losers.len());
        for l in &g.losers {
            let _ = writeln!(
                out,
                "    G{} -> G{}  g_sim {:.6}  ({})",
                l.old_group,
                l.new_group,
                l.g_sim,
                reason_text(l.reason)
            );
        }
    }
    out
}

fn load_decisions(dir: &Path) -> Result<Vec<DecisionRecord>, CliError> {
    let path = dir.join("decisions.jsonl");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| io_err(&format!("reading {}", path.display()), e))?;
    obs::DecisionLog::parse_jsonl(&text).map_err(|e| io_err("parsing decision log", e))
}

/// `explain link`: resolve one group or record link against a decision
/// log directory written by `link --decisions-out DIR` and pretty-print
/// the full provenance — the winning `g_sim` breakdown and the
/// candidates it beat, or why the queried candidate lost.
///
/// Exactly one of `group` / `record` must be given (enforced by the
/// argument parser).
///
/// # Errors
///
/// Fails on I/O or parse errors, or when the queried pair has no
/// decision record.
pub fn cmd_explain_link(
    dir: &Path,
    group: Option<(u64, u64)>,
    record: Option<(u64, u64)>,
) -> Result<String, CliError> {
    let entries = load_decisions(dir)?;
    if let Some((o, n)) = group {
        // a winning decision first, then rejections, then remainder links
        for e in &entries {
            if let DecisionRecord::Group(g) = e {
                if g.old_group == o && g.new_group == n {
                    return Ok(render_group_decision(g));
                }
            }
        }
        let mut rejections = String::new();
        for e in &entries {
            if let DecisionRecord::Rejected(r) = e {
                if r.old_group == o && r.new_group == n {
                    let _ = writeln!(
                        rejections,
                        "candidate G{o} -> G{n} rejected in iteration {} (delta = {:.2}): \
                         g_sim {:.6}, {}",
                        r.iteration,
                        r.delta,
                        r.g_sim,
                        reason_text(r.reason)
                    );
                    if let Some((wo, wn)) = r.winner {
                        let _ = writeln!(rejections, "  conflicting winner: G{wo} -> G{wn}");
                    }
                }
            }
        }
        let remainder: Vec<String> = entries
            .iter()
            .filter_map(|e| match e {
                DecisionRecord::Remainder(r) if r.old_group == o && r.new_group == n => {
                    Some(format!(
                        "  record {} -> {}  agg_sim {:.6}",
                        r.old_record, r.new_record, r.agg_sim
                    ))
                }
                _ => None,
            })
            .collect();
        if !remainder.is_empty() {
            let mut out =
                format!("group link G{o} -> G{n} induced by the attribute-only remainder pass:\n");
            for line in remainder {
                let _ = writeln!(out, "{line}");
            }
            if !rejections.is_empty() {
                let _ = writeln!(out, "earlier subgraph-phase rejections:\n{rejections}");
            }
            return Ok(out);
        }
        if !rejections.is_empty() {
            return Ok(rejections);
        }
        return Err(format!("no decision recorded for group pair {o}:{n}"));
    }
    let (o, n) = record.expect("parser guarantees a query");
    for e in &entries {
        match e {
            DecisionRecord::Group(g) if g.records.contains(&(o, n)) => {
                let mut out = format!("record link {o} -> {n} extracted from a group link:\n");
                out.push_str(&render_group_decision(g));
                return Ok(out);
            }
            DecisionRecord::Remainder(r) if r.old_record == o && r.new_record == n => {
                return Ok(format!(
                    "record link {o} -> {n} made by the attribute-only remainder pass:\n  \
                     households G{} -> G{}, agg_sim {:.6}\n",
                    r.old_group, r.new_group, r.agg_sim
                ));
            }
            _ => {}
        }
    }
    Err(format!("no decision recorded for record pair {o}:{n}"))
}

/// The usage text printed by `--help` and on invalid invocations.
pub const USAGE: &str = "\
census-linkage — temporal record and household linkage for census data

USAGE:
  census-linkage generate --out DIR [--scale small|medium|paper] [--seed N]
  census-linkage stats FILE.csv --year YEAR
  census-linkage link OLD.csv NEW.csv --old-year Y --new-year Y --out DIR
                 [--threads N] [--delta-low D] [--mem-budget BYTES]
                 [--trace-out FILE.json] [--timeline-out FILE.json] [--trace-mem]
                 [--decisions-out DIR] [--truth DIR|PREFIX] [--progress] [--verbose]
  census-linkage evolve FILE.csv... --start-year Y [--interval N] [--out DIR]
                 [--threads N] [--delta-low D] [--mem-budget BYTES]
                 [--trace-out FILE.json] [--verbose]
  census-linkage evaluate FOUND.csv TRUTH.csv --kind records|groups
  census-linkage trace-check FILE.json
  census-linkage trace-diff OLD.json NEW.json [--fail-on SPEC]...
                 SPEC: counter:NAME:PCT | phase:NAME:RATIO
                     | hist:NAME:L1MAX | p99:NAME:PCT | total:RATIO
                     | mem:NAME:PCT | footprint:NAME:PCT
                     | timeline:utilization:PCT
                     | quality:recall:PCT | quality:precision:PCT
  census-linkage timeline TRACE.json [--min-utilization PCT]
  census-linkage quality-report TRACE.json
  census-linkage explain link --decisions DIR (--group OLD:NEW | --record OLD:NEW)
  census-linkage explain miss OLD.csv NEW.csv --old-year Y --new-year Y
                 --truth DIR|PREFIX --record OLD:NEW
";

fn take_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, CliError> {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        if pos + 1 >= args.len() {
            return Err(format!("{flag} needs a value"));
        }
        let value = args.remove(pos + 1);
        args.remove(pos);
        Ok(Some(value))
    } else {
        Ok(None)
    }
}

fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        args.remove(pos);
        true
    } else {
        false
    }
}

fn parse_i32(s: &str, what: &str) -> Result<i32, CliError> {
    s.parse().map_err(|_| format!("bad {what}: {s:?}"))
}

/// Reject any argument that still looks like a flag after every known
/// flag was extracted — a misspelled `--yeer 1880` must fail loudly, not
/// be silently ignored. Negative numbers pass (they parse as numbers).
fn reject_unknown_flags(args: &[String], command: &str) -> Result<(), CliError> {
    if let Some(flag) = args
        .iter()
        .find(|a| a.starts_with('-') && a.len() > 1 && a.parse::<f64>().is_err())
    {
        return Err(format!("unknown flag {flag:?} for {command}\n\n{USAGE}"));
    }
    Ok(())
}

fn expect_positionals(
    args: &[String],
    command: &str,
    n: usize,
    what: &str,
) -> Result<(), CliError> {
    if args.len() != n {
        return Err(format!(
            "{command} needs exactly {what}, got {} positional argument(s)",
            args.len()
        ));
    }
    Ok(())
}

fn take_link_options(args: &mut Vec<String>) -> Result<LinkOptions, CliError> {
    let threads = take_value(args, "--threads")?
        .map(|s| {
            s.parse::<usize>()
                .map_err(|_| format!("bad thread count {s:?}"))
        })
        .transpose()?;
    let shards = take_value(args, "--shards")?
        .map(|s| {
            s.parse::<usize>()
                .map_err(|_| format!("bad shard count {s:?}"))
        })
        .transpose()?;
    if shards.is_some() {
        eprintln!("warning: --shards is ignored; there is one unsharded execution path");
    }
    let delta_low = take_value(args, "--delta-low")?
        .map(|s| s.parse::<f64>().map_err(|_| format!("bad delta-low {s:?}")))
        .transpose()?;
    let trace_out = take_value(args, "--trace-out")?.map(PathBuf::from);
    let timeline_out = take_value(args, "--timeline-out")?.map(PathBuf::from);
    let decisions_out = take_value(args, "--decisions-out")?.map(PathBuf::from);
    let truth = take_value(args, "--truth")?.map(PathBuf::from);
    let mem_budget = take_value(args, "--mem-budget")?
        .map(|s| parse_bytes(&s))
        .transpose()?;
    let trace_mem = take_flag(args, "--trace-mem");
    let progress = take_flag(args, "--progress");
    let verbose = take_flag(args, "--verbose");
    Ok(LinkOptions {
        threads,
        shards,
        delta_low,
        trace_out,
        timeline_out,
        decisions_out,
        truth,
        mem_budget,
        trace_mem,
        progress,
        verbose,
    })
}

/// Parse and run a full command line (without the program name) and
/// return the text to print on stdout.
///
/// # Errors
///
/// Returns the message to print on stderr (exit code 1): unknown
/// commands or flags, missing arguments, or any subcommand failure.
pub fn run_cli(mut args: Vec<String>) -> Result<String, CliError> {
    let Some(command) = args.first().cloned() else {
        return Err(USAGE.to_owned());
    };
    args.remove(0);
    match command.as_str() {
        "generate" => {
            let out = take_value(&mut args, "--out")?.ok_or("generate needs --out DIR")?;
            let scale = take_value(&mut args, "--scale")?.unwrap_or_else(|| "medium".into());
            let seed = take_value(&mut args, "--seed")?
                .map(|s| s.parse().map_err(|_| format!("bad seed {s:?}")))
                .transpose()?;
            reject_unknown_flags(&args, "generate")?;
            expect_positionals(&args, "generate", 0, "no positional arguments")?;
            let written = cmd_generate(&PathBuf::from(out), &scale, seed)?;
            Ok(format!("wrote {} files", written.len()))
        }
        "stats" => {
            let year = take_value(&mut args, "--year")?.ok_or("stats needs --year YEAR")?;
            let year = parse_i32(&year, "year")?;
            reject_unknown_flags(&args, "stats")?;
            expect_positionals(&args, "stats", 1, "one FILE.csv argument")?;
            cmd_stats(&PathBuf::from(&args[0]), year)
        }
        "link" => {
            let old_year = take_value(&mut args, "--old-year")?.ok_or("link needs --old-year")?;
            let new_year = take_value(&mut args, "--new-year")?.ok_or("link needs --new-year")?;
            let out = take_value(&mut args, "--out")?.ok_or("link needs --out DIR")?;
            let opts = take_link_options(&mut args)?;
            reject_unknown_flags(&args, "link")?;
            expect_positionals(&args, "link", 2, "OLD.csv and NEW.csv")?;
            cmd_link(
                &PathBuf::from(&args[0]),
                &PathBuf::from(&args[1]),
                parse_i32(&old_year, "old-year")?,
                parse_i32(&new_year, "new-year")?,
                &PathBuf::from(out),
                &opts,
            )
        }
        "evolve" => {
            let start =
                take_value(&mut args, "--start-year")?.ok_or("evolve needs --start-year")?;
            let interval = take_value(&mut args, "--interval")?.unwrap_or_else(|| "10".into());
            let out = take_value(&mut args, "--out")?;
            let opts = take_link_options(&mut args)?;
            reject_unknown_flags(&args, "evolve")?;
            let files: Vec<PathBuf> = args.iter().map(PathBuf::from).collect();
            cmd_evolve(
                &files,
                parse_i32(&start, "start-year")?,
                parse_i32(&interval, "interval")?,
                out.map(PathBuf::from).as_deref(),
                &opts,
            )
        }
        "evaluate" => {
            let kind = take_value(&mut args, "--kind")?.unwrap_or_else(|| "records".into());
            reject_unknown_flags(&args, "evaluate")?;
            expect_positionals(&args, "evaluate", 2, "FOUND.csv and TRUTH.csv")?;
            cmd_evaluate(&PathBuf::from(&args[0]), &PathBuf::from(&args[1]), &kind)
        }
        "trace-check" => {
            reject_unknown_flags(&args, "trace-check")?;
            expect_positionals(&args, "trace-check", 1, "one FILE.json argument")?;
            cmd_trace_check(&PathBuf::from(&args[0]))
        }
        "trace-diff" => {
            let mut fail_on = Vec::new();
            while let Some(spec) = take_value(&mut args, "--fail-on")? {
                fail_on.push(spec);
            }
            reject_unknown_flags(&args, "trace-diff")?;
            expect_positionals(&args, "trace-diff", 2, "OLD.json and NEW.json")?;
            cmd_trace_diff(&PathBuf::from(&args[0]), &PathBuf::from(&args[1]), &fail_on)
        }
        "timeline" => {
            let min = take_value(&mut args, "--min-utilization")?
                .map(|s| {
                    s.parse::<f64>()
                        .ok()
                        .filter(|p| (0.0..=100.0).contains(p))
                        .ok_or_else(|| format!("bad utilization percentage {s:?} (0-100)"))
                })
                .transpose()?;
            reject_unknown_flags(&args, "timeline")?;
            expect_positionals(&args, "timeline", 1, "one TRACE.json argument")?;
            cmd_timeline(&PathBuf::from(&args[0]), min)
        }
        "quality-report" => {
            reject_unknown_flags(&args, "quality-report")?;
            expect_positionals(&args, "quality-report", 1, "one TRACE.json argument")?;
            cmd_quality_report(&PathBuf::from(&args[0]))
        }
        "explain" => match args.first().map(String::as_str) {
            Some("link") => {
                args.remove(0);
                let decisions = take_value(&mut args, "--decisions")?
                    .ok_or("explain link needs --decisions DIR")?;
                let group = take_value(&mut args, "--group")?;
                let record = take_value(&mut args, "--record")?;
                reject_unknown_flags(&args, "explain link")?;
                expect_positionals(&args, "explain link", 0, "no positional arguments")?;
                let (group, record) =
                    match (group, record) {
                        (Some(g), None) => (Some(parse_id_pair(&g)?), None),
                        (None, Some(r)) => (None, Some(parse_id_pair(&r)?)),
                        _ => return Err(
                            "explain link needs exactly one of --group OLD:NEW or --record OLD:NEW"
                                .into(),
                        ),
                    };
                cmd_explain_link(&PathBuf::from(decisions), group, record)
            }
            Some("miss") => {
                args.remove(0);
                let old_year =
                    take_value(&mut args, "--old-year")?.ok_or("explain miss needs --old-year")?;
                let new_year =
                    take_value(&mut args, "--new-year")?.ok_or("explain miss needs --new-year")?;
                let truth = take_value(&mut args, "--truth")?
                    .ok_or("explain miss needs --truth DIR|PREFIX")?;
                let record = take_value(&mut args, "--record")?
                    .ok_or("explain miss needs --record OLD:NEW")?;
                reject_unknown_flags(&args, "explain miss")?;
                expect_positionals(&args, "explain miss", 2, "OLD.csv and NEW.csv")?;
                cmd_explain_miss(
                    &PathBuf::from(&args[0]),
                    &PathBuf::from(&args[1]),
                    parse_i32(&old_year, "old-year")?,
                    parse_i32(&new_year, "new-year")?,
                    &PathBuf::from(truth),
                    parse_id_pair(&record)?,
                )
            }
            other => Err(format!(
                "explain knows `link` and `miss`, got {other:?}\n\n{USAGE}"
            )),
        },
        "--help" | "-h" | "help" => Ok(USAGE.to_owned()),
        other => Err(format!("unknown command {other:?}\n\n{USAGE}")),
    }
}

fn load(file: &Path, year: i32) -> Result<CensusDataset, CliError> {
    let f = File::open(file).map_err(|e| io_err(&format!("opening {}", file.display()), e))?;
    read_dataset(year, BufReader::new(f))
        .map_err(|e| io_err(&format!("parsing {}", file.display()), e))
}

/// Load each `(file, year)` snapshot, on at most `threads` scoped
/// workers that claim files in order. The datasets come back in file
/// order, and so does the error: the first failing file's, with the
/// message [`load`] gives it, whichever worker finished first. With one
/// worker the files load one after another and loading stops at the
/// first error.
fn load_all(files: &[(&Path, i32)], threads: usize) -> Result<Vec<CensusDataset>, CliError> {
    let workers = threads.min(files.len());
    if workers <= 1 {
        return files.iter().map(|&(file, year)| load(file, year)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut loaded: Vec<(usize, Result<CensusDataset, CliError>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(file, year)) = files.get(i) else {
                            break;
                        };
                        done.push((i, load(file, year)));
                    }
                    // the thread's unpublished allocation counts would
                    // otherwise die with it
                    obs::alloc::flush_thread();
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    loaded.sort_unstable_by_key(|&(i, _)| i);
    loaded.into_iter().map(|(_, dataset)| dataset).collect()
}

// Install the counting allocator in the unit-test binary too, so the
// `--trace-mem` end-to-end test exercises real allocation numbers (the
// shipped binary installs its own copy in `main.rs`).
#[cfg(test)]
#[global_allocator]
static TEST_ALLOC: obs::CountingAlloc = obs::CountingAlloc::system();

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("census-cli-test-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn generate_then_stats_then_link() {
        let dir = tmp_dir("e2e");
        let written = cmd_generate(&dir, "small", Some(5)).unwrap();
        // 6 snapshots + 5 × 2 truth files
        assert_eq!(written.len(), 16);
        let first = dir.join("census_1851.csv");
        assert!(first.exists());

        let stats = cmd_stats(&first, 1851).unwrap();
        assert!(stats.contains("records:"), "{stats}");

        let out = dir.join("linked");
        let summary = cmd_link(
            &dir.join("census_1851.csv"),
            &dir.join("census_1861.csv"),
            1851,
            1861,
            &out,
            &LinkOptions::default(),
        )
        .unwrap();
        assert!(summary.contains("record pairs"), "{summary}");
        assert!(out.join("record_mapping.csv").exists());
        assert!(out.join("group_mapping.csv").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn evolve_over_three_snapshots() {
        let dir = tmp_dir("evolve");
        cmd_generate(&dir, "small", Some(9)).unwrap();
        let files: Vec<PathBuf> = (0..3)
            .map(|i| dir.join(format!("census_{}.csv", 1851 + 10 * i)))
            .collect();
        let summary = cmd_evolve(
            &files,
            1851,
            10,
            Some(&dir.join("maps")),
            &LinkOptions::default(),
        )
        .unwrap();
        assert!(
            summary.contains("preserved households per interval"),
            "{summary}"
        );
        assert!(dir.join("maps/record_mapping_1851_1861.csv").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn evaluate_against_truth() {
        let dir = tmp_dir("eval");
        cmd_generate(&dir, "small", Some(3)).unwrap();
        let out = dir.join("linked");
        cmd_link(
            &dir.join("census_1851.csv"),
            &dir.join("census_1861.csv"),
            1851,
            1861,
            &out,
            &LinkOptions::default(),
        )
        .unwrap();
        let report = cmd_evaluate(
            &out.join("record_mapping.csv"),
            &dir.join("truth_records_1851_1861.csv"),
            "records",
        )
        .unwrap();
        assert!(report.contains("f-measure"), "{report}");
        // F must be high on generated data
        let f_line = report.lines().find(|l| l.starts_with("f-measure")).unwrap();
        let value: f64 = f_line
            .split_whitespace()
            .nth(1)
            .unwrap()
            .trim_end_matches('%')
            .parse()
            .unwrap();
        assert!(value > 80.0, "F {value}");
        // groups too
        let g = cmd_evaluate(
            &out.join("group_mapping.csv"),
            &dir.join("truth_groups_1851_1861.csv"),
            "groups",
        )
        .unwrap();
        assert!(g.contains("recall"));
        assert!(cmd_evaluate(&out.join("record_mapping.csv"), &dir.join("x"), "bogus").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A one-household snapshot file; with `fault` set, line 3 carries
    /// that text in place of the role, so the file fails to parse there.
    fn snapshot_file(dir: &Path, name: &str, fault: Option<&str>) -> PathBuf {
        let path = dir.join(name);
        let role = fault.unwrap_or("son");
        let text = format!(
            "record_id,household_id,first_name,surname,sex,age,address,occupation,role,person_id\n\
             1,1,john,ashworth,m,40,mill lane,weaver,head,\n\
             2,1,james,ashworth,m,12,mill lane,scholar,{role},\n"
        );
        std::fs::write(&path, text).unwrap();
        path
    }

    /// Snapshots load concurrently, but the error reported is the first
    /// failing file's, in file order, at every thread count.
    #[test]
    fn loaders_report_the_first_failing_file_in_file_order() {
        let dir = tmp_dir("load-order");
        let old = snapshot_file(&dir, "old.csv", Some("old-fault"));
        let new = snapshot_file(&dir, "new.csv", Some("new-fault"));
        for threads in [1, 2] {
            let opts = LinkOptions {
                threads: Some(threads),
                ..LinkOptions::default()
            };
            let e = cmd_link(&old, &new, 1851, 1861, &dir.join("out"), &opts).unwrap_err();
            assert!(
                e.contains("old.csv") && e.contains("line 3"),
                "{threads}: {e}"
            );
            assert!(
                e.contains("\"old-fault\"") && !e.contains("new"),
                "{threads}: {e}"
            );
        }
        let files: Vec<PathBuf> = (1..=5)
            .map(|k| {
                let fault = format!("fault-{k}");
                let fault = (k == 2 || k == 4).then_some(fault.as_str());
                snapshot_file(&dir, &format!("s{k}.csv"), fault)
            })
            .collect();
        for threads in [1, 2, 4] {
            let opts = LinkOptions {
                threads: Some(threads),
                ..LinkOptions::default()
            };
            let e = cmd_evolve(&files, 1851, 10, None, &opts).unwrap_err();
            assert!(
                e.contains("s2.csv") && e.contains("\"fault-2\""),
                "{threads}: {e}"
            );
        }
        // and a clean series still loads at every thread count
        let clean: Vec<PathBuf> = (1..=3)
            .map(|k| snapshot_file(&dir, &format!("c{k}.csv"), None))
            .collect();
        for threads in [1, 2] {
            let opts = LinkOptions {
                threads: Some(threads),
                ..LinkOptions::default()
            };
            assert!(cmd_evolve(&clean, 1851, 10, None, &opts).is_ok());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn errors_are_reported() {
        // a path under a regular file can never become a directory
        assert!(cmd_generate(Path::new("/dev/null/x"), "small", None).is_err());
        assert!(cmd_generate(&tmp_dir("bad"), "gigantic", None).is_err());
        assert!(cmd_stats(Path::new("/no/such/file.csv"), 1851).is_err());
        assert!(cmd_evolve(
            &[PathBuf::from("one.csv")],
            1851,
            10,
            None,
            &LinkOptions::default()
        )
        .is_err());
    }

    fn cli(args: &[&str]) -> Result<String, CliError> {
        run_cli(args.iter().map(|s| (*s).to_owned()).collect())
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let dir = tmp_dir("flags");
        cmd_generate(&dir, "small", Some(7)).unwrap();
        let file = dir.join("census_1851.csv");
        let file = file.to_str().unwrap();

        // the motivating bug: a misspelled flag was silently ignored
        let err = cli(&["stats", file, "--year", "1851", "--yeer", "1880"]).unwrap_err();
        assert!(err.contains("unknown flag \"--yeer\""), "{err}");
        // its orphaned value alone is caught by the positional count
        let err = cli(&["stats", file, "--year", "1851", "extra.csv"]).unwrap_err();
        assert!(err.contains("positional argument"), "{err}");

        let err = cli(&["generate", "--out", "/tmp/x", "--sale", "small"]).unwrap_err();
        assert!(err.contains("unknown flag \"--sale\""), "{err}");
        let err = cli(&["evaluate", "a.csv", "b.csv", "--knd", "records"]).unwrap_err();
        assert!(err.contains("unknown flag \"--knd\""), "{err}");
        let err = cli(&[
            "link",
            file,
            file,
            "--old-year",
            "1851",
            "--new-year",
            "1861",
            "--out",
            "/tmp/x",
            "--treads",
            "4",
        ])
        .unwrap_err();
        assert!(err.contains("unknown flag \"--treads\""), "{err}");

        // stats still works when spelled right
        let ok = cli(&["stats", file, "--year", "1851"]).unwrap();
        assert!(ok.contains("records:"), "{ok}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn link_options_validate() {
        let mut config = LinkageConfig::default();
        for (threads, ok) in [(0, false), (1, true), (256, true), (257, false)] {
            let opts = LinkOptions {
                threads: Some(threads),
                ..LinkOptions::default()
            };
            assert_eq!(opts.apply(&mut config).is_ok(), ok, "--threads {threads}");
        }
        assert!(LinkOptions {
            delta_low: Some(1.5),
            ..LinkOptions::default()
        }
        .apply(&mut config)
        .is_err());
        assert!(LinkOptions {
            delta_low: Some(0.9), // above δ_high = 0.7
            ..LinkOptions::default()
        }
        .apply(&mut config)
        .is_err());
        LinkOptions {
            threads: Some(2),
            shards: Some(0), // ignored
            delta_low: Some(0.55),
            ..LinkOptions::default()
        }
        .apply(&mut config)
        .unwrap();
        assert_eq!(config.threads, 2);
        assert_eq!(config.shards, 1, "--shards must not reach the config");
        assert!((config.delta_low - 0.55).abs() < 1e-9);
    }

    #[test]
    fn shards_flag_is_parsed() {
        let mut args: Vec<String> = ["--shards", "4"].iter().map(|s| (*s).to_owned()).collect();
        let opts = take_link_options(&mut args).unwrap();
        assert_eq!(opts.shards, Some(4));
        assert!(args.is_empty(), "all flags consumed");
        let mut bad: Vec<String> = ["--shards", "many"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        assert!(take_link_options(&mut bad).is_err());
    }

    #[test]
    fn scoring_flag_is_rejected_as_unknown() {
        // the scalar kernel is gone: `--scoring` is no longer a link
        // option, so the parser leaves it for the unknown-flag check
        let mut args: Vec<String> = ["--scoring", "scalar"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        take_link_options(&mut args).unwrap();
        assert_eq!(args, ["--scoring", "scalar"]);
        let err = cli(&[
            "link",
            "old.csv",
            "new.csv",
            "--old-year",
            "1851",
            "--new-year",
            "1861",
            "--out",
            "/tmp/x",
            "--scoring",
            "scalar",
        ])
        .unwrap_err();
        assert!(err.contains("unknown flag \"--scoring\""), "{err}");
    }

    #[test]
    fn parallel_cutoff_flag_is_unknown() {
        // every pass cuts the same tasks at every thread count, so there
        // is no fan-out cutoff left to set
        let mut args: Vec<String> = ["--threads", "2", "--parallel-cutoff", "64"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        take_link_options(&mut args).unwrap();
        assert_eq!(args, ["--parallel-cutoff", "64"]);
        let link = [
            "link",
            "old.csv",
            "new.csv",
            "--old-year",
            "1851",
            "--new-year",
            "1861",
        ];
        let evolve = ["evolve", "a.csv", "b.csv", "--start-year", "1851"];
        for cmd in [&link[..], &evolve[..]] {
            let mut argv = cmd.to_vec();
            argv.extend(["--out", "/tmp/x", "--parallel-cutoff", "64"]);
            let err = cli(&argv).unwrap_err();
            assert!(err.contains("unknown flag \"--parallel-cutoff\""), "{err}");
        }
    }

    #[test]
    fn link_trace_end_to_end() {
        let dir = tmp_dir("trace");
        cmd_generate(&dir, "small", Some(11)).unwrap();
        let old = dir.join("census_1851.csv");
        let new = dir.join("census_1861.csv");
        let trace_path = dir.join("trace.json");
        let summary = cli(&[
            "link",
            old.to_str().unwrap(),
            new.to_str().unwrap(),
            "--old-year",
            "1851",
            "--new-year",
            "1861",
            "--out",
            dir.join("linked").to_str().unwrap(),
            "--trace-out",
            trace_path.to_str().unwrap(),
            "--verbose",
        ])
        .unwrap();
        // verbose prints the phase table inline
        assert!(summary.contains("% wall"), "{summary}");
        assert!(summary.contains("prematch"), "{summary}");
        assert!(trace_path.exists());

        // the written JSON passes the validator, both as a library call
        // and through the subcommand
        let report = cmd_trace_check(&trace_path).unwrap();
        assert!(report.contains("trace OK"), "{report}");
        let report = cli(&["trace-check", trace_path.to_str().unwrap()]).unwrap();
        assert!(report.contains("iteration(s)"), "{report}");

        // garbage input fails loudly
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "{\"nope\": 1}").unwrap();
        assert!(cmd_trace_check(&bad).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn delta_low_shortens_schedule() {
        let dir = tmp_dir("dlow");
        cmd_generate(&dir, "small", Some(13)).unwrap();
        let old = dir.join("census_1851.csv");
        let new = dir.join("census_1861.csv");
        // δ_low = δ_high = 0.7 leaves a single iteration
        let summary = cli(&[
            "link",
            old.to_str().unwrap(),
            new.to_str().unwrap(),
            "--old-year",
            "1851",
            "--new-year",
            "1861",
            "--out",
            dir.join("linked").to_str().unwrap(),
            "--delta-low",
            "0.7",
            "--threads",
            "1",
        ])
        .unwrap();
        assert!(summary.contains("1 iteration(s)"), "{summary}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn explain_resolves_every_group_link() {
        let dir = tmp_dir("explain");
        cmd_generate(&dir, "small", Some(21)).unwrap();
        let out = dir.join("linked");
        let decisions = dir.join("decisions");
        let summary = cli(&[
            "link",
            dir.join("census_1851.csv").to_str().unwrap(),
            dir.join("census_1861.csv").to_str().unwrap(),
            "--old-year",
            "1851",
            "--new-year",
            "1861",
            "--out",
            out.to_str().unwrap(),
            "--decisions-out",
            decisions.to_str().unwrap(),
        ])
        .unwrap();
        assert!(summary.contains("decisions.jsonl"), "{summary}");

        // every written group link must be explainable from the log
        let f = File::open(out.join("group_mapping.csv")).unwrap();
        let groups = read_group_mapping(BufReader::new(f)).unwrap();
        assert!(!groups.is_empty());
        let mut accepted = 0;
        for (o, n) in groups.iter() {
            let spec = format!("G{}:G{}", o.raw(), n.raw());
            let text = cli(&[
                "explain",
                "link",
                "--decisions",
                decisions.to_str().unwrap(),
                "--group",
                &spec,
            ])
            .unwrap_or_else(|e| panic!("group {spec} unexplained: {e}"));
            if text.contains("g_sim =") {
                accepted += 1;
            } else {
                assert!(text.contains("remainder pass"), "{text}");
            }
        }
        assert!(accepted > 0, "no subgraph-phase group links explained");

        // record queries resolve too (first written record link)
        let f = File::open(out.join("record_mapping.csv")).unwrap();
        let records = read_record_mapping(BufReader::new(f)).unwrap();
        let (o, n) = records.iter().next().unwrap();
        let text = cli(&[
            "explain",
            "link",
            "--decisions",
            decisions.to_str().unwrap(),
            "--record",
            &format!("{}:{}", o.raw(), n.raw()),
        ])
        .unwrap();
        assert!(text.contains("record link"), "{text}");

        // unknown pairs and bad queries fail loudly
        let err = cli(&[
            "explain",
            "link",
            "--decisions",
            decisions.to_str().unwrap(),
            "--group",
            "999999999:999999999",
        ])
        .unwrap_err();
        assert!(err.contains("no decision recorded"), "{err}");
        let err = cli(&["explain", "link", "--decisions", "x"]).unwrap_err();
        assert!(err.contains("exactly one of"), "{err}");
        assert!(parse_id_pair("G1880").is_err());
        assert!(parse_id_pair("G:G2").is_err());
        assert_eq!(parse_id_pair("G1880:42").unwrap(), (1880, 42));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_diff_gates_on_thresholds() {
        let dir = tmp_dir("tdiff");
        cmd_generate(&dir, "small", Some(23)).unwrap();
        let trace_path = dir.join("trace.json");
        cli(&[
            "link",
            dir.join("census_1851.csv").to_str().unwrap(),
            dir.join("census_1861.csv").to_str().unwrap(),
            "--old-year",
            "1851",
            "--new-year",
            "1861",
            "--out",
            dir.join("linked").to_str().unwrap(),
            "--trace-out",
            trace_path.to_str().unwrap(),
        ])
        .unwrap();

        // a trace against itself: zero deltas, all thresholds pass
        let p = trace_path.to_str().unwrap();
        let report = cli(&[
            "trace-diff",
            p,
            p,
            "--fail-on",
            "counter:prematch_pairs_matched:0%",
            "--fail-on",
            "hist:pair_agg_sim_bp:0.0",
        ])
        .unwrap();
        assert!(report.contains("traces are identical"), "{report}");

        // doctor a counter: the diff reports it and the gate trips
        let mut doctored: RunTrace =
            serde_json::from_str(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
        let c = doctored
            .counters
            .iter_mut()
            .find(|c| c.name == "prematch_pairs_matched")
            .unwrap();
        c.value *= 3;
        let doctored_path = dir.join("doctored.json");
        write_trace_json(&doctored_path, &doctored).unwrap();
        let err = cli(&[
            "trace-diff",
            p,
            doctored_path.to_str().unwrap(),
            "--fail-on",
            "counter:prematch_pairs_matched:10%",
        ])
        .unwrap_err();
        assert!(err.contains("FAIL counter:prematch_pairs_matched"), "{err}");
        assert!(err.contains("1 threshold(s) violated"), "{err}");
        // without a threshold the same diff merely reports
        let report = cli(&["trace-diff", p, doctored_path.to_str().unwrap()]).unwrap();
        assert!(!report.contains("identical"), "{report}");

        // bad specs and unknown flags are rejected up front
        let err = cli(&["trace-diff", p, p, "--fail-on", "counter:only_two"]).unwrap_err();
        assert!(err.contains("invalid --fail-on"), "{err}");
        let err = cli(&["trace-diff", p, p, "--fial-on", "total:2"]).unwrap_err();
        assert!(err.contains("unknown flag"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_bytes_accepts_plain_and_suffixed_counts() {
        assert_eq!(parse_bytes("1048576").unwrap(), 1 << 20);
        assert_eq!(parse_bytes("4K").unwrap(), 4 << 10);
        assert_eq!(parse_bytes("512m").unwrap(), 512 << 20);
        assert_eq!(parse_bytes("2G").unwrap(), 2 << 30);
        assert_eq!(parse_bytes("0").unwrap(), 0);
        assert!(parse_bytes("lots").is_err());
        assert!(parse_bytes("").is_err());
        assert!(parse_bytes("K").is_err());
        assert!(parse_bytes("-5M").is_err());
        assert!(parse_bytes("99999999999999G").is_err(), "overflow");
    }

    #[test]
    fn mem_budget_flag_degrades_without_changing_output() {
        let dir = tmp_dir("membudget");
        cmd_generate(&dir, "small", Some(29)).unwrap();
        let old = dir.join("census_1851.csv");
        let new = dir.join("census_1861.csv");
        let link = |out: &Path, extra: &[&str]| {
            let mut args = vec![
                "link",
                old.to_str().unwrap(),
                new.to_str().unwrap(),
                "--old-year",
                "1851",
                "--new-year",
                "1861",
                "--out",
                out.to_str().unwrap(),
            ];
            args.extend_from_slice(extra);
            cli(&args).unwrap()
        };
        let unlimited = dir.join("unlimited");
        link(&unlimited, &[]);
        // a zero budget refuses every cache; the mappings must not move
        let starved = dir.join("starved");
        let trace_path = dir.join("starved_trace.json");
        link(
            &starved,
            &[
                "--mem-budget",
                "0",
                "--threads",
                "1",
                "--trace-out",
                trace_path.to_str().unwrap(),
            ],
        );
        for file in ["record_mapping.csv", "group_mapping.csv"] {
            assert_eq!(
                std::fs::read_to_string(unlimited.join(file)).unwrap(),
                std::fs::read_to_string(starved.join(file)).unwrap(),
                "{file} changed under a zero memory budget"
            );
        }
        let trace: RunTrace =
            serde_json::from_str(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
        assert!(
            trace
                .events
                .iter()
                .any(|e| e.name == "mem_fallback_pair_cache"),
            "starved run recorded no pair-cache fallback"
        );

        // a bad byte count is rejected up front
        let err = cli(&[
            "link",
            old.to_str().unwrap(),
            new.to_str().unwrap(),
            "--old-year",
            "1851",
            "--new-year",
            "1861",
            "--out",
            dir.join("x").to_str().unwrap(),
            "--mem-budget",
            "lots",
        ])
        .unwrap_err();
        assert!(err.contains("bad byte count"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shards_flag_is_accepted_and_writes_identical_mappings() {
        // `--shards` only prints a warning on stderr: the run, its
        // mappings and its trace are those of a plain run
        let dir = tmp_dir("shards");
        cmd_generate(&dir, "small", Some(37)).unwrap();
        let old = dir.join("census_1851.csv");
        let new = dir.join("census_1861.csv");
        let link = |out: &Path, extra: &[&str]| {
            let mut args = vec![
                "link",
                old.to_str().unwrap(),
                new.to_str().unwrap(),
                "--old-year",
                "1851",
                "--new-year",
                "1861",
                "--out",
                out.to_str().unwrap(),
            ];
            args.extend_from_slice(extra);
            cli(&args).unwrap()
        };
        let plain = dir.join("plain");
        link(&plain, &[]);
        let sharded = dir.join("shard4");
        let trace_path = dir.join("shard4_trace.json");
        link(
            &sharded,
            &["--shards", "4", "--trace-out", trace_path.to_str().unwrap()],
        );
        for file in ["record_mapping.csv", "group_mapping.csv"] {
            assert_eq!(
                std::fs::read(plain.join(file)).unwrap(),
                std::fs::read(sharded.join(file)).unwrap(),
                "{file} changed under --shards 4"
            );
        }
        let trace: RunTrace =
            serde_json::from_str(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
        assert!(trace.shards.is_empty(), "no run records shard stats");
        let report = cmd_trace_check(&trace_path).unwrap();
        assert!(report.contains("trace OK"), "{report}");
        let probes = trace
            .counters
            .iter()
            .find(|c| c.name == "pair_score_batch_probes")
            .map_or(0, |c| c.value);
        assert!(probes > 0, "batch run recorded no batch probes");

        // a bad shard count is still rejected up front
        let mut bad: Vec<String> = ["--shards", "many"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        assert!(take_link_options(&mut bad).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn household_order_in_the_csv_is_irrelevant() {
        // a snapshot is a set of households: shuffling whole households,
        // or every row, so members also change order inside their
        // household, must not change a single byte of the mappings or
        // the decision log
        fn permute<T>(items: &mut [T], seed: u64) {
            // Fisher–Yates under a fixed 64-bit LCG
            let mut state = seed;
            for i in (1..items.len()).rev() {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                items.swap(i, (state >> 33) as usize % (i + 1));
            }
        }
        let dir = tmp_dir("shuffle");
        cmd_generate(&dir, "small", Some(42)).unwrap();
        let shuffle = |name: &str, seed: u64, rows: bool| -> PathBuf {
            let text = std::fs::read_to_string(dir.join(name)).unwrap();
            let mut lines = text.lines();
            let header = lines.next().unwrap();
            let mut index: std::collections::HashMap<&str, usize> =
                std::collections::HashMap::new();
            let mut households: Vec<Vec<&str>> = Vec::new();
            for line in lines {
                let id = line.split(',').nth(1).unwrap();
                let slot = *index.entry(id).or_insert_with(|| {
                    households.push(Vec::new());
                    households.len() - 1
                });
                households[slot].push(line);
            }
            let mut order = households.concat();
            if rows {
                permute(&mut order, seed);
            } else {
                permute(&mut households, seed);
                order = households.concat();
            }
            let mut out = format!("{header}\n");
            for line in order {
                out.push_str(line);
                out.push('\n');
            }
            let kind = if rows { "rows" } else { "households" };
            let path = dir.join(format!("{kind}_{name}"));
            std::fs::write(&path, out).unwrap();
            path
        };
        let link = |old: &Path, new: &Path, out: &Path| {
            cli(&[
                "link",
                old.to_str().unwrap(),
                new.to_str().unwrap(),
                "--old-year",
                "1851",
                "--new-year",
                "1861",
                "--out",
                out.to_str().unwrap(),
                "--decisions-out",
                out.to_str().unwrap(),
            ])
            .unwrap()
        };
        let (old, new) = (dir.join("census_1851.csv"), dir.join("census_1861.csv"));
        let plain = dir.join("plain");
        link(&old, &new, &plain);
        for rows in [false, true] {
            let old_s = shuffle("census_1851.csv", 1, rows);
            let new_s = shuffle("census_1861.csv", 2, rows);
            assert_ne!(std::fs::read(&old).unwrap(), std::fs::read(&old_s).unwrap());
            let shuffled = dir.join(format!("shuffled_{rows}"));
            link(&old_s, &new_s, &shuffled);
            for file in ["record_mapping.csv", "group_mapping.csv", "decisions.jsonl"] {
                assert_eq!(
                    std::fs::read(plain.join(file)).unwrap(),
                    std::fs::read(shuffled.join(file)).unwrap(),
                    "{file} changed by shuffling (rows: {rows})"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_mem_embeds_memory_data_and_gates_regressions() {
        let dir = tmp_dir("memtrace");
        cmd_generate(&dir, "small", Some(31)).unwrap();
        let trace_path = dir.join("trace.json");
        cli(&[
            "link",
            dir.join("census_1851.csv").to_str().unwrap(),
            dir.join("census_1861.csv").to_str().unwrap(),
            "--old-year",
            "1851",
            "--new-year",
            "1861",
            "--out",
            dir.join("linked").to_str().unwrap(),
            "--trace-out",
            trace_path.to_str().unwrap(),
            "--trace-mem",
        ])
        .unwrap();
        let report = cmd_trace_check(&trace_path).unwrap();
        assert!(report.contains("trace OK"), "{report}");
        let trace: RunTrace =
            serde_json::from_str(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
        let mem = trace.memory.as_ref().expect("memory table embedded");
        assert!(mem.bytes_allocated > 0, "allocator saw no allocations");
        assert!(mem.peak_live_bytes > 0);
        assert!(!mem.phases.is_empty(), "no per-phase attribution");
        assert!(
            trace
                .footprints
                .iter()
                .any(|f| f.structure == "profile_cache"),
            "no profile-cache footprint snapshot"
        );

        // identical traces pass the memory gates
        let p = trace_path.to_str().unwrap();
        cli(&[
            "trace-diff",
            p,
            p,
            "--fail-on",
            "mem:total:10%",
            "--fail-on",
            "footprint:profile_cache:10%",
        ])
        .unwrap();

        // an injected allocation regression trips the mem gate
        let mut doctored = trace.clone();
        doctored.memory.as_mut().unwrap().bytes_allocated *= 3;
        let doctored_path = dir.join("doctored.json");
        write_trace_json(&doctored_path, &doctored).unwrap();
        let err = cli(&[
            "trace-diff",
            p,
            doctored_path.to_str().unwrap(),
            "--fail-on",
            "mem:total:10%",
        ])
        .unwrap_err();
        assert!(err.contains("FAIL mem:total"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn traces_without_memory_data_still_check_and_diff() {
        let dir = tmp_dir("oldtrace");
        cmd_generate(&dir, "small", Some(37)).unwrap();
        let trace_path = dir.join("trace.json");
        cli(&[
            "link",
            dir.join("census_1851.csv").to_str().unwrap(),
            dir.join("census_1861.csv").to_str().unwrap(),
            "--old-year",
            "1851",
            "--new-year",
            "1861",
            "--out",
            dir.join("linked").to_str().unwrap(),
            "--trace-out",
            trace_path.to_str().unwrap(),
            "--trace-mem",
        ])
        .unwrap();

        // strip every memory-era key from the JSON itself, simulating a
        // trace written by a build that predates memory observability
        let mut v: serde_json::Value =
            serde_json::parse(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
        let dropped = ["memory", "footprints", "events", "histograms"];
        match &mut v {
            serde_json::Value::Map(entries) => entries.retain(
                |(k, _)| !matches!(k, serde_json::Value::Str(s) if dropped.contains(&s.as_str())),
            ),
            other => panic!("trace JSON is not an object: {other:?}"),
        }
        let old_path = dir.join("pre_memory.json");
        std::fs::write(&old_path, serde_json::to_string(&v).unwrap()).unwrap();

        // it still parses and validates...
        let report = cmd_trace_check(&old_path).unwrap();
        assert!(report.contains("trace OK"), "{report}");
        // ...and memory gates against it are skipped as absent, not failed
        let report = cli(&[
            "trace-diff",
            old_path.to_str().unwrap(),
            trace_path.to_str().unwrap(),
            "--fail-on",
            "mem:total:10%",
            "--fail-on",
            "mem:peak:10%",
            "--fail-on",
            "footprint:profile_cache:10%",
        ])
        .unwrap();
        assert!(report.contains("absent in old trace"), "{report}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn progress_and_trace_mem_are_link_only() {
        for opts in [
            LinkOptions {
                trace_mem: true,
                ..LinkOptions::default()
            },
            LinkOptions {
                progress: true,
                ..LinkOptions::default()
            },
            LinkOptions {
                timeline_out: Some(PathBuf::from("/tmp/tl.json")),
                ..LinkOptions::default()
            },
            LinkOptions {
                truth: Some(PathBuf::from("/tmp/truth")),
                ..LinkOptions::default()
            },
        ] {
            let err = cmd_evolve(
                &[PathBuf::from("a.csv"), PathBuf::from("b.csv")],
                1851,
                10,
                None,
                &opts,
            )
            .unwrap_err();
            assert!(err.contains("only supported by link"), "{err}");
        }
    }

    #[test]
    fn decisions_out_is_link_only() {
        let err = cmd_evolve(
            &[PathBuf::from("a.csv"), PathBuf::from("b.csv")],
            1851,
            10,
            None,
            &LinkOptions {
                decisions_out: Some(PathBuf::from("/tmp/x")),
                ..LinkOptions::default()
            },
        )
        .unwrap_err();
        assert!(err.contains("only supported by link"), "{err}");
    }

    #[test]
    fn timeline_export_and_report_end_to_end() {
        let dir = tmp_dir("timeline");
        cmd_generate(&dir, "small", Some(41)).unwrap();
        let old = dir.join("census_1851.csv");
        let new = dir.join("census_1861.csv");
        let link = |out: &Path, extra: &[&str]| {
            let mut args = vec![
                "link",
                old.to_str().unwrap(),
                new.to_str().unwrap(),
                "--old-year",
                "1851",
                "--new-year",
                "1861",
                "--out",
                out.to_str().unwrap(),
            ];
            args.extend_from_slice(extra);
            cli(&args).unwrap()
        };
        // baseline without the timeline, then the instrumented run
        let plain = dir.join("plain");
        link(&plain, &["--threads", "2"]);
        let timed = dir.join("timed");
        let tl_path = dir.join("timeline.json");
        let trace_path = dir.join("trace.json");
        let summary = link(
            &timed,
            &[
                "--threads",
                "2",
                "--timeline-out",
                tl_path.to_str().unwrap(),
                "--trace-out",
                trace_path.to_str().unwrap(),
                "--verbose",
            ],
        );
        assert!(summary.contains("timeline.json"), "{summary}");
        // recording the timeline never moves the mappings
        for file in ["record_mapping.csv", "group_mapping.csv"] {
            assert_eq!(
                std::fs::read_to_string(plain.join(file)).unwrap(),
                std::fs::read_to_string(timed.join(file)).unwrap(),
                "{file} changed under --timeline-out"
            );
        }
        // the trace embeds the timeline section, passes the validator,
        // and the verbose phase table renders the analytics
        assert!(summary.contains("timeline:"), "{summary}");
        let report = cmd_trace_check(&trace_path).unwrap();
        assert!(report.contains("trace OK"), "{report}");
        let trace: RunTrace =
            serde_json::from_str(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
        let tl = trace.timeline.as_ref().expect("timeline embedded");
        assert!(!tl.events.is_empty());

        // the Chrome export is valid trace-event JSON: metadata naming
        // the phase processes plus X duration events in microseconds
        let chrome: serde_json::Value =
            serde_json::parse(&std::fs::read_to_string(&tl_path).unwrap()).unwrap();
        let serde_json::Value::Map(doc) = &chrome else {
            panic!("chrome trace is not an object");
        };
        let events = doc
            .iter()
            .find(|(k, _)| matches!(k, serde_json::Value::Str(s) if s == "traceEvents"))
            .map(|(_, v)| v)
            .expect("traceEvents key");
        let serde_json::Value::Seq(events) = events else {
            panic!("traceEvents is not an array");
        };
        let text = serde_json::to_string(&chrome).unwrap();
        assert!(
            events.len() > PIPELINE_PHASES.len(),
            "{} events",
            events.len()
        );
        assert!(
            text.contains("\"process_name\""),
            "missing process metadata"
        );
        assert!(text.contains("\"prematch\""), "missing phase process");
        assert!(text.contains("\"ph\":\"X\""), "missing duration events");

        // the timeline subcommand renders the Gantt and utilization
        // report, and gates on the floor
        let rendered = cli(&["timeline", trace_path.to_str().unwrap()]).unwrap();
        assert!(rendered.contains("worker   0 |"), "{rendered}");
        assert!(rendered.contains("mean utilization"), "{rendered}");
        assert!(rendered.contains("legend:"), "{rendered}");
        // the driver's sections have their own lane glyph and event name
        assert!(rendered.contains("D driver"), "{rendered}");
        assert!(text.contains("\"driver:order\""), "missing driver events");
        let gated = cli(&[
            "timeline",
            trace_path.to_str().unwrap(),
            "--min-utilization",
            "10",
        ])
        .unwrap();
        assert!(gated.contains("utilization floor 10%: OK"), "{gated}");

        // a doctored trace with starved workers trips the floor
        let mut doctored = trace.clone();
        for u in &mut doctored.timeline.as_mut().unwrap().utilization {
            u.utilization = 0.01;
        }
        let doctored_path = dir.join("starved.json");
        write_trace_json(&doctored_path, &doctored).unwrap();
        let err = cli(&[
            "timeline",
            doctored_path.to_str().unwrap(),
            "--min-utilization",
            "50",
        ])
        .unwrap_err();
        assert!(err.contains("below the --min-utilization"), "{err}");

        // bad invocations fail loudly
        let err = cli(&[
            "timeline",
            trace_path.to_str().unwrap(),
            "--min-utilization",
            "200",
        ])
        .unwrap_err();
        assert!(err.contains("bad utilization percentage"), "{err}");
        // a plain --trace-out run records the timeline too; only a trace
        // without the section (one written before it was always on) has
        // none to render
        let plain_trace = dir.join("plain_trace.json");
        link(
            &dir.join("plain2"),
            &["--trace-out", plain_trace.to_str().unwrap()],
        );
        let rendered = cli(&["timeline", plain_trace.to_str().unwrap()]).unwrap();
        assert!(rendered.contains("worker   0 |"), "{rendered}");
        let mut old = serde_json::parse(&std::fs::read_to_string(&plain_trace).unwrap()).unwrap();
        let serde_json::Value::Map(entries) = &mut old else {
            panic!("trace JSON is not an object");
        };
        entries.retain(|(k, _)| !matches!(k, serde_json::Value::Str(s) if s == "timeline"));
        let old_trace = dir.join("pre_timeline.json");
        std::fs::write(&old_trace, serde_json::to_string(&old).unwrap()).unwrap();
        let err = cli(&["timeline", old_trace.to_str().unwrap()]).unwrap_err();
        assert!(err.contains("no timeline section"), "{err}");
        assert!(err.contains("re-run link with --trace-out"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn traces_without_timeline_diff_as_absent() {
        let dir = tmp_dir("tlcompat");
        cmd_generate(&dir, "small", Some(43)).unwrap();
        let trace_path = dir.join("trace.json");
        cli(&[
            "link",
            dir.join("census_1851.csv").to_str().unwrap(),
            dir.join("census_1861.csv").to_str().unwrap(),
            "--old-year",
            "1851",
            "--new-year",
            "1861",
            "--out",
            dir.join("linked").to_str().unwrap(),
            "--trace-out",
            trace_path.to_str().unwrap(),
        ])
        .unwrap();

        // strip the timeline key, simulating a trace from a build that
        // predates the always-on timeline
        let mut v: serde_json::Value =
            serde_json::parse(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
        match &mut v {
            serde_json::Value::Map(entries) => {
                entries.retain(|(k, _)| !matches!(k, serde_json::Value::Str(s) if s == "timeline"))
            }
            other => panic!("trace JSON is not an object: {other:?}"),
        }
        let old_path = dir.join("pre_timeline.json");
        std::fs::write(&old_path, serde_json::to_string(&v).unwrap()).unwrap();

        // it still parses and validates, and timeline gates against it
        // are skipped as absent rather than failed
        let report = cmd_trace_check(&old_path).unwrap();
        assert!(report.contains("trace OK"), "{report}");
        let report = cli(&[
            "trace-diff",
            old_path.to_str().unwrap(),
            trace_path.to_str().unwrap(),
            "--fail-on",
            "timeline:utilization:5",
        ])
        .unwrap();
        assert!(report.contains("absent in old trace"), "{report}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truth_link_quality_report_and_gates_end_to_end() {
        let dir = tmp_dir("quality");
        cmd_generate(&dir, "small", Some(47)).unwrap();
        let old = dir.join("census_1851.csv");
        let new = dir.join("census_1861.csv");
        let trace_path = dir.join("trace.json");
        let link = |out: &Path, truth_spec: &str, trace: &Path| {
            cli(&[
                "link",
                old.to_str().unwrap(),
                new.to_str().unwrap(),
                "--old-year",
                "1851",
                "--new-year",
                "1861",
                "--out",
                out.to_str().unwrap(),
                "--truth",
                truth_spec,
                "--trace-out",
                trace.to_str().unwrap(),
            ])
            .unwrap()
        };
        // --truth as a directory: the summary reports quality inline and
        // the trace embeds a valid quality section
        let summary = link(&dir.join("linked"), dir.to_str().unwrap(), &trace_path);
        assert!(summary.contains("quality: records P "), "{summary}");
        assert!(summary.contains("true pair(s) recovered"), "{summary}");
        assert!(summary.contains("quality: losses"), "{summary}");
        let report = cmd_trace_check(&trace_path).unwrap();
        assert!(report.contains("trace OK"), "{report}");
        let trace: RunTrace =
            serde_json::from_str(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
        let q = trace.quality.as_ref().expect("quality section embedded");
        q.validate().unwrap();
        assert!(q.records.quality.f1 > 0.8, "F1 {}", q.records.quality.f1);

        // --truth as a filename prefix resolves the same files
        let prefix = format!("{}/truth_", dir.to_str().unwrap());
        let prefix_trace = dir.join("prefix_trace.json");
        link(&dir.join("linked2"), &prefix, &prefix_trace);
        let t2: RunTrace =
            serde_json::from_str(&std::fs::read_to_string(&prefix_trace).unwrap()).unwrap();
        assert_eq!(t2.quality.as_ref().unwrap(), q, "prefix form diverged");

        // quality-report renders the funnel from the written trace
        let rendered = cli(&["quality-report", trace_path.to_str().unwrap()]).unwrap();
        assert!(rendered.contains("recall-loss funnel"), "{rendered}");
        assert!(rendered.contains("recovered: selection"), "{rendered}");

        // identical traces pass the quality gates
        let p = trace_path.to_str().unwrap();
        cli(&[
            "trace-diff",
            p,
            p,
            "--fail-on",
            "quality:recall:1",
            "--fail-on",
            "quality:precision:1",
        ])
        .unwrap();

        // an injected recall drop trips the gate
        let mut doctored = trace.clone();
        doctored.quality.as_mut().unwrap().records.quality.recall -= 0.10;
        let doctored_path = dir.join("doctored.json");
        write_trace_json(&doctored_path, &doctored).unwrap();
        let err = cli(&[
            "trace-diff",
            p,
            doctored_path.to_str().unwrap(),
            "--fail-on",
            "quality:recall:5",
        ])
        .unwrap_err();
        assert!(err.contains("FAIL quality:recall"), "{err}");

        // a run without --truth writes a trace with no quality section,
        // and quality-report refuses it with a pointer to --truth
        let plain_trace = dir.join("plain_trace.json");
        cli(&[
            "link",
            old.to_str().unwrap(),
            new.to_str().unwrap(),
            "--old-year",
            "1851",
            "--new-year",
            "1861",
            "--out",
            dir.join("plain").to_str().unwrap(),
            "--trace-out",
            plain_trace.to_str().unwrap(),
        ])
        .unwrap();
        let err = cli(&["quality-report", plain_trace.to_str().unwrap()]).unwrap_err();
        assert!(err.contains("no quality section"), "{err}");

        // a missing truth file fails loudly up front
        let err = cli(&[
            "link",
            old.to_str().unwrap(),
            new.to_str().unwrap(),
            "--old-year",
            "1851",
            "--new-year",
            "1861",
            "--out",
            dir.join("x").to_str().unwrap(),
            "--truth",
            dir.join("nowhere").to_str().unwrap(),
        ])
        .unwrap_err();
        assert!(err.contains("opening truth records"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truth_link_does_not_change_the_mappings() {
        let dir = tmp_dir("truthneutral");
        cmd_generate(&dir, "small", Some(53)).unwrap();
        let old = dir.join("census_1851.csv");
        let new = dir.join("census_1861.csv");
        let link = |out: &Path, extra: &[&str]| {
            let mut args = vec![
                "link",
                old.to_str().unwrap(),
                new.to_str().unwrap(),
                "--old-year",
                "1851",
                "--new-year",
                "1861",
                "--out",
                out.to_str().unwrap(),
            ];
            args.extend_from_slice(extra);
            cli(&args).unwrap()
        };
        let plain = dir.join("plain");
        link(&plain, &[]);
        let truthed = dir.join("truthed");
        link(&truthed, &["--truth", dir.to_str().unwrap()]);
        for file in ["record_mapping.csv", "group_mapping.csv"] {
            assert_eq!(
                std::fs::read_to_string(plain.join(file)).unwrap(),
                std::fs::read_to_string(truthed.join(file)).unwrap(),
                "{file} changed under --truth"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn traces_without_quality_diff_as_absent() {
        let dir = tmp_dir("qcompat");
        cmd_generate(&dir, "small", Some(59)).unwrap();
        let trace_path = dir.join("trace.json");
        cli(&[
            "link",
            dir.join("census_1851.csv").to_str().unwrap(),
            dir.join("census_1861.csv").to_str().unwrap(),
            "--old-year",
            "1851",
            "--new-year",
            "1861",
            "--out",
            dir.join("linked").to_str().unwrap(),
            "--truth",
            dir.to_str().unwrap(),
            "--trace-out",
            trace_path.to_str().unwrap(),
        ])
        .unwrap();

        // strip the quality key, simulating a baseline trace from a
        // build that predates quality telemetry (or a run without
        // --truth): the gates must skip as absent, not fail
        let mut v: serde_json::Value =
            serde_json::parse(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
        match &mut v {
            serde_json::Value::Map(entries) => {
                entries.retain(|(k, _)| !matches!(k, serde_json::Value::Str(s) if s == "quality"))
            }
            other => panic!("trace JSON is not an object: {other:?}"),
        }
        let old_path = dir.join("pre_quality.json");
        std::fs::write(&old_path, serde_json::to_string(&v).unwrap()).unwrap();

        let report = cmd_trace_check(&old_path).unwrap();
        assert!(report.contains("trace OK"), "{report}");
        let report = cli(&[
            "trace-diff",
            old_path.to_str().unwrap(),
            trace_path.to_str().unwrap(),
            "--fail-on",
            "quality:recall:1",
            "--fail-on",
            "quality:precision:1",
        ])
        .unwrap();
        assert!(report.contains("absent in old trace"), "{report}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn explain_miss_resolves_true_pairs() {
        let dir = tmp_dir("explainmiss");
        cmd_generate(&dir, "small", Some(61)).unwrap();
        let old = dir.join("census_1851.csv");
        let new = dir.join("census_1861.csv");

        // a true pair the run recovered explains as recovered, with its
        // linked endpoints
        let f = File::open(dir.join("truth_records_1851_1861.csv")).unwrap();
        let truth = read_record_mapping(BufReader::new(f)).unwrap();
        let (o, n) = truth.iter().next().unwrap();
        let text = cli(&[
            "explain",
            "miss",
            old.to_str().unwrap(),
            new.to_str().unwrap(),
            "--old-year",
            "1851",
            "--new-year",
            "1861",
            "--truth",
            dir.to_str().unwrap(),
            "--record",
            &format!("{}:{}", o.raw(), n.raw()),
        ])
        .unwrap();
        assert!(
            text.contains(&format!("true pair {} -> {}", o.raw(), n.raw())),
            "{text}"
        );

        // a pair outside the truth mapping is refused
        let err = cli(&[
            "explain",
            "miss",
            old.to_str().unwrap(),
            new.to_str().unwrap(),
            "--old-year",
            "1851",
            "--new-year",
            "1861",
            "--truth",
            dir.to_str().unwrap(),
            "--record",
            "999999999:999999999",
        ])
        .unwrap_err();
        assert!(err.contains("not in the truth mapping"), "{err}");

        // unknown explain targets fail loudly
        let err = cli(&["explain", "nothing"]).unwrap_err();
        assert!(err.contains("explain knows `link` and `miss`"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn evolve_trace_is_multi_run() {
        let dir = tmp_dir("etrace");
        cmd_generate(&dir, "small", Some(17)).unwrap();
        let files: Vec<PathBuf> = (0..3)
            .map(|i| dir.join(format!("census_{}.csv", 1851 + 10 * i)))
            .collect();
        let trace_path = dir.join("evolve_trace.json");
        let opts = LinkOptions {
            trace_out: Some(trace_path.clone()),
            ..LinkOptions::default()
        };
        cmd_evolve(&files, 1851, 10, None, &opts).unwrap();
        let report = cmd_trace_check(&trace_path).unwrap();
        // 2 link runs + 1 evolution-graph build
        assert!(report.contains("3 run(s)"), "{report}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
