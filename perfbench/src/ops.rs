//! The measured operation, in its two forms, and the output check every
//! run of it must pass.
//!
//! * [`run_cli`] is the user-facing operation: `census_cli::cmd_link` or
//!   `cmd_evolve` with tracing off, exactly as the `census-linkage`
//!   binary runs it.
//! * [`run_layered`] does the same work through each layer's public
//!   functions, timing every layer and tracing the linker with an
//!   enabled `obs::Collector`. Its outputs must be byte-identical to
//!   [`run_cli`]'s, which the mapping digest checks.

use crate::workload::{Inputs, Workload, INTERVAL};
use census_cli::{cmd_evolve, cmd_link, LinkOptions};
use census_model::csv::{read_dataset, write_group_mapping, write_record_mapping};
use census_model::{CensusDataset, GroupMapping, RecordId, RecordMapping};
use evolution::{detect_patterns, largest_component, preserve_chain_counts, EvolutionGraph};
use linkage_core::{link_traced, LinkageConfig};
use obs::{Collector, RunTrace};
use std::collections::HashSet;
use std::fs::File;
use std::hint::black_box;
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Worker threads of every operation (the benchmark host has 2 cores).
pub const THREADS: usize = 2;

/// `--mem-budget 64K` of the series workload: small enough that the
/// governor refuses the pair-score cache on every pair.
const SERIES_MEM_BUDGET: u64 = 64 << 10;

/// The CLI options of the workload's operation.
pub fn link_options(workload: Workload) -> LinkOptions {
    LinkOptions {
        threads: Some(THREADS),
        shards: (workload == Workload::PairDistricts).then_some(0),
        mem_budget: workload.is_series().then_some(SERIES_MEM_BUDGET),
        ..LinkOptions::default()
    }
}

/// The linkage configuration `link_options` resolves to inside the CLI
/// (the same overrides of the default, applied the same way).
pub fn linkage_config(workload: Workload) -> LinkageConfig {
    let opts = link_options(workload);
    let mut config = LinkageConfig {
        threads: THREADS,
        ..LinkageConfig::default()
    };
    if let Some(shards) = opts.shards {
        config.shards = shards;
    }
    if let Some(budget) = opts.mem_budget {
        config.memory_budget = Some(budget);
    }
    config
}

/// The user-facing operation, with tracing off.
pub fn run_cli(workload: Workload, inputs: &Inputs, out: &Path) -> Result<(), String> {
    let years = inputs.years();
    let opts = link_options(workload);
    if workload.is_series() {
        cmd_evolve(&inputs.files, years[0], INTERVAL, Some(out), &opts)?;
    } else {
        cmd_link(
            &inputs.files[0],
            &inputs.files[1],
            years[0],
            years[1],
            out,
            &opts,
        )?;
    }
    Ok(())
}

/// The record and group mapping files the operation writes per pair.
fn mapping_files(workload: Workload, years: &[i32], out: &Path) -> Vec<(PathBuf, PathBuf)> {
    if workload.is_series() {
        years
            .windows(2)
            .map(|w| {
                let tag = format!("{}_{}", w[0], w[1]);
                (
                    out.join(format!("record_mapping_{tag}.csv")),
                    out.join(format!("group_mapping_{tag}.csv")),
                )
            })
            .collect()
    } else {
        vec![(
            out.join("record_mapping.csv"),
            out.join("group_mapping.csv"),
        )]
    }
}

/// Seconds spent in each layer during one layered run.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    pub csv_read: f64,
    pub enrich: f64,
    pub prematch: f64,
    pub subgraph: f64,
    pub selection: f64,
    pub remainder: f64,
    pub mapping_write: f64,
    /// `detect_patterns` on a pair, part of `link`'s summary.
    pub detect: f64,
    /// `EvolutionGraph::build` plus chain and component analysis, part
    /// of `evolve`.
    pub evolution: f64,
    pub wall: f64,
}

impl LayerTimes {
    pub fn layers_sum(&self) -> f64 {
        self.csv_read
            + self.enrich
            + self.prematch
            + self.subgraph
            + self.selection
            + self.remainder
            + self.mapping_write
            + self.detect
            + self.evolution
    }
}

/// One layered run: layer times, the linker's trace per pair, and the
/// mappings (kept for the isolated evolution timing).
pub struct LayeredRun {
    pub times: LayerTimes,
    pub traces: Vec<RunTrace>,
    pub mappings: Vec<(RecordMapping, GroupMapping)>,
}

fn load(file: &Path, year: i32) -> Result<CensusDataset, String> {
    let f = File::open(file).map_err(|e| format!("opening {}: {e}", file.display()))?;
    read_dataset(year, BufReader::new(f)).map_err(|e| format!("parsing {}: {e}", file.display()))
}

fn phase_s(traces: &[RunTrace], phase: &str) -> f64 {
    traces
        .iter()
        .filter_map(|t| t.phase(phase))
        .map(|p| p.total_us as f64 / 1e6)
        .sum()
}

/// The operation through each layer's public functions, in the order
/// `cmd_link` / `cmd_evolve` call them, with the linker traced.
pub fn run_layered(workload: Workload, inputs: &Inputs, out: &Path) -> Result<LayeredRun, String> {
    let years = inputs.years();
    let config = linkage_config(workload);
    let mut times = LayerTimes::default();
    let start = Instant::now();

    let t = Instant::now();
    let snapshots = inputs
        .files
        .iter()
        .zip(&years)
        .map(|(f, &y)| load(f, y))
        .collect::<Result<Vec<_>, _>>()?;
    times.csv_read = t.elapsed().as_secs_f64();

    let mut traces = Vec::new();
    let mut mappings = Vec::new();
    for w in snapshots.windows(2) {
        let obs = Collector::enabled().with_timeline();
        let result = link_traced(&w[0], &w[1], &config, &obs);
        traces.push(obs.finish());
        mappings.push((result.records, result.groups));
    }
    times.enrich = phase_s(&traces, "enrich");
    times.prematch = phase_s(&traces, "prematch");
    times.subgraph = phase_s(&traces, "subgraph");
    times.selection = phase_s(&traces, "selection");
    times.remainder = phase_s(&traces, "remainder");

    if workload.is_series() {
        let t = Instant::now();
        let refs: Vec<&CensusDataset> = snapshots.iter().collect();
        let graph = EvolutionGraph::build(&refs, &mappings);
        black_box(preserve_chain_counts(&graph));
        black_box(largest_component(&graph));
        times.evolution = t.elapsed().as_secs_f64();
    }

    std::fs::create_dir_all(out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let t = Instant::now();
    for ((rec_path, grp_path), (records, groups)) in
        mapping_files(workload, &years, out).iter().zip(&mappings)
    {
        let f = File::create(rec_path).map_err(|e| format!("creating mapping file: {e}"))?;
        write_record_mapping(records, BufWriter::new(f))
            .map_err(|e| format!("writing record mapping: {e}"))?;
        let f = File::create(grp_path).map_err(|e| format!("creating mapping file: {e}"))?;
        write_group_mapping(groups, BufWriter::new(f))
            .map_err(|e| format!("writing group mapping: {e}"))?;
    }
    times.mapping_write = t.elapsed().as_secs_f64();

    if !workload.is_series() {
        let t = Instant::now();
        let (records, groups) = &mappings[0];
        black_box(detect_patterns(
            &snapshots[0],
            &snapshots[1],
            records,
            groups,
        ));
        times.detect = t.elapsed().as_secs_f64();
    }
    times.wall = start.elapsed().as_secs_f64();
    Ok(LayeredRun {
        times,
        traces,
        mappings,
    })
}

/// What the check of one run's outputs found: the digest of every
/// mapping file, and link counts pooled over the workload's pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outputs {
    pub digest: u64,
    pub record_links: u64,
    pub group_links: u64,
    pub record_correct: u64,
    pub record_truth: u64,
    pub group_correct: u64,
    pub group_truth: u64,
}

/// 64-bit FNV-1a.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

fn parse_pairs(text: &str, path: &Path) -> Result<Vec<(u64, u64)>, String> {
    text.lines()
        .skip(1)
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let (a, b) = l
                .split_once(',')
                .ok_or_else(|| format!("{}: malformed row {l:?}", path.display()))?;
            match (a.trim().parse(), b.trim().parse()) {
                (Ok(a), Ok(b)) => Ok((a, b)),
                _ => Err(format!("{}: malformed row {l:?}", path.display())),
            }
        })
        .collect()
}

/// Check the mapping files a run wrote: each record mapping is 1:1 and
/// every record link's households are group-linked. Returns the digest
/// and the link counts scored against the generator's truth.
pub fn check_outputs(workload: Workload, inputs: &Inputs, out: &Path) -> Result<Outputs, String> {
    let mut digest = Fnv::new();
    let mut o = Outputs {
        digest: 0,
        record_links: 0,
        group_links: 0,
        record_correct: 0,
        record_truth: 0,
        group_correct: 0,
        group_truth: 0,
    };
    let files = mapping_files(workload, &inputs.years(), out);
    for (i, (rec_path, grp_path)) in files.iter().enumerate() {
        let read = |p: &Path| {
            std::fs::read_to_string(p).map_err(|e| format!("reading {}: {e}", p.display()))
        };
        let (rec_text, grp_text) = (read(rec_path)?, read(grp_path)?);
        digest.write(rec_text.as_bytes());
        digest.write(grp_text.as_bytes());
        let records = parse_pairs(&rec_text, rec_path)?;
        let groups: HashSet<(u64, u64)> = parse_pairs(&grp_text, grp_path)?.into_iter().collect();
        let (old, new) = (&inputs.snapshots[i], &inputs.snapshots[i + 1]);
        let truth = &inputs.truths[i];
        let (mut olds, mut news) = (HashSet::new(), HashSet::new());
        for &(ro, rn) in &records {
            if !olds.insert(ro) || !news.insert(rn) {
                return Err(format!("record mapping is not 1:1 at {ro},{rn}"));
            }
            let household = |ds: &CensusDataset, id: u64| {
                ds.record(RecordId(id))
                    .map(|r| r.household.raw())
                    .ok_or_else(|| format!("record link names unknown record {id}"))
            };
            let (ho, hn) = (household(old, ro)?, household(new, rn)?);
            if !groups.contains(&(ho, hn)) {
                return Err(format!(
                    "record link {ro},{rn} without group link {ho},{hn}"
                ));
            }
            if truth.records.contains(RecordId(ro), RecordId(rn)) {
                o.record_correct += 1;
            }
        }
        o.group_correct += groups
            .iter()
            .filter(|&&(a, b)| {
                truth
                    .groups
                    .contains(census_model::HouseholdId(a), census_model::HouseholdId(b))
            })
            .count() as u64;
        o.record_links += records.len() as u64;
        o.group_links += groups.len() as u64;
        o.record_truth += truth.records.len() as u64;
        o.group_truth += truth.groups.len() as u64;
    }
    o.digest = digest.finish();
    Ok(o)
}
