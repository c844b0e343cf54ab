//! The benchmark's workloads: generating their inputs from a seed, and
//! the descriptor that measures how realistic each one is.

use census_model::csv::write_dataset;
use census_model::{CensusDataset, DatasetStats, Household, HouseholdId, PersonId, RecordId};
use census_synth::{generate_series, ground_truth, GroundTruth, SimConfig};
use linkage_core::{dataset_candidate_pairs, BlockingStrategy};
use serde_json::{json, Value};
use std::collections::HashMap;
use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Years between successive snapshots in every workload.
pub const INTERVAL: i32 = 10;

/// Initial households of the paper's town (Rawtenstall, ~3.3k).
const PAPER_HOUSEHOLDS: usize = 3300;

/// Initial households of each of the two districts: half the paper's
/// town, so that one operation takes about as long as `pair-paper`'s.
const DISTRICT_HOUSEHOLDS: usize = 1600;

/// Initial households of the six-snapshot series.
const SERIES_HOUSEHOLDS: usize = 800;

/// Leading surname letter of each district, so that surname-soundex
/// blocking keys never cross districts while first names stay shared.
const DISTRICT_LETTERS: [char; 2] = ['Q', 'Z'];

/// Mixed into the seed of the second district's world.
const SECOND_DISTRICT_SALT: u64 = 0x5EED_D157_0000_0001;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One 1851→1861 pair at the paper's scale, default config.
    PairPaper,
    /// Two half-paper-sized districts in one archive, linked with
    /// `--shards 0`.
    PairDistricts,
    /// Six snapshots at 800 households through `evolve --mem-budget 64K`.
    SeriesEvolve,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PairPaper,
        Workload::PairDistricts,
        Workload::SeriesEvolve,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PairPaper => "pair-paper",
            Workload::PairDistricts => "pair-districts",
            Workload::SeriesEvolve => "series-evolve",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the operation is `evolve` over a series (else `link`).
    pub fn is_series(self) -> bool {
        self == Workload::SeriesEvolve
    }
}

/// A generated workload as the operation sees it (CSV files) and as the
/// checks see it (datasets and the generator's truth per pair).
pub struct Inputs {
    pub snapshots: Vec<CensusDataset>,
    pub truths: Vec<GroundTruth>,
    pub files: Vec<PathBuf>,
}

impl Inputs {
    pub fn years(&self) -> Vec<i32> {
        self.snapshots.iter().map(|d| d.year).collect()
    }

    pub fn total_records(&self) -> usize {
        self.snapshots.iter().map(CensusDataset::record_count).sum()
    }
}

/// Generate the workload for `seed`, derive its truth and write its
/// snapshot CSVs into `dir`. This is the whole set-up that `setup_s`
/// times.
pub fn set_up(workload: Workload, seed: u64, dir: &Path) -> Result<Inputs, String> {
    let snapshots = match workload {
        Workload::PairPaper => series(seed, PAPER_HOUSEHOLDS, 2),
        Workload::SeriesEvolve => series(seed, SERIES_HOUSEHOLDS, 6),
        Workload::PairDistricts => two_districts(seed)?,
    };
    let truths = snapshots
        .windows(2)
        .map(|w| ground_truth(&w[0], &w[1]))
        .collect();
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let mut files = Vec::new();
    for ds in &snapshots {
        let path = dir.join(format!("census_{}.csv", ds.year));
        let f = File::create(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        write_dataset(ds, BufWriter::new(f))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        files.push(path);
    }
    Ok(Inputs {
        snapshots,
        truths,
        files,
    })
}

fn series(seed: u64, households: usize, snapshots: usize) -> Vec<CensusDataset> {
    let config = SimConfig {
        seed,
        initial_households: households,
        snapshots,
        ..SimConfig::default()
    };
    generate_series(&config).snapshots
}

/// Two districts of one archive, merged snapshot by snapshot.
///
/// Record, household and person ids are renumbered densely (district 0
/// first, then district 1). The ids must stay dense: the linker's profile
/// cache sizes a `Vec` by raw record id, so offsetting one district's ids
/// by a large constant (2^40 was tried) asks for a terabyte-scale
/// allocation and aborts the process. Sparse ids are a hostile-input
/// problem of the linker, not something this workload is meant to test.
fn two_districts(seed: u64) -> Result<Vec<CensusDataset>, String> {
    let districts = [
        series(seed, DISTRICT_HOUSEHOLDS, 2),
        series(seed ^ SECOND_DISTRICT_SALT, DISTRICT_HOUSEHOLDS, 2),
    ];
    let mut persons: HashMap<(usize, PersonId), PersonId> = HashMap::new();
    let mut merged = Vec::new();
    for t in 0..2 {
        let mut records = Vec::new();
        let mut households = Vec::new();
        for (d, snapshots) in districts.iter().enumerate() {
            let ds = &snapshots[t];
            let record_base = records.len() as u64;
            let household_base = households.len() as u64;
            let record_id: HashMap<RecordId, RecordId> = ds
                .records()
                .iter()
                .enumerate()
                .map(|(i, r)| (r.id, RecordId(record_base + i as u64)))
                .collect();
            let household_id: HashMap<HouseholdId, HouseholdId> = ds
                .households()
                .iter()
                .enumerate()
                .map(|(i, h)| (h.id, HouseholdId(household_base + i as u64)))
                .collect();
            for r in ds.records() {
                let mut r = r.clone();
                r.id = record_id[&r.id];
                r.household = household_id[&r.household];
                r.truth = r.truth.map(|p| {
                    let next = PersonId(persons.len() as u64);
                    *persons.entry((d, p)).or_insert(next)
                });
                if !r.surname.is_empty() {
                    r.surname = format!("{}{}", DISTRICT_LETTERS[d], r.surname);
                }
                records.push(r);
            }
            for h in ds.households() {
                let members = h.members.iter().map(|m| record_id[m]).collect();
                households.push(Household::new(household_id[&h.id], members));
            }
        }
        let year = districts[0][t].year;
        merged.push(
            CensusDataset::new(year, records, households)
                .map_err(|e| format!("merging districts for {year}: {e}"))?,
        );
    }
    Ok(merged)
}

/// Blocking statistics of one snapshot pair.
pub struct PairBlocking {
    pub blocked_pairs: u64,
    pub max_block_pairs: u64,
    pub truth_pairs: u64,
    pub truth_blocked: u64,
    pub blocking_s: f64,
}

/// Block one pair with the linker's public blocking entry point and
/// measure how many true pairs it keeps together.
pub fn block_pair(old: &CensusDataset, new: &CensusDataset, truth: &GroundTruth) -> PairBlocking {
    let start = Instant::now();
    let pairs = dataset_candidate_pairs(old, new, BlockingStrategy::Standard);
    let blocking_s = start.elapsed().as_secs_f64();
    let position = |ds: &CensusDataset| -> HashMap<RecordId, u32> {
        ds.records()
            .iter()
            .enumerate()
            .map(|(i, r)| (r.id, i as u32))
            .collect()
    };
    let (old_pos, new_pos) = (position(old), position(new));
    // `dataset_candidate_pairs` returns its pairs sorted and deduplicated
    let truth_blocked = truth
        .records
        .iter()
        .filter(|(o, n)| pairs.binary_search(&(old_pos[o], new_pos[n])).is_ok())
        .count();
    PairBlocking {
        blocked_pairs: pairs.len() as u64,
        max_block_pairs: largest_block(old, new),
        truth_pairs: truth.records.len() as u64,
        truth_blocked: truth_blocked as u64,
        blocking_s,
    }
}

/// A blocking key of the three passes documented in the linker's
/// blocking module: surname soundex × first letter, surname soundex ×
/// sex, first-name soundex × sex × age band.
#[derive(Hash, PartialEq, Eq)]
enum BlockKey {
    SurnameFirst([u8; 4], char),
    SurnameSex([u8; 4], u8),
    FirstnameAge([u8; 4], u8, Option<i64>),
}

/// Old × new records under the largest blocking key, before the pairs
/// of different keys are deduplicated. The linker keeps its keys
/// private, so the benchmark recomputes them from their documented
/// definition; this number describes the input, it times nothing.
fn largest_block(old: &CensusDataset, new: &CensusDataset) -> u64 {
    let gap = i64::from(new.year - old.year);
    let mut sizes: HashMap<BlockKey, (u64, u64)> = HashMap::new();
    for r in old.records() {
        for k in block_keys(r, gap, true) {
            sizes.entry(k).or_default().0 += 1;
        }
    }
    for r in new.records() {
        for k in block_keys(r, 0, false) {
            sizes.entry(k).or_default().1 += 1;
        }
    }
    sizes.values().map(|&(o, n)| o * n).max().unwrap_or(0)
}

fn block_keys(
    r: &census_model::PersonRecord,
    age_shift: i64,
    adjacent_bands: bool,
) -> Vec<BlockKey> {
    let sex = r.sex.map_or(b'?', |s| s.code().as_bytes()[0]);
    let first_letter = r
        .first_name
        .chars()
        .flat_map(char::to_lowercase)
        .map(textsim::fold_diacritic)
        .find(|&c| c.is_alphanumeric() || c == '-' || c == '\'');
    let mut keys = Vec::new();
    if let Some(sx) = textsim::soundex_code(&r.surname) {
        if let Some(fl) = first_letter {
            keys.push(BlockKey::SurnameFirst(sx, fl));
        }
        keys.push(BlockKey::SurnameSex(sx, sex));
    }
    if let Some(fx) = textsim::soundex_code(&r.first_name) {
        match r.age {
            Some(age) => {
                let band = (i64::from(age) + age_shift).div_euclid(10);
                keys.push(BlockKey::FirstnameAge(fx, sex, Some(band)));
                if adjacent_bands {
                    keys.push(BlockKey::FirstnameAge(fx, sex, Some(band + 1)));
                    keys.push(BlockKey::FirstnameAge(fx, sex, Some(band - 1)));
                }
            }
            None => keys.push(BlockKey::FirstnameAge(fx, sex, None)),
        }
    }
    keys
}

/// The workload descriptor: per-snapshot size and name ambiguity, and
/// per-pair blocking volume and truth size. Returns the JSON document
/// and the per-pair blocking statistics.
pub fn describe(workload: Workload, seed: u64, inputs: &Inputs) -> (Value, Vec<PairBlocking>) {
    let snapshots: Vec<Value> = inputs
        .snapshots
        .iter()
        .map(|ds| {
            let s = DatasetStats::of(ds);
            json!({
                "year": (s.year),
                "records": (s.records),
                "households": (s.households),
                "unique_names": (s.unique_names),
                "name_ambiguity": (s.name_ambiguity)
            })
        })
        .collect();
    let blocking: Vec<PairBlocking> = inputs
        .snapshots
        .windows(2)
        .zip(&inputs.truths)
        .map(|(w, truth)| block_pair(&w[0], &w[1], truth))
        .collect();
    let pairs: Vec<Value> = inputs
        .snapshots
        .windows(2)
        .zip(&blocking)
        .zip(&inputs.truths)
        .map(|((w, b), truth)| {
            json!({
                "old_year": (w[0].year),
                "new_year": (w[1].year),
                "blocked_pairs": (b.blocked_pairs),
                "max_block_pairs": (b.max_block_pairs),
                "truth_record_pairs": (b.truth_pairs),
                "truth_group_pairs": (truth.groups.len()),
                "truth_pairs_blocked": (b.truth_blocked)
            })
        })
        .collect();
    let doc = json!({
        "workload": (workload.name()),
        "seed": seed,
        "snapshots": snapshots,
        "pairs": pairs
    });
    (doc, blocking)
}
