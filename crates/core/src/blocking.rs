//! Candidate pair generation (blocking).
//!
//! The paper compares every record of `R_i` with every record of
//! `R_{i+1}` — feasible for Rawtenstall-sized data but quadratic. This
//! module provides the standard multi-pass blocking used by real linkage
//! systems, plus the exhaustive cross product for paper-fidelity runs at
//! small scale. The default key set is chosen so that every noise class
//! the generator produces is still recoverable:
//!
//! 1. `soundex(surname) × first letter of first name` — robust to surname
//!    typos;
//! 2. `soundex(first name) × sex × age band` — catches women whose
//!    surname changed at marriage; the age band of the old record is
//!    shifted by the census gap and both adjacent bands are indexed, so
//!    age misreporting of ±3 years cannot split a true pair.
//!
//! Keys are packed into a single `u64` per pass — soundex bytes, sex code
//! and age band occupy disjoint bit ranges under a per-pass tag, so two
//! records share a packed key exactly when they would have shared the
//! equivalent formatted string key. That keeps the bucket map free of
//! per-record `String` allocations.
//!
//! Generation is old-record-major ([`Blocker`]): the new-side buckets
//! are built once, with each bucket's members sorted by age, and every
//! old record gathers the members of its buckets into a short row,
//! sorted and deduplicated. Consumers take contiguous ranges of old
//! records, so concatenated rows come out sorted with no global sort.
//! The scoring passes stream rows straight into the row kernel
//! (`prematch::score_blocked`), so the blocked-pair list never exists;
//! [`candidate_pairs`] collects it for callers that want it. With the
//! pre-matching age filter on, an old record scans only the
//! age-plausible window of each bucket (plus its missing-age members).

use crate::idhash::IdMap;
use crate::prematch::age_plausible;
use census_model::{CensusDataset, PersonRecord};
use textsim::{fold_diacritic, soundex_code};

/// How candidate pairs are generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlockingStrategy {
    /// Multi-pass phonetic + age-band blocking (default; near-linear).
    #[default]
    Standard,
    /// Full `R_i × R_{i+1}` cross product — the paper's setting; use only
    /// at small scale.
    Full,
}

/// Width (in years) of the age bands of blocking pass 2.
const AGE_BAND: i64 = 10;

// Pass tags occupy the top two bits of a packed key, so keys of
// different passes can never collide.
const TAG_SURNAME_FIRST: u64 = 1 << 62;
const TAG_SURNAME_SEX: u64 = 2 << 62;
const TAG_FIRSTNAME_AGE: u64 = 3 << 62;
/// Distinguishes a real age band of 0 from a missing age in pass 2 keys.
const HAS_AGE: u64 = 1 << 16;

/// First significant character of a name — the character
/// `normalize_name(s).chars().next()` would return, computed without
/// building the normalised string.
fn first_letter(s: &str) -> Option<char> {
    s.chars()
        .flat_map(char::to_lowercase)
        .map(fold_diacritic)
        .find(|&c| c.is_alphanumeric() || c == '-' || c == '\'')
}

/// The age band, clamped into the 16 bits reserved for it. Realistic
/// bands are single digits; the clamp only matters for absurd ages and
/// clamps both sides of a pair identically.
fn band_bits(band: i64) -> u64 {
    u64::from(band.clamp(i64::from(i16::MIN), i64::from(i16::MAX)) as i16 as u16)
}

/// The per-record ingredients of the packed blocking keys. Key emission
/// and the per-family collision test ([`family_collisions`]) both derive
/// from these fields, so the two cannot drift apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct KeyFields {
    /// `soundex(surname)` as a big-endian `u32`, when the surname yields one.
    sx: Option<u32>,
    /// First significant letter of the first name.
    fl: Option<char>,
    /// `soundex(first name)` as a big-endian `u32`.
    fx: Option<u32>,
    /// Sex code byte (`m`/`f`/`?`).
    sex: u8,
    /// Recorded age.
    age: Option<u32>,
}

impl KeyFields {
    pub(crate) fn of(r: &PersonRecord) -> Self {
        Self {
            sx: soundex_code(&r.surname).map(u32::from_be_bytes),
            fl: first_letter(&r.first_name),
            fx: soundex_code(&r.first_name).map(u32::from_be_bytes),
            sex: r.sex.map_or(b'?', |s| s.code().as_bytes()[0]),
            age: r.age,
        }
    }

    /// Pass 1 key: surname soundex × first letter of the first name.
    fn surname_first_key(self) -> Option<u64> {
        match (self.sx, self.fl) {
            (Some(sx), Some(fl)) => {
                Some(TAG_SURNAME_FIRST | u64::from(sx) << 21 | u64::from(fl as u32))
            }
            _ => None,
        }
    }

    /// Pass 3 key: surname soundex × sex.
    fn surname_sex_key(self) -> Option<u64> {
        self.sx
            .map(|sx| TAG_SURNAME_SEX | u64::from(sx) << 8 | u64::from(self.sex))
    }

    /// Pass 2 key base: first-name soundex × sex, before the age-band
    /// bits are attached.
    fn firstname_age_base(self) -> Option<u64> {
        self.fx
            .map(|fx| TAG_FIRSTNAME_AGE | u64::from(fx) << 25 | u64::from(self.sex) << 17)
    }
}

/// Keys of pass 1 and pass 2 for a record, appended to `out`. `shift` is
/// added to the age before banding (the census gap for old-side records,
/// 0 for new-side). Field packing: soundex codes are 4 ASCII bytes
/// (32 bits), the sex code byte is `m`/`f`/`?`, the first letter is a
/// `char` (≤ 21 bits) — each pass places them in disjoint bit ranges, so
/// packed keys are bijective with the formatted keys they replace.
fn append_keys(kf: KeyFields, shift: i64, both_bands: bool, out: &mut Vec<u64>) {
    if let Some(k) = kf.surname_first_key() {
        out.push(k);
    }
    // pass 3: surname soundex × sex — catches first-name typos at the
    // word start (which break both the first-letter and the fn-soundex
    // keys) and records with a missing first name
    if let Some(k) = kf.surname_sex_key() {
        out.push(k);
    }
    if let Some(base) = kf.firstname_age_base() {
        if let Some(age) = kf.age {
            let band = (i64::from(age) + shift).div_euclid(AGE_BAND);
            out.push(base | HAS_AGE | band_bits(band));
            if both_bands {
                // index the adjacent bands too, so ±age noise at a band
                // boundary cannot hide a true pair
                out.push(base | HAS_AGE | band_bits(band + 1));
                out.push(base | HAS_AGE | band_bits(band - 1));
            }
        } else {
            out.push(base);
        }
    }
}

/// Per-family blocking outcome for a record pair, as
/// `[surname_first, surname_sex, firstname_age]`: `Some(true)` when the
/// two records share the family's key, `Some(false)` when both sides
/// emitted a key for the family but they differ (the family actively
/// rejected the pair), `None` when a side lacks the underlying field.
/// The pair is a blocking candidate exactly when some family collides.
/// Quality telemetry uses this to classify `not_blocked` losses.
pub(crate) fn family_collisions(
    old: KeyFields,
    new: KeyFields,
    year_gap: i64,
) -> [Option<bool>; 3] {
    let same = |a: Option<u64>, b: Option<u64>| a.zip(b).map(|(x, y)| x == y);
    let fa = old
        .firstname_age_base()
        .zip(new.firstname_age_base())
        .map(|(a, b)| {
            a == b
                && match (old.age, new.age) {
                    (Some(oa), Some(na)) => {
                        // the old side indexes bands {b-1, b, b+1} of the
                        // shifted age; the pair collides when the new side's
                        // band-bit pattern matches any of them
                        let ob = (i64::from(oa) + year_gap).div_euclid(AGE_BAND);
                        let nb = band_bits(i64::from(na).div_euclid(AGE_BAND));
                        [ob, ob + 1, ob - 1].into_iter().any(|w| band_bits(w) == nb)
                    }
                    (None, None) => true,
                    _ => false, // mixed presence never collides (HAS_AGE bit)
                }
        });
    [
        same(old.surname_first_key(), new.surname_first_key()),
        same(old.surname_sex_key(), new.surname_sex_key()),
        fa,
    ]
}

/// Capacity to pre-allocate for a `Full` cross product. `checked_mul`
/// guards against overflow on huge (or adversarial) inputs, and the
/// clamp keeps a legitimate but enormous product from reserving the
/// whole address space up front — the vector still grows to the true
/// size by doubling.
pub(crate) fn full_prealloc_capacity(n_old: usize, n_new: usize) -> usize {
    const MAX_PREALLOC: usize = 1 << 24; // 16Mi pairs = 128 MiB of (u32, u32)
    n_old
        .checked_mul(n_new)
        .map_or(MAX_PREALLOC, |c| c.min(MAX_PREALLOC))
}

/// The new side's blocking buckets, built once per generation. Each
/// bucket is one contiguous run of `members`: the missing-age members
/// first, then the aged members sorted by age (ties by index), so an old
/// record can cut the age-plausible window out of a bucket with two
/// binary searches instead of visiting every member. Missing ages are
/// kept apart by position, not by a sentinel age — every `u32` is a
/// legal parsed age.
struct NewBuckets {
    /// Bucket key → `(start, mid, end)`: `members[start..mid]` have no
    /// age, `members[mid..end]` are aged and sorted by `ages[mid..end]`.
    spans: IdMap<u64, (u32, u32, u32)>,
    members: Vec<u32>,
    /// Parallel to `members`; read only over the aged runs.
    ages: Vec<u32>,
}

impl NewBuckets {
    fn build(new: &[&PersonRecord]) -> Self {
        let mut entries: Vec<(u64, Option<u32>, u32)> = Vec::with_capacity(new.len() * 3);
        let mut scratch = Vec::with_capacity(3);
        for (j, r) in new.iter().enumerate() {
            scratch.clear();
            append_keys(KeyFields::of(r), 0, false, &mut scratch);
            entries.extend(scratch.iter().map(|&k| (k, r.age, j as u32)));
        }
        // `None < Some(_)`: within a key, missing ages lead, then ages
        // ascend
        entries.sort_unstable();
        let mut spans = IdMap::default();
        let mut start = 0;
        while start < entries.len() {
            let run = &entries[start..];
            let len = run.partition_point(|e| e.0 == run[0].0);
            let missing = run[..len].partition_point(|e| e.1.is_none());
            let at = |off: usize| u32::try_from(start + off).expect("bucket offsets fit in u32");
            spans.insert(run[0].0, (at(0), at(missing), at(len)));
            start += len;
        }
        let (members, ages) = entries
            .iter()
            .map(|&(_, age, j)| (j, age.unwrap_or(0)))
            .unzip();
        Self {
            spans,
            members,
            ages,
        }
    }

    /// Old record `o`'s row: the new positions sharing a bucket with it,
    /// sorted and deduplicated, into `out.row`. With `tol`, an aged old
    /// record scans only the aged members inside `[a + gap − tol, a +
    /// gap + tol]` plus the missing-age members — exactly the
    /// `age_plausible` pairs.
    fn row(&self, o: &PersonRecord, year_gap: i64, tol: Option<u32>, out: &mut BlockRow) {
        out.keys.clear();
        append_keys(KeyFields::of(o), year_gap, true, &mut out.keys);
        let window = tol.zip(o.age).map(|(t, a)| {
            let expected = i64::from(a) + year_gap;
            (expected - i64::from(t), expected + i64::from(t))
        });
        for k in &out.keys {
            let Some(&(start, mid, end)) = self.spans.get(k) else {
                continue;
            };
            let (start, mid, end) = (start as usize, mid as usize, end as usize);
            match window {
                None => out.row.extend_from_slice(&self.members[start..end]),
                Some((lo, hi)) => {
                    let ages = &self.ages[mid..end];
                    let from = mid + ages.partition_point(|&b| i64::from(b) < lo);
                    let to = mid + ages.partition_point(|&b| i64::from(b) <= hi);
                    out.row.extend_from_slice(&self.members[start..mid]);
                    out.row.extend_from_slice(&self.members[from..to]);
                }
            }
        }
        // several keys may propose the same new record
        out.row.sort_unstable();
        out.row.dedup();
    }
}

/// Reusable scratch of [`Blocker::row`]: the old record's keys and the
/// row itself.
#[derive(Default)]
pub(crate) struct BlockRow {
    keys: Vec<u64>,
    /// The last generated row: new positions, ascending.
    pub(crate) row: Vec<u32>,
}

/// The blocked pairs of one snapshot pair, generated one old-record row
/// at a time: row `i` lists the new positions old record `i` is paired
/// with, ascending, so rows `0, 1, …` give the pairs sorted old-major.
/// With a tolerance, the pre-matching age filter is fused into
/// generation and implausible pairs are never produced. Consumers take
/// contiguous ranges of rows, so no caller needs the whole pair list.
pub(crate) struct Blocker<'a> {
    old: &'a [&'a PersonRecord],
    new: &'a [&'a PersonRecord],
    year_gap: i64,
    strategy: BlockingStrategy,
    tol: Option<u32>,
    /// The new side's buckets; `None` under `Full` blocking, where every
    /// new record is a candidate.
    buckets: Option<NewBuckets>,
}

impl<'a> Blocker<'a> {
    /// Build the generator. `Standard` blocking indexes the new side's
    /// buckets here, once.
    pub(crate) fn new(
        old: &'a [&'a PersonRecord],
        new: &'a [&'a PersonRecord],
        year_gap: i64,
        strategy: BlockingStrategy,
        tol: Option<u32>,
    ) -> Self {
        Self {
            old,
            new,
            year_gap,
            strategy,
            tol,
            buckets: (strategy == BlockingStrategy::Standard).then(|| NewBuckets::build(new)),
        }
    }

    /// The old and the new records, by position.
    pub(crate) fn records(&self) -> (&'a [&'a PersonRecord], &'a [&'a PersonRecord]) {
        (self.old, self.new)
    }

    /// The blocking strategy and the age tolerance fused into it.
    pub(crate) fn strategy(&self) -> (BlockingStrategy, Option<u32>) {
        (self.strategy, self.tol)
    }

    /// Number of rows (old records).
    pub(crate) fn rows(&self) -> usize {
        self.old.len()
    }

    /// Old record `i`'s row into `out.row`.
    pub(crate) fn row(&self, i: usize, out: &mut BlockRow) {
        out.row.clear();
        let o = self.old[i];
        match &self.buckets {
            Some(b) => b.row(o, self.year_gap, self.tol, out),
            None => out.row.extend((0..self.new.len()).filter_map(|j| {
                self.tol
                    .is_none_or(|t| age_plausible(o, self.new[j], self.year_gap, t))
                    .then_some(j as u32)
            })),
        }
    }

    /// Every pair, collected row by row.
    fn collect(&self) -> Vec<(u32, u32)> {
        let mut out = if self.buckets.is_none() {
            Vec::with_capacity(full_prealloc_capacity(self.rows(), self.new.len()))
        } else {
            Vec::new()
        };
        let mut row = BlockRow::default();
        for i in 0..self.rows() {
            self.row(i, &mut row);
            out.extend(row.row.iter().map(|&j| (i as u32, j)));
        }
        out
    }
}

/// Generate candidate `(old index, new index)` pairs over two record
/// slices. Indices refer to positions in the given slices. The result is
/// deduplicated and sorted.
#[must_use]
pub fn candidate_pairs(
    old: &[&PersonRecord],
    new: &[&PersonRecord],
    year_gap: i64,
    strategy: BlockingStrategy,
) -> Vec<(u32, u32)> {
    Blocker::new(old, new, year_gap, strategy, None).collect()
}

/// Convenience: candidate pairs over whole datasets, with the year gap
/// derived from the dataset years.
#[must_use]
pub fn dataset_candidate_pairs(
    old: &CensusDataset,
    new: &CensusDataset,
    strategy: BlockingStrategy,
) -> Vec<(u32, u32)> {
    let old_refs: Vec<&PersonRecord> = old.records().iter().collect();
    let new_refs: Vec<&PersonRecord> = new.records().iter().collect();
    candidate_pairs(
        &old_refs,
        &new_refs,
        i64::from(new.year - old.year),
        strategy,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use census_model::{HouseholdId, RecordId, Role, Sex};

    fn rec(id: u64, fname: &str, sname: &str, sex: Sex, age: u32) -> PersonRecord {
        let mut r = PersonRecord::empty(RecordId(id), HouseholdId(0), Role::Head);
        r.first_name = fname.into();
        r.surname = sname.into();
        r.sex = Some(sex);
        r.age = Some(age);
        r
    }

    #[test]
    fn full_strategy_is_cross_product() {
        let o1 = rec(0, "a", "b", Sex::Male, 20);
        let o2 = rec(1, "c", "d", Sex::Male, 30);
        let n1 = rec(0, "e", "f", Sex::Male, 40);
        let pairs = candidate_pairs(&[&o1, &o2], &[&n1], 10, BlockingStrategy::Full);
        assert_eq!(pairs, vec![(0, 0), (1, 0)]);
    }

    #[test]
    fn full_prealloc_capacity_is_guarded() {
        assert_eq!(full_prealloc_capacity(10, 10), 100);
        assert_eq!(full_prealloc_capacity(0, 5), 0);
        // a product that overflows usize must not panic or reserve it all
        assert_eq!(full_prealloc_capacity(usize::MAX, 2), 1 << 24);
        // a huge but representable product is clamped
        assert_eq!(full_prealloc_capacity(1 << 20, 1 << 20), 1 << 24);
    }

    #[test]
    fn identical_name_is_candidate() {
        let o = rec(0, "john", "ashworth", Sex::Male, 39);
        let n = rec(0, "john", "ashworth", Sex::Male, 49);
        let pairs = candidate_pairs(&[&o], &[&n], 10, BlockingStrategy::Standard);
        assert_eq!(pairs, vec![(0, 0)]);
    }

    #[test]
    fn surname_typo_is_candidate() {
        let o = rec(0, "john", "ashworth", Sex::Male, 39);
        let n = rec(0, "john", "ashwerth", Sex::Male, 49); // same soundex
        let pairs = candidate_pairs(&[&o], &[&n], 10, BlockingStrategy::Standard);
        assert!(!pairs.is_empty());
    }

    #[test]
    fn married_woman_with_new_surname_is_candidate() {
        // surname changes completely, but first name + sex + shifted age
        // band match via pass 2
        let o = rec(0, "alice", "ashworth", Sex::Female, 8);
        let n = rec(0, "alice", "smith", Sex::Female, 18);
        let pairs = candidate_pairs(&[&o], &[&n], 10, BlockingStrategy::Standard);
        assert!(!pairs.is_empty());
    }

    #[test]
    fn age_noise_across_band_boundary_is_candidate() {
        // true age 19+10=29 (band 2), reported 31 (band 3): adjacent-band
        // indexing must still propose the pair
        let o = rec(0, "alice", "ashworth", Sex::Female, 19);
        let n = rec(0, "alice", "smith", Sex::Female, 31);
        let pairs = candidate_pairs(&[&o], &[&n], 10, BlockingStrategy::Standard);
        assert!(!pairs.is_empty());
    }

    #[test]
    fn unrelated_records_are_not_candidates() {
        let o = rec(0, "john", "ashworth", Sex::Male, 39);
        let n = rec(0, "mary", "pilkington", Sex::Female, 20);
        let pairs = candidate_pairs(&[&o], &[&n], 10, BlockingStrategy::Standard);
        assert!(pairs.is_empty());
    }

    #[test]
    fn pairs_are_deduplicated() {
        // same name and compatible age: both passes propose the pair
        let o = rec(0, "john", "ashworth", Sex::Male, 39);
        let n = rec(0, "john", "ashworth", Sex::Male, 49);
        let pairs = candidate_pairs(&[&o], &[&n], 10, BlockingStrategy::Standard);
        assert_eq!(pairs.len(), 1);
    }

    #[test]
    fn missing_names_fall_out_gracefully() {
        let mut o = rec(0, "", "", Sex::Male, 39);
        o.age = None;
        let n = rec(0, "john", "ashworth", Sex::Male, 49);
        let pairs = candidate_pairs(&[&o], &[&n], 10, BlockingStrategy::Standard);
        assert!(pairs.is_empty());
    }

    #[test]
    fn missing_age_blocks_separately_from_banded_age() {
        // missing age must not share a key with a real band-0 age
        let mut o = rec(0, "john", "pilkington", Sex::Male, 0);
        o.age = None;
        o.surname = String::new();
        let mut n = rec(0, "john", "ramsbottom", Sex::Male, 3);
        n.surname = String::new();
        let pairs = candidate_pairs(&[&o], &[&n], 0, BlockingStrategy::Standard);
        assert!(pairs.is_empty());
        // two missing ages do share the pass-2 key
        let mut n2 = rec(0, "john", "ramsbottom", Sex::Male, 3);
        n2.age = None;
        n2.surname = String::new();
        let pairs = candidate_pairs(&[&o], &[&n2], 0, BlockingStrategy::Standard);
        assert_eq!(pairs, vec![(0, 0)]);
    }

    /// The highest-priority key two records collide on (surname ×
    /// first letter, then surname × sex, then first name × age band —
    /// the emission order of [`append_keys`]), recomputed from the key
    /// fields independently of the generator; `None` when they share no
    /// key.
    fn owner_key(old: KeyFields, new: KeyFields, year_gap: i64) -> Option<u64> {
        if let (Some(a), Some(b)) = (old.surname_first_key(), new.surname_first_key()) {
            if a == b {
                return Some(a);
            }
        }
        if let (Some(a), Some(b)) = (old.surname_sex_key(), new.surname_sex_key()) {
            if a == b {
                return Some(a);
            }
        }
        if let (Some(a), Some(b)) = (old.firstname_age_base(), new.firstname_age_base()) {
            if a == b {
                match (old.age, new.age) {
                    (Some(oa), Some(na)) => {
                        let ob = (i64::from(oa) + year_gap).div_euclid(AGE_BAND);
                        let nb = band_bits(i64::from(na).div_euclid(AGE_BAND));
                        if [ob, ob + 1, ob - 1].into_iter().any(|w| band_bits(w) == nb) {
                            return Some(b | HAS_AGE | nb);
                        }
                    }
                    (None, None) => return Some(b),
                    _ => {}
                }
            }
        }
        None
    }

    /// Brute-force blocking: every pair that collides on a key
    /// (`owner_key` is total over colliding pairs) and, under `tol`, is
    /// age-plausible — in `(old, new)` order.
    fn oracle(
        o: &[&PersonRecord],
        n: &[&PersonRecord],
        gap: i64,
        tol: Option<u32>,
    ) -> Vec<(u32, u32)> {
        let new_kf: Vec<KeyFields> = n.iter().map(|r| KeyFields::of(r)).collect();
        let mut out = Vec::new();
        for (i, r) in o.iter().enumerate() {
            let okf = KeyFields::of(r);
            for (j, s) in n.iter().enumerate() {
                if owner_key(okf, new_kf[j], gap).is_some()
                    && tol.is_none_or(|t| age_plausible(r, s, gap, t))
                {
                    out.push((i as u32, j as u32));
                }
            }
        }
        out
    }

    /// The record-major generator, and the public entry point, against
    /// the oracle.
    fn assert_matches_oracle(o: &[&PersonRecord], n: &[&PersonRecord], gap: i64) {
        for tol in [None, Some(0), Some(3)] {
            let want = oracle(o, n, gap, tol);
            assert!(!want.is_empty(), "degenerate case: gap {gap}, tol {tol:?}");
            let got = Blocker::new(o, n, gap, BlockingStrategy::Standard, tol).collect();
            assert_eq!(got, want, "gap {gap}, tol {tol:?}");
            if tol.is_none() {
                let public = candidate_pairs(o, n, gap, BlockingStrategy::Standard);
                assert_eq!(public, want, "public path, gap {gap}");
            }
        }
    }

    #[test]
    fn blocking_matches_oracle_on_every_snapshot_pair() {
        // every ordered snapshot pair of the small series, so reversed
        // pairs cover negative year gaps
        use census_synth::{generate_series, SimConfig};
        let series = generate_series(&SimConfig::small());
        for old in &series.snapshots {
            for new in &series.snapshots {
                if old.year == new.year {
                    continue;
                }
                let o: Vec<&PersonRecord> = old.records().iter().collect();
                let n: Vec<&PersonRecord> = new.records().iter().collect();
                assert_matches_oracle(&o, &n, i64::from(new.year - old.year));
            }
        }
    }

    /// One surname, so every record shares the pass-1/pass-3 buckets,
    /// and ages at the edges of the parsed range.
    fn hostile_age_records() -> Vec<PersonRecord> {
        let ages = [
            Some(0),
            Some(9),
            Some(19),
            Some(200),
            Some(u32::MAX - 3),
            Some(u32::MAX),
            None,
        ];
        let mut records = Vec::new();
        for fname in ["john", "jon", "mary", ""] {
            for sex in [Some(Sex::Male), Some(Sex::Female), None] {
                for age in ages {
                    let mut r = rec(records.len() as u64, fname, "smith", Sex::Male, 0);
                    r.sex = sex;
                    r.age = age;
                    records.push(r);
                }
            }
        }
        records
    }

    #[test]
    fn generator_matches_oracle_on_hostile_ages() {
        let records = hostile_age_records();
        let all: Vec<&PersonRecord> = records.iter().collect();
        // a lopsided split: the new side sees every record, the old side
        // every third
        let some: Vec<&PersonRecord> = records.iter().step_by(3).collect();
        for gap in [10, -10, 0, -200] {
            assert_matches_oracle(&some, &all, gap);
            assert_matches_oracle(&all, &some, gap);
        }
    }

    /// The fused blocking-and-scoring pass against its definition: the
    /// collected pairs, scored one at a time with
    /// `matches_compiled_counted` — the same `(i, j, agg_sim)` sequence
    /// bit for bit, the same blocked, scored, matched and prune counts,
    /// and probe and arena-computation counts independent of the thread
    /// count — under both strategies, every tolerance and 1, 2 and 8
    /// threads.
    /// The cache's refusal edge sits exactly at the blocked count.
    fn assert_fused_pass_matches_oracle(o: &[&PersonRecord], n: &[&PersonRecord], gap: i64) {
        use crate::config::Parallelism;
        use crate::prematch::score_blocked;
        use crate::simfunc::SimFunc;
        use obs::{Collector, EventKind};
        let sim = SimFunc::omega2(0.5);
        let op: Vec<_> = o.iter().map(|r| sim.compile(r)).collect();
        let np: Vec<_> = n.iter().map(|r| sim.compile(r)).collect();
        let mut cache = crate::ProfileCache::new();
        let values = cache.rows(&sim, o, n, 1, &Collector::disabled());
        let pass = |blocker: &Blocker, threads: usize, obs: &Collector, limit: Option<u64>| {
            let par = Parallelism {
                threads,
                ..Parallelism::default()
            };
            let kind = EventKind::PrematchTask;
            score_blocked(blocker, &values, &sim, kind, par, obs, limit)
        };
        let mut matched = 0;
        for strategy in [BlockingStrategy::Standard, BlockingStrategy::Full] {
            for tol in [None, Some(0), Some(3)] {
                let blocker = Blocker::new(o, n, gap, strategy, tol);
                let pairs = blocker.collect();
                let mut prunes = 0;
                let want: Vec<(u32, u32, u64)> = pairs
                    .iter()
                    .filter_map(|&(i, j)| {
                        sim.matches_compiled_counted(&op[i as usize], &np[j as usize], &mut prunes)
                            .map(|s| (i, j, s.to_bits()))
                    })
                    .collect();
                matched += want.len();
                let (mut probes, mut unique) = (None, None);
                for threads in [1, 2, 8] {
                    let label = format!("gap {gap}, {strategy:?}, tol {tol:?}, {threads} threads");
                    let obs = Collector::enabled();
                    let scored = pass(&blocker, threads, &obs, None).expect("no limit, no abort");
                    let got: Vec<(u32, u32, u64)> = scored
                        .chunks
                        .iter()
                        .flatten()
                        .map(|&(i, j, s)| (i, j, s.to_bits()))
                        .collect();
                    assert_eq!(got, want, "{label}: scored pairs diverge");
                    scored.report(&obs);
                    let trace = obs.finish();
                    let count = |name: &str| trace.counter(name);
                    assert_eq!(
                        count("blocking_pairs_generated"),
                        pairs.len() as u64,
                        "{label}"
                    );
                    assert_eq!(
                        count("prematch_pairs_scored"),
                        pairs.len() as u64,
                        "{label}"
                    );
                    assert_eq!(
                        count("prematch_pairs_matched"),
                        want.len() as u64,
                        "{label}"
                    );
                    assert_eq!(count("early_exit_prunes"), prunes, "{label}");
                    let p = count("pair_score_batch_probes");
                    assert!(p >= pairs.len() as u64, "{label}: {p} probes");
                    assert_eq!(*probes.get_or_insert(p), p, "{label}: probes moved");
                    let u = count("pair_score_batched_unique");
                    assert!(u <= p, "{label}: {u} of {p} probes computed");
                    assert_eq!(*unique.get_or_insert(u), u, "{label}: memo reuse moved");
                }
                let blocked = pairs.len() as u64;
                for threads in [1, 2] {
                    let label = format!("gap {gap}, {strategy:?}, tol {tol:?}, {threads} threads");
                    if blocked > 0 {
                        let obs = Collector::enabled();
                        let aborted = pass(&blocker, threads, &obs, Some(blocked - 1));
                        assert!(aborted.is_none(), "{label}: limit below the blocked count");
                        let trace = obs.finish();
                        assert!(trace.counters.iter().all(|c| c.value == 0), "{label}");
                    }
                    let obs = Collector::disabled();
                    let kept = pass(&blocker, threads, &obs, Some(blocked));
                    assert!(kept.is_some(), "{label}: limit at the blocked count");
                }
            }
        }
        assert!(matched > 0, "degenerate corpus: gap {gap}");
    }

    #[test]
    fn fused_pass_matches_oracle_on_hostile_ages() {
        let records = hostile_age_records();
        let all: Vec<&PersonRecord> = records.iter().collect();
        let some: Vec<&PersonRecord> = records.iter().step_by(3).collect();
        for gap in [10, -10, 0, -200] {
            assert_fused_pass_matches_oracle(&some, &all, gap);
            assert_fused_pass_matches_oracle(&all, &some, gap);
        }
    }

    #[test]
    fn fused_pass_matches_oracle_on_a_one_surname_town() {
        // every surname the same: the surname passes put each old record
        // in one giant bucket with the whole new side
        use census_synth::{generate_series, SimConfig};
        let series = generate_series(&SimConfig::small());
        let smith = |ds: &CensusDataset| -> Vec<PersonRecord> {
            ds.records()
                .iter()
                .take(160)
                .map(|r| {
                    let mut r = r.clone();
                    r.surname = "smith".into();
                    r
                })
                .collect()
        };
        let (old, new) = (smith(&series.snapshots[0]), smith(&series.snapshots[1]));
        let o: Vec<&PersonRecord> = old.iter().collect();
        let n: Vec<&PersonRecord> = new.iter().collect();
        assert_fused_pass_matches_oracle(&o, &n, 10);
    }

    #[test]
    fn fused_age_filter_equals_retain_after_the_fact() {
        use census_synth::{generate_series, SimConfig};
        let series = generate_series(&SimConfig::small());
        let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
        let o: Vec<&PersonRecord> = old.records().iter().collect();
        let n: Vec<&PersonRecord> = new.records().iter().collect();
        let gap = i64::from(new.year - old.year);
        let standard = oracle(&o, &n, gap, Some(3));
        for strategy in [BlockingStrategy::Standard, BlockingStrategy::Full] {
            let mut unfused = candidate_pairs(&o, &n, gap, strategy);
            unfused.retain(|&(i, j)| age_plausible(o[i as usize], n[j as usize], gap, 3));
            let fused = Blocker::new(&o, &n, gap, strategy, Some(3)).collect();
            assert_eq!(unfused, fused, "{strategy:?}");
            assert!(!fused.is_empty());
            if strategy == BlockingStrategy::Standard {
                assert_eq!(fused, standard, "oracle");
            }
        }
    }

    #[test]
    fn owner_key_agrees_with_emitted_key_collisions() {
        // exhaustive cross-check on a synthetic snapshot pair: a pair is
        // a blocking candidate iff `owner_key` is Some, and the owner is
        // always a key both sides actually emitted
        use census_synth::{generate_series, SimConfig};
        use std::collections::HashSet;
        let series = generate_series(&SimConfig::small());
        let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
        let o: Vec<&PersonRecord> = old.records().iter().collect();
        let n: Vec<&PersonRecord> = new.records().iter().collect();
        let gap = i64::from(new.year - old.year);
        let candidates: HashSet<(u32, u32)> =
            candidate_pairs(&o, &n, gap, BlockingStrategy::Standard)
                .into_iter()
                .collect();
        let old_kf: Vec<KeyFields> = o.iter().map(|r| KeyFields::of(r)).collect();
        let new_kf: Vec<KeyFields> = n.iter().map(|r| KeyFields::of(r)).collect();
        let mut ko = Vec::new();
        let mut kn = Vec::new();
        for (i, &okf) in old_kf.iter().enumerate() {
            ko.clear();
            append_keys(okf, gap, true, &mut ko);
            for (j, &nkf) in new_kf.iter().enumerate() {
                kn.clear();
                append_keys(nkf, 0, false, &mut kn);
                let owner = owner_key(okf, nkf, gap);
                let is_candidate = candidates.contains(&(i as u32, j as u32));
                assert_eq!(
                    owner.is_some(),
                    is_candidate,
                    "owner/candidate disagree at ({i},{j}): owner={owner:?}"
                );
                assert_eq!(
                    family_collisions(okf, nkf, gap).contains(&Some(true)),
                    is_candidate,
                    "family collisions/candidate disagree at ({i},{j})"
                );
                if let Some(k) = owner {
                    assert!(
                        ko.contains(&k) && kn.contains(&k),
                        "owner {k:#x} of ({i},{j}) not emitted by both sides"
                    );
                }
            }
        }
        assert!(!candidates.is_empty());
    }

    #[test]
    fn owner_key_respects_age_presence() {
        // a missing age must never collide with a banded age via pass 2
        let with_age = KeyFields::of(&rec(0, "john", "", Sex::Male, 3));
        let mut r = rec(1, "john", "", Sex::Male, 0);
        r.age = None;
        let no_age = KeyFields::of(&r);
        assert_eq!(owner_key(no_age, with_age, 0), None);
        assert_eq!(owner_key(with_age, no_age, 0), None);
        // two missing ages do share the bare pass-2 base
        assert!(owner_key(no_age, no_age, 0).is_some());
        // the per-family view agrees: no surname keys, and the pass-2
        // family disagrees on mixed presence but collides on two missing
        assert_eq!(
            family_collisions(no_age, with_age, 0),
            [None, None, Some(false)]
        );
        assert_eq!(
            family_collisions(with_age, no_age, 0),
            [None, None, Some(false)]
        );
        assert_eq!(
            family_collisions(no_age, no_age, 0),
            [None, None, Some(true)]
        );
    }

    #[test]
    fn blocking_recall_on_synthetic_pair() {
        // measure: the fraction of true links proposed by Standard
        // blocking must be near-total
        use census_synth::{generate_series, SimConfig};
        let series = generate_series(&SimConfig::small());
        let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
        let truth = series.truth_between(0, 1).unwrap();
        let pairs = dataset_candidate_pairs(old, new, BlockingStrategy::Standard);
        let proposed: std::collections::HashSet<(u64, u64)> = pairs
            .iter()
            .map(|&(i, j)| {
                (
                    old.records()[i as usize].id.raw(),
                    new.records()[j as usize].id.raw(),
                )
            })
            .collect();
        let total = truth.records.len();
        let found = truth
            .records
            .iter()
            .filter(|&(o, n)| proposed.contains(&(o.raw(), n.raw())))
            .count();
        let recall = found as f64 / total as f64;
        assert!(
            recall > 0.93,
            "blocking recall {recall:.3} too low ({found}/{total})"
        );
    }
}
