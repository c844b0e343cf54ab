//! Run-wide table of interned attribute values.
//!
//! The iterative driver (Algorithm 1) re-scores largely the same residue
//! records at δ, δ−Δ, …, and the remaining-records pass scores them once
//! more. What a pass needs of a record — its normalised, tokenised
//! attribute values — depends only on the attribute *specs*, not on δ,
//! and census values repeat heavily: at paper scale ~205k attribute
//! values hold fewer than 10k distinct ones. [`ProfileCache`] therefore
//! interns each spec's values once per run: every distinct value gets a
//! dense id and is compiled once, every record gets a row of value ids,
//! and one [`MultisetArena`] per spec lays the compiled values out for
//! the row kernel. The table stays valid for as long as the similarity
//! function's specs stay the same and is rebuilt when they change (e.g.
//! a remainder pass with different weights).

use crate::pairscore::PositionIndex;
use crate::prematch::{run_pool, TASKS};
use crate::simfunc::{AttributeSpec, SimFunc};
use census_model::{PersonRecord, RecordId};
use obs::{Collector, Footprint, MemoryFootprint};
use std::collections::HashMap;
use std::sync::Mutex;
use textsim::{normalize_value, CompiledValue, MultisetArena, StringMeasure};

/// The interned values of one attribute spec. Lookups go raw string →
/// id first, so a repeated value costs one hash probe and allocates
/// nothing; a raw string seen for the first time is normalised and looked
/// up again, so values that normalise equal ("John", " JOHN.") share an
/// id and one compiled value.
#[derive(Debug, Default)]
struct SpecValues {
    by_raw: HashMap<String, u32>,
    by_norm: HashMap<String, u32>,
    /// The compiled value of each id, in id order.
    values: Vec<CompiledValue>,
    /// Normalised values interned but not compiled yet, in id order after
    /// `values`.
    pending: Vec<String>,
}

impl SpecValues {
    /// The id of `raw`, interning it on first sight. A new value is
    /// queued in `pending`; [`compile_pending`] compiles it.
    fn intern(&mut self, raw: &str) -> u32 {
        if let Some(&id) = self.by_raw.get(raw) {
            return id;
        }
        let norm = normalize_value(raw);
        let id = match self.by_norm.get(&norm) {
            Some(&id) => id,
            None => {
                // a run has fewer distinct values per spec than records,
                // and record positions are u32 throughout the kernel
                let id = (self.values.len() + self.pending.len()) as u32;
                self.by_norm.insert(norm.clone(), id);
                self.pending.push(norm);
                id
            }
        };
        self.by_raw.insert(raw.to_owned(), id);
        id
    }

    fn footprint_bytes(&self) -> u64 {
        let map = |m: &HashMap<String, u32>| {
            obs::footprint::map_bytes(m.len(), std::mem::size_of::<(String, u32)>())
                + m.keys().map(|k| k.capacity() as u64).sum::<u64>()
        };
        map(&self.by_raw)
            + map(&self.by_norm)
            + obs::footprint::vec_capacity_bytes(&self.values)
            + self
                .values
                .iter()
                .map(CompiledValue::heap_bytes)
                .sum::<u64>()
    }
}

/// The value-id rows of one census side, in fill order, with a record-id
/// → slot index over them (dense or sparse, so raw ids of any magnitude
/// are safe).
#[derive(Debug, Default)]
struct Side {
    ids: Vec<RecordId>,
    /// `rows[slot * n_specs + spec]`.
    rows: Vec<u32>,
    slot_of: PositionIndex,
}

impl Side {
    /// The slot of each of `records`: a record this side has seen keeps
    /// its slot, and an unseen one takes the next, in input order. Also
    /// the unseen records, whose rows the caller appends in that order
    /// before [`Side::index`].
    fn admit<'r>(&mut self, records: &[&'r PersonRecord]) -> (Vec<u32>, Vec<&'r PersonRecord>) {
        let mut fresh = Vec::new();
        let mut slots = Vec::with_capacity(records.len());
        for &r in records {
            let slot = self.slot_of.get(r.id).unwrap_or_else(|| {
                fresh.push(r);
                self.ids.push(r.id);
                (self.ids.len() - 1) as u32
            });
            slots.push(slot);
        }
        (slots, fresh)
    }

    /// Append the rows of the `fresh` records [`Side::admit`] returned,
    /// read from one column of value ids per spec, and re-index.
    fn index(&mut self, columns: &[Vec<u32>], fresh: std::ops::Range<usize>) {
        if fresh.is_empty() {
            return;
        }
        self.rows.reserve(fresh.len() * columns.len());
        for i in fresh {
            self.rows.extend(columns.iter().map(|column| column[i]));
        }
        self.slot_of = PositionIndex::from_ids(self.ids.iter().copied());
    }

    /// The rows at `slots`, laid out one after another.
    fn gather(&self, slots: &[u32], n_specs: usize) -> Vec<u32> {
        let mut rows = Vec::with_capacity(slots.len() * n_specs);
        for &slot in slots {
            rows.extend_from_slice(&self.rows[slot as usize * n_specs..][..n_specs]);
        }
        rows
    }
}

/// Compile every spec's pending values into its `values`, in id order:
/// the values of all specs, spec by spec, are cut into [`TASKS`]
/// contiguous tasks on a pool of at most `threads` workers, so one spec
/// with many new values does not hold up the others.
fn compile_pending(
    table: &mut [&mut SpecValues],
    specs: &[AttributeSpec],
    threads: usize,
    obs: &Collector,
) {
    let jobs: Vec<(StringMeasure, &str)> = table
        .iter()
        .zip(specs)
        .flat_map(|(values, spec)| values.pending.iter().map(|v| (spec.measure, v.as_str())))
        .collect();
    let per_task = jobs.len().div_ceil(TASKS).max(1);
    let compiled = run_pool(jobs.len().div_ceil(per_task), threads, obs, |t, _| {
        jobs[t * per_task..((t + 1) * per_task).min(jobs.len())]
            .iter()
            .map(|&(measure, norm)| measure.compile(norm))
            .collect::<Vec<_>>()
    });
    drop(jobs);
    let mut compiled = compiled.into_iter().flatten();
    for values in table.iter_mut() {
        let n = std::mem::take(&mut values.pending).len();
        values.values.extend(compiled.by_ref().take(n));
    }
}

/// The row kernel's input for one pass: a value-id row per residue record,
/// laid out `old[i * n_specs + spec]` for the `i`-th old record of the
/// pass (likewise `new`), and one arena per spec indexed by those ids.
/// Ids are shared by both sides, so equal ids name equal values.
pub(crate) struct ValueRows<'a> {
    pub(crate) n_specs: usize,
    pub(crate) old: Vec<u32>,
    pub(crate) new: Vec<u32>,
    pub(crate) arenas: &'a [MultisetArena],
}

/// A per-run table of interned attribute values for the two census
/// sides: a value-id row per record, keyed by record id, and the compiled
/// values and arenas those ids index. Invalidated when the attribute
/// specs change. Record ids must be unique within each side.
#[derive(Debug, Default)]
pub struct ProfileCache {
    specs: Vec<AttributeSpec>,
    /// One value table per spec, shared by both sides.
    table: Vec<SpecValues>,
    /// One arena per spec over `table[k].values`; rebuilt when a fill
    /// interned new values, so once per spec list when the first fill
    /// brings every record of the run.
    arenas: Vec<MultisetArena>,
    old: Side,
    new: Side,
    built: usize,
    reused: usize,
}

impl ProfileCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop the whole table when `sim`'s specs differ from the ones it
    /// was filled under — ids and compiled values are only valid for the
    /// exact spec list that interned them.
    fn ensure_specs(&mut self, sim: &SimFunc) {
        if self.specs.as_slice() != sim.specs() {
            self.specs = sim.specs().to_vec();
            self.table = (0..self.specs.len())
                .map(|_| SpecValues::default())
                .collect();
            self.arenas = Vec::new();
            self.old = Side::default();
            self.new = Side::default();
        }
    }

    /// Intern-or-fetch the value-id rows of both record sides, in input
    /// order, with the arenas they index. Records seen in an earlier call
    /// under the same specs reuse their row.
    ///
    /// The unseen records intern spec by spec: each spec's column of
    /// values, the old side's records then the new side's, is one task on
    /// a pool of at most `threads` workers. A spec's ids are handed out in
    /// first-sight order over that record sequence, so they do not
    /// depend on the thread count. The values new to the table then
    /// compile in [`TASKS`] tasks across all specs, and each spec that
    /// gained values lays out its arena as one more task.
    pub(crate) fn rows(
        &mut self,
        sim: &SimFunc,
        old: &[&PersonRecord],
        new: &[&PersonRecord],
        threads: usize,
        obs: &Collector,
    ) -> ValueRows<'_> {
        self.ensure_specs(sim);
        let n_specs = self.specs.len();
        let (old_slots, old_fresh) = self.old.admit(old);
        let (new_slots, new_fresh) = self.new.admit(new);
        let added = old_fresh.len() + new_fresh.len();
        self.built += added;
        self.reused += old.len() + new.len() - added;
        let fresh: Vec<&PersonRecord> = old_fresh.iter().chain(&new_fresh).copied().collect();
        let columns = self.intern(&fresh, threads, obs);
        self.old.index(&columns, 0..old_fresh.len());
        self.new.index(&columns, old_fresh.len()..added);
        ValueRows {
            n_specs,
            old: self.old.gather(&old_slots, n_specs),
            new: self.new.gather(&new_slots, n_specs),
            arenas: &self.arenas,
        }
    }

    /// Intern the values of `fresh`, records new to the table, in order:
    /// one column of value ids per spec. The pool stays idle when there is
    /// nothing to intern and every arena is laid out.
    fn intern(
        &mut self,
        fresh: &[&PersonRecord],
        threads: usize,
        obs: &Collector,
    ) -> Vec<Vec<u32>> {
        let n_specs = self.specs.len();
        // the first fill under these specs lays out every arena
        let first = self.arenas.len() != n_specs;
        if fresh.is_empty() && !first {
            return vec![Vec::new(); n_specs];
        }
        if first {
            self.arenas = (0..n_specs).map(|_| MultisetArena::build(&[])).collect();
        }
        // a task only ever locks its own spec's cell
        const POISONED: &str = "a panicked task's cell is never read again";
        let specs = &self.specs;
        let table: Vec<Mutex<&mut SpecValues>> = self.table.iter_mut().map(Mutex::new).collect();
        let columns = run_pool(n_specs, threads, obs, |k, _| {
            let mut values = table[k].lock().expect(POISONED);
            let mut buf = String::new();
            fresh
                .iter()
                .map(|r| values.intern(r.attribute_into(specs[k].attribute, &mut buf)))
                .collect::<Vec<u32>>()
        });
        let mut table: Vec<&mut SpecValues> = table
            .into_iter()
            .map(|m| m.into_inner().expect(POISONED))
            .collect();
        compile_pending(&mut table, specs, threads, obs);
        let arenas: Vec<Mutex<&mut MultisetArena>> =
            self.arenas.iter_mut().map(Mutex::new).collect();
        run_pool(n_specs, threads, obs, |k, _| {
            let mut arena = arenas[k].lock().expect(POISONED);
            let values = &table[k].values;
            if first || arena.len() != values.len() {
                **arena = MultisetArena::build(&values.iter().collect::<Vec<_>>());
            }
        });
        columns
    }

    /// Record rows interned so far (cache misses).
    #[must_use]
    pub fn built(&self) -> usize {
        self.built
    }

    /// Record rows served from the cache (hits).
    #[must_use]
    pub fn reused(&self) -> usize {
        self.reused
    }
}

impl MemoryFootprint for ProfileCache {
    /// The id rows, slot indexes and value tables. The arenas are
    /// reported per scoring pass, with the kernel's memos, as the
    /// `value_arenas` row.
    fn footprint(&self) -> Footprint {
        let sides: u64 = [&self.old, &self.new]
            .iter()
            .map(|s| {
                obs::footprint::vec_capacity_bytes(&s.ids)
                    + obs::footprint::vec_capacity_bytes(&s.rows)
                    + s.slot_of.footprint().bytes
            })
            .sum();
        let table: u64 = self.table.iter().map(SpecValues::footprint_bytes).sum();
        let records = (self.old.ids.len() + self.new.ids.len()) as u64;
        let values: u64 = self.table.iter().map(|t| t.values.len() as u64).sum();
        Footprint::new(sides + table, records + values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use census_model::{Attribute, HouseholdId, Role, Sex};

    fn rec(id: u64, fname: &str) -> PersonRecord {
        let mut r = PersonRecord::empty(RecordId(id), HouseholdId(0), Role::Head);
        r.first_name = fname.into();
        r.surname = "ashworth".into();
        r.sex = Some(Sex::Male);
        r
    }

    /// The row of `r` (one side) as owned ids, for comparisons.
    fn row_of(cache: &mut ProfileCache, sim: &SimFunc, r: &PersonRecord) -> Vec<u32> {
        cache.rows(sim, &[r], &[], 1, &Collector::disabled()).old
    }

    /// Score old row `i` against new row `j` through the arenas, as the
    /// row kernel does, in spec order.
    fn score(sim: &SimFunc, rows: &ValueRows, i: usize, j: usize) -> f64 {
        let n = rows.n_specs;
        (0..n)
            .map(|k| {
                let (a, b) = (rows.old[i * n + k], rows.new[j * n + k]);
                sim.specs()[k].weight * rows.arenas[k].similarity(a, b)
            })
            .sum()
    }

    #[test]
    fn second_pass_reuses_every_profile() {
        let sim = SimFunc::omega2(0.7);
        let (a, b, c) = (rec(0, "john"), rec(1, "mary"), rec(2, "alice"));
        let mut cache = ProfileCache::new();
        let first = {
            let rows = cache.rows(&sim, &[&a, &b], &[&c], 1, &Collector::disabled());
            assert_eq!(rows.old.len(), 2 * rows.n_specs);
            assert_eq!(rows.new.len(), rows.n_specs);
            (rows.old, rows.new)
        };
        assert_eq!(cache.built(), 3);
        assert_eq!(cache.reused(), 0);
        // lower threshold, same specs: everything is a hit, the same ids
        let lowered = sim.with_threshold(0.5);
        let rows = cache.rows(&lowered, &[&a, &b], &[&c], 1, &Collector::disabled());
        assert_eq!((rows.old, rows.new), first);
        assert_eq!(cache.built(), 3);
        assert_eq!(cache.reused(), 3);
    }

    #[test]
    fn values_that_normalise_equal_share_one_id_and_compile_once() {
        let sim = SimFunc::omega2(0.7);
        let names = ["John", " john ", "JOHN.", "john", "jo-hn", "Jon"];
        let recs: Vec<PersonRecord> = names
            .iter()
            .enumerate()
            .map(|(i, n)| rec(i as u64, n))
            .collect();
        let refs: Vec<&PersonRecord> = recs.iter().collect();
        let mut cache = ProfileCache::new();
        let rows = cache.rows(&sim, &refs, &[], 1, &Collector::disabled()).old;
        let n = sim.specs().len();
        let first: Vec<u32> = (0..names.len()).map(|i| rows[i * n]).collect();
        // case, outer whitespace and punctuation are normalised away; the
        // hyphen and a different spelling are not
        assert_eq!(first[..4], [first[0]; 4]);
        assert_ne!(first[4], first[0]);
        assert_ne!(first[5], first[0]);
        let given = &cache.table[0];
        assert_eq!(given.values.len(), 3, "one compile per normalised value");
        assert_eq!(
            given.by_raw.len(),
            names.len(),
            "one entry per raw spelling"
        );
        assert_eq!(given.values[first[0] as usize].raw(), "john");
    }

    #[test]
    fn ids_are_dense_per_spec_and_shared_by_both_sides() {
        let sim = SimFunc::omega2(0.5);
        let olds = [rec(0, "john"), rec(1, "mary"), rec(2, "john")];
        let news = [rec(0, "alice"), rec(1, "Mary"), rec(2, "john")];
        let (o, n): (Vec<_>, Vec<_>) = (olds.iter().collect(), news.iter().collect());
        let mut cache = ProfileCache::new();
        let rows = cache.rows(&sim, &o, &n, 1, &Collector::disabled());
        let k = rows.n_specs;
        for spec in 0..k {
            let mut used: Vec<u32> = rows
                .old
                .iter()
                .chain(&rows.new)
                .skip(spec)
                .step_by(k)
                .copied()
                .collect();
            used.sort_unstable();
            used.dedup();
            let dense: Vec<u32> = (0..rows.arenas[spec].len() as u32).collect();
            assert_eq!(used, dense, "spec {spec}: ids are not dense");
        }
        // "mary" (old) and "Mary" (new), "john" on both sides: one id each
        assert_eq!(rows.old[k], rows.new[k]);
        assert_eq!(rows.old[0], rows.new[2 * k]);
        assert_ne!(rows.old[0], rows.new[0]);
        // equal ids score as equal values: old 1 and new 1 agree on every
        // attribute, so they score as a record against itself
        let fresh = sim.aggregate_compiled(&sim.compile(&olds[1]), &sim.compile(&olds[1]));
        assert_eq!(score(&sim, &rows, 1, 1).to_bits(), fresh.to_bits());
        assert_eq!(score(&sim, &rows, 0, 2).to_bits(), fresh.to_bits());
    }

    #[test]
    fn changed_specs_invalidate_the_cache() {
        let (a, b) = (rec(0, "john"), rec(1, "mary"));
        let mut cache = ProfileCache::new();
        let _ = cache.rows(
            &SimFunc::omega2(0.7),
            &[&a],
            &[&b],
            1,
            &Collector::disabled(),
        );
        assert_eq!(cache.built(), 2);
        // ω1 has different weights → different specs → full rebuild
        let _ = cache.rows(
            &SimFunc::omega1(0.7),
            &[&a],
            &[&b],
            1,
            &Collector::disabled(),
        );
        assert_eq!(cache.built(), 4);
        assert_eq!(cache.reused(), 0);
        // a remainder function over other specs: two attributes, another
        // measure — a full rebuild with rows of the new width
        let other = SimFunc::new(
            vec![
                AttributeSpec {
                    attribute: Attribute::Surname,
                    measure: StringMeasure::Exact,
                    weight: 0.5,
                },
                AttributeSpec {
                    attribute: Attribute::FirstName,
                    measure: StringMeasure::QGram(3),
                    weight: 0.5,
                },
            ],
            0.7,
        );
        {
            let rows = cache.rows(&other, &[&a], &[&b], 1, &Collector::disabled());
            assert_eq!(rows.n_specs, 2);
            assert_eq!((rows.old.len(), rows.new.len()), (2, 2));
            assert_eq!(rows.arenas.len(), 2);
            assert_eq!(rows.arenas[0].lane_name(), "exact");
            assert_eq!(rows.old[0], rows.new[0], "one surname, one id");
        }
        assert_eq!(cache.table.len(), 2);
        assert_eq!(cache.table[1].values.len(), 2);
        assert_eq!((cache.built(), cache.reused()), (6, 0));
        // back to ω2: rebuilt again, nothing stale served
        let rows = cache.rows(
            &SimFunc::omega2(0.7),
            &[&a],
            &[&b],
            1,
            &Collector::disabled(),
        );
        assert_eq!(rows.n_specs, 5);
        assert_eq!(cache.built(), 8);
    }

    #[test]
    fn cached_profiles_score_identically_to_fresh_ones() {
        let sim = SimFunc::omega2(0.5);
        let (a, b) = (rec(0, "john"), rec(1, "jon"));
        let mut cache = ProfileCache::new();
        let _ = cache.rows(&sim, &[&a], &[&b], 1, &Collector::disabled()); // warm
        let rows = cache.rows(&sim, &[&a], &[&b], 1, &Collector::disabled()); // all hits
        let fresh = sim.aggregate_compiled(&sim.compile(&a), &sim.compile(&b));
        assert_eq!(score(&sim, &rows, 0, 0).to_bits(), fresh.to_bits());
    }

    #[test]
    fn new_values_in_a_later_fill_extend_the_arenas() {
        let sim = SimFunc::omega2(0.5);
        let (a, b, c) = (rec(0, "john"), rec(1, "mary"), rec(2, "alice"));
        let mut cache = ProfileCache::new();
        let _ = cache.rows(&sim, &[&a], &[&b], 1, &Collector::disabled());
        let rows = cache.rows(&sim, &[&a, &c], &[&b], 1, &Collector::disabled());
        assert_eq!(rows.arenas[0].len(), 3);
        let fresh = sim.aggregate_compiled(&sim.compile(&c), &sim.compile(&b));
        assert_eq!(score(&sim, &rows, 1, 0).to_bits(), fresh.to_bits());
    }

    #[test]
    fn sparse_ids_are_cached_without_a_dense_slot_array() {
        // raw ids near 2^40 must not size anything by id
        let sim = SimFunc::omega2(0.5);
        let (a, b) = (rec(1 << 40, "john"), rec((1 << 40) + 9, "mary"));
        let c = rec(3, "alice");
        let mut cache = ProfileCache::new();
        let _ = cache.rows(&sim, &[&a, &b], &[&c], 1, &Collector::disabled());
        assert!(matches!(cache.old.slot_of, PositionIndex::Sparse(_)));
        assert!(matches!(cache.new.slot_of, PositionIndex::Dense(_)));
        {
            let rows = cache.rows(&sim, &[&b], &[&c], 1, &Collector::disabled());
            let fresh = sim.aggregate_compiled(&sim.compile(&b), &sim.compile(&c));
            assert_eq!(score(&sim, &rows, 0, 0).to_bits(), fresh.to_bits());
        }
        assert_eq!((cache.built(), cache.reused()), (3, 2));
        assert_eq!(row_of(&mut cache, &sim, &a)[0], 0);
    }

    #[test]
    fn sides_are_independent() {
        // the same record id on both sides must not collide
        let sim = SimFunc::omega2(0.5);
        let (a, b) = (rec(7, "john"), rec(7, "mary"));
        let mut cache = ProfileCache::new();
        let rows = cache.rows(&sim, &[&a], &[&b], 1, &Collector::disabled());
        assert!((score(&sim, &rows, 0, 0) - 1.0).abs() > 0.05);
    }
}
