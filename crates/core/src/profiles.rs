//! Cross-iteration cache of compiled record profiles.
//!
//! The iterative driver (Algorithm 1) re-scores largely the same residue
//! records at δ, δ−Δ, …, and the remaining-records pass scores them once
//! more. Compiling a record's profile — normalisation plus per-attribute
//! tokenisation — is the expensive half of that work and depends only on
//! the attribute *specs*, not on δ. [`ProfileCache`] therefore keeps one
//! compiled profile per record per census side, reusing it for as long as
//! the similarity function's specs stay the same and rebuilding lazily
//! when they change (e.g. a remainder pass with different weights).

use crate::pairscore::ResidueIndex;
use crate::simfunc::{AttributeSpec, CompiledProfile, SimFunc};
use census_model::{PersonRecord, RecordId};
use obs::{Footprint, MemoryFootprint};
use std::collections::HashMap;
use textsim::CompiledValue;

/// The cached profiles of one census side, in compile order, with a
/// record-id → slot index over them (dense or sparse, so raw ids of any
/// magnitude are safe).
#[derive(Debug, Default)]
struct Side {
    ids: Vec<RecordId>,
    profiles: Vec<CompiledProfile>,
    slot_of: ResidueIndex,
}

impl Side {
    fn get(&self, r: &PersonRecord) -> Option<&CompiledProfile> {
        self.slot_of
            .get(r.id)
            .map(|slot| &self.profiles[slot as usize])
    }
}

/// A per-run cache of [`CompiledProfile`]s for the two census sides,
/// keyed by record id and invalidated when the attribute specs change.
/// Record ids must be unique within each side.
#[derive(Debug, Default)]
pub struct ProfileCache {
    specs: Vec<AttributeSpec>,
    old: Side,
    new: Side,
    /// Per-spec memo of compiled raw values, shared across both sides —
    /// census attributes repeat heavily, so most compiles are clones.
    value_memo: Vec<HashMap<String, CompiledValue>>,
    built: usize,
    reused: usize,
}

impl ProfileCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop every cached profile when `sim`'s specs differ from the ones
    /// the cache was filled under — a profile is only valid for the exact
    /// spec list that compiled it.
    fn ensure_specs(&mut self, sim: &SimFunc) {
        if self.specs.as_slice() != sim.specs() {
            self.specs = sim.specs().to_vec();
            self.old = Side::default();
            self.new = Side::default();
            self.value_memo = vec![HashMap::new(); sim.specs().len()];
        }
    }

    fn fill(
        side: &mut Side,
        sim: &SimFunc,
        records: &[&PersonRecord],
        value_memo: &mut [HashMap<String, CompiledValue>],
        built: &mut usize,
        reused: &mut usize,
    ) {
        let missing: Vec<&PersonRecord> = records
            .iter()
            .copied()
            .filter(|r| side.slot_of.get(r.id).is_none())
            .collect();
        *reused += records.len() - missing.len();
        if missing.is_empty() {
            return;
        }
        // exact growth: the first call brings every record of the run
        side.ids.reserve_exact(missing.len());
        side.profiles.reserve_exact(missing.len());
        for r in missing {
            side.ids.push(r.id);
            side.profiles.push(sim.compile_memoized(r, value_memo));
            *built += 1;
        }
        side.slot_of = ResidueIndex::from_ids(side.ids.iter().copied());
    }

    /// Compile-or-fetch the profiles of both record sides, returned in
    /// input order. Records seen in an earlier call under the same specs
    /// reuse their cached profile.
    pub fn profiles<'c>(
        &'c mut self,
        sim: &SimFunc,
        old: &[&PersonRecord],
        new: &[&PersonRecord],
    ) -> (Vec<&'c CompiledProfile>, Vec<&'c CompiledProfile>) {
        self.ensure_specs(sim);
        Self::fill(
            &mut self.old,
            sim,
            old,
            &mut self.value_memo,
            &mut self.built,
            &mut self.reused,
        );
        Self::fill(
            &mut self.new,
            sim,
            new,
            &mut self.value_memo,
            &mut self.built,
            &mut self.reused,
        );
        let o = old
            .iter()
            .map(|r| self.old.get(r).expect("profile just filled"))
            .collect();
        let n = new
            .iter()
            .map(|r| self.new.get(r).expect("profile just filled"))
            .collect();
        (o, n)
    }

    /// Profiles compiled so far (cache misses).
    #[must_use]
    pub fn built(&self) -> usize {
        self.built
    }

    /// Profiles served from the cache (hits).
    #[must_use]
    pub fn reused(&self) -> usize {
        self.reused
    }
}

impl MemoryFootprint for ProfileCache {
    fn footprint(&self) -> Footprint {
        // slot vectors by capacity; each filled profile's compiled values
        // and each memo entry by their real owned heap (key string plus
        // `CompiledValue::heap_bytes`, which counts the raw string and
        // the measure-specific gram buffers)
        let slots: u64 = [&self.old, &self.new]
            .iter()
            .map(|s| {
                obs::footprint::vec_capacity_bytes(&s.ids)
                    + obs::footprint::vec_capacity_bytes(&s.profiles)
                    + s.slot_of.footprint().bytes
            })
            .sum();
        let profiles: u64 = self
            .old
            .profiles
            .iter()
            .chain(&self.new.profiles)
            .map(|p| {
                std::mem::size_of_val(p.values()) as u64
                    + p.values()
                        .iter()
                        .map(CompiledValue::heap_bytes)
                        .sum::<u64>()
            })
            .sum();
        let mut memo = 0u64;
        let mut memo_entries = 0u64;
        for m in &self.value_memo {
            memo_entries += m.len() as u64;
            memo +=
                obs::footprint::map_bytes(m.len(), std::mem::size_of::<(String, CompiledValue)>());
            memo += m
                .iter()
                .map(|(k, v)| k.capacity() as u64 + v.heap_bytes())
                .sum::<u64>();
        }
        let filled = (self.old.profiles.len() + self.new.profiles.len()) as u64;
        Footprint::new(slots + profiles + memo, filled + memo_entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use census_model::{HouseholdId, RecordId, Role, Sex};

    fn rec(id: u64, fname: &str) -> PersonRecord {
        let mut r = PersonRecord::empty(RecordId(id), HouseholdId(0), Role::Head);
        r.first_name = fname.into();
        r.surname = "ashworth".into();
        r.sex = Some(Sex::Male);
        r
    }

    #[test]
    fn second_pass_reuses_every_profile() {
        let sim = SimFunc::omega2(0.7);
        let (a, b, c) = (rec(0, "john"), rec(1, "mary"), rec(2, "alice"));
        let mut cache = ProfileCache::new();
        {
            let (o, n) = cache.profiles(&sim, &[&a, &b], &[&c]);
            assert_eq!(o.len(), 2);
            assert_eq!(n.len(), 1);
        }
        assert_eq!(cache.built(), 3);
        assert_eq!(cache.reused(), 0);
        // lower threshold, same specs: everything is a hit
        let lowered = sim.with_threshold(0.5);
        let _ = cache.profiles(&lowered, &[&a, &b], &[&c]);
        assert_eq!(cache.built(), 3);
        assert_eq!(cache.reused(), 3);
    }

    #[test]
    fn changed_specs_invalidate_the_cache() {
        let (a, b) = (rec(0, "john"), rec(1, "mary"));
        let mut cache = ProfileCache::new();
        let _ = cache.profiles(&SimFunc::omega2(0.7), &[&a], &[&b]);
        assert_eq!(cache.built(), 2);
        // ω1 has different weights → different specs → full rebuild
        let _ = cache.profiles(&SimFunc::omega1(0.7), &[&a], &[&b]);
        assert_eq!(cache.built(), 4);
        assert_eq!(cache.reused(), 0);
    }

    #[test]
    fn cached_profiles_score_identically_to_fresh_ones() {
        let sim = SimFunc::omega2(0.5);
        let (a, b) = (rec(0, "john"), rec(1, "jon"));
        let mut cache = ProfileCache::new();
        let _ = cache.profiles(&sim, &[&a], &[&b]); // warm
        let (o, n) = cache.profiles(&sim, &[&a], &[&b]); // all hits
        let fresh = sim.aggregate_compiled(&sim.compile(&a), &sim.compile(&b));
        assert_eq!(sim.aggregate_compiled(o[0], n[0]), fresh);
    }

    #[test]
    fn sparse_ids_are_cached_without_a_dense_slot_array() {
        // raw ids near 2^40 must not size anything by id
        let sim = SimFunc::omega2(0.5);
        let (a, b) = (rec(1 << 40, "john"), rec((1 << 40) + 9, "mary"));
        let c = rec(3, "alice");
        let mut cache = ProfileCache::new();
        let _ = cache.profiles(&sim, &[&a, &b], &[&c]);
        {
            let (o, n) = cache.profiles(&sim, &[&b], &[&c]);
            assert_eq!(
                sim.aggregate_compiled(o[0], n[0]),
                sim.aggregate_compiled(&sim.compile(&b), &sim.compile(&c))
            );
        }
        assert_eq!((cache.built(), cache.reused()), (3, 2));
    }

    #[test]
    fn sides_are_independent() {
        // the same record id on both sides must not collide
        let sim = SimFunc::omega2(0.5);
        let (a, b) = (rec(7, "john"), rec(7, "mary"));
        let mut cache = ProfileCache::new();
        let (o, n) = cache.profiles(&sim, &[&a], &[&b]);
        assert!((sim.aggregate_compiled(o[0], n[0]) - 1.0).abs() > 0.05);
    }
}
