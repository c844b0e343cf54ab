//! Cross-iteration cache of candidate pair scores.
//!
//! The aggregated attribute similarity (Eq. 3) is δ-independent: a pair
//! scored at δ = 0.70 has exactly the same `agg_sim` at δ = 0.65. The
//! iterative driver (Algorithm 1) nevertheless used to re-block and
//! re-score the residue at every δ step. [`PairScoreCache`] scores every
//! blocked candidate pair **once**, with the acceptance threshold
//! lowered to the schedule's floor (keeping early-exit pruning, now
//! against that floor), and keeps every pair that reaches the floor as a
//! 16-byte `(old position, new position, agg_sim)` entry, read in
//! `(old id, new id)` order. Each later iteration is
//! then a filter-only pass — cached pairs with `agg_sim ≥ δ_current`
//! whose endpoints are still unlinked — with zero re-blocking,
//! re-tokenisation or re-scoring.
//!
//! ## Why the filter is exact
//!
//! `SimFunc::matches_compiled` accepts a pair iff its full aggregate
//! score satisfies `s ≥ threshold`; the early-exit bound only prunes
//! pairs *provably* below the threshold, so the accepted set at any δ is
//! exactly `{pairs : agg_sim ≥ δ}`. A cache built at floor `f ≤ δ`
//! therefore contains every pair that any iteration at δ ≥ f can accept,
//! with bit-identical scores, and filtering it at δ reproduces a fresh
//! scoring pass exactly. Residues preserve this: blocking keys are
//! per-record, so the blocked pairs of a residue are precisely the
//! blocked pairs of the full input restricted to residue endpoints, and
//! the age-plausibility filter is per-pair and δ-independent.
//!
//! ## Observability
//!
//! Because pairs are scored once at the floor, the `pair_agg_sim_bp`
//! histogram of a traced incremental run reflects the floor-scored pair
//! set (everything with `agg_sim ≥ δ_low`), sampled at build time;
//! filter-only iterations add no histogram samples, only
//! `pair_cache_hits`/`pair_cache_filtered` counters.

use crate::blocking::{Blocker, BlockingStrategy};
use crate::config::Parallelism;
use crate::idhash::IdMap;
use crate::mem::MemGovernor;
use crate::prematch::{age_plausible, score_blocked};
use crate::profiles::ProfileCache;
use crate::simfunc::{AttributeSpec, SimFunc};
use census_model::{PersonRecord, RecordId};
use obs::{Collector, Counter, EventKind, Footprint, MemoryFootprint};

/// Record-id → position lookup, used by the per-δ filter passes (position
/// in the residue) and by the profile cache (slot of the record's
/// value-id row). Record ids are snapshot-local and dense in practice, so a
/// lookup probes an array (`u32::MAX` = absent) instead of hashing the
/// id; sparse id spaces fall back to a hash map.
#[derive(Debug)]
pub(crate) enum ResidueIndex {
    Dense(Vec<u32>),
    Sparse(IdMap<RecordId, u32>),
}

impl Default for ResidueIndex {
    fn default() -> Self {
        Self::Dense(Vec::new())
    }
}

impl ResidueIndex {
    fn build(records: &[&PersonRecord]) -> Self {
        Self::from_ids(records.iter().map(|r| r.id))
    }

    /// Index `ids` by position: `get(ids[i]) == Some(i)`.
    pub(crate) fn from_ids(ids: impl ExactSizeIterator<Item = RecordId> + Clone) -> Self {
        let len = ids.len();
        let max = ids.clone().map(RecordId::raw).max().unwrap_or(0);
        if max < len as u64 * 8 + 1024 {
            let mut v = vec![u32::MAX; max as usize + 1];
            for (i, id) in ids.enumerate() {
                v[id.raw() as usize] = i as u32;
            }
            Self::Dense(v)
        } else {
            Self::Sparse(ids.enumerate().map(|(i, id)| (id, i as u32)).collect())
        }
    }

    #[inline]
    pub(crate) fn get(&self, id: RecordId) -> Option<u32> {
        match self {
            Self::Dense(v) => {
                let i = *v.get(id.raw() as usize)?;
                (i != u32::MAX).then_some(i)
            }
            Self::Sparse(m) => m.get(&id).copied(),
        }
    }
}

impl MemoryFootprint for ResidueIndex {
    fn footprint(&self) -> Footprint {
        match self {
            Self::Dense(v) => Footprint::new(obs::footprint::vec_capacity_bytes(v), v.len() as u64),
            Self::Sparse(m) => Footprint::new(
                obs::footprint::map_bytes(m.len(), std::mem::size_of::<(RecordId, u32)>()),
                m.len() as u64,
            ),
        }
    }
}

/// Pair scores computed once per snapshot pair and filtered per δ step.
/// See the module docs for the exactness argument.
#[derive(Debug, Clone)]
pub struct PairScoreCache {
    specs: Vec<AttributeSpec>,
    /// The threshold the pairs were scored against (the schedule floor).
    floor: f64,
    /// Age-plausibility tolerance applied before scoring, if any.
    tolerance: Option<u32>,
    strategy: BlockingStrategy,
    /// Record ids of the build's old and new slices, by position.
    old_ids: Vec<RecordId>,
    new_ids: Vec<RecordId>,
    /// `(old position, new position, agg_sim)`, 16 bytes each, in the
    /// scoring pass's task chunks: read in order, the entries run in
    /// `(old id, new id)` order — the order a fresh scoring pass over
    /// id-ordered residues yields.
    chunks: Vec<Vec<(u32, u32, f64)>>,
}

impl PairScoreCache {
    /// Block and score every candidate pair of `old × new` once, at
    /// `sim`'s threshold (the schedule floor), with the records' values
    /// served by the run's `profiles` table.
    ///
    /// Returns `None` when `mem` refuses the cache: the blocked pairs
    /// outnumber what the pair-cache budget share admits
    /// ([`MemGovernor::pair_cache_limit`], taken once before the pass).
    /// The refusal is decided while the pairs stream: the pass stops as
    /// soon as its blocked count passes the limit, and the full count is
    /// never needed. It is recorded as a `mem_fallback_pair_cache`
    /// counter and trace event, and nothing else the aborted pass did is
    /// reported — the fresh pass that replaces the cache counts its own
    /// pairs. The caller then scores each δ iteration afresh, which
    /// produces bit-identical match pairs (see the module docs).
    #[allow(clippy::too_many_arguments)] // the full pre-matching input set
    #[must_use]
    pub fn build(
        old: &[&PersonRecord],
        new: &[&PersonRecord],
        profiles: &mut ProfileCache,
        year_gap: i64,
        sim: &SimFunc,
        strategy: BlockingStrategy,
        par: Parallelism,
        max_age_gap: Option<u32>,
        mem: &MemGovernor,
        obs: &Collector,
    ) -> Option<Self> {
        let limit = mem.pair_cache_limit();
        let blocker = Blocker::new(old, new, year_gap, strategy, max_age_gap);
        let values = profiles.rows(sim, old, new);
        let pass = score_blocked(
            &blocker,
            &values,
            sim,
            EventKind::PrematchTile,
            par,
            obs,
            limit,
        );
        let Some(pass) = pass else {
            obs.add(Counter::MemFallbackPairCache, 1);
            // only a pass given a limit aborts, so this always reports
            if let Some(limit) = limit {
                obs.event(
                    "mem_fallback_pair_cache",
                    format!(
                        "pair-score cache over more than {limit} blocked pairs (~{} bytes) \
                         exceeds the budget share; re-scoring every iteration",
                        limit.saturating_mul(MemGovernor::PAIR_ENTRY_BYTES)
                    ),
                );
            }
            return None;
        };
        pass.report(obs);
        let old_ids: Vec<RecordId> = old.iter().map(|r| r.id).collect();
        let new_ids: Vec<RecordId> = new.iter().map(|r| r.id).collect();
        let mut chunks = pass.chunks;
        chunks.retain(|c| !c.is_empty());
        // the pass emits position order; it is id order exactly when both
        // sides' ids ascend with position (a loaded snapshot's do)
        let ascending = |ids: &[RecordId]| ids.windows(2).all(|w| w[0] < w[1]);
        if !(ascending(&old_ids) && ascending(&new_ids)) {
            let mut all = chunks.concat();
            all.sort_unstable_by_key(|&(i, j, _)| (old_ids[i as usize], new_ids[j as usize]));
            chunks = vec![all];
        }
        Some(Self {
            specs: sim.specs().to_vec(),
            floor: sim.threshold,
            tolerance: max_age_gap,
            strategy,
            old_ids,
            new_ids,
            chunks,
        })
    }

    /// The cached entries scoring at least `threshold`, in `(old id, new
    /// id)` order, as record ids. The score is tested before either id is
    /// looked up.
    fn entries_from(&self, threshold: f64) -> impl Iterator<Item = (RecordId, RecordId, f64)> + '_ {
        self.chunks
            .iter()
            .flatten()
            .filter(move |&&(_, _, s)| s >= threshold)
            .map(|&(i, j, s)| (self.old_ids[i as usize], self.new_ids[j as usize], s))
    }

    /// Number of cached pairs (everything at or above the floor).
    #[must_use]
    pub fn len(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum()
    }

    /// Whether the cache holds no pairs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The threshold the cache was scored against.
    #[must_use]
    pub fn floor(&self) -> f64 {
        self.floor
    }

    /// Filter-only pre-matching pass: the match pairs a fresh scoring of
    /// the given residues at `delta` would produce, as `(old index, new
    /// index, agg_sim)` triples over the residue slices. `delta` must be
    /// at or above the build floor.
    #[must_use]
    pub fn select(
        &self,
        delta: f64,
        remaining_old: &[&PersonRecord],
        remaining_new: &[&PersonRecord],
    ) -> Vec<(u32, u32, f64)> {
        self.select_traced(delta, remaining_old, remaining_new, &Collector::disabled())
    }

    /// [`PairScoreCache::select`] with the per-iteration residue-index
    /// footprint snapshotted into `obs`.
    pub(crate) fn select_traced(
        &self,
        delta: f64,
        remaining_old: &[&PersonRecord],
        remaining_new: &[&PersonRecord],
        obs: &Collector,
    ) -> Vec<(u32, u32, f64)> {
        let old_idx = ResidueIndex::build(remaining_old);
        let new_idx = ResidueIndex::build(remaining_new);
        if obs.is_enabled() {
            obs.snapshot_footprint(
                "residue_index",
                old_idx.footprint().plus(new_idx.footprint()),
            );
        }
        self.entries_from(delta)
            .filter_map(|(o, n, s)| Some((old_idx.get(o)?, new_idx.get(n)?, s)))
            .collect()
    }

    /// Whether a remainder pass with this similarity function, age
    /// tolerance and blocking strategy can be served from the cache:
    /// same attribute specs (so the cached scores *are* that function's
    /// scores), a threshold at or above the floor (so no accepted pair
    /// is missing), an age filter at least as strict as the build's (so
    /// re-applying it loses nothing), and the same blocking strategy.
    #[must_use]
    pub fn covers(&self, sim: &SimFunc, max_age_gap: u32, strategy: BlockingStrategy) -> bool {
        sim.specs() == self.specs.as_slice()
            && sim.threshold >= self.floor
            && self.tolerance.is_none_or(|t| max_age_gap <= t)
            && strategy == self.strategy
    }

    /// Serve a remainder pass from the cache: scored residue pairs at or
    /// above `sim.threshold`, with the remainder's (stricter) age filter
    /// re-applied. Callers must check [`PairScoreCache::covers`] first.
    #[must_use]
    pub fn select_remainder(
        &self,
        sim: &SimFunc,
        max_age_gap: u32,
        year_gap: i64,
        remaining_old: &[&PersonRecord],
        remaining_new: &[&PersonRecord],
    ) -> Vec<(f64, RecordId, RecordId)> {
        let old_idx = ResidueIndex::build(remaining_old);
        let new_idx = ResidueIndex::build(remaining_new);
        self.entries_from(sim.threshold)
            .filter_map(|(o, n, s)| {
                let ro = remaining_old[old_idx.get(o)? as usize];
                let rn = remaining_new[new_idx.get(n)? as usize];
                age_plausible(ro, rn, year_gap, max_age_gap).then_some((s, o, n))
            })
            .collect()
    }
}

impl MemoryFootprint for PairScoreCache {
    fn footprint(&self) -> Footprint {
        let bytes = self
            .chunks
            .iter()
            .map(obs::footprint::vec_capacity_bytes)
            .sum::<u64>()
            + obs::footprint::vec_capacity_bytes(&self.chunks)
            + obs::footprint::vec_capacity_bytes(&self.old_ids)
            + obs::footprint::vec_capacity_bytes(&self.new_ids)
            + obs::footprint::vec_capacity_bytes(&self.specs);
        Footprint::new(bytes, self.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prematch::prematch_with_profiles;
    use crate::simfunc::CompiledProfile;
    use census_model::{HouseholdId, Role, Sex};

    fn rec(id: u64, fname: &str, sname: &str, age: u32) -> PersonRecord {
        let mut r = PersonRecord::empty(RecordId(id), HouseholdId(0), Role::Head);
        r.first_name = fname.into();
        r.surname = sname.into();
        r.sex = Some(Sex::Male);
        r.age = Some(age);
        r.address = "mill lane".into();
        r.occupation = "weaver".into();
        r
    }

    fn profiles<'a>(
        sim: &SimFunc,
        recs: &[&PersonRecord],
        store: &'a mut Vec<CompiledProfile>,
    ) -> Vec<&'a CompiledProfile> {
        *store = recs.iter().map(|r| sim.compile(r)).collect();
        store.iter().collect()
    }

    #[test]
    fn select_matches_fresh_scoring_at_every_delta() {
        let olds: Vec<PersonRecord> = (0..40)
            .map(|i| {
                rec(
                    i,
                    ["john", "jon", "mary", "marey"][i as usize % 4],
                    ["ashworth", "ashwerth"][i as usize % 2],
                    30 + (i % 7) as u32,
                )
            })
            .collect();
        let news: Vec<PersonRecord> = (0..40)
            .map(|i| {
                rec(
                    i,
                    ["john", "mary"][i as usize % 2],
                    "ashworth",
                    40 + (i % 7) as u32,
                )
            })
            .collect();
        let o: Vec<&PersonRecord> = olds.iter().collect();
        let n: Vec<&PersonRecord> = news.iter().collect();
        let par = Parallelism::default();
        let floor_sim = SimFunc::omega2(0.5);
        let (mut ostore, mut nstore) = (Vec::new(), Vec::new());
        let op = profiles(&floor_sim, &o, &mut ostore);
        let np = profiles(&floor_sim, &n, &mut nstore);
        let cache = PairScoreCache::build(
            &o,
            &n,
            &mut ProfileCache::new(),
            10,
            &floor_sim,
            BlockingStrategy::Full,
            par,
            Some(3),
            &MemGovernor::unlimited(),
            &Collector::disabled(),
        )
        .unwrap();
        for delta in [0.5, 0.55, 0.6, 0.7, 0.9] {
            let sim = floor_sim.with_threshold(delta);
            let fresh = prematch_with_profiles(
                &o,
                &n,
                &op,
                &np,
                10,
                &sim,
                BlockingStrategy::Full,
                par,
                Some(3),
                &MemGovernor::unlimited(),
                &Collector::disabled(),
            );
            let selected = cache.select(delta, &o, &n);
            let selected_sims: crate::IdMap<(RecordId, RecordId), f64> = selected
                .iter()
                .map(|&(i, j, s)| ((o[i as usize].id, n[j as usize].id), s))
                .collect();
            assert_eq!(selected_sims, fresh.pair_sims, "δ={delta}");
        }
    }

    #[test]
    fn select_drops_linked_endpoints() {
        let o1 = rec(0, "john", "ashworth", 30);
        let o2 = rec(1, "mary", "ashworth", 33);
        let n1 = rec(0, "john", "ashworth", 40);
        let n2 = rec(1, "mary", "ashworth", 43);
        let sim = SimFunc::omega2(0.5);
        let all_o = [&o1, &o2];
        let all_n = [&n1, &n2];
        let cache = PairScoreCache::build(
            &all_o,
            &all_n,
            &mut ProfileCache::new(),
            10,
            &sim,
            BlockingStrategy::Full,
            Parallelism::default(),
            None,
            &MemGovernor::unlimited(),
            &Collector::disabled(),
        )
        .unwrap();
        assert!(cache.len() >= 2);
        // once john is linked, only the mary pair survives the filter
        let selected = cache.select(0.5, &[&o2], &[&n2]);
        assert_eq!(selected.len(), 1);
        assert_eq!((selected[0].0, selected[0].1), (0, 0)); // residue indices
    }

    #[test]
    fn covers_requires_specs_threshold_and_tolerance() {
        let o = rec(0, "john", "ashworth", 30);
        let n = rec(0, "john", "ashworth", 40);
        let sim = SimFunc::omega2(0.5);
        let cache = PairScoreCache::build(
            &[&o],
            &[&n],
            &mut ProfileCache::new(),
            10,
            &sim,
            BlockingStrategy::Standard,
            Parallelism::default(),
            Some(3),
            &MemGovernor::unlimited(),
            &Collector::disabled(),
        )
        .unwrap();
        let std = BlockingStrategy::Standard;
        assert!(cache.covers(&SimFunc::omega2(0.78), 3, std));
        assert!(cache.covers(&SimFunc::omega2(0.5), 2, std));
        // different specs
        assert!(!cache.covers(&SimFunc::omega1(0.78), 3, std));
        // threshold below the floor
        assert!(!cache.covers(&SimFunc::omega2(0.4), 3, std));
        // looser age tolerance than the build applied
        assert!(!cache.covers(&SimFunc::omega2(0.78), 5, std));
        // different blocking strategy
        assert!(!cache.covers(&SimFunc::omega2(0.78), 3, BlockingStrategy::Full));
    }

    #[test]
    fn select_remainder_reapplies_age_filter() {
        // ages drift by 5 — inside a build tolerance of 6, outside a
        // remainder tolerance of 3
        let o = rec(0, "john", "ashworth", 30);
        let n = rec(0, "john", "ashworth", 45);
        let sim = SimFunc::omega2(0.5);
        let cache = PairScoreCache::build(
            &[&o],
            &[&n],
            &mut ProfileCache::new(),
            10,
            &sim,
            BlockingStrategy::Full,
            Parallelism::default(),
            Some(6),
            &MemGovernor::unlimited(),
            &Collector::disabled(),
        )
        .unwrap();
        assert_eq!(cache.len(), 1);
        let rem = SimFunc::omega2(0.78);
        assert!(cache.covers(&rem, 3, BlockingStrategy::Full));
        let scored = cache.select_remainder(&rem, 3, 10, &[&o], &[&n]);
        assert!(scored.is_empty(), "remainder age filter must re-apply");
        let scored = cache.select_remainder(&rem, 6, 10, &[&o], &[&n]);
        assert_eq!(scored.len(), 1);
    }
}
