//! Cross-iteration cache of candidate pair scores.
//!
//! The aggregated attribute similarity (Eq. 3) is δ-independent: a pair
//! scored at δ = 0.70 has exactly the same `agg_sim` at δ = 0.65. The
//! iterative driver (Algorithm 1) nevertheless used to re-block and
//! re-score the residue at every δ step. [`PairScoreCache`] scores every
//! blocked candidate pair **once**, with the acceptance threshold
//! lowered to the schedule's floor (keeping early-exit pruning, now
//! against that floor), and keeps every pair that reaches the floor as a
//! 16-byte `(old position, new position, agg_sim)` entry over the build
//! slices. Each δ step then selects the cached pairs with
//! `agg_sim ≥ δ_current`, with zero re-blocking, re-tokenisation or
//! re-scoring.
//!
//! ## A compacting cache
//!
//! A linked record leaves the residue for good, so after each step the
//! driver compacts the cache in place ([`PairScoreCache::compact`]) to
//! the entries whose endpoints are both unlinked, and a step's selection
//! costs what the residue does, not the snapshot pair. The survivors of
//! the first compaction are sorted once into household-pair order
//! ([`PairScoreCache::order_by`]); compaction keeps it, so later
//! selections come out as household-candidate runs.
//!
//! ## Why the selection is exact
//!
//! `SimFunc::matches_compiled` accepts a pair iff its full aggregate
//! score satisfies `s ≥ threshold`; the early-exit bound only prunes
//! pairs *provably* below the threshold, so the accepted set at any δ is
//! exactly `{pairs : agg_sim ≥ δ}`. A cache built at floor `f ≤ δ`
//! therefore contains every pair that any iteration at δ ≥ f can accept,
//! with bit-identical scores, and selecting from it at δ reproduces a
//! fresh scoring pass exactly. Residues preserve this: blocking keys are
//! per-record, so the blocked pairs of a residue are precisely the
//! blocked pairs of the full input restricted to residue endpoints, and
//! the age-plausibility filter is per-pair and δ-independent. Compaction
//! only drops entries with an endpoint outside the residue, which no
//! selection over the residue could return.
//!
//! A run whose memory governor refuses the floor cache scores each
//! step's residue at that step's δ instead, in a cache that serves only
//! that step.
//!
//! ## Observability
//!
//! Because pairs are scored once at the floor, the `pair_agg_sim_bp`
//! histogram of a traced run reflects the floor-scored pair
//! set (everything with `agg_sim ≥ δ_low`), sampled at build time;
//! served steps add no histogram samples, only
//! `pair_cache_hits`/`pair_cache_filtered` counters.

use crate::blocking::{Blocker, BlockingStrategy};
use crate::config::Parallelism;
use crate::idhash::IdMap;
use crate::mem::MemGovernor;
use crate::prematch::{age_plausible, run_pool, score_blocked};
use crate::profiles::ValueRows;
use crate::simfunc::{AttributeSpec, SimFunc};
use census_model::{PersonRecord, RecordId};
use obs::{Collector, Counter, EventKind, Footprint, MemoryFootprint};
use std::sync::Mutex;

/// Record-id → position lookup: a record's position in the linker's
/// snapshots, in the remainder pass's residue, or the slot of its
/// value-id row in the profile cache. Record ids are snapshot-local and
/// dense in practice, so a lookup probes an array (`u32::MAX` = absent)
/// instead of hashing the id; sparse id spaces fall back to a hash map.
#[derive(Debug)]
pub(crate) enum PositionIndex {
    Dense(Vec<u32>),
    Sparse(IdMap<RecordId, u32>),
}

impl Default for PositionIndex {
    fn default() -> Self {
        Self::Dense(Vec::new())
    }
}

impl PositionIndex {
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

impl MemoryFootprint for PositionIndex {
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

/// The items of `chunks` tasks, sorted by key: task `c` yields
/// `count(c)` keyed items from `keyed(c)`. The tasks run on a pool of at
/// most `threads` workers, each filling and sorting its own slice of one
/// keyed array. The sorted slices are then joined in order: where a
/// slice's keys overlap the sorted prefix before it, only the overlapping
/// window is sorted again, so slices that mostly follow one another in
/// key order (as the tasks of a scoring pass do) cost little more than a
/// scan. Only the array holds keys, and it is freed on return, so the
/// peak is that of keying and sorting the items serially.
pub(crate) fn sort_chunks_by_key<K, T, I>(
    chunks: usize,
    threads: usize,
    obs: &Collector,
    count: impl Fn(usize) -> usize + Sync,
    keyed: impl Fn(usize) -> I + Sync,
) -> Vec<T>
where
    K: Ord + Copy + Default + Send,
    T: Copy + Default + Send,
    I: Iterator<Item = (K, T)>,
{
    let counts = run_pool(chunks, threads, obs, |c, _| count(c));
    let mut all = vec![(K::default(), T::default()); counts.iter().sum()];
    let mut rest = all.as_mut_slice();
    let slices: Vec<Mutex<&mut [(K, T)]>> = counts
        .iter()
        .map(|&n| {
            let (slice, tail) = std::mem::take(&mut rest).split_at_mut(n);
            rest = tail;
            Mutex::new(slice)
        })
        .collect();
    // a task only ever locks its own slice
    const POISONED: &str = "a panicked task's slice is never read again";
    run_pool(chunks, threads, obs, |c, _| {
        let mut slice = slices[c].lock().expect(POISONED);
        let mut items = keyed(c);
        for slot in slice.iter_mut() {
            *slot = items.next().expect("a task yields the items it counted");
        }
        debug_assert!(
            items.next().is_none(),
            "task {c} yielded more than it counted"
        );
        slice.sort_unstable_by_key(|&(key, _)| key);
    });
    drop(slices);
    let mut sorted = 0;
    for n in counts {
        join_sorted(&mut all[..sorted + n], sorted);
        sorted += n;
    }
    all.into_iter().map(|(_, item)| item).collect()
}

/// Sort `run`, whose `..mid` and `mid..` are each sorted by unique keys.
/// Only the window where the two overlap can be out of order: from the
/// first item of the first part above the second part's first key, to
/// the last item of the second part below the first part's last key.
/// That window is sorted in place.
fn join_sorted<K: Ord + Copy, T>(run: &mut [(K, T)], mid: usize) {
    let (Some(&(last, _)), Some(&(first, _))) = (mid.checked_sub(1).map(|i| &run[i]), run.get(mid))
    else {
        return;
    };
    if last < first {
        return;
    }
    let lo = run[..mid].partition_point(|&(key, _)| key < first);
    let hi = mid + run[mid..].partition_point(|&(key, _)| key < last);
    run[lo..hi].sort_unstable_by_key(|&(key, _)| key);
}

/// Pair scores computed once per snapshot pair, selected per δ step and
/// compacted to the residue after each. See the module docs for the
/// exactness argument.
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
    /// `(old position, new position, agg_sim)`, 16 bytes each. Built in
    /// the scoring pass's task chunks, which read in order run in
    /// `(old id, new id)` order — the order a fresh scoring pass over
    /// id-ordered residues yields — and after [`PairScoreCache::order_by`]
    /// one chunk in the order it asked for.
    chunks: Vec<Vec<Entry>>,
}

/// One cached pair: `(old position, new position, agg_sim)`.
type Entry = (u32, u32, f64);

impl PairScoreCache {
    /// Score every candidate pair of `blocker` once, at `sim`'s threshold
    /// (the schedule floor), over the records' value-id rows `values`
    /// (see [`crate::prematch::pass_head`]). The blocker's buckets do not
    /// depend on the threshold, so a refused build's blocker serves the
    /// pass that replaces it.
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
    #[must_use]
    pub(crate) fn build(
        blocker: &Blocker,
        values: &ValueRows,
        sim: &SimFunc,
        par: Parallelism,
        mem: &MemGovernor,
        obs: &Collector,
    ) -> Option<Self> {
        let limit = mem.pair_cache_limit();
        let pass = score_blocked(
            blocker,
            values,
            sim,
            EventKind::PrematchTask,
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
        let (old, new) = blocker.records();
        let (strategy, tolerance) = blocker.strategy();
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
            tolerance,
            strategy,
            old_ids,
            new_ids,
            chunks,
        })
    }

    /// Number of cached pairs: everything at or above the floor whose
    /// endpoints survived every compaction so far.
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

    /// The pre-matching pass of one δ step: the cached pairs with
    /// `agg_sim ≥ delta`, as `(old id, new id, agg_sim)` in cache order.
    /// Over a cache compacted to the residue, these are exactly the match
    /// pairs a fresh scoring of that residue at `delta` would produce.
    /// `delta` must be at or above the build floor. The score is tested
    /// before either id is looked up.
    pub fn select(&self, delta: f64) -> impl Iterator<Item = (RecordId, RecordId, f64)> + '_ {
        (0..self.chunks.len()).flat_map(move |c| self.select_in(c, delta))
    }

    /// Number of chunks the entries are stored in: one per task of the
    /// building pass that matched anything, one after
    /// [`PairScoreCache::order_by`].
    pub(crate) fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// How many pairs of chunk `c` [`PairScoreCache::select_in`] yields.
    pub(crate) fn count_in(&self, c: usize, delta: f64) -> usize {
        self.chunks[c]
            .iter()
            .filter(|&&(_, _, s)| s >= delta)
            .count()
    }

    /// [`PairScoreCache::select`] over chunk `c` alone; the chunks'
    /// selections, concatenated in order, are the whole selection.
    pub(crate) fn select_in(
        &self,
        c: usize,
        delta: f64,
    ) -> impl Iterator<Item = (RecordId, RecordId, f64)> + '_ {
        self.chunks[c]
            .iter()
            .filter(move |&&(_, _, s)| s >= delta)
            .map(|&(i, j, s)| (self.old_ids[i as usize], self.new_ids[j as usize], s))
    }

    /// Drop, in place, every entry with an endpoint that is no longer
    /// alive: `old_alive` and `new_alive` are asked once per build record
    /// and answer whether it is still unlinked. The alive bitmaps over
    /// the build positions then decide every entry with two loads, each
    /// chunk as a task on a pool of at most `threads` workers. The
    /// survivors keep their order.
    pub fn compact(
        &mut self,
        old_alive: impl Fn(RecordId) -> bool,
        new_alive: impl Fn(RecordId) -> bool,
        threads: usize,
        obs: &Collector,
    ) {
        let old_alive: Vec<bool> = self.old_ids.iter().map(|&id| old_alive(id)).collect();
        let new_alive: Vec<bool> = self.new_ids.iter().map(|&id| new_alive(id)).collect();
        let chunks: Vec<Mutex<&mut Vec<Entry>>> = self.chunks.iter_mut().map(Mutex::new).collect();
        run_pool(chunks.len(), threads, obs, |c, _| {
            // a task only ever locks its own chunk
            let mut chunk = chunks[c]
                .lock()
                .expect("a panicked task's chunk is never read again");
            chunk.retain(|&(i, j, _)| old_alive[i as usize] && new_alive[j as usize]);
            // the first compaction drops most of the cache: hand that
            // memory back now, not at the end of the run
            chunk.shrink_to_fit();
        });
        drop(chunks);
        self.chunks.retain(|c| !c.is_empty());
    }

    /// Put the entries, once, into the order of `key` over their record
    /// ids, into one chunk of exactly their size. Each chunk is keyed and
    /// sorted as a task on a pool of at most `threads` workers, and the
    /// sorted chunks are joined; no key outlives the call. Entries with
    /// equal keys come out in no particular order, so a key should tell
    /// every pair apart. Compaction keeps the order, so later selections
    /// come out in it.
    pub fn order_by<K: Ord + Copy + Default + Send>(
        &mut self,
        key: impl Fn(RecordId, RecordId) -> K + Sync,
        threads: usize,
        obs: &Collector,
    ) {
        let chunks = std::mem::take(&mut self.chunks);
        let (old_ids, new_ids) = (&self.old_ids, &self.new_ids);
        let ordered = sort_chunks_by_key(
            chunks.len(),
            threads,
            obs,
            |c| chunks[c].len(),
            |c| {
                chunks[c]
                    .iter()
                    .map(|&e| (key(old_ids[e.0 as usize], new_ids[e.1 as usize]), e))
            },
        );
        drop(chunks);
        self.chunks = vec![ordered];
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
        let old_idx = PositionIndex::build(remaining_old);
        let new_idx = PositionIndex::build(remaining_new);
        self.select(sim.threshold)
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
    use crate::profiles::ProfileCache;
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

    /// 40 old and 40 new records over a few spellings of two names, ages
    /// drifting by up to 6 years around a 10-year gap.
    fn corpus() -> (Vec<PersonRecord>, Vec<PersonRecord>) {
        let olds = (0..40)
            .map(|i| {
                rec(
                    i,
                    ["john", "jon", "mary", "marey"][i as usize % 4],
                    ["ashworth", "ashwerth"][i as usize % 2],
                    30 + (i % 7) as u32,
                )
            })
            .collect();
        let news = (0..40)
            .map(|i| {
                rec(
                    i,
                    ["john", "mary"][i as usize % 2],
                    "ashworth",
                    40 + (i % 7) as u32,
                )
            })
            .collect();
        (olds, news)
    }

    /// An unlimited cache over `o × n`, ten years apart, at `sim`'s
    /// threshold.
    fn cache_of(
        o: &[&PersonRecord],
        n: &[&PersonRecord],
        sim: &SimFunc,
        strategy: BlockingStrategy,
        tolerance: Option<u32>,
    ) -> PairScoreCache {
        let (par, obs) = (Parallelism::default(), Collector::disabled());
        let mut profiles = ProfileCache::new();
        let (blocker, values) = crate::prematch::pass_head(
            &mut profiles,
            sim,
            o,
            n,
            10,
            strategy,
            tolerance,
            par,
            &obs,
        );
        PairScoreCache::build(&blocker, &values, sim, par, &MemGovernor::unlimited(), &obs).unwrap()
    }

    fn build_at_floor(o: &[&PersonRecord], n: &[&PersonRecord]) -> PairScoreCache {
        cache_of(o, n, &SimFunc::omega2(0.5), BlockingStrategy::Full, Some(3))
    }

    /// A fresh scoring pass over `o × n` at `delta`, as `(old id, new id,
    /// agg_sim bits)` in pass order.
    fn fresh(
        o: &[&PersonRecord],
        n: &[&PersonRecord],
        delta: f64,
    ) -> Vec<(RecordId, RecordId, u64)> {
        let sim = SimFunc::omega2(delta);
        let (mut ostore, mut nstore) = (Vec::new(), Vec::new());
        let pm = prematch_with_profiles(
            o,
            n,
            &profiles(&sim, o, &mut ostore),
            &profiles(&sim, n, &mut nstore),
            10,
            &sim,
            BlockingStrategy::Full,
            Parallelism::default(),
            Some(3),
            &MemGovernor::unlimited(),
            &Collector::disabled(),
        );
        pm.pairs
            .iter()
            .map(|&(i, j, s)| (o[i as usize].id, n[j as usize].id, s.to_bits()))
            .collect()
    }

    fn selected(cache: &PairScoreCache, delta: f64) -> Vec<(RecordId, RecordId, u64)> {
        cache
            .select(delta)
            .map(|(o, n, s)| (o, n, s.to_bits()))
            .collect()
    }

    #[test]
    fn select_matches_fresh_scoring_at_every_delta() {
        let (olds, news) = corpus();
        let o: Vec<&PersonRecord> = olds.iter().collect();
        let n: Vec<&PersonRecord> = news.iter().collect();
        let cache = build_at_floor(&o, &n);
        for delta in [0.5, 0.55, 0.6, 0.7, 0.9] {
            assert_eq!(selected(&cache, delta), fresh(&o, &n, delta), "δ={delta}");
        }
    }

    /// Compaction is exact. The residue shrinks step by step, each step
    /// linking records whose partners stay unlinked, so entries with one
    /// dead endpoint arise. After every compaction, at every δ, `select`
    /// equals a fresh scoring pass over the residue, `select_remainder`
    /// equals the uncompacted cache's, and `len` counts exactly the
    /// entries with both endpoints alive.
    #[test]
    fn compaction_is_exact() {
        let (olds, news) = corpus();
        let o: Vec<&PersonRecord> = olds.iter().collect();
        let n: Vec<&PersonRecord> = news.iter().collect();
        let full = build_at_floor(&o, &n);
        let mut compacted = build_at_floor(&o, &n);
        let (mut old_alive, mut new_alive) = (vec![true; o.len()], vec![true; n.len()]);
        let rem_sim = SimFunc::omega2(0.5);
        assert!(full.covers(&rem_sim, 2, BlockingStrategy::Full));
        for step in 0..3u64 {
            for (k, alive) in old_alive.iter_mut().enumerate() {
                *alive &= k as u64 % 4 != step;
            }
            for (k, alive) in new_alive.iter_mut().enumerate() {
                *alive &= (k as u64 + 1) % 4 != step;
            }
            let live_old = |id: RecordId| old_alive[id.raw() as usize];
            let live_new = |id: RecordId| new_alive[id.raw() as usize];
            let half_dead = full
                .select(0.0)
                .filter(|&(a, b, _)| live_old(a) != live_new(b))
                .count();
            assert!(
                half_dead > 0,
                "step {step}: no entry with one dead endpoint"
            );
            compacted.compact(live_old, live_new, 2, &Collector::disabled());
            let both_alive = full
                .select(0.0)
                .filter(|&(a, b, _)| live_old(a) && live_new(b))
                .count();
            assert_eq!(compacted.len(), both_alive, "step {step}: len");
            let ro: Vec<&PersonRecord> = o.iter().copied().filter(|r| live_old(r.id)).collect();
            let rn: Vec<&PersonRecord> = n.iter().copied().filter(|r| live_new(r.id)).collect();
            for delta in [0.5, 0.55, 0.6, 0.7, 0.9] {
                let at = format!("step {step}, δ={delta}");
                assert_eq!(selected(&compacted, delta), fresh(&ro, &rn, delta), "{at}");
                let rem = rem_sim.with_threshold(delta);
                assert_eq!(
                    compacted.select_remainder(&rem, 2, 10, &ro, &rn),
                    full.select_remainder(&rem, 2, 10, &ro, &rn),
                    "{at}: remainder"
                );
            }
        }
    }

    #[test]
    fn select_drops_linked_endpoints() {
        let o1 = rec(0, "john", "ashworth", 30);
        let o2 = rec(1, "mary", "ashworth", 33);
        let n1 = rec(0, "john", "ashworth", 40);
        let n2 = rec(1, "mary", "ashworth", 43);
        let sim = SimFunc::omega2(0.5);
        let mut cache = cache_of(&[&o1, &o2], &[&n1, &n2], &sim, BlockingStrategy::Full, None);
        assert!(cache.len() >= 2);
        // once john is linked, only the mary pair survives compaction
        cache.compact(
            |id| id != o1.id,
            |id| id != n1.id,
            1,
            &Collector::disabled(),
        );
        let selected: Vec<_> = cache.select(0.5).map(|(o, n, _)| (o, n)).collect();
        assert_eq!(selected, [(o2.id, n2.id)]);
    }

    /// Chunks sorted on the pool and joined give one sort's order,
    /// whether they follow one another in key order, overlap at their
    /// edges as a scoring pass's tasks do, or interleave throughout.
    #[test]
    fn sorted_chunks_join_into_one_sort() {
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        type Shape = fn(u64, u64) -> u64;
        let shapes: [(&str, Shape); 3] = [
            ("disjoint", |c, r| (c << 32) | (r % 1000)),
            ("edges", |c, r| (c << 10) + r % 1500),
            ("interleaved", |_, r| r % 100_000),
        ];
        for (shape, key) in shapes {
            // unique keys: the item's index breaks ties
            let chunks: Vec<Vec<((u64, u32), u32)>> = (0..7u64)
                .map(|c| {
                    (0..(next() % 300) as u32)
                        .map(|i| ((key(c, next()), c as u32 * 1000 + i), i))
                        .collect()
                })
                .collect();
            let mut want: Vec<_> = chunks.concat();
            want.sort_unstable_by_key(|&(k, _)| k);
            let want: Vec<u32> = want.into_iter().map(|(_, item)| item).collect();
            for threads in [1, 3] {
                let got = sort_chunks_by_key(
                    chunks.len(),
                    threads,
                    &Collector::disabled(),
                    |c| chunks[c].len(),
                    |c| chunks[c].iter().copied(),
                );
                assert_eq!(got, want, "{shape}, {threads} thread(s)");
            }
        }
    }

    #[test]
    fn order_by_survives_compaction() {
        let (olds, news) = corpus();
        let o: Vec<&PersonRecord> = olds.iter().collect();
        let n: Vec<&PersonRecord> = news.iter().collect();
        let mut cache = build_at_floor(&o, &n);
        let mut want = selected(&cache, 0.5);
        // descending new id, then ascending old id
        let key = |a: RecordId, b: RecordId| (std::cmp::Reverse(b.raw()), a.raw());
        want.sort_by_key(|&(a, b, _)| key(a, b));
        cache.order_by(key, 2, &Collector::disabled());
        assert_eq!(selected(&cache, 0.5), want);
        cache.compact(|id| id.raw() % 3 != 0, |_| true, 2, &Collector::disabled());
        want.retain(|&(a, _, _)| a.raw() % 3 != 0);
        assert_eq!(selected(&cache, 0.5), want);
    }

    #[test]
    fn covers_requires_specs_threshold_and_tolerance() {
        let o = rec(0, "john", "ashworth", 30);
        let n = rec(0, "john", "ashworth", 40);
        let sim = SimFunc::omega2(0.5);
        let cache = cache_of(&[&o], &[&n], &sim, BlockingStrategy::Standard, Some(3));
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
        let cache = cache_of(&[&o], &[&n], &sim, BlockingStrategy::Full, Some(6));
        assert_eq!(cache.len(), 1);
        let rem = SimFunc::omega2(0.78);
        assert!(cache.covers(&rem, 3, BlockingStrategy::Full));
        let scored = cache.select_remainder(&rem, 3, 10, &[&o], &[&n]);
        assert!(scored.is_empty(), "remainder age filter must re-apply");
        let scored = cache.select_remainder(&rem, 6, 10, &[&o], &[&n]);
        assert_eq!(scored.len(), 1);
    }
}
