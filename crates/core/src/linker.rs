//! A reusable linker for one snapshot pair.
//!
//! Parameter sweeps (the paper's Tables 3–5) run the pipeline many times
//! over the *same* pair of censuses; group enrichment and the household
//! index never change between runs. [`Linker`] computes them once and
//! lets each [`Linker::run`] reuse them.

use crate::config::{LinkageConfig, Parallelism};
use crate::group_sim::{score_single_pair, score_subgraph};
use crate::idhash::IdMap;
use crate::mem::MemGovernor;
use crate::pairscore::PairScoreCache;
use crate::prematch::{build_prematch, prematch_cached, run_pool, PreMatch};
use crate::profiles::ProfileCache;
use crate::remainder::match_remaining_cached;
use crate::selection::{
    below_floor, consideration_order, select_and_extract, RejectReason, ScoredSubgroup,
    SelectionOutcome,
};
use crate::{IterationStats, LinkPhase, LinkageResult};
use census_model::{
    CensusDataset, GroupMapping, HouseholdId, PersonRecord, RecordId, RecordMapping,
};
use hhgraph::{match_subgraph_with, EnrichedGraph, MatchedSubgraph, SubgraphScratch};
use obs::{
    Collector, Counter, DecisionRecord, EventKind, Footprint, GroupDecision, Histogram, LiveHist,
    LosingCandidate, MemoryFootprint, RejectedCandidate, RejectionReason, ITERATION_SPAN,
};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Injects confirmed record links into a [`PreMatch`] as high-confidence
/// anchors, so later iterations see them as matched clusters. Each
/// anchor pair is assigned a label on first sight and keeps that label
/// for the rest of the run, regardless of how the confirmed-link set
/// grows or how its iteration order shifts.
#[derive(Debug, Default)]
pub(crate) struct AnchorInjector {
    labels: IdMap<(RecordId, RecordId), u64>,
}

impl AnchorInjector {
    /// Labels at or above this base mark anchor pairs; they cannot
    /// collide with union-find roots, which are bounded by the record
    /// count.
    const BASE: u64 = 1 << 40;

    fn new() -> Self {
        Self::default()
    }

    /// The stable label of an anchor pair, assigned on first sight.
    fn label_for(&mut self, o: RecordId, n: RecordId) -> u64 {
        let next = Self::BASE + self.labels.len() as u64;
        *self.labels.entry((o, n)).or_insert(next)
    }

    /// Insert every confirmed link of `records` into `pm` as a
    /// two-record cluster with similarity 1.0.
    fn inject(&mut self, pm: &mut PreMatch, records: &RecordMapping) {
        for (o, n) in records.iter() {
            let label = self.label_for(o, n);
            pm.label_old.insert(o, label);
            pm.label_new.insert(n, label);
            pm.cluster_size.insert(label, 2);
            pm.pair_sims.insert((o, n), 1.0);
        }
    }
}

/// Precomputed state for linking one snapshot pair repeatedly.
pub struct Linker<'a> {
    old: &'a CensusDataset,
    new: &'a CensusDataset,
    old_graphs: Vec<EnrichedGraph>,
    new_graphs: Vec<EnrichedGraph>,
    old_gidx: HashMap<HouseholdId, usize>,
    new_gidx: HashMap<HouseholdId, usize>,
    /// Enriched-graph index by record raw id (`u32::MAX` = no graph) —
    /// empty when the dataset's ids are too sparse to index densely.
    old_graph_of: Vec<u32>,
    new_graph_of: Vec<u32>,
}

/// Dense-array size for indexing records by raw id, or `None` when the
/// id space is too sparse for an array to be worthwhile.
fn dense_id_span(records: &[PersonRecord]) -> Option<usize> {
    let max = records.iter().map(|r| r.id.raw()).max()?;
    (max < records.len() as u64 * 8 + 1024).then(|| max as usize + 1)
}

/// Record-raw-id → enriched-graph-index array (`u32::MAX` = none), or
/// empty when ids are sparse. Record ids are snapshot-local and dense in
/// practice, so the hot per-iteration loops probe this array instead of
/// hashing record ids.
fn graph_of(records: &[PersonRecord], graphs: &[EnrichedGraph]) -> Vec<u32> {
    let Some(span) = dense_id_span(records) else {
        return Vec::new();
    };
    let mut v = vec![u32::MAX; span];
    for (gi, g) in graphs.iter().enumerate() {
        for r in g.nodes() {
            if let Some(slot) = v.get_mut(r.raw() as usize) {
                *slot = gi as u32;
            }
        }
    }
    v
}

/// Dense array views of a [`PreMatch`]'s label maps, indexed by record
/// raw id (`u64::MAX` = unlabelled; real labels are union-find roots or
/// anchor labels, both far below the sentinel). Built once per iteration;
/// a `None` side falls back to the hash map, so lookups agree with `pm`
/// exactly either way.
struct LabelViews {
    old: Option<Vec<u64>>,
    new: Option<Vec<u64>>,
}

impl LabelViews {
    fn build(pm: &crate::PreMatch, old_span: Option<usize>, new_span: Option<usize>) -> Self {
        fn view(labels: &IdMap<RecordId, u64>, span: Option<usize>) -> Option<Vec<u64>> {
            let mut v = vec![u64::MAX; span?];
            for (r, l) in labels {
                *v.get_mut(r.raw() as usize)? = *l;
            }
            Some(v)
        }
        Self {
            old: view(&pm.label_old, old_span),
            new: view(&pm.label_new, new_span),
        }
    }

    #[inline]
    fn old_label(&self, pm: &crate::PreMatch, r: RecordId) -> Option<u64> {
        match &self.old {
            Some(v) => {
                let l = *v.get(r.raw() as usize)?;
                (l != u64::MAX).then_some(l)
            }
            None => pm.label_old.get(&r).copied(),
        }
    }

    #[inline]
    fn new_label(&self, pm: &crate::PreMatch, r: RecordId) -> Option<u64> {
        match &self.new {
            Some(v) => {
                let l = *v.get(r.raw() as usize)?;
                (l != u64::MAX).then_some(l)
            }
            None => pm.label_new.get(&r).copied(),
        }
    }
}

/// A candidate whose `g_sim` fell below `min_g_sim`: never materialised
/// as a [`ScoredSubgroup`], only kept (when auditing) for its
/// `below_min_g_sim` rejection.
#[derive(Debug, Clone, Copy)]
struct BelowFloor {
    old: HouseholdId,
    new: HouseholdId,
    g_sim: f64,
    subgraph_size: usize,
}

/// One direct match pair of a δ iteration, keyed by the enriched-graph
/// indices of its household pair, `(gi_o << 32) | gi_n`. Sorted on the
/// key, the pairs of one household candidate form one run, and the runs
/// follow graph (file) order.
#[derive(Debug, Clone, Copy)]
struct PairEntry {
    key: u64,
    old: RecordId,
    new: RecordId,
    sim: f64,
}

const _: () = assert!(std::mem::size_of::<PairEntry>() == 32);

impl PairEntry {
    /// Old- and new-side enriched-graph indices of the household pair.
    fn graphs(&self) -> (usize, usize) {
        (
            (self.key >> 32) as usize,
            (self.key & u64::from(u32::MAX)) as usize,
        )
    }
}

/// Whether two sorted pair entries belong to the same household
/// candidate.
fn same_candidate(a: &PairEntry, b: &PairEntry) -> bool {
    a.key == b.key
}

/// The scored candidates of one δ iteration.
#[derive(Default)]
struct ScoredCandidates {
    /// Candidates selection can accept, in candidate-list order.
    kept: Vec<ScoredSubgroup>,
    /// When auditing, the below-floor candidates in consideration order.
    below_floor: Vec<BelowFloor>,
    /// Non-empty subgraphs scored, kept or not.
    non_empty: usize,
    /// Vertex counts of those subgraphs (recorded only when tracing).
    sizes: Histogram,
}

impl ScoredCandidates {
    fn append(&mut self, mut other: Self) {
        self.kept.append(&mut other.kept);
        self.below_floor.append(&mut other.below_floor);
        self.non_empty += other.non_empty;
        self.sizes.merge(&other.sizes);
    }
}

/// Emit the decision provenance of one selection round: a
/// [`GroupDecision`] per winner (with its record links and the top-k
/// candidates it beat) and a standalone [`RejectedCandidate`] per loser,
/// the below-floor losers last.
fn emit_group_decisions(
    config: &LinkageConfig,
    delta: f64,
    iteration: usize,
    scored: &ScoredCandidates,
    outcome: &SelectionOutcome,
    obs: &Collector,
) {
    let candidates = &scored.kept;
    let top_k = obs.decision_top_k();
    // conflict losers, grouped under the winner that blocked them
    let mut losers_of: HashMap<usize, Vec<LosingCandidate>> = HashMap::new();
    for &(idx, reason) in &outcome.rejections {
        let (winner, why) = match reason {
            RejectReason::LowerGSim { winner } => (winner, RejectionReason::LowerGSim),
            RejectReason::TieBreak { winner } => (winner, RejectionReason::TieBreak),
            RejectReason::EmptySubgraph | RejectReason::BelowMinGSim => continue,
        };
        let c = &candidates[idx];
        losers_of.entry(winner).or_default().push(LosingCandidate {
            old_group: c.old.raw(),
            new_group: c.new.raw(),
            g_sim: c.g_sim,
            reason: why,
        });
    }
    let mut records_of: HashMap<usize, Vec<(u64, u64)>> = HashMap::new();
    for &(o, n, idx) in &outcome.added {
        records_of.entry(idx).or_default().push((o.raw(), n.raw()));
    }
    for &idx in &outcome.accepted {
        let c = &candidates[idx];
        let mut losers = losers_of.remove(&idx).unwrap_or_default();
        losers.sort_by(|a, b| {
            b.g_sim
                .partial_cmp(&a.g_sim)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| (a.old_group, a.new_group).cmp(&(b.old_group, b.new_group)))
        });
        losers.truncate(top_k);
        obs.decide(DecisionRecord::Group(GroupDecision {
            iteration,
            delta,
            old_group: c.old.raw(),
            new_group: c.new.raw(),
            avg_sim: c.score.avg_sim,
            e_sim: c.score.e_sim,
            unique: c.score.unique,
            alpha: config.weights.alpha,
            beta: config.weights.beta,
            g_sim: c.g_sim,
            subgraph_size: c.sub.vertices.len(),
            records: records_of.remove(&idx).unwrap_or_default(),
            losers,
        }));
    }
    for &(idx, reason) in &outcome.rejections {
        let c = &candidates[idx];
        let (why, winner) = match reason {
            RejectReason::EmptySubgraph => (RejectionReason::EmptySubgraph, None),
            RejectReason::BelowMinGSim => (RejectionReason::BelowMinGSim, None),
            RejectReason::LowerGSim { winner } => (
                RejectionReason::LowerGSim,
                Some((candidates[winner].old.raw(), candidates[winner].new.raw())),
            ),
            RejectReason::TieBreak { winner } => (
                RejectionReason::TieBreak,
                Some((candidates[winner].old.raw(), candidates[winner].new.raw())),
            ),
        };
        obs.decide(DecisionRecord::Rejected(RejectedCandidate {
            iteration,
            delta,
            old_group: c.old.raw(),
            new_group: c.new.raw(),
            g_sim: c.g_sim,
            subgraph_size: c.sub.vertices.len(),
            reason: why,
            winner,
        }));
    }
    for b in &scored.below_floor {
        obs.decide(DecisionRecord::Rejected(RejectedCandidate {
            iteration,
            delta,
            old_group: b.old.raw(),
            new_group: b.new.raw(),
            g_sim: b.g_sim,
            subgraph_size: b.subgraph_size,
            reason: RejectionReason::BelowMinGSim,
            winner: None,
        }));
    }
}

impl<'a> Linker<'a> {
    /// Enrich both snapshots once (`completeGroups`, §3.1).
    #[must_use]
    pub fn new(old: &'a CensusDataset, new: &'a CensusDataset) -> Self {
        Self::new_traced(old, new, &Collector::disabled())
    }

    /// [`Linker::new`] recording the enrichment as an `enrich` span on
    /// `obs`.
    #[must_use]
    pub fn new_traced(old: &'a CensusDataset, new: &'a CensusDataset, obs: &Collector) -> Self {
        let _enrich = obs.span("enrich");
        let old_graphs = EnrichedGraph::build_all(old);
        let new_graphs = EnrichedGraph::build_all(new);
        let old_gidx = old_graphs
            .iter()
            .enumerate()
            .map(|(i, g)| (g.household, i))
            .collect();
        let new_gidx = new_graphs
            .iter()
            .enumerate()
            .map(|(i, g)| (g.household, i))
            .collect();
        let old_graph_of = graph_of(old.records(), &old_graphs);
        let new_graph_of = graph_of(new.records(), &new_graphs);
        if obs.is_enabled() {
            let fp = old_graphs
                .iter()
                .chain(new_graphs.iter())
                .fold(Footprint::ZERO, |acc, g| acc.plus(g.footprint()));
            obs.snapshot_footprint("enriched_graphs", fp);
        }
        Self {
            old,
            new,
            old_graphs,
            new_graphs,
            old_gidx,
            new_gidx,
            old_graph_of,
            new_graph_of,
        }
    }

    /// The enriched graphs of the old census, in household order.
    #[must_use]
    pub fn old_graphs(&self) -> &[EnrichedGraph] {
        &self.old_graphs
    }

    /// The enriched graphs of the new census, in household order.
    #[must_use]
    pub fn new_graphs(&self) -> &[EnrichedGraph] {
        &self.new_graphs
    }

    /// Dense label views of `pm` over the record-id spans of the graph
    /// indices (hash-map fallback on a sparse side).
    fn label_views(&self, pm: &crate::PreMatch) -> LabelViews {
        LabelViews::build(
            pm,
            (!self.old_graph_of.is_empty()).then_some(self.old_graph_of.len()),
            (!self.new_graph_of.is_empty()).then_some(self.new_graph_of.len()),
        )
    }

    /// Every direct match pair of `pm` whose records both sit in an
    /// enriched graph, sorted on its household-pair key so each
    /// household candidate is one run (see [`PairEntry`]).
    fn candidate_pairs(&self, pm: &crate::PreMatch) -> Vec<PairEntry> {
        let dense = !self.old_graph_of.is_empty() && !self.new_graph_of.is_empty();
        let graphs_of = |o: RecordId, n: RecordId| -> Option<(u32, u32)> {
            if dense {
                let gi_o = *self.old_graph_of.get(o.raw() as usize)?;
                let gi_n = *self.new_graph_of.get(n.raw() as usize)?;
                (gi_o != u32::MAX && gi_n != u32::MAX).then_some((gi_o, gi_n))
            } else {
                let (ro, rn) = (self.old.record(o)?, self.new.record(n)?);
                let gi_o = *self.old_gidx.get(&ro.household)?;
                let gi_n = *self.new_gidx.get(&rn.household)?;
                Some((gi_o as u32, gi_n as u32))
            }
        };
        let mut pairs: Vec<PairEntry> = pm
            .pair_sims
            .iter()
            .filter_map(|(&(o, n), &sim)| {
                let (gi_o, gi_n) = graphs_of(o, n)?;
                Some(PairEntry {
                    key: (u64::from(gi_o) << 32) | u64::from(gi_n),
                    old: o,
                    new: n,
                    sim,
                })
            })
            .collect();
        pairs.sort_unstable_by_key(|p| p.key);
        pairs
    }

    /// Match and score the household candidates of `pairs` (sorted by
    /// [`Linker::candidate_pairs`]), in parallel across worker threads.
    /// The result follows candidate order, so runs stay deterministic.
    ///
    /// A candidate joined by one direct pair `(o, n)` is scored in
    /// closed form: the matcher only admits direct pairs as vertices, so
    /// its subgraph is `{(o, n)}` when the two labels agree and empty
    /// otherwise, and one vertex has no edge. Any other candidate is
    /// matched into a reused scratch buffer and scored there. Only a
    /// candidate that clears `min_g_sim` is materialised as a
    /// [`ScoredSubgroup`]. Selection skips a below-floor candidate
    /// without claiming a record, so leaving it out changes no
    /// acceptance and no tie-break among the rest. With `audit` set, a
    /// [`BelowFloor`] record keeps what its rejection reports.
    ///
    /// `labels` carries dense label views of `pm` (see [`LabelViews`]) so
    /// the per-candidate hot loop probes arrays instead of hashing
    /// record ids; lookups through the views agree exactly with `pm`'s
    /// label maps.
    #[allow(clippy::too_many_arguments)] // internal plumbing of run_traced
    fn score_candidates(
        &self,
        pairs: &[PairEntry],
        pm: &crate::PreMatch,
        labels: &LabelViews,
        config: &LinkageConfig,
        par: Parallelism,
        delta: f64,
        iteration: usize,
        audit: bool,
        obs: &Collector,
    ) -> ScoredCandidates {
        let traced = obs.is_enabled();
        let score_chunk = |chunk: &[PairEntry], scratch: &mut SubgraphScratch| {
            let mut out = ScoredCandidates::default();
            for run in chunk.chunk_by(same_candidate) {
                let (gi_o, gi_n) = run[0].graphs();
                let (old_g, new_g) = (&self.old_graphs[gi_o], &self.new_graphs[gi_n]);
                let (matched, score) = if let [p] = run {
                    let Some(label) = labels.old_label(pm, p.old) else {
                        continue;
                    };
                    if labels.new_label(pm, p.new) != Some(label) {
                        continue;
                    }
                    let edge_denom = old_g.edge_count() + new_g.edge_count();
                    let score = score_single_pair(p.sim, pm.size_of_label(label), edge_denom);
                    (None, score)
                } else {
                    let sub = match_subgraph_with(
                        old_g,
                        new_g,
                        |r| labels.old_label(pm, r),
                        |r| labels.new_label(pm, r),
                        |o, n| pm.pair_sims.contains_key(&(o, n)),
                        &config.subgraph,
                        scratch,
                    );
                    if sub.is_empty() {
                        continue;
                    }
                    (Some(sub), score_subgraph(sub, pm, delta))
                };
                let size = matched.map_or(1, |sub| sub.vertices.len());
                out.non_empty += 1;
                if traced {
                    out.sizes.record(size as u64);
                }
                let g_sim = config.weights.g_sim(&score);
                let (old, new) = (old_g.household, new_g.household);
                if !below_floor(g_sim, config.min_g_sim) {
                    let sub = match matched {
                        Some(sub) => sub.clone(),
                        None => MatchedSubgraph {
                            vertices: vec![(run[0].old, run[0].new)],
                            edges: Vec::new(),
                            old_edge_count: old_g.edge_count(),
                            new_edge_count: new_g.edge_count(),
                        },
                    };
                    out.kept.push(ScoredSubgroup {
                        old,
                        new,
                        sub,
                        score,
                        g_sim,
                    });
                } else if audit {
                    out.below_floor.push(BelowFloor {
                        old,
                        new,
                        g_sim,
                        subgraph_size: size,
                    });
                }
            }
            out
        };
        let candidates = pairs.chunk_by(same_candidate).count();
        obs.add(Counter::SubgraphPairsScored, candidates as u64);
        let threads = par.threads.max(1);
        // household candidates carry more work per item than record
        // pairs, so fan out at half the configured pair cutoff
        let mut scored = if threads <= 1 || candidates < config.parallel_cutoff / 2 {
            let mut scratch = SubgraphScratch::default();
            let out = score_chunk(pairs, &mut scratch);
            if traced {
                obs.snapshot_footprint("subgraph_scratch", scratch.footprint());
            }
            out
        } else {
            // one chunk of whole candidates per thread, each with its own
            // scratch; chunks are concatenated in list order, so the
            // output is exactly the serial order regardless of completion
            // order
            let per_chunk = candidates.div_ceil(threads).max(1);
            let mut chunks: Vec<(&[PairEntry], usize)> = Vec::new();
            let (mut start, mut end, mut runs) = (0, 0, 0);
            for run in pairs.chunk_by(same_candidate) {
                end += run.len();
                runs += 1;
                if runs == per_chunk {
                    chunks.push((&pairs[start..end], runs));
                    (start, runs) = (end, 0);
                }
            }
            if runs > 0 {
                chunks.push((&pairs[start..end], runs));
            }
            let results = run_pool(chunks.len(), threads, obs, |ci, worker| {
                let t0 = obs.timeline_start();
                let start = Instant::now();
                let (chunk, chunk_candidates) = chunks[ci];
                let scored = score_chunk(chunk, &mut SubgraphScratch::default());
                obs.thread_chunk(
                    "subgraph",
                    Some(iteration),
                    ci,
                    worker,
                    chunk_candidates,
                    start.elapsed(),
                );
                if let Some(t0) = t0 {
                    obs.timeline_task(
                        worker,
                        EventKind::SubgraphChunk,
                        ci as u64,
                        Some(iteration),
                        t0,
                    );
                }
                scored
            });
            let mut all = ScoredCandidates::default();
            for part in results {
                all.append(part);
            }
            all
        };
        obs.add(Counter::GroupCandidates, scored.non_empty as u64);
        obs.observe_hist(LiveHist::SubgraphSize, &scored.sizes);
        // below-floor candidates sort after every kept one, so their
        // rejections come last, in the order selection would consider them
        scored
            .below_floor
            .sort_by(|a, b| consideration_order((a.g_sim, a.old, a.new), (b.g_sim, b.old, b.new)));
        scored
    }

    /// Run Algorithm 1 with the given configuration, reusing the cached
    /// enrichment.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid.
    #[must_use]
    pub fn run(&self, config: &LinkageConfig) -> LinkageResult {
        self.run_traced(config, &Collector::disabled())
    }

    /// [`Linker::run`] reporting spans and counters to `obs`: one
    /// `iteration` span per δ step (with nested `prematch` / `subgraph`
    /// / `selection` phases), a `remainder` span, pair and link
    /// counters, and the profile-cache totals. With a disabled
    /// collector every instrumentation point is a single branch, so
    /// this *is* the uninstrumented hot path.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid.
    #[must_use]
    pub fn run_traced(&self, config: &LinkageConfig, obs: &Collector) -> LinkageResult {
        config.validate();
        let year_gap = i64::from(self.new.year - self.old.year);
        let mem = MemGovernor::new(config.memory_budget);
        let par = config.parallelism();
        // the governor may veto the cross-iteration pair cache, dropping
        // the run to the recompute-every-iteration path (bit-identical)
        let mut incremental = config.incremental;

        let mut remaining_old: Vec<&PersonRecord> = self.old.records().iter().collect();
        let mut remaining_new: Vec<&PersonRecord> = self.new.records().iter().collect();
        let mut records = RecordMapping::new();
        let mut groups = GroupMapping::new();
        let mut iterations = Vec::new();
        let mut provenance = HashMap::new();
        let mut anchors = AnchorInjector::new();

        // attribute values are δ-independent: intern each distinct value
        // and each record's value-id row once, and reuse them (and the
        // arenas over the values) across the whole schedule and the
        // remainder pass, whose specs usually coincide
        let mut cache = ProfileCache::new();
        // so is agg_sim itself: in incremental mode every blocked pair
        // is scored once against the schedule floor, and later
        // iterations only filter the cached scores
        let mut pair_cache: Option<PairScoreCache> = None;
        // score the cache at the exact bound the loop's break condition
        // uses: float-stepped deltas can land marginally below δ_low, so
        // a cache scored at δ_low exactly could miss their pairs
        let floor = (config.delta_low - 1e-9).max(0.0);

        let mut delta = config.delta_high;
        let mut iter_idx = 0usize;
        loop {
            let _iter = obs.iter_span(ITERATION_SPAN, iter_idx, Some(delta));
            // δ-iteration boundary marker on the driver's timeline lane;
            // detail carries the threshold in basis points
            obs.timeline_instant(
                0,
                EventKind::Iteration,
                obs::score_bp(delta),
                Some(iter_idx),
            );
            let sim = config.sim_func.with_threshold(delta);
            let pm = {
                let _prematch = obs.span("prematch");
                if incremental && pair_cache.is_none() {
                    let build_sim = config.sim_func.with_threshold(floor);
                    pair_cache = PairScoreCache::build(
                        &remaining_old,
                        &remaining_new,
                        &mut cache,
                        year_gap,
                        &build_sim,
                        config.blocking,
                        par,
                        config.prematch_max_age_gap,
                        &mem,
                        obs,
                    );
                    // governor refused the cache: recompute per iteration
                    incremental = pair_cache.is_some();
                }
                // without a cache (recompute mode, or the governor
                // refused it) every iteration scores its pairs afresh
                let mut pm = if let Some(pc) = &pair_cache {
                    let matches = pc.select_traced(delta, &remaining_old, &remaining_new, obs);
                    if iter_idx > 0 {
                        obs.add(Counter::PairCacheHits, matches.len() as u64);
                        obs.add(
                            Counter::PairCacheFiltered,
                            (pc.len() - matches.len()) as u64,
                        );
                    }
                    build_prematch(
                        &remaining_old,
                        &remaining_new,
                        std::slice::from_ref(&matches),
                    )
                } else {
                    prematch_cached(
                        &remaining_old,
                        &remaining_new,
                        &mut cache,
                        year_gap,
                        &sim,
                        config.blocking,
                        par,
                        config.prematch_max_age_gap,
                        obs,
                    )
                };
                if obs.is_enabled() {
                    if let Some(pc) = &pair_cache {
                        obs.snapshot_footprint("pair_score_cache", pc.footprint());
                    }
                    obs.snapshot_footprint("profile_cache", cache.footprint());
                }

                // inject confirmed links as high-confidence anchors
                anchors.inject(&mut pm, &records);
                pm
            };

            // truth telemetry reuses the audit plumbing: rejections are
            // recorded either way, and scoring and `select_and_extract`
            // are audit-neutral, so the mappings stay bit-identical
            let audit = obs.decisions_enabled() || obs.truth_enabled();
            let scored = {
                let _subgraph = obs.span("subgraph");
                // candidate group pairs: households connected by ≥1 match
                // pair, in graph order (deterministic)
                let pairs = self.candidate_pairs(&pm);
                let labels = self.label_views(&pm);
                self.score_candidates(
                    &pairs, &pm, &labels, config, par, delta, iter_idx, audit, obs,
                )
            };
            let candidates = &scored.kept;

            let _selection = obs.span("selection");
            let records_before = records.len();
            let groups_before = groups.len();
            let outcome = select_and_extract(
                candidates,
                &pm,
                delta,
                config.min_g_sim,
                audit,
                &mut groups,
                &mut records,
            );
            for &(o, n, cand_idx) in &outcome.added {
                provenance.insert(
                    (o, n),
                    LinkPhase::Subgraph {
                        delta,
                        g_sim: candidates[cand_idx].g_sim,
                    },
                );
            }
            if obs.decisions_enabled() {
                emit_group_decisions(config, delta, iter_idx, &scored, &outcome, obs);
            }
            if obs.truth_enabled() {
                for &(idx, reason) in &outcome.rejections {
                    let c = &candidates[idx];
                    let why = match reason {
                        RejectReason::LowerGSim { .. } => RejectionReason::LowerGSim,
                        RejectReason::TieBreak { .. } => RejectionReason::TieBreak,
                        RejectReason::BelowMinGSim => RejectionReason::BelowMinGSim,
                        RejectReason::EmptySubgraph => RejectionReason::EmptySubgraph,
                    };
                    obs.truth_rejected(c.old.raw(), c.new.raw(), why);
                }
                for b in &scored.below_floor {
                    obs.truth_rejected(b.old.raw(), b.new.raw(), RejectionReason::BelowMinGSim);
                }
                for &(o, n, _) in &outcome.added {
                    obs.truth_added(o.raw(), n.raw());
                }
            }
            let record_links = records.len() - records_before;
            let group_links = groups.len() - groups_before;
            let progress = !outcome.accepted.is_empty() && (group_links > 0 || record_links > 0);
            obs.add(Counter::GroupLinksAccepted, group_links as u64);
            obs.add(Counter::RecordLinks, record_links as u64);

            iterations.push(IterationStats {
                delta,
                prematch_pairs: pm.match_count(),
                candidates: scored.non_empty,
                group_links,
                record_links,
            });

            if record_links > 0 {
                remaining_old.retain(|r| !records.contains_old(r.id));
                remaining_new.retain(|r| !records.contains_new(r.id));
            }
            obs.snapshot_decision_footprint();
            drop(_selection);

            if config.delta_step <= 0.0 {
                break;
            }
            delta -= config.delta_step;
            iter_idx += 1;
            if !progress || delta < config.delta_low - 1e-9 {
                break;
            }
        }

        // snapshot which records reach the remainder pass unlinked — the
        // funnel's lost_remainder / lost_selection boundary
        let remainder_entry: Option<(HashSet<RecordId>, HashSet<RecordId>)> =
            obs.truth_enabled().then(|| {
                (
                    remaining_old.iter().map(|r| r.id).collect(),
                    remaining_new.iter().map(|r| r.id).collect(),
                )
            });
        let remainder_added = {
            let _remainder = obs.span("remainder");
            match_remaining_cached(
                self.old,
                self.new,
                &remaining_old,
                &remaining_new,
                &config.remainder,
                config.blocking,
                &mut records,
                &mut groups,
                &mut cache,
                pair_cache.as_ref(),
                par,
                obs,
            )
        };
        for &(o, n) in &remainder_added {
            provenance.insert((o, n), LinkPhase::Remainder);
            obs.truth_added(o.raw(), n.raw());
        }
        obs.add(Counter::ProfilesBuilt, cache.built() as u64);
        obs.add(Counter::ProfilesReused, cache.reused() as u64);

        if let Some((rem_old, rem_new)) = &remainder_entry {
            crate::quality::finalize_quality(
                &crate::quality::QualityInputs {
                    old: self.old,
                    new: self.new,
                    config,
                    records: &records,
                    groups: &groups,
                    iterations: &iterations,
                    provenance: &provenance,
                    remainder_old: rem_old,
                    remainder_new: rem_new,
                },
                obs,
            );
        }

        LinkageResult {
            records,
            groups,
            iterations,
            remainder_links: remainder_added.len(),
            provenance,
            profiles_built: cache.built(),
            profiles_reused: cache.reused(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use census_synth::{generate_series, SimConfig};

    /// Every record id shifted by 2^40: too sparse for the dense
    /// graph-index and label arrays, so the hash-map branches run.
    fn offset_ids(d: &CensusDataset) -> CensusDataset {
        const OFFSET: u64 = 1 << 40;
        let records = d
            .records()
            .iter()
            .map(|r| PersonRecord {
                id: RecordId(r.id.raw() + OFFSET),
                ..r.clone()
            })
            .collect();
        let households = d
            .households()
            .iter()
            .map(|h| {
                let members = h.members.iter().map(|m| RecordId(m.raw() + OFFSET));
                census_model::Household::new(h.id, members.collect())
            })
            .collect();
        CensusDataset::new(d.year, records, households).unwrap()
    }

    /// Score every household candidate of `pm` with the full matcher
    /// (`match_subgraph` + `score_subgraph`), no closed form: `kept`
    /// sorted by household pair, `below_floor` in consideration order.
    fn full_matcher_oracle(
        linker: &Linker,
        pm: &crate::PreMatch,
        config: &LinkageConfig,
        delta: f64,
    ) -> ScoredCandidates {
        let mut households: Vec<(HouseholdId, HouseholdId)> = pm
            .pair_sims
            .keys()
            .map(|&(o, n)| {
                let ro = linker.old.record(o).unwrap();
                let rn = linker.new.record(n).unwrap();
                (ro.household, rn.household)
            })
            .collect();
        households.sort_unstable();
        households.dedup();
        let mut out = ScoredCandidates::default();
        for (old, new) in households {
            let sub = hhgraph::match_subgraph(
                &linker.old_graphs[linker.old_gidx[&old]],
                &linker.new_graphs[linker.new_gidx[&new]],
                |r| pm.label_old.get(&r).copied(),
                |r| pm.label_new.get(&r).copied(),
                |o, n| pm.pair_sims.contains_key(&(o, n)),
                &config.subgraph,
            );
            if sub.is_empty() {
                continue;
            }
            out.non_empty += 1;
            out.sizes.record(sub.vertices.len() as u64);
            let score = score_subgraph(&sub, pm, delta);
            let g_sim = config.weights.g_sim(&score);
            if below_floor(g_sim, config.min_g_sim) {
                out.below_floor.push(BelowFloor {
                    old,
                    new,
                    g_sim,
                    subgraph_size: sub.vertices.len(),
                });
            } else {
                out.kept.push(ScoredSubgroup {
                    old,
                    new,
                    sub,
                    score,
                    g_sim,
                });
            }
        }
        out.below_floor
            .sort_by(|a, b| consideration_order((a.g_sim, a.old, a.new), (b.g_sim, b.old, b.new)));
        out
    }

    fn assert_same_scoring(got: &ScoredCandidates, want: &ScoredCandidates, at: &str) {
        let mut kept: Vec<&ScoredSubgroup> = got.kept.iter().collect();
        kept.sort_by_key(|c| (c.old, c.new));
        assert_eq!(kept.len(), want.kept.len(), "{at}: kept");
        for (g, w) in kept.iter().zip(&want.kept) {
            let bits = |c: &ScoredSubgroup| {
                let s = c.score;
                [s.avg_sim, s.e_sim, s.unique, c.g_sim].map(f64::to_bits)
            };
            assert_eq!((g.old, g.new), (w.old, w.new), "{at}: household pair");
            assert_eq!(bits(g), bits(w), "{at}: scores of {:?}", (w.old, w.new));
            assert_eq!(g.sub.vertices, w.sub.vertices, "{at}: vertices");
            assert_eq!(g.sub.edges, w.sub.edges, "{at}: edges");
            assert_eq!(
                (g.sub.old_edge_count, g.sub.new_edge_count),
                (w.sub.old_edge_count, w.sub.new_edge_count),
                "{at}: edge counts"
            );
        }
        let floor = |c: &ScoredCandidates| -> Vec<_> {
            c.below_floor
                .iter()
                .map(|b| (b.old, b.new, b.g_sim.to_bits(), b.subgraph_size))
                .collect()
        };
        assert_eq!(floor(got), floor(want), "{at}: below_floor");
        assert_eq!(got.non_empty, want.non_empty, "{at}: non_empty");
        assert_eq!(got.sizes, want.sizes, "{at}: subgraph sizes");
    }

    /// Drive Algorithm 1's δ loop (recompute mode) over one snapshot
    /// pair and check every iteration's `score_candidates` against the
    /// full-matcher oracle. Returns the number of iterations, of kept
    /// candidates with one and with several vertices, and of
    /// below-floor candidates.
    fn check_against_oracle(
        old: &CensusDataset,
        new: &CensusDataset,
        config: &LinkageConfig,
    ) -> (usize, usize, usize, usize) {
        let linker = Linker::new(old, new);
        let obs = Collector::enabled();
        let year_gap = i64::from(new.year - old.year);
        let mut remaining_old: Vec<&PersonRecord> = old.records().iter().collect();
        let mut remaining_new: Vec<&PersonRecord> = new.records().iter().collect();
        let (mut records, mut groups) = (RecordMapping::new(), GroupMapping::new());
        let mut anchors = AnchorInjector::new();
        let (mut single, mut multi, mut below) = (0, 0, 0);
        let mut delta = config.delta_high;
        for iteration in 0.. {
            let mut pm = crate::prematch(
                &remaining_old,
                &remaining_new,
                year_gap,
                &config.sim_func.with_threshold(delta),
                config.blocking,
                config.threads,
                config.prematch_max_age_gap,
            );
            anchors.inject(&mut pm, &records);
            let scored = linker.score_candidates(
                &linker.candidate_pairs(&pm),
                &pm,
                &linker.label_views(&pm),
                config,
                config.parallelism(),
                delta,
                iteration,
                true,
                &obs,
            );
            let want = full_matcher_oracle(&linker, &pm, config, delta);
            assert_same_scoring(&scored, &want, &format!("iteration {iteration}"));
            single += want
                .kept
                .iter()
                .filter(|c| c.sub.vertices.len() == 1)
                .count();
            multi += want
                .kept
                .iter()
                .filter(|c| c.sub.vertices.len() > 1)
                .count();
            below += want.below_floor.len();
            let outcome = select_and_extract(
                &scored.kept,
                &pm,
                delta,
                config.min_g_sim,
                false,
                &mut groups,
                &mut records,
            );
            remaining_old.retain(|r| !records.contains_old(r.id));
            remaining_new.retain(|r| !records.contains_new(r.id));
            delta -= config.delta_step;
            if outcome.accepted.is_empty() || delta < config.delta_low - 1e-9 {
                return (iteration + 1, single, multi, below);
            }
        }
        unreachable!()
    }

    #[test]
    fn score_candidates_matches_the_full_matcher_oracle() {
        let series = generate_series(&SimConfig::small());
        let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
        let (old_off, new_off) = (offset_ids(old), offset_ids(new));
        // the default floor leaves nothing below it at this scale; a
        // raised one sends many single-pair candidates there
        for min_g_sim in [LinkageConfig::default().min_g_sim, 0.3] {
            for (name, threads, parallel_cutoff) in [("serial", 1, usize::MAX), ("parallel", 4, 0)]
            {
                let config = LinkageConfig {
                    threads,
                    parallel_cutoff,
                    min_g_sim,
                    ..LinkageConfig::default()
                };
                for (ids, (o, n)) in [("dense", (old, new)), ("offset", (&old_off, &new_off))] {
                    let at = format!("{name}/{ids}/min_g_sim {min_g_sim}");
                    let (iterations, single, multi, below) = check_against_oracle(o, n, &config);
                    assert!(iterations >= 3, "{at}: {iterations} iterations");
                    assert!(single > 0 && multi > 0, "{at}: {single}/{multi}");
                    assert!(
                        min_g_sim < 0.3 || below > 0,
                        "{at}: nothing below the floor"
                    );
                }
            }
        }
    }

    #[test]
    fn split_labels_leave_a_single_pair_candidate_empty() {
        // build_prematch gives both ends of a direct pair one label, so
        // only an edited PreMatch can split them; the matcher then
        // admits no vertex, and neither may the closed form
        let series = generate_series(&SimConfig::small());
        let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
        let linker = Linker::new(old, new);
        let config = LinkageConfig {
            threads: 1,
            ..LinkageConfig::default()
        };
        let delta = config.delta_high;
        let old_refs: Vec<&PersonRecord> = old.records().iter().collect();
        let new_refs: Vec<&PersonRecord> = new.records().iter().collect();
        let mut pm = crate::prematch(
            &old_refs,
            &new_refs,
            i64::from(new.year - old.year),
            &config.sim_func.with_threshold(delta),
            config.blocking,
            1,
            config.prematch_max_age_gap,
        );
        let before = full_matcher_oracle(&linker, &pm, &config, delta).non_empty;
        let split: Vec<RecordId> = pm
            .pair_sims
            .keys()
            .map(|&(_, n)| n)
            .filter(|n| n.raw() % 2 == 0)
            .collect();
        for n in split {
            pm.label_new.insert(n, (1 << 50) + n.raw());
        }
        let want = full_matcher_oracle(&linker, &pm, &config, delta);
        assert!(want.non_empty < before, "{} vs {before}", want.non_empty);
        let got = linker.score_candidates(
            &linker.candidate_pairs(&pm),
            &pm,
            &linker.label_views(&pm),
            &config,
            config.parallelism(),
            delta,
            0,
            true,
            &Collector::enabled(),
        );
        assert_same_scoring(&got, &want, "split labels");
    }

    #[test]
    fn linker_matches_free_function() {
        let series = generate_series(&SimConfig::small());
        let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
        let config = LinkageConfig::default();
        let direct = crate::link(old, new, &config);
        let linker = Linker::new(old, new);
        let cached = linker.run(&config);
        let a: std::collections::BTreeSet<_> = direct.records.iter().collect();
        let b: std::collections::BTreeSet<_> = cached.records.iter().collect();
        assert_eq!(a, b);
        let ga: std::collections::BTreeSet<_> = direct.groups.iter().collect();
        let gb: std::collections::BTreeSet<_> = cached.groups.iter().collect();
        assert_eq!(ga, gb);
    }

    #[test]
    fn provenance_covers_every_link() {
        let series = generate_series(&SimConfig::small());
        let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
        let result = Linker::new(old, new).run(&LinkageConfig::default());
        for (o, n) in result.records.iter() {
            let phase = result.explain(o, n);
            assert!(phase.is_some(), "link {o}->{n} has no provenance");
        }
        // subgraph links dominate; their deltas are within the schedule
        let mut subgraph = 0;
        let mut remainder = 0;
        for (&_, phase) in &result.provenance {
            match phase {
                crate::LinkPhase::Subgraph { delta, g_sim } => {
                    subgraph += 1;
                    assert!(*delta > 0.5 - 1e-9 && *delta < 0.7 + 1e-9); // float-stepped schedule
                    assert!((0.0..=1.0).contains(g_sim));
                }
                crate::LinkPhase::Remainder => remainder += 1,
            }
        }
        assert!(subgraph > remainder);
        assert_eq!(subgraph + remainder, result.records.len());
    }

    #[test]
    fn anchor_labels_stay_stable_across_iterations() {
        use census_model::RecordId;
        let mut anchors = AnchorInjector::new();
        let mut records = RecordMapping::new();
        records.insert(RecordId(3), RecordId(30));
        records.insert(RecordId(1), RecordId(10));

        let mut pm1 = crate::PreMatch::default();
        anchors.inject(&mut pm1, &records);
        let first: std::collections::HashMap<_, _> = records
            .iter()
            .map(|(o, n)| ((o, n), pm1.label_old[&o]))
            .collect();
        for (&(o, n), &label) in &first {
            assert!(label >= AnchorInjector::BASE);
            assert_eq!(pm1.label_new[&n], label);
            assert_eq!(pm1.cluster_size[&label], 2);
            assert_eq!(pm1.pair_sims[&(o, n)], 1.0);
        }

        // a later iteration confirmed more links; the earlier anchors
        // must keep their labels even though the mapping (and its
        // iteration order) changed
        records.insert(RecordId(0), RecordId(40));
        records.insert(RecordId(2), RecordId(20));
        let mut pm2 = crate::PreMatch::default();
        anchors.inject(&mut pm2, &records);
        for (&(o, n), &label) in &first {
            assert_eq!(
                pm2.label_old[&o], label,
                "anchor {o}->{n} changed label between iterations"
            );
            assert_eq!(pm2.label_new[&n], label);
        }
        // every confirmed link is anchored, under distinct labels
        let labels: std::collections::HashSet<u64> =
            records.iter().map(|(o, _)| pm2.label_old[&o]).collect();
        assert_eq!(labels.len(), records.len());
    }

    #[test]
    fn incremental_default_matches_recompute() {
        let series = generate_series(&SimConfig::small());
        let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
        let linker = Linker::new(old, new);
        let incremental = linker.run(&LinkageConfig::default());
        let recompute = linker.run(&LinkageConfig {
            incremental: false,
            ..LinkageConfig::default()
        });
        let a: std::collections::BTreeSet<_> = incremental.records.iter().collect();
        let b: std::collections::BTreeSet<_> = recompute.records.iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn linker_reuses_across_configs() {
        let series = generate_series(&SimConfig::small());
        let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
        let linker = Linker::new(old, new);
        let iter = linker.run(&LinkageConfig::paper_best());
        let oneshot = linker.run(&LinkageConfig::non_iterative());
        assert!(iter.iterations.len() > oneshot.iterations.len());
        // graphs cover every household
        assert_eq!(linker.old_graphs().len(), old.household_count());
        assert_eq!(linker.new_graphs().len(), new.household_count());
    }
}
