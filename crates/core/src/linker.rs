//! A reusable linker for one snapshot pair.
//!
//! Parameter sweeps (the paper's Tables 3–5) run the pipeline many times
//! over the *same* pair of censuses; group enrichment and the household
//! index never change between runs. [`Linker`] computes them once and
//! lets each [`Linker::run`] reuse them.

use crate::config::{LinkageConfig, Parallelism};
use crate::group_sim::{score_single_pair, score_subgraph};
use crate::mem::MemGovernor;
use crate::pairscore::{sort_chunks_by_key, PairScoreCache, PositionIndex};
use crate::prematch::{build_prematch, join, pass_head, run_pool_with, PreMatch, TASKS};
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
    Collector, Counter, DecisionRecord, DriverSection, EventKind, Footprint, GroupDecision,
    Histogram, LiveHist, LosingCandidate, MemoryFootprint, RejectedCandidate, RejectionReason,
    ITERATION_SPAN,
};
use std::collections::HashMap;

/// One match pair of a δ step: `(old position, new position, agg_sim)`
/// over the two snapshots' record slices.
type Pair = (u32, u32, f64);

/// Precomputed state for linking one snapshot pair repeatedly.
pub struct Linker<'a> {
    old: &'a CensusDataset,
    new: &'a CensusDataset,
    old_graphs: Vec<EnrichedGraph>,
    new_graphs: Vec<EnrichedGraph>,
    /// Record id → position in the snapshot's record slice.
    old_pos: PositionIndex,
    new_pos: PositionIndex,
    /// Enriched-graph index by record position (`u32::MAX` = no graph).
    old_graph: Vec<u32>,
    new_graph: Vec<u32>,
}

/// The enriched-graph index of each of `n` records, by position
/// (`u32::MAX` = in no graph).
fn graph_by_position(n: usize, pos: &PositionIndex, graphs: &[EnrichedGraph]) -> Vec<u32> {
    let mut v = vec![u32::MAX; n];
    for (gi, g) in graphs.iter().enumerate() {
        for &r in g.nodes() {
            if let Some(p) = pos.get(r) {
                v[p as usize] = gi as u32;
            }
        }
    }
    v
}

/// Merge two pair lists, each sorted by `key`, into one sorted list.
fn merge_by_key(a: &[Pair], b: &[Pair], key: impl Fn(&Pair) -> u128) -> Vec<Pair> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if key(&a[i]) <= key(&b[j]) {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
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

/// The scored candidates of one δ iteration.
#[derive(Default)]
struct ScoredCandidates {
    /// Candidates selection can accept, in candidate-list order.
    kept: Vec<ScoredSubgroup>,
    /// When auditing, the below-floor candidates in candidate-list order
    /// (the decision log sorts them into consideration order).
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

/// A selection rejection as the decision log records it, with the
/// candidate index of the winner that blocked a conflict loser.
fn logged(reason: RejectReason) -> (RejectionReason, Option<usize>) {
    match reason {
        RejectReason::EmptySubgraph => (RejectionReason::EmptySubgraph, None),
        RejectReason::BelowMinGSim => (RejectionReason::BelowMinGSim, None),
        RejectReason::LowerGSim { winner } => (RejectionReason::LowerGSim, Some(winner)),
        RejectReason::TieBreak { winner } => (RejectionReason::TieBreak, Some(winner)),
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
        let (why, Some(winner)) = logged(reason) else {
            continue;
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
        let (why, winner) = logged(reason);
        let winner = winner.map(|w| (candidates[w].old.raw(), candidates[w].new.raw()));
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
        Self::new_traced(old, new, 1, &Collector::disabled())
    }

    /// [`Linker::new`] recording the enrichment as an `enrich` span on
    /// `obs`. With `threads` above 1 the two snapshots are enriched
    /// concurrently.
    #[must_use]
    pub fn new_traced(
        old: &'a CensusDataset,
        new: &'a CensusDataset,
        threads: usize,
        obs: &Collector,
    ) -> Self {
        let _enrich = obs.span("enrich");
        // one snapshot's graphs, record positions and graph by position
        let enrich = |ds: &CensusDataset| {
            let graphs = EnrichedGraph::build_all(ds);
            let pos = PositionIndex::from_ids(ds.records().iter().map(|r| r.id));
            let graph = graph_by_position(ds.records().len(), &pos, &graphs);
            (graphs, pos, graph)
        };
        let ((old_graphs, old_pos, old_graph), (new_graphs, new_pos, new_graph)) =
            join(threads, || enrich(old), || enrich(new));
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
            old_pos,
            new_pos,
            old_graph,
            new_graph,
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

    /// Positions of a record pair in the two snapshots.
    fn positions(&self, o: RecordId, n: RecordId) -> Option<(u32, u32)> {
        Some((self.old_pos.get(o)?, self.new_pos.get(n)?))
    }

    /// Enriched-graph indices of a pair's two households.
    fn graphs_of(&self, &(o, n, _): &Pair) -> (u32, u32) {
        (self.old_graph[o as usize], self.new_graph[n as usize])
    }

    /// Household-pair order: the pair's enriched-graph indices, then its
    /// positions. Sorted on it, the pairs of one household candidate form
    /// one run, the runs follow graph (file) order, and a run is sorted by
    /// position, so a pair is found in it, or in the whole list, by
    /// binary search.
    fn pair_key(&self, pair: &Pair) -> u128 {
        let (gi_o, gi_n) = self.graphs_of(pair);
        (u128::from(gi_o) << 96)
            | (u128::from(gi_n) << 64)
            | (u128::from(pair.0) << 32)
            | u128::from(pair.1)
    }

    /// The similarity of the match pair `(o, n)` in `pairs`, a
    /// household-ordered list or one run of it.
    fn pair_sim(&self, pairs: &[Pair], o: RecordId, n: RecordId) -> Option<f64> {
        let (o, n) = self.positions(o, n)?;
        let key = self.pair_key(&(o, n, 0.0));
        let at = pairs
            .binary_search_by_key(&key, |p| self.pair_key(p))
            .ok()?;
        Some(pairs[at].2)
    }

    /// Record pairs of the two snapshots as positions, in the order given.
    fn positioned(&self, pairs: impl Iterator<Item = (RecordId, RecordId, f64)>) -> Vec<Pair> {
        pairs
            .filter_map(|(o, n, s)| {
                let (o, n) = self.positions(o, n)?;
                Some((o, n, s))
            })
            .collect()
    }

    /// Record pairs of the two snapshots as positions, in household-pair
    /// order.
    fn ordered(&self, pairs: impl Iterator<Item = (RecordId, RecordId, f64)>) -> Vec<Pair> {
        // each pair is keyed once, so the sort compares keys only
        let mut keyed: Vec<(u128, Pair)> = self
            .positioned(pairs)
            .into_iter()
            .map(|pair| (self.pair_key(&pair), pair))
            .collect();
        // keys are unique: they end in the positions
        keyed.sort_unstable_by_key(|&(key, _)| key);
        keyed.into_iter().map(|(_, pair)| pair).collect()
    }

    /// [`Linker::ordered`] over the pairs `pc` selects at `delta`, every
    /// one a pair of this linker's records: each cache chunk is keyed and
    /// sorted as a task on the pool (see [`sort_chunks_by_key`]).
    fn ordered_selection(
        &self,
        pc: &PairScoreCache,
        delta: f64,
        par: Parallelism,
        obs: &Collector,
    ) -> Vec<Pair> {
        sort_chunks_by_key(
            pc.chunk_count(),
            par.threads,
            obs,
            |c| pc.count_in(c, delta),
            |c| {
                pc.select_in(c, delta).map(|(o, n, s)| {
                    let (o, n) = self
                        .positions(o, n)
                        .expect("the cache holds pairs of the linker's records");
                    (self.pair_key(&(o, n, s)), (o, n, s))
                })
            },
        )
    }

    /// The pre-matching of one δ step: its `matches` and the `anchors`,
    /// both in household-pair order, merged into one such list and
    /// clustered over the two snapshots' positions. An anchor is a
    /// confirmed link with similarity 1.0; its records left the residue,
    /// so no match touches them and each anchor is a two-record cluster.
    fn step_prematch(&self, matches: &[Pair], anchors: &[Pair]) -> PreMatch {
        let pairs = merge_by_key(matches, anchors, |p| self.pair_key(p));
        build_prematch(self.old.records().len(), self.new.records().len(), pairs)
    }

    /// Match and score the household candidates of `pm`: each run of its
    /// household-ordered pairs whose records sit in enriched graphs. The
    /// runs split into [`TASKS`] contiguous chunks on the worker pool,
    /// each worker reusing one matcher scratch across its chunks. The
    /// result follows candidate order, so runs stay deterministic.
    ///
    /// A candidate joined by one direct pair `(o, n)` is scored in
    /// closed form: the matcher only admits direct pairs as vertices, so
    /// its subgraph is `{(o, n)}` when the two labels agree and empty
    /// otherwise, and one vertex has no edge. Any other candidate is
    /// matched into a reused scratch buffer and scored there, its direct
    /// pairs and their similarities read from its run. Only a candidate
    /// that clears `min_g_sim` is materialised as a [`ScoredSubgroup`].
    /// Selection skips a below-floor candidate without claiming a record,
    /// so leaving it out changes no acceptance and no tie-break among the
    /// rest. With `audit` set, a [`BelowFloor`] record keeps what its
    /// rejection reports, in candidate-list order.
    #[allow(clippy::too_many_arguments)] // internal plumbing of run_traced
    fn score_candidates(
        &self,
        pm: &PreMatch,
        config: &LinkageConfig,
        par: Parallelism,
        delta: f64,
        iteration: usize,
        audit: bool,
        obs: &Collector,
    ) -> ScoredCandidates {
        let traced = obs.is_enabled();
        let pairs = pm.pairs.as_slice();
        let same_candidate = |a: &Pair, b: &Pair| self.graphs_of(a) == self.graphs_of(b);
        let label_old = |r: RecordId| Some(u64::from(pm.label_old[self.old_pos.get(r)? as usize]));
        let label_new = |r: RecordId| Some(u64::from(pm.label_new[self.new_pos.get(r)? as usize]));
        let label_size = |r: RecordId| {
            self.old_pos
                .get(r)
                .map_or(0, |p| pm.size_of_label(pm.label_old[p as usize]))
        };
        // `at` is where `chunk` starts in `pairs`
        let score_chunk = |chunk: &[Pair], mut at: usize, scratch: &mut SubgraphScratch| {
            let mut out = ScoredCandidates::default();
            for run in chunk.chunk_by(same_candidate) {
                let span = at..at + run.len();
                at = span.end;
                let (gi_o, gi_n) = self.graphs_of(&run[0]);
                let (Some(old_g), Some(new_g)) = (
                    self.old_graphs.get(gi_o as usize),
                    self.new_graphs.get(gi_n as usize),
                ) else {
                    continue;
                };
                let (matched, score) = if let &[(o, n, sim)] = run {
                    let label = pm.label_old[o as usize];
                    if pm.label_new[n as usize] != label {
                        continue;
                    }
                    let edge_denom = old_g.edge_count() + new_g.edge_count();
                    let score = score_single_pair(sim, pm.size_of_label(label), edge_denom);
                    (None, score)
                } else {
                    let sim = |o: RecordId, n: RecordId| self.pair_sim(run, o, n);
                    let sub = match_subgraph_with(
                        old_g,
                        new_g,
                        label_old,
                        label_new,
                        |o, n| sim(o, n).is_some(),
                        &config.subgraph,
                        scratch,
                    );
                    if sub.is_empty() {
                        continue;
                    }
                    (Some(sub), score_subgraph(sub, sim, label_size, delta))
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
                            vertices: vec![(
                                self.old.records()[run[0].0 as usize].id,
                                self.new.records()[run[0].1 as usize].id,
                            )],
                            degrees: vec![0],
                            edge_sim_sum: std::iter::empty::<f64>().sum(),
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
                        run: span,
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
        // every run, and the candidates among them: runs whose records
        // sit in enriched graphs
        let (mut all_runs, mut candidates) = (0usize, 0u64);
        for run in pairs.chunk_by(same_candidate) {
            let (gi_o, gi_n) = self.graphs_of(&run[0]);
            all_runs += 1;
            if (gi_o as usize) < self.old_graphs.len() && (gi_n as usize) < self.new_graphs.len() {
                candidates += 1;
            }
        }
        obs.add(Counter::SubgraphPairsScored, candidates);
        // [`TASKS`] chunks of whole runs, each scored by a pool worker
        // with its own scratch; chunks are concatenated in list order, so
        // the output is the list order regardless of completion order
        let per_task = all_runs.div_ceil(TASKS).max(1);
        let mut chunks: Vec<(usize, usize)> = Vec::new();
        let (mut start, mut end, mut runs) = (0, 0, 0);
        for run in pairs.chunk_by(same_candidate) {
            end += run.len();
            runs += 1;
            if runs == per_task {
                chunks.push((start, end));
                (start, runs) = (end, 0);
            }
        }
        if runs > 0 {
            chunks.push((start, end));
        }
        let (results, scratches) = run_pool_with(
            chunks.len(),
            par.threads,
            obs,
            |ci, worker, scratch: &mut SubgraphScratch| {
                let t0 = obs.timeline_start();
                let (from, to) = chunks[ci];
                let scored = score_chunk(&pairs[from..to], from, scratch);
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
            },
        );
        if traced {
            let fp = scratches
                .iter()
                .fold(Footprint::default(), |acc, s| acc.plus(s.footprint()));
            obs.snapshot_footprint("subgraph_scratch", fp);
        }
        let mut scored = ScoredCandidates::default();
        for part in results {
            scored.append(part);
        }
        obs.add(Counter::GroupCandidates, scored.non_empty as u64);
        obs.observe_hist(LiveHist::SubgraphSize, &scored.sizes);
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
    /// Each δ step makes the pair-score cache cover δ, then selects its
    /// match pairs from it. The first step scores every blocked pair
    /// once, at the schedule floor, and that cache serves every later
    /// step and the remainder pass; after each step it is compacted to
    /// the residue, and after the first also sorted into household-pair
    /// order, so a later step's work follows the residue. A run whose
    /// memory governor refuses the floor cache scores each step's
    /// residue at its own δ instead, bit-identically. The step's match
    /// pairs and the confirmed links (as anchors) form one
    /// household-ordered pair list, which the subgraph phase reads run
    /// by run.
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

        let mut remaining_old: Vec<&PersonRecord> = self.old.records().iter().collect();
        let mut remaining_new: Vec<&PersonRecord> = self.new.records().iter().collect();
        let mut records = RecordMapping::new();
        let mut groups = GroupMapping::new();
        let mut iterations = Vec::new();
        let mut provenance = HashMap::new();
        // every confirmed link as a similarity-1.0 pair over positions, in
        // household-pair order: later steps see each as a matched
        // two-record cluster
        let mut anchors: Vec<Pair> = Vec::new();
        // the positions confirmed links took out of the residue
        let mut old_linked = vec![false; self.old.records().len()];
        let mut new_linked = vec![false; self.new.records().len()];

        // attribute values are δ-independent: intern each distinct value
        // and each record's value-id row once, and reuse them (and the
        // arenas over the values) across the whole schedule and the
        // remainder pass, whose specs usually coincide
        let mut cache = ProfileCache::new();
        // so is agg_sim itself: every blocked pair is scored once
        // against the schedule floor, and later iterations only select
        // from the cached scores
        let mut pair_cache: Option<PairScoreCache> = None;
        // score the cache at the exact bound the loop's break condition
        // uses: float-stepped deltas can land marginally below δ_low, so
        // a cache scored at δ_low exactly could miss their pairs
        let floor = (config.delta_low - 1e-9).max(0.0);

        let mut delta = config.delta_high;
        let mut iter_idx = 0usize;
        loop {
            let _iter = obs.iter_span(ITERATION_SPAN, iter_idx, Some(delta));
            let served = pair_cache.is_some();
            let pm = {
                let _prematch = obs.span("prematch");
                if !served {
                    // only the first step tries the floor; a refused floor
                    // cache leaves the run scoring step by step
                    let sim =
                        config
                            .sim_func
                            .with_threshold(if iter_idx == 0 { floor } else { delta });
                    let (blocker, values) = pass_head(
                        &mut cache,
                        &sim,
                        &remaining_old,
                        &remaining_new,
                        year_gap,
                        config.blocking,
                        config.prematch_max_age_gap,
                        par,
                        obs,
                    );
                    let unlimited = MemGovernor::unlimited();
                    let governor = if iter_idx == 0 { &mem } else { &unlimited };
                    pair_cache = PairScoreCache::build(&blocker, &values, &sim, par, governor, obs);
                    drop(values);
                    if pair_cache.is_none() {
                        // the buckets do not depend on the threshold, so
                        // the refused pass's blocker serves this one
                        let at_delta = config.sim_func.with_threshold(delta);
                        let values = obs.driver(DriverSection::Intern, None, || {
                            cache.rows(&at_delta, &remaining_old, &remaining_new, par.threads, obs)
                        });
                        pair_cache = PairScoreCache::build(
                            &blocker, &values, &at_delta, par, &unlimited, obs,
                        );
                    }
                }
                let pc = pair_cache
                    .as_ref()
                    .expect("a cache built without a limit is never refused");
                let matches = if served {
                    // compacted to the residue and in household-pair
                    // order since the first step
                    let matches = self.positioned(pc.select(delta));
                    obs.add(Counter::PairCacheHits, matches.len() as u64);
                    obs.add(
                        Counter::PairCacheFiltered,
                        (pc.len() - matches.len()) as u64,
                    );
                    matches
                } else {
                    obs.driver(DriverSection::Order, Some(iter_idx), || {
                        self.ordered_selection(pc, delta, par, obs)
                    })
                };
                if obs.is_enabled() {
                    if pc.floor() <= floor {
                        obs.snapshot_footprint("pair_score_cache", pc.footprint());
                    }
                    obs.snapshot_footprint("profile_cache", cache.footprint());
                }
                obs.driver(DriverSection::Cluster, Some(iter_idx), || {
                    self.step_prematch(&matches, &anchors)
                })
            };

            // decision records are the run's one audit stream, read by the
            // decision log and the quality funnel; scoring and
            // `select_and_extract` are audit-neutral, so the mappings stay
            // bit-identical
            let audit = obs.audit_enabled();
            let mut scored = {
                let _subgraph = obs.span("subgraph");
                // candidate group pairs: households connected by ≥1 match
                // pair, in graph order (deterministic)
                self.score_candidates(&pm, config, par, delta, iter_idx, audit, obs)
            };
            let candidates = &scored.kept;

            let _selection = obs.span("selection");
            let records_before = records.len();
            let groups_before = groups.len();
            let outcome = select_and_extract(
                candidates,
                |c, o, n| self.pair_sim(&pm.pairs[c.run.clone()], o, n),
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
                // below-floor candidates are logged after every kept one,
                // in the order selection would consider them; the quality
                // funnel keeps the latest rejection per household pair, so
                // it needs no order
                scored.below_floor.sort_by(|a, b| {
                    consideration_order((a.g_sim, a.old, a.new), (b.g_sim, b.old, b.new))
                });
            }
            if audit {
                emit_group_decisions(config, delta, iter_idx, &scored, &outcome, obs);
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

            // a cache scored at this step's δ covers nothing below it;
            // one scored at the floor serves the later steps and the
            // remainder pass
            if pair_cache.as_ref().is_some_and(|pc| pc.floor() > floor) {
                pair_cache = None;
            }
            if record_links > 0 {
                let linked = self.ordered(outcome.added.iter().map(|&(o, n, _)| (o, n, 1.0)));
                for &(o, n, _) in &linked {
                    old_linked[o as usize] = true;
                    new_linked[n as usize] = true;
                }
                anchors = merge_by_key(&anchors, &linked, |p| self.pair_key(p));
                let live_old =
                    |r: RecordId| self.old_pos.get(r).is_none_or(|p| !old_linked[p as usize]);
                let live_new =
                    |r: RecordId| self.new_pos.get(r).is_none_or(|p| !new_linked[p as usize]);
                remaining_old.retain(|r| live_old(r.id));
                remaining_new.retain(|r| live_new(r.id));
                if let Some(pc) = &mut pair_cache {
                    pc.compact(live_old, live_new, par.threads, obs);
                }
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
            if !served {
                if let Some(pc) = &mut pair_cache {
                    // once, so every later selection reads runs unsorted
                    obs.driver(DriverSection::Order, Some(iter_idx), || {
                        let key = |o, n| {
                            self.positions(o, n)
                                .map_or(u128::MAX, |(o, n)| self.pair_key(&(o, n, 0.0)))
                        };
                        pc.order_by(key, par.threads, obs);
                    });
                }
            }
        }

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
        }
        obs.add(Counter::ProfilesBuilt, cache.built() as u64);
        obs.add(Counter::ProfilesReused, cache.reused() as u64);

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

    /// Score every household candidate of `pm` (a linker-form
    /// pre-matching over snapshot positions) with the full matcher
    /// (`match_subgraph` + `score_subgraph`) pair at a time, with no runs
    /// and no closed form: `kept` and `below_floor` sorted by household
    /// pair.
    fn full_matcher_oracle(
        linker: &Linker,
        pm: &PreMatch,
        config: &LinkageConfig,
        delta: f64,
    ) -> ScoredCandidates {
        let (olds, news) = (linker.old.records(), linker.new.records());
        let sims: HashMap<(RecordId, RecordId), f64> = pm
            .pairs
            .iter()
            .map(|&(o, n, s)| ((olds[o as usize].id, news[n as usize].id), s))
            .collect();
        let label = |recs: &[PersonRecord], labels: &[u32]| -> HashMap<RecordId, u64> {
            recs.iter()
                .zip(labels)
                .map(|(r, &l)| (r.id, u64::from(l)))
                .collect()
        };
        let (label_old, label_new) = (label(olds, &pm.label_old), label(news, &pm.label_new));
        fn graph(graphs: &[EnrichedGraph], h: HouseholdId) -> &EnrichedGraph {
            graphs.iter().find(|g| g.household == h).unwrap()
        }
        let mut households: Vec<(HouseholdId, HouseholdId)> = sims
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
                graph(&linker.old_graphs, old),
                graph(&linker.new_graphs, new),
                |r| label_old.get(&r).copied(),
                |r| label_new.get(&r).copied(),
                |o, n| sims.contains_key(&(o, n)),
                &config.subgraph,
            );
            if sub.is_empty() {
                continue;
            }
            out.non_empty += 1;
            out.sizes.record(sub.vertices.len() as u64);
            let score = score_subgraph(
                &sub,
                |o, n| sims.get(&(o, n)).copied(),
                |o| pm.size_of_label(label_old[&o] as u32),
                delta,
            );
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
                    run: 0..0,
                });
            }
        }
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
            assert_eq!(g.sub.degrees, w.sub.degrees, "{at}: degrees");
            assert_eq!(
                g.sub.edge_sim_sum.to_bits(),
                w.sub.edge_sim_sum.to_bits(),
                "{at}: Eq. 6 sum"
            );
            assert_eq!(
                (g.sub.old_edge_count, g.sub.new_edge_count),
                (w.sub.old_edge_count, w.sub.new_edge_count),
                "{at}: edge counts"
            );
        }
        // the scorer leaves them in candidate-list order; only the
        // decision log needs consideration order
        let floor = |c: &ScoredCandidates| -> Vec<_> {
            let mut v: Vec<_> = c
                .below_floor
                .iter()
                .map(|b| (b.old, b.new, b.g_sim.to_bits(), b.subgraph_size))
                .collect();
            v.sort_unstable();
            v
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
        let (mut single, mut multi, mut below) = (0, 0, 0);
        let mut delta = config.delta_high;
        for iteration in 0.. {
            let fresh = crate::prematch_cached(
                &remaining_old,
                &remaining_new,
                &mut ProfileCache::new(),
                year_gap,
                &config.sim_func.with_threshold(delta),
                config.blocking,
                config.parallelism(),
                config.prematch_max_age_gap,
                &Collector::disabled(),
            );
            let matches = linker.ordered(fresh.pairs.iter().map(|&(i, j, s)| {
                (
                    remaining_old[i as usize].id,
                    remaining_new[j as usize].id,
                    s,
                )
            }));
            let anchors = linker.ordered(records.iter().map(|(o, n)| (o, n, 1.0)));
            let pm = linker.step_prematch(&matches, &anchors);
            let scored = linker.score_candidates(
                &pm,
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
            // every vertex's similarity is found in its candidate's run
            for c in &scored.kept {
                for &(o, n) in &c.sub.vertices {
                    let sim = linker.pair_sim(&pm.pairs[c.run.clone()], o, n);
                    assert_eq!(sim, linker.pair_sim(&pm.pairs, o, n), "{o}->{n}");
                    assert!(sim.is_some(), "iteration {iteration}: {o}->{n}");
                }
            }
            let outcome = select_and_extract(
                &scored.kept,
                |c, o, n| linker.pair_sim(&pm.pairs[c.run.clone()], o, n),
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
            for threads in [1, 4] {
                let config = LinkageConfig {
                    threads,
                    min_g_sim,
                    ..LinkageConfig::default()
                };
                for (ids, (o, n)) in [("dense", (old, new)), ("offset", (&old_off, &new_off))] {
                    let at = format!("{threads} threads/{ids}/min_g_sim {min_g_sim}");
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
        let fresh = crate::prematch_cached(
            &old_refs,
            &new_refs,
            &mut ProfileCache::new(),
            i64::from(new.year - old.year),
            &config.sim_func.with_threshold(delta),
            config.blocking,
            config.parallelism(),
            config.prematch_max_age_gap,
            &Collector::disabled(),
        );
        // the full slices, so residue positions are snapshot positions
        let mut matches = fresh.pairs;
        matches.sort_unstable_by_key(|p| linker.pair_key(p));
        let mut pm = linker.step_prematch(&matches, &[]);
        let before = full_matcher_oracle(&linker, &pm, &config, delta).non_empty;
        for &(_, n, _) in &matches {
            if new_refs[n as usize].id.raw().is_multiple_of(2) {
                // a label no union-find root takes, of unknown size
                pm.label_new[n as usize] = u32::MAX - n;
            }
        }
        let want = full_matcher_oracle(&linker, &pm, &config, delta);
        assert!(want.non_empty < before, "{} vs {before}", want.non_empty);
        let got = linker.score_candidates(
            &pm,
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
    fn anchors_form_two_record_clusters() {
        let series = generate_series(&SimConfig::small());
        let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
        let linker = Linker::new(old, new);
        let (olds, news) = (old.records(), new.records());
        // two confirmed links, and one match pair between unlinked records
        let links = [(olds[3].id, news[5].id), (olds[1].id, news[0].id)];
        let anchors = linker.ordered(links.iter().map(|&(o, n)| (o, n, 1.0)));
        let matches = linker.ordered([(olds[2].id, news[2].id, 0.8)].into_iter());
        let pm = linker.step_prematch(&matches, &anchors);
        assert_eq!(pm.match_count(), 3);
        for (o, n) in links {
            let (po, pn) = linker.positions(o, n).unwrap();
            let label = pm.label_old[po as usize];
            assert_eq!(pm.label_new[pn as usize], label, "{o}->{n} split");
            assert_eq!(pm.size_of_label(label), 2, "{o}->{n}");
            assert_eq!(linker.pair_sim(&pm.pairs, o, n), Some(1.0));
        }
        // every anchor is its own cluster
        let labels: std::collections::HashSet<u32> = links
            .iter()
            .map(|&(o, n)| pm.label_old[linker.positions(o, n).unwrap().0 as usize])
            .collect();
        assert_eq!(labels.len(), links.len());
        assert_eq!(
            linker.pair_sim(&pm.pairs, olds[2].id, news[2].id),
            Some(0.8)
        );
        // the merged list is in household-pair order
        assert!(pm
            .pairs
            .windows(2)
            .all(|w| linker.pair_key(&w[0]) < linker.pair_key(&w[1])));
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
