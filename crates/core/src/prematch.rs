//! Pre-matching (§3.2): attribute-based matching and clustering of the
//! records of two censuses.
//!
//! Candidate pairs from the blocking layer are scored with the weighted
//! attribute similarity (Eq. 3); pairs at or above δ become match pairs;
//! the connected components of the match pairs become clusters, and every
//! record is assigned its cluster label. Blocking and scoring are one
//! pass ([`score_blocked`]): rows of blocked pairs stream into the row
//! kernel, split by old-record range on a small work-stealing pool
//! ([`run_pool`]), and only the matches are kept.

use crate::blocking::{BlockRow, Blocker, BlockingStrategy};
use crate::cluster::UnionFind;
use crate::config::Parallelism;
use crate::mem::MemGovernor;
use crate::profiles::{ProfileCache, ValueRows};
use crate::simfunc::{CompiledProfile, SimFunc};
use census_model::PersonRecord;
use obs::{Collector, Counter, DriverSection, EventKind, Footprint};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use textsim::{MultisetArena, RowScratch};

/// Heap footprint of the row kernel's arenas (packed bytes and laid-out
/// values) plus the value-pair memos of `workers` pool workers, reported
/// as the `value_arenas` memory row.
fn arena_footprint(arenas: &[MultisetArena], workers: usize) -> Footprint {
    let cells = (workers * arenas.iter().map(MultisetArena::len).sum::<usize>()) as u64;
    let memo = Footprint::new(cells * std::mem::size_of::<MemoCell>() as u64, cells);
    arenas.iter().fold(memo, |acc, a| {
        acc.plus(Footprint::new(a.heap_bytes(), a.len() as u64))
    })
}

/// Tasks per scoring pass: every pass cuts its work into this many
/// contiguous tasks (fewer only when there are fewer items), whatever the
/// thread count. Per-task state such as the value-pair memo then depends
/// on the input alone, so counters agree at every thread count, and the
/// tasks are small enough that a giant block in one of them does not
/// leave the other workers idle. A pass runs on at most this many
/// workers.
pub(crate) const TASKS: usize = 16;

/// Telemetry of one scoring pass.
#[derive(Default)]
struct BatchStats {
    /// Work items requested: pairs × the attributes scored before the
    /// early exit — the probe set of `SimFunc::matches_compiled`.
    probes: u64,
    /// Arena computations actually made: probes the value-pair memo
    /// could not serve — `1 − unique/probes` is the kernel's reuse.
    unique: u64,
    /// Early-exit prune tally.
    prunes: u64,
}

impl BatchStats {
    fn merge(&mut self, other: &Self) {
        self.probes += other.probes;
        self.unique += other.unique;
        self.prunes += other.prunes;
    }
}

/// One memo cell for new value id `b`: the old value id `a` it was last
/// computed against (`None` before the first) and `sim(a, b)`.
type MemoCell = (Option<u32>, f64);

/// The row kernel's per-worker state: one value-pair memo per spec, one
/// arena row scratch per spec (so each spec keeps its old value loaded
/// over the row), and the per-pair spec-sim stash the survivor fold
/// reads.
#[derive(Default)]
struct Memo {
    cells: Vec<Vec<MemoCell>>,
    rows: Vec<RowScratch>,
    sims: Vec<f64>,
}

impl Memo {
    /// Empty every cell for a new task: one per value id of each spec's
    /// arena.
    fn reset(&mut self, arenas: &[MultisetArena]) {
        self.cells.resize_with(arenas.len(), Vec::new);
        for (cells, arena) in self.cells.iter_mut().zip(arenas) {
            cells.clear();
            cells.resize(arena.len(), (None, 0.0));
        }
        self.rows.resize_with(arenas.len(), RowScratch::default);
        self.sims.resize(arenas.len(), 0.0);
    }
}

/// A pool worker's scratch, reused across its tasks: the blocked row
/// and the kernel's memo.
#[derive(Default)]
struct Scratch {
    row: BlockRow,
    memo: Memo,
}

/// The read-only inputs of the row kernel, shared by every task of a
/// pass: the similarity function and the residue's value-id rows with
/// the arenas they index.
struct Kernel<'k> {
    sim: &'k SimFunc,
    values: &'k ValueRows<'k>,
}

impl Kernel<'_> {
    /// The row kernel: score old record `i` against its blocked `row`
    /// and append the survivors to `out`.
    ///
    /// Each pair is scored attribute by attribute in descending-weight
    /// order (`SimFunc::spec_order`) and dropped at the first failing
    /// early-exit bound (`SimFunc::bound_fails_after`); survivors fold in
    /// original spec order (`SimFunc::fold_survivor`). That is the loop
    /// of `SimFunc::matches_compiled_counted`, so decisions, scores,
    /// probes and prune counts are bit-identical to it. Only where a
    /// similarity comes from changes: the cell of the new value id in
    /// the spec's memo serves it when tagged with the row's old value
    /// id, and otherwise [`MultisetArena::similarity_row`] computes it
    /// and overwrites the cell.
    fn score_row(
        &self,
        i: u32,
        row: &[u32],
        memo: &mut Memo,
        stats: &mut BatchStats,
        out: &mut Vec<(u32, u32, f64)>,
    ) {
        let (sim, n_specs) = (self.sim, self.values.n_specs);
        let order = sim.spec_order();
        let old = &self.values.old[i as usize * n_specs..][..n_specs];
        'pairs: for &j in row {
            let new = &self.values.new[j as usize * n_specs..][..n_specs];
            let mut partial = 0.0;
            for (k, &spec) in order.iter().enumerate() {
                stats.probes += 1;
                let (a, b) = (old[spec], new[spec]);
                let cell = &mut memo.cells[spec][b as usize];
                let v = if cell.0 == Some(a) {
                    cell.1
                } else {
                    stats.unique += 1;
                    let v = self.values.arenas[spec].similarity_row(&mut memo.rows[spec], a, b);
                    *cell = (Some(a), v);
                    v
                };
                memo.sims[spec] = v;
                partial += sim.weight_of(spec) * v;
                if sim.bound_fails_after(partial, k) {
                    // a fail on the last attribute is the threshold
                    // decision itself, not an early exit —
                    // `matches_compiled` does not count it either
                    if k + 1 < order.len() {
                        stats.prunes += 1;
                    }
                    continue 'pairs;
                }
            }
            if let Some(s) = sim.fold_survivor(&memo.sims) {
                out.push((i, j, s));
            }
        }
    }
}

/// Whether a candidate pair is age-plausible: the new age must lie within
/// `tolerance` years of `old age + year_gap` (the paper's footnote 2:
/// pairs whose normalised age difference exceeds 3 years are never
/// accepted). Pairs with a missing age on either side pass.
pub(crate) fn age_plausible(
    old: &PersonRecord,
    new: &PersonRecord,
    year_gap: i64,
    tolerance: u32,
) -> bool {
    match (old.age, new.age) {
        (Some(a), Some(b)) => {
            let expected = i64::from(a) + year_gap;
            (i64::from(b) - expected).unsigned_abs() <= u64::from(tolerance)
        }
        _ => true,
    }
}

/// The pre-matching result over record positions: a cluster label per
/// record of each side, the size of every cluster, and every match pair
/// with its aggregated similarity.
#[derive(Debug, Clone, Default)]
pub struct PreMatch {
    /// Cluster label of each old record, by position in the old slice.
    /// Every record gets one; unmatched records form singleton clusters.
    /// Labels name union-find roots over the old positions followed by
    /// the new ones, so only their equality carries meaning.
    pub label_old: Vec<u32>,
    /// Cluster label of each new record, by position in the new slice.
    pub label_new: Vec<u32>,
    /// Number of records (both sides) per cluster, indexed by label.
    pub cluster_size: Vec<u32>,
    /// Every match pair as `(old position, new position, agg_sim)`, in
    /// the order it was clustered: blocked-pair order from a scoring
    /// pass, household-pair order in the linker's δ loop.
    pub pairs: Vec<(u32, u32, f64)>,
}

impl PreMatch {
    /// Number of match pairs.
    #[must_use]
    pub fn match_count(&self) -> usize {
        self.pairs.len()
    }

    /// The size of the cluster a label names (0 for unknown labels).
    #[must_use]
    pub fn size_of_label(&self, label: u32) -> u32 {
        self.cluster_size.get(label as usize).copied().unwrap_or(0)
    }
}

/// What one fused blocking-and-scoring pass produced. Nothing reaches
/// the collector until [`ScoredPass::report`], so an aborted pass
/// reports nothing and the caller decides when a finished one counts.
pub(crate) struct ScoredPass {
    /// The pass's timeline event: [`EventKind::PrematchTask`] for
    /// pre-matching (fresh or building the pair-score cache),
    /// [`EventKind::RemainderChunk`] for the remainder pass.
    kind: EventKind,
    /// Matched `(old index, new index, agg_sim)` triples per task, in
    /// task order: concatenated, they are in blocked-pair order.
    pub(crate) chunks: Vec<Vec<(u32, u32, f64)>>,
    /// Blocked pairs generated; every one was scored.
    blocked: u64,
    stats: BatchStats,
    /// The matched pairs' scores in basis points, when tracing: sampled
    /// by the tasks, so the driver does not walk the matches again.
    scores: obs::Histogram,
}

impl ScoredPass {
    /// Number of matched pairs.
    fn matched(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum()
    }

    /// Report the pass to `obs`. A pre-matching pass feeds the blocking,
    /// scoring, kernel and match counters; a remainder pass feeds the
    /// blocking and remainder-scoring counters. Both count their
    /// early-exit prunes and sample their match scores into the
    /// pair-score histogram.
    pub(crate) fn report(&self, obs: &Collector) {
        obs.add(Counter::BlockingPairsGenerated, self.blocked);
        if self.kind == EventKind::RemainderChunk {
            obs.add(Counter::RemainderPairsScored, self.blocked);
        } else {
            obs.add(Counter::PrematchPairsScored, self.blocked);
            obs.add(Counter::PairScoreBatchProbes, self.stats.probes);
            obs.add(Counter::PairScoreBatchedUnique, self.stats.unique);
            obs.add(Counter::PrematchPairsMatched, self.matched() as u64);
        }
        obs.add(Counter::EarlyExitPrunes, self.stats.prunes);
        if obs.is_enabled() {
            obs.observe_hist(obs::LiveHist::PairScore, &self.scores);
        }
    }
}

/// One scoring task's output: its matches, blocked pairs, kernel
/// tallies and, when tracing, its matches' score histogram.
#[derive(Default)]
struct TaskOut {
    matched: Vec<(u32, u32, f64)>,
    pairs: u64,
    stats: BatchStats,
    scores: obs::Histogram,
}

/// Block and score in one pass: each old record's row of blocked pairs
/// streams from `blocker` straight into the row kernel
/// ([`Kernel::score_row`]), and only the pairs reaching `sim`'s
/// threshold are kept, so the blocked-pair list never exists. Pair
/// order, scores, probes and prunes are those of scoring the collected
/// list pair by pair with `SimFunc::matches_compiled`. `values` holds
/// the value-id rows of the blocker's old and new records, in the
/// blocker's order, and the arenas those ids index: built once per run
/// by the `ProfileCache` table, so a pass interns and lays out nothing.
///
/// The old records split into [`TASKS`] contiguous tasks on
/// [`run_pool_with`]. Each worker keeps one scratch, value-pair memo
/// included, across its tasks, and empties the memo at the start of
/// each task. A task's arena computations therefore depend only on its
/// old-record range, so the pass's count is a function of the input
/// alone, the same at every thread count.
///
/// With `limit`, the pass returns `None` as soon as the blocked-pair
/// count, kept across tasks, passes the limit. The count only grows,
/// so the pass aborts exactly when the blocked pairs outnumber the
/// limit, whatever the task interleaving.
#[allow(clippy::too_many_arguments)] // the blocked inputs plus the run's knobs
pub(crate) fn score_blocked(
    blocker: &Blocker,
    values: &ValueRows,
    sim: &SimFunc,
    kind: EventKind,
    par: Parallelism,
    obs: &Collector,
    limit: Option<u64>,
) -> Option<ScoredPass> {
    let n = blocker.rows();
    let chunk = n.div_ceil(TASKS).max(1);
    let n_tasks = n.div_ceil(chunk);
    if obs.is_enabled() {
        let workers = par.threads.max(1).min(n_tasks);
        obs.snapshot_footprint("value_arenas", arena_footprint(values.arenas, workers));
    }
    let kernel = Kernel { sim, values };
    let blocked = AtomicU64::new(0);
    let run = |range: Range<usize>, scratch: &mut Scratch| -> Option<TaskOut> {
        let Scratch { row, memo } = scratch;
        memo.reset(values.arenas);
        let mut task = TaskOut::default();
        for i in range {
            blocker.row(i, row);
            if row.row.is_empty() {
                continue;
            }
            let len = row.row.len() as u64;
            task.pairs += len;
            // Relaxed: the count publishes no other data, and whether it
            // ever passes the limit does not depend on the interleaving
            if limit.is_some_and(|l| blocked.fetch_add(len, Ordering::Relaxed) + len > l) {
                return None;
            }
            kernel.score_row(i as u32, &row.row, memo, &mut task.stats, &mut task.matched);
        }
        task.matched.shrink_to_fit();
        if obs.is_enabled() {
            for &(_, _, s) in &task.matched {
                task.scores.record(obs::score_bp(s));
            }
        }
        Some(task)
    };
    // the remainder's timeline events carry their pair count, the
    // pre-matching tasks their task index
    let detail = |ci: usize, pairs: u64| {
        if kind == EventKind::RemainderChunk {
            pairs
        } else {
            ci as u64
        }
    };
    let (tasks, _) = run_pool_with(
        n_tasks,
        par.threads,
        obs,
        |ci, worker, scratch: &mut Scratch| {
            let t0 = obs.timeline_start();
            let task = run(ci * chunk..((ci + 1) * chunk).min(n), scratch);
            let pairs = task.as_ref().map_or(0, |t| t.pairs);
            if let Some(t0) = t0 {
                obs.timeline_task(worker, kind, detail(ci, pairs), None, t0);
            }
            task
        },
    );
    let mut pass = ScoredPass {
        kind,
        chunks: Vec::with_capacity(tasks.len()),
        blocked: 0,
        stats: BatchStats::default(),
        scores: obs::Histogram::new(),
    };
    for task in tasks {
        let task = task?;
        pass.blocked += task.pairs;
        pass.stats.merge(&task.stats);
        pass.scores.merge(&task.scores);
        pass.chunks.push(task.matched);
    }
    Some(pass)
}

/// [`run_pool`] with one scratch `S` per worker, reused across the
/// tasks that worker claims: `f` receives `(task index, worker index,
/// scratch)`. Returns the results in task order and the workers'
/// scratches. A task must leave nothing in its scratch that changes a
/// later task's result.
pub(crate) fn run_pool_with<S, T, F>(
    n: usize,
    threads: usize,
    obs: &Collector,
    f: F,
) -> (Vec<T>, Vec<S>)
where
    S: Default + Send,
    T: Send,
    F: Fn(usize, usize, &mut S) -> T + Sync,
{
    let workers = threads.max(1).min(n.max(1));
    let scratches: Vec<Mutex<S>> = (0..workers).map(|_| Mutex::default()).collect();
    // a worker only ever locks its own scratch, so the locks are
    // uncontended; a task that panics holding one ends its worker, and
    // the pool re-raises that panic before any scratch is read again
    const POISONED: &str = "a panicked task's scratch is never read again";
    let results = run_pool(n, workers, obs, |i, w| {
        f(i, w, &mut scratches[w].lock().expect(POISONED))
    });
    let scratches = scratches
        .into_iter()
        .map(|m| m.into_inner().expect(POISONED))
        .collect();
    (results, scratches)
}

/// Run `n` tasks on a work-stealing pool of at most `threads` workers
/// and return the results **in task order**, independent of completion
/// order. With one worker (or one task) this degenerates to a plain
/// serial loop.
///
/// `f` receives `(task index, worker index)`; the worker index is the
/// spawn order of the claiming pool thread (0 on the serial path), a
/// stable identity for timeline and chunk attribution. When the
/// collector is enabled the pool also reports the gap between
/// a worker finishing one task and claiming the next as a
/// [`EventKind::QueueWait`] event (zero-length gaps are elided).
pub(crate) fn run_pool<T, F>(n: usize, threads: usize, obs: &Collector, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
{
    let workers = threads.max(1).min(n.max(1));
    if workers <= 1 {
        return (0..n).map(|i| f(i, 0)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, T)> = crossbeam::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let next = &next;
                let f = &f;
                scope.spawn(move |_| {
                    let mut done: Vec<(usize, T)> = Vec::new();
                    let mut last_end: Option<Instant> = None;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        if let Some(prev) = last_end.take() {
                            obs.timeline_gap(w, prev, i as u64);
                        }
                        done.push((i, f(i, w)));
                        if obs.is_enabled() {
                            last_end = Some(Instant::now());
                        }
                    }
                    // the thread's unpublished allocation counts would
                    // otherwise die with it
                    obs::alloc::flush_thread();
                    done
                })
            })
            .collect();
        // a worker's panic is re-raised here with its own payload, and
        // the scope hands it back the same way
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
    .unwrap_or_else(|p| std::panic::resume_unwind(p));
    // the shared counter hands out each task index once, so sorting the
    // workers' results by index restores task order
    done.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(done.len(), n);
    done.into_iter().map(|(_, t)| t).collect()
}

/// Run `a` and `b` concurrently when `threads` allows more than one, `a`
/// on a scoped thread of its own and `b` on the calling one; with one
/// thread, `a` then `b` on the calling thread. A panic in either is
/// re-raised with its own payload.
pub(crate) fn join<A, B>(
    threads: usize,
    a: impl FnOnce() -> A + Send,
    b: impl FnOnce() -> B,
) -> (A, B)
where
    A: Send,
{
    if threads <= 1 {
        let a = a();
        return (a, b());
    }
    std::thread::scope(|scope| {
        let a = scope.spawn(|| {
            let out = a();
            // the thread's unpublished allocation counts would otherwise
            // die with it
            obs::alloc::flush_thread();
            out
        });
        let b = b();
        let a = a.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
        (a, b)
    })
}

/// The head of a scoring pass, its two halves run concurrently (see
/// [`join`]): the blocker over `old × new`, whose `Standard` buckets are
/// built here, and the records' value-id rows from the run's `profiles`
/// table, interned spec by spec on the pool. Each half is a driver
/// section on the timeline.
#[allow(clippy::too_many_arguments)] // the blocker's inputs plus the table's
pub(crate) fn pass_head<'c, 'r>(
    profiles: &'c mut ProfileCache,
    sim: &SimFunc,
    old: &'r [&'r PersonRecord],
    new: &'r [&'r PersonRecord],
    year_gap: i64,
    strategy: BlockingStrategy,
    tolerance: Option<u32>,
    par: Parallelism,
    obs: &Collector,
) -> (Blocker<'r>, ValueRows<'c>) {
    join(
        par.threads,
        || {
            obs.driver(DriverSection::Buckets, None, || {
                Blocker::new(old, new, year_gap, strategy, tolerance)
            })
        },
        || {
            obs.driver(DriverSection::Intern, None, || {
                profiles.rows(sim, old, new, par.threads, obs)
            })
        },
    )
}

/// [`prematch_cached`] over profiles the caller already compiled.
/// `old_profiles[i]` must be `sim.compile(old[i])` — same specs, same
/// order — and likewise for the new side. Values come from a fresh
/// [`ProfileCache`], which interns and compiles exactly what those
/// profiles hold, so the profiles themselves are not read: the result
/// and every counter equal [`prematch_cached`]'s. Pair/prune counters
/// and one timeline event per scoring task are reported to `obs` (pass
/// [`Collector::disabled`] when not tracing). `_mem` is ignored: a fresh
/// pass holds no budget-gated structure.
#[allow(clippy::too_many_arguments)] // prematch's inputs plus the profile slices
#[must_use]
pub fn prematch_with_profiles(
    old: &[&PersonRecord],
    new: &[&PersonRecord],
    old_profiles: &[&CompiledProfile],
    new_profiles: &[&CompiledProfile],
    year_gap: i64,
    sim: &SimFunc,
    strategy: BlockingStrategy,
    par: Parallelism,
    max_age_gap: Option<u32>,
    _mem: &MemGovernor,
    obs: &Collector,
) -> PreMatch {
    debug_assert_eq!(old.len(), old_profiles.len());
    debug_assert_eq!(new.len(), new_profiles.len());
    prematch_cached(
        old,
        new,
        &mut ProfileCache::new(),
        year_gap,
        sim,
        strategy,
        par,
        max_age_gap,
        obs,
    )
}

/// Run pre-matching over two record sets, with the records' values
/// served by a run-wide [`ProfileCache`]: records it has seen under
/// `sim`'s specs reuse their value-id rows, and no value is normalised or
/// compiled twice. This is the iterative driver's fresh pass.
///
/// `year_gap` is `new.year - old.year` (used by the blocking age bands
/// and the age-plausibility filter). `max_age_gap` rejects candidate
/// pairs whose normalised age difference exceeds the tolerance — the
/// paper's footnote 2 guarantee; `None` disables the filter. Pair/prune
/// counters and one timeline event per scoring task are reported to
/// `obs` (pass [`Collector::disabled`] when not tracing).
#[allow(clippy::too_many_arguments)] // prematch's inputs plus the cache
#[must_use]
pub fn prematch_cached(
    old: &[&PersonRecord],
    new: &[&PersonRecord],
    profiles: &mut ProfileCache,
    year_gap: i64,
    sim: &SimFunc,
    strategy: BlockingStrategy,
    par: Parallelism,
    max_age_gap: Option<u32>,
    obs: &Collector,
) -> PreMatch {
    // the age-plausibility filter is fused into pair emission, so
    // implausible pairs are never generated or scored
    let (blocker, values) = pass_head(
        profiles,
        sim,
        old,
        new,
        year_gap,
        strategy,
        max_age_gap,
        par,
        obs,
    );
    let pass = score_blocked(
        &blocker,
        &values,
        sim,
        EventKind::PrematchTask,
        par,
        obs,
        None,
    )
    // only a pass given a limit can abort
    .expect("a pass without a limit never aborts");
    pass.report(obs);
    let pairs = pass.chunks.concat();
    obs.driver(DriverSection::Cluster, None, || {
        build_prematch(old.len(), new.len(), pairs)
    })
}

/// Cluster `pairs`, `(old position, new position, agg_sim)` match pairs
/// over `n_old` old and `n_new` new records, into a [`PreMatch`]: the
/// transitive closure of the match graph labels every record (unmatched
/// records form singleton clusters) and sizes every cluster. The pairs
/// are kept in the order given. That order decides which root names a
/// cluster, never which records share one.
pub(crate) fn build_prematch(n_old: usize, n_new: usize, pairs: Vec<(u32, u32, f64)>) -> PreMatch {
    // positions 0..n_old are old records, n_old.. new ones
    let mut uf = UnionFind::new(n_old + n_new);
    for &(i, j, _) in &pairs {
        uf.union(i as usize, n_old + j as usize);
    }
    let mut label_old: Vec<u32> = (0..n_old + n_new).map(|x| uf.find(x) as u32).collect();
    let label_new = label_old.split_off(n_old);
    let mut cluster_size = vec![0u32; n_old + n_new];
    for &label in label_old.iter().chain(&label_new) {
        cluster_size[label as usize] += 1;
    }
    PreMatch {
        label_old,
        label_new,
        cluster_size,
        pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use census_model::{HouseholdId, RecordId, Role, Sex};
    use std::collections::HashMap;

    /// One untraced pre-matching pass over a fresh value table.
    fn prematch(
        old: &[&PersonRecord],
        new: &[&PersonRecord],
        year_gap: i64,
        sim: &SimFunc,
        strategy: BlockingStrategy,
        threads: usize,
        max_age_gap: Option<u32>,
    ) -> PreMatch {
        prematch_cached(
            old,
            new,
            &mut ProfileCache::new(),
            year_gap,
            sim,
            strategy,
            Parallelism {
                threads,
                ..Parallelism::default()
            },
            max_age_gap,
            &Collector::disabled(),
        )
    }

    fn rec(id: u64, fname: &str, sname: &str, sex: Sex, age: u32) -> PersonRecord {
        let mut r = PersonRecord::empty(RecordId(id), HouseholdId(0), Role::Head);
        r.first_name = fname.into();
        r.surname = sname.into();
        r.sex = Some(sex);
        r.age = Some(age);
        r.address = "mill lane".into();
        r.occupation = "weaver".into();
        r
    }

    /// The paper's Fig. 3 scenario: exact name matching at threshold 1
    /// over first name + surname.
    fn fig3_simfunc() -> SimFunc {
        use crate::simfunc::AttributeSpec;
        use census_model::Attribute;
        use textsim::StringMeasure;
        SimFunc::new(
            vec![
                AttributeSpec {
                    attribute: Attribute::FirstName,
                    measure: StringMeasure::QGram(2),
                    weight: 0.5,
                },
                AttributeSpec {
                    attribute: Attribute::Surname,
                    measure: StringMeasure::QGram(2),
                    weight: 0.5,
                },
            ],
            1.0,
        )
    }

    #[test]
    fn fig3_clusters_by_full_name() {
        // 1871: john ashworth, alice ashworth; 1881: john ashworth ×2,
        // alice smith
        let o1 = rec(0, "john", "ashworth", Sex::Male, 39);
        let o2 = rec(1, "alice", "ashworth", Sex::Female, 8);
        let n1 = rec(0, "john", "ashworth", Sex::Male, 49);
        let n2 = rec(1, "john", "ashworth", Sex::Male, 30);
        let n3 = rec(2, "alice", "smith", Sex::Female, 18);
        let pm = prematch(
            &[&o1, &o2],
            &[&n1, &n2, &n3],
            10,
            &fig3_simfunc(),
            BlockingStrategy::Full,
            1,
            None,
        );
        // john_old clusters with both new johns
        let l_john = pm.label_old[0];
        assert_eq!(pm.label_new[0], l_john);
        assert_eq!(pm.label_new[1], l_john);
        assert_eq!(pm.size_of_label(l_john), 3);
        // alice ashworth does not cluster with alice smith at threshold 1
        assert_ne!(pm.label_old[1], pm.label_new[2]);
        assert_eq!(pm.size_of_label(pm.label_old[1]), 1);
        assert_eq!(pm.match_count(), 2);
    }

    #[test]
    fn pair_sims_store_aggregate() {
        let o = rec(0, "john", "ashworth", Sex::Male, 39);
        let n = rec(0, "john", "ashworth", Sex::Male, 49);
        let pm = prematch(
            &[&o],
            &[&n],
            10,
            &fig3_simfunc(),
            BlockingStrategy::Full,
            1,
            None,
        );
        let (i, j, s) = pm.pairs[0];
        assert_eq!((i, j), (0, 0));
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn below_threshold_pairs_are_not_stored() {
        let o = rec(0, "john", "ashworth", Sex::Male, 39);
        let n = rec(0, "john", "ashwerth", Sex::Male, 49); // one letter off
        let pm = prematch(
            &[&o],
            &[&n],
            10,
            &fig3_simfunc(),
            BlockingStrategy::Full,
            1,
            None,
        );
        assert_eq!(pm.match_count(), 0);
        // …but both records still get (distinct singleton) labels
        assert_ne!(pm.label_old[0], pm.label_new[0]);
    }

    #[test]
    fn lower_threshold_recovers_typos() {
        let o = rec(0, "john", "ashworth", Sex::Male, 39);
        let n = rec(0, "john", "ashwerth", Sex::Male, 49);
        let f = fig3_simfunc().with_threshold(0.8);
        let pm = prematch(&[&o], &[&n], 10, &f, BlockingStrategy::Full, 1, None);
        assert_eq!(pm.match_count(), 1);
        assert_eq!(pm.label_old[0], pm.label_new[0]);
    }

    #[test]
    fn transitive_closure_joins_within_one_side() {
        // two distinct old spellings both match one new record → all three
        // share a cluster
        let o1 = rec(0, "jon", "ashworth", Sex::Male, 39);
        let o2 = rec(1, "john", "ashworth", Sex::Male, 41);
        let n = rec(0, "john", "ashworth", Sex::Male, 49);
        let f = fig3_simfunc().with_threshold(0.8);
        let pm = prematch(&[&o1, &o2], &[&n], 10, &f, BlockingStrategy::Full, 1, None);
        let l = pm.label_new[0];
        assert_eq!(pm.label_old[0], l);
        assert_eq!(pm.label_old[1], l);
        assert_eq!(pm.size_of_label(l), 3);
    }

    #[test]
    fn parallel_equals_sequential() {
        // build a few hundred records and compare 1-thread vs 4-thread
        let olds: Vec<PersonRecord> = (0..150)
            .map(|i| {
                rec(
                    i,
                    if i % 3 == 0 { "john" } else { "mary" },
                    "ashworth",
                    Sex::Male,
                    30,
                )
            })
            .collect();
        let news: Vec<PersonRecord> = (0..150)
            .map(|i| {
                rec(
                    i,
                    if i % 2 == 0 { "john" } else { "marey" },
                    "ashworth",
                    Sex::Male,
                    40,
                )
            })
            .collect();
        let or: Vec<&PersonRecord> = olds.iter().collect();
        let nr: Vec<&PersonRecord> = news.iter().collect();
        let f = fig3_simfunc().with_threshold(0.8);
        let seq = prematch(&or, &nr, 10, &f, BlockingStrategy::Full, 1, None);
        let par = prematch(&or, &nr, 10, &f, BlockingStrategy::Full, 4, None);
        assert_eq!(seq.match_count(), par.match_count());
        assert_eq!(seq.pairs, par.pairs);
        // labels are root indices; same unions → same partition (roots may
        // differ in principle, so compare partition structure)
        let part = |pm: &PreMatch| {
            let mut groups: HashMap<u32, Vec<String>> = HashMap::new();
            for (r, l) in pm.label_old.iter().enumerate() {
                groups.entry(*l).or_default().push(format!("o{r}"));
            }
            for (r, l) in pm.label_new.iter().enumerate() {
                groups.entry(*l).or_default().push(format!("n{r}"));
            }
            let mut v: Vec<Vec<String>> = groups
                .into_values()
                .map(|mut g| {
                    g.sort();
                    g
                })
                .collect();
            v.sort();
            v
        };
        assert_eq!(part(&seq), part(&par));
    }

    #[test]
    fn age_filter_rejects_implausible_pairs() {
        // a dead 3-year-old vs a child born after the old census: names
        // identical, ages impossible
        let o = rec(0, "john", "smith", Sex::Male, 3);
        let n = rec(0, "john", "smith", Sex::Male, 5);
        let with_filter = prematch(
            &[&o],
            &[&n],
            10,
            &fig3_simfunc(),
            BlockingStrategy::Full,
            1,
            Some(3),
        );
        assert_eq!(with_filter.match_count(), 0);
        let without = prematch(
            &[&o],
            &[&n],
            10,
            &fig3_simfunc(),
            BlockingStrategy::Full,
            1,
            None,
        );
        assert_eq!(without.match_count(), 1);
    }

    #[test]
    fn age_filter_passes_missing_ages() {
        let mut o = rec(0, "john", "smith", Sex::Male, 3);
        o.age = None;
        let n = rec(0, "john", "smith", Sex::Male, 5);
        let pm = prematch(
            &[&o],
            &[&n],
            10,
            &fig3_simfunc(),
            BlockingStrategy::Full,
            1,
            Some(3),
        );
        assert_eq!(pm.match_count(), 1);
    }

    /// The value-pair memo never serves a cell computed against another
    /// old value: consecutive old records alternate first names a1, a2,
    /// a1 against the same new values, one new value recurs
    /// non-adjacently within each row, and at 4 threads every old record
    /// is its own task. Scores, pair order and prunes must equal the
    /// pair-at-a-time loop bit for bit, and the memo's computation count
    /// must repeat exactly.
    #[test]
    fn memo_cells_are_served_only_for_their_old_value() {
        let names = ["john", "jonathan", "john", "jonathan", "mary", "john"];
        let olds: Vec<PersonRecord> = (0..names.len())
            .map(|i| rec(i as u64, names[i], "smith", Sex::Male, 30))
            .collect();
        let news: Vec<PersonRecord> = ["john", "jon", "john", "mary"]
            .iter()
            .enumerate()
            .map(|(j, name)| rec(j as u64, name, "smith", Sex::Male, 40))
            .collect();
        let or: Vec<&PersonRecord> = olds.iter().collect();
        let nr: Vec<&PersonRecord> = news.iter().collect();
        let sim = fig3_simfunc().with_threshold(0.55);
        let op: Vec<CompiledProfile> = or.iter().map(|r| sim.compile(r)).collect();
        let np: Vec<CompiledProfile> = nr.iter().map(|r| sim.compile(r)).collect();
        let mut want_prunes = 0;
        let mut want = Vec::new();
        for (i, a) in op.iter().enumerate() {
            for (j, b) in np.iter().enumerate() {
                if let Some(s) = sim.matches_compiled_counted(a, b, &mut want_prunes) {
                    want.push((i as u32, j as u32, s.to_bits()));
                }
            }
        }
        assert!(want_prunes > 0, "the corpus must exercise the early exit");
        let blocker = Blocker::new(&or, &nr, 10, BlockingStrategy::Full, None);
        let mut cache = ProfileCache::new();
        let values = cache.rows(&sim, &or, &nr, 1, &Collector::disabled());
        for threads in [1, 4] {
            let run = || {
                let par = Parallelism {
                    threads,
                    ..Parallelism::default()
                };
                let obs = Collector::disabled();
                score_blocked(
                    &blocker,
                    &values,
                    &sim,
                    EventKind::PrematchTask,
                    par,
                    &obs,
                    None,
                )
                .expect("no limit, no abort")
            };
            let pass = run();
            let got: Vec<(u32, u32, u64)> = pass
                .chunks
                .iter()
                .flatten()
                .map(|&(i, j, s)| (i, j, s.to_bits()))
                .collect();
            assert_eq!(got, want, "{threads} threads: scores diverge");
            assert_eq!(pass.stats.prunes, want_prunes, "{threads} threads");
            assert!(pass.stats.unique <= pass.stats.probes);
            assert_eq!(pass.stats.unique, run().stats.unique, "{threads} threads");
            if threads == 1 {
                assert!(
                    pass.stats.unique < pass.stats.probes,
                    "the memo served nothing"
                );
            }
        }
    }

    #[test]
    fn run_pool_returns_results_in_task_order() {
        let obs = Collector::disabled();
        for threads in [1, 2, 5] {
            let out = run_pool(17, threads, &obs, |i, _| i * i);
            assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(run_pool(0, 4, &obs, |i, _| i).is_empty());
    }

    #[test]
    fn run_pool_hands_each_task_a_valid_worker_index() {
        let obs = Collector::disabled();
        for threads in [1, 3] {
            let workers = run_pool(20, threads, &obs, |_, w| w);
            for &w in &workers {
                assert!(w < threads, "worker index {w} out of range");
            }
            if threads == 1 {
                assert!(workers.iter().all(|&w| w == 0), "serial path is worker 0");
            }
        }
    }

    /// Fisher–Yates shuffle driven by a splitmix64 stream from `seed`.
    fn shuffle<T>(v: &mut [T], mut seed: u64) {
        for i in (1..v.len()).rev() {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            v.swap(i, (z % (i as u64 + 1)) as usize);
        }
    }

    /// Clustering depends on which pairs match, never on their order:
    /// the same match pairs in blocked (id) order, in household-pair
    /// order and in seeded shuffles give labels equal up to renaming and
    /// equal cluster sizes.
    #[test]
    fn clustering_does_not_depend_on_pair_order() {
        use census_synth::{generate_series, SimConfig};
        let series = generate_series(&SimConfig::small());
        let (old_ds, new_ds) = (&series.snapshots[0], &series.snapshots[1]);
        let old: Vec<&PersonRecord> = old_ds.records().iter().collect();
        let new: Vec<&PersonRecord> = new_ds.records().iter().collect();
        let year_gap = i64::from(new_ds.year - old_ds.year);
        let sim = SimFunc::omega2(0.5);
        let pm = prematch(
            &old,
            &new,
            year_gap,
            &sim,
            BlockingStrategy::Standard,
            1,
            Some(3),
        );
        let id_order = pm.pairs;
        let mut household_order = id_order.clone();
        household_order
            .sort_by_key(|&(i, j, _)| (old[i as usize].household, new[j as usize].household, i, j));
        assert_ne!(id_order, household_order, "the orders must differ");
        let mut orders = vec![household_order];
        for seed in [1, 2, 3] {
            let mut shuffled = id_order.clone();
            shuffle(&mut shuffled, seed);
            orders.push(shuffled);
        }
        let (n_old, n_new) = (old.len(), new.len());
        let want = build_prematch(n_old, n_new, id_order);
        assert!(
            want.cluster_size.iter().any(|&size| size > 2),
            "the corpus must form clusters beyond single pairs"
        );
        for (k, order) in orders.into_iter().enumerate() {
            let got = build_prematch(n_old, n_new, order);
            // one label of `want` maps to exactly one label of `got`, and
            // back: the two label vectors name the same partition
            let mut forward: HashMap<u32, u32> = HashMap::new();
            let mut backward: HashMap<u32, u32> = HashMap::new();
            let sides = [
                (&want.label_old, &got.label_old),
                (&want.label_new, &got.label_new),
            ];
            for (w, g) in sides {
                for (&lw, &lg) in w.iter().zip(g) {
                    assert_eq!(*forward.entry(lw).or_insert(lg), lg, "order {k}: split");
                    assert_eq!(*backward.entry(lg).or_insert(lw), lw, "order {k}: merged");
                    assert_eq!(want.size_of_label(lw), got.size_of_label(lg), "order {k}");
                }
            }
        }
    }

    #[test]
    fn empty_inputs() {
        let pm = prematch(
            &[],
            &[],
            10,
            &fig3_simfunc(),
            BlockingStrategy::Full,
            2,
            None,
        );
        assert_eq!(pm.match_count(), 0);
        assert!(pm.label_old.is_empty());
    }
}
