//! Structured run tracing and metrics for the linkage pipeline.
//!
//! The iterative driver (Algorithm 1) is a multi-phase pipeline —
//! enrichment, then per-δ pre-matching / subgraph matching / selection,
//! then the remainder pass — whose behaviour is opaque without per-phase
//! timing and counters. This crate provides the in-tree instrumentation
//! layer (the build is offline, so crates.io `tracing` is unavailable):
//!
//! * [`Collector`] — nested phase spans with wall-clock timing, optional
//!   per-δ-iteration tagging and atomic pipeline [`Counter`]s. Closed
//!   spans and the [`timeline`]'s worker events (one per task of a
//!   parallel scoring loop, queue wait or driver section) go into one
//!   append-only event log; the same task records feed live progress.
//! * [`RunTrace`] — the serialisable report assembled by
//!   [`Collector::finish`] from that log: the raw spans, aggregated
//!   phase statistics, a per-iteration breakdown, the `phase_us_*` and
//!   `chunk_us` latency histograms, the [`Timeline`] section with its
//!   scheduler analytics (utilization, critical path), and the
//!   counters. Serialises to
//!   JSON via the vendored `serde_json` and renders as a human-readable
//!   phase table.
//! * [`TraceSink`] — a small accumulator for harnesses that run many
//!   linkages (the eval experiment runners) and want one labelled trace
//!   per run.
//!
//! # Cost model
//!
//! A disabled collector ([`Collector::disabled`]) reduces every call to
//! a single predictable branch on a plain `bool` — no locks, no clock
//! reads, no allocation — so instrumented hot paths stay within noise of
//! the uninstrumented code. Spans must be opened and closed from one
//! thread (the pipeline driver); counters and timeline events may be
//! reported from any thread, each event carrying the reporting worker's
//! id.
//!
//! # Example
//!
//! ```
//! use obs::{Collector, Counter};
//!
//! let obs = Collector::enabled();
//! {
//!     let _phase = obs.span("prematch");
//!     obs.add(Counter::PrematchPairsScored, 10);
//! } // span ends when the guard drops
//! let trace = obs.finish();
//! assert_eq!(trace.phases.len(), 1);
//! assert_eq!(trace.counter("prematch_pairs_scored"), 10);
//! ```

#![warn(missing_docs)]

pub mod alloc;
pub mod decision;
pub mod diff;
pub mod footprint;
pub mod hist;
pub mod progress;
pub mod quality;
mod report;
pub mod timeline;

pub use alloc::{CountingAlloc, MemStats, PhaseMemStat};
pub use decision::{
    DecisionConfig, DecisionLog, DecisionRecord, GroupDecision, LosingCandidate, RejectedCandidate,
    RejectionReason, RemainderDecision,
};
pub use footprint::{Footprint, FootprintSnapshot, MemoryFootprint};
pub use hist::{score_bp, Histogram, LiveHist, NamedHistogram, HIST_BUCKETS};
pub use progress::Progress;
pub use quality::{
    BlockingMisses, IterationQuality, Quality, QualityCounts, QualitySection, RecallFunnel,
    SelectionLosses, SimBand, TruthConfig,
};
pub use report::{
    CounterValue, IterationTrace, LabeledTrace, MemoryStats, MultiTrace, PhaseMem, PhaseStat,
    RunTrace, ShardStat, SpanRecord, TraceEvent, PIPELINE_PHASES,
};
pub use timeline::{DriverSection, EventKind, Timeline, TimelineEvent, WorkerUtilization};

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// The pipeline counters a [`Collector`] tracks.
///
/// Counters are fixed-slot atomics (not a string-keyed map) so that
/// incrementing one from a scoring loop is a single relaxed
/// `fetch_add`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Candidate record pairs scored by pre-matching.
    PrematchPairsScored,
    /// Pre-matching pairs at or above the δ threshold.
    PrematchPairsMatched,
    /// Pairs rejected by the descending-weight early-exit bound before
    /// all attributes were scored (pre-matching and remainder combined).
    EarlyExitPrunes,
    /// Candidate household pairs given to the subgraph matcher.
    SubgraphPairsScored,
    /// Household pairs whose matched subgraph was non-empty (the inputs
    /// of Algorithm 2).
    GroupCandidates,
    /// Group links accepted by Algorithm 2.
    GroupLinksAccepted,
    /// Record links extracted from accepted subgraphs.
    RecordLinks,
    /// Candidate pairs scored by the remaining-records pass.
    RemainderPairsScored,
    /// Record links added by the remaining-records pass.
    RemainderLinks,
    /// Record profiles built (profile-cache misses): records whose row
    /// of interned value ids was made.
    ProfilesBuilt,
    /// Record profiles served from the cache (hits).
    ProfilesReused,
    /// Cached pair scores reused by a pass served from the pair-score
    /// cache (iterations after the first, and a compatible remainder
    /// pass).
    PairCacheHits,
    /// Cached pair scores a served pass skipped. The cache is compacted
    /// to the unlinked residue after every iteration, so these are
    /// residue pairs scoring below the current δ (or, in the remainder
    /// pass, failing its threshold or age filter); pairs with a linked
    /// endpoint are dropped by compaction and never counted.
    PairCacheFiltered,
    /// Candidate pairs emitted by the blocking layer, with the pass's
    /// age-plausibility filter (pre-matching's or the remainder's)
    /// fused into generation.
    BlockingPairsGenerated,
    /// Row-kernel work items requested: per scored pair, the attributes
    /// scored before its early exit, before value-pair memo reuse.
    PairScoreBatchProbes,
    /// Arena similarity computations the row kernel actually made:
    /// probes whose new value's memo cell was not tagged with the old
    /// value id — `1 − unique/probes` is the reuse win.
    PairScoreBatchedUnique,
    /// Memory-budget fallbacks: pair-score caches skipped in favour of
    /// per-iteration recomputation.
    MemFallbackPairCache,
    /// Memory-budget fallbacks: decision-log caps tightened below their
    /// configured values.
    MemFallbackDecisionCaps,
    /// Evolution: preserved individuals (`preserve_R`) across all
    /// snapshot pairs.
    EvolutionPreserveR,
    /// Evolution: newly appearing individuals (`add_R`).
    EvolutionAddR,
    /// Evolution: disappearing individuals (`remove_R`).
    EvolutionRemoveR,
    /// Evolution: preserved households (`preserve_G`).
    EvolutionPreserveG,
    /// Evolution: newly appearing households (`add_G`).
    EvolutionAddG,
    /// Evolution: disappearing households (`remove_G`).
    EvolutionRemoveG,
}

impl Counter {
    /// Every counter, in report order.
    pub const ALL: [Counter; 24] = [
        Counter::PrematchPairsScored,
        Counter::PrematchPairsMatched,
        Counter::EarlyExitPrunes,
        Counter::SubgraphPairsScored,
        Counter::GroupCandidates,
        Counter::GroupLinksAccepted,
        Counter::RecordLinks,
        Counter::RemainderPairsScored,
        Counter::RemainderLinks,
        Counter::ProfilesBuilt,
        Counter::ProfilesReused,
        Counter::PairCacheHits,
        Counter::PairCacheFiltered,
        Counter::BlockingPairsGenerated,
        Counter::PairScoreBatchProbes,
        Counter::PairScoreBatchedUnique,
        Counter::MemFallbackPairCache,
        Counter::MemFallbackDecisionCaps,
        Counter::EvolutionPreserveR,
        Counter::EvolutionAddR,
        Counter::EvolutionRemoveR,
        Counter::EvolutionPreserveG,
        Counter::EvolutionAddG,
        Counter::EvolutionRemoveG,
    ];

    /// Stable snake_case name used in the JSON trace.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Counter::PrematchPairsScored => "prematch_pairs_scored",
            Counter::PrematchPairsMatched => "prematch_pairs_matched",
            Counter::EarlyExitPrunes => "early_exit_prunes",
            Counter::SubgraphPairsScored => "subgraph_pairs_scored",
            Counter::GroupCandidates => "group_candidates",
            Counter::GroupLinksAccepted => "group_links_accepted",
            Counter::RecordLinks => "record_links",
            Counter::RemainderPairsScored => "remainder_pairs_scored",
            Counter::RemainderLinks => "remainder_links",
            Counter::ProfilesBuilt => "profiles_built",
            Counter::ProfilesReused => "profiles_reused",
            Counter::PairCacheHits => "pair_cache_hits",
            Counter::PairCacheFiltered => "pair_cache_filtered",
            Counter::BlockingPairsGenerated => "blocking_pairs_generated",
            Counter::PairScoreBatchProbes => "pair_score_batch_probes",
            Counter::PairScoreBatchedUnique => "pair_score_batched_unique",
            Counter::MemFallbackPairCache => "mem_fallback_pair_cache",
            Counter::MemFallbackDecisionCaps => "mem_fallback_decision_caps",
            Counter::EvolutionPreserveR => "evolution_preserve_r",
            Counter::EvolutionAddR => "evolution_add_r",
            Counter::EvolutionRemoveR => "evolution_remove_r",
            Counter::EvolutionPreserveG => "evolution_preserve_g",
            Counter::EvolutionAddG => "evolution_add_g",
            Counter::EvolutionRemoveG => "evolution_remove_g",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// The span grouping one δ iteration of the driver; its children are the
/// per-iteration phases. Treated specially when a [`RunTrace`] is
/// assembled: it forms the per-iteration breakdown rather than a phase.
pub const ITERATION_SPAN: &str = "iteration";

/// An open span. Its phase, iteration tag and δ are worked out once,
/// when it opens: its own, or else the enclosing span's.
struct Frame {
    name: &'static str,
    /// The innermost recognised phase at or above this span (`""` when
    /// there is none).
    phase: &'static str,
    iteration: Option<usize>,
    delta: Option<f64>,
    start: Instant,
}

/// One entry of the event log.
enum Record {
    /// A closed span. Its path and parent are not kept: spans close
    /// innermost first, so [`spans_from`] rebuilds them from the order
    /// and depths of the span records.
    Span {
        name: &'static str,
        depth: usize,
        iteration: Option<usize>,
        delta: Option<f64>,
        start_us: u64,
        duration_us: u64,
    },
    /// A pool task, queue wait or driver section.
    Event(TimelineEvent),
}

/// The span stack and the run's one event log.
#[derive(Default)]
struct EventLog {
    stack: Vec<Frame>,
    /// Every closed span and timeline event, in the order they ended.
    records: Vec<Record>,
    /// One past the highest worker id logged so far.
    workers: usize,
}

/// Rebuild the [`SpanRecord`]s of the logged spans. A span closes after
/// every span nested in it, so walking the log backwards meets each
/// span before its descendants, and the names last met at depths
/// `0..depth` are its ancestors.
fn spans_from(records: &[Record]) -> Vec<SpanRecord> {
    let mut ancestors: Vec<&str> = Vec::new();
    let mut spans: Vec<SpanRecord> = records
        .iter()
        .rev()
        .filter_map(|r| match *r {
            Record::Span {
                name,
                depth,
                iteration,
                delta,
                start_us,
                duration_us,
            } => {
                ancestors.truncate(depth);
                let parent = ancestors.last().map(|&p| p.to_owned());
                ancestors.push(name);
                Some(SpanRecord {
                    name: name.to_owned(),
                    path: ancestors.join("/"),
                    parent,
                    depth,
                    iteration,
                    delta,
                    start_us,
                    duration_us,
                })
            }
            Record::Event(_) => None,
        })
        .collect();
    spans.reverse();
    spans
}

/// Ground-truth state behind [`Collector::with_truth`]: the loaded truth
/// mappings, what the decision stream told it (the latest rejection per
/// household pair, and the recovered-pairs gauge feeding `--progress`),
/// and the finalised [`QualitySection`] once the pipeline computes it.
struct TruthState {
    config: quality::TruthConfig,
    record_set: HashSet<(u64, u64)>,
    rejected: HashMap<(u64, u64), RejectionReason>,
    recovered: u64,
    quality: Option<quality::QualitySection>,
}

impl TruthState {
    /// Take in one decision record: a rejection becomes its household
    /// pair's latest reason, and true record links advance the coverage
    /// gauge. Returns the gauge's `(recovered, total)` when it moved.
    fn audit(&mut self, record: &DecisionRecord) -> Option<(u64, u64)> {
        let before = self.recovered;
        match record {
            DecisionRecord::Rejected(r) => {
                self.rejected.insert((r.old_group, r.new_group), r.reason);
            }
            DecisionRecord::Group(g) => {
                let set = &self.record_set;
                self.recovered += g.records.iter().filter(|p| set.contains(p)).count() as u64;
            }
            DecisionRecord::Remainder(r) => {
                let pair = (r.old_record, r.new_record);
                self.recovered += u64::from(self.record_set.contains(&pair));
            }
        }
        (self.recovered > before).then_some((self.recovered, self.record_set.len() as u64))
    }
}

/// Lock a mutex, recovering the data if a panicking thread poisoned it.
/// The collector's state stays structurally valid mid-operation (every
/// push/pop is a single call), so the data behind a poisoned lock is
/// still usable — and instrumentation must never turn a caught pipeline
/// panic into a second panic.
fn lock_or_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The instrumentation collector threaded through a pipeline run.
///
/// See the crate docs for the cost model. A collector observes exactly
/// one run; build a fresh one per run and snapshot it with
/// [`Collector::finish`].
pub struct Collector {
    enabled: bool,
    memory: bool,
    epoch: Instant,
    log: Mutex<EventLog>,
    /// Workers inside a timed task, for the live progress utilization
    /// line. Display-only — a panicking worker may leak one.
    busy: AtomicUsize,
    counters: [AtomicU64; Counter::ALL.len()],
    hists: Mutex<Vec<Histogram>>,
    decisions: Option<Mutex<DecisionLog>>,
    footprints: Mutex<Vec<FootprintSnapshot>>,
    events: Mutex<Vec<TraceEvent>>,
    progress: Option<Mutex<Progress>>,
    truth: Option<Mutex<TruthState>>,
}

impl Collector {
    /// A collector that records spans, timeline events, counters and
    /// histograms.
    #[must_use]
    pub fn enabled() -> Self {
        Self::new(true)
    }

    /// A no-op collector: every call short-circuits on a plain branch.
    #[must_use]
    pub fn disabled() -> Self {
        Self::new(false)
    }

    /// Build a collector with the given state.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            memory: false,
            epoch: Instant::now(),
            log: Mutex::new(EventLog::default()),
            busy: AtomicUsize::new(0),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            hists: Mutex::new(vec![Histogram::new(); LiveHist::ALL.len()]),
            decisions: None,
            footprints: Mutex::new(Vec::new()),
            events: Mutex::new(Vec::new()),
            progress: None,
            truth: None,
        }
    }

    /// Turn on allocation tracking for this run: resets the
    /// process-global counting-allocator state (see [`alloc`]) and, at
    /// [`Collector::finish`], attaches a per-phase memory table to the
    /// trace. Has no effect on a disabled collector, and records only
    /// zeros unless a [`CountingAlloc`] is the binary's global
    /// allocator. One memory-tracked run at a time per process.
    #[must_use]
    pub fn with_memory(mut self) -> Self {
        if self.enabled {
            alloc::start_tracking();
            self.memory = true;
        }
        self
    }

    /// Whether allocation tracking was requested for this run.
    #[must_use]
    pub fn memory_enabled(&self) -> bool {
        self.memory
    }

    /// Attach a live progress reporter, driven by span pushes, counter
    /// updates and timed tasks. Has no effect on a disabled collector.
    #[must_use]
    pub fn with_progress(mut self, progress: Progress) -> Self {
        if self.enabled {
            self.progress = Some(Mutex::new(progress));
        }
        self
    }

    /// Does nothing: every enabled collector records the timeline (see
    /// [`timeline`]). Kept for callers written when recording it was
    /// opt-in.
    #[must_use]
    pub fn with_timeline(self) -> Self {
        self
    }

    /// Append a timeline event to the log; returns how many workers
    /// have logged events so far.
    fn log_event(&self, event: TimelineEvent) -> usize {
        let mut log = lock_or_recover(&self.log);
        log.workers = log.workers.max(event.worker as usize + 1);
        log.records.push(Record::Event(event));
        log.workers
    }

    /// A timeline event of `kind` on `worker` that began at `start`.
    fn event_since(
        &self,
        worker: usize,
        kind: EventKind,
        detail: u64,
        iteration: Option<usize>,
        start: Instant,
    ) -> TimelineEvent {
        TimelineEvent {
            worker: u32::try_from(worker).unwrap_or(u32::MAX),
            kind,
            start_us: as_us(start.duration_since(self.epoch)),
            duration_us: as_us(start.elapsed()),
            detail,
            iteration,
        }
    }

    /// Mark the start of a timed unit of work. Returns `None` — at the
    /// cost of one branch, no clock read — when the collector is
    /// disabled. Pair every `Some` with a [`Collector::timeline_task`]
    /// call; the busy-worker gauge feeding the live progress utilization
    /// line counts starts not yet finished.
    #[must_use]
    pub fn timeline_start(&self) -> Option<Instant> {
        if !self.enabled {
            return None;
        }
        self.busy.fetch_add(1, Ordering::Relaxed);
        Some(Instant::now())
    }

    /// Record a completed unit of work that began at `start` (the
    /// instant handed out by [`Collector::timeline_start`]) as one
    /// event on `worker`'s lane, and feed its duration to the live
    /// progress utilization. Thread-safe.
    pub fn timeline_task(
        &self,
        worker: usize,
        kind: EventKind,
        detail: u64,
        iteration: Option<usize>,
        start: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let event = self.event_since(worker, kind, detail, iteration, start);
        let workers = self.log_event(event);
        // saturating: a leaked increment (panicked worker) must not wrap
        let _ = self
            .busy
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| {
                Some(b.saturating_sub(1))
            });
        if let Some(p) = &self.progress {
            let mut p = lock_or_recover(p);
            p.task(event.duration_us);
            p.utilization(self.busy.load(Ordering::Relaxed), workers);
        }
    }

    /// Record the queue-wait gap a pool worker spent between `since`
    /// (when its previous task ended) and now, while waiting to claim
    /// task `detail`. Gaps that truncate to 0µs are not recorded.
    /// Thread-safe; a no-op when disabled.
    pub fn timeline_gap(&self, worker: usize, since: Instant, detail: u64) {
        if !self.enabled {
            return;
        }
        let event = self.event_since(worker, EventKind::QueueWait, detail, None, since);
        if event.duration_us > 0 {
            self.log_event(event);
        }
    }

    /// Run `f`, a section of the linker driver, and record it as an
    /// [`EventKind::Driver`] event on worker 0's lane (`detail` = the
    /// section's code). The event is not busy time and feeds no progress
    /// utilization, so utilization keeps counting pool tasks only. On a
    /// disabled collector this is `f()` after one branch. Thread-safe:
    /// sections running on other threads still land on worker 0.
    pub fn driver<T>(
        &self,
        section: DriverSection,
        iteration: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.log_event(self.event_since(0, EventKind::Driver, section.code(), iteration, start));
        out
    }

    /// Turn on bounded decision-provenance recording (see
    /// [`decision`]). Has no effect on a disabled collector.
    #[must_use]
    pub fn with_decisions(mut self, config: DecisionConfig) -> Self {
        if self.enabled {
            self.decisions = Some(Mutex::new(DecisionLog::new(config)));
        }
        self
    }

    /// Load ground-truth mappings for quality telemetry (see
    /// [`quality`]): decision records feed the truth state, the pipeline
    /// classifies the recall-loss funnel from it, and [`Collector::finish`]
    /// attaches the [`QualitySection`]. Has no effect on a disabled collector.
    #[must_use]
    pub fn with_truth(mut self, config: quality::TruthConfig) -> Self {
        if self.enabled {
            let record_set = config.record_pairs.iter().copied().collect();
            self.truth = Some(Mutex::new(TruthState {
                config,
                record_set,
                rejected: HashMap::new(),
                recovered: 0,
                quality: None,
            }));
        }
        self
    }

    /// Run `f` over the loaded ground truth and the latest rejection of
    /// each household pair (raw ids); `None` when truth telemetry is off.
    pub fn truth_audit<R>(
        &self,
        f: impl FnOnce(&quality::TruthConfig, &HashMap<(u64, u64), RejectionReason>) -> R,
    ) -> Option<R> {
        let t = lock_or_recover(self.truth.as_ref()?);
        Some(f(&t.config, &t.rejected))
    }

    /// Attach the finalised quality section computed by the pipeline;
    /// [`Collector::finish`] copies it into the trace. A no-op unless
    /// truth telemetry is on.
    pub fn set_quality(&self, section: quality::QualitySection) {
        if let Some(t) = &self.truth {
            lock_or_recover(t).quality = Some(section);
        }
    }

    /// Whether this collector records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Whether decision provenance is being recorded.
    #[must_use]
    pub fn decisions_enabled(&self) -> bool {
        self.decisions.is_some()
    }

    /// Whether anything reads the run's decision records: a decision log
    /// or truth telemetry.
    #[must_use]
    pub fn audit_enabled(&self) -> bool {
        self.decisions.is_some() || self.truth.is_some()
    }

    /// How many losing candidates each group decision should list
    /// (0 when decision recording is off).
    #[must_use]
    pub fn decision_top_k(&self) -> usize {
        self.decisions
            .as_ref()
            .map_or(0, |d| lock_or_recover(d).top_k())
    }

    /// The run's one audit entry point: feed a decision record to the
    /// truth state, before any cap, then to the bounded log. Thread-safe;
    /// a no-op unless [`Collector::with_truth`] or
    /// [`Collector::with_decisions`] was applied.
    pub fn decide(&self, record: DecisionRecord) {
        if let Some(t) = &self.truth {
            let gauge = lock_or_recover(t).audit(&record);
            if let (Some((recovered, total)), Some(p)) = (gauge, &self.progress) {
                lock_or_recover(p).truth_coverage(recovered, total);
            }
        }
        if let Some(log) = &self.decisions {
            lock_or_recover(log).push(record);
        }
    }

    /// Take the decision log out of the collector (leaving an empty one
    /// behind), or `None` when decision recording is off.
    #[must_use]
    pub fn take_decisions(&self) -> Option<DecisionLog> {
        self.decisions.as_ref().map(|log| {
            let mut guard = lock_or_recover(log);
            let empty = DecisionLog::new(DecisionConfig {
                top_k: guard.top_k(),
                ..DecisionConfig::default()
            });
            std::mem::replace(&mut *guard, empty)
        })
    }

    /// Open a phase span; it ends (and is recorded) when the returned
    /// guard drops. Spans nest: a span opened while another is active
    /// becomes its child and inherits its iteration tag.
    #[must_use]
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.push_span(name, None, None)
    }

    /// Open a span tagged with a δ-iteration index (and optionally the
    /// δ value itself). Child spans inherit the tag; the [`RunTrace`]
    /// groups tagged spans into the per-iteration breakdown.
    #[must_use]
    pub fn iter_span(
        &self,
        name: &'static str,
        iteration: usize,
        delta: Option<f64>,
    ) -> SpanGuard<'_> {
        self.push_span(name, Some(iteration), delta)
    }

    fn push_span(
        &self,
        name: &'static str,
        iteration: Option<usize>,
        delta: Option<f64>,
    ) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard { collector: None };
        }
        let slot = alloc::phase_slot(name);
        let recognised = slot != alloc::OTHER_SLOT;
        let (iteration, delta) = {
            let mut log = lock_or_recover(&self.log);
            let outer = log.stack.last();
            let frame = Frame {
                name,
                phase: if recognised {
                    name
                } else {
                    outer.map_or("", |f| f.phase)
                },
                iteration: iteration.or(outer.and_then(|f| f.iteration)),
                delta: delta.or(outer.and_then(|f| f.delta)),
                start: Instant::now(),
            };
            let tags = (frame.iteration, frame.delta);
            log.stack.push(frame);
            tags
        };
        // attribute subsequent allocations to the innermost recognised
        // phase; unrecognised child spans keep their parent's slot
        if recognised {
            if self.memory {
                alloc::set_phase(slot);
            }
            if let Some(p) = &self.progress {
                lock_or_recover(p).phase_started(name, iteration, delta);
            }
        }
        SpanGuard {
            collector: Some(self),
        }
    }

    fn end_span(&self) {
        let mut log = lock_or_recover(&self.log);
        let Some(frame) = log.stack.pop() else {
            // a panic unwound past an outer guard before this one
            // dropped; the span is already closed — never re-panic
            return;
        };
        let depth = log.stack.len();
        log.records.push(Record::Span {
            name: frame.name,
            depth,
            iteration: frame.iteration,
            delta: frame.delta,
            start_us: as_us(frame.start.duration_since(self.epoch)),
            duration_us: as_us(frame.start.elapsed()),
        });
        if self.memory {
            // restore attribution to the nearest recognised ancestor
            alloc::set_phase(alloc::phase_slot(log.stack.last().map_or("", |f| f.phase)));
        }
    }

    /// Add `n` to a counter. Thread-safe; a no-op when disabled.
    pub fn add(&self, counter: Counter, n: u64) {
        if self.enabled && n > 0 {
            let done = self.counters[counter.index()].fetch_add(n, Ordering::Relaxed) + n;
            if self.progress.is_some() {
                self.progress_tick(counter, done);
            }
        }
    }

    /// Feed the progress reporter on counters that measure scoring
    /// work. The blocking-pair counter is the best available
    /// denominator for pre-matching; the other loops report without
    /// one.
    fn progress_tick(&self, counter: Counter, done: u64) {
        let (what, total) = match counter {
            Counter::PrematchPairsScored => {
                ("pairs", self.counter(Counter::BlockingPairsGenerated))
            }
            Counter::SubgraphPairsScored => ("household pairs", 0),
            Counter::RemainderPairsScored => ("remainder pairs", 0),
            _ => return,
        };
        if let Some(p) = &self.progress {
            lock_or_recover(p).tick(what, done, total);
        }
    }

    /// Current value of a counter.
    #[must_use]
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter.index()].load(Ordering::Relaxed)
    }

    /// Record a footprint snapshot of one structure, tagged with the
    /// active phase and δ iteration. Call at phase boundaries — the
    /// estimate walks the structure. A no-op when disabled.
    pub fn snapshot_footprint(&self, structure: &'static str, fp: Footprint) {
        if !self.enabled {
            return;
        }
        let (phase, iteration) = self.current_phase();
        lock_or_recover(&self.footprints).push(FootprintSnapshot {
            structure: structure.to_owned(),
            phase,
            iteration,
            bytes: fp.bytes,
            elements: fp.elements,
        });
    }

    /// Record a footprint snapshot of the decision log itself, as a
    /// `"decision_log"` structure row. A no-op when disabled or when
    /// decision recording is off.
    pub fn snapshot_decision_footprint(&self) {
        if !self.enabled {
            return;
        }
        if let Some(log) = &self.decisions {
            let fp = lock_or_recover(log).footprint();
            self.snapshot_footprint("decision_log", fp);
        }
    }

    /// Record a point event (e.g. a memory-budget fallback), tagged
    /// with the active phase and δ iteration. A no-op when disabled.
    pub fn event(&self, name: &'static str, detail: impl Into<String>) {
        if !self.enabled {
            return;
        }
        let (phase, iteration) = self.current_phase();
        lock_or_recover(&self.events).push(TraceEvent {
            name: name.to_owned(),
            phase,
            iteration,
            detail: detail.into(),
        });
    }

    /// The innermost recognised phase on the span stack and the
    /// inherited δ-iteration index (`""`/`None` outside spans).
    fn current_phase(&self) -> (String, Option<usize>) {
        let log = lock_or_recover(&self.log);
        log.stack
            .last()
            .map_or((String::new(), None), |f| (f.phase.to_owned(), f.iteration))
    }

    /// Record one sample into a live histogram. Thread-safe; a no-op
    /// when disabled. Hot loops should prefer [`Collector::observe_hist`]
    /// with a thread-local histogram to amortise the lock.
    pub fn observe(&self, which: LiveHist, value: u64) {
        if self.enabled {
            lock_or_recover(&self.hists)[which.index()].record(value);
        }
    }

    /// Merge a locally-accumulated histogram into a live histogram slot
    /// (one lock per batch instead of per sample). Thread-safe; a no-op
    /// when disabled.
    pub fn observe_hist(&self, which: LiveHist, hist: &Histogram) {
        if self.enabled && !hist.is_empty() {
            lock_or_recover(&self.hists)[which.index()].merge(hist);
        }
    }

    /// Snapshot the event log, counters and histograms into a
    /// [`RunTrace`]: the spans, the timeline — with one
    /// [`EventKind::Iteration`] mark at the start of each iteration span
    /// — and everything derived from them. Total wall time is measured
    /// from the collector's construction. Open spans are not included —
    /// close every guard before finishing (a caught panic closes its
    /// spans via the guards' `Drop` during unwinding).
    #[must_use]
    pub fn finish(&self) -> RunTrace {
        let total_us = as_us(self.epoch.elapsed());
        let (spans, mut events) = {
            let log = lock_or_recover(&self.log);
            let events: Vec<TimelineEvent> = log
                .records
                .iter()
                .filter_map(|r| match r {
                    Record::Event(e) => Some(*e),
                    Record::Span { .. } => None,
                })
                .collect();
            (spans_from(&log.records), events)
        };
        events.extend(
            spans
                .iter()
                .filter(|s| s.name == ITERATION_SPAN)
                .map(|s| TimelineEvent {
                    worker: 0,
                    kind: EventKind::Iteration,
                    start_us: s.start_us,
                    duration_us: 0,
                    detail: s.delta.map_or(0, score_bp),
                    iteration: s.iteration,
                }),
        );
        let timeline = self.enabled.then(|| Timeline::derive(events));
        let counters = Counter::ALL
            .iter()
            .map(|&c| CounterValue {
                name: c.name().to_owned(),
                value: self.counter(c),
            })
            .collect();
        let live_hists = if self.enabled {
            let hists = lock_or_recover(&self.hists);
            LiveHist::ALL
                .iter()
                .map(|&h| NamedHistogram {
                    name: h.name().to_owned(),
                    unit: h.unit().to_owned(),
                    hist: hists[h.index()].clone(),
                })
                .collect()
        } else {
            Vec::new()
        };
        let memory = if self.memory {
            let stats = alloc::stop_tracking();
            Some(MemoryStats {
                bytes_allocated: stats.bytes_allocated,
                allocs: stats.allocs,
                frees: stats.frees,
                live_bytes_at_finish: stats.live_bytes,
                peak_live_bytes: stats.peak_live_bytes,
                phases: stats
                    .phases
                    .iter()
                    .filter(|p| p.allocs > 0)
                    .map(|p| PhaseMem {
                        name: p.name.to_owned(),
                        alloc_bytes: p.alloc_bytes,
                        allocs: p.allocs,
                        peak_live_bytes: p.peak_live_bytes,
                    })
                    .collect(),
            })
        } else {
            None
        };
        let footprints = lock_or_recover(&self.footprints).clone();
        let events = lock_or_recover(&self.events).clone();
        let quality = self
            .truth
            .as_ref()
            .and_then(|t| lock_or_recover(t).quality.clone());
        RunTrace::assemble(
            self.enabled,
            total_us,
            spans,
            counters,
            live_hists,
            memory,
            footprints,
            events,
            timeline,
            quality,
        )
    }
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector")
            .field("enabled", &self.enabled)
            .finish_non_exhaustive()
    }
}

fn as_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// RAII guard returned by [`Collector::span`]; records the span when
/// dropped. Guards must drop in LIFO order (natural lexical scoping).
pub struct SpanGuard<'a> {
    collector: Option<&'a Collector>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(c) = self.collector {
            c.end_span();
        }
    }
}

/// Accumulates one labelled [`RunTrace`] per pipeline run, for harnesses
/// that link many times (parameter sweeps, the eval experiment runners).
///
/// A disabled sink hands out disabled collectors and drops every record,
/// so traced runners cost nothing when tracing is off.
#[derive(Debug, Default)]
pub struct TraceSink {
    enabled: bool,
    /// The recorded traces, in run order.
    pub traces: Vec<LabeledTrace>,
}

impl TraceSink {
    /// A sink that records traces.
    #[must_use]
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            traces: Vec::new(),
        }
    }

    /// A sink that drops everything and hands out no-op collectors.
    #[must_use]
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether this sink records traces.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh collector matching the sink's state, for one run.
    #[must_use]
    pub fn collector(&self) -> Collector {
        Collector::new(self.enabled)
    }

    /// Record the finished trace of `collector` under `label`.
    pub fn record(&mut self, label: impl Into<String>, collector: &Collector) {
        if self.enabled {
            self.traces.push(LabeledTrace {
                label: label.into(),
                trace: collector.finish(),
            });
        }
    }

    /// The recorded traces as one serialisable document.
    #[must_use]
    pub fn into_multi(self) -> MultiTrace {
        MultiTrace { runs: self.traces }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_collector_records_nothing() {
        let obs = Collector::disabled();
        {
            let _a = obs.span("prematch");
            obs.add(Counter::PrematchPairsScored, 100);
            assert!(obs.timeline_start().is_none());
            obs.timeline_gap(0, Instant::now() - Duration::from_millis(1), 0);
        }
        let trace = obs.finish();
        assert!(!trace.enabled);
        assert!(trace.spans.is_empty());
        assert!(trace.histograms.is_empty());
        assert_eq!(trace.counter("prematch_pairs_scored"), 0);
        assert!(trace.timeline.is_none());
    }

    /// `trace` serialised without its `timeline` key, as a trace written
    /// before the timeline was always on reads.
    fn without_timeline(trace: &RunTrace) -> RunTrace {
        let mut json = serde_json::parse(&serde_json::to_string(trace).unwrap()).unwrap();
        let serde_json::Value::Map(entries) = &mut json else {
            panic!("trace must serialize to an object");
        };
        entries.retain(|(k, _)| !matches!(k, serde_json::Value::Str(s) if s == "timeline"));
        serde_json::from_str(&serde_json::to_string(&json).unwrap()).unwrap()
    }

    #[test]
    fn timeline_is_always_on_and_records_worker_events() {
        // a plain enabled collector records the timeline; a trace
        // without the section is the old-trace path, and still validates
        let obs = Collector::enabled();
        let t0 = obs.timeline_start().expect("enabled collectors time tasks");
        std::thread::sleep(Duration::from_millis(2));
        obs.timeline_task(1, EventKind::PrematchTask, 7, None, t0);
        {
            let _it = obs.iter_span(ITERATION_SPAN, 0, Some(0.7));
        }
        let trace = obs.finish();
        let old = without_timeline(&trace);
        assert!(old.timeline.is_none());
        old.validate_basic().unwrap();
        let tl = trace.timeline.as_ref().expect("timeline section");
        assert_eq!(tl.workers, 2);
        let tile = tl
            .events
            .iter()
            .find(|e| e.kind == EventKind::PrematchTask)
            .expect("prematch tile event");
        assert_eq!(tile.worker, 1);
        assert_eq!(tile.detail, 7);
        assert!(tile.duration_us >= 1_000);
        assert!(tl.active_us >= tile.duration_us);
        // the iteration span's start is the δ-boundary mark
        let mark = tl
            .events
            .iter()
            .find(|e| e.kind == EventKind::Iteration)
            .expect("iteration mark");
        assert_eq!((mark.worker, mark.iteration), (0, Some(0)));
        assert_eq!(mark.detail, score_bp(0.7));
        assert_eq!(mark.start_us, trace.spans[0].start_us);
    }

    #[test]
    fn driver_sections_record_on_worker_zero_without_busy_counts() {
        let obs = Collector::disabled();
        assert_eq!(obs.driver(DriverSection::Intern, None, || 7), 7);
        assert!(obs.finish().timeline.is_none());

        let obs = Collector::enabled();
        let out = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    obs.driver(DriverSection::Buckets, Some(3), || {
                        std::thread::sleep(Duration::from_millis(1));
                        "built"
                    })
                })
                .join()
                .unwrap()
        });
        assert_eq!(out, "built");
        let trace = obs.finish();
        let tl = trace.timeline.as_ref().expect("timeline section");
        let [e] = tl.events.as_slice() else {
            panic!("one event: {:?}", tl.events);
        };
        assert_eq!(
            (e.worker, e.kind, e.iteration),
            (0, EventKind::Driver, Some(3))
        );
        assert_eq!(
            DriverSection::from_code(e.detail),
            Some(DriverSection::Buckets)
        );
        assert!(e.duration_us >= 1_000);
        assert_eq!((tl.active_us, tl.utilization[0].busy_us), (0, 0));
        trace.validate_basic().unwrap();
    }

    #[test]
    fn every_task_event_is_kept() {
        // the log is unbounded: thousands of tasks on one worker all
        // reach the trace, in order
        let obs = Collector::enabled();
        for i in 0..5_000 {
            let t0 = obs.timeline_start().expect("enabled collectors time tasks");
            obs.timeline_task(0, EventKind::PrematchTask, i, None, t0);
        }
        let trace = obs.finish();
        let tl = trace.timeline.as_ref().expect("timeline section");
        assert_eq!(
            tl.events.iter().map(|e| e.detail).collect::<Vec<_>>(),
            (0..5_000).collect::<Vec<_>>()
        );
        assert_eq!(trace.histogram("chunk_us").map(|h| h.count), Some(5_000));
        trace.validate_basic().unwrap();
    }

    #[test]
    fn timeline_events_from_worker_threads_round_trip_through_json() {
        let obs = Collector::enabled();
        std::thread::scope(|scope| {
            for w in 0..3usize {
                let obs = &obs;
                scope.spawn(move || {
                    let t0 = obs.timeline_start().expect("timeline on");
                    obs.timeline_task(w, EventKind::PrematchTask, w as u64, None, t0);
                });
            }
        });
        {
            let _pm = obs.span("prematch");
        }
        let trace = obs.finish();
        let json = serde_json::to_string(&trace).unwrap();
        let back: RunTrace = serde_json::from_str(&json).unwrap();
        let tl = back.timeline.as_ref().expect("timeline survives serde");
        assert_eq!(tl.workers, 3);
        assert_eq!(tl.events.len(), 3);
        assert_eq!(tl.utilization.len(), 3);
        assert_eq!(back.timeline, trace.timeline);
    }

    #[test]
    fn spans_nest_and_inherit_iteration_tags() {
        let obs = Collector::enabled();
        {
            let _it = obs.iter_span(ITERATION_SPAN, 3, Some(0.65));
            let _pm = obs.span("prematch");
            let _pr = obs.span("profiles");
        }
        let trace = obs.finish();
        // innermost closes first
        assert_eq!(trace.spans[0].path, "iteration/prematch/profiles");
        assert_eq!(trace.spans[0].parent.as_deref(), Some("prematch"));
        assert_eq!(trace.spans[0].iteration, Some(3));
        assert_eq!(trace.spans[0].delta, Some(0.65));
        assert_eq!(trace.spans[0].depth, 2);
        assert_eq!(trace.spans[2].path, "iteration");
        assert_eq!(trace.spans[2].depth, 0);
    }

    #[test]
    fn span_paths_follow_from_closing_order_and_depth() {
        // sibling subtrees, a deeper nest and a later top-level span,
        // with task events logged between them
        let obs = Collector::enabled();
        {
            let _e = obs.span("enrich");
        }
        for i in 0..2 {
            let _it = obs.iter_span(ITERATION_SPAN, i, Some(0.7 - 0.05 * i as f64));
            {
                let _pm = obs.span("prematch");
                let _pr = obs.span("profiles");
                let t0 = obs.timeline_start().unwrap();
                obs.timeline_task(0, EventKind::PrematchTask, 0, None, t0);
            }
            let _sg = obs.span("subgraph");
        }
        {
            let _r = obs.span("remainder");
        }
        let trace = obs.finish();
        let rows: Vec<(&str, Option<&str>, usize, Option<usize>)> = trace
            .spans
            .iter()
            .map(|s| (s.path.as_str(), s.parent.as_deref(), s.depth, s.iteration))
            .collect();
        let it = Some("iteration");
        assert_eq!(
            rows,
            vec![
                ("enrich", None, 0, None),
                ("iteration/prematch/profiles", Some("prematch"), 2, Some(0)),
                ("iteration/prematch", it, 1, Some(0)),
                ("iteration/subgraph", it, 1, Some(0)),
                ("iteration", None, 0, Some(0)),
                ("iteration/prematch/profiles", Some("prematch"), 2, Some(1)),
                ("iteration/prematch", it, 1, Some(1)),
                ("iteration/subgraph", it, 1, Some(1)),
                ("iteration", None, 0, Some(1)),
                ("remainder", None, 0, None),
            ]
        );
        let marks = trace.timeline.as_ref().unwrap().events.iter();
        let marks: Vec<_> = marks.filter(|e| e.kind == EventKind::Iteration).collect();
        assert_eq!(marks.len(), 2);
    }

    #[test]
    fn phase_aggregation_counts_calls_and_sums_time() {
        let obs = Collector::enabled();
        for i in 0..3 {
            let _it = obs.iter_span(ITERATION_SPAN, i, Some(0.7 - 0.05 * i as f64));
            let _pm = obs.span("prematch");
        }
        {
            let _r = obs.span("remainder");
        }
        let trace = obs.finish();
        let pm = trace.phase("prematch").expect("prematch aggregated");
        assert_eq!(pm.calls, 3);
        assert!(trace.phase("remainder").is_some());
        // the iteration grouping span is not itself a phase
        assert!(trace.phase(ITERATION_SPAN).is_none());
        assert_eq!(trace.iterations.len(), 3);
        assert_eq!(trace.iterations[0].index, 0);
        assert!((trace.iterations[2].delta - 0.6).abs() < 1e-9);
        assert_eq!(trace.iterations[1].phases.len(), 1);
    }

    #[test]
    fn counters_accumulate_and_report_by_name() {
        let obs = Collector::enabled();
        obs.add(Counter::EarlyExitPrunes, 5);
        obs.add(Counter::EarlyExitPrunes, 7);
        obs.add(Counter::ProfilesBuilt, 2);
        obs.add(Counter::ProfilesReused, 6);
        let trace = obs.finish();
        assert_eq!(trace.counter("early_exit_prunes"), 12);
        assert!((trace.profile_cache_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn chunk_timings_are_recorded_from_any_thread() {
        // each task is one timeline event; chunk_us is derived from the
        // scoring tasks, not from iteration marks or queue waits
        let obs = Collector::enabled();
        {
            let _it = obs.iter_span(ITERATION_SPAN, 0, Some(0.7));
            std::thread::scope(|scope| {
                for w in 0..4 {
                    let obs = &obs;
                    scope.spawn(move || {
                        let t0 = obs.timeline_start().expect("timeline on");
                        obs.timeline_task(w, EventKind::SubgraphChunk, w as u64, Some(0), t0);
                    });
                }
            });
        }
        let trace = obs.finish();
        assert_eq!(trace.histogram("chunk_us").map(|h| h.count), Some(4));
        let tl = trace.timeline.as_ref().expect("timeline section");
        let mut workers: Vec<u32> = tl
            .events
            .iter()
            .filter(|e| e.kind == EventKind::SubgraphChunk)
            .map(|e| e.worker)
            .collect();
        workers.sort_unstable();
        assert_eq!(workers, vec![0, 1, 2, 3]);
        // a trace without the timeline section keeps its chunk_us
        let old = without_timeline(&trace);
        assert!(old.timeline.is_none());
        assert_eq!(old.histogram("chunk_us"), trace.histogram("chunk_us"));
    }

    #[test]
    fn trace_round_trips_through_json() {
        let obs = Collector::enabled();
        {
            let _it = obs.iter_span(ITERATION_SPAN, 0, Some(0.7));
            let _pm = obs.span("prematch");
            obs.add(Counter::PrematchPairsScored, 11);
        }
        let trace = obs.finish();
        let json = serde_json::to_string(&trace).unwrap();
        let back: RunTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back.iterations.len(), 1);
        assert_eq!(back.counter("prematch_pairs_scored"), 11);
        assert_eq!(back.spans.len(), trace.spans.len());
    }

    #[test]
    fn panic_inside_span_still_closes_it() {
        let obs = Collector::enabled();
        {
            let _outer = obs.span("enrich");
        }
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _inner = obs.span("prematch");
            obs.add(Counter::PrematchPairsScored, 3);
            panic!("scoring blew up");
        }));
        assert!(caught.is_err());
        let trace = obs.finish();
        // the guard's Drop ran during unwinding, so the span is closed
        assert!(trace.phase("prematch").is_some());
        assert_eq!(trace.counter("prematch_pairs_scored"), 3);
        trace
            .validate_basic()
            .expect("trace valid after caught panic");
    }

    #[test]
    fn panicking_worker_thread_does_not_poison_the_collector() {
        let obs = Collector::enabled();
        let result = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _span = obs.span("subgraph");
                    let t0 = obs.timeline_start().expect("timeline on");
                    obs.timeline_task(0, EventKind::SubgraphChunk, 0, None, t0);
                    panic!("worker died mid-span");
                })
                .join()
        });
        assert!(result.is_err());
        // the main thread can keep instrumenting and finish cleanly
        {
            let _s = obs.span("selection");
            obs.observe(LiveHist::SubgraphSize, 4);
        }
        let trace = obs.finish();
        assert!(trace.phase("subgraph").is_some());
        assert!(trace.phase("selection").is_some());
        assert_eq!(trace.histogram("chunk_us").map(|h| h.count), Some(1));
        trace
            .validate_basic()
            .expect("trace valid after worker panic");
    }

    #[test]
    fn live_histograms_flow_into_the_trace() {
        let obs = Collector::enabled();
        obs.observe(LiveHist::PairScore, score_bp(0.8));
        obs.observe(LiveHist::PairScore, score_bp(0.6));
        let mut local = Histogram::new();
        local.record(3);
        local.record(7);
        obs.observe_hist(LiveHist::SubgraphSize, &local);
        {
            let _s = obs.span("prematch");
        }
        let trace = obs.finish();
        assert_eq!(trace.histogram("pair_agg_sim_bp").unwrap().count, 2);
        assert_eq!(trace.histogram("subgraph_size").unwrap().count, 2);
        assert_eq!(trace.histogram("subgraph_size").unwrap().max, 7);
        // derived phase-latency histogram appears alongside
        assert_eq!(trace.histogram("phase_us_prematch").unwrap().count, 1);
        trace.validate_basic().unwrap();

        let off = Collector::disabled();
        off.observe(LiveHist::PairScore, 1);
        off.observe_hist(LiveHist::SubgraphSize, &local);
        assert!(off.finish().histograms.is_empty());
    }

    #[test]
    fn decision_log_is_opt_in_and_bounded() {
        let obs = Collector::enabled();
        assert!(!obs.decisions_enabled());
        assert_eq!(obs.decision_top_k(), 0);
        obs.decide(DecisionRecord::Remainder(RemainderDecision {
            old_record: 1,
            new_record: 2,
            old_group: 3,
            new_group: 4,
            agg_sim: 0.9,
        }));
        assert!(obs.take_decisions().is_none());

        let obs = Collector::enabled().with_decisions(DecisionConfig {
            max_links: 1,
            max_rejections: 8,
            top_k: 2,
        });
        assert!(obs.decisions_enabled());
        assert_eq!(obs.decision_top_k(), 2);
        for r in 0..3 {
            obs.decide(DecisionRecord::Remainder(RemainderDecision {
                old_record: r,
                new_record: r,
                old_group: r,
                new_group: r,
                agg_sim: 0.5,
            }));
        }
        let log = obs.take_decisions().unwrap();
        assert_eq!(log.len(), 1);
        assert_eq!(log.dropped_links, 2);
        // taking leaves an empty log behind
        assert!(obs.take_decisions().unwrap().is_empty());

        // a disabled collector never records decisions, even when asked
        let off = Collector::disabled().with_decisions(DecisionConfig::default());
        assert!(!off.decisions_enabled());
        assert!(off.take_decisions().is_none());
    }

    #[test]
    fn truth_telemetry_is_opt_in_and_flows_into_the_trace() {
        let rejected = |old_group, new_group, reason| {
            DecisionRecord::Rejected(RejectedCandidate {
                iteration: 0,
                delta: 0.7,
                old_group,
                new_group,
                g_sim: 0.4,
                subgraph_size: 2,
                reason,
                winner: None,
            })
        };
        let remainder = |old_record, new_record| {
            DecisionRecord::Remainder(RemainderDecision {
                old_record,
                new_record,
                old_group: 10,
                new_group: 20,
                agg_sim: 0.8,
            })
        };
        // enabled but without with_truth: decisions feed no truth state
        let obs = Collector::enabled();
        assert!(!obs.audit_enabled());
        obs.decide(rejected(1, 2, RejectionReason::TieBreak));
        assert!(obs.truth_audit(|_, _| ()).is_none());
        assert!(obs.finish().quality.is_none());

        let obs = Collector::enabled().with_truth(TruthConfig {
            record_pairs: vec![(1, 2), (3, 4)],
            group_pairs: vec![(10, 20)],
        });
        assert!(obs.audit_enabled() && !obs.decisions_enabled());
        // the latest rejection of a household pair wins
        obs.decide(rejected(10, 20, RejectionReason::LowerGSim));
        obs.decide(rejected(10, 20, RejectionReason::BelowMinGSim));
        obs.decide(rejected(11, 21, RejectionReason::TieBreak));
        let (pairs, reasons) = obs
            .truth_audit(|tc, rejected| (tc.record_pairs.len(), rejected.clone()))
            .unwrap();
        assert_eq!(pairs, 2);
        assert_eq!(reasons.len(), 2);
        assert_eq!(reasons[&(10, 20)], RejectionReason::BelowMinGSim);
        // only true pairs count towards the coverage gauge
        obs.decide(remainder(9, 9));
        obs.decide(remainder(1, 2));
        assert_eq!(lock_or_recover(obs.truth.as_ref().unwrap()).recovered, 1);
        // no quality section unless the pipeline finalised one
        assert!(obs.finish().quality.is_none());
        let section = QualitySection {
            records: QualityCounts::from_counts(1, 2, 1),
            groups: QualityCounts::from_counts(1, 1, 1),
            funnel: RecallFunnel {
                total: 2,
                recovered_selection: 1,
                recovered_remainder: 0,
                missing_endpoint: 0,
                not_blocked: 1,
                age_filtered: 0,
                below_delta: 0,
                lost_selection: 0,
                lost_remainder: 0,
                delta_floor: 0.5,
                blocking: BlockingMisses::default(),
                selection: SelectionLosses::default(),
            },
            per_iteration: vec![IterationQuality {
                iteration: 0,
                delta: 0.7,
                recovered: 1,
            }],
            bands: vec![
                SimBand {
                    lo_bp: 3000,
                    hi_bp: 3500,
                    truth_pairs: 1,
                    recovered: 0,
                },
                SimBand {
                    lo_bp: 9000,
                    hi_bp: 9500,
                    truth_pairs: 1,
                    recovered: 1,
                },
            ],
        };
        obs.set_quality(section.clone());
        let trace = obs.finish();
        assert_eq!(trace.quality.as_ref(), Some(&section));
        trace.validate_basic().unwrap();
        let json = serde_json::to_string(&trace).unwrap();
        let back: RunTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back.quality, trace.quality);

        // a disabled collector never tracks truth, even when asked
        let off = Collector::disabled().with_truth(TruthConfig::default());
        assert!(!off.audit_enabled());
        assert!(off.truth_audit(|_, _| ()).is_none());
    }

    #[test]
    fn sink_records_labelled_traces_only_when_enabled() {
        let mut sink = TraceSink::disabled();
        let obs = sink.collector();
        assert!(!obs.is_enabled());
        sink.record("run-1", &obs);
        assert!(sink.traces.is_empty());

        let mut sink = TraceSink::enabled();
        let obs = sink.collector();
        {
            let _s = obs.span("prematch");
        }
        sink.record("run-1", &obs);
        let multi = sink.into_multi();
        assert_eq!(multi.runs.len(), 1);
        assert_eq!(multi.runs[0].label, "run-1");
    }

    #[test]
    fn empty_multi_trace_validates_and_serialises() {
        let multi = TraceSink::enabled().into_multi();
        assert!(multi.runs.is_empty());
        multi.validate().unwrap();
        assert!(multi.run("anything").is_none());
        let json = serde_json::to_string(&multi).unwrap();
        let back: MultiTrace = serde_json::from_str(&json).unwrap();
        assert!(back.runs.is_empty());
    }

    #[test]
    fn duplicate_labels_are_kept_and_lookup_returns_the_first() {
        let mut sink = TraceSink::enabled();
        let first = sink.collector();
        first.add(Counter::RecordLinks, 1);
        sink.record("pair", &first);
        let second = sink.collector();
        second.add(Counter::RecordLinks, 2);
        sink.record("pair", &second);
        let multi = sink.into_multi();
        assert_eq!(multi.runs.len(), 2);
        multi.validate().unwrap();
        assert_eq!(multi.run("pair").unwrap().counter("record_links"), 1);
    }

    #[test]
    fn into_multi_on_disabled_sink_is_empty() {
        let mut sink = TraceSink::disabled();
        let obs = sink.collector();
        sink.record("dropped", &obs);
        let multi = sink.into_multi();
        assert!(multi.runs.is_empty());
        multi.validate().unwrap();
    }
}
