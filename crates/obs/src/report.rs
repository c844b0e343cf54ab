//! The serialisable trace report assembled from a [`crate::Collector`].

use crate::footprint::FootprintSnapshot;
use crate::hist::{Histogram, NamedHistogram};
use crate::progress::fmt_bytes;
use crate::quality::QualitySection;
use crate::timeline::{Timeline, ROUNDING_SLACK_US};
use crate::{Counter, ITERATION_SPAN};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One finished span, with timings relative to the collector's epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Span name (e.g. `"prematch"`).
    pub name: String,
    /// Slash-joined ancestry (e.g. `"iteration/prematch/profiles"`).
    pub path: String,
    /// Name of the enclosing span, if any.
    pub parent: Option<String>,
    /// Nesting depth (0 = top level).
    pub depth: usize,
    /// δ-iteration index this span belongs to (own tag or inherited).
    pub iteration: Option<usize>,
    /// δ value of that iteration, when known.
    pub delta: Option<f64>,
    /// Start offset from the collector's construction, in microseconds.
    pub start_us: u64,
    /// Wall-clock duration, in microseconds.
    pub duration_us: u64,
}

/// Aggregated statistics of one phase (all spans sharing a name).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseStat {
    /// Phase name.
    pub name: String,
    /// Number of spans aggregated.
    pub calls: u64,
    /// Total wall time, in microseconds.
    pub total_us: u64,
}

/// One δ iteration's timing breakdown.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IterationTrace {
    /// Iteration index (0-based, in execution order).
    pub index: usize,
    /// Threshold δ of the iteration.
    pub delta: f64,
    /// Wall time of the whole iteration, in microseconds.
    pub total_us: u64,
    /// Per-phase breakdown (direct children of the iteration span).
    pub phases: Vec<PhaseStat>,
}

/// One named counter value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterValue {
    /// Stable snake_case counter name.
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// Per-phase memory attribution from the counting allocator.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseMem {
    /// Phase name (an [`crate::alloc::PHASE_SLOTS`] entry).
    pub name: String,
    /// Bytes allocated while the phase was active.
    pub alloc_bytes: u64,
    /// Allocations while the phase was active.
    pub allocs: u64,
    /// Peak of global live bytes observed while the phase was active.
    pub peak_live_bytes: u64,
}

/// The run's allocation counters, present when the collector ran with
/// [`crate::Collector::with_memory`] under an installed
/// [`crate::CountingAlloc`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryStats {
    /// Total bytes allocated over the run.
    pub bytes_allocated: u64,
    /// Number of allocations.
    pub allocs: u64,
    /// Number of frees.
    pub frees: u64,
    /// Live bytes when the trace was finished (clamped to zero).
    pub live_bytes_at_finish: u64,
    /// Peak of live bytes over the run.
    pub peak_live_bytes: u64,
    /// Per-phase attribution; phases that saw no allocation are
    /// omitted.
    pub phases: Vec<PhaseMem>,
}

/// A point event recorded during the run (e.g. a memory-budget
/// fallback), tagged with the phase and δ iteration it occurred in.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Stable event name (e.g. `"mem_fallback_pair_cache"`).
    pub name: String,
    /// Phase active when the event fired (`""` outside spans).
    pub phase: String,
    /// δ-iteration of that phase, when inside one.
    pub iteration: Option<usize>,
    /// Free-form detail (e.g. the estimate that tripped the budget).
    pub detail: String,
}

/// Per-shard telemetry of the retired sharded engine, kept so traces it
/// wrote still load. Nothing records these rows any more.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardStat {
    /// Shard index within the plan.
    pub shard: usize,
    /// Blocking keys assigned to the shard.
    pub keys: u64,
    /// Candidate pairs the shard owned.
    pub pairs: u64,
    /// Pairs at or above the pre-matching threshold.
    pub matched: u64,
    /// Heap bytes of the shard's similarity tables.
    pub sim_table_bytes: u64,
    /// Total cells of the shard's similarity tables.
    pub sim_table_cells: u64,
    /// Wall time spent scoring the shard, in microseconds.
    pub duration_us: u64,
}

/// The full trace of one pipeline run: total wall time, aggregated
/// phases, per-δ-iteration breakdown, counters and the raw spans.
/// Traces written when each parallel task was also recorded as a
/// `chunks` row still load: unknown keys are ignored.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunTrace {
    /// Whether the collector was enabled (a disabled collector still
    /// yields a trace, with everything empty).
    pub enabled: bool,
    /// Total wall time from collector construction to
    /// [`crate::Collector::finish`], in microseconds.
    pub total_us: u64,
    /// Aggregated phase statistics. A *phase* is a top-level span or a
    /// direct child of the `iteration` grouping span, so phase times are
    /// pairwise disjoint slices of the run and their sum is bounded by
    /// `total_us`.
    pub phases: Vec<PhaseStat>,
    /// Per-δ-iteration breakdown, in execution order.
    pub iterations: Vec<IterationTrace>,
    /// All counters, including zero-valued ones.
    pub counters: Vec<CounterValue>,
    /// The raw spans, innermost-first within each nest.
    pub spans: Vec<SpanRecord>,
    /// Distribution telemetry: live-sampled histograms (pair `agg_sim`
    /// scores, subgraph sizes) plus `phase_us_*`/`chunk_us` latency
    /// histograms derived from the spans and the timeline's scoring
    /// tasks. Empty histograms are omitted. Defaults to empty when reading a trace
    /// written before histograms existed.
    #[serde(default)]
    pub histograms: Vec<NamedHistogram>,
    /// Allocation counters and the per-phase memory table, when the
    /// run tracked memory. Absent (`None`) otherwise, and when reading
    /// a trace written before memory tracking existed.
    #[serde(default)]
    pub memory: Option<MemoryStats>,
    /// Footprint snapshots of the pipeline's large structures, taken at
    /// phase boundaries. Defaults to empty on older traces.
    #[serde(default)]
    pub footprints: Vec<FootprintSnapshot>,
    /// Point events (memory-budget fallbacks and the like). Defaults to
    /// empty on older traces.
    #[serde(default)]
    pub events: Vec<TraceEvent>,
    /// Per-shard rows of traces written by the retired sharded engine;
    /// always empty for new runs.
    #[serde(default)]
    pub shards: Vec<ShardStat>,
    /// Per-worker execution timeline and derived scheduler analytics;
    /// every enabled collector records one. Absent on traces written
    /// before the timeline was always on, unless that run opted in.
    #[serde(default)]
    pub timeline: Option<Timeline>,
    /// Ground-truth quality telemetry — precision/recall/F1 and the
    /// recall-loss funnel — when the run loaded truth mappings
    /// ([`crate::Collector::with_truth`]). Absent otherwise, and on
    /// traces written before quality telemetry existed.
    #[serde(default)]
    pub quality: Option<QualitySection>,
}

/// The phase names of a full `link` pipeline run, in execution order.
pub const PIPELINE_PHASES: [&str; 5] = ["enrich", "prematch", "subgraph", "selection", "remainder"];

impl RunTrace {
    /// Assemble a trace from the collector's raw state.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        enabled: bool,
        total_us: u64,
        spans: Vec<SpanRecord>,
        counters: Vec<CounterValue>,
        live_hists: Vec<NamedHistogram>,
        memory: Option<MemoryStats>,
        footprints: Vec<FootprintSnapshot>,
        events: Vec<TraceEvent>,
        timeline: Option<Timeline>,
        quality: Option<QualitySection>,
    ) -> Self {
        // phases: top-level spans plus direct children of `iteration`
        let is_phase = |s: &SpanRecord| {
            s.name != ITERATION_SPAN
                && (s.parent.is_none() || s.parent.as_deref() == Some(ITERATION_SPAN))
        };
        let mut phases: Vec<PhaseStat> = Vec::new();
        for s in spans.iter().filter(|s| is_phase(s)) {
            match phases.iter_mut().find(|p| p.name == s.name) {
                Some(p) => {
                    p.calls += 1;
                    p.total_us += s.duration_us;
                }
                None => phases.push(PhaseStat {
                    name: s.name.clone(),
                    calls: 1,
                    total_us: s.duration_us,
                }),
            }
        }

        let mut iterations: Vec<IterationTrace> = spans
            .iter()
            .filter(|s| s.name == ITERATION_SPAN && s.depth == 0)
            .map(|s| IterationTrace {
                index: s.iteration.unwrap_or(0),
                delta: s.delta.unwrap_or(f64::NAN),
                total_us: s.duration_us,
                phases: Vec::new(),
            })
            .collect();
        iterations.sort_by_key(|it| it.index);
        for it in &mut iterations {
            for s in spans.iter().filter(|s| {
                s.iteration == Some(it.index) && s.parent.as_deref() == Some(ITERATION_SPAN)
            }) {
                match it.phases.iter_mut().find(|p| p.name == s.name) {
                    Some(p) => {
                        p.calls += 1;
                        p.total_us += s.duration_us;
                    }
                    None => it.phases.push(PhaseStat {
                        name: s.name.clone(),
                        calls: 1,
                        total_us: s.duration_us,
                    }),
                }
            }
        }

        // derived latency histograms: per-phase span durations and the
        // wall times of the timeline's scoring tasks
        let mut histograms: Vec<NamedHistogram> = live_hists
            .into_iter()
            .filter(|h| !h.hist.is_empty())
            .collect();
        for p in &phases {
            let mut hist = Histogram::new();
            for s in spans.iter().filter(|s| is_phase(s) && s.name == p.name) {
                hist.record(s.duration_us);
            }
            if !hist.is_empty() {
                histograms.push(NamedHistogram {
                    name: format!("phase_us_{}", p.name),
                    unit: "us".to_owned(),
                    hist,
                });
            }
        }
        let mut chunk_hist = Histogram::new();
        let tasks = timeline.iter().flat_map(|tl| &tl.events);
        for e in tasks.filter(|e| e.kind.phase().is_some()) {
            chunk_hist.record(e.duration_us);
        }
        if !chunk_hist.is_empty() {
            histograms.push(NamedHistogram {
                name: "chunk_us".to_owned(),
                unit: "us".to_owned(),
                hist: chunk_hist,
            });
        }

        Self {
            enabled,
            total_us,
            phases,
            iterations,
            counters,
            spans,
            histograms,
            memory,
            footprints,
            events,
            shards: Vec::new(),
            timeline,
            quality,
        }
    }

    /// The aggregated statistics of one phase, if it was recorded.
    #[must_use]
    pub fn phase(&self, name: &str) -> Option<&PhaseStat> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Value of a counter by its snake_case name (0 if absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    /// A histogram by its name, if present (empty ones are omitted).
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|h| h.name == name)
            .map(|h| &h.hist)
    }

    /// Largest snapshotted footprint bytes of one structure, if it was
    /// ever snapshotted.
    #[must_use]
    pub fn max_footprint_bytes(&self, structure: &str) -> Option<u64> {
        self.footprints
            .iter()
            .filter(|f| f.structure == structure)
            .map(|f| f.bytes)
            .max()
    }

    /// Fraction of profile lookups served from the cross-iteration
    /// cache: `reused / (built + reused)`, or 0 with no lookups.
    #[must_use]
    pub fn profile_cache_hit_rate(&self) -> f64 {
        let built = self.counter("profiles_built");
        let reused = self.counter("profiles_reused");
        if built + reused == 0 {
            0.0
        } else {
            reused as f64 / (built + reused) as f64
        }
    }

    /// Fraction of pre-matching pair scorings cut short by the
    /// early-exit bound: `early_exit_prunes / pairs scored`, or 0.
    #[must_use]
    pub fn early_exit_rate(&self) -> f64 {
        let scored = self.counter("prematch_pairs_scored") + self.counter("remainder_pairs_scored");
        if scored == 0 {
            0.0
        } else {
            self.counter("early_exit_prunes") as f64 / scored as f64
        }
    }

    /// Fraction of scoring-kernel probes served without recomputation:
    /// `1 − unique/probes`, or 0 when the kernel did not run.
    #[must_use]
    pub fn batch_dedup_rate(&self) -> f64 {
        let probes = self.counter("pair_score_batch_probes");
        if probes == 0 {
            0.0
        } else {
            1.0 - self.counter("pair_score_batched_unique") as f64 / probes as f64
        }
    }

    /// Structural validation every trace must satisfy: phase and
    /// iteration times are non-overlapping slices of the run, so their
    /// sums may not exceed the enclosing wall time, and iteration deltas
    /// must be valid thresholds in strictly decreasing order.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first violated invariant.
    pub fn validate_basic(&self) -> Result<(), String> {
        let phase_sum: u64 = self.phases.iter().map(|p| p.total_us).sum();
        if phase_sum > self.total_us {
            return Err(format!(
                "phase times sum to {phase_sum}µs, exceeding total wall time {}µs",
                self.total_us
            ));
        }
        for it in &self.iterations {
            let sum: u64 = it.phases.iter().map(|p| p.total_us).sum();
            if sum > it.total_us {
                return Err(format!(
                    "iteration {} phase times sum to {sum}µs, exceeding its {}µs",
                    it.index, it.total_us
                ));
            }
            if !(0.0..=1.0).contains(&it.delta) {
                return Err(format!(
                    "iteration {} has out-of-range δ {}",
                    it.index, it.delta
                ));
            }
        }
        for w in self.iterations.windows(2) {
            if w[1].delta >= w[0].delta {
                return Err(format!(
                    "iteration deltas must strictly decrease: {} then {}",
                    w[0].delta, w[1].delta
                ));
            }
        }
        for c in &self.counters {
            if !Counter::ALL.iter().any(|k| k.name() == c.name) {
                return Err(format!("trace has unknown counter {:?}", c.name));
            }
        }
        for h in &self.histograms {
            h.hist
                .validate()
                .map_err(|e| format!("histogram {:?}: {e}", h.name))?;
        }
        if let Some(mem) = &self.memory {
            if mem.peak_live_bytes < mem.live_bytes_at_finish {
                return Err(format!(
                    "memory peak {} is below live-at-finish {}",
                    mem.peak_live_bytes, mem.live_bytes_at_finish
                ));
            }
            let phase_sum: u64 = mem.phases.iter().map(|p| p.alloc_bytes).sum();
            if phase_sum > mem.bytes_allocated {
                return Err(format!(
                    "per-phase alloc bytes sum to {phase_sum}, exceeding total {}",
                    mem.bytes_allocated
                ));
            }
            let phase_allocs: u64 = mem.phases.iter().map(|p| p.allocs).sum();
            if phase_allocs > mem.allocs {
                return Err(format!(
                    "per-phase alloc counts sum to {phase_allocs}, exceeding total {}",
                    mem.allocs
                ));
            }
            for p in &mem.phases {
                if p.peak_live_bytes > mem.peak_live_bytes {
                    return Err(format!(
                        "phase {:?} peak live {} exceeds global peak {}",
                        p.name, p.peak_live_bytes, mem.peak_live_bytes
                    ));
                }
            }
        }
        for f in &self.footprints {
            if f.structure.is_empty() {
                return Err("footprint snapshot with an empty structure name".to_owned());
            }
            if f.elements > 0 && f.bytes == 0 {
                return Err(format!(
                    "footprint {:?} reports {} element(s) in zero bytes",
                    f.structure, f.elements
                ));
            }
        }
        if let Some(tl) = &self.timeline {
            tl.validate(self.total_us)?;
        }
        if let Some(q) = &self.quality {
            q.validate().map_err(|e| format!("quality: {e}"))?;
        }
        Ok(())
    }

    /// [`RunTrace::validate_basic`] plus the invariants of a full `link`
    /// run: every pipeline phase present, at least one δ iteration with
    /// contiguous 0-based indices, and sibling spans pairwise disjoint in
    /// time — the pipeline runs its phases and δ iterations sequentially
    /// on the driver thread, so two spans at the same nesting level
    /// overlapping in wall time (e.g. two iteration spans, or `enrich`
    /// bleeding into an iteration) can only come from a corrupted or
    /// hand-doctored trace.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first violated invariant.
    pub fn validate_pipeline(&self) -> Result<(), String> {
        self.validate_basic()?;
        for required in PIPELINE_PHASES {
            if self.phase(required).is_none() {
                return Err(format!("trace is missing pipeline phase {required:?}"));
            }
        }
        if self.iterations.is_empty() {
            return Err("trace has no δ iterations".to_owned());
        }
        for (k, it) in self.iterations.iter().enumerate() {
            if it.index != k {
                return Err(format!(
                    "iteration indices must be contiguous from 0: position {k} has index {}",
                    it.index
                ));
            }
        }
        self.validate_disjoint_siblings()?;
        self.validate_timeline_containment()
    }

    /// Every phase-scoped timeline event must fall inside a span of its
    /// phase (timestamps truncate independently to whole µs, so the
    /// window is slackened by [`ROUNDING_SLACK_US`] on both ends).
    /// Scheduler-level events (iteration boundaries, queue waits) are
    /// exempt — they can legitimately straddle phase boundaries.
    fn validate_timeline_containment(&self) -> Result<(), String> {
        let Some(tl) = &self.timeline else {
            return Ok(());
        };
        for e in &tl.events {
            let Some(phase) = e.kind.phase() else {
                continue;
            };
            let contained = self.spans.iter().any(|s| {
                s.name == phase
                    && e.start_us.saturating_add(ROUNDING_SLACK_US) >= s.start_us
                    && e.end_us() <= s.start_us + s.duration_us + ROUNDING_SLACK_US
            });
            if !contained {
                return Err(format!(
                    "timeline event {:?} on worker {} [{}µs..{}µs) falls outside every {phase:?} span",
                    e.kind.name(),
                    e.worker,
                    e.start_us,
                    e.end_us()
                ));
            }
        }
        Ok(())
    }

    /// Reject sibling spans that overlap in wall time. All top-level
    /// spans form one sibling group (δ iterations and top-level phases
    /// are disjoint slices of the run regardless of their iteration
    /// tags); nested spans are siblings when they share parent name,
    /// depth and δ iteration. Intervals are half-open, so spans that
    /// merely touch — and zero-duration spans — never overlap.
    fn validate_disjoint_siblings(&self) -> Result<(), String> {
        use std::collections::HashMap;
        type GroupKey<'a> = (Option<&'a str>, usize, Option<usize>);
        let mut groups: HashMap<GroupKey<'_>, Vec<&SpanRecord>> = HashMap::new();
        for s in &self.spans {
            let key = if s.depth == 0 && s.parent.is_none() {
                (None, 0, None)
            } else {
                (s.parent.as_deref(), s.depth, s.iteration)
            };
            groups.entry(key).or_default().push(s);
        }
        for siblings in groups.values_mut() {
            siblings.retain(|s| s.duration_us > 0);
            siblings.sort_by_key(|s| (s.start_us, s.duration_us));
            // sweep with the furthest end seen so far, so an overlap is
            // caught even when a short span sits between the two culprits
            let mut reach: Option<&SpanRecord> = None;
            for &s in siblings.iter() {
                if let Some(r) = reach {
                    if s.start_us < r.start_us + r.duration_us {
                        return Err(format!(
                            "sibling spans overlap in time: {:?} [{}µs..{}µs) and {:?} [{}µs..{}µs)",
                            r.path,
                            r.start_us,
                            r.start_us + r.duration_us,
                            s.path,
                            s.start_us,
                            s.start_us + s.duration_us
                        ));
                    }
                }
                if reach.is_none_or(|r| s.start_us + s.duration_us > r.start_us + r.duration_us) {
                    reach = Some(s);
                }
            }
        }
        Ok(())
    }

    /// Render the human-readable phase table (`--verbose`).
    #[must_use]
    pub fn phase_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "phase               calls        time    % wall");
        for p in &self.phases {
            let pct = if self.total_us == 0 {
                0.0
            } else {
                p.total_us as f64 / self.total_us as f64 * 100.0
            };
            let _ = writeln!(
                out,
                "{:<18} {:>6}  {:>10}  {:>7.1}%",
                p.name,
                p.calls,
                fmt_us(p.total_us),
                pct
            );
        }
        let _ = writeln!(
            out,
            "{:<18} {:>6}  {:>10}",
            "total wall",
            "",
            fmt_us(self.total_us)
        );
        if !self.iterations.is_empty() {
            let _ = writeln!(out, "\nper δ-iteration:");
            for it in &self.iterations {
                let mut line = format!(
                    "  #{} δ={:.2}  total {}",
                    it.index,
                    it.delta,
                    fmt_us(it.total_us)
                );
                for p in &it.phases {
                    let _ = write!(line, "  {} {}", p.name, fmt_us(p.total_us));
                }
                let _ = writeln!(out, "{line}");
            }
        }
        let shown: Vec<&CounterValue> = self.counters.iter().filter(|c| c.value > 0).collect();
        if !shown.is_empty() {
            let _ = writeln!(out, "\ncounters:");
            for c in shown {
                let _ = writeln!(out, "  {:<24} {:>12}", c.name, c.value);
            }
            let _ = writeln!(
                out,
                "  {:<24} {:>11.1}%",
                "profile_cache_hit_rate",
                self.profile_cache_hit_rate() * 100.0
            );
            let _ = writeln!(
                out,
                "  {:<24} {:>11.1}%",
                "early_exit_rate",
                self.early_exit_rate() * 100.0
            );
            if self.counter("pair_score_batch_probes") > 0 {
                let _ = writeln!(
                    out,
                    "  {:<24} {:>11.1}%",
                    "batch_dedup_rate",
                    self.batch_dedup_rate() * 100.0
                );
            }
        }
        if let Some(mem) = &self.memory {
            let _ = writeln!(out, "\nmemory:");
            let _ = writeln!(
                out,
                "  {:<18} {:>10} {:>10} {:>10}",
                "phase", "alloc", "allocs", "peak live"
            );
            for p in &mem.phases {
                let _ = writeln!(
                    out,
                    "  {:<18} {:>10} {:>10} {:>10}",
                    p.name,
                    fmt_bytes(p.alloc_bytes),
                    p.allocs,
                    fmt_bytes(p.peak_live_bytes)
                );
            }
            let _ = writeln!(
                out,
                "  {:<18} {:>10} {:>10} {:>10}  (live at finish {}, {} frees)",
                "total",
                fmt_bytes(mem.bytes_allocated),
                mem.allocs,
                fmt_bytes(mem.peak_live_bytes),
                fmt_bytes(mem.live_bytes_at_finish),
                mem.frees
            );
        }
        if !self.footprints.is_empty() {
            let _ = writeln!(out, "\nfootprints (largest snapshot per structure):");
            let mut seen: Vec<&str> = Vec::new();
            for f in &self.footprints {
                if seen.contains(&f.structure.as_str()) {
                    continue;
                }
                seen.push(&f.structure);
                let bytes = self.max_footprint_bytes(&f.structure).unwrap_or(0);
                let elements = self
                    .footprints
                    .iter()
                    .filter(|s| s.structure == f.structure)
                    .map(|s| s.elements)
                    .max()
                    .unwrap_or(0);
                let _ = writeln!(
                    out,
                    "  {:<24} {:>10}  {:>12} elements",
                    f.structure,
                    fmt_bytes(bytes),
                    elements
                );
            }
        }
        if let Some(tl) = &self.timeline {
            let _ = writeln!(
                out,
                "\ntimeline: {} event(s) on {} worker(s), active window {}",
                tl.events.len(),
                tl.workers,
                fmt_us(tl.active_us)
            );
            let _ = writeln!(
                out,
                "  {:<8} {:>10} {:>8} {:>8}",
                "worker", "busy", "events", "util"
            );
            for u in &tl.utilization {
                let _ = writeln!(
                    out,
                    "  {:<8} {:>10} {:>8} {:>7.1}%",
                    u.worker,
                    fmt_us(u.busy_us),
                    u.events,
                    u.utilization * 100.0
                );
            }
            let _ = writeln!(
                out,
                "  mean utilization {:.1}%, critical path {}",
                tl.mean_utilization() * 100.0,
                fmt_us(tl.critical_path_us)
            );
        }
        if let Some(q) = &self.quality {
            let _ = writeln!(out);
            out.push_str(&q.render());
        }
        if !self.events.is_empty() {
            let _ = writeln!(out, "\nevents:");
            for e in &self.events {
                let at = if e.phase.is_empty() {
                    String::new()
                } else if let Some(i) = e.iteration {
                    format!(" [{} #{}]", e.phase, i)
                } else {
                    format!(" [{}]", e.phase)
                };
                let _ = writeln!(out, "  {}{at}  {}", e.name, e.detail);
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(out, "\nhistograms:");
            let _ = writeln!(
                out,
                "  {:<24} {:>10} {:>10} {:>10} {:>10}",
                "name", "count", "p50", "p99", "max"
            );
            for h in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {:<24} {:>10} {:>10} {:>10} {:>10}  {}",
                    h.name,
                    h.hist.count,
                    h.hist.percentile(0.5),
                    h.hist.percentile(0.99),
                    h.hist.max,
                    h.unit
                );
            }
        }
        out
    }
}

/// One trace with the label of the run that produced it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LabeledTrace {
    /// Human-readable run label (e.g. `"ω2 δ_low=0.50"` or `"1851→1861"`).
    pub label: String,
    /// The run's trace.
    pub trace: RunTrace,
}

/// Several labelled traces in one document (an `evolve` run, an
/// experiment sweep).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiTrace {
    /// The traces, in run order.
    pub runs: Vec<LabeledTrace>,
}

impl MultiTrace {
    /// The trace recorded under `label`, if any.
    #[must_use]
    pub fn run(&self, label: &str) -> Option<&RunTrace> {
        self.runs
            .iter()
            .find(|r| r.label == label)
            .map(|r| &r.trace)
    }

    /// Validate every contained trace: full pipeline invariants for
    /// traces with δ iterations, basic invariants otherwise.
    ///
    /// # Errors
    ///
    /// Returns the first failing run's label and message.
    pub fn validate(&self) -> Result<(), String> {
        for run in &self.runs {
            let check = if run.trace.iterations.is_empty() {
                run.trace.validate_basic()
            } else {
                run.trace.validate_pipeline()
            };
            check.map_err(|e| format!("run {:?}: {e}", run.label))?;
        }
        Ok(())
    }
}

fn fmt_us(us: u64) -> String {
    if us >= 10_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 10_000 {
        format!("{:.1}ms", us as f64 / 1e3)
    } else {
        format!("{us}µs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::too_many_arguments)]
    fn span_at(
        name: &str,
        parent: Option<&str>,
        depth: usize,
        iteration: Option<usize>,
        delta: Option<f64>,
        start_us: u64,
        duration_us: u64,
    ) -> SpanRecord {
        SpanRecord {
            name: name.to_owned(),
            path: name.to_owned(),
            parent: parent.map(str::to_owned),
            depth,
            iteration,
            delta,
            start_us,
            duration_us,
        }
    }

    fn span(
        name: &str,
        parent: Option<&str>,
        depth: usize,
        iteration: Option<usize>,
        delta: Option<f64>,
        duration_us: u64,
    ) -> SpanRecord {
        span_at(name, parent, depth, iteration, delta, 0, duration_us)
    }

    fn pipeline_spans() -> Vec<SpanRecord> {
        // starts mirror a real sequential run: enrich, two iterations
        // (each with sequential phase children), then the remainder
        vec![
            span_at("enrich", None, 0, None, None, 0, 10),
            span_at("prematch", Some("iteration"), 1, Some(0), Some(0.7), 10, 20),
            span_at("subgraph", Some("iteration"), 1, Some(0), Some(0.7), 30, 30),
            span_at("selection", Some("iteration"), 1, Some(0), Some(0.7), 60, 5),
            span_at("iteration", None, 0, Some(0), Some(0.7), 10, 60),
            span_at(
                "prematch",
                Some("iteration"),
                1,
                Some(1),
                Some(0.65),
                70,
                15,
            ),
            span_at(
                "subgraph",
                Some("iteration"),
                1,
                Some(1),
                Some(0.65),
                85,
                25,
            ),
            span_at(
                "selection",
                Some("iteration"),
                1,
                Some(1),
                Some(0.65),
                110,
                4,
            ),
            span_at("iteration", None, 0, Some(1), Some(0.65), 70, 50),
            span_at("remainder", None, 0, None, None, 120, 40),
        ]
    }

    fn pipeline_trace() -> RunTrace {
        RunTrace::assemble(
            true,
            1000,
            pipeline_spans(),
            Vec::new(),
            Vec::new(),
            None,
            Vec::new(),
            Vec::new(),
            None,
            None,
        )
    }

    #[test]
    fn pipeline_trace_validates_and_breaks_down_iterations() {
        let t = pipeline_trace();
        t.validate_pipeline().unwrap();
        assert_eq!(t.iterations.len(), 2);
        assert_eq!(t.iterations[0].phases.len(), 3);
        assert_eq!(t.phase("prematch").unwrap().calls, 2);
        assert_eq!(t.phase("prematch").unwrap().total_us, 35);
        let table = t.phase_table();
        assert!(table.contains("remainder"), "{table}");
        assert!(table.contains("δ=0.70"), "{table}");
    }

    #[test]
    fn missing_phase_fails_pipeline_validation() {
        let spans = vec![span("enrich", None, 0, None, None, 10)];
        let t = RunTrace::assemble(
            true,
            100,
            spans,
            Vec::new(),
            Vec::new(),
            None,
            Vec::new(),
            Vec::new(),
            None,
            None,
        );
        let err = t.validate_pipeline().unwrap_err();
        assert!(err.contains("missing pipeline phase"), "{err}");
    }

    #[test]
    fn overflowing_phase_sum_fails_basic_validation() {
        let spans = vec![
            span("enrich", None, 0, None, None, 80),
            span("remainder", None, 0, None, None, 80),
        ];
        let t = RunTrace::assemble(
            true,
            100,
            spans,
            Vec::new(),
            Vec::new(),
            None,
            Vec::new(),
            Vec::new(),
            None,
            None,
        );
        let err = t.validate_basic().unwrap_err();
        assert!(err.contains("exceeding total wall time"), "{err}");
    }

    #[test]
    fn non_decreasing_deltas_fail_validation() {
        let spans = vec![
            span_at("iteration", None, 0, Some(0), Some(0.5), 0, 10),
            span_at("iteration", None, 0, Some(1), Some(0.7), 10, 10),
        ];
        let t = RunTrace::assemble(
            true,
            100,
            spans,
            Vec::new(),
            Vec::new(),
            None,
            Vec::new(),
            Vec::new(),
            None,
            None,
        );
        assert!(t.validate_basic().is_err());
    }

    #[test]
    fn multi_trace_validates_each_run() {
        let good = pipeline_trace();
        let multi = MultiTrace {
            runs: vec![LabeledTrace {
                label: "pair".into(),
                trace: good,
            }],
        };
        multi.validate().unwrap();

        let bad = RunTrace::assemble(
            true,
            10,
            vec![span("enrich", None, 0, None, None, 80)],
            Vec::new(),
            Vec::new(),
            None,
            Vec::new(),
            Vec::new(),
            None,
            None,
        );
        let multi = MultiTrace {
            runs: vec![LabeledTrace {
                label: "broken".into(),
                trace: bad,
            }],
        };
        assert!(multi.validate().unwrap_err().contains("broken"));
    }

    #[test]
    fn unknown_counter_names_fail_validation() {
        let mut t = pipeline_trace();
        t.counters.push(CounterValue {
            name: "record_links".into(),
            value: 3,
        });
        t.validate_basic().unwrap();
        t.counters.push(CounterValue {
            name: "not_a_real_counter".into(),
            value: 1,
        });
        let err = t.validate_basic().unwrap_err();
        assert!(err.contains("unknown counter"), "{err}");
        assert!(err.contains("not_a_real_counter"), "{err}");
    }

    #[test]
    fn corrupted_histograms_fail_validation() {
        let mut t = pipeline_trace();
        // assemble derived per-phase latency histograms from the spans
        assert!(t.histogram("phase_us_prematch").is_some());
        t.validate_basic().unwrap();
        // doctor a bucket so counts no longer sum to the sample count
        t.histograms[0].hist.buckets[0] += 1;
        let err = t.validate_basic().unwrap_err();
        assert!(err.contains("histogram"), "{err}");
        assert!(err.contains("sum to"), "{err}");
    }

    #[test]
    fn multi_trace_run_looks_up_by_label() {
        let multi = MultiTrace {
            runs: vec![LabeledTrace {
                label: "1851→1861".into(),
                trace: pipeline_trace(),
            }],
        };
        assert!(multi.run("1851→1861").is_some());
        assert!(multi.run("1861→1871").is_none());
    }

    #[test]
    fn overlapping_iteration_spans_fail_pipeline_validation() {
        // hand-built bad trace: iteration #1 starts before iteration #0
        // ends — phase sums and δ ordering are fine, so only the sibling
        // disjointness check can catch it
        let mut spans = pipeline_spans();
        let it1 = spans
            .iter_mut()
            .find(|s| s.name == ITERATION_SPAN && s.iteration == Some(1))
            .unwrap();
        it1.start_us = 40; // iteration #0 runs [10µs..70µs)
        let t = RunTrace::assemble(
            true,
            1000,
            spans,
            Vec::new(),
            Vec::new(),
            None,
            Vec::new(),
            Vec::new(),
            None,
            None,
        );
        t.validate_basic().unwrap();
        let err = t.validate_pipeline().unwrap_err();
        assert!(err.contains("sibling spans overlap"), "{err}");
        assert!(err.contains("iteration"), "{err}");
    }

    #[test]
    fn top_level_phase_overlapping_an_iteration_fails_validation() {
        let mut spans = pipeline_spans();
        // enrich [0..10µs) stretched into iteration #0, which starts at 10µs
        spans[0].duration_us = 15;
        let t = RunTrace::assemble(
            true,
            1000,
            spans,
            Vec::new(),
            Vec::new(),
            None,
            Vec::new(),
            Vec::new(),
            None,
            None,
        );
        let err = t.validate_pipeline().unwrap_err();
        assert!(err.contains("sibling spans overlap"), "{err}");
    }

    #[test]
    fn touching_and_zero_duration_siblings_are_not_overlaps() {
        // pipeline_spans is exactly back-to-back (half-open intervals
        // touching); add a zero-duration marker inside an occupied slot
        let mut spans = pipeline_spans();
        spans.push(span_at("marker", None, 0, None, None, 30, 0));
        let t = RunTrace::assemble(
            true,
            1000,
            spans,
            Vec::new(),
            Vec::new(),
            None,
            Vec::new(),
            Vec::new(),
            None,
            None,
        );
        t.validate_pipeline().unwrap();
    }

    fn shard_stat(shard: usize, pairs: u64, matched: u64) -> ShardStat {
        ShardStat {
            shard,
            keys: 4,
            pairs,
            matched,
            sim_table_bytes: 1024,
            sim_table_cells: 64,
            duration_us: 7,
        }
    }

    #[test]
    fn legacy_shard_rows_still_load_and_validate_but_do_not_render() {
        // traces of the retired sharded engine carry per-shard rows: they
        // must still load and validate, and the table no longer shows them
        let mut t = pipeline_trace();
        t.shards = vec![shard_stat(1, 50, 10), shard_stat(0, 100, 40)];
        let back: RunTrace = serde_json::from_str(&serde_json::to_string(&t).unwrap()).unwrap();
        assert_eq!(back.shards, t.shards);
        back.validate_pipeline().unwrap();
        let table = back.phase_table();
        assert!(!table.contains("shards:"), "{table}");
    }

    fn timeline_event(
        worker: u32,
        kind: crate::EventKind,
        start_us: u64,
        duration_us: u64,
    ) -> crate::TimelineEvent {
        crate::TimelineEvent {
            worker,
            kind,
            start_us,
            duration_us,
            detail: 0,
            iteration: None,
        }
    }

    fn with_timeline(events: Vec<crate::TimelineEvent>) -> RunTrace {
        let mut t = pipeline_trace();
        t.timeline = Some(Timeline::derive(events));
        t
    }

    #[test]
    fn timeline_events_must_fall_inside_their_phase_spans() {
        // prematch of iteration 0 runs [10µs..30µs); a prematch event
        // inside it passes, one in the subgraph slot fails
        let t = with_timeline(vec![timeline_event(
            0,
            crate::EventKind::PrematchTask,
            12,
            10,
        )]);
        t.validate_pipeline().unwrap();
        let table = t.phase_table();
        assert!(table.contains("timeline:"), "{table}");
        assert!(table.contains("mean utilization"), "{table}");

        let bad = with_timeline(vec![timeline_event(
            0,
            crate::EventKind::PrematchTask,
            40,
            10,
        )]);
        let err = bad.validate_pipeline().unwrap_err();
        assert!(err.contains("falls outside every"), "{err}");

        // scheduler-level kinds are exempt from containment
        let t = with_timeline(vec![timeline_event(0, crate::EventKind::QueueWait, 40, 10)]);
        t.validate_pipeline().unwrap();
    }

    #[test]
    fn timeline_events_get_rounding_slack_at_phase_edges() {
        // remainder runs [120µs..160µs); an event whose truncated end
        // lands 2µs past the span end must still validate
        let t = with_timeline(vec![timeline_event(
            0,
            crate::EventKind::RemainderChunk,
            121,
            41,
        )]);
        t.validate_pipeline().unwrap();
        // but 3µs past is a real violation
        let bad = with_timeline(vec![timeline_event(
            0,
            crate::EventKind::RemainderChunk,
            121,
            42,
        )]);
        assert!(bad.validate_pipeline().is_err());
    }

    #[test]
    fn traces_without_timeline_deserialize_as_absent() {
        let t = with_timeline(vec![timeline_event(
            0,
            crate::EventKind::PrematchTask,
            12,
            10,
        )]);
        let mut json = serde_json::parse(&serde_json::to_string(&t).unwrap()).unwrap();
        let serde_json::Value::Map(entries) = &mut json else {
            panic!("trace must serialize to an object");
        };
        entries.retain(|(k, _)| !matches!(k, serde_json::Value::Str(s) if s == "timeline"));
        let back: RunTrace = serde_json::from_str(&serde_json::to_string(&json).unwrap()).unwrap();
        assert!(back.timeline.is_none());
        back.validate_pipeline().unwrap();
    }

    #[test]
    fn traces_with_retired_chunk_rows_still_load() {
        // traces once recorded every parallel task a second time, as a
        // `chunks` row; the key is ignored on load
        let t = pipeline_trace();
        let json = serde_json::to_string(&t).unwrap();
        let legacy = json.replacen(
            '{',
            r#"{"chunks":[{"phase":"subgraph","iteration":0,"chunk":0,"worker":1,"items":5,"duration_us":7}],"#,
            1,
        );
        let back: RunTrace = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back, t);
        back.validate_pipeline().unwrap();
    }

    #[test]
    fn traces_without_shards_deserialize_with_empty_stats() {
        let mut t = pipeline_trace();
        t.shards = vec![shard_stat(0, 100, 40)];
        let mut json = serde_json::parse(&serde_json::to_string(&t).unwrap()).unwrap();
        let serde_json::Value::Map(entries) = &mut json else {
            panic!("trace must serialize to an object");
        };
        entries.retain(|(k, _)| !matches!(k, serde_json::Value::Str(s) if s == "shards"));
        let back: RunTrace = serde_json::from_str(&serde_json::to_string(&json).unwrap()).unwrap();
        assert!(back.shards.is_empty());
    }

    fn quality_section() -> QualitySection {
        use crate::quality::*;
        QualitySection {
            records: QualityCounts::from_counts(4, 5, 3),
            groups: QualityCounts::from_counts(2, 2, 2),
            funnel: RecallFunnel {
                total: 5,
                recovered_selection: 2,
                recovered_remainder: 1,
                missing_endpoint: 0,
                not_blocked: 1,
                age_filtered: 0,
                below_delta: 1,
                lost_selection: 0,
                lost_remainder: 0,
                delta_floor: 0.5,
                blocking: BlockingMisses::default(),
                selection: SelectionLosses::default(),
            },
            per_iteration: vec![IterationQuality {
                iteration: 0,
                delta: 0.7,
                recovered: 2,
            }],
            bands: vec![SimBand {
                lo_bp: 8000,
                hi_bp: 8500,
                truth_pairs: 5,
                recovered: 3,
            }],
        }
    }

    #[test]
    fn quality_section_validates_and_renders_in_the_phase_table() {
        let mut t = pipeline_trace();
        t.quality = Some(quality_section());
        t.validate_pipeline().unwrap();
        let table = t.phase_table();
        assert!(table.contains("quality (against ground truth):"), "{table}");
        assert!(table.contains("recall-loss funnel"), "{table}");

        // a broken funnel fails trace validation with a quality: prefix
        let mut bad = t.clone();
        bad.quality.as_mut().unwrap().funnel.not_blocked += 1;
        let err = bad.validate_basic().unwrap_err();
        assert!(err.starts_with("quality:"), "{err}");
    }

    #[test]
    fn traces_without_quality_deserialize_as_absent() {
        let mut t = pipeline_trace();
        t.quality = Some(quality_section());
        let mut json = serde_json::parse(&serde_json::to_string(&t).unwrap()).unwrap();
        let serde_json::Value::Map(entries) = &mut json else {
            panic!("trace must serialize to an object");
        };
        entries.retain(|(k, _)| !matches!(k, serde_json::Value::Str(s) if s == "quality"));
        let back: RunTrace = serde_json::from_str(&serde_json::to_string(&json).unwrap()).unwrap();
        assert!(back.quality.is_none());
        back.validate_pipeline().unwrap();
    }

    #[test]
    fn fmt_us_scales_units() {
        assert_eq!(fmt_us(999), "999µs");
        assert_eq!(fmt_us(25_000), "25.0ms");
        assert_eq!(fmt_us(12_000_000), "12.00s");
    }
}
