//! Per-worker execution timeline: the pool tasks, queue waits and driver
//! sections of the collector's event log, plus the scheduler analytics
//! derived from them.
//!
//! The aggregate phase table says *how long* the pipeline spent in each
//! phase; the timeline says *when each worker did what* — which is the
//! only way to see load imbalance and queue starvation. Every enabled
//! collector appends one fixed-size [`TimelineEvent`] per prematch task,
//! subgraph chunk, remainder chunk, queue-wait gap or driver section to
//! its one event log, next to the closed spans;
//! [`crate::Collector::finish`] adds a δ-boundary [`EventKind::Iteration`]
//! mark per iteration span and assembles the [`Timeline`] section of the
//! trace together with the derived analytics: per-worker busy/idle
//! utilization over the run's parallel activity window and a
//! critical-path estimate for the parallel phases.
//!
//! # Overhead discipline
//!
//! Events are coarse — one per *task* of work, never per pair — so a
//! paper-scale run records a few hundred of them, and the log is a plain
//! list behind one mutex. A disabled collector records nothing: an
//! untimed call costs one branch on a `bool`.

use serde::{Deserialize, Serialize};

/// Span and event timestamps truncate independently to whole
/// microseconds, so an event can appear to outlive its enclosing phase
/// span by up to this much. Containment checks allow the slack.
pub const ROUNDING_SLACK_US: u64 = 2;

/// What one [`TimelineEvent`] measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum EventKind {
    /// One task of the pre-matching scoring pass: an old-record range
    /// blocked and scored (`detail` = task index). Traces written before
    /// the rename call it `PrematchTile`.
    #[serde(alias = "PrematchTile")]
    PrematchTask,
    /// One chunk of parallel subgraph scoring (`detail` = chunk index).
    SubgraphChunk,
    /// One task of the remainder pass's fresh scoring, or its
    /// cache-served selection (`detail` = pairs scored or selected).
    RemainderChunk,
    /// A δ-iteration boundary, made from an iteration span when the
    /// trace is assembled (instant, at the span's start; `detail` = δ in
    /// basis points).
    Iteration,
    /// A gap a pool worker spent between finishing one task and starting
    /// the next (`detail` = the task index it was waiting to claim).
    QueueWait,
    /// A section of the linker driver around its scoring passes, on
    /// worker 0 (`detail` = [`DriverSection::code`]). Sections may run
    /// concurrently with each other and with pool tasks, so they are
    /// not busy time.
    Driver,
}

/// The driver section a [`EventKind::Driver`] event covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverSection {
    /// Interning the residue's attribute values into value-id rows and
    /// laying out the arenas.
    Intern,
    /// Building the blocker's new-side buckets.
    Buckets,
    /// Putting match pairs or the pair-score cache into household-pair
    /// order.
    Order,
    /// Clustering a δ step's match pairs into labels.
    Cluster,
}

impl DriverSection {
    /// Every section, by code.
    pub const ALL: [DriverSection; 4] = [
        DriverSection::Intern,
        DriverSection::Buckets,
        DriverSection::Order,
        DriverSection::Cluster,
    ];

    /// The section's code, stored as the event's `detail`.
    #[must_use]
    pub fn code(self) -> u64 {
        self as u64
    }

    /// The section a `detail` code names, if any.
    #[must_use]
    pub fn from_code(code: u64) -> Option<Self> {
        Self::ALL.get(usize::try_from(code).ok()?).copied()
    }

    /// Stable snake_case name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DriverSection::Intern => "intern",
            DriverSection::Buckets => "buckets",
            DriverSection::Order => "order",
            DriverSection::Cluster => "cluster",
        }
    }
}

impl EventKind {
    /// Stable snake_case name (Chrome trace event name, Gantt legend).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EventKind::PrematchTask => "prematch_task",
            EventKind::SubgraphChunk => "subgraph_chunk",
            EventKind::RemainderChunk => "remainder_chunk",
            EventKind::Iteration => "iteration",
            EventKind::QueueWait => "queue_wait",
            EventKind::Driver => "driver",
        }
    }

    /// The pipeline phase whose span must enclose events of this kind
    /// (`None` for scheduler-level kinds that can occur anywhere).
    #[must_use]
    pub fn phase(self) -> Option<&'static str> {
        match self {
            EventKind::PrematchTask => Some("prematch"),
            EventKind::SubgraphChunk => Some("subgraph"),
            EventKind::RemainderChunk => Some("remainder"),
            EventKind::Iteration | EventKind::QueueWait | EventKind::Driver => None,
        }
    }

    /// Whether events of this kind are instants (zero duration).
    #[must_use]
    pub fn is_instant(self) -> bool {
        matches!(self, EventKind::Iteration)
    }

    /// Whether events of this kind are a worker's busy time: pool tasks,
    /// not instants, queue waits or driver sections.
    #[must_use]
    pub fn is_busy(self) -> bool {
        self.phase().is_some()
    }

    /// One-character glyph for the ASCII Gantt chart.
    #[must_use]
    pub fn glyph(self) -> char {
        match self {
            EventKind::PrematchTask => 'P',
            EventKind::SubgraphChunk => 'G',
            EventKind::RemainderChunk => 'R',
            EventKind::Iteration => '|',
            EventKind::QueueWait => '.',
            EventKind::Driver => 'D',
        }
    }

    /// Every kind, in legend order.
    pub const ALL: [EventKind; 6] = [
        EventKind::PrematchTask,
        EventKind::SubgraphChunk,
        EventKind::RemainderChunk,
        EventKind::Iteration,
        EventKind::QueueWait,
        EventKind::Driver,
    ];
}

/// One fixed-size timestamped record of work done by one worker.
/// Timestamps are microseconds since the collector's epoch, matching
/// [`crate::SpanRecord::start_us`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimelineEvent {
    /// Stable worker id within the run (pool spawn index, chunk index
    /// for one-thread-per-chunk regions, 0 for serial/driver work).
    pub worker: u32,
    /// What was measured.
    pub kind: EventKind,
    /// Start, µs since the collector epoch.
    pub start_us: u64,
    /// Duration in µs (0 for instants).
    pub duration_us: u64,
    /// Kind-specific payload — see each [`EventKind`] variant.
    pub detail: u64,
    /// The δ-iteration the event belongs to, where known.
    pub iteration: Option<usize>,
}

impl TimelineEvent {
    /// End of the event, µs since the collector epoch (saturating).
    #[must_use]
    pub fn end_us(&self) -> u64 {
        self.start_us.saturating_add(self.duration_us)
    }
}

/// One worker's share of the run's parallel activity window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerUtilization {
    /// Worker id.
    pub worker: u32,
    /// Total time inside timed tasks (queue waits excluded), µs.
    pub busy_us: u64,
    /// Events this worker recorded.
    pub events: usize,
    /// `busy_us / Timeline::active_us` — the share of the run's parallel
    /// activity window this worker spent working. In `[0, 1]`.
    pub utilization: f64,
}

/// The timeline section of a [`crate::RunTrace`]: the raw events plus
/// the derived scheduler analytics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Timeline {
    /// All recorded events, sorted by `(worker, start_us)`.
    pub events: Vec<TimelineEvent>,
    /// Distinct worker ids that recorded at least one event.
    pub workers: usize,
    /// Length of the union of all busy intervals, µs — the run's
    /// parallel activity window and the utilization denominator. Idle
    /// stretches between parallel regions don't count against workers.
    pub active_us: u64,
    /// Per-worker busy time and utilization, sorted by worker id.
    #[serde(default)]
    pub utilization: Vec<WorkerUtilization>,
    /// Σ over parallel phases of the busiest worker's time in that
    /// phase — a lower bound on the parallel phases' wall time under the
    /// observed work split.
    pub critical_path_us: u64,
}

impl Timeline {
    /// Assemble the section from the recorded events: derive
    /// utilization and the critical path.
    #[must_use]
    pub(crate) fn derive(mut events: Vec<TimelineEvent>) -> Self {
        events.sort_by_key(|e| (e.worker, e.start_us, e.duration_us));
        let busy_events = |e: &&TimelineEvent| e.kind.is_busy();

        // union of busy intervals = the parallel activity window
        let mut intervals: Vec<(u64, u64)> = events
            .iter()
            .filter(busy_events)
            .map(|e| (e.start_us, e.end_us()))
            .collect();
        intervals.sort_unstable();
        let mut active_us = 0u64;
        let mut cursor = 0u64;
        for &(s, e) in &intervals {
            let s = s.max(cursor);
            if e > s {
                active_us += e - s;
                cursor = e;
            }
            cursor = cursor.max(e);
        }

        // per-worker busy time (events are sorted by worker already)
        let workers = events
            .iter()
            .map(|e| e.worker as usize + 1)
            .max()
            .unwrap_or(0);
        let mut utilization: Vec<WorkerUtilization> = Vec::with_capacity(workers);
        for w in 0..workers {
            let mine = events.iter().filter(|e| e.worker as usize == w);
            let events_n = mine.clone().count();
            let busy_us: u64 = mine.filter(busy_events).map(|e| e.duration_us).sum();
            utilization.push(WorkerUtilization {
                worker: w as u32,
                busy_us,
                events: events_n,
                utilization: if active_us == 0 {
                    0.0
                } else {
                    (busy_us as f64 / active_us as f64).min(1.0)
                },
            });
        }

        // critical path: the busiest worker per parallel phase, summed
        let critical_path_us = crate::report::PIPELINE_PHASES
            .iter()
            .map(|&phase| {
                (0..workers)
                    .map(|w| {
                        events
                            .iter()
                            .filter(|e| e.worker as usize == w && e.kind.phase() == Some(phase))
                            .map(|e| e.duration_us)
                            .sum::<u64>()
                    })
                    .max()
                    .unwrap_or(0)
            })
            .sum();

        Self {
            events,
            workers,
            active_us,
            utilization,
            critical_path_us,
        }
    }

    /// Mean per-worker utilization (0 with no workers). The
    /// `census timeline --min-utilization` gate compares against this.
    #[must_use]
    pub fn mean_utilization(&self) -> f64 {
        if self.utilization.is_empty() {
            return 0.0;
        }
        self.utilization.iter().map(|u| u.utilization).sum::<f64>() / self.utilization.len() as f64
    }

    /// Structural invariants of the section, independent of the span
    /// tree: per-worker monotone start times, events inside the run
    /// window, utilization in range, derived fields consistent with the
    /// raw events.
    pub(crate) fn validate(&self, total_us: u64) -> Result<(), String> {
        let mut last: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
        for e in &self.events {
            if e.kind.is_instant() && e.duration_us != 0 {
                return Err(format!(
                    "instant timeline event {:?} has duration {}µs",
                    e.kind, e.duration_us
                ));
            }
            if e.end_us() > total_us.saturating_add(ROUNDING_SLACK_US) {
                return Err(format!(
                    "timeline event {:?} on worker {} ends at {}µs, after the {}µs run",
                    e.kind,
                    e.worker,
                    e.end_us(),
                    total_us
                ));
            }
            let prev = last.entry(e.worker).or_insert(0);
            if e.start_us < *prev {
                return Err(format!(
                    "worker {} timeline not monotone: {}µs after {}µs",
                    e.worker, e.start_us, prev
                ));
            }
            *prev = e.start_us;
            if e.worker as usize >= self.workers {
                return Err(format!(
                    "timeline event on worker {} but the section claims {} worker(s)",
                    e.worker, self.workers
                ));
            }
        }
        for u in &self.utilization {
            if !(0.0..=1.0).contains(&u.utilization) {
                return Err(format!(
                    "worker {} utilization {} outside [0, 1]",
                    u.worker, u.utilization
                ));
            }
            if u.busy_us > self.active_us {
                return Err(format!(
                    "worker {} busy {}µs exceeds the {}µs activity window",
                    u.worker, u.busy_us, self.active_us
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(
        worker: u32,
        kind: EventKind,
        start_us: u64,
        duration_us: u64,
        detail: u64,
    ) -> TimelineEvent {
        TimelineEvent {
            worker,
            kind,
            start_us,
            duration_us,
            detail,
            iteration: None,
        }
    }

    #[test]
    fn state_registers_workers_lazily_and_drains_sorted() {
        // derive counts workers up to the highest id seen and sorts the
        // events by (worker, start), whatever order they were logged in
        let tl = Timeline::derive(vec![
            ev(2, EventKind::PrematchTask, 30, 5, 7),
            ev(0, EventKind::PrematchTask, 10, 5, 3),
            ev(0, EventKind::QueueWait, 20, 2, 0),
        ]);
        assert_eq!(tl.workers, 3);
        assert_eq!(
            tl.events
                .iter()
                .map(|e| (e.worker, e.start_us))
                .collect::<Vec<_>>(),
            vec![(0, 10), (0, 20), (2, 30)]
        );
    }

    #[test]
    fn derive_keeps_every_event_of_a_busy_worker() {
        // no per-worker bound: 5,000 back-to-back tasks on one worker all
        // survive derivation, oldest first, and all count as busy time
        let tl = Timeline::derive(
            (0..5_000)
                .rev()
                .map(|i| ev(0, EventKind::PrematchTask, i * 10, 5, i))
                .collect(),
        );
        assert_eq!(tl.workers, 1);
        assert_eq!(
            tl.events.iter().map(|e| e.detail).collect::<Vec<_>>(),
            (0..5_000).collect::<Vec<_>>()
        );
        assert_eq!(tl.utilization[0].events, 5_000);
        assert_eq!(tl.utilization[0].busy_us, 5_000 * 5);
        tl.validate(50_000).unwrap();
    }

    #[test]
    fn derive_computes_union_window_and_utilization() {
        // worker 0 busy [0,10) and [20,30); worker 1 busy [0,30);
        // union = 30µs, so utilizations are 20/30 and 30/30
        let events = vec![
            ev(0, EventKind::PrematchTask, 0, 10, 0),
            ev(0, EventKind::QueueWait, 10, 10, 1), // waits never count
            ev(0, EventKind::PrematchTask, 20, 10, 1),
            ev(1, EventKind::PrematchTask, 0, 30, 2),
        ];
        let tl = Timeline::derive(events);
        assert_eq!(tl.active_us, 30);
        assert_eq!(tl.workers, 2);
        assert!((tl.utilization[0].utilization - 2.0 / 3.0).abs() < 1e-9);
        assert!((tl.utilization[1].utilization - 1.0).abs() < 1e-9);
        assert!((tl.mean_utilization() - 5.0 / 6.0).abs() < 1e-9);
        // all three chunks are prematch work on two workers: the busiest
        // carries 30µs
        assert_eq!(tl.critical_path_us, 30);
        tl.validate(30).unwrap();
    }

    #[test]
    fn validate_rejects_non_monotone_and_out_of_window() {
        let tl = Timeline::derive(vec![
            ev(0, EventKind::PrematchTask, 20, 5, 0),
            ev(0, EventKind::PrematchTask, 10, 5, 1),
        ]);
        // derive sorts, so corrupt the order by hand (a tampered trace)
        let mut bad = tl.clone();
        bad.events.swap(0, 1);
        assert!(bad.validate(100).unwrap_err().contains("not monotone"));
        assert!(tl.validate(10).unwrap_err().contains("after the 10µs run"));
        tl.validate(100).unwrap();
    }

    #[test]
    fn driver_sections_are_not_busy_time() {
        // a driver section overlapping worker 0's task and reaching past
        // it leaves utilization, the window and the critical path alone
        let tasks = vec![
            ev(0, EventKind::PrematchTask, 0, 10, 0),
            ev(1, EventKind::PrematchTask, 0, 20, 1),
        ];
        let mut with_driver = tasks.clone();
        with_driver.push(ev(0, EventKind::Driver, 5, 40, DriverSection::Order.code()));
        let (plain, driven) = (Timeline::derive(tasks), Timeline::derive(with_driver));
        assert_eq!(driven.active_us, plain.active_us);
        assert_eq!(driven.utilization[0].busy_us, plain.utilization[0].busy_us);
        assert_eq!(driven.mean_utilization(), plain.mean_utilization());
        assert_eq!(driven.critical_path_us, plain.critical_path_us);
        assert_eq!(driven.utilization[0].events, 2);
        assert!(!EventKind::Driver.is_busy() && EventKind::Driver.phase().is_none());
        for section in DriverSection::ALL {
            assert_eq!(DriverSection::from_code(section.code()), Some(section));
        }
        assert_eq!(DriverSection::from_code(4), None);
    }

    #[test]
    fn prematch_task_reads_its_former_name() {
        let old: EventKind = serde_json::from_str("\"PrematchTile\"").unwrap();
        assert_eq!(old, EventKind::PrematchTask);
        let new: EventKind = serde_json::from_str("\"PrematchTask\"").unwrap();
        assert_eq!(new, EventKind::PrematchTask);
        assert_eq!(serde_json::to_string(&new).unwrap(), "\"PrematchTask\"");
        assert_eq!(EventKind::PrematchTask.name(), "prematch_task");
    }

    #[test]
    fn empty_timeline_derives_cleanly() {
        let tl = Timeline::derive(Vec::new());
        assert_eq!(tl.workers, 0);
        assert_eq!(tl.active_us, 0);
        assert!(tl.utilization.is_empty());
        assert_eq!(tl.mean_utilization(), 0.0);
        tl.validate(0).unwrap();
    }
}
