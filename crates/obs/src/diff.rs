//! Trace comparison: turn two [`RunTrace`]s into a delta report and
//! optional CI-gating threshold checks.
//!
//! [`compare`] walks the union of counter names, phase names and
//! histogram names of two traces and produces a [`DiffReport`]:
//! counter deltas, phase wall-time ratios and per-histogram
//! distribution shift (the normalised L1 distance of
//! [`Histogram::l1_distance`]). [`DiffReport::check`] then evaluates
//! `--fail-on` style [`Threshold`]s ("pairs scored regressed >25%",
//! "selection p99 regressed >100%"), returning the violations for the
//! CLI to exit nonzero on.
//!
//! Counters in this pipeline are seed-deterministic and independent of
//! the thread count, so tight counter/histogram thresholds are safe to
//! gate CI on across machines; wall-clock phase times are not — gate
//! those only with generous ratios.

use crate::hist::Histogram;
use crate::report::RunTrace;

/// One counter compared across two traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterDelta {
    /// Counter name.
    pub name: String,
    /// Value in the old trace (0 when absent).
    pub old: u64,
    /// Value in the new trace (0 when absent).
    pub new: u64,
}

impl CounterDelta {
    /// Relative change in percent, against `max(old, 1)` so a zero
    /// baseline cannot divide by zero.
    #[must_use]
    pub fn pct_change(&self) -> f64 {
        let old = self.old.max(1) as f64;
        (self.new as f64 - self.old as f64) / old * 100.0
    }
}

/// One pipeline phase's total wall time compared across two traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseDelta {
    /// Phase name.
    pub name: String,
    /// Total microseconds in the old trace (0 when absent).
    pub old_us: u64,
    /// Total microseconds in the new trace (0 when absent).
    pub new_us: u64,
}

impl PhaseDelta {
    /// `new / max(old, 1)` wall-time ratio.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        self.new_us as f64 / self.old_us.max(1) as f64
    }
}

/// One memory metric compared across two traces: `"total"` (bytes
/// allocated), `"peak"` (peak live bytes), or a phase's alloc bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemDelta {
    /// Metric name (`"total"`, `"peak"`, or a phase name).
    pub name: String,
    /// Bytes in the old trace (0 when absent).
    pub old_bytes: u64,
    /// Bytes in the new trace (0 when absent).
    pub new_bytes: u64,
}

impl MemDelta {
    /// Relative change in percent, against `max(old, 1)`.
    #[must_use]
    pub fn pct_change(&self) -> f64 {
        let old = self.old_bytes.max(1) as f64;
        (self.new_bytes as f64 - self.old_bytes as f64) / old * 100.0
    }
}

/// One structure's largest footprint snapshot compared across two
/// traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FootprintDelta {
    /// Structure name (e.g. `"pair_score_cache"`).
    pub structure: String,
    /// Largest snapshot bytes in the old trace (0 when absent).
    pub old_bytes: u64,
    /// Largest snapshot bytes in the new trace (0 when absent).
    pub new_bytes: u64,
}

impl FootprintDelta {
    /// Relative change in percent, against `max(old, 1)`.
    #[must_use]
    pub fn pct_change(&self) -> f64 {
        let old = self.old_bytes.max(1) as f64;
        (self.new_bytes as f64 - self.old_bytes as f64) / old * 100.0
    }
}

/// One histogram compared across two traces.
#[derive(Debug, Clone, PartialEq)]
pub struct HistDelta {
    /// Histogram name.
    pub name: String,
    /// Normalised L1 distance between the two bucket distributions
    /// (0 identical shape, 2 disjoint; 2 when exactly one is empty).
    pub l1: f64,
    /// p99 estimate of the old histogram.
    pub old_p99: u64,
    /// p99 estimate of the new histogram.
    pub new_p99: u64,
    /// Sample count of the old histogram.
    pub old_count: u64,
    /// Sample count of the new histogram.
    pub new_count: u64,
}

/// The full comparison of two traces.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Union of counters, in old-trace order then new-only names.
    pub counters: Vec<CounterDelta>,
    /// Union of pipeline phases.
    pub phases: Vec<PhaseDelta>,
    /// Union of histograms.
    pub histograms: Vec<HistDelta>,
    /// Memory metrics (`"total"`, `"peak"`, per-phase alloc bytes);
    /// empty unless at least one trace carries a memory section.
    pub mem: Vec<MemDelta>,
    /// Largest footprint snapshot per structure; empty unless at least
    /// one trace carries footprints.
    pub footprints: Vec<FootprintDelta>,
    /// Whether the old trace carries a memory section. A trace written
    /// before memory tracking existed reads back without one; `mem:`
    /// thresholds then report "absent" instead of failing.
    pub old_has_memory: bool,
    /// Whether the new trace carries a memory section.
    pub new_has_memory: bool,
    /// Whether the old trace carries footprint snapshots.
    pub old_has_footprints: bool,
    /// Whether the new trace carries footprint snapshots.
    pub new_has_footprints: bool,
    /// Mean per-worker utilization of the old trace's timeline section,
    /// when it has one. A trace written before timelines existed (or a
    /// run without `--timeline-out`) reads back without the section;
    /// `timeline:` thresholds then report "absent" instead of failing.
    pub old_mean_utilization: Option<f64>,
    /// Mean per-worker utilization of the new trace's timeline section,
    /// when it has one.
    pub new_mean_utilization: Option<f64>,
    /// Record-level recall of the old trace's quality section, when it
    /// has one. A trace written before quality telemetry existed (or a
    /// run without `--truth`) reads back without the section; `quality:`
    /// thresholds then report "absent" instead of failing.
    pub old_quality_recall: Option<f64>,
    /// Record-level recall of the new trace's quality section.
    pub new_quality_recall: Option<f64>,
    /// Record-level precision of the old trace's quality section.
    pub old_quality_precision: Option<f64>,
    /// Record-level precision of the new trace's quality section.
    pub new_quality_precision: Option<f64>,
    /// Total wall time of the old trace, microseconds.
    pub old_total_us: u64,
    /// Total wall time of the new trace, microseconds.
    pub new_total_us: u64,
}

fn union_names<'a>(
    old: impl Iterator<Item = &'a str>,
    new: impl Iterator<Item = &'a str>,
) -> Vec<String> {
    // dedupe within each side too: footprint snapshots repeat a
    // structure once per phase boundary
    let mut names: Vec<String> = Vec::new();
    for n in old.chain(new) {
        if !names.iter().any(|have| have == n) {
            names.push(n.to_owned());
        }
    }
    names
}

/// Compare two traces into a [`DiffReport`]. Names present in only one
/// trace appear with 0 / empty on the missing side.
#[must_use]
pub fn compare(old: &RunTrace, new: &RunTrace) -> DiffReport {
    let counters = union_names(
        old.counters.iter().map(|c| c.name.as_str()),
        new.counters.iter().map(|c| c.name.as_str()),
    )
    .into_iter()
    .map(|name| CounterDelta {
        old: old.counter(&name),
        new: new.counter(&name),
        name,
    })
    .collect();

    let phases = union_names(
        old.phases.iter().map(|p| p.name.as_str()),
        new.phases.iter().map(|p| p.name.as_str()),
    )
    .into_iter()
    .map(|name| PhaseDelta {
        old_us: old
            .phases
            .iter()
            .find(|p| p.name == name)
            .map_or(0, |p| p.total_us),
        new_us: new
            .phases
            .iter()
            .find(|p| p.name == name)
            .map_or(0, |p| p.total_us),
        name,
    })
    .collect();

    let empty = Histogram::new();
    let histograms = union_names(
        old.histograms.iter().map(|h| h.name.as_str()),
        new.histograms.iter().map(|h| h.name.as_str()),
    )
    .into_iter()
    .map(|name| {
        let a = old.histogram(&name).unwrap_or(&empty);
        let b = new.histogram(&name).unwrap_or(&empty);
        HistDelta {
            l1: a.l1_distance(b),
            old_p99: a.percentile(0.99),
            new_p99: b.percentile(0.99),
            old_count: a.count,
            new_count: b.count,
            name,
        }
    })
    .collect();

    let mem_value = |trace: &RunTrace, name: &str| -> u64 {
        let Some(m) = &trace.memory else { return 0 };
        match name {
            "total" => m.bytes_allocated,
            "peak" => m.peak_live_bytes,
            phase => m
                .phases
                .iter()
                .find(|p| p.name == phase)
                .map_or(0, |p| p.alloc_bytes),
        }
    };
    let mem_names = |trace: &RunTrace| -> Vec<String> {
        match &trace.memory {
            None => Vec::new(),
            Some(m) => ["total", "peak"]
                .into_iter()
                .map(str::to_owned)
                .chain(m.phases.iter().map(|p| p.name.clone()))
                .collect(),
        }
    };
    let mem = union_names(
        mem_names(old).iter().map(String::as_str),
        mem_names(new).iter().map(String::as_str),
    )
    .into_iter()
    .map(|name| MemDelta {
        old_bytes: mem_value(old, &name),
        new_bytes: mem_value(new, &name),
        name,
    })
    .collect();

    let footprints = union_names(
        old.footprints.iter().map(|f| f.structure.as_str()),
        new.footprints.iter().map(|f| f.structure.as_str()),
    )
    .into_iter()
    .map(|structure| FootprintDelta {
        old_bytes: old.max_footprint_bytes(&structure).unwrap_or(0),
        new_bytes: new.max_footprint_bytes(&structure).unwrap_or(0),
        structure,
    })
    .collect();

    DiffReport {
        counters,
        phases,
        histograms,
        mem,
        footprints,
        old_has_memory: old.memory.is_some(),
        new_has_memory: new.memory.is_some(),
        old_has_footprints: !old.footprints.is_empty(),
        new_has_footprints: !new.footprints.is_empty(),
        old_mean_utilization: old.timeline.as_ref().map(|t| t.mean_utilization()),
        new_mean_utilization: new.timeline.as_ref().map(|t| t.mean_utilization()),
        old_quality_recall: old.quality.as_ref().map(|q| q.records.quality.recall),
        new_quality_recall: new.quality.as_ref().map(|q| q.records.quality.recall),
        old_quality_precision: old.quality.as_ref().map(|q| q.records.quality.precision),
        new_quality_precision: new.quality.as_ref().map(|q| q.records.quality.precision),
        old_total_us: old.total_us,
        new_total_us: new.total_us,
    }
}

impl DiffReport {
    /// Whether the deterministic portions of the two traces are
    /// identical: every counter delta zero and every histogram at L1
    /// distance 0 with equal sample counts. Wall times are ignored —
    /// they never repeat exactly.
    #[must_use]
    pub fn is_identical(&self) -> bool {
        self.counters.iter().all(|c| c.old == c.new)
            && self
                .histograms
                .iter()
                .all(|h| h.l1 == 0.0 && h.old_count == h.new_count)
    }

    /// Render the report as an aligned text table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "total wall time  {:>10} us -> {:>10} us  ({:.2}x)\n",
            self.old_total_us,
            self.new_total_us,
            self.new_total_us as f64 / self.old_total_us.max(1) as f64
        ));
        if !self.counters.is_empty() {
            out.push_str("\ncounters\n");
            for c in &self.counters {
                let marker = if c.old == c.new { ' ' } else { '*' };
                out.push_str(&format!(
                    "{marker} {:<28} {:>12} -> {:>12}  ({:+.1}%)\n",
                    c.name,
                    c.old,
                    c.new,
                    c.pct_change()
                ));
            }
        }
        if !self.phases.is_empty() {
            out.push_str("\nphases\n");
            for p in &self.phases {
                out.push_str(&format!(
                    "  {:<28} {:>10} us -> {:>10} us  ({:.2}x)\n",
                    p.name,
                    p.old_us,
                    p.new_us,
                    p.ratio()
                ));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("\nhistograms\n");
            for h in &self.histograms {
                let marker = if h.l1 == 0.0 && h.old_count == h.new_count {
                    ' '
                } else {
                    '*'
                };
                out.push_str(&format!(
                    "{marker} {:<28} n {:>9} -> {:>9}  p99 {:>9} -> {:>9}  L1 {:.4}\n",
                    h.name, h.old_count, h.new_count, h.old_p99, h.new_p99, h.l1
                ));
            }
        }
        if self.old_has_memory || self.new_has_memory {
            out.push_str("\nmemory\n");
            match (self.old_has_memory, self.new_has_memory) {
                (false, true) => out.push_str("  (absent in old trace; new values shown)\n"),
                (true, false) => out.push_str("  (absent in new trace; old values shown)\n"),
                _ => {}
            }
            for m in &self.mem {
                let marker = if m.old_bytes == m.new_bytes { ' ' } else { '*' };
                out.push_str(&format!(
                    "{marker} {:<28} {:>14} -> {:>14} bytes  ({:+.1}%)\n",
                    m.name,
                    m.old_bytes,
                    m.new_bytes,
                    m.pct_change()
                ));
            }
        }
        if self.old_has_footprints || self.new_has_footprints {
            out.push_str("\nfootprints (largest snapshot)\n");
            match (self.old_has_footprints, self.new_has_footprints) {
                (false, true) => out.push_str("  (absent in old trace; new values shown)\n"),
                (true, false) => out.push_str("  (absent in new trace; old values shown)\n"),
                _ => {}
            }
            for f in &self.footprints {
                let marker = if f.old_bytes == f.new_bytes { ' ' } else { '*' };
                out.push_str(&format!(
                    "{marker} {:<28} {:>14} -> {:>14} bytes  ({:+.1}%)\n",
                    f.structure,
                    f.old_bytes,
                    f.new_bytes,
                    f.pct_change()
                ));
            }
        }
        if self.old_mean_utilization.is_some() || self.new_mean_utilization.is_some() {
            out.push_str("\ntimeline\n");
            match (self.old_mean_utilization, self.new_mean_utilization) {
                (None, Some(_)) => out.push_str("  (absent in old trace; new values shown)\n"),
                (Some(_), None) => out.push_str("  (absent in new trace; old values shown)\n"),
                _ => {}
            }
            let fmt = |u: Option<f64>| {
                u.map_or_else(|| "absent".to_owned(), |u| format!("{:.1}%", u * 100.0))
            };
            out.push_str(&format!(
                "  {:<28} {:>14} -> {:>14}\n",
                "mean utilization",
                fmt(self.old_mean_utilization),
                fmt(self.new_mean_utilization)
            ));
        }
        if self.old_quality_recall.is_some() || self.new_quality_recall.is_some() {
            out.push_str("\nquality\n");
            match (self.old_quality_recall, self.new_quality_recall) {
                (None, Some(_)) => out.push_str("  (absent in old trace; new values shown)\n"),
                (Some(_), None) => out.push_str("  (absent in new trace; old values shown)\n"),
                _ => {}
            }
            let fmt = |u: Option<f64>| {
                u.map_or_else(|| "absent".to_owned(), |u| format!("{:.2}%", u * 100.0))
            };
            for (name, old, new) in [
                (
                    "record recall",
                    self.old_quality_recall,
                    self.new_quality_recall,
                ),
                (
                    "record precision",
                    self.old_quality_precision,
                    self.new_quality_precision,
                ),
            ] {
                out.push_str(&format!(
                    "  {:<28} {:>14} -> {:>14}\n",
                    name,
                    fmt(old),
                    fmt(new)
                ));
            }
        }
        out
    }

    /// Evaluate `--fail-on` thresholds against this report.
    #[must_use]
    pub fn check(&self, thresholds: &[Threshold]) -> Vec<Violation> {
        let mut violations = Vec::new();
        for t in thresholds {
            match t {
                Threshold::Counter { name, max_pct } => {
                    match self.counters.iter().find(|c| c.name == *name) {
                        None => violations.push(Violation {
                            spec: t.spec(),
                            message: format!("counter '{name}' not present in either trace"),
                        }),
                        Some(c) => {
                            let pct = c.pct_change().abs();
                            if pct > *max_pct {
                                violations.push(Violation {
                                    spec: t.spec(),
                                    message: format!(
                                        "counter '{name}' changed {pct:.1}% ({} -> {}), limit {max_pct}%",
                                        c.old, c.new
                                    ),
                                });
                            }
                        }
                    }
                }
                Threshold::Phase { name, max_ratio } => {
                    match self.phases.iter().find(|p| p.name == *name) {
                        None => violations.push(Violation {
                            spec: t.spec(),
                            message: format!("phase '{name}' not present in either trace"),
                        }),
                        Some(p) => {
                            if p.ratio() > *max_ratio {
                                violations.push(Violation {
                                    spec: t.spec(),
                                    message: format!(
                                        "phase '{name}' took {:.2}x the baseline ({} us -> {} us), limit {max_ratio}x",
                                        p.ratio(),
                                        p.old_us,
                                        p.new_us
                                    ),
                                });
                            }
                        }
                    }
                }
                Threshold::Hist { name, max_l1 } => {
                    match self.histograms.iter().find(|h| h.name == *name) {
                        None => violations.push(Violation {
                            spec: t.spec(),
                            message: format!("histogram '{name}' not present in either trace"),
                        }),
                        Some(h) => {
                            if h.l1 > *max_l1 {
                                violations.push(Violation {
                                    spec: t.spec(),
                                    message: format!(
                                        "histogram '{name}' shifted L1 {:.4}, limit {max_l1}",
                                        h.l1
                                    ),
                                });
                            }
                        }
                    }
                }
                Threshold::P99 { name, max_pct } => {
                    match self.histograms.iter().find(|h| h.name == *name) {
                        None => violations.push(Violation {
                            spec: t.spec(),
                            message: format!("histogram '{name}' not present in either trace"),
                        }),
                        Some(h) => {
                            let limit = h.old_p99.max(1) as f64 * (1.0 + max_pct / 100.0);
                            if h.new_p99 as f64 > limit {
                                violations.push(Violation {
                                    spec: t.spec(),
                                    message: format!(
                                        "histogram '{name}' p99 regressed {} -> {}, limit +{max_pct}%",
                                        h.old_p99, h.new_p99
                                    ),
                                });
                            }
                        }
                    }
                }
                Threshold::Total { max_ratio } => {
                    let ratio = self.new_total_us as f64 / self.old_total_us.max(1) as f64;
                    if ratio > *max_ratio {
                        violations.push(Violation {
                            spec: t.spec(),
                            message: format!(
                                "total wall time {:.2}x the baseline ({} us -> {} us), limit {max_ratio}x",
                                ratio, self.old_total_us, self.new_total_us
                            ),
                        });
                    }
                }
                Threshold::Mem { name, max_pct } => {
                    // A trace written before memory tracking existed (or a
                    // run without --trace-mem) simply lacks the section:
                    // the gate reports "absent" and passes, rather than
                    // failing CI on a format-version difference.
                    if !self.old_has_memory || !self.new_has_memory {
                        continue;
                    }
                    match self.mem.iter().find(|m| m.name == *name) {
                        None => violations.push(Violation {
                            spec: t.spec(),
                            message: format!("memory metric '{name}' not present in either trace"),
                        }),
                        Some(m) => {
                            let pct = m.pct_change();
                            if pct > *max_pct {
                                violations.push(Violation {
                                    spec: t.spec(),
                                    message: format!(
                                        "memory metric '{name}' grew {pct:.1}% ({} -> {} bytes), limit {max_pct}%",
                                        m.old_bytes, m.new_bytes
                                    ),
                                });
                            }
                        }
                    }
                }
                Threshold::TimelineUtilization { max_drop_pct } => {
                    // Like mem: gates, a side without the section is
                    // "absent", not a failure — pre-timeline baselines
                    // must keep passing until they are refreshed.
                    let (Some(old), Some(new)) =
                        (self.old_mean_utilization, self.new_mean_utilization)
                    else {
                        continue;
                    };
                    let drop = (old - new) * 100.0;
                    if drop > *max_drop_pct {
                        violations.push(Violation {
                            spec: t.spec(),
                            message: format!(
                                "mean worker utilization dropped {drop:.1} points ({:.1}% -> {:.1}%), limit {max_drop_pct}",
                                old * 100.0,
                                new * 100.0
                            ),
                        });
                    }
                }
                Threshold::Quality {
                    metric,
                    max_drop_pct,
                } => {
                    // Like timeline: gates, a side without the section is
                    // "absent", not a failure — pre-quality baselines (and
                    // runs without --truth) must keep passing until they
                    // are refreshed.
                    let (old, new) = if metric == "recall" {
                        (self.old_quality_recall, self.new_quality_recall)
                    } else {
                        (self.old_quality_precision, self.new_quality_precision)
                    };
                    let (Some(old), Some(new)) = (old, new) else {
                        continue;
                    };
                    let drop = (old - new) * 100.0;
                    if drop > *max_drop_pct {
                        violations.push(Violation {
                            spec: t.spec(),
                            message: format!(
                                "record {metric} dropped {drop:.2} points ({:.2}% -> {:.2}%), limit {max_drop_pct}",
                                old * 100.0,
                                new * 100.0
                            ),
                        });
                    }
                }
                Threshold::Footprint { name, max_pct } => {
                    if !self.old_has_footprints || !self.new_has_footprints {
                        continue;
                    }
                    match self.footprints.iter().find(|f| f.structure == *name) {
                        None => violations.push(Violation {
                            spec: t.spec(),
                            message: format!("footprint '{name}' not present in either trace"),
                        }),
                        Some(f) => {
                            let pct = f.pct_change();
                            if pct > *max_pct {
                                violations.push(Violation {
                                    spec: t.spec(),
                                    message: format!(
                                        "footprint '{name}' grew {pct:.1}% ({} -> {} bytes), limit {max_pct}%",
                                        f.old_bytes, f.new_bytes
                                    ),
                                });
                            }
                        }
                    }
                }
            }
        }
        violations
    }
}

/// A violated threshold, for the CLI to report and exit nonzero on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The `--fail-on` spec that was violated, verbatim.
    pub spec: String,
    /// Human-readable description of the violation.
    pub message: String,
}

/// One parsed `--fail-on` threshold.
#[derive(Debug, Clone, PartialEq)]
pub enum Threshold {
    /// `counter:NAME:PCT[%]` — fail when |Δ| exceeds PCT percent of the
    /// baseline value.
    Counter {
        /// Counter name.
        name: String,
        /// Maximum absolute change in percent.
        max_pct: f64,
    },
    /// `phase:NAME:RATIO` — fail when the phase takes more than RATIO
    /// times the baseline wall time.
    Phase {
        /// Phase name.
        name: String,
        /// Maximum new/old wall-time ratio.
        max_ratio: f64,
    },
    /// `hist:NAME:L1MAX` — fail when the histogram's normalised L1
    /// distance from baseline exceeds L1MAX.
    Hist {
        /// Histogram name.
        name: String,
        /// Maximum L1 distance (0–2).
        max_l1: f64,
    },
    /// `p99:NAME:PCT[%]` — fail when the histogram's p99 estimate
    /// regresses more than PCT percent over baseline.
    P99 {
        /// Histogram name.
        name: String,
        /// Maximum p99 regression in percent.
        max_pct: f64,
    },
    /// `total:RATIO` — fail when total wall time exceeds RATIO times
    /// the baseline.
    Total {
        /// Maximum new/old total wall-time ratio.
        max_ratio: f64,
    },
    /// `mem:NAME:PCT[%]` — fail when the memory metric (`total`,
    /// `peak`, or a phase's alloc bytes) grows more than PCT percent
    /// over baseline. Skipped (not violated) when either trace has no
    /// memory section at all.
    Mem {
        /// Metric name (`"total"`, `"peak"`, or a phase name).
        name: String,
        /// Maximum growth in percent.
        max_pct: f64,
    },
    /// `footprint:NAME:PCT[%]` — fail when a structure's largest
    /// footprint snapshot grows more than PCT percent over baseline.
    /// Skipped (not violated) when either trace has no footprint
    /// snapshots at all.
    Footprint {
        /// Structure name (e.g. `"pair_score_cache"`).
        name: String,
        /// Maximum growth in percent.
        max_pct: f64,
    },
    /// `timeline:utilization:PCT[%]` — fail when mean per-worker
    /// utilization drops more than PCT percentage points below the
    /// baseline. Skipped (not violated) when either trace has no
    /// timeline section at all.
    TimelineUtilization {
        /// Maximum utilization drop in percentage points.
        max_drop_pct: f64,
    },
    /// `quality:recall:PCT[%]` / `quality:precision:PCT[%]` — fail when
    /// the record-level quality metric drops more than PCT percentage
    /// points below the baseline. Skipped (not violated) when either
    /// trace has no quality section at all.
    Quality {
        /// Metric name (`"recall"` or `"precision"`).
        metric: String,
        /// Maximum drop in percentage points.
        max_drop_pct: f64,
    },
}

impl Threshold {
    /// Parse a `--fail-on` spec.
    ///
    /// # Errors
    ///
    /// Returns a usage message when the spec's shape or number is invalid.
    pub fn parse(spec: &str) -> Result<Threshold, String> {
        let bad = || {
            format!(
                "invalid --fail-on spec '{spec}' (expected counter:NAME:PCT, \
                 phase:NAME:RATIO, hist:NAME:L1MAX, p99:NAME:PCT, mem:NAME:PCT, \
                 footprint:NAME:PCT, timeline:utilization:PCT, \
                 quality:recall:PCT, quality:precision:PCT or total:RATIO)"
            )
        };
        let mut parts = spec.splitn(3, ':');
        let kind = parts.next().ok_or_else(bad)?;
        if kind == "total" {
            let ratio: f64 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
            if parts.next().is_some() || !ratio.is_finite() || ratio <= 0.0 {
                return Err(bad());
            }
            return Ok(Threshold::Total { max_ratio: ratio });
        }
        let name = parts.next().ok_or_else(bad)?.to_owned();
        let value = parts.next().ok_or_else(bad)?;
        let number: f64 = value.trim_end_matches('%').parse().map_err(|_| bad())?;
        if name.is_empty() || !number.is_finite() || number < 0.0 {
            return Err(bad());
        }
        match kind {
            "counter" => Ok(Threshold::Counter {
                name,
                max_pct: number,
            }),
            "phase" => Ok(Threshold::Phase {
                name,
                max_ratio: number,
            }),
            "hist" => Ok(Threshold::Hist {
                name,
                max_l1: number,
            }),
            "p99" => Ok(Threshold::P99 {
                name,
                max_pct: number,
            }),
            "mem" => Ok(Threshold::Mem {
                name,
                max_pct: number,
            }),
            "footprint" => Ok(Threshold::Footprint {
                name,
                max_pct: number,
            }),
            "timeline" if name == "utilization" => Ok(Threshold::TimelineUtilization {
                max_drop_pct: number,
            }),
            "quality" if name == "recall" || name == "precision" => Ok(Threshold::Quality {
                metric: name,
                max_drop_pct: number,
            }),
            _ => Err(bad()),
        }
    }

    /// The spec string this threshold renders back to (for violation
    /// messages).
    #[must_use]
    pub fn spec(&self) -> String {
        match self {
            Threshold::Counter { name, max_pct } => format!("counter:{name}:{max_pct}%"),
            Threshold::Phase { name, max_ratio } => format!("phase:{name}:{max_ratio}"),
            Threshold::Hist { name, max_l1 } => format!("hist:{name}:{max_l1}"),
            Threshold::P99 { name, max_pct } => format!("p99:{name}:{max_pct}%"),
            Threshold::Total { max_ratio } => format!("total:{max_ratio}"),
            Threshold::Mem { name, max_pct } => format!("mem:{name}:{max_pct}%"),
            Threshold::Footprint { name, max_pct } => format!("footprint:{name}:{max_pct}%"),
            Threshold::TimelineUtilization { max_drop_pct } => {
                format!("timeline:utilization:{max_drop_pct}%")
            }
            Threshold::Quality {
                metric,
                max_drop_pct,
            } => format!("quality:{metric}:{max_drop_pct}%"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::footprint::FootprintSnapshot;
    use crate::hist::NamedHistogram;
    use crate::report::{CounterValue, MemoryStats, PhaseMem, PhaseStat};

    fn trace(pairs: u64, selection_us: u64, scores: &[u64]) -> RunTrace {
        let mut hist = Histogram::new();
        for &s in scores {
            hist.record(s);
        }
        RunTrace {
            enabled: true,
            total_us: 1000 + selection_us,
            phases: vec![PhaseStat {
                name: "selection".into(),
                calls: 1,
                total_us: selection_us,
            }],
            iterations: vec![],
            counters: vec![CounterValue {
                name: "prematch_pairs_scored".into(),
                value: pairs,
            }],
            chunks: vec![],
            spans: vec![],
            histograms: vec![NamedHistogram {
                name: "pair_agg_sim_bp".into(),
                unit: "bp".into(),
                hist,
            }],
            memory: None,
            footprints: vec![],
            events: vec![],
            shards: vec![],
            timeline: None,
            quality: None,
        }
    }

    #[test]
    fn self_diff_is_identical_with_zero_deltas() {
        let t = trace(100, 50, &[5000, 6000, 7000]);
        let report = compare(&t, &t);
        assert!(report.is_identical());
        assert!(report
            .check(&[
                Threshold::parse("counter:prematch_pairs_scored:0").unwrap(),
                Threshold::parse("hist:pair_agg_sim_bp:0").unwrap(),
                Threshold::parse("p99:pair_agg_sim_bp:0").unwrap(),
            ])
            .is_empty());
    }

    #[test]
    fn doctored_trace_trips_thresholds() {
        let old = trace(100, 50, &[5000, 6000]);
        let new = trace(200, 5000, &[20, 20]);
        let report = compare(&old, &new);
        assert!(!report.is_identical());
        let violations = report.check(&[
            Threshold::parse("counter:prematch_pairs_scored:25%").unwrap(),
            Threshold::parse("phase:selection:10").unwrap(),
            Threshold::parse("hist:pair_agg_sim_bp:0.5").unwrap(),
        ]);
        assert_eq!(violations.len(), 3, "{violations:?}");
        // well inside generous limits: no violations
        assert!(report
            .check(&[Threshold::parse("counter:prematch_pairs_scored:150%").unwrap()])
            .is_empty());
    }

    #[test]
    fn unknown_names_in_thresholds_are_violations() {
        let t = trace(1, 1, &[1]);
        let report = compare(&t, &t);
        let v = report.check(&[Threshold::parse("counter:no_such_counter:5").unwrap()]);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("not present"));
    }

    #[test]
    fn names_missing_on_one_side_compare_against_zero() {
        let old = trace(100, 50, &[5000]);
        let mut new = old.clone();
        new.counters.push(CounterValue {
            name: "brand_new_counter".into(),
            value: 7,
        });
        new.histograms.clear();
        let report = compare(&old, &new);
        let added = report
            .counters
            .iter()
            .find(|c| c.name == "brand_new_counter")
            .unwrap();
        assert_eq!((added.old, added.new), (0, 7));
        let hist = &report.histograms[0];
        assert_eq!(hist.l1, 2.0);
        assert_eq!(hist.new_count, 0);
    }

    #[test]
    fn threshold_parsing_accepts_all_kinds_and_rejects_garbage() {
        assert!(matches!(
            Threshold::parse("counter:record_links:10%").unwrap(),
            Threshold::Counter { max_pct, .. } if max_pct == 10.0
        ));
        assert!(matches!(
            Threshold::parse("phase:selection:200").unwrap(),
            Threshold::Phase { max_ratio, .. } if max_ratio == 200.0
        ));
        assert!(matches!(
            Threshold::parse("total:3.5").unwrap(),
            Threshold::Total { max_ratio } if max_ratio == 3.5
        ));
        for bad in [
            "counter:only_name",
            "phase::2",
            "hist:x:-1",
            "total:0",
            "total:abc",
            "nonsense:x:1",
            "",
        ] {
            assert!(Threshold::parse(bad).is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn render_marks_changed_rows() {
        let old = trace(100, 50, &[5000]);
        let mut new = old.clone();
        new.counters[0].value = 150;
        let text = compare(&old, &new).render();
        assert!(text.contains("* prematch_pairs_scored"));
        assert!(text.contains("(+50.0%)"));
    }

    fn with_memory(mut t: RunTrace, total: u64, peak: u64, prematch: u64) -> RunTrace {
        t.memory = Some(MemoryStats {
            bytes_allocated: total,
            allocs: 10,
            frees: 8,
            live_bytes_at_finish: 0,
            peak_live_bytes: peak,
            phases: vec![PhaseMem {
                name: "prematch".into(),
                alloc_bytes: prematch,
                allocs: 5,
                peak_live_bytes: peak,
            }],
        });
        t
    }

    #[test]
    fn mem_gates_skip_when_either_side_lacks_memory() {
        let plain = trace(1, 1, &[1]);
        let tracked = with_memory(trace(1, 1, &[1]), 1 << 30, 1 << 29, 1 << 20);
        let gates = [
            Threshold::parse("mem:total:10%").unwrap(),
            Threshold::parse("mem:peak:10%").unwrap(),
            Threshold::parse("footprint:pair_score_cache:10%").unwrap(),
        ];
        // old trace predates memory tracking: absent, not a failure,
        // even though the "growth" from a zero baseline is unbounded
        let report = compare(&plain, &tracked);
        assert!(!report.old_has_memory && report.new_has_memory);
        assert!(report.check(&gates).is_empty());
        // and the other way round
        assert!(compare(&tracked, &plain).check(&gates).is_empty());
        let rendered = report.render();
        assert!(rendered.contains("absent in old trace"), "{rendered}");
    }

    #[test]
    fn mem_regression_trips_and_unknown_metric_is_violation() {
        let old = with_memory(trace(1, 1, &[1]), 1000, 500, 100);
        let new = with_memory(trace(1, 1, &[1]), 1500, 1200, 100);
        let report = compare(&old, &new);
        let v = report.check(&[
            Threshold::parse("mem:total:25%").unwrap(),   // +50% trips
            Threshold::parse("mem:peak:200%").unwrap(),   // +140% passes
            Threshold::parse("mem:prematch:0%").unwrap(), // unchanged passes
            Threshold::parse("mem:no_such_phase:50%").unwrap(), // both have memory: violation
        ]);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].message.contains("'total' grew 50.0%"), "{v:?}");
        assert!(v[1].message.contains("not present"), "{v:?}");
    }

    fn with_timeline(mut t: RunTrace, busy_us: &[u64]) -> RunTrace {
        // one prematch event per worker, all concurrent from t=0, so the
        // activity window is the longest event and utilization per
        // worker is busy/max
        let events = busy_us
            .iter()
            .enumerate()
            .map(|(w, &busy)| crate::TimelineEvent {
                worker: w as u32,
                kind: crate::EventKind::PrematchTile,
                start_us: 0,
                duration_us: busy,
                detail: w as u64,
                iteration: None,
            })
            .collect();
        t.timeline = Some(crate::Timeline::derive(events, 0));
        t
    }

    #[test]
    fn timeline_gates_skip_when_either_side_lacks_a_timeline() {
        let plain = trace(1, 1, &[1]);
        let timed = with_timeline(trace(1, 1, &[1]), &[100, 100]);
        let gates = [Threshold::parse("timeline:utilization:10%").unwrap()];
        let report = compare(&plain, &timed);
        assert!(report.old_mean_utilization.is_none());
        assert!(report.new_mean_utilization.is_some());
        assert!(report.check(&gates).is_empty());
        assert!(compare(&timed, &plain).check(&gates).is_empty());
        let rendered = report.render();
        assert!(rendered.contains("absent in old trace"), "{rendered}");
        assert!(rendered.contains("mean utilization"), "{rendered}");
    }

    #[test]
    fn utilization_drop_trips_the_timeline_gate() {
        // old: both workers fully busy (100%); new: one worker idles
        // 80% of the window (mean 60%) — a 40-point drop
        let old = with_timeline(trace(1, 1, &[1]), &[100, 100]);
        let new = with_timeline(trace(1, 1, &[1]), &[100, 20]);
        let report = compare(&old, &new);
        let v = report.check(&[Threshold::parse("timeline:utilization:25").unwrap()]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("dropped 40.0 points"), "{v:?}");
        assert!(report
            .check(&[Threshold::parse("timeline:utilization:50").unwrap()])
            .is_empty());
        // improvements never trip
        assert!(compare(&new, &old)
            .check(&[Threshold::parse("timeline:utilization:0").unwrap()])
            .is_empty());
    }

    #[test]
    fn timeline_threshold_requires_the_utilization_metric() {
        assert!(Threshold::parse("timeline:utilization:25%").is_ok());
        assert!(Threshold::parse("timeline:busy:25%").is_err());
    }

    fn with_quality(mut t: RunTrace, precision: f64, recall: f64) -> RunTrace {
        use crate::quality::*;
        t.quality = Some(QualitySection {
            records: QualityCounts {
                found: 100,
                truth: 100,
                correct: 90,
                quality: Quality {
                    precision,
                    recall,
                    f1: 0.0,
                },
            },
            groups: QualityCounts::from_counts(0, 0, 0),
            funnel: RecallFunnel {
                total: 100,
                recovered_selection: 90,
                recovered_remainder: 0,
                missing_endpoint: 0,
                not_blocked: 10,
                age_filtered: 0,
                below_delta: 0,
                lost_selection: 0,
                lost_remainder: 0,
                delta_floor: 0.5,
                blocking: BlockingMisses::default(),
                selection: SelectionLosses::default(),
            },
            per_iteration: vec![],
            bands: vec![],
        });
        t
    }

    #[test]
    fn quality_gates_skip_when_either_side_lacks_a_quality_section() {
        let plain = trace(1, 1, &[1]);
        let measured = with_quality(trace(1, 1, &[1]), 0.95, 0.88);
        let gates = [
            Threshold::parse("quality:recall:1").unwrap(),
            Threshold::parse("quality:precision:1").unwrap(),
        ];
        let report = compare(&plain, &measured);
        assert!(report.old_quality_recall.is_none());
        assert!(report.new_quality_recall.is_some());
        assert!(report.check(&gates).is_empty());
        assert!(compare(&measured, &plain).check(&gates).is_empty());
        let rendered = report.render();
        assert!(rendered.contains("\nquality\n"), "{rendered}");
        assert!(rendered.contains("absent in old trace"), "{rendered}");
        assert!(rendered.contains("record recall"), "{rendered}");
    }

    #[test]
    fn quality_drop_trips_the_gate() {
        // recall falls 0.90 -> 0.84: a 6-point drop
        let old = with_quality(trace(1, 1, &[1]), 0.95, 0.90);
        let new = with_quality(trace(1, 1, &[1]), 0.95, 0.84);
        let report = compare(&old, &new);
        let v = report.check(&[Threshold::parse("quality:recall:5%").unwrap()]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("recall dropped 6.00 points"), "{v:?}");
        assert!(report
            .check(&[Threshold::parse("quality:recall:10").unwrap()])
            .is_empty());
        // precision is unchanged, and improvements never trip
        assert!(report
            .check(&[Threshold::parse("quality:precision:0").unwrap()])
            .is_empty());
        assert!(compare(&new, &old)
            .check(&[Threshold::parse("quality:recall:0").unwrap()])
            .is_empty());
    }

    #[test]
    fn quality_threshold_requires_recall_or_precision() {
        assert!(Threshold::parse("quality:recall:1%").is_ok());
        assert!(Threshold::parse("quality:precision:2").is_ok());
        assert!(Threshold::parse("quality:f1:1").is_err());
    }

    #[test]
    fn footprint_regression_trips_on_largest_snapshot() {
        let mut old = trace(1, 1, &[1]);
        let mut new = old.clone();
        for (t, bytes) in [(&mut old, 1000u64), (&mut new, 4000u64)] {
            t.footprints.push(FootprintSnapshot {
                structure: "pair_score_cache".into(),
                phase: "prematch".into(),
                iteration: Some(0),
                bytes,
                elements: 10,
            });
        }
        let report = compare(&old, &new);
        let v = report.check(&[Threshold::parse("footprint:pair_score_cache:100%").unwrap()]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("grew 300.0%"), "{v:?}");
        assert!(report
            .check(&[Threshold::parse("footprint:pair_score_cache:400%").unwrap()])
            .is_empty());
    }
}
