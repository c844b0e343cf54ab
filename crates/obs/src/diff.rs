//! Trace comparison: [`compare`] lines two [`RunTrace`]s up as one
//! [`Row`] per quantity — total wall time, counters, phase times,
//! histograms, memory metrics, largest footprints, timeline utilization
//! and record quality — and [`DiffReport::check`] gates CI on them with
//! `--fail-on` [`Threshold`]s, one rule per kind. A name neither trace
//! holds is a violation; a memory, footprint, timeline or quality gate
//! passes when either trace lacks that section.
//!
//! Counters are seed-deterministic and independent of the thread count,
//! so tight counter/histogram thresholds are safe across machines;
//! wall-clock phase times are not — gate those only with generous ratios.

use crate::footprint::FootprintSnapshot;
use crate::hist::Histogram;
use crate::report::RunTrace;
use std::fmt::Write as _;

/// Which trace lacks a row's section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The old (baseline) trace.
    Old,
    /// The new trace.
    New,
}

/// One quantity compared across two traces. A side that lacks the name,
/// or the row's whole section (then named by `missing`), reads as zero
/// or an empty histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct Row<T> {
    /// Counter, phase, histogram, metric or structure name.
    pub name: String,
    /// Value in the old trace.
    pub old: T,
    /// Value in the new trace.
    pub new: T,
    /// The trace without the row's section, if either.
    pub missing: Option<Side>,
}

impl Row<u64> {
    /// Relative change in percent, against `max(old, 1)` so a zero
    /// baseline cannot divide by zero.
    fn pct_change(&self) -> f64 {
        (self.new as f64 - self.old as f64) / self.old.max(1) as f64 * 100.0
    }

    /// `new / max(old, 1)`.
    fn ratio(&self) -> f64 {
        self.new as f64 / self.old.max(1) as f64
    }

    /// A `*`-marked line of the counter (`width` 12) or byte tables.
    fn delta_line(&self, width: usize, unit: &str) -> String {
        let mark = if self.old == self.new { ' ' } else { '*' };
        let (name, old, new, pct) = (&self.name, self.old, self.new, self.pct_change());
        format!("{mark} {name:<28} {old:>width$} -> {new:>width$}{unit}  ({pct:+.1}%)\n")
    }
}

impl Row<Histogram> {
    /// Whether both sides hold the same distribution and sample count.
    fn same(&self) -> bool {
        self.old.l1_distance(&self.new) == 0.0 && self.old.count == self.new.count
    }
}

impl Row<f64> {
    /// A line of the timeline and quality tables: each 0–1 share as a
    /// percentage with `decimals` places, `absent` without the section.
    fn share_line(&self, decimals: usize) -> String {
        let show = |v: f64, side| match self.missing {
            Some(missing) if missing == side => "absent".to_owned(),
            _ => format!("{:.*}%", decimals, v * 100.0),
        };
        let (old, new) = (show(self.old, Side::Old), show(self.new, Side::New));
        format!("  {:<28} {old:>14} -> {new:>14}\n", self.name)
    }
}

/// The full comparison of two traces. Each table lists the union of
/// both traces' names, old-trace order first.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Total wall time, microseconds.
    pub total: Row<u64>,
    /// Counter values.
    pub counters: Vec<Row<u64>>,
    /// Phase wall times, microseconds.
    pub phases: Vec<Row<u64>>,
    /// Histograms (scores, sizes, latencies).
    pub histograms: Vec<Row<Histogram>>,
    /// Bytes allocated (`total`), peak live bytes (`peak`) and each
    /// phase's alloc bytes.
    pub memory: Vec<Row<u64>>,
    /// Largest footprint snapshot per structure, bytes.
    pub footprints: Vec<Row<u64>>,
    /// Mean per-worker utilization (`mean utilization`, 0–1).
    pub timeline: Vec<Row<f64>>,
    /// Record-level `record recall` and `record precision` (0–1).
    pub quality: Vec<Row<f64>>,
}

/// One section of a trace as `(name, value)` entries.
fn entries<N: Into<String>, T>(list: impl IntoIterator<Item = (N, T)>) -> Option<Vec<(String, T)>> {
    Some(list.into_iter().map(|(n, v)| (n.into(), v)).collect())
}

/// One row per name either trace lists in `section` (`None` without the
/// section), old-trace names first and each name once (footprint
/// snapshots repeat a structure per phase).
fn rows<T: Clone + Default>(
    old: &RunTrace,
    new: &RunTrace,
    section: impl Fn(&RunTrace) -> Option<Vec<(String, T)>>,
) -> Vec<Row<T>> {
    let (old, new) = (section(old), section(new));
    let missing = match (&old, &new) {
        (None, _) => Some(Side::Old),
        (_, None) => Some(Side::New),
        _ => None,
    };
    let (old, new) = (old.unwrap_or_default(), new.unwrap_or_default());
    let value = |side: &[(String, T)], name: &str| {
        let found = side.iter().find(|(n, _)| n == name);
        found.map_or_else(T::default, |(_, v)| v.clone())
    };
    let mut rows: Vec<Row<T>> = Vec::new();
    for (name, _) in old.iter().chain(&new) {
        if rows.iter().all(|r| r.name != *name) {
            rows.push(Row {
                name: name.clone(),
                old: value(&old, name),
                new: value(&new, name),
                missing,
            });
        }
    }
    rows
}

/// Compare two traces into a [`DiffReport`].
#[must_use]
pub fn compare(old: &RunTrace, new: &RunTrace) -> DiffReport {
    DiffReport {
        total: rows(old, new, |t| entries([("total", t.total_us)])).remove(0),
        counters: rows(old, new, |t| {
            entries(t.counters.iter().map(|c| (&c.name, c.value)))
        }),
        phases: rows(old, new, |t| {
            entries(t.phases.iter().map(|p| (&p.name, p.total_us)))
        }),
        histograms: rows(old, new, |t| {
            entries(t.histograms.iter().map(|h| (&h.name, h.hist.clone())))
        }),
        memory: rows(old, new, |t| {
            let m = t.memory.as_ref()?;
            let mut list = vec![("total", m.bytes_allocated), ("peak", m.peak_live_bytes)];
            list.extend(m.phases.iter().map(|p| (p.name.as_str(), p.alloc_bytes)));
            entries(list)
        }),
        footprints: rows(old, new, |t| {
            let largest = |f: &FootprintSnapshot| t.max_footprint_bytes(&f.structure).unwrap_or(0);
            let list = entries(t.footprints.iter().map(|f| (&f.structure, largest(f))));
            list.filter(|l| !l.is_empty())
        }),
        timeline: rows(old, new, |t| {
            entries([("mean utilization", t.timeline.as_ref()?.mean_utilization())])
        }),
        quality: rows(old, new, |t| {
            let q = &t.quality.as_ref()?.records.quality;
            let (recall, precision) = (q.recall, q.precision);
            entries([("record recall", recall), ("record precision", precision)])
        }),
    }
}

/// Write one table: a blank line and its title, a note when one trace
/// lacks the section, then one line per row. Empty tables are skipped.
fn table<T>(out: &mut String, title: &str, rows: &[Row<T>], line: impl Fn(&Row<T>) -> String) {
    let Some(first) = rows.first() else {
        return;
    };
    let _ = writeln!(out, "\n{title}");
    match first.missing {
        Some(Side::Old) => out.push_str("  (absent in old trace; new values shown)\n"),
        Some(Side::New) => out.push_str("  (absent in new trace; old values shown)\n"),
        None => {}
    }
    for r in rows {
        out.push_str(&line(r));
    }
}

/// The row called `name`, or the unknown-name violation.
fn find<'a, T>(rows: &'a [Row<T>], what: &str, name: &str) -> Result<&'a Row<T>, String> {
    let found = rows.iter().find(|r| r.name == name);
    found.ok_or_else(|| format!("{what} '{name}' not present in either trace"))
}

/// Whether a table's section is missing from either trace (or both).
fn section_missing<T>(rows: &[Row<T>]) -> bool {
    rows.first().is_none_or(|r| r.missing.is_some())
}

impl DiffReport {
    /// Whether the deterministic portions of the two traces are identical:
    /// every counter and histogram (shape and sample count) equal. Wall
    /// times are ignored — they never repeat exactly.
    #[must_use]
    pub fn is_identical(&self) -> bool {
        self.counters.iter().all(|c| c.old == c.new) && self.histograms.iter().all(Row::same)
    }

    /// Render the report as an aligned text table.
    #[must_use]
    pub fn render(&self) -> String {
        let (old, new, ratio) = (self.total.old, self.total.new, self.total.ratio());
        let mut out = format!("total wall time  {old:>10} us -> {new:>10} us  ({ratio:.2}x)\n");
        table(&mut out, "counters", &self.counters, |r| {
            r.delta_line(12, "")
        });
        table(&mut out, "phases", &self.phases, |r| {
            let (name, old, new, ratio) = (&r.name, r.old, r.new, r.ratio());
            format!("  {name:<28} {old:>10} us -> {new:>10} us  ({ratio:.2}x)\n")
        });
        table(&mut out, "histograms", &self.histograms, |r| {
            let mark = if r.same() { ' ' } else { '*' };
            let (name, l1) = (&r.name, r.old.l1_distance(&r.new));
            let (old, new) = (r.old.count, r.new.count);
            let (old_p99, new_p99) = (r.old.percentile(0.99), r.new.percentile(0.99));
            format!("{mark} {name:<28} n {old:>9} -> {new:>9}  p99 {old_p99:>9} -> {new_p99:>9}  L1 {l1:.4}\n")
        });
        for (title, rows) in [
            ("memory", &self.memory),
            ("footprints (largest snapshot)", &self.footprints),
        ] {
            table(&mut out, title, rows, |r| r.delta_line(14, " bytes"));
        }
        table(&mut out, "timeline", &self.timeline, |r| r.share_line(1));
        table(&mut out, "quality", &self.quality, |r| r.share_line(2));
        out
    }

    /// Evaluate `--fail-on` thresholds against this report.
    #[must_use]
    pub fn check(&self, thresholds: &[Threshold]) -> Vec<Violation> {
        let violation = |t: &Threshold| {
            let message = self.gate(t).err()?;
            let spec = t.spec();
            Some(Violation { spec, message })
        };
        thresholds.iter().filter_map(violation).collect()
    }

    /// One threshold's rule: `Err` holds the violation message.
    fn gate(&self, t: &Threshold) -> Result<(), String> {
        let (name, limit) = (t.name.as_str(), t.limit);
        let (tripped, message) = match t.kind {
            Kind::Counter => {
                let r = find(&self.counters, "counter", name)?;
                let (old, new, pct) = (r.old, r.new, r.pct_change().abs());
                let message =
                    format!("counter '{name}' changed {pct:.1}% ({old} -> {new}), limit {limit}%");
                (pct > limit, message)
            }
            Kind::Phase | Kind::Total => {
                let (r, what) = if t.kind == Kind::Total {
                    (&self.total, "total wall time".to_owned())
                } else {
                    let r = find(&self.phases, "phase", name)?;
                    (r, format!("phase '{name}' took"))
                };
                let (old, new, ratio) = (r.old, r.new, r.ratio());
                let message = format!(
                    "{what} {ratio:.2}x the baseline ({old} us -> {new} us), limit {limit}x"
                );
                (ratio > limit, message)
            }
            Kind::Hist => {
                let r = find(&self.histograms, "histogram", name)?;
                let l1 = r.old.l1_distance(&r.new);
                let message = format!("histogram '{name}' shifted L1 {l1:.4}, limit {limit}");
                (l1 > limit, message)
            }
            Kind::P99 => {
                let r = find(&self.histograms, "histogram", name)?;
                let (old, new) = (r.old.percentile(0.99), r.new.percentile(0.99));
                let message =
                    format!("histogram '{name}' p99 regressed {old} -> {new}, limit +{limit}%");
                let tripped = new as f64 > old.max(1) as f64 * (1.0 + limit / 100.0);
                (tripped, message)
            }
            Kind::Mem | Kind::Footprint => {
                let (rows, what) = if t.kind == Kind::Mem {
                    (&self.memory, "memory metric")
                } else {
                    (&self.footprints, "footprint")
                };
                if section_missing(rows) {
                    return Ok(());
                }
                let r = find(rows, what, name)?;
                let (old, new, pct) = (r.old, r.new, r.pct_change());
                let message = format!(
                    "{what} '{name}' grew {pct:.1}% ({old} -> {new} bytes), limit {limit}%"
                );
                (pct > limit, message)
            }
            Kind::Timeline | Kind::Quality => {
                let (rows, row, what, d) = if t.kind == Kind::Timeline {
                    let what = "mean worker utilization".to_owned();
                    (&self.timeline, "mean utilization".to_owned(), what, 1)
                } else {
                    let row = format!("record {name}");
                    (&self.quality, row.clone(), row, 2)
                };
                if section_missing(rows) {
                    return Ok(());
                }
                let r = find(rows, &what, &row)?;
                let drop = (r.old - r.new) * 100.0;
                let (old, new) = (r.old * 100.0, r.new * 100.0);
                let message = format!(
                    "{what} dropped {drop:.d$} points ({old:.d$}% -> {new:.d$}%), limit {limit}"
                );
                (drop > limit, message)
            }
        };
        tripped.then_some(message).map_or(Ok(()), Err)
    }
}

/// A violated threshold, for the CLI to report and exit nonzero on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The threshold's spec, as [`Threshold::spec`] renders it.
    pub spec: String,
    /// Human-readable description of the violation.
    pub message: String,
}

/// What a [`Threshold`] gates; [`KINDS`] holds each one's spec word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Phase,
    Hist,
    P99,
    Total,
    Mem,
    Footprint,
    Timeline,
    Quality,
}

/// Every kind with its spec word.
const KINDS: [(Kind, &str); 9] = [
    (Kind::Counter, "counter"),
    (Kind::Phase, "phase"),
    (Kind::Hist, "hist"),
    (Kind::P99, "p99"),
    (Kind::Total, "total"),
    (Kind::Mem, "mem"),
    (Kind::Footprint, "footprint"),
    (Kind::Timeline, "timeline"),
    (Kind::Quality, "quality"),
];

/// One parsed `--fail-on` threshold (the `%` of a percentage is
/// optional). It fails when `counter:NAME:PCT%` moves either way by more
/// than PCT percent; `phase:NAME:RATIO` or `total:RATIO` (> 0) takes
/// more than RATIO times the baseline time; `hist:NAME:L1MAX` shifts
/// more than L1MAX in normalised L1 distance (0–2); `p99:NAME:PCT%`
/// regresses its p99 estimate, or `mem:NAME:PCT%` (`total`, `peak` or a
/// phase's alloc bytes) and `footprint:NAME:PCT%` (largest snapshot)
/// grow, by more than PCT percent; `timeline:utilization:PCT%` (mean
/// worker utilization), `quality:recall:PCT%` or
/// `quality:precision:PCT%` drops more than PCT percentage points.
#[derive(Debug, Clone, PartialEq)]
pub struct Threshold {
    kind: Kind,
    /// Empty for `total`.
    name: String,
    limit: f64,
}

impl Threshold {
    /// Parse a `--fail-on` spec.
    ///
    /// # Errors
    ///
    /// Returns a usage message when the spec's shape, name or number is
    /// invalid.
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
        let word = parts.next().unwrap_or_default();
        let &(kind, _) = KINDS.iter().find(|(_, w)| *w == word).ok_or_else(bad)?;
        let (name, limit, valid) = if kind == Kind::Total {
            let limit: f64 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
            ("", limit, parts.next().is_none() && limit > 0.0)
        } else {
            let name = parts.next().ok_or_else(bad)?;
            let value = parts.next().ok_or_else(bad)?.trim_end_matches('%');
            let limit: f64 = value.parse().map_err(|_| bad())?;
            let known = match kind {
                Kind::Timeline => name == "utilization",
                Kind::Quality => name == "recall" || name == "precision",
                _ => !name.is_empty(),
            };
            (name, limit, known && limit >= 0.0)
        };
        if !valid || !limit.is_finite() {
            return Err(bad());
        }
        let name = name.to_owned();
        Ok(Threshold { kind, name, limit })
    }

    /// The spec this threshold renders back to (for violation
    /// messages); percentage limits always carry their `%`.
    #[must_use]
    pub fn spec(&self) -> String {
        let (name, limit) = (&self.name, self.limit);
        let word = KINDS
            .iter()
            .find(|(k, _)| *k == self.kind)
            .map_or("", |(_, w)| w);
        match self.kind {
            Kind::Total => format!("total:{limit}"),
            Kind::Phase | Kind::Hist => format!("{word}:{name}:{limit}"),
            _ => format!("{word}:{name}:{limit}%"),
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
        assert_eq!(hist.old.l1_distance(&hist.new), 2.0);
        assert_eq!(hist.new.count, 0);
    }

    #[test]
    fn threshold_parsing_accepts_all_kinds_and_rejects_garbage() {
        let parsed = |spec| {
            let t = Threshold::parse(spec).unwrap();
            (t.kind, t.name, t.limit)
        };
        assert_eq!(
            parsed("counter:record_links:10%"),
            (Kind::Counter, "record_links".to_owned(), 10.0)
        );
        assert_eq!(
            parsed("phase:selection:200"),
            (Kind::Phase, "selection".to_owned(), 200.0)
        );
        assert_eq!(parsed("total:3.5"), (Kind::Total, String::new(), 3.5));
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
        assert_eq!(report.memory[0].missing, Some(Side::Old));
        assert!(report.check(&gates).is_empty());
        // and the other way round
        assert!(compare(&tracked, &plain).check(&gates).is_empty());
        let rendered = report.render();
        assert!(rendered.contains("absent in old trace"), "{rendered}");
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
                kind: crate::EventKind::PrematchTask,
                start_us: 0,
                duration_us: busy,
                detail: w as u64,
                iteration: None,
            })
            .collect();
        t.timeline = Some(crate::Timeline::derive(events));
        t
    }

    #[test]
    fn timeline_gates_skip_when_either_side_lacks_a_timeline() {
        let plain = trace(1, 1, &[1]);
        let timed = with_timeline(trace(1, 1, &[1]), &[100, 100]);
        let gates = [Threshold::parse("timeline:utilization:10%").unwrap()];
        let report = compare(&plain, &timed);
        assert_eq!(report.timeline[0].missing, Some(Side::Old));
        assert!(report.check(&gates).is_empty());
        assert!(compare(&timed, &plain).check(&gates).is_empty());
        let rendered = report.render();
        assert!(rendered.contains("absent in old trace"), "{rendered}");
        assert!(rendered.contains("mean utilization"), "{rendered}");
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
        assert_eq!(report.quality[0].missing, Some(Side::Old));
        assert!(report.check(&gates).is_empty());
        assert!(compare(&measured, &plain).check(&gates).is_empty());
        let rendered = report.render();
        assert!(rendered.contains("\nquality\n"), "{rendered}");
        assert!(rendered.contains("absent in old trace"), "{rendered}");
        assert!(rendered.contains("record recall"), "{rendered}");
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

    /// How one row of the gate table must come out.
    enum Expect {
        /// No violation.
        Pass,
        /// Exactly one violation, with this message.
        Trip(&'static str),
        /// The spec does not parse.
        BadSpec,
    }

    /// Which traces a row of the gate table compares.
    enum Pair {
        /// `old` against `new`.
        Fwd,
        /// `new` against `old`: every gated quantity improves.
        Back,
        /// A trace without memory, footprint, timeline and quality
        /// sections against `new`.
        OldBare,
        /// `new` against a trace without those sections.
        NewBare,
    }

    /// The base traces of the gate table: `new` moves every gated
    /// quantity away from `old`.
    fn gate_traces() -> (RunTrace, RunTrace) {
        let full = |pairs, selection_us, score, mem: (u64, u64), fp, busy: &[u64], recall| {
            let t = with_memory(
                trace(pairs, selection_us, &[score, score]),
                mem.0,
                mem.1,
                100,
            );
            let mut t = with_quality(with_timeline(t, busy), 0.95, recall);
            t.footprints.push(FootprintSnapshot {
                structure: "pair_score_cache".into(),
                phase: "prematch".into(),
                iteration: Some(0),
                bytes: fp,
                elements: 10,
            });
            t
        };
        (
            full(100, 50, 1000, (1000, 500), 1000, &[100, 100], 0.90),
            full(200, 5000, 4000, (1500, 1200), 4000, &[100, 20], 0.84),
        )
    }

    #[test]
    fn every_threshold_kind_passes_trips_and_refuses_unknown_names() {
        use Expect::{BadSpec, Pass, Trip};
        use Pair::{Back, Fwd, NewBare, OldBare};
        let rows: &[(&str, Pair, Expect)] = &[
            ("counter:prematch_pairs_scored:150%", Fwd, Pass),
            (
                "counter:prematch_pairs_scored:25%",
                Fwd,
                Trip("counter 'prematch_pairs_scored' changed 100.0% (100 -> 200), limit 25%"),
            ),
            // counters gate the absolute change: a fall trips too
            (
                "counter:prematch_pairs_scored:25",
                Back,
                Trip("counter 'prematch_pairs_scored' changed 50.0% (200 -> 100), limit 25%"),
            ),
            (
                "counter:no_such_counter:5",
                Fwd,
                Trip("counter 'no_such_counter' not present in either trace"),
            ),
            ("phase:selection:200", Fwd, Pass),
            (
                "phase:selection:10",
                Fwd,
                Trip("phase 'selection' took 100.00x the baseline (50 us -> 5000 us), limit 10x"),
            ),
            ("phase:selection:1", Back, Pass),
            (
                "phase:no_such_phase:2",
                Fwd,
                Trip("phase 'no_such_phase' not present in either trace"),
            ),
            ("hist:pair_agg_sim_bp:2", Fwd, Pass),
            (
                "hist:pair_agg_sim_bp:0.5",
                Fwd,
                Trip("histogram 'pair_agg_sim_bp' shifted L1 2.0000, limit 0.5"),
            ),
            (
                "hist:no_such_hist:1",
                Fwd,
                Trip("histogram 'no_such_hist' not present in either trace"),
            ),
            ("p99:pair_agg_sim_bp:300%", Fwd, Pass),
            (
                "p99:pair_agg_sim_bp:100%",
                Fwd,
                Trip("histogram 'pair_agg_sim_bp' p99 regressed 1000 -> 4000, limit +100%"),
            ),
            ("p99:pair_agg_sim_bp:0", Back, Pass),
            (
                "p99:no_such_hist:5",
                Fwd,
                Trip("histogram 'no_such_hist' not present in either trace"),
            ),
            ("total:10", Fwd, Pass),
            (
                "total:2",
                Fwd,
                Trip("total wall time 5.71x the baseline (1050 us -> 6000 us), limit 2x"),
            ),
            ("total:selection:2", Fwd, BadSpec),
            ("mem:total:100%", Fwd, Pass),
            ("mem:peak:200%", Fwd, Pass),
            ("mem:prematch:0%", Fwd, Pass),
            (
                "mem:total:25%",
                Fwd,
                Trip("memory metric 'total' grew 50.0% (1000 -> 1500 bytes), limit 25%"),
            ),
            ("mem:total:0", Back, Pass),
            (
                "mem:no_such_phase:50%",
                Fwd,
                Trip("memory metric 'no_such_phase' not present in either trace"),
            ),
            // a missing section passes, even for an unknown name
            ("mem:total:10%", OldBare, Pass),
            ("mem:peak:10%", NewBare, Pass),
            ("mem:no_such_phase:10%", OldBare, Pass),
            ("footprint:pair_score_cache:400%", Fwd, Pass),
            (
                "footprint:pair_score_cache:100%",
                Fwd,
                Trip("footprint 'pair_score_cache' grew 300.0% (1000 -> 4000 bytes), limit 100%"),
            ),
            ("footprint:pair_score_cache:0", Back, Pass),
            (
                "footprint:no_such_structure:10%",
                Fwd,
                Trip("footprint 'no_such_structure' not present in either trace"),
            ),
            ("footprint:pair_score_cache:10%", OldBare, Pass),
            ("footprint:pair_score_cache:10%", NewBare, Pass),
            ("timeline:utilization:50", Fwd, Pass),
            (
                "timeline:utilization:25%",
                Fwd,
                Trip("mean worker utilization dropped 40.0 points (100.0% -> 60.0%), limit 25"),
            ),
            ("timeline:utilization:0", Back, Pass),
            ("timeline:busy:25%", Fwd, BadSpec),
            ("timeline:utilization:10%", OldBare, Pass),
            ("timeline:utilization:10%", NewBare, Pass),
            ("quality:recall:10", Fwd, Pass),
            ("quality:precision:0", Fwd, Pass),
            (
                "quality:recall:5%",
                Fwd,
                Trip("record recall dropped 6.00 points (90.00% -> 84.00%), limit 5"),
            ),
            ("quality:recall:0", Back, Pass),
            ("quality:f1:1", Fwd, BadSpec),
            ("quality:recall:1", OldBare, Pass),
            ("quality:precision:1", NewBare, Pass),
        ];
        let (old, new) = gate_traces();
        assert!(!compare(&old, &new).is_identical());
        let bare = trace(100, 50, &[1000, 1000]);
        for (spec, pair, expect) in rows {
            let threshold = match (Threshold::parse(spec), expect) {
                (Err(_), BadSpec) => continue,
                (Ok(t), Pass | Trip(_)) => t,
                (parsed, _) => panic!("{spec}: unexpected parse result {parsed:?}"),
            };
            let (a, b) = match pair {
                Fwd => (&old, &new),
                Back => (&new, &old),
                OldBare => (&bare, &new),
                NewBare => (&new, &bare),
            };
            let messages: Vec<String> = compare(a, b)
                .check(&[threshold])
                .into_iter()
                .map(|v| v.message)
                .collect();
            match expect {
                Pass => assert!(messages.is_empty(), "{spec}: {messages:?}"),
                Trip(message) => assert_eq!(messages, [*message], "{spec}"),
                BadSpec => unreachable!(),
            }
        }
    }

    #[test]
    fn every_ci_gate_parses_and_renders_back_to_its_spec() {
        let ci = include_str!("../../../.github/workflows/ci.yml");
        let specs: Vec<&str> = ci
            .split("--fail-on")
            .skip(1)
            .filter_map(|rest| rest.split_whitespace().next())
            .collect();
        assert!(specs.len() >= 25, "{specs:?}");
        for spec in specs {
            let t = Threshold::parse(spec).unwrap_or_else(|e| panic!("{e}"));
            // percent-limited kinds render their optional '%'
            let rendered = t.spec();
            assert!(
                rendered == spec || rendered == format!("{spec}%"),
                "{spec} renders back as {rendered}"
            );
            assert_eq!(Threshold::parse(&rendered), Ok(t), "{spec}");
        }
    }
}
