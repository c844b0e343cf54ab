//! Ground-truth quality telemetry: precision/recall/F1 plus the
//! recall-loss funnel.
//!
//! Every other section of a [`crate::RunTrace`] measures *performance* —
//! time, memory, scheduling. This module measures linkage *quality*
//! against known ground truth: a [`QualitySection`] carries record- and
//! group-level [`Quality`] triples plus a [`RecallFunnel`] that classifies
//! every true record pair by where it died in the pipeline (or which
//! phase recovered it), with per-δ-iteration and per-`agg_sim`-band
//! strata.
//!
//! The funnel is *exhaustive and exclusive*: each true pair lands in
//! exactly one stage, so the loss buckets sum to the recall complement —
//! `recovered + Σ losses = total` and `record recall` over pairs with
//! both endpoints present is `recovered / (total - missing_endpoint)`.
//! [`RecallFunnel::validate`] enforces this, and `trace-check` runs it on
//! every trace carrying a quality section.
//!
//! Ground truth enters the collector through
//! [`crate::Collector::with_truth`] as a [`TruthConfig`] of raw id pairs;
//! the linkage core classifies pairs by *oracle replay* after the run
//! (recomputing blocking keys, age plausibility and exact `agg_sim` off
//! the hot path). The only run state it reads is the latest selection
//! rejection of each household pair, which the collector keeps from the
//! decision stream ([`crate::Collector::decide`]).

use serde::{Deserialize, Serialize};

/// Standard linkage quality triple, in `[0, 1]`.
///
/// Shared with `census-eval` (which re-exports it), so the paper-table
/// experiments and the trace stack can never compute P/R/F differently.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Quality {
    /// Fraction of found links that are correct.
    pub precision: f64,
    /// Fraction of true links that were found.
    pub recall: f64,
    /// Harmonic mean of precision and recall.
    pub f1: f64,
}

impl Quality {
    /// Build from raw counts.
    #[must_use]
    pub fn from_counts(found: usize, truth: usize, correct: usize) -> Self {
        let precision = if found == 0 {
            0.0
        } else {
            correct as f64 / found as f64
        };
        let recall = if truth == 0 {
            0.0
        } else {
            correct as f64 / truth as f64
        };
        let f1 = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        Self {
            precision,
            recall,
            f1,
        }
    }

    /// Render as `P/R/F` percentages.
    #[must_use]
    pub fn percent_row(&self) -> [String; 3] {
        [
            format!("{:.1}", self.precision * 100.0),
            format!("{:.1}", self.recall * 100.0),
            format!("{:.1}", self.f1 * 100.0),
        ]
    }
}

/// Ground-truth mappings fed to [`crate::Collector::with_truth`], as raw
/// ids (the obs crate deliberately knows nothing about the model crate's
/// id newtypes).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TruthConfig {
    /// True `(old record, new record)` pairs.
    pub record_pairs: Vec<(u64, u64)>,
    /// True `(old household, new household)` pairs.
    pub group_pairs: Vec<(u64, u64)>,
}

/// Found/truth/correct counts with the derived quality triple, for one
/// mapping level (records or groups).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QualityCounts {
    /// Links in the found mapping.
    pub found: u64,
    /// Links in the ground truth.
    pub truth: u64,
    /// Found links that are in the ground truth.
    pub correct: u64,
    /// Derived precision/recall/F1.
    pub quality: Quality,
}

impl QualityCounts {
    /// Build from raw counts, deriving the triple.
    #[must_use]
    pub fn from_counts(found: u64, truth: u64, correct: u64) -> Self {
        Self {
            found,
            truth,
            correct,
            quality: Quality::from_counts(found as usize, truth as usize, correct as usize),
        }
    }
}

/// Which blocking key family disagreed for pairs that were never blocked
/// together. A pair counts in every family whose keys both existed but
/// did not collide, so the buckets are *not* exclusive (a pair lost to
/// blocking usually disagreed on several families at once).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockingMisses {
    /// Both sides had a surname+first-initial key, but they differed.
    pub surname_first: u64,
    /// Both sides had a surname+sex key, but they differed.
    pub surname_sex: u64,
    /// Both sides had a first-name+age-band key, but no band collided.
    pub firstname_age: u64,
}

/// Rejection-reason breakdown of the `lost_selection` funnel stage: why
/// a true pair that scored at or above the executed δ floor still did
/// not survive greedy selection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SelectionLosses {
    /// Household pair rejected: a conflicting candidate had higher `g_sim`.
    pub lower_g_sim: u64,
    /// Household pair rejected: lost the deterministic tie-break.
    pub tie_break: u64,
    /// Household pair rejected: `g_sim` below the `min_g_sim` floor.
    pub below_min_g_sim: u64,
    /// Household pair rejected: its matched subgraph was empty.
    pub empty_subgraph: u64,
    /// No recorded rejection, but an endpoint was linked elsewhere — the
    /// record was consumed by a competing link before or instead of this
    /// pair.
    pub endpoint_claimed: u64,
    /// The household pair was never proposed or its record link was not
    /// extracted, and both endpoints stayed unlinked through selection.
    pub not_extracted: u64,
}

impl SelectionLosses {
    fn total(&self) -> u64 {
        self.lower_g_sim
            + self.tie_break
            + self.below_min_g_sim
            + self.empty_subgraph
            + self.endpoint_claimed
            + self.not_extracted
    }
}

/// The recall-loss funnel: every true record pair classified by the last
/// pipeline stage that saw it. Exhaustive and exclusive — the stage
/// counts sum to `total`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecallFunnel {
    /// True record pairs in the ground truth.
    pub total: u64,
    /// Recovered by subgraph matching + greedy selection (any iteration).
    pub recovered_selection: u64,
    /// Recovered by the attribute-only remainder pass.
    pub recovered_remainder: u64,
    /// An endpoint id does not exist in the loaded datasets.
    pub missing_endpoint: u64,
    /// The two records never shared a blocking key.
    pub not_blocked: u64,
    /// Blocked together but rejected by the pre-matching age filter.
    pub age_filtered: u64,
    /// Aggregated attribute similarity below the lowest δ actually
    /// executed — pre-matching never produced the pair.
    pub below_delta: u64,
    /// Matched at some δ but lost in subgraph matching / selection, and
    /// at least one endpoint was consumed before the remainder pass.
    pub lost_selection: u64,
    /// Both endpoints reached the remainder pass unlinked, and the pass
    /// dropped the pair (blocking, age, score, margin or competition).
    pub lost_remainder: u64,
    /// The lowest δ the iterative schedule actually executed — the
    /// boundary of the `below_delta` stage (early termination can leave
    /// it above the configured δ_low).
    pub delta_floor: f64,
    /// Key-family detail of the `not_blocked` stage.
    pub blocking: BlockingMisses,
    /// Rejection-reason detail of the `lost_selection` stage.
    pub selection: SelectionLosses,
}

impl RecallFunnel {
    /// True pairs recovered by any phase.
    #[must_use]
    pub fn recovered(&self) -> u64 {
        self.recovered_selection + self.recovered_remainder
    }

    /// True pairs lost to any stage.
    #[must_use]
    pub fn losses(&self) -> u64 {
        self.missing_endpoint
            + self.not_blocked
            + self.age_filtered
            + self.below_delta
            + self.lost_selection
            + self.lost_remainder
    }

    /// The funnel invariants: stages sum to the total (exhaustive and
    /// exclusive), and the detail breakdowns are consistent with their
    /// stages.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        let sum = self.recovered() + self.losses();
        if sum != self.total {
            return Err(format!(
                "funnel stages sum to {sum}, but {} true pair(s) exist — \
                 the funnel must be exhaustive and exclusive",
                self.total
            ));
        }
        if self.selection.total() != self.lost_selection {
            return Err(format!(
                "selection-loss reasons sum to {}, but lost_selection is {}",
                self.selection.total(),
                self.lost_selection
            ));
        }
        for (name, n) in [
            ("surname_first", self.blocking.surname_first),
            ("surname_sex", self.blocking.surname_sex),
            ("firstname_age", self.blocking.firstname_age),
        ] {
            if n > self.not_blocked {
                return Err(format!(
                    "blocking miss detail {name} ({n}) exceeds not_blocked ({})",
                    self.not_blocked
                ));
            }
        }
        if !(0.0..=1.0).contains(&self.delta_floor) {
            return Err(format!("delta_floor {} outside [0, 1]", self.delta_floor));
        }
        Ok(())
    }
}

/// Truth coverage of one δ iteration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IterationQuality {
    /// Iteration index (0-based, execution order).
    pub iteration: usize,
    /// Threshold δ of the iteration.
    pub delta: f64,
    /// True record pairs recovered by this iteration's selection.
    pub recovered: u64,
}

/// Truth coverage of one `agg_sim` band (oracle-replayed score of every
/// true pair with both endpoints present, in basis points).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimBand {
    /// Inclusive lower bound of the band, in basis points (`score × 10⁴`).
    pub lo_bp: u64,
    /// Exclusive upper bound of the band, in basis points (the top band
    /// is inclusive at 10000).
    pub hi_bp: u64,
    /// True pairs whose replayed `agg_sim` falls in the band.
    pub truth_pairs: u64,
    /// Of those, how many the run recovered.
    pub recovered: u64,
}

/// The `quality` section of a [`crate::RunTrace`]: ground-truth-aware
/// quality telemetry for one linkage run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QualitySection {
    /// Record-level quality (`M_R` against the true record mapping).
    pub records: QualityCounts,
    /// Group-level quality (`M_G` against the true group mapping).
    pub groups: QualityCounts,
    /// The recall-loss funnel over true record pairs.
    pub funnel: RecallFunnel,
    /// Per-δ-iteration recovery, in execution order.
    pub per_iteration: Vec<IterationQuality>,
    /// Truth coverage per `agg_sim` band; empty bands are omitted.
    pub bands: Vec<SimBand>,
}

/// Width of one [`SimBand`] in basis points (0.05 of similarity).
pub const SIM_BAND_BP: u64 = 500;

impl QualitySection {
    /// Structural invariants of the whole section: the funnel's own
    /// invariants, agreement between the funnel and the record counts,
    /// and consistent strata.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        self.funnel.validate()?;
        if self.funnel.total != self.records.truth {
            return Err(format!(
                "funnel total ({}) disagrees with the record truth count ({})",
                self.funnel.total, self.records.truth
            ));
        }
        if self.funnel.recovered() != self.records.correct {
            return Err(format!(
                "funnel recovered ({}) disagrees with correct record links ({})",
                self.funnel.recovered(),
                self.records.correct
            ));
        }
        let iter_sum: u64 = self.per_iteration.iter().map(|i| i.recovered).sum();
        if iter_sum != self.funnel.recovered_selection {
            return Err(format!(
                "per-iteration recoveries sum to {iter_sum}, but recovered_selection is {}",
                self.funnel.recovered_selection
            ));
        }
        let scored = self.funnel.total - self.funnel.missing_endpoint;
        let band_sum: u64 = self.bands.iter().map(|b| b.truth_pairs).sum();
        if band_sum != scored {
            return Err(format!(
                "agg_sim bands cover {band_sum} pair(s), but {scored} have both endpoints"
            ));
        }
        for w in self.bands.windows(2) {
            if w[1].lo_bp <= w[0].lo_bp {
                return Err("agg_sim bands are not sorted by lower bound".to_owned());
            }
        }
        for b in &self.bands {
            if b.recovered > b.truth_pairs {
                return Err(format!(
                    "band {}–{} recovered {} of only {} truth pair(s)",
                    b.lo_bp, b.hi_bp, b.recovered, b.truth_pairs
                ));
            }
        }
        Ok(())
    }

    /// Render the funnel and strata as the human-readable table behind
    /// `quality-report` and the `--verbose` phase table.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "quality (against ground truth):");
        let _ = writeln!(
            out,
            "  {:<8} {:>8} {:>8} {:>8} {:>7} {:>7} {:>7}",
            "level", "found", "truth", "correct", "P%", "R%", "F1%"
        );
        for (name, c) in [("records", &self.records), ("groups", &self.groups)] {
            let [p, r, f] = c.quality.percent_row();
            let _ = writeln!(
                out,
                "  {:<8} {:>8} {:>8} {:>8} {:>7} {:>7} {:>7}",
                name, c.found, c.truth, c.correct, p, r, f
            );
        }
        let fu = &self.funnel;
        let pct = |n: u64| {
            if fu.total == 0 {
                0.0
            } else {
                n as f64 / fu.total as f64 * 100.0
            }
        };
        let _ = writeln!(
            out,
            "  recall-loss funnel over {} true pair(s) (δ floor {:.2}):",
            fu.total, fu.delta_floor
        );
        let mut stage = |name: &str, n: u64| {
            let _ = writeln!(out, "    {name:<22} {n:>8}  ({:.1}%)", pct(n));
        };
        stage("recovered: selection", fu.recovered_selection);
        stage("recovered: remainder", fu.recovered_remainder);
        stage("lost: missing endpoint", fu.missing_endpoint);
        stage("lost: never blocked", fu.not_blocked);
        stage("lost: age filter", fu.age_filtered);
        stage("lost: below δ floor", fu.below_delta);
        stage("lost: selection", fu.lost_selection);
        stage("lost: remainder", fu.lost_remainder);
        if fu.not_blocked > 0 {
            let b = &fu.blocking;
            let _ = writeln!(
                out,
                "    blocking disagreements: surname_first {}, surname_sex {}, firstname_age {}",
                b.surname_first, b.surname_sex, b.firstname_age
            );
        }
        if fu.lost_selection > 0 {
            let s = &fu.selection;
            let _ = writeln!(
                out,
                "    selection losses: lower_g_sim {}, tie_break {}, below_min_g_sim {}, \
                 empty_subgraph {}, endpoint_claimed {}, not_extracted {}",
                s.lower_g_sim,
                s.tie_break,
                s.below_min_g_sim,
                s.empty_subgraph,
                s.endpoint_claimed,
                s.not_extracted
            );
        }
        if !self.per_iteration.is_empty() {
            let _ = writeln!(out, "  recovery per δ iteration:");
            for i in &self.per_iteration {
                let _ = writeln!(
                    out,
                    "    #{} δ={:.2}  {:>8} recovered",
                    i.iteration, i.delta, i.recovered
                );
            }
        }
        if !self.bands.is_empty() {
            let _ = writeln!(out, "  truth coverage per agg_sim band:");
            for b in &self.bands {
                let r = if b.truth_pairs == 0 {
                    100.0
                } else {
                    b.recovered as f64 / b.truth_pairs as f64 * 100.0
                };
                let _ = writeln!(
                    out,
                    "    [{:.2}, {:.2})  {:>8} pair(s), {:>8} recovered ({r:.1}%)",
                    b.lo_bp as f64 / 10_000.0,
                    b.hi_bp as f64 / 10_000.0,
                    b.truth_pairs,
                    b.recovered
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn funnel() -> RecallFunnel {
        RecallFunnel {
            total: 10,
            recovered_selection: 5,
            recovered_remainder: 1,
            missing_endpoint: 1,
            not_blocked: 1,
            age_filtered: 0,
            below_delta: 1,
            lost_selection: 1,
            lost_remainder: 0,
            delta_floor: 0.5,
            blocking: BlockingMisses {
                surname_first: 1,
                surname_sex: 1,
                firstname_age: 0,
            },
            selection: SelectionLosses {
                lower_g_sim: 1,
                ..SelectionLosses::default()
            },
        }
    }

    fn section() -> QualitySection {
        QualitySection {
            records: QualityCounts::from_counts(8, 10, 6),
            groups: QualityCounts::from_counts(4, 5, 4),
            funnel: funnel(),
            per_iteration: vec![
                IterationQuality {
                    iteration: 0,
                    delta: 0.7,
                    recovered: 4,
                },
                IterationQuality {
                    iteration: 1,
                    delta: 0.65,
                    recovered: 1,
                },
            ],
            bands: vec![
                SimBand {
                    lo_bp: 4500,
                    hi_bp: 5000,
                    truth_pairs: 2,
                    recovered: 0,
                },
                SimBand {
                    lo_bp: 9500,
                    hi_bp: 10_000,
                    truth_pairs: 7,
                    recovered: 6,
                },
            ],
        }
    }

    #[test]
    fn from_counts_guards_zero_denominators() {
        let q = Quality::from_counts(0, 0, 0);
        assert_eq!((q.precision, q.recall, q.f1), (0.0, 0.0, 0.0));
        let q = Quality::from_counts(4, 8, 2);
        assert_eq!(q.precision, 0.5);
        assert_eq!(q.recall, 0.25);
        assert!((q.f1 - 1.0 / 3.0).abs() < 1e-12);
        let c = QualityCounts::from_counts(4, 8, 2);
        assert_eq!(c.quality.precision, 0.5);
    }

    #[test]
    fn funnel_validates_exhaustive_partition() {
        let f = funnel();
        f.validate().unwrap();
        assert_eq!(f.recovered() + f.losses(), f.total);

        let mut broken = funnel();
        broken.below_delta += 1; // double-counted pair
        assert!(broken
            .validate()
            .unwrap_err()
            .contains("exhaustive and exclusive"));

        let mut broken = funnel();
        broken.selection.tie_break = 5;
        assert!(broken.validate().unwrap_err().contains("selection-loss"));

        let mut broken = funnel();
        broken.blocking.firstname_age = 99;
        assert!(broken.validate().unwrap_err().contains("firstname_age"));

        let mut broken = funnel();
        broken.delta_floor = 1.5;
        assert!(broken.validate().unwrap_err().contains("delta_floor"));
    }

    #[test]
    fn section_validates_cross_invariants() {
        let s = section();
        s.validate().unwrap();

        let mut broken = section();
        broken.records.correct = 99;
        assert!(broken.validate().unwrap_err().contains("recovered"));

        let mut broken = section();
        broken.per_iteration[0].recovered = 99;
        assert!(broken.validate().unwrap_err().contains("per-iteration"));

        let mut broken = section();
        broken.bands[0].truth_pairs += 1;
        assert!(broken.validate().unwrap_err().contains("bands cover"));

        let mut broken = section();
        broken.bands.swap(0, 1);
        assert!(broken.validate().unwrap_err().contains("sorted"));
    }

    #[test]
    fn render_shows_funnel_and_strata() {
        let text = section().render();
        assert!(
            text.contains("recall-loss funnel over 10 true pair(s)"),
            "{text}"
        );
        assert!(text.contains("recovered: selection"), "{text}");
        assert!(text.contains("lost: never blocked"), "{text}");
        assert!(text.contains("blocking disagreements"), "{text}");
        assert!(text.contains("selection losses"), "{text}");
        assert!(text.contains("#0 δ=0.70"), "{text}");
        assert!(text.contains("[0.95, 1.00)"), "{text}");
    }

    #[test]
    fn section_round_trips_through_json() {
        let s = section();
        let json = serde_json::to_string(&s).unwrap();
        let back: QualitySection = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
