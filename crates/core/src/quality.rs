//! Ground-truth quality classification: the recall-loss funnel.
//!
//! When a [`obs::Collector`] carries a [`obs::TruthConfig`]
//! (see [`obs::Collector::with_truth`]), the linkage driver calls
//! [`finalize_quality`] once per run, off the hot path, to classify
//! every true record pair by the last pipeline stage that saw it:
//!
//! 1. `missing_endpoint` — an id does not exist in the loaded datasets;
//! 2. `recovered` — the pair is in the produced mapping (split by the
//!    phase that found it: a δ iteration's selection, or the remainder);
//! 3. `not_blocked` — the records never shared a blocking key, with
//!    per-key-family disagreement detail;
//! 4. `age_filtered` — blocked, but the pre-matching age filter dropped
//!    the pair;
//! 5. `below_delta` — the oracle-replayed `agg_sim` is below the lowest
//!    δ the schedule executed, so pre-matching never produced the pair;
//! 6. `lost_remainder` — both endpoints reached the remainder pass
//!    unlinked and the pass still dropped the pair;
//! 7. `lost_selection` — the pair matched at some δ but greedy selection
//!    lost it, with the recorded rejection reason when the household
//!    pair was explicitly rejected.
//!
//! Classification is *oracle replay*: blocking keys, age plausibility
//! and the exact `agg_sim` are recomputed from the records at finish
//! time ([`crate::SimFunc::aggregate`] is bit-identical to the batch
//! kernel, so the replayed score equals the hot path's). The only live
//! tap the run needs is the selection rejections, recorded on the
//! collector.

use crate::blocking::{family_collisions, BlockingStrategy, KeyFields};
use crate::config::LinkageConfig;
use crate::prematch::age_plausible;
use crate::{IterationStats, LinkPhase};
use census_model::{CensusDataset, GroupMapping, PersonRecord, RecordId, RecordMapping};
use obs::quality::SIM_BAND_BP;
use obs::{
    BlockingMisses, Collector, IterationQuality, QualityCounts, QualitySection, RecallFunnel,
    RejectionReason, SelectionLosses, SimBand, TruthConfig,
};
use std::collections::{BTreeSet, HashMap, HashSet};

/// Everything the classifier needs from a finished run, borrowed from
/// the driver just before it assembles the [`crate::LinkageResult`].
pub(crate) struct QualityInputs<'a> {
    pub old: &'a CensusDataset,
    pub new: &'a CensusDataset,
    pub config: &'a LinkageConfig,
    pub records: &'a RecordMapping,
    pub groups: &'a GroupMapping,
    pub iterations: &'a [IterationStats],
    pub provenance: &'a HashMap<(RecordId, RecordId), LinkPhase>,
    /// Old-side records still unlinked when the remainder pass started.
    pub remainder_old: &'a HashSet<RecordId>,
    /// New-side records still unlinked when the remainder pass started.
    pub remainder_new: &'a HashSet<RecordId>,
}

/// Build the [`QualitySection`] for a finished run and store it on the
/// collector. A no-op when truth telemetry is off.
pub(crate) fn finalize_quality(inp: &QualityInputs<'_>, obs: &Collector) {
    let Some(tc) = obs.truth_config() else {
        return;
    };
    let section = build_section(inp, &tc, &obs.truth_rejections());
    debug_assert_eq!(section.validate(), Ok(()));
    obs.set_quality(section);
}

/// Band index of an `agg_sim` in the fixed `SIM_BAND_BP`-wide grid; the
/// top band is inclusive at 10000 bp.
fn band_index(agg: f64) -> usize {
    let bands = (10_000 / SIM_BAND_BP) as usize;
    ((obs::score_bp(agg) / SIM_BAND_BP) as usize).min(bands - 1)
}

/// Oracle replay of blocking for one record pair: whether it shares a
/// blocking key under `strategy`, and the per-family disagreement
/// `[surname_first, surname_sex, firstname_age]` (a family disagrees
/// when both sides emitted a key for it and the keys differ).
fn replay_blocking(
    old: &PersonRecord,
    new: &PersonRecord,
    year_gap: i64,
    strategy: BlockingStrategy,
) -> (bool, [bool; 3]) {
    let families = family_collisions(KeyFields::of(old), KeyFields::of(new), year_gap);
    let blocked = strategy == BlockingStrategy::Full || families.contains(&Some(true));
    (blocked, families.map(|f| f == Some(false)))
}

fn build_section(
    inp: &QualityInputs<'_>,
    tc: &TruthConfig,
    rejections: &[(u64, u64, RejectionReason)],
) -> QualitySection {
    let year_gap = i64::from(inp.new.year - inp.old.year);
    // deduplicated, deterministically ordered truth sets — the funnel
    // counts each distinct true pair exactly once
    let truth_records: BTreeSet<(u64, u64)> = tc.record_pairs.iter().copied().collect();
    let truth_groups: BTreeSet<(u64, u64)> = tc.group_pairs.iter().copied().collect();

    let record_correct = inp
        .records
        .iter()
        .filter(|&(o, n)| truth_records.contains(&(o.raw(), n.raw())))
        .count() as u64;
    let group_correct = inp
        .groups
        .iter()
        .filter(|&(o, n)| truth_groups.contains(&(o.raw(), n.raw())))
        .count() as u64;

    // household-pair → last recorded rejection: later iterations are the
    // pair's last chance, so the latest rejection wins the join
    let mut rejected_as: HashMap<(u64, u64), RejectionReason> = HashMap::new();
    for &(og, ng, reason) in rejections {
        rejected_as.insert((og, ng), reason);
    }

    // the below-δ boundary is the lowest δ the schedule *executed* —
    // early termination can leave it above the configured floor
    let delta_floor = inp
        .iterations
        .last()
        .map_or(inp.config.delta_high, |it| it.delta);

    let mut funnel = RecallFunnel {
        total: truth_records.len() as u64,
        recovered_selection: 0,
        recovered_remainder: 0,
        missing_endpoint: 0,
        not_blocked: 0,
        age_filtered: 0,
        below_delta: 0,
        lost_selection: 0,
        lost_remainder: 0,
        delta_floor,
        blocking: BlockingMisses::default(),
        selection: SelectionLosses::default(),
    };
    let mut per_iteration: Vec<IterationQuality> = inp
        .iterations
        .iter()
        .enumerate()
        .map(|(i, it)| IterationQuality {
            iteration: i,
            delta: it.delta,
            recovered: 0,
        })
        .collect();
    let n_bands = (10_000 / SIM_BAND_BP) as usize;
    let mut bands = vec![(0u64, 0u64); n_bands];

    for &(o_raw, n_raw) in &truth_records {
        let (o, n) = (RecordId(o_raw), RecordId(n_raw));
        let (Some(or), Some(nr)) = (inp.old.record(o), inp.new.record(n)) else {
            funnel.missing_endpoint += 1;
            continue;
        };
        // oracle replay: exact agg_sim, blocking keys and age filter
        let agg = inp.config.sim_func.aggregate(or, nr);
        let band = band_index(agg);
        bands[band].0 += 1;
        let (blocked, [sf, ss, fa]) = replay_blocking(or, nr, year_gap, inp.config.blocking);

        if let Some(phase) = inp.provenance.get(&(o, n)) {
            bands[band].1 += 1;
            match phase {
                LinkPhase::Subgraph { delta, .. } => {
                    funnel.recovered_selection += 1;
                    // provenance deltas are copies of iteration deltas,
                    // so the position is exact; the fallback only guards
                    // against float drift and keeps the sums consistent
                    let idx = inp
                        .iterations
                        .iter()
                        .position(|it| (it.delta - delta).abs() < 1e-9)
                        .unwrap_or(inp.iterations.len().saturating_sub(1));
                    if let Some(row) = per_iteration.get_mut(idx) {
                        row.recovered += 1;
                    }
                }
                LinkPhase::Remainder => funnel.recovered_remainder += 1,
            }
            continue;
        }

        if !blocked {
            funnel.not_blocked += 1;
            funnel.blocking.surname_first += u64::from(sf);
            funnel.blocking.surname_sex += u64::from(ss);
            funnel.blocking.firstname_age += u64::from(fa);
            continue;
        }
        if let Some(tol) = inp.config.prematch_max_age_gap {
            if !age_plausible(or, nr, year_gap, tol) {
                funnel.age_filtered += 1;
                continue;
            }
        }
        if agg < delta_floor {
            funnel.below_delta += 1;
            continue;
        }
        if inp.remainder_old.contains(&o) && inp.remainder_new.contains(&n) {
            funnel.lost_remainder += 1;
            continue;
        }
        funnel.lost_selection += 1;
        match rejected_as.get(&(or.household.raw(), nr.household.raw())) {
            Some(RejectionReason::LowerGSim) => funnel.selection.lower_g_sim += 1,
            Some(RejectionReason::TieBreak) => funnel.selection.tie_break += 1,
            Some(RejectionReason::BelowMinGSim) => funnel.selection.below_min_g_sim += 1,
            Some(RejectionReason::EmptySubgraph) => funnel.selection.empty_subgraph += 1,
            None => {
                if inp.records.contains_old(o) || inp.records.contains_new(n) {
                    funnel.selection.endpoint_claimed += 1;
                } else {
                    funnel.selection.not_extracted += 1;
                }
            }
        }
    }

    QualitySection {
        records: QualityCounts::from_counts(
            inp.records.len() as u64,
            truth_records.len() as u64,
            record_correct,
        ),
        groups: QualityCounts::from_counts(
            inp.groups.len() as u64,
            truth_groups.len() as u64,
            group_correct,
        ),
        funnel,
        per_iteration,
        bands: bands
            .into_iter()
            .enumerate()
            .filter(|&(_, (t, _))| t > 0)
            .map(|(i, (truth_pairs, recovered))| SimBand {
                lo_bp: i as u64 * SIM_BAND_BP,
                hi_bp: (i as u64 + 1) * SIM_BAND_BP,
                truth_pairs,
                recovered,
            })
            .collect(),
    }
}

/// Forensics for one true record pair: which funnel stage it landed in,
/// with the replayed evidence a reviewer needs to see why.
#[derive(Debug, Clone)]
pub struct MissReport {
    /// Raw old-record id.
    pub old_record: u64,
    /// Raw new-record id.
    pub new_record: u64,
    /// The funnel stage that last saw the pair (human-readable).
    pub stage: String,
    /// Oracle-replayed `agg_sim`, when both endpoints exist.
    pub agg_sim: Option<f64>,
    /// Lowest δ the schedule executed.
    pub delta_floor: f64,
    /// Whether the pair shared any blocking key (`None` when an endpoint
    /// is missing).
    pub blocked: Option<bool>,
    /// Per-family blocking disagreement `[surname_first, surname_sex,
    /// firstname_age]`, when both endpoints exist.
    pub family_disagreement: Option<[bool; 3]>,
    /// Household pair of the two records, when both endpoints exist.
    pub households: Option<(u64, u64)>,
    /// Where the old record was actually linked, if anywhere.
    pub old_linked_to: Option<u64>,
    /// Where the new record was actually linked from, if anywhere.
    pub new_linked_from: Option<u64>,
}

impl MissReport {
    /// Render the report as the multi-line text behind `explain miss`.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "true pair {} -> {}: {}",
            self.old_record, self.new_record, self.stage
        );
        if let Some(agg) = self.agg_sim {
            let _ = writeln!(
                out,
                "  agg_sim {agg:.4} (executed δ floor {:.2})",
                self.delta_floor
            );
        }
        if let Some(blocked) = self.blocked {
            if blocked {
                let _ = writeln!(out, "  blocking: pair shares a blocking key");
            } else if let Some([sf, ss, fa]) = self.family_disagreement {
                let tag = |b: bool| if b { "disagreed" } else { "unavailable" };
                let _ = writeln!(
                    out,
                    "  blocking: no shared key — surname_first {}, surname_sex {}, \
                     firstname_age {}",
                    tag(sf),
                    tag(ss),
                    tag(fa)
                );
            }
        }
        if let Some((ho, hn)) = self.households {
            let _ = writeln!(out, "  households: {ho} -> {hn}");
        }
        match (self.old_linked_to, self.new_linked_from) {
            (None, None) => {}
            (o, n) => {
                let fmt =
                    |v: Option<u64>| v.map_or_else(|| "unlinked".to_owned(), |x| x.to_string());
                let _ = writeln!(
                    out,
                    "  endpoints: old linked to {}, new linked from {}",
                    fmt(o),
                    fmt(n)
                );
            }
        }
        out
    }
}

/// Explain why one true record pair was (or wasn't) recovered: runs the
/// full pipeline with truth telemetry restricted to the single pair and
/// reads its funnel classification back, then re-derives the replayed
/// evidence for the report.
///
/// # Panics
///
/// Panics if `config` is invalid (see [`LinkageConfig::validate`]).
#[must_use]
pub fn explain_miss(
    old: &CensusDataset,
    new: &CensusDataset,
    config: &LinkageConfig,
    old_record: u64,
    new_record: u64,
) -> MissReport {
    let obs = Collector::enabled().with_truth(TruthConfig {
        record_pairs: vec![(old_record, new_record)],
        group_pairs: Vec::new(),
    });
    let result = crate::link_traced(old, new, config, &obs);
    let trace = obs.finish();
    let q = trace.quality.expect("truth telemetry was enabled");
    let fu = &q.funnel;

    let stage = if fu.recovered_selection > 0 {
        let iter = q
            .per_iteration
            .iter()
            .find(|i| i.recovered > 0)
            .map_or_else(String::new, |i| {
                format!(" (iteration #{}, δ={:.2})", i.iteration, i.delta)
            });
        format!("recovered by selection{iter}")
    } else if fu.recovered_remainder > 0 {
        "recovered by the remainder pass".to_owned()
    } else if fu.missing_endpoint > 0 {
        "lost: an endpoint id is missing from the loaded datasets".to_owned()
    } else if fu.not_blocked > 0 {
        "lost: the records never shared a blocking key".to_owned()
    } else if fu.age_filtered > 0 {
        "lost: rejected by the pre-matching age filter".to_owned()
    } else if fu.below_delta > 0 {
        format!(
            "lost: agg_sim below the executed δ floor {:.2}",
            fu.delta_floor
        )
    } else if fu.lost_remainder > 0 {
        "lost: reached the remainder pass unlinked, but the pass dropped it".to_owned()
    } else {
        let s = &fu.selection;
        let why = if s.lower_g_sim > 0 {
            "a conflicting candidate had higher g_sim"
        } else if s.tie_break > 0 {
            "lost the deterministic tie-break"
        } else if s.below_min_g_sim > 0 {
            "g_sim fell below the min_g_sim floor"
        } else if s.empty_subgraph > 0 {
            "the matched subgraph was empty"
        } else if s.endpoint_claimed > 0 {
            "an endpoint was claimed by a competing link"
        } else {
            "the record link was not extracted from its subgroup"
        };
        format!("lost in selection: {why}")
    };

    let (o, n) = (RecordId(old_record), RecordId(new_record));
    let (or, nr) = (old.record(o), new.record(n));
    let year_gap = i64::from(new.year - old.year);
    let replay = or.zip(nr).map(|(or, nr)| {
        let (blocked, disagreement) = replay_blocking(or, nr, year_gap, config.blocking);
        (
            config.sim_func.aggregate(or, nr),
            blocked,
            disagreement,
            (or.household.raw(), nr.household.raw()),
        )
    });
    MissReport {
        old_record,
        new_record,
        stage,
        agg_sim: replay.map(|r| r.0),
        delta_floor: fu.delta_floor,
        blocked: replay.map(|r| r.1),
        family_disagreement: replay.map(|r| r.2),
        households: replay.map(|r| r.3),
        old_linked_to: result.records.get_new(o).map(|r| r.raw()),
        new_linked_from: result.records.get_old(n).map(|r| r.raw()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use census_synth::{generate_series, SimConfig};

    #[test]
    fn band_index_covers_the_unit_interval() {
        assert_eq!(band_index(0.0), 0);
        assert_eq!(band_index(0.049), 0);
        assert_eq!(band_index(0.05), 1);
        assert_eq!(band_index(0.999), 19);
        assert_eq!(band_index(1.0), 19); // top band inclusive
        assert_eq!(band_index(7.5), 19); // clamped
    }

    #[test]
    fn explain_miss_identifies_a_recovered_pair_and_a_fabricated_miss() {
        let series = generate_series(&SimConfig::small());
        let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
        let truth = series.truth_between(0, 1).unwrap();
        let config = LinkageConfig::default();
        let result = crate::link(old, new, &config);

        // a true pair the run actually recovered reports the phase
        let (o, n) = result
            .records
            .iter()
            .find(|&(o, n)| truth.records.contains(o, n))
            .expect("the run recovers at least one true pair");
        let report = explain_miss(old, new, &config, o.raw(), n.raw());
        assert!(report.stage.starts_with("recovered"), "{}", report.stage);
        assert_eq!(report.old_linked_to, Some(n.raw()));
        assert_eq!(report.new_linked_from, Some(o.raw()));
        assert!(report.agg_sim.is_some());
        let text = report.render();
        assert!(text.contains("agg_sim"), "{text}");

        // a fabricated pair with a nonexistent endpoint is a missing-id loss
        let report = explain_miss(old, new, &config, u64::MAX, n.raw());
        assert!(report.stage.contains("missing"), "{}", report.stage);
        assert_eq!(report.agg_sim, None);
        assert!(report.render().contains("missing"));
    }
}
