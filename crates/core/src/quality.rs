//! Ground-truth quality classification: the recall-loss funnel.
//!
//! When a [`obs::Collector`] carries a [`obs::TruthConfig`] (see
//! [`obs::Collector::with_truth`]), [`crate::link_traced`] calls
//! [`finalize_quality`] once the linker returns, off the hot path, and
//! [`classify`] files every true record pair under one [`FunnelStage`]:
//! the last pipeline stage that saw it, or the phase that recovered it.
//!
//! Classification is *oracle replay*: blocking keys, age plausibility
//! and the exact `agg_sim` are recomputed from the records after the run
//! ([`crate::SimFunc::aggregate`] is bit-identical to the batch kernel,
//! so the replayed score equals the hot path's), and the remainder
//! boundary is read off the run's provenance. The only run state it
//! needs beyond the [`LinkageResult`] is the latest selection rejection
//! of each household pair, which the collector keeps from the decision
//! stream. [`explain_miss`] runs the same classifier on one pair.

use crate::blocking::{family_collisions, BlockingStrategy, KeyFields};
use crate::config::LinkageConfig;
use crate::prematch::age_plausible;
use crate::{LinkPhase, LinkageResult};
use census_model::{CensusDataset, RecordId};
use obs::quality::SIM_BAND_BP;
use obs::{
    BlockingMisses, Collector, IterationQuality, QualityCounts, QualitySection, RecallFunnel,
    RejectionReason, SelectionLosses, SimBand, TruthConfig,
};
use std::collections::{BTreeSet, HashMap};

/// A finished run with the two snapshots and the configuration that
/// produced it: everything the classifier reads besides the rejections.
pub(crate) struct QualityInputs<'a> {
    pub old: &'a CensusDataset,
    pub new: &'a CensusDataset,
    pub config: &'a LinkageConfig,
    pub result: &'a LinkageResult,
}

impl QualityInputs<'_> {
    /// The lowest δ the schedule *executed* — early termination can
    /// leave it above the configured floor.
    fn delta_floor(&self) -> f64 {
        let last = self.result.iterations.last();
        last.map_or(self.config.delta_high, |it| it.delta)
    }

    /// Whether a δ step's selection linked either record of the pair: a
    /// record reaches the remainder pass unlinked iff no subgraph link
    /// holds it.
    fn subgraph_holds_either(&self, o: RecordId, n: RecordId) -> bool {
        let records = &self.result.records;
        let held = |pair: Option<(RecordId, RecordId)>| {
            let phase = pair.and_then(|p| self.result.provenance.get(&p));
            matches!(phase, Some(LinkPhase::Subgraph { .. }))
        };
        held(records.get_new(o).map(|m| (o, m))) || held(records.get_old(n).map(|m| (m, n)))
    }
}

/// Build the [`QualitySection`] for a finished run and store it on the
/// collector. A no-op when truth telemetry is off.
pub(crate) fn finalize_quality(inp: &QualityInputs<'_>, obs: &Collector) {
    let Some(section) = obs.truth_audit(|tc, rejected| build_section(inp, tc, rejected)) else {
        return;
    };
    debug_assert_eq!(section.validate(), Ok(()));
    obs.set_quality(section);
}

/// Band index of an `agg_sim` in the fixed `SIM_BAND_BP`-wide grid; the
/// top band is inclusive at 10000 bp.
fn band_index(agg: f64) -> usize {
    let bands = (10_000 / SIM_BAND_BP) as usize;
    ((obs::score_bp(agg) / SIM_BAND_BP) as usize).min(bands - 1)
}

/// The funnel stage of one true record pair: the last pipeline stage
/// that saw it, or the phase that recovered it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FunnelStage {
    /// Linked by the selection of δ step `iteration` (0-based) at `delta`.
    RecoveredSelection {
        /// Index of the δ step in the run's iterations.
        iteration: usize,
        /// δ of that step.
        delta: f64,
    },
    /// Linked by the remainder pass.
    RecoveredRemainder,
    /// An endpoint id does not exist in the loaded datasets.
    MissingEndpoint,
    /// The records never shared a blocking key.
    NotBlocked,
    /// Blocked, but the pre-matching age filter dropped the pair.
    AgeFiltered,
    /// `agg_sim` is below the lowest δ the schedule executed.
    BelowDelta,
    /// Both endpoints reached the remainder pass unlinked, and the pass
    /// dropped the pair.
    LostRemainder,
    /// Lost in selection: the household pair's latest recorded rejection.
    Rejected(RejectionReason),
    /// Lost in selection: no rejection recorded, and an endpoint is
    /// linked elsewhere.
    EndpointClaimed,
    /// Lost in selection: no rejection recorded, both endpoints unlinked.
    NotExtracted,
}

impl FunnelStage {
    /// Whether the run produced the pair.
    #[must_use]
    pub fn is_recovered(self) -> bool {
        matches!(
            self,
            Self::RecoveredSelection { .. } | Self::RecoveredRemainder
        )
    }

    /// The stage as one human-readable line, given the executed δ floor.
    #[must_use]
    pub fn describe(self, delta_floor: f64) -> String {
        use RejectionReason as R;
        let lost = match self {
            Self::RecoveredSelection { iteration, delta } => {
                return format!("recovered by selection (iteration #{iteration}, δ={delta:.2})");
            }
            Self::RecoveredRemainder => return "recovered by the remainder pass".to_owned(),
            Self::BelowDelta => {
                return format!("lost: agg_sim below the executed δ floor {delta_floor:.2}");
            }
            Self::MissingEndpoint => ": an endpoint id is missing from the loaded datasets",
            Self::NotBlocked => ": the records never shared a blocking key",
            Self::AgeFiltered => ": rejected by the pre-matching age filter",
            Self::LostRemainder => ": reached the remainder pass unlinked, but the pass dropped it",
            Self::Rejected(R::LowerGSim) => {
                " in selection: a conflicting candidate had higher g_sim"
            }
            Self::Rejected(R::TieBreak) => " in selection: lost the deterministic tie-break",
            Self::Rejected(R::BelowMinGSim) => {
                " in selection: g_sim fell below the min_g_sim floor"
            }
            Self::Rejected(R::EmptySubgraph) => " in selection: the matched subgraph was empty",
            Self::EndpointClaimed => " in selection: an endpoint was claimed by a competing link",
            Self::NotExtracted => {
                " in selection: the record link was not extracted from its subgroup"
            }
        };
        format!("lost{lost}")
    }
}

/// The oracle-replayed evidence for a true pair whose endpoints both
/// exist.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairEvidence {
    /// Exact `agg_sim` of the two records.
    pub agg_sim: f64,
    /// Whether the pair shared any blocking key.
    pub blocked: bool,
    /// Per-family blocking disagreement `[surname_first, surname_sex,
    /// firstname_age]`.
    pub family_disagreement: [bool; 3],
    /// Household pair of the two records (raw ids).
    pub households: (u64, u64),
}

/// Classify one true record pair of a finished run: its funnel stage,
/// with the replayed evidence when both endpoints exist. `rejected`
/// maps each household pair to its latest selection rejection.
pub(crate) fn classify(
    inp: &QualityInputs<'_>,
    rejected: &HashMap<(u64, u64), RejectionReason>,
    o: RecordId,
    n: RecordId,
) -> (FunnelStage, Option<PairEvidence>) {
    let (Some(or), Some(nr)) = (inp.old.record(o), inp.new.record(n)) else {
        return (FunnelStage::MissingEndpoint, None);
    };
    let year_gap = i64::from(inp.new.year - inp.old.year);
    // a family disagrees when both sides emitted a key for it and the
    // keys differ
    let families = family_collisions(KeyFields::of(or), KeyFields::of(nr), year_gap);
    let blocked = inp.config.blocking == BlockingStrategy::Full || families.contains(&Some(true));
    let evidence = PairEvidence {
        agg_sim: inp.config.sim_func.aggregate(or, nr),
        blocked,
        family_disagreement: families.map(|f| f == Some(false)),
        households: (or.household.raw(), nr.household.raw()),
    };
    let iterations = &inp.result.iterations;
    let age_filtered = inp
        .config
        .prematch_max_age_gap
        .is_some_and(|tol| !age_plausible(or, nr, year_gap, tol));
    let stage = match inp.result.provenance.get(&(o, n)) {
        Some(&LinkPhase::Subgraph { delta, .. }) => FunnelStage::RecoveredSelection {
            // provenance deltas are copies of iteration deltas, so the
            // position is exact; the fallback only guards against float
            // drift and keeps the sums consistent
            iteration: iterations
                .iter()
                .position(|it| (it.delta - delta).abs() < 1e-9)
                .unwrap_or(iterations.len().saturating_sub(1)),
            delta,
        },
        Some(LinkPhase::Remainder) => FunnelStage::RecoveredRemainder,
        None if !blocked => FunnelStage::NotBlocked,
        None if age_filtered => FunnelStage::AgeFiltered,
        None if evidence.agg_sim < inp.delta_floor() => FunnelStage::BelowDelta,
        None if !inp.subgraph_holds_either(o, n) => FunnelStage::LostRemainder,
        None => match rejected.get(&evidence.households) {
            Some(&reason) => FunnelStage::Rejected(reason),
            None if inp.result.records.contains_old(o) || inp.result.records.contains_new(n) => {
                FunnelStage::EndpointClaimed
            }
            None => FunnelStage::NotExtracted,
        },
    };
    (stage, Some(evidence))
}

fn build_section(
    inp: &QualityInputs<'_>,
    tc: &TruthConfig,
    rejected: &HashMap<(u64, u64), RejectionReason>,
) -> QualitySection {
    use RejectionReason as R;
    let (records, groups) = (&inp.result.records, &inp.result.groups);
    // deduplicated, deterministically ordered truth sets — the funnel
    // counts each distinct true pair exactly once
    let truth_records: BTreeSet<(u64, u64)> = tc.record_pairs.iter().copied().collect();
    let truth_groups: BTreeSet<(u64, u64)> = tc.group_pairs.iter().copied().collect();

    let record_correct = records
        .iter()
        .filter(|&(o, n)| truth_records.contains(&(o.raw(), n.raw())))
        .count() as u64;
    let group_correct = groups
        .iter()
        .filter(|&(o, n)| truth_groups.contains(&(o.raw(), n.raw())))
        .count() as u64;

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
        delta_floor: inp.delta_floor(),
        blocking: BlockingMisses::default(),
        selection: SelectionLosses::default(),
    };
    let mut per_iteration: Vec<IterationQuality> = inp
        .result
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

    for &(o, n) in &truth_records {
        let (stage, evidence) = classify(inp, rejected, RecordId(o), RecordId(n));
        if let Some(ev) = evidence {
            let band = &mut bands[band_index(ev.agg_sim)];
            band.0 += 1;
            band.1 += u64::from(stage.is_recovered());
        }
        let bucket = match stage {
            FunnelStage::RecoveredSelection { iteration, .. } => {
                if let Some(row) = per_iteration.get_mut(iteration) {
                    row.recovered += 1;
                }
                &mut funnel.recovered_selection
            }
            FunnelStage::RecoveredRemainder => &mut funnel.recovered_remainder,
            FunnelStage::MissingEndpoint => &mut funnel.missing_endpoint,
            FunnelStage::NotBlocked => {
                let [sf, ss, fa] = evidence.map_or([false; 3], |ev| ev.family_disagreement);
                funnel.blocking.surname_first += u64::from(sf);
                funnel.blocking.surname_sex += u64::from(ss);
                funnel.blocking.firstname_age += u64::from(fa);
                &mut funnel.not_blocked
            }
            FunnelStage::AgeFiltered => &mut funnel.age_filtered,
            FunnelStage::BelowDelta => &mut funnel.below_delta,
            FunnelStage::LostRemainder => &mut funnel.lost_remainder,
            FunnelStage::Rejected(R::LowerGSim) => &mut funnel.selection.lower_g_sim,
            FunnelStage::Rejected(R::TieBreak) => &mut funnel.selection.tie_break,
            FunnelStage::Rejected(R::BelowMinGSim) => &mut funnel.selection.below_min_g_sim,
            FunnelStage::Rejected(R::EmptySubgraph) => &mut funnel.selection.empty_subgraph,
            FunnelStage::EndpointClaimed => &mut funnel.selection.endpoint_claimed,
            FunnelStage::NotExtracted => &mut funnel.selection.not_extracted,
        };
        *bucket += 1;
    }
    let s = &funnel.selection;
    funnel.lost_selection = s.lower_g_sim
        + s.tie_break
        + s.below_min_g_sim
        + s.empty_subgraph
        + s.endpoint_claimed
        + s.not_extracted;

    QualitySection {
        records: QualityCounts::from_counts(
            records.len() as u64,
            truth_records.len() as u64,
            record_correct,
        ),
        groups: QualityCounts::from_counts(
            groups.len() as u64,
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
    /// The funnel stage that last saw the pair.
    pub stage: FunnelStage,
    /// The replayed evidence, when both endpoints exist.
    pub evidence: Option<PairEvidence>,
    /// Lowest δ the schedule executed.
    pub delta_floor: f64,
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
            self.old_record,
            self.new_record,
            self.stage.describe(self.delta_floor)
        );
        if let Some(ev) = &self.evidence {
            let _ = writeln!(
                out,
                "  agg_sim {:.4} (executed δ floor {:.2})",
                ev.agg_sim, self.delta_floor
            );
            if ev.blocked {
                let _ = writeln!(out, "  blocking: pair shares a blocking key");
            } else {
                let [sf, ss, fa] = ev.family_disagreement;
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
            let (ho, hn) = ev.households;
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
/// full pipeline with truth telemetry on, so the run's rejections reach
/// the collector, and classifies the pair with the funnel's classifier.
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
    let result = crate::Linker::new_traced(old, new, config.threads, &obs).run_traced(config, &obs);
    let inp = QualityInputs {
        old,
        new,
        config,
        result: &result,
    };
    let (o, n) = (RecordId(old_record), RecordId(new_record));
    let (stage, evidence) = obs
        .truth_audit(|_, rejected| classify(&inp, rejected, o, n))
        .expect("truth telemetry was enabled");
    MissReport {
        old_record,
        new_record,
        stage,
        evidence,
        delta_floor: inp.delta_floor(),
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
        assert!(report.stage.is_recovered(), "{:?}", report.stage);
        assert_eq!(report.old_linked_to, Some(n.raw()));
        assert_eq!(report.new_linked_from, Some(o.raw()));
        assert!(report.evidence.is_some());
        let text = report.render();
        assert!(text.contains("agg_sim"), "{text}");

        // a fabricated pair with a nonexistent endpoint is a missing-id loss
        let report = explain_miss(old, new, &config, u64::MAX, n.raw());
        assert_eq!(report.stage, FunnelStage::MissingEndpoint);
        assert_eq!(report.evidence, None);
        assert!(report.render().contains("missing"));
    }
}
