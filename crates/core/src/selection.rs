//! Greedy selection of group links (Algorithm 2) and record-link
//! extraction from the accepted subgraphs.

use crate::group_sim::GroupScore;
use crate::idhash::IdMap;
use census_model::{GroupMapping, HouseholdId, RecordId, RecordMapping};
use hhgraph::MatchedSubgraph;
use std::cmp::Ordering;
use std::ops::Range;

/// One candidate group pair with its matched subgraph and scores — the
/// quadruple `⟨g_i, g_{i+1}, g_sub, g_sim⟩` of Algorithm 2.
#[derive(Debug, Clone)]
pub struct ScoredSubgroup {
    /// Old-census household.
    pub old: HouseholdId,
    /// New-census household.
    pub new: HouseholdId,
    /// The matched common subgraph.
    pub sub: MatchedSubgraph,
    /// Component scores (Eq. 5–7).
    pub score: GroupScore,
    /// Aggregated similarity (Eq. 4).
    pub g_sim: f64,
    /// Where the candidate's direct match pairs sit in the pair list it
    /// was scored from (the δ step's `PreMatch::pairs`).
    pub(crate) run: Range<usize>,
}

/// Why Algorithm 2 skipped a candidate group pair, for decision
/// provenance. Conflict variants carry the index (into the candidate
/// slice) of the already-accepted winner whose claimed records blocked
/// this candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The matched subgraph had no vertices.
    EmptySubgraph,
    /// `g_sim` fell below the `min_g_sim` acceptance floor.
    BelowMinGSim,
    /// A record-disjointness conflict with a winner of strictly higher
    /// `g_sim`.
    LowerGSim {
        /// Candidate index of the blocking winner.
        winner: usize,
    },
    /// A record-disjointness conflict with a winner of equal `g_sim`
    /// that sorted earlier under the `(old, new)` ascending tie-break.
    TieBreak {
        /// Candidate index of the blocking winner.
        winner: usize,
    },
}

/// The outcome of one selection round: the winners, the record links
/// they produced, and (when auditing) the losers with reasons.
#[derive(Debug, Clone, Default)]
pub struct SelectionOutcome {
    /// Indices into the candidate slice of the accepted group pairs, in
    /// acceptance order.
    pub accepted: Vec<usize>,
    /// Every record link added, with the candidate index of the
    /// subgroup it was extracted from (for provenance).
    pub added: Vec<(RecordId, RecordId, usize)>,
    /// When auditing: every skipped candidate with its reason, in
    /// consideration order. Empty otherwise.
    pub rejections: Vec<(usize, RejectReason)>,
}

/// Whether Algorithm 2 skips a candidate of this `g_sim` outright for
/// falling below the `min_g_sim` acceptance floor. Such a candidate
/// claims no record, so dropping it before selection changes neither
/// the acceptances nor the order among the remaining candidates.
#[inline]
#[must_use]
pub(crate) fn below_floor(g_sim: f64, min_g_sim: f64) -> bool {
    g_sim < min_g_sim
}

/// The order in which Algorithm 2 considers candidates: descending
/// `g_sim`, ties broken by `(old, new)` ascending.
pub(crate) fn consideration_order(
    a: (f64, HouseholdId, HouseholdId),
    b: (f64, HouseholdId, HouseholdId),
) -> Ordering {
    b.0.partial_cmp(&a.0)
        .unwrap_or(Ordering::Equal)
        .then_with(|| (a.1, a.2).cmp(&(b.1, b.2)))
}

/// Core of Algorithm 2: greedy acceptance in descending `g_sim` order
/// under record-disjointness. Claimed records map to the index of the
/// winner that claimed them so conflicts can be attributed; rejection
/// records are only pushed when `audit` is set.
fn run_selection(
    candidates: &[ScoredSubgroup],
    min_g_sim: f64,
    audit: bool,
) -> (Vec<usize>, Vec<(usize, RejectReason)>) {
    // sort extracted keys instead of indices so comparisons stay in cache
    let mut order: Vec<(f64, HouseholdId, HouseholdId, usize)> = candidates
        .iter()
        .enumerate()
        .map(|(i, c)| (c.g_sim, c.old, c.new, i))
        .collect();
    order.sort_by(|a, b| consideration_order((a.0, a.1, a.2), (b.0, b.1, b.2)));

    // records of each household already claimed by accepted links,
    // mapped to the claiming candidate's index
    let mut linked_old: IdMap<HouseholdId, IdMap<RecordId, usize>> = IdMap::default();
    let mut linked_new: IdMap<HouseholdId, IdMap<RecordId, usize>> = IdMap::default();
    let mut accepted = Vec::new();
    let mut rejections = Vec::new();

    for (_, _, _, idx) in order {
        let cand = &candidates[idx];
        if cand.sub.vertices.is_empty() {
            if audit {
                rejections.push((idx, RejectReason::EmptySubgraph));
            }
            continue;
        }
        if below_floor(cand.g_sim, min_g_sim) {
            if audit {
                rejections.push((idx, RejectReason::BelowMinGSim));
            }
            continue;
        }
        let old_blocker = linked_old.get(&cand.old).and_then(|m| {
            cand.sub
                .vertices
                .iter()
                .find_map(|&(o, _)| m.get(&o).copied())
        });
        let new_blocker = linked_new.get(&cand.new).and_then(|m| {
            cand.sub
                .vertices
                .iter()
                .find_map(|&(_, n)| m.get(&n).copied())
        });
        if let Some(winner) = old_blocker.or(new_blocker) {
            if audit {
                let tie = (candidates[winner].g_sim - cand.g_sim).abs() <= f64::EPSILON;
                let reason = if tie {
                    RejectReason::TieBreak { winner }
                } else {
                    RejectReason::LowerGSim { winner }
                };
                rejections.push((idx, reason));
            }
            continue;
        }
        let old_claims = linked_old.entry(cand.old).or_default();
        for &(o, _) in &cand.sub.vertices {
            old_claims.insert(o, idx);
        }
        let new_claims = linked_new.entry(cand.new).or_default();
        for &(_, n) in &cand.sub.vertices {
            new_claims.insert(n, idx);
        }
        accepted.push(idx);
    }
    (accepted, rejections)
}

/// Algorithm 2: greedily accept candidate group pairs in descending
/// `g_sim` order, subject to record-disjointness per household —
/// a household may link to several counterparts (N:M), but only through
/// disjoint member subsets.
///
/// `min_g_sim` extends the paper's algorithm with a minimum acceptance
/// score: single-vertex, zero-edge subgraphs between unrelated households
/// otherwise sail through unopposed (the paper's hand-curated reference
/// set of large households hides this case). Pass `0.0` for the strict
/// paper behaviour.
///
/// Returns, for each accepted group pair in acceptance order, the index
/// into `candidates` it came from.
#[must_use]
pub fn select_group_links(candidates: &[ScoredSubgroup], min_g_sim: f64) -> Vec<usize> {
    run_selection(candidates, min_g_sim, false).0
}

/// Extract record links from an accepted subgraph into the global record
/// mapping (paper line 11, `extractRecordMapping`).
///
/// Vertices may share records when a household contains several
/// equal-label members; links are taken greedily in descending
/// (edge-degree, pair-similarity) order so the structurally
/// best-supported pair wins, and the 1:1 constraint of
/// [`RecordMapping::insert`] rejects the rest. `pair_sim` gives a
/// vertex's direct record similarity, `fallback_sim` stands in where it
/// has none. Returns the links added, in acceptance order.
pub fn extract_record_links(
    sub: &MatchedSubgraph,
    pair_sim: impl Fn(RecordId, RecordId) -> Option<f64>,
    fallback_sim: f64,
    mapping: &mut RecordMapping,
) -> Vec<(RecordId, RecordId)> {
    let mut order: Vec<usize> = (0..sub.vertices.len()).collect();
    // one vertex has no order to decide, and most subgraphs have one
    if order.len() > 1 {
        let sims: Vec<f64> = sub
            .vertices
            .iter()
            .map(|&(o, n)| pair_sim(o, n).unwrap_or(fallback_sim))
            .collect();
        order.sort_by(|&a, &b| {
            sub.degrees[b]
                .cmp(&sub.degrees[a])
                .then(sims[b].partial_cmp(&sims[a]).unwrap_or(Ordering::Equal))
                .then_with(|| sub.vertices[a].cmp(&sub.vertices[b]))
        });
    }
    let mut added = Vec::new();
    for idx in order {
        let (o, n) = sub.vertices[idx];
        if !mapping.contains_old(o) && !mapping.contains_new(n) && mapping.insert(o, n) {
            added.push((o, n));
        }
    }
    added
}

/// Convenience: run selection and extraction, extending `groups` and
/// `records`. `pair_sim` gives the direct similarity of a vertex of a
/// candidate, `fallback_sim` stands in where it has none (see
/// [`extract_record_links`]). Returns the full [`SelectionOutcome`];
/// `audit` additionally collects every skipped candidate with its
/// [`RejectReason`] (the accept/reject decisions themselves are
/// identical either way).
pub fn select_and_extract(
    candidates: &[ScoredSubgroup],
    pair_sim: impl Fn(&ScoredSubgroup, RecordId, RecordId) -> Option<f64>,
    fallback_sim: f64,
    min_g_sim: f64,
    audit: bool,
    groups: &mut GroupMapping,
    records: &mut RecordMapping,
) -> SelectionOutcome {
    let (accepted, rejections) = run_selection(candidates, min_g_sim, audit);
    let mut added = Vec::new();
    for &idx in &accepted {
        let cand = &candidates[idx];
        groups.insert(cand.old, cand.new);
        let sim = |o, n| pair_sim(cand, o, n);
        for (o, n) in extract_record_links(&cand.sub, sim, fallback_sim, records) {
            added.push((o, n, idx));
        }
    }
    SelectionOutcome {
        accepted,
        added,
        rejections,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// A subgraph whose matched edges form a path of `edges` perfect
    /// edges, vertex `i` to vertex `i + 1`.
    fn sub(vertices: Vec<(u64, u64)>, edges: usize) -> MatchedSubgraph {
        let n = vertices.len();
        let edges = edges.min(n.saturating_sub(1));
        MatchedSubgraph {
            vertices: vertices
                .into_iter()
                .map(|(o, n)| (RecordId(o), RecordId(n)))
                .collect(),
            degrees: (0..n)
                .map(|i| usize::from(i < edges) + usize::from(i >= 1 && i <= edges))
                .collect(),
            edge_sim_sum: edges as f64,
            old_edge_count: 10,
            new_edge_count: 3,
        }
    }

    fn scored(old: u64, new: u64, vertices: Vec<(u64, u64)>, g_sim: f64) -> ScoredSubgroup {
        let edges = vertices.len().saturating_sub(1);
        ScoredSubgroup {
            old: HouseholdId(old),
            new: HouseholdId(new),
            sub: sub(vertices, edges),
            score: GroupScore {
                avg_sim: 1.0,
                e_sim: 0.5,
                unique: 0.5,
            },
            g_sim,
            run: 0..0,
        }
    }

    #[test]
    fn highest_g_sim_wins_conflicts() {
        // the paper's Fig. 4: household 0 links either new 0 (g_sim high)
        // or new 1 (low); shared old records force a choice
        let cands = vec![
            scored(0, 0, vec![(0, 10), (1, 11), (3, 12)], 0.9),
            scored(0, 1, vec![(0, 13), (1, 14), (3, 15)], 0.4),
        ];
        let accepted = select_group_links(&cands, 0.0);
        assert_eq!(accepted, vec![0]);
    }

    #[test]
    fn disjoint_subgroups_allow_n_to_m() {
        // household 0 splits into new 0 and new 1 with disjoint members
        let cands = vec![
            scored(0, 0, vec![(0, 10), (1, 11)], 0.9),
            scored(0, 1, vec![(2, 20), (3, 21)], 0.8),
        ];
        let accepted = select_group_links(&cands, 0.0);
        assert_eq!(accepted.len(), 2);
    }

    #[test]
    fn new_side_conflicts_also_block() {
        // two old households claim the same new records
        let cands = vec![
            scored(0, 5, vec![(0, 10), (1, 11)], 0.9),
            scored(1, 5, vec![(2, 10), (3, 11)], 0.8),
        ];
        let accepted = select_group_links(&cands, 0.0);
        assert_eq!(accepted, vec![0]);
    }

    #[test]
    fn empty_subgraphs_are_skipped() {
        let cands = vec![scored(0, 0, vec![], 0.9)];
        assert!(select_group_links(&cands, 0.0).is_empty());
    }

    #[test]
    fn deterministic_tie_break() {
        let cands = vec![
            scored(1, 1, vec![(5, 15)], 0.5),
            scored(0, 0, vec![(4, 14)], 0.5),
        ];
        let accepted = select_group_links(&cands, 0.0);
        // same score: (old, new) ascending decides; both disjoint → both in
        assert_eq!(accepted, vec![1, 0]);
    }

    #[test]
    fn min_g_sim_filters_weak_candidates() {
        let cands = vec![
            scored(0, 0, vec![(0, 10)], 0.15),
            scored(1, 1, vec![(1, 11)], 0.35),
        ];
        let accepted = select_group_links(&cands, 0.2);
        assert_eq!(accepted, vec![1]);
        // strict paper behaviour keeps both
        assert_eq!(select_group_links(&cands, 0.0).len(), 2);
    }

    #[test]
    fn extraction_respects_one_to_one() {
        // two vertices sharing the same new record: only one survives
        let s = MatchedSubgraph {
            vertices: vec![
                (RecordId(0), RecordId(10)),
                (RecordId(1), RecordId(10)),
                (RecordId(2), RecordId(12)),
            ],
            // one edge, between vertices 0 and 2
            degrees: vec![1, 0, 1],
            edge_sim_sum: 1.0,
            old_edge_count: 3,
            new_edge_count: 3,
        };
        let mut m = RecordMapping::new();
        let added = extract_record_links(&s, |_, _| None, 0.5, &mut m);
        assert_eq!(added.len(), 2);
        // the degree-1 vertex (0,10) wins over the degree-0 (1,10)
        assert!(m.contains(RecordId(0), RecordId(10)));
        assert!(m.contains(RecordId(2), RecordId(12)));
        assert!(!m.contains_old(RecordId(1)));
    }

    #[test]
    fn extraction_prefers_higher_similarity_on_equal_degree() {
        let s = MatchedSubgraph {
            vertices: vec![(RecordId(0), RecordId(10)), (RecordId(1), RecordId(10))],
            degrees: vec![0, 0],
            edge_sim_sum: 0.0,
            old_edge_count: 1,
            new_edge_count: 1,
        };
        let sims = HashMap::from([
            ((RecordId(0), RecordId(10)), 0.6),
            ((RecordId(1), RecordId(10)), 0.9),
        ]);
        let mut m = RecordMapping::new();
        extract_record_links(&s, |o, n| sims.get(&(o, n)).copied(), 0.5, &mut m);
        assert!(m.contains(RecordId(1), RecordId(10)));
    }

    #[test]
    fn select_and_extract_populates_both_mappings() {
        let cands = vec![scored(0, 0, vec![(0, 10), (1, 11)], 0.9)];
        let mut groups = GroupMapping::new();
        let mut records = RecordMapping::new();
        let out = select_and_extract(
            &cands,
            |_, _, _| None,
            0.5,
            0.0,
            false,
            &mut groups,
            &mut records,
        );
        assert_eq!(out.accepted, vec![0]);
        assert_eq!(out.added.len(), 2);
        assert!(out.added.iter().all(|&(_, _, idx)| idx == 0));
        assert!(out.rejections.is_empty());
        assert!(groups.contains(HouseholdId(0), HouseholdId(0)));
        assert_eq!(records.len(), 2);
    }

    #[test]
    fn audit_attributes_rejections_without_changing_decisions() {
        let cands = vec![
            scored(0, 0, vec![(0, 10), (1, 11), (3, 12)], 0.9), // winner
            scored(0, 1, vec![(0, 13), (1, 14)], 0.4),          // conflict: lower g_sim
            scored(2, 2, vec![], 0.9),                          // empty subgraph
            scored(3, 3, vec![(7, 17)], 0.05),                  // below min_g_sim
        ];
        let mut groups = GroupMapping::new();
        let mut records = RecordMapping::new();
        let audited = select_and_extract(
            &cands,
            |_, _, _| None,
            0.5,
            0.2,
            true,
            &mut groups,
            &mut records,
        );

        let mut groups2 = GroupMapping::new();
        let mut records2 = RecordMapping::new();
        let silent = select_and_extract(
            &cands,
            |_, _, _| None,
            0.5,
            0.2,
            false,
            &mut groups2,
            &mut records2,
        );
        assert_eq!(audited.accepted, silent.accepted);
        assert_eq!(audited.added, silent.added);
        assert!(silent.rejections.is_empty());

        assert_eq!(audited.accepted, vec![0]);
        let reasons: HashMap<usize, RejectReason> = audited.rejections.into_iter().collect();
        assert_eq!(reasons[&1], RejectReason::LowerGSim { winner: 0 });
        assert_eq!(reasons[&2], RejectReason::EmptySubgraph);
        assert_eq!(reasons[&3], RejectReason::BelowMinGSim);
    }

    #[test]
    fn audit_marks_equal_score_conflicts_as_tie_breaks() {
        // same g_sim, overlapping old records: (old, new) ascending wins
        let cands = vec![
            scored(1, 1, vec![(5, 15)], 0.5),
            scored(1, 0, vec![(5, 16)], 0.5),
        ];
        let mut groups = GroupMapping::new();
        let mut records = RecordMapping::new();
        let out = select_and_extract(
            &cands,
            |_, _, _| None,
            0.5,
            0.0,
            true,
            &mut groups,
            &mut records,
        );
        assert_eq!(out.accepted, vec![1]);
        assert_eq!(
            out.rejections,
            vec![(0, RejectReason::TieBreak { winner: 1 })]
        );
    }

    type Pair = (HouseholdId, HouseholdId);

    /// The accepted group pairs, the added record links (with the group
    /// pair each came from) and the rejections (reason kind and blocking
    /// winner) of one selection round, keyed by household pair instead
    /// of candidate index.
    type Keyed = (
        Vec<Pair>,
        Vec<(RecordId, RecordId, Pair)>,
        Vec<(Pair, std::mem::Discriminant<RejectReason>, Option<Pair>)>,
    );

    fn keyed_outcome(cands: &[ScoredSubgroup], min_g_sim: f64) -> Keyed {
        let key = |i: usize| (cands[i].old, cands[i].new);
        let mut groups = GroupMapping::new();
        let mut records = RecordMapping::new();
        let out = select_and_extract(
            cands,
            |_, _, _| None,
            0.5,
            min_g_sim,
            true,
            &mut groups,
            &mut records,
        );
        let rejections = out
            .rejections
            .iter()
            .map(|&(i, r)| {
                let winner = match r {
                    RejectReason::LowerGSim { winner } | RejectReason::TieBreak { winner } => {
                        Some(key(winner))
                    }
                    RejectReason::EmptySubgraph | RejectReason::BelowMinGSim => None,
                };
                (key(i), std::mem::discriminant(&r), winner)
            })
            .collect();
        (
            out.accepted.iter().map(|&i| key(i)).collect(),
            out.added.iter().map(|&(o, n, i)| (o, n, key(i))).collect(),
            rejections,
        )
    }

    proptest! {
        /// The exactness argument for materialising only acceptable
        /// candidates: removing every candidate below `min_g_sim` before
        /// selection leaves the accepted group links, the added record
        /// links and the other rejections unchanged, and the removed
        /// candidates' rejections are exactly the tail of the full run,
        /// in consideration order.
        #[test]
        fn below_floor_candidates_never_change_selection(
            raw in proptest::collection::vec(
                (0u64..4, 0u64..4, proptest::collection::vec((0u64..5, 0u64..5), 0..4), 0u32..8),
                0..14,
            ),
            floor in 0u32..8,
        ) {
            let min_g_sim = f64::from(floor) / 8.0;
            let mut seen = std::collections::HashSet::new();
            let cands: Vec<ScoredSubgroup> = raw
                .into_iter()
                .filter(|(o, n, _, _)| seen.insert((*o, *n)))
                .map(|(o, n, verts, g)| {
                    // records belong to their household: old o*10+a, new 100+n*10+b
                    let verts = verts.into_iter().map(|(a, b)| (o * 10 + a, 100 + n * 10 + b)).collect();
                    scored(o, n, verts, f64::from(g) / 8.0)
                })
                .collect();
            let kept: Vec<ScoredSubgroup> = cands
                .iter()
                .filter(|c| !below_floor(c.g_sim, min_g_sim))
                .cloned()
                .collect();

            let (acc_all, added_all, rej_all) = keyed_outcome(&cands, min_g_sim);
            let (acc_kept, added_kept, rej_kept) = keyed_outcome(&kept, min_g_sim);
            prop_assert_eq!(acc_all, acc_kept);
            prop_assert_eq!(added_all, added_kept);

            let mut dropped: Vec<&ScoredSubgroup> = cands
                .iter()
                .filter(|c| below_floor(c.g_sim, min_g_sim))
                .collect();
            dropped.sort_by(|a, b| consideration_order((a.g_sim, a.old, a.new), (b.g_sim, b.old, b.new)));
            let mut expected = rej_kept;
            for c in dropped {
                let reason = if c.sub.vertices.is_empty() {
                    RejectReason::EmptySubgraph
                } else {
                    RejectReason::BelowMinGSim
                };
                expected.push(((c.old, c.new), std::mem::discriminant(&reason), None));
            }
            prop_assert_eq!(rej_all, expected);
        }
    }
}
