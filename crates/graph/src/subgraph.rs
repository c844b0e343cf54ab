//! Common-subgraph matching between two enriched household graphs (§3.3).
//!
//! Vertices of the matched subgraph are cross-census record pairs with
//! equal pre-matching cluster labels; two vertices are connected iff both
//! endpoint pairs are connected in their own enriched graphs with the
//! *same relationship type* and *similar age differences*.

use crate::enrich::EnrichedGraph;
use census_model::{RecordId, RelType};
use textsim::age_difference_similarity;

/// Parameters of subgraph matching.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubgraphConfig {
    /// Tolerance (in years) for comparing the age-difference property of
    /// two edges; similarity decays linearly and reaches 0 at the
    /// tolerance. The paper's footnote 2 uses 3 years.
    pub age_diff_tolerance: u32,
    /// Relationship-property similarity assumed for an edge pair whose age
    /// difference is missing on either side (missing ages must neither be
    /// free evidence nor a hard veto).
    pub missing_age_sim: f64,
    /// Minimum relationship-property similarity for an edge to enter the
    /// subgraph. `> 0.0` means "within the tolerance".
    pub min_edge_sim: f64,
}

impl Default for SubgraphConfig {
    fn default() -> Self {
        Self {
            age_diff_tolerance: 3,
            missing_age_sim: 0.5,
            min_edge_sim: 1e-9,
        }
    }
}

/// The common subgraph of one household pair.
///
/// Its edges are not listed: scoring needs only their `rp_sim` sum
/// (Eq. 6) and record-link extraction only each vertex's degree, so the
/// matcher keeps those two and a subgraph of `k` vertices costs `O(k)`
/// memory however many of its `k(k-1)/2` vertex pairs match.
#[derive(Debug, Clone, Default)]
pub struct MatchedSubgraph {
    /// Vertices: `(old record, new record)` pairs with equal labels.
    pub vertices: Vec<(RecordId, RecordId)>,
    /// Number of matched edges at each vertex, parallel to
    /// [`Self::vertices`].
    pub degrees: Vec<usize>,
    /// Sum of the relationship-property similarities `rp_sim` of the
    /// matched edges — the numerator of the paper's Eq. 6 — added in the
    /// matcher's `(u, v)` order from the empty `f64` sum, so it has the
    /// bits an iterator `sum()` over the edges would give.
    pub edge_sim_sum: f64,
    /// `|E_i|` of the old enriched graph (complete-graph edge count),
    /// kept for the Dice-style edge-similarity denominator (Eq. 6).
    pub old_edge_count: usize,
    /// `|E_{i+1}|` of the new enriched graph.
    pub new_edge_count: usize,
}

impl MatchedSubgraph {
    /// Whether the subgraph is empty (no shared labels).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }
}

/// Compute the common subgraph of two enriched graphs.
///
/// `label_of_old` / `label_of_new` map record ids of the old / new census
/// to their pre-matching cluster labels; records without a label never
/// match. (Record ids are snapshot-local, so the two sides need separate
/// label functions.) Vertices are equal-label cross pairs that also pass
/// `accept` — the linkage pipeline passes the direct match-pair predicate
/// here, because at relaxed thresholds the transitive closure can fuse
/// most frequent-name records into one giant cluster, and raw label
/// equality would then pair every John with every John. A record may
/// still appear in several vertices when the other household has several
/// accepted candidates — the later group-link selection and record-link
/// extraction resolve that.
pub fn match_subgraph<F, G, A>(
    old: &EnrichedGraph,
    new: &EnrichedGraph,
    label_of_old: F,
    label_of_new: G,
    accept: A,
    config: &SubgraphConfig,
) -> MatchedSubgraph
where
    F: Fn(RecordId) -> Option<u64>,
    G: Fn(RecordId) -> Option<u64>,
    A: Fn(RecordId, RecordId) -> bool,
{
    let mut scratch = SubgraphScratch::default();
    match_subgraph_with(
        old,
        new,
        label_of_old,
        label_of_new,
        accept,
        config,
        &mut scratch,
    );
    scratch.sub
}

/// Reusable buffers for repeated [`match_subgraph`] calls: households are
/// small, so on a candidate sweep the per-call label, vertex-index and
/// result vectors cost more in allocator traffic than the matching
/// itself. [`match_subgraph_with`] borrows them from the caller and
/// leaves its result in the scratch's own [`MatchedSubgraph`].
#[derive(Debug, Default)]
pub struct SubgraphScratch {
    old_labels: Vec<Option<u64>>,
    new_labels: Vec<Option<u64>>,
    vert_idx: Vec<(usize, usize)>,
    sub: MatchedSubgraph,
}

impl obs::MemoryFootprint for SubgraphScratch {
    fn footprint(&self) -> obs::Footprint {
        let bytes = obs::footprint::vec_capacity_bytes(&self.old_labels)
            + obs::footprint::vec_capacity_bytes(&self.new_labels)
            + obs::footprint::vec_capacity_bytes(&self.vert_idx)
            + obs::footprint::vec_capacity_bytes(&self.sub.vertices)
            + obs::footprint::vec_capacity_bytes(&self.sub.degrees);
        obs::Footprint::new(bytes, self.vert_idx.len() as u64)
    }
}

/// [`match_subgraph`] with caller-provided scratch buffers: the result is
/// written into the scratch's [`MatchedSubgraph`] (overwriting the
/// previous call's) and borrowed back, so a sweep allocates nothing per
/// call. Clone the borrow to keep it past the next call.
pub fn match_subgraph_with<'s, F, G, A>(
    old: &EnrichedGraph,
    new: &EnrichedGraph,
    label_of_old: F,
    label_of_new: G,
    accept: A,
    config: &SubgraphConfig,
    scratch: &'s mut SubgraphScratch,
) -> &'s MatchedSubgraph
where
    F: Fn(RecordId) -> Option<u64>,
    G: Fn(RecordId) -> Option<u64>,
    A: Fn(RecordId, RecordId) -> bool,
{
    let SubgraphScratch {
        old_labels,
        new_labels,
        vert_idx,
        sub,
    } = scratch;
    old_labels.clear();
    old_labels.extend(old.nodes().iter().map(|&r| label_of_old(r)));
    new_labels.clear();
    new_labels.extend(new.nodes().iter().map(|&r| label_of_new(r)));
    sub.old_edge_count = old.edge_count();
    sub.new_edge_count = new.edge_count();

    // vertices: equal-label cross pairs (node-index form)
    vert_idx.clear();
    let vertices = &mut sub.vertices;
    vertices.clear();
    for (i, lo) in old_labels.iter().enumerate() {
        let Some(lo) = lo else { continue };
        for (j, ln) in new_labels.iter().enumerate() {
            if Some(lo) == ln.as_ref() && accept(old.nodes()[i], new.nodes()[j]) {
                vert_idx.push((i, j));
                vertices.push((old.nodes()[i], new.nodes()[j]));
            }
        }
    }

    // edges: both endpoint pairs connected, same rel type, similar age
    // diff; each accepted edge only counts toward its endpoints' degrees
    // and the Eq. 6 sum
    let degrees = &mut sub.degrees;
    degrees.clear();
    degrees.resize(vert_idx.len(), 0);
    let mut edge_sim_sum: f64 = std::iter::empty::<f64>().sum();
    for (u, &(o1, n1)) in vert_idx.iter().enumerate() {
        for (v, &(o2, n2)) in vert_idx.iter().enumerate().skip(u + 1) {
            if o1 == o2 || n1 == n2 {
                continue; // a record cannot relate to itself
            }
            let Some((rel_old, diff_old)) = old.directed_edge(o1, o2) else {
                continue;
            };
            let Some((rel_new, diff_new)) = new.directed_edge(n1, n2) else {
                continue;
            };
            if rel_old != rel_new || rel_old == RelType::SamePerson {
                continue;
            }
            let rp_sim = match (diff_old, diff_new) {
                (Some(a), Some(b)) => age_difference_similarity(a, b, config.age_diff_tolerance),
                _ => config.missing_age_sim,
            };
            if rp_sim >= config.min_edge_sim && rp_sim > 0.0 {
                edge_sim_sum += rp_sim;
                degrees[u] += 1;
                degrees[v] += 1;
            }
        }
    }
    sub.edge_sim_sum = edge_sim_sum;
    sub
}

#[cfg(test)]
mod tests {
    use super::*;
    use census_model::{CensusDataset, Household, HouseholdId, PersonRecord, RecordId, Role, Sex};
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn rec(id: u64, hh: u64, role: Role, age: u32, sex: Sex) -> PersonRecord {
        let mut r = PersonRecord::empty(RecordId(id), HouseholdId(hh), role);
        r.age = Some(age);
        r.sex = Some(sex);
        r
    }

    /// The paper's Fig. 4 setting: `g_1871^a` (5 members) vs `g_1881^a`
    /// (3 members, same family ten years older) and vs the decoy
    /// `g_1881^d` (same labels, different structure).
    struct Fig4 {
        old: CensusDataset,
        new: CensusDataset,
        labels: HashMap<RecordId, u64>,
    }

    fn fig4() -> Fig4 {
        // old: John(39,A) Elizabeth(37,B) Alice(8,-) William(2,C) lodger John Riley(63,-)
        let old_records = vec![
            rec(0, 0, Role::Head, 39, Sex::Male),      // label A
            rec(1, 0, Role::Spouse, 37, Sex::Female),  // label B
            rec(2, 0, Role::Daughter, 8, Sex::Female), // unlabeled (marries away)
            rec(3, 0, Role::Son, 2, Sex::Male),        // label C
            rec(4, 0, Role::Lodger, 63, Sex::Male),    // unlabeled (dies)
        ];
        let old_hh = Household::new(HouseholdId(0), (0..5).map(RecordId).collect());
        let old = CensusDataset::new(1871, old_records, vec![old_hh]).unwrap();

        // new household a: the same John/Elizabeth/William, aged +10
        let rec_n = |id: u64, hh: u64, role, age, sex| {
            let mut r = PersonRecord::empty(RecordId(id), HouseholdId(hh), role);
            r.age = Some(age);
            r.sex = Some(sex);
            r
        };
        let new_records = vec![
            rec_n(10, 0, Role::Head, 49, Sex::Male),     // A
            rec_n(11, 0, Role::Spouse, 47, Sex::Female), // B
            rec_n(12, 0, Role::Son, 12, Sex::Male),      // C
            // decoy household d: same names, structurally different ages
            rec_n(13, 1, Role::Head, 30, Sex::Male),     // A
            rec_n(14, 1, Role::Spouse, 29, Sex::Female), // B
            rec_n(15, 1, Role::Son, 3, Sex::Male),       // C
        ];
        let new_hh = vec![
            Household::new(
                HouseholdId(0),
                vec![RecordId(10), RecordId(11), RecordId(12)],
            ),
            Household::new(
                HouseholdId(1),
                vec![RecordId(13), RecordId(14), RecordId(15)],
            ),
        ];
        let new = CensusDataset::new(1881, new_records, new_hh).unwrap();

        let labels: HashMap<RecordId, u64> = [
            (0, 0),
            (10, 0),
            (13, 0), // A
            (1, 1),
            (11, 1),
            (14, 1), // B
            (3, 2),
            (12, 2),
            (15, 2), // C
        ]
        .into_iter()
        .map(|(r, l)| (RecordId(r), l))
        .collect();
        Fig4 { old, new, labels }
    }

    #[test]
    fn true_pair_matches_all_three_edges() {
        let f = fig4();
        let g_old = crate::EnrichedGraph::build(&f.old, HouseholdId(0)).unwrap();
        let g_new = crate::EnrichedGraph::build(&f.new, HouseholdId(0)).unwrap();
        let sub = match_subgraph(
            &g_old,
            &g_new,
            |r| f.labels.get(&r).copied(),
            |r| f.labels.get(&r).copied(),
            |_, _| true,
            &SubgraphConfig::default(),
        );
        assert_eq!(sub.vertices.len(), 3);
        // all three family edges match, so each vertex has degree 2
        assert_eq!(sub.degrees, vec![2, 2, 2]);
        assert_eq!(sub.old_edge_count, 10); // 5 members → 10 enriched edges
        assert_eq!(sub.new_edge_count, 3);
        assert_eq!(sub.edge_sim_sum, 3.0); // identical age diffs
        assert_same_as_reference(&f.old, &f.new, 0, 0, &f.labels, |_, _| true);
    }

    #[test]
    fn decoy_pair_keeps_fewer_edges() {
        // Fig. 4 bottom-right: the decoy shares the labels but its age
        // structure differs, so edges are rejected.
        let f = fig4();
        let g_old = crate::EnrichedGraph::build(&f.old, HouseholdId(0)).unwrap();
        let g_decoy = crate::EnrichedGraph::build(&f.new, HouseholdId(1)).unwrap();
        let sub = match_subgraph(
            &g_old,
            &g_decoy,
            |r| f.labels.get(&r).copied(),
            |r| f.labels.get(&r).copied(),
            |_, _| true,
            &SubgraphConfig::default(),
        );
        assert_eq!(sub.vertices.len(), 3);
        // head-spouse diff old 2 vs decoy 1 → similar (within tolerance);
        // head-son diff old 37 vs decoy 27, spouse-son 35 vs 26 → rejected
        assert_eq!(
            sub.degrees,
            vec![1, 1, 0],
            "decoy must lose structurally different edges"
        );
        assert_same_as_reference(&f.old, &f.new, 0, 1, &f.labels, |_, _| true);
    }

    #[test]
    fn no_shared_labels_is_empty() {
        let f = fig4();
        let g_old = crate::EnrichedGraph::build(&f.old, HouseholdId(0)).unwrap();
        let g_new = crate::EnrichedGraph::build(&f.new, HouseholdId(0)).unwrap();
        let sub = match_subgraph(
            &g_old,
            &g_new,
            |_| None,
            |_| None,
            |_, _| true,
            &SubgraphConfig::default(),
        );
        assert!(sub.is_empty());
        assert!(sub.degrees.is_empty());
    }

    #[test]
    fn rel_type_mismatch_blocks_edge() {
        // old: head + son; new: head + spouse — same labels but the edge
        // types (parent-child vs spouse) differ
        let old_records = vec![
            rec(0, 0, Role::Head, 40, Sex::Male),
            rec(1, 0, Role::Son, 20, Sex::Male),
        ];
        let old = CensusDataset::new(
            1871,
            old_records,
            vec![Household::new(
                HouseholdId(0),
                vec![RecordId(0), RecordId(1)],
            )],
        )
        .unwrap();
        let new_records = vec![
            rec(10, 0, Role::Head, 50, Sex::Male),
            rec(11, 0, Role::Spouse, 30, Sex::Female),
        ];
        let new = CensusDataset::new(
            1881,
            new_records,
            vec![Household::new(
                HouseholdId(0),
                vec![RecordId(10), RecordId(11)],
            )],
        )
        .unwrap();
        let labels: HashMap<RecordId, u64> = [(0, 0), (10, 0), (1, 1), (11, 1)]
            .into_iter()
            .map(|(r, l)| (RecordId(r), l))
            .collect();
        let g_old = crate::EnrichedGraph::build(&old, HouseholdId(0)).unwrap();
        let g_new = crate::EnrichedGraph::build(&new, HouseholdId(0)).unwrap();
        let sub = match_subgraph(
            &g_old,
            &g_new,
            |r| labels.get(&r).copied(),
            |r| labels.get(&r).copied(),
            |_, _| true,
            &SubgraphConfig::default(),
        );
        assert_eq!(sub.vertices.len(), 2);
        assert_eq!(sub.degrees, vec![0, 0]);
    }

    #[test]
    fn missing_age_uses_default_similarity() {
        let mut r0 = rec(0, 0, Role::Head, 40, Sex::Male);
        r0.age = None;
        let old = CensusDataset::new(
            1871,
            vec![r0, rec(1, 0, Role::Son, 20, Sex::Male)],
            vec![Household::new(
                HouseholdId(0),
                vec![RecordId(0), RecordId(1)],
            )],
        )
        .unwrap();
        let new = CensusDataset::new(
            1881,
            vec![
                rec(10, 0, Role::Head, 50, Sex::Male),
                rec(11, 0, Role::Son, 30, Sex::Male),
            ],
            vec![Household::new(
                HouseholdId(0),
                vec![RecordId(10), RecordId(11)],
            )],
        )
        .unwrap();
        let labels: HashMap<RecordId, u64> = [(0, 0), (10, 0), (1, 1), (11, 1)]
            .into_iter()
            .map(|(r, l)| (RecordId(r), l))
            .collect();
        let g_old = crate::EnrichedGraph::build(&old, HouseholdId(0)).unwrap();
        let g_new = crate::EnrichedGraph::build(&new, HouseholdId(0)).unwrap();
        let config = SubgraphConfig::default();
        let sub = match_subgraph(
            &g_old,
            &g_new,
            |r| labels.get(&r).copied(),
            |r| labels.get(&r).copied(),
            |_, _| true,
            &config,
        );
        assert_eq!(sub.degrees, vec![1, 1]);
        assert!((sub.edge_sim_sum - config.missing_age_sim).abs() < 1e-9);
    }

    #[test]
    fn ambiguous_records_produce_multiple_vertices() {
        // two Johns (same label) in the old household, one in the new
        let old = CensusDataset::new(
            1871,
            vec![
                rec(0, 0, Role::Head, 40, Sex::Male),
                rec(1, 0, Role::Son, 18, Sex::Male),
            ],
            vec![Household::new(
                HouseholdId(0),
                vec![RecordId(0), RecordId(1)],
            )],
        )
        .unwrap();
        let new = CensusDataset::new(
            1881,
            vec![rec(10, 0, Role::Head, 50, Sex::Male)],
            vec![Household::new(HouseholdId(0), vec![RecordId(10)])],
        )
        .unwrap();
        // all three share one label
        let labels: HashMap<RecordId, u64> = [(0, 0), (1, 0), (10, 0)]
            .into_iter()
            .map(|(r, l)| (RecordId(r), l))
            .collect();
        let g_old = crate::EnrichedGraph::build(&old, HouseholdId(0)).unwrap();
        let g_new = crate::EnrichedGraph::build(&new, HouseholdId(0)).unwrap();
        let sub = match_subgraph(
            &g_old,
            &g_new,
            |r| labels.get(&r).copied(),
            |r| labels.get(&r).copied(),
            |_, _| true,
            &SubgraphConfig::default(),
        );
        assert_eq!(sub.vertices.len(), 2); // both old Johns pair the new John
        assert_eq!(sub.degrees, vec![0, 0]); // no edge: shared new endpoint
    }

    #[test]
    fn accept_filter_restricts_vertices() {
        let f = fig4();
        let g_old = crate::EnrichedGraph::build(&f.old, HouseholdId(0)).unwrap();
        let g_new = crate::EnrichedGraph::build(&f.new, HouseholdId(0)).unwrap();
        // only allow the head pair as a direct match
        let sub = match_subgraph(
            &g_old,
            &g_new,
            |r| f.labels.get(&r).copied(),
            |r| f.labels.get(&r).copied(),
            |o, n| o == RecordId(0) && n == RecordId(10),
            &SubgraphConfig::default(),
        );
        assert_eq!(sub.vertices, vec![(RecordId(0), RecordId(10))]);
        assert_eq!(sub.degrees, vec![0]);
        let head_only = |o, n| o == RecordId(0) && n == RecordId(10);
        assert_same_as_reference(&f.old, &f.new, 0, 0, &f.labels, head_only);
    }

    #[test]
    fn reused_scratch_matches_fresh_calls() {
        // a large result followed by a smaller one: nothing of the first
        // call's vertices or edges may leak into the second
        let f = fig4();
        let g_old = crate::EnrichedGraph::build(&f.old, HouseholdId(0)).unwrap();
        let config = SubgraphConfig::default();
        let label = |r: RecordId| f.labels.get(&r).copied();
        let mut scratch = SubgraphScratch::default();
        for (hh, accept_all) in [(0, true), (1, true), (0, false), (1, true)] {
            let g_new = crate::EnrichedGraph::build(&f.new, HouseholdId(hh)).unwrap();
            let accept = |o: RecordId, _| accept_all || o == RecordId(0);
            let fresh = match_subgraph(&g_old, &g_new, label, label, accept, &config);
            let reused =
                match_subgraph_with(&g_old, &g_new, label, label, accept, &config, &mut scratch);
            assert_eq!(reused.vertices, fresh.vertices);
            assert_eq!(reused.degrees, fresh.degrees);
            assert_eq!(reused.edge_sim_sum.to_bits(), fresh.edge_sim_sum.to_bits());
            assert_eq!(reused.old_edge_count, fresh.old_edge_count);
            assert_eq!(reused.new_edge_count, fresh.new_edge_count);
        }
    }

    #[test]
    fn edge_sim_sum_accumulates() {
        let f = fig4();
        let g_old = crate::EnrichedGraph::build(&f.old, HouseholdId(0)).unwrap();
        let g_new = crate::EnrichedGraph::build(&f.new, HouseholdId(0)).unwrap();
        let sub = match_subgraph(
            &g_old,
            &g_new,
            |r| f.labels.get(&r).copied(),
            |r| f.labels.get(&r).copied(),
            |_, _| true,
            &SubgraphConfig::default(),
        );
        assert!((sub.edge_sim_sum - 3.0).abs() < 1e-9);
    }

    #[test]
    fn edgeless_subgraph_sums_like_an_empty_iterator() {
        // two vertices, no edge between them: the Eq. 6 numerator keeps
        // the empty `Sum`'s bits (and so its sign of zero)
        // the head and son against the decoy: their age gap is 37 years
        // in the old household and 27 in the decoy, so the edge fails
        let f = fig4();
        let g_old = crate::EnrichedGraph::build(&f.old, HouseholdId(0)).unwrap();
        let g_decoy = crate::EnrichedGraph::build(&f.new, HouseholdId(1)).unwrap();
        let head_and_son = |o, _| o == RecordId(0) || o == RecordId(3);
        let sub = match_subgraph(
            &g_old,
            &g_decoy,
            |r| f.labels.get(&r).copied(),
            |r| f.labels.get(&r).copied(),
            head_and_son,
            &SubgraphConfig::default(),
        );
        assert_eq!(sub.vertices.len(), 2);
        assert_eq!(sub.degrees, vec![0, 0]);
        let empty: f64 = std::iter::empty::<f64>().sum();
        assert_eq!(sub.edge_sim_sum.to_bits(), empty.to_bits());
        assert_same_as_reference(&f.old, &f.new, 0, 1, &f.labels, head_and_son);
    }

    /// The matcher as it was with stored edges: each graph's upper
    /// triangle listed from `derive_pair_rel` and the raw ages (never
    /// through [`EnrichedGraph::directed_edge`]), a flipped lookup
    /// inverted, and every accepted vertex pair kept as an explicit
    /// `(u, v, rp_sim)` edge. Returns the vertices and the edge list.
    #[allow(clippy::type_complexity)]
    fn reference_match(
        old: &[&PersonRecord],
        new: &[&PersonRecord],
        label_old: impl Fn(RecordId) -> Option<u64>,
        label_new: impl Fn(RecordId) -> Option<u64>,
        accept: impl Fn(RecordId, RecordId) -> bool,
        config: &SubgraphConfig,
    ) -> (Vec<(RecordId, RecordId)>, Vec<(usize, usize, f64)>) {
        type Stored = Vec<(usize, usize, RelType, Option<i64>)>;
        let stored = |members: &[&PersonRecord]| -> Stored {
            let mut edges = Vec::new();
            for a in 0..members.len() {
                for b in a + 1..members.len() {
                    let rel = crate::derive_pair_rel(members[a].role, members[b].role);
                    let diff = match (members[a].age, members[b].age) {
                        (Some(x), Some(y)) => Some(i64::from(x) - i64::from(y)),
                        _ => None,
                    };
                    edges.push((a, b, rel, diff));
                }
            }
            edges
        };
        let lookup = |edges: &Stored, i: usize, j: usize| {
            let &(_, _, rel, diff) = edges
                .iter()
                .find(|e| (e.0, e.1) == (i.min(j), i.max(j)))
                .unwrap();
            if i < j {
                (rel, diff)
            } else {
                (rel.inverse(), diff.map(|d| -d))
            }
        };
        let (old_edges, new_edges) = (stored(old), stored(new));
        let mut idx = Vec::new();
        let mut vertices = Vec::new();
        for (i, o) in old.iter().enumerate() {
            for (j, n) in new.iter().enumerate() {
                let lo = label_old(o.id);
                if lo.is_some() && lo == label_new(n.id) && accept(o.id, n.id) {
                    idx.push((i, j));
                    vertices.push((o.id, n.id));
                }
            }
        }
        let mut edges = Vec::new();
        for (u, &(o1, n1)) in idx.iter().enumerate() {
            for (v, &(o2, n2)) in idx.iter().enumerate().skip(u + 1) {
                if o1 == o2 || n1 == n2 {
                    continue;
                }
                let (rel_old, diff_old) = lookup(&old_edges, o1, o2);
                let (rel_new, diff_new) = lookup(&new_edges, n1, n2);
                if rel_old != rel_new || rel_old == RelType::SamePerson {
                    continue;
                }
                let rp_sim = match (diff_old, diff_new) {
                    (Some(a), Some(b)) => {
                        age_difference_similarity(a, b, config.age_diff_tolerance)
                    }
                    _ => config.missing_age_sim,
                };
                if rp_sim >= config.min_edge_sim && rp_sim > 0.0 {
                    edges.push((u, v, rp_sim));
                }
            }
        }
        (vertices, edges)
    }

    /// Match household `hh_old` of `old` against `hh_new` of `new` with
    /// both the matcher and [`reference_match`], and require the same
    /// vertices, degrees and bits of the Eq. 6 sum.
    fn assert_same_as_reference(
        old: &CensusDataset,
        new: &CensusDataset,
        hh_old: u64,
        hh_new: u64,
        labels: &HashMap<RecordId, u64>,
        accept: impl Fn(RecordId, RecordId) -> bool + Copy,
    ) {
        let config = SubgraphConfig::default();
        let label = |r: RecordId| labels.get(&r).copied();
        let g_old = crate::EnrichedGraph::build(old, HouseholdId(hh_old)).unwrap();
        let g_new = crate::EnrichedGraph::build(new, HouseholdId(hh_new)).unwrap();
        let sub = match_subgraph(&g_old, &g_new, label, label, accept, &config);
        let old_members: Vec<&PersonRecord> = old.members(HouseholdId(hh_old)).collect();
        let new_members: Vec<&PersonRecord> = new.members(HouseholdId(hh_new)).collect();
        let (vertices, edges) =
            reference_match(&old_members, &new_members, label, label, accept, &config);
        let mut degrees = vec![0; vertices.len()];
        for &(u, v, _) in &edges {
            degrees[u] += 1;
            degrees[v] += 1;
        }
        let sum: f64 = edges.iter().map(|e| e.2).sum();
        assert_eq!(sub.vertices, vertices, "vertices");
        assert_eq!(sub.degrees, degrees, "degrees");
        assert_eq!(sub.edge_sim_sum.to_bits(), sum.to_bits(), "Eq. 6 sum");
        assert_eq!(
            sub.old_edge_count,
            old_members.len() * old_members.len().saturating_sub(1) / 2
        );
        assert_eq!(
            sub.new_edge_count,
            new_members.len() * new_members.len().saturating_sub(1) / 2
        );
    }

    /// One household of `members` as a snapshot: record ids from
    /// `first_id`, every record in household 0.
    fn household(year: i32, first_id: u64, members: &[(Role, Option<u32>)]) -> CensusDataset {
        let records: Vec<PersonRecord> = members
            .iter()
            .zip(first_id..)
            .map(|(&(role, age), id)| {
                let mut r = PersonRecord::empty(RecordId(id), HouseholdId(0), role);
                r.age = age;
                r
            })
            .collect();
        let ids = records.iter().map(|r| r.id).collect();
        CensusDataset::new(year, records, vec![Household::new(HouseholdId(0), ids)]).unwrap()
    }

    /// A household's members: any roles but `Head`, then at most one
    /// head swapped in at a random position; some ages missing.
    fn members() -> impl Strategy<Value = Vec<(Role, Option<u32>)>> {
        let member = (1..Role::ALL.len(), proptest::option::of(0u32..90))
            .prop_map(|(r, age)| (Role::ALL[r], age));
        (
            proptest::collection::vec(member, 0..9),
            any::<bool>(),
            any::<usize>(),
        )
            .prop_map(|(mut members, head, at)| {
                if head && !members.is_empty() {
                    let at = at % members.len();
                    members[at].0 = Role::Head;
                }
                members
            })
    }

    proptest! {
        #[test]
        fn prop_matcher_equals_the_stored_edge_reference(
            old in members(),
            new in members(),
            labels in proptest::collection::vec(proptest::option::of(0u64..3), 18..19),
            accept_bits in any::<u64>(),
        ) {
            let (old_ds, new_ds) = (household(1871, 0, &old), household(1881, 100, &new));
            // old records 0..9 and new records 100..109 draw their labels
            // from one table; `accept` keeps a random subset of pairs
            let labels: HashMap<RecordId, u64> = (0..9u64)
                .chain(100..109)
                .zip(&labels)
                .filter_map(|(r, l)| l.map(|l| (RecordId(r), l)))
                .collect();
            let accept = move |o: RecordId, n: RecordId| {
                (accept_bits >> ((o.raw() * 7 + n.raw() - 100) % 64)) & 1 == 1
            };
            assert_same_as_reference(&old_ds, &new_ds, 0, 0, &labels, accept);
        }
    }
}
