//! The evolution graph `G-Evolution` (§4.2): households of every census
//! as vertices, typed group-pattern edges between successive censuses.

use crate::detect::{detect_patterns, GroupPatternKind, PairPatterns};
use census_model::{CensusDataset, GroupMapping, HouseholdId, RecordMapping};
use obs::{Collector, Counter, Footprint, Histogram, LiveHist, MemoryFootprint};

/// A typed group edge between snapshot `t` and `t + 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupEdge {
    /// Index of the older snapshot.
    pub from_snapshot: usize,
    /// Household in the older snapshot.
    pub old: HouseholdId,
    /// Household in the newer snapshot.
    pub new: HouseholdId,
    /// Pattern kind of this link.
    pub kind: GroupPatternKind,
    /// Number of preserved members carried by the link.
    pub shared: usize,
}

/// The evolution graph over a series of linked snapshots.
///
/// Vertices are `(snapshot index, household id)` pairs, represented
/// implicitly through the per-snapshot household counts; edges are the
/// typed group links of every successive pair.
#[derive(Debug, Clone, Default)]
pub struct EvolutionGraph {
    /// Households per snapshot (vertex count bookkeeping).
    pub households_per_snapshot: Vec<usize>,
    /// All typed group edges.
    pub edges: Vec<GroupEdge>,
    /// The per-pair pattern detection results, in pair order.
    pub pair_patterns: Vec<PairPatterns>,
}

impl EvolutionGraph {
    /// Build the evolution graph from a series of snapshots and the
    /// mappings linking each successive pair.
    ///
    /// # Panics
    ///
    /// Panics unless `mappings.len() + 1 == snapshots.len()`.
    #[must_use]
    pub fn build(snapshots: &[&CensusDataset], mappings: &[(RecordMapping, GroupMapping)]) -> Self {
        Self::build_traced(snapshots, mappings, &Collector::disabled())
    }

    /// [`EvolutionGraph::build`] recording an `evolution` span on `obs`,
    /// with one nested `patterns` span per snapshot pair (tagged with the
    /// pair index as its iteration).
    ///
    /// # Panics
    ///
    /// Panics unless `mappings.len() + 1 == snapshots.len()`.
    #[must_use]
    pub fn build_traced(
        snapshots: &[&CensusDataset],
        mappings: &[(RecordMapping, GroupMapping)],
        obs: &Collector,
    ) -> Self {
        assert_eq!(
            mappings.len() + 1,
            snapshots.len(),
            "need exactly one mapping per successive snapshot pair"
        );
        let _evolution = obs.span("evolution");
        let mut graph = EvolutionGraph {
            households_per_snapshot: snapshots.iter().map(|d| d.household_count()).collect(),
            ..Default::default()
        };
        for (t, (records, groups)) in mappings.iter().enumerate() {
            let _pair = obs.iter_span("patterns", t, None);
            let patterns = detect_patterns(snapshots[t], snapshots[t + 1], records, groups);
            let c = &patterns.counts;
            obs.add(Counter::EvolutionPreserveR, c.preserve_r as u64);
            obs.add(Counter::EvolutionAddR, c.add_r as u64);
            obs.add(Counter::EvolutionRemoveR, c.remove_r as u64);
            obs.add(Counter::EvolutionPreserveG, c.preserve_g as u64);
            obs.add(Counter::EvolutionAddG, c.add_g as u64);
            obs.add(Counter::EvolutionRemoveG, c.remove_g as u64);
            for &(old, new, kind, shared) in &patterns.group_links {
                graph.edges.push(GroupEdge {
                    from_snapshot: t,
                    old,
                    new,
                    kind,
                    shared,
                });
            }
            graph.pair_patterns.push(patterns);
        }
        if obs.is_enabled() {
            let mut lens = Histogram::new();
            // entry i counts chains of i + 1 consecutive preserve edges
            for (i, &n) in crate::chains::preserve_chain_counts(&graph)
                .iter()
                .enumerate()
            {
                lens.record_n(i as u64 + 1, n as u64);
            }
            obs.observe_hist(LiveHist::ChainLength, &lens);
            obs.snapshot_footprint("evolution_graph", graph.footprint());
        }
        graph
    }

    /// Number of snapshots covered.
    #[must_use]
    pub fn snapshot_count(&self) -> usize {
        self.households_per_snapshot.len()
    }

    /// Total number of household vertices.
    #[must_use]
    pub fn vertex_count(&self) -> usize {
        self.households_per_snapshot.iter().sum()
    }

    /// Edges of one pattern kind.
    pub fn edges_of_kind(&self, kind: GroupPatternKind) -> impl Iterator<Item = &GroupEdge> + '_ {
        self.edges.iter().filter(move |e| e.kind == kind)
    }
}

impl MemoryFootprint for EvolutionGraph {
    fn footprint(&self) -> Footprint {
        let mut bytes = obs::footprint::vec_capacity_bytes(&self.households_per_snapshot)
            + obs::footprint::vec_capacity_bytes(&self.edges)
            + obs::footprint::vec_capacity_bytes(&self.pair_patterns);
        for p in &self.pair_patterns {
            bytes += obs::footprint::vec_capacity_bytes(&p.group_links)
                + obs::footprint::vec_capacity_bytes(&p.removed_groups)
                + obs::footprint::vec_capacity_bytes(&p.added_groups);
            bytes += p
                .splits
                .iter()
                .map(|(_, v)| obs::footprint::vec_capacity_bytes(v))
                .sum::<u64>()
                + obs::footprint::vec_capacity_bytes(&p.splits);
            bytes += p
                .merges
                .iter()
                .map(|(v, _)| obs::footprint::vec_capacity_bytes(v))
                .sum::<u64>()
                + obs::footprint::vec_capacity_bytes(&p.merges);
        }
        Footprint::new(bytes, self.edges.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use census_model::{Household, PersonRecord, RecordId, Role};

    fn chain_series(n: usize) -> (Vec<CensusDataset>, Vec<(RecordMapping, GroupMapping)>) {
        // one household of two people preserved across n snapshots
        let rec = |id: u64| {
            let mut r = PersonRecord::empty(RecordId(id), HouseholdId(0), Role::Head);
            r.age = Some(30);
            r
        };
        let mk = |year: i32| {
            CensusDataset::new(
                year,
                vec![rec(0), rec(1)],
                vec![Household::new(
                    HouseholdId(0),
                    vec![RecordId(0), RecordId(1)],
                )],
            )
            .unwrap()
        };
        let snapshots: Vec<CensusDataset> = (0..n).map(|i| mk(1851 + 10 * i as i32)).collect();
        let mappings: Vec<(RecordMapping, GroupMapping)> = (1..n)
            .map(|_| {
                (
                    RecordMapping::from_pairs([
                        (RecordId(0), RecordId(0)),
                        (RecordId(1), RecordId(1)),
                    ])
                    .unwrap(),
                    [(HouseholdId(0), HouseholdId(0))].into_iter().collect(),
                )
            })
            .collect();
        (snapshots, mappings)
    }

    #[test]
    fn builds_preserve_chain() {
        let (snapshots, mappings) = chain_series(4);
        let refs: Vec<&CensusDataset> = snapshots.iter().collect();
        let g = EvolutionGraph::build(&refs, &mappings);
        assert_eq!(g.snapshot_count(), 4);
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.edges.len(), 3);
        assert!(g
            .edges
            .iter()
            .all(|e| e.kind == GroupPatternKind::Preserve && e.shared == 2));
        assert_eq!(g.edges_of_kind(GroupPatternKind::Preserve).count(), 3);
        assert_eq!(g.edges_of_kind(GroupPatternKind::Move).count(), 0);
    }

    #[test]
    #[should_panic(expected = "one mapping per successive snapshot pair")]
    fn wrong_mapping_count_panics() {
        let (snapshots, mappings) = chain_series(3);
        let refs: Vec<&CensusDataset> = snapshots.iter().collect();
        let _ = EvolutionGraph::build(&refs, &mappings[..1]);
    }

    #[test]
    fn traced_build_records_counters_chain_hist_and_footprint() {
        let (snapshots, mappings) = chain_series(4);
        let refs: Vec<&CensusDataset> = snapshots.iter().collect();
        let obs = Collector::enabled();
        let g = EvolutionGraph::build_traced(&refs, &mappings, &obs);
        let trace = obs.finish();
        // 2 preserved people and 1 preserved household per pair, 3 pairs
        assert_eq!(trace.counter("evolution_preserve_r"), 6);
        assert_eq!(trace.counter("evolution_preserve_g"), 3);
        assert_eq!(trace.counter("evolution_add_r"), 0);
        assert_eq!(trace.counter("evolution_remove_g"), 0);
        // one 3-edge chain ⇒ sub-chains of length 1/2/3 count 3/2/1
        let h = trace.histogram("preserve_chain_len").expect("chain hist");
        assert_eq!(h.count, 6);
        assert_eq!(h.max, 3);
        assert!(trace
            .footprints
            .iter()
            .any(|f| f.structure == "evolution_graph" && f.phase == "evolution"));
        let fp = g.footprint();
        assert!(fp.bytes > 0);
        assert_eq!(fp.elements, g.edges.len() as u64);
    }

    #[test]
    fn pair_patterns_align_with_edges() {
        let (snapshots, mappings) = chain_series(3);
        let refs: Vec<&CensusDataset> = snapshots.iter().collect();
        let g = EvolutionGraph::build(&refs, &mappings);
        assert_eq!(g.pair_patterns.len(), 2);
        for p in &g.pair_patterns {
            assert_eq!(p.counts.preserve_g, 1);
            assert_eq!(p.counts.preserve_r, 2);
        }
    }
}
