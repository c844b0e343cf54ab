//! Group-pair similarity (§3.4, Eq. 4–7).

use census_model::RecordId;
use hhgraph::MatchedSubgraph;
use serde::{Deserialize, Serialize};

/// The three component scores of a candidate group pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GroupScore {
    /// Average aggregated record similarity over the subgraph's vertices
    /// (Eq. 5).
    pub avg_sim: f64,
    /// Dice-style edge similarity relating matched-edge quality to the
    /// total relationships of both groups (Eq. 6).
    pub e_sim: f64,
    /// Uniqueness: how exclusively the matched records' labels belong to
    /// this group pair (Eq. 7).
    pub unique: f64,
}

/// The weights `(α, β)` of the aggregated group similarity (Eq. 4);
/// the uniqueness weight is the remainder `1 − α − β`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SelectionWeights {
    /// Weight of the average record similarity.
    pub alpha: f64,
    /// Weight of the edge similarity.
    pub beta: f64,
}

impl SelectionWeights {
    /// Construct weights.
    ///
    /// # Panics
    ///
    /// Panics if `α`, `β` or `1 − α − β` is negative.
    #[must_use]
    pub fn new(alpha: f64, beta: f64) -> Self {
        assert!(alpha >= 0.0 && beta >= 0.0, "weights must be non-negative");
        assert!(
            alpha + beta <= 1.0 + 1e-9,
            "α + β must not exceed 1 (the remainder weights uniqueness)"
        );
        Self { alpha, beta }
    }

    /// The paper's best configuration `(α, β) = (0.2, 0.7)` (Table 4).
    #[must_use]
    pub fn paper_best() -> Self {
        Self::new(0.2, 0.7)
    }

    /// The uniqueness weight `1 − α − β`.
    #[must_use]
    pub fn uniqueness_weight(self) -> f64 {
        (1.0 - self.alpha - self.beta).max(0.0)
    }

    /// Aggregated group similarity `g_sim` (Eq. 4).
    #[must_use]
    pub fn g_sim(self, score: &GroupScore) -> f64 {
        self.alpha * score.avg_sim
            + self.beta * score.e_sim
            + self.uniqueness_weight() * score.unique
    }
}

impl Default for SelectionWeights {
    fn default() -> Self {
        Self::paper_best()
    }
}

impl GroupScore {
    /// Eq. 5–7 from a subgraph's sums: `sum_sim` adds the vertices'
    /// record similarities, `edge_sim_sum` the matched edges' `rp_sim`,
    /// `edge_denom` is `|E_i| + |E_{i+1}|` and `label_mass` adds the
    /// cluster sizes of the vertices' labels. No vertices score zero.
    /// [`score_subgraph`] and the δ loop's single-pair closed form both
    /// score through here, so the two agree bit for bit.
    #[must_use]
    pub(crate) fn from_sums(
        sum_sim: f64,
        vertices: usize,
        edge_sim_sum: f64,
        edge_denom: usize,
        label_mass: u64,
    ) -> Self {
        if vertices == 0 {
            return Self {
                avg_sim: 0.0,
                e_sim: 0.0,
                unique: 0.0,
            };
        }
        // Eq. 5: average record similarity
        let avg_sim = sum_sim / vertices as f64;
        // Eq. 6: Dice-style edge similarity over the enriched edge counts
        let denom = edge_denom as f64;
        let e_sim = if denom == 0.0 {
            0.0
        } else {
            2.0 * edge_sim_sum / denom
        };
        // Eq. 7: uniqueness — 2·|R_sub| over the summed cluster sizes of
        // the vertices' labels
        let unique = if label_mass == 0 {
            0.0
        } else {
            2.0 * vertices as f64 / label_mass as f64
        };
        Self {
            avg_sim,
            e_sim,
            unique,
        }
    }
}

/// Compute the three component scores of a subgraph.
///
/// `pair_sim` gives a vertex's direct record similarity and
/// `label_size` the cluster size of its old record's label (0 for an
/// unknown label). `fallback_sim` is used as the record similarity of a
/// vertex pair that was clustered together transitively without a
/// direct match pair (its direct similarity is unknown but at least
/// threshold-adjacent).
#[must_use]
pub fn score_subgraph(
    sub: &MatchedSubgraph,
    pair_sim: impl Fn(RecordId, RecordId) -> Option<f64>,
    label_size: impl Fn(RecordId) -> u32,
    fallback_sim: f64,
) -> GroupScore {
    let sum_sim: f64 = sub
        .vertices
        .iter()
        .map(|&(o, n)| pair_sim(o, n).unwrap_or(fallback_sim))
        .sum();
    let label_mass: u64 = sub
        .vertices
        .iter()
        .map(|&(o, _)| u64::from(label_size(o)))
        .sum();
    GroupScore::from_sums(
        sum_sim,
        sub.vertices.len(),
        sub.edge_sim_sum,
        sub.old_edge_count + sub.new_edge_count,
        label_mass,
    )
}

/// [`score_subgraph`] of the one-vertex subgraph `{(o, n)}` in closed
/// form: `sim` is the pair's direct similarity, `label_size` its label's
/// cluster size and `edge_denom` the two graphs' summed edge counts. One
/// vertex has no edge, so the edge sum is the empty `f64` sum — the very
/// value (`-0.0` under the current standard library) that the matcher
/// stores in [`MatchedSubgraph::edge_sim_sum`] — and the one-term
/// similarity sum goes through the same `Sum` as well, so every
/// component keeps its bits.
#[must_use]
pub(crate) fn score_single_pair(sim: f64, label_size: u32, edge_denom: usize) -> GroupScore {
    GroupScore::from_sums(
        std::iter::once(sim).sum(),
        1,
        std::iter::empty::<f64>().sum(),
        edge_denom,
        u64::from(label_size),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Pair similarities, labels and cluster sizes keyed by record id,
    /// the inputs of one scored subgraph.
    #[derive(Default)]
    struct PreMatch {
        pair_sims: HashMap<(RecordId, RecordId), f64>,
        label_old: HashMap<RecordId, u64>,
        cluster_size: HashMap<u64, u32>,
    }

    fn score(sub: &MatchedSubgraph, pre: &PreMatch, fallback_sim: f64) -> GroupScore {
        score_subgraph(
            sub,
            |o, n| pre.pair_sims.get(&(o, n)).copied(),
            |o| {
                let label = pre.label_old.get(&o);
                label
                    .and_then(|l| pre.cluster_size.get(l))
                    .copied()
                    .unwrap_or(0)
            },
            fallback_sim,
        )
    }

    /// Build a synthetic subgraph + prematch mirroring the paper's worked
    /// example (Eq. 8): 3 vertices, 3 perfect edges, |E_i| = 10,
    /// |E_{i+1}| = 3, every label in a cluster of size 3.
    fn paper_example() -> (MatchedSubgraph, PreMatch) {
        let vertices = vec![
            (RecordId(0), RecordId(10)),
            (RecordId(1), RecordId(11)),
            (RecordId(3), RecordId(12)),
        ];
        let sub = MatchedSubgraph {
            vertices,
            degrees: vec![2, 2, 2],
            edge_sim_sum: 3.0,
            old_edge_count: 10,
            new_edge_count: 3,
        };
        let mut pre = PreMatch::default();
        for (i, &(o, n)) in sub.vertices.iter().enumerate() {
            pre.pair_sims.insert((o, n), 1.0);
            pre.label_old.insert(o, i as u64);
            pre.cluster_size.insert(i as u64, 3);
        }
        (sub, pre)
    }

    #[test]
    fn eq8_true_pair_scores() {
        let (sub, pre) = paper_example();
        let s = score(&sub, &pre, 0.5);
        assert!((s.avg_sim - 1.0).abs() < 1e-9);
        assert!((s.e_sim - 2.0 * 3.0 / 13.0).abs() < 1e-9); // 0.4615…
        assert!((s.unique - 2.0 * 3.0 / 9.0).abs() < 1e-9); // 0.666…
    }

    #[test]
    fn eq8_decoy_pair_scores() {
        // Fig. 4 decoy: 2 vertices kept, 1 edge, |E_i| = 10, |E_{i+1}| = 3
        let (mut sub, mut pre) = paper_example();
        sub.vertices.truncate(2);
        (sub.degrees, sub.edge_sim_sum) = (vec![1, 1], 1.0);
        pre.cluster_size.insert(0, 3);
        pre.cluster_size.insert(1, 3);
        let s = score(&sub, &pre, 0.5);
        assert!((s.avg_sim - 1.0).abs() < 1e-9);
        assert!((s.e_sim - 2.0 / 13.0).abs() < 1e-9); // 0.1538…
        assert!((s.unique - 2.0 * 2.0 / 6.0).abs() < 1e-9); // 0.666…
    }

    #[test]
    fn paper_weights_prefer_true_pair() {
        // with any positive β the true pair must win (the paper's point)
        let (true_sub, pre) = paper_example();
        let (mut decoy, _) = paper_example();
        decoy.vertices.truncate(2);
        (decoy.degrees, decoy.edge_sim_sum) = (vec![1, 1], 1.0);
        let w = SelectionWeights::paper_best();
        let g_true = w.g_sim(&score(&true_sub, &pre, 0.5));
        let g_decoy = w.g_sim(&score(&decoy, &pre, 0.5));
        assert!(g_true > g_decoy, "{g_true} vs {g_decoy}");
    }

    #[test]
    fn alpha_only_cannot_separate() {
        // with (α, β) = (1, 0) both pairs score identically — exactly why
        // Table 4 shows that configuration losing
        let (true_sub, pre) = paper_example();
        let (mut decoy, _) = paper_example();
        decoy.vertices.truncate(2);
        (decoy.degrees, decoy.edge_sim_sum) = (vec![1, 1], 1.0);
        let w = SelectionWeights::new(1.0, 0.0);
        let g_true = w.g_sim(&score(&true_sub, &pre, 0.5));
        let g_decoy = w.g_sim(&score(&decoy, &pre, 0.5));
        assert!((g_true - g_decoy).abs() < 1e-9);
    }

    #[test]
    fn fallback_sim_fills_missing_pairs() {
        let (sub, mut pre) = paper_example();
        pre.pair_sims.clear(); // transitive-only clusters
        let s = score(&sub, &pre, 0.6);
        assert!((s.avg_sim - 0.6).abs() < 1e-9);
    }

    #[test]
    fn empty_subgraph_scores_zero() {
        let sub = MatchedSubgraph {
            old_edge_count: 10,
            new_edge_count: 3,
            ..MatchedSubgraph::default()
        };
        let pre = PreMatch::default();
        let s = score(&sub, &pre, 0.5);
        assert_eq!(s.avg_sim, 0.0);
        assert_eq!(s.e_sim, 0.0);
        assert_eq!(s.unique, 0.0);
    }

    #[test]
    fn uniqueness_is_one_for_exclusive_labels() {
        let (sub, mut pre) = paper_example();
        for l in 0..3u64 {
            pre.cluster_size.insert(l, 2); // only the pair itself
        }
        let s = score(&sub, &pre, 0.5);
        assert!((s.unique - 1.0).abs() < 1e-9);
    }

    #[test]
    fn weight_validation() {
        assert!((SelectionWeights::new(0.2, 0.7).uniqueness_weight() - 0.1).abs() < 1e-9);
        assert_eq!(SelectionWeights::new(0.5, 0.5).uniqueness_weight(), 0.0);
    }

    #[test]
    #[should_panic(expected = "exceed 1")]
    fn overweight_panics() {
        let _ = SelectionWeights::new(0.8, 0.8);
    }

    /// The one-vertex subgraph `{(0, 10)}` between graphs of
    /// `old_edges` and `new_edges` edges, with `pre` holding its pair
    /// similarity and label; `label_size: None` leaves the label out of
    /// `cluster_size` (an unknown label, mass 0).
    fn one_vertex(
        sim: f64,
        label_size: Option<u32>,
        old_edges: usize,
        new_edges: usize,
    ) -> (MatchedSubgraph, PreMatch) {
        let (o, n) = (RecordId(0), RecordId(10));
        let sub = MatchedSubgraph {
            vertices: vec![(o, n)],
            degrees: vec![0],
            // the matcher's sum over no edges
            edge_sim_sum: std::iter::empty::<f64>().sum(),
            old_edge_count: old_edges,
            new_edge_count: new_edges,
        };
        let mut pre = PreMatch::default();
        pre.pair_sims.insert((o, n), sim);
        pre.label_old.insert(o, 7);
        if let Some(size) = label_size {
            pre.cluster_size.insert(7, size);
        }
        (sub, pre)
    }

    fn assert_bitwise(a: GroupScore, b: GroupScore, w: SelectionWeights) {
        assert_eq!(a.avg_sim.to_bits(), b.avg_sim.to_bits(), "avg_sim");
        assert_eq!(a.e_sim.to_bits(), b.e_sim.to_bits(), "e_sim");
        assert_eq!(a.unique.to_bits(), b.unique.to_bits(), "unique");
        assert_eq!(w.g_sim(&a).to_bits(), w.g_sim(&b).to_bits(), "g_sim");
    }

    #[test]
    fn single_pair_closed_form_keeps_the_sign_of_zero() {
        let w = SelectionWeights::paper_best();
        let empty_sum: f64 = std::iter::empty::<f64>().sum();
        // denom == 0: Eq. 6 short-circuits to +0.0
        let (sub, pre) = one_vertex(0.8, Some(2), 0, 0);
        let closed = score_single_pair(0.8, 2, 0);
        assert_bitwise(closed, score(&sub, &pre, 0.5), w);
        assert_eq!(closed.e_sim.to_bits(), 0.0f64.to_bits());
        // denom > 0: 2 · (empty sum) / denom keeps the empty sum's sign
        let (sub, pre) = one_vertex(0.8, Some(2), 10, 3);
        let closed = score_single_pair(0.8, 2, 13);
        assert_bitwise(closed, score(&sub, &pre, 0.5), w);
        assert_eq!(closed.e_sim, 0.0);
        assert_eq!(
            closed.e_sim.is_sign_negative(),
            empty_sum.is_sign_negative()
        );
        // an unknown label has mass 0, so uniqueness is 0
        let (sub, pre) = one_vertex(0.8, None, 10, 3);
        let closed = score_single_pair(0.8, 0, 13);
        assert_bitwise(closed, score(&sub, &pre, 0.5), w);
        assert_eq!(closed.unique, 0.0);
    }

    proptest::proptest! {
        #[test]
        fn prop_single_pair_closed_form_is_bitwise_score_subgraph(
            sim in 0.0f64..1.0,
            label_size in proptest::option::of(0u32..64),
            old_nodes in 0usize..10,
            new_nodes in 0usize..10,
            alpha in 0.0f64..1.0,
            beta_share in 0.0f64..1.0,
        ) {
            // enriched graphs are complete: n members, n(n−1)/2 edges
            let (old_edges, new_edges) =
                (old_nodes * old_nodes.saturating_sub(1) / 2, new_nodes * new_nodes.saturating_sub(1) / 2);
            let (sub, pre) = one_vertex(sim, label_size, old_edges, new_edges);
            let w = SelectionWeights::new(alpha, (1.0 - alpha) * beta_share);
            assert_bitwise(
                score_single_pair(sim, label_size.unwrap_or(0), old_edges + new_edges),
                score(&sub, &pre, 0.5),
                w,
            );
        }
    }

    /// Missing labels behave like infinite-mass clusters (u64::MAX label
    /// has size 0 → label_mass 0 for that vertex) — guard the division.
    #[test]
    fn missing_labels_do_not_divide_by_zero() {
        let (sub, mut pre) = paper_example();
        pre.label_old.clear();
        pre.cluster_size.clear();
        let s = score(&sub, &pre, 0.5);
        assert_eq!(s.unique, 0.0);
    }
}
