//! Group enrichment (§3.1): complete the household graph with implicit
//! relationships and time-stable edge properties.

use census_model::{CensusDataset, HouseholdId, PersonRecord, RecordId, RelType, Role};

/// Derive the implicit, head-independent relationship between two members
/// from their census-form roles, in direction `a → b`.
///
/// The derivation encodes the standard genealogical inferences on the
/// Victorian household schedule: two children of the head are siblings,
/// the head's spouse is a parent of the head's children, a daughter-in-law
/// is the wife of a son, and so on. Pairs with no derivable family
/// relation (servants, lodgers, visitors, and genuinely ambiguous
/// configurations like child–grandchild across different sub-families)
/// fall back to the unified [`RelType::CoResident`].
#[must_use]
pub fn derive_pair_rel(a: Role, b: Role) -> RelType {
    use Role::*;
    // head edges come straight from the form: rel_to_head(r) is the
    // head → member direction
    if a == Head {
        return b.rel_to_head();
    }
    if b == Head {
        return a.rel_to_head().inverse();
    }
    let child = |r: Role| matches!(r, Son | Daughter);
    let parent_of_head = |r: Role| matches!(r, Father | Mother);
    let sibling_of_head = |r: Role| matches!(r, Brother | Sister);
    let in_law = |r: Role| matches!(r, SonInLaw | DaughterInLaw);
    let unrelated = |r: Role| matches!(r, Servant | Lodger | Visitor);

    if unrelated(a) || unrelated(b) {
        return RelType::CoResident;
    }
    match (a, b) {
        // the head's spouse is a parent of the head's children…
        (Spouse, x) if child(x) => RelType::ParentChild,
        (x, Spouse) if child(x) => RelType::ChildParent,
        // …and a grandparent of the head's grandchildren
        (Spouse, Grandchild) => RelType::GrandparentGrandchild,
        (Grandchild, Spouse) => RelType::GrandchildGrandparent,
        // two children of the head are siblings
        (x, y) if child(x) && child(y) => RelType::Sibling,
        // the head's siblings are siblings of each other
        (x, y) if sibling_of_head(x) && sibling_of_head(y) => RelType::Sibling,
        // the head's parents are grandparents of the head's children
        (x, y) if parent_of_head(x) && child(y) => RelType::GrandparentGrandchild,
        (x, y) if child(x) && parent_of_head(y) => RelType::GrandchildGrandparent,
        // the head's parents are parents of the head's siblings
        (x, y) if parent_of_head(x) && sibling_of_head(y) => RelType::ParentChild,
        (x, y) if sibling_of_head(x) && parent_of_head(y) => RelType::ChildParent,
        // the head's father and mother are married
        (Father, Mother) | (Mother, Father) => RelType::Spouse,
        // an in-law is married to a child of the head
        (x, y) if child(x) && in_law(y) => RelType::Spouse,
        (x, y) if in_law(x) && child(y) => RelType::Spouse,
        // children / in-laws of the head are the likely parents of the
        // head's grandchildren (heuristic: wrong for aunts/uncles, but
        // right for the dominant co-resident sub-family configuration)
        (x, Grandchild) if child(x) || in_law(x) => RelType::ParentChild,
        (Grandchild, y) if child(y) || in_law(y) => RelType::ChildParent,
        // grandchildren of the head are usually siblings or first cousins;
        // sibling is the dominant co-resident case
        (Grandchild, Grandchild) => RelType::Sibling,
        _ => RelType::CoResident,
    }
}

/// A household graph after group enrichment: the complete graph over the
/// household's members, each edge typed and annotated with the age
/// difference.
///
/// Only the members are stored. Every edge is a pure function of its two
/// endpoints' roles and ages, so [`Self::directed_edge`] derives it on
/// demand, and a household of `n` members costs `O(n)` memory rather
/// than one stored edge per member pair.
#[derive(Debug, Clone)]
pub struct EnrichedGraph {
    /// The household this graph describes.
    pub household: HouseholdId,
    nodes: Vec<RecordId>,
    roles: Vec<Role>,
    ages: Vec<Option<u32>>,
}

impl obs::MemoryFootprint for EnrichedGraph {
    fn footprint(&self) -> obs::Footprint {
        let bytes = obs::footprint::vec_capacity_bytes(&self.nodes)
            + obs::footprint::vec_capacity_bytes(&self.roles)
            + obs::footprint::vec_capacity_bytes(&self.ages)
            + std::mem::size_of::<Self>() as u64;
        obs::Footprint::new(bytes, self.nodes.len() as u64)
    }
}

impl EnrichedGraph {
    /// Build the enriched graph of one household, its members in record
    /// id order, so nothing derived from the graph depends on the order
    /// of the household's rows in the file.
    ///
    /// Returns `None` if the household id is unknown.
    #[must_use]
    pub fn build(ds: &CensusDataset, household: HouseholdId) -> Option<Self> {
        let mut members: Vec<&PersonRecord> = ds.members(household).collect();
        members.sort_unstable_by_key(|r| r.id);
        if members.is_empty() && ds.household(household).is_none() {
            return None;
        }
        Some(Self {
            household,
            nodes: members.iter().map(|r| r.id).collect(),
            roles: members.iter().map(|r| r.role).collect(),
            ages: members.iter().map(|r| r.age).collect(),
        })
    }

    /// Build enriched graphs for every household of a snapshot, in
    /// household order.
    #[must_use]
    pub fn build_all(ds: &CensusDataset) -> Vec<Self> {
        ds.households()
            .iter()
            .map(|h| Self::build(ds, h.id).expect("household exists"))
            .collect()
    }

    /// Member record ids, in ascending order.
    #[must_use]
    pub fn nodes(&self) -> &[RecordId] {
        &self.nodes
    }

    /// Census-form roles, parallel to [`Self::nodes`].
    #[must_use]
    pub fn roles(&self) -> &[Role] {
        &self.roles
    }

    /// Number of members.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of enriched edges = `n(n-1)/2`.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        let n = self.nodes.len();
        n * n.saturating_sub(1) / 2
    }

    /// Node index of a record id.
    #[must_use]
    pub fn index_of(&self, record: RecordId) -> Option<usize> {
        self.nodes.iter().position(|&n| n == record)
    }

    /// The edge between node indices `i` and `j` oriented `i → j`:
    /// relationship type and age difference `age(i) - age(j)` seen from
    /// `i`, the difference `None` if either age is missing. The
    /// difference is exact for any two `u32` ages.
    ///
    /// Returns `None` when `i == j` or either index is out of range.
    #[must_use]
    pub fn directed_edge(&self, i: usize, j: usize) -> Option<(RelType, Option<i64>)> {
        if i == j || i >= self.nodes.len() || j >= self.nodes.len() {
            return None;
        }
        let rel = derive_pair_rel(self.roles[i], self.roles[j]);
        let age_diff = match (self.ages[i], self.ages[j]) {
            (Some(x), Some(y)) => Some(i64::from(x) - i64::from(y)),
            _ => None,
        };
        Some((rel, age_diff))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use census_model::{Household, Sex};

    fn rec(id: u64, role: Role, age: Option<u32>, sex: Sex) -> PersonRecord {
        let mut r = PersonRecord::empty(RecordId(id), HouseholdId(0), role);
        r.age = age;
        r.sex = Some(sex);
        r.first_name = format!("p{id}");
        r.surname = "x".into();
        r
    }

    /// The paper's running-example household `g_1871^b`: head John Smith,
    /// wife Elizabeth, son Steve.
    fn smith_household() -> CensusDataset {
        let records = vec![
            rec(0, Role::Head, Some(58), Sex::Male),
            rec(1, Role::Spouse, Some(53), Sex::Female),
            rec(2, Role::Son, Some(25), Sex::Male),
        ];
        let hh = Household::new(HouseholdId(0), vec![RecordId(0), RecordId(1), RecordId(2)]);
        CensusDataset::new(1871, records, vec![hh]).unwrap()
    }

    #[test]
    fn enrichment_completes_the_graph() {
        let ds = smith_household();
        let g = EnrichedGraph::build(&ds, HouseholdId(0)).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3); // head-wife, head-son, wife-son (implicit)
    }

    #[test]
    fn paper_figure2_edges() {
        // Fig. 2: head→wife spouse, head→son parent-child with age diff 33,
        // wife→son (added) parent-child with age diff 28.
        let ds = smith_household();
        let g = EnrichedGraph::build(&ds, HouseholdId(0)).unwrap();
        assert_eq!(g.directed_edge(0, 1), Some((RelType::Spouse, Some(5))));
        assert_eq!(
            g.directed_edge(0, 2),
            Some((RelType::ParentChild, Some(33)))
        );
        assert_eq!(
            g.directed_edge(1, 2),
            Some((RelType::ParentChild, Some(28)))
        );
    }

    #[test]
    fn directed_edge_flips_consistently() {
        let ds = smith_household();
        let g = EnrichedGraph::build(&ds, HouseholdId(0)).unwrap();
        assert_eq!(
            g.directed_edge(2, 0),
            Some((RelType::ChildParent, Some(-33)))
        );
        assert_eq!(g.directed_edge(1, 1), None);
        assert_eq!(g.directed_edge(0, 9), None);
    }

    #[test]
    fn missing_age_gives_none_diff() {
        let records = vec![
            rec(0, Role::Head, Some(40), Sex::Male),
            rec(1, Role::Son, None, Sex::Male),
        ];
        let hh = Household::new(HouseholdId(0), vec![RecordId(0), RecordId(1)]);
        let ds = CensusDataset::new(1871, records, vec![hh]).unwrap();
        let g = EnrichedGraph::build(&ds, HouseholdId(0)).unwrap();
        assert_eq!(g.directed_edge(0, 1), Some((RelType::ParentChild, None)));
    }

    #[test]
    fn siblings_are_derived() {
        assert_eq!(derive_pair_rel(Role::Son, Role::Daughter), RelType::Sibling);
        assert_eq!(derive_pair_rel(Role::Daughter, Role::Son), RelType::Sibling);
        assert_eq!(
            derive_pair_rel(Role::Brother, Role::Sister),
            RelType::Sibling
        );
    }

    #[test]
    fn spouse_parent_inferences() {
        assert_eq!(
            derive_pair_rel(Role::Spouse, Role::Son),
            RelType::ParentChild
        );
        assert_eq!(
            derive_pair_rel(Role::Daughter, Role::Spouse),
            RelType::ChildParent
        );
        assert_eq!(
            derive_pair_rel(Role::Spouse, Role::Grandchild),
            RelType::GrandparentGrandchild
        );
    }

    #[test]
    fn in_law_marriages_are_derived() {
        assert_eq!(
            derive_pair_rel(Role::Son, Role::DaughterInLaw),
            RelType::Spouse
        );
        assert_eq!(
            derive_pair_rel(Role::SonInLaw, Role::Daughter),
            RelType::Spouse
        );
        assert_eq!(
            derive_pair_rel(Role::DaughterInLaw, Role::Grandchild),
            RelType::ParentChild
        );
    }

    #[test]
    fn grandparents_derived() {
        assert_eq!(
            derive_pair_rel(Role::Father, Role::Son),
            RelType::GrandparentGrandchild
        );
        assert_eq!(
            derive_pair_rel(Role::Son, Role::Mother),
            RelType::GrandchildGrandparent
        );
        assert_eq!(derive_pair_rel(Role::Father, Role::Mother), RelType::Spouse);
    }

    #[test]
    fn unrelated_are_coresident() {
        assert_eq!(
            derive_pair_rel(Role::Lodger, Role::Son),
            RelType::CoResident
        );
        assert_eq!(
            derive_pair_rel(Role::Servant, Role::Spouse),
            RelType::CoResident
        );
        assert_eq!(
            derive_pair_rel(Role::Visitor, Role::Visitor),
            RelType::CoResident
        );
    }

    #[test]
    fn head_edges_use_form_roles() {
        assert_eq!(
            derive_pair_rel(Role::Head, Role::Daughter),
            RelType::ParentChild
        );
        assert_eq!(
            derive_pair_rel(Role::Daughter, Role::Head),
            RelType::ChildParent
        );
        assert_eq!(
            derive_pair_rel(Role::Head, Role::Mother),
            RelType::ChildParent
        );
        assert_eq!(
            derive_pair_rel(Role::Mother, Role::Head),
            RelType::ParentChild
        );
    }

    #[test]
    fn derivation_is_direction_consistent() {
        // for every role pair, rel(a→b) must equal rel(b→a).inverse()
        for a in Role::ALL {
            for b in Role::ALL {
                if a == Role::Head && b == Role::Head {
                    continue; // two heads never co-occur
                }
                assert_eq!(
                    derive_pair_rel(a, b),
                    derive_pair_rel(b, a).inverse(),
                    "asymmetric derivation for {a} / {b}"
                );
            }
        }
    }

    #[test]
    fn derived_edges_match_roles_and_ages() {
        // head, spouse, two children (one without an age), a lodger: every
        // ordered pair must derive its edge from the two members alone
        let members = [
            (Role::Head, Some(50)),
            (Role::Spouse, Some(47)),
            (Role::Son, Some(20)),
            (Role::Daughter, None),
            (Role::Lodger, Some(63)),
        ];
        let records: Vec<PersonRecord> = members
            .iter()
            .zip(0..)
            .map(|(&(role, age), id)| rec(id, role, age, Sex::Male))
            .collect();
        let hh = Household::new(HouseholdId(0), (0..5).map(RecordId).collect());
        let ds = CensusDataset::new(1871, records, vec![hh]).unwrap();
        let g = EnrichedGraph::build(&ds, HouseholdId(0)).unwrap();
        for (i, &(role_i, age_i)) in members.iter().enumerate() {
            for (j, &(role_j, age_j)) in members.iter().enumerate() {
                if i == j {
                    assert_eq!(g.directed_edge(i, j), None);
                    continue;
                }
                let diff = match (age_i, age_j) {
                    (Some(a), Some(b)) => Some(i64::from(a) - i64::from(b)),
                    _ => None,
                };
                let (rel, d) = g.directed_edge(i, j).unwrap();
                assert_eq!((rel, d), (derive_pair_rel(role_i, role_j), diff), "{i}→{j}");
                let (rel_back, d_back) = g.directed_edge(j, i).unwrap();
                assert_eq!(rel_back, rel.inverse(), "{j}→{i}");
                assert_eq!(d_back, d.map(|d| -d), "{j}→{i}");
            }
        }
        assert_eq!(g.edge_count(), 5 * 4 / 2);
    }

    #[test]
    fn age_differences_are_exact_beyond_i32() {
        // 2^31 and u32::MAX do not fit an i32: the difference must neither
        // overflow nor wrap
        let records = vec![
            rec(0, Role::Head, Some(40), Sex::Male),
            rec(1, Role::Spouse, Some(1 << 31), Sex::Female),
            rec(2, Role::Son, Some(u32::MAX), Sex::Male),
        ];
        let hh = Household::new(HouseholdId(0), (0..3).map(RecordId).collect());
        let ds = CensusDataset::new(1871, records, vec![hh]).unwrap();
        let g = EnrichedGraph::build(&ds, HouseholdId(0)).unwrap();
        assert_eq!(
            g.directed_edge(0, 1),
            Some((RelType::Spouse, Some(40 - (1i64 << 31))))
        );
        assert_eq!(
            g.directed_edge(2, 0),
            Some((RelType::ChildParent, Some(i64::from(u32::MAX) - 40)))
        );
    }

    #[test]
    fn build_all_covers_every_household() {
        let ds = smith_household();
        let graphs = EnrichedGraph::build_all(&ds);
        assert_eq!(graphs.len(), 1);
        assert_eq!(graphs[0].household, HouseholdId(0));
    }

    #[test]
    fn unknown_household_is_none() {
        let ds = smith_household();
        assert!(EnrichedGraph::build(&ds, HouseholdId(9)).is_none());
    }
}
