//! Household graphs: enrichment and common-subgraph matching.
//!
//! Implements §3.1 and §3.3 of the EDBT 2017 paper:
//!
//! * [`EnrichedGraph`] (§3.1) — the household graph after *group
//!   enrichment*: every unordered member pair carries an implicit,
//!   head-independent relationship type ([`census_model::RelType`]) derived
//!   from the census-form roles, plus the time-stable *age difference*
//!   property. Both are pure functions of the two members, so the graph
//!   stores only its members and [`EnrichedGraph::directed_edge`] derives
//!   each edge on demand.
//! * [`match_subgraph`] (§3.3) — the common subgraph of two enriched
//!   graphs: vertices are cross-census record pairs with equal
//!   pre-matching cluster labels; edges require the same relationship type
//!   on both sides and highly similar age differences. The result keeps
//!   each vertex's degree and the Eq. 6 sum of the edges' similarities,
//!   not the edges themselves, so its memory is linear in its vertices.
//!
//! ```
//! use census_model::{CensusDataset, Household, HouseholdId, PersonRecord, RecordId, RelType, Role, Sex};
//! use hhgraph::EnrichedGraph;
//!
//! # fn rec(id: u64, role: Role, age: u32, sex: Sex) -> PersonRecord {
//! #     let mut r = PersonRecord::empty(RecordId(id), HouseholdId(0), role);
//! #     r.age = Some(age);
//! #     r.sex = Some(sex);
//! #     r
//! # }
//! let records = vec![
//!     rec(0, Role::Head, 39, Sex::Male),
//!     rec(1, Role::Spouse, 38, Sex::Female),
//!     rec(2, Role::Daughter, 8, Sex::Female),
//! ];
//! let hh = Household::new(HouseholdId(0), vec![RecordId(0), RecordId(1), RecordId(2)]);
//! let ds = CensusDataset::new(1871, records, vec![hh]).unwrap();
//! let g = EnrichedGraph::build(&ds, HouseholdId(0)).unwrap();
//! assert_eq!(g.node_count(), 3);
//! assert_eq!(g.edge_count(), 3); // enrichment completes the pair graph
//! // the wife → daughter edge is derived, not read off the form
//! assert_eq!(g.directed_edge(1, 2), Some((RelType::ParentChild, Some(30))));
//! ```

#![warn(missing_docs)]

mod enrich;
mod household_type;
mod subgraph;

pub use enrich::{derive_pair_rel, EnrichedGraph};
pub use household_type::{household_type_counts, HouseholdType};
pub use subgraph::{
    match_subgraph, match_subgraph_with, MatchedSubgraph, SubgraphConfig, SubgraphScratch,
};
