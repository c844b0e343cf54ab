//! Evolution analysis over linked census snapshots (§4 of the paper).
//!
//! Given the record and group mappings produced by the linkage pipeline,
//! this crate detects the paper's *evolution patterns* —
//! `preserve_R` / `add_R` / `remove_R` on records and
//! `preserve_G` / `add_G` / `remove_G` / `move` / `split` / `merge` on
//! households — and assembles them into an [`EvolutionGraph`] spanning
//! any number of successive censuses, on which connected components and
//! preserve-chains (paper Table 8) can be mined.
//!
//! # Pattern semantics
//!
//! Following the paper's running example (Fig. 5a), a group link with at
//! least two preserved members is a *strong* link and one with exactly
//! one preserved member is a [`GroupPatternKind::Move`]. A household with
//! two or more strong links to the next census is a *split* (and its
//! strong links are typed accordingly); symmetrically on the new side for
//! *merge*; a strong link that is the unique strong link of both
//! endpoints is a [`GroupPatternKind::Preserve`]. Unlinked households are
//! `add_G` / `remove_G`.

#![warn(missing_docs)]

mod chains;
mod detect;
mod graph;

pub use chains::{largest_component, preserve_chain_counts};
pub use detect::{detect_patterns, GroupPatternKind, PairPatterns, PatternCounts};
pub use graph::{EvolutionGraph, GroupEdge};
