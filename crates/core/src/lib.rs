//! Iterative temporal record and group linkage for census data.
//!
//! This crate implements the primary contribution of the EDBT 2017 paper
//! *"Temporal group linkage and evolution analysis for census data"*:
//! Algorithm 1 (the iterative linkage driver) and Algorithm 2 (greedy
//! selection of group links), on top of the substrates provided by
//! [`census_model`], [`textsim`] and [`hhgraph`].
//!
//! # Pipeline
//!
//! ```text
//!          ┌───────────────┐   per iteration, δ: δ_high → δ_low step Δ
//!  D_i ───►│  enrichment   │──►┌─────────────┐   ┌──────────────────┐
//!  D_i+1 ─►│  (hhgraph)    │   │ pre-matching│──►│ subgraph matching│
//!          └───────────────┘   │ + clustering│   │ + scoring (Eq.4) │
//!                              └─────────────┘   └────────┬─────────┘
//!                                                         ▼
//!                              ┌─────────────┐   ┌──────────────────┐
//!  M_R, M_G ◄──────────────────│ remaining-  │◄──│ greedy selection │
//!                              │ record match│   │ (Algorithm 2)    │
//!                              └─────────────┘   └──────────────────┘
//! ```
//!
//! # Example
//!
//! ```
//! use census_synth::{generate_series, SimConfig};
//! use linkage_core::{link, LinkageConfig};
//!
//! let series = generate_series(&SimConfig::small());
//! let result = link(&series.snapshots[0], &series.snapshots[1], &LinkageConfig::default());
//! assert!(!result.records.is_empty());
//! assert!(!result.groups.is_empty());
//! ```

#![warn(missing_docs)]

mod blocking;
mod cluster;
mod config;
mod group_sim;
mod idhash;
mod linker;
mod mem;
mod pairscore;
mod pipeline;
mod prematch;
mod profiles;
mod quality;
mod remainder;
mod selection;
mod simfunc;

pub use blocking::{candidate_pairs, dataset_candidate_pairs, BlockingStrategy};
pub use cluster::UnionFind;
pub use config::{LinkageConfig, Parallelism, RemainderConfig};
pub use group_sim::{score_subgraph, GroupScore, SelectionWeights};
pub use idhash::{IdHasher, IdMap};
pub use linker::Linker;
pub use mem::MemGovernor;
pub use pairscore::PairScoreCache;
pub use pipeline::{link, link_series, link_traced, IterationStats, LinkPhase, LinkageResult};
pub use prematch::{prematch_cached, prematch_with_profiles, PreMatch};
pub use profiles::ProfileCache;
pub use quality::{explain_miss, FunnelStage, MissReport, PairEvidence};
pub use remainder::{match_remaining, match_remaining_cached};
pub use selection::{select_group_links, RejectReason, ScoredSubgroup, SelectionOutcome};
pub use simfunc::{AttributeSpec, CompiledProfile, SimFunc};
