//! Evaluation harness: metrics, experiment runners and report rendering
//! for every table and figure of the paper's evaluation (§5).
//!
//! The experiments run against synthetic census series with exact ground
//! truth (see `census-synth`); absolute numbers therefore differ from the
//! paper's, but each experiment is constructed to reproduce the paper's
//! *shape* — which configuration wins, by roughly what factor, and where
//! the qualitative crossovers fall.
//!
//! | Paper artifact | Runner |
//! |---|---|
//! | Table 1 (dataset overview)            | [`experiments::table1`] |
//! | Table 3 (ω × δ_low sweep)             | [`experiments::table3`] |
//! | Table 4 ((α, β) sweep)                | [`experiments::table4`] |
//! | Table 5 (iterative vs non-iterative)  | [`experiments::table5`] |
//! | Table 6 (CL baseline, records)        | [`experiments::table6`] |
//! | Table 7 (GraphSim baseline, groups)   | [`experiments::table7`] |
//! | Fig. 6 (evolution pattern frequencies)| [`experiments::fig6`] |
//! | Table 8 (preserve chains, components) | [`experiments::table8`] |

#![warn(missing_docs)]

pub mod experiments;
mod metrics;
mod report;

pub use metrics::{evaluate_group_mapping, evaluate_record_mapping, Quality};
pub use report::{render_table, write_json};
