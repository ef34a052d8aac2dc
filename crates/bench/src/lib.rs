//! Shared helpers for the websift benchmark and experiment harness.
//! The real content lives in `src/bin/*` (experiment binaries, one per
//! paper table/figure).

pub mod experiments;
pub mod report;

pub use report::{fmt_table, ExperimentResult};
