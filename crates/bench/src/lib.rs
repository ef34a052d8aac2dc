//! The websift experiment harness: one function per paper table or
//! figure in [`experiments`], each a step of the one binary, `run_all`
//! (`--only <id>` runs one step; `--quick` and `--check` are the CI
//! sizes and gates).

pub mod experiments;
mod profile;
pub mod report;

pub use report::{fmt_table, ExperimentResult, Verdict};
