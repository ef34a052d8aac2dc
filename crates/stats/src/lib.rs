//! Statistics substrate for the websift workspace.
//!
//! The SIGMOD'16 study this workspace reproduces leans on a number of
//! classical statistical tools: descriptive statistics over linguistic
//! measurements, the Mann-Whitney-Wilcoxon rank test for cross-corpus
//! significance claims, the Jensen-Shannon divergence for comparing entity
//! frequency distributions, precision/recall evaluation with k-fold
//! cross-validation for the focus classifier and boilerplate detector, and
//! heavy-tailed samplers for the synthetic corpus and web-graph generators.
//!
//! Everything here is implemented from scratch on top of `rand`; no external
//! statistics crates are used.

pub mod descriptive;
pub mod divergence;
pub mod eval;
pub mod mannwhitney;
pub mod sampling;

pub use descriptive::Summary;
pub use divergence::{jensen_shannon, kullback_leibler};
pub use eval::{kfold_indices, ConfusionMatrix, PrScores};
pub use mannwhitney::{mann_whitney_u, MannWhitneyResult};
pub use sampling::{Categorical, Zipf};
