//! A parallel data-flow engine for UDF-heavy text analytics — the
//! from-scratch Stratosphere analogue of the websift workspace.
//!
//! The paper executes its entire web-text analysis "using a small set of
//! data flows in a single, homogeneous, and declarative framework", i.e.
//! Stratosphere: Meteor scripts over packaged operators, logically
//! optimized, compiled to parallel primitives, and run on a cluster. This
//! crate rebuilds that stack; a plan runs in the order it was built, with
//! no logical rewriter:
//!
//! - [`record`] — the JSON-like record model whose annotation growth
//!   drives the network war story;
//! - [`operator`] — UDF operators with semantic (reads/writes) and
//!   resource (memory/startup/cost) annotations;
//! - [`packages`] — the BASE / IE / WA / DC operator packages and the
//!   trained [`packages::IeResources`];
//! - [`logical`] / [`stages`] — plan DAGs and [`fused_stage`], the one
//!   stage decision the executor and the static explain prediction share;
//! - [`cluster`] — the simulated 28-node cluster: memory admission,
//!   library-conflict detection, network capacity model;
//! - [`executor`] — real multi-threaded execution with a simulated
//!   paper-scale clock (the engine behind Figs. 4 and 5);
//! - [`meteor`] — the declarative script front end;
//! - [`analyze`] — static plan verification (use-before-def, library
//!   conflicts, dead writes, admission pre-flight) run before execution;
//! - [`fieldflow`] — forward abstract interpretation over the plan:
//!   per-edge schema inference, selectivity-based cost envelopes, and the
//!   static fusion/combining "explain" report;
//! - [`resilience`] — fault-injection options and operator-granular
//!   checkpoints: every run returns its frames in [`FlowOutput::checkpoints`],
//!   a killed run is a prefix of them, and [`Executor::run`] with
//!   [`RunOptions::resume`] continues from any one;
//! - [`shuffle`] — the physical side of a stage: the per-chunk
//!   [`StageKernel`] with its streamed Reduce fold, the thread loop that
//!   runs it over a stage's chunks, and the uncombined Reduce grouping,
//!   all invisible on every deterministic surface.

pub mod analyze;
pub mod cluster;
pub mod executor;
pub mod fieldflow;
pub mod logical;
pub mod meteor;
pub mod operator;
pub mod packages;
pub mod record;
pub mod resilience;
pub mod shuffle;
pub mod stages;
#[cfg(test)]
mod spans_differential;

pub use analyze::{analyze_plan, analyze_script, AnalyzeOptions};
pub use cluster::{admit, ClusterSpec, NodeSpec, Placement, SchedulingError};
pub use executor::{
    store_drains, ExecutionConfig, ExecutionError, Executor, FlowMetrics, FlowOutput, OpMetrics,
    PhysicalStats, RunOptions, StoreSink,
};
pub use resilience::{FlowCheckpoint, FlowResilience};
pub use logical::{parse_store_sink, LogicalPlan, NodeId, NodeOp, PlanError, STORE_SINK_PREFIX};
pub use meteor::{compile, compile_traced, MeteorError, ScriptInfo};
pub use operator::{value_cmp, AggState, Aggregate, CostModel, Kind, OpFunc, Operator, Package};
pub use fieldflow::{explain_plan, field_flow, EdgeState, FieldFlow};
pub use packages::{IeConfig, IeResources, OperatorRegistry};
pub use record::{span_annotation, FieldMap, Record, Span, Value};
pub use shuffle::StageKernel;
pub use stages::{fused_stage, plan_stages, StageDecision};
