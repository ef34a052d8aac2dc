//! A parallel data-flow engine for UDF-heavy text analytics — the
//! from-scratch Stratosphere analogue of the websift workspace.
//!
//! The paper executes its entire web-text analysis "using a small set of
//! data flows in a single, homogeneous, and declarative framework", i.e.
//! Stratosphere: Meteor scripts over packaged operators, logically
//! optimized, compiled to parallel primitives, and run on a cluster. This
//! crate rebuilds that stack:
//!
//! - [`record`] — the JSON-like record model whose annotation growth
//!   drives the network war story;
//! - [`operator`] — UDF operators with semantic (reads/writes) and
//!   resource (memory/startup/cost) annotations;
//! - [`packages`] — the BASE / IE / WA / DC operator packages, the
//!   trained [`packages::IeResources`], and the wire table that rebuilds
//!   any packaged operator inside a worker shard;
//! - [`logical`] / [`optimizer`] — plan DAGs and SOFA-style rewriting;
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
//! - [`resilience`] — fault-injection options, operator-granular
//!   checkpoints, and the machinery behind [`Executor::resume_from`];
//! - [`runner`] — the [`StageRunner`] seam between the executor's stage
//!   scheduling and where chunk work physically runs: [`LocalRunner`]'s
//!   thread scope, or the shard pool below; an uncombined Reduce is
//!   grouped in the parent and needs neither;
//! - [`transport`] / [`shuffle`] — the sharded physical runtime: worker
//!   shards (threads or real OS processes) exchanging length-prefixed
//!   record/partial-aggregate frames over pipes and unix sockets, with
//!   credit-window backpressure, while every deterministic surface stays
//!   byte-identical to in-process runs.

pub mod analyze;
pub mod cluster;
pub mod executor;
pub mod fieldflow;
pub mod logical;
pub mod meteor;
pub mod operator;
pub mod optimizer;
pub mod packages;
pub mod record;
pub mod resilience;
pub mod runner;
pub mod shuffle;
#[cfg(test)]
mod spans_differential;
pub mod transport;

pub use analyze::{analyze_plan, analyze_script, AnalyzeOptions};
pub use cluster::{admit, admit_sharded, ClusterSpec, NodeSpec, Placement, SchedulingError};
pub use executor::{
    ExecutionConfig, ExecutionError, Executor, FlowMetrics, FlowOutput, OpMetrics, PhysicalStats,
    ResilientRun, StoreSink,
};
pub use resilience::{FlowCheckpoint, FlowResilience};
pub use logical::{parse_store_sink, LogicalPlan, NodeId, NodeOp, PlanError, STORE_SINK_PREFIX};
pub use meteor::{compile, compile_traced, MeteorError, ScriptInfo};
pub use operator::{
    value_cmp, AggState, Aggregate, CostModel, CustomCombine, Kind, OpFunc, Operator, Package,
    WireForm,
};
pub use fieldflow::{canonical_stages, explain_plan, field_flow, EdgeState, FieldFlow};
pub use optimizer::{fused_stage, optimize, plan_stages, FusedStage, Rewrite, StageDecision};
pub use packages::{IeConfig, IeResources, OperatorRegistry};
pub use record::{span_annotation, FieldMap, Record, Span, Value};
pub use runner::{LocalRunner, StageRunner};
pub use shuffle::{KillSpec, ShardConfig, StageKernel, WorkerKind};
pub use transport::{CreditWindow, FrameChannel, TransportError};
