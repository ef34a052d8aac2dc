//! The parallel executor: runs a logical plan for real on local threads
//! while accounting simulated cluster time.
//!
//! Execution is node-at-a-time over the (topologically ordered) plan DAG;
//! each operator is data-parallel across `DoP` partitions. Two clocks are
//! kept:
//!
//! - **wall time** — real elapsed time of this process (per operator in
//!   [`OpMetrics::wall_ms`]; end to end, what `benchmark/` measures);
//! - **simulated time** — paper-scale time from the operators' cost models
//!   plus the cluster's network model: per-worker startup (the 20-minute
//!   dictionary load that floors the entity flow's runtime in Fig. 5),
//!   per-partition work `max_p Σ cost(record)`, and shuffle/store traffic.
//!
//! The simulated clock is what reproduces the shapes of Figs. 4 and 5
//! without the authors' 28-node cluster. Its knobs (`cluster`,
//! `admission`, `byte_scale`, `work_scale`, `chunk_rounds`) are read only
//! by admission, the drive loop and the replay: the stage kernel and the
//! shard frames carry raw per-record costs. [`Executor::run`] is the one
//! way to start a flow, fresh or resumed.
//!
//! # Resilience
//!
//! With a [`FlowResilience`] configuration the executor additionally
//! survives the paper's infrastructure failures: panicked partitions are
//! re-launched (up to a retry budget) instead of aborting the flow,
//! simulated node losses reschedule remaining work onto the surviving
//! nodes (reporting the failed node id via
//! [`SchedulingError::NodeFailed`] only when nobody survives), source
//! reads retry through injected store faults, and completed plan nodes
//! can be checkpointed so a run with [`RunOptions::resume`] continues a
//! killed flow instead of restarting it. A run returns every frame it
//! sealed in [`FlowOutput::checkpoints`]; a run killed at node boundary
//! `k` would have left exactly the prefix with `next_node <= k`, so
//! "kill, then resume" is "resume from one of those frames". All failure
//! decisions are pure functions of the fault-plan seed, so a resumed flow
//! reproduces an uninterrupted run bit-for-bit (wall-clock fields aside).
//!
//! # Stages
//!
//! Each operator node starts a physical stage planned by
//! [`fused_stage`] — the same function the static
//! [`crate::optimizer::plan_stages`] prediction calls, so `explain`
//! cannot drift from what runs. Nothing at run time cuts a stage:
//! checkpoint frames whose boundaries land inside one are synthesized by
//! the replay, byte-identical to unfused execution.

use crate::analyze::{analyze_plan, AnalyzeOptions};
use crate::cluster::{admit_sharded, ClusterSpec, SchedulingError};
use crate::logical::{parse_store_sink, LogicalPlan, NodeOp, STORE_SINK_PREFIX};
use websift_analyze::{Diagnostic, Severity};
use crate::operator::{AggState, Kind, OpFunc, Operator};
use crate::optimizer::{fused_stage, StageDecision};
use crate::record::Record;
use crate::resilience::{FlowCheckpoint, FlowResilience};
use crate::runner::{group_by_key, host_parallelism, LocalRunner, StageRunner};
use crate::shuffle::{ChunkOut, ChunkStats, ShardConfig, ShardPool, ShardRunError, StageKernel};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Instant;
use websift_observe::{Counter, Gauge, Labels, Observer, RegistrySnapshot};
use websift_resilience::{CodecError, FaultKind, Reader, Snapshot, Writer};

#[cfg(test)]
use websift_resilience::FaultPlan;

/// Simulated seconds charged per partition re-launch (task setup on the
/// rescheduled worker).
const PARTITION_RETRY_SECS: f64 = 0.5;
/// Simulated seconds charged per retried source read.
const STORE_READ_RETRY_SECS: f64 = 1.0;
/// Simulated seconds to detect a dead node and rebalance its work.
const NODE_LOSS_RESCHEDULE_SECS: f64 = 5.0;

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct ExecutionConfig {
    /// Degree of parallelism (number of partitions / simulated workers).
    pub dop: usize,
    /// The simulated cluster.
    pub cluster: ClusterSpec,
    /// Run admission control before executing (the paper's scheduler did
    /// not — setting this to false reproduces its behaviour and risks the
    /// same failures).
    pub admission: bool,
    /// Multiplier applied to observed byte volumes before the network
    /// model (lets small local datasets exercise paper-scale traffic).
    pub byte_scale: f64,
    /// If set, intermediate data is shipped in this many rounds ("we
    /// splitted the crawled data into chunks ... and executed the
    /// different flows separately on these chunks") — each round must fit
    /// under the overload threshold.
    pub chunk_rounds: Option<usize>,
    /// Multiplier on per-record simulated work (startup excluded): lets a
    /// small local corpus stand in for the paper's 20 GB scalability
    /// sample. Does not affect real computation or results.
    pub work_scale: f64,
    /// Run the static plan analyzer before executing; error-severity
    /// diagnostics reject the plan as [`ExecutionError::PlanRejected`].
    /// Set to false to reproduce the paper's fly-blind behaviour (the
    /// warstory runtime path does, to reach the simulated scheduler's
    /// runtime failure).
    pub analyze: bool,
    /// Fuse maximal single-consumer Map/FlatMap/Filter chains into one
    /// physical pass: one thread scope, one chunk queue, records moved by
    /// value from stage to stage. Fusion is physical only — every
    /// constituent operator is still charged and observed separately, so
    /// simulated numbers, metrics, traces, and checkpoint bytes are
    /// identical with fusion on or off.
    pub fusion: bool,
    /// Pre-aggregate every Reduce inside its fused stage: each worker
    /// folds its chunk into per-key partial-aggregate states, ships the
    /// (much smaller) sorted-key partial maps across the shuffle
    /// boundary, and a final merge reproduces the serial grouping
    /// exactly. Combining is physical only — the analytic replay still
    /// charges the unfused Reduce cost model, so simulated numbers,
    /// metrics, traces, and checkpoint bytes are identical with
    /// combining on or off. Off, every Reduce groups its whole input in
    /// the parent: the reference path the differential suites compare
    /// against.
    pub combining: bool,
    /// Sharded physical execution: run fused stages on N worker shards
    /// (threads or real OS processes) over the frame protocol in
    /// [`crate::shuffle`] instead of local threads. Physical only: chunk
    /// boundaries, per-record costs, and merge order are identical, so
    /// every deterministic surface is bit-identical across shard counts
    /// and worker kinds (see the `shuffle` differential suite). A stage
    /// containing a closure-built operator (no wire form) stays on the
    /// local runner, counted in [`PhysicalStats::stages_pinned_local`].
    pub sharding: Option<ShardConfig>,
}

impl ExecutionConfig {
    /// Local config: given DoP, a permissive local cluster.
    pub fn local(dop: usize) -> ExecutionConfig {
        ExecutionConfig {
            dop,
            cluster: ClusterSpec::local(4, 64, 16),
            admission: false,
            byte_scale: 1.0,
            chunk_rounds: None,
            work_scale: 1.0,
            analyze: true,
            fusion: true,
            combining: true,
            sharding: None,
        }
    }
}

/// One operator node's row of [`FlowMetrics::per_op`], read out of the
/// observer's registry when the run ends: the counters
/// `flow.{records,bytes}_{in,out}{node,op}` and the gauge
/// `flow.op_work_secs{node,op}`. On a resumed run, the rows of nodes
/// before the frame come from the registry the frame restored.
#[derive(Debug, Clone)]
pub struct OpMetrics {
    pub name: String,
    pub records_in: u64,
    pub records_out: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
    /// Real elapsed milliseconds of this run's pass over the node —
    /// runtime-only diagnostics that never enter the registry, a
    /// checkpoint frame or [`FlowOutput::deterministic_digest`]; 0 for a
    /// node a resumed run did not execute itself.
    pub wall_ms: f64,
    /// Simulated per-partition work seconds, startup excluded.
    pub simulated_secs: f64,
}

/// Flow-level metrics: a view built once, when a run ends. During the
/// run the observer's registry holds the only copy of every total — the
/// gauges `flow.<field>`, whose f64s hold the u64 totals exactly below
/// 2^53 — and of every [`OpMetrics`] row; a checkpoint frame carries
/// them in its registry snapshot. `nodes_lost` is executor state (the
/// scheduler reads it), moved here when the run ends.
#[derive(Debug, Clone, Default)]
pub struct FlowMetrics {
    /// Real elapsed milliseconds of this run — runtime-only, like
    /// [`OpMetrics::wall_ms`].
    pub wall_ms: f64,
    /// Critical-path simulated seconds (operators + network).
    pub simulated_secs: f64,
    /// Bytes crossing the network: shuffles plus replicated sink writes.
    pub network_bytes: u64,
    /// Peak intermediate data volume (largest single edge).
    pub peak_intermediate_bytes: u64,
    /// One row per executed operator node, in node-id order.
    pub per_op: Vec<OpMetrics>,
    /// Panicked partitions that were re-launched.
    pub partition_retries: u64,
    /// Source reads retried through injected store faults.
    pub store_read_retries: u64,
    /// Simulated nodes lost mid-flow (work rescheduled onto survivors),
    /// in loss order.
    pub nodes_lost: Vec<usize>,
    /// Checkpoints successfully taken.
    pub checkpoints_taken: u64,
    /// Checkpoint writes lost to injected store-write faults.
    pub store_write_failures: u64,
}

/// Execution failures.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecutionError {
    Scheduling(SchedulingError),
    /// The plan is structurally invalid ([`LogicalPlan::validate`]);
    /// nothing was scheduled.
    InvalidPlan(String),
    /// The static analyzer found error-severity diagnostics; the plan was
    /// rejected before any operator ran.
    PlanRejected { diagnostics: Vec<Diagnostic> },
    /// The network model declared timeout-induced failure.
    NetworkOverload {
        intermediate_bytes: u64,
        capacity_bytes: u64,
    },
    MissingSource(String),
    /// A partition of `operator` panicked `attempts` times, exhausting
    /// its retry budget.
    OperatorPanicked {
        operator: String,
        partition: usize,
        attempts: u32,
    },
    /// A source read kept failing through every retry.
    StoreReadFailed { source: String },
    /// A checkpoint could not be decoded (corruption, version mismatch,
    /// or a plan that does not match the one it was taken from).
    BadCheckpoint(CodecError),
    /// A `store:` sink named a store other than [`RunOptions::store`] (or
    /// the name failed to parse as `store:<store>/<dataset>`). Extraction
    /// output must never silently fall on the floor, so the whole run is
    /// rejected before any operator runs or the store sees an append.
    UnknownStore { sink: String, store: String },
    /// A worker shard died mid-run (crash or injected kill) with
    /// `respawn_lost` off. Carries every resilience checkpoint taken
    /// before the loss so the caller can [`RunOptions::resume`] from the
    /// latest frame — at any shard count, admitted again under it — and
    /// reproduce the uninterrupted run bit for bit.
    ShardLost {
        shard: usize,
        operator: String,
        checkpoints: Vec<FlowCheckpoint>,
    },
    /// A shard channel desynchronized (unexpected frame kind, corrupt
    /// payload, or a spawn failure).
    ShardProtocol { shard: usize, detail: String },
}

impl std::fmt::Display for ExecutionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecutionError::Scheduling(e) => write!(f, "scheduling failed: {e}"),
            ExecutionError::InvalidPlan(why) => write!(f, "invalid plan: {why}"),
            ExecutionError::PlanRejected { diagnostics } => {
                write!(f, "plan rejected by static analysis:")?;
                for d in diagnostics {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
            ExecutionError::NetworkOverload {
                intermediate_bytes,
                capacity_bytes,
            } => write!(
                f,
                "network overload: {intermediate_bytes} bytes in flight exceeds {capacity_bytes}"
            ),
            ExecutionError::MissingSource(s) => write!(f, "no input bound for source '{s}'"),
            ExecutionError::OperatorPanicked {
                operator,
                partition,
                attempts,
            } => write!(
                f,
                "operator '{operator}' partition {partition} panicked {attempts} times, retries exhausted"
            ),
            ExecutionError::StoreReadFailed { source } => {
                write!(f, "store read of source '{source}' failed through every retry")
            }
            ExecutionError::BadCheckpoint(e) => write!(f, "bad flow checkpoint: {e}"),
            ExecutionError::UnknownStore { sink, store } => write!(
                f,
                "sink '{sink}' targets store '{store}', which this run cannot reach"
            ),
            ExecutionError::ShardLost { shard, operator, checkpoints } => write!(
                f,
                "worker shard {shard} lost during '{operator}'; {} checkpoint(s) survive for resume",
                checkpoints.len()
            ),
            ExecutionError::ShardProtocol { shard, detail } => {
                write!(f, "shard {shard} channel desynchronized: {detail}")
            }
        }
    }
}

impl std::error::Error for ExecutionError {}

/// Physical-side observations of a run — facts about how the work was
/// really executed (as opposed to what the simulated cluster charged).
/// Deliberately excluded from checkpoints, metric codecs, and
/// [`FlowOutput::deterministic_digest`]: they vary with `combining` and
/// worker counts by design, the way `wall_ms` varies with hardware.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhysicalStats {
    /// Bytes actually serialized across Reduce shuffle boundaries: every
    /// input record for an uncombined Reduce, only the sorted-key
    /// partial-aggregate maps for a combined one. The combined-vs-
    /// uncombined reduction here is the combiner's bandwidth win.
    pub shuffle_bytes: u64,
    /// Worker shards the run actually spawned (0 for in-process runs).
    pub shards_used: u64,
    /// Frames carried over shard channels, both directions.
    pub shard_frames: u64,
    /// Frame payload bytes carried over shard channels.
    pub shard_wire_bytes: u64,
    /// Worker shards respawned after a loss (`respawn_lost`).
    pub shard_respawns: u64,
    /// Stages kept off the worker shards although sharding was
    /// configured, because a constituent has no wire form — exactly what
    /// WS017 announces. An uncombined Reduce is grouped in the parent
    /// whatever its wire form and is not a pin: it counts here only when
    /// WS017 flags it, a closure-built reduce.
    pub stages_pinned_local: u64,
}

/// A destination for `store:`-prefixed sinks: anything that can accept a
/// pipeline's output records as a named dataset. Implemented by the
/// serving layer's extraction store; kept as a trait here so
/// `websift-flow` stays ignorant of its layout.
///
/// A run drains matching sinks into its [`RunOptions::store`] in sorted
/// name order, and only once it has succeeded, so an implementation that
/// ingests deterministically sees a deterministic call sequence.
pub trait StoreSink {
    /// The store name this sink answers to (the `<store>` part of a
    /// `store:<store>/<dataset>` sink name).
    fn store_name(&self) -> &str;
    /// Accepts all records routed to `dataset`.
    fn append(&mut self, dataset: &str, records: Vec<Record>);
}

/// The result of a successful run.
#[derive(Debug)]
pub struct FlowOutput {
    pub sinks: HashMap<String, Vec<Record>>,
    pub metrics: FlowMetrics,
    /// Physical-only facts (shuffle bytes); never part of determinism
    /// comparisons.
    pub physical: PhysicalStats,
    /// The fusion/combining decisions this run actually made, in
    /// execution order — ground truth for the static
    /// [`crate::optimizer::plan_stages`] prediction. A resumed run only
    /// records the stages it executed itself. Physical-only, like
    /// [`PhysicalStats`]: excluded from [`Self::deterministic_digest`].
    pub stages: Vec<StageDecision>,
    /// Every checkpoint the run sealed, in boundary order (empty unless
    /// [`FlowResilience::checkpoint_every_nodes`] is set). A run killed at
    /// node boundary `k` would have left exactly the frames with
    /// `next_node <= k`.
    pub checkpoints: Vec<FlowCheckpoint>,
}

impl FlowOutput {
    /// Digest over everything deterministic in the run — sink contents
    /// and the simulated-time accounting, excluding wall-clock fields —
    /// for asserting the kill/resume invariant.
    pub fn deterministic_digest(&self) -> u64 {
        let mut w = Writer::new();
        self.sinks.encode(&mut w);
        w.f64(self.metrics.simulated_secs);
        w.u64(self.metrics.network_bytes);
        w.u64(self.metrics.peak_intermediate_bytes);
        w.u64(self.metrics.partition_retries);
        w.u64(self.metrics.store_read_retries);
        self.metrics.nodes_lost.encode(&mut w);
        for m in &self.metrics.per_op {
            w.str(&m.name);
            w.u64(m.records_in);
            w.u64(m.records_out);
            w.u64(m.bytes_in);
            w.u64(m.bytes_out);
            w.f64(m.simulated_secs);
        }
        websift_resilience::codec::digest(&w.into_bytes())
    }
}

/// Mid-plan executor state — everything a checkpoint must capture besides
/// the registry, which the frame carries as a snapshot after it.
struct ExecState {
    next_node: usize,
    outputs: Vec<Option<Vec<Record>>>,
    consumers_left: Vec<usize>,
    sinks: HashMap<String, Vec<Record>>,
    startup_charged: HashSet<String>,
    /// Simulated cluster nodes lost so far, in loss order; every other
    /// node of `ExecutionConfig::cluster` is alive.
    nodes_lost: Vec<usize>,
}

impl ExecState {
    fn fresh(plan: &LogicalPlan) -> ExecState {
        ExecState {
            next_node: 0,
            outputs: vec![None; plan.len()],
            consumers_left: (0..plan.len()).map(|id| plan.children(id).len()).collect(),
            sinks: HashMap::new(),
            startup_charged: HashSet::new(),
            nodes_lost: Vec::new(),
        }
    }
}

impl Snapshot for ExecState {
    fn encode(&self, w: &mut Writer) {
        w.usize(self.next_node);
        self.outputs.encode(w);
        self.consumers_left.encode(w);
        self.sinks.encode(w);
        self.startup_charged.encode(w);
        self.nodes_lost.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<ExecState, CodecError> {
        Ok(ExecState {
            next_node: r.usize()?,
            outputs: Snapshot::decode(r)?,
            consumers_left: Snapshot::decode(r)?,
            sinks: Snapshot::decode(r)?,
            startup_charged: Snapshot::decode(r)?,
            nodes_lost: Snapshot::decode(r)?,
        })
    }
}

/// Everything about one [`Executor::run`] besides the plan and inputs.
/// The default is a fresh, fault-free run with a run-local observer.
#[derive(Default)]
pub struct RunOptions<'a> {
    pub resilience: FlowResilience,
    /// Receives per-node spans, the flow totals as gauges, per-operator
    /// counters, gauges and histograms, and startup-vs-work cost, all on
    /// the simulated clock; `None` observes into a run-local [`Observer`].
    /// An observer holds one run and its resumes: a fresh run zeroes the
    /// totals, but per-operator counters keep adding up across runs that
    /// share an observer, and so do the [`FlowMetrics::per_op`] rows
    /// read out of them.
    pub observer: Option<&'a Observer>,
    /// Continue from this frame. Plan, inputs and resilience must match
    /// the original run's; inputs are read only for sources the frame had
    /// not read yet. Its registry snapshot is restored into the observer.
    pub resume: Option<&'a FlowCheckpoint>,
    /// Drain every `store:` sink into this store once the run succeeds,
    /// removing it from [`FlowOutput::sinks`].
    pub store: Option<&'a mut dyn StoreSink>,
}

/// The executor.
pub struct Executor {
    config: ExecutionConfig,
}

/// Replication factor of sink writes (paper: HDFS with replication 3).
const SINK_REPLICATION: u64 = 3;

impl Executor {
    pub fn new(config: ExecutionConfig) -> Executor {
        assert!(config.dop > 0, "DoP must be positive");
        Executor { config }
    }

    /// Runs `plan` against named source datasets. Every run, fresh or
    /// resumed, takes one path: validate the plan, check every store sink
    /// against `opts.store`, analyze and admit, restore a resumed frame,
    /// drive, drain the store sinks. A run that fails appends nothing.
    pub fn run(
        &self,
        plan: &LogicalPlan,
        inputs: HashMap<String, Vec<Record>>,
        opts: RunOptions<'_>,
    ) -> Result<FlowOutput, ExecutionError> {
        let RunOptions { resilience, observer, resume, store } = opts;
        plan.validate().map_err(|e| ExecutionError::InvalidPlan(e.to_string()))?;
        let drains = match &store {
            Some(store) => store_drains(plan, store.store_name())?,
            None => Vec::new(),
        };
        self.admit(plan)?;
        let local;
        let obs = match observer {
            Some(obs) => obs,
            None => {
                local = Observer::new();
                &local
            }
        };
        let state = match resume {
            Some(checkpoint) => restore(plan, checkpoint, self.config.cluster.nodes.len(), obs)?,
            None => {
                // the clock and the totals start at zero, whatever the
                // observer saw before; a resume continues from the frame's
                for name in TOTALS {
                    obs.registry().gauge(name, &Labels::empty()).set(0.0);
                }
                ExecState::fresh(plan)
            }
        };
        let mut out = self.drive(RunCtx::new(plan, &resilience, obs), inputs, state)?;
        if let Some(store) = store {
            for (sink, dataset) in drains {
                store.append(&dataset, out.sinks.remove(&sink).unwrap_or_default());
            }
        }
        Ok(out)
    }

    /// The static analyzer, then the scheduler's admission check — each
    /// when configured.
    fn admit(&self, plan: &LogicalPlan) -> Result<(), ExecutionError> {
        let shards = self.config.sharding.as_ref().map(|s| s.shards);
        if self.config.analyze {
            let mut opts = AnalyzeOptions::default();
            if self.config.admission {
                opts = opts.with_admission(self.config.cluster.clone(), self.config.dop);
                if let Some(n) = shards {
                    opts = opts.with_shards(n);
                }
            }
            let errors: Vec<Diagnostic> = analyze_plan(plan, &opts)
                .into_iter()
                .filter(|d| d.severity == Severity::Error)
                .collect();
            if !errors.is_empty() {
                return Err(ExecutionError::PlanRejected { diagnostics: errors });
            }
        }
        if self.config.admission {
            admit_sharded(plan, self.config.dop, &self.config.cluster, shards)
                .map_err(ExecutionError::Scheduling)?;
        }
        Ok(())
    }

    /// The run loop behind every [`Executor::run`], fresh or resumed.
    fn drive(
        &self,
        mut run: RunCtx<'_>,
        mut inputs: HashMap<String, Vec<Record>>,
        mut state: ExecState,
    ) -> Result<FlowOutput, ExecutionError> {
        // lint:allow(wall_clock): wall_ms is runtime-only diagnostics, never checkpointed
        let started = Instant::now();
        let plan = run.plan;
        while state.next_node < plan.len() {
            let node = &plan.nodes()[state.next_node];

            // An operator with no consumer left (a dead branch: the plan
            // accepts operators nothing reads) is skipped.
            let is_sink = matches!(node.op, NodeOp::Sink(_));
            if !is_sink && state.consumers_left[node.id] == 0 {
                state.next_node += 1;
                continue;
            }
            let input: Vec<Record> = match node.input {
                None => Vec::new(),
                Some(parent) => {
                    // only a forged frame can leave a parent without a
                    // consumer count or a live output here
                    let left = state.consumers_left[parent].checked_sub(1).ok_or_else(mismatch)?;
                    state.consumers_left[parent] = left;
                    let output = match left {
                        0 => state.outputs[parent].take(),
                        _ => state.outputs[parent].clone(),
                    };
                    output.ok_or_else(mismatch)?
                }
            };

            match &node.op {
                NodeOp::Source(name) => self.run_source(&run, &mut state, &mut inputs, node.id, name)?,
                NodeOp::Sink(name) => self.run_sink(&run, &mut state, node.id, name, input),
                NodeOp::Op(_) => {
                    let stage =
                        fused_stage(plan, node.id, self.config.fusion, self.config.combining);
                    run.stages.push(stage);
                    self.run_stage(&mut run, &mut state, &stage, input)?;
                    state.next_node += stage.len - 1;
                }
            }

            state.next_node += 1;
            let at = state.next_node;
            if run.checkpoint_due(at) && at < plan.len() {
                seal_checkpoint(&mut run, &mut state, at, |_| {});
            }
        }

        // Network overload check on the peak edge volume.
        let peak = run.total(Total::PeakIntermediateBytes) as u64;
        let per_round = match self.config.chunk_rounds {
            Some(rounds) if rounds > 0 => peak / rounds as u64,
            _ => peak,
        };
        if self.config.cluster.overloaded_by(per_round) {
            return Err(ExecutionError::NetworkOverload {
                intermediate_bytes: per_round,
                capacity_bytes: self.config.cluster.network_overload_bytes,
            });
        }
        // chunked execution pays a per-round latency overhead
        if let Some(rounds) = self.config.chunk_rounds {
            run.charge(rounds as f64 * 2.0);
        }

        let wall_ms = started.elapsed().as_secs_f64() * 1000.0;
        let metrics = run.metrics_view(state.nodes_lost, wall_ms);
        if let Some(pool) = &run.pool {
            pool.report(&mut run.physical);
        }
        Ok(FlowOutput {
            sinks: state.sinks,
            metrics,
            physical: run.physical,
            stages: run.stages,
            checkpoints: run.checkpoints,
        })
    }

    /// Binds a source node to its input dataset. Injected store-read
    /// faults retry the read; each attempt's decision is pure in
    /// (source, attempt).
    fn run_source(
        &self,
        run: &RunCtx<'_>,
        state: &mut ExecState,
        inputs: &mut HashMap<String, Vec<Record>>,
        node_id: usize,
        name: &str,
    ) -> Result<(), ExecutionError> {
        let node_t0 = run.now();
        if let Some(fault_plan) = &run.res.faults {
            let mut attempt: u32 = 0;
            while fault_plan.injects_at(FaultKind::StoreRead, name, attempt as u64) {
                run.add(Total::StoreReadRetries, 1.0);
                run.charge(STORE_READ_RETRY_SECS);
                attempt += 1;
                if attempt > run.res.partition_retries {
                    return Err(ExecutionError::StoreReadFailed { source: name.to_string() });
                }
            }
        }
        let data = inputs
            .remove(name)
            .ok_or_else(|| ExecutionError::MissingSource(name.to_string()))?;
        let labels = Labels::new(&[("source", name)]);
        run.obs.registry().counter("flow.source_records", &labels).add(data.len() as u64);
        run.obs.tracer().span("flow.source", node_t0, run.now() - node_t0, labels);
        state.outputs[node_id] = Some(data);
        Ok(())
    }

    /// Delivers `input` to a sink, charging the replicated write.
    fn run_sink(
        &self,
        run: &RunCtx<'_>,
        state: &mut ExecState,
        node_id: usize,
        name: &str,
        input: Vec<Record>,
    ) {
        let node_t0 = run.now();
        let bytes: u64 = input.iter().map(Record::approx_bytes).sum();
        let written = (bytes as f64 * self.config.byte_scale) as u64 * SINK_REPLICATION;
        run.add(Total::NetworkBytes, written as f64);
        run.charge(self.config.cluster.network_secs(written));
        let labels = Labels::new(&[("sink", name)]);
        let reg = run.obs.registry();
        reg.counter("flow.sink_records", &labels).add(input.len() as u64);
        reg.counter("flow.sink_bytes", &labels).add(written);
        let secs = run.now() - node_t0;
        let sink_secs = reg.gauge("flow.sink_secs", &labels);
        sink_secs.set(sink_secs.value() + secs);
        run.obs.tracer().span("flow.sink", node_t0, secs, labels);
        state.sinks.entry(name.to_string()).or_default().extend(input);
        state.outputs[node_id] = Some(Vec::new());
    }

    /// Executes the `stage.len` operator nodes from `stage.first` as one
    /// physical pass, then replays the cost model per constituent in
    /// node-id order: schedule → execute (→ merge) → replay → publish.
    /// With fusion off, or at a node that does not fuse, the stage has
    /// length 1 and this is plain node-at-a-time execution through the
    /// same code path.
    ///
    /// The physical dataflow and the simulated accounting are
    /// deliberately decoupled. Records move **by value** stage to stage
    /// inside a [`StageRunner`] (no per-record clones), while each
    /// stage tallies per-record simulated costs (in record order) and
    /// incremental byte counts. When the stage ends in a combined
    /// Reduce, each chunk is folded into per-key partial-aggregate
    /// states and only the sorted-key partial maps cross the shuffle;
    /// the merge reproduces the serial grouping exactly (per-key record
    /// order is chunk-concatenation order, which is input order). The
    /// replay then walks the constituents in order and reproduces
    /// exactly what unfused node-at-a-time execution would have charged
    /// and observed: node losses, injected partition retries, startup,
    /// per-partition work (re-partitioned with each constituent's own
    /// `dop_eff` and cardinality, summed left-to-right per partition so
    /// the f64 accumulation order is identical), reduce shuffles,
    /// registry series (start-up and work seconds among them), tracer
    /// spans — and checkpoint frames whose boundaries land inside the
    /// stage, synthesized byte-identically from tapped intermediate
    /// streams. Stage shape
    /// and runner therefore never change a deterministic number.
    fn run_stage(
        &self,
        run: &mut RunCtx<'_>,
        state: &mut ExecState,
        stage: &StageDecision,
        input: Vec<Record>,
    ) -> Result<(), ExecutionError> {
        let (plan, first, len) = (run.plan, stage.first, stage.len);
        let ops: Vec<&Operator> = (first..first + len)
            .map(|id| match &plan.nodes()[id].op {
                NodeOp::Op(op) => op,
                _ => unreachable!("chain nodes are operator nodes"),
            })
            .collect();
        // Interior boundaries the physical pass must tap (cloning the
        // record stream crossing them, in unfused record order):
        //
        // - checkpoint boundaries `first + s + 1` the cadence hits
        //   strictly inside this stage, so the replay can synthesize the
        //   frame an unfused run would have written there;
        // - tee boundaries — interior nodes with consumers outside the
        //   chain (fan-out), whose tap becomes the node's live output so
        //   those consumers read exactly what unfused execution would
        //   have handed them.
        let tapped: Vec<usize> = (0..len.saturating_sub(1))
            .filter(|&s| run.checkpoint_due(first + s + 1) || plan.children(first + s).len() > 1)
            .collect();
        let st = StageCtx {
            first,
            ops,
            combined: stage.combined_reduce,
            tapped,
            scheds: self.schedule(run.res, &state.nodes_lost, first, len),
        };
        let mut seen = self.execute(run, &st, input)?;
        self.replay(run, state, &st, &seen)?;

        // Interior chain edges were consumed inside the pass: after an
        // unfused run each interior node's single consumer (node id + 1)
        // would have taken or cloned its output. Nodes whose only
        // consumer was the chain end with `None` and zero consumers;
        // tee'd nodes keep their remaining out-of-chain consumers and
        // publish the tapped stream as their live output — exactly the
        // state unfused execution leaves behind.
        for id in first..first + len - 1 {
            let extra = plan.children(id).len().saturating_sub(1);
            state.consumers_left[id] = extra;
            if extra > 0 {
                state.outputs[id] = Some(seen.taps.remove(&(id - first)).unwrap_or_default());
            }
        }
        state.outputs[first + len - 1] = Some(seen.output);
        Ok(())
    }

    /// Phase 1 — schedule: node losses and effective DoP per constituent
    /// are pure functions of the fault plan and node ids, so they are
    /// decided up front (on a scratch liveness vector built from the
    /// losses so far; the replay records them in order). The schedule
    /// ends at a constituent that loses every node: later ones never run
    /// physically either.
    fn schedule(
        &self,
        res: &FlowResilience,
        nodes_lost: &[usize],
        first: usize,
        len: usize,
    ) -> Vec<StageSched> {
        let mut alive = vec![true; self.config.cluster.nodes.len()];
        for &j in nodes_lost {
            alive[j] = false;
        }
        let mut scheds: Vec<StageSched> = Vec::with_capacity(len);
        for node_id in first..first + len {
            let mut losses = Vec::new();
            if let Some(fault_plan) = &res.faults {
                for (j, a) in alive.iter_mut().enumerate() {
                    if *a
                        && fault_plan.injects_at(
                            FaultKind::NodeLoss,
                            &format!("node{j}"),
                            node_id as u64,
                        )
                    {
                        *a = false;
                        losses.push(j);
                    }
                }
            }
            let n_alive = alive.iter().filter(|&&a| a).count();
            let dop_eff = (self.config.dop * n_alive / alive.len().max(1)).max(1);
            scheds.push(StageSched { losses, all_nodes_dead: n_alive == 0, dop_eff });
            if n_alive == 0 {
                break;
            }
        }
        scheds
    }

    /// The one place a stage's physical placement is decided, from what
    /// the executor can observe: the sharded runner takes a stage when
    /// sharding is configured and every operator it would ship has a
    /// wire form; everything else runs on local threads. A closure-built
    /// operator under sharding pins its stage locally — counted, never
    /// silent. Chunk boundaries and merge order are the
    /// same either way, so the choice is invisible to every
    /// deterministic surface.
    fn pick_runner<'r>(
        &self,
        pool: &'r mut Option<ShardPool>,
        local: &'r mut LocalRunner,
        shipped: &[&Operator],
        physical: &mut PhysicalStats,
    ) -> &'r mut dyn StageRunner {
        let Some(cfg) = &self.config.sharding else { return local };
        if shipped.iter().all(|op| op.wire().is_some()) {
            pool.get_or_insert_with(|| ShardPool::new(cfg.clone()))
        } else {
            physical.stages_pinned_local += 1;
            local
        }
    }

    /// Phase 2 — execute. A lone uncombined Reduce is grouped right
    /// here, before a runner is picked: the parent holds its whole input
    /// and every group it produces. Anything else is partitioned into
    /// contiguous chunks (the boundaries the unfused first constituent
    /// would use) and handed to the stage's runner as one fused pass,
    /// records moved by value throughout.
    fn execute(
        &self,
        run: &mut RunCtx<'_>,
        st: &StageCtx<'_>,
        input: Vec<Record>,
    ) -> Result<StageObs, ExecutionError> {
        let (len, physical_stages) = (st.ops.len(), st.physical_stages());
        let mut seen = StageObs {
            stats: (0..physical_stages).map(|_| ChunkStats::default()).collect(),
            ..StageObs::default()
        };
        if physical_stages == 0 {
            return Ok(seen);
        }
        let dop_eff = st.scheds[0].dop_eff;
        if let (OpFunc::Reduce { aggregate, .. }, false) = (st.ops[0].func(), st.combined) {
            // Uncombined hash shuffle: group the full stream, then
            // aggregate the groups in key order.
            let reduce = st.ops[0];
            if self.config.sharding.is_some() && reduce.wire().is_none() {
                run.physical.stages_pinned_local += 1;
            }
            // lint:allow(wall_clock): per-op wall_ms is runtime-only diagnostics
            let started = Instant::now();
            seen.stats[0].records_in = input.len() as u64;
            seen.stats[0].bytes_in = input.iter().map(Record::approx_bytes).sum();
            let mut work_secs = 0.0f64;
            for (k, rs) in group_by_key(reduce, input, &mut run.physical) {
                for r in &rs {
                    work_secs += self.config.work_scale
                        * reduce.cost.record_cost_secs(r.text().map(str::len).unwrap_or(64));
                }
                seen.output.extend(aggregate.apply_group(&k, rs));
            }
            seen.reduce_work = work_secs / dop_eff as f64;
            seen.final_bytes_out = seen.output.iter().map(Record::approx_bytes).sum();
            seen.stats[0].wall_ms = started.elapsed().as_secs_f64() * 1000.0;
            return Ok(seen);
        }
        let chunk_size = input.len().div_ceil(dop_eff).max(1);
        let mut chunks: Vec<Vec<Record>> = Vec::with_capacity(input.len() / chunk_size + 1);
        let mut rest = input;
        while rest.len() > chunk_size {
            let tail = rest.split_off(chunk_size);
            chunks.push(rest);
            rest = tail;
        }
        if !rest.is_empty() {
            chunks.push(rest);
        }
        let mut local = LocalRunner::new(dop_eff.min(host_parallelism()));
        let runner = self.pick_runner(
            &mut run.pool,
            &mut local,
            &st.ops[..physical_stages],
            &mut run.physical,
        );
        // Pipeline constituents run per chunk; a combined Reduce is
        // folded after them (only when every constituent survives the
        // schedule — a dead constituent means the replay errors out
        // before the reduce would have run).
        let chain = if st.combined { len - 1 } else { len };
        let fold = (st.combined && physical_stages == len).then(|| st.ops[len - 1]);
        let kernel = StageKernel {
            ops: &st.ops[..physical_stages.min(chain)],
            fold,
            tapped: &st.tapped,
        };
        let chunk_outs = runner.run_chunks(&kernel, chunks).map_err(|e| st.error(e, run))?;
        merge(st, fold, chunk_outs, self.config.work_scale, &mut run.physical, &mut seen);
        Ok(seen)
    }

    /// Phase 3 — replay: charge and observe every constituent in node
    /// order, exactly as unfused node-at-a-time execution would have.
    fn replay(
        &self,
        run: &mut RunCtx<'_>,
        state: &mut ExecState,
        st: &StageCtx<'_>,
        seen: &StageObs,
    ) -> Result<(), ExecutionError> {
        let obs = run.obs;
        for (s, sched) in st.scheds.iter().enumerate() {
            let op = st.ops[s];
            let node_id = st.first + s;
            let labels = row_labels(node_id, op);
            let node_t0 = run.now();
            // Simulated node losses: dead nodes drop out of the placement
            // and their share of work is rescheduled onto the survivors
            // (slower, but correct). The replacement placement re-runs
            // the operator's startup on the survivors.
            for &j in &sched.losses {
                state.nodes_lost.push(j);
                run.charge(NODE_LOSS_RESCHEDULE_SECS);
                run.charge(op.cost.startup_secs);
            }
            if sched.all_nodes_dead {
                let node_id = state.nodes_lost.last().copied().unwrap_or(0);
                return Err(ExecutionError::Scheduling(SchedulingError::NodeFailed {
                    node: node_id,
                }));
            }
            let stats = &seen.stats[s];
            let (records_out, bytes_out) = match seen.stats.get(s + 1) {
                Some(next) => (next.records_in, next.bytes_in),
                None => (seen.output.len() as u64, seen.final_bytes_out),
            };
            // Injected worker panics, replayed per partition of *this*
            // constituent's own chunking (cardinality × dop_eff).
            let n = stats.records_in as usize;
            let stage_chunk_size = n.div_ceil(sched.dop_eff).max(1);
            let retries = if op.kind == Kind::Reduce {
                0
            } else {
                injected_retries(run.res, op, n.div_ceil(stage_chunk_size))?
            };
            run.add(Total::PartitionRetries, retries as f64);
            run.charge(retries as f64 * PARTITION_RETRY_SECS);
            // startup is charged once per distinct operator name (workers
            // start it in parallel; it floors the clock), plus the cost
            // of shipping the operator's resident data (dictionaries,
            // models) to every worker over the shared switch — the term
            // that makes heavy flows scale sub-linearly in DoP (Figs. 4/5)
            if state.startup_charged.insert(op.name.clone()) {
                let ship_bytes = op.cost.memory_bytes.saturating_mul(self.config.dop as u64);
                let startup_secs =
                    op.cost.startup_secs + self.config.cluster.network_secs(ship_bytes);
                run.charge(startup_secs);
                obs.registry().gauge("flow.op_startup_secs", &labels).set(startup_secs);
            }
            // per-partition work: max over this constituent's partitions
            // of the left-to-right sum of scaled per-record costs
            let work = if op.kind == Kind::Reduce {
                seen.reduce_work
            } else {
                let mut max_secs = 0.0f64;
                for chunk in stats.costs.chunks(stage_chunk_size) {
                    let mut secs = 0.0f64;
                    for c in chunk {
                        secs += self.config.work_scale * *c;
                    }
                    max_secs = max_secs.max(secs);
                }
                max_secs
            };
            run.charge(work);
            // shuffle accounting for reduce
            if op.kind == Kind::Reduce {
                let scaled = (stats.bytes_in as f64 * self.config.byte_scale) as u64;
                run.add(Total::NetworkBytes, scaled as f64);
                run.raise_peak(scaled);
                run.charge(self.config.cluster.network_secs(scaled));
            }
            run.raise_peak((bytes_out as f64 * self.config.byte_scale) as u64);

            // the registry is the only copy of the row; FlowMetrics reads
            // it through these handles when the run ends
            let row = Row::of(obs, &labels);
            row.records_in.add(stats.records_in);
            row.records_out.add(records_out);
            row.bytes_in.add(stats.bytes_in);
            row.bytes_out.add(bytes_out);
            row.work_secs.set(work);
            obs.registry()
                .histogram("flow.op_secs", &Labels::new(&[("op", &op.name)]))
                .record(work);
            run.rows[node_id] = Some((row, stats.wall_ms));
            obs.tracer().span("flow.op", node_t0, run.now() - node_t0, labels);

            let boundary = st.first + s + 1;
            if s + 1 < st.ops.len() && run.checkpoint_due(boundary) {
                synthesize_checkpoint(run, state, st, seen, boundary);
            }
        }
        Ok(())
    }
}

/// What one run carries beside the checkpointable [`ExecState`]: the
/// borrowed plan and options, registry handles to the flow totals and
/// this run's per-operator rows, and everything physical or runtime-only.
struct RunCtx<'a> {
    plan: &'a LogicalPlan,
    res: &'a FlowResilience,
    obs: &'a Observer,
    /// The handles of the gauges in [`TOTALS`], indexed by [`Total`].
    totals: [Gauge; 7],
    /// Per plan node replayed by this run: its row's registry handles
    /// and the wall milliseconds of its pass.
    rows: Vec<Option<(Row, f64)>>,
    checkpoints: Vec<FlowCheckpoint>,
    physical: PhysicalStats,
    stages: Vec<StageDecision>,
    /// The worker-shard pool, created by the first stage the sharded
    /// runner takes and kept for the whole run (workers persist across
    /// stages; kill counting is cumulative per channel).
    pool: Option<ShardPool>,
}

impl<'a> RunCtx<'a> {
    fn new(plan: &'a LogicalPlan, res: &'a FlowResilience, obs: &'a Observer) -> RunCtx<'a> {
        RunCtx {
            plan,
            res,
            obs,
            totals: TOTALS.map(|name| obs.registry().gauge(name, &Labels::empty())),
            rows: (0..plan.len()).map(|_| None).collect(),
            checkpoints: Vec::new(),
            physical: PhysicalStats::default(),
            stages: Vec::new(),
            pool: None,
        }
    }

    /// Does the checkpoint cadence hit node boundary `at`?
    fn checkpoint_due(&self, at: usize) -> bool {
        self.res.checkpoint_every_nodes.is_some_and(|e| e > 0 && at.is_multiple_of(e))
    }

    fn total(&self, total: Total) -> f64 {
        self.totals[total as usize].value()
    }

    /// Adds `v` to `total` — the f64 addition the total always took.
    fn add(&self, total: Total, v: f64) {
        self.totals[total as usize].set(self.total(total) + v);
    }

    /// Raises the peak intermediate volume to `bytes` if that is larger.
    fn raise_peak(&self, bytes: u64) {
        let peak = Total::PeakIntermediateBytes;
        self.totals[peak as usize].set(self.total(peak).max(bytes as f64));
    }

    /// The simulated clock.
    fn now(&self) -> f64 {
        self.total(Total::SimulatedSecs)
    }

    /// Advances the simulated clock by `secs`.
    fn charge(&self, secs: f64) {
        self.add(Total::SimulatedSecs, secs);
    }

    /// The [`FlowMetrics`] view of the ended run, read through registry
    /// handles: the totals, and one row per operator node with a
    /// consumer, in id order. Exactly those nodes wrote a row — in this
    /// run, or before the frame it resumed — because the drive loop
    /// skips an operator without one and no fused stage extends into
    /// it; a row from before the frame has no wall time here.
    fn metrics_view(&mut self, nodes_lost: Vec<usize>, wall_ms: f64) -> FlowMetrics {
        let plan = self.plan;
        let mut per_op = Vec::new();
        for node in plan.nodes() {
            let NodeOp::Op(op) = &node.op else { continue };
            if plan.children(node.id).is_empty() {
                continue;
            }
            let (row, wall_ms) = self.rows[node.id]
                .take()
                .unwrap_or_else(|| (Row::of(self.obs, &row_labels(node.id, op)), 0.0));
            per_op.push(OpMetrics {
                name: op.name.clone(),
                records_in: row.records_in.value(),
                records_out: row.records_out.value(),
                bytes_in: row.bytes_in.value(),
                bytes_out: row.bytes_out.value(),
                wall_ms,
                simulated_secs: row.work_secs.value(),
            });
        }
        let count = |total| self.total(total) as u64;
        FlowMetrics {
            wall_ms,
            simulated_secs: self.total(Total::SimulatedSecs),
            network_bytes: count(Total::NetworkBytes),
            peak_intermediate_bytes: count(Total::PeakIntermediateBytes),
            per_op,
            partition_retries: count(Total::PartitionRetries),
            store_read_retries: count(Total::StoreReadRetries),
            nodes_lost,
            checkpoints_taken: count(Total::CheckpointsTaken),
            store_write_failures: count(Total::StoreWriteFailures),
        }
    }
}

/// Registry handles to one operator node's row of [`FlowMetrics::per_op`]:
/// the series `flow.{records,bytes}_{in,out}` and `flow.op_work_secs`,
/// labelled by [`row_labels`].
struct Row {
    records_in: Counter,
    records_out: Counter,
    bytes_in: Counter,
    bytes_out: Counter,
    work_secs: Gauge,
}

impl Row {
    fn of(obs: &Observer, labels: &Labels) -> Row {
        let counter = |name| obs.registry().counter(name, labels);
        Row {
            records_in: counter("flow.records_in"),
            records_out: counter("flow.records_out"),
            bytes_in: counter("flow.bytes_in"),
            bytes_out: counter("flow.bytes_out"),
            work_secs: obs.registry().gauge("flow.op_work_secs", labels),
        }
    }
}

/// The labels of plan node `id`'s row: node id and operator name.
fn row_labels(id: usize, op: &Operator) -> Labels {
    Labels::new(&[("node", &id.to_string()), ("op", &op.name)])
}

/// A flow total of [`FlowMetrics`]. The registry gauge `TOTALS[t as
/// usize]` holds the only mutable copy of total `t`; every update is the
/// f64 operation the total always took, so the simulated clock keeps its
/// bits, and an f64 holds each u64 total exactly below 2^53.
#[derive(Clone, Copy)]
enum Total {
    SimulatedSecs,
    NetworkBytes,
    PeakIntermediateBytes,
    PartitionRetries,
    StoreReadRetries,
    CheckpointsTaken,
    StoreWriteFailures,
}

/// The names of the total gauges, in [`Total`] order.
const TOTALS: [&str; 7] = [
    "flow.simulated_secs",
    "flow.network_bytes",
    "flow.peak_intermediate_bytes",
    "flow.partition_retries",
    "flow.store_read_retries",
    "flow.checkpoints_taken",
    "flow.store_write_failures",
];

/// The counters the executor writes, labelled by node row, source or sink.
const COUNTERS: [&str; 7] = [
    "flow.records_in",
    "flow.records_out",
    "flow.bytes_in",
    "flow.bytes_out",
    "flow.source_records",
    "flow.sink_records",
    "flow.sink_bytes",
];

/// The gauges the executor writes beside [`TOTALS`]: the cost a node row
/// or a sink was charged, in simulated seconds.
const GAUGES: [&str; 3] = ["flow.op_work_secs", "flow.op_startup_secs", "flow.sink_secs"];

/// The schedule decided for one constituent of a stage.
struct StageSched {
    losses: Vec<usize>,
    all_nodes_dead: bool,
    dop_eff: usize,
}

/// One fused stage in flight: its constituents, taps, and schedule.
struct StageCtx<'a> {
    first: usize,
    ops: Vec<&'a Operator>,
    /// The stage ends in a Reduce folded per chunk.
    combined: bool,
    /// Interior boundaries the physical pass taps, as in-chain indices.
    tapped: Vec<usize>,
    scheds: Vec<StageSched>,
}

impl StageCtx<'_> {
    /// Constituents that run physically: all of them, unless one loses
    /// every node — it and everything after it only reach the replay.
    fn physical_stages(&self) -> usize {
        self.scheds.iter().position(|s| s.all_nodes_dead).unwrap_or(self.ops.len())
    }

    /// Maps a runner failure onto the executor's error vocabulary. A
    /// reported panic is a deterministic UDF bug whichever runner hit
    /// it; a lost shard carries every checkpoint taken so far so the
    /// caller can resume.
    fn error(&self, e: ShardRunError, run: &RunCtx<'_>) -> ExecutionError {
        match e {
            ShardRunError::Panicked { stage, chunk } => ExecutionError::OperatorPanicked {
                operator: self.ops[stage.min(self.ops.len() - 1)].name.clone(),
                partition: chunk,
                attempts: run.res.partition_retries + 1,
            },
            ShardRunError::Lost { shard } => ExecutionError::ShardLost {
                shard,
                operator: self.ops[0].name.clone(),
                checkpoints: run.checkpoints.clone(),
            },
            ShardRunError::Protocol { shard, detail } => {
                ExecutionError::ShardProtocol { shard, detail }
            }
        }
    }
}

/// Per-stage observations from the physical pass, merged across chunks
/// in chunk order (pipeline stages preserve record order, so
/// concatenated per-chunk tallies reproduce the record order an unfused
/// run would have seen).
#[derive(Default)]
struct StageObs {
    /// One entry per constituent that ran physically.
    stats: Vec<ChunkStats>,
    output: Vec<Record>,
    final_bytes_out: u64,
    reduce_work: f64,
    /// Records crossing each tapped interior boundary, in unfused record
    /// order (chunk-concatenation order), by in-chain index.
    taps: HashMap<usize, Vec<Record>>,
}

/// Merges chunk results in chunk order: pipeline stages preserve record
/// order, so concatenation reproduces the record order an unfused run
/// would have seen — including the per-key cost runs the reduce-work
/// replay depends on. Chunk costs are raw; each is multiplied by
/// `work_scale` right before it is added, as the replay does, and a run
/// `(cost, n)` is that addition made `n` times.
fn merge(
    st: &StageCtx<'_>,
    fold: Option<&Operator>,
    chunk_outs: Vec<ChunkOut>,
    work_scale: f64,
    physical: &mut PhysicalStats,
    seen: &mut StageObs,
) {
    let agg = fold.map(|reduce| match reduce.func() {
        OpFunc::Reduce { aggregate, .. } => aggregate,
        _ => unreachable!("combined stage ends in a reduce"),
    });
    let mut merged: BTreeMap<String, (AggState, Vec<(f64, u64)>)> = BTreeMap::new();
    for r in chunk_outs {
        for (total, t) in seen.stats.iter_mut().zip(r.stages) {
            total.records_in += t.records_in;
            total.bytes_in += t.bytes_in;
            total.wall_ms += t.wall_ms;
            total.costs.extend(t.costs);
        }
        if let (Some((entries, shuffled)), Some(agg)) = (r.partial, agg) {
            physical.shuffle_bytes += shuffled;
            for (k, state, runs) in entries {
                match merged.entry(k) {
                    Entry::Occupied(mut e) => {
                        agg.merge(&mut e.get_mut().0, state);
                        e.get_mut().1.extend(runs);
                    }
                    Entry::Vacant(v) => {
                        v.insert((state, runs));
                    }
                }
            }
        }
        for (&s, tap) in st.tapped.iter().zip(r.taps) {
            seen.taps.entry(s).or_default().extend(tap);
        }
        seen.final_bytes_out += r.bytes_out;
        seen.output.extend(r.out);
    }
    if let Some(agg) = agg {
        // Final merge: finish every key in sorted order, and replay the
        // serial reduce's per-record cost accumulation — one
        // left-to-right f64 sum over (sorted key, record arrival) order,
        // bit-identical to the uncombined path.
        let mut work_secs = 0.0f64;
        for (k, (state, runs)) in merged {
            for (cost, n) in runs {
                let scaled = work_scale * cost;
                for _ in 0..n {
                    work_secs += scaled;
                }
            }
            seen.output.extend(agg.finish(&k, state));
        }
        seen.reduce_work = work_secs / st.scheds[st.ops.len() - 1].dop_eff as f64;
        seen.final_bytes_out = seen.output.iter().map(Record::approx_bytes).sum();
    }
}

/// Pairs every `store:` sink of `plan` with its dataset, in sorted sink
/// order so the store sees a deterministic call sequence — or fails with
/// the first one, in that order, that is malformed or names a store
/// other than `store`. A run given a store checks this before its first
/// node; a caller that runs the plan later (a live session) checks it
/// up front with the same function.
pub fn store_drains(plan: &LogicalPlan, store: &str) -> Result<Vec<(String, String)>, ExecutionError> {
    let mut sinks: Vec<&str> =
        plan.sinks().into_iter().filter(|name| name.starts_with(STORE_SINK_PREFIX)).collect();
    sinks.sort_unstable();
    sinks
        .into_iter()
        .map(|sink| match parse_store_sink(sink) {
            Some((target, dataset)) if target == store => {
                Ok((sink.to_string(), dataset.to_string()))
            }
            parsed => Err(ExecutionError::UnknownStore {
                sink: sink.to_string(),
                store: parsed
                    .map_or(&sink[STORE_SINK_PREFIX.len()..], |(target, _)| target)
                    .to_string(),
            }),
        })
        .collect()
}

/// Decodes the executor state a checkpoint frame captured, and restores
/// its registry snapshot into `obs`. The bytes are untrusted: a frame
/// whose state does not fit `plan` and a cluster of `cluster_nodes`, or
/// whose registry holds a `flow.*` series the executor does not write
/// under that kind, is rejected before it can reach the drive loop.
fn restore(
    plan: &LogicalPlan,
    checkpoint: &FlowCheckpoint,
    cluster_nodes: usize,
    obs: &Observer,
) -> Result<ExecState, ExecutionError> {
    let payload = checkpoint.payload().map_err(ExecutionError::BadCheckpoint)?;
    let mut r = Reader::new(payload);
    let state = ExecState::decode(&mut r).map_err(ExecutionError::BadCheckpoint)?;
    let registry = RegistrySnapshot::decode(&mut r).map_err(ExecutionError::BadCheckpoint)?;
    let gauges = [&TOTALS[..], &GAUGES].concat();
    let kinds = registry.check_kinds("flow.", &COUNTERS, &gauges, &["flow.op_secs"]);
    let mut lost = vec![false; cluster_nodes];
    let mut first_loss = |j: usize| j < cluster_nodes && !std::mem::replace(&mut lost[j], true);
    let fits = r.is_empty()
        && state.outputs.len() == plan.len()
        && state.consumers_left.len() == plan.len()
        && state.next_node <= plan.len()
        && state.nodes_lost.iter().all(|&j| first_loss(j))
        && kinds.is_ok();
    if !fits {
        return Err(mismatch());
    }
    obs.registry().restore(&registry).map_err(ExecutionError::BadCheckpoint)?;
    Ok(state)
}

/// The error for a frame whose state does not fit the plan it resumes.
fn mismatch() -> ExecutionError {
    ExecutionError::BadCheckpoint(CodecError::Truncated { what: "checkpoint does not match plan" })
}

/// Counts the injected worker panics over `partitions` partitions of
/// `op`, with the retry-queue semantics of physical re-execution: each
/// injected panic burns one attempt until the budget is gone.
fn injected_retries(
    res: &FlowResilience,
    op: &Operator,
    partitions: usize,
) -> Result<u64, ExecutionError> {
    let Some(fault_plan) = &res.faults else { return Ok(0) };
    let mut retries: u64 = 0;
    for p in 0..partitions {
        let key = format!("{}#p{p}", op.name);
        let mut attempt: u32 = 0;
        while fault_plan.injects_at(FaultKind::WorkerPanic, &key, attempt as u64) {
            if attempt >= res.partition_retries {
                return Err(ExecutionError::OperatorPanicked {
                    operator: op.name.clone(),
                    partition: p,
                    attempts: attempt + 1,
                });
            }
            retries += 1;
            attempt += 1;
        }
    }
    Ok(retries)
}

/// Seals the checkpoint frame due at node boundary `at` — unless an
/// injected store-write fault loses it. `shape` runs just before the
/// state is encoded (the drive loop's state already is the boundary's;
/// a stage interior has to be shaped into it). The frame carries the
/// registry — every flow metric, once — so resumed runs continue their
/// totals and counters bit-identically.
fn seal_checkpoint(
    run: &mut RunCtx<'_>,
    state: &mut ExecState,
    at: usize,
    shape: impl FnOnce(&mut ExecState),
) {
    let lost = run.res.faults.as_ref().is_some_and(|fault_plan| {
        fault_plan.injects_at(FaultKind::StoreWrite, "flow-checkpoint", at as u64)
    });
    if lost {
        run.add(Total::StoreWriteFailures, 1.0);
        return;
    }
    run.add(Total::CheckpointsTaken, 1.0);
    shape(state);
    let mut w = Writer::new();
    state.encode(&mut w);
    run.obs.registry().snapshot().encode(&mut w);
    run.checkpoints.push(FlowCheckpoint::seal(at, &w.into_bytes()));
}

/// Synthesizes the checkpoint frame an unfused run would have written at
/// node boundary `b`, strictly inside the stage. The ExecState is
/// momentarily shaped exactly as at that boundary — interior parents
/// consumed (tee'd ones keep their remaining consumers and live tapped
/// stream), node `b - 1`'s output live (the tapped stream), `next_node`
/// at the boundary — so the frame bytes match the unfused run's bit for
/// bit, and a resume from it re-enters the plan mid-stage.
fn synthesize_checkpoint(
    run: &mut RunCtx<'_>,
    state: &mut ExecState,
    st: &StageCtx<'_>,
    seen: &StageObs,
    b: usize,
) {
    let (plan, first) = (run.plan, st.first);
    let tap = |id: usize| seen.taps.get(&(id - first)).cloned().unwrap_or_default();
    let saved_next = state.next_node;
    seal_checkpoint(run, state, b, |state| {
        for id in first..b - 1 {
            let extra = plan.children(id).len().saturating_sub(1);
            state.consumers_left[id] = extra;
            if extra > 0 {
                state.outputs[id] = Some(tap(id));
            }
        }
        state.next_node = b;
        state.outputs[b - 1] = Some(tap(b - 1));
    });
    for id in first..b {
        state.outputs[id] = None;
    }
    state.next_node = saved_next;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{Aggregate, CostModel, Operator, Package};
    use crate::packages::testkit::metric_fields;
    use crate::record::Value;
    use std::time::Duration;
    use websift_observe::MetricValue;

    fn docs(n: usize) -> Vec<Record> {
        (0..n)
            .map(|i| {
                let mut r = Record::new();
                r.set("id", i).set("text", format!("document number {i} with some text"));
                r
            })
            .collect()
    }

    fn simple_plan() -> LogicalPlan {
        let mut plan = LogicalPlan::new();
        let src = plan.source("in");
        let upper = plan
            .add(
                src,
                Operator::map("upper", Package::Base, |mut r| {
                    let t = r.text().unwrap().to_uppercase();
                    r.set("text", t);
                    r
                }),
            )
            .unwrap();
        let keep_even = plan
            .add(
                upper,
                Operator::filter("even", Package::Base, |r| {
                    r.get("id").unwrap().as_int().unwrap() % 2 == 0
                }),
            )
            .unwrap();
        plan.sink(keep_even, "out").unwrap();
        plan
    }

    /// Runs `plan` with `input` bound to its source "in".
    fn exec(
        plan: &LogicalPlan,
        input: Vec<Record>,
        config: ExecutionConfig,
        opts: RunOptions<'_>,
    ) -> Result<FlowOutput, ExecutionError> {
        Executor::new(config).run(plan, HashMap::from([("in".to_string(), input)]), opts)
    }

    fn run(plan: &LogicalPlan, input: Vec<Record>, dop: usize) -> FlowOutput {
        exec(plan, input, ExecutionConfig::local(dop), RunOptions::default()).unwrap()
    }

    fn run_under(
        plan: &LogicalPlan,
        input: Vec<Record>,
        dop: usize,
        res: &FlowResilience,
    ) -> Result<FlowOutput, ExecutionError> {
        let opts = RunOptions { resilience: res.clone(), ..RunOptions::default() };
        exec(plan, input, ExecutionConfig::local(dop), opts)
    }

    #[test]
    fn executes_linear_plan() {
        let out = run(&simple_plan(), docs(10), 4);
        let records = &out.sinks["out"];
        assert_eq!(records.len(), 5);
        assert!(records[0].text().unwrap().contains("DOCUMENT"));
    }

    /// Records the append sequence of a store-draining run.
    struct RecordingStore {
        name: String,
        appended: Vec<(String, usize)>,
    }

    impl StoreSink for RecordingStore {
        fn store_name(&self) -> &str {
            &self.name
        }

        fn append(&mut self, dataset: &str, records: Vec<Record>) {
            self.appended.push((dataset.to_string(), records.len()));
        }
    }

    #[test]
    fn run_into_routes_store_sinks_and_keeps_plain_ones() {
        let mut plan = LogicalPlan::new();
        let src = plan.source("in");
        plan.store_sink(src, "serve", "entities").unwrap();
        plan.store_sink(src, "serve", "aux").unwrap();
        plan.sink(src, "plain").unwrap();

        let mut store = RecordingStore { name: "serve".into(), appended: vec![] };
        let opts = RunOptions { store: Some(&mut store), ..RunOptions::default() };
        let out = exec(&plan, docs(6), ExecutionConfig::local(2), opts).unwrap();

        // store sinks drained (in sorted name order), plain sink kept
        assert_eq!(store.appended, vec![("aux".to_string(), 6), ("entities".to_string(), 6)]);
        assert_eq!(out.sinks.len(), 1);
        assert_eq!(out.sinks["plain"].len(), 6);
    }

    #[test]
    fn run_into_rejects_sinks_for_other_stores() {
        // the reachable store's sink sorts first: a run that drained
        // sinks before checking them all would already have appended it
        let mut plan = LogicalPlan::new();
        let src = plan.source("in");
        plan.store_sink(src, "archive", "entities").unwrap();
        plan.store_sink(src, "serve", "entities").unwrap();

        let mut store = RecordingStore { name: "archive".into(), appended: vec![] };
        let opts = RunOptions { store: Some(&mut store), ..RunOptions::default() };
        let err = exec(&plan, docs(2), ExecutionConfig::local(1), opts).unwrap_err();
        assert_eq!(
            err,
            ExecutionError::UnknownStore {
                sink: "store:serve/entities".into(),
                store: "serve".into(),
            }
        );
        assert!(store.appended.is_empty(), "a failed run appended {:?}", store.appended);
        assert!(err.to_string().contains("store 'serve'"));
    }

    #[test]
    fn results_identical_across_dops() {
        let a = run(&simple_plan(), docs(37), 1);
        let b = run(&simple_plan(), docs(37), 8);
        assert_eq!(a.sinks["out"], b.sinks["out"]);
    }

    #[test]
    fn branching_plan_feeds_both_sinks() {
        let mut plan = LogicalPlan::new();
        let src = plan.source("in");
        let pre = plan.add(src, Operator::map("pre", Package::Base, |r| r)).unwrap();
        let odd = plan
            .add(
                pre,
                Operator::filter("odd", Package::Base, |r| {
                    r.get("id").unwrap().as_int().unwrap() % 2 == 1
                }),
            )
            .unwrap();
        let even = plan
            .add(
                pre,
                Operator::filter("even", Package::Base, |r| {
                    r.get("id").unwrap().as_int().unwrap() % 2 == 0
                }),
            )
            .unwrap();
        plan.sink(odd, "odd").unwrap();
        plan.sink(even, "even").unwrap();
        let out = run(&plan, docs(10), 4);
        assert_eq!(out.sinks["odd"].len(), 5);
        assert_eq!(out.sinks["even"].len(), 5);
    }

    #[test]
    fn reduce_counts_groups() {
        let mut plan = LogicalPlan::new();
        let src = plan.source("in");
        let red = plan
            .add(
                src,
                Operator::reduce_agg(
                    "count",
                    Package::Base,
                    |r, k| k.push_str(&(r.get("id").unwrap().as_int().unwrap() % 3).to_string()),
                    Aggregate::Count { into: "n".into() },
                ),
            )
            .unwrap();
        plan.sink(red, "out").unwrap();
        let out = run(&plan, docs(9), 4);
        assert_eq!(out.sinks["out"].len(), 3);
        for r in &out.sinks["out"] {
            assert_eq!(r.get("n").unwrap().as_int(), Some(3));
        }
        assert!(out.metrics.network_bytes > 0, "reduce shuffles bytes");
    }

    #[test]
    fn missing_source_errors() {
        let plan = simple_plan();
        let err = Executor::new(ExecutionConfig::local(2))
            .run(&plan, HashMap::new(), RunOptions::default())
            .unwrap_err();
        assert_eq!(err, ExecutionError::MissingSource("in".to_string()));
    }

    #[test]
    fn an_invalid_plan_is_reported_as_such_not_as_a_library_conflict() {
        let mut plan = LogicalPlan::new();
        plan.source("in"); // no sink
        let err = Executor::new(ExecutionConfig::local(2))
            .run(&plan, HashMap::new(), RunOptions::default())
            .unwrap_err();
        assert_eq!(err, ExecutionError::InvalidPlan("plan has no sink".to_string()));
        assert_eq!(err.to_string(), "invalid plan: plan has no sink");
    }

    /// A 100 GB operator no paper-cluster node can host, then a thin map.
    fn fat_plan() -> LogicalPlan {
        let mut plan = LogicalPlan::new();
        let src = plan.source("in");
        let fat = Operator::map("fat", Package::Ie, |r| r)
            .with_cost(CostModel { memory_bytes: 100 << 30, ..CostModel::default() });
        let fat = plan.add(src, fat).unwrap();
        let thin = plan.add(fat, Operator::map("thin", Package::Base, |r| r)).unwrap();
        plan.sink(thin, "out").unwrap();
        plan
    }

    /// Admission on the paper cluster, with or without the analyzer.
    fn paper_admission(analyze: bool) -> ExecutionConfig {
        ExecutionConfig {
            admission: true,
            analyze,
            cluster: ClusterSpec::paper_cluster(),
            ..ExecutionConfig::local(4)
        }
    }

    #[test]
    fn admission_failure_propagates() {
        // analyze: false reaches the runtime scheduler's own rejection
        let err = exec(&fat_plan(), docs(1), paper_admission(false), RunOptions::default())
            .unwrap_err();
        assert!(matches!(
            err,
            ExecutionError::Scheduling(SchedulingError::InsufficientMemory { .. })
        ));
    }

    #[test]
    fn analyzer_rejects_over_memory_plan_preflight() {
        // same plan as admission_failure_propagates, but with the default
        // analyze: true the static analyzer catches it before the
        // scheduler — and before any operator runs
        let executor = Executor::new(paper_admission(true));
        // empty inputs: rejection must happen before the missing source
        // could even be noticed
        let err = executor.run(&fat_plan(), HashMap::new(), RunOptions::default()).unwrap_err();
        match err {
            ExecutionError::PlanRejected { diagnostics } => {
                // WS007 (whole-plan sum) and WS014 (even the peak fused
                // stage alone) both reject a single 100 GB operator
                let codes: Vec<&str> = diagnostics.iter().map(|d| d.code.as_str()).collect();
                assert_eq!(codes, vec!["WS007", "WS014"]);
            }
            other => panic!("expected PlanRejected, got {other:?}"),
        }
    }

    #[test]
    fn a_resumed_run_is_admitted_like_a_fresh_one() {
        // the local cluster runs the plan and checkpoints every node; a
        // resume from its last frame faces the paper cluster's admission
        let plan = fat_plan();
        let res = FlowResilience { checkpoint_every_nodes: Some(1), ..FlowResilience::default() };
        let local = run_under(&plan, docs(4), 4, &res).unwrap();
        let last = local.checkpoints.last().expect("a frame per node");
        for analyze in [false, true] {
            let fresh = exec(&plan, docs(4), paper_admission(analyze), RunOptions::default());
            let opts =
                RunOptions { resilience: res.clone(), resume: Some(last), ..RunOptions::default() };
            let resumed = exec(&plan, docs(4), paper_admission(analyze), opts).unwrap_err();
            assert_eq!(resumed, fresh.unwrap_err(), "analyze: {analyze}");
            match resumed {
                ExecutionError::Scheduling(SchedulingError::InsufficientMemory { .. }) => {
                    assert!(!analyze)
                }
                ExecutionError::PlanRejected { diagnostics } => {
                    let codes: Vec<&str> = diagnostics.iter().map(|d| d.code.as_str()).collect();
                    assert_eq!(codes, vec!["WS007", "WS014"]);
                    assert!(analyze);
                }
                other => panic!("analyze: {analyze}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn analyzer_rejects_use_before_def_preflight() {
        let mut plan = LogicalPlan::new();
        let src = plan.source("in");
        let neg = plan
            .add(
                src,
                Operator::map("negation", Package::Ie, |r| r)
                    .with_reads(&["text", "sentences"])
                    .with_writes(&["negation"]),
            )
            .unwrap();
        let sents = plan
            .add(
                neg,
                Operator::map("sentences", Package::Ie, |r| r)
                    .with_reads(&["text"])
                    .with_writes(&["sentences"]),
            )
            .unwrap();
        plan.sink(sents, "out").unwrap();
        let err =
            exec(&plan, docs(3), ExecutionConfig::local(2), RunOptions::default()).unwrap_err();
        match err {
            ExecutionError::PlanRejected { diagnostics } => {
                assert_eq!(diagnostics[0].code, "WS001");
                assert!(diagnostics[0].message.contains("'sentences'"));
            }
            other => panic!("expected PlanRejected, got {other:?}"),
        }
    }

    #[test]
    fn simulated_time_decreases_with_dop_but_floors_at_startup() {
        let mut plan = LogicalPlan::new();
        let src = plan.source("in");
        let heavy = plan
            .add(
                src,
                Operator::map("dict-tagger", Package::Ie, |r| r).with_cost(CostModel {
                    startup_secs: 1200.0,
                    us_per_char: 1000.0,
                    ..CostModel::default()
                }),
            )
            .unwrap();
        plan.sink(heavy, "out").unwrap();
        let run_at = |dop: usize| run(&plan, docs(64), dop).metrics.simulated_secs;
        let t1 = run_at(1);
        let t8 = run_at(8);
        assert!(t8 < t1, "parallelism helps: {t1} vs {t8}");
        assert!(t8 >= 1200.0, "startup floors the runtime");
    }

    #[test]
    fn network_overload_and_chunking_mitigation() {
        let mut plan = LogicalPlan::new();
        let src = plan.source("in");
        let inflate = plan
            .add(
                src,
                Operator::map("annotate-everything", Package::Ie, |mut r| {
                    r.set("annotations", Value::from("x".repeat(2000)));
                    r
                }),
            )
            .unwrap();
        plan.sink(inflate, "out").unwrap();
        let mut cluster = ClusterSpec::paper_cluster();
        cluster.network_overload_bytes = 50_000; // tiny threshold for the test
        let config = ExecutionConfig {
            cluster: cluster.clone(),
            ..ExecutionConfig::local(4)
        };
        let err = exec(&plan, docs(100), config, RunOptions::default()).unwrap_err();
        assert!(matches!(err, ExecutionError::NetworkOverload { .. }));

        // chunking into enough rounds gets it through
        let config = ExecutionConfig {
            cluster,
            chunk_rounds: Some(10),
            ..ExecutionConfig::local(4)
        };
        assert!(exec(&plan, docs(100), config, RunOptions::default()).is_ok());
    }

    #[test]
    fn metrics_track_record_and_byte_flow() {
        let out = run(&simple_plan(), docs(20), 4);
        let upper = out.metrics.per_op.iter().find(|m| m.name == "upper").unwrap();
        assert_eq!(upper.records_in, 20);
        assert_eq!(upper.records_out, 20);
        assert!(upper.bytes_out >= upper.bytes_in);
        let even = out.metrics.per_op.iter().find(|m| m.name == "even").unwrap();
        assert_eq!(even.records_out, 10);
        assert!(out.metrics.wall_ms >= 0.0);
    }

    #[test]
    fn panicked_partitions_are_retried() {
        let res = FlowResilience {
            faults: Some(
                FaultPlan::new(11).with_rate(FaultKind::WorkerPanic, 0.5),
            ),
            partition_retries: 8,
            ..FlowResilience::default()
        };
        let out = run_under(&simple_plan(), docs(40), 4, &res).unwrap();
        assert_eq!(out.sinks["out"].len(), 20, "results survive worker panics");
        assert!(out.metrics.partition_retries > 0, "no retries recorded");

        // the same flow without faults produces identical sink contents
        let clean = run_under(&simple_plan(), docs(40), 4, &FlowResilience::default()).unwrap();
        assert_eq!(clean.sinks["out"], out.sinks["out"]);
    }

    #[test]
    fn exhausted_partition_retries_fail_typed() {
        let res = FlowResilience {
            faults: Some(
                FaultPlan::new(7).with_rate(FaultKind::WorkerPanic, 1.0),
            ),
            partition_retries: 2,
            ..FlowResilience::default()
        };
        let err = run_under(&simple_plan(), docs(10), 2, &res).unwrap_err();
        match err {
            ExecutionError::OperatorPanicked { operator, attempts, .. } => {
                assert_eq!(operator, "upper");
                assert_eq!(attempts, 3);
            }
            other => panic!("expected OperatorPanicked, got {other:?}"),
        }
    }

    #[test]
    fn node_loss_reschedules_onto_survivors() {
        let res = FlowResilience {
            faults: Some(
                FaultPlan::new(5).with_rate(FaultKind::NodeLoss, 0.3),
            ),
            ..FlowResilience::default()
        };
        let faulty = run_under(&simple_plan(), docs(40), 8, &res).unwrap();
        assert!(!faulty.metrics.nodes_lost.is_empty(), "no nodes lost at 50%");
        let clean = run_under(&simple_plan(), docs(40), 8, &FlowResilience::default()).unwrap();
        assert_eq!(clean.sinks["out"], faulty.sinks["out"], "results unchanged");
        assert!(
            faulty.metrics.simulated_secs > clean.metrics.simulated_secs,
            "losing nodes must cost simulated time"
        );
    }

    #[test]
    fn losing_every_node_reports_the_failed_node() {
        let res = FlowResilience {
            faults: Some(
                FaultPlan::new(3).with_rate(FaultKind::NodeLoss, 1.0),
            ),
            ..FlowResilience::default()
        };
        let err = run_under(&simple_plan(), docs(10), 4, &res).unwrap_err();
        assert!(
            matches!(
                err,
                ExecutionError::Scheduling(SchedulingError::NodeFailed { node: 3 })
            ),
            "expected NodeFailed with the last node id, got {err:?}"
        );
    }

    #[test]
    fn store_read_faults_retry_sources() {
        let res = FlowResilience {
            faults: Some(
                FaultPlan::new(21).with_rate(FaultKind::StoreRead, 0.7),
            ),
            partition_retries: 10,
            ..FlowResilience::default()
        };
        let out = run_under(&simple_plan(), docs(10), 2, &res).unwrap();
        assert_eq!(out.sinks["out"].len(), 5);
    }

    #[test]
    fn kill_and_resume_reproduces_uninterrupted_flow() {
        let plan = simple_plan();
        // a seed that loses a checkpoint write, cluster nodes and a
        // partition; the frame resumed from already holds some of them
        let res = FlowResilience::injected(0x6, 0.3, 1);

        let base_out = run_under(&plan, docs(50), 4, &res).unwrap();
        let m = &base_out.metrics;
        assert!(m.store_write_failures > 0 && m.partition_retries > 0, "{m:?}");
        assert!(!m.nodes_lost.is_empty(), "{m:?}");

        // killed before plan node 2 (after source + first operator): its
        // last frame is the last one sealed at or before that boundary
        let ckpt = base_out
            .checkpoints
            .iter()
            .rfind(|c| c.next_node <= 2)
            .expect("no checkpoint before kill");

        // resume from durable bytes and run to completion
        let restored = FlowCheckpoint::from_bytes(ckpt.as_bytes().to_vec()).unwrap();
        assert_eq!(restored.next_node, ckpt.next_node, "the boundary is read from the frame");
        let opts = RunOptions { resilience: res, resume: Some(&restored), ..RunOptions::default() };
        let resumed_out = exec(&plan, docs(50), ExecutionConfig::local(4), opts).unwrap();

        assert_eq!(base_out.sinks, resumed_out.sinks);
        assert_eq!(
            base_out.deterministic_digest(),
            resumed_out.deterministic_digest(),
            "resumed flow diverged from uninterrupted baseline"
        );
        // every metric survives the resume, the ones the digest leaves out too
        assert_eq!(metric_fields(&base_out.metrics), metric_fields(&resumed_out.metrics));
    }

    #[test]
    fn a_fresh_run_on_a_used_observer_starts_from_zero() {
        let obs = Observer::new();
        let res = FlowResilience { checkpoint_every_nodes: Some(1), ..FlowResilience::default() };
        let run_once = || {
            let (resilience, observer) = (res.clone(), Some(&obs));
            let opts = RunOptions { resilience, observer, ..RunOptions::default() };
            exec(&simple_plan(), docs(12), ExecutionConfig::local(4), opts).unwrap().metrics
        };
        let (first, second) = (run_once(), run_once());
        let totals = |m: &FlowMetrics| {
            let counts = [
                m.network_bytes,
                m.peak_intermediate_bytes,
                m.partition_retries,
                m.store_read_retries,
                m.checkpoints_taken,
                m.store_write_failures,
            ];
            (m.simulated_secs.to_bits(), counts, m.nodes_lost.clone())
        };
        assert!(first.simulated_secs > 0.0 && first.checkpoints_taken == 3);
        assert_eq!(totals(&second), totals(&first));
        let events = obs.tracer().events();
        let op_starts: Vec<f64> =
            events.iter().filter(|e| e.name == "flow.op").map(|e| e.t_secs).collect();
        assert_eq!(op_starts.len(), 4, "two operator spans per run");
        assert_eq!(op_starts[2], 0.0, "the second run's clock starts at zero");
    }

    #[test]
    fn forged_frames_are_rejected_before_they_reach_the_drive_loop() {
        // simple_plan: 0 source, 1 upper, 2 even, 3 sink; a local
        // cluster has 4 nodes
        let plan = simple_plan();
        let seal = |edit: &dyn Fn(&mut ExecState), entries| {
            let mut state = ExecState::fresh(&plan);
            edit(&mut state);
            let mut w = Writer::new();
            state.encode(&mut w);
            RegistrySnapshot { entries }.encode(&mut w);
            FlowCheckpoint::seal(state.next_node, &w.into_bytes())
        };
        let forge = |edit: &dyn Fn(&mut ExecState)| seal(edit, Vec::new());
        let as_counter = |name: &str, v| {
            let labels = Labels::new(&[("node", "1"), ("op", "upper")]);
            seal(&|_| {}, vec![(name.to_string(), labels, MetricValue::Counter(v))])
        };
        let cases = [
            ("consumers_left emptied", forge(&|s| s.consumers_left.clear())),
            ("a parent with no live output", forge(&|s| s.next_node = 2)),
            (
                "a parent with no consumer left",
                forge(&|s| {
                    (s.next_node, s.consumers_left[1], s.outputs[1]) = (2, 0, Some(docs(2)));
                }),
            ),
            ("next_node past the plan", forge(&|s| s.next_node = 5)),
            ("a lost node outside the cluster", forge(&|s| s.nodes_lost = vec![4])),
            ("a node lost twice", forge(&|s| s.nodes_lost = vec![1, 1])),
            ("a per-operator gauge as a counter", as_counter("flow.op_work_secs", 1)),
            ("a total as a counter", as_counter("flow.simulated_secs", 1)),
            ("a start-up charge as a counter", as_counter("flow.op_startup_secs", 1)),
            ("a sink charge as a counter", as_counter("flow.sink_secs", 1)),
            ("a flow series the executor does not write", as_counter("flow.unknown", 1)),
        ];
        let resume = |frame| {
            let opts = RunOptions { resume: Some(frame), ..RunOptions::default() };
            exec(&plan, docs(4), ExecutionConfig::local(2), opts)
        };
        for (what, frame) in &cases {
            assert_eq!(resume(frame).unwrap_err(), mismatch(), "{what}");
        }
        // a counter restored at its ceiling wraps, in debug builds too
        assert!(resume(&as_counter("flow.records_in", u64::MAX)).is_ok());
        // one key held twice, under two kinds, outside the executor's
        // names: the snapshot decoder refuses it before restore could panic
        let x = |value| ("x".to_string(), Labels::empty(), value);
        let twice = seal(&|_| {}, vec![x(MetricValue::Counter(1)), x(MetricValue::Gauge(1.0))]);
        let order = CodecError::Truncated { what: "registry keys out of order" };
        let opts = RunOptions { resume: Some(&twice), ..RunOptions::default() };
        let refused = exec(&plan, docs(4), ExecutionConfig::local(2), opts).unwrap_err();
        assert_eq!(refused, ExecutionError::BadCheckpoint(order));
    }

    #[test]
    fn observed_run_emits_node_spans_and_registry_views() {
        let obs = Observer::new();
        let opts = RunOptions { observer: Some(&obs), ..RunOptions::default() };
        let out = exec(&simple_plan(), docs(12), ExecutionConfig::local(4), opts).unwrap();

        // one span per executed plan node: source, two ops, sink
        let events = obs.tracer().events();
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["flow.source", "flow.op", "flow.op", "flow.sink"]);
        assert!(events.iter().all(|e| e.dur_secs.is_some()));

        // the public OpMetrics are views over the registry
        for m in &out.metrics.per_op {
            let snap = obs.registry().snapshot();
            let by_op: u64 = snap
                .by_name("flow.records_in")
                .filter(|(_, l, _)| l.get("op") == Some(&m.name))
                .map(|(_, _, v)| match v {
                    MetricValue::Counter(c) => *c,
                    _ => 0,
                })
                .sum();
            assert_eq!(by_op, m.records_in);
        }

        // the flow totals and per-operator work are registry gauges
        assert_eq!(
            obs.registry().gauge("flow.simulated_secs", &Labels::empty()).value(),
            out.metrics.simulated_secs
        );
        let upper = Labels::new(&[("node", "1"), ("op", "upper")]);
        let work = obs.registry().gauge("flow.op_work_secs", &upper).value();
        assert_eq!(work.to_bits(), out.metrics.per_op[0].simulated_secs.to_bits());

        // the start-up charge lands on the row of the node that paid it,
        // the sink's write on the sink
        let startup = obs.registry().gauge("flow.op_startup_secs", &upper).value();
        assert!(startup > 0.0, "upper's start-up is charged to node 1");
        let sink = Labels::new(&[("sink", "out")]);
        assert!(obs.registry().gauge("flow.sink_secs", &sink).value() > 0.0);
    }

    #[test]
    fn resume_restores_registry_state() {
        let plan = simple_plan();
        let res = FlowResilience {
            checkpoint_every_nodes: Some(1),
            ..FlowResilience::default()
        };
        let full_obs = Observer::new();
        let observer = Some(&full_obs);
        let opts = RunOptions { resilience: res.clone(), observer, ..RunOptions::default() };
        let full = exec(&plan, docs(20), ExecutionConfig::local(2), opts).unwrap();
        // a run killed before node 2 would have left frames up to there
        let ckpt = full.checkpoints.iter().rfind(|c| c.next_node <= 2).unwrap();

        let resumed_obs = Observer::new();
        let (observer, resume) = (Some(&resumed_obs), Some(ckpt));
        let opts = RunOptions { resilience: res, observer, resume, ..RunOptions::default() };
        exec(&plan, docs(20), ExecutionConfig::local(2), opts).unwrap();

        // the full observed run and the resumed one agree on every
        // counter and histogram (gauges included)
        assert_eq!(resumed_obs.registry().snapshot(), full_obs.registry().snapshot());
    }

    /// Runs `plan` under `config` with faults from `res`, returning the
    /// output plus the full observable surface (tracer JSONL + registry).
    fn observed_run(
        plan: &LogicalPlan,
        input: Vec<Record>,
        config: ExecutionConfig,
        res: &FlowResilience,
    ) -> (FlowOutput, String, websift_observe::RegistrySnapshot) {
        let obs = Observer::new();
        let observer = Some(&obs);
        let opts = RunOptions { resilience: res.clone(), observer, ..RunOptions::default() };
        let out = exec(plan, input, config, opts).unwrap();
        (out, obs.tracer().to_jsonl(), obs.registry().snapshot())
    }

    fn chain_heavy_plan() -> LogicalPlan {
        // map -> flatmap -> filter -> map: a fusable run with cardinality
        // growth and drops in the middle
        let mut plan = LogicalPlan::new();
        let src = plan.source("in");
        let a = plan
            .add(
                src,
                Operator::map("stamp", Package::Base, |mut r| {
                    let id = r.get("id").unwrap().as_int().unwrap();
                    r.set("stamp", id * 3);
                    r
                }),
            )
            .unwrap();
        let b = plan
            .add(
                a,
                Operator::flat_map("split", Package::Base, |r| {
                    let mut copy = r.clone();
                    copy.set("half", 1i64);
                    vec![r, copy]
                }),
            )
            .unwrap();
        let c = plan
            .add(
                b,
                Operator::filter("trim", Package::Base, |r| {
                    r.get("id").unwrap().as_int().unwrap() % 3 != 1
                }),
            )
            .unwrap();
        let d = plan
            .add(
                c,
                Operator::map("upper", Package::Base, |mut r| {
                    let t = r.text().unwrap().to_uppercase();
                    r.set("text", t);
                    r
                }),
            )
            .unwrap();
        plan.sink(d, "out").unwrap();
        plan
    }

    #[test]
    fn fused_execution_is_byte_identical_to_unfused() {
        let plan = chain_heavy_plan();
        let res = FlowResilience::injected(0xC0FFEE, 0.2, 2);
        let fused = ExecutionConfig::local(4);
        assert!(fused.fusion, "fusion is on by default");
        let unfused = ExecutionConfig { fusion: false, ..ExecutionConfig::local(4) };

        let (out_f, jsonl_f, reg_f) = observed_run(&plan, docs(53), fused, &res);
        let (out_u, jsonl_u, reg_u) = observed_run(&plan, docs(53), unfused, &res);

        assert_eq!(out_f.sinks, out_u.sinks);
        assert_eq!(jsonl_f, jsonl_u, "tracer JSONL must not see fusion");
        assert_eq!(reg_f, reg_u, "registry must not see fusion");
        assert_eq!(out_f.deterministic_digest(), out_u.deterministic_digest());
        assert_eq!(
            metric_fields(&out_f.metrics),
            metric_fields(&out_u.metrics),
            "every deterministic metric, the simulated clock's bits included, must match"
        );
    }

    #[test]
    fn fused_checkpoints_match_unfused_checkpoints() {
        let plan = chain_heavy_plan();
        let res = FlowResilience {
            checkpoint_every_nodes: Some(2),
            ..FlowResilience::default()
        };
        let run_with = |fusion: bool| {
            let opts = RunOptions { resilience: res.clone(), ..RunOptions::default() };
            exec(&plan, docs(20), ExecutionConfig { fusion, ..ExecutionConfig::local(4) }, opts)
                .unwrap()
        };
        let fused = run_with(true);
        let unfused = run_with(false);
        assert!(!fused.checkpoints.is_empty(), "checkpoint cadence must survive fusion");
        assert_eq!(fused.checkpoints.len(), unfused.checkpoints.len());
        for (a, b) in fused.checkpoints.iter().zip(&unfused.checkpoints) {
            assert_eq!(a.next_node, b.next_node);
            assert_eq!(a.as_bytes(), b.as_bytes(), "checkpoint frames must be byte-identical");
        }
    }

    #[test]
    fn wall_time_never_reaches_a_frame() {
        // the same plan twice, but one run's operator takes real time
        let plan_with = |pause: Duration| {
            let mut plan = LogicalPlan::new();
            let src = plan.source("in");
            let slow = Operator::map("slow", Package::Base, move |r| {
                std::thread::sleep(pause);
                r
            });
            let slow = plan.add(src, slow).unwrap();
            let tail = plan.add(slow, Operator::map("tail", Package::Base, |r| r)).unwrap();
            plan.sink(tail, "out").unwrap();
            plan
        };
        let res = FlowResilience { checkpoint_every_nodes: Some(1), ..FlowResilience::default() };
        let fast = run_under(&plan_with(Duration::ZERO), docs(8), 1, &res).unwrap();
        let slow = run_under(&plan_with(Duration::from_millis(3)), docs(8), 1, &res).unwrap();
        assert!(slow.metrics.per_op[0].wall_ms > fast.metrics.per_op[0].wall_ms + 10.0);
        assert!(slow.metrics.wall_ms > fast.metrics.wall_ms);
        assert_eq!(slow.checkpoints.len(), 3);
        assert_eq!(slow.checkpoints, fast.checkpoints, "wall time must not reach frame bytes");
    }

    #[test]
    fn corrupt_checkpoint_is_rejected_on_resume() {
        let plan = simple_plan();
        let res = FlowResilience {
            checkpoint_every_nodes: Some(1),
            ..FlowResilience::default()
        };
        let out = run_under(&plan, docs(10), 2, &res).unwrap();
        let ckpt = out.checkpoints.iter().rfind(|c| c.next_node <= 2).unwrap();
        let mut bytes = ckpt.as_bytes().to_vec();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x80;
        assert!(FlowCheckpoint::from_bytes(bytes).is_err());
    }
}
