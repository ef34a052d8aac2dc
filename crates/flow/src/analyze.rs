//! Static plan verification.
//!
//! The paper's costliest failures — OpenNLP 1.4-vs-1.5 class-loader
//! conflicts, annotators applied before the annotations they read existed,
//! flows admitted that could never fit worker memory — were discovered at
//! runtime after hours of cluster time, yet every one is decidable from
//! the operators' semantic annotations alone. This pass runs between
//! `compile` and `optimize`/`execute` and turns them into pre-flight
//! diagnostics:
//!
//! | code  | severity | check |
//! |-------|----------|-------|
//! | WS001 | error    | use-before-def: a read field no upstream op writes, but some op in the plan produces |
//! | WS002 | error*   | library major-version conflict across the plan |
//! | WS003 | warning  | dead write: a written field no downstream op reads before overwrite/sink-less end |
//! | WS004 | error    | duplicate sink name |
//! | WS005 | warning  | unused `$var` in the source script |
//! | WS006 | warning  | unreachable node: contributes to no sink |
//! | WS007 | error    | memory admission: per-worker footprint × co-located workers exceeds node RAM |
//! | WS008 | error    | requested DoP exceeds cluster cores |
//! | WS009 | warning  | unknown field: read field nothing in the plan produces |
//! | WS010 | info     | custom aggregate: a `Custom` Reduce silently disables partial aggregation |
//! | WS011 | error    | store sink: malformed `store:` name, or a store the run cannot reach |
//! | WS012 | error    | live mode: a Reduce the live session rejects — a `Custom` aggregate cannot fold incrementally, and a Reduce that does not feed a sink directly cannot be retained |
//! | WS013 | error    | field-type conflict: an operator reads a field under a declared type its producer wrote differently |
//! | WS014 | error    | fused-stage admission: even the *peak fused stage's* footprint × co-located workers exceeds node RAM |
//! | WS015 | warning  | redundant operator: an identically-annotated idempotent operator repeats on one path with nothing between touching its fields |
//! | WS017 | info     | sharded run: a closure-built operator has no wire form, so the stage it is fused into stays on the local runner |
//!
//! (*WS002 is a warning without an admission context: a plan may run
//! locally where the simulated class loader never materializes.)
//!
//! WS013–WS015 ride on the field-flow interpretation in
//! [`crate::fieldflow`]. WS014 refines WS007: WS007 mirrors
//! [`crate::cluster::admit`]'s conservative whole-plan sum, while WS014
//! segments the plan into canonical fused stages and checks the heaviest
//! stage alone — a plan it flags cannot be scheduled even one stage at a
//! time, so fusion/combining cannot save it. It deliberately sums only
//! static operator footprints (`cost.memory_bytes`): stage membership is
//! invariant under the optimizer's within-stage reorderings, so the
//! verdict is too, whereas byte-envelope terms would not commute.
//!
//! A node the unreachable check (WS006) flags is reported *only* as
//! WS006: downstream codes on the same node (a use-before-def inside a
//! dead branch, say) are suppressed — the actionable fix is reconnecting
//! or deleting the branch, not repairing code that never runs.
//!
//! Messages deliberately never mention node ids — the optimizer's
//! reorderings move operators between nodes, and the verdict-invariance
//! proptest in `tests/analyze.rs` holds analyzer *error* verdicts constant
//! across optimization.

use crate::cluster::ClusterSpec;
use crate::logical::{parse_store_sink, LogicalPlan, NodeId, NodeOp, STORE_SINK_PREFIX};
use crate::meteor::{self, MeteorError, ScriptInfo};
use crate::optimizer::{plan_stages, REMOVED_IDENTITY};
use crate::packages::OperatorRegistry;
use std::collections::{BTreeMap, BTreeSet};
use websift_analyze::{sort_diagnostics, Diagnostic};

/// Analyzer configuration.
#[derive(Debug, Clone)]
pub struct AnalyzeOptions {
    /// Fields assumed present on every source record (the corpus reader's
    /// schema); reads of these are never use-before-def.
    pub source_fields: BTreeSet<String>,
    /// When set, run the admission pre-flight (WS002 escalates to error,
    /// WS007/WS008 fire) against this cluster at this DoP.
    pub admission: Option<(ClusterSpec, usize)>,
    /// When set, the admission pre-flight models sharded execution: each
    /// node hosts `ceil(shards / nodes)` worker *processes*, each with a
    /// full per-worker memory footprint, instead of DoP threads sharing
    /// one footprint (see [`crate::cluster::admit_sharded`]).
    pub shards: Option<usize>,
    /// When set, WS011 fires for `store:` sinks naming a store outside
    /// this set. `None` (the default) only checks that store-sink names
    /// parse, since most callers execute plans without any store bound.
    pub known_stores: Option<BTreeSet<String>>,
    /// When set, the plan is destined for incremental (live) execution:
    /// WS012 fires for reduces that cannot fold round-by-round.
    pub live: bool,
    /// `(records, avg_bytes_per_record)` expected from each source. Seeds
    /// the field-flow cost envelopes with absolute numbers; without it
    /// envelopes are relative to one nominal source record.
    pub source_estimate: Option<(u64, u64)>,
    /// Per-operator `(records_ratio, bytes_ratio)` measured on a previous
    /// run (output/input from the profiler's per-operator metrics). A
    /// calibrated operator's envelope uses the measured point ratios
    /// instead of its declared/per-kind selectivity interval.
    pub calibration: BTreeMap<String, (f64, f64)>,
}

impl Default for AnalyzeOptions {
    fn default() -> AnalyzeOptions {
        AnalyzeOptions {
            source_fields: ["id", "corpus", "text", "url"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            admission: None,
            shards: None,
            known_stores: None,
            live: false,
            source_estimate: None,
            calibration: BTreeMap::new(),
        }
    }
}

impl AnalyzeOptions {
    /// Enables the admission pre-flight against `cluster` at `dop`.
    pub fn with_admission(mut self, cluster: ClusterSpec, dop: usize) -> AnalyzeOptions {
        self.admission = Some((cluster, dop));
        self
    }

    /// Makes the admission pre-flight model `shards` worker processes
    /// per plan instead of one multi-threaded process.
    pub fn with_shards(mut self, shards: usize) -> AnalyzeOptions {
        self.shards = Some(shards);
        self
    }

    /// Enables the WS011 unknown-store check against this set of
    /// reachable store names.
    pub fn with_known_stores<S: Into<String>>(
        mut self,
        stores: impl IntoIterator<Item = S>,
    ) -> AnalyzeOptions {
        self.known_stores = Some(stores.into_iter().map(Into::into).collect());
        self
    }

    /// Marks the plan as destined for incremental (live) execution,
    /// enabling the WS012 live-reduce check.
    pub fn with_live_mode(mut self) -> AnalyzeOptions {
        self.live = true;
        self
    }

    /// Seeds the cost envelopes with `records` source records averaging
    /// `avg_bytes` each.
    pub fn with_source_estimate(mut self, records: u64, avg_bytes: u64) -> AnalyzeOptions {
        self.source_estimate = Some((records, avg_bytes));
        self
    }

    /// Records a measured `(records_ratio, bytes_ratio)` for the named
    /// operator, overriding its declared/per-kind selectivity.
    pub fn with_calibration(
        mut self,
        op_name: &str,
        records_ratio: f64,
        bytes_ratio: f64,
    ) -> AnalyzeOptions {
        self.calibration.insert(op_name.to_string(), (records_ratio, bytes_ratio));
        self
    }
}

/// Runs all plan-level checks, returning diagnostics in canonical order.
pub fn analyze_plan(plan: &LogicalPlan, opts: &AnalyzeOptions) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let contributing = contributing_nodes(plan);

    check_field_availability(plan, opts, &mut diags);
    check_library_conflicts(plan, opts, &mut diags);
    check_dead_writes(plan, &mut diags);
    check_duplicate_sinks(plan, &mut diags);
    check_unreachable(plan, &contributing, &mut diags);
    check_admission(plan, opts, &mut diags);
    check_combinability(plan, &mut diags);
    check_store_sinks(plan, opts, &mut diags);
    check_live_recompute(plan, opts, &contributing, &mut diags);
    check_type_conflicts(plan, opts, &contributing, &mut diags);
    check_fused_admission(plan, opts, &mut diags);
    check_redundant_ops(plan, &contributing, &mut diags);
    check_shippability(plan, opts, &mut diags);

    // A node already reported unreachable gets no further codes: every
    // other finding on it describes code that will never run.
    let dead: BTreeSet<usize> = diags
        .iter()
        .filter(|d| d.code == "WS006")
        .filter_map(|d| d.node)
        .collect();
    diags.retain(|d| d.code == "WS006" || d.node.is_none_or(|n| !dead.contains(&n)));

    sort_diagnostics(&mut diags);
    diags
}

/// Compiles `script` and analyzes the resulting plan, mapping node
/// diagnostics back to 1-based script lines and appending WS005 for
/// variables the script assigns but never uses.
pub fn analyze_script(
    script: &str,
    registry: &OperatorRegistry,
    opts: &AnalyzeOptions,
) -> Result<Vec<Diagnostic>, MeteorError> {
    let ScriptInfo { plan, node_lines, unused_vars } = meteor::compile_traced(script, registry)?;
    let mut diags = analyze_plan(&plan, opts);
    for d in &mut diags {
        if let Some(node) = d.node {
            if let Some(&line) = node_lines.get(node) {
                if line > 0 {
                    d.line = Some(line);
                }
            }
        }
    }
    for (name, line) in unused_vars {
        diags.push(
            Diagnostic::warning("WS005", format!("variable ${name} is assigned but never used"))
                .with_line(line),
        );
    }
    sort_diagnostics(&mut diags);
    Ok(diags)
}

/// Nodes on a path from a source to a sink (everything that affects some
/// output).
fn contributing_nodes(plan: &LogicalPlan) -> BTreeSet<NodeId> {
    let mut live = BTreeSet::new();
    // Parents have smaller ids, so one reverse sweep from the sinks
    // closes the ancestor set.
    for node in plan.nodes().iter().rev() {
        if matches!(node.op, NodeOp::Sink(_)) || live.contains(&node.id) {
            live.insert(node.id);
            if let Some(parent) = node.input {
                live.insert(parent);
            }
        }
    }
    live
}

/// WS001 / WS009: every operator's `reads` set must be available at its
/// node — produced upstream or present on source records.
fn check_field_availability(plan: &LogicalPlan, opts: &AnalyzeOptions, out: &mut Vec<Diagnostic>) {
    // Field availability at each node = parent availability ∪ parent
    // writes; sources start from the source schema.
    let mut avail: Vec<BTreeSet<String>> = Vec::with_capacity(plan.len());
    for node in plan.nodes() {
        let set = match node.input {
            None => opts.source_fields.clone(),
            Some(parent) => {
                let mut set = avail[parent].clone();
                if let NodeOp::Op(op) = &plan.nodes()[parent].op {
                    set.extend(op.writes.iter().cloned());
                    // conditionally-written fields still count as defined:
                    // use-before-def is about ordering, not coverage
                    set.extend(op.maybe_writes.iter().cloned());
                }
                set
            }
        };
        avail.push(set);
    }

    // All producers in the plan, for the nearest-producer suggestion:
    // field -> first (smallest-id) operator writing it.
    let mut producers: BTreeMap<&str, &str> = BTreeMap::new();
    for node in plan.nodes() {
        if let NodeOp::Op(op) = &node.op {
            for field in op.writes.iter().chain(&op.maybe_writes) {
                producers.entry(field.as_str()).or_insert(op.name.as_str());
            }
        }
    }

    for node in plan.nodes() {
        let NodeOp::Op(op) = &node.op else { continue };
        for field in &op.reads {
            if avail[node.id].contains(field) {
                continue;
            }
            match producers.get(field.as_str()) {
                Some(producer) => out.push(
                    Diagnostic::error(
                        "WS001",
                        format!(
                            "operator '{}' reads field '{field}' before it is defined; \
                             '{producer}' produces it — move that operator upstream",
                            op.name
                        ),
                    )
                    .with_node(node.id),
                ),
                None => out.push(
                    Diagnostic::warning(
                        "WS009",
                        format!(
                            "operator '{}' reads field '{field}' which nothing in the plan \
                             produces and the source schema does not declare",
                            op.name
                        ),
                    )
                    .with_node(node.id),
                ),
            }
        }
    }
}

/// WS002: two operators demanding different major versions of the same
/// library (the OpenNLP war story). Error when an admission context is
/// present (the simulated class loader will refuse the flow); warning
/// otherwise.
fn check_library_conflicts(plan: &LogicalPlan, opts: &AnalyzeOptions, out: &mut Vec<Diagnostic>) {
    let mut libs: BTreeMap<&str, BTreeSet<u32>> = BTreeMap::new();
    let mut users: BTreeMap<(&str, u32), &str> = BTreeMap::new();
    for node in plan.nodes() {
        if let NodeOp::Op(op) = &node.op {
            if let Some((name, version)) = &op.library {
                libs.entry(name.as_str()).or_default().insert(*version);
                users.entry((name.as_str(), *version)).or_insert(op.name.as_str());
            }
        }
    }
    for (lib, versions) in libs {
        if versions.len() < 2 {
            continue;
        }
        let listed: Vec<String> = versions
            .iter()
            .map(|v| format!("{v} ('{}')", users[&(lib, *v)]))
            .collect();
        let message = format!(
            "conflicting major versions of library '{lib}' in one flow: {}; \
             a single class loader cannot host both — split the flow or align versions",
            listed.join(" vs ")
        );
        out.push(if opts.admission.is_some() {
            Diagnostic::error("WS002", message)
        } else {
            Diagnostic::warning("WS002", message)
        });
    }
}

/// WS003: a written field that no path reads before it is overwritten or
/// the branch ends without reaching any consumer. Sinks count as readers
/// of everything (they serialize whole records).
fn check_dead_writes(plan: &LogicalPlan, out: &mut Vec<Diagnostic>) {
    for node in plan.nodes() {
        let NodeOp::Op(op) = &node.op else { continue };
        if op.name == REMOVED_IDENTITY {
            continue;
        }
        for field in &op.writes {
            if !write_is_live(plan, node.id, field) {
                out.push(
                    Diagnostic::warning(
                        "WS003",
                        format!(
                            "operator '{}' writes field '{field}' but no downstream operator \
                             or sink observes that value",
                            op.name
                        ),
                    )
                    .with_node(node.id),
                );
            }
        }
    }
}

/// Is the value `writer` leaves in `field` observed on any downstream
/// path before being overwritten?
fn write_is_live(plan: &LogicalPlan, writer: NodeId, field: &str) -> bool {
    let mut stack = plan.children(writer);
    while let Some(id) = stack.pop() {
        match &plan.nodes()[id].op {
            NodeOp::Sink(_) => return true,
            NodeOp::Op(op) => {
                if op.reads.iter().any(|f| f == field) {
                    return true;
                }
                if op.writes.iter().any(|f| f == field) {
                    continue; // overwritten on this path before any read
                }
                stack.extend(plan.children(id));
            }
            NodeOp::Source(_) => {}
        }
    }
    false
}

/// WS004: duplicate sink names — `LogicalPlan::sink` rejects these at
/// build time, but hand-mutated plans can still carry them.
fn check_duplicate_sinks(plan: &LogicalPlan, out: &mut Vec<Diagnostic>) {
    let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
    for node in plan.nodes() {
        if let NodeOp::Sink(name) = &node.op {
            if seen.insert(name.as_str(), node.id).is_some() {
                out.push(
                    Diagnostic::error(
                        "WS004",
                        format!("duplicate sink name '{name}': outputs would clobber each other"),
                    )
                    .with_node(node.id),
                );
            }
        }
    }
}

/// WS006: nodes that contribute to no sink. Identity nodes orphaned by
/// the optimizer are expected and skipped.
fn check_unreachable(
    plan: &LogicalPlan,
    contributing: &BTreeSet<NodeId>,
    out: &mut Vec<Diagnostic>,
) {
    for node in plan.nodes() {
        if contributing.contains(&node.id) {
            continue;
        }
        let label = match &node.op {
            NodeOp::Op(op) if op.name == REMOVED_IDENTITY => continue,
            NodeOp::Op(op) => format!("operator '{}'", op.name),
            NodeOp::Source(name) => format!("source '{name}'"),
            NodeOp::Sink(name) => format!("sink '{name}'"),
        };
        out.push(
            Diagnostic::warning("WS006", format!("{label} does not contribute to any sink"))
                .with_node(node.id),
        );
    }
}

/// WS007 / WS008: the admission pre-flight, mirroring
/// [`crate::cluster::admit`]'s arithmetic exactly so a plan flagged here
/// is precisely a plan the scheduler would reject.
fn check_admission(plan: &LogicalPlan, opts: &AnalyzeOptions, out: &mut Vec<Diagnostic>) {
    let Some((cluster, dop)) = &opts.admission else { return };
    let dop = *dop;

    let cores = cluster.total_cores();
    if dop > cores {
        out.push(Diagnostic::error(
            "WS008",
            format!("requested DoP {dop} exceeds the cluster's {cores} total cores"),
        ));
    }

    let memory_per_worker: u64 = plan.operators().map(|op| op.cost.memory_bytes).sum();
    let workers_per_node = workers_per_node(dop, opts.shards, cluster);
    let node_ram = cluster.nodes.iter().map(|n| n.ram_bytes).min().unwrap_or(0);
    if memory_per_worker.saturating_mul(workers_per_node as u64) > node_ram {
        let gb = |b: u64| b as f64 / (1u64 << 30) as f64;
        let unit = if opts.shards.is_some() { "shards" } else { "workers" };
        out.push(Diagnostic::error(
            "WS007",
            format!(
                "flow needs {:.1} GB per worker x {workers_per_node} {unit}/node but nodes \
                 have {:.1} GB; reduce operator footprints, lower DoP, or split the flow",
                gb(memory_per_worker),
                gb(node_ram)
            ),
        ));
    }
}

/// Mirrors [`crate::cluster::admit_sharded`]'s placement arithmetic: with
/// shards, each node hosts `ceil(shards / nodes)` full worker processes;
/// without, DoP threads spread across nodes.
fn workers_per_node(dop: usize, shards: Option<usize>, cluster: &ClusterSpec) -> usize {
    match shards {
        Some(s) => s.max(1).div_ceil(cluster.nodes.len()).max(1),
        None => dop.div_ceil(cluster.nodes.len()).max(1),
    }
}

/// WS017: under sharding, an operator without a wire form — built from
/// an ad-hoc closure rather than a `packages::*` constructor — cannot be
/// rebuilt inside a worker shard, so the executor keeps the whole fused
/// stage it belongs to on the local runner (counted at run time in
/// `PhysicalStats::stages_pinned_local`). Correct, and usually not what
/// a sharded run was configured for. Stages are the default
/// fusion/combining schedule's, named by their operators.
fn check_shippability(plan: &LogicalPlan, opts: &AnalyzeOptions, out: &mut Vec<Diagnostic>) {
    if opts.shards.is_none() {
        return;
    }
    let op_at = |id: NodeId| match &plan.nodes()[id].op {
        NodeOp::Op(op) => Some(op),
        _ => None,
    };
    for stage in plan_stages(plan, true, true) {
        let members = stage.first..stage.first + stage.len;
        let names: Vec<&str> = members.clone().filter_map(op_at).map(|op| op.name.as_str()).collect();
        for id in members {
            let Some(op) = op_at(id).filter(|op| op.wire().is_none()) else { continue };
            out.push(
                Diagnostic::info(
                    "WS017",
                    format!(
                        "operator '{}' is closure-built and has no wire form, so under sharding \
                         its stage [{}] runs on the local runner instead of the worker shards; \
                         build it from a packages:: constructor to ship it",
                        op.name,
                        names.join(" -> ")
                    ),
                )
                .with_node(id),
            );
        }
    }
}

/// WS010: a `Reduce` whose aggregate is a `Custom` closure. The executor
/// cannot pre-aggregate inside fused stages for these — opaque closures
/// have no combine step — so the full group ships to the final reduce.
/// Silent, correct, and often unintended when a typed
/// [`crate::operator::Aggregate`] would express the same computation, or
/// when the closure is associative and could declare an explicit merge
/// contract via [`crate::operator::Operator::reduce_custom_combinable`].
fn check_combinability(plan: &LogicalPlan, out: &mut Vec<Diagnostic>) {
    for node in plan.nodes() {
        let NodeOp::Op(op) = &node.op else { continue };
        if op.kind == crate::operator::Kind::Reduce && !op.combinable_reduce() {
            out.push(
                Diagnostic::info(
                    "WS010",
                    format!(
                        "reduce '{}' uses a custom aggregate closure, which disables partial \
                         aggregation (every group ships uncombined); use a typed Aggregate \
                         (Count/Sum/Min/Max/Concat/TopK), or opt in with an explicit \
                         seed/fold/merge contract via reduce_custom_combinable, to enable \
                         combining",
                        op.name
                    ),
                )
                .with_node(node.id),
            );
        }
    }
}

/// WS011: every `store:` sink must parse as `store:<store>/<dataset>`,
/// and — when the caller declares which stores the run can reach — must
/// name one of them. Records routed to a store the executor cannot
/// deliver to fail the whole run, so this is an error, caught pre-flight.
fn check_store_sinks(plan: &LogicalPlan, opts: &AnalyzeOptions, out: &mut Vec<Diagnostic>) {
    for node in plan.nodes() {
        let NodeOp::Sink(name) = &node.op else { continue };
        if !name.starts_with(STORE_SINK_PREFIX) {
            continue;
        }
        match parse_store_sink(name) {
            None => out.push(
                Diagnostic::error(
                    "WS011",
                    format!(
                        "sink '{name}' does not parse as 'store:<store>/<dataset>'; records \
                         routed to a store need both a store and a dataset name"
                    ),
                )
                .with_node(node.id),
            ),
            Some((store, _)) => {
                if let Some(known) = &opts.known_stores {
                    if !known.contains(store) {
                        let known_list =
                            known.iter().cloned().collect::<Vec<_>>().join(", ");
                        out.push(
                            Diagnostic::error(
                                "WS011",
                                format!(
                                    "sink '{name}' targets unknown store '{store}' (reachable \
                                     stores: {known_list})"
                                ),
                            )
                            .with_node(node.id),
                        );
                    }
                }
            }
        }
    }
}

/// WS012: the two reduces the live session's incremental compiler
/// rejects, both errors. A `Custom` reduce has no retainable per-key
/// state — an opaque closure cannot be folded round-by-round
/// (`NonCombinableReduce`) — and a reduce (typed or custom) that does not
/// feed exactly one sink directly cannot be split out of the delta plan
/// (`ReduceNotTerminal`). The terminality test mirrors that compiler's
/// rule verbatim: one child, and it is a sink. Only reduces that
/// contribute to some sink are considered; a reduce on a dead branch is
/// WS006's finding, not this check's.
fn check_live_recompute(
    plan: &LogicalPlan,
    opts: &AnalyzeOptions,
    contributing: &BTreeSet<NodeId>,
    out: &mut Vec<Diagnostic>,
) {
    if !opts.live {
        return;
    }
    for node in plan.nodes() {
        let NodeOp::Op(op) = &node.op else { continue };
        if op.kind != crate::operator::Kind::Reduce || !contributing.contains(&node.id) {
            continue;
        }
        let children = plan.children(node.id);
        let terminal =
            children.len() == 1 && matches!(plan.nodes()[children[0]].op, NodeOp::Sink(_));
        if !terminal {
            out.push(
                Diagnostic::error(
                    "WS012",
                    format!(
                        "reduce '{}' feeds further operators instead of a sink; the live \
                         session folds reduces as terminal per-round state and will reject \
                         this plan — move post-aggregation work out of the live flow",
                        op.name
                    ),
                )
                .with_node(node.id),
            );
        } else if !op.combinable_reduce() {
            out.push(
                Diagnostic::error(
                    "WS012",
                    format!(
                        "reduce '{}' uses a custom aggregate closure, which cannot fold \
                         incrementally, so the live session will reject this plan; use a typed \
                         Aggregate (Count/Sum/Min/Max/Concat/TopK), or an explicit merge \
                         contract via reduce_custom_combinable, to retain per-key state across \
                         rounds",
                        op.name
                    ),
                )
                .with_node(node.id),
            );
        }
    }
}

/// WS013: an operator declares it reads a field under one type while the
/// field's producer (per the field-flow schema) declared another. The
/// runtime record model would surface this as a confusing per-record
/// failure deep into execution; statically it is a one-line contract
/// violation.
///
/// `Unknown` on either side never conflicts (undeclared types are opaque,
/// not wrong), and a field the schema does not carry at all is WS001 /
/// WS009 territory, not a *type* conflict.
fn check_type_conflicts(
    plan: &LogicalPlan,
    opts: &AnalyzeOptions,
    contributing: &BTreeSet<NodeId>,
    out: &mut Vec<Diagnostic>,
) {
    use websift_analyze::lattice::FieldType;
    let flow = crate::fieldflow::field_flow(plan, opts);
    for node in plan.nodes() {
        let NodeOp::Op(op) = &node.op else { continue };
        if op.read_types.is_empty() || !contributing.contains(&node.id) {
            continue;
        }
        let Some(input) = flow.input(plan, node.id) else { continue };
        for (field, want) in &op.read_types {
            let Some(fact) = input.schema.get(field) else { continue };
            if *want == FieldType::Unknown || fact.ty == FieldType::Unknown || fact.ty == *want {
                continue;
            }
            let found = fact.ty.as_str();
            let source = match &fact.producer {
                Some(producer) => format!("'{producer}' writes it as {found}"),
                None => format!("the source schema declares it as {found}"),
            };
            out.push(
                Diagnostic::error(
                    "WS013",
                    format!(
                        "operator '{}' reads field '{field}' as {} but {source}; align the \
                         declared types or drop the stricter annotation",
                        op.name,
                        want.as_str()
                    ),
                )
                .with_node(node.id),
            );
        }
    }
}

/// WS014: the fusion-aware admission refinement. Segments the plan into
/// canonical fused stages ([`crate::fieldflow::canonical_stages`]) and
/// checks the *heaviest single stage* against the same
/// per-node arithmetic as WS007 / [`crate::cluster::admit`]. A plan
/// flagged here cannot be scheduled even stage-at-a-time: fusion and
/// combining, the executor's two footprint-shrinking tools, have already
/// been assumed. (WS007 alone means the conservative whole-plan bound
/// failed; WS007 *without* WS014 means a stage-level schedule still
/// fits.)
fn check_fused_admission(plan: &LogicalPlan, opts: &AnalyzeOptions, out: &mut Vec<Diagnostic>) {
    let Some((cluster, dop)) = &opts.admission else { return };
    let stage_mem = |members: &[NodeId]| -> u64 {
        members
            .iter()
            .filter_map(|&id| match &plan.nodes()[id].op {
                NodeOp::Op(op) => Some(op.cost.memory_bytes),
                _ => None,
            })
            .sum()
    };
    let peak = crate::fieldflow::canonical_stages(plan)
        .iter()
        .map(|s| stage_mem(&s.members))
        .max()
        .unwrap_or(0);
    let workers_per_node = workers_per_node(*dop, opts.shards, cluster);
    let node_ram = cluster.nodes.iter().map(|n| n.ram_bytes).min().unwrap_or(0);
    if peak.saturating_mul(workers_per_node as u64) > node_ram {
        let gb = |b: u64| b as f64 / (1u64 << 30) as f64;
        let unit = if opts.shards.is_some() { "shards" } else { "workers" };
        out.push(Diagnostic::error(
            "WS014",
            format!(
                "even with operator fusion and combining, the heaviest fused stage needs \
                 {:.1} GB per worker x {workers_per_node} {unit}/node but nodes have {:.1} GB; \
                 no stage-level schedule fits — reduce operator footprints, lower DoP, or \
                 split the flow",
                gb(peak),
                gb(node_ram)
            ),
        ));
    }
}

/// WS015: the same operator applied twice in a row, effectively. Two
/// operator nodes on one source-to-sink path with identical annotations
/// (name, kind, package, library, reads/writes/maybe-writes) where no
/// node between them — and neither occurrence itself — changes any field
/// the operator touches are redundant: a `Filter` re-tests a predicate
/// already true, and a `Map` whose writes are pure functions of unchanged
/// reads recomputes the values it already wrote.
///
/// `FlatMap`s are excluded (applying one twice multiplies records),
/// `Reduce`s restructure records entirely, self-reading writers
/// (`writes ∩ reads ≠ ∅`) are not idempotent, and unannotated operators
/// are opaque. An intervening `Reduce` ends the search: its regrouping
/// changes what the second application sees.
fn check_redundant_ops(
    plan: &LogicalPlan,
    contributing: &BTreeSet<NodeId>,
    out: &mut Vec<Diagnostic>,
) {
    use crate::operator::{Kind, Operator};
    fn touched(op: &Operator) -> BTreeSet<&str> {
        op.reads
            .iter()
            .chain(&op.writes)
            .chain(&op.maybe_writes)
            .map(String::as_str)
            .collect()
    }
    let same_sig = |a: &Operator, b: &Operator| {
        a.name == b.name
            && a.kind == b.kind
            && a.package == b.package
            && a.library == b.library
            && a.reads == b.reads
            && a.writes == b.writes
            && a.maybe_writes == b.maybe_writes
    };
    for node in plan.nodes() {
        let NodeOp::Op(op) = &node.op else { continue };
        if !contributing.contains(&node.id)
            || !matches!(op.kind, Kind::Map | Kind::Filter)
            || (op.reads.is_empty() && op.writes.is_empty() && op.maybe_writes.is_empty())
            || op.writes.iter().chain(&op.maybe_writes).any(|w| op.reads.contains(w))
        {
            continue;
        }
        let fields = touched(op);
        let mut cur = node.input;
        while let Some(id) = cur {
            let NodeOp::Op(anc) = &plan.nodes()[id].op else { break };
            if same_sig(anc, op) {
                out.push(
                    Diagnostic::warning(
                        "WS015",
                        format!(
                            "operator '{}' appears twice on the same path with identical \
                             annotations and nothing between them changes the fields it \
                             touches; the second application is redundant",
                            op.name
                        ),
                    )
                    .with_node(node.id),
                );
                break;
            }
            if anc.kind == Kind::Reduce
                || anc.writes.iter().chain(&anc.maybe_writes).any(|w| fields.contains(w.as_str()))
            {
                break;
            }
            cur = plan.nodes()[id].input;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{Aggregate, CostModel, Operator, Package};
    use crate::record::Record;
    use websift_analyze::{has_errors, Severity};

    fn op(name: &str, reads: &[&str], writes: &[&str]) -> Operator {
        Operator::map(name, Package::Ie, |r| r)
            .with_reads(reads)
            .with_writes(writes)
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn clean_plan_has_no_diagnostics() {
        let mut plan = LogicalPlan::new();
        let src = plan.source("docs");
        let s = plan.add(src, op("sentences", &["text"], &["sentences"])).unwrap();
        let n = plan.add(s, op("negation", &["text", "sentences"], &["negation"])).unwrap();
        plan.sink(n, "out").unwrap();
        assert!(analyze_plan(&plan, &AnalyzeOptions::default()).is_empty());
    }

    #[test]
    fn use_before_def_names_the_producer() {
        let mut plan = LogicalPlan::new();
        let src = plan.source("docs");
        let n = plan.add(src, op("negation", &["text", "sentences"], &["negation"])).unwrap();
        let s = plan.add(n, op("sentences", &["text"], &["sentences"])).unwrap();
        plan.sink(s, "out").unwrap();
        let diags = analyze_plan(&plan, &AnalyzeOptions::default());
        // both writes reach the sink (which observes everything), so no WS003
        assert_eq!(codes(&diags), vec!["WS001"]);
        assert_eq!(diags[0].severity, Severity::Error);
        assert_eq!(diags[0].node, Some(1));
        assert!(diags[0].message.contains("'sentences' produces it"), "{}", diags[0].message);
    }

    #[test]
    fn unknown_field_is_a_warning_not_error() {
        let mut plan = LogicalPlan::new();
        let src = plan.source("docs");
        let g = plan.add(src, op("ghost", &["no_such_field"], &[])).unwrap();
        plan.sink(g, "out").unwrap();
        let diags = analyze_plan(&plan, &AnalyzeOptions::default());
        assert_eq!(codes(&diags), vec!["WS009"]);
        assert!(!has_errors(&diags));
    }

    #[test]
    fn library_conflict_severity_depends_on_admission_context() {
        let mut plan = LogicalPlan::new();
        let src = plan.source("docs");
        let a = plan
            .add(src, op("tokens", &["text"], &["tokens"]).with_library("opennlp", 15))
            .unwrap();
        let b = plan
            .add(a, op("disease", &["text"], &["entities"]).with_library("opennlp", 14))
            .unwrap();
        plan.sink(b, "out").unwrap();

        let local = analyze_plan(&plan, &AnalyzeOptions::default());
        assert_eq!(codes(&local), vec!["WS002"]);
        assert!(!has_errors(&local));

        let opts = AnalyzeOptions::default().with_admission(ClusterSpec::paper_cluster(), 28);
        let clustered = analyze_plan(&plan, &opts);
        assert_eq!(codes(&clustered), vec!["WS002"]);
        assert!(has_errors(&clustered));
        assert!(clustered[0].message.contains("14 ('disease') vs 15 ('tokens')"));
    }

    #[test]
    fn dead_write_detected_across_overwrite() {
        let mut plan = LogicalPlan::new();
        let src = plan.source("docs");
        // `a` writes x, `b` overwrites x without reading it, sink sees b's x
        let a = plan.add(src, op("a", &["text"], &["x"])).unwrap();
        let b = plan.add(a, op("b", &["text"], &["x"])).unwrap();
        plan.sink(b, "out").unwrap();
        let diags = analyze_plan(&plan, &AnalyzeOptions::default());
        assert_eq!(codes(&diags), vec!["WS003"]);
        assert_eq!(diags[0].node, Some(1));
    }

    #[test]
    fn branch_reads_keep_writes_live() {
        let mut plan = LogicalPlan::new();
        let src = plan.source("docs");
        let a = plan.add(src, op("a", &["text"], &["x"])).unwrap();
        // one branch overwrites x, the other reads it
        let over = plan.add(a, op("over", &["text"], &["x"])).unwrap();
        let read = plan.add(a, op("read", &["x"], &["y"])).unwrap();
        plan.sink(over, "o1").unwrap();
        plan.sink(read, "o2").unwrap();
        let diags = analyze_plan(&plan, &AnalyzeOptions::default());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unreachable_and_duplicate_sinks_flagged() {
        let mut plan = LogicalPlan::new();
        let src = plan.source("docs");
        let a = plan.add(src, op("a", &["text"], &[])).unwrap();
        plan.add(src, op("orphan", &["text"], &[])).unwrap();
        plan.sink(a, "out").unwrap();
        let diags = analyze_plan(&plan, &AnalyzeOptions::default());
        assert_eq!(codes(&diags), vec!["WS006"]);
        assert!(diags[0].message.contains("'orphan'"));
    }

    #[test]
    fn admission_preflight_matches_admit() {
        use crate::cluster::admit;
        let mut plan = LogicalPlan::new();
        let src = plan.source("docs");
        let mut prev = src;
        for (i, gb) in [20u64, 20, 20].iter().enumerate() {
            prev = plan
                .add(
                    prev,
                    op(&format!("fat{i}"), &["text"], &[]).with_cost(CostModel {
                        memory_bytes: gb << 30,
                        ..CostModel::default()
                    }),
                )
                .unwrap();
        }
        plan.sink(prev, "out").unwrap();

        let cluster = ClusterSpec::paper_cluster();
        let opts = AnalyzeOptions::default().with_admission(cluster.clone(), 28);
        let diags = analyze_plan(&plan, &opts);
        // the three maps fuse into one 60 GB stage, so the fused-stage
        // refinement (WS014) agrees with the whole-plan bound (WS007)
        assert_eq!(codes(&diags), vec!["WS007", "WS014"]);
        // the analyzer and the runtime admission agree on the arithmetic
        let err = admit(&plan, 28, &cluster).unwrap_err();
        assert!(err.to_string().contains("60.0 GB"), "{err}");
        assert!(diags[0].message.contains("60.0 GB per worker"));
        assert!(diags[0].message.contains("24.0 GB"));
        assert!(diags[1].message.contains("60.0 GB per worker"));

        let opts = AnalyzeOptions::default().with_admission(cluster, 500);
        let diags = analyze_plan(&plan, &opts);
        assert_eq!(codes(&diags), vec!["WS007", "WS008", "WS014"]);
    }

    #[test]
    fn script_diagnostics_map_to_lines() {
        let mut reg = OperatorRegistry::new();
        reg.register("ie.sentences", || op("sentences", &["text"], &["sentences"]));
        reg.register("ie.negation", || op("negation", &["text", "sentences"], &["negation"]));
        let script = "\
$pages = read 'crawl';
$neg = apply ie.negation $pages;
$sents = apply ie.sentences $neg;
write $neg 'negation';
write $sents 'sentences';";
        let diags = analyze_script(script, &reg, &AnalyzeOptions::default()).unwrap();
        assert_eq!(codes(&diags), vec!["WS001"]);
        assert_eq!(diags[0].line, Some(2));
        assert_eq!(diags[0].node, Some(1));
    }

    #[test]
    fn script_unused_vars_become_ws005() {
        let mut reg = OperatorRegistry::new();
        reg.register("ie.sentences", || op("sentences", &["text"], &["sentences"]));
        let script = "\
$pages = read 'crawl';
$dead = apply ie.sentences $pages;
write $pages 'out';";
        let diags = analyze_script(script, &reg, &AnalyzeOptions::default()).unwrap();
        // $dead's node contributes to no sink, so only WS006 reports it
        // (the dead write on the same node is suppressed — fixing a write
        // inside an unreachable branch is not the actionable repair) plus
        // the script-level WS005 for the unused variable, both on line 2
        assert_eq!(codes(&diags), vec!["WS006", "WS005"]);
        assert!(diags.iter().all(|d| d.line == Some(2)), "{diags:?}");
        assert!(diags[1].message.contains("$dead"));
    }

    #[test]
    fn custom_aggregate_reduce_is_flagged_ws010() {
        let mut plan = LogicalPlan::new();
        let src = plan.source("docs");
        let r = plan
            .add(
                src,
                Operator::reduce("tally", Package::Base, |r| format!("{:?}", r.get("corpus")), |k, rs| {
                    let mut out = Record::new();
                    out.set("key", k).set("count", rs.len());
                    vec![out]
                }),
            )
            .unwrap();
        plan.sink(r, "out").unwrap();
        let diags = analyze_plan(&plan, &AnalyzeOptions::default());
        assert_eq!(codes(&diags), vec!["WS010"]);
        assert_eq!(diags[0].severity, Severity::Info);
        assert_eq!(diags[0].node, Some(1));
        assert!(!has_errors(&diags));
        assert!(diags[0].message.contains("custom aggregate"), "{}", diags[0].message);

        // the same reduction through a typed aggregate is clean
        let mut plan = LogicalPlan::new();
        let src = plan.source("docs");
        let r = plan
            .add(
                src,
                Operator::reduce_agg(
                    "tally",
                    Package::Base,
                    |r: &Record| format!("{:?}", r.get("corpus")),
                    Aggregate::Count { into: "count".into() },
                ),
            )
            .unwrap();
        plan.sink(r, "out").unwrap();
        assert!(analyze_plan(&plan, &AnalyzeOptions::default()).is_empty());
    }

    #[test]
    fn live_mode_escalates_custom_aggregates_to_ws012() {
        let custom_reduce = || {
            Operator::reduce("tally", Package::Base, |r| format!("{:?}", r.get("corpus")), |k, rs| {
                let mut out = Record::new();
                out.set("key", k).set("count", rs.len());
                vec![out]
            })
        };
        let mut plan = LogicalPlan::new();
        let src = plan.source("docs");
        let r = plan.add(src, custom_reduce()).unwrap();
        plan.sink(r, "out").unwrap();

        // default mode: only the WS010 info
        let diags = analyze_plan(&plan, &AnalyzeOptions::default());
        assert_eq!(codes(&diags), vec!["WS010"]);

        // live mode: WS012 joins as an error on the same node
        let diags = analyze_plan(&plan, &AnalyzeOptions::default().with_live_mode());
        assert_eq!(codes(&diags), vec!["WS010", "WS012"]);
        assert_eq!(diags[1].severity, Severity::Error);
        assert_eq!(diags[1].node, Some(1));
        assert!(diags[1].message.contains("reject"), "{}", diags[1].message);

        // a typed aggregate stays clean even in live mode
        let mut plan = LogicalPlan::new();
        let src = plan.source("docs");
        let r = plan
            .add(
                src,
                Operator::reduce_agg(
                    "tally",
                    Package::Base,
                    |r: &Record| format!("{:?}", r.get("corpus")),
                    Aggregate::Count { into: "count".into() },
                ),
            )
            .unwrap();
        plan.sink(r, "out").unwrap();
        assert!(analyze_plan(&plan, &AnalyzeOptions::default().with_live_mode()).is_empty());
    }

    #[test]
    fn live_mode_rejects_non_terminal_reduces() {
        let mut plan = LogicalPlan::new();
        let src = plan.source("docs");
        let r = plan
            .add(
                src,
                Operator::reduce_agg(
                    "tally",
                    Package::Base,
                    |r: &Record| format!("{:?}", r.get("corpus")),
                    Aggregate::Count { into: "count".into() },
                ),
            )
            .unwrap();
        let post = plan.add(r, op("post", &[], &[])).unwrap();
        plan.sink(post, "out").unwrap();

        // batch mode: a typed reduce feeding a map is fine
        assert!(analyze_plan(&plan, &AnalyzeOptions::default()).is_empty());

        // live mode: the incremental compiler will reject it, so the
        // pre-flight reports an error even though the aggregate is typed
        let diags = analyze_plan(&plan, &AnalyzeOptions::default().with_live_mode());
        assert_eq!(codes(&diags), vec!["WS012"]);
        assert!(has_errors(&diags));
        assert!(diags[0].message.contains("feeds further operators"), "{}", diags[0].message);
    }

    #[test]
    fn type_conflict_flagged_ws013() {
        use websift_analyze::lattice::FieldType;
        let mut plan = LogicalPlan::new();
        let src = plan.source("docs");
        let w = plan
            .add(
                src,
                op("sentences", &["text"], &["sentences"])
                    .with_write_types(&[("sentences", FieldType::Array)]),
            )
            .unwrap();
        let r = plan
            .add(
                w,
                op("shout", &[], &["loud"]).with_read_types(&[("sentences", FieldType::Str)]),
            )
            .unwrap();
        plan.sink(r, "out").unwrap();
        let diags = analyze_plan(&plan, &AnalyzeOptions::default());
        assert_eq!(codes(&diags), vec!["WS013"]);
        assert!(has_errors(&diags));
        assert_eq!(diags[0].node, Some(2));
        assert!(
            diags[0].message.contains("'sentences' writes it as array"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn type_conflict_against_source_schema_and_unknown_tolerance() {
        use websift_analyze::lattice::FieldType;
        // reading a source field under the wrong type names the schema
        let mut plan = LogicalPlan::new();
        let src = plan.source("docs");
        let r = plan
            .add(src, op("idreader", &[], &[]).with_read_types(&[("id", FieldType::Str)]))
            .unwrap();
        plan.sink(r, "out").unwrap();
        let diags = analyze_plan(&plan, &AnalyzeOptions::default());
        assert_eq!(codes(&diags), vec!["WS013"]);
        assert!(
            diags[0].message.contains("the source schema declares it as int"),
            "{}",
            diags[0].message
        );

        // an untyped write never conflicts with a typed read
        let mut plan = LogicalPlan::new();
        let src = plan.source("docs");
        let w = plan.add(src, op("writer", &["text"], &["x"])).unwrap();
        let r = plan
            .add(w, op("reader", &[], &[]).with_read_types(&[("x", FieldType::Int)]))
            .unwrap();
        plan.sink(r, "out").unwrap();
        assert!(analyze_plan(&plan, &AnalyzeOptions::default()).is_empty());
    }

    #[test]
    fn fused_stage_refinement_passes_what_ws007_rejects() {
        // two 20 GB maps split across a custom reduce: the whole-plan sum
        // (40 GB) fails the conservative WS007 bound, but no single fused
        // stage exceeds 20 GB, so the stage-level WS014 refinement knows a
        // stage-at-a-time schedule still fits — no WS014
        let fat = |name: &str| {
            op(name, &["text"], &[]).with_cost(CostModel {
                memory_bytes: 20 << 30,
                ..CostModel::default()
            })
        };
        let mut plan = LogicalPlan::new();
        let src = plan.source("docs");
        let a = plan.add(src, fat("fat-a")).unwrap();
        let red = plan
            .add(a, Operator::reduce("split", Package::Base, |_| String::new(), |_, rs| rs))
            .unwrap();
        let b = plan.add(red, fat("fat-b")).unwrap();
        plan.sink(b, "out").unwrap();
        let opts = AnalyzeOptions::default().with_admission(ClusterSpec::paper_cluster(), 28);
        let diags = analyze_plan(&plan, &opts);
        assert_eq!(codes(&diags), vec!["WS010", "WS007"]);
        assert!(!codes(&diags).contains(&"WS014"));
    }

    #[test]
    fn redundant_duplicate_flagged_ws015() {
        let dup = || op("keep-english", &["text"], &[]);
        let mut plan = LogicalPlan::new();
        let src = plan.source("docs");
        let a = plan.add(src, dup()).unwrap();
        let mid = plan.add(a, op("sentences", &["text2"], &["sentences"])).unwrap();
        let b = plan.add(mid, dup()).unwrap();
        plan.sink(b, "out").unwrap();
        // 'sentences' reads text2 (absent everywhere) -> WS009 rides along
        let diags = analyze_plan(&plan, &AnalyzeOptions::default());
        assert!(codes(&diags).contains(&"WS015"), "{diags:?}");
        let ws015 = diags.iter().find(|d| d.code == "WS015").unwrap();
        assert_eq!(ws015.severity, Severity::Warning);
        assert_eq!(ws015.node, Some(3));
        assert!(ws015.message.contains("'keep-english'"), "{}", ws015.message);
    }

    #[test]
    fn intervening_writer_clears_ws015() {
        let dup = || op("normalize", &["text"], &["clean"]);
        let mut plan = LogicalPlan::new();
        let src = plan.source("docs");
        let a = plan.add(src, dup()).unwrap();
        // rewrites 'text', which the duplicate reads: second run differs
        let t = plan.add(a, op("truncate", &["clean"], &["text"])).unwrap();
        let b = plan.add(t, dup()).unwrap();
        plan.sink(b, "out").unwrap();
        let diags = analyze_plan(&plan, &AnalyzeOptions::default());
        assert!(!codes(&diags).contains(&"WS015"), "{diags:?}");
    }

    #[test]
    fn self_reading_writers_are_not_redundant() {
        // writes ∩ reads ≠ ∅: applying it twice is not idempotent
        let dup = || op("accumulate", &["total"], &["total"]);
        let mut plan = LogicalPlan::new();
        let src = plan.source("docs");
        let a = plan.add(src, dup()).unwrap();
        let b = plan.add(a, dup()).unwrap();
        plan.sink(b, "out").unwrap();
        let diags = analyze_plan(&plan, &AnalyzeOptions::default());
        assert!(!codes(&diags).contains(&"WS015"), "{diags:?}");
    }

    #[test]
    fn unreachable_node_reports_only_ws006() {
        let mut plan = LogicalPlan::new();
        let src = plan.source("docs");
        let a = plan.add(src, op("a", &["text"], &[])).unwrap();
        // dead branch whose operator also reads an undefined field and
        // leaves a dead write: without suppression this node would carry
        // WS009 + WS003 + WS006 at once
        plan.add(src, op("ghost", &["missing"], &["junk"])).unwrap();
        plan.sink(a, "out").unwrap();
        let diags = analyze_plan(&plan, &AnalyzeOptions::default());
        assert_eq!(codes(&diags), vec!["WS006"]);
        assert_eq!(diags[0].node, Some(2));
    }

    #[test]
    fn maybe_writes_satisfy_availability() {
        let mut plan = LogicalPlan::new();
        let src = plan.source("docs");
        let tagger = plan
            .add(src, op("tagger", &["text"], &[]).with_maybe_writes(&["negation"]))
            .unwrap();
        let reader = plan.add(tagger, op("reader", &["negation"], &["loud"])).unwrap();
        plan.sink(reader, "out").unwrap();
        // a conditionally-written field is defined (no WS001/WS009):
        // ordering is satisfied even though presence is only 'possible'
        assert!(analyze_plan(&plan, &AnalyzeOptions::default()).is_empty());
    }

    #[test]
    fn malformed_store_sink_is_flagged_ws011() {
        let mut plan = LogicalPlan::new();
        let src = plan.source("docs");
        // bypass store_sink() to build the malformed name directly
        plan.sink(src, "store:no-dataset").unwrap();
        let diags = analyze_plan(&plan, &AnalyzeOptions::default());
        assert_eq!(codes(&diags), vec!["WS011"]);
        assert!(has_errors(&diags));
        assert_eq!(diags[0].node, Some(1));
        assert!(diags[0].message.contains("store:<store>/<dataset>"), "{}", diags[0].message);
    }

    #[test]
    fn unknown_store_fires_only_with_declared_stores() {
        let mut plan = LogicalPlan::new();
        let src = plan.source("docs");
        plan.store_sink(src, "serve", "entities").unwrap();

        // no declared stores: the name parses, so nothing fires
        assert!(analyze_plan(&plan, &AnalyzeOptions::default()).is_empty());

        // the right store declared: clean
        let opts = AnalyzeOptions::default().with_known_stores(["serve"]);
        assert!(analyze_plan(&plan, &opts).is_empty());

        // a different store declared: WS011 error naming both sides
        let opts = AnalyzeOptions::default().with_known_stores(["archive"]);
        let diags = analyze_plan(&plan, &opts);
        assert_eq!(codes(&diags), vec!["WS011"]);
        assert!(has_errors(&diags));
        assert!(diags[0].message.contains("unknown store 'serve'"), "{}", diags[0].message);
        assert!(diags[0].message.contains("archive"), "{}", diags[0].message);
    }
}
