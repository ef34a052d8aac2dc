//! The logical optimizer: semantic-annotation-driven plan rewriting.
//!
//! This reproduces the SOFA-style optimization the authors built for
//! Stratosphere ("a Meteor script is parsed into an algebraic
//! representation, logically optimized ..."; reference [23] of the paper).
//! Rules implemented:
//!
//! 1. **Filter pull-forward** — a `Filter` moves upstream past a `Map` when
//!    the filter's read set is disjoint from the map's write set. On
//!    UDF-heavy IE flows this is the big win: relevance and length filters
//!    hop over expensive annotators.
//! 2. **Cheap-filter-first** — adjacent filters are ordered by ascending
//!    per-character cost.
//!
//! Both rules swap the operators of two adjacent nodes and leave the
//! plan's topology alone. No product flow calls [`optimize`]: it is an
//! ablation exhibit (the `optimizer_rewritten` arm of `exp_ablations`).
//! Every rewrite is recorded so that exhibit can report what fired.
//!
//! The stage decisions the executor makes ([`fused_stage`],
//! [`plan_stages`]) live here as well.

use crate::logical::{LogicalPlan, NodeId, NodeOp};
use crate::operator::Kind;

/// Physical operator fusion: length (≥ 1) of the maximal fusable chain
/// starting at `start`.
///
/// A chain extends from node `j` to node `j + 1` when:
///
/// - node `j + 1` is an operator node whose input is exactly `j`,
/// - both operators are pipelineable (Map/FlatMap/Filter — no shuffle),
/// - `j + 1` has at least one consumer (the executor skips an operator
///   on a dead branch entirely, so fusing into one would change what
///   runs).
///
/// Nothing else cuts a chain. Checkpoint boundaries inside it are
/// synthesized by the executor's replay, byte-identical to unfused
/// execution, and fan-out at `j` does not block fusion either: when `j`
/// has consumers besides `j + 1`, the executor *tees* the fused pass — it
/// taps the record stream crossing the `j`/`j + 1` boundary (in unfused
/// record order) and publishes the tap as node `j`'s live output for the
/// remaining consumers, which always carry ids beyond the chain. An edge
/// into a consumer-less operator tees harmlessly: that operator never
/// takes its input, exactly as in unfused execution.
///
/// Non-contiguous ids never fuse: the executor replays per-constituent
/// charges in node-id order, and fusing across an id gap would reorder
/// them. Fusion is physical only — the executor still charges and
/// observes every constituent separately, so chain shape never changes a
/// simulated number.
pub fn fusable_chain_len(plan: &LogicalPlan, start: NodeId) -> usize {
    let nodes = plan.nodes();
    let fusable = |id: NodeId| match &nodes[id].op {
        NodeOp::Op(op) => op.is_pipelineable(),
        _ => false,
    };
    if !fusable(start) {
        return 1;
    }
    let mut last = start;
    while last + 1 < nodes.len()
        && nodes[last + 1].input == Some(last)
        && fusable(last + 1)
        && !plan.children(last + 1).is_empty()
    {
        last += 1;
    }
    last - start + 1
}

/// One physical stage: `len` consecutive plan nodes from `first`
/// executed in one pass. When `combined_reduce` is set, the last node is
/// a Reduce run via partial aggregation (per-worker fold + final merge)
/// instead of a serial hash shuffle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageDecision {
    pub first: NodeId,
    pub len: usize,
    pub combined_reduce: bool,
}

/// The stage decision for operator node `start` — the one function both
/// the executor and the static [`plan_stages`] prediction call.
///
/// With `fusion` on, the stage is the maximal fusable chain, extended
/// *through* a trailing Reduce when `combining` is on (every typed
/// aggregate merges exactly). The extension applies the same structural
/// rules as [`fusable_chain_len`] to the Reduce node — contiguous id,
/// itself consumed; fan-out at the chain tail tees — because the
/// executor's replay walks constituents in node-id order and the Reduce
/// must be this stage's sole terminal.
///
/// A Reduce that *heads* a stage — and every node when `fusion` is off —
/// is a stage of its own, planned as combined (chunked fold + merge)
/// whenever `combining` is on: partial aggregation does not require
/// upstream fusion, only an exact merge.
pub fn fused_stage(
    plan: &LogicalPlan,
    start: NodeId,
    fusion: bool,
    combining: bool,
) -> StageDecision {
    let nodes = plan.nodes();
    let reduce = |id: NodeId| matches!(&nodes[id].op, NodeOp::Op(op) if op.kind == Kind::Reduce);
    let stage = |len, combined_reduce| StageDecision { first: start, len, combined_reduce };
    let pipelineable = matches!(&nodes[start].op, NodeOp::Op(op) if op.is_pipelineable());
    if !fusion || !pipelineable {
        return stage(1, combining && reduce(start));
    }
    let len = fusable_chain_len(plan, start);
    let last = start + len - 1;
    if combining
        && last + 1 < nodes.len()
        && nodes[last + 1].input == Some(last)
        && reduce(last + 1)
        && !plan.children(last + 1).is_empty()
    {
        return stage(len + 1, true);
    }
    stage(len, false)
}

/// Statically predicts every stage decision a fresh run of the executor
/// makes on this plan at the given `fusion`/`combining` configuration —
/// the same walk `Executor::drive` performs, calling the same
/// [`fused_stage`]. The differential proptest in `tests/explain.rs` pins
/// this against [`crate::executor::FlowOutput::stages`], the decisions
/// the executor actually recorded.
///
/// The executor skips an operator node when, at visit time, no consumer is
/// left to take its output. On a fresh run consumers are decremented only
/// by *later* nodes (children always carry larger ids), none of which have
/// run when the node is visited — so that test reduces exactly to "the
/// node has no children at all", which is what this walk checks.
pub fn plan_stages(plan: &LogicalPlan, fusion: bool, combining: bool) -> Vec<StageDecision> {
    let mut stages = Vec::new();
    let mut next = 0;
    while next < plan.len() {
        // sources, sinks and operators with no consumer start no stage
        if !matches!(plan.nodes()[next].op, NodeOp::Op(_)) || plan.children(next).is_empty() {
            next += 1;
            continue;
        }
        let stage = fused_stage(plan, next, fusion, combining);
        next += stage.len;
        stages.push(stage);
    }
    stages
}

/// A record of one applied rewrite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rewrite {
    FilterPulledForward { filter: String, past: String },
    FiltersReordered { first: String, second: String },
}

/// Optimizer entry point: rewrites the plan in place, returning the applied
/// rewrites.
pub fn optimize(plan: &mut LogicalPlan) -> Vec<Rewrite> {
    let mut rewrites = Vec::new();
    loop {
        let mut changed = false;
        changed |= pull_filters_forward(plan, &mut rewrites);
        changed |= reorder_adjacent_filters(plan, &mut rewrites);
        if !changed {
            break;
        }
    }
    rewrites
}

/// Swaps the operator payloads of two nodes (keeps plan topology).
fn swap_ops(plan: &mut LogicalPlan, a: NodeId, b: NodeId) {
    let nodes = plan.nodes_mut();
    // Safety of indexing: caller guarantees distinct valid ids.
    assert_ne!(a, b);
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    let (left, right) = nodes.split_at_mut(hi);
    std::mem::swap(&mut left[lo].op, &mut right[0].op);
}

fn op_of(plan: &LogicalPlan, id: NodeId) -> Option<&crate::operator::Operator> {
    match &plan.nodes()[id].op {
        NodeOp::Op(op) => Some(op),
        _ => None,
    }
}

/// Rule 1: move a Filter above its parent Map when field sets are disjoint
/// and the parent has exactly one consumer (this filter).
fn pull_filters_forward(plan: &mut LogicalPlan, rewrites: &mut Vec<Rewrite>) -> bool {
    let mut changed = false;
    for id in 0..plan.len() {
        let Some(filter) = op_of(plan, id) else { continue };
        if filter.kind != Kind::Filter {
            continue;
        }
        let Some(parent_id) = plan.nodes()[id].input else { continue };
        let Some(parent) = op_of(plan, parent_id) else { continue };
        if parent.kind != Kind::Map {
            continue;
        }
        // the parent must feed only this filter, or the swap changes what
        // the siblings see
        if plan.children(parent_id).len() != 1 {
            continue;
        }
        let disjoint = filter
            .reads
            .iter()
            .all(|f| !parent.writes.contains(f));
        // unannotated operators (empty read/write sets) are opaque: no move
        if disjoint && !filter.reads.is_empty() && !parent.writes.is_empty() {
            rewrites.push(Rewrite::FilterPulledForward {
                filter: filter.name.clone(),
                past: parent.name.clone(),
            });
            swap_ops(plan, id, parent_id);
            changed = true;
        }
    }
    changed
}

/// Rule 2: among two adjacent filters, run the cheaper one first.
fn reorder_adjacent_filters(plan: &mut LogicalPlan, rewrites: &mut Vec<Rewrite>) -> bool {
    let mut changed = false;
    for id in 0..plan.len() {
        let Some(second) = op_of(plan, id) else { continue };
        if second.kind != Kind::Filter {
            continue;
        }
        let Some(parent_id) = plan.nodes()[id].input else { continue };
        let Some(first) = op_of(plan, parent_id) else { continue };
        if first.kind != Kind::Filter || plan.children(parent_id).len() != 1 {
            continue;
        }
        if second.cost.us_per_char < first.cost.us_per_char {
            rewrites.push(Rewrite::FiltersReordered {
                first: second.name.clone(),
                second: first.name.clone(),
            });
            swap_ops(plan, id, parent_id);
            changed = true;
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{CostModel, Operator, Package};

    fn expensive_map() -> Operator {
        Operator::map("annotate", Package::Ie, |mut r| {
            r.set("pos", "x");
            r
        })
        .with_reads(&["text"])
        .with_writes(&["pos"])
        .with_cost(CostModel {
            us_per_char: 10.0,
            ..CostModel::default()
        })
    }

    fn cheap_filter(name: &str, field: &str) -> Operator {
        Operator::filter(name, Package::Base, |_| true)
            .with_reads(&[field])
            .with_cost(CostModel {
                us_per_char: 0.001,
                ..CostModel::default()
            })
    }

    fn op_names(plan: &LogicalPlan) -> Vec<String> {
        plan.operators().map(|o| o.name.clone()).collect()
    }

    #[test]
    fn filter_pulled_past_disjoint_map() {
        let mut plan = LogicalPlan::new();
        let src = plan.source("in");
        let m = plan.add(src, expensive_map()).unwrap();
        let f = plan.add(m, cheap_filter("len-filter", "text")).unwrap();
        plan.sink(f, "out").unwrap();
        let rewrites = optimize(&mut plan);
        assert!(matches!(rewrites[0], Rewrite::FilterPulledForward { .. }));
        assert_eq!(op_names(&plan), vec!["len-filter", "annotate"]);
        plan.validate().unwrap();
    }

    #[test]
    fn filter_not_pulled_past_dependent_map() {
        let mut plan = LogicalPlan::new();
        let src = plan.source("in");
        let m = plan.add(src, expensive_map()).unwrap();
        let f = plan.add(m, cheap_filter("pos-filter", "pos")).unwrap(); // reads what map writes
        plan.sink(f, "out").unwrap();
        let rewrites = optimize(&mut plan);
        assert!(rewrites.is_empty());
        assert_eq!(op_names(&plan), vec!["annotate", "pos-filter"]);
    }

    #[test]
    fn filter_not_pulled_when_map_has_other_consumers() {
        let mut plan = LogicalPlan::new();
        let src = plan.source("in");
        let m = plan.add(src, expensive_map()).unwrap();
        let f = plan.add(m, cheap_filter("len-filter", "text")).unwrap();
        let other = plan.add(m, cheap_filter("other", "pos")).unwrap();
        plan.sink(f, "a").unwrap();
        plan.sink(other, "b").unwrap();
        let rewrites = optimize(&mut plan);
        assert!(!rewrites
            .iter()
            .any(|r| matches!(r, Rewrite::FilterPulledForward { .. })));
    }

    #[test]
    fn adjacent_filters_ordered_by_cost() {
        let mut expensive_filter = cheap_filter("expensive", "text");
        expensive_filter.cost.us_per_char = 5.0;
        let mut plan = LogicalPlan::new();
        let src = plan.source("in");
        let a = plan.add(src, expensive_filter).unwrap();
        let b = plan.add(a, cheap_filter("cheap", "text")).unwrap();
        plan.sink(b, "out").unwrap();
        let rewrites = optimize(&mut plan);
        assert!(rewrites
            .iter()
            .any(|r| matches!(r, Rewrite::FiltersReordered { .. })));
        assert_eq!(op_names(&plan), vec!["cheap", "expensive"]);
    }

    #[test]
    fn fusable_chain_spans_maximal_pipelineable_run() {
        // src -> map -> filter -> map -> reduce -> map -> sink
        let mut plan = LogicalPlan::new();
        let src = plan.source("in");
        let a = plan.add(src, expensive_map()).unwrap();
        let b = plan.add(a, cheap_filter("f", "text")).unwrap();
        let c = plan.add(b, Operator::map("m2", Package::Base, |r| r)).unwrap();
        let count = crate::operator::Aggregate::Count { into: "n".into() };
        let red =
            plan.add(c, Operator::reduce_agg("r", Package::Base, |_, _| {}, count)).unwrap();
        let d = plan.add(red, Operator::map("m3", Package::Base, |r| r)).unwrap();
        plan.sink(d, "out").unwrap();
        assert_eq!(fusable_chain_len(&plan, a), 3, "map-filter-map fuses");
        assert_eq!(fusable_chain_len(&plan, red), 1, "reduce never fuses");
        assert_eq!(fusable_chain_len(&plan, d), 1, "sink stops the chain");
        assert_eq!(fusable_chain_len(&plan, src), 1, "source is not a chain");
    }

    #[test]
    fn fused_stage_extends_through_a_consumed_reduce_when_combining() {
        use crate::operator::Aggregate;
        // src -> map -> filter -> reduce -> sink, and the same reduce
        // left without a consumer
        let build = |consumed: bool| {
            let mut plan = LogicalPlan::new();
            let src = plan.source("in");
            let a = plan.add(src, expensive_map()).unwrap();
            let b = plan.add(a, cheap_filter("f", "text")).unwrap();
            let count = Aggregate::Count { into: "n".into() };
            let red = Operator::reduce_agg("r", Package::Base, |_, _| {}, count);
            let red = plan.add(b, red).unwrap();
            plan.sink(if consumed { red } else { b }, "out").unwrap();
            (plan, a, red)
        };

        let stage = |first, len, combined_reduce| StageDecision { first, len, combined_reduce };
        let (plan, a, red) = build(true);
        assert_eq!(
            fused_stage(&plan, a, true, true),
            stage(a, 3, true),
            "chain extends through the reduce"
        );
        assert_eq!(
            fused_stage(&plan, a, true, false),
            stage(a, 2, false),
            "combining off stops the chain before the reduce"
        );
        assert_eq!(
            fused_stage(&plan, red, true, true),
            stage(red, 1, true),
            "a lone reduce still pre-aggregates"
        );
        assert_eq!(fused_stage(&plan, red, true, false), stage(red, 1, false));
        assert_eq!(fused_stage(&plan, a, false, true), stage(a, 1, false), "fusion off");
        assert_eq!(
            fused_stage(&plan, red, false, true),
            stage(red, 1, true),
            "fusion off still pre-aggregates"
        );

        let (plan, a, _) = build(false);
        assert_eq!(
            fused_stage(&plan, a, true, true),
            stage(a, 2, false),
            "nothing fuses into a reduce no one consumes"
        );
    }

    #[test]
    fn fan_out_tees_instead_of_cutting_the_chain() {
        let mut plan = LogicalPlan::new();
        let src = plan.source("in");
        let a = plan.add(src, Operator::map("a", Package::Base, |r| r)).unwrap();
        let b = plan.add(a, Operator::map("b", Package::Base, |r| r)).unwrap();
        let c = plan.add(b, Operator::map("c", Package::Base, |r| r)).unwrap();
        let side = plan.add(b, Operator::map("side", Package::Base, |r| r)).unwrap();
        plan.sink(c, "x").unwrap();
        plan.sink(side, "y").unwrap();
        // b has two consumers; the chain fuses through it anyway — the
        // executor tees b's stream to `side` at the interior boundary
        assert_eq!(fusable_chain_len(&plan, a), 3);
        // `side` is not contiguous with the chain, so it stands alone
        assert_eq!(fusable_chain_len(&plan, side), 1);
    }

    #[test]
    fn orphaned_consumer_blocks_fusion_into_it() {
        // a -> dead (no consumer), a -> keep -> sink
        let mut plan = LogicalPlan::new();
        let src = plan.source("in");
        let a = plan.add(src, Operator::map("a", Package::Base, |r| r)).unwrap();
        let dead = plan.add(a, Operator::map("dead", Package::Base, |r| r)).unwrap();
        let f = plan.add(a, cheap_filter("keep", "text")).unwrap();
        plan.sink(f, "out").unwrap();
        plan.validate().unwrap();
        // the dead end is `a`'s contiguous successor but has zero
        // consumers: it never runs, so nothing may fuse into it (the
        // filter hangs off `a` on a non-contiguous edge, and the dead
        // end's input edge merely tees)
        assert_eq!(fusable_chain_len(&plan, a), 1);
        assert_eq!(fusable_chain_len(&plan, dead), 1);
    }
}
