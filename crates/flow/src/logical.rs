//! Logical plans: DAGs of operators between named sources and sinks.
//!
//! A Meteor script "is parsed into an algebraic representation, logically
//! optimized, and compiled into a parallel data flow program". This module
//! is that algebraic representation: single-input operator nodes (the
//! paper's flows are trees — one source fanning out into linguistic and
//! entity branches), named sources and sinks.

use crate::operator::Operator;

/// Node id within a plan.
pub type NodeId = usize;

/// Sink-name prefix marking a sink that feeds a persistent store instead
/// of an in-memory output dataset. The full convention is
/// `store:<store>/<dataset>`; [`parse_store_sink`] splits it.
///
/// Store routing rides on sink *names* rather than a new [`NodeOp`]
/// variant so every existing plan pass (fusion, analysis, checkpointing,
/// the executor's drive loop) keeps working unchanged — only
/// a run given a [`crate::RunOptions::store`] and the WS011 diagnostic
/// give the prefix meaning.
pub const STORE_SINK_PREFIX: &str = "store:";

/// Splits a store-sink name into `(store, dataset)`. Returns `None` when
/// the name does not carry the [`STORE_SINK_PREFIX`] or is malformed
/// (missing `/`, empty store, or empty dataset).
pub fn parse_store_sink(name: &str) -> Option<(&str, &str)> {
    let rest = name.strip_prefix(STORE_SINK_PREFIX)?;
    let (store, dataset) = rest.split_once('/')?;
    if store.is_empty() || dataset.is_empty() {
        return None;
    }
    Some((store, dataset))
}

/// Structural errors raised while building a plan. Plans are often built
/// from untrusted Meteor scripts, so construction must not panic — these
/// propagate through `meteor::compile` as line-mapped script errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The referenced input node does not exist in the plan.
    UnknownInput { node: NodeId, len: usize },
    /// A sink with this output name already exists in the plan.
    DuplicateSink { name: String },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::UnknownInput { node, len } => {
                write!(f, "unknown input node {node} (plan has {len} nodes)")
            }
            PlanError::DuplicateSink { name } => write!(f, "duplicate sink name '{name}'"),
        }
    }
}

impl std::error::Error for PlanError {}

/// A plan node.
// In realistic plans nearly every node is an `Op`, so boxing the large
// variant would buy no aggregate memory and cost a pointer chase in the
// executor's drive loop.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum NodeOp {
    /// Reads the named input dataset.
    Source(String),
    /// Applies an operator to the parent's output.
    Op(Operator),
    /// Writes the parent's output to the named output dataset.
    Sink(String),
}

#[derive(Debug, Clone)]
pub struct Node {
    pub id: NodeId,
    pub op: NodeOp,
    /// Parent node (None for sources).
    pub input: Option<NodeId>,
}

/// The logical plan.
#[derive(Debug, Clone, Default)]
pub struct LogicalPlan {
    nodes: Vec<Node>,
}

impl LogicalPlan {
    pub fn new() -> LogicalPlan {
        LogicalPlan::default()
    }

    /// Adds a source node reading dataset `name`.
    pub fn source(&mut self, name: &str) -> NodeId {
        self.push(NodeOp::Source(name.to_string()), None)
    }

    /// Adds an operator node downstream of `input`.
    pub fn add(&mut self, input: NodeId, op: Operator) -> Result<NodeId, PlanError> {
        self.check_input(input)?;
        Ok(self.push(NodeOp::Op(op), Some(input)))
    }

    /// Adds a sink writing `input`'s records to dataset `name`. Sink names
    /// are output datasets, so duplicates are rejected.
    pub fn sink(&mut self, input: NodeId, name: &str) -> Result<NodeId, PlanError> {
        self.check_input(input)?;
        if self.sinks().contains(&name) {
            return Err(PlanError::DuplicateSink { name: name.to_string() });
        }
        Ok(self.push(NodeOp::Sink(name.to_string()), Some(input)))
    }

    /// Adds a sink that routes `input`'s records into dataset `dataset`
    /// of the persistent store `store` (via the `store:` name
    /// convention). The plan still executes everywhere a plain sink
    /// would; a run given a [`crate::RunOptions::store`] drains the
    /// records into the store afterwards.
    pub fn store_sink(
        &mut self,
        input: NodeId,
        store: &str,
        dataset: &str,
    ) -> Result<NodeId, PlanError> {
        self.sink(input, &format!("{STORE_SINK_PREFIX}{store}/{dataset}"))
    }

    fn check_input(&self, input: NodeId) -> Result<(), PlanError> {
        if input < self.nodes.len() {
            Ok(())
        } else {
            Err(PlanError::UnknownInput { node: input, len: self.nodes.len() })
        }
    }

    fn push(&mut self, op: NodeOp, input: Option<NodeId>) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(Node { id, op, input });
        id
    }

    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    pub fn nodes_mut(&mut self) -> &mut [Node] {
        &mut self.nodes
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of elementary operator nodes (the paper counts its full flow
    /// at 38).
    pub fn operator_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.op, NodeOp::Op(_)))
            .count()
    }

    /// All operators in the plan.
    pub fn operators(&self) -> impl Iterator<Item = &Operator> {
        self.nodes.iter().filter_map(|n| match &n.op {
            NodeOp::Op(op) => Some(op),
            _ => None,
        })
    }

    /// Sink names.
    pub fn sinks(&self) -> Vec<&str> {
        self.nodes
            .iter()
            .filter_map(|n| match &n.op {
                NodeOp::Sink(name) => Some(name.as_str()),
                _ => None,
            })
            .collect()
    }

    /// Source names.
    pub fn sources(&self) -> Vec<&str> {
        self.nodes
            .iter()
            .filter_map(|n| match &n.op {
                NodeOp::Source(name) => Some(name.as_str()),
                _ => None,
            })
            .collect()
    }

    /// Children of a node.
    pub fn children(&self, id: NodeId) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.input == Some(id))
            .map(|n| n.id)
            .collect()
    }

    /// Is a sink the one and only consumer of node `id`? The live rule
    /// for a Reduce: a live session retains its per-key state in place of
    /// running it, which only works when nothing but a sink reads it. The
    /// incremental compiler and the WS012 pre-flight both ask this.
    pub fn feeds_only_a_sink(&self, id: NodeId) -> bool {
        let children = self.children(id);
        children.len() == 1 && matches!(self.nodes[children[0]].op, NodeOp::Sink(_))
    }

    /// Validates structural invariants: every non-source has a parent with
    /// a smaller id (acyclic by construction), every sink is a leaf, and at
    /// least one source and sink exist.
    pub fn validate(&self) -> Result<(), String> {
        if self.sources().is_empty() {
            return Err("plan has no source".into());
        }
        if self.sinks().is_empty() {
            return Err("plan has no sink".into());
        }
        for node in &self.nodes {
            match (&node.op, node.input) {
                (NodeOp::Source(_), Some(_)) => {
                    return Err(format!("source node {} has an input", node.id))
                }
                (NodeOp::Source(_), None) => {}
                (_, None) => return Err(format!("node {} has no input", node.id)),
                (_, Some(p)) if p >= node.id => {
                    return Err(format!("node {} input {} out of order", node.id, p))
                }
                _ => {}
            }
            if matches!(node.op, NodeOp::Sink(_)) && !self.children(node.id).is_empty() {
                return Err(format!("sink node {} has children", node.id));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{Operator, Package};

    fn identity(name: &str) -> Operator {
        Operator::map(name, Package::Base, |r| r)
    }

    #[test]
    fn builds_linear_plan() {
        let mut plan = LogicalPlan::new();
        let src = plan.source("docs");
        let a = plan.add(src, identity("a")).unwrap();
        let b = plan.add(a, identity("b")).unwrap();
        plan.sink(b, "out").unwrap();
        assert_eq!(plan.operator_count(), 2);
        assert_eq!(plan.sources(), vec!["docs"]);
        assert_eq!(plan.sinks(), vec!["out"]);
        plan.validate().unwrap();
    }

    #[test]
    fn builds_branching_plan() {
        let mut plan = LogicalPlan::new();
        let src = plan.source("docs");
        let shared = plan.add(src, identity("preprocess")).unwrap();
        let l = plan.add(shared, identity("linguistic")).unwrap();
        let e = plan.add(shared, identity("entities")).unwrap();
        plan.sink(l, "ling").unwrap();
        plan.sink(e, "ents").unwrap();
        assert_eq!(plan.children(shared).len(), 2);
        assert_eq!(plan.sinks().len(), 2);
        plan.validate().unwrap();
    }

    #[test]
    fn validation_catches_missing_sink() {
        let mut plan = LogicalPlan::new();
        plan.source("docs");
        assert!(plan.validate().is_err());
    }

    #[test]
    fn add_rejects_unknown_input() {
        let mut plan = LogicalPlan::new();
        assert_eq!(
            plan.add(42, identity("x")),
            Err(PlanError::UnknownInput { node: 42, len: 0 })
        );
        let err = plan.add(42, identity("x")).unwrap_err();
        assert_eq!(err.to_string(), "unknown input node 42 (plan has 0 nodes)");
    }

    #[test]
    fn store_sink_names_parse_back() {
        let mut plan = LogicalPlan::new();
        let src = plan.source("docs");
        plan.store_sink(src, "serve", "entities").unwrap();
        plan.sink(src, "plain").unwrap();
        assert_eq!(plan.sinks(), vec!["store:serve/entities", "plain"]);
        assert_eq!(parse_store_sink(plan.sinks()[0]), Some(("serve", "entities")));
        plan.validate().unwrap();
    }

    #[test]
    fn parse_store_sink_rejects_malformed_names() {
        assert_eq!(parse_store_sink("store:serve/entities"), Some(("serve", "entities")));
        // dataset may itself contain '/': split at the first one
        assert_eq!(parse_store_sink("store:s/a/b"), Some(("s", "a/b")));
        assert_eq!(parse_store_sink("plain"), None);
        assert_eq!(parse_store_sink("store:missing-slash"), None);
        assert_eq!(parse_store_sink("store:/entities"), None);
        assert_eq!(parse_store_sink("store:serve/"), None);
    }

    #[test]
    fn sink_rejects_duplicate_names() {
        let mut plan = LogicalPlan::new();
        let src = plan.source("docs");
        plan.sink(src, "out").unwrap();
        let err = plan.sink(src, "out").unwrap_err();
        assert_eq!(err, PlanError::DuplicateSink { name: "out".into() });
        assert_eq!(err.to_string(), "duplicate sink name 'out'");
    }
}
