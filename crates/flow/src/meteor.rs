//! A Meteor-like declarative script front end.
//!
//! Stratosphere's flows "are specified in a declarative scripting language
//! called Meteor ... composed of primitive operators, which are defined in
//! domain-specific packages". This module implements a compact dialect
//! sufficient to express the paper's analysis flows:
//!
//! ```text
//! # comments start with '#'
//! $pages    = read 'crawl';
//! $bounded  = apply base.filter_length $pages;
//! $net      = apply wa.extract_net_text $bounded;
//! $sents    = apply ie.annotate_sentences $net;
//! $neg      = apply ie.annotate_negation $sents;
//! write $neg 'negation';
//! write $sents 'sentences';
//! ```
//!
//! Scripts compile against an [`OperatorRegistry`] into a [`LogicalPlan`],
//! which then flows through the standard analyze → execute path.
//! [`compile_traced`] additionally returns the node→line map the static
//! analyzer uses to anchor plan diagnostics back to script lines.

use crate::logical::{LogicalPlan, NodeId};
use crate::packages::OperatorRegistry;
use std::collections::BTreeMap;

/// Script compilation errors, with 1-based line numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeteorError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for MeteorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "meteor script error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for MeteorError {}

/// A compiled script plus the provenance the analyzer needs to map plan
/// diagnostics back to script positions.
#[derive(Debug, Clone)]
pub struct ScriptInfo {
    pub plan: LogicalPlan,
    /// 1-based script line that created each plan node, indexed by
    /// [`NodeId`].
    pub node_lines: Vec<usize>,
    /// Variables assigned but never consumed by `apply`/`write` (nor
    /// shadowed-after-use), as `(name, definition line)` sorted by line
    /// then name.
    pub unused_vars: Vec<(String, usize)>,
}

struct VarState {
    node: NodeId,
    def_line: usize,
    used: bool,
}

/// Compiles a script into a logical plan.
pub fn compile(script: &str, registry: &OperatorRegistry) -> Result<LogicalPlan, MeteorError> {
    compile_traced(script, registry).map(|info| info.plan)
}

/// Compiles a script, keeping node→line provenance and unused-variable
/// bookkeeping for the static analyzer.
pub fn compile_traced(
    script: &str,
    registry: &OperatorRegistry,
) -> Result<ScriptInfo, MeteorError> {
    let mut plan = LogicalPlan::new();
    let mut node_lines: Vec<usize> = Vec::new();
    // BTreeMap so the unused-variable sweep below is deterministic.
    let mut vars: BTreeMap<String, VarState> = BTreeMap::new();
    let mut unused: Vec<(String, usize)> = Vec::new();

    for (lineno, raw_line) in script.lines().enumerate() {
        let line = raw_line.trim();
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let lineno = lineno + 1;
        let err = |message: String| MeteorError { line: lineno, message };
        let stmt = line.strip_suffix(';').ok_or_else(|| err("missing ';'".into()))?.trim();

        if let Some(rest) = stmt.strip_prefix("write ") {
            // write $var 'name'
            let mut parts = rest.split_whitespace();
            let var = parts
                .next()
                .and_then(|v| v.strip_prefix('$'))
                .ok_or_else(|| err("write expects $variable".into()))?;
            let name = parts
                .next()
                .and_then(parse_quoted)
                .ok_or_else(|| err("write expects a quoted sink name".into()))?;
            if parts.next().is_some() {
                return Err(err("trailing tokens after write".into()));
            }
            let state = vars
                .get_mut(var)
                .ok_or_else(|| err(format!("unknown variable ${var}")))?;
            state.used = true;
            let node = state.node;
            let sink = plan.sink(node, &name).map_err(|e| err(e.to_string()))?;
            record_line(&mut node_lines, sink, lineno);
            continue;
        }

        // $var = read 'name'   |   $var = apply op $input
        let (lhs, rhs) = stmt
            .split_once('=')
            .ok_or_else(|| err("expected assignment or write".into()))?;
        let var = lhs
            .trim()
            .strip_prefix('$')
            .ok_or_else(|| err("assignment target must be $variable".into()))?
            .to_string();
        let rhs = rhs.trim();

        let node = if let Some(rest) = rhs.strip_prefix("read ") {
            let name = parse_quoted(rest.trim())
                .ok_or_else(|| err("read expects a quoted source name".into()))?;
            plan.source(&name)
        } else if let Some(rest) = rhs.strip_prefix("apply ") {
            let mut parts = rest.split_whitespace();
            let op_name = parts.next().ok_or_else(|| err("apply expects an operator".into()))?;
            let input = parts
                .next()
                .and_then(|v| v.strip_prefix('$'))
                .ok_or_else(|| err("apply expects $input".into()))?;
            if parts.next().is_some() {
                return Err(err("trailing tokens after apply".into()));
            }
            let input_state = vars
                .get_mut(input)
                .ok_or_else(|| err(format!("unknown variable ${input}")))?;
            input_state.used = true;
            let input_node = input_state.node;
            let op = registry
                .create(op_name)
                .ok_or_else(|| err(format!("unknown operator {op_name}")))?;
            plan.add(input_node, op).map_err(|e| err(e.to_string()))?
        } else {
            return Err(err(format!("unrecognized expression: {rhs}")));
        };
        record_line(&mut node_lines, node, lineno);
        if let Some(prev) = vars.insert(var.clone(), VarState { node, def_line: lineno, used: false })
        {
            if !prev.used {
                unused.push((var, prev.def_line));
            }
        }
    }

    unused.extend(
        vars.into_iter()
            .filter(|(_, s)| !s.used)
            .map(|(name, s)| (name, s.def_line)),
    );
    unused.sort_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(&b.0)));

    plan.validate().map_err(|e| MeteorError {
        line: 0,
        message: format!("invalid plan: {e}"),
    })?;
    Ok(ScriptInfo { plan, node_lines, unused_vars: unused })
}

fn record_line(node_lines: &mut Vec<usize>, node: NodeId, line: usize) {
    debug_assert_eq!(node_lines.len(), node);
    node_lines.resize(node + 1, 0);
    node_lines[node] = line;
}

fn parse_quoted(s: &str) -> Option<String> {
    let s = s.trim();
    let inner = s.strip_prefix('\'')?.strip_suffix('\'')?;
    Some(inner.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{Operator, Package};

    fn registry() -> OperatorRegistry {
        let mut reg = OperatorRegistry::new();
        reg.register("base.identity", || {
            Operator::map("identity", Package::Base, |r| r)
        });
        reg.register("base.keep_all", || {
            Operator::filter("keep_all", Package::Base, |_| true)
        });
        reg
    }

    #[test]
    fn compiles_linear_script() {
        let script = "
            # a comment
            $a = read 'docs';
            $b = apply base.identity $a;
            $c = apply base.keep_all $b;
            write $c 'out';
        ";
        let plan = compile(script, &registry()).unwrap();
        assert_eq!(plan.sources(), vec!["docs"]);
        assert_eq!(plan.sinks(), vec!["out"]);
        assert_eq!(plan.operator_count(), 2);
    }

    #[test]
    fn compiles_branching_script() {
        let script = "
            $a = read 'docs';
            $b = apply base.identity $a;
            $c = apply base.keep_all $b;
            $d = apply base.keep_all $b;
            write $c 'left';
            write $d 'right';
        ";
        let plan = compile(script, &registry()).unwrap();
        assert_eq!(plan.sinks().len(), 2);
    }

    #[test]
    fn traced_compile_maps_nodes_to_lines() {
        let script = "$a = read 'docs';\n$b = apply base.identity $a;\nwrite $b 'out';";
        let info = compile_traced(script, &registry()).unwrap();
        assert_eq!(info.node_lines, vec![1, 2, 3]);
        assert!(info.unused_vars.is_empty());
    }

    #[test]
    fn traced_compile_reports_unused_vars() {
        let script = "
            $a = read 'docs';
            $b = apply base.identity $a;
            $dead = apply base.keep_all $a;
            write $b 'out';
        ";
        let info = compile_traced(script, &registry()).unwrap();
        assert_eq!(info.unused_vars, vec![("dead".to_string(), 4)]);
    }

    #[test]
    fn rebinding_an_unused_var_counts_as_unused() {
        let script = "
            $a = read 'docs';
            $b = apply base.identity $a;
            $b = apply base.keep_all $a;
            write $b 'out';
        ";
        let info = compile_traced(script, &registry()).unwrap();
        assert_eq!(info.unused_vars, vec![("b".to_string(), 3)]);
    }

    #[test]
    fn error_on_unknown_operator() {
        let err = compile("$a = read 'x';\n$b = apply nope.op $a;\nwrite $b 'o';", &registry())
            .unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.message, "unknown operator nope.op");
    }

    #[test]
    fn error_on_unknown_variable() {
        let err = compile("$a = read 'x';\nwrite $zzz 'o';", &registry()).unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.message, "unknown variable $zzz");
    }

    #[test]
    fn error_on_missing_semicolon() {
        let err = compile("$a = read 'x'", &registry()).unwrap_err();
        assert_eq!(err.line, 1);
        assert_eq!(err.message, "missing ';'");
    }

    #[test]
    fn error_on_duplicate_sink_name() {
        let script = "$a = read 'x';\nwrite $a 'out';\nwrite $a 'out';";
        let err = compile(script, &registry()).unwrap_err();
        assert_eq!(err.line, 3);
        assert_eq!(err.message, "duplicate sink name 'out'");
    }

    #[test]
    fn error_on_planless_script() {
        let err = compile("$a = read 'x';", &registry()).unwrap_err();
        assert!(err.message.contains("no sink"));
    }

    #[test]
    fn variables_can_be_rebound() {
        let script = "
            $a = read 'docs';
            $a = apply base.identity $a;
            write $a 'out';
        ";
        let plan = compile(script, &registry()).unwrap();
        assert_eq!(plan.operator_count(), 1);
    }
}
