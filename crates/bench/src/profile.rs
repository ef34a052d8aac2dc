//! Flamegraph folded stacks of the executor's cost gauges, for the Fig 8 run.

use std::collections::BTreeMap;
use websift_observe::{MetricValue, RegistrySnapshot};

/// The executor's cost charges in `snap`, in simulated seconds, keyed by
/// flamegraph path: `flow;op:<op>;startup` and `flow;op:<op>;work` from
/// the per-node gauges, `flow;sink:<sink>` from the sink gauges. Nodes
/// sharing an operator name add up in node-id order, the order the
/// executor charged them.
pub(crate) fn charges(snap: &RegistrySnapshot) -> BTreeMap<Vec<String>, f64> {
    let mut by_node: Vec<(usize, Vec<String>, f64)> = Vec::new();
    for (name, labels, value) in &snap.entries {
        let MetricValue::Gauge(secs) = *value else { continue };
        let label = |key| labels.get(key).unwrap_or_default();
        let path = match name.as_str() {
            "flow.op_startup_secs" => vec![format!("op:{}", label("op")), "startup".into()],
            "flow.op_work_secs" => vec![format!("op:{}", label("op")), "work".into()],
            "flow.sink_secs" => vec![format!("sink:{}", label("sink"))],
            _ => continue,
        };
        // a sink has no node label: it sorts after every node
        let node = label("node").parse().unwrap_or(usize::MAX);
        by_node.push((node, [vec!["flow".to_string()], path].concat(), secs));
    }
    by_node.sort_by_key(|(node, _, _)| *node);
    let mut out = BTreeMap::new();
    for (_, path, secs) in by_node {
        *out.entry(path).or_insert(0.0) += secs;
    }
    out
}

/// Folded-stack (flamegraph collapsed) export of [`charges`]: one
/// `path;to;scope <microseconds>` line per path, in component-wise path
/// order, values rounded to whole simulated microseconds and zero lines
/// omitted.
pub(crate) fn folded(snap: &RegistrySnapshot) -> String {
    let mut out = String::new();
    for (path, secs) in charges(snap) {
        let usecs = (secs * 1e6).round() as u64;
        if usecs > 0 {
            out.push_str(&format!("{} {usecs}\n", path.join(";")));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::profile_exps::split_table;

    type Gauge<'a> = (&'a str, &'a [(&'a str, &'a str)], f64);

    fn snapshot_of(gauges: &[Gauge<'_>]) -> RegistrySnapshot {
        let reg = websift_observe::MetricsRegistry::default();
        for &(name, labels, secs) in gauges {
            reg.gauge(name, &websift_observe::Labels::new(labels)).set(secs);
        }
        reg.snapshot()
    }

    #[test]
    fn folded_output_is_sorted_and_parseable() {
        let snap = snapshot_of(&[
            ("flow.op_work_secs", &[("node", "2"), ("op", "z")], 0.25),
            ("flow.op_work_secs", &[("node", "10"), ("op", "a-b")], 1.5),
            ("flow.op_work_secs", &[("node", "1"), ("op", "a")], 0.6),
            ("flow.op_startup_secs", &[("node", "1"), ("op", "a")], 4.0),
            ("flow.op_startup_secs", &[("node", "2"), ("op", "z")], 0.0), // zero → omitted
            ("flow.sink_secs", &[("sink", "out")], 2e-6),
            ("flow.simulated_secs", &[], 9.0), // not a cost charge
        ]);
        // component-wise path order: `op:a` before `op:a-b`, though "a;" > "a-"
        let want = "flow;op:a;startup 4000000\n\
                    flow;op:a;work 600000\n\
                    flow;op:a-b;work 1500000\n\
                    flow;op:z;work 250000\n\
                    flow;sink:out 2\n";
        assert_eq!(folded(&snap), want);
    }

    /// Nodes sharing an operator name add up in node-id order, as charged.
    #[test]
    fn repeated_records_accumulate() {
        let (a, b, c) = (0.1, 0.2, 0.3);
        let snap = snapshot_of(&[
            ("flow.op_work_secs", &[("node", "11"), ("op", "a")], c),
            ("flow.op_work_secs", &[("node", "9"), ("op", "a")], b),
            ("flow.op_work_secs", &[("node", "1"), ("op", "a")], a),
            ("flow.op_startup_secs", &[("node", "9"), ("op", "a")], 4.0),
        ]);
        let work = ["flow", "op:a", "work"].map(String::from).to_vec();
        assert_eq!(charges(&snap)[&work].to_bits(), ((0.0 + a) + b + c).to_bits());
        assert_eq!(folded(&snap), "flow;op:a;startup 4000000\nflow;op:a;work 600000\n");
        let table = split_table(&snap, 1, 2.0);
        assert_eq!(table.rows[0][..3], ["a".to_string(), "4.0".into(), "0.6".into()]);
    }
}
