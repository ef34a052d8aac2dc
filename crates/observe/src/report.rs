//! End-of-run report sink: renders the registry and the trace volume
//! into a human-readable summary table.
//!
//! The rendering is deterministic (sorted metric order, fixed float
//! formatting), so summaries can be diffed across runs the same way the
//! JSONL traces can.

use crate::registry::MetricValue;
use crate::Observer;
use std::fmt::Write as _;

fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

/// Renders a summary over `obs`: one row per metric, then trace volume.
pub fn render_summary(obs: &Observer) -> String {
    let mut out = String::new();
    out.push_str("== metrics ==\n");
    let snap = obs.registry().snapshot();
    if snap.entries.is_empty() {
        out.push_str("(none)\n");
    }
    for (name, labels, value) in &snap.entries {
        let key = if labels.is_empty() {
            name.clone()
        } else {
            format!("{name}{{{}}}", labels.render())
        };
        match value {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "{key} = {v}");
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(out, "{key} = {}", fmt_f64(*v));
            }
            MetricValue::Histogram(h) => {
                if h.is_empty() {
                    let _ = writeln!(out, "{key} : count=0");
                } else {
                    let _ = writeln!(
                        out,
                        "{key} : count={} min={} p50<={} max={}",
                        h.count,
                        fmt_f64(h.min),
                        fmt_f64(h.quantile_bound(0.5)),
                        fmt_f64(h.max),
                    );
                }
            }
        }
    }

    let (len, dropped) = (obs.tracer().len(), obs.tracer().dropped());
    if len > 0 || dropped > 0 {
        let _ = writeln!(out, "== trace == {len} events retained, {dropped} dropped");
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::{Labels, Observer};

    #[test]
    fn summary_covers_registry_and_tracer() {
        let obs = Observer::new();
        obs.registry().counter("pages_fetched", &Labels::empty()).add(10);
        obs.registry()
            .gauge("harvest_rate", &Labels::new(&[("round", "1")]))
            .set(0.75);
        obs.registry().histogram("latency", &Labels::empty()).record(1.5);
        obs.tracer().event("round_start", 0.0, Labels::empty());

        let s = obs.summary();
        assert!(s.contains("pages_fetched = 10"));
        assert!(s.contains("harvest_rate{round=1} = 0.7500"));
        assert!(s.contains("latency : count=1"));
        assert!(s.contains("1 events retained"));
    }

    #[test]
    fn empty_observer_renders() {
        let obs = Observer::new();
        assert!(obs.summary().contains("(none)"));
    }
}
