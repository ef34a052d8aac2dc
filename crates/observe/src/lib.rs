//! Deterministic observability for the websift pipeline.
//!
//! The paper's entire Section 4 is an observability artifact: the
//! startup-dominated dictionary taggers, the superlinear CRF costs, the
//! OOM-infeasible flows, and the network-overload war story all came from
//! measuring per-operator cost and resource pressure. This crate is the
//! unified instrumentation substrate the rest of the workspace reports
//! through:
//!
//! - [`registry`] — a lock-cheap **metrics registry**: counters, gauges,
//!   and log-scaled histograms with mergeable state, keyed by metric name
//!   plus a label set. Handles are `Arc`-backed atomics, so the hot path
//!   after the first lookup is a single atomic op. Registry state
//!   snapshots through the `websift-resilience` codec, which lets
//!   checkpoint frames carry it and resumed runs continue their counters
//!   bit-identically. It is the only aggregate: cost attribution (the
//!   executor's per-operator start-up and work seconds) lives in it too,
//!   so it survives a kill and resume like every other series.
//! - [`trace`] — **structured tracing**: spans and events stamped with
//!   *logical-clock* timestamps (simulated seconds, never wall clock), a
//!   ring-buffered collector, and JSONL export. Because every timestamp
//!   comes from the deterministic simulated clocks, two same-seed runs
//!   export byte-identical event streams.
//! - [`report`] — the end-of-run **report sink** rendering a summary
//!   table over the registry and the trace volume.
//! - [`json`] — the tiny JSON writer behind the JSONL trace export and
//!   the bench harness's `BENCH_RESULTS.json`.
//!
//! # Determinism contract
//!
//! Nothing in this crate reads wall clocks, random state, or iteration
//! order of unordered containers on its output paths. All exports
//! (registry snapshots, JSONL traces, report tables) are
//! byte-deterministic functions of the recorded observations, and
//! histogram merge is associative and count-preserving, so partitioned
//! observation streams can be combined in any grouping.

pub mod json;
pub mod registry;
pub mod report;
pub mod trace;

pub use registry::{
    Counter, Gauge, Histogram, HistogramState, Labels, MetricValue, MetricsRegistry,
    RegistrySnapshot,
};
pub use trace::{TraceEvent, Tracer};

/// The bundle the pipeline threads through itself: one registry (every
/// aggregate, checkpointed with the state it describes) and one tracer
/// (the event stream). Cheap to share (`Arc<Observer>`), safe to use
/// from worker threads, and deterministic as long as observations are
/// recorded from deterministic points (the crawler's round loop and the
/// flow executor's drive loop both are).
#[derive(Debug, Default)]
pub struct Observer {
    registry: MetricsRegistry,
    tracer: Tracer,
}

impl Observer {
    pub fn new() -> Observer {
        Observer::default()
    }

    /// An observer whose trace ring buffer holds `capacity` events.
    pub fn with_trace_capacity(capacity: usize) -> Observer {
        Observer {
            registry: MetricsRegistry::default(),
            tracer: Tracer::with_capacity(capacity),
        }
    }

    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Renders the end-of-run summary table (see [`report`]).
    pub fn summary(&self) -> String {
        report::render_summary(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observer_bundles_registry_and_tracer() {
        let obs = Observer::new();
        obs.registry().counter("x", &Labels::empty()).add(3);
        obs.tracer().event("e", 1.0, Labels::empty());
        assert_eq!(obs.registry().counter("x", &Labels::empty()).value(), 3);
        assert_eq!(obs.tracer().len(), 1);
        assert!(obs.summary().contains('x'));
    }
}
