//! The four workloads and what they share: the shape of one measured pass,
//! the closed-loop query client, and the digests the oracles compare.

pub mod corpus_analysis;
pub mod crawl_to_query;
pub mod live_rounds;
pub mod query_serving;

use std::collections::BTreeMap;

use websift::flow::FlowOutput;
use websift::resilience::{codec, Snapshot, Writer};
use websift::serve::{parse_query, AdmissionController, QueryEngine};

use crate::clock::{self, Stamp};
use crate::inputs::{QueryKind, Sizes};
use crate::stats::{fold, splitmix64};
use crate::trace::{Span, Tracer};

/// What one measured pass of a workload reports to the harness.
#[derive(Debug, Default)]
pub struct Measured {
    /// Wall seconds of the throughput phase.
    pub wall_s: f64,
    /// Units of work the throughput phase completed: KB of payload
    /// (accepted pages, analysed documents) or queries.
    pub work: f64,
    /// The same phase counted in pages, documents or queries.
    pub items: u64,
    /// Latency of each user-visible operation, in microseconds.
    pub op_us: Vec<f64>,
    /// Operations attempted and failed (flow runs, queries, oracle checks).
    pub attempted: u64,
    pub failed: u64,
    /// Digest of every deterministic output of the pass.
    pub digest: u64,
}

/// Payload is counted in KB of 1000 bytes.
pub const KB: f64 = 1e3;

/// Per-layer metric values by name. Every name is declared in
/// `BENCHMARK.json`; a layer a workload does not exercise stays absent and
/// is reported as 0.
pub type Layers = BTreeMap<&'static str, f64>;

/// One workload: seeded set-up, a measured phase, an in-run oracle, and the
/// per-layer attribution of a traced pass.
pub trait Workload {
    const NAME: &'static str;
    /// Built from the seed alone, outside the measured phase.
    type Input;
    /// What the measured phase produced (it may borrow the input), kept for
    /// the oracle and for the per-layer replays over the same pages,
    /// documents and queries.
    type Output<'i>;

    fn setup(seed: u64, sizes: &Sizes) -> Self::Input;

    fn measure<'i>(input: &'i Self::Input, tracer: &Tracer) -> (Measured, Self::Output<'i>);

    /// Recomputes the outputs another way (serially, at DoP 1, from a
    /// restored snapshot, as a batch) and returns every disagreement.
    fn verify(input: &Self::Input, output: &Self::Output<'_>) -> Vec<String>;

    /// Fills per-layer metrics from the spans of the traced passes (all on
    /// this one input; timings are medians across them) and from timed
    /// replays of single layers over the last pass's own data.
    fn layers(
        input: &Self::Input,
        output: &Self::Output<'_>,
        passes: &[Vec<Span>],
        layers: &mut Layers,
    );
}

/// Digest of a flow run's sink contents (sinks in name order). Unlike
/// `FlowOutput::deterministic_digest` it leaves the simulated clock out, so
/// it is the same at every degree of parallelism.
pub fn sinks_digest(out: &FlowOutput) -> u64 {
    let mut w = Writer::new();
    out.sinks.encode(&mut w);
    codec::digest(&w.into_bytes())
}

/// One timed query.
#[derive(Debug, Clone, Copy)]
pub struct QuerySample {
    pub kind: QueryKind,
    pub start: Stamp,
    /// Parse + admit + execute.
    pub us: f64,
}

/// What one client's stream produced.
#[derive(Debug, Default)]
pub struct ClientRun {
    pub samples: Vec<QuerySample>,
    /// Fold of every response digest, in stream order.
    pub digest: u64,
    pub rows: u64,
    pub failed: u64,
}

/// Sends `stream` as one closed-loop client: the next query goes out only
/// when the previous reply is in. Each query string is parsed, admitted
/// (when a controller is given) and executed; the reply's bytes are folded
/// into the client's digest between queries.
pub fn run_client(
    engine: &QueryEngine<'_>,
    admission: Option<&AdmissionController>,
    client: usize,
    stream: &[(QueryKind, String)],
) -> ClientRun {
    let mut run = ClientRun {
        samples: Vec::with_capacity(stream.len()),
        digest: splitmix64(client as u64),
        ..ClientRun::default()
    };
    for (i, (kind, text)) in stream.iter().enumerate() {
        let start = clock::now();
        let Ok(query) = parse_query(text) else {
            run.failed += 1;
            continue;
        };
        let permit = admission.map(AdmissionController::admit_blocking);
        let response = engine.execute(&query, i as f64);
        drop(permit);
        let us = clock::now().us_since(start);
        run.samples.push(QuerySample { kind: *kind, start, us });
        run.rows += response.rows.len() as u64;
        run.digest = fold(run.digest, response.digest());
    }
    run
}

/// Combines per-client digests in client order, so the result does not
/// depend on how the client threads interleaved.
pub fn combine_digests<'a>(clients: impl IntoIterator<Item = &'a ClientRun>) -> u64 {
    clients.into_iter().fold(0, |acc, c| fold(acc, c.digest))
}

/// Records every sample as a `serve.query` child of the open span.
pub fn trace_queries(tracer: &Tracer, samples: &[QuerySample]) {
    tracer.add_children(
        "serve.query",
        samples.iter().map(|s| {
            let start = tracer.at(s.start);
            (start, start + s.us)
        }),
    );
}
