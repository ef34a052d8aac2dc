//! `corpus_analysis`: the 38-operator analysis flow of the paper's Fig. 2
//! and the token-frequency flow (Reduce, combiner, shuffle) over four
//! corpora, with no crawler and no store.
//!
//! The text and NER kernels and the flow executor do all the work, on
//! corpora whose document length differs forty-fold: PMC's long sentences
//! hit the superlinear CRF, web documents hit markup repair. Batching,
//! fusion and executor-collapse changes must show here. The latency
//! metrics time the same flow on one document at a time — the cost of
//! analysing a single abstract or page on demand, where the per-run fixed
//! cost that the bulk runs amortise is in plain view.

use websift::corpus::{CorpusKind, Document};
use websift::flow::{ExecutionError, FlowOutput, LogicalPlan};
use websift::pipeline::documents_to_records;
use websift::pipeline::flows::{full_analysis_plan, run_over_documents, token_frequency_flow};

use super::{sinks_digest, Layers, Measured, Workload, KB};
use crate::clock::{self, time};
use crate::inputs::{self, Resources, Sizes, DOP};
use crate::layers::{kernel_docs, kernel_layers, KernelDoc};
use crate::stats::fold;
use crate::trace::{median_secs, Span, Tracer};

pub struct CorpusAnalysis;

/// The four corpora with the span names their two flow runs record under.
const CORPORA: [(CorpusKind, &str, &str); 4] = [
    (CorpusKind::Medline, "flow.full.medline", "flow.tokenfreq.medline"),
    (CorpusKind::Pmc, "flow.full.pmc", "flow.tokenfreq.pmc"),
    (CorpusKind::RelevantWeb, "flow.full.relevant_web", "flow.tokenfreq.relevant_web"),
    (CorpusKind::IrrelevantWeb, "flow.full.irrelevant_web", "flow.tokenfreq.irrelevant_web"),
];

/// Share of each corpus the DoP-1 oracle re-analyses.
const ORACLE_SHARE: usize = 4;

pub struct Input {
    resources: Resources,
    corpora: Vec<Vec<Document>>,
    full: LogicalPlan,
    token_frequency: LogicalPlan,
    /// `(corpus, document)` of every single-document call.
    single_docs: Vec<(usize, usize)>,
}

pub struct Output {
    /// Per corpus, the full-analysis run and the token-frequency run.
    runs: Vec<(FlowOutput, FlowOutput)>,
}

fn run_all(
    input: &Input,
    tracer: &Tracer,
    dop: usize,
    share: usize,
) -> Result<Vec<(FlowOutput, FlowOutput)>, ExecutionError> {
    CORPORA
        .iter()
        .zip(&input.corpora)
        .map(|(&(_, full_span, tf_span), docs)| {
            let docs = &docs[..docs.len().div_ceil(share)];
            let full = tracer.span(full_span, || run_over_documents(&input.full, docs, dop))?;
            let tf =
                tracer.span(tf_span, || run_over_documents(&input.token_frequency, docs, dop))?;
            Ok((full, tf))
        })
        .collect()
}

fn digest_of(runs: &[(FlowOutput, FlowOutput)]) -> u64 {
    runs.iter().fold(0, |acc, (full, tf)| fold(fold(acc, sinks_digest(full)), sinks_digest(tf)))
}

impl Workload for CorpusAnalysis {
    const NAME: &'static str = "corpus_analysis";
    type Input = Input;
    type Output<'i> = Output;

    fn setup(seed: u64, sizes: &Sizes) -> Input {
        let resources = inputs::resources(seed);
        let counts = [
            sizes.medline_docs,
            sizes.pmc_docs,
            sizes.relevant_web_docs,
            sizes.irrelevant_web_docs,
        ];
        let corpora: Vec<Vec<Document>> = CORPORA
            .iter()
            .zip(counts)
            .map(|(&(kind, _, _), n)| inputs::corpus(kind, n, &resources.lexicon))
            .collect();
        // The documents analysed one at a time are a fixed, evenly spaced
        // sample of every corpus in proportion to its size: mostly
        // abstracts, a few long articles and pages. Those few set the tail
        // of the latency distribution, so drawing them by seed would make
        // `op_p99_us` a property of the draw (19 % spread over ten seeds).
        let total: usize = counts.iter().sum();
        let single_docs = counts
            .iter()
            .enumerate()
            .flat_map(|(corpus, &n)| {
                let calls = (sizes.single_doc_calls * n).div_ceil(total).min(n);
                (0..calls).map(move |i| (corpus, i * n / calls))
            })
            .collect();
        Input {
            full: full_analysis_plan(&resources.ie),
            token_frequency: token_frequency_flow("docs"),
            resources,
            corpora,
            single_docs,
        }
    }

    fn measure(input: &Input, tracer: &Tracer) -> (Measured, Output) {
        let mut failed = 0u64;
        let t0 = clock::now();
        let runs = run_all(input, tracer, DOP, 1).unwrap_or_else(|_| {
            failed += 1;
            Vec::new()
        });
        let wall_s = t0.secs();

        let mut op_us = Vec::with_capacity(input.single_docs.len());
        let mut single_runs = Vec::with_capacity(input.single_docs.len());
        for &(corpus, doc) in &input.single_docs {
            let doc = std::slice::from_ref(&input.corpora[corpus][doc]);
            let (out, secs) = time(|| {
                tracer.span("flow.single_doc", || run_over_documents(&input.full, doc, DOP))
            });
            op_us.push(secs * 1e6);
            match out {
                Ok(out) => single_runs.push(out),
                Err(_) => failed += 1,
            }
        }
        let digest = tracer.span("harness.digest", || {
            single_runs.iter().fold(digest_of(&runs), |acc, out| fold(acc, sinks_digest(out)))
        });

        let measured = Measured {
            wall_s,
            work: input.corpora.iter().flatten().map(Document::raw_len).sum::<usize>() as f64 / KB,
            items: input.corpora.iter().map(Vec::len).sum::<usize>() as u64,
            op_us,
            attempted: (2 * CORPORA.len() + input.single_docs.len()) as u64,
            failed,
            digest,
        };
        (measured, Output { runs })
    }

    fn verify(input: &Input, out: &Output) -> Vec<String> {
        let mut wrong = Vec::new();
        if out.runs.len() != CORPORA.len() {
            wrong.push("a flow run failed".to_string());
            return wrong;
        }
        for ((&(kind, _, _), docs), (full, tf)) in CORPORA.iter().zip(&input.corpora).zip(&out.runs)
        {
            let analysed = full.sinks.get("linguistic").map_or(0, Vec::len);
            if analysed == 0 || analysed > docs.len() {
                wrong.push(format!(
                    "{}: {analysed} of {} documents analysed",
                    kind.name(),
                    docs.len()
                ));
            }
            if tf.sinks.get("token_frequencies").is_none_or(Vec::is_empty) {
                wrong.push(format!("{}: no token frequencies", kind.name()));
            }
        }
        // A leading slice of every corpus, serially and in parallel: the
        // sinks must be byte-identical at DoP 1 and DoP 2.
        let off = Tracer::new(false);
        match (run_all(input, &off, 1, ORACLE_SHARE), run_all(input, &off, DOP, ORACLE_SHARE)) {
            (Ok(serial), Ok(parallel)) if digest_of(&serial) == digest_of(&parallel) => {}
            _ => wrong.push("flow sinks at DoP 1 differ from DoP 2".to_string()),
        }
        wrong
    }

    fn layers(input: &Input, out: &Output, passes: &[Vec<Span>], layers: &mut Layers) {
        let exec_dop2_s = median_secs(passes, "flow.full.");
        let tokenfreq_s = median_secs(passes, "flow.tokenfreq.");

        // The same full-analysis job on one thread: the baseline for scale-up.
        let all_docs: Vec<&[Document]> = input.corpora.iter().map(Vec::as_slice).collect();
        let (_, exec_dop1_s) = time(|| {
            for docs in &all_docs {
                let _ = std::hint::black_box(run_over_documents(&input.full, docs, 1));
            }
        });

        // Fixed cost of a run: analyze + optimize + stage set-up on no input.
        const EMPTY_RUNS: usize = 50;
        let (_, empty_s) = time(|| {
            for _ in 0..EMPTY_RUNS {
                let _ = std::hint::black_box(run_over_documents(&input.full, &[], DOP));
            }
        });

        let mut bytes = 0usize;
        let (_, records_build_s) = time(|| {
            for docs in &all_docs {
                bytes += docs.iter().map(Document::raw_len).sum::<usize>();
                std::hint::black_box(documents_to_records(docs));
            }
        });

        let docs: Vec<KernelDoc> = CORPORA
            .iter()
            .zip(&out.runs)
            .flat_map(|(&(kind, _, _), (full, _))| {
                kernel_docs(kind, full.sinks.get("linguistic").map_or(&[], Vec::as_slice))
            })
            .collect();
        let kernel_s = kernel_layers(&docs, &input.resources.ie, layers);

        let records_in: u64 = input.corpora.iter().map(|c| c.len() as u64).sum();
        let (mut records_out, mut stages, mut shuffle_bytes, mut simulated_s) =
            (0u64, 0usize, 0u64, 0.0);
        for (full, tf) in &out.runs {
            records_out +=
                full.sinks.values().chain(tf.sinks.values()).map(|r| r.len() as u64).sum::<u64>();
            stages = stages.max(full.stages.len());
            shuffle_bytes += tf.physical.shuffle_bytes;
            simulated_s += full.metrics.simulated_secs;
        }
        layers.insert("flow.exec_dop1_s", exec_dop1_s);
        layers.insert("flow.exec_dop2_s", exec_dop2_s);
        layers.insert(
            "flow.scaleup_dop2",
            if exec_dop2_s > 0.0 { exec_dop1_s / exec_dop2_s } else { 0.0 },
        );
        layers.insert(
            "flow.kernel_share",
            if exec_dop1_s > 0.0 { kernel_s / exec_dop1_s } else { 0.0 },
        );
        layers.insert(
            "flow.overhead_us_per_record",
            (exec_dop1_s - kernel_s) * 1e6 / records_in.max(1) as f64,
        );
        layers.insert("flow.plan_fixed_ms", empty_s * 1e3 / EMPTY_RUNS as f64);
        layers.insert("flow.stages", stages as f64);
        layers.insert("flow.records_in", records_in as f64);
        layers.insert("flow.records_out", records_out as f64);
        layers.insert("flow.tokenfreq_s", tokenfreq_s);
        layers.insert("flow.shuffle_bytes", shuffle_bytes as f64);
        layers.insert(
            "flow.simulated_over_wall",
            if exec_dop2_s > 0.0 { simulated_s / exec_dop2_s } else { 0.0 },
        );
        layers.insert(
            "pipeline.records_build_mb_per_s",
            if records_build_s > 0.0 { bytes as f64 / 1e6 / records_build_s } else { 0.0 },
        );
    }
}
