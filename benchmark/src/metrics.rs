//! Every metric and workload the benchmark declares, in one table.
//! `BENCHMARK.json` is generated from it (`-- manifest`) and `-- check`
//! fails when the two disagree, so a name, unit or bound is written once.

use websift::observe::json::escape;

/// How long one run measures, in seconds (the `--seconds` the driver passes).
pub const RUN_SECONDS: u64 = 15;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, better: Better::Lower }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, better: Better::Higher }
}

/// `(name, why)` of each workload; README.md has a paragraph on each.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "crawl_to_query",
        "Seed URLs to a queryable posting: focused crawl to frontier exhaustion, entity flows into a sharded store, snapshot, probe queries. The crawler does most of the work.",
    ),
    (
        "corpus_analysis",
        "The 38-operator analysis flow and the token-frequency Reduce over four corpora whose document length differs 40x; no crawler, no store: text/NER kernels and the flow executor do all the work.",
    ),
    (
        "query_serving",
        "Read-only serving: two closed-loop clients send a lookup/since/cooccur/stats mix skewed toward long posting lists; crawler and IE cost appear only in set-up.",
    ),
    (
        "live_rounds",
        "The same layers used differently: many small crawl rounds, a tiny flow run per round, store writes beside probe reads, and a watermark that snapshots the growing store every round.",
    ),
];

/// End-to-end metrics with the share of the parent's median by which each
/// may worsen. Every workload reports every one of them, tracing off.
///
/// `work_per_s` counts the workload's own unit of work: a KB of accepted
/// page payload (`crawl_to_query`, `live_rounds`), a KB of documents
/// analysed (`corpus_analysis`), a query (`query_serving`). Payload, not
/// pages or documents, because cost follows text length: pages per second
/// swings +-10 % with the seed's page mix, KB per second +-1 %. `op_p50_us`/`op_p99_us` time the operation a
/// caller waits for: one query (parse + admit + execute) on the three
/// workloads that have a store, one single-document analysis call on
/// `corpus_analysis`. Each is computed per pass and reported as the median
/// over the run's passes.
///
/// Each bound is at least three times the widest interquartile spread ten
/// runs at ten seeds showed for the metric on any workload on a quiet host
/// (README.md has the table), and wide enough that a minute of a slower
/// host — runs 13 % slower were seen, four in a row — does not push a
/// spread past it. Peak memory is not here: it is a maximum, and over passes
/// whose number depends on the host's speed it spread by up to 16 %; the
/// traced run reports it as `bench.peak_rss_mb`.
pub const END_TO_END: &[(Metric, f64)] = &[
    (higher("work_per_s", "1/s"), 0.20),
    (lower("op_p50_us", "us"), 0.20),
    (lower("op_p99_us", "us"), 0.25),
    (lower("setup_s", "s"), 0.25),
];

/// Per-layer metrics of the traced run. "->" in README.md names the
/// end-to-end metric each should move, and on which workload.
pub const PER_LAYER: &[Metric] = &[
    // web: the synthetic substrate — a change here is a change of load
    lower("web.fetch_us_per_page", "us"),
    lower("web.bytes_per_page", "bytes"),
    // crawler
    lower("crawler.crawl_s", "s"),
    lower("crawler.rounds", "count"),
    lower("crawler.pages_fetched", "count"),
    higher("crawler.pages_accepted", "count"),
    higher("crawler.harvest_rate", "ratio"),
    lower("crawler.reject_share", "ratio"),
    lower("crawler.fetch_failed", "count"),
    lower("crawler.links_us_per_page", "us"),
    lower("crawler.boilerplate_us_per_page", "us"),
    lower("crawler.filters_us_per_page", "us"),
    lower("crawler.classify_us_per_page", "us"),
    lower("crawler.frontier_s", "s"),
    // text
    lower("text.langid_us_per_page", "us"),
    higher("text.sentences_mb_per_s", "MB/s"),
    higher("text.tokenize_mb_per_s", "MB/s"),
    higher("text.pos_tokens_per_s", "tokens/s"),
    // ner
    higher("ner.dict_mb_per_s", "MB/s"),
    higher("ner.dict_mentions", "count"),
    higher("ner.crf_tokens_per_s.medline", "tokens/s"),
    higher("ner.crf_tokens_per_s.pmc", "tokens/s"),
    higher("ner.crf_mentions", "count"),
    // flow
    lower("flow.exec_dop1_s", "s"),
    lower("flow.exec_dop2_s", "s"),
    higher("flow.scaleup_dop2", "ratio"),
    higher("flow.kernel_share", "ratio"),
    lower("flow.overhead_us_per_record", "us"),
    lower("flow.plan_fixed_ms", "ms"),
    lower("flow.stages", "count"),
    higher("flow.records_in", "count"),
    higher("flow.records_out", "count"),
    lower("flow.tokenfreq_s", "s"),
    lower("flow.shuffle_bytes", "bytes"),
    lower("flow.simulated_over_wall", "ratio"),
    // pipeline (crates/core)
    higher("pipeline.records_build_mb_per_s", "MB/s"),
    lower("pipeline.extract_s", "s"),
    // serve, write side
    higher("serve.ingest_records_per_s", "records/s"),
    higher("serve.postings", "count"),
    higher("serve.keys", "count"),
    lower("serve.snapshot_ms", "ms"),
    lower("serve.restore_ms", "ms"),
    lower("serve.snapshot_bytes_per_posting", "bytes"),
    // serve, read side
    lower("serve.parse_us", "us"),
    lower("serve.admit_us", "us"),
    lower("serve.lookup_p50_us", "us"),
    lower("serve.lookup_p99_us", "us"),
    lower("serve.cooccur_p50_us", "us"),
    lower("serve.cooccur_p99_us", "us"),
    lower("serve.stats_p50_us", "us"),
    lower("serve.stats_p99_us", "us"),
    lower("serve.rows_per_query", "count"),
    higher("serve.client_scaling", "ratio"),
    // live
    lower("live.rounds", "count"),
    higher("live.new_docs", "count"),
    lower("live.advance_s", "s"),
    lower("live.crawl_step_s", "s"),
    lower("live.delta_s", "s"),
    lower("live.seal_ms_last", "ms"),
    lower("live.watermark_bytes_last", "bytes"),
    lower("live.round_p50_ms", "ms"),
    lower("live.round_max_ms", "ms"),
    higher("live.fresh_docs_per_s", "docs/s"),
    lower("live.retained_keys", "count"),
    lower("live.probe_p50_us_first", "us"),
    lower("live.probe_p50_us_last", "us"),
    // resilience
    lower("resilience.crawl_checkpoint_ms", "ms"),
    lower("resilience.checkpoint_bytes", "bytes"),
    // bench: the harness itself
    higher("bench.items_per_s", "1/s"),
    lower("bench.peak_rss_mb", "MB"),
    lower("bench.pass_s", "s"),
    lower("bench.throughput_wall_s", "s"),
    lower("bench.trace_overhead_share", "ratio"),
    lower("bench.unattributed_share", "ratio"),
    lower("bench.self_s.crawler", "s"),
    lower("bench.self_s.pipeline", "s"),
    lower("bench.self_s.flow", "s"),
    lower("bench.self_s.serve", "s"),
    lower("bench.self_s.live", "s"),
    lower("bench.self_s.harness", "s"),
    lower("bench.self_s.unattributed", "s"),
];

/// The text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let metric = |m: &Metric, bound: Option<f64>| {
        let bound = bound.map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "{{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
            escape(m.name),
            escape(m.unit),
            escape(m.better.as_str())
        )
    };
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.map(escape).join(", "),
        list(WORKLOADS
            .iter()
            .map(|(name, why)| format!("{{\"name\": {}, \"why\": {}}}", escape(name), escape(why)))
            .collect()),
        list(END_TO_END.iter().map(|(m, bound)| metric(m, Some(*bound))).collect()),
        list(PER_LAYER.iter().map(|m| metric(m, None)).collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_fit_the_benchmark_contract() {
        let all: Vec<&Metric> = END_TO_END.iter().map(|(m, _)| m).chain(PER_LAYER).collect();
        let names: BTreeSet<&str> = all.iter().map(|m| m.name).collect();
        assert_eq!(names.len(), all.len(), "a metric name is used twice");
        for m in all {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {}",
                m.name,
                m.unit
            );
        }
        assert!(END_TO_END.iter().all(|(_, bound)| *bound > 0.0 && *bound <= 0.25));
        let setup =
            END_TO_END.iter().find(|(m, _)| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.0.unit, setup.0.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|(_, bound)| *bound <= setup.1),
            "setup_s has the largest bound"
        );
        for (name, why) in WORKLOADS {
            assert!(name_ok(name) && why.len() <= 200 && !why.contains('\n'), "{name}");
        }
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn manifest_is_valid_json_with_exactly_the_contract_keys() {
        let doc = crate::json::parse(&manifest_json()).unwrap();
        let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
        );
        assert_eq!(doc.get("end_to_end").unwrap().as_arr().len(), END_TO_END.len());
        assert_eq!(doc.get("per_layer").unwrap().as_arr().len(), PER_LAYER.len());
        assert_eq!(doc.get("workloads").unwrap().as_arr().len(), WORKLOADS.len());
        assert!(manifest_json().len() < 64 * 1024);
    }
}
