//! The live session: one crawler, one incremental flow, one store,
//! advanced round-by-round.
//!
//! [`LiveSession::advance`] is the whole loop body: step the crawler one
//! round, convert the newly accepted relevant pages into documents with
//! *global* ids (so the stream is exactly the prefix a batch run over
//! the cumulative crawl would see), run the delta plan over just those
//! records, drain `store:` sinks into the serving store with the round
//! stamped as the postings' crawl round, fold pre-reduce streams into
//! retained aggregate state, emit per-round observability, and seal a
//! [`Watermark`]. [`LiveSession::resume_from`] inverts the watermark:
//! crawler, retained state, and store are rebuilt from the frame and
//! every digest is re-verified before the session accepts another
//! round.

use std::collections::HashMap;
use std::sync::Arc;

use websift_corpus::CorpusKind;
use websift_crawler::{CrawlConfig, CrawlSession, NaiveBayes, ResilienceOptions};
use websift_analyze::Diagnostic;
use websift_flow::{
    analyze_plan, AnalyzeOptions, ExecutionConfig, Executor, LogicalPlan, Record,
};
use websift_observe::{Labels, Observer};
use websift_pipeline::{documents_from_pages, documents_to_records};
use websift_resilience::CodecError;
use websift_serve::{ExtractionStore, StoreSnapshot};
use websift_web::{SimulatedWeb, Url};

use crate::incremental::IncrementalFlow;
use crate::watermark::{LiveMetrics, Watermark, WatermarkParts};
use crate::LiveError;

/// Knobs for a live session.
#[derive(Debug, Clone)]
pub struct LiveOptions {
    /// Degree of parallelism for the per-round delta passes.
    pub dop: usize,
    /// When set, each round's delta pass runs on worker shards instead of
    /// in-process threads. Sharding never changes what a round produces —
    /// store postings, watermarks, and metrics stay byte-identical — so
    /// this is purely a physical-runtime choice.
    pub sharding: Option<websift_flow::ShardConfig>,
}

impl Default for LiveOptions {
    fn default() -> LiveOptions {
        LiveOptions { dop: 2, sharding: None }
    }
}

/// What one completed round produced.
#[derive(Debug)]
pub struct LiveRound {
    /// 1-based round id; also the crawl round stamped on this round's
    /// store postings.
    pub round: u32,
    /// Relevant documents the crawler delivered this round.
    pub new_documents: usize,
    /// Pre-reduce records folded into retained aggregate state.
    pub delta_records: usize,
    /// Plain (non-store, non-retained) sink output of the delta pass.
    pub sinks: HashMap<String, Vec<Record>>,
    /// Simulated crawl-to-queryable latency of this round: crawl time
    /// plus delta-pass time.
    pub freshness_secs: f64,
    /// The sealed replay point after this round.
    pub watermark: Watermark,
}

/// A long-running incremental crawl-to-query session.
pub struct LiveSession<'w> {
    crawl: CrawlSession<'w>,
    flow: IncrementalFlow,
    store: ExtractionStore,
    observer: Arc<Observer>,
    options: LiveOptions,
    /// Completed rounds (also the round id stamped on the *next* round's
    /// postings, minus one).
    round: u32,
    metrics: LiveMetrics,
}

impl<'w> LiveSession<'w> {
    /// Static pre-flight for a live plan: the full plan analysis in live
    /// mode (WS012 fires as an error for reduces that cannot fold
    /// round-by-round) with the store bound, so WS011 checks sink
    /// routing too. Purely advisory — [`LiveSession::start`] still
    /// performs its own typed checks — but it surfaces the complete
    /// diagnostic picture, field-flow checks included, before any
    /// crawling happens.
    pub fn preflight(plan: &LogicalPlan, store: &ExtractionStore) -> Vec<Diagnostic> {
        let opts = AnalyzeOptions::default()
            .with_live_mode()
            .with_known_stores([store.name()]);
        analyze_plan(plan, &opts)
    }

    /// Starts a fresh session: compiles `plan` for delta execution,
    /// verifies its `store:` sinks actually name `store`, and seeds the
    /// crawler. Nothing is fetched until [`LiveSession::advance`].
    #[allow(clippy::too_many_arguments)]
    pub fn start(
        web: &'w SimulatedWeb,
        classifier: NaiveBayes,
        crawl_config: CrawlConfig,
        seeds: Vec<Url>,
        res_options: &ResilienceOptions,
        plan: &LogicalPlan,
        store: ExtractionStore,
        options: LiveOptions,
        observer: Arc<Observer>,
    ) -> Result<LiveSession<'w>, LiveError> {
        let flow = IncrementalFlow::compile(plan)?;
        check_store_routing(plan, &store)?;
        let crawler = websift_crawler::FocusedCrawler::new(web, classifier, crawl_config)
            .with_observer(observer.clone());
        let crawl = CrawlSession::start(crawler, seeds, res_options);
        Ok(LiveSession {
            crawl,
            flow,
            store,
            observer,
            options,
            round: 0,
            metrics: LiveMetrics::default(),
        })
    }

    /// Rebuilds a session from a sealed [`Watermark`], verifying the
    /// crawler-frontier and store digests recorded in the frame (and,
    /// inside [`CrawlSession::resume`], that `crawl_round` is the round
    /// the crawl frame was sealed at). The
    /// resumed session continues from round `watermark.rounds() + 1` and
    /// replays byte-identically to a session that was never killed.
    pub fn resume_from(
        web: &'w SimulatedWeb,
        crawl_config: CrawlConfig,
        res_options: &ResilienceOptions,
        plan: &LogicalPlan,
        options: LiveOptions,
        observer: Arc<Observer>,
        watermark: &Watermark,
    ) -> Result<LiveSession<'w>, LiveError> {
        let parts: WatermarkParts = watermark.parts();
        let checkpoint =
            websift_crawler::CrawlCheckpoint::from_bytes(parts.crawl_round, parts.crawl_frame)?;
        let crawl = CrawlSession::resume(
            web,
            &checkpoint,
            crawl_config,
            res_options,
            None,
            observer.clone(),
        )?;
        if crawl.state_digest() != parts.frontier_digest {
            return Err(LiveError::StateMismatch {
                what: "crawler frontier digest does not match the watermark".into(),
            });
        }
        let mut flow = IncrementalFlow::compile(plan)?;
        flow.restore_state(&parts.agg_state)?;
        let store = StoreSnapshot::from_bytes(&parts.store_frame)?.restore()?;
        if store.content_digest() != parts.store_digest {
            return Err(LiveError::StateMismatch {
                what: "store content digest does not match the watermark".into(),
            });
        }
        check_store_routing(plan, &store)?;
        Ok(LiveSession {
            crawl,
            flow,
            store,
            observer,
            options,
            round: parts.rounds,
            metrics: parts.metrics,
        })
    }

    /// Runs one round end to end. Returns `Ok(None)` once the crawl is
    /// over and every accepted page has been processed; otherwise the
    /// round's results and its sealed watermark.
    pub fn advance(&mut self) -> Result<Option<LiveRound>, LiveError> {
        let crawl_secs_before = self.crawl.report().simulated_secs;
        let offset_before = self.crawl.drained_relevant();
        self.crawl.step_round();

        // Convert this round's relevant delta into documents numbered by
        // their *global* position in the crawl — the same ids
        // `Corpora::adopt_crawl` assigns over the cumulative report, so a
        // batch recompute sees an identical record stream.
        let (relevant, _irrelevant) = self.crawl.take_new_pages();
        let docs = documents_from_pages(relevant, CorpusKind::RelevantWeb, offset_before as u64);
        if docs.is_empty() && self.crawl.is_done() {
            return Ok(None);
        }

        let round_id = self.round + 1;
        let crawl_delta_secs = self.crawl.report().simulated_secs - crawl_secs_before;

        // Delta pass over just the new records; store postings carry this
        // round as their crawl round.
        let records = documents_to_records(&docs);
        let inputs =
            HashMap::from([(self.flow.source().to_string(), records)]);
        self.store.set_round(round_id);
        let mut exec_config = ExecutionConfig::local(self.options.dop);
        exec_config.sharding = self.options.sharding.clone();
        let executor = Executor::new(exec_config);
        let mut out = executor.run_into(self.flow.delta_plan(), inputs, &mut self.store)?;

        // Fold retained-reduce streams out of the sink map.
        let retained: Vec<String> =
            self.flow.retained_sinks().iter().map(|s| s.to_string()).collect();
        let mut absorbed = 0usize;
        for sink in &retained {
            if let Some(stream) = out.sinks.remove(sink) {
                absorbed += self.flow.absorb(sink, stream)?;
            }
        }

        self.metrics.rounds = round_id;
        self.metrics.new_documents += docs.len() as u64;
        self.metrics.delta_records += absorbed as u64;
        self.metrics.incremental_cost_secs += out.metrics.simulated_secs;
        self.metrics.crawl_cost_secs += crawl_delta_secs;
        self.metrics.freshness_secs = crawl_delta_secs + out.metrics.simulated_secs;
        self.metrics.retained_keys = self.flow.retained_keys() as u64;

        // Observability first, watermark second: the crawl checkpoint
        // inside the watermark snapshots the metrics registry, so a
        // resumed session restores counters *including* this round.
        self.emit_round(round_id, docs.len(), absorbed, crawl_secs_before, crawl_delta_secs, out.metrics.simulated_secs);
        let watermark = self.seal_watermark(round_id)?;
        self.round = round_id;

        Ok(Some(LiveRound {
            round: round_id,
            new_documents: docs.len(),
            delta_records: absorbed,
            sinks: out.sinks,
            freshness_secs: self.metrics.freshness_secs,
            watermark,
        }))
    }

    fn emit_round(
        &self,
        round_id: u32,
        new_documents: usize,
        delta_records: usize,
        crawl_t0: f64,
        crawl_secs: f64,
        delta_secs: f64,
    ) {
        let obs = &self.observer;
        let round_label = round_id.to_string();
        let labels = Labels::new(&[("round", &round_label)]);
        // Span timestamps ride simulated time, so traces are
        // deterministic: the delta pass starts when the round's crawling
        // stops.
        obs.tracer().span("live.crawl", crawl_t0, crawl_secs, labels.clone());
        obs.tracer().span("live.delta", crawl_t0 + crawl_secs, delta_secs, labels);
        let none = Labels::empty();
        obs.registry().counter("live.rounds", &none).inc();
        obs.registry().counter("live.new_documents", &none).add(new_documents as u64);
        obs.registry().counter("live.delta_records", &none).add(delta_records as u64);
        obs.registry().gauge("live.round", &none).set(round_id as f64);
        obs.registry()
            .gauge("live.retained_keys", &none)
            .set(self.metrics.retained_keys as f64);
        obs.registry()
            .gauge("live.freshness_secs", &none)
            .set(self.metrics.freshness_secs);
        obs.registry()
            .gauge("live.store_postings", &none)
            .set(self.store.posting_count() as f64);
        obs.registry()
            .histogram("live.round_freshness_secs", &none)
            .record(self.metrics.freshness_secs);
    }

    fn seal_watermark(&self, round_id: u32) -> Result<Watermark, LiveError> {
        let checkpoint = self.crawl.checkpoint();
        let snapshot = StoreSnapshot::capture(&self.store);
        Ok(Watermark::seal(&WatermarkParts {
            rounds: round_id,
            crawl_round: checkpoint.round,
            frontier_digest: self.crawl.state_digest(),
            crawl_frame: checkpoint.as_bytes().to_vec(),
            agg_state: self.flow.state_bytes(),
            store_frame: snapshot.as_bytes().to_vec(),
            store_digest: self.store.content_digest(),
            metrics: self.metrics.clone(),
        }))
    }

    /// The serving store, continuously fresh as rounds complete.
    pub fn store(&self) -> &ExtractionStore {
        &self.store
    }

    /// Materialized output of the retained reduce feeding `sink` — what
    /// a batch run over the cumulative corpus would put there.
    pub fn finished(&self, sink: &str) -> Result<Vec<Record>, LiveError> {
        self.flow.finished(sink)
    }

    /// Cumulative session metrics.
    pub fn metrics(&self) -> &LiveMetrics {
        &self.metrics
    }

    /// Completed rounds.
    pub fn round(&self) -> u32 {
        self.round
    }

    /// Has the crawl finished and every page been processed?
    pub fn is_done(&self) -> bool {
        self.crawl.is_done()
    }

    /// The underlying crawl session (read-only).
    pub fn crawl(&self) -> &CrawlSession<'w> {
        &self.crawl
    }

    /// The session's observer bundle.
    pub fn observer(&self) -> &Observer {
        &self.observer
    }

    /// Current retained-state bytes (what the next watermark will carry).
    pub fn state_bytes(&self) -> Vec<u8> {
        self.flow.state_bytes()
    }
}

/// Every `store:` sink in `plan` must name `store` — verified up front
/// so a misrouted plan fails with a typed error before any crawling.
fn check_store_routing(plan: &LogicalPlan, store: &ExtractionStore) -> Result<(), LiveError> {
    for (target, dataset) in plan.store_sinks() {
        if target != store.name() {
            return Err(LiveError::MisroutedStoreSink {
                sink: format!("store:{target}/{dataset}"),
                expected: store.name().to_string(),
            });
        }
    }
    Ok(())
}

impl From<CodecError> for LiveError {
    fn from(e: CodecError) -> LiveError {
        LiveError::Codec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use websift_flow::{Aggregate, Operator, Package};

    /// The static pre-flight and the incremental compiler must agree:
    /// a plan the compiler rejects with `ReduceNotTerminal` carries a
    /// WS012 error, and a plan it accepts carries none.
    #[test]
    fn preflight_agrees_with_the_incremental_compiler() {
        let store = ExtractionStore::new("serve", 4);

        let mut good = LogicalPlan::new();
        let src = good.source("docs");
        let tagged = good
            .add(
                src,
                Operator::map("ie.extract", Package::Ie, |r| r)
                    .with_reads(&["text"])
                    .with_writes(&["entities"]),
            )
            .unwrap();
        good.store_sink(tagged, "serve", "entities").unwrap();
        let diags = LiveSession::preflight(&good, &store);
        assert!(!websift_analyze::has_errors(&diags), "{diags:?}");
        assert!(IncrementalFlow::compile(&good).is_ok());

        let mut bad = LogicalPlan::new();
        let src = bad.source("docs");
        let reduce = bad
            .add(
                src,
                Operator::reduce_agg(
                    "tally",
                    Package::Base,
                    |_: &Record| "all".to_string(),
                    Aggregate::Count { into: "n".into() },
                ),
            )
            .unwrap();
        let post = bad.add(reduce, Operator::map("post", Package::Base, |r| r)).unwrap();
        bad.sink(post, "out").unwrap();
        let diags = LiveSession::preflight(&bad, &store);
        assert!(
            diags.iter().any(|d| d.code == "WS012"
                && d.severity == websift_analyze::Severity::Error),
            "{diags:?}"
        );
        assert!(matches!(
            IncrementalFlow::compile(&bad),
            Err(LiveError::ReduceNotTerminal { .. })
        ));
    }

    /// A misrouted store sink shows up in both paths: WS011 statically,
    /// `MisroutedStoreSink` from the routing check.
    #[test]
    fn preflight_flags_misrouted_store_sinks_as_ws011() {
        let store = ExtractionStore::new("serve", 4);
        let mut plan = LogicalPlan::new();
        let src = plan.source("docs");
        plan.store_sink(src, "other", "entities").unwrap();
        let diags = LiveSession::preflight(&plan, &store);
        assert!(diags.iter().any(|d| d.code == "WS011"), "{diags:?}");
        assert!(matches!(
            check_store_routing(&plan, &store),
            Err(LiveError::MisroutedStoreSink { .. })
        ));
    }
}
