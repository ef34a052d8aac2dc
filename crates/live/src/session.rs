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
    analyze_plan, store_drains, AnalyzeOptions, ExecutionConfig, Executor, LogicalPlan, Record,
    RunOptions,
};
use websift_observe::{Labels, Observer};
use websift_pipeline::{documents_from_pages, documents_to_records};
use websift_resilience::CodecError;
use websift_serve::{ExtractionStore, StoreSnapshot};
use websift_web::{SimulatedWeb, Url};

use crate::incremental::IncrementalFlow;
use crate::watermark::{
    CrawlSection, LiveMetrics, Sections, StoreSection, Watermark, WatermarkParts,
};
use crate::LiveError;

/// The registry series [`LiveSession`] writes once per round: its
/// counters, gauges and histograms.
const LIVE_SERIES: [&[&str]; 3] = [
    &["live.rounds", "live.new_documents", "live.delta_records"],
    &["live.round", "live.retained_keys", "live.freshness_secs", "live.store_postings"],
    &["live.round_freshness_secs"],
];

/// Knobs for a live session.
#[derive(Debug, Clone)]
pub struct LiveOptions {
    /// Degree of parallelism for the per-round delta passes.
    pub dop: usize,
    /// Not a knob: its one value is `()`. It keeps
    /// `LiveOptions { dop: DOP, ..LiveOptions::default() }` in
    /// `benchmark/src/workloads/live_rounds.rs` free of clippy's
    /// `needless_update`; it goes together with that `..` update.
    #[doc(hidden)]
    pub _reserved: (),
}

impl Default for LiveOptions {
    fn default() -> LiveOptions {
        LiveOptions { dop: 2, _reserved: () }
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

/// Refuses crawl options that take cadence checkpoints: the session's
/// watermark is its frame, sealed every round.
fn no_cadence(res_options: &ResilienceOptions) -> Result<(), LiveError> {
    match res_options.checkpoint_every_rounds {
        Some(every_rounds) => Err(LiveError::CheckpointCadence { every_rounds }),
        None => Ok(()),
    }
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

    /// Starts a fresh session: refuses a crawl checkpoint cadence
    /// ([`LiveError::CheckpointCadence`]), compiles `plan` for delta
    /// execution, verifies with the executor's own check that every
    /// `store:` sink parses and names `store` (so no round is crawled for
    /// a plan the first delta pass would refuse), and seeds the crawler.
    /// Nothing is fetched until [`LiveSession::advance`].
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
        no_cadence(res_options)?;
        let flow = IncrementalFlow::compile(plan)?;
        store_drains(plan, store.name())?;
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

    /// Rebuilds a session from a sealed [`Watermark`], refusing a crawl
    /// checkpoint cadence as [`LiveSession::start`] does, and verifying the
    /// crawler-frontier and store digests recorded in the frame (and,
    /// inside [`CrawlSession::resume`], that `crawl_round` is the round
    /// the crawl frame was sealed at and its `crawl.*` series' kinds),
    /// and the kinds of the `live.*` series the crawl frame restored into
    /// `observer` before any round writes them. The
    /// resumed session continues from round `watermark.rounds() + 1` and
    /// replays byte-identically to a session that was never killed. The
    /// watermark carried no page body, so the resumed crawl report's
    /// pre-kill pages have an empty `net_text` (their content digests
    /// stay): their records went through the delta pass before the kill.
    pub fn resume_from(
        web: &'w SimulatedWeb,
        crawl_config: CrawlConfig,
        res_options: &ResilienceOptions,
        plan: &LogicalPlan,
        options: LiveOptions,
        observer: Arc<Observer>,
        watermark: &Watermark,
    ) -> Result<LiveSession<'w>, LiveError> {
        no_cadence(res_options)?;
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
        // the crawl frame restored the shared registry, `live.*` series
        // too: they must have the kinds the next round writes them as
        let [counters, gauges, histograms] = LIVE_SERIES;
        observer.registry().snapshot().check_kinds("live.", counters, gauges, histograms)?;
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
        store_drains(plan, store.name())?;
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
        let executor = Executor::new(ExecutionConfig::local(self.options.dop));
        let opts = RunOptions { store: Some(&mut self.store), ..RunOptions::default() };
        let mut out = executor.run(self.flow.delta_plan(), inputs, opts)?;

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
        let watermark = self.seal_watermark(round_id);
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

    /// Seals the round's watermark in one buffer: the crawl checkpoint
    /// (bodies from the drain cursor on, so none after `advance` drained
    /// the round) and the store snapshot are written in place inside it,
    /// and one pass hashes both nested checksums, the frontier and content
    /// digests, and the watermark's checksum.
    fn seal_watermark(&self, round_id: u32) -> Watermark {
        Sections {
            rounds: round_id,
            crawl_round: self.crawl.round(),
            crawl: CrawlSection::Live(&self.crawl),
            agg_state: &self.flow.state_bytes(),
            store: StoreSection::Live(&self.store),
            metrics: self.metrics.clone(),
        }
        .seal()
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
                    |_: &Record, k: &mut String| k.push_str("all"),
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

    /// The seal the in-place writer replaced, on the v2 layout: the crawl
    /// checkpoint with bodies from the drain cursor on, the crawler's own
    /// state digest, the store snapshot, the store's content digest and
    /// the aggregate state as separate encodes, copied into a payload
    /// encoded field by field, each frame sealed by hand around
    /// `codec::digest`.
    mod reference {
        use super::*;
        use websift_resilience::{codec, Snapshot, Writer};

        fn seal_frame(tag: &[u8; 4], version: u16, payload: &[u8]) -> Vec<u8> {
            let mut frame = tag.to_vec();
            frame.extend_from_slice(&version.to_le_bytes());
            frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            frame.extend_from_slice(payload);
            frame.extend_from_slice(&codec::digest(payload).to_le_bytes());
            frame
        }

        pub fn seal(session: &LiveSession<'_>) -> Vec<u8> {
            let mut w = Writer::new();
            let layout = session.crawl.write_checkpoint(&mut w);
            let checkpoint = seal_frame(b"WSCK", 2, &w.into_bytes()[layout.frame.payload]);
            let snapshot = StoreSnapshot::capture(&session.store);
            let mut w = Writer::new();
            w.u32(session.round);
            w.u64(session.crawl.round());
            w.bytes(&checkpoint);
            // the crawler's own encode of crawler and report, not the
            // payload segments the session hashes in place
            w.u64(session.crawl.crawler().state_digest(session.crawl.report()));
            w.bytes(&session.flow.state_bytes());
            w.bytes(snapshot.as_bytes());
            w.u64(session.store.content_digest());
            session.metrics.encode(&mut w);
            seal_frame(b"WSWM", 2, &w.into_bytes())
        }
    }

    /// Every round's watermark, sealed in one buffer and one hashing
    /// pass, is byte-equal to the reference seal of the same session:
    /// at DoP 1 and 2, under injected crawl faults, and after a resume in
    /// mid-crawl.
    mod differential {
        use super::*;
        use websift_corpus::LexiconScale;
        use websift_crawler::train_focus_classifier;
        use websift_flow::IeResources;
        use websift_ner::EntityType;
        use websift_pipeline::live_extraction_flow;
        use websift_web::{PageId, WebGraph, WebGraphConfig};

        pub(super) const STORE: &str = "live";

        fn crawl_config() -> CrawlConfig {
            CrawlConfig { max_pages: 60, threads: 4, ..CrawlConfig::default() }
        }

        pub(super) fn start<'w>(
            web: &'w SimulatedWeb,
            plan: &LogicalPlan,
            res: &ResilienceOptions,
            dop: usize,
        ) -> LiveSession<'w> {
            let seeds = (0..web.graph().num_pages() as u32)
                .map(PageId)
                .filter(|&p| web.graph().page(p).relevant)
                .take(10)
                .map(|p| web.graph().url_of(p))
                .collect();
            LiveSession::start(
                web,
                train_focus_classifier(60, 2.0, 4),
                crawl_config(),
                seeds,
                res,
                plan,
                ExtractionStore::new(STORE, 4),
                LiveOptions { dop, ..LiveOptions::default() },
                Arc::new(Observer::new()),
            )
            .expect("live session starts")
        }

        /// Advances `session` to the end, checking every watermark
        /// against the reference; returns the watermarks.
        fn run_checked(session: &mut LiveSession<'_>, what: &str) -> Vec<Watermark> {
            let mut marks = Vec::new();
            while let Some(round) = session.advance().expect("round advances") {
                let want = reference::seal(session);
                assert_eq!(
                    round.watermark.as_bytes(),
                    &want[..],
                    "{what}: watermark of round {} differs from the reference seal",
                    round.round
                );
                assert_eq!(round.watermark.rounds(), round.round);
                assert_eq!(round.watermark.store_digest(), session.store().content_digest());
                marks.push(round.watermark);
            }
            marks
        }

        #[test]
        fn differential_watermarks_equal_the_reference_seal() {
            let web = SimulatedWeb::new(WebGraph::generate(WebGraphConfig::tiny()));
            let resources = IeResources::quick_for_tests(LexiconScale::tiny());
            let plan = live_extraction_flow(&resources, EntityType::Gene, STORE);
            let injected = ResilienceOptions {
                checkpoint_every_rounds: None,
                ..ResilienceOptions::injected(0x77, 0.05, 2)
            };
            for (res, dop) in [
                (ResilienceOptions::default(), 1),
                (ResilienceOptions::default(), 2),
                (injected.clone(), 2),
            ] {
                let what = format!("dop {dop}, faults {}", res.faults.is_some());
                let marks = run_checked(&mut start(&web, &plan, &res, dop), &what);
                assert!(marks.len() >= 3, "{what}: crawl ended after {} rounds", marks.len());

                // resumed in mid-crawl from the second round's watermark
                let resumed_from = Watermark::from_bytes(marks[1].as_bytes().to_vec())
                    .expect("a sealed watermark reopens");
                let mut resumed = LiveSession::resume_from(
                    &web,
                    crawl_config(),
                    &res,
                    &plan,
                    LiveOptions { dop, ..LiveOptions::default() },
                    Arc::new(Observer::new()),
                    &resumed_from,
                )
                .expect("session resumes from its watermark");
                let tail = run_checked(&mut resumed, &format!("{what}, resumed"));
                assert_eq!(tail[..], marks[2..]);
            }
        }
    }

    /// A session whose DoP is zero gets a typed error from its first
    /// round's delta pass, not a panic in mid-session.
    #[test]
    fn zero_dop_round_is_a_flow_error() {
        use websift_flow::{ExecutionError, SchedulingError};
        use websift_web::{WebGraph, WebGraphConfig};
        let web = SimulatedWeb::new(WebGraph::generate(WebGraphConfig::tiny()));
        let mut plan = LogicalPlan::new();
        let src = plan.source("docs");
        plan.store_sink(src, differential::STORE, "entities").unwrap();
        let mut session = differential::start(&web, &plan, &ResilienceOptions::default(), 0);
        let err = session.advance().expect_err("no delta pass runs on zero workers");
        assert!(
            matches!(err, LiveError::Flow(ExecutionError::Scheduling(SchedulingError::ZeroDop))),
            "{err:?}"
        );
    }

    /// A misrouted store sink shows up in both paths: WS011 statically,
    /// `UnknownStore` from the executor's routing check.
    #[test]
    fn preflight_flags_misrouted_store_sinks_as_ws011() {
        let store = ExtractionStore::new("serve", 4);
        let mut plan = LogicalPlan::new();
        let src = plan.source("docs");
        plan.store_sink(src, "other", "entities").unwrap();
        let diags = LiveSession::preflight(&plan, &store);
        assert!(diags.iter().any(|d| d.code == "WS011"), "{diags:?}");
        assert!(matches!(
            store_drains(&plan, store.name()),
            Err(websift_flow::ExecutionError::UnknownStore { .. })
        ));
    }
}
