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
//! [`Watermark`]: whole for round 1, the round's changes after that.
//! [`LiveSession::resume_from`] inverts the chain of watermarks: crawler,
//! retained state, and store are rebuilt from the first frame, every
//! later frame is checked against the one before it and replayed, and
//! the digests are re-verified before the session accepts another round.

use std::collections::HashMap;
use std::sync::Arc;

use websift_corpus::CorpusKind;
use websift_crawler::{
    CrawlCheckpoint, CrawlConfig, CrawlCursor, CrawlSession, NaiveBayes, ResilienceOptions,
};
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
use crate::watermark::{CrawlSection, LiveMetrics, Sections, StoreSection, Watermark};
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
    /// The checksum of the last watermark sealed or replayed: the link of
    /// the next one. `None` before the first, which is whole.
    previous: Option<u64>,
    /// Where the crawl stood at that watermark: the next one carries what
    /// changed since.
    crawl_since: CrawlCursor,
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
            previous: None,
            crawl_since: CrawlCursor::default(),
        })
    }

    /// Rebuilds a session from the chain of watermarks it sealed for
    /// rounds 1..k (any prefix of them), refusing a crawl checkpoint
    /// cadence as [`LiveSession::start`] does. The first frame must be
    /// whole and each later one must name the checksum of the frame before
    /// it and the next round ([`LiveError::BrokenChain`] otherwise); the
    /// frames are replayed in order — crawl frame, retained keys, store
    /// postings — each crawl frame checked inside
    /// [`CrawlSession::resume`] / [`CrawlSession::apply_frame`] (sealed
    /// round, series kinds, carried bodies). Then, once: the kinds of the
    /// `live.*` series the last crawl frame restored into `observer`
    /// before any round writes them, the last frame's frontier digest
    /// against the replayed crawl's rewrite of that frame's segments, and
    /// the store's content digest. The resumed session continues from
    /// round k + 1 and replays byte-identically to a session that was
    /// never killed. No watermark carries a page body, so the resumed
    /// crawl report's pre-kill pages have an empty `net_text` (their
    /// content digests stay): their records went through the delta pass
    /// before the kill.
    pub fn resume_from(
        web: &'w SimulatedWeb,
        crawl_config: CrawlConfig,
        res_options: &ResilienceOptions,
        plan: &LogicalPlan,
        options: LiveOptions,
        observer: Arc<Observer>,
        chain: &[Watermark],
    ) -> Result<LiveSession<'w>, LiveError> {
        no_cadence(res_options)?;
        let Some((head, tail)) = chain.split_first() else {
            return Err(LiveError::BrokenChain { round: 0, why: "the chain has no frame" });
        };
        let first = head.sections();
        if first.previous.is_some() {
            return Err(LiveError::BrokenChain {
                round: first.rounds,
                why: "the chain's first frame extends an earlier frame",
            });
        }
        let checkpoint =
            CrawlCheckpoint::from_bytes(first.crawl_round, first.crawl_frame.to_vec())?;
        let mut crawl = CrawlSession::resume(
            web,
            &checkpoint,
            crawl_config,
            res_options,
            None,
            observer.clone(),
        )?;
        let mut flow = IncrementalFlow::compile(plan)?;
        flow.restore_state(first.agg_state)?;
        let mut store = StoreSnapshot::from_bytes(first.store_frame)?.restore()?;
        let (mut last, mut since) = (head, CrawlCursor::default());
        for frame in tail {
            let next = frame.sections();
            if next.previous != Some(last.checksum()) {
                return Err(LiveError::BrokenChain {
                    round: next.rounds,
                    why: "the frame does not extend the frame before it in the chain",
                });
            }
            if Some(next.rounds) != last.rounds().checked_add(1) {
                return Err(LiveError::BrokenChain {
                    round: next.rounds,
                    why: "the frame is not of the round after the frame before it",
                });
            }
            since = crawl.cursor();
            crawl.apply_frame(&CrawlCheckpoint::from_bytes(
                next.crawl_round,
                next.crawl_frame.to_vec(),
            )?)?;
            flow.apply_state(next.agg_state, false)?;
            StoreSnapshot::from_bytes(next.store_frame)?.restore_into(&mut store)?;
            last = frame;
        }
        let sealed = last.sections();
        // the crawl frames restored the shared registry, `live.*` series
        // too: they must have the kinds the next round writes them as
        let [counters, gauges, histograms] = LIVE_SERIES;
        observer.registry().snapshot().check_kinds("live.", counters, gauges, histograms)?;
        if crawl.state_digest_since(&since) != sealed.frontier_digest {
            return Err(LiveError::StateMismatch {
                what: "crawler frontier digest does not match the watermark".into(),
            });
        }
        if store.content_digest() != sealed.store_digest {
            return Err(LiveError::StateMismatch {
                what: "store content digest does not match the watermark".into(),
            });
        }
        store_drains(plan, store.name())?;
        Ok(LiveSession {
            crawl_since: crawl.cursor(),
            crawl,
            flow,
            store,
            observer,
            options,
            round: sealed.rounds,
            metrics: sealed.metrics,
            previous: Some(last.checksum()),
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
        let watermark = self.seal_round(round_id);

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

    /// Seals the round's watermark in one buffer: round 1's whole, every
    /// later one the round's changes — the crawl frame since the previous
    /// watermark's cursor (no bodies: `advance` drained the round), the
    /// keys the round folded, the postings stamped with the round — and
    /// the previous watermark's checksum. The crawl frame and store
    /// snapshot are written in place, and one pass hashes both nested
    /// checksums, the frontier digest and the watermark's checksum. The
    /// store's content digest is of the whole store.
    ///
    /// The session then stands at the watermark: round `round_id` is
    /// complete, and the next watermark links this one and carries what
    /// changes after it.
    fn seal_round(&mut self, round_id: u32) -> Watermark {
        let whole = self.previous.is_none();
        let agg_state =
            if whole { self.flow.state_bytes() } else { self.flow.changed_state_bytes() };
        let watermark = Sections {
            rounds: round_id,
            crawl_round: self.crawl.round(),
            previous: self.previous,
            crawl: CrawlSection::Live { session: &self.crawl, since: &self.crawl_since },
            agg_state: &agg_state,
            store: StoreSection::Live {
                store: &self.store,
                first_round: if whole { 0 } else { round_id },
            },
            store_digest: self.store.content_digest(),
            metrics: self.metrics.clone(),
        }
        .seal();
        self.round = round_id;
        self.previous = Some(watermark.checksum());
        self.crawl_since = self.crawl.cursor();
        self.flow.sealed();
        watermark
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

    /// The seal from separately encoded v3 parts: the crawl frame written
    /// since the previous watermark's cursor on a buffer of its own, the
    /// crawler's own digest of its segments, the round's posting lists as
    /// a store snapshot of their own, the whole store's content digest,
    /// and the retained keys whose state changed since the previous
    /// watermark (the live flow's one reduce counts, so every fold changes
    /// its key) found by comparing whole-state encodes — each frame
    /// sealed by hand around `codec::digest`.
    mod reference {
        use super::*;
        use std::collections::BTreeMap;
        use websift_resilience::{codec, Reader, Snapshot, Writer};

        fn seal_frame(tag: &[u8; 4], version: u16, payload: &[u8]) -> Vec<u8> {
            let mut frame = tag.to_vec();
            frame.extend_from_slice(&version.to_le_bytes());
            frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            frame.extend_from_slice(payload);
            frame.extend_from_slice(&codec::digest(payload).to_le_bytes());
            frame
        }

        /// A reduce's encoded header and its keys' encoded states.
        type Retained = (Vec<u8>, BTreeMap<String, Vec<u8>>);

        /// Whole retained-state bytes split into each reduce's header and
        /// its keys' encoded states.
        fn keys_of(state: &[u8]) -> Vec<Retained> {
            let mut r = Reader::new(state);
            let reduces = r.usize().unwrap();
            (0..reduces)
                .map(|_| {
                    let mut head = Writer::new();
                    head.str(&r.str().unwrap());
                    head.str(&r.str().unwrap());
                    head.u8(r.u8().unwrap());
                    let keys = (0..r.usize().unwrap())
                        .map(|_| {
                            let key = r.str().unwrap();
                            let mut w = Writer::new();
                            websift_flow::AggState::decode(&mut r).unwrap().encode(&mut w);
                            (key, w.into_bytes())
                        })
                        .collect();
                    (head.into_bytes(), keys)
                })
                .collect()
        }

        /// The keys of `now` not in `before` with the same state.
        fn changed(before: &[u8], now: &[u8]) -> Vec<u8> {
            let before = keys_of(before);
            let mut w = Writer::new();
            w.usize(before.len());
            for ((head, now), (_, before)) in keys_of(now).into_iter().zip(before) {
                w.raw(&head);
                let changed: Vec<_> =
                    now.iter().filter(|(k, v)| before.get(*k) != Some(v)).collect();
                w.usize(changed.len());
                for (key, state) in changed {
                    w.str(key);
                    w.raw(state);
                }
            }
            w.into_bytes()
        }

        /// The watermark `session` sealed for its last round, whose
        /// previous watermark had `previous` as checksum and left the
        /// crawl at `since` and the retained state at `state_before`.
        pub fn seal(
            session: &LiveSession<'_>,
            previous: Option<u64>,
            since: &CrawlCursor,
            state_before: &[u8],
        ) -> Vec<u8> {
            let whole = previous.is_none();
            let mut w = Writer::new();
            let layout = session.crawl.write_frame(since, &mut w);
            let checkpoint = seal_frame(b"WSCK", 3, &w.into_bytes()[layout.frame.payload]);
            let mut w = Writer::new();
            let first_round = if whole { 0 } else { session.round };
            let layout = StoreSnapshot::write_from_round(&session.store, first_round, &mut w);
            let snapshot = seal_frame(b"WSST", 1, &w.into_bytes()[layout.frame.payload]);
            let state = session.flow.state_bytes();
            let mut w = Writer::new();
            w.u32(session.round);
            w.u64(session.crawl.round());
            previous.encode(&mut w);
            w.bytes(&checkpoint);
            // the crawler's own encode of crawler and report, not the
            // payload segments the session hashes in place
            w.u64(session.crawl.state_digest_since(since));
            w.bytes(&if whole { state } else { changed(state_before, &state) });
            w.bytes(&snapshot);
            w.u64(session.store.content_digest());
            session.metrics.encode(&mut w);
            seal_frame(b"WSWM", 3, &w.into_bytes())
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
            loop {
                // a chain's first watermark is whole: written since the
                // empty crawl, not since the seeded one
                let previous = session.previous;
                let since = match previous {
                    None => CrawlCursor::default(),
                    Some(_) => session.crawl.cursor(),
                };
                let state_before = session.flow.state_bytes();
                let Some(round) = session.advance().expect("round advances") else { break };
                let want = reference::seal(session, previous, &since, &state_before);
                assert_eq!(
                    round.watermark.as_bytes(),
                    &want[..],
                    "{what}: watermark of round {} differs from the reference seal",
                    round.round
                );
                assert_eq!(round.watermark.rounds(), round.round);
                assert_eq!(round.watermark.previous(), previous);
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

                // resumed in mid-crawl from the chain of the first two rounds
                let chain: Vec<Watermark> = marks[..2]
                    .iter()
                    .map(|m| Watermark::from_bytes(m.as_bytes().to_vec()).expect("reopens"))
                    .collect();
                let mut resumed = LiveSession::resume_from(
                    &web,
                    crawl_config(),
                    &res,
                    &plan,
                    LiveOptions { dop, ..LiveOptions::default() },
                    Arc::new(Observer::new()),
                    &chain,
                )
                .expect("session resumes from its watermarks");
                let tail = run_checked(&mut resumed, &format!("{what}, resumed"));
                assert_eq!(tail[..], marks[2..]);
            }
        }
    }

    /// A round that delivers no page and changes nothing seals a frame of
    /// the same size however many pages the crawl has accepted: sealed
    /// after the last round of two crawls of different sizes.
    #[test]
    fn an_idle_round_seals_a_frame_whose_size_the_crawl_does_not_change() {
        use websift_corpus::LexiconScale;
        use websift_crawler::train_focus_classifier;
        use websift_flow::IeResources;
        use websift_ner::EntityType;
        use websift_pipeline::live_extraction_flow;
        use websift_web::{PageId, WebGraph, WebGraphConfig};

        let web = SimulatedWeb::new(WebGraph::generate(WebGraphConfig::tiny()));
        let resources = IeResources::quick_for_tests(LexiconScale::tiny());
        let plan = live_extraction_flow(&resources, EntityType::Gene, differential::STORE);
        let seeds: Vec<Url> = (0..web.graph().num_pages() as u32)
            .map(PageId)
            .filter(|&p| web.graph().page(p).relevant)
            .take(10)
            .map(|p| web.graph().url_of(p))
            .collect();
        let idle = |max_pages: usize| {
            let config = CrawlConfig {
                max_pages,
                threads: 4,
                fetch_list_total: 8,
                ..CrawlConfig::default()
            };
            let mut session = LiveSession::start(
                &web,
                train_focus_classifier(60, 2.0, 4),
                config,
                seeds.clone(),
                &ResilienceOptions::default(),
                &plan,
                ExtractionStore::new(differential::STORE, 4),
                LiveOptions::default(),
                Arc::new(Observer::new()),
            )
            .expect("live session starts");
            while session.advance().expect("round advances").is_some() {}
            let report = session.crawl.report();
            let pages = report.relevant.len() + report.irrelevant.len();
            // the step that found the crawl over changed the crawl: seal
            // it, then seal a round that changed nothing
            session.seal_round(session.round + 1);
            let frame = session.seal_round(session.round + 1);
            (pages, frame.size_bytes())
        };
        let (small_pages, small) = idle(15);
        let (large_pages, large) = idle(60);
        assert!(large_pages >= 2 * small_pages, "{small_pages} vs {large_pages} pages");
        assert_eq!(small, large, "idle frame after {small_pages} vs {large_pages} pages");
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
