//! Whole-system live-session determinism: an incremental session must be
//! indistinguishable — on every deterministic surface — from a batch
//! recompute over the cumulative crawl, and a session killed and resumed
//! from a watermark must replay byte-identically to one that never
//! stopped. These are the acceptance invariants of the live subsystem:
//!
//! - store `content_digest` after round k: incremental ≡ per-round batch
//!   recompute, across DoP;
//! - retained reduce output: incremental fold ≡ batch Reduce over the
//!   cumulative corpus, across DoP;
//! - watermark frames, metrics, trace JSONL: kill + resume ≡
//!   uninterrupted, including under injected crawl faults.

use std::sync::Arc;

use websift::corpus::{CorpusKind, Document, LexiconScale};
use websift::crawler::{train_focus_classifier, CrawlConfig, ResilienceOptions};
use websift::flow::{IeResources, LogicalPlan, Operator, Package, Record};
use websift::live::{IncrementalFlow, LiveError, LiveOptions, LiveSession, Watermark};
use websift::ner::EntityType;
use websift::observe::Observer;
use websift::pipeline::{
    documents_from_pages, documents_to_records, live_extraction_flow, run_over_documents_into,
};
use websift::resilience::CodecError;
use websift::serve::{parse_query, ExtractionStore, QueryEngine};
use websift::web::{PageId, SimulatedWeb, Url, WebGraph, WebGraphConfig};

fn tiny_web() -> SimulatedWeb {
    SimulatedWeb::new(WebGraph::generate(WebGraphConfig::tiny()))
}

fn seeds_for(web: &SimulatedWeb) -> Vec<Url> {
    (0..web.graph().num_pages() as u32)
        .map(PageId)
        .filter(|&p| web.graph().page(p).relevant)
        .take(10)
        .map(|p| web.graph().url_of(p))
        .collect()
}

fn crawl_config() -> CrawlConfig {
    CrawlConfig { max_pages: 60, threads: 4, ..CrawlConfig::default() }
}

fn resources() -> IeResources {
    IeResources::quick_for_tests(LexiconScale::tiny())
}

const STORE: &str = "live";

fn start_session<'w>(
    web: &'w SimulatedWeb,
    plan: &LogicalPlan,
    options: &ResilienceOptions,
    dop: usize,
) -> LiveSession<'w> {
    LiveSession::start(
        web,
        train_focus_classifier(60, 2.0, 4),
        crawl_config(),
        seeds_for(web),
        options,
        plan,
        ExtractionStore::new(STORE, 4),
        LiveOptions { dop, ..LiveOptions::default() },
        Arc::new(Observer::new()),
    )
    .expect("live session starts")
}

/// Batch full-recompute oracle for the store: a fresh store fed the
/// cumulative corpus through the *original* plan (Reduce and all), round
/// slices replayed with their round stamps.
fn batch_store(plan: &LogicalPlan, docs: &[Document], rounds: &[(u32, usize)], dop: usize) -> ExtractionStore {
    let mut store = ExtractionStore::new(STORE, 4);
    let mut cursor = 0usize;
    for &(round, count) in rounds {
        store.set_round(round);
        run_over_documents_into(plan, &docs[cursor..cursor + count], dop, &mut store)
            .expect("batch oracle flow");
        cursor += count;
    }
    assert_eq!(cursor, docs.len(), "round slices must cover the corpus");
    store
}

#[test]
fn incremental_session_matches_batch_recompute_on_every_round() {
    let web = tiny_web();
    let plan = live_extraction_flow(&resources(), EntityType::Gene, STORE);
    let options = ResilienceOptions::default();
    let mut session = start_session(&web, &plan, &options, 2);

    let mut rounds: Vec<(u32, usize)> = Vec::new();
    let mut total_docs = 0usize;
    while let Some(round) = session.advance().expect("round advances") {
        rounds.push((round.round, round.new_documents));
        total_docs += round.new_documents;

        // (a) incremental store vs (b) batch full recompute over the
        // cumulative corpus, at every round boundary
        let relevant = &session.crawl().report().relevant;
        let cumulative = documents_from_pages(relevant, CorpusKind::RelevantWeb, 0);
        assert_eq!(cumulative.len(), total_docs);
        let oracle = batch_store(&plan, &cumulative, &rounds, 2);
        assert_eq!(
            session.store().content_digest(),
            oracle.content_digest(),
            "store diverged from batch recompute after round {}",
            round.round
        );
        assert_eq!(round.watermark.parts().store_digest, oracle.content_digest());
    }
    assert!(rounds.len() >= 2, "crawl ended after {} rounds; need several", rounds.len());
    assert!(session.store().posting_count() > 0, "live session ingested nothing");

    // the retained reduce equals a batch Reduce over the cumulative corpus
    let relevant = &session.crawl().report().relevant;
    let cumulative = documents_from_pages(relevant, CorpusKind::RelevantWeb, 0);
    let batch = websift::pipeline::run_over_documents(&plan, &cumulative, 2)
        .expect("batch oracle flow");
    assert_eq!(
        session.finished("token_frequencies").expect("retained sink"),
        batch.sinks["token_frequencies"],
        "retained fold diverged from the batch reduce"
    );
}

#[test]
fn live_surfaces_are_dop_invariant() {
    let web = tiny_web();
    let plan = live_extraction_flow(&resources(), EntityType::Gene, STORE);
    let options = ResilienceOptions::default();

    let run = |dop: usize| {
        let mut session = start_session(&web, &plan, &options, dop);
        while session.advance().expect("round advances").is_some() {}
        (
            session.store().content_digest(),
            session.state_bytes(),
            session.finished("token_frequencies").expect("retained sink"),
        )
    };
    let (digest_1, state_1, finished_1) = run(1);
    for dop in [2usize, 4] {
        let (digest_n, state_n, finished_n) = run(dop);
        assert_eq!(digest_1, digest_n, "store digest varies with DoP {dop}");
        assert_eq!(state_1, state_n, "retained state bytes vary with DoP {dop}");
        assert_eq!(finished_1, finished_n, "reduce output varies with DoP {dop}");
    }
}

/// Kill-and-resume differential, parameterized over fault seeds: run an
/// uninterrupted session, then replay the same session but serialize the
/// round-k watermark across a simulated kill, and compare every
/// subsequent deterministic surface byte-for-byte.
fn assert_resume_replays_identically(options: &ResilienceOptions, kill_after: u32) {
    let web = tiny_web();
    let plan = live_extraction_flow(&resources(), EntityType::Gene, STORE);

    // Uninterrupted reference run.
    let mut straight = start_session(&web, &plan, options, 2);
    let mut straight_marks: Vec<Watermark> = Vec::new();
    while let Some(round) = straight.advance().expect("round advances") {
        straight_marks.push(round.watermark);
    }
    assert!(
        straight_marks.len() > kill_after as usize,
        "crawl too short to kill after round {kill_after}"
    );

    // Same session, killed after `kill_after` rounds: only the sealed
    // watermark bytes survive the kill.
    let mut doomed = start_session(&web, &plan, options, 2);
    let mut frame: Vec<u8> = Vec::new();
    for _ in 0..kill_after {
        frame = doomed.advance().expect("round advances").expect("round exists").watermark
            .as_bytes()
            .to_vec();
    }
    drop(doomed);

    let watermark = Watermark::from_bytes(frame).expect("watermark decodes");
    let resumed_obs = Arc::new(Observer::new());
    let mut resumed = LiveSession::resume_from(
        &web,
        crawl_config(),
        options,
        &plan,
        LiveOptions { dop: 2, ..LiveOptions::default() },
        resumed_obs.clone(),
        &watermark,
    )
    .expect("session resumes from watermark");
    assert_eq!(resumed.round(), kill_after);

    let mut resumed_marks: Vec<Watermark> = Vec::new();
    while let Some(round) = resumed.advance().expect("round advances") {
        resumed_marks.push(round.watermark);
    }

    // every post-kill watermark is byte-identical
    assert_eq!(resumed_marks.len(), straight_marks.len() - kill_after as usize);
    for (a, b) in straight_marks[kill_after as usize..].iter().zip(&resumed_marks) {
        assert_eq!(a.as_bytes(), b.as_bytes(), "watermark diverged after resume");
    }
    // final state agrees on every surface
    assert_eq!(straight.store().content_digest(), resumed.store().content_digest());
    assert_eq!(straight.state_bytes(), resumed.state_bytes());
    assert_eq!(straight.metrics(), resumed.metrics());
    assert_eq!(
        straight.finished("token_frequencies").expect("retained sink"),
        resumed.finished("token_frequencies").expect("retained sink"),
    );
    // the resumed trace is exactly the tail of the uninterrupted trace
    // (modulo `seq`, which restarts with the fresh tracer: it counts
    // ring-buffer slots, not simulated time)
    let strip_seq = |events: Vec<websift::observe::TraceEvent>| -> Vec<String> {
        events
            .into_iter()
            .map(|mut e| {
                e.seq = 0;
                e.to_json()
            })
            .collect()
    };
    let straight_events = strip_seq(straight.observer().tracer().events());
    let resumed_events = strip_seq(resumed_obs.tracer().events());
    assert!(!resumed_events.is_empty());
    assert_eq!(
        straight_events[straight_events.len() - resumed_events.len()..],
        resumed_events[..],
        "resumed trace is not a suffix of the uninterrupted trace"
    );
}

#[test]
fn killed_session_resumes_byte_identically() {
    assert_resume_replays_identically(&ResilienceOptions::default(), 2);
}

#[test]
fn fault_injected_sessions_replay_identically_across_seeds() {
    for seed in [0x11u64, 0x77] {
        let options = ResilienceOptions::injected(seed, 0.05, 2);
        assert_resume_replays_identically(&options, 1);
    }
}

#[test]
fn watermark_with_an_edited_crawl_round_does_not_resume() {
    let web = tiny_web();
    let plan = live_extraction_flow(&resources(), EntityType::Gene, STORE);
    let options = ResilienceOptions::default();
    let mut session = start_session(&web, &plan, &options, 2);
    let sealed = session.advance().expect("round advances").expect("round exists").watermark;

    // a well-formed watermark (its own checksum holds) whose `crawl_round`
    // is not the round its crawl frame was sealed at
    let mut parts = sealed.parts();
    let sealed_round = parts.crawl_round;
    parts.crawl_round = 99;
    let resumed = LiveSession::resume_from(
        &web,
        crawl_config(),
        &options,
        &plan,
        LiveOptions::default(),
        Arc::new(Observer::new()),
        &Watermark::seal(&parts),
    );
    match resumed.err() {
        Some(LiveError::Codec(CodecError::Mismatch { claimed, sealed, .. })) => {
            assert_eq!((claimed, sealed), (99, sealed_round));
        }
        other => panic!("edited crawl_round resumed or failed untyped: {other:?}"),
    }
}

#[test]
fn live_store_answers_freshness_queries() {
    let web = tiny_web();
    let plan = live_extraction_flow(&resources(), EntityType::Gene, STORE);
    let options = ResilienceOptions::default();
    let mut session = start_session(&web, &plan, &options, 2);
    let mut last_round = 0;
    while let Some(round) = session.advance().expect("round advances") {
        assert!(round.freshness_secs > 0.0, "round has no simulated latency");
        last_round = round.round;
    }
    assert!(last_round >= 2);

    // `since` sees exactly the postings `round`-pinned queries see,
    // summed over the fresh rounds.
    let entity = session
        .store()
        .iter()
        .map(|(k, _)| k.entity.clone())
        .find(|e| !e.contains(char::is_whitespace))
        .expect("store has entities");
    let obs = Observer::new();
    let engine = QueryEngine::new(session.store(), &obs);
    let run = |text: &str| {
        engine.execute(&parse_query(text).expect("query parses"), 0.0).rows.len()
    };
    let since_2 = run(&format!("lookup {entity} since 2"));
    let total = run(&format!("lookup {entity}"));
    let round_1 = run(&format!("lookup {entity} round 1"));
    assert_eq!(since_2, total - round_1, "since must complement the round-1 slice");

    // per-round session metrics made it into the registry
    let snap = session.observer().registry().snapshot();
    let labels = websift::observe::Labels::empty();
    assert!(snap.get("live.rounds", &labels).is_some());
    assert!(snap.get("live.freshness_secs", &labels).is_some());
}

#[test]
fn custom_reduces_are_rejected_unless_opted_in() {
    fn tally() -> Operator {
        Operator::reduce(
            "tally",
            Package::Base,
            |r: &Record| format!("{:?}", r.get("corpus")),
            |key, group: Vec<Record>| {
                let mut out = Record::new();
                out.set("key", key).set("count", group.len() as i64);
                vec![out]
            },
        )
    }
    let mut plan = LogicalPlan::new();
    let src = plan.source("docs");
    let r = plan.add(src, tally()).expect("static plan");
    plan.sink(r, "tallies").expect("static plan");

    // rejected with a typed error: an opaque closure has no state to retain
    match IncrementalFlow::compile(&plan).map(|_| ()) {
        Err(LiveError::NonCombinableReduce { name }) => assert_eq!(name, "tally"),
        other => panic!("expected NonCombinableReduce, got {other:?}"),
    }

    // a reduce feeding another operator (not a sink) is structurally
    // unusable in live mode
    let mut plan = LogicalPlan::new();
    let src = plan.source("docs");
    let r = plan.add(src, tally()).expect("static plan");
    let downstream = plan
        .add(r, Operator::map("after", Package::Base, |rec| rec))
        .expect("static plan");
    plan.sink(downstream, "out").expect("static plan");
    match IncrementalFlow::compile(&plan).map(|_| ()) {
        Err(LiveError::ReduceNotTerminal { name }) => assert_eq!(name, "tally"),
        other => panic!("expected ReduceNotTerminal, got {other:?}"),
    }
}

#[test]
fn incremental_flow_handles_combinable_reduces_exactly() {
    // the delta plan drops the reduce but keeps everything else
    let plan = live_extraction_flow(&resources(), EntityType::Gene, STORE);
    let flow = IncrementalFlow::compile(&plan).expect("compiles");
    assert_eq!(flow.retained_sinks(), vec!["token_frequencies"]);
    assert_eq!(flow.source(), "docs");
    assert_eq!(
        flow.delta_plan().operator_count(),
        plan.operator_count() - 1,
        "delta plan should drop exactly the terminal reduce"
    );

    // folding in two slices equals folding in one, byte-for-byte
    let docs = {
        use websift::corpus::{Generator, Lexicon};
        Generator::with_lexicon(
            CorpusKind::RelevantWeb,
            9,
            Arc::new(Lexicon::generate(LexiconScale::tiny())),
        )
        .documents(6)
    };
    let records = documents_to_records(&docs);
    let (left, right) = records.split_at(records.len() / 2);

    let mut split = IncrementalFlow::compile(&plan).expect("compiles");
    split.absorb("token_frequencies", left.to_vec()).expect("absorbs");
    split.absorb("token_frequencies", right.to_vec()).expect("absorbs");
    let mut whole = IncrementalFlow::compile(&plan).expect("compiles");
    whole.absorb("token_frequencies", records.clone()).expect("absorbs");
    assert_eq!(split.state_bytes(), whole.state_bytes());
    assert_eq!(
        split.finished("token_frequencies").expect("finished"),
        whole.finished("token_frequencies").expect("finished"),
    );

    // state round-trips through the watermark codec path
    let mut restored = IncrementalFlow::compile(&plan).expect("compiles");
    restored.restore_state(&whole.state_bytes()).expect("restores");
    assert_eq!(restored.state_bytes(), whole.state_bytes());
}
