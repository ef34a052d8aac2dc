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
//! - watermark frames, metrics, trace JSONL: kill + resume from the chain
//!   of watermarks ≡ uninterrupted, including under injected crawl faults;
//! - a watermark's crawl frame carries no page body: every page reached
//!   the delta pass before the seal;
//! - a chain that is not one session's (cut, flipped, forged, missing,
//!   repeated or reordered frames, an old version) is refused with a typed
//!   error, never a panic;
//! - a round seals what it changed: the bytes sealed over a session grow
//!   linearly in the pages it accepted.

use std::sync::Arc;

use websift::corpus::{CorpusKind, Document, LexiconScale};
use websift::crawler::{
    train_focus_classifier, CrawlCheckpoint, CrawlConfig, CrawlReport, CrawlSession,
    FocusedCrawler, ResilienceOptions,
};
use websift::flow::{
    AggState, Aggregate, ExecutionError, IeResources, LogicalPlan, Operator, Package, Record,
};
use websift::live::{IncrementalFlow, LiveError, LiveOptions, LiveSession, Watermark};
use websift::ner::EntityType;
use websift::observe::{Labels, Observer};
use websift::pipeline::{
    documents_from_pages, documents_to_records, live_extraction_flow, run_over_documents_into,
};
use websift::resilience::{codec, CodecError, Reader, Snapshot, Writer};
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

/// Injected crawl faults at `seed` without a checkpoint cadence, which a
/// live session refuses: its watermark is its frame every round.
fn faults(seed: u64) -> ResilienceOptions {
    ResilienceOptions { checkpoint_every_rounds: None, ..ResilienceOptions::injected(seed, 0.05, 2) }
}

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
        assert_eq!(round.watermark.store_digest(), oracle.content_digest());
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
    let mut frames: Vec<Vec<u8>> = Vec::new();
    for _ in 0..kill_after {
        let round = doomed.advance().expect("round advances").expect("round exists");
        frames.push(round.watermark.as_bytes().to_vec());
    }
    drop(doomed);

    let chain: Vec<Watermark> =
        frames.into_iter().map(|f| Watermark::from_bytes(f).expect("watermark decodes")).collect();
    let resumed_obs = Arc::new(Observer::new());
    let mut resumed = LiveSession::resume_from(
        &web,
        crawl_config(),
        options,
        &plan,
        LiveOptions { dop: 2, ..LiveOptions::default() },
        resumed_obs.clone(),
        &chain,
    )
    .expect("session resumes from its watermarks");
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
        let options = faults(seed);
        assert_resume_replays_identically(&options, 1);
    }
}

/// A report's pages as URL, committed digest and body.
fn pages_of(report: &CrawlReport) -> Vec<(String, u64, String)> {
    let pages = report.relevant.iter().chain(&report.irrelevant);
    pages.map(|p| (p.url.to_string(), p.content_digest, p.net_text.clone())).collect()
}

/// Every watermark's crawl frame carries no page body: the crawl rebuilt
/// from the chain up to it holds every page the session accepted, by URL
/// and committed digest, with an empty body, and hands out none of them
/// again. And a session resumed from any round's chain prefix seals the
/// uninterrupted session's bytes for every later round — at DoP 1, 2 and
/// 4, with and without injected crawl faults.
#[test]
fn watermarks_carry_no_body_and_resume_from_any_round() {
    let web = tiny_web();
    let plan = live_extraction_flow(&resources(), EntityType::Gene, STORE);
    for options in [ResilienceOptions::default(), faults(0x77)] {
        for dop in [1, 2, 4] {
            let what = format!("dop {dop}, faults {}", options.faults.is_some());
            let mut straight = start_session(&web, &plan, &options, dop);
            let mut marks: Vec<Watermark> = Vec::new();
            let mut crawl: Option<CrawlSession<'_>> = None;
            while let Some(round) = straight.advance().expect("round advances") {
                let parts = round.watermark.parts();
                let frame = CrawlCheckpoint::from_bytes(parts.crawl_round, parts.crawl_frame)
                    .expect("the crawl frame verifies");
                match &mut crawl {
                    None => {
                        let observer = Arc::new(Observer::new());
                        let first = CrawlSession::resume(
                            &web,
                            &frame,
                            crawl_config(),
                            &options,
                            None,
                            observer,
                        );
                        crawl = Some(first.expect("the crawl resumes from the first frame"));
                    }
                    Some(crawl) => crawl.apply_frame(&frame).expect("the next frame replays"),
                }
                let crawl = crawl.as_mut().expect("replayed");
                let accepted = pages_of(straight.crawl().report());
                assert!(accepted.iter().all(|(_, _, body)| !body.is_empty()));
                let bare: Vec<_> = accepted
                    .into_iter()
                    .map(|(url, digest, _)| (url, digest, String::new()))
                    .collect();
                let round_id = round.round;
                assert_eq!(pages_of(crawl.report()), bare, "{what}: round {round_id} carries a body");
                assert_eq!(crawl.state_digest(), straight.crawl().state_digest());
                let (rel, irr) = crawl.take_new_pages();
                assert!(rel.is_empty() && irr.is_empty(), "{what}: resume re-delivered old pages");
                marks.push(round.watermark);
            }
            assert!(marks.len() >= 3, "{what}: crawl ended after {} rounds", marks.len());

            for k in 1..=marks.len() {
                let mut resumed = LiveSession::resume_from(
                    &web,
                    crawl_config(),
                    &options,
                    &plan,
                    LiveOptions { dop, ..LiveOptions::default() },
                    Arc::new(Observer::new()),
                    &marks[..k],
                )
                .expect("session resumes from its chain");
                let mut tail: Vec<Watermark> = Vec::new();
                while let Some(round) = resumed.advance().expect("resumed round advances") {
                    tail.push(round.watermark);
                }
                assert_eq!(tail[..], marks[k..], "{what}: resumed after round {k}");
                assert_eq!(resumed.store().content_digest(), straight.store().content_digest());
                assert_eq!(resumed.state_bytes(), straight.state_bytes());
            }
        }
    }
}

/// A live session resumed from a mid-crawl watermark holds no body for
/// its pre-kill pages; the crawl checkpoint it writes later (the bytes of
/// a cadence frame at that round) still resumes, to the session's own
/// report, and the resumed crawl runs to the uninterrupted crawl's end.
#[test]
fn checkpoints_of_a_session_resumed_from_a_watermark_resume() {
    let web = tiny_web();
    let plan = live_extraction_flow(&resources(), EntityType::Gene, STORE);
    let options = faults(0x77);
    let mut straight = start_session(&web, &plan, &options, 2);
    let mut marks: Vec<Watermark> = Vec::new();
    while let Some(round) = straight.advance().expect("round advances") {
        marks.push(round.watermark);
    }
    assert!(marks.len() >= 4, "crawl ended after {} rounds", marks.len());

    let mut resumed = LiveSession::resume_from(
        &web,
        crawl_config(),
        &options,
        &plan,
        LiveOptions { dop: 2, ..LiveOptions::default() },
        Arc::new(Observer::new()),
        &marks[..2],
    )
    .expect("session resumes from its watermarks");
    resumed.advance().expect("round advances").expect("round exists");
    resumed.advance().expect("round advances").expect("round exists");
    let crawl = resumed.crawl();
    let bodies: Vec<bool> =
        pages_of(crawl.report()).iter().map(|(_, _, body)| !body.is_empty()).collect();
    assert!(bodies.contains(&false) && bodies.contains(&true), "{bodies:?}");

    let mut again = CrawlSession::resume(
        &web,
        &crawl.checkpoint(),
        crawl_config(),
        &options,
        None,
        Arc::new(Observer::new()),
    )
    .expect("the resumed session's checkpoint resumes");
    assert_eq!(pages_of(again.report()), pages_of(crawl.report()));
    assert_eq!(again.state_digest(), crawl.state_digest());
    while again.step_round() {}
    assert_eq!(again.state_digest(), straight.crawl().state_digest());
}

/// Crawl options with a checkpoint cadence are refused, at start and at
/// resume, with a typed error: a live session's watermark is its frame
/// every round, and nothing would drain the cadence frames.
#[test]
fn a_checkpoint_cadence_is_refused_at_start_and_resume() {
    let web = tiny_web();
    let plan = live_extraction_flow(&resources(), EntityType::Gene, STORE);
    let cadence = ResilienceOptions::injected(0x77, 0.05, 2);
    let started = LiveSession::start(
        &web,
        train_focus_classifier(60, 2.0, 4),
        crawl_config(),
        seeds_for(&web),
        &cadence,
        &plan,
        ExtractionStore::new(STORE, 4),
        LiveOptions::default(),
        Arc::new(Observer::new()),
    );
    assert!(
        matches!(started.err(), Some(LiveError::CheckpointCadence { every_rounds: 2 })),
        "a session with a crawl checkpoint cadence started"
    );

    let mut session = start_session(&web, &plan, &faults(0x77), 2);
    let sealed = session.advance().expect("round advances").expect("round exists").watermark;
    let resumed = LiveSession::resume_from(
        &web,
        crawl_config(),
        &cadence,
        &plan,
        LiveOptions { dop: 2, ..LiveOptions::default() },
        Arc::new(Observer::new()),
        std::slice::from_ref(&sealed),
    );
    match resumed.err() {
        Some(err @ LiveError::CheckpointCadence { every_rounds: 2 }) => {
            assert!(err.to_string().contains("checkpoint_every_rounds = 2"), "{err}");
        }
        other => panic!("resumed with a crawl checkpoint cadence: {other:?}"),
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
        &[Watermark::seal(&parts)],
    );
    match resumed.err() {
        Some(LiveError::Codec(CodecError::Mismatch { claimed, sealed, .. })) => {
            assert_eq!((claimed, sealed), (99, sealed_round));
        }
        other => panic!("edited crawl_round resumed or failed untyped: {other:?}"),
    }
}

/// A watermark whose crawl frame carries a page body that is not the one
/// its page commits to is refused at resume with a typed error — here the
/// frame of `checkpoint()`, which carries every body, one byte changed and
/// resealed so every checksum holds.
#[test]
fn watermark_carrying_a_forged_page_body_does_not_resume() {
    let web = tiny_web();
    let plan = live_extraction_flow(&resources(), EntityType::Gene, STORE);
    let options = ResilienceOptions::default();
    let mut session = start_session(&web, &plan, &options, 2);
    let sealed = session.advance().expect("round advances").expect("round exists").watermark;

    let page = &session.crawl().report().relevant[0];
    let frame = session.crawl().checkpoint();
    let mut payload =
        codec::open(*b"WSCK", 3, frame.as_bytes()).expect("a sealed checkpoint opens").to_vec();
    let body = page.net_text.as_bytes();
    let at = payload.windows(body.len()).position(|w| w == body).expect("the frame carries it");
    payload[at] = if payload[at] == b'a' { b'b' } else { b'a' };
    let forged = codec::digest(&payload[at..at + body.len()]);
    let mut parts = sealed.parts();
    parts.crawl_frame = codec::seal(*b"WSCK", 3, &payload);
    let resumed = LiveSession::resume_from(
        &web,
        crawl_config(),
        &options,
        &plan,
        LiveOptions::default(),
        Arc::new(Observer::new()),
        &[Watermark::seal(&parts)],
    );
    match resumed.err() {
        Some(LiveError::Codec(CodecError::Mismatch { what: "page body digest", claimed, sealed })) => {
            assert_eq!((claimed, sealed), (page.content_digest, forged));
        }
        other => panic!("a forged page body resumed or failed untyped: {other:?}"),
    }
}

/// A crawl frame carries the whole shared registry, `live.*` series
/// included. One holding `live.rounds` as a gauge is refused at resume,
/// before the next round's `live.rounds` counter update could panic.
#[test]
fn watermark_holding_a_live_series_of_another_kind_does_not_resume() {
    let web = tiny_web();
    let plan = live_extraction_flow(&resources(), EntityType::Gene, STORE);
    let options = ResilienceOptions::default();
    let mut session = start_session(&web, &plan, &options, 2);
    let sealed = session.advance().expect("round advances").expect("round exists").watermark;

    // the same crawl stepped to the same round, on an observer whose
    // `live.rounds` is a gauge: a frame the crawler itself sealed
    let observer = Arc::new(Observer::new());
    observer.registry().gauge("live.rounds", &Labels::empty()).set(1.0);
    let crawler = FocusedCrawler::new(&web, train_focus_classifier(60, 2.0, 4), crawl_config())
        .with_observer(observer);
    let mut crawl = CrawlSession::start(crawler, seeds_for(&web), &options);
    crawl.step_round();
    let mut parts = sealed.parts();
    parts.crawl_frame = crawl.checkpoint().as_bytes().to_vec();
    let resumed = LiveSession::resume_from(
        &web,
        crawl_config(),
        &options,
        &plan,
        LiveOptions::default(),
        Arc::new(Observer::new()),
        &[Watermark::seal(&parts)],
    );
    match resumed.err() {
        Some(LiveError::Codec(CodecError::BadTag { what: "registry series kind", tag: 1 })) => {}
        other => panic!("a live series of another kind resumed or failed untyped: {other:?}"),
    }
}

/// A real watermark resumed onto an observer that already holds one of
/// its series under another kind is refused with a typed error: the
/// restore checks every series before it writes any, and the observer
/// keeps what it held.
#[test]
fn watermark_resumed_onto_an_observer_holding_its_series_as_another_kind_is_refused() {
    let web = tiny_web();
    let plan = live_extraction_flow(&resources(), EntityType::Gene, STORE);
    let options = ResilienceOptions::default();
    let mut session = start_session(&web, &plan, &options, 2);
    let sealed = session.advance().expect("round advances").expect("round exists").watermark;

    let observer = Arc::new(Observer::new());
    observer.registry().gauge("live.rounds", &Labels::empty()).set(9.0);
    let resumed = LiveSession::resume_from(
        &web,
        crawl_config(),
        &options,
        &plan,
        LiveOptions::default(),
        observer.clone(),
        std::slice::from_ref(&sealed),
    );
    match resumed.err() {
        Some(LiveError::Codec(CodecError::BadTag { what: "registry series kind", tag: 0 })) => {}
        other => panic!("a clashing observer resumed or failed untyped: {other:?}"),
    }
    assert_eq!(observer.registry().gauge("live.rounds", &Labels::empty()).value(), 9.0);
}

/// A watermark is untrusted input even when its checksum holds: a frame
/// retaining a `Sum` state for the plan's Count reduce is refused at
/// resume, before the first `absorb` or `finished` could trip over it.
#[test]
fn watermark_retaining_a_state_its_reduce_cannot_fold_does_not_resume() {
    let web = tiny_web();
    let plan = live_extraction_flow(&resources(), EntityType::Gene, STORE);
    let options = ResilienceOptions::default();
    let mut session = start_session(&web, &plan, &options, 2);
    let sealed = session.advance().expect("round advances").expect("round exists").watermark;

    // the real retained-state header (one reduce: its sink, its name,
    // the per-key form), then one key whose state is a Sum
    let mut parts = sealed.parts();
    let mut real = Reader::new(&parts.agg_state);
    let mut forged = Writer::new();
    forged.usize(real.usize().expect("reduce count"));
    forged.str(&real.str().expect("sink"));
    forged.str(&real.str().expect("reduce name"));
    forged.u8(real.u8().expect("retained form"));
    forged.usize(1);
    forged.str("forged");
    AggState::Sum(7).encode(&mut forged);
    parts.agg_state = forged.into_bytes();

    let resumed = LiveSession::resume_from(
        &web,
        crawl_config(),
        &options,
        &plan,
        LiveOptions::default(),
        Arc::new(Observer::new()),
        &[Watermark::seal(&parts)],
    );
    match resumed.err() {
        Some(LiveError::StateMismatch { what }) => assert!(what.contains("Sum(7)"), "{what}"),
        other => panic!("a forged retained state resumed or failed untyped: {other:?}"),
    }
}

/// A malformed `store:` sink (no dataset) is refused by `start` with the
/// executor's own routing error — no round is crawled for a plan whose
/// first delta pass would be refused.
#[test]
fn a_malformed_store_sink_is_refused_before_any_round() {
    let web = tiny_web();
    let mut plan = LogicalPlan::new();
    let src = plan.source("docs");
    plan.sink(src, &format!("store:{STORE}")).expect("static plan");
    let started = LiveSession::start(
        &web,
        train_focus_classifier(60, 2.0, 4),
        crawl_config(),
        seeds_for(&web),
        &ResilienceOptions::default(),
        &plan,
        ExtractionStore::new(STORE, 4),
        LiveOptions::default(),
        Arc::new(Observer::new()),
    );
    match started.err() {
        Some(LiveError::Flow(ExecutionError::UnknownStore { sink, .. })) => {
            assert_eq!(sink, format!("store:{STORE}"));
        }
        other => panic!("a malformed store sink started a session: {other:?}"),
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
fn reduces_feeding_an_operator_are_rejected() {
    let tally = || {
        let key = |r: &Record, k: &mut String| k.push_str(&format!("{:?}", r.get("corpus")));
        Operator::reduce_agg("tally", Package::Base, key, Aggregate::Count { into: "n".into() })
    };
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
fn incremental_flow_folds_typed_reduces_exactly() {
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

/// A crawl of eight fetches a round, so that there are many rounds.
fn short_rounds(max_pages: usize) -> CrawlConfig {
    CrawlConfig { max_pages, fetch_list_total: 8, ..crawl_config() }
}

/// A session's watermarks: tiny web, short rounds, no faults, DoP 2.
fn straight_chain(web: &SimulatedWeb, plan: &LogicalPlan) -> Vec<Watermark> {
    let mut session = LiveSession::start(
        web,
        train_focus_classifier(60, 2.0, 4),
        short_rounds(60),
        seeds_for(web),
        &ResilienceOptions::default(),
        plan,
        ExtractionStore::new(STORE, 4),
        LiveOptions::default(),
        Arc::new(Observer::new()),
    )
    .expect("live session starts");
    let mut marks = Vec::new();
    while let Some(round) = session.advance().expect("round advances") {
        marks.push(round.watermark);
    }
    assert!(marks.len() >= 4, "crawl ended after {} rounds", marks.len());
    marks
}

fn resume_chain<'w>(
    web: &'w SimulatedWeb,
    plan: &LogicalPlan,
    chain: &[Watermark],
) -> Result<LiveSession<'w>, LiveError> {
    LiveSession::resume_from(
        web,
        short_rounds(60),
        &ResilienceOptions::default(),
        plan,
        LiveOptions::default(),
        Arc::new(Observer::new()),
        chain,
    )
}

/// A chain that is not one session's rounds 1..k is refused with
/// `BrokenChain` naming the first frame out of place: no frame, a chain
/// that starts at round 2, a missing, a repeated or a reordered frame, and
/// a frame whose previous-frame checksum is forged (and its own checksum
/// resealed to hold). A version 2 frame is refused when it is read.
#[test]
fn a_chain_that_is_not_one_sessions_is_refused() {
    let web = tiny_web();
    let plan = live_extraction_flow(&resources(), EntityType::Gene, STORE);
    let marks = straight_chain(&web, &plan);
    let m = |i: usize| marks[i].clone();
    let broken = |chain: &[Watermark], at: u32| match resume_chain(&web, &plan, chain).err() {
        Some(LiveError::BrokenChain { round, why }) => {
            assert_eq!(round, at, "{why}");
            assert!(LiveError::BrokenChain { round, why }.to_string().contains(why));
        }
        other => panic!("a broken chain resumed or failed otherwise: {other:?}"),
    };
    broken(&[], 0);
    broken(&marks[1..3], 2);
    broken(&[m(0), m(2)], 3);
    broken(&[m(0), m(1), m(1)], 2);
    broken(&[m(0), m(2), m(1)], 3);
    broken(&[m(0), m(1), m(3), m(2)], 4);

    // the link sits after the round (u32) and crawl round (u64): an
    // `Option` tag, then the checksum of the frame before
    let mut payload = codec::open(*b"WSWM", 3, marks[1].as_bytes()).expect("opens").to_vec();
    assert_eq!(payload[12..21], [&[1][..], &marks[0].checksum().to_le_bytes()].concat()[..]);
    payload[13] ^= 1;
    let forged = Watermark::from_bytes(codec::seal(*b"WSWM", 3, &payload)).expect("resealed");
    broken(&[m(0), forged], 2);

    let v2 = codec::seal(*b"WSWM", 2, codec::open(*b"WSWM", 3, marks[0].as_bytes()).unwrap());
    assert_eq!(
        Watermark::from_bytes(v2).err(),
        Some(CodecError::BadVersion { expected: 3, found: 2 })
    );
    // and the prefixes that are chains resume
    for k in 1..=marks.len() {
        assert!(resume_chain(&web, &plan, &marks[..k]).is_ok(), "prefix of {k} frames refused");
    }
}

/// A chain's second frame cut at every offset, or with any bit flipped, is
/// refused when it is read; its payload cut at every offset and resealed
/// is refused too; its payload with a bit flipped (every eighth byte, each
/// at another bit) and resealed resumes or fails with a typed error —
/// never a panic.
#[test]
fn hostile_chain_frames_are_errors_not_panics() {
    let web = tiny_web();
    let plan = live_extraction_flow(&resources(), EntityType::Gene, STORE);
    let marks = straight_chain(&web, &plan);
    let frame = marks[1].as_bytes();
    for cut in 0..frame.len() {
        assert!(Watermark::from_bytes(frame[..cut].to_vec()).is_err(), "cut at {cut} read");
    }
    for at in 0..frame.len() {
        let mut flipped = frame.to_vec();
        flipped[at] ^= 1 << (at % 8);
        assert!(Watermark::from_bytes(flipped).is_err(), "bit flip at {at} read");
    }
    let payload = codec::open(*b"WSWM", 3, frame).expect("opens").to_vec();
    for cut in 0..payload.len() {
        let resealed = codec::seal(*b"WSWM", 3, &payload[..cut]);
        assert!(Watermark::from_bytes(resealed).is_err(), "payload cut at {cut} read");
    }
    let mut refused = 0;
    for at in (0..payload.len()).step_by(8) {
        let mut flipped = payload.clone();
        flipped[at] ^= 1 << (at / 8 % 8);
        let Ok(forged) = Watermark::from_bytes(codec::seal(*b"WSWM", 3, &flipped)) else {
            refused += 1;
            continue;
        };
        refused += resume_chain(&web, &plan, &[marks[0].clone(), forged]).is_err() as usize;
    }
    assert!(refused > 0);
}

/// The pages a crawl of at most `max_pages` pages accepted, and the bytes
/// its session sealed after the first, whole watermark (which holds the
/// trained classifier): summed over the later watermarks.
fn sealed_over_a_session(max_pages: usize) -> (usize, usize) {
    let web = tiny_web();
    let plan = live_extraction_flow(&resources(), EntityType::Gene, STORE);
    let mut session = LiveSession::start(
        &web,
        train_focus_classifier(60, 2.0, 4),
        short_rounds(max_pages),
        seeds_for(&web),
        &ResilienceOptions::default(),
        &plan,
        ExtractionStore::new(STORE, 4),
        LiveOptions::default(),
        Arc::new(Observer::new()),
    )
    .expect("live session starts");
    let mut sealed = 0;
    while let Some(round) = session.advance().expect("round advances") {
        if round.round > 1 {
            sealed += round.watermark.size_bytes();
        }
    }
    let report = session.crawl().report();
    (report.relevant.len() + report.irrelevant.len(), sealed)
}

/// Each watermark after the first holds what its round changed, so the
/// bytes a session seals grow linearly in the pages it accepts: per
/// accepted page, a crawl three times as long seals about as much (a
/// whole frame every round would seal about three times as much per page).
#[test]
fn sealed_bytes_grow_linearly_in_pages() {
    let (small_pages, small) = sealed_over_a_session(20);
    let (large_pages, large) = sealed_over_a_session(200);
    assert!(large_pages >= 2 * small_pages, "{small_pages} vs {large_pages} pages");
    let per_page = |bytes: usize, pages: usize| bytes as f64 / pages as f64;
    let (small_rate, large_rate) = (per_page(small, small_pages), per_page(large, large_pages));
    assert!(
        large_rate < 1.25 * small_rate,
        "sealed bytes per accepted page grew from {small_rate:.0} ({small_pages} pages) to \
         {large_rate:.0} ({large_pages} pages)"
    );
}
