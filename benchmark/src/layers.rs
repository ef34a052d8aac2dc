//! Single-layer replays shared by the workloads: each times one crate's
//! public functions, alone and single-threaded, over the very pages,
//! documents or store a traced pass produced. They run after the pass, so
//! they cost the end-to-end numbers nothing.

use std::hint::black_box;
use std::sync::Arc;

use websift::corpus::CorpusKind;
use websift::crawler::{
    BoilerplateDetector, CrawlDb, CrawlReport, FilterChain, FilterConfig, NaiveBayes, UrlStatus,
};
use websift::flow::{IeResources, Record, StoreSink};
use websift::ner::EntityType;
use websift::serve::{ExtractionStore, StoreSnapshot};
use websift::text::{tokenize, LanguageId, SentenceSplitter};
use websift::web::{PageId, SimulatedWeb, Url};

use crate::clock::time;
use crate::inputs::FETCH_THREADS;
use crate::workloads::Layers;

const MB: f64 = 1e6;

fn per(total_s: f64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        total_s * 1e6 / n as f64
    }
}

fn rate(amount: f64, secs: f64) -> f64 {
    if secs > 0.0 {
        amount / secs
    } else {
        0.0
    }
}

/// Crawl outcome counts, and the crawler's per-page analysis chain replayed
/// stage by stage over every URL the crawl attempted (the CrawlDB knows
/// which), each stage over the pages that reach it, as in the crawl loop.
/// `fetched` is the web's fetch count for the crawl alone and `crawl_s` its
/// wall time. All `*_us_per_page` are per attempted page, so they add up.
///
/// `crawler.frontier_s` is what the replays do not explain — CrawlDB,
/// LinkDB, dedup, page bookkeeping and the round loop: the crawl's wall
/// minus the fetches (spread over the fetch threads) minus every stage.
pub fn crawl_layers(
    web: &SimulatedWeb,
    classifier: &NaiveBayes,
    crawldb: &CrawlDb,
    report: &CrawlReport,
    fetched: u64,
    crawl_s: f64,
    layers: &mut Layers,
) {
    let graph = web.graph();
    let attempted: Vec<Url> = (0..graph.num_pages() as u32)
        .map(|p| graph.url_of(PageId(p)))
        .filter(|url| {
            matches!(
                crawldb.status_of(url),
                Some(UrlStatus::Fetched | UrlStatus::Rejected | UrlStatus::Failed)
            )
        })
        .collect();
    let n = attempted.len();

    let (responses, fetch_s) =
        time(|| attempted.iter().filter_map(|url| web.fetch(url).ok()).collect::<Vec<_>>());
    let bytes: usize = responses.iter().map(|r| r.body.len()).sum();

    let config = FilterConfig::default();
    let mut filters = FilterChain::new(config);
    let (textual, mime_s) = time(|| {
        responses
            .iter()
            .filter(|r| filters.check_mime(r.url.path(), &r.body).is_ok())
            .collect::<Vec<_>>()
    });
    let (html, decode_s) = time(|| {
        textual
            .iter()
            .map(|r| String::from_utf8_lossy(&r.body).into_owned())
            .collect::<Vec<String>>()
    });
    let ((), links_s) = time(|| {
        for (response, text) in textual.iter().zip(&html) {
            black_box(websift::crawler::parser::extract_links(text, &response.url));
        }
    });
    let boilerplate = BoilerplateDetector::default();
    let (net, boilerplate_s) =
        time(|| html.iter().filter_map(|t| boilerplate.extract(t).ok()).collect::<Vec<String>>());
    let (passed, text_filter_s) =
        time(|| net.iter().filter(|text| filters.check_text(text).is_ok()).collect::<Vec<_>>());
    // The language check alone, on the texts long enough to reach it.
    let langid = LanguageId::new();
    let ((), langid_s) = time(|| {
        for text in net.iter().filter(|t| t.chars().count() >= config.min_chars) {
            black_box(langid.is_english(text));
        }
    });
    let ((), classify_s) = time(|| {
        for text in &passed {
            black_box(classifier.predict(text));
        }
    });

    let accepted = (report.relevant.len() + report.irrelevant.len()) as f64;
    let explained = fetch_s / FETCH_THREADS as f64
        + mime_s
        + decode_s
        + links_s
        + boilerplate_s
        + text_filter_s
        + classify_s;
    layers.insert("web.fetch_us_per_page", per(fetch_s, n));
    layers.insert("web.bytes_per_page", rate(bytes as f64, responses.len() as f64));
    layers.insert("crawler.crawl_s", crawl_s);
    layers.insert("crawler.pages_fetched", fetched as f64);
    layers.insert("crawler.pages_accepted", accepted);
    layers.insert("crawler.harvest_rate", rate(report.relevant.len() as f64, fetched as f64));
    layers.insert("crawler.reject_share", 1.0 - rate(accepted, fetched as f64));
    layers.insert("crawler.fetch_failed", report.failed as f64);
    layers.insert("crawler.links_us_per_page", per(decode_s + links_s, n));
    layers.insert("crawler.boilerplate_us_per_page", per(boilerplate_s, n));
    layers.insert("crawler.filters_us_per_page", per(mime_s + text_filter_s, n));
    layers.insert("crawler.classify_us_per_page", per(classify_s, n));
    layers.insert("crawler.frontier_s", crawl_s - explained);
    layers.insert("text.langid_us_per_page", per(langid_s, n));
}

/// One analysed document as the text and NER kernels see it: the cleaned
/// text and the sentence spans the flow annotated.
pub struct KernelDoc {
    pub corpus: CorpusKind,
    pub text: Arc<str>,
    pub sentences: Vec<(usize, usize)>,
}

impl KernelDoc {
    /// The text of one sentence span, clamped the way the IE operators
    /// clamp it (spans sit on char boundaries: the splitter produced them
    /// from this very text).
    fn sentence(&self, (start, end): (usize, usize)) -> &str {
        &self.text[start.min(self.text.len())..end.min(self.text.len())]
    }
}

/// Reads kernel inputs back from the records of a flow's `linguistic`
/// sink, so the replay works on exactly the text the operators worked on
/// (for web documents, after markup repair and net-text extraction).
pub fn kernel_docs(corpus: CorpusKind, records: &[Record]) -> Vec<KernelDoc> {
    records
        .iter()
        .filter_map(|r| {
            Some(KernelDoc {
                corpus,
                text: r.text_shared()?,
                sentences: websift::flow::packages::ie::sentence_spans(r),
            })
        })
        .collect()
}

/// Times the text and NER kernels directly, the way the IE operators call
/// them, and returns the total kernel seconds (what the flow executor
/// would spend if records, `Value` maps and dispatch were free).
pub fn kernel_layers(docs: &[KernelDoc], ie: &IeResources, layers: &mut Layers) -> f64 {
    let bytes: usize = docs.iter().map(|d| d.text.len()).sum();
    let splitter = SentenceSplitter::new();
    let ((), sentences_s) = time(|| {
        for d in docs {
            black_box(splitter.split(&d.text));
        }
    });
    let (tokens, tokenize_s) =
        time(|| docs.iter().map(|d| black_box(tokenize(&d.text)).len()).sum::<usize>());
    let (pos_tokens, pos_s) = time(|| {
        let mut tagged = 0usize;
        for d in docs {
            for &span in &d.sentences {
                let sent = d.sentence(span);
                let toks = tokenize(sent);
                let strs: Vec<&str> = toks.iter().map(|t| t.text(sent)).collect();
                tagged += strs.len();
                let _ = black_box(ie.pos.tag(&strs));
            }
        }
        tagged
    });
    let (dict_mentions, dict_s) = time(|| {
        let mut mentions = 0usize;
        for entity in EntityType::all() {
            for d in docs {
                mentions += ie.dict[&entity].tag(&d.text).len();
            }
        }
        mentions
    });

    // CRF decoding per corpus: PMC's long sentences against Medline's short
    // ones is the paper's superlinear-tagger gap.
    let mut crf_s = 0.0;
    let mut crf_mentions = 0usize;
    for (corpus, metric) in [
        (CorpusKind::Medline, Some("ner.crf_tokens_per_s.medline")),
        (CorpusKind::Pmc, Some("ner.crf_tokens_per_s.pmc")),
        (CorpusKind::RelevantWeb, None),
        (CorpusKind::IrrelevantWeb, None),
    ] {
        let of_corpus: Vec<&KernelDoc> = docs.iter().filter(|d| d.corpus == corpus).collect();
        // counted outside the timed region: the taggers tokenize for themselves
        let decoded: usize = of_corpus
            .iter()
            .flat_map(|d| d.sentences.iter().map(|&span| tokenize(d.sentence(span)).len()))
            .sum();
        let (mentions, secs) = time(|| {
            let mut mentions = 0usize;
            for entity in EntityType::all() {
                for d in &of_corpus {
                    for &span in &d.sentences {
                        mentions += ie.crf[&entity].tag(d.sentence(span)).len();
                    }
                }
            }
            mentions
        });
        crf_s += secs;
        crf_mentions += mentions;
        if let Some(metric) = metric {
            layers.insert(metric, rate(3.0 * decoded as f64, secs));
        }
    }

    layers.insert("text.sentences_mb_per_s", rate(bytes as f64 / MB, sentences_s));
    layers.insert("text.tokenize_mb_per_s", rate(bytes as f64 / MB, tokenize_s));
    layers.insert("text.pos_tokens_per_s", rate(pos_tokens as f64, pos_s));
    layers.insert("ner.dict_mb_per_s", rate(3.0 * bytes as f64 / MB, dict_s));
    layers.insert("ner.dict_mentions", dict_mentions as f64);
    layers.insert("ner.crf_mentions", crf_mentions as f64);
    black_box(tokens);
    sentences_s + tokenize_s + pos_s + dict_s + crf_s
}

/// A store sink that forwards to an extraction store and times the
/// forwarding, so ingest is measured at the boundary where the flow
/// executor hands its records over.
pub struct TimedSink<'a> {
    pub store: &'a mut ExtractionStore,
    pub secs: f64,
    pub records: u64,
}

impl<'a> TimedSink<'a> {
    pub fn new(store: &'a mut ExtractionStore) -> TimedSink<'a> {
        TimedSink { store, secs: 0.0, records: 0 }
    }
}

impl StoreSink for TimedSink<'_> {
    fn store_name(&self) -> &str {
        self.store.name()
    }

    fn append(&mut self, dataset: &str, records: Vec<Record>) {
        self.records += records.len() as u64;
        let ((), secs) = time(|| self.store.append(dataset, records));
        self.secs += secs;
    }
}

/// Size of a store and the cost of snapshotting and restoring it — the
/// write side of the serving layer.
pub fn store_layers(store: &ExtractionStore, layers: &mut Layers) {
    let (snapshot, snapshot_s) = time(|| StoreSnapshot::capture(store));
    let (restored, restore_s) = time(|| snapshot.restore());
    black_box(restored.is_ok());
    let postings = store.posting_count();
    layers.insert("serve.postings", postings as f64);
    layers.insert("serve.keys", store.key_count() as f64);
    layers.insert("serve.snapshot_ms", snapshot_s * 1e3);
    layers.insert("serve.restore_ms", restore_s * 1e3);
    layers.insert(
        "serve.snapshot_bytes_per_posting",
        rate(snapshot.size_bytes() as f64, postings as f64),
    );
}
