//! IE package: syntactic and semantic annotation operators.
//!
//! These are the wrapped "best-of-breed" tools of the paper's Fig.-2 flow:
//! sentence/token boundary annotation, part-of-speech tagging (MedPost
//! analogue), the linguistic annotators (negation, pronouns, parentheses:
//! three constant patterns, scanned directly), and the six entity
//! annotators (dictionary + ML for genes, drugs, diseases). Each carries the cost model and library
//! annotations that drive the simulated-cluster experiments, including the
//! OpenNLP version split behind the paper's class-loader war story.

use crate::operator::{CostModel, Operator, Package};
use crate::packages::{IeResources, OperatorRegistry};
use crate::record::{span_annotation, FieldMap, Record, Span, Value};
use std::sync::Arc;
use websift_analyze::lattice::FieldType;
use websift_ner::{EntityType, Mention};
use websift_text::tokenize::tokenize;
use websift_text::{PosTag, PosTagger, SentenceSplitter};

/// Reads the `sentences` annotation back into spans; falls back to the
/// whole text as one sentence when absent.
pub fn sentence_spans(r: &Record) -> Vec<(usize, usize)> {
    match r.get("sentences").and_then(Value::spans) {
        Some(spans) => spans.map(|s| (s.start as usize, s.end as usize)).collect(),
        None => match r.text() {
            Some(t) if !t.is_empty() => vec![(0, t.len())],
            _ => Vec::new(),
        },
    }
}

/// The text a `sentences` span covers, its end clamped to the text's, or
/// `""` for a span that covers none — inverted, starting past the end, or
/// cutting a multi-byte character (a negative offset arrives here as a
/// huge `usize`). Records are input: a hostile annotation yields an empty
/// sentence, never a panic.
pub fn sentence_text(text: &str, (start, end): (usize, usize)) -> &str {
    text.get(start..end.min(text.len())).unwrap_or("")
}

fn push_mentions(r: &mut Record, mentions: impl IntoIterator<Item = Mention>) {
    for m in mentions {
        r.push_to(
            "entities",
            span_annotation(
                m.start,
                m.end,
                &[
                    ("name", Value::from(m.name.as_str())),
                    ("type", Value::from(m.entity.name())),
                    (
                        "method",
                        Value::from(match m.method {
                            websift_ner::Method::Dictionary => "dict",
                            websift_ner::Method::Ml => "ml",
                        }),
                    ),
                ],
            ),
        );
    }
}

/// `ie.annotate_sentences` (OpenNLP-1.5-class tool).
pub fn annotate_sentences() -> Operator {
    Operator::map("ie.annotate_sentences", Package::Ie, |mut r| {
        let text = r.text_shared().unwrap_or_else(|| Arc::from(""));
        let sentences = SentenceSplitter::new().split(&text);
        let spans = sentences.into_iter().map(|s| Span { start: s.start as i64, end: s.end as i64 });
        r.set("sentences", Value::Spans(spans.collect()));
        r
    })
    .with_reads(&["text"])
    .with_writes(&["sentences"])
    .with_write_types(&[("sentences", FieldType::Array)])
    .with_library("opennlp", 15)
    .with_cost(CostModel {
        us_per_char: 0.05,
        ..CostModel::default()
    })
}

/// `ie.annotate_tokens` (OpenNLP-1.5-class tool).
pub fn annotate_tokens() -> Operator {
    Operator::map("ie.annotate_tokens", Package::Ie, |mut r| {
        let text = r.text_shared().unwrap_or_else(|| Arc::from(""));
        let tokens = tokenize(&text);
        let spans = tokens.into_iter().map(|t| Span { start: t.start as i64, end: t.end as i64 });
        r.set("tokens", Value::Spans(spans.collect()));
        r
    })
    .with_reads(&["text"])
    .with_writes(&["tokens"])
    .with_write_types(&[("tokens", FieldType::Array)])
    .with_library("opennlp", 15)
    .with_cost(CostModel {
        us_per_char: 0.08,
        ..CostModel::default()
    })
}

/// `ie.annotate_pos` — the MedPost-analogue HMM tagger, applied per
/// sentence. Over-long sentences fail cleanly and are counted in
/// `pos_errors` (the original tool crashed; the flow must not).
pub fn annotate_pos(tagger: Arc<PosTagger>) -> Operator {
    // One shared string per tag: a tag value is a refcount bump, not a
    // formatted `String` copied into a fresh `Arc<str>`.
    let names = PosTag::all().map(|t| Arc::<str>::from(t.name()));
    Operator::map("ie.annotate_pos", Package::Ie, move |mut r| {
        let text = r.text_shared().unwrap_or_else(|| Arc::from(""));
        let mut errors = 0i64;
        let mut annotations: Vec<Value> = Vec::new();
        for (si, span) in sentence_spans(&r).into_iter().enumerate() {
            let sent = sentence_text(&text, span);
            let tokens = tokenize(sent);
            let strs: Vec<&str> = tokens.iter().map(|t| t.text(sent)).collect();
            match tagger.tag(&strs) {
                Ok(tags) => {
                    let tag_values: Vec<Value> = tags
                        .into_iter()
                        .map(|t| Value::from(names[t.index()].clone()))
                        .collect();
                    let mut obj = crate::record::FieldMap::with_capacity(2);
                    obj.insert(crate::record::intern("sentence"), Value::Int(si as i64));
                    obj.insert(crate::record::intern("tags"), Value::Array(tag_values));
                    annotations.push(Value::Object(obj));
                }
                Err(_) => errors += 1,
            }
        }
        r.set("pos", Value::Array(annotations));
        r.set("pos_errors", errors);
        r
    })
    .with_reads(&["text", "sentences"])
    .with_writes(&["pos", "pos_errors"])
    .with_cost(CostModel {
        startup_secs: 5.0,
        memory_bytes: 512 << 20,
        us_per_char: 2.0,
        quadratic_ref: None,
    })
}

/// One match of a linguistic annotator in a sentence: its byte span and,
/// for a pronoun, its class.
type Hit = (usize, usize, Option<&'static str>);

/// Every match in one sentence, in order.
type Scan = fn(&str) -> Vec<Hit>;

/// The paper finds negation, pronouns and parentheses "using different sets
/// of regular expressions"; its three patterns are constants, scanned here
/// without a regex engine by `scan`, one sentence at a time.
fn linguistic_annotator(name: &'static str, writes: &'static str, scan: Scan) -> Operator {
    Operator::map(name, Package::Ie, move |mut r| {
        let text = r.text_shared().unwrap_or_else(|| Arc::from(""));
        let mut annotations: Vec<Value> = Vec::new();
        for (si, span) in sentence_spans(&r).into_iter().enumerate() {
            let (sent, start) = (sentence_text(&text, span), span.0);
            for (s, e, class) in scan(sent) {
                let sentence = ("sentence", Value::Int(si as i64));
                let (start, end) = (start + s, start + e);
                annotations.push(match class {
                    Some(class) => span_annotation(start, end, &[sentence, ("class", class.into())]),
                    None => span_annotation(start, end, &[sentence]),
                });
            }
        }
        r.set(writes, Value::Array(annotations));
        r
    })
    .with_reads(&["text", "sentences"])
    .with_writes(&[writes])
    .with_cost(CostModel {
        us_per_char: 0.3,
        ..CostModel::default()
    })
}

/// The words of a `\b(w1|…|wn)\b` pattern, grouped by what a match of
/// one of them reports (a pronoun's class).
struct Words {
    groups: &'static [(Option<&'static str>, &'static [&'static str])],
    /// The bytes a match can start at: each word's first letter in either
    /// case, and every UTF-8 lead byte (`İ` and the Kelvin sign fold onto
    /// letters).
    starts: [bool; 256],
}

impl Words {
    const fn new(groups: &'static [(Option<&'static str>, &'static [&'static str])]) -> Words {
        let mut starts = [false; 256];
        let mut lead = 0xC0;
        while lead < 256 {
            starts[lead] = true;
            lead += 1;
        }
        let mut g = 0;
        while g < groups.len() {
            let mut w = 0;
            while w < groups[g].1.len() {
                let first = groups[g].1[w].as_bytes()[0];
                starts[first as usize] = true;
                starts[first.to_ascii_uppercase() as usize] = true;
                w += 1;
            }
            g += 1;
        }
        Words { groups, starts }
    }
}

static NEGATIONS: Words = Words::new(&[(None, &["not", "nor", "neither"])]);

static PRONOUNS: Words = Words::new(&[
    (Some("personal"), &["it", "they", "we", "he", "she", "i", "you"]),
    (Some("possessive"), &["its", "their", "his", "her", "our"]),
    (Some("demonstrative"), &["this", "these", "that", "those"]),
    (Some("relative"), &["which", "who", "whom"]),
    (Some("object"), &["them", "him", "us", "me"]),
    (Some("reflexive"), &["itself", "themselves"]),
]);

/// `\b(w1|…|wn)\b`, case-insensitive, leftmost-longest. Every listed word
/// is lowercase ASCII letters, and every char that [`chars_eq`] folds onto
/// such a letter is itself a word char (the only non-ASCII ones are `İ`
/// U+0130 → `i` and the Kelvin sign → `k`). So a match is exactly a
/// maximal run of word chars that pairs char for char with a listed word
/// — at most one, since no char folds onto two letters.
fn find_words(sent: &str, words: &Words) -> Vec<Hit> {
    let bytes = sent.as_bytes();
    let mut hits = Vec::new();
    let mut at = 0;
    loop {
        while at < bytes.len() && !words.starts[bytes[at] as usize] {
            at += 1;
        }
        if at == bytes.len() {
            return hits;
        }
        // `at` is a char boundary: starts are ASCII or lead bytes
        let start = at;
        let after = sent[start..].char_indices().find(|&(_, c)| !is_word(c));
        let end = after.map_or(sent.len(), |(i, _)| start + i);
        if end == start {
            at += 1; // a non-word char: step onto its continuation bytes
            continue;
        }
        at = end;
        if sent[..start].chars().next_back().is_some_and(is_word) {
            continue; // inside a run
        }
        let run = &sent[start..end];
        let ascii = run.is_ascii();
        let folds_onto = |word: &str| {
            if ascii {
                // two ASCII chars fold onto each other exactly when their ASCII case does
                run.eq_ignore_ascii_case(word)
            } else {
                run.chars().count() == word.len()
                    && run.chars().zip(word.chars()).all(|(c, w)| chars_eq(w, c))
            }
        };
        let group = words.groups.iter().find(|(_, list)| list.iter().any(|w| folds_onto(w)));
        if let Some(&(tag, _)) = group {
            hits.push((start, end, tag));
        }
    }
}

/// `\([^()]*\)`: `[^()]` is a class, so it takes `\n` too, and no char
/// folds onto a paren. A match is a `(` whose next paren is `)`.
fn find_parentheses(sent: &str) -> Vec<Hit> {
    let mut hits = Vec::new();
    let mut open = None;
    for (i, b) in sent.bytes().enumerate() {
        match b {
            b'(' => open = Some(i),
            b')' => hits.extend(open.take().map(|start| (start, i + 1, None))),
            _ => {}
        }
    }
    hits
}

/// A `\w`/`\b` word char.
fn is_word(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Case-insensitive char equality, as the regex engine these annotators
/// replaced defined it: one simple case mapping, either way round.
fn chars_eq(a: char, b: char) -> bool {
    a == b || flip_case(a) == b || a == flip_case(b)
}

fn flip_case(c: char) -> char {
    if c.is_uppercase() {
        c.to_lowercase().next().unwrap_or(c)
    } else {
        c.to_uppercase().next().unwrap_or(c)
    }
}

/// `ie.annotate_negation` — finds *not*, *nor*, *neither* (the paper's
/// "rather simple method for determining negations").
pub fn annotate_negation() -> Operator {
    linguistic_annotator("ie.annotate_negation", "negation", |s| find_words(s, &NEGATIONS))
}

/// `ie.annotate_pronouns` — six pronoun classes.
pub fn annotate_pronouns() -> Operator {
    linguistic_annotator("ie.annotate_pronouns", "pronouns", |s| find_words(s, &PRONOUNS))
}

/// `ie.annotate_parentheses` — parenthesized text spans.
pub fn annotate_parentheses() -> Operator {
    linguistic_annotator("ie.annotate_parentheses", "parens", find_parentheses)
}

/// Dictionary entity annotator for one type.
pub fn annotate_entities_dict(resources: &IeResources, entity: EntityType) -> Operator {
    let tagger = resources.dict[&entity].clone();
    let cost = tagger.cost_model();
    let name = format!("ie.annotate_entities_dict_{}", entity.name());
    Operator::map(&name, Package::Ie, move |mut r| {
        let text = r.text_shared().unwrap_or_else(|| Arc::from(""));
        let mentions = tagger.tag(&text);
        push_mentions(&mut r, mentions);
        r
    })
    .with_reads(&["text"])
    .with_writes(&["entities"])
    .with_cost(CostModel {
        startup_secs: cost.startup_secs,
        memory_bytes: cost.memory_bytes,
        us_per_char: cost.us_per_char,
        quadratic_ref: None,
    })
}

/// ML (CRF) entity annotator for one type. The disease tagger "brings its
/// own linguistic preprocessing ... imported from the OpenNLP library,
/// version 1.4" — hence its conflicting library annotation.
pub fn annotate_entities_ml(resources: &IeResources, entity: EntityType) -> Operator {
    let tagger = resources.crf[&entity].clone();
    let cost = tagger.cost_model();
    let context = resources.config.crf_context_features;
    let name = format!("ie.annotate_entities_ml_{}", entity.name());
    let op = Operator::map(&name, Package::Ie, move |mut r| {
        let text = r.text_shared().unwrap_or_else(|| Arc::from(""));
        let mut all = Vec::new();
        for span in sentence_spans(&r) {
            let (sent, start) = (sentence_text(&text, span), span.0);
            for mut m in tagger.tag(sent) {
                m.start += start;
                m.end += start;
                all.push(m);
            }
        }
        push_mentions(&mut r, all);
        r
    })
    .with_cost(CostModel {
        startup_secs: cost.startup_secs,
        memory_bytes: cost.memory_bytes,
        us_per_char: cost.us_per_char,
        quadratic_ref: if context { Some(500.0) } else { None },
    });
    match entity {
        EntityType::Disease => op
            .with_reads(&["text"])
            .with_writes(&["entities"])
            .with_library("opennlp", 14),
        _ => op
            .with_reads(&["text", "sentences"])
            .with_writes(&["entities"])
            .with_library("opennlp", 15),
    }
}

/// FlatMap exploding a tokenized document into one record per token,
/// carrying the lower-cased token text in `token` — the feed of a
/// `base.count_by("token")` frequency reduce. An ASCII token is
/// lower-cased in one buffer reused across the document, so its `Arc<str>`
/// is the token's only allocation besides its record's one-field map.
pub fn explode_tokens() -> Operator {
    Operator::flat_map("core.explode_tokens", Package::Base, |r| {
        let Some(text) = r.text() else { return Vec::new() };
        let Some(tokens) = r.get("tokens").and_then(Value::spans) else { return Vec::new() };
        let mut out = Vec::with_capacity(tokens.size_hint().1.unwrap_or(0));
        let mut lower = String::new();
        // lint:hot_loop(begin): per-token explode loop
        for span in tokens {
            // a negative offset is a huge `usize`: out of range like any other
            let Some(token) = text.get(span.start as usize..span.end as usize) else { continue };
            if token.is_empty() {
                continue;
            }
            let token: Arc<str> = if token.is_ascii() {
                lower.clear();
                lower.push_str(token);
                lower.make_ascii_lowercase();
                Arc::from(lower.as_str())
            } else {
                token.to_lowercase().into()
            };
            let mut rec = Record(FieldMap::with_capacity(1));
            rec.set("token", token);
            out.push(rec);
        }
        // lint:hot_loop(end)
        out
    })
    .with_reads(&["text", "tokens"])
    .with_writes(&["token"])
    .with_cost(CostModel {
        us_per_char: 0.01,
        ..CostModel::default()
    })
}

/// Registers IE operators over shared resources.
pub fn register(reg: &mut OperatorRegistry, resources: Arc<IeResources>) {
    reg.register("ie.annotate_sentences", annotate_sentences);
    reg.register("ie.annotate_tokens", annotate_tokens);
    let res = resources.clone();
    reg.register("ie.annotate_pos", move || annotate_pos(res.pos.clone()));
    reg.register("ie.annotate_negation", annotate_negation);
    reg.register("ie.annotate_pronouns", annotate_pronouns);
    reg.register("ie.annotate_parentheses", annotate_parentheses);
    for entity in EntityType::all() {
        let res = resources.clone();
        reg.register(
            &format!("ie.annotate_entities_dict_{}", entity.name()),
            move || annotate_entities_dict(&res, entity),
        );
        let res = resources.clone();
        reg.register(
            &format!("ie.annotate_entities_ml_{}", entity.name()),
            move || annotate_entities_ml(&res, entity),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;
    use websift_corpus::LexiconScale;

    fn resources() -> &'static IeResources {
        static RES: OnceLock<IeResources> = OnceLock::new();
        RES.get_or_init(|| IeResources::quick_for_tests(LexiconScale::tiny()))
    }

    fn doc(text: &str) -> Record {
        let mut r = Record::new();
        r.set("text", text);
        r
    }

    fn with_sentences(text: &str) -> Record {
        let out = annotate_sentences().apply(vec![doc(text)]);
        out.into_iter().next().unwrap()
    }

    #[test]
    fn sentence_annotation() {
        let r = with_sentences("First sentence here. Second one follows.");
        let sents = sentence_spans(&r);
        assert_eq!(sents.len(), 2);
        assert_eq!(sents[0].0, 0);
    }

    #[test]
    fn sentence_spans_fallback_without_annotation() {
        let r = doc("no sentence annotation");
        assert_eq!(sentence_spans(&r), vec![(0, 22)]);
        assert!(sentence_spans(&doc("")).is_empty());
    }

    /// Both spellings of a span array.
    #[derive(Debug, Clone, Copy)]
    enum Spelling {
        Packed,
        Plain,
    }

    /// A record whose `field` annotation a hostile or buggy producer
    /// wrote: offsets are whatever integers it liked.
    fn with_spans(text: &str, field: &str, spans: &[(i64, i64)], spelling: Spelling) -> Record {
        let mut r = doc(text);
        let spans = spans.iter().map(|&(start, end)| Span { start, end });
        r.set(field, match spelling {
            Spelling::Packed => Value::Spans(spans.collect()),
            Spelling::Plain => Value::Array(spans.map(Value::from).collect()),
        });
        r
    }

    /// "naïve" puts a two-byte char at 28..30; the gene is a lexicon term
    /// the tiny CRF has seen, so the ML annotator has something to find.
    fn hostile_text() -> String {
        let lexicon = websift_corpus::Lexicon::generate(LexiconScale::tiny());
        format!("It does not bind (so far) naïve cells. Expression of {} increased.", lexicon.genes()[1])
    }
    /// inverted, negative start, negative both, start past the end, both
    /// ends inside `ï`, end inside `ï`
    const HOSTILE: [(i64, i64); 6] = [(30, 10), (-5, 12), (-9, -2), (500, 900), (29, 29), (0, 29)];

    #[test]
    fn sentence_text_clamps_the_end_and_rejects_the_rest() {
        let text = "It does not bind (so far) naïve cells. Expression rose.";
        assert_eq!(sentence_text(text, (40, 56)), "Expression rose.");
        assert_eq!(sentence_text(text, (40, 10_000)), "Expression rose.");
        assert_eq!(sentence_text(text, (56, 56)), "");
        for (s, e) in HOSTILE {
            assert_eq!(sentence_text(text, (s as usize, e as usize)), "", "span {s}..{e}");
        }
        assert_eq!(sentence_text("", (0, 0)), "");
    }

    #[test]
    fn hostile_sentence_spans_flow_through_every_sentence_reader() {
        let readers = [
            annotate_pos(resources().pos.clone()),
            annotate_negation(),
            annotate_pronouns(),
            annotate_parentheses(),
            annotate_entities_ml(resources(), EntityType::Gene),
        ];
        let text = hostile_text();
        let split = with_sentences(&text);
        assert!(matches!(split.get("sentences"), Some(Value::Spans(_))), "the splitter packs");
        let valid = [(0, 39), (40, text.len() as i64)];
        assert_eq!(sentence_spans(&split), valid.map(|(s, e)| (s as usize, e as usize)));
        let mut mixed = valid.to_vec();
        mixed.extend(HOSTILE);
        for op in readers {
            // an annotator that finds nothing may leave its field unset
            let found = |r: &Record| -> Vec<Value> {
                r.get(&op.writes[0]).and_then(Value::as_array).map(<[Value]>::to_vec).unwrap_or_default()
            };
            let clean = found(&op.apply(vec![split.clone()])[0]);
            assert!(!clean.is_empty(), "{} finds nothing in the clean text", op.name);
            // the splitter's annotation and the same spans written by hand,
            // as plain objects, are the same input
            let by_hand = with_spans(&text, "sentences", &valid, Spelling::Plain);
            assert_eq!(found(&op.apply(vec![by_hand])[0]), clean, "{}", op.name);

            for spelling in [Spelling::Plain, Spelling::Packed] {
                // hostile spans alone: the record flows through, nothing is found
                let out = op.apply(vec![with_spans(&text, "sentences", &HOSTILE, spelling)]);
                assert_eq!(out.len(), 1, "{} {spelling:?}", op.name);
                assert_eq!(found(&out[0]), [], "{} {spelling:?}", op.name);
                if op.name == "ie.annotate_pos" {
                    assert_eq!(out[0].get("pos_errors").unwrap().as_int(), Some(6));
                }

                // after the valid ones, they change nothing about those
                let out = op.apply(vec![with_spans(&text, "sentences", &mixed, spelling)]);
                assert_eq!(found(&out[0]), clean, "{} {spelling:?}", op.name);
            }
        }
    }

    #[test]
    fn token_annotation() {
        let out = annotate_tokens().apply(vec![doc("two tokens")]);
        let tokens = out[0].get("tokens").unwrap();
        assert!(matches!(tokens, Value::Spans(_)), "the tokenizer packs");
        assert_eq!(tokens.array_len(), Some(2));
    }

    #[test]
    fn hostile_token_spans_flow_through_explode_tokens() {
        let text = hostile_text();
        let tokenized = annotate_tokens().apply(vec![doc(&text)]).remove(0);
        let clean = explode_tokens().apply(vec![tokenized.clone()]);
        assert!(clean.len() > 10, "{} tokens", clean.len());
        let valid: Vec<(i64, i64)> =
            tokenized.get("tokens").and_then(Value::spans).unwrap().map(|s| (s.start, s.end)).collect();
        let mut mixed = valid.clone();
        mixed.extend(HOSTILE);
        mixed.extend(&valid[..3]);
        let mut after_mixed = clean.clone();
        after_mixed.extend_from_slice(&clean[..3]);
        for spelling in [Spelling::Plain, Spelling::Packed] {
            let explode = |spans: &[(i64, i64)]| {
                explode_tokens().apply(vec![with_spans(&text, "tokens", spans, spelling)])
            };
            assert_eq!(explode(&valid), clean, "{spelling:?}");
            // inverted, negative, out of range, empty or cutting `ï`: skipped
            assert_eq!(explode(&HOSTILE), [], "{spelling:?}");
            assert_eq!(explode(&mixed), after_mixed, "{spelling:?}");
        }
        // a plain element that is no span at all is skipped like a hostile one
        let mut r = doc(&text);
        r.set("tokens", Value::Array(vec![Value::Int(3), Value::from(Span { start: 0, end: 2 })]));
        assert_eq!(explode_tokens().apply(vec![r]), clean[..1]);
    }

    #[test]
    fn pos_annotation_and_error_counting() {
        let r = with_sentences("The gene regulates the protein.");
        let out = annotate_pos(resources().pos.clone()).apply(vec![r]);
        let pos = out[0].get("pos").unwrap().as_array().unwrap();
        assert_eq!(pos.len(), 1);
        assert_eq!(out[0].get("pos_errors").unwrap().as_int(), Some(0));

        // a pathological unpunctuated blob exceeds the tagger's budget
        let blob = "word ".repeat(600);
        let r = with_sentences(&blob);
        let tagger = Arc::new(PosTagger::pretrained().clone().with_max_tokens(100));
        let out = annotate_pos(tagger).apply(vec![r]);
        assert_eq!(out[0].get("pos_errors").unwrap().as_int(), Some(1));
    }

    #[test]
    fn negation_annotation() {
        let r = with_sentences("This does not work. Neither does that. All fine here.");
        let out = annotate_negation().apply(vec![r]);
        let ns = out[0].get("negation").unwrap().as_array().unwrap();
        assert_eq!(ns.len(), 2);
    }

    #[test]
    fn pronoun_classes() {
        let r = with_sentences("They saw it. Their results, which we measured.");
        let out = annotate_pronouns().apply(vec![r]);
        let ps = out[0].get("pronouns").unwrap().as_array().unwrap();
        let classes: Vec<&str> = ps
            .iter()
            .filter_map(|p| p.as_object()?.get("class")?.as_str())
            .collect();
        assert!(classes.contains(&"personal"));
        assert!(classes.contains(&"possessive"));
        assert!(classes.contains(&"relative"));
    }

    #[test]
    fn a_folded_pronoun_has_the_class_of_the_word_it_matched() {
        // `İ` (U+0130) folds onto `i`, but lower-cases to `i` + U+0307
        let r = with_sentences("İt saw thİs, hİm and İ. Them.");
        let out = annotate_pronouns().apply(vec![r]);
        let ps = out[0].get("pronouns").unwrap().as_array().unwrap();
        let classes: Vec<&str> =
            ps.iter().filter_map(|p| p.as_object()?.get("class")?.as_str()).collect();
        assert_eq!(classes, ["personal", "demonstrative", "object", "personal", "object"]);
    }

    /// The three scanners against the definition of their patterns: a
    /// brute-force leftmost-longest, non-overlapping search over every pair
    /// of char boundaries, with `\b`, `[^()]` and case folding spelled as the
    /// regex engine the annotators used to run defined them.
    mod differential {
        use super::*;
        use proptest::prelude::*;

        // The engine's `flip_case`, `chars_eq` and `is_word`, verbatim.
        fn flip_case(c: char) -> char {
            if c.is_uppercase() {
                c.to_lowercase().next().unwrap_or(c)
            } else {
                c.to_uppercase().next().unwrap_or(c)
            }
        }

        fn chars_eq(a: char, b: char, ci: bool) -> bool {
            a == b || (ci && (flip_case(a) == b || a == flip_case(b)))
        }

        fn is_word(c: char) -> bool {
            c.is_alphanumeric() || c == '_'
        }

        /// `[^()]` under folding: a negated class of two one-char ranges
        /// matches `c` unless `c` or its flipped case is in a range.
        fn in_not_paren_class(c: char) -> bool {
            let hit = |c: char| c == '(' || c == ')';
            !(hit(c) || hit(flip_case(c)))
        }

        /// `\b` at byte `at` of `s`: a word char on exactly one side.
        fn word_boundary(s: &str, at: usize) -> bool {
            let prev = s[..at].chars().next_back().is_some_and(is_word);
            let next = s[at..].chars().next().is_some_and(is_word);
            prev != next
        }

        /// At each char boundary from the end of the last match on, the
        /// longest `start..end` that `matches` (neither pattern matches
        /// empty), tagged with what `matches` returned for it.
        fn brute_force(
            s: &str,
            matches: impl Fn(usize, usize) -> Option<Option<&'static str>>,
        ) -> Vec<Hit> {
            let bounds: Vec<usize> = s.char_indices().map(|(i, _)| i).chain([s.len()]).collect();
            let mut out = Vec::new();
            let mut from = 0;
            for &start in bounds.iter().filter(|&&b| b < s.len()) {
                if start < from {
                    continue;
                }
                let mut ends = bounds.iter().rev().take_while(|&&end| end > start);
                if let Some(hit) = ends.find_map(|&end| Some((start, end, matches(start, end)?))) {
                    from = hit.1;
                    out.push(hit);
                }
            }
            out
        }

        /// `\b(w1|…|wn)\b`, case-insensitive; a match reports its word's tag.
        fn words_oracle(s: &str, words: &Words) -> Vec<Hit> {
            brute_force(s, |start, end| {
                let m = &s[start..end];
                let pairs = |w: &&str| {
                    m.chars().count() == w.chars().count()
                        && m.chars().zip(w.chars()).all(|(c, p)| chars_eq(p, c, true))
                };
                let bounded = word_boundary(s, start) && word_boundary(s, end);
                let group = words.groups.iter().find(|(_, list)| bounded && list.iter().any(pairs));
                group.map(|&(tag, _)| tag)
            })
        }

        /// `\([^()]*\)`, case-insensitive.
        fn parentheses_oracle(s: &str) -> Vec<Hit> {
            brute_force(s, |start, end| {
                let m: Vec<char> = s[start..end].chars().collect();
                let [first, inner @ .., last] = m.as_slice() else { return None };
                let hit = chars_eq('(', *first, true)
                    && inner.iter().all(|&c| in_not_paren_class(c))
                    && chars_eq(')', *last, true);
                hit.then_some(None)
            })
        }

        /// Listed words in several cases; the chars that fold onto a
        /// listed word's letters (`İ`, the Kelvin sign) and those that only
        /// look as if they might (`ı`, `ſ`, `ß`, ligatures, a combining
        /// dot after `i`); word chars that glue onto a word (`_`, digits,
        /// CJK, accented letters); parens and the `\n` that `[^()]` takes.
        const PIECES: &[&str] = &[
            "it", "It", "IT", "İt", "thİs", "hİm", "İ", "i\u{307}", "ı", "I", "i", "not", "NOT",
            "Nor", "neİther", "neither", "nothing", "themselves", "ThemSelves", "whom", "Us",
            "me", "her", "its", "ß", "ſ", "\u{212A}", "\u{FB01}", "\u{FB00}", "st", "_", "7",
            "42", "中文", "é", "ü", "(", ")", "(", ")", "\n", " ", " ", " ", ".", ",", "-", "s",
            "h",
        ];

        proptest! {
            #[test]
            fn differential_scanners_match_their_patterns_by_brute_force(
                picks in prop::collection::vec(0usize..PIECES.len(), 0..24),
                offsets in prop::collection::vec(-4i64..120, 0..12),
            ) {
                let text: String = picks.iter().map(|&i| PIECES[i]).collect();
                prop_assert_eq!(find_words(&text, &NEGATIONS), words_oracle(&text, &NEGATIONS));
                prop_assert_eq!(find_words(&text, &PRONOUNS), words_oracle(&text, &PRONOUNS));
                prop_assert_eq!(find_parentheses(&text), parentheses_oracle(&text));

                // Through the operators: the whole text as one sentence,
                // then hostile spans — inverted, negative, past the end,
                // cutting a char — that read as empty sentences.
                let mut sentences = vec![(0, text.len() as i64)];
                sentences.extend(offsets.chunks_exact(2).map(|p| (p[0], p[1])));
                let annotators: [(Operator, Scan); 3] = [
                    (annotate_negation(), |s| words_oracle(s, &NEGATIONS)),
                    (annotate_pronouns(), |s| words_oracle(s, &PRONOUNS)),
                    (annotate_parentheses(), parentheses_oracle),
                ];
                for (op, oracle) in annotators {
                    let mut want = Vec::new();
                    for (si, &(start, end)) in sentences.iter().enumerate() {
                        let start = start as usize;
                        for (s, e, class) in oracle(sentence_text(&text, (start, end as usize))) {
                            let mut extra = vec![("sentence", Value::Int(si as i64))];
                            extra.extend(class.map(|c| ("class", Value::from(c))));
                            want.push(span_annotation(start + s, start + e, &extra));
                        }
                    }
                    for spelling in [Spelling::Packed, Spelling::Plain] {
                        let r = with_spans(&text, "sentences", &sentences, spelling);
                        let out = op.apply(vec![r]);
                        prop_assert_eq!(out[0].get(&op.writes[0]), Some(&Value::Array(want.clone())));
                    }
                }
            }
        }

        /// The premise of `find_words`, over all of Unicode.
        #[test]
        fn every_char_that_folds_onto_a_letter_is_a_word_char() {
            let folding: Vec<char> = (0..=char::MAX as u32)
                .filter_map(char::from_u32)
                .filter(|&c| !c.is_ascii() && ('a'..='z').any(|w| chars_eq(w, c, true)))
                .collect();
            assert_eq!(folding, ['\u{130}', '\u{212A}']);
            assert!(folding.into_iter().all(is_word));
        }

        #[test]
        fn differential_oracle_sees_what_it_must() {
            let hits = |s: &str| words_oracle(s, &PRONOUNS);
            assert_eq!(hits("İt"), [(0, 3, Some("personal"))]);
            assert_eq!(hits("\u{212A}"), []);
            assert_eq!(hits("it_ 7it it7 its"), [(12, 15, Some("possessive"))]);
            assert_eq!(hits("i\u{307}"), [(0, 1, Some("personal"))], "a combining mark is no word char");
            assert_eq!(words_oracle("Not,NOR neither", &NEGATIONS).len(), 3);
            assert_eq!(parentheses_oracle("((a\n)) ()"), [(1, 5, None), (7, 9, None)]);
        }
    }

    #[test]
    fn parentheses_annotation() {
        let r = with_sentences("The gene (also called TP53) matters (P < 0.01).");
        let out = annotate_parentheses().apply(vec![r]);
        assert_eq!(out[0].get("parens").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn dict_entity_annotation_finds_lexicon_terms() {
        let lexicon = websift_corpus::Lexicon::generate(LexiconScale::tiny());
        let gene = &lexicon.genes()[0];
        let r = with_sentences(&format!("Mutations of {gene} were frequent."));
        let out = annotate_entities_dict(resources(), EntityType::Gene).apply(vec![r]);
        let ents = out[0].get("entities").unwrap().as_array().unwrap();
        assert_eq!(ents.len(), 1);
        let o = ents[0].as_object().unwrap();
        assert_eq!(o["type"].as_str(), Some("gene"));
        assert_eq!(o["method"].as_str(), Some("dict"));
    }

    #[test]
    fn ml_entity_annotation_produces_mentions_with_offsets() {
        let lexicon = websift_corpus::Lexicon::generate(LexiconScale::tiny());
        let gene = &lexicon.genes()[1];
        let text = format!("Filler sentence first. Expression of {gene} increased.");
        let r = with_sentences(&text);
        let out = annotate_entities_ml(resources(), EntityType::Gene).apply(vec![r]);
        let ents = out[0].get("entities").unwrap().as_array().unwrap();
        assert!(!ents.is_empty(), "CRF should tag a gene-like symbol");
        for e in ents {
            let o = e.as_object().unwrap();
            let (s, e_) = (
                o["start"].as_int().unwrap() as usize,
                o["end"].as_int().unwrap() as usize,
            );
            assert!(e_ <= text.len() && s < e_);
            assert_eq!(o["method"].as_str(), Some("ml"));
        }
    }

    #[test]
    fn disease_ml_tagger_declares_conflicting_library() {
        let sent = annotate_sentences();
        let disease = annotate_entities_ml(resources(), EntityType::Disease);
        assert_eq!(sent.library, Some(("opennlp".to_string(), 15)));
        assert_eq!(disease.library, Some(("opennlp".to_string(), 14)));
    }

    #[test]
    fn dict_cost_dwarfed_by_ml_cost() {
        let dict = annotate_entities_dict(resources(), EntityType::Gene);
        let ml = annotate_entities_ml(resources(), EntityType::Gene);
        assert!(ml.cost.us_per_char > 50.0 * dict.cost.us_per_char);
    }
}
