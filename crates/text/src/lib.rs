//! NLP substrate for the websift workspace.
//!
//! The paper's analysis pipeline (its Fig. 2) runs every document through
//! sentence detection, tokenization, linguistic annotation (negation,
//! pronouns, parentheses), and part-of-speech tagging with an order-3
//! Hidden Markov Model (the MedPost tagger). Upstream, the focused crawler
//! filters non-English pages with a character n-gram language identifier.
//!
//! This crate implements those components from scratch (the linguistic
//! annotators are three constant patterns, scanned directly by
//! `websift_flow::packages::ie`):
//!
//! - [`tokenize`] — offset-preserving word/number/punctuation tokenizer;
//! - [`sentence`] — rule-based sentence boundary detection with an
//!   abbreviation list, including the web-text failure mode the paper
//!   describes (pathologically long "sentences" on boilerplate leftovers);
//! - [`ngram`] / [`langid`] — character n-gram profiles and a
//!   Cavnar-Trenkle style language identifier;
//! - [`pos`] — a trainable order-3 (trigram) HMM part-of-speech tagger with
//!   Viterbi decoding and a suffix-based unknown-word model.

pub mod langid;
pub mod ngram;
pub mod pos;
pub mod sentence;
pub mod tokenize;

pub use langid::{Lang, LanguageId};
pub use pos::{PosTag, PosTagger};
pub use sentence::{Sentence, SentenceSplitter};
pub use tokenize::{tokenize, Token, TokenKind};
