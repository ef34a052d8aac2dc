//! Offset-preserving tokenizer.
//!
//! Biomedical text is full of tokens that naive whitespace/punctuation
//! splitting destroys: gene symbols like `BRCA1`, hyphenated drug codes like
//! `GAD-67`, and decimal measurements. The tokenizer below keeps
//! alphanumeric-with-internal-hyphen/period tokens intact while still
//! splitting trailing punctuation, and records byte offsets so downstream
//! annotators can report `start/end` positions exactly as the paper's
//! pipeline does.

/// Coarse token class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokenKind {
    /// Letters, possibly mixed with digits or internal hyphens (`BRCA1`,
    /// `GAD-67`, `anti-inflammatory`).
    Word,
    /// Pure numbers, including decimals (`3.5`, `1,000`).
    Number,
    /// A single punctuation character.
    Punct,
}

/// A token: byte span into the source text plus its kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    pub start: usize,
    pub end: usize,
    pub kind: TokenKind,
}

impl Token {
    /// The token's text within its source.
    pub fn text<'a>(&self, source: &'a str) -> &'a str {
        &source[self.start..self.end]
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

fn is_word_char(c: char) -> bool {
    c.is_alphanumeric()
}

/// The char at byte `i` when it is a word char: `Some((utf8_len,
/// is_ascii_digit))`, else `None` (including end of text). The single-byte
/// fast path never decodes; multi-byte chars fall back to `chars()`.
#[inline]
fn word_at(text: &str, i: usize) -> Option<(usize, bool)> {
    let b = *text.as_bytes().get(i)?;
    if b < 0x80 {
        b.is_ascii_alphanumeric().then_some((1, b.is_ascii_digit()))
    } else {
        let c = text[i..].chars().next()?;
        is_word_char(c).then_some((c.len_utf8(), false))
    }
}

/// Tokenizes `text`, returning byte-offset tokens.
///
/// Rules:
/// - maximal runs of alphanumeric characters form `Word`/`Number` tokens;
/// - a joiner character (`-`, `'`, `.`, `,`) *between* two alphanumerics is
///   kept inside the token (`GAD-67`, `3.5`, `Crohn's`);
/// - any other non-whitespace character becomes a single `Punct` token;
/// - whitespace separates tokens and is never part of one.
///
/// The scan is a byte loop: ASCII text (the overwhelmingly common case on
/// web corpora) never materializes chars or a side table, and multi-byte
/// chars are decoded only at the position being looked at.
pub fn tokenize(text: &str) -> Vec<Token> {
    let bytes = text.as_bytes();
    let n = bytes.len();
    let mut tokens = Vec::new();
    let mut i = 0;
    // lint:hot_loop(begin): tokenizer byte scan loop
    while i < n {
        let b = bytes[i];
        // Classify the char starting at i without decoding ASCII.
        let (char_len, word0) = if b < 0x80 {
            if matches!(b, b'\t'..=b'\r' | b' ') {
                i += 1;
                continue;
            }
            (1, b.is_ascii_alphanumeric().then_some(b.is_ascii_digit()))
        } else {
            let c = text[i..].chars().next().expect("i is on a char boundary");
            if c.is_whitespace() {
                i += c.len_utf8();
                continue;
            }
            (c.len_utf8(), is_word_char(c).then_some(false))
        };
        let Some(first_digit) = word0 else {
            tokens.push(Token { start: i, end: i + char_len, kind: TokenKind::Punct });
            i += char_len;
            continue;
        };
        let start = i;
        let mut all_numeric = first_digit;
        i += char_len;
        loop {
            if let Some((len, digit)) = word_at(text, i) {
                all_numeric &= digit;
                i += len;
                continue;
            }
            let joined = if i < n && is_ascii_joiner(bytes[i]) {
                word_at(text, i + 1)
            } else {
                None
            };
            let Some((len, digit)) = joined else { break };
            // Joiners other than '.'/',' break the "number" property.
            if !matches!(bytes[i], b'.' | b',') {
                all_numeric = false;
            }
            all_numeric &= digit;
            i += 1 + len;
        }
        tokens.push(Token {
            start,
            end: i,
            kind: if all_numeric { TokenKind::Number } else { TokenKind::Word },
        });
    }
    // lint:hot_loop(end)
    tokens
}

fn is_ascii_joiner(b: u8) -> bool {
    matches!(b, b'-' | b'\'' | b'.' | b',')
}

/// Convenience: tokenize and materialize the token strings.
pub fn token_strings(text: &str) -> Vec<String> {
    tokenize(text)
        .into_iter()
        .map(|t| t.text(text).to_string())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(s: &str) -> Vec<String> {
        token_strings(s)
    }

    #[test]
    fn splits_simple_sentence() {
        assert_eq!(
            texts("The cat sat."),
            vec!["The", "cat", "sat", "."]
        );
    }

    #[test]
    fn keeps_gene_symbols_intact() {
        assert_eq!(texts("BRCA1 and GAD-67 interact"), vec![
            "BRCA1", "and", "GAD-67", "interact"
        ]);
    }

    #[test]
    fn keeps_decimals_and_classifies_numbers() {
        let toks = tokenize("dose 3.5 mg");
        assert_eq!(toks.len(), 3);
        assert_eq!(toks[1].text("dose 3.5 mg"), "3.5");
        assert_eq!(toks[1].kind, TokenKind::Number);
        assert_eq!(toks[0].kind, TokenKind::Word);
    }

    #[test]
    fn trailing_period_is_separate() {
        let toks = texts("aspirin.");
        assert_eq!(toks, vec!["aspirin", "."]);
    }

    #[test]
    fn apostrophes_inside_words() {
        assert_eq!(texts("Crohn's disease"), vec!["Crohn's", "disease"]);
    }

    #[test]
    fn punctuation_tokens() {
        assert_eq!(texts("(p<0.01)"), vec!["(", "p", "<", "0.01", ")"]);
    }

    #[test]
    fn empty_and_whitespace_only() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("   \t\n ").is_empty());
    }

    #[test]
    fn offsets_roundtrip() {
        let s = "Genes (e.g. TP53) regulate cells.";
        for t in tokenize(s) {
            assert!(t.end <= s.len());
            assert!(!t.text(s).is_empty());
            assert!(!t.text(s).chars().any(char::is_whitespace));
        }
    }

    #[test]
    fn unicode_text() {
        let s = "naïve Bayes — 95% précision";
        let toks = texts(s);
        assert!(toks.contains(&"naïve".to_string()));
        assert!(toks.contains(&"précision".to_string()));
    }

    #[test]
    fn number_with_thousands_separator() {
        let toks = tokenize("about 1,000 pages");
        assert_eq!(toks[1].text("about 1,000 pages"), "1,000");
        assert_eq!(toks[1].kind, TokenKind::Number);
    }

    /// True if `c` may join two word characters inside one token
    /// (hyphen in `GAD-67`, apostrophe in `Crohn's`, period in `i.v.`).
    fn is_internal_joiner(c: char) -> bool {
        matches!(c, '-' | '\'' | '.' | ',')
    }

    /// The pre-fast-path implementation, kept verbatim as the semantic
    /// reference: the byte-loop `tokenize` must agree on every input.
    fn reference_tokenize(text: &str) -> Vec<Token> {
        let mut tokens = Vec::new();
        let bytes: Vec<(usize, char)> = text.char_indices().collect();
        let n = bytes.len();
        let mut i = 0;
        while i < n {
            let (off, c) = bytes[i];
            if c.is_whitespace() {
                i += 1;
                continue;
            }
            if is_word_char(c) {
                let start = off;
                let mut all_numeric = c.is_ascii_digit();
                let mut j = i + 1;
                loop {
                    if j < n && is_word_char(bytes[j].1) {
                        all_numeric &= bytes[j].1.is_ascii_digit();
                        j += 1;
                    } else if j + 1 < n
                        && is_internal_joiner(bytes[j].1)
                        && is_word_char(bytes[j + 1].1)
                    {
                        if !matches!(bytes[j].1, '.' | ',') {
                            all_numeric = false;
                        }
                        j += 2;
                        all_numeric &= bytes[j - 1].1.is_ascii_digit();
                    } else {
                        break;
                    }
                }
                let end = if j < n { bytes[j].0 } else { text.len() };
                tokens.push(Token {
                    start,
                    end,
                    kind: if all_numeric { TokenKind::Number } else { TokenKind::Word },
                });
                i = j;
            } else {
                let end = if i + 1 < n { bytes[i + 1].0 } else { text.len() };
                tokens.push(Token { start: off, end, kind: TokenKind::Punct });
                i += 1;
            }
        }
        tokens
    }

    #[test]
    fn byte_loop_agrees_with_reference() {
        // Deterministic LCG over a palette that exercises every branch:
        // joiners at token edges, digits vs letters, multi-byte word and
        // non-word chars, exotic whitespace, and ASCII punctuation.
        let mut state = 0xfeed_f00d_cafe_1234u64;
        let mut next = move |bound: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as usize) % bound
        };
        let palette: Vec<char> = "ab1 9.'-,(ü)é\u{0b}\u{a0}√ß中\tx".chars().collect();
        for _ in 0..500 {
            let len = next(32);
            let text: String = (0..len).map(|_| palette[next(palette.len())]).collect();
            assert_eq!(
                tokenize(&text),
                reference_tokenize(&text),
                "byte-loop tokenizer diverges on {text:?}"
            );
        }
        for text in ["GAD-67.", "3.5,", "a-", "-a", "1,000", "x.y.z", "ü-ü", "5'3", "a.\u{a0}b"] {
            assert_eq!(tokenize(text), reference_tokenize(text), "diverges on {text:?}");
        }
    }
}
