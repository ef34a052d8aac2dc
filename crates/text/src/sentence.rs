//! Rule-based sentence boundary detection.
//!
//! The paper's pipeline annotates "sentence and token boundaries" on every
//! document before any further analysis. On clean scientific abstracts this
//! is easy; on web text stripped of markup it is not — the paper observes
//! "very long sentences ... with more than 2000 characters" that are
//! "possibly wrongly extracted by the boilerplate detection ... without any
//! sentence structures", which then destabilize downstream taggers.
//!
//! [`SentenceSplitter`] reproduces both behaviours: a standard
//! abbreviation-aware splitter on punctuated text, and pass-through of huge
//! unpunctuated blobs as single "sentences" (optionally capped with
//! [`SentenceSplitter::with_max_len`], the mitigation the paper discusses).

/// A sentence: a byte span into the source document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sentence {
    pub start: usize,
    pub end: usize,
}

impl Sentence {
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

/// Abbreviations after which a period does not end a sentence.
const ABBREVIATIONS: &[&str] = &[
    "e.g", "i.e", "etc", "al", "fig", "figs", "dr", "prof", "vs", "ca", "approx", "resp", "cf",
    "no", "vol", "pp", "ref", "eq", "sec", "mr", "mrs", "ms", "st", "inc", "ltd", "dept",
];

/// Sentence splitter configuration.
#[derive(Debug, Clone)]
pub struct SentenceSplitter {
    /// If set, sentences longer than this many bytes are force-split at the
    /// nearest whitespace — the "upper limit on sentence length" workaround
    /// the paper proposes (trading information yield for robustness).
    max_len: Option<usize>,
}

impl Default for SentenceSplitter {
    fn default() -> Self {
        SentenceSplitter::new()
    }
}

impl SentenceSplitter {
    /// A splitter with no length cap (the paper's original configuration).
    pub fn new() -> SentenceSplitter {
        SentenceSplitter { max_len: None }
    }

    /// Adds a hard upper bound on sentence length in bytes.
    pub fn with_max_len(max_len: usize) -> SentenceSplitter {
        assert!(max_len > 0, "max_len must be positive");
        SentenceSplitter {
            max_len: Some(max_len),
        }
    }

    /// Splits `text` into sentence spans.
    ///
    /// A sentence ends at `.`, `!`, or `?` when followed by whitespace and
    /// an upper-case letter, digit-start, or end of text — unless the period
    /// terminates a known abbreviation or a single capital letter (middle
    /// initials). Newlines followed by blank lines (paragraph breaks) also
    /// end sentences. Text with no terminators at all comes back as one
    /// giant sentence, exactly the failure mode web text exhibits.
    pub fn split(&self, text: &str) -> Vec<Sentence> {
        let mut sentences = Vec::new();
        let chars: Vec<(usize, char)> = text.char_indices().collect();
        let n = chars.len();
        let mut start = 0usize; // byte offset of current sentence start
        let mut started = false;
        let mut i = 0usize;

        let flush = |sentences: &mut Vec<Sentence>, s: usize, e: usize| {
            let slice = &text[s..e];
            let trimmed_lead = slice.len() - slice.trim_start().len();
            let trimmed_trail = slice.len() - slice.trim_end().len();
            let (s, e) = (s + trimmed_lead, e - trimmed_trail);
            if s < e {
                sentences.push(Sentence { start: s, end: e });
            }
        };

        while i < n {
            let (off, c) = chars[i];
            if !started && !c.is_whitespace() {
                start = off;
                started = true;
            }
            let boundary = match c {
                '.' | '!' | '?' => {
                    // Look ahead: whitespace then capital/digit or EOF.
                    let next_ok = match chars.get(i + 1) {
                        None => true,
                        Some(&(_, nc)) if nc.is_whitespace() => {
                            // find next non-space char
                            let mut k = i + 1;
                            while k < n && chars[k].1.is_whitespace() {
                                k += 1;
                            }
                            k >= n || chars[k].1.is_uppercase() || chars[k].1.is_ascii_digit()
                        }
                        Some(&(_, '"')) | Some(&(_, ')')) => true,
                        _ => false,
                    };
                    if c == '.' && next_ok {
                        !self.ends_with_abbreviation(text, off)
                    } else {
                        next_ok
                    }
                }
                '\n' => {
                    // Paragraph break: blank line.
                    matches!(chars.get(i + 1), Some(&(_, '\n')))
                }
                _ => false,
            };
            if boundary && started {
                let end = off + c.len_utf8();
                flush(&mut sentences, start, end);
                started = false;
            }
            i += 1;
        }
        if started {
            flush(&mut sentences, start, text.len());
        }

        match self.max_len {
            Some(cap) => sentences
                .into_iter()
                .flat_map(|s| split_capped(text, s, cap))
                .collect(),
            None => sentences,
        }
    }

    /// True if the token ending at byte `period_off` (exclusive of the
    /// period itself) is a known abbreviation or a single capital letter.
    fn ends_with_abbreviation(&self, text: &str, period_off: usize) -> bool {
        let before = &text[..period_off];
        let word_start = before
            .rfind(|c: char| !c.is_alphanumeric() && c != '.')
            .map(|p| p + 1)
            .unwrap_or(0);
        let word = &before[word_start..];
        if word.is_empty() {
            return false;
        }
        // single capital letter => middle initial ("John D. Smith")
        if word.chars().count() == 1 && word.chars().next().unwrap().is_uppercase() {
            return true;
        }
        let lower = word.trim_end_matches('.').to_ascii_lowercase();
        ABBREVIATIONS.contains(&lower.as_str())
    }
}

/// Splits one over-long sentence at whitespace so that every piece is at
/// most `cap` bytes (pieces with a single huge token may still exceed it).
fn split_capped(text: &str, s: Sentence, cap: usize) -> Vec<Sentence> {
    if s.len() <= cap {
        return vec![s];
    }
    let mut out = Vec::new();
    let slice = s.text(text);
    let mut piece_start = 0usize;
    let mut last_space = None;
    for (i, c) in slice.char_indices() {
        if c.is_whitespace() {
            last_space = Some(i);
        }
        if i - piece_start >= cap {
            let cut = last_space.filter(|&p| p > piece_start).unwrap_or(i);
            if cut > piece_start {
                out.push(Sentence {
                    start: s.start + piece_start,
                    end: s.start + cut,
                });
                // skip the whitespace char itself when we cut on one
                piece_start = if slice[cut..].starts_with(char::is_whitespace) {
                    cut + 1
                } else {
                    cut
                };
                last_space = None;
            }
        }
    }
    if piece_start < slice.len() {
        let tail = slice[piece_start..].trim_start();
        let lead = slice.len() - piece_start - tail.len();
        if !tail.is_empty() {
            out.push(Sentence {
                start: s.start + piece_start + lead,
                end: s.end,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn split(text: &str) -> Vec<String> {
        SentenceSplitter::new()
            .split(text)
            .into_iter()
            .map(|s| s.text(text).to_string())
            .collect()
    }

    #[test]
    fn splits_two_sentences() {
        let s = split("The gene regulates cells. It is active in tumors.");
        assert_eq!(s.len(), 2);
        assert_eq!(s[0], "The gene regulates cells.");
        assert_eq!(s[1], "It is active in tumors.");
    }

    #[test]
    fn respects_abbreviations() {
        let s = split("Mutations occur in many genes, e.g. TP53 and BRCA1. They matter.");
        assert_eq!(s.len(), 2, "{s:?}");
    }

    #[test]
    fn respects_et_al() {
        let s = split("As shown by Smith et al. The results hold.");
        // "al." is an abbreviation, so the period does not split.
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn middle_initials_do_not_split() {
        let s = split("John D. Smith reported the finding. It was confirmed.");
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn question_and_exclamation() {
        let s = split("Does aspirin help? Yes! Trials confirm it.");
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn unpunctuated_blob_is_one_sentence() {
        let blob = "nav home products contact about privacy terms ".repeat(60);
        let s = SentenceSplitter::new().split(&blob);
        assert_eq!(s.len(), 1);
        assert!(s[0].len() > 2000, "reproduces the >2000-char sentences");
    }

    #[test]
    fn max_len_caps_sentences() {
        let blob = "word ".repeat(600);
        let splitter = SentenceSplitter::with_max_len(200);
        let sents = splitter.split(&blob);
        assert!(sents.len() > 10);
        for s in &sents {
            assert!(s.len() <= 205, "piece of {} bytes", s.len());
            assert!(!s.text(&blob).trim().is_empty());
        }
    }

    #[test]
    fn paragraph_breaks_split() {
        let s = split("First paragraph without period\n\nsecond paragraph");
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn decimal_numbers_do_not_split() {
        let s = split("The dose was 3.5 mg per day. Patients improved.");
        assert_eq!(s.len(), 2);
        assert!(s[0].contains("3.5"));
    }

    #[test]
    fn empty_input() {
        assert!(split("").is_empty());
        assert!(split("   \n ").is_empty());
    }

    #[test]
    fn spans_are_within_bounds_and_ordered() {
        let text = "One. Two! Three? Four.";
        let sents = SentenceSplitter::new().split(text);
        let mut prev_end = 0;
        for s in sents {
            assert!(s.start >= prev_end);
            assert!(s.end <= text.len());
            prev_end = s.end;
        }
    }
}
