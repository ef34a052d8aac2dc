//! Classifier / extractor evaluation: confusion matrices, precision, recall,
//! F1, and k-fold cross-validation splits.
//!
//! Used to reproduce the paper's quality numbers for the focus classifier
//! ("precision of 98% at a recall of 83% in 10-fold cross validation") and
//! the boilerplate detector.

/// Binary confusion matrix.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConfusionMatrix {
    pub true_positives: u64,
    pub false_positives: u64,
    pub true_negatives: u64,
    pub false_negatives: u64,
}

/// Precision/recall/F1 triple.
#[derive(Debug, Clone, Copy)]
pub struct PrScores {
    pub precision: f64,
    pub recall: f64,
    pub f1: f64,
}

impl ConfusionMatrix {
    /// Records one prediction against its gold label (`true` = positive).
    pub fn record(&mut self, predicted: bool, actual: bool) {
        match (predicted, actual) {
            (true, true) => self.true_positives += 1,
            (true, false) => self.false_positives += 1,
            (false, false) => self.true_negatives += 1,
            (false, true) => self.false_negatives += 1,
        }
    }

    /// Merges another matrix into this one (e.g. across CV folds).
    pub fn merge(&mut self, other: &ConfusionMatrix) {
        self.true_positives += other.true_positives;
        self.false_positives += other.false_positives;
        self.true_negatives += other.true_negatives;
        self.false_negatives += other.false_negatives;
    }

    pub fn total(&self) -> u64 {
        self.true_positives + self.false_positives + self.true_negatives + self.false_negatives
    }

    /// Precision `TP / (TP + FP)`; 0 when no positive predictions were made.
    pub fn precision(&self) -> f64 {
        let denom = self.true_positives + self.false_positives;
        if denom == 0 {
            0.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// Recall `TP / (TP + FN)`; 0 when no gold positives exist.
    pub fn recall(&self) -> f64 {
        let denom = self.true_positives + self.false_negatives;
        if denom == 0 {
            0.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// Harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Fraction of correct predictions.
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            (self.true_positives + self.true_negatives) as f64 / total as f64
        }
    }

    pub fn scores(&self) -> PrScores {
        PrScores {
            precision: self.precision(),
            recall: self.recall(),
            f1: self.f1(),
        }
    }
}

/// Produces `k` (train, test) index partitions over `n` items, in order.
///
/// Fold `i` tests on the contiguous block `[i*n/k, (i+1)*n/k)`. Callers that
/// need randomized folds should shuffle their data first; keeping the split
/// deterministic here makes experiments reproducible.
pub fn kfold_indices(n: usize, k: usize) -> Vec<(Vec<usize>, Vec<usize>)> {
    assert!(k >= 2, "k-fold needs k >= 2, got {k}");
    assert!(n >= k, "k-fold needs at least k items ({k}), got {n}");
    let mut folds = Vec::with_capacity(k);
    for i in 0..k {
        let start = i * n / k;
        let end = (i + 1) * n / k;
        let test: Vec<usize> = (start..end).collect();
        let train: Vec<usize> = (0..start).chain(end..n).collect();
        folds.push((train, test));
    }
    folds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_classifier() {
        let mut cm = ConfusionMatrix::default();
        for _ in 0..10 {
            cm.record(true, true);
            cm.record(false, false);
        }
        assert_eq!(cm.precision(), 1.0);
        assert_eq!(cm.recall(), 1.0);
        assert_eq!(cm.f1(), 1.0);
        assert_eq!(cm.accuracy(), 1.0);
    }

    #[test]
    fn degenerate_cases() {
        let cm = ConfusionMatrix::default();
        assert_eq!(cm.precision(), 0.0);
        assert_eq!(cm.recall(), 0.0);
        assert_eq!(cm.f1(), 0.0);
        assert_eq!(cm.accuracy(), 0.0);
    }

    #[test]
    fn known_scores() {
        let cm = ConfusionMatrix {
            true_positives: 8,
            false_positives: 2,
            true_negatives: 5,
            false_negatives: 4,
        };
        assert!((cm.precision() - 0.8).abs() < 1e-12);
        assert!((cm.recall() - 8.0 / 12.0).abs() < 1e-12);
        let f1 = 2.0 * 0.8 * (8.0 / 12.0) / (0.8 + 8.0 / 12.0);
        assert!((cm.f1() - f1).abs() < 1e-12);
        assert!((cm.accuracy() - 13.0 / 19.0).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = ConfusionMatrix {
            true_positives: 1,
            false_positives: 2,
            true_negatives: 3,
            false_negatives: 4,
        };
        a.merge(&a.clone());
        assert_eq!(a.true_positives, 2);
        assert_eq!(a.false_negatives, 8);
        assert_eq!(a.total(), 20);
    }

    #[test]
    fn kfold_partitions_cover_everything_once() {
        let folds = kfold_indices(103, 10);
        assert_eq!(folds.len(), 10);
        let mut seen = [0u8; 103];
        for (train, test) in &folds {
            assert_eq!(train.len() + test.len(), 103);
            for &i in test {
                seen[i] += 1;
            }
            // train and test are disjoint
            for &i in test {
                assert!(!train.contains(&i));
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    #[should_panic(expected = "k-fold needs k >= 2")]
    fn kfold_rejects_k1() {
        kfold_indices(10, 1);
    }
}
