//! Fixed-width histograms for summarizing measurement distributions.
//!
//! The figure-6/7 style plots of the paper are distribution plots; our
//! experiment harness renders them as text histograms and bucketized series.

/// A fixed-bucket-width histogram over `f64` observations.
///
/// Observations below `min` clamp into the first bucket, observations at or
/// above `max` clamp into the last; this mirrors the "long tail collapsed
/// into the final bin" presentation common in corpus statistics.
#[derive(Debug, Clone)]
pub struct Histogram {
    min: f64,
    max: f64,
    counts: Vec<u64>,
    total: u64,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram spanning `[min, max)` with `buckets` equal bins.
    pub fn new(min: f64, max: f64, buckets: usize) -> Histogram {
        assert!(buckets > 0, "histogram needs at least one bucket");
        assert!(max > min, "histogram range must be non-empty");
        Histogram {
            min,
            max,
            counts: vec![0; buckets],
            total: 0,
            underflow: 0,
            overflow: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: f64) {
        let nbuckets = self.counts.len();
        let idx = if value < self.min {
            self.underflow += 1;
            0
        } else if value >= self.max {
            self.overflow += 1;
            nbuckets - 1
        } else {
            let width = (self.max - self.min) / nbuckets as f64;
            (((value - self.min) / width) as usize).min(nbuckets - 1)
        };
        self.counts[idx] += 1;
        self.total += 1;
    }

    pub fn record_all(&mut self, values: impl IntoIterator<Item = f64>) {
        for v in values {
            self.record(v);
        }
    }

    pub fn total(&self) -> u64 {
        self.total
    }

    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of observations that fell below/above the nominal range and
    /// were clamped.
    pub fn clamped(&self) -> (u64, u64) {
        (self.underflow, self.overflow)
    }

    /// Lower edge of bucket `i`.
    pub fn bucket_lower(&self, i: usize) -> f64 {
        let width = (self.max - self.min) / self.counts.len() as f64;
        self.min + width * i as f64
    }

    /// Returns `(bucket_lower, fraction_of_total)` pairs.
    pub fn normalized(&self) -> Vec<(f64, f64)> {
        let total = self.total.max(1) as f64;
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (self.bucket_lower(i), c as f64 / total))
            .collect()
    }

    /// Renders a compact ASCII sketch of the distribution, used by the
    /// experiment binaries to print figure-like output.
    pub fn ascii(&self, width: usize) -> String {
        let peak = self.counts.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        for (i, &c) in self.counts.iter().enumerate() {
            let bar = (c as f64 / peak as f64 * width as f64).round() as usize;
            out.push_str(&format!(
                "{:>12.1} | {:<width$} {}\n",
                self.bucket_lower(i),
                "#".repeat(bar),
                c,
                width = width
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_correct_buckets() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.record(0.0); // bucket 0
        h.record(1.9); // bucket 0
        h.record(2.0); // bucket 1
        h.record(9.99); // bucket 4
        assert_eq!(h.counts(), &[2, 1, 0, 0, 1]);
        assert_eq!(h.total(), 4);
        assert_eq!(h.clamped(), (0, 0));
    }

    #[test]
    fn clamps_out_of_range() {
        let mut h = Histogram::new(0.0, 10.0, 2);
        h.record(-5.0);
        h.record(100.0);
        assert_eq!(h.counts(), &[1, 1]);
        assert_eq!(h.clamped(), (1, 1));
    }

    #[test]
    fn normalized_fractions_sum_to_one() {
        let mut h = Histogram::new(0.0, 4.0, 4);
        h.record_all([0.5, 1.5, 2.5, 3.5]);
        let sum: f64 = h.normalized().iter().map(|&(_, f)| f).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(h.bucket_lower(2), 2.0);
    }

    #[test]
    fn ascii_renders_every_bucket() {
        let mut h = Histogram::new(0.0, 2.0, 2);
        h.record(0.5);
        let art = h.ascii(10);
        assert_eq!(art.lines().count(), 2);
        assert!(art.contains('#'));
    }

    #[test]
    #[should_panic(expected = "histogram range must be non-empty")]
    fn rejects_empty_range() {
        Histogram::new(1.0, 1.0, 4);
    }
}
