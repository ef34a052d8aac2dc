//! Descriptive statistics over `f64` samples.

/// A five-number-plus summary of a sample: count, mean, standard deviation,
/// min, quartiles, and max.
///
/// The paper reports document-length, sentence-length, and incidence
/// distributions per corpus (Fig. 6); `Summary` is the unit in which those
/// distributions are compared.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub mean: f64,
    pub std_dev: f64,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Computes a summary of `data`. Returns `None` for an empty sample.
    ///
    /// Quartiles use linear interpolation between closest ranks (the same
    /// convention as R's default `type = 7`).
    pub fn of(data: &[f64]) -> Option<Summary> {
        if data.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = data.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
        let count = sorted.len();
        let mean = sorted.iter().sum::<f64>() / count as f64;
        let var = if count > 1 {
            sorted.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (count as f64 - 1.0)
        } else {
            0.0
        };
        Some(Summary {
            count,
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            q1: quantile_sorted(&sorted, 0.25),
            median: quantile_sorted(&sorted, 0.5),
            q3: quantile_sorted(&sorted, 0.75),
            max: sorted[count - 1],
        })
    }
}

/// Quantile of an already-sorted sample with linear interpolation
/// (R `type = 7`). `q` must lie in `[0, 1]`.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(data: &[f64]) -> f64 {
    if data.is_empty() {
        0.0
    } else {
        data.iter().sum::<f64>() / data.len() as f64
    }
}

/// Population variance of the sample; 0.0 for fewer than two observations.
pub fn variance(data: &[f64]) -> f64 {
    if data.len() < 2 {
        return 0.0;
    }
    let m = mean(data);
    data.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (data.len() as f64 - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_empty_is_none() {
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn summary_of_single_value() {
        let s = Summary::of(&[42.0]).unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 42.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.min, 42.0);
        assert_eq!(s.max, 42.0);
        assert_eq!(s.median, 42.0);
    }

    #[test]
    fn summary_basic() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert!((s.std_dev - 1.5811388).abs() < 1e-6);
    }

    #[test]
    fn quantile_interpolates() {
        let sorted = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile_sorted(&sorted, 0.0), 10.0);
        assert_eq!(quantile_sorted(&sorted, 1.0), 40.0);
        assert!((quantile_sorted(&sorted, 0.5) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn summary_unsorted_input() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
        assert_eq!(s.median, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
    }

    #[test]
    fn mean_and_variance() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(variance(&[1.0]), 0.0);
        assert!((variance(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) - 4.571428571).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn quantile_rejects_bad_q() {
        quantile_sorted(&[1.0], 1.5);
    }
}
