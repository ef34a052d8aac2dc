//! The harness's own statistics (the vendored `criterion` is an inert stub)
//! and the stateless mixer behind every seeded choice.

/// splitmix64: the standard 64-bit finalizing mixer. Stateless, so a
/// generated stream is addressable by `(seed, index)` alone.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives an independent seed from `seed` for purpose `salt`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    splitmix64(seed ^ splitmix64(salt))
}

/// Order-sensitive digest fold.
pub fn fold(acc: u64, x: u64) -> u64 {
    splitmix64(acc ^ x.rotate_left(17))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; 0 for an empty sample (a metric of a layer that did not run).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `q`-quantile (0..=1) by nearest rank on the sorted sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let idx = ((v.len() - 1) as f64 * q).round() as usize;
    v[idx.min(v.len() - 1)]
}

/// The percentile rule of the metrics guide: the highest of the usual
/// percentiles that still has at least ten samples beyond it.
pub fn highest_supported_percentile(samples: usize) -> f64 {
    // per mille, so that "ten beyond" is exact integer arithmetic
    [999, 990, 950, 900, 750]
        .into_iter()
        .find(|p| samples * (1000 - p) >= 10 * 1000)
        .map_or(0.5, |p| p as f64 / 1000.0)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the "exclusive" method) — the spread rule the
/// acceptance check applies to ten runs.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| {
        // position k*(n+1)/4 on a 1-based scale, linearly interpolated
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 51.0);
        assert_eq!(quantile(&v, 0.99), 100.0);
        assert_eq!(quantile(&v, 1.0), 101.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn percentile_rule_wants_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(80_000), 0.999);
        assert_eq!(highest_supported_percentile(2_000), 0.99);
        assert_eq!(highest_supported_percentile(1_000), 0.99);
        assert_eq!(highest_supported_percentile(999), 0.95);
        assert_eq!(highest_supported_percentile(200), 0.95);
        assert_eq!(highest_supported_percentile(100), 0.90);
        assert_eq!(highest_supported_percentile(12), 0.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12, "{q1} {q3}");
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let (q1, q3) = quartiles(&[40.0, 10.0, 20.0]);
        assert_eq!((q1, q3), (10.0, 40.0));
    }

    #[test]
    fn mixer_is_a_pure_function_and_salts_separate() {
        assert_eq!(mix(7, 1), mix(7, 1));
        assert_ne!(mix(7, 1), mix(7, 2));
        assert_ne!(mix(7, 1), mix(8, 1));
        assert_ne!(fold(fold(0, 1), 2), fold(fold(0, 2), 1));
    }
}
