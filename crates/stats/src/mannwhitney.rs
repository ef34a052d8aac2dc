//! Mann-Whitney U test (a.k.a. Wilcoxon rank-sum test).
//!
//! The paper assesses all cross-corpus differences in linguistic measures
//! "using the Mann-Whitney-Wilcoxon signed rank test", reporting `P < 0.01`
//! throughout Section 4.3. This module implements the two-sided test with
//! the normal approximation (including tie correction), which is the
//! appropriate regime for the large samples involved.

/// Outcome of a two-sided Mann-Whitney U test.
#[derive(Debug, Clone, Copy)]
pub struct MannWhitneyResult {
    /// The U statistic of the first sample.
    pub u: f64,
    /// Standardized test statistic (z-score under H0).
    pub z: f64,
    /// Two-sided P-value from the normal approximation.
    pub p_value: f64,
    /// Effect size: common-language effect size `U / (n1*n2)`, i.e. the
    /// probability that a random observation from sample 1 exceeds a random
    /// observation from sample 2 (ties counted half).
    pub effect_size: f64,
}

impl MannWhitneyResult {
    /// Convenience predicate for the significance level the paper uses.
    pub fn significant_at(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// Runs a two-sided Mann-Whitney U test on two independent samples.
///
/// Returns `None` if either sample is empty. Uses average ranks for ties and
/// the tie-corrected normal approximation for the P-value; for the sample
/// sizes in this workspace (hundreds to millions of observations) the
/// approximation error is negligible.
pub fn mann_whitney_u(sample1: &[f64], sample2: &[f64]) -> Option<MannWhitneyResult> {
    let n1 = sample1.len();
    let n2 = sample2.len();
    if n1 == 0 || n2 == 0 {
        return None;
    }

    // Pool and rank with average ranks for ties.
    let mut pooled: Vec<(f64, usize)> = sample1
        .iter()
        .map(|&v| (v, 0usize))
        .chain(sample2.iter().map(|&v| (v, 1usize)))
        .collect();
    pooled.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN in sample"));

    let n = pooled.len();
    let mut rank_sum1 = 0.0f64;
    let mut tie_term = 0.0f64; // sum of t^3 - t over tie groups
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && pooled[j + 1].0 == pooled[i].0 {
            j += 1;
        }
        let group = (j - i + 1) as f64;
        // ranks are 1-based; average rank of the tie group:
        let avg_rank = (i + 1 + j + 1) as f64 / 2.0;
        for item in &pooled[i..=j] {
            if item.1 == 0 {
                rank_sum1 += avg_rank;
            }
        }
        if group > 1.0 {
            tie_term += group.powi(3) - group;
        }
        i = j + 1;
    }

    let n1f = n1 as f64;
    let n2f = n2 as f64;
    let u1 = rank_sum1 - n1f * (n1f + 1.0) / 2.0;
    let mean_u = n1f * n2f / 2.0;
    let nf = n as f64;
    let var_u = if nf > 1.0 {
        n1f * n2f / 12.0 * ((nf + 1.0) - tie_term / (nf * (nf - 1.0)))
    } else {
        0.0
    };

    let (z, p) = if var_u <= 0.0 {
        // All observations identical: no evidence against H0.
        (0.0, 1.0)
    } else {
        // Continuity correction of 0.5 toward the mean.
        let diff = u1 - mean_u;
        let corrected = if diff > 0.0 {
            diff - 0.5
        } else if diff < 0.0 {
            diff + 0.5
        } else {
            0.0
        };
        let z = corrected / var_u.sqrt();
        (z, 2.0 * standard_normal_sf(z.abs()))
    };

    Some(MannWhitneyResult {
        u: u1,
        z,
        p_value: p.min(1.0),
        effect_size: u1 / (n1f * n2f),
    })
}

/// Survival function `P(Z > z)` of the standard normal distribution,
/// computed via the complementary error function.
pub fn standard_normal_sf(z: f64) -> f64 {
    0.5 * erfc(z / std::f64::consts::SQRT_2)
}

/// Complementary error function, Abramowitz & Stegun 7.1.26-style rational
/// approximation refined by Numerical-Recipes' `erfc` (max error ~1.2e-7,
/// ample for significance testing).
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587
                                        + t * (-0.82215223 + t * 0.17087277)))))))))
        .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample_is_none() {
        assert!(mann_whitney_u(&[], &[1.0]).is_none());
        assert!(mann_whitney_u(&[1.0], &[]).is_none());
    }

    #[test]
    fn identical_samples_not_significant() {
        let a = [5.0; 30];
        let b = [5.0; 30];
        let r = mann_whitney_u(&a, &b).unwrap();
        assert_eq!(r.p_value, 1.0);
        assert!(!r.significant_at(0.05));
    }

    #[test]
    fn clearly_separated_samples_significant() {
        let a: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..50).map(|i| (i + 100) as f64).collect();
        let r = mann_whitney_u(&a, &b).unwrap();
        assert!(r.p_value < 1e-10, "p = {}", r.p_value);
        assert!(r.significant_at(0.01));
        // All of b exceeds all of a, so U1 = 0 and effect size 0.
        assert_eq!(r.u, 0.0);
        assert_eq!(r.effect_size, 0.0);
    }

    #[test]
    fn symmetric_in_direction() {
        let a: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..40).map(|i| i as f64 + 5.0).collect();
        let r1 = mann_whitney_u(&a, &b).unwrap();
        let r2 = mann_whitney_u(&b, &a).unwrap();
        assert!((r1.p_value - r2.p_value).abs() < 1e-12);
        assert!((r1.z + r2.z).abs() < 1e-12);
        assert!((r1.effect_size + r2.effect_size - 1.0).abs() < 1e-12);
    }

    #[test]
    fn matches_known_example() {
        // Example with known U: a = {1,2,3}, b = {4,5,6} gives U1 = 0;
        // a = {6,7,8}, b = {1,2,3} gives U1 = 9 (= n1*n2).
        let r = mann_whitney_u(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]).unwrap();
        assert_eq!(r.u, 0.0);
        let r = mann_whitney_u(&[6.0, 7.0, 8.0], &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(r.u, 9.0);
    }

    #[test]
    fn ties_use_average_ranks() {
        // a = {1, 2}, b = {2, 3}: the 2s tie at ranks 2,3 -> avg 2.5.
        // rank_sum1 = 1 + 2.5 = 3.5, U1 = 3.5 - 3 = 0.5
        let r = mann_whitney_u(&[1.0, 2.0], &[2.0, 3.0]).unwrap();
        assert!((r.u - 0.5).abs() < 1e-12);
    }

    #[test]
    fn erfc_reference_values() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!((erfc(1.0) - 0.157299207).abs() < 1e-6);
        assert!((erfc(-1.0) - 1.842700793).abs() < 1e-6);
        assert!(erfc(5.0) < 1.6e-12);
    }

    #[test]
    fn normal_sf_reference() {
        // P(Z > 1.96) ~ 0.025
        assert!((standard_normal_sf(1.96) - 0.0249979).abs() < 1e-5);
        assert!((standard_normal_sf(0.0) - 0.5).abs() < 1e-7);
    }
}
