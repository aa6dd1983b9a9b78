//! The estimators every reported number goes through.
//!
//! Timing noise on a shared 2-vCPU box is additive (a neighbour can only
//! make a sample slower), so the gated timings use a *floor*: the mean of
//! the three smallest samples. Medians and upper percentiles are reported
//! beside it as diagnostics, never gated.

/// Samples averaged into a floor.
pub const FLOOR_K: usize = 3;

/// A sample this close to the floor supports it (see [`floor_support`]).
pub const SUPPORT_BAND: f64 = 0.05;

/// Mean of the [`FLOOR_K`] smallest samples (of all of them when fewer).
pub fn floor(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s.truncate(FLOOR_K);
    mean(&s)
}

/// How many samples lie within [`SUPPORT_BAND`] of `floor`. Fewer than
/// [`FLOOR_K`] means the floor rests on outliers: the row is `unresolved`.
pub fn floor_support(samples: &[f64], floor: f64) -> usize {
    samples
        .iter()
        .filter(|&&s| s <= floor * (1.0 + SUPPORT_BAND))
        .count()
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Geometric mean; 0 for an empty slice. Inputs must be positive.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Nearest-rank percentile, `p` in `[0, 100]`; 0 for an empty slice.
pub fn percentile(samples: &[f64], p: u32) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return 0.0;
    }
    let rank = (p as usize * s.len()).div_ceil(100).max(1);
    s[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50)
}

/// The highest of p50/p90/p99 that still has at least ten of `n` samples
/// beyond it — a tail percentile resting on fewer is one bad sample.
pub fn highest_percentile(n: usize) -> Option<u32> {
    [99u32, 90, 50]
        .into_iter()
        .find(|&p| n - (p as usize * n).div_ceil(100) >= 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_is_mean_of_three_smallest_and_ignores_slow_outliers() {
        let s = [9.0, 1.0, 50.0, 2.0, 3.0, 1000.0];
        assert_eq!(floor(&s), 2.0);
        let mut noisy = s.to_vec();
        noisy.extend([1e6; 20]);
        assert_eq!(floor(&noisy), 2.0, "additive noise never moves the floor");
        assert_eq!(floor(&[4.0, 2.0]), 3.0, "fewer than three: mean of all");
    }

    #[test]
    fn floor_support_counts_samples_near_the_floor() {
        let s = [100.0, 101.0, 104.0, 106.0, 200.0];
        let f = floor(&s); // (100+101+104)/3
        assert_eq!(floor_support(&s, f), 4); // 106 <= 1.05*101.67
                                             // A floor made of one fast outlier and two slow samples is thin.
        let thin = [10.0, 100.0, 100.0, 100.0];
        assert!(floor_support(&thin, floor(&thin)) < FLOOR_K);
    }

    #[test]
    fn geomean_averages_ratios() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50), 50.0);
        assert_eq!(percentile(&s, 90), 90.0);
        assert_eq!(percentile(&s, 100), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn ten_samples_must_lie_beyond_the_reported_percentile() {
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(50));
        assert_eq!(highest_percentile(99), Some(50));
        assert_eq!(highest_percentile(100), Some(90));
        assert_eq!(highest_percentile(999), Some(90));
        assert_eq!(highest_percentile(1000), Some(99));
    }
}
