//! Steady-state statistics for per-iteration timing series.
//!
//! "Virtual Machine Warmup Blows Hot and Cold" (Barrett et al., OOPSLA
//! 2017) showed that the classic warmup-run-plus-averaging protocol —
//! exactly what this harness used — silently reports pre-steady-state or
//! degrading numbers as fact. This module implements the statistical core
//! of the replacement protocol (docs/MEASUREMENT.md): given the
//! per-iteration wall-time series of one `(entry, profile)` measurement,
//!
//! 1. find the steady-state changepoint with a deterministic heuristic,
//! 2. classify the series as warmup / flat / slowdown / no-steady-state,
//! 3. report the steady-state **median** with a 95% confidence interval
//!    from a deterministic seeded bootstrap.
//!
//! Everything here is a pure function of the input series: the same series
//! yields bit-identical classification and interval on every run, which is
//! what lets the classification tests pin exact values.

/// How a timing series behaved over the measurement window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Classification {
    /// Early iterations slower than the steady state (JIT warmup) —
    /// the expected shape; steady-state numbers are trustworthy.
    Warmup,
    /// Stable from the first iteration.
    Flat,
    /// Early iterations *faster* than the stable tail: the VM degraded
    /// into its steady state. Reported rates are real but the entry
    /// deserves investigation.
    Slowdown,
    /// No stable suffix long enough to call steady state; statistics are
    /// computed over a fallback window and must not be trusted.
    NoSteadyState,
}

impl Classification {
    /// Short marker for table cells ("" for the boring case).
    pub fn marker(self) -> &'static str {
        match self {
            Classification::Warmup => "w",
            Classification::Flat => "",
            Classification::Slowdown => "SLOW",
            Classification::NoSteadyState => "NSS",
        }
    }
}

/// The statistics of one timing series (times, not rates — callers invert
/// through the operation count to get rates).
#[derive(Clone, Debug, PartialEq)]
pub struct SeriesStats {
    pub classification: Classification,
    /// Median of the steady-state segment.
    pub median: f64,
    /// 95% bootstrap confidence interval on the steady-state median.
    pub ci: (f64, f64),
}

/// Series shorter than this cannot be classified.
pub const MIN_CLASSIFIABLE: usize = 5;
/// Bootstrap resamples for the confidence interval.
pub const BOOTSTRAP_RESAMPLES: usize = 500;
/// Fixed bootstrap seed — the protocol is deterministic by construction.
pub const BOOTSTRAP_SEED: u64 = 0x5EED_1DEA_CAFE_F00D;

/// SplitMix64: tiny, seedable, and good enough for bootstrap resampling.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Median of a slice (mean of the two central order statistics for even
/// lengths). Returns 0.0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN series"));
    let k = v.len();
    if k % 2 == 1 {
        v[k / 2]
    } else {
        (v[k / 2 - 1] + v[k / 2]) / 2.0
    }
}

/// The stability tolerance around the reference median `m`: three median
/// absolute deviations, floored at 1% of `m` so a perfectly quiet series
/// does not declare every timer-quantization wiggle an outlier.
fn tolerance(tail: &[f64], m: f64) -> f64 {
    let deviations: Vec<f64> = tail.iter().map(|&x| (x - m).abs()).collect();
    let mad = median(&deviations);
    (3.0 * mad).max(0.01 * m.abs())
}

/// Analyze one per-iteration wall-time series.
///
/// The changepoint heuristic: take the median `m` (and tolerance band)
/// of the *second half* of the series as the steady-state reference, then
/// find the longest suffix in which at most ~5% of samples (minimum 1)
/// leave the band. That suffix is the steady-state segment; the segment
/// before it decides the classification (slower → warmup, faster →
/// slowdown). See docs/MEASUREMENT.md for the full rules.
pub fn analyze(series: &[f64]) -> SeriesStats {
    let k = series.len();
    if k < MIN_CLASSIFIABLE {
        // Too short to say anything about stability.
        let (median, ci) = bootstrap_median_ci(series);
        return SeriesStats {
            classification: Classification::NoSteadyState,
            median,
            ci,
        };
    }

    let m = median(&series[k / 2..]);
    let tol = tolerance(&series[k / 2..], m);
    // A steady state must be *tight*: MAD is robust against up to half
    // the tail misbehaving, so a persistently oscillating series yields a
    // huge band that would cover its own oscillation. If the band is
    // wider than ±20% of the reference median, nothing here is steady.
    if tol > 0.2 * m.abs() {
        let steady = &series[k / 2..];
        let (median, ci) = bootstrap_median_ci(steady);
        return SeriesStats {
            classification: Classification::NoSteadyState,
            median,
            ci,
        };
    }
    let deviating: Vec<bool> = series.iter().map(|&x| (x - m).abs() > tol).collect();

    // Longest stable suffix: the smallest start index whose suffix keeps
    // its deviation count within budget and itself conforms.
    let mut steady_start = k; // sentinel: no stable suffix found
    let mut dev_count = 0usize;
    for s in (0..k).rev() {
        if deviating[s] {
            dev_count += 1;
        }
        let budget = 1.max((k - s) / 20);
        if !deviating[s] && dev_count <= budget {
            steady_start = s;
        }
    }

    let min_steady = MIN_CLASSIFIABLE.max(k / 4);
    let (classification, steady_start) = if steady_start >= k {
        // Nothing stable at all; fall back to the second half.
        (Classification::NoSteadyState, k / 2)
    } else if k - steady_start < min_steady {
        (Classification::NoSteadyState, steady_start)
    } else if steady_start == 0 {
        (Classification::Flat, 0)
    } else {
        let pre = median(&series[..steady_start]);
        if pre > m + tol {
            (Classification::Warmup, steady_start)
        } else if pre < m - tol {
            (Classification::Slowdown, steady_start)
        } else {
            // The changepoint was spurious (pre-segment is within the
            // band); the whole series is effectively stable.
            (Classification::Flat, 0)
        }
    };

    let (median, ci) = bootstrap_median_ci(&series[steady_start..]);
    SeriesStats {
        classification,
        median,
        ci,
    }
}

/// Median of `xs` plus a 95% confidence interval from a seeded bootstrap
/// ([`BOOTSTRAP_RESAMPLES`] resamples, fixed [`BOOTSTRAP_SEED`]).
pub fn bootstrap_median_ci(xs: &[f64]) -> (f64, (f64, f64)) {
    let m = median(xs);
    if xs.len() < 2 {
        return (m, (m, m));
    }
    let mut rng = SplitMix64(BOOTSTRAP_SEED ^ xs.len() as u64);
    let mut medians = Vec::with_capacity(BOOTSTRAP_RESAMPLES);
    let mut resample = Vec::with_capacity(xs.len());
    for _ in 0..BOOTSTRAP_RESAMPLES {
        resample.clear();
        for _ in 0..xs.len() {
            resample.push(xs[(rng.next() % xs.len() as u64) as usize]);
        }
        medians.push(median(&resample));
    }
    medians.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN medians"));
    let lo = medians[(BOOTSTRAP_RESAMPLES as f64 * 0.025) as usize];
    let hi = medians[(BOOTSTRAP_RESAMPLES as f64 * 0.975) as usize - 1];
    (m, (lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn warmup_series() -> Vec<f64> {
        // 6 slow JIT/warmup iterations decaying into a quiet plateau.
        let mut s = vec![10.0, 8.0, 6.0, 4.0, 2.0, 1.5];
        s.extend(std::iter::repeat(1.0).take(40));
        s
    }

    fn flat_series() -> Vec<f64> {
        std::iter::repeat(2.0).take(30).collect()
    }

    fn slowdown_series() -> Vec<f64> {
        // Starts fast, degrades to a slower steady state.
        let mut s = vec![1.0, 1.0, 1.0, 1.2, 1.5];
        s.extend(std::iter::repeat(2.0).take(40));
        s
    }

    fn noisy_series() -> Vec<f64> {
        // Deterministic pseudo-noise with no stable region: alternates
        // wildly between widely separated levels.
        (0..40)
            .map(|i| match i % 4 {
                0 => 1.0,
                1 => 5.0,
                2 => 2.5,
                _ => 9.0,
            })
            .collect()
    }

    #[test]
    fn classifies_warmup() {
        let st = analyze(&warmup_series());
        assert_eq!(st.classification, Classification::Warmup);
        assert_eq!(st.median, 1.0);
    }

    #[test]
    fn classifies_flat() {
        let st = analyze(&flat_series());
        assert_eq!(st.classification, Classification::Flat);
        assert_eq!(st.median, 2.0);
        assert_eq!(st.ci, (2.0, 2.0));
    }

    #[test]
    fn classifies_slowdown() {
        let st = analyze(&slowdown_series());
        assert_eq!(st.classification, Classification::Slowdown);
        assert_eq!(st.median, 2.0);
    }

    #[test]
    fn classifies_no_steady_state() {
        let st = analyze(&noisy_series());
        assert_eq!(st.classification, Classification::NoSteadyState);
    }

    #[test]
    fn short_series_are_not_classified() {
        let st = analyze(&[1.0, 1.0, 1.0]);
        assert_eq!(st.classification, Classification::NoSteadyState);
        assert_eq!(st.median, 1.0);
    }

    #[test]
    fn single_outlier_in_plateau_is_tolerated() {
        let mut s = flat_series();
        s[20] = 50.0; // one GC-style spike
        let st = analyze(&s);
        assert_eq!(st.classification, Classification::Flat);
        assert_eq!(st.median, 2.0);
    }

    #[test]
    fn bootstrap_is_bit_identical_across_runs() {
        // The acceptance bar: the whole analysis is a deterministic
        // function of the series — exact f64 equality between runs.
        let series: Vec<f64> = (0..60).map(|i| 1.0 + 0.001 * ((i * 7919) % 13) as f64).collect();
        let a = analyze(&series);
        let b = analyze(&series);
        assert_eq!(a, b);
        assert_eq!(a.ci.0.to_bits(), b.ci.0.to_bits());
        assert_eq!(a.ci.1.to_bits(), b.ci.1.to_bits());
    }

    #[test]
    fn bootstrap_ci_brackets_median_and_orders() {
        let series: Vec<f64> = (0..50).map(|i| 1.0 + 0.01 * (i % 7) as f64).collect();
        let (m, (lo, hi)) = bootstrap_median_ci(&series);
        assert!(lo <= m && m <= hi, "{lo} <= {m} <= {hi}");
        assert!(hi - lo < 0.1, "CI should be tight on a quiet series");
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
