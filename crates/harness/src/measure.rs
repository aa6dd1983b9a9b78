//! Measurement protocol.
//!
//! Warmup-aware, statistics-bearing timing (docs/MEASUREMENT.md): every
//! measurement records a **per-iteration wall-time series** — including
//! the first, JIT-polluted invocation — classifies it via the
//! deterministic changepoint heuristic in [`crate::stats`], and reports
//! the steady-state median rate with a bootstrap confidence interval
//! instead of one averaged number. Every engine profile and the native
//! baseline are measured under the same protocol.
//!
//! Checksums are compared bitwise across *all* repeats: a kernel whose
//! result drifts between invocations is a nondeterminism bug and is
//! surfaced as [`MeasureError::Nondeterministic`] rather than silently
//! reporting the last value (entries that are random by design, like
//! `math.random`, are explicitly exempt).

use crate::stats::{self, SeriesStats};
use hpcnet_core::{run_entry, Entry, Vm, VmError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Minimum samples per series — below this the classifier cannot see a
/// shape, so even over-long kernels are invoked this many times.
pub const MIN_SAMPLES: usize = 5;
/// Batch calibration aims for this many samples inside `min_time`.
pub const TARGET_SAMPLES: usize = 100;
/// Hard cap on recorded samples (memory + pathological-batch guard).
pub const MAX_SAMPLES: usize = 1000;
/// Hard wall-time cap as a multiple of `min_time`: a cell whose single
/// invocations are slower than `min_time` stops after the probes instead
/// of burning [`MIN_SAMPLES`] × its invocation time. Such under-sampled
/// series classify as no-steady-state, which is the honest answer.
pub const HARD_CAP_FACTOR: f64 = 10.0;

/// One timed sample: `batch` back-to-back kernel invocations.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Wall time of the whole batch.
    pub secs: f64,
    /// Kernel invocations timed together in this sample.
    pub batch: u32,
}

/// One timing result: the full series plus its steady-state statistics.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Steady-state median work-unit throughput (ops/sec, calls/sec,
    /// flops/sec — per the entry's unit).
    pub rate: f64,
    /// 95% bootstrap confidence interval on `rate` (low, high).
    pub rate_ci: (f64, f64),
    /// Total kernel invocations performed (sum of batch sizes).
    pub runs: u64,
    /// Total wall time, derived from the series (sum of sample times).
    pub secs: f64,
    /// Checksum of the runs (verified bitwise-identical across repeats
    /// unless the entry is exempt as random-by-design).
    pub checksum: f64,
    /// The recorded per-sample series.
    pub series: Vec<Sample>,
    /// Classification + steady-state statistics of the per-invocation
    /// normalized series.
    pub stats: SeriesStats,
}

impl Measurement {
    /// Per-invocation wall times: each sample's time divided by its batch
    /// size — the series [`crate::stats::analyze`] runs on.
    pub fn per_run_series(&self) -> Vec<f64> {
        self.series
            .iter()
            .map(|s| s.secs / s.batch as f64)
            .collect()
    }

    /// Half-width of the confidence interval relative to the rate, in
    /// percent (the `±N%` of table cells).
    pub fn ci_half_width_pct(&self) -> f64 {
        if self.rate > 0.0 {
            100.0 * (self.rate_ci.1 - self.rate_ci.0) / (2.0 * self.rate)
        } else {
            0.0
        }
    }
}

/// The note rendered next to a table cell: CI half-width percent plus the
/// classification marker (nothing for the boring flat case).
pub fn cell_note(m: &Measurement) -> String {
    let mut note = format!("±{:.0}%", m.ci_half_width_pct());
    let marker = m.stats.classification.marker();
    if !marker.is_empty() {
        note.push(' ');
        note.push_str(marker);
    }
    note
}

/// Why a measurement could not be produced.
#[derive(Debug)]
pub enum MeasureError {
    /// The kernel itself failed (trap, verification, missing method …).
    Entry { entry: String, error: VmError },
    /// Two repeats of the same kernel returned different checksums.
    Nondeterministic {
        entry: String,
        run: u64,
        first: f64,
        got: f64,
    },
}

impl std::fmt::Display for MeasureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeasureError::Entry { entry, error } => {
                write!(f, "benchmark entry {entry} failed: {error}")
            }
            MeasureError::Nondeterministic {
                entry,
                run,
                first,
                got,
            } => write!(
                f,
                "benchmark entry {entry} is nondeterministic: run {run} returned {got:?}, \
                 first run returned {first:?}"
            ),
        }
    }
}

impl std::error::Error for MeasureError {}

/// Entries whose result is random *by design*; everything else must
/// return bitwise-identical checksums on every invocation.
const NONDETERMINISTIC_BY_DESIGN: &[&str] = &["math.random"];

/// The shared measurement loop.
///
/// Samples 0 and 1 are always single invocations: sample 0 deliberately
/// includes first-call JIT translation (the series is how warmup is
/// *detected*, not discarded), and sample 1 calibrates the batch size so
/// fast kernels land near [`TARGET_SAMPLES`] samples within `min_time`.
/// The loop then runs until `min_time` has elapsed and at least
/// [`MIN_SAMPLES`] samples exist, hard-capped at [`MAX_SAMPLES`] samples
/// and [`HARD_CAP_FACTOR`] × `min_time` of wall time (so entries whose
/// single invocation dwarfs `min_time` don't multiply their cost by the
/// sample floor — they stop early and classify as no-steady-state).
fn measure_loop(
    label: &str,
    strict_checksum: bool,
    ops_per_run: f64,
    min_time: Duration,
    mut run_once: impl FnMut() -> Result<f64, MeasureError>,
) -> Result<Measurement, MeasureError> {
    let mut series: Vec<Sample> = Vec::new();
    let mut runs: u64 = 0;
    let mut total = 0.0f64;
    let mut first_sum: Option<f64> = None;

    let mut sample = |batch: u32,
                      series: &mut Vec<Sample>,
                      runs: &mut u64,
                      total: &mut f64,
                      first_sum: &mut Option<f64>|
     -> Result<(), MeasureError> {
        let start = Instant::now();
        let mut sum = 0.0;
        for _ in 0..batch {
            sum = std::hint::black_box(run_once()?);
        }
        let secs = start.elapsed().as_secs_f64();
        *runs += batch as u64;
        *total += secs;
        series.push(Sample { secs, batch });
        match *first_sum {
            None => *first_sum = Some(sum),
            Some(first) => {
                if strict_checksum && sum.to_bits() != first.to_bits() {
                    return Err(MeasureError::Nondeterministic {
                        entry: label.to_string(),
                        run: *runs,
                        first,
                        got: sum,
                    });
                }
            }
        }
        Ok(())
    };

    sample(1, &mut series, &mut runs, &mut total, &mut first_sum)?;
    sample(1, &mut series, &mut runs, &mut total, &mut first_sum)?;
    // Calibrate from sample 1 (sample 0 is JIT-polluted and would
    // under-batch by orders of magnitude on fast kernels).
    let per_run = series[1].secs.max(1e-9);
    let target = min_time.as_secs_f64() / TARGET_SAMPLES as f64;
    let batch = ((target / per_run).round() as u64).clamp(1, 1 << 20) as u32;

    let min_secs = min_time.as_secs_f64();
    let hard_cap = HARD_CAP_FACTOR * min_secs;
    while (total < min_secs || series.len() < MIN_SAMPLES)
        && series.len() < MAX_SAMPLES
        && total < hard_cap
    {
        sample(batch, &mut series, &mut runs, &mut total, &mut first_sum)?;
    }

    let per_run_series: Vec<f64> = series.iter().map(|s| s.secs / s.batch as f64).collect();
    let stats = stats::analyze(&per_run_series);
    // Invert times into rates; a zero median (sub-resolution timing) falls
    // back to the aggregate rate.
    let rate = if stats.median > 0.0 {
        ops_per_run / stats.median
    } else {
        ops_per_run * runs as f64 / total.max(1e-12)
    };
    let rate_ci = (
        if stats.ci.1 > 0.0 { ops_per_run / stats.ci.1 } else { rate },
        if stats.ci.0 > 0.0 { ops_per_run / stats.ci.0 } else { rate },
    );
    Ok(Measurement {
        rate,
        rate_ci,
        runs,
        secs: total,
        checksum: first_sum.unwrap_or(0.0),
        series,
        stats,
    })
}

/// Time a managed entry at size `n` under `min_time`.
pub fn time_entry(
    vm: &Arc<Vm>,
    entry: &Entry,
    n: i32,
    min_time: Duration,
) -> Result<Measurement, MeasureError> {
    let strict = !NONDETERMINISTIC_BY_DESIGN.contains(&entry.id);
    measure_loop(entry.id, strict, (entry.ops)(n), min_time, || {
        run_entry(vm, entry, n).map_err(|error| MeasureError::Entry {
            entry: entry.id.to_string(),
            error,
        })
    })
}

/// Time a native baseline closure under the same protocol.
pub fn time_native(
    mut f: impl FnMut() -> f64,
    ops: f64,
    min_time: Duration,
) -> Result<Measurement, MeasureError> {
    measure_loop("native", true, ops, min_time, || {
        Ok(std::hint::black_box(f()))
    })
}

/// The native baseline for a registry entry, when one exists
/// (the "MS - C++" series in Graphs 9–11).
pub fn native_baseline(entry_id: &str, n: i32) -> Option<Box<dyn Fn() -> f64>> {
    use hpcnet_core::native::{apps, scimark};
    let n_us = n.max(0) as usize;
    Some(match entry_id {
        "scimark.fft" => Box::new(move || scimark::fft_run(n_us)),
        "scimark.sor" => Box::new(move || scimark::sor_run(n_us, 10)),
        "scimark.montecarlo" => Box::new(move || scimark::montecarlo_run(n_us)),
        "scimark.sparse" => Box::new(move || scimark::sparse_run(n_us, 5 * n_us, 100)),
        "scimark.lu" => Box::new(move || scimark::lu_run(n_us)),
        "app.fibonacci" => Box::new(move || apps::fib(n) as f64),
        "app.sieve" => Box::new(move || apps::sieve(n_us) as f64),
        "app.hanoi" => Box::new(move || apps::hanoi_moves(n as u32) as f64),
        "app.heapsort" => Box::new(move || apps::heapsort_run(n_us)),
        "app.crypt" => Box::new(move || apps::crypt_run(n_us)),
        "app.moldyn" => Box::new(move || apps::moldyn_run(n_us, 4)),
        "app.euler" => Box::new(move || apps::euler_run(n_us, 5)),
        "app.search" => Box::new(move || apps::search_run(n)),
        "app.raytracer" => Box::new(move || apps::raytracer_run(n_us)),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcnet_core::{vm_for, VmProfile};
    use std::time::Duration;

    #[test]
    fn timing_protocol_reports_positive_rates_and_consistent_accounting() {
        let group = hpcnet_core::registry()
            .into_iter()
            .find(|g| g.id == "loop")
            .unwrap();
        let vm = vm_for(&group, VmProfile::clr11());
        let e = group.entries.iter().find(|e| e.id == "loop.for").unwrap();
        let m = time_entry(&vm, e, 10_000, Duration::from_millis(20)).unwrap();
        assert!(m.rate > 0.0);
        assert_eq!(m.checksum, 10_000.0);
        // Accounting invariants of the new protocol: runs and secs are
        // both derived from the recorded series — no overshooting
        // iteration outside the books.
        assert_eq!(m.runs, m.series.iter().map(|s| s.batch as u64).sum::<u64>());
        let sum: f64 = m.series.iter().map(|s| s.secs).sum();
        assert_eq!(m.secs, sum);
        assert!(m.series.len() >= MIN_SAMPLES);
        assert!(m.series.len() <= MAX_SAMPLES);
        // Samples 0 and 1 are the unbatched JIT/calibration probes.
        assert_eq!(m.series[0].batch, 1);
        assert_eq!(m.series[1].batch, 1);
        // The CI is ordered around the steady-state rate.
        assert!(m.rate_ci.0 <= m.rate && m.rate <= m.rate_ci.1,
            "{:?} vs {}", m.rate_ci, m.rate);
        // min_time was respected (the loop no longer exits early).
        assert!(m.secs >= 0.02, "{}", m.secs);
    }

    #[test]
    fn nondeterministic_checksums_are_an_error() {
        let mut x = 0u32;
        let err = time_native(
            move || {
                x += 1;
                x as f64
            },
            1.0,
            Duration::from_millis(1),
        )
        .unwrap_err();
        assert!(matches!(err, MeasureError::Nondeterministic { .. }), "{err}");
        assert!(err.to_string().contains("nondeterministic"), "{err}");
    }

    #[test]
    fn math_random_is_exempt_from_the_checksum_gate() {
        let group = hpcnet_core::registry()
            .into_iter()
            .find(|g| g.id == "math")
            .unwrap();
        let vm = vm_for(&group, VmProfile::clr11());
        let e = group.entries.iter().find(|e| e.id == "math.random").unwrap();
        let m = time_entry(&vm, e, 100, Duration::from_millis(5)).unwrap();
        assert!(m.rate > 0.0);
    }

    #[test]
    fn native_baselines_exist_for_every_kernel_and_app() {
        for id in [
            "scimark.fft",
            "scimark.sor",
            "scimark.montecarlo",
            "scimark.sparse",
            "scimark.lu",
            "app.fibonacci",
            "app.sieve",
            "app.hanoi",
            "app.heapsort",
            "app.crypt",
            "app.moldyn",
            "app.euler",
            "app.search",
            "app.raytracer",
        ] {
            assert!(native_baseline(id, 16).is_some(), "{id}");
        }
        assert!(native_baseline("loop.for", 16).is_none());
    }

    #[test]
    fn native_timing_protocol() {
        let m = time_native(|| hpcnet_core::native::apps::sieve(1000) as f64, 1000.0,
            Duration::from_millis(10)).unwrap();
        assert!(m.rate > 0.0);
        assert_eq!(m.checksum, 168.0);
    }
}
