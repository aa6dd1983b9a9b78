//! Measurement protocol.
//!
//! Warmup-aware, statistics-bearing timing (docs/MEASUREMENT.md): every
//! measurement records a **per-iteration wall-time series** — including
//! the first, JIT-polluted invocation — classifies it with the
//! deterministic changepoint heuristic of the crate's `stats` module,
//! and reports the steady-state median rate with its bootstrap
//! confidence interval and classification as the cell's note, instead of
//! one averaged number. Every engine profile and the native baseline are
//! measured under the same protocol.
//!
//! Checksums are compared bitwise across *all* repeats: a kernel whose
//! result drifts between invocations is a nondeterminism bug and is
//! surfaced as [`MeasureError::Nondeterministic`] rather than silently
//! reporting the last value (entries that are random by design, like
//! `math.random`, are explicitly exempt).

use crate::stats;
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

/// One timing result: what its table cell prints.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Steady-state median work-unit throughput (ops/sec, calls/sec,
    /// flops/sec — per the entry's unit).
    pub rate: f64,
    /// The cell's note: the 95% bootstrap confidence interval's
    /// half-width relative to `rate` (`±N%`), then the classification
    /// marker (nothing for the boring flat case).
    pub note: String,
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

/// What the sampling loop recorded.
struct Series {
    /// Each sample's wall time divided by its batch size — the series
    /// `stats::analyze` runs on.
    per_run: Vec<f64>,
    /// Kernel invocations over all samples.
    runs: u64,
    /// Wall time over all samples.
    secs: f64,
}

/// The sampling loop.
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
fn sample_series(
    label: &str,
    strict_checksum: bool,
    min_time: Duration,
    mut run_once: impl FnMut() -> Result<f64, MeasureError>,
) -> Result<Series, MeasureError> {
    let mut series = Series { per_run: Vec::new(), runs: 0, secs: 0.0 };
    let mut first_sum: Option<f64> = None;
    let mut sample = |batch: u32, series: &mut Series| -> Result<(), MeasureError> {
        let start = Instant::now();
        let mut sum = 0.0;
        for _ in 0..batch {
            sum = std::hint::black_box(run_once()?);
        }
        let secs = start.elapsed().as_secs_f64();
        series.per_run.push(secs / batch as f64);
        series.runs += batch as u64;
        series.secs += secs;
        match first_sum {
            None => first_sum = Some(sum),
            Some(first) => {
                if strict_checksum && sum.to_bits() != first.to_bits() {
                    return Err(MeasureError::Nondeterministic {
                        entry: label.to_string(),
                        run: series.runs,
                        first,
                        got: sum,
                    });
                }
            }
        }
        Ok(())
    };

    sample(1, &mut series)?;
    sample(1, &mut series)?;
    // Calibrate from sample 1 (sample 0 is JIT-polluted and would
    // under-batch by orders of magnitude on fast kernels).
    let per_run = series.per_run[1].max(1e-9);
    let target = min_time.as_secs_f64() / TARGET_SAMPLES as f64;
    let batch = ((target / per_run).round() as u64).clamp(1, 1 << 20) as u32;

    let min_secs = min_time.as_secs_f64();
    let hard_cap = HARD_CAP_FACTOR * min_secs;
    while (series.secs < min_secs || series.per_run.len() < MIN_SAMPLES)
        && series.per_run.len() < MAX_SAMPLES
        && series.secs < hard_cap
    {
        sample(batch, &mut series)?;
    }
    Ok(series)
}

/// Sample under the protocol and reduce the series to its rate and note.
fn measure_loop(
    label: &str,
    strict_checksum: bool,
    ops_per_run: f64,
    min_time: Duration,
    run_once: impl FnMut() -> Result<f64, MeasureError>,
) -> Result<Measurement, MeasureError> {
    let series = sample_series(label, strict_checksum, min_time, run_once)?;
    Ok(reduce(&series, ops_per_run))
}

/// The rate and note a table cell prints for a sampled series.
fn reduce(series: &Series, ops_per_run: f64) -> Measurement {
    let stats = stats::analyze(&series.per_run);
    // Invert times into rates; a zero median (sub-resolution timing) falls
    // back to the aggregate rate.
    let rate = if stats.median > 0.0 {
        ops_per_run / stats.median
    } else {
        ops_per_run * series.runs as f64 / series.secs.max(1e-12)
    };
    let (lo, hi) = (
        if stats.ci.1 > 0.0 { ops_per_run / stats.ci.1 } else { rate },
        if stats.ci.0 > 0.0 { ops_per_run / stats.ci.0 } else { rate },
    );
    let ci_pct = if rate > 0.0 { 100.0 * (hi - lo) / (2.0 * rate) } else { 0.0 };
    let mut note = format!("±{ci_pct:.0}%");
    let marker = stats.classification.marker();
    if !marker.is_empty() {
        note.push(' ');
        note.push_str(marker);
    }
    Measurement { rate, note }
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
        assert!(m.note.starts_with('±'), "{}", m.note);
        // The sampling loop on the same kernel: every run's checksum, and
        // the invocations it counts are the ones it made.
        let mut calls = 0u64;
        let s = sample_series(e.id, true, Duration::from_millis(20), || {
            calls += 1;
            let sum = run_entry(&vm, e, 10_000).unwrap();
            assert_eq!(sum, 10_000.0);
            Ok(sum)
        })
        .unwrap();
        assert_eq!(s.runs, calls);
        assert!(s.per_run.len() >= MIN_SAMPLES);
        assert!(s.per_run.len() <= MAX_SAMPLES);
        // The cell's reduction of this series: the rate CI brackets the rate
        // and the note prints its half-width.
        assert_cell_reduction(&s, (e.ops)(10_000));
        // min_time was respected (the loop no longer exits early).
        assert!(s.secs >= 0.02, "{}", s.secs);
    }

    /// The percentage a cell note prints between `±` and `%`.
    fn note_pct(note: &str) -> f64 {
        let pct = note.strip_prefix('±').and_then(|r| r.split('%').next());
        pct.and_then(|p| p.parse().ok()).unwrap_or_else(|| panic!("bad note {note:?}"))
    }

    /// `reduce`'s rate lies inside the time CI inverted into rates, and its
    /// note prints that interval's half-width as a finite, non-negative
    /// percentage of the rate.
    fn assert_cell_reduction(s: &Series, ops: f64) -> f64 {
        let m = reduce(s, ops);
        let st = stats::analyze(&s.per_run);
        assert!(st.ci.0 > 0.0 && st.ci.0 <= st.median && st.median <= st.ci.1, "{st:?}");
        let (lo, hi) = (ops / st.ci.1, ops / st.ci.0);
        assert!(lo <= m.rate && m.rate <= hi, "{lo} <= {} <= {hi}", m.rate);
        let pct = note_pct(&m.note);
        assert!(pct.is_finite() && pct >= 0.0, "{}", m.note);
        let want = format!("±{:.0}%", 100.0 * (hi - lo) / (2.0 * m.rate));
        assert!(m.note.starts_with(&want), "{} vs {want}", m.note);
        pct
    }

    #[test]
    fn a_cell_note_prints_the_rate_ci_half_width() {
        // A flat series spread over ±4% of its median: the bootstrap CI is
        // wider than a point, so an inverted interval would print a
        // negative half-width.
        let per_run: Vec<f64> = (0..40).map(|i| 1.0 + 0.02 * ((i * 7) % 5) as f64).collect();
        let s = Series { per_run, runs: 40, secs: 40.0 };
        assert!(assert_cell_reduction(&s, 1000.0) > 0.0);
        assert_eq!(reduce(&s, 1000.0).note, "±2%");
    }

    #[test]
    fn samples_0_and_1_are_unbatched_probes() {
        // The first two invocations sleep, the rest return at once: a
        // probe batched with later invocations would average its sleep
        // away. The 10 s window calibrates a batch above 1 for the rest.
        let mut calls = 0u32;
        let s = sample_series("probes", true, Duration::from_secs(10), || {
            calls += 1;
            if calls <= 2 {
                std::thread::sleep(Duration::from_millis(2));
            }
            Ok(0.0)
        })
        .unwrap();
        assert!(s.per_run[0] >= 0.002 && s.per_run[1] >= 0.002, "{:?}", &s.per_run[..2]);
        let batch = (s.runs - 2) / (s.per_run.len() as u64 - 2);
        assert!(batch > 1, "{} runs in {} samples", s.runs, s.per_run.len());
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
        let sieve = || {
            let primes = hpcnet_core::native::apps::sieve(1000) as f64;
            assert_eq!(primes, 168.0);
            primes
        };
        let m = time_native(sieve, 1000.0, Duration::from_millis(10)).unwrap();
        assert!(m.rate > 0.0);
    }
}
