//! The speed meter: what the machine's clock is doing while the benchmark
//! runs.
//!
//! This box changes speed in steps — everything, VM code and native code
//! alike, runs 8–25 % slower for tens of seconds at a time and then
//! recovers (measured: the floor of `scimark.fft` over 20 s windows had an
//! interquartile spread of 18 % of its median across ten minutes). A floor
//! removes additive noise, not a slow clock, and a run can fall entirely
//! inside a slow stretch.
//!
//! So a short, latency-bound dependent chain — insensitive to what a
//! neighbour does to caches or ports — is timed after every sample, and
//! each sample is divided by how much slower than `reference_spin_ms` the
//! fastest spin near it ran. Reported times are therefore "ms at the
//! reference clock". The same ten minutes, corrected this way, spread
//! 0.5–1.8 %. The spin is this file's code, not the product's: a product
//! regression cannot hide in it.

use crate::spans::Recorder;
use std::hint::black_box;
use std::time::Instant;

const SPIN_STEPS: u64 = 100_000;

/// A xorshift chain: every step needs the previous one, so it runs at
/// one step per few cycles whatever else shares the core.
#[inline(never)]
fn spin(steps: u64) -> u64 {
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

pub struct SpeedMeter {
    reference_ms: f64,
    /// `(trace id, spin time in ms)` in the order taken.
    spins: Vec<(u32, f64)>,
    spent_s: f64,
}

impl SpeedMeter {
    pub fn new(reference_ms: f64) -> SpeedMeter {
        SpeedMeter {
            reference_ms,
            spins: Vec::with_capacity(1 << 14),
            spent_s: 0.0,
        }
    }

    /// Time one spin, filed under the recorder's current trace id.
    pub fn sample(&mut self, rec: &mut Recorder) {
        let s = rec.enter("bench.spin");
        let t0 = Instant::now();
        black_box(spin(black_box(SPIN_STEPS)));
        let dt = t0.elapsed().as_secs_f64();
        rec.exit(s);
        self.spent_s += dt;
        self.spins.push((rec.trace_id(), dt * 1e3));
    }

    /// Seconds spent spinning so far: wall times that should not include
    /// the meter subtract the difference of two readings.
    pub fn spent_s(&self) -> f64 {
        self.spent_s
    }

    /// Per trace id (index): how much slower than the reference the clock
    /// ran, from the fastest spin of that trace and its two neighbours.
    /// The minimum, not a mean: an over-estimate would deflate samples
    /// below what they cost, and a floor would then pick exactly those.
    pub fn factors(&self, traces: u32) -> Vec<f64> {
        let mut fastest = vec![f64::INFINITY; traces as usize + 1];
        for &(id, ms) in &self.spins {
            let slot = &mut fastest[id as usize];
            *slot = slot.min(ms);
        }
        (0..fastest.len())
            .map(|i| {
                let near = &fastest[i.saturating_sub(1)..(i + 2).min(fastest.len())];
                let ms = near.iter().copied().fold(f64::INFINITY, f64::min);
                if ms.is_finite() {
                    ms / self.reference_ms
                } else {
                    1.0
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spin_cost_grows_with_its_step_count() {
        // `black_box` is only a hint: confirm the chain is really executed.
        let time = |steps| {
            (0..5)
                .map(|_| {
                    let t0 = Instant::now();
                    black_box(spin(black_box(steps)));
                    t0.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min)
        };
        assert!(time(400_000) > 2.0 * time(100_000));
    }

    #[test]
    fn factor_is_the_fastest_nearby_spin_over_the_reference() {
        let mut m = SpeedMeter::new(2.0);
        m.spins = vec![(1, 2.2), (1, 2.0), (2, 2.6), (3, 3.0), (3, 3.4), (5, 2.4)];
        let f = m.factors(5);
        assert_eq!(f.len(), 6);
        assert_eq!(f[1], 1.0); // 2.0 among traces 0..=2
        assert_eq!(f[2], 1.0); // trace 1's 2.0 is a neighbour
        assert_eq!(f[3], 1.3); // 2.6 among traces 2..=4
        assert_eq!(f[4], 1.2); // no spin of its own: neighbours 3 and 5
        assert_eq!(f[5], 1.2);
    }
}
