//! The `java.util.Random` linear congruential generator.
//!
//! The paper keeps "support code such as timers and random number
//! generators … identical between the C# and Java versions, even though
//! more efficient implementation could have been made". This is that
//! generator: the 48-bit LCG from the Java specification, including the
//! `nextGaussian` polar method the porting section calls out as missing
//! from the CLI base library. The SciMark Monte Carlo kernel and the
//! workload generators both consume it, so every engine sees bit-identical
//! input streams.

/// Java-spec 48-bit linear congruential generator.
#[derive(Clone, Debug)]
pub struct JRandom {
    seed: u64,
    next_gaussian: Option<f64>,
}

const MULT: u64 = 0x5_DEEC_E66D;
const ADDEND: u64 = 0xB;
const MASK: u64 = (1 << 48) - 1;

impl JRandom {
    /// Seeded exactly as `new java.util.Random(seed)`.
    pub fn new(seed: i64) -> JRandom {
        JRandom {
            seed: (seed as u64 ^ MULT) & MASK,
            next_gaussian: None,
        }
    }

    /// The core generator step: `next(bits)`.
    pub fn next(&mut self, bits: u32) -> i32 {
        self.seed = self.seed.wrapping_mul(MULT).wrapping_add(ADDEND) & MASK;
        (self.seed >> (48 - bits)) as i64 as u64 as i64 as i32
    }

    /// `nextInt()` — full 32-bit range.
    pub fn next_int(&mut self) -> i32 {
        self.next(32)
    }

    /// `nextInt(bound)` with the Java rejection loop (uniform in `0..bound`).
    pub fn next_int_bound(&mut self, bound: i32) -> i32 {
        assert!(bound > 0, "bound must be positive");
        if (bound & -bound) == bound {
            // Power of two: take high bits.
            return ((bound as i64 * self.next(31) as i64) >> 31) as i32;
        }
        loop {
            let bits = self.next(31);
            let val = bits % bound;
            // Java's overflow-based rejection test, with explicit wrapping.
            if bits.wrapping_sub(val).wrapping_add(bound - 1) >= 0 {
                return val;
            }
        }
    }

    /// `nextLong()`.
    pub fn next_long(&mut self) -> i64 {
        ((self.next(32) as i64) << 32).wrapping_add(self.next(32) as i64)
    }

    /// `nextDouble()` — uniform in `[0, 1)`, 53 random bits.
    pub fn next_double(&mut self) -> f64 {
        let hi = (self.next(26) as i64) << 27;
        let lo = self.next(27) as i64;
        (hi + lo) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `nextGaussian()` — Marsaglia polar method with the cached pair,
    /// exactly as `java.util.Random` implements it.
    pub fn next_gaussian(&mut self) -> f64 {
        if let Some(g) = self.next_gaussian.take() {
            return g;
        }
        loop {
            let v1 = 2.0 * self.next_double() - 1.0;
            let v2 = 2.0 * self.next_double() - 1.0;
            let s = v1 * v1 + v2 * v2;
            if s < 1.0 && s != 0.0 {
                let multiplier = (-2.0 * s.ln() / s).sqrt();
                self.next_gaussian = Some(v2 * multiplier);
                return v1 * multiplier;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_java_reference_stream() {
        // Reference values produced by `new java.util.Random(42)` on a
        // HotSpot JVM: the first three nextInt() values and first
        // nextDouble(). These pin the generator to the Java spec.
        let mut r = JRandom::new(42);
        assert_eq!(r.next_int(), -1170105035);
        assert_eq!(r.next_int(), 234785527);
        assert_eq!(r.next_int(), -1360544799);
        let mut r = JRandom::new(42);
        let d = r.next_double();
        assert!((d - 0.7275636800328681).abs() < 1e-16, "got {d}");
    }

    #[test]
    fn next_double_in_unit_interval() {
        let mut r = JRandom::new(123456789);
        for _ in 0..10_000 {
            let d = r.next_double();
            assert!((0.0..1.0).contains(&d));
        }
    }

    #[test]
    fn bounded_ints_uniformish() {
        let mut r = JRandom::new(7);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[r.next_int_bound(10) as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "skewed bucket: {c}");
        }
        // Power-of-two path.
        for _ in 0..1000 {
            let v = r.next_int_bound(16);
            assert!((0..16).contains(&v));
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut r = JRandom::new(31415);
        let n = 200_000;
        let (mut sum, mut sumsq) = (0.0f64, 0.0f64);
        for _ in 0..n {
            let g = r.next_gaussian();
            sum += g;
            sumsq += g * g;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn deterministic_across_clones() {
        let mut a = JRandom::new(99);
        let mut b = a.clone();
        for _ in 0..100 {
            assert_eq!(a.next_long(), b.next_long());
        }
    }
}
