//! The managed math library, in two qualities.
//!
//! Graphs 6–8 of the paper show the CLR 1.1 math library consistently
//! outperforming the JVM's. The mechanism is implementation quality: one
//! runtime forwards to hardware/libm intrinsics, the other carries a
//! stricter software implementation (HotSpot of that era took the
//! StrictMath route for several routines). We reproduce both:
//!
//! * [`MathTable::fast`] — forwards to Rust/libm intrinsics (the CLR-style
//!   profile);
//! * [`MathTable::strict`] — our own argument-reduction + polynomial
//!   implementations (the JVM-style profile). These are *real*
//!   computations, accurate to ~1e-12 relative over the benchmark domains,
//!   just more work per call — which is exactly the effect the paper
//!   measures.
//!
//! [`MathTable::routine`] is the one place an [`Intrinsic`] is mapped to
//! the table's routine: the interpreter applies it to tagged values, the
//! register tiers to the raw bits of their `float64` slots.
//!
//! `Math.random()` goes through a process-global, mutex-guarded
//! [`JRandom`], mirroring Java's synchronized `Math.random()` — the paper's
//! Section 5 notes the Monte Carlo kernel is "mainly a test of the access
//! to synchronized methods".

use crate::jrandom::JRandom;
use hpcnet_cil::Intrinsic;
use parking_lot::Mutex;
use std::sync::OnceLock;

/// Dispatch table for the `float64` math routines an engine installs.
#[derive(Clone, Copy, Debug)]
pub struct MathTable {
    pub sin: fn(f64) -> f64,
    pub cos: fn(f64) -> f64,
    pub tan: fn(f64) -> f64,
    pub asin: fn(f64) -> f64,
    pub acos: fn(f64) -> f64,
    pub atan: fn(f64) -> f64,
    pub atan2: fn(f64, f64) -> f64,
    pub floor: fn(f64) -> f64,
    pub ceil: fn(f64) -> f64,
    pub sqrt: fn(f64) -> f64,
    pub exp: fn(f64) -> f64,
    pub log: fn(f64) -> f64,
    pub pow: fn(f64, f64) -> f64,
    pub rint: fn(f64) -> f64,
}

/// One routine of a [`MathTable`], by arity.
#[derive(Clone, Copy, Debug)]
pub enum Routine {
    Unary(fn(f64) -> f64),
    Binary(fn(f64, f64) -> f64),
}

impl MathTable {
    /// The routine that carries out `i`: one of the table's 14 — 12
    /// unary, plus `Atan2` and `Pow` — or `None` for any other intrinsic.
    pub fn routine(&self, i: Intrinsic) -> Option<Routine> {
        use Intrinsic::*;
        use Routine::{Binary, Unary};
        Some(match i {
            Sin => Unary(self.sin),
            Cos => Unary(self.cos),
            Tan => Unary(self.tan),
            Asin => Unary(self.asin),
            Acos => Unary(self.acos),
            Atan => Unary(self.atan),
            Atan2 => Binary(self.atan2),
            Floor => Unary(self.floor),
            Ceil => Unary(self.ceil),
            Sqrt => Unary(self.sqrt),
            Exp => Unary(self.exp),
            Log => Unary(self.log),
            Pow => Binary(self.pow),
            Rint => Unary(self.rint),
            _ => return None,
        })
    }

    /// Hardware/libm-backed routines (the CLR 1.1 profile).
    pub fn fast() -> MathTable {
        MathTable {
            sin: f64::sin,
            cos: f64::cos,
            tan: f64::tan,
            asin: f64::asin,
            acos: f64::acos,
            atan: f64::atan,
            atan2: f64::atan2,
            floor: f64::floor,
            ceil: f64::ceil,
            sqrt: f64::sqrt,
            exp: f64::exp,
            log: f64::ln,
            pow: f64::powf,
            rint: rint_fast,
        }
    }

    /// Software strict-math routines (the JVM profile).
    pub fn strict() -> MathTable {
        MathTable {
            sin: strict::sin,
            cos: strict::cos,
            tan: strict::tan,
            asin: strict::asin,
            acos: strict::acos,
            atan: strict::atan,
            atan2: strict::atan2,
            floor: strict::floor,
            ceil: strict::ceil,
            sqrt: f64::sqrt, // a single instruction on every target; even
            // strict libraries used the hardware root
            exp: strict::exp,
            log: strict::log,
            pow: strict::pow,
            rint: strict::rint,
        }
    }
}

fn rint_fast(x: f64) -> f64 {
    // Round half to even, the IEEE default the CLI's Math.Round uses.
    let r = x.round();
    if (x - x.trunc()).abs() == 0.5 && r % 2.0 != 0.0 {
        r - x.signum()
    } else {
        r
    }
}

/// `Math.random()` — global synchronized generator (Java semantics).
pub fn global_random() -> f64 {
    static RNG: OnceLock<Mutex<JRandom>> = OnceLock::new();
    RNG.get_or_init(|| Mutex::new(JRandom::new(0x5EED)))
        .lock()
        .next_double()
}

/// Software strict-math implementations.
///
/// Each routine performs explicit argument reduction followed by polynomial
/// evaluation — more instructions per call than the hardware path by
/// construction, which is the honest way to model the slower math library
/// the paper observed.
pub mod strict {
    const PI: f64 = std::f64::consts::PI;
    const PI_2: f64 = std::f64::consts::FRAC_PI_2;
    // Cody–Waite split of π/2 for accurate reduction.
    const PIO2_HI: f64 = PI_2;
    const PIO2_LO: f64 = 6.123_233_995_736_766e-17;
    const LN2_HI: f64 = 6.931_471_803_691_238e-1;
    const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;

    /// Reduce `x` to `r` in [-π/4, π/4] with the quadrant index.
    fn reduce(x: f64) -> (f64, i64) {
        let n = (x / PI_2).round();
        let r = (x - n * PIO2_HI) - n * PIO2_LO;
        (r, n as i64)
    }

    /// sin on [-π/4, π/4], 15-degree Taylor (error < 1e-16 there).
    fn sin_poly(r: f64) -> f64 {
        let r2 = r * r;
        // Horner over 1 - r²/3! + r⁴/5! …, factored by r.
        r * (1.0
            + r2 * (-1.0 / 6.0
                + r2 * (1.0 / 120.0
                    + r2 * (-1.0 / 5040.0
                        + r2 * (1.0 / 362_880.0
                            + r2 * (-1.0 / 39_916_800.0 + r2 * (1.0 / 6_227_020_800.0)))))))
    }

    /// cos on [-π/4, π/4].
    fn cos_poly(r: f64) -> f64 {
        let r2 = r * r;
        1.0 + r2
            * (-1.0 / 2.0
                + r2 * (1.0 / 24.0
                    + r2 * (-1.0 / 720.0
                        + r2 * (1.0 / 40_320.0
                            + r2 * (-1.0 / 3_628_800.0 + r2 * (1.0 / 479_001_600.0))))))
    }

    pub fn sin(x: f64) -> f64 {
        if !x.is_finite() {
            return f64::NAN;
        }
        let (r, n) = reduce(x);
        match n.rem_euclid(4) {
            0 => sin_poly(r),
            1 => cos_poly(r),
            2 => -sin_poly(r),
            _ => -cos_poly(r),
        }
    }

    pub fn cos(x: f64) -> f64 {
        if !x.is_finite() {
            return f64::NAN;
        }
        let (r, n) = reduce(x);
        match n.rem_euclid(4) {
            0 => cos_poly(r),
            1 => -sin_poly(r),
            2 => -cos_poly(r),
            _ => sin_poly(r),
        }
    }

    pub fn tan(x: f64) -> f64 {
        sin(x) / cos(x)
    }

    /// atan via double reduction and a 12-term odd Taylor series.
    pub fn atan(x: f64) -> f64 {
        if x.is_nan() {
            return x;
        }
        if x < 0.0 {
            return -atan(-x);
        }
        if x > 1.0 {
            return if x.is_infinite() { PI_2 } else { PI_2 - atan(1.0 / x) };
        }
        // Reduce into [0, tan(π/12)) using atan(x) = π/6 + atan(y),
        // y = (√3·x − 1)/(√3 + x).
        let sqrt3 = 3f64.sqrt();
        let (offset, y) = if x > 0.267_949_192_431_122_7 {
            (PI / 6.0, (sqrt3 * x - 1.0) / (sqrt3 + x))
        } else {
            (0.0, x)
        };
        let y2 = y * y;
        let mut term = y;
        let mut sum = y;
        for k in 1..12 {
            term *= -y2;
            sum += term / (2.0 * k as f64 + 1.0);
        }
        offset + sum
    }

    pub fn atan2(y: f64, x: f64) -> f64 {
        if x.is_nan() || y.is_nan() {
            return f64::NAN;
        }
        if x > 0.0 {
            atan(y / x)
        } else if x < 0.0 {
            if y >= 0.0 {
                atan(y / x) + PI
            } else {
                atan(y / x) - PI
            }
        } else if y > 0.0 {
            PI_2
        } else if y < 0.0 {
            -PI_2
        } else {
            0.0
        }
    }

    pub fn asin(x: f64) -> f64 {
        if x.abs() > 1.0 {
            return f64::NAN;
        }
        if x.abs() == 1.0 {
            return x.signum() * PI_2;
        }
        atan(x / (1.0 - x * x).sqrt())
    }

    pub fn acos(x: f64) -> f64 {
        PI_2 - asin(x)
    }

    /// exp via 2^k scaling and a 13-term Taylor series on the residue.
    pub fn exp(x: f64) -> f64 {
        if x.is_nan() {
            return x;
        }
        if x > 709.78 {
            return f64::INFINITY;
        }
        if x < -745.0 {
            return 0.0;
        }
        let k = (x / std::f64::consts::LN_2).round();
        let r = (x - k * LN2_HI) - k * LN2_LO;
        let mut term = 1.0;
        let mut sum = 1.0;
        for i in 1..14 {
            term *= r / i as f64;
            sum += term;
        }
        // Scale by 2^k through the exponent bits.
        let ki = k as i64;
        let scale = f64::from_bits(((1023 + ki) as u64) << 52);
        sum * scale
    }

    /// natural log via mantissa/exponent split and the atanh series.
    pub fn log(x: f64) -> f64 {
        if x.is_nan() || x < 0.0 {
            return f64::NAN;
        }
        if x == 0.0 {
            return f64::NEG_INFINITY;
        }
        if x.is_infinite() {
            return f64::INFINITY;
        }
        // x = m * 2^e with m in [1, 2); recenter m into [√2/2, √2).
        let bits = x.to_bits();
        let mut e = ((bits >> 52) & 0x7FF) as i64 - 1023;
        let mut m = f64::from_bits((bits & 0x000F_FFFF_FFFF_FFFF) | (1023u64 << 52));
        if m > std::f64::consts::SQRT_2 {
            m *= 0.5;
            e += 1;
        }
        let s = (m - 1.0) / (m + 1.0);
        let s2 = s * s;
        let mut term = s;
        let mut sum = s;
        for k in 1..14 {
            term *= s2;
            sum += term / (2.0 * k as f64 + 1.0);
        }
        2.0 * sum + e as f64 * std::f64::consts::LN_2
    }

    pub fn pow(x: f64, y: f64) -> f64 {
        if y == 0.0 {
            return 1.0;
        }
        if x == 0.0 {
            return if y > 0.0 { 0.0 } else { f64::INFINITY };
        }
        if x < 0.0 {
            // Negative base: defined only for integer exponents.
            if y.fract() != 0.0 {
                return f64::NAN;
            }
            let mag = exp(y * log(-x));
            return if (y as i64) % 2 == 0 { mag } else { -mag };
        }
        exp(y * log(x))
    }

    pub fn floor(x: f64) -> f64 {
        if !x.is_finite() || x.abs() >= 2f64.powi(52) {
            return x;
        }
        let t = x as i64 as f64;
        if x < 0.0 && t != x {
            t - 1.0
        } else {
            t
        }
    }

    pub fn ceil(x: f64) -> f64 {
        -floor(-x)
    }

    /// Round half to even.
    pub fn rint(x: f64) -> f64 {
        if !x.is_finite() || x.abs() >= 2f64.powi(52) {
            return x;
        }
        let f = floor(x);
        let frac = x - f;
        if frac < 0.5 {
            f
        } else if frac > 0.5 {
            f + 1.0
        } else if (f as i64) % 2 == 0 {
            f
        } else {
            f + 1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        // Mixed absolute/relative: near zero crossings the reduction error
        // is absolute, elsewhere relative error is the right measure.
        (a - b).abs() < tol || ((a - b) / b).abs() < tol
    }

    #[test]
    fn strict_trig_matches_libm() {
        let mut x = -20.0;
        while x < 20.0 {
            assert!(close(strict::sin(x), x.sin(), 1e-12), "sin({x})");
            assert!(close(strict::cos(x), x.cos(), 1e-12), "cos({x})");
            if x.cos().abs() > 0.05 {
                assert!(close(strict::tan(x), x.tan(), 1e-10), "tan({x})");
            }
            x += 0.0137;
        }
    }

    #[test]
    fn strict_inverse_trig() {
        let mut x = -0.999;
        while x < 1.0 {
            assert!(close(strict::asin(x), x.asin(), 1e-11), "asin({x})");
            assert!(close(strict::acos(x), x.acos(), 1e-10), "acos({x})");
            x += 0.013;
        }
        let mut x = -50.0;
        while x < 50.0 {
            assert!(close(strict::atan(x), x.atan(), 1e-12), "atan({x})");
            x += 0.17;
        }
        for (y, x) in [(1.0, 1.0), (1.0, -1.0), (-1.0, -1.0), (-3.0, 2.0), (0.0, -2.0)] {
            assert!(
                close(strict::atan2(y, x), f64::atan2(y, x), 1e-12),
                "atan2({y},{x})"
            );
        }
    }

    #[test]
    fn strict_exp_log_pow() {
        let mut x = -30.0;
        while x < 30.0 {
            assert!(close(strict::exp(x), x.exp(), 1e-12), "exp({x})");
            x += 0.0937;
        }
        let mut x = 1e-6;
        while x < 1e6 {
            assert!(close(strict::log(x), x.ln(), 1e-12), "log({x})");
            x *= 1.7;
        }
        for (b, e) in [(2.0, 10.0), (9.9, 0.5), (1.5, -3.25), (100.0, 3.0), (-2.0, 3.0), (-2.0, 4.0)] {
            assert!(
                close(strict::pow(b, e), f64::powf(b, e), 1e-10),
                "pow({b},{e})"
            );
        }
        assert!(strict::pow(-2.0, 0.5).is_nan());
        assert_eq!(strict::pow(0.0, 3.0), 0.0);
        assert_eq!(strict::pow(5.0, 0.0), 1.0);
    }

    #[test]
    fn strict_rounding() {
        for x in [-2.5, -1.5, -1.2, -0.5, 0.0, 0.5, 1.2, 1.5, 2.5, 3.7] {
            assert_eq!(strict::floor(x), x.floor(), "floor({x})");
            assert_eq!(strict::ceil(x), x.ceil(), "ceil({x})");
        }
        // Half-to-even.
        assert_eq!(strict::rint(0.5), 0.0);
        assert_eq!(strict::rint(1.5), 2.0);
        assert_eq!(strict::rint(2.5), 2.0);
        assert_eq!(strict::rint(-0.5), 0.0);
        assert_eq!(strict::rint(-1.5), -2.0);
        assert_eq!(strict::rint(1.3), 1.0);
    }

    #[test]
    fn edge_cases() {
        assert!(strict::sin(f64::INFINITY).is_nan());
        assert!(strict::log(-1.0).is_nan());
        assert_eq!(strict::log(0.0), f64::NEG_INFINITY);
        assert_eq!(strict::exp(1000.0), f64::INFINITY);
        assert_eq!(strict::exp(-1000.0), 0.0);
        assert_eq!(strict::atan(f64::INFINITY), std::f64::consts::FRAC_PI_2);
        assert!(strict::asin(1.5).is_nan());
        assert_eq!(strict::asin(1.0), std::f64::consts::FRAC_PI_2);
    }

    #[test]
    fn tables_dispatch() {
        let fast = MathTable::fast();
        let strict_t = MathTable::strict();
        assert!(close((fast.sin)(1.0), 1f64.sin(), 1e-15));
        assert!(close((strict_t.sin)(1.0), 1f64.sin(), 1e-12));
        assert!(close((strict_t.pow)(3.0, 2.5), 3f64.powf(2.5), 1e-10));
        assert_eq!((fast.rint)(2.5), 2.0);
        assert_eq!((fast.rint)(3.5), 4.0);
    }

    #[test]
    fn routines_follow_the_table() {
        let t = MathTable::strict();
        let Some(Routine::Unary(sin)) = t.routine(Intrinsic::Sin) else {
            panic!("Sin is unary");
        };
        assert_eq!(sin(1e300), strict::sin(1e300));
        let Some(Routine::Binary(pow)) = t.routine(Intrinsic::Pow) else {
            panic!("Pow is binary");
        };
        assert_eq!(pow(3.0, 2.5), strict::pow(3.0, 2.5));
        assert!(t.routine(Intrinsic::AbsR8).is_none());
        assert!(t.routine(Intrinsic::RoundR8).is_none());
    }

    #[test]
    fn global_random_in_range() {
        for _ in 0..1000 {
            let r = global_random();
            assert!((0.0..1.0).contains(&r));
        }
    }
}
