//! Runtime values.
//!
//! [`Value`] is the tagged representation used on interpreter evaluation
//! stacks and across call boundaries. The optimizing tiers use untagged raw
//! bits internally (types are static after verification) and only construct
//! `Value`s at call/return edges.

use crate::object::HeapObj;
use hpcnet_cil::NumTy;
use std::sync::Arc;

/// A handle to a managed heap object. Reference counting reclaims acyclic
/// garbage; [`crate::gc`] handles cycles at safepoints.
pub type Obj = Arc<HeapObj>;

/// A managed value.
#[derive(Clone, Debug)]
pub enum Value {
    I4(i32),
    I8(i64),
    R4(f32),
    R8(f64),
    Ref(Obj),
    Null,
}

impl Value {
    /// The default (zero) value for a numeric kind.
    pub fn zero(ty: NumTy) -> Value {
        match ty {
            NumTy::I4 => Value::I4(0),
            NumTy::I8 => Value::I8(0),
            NumTy::R4 => Value::R4(0.0),
            NumTy::R8 => Value::R8(0.0),
        }
    }

    /// Raw 64-bit encoding of a numeric value (used by the register tiers
    /// and by primitive field/array storage).
    #[inline]
    pub fn to_bits(&self) -> u64 {
        match self {
            Value::I4(v) => *v as u32 as u64,
            Value::I8(v) => *v as u64,
            Value::R4(v) => v.to_bits() as u64,
            Value::R8(v) => v.to_bits(),
            Value::Null => 0,
            Value::Ref(_) => panic!("to_bits on reference"),
        }
    }

    /// Decode a numeric value from its raw 64-bit encoding.
    #[inline]
    pub fn from_bits(ty: NumTy, bits: u64) -> Value {
        match ty {
            NumTy::I4 => Value::I4(bits as u32 as i32),
            NumTy::I8 => Value::I8(bits as i64),
            NumTy::R4 => Value::R4(f32::from_bits(bits as u32)),
            NumTy::R8 => Value::R8(f64::from_bits(bits)),
        }
    }

    #[inline]
    pub fn as_i4(&self) -> i32 {
        match self {
            Value::I4(v) => *v,
            other => panic!("expected int32, got {other:?}"),
        }
    }

    #[inline]
    pub fn as_i8(&self) -> i64 {
        match self {
            Value::I8(v) => *v,
            other => panic!("expected int64, got {other:?}"),
        }
    }

    #[inline]
    pub fn as_r4(&self) -> f32 {
        match self {
            Value::R4(v) => *v,
            other => panic!("expected float32, got {other:?}"),
        }
    }

    #[inline]
    pub fn as_r8(&self) -> f64 {
        match self {
            Value::R8(v) => *v,
            other => panic!("expected float64, got {other:?}"),
        }
    }

    /// Reference payload; `None` for [`Value::Null`].
    #[inline]
    pub fn as_ref_opt(&self) -> Option<&Obj> {
        match self {
            Value::Ref(o) => Some(o),
            Value::Null => None,
            other => panic!("expected reference, got {other:?}"),
        }
    }

    /// Move the reference payload out, leaving the refcount alone. `None`
    /// for [`Value::Null`] — and for a numeric value: a caller that must
    /// tell the two apart checks [`Value::num_ty`] first.
    #[inline]
    pub fn into_ref_opt(self) -> Option<Obj> {
        match self {
            Value::Ref(o) => Some(o),
            _ => None,
        }
    }

    /// Truthiness for `brtrue`/`brfalse`: nonzero numeric or non-null ref.
    #[inline]
    pub fn truthy(&self) -> bool {
        match self {
            Value::I4(v) => *v != 0,
            Value::I8(v) => *v != 0,
            Value::R4(v) => *v != 0.0,
            Value::R8(v) => *v != 0.0,
            Value::Ref(_) => true,
            Value::Null => false,
        }
    }

    /// The numeric kind, if numeric.
    pub fn num_ty(&self) -> Option<NumTy> {
        match self {
            Value::I4(_) => Some(NumTy::I4),
            Value::I8(_) => Some(NumTy::I8),
            Value::R4(_) => Some(NumTy::R4),
            Value::R8(_) => Some(NumTy::R8),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_roundtrip() {
        for v in [
            Value::I4(-7),
            Value::I4(i32::MAX),
            Value::I8(i64::MIN),
            Value::R4(3.5),
            Value::R8(-0.0),
            Value::R8(f64::INFINITY),
        ] {
            let ty = v.num_ty().unwrap();
            let rt = Value::from_bits(ty, v.to_bits());
            assert_eq!(rt.to_bits(), v.to_bits());
            assert_eq!(rt.num_ty(), Some(ty));
        }
    }

    #[test]
    fn negative_i4_encodes_zero_extended() {
        // -1 as int32 must occupy only the low 32 bits so that it can live
        // in a typed slot without sign contamination.
        assert_eq!(Value::I4(-1).to_bits(), 0xFFFF_FFFF);
        assert_eq!(Value::from_bits(NumTy::I4, 0xFFFF_FFFF).as_i4(), -1);
    }

    #[test]
    fn truthiness() {
        assert!(Value::I4(1).truthy());
        assert!(!Value::I4(0).truthy());
        assert!(!Value::Null.truthy());
        assert!(Value::R8(0.5).truthy());
        assert!(!Value::R8(0.0).truthy());
    }

    #[test]
    fn nan_bits_preserved() {
        let nan = f64::from_bits(0x7ff8_0000_0000_1234);
        let v = Value::R8(nan);
        assert_eq!(
            Value::from_bits(NumTy::R8, v.to_bits()).to_bits(),
            v.to_bits()
        );
    }
}
