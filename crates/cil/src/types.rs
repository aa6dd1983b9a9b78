//! The Common Type System subset.
//!
//! ECMA-335 defines a rich unified type system; the benchmarks in the paper
//! exercise the numeric primitives, `bool`, `string`, object references,
//! single-dimensional (SZ) arrays, jagged arrays (arrays of array
//! references) and *true* multidimensional arrays of rank 2 and 3 — the
//! distinction Graph 12 of the paper measures. [`CilType`] models exactly
//! that surface.

use crate::module::ClassId;
use std::fmt;
use std::sync::Arc;

/// Numeric primitive kinds as they exist on the CLI evaluation stack.
///
/// On the real CLI, small integers widen to `int32` on the stack; we model
/// `u8` array elements the same way (loads widen, stores narrow).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NumTy {
    /// 32-bit signed integer (`int32`, also carries `bool` and `char`).
    I4,
    /// 64-bit signed integer (`int64`).
    I8,
    /// 32-bit IEEE float (`float32`).
    R4,
    /// 64-bit IEEE float (`float64`).
    R8,
}

impl NumTy {
    /// CIL-style suffix used by the disassembler, e.g. `add.r8`.
    pub fn suffix(self) -> &'static str {
        match self {
            NumTy::I4 => "i4",
            NumTy::I8 => "i8",
            NumTy::R4 => "r4",
            NumTy::R8 => "r8",
        }
    }

    /// True for the two integer kinds.
    pub fn is_int(self) -> bool {
        matches!(self, NumTy::I4 | NumTy::I8)
    }

    /// True for the two floating-point kinds.
    pub fn is_float(self) -> bool {
        matches!(self, NumTy::R4 | NumTy::R8)
    }
}

impl fmt::Display for NumTy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.suffix())
    }
}

/// A type in the Common Type System subset.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum CilType {
    /// No value (method return only).
    Void,
    /// `bool` — stored as `int32` on the stack, kept distinct for signatures
    /// and verification diagnostics.
    Bool,
    /// Unsigned 8-bit integer (array element type for the Crypt kernel).
    U1,
    /// `int32`.
    I4,
    /// `int64`.
    I8,
    /// `float32`.
    R4,
    /// `float64`.
    R8,
    /// Immutable string reference.
    Str,
    /// `System.Object` — the root reference type; boxing targets this.
    Object,
    /// Reference to an instance of a declared class.
    Class(ClassId),
    /// Single-dimensional zero-based array (`T[]`). Jagged arrays are just
    /// `Array(Array(T))`. The element type is shared, so copying an array
    /// type (the verifier does for every value it tracks) allocates nothing.
    Array(Arc<CilType>),
    /// True multidimensional array (`T[,]`, `T[,,]`): one flat buffer plus a
    /// dimension vector, addressed with per-dimension bounds checks. Rank is
    /// 2 or 3 in this subset.
    MultiArray { elem: Arc<CilType>, rank: u8 },
}

impl CilType {
    /// The stack kind this type occupies when loaded, or `None` for `Void`.
    ///
    /// References (`Str`, `Object`, `Class`, arrays) occupy a reference slot;
    /// the verifier tracks those separately from numerics.
    pub fn num_ty(&self) -> Option<NumTy> {
        match self {
            CilType::Bool | CilType::U1 | CilType::I4 => Some(NumTy::I4),
            CilType::I8 => Some(NumTy::I8),
            CilType::R4 => Some(NumTy::R4),
            CilType::R8 => Some(NumTy::R8),
            _ => None,
        }
    }

    /// True if the type is a reference type (lives in ref slots).
    pub fn is_ref(&self) -> bool {
        matches!(
            self,
            CilType::Str
                | CilType::Object
                | CilType::Class(_)
                | CilType::Array(_)
                | CilType::MultiArray { .. }
        )
    }

    /// True if this is a value type that can be boxed.
    pub fn is_value_type(&self) -> bool {
        matches!(
            self,
            CilType::Bool | CilType::U1 | CilType::I4 | CilType::I8 | CilType::R4 | CilType::R8
        )
    }

    /// Element type of an array type (either flavor).
    pub fn elem(&self) -> Option<&CilType> {
        match self {
            CilType::Array(e) => Some(e),
            CilType::MultiArray { elem, .. } => Some(elem),
            _ => None,
        }
    }

    /// Construct `T[]`.
    pub fn array_of(elem: CilType) -> CilType {
        CilType::Array(Arc::new(elem))
    }

    /// Construct `T[,]` / `T[,,]`.
    pub fn multi_of(elem: CilType, rank: u8) -> CilType {
        assert!((2..=3).contains(&rank), "multi arrays support rank 2..=3");
        CilType::MultiArray {
            elem: Arc::new(elem),
            rank,
        }
    }
}

impl fmt::Display for CilType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CilType::Void => write!(f, "void"),
            CilType::Bool => write!(f, "bool"),
            CilType::U1 => write!(f, "uint8"),
            CilType::I4 => write!(f, "int32"),
            CilType::I8 => write!(f, "int64"),
            CilType::R4 => write!(f, "float32"),
            CilType::R8 => write!(f, "float64"),
            CilType::Str => write!(f, "string"),
            CilType::Object => write!(f, "object"),
            CilType::Class(id) => write!(f, "class#{}", id.0),
            CilType::Array(e) => write!(f, "{e}[]"),
            CilType::MultiArray { elem, rank } => {
                write!(f, "{elem}[{}]", ",".repeat(*rank as usize - 1))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn num_ty_mapping() {
        assert_eq!(CilType::I4.num_ty(), Some(NumTy::I4));
        assert_eq!(CilType::Bool.num_ty(), Some(NumTy::I4));
        assert_eq!(CilType::U1.num_ty(), Some(NumTy::I4));
        assert_eq!(CilType::I8.num_ty(), Some(NumTy::I8));
        assert_eq!(CilType::R4.num_ty(), Some(NumTy::R4));
        assert_eq!(CilType::R8.num_ty(), Some(NumTy::R8));
        assert_eq!(CilType::Str.num_ty(), None);
        assert_eq!(CilType::Void.num_ty(), None);
    }

    #[test]
    fn ref_and_value_classification() {
        assert!(CilType::Str.is_ref());
        assert!(CilType::Object.is_ref());
        assert!(CilType::array_of(CilType::I4).is_ref());
        assert!(CilType::multi_of(CilType::R8, 2).is_ref());
        assert!(!CilType::I4.is_ref());
        assert!(CilType::I4.is_value_type());
        assert!(CilType::R8.is_value_type());
        assert!(!CilType::Object.is_value_type());
    }

    #[test]
    fn display_forms() {
        assert_eq!(CilType::array_of(CilType::R8).to_string(), "float64[]");
        assert_eq!(
            CilType::array_of(CilType::array_of(CilType::I4)).to_string(),
            "int32[][]"
        );
        assert_eq!(CilType::multi_of(CilType::R8, 2).to_string(), "float64[,]");
        assert_eq!(CilType::multi_of(CilType::I4, 3).to_string(), "int32[,,]");
    }

    #[test]
    #[should_panic]
    fn multi_rank_bounds() {
        let _ = CilType::multi_of(CilType::I4, 4);
    }

    #[test]
    fn elem_access() {
        let t = CilType::array_of(CilType::R8);
        assert_eq!(t.elem(), Some(&CilType::R8));
        assert_eq!(CilType::I4.elem(), None);
    }

    #[test]
    fn int_float_partition() {
        assert!(NumTy::I4.is_int() && NumTy::I8.is_int());
        assert!(NumTy::R4.is_float() && NumTy::R8.is_float());
        assert!(!NumTy::I4.is_float() && !NumTy::R8.is_int());
    }
}
