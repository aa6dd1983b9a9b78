//! Engine errors and in-flight managed exceptions.

use hpcnet_runtime::Obj;
use std::fmt;

/// An error produced while executing managed code.
#[derive(Debug, Clone)]
pub enum VmError {
    /// A managed exception object in flight, looking for a handler.
    Exception(Obj),
    /// A resource guard tripped (call depth, runaway loops in tests).
    Limit(String),
    /// An engine invariant failed — verified code should never produce
    /// this; it indicates a bug in the engine or an unverified module.
    Internal(String),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::Exception(obj) => {
                write!(f, "unhandled managed exception ({:?})", obj.class_id())
            }
            VmError::Limit(m) => write!(f, "limit exceeded: {m}"),
            VmError::Internal(m) => write!(f, "internal engine error: {m}"),
        }
    }
}

impl std::error::Error for VmError {}

/// The internal error of `ldfld`/`stfld` on an object without that
/// instance field, the same on every tier. Verified code never raises it.
pub(crate) const NOT_AN_INSTANCE: &str = "instance field access on a non-instance";

/// The limit error of a multidimensional allocation whose size overflows
/// (see `HeapObj::new_multi`), the same on every tier.
pub(crate) const MULTI_TOO_LARGE: &str = "multidimensional array size overflows";

/// Shorthand used throughout the engines.
pub type VmResult<T> = Result<T, VmError>;
