//! # hpcnet-cil — a CLI-style bytecode substrate
//!
//! This crate defines the Common Intermediate Language subset that the whole
//! HPC.NET reproduction is built on. It plays the role ECMA-335 plays in the
//! paper: a *single* typed, stack-based instruction set plus self-describing
//! metadata (classes, methods, fields, string literals) that one compiler
//! emits and several differently-optimizing execution engines consume.
//!
//! The subset covers everything the Java Grande / SciMark benchmark suites
//! need: the full numeric stack (`int32`/`int64`/`float32`/`float64`),
//! object instances with single inheritance and virtual dispatch, SZ arrays,
//! jagged arrays, true multidimensional arrays (rank 2 and 3), boxing of
//! value types, structured exception handling (`try`/`catch`/`finally`),
//! and a small intrinsic surface (math library, console, monitors, threads).
//!
//! Modules:
//! * [`types`] — the Common Type System subset ([`CilType`], [`NumTy`]).
//! * [`op`] — the instruction set ([`Op`]) and intrinsic table.
//! * [`module`] — metadata: [`Module`], [`ClassDef`], [`MethodDef`], [`FieldDef`].
//! * [`builder`] — ergonomic construction of classes and method bodies with
//!   label patching (what a compiler back-end targets).
//! * [`verify`] — a stack-effect verifier enforcing CLI-style type safety of
//!   method bodies before execution, recording each body's stack shapes.
//! * [`disasm`] — textual disassembly (used by the paper-style JIT-output
//!   comparison in `examples/jit_compare.rs`).

pub mod builder;
pub mod disasm;
pub mod module;
pub mod op;
pub mod prelude;
pub mod types;
pub mod verify;

pub use builder::{elem_kind_of, Label, MethodBuilder, MethodKind, ModuleBuilder};
pub use module::{
    ClassDef, ClassId, EhKind, EhRegion, FieldDef, FieldId, MethodBody, MethodDef, MethodId,
    Module, StrId,
};
pub use op::{BinOp, CmpOp, ElemKind, Intrinsic, Op, UnOp, OP_KIND_NAMES};
pub use prelude::declare_prelude;
pub use types::{CilType, NumTy};
pub use verify::{verify_method, verify_module, StackShapes, VerifyError};
