//! The code a register-tier VM runs.
//!
//! A [`CompiledMethod`] is one flat array of fixed-width op records, one
//! per *slot*, built by [`crate::rir::compile`] from allocated RIR: a `fn`
//! pointer and the operands it runs on, all resolved at translation time.
//! A slot is one RIR instruction or, on a VM that is not observing, in a
//! method without exception regions, a fused pair of them whose record
//! carries both operand sets. The dispatch loop in [`crate::call`] calls
//! `ops[pc].run` with the record itself, so the per-op work is the
//! operation plus one indirect call that answers in a register
//! (`call::Step`). Each `run` calls its instruction's body in the shared
//! `ops` module with the build-time constants folded in — the stand-in for
//! the machine code the paper's JITs emit.
//!
//! Both register tiers run this code; they differ only in how `rir::alloc`
//! ranked values for registers before the build: by static use count on
//! [`crate::profile::Tier::Rir`] (`clr11`, `mono023`, the JVMs), by linear
//! scan on [`crate::profile::Tier::Compiled`] (`clr11_compiled`).
//!
//! ```
//! use hpcnet_cil::{BinOp, CilType, MethodKind, ModuleBuilder};
//! use hpcnet_vm::{declare_prelude, Tier, Vm, VmProfile};
//! use hpcnet_runtime::Value;
//!
//! let mut mb = ModuleBuilder::new();
//! declare_prelude(&mut mb);
//! let c = mb.declare_class("P", None);
//! let mut f = mb.method(c, "Twice", vec![CilType::I4], CilType::I4, MethodKind::Static);
//! f.ld_arg(0);
//! f.ld_arg(0);
//! f.bin(BinOp::Add);
//! f.ret();
//! f.finish();
//!
//! // Any profile can be moved onto the linear-scan allocator; the answer
//! // is the same as on every other engine, only the allocation differs.
//! let profile = VmProfile::mono023().with_tier(Tier::Compiled);
//! let vm = Vm::new(mb.finish(), profile).unwrap();
//! let r = vm.invoke_by_name("P.Twice", vec![Value::I4(21)]).unwrap();
//! assert_eq!(r.unwrap().as_i4(), 42);
//! ```

use crate::call::{Frame, Step};
use crate::machine::Vm;
use crate::rir::{ArgSlot, RirMethod};
use hpcnet_cil::Intrinsic;
use std::sync::Arc;

/// What runs one op, given its own record. It answers the dispatch loop in
/// a register; anything bigger it parks in the frame (see [`crate::call`]).
pub(crate) type Run = fn(&mut Frame, &Arc<Vm>, &Op, u32) -> Step;

/// One translated slot. The builder that picked `run` fixes which field
/// holds which operand: frame slots in `s`, branch targets and ids in `n`,
/// an immediate or a [`Side`] span (`start | len << 32`) in `imm`.
#[derive(Clone, Copy)]
pub(crate) struct Op {
    pub(crate) run: Run,
    pub(crate) s: [u16; 4],
    pub(crate) n: [u32; 2],
    pub(crate) imm: u64,
}

/// What a method's records have no room for: call, `newobj` and intrinsic
/// argument lists, multidimensional index and dimension slots, the
/// intrinsic a fallback call runs. A method without them allocates none.
#[derive(Default)]
pub(crate) struct Side {
    pub(crate) args: Vec<ArgSlot>,
    pub(crate) slots: Vec<u16>,
    pub(crate) intrinsics: Vec<Intrinsic>,
}

/// The items of `pool` the span `span` names.
#[inline(always)]
pub(crate) fn list<T>(pool: &[T], span: u64) -> &[T] {
    &pool[span as u32 as usize..][..(span >> 32) as usize]
}

/// A method compiled to op records. `rir` is the allocated register IR
/// the records were built from — kept for the observer (which records
/// per-opcode attribution from it), for exception dispatch and `leave`,
/// for [`crate::rir::print_rir`] listings, and for frame construction.
/// `ops` has one record per slot: fewer than `rir.code` has instructions
/// where pairs fused.
pub struct CompiledMethod {
    /// The allocated RIR backing the records.
    pub rir: Arc<RirMethod>,
    pub(crate) ops: Box<[Op]>,
    pub(crate) side: Side,
}
