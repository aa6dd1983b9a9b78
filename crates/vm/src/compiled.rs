//! The code a register-tier VM runs.
//!
//! A [`CompiledMethod`] is a flat array of pre-resolved closures, one per
//! *slot*, produced by [`crate::rir::compile`] from allocated RIR. A slot
//! is one RIR instruction or, on a VM that is not observing, in a method
//! without exception regions, a fused pair of them (a constant and its
//! consumer, a result and its move, a move and a jump, a jump and the test
//! it lands on), with branch targets remapped to slots at build time. The
//! dispatch loop in [`crate::call`] fetches `ops[pc]` and calls it:
//! operands, immediates, literals and class layouts were all resolved at
//! translation time, so the per-op work is the operation itself plus one
//! indirect call that answers in a register (`call::Step`). Each closure
//! calls its instruction's body in the shared `ops` module, with the
//! build-time constants folded in — the stand-in for the machine code the
//! paper's JITs emit.
//!
//! Both register tiers run this code; they differ only in how `rir::alloc`
//! ranked the RIR's values for registers and spill slots before the
//! closures were built. [`crate::profile::Tier::Rir`] (`clr11`, `mono023`
//! and the JVM profiles) ranks values by static use count, the reference-
//! count enregistration of CLR 1.x; [`crate::profile::Tier::Compiled`]
//! ([`crate::profile::VmProfile::clr11_compiled`]) runs a linear scan over
//! live intervals.
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
use crate::rir::RirMethod;
use std::sync::Arc;

/// One translated instruction: all decoding already done, only the
/// dynamic operands (frame slots, the heap, callee dispatch) remain. It
/// answers the dispatch loop in a register; anything bigger it parks in
/// the frame (see [`crate::call`]).
pub(crate) type OpFn = Box<dyn Fn(&mut Frame, &Arc<Vm>, u32) -> Step + Send + Sync>;

/// A method compiled to closure code. `rir` is the allocated register IR
/// the closures were built from — kept for the observer (which records
/// per-opcode attribution from it), for exception dispatch and `leave`,
/// for [`crate::rir::print_rir`] listings, and for frame construction.
/// `ops` has one closure per slot: fewer than `rir.code` has instructions
/// where pairs fused.
pub struct CompiledMethod {
    /// The allocated RIR backing the closures.
    pub rir: Arc<RirMethod>,
    pub(crate) ops: Box<[OpFn]>,
}

impl std::fmt::Debug for CompiledMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledMethod")
            .field("rir", &self.rir)
            .field("ops", &self.ops.len())
            .finish()
    }
}
