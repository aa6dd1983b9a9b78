//! The direct-threaded execution engine.
//!
//! Runs [`crate::rir::compile::CompiledMethod`] code: a flat array of
//! pre-resolved closures, one per *slot*, produced by
//! [`crate::rir::compile`]. A slot is one RIR instruction or, on a VM
//! that is not observing, in a method without exception regions, a fused
//! pair of them (a constant and its consumer, a result and its move, a
//! move and a jump, a jump and the test it lands on), with branch targets
//! remapped to slots at build time. Where [`crate::exec`] re-decodes each
//! instruction on every execution (a 40-way `match` per operation — the
//! interpretive dispatch cost the paper's JITs don't pay), this loop
//! fetches `ops[pc]` and calls it: operands, immediates, literals and
//! class layouts were all resolved at translation time, so the per-op work
//! is the operation itself plus one indirect call that answers in a
//! register (`call::Step`). The operation itself is the exec tier's: each
//! closure calls its instruction's body in the shared `ops` module, with
//! the build-time constants folded in. Everything around the dispatch —
//! the split enregistered/spill frame, the run loop, exception dispatch,
//! the `leave`/`finally` protocol and the call edge — is
//! [`crate::call`]'s, the same code the exec tier runs, so the two differ
//! *only* in dispatch and slot-allocation strategy.
//!
//! Profiles select this engine with [`crate::profile::Tier::Compiled`];
//! [`crate::profile::VmProfile::clr11_compiled`] is the stock example.
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
//! // Any profile can be moved onto the threaded tier; the answer is the
//! // same as on every other engine, only the dispatch differs.
//! let profile = VmProfile::mono023().with_tier(Tier::Compiled);
//! let vm = Vm::new(mb.finish(), profile).unwrap();
//! let r = vm.invoke_by_name("P.Twice", vec![Value::I4(21)]).unwrap();
//! assert_eq!(r.unwrap().as_i4(), 42);
//! ```

use crate::call::{Frame, RegTier, Step};
use crate::error::VmResult;
use crate::machine::Vm;
use crate::rir::compile::{CompiledMethod, OpFn};
use crate::rir::RirMethod;
use hpcnet_cil::module::MethodId;
use std::sync::Arc;

/// [`crate::profile::Tier::Compiled`]: one pre-resolved closure per slot
/// (an instruction, or a fused pair of them).
pub(crate) struct Threaded;

impl RegTier for Threaded {
    type Code = CompiledMethod;
    type Op = OpFn;

    fn code(vm: &Arc<Vm>, method: MethodId) -> VmResult<&CompiledMethod> {
        Ok(vm.threaded_code(method)?)
    }

    fn rir(code: &CompiledMethod) -> &RirMethod {
        &code.rir
    }

    fn ops(code: &CompiledMethod) -> &[OpFn] {
        &code.ops
    }

    #[inline(always)]
    fn step(op: &OpFn, fr: &mut Frame, vm: &Arc<Vm>, depth: u32) -> Step {
        op(fr, vm, depth)
    }
}
