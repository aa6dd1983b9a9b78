//! The direct-threaded execution engine.
//!
//! Runs [`crate::rir::compile::CompiledMethod`] code: a flat array of
//! pre-resolved closures, one per RIR instruction, produced by
//! [`crate::rir::compile`]. Where [`crate::exec`] re-decodes each
//! instruction on every execution (a 40-way `match` per operation — the
//! interpretive dispatch cost the paper's JITs don't pay), this loop
//! fetches `ops[pc]` and calls it: operands, immediates, literals and
//! class layouts were all resolved at translation time, so the per-op work
//! is the operation itself plus one indirect call. Everything around the
//! dispatch — the split enregistered/spill frame, exception dispatch,
//! `leave`/`finally` protocol, raise helpers and internal-error strings —
//! is shared with or mirrored from the exec tier, keeping the two bitwise
//! interchangeable under the conformance matrix while differing *only* in
//! dispatch and slot-allocation strategy.
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

use crate::error::{VmError, VmResult};
use crate::exec::{loc_to_dst, Flow, Frame, RunEnd};
use crate::machine::Vm;
use crate::rir::compile::CompiledMethod;
use hpcnet_cil::module::{EhKind, MethodId};
use hpcnet_runtime::{Obj, Value};
use std::sync::Arc;

/// Entry point used by [`Vm::invoke`] for threaded-tier profiles.
pub(crate) fn call(
    vm: &Arc<Vm>,
    method: MethodId,
    args: Vec<Value>,
    depth: u32,
) -> VmResult<Option<Value>> {
    let code = vm.threaded(method)?;
    let mut fr = Frame::new(&code.rir);
    for (v, loc) in args.into_iter().zip(code.rir.arg_locs.iter().copied()) {
        fr.store_value(&loc_to_dst(loc), v);
    }
    let mut ex = Threaded {
        vm,
        code: &code,
        fr,
        depth,
        // The observe level is fixed at Vm construction, so the check can
        // be hoisted out of the dispatch loop.
        observing: vm.observer.enabled(),
    };
    match ex.run(0, None)? {
        RunEnd::Return(v) => Ok(v),
        RunEnd::EndFinally => Err(VmError::Internal("endfinally outside handler".into())),
    }
}

struct Threaded<'v> {
    vm: &'v Arc<Vm>,
    code: &'v CompiledMethod,
    fr: Frame,
    depth: u32,
    observing: bool,
}

impl<'v> Threaded<'v> {
    fn internal<T>(&self, msg: &str) -> VmResult<T> {
        // Same shape as the other engines' internal errors: every tier must
        // render an identical string for an identical failure.
        Err(VmError::Internal(format!(
            "{} in {}",
            msg,
            self.vm.module.method(self.code.rir.method).name
        )))
    }

    /// The threaded dispatch loop. Same contract as `exec::Exec::run`:
    /// with `finally_bound = Some(handler range)` the run is executing a
    /// finally handler in-frame — an `endfinally` terminates it, and
    /// exception dispatch is restricted to regions nested inside the
    /// handler so the *enclosing* run performs any outer dispatch.
    fn run(&mut self, entry: u32, finally_bound: Option<(u32, u32)>) -> VmResult<RunEnd> {
        let mut pc = entry;
        loop {
            if self.observing {
                self.vm
                    .observer
                    .record_exec_op(self.code.rir.method, &self.code.rir.code[pc as usize]);
            }
            match (self.code.ops[pc as usize])(&mut self.fr, self.vm, self.depth) {
                Ok(Flow::Next) => pc += 1,
                Ok(Flow::Jump(t)) => {
                    // Fuel: one unit per taken branch (see `Vm::set_fuel`)
                    // — same charge points as the interpreter tier.
                    self.vm.charge_fuel()?;
                    pc = t;
                }
                Ok(Flow::Return(v)) => return Ok(RunEnd::Return(v)),
                Ok(Flow::EndFinally) => {
                    if finally_bound.is_some() {
                        return Ok(RunEnd::EndFinally);
                    }
                    return self.internal("endfinally outside handler");
                }
                Ok(Flow::Leave(target)) => {
                    match self.run_leave_finallys(pc, target, finally_bound)? {
                        Some(handler_pc) => pc = handler_pc,
                        None => pc = target,
                    }
                }
                Err(VmError::Exception(exc)) => {
                    pc = self.dispatch_exception(pc, exc, finally_bound)?;
                }
                Err(other) => return Err(other),
            }
        }
    }

    /// Run the finally handlers exited by `leave pc -> target`. Returns
    /// `Some(handler_pc)` when a finally threw and an enclosing catch takes
    /// over (the exception search restarts from the faulting handler, per
    /// CLI semantics).
    fn run_leave_finallys(
        &mut self,
        pc: u32,
        target: u32,
        bound: Option<(u32, u32)>,
    ) -> VmResult<Option<u32>> {
        let regions: Vec<(u32, u32)> = self
            .code
            .rir
            .eh
            .iter()
            .filter(|r| {
                matches!(r.kind, EhKind::Finally)
                    && r.covers(pc)
                    && !(r.try_start <= target && target < r.try_end)
            })
            .map(|r| (r.handler_start, r.handler_end))
            .collect();
        for (hs, he) in regions {
            match self.run(hs, Some((hs, he))) {
                Ok(RunEnd::EndFinally) => {}
                Ok(RunEnd::Return(_)) => return self.internal("return inside finally"),
                Err(VmError::Exception(exc)) => {
                    return self.dispatch_exception(hs, exc, bound).map(Some)
                }
                Err(other) => return Err(other),
            }
        }
        Ok(None)
    }

    /// Find a handler for `exc` thrown at `pc`; runs intervening finallys.
    /// With `bound`, only regions nested inside that handler range are
    /// eligible (dispatch from inside a finally handler must not escape it).
    fn dispatch_exception(
        &mut self,
        pc: u32,
        mut exc: Obj,
        bound: Option<(u32, u32)>,
    ) -> VmResult<u32> {
        for (i, r) in self.code.rir.eh.iter().enumerate() {
            if !r.covers(pc) {
                continue;
            }
            if let Some((lo, hi)) = bound {
                if r.try_start < lo || r.handler_end > hi {
                    continue;
                }
            }
            match r.kind {
                EhKind::Catch(class) => {
                    if self.vm.instance_of(&exc, class) {
                        if self.observing {
                            self.vm.observer.eh_dispatch(
                                self.code.rir.method,
                                crate::observe::EhDispatchKind::Catch,
                            );
                        }
                        let slot = self.code.rir.eh_exc_slots[i];
                        self.fr.rset(slot, Some(exc));
                        return Ok(r.handler_start);
                    }
                }
                EhKind::Finally => {
                    if self.observing {
                        self.vm.observer.eh_dispatch(
                            self.code.rir.method,
                            crate::observe::EhDispatchKind::Finally,
                        );
                    }
                    match self.run(r.handler_start, Some((r.handler_start, r.handler_end))) {
                        Ok(RunEnd::EndFinally) => {}
                        Ok(RunEnd::Return(_)) => return self.internal("return inside finally"),
                        // An exception raised inside the finally replaces
                        // the one in flight (CLI semantics).
                        Err(VmError::Exception(newer)) => exc = newer,
                        Err(other) => return Err(other),
                    }
                }
            }
        }
        if self.observing {
            self.vm
                .observer
                .eh_dispatch(self.code.rir.method, crate::observe::EhDispatchKind::FaultPath);
        }
        Err(VmError::Exception(exc))
    }
}
