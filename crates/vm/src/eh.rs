//! Exception dispatch, once for both tiers. A tier's run loop (the
//! interpreter's, `call.rs`'s for the register tiers) executes its own
//! instructions and calls here on a `leave`, on a `ret` or `endfinally`
//! (each an error on the wrong side of a finally handler) and on a raised
//! managed exception; it supplies what differs through [`EhFrame`].
//!
//! Regions are ordered innermost first, so the first one in table order
//! that covers a pc is the innermost. A finally handler runs as a nested
//! run of the tier's loop bounded by its handler range: inside it only
//! regions wholly within the range are eligible, and anything else
//! propagates out for the enclosing run to dispatch (otherwise an
//! enclosing catch would run inside the finally's sub-run and a later
//! `ret` would falsely read as a return inside the finally).

use crate::error::{VmError, VmResult};
use crate::machine::Vm;
use crate::observe::EhDispatchKind;
use hpcnet_cil::module::{EhKind, EhRegion, MethodId};
use hpcnet_runtime::Obj;
use std::sync::Arc;

/// The handler range `(handler_start, handler_end)` of the finally a run
/// is executing in-frame; `None` for a method body.
pub(crate) type Bound = Option<(u32, u32)>;

/// What exception dispatch needs from one running activation of a tier.
pub(crate) trait EhFrame<'v> {
    fn vm(&self) -> &'v Arc<Vm>;
    fn method(&self) -> MethodId;
    /// The method's exception regions, innermost first.
    fn regions(&self) -> &'v [EhRegion];
    /// Run the finally handler `start..end` in this frame up to its
    /// `endfinally`, with dispatch bounded by that range.
    fn run_finally(&mut self, start: u32, end: u32) -> VmResult<()>;
    /// Hand `exc` to the catch handler of region `region`.
    fn bind(&mut self, region: usize, exc: Obj);

    /// An engine invariant broken in this method. Every tier renders an
    /// identical string for an identical failure.
    #[cold]
    #[inline(never)]
    fn internal<T>(&self, msg: &str) -> VmResult<T> {
        let name = &self.vm().module.method(self.method()).name;
        Err(VmError::Internal(format!("{msg} in {name}")))
    }
}

/// `ret` ends a method body; inside a finally handler it is an error.
#[inline(always)]
pub(crate) fn ret<'v>(f: &impl EhFrame<'v>, bound: Bound) -> VmResult<()> {
    match bound {
        None => Ok(()),
        Some(_) => f.internal("return inside finally"),
    }
}

/// `endfinally` ends a finally handler; outside one it is an error.
pub(crate) fn end_finally<'v>(f: &impl EhFrame<'v>, bound: Bound) -> VmResult<()> {
    match bound {
        Some(_) => Ok(()),
        None => f.internal("endfinally outside handler"),
    }
}

/// `leave pc -> target`: charge its fuel unit, run the finally handlers it
/// exits, innermost first, and return the pc to go on at: `target`, or a
/// catch handler's start when a finally threw (the exception replaces the
/// leave, and the search starts again from the faulting handler).
pub(crate) fn leave<'v>(
    f: &mut impl EhFrame<'v>,
    pc: u32,
    target: u32,
    bound: Bound,
) -> VmResult<u32> {
    f.vm().charge_fuel()?;
    let exited = f.regions().iter().filter(|r| {
        matches!(r.kind, EhKind::Finally)
            && r.covers(pc)
            && !(r.try_start <= target && target < r.try_end)
    });
    for r in exited {
        match f.run_finally(r.handler_start, r.handler_end) {
            Ok(()) => {}
            Err(VmError::Exception(exc)) => return dispatch(f, r.handler_start, exc, bound),
            Err(other) => return Err(other),
        }
    }
    Ok(target)
}

/// Find a handler for `exc` raised at `pc`, running the finallys on the
/// way, and return the catch handler's start; without one the exception
/// propagates. Entering a handler costs one fuel unit, and each entry (or
/// the propagation) is noted to an observing VM. An exception raised
/// inside a finally replaces the one in flight (CLI semantics).
pub(crate) fn dispatch<'v>(
    f: &mut impl EhFrame<'v>,
    pc: u32,
    mut exc: Obj,
    bound: Bound,
) -> VmResult<u32> {
    let (vm, method) = (f.vm(), f.method());
    let note = |kind| {
        if vm.observer.enabled() {
            vm.observer.eh_dispatch(method, kind);
        }
    };
    for (i, r) in f.regions().iter().enumerate() {
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
                if vm.instance_of(&exc, class) {
                    note(EhDispatchKind::Catch);
                    vm.charge_fuel()?;
                    f.bind(i, exc);
                    return Ok(r.handler_start);
                }
            }
            EhKind::Finally => {
                note(EhDispatchKind::Finally);
                vm.charge_fuel()?;
                match f.run_finally(r.handler_start, r.handler_end) {
                    Ok(()) => {}
                    Err(VmError::Exception(newer)) => exc = newer,
                    Err(other) => return Err(other),
                }
            }
        }
    }
    note(EhDispatchKind::FaultPath);
    Err(VmError::Exception(exc))
}
