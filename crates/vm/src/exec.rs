//! The decoding register tier.
//!
//! Runs [`RirMethod`] code produced by [`crate::rir`] by decoding each
//! [`RInst`] on every execution — a 40-way `match` per operation, the
//! interpretive dispatch cost the paper's JITs don't pay and
//! [`crate::compiled`] removes. That `match` is all this tier is: each arm
//! picks the instruction's body in `crate::ops` and passes it the
//! instruction's fields. The frame, the run loop around it and the call
//! edge are [`crate::call`]'s, shared with the closure tier.

use crate::call::{Frame, Receiver, RegTier, Step};
use crate::error::VmResult;
use crate::machine::Vm;
use crate::ops::{self, At, Layout};
use crate::rir::{ArgSlot, RInst, RirMethod};
use hpcnet_cil::module::MethodId;
use hpcnet_cil::{ElemKind, Intrinsic};
use std::sync::Arc;

/// [`crate::profile::Tier::Rir`]: the allocated RIR itself is the code.
pub(crate) struct Exec;

impl RegTier for Exec {
    type Code = RirMethod;
    type Op = RInst;

    fn code(vm: &Arc<Vm>, method: MethodId) -> VmResult<&RirMethod> {
        Ok(vm.rir_code(method)?)
    }

    fn rir(code: &RirMethod) -> &RirMethod {
        code
    }

    fn ops(code: &RirMethod) -> &[RInst] {
        &code.code
    }

    /// Decode `inst` and carry it out in `fr`. Not `#[inline]`: that would
    /// export every body it reaches, and calls to exported functions go
    /// through the GOT, the closure tier's included.
    fn step(inst: &RInst, fr: &mut Frame, vm: &Arc<Vm>, depth: u32) -> Step {
        match *inst {
            RInst::Nop => Step::NEXT,
            RInst::MovP { dst, src } => ops::mov_p(fr, dst, src),
            RInst::MovR { dst, src } => ops::mov_r(fr, dst, src),
            RInst::ConstP { dst, bits } => ops::const_p(fr, dst, bits),
            RInst::ConstNull { dst } => ops::const_ref(fr, dst, None),
            RInst::ConstStr { dst, s } => ops::const_ref(fr, dst, Some(vm.literal(s))),
            RInst::Bin { op, ty, dst, a, b } => ops::bin(fr, vm, depth, op, ty, dst, a, b),
            RInst::Un { op, ty, dst, a } => ops::un(fr, op, ty, dst, a),
            RInst::Conv { from, to, dst, src } => ops::conv(fr, from, to, dst, src),
            RInst::Cmp { op, ty, dst, a, b } => ops::cmp(fr, op, ty, dst, a, b),
            RInst::CmpRef { op, dst, a, b } => ops::cmp_ref(fr, op, dst, a, b),
            RInst::Br { t } => Step::jump(t),
            RInst::BrIf { cond, t, negate } => ops::br_if(fr, cond, t, negate),
            RInst::BrIfRef { cond, t, negate } => ops::br_if_ref(fr, cond, t, negate),
            RInst::BrCmp { op, ty, a, b, t } => ops::br_cmp(fr, op, ty, a, b, t),
            RInst::Call { target, virt, ref args, dst } => {
                let recv = Receiver::of_call(virt, vm.module.method(target).is_static);
                ops::call::<Exec>(fr, vm, depth, target, recv, args, dst)
            }
            RInst::CallIntr { i, ref args, dst } => match (i, &args[..]) {
                (Intrinsic::MonitorEnter, &[ArgSlot::R(s)]) => ops::monitor(fr, vm, depth, true, s),
                (Intrinsic::MonitorExit, &[ArgSlot::R(s)]) => ops::monitor(fr, vm, depth, false, s),
                _ => match ops::math_slots(vm, i, args, dst) {
                    Some((f, x, y, d)) => ops::math(fr, f, x, y, d),
                    None => ops::intrinsic(fr, vm, depth, i, args, dst),
                },
            },
            RInst::Ret { src } => ops::ret(fr, src),
            RInst::NewObj { ctor, ref args, dst } => {
                let layout = Layout::of(vm, ctor);
                ops::new_obj::<Exec>(fr, vm, depth, ctor, layout, args, dst)
            }
            RInst::LdFld { obj, slot, dst } => ops::ld_fld(fr, vm, depth, obj, slot, dst),
            RInst::StFld { obj, slot, src } => ops::st_fld(fr, vm, depth, obj, slot, src),
            RInst::LdSFld { slot, dst } => ops::ld_sfld(fr, vm, slot, dst),
            RInst::StSFld { slot, src } => ops::st_sfld(fr, vm, slot, src),
            RInst::IsInst { class, src, dst } => ops::is_inst(fr, vm, class, src, dst),
            RInst::CastClass { class, src, dst } => ops::cast_class(fr, vm, depth, class, src, dst),
            RInst::NewArr { kind, len, dst } => ops::new_arr(fr, vm, depth, kind, len, dst),
            RInst::LdLen { arr, dst } => ops::ld_len(fr, vm, depth, arr, dst),
            RInst::LdElem { kind, dst, .. } | RInst::LdElemMulti { kind, dst, .. }
                if !ops::loads_into(kind, dst) =>
            {
                ops::elem_kind_mismatch(fr)
            }
            RInst::LdElem { arr, idx, dst, bounds, .. } => {
                ops::ld_elem(fr, vm, depth, arr, At::Sz(idx, bounds.is_checked()), dst)
            }
            RInst::StElem { kind, arr, idx, src, bounds } => {
                let at = At::Sz(idx, bounds.is_checked());
                ops::st_elem(fr, vm, depth, arr, at, src, kind == ElemKind::U1)
            }
            RInst::NewMulti { kind, ref dims, dst } => {
                ops::new_multi(fr, vm, depth, kind, dims, dst)
            }
            RInst::LdElemMulti { arr, ref idxs, dst, helper, .. } => {
                ops::ld_elem(fr, vm, depth, arr, At::Multi(idxs, helper), dst)
            }
            RInst::StElemMulti { kind, arr, ref idxs, src, helper } => {
                let at = At::Multi(idxs, helper);
                ops::st_elem(fr, vm, depth, arr, at, src, kind == ElemKind::U1)
            }
            RInst::LdMultiLen { arr, dim, dst } => ops::ld_multi_len(fr, vm, depth, arr, dim, dst),
            RInst::BoxV { ty, src, dst } => ops::box_v(fr, vm, ty, src, dst),
            RInst::UnboxV { ty, src, dst } => ops::unbox_v(fr, vm, depth, ty, src, dst),
            RInst::Throw { src } => ops::throw(fr, vm, depth, src),
            RInst::Leave { t } => ops::leave(fr, t),
            RInst::EndFinally => ops::end_finally(fr),
        }
    }
}
