//! The register-tier execution engine.
//!
//! Runs [`RirMethod`] code produced by [`crate::rir`] by decoding each
//! [`RInst`] on every execution — a 40-way `match` per operation, the
//! interpretive dispatch cost the paper's JITs don't pay and
//! [`crate::compiled`] removes. The frame, the run loop around the decode
//! and the call edge are [`crate::call`]'s, shared with that tier.

use crate::call::{self, Exit, Frame, Receiver, RegTier, Step};
use crate::error::{VmError, VmResult};
use crate::machine::Vm;
use crate::numerics;
use crate::rir::{ArgSlot, DstSlot, RInst, RirMethod};
use hpcnet_cil::module::MethodId;
use hpcnet_cil::{CmpOp, ElemKind, NumTy};
use hpcnet_runtime::{Obj, Value};
use std::sync::atomic::Ordering;
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

    #[inline]
    fn step(inst: &RInst, fr: &mut Frame, vm: &Arc<Vm>, depth: u32) -> Step {
        match Exec::decode(inst, fr, vm, depth) {
            Ok(Flow::Next) => Step::NEXT,
            Ok(Flow::Jump(t)) => Step::jump(t),
            Ok(Flow::Return(v)) => fr.ret(v),
            Ok(Flow::Leave(t)) => fr.exit(Exit::Leave(t)),
            Ok(Flow::EndFinally) => fr.exit(Exit::EndFinally),
            Err(e) => fr.fail(e),
        }
    }
}

/// What [`Exec::decode`] hands back. Private to this tier: the decode is what
/// an op costs here, and its result is turned into a [`Step`] at once.
enum Flow {
    Next,
    Jump(u32),
    Return(Option<Value>),
    Leave(u32),
    EndFinally,
}

impl Exec {
    /// Decode `inst` and carry it out in `fr`.
    fn decode(inst: &RInst, fr: &mut Frame, vm: &Arc<Vm>, depth: u32) -> VmResult<Flow> {
        match inst {
            RInst::Nop => {}
            RInst::MovP { dst, src } => {
                let v = fr.pget(*src);
                fr.pset(*dst, v);
            }
            RInst::MovR { dst, src } => {
                let v = fr.rget(*src);
                fr.rset(*dst, v);
            }
            RInst::ConstP { dst, bits } => fr.pset(*dst, *bits),
            RInst::ConstNull { dst } => fr.rset(*dst, None),
            RInst::ConstStr { dst, s } => fr.rset(*dst, Some(vm.literal(*s))),
            RInst::Bin { op, ty, dst, a, b } => {
                let av = fr.pget(*a);
                let bv = fr.operand(b);
                let out = match ty {
                    NumTy::I4 => numerics::bin_i4(*op, av as u32 as i32, bv as u32 as i32)
                        .map(|v| v as u32 as u64),
                    NumTy::I8 => numerics::bin_i8(*op, av as i64, bv as i64).map(|v| v as u64),
                    NumTy::R4 => Ok(numerics::bin_r4(
                        *op,
                        f32::from_bits(av as u32),
                        f32::from_bits(bv as u32),
                    )
                    .to_bits() as u64),
                    NumTy::R8 => Ok(
                        numerics::bin_r8(*op, f64::from_bits(av), f64::from_bits(bv)).to_bits()
                    ),
                }
                .map_err(|_| vm.raise_div_zero(depth))?;
                fr.pset(*dst, out);
            }
            RInst::Un { op, ty, dst, a } => {
                let av = fr.pget(*a);
                let out = match ty {
                    NumTy::I4 => numerics::un_i4(*op, av as u32 as i32) as u32 as u64,
                    NumTy::I8 => numerics::un_i8(*op, av as i64) as u64,
                    NumTy::R4 => (-f32::from_bits(av as u32)).to_bits() as u64,
                    NumTy::R8 => (-f64::from_bits(av)).to_bits(),
                };
                fr.pset(*dst, out);
            }
            RInst::Conv { from, to, dst, src } => {
                let v = numerics::conv_bits(*from, *to, fr.pget(*src));
                fr.pset(*dst, v);
            }
            RInst::Cmp { op, ty, dst, a, b } => {
                let r = numerics::cmp_bits(*op, *ty, fr.pget(*a), fr.operand(b));
                fr.pset(*dst, r as u32 as u64);
            }
            RInst::CmpRef { op, dst, a, b } => {
                let av = fr.rget(*a);
                let bv = fr.rget(*b);
                let same = match (&av, &bv) {
                    (Some(x), Some(y)) => Obj::ptr_eq(x, y),
                    (None, None) => true,
                    _ => false,
                };
                let r = match op {
                    CmpOp::Eq => same,
                    CmpOp::Ne => !same,
                    _ => return Err(VmError::Internal("ordered ref compare".into())),
                };
                fr.pset(*dst, r as u64);
            }
            RInst::Br { t } => return Ok(Flow::Jump(*t)),
            RInst::BrIf { cond, t, negate } => {
                if (fr.pget(*cond) != 0) != *negate {
                    return Ok(Flow::Jump(*t));
                }
            }
            RInst::BrIfRef { cond, t, negate } => {
                if fr.rget(*cond).is_some() != *negate {
                    return Ok(Flow::Jump(*t));
                }
            }
            RInst::BrCmp { op, ty, a, b, t } => {
                if numerics::cmp_bits(*op, *ty, fr.pget(*a), fr.operand(b)) != 0 {
                    return Ok(Flow::Jump(*t));
                }
            }
            RInst::Call { target, virt, args, dst } => {
                let recv = Receiver::of_call(*virt, vm.module.method(*target).is_static);
                call::invoke::<Exec>(vm, fr, *target, recv, args, *dst, depth)?;
            }
            RInst::CallIntr { i, args, dst } => call::intrinsic(vm, fr, *i, args, *dst, depth)?,
            RInst::Ret { src } => {
                return Ok(Flow::Return(src.as_ref().map(|a| fr.load_value(a))));
            }
            RInst::NewObj { ctor, args, dst } => {
                let ctor_def = vm.module.method(*ctor);
                let class = vm.module.class(ctor_def.owner);
                let obj = vm.heap.alloc_instance(
                    ctor_def.owner,
                    class.n_prim_slots as usize,
                    class.n_ref_slots as usize,
                );
                call::invoke::<Exec>(vm, fr, *ctor, Receiver::Fresh(obj.clone()), args, None, depth)?;
                fr.rset(*dst, Some(obj));
            }
            RInst::LdFld { obj, slot, dst } => {
                match dst {
                    DstSlot::P(d) => {
                        let bits = match fr.rref(*obj) {
                            Some(o) => o.prim_field(*slot),
                            None => return Err(vm.raise_null_ref(depth)),
                        };
                        fr.pset(*d, bits);
                    }
                    DstSlot::R(d) => {
                        let v = match fr.rref(*obj) {
                            Some(o) => o.ref_field(*slot),
                            None => return Err(vm.raise_null_ref(depth)),
                        };
                        fr.rset(*d, v);
                    }
                }
            }
            RInst::StFld { obj, slot, src } => {
                match src {
                    ArgSlot::P(_, s) => {
                        let bits = fr.pget(*s);
                        match fr.rref(*obj) {
                            Some(o) => o.set_prim_field(*slot, bits),
                            None => return Err(vm.raise_null_ref(depth)),
                        }
                    }
                    ArgSlot::R(s) => {
                        let v = fr.rget(*s);
                        match fr.rref(*obj) {
                            Some(o) => o.set_ref_field(*slot, v),
                            None => return Err(vm.raise_null_ref(depth)),
                        }
                    }
                }
            }
            RInst::LdSFld { slot, dst } => match dst {
                DstSlot::P(d) => {
                    let bits = vm.statics.prim[*slot as usize].load(Ordering::Relaxed);
                    fr.pset(*d, bits);
                }
                DstSlot::R(d) => {
                    let v = vm.statics.refs[*slot as usize].get();
                    fr.rset(*d, v);
                }
            },
            RInst::StSFld { slot, src } => match src {
                ArgSlot::P(_, s) => {
                    vm.statics.prim[*slot as usize].store(fr.pget(*s), Ordering::Relaxed)
                }
                ArgSlot::R(s) => vm.statics.refs[*slot as usize].set(fr.rget(*s)),
            },
            RInst::IsInst { class, src, dst } => {
                let r = match fr.rget(*src) {
                    Some(o) => vm.instance_of(&o, *class),
                    None => false,
                };
                fr.pset(*dst, r as u64);
            }
            RInst::CastClass { class, src, dst } => {
                let v = fr.rget(*src);
                if let Some(o) = &v {
                    if !vm.instance_of(o, *class) {
                        return Err(vm.raise_invalid_cast(depth));
                    }
                }
                fr.rset(*dst, v);
            }
            RInst::NewArr { kind, len, dst } => {
                let n = fr.pget(*len) as u32 as i32;
                if n < 0 {
                    return Err(vm.raise_index_oob(depth));
                }
                let arr = vm.heap.alloc_array(*kind, n as usize);
                fr.rset(*dst, Some(arr));
            }
            RInst::LdLen { arr, dst } => {
                let n = match fr.rref(*arr) {
                    Some(o) => o
                        .array_len()
                        .ok_or_else(|| VmError::Internal("ldlen on non-array".into()))?,
                    None => return Err(vm.raise_null_ref(depth)),
                };
                fr.pset(*dst, n as u64);
            }
            RInst::LdElem { kind, arr, idx, dst, bounds } => {
                let i = fr.pget(*idx) as u32 as i32;
                let loaded = {
                    let o = fr.rref(*arr).ok_or_else(|| vm.raise_null_ref(depth))?;
                    if bounds.is_checked() {
                        let len = o.array_len().unwrap_or(0);
                        if i < 0 || i as usize >= len {
                            return Err(vm.raise_index_oob(depth));
                        }
                    }
                    elem_read(o, *kind, i as usize)?
                };
                write_loaded(fr, dst, loaded)?;
            }
            RInst::StElem { kind, arr, idx, src, bounds } => {
                let i = fr.pget(*idx) as u32 as i32;
                let val = read_src(fr, src);
                let o = fr.rref(*arr).ok_or_else(|| vm.raise_null_ref(depth))?;
                if bounds.is_checked() {
                    let len = o.array_len().unwrap_or(0);
                    if i < 0 || i as usize >= len {
                        return Err(vm.raise_index_oob(depth));
                    }
                }
                elem_write(o, *kind, i as usize, val)?;
            }
            RInst::NewMulti { kind, dims, dst } => {
                let mut lens = Vec::with_capacity(dims.len());
                for d in dims.iter() {
                    let n = fr.pget(*d) as u32 as i32;
                    if n < 0 {
                        return Err(vm.raise_index_oob(depth));
                    }
                    lens.push(n as u32);
                }
                let arr = vm.heap.alloc_multi(*kind, &lens);
                fr.rset(*dst, Some(arr));
            }
            RInst::LdElemMulti { kind, arr, idxs, dst, helper } => {
                let mut vals = [0i32; 3];
                for (k, s) in idxs.iter().enumerate() {
                    vals[k] = fr.pget(*s) as u32 as i32;
                }
                let loaded = {
                    let o = fr.rref(*arr).ok_or_else(|| vm.raise_null_ref(depth))?;
                    let off = multi_offset_of(o, &vals[..idxs.len()], *helper)
                        .ok_or_else(|| vm.raise_index_oob(depth))?;
                    elem_read(o, *kind, off)?
                };
                write_loaded(fr, dst, loaded)?;
            }
            RInst::StElemMulti { kind, arr, idxs, src, helper } => {
                let mut vals = [0i32; 3];
                for (k, s) in idxs.iter().enumerate() {
                    vals[k] = fr.pget(*s) as u32 as i32;
                }
                let val = read_src(fr, src);
                let o = fr.rref(*arr).ok_or_else(|| vm.raise_null_ref(depth))?;
                let off = multi_offset_of(o, &vals[..idxs.len()], *helper)
                    .ok_or_else(|| vm.raise_index_oob(depth))?;
                elem_write(o, *kind, off, val)?;
            }
            RInst::LdMultiLen { arr, dim, dst } => {
                let n = {
                    let o = fr.rref(*arr).ok_or_else(|| vm.raise_null_ref(depth))?;
                    let dims = o
                        .multi_dims()
                        .ok_or_else(|| VmError::Internal("GetLength on non-multi".into()))?;
                    *dims
                        .get(*dim as usize)
                        .ok_or_else(|| vm.raise_index_oob(depth))?
                };
                fr.pset(*dst, n as u64);
            }
            RInst::BoxV { ty, src, dst } => {
                let o = vm.heap.alloc_boxed(*ty, fr.pget(*src));
                fr.rset(*dst, Some(o));
            }
            RInst::UnboxV { ty, src, dst } => {
                let o = fr.rget(*src).ok_or_else(|| vm.raise_null_ref(depth))?;
                match &o.body {
                    hpcnet_runtime::ObjBody::Boxed { ty: t2, bits } if t2 == ty => {
                        fr.pset(*dst, *bits);
                    }
                    _ => return Err(vm.raise_invalid_cast(depth)),
                }
            }
            RInst::Throw { src } => {
                let o = fr.rget(*src).ok_or_else(|| vm.raise_null_ref(depth))?;
                vm.note_throw(depth);
                return Err(VmError::Exception(o));
            }
            RInst::Leave { t } => return Ok(Flow::Leave(*t)),
            RInst::EndFinally => return Ok(Flow::EndFinally),
        }
        Ok(Flow::Next)
    }
}

/// Store an element-read result into a destination slot.
#[inline]
fn write_loaded(fr: &mut Frame, dst: &DstSlot, l: Loaded) -> VmResult<()> {
    match (dst, l) {
        (DstSlot::P(d), Loaded::Bits(b)) => fr.pset(*d, b),
        (DstSlot::R(d), Loaded::Ref(v)) => fr.rset(*d, v),
        _ => return Err(VmError::Internal("elem kind mismatch".into())),
    }
    Ok(())
}

/// Read an element-store source from a slot.
#[inline]
fn read_src(fr: &Frame, src: &ArgSlot) -> Loaded {
    match src {
        ArgSlot::P(_, s) => Loaded::Bits(fr.pget(*s)),
        ArgSlot::R(s) => Loaded::Ref(fr.rget(*s)),
    }
}

/// An element value in transit (untagged bits or a reference).
pub(crate) enum Loaded {
    Bits(u64),
    Ref(Option<Obj>),
}

/// An elided bounds check that did not hold: the optimizer was unsound,
/// and both register tiers say so with the same string.
pub(crate) fn unchecked_oob() -> VmError {
    VmError::Internal("unchecked access out of bounds".into())
}

#[inline]
pub(crate) fn elem_read(o: &Obj, kind: ElemKind, idx: usize) -> VmResult<Loaded> {
    match kind.num_ty() {
        Some(_) => Ok(Loaded::Bits(
            o.prim_data()
                .get(idx)
                .ok_or_else(unchecked_oob)?
                .load(Ordering::Relaxed),
        )),
        None => Ok(Loaded::Ref(
            o.ref_data()
                .get(idx)
                .ok_or_else(unchecked_oob)?
                .get(),
        )),
    }
}

#[inline]
pub(crate) fn elem_write(o: &Obj, kind: ElemKind, idx: usize, val: Loaded) -> VmResult<()> {
    o.mark_dirty();
    match val {
        Loaded::Bits(mut bits) => {
            if kind == ElemKind::U1 {
                bits &= 0xFF;
            }
            o.prim_data()
                .get(idx)
                .ok_or_else(unchecked_oob)?
                .store(bits, Ordering::Relaxed);
        }
        Loaded::Ref(v) => {
            o.ref_data()
                .get(idx)
                .ok_or_else(unchecked_oob)?
                .set(v);
        }
    }
    Ok(())
}

/// Flat offset of a multidimensional access with per-dimension bounds
/// checks; the `helper` flavor is the uninlinable generic accessor.
#[inline]
pub(crate) fn multi_offset_of(o: &Obj, idxs: &[i32], helper: bool) -> Option<usize> {
    if helper {
        multi_helper(o, idxs)
    } else {
        o.multi_offset(idxs)
    }
}

/// The helper-call lowering of multidimensional access: re-reads the
/// dimension vector defensively, validates twice, and cannot be inlined —
/// modeling the generic accessor path.
#[inline(never)]
fn multi_helper(o: &Obj, idxs: &[i32]) -> Option<usize> {
    // Marshal the indices into a helper frame (the generic accessor takes
    // them boxed/by-array): real stores the optimizer cannot remove.
    let mut frame = [0i32; 4];
    for (slot, &i) in frame.iter_mut().zip(idxs.iter()) {
        unsafe { std::ptr::write_volatile(slot, i) };
    }
    let dims = std::hint::black_box(o.multi_dims()?);
    for (k, &d) in dims.iter().enumerate() {
        let i = unsafe { std::ptr::read_volatile(&frame[k]) };
        if i < 0 || std::hint::black_box(i as u32) >= d {
            return None;
        }
    }
    std::hint::black_box(o.multi_offset(idxs))
}
