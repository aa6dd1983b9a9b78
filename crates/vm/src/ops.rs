//! One body per RIR instruction, run by both register tiers.
//!
//! Each function carries one [`crate::rir::RInst`] out on a [`Frame`]:
//! decoded operands in, a [`Step`] out, faults parked with
//! [`Frame::fail`]. [`crate::rir::compile`] calls them from the `run` of
//! op records built once per method, with what it could resolve then —
//! the op, the type, the operand kinds, checked or not, U1 masking —
//! passed as constants and the operands read from the record. Every
//! function is `#[inline(always)]`, so in such a `run` the branches on
//! those constants fold away and it is the code of its one case. `nop` and `br` have no body: they are [`Step::NEXT`]
//! and [`Step::jump`].
//!
//! Faults leave through two cold paths: [`trap`] raises a managed
//! exception, [`internal`] reports an engine invariant that failed (both
//! render the same string the interpreter does for the same failure).
//! Allocations and calls count into the frame's `Tally` (see
//! [`crate::call`]).
//!
//! Two kinds of intrinsic have a body of their own, which the record
//! builder picks when it builds the op, so no other intrinsic pays for the
//! distinction:
//! * `Monitor.Enter`/`Exit` on a reference slot, the `lock` statement's
//!   two intrinsics: [`monitor`] borrows the receiver where the generic
//!   [`intrinsic`] would copy it into a `Value`;
//! * a routine of the profile's math table whose operands and result sit
//!   in `float64` slots ([`math_slots`]): [`math`] applies it to the slot
//!   bits, with no `Value` built and no `Vm::intrinsic` match; the op's
//!   `run` is specialized to the intrinsic and loads the routine from the
//!   VM's math table.
//!
//! [`crate::interp`] keeps its own bodies on purpose: it is the oracle the
//! conformance matrix holds these against, and a bug shared with it would
//! go unseen.

use crate::call::{self, Exit, Frame, Receiver, Step};
use crate::error::{VmError, MULTI_TOO_LARGE, NOT_AN_INSTANCE};
use crate::machine::Vm;
use crate::numerics;
use crate::rir::{ArgSlot, DstSlot, Operand};
use hpcnet_cil::module::MethodId;
use hpcnet_cil::{BinOp, ClassId, CmpOp, ElemKind, Intrinsic, NumTy, UnOp};
use hpcnet_runtime::math::Routine;
use hpcnet_runtime::{HeapObj, Obj, ObjBody};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A managed exception an op raises.
#[derive(Clone, Copy)]
enum Trap {
    NullRef,
    IndexOob,
    InvalidCast,
    DivZero,
}

#[cold]
#[inline(never)]
fn trap(fr: &mut Frame, vm: &Arc<Vm>, depth: u32, t: Trap) -> Step {
    fr.fail(match t {
        Trap::NullRef => vm.raise_null_ref(depth),
        Trap::IndexOob => vm.raise_index_oob(depth),
        Trap::InvalidCast => vm.raise_invalid_cast(depth),
        Trap::DivZero => vm.raise_div_zero(depth),
    })
}

#[cold]
#[inline(never)]
fn internal(fr: &mut Frame, what: &str) -> Step {
    fr.fail(VmError::Internal(what.into()))
}

/// The object in reference slot `$s`, or leave with a
/// `NullReferenceException`.
macro_rules! non_null {
    ($fr:ident, $vm:ident, $depth:ident, $s:expr) => {
        match $fr.rref($s) {
            Some(o) => o,
            None => return trap($fr, $vm, $depth, Trap::NullRef),
        }
    };
}

// ---- moves and constants ----

#[inline(always)]
pub(crate) fn mov_p(fr: &mut Frame, dst: u16, src: u16) -> Step {
    let v = fr.pget(src);
    fr.pset(dst, v);
    Step::NEXT
}

#[inline(always)]
pub(crate) fn mov_r(fr: &mut Frame, dst: u16, src: u16) -> Step {
    let v = fr.rget(src);
    fr.rset(dst, v);
    Step::NEXT
}

#[inline(always)]
pub(crate) fn const_p(fr: &mut Frame, dst: u16, bits: u64) -> Step {
    fr.pset(dst, bits);
    Step::NEXT
}

/// `null` or a string literal.
#[inline(always)]
pub(crate) fn const_ref(fr: &mut Frame, dst: u16, v: Option<Obj>) -> Step {
    fr.rset(dst, v);
    Step::NEXT
}

// ---- arithmetic, compare, convert ----

#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn bin(
    fr: &mut Frame,
    vm: &Arc<Vm>,
    depth: u32,
    op: BinOp,
    ty: NumTy,
    dst: u16,
    a: u16,
    b: Operand,
) -> Step {
    let (x, y) = (fr.pget(a), fr.operand(&b));
    let out = match ty {
        NumTy::I4 => match numerics::bin_i4(op, x as u32 as i32, y as u32 as i32) {
            Ok(v) => v as u32 as u64,
            Err(_) => return trap(fr, vm, depth, Trap::DivZero),
        },
        NumTy::I8 => match numerics::bin_i8(op, x as i64, y as i64) {
            Ok(v) => v as u64,
            Err(_) => return trap(fr, vm, depth, Trap::DivZero),
        },
        NumTy::R4 => {
            let (x, y) = (f32::from_bits(x as u32), f32::from_bits(y as u32));
            numerics::bin_r4(op, x, y).to_bits() as u64
        }
        NumTy::R8 => numerics::bin_r8(op, f64::from_bits(x), f64::from_bits(y)).to_bits(),
    };
    fr.pset(dst, out);
    Step::NEXT
}

#[inline(always)]
pub(crate) fn un(fr: &mut Frame, op: UnOp, ty: NumTy, dst: u16, a: u16) -> Step {
    let x = fr.pget(a);
    let out = match ty {
        NumTy::I4 => numerics::un_i4(op, x as u32 as i32) as u32 as u64,
        NumTy::I8 => numerics::un_i8(op, x as i64) as u64,
        NumTy::R4 => (-f32::from_bits(x as u32)).to_bits() as u64,
        NumTy::R8 => (-f64::from_bits(x)).to_bits(),
    };
    fr.pset(dst, out);
    Step::NEXT
}

#[inline(always)]
pub(crate) fn conv(fr: &mut Frame, from: NumTy, to: NumTy, dst: u16, src: u16) -> Step {
    let v = numerics::conv_bits(from, to, fr.pget(src));
    fr.pset(dst, v);
    Step::NEXT
}

#[inline(always)]
pub(crate) fn cmp(fr: &mut Frame, op: CmpOp, ty: NumTy, dst: u16, a: u16, b: Operand) -> Step {
    let r = numerics::cmp_bits(op, ty, fr.pget(a), fr.operand(&b));
    fr.pset(dst, r as u32 as u64);
    Step::NEXT
}

/// Reference identity; only `Eq` and `Ne` exist.
#[inline(always)]
pub(crate) fn cmp_ref(fr: &mut Frame, op: CmpOp, dst: u16, a: u16, b: u16) -> Step {
    let same = match (fr.rref(a), fr.rref(b)) {
        (Some(x), Some(y)) => Obj::ptr_eq(x, y),
        (None, None) => true,
        _ => false,
    };
    let r = match op {
        CmpOp::Eq => same,
        CmpOp::Ne => !same,
        _ => return internal(fr, "ordered ref compare"),
    };
    fr.pset(dst, r as u64);
    Step::NEXT
}

// ---- branches ----

#[inline(always)]
pub(crate) fn br_if(fr: &mut Frame, cond: u16, t: u32, negate: bool) -> Step {
    if (fr.pget(cond) != 0) != negate {
        Step::jump(t)
    } else {
        Step::NEXT
    }
}

#[inline(always)]
pub(crate) fn br_if_ref(fr: &mut Frame, cond: u16, t: u32, negate: bool) -> Step {
    if fr.rref(cond).is_some() != negate {
        Step::jump(t)
    } else {
        Step::NEXT
    }
}

#[inline(always)]
pub(crate) fn br_cmp(fr: &mut Frame, op: CmpOp, ty: NumTy, a: u16, b: Operand, t: u32) -> Step {
    if numerics::cmp_bits(op, ty, fr.pget(a), fr.operand(&b)) != 0 {
        Step::jump(t)
    } else {
        Step::NEXT
    }
}

// ---- calls, allocation, control transfer ----

/// `call`/`callvirt` through the shared call edge.
#[inline(always)]
pub(crate) fn call(
    fr: &mut Frame,
    vm: &Arc<Vm>,
    depth: u32,
    target: MethodId,
    recv: Receiver,
    args: &[ArgSlot],
    dst: Option<DstSlot>,
) -> Step {
    match call::invoke(vm, fr, target, recv, args, dst, depth) {
        Ok(()) => Step::NEXT,
        Err(e) => fr.fail(e),
    }
}

#[inline(always)]
pub(crate) fn intrinsic(
    fr: &mut Frame,
    vm: &Arc<Vm>,
    depth: u32,
    i: Intrinsic,
    args: &[ArgSlot],
    dst: Option<DstSlot>,
) -> Step {
    match call::intrinsic(vm, fr, i, args, dst, depth) {
        Ok(()) => Step::NEXT,
        Err(e) => fr.fail(e),
    }
}

/// `Monitor.Enter` (`enter`) or `Monitor.Exit` of the object in `obj`.
#[inline(always)]
pub(crate) fn monitor(fr: &mut Frame, vm: &Arc<Vm>, depth: u32, enter: bool, obj: u16) -> Step {
    let o = fr.rref(obj);
    let done = if enter {
        vm.monitor_enter(o, depth)
    } else {
        vm.monitor_exit(o, depth)
    };
    match done {
        Ok(()) => Step::NEXT,
        Err(e) => fr.fail(e),
    }
}

/// The routine of `vm`'s math table that carries out `i`, with its operand
/// slots `(x, y)` and destination slot — if the operands and the result
/// sit in `float64` slots. A unary routine's `y` is its `x`.
#[inline]
pub(crate) fn math_slots(
    vm: &Vm,
    i: Intrinsic,
    args: &[ArgSlot],
    dst: Option<DstSlot>,
) -> Option<(Routine, u16, u16, u16)> {
    let f = vm.math.routine(i)?;
    let (x, y) = match (f, args) {
        (Routine::Unary(_), &[ArgSlot::P(NumTy::R8, x)]) => (x, x),
        (Routine::Binary(_), &[ArgSlot::P(NumTy::R8, x), ArgSlot::P(NumTy::R8, y)]) => (x, y),
        _ => return None,
    };
    match dst {
        Some(DstSlot::P(d)) => Some((f, x, y, d)),
        _ => None,
    }
}

/// A math routine on the bits of slots `x` (and `y`) into slot `dst`.
#[inline(always)]
pub(crate) fn math(fr: &mut Frame, f: Routine, x: u16, y: u16, dst: u16) -> Step {
    let x = f64::from_bits(fr.pget(x));
    let r = match f {
        Routine::Unary(f) => f(x),
        Routine::Binary(f) => f(x, f64::from_bits(fr.pget(y))),
    };
    fr.pset(dst, r.to_bits());
    Step::NEXT
}

/// The instance layout of the class a constructor builds.
#[derive(Clone, Copy)]
pub(crate) struct Layout {
    class: ClassId,
    n_prim: usize,
    n_ref: usize,
}

impl Layout {
    pub(crate) fn of(vm: &Vm, ctor: MethodId) -> Layout {
        let class = vm.module.method(ctor).owner;
        let cd = vm.module.class(class);
        Layout {
            class,
            n_prim: cd.n_prim_slots as usize,
            n_ref: cd.n_ref_slots as usize,
        }
    }
}

/// `newobj`: allocate, run the constructor on the fresh object, store it.
#[inline(always)]
pub(crate) fn new_obj(
    fr: &mut Frame,
    vm: &Arc<Vm>,
    depth: u32,
    ctor: MethodId,
    layout: Layout,
    args: &[ArgSlot],
    dst: u16,
) -> Step {
    let body = HeapObj::new_instance(layout.class, layout.n_prim, layout.n_ref);
    let obj = vm.heap.adopt(body, &mut fr.tally.allocs);
    let this = Receiver::Fresh(obj.clone());
    if let Err(e) = call::invoke(vm, fr, ctor, this, args, None, depth) {
        return fr.fail(e);
    }
    fr.rset(dst, Some(obj));
    Step::NEXT
}

#[inline(always)]
pub(crate) fn ret(fr: &mut Frame, src: Option<ArgSlot>) -> Step {
    let v = src.map(|a| fr.load_value(&a));
    fr.ret(v)
}

#[inline(always)]
pub(crate) fn throw(fr: &mut Frame, vm: &Arc<Vm>, depth: u32, src: u16) -> Step {
    let Some(o) = fr.rget(src) else {
        return trap(fr, vm, depth, Trap::NullRef);
    };
    vm.note_throw(depth);
    fr.fail(VmError::Exception(o))
}

#[inline(always)]
pub(crate) fn leave(fr: &mut Frame, t: u32) -> Step {
    fr.exit(Exit::Leave(t))
}

#[inline(always)]
pub(crate) fn end_finally(fr: &mut Frame) -> Step {
    fr.exit(Exit::EndFinally)
}

// ---- fields, statics, type tests, boxing ----

#[inline(always)]
pub(crate) fn ld_fld(
    fr: &mut Frame,
    vm: &Arc<Vm>,
    depth: u32,
    obj: u16,
    slot: u32,
    dst: DstSlot,
) -> Step {
    let o = non_null!(fr, vm, depth, obj);
    match dst {
        DstSlot::P(d) => match o.prim_field(slot) {
            Some(bits) => fr.pset(d, bits),
            None => return internal(fr, NOT_AN_INSTANCE),
        },
        DstSlot::R(d) => match o.ref_field(slot) {
            Some(v) => fr.rset(d, v),
            None => return internal(fr, NOT_AN_INSTANCE),
        },
    }
    Step::NEXT
}

/// The stored value is read before the receiver's null check.
#[inline(always)]
pub(crate) fn st_fld(
    fr: &mut Frame,
    vm: &Arc<Vm>,
    depth: u32,
    obj: u16,
    slot: u32,
    src: ArgSlot,
) -> Step {
    let stored = match src {
        ArgSlot::P(_, s) => {
            let bits = fr.pget(s);
            non_null!(fr, vm, depth, obj).set_prim_field(slot, bits)
        }
        ArgSlot::R(s) => {
            let v = fr.rget(s);
            non_null!(fr, vm, depth, obj).set_ref_field(slot, v)
        }
    };
    match stored {
        Some(()) => Step::NEXT,
        None => internal(fr, NOT_AN_INSTANCE),
    }
}

#[inline(always)]
pub(crate) fn ld_sfld(fr: &mut Frame, vm: &Arc<Vm>, slot: u32, dst: DstSlot) -> Step {
    match dst {
        DstSlot::P(d) => {
            let bits = vm.statics.prim[slot as usize].load(Ordering::Relaxed);
            fr.pset(d, bits);
        }
        DstSlot::R(d) => {
            let v = vm.statics.refs[slot as usize].get();
            fr.rset(d, v);
        }
    }
    Step::NEXT
}

#[inline(always)]
pub(crate) fn st_sfld(fr: &mut Frame, vm: &Arc<Vm>, slot: u32, src: ArgSlot) -> Step {
    match src {
        ArgSlot::P(_, s) => vm.statics.prim[slot as usize].store(fr.pget(s), Ordering::Relaxed),
        ArgSlot::R(s) => vm.statics.refs[slot as usize].set(fr.rget(s)),
    }
    Step::NEXT
}

#[inline(always)]
pub(crate) fn is_inst(fr: &mut Frame, vm: &Arc<Vm>, class: ClassId, src: u16, dst: u16) -> Step {
    let r = fr.rref(src).is_some_and(|o| vm.instance_of(o, class));
    fr.pset(dst, r as u64);
    Step::NEXT
}

#[inline(always)]
pub(crate) fn cast_class(
    fr: &mut Frame,
    vm: &Arc<Vm>,
    depth: u32,
    class: ClassId,
    src: u16,
    dst: u16,
) -> Step {
    let v = fr.rget(src);
    if v.as_ref().is_some_and(|o| !vm.instance_of(o, class)) {
        return trap(fr, vm, depth, Trap::InvalidCast);
    }
    fr.rset(dst, v);
    Step::NEXT
}

#[inline(always)]
pub(crate) fn box_v(fr: &mut Frame, vm: &Arc<Vm>, ty: NumTy, src: u16, dst: u16) -> Step {
    let body = HeapObj::new_boxed(ty, fr.pget(src));
    let o = vm.heap.adopt(body, &mut fr.tally.allocs);
    fr.rset(dst, Some(o));
    Step::NEXT
}

#[inline(always)]
pub(crate) fn unbox_v(
    fr: &mut Frame,
    vm: &Arc<Vm>,
    depth: u32,
    ty: NumTy,
    src: u16,
    dst: u16,
) -> Step {
    match non_null!(fr, vm, depth, src).body {
        ObjBody::Boxed { ty: t2, bits } if t2 == ty => fr.pset(dst, bits),
        _ => return trap(fr, vm, depth, Trap::InvalidCast),
    }
    Step::NEXT
}

// ---- arrays ----
//
// An element access runs, in this order: the null check, the bounds check
// (a checked SZ access, every multidimensional one), the storage-kind check
// (an `object` reference can name an array of another kind), then for a
// store the U1 mask and `mark_dirty`, and last the access itself. An
// access the optimizer declared in bounds that is not is an engine error.

#[inline(always)]
pub(crate) fn new_arr(
    fr: &mut Frame,
    vm: &Arc<Vm>,
    depth: u32,
    kind: ElemKind,
    len: u16,
    dst: u16,
) -> Step {
    let n = fr.pget(len) as u32 as i32;
    if n < 0 {
        return trap(fr, vm, depth, Trap::IndexOob);
    }
    let body = HeapObj::new_array(kind, n as usize);
    let arr = vm.heap.adopt(body, &mut fr.tally.allocs);
    fr.rset(dst, Some(arr));
    Step::NEXT
}

#[inline(always)]
pub(crate) fn ld_len(fr: &mut Frame, vm: &Arc<Vm>, depth: u32, arr: u16, dst: u16) -> Step {
    let Some(n) = non_null!(fr, vm, depth, arr).array_len() else {
        return internal(fr, "ldlen on non-array");
    };
    fr.pset(dst, n as u64);
    Step::NEXT
}

#[inline(always)]
pub(crate) fn new_multi(
    fr: &mut Frame,
    vm: &Arc<Vm>,
    depth: u32,
    kind: ElemKind,
    dims: &[u16],
    dst: u16,
) -> Step {
    let mut lens = Vec::with_capacity(dims.len());
    for &d in dims {
        let n = fr.pget(d) as u32 as i32;
        if n < 0 {
            return trap(fr, vm, depth, Trap::IndexOob);
        }
        lens.push(n as u32);
    }
    let Some(body) = HeapObj::new_multi(kind, &lens) else {
        return fr.fail(VmError::Limit(MULTI_TOO_LARGE.into()));
    };
    let arr = vm.heap.adopt(body, &mut fr.tally.allocs);
    fr.rset(dst, Some(arr));
    Step::NEXT
}

#[inline(always)]
pub(crate) fn ld_multi_len(
    fr: &mut Frame,
    vm: &Arc<Vm>,
    depth: u32,
    arr: u16,
    dim: u8,
    dst: u16,
) -> Step {
    let Some(dims) = non_null!(fr, vm, depth, arr).multi_dims() else {
        return internal(fr, "GetLength on non-multi");
    };
    let Some(&n) = dims.get(dim as usize) else {
        return trap(fr, vm, depth, Trap::IndexOob);
    };
    fr.pset(dst, n as u64);
    Step::NEXT
}

/// Can a load of `kind` write `dst`? The RIR lowering makes it so; the
/// record builder checks it where it picks the body, and takes
/// [`elem_kind_mismatch`] otherwise.
#[inline(always)]
pub(crate) fn loads_into(kind: ElemKind, dst: DstSlot) -> bool {
    kind.num_ty().is_some() == matches!(dst, DstSlot::P(_))
}

#[cold]
pub(crate) fn elem_kind_mismatch(fr: &mut Frame) -> Step {
    internal(fr, "elem kind mismatch")
}

/// Where an element access lands, as its instruction names it.
#[derive(Clone, Copy)]
pub(crate) enum At<'a> {
    /// An SZ index slot, and whether its bounds check survived.
    Sz(u16, bool),
    /// Multidimensional index slots, located by the helper accessor.
    Multi(&'a [u16]),
}

/// The indices an [`At`] names, read before the array is touched.
enum Index {
    Sz(i32, bool),
    Multi([i32; 3], usize),
}

impl At<'_> {
    #[inline(always)]
    fn read(self, fr: &Frame) -> Index {
        match self {
            At::Sz(idx, checked) => Index::Sz(fr.pget(idx) as u32 as i32, checked),
            At::Multi(idxs) => {
                let mut vals = [0i32; 3];
                for (v, &s) in vals.iter_mut().zip(idxs) {
                    *v = fr.pget(s) as u32 as i32;
                }
                Index::Multi(vals, idxs.len())
            }
        }
    }
}

impl Index {
    /// The flat element offset in `o`, bounds-checked where the access
    /// is; `None` is out of range. The verifier bounds the rank by 3: a
    /// longer index list reads as out of range.
    #[inline(always)]
    fn offset(&self, o: &Obj) -> Option<usize> {
        match *self {
            Index::Sz(i, checked) => {
                if checked && (i < 0 || i as usize >= o.array_len().unwrap_or(0)) {
                    return None;
                }
                Some(i as usize)
            }
            Index::Multi(ref vals, rank) => multi_helper(o, vals.get(..rank)?),
        }
    }
}

/// The array in slot `$arr` and the offset `$ix` names in it, or leave
/// with a `NullReferenceException` / `IndexOutOfRangeException`.
macro_rules! locate {
    ($fr:ident, $vm:ident, $depth:ident, $arr:expr, $ix:expr) => {{
        let o = non_null!($fr, $vm, $depth, $arr);
        match $ix.offset(o) {
            Some(i) => (o, i),
            None => return trap($fr, $vm, $depth, Trap::IndexOob),
        }
    }};
}

/// The element slice `$data` (`prim_data()` / `ref_data()`), or leave
/// with an `InvalidCastException`: the array stores the other kind.
macro_rules! of_kind {
    ($fr:ident, $vm:ident, $depth:ident, $data:expr) => {
        match $data {
            Some(d) => d,
            None => return trap($fr, $vm, $depth, Trap::InvalidCast),
        }
    };
}

#[cold]
fn unchecked_oob(fr: &mut Frame) -> Step {
    internal(fr, "unchecked access out of bounds")
}

/// `ldelem` / `ldmelem` into `dst` (see [`loads_into`]).
#[inline(always)]
pub(crate) fn ld_elem(
    fr: &mut Frame,
    vm: &Arc<Vm>,
    depth: u32,
    arr: u16,
    at: At,
    dst: DstSlot,
) -> Step {
    let ix = at.read(fr);
    let (o, i) = locate!(fr, vm, depth, arr, ix);
    match dst {
        DstSlot::P(d) => {
            let Some(cell) = of_kind!(fr, vm, depth, o.prim_data()).get(i) else {
                return unchecked_oob(fr);
            };
            let bits = cell.load(Ordering::Relaxed);
            fr.pset(d, bits);
        }
        DstSlot::R(d) => {
            let Some(cell) = of_kind!(fr, vm, depth, o.ref_data()).get(i) else {
                return unchecked_oob(fr);
            };
            let v = cell.get();
            fr.rset(d, v);
        }
    }
    Step::NEXT
}

/// `stelem` / `stmelem` from `src`; `mask` keeps the low byte (`U1`).
#[inline(always)]
pub(crate) fn st_elem(
    fr: &mut Frame,
    vm: &Arc<Vm>,
    depth: u32,
    arr: u16,
    at: At,
    src: ArgSlot,
    mask: bool,
) -> Step {
    let ix = at.read(fr);
    match src {
        ArgSlot::P(_, s) => {
            let bits = fr.pget(s);
            let (o, i) = locate!(fr, vm, depth, arr, ix);
            let data = of_kind!(fr, vm, depth, o.prim_data());
            let bits = if mask { bits & 0xFF } else { bits };
            o.mark_dirty();
            let Some(cell) = data.get(i) else {
                return unchecked_oob(fr);
            };
            cell.store(bits, Ordering::Relaxed);
        }
        ArgSlot::R(s) => {
            let v = fr.rget(s);
            let (o, i) = locate!(fr, vm, depth, arr, ix);
            let data = of_kind!(fr, vm, depth, o.ref_data());
            o.mark_dirty();
            let Some(cell) = data.get(i) else {
                return unchecked_oob(fr);
            };
            cell.set(v);
        }
    }
    Step::NEXT
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
        // SAFETY: `slot` is a `&mut i32` into `frame`: valid and aligned.
        unsafe { std::ptr::write_volatile(slot, i) };
    }
    let dims = std::hint::black_box(o.multi_dims()?);
    if dims.len() != idxs.len() {
        return None;
    }
    for (k, &d) in dims.iter().enumerate() {
        // SAFETY: `&frame[k]` is a bounds-checked reference to an
        // initialized `i32` (`k < dims.len() == idxs.len() <= 3`).
        let i = unsafe { std::ptr::read_volatile(&frame[k]) };
        if i < 0 || std::hint::black_box(i as u32) >= d {
            return None;
        }
    }
    std::hint::black_box(o.multi_offset(idxs))
}
