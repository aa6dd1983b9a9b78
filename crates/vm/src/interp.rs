//! The stack interpreter — the SSCLI 1.0 ("Rotor") execution tier.
//!
//! Rotor's JIT "is focused on portability instead of performance
//! optimization": every local lives in a memory slot and the generated code
//! mirrors the CIL almost one-to-one, including emulating `cdq` with loads
//! and shifts around signed division (paper Table 8). A direct stack
//! interpreter over the verified CIL is the faithful analog: one memory
//! traffic per stack cell, no register promotion, no optimization — and it
//! lands in the 5–10× band below the optimizing tiers exactly where the
//! paper places Rotor.
//!
//! The interpreter is also the semantic reference: differential tests
//! compare every optimizing tier against it.
//!
//! An activation counts the calls it makes and what it allocates into its
//! own `Tally` and settles it into the VM's totals when it ends.

use crate::call::Tally;
use crate::eh::{self, Bound, EhFrame};
use crate::error::{VmError, VmResult, MULTI_TOO_LARGE, NOT_AN_INSTANCE};
use crate::machine::Vm;
use crate::numerics;
use hpcnet_cil::module::{EhRegion, MethodId};
use hpcnet_cil::{BinOp, CilType, CmpOp, Op, UnOp};
use hpcnet_runtime::{HeapObj, Value};
use std::sync::Arc;

/// Entry point used by [`Vm::invoke`] for interpreter-tier profiles.
pub(crate) fn call(
    vm: &Arc<Vm>,
    method: MethodId,
    args: Vec<Value>,
    depth: u32,
) -> VmResult<Option<Value>> {
    let m = vm.module.method(method);
    debug_assert_eq!(args.len(), m.arg_count(), "{}", m.name);
    let locals = m
        .body
        .locals
        .iter()
        .map(|t| match t.num_ty() {
            Some(nt) => Value::zero(nt),
            None => Value::Null,
        })
        .collect();
    let mut frame = Interp {
        vm,
        method,
        args,
        locals,
        stack: Vec::with_capacity(m.body.max_stack as usize),
        depth,
        tally: Tally::default(),
    };
    let end = frame.run(0, None);
    vm.settle(&mut frame.tally);
    end
}

struct Interp<'v> {
    vm: &'v Arc<Vm>,
    method: MethodId,
    args: Vec<Value>,
    locals: Vec<Value>,
    stack: Vec<Value>,
    depth: u32,
    tally: Tally,
}

impl<'v> EhFrame<'v> for Interp<'v> {
    fn vm(&self) -> &'v Arc<Vm> {
        self.vm
    }

    fn method(&self) -> MethodId {
        self.method
    }

    fn regions(&self) -> &'v [EhRegion] {
        &self.vm.module.method(self.method).body.eh
    }

    /// A handler starts on an empty stack and leaves nothing on it.
    fn run_finally(&mut self, start: u32, end: u32) -> VmResult<()> {
        self.stack.clear();
        self.run(start, Some((start, end)))?;
        self.stack.clear();
        Ok(())
    }

    fn bind(&mut self, _region: usize, exc: hpcnet_runtime::Obj) {
        self.stack.clear();
        self.stack.push(Value::Ref(exc));
    }
}

impl<'v> Interp<'v> {
    /// Execute starting at `entry`: the method body (`bound = None`) until
    /// `ret`, or a finally handler run in-frame until its `endfinally`
    /// (see [`crate::eh`]).
    fn run(&mut self, entry: u32, bound: Bound) -> VmResult<Option<Value>> {
        let mut pc = entry;
        loop {
            match self.step(pc) {
                Ok(Flow::Next) => pc += 1,
                Ok(Flow::Jump(t)) => {
                    // Fuel is charged on taken branches and `leave`s (plus
                    // managed calls, in `Vm::guarded`): any runaway
                    // program must do one of them, and charging here keeps
                    // straight-line code free of per-op accounting.
                    self.vm.charge_fuel()?;
                    pc = t;
                }
                Ok(Flow::Return(v)) => return eh::ret(self, bound).map(|()| v),
                Ok(Flow::EndFinally) => return eh::end_finally(self, bound).map(|()| None),
                Ok(Flow::Leave(target)) => {
                    // `leave` empties the evaluation stack.
                    self.stack.clear();
                    pc = eh::leave(self, pc, target, bound)?;
                }
                Err(VmError::Exception(exc)) => pc = eh::dispatch(self, pc, exc, bound)?,
                Err(other) => return Err(other),
            }
        }
    }

    #[inline]
    fn pop(&mut self) -> Value {
        self.stack.pop().expect("verified stack underflow")
    }

    #[inline]
    fn push(&mut self, v: Value) {
        self.stack.push(v);
    }

    fn step(&mut self, pc: u32) -> VmResult<Flow> {
        let vm = self.vm;
        if vm.profile.portability_shim {
            pal_shim(pc);
        }
        let module = &vm.module;
        let op = &module.method(self.method).body.code[pc as usize];
        if vm.observer.enabled() {
            vm.observer.record_interp_op(self.method, op);
        }
        match op {
            Op::Nop => {}
            Op::LdcI4(v) => self.push(Value::I4(*v)),
            Op::LdcI8(v) => self.push(Value::I8(*v)),
            Op::LdcR4(v) => self.push(Value::R4(*v)),
            Op::LdcR8(v) => self.push(Value::R8(*v)),
            Op::LdNull => self.push(Value::Null),
            Op::LdStr(s) => self.push(Value::Ref(vm.literal(*s))),
            Op::LdLoc(i) => {
                let v = self.locals[*i as usize].clone();
                self.push(v);
            }
            Op::StLoc(i) => {
                let v = self.pop();
                self.locals[*i as usize] = v;
            }
            Op::LdArg(i) => {
                let v = self.args[*i as usize].clone();
                self.push(v);
            }
            Op::StArg(i) => {
                let v = self.pop();
                self.args[*i as usize] = v;
            }
            Op::Dup => {
                let v = self.stack.last().expect("verified dup").clone();
                self.push(v);
            }
            Op::Pop => {
                self.pop();
            }
            Op::Bin(b) => {
                let rhs = self.pop();
                let lhs = self.pop();
                let v = self.binary(*b, lhs, rhs)?;
                self.push(v);
            }
            Op::Un(u) => {
                let v = self.pop();
                let r = match (u, v) {
                    (UnOp::Neg, Value::I4(a)) => Value::I4(numerics::un_i4(UnOp::Neg, a)),
                    (UnOp::Neg, Value::I8(a)) => Value::I8(numerics::un_i8(UnOp::Neg, a)),
                    (UnOp::Neg, Value::R4(a)) => Value::R4(-a),
                    (UnOp::Neg, Value::R8(a)) => Value::R8(-a),
                    (UnOp::Not, Value::I4(a)) => Value::I4(!a),
                    (UnOp::Not, Value::I8(a)) => Value::I8(!a),
                    _ => return self.internal("bad unary operand"),
                };
                self.push(r);
            }
            Op::Cmp(c) => {
                let rhs = self.pop();
                let lhs = self.pop();
                let r = self.compare(*c, &lhs, &rhs)?;
                self.push(Value::I4(r as i32));
            }
            Op::Conv(to) => {
                let v = self.pop();
                let from = v.num_ty().expect("verified conv");
                self.push(Value::from_bits(*to, numerics::conv_bits(from, *to, v.to_bits())));
            }
            Op::Br(t) => return Ok(Flow::Jump(*t)),
            Op::BrTrue(t) => {
                let v = self.pop();
                if v.truthy() {
                    return Ok(Flow::Jump(*t));
                }
            }
            Op::BrFalse(t) => {
                let v = self.pop();
                if !v.truthy() {
                    return Ok(Flow::Jump(*t));
                }
            }
            Op::BrCmp(c, t) => {
                let rhs = self.pop();
                let lhs = self.pop();
                if self.compare(*c, &lhs, &rhs)? {
                    return Ok(Flow::Jump(*t));
                }
            }
            Op::Call(mid) => {
                let ret = self.do_call(*mid, false)?;
                if let Some(v) = ret {
                    self.push(v);
                }
            }
            Op::CallVirt(mid) => {
                let ret = self.do_call(*mid, true)?;
                if let Some(v) = ret {
                    self.push(v);
                }
            }
            Op::CallIntrinsic(i) => {
                let n = i.arg_count();
                let mut call_args = vec![Value::Null; n];
                for k in (0..n).rev() {
                    call_args[k] = self.pop();
                }
                if let Some(v) = vm.intrinsic(*i, &call_args, self.depth)? {
                    self.push(v);
                }
            }
            Op::Ret => {
                let m = module.method(self.method);
                let v = if m.ret == CilType::Void {
                    None
                } else {
                    Some(self.pop())
                };
                return Ok(Flow::Return(v));
            }
            Op::NewObj(ctor_id) => {
                let ctor = module.method(*ctor_id);
                let class = module.class(ctor.owner);
                let body = HeapObj::new_instance(
                    ctor.owner,
                    class.n_prim_slots as usize,
                    class.n_ref_slots as usize,
                );
                let obj = vm.heap.adopt(body, &mut self.tally.allocs);
                let n = ctor.params.len();
                let mut call_args = vec![Value::Null; n + 1];
                for k in (1..=n).rev() {
                    call_args[k] = self.pop();
                }
                call_args[0] = Value::Ref(obj.clone());
                vm.invoke_at_depth(*ctor_id, call_args, self.depth + 1, &mut self.tally)?;
                self.push(Value::Ref(obj));
            }
            Op::LdFld(fid) => {
                let obj = self.pop_obj()?;
                let f = module.field(*fid);
                let v = match f.ty.num_ty() {
                    Some(nt) => obj
                        .prim_field(f.slot)
                        .map(|bits| Value::from_bits(nt, bits)),
                    None => obj
                        .ref_field(f.slot)
                        .map(|r| r.map_or(Value::Null, Value::Ref)),
                };
                self.push(v.ok_or_else(not_an_instance)?);
            }
            Op::StFld(fid) => {
                let v = self.pop();
                let obj = self.pop_obj()?;
                let f = module.field(*fid);
                let stored = match f.ty.num_ty() {
                    Some(_) => obj.set_prim_field(f.slot, v.to_bits()),
                    None => obj.set_ref_field(f.slot, v.as_ref_opt().cloned()),
                };
                stored.ok_or_else(not_an_instance)?;
            }
            Op::LdSFld(fid) => {
                let f = module.field(*fid);
                let v = match f.ty.num_ty() {
                    Some(nt) => Value::from_bits(
                        nt,
                        vm.statics.prim[f.slot as usize].load(std::sync::atomic::Ordering::Relaxed),
                    ),
                    None => match vm.statics.refs[f.slot as usize].get() {
                        Some(o) => Value::Ref(o),
                        None => Value::Null,
                    },
                };
                self.push(v);
            }
            Op::StSFld(fid) => {
                let v = self.pop();
                let f = module.field(*fid);
                match f.ty.num_ty() {
                    Some(_) => vm.statics.prim[f.slot as usize]
                        .store(v.to_bits(), std::sync::atomic::Ordering::Relaxed),
                    None => vm.statics.refs[f.slot as usize].set(v.as_ref_opt().cloned()),
                }
            }
            Op::IsInst(c) => {
                let v = self.pop();
                let r = match v.as_ref_opt() {
                    Some(o) => vm.instance_of(o, *c),
                    None => false,
                };
                self.push(Value::I4(r as i32));
            }
            Op::CastClass(c) => {
                let v = self.pop();
                match v.as_ref_opt() {
                    Some(o) if !vm.instance_of(o, *c) => {
                        return Err(vm.raise_invalid_cast(self.depth))
                    }
                    _ => {}
                }
                self.push(v);
            }
            Op::NewArr(kind) => {
                let len = self.pop().as_i4();
                if len < 0 {
                    return Err(vm.raise_index_oob(self.depth));
                }
                let body = HeapObj::new_array(*kind, len as usize);
                let arr = vm.heap.adopt(body, &mut self.tally.allocs);
                self.push(Value::Ref(arr));
            }
            Op::LdLen => {
                let obj = self.pop_obj()?;
                let n = obj
                    .array_len()
                    .ok_or_else(|| VmError::Internal("ldlen on non-array".into()))?;
                self.push(Value::I4(n as i32));
            }
            Op::LdElem(kind) => {
                let idx = self.pop().as_i4();
                let arr = self.pop_obj()?;
                let len = arr.array_len().unwrap_or(0);
                if idx < 0 || idx as usize >= len {
                    return Err(vm.raise_index_oob(self.depth));
                }
                let v = arr
                    .load_elem(*kind, idx as usize)
                    .ok_or_else(|| vm.raise_invalid_cast(self.depth))?;
                self.push(v);
            }
            Op::StElem(kind) => {
                let v = self.pop();
                let idx = self.pop().as_i4();
                let arr = self.pop_obj()?;
                let len = arr.array_len().unwrap_or(0);
                if idx < 0 || idx as usize >= len {
                    return Err(vm.raise_index_oob(self.depth));
                }
                arr.store_elem(*kind, idx as usize, &v)
                    .ok_or_else(|| vm.raise_invalid_cast(self.depth))?;
            }
            Op::NewMultiArr { kind, rank } => {
                let mut dims = vec![0u32; *rank as usize];
                for k in (0..*rank as usize).rev() {
                    let d = self.pop().as_i4();
                    if d < 0 {
                        return Err(vm.raise_index_oob(self.depth));
                    }
                    dims[k] = d as u32;
                }
                let body = HeapObj::new_multi(*kind, &dims)
                    .ok_or_else(|| VmError::Limit(MULTI_TOO_LARGE.into()))?;
                let arr = vm.heap.adopt(body, &mut self.tally.allocs);
                self.push(Value::Ref(arr));
            }
            Op::LdElemMulti { kind, rank } => {
                let mut idxs = vec![0i32; *rank as usize];
                for k in (0..*rank as usize).rev() {
                    idxs[k] = self.pop().as_i4();
                }
                let arr = self.pop_obj()?;
                let off = arr
                    .multi_offset(&idxs)
                    .ok_or_else(|| vm.raise_index_oob(self.depth))?;
                let v = arr
                    .load_elem(*kind, off)
                    .ok_or_else(|| vm.raise_invalid_cast(self.depth))?;
                self.push(v);
            }
            Op::StElemMulti { kind, rank } => {
                let v = self.pop();
                let mut idxs = vec![0i32; *rank as usize];
                for k in (0..*rank as usize).rev() {
                    idxs[k] = self.pop().as_i4();
                }
                let arr = self.pop_obj()?;
                let off = arr
                    .multi_offset(&idxs)
                    .ok_or_else(|| vm.raise_index_oob(self.depth))?;
                arr.store_elem(*kind, off, &v)
                    .ok_or_else(|| vm.raise_invalid_cast(self.depth))?;
            }
            Op::LdMultiLen { dim } => {
                let arr = self.pop_obj()?;
                let dims = arr
                    .multi_dims()
                    .ok_or_else(|| VmError::Internal("GetLength on non-multi".into()))?;
                let n = *dims
                    .get(*dim as usize)
                    .ok_or_else(|| vm.raise_index_oob(self.depth))?;
                self.push(Value::I4(n as i32));
            }
            Op::BoxVal(nt) => {
                let v = self.pop();
                let body = HeapObj::new_boxed(*nt, v.to_bits());
                let o = vm.heap.adopt(body, &mut self.tally.allocs);
                self.push(Value::Ref(o));
            }
            Op::UnboxVal(nt) => {
                let obj = self.pop_obj()?;
                match &obj.body {
                    hpcnet_runtime::ObjBody::Boxed { ty, bits } if ty == nt => {
                        self.push(Value::from_bits(*nt, *bits));
                    }
                    _ => return Err(vm.raise_invalid_cast(self.depth)),
                }
            }
            Op::Throw => {
                let obj = self.pop_obj()?;
                vm.note_throw(self.depth);
                return Err(VmError::Exception(obj));
            }
            Op::Leave(t) => return Ok(Flow::Leave(*t)),
            Op::EndFinally => return Ok(Flow::EndFinally),
        }
        Ok(Flow::Next)
    }

    /// Pop a reference; raises `NullReferenceException` on null.
    fn pop_obj(&mut self) -> VmResult<hpcnet_runtime::Obj> {
        match self.pop() {
            Value::Ref(o) => Ok(o),
            Value::Null => Err(self.vm.raise_null_ref(self.depth)),
            _ => Err(VmError::Internal("expected reference on stack".into())),
        }
    }

    fn binary(&self, op: BinOp, lhs: Value, rhs: Value) -> VmResult<Value> {
        let vm = self.vm;
        let div_zero = || vm.raise_div_zero(self.depth);
        Ok(match (lhs, rhs) {
            (Value::I4(a), Value::I4(b)) => {
                if vm.profile.portability_shim && matches!(op, BinOp::Div | BinOp::Rem) {
                    cdq_emulation_i4(a);
                }
                Value::I4(numerics::bin_i4(op, a, b).map_err(|_| div_zero())?)
            }
            (Value::I8(a), Value::I8(b)) => {
                if vm.profile.portability_shim && matches!(op, BinOp::Div | BinOp::Rem) {
                    cdq_emulation_i8(a);
                }
                Value::I8(numerics::bin_i8(op, a, b).map_err(|_| div_zero())?)
            }
            // Shifts: int64 value with int32 count.
            (Value::I8(a), Value::I4(b))
                if matches!(op, BinOp::Shl | BinOp::Shr | BinOp::ShrUn) =>
            {
                Value::I8(numerics::bin_i8(op, a, b as i64).map_err(|_| div_zero())?)
            }
            (Value::R4(a), Value::R4(b)) => Value::R4(numerics::bin_r4(op, a, b)),
            (Value::R8(a), Value::R8(b)) => Value::R8(numerics::bin_r8(op, a, b)),
            _ => return self.internal("mixed binary operands"),
        })
    }

    fn compare(&self, op: CmpOp, lhs: &Value, rhs: &Value) -> VmResult<bool> {
        Ok(match (lhs, rhs) {
            (Value::I4(_), Value::I4(_))
            | (Value::I8(_), Value::I8(_))
            | (Value::R4(_), Value::R4(_))
            | (Value::R8(_), Value::R8(_)) => {
                let ty = lhs.num_ty().unwrap();
                numerics::cmp_bits(op, ty, lhs.to_bits(), rhs.to_bits()) != 0
            }
            // Reference identity comparison.
            (a, b) => {
                let same = match (a.as_ref_opt(), b.as_ref_opt()) {
                    (Some(x), Some(y)) => hpcnet_runtime::Obj::ptr_eq(x, y),
                    (None, None) => true,
                    _ => false,
                };
                match op {
                    CmpOp::Eq => same,
                    CmpOp::Ne => !same,
                    _ => return self.internal("ordered compare on references"),
                }
            }
        })
    }

    fn do_call(&mut self, decl: MethodId, virtual_dispatch: bool) -> VmResult<Option<Value>> {
        let vm = self.vm;
        let callee = vm.module.method(decl);
        let n = callee.arg_count();
        let mut call_args = vec![Value::Null; n];
        for k in (0..n).rev() {
            call_args[k] = self.pop();
        }
        let target = if virtual_dispatch {
            let recv = call_args[0]
                .as_ref_opt()
                .ok_or_else(|| vm.raise_null_ref(self.depth))?;
            let class = recv
                .class_id()
                .ok_or_else(|| VmError::Internal("callvirt on non-instance".into()))?;
            vm.module.resolve_virtual(class, decl)
        } else {
            if !callee.is_static {
                // Non-virtual instance call still null-checks the receiver.
                if call_args[0].as_ref_opt().is_none() {
                    return Err(vm.raise_null_ref(self.depth));
                }
            }
            decl
        };
        vm.invoke_at_depth(target, call_args, self.depth + 1, &mut self.tally)
    }
}

enum Flow {
    Next,
    Jump(u32),
    Return(Option<Value>),
    Leave(u32),
    EndFinally,
}

#[cold]
fn not_an_instance() -> VmError {
    VmError::Internal(NOT_AN_INSTANCE.into())
}

/// SSCLI routes operations through its portability abstraction layer —
/// helper calls with real memory traffic where commercial JITs emit inline
/// code. One uninlinable call per executed instruction models that tax.
#[inline(never)]
fn pal_shim(pc: u32) {
    use std::sync::atomic::{AtomicU64, Ordering};
    static PAL_STATE: [AtomicU64; 4] = [
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
    ];
    // Genuine memory round trips, like a PAL helper prologue/epilogue
    // (save registers, load helper state, restore). The depth is
    // calibrated so the interpreter lands in the 5–10× band the paper
    // measured for SSCLI 1.0 relative to CLR 1.1.
    let mut acc = pc as u64 | 1;
    for _ in 0..4 {
        for slot in PAL_STATE.iter() {
            let v = slot.load(Ordering::Relaxed);
            acc = acc.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(v);
            slot.store(acc, Ordering::Relaxed);
        }
    }
    std::hint::black_box(acc);
}

/// The SSCLI JIT emulated `cdq` (sign-extend EAX into EDX) "with loads and
/// shifts" — do the equivalent futile work so signed division costs what it
/// cost there.
#[inline(never)]
fn cdq_emulation_i4(a: i32) {
    let lo = a as u32;
    let hi = ((a as i64) >> 31) as u32;
    let merged = ((hi as u64) << 32) | lo as u64;
    std::hint::black_box(merged as i64 >> 1);
    std::hint::black_box((merged >> 31) ^ (lo as u64));
}

#[inline(never)]
fn cdq_emulation_i8(a: i64) {
    let lo = a as u64;
    let hi = (a >> 63) as u64;
    std::hint::black_box(hi.wrapping_shl(1) | (lo >> 63));
    std::hint::black_box(lo.rotate_left(7) ^ hi);
}
