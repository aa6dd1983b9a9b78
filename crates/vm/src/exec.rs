//! The register-tier execution engine.
//!
//! Runs [`RirMethod`] code produced by [`crate::rir`]. The frame is split
//! the way the paper's Section 5 describes real JIT frames: an
//! *enregistered* file (`preg`/`rreg`, plain array slots — the "registers")
//! and a *spill frame* (`pspill`/`rspill`) accessed through volatile
//! loads/stores, so spilled virtual registers cost genuine memory traffic
//! on every touch. A profile that enregisters one value (Mono) therefore
//! pays for every stack-shuffle move twice — once to dispatch it, once in
//! memory — while a 64-register profile (CLR 1.1, IBM) runs the same loop
//! entirely out of the register file.

use crate::error::{VmError, VmResult};
use crate::machine::Vm;
use crate::numerics;
use crate::rir::{slot_index, ArgSlot, DstSlot, Operand, RInst, RirMethod, SPILL_BIT};
use hpcnet_cil::module::{EhKind, MethodId};
use hpcnet_cil::{CmpOp, ElemKind, NumTy};
use hpcnet_runtime::{Obj, Value};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Entry point used by [`Vm::invoke`] for register-tier profiles.
pub(crate) fn call(
    vm: &Arc<Vm>,
    method: MethodId,
    args: Vec<Value>,
    depth: u32,
) -> VmResult<Option<Value>> {
    let rir = vm.compiled(method)?;
    let mut fr = Frame::new(&rir);
    for (v, loc) in args.into_iter().zip(rir.arg_locs.iter().copied()) {
        fr.store_value(&loc_to_dst(loc), v);
    }
    let mut ex = Exec {
        vm,
        rir: &rir,
        fr,
        depth,
    };
    match ex.run(0, None)? {
        RunEnd::Return(v) => Ok(v),
        RunEnd::EndFinally => Err(VmError::Internal("endfinally outside handler".into())),
    }
}

pub(crate) fn loc_to_dst(a: ArgSlot) -> DstSlotT {
    match a {
        ArgSlot::P(_, s) => DstSlotT::P(s),
        ArgSlot::R(s) => DstSlotT::R(s),
    }
}

/// Typed destination used when storing a `Value`.
pub(crate) enum DstSlotT {
    P(u16),
    R(u16),
}

pub(crate) struct Frame {
    preg: Vec<u64>,
    pspill: Vec<u64>,
    rreg: Vec<Option<Obj>>,
    rspill: Vec<Option<Obj>>,
}

impl Frame {
    pub(crate) fn new(rir: &RirMethod) -> Frame {
        Frame {
            preg: vec![0; rir.n_preg as usize],
            pspill: vec![0; rir.n_pspill as usize],
            rreg: vec![None; rir.n_rreg as usize],
            rspill: vec![None; rir.n_rspill as usize],
        }
    }

    /// Read a primitive slot. Spill slots go through a volatile load —
    /// genuine memory traffic the optimizer cannot elide.
    #[inline(always)]
    pub(crate) fn pget(&self, s: u16) -> u64 {
        if s & SPILL_BIT == 0 {
            self.preg[s as usize]
        } else {
            let idx = slot_index(s);
            debug_assert!(idx < self.pspill.len());
            unsafe { std::ptr::read_volatile(self.pspill.as_ptr().add(idx)) }
        }
    }

    #[inline(always)]
    pub(crate) fn pset(&mut self, s: u16, v: u64) {
        if s & SPILL_BIT == 0 {
            self.preg[s as usize] = v;
        } else {
            let idx = slot_index(s);
            debug_assert!(idx < self.pspill.len());
            unsafe { std::ptr::write_volatile(self.pspill.as_mut_ptr().add(idx), v) }
        }
    }

    #[inline(always)]
    pub(crate) fn operand(&self, o: &Operand) -> u64 {
        match o {
            Operand::Slot(s) => self.pget(*s),
            Operand::Imm(v) => *v,
        }
    }

    #[inline(always)]
    pub(crate) fn rget(&self, s: u16) -> Option<Obj> {
        if s & SPILL_BIT == 0 {
            self.rreg[s as usize].clone()
        } else {
            let idx = std::hint::black_box(slot_index(s));
            self.rspill[idx].clone()
        }
    }

    /// Borrow a reference slot without touching the refcount (hot path
    /// for array/field access).
    #[inline(always)]
    pub(crate) fn rref(&self, s: u16) -> Option<&Obj> {
        if s & SPILL_BIT == 0 {
            self.rreg[s as usize].as_ref()
        } else {
            let idx = std::hint::black_box(slot_index(s));
            self.rspill[idx].as_ref()
        }
    }

    #[inline(always)]
    pub(crate) fn rset(&mut self, s: u16, v: Option<Obj>) {
        if s & SPILL_BIT == 0 {
            self.rreg[s as usize] = v;
        } else {
            let idx = std::hint::black_box(slot_index(s));
            self.rspill[idx] = v;
        }
    }

    pub(crate) fn load_value(&self, a: &ArgSlot) -> Value {
        match a {
            ArgSlot::P(t, s) => Value::from_bits(*t, self.pget(*s)),
            ArgSlot::R(s) => match self.rget(*s) {
                Some(o) => Value::Ref(o),
                None => Value::Null,
            },
        }
    }

    pub(crate) fn store_value(&mut self, d: &DstSlotT, v: Value) {
        match d {
            DstSlotT::P(s) => self.pset(*s, v.to_bits()),
            DstSlotT::R(s) => self.rset(*s, v.as_ref_opt().cloned()),
        }
    }

    pub(crate) fn store_dst(&mut self, d: &DstSlot, v: Value) {
        match d {
            DstSlot::P(s) => self.pset(*s, v.to_bits()),
            DstSlot::R(s) => self.rset(*s, v.as_ref_opt().cloned()),
        }
    }
}

pub(crate) enum RunEnd {
    Return(Option<Value>),
    EndFinally,
}

pub(crate) enum Flow {
    Next,
    Jump(u32),
    Return(Option<Value>),
    Leave(u32),
    EndFinally,
}

struct Exec<'v> {
    vm: &'v Arc<Vm>,
    rir: &'v RirMethod,
    fr: Frame,
    depth: u32,
}

impl<'v> Exec<'v> {
    fn internal<T>(&self, msg: &str) -> VmResult<T> {
        // Same shape as the stack interpreter's internal errors: both tiers
        // must render an identical string for an identical failure.
        Err(VmError::Internal(format!(
            "{} in {}",
            msg,
            self.vm.module.method(self.rir.method).name
        )))
    }

    /// Execute starting at `entry`. With `finally_bound = Some(handler
    /// range)`, the run is executing a finally handler in-frame: an
    /// `endfinally` terminates it, and exception dispatch is restricted to
    /// regions nested inside the handler — anything else propagates out so
    /// the *enclosing* run performs the dispatch (otherwise an enclosing
    /// catch would execute inside the finally sub-run and a later `ret`
    /// would falsely read as "return inside finally").
    fn run(&mut self, entry: u32, finally_bound: Option<(u32, u32)>) -> VmResult<RunEnd> {
        let mut pc = entry;
        loop {
            match self.step(pc) {
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
    /// CLI semantics: it replaces the leave, and outer finallys between the
    /// handler and the catch still run as part of that dispatch).
    fn run_leave_finallys(
        &mut self,
        pc: u32,
        target: u32,
        bound: Option<(u32, u32)>,
    ) -> VmResult<Option<u32>> {
        let regions: Vec<(u32, u32)> = self
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
    /// eligible (dispatch from inside a finally handler must not escape it —
    /// the caller owns anything further out).
    fn dispatch_exception(
        &mut self,
        pc: u32,
        mut exc: Obj,
        bound: Option<(u32, u32)>,
    ) -> VmResult<u32> {
        for (i, r) in self.rir.eh.iter().enumerate() {
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
                        if self.vm.observer.enabled() {
                            self.vm
                                .observer
                                .eh_dispatch(self.rir.method, crate::observe::EhDispatchKind::Catch);
                        }
                        let slot = self.rir.eh_exc_slots[i];
                        self.fr.rset(slot, Some(exc));
                        return Ok(r.handler_start);
                    }
                }
                EhKind::Finally => {
                    if self.vm.observer.enabled() {
                        self.vm
                            .observer
                            .eh_dispatch(self.rir.method, crate::observe::EhDispatchKind::Finally);
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
        if self.vm.observer.enabled() {
            self.vm
                .observer
                .eh_dispatch(self.rir.method, crate::observe::EhDispatchKind::FaultPath);
        }
        Err(VmError::Exception(exc))
    }

    fn ref_or_raise(&self, s: u16) -> VmResult<Obj> {
        self.fr
            .rget(s)
            .ok_or_else(|| self.vm.raise_null_ref(self.depth))
    }

    fn step(&mut self, pc: u32) -> VmResult<Flow> {
        let vm = self.vm;
        let inst = &self.rir.code[pc as usize];
        if vm.observer.enabled() {
            vm.observer.record_exec_op(self.rir.method, inst);
        }
        match inst {
            RInst::Nop => {}
            RInst::MovP { dst, src } => {
                let v = self.fr.pget(*src);
                self.fr.pset(*dst, v);
            }
            RInst::MovR { dst, src } => {
                let v = self.fr.rget(*src);
                self.fr.rset(*dst, v);
            }
            RInst::ConstP { dst, bits } => self.fr.pset(*dst, *bits),
            RInst::ConstNull { dst } => self.fr.rset(*dst, None),
            RInst::ConstStr { dst, s } => self.fr.rset(*dst, Some(vm.literal(*s))),
            RInst::Bin { op, ty, dst, a, b } => {
                let av = self.fr.pget(*a);
                let bv = self.fr.operand(b);
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
                .map_err(|_| vm.raise_div_zero(self.depth))?;
                self.fr.pset(*dst, out);
            }
            RInst::Un { op, ty, dst, a } => {
                let av = self.fr.pget(*a);
                let out = match ty {
                    NumTy::I4 => numerics::un_i4(*op, av as u32 as i32) as u32 as u64,
                    NumTy::I8 => numerics::un_i8(*op, av as i64) as u64,
                    NumTy::R4 => (-f32::from_bits(av as u32)).to_bits() as u64,
                    NumTy::R8 => (-f64::from_bits(av)).to_bits(),
                };
                self.fr.pset(*dst, out);
            }
            RInst::Conv { from, to, dst, src } => {
                let v = numerics::conv_bits(*from, *to, self.fr.pget(*src));
                self.fr.pset(*dst, v);
            }
            RInst::Cmp { op, ty, dst, a, b } => {
                let r = numerics::cmp_bits(*op, *ty, self.fr.pget(*a), self.fr.operand(b));
                self.fr.pset(*dst, r as u32 as u64);
            }
            RInst::CmpRef { op, dst, a, b } => {
                let av = self.fr.rget(*a);
                let bv = self.fr.rget(*b);
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
                self.fr.pset(*dst, r as u64);
            }
            RInst::Br { t } => return Ok(Flow::Jump(*t)),
            RInst::BrIf { cond, t, negate } => {
                if (self.fr.pget(*cond) != 0) != *negate {
                    return Ok(Flow::Jump(*t));
                }
            }
            RInst::BrIfRef { cond, t, negate } => {
                if self.fr.rget(*cond).is_some() != *negate {
                    return Ok(Flow::Jump(*t));
                }
            }
            RInst::BrCmp { op, ty, a, b, t } => {
                if numerics::cmp_bits(*op, *ty, self.fr.pget(*a), self.fr.operand(b)) != 0 {
                    return Ok(Flow::Jump(*t));
                }
            }
            RInst::Call { target, virt, args, dst } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args.iter() {
                    vals.push(self.fr.load_value(a));
                }
                let callee = if *virt {
                    let recv = vals[0]
                        .as_ref_opt()
                        .ok_or_else(|| vm.raise_null_ref(self.depth))?;
                    let class = recv
                        .class_id()
                        .ok_or_else(|| VmError::Internal("callvirt on non-instance".into()))?;
                    vm.module.resolve_virtual(class, *target)
                } else {
                    if !vm.module.method(*target).is_static && vals[0].as_ref_opt().is_none() {
                        return Err(vm.raise_null_ref(self.depth));
                    }
                    *target
                };
                let ret = vm.invoke_at_depth(callee, vals, self.depth + 1)?;
                if let (Some(d), Some(v)) = (dst, ret) {
                    self.fr.store_dst(d, v);
                }
            }
            RInst::CallIntr { i, args, dst } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args.iter() {
                    vals.push(self.fr.load_value(a));
                }
                let ret = vm.intrinsic(*i, &vals, self.depth)?;
                if let (Some(d), Some(v)) = (dst, ret) {
                    self.fr.store_dst(d, v);
                }
            }
            RInst::Ret { src } => {
                return Ok(Flow::Return(src.as_ref().map(|a| self.fr.load_value(a))));
            }
            RInst::NewObj { ctor, args, dst } => {
                let ctor_def = vm.module.method(*ctor);
                let class = vm.module.class(ctor_def.owner);
                let obj = vm.heap.alloc_instance(
                    ctor_def.owner,
                    class.n_prim_slots as usize,
                    class.n_ref_slots as usize,
                );
                let mut vals = Vec::with_capacity(args.len() + 1);
                vals.push(Value::Ref(obj.clone()));
                for a in args.iter() {
                    vals.push(self.fr.load_value(a));
                }
                vm.invoke_at_depth(*ctor, vals, self.depth + 1)?;
                self.fr.rset(*dst, Some(obj));
            }
            RInst::LdFld { obj, slot, dst } => {
                match dst {
                    DstSlot::P(d) => {
                        let bits = match self.fr.rref(*obj) {
                            Some(o) => o.prim_field(*slot),
                            None => return Err(vm.raise_null_ref(self.depth)),
                        };
                        self.fr.pset(*d, bits);
                    }
                    DstSlot::R(d) => {
                        let v = match self.fr.rref(*obj) {
                            Some(o) => o.ref_field(*slot),
                            None => return Err(vm.raise_null_ref(self.depth)),
                        };
                        self.fr.rset(*d, v);
                    }
                }
            }
            RInst::StFld { obj, slot, src } => {
                match src {
                    ArgSlot::P(_, s) => {
                        let bits = self.fr.pget(*s);
                        match self.fr.rref(*obj) {
                            Some(o) => o.set_prim_field(*slot, bits),
                            None => return Err(vm.raise_null_ref(self.depth)),
                        }
                    }
                    ArgSlot::R(s) => {
                        let v = self.fr.rget(*s);
                        match self.fr.rref(*obj) {
                            Some(o) => o.set_ref_field(*slot, v),
                            None => return Err(vm.raise_null_ref(self.depth)),
                        }
                    }
                }
            }
            RInst::LdSFld { slot, dst } => match dst {
                DstSlot::P(d) => {
                    let bits = vm.statics.prim[*slot as usize].load(Ordering::Relaxed);
                    self.fr.pset(*d, bits);
                }
                DstSlot::R(d) => {
                    let v = vm.statics.refs[*slot as usize].get();
                    self.fr.rset(*d, v);
                }
            },
            RInst::StSFld { slot, src } => match src {
                ArgSlot::P(_, s) => {
                    vm.statics.prim[*slot as usize].store(self.fr.pget(*s), Ordering::Relaxed)
                }
                ArgSlot::R(s) => vm.statics.refs[*slot as usize].set(self.fr.rget(*s)),
            },
            RInst::IsInst { class, src, dst } => {
                let r = match self.fr.rget(*src) {
                    Some(o) => vm.instance_of(&o, *class),
                    None => false,
                };
                self.fr.pset(*dst, r as u64);
            }
            RInst::CastClass { class, src, dst } => {
                let v = self.fr.rget(*src);
                if let Some(o) = &v {
                    if !vm.instance_of(o, *class) {
                        return Err(vm.raise_invalid_cast(self.depth));
                    }
                }
                self.fr.rset(*dst, v);
            }
            RInst::NewArr { kind, len, dst } => {
                let n = self.fr.pget(*len) as u32 as i32;
                if n < 0 {
                    return Err(vm.raise_index_oob(self.depth));
                }
                let arr = vm.heap.alloc_array(*kind, n as usize);
                self.fr.rset(*dst, Some(arr));
            }
            RInst::LdLen { arr, dst } => {
                let n = match self.fr.rref(*arr) {
                    Some(o) => o
                        .array_len()
                        .ok_or_else(|| VmError::Internal("ldlen on non-array".into()))?,
                    None => return Err(vm.raise_null_ref(self.depth)),
                };
                self.fr.pset(*dst, n as u64);
            }
            RInst::LdElem { kind, arr, idx, dst, bounds } => {
                let i = self.fr.pget(*idx) as u32 as i32;
                let loaded = {
                    let o = self
                        .fr
                        .rref(*arr)
                        .ok_or_else(|| vm.raise_null_ref(self.depth))?;
                    if bounds.is_checked() {
                        let len = o.array_len().unwrap_or(0);
                        if i < 0 || i as usize >= len {
                            return Err(vm.raise_index_oob(self.depth));
                        }
                    }
                    elem_read(o, *kind, i as usize)?
                };
                self.write_loaded(dst, loaded)?;
            }
            RInst::StElem { kind, arr, idx, src, bounds } => {
                let i = self.fr.pget(*idx) as u32 as i32;
                let val = self.read_src(src);
                let o = self
                    .fr
                    .rref(*arr)
                    .ok_or_else(|| vm.raise_null_ref(self.depth))?;
                if bounds.is_checked() {
                    let len = o.array_len().unwrap_or(0);
                    if i < 0 || i as usize >= len {
                        return Err(vm.raise_index_oob(self.depth));
                    }
                }
                elem_write(o, *kind, i as usize, val)?;
            }
            RInst::NewMulti { kind, dims, dst } => {
                let mut lens = Vec::with_capacity(dims.len());
                for d in dims.iter() {
                    let n = self.fr.pget(*d) as u32 as i32;
                    if n < 0 {
                        return Err(vm.raise_index_oob(self.depth));
                    }
                    lens.push(n as u32);
                }
                let arr = vm.heap.alloc_multi(*kind, &lens);
                self.fr.rset(*dst, Some(arr));
            }
            RInst::LdElemMulti { kind, arr, idxs, dst, helper } => {
                let mut vals = [0i32; 3];
                for (k, s) in idxs.iter().enumerate() {
                    vals[k] = self.fr.pget(*s) as u32 as i32;
                }
                let loaded = {
                    let o = self
                        .fr
                        .rref(*arr)
                        .ok_or_else(|| vm.raise_null_ref(self.depth))?;
                    let off = multi_offset_of(o, &vals[..idxs.len()], *helper)
                        .ok_or_else(|| vm.raise_index_oob(self.depth))?;
                    elem_read(o, *kind, off)?
                };
                self.write_loaded(dst, loaded)?;
            }
            RInst::StElemMulti { kind, arr, idxs, src, helper } => {
                let mut vals = [0i32; 3];
                for (k, s) in idxs.iter().enumerate() {
                    vals[k] = self.fr.pget(*s) as u32 as i32;
                }
                let val = self.read_src(src);
                let o = self
                    .fr
                    .rref(*arr)
                    .ok_or_else(|| vm.raise_null_ref(self.depth))?;
                let off = multi_offset_of(o, &vals[..idxs.len()], *helper)
                    .ok_or_else(|| vm.raise_index_oob(self.depth))?;
                elem_write(o, *kind, off, val)?;
            }
            RInst::LdMultiLen { arr, dim, dst } => {
                let n = {
                    let o = self
                        .fr
                        .rref(*arr)
                        .ok_or_else(|| vm.raise_null_ref(self.depth))?;
                    let dims = o
                        .multi_dims()
                        .ok_or_else(|| VmError::Internal("GetLength on non-multi".into()))?;
                    *dims
                        .get(*dim as usize)
                        .ok_or_else(|| vm.raise_index_oob(self.depth))?
                };
                self.fr.pset(*dst, n as u64);
            }
            RInst::BoxV { ty, src, dst } => {
                let o = vm.heap.alloc_boxed(*ty, self.fr.pget(*src));
                self.fr.rset(*dst, Some(o));
            }
            RInst::UnboxV { ty, src, dst } => {
                let o = self.ref_or_raise(*src)?;
                match &o.body {
                    hpcnet_runtime::ObjBody::Boxed { ty: t2, bits } if t2 == ty => {
                        self.fr.pset(*dst, *bits);
                    }
                    _ => return Err(vm.raise_invalid_cast(self.depth)),
                }
            }
            RInst::Throw { src } => {
                let o = self.ref_or_raise(*src)?;
                vm.note_throw(self.depth);
                return Err(VmError::Exception(o));
            }
            RInst::Leave { t } => return Ok(Flow::Leave(*t)),
            RInst::EndFinally => return Ok(Flow::EndFinally),
        }
        Ok(Flow::Next)
    }

    /// Store an element-read result into a destination slot.
    #[inline]
    fn write_loaded(&mut self, dst: &DstSlot, l: Loaded) -> VmResult<()> {
        match (dst, l) {
            (DstSlot::P(d), Loaded::Bits(b)) => self.fr.pset(*d, b),
            (DstSlot::R(d), Loaded::Ref(v)) => self.fr.rset(*d, v),
            _ => return Err(VmError::Internal("elem kind mismatch".into())),
        }
        Ok(())
    }

    /// Read an element-store source from a slot.
    #[inline]
    fn read_src(&self, src: &ArgSlot) -> Loaded {
        match src {
            ArgSlot::P(_, s) => Loaded::Bits(self.fr.pget(*s)),
            ArgSlot::R(s) => Loaded::Ref(self.fr.rget(*s)),
        }
    }
}

/// An element value in transit (untagged bits or a reference).
pub(crate) enum Loaded {
    Bits(u64),
    Ref(Option<Obj>),
}

#[inline]
pub(crate) fn elem_read(o: &Obj, kind: ElemKind, idx: usize) -> VmResult<Loaded> {
    match kind.num_ty() {
        Some(_) => Ok(Loaded::Bits(
            o.prim_data()
                .get(idx)
                .ok_or_else(|| VmError::Internal("unchecked access out of bounds".into()))?
                .load(Ordering::Relaxed),
        )),
        None => Ok(Loaded::Ref(
            o.ref_data()
                .get(idx)
                .ok_or_else(|| VmError::Internal("unchecked access out of bounds".into()))?
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
                .ok_or_else(|| VmError::Internal("unchecked access out of bounds".into()))?
                .store(bits, Ordering::Relaxed);
        }
        Loaded::Ref(v) => {
            o.ref_data()
                .get(idx)
                .ok_or_else(|| VmError::Internal("unchecked access out of bounds".into()))?
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
