//! RIR → direct-threaded code: closure compilation and linear-scan
//! allocation for the [`crate::compiled`] tier.
//!
//! The exec tier re-decodes every [`RInst`] on every execution — a `match`
//! over 40-odd variants sits on the critical path of each operation, which
//! is exactly the interpretive dispatch overhead the paper's JITs do not
//! pay. This module removes it the way direct-threaded VMs do: each
//! instruction is translated **once** into a pre-resolved closure
//! (operands, immediates, string literals, class layouts and callee
//! null-check requirements are all captured at compile time), and the
//! method body becomes a flat `Vec` of those closures indexed by pc. The
//! per-`(op, type)` monomorphization happens here, at translation time, so
//! the Rust compiler constant-folds the type dispatch that the exec tier
//! performs per execution.
//!
//! Slot allocation is a **linear scan** over live intervals rather than
//! the exec tier's static use-count ranking: intervals are the span from
//! first to last occurrence (extended across backward branches, and
//! pessimized to whole-method spans when exception regions make linear
//! order a lie), registers are reused as intervals expire, and when the
//! profile's enregistration cap (`max_enreg_prim` / `max_enreg_ref`) is
//! exhausted the value staying live longest is evicted to the volatile
//! spill frame. Under the CLR profile's 64-register file a method with
//! more than 64 simultaneously live values takes genuine spills — the
//! paper's Section 5 enregistration limit as a real allocation decision.
//!
//! ```
//! use hpcnet_cil::{BinOp, CilType, CmpOp, MethodKind, ModuleBuilder};
//! use hpcnet_vm::{declare_prelude, Vm, VmProfile};
//! use hpcnet_runtime::Value;
//!
//! let mut mb = ModuleBuilder::new();
//! declare_prelude(&mut mb);
//! let c = mb.declare_class("P", None);
//! let mut f = mb.method(c, "Sum", vec![CilType::I4], CilType::I4, MethodKind::Static);
//! let sum = f.local(CilType::I4);
//! let i = f.local(CilType::I4);
//! let top = f.new_label();
//! let out = f.new_label();
//! f.place(top);
//! f.ld_loc(i); f.ld_arg(0); f.br_cmp(CmpOp::Ge, out);
//! f.ld_loc(sum); f.ld_loc(i); f.bin(BinOp::Add); f.st_loc(sum);
//! f.ld_loc(i); f.ldc_i4(1); f.bin(BinOp::Add); f.st_loc(i);
//! f.br(top);
//! f.place(out);
//! f.ld_loc(sum);
//! f.ret();
//! f.finish();
//!
//! // The threaded profile shares the CLR 1.1 knobs but runs closure code.
//! let vm = Vm::new(mb.finish(), VmProfile::clr11_compiled()).unwrap();
//! let r = vm.invoke_by_name("P.Sum", vec![Value::I4(10)]).unwrap();
//! assert_eq!(r.unwrap().as_i4(), 45);
//! ```

use crate::call::{self, Exit, Frame, Receiver, Step};
use crate::compiled::Threaded;
use crate::error::{VmError, VmResult};
use crate::exec::{elem_read, elem_write, multi_offset_of, unchecked_oob, Loaded};
use crate::machine::Vm;
use crate::numerics;
use crate::rir::lower::{self, Lowered};
use crate::rir::{opt, ArgSlot, DstSlot, Operand, RInst, RirMethod, SPILL_BIT};
use hpcnet_cil::module::MethodId;
use hpcnet_cil::{BinOp, CmpOp, ElemKind, NumTy};
use hpcnet_runtime::{Obj, ObjBody};
use std::collections::{BTreeSet, HashSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// One translated instruction: all decoding already done, only the
/// dynamic operands (frame slots, the heap, callee dispatch) remain. It
/// answers the dispatch loop in a register; anything bigger it parks in
/// the frame (see [`crate::call`]).
pub(crate) type OpFn = Box<dyn Fn(&mut Frame, &Arc<Vm>, u32) -> Step + Send + Sync>;

/// A method compiled to direct-threaded code. `rir` is the allocated
/// register IR the closures were built from — kept for the observer (which
/// records per-opcode attribution from it), for [`crate::rir::print_rir`]
/// listings, and for frame construction.
pub struct CompiledMethod {
    /// The linear-scan-allocated RIR backing the threaded code.
    pub rir: RirMethod,
    pub(crate) ops: Vec<OpFn>,
}

impl std::fmt::Debug for CompiledMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledMethod")
            .field("rir", &self.rir)
            .field("ops", &self.ops.len())
            .finish()
    }
}

/// Compile a method for the threaded tier: lower, run the shared
/// optimization pipeline, linear-scan allocate, then close over every
/// instruction. Compile events surface through the same `JitCompile`
/// typed-trace path as the exec tier.
pub(crate) fn compile(vm: &Arc<Vm>, method: MethodId) -> VmResult<CompiledMethod> {
    let (lowered, res) = crate::rir::share::front(vm, method)?;
    let t = vm.observer.phase_start();
    let rir = linear_scan(vm, method, lowered, &res.force_spill_p);
    vm.observer.phase_end(crate::observe::VmPhase::JitAllocate, t);
    opt::push_compile_events(vm, method, &rir, res);
    let ops = build_ops(vm, &rir);
    Ok(CompiledMethod { rir, ops })
}

// ---------------------------------------------------------------------------
// Linear-scan slot allocation
// ---------------------------------------------------------------------------

/// Record an occurrence of vreg `v` at instruction index `at`.
fn touch(iv: &mut [(u32, u32)], v: u16, at: u32) {
    let e = &mut iv[v as usize];
    if e.0 == u32::MAX {
        *e = (at, at);
    } else {
        if at < e.0 {
            e.0 = at;
        }
        if at > e.1 {
            e.1 = at;
        }
    }
}

/// Allocate virtual registers to the profile-capped register file by
/// linear scan over live intervals, spilling the rest. Shares the
/// `SPILL_BIT` slot encoding (and therefore [`Frame`]) with the use-count
/// allocator, so the exec and threaded tiers interpret slots identically.
fn linear_scan(
    vm: &Arc<Vm>,
    method: MethodId,
    mut l: Lowered,
    force_spill_p: &HashSet<u16>,
) -> RirMethod {
    let len = l.code.len() as u32;
    // (first, last) occurrence per vreg; first == u32::MAX means dead.
    let mut pint = vec![(u32::MAX, 0u32); l.n_pvreg as usize];
    let mut rint = vec![(u32::MAX, 0u32); l.n_rvreg as usize];
    for (i, inst) in l.code.iter_mut().enumerate() {
        let at = i as u32;
        lower::rewrite_slots(
            inst,
            &mut |v| {
                touch(&mut pint, v, at);
                v
            },
            &mut |v| {
                touch(&mut rint, v, at);
                v
            },
        );
    }
    // Arguments are written before the first instruction executes.
    for a in &l.arg_locs {
        match a {
            ArgSlot::P(_, v) => touch(&mut pint, *v, 0),
            ArgSlot::R(v) => touch(&mut rint, *v, 0),
        }
    }
    // Exception slots are written by dispatch on handler entry.
    for (r, &v) in l.eh.iter().zip(&l.eh_exc_vregs) {
        if v != u16::MAX {
            touch(&mut rint, v, r.handler_start);
        }
    }

    // A value live across a backward branch is live for the whole loop:
    // extend any interval overlapping [target, branch] to the branch.
    // Processing branches in increasing pc order reaches the fixpoint in
    // one pass (extension only grows ends, and later edges sit later).
    let mut back: Vec<(u32, u32)> = Vec::new();
    for (j, inst) in l.code.iter().enumerate() {
        if let Some(t) = inst.target() {
            if t <= j as u32 {
                back.push((j as u32, t));
            }
        }
    }
    for ints in [&mut pint, &mut rint] {
        for &(j, t) in &back {
            for e in ints.iter_mut() {
                if e.0 != u32::MAX && e.0 <= j && e.1 >= t && e.1 < j {
                    e.1 = j;
                }
            }
        }
    }
    // Exception dispatch enters handlers from any pc inside the protected
    // region — edges linear order cannot see. Methods with EH regions keep
    // every live value in its slot for the whole body (no interval reuse);
    // the hot loop kernels this tier exists for have no EH.
    if !l.eh.is_empty() {
        for ints in [&mut pint, &mut rint] {
            for e in ints.iter_mut() {
                if e.0 != u32::MAX {
                    *e = (0, len);
                }
            }
        }
    }

    let (pmap, n_preg, n_pspill) = scan_assign(&pint, vm.profile.max_enreg_prim, force_spill_p);
    let empty = HashSet::new();
    let (rmap, n_rreg, n_rspill) = scan_assign(&rint, vm.profile.max_enreg_ref, &empty);

    for inst in &mut l.code {
        lower::rewrite_slots(inst, &mut |v| pmap[v as usize], &mut |v| rmap[v as usize]);
    }
    let arg_locs = l
        .arg_locs
        .iter()
        .map(|a| match a {
            ArgSlot::P(t, v) => ArgSlot::P(*t, pmap[*v as usize]),
            ArgSlot::R(v) => ArgSlot::R(rmap[*v as usize]),
        })
        .collect();
    let eh_exc_slots = l
        .eh_exc_vregs
        .iter()
        .map(|&v| if v == u16::MAX { u16::MAX } else { rmap[v as usize] })
        .collect();

    RirMethod {
        method,
        code: l.code,
        eh: l.eh,
        eh_exc_slots,
        arg_locs,
        n_preg,
        n_pspill,
        n_rreg,
        n_rspill,
    }
}

/// The scan itself: intervals in `(start, vreg)` order, lowest free
/// register first, furthest-end eviction when the file is full. Returns
/// `(vreg → slot map, registers used, spill slots used)`. Fully
/// deterministic — same input, same allocation, on every run and thread.
fn scan_assign(intervals: &[(u32, u32)], cap: u16, force: &HashSet<u16>) -> (Vec<u16>, u16, u16) {
    let n_vregs = intervals.len();
    let mut map = vec![0u16; n_vregs];
    let mut decided = vec![false; n_vregs];
    let mut n_spill: u16 = 0;
    let mut n_reg: u16 = 0;
    // Dead and force-spilled vregs take spill slots up front — same
    // convention as the use-count allocator: only live values compete for
    // the register file.
    for v in 0..n_vregs {
        if intervals[v].0 == u32::MAX || force.contains(&(v as u16)) {
            map[v] = SPILL_BIT | n_spill;
            n_spill += 1;
            decided[v] = true;
        }
    }
    let mut order: Vec<usize> = (0..n_vregs).filter(|&v| !decided[v]).collect();
    order.sort_by_key(|&v| (intervals[v].0, v));
    let mut free: BTreeSet<u16> = (0..cap).collect();
    let mut active: Vec<(u32, usize, u16)> = Vec::new(); // (end, vreg, reg)
    for &v in &order {
        let (start, end) = intervals[v];
        active.retain(|&(e, _, r)| {
            if e < start {
                free.insert(r);
                false
            } else {
                true
            }
        });
        if let Some(&r) = free.iter().next() {
            free.remove(&r);
            map[v] = r;
            n_reg = n_reg.max(r + 1);
            active.push((end, v, r));
        } else {
            // File full: evict the value staying live longest, if it
            // outlives the new one; otherwise the new one spills.
            let victim = active
                .iter()
                .enumerate()
                .max_by_key(|&(_, &(e, vr, _))| (e, vr))
                .map(|(i, _)| i);
            match victim {
                Some(i) if active[i].0 > end => {
                    let (_, victim_v, r) = active[i];
                    map[victim_v] = SPILL_BIT | n_spill;
                    n_spill += 1;
                    map[v] = r;
                    active[i] = (end, v, r);
                }
                _ => {
                    map[v] = SPILL_BIT | n_spill;
                    n_spill += 1;
                }
            }
        }
    }
    (map, n_reg, n_spill)
}

// ---------------------------------------------------------------------------
// Closure compilation
// ---------------------------------------------------------------------------

/// Expand `$m!(op, ty)` for every numeric compare × type combination —
/// the build-time monomorphization of the compare family.
macro_rules! op_ty_cross {
    ($op:expr, $ty:expr, $m:ident) => {
        match ($op, $ty) {
            (CmpOp::Eq, NumTy::I4) => $m!(Eq, I4),
            (CmpOp::Eq, NumTy::I8) => $m!(Eq, I8),
            (CmpOp::Eq, NumTy::R4) => $m!(Eq, R4),
            (CmpOp::Eq, NumTy::R8) => $m!(Eq, R8),
            (CmpOp::Ne, NumTy::I4) => $m!(Ne, I4),
            (CmpOp::Ne, NumTy::I8) => $m!(Ne, I8),
            (CmpOp::Ne, NumTy::R4) => $m!(Ne, R4),
            (CmpOp::Ne, NumTy::R8) => $m!(Ne, R8),
            (CmpOp::Lt, NumTy::I4) => $m!(Lt, I4),
            (CmpOp::Lt, NumTy::I8) => $m!(Lt, I8),
            (CmpOp::Lt, NumTy::R4) => $m!(Lt, R4),
            (CmpOp::Lt, NumTy::R8) => $m!(Lt, R8),
            (CmpOp::Le, NumTy::I4) => $m!(Le, I4),
            (CmpOp::Le, NumTy::I8) => $m!(Le, I8),
            (CmpOp::Le, NumTy::R4) => $m!(Le, R4),
            (CmpOp::Le, NumTy::R8) => $m!(Le, R8),
            (CmpOp::Gt, NumTy::I4) => $m!(Gt, I4),
            (CmpOp::Gt, NumTy::I8) => $m!(Gt, I8),
            (CmpOp::Gt, NumTy::R4) => $m!(Gt, R4),
            (CmpOp::Gt, NumTy::R8) => $m!(Gt, R8),
            (CmpOp::Ge, NumTy::I4) => $m!(Ge, I4),
            (CmpOp::Ge, NumTy::I8) => $m!(Ge, I8),
            (CmpOp::Ge, NumTy::R4) => $m!(Ge, R4),
            (CmpOp::Ge, NumTy::R8) => $m!(Ge, R8),
        }
    };
}

/// Leave the op with `$e`'s error parked in the frame, or go on with its
/// value. The ops below produce their [`Step`] directly: an inner
/// `VmResult` matched after the fact costs every op a result written to
/// memory and a drop call.
macro_rules! ok_or_exit {
    ($fr:ident, $e:expr) => {
        match $e {
            Ok(v) => v,
            Err(e) => return $fr.fail(e),
        }
    };
}

/// The object in reference slot `$s`, or leave with a
/// `NullReferenceException`.
macro_rules! non_null {
    ($fr:ident, $vm:ident, $depth:ident, $s:expr) => {
        match $fr.rref($s) {
            Some(o) => o,
            None => return $fr.fail($vm.raise_null_ref($depth)),
        }
    };
}

/// Leave with an `IndexOutOfRangeException` unless `$i` indexes `$o`.
macro_rules! in_bounds {
    ($fr:ident, $vm:ident, $depth:ident, $o:ident, $i:ident) => {
        if $i < 0 || $i as usize >= $o.array_len().unwrap_or(0) {
            return $fr.fail($vm.raise_index_oob($depth));
        }
    };
}

fn build_ops(vm: &Arc<Vm>, rir: &RirMethod) -> Vec<OpFn> {
    rir.code.iter().map(|inst| build_op(vm, inst)).collect()
}

/// `op BinOp, NumTy` monomorphized: the type/op dispatch the exec tier
/// does per execution happens once, here.
fn bin_op(op: BinOp, ty: NumTy, dst: u16, a: u16, b: Operand) -> OpFn {
    macro_rules! arm {
        ($o:ident) => {
            match ty {
                NumTy::I4 => Box::new(move |fr: &mut Frame, vm: &Arc<Vm>, depth: u32| {
                    let (x, y) = (fr.pget(a) as u32 as i32, fr.operand(&b) as u32 as i32);
                    match numerics::bin_i4(BinOp::$o, x, y) {
                        Ok(v) => fr.pset(dst, v as u32 as u64),
                        Err(_) => return fr.fail(vm.raise_div_zero(depth)),
                    }
                    Step::NEXT
                }) as OpFn,
                NumTy::I8 => Box::new(move |fr: &mut Frame, vm: &Arc<Vm>, depth: u32| {
                    let (x, y) = (fr.pget(a) as i64, fr.operand(&b) as i64);
                    match numerics::bin_i8(BinOp::$o, x, y) {
                        Ok(v) => fr.pset(dst, v as u64),
                        Err(_) => return fr.fail(vm.raise_div_zero(depth)),
                    }
                    Step::NEXT
                }) as OpFn,
                NumTy::R4 => Box::new(move |fr: &mut Frame, _: &Arc<Vm>, _: u32| {
                    let out = numerics::bin_r4(
                        BinOp::$o,
                        f32::from_bits(fr.pget(a) as u32),
                        f32::from_bits(fr.operand(&b) as u32),
                    )
                    .to_bits() as u64;
                    fr.pset(dst, out);
                    Step::NEXT
                }) as OpFn,
                NumTy::R8 => Box::new(move |fr: &mut Frame, _: &Arc<Vm>, _: u32| {
                    let out = numerics::bin_r8(
                        BinOp::$o,
                        f64::from_bits(fr.pget(a)),
                        f64::from_bits(fr.operand(&b)),
                    )
                    .to_bits();
                    fr.pset(dst, out);
                    Step::NEXT
                }) as OpFn,
            }
        };
    }
    match op {
        BinOp::Add => arm!(Add),
        BinOp::Sub => arm!(Sub),
        BinOp::Mul => arm!(Mul),
        BinOp::Div => arm!(Div),
        BinOp::Rem => arm!(Rem),
        BinOp::And => arm!(And),
        BinOp::Or => arm!(Or),
        BinOp::Xor => arm!(Xor),
        BinOp::Shl => arm!(Shl),
        BinOp::Shr => arm!(Shr),
        BinOp::ShrUn => arm!(ShrUn),
    }
}

fn cmp_op(op: CmpOp, ty: NumTy, dst: u16, a: u16, b: Operand) -> OpFn {
    macro_rules! arm {
        ($o:ident, $t:ident) => {
            Box::new(move |fr: &mut Frame, _: &Arc<Vm>, _: u32| {
                let r = numerics::cmp_bits(CmpOp::$o, NumTy::$t, fr.pget(a), fr.operand(&b));
                fr.pset(dst, r as u32 as u64);
                Step::NEXT
            }) as OpFn
        };
    }
    op_ty_cross!(op, ty, arm)
}

fn br_cmp_op(op: CmpOp, ty: NumTy, a: u16, b: Operand, t: u32) -> OpFn {
    let taken = Step::jump(t);
    macro_rules! arm {
        ($o:ident, $t:ident) => {
            Box::new(move |fr: &mut Frame, _: &Arc<Vm>, _: u32| {
                if numerics::cmp_bits(CmpOp::$o, NumTy::$t, fr.pget(a), fr.operand(&b)) != 0 {
                    taken
                } else {
                    Step::NEXT
                }
            }) as OpFn
        };
    }
    op_ty_cross!(op, ty, arm)
}

fn conv_op(from: NumTy, to: NumTy, dst: u16, src: u16) -> OpFn {
    macro_rules! arm {
        ($f:ident, $t:ident) => {
            Box::new(move |fr: &mut Frame, _: &Arc<Vm>, _: u32| {
                let v = numerics::conv_bits(NumTy::$f, NumTy::$t, fr.pget(src));
                fr.pset(dst, v);
                Step::NEXT
            }) as OpFn
        };
    }
    match (from, to) {
        (NumTy::I4, NumTy::I4) => arm!(I4, I4),
        (NumTy::I4, NumTy::I8) => arm!(I4, I8),
        (NumTy::I4, NumTy::R4) => arm!(I4, R4),
        (NumTy::I4, NumTy::R8) => arm!(I4, R8),
        (NumTy::I8, NumTy::I4) => arm!(I8, I4),
        (NumTy::I8, NumTy::I8) => arm!(I8, I8),
        (NumTy::I8, NumTy::R4) => arm!(I8, R4),
        (NumTy::I8, NumTy::R8) => arm!(I8, R8),
        (NumTy::R4, NumTy::I4) => arm!(R4, I4),
        (NumTy::R4, NumTy::I8) => arm!(R4, I8),
        (NumTy::R4, NumTy::R4) => arm!(R4, R4),
        (NumTy::R4, NumTy::R8) => arm!(R4, R8),
        (NumTy::R8, NumTy::I4) => arm!(R8, I4),
        (NumTy::R8, NumTy::I8) => arm!(R8, I8),
        (NumTy::R8, NumTy::R4) => arm!(R8, R4),
        (NumTy::R8, NumTy::R8) => arm!(R8, R8),
    }
}

/// Translate one instruction. Every closure mirrors the corresponding
/// `exec::Exec::decode` arm exactly — same evaluation order, same raise
/// helpers, same internal-error strings — so the two register tiers stay
/// bitwise interchangeable under the conformance matrix.
fn build_op(vm: &Arc<Vm>, inst: &RInst) -> OpFn {
    match inst {
        RInst::Nop => Box::new(|_, _, _| Step::NEXT),
        RInst::MovP { dst, src } => {
            let (dst, src) = (*dst, *src);
            Box::new(move |fr, _, _| {
                let v = fr.pget(src);
                fr.pset(dst, v);
                Step::NEXT
            })
        }
        RInst::MovR { dst, src } => {
            let (dst, src) = (*dst, *src);
            Box::new(move |fr, _, _| {
                let v = fr.rget(src);
                fr.rset(dst, v);
                Step::NEXT
            })
        }
        RInst::ConstP { dst, bits } => {
            let (dst, bits) = (*dst, *bits);
            Box::new(move |fr, _, _| {
                fr.pset(dst, bits);
                Step::NEXT
            })
        }
        RInst::ConstNull { dst } => {
            let dst = *dst;
            Box::new(move |fr, _, _| {
                fr.rset(dst, None);
                Step::NEXT
            })
        }
        RInst::ConstStr { dst, s } => {
            // Pre-resolved: the interned literal is captured, not looked
            // up per execution. Identity is stable either way.
            let dst = *dst;
            let lit = vm.literal(*s);
            Box::new(move |fr, _, _| {
                fr.rset(dst, Some(lit.clone()));
                Step::NEXT
            })
        }
        RInst::Bin { op, ty, dst, a, b } => bin_op(*op, *ty, *dst, *a, *b),
        RInst::Un { op, ty, dst, a } => {
            let (op, dst, a) = (*op, *dst, *a);
            match ty {
                NumTy::I4 => Box::new(move |fr, _, _| {
                    let v = numerics::un_i4(op, fr.pget(a) as u32 as i32) as u32 as u64;
                    fr.pset(dst, v);
                    Step::NEXT
                }),
                NumTy::I8 => Box::new(move |fr, _, _| {
                    let v = numerics::un_i8(op, fr.pget(a) as i64) as u64;
                    fr.pset(dst, v);
                    Step::NEXT
                }),
                NumTy::R4 => Box::new(move |fr, _, _| {
                    let v = (-f32::from_bits(fr.pget(a) as u32)).to_bits() as u64;
                    fr.pset(dst, v);
                    Step::NEXT
                }),
                NumTy::R8 => Box::new(move |fr, _, _| {
                    let v = (-f64::from_bits(fr.pget(a))).to_bits();
                    fr.pset(dst, v);
                    Step::NEXT
                }),
            }
        }
        RInst::Conv { from, to, dst, src } => conv_op(*from, *to, *dst, *src),
        RInst::Cmp { op, ty, dst, a, b } => cmp_op(*op, *ty, *dst, *a, *b),
        RInst::CmpRef { op, dst, a, b } => {
            let (dst, a, b) = (*dst, *a, *b);
            let negate = match op {
                CmpOp::Eq => false,
                CmpOp::Ne => true,
                _ => {
                    return Box::new(|fr, _, _| {
                        fr.fail(VmError::Internal("ordered ref compare".into()))
                    })
                }
            };
            Box::new(move |fr, _, _| {
                let av = fr.rget(a);
                let bv = fr.rget(b);
                let same = match (&av, &bv) {
                    (Some(x), Some(y)) => Obj::ptr_eq(x, y),
                    (None, None) => true,
                    _ => false,
                };
                fr.pset(dst, (same != negate) as u64);
                Step::NEXT
            })
        }
        RInst::Br { t } => {
            let taken = Step::jump(*t);
            Box::new(move |_, _, _| taken)
        }
        RInst::BrIf { cond, t, negate } => {
            let (cond, taken) = (*cond, Step::jump(*t));
            if *negate {
                Box::new(move |fr, _, _| if fr.pget(cond) == 0 { taken } else { Step::NEXT })
            } else {
                Box::new(move |fr, _, _| if fr.pget(cond) != 0 { taken } else { Step::NEXT })
            }
        }
        RInst::BrIfRef { cond, t, negate } => {
            let (cond, taken) = (*cond, Step::jump(*t));
            if *negate {
                Box::new(move |fr, _, _| if fr.rref(cond).is_none() { taken } else { Step::NEXT })
            } else {
                Box::new(move |fr, _, _| if fr.rref(cond).is_some() { taken } else { Step::NEXT })
            }
        }
        RInst::BrCmp { op, ty, a, b, t } => br_cmp_op(*op, *ty, *a, *b, *t),
        RInst::Call { target, virt, args, dst } => {
            let (target, virt, dst) = (*target, *virt, *dst);
            let args = args.clone();
            // Pre-resolved: whether the callee needs a this-null check.
            let is_static = vm.module.method(target).is_static;
            Box::new(move |fr, vm, depth| {
                let recv = Receiver::of_call(virt, is_static);
                ok_or_exit!(fr, call::invoke::<Threaded>(vm, fr, target, recv, &args, dst, depth));
                Step::NEXT
            })
        }
        RInst::CallIntr { i, args, dst } => {
            let (i, dst) = (*i, *dst);
            let args = args.clone();
            Box::new(move |fr, vm, depth| {
                ok_or_exit!(fr, call::intrinsic(vm, fr, i, &args, dst, depth));
                Step::NEXT
            })
        }
        RInst::Ret { src } => match *src {
            Some(src) => Box::new(move |fr, _, _| {
                let v = fr.load_value(&src);
                fr.ret(Some(v))
            }),
            None => Box::new(|fr, _, _| fr.ret(None)),
        },
        RInst::NewObj { ctor, args, dst } => {
            let (ctor, dst) = (*ctor, *dst);
            let args = args.clone();
            // Pre-resolved: the instance layout of the constructed class.
            let owner = vm.module.method(ctor).owner;
            let class = vm.module.class(owner);
            let (np, nr) = (class.n_prim_slots as usize, class.n_ref_slots as usize);
            Box::new(move |fr, vm, depth| {
                let obj = vm.heap.alloc_instance(owner, np, nr);
                let this = Receiver::Fresh(obj.clone());
                ok_or_exit!(fr, call::invoke::<Threaded>(vm, fr, ctor, this, &args, None, depth));
                fr.rset(dst, Some(obj));
                Step::NEXT
            })
        }
        RInst::LdFld { obj, slot, dst } => {
            let (obj, slot) = (*obj, *slot);
            match *dst {
                DstSlot::P(d) => Box::new(move |fr, vm, depth| {
                    let bits = non_null!(fr, vm, depth, obj).prim_field(slot);
                    fr.pset(d, bits);
                    Step::NEXT
                }),
                DstSlot::R(d) => Box::new(move |fr, vm, depth| {
                    let v = non_null!(fr, vm, depth, obj).ref_field(slot);
                    fr.rset(d, v);
                    Step::NEXT
                }),
            }
        }
        RInst::StFld { obj, slot, src } => {
            let (obj, slot) = (*obj, *slot);
            match *src {
                ArgSlot::P(_, s) => Box::new(move |fr, vm, depth| {
                    let bits = fr.pget(s);
                    non_null!(fr, vm, depth, obj).set_prim_field(slot, bits);
                    Step::NEXT
                }),
                ArgSlot::R(s) => Box::new(move |fr, vm, depth| {
                    let v = fr.rget(s);
                    non_null!(fr, vm, depth, obj).set_ref_field(slot, v);
                    Step::NEXT
                }),
            }
        }
        RInst::LdSFld { slot, dst } => {
            let slot = *slot as usize;
            match *dst {
                DstSlot::P(d) => Box::new(move |fr, vm, _| {
                    let bits = vm.statics.prim[slot].load(Ordering::Relaxed);
                    fr.pset(d, bits);
                    Step::NEXT
                }),
                DstSlot::R(d) => Box::new(move |fr, vm, _| {
                    let v = vm.statics.refs[slot].get();
                    fr.rset(d, v);
                    Step::NEXT
                }),
            }
        }
        RInst::StSFld { slot, src } => {
            let slot = *slot as usize;
            match *src {
                ArgSlot::P(_, s) => Box::new(move |fr, vm, _| {
                    vm.statics.prim[slot].store(fr.pget(s), Ordering::Relaxed);
                    Step::NEXT
                }),
                ArgSlot::R(s) => Box::new(move |fr, vm, _| {
                    vm.statics.refs[slot].set(fr.rget(s));
                    Step::NEXT
                }),
            }
        }
        RInst::IsInst { class, src, dst } => {
            let (class, src, dst) = (*class, *src, *dst);
            Box::new(move |fr, vm, _| {
                let r = match fr.rget(src) {
                    Some(o) => vm.instance_of(&o, class),
                    None => false,
                };
                fr.pset(dst, r as u64);
                Step::NEXT
            })
        }
        RInst::CastClass { class, src, dst } => {
            let (class, src, dst) = (*class, *src, *dst);
            Box::new(move |fr, vm, depth| {
                let v = fr.rget(src);
                if let Some(o) = &v {
                    if !vm.instance_of(o, class) {
                        return fr.fail(vm.raise_invalid_cast(depth));
                    }
                }
                fr.rset(dst, v);
                Step::NEXT
            })
        }
        RInst::NewArr { kind, len, dst } => {
            let (kind, len, dst) = (*kind, *len, *dst);
            Box::new(move |fr, vm, depth| {
                let n = fr.pget(len) as u32 as i32;
                if n < 0 {
                    return fr.fail(vm.raise_index_oob(depth));
                }
                let arr = vm.heap.alloc_array(kind, n as usize);
                fr.rset(dst, Some(arr));
                Step::NEXT
            })
        }
        RInst::LdLen { arr, dst } => {
            let (arr, dst) = (*arr, *dst);
            Box::new(move |fr, vm, depth| {
                let Some(n) = non_null!(fr, vm, depth, arr).array_len() else {
                    return fr.fail(VmError::Internal("ldlen on non-array".into()));
                };
                fr.pset(dst, n as u64);
                Step::NEXT
            })
        }
        RInst::LdElem { kind, arr, idx, dst, bounds } => {
            let (arr, idx, checked) = (*arr, *idx, bounds.is_checked());
            match (kind.num_ty().is_some(), *dst) {
                (true, DstSlot::P(d)) if checked => Box::new(move |fr, vm, depth| {
                    let i = fr.pget(idx) as u32 as i32;
                    let o = non_null!(fr, vm, depth, arr);
                    in_bounds!(fr, vm, depth, o, i);
                    let Some(cell) = o.prim_data().get(i as usize) else {
                        return fr.fail(unchecked_oob());
                    };
                    let bits = cell.load(Ordering::Relaxed);
                    fr.pset(d, bits);
                    Step::NEXT
                }),
                (true, DstSlot::P(d)) => Box::new(move |fr, vm, depth| {
                    let i = fr.pget(idx) as u32 as i32;
                    let o = non_null!(fr, vm, depth, arr);
                    let Some(cell) = o.prim_data().get(i as usize) else {
                        return fr.fail(unchecked_oob());
                    };
                    let bits = cell.load(Ordering::Relaxed);
                    fr.pset(d, bits);
                    Step::NEXT
                }),
                (false, DstSlot::R(d)) if checked => Box::new(move |fr, vm, depth| {
                    let i = fr.pget(idx) as u32 as i32;
                    let o = non_null!(fr, vm, depth, arr);
                    in_bounds!(fr, vm, depth, o, i);
                    let Some(cell) = o.ref_data().get(i as usize) else {
                        return fr.fail(unchecked_oob());
                    };
                    let v = cell.get();
                    fr.rset(d, v);
                    Step::NEXT
                }),
                (false, DstSlot::R(d)) => Box::new(move |fr, vm, depth| {
                    let i = fr.pget(idx) as u32 as i32;
                    let o = non_null!(fr, vm, depth, arr);
                    let Some(cell) = o.ref_data().get(i as usize) else {
                        return fr.fail(unchecked_oob());
                    };
                    let v = cell.get();
                    fr.rset(d, v);
                    Step::NEXT
                }),
                _ => Box::new(|fr, _, _| fr.fail(VmError::Internal("elem kind mismatch".into()))),
            }
        }
        RInst::StElem { kind, arr, idx, src, bounds } => {
            let (arr, idx, checked) = (*arr, *idx, bounds.is_checked());
            let mask = *kind == ElemKind::U1;
            match *src {
                ArgSlot::P(_, s) if checked => Box::new(move |fr, vm, depth| {
                    let i = fr.pget(idx) as u32 as i32;
                    let mut bits = fr.pget(s);
                    let o = non_null!(fr, vm, depth, arr);
                    in_bounds!(fr, vm, depth, o, i);
                    if mask {
                        bits &= 0xFF;
                    }
                    o.mark_dirty();
                    let Some(cell) = o.prim_data().get(i as usize) else {
                        return fr.fail(unchecked_oob());
                    };
                    cell.store(bits, Ordering::Relaxed);
                    Step::NEXT
                }),
                ArgSlot::P(_, s) => Box::new(move |fr, vm, depth| {
                    let i = fr.pget(idx) as u32 as i32;
                    let mut bits = fr.pget(s);
                    let o = non_null!(fr, vm, depth, arr);
                    if mask {
                        bits &= 0xFF;
                    }
                    o.mark_dirty();
                    let Some(cell) = o.prim_data().get(i as usize) else {
                        return fr.fail(unchecked_oob());
                    };
                    cell.store(bits, Ordering::Relaxed);
                    Step::NEXT
                }),
                ArgSlot::R(s) if checked => Box::new(move |fr, vm, depth| {
                    let i = fr.pget(idx) as u32 as i32;
                    let v = fr.rget(s);
                    let o = non_null!(fr, vm, depth, arr);
                    in_bounds!(fr, vm, depth, o, i);
                    o.mark_dirty();
                    let Some(cell) = o.ref_data().get(i as usize) else {
                        return fr.fail(unchecked_oob());
                    };
                    cell.set(v);
                    Step::NEXT
                }),
                ArgSlot::R(s) => Box::new(move |fr, vm, depth| {
                    let i = fr.pget(idx) as u32 as i32;
                    let v = fr.rget(s);
                    let o = non_null!(fr, vm, depth, arr);
                    o.mark_dirty();
                    let Some(cell) = o.ref_data().get(i as usize) else {
                        return fr.fail(unchecked_oob());
                    };
                    cell.set(v);
                    Step::NEXT
                }),
            }
        }
        RInst::NewMulti { kind, dims, dst } => {
            let (kind, dst) = (*kind, *dst);
            let dims = dims.clone();
            Box::new(move |fr, vm, depth| {
                let mut lens = Vec::with_capacity(dims.len());
                for d in dims.iter() {
                    let n = fr.pget(*d) as u32 as i32;
                    if n < 0 {
                        return fr.fail(vm.raise_index_oob(depth));
                    }
                    lens.push(n as u32);
                }
                let arr = vm.heap.alloc_multi(kind, &lens);
                fr.rset(dst, Some(arr));
                Step::NEXT
            })
        }
        RInst::LdElemMulti { kind, arr, idxs, dst, helper } => {
            let (kind, arr, dst, helper) = (*kind, *arr, *dst, *helper);
            let idxs = idxs.clone();
            Box::new(move |fr, vm, depth| {
                let mut vals = [0i32; 3];
                for (k, s) in idxs.iter().enumerate() {
                    vals[k] = fr.pget(*s) as u32 as i32;
                }
                let o = non_null!(fr, vm, depth, arr);
                let Some(off) = multi_offset_of(o, &vals[..idxs.len()], helper) else {
                    return fr.fail(vm.raise_index_oob(depth));
                };
                match (dst, ok_or_exit!(fr, elem_read(o, kind, off))) {
                    (DstSlot::P(d), Loaded::Bits(b)) => fr.pset(d, b),
                    (DstSlot::R(d), Loaded::Ref(v)) => fr.rset(d, v),
                    _ => return fr.fail(VmError::Internal("elem kind mismatch".into())),
                }
                Step::NEXT
            })
        }
        RInst::StElemMulti { kind, arr, idxs, src, helper } => {
            let (kind, arr, src, helper) = (*kind, *arr, *src, *helper);
            let idxs = idxs.clone();
            Box::new(move |fr, vm, depth| {
                let mut vals = [0i32; 3];
                for (k, s) in idxs.iter().enumerate() {
                    vals[k] = fr.pget(*s) as u32 as i32;
                }
                let val = match src {
                    ArgSlot::P(_, s) => Loaded::Bits(fr.pget(s)),
                    ArgSlot::R(s) => Loaded::Ref(fr.rget(s)),
                };
                let o = non_null!(fr, vm, depth, arr);
                let Some(off) = multi_offset_of(o, &vals[..idxs.len()], helper) else {
                    return fr.fail(vm.raise_index_oob(depth));
                };
                ok_or_exit!(fr, elem_write(o, kind, off, val));
                Step::NEXT
            })
        }
        RInst::LdMultiLen { arr, dim, dst } => {
            let (arr, dim, dst) = (*arr, *dim as usize, *dst);
            Box::new(move |fr, vm, depth| {
                let Some(dims) = non_null!(fr, vm, depth, arr).multi_dims() else {
                    return fr.fail(VmError::Internal("GetLength on non-multi".into()));
                };
                let Some(&n) = dims.get(dim) else {
                    return fr.fail(vm.raise_index_oob(depth));
                };
                fr.pset(dst, n as u64);
                Step::NEXT
            })
        }
        RInst::BoxV { ty, src, dst } => {
            let (ty, src, dst) = (*ty, *src, *dst);
            Box::new(move |fr, vm, _| {
                let o = vm.heap.alloc_boxed(ty, fr.pget(src));
                fr.rset(dst, Some(o));
                Step::NEXT
            })
        }
        RInst::UnboxV { ty, src, dst } => {
            let (ty, src, dst) = (*ty, *src, *dst);
            Box::new(move |fr, vm, depth| {
                match &non_null!(fr, vm, depth, src).body {
                    ObjBody::Boxed { ty: t2, bits } if *t2 == ty => {
                        let bits = *bits;
                        fr.pset(dst, bits);
                    }
                    _ => return fr.fail(vm.raise_invalid_cast(depth)),
                }
                Step::NEXT
            })
        }
        RInst::Throw { src } => {
            let src = *src;
            Box::new(move |fr, vm, depth| {
                let Some(o) = fr.rget(src) else {
                    return fr.fail(vm.raise_null_ref(depth));
                };
                vm.note_throw(depth);
                fr.fail(VmError::Exception(o))
            })
        }
        RInst::Leave { t } => {
            let t = *t;
            Box::new(move |fr, _, _| fr.exit(Exit::Leave(t)))
        }
        RInst::EndFinally => Box::new(|fr, _, _| fr.exit(Exit::EndFinally)),
    }
}
