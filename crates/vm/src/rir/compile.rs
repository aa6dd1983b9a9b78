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
//! method body becomes a flat `Vec` of those closures indexed by pc. A
//! closure holds no semantics of its own: it calls the instruction's body
//! in the `ops` module — the one the exec tier's decode calls — with the
//! operator, the type, the bounds-check flag and U1 masking passed as
//! constants, so the Rust compiler folds away the dispatch on them that
//! the exec tier performs per execution.
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

use crate::call::{Frame, Receiver, Step};
use crate::compiled::Threaded;
use crate::error::VmResult;
use crate::machine::Vm;
use crate::ops::{self, At, Layout};
use crate::rir::lower::{self, Lowered};
use crate::rir::{opt, ArgSlot, DstSlot, RInst, RirMethod, SPILL_BIT};
use hpcnet_cil::module::MethodId;
use hpcnet_cil::{BinOp, CmpOp, ElemKind, NumTy};
use std::collections::{BTreeSet, HashSet};
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

/// Box `|fr, vm, depth| body` as an [`OpFn`].
macro_rules! op {
    (|$fr:pat_param, $vm:pat_param, $depth:pat_param| $body:expr) => {
        Box::new(move |$fr: &mut Frame, $vm: &Arc<Vm>, $depth: u32| $body) as OpFn
    };
}

/// `$body` with `$c` a *constant* equal to the value of `$e` — one copy of
/// `$body` per value. Passed to an `#[inline(always)]` op, the constant
/// folds every branch the op takes on it.
macro_rules! specialize {
    ($e:expr => $c:ident: bool in $body:expr) => {
        if $e {
            const $c: bool = true;
            $body
        } else {
            const $c: bool = false;
            $body
        }
    };
    ($e:expr => $c:ident: $T:ident { $($v:ident),+ } in $body:expr) => {
        match $e {
            $($T::$v => {
                const $c: $T = $T::$v;
                $body
            })+
        }
    };
}

fn build_ops(vm: &Arc<Vm>, rir: &RirMethod) -> Vec<OpFn> {
    rir.code.iter().map(|inst| build_op(vm, inst)).collect()
}

/// Translate one instruction into a closure over its operands that calls
/// its body in [`crate::ops`]. What is known now is resolved now: string
/// literals, constructor layouts and whether a callee is static are
/// captured, and the op, the type, the bounds check and U1 masking are
/// specialized into constants.
fn build_op(vm: &Arc<Vm>, inst: &RInst) -> OpFn {
    match *inst {
        RInst::Nop => op!(|_, _, _| Step::NEXT),
        RInst::MovP { dst, src } => op!(|fr, _, _| ops::mov_p(fr, dst, src)),
        RInst::MovR { dst, src } => op!(|fr, _, _| ops::mov_r(fr, dst, src)),
        RInst::ConstP { dst, bits } => op!(|fr, _, _| ops::const_p(fr, dst, bits)),
        RInst::ConstNull { dst } => op!(|fr, _, _| ops::const_ref(fr, dst, None)),
        RInst::ConstStr { dst, s } => {
            let lit = vm.literal(s);
            op!(|fr, _, _| ops::const_ref(fr, dst, Some(lit.clone())))
        }
        RInst::Bin { op, ty, dst, a, b } => specialize!(
            op => OP: BinOp { Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr, ShrUn } in
            specialize!(ty => TY: NumTy { I4, I8, R4, R8 } in
                op!(|fr, vm, depth| ops::bin(fr, vm, depth, OP, TY, dst, a, b)))
        ),
        RInst::Un { op, ty, dst, a } => specialize!(
            ty => TY: NumTy { I4, I8, R4, R8 } in op!(|fr, _, _| ops::un(fr, op, TY, dst, a))
        ),
        RInst::Conv { from, to, dst, src } => specialize!(
            from => FROM: NumTy { I4, I8, R4, R8 } in
            specialize!(to => TO: NumTy { I4, I8, R4, R8 } in
                op!(|fr, _, _| ops::conv(fr, FROM, TO, dst, src)))
        ),
        RInst::Cmp { op, ty, dst, a, b } => specialize!(
            op => OP: CmpOp { Eq, Ne, Lt, Le, Gt, Ge } in
            specialize!(ty => TY: NumTy { I4, I8, R4, R8 } in
                op!(|fr, _, _| ops::cmp(fr, OP, TY, dst, a, b)))
        ),
        RInst::CmpRef { op, dst, a, b } => specialize!(
            op => OP: CmpOp { Eq, Ne, Lt, Le, Gt, Ge } in
            op!(|fr, _, _| ops::cmp_ref(fr, OP, dst, a, b))
        ),
        RInst::Br { t } => {
            let taken = Step::jump(t);
            op!(|_, _, _| taken)
        }
        RInst::BrIf { cond, t, negate } => specialize!(
            negate => NEGATE: bool in op!(|fr, _, _| ops::br_if(fr, cond, t, NEGATE))
        ),
        RInst::BrIfRef { cond, t, negate } => specialize!(
            negate => NEGATE: bool in op!(|fr, _, _| ops::br_if_ref(fr, cond, t, NEGATE))
        ),
        RInst::BrCmp { op, ty, a, b, t } => specialize!(
            op => OP: CmpOp { Eq, Ne, Lt, Le, Gt, Ge } in
            specialize!(ty => TY: NumTy { I4, I8, R4, R8 } in
                op!(|fr, _, _| ops::br_cmp(fr, OP, TY, a, b, t)))
        ),
        RInst::Call { target, virt, ref args, dst } => {
            let args = args.clone();
            let is_static = vm.module.method(target).is_static;
            op!(|fr, vm, depth| {
                let recv = Receiver::of_call(virt, is_static);
                ops::call::<Threaded>(fr, vm, depth, target, recv, &args, dst)
            })
        }
        RInst::CallIntr { i, ref args, dst } => {
            let args = args.clone();
            op!(|fr, vm, depth| ops::intrinsic(fr, vm, depth, i, &args, dst))
        }
        RInst::Ret { src } => match src {
            Some(src) => op!(|fr, _, _| ops::ret(fr, Some(src))),
            None => op!(|fr, _, _| ops::ret(fr, None)),
        },
        RInst::NewObj { ctor, ref args, dst } => {
            let args = args.clone();
            let layout = Layout::of(vm, ctor);
            op!(|fr, vm, depth| ops::new_obj::<Threaded>(fr, vm, depth, ctor, layout, &args, dst))
        }
        RInst::LdFld { obj, slot, dst } => match dst {
            DstSlot::P(d) => {
                op!(|fr, vm, depth| ops::ld_fld(fr, vm, depth, obj, slot, DstSlot::P(d)))
            }
            DstSlot::R(d) => {
                op!(|fr, vm, depth| ops::ld_fld(fr, vm, depth, obj, slot, DstSlot::R(d)))
            }
        },
        RInst::StFld { obj, slot, src } => match src {
            ArgSlot::P(t, s) => {
                op!(|fr, vm, depth| ops::st_fld(fr, vm, depth, obj, slot, ArgSlot::P(t, s)))
            }
            ArgSlot::R(s) => {
                op!(|fr, vm, depth| ops::st_fld(fr, vm, depth, obj, slot, ArgSlot::R(s)))
            }
        },
        RInst::LdSFld { slot, dst } => match dst {
            DstSlot::P(d) => op!(|fr, vm, _| ops::ld_sfld(fr, vm, slot, DstSlot::P(d))),
            DstSlot::R(d) => op!(|fr, vm, _| ops::ld_sfld(fr, vm, slot, DstSlot::R(d))),
        },
        RInst::StSFld { slot, src } => match src {
            ArgSlot::P(t, s) => op!(|fr, vm, _| ops::st_sfld(fr, vm, slot, ArgSlot::P(t, s))),
            ArgSlot::R(s) => op!(|fr, vm, _| ops::st_sfld(fr, vm, slot, ArgSlot::R(s))),
        },
        RInst::IsInst { class, src, dst } => op!(|fr, vm, _| ops::is_inst(fr, vm, class, src, dst)),
        RInst::CastClass { class, src, dst } => {
            op!(|fr, vm, depth| ops::cast_class(fr, vm, depth, class, src, dst))
        }
        RInst::NewArr { kind, len, dst } => {
            op!(|fr, vm, depth| ops::new_arr(fr, vm, depth, kind, len, dst))
        }
        RInst::LdLen { arr, dst } => op!(|fr, vm, depth| ops::ld_len(fr, vm, depth, arr, dst)),
        RInst::LdElem { kind, dst, .. } | RInst::LdElemMulti { kind, dst, .. }
            if !ops::loads_into(kind, dst) =>
        {
            op!(|fr, _, _| ops::elem_kind_mismatch(fr))
        }
        RInst::LdElem { arr, idx, dst, bounds, .. } => specialize!(
            bounds.is_checked() => CHECKED: bool in match dst {
                DstSlot::P(d) => op!(|fr, vm, depth| {
                    ops::ld_elem(fr, vm, depth, arr, At::Sz(idx, CHECKED), DstSlot::P(d))
                }),
                DstSlot::R(d) => op!(|fr, vm, depth| {
                    ops::ld_elem(fr, vm, depth, arr, At::Sz(idx, CHECKED), DstSlot::R(d))
                }),
            }
        ),
        RInst::StElem { kind, arr, idx, src, bounds } => specialize!(
            bounds.is_checked() => CHECKED: bool in match src {
                ArgSlot::P(t, s) => specialize!(kind == ElemKind::U1 => MASK: bool in op!(
                    |fr, vm, depth| {
                        let at = At::Sz(idx, CHECKED);
                        ops::st_elem(fr, vm, depth, arr, at, ArgSlot::P(t, s), MASK)
                    }
                )),
                ArgSlot::R(s) => op!(|fr, vm, depth| {
                    ops::st_elem(fr, vm, depth, arr, At::Sz(idx, CHECKED), ArgSlot::R(s), false)
                }),
            }
        ),
        RInst::NewMulti { kind, ref dims, dst } => {
            let dims = dims.clone();
            op!(|fr, vm, depth| ops::new_multi(fr, vm, depth, kind, &dims, dst))
        }
        RInst::LdElemMulti { arr, ref idxs, dst, helper, .. } => {
            let idxs = idxs.clone();
            match dst {
                DstSlot::P(d) => op!(|fr, vm, depth| {
                    ops::ld_elem(fr, vm, depth, arr, At::Multi(&idxs, helper), DstSlot::P(d))
                }),
                DstSlot::R(d) => op!(|fr, vm, depth| {
                    ops::ld_elem(fr, vm, depth, arr, At::Multi(&idxs, helper), DstSlot::R(d))
                }),
            }
        }
        RInst::StElemMulti { kind, arr, ref idxs, src, helper } => {
            let (idxs, mask) = (idxs.clone(), kind == ElemKind::U1);
            op!(|fr, vm, depth| {
                ops::st_elem(fr, vm, depth, arr, At::Multi(&idxs, helper), src, mask)
            })
        }
        RInst::LdMultiLen { arr, dim, dst } => {
            op!(|fr, vm, depth| ops::ld_multi_len(fr, vm, depth, arr, dim, dst))
        }
        RInst::BoxV { ty, src, dst } => op!(|fr, vm, _| ops::box_v(fr, vm, ty, src, dst)),
        RInst::UnboxV { ty, src, dst } => {
            op!(|fr, vm, depth| ops::unbox_v(fr, vm, depth, ty, src, dst))
        }
        RInst::Throw { src } => op!(|fr, vm, depth| ops::throw(fr, vm, depth, src)),
        RInst::Leave { t } => op!(|fr, _, _| ops::leave(fr, t)),
        RInst::EndFinally => op!(|fr, _, _| ops::end_finally(fr)),
    }
}
