//! RIR → closure code for both register tiers ([`crate::compiled`]).
//!
//! A JIT emits machine code once; executing it decodes nothing. This
//! module gets the same shape the way direct-threaded VMs do: each
//! instruction is translated **once** into a pre-resolved closure
//! (operands, immediates, string literals, class layouts and callee
//! null-check requirements are all captured at compile time), and the
//! method body becomes a flat array of those closures indexed by pc. A
//! closure holds no semantics of its own: it calls the instruction's body
//! in the `ops` module with the operator, the type, the bounds-check flag
//! and U1 masking passed as constants, so the Rust compiler folds away
//! every branch on them.
//!
//! **One allocation, two rankings, one code.** Before the closures are
//! built, `rir::alloc` places the optimized RIR's virtual registers in the
//! frame's register files or spill slots, ranking them by static use count
//! on [`Tier::Rir`](crate::profile::Tier::Rir) (CLR 1.x's reference-count
//! enregistration, the one `jit_compare`'s Tables 6–8 print) or by linear
//! scan on [`Tier::Compiled`](crate::profile::Tier::Compiled). Nothing
//! after allocation depends on the tier.
//!
//! **Superinstructions.** A closure call per instruction still pays one
//! indirect call for a register move. So on a VM that is not observing,
//! in a method without exception regions, adjacent pairs fuse into one
//! *slot* of the op array (not to be confused with the frame slots below)
//! whose closure runs both bodies inlined: a constant and the
//! `Bin`, `brcmp` or `stelem` reading it (as an immediate unless it was
//! spilled), a `Bin` and the move of its result, a move and a `br`, and a
//! `br` and the `brcmp` it lands on. The op array is compacted and branch
//! targets are remapped to slots here, at build time; the RIR, its
//! counters and the dispatch loop are untouched. An observing VM keeps one
//! slot per instruction, so `ops[pc]` pairs with `rir.code[pc]` for the
//! observer's attribution, as it does in methods with exception regions.
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
//! // The linear-scan profile shares the CLR 1.1 knobs.
//! let vm = Vm::new(mb.finish(), VmProfile::clr11_compiled()).unwrap();
//! let r = vm.invoke_by_name("P.Sum", vec![Value::I4(10)]).unwrap();
//! assert_eq!(r.unwrap().as_i4(), 45);
//! ```

use crate::call::{Frame, Receiver, Step};
use crate::compiled::{CompiledMethod, OpFn};
use crate::error::VmResult;
use crate::machine::Vm;
use crate::ops::{self, At, Layout};
use crate::rir::{alloc, is_spill, opt, ArgSlot, BoundsMode, DstSlot, Operand, RInst, RirMethod};
use hpcnet_cil::module::MethodId;
use hpcnet_cil::{BinOp, CmpOp, ElemKind, Intrinsic, NumTy};
use hpcnet_runtime::math::Routine;
use std::sync::Arc;

/// Compile a method for a register tier: lower, run the shared
/// optimization pipeline, place registers with the ranking of the
/// profile's tier (`rir::alloc`), then close over every instruction. Both
/// tiers emit the same `JitCompile` trace events.
pub(crate) fn compile(vm: &Arc<Vm>, method: MethodId) -> VmResult<CompiledMethod> {
    let (lowered, res) = crate::rir::share::front(vm, method)?;
    let t = vm.observer.phase_start();
    let rir = alloc::allocate(vm, method, lowered, &res.force_spill_p);
    vm.observer.phase_end(crate::observe::VmPhase::JitAllocate, t);
    opt::push_compile_events(vm, method, &rir, res);
    let ops = build_ops(vm, &rir);
    Ok(CompiledMethod { rir: Arc::new(rir), ops })
}

// ---------------------------------------------------------------------------
// Closure compilation
// ---------------------------------------------------------------------------

/// Box `|fr, vm, depth| body` as an [`OpFn`] — or, written `w => |…| body`,
/// hand the closure to `w`, an [`Around`], to complete its slot.
macro_rules! op {
    ($w:expr => |$fr:pat_param, $vm:pat_param, $depth:pat_param| $body:expr) => {
        $w.slot(move |$fr: &mut Frame, $vm: &Arc<Vm>, $depth: u32| $body)
    };
    (|$fr:pat_param, $vm:pat_param, $depth:pat_param| $body:expr) => {
        Box::new(move |$fr: &mut Frame, $vm: &Arc<Vm>, $depth: u32| $body) as OpFn
    };
}

/// `$body` with `$c` a *constant* equal to the value of `$e` — one copy of
/// `$body` per value. Passed to an `#[inline(always)]` op, the constant
/// folds every branch the op takes on it. An `Operand` is a payload, not a
/// constant: `$c()` builds it with its kind, slot or immediate, fixed.
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
    ($e:expr => $c:ident: Operand in $body:expr) => {
        match $e {
            Operand::Slot(s) => {
                let $c = move || Operand::Slot(s);
                $body
            }
            Operand::Imm(v) => {
                let $c = move || Operand::Imm(v);
                $body
            }
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

/// A method's op array, one closure per *slot*: an instruction, or a pair
/// [`fuses`] accepts. [`Build::new`] says where pairs may form.
fn build_ops(vm: &Arc<Vm>, rir: &RirMethod) -> Box<[OpFn]> {
    let b = Build::new(vm, rir);
    let mut ops = Vec::with_capacity(b.slot[b.code.len()] as usize);
    let mut pc = 0;
    while pc < b.code.len() {
        if b.slot[pc + 1] == b.slot[pc] {
            ops.push(b.pair(&b.code[pc], &b.code[pc + 1]));
            pc += 2;
        } else {
            ops.push(build_op(&b, &b.code[pc]));
            pc += 1;
        }
    }
    ops.into_boxed_slice()
}

/// Does one slot carry `a` then `b`? The pairs frequent in executed code:
/// a constant and the `Bin`, `brcmp` or primitive `stelem` that reads it,
/// a `Bin` and the move that copies its result, a move and the `br` after
/// it. [`Build::pair`] builds them.
fn fuses(a: &RInst, b: &RInst) -> bool {
    match (a, b) {
        (
            RInst::ConstP { dst, .. },
            RInst::Bin { b: Operand::Slot(c), .. }
            | RInst::BrCmp { b: Operand::Slot(c), .. }
            | RInst::StElem { src: ArgSlot::P(_, c), .. },
        ) => c == dst,
        (RInst::Bin { dst, .. }, RInst::MovP { src, .. }) => src == dst,
        (RInst::MovP { .. }, RInst::Br { .. }) => true,
        _ => false,
    }
}

/// The `brcmp` at `t`, if a `br` to it may run it in its own slot: the
/// test must fall through to an instruction of the method.
fn test_at(code: &[RInst], t: u32) -> Option<&RInst> {
    let t = t as usize;
    code.get(t)
        .filter(|i| matches!(i, RInst::BrCmp { .. }) && t + 1 < code.len())
}

/// One method's closures under construction.
struct Build<'a> {
    vm: &'a Arc<Vm>,
    code: &'a [RInst],
    /// The slot each instruction runs in, and one past the last.
    slot: Vec<u32>,
    /// Whether the method fuses; then a `br` to a [`test_at`] also runs
    /// the test.
    fuse: bool,
}

impl<'a> Build<'a> {
    /// Lay `rir` into slots. Only unobserved methods without exception
    /// regions fuse: the observer attributes every executed op to its
    /// `RInst` by pc, and handler ranges, `leave` targets and `covers(pc)`
    /// speak in instruction pcs. Elsewhere a slot is an instruction.
    ///
    /// The second instruction of a pair is never where control enters
    /// other than by falling through — pc 0, a branch target, or the
    /// instruction after a test a `br` runs — so every jump lands on the
    /// first instruction of a slot and is remapped to that slot's index,
    /// and the dispatch loop's `pc += 1` stays right.
    fn new(vm: &'a Arc<Vm>, rir: &'a RirMethod) -> Self {
        let code = &rir.code[..];
        let fuse = !vm.observer.enabled() && rir.eh.is_empty();
        let mut entry = vec![false; code.len() + 1];
        entry[0] = true;
        for inst in code {
            let Some(t) = inst.target() else { continue };
            if let Some(e) = entry.get_mut(t as usize) {
                *e = true;
            }
            if fuse && matches!(inst, RInst::Br { .. }) && test_at(code, t).is_some() {
                entry[t as usize + 1] = true;
            }
        }
        let mut slot = Vec::with_capacity(code.len() + 1);
        let mut n = 0;
        let mut pc = 0;
        while pc < code.len() {
            slot.push(n);
            let second = code.get(pc + 1).filter(|_| fuse && !entry[pc + 1]);
            if second.is_some_and(|b| fuses(&code[pc], b)) {
                slot.push(n);
                pc += 1;
            }
            pc += 1;
            n += 1;
        }
        slot.push(n);
        Build { vm, code, slot, fuse }
    }

    /// The slot a branch to instruction `t` lands on. (Verified code
    /// branches to instructions of its own method.)
    fn to(&self, t: u32) -> u32 {
        self.slot[t as usize]
    }

    /// The closure of a slot that runs `a` then `b`: for each shape
    /// [`fuses`] accepts, one closure with both bodies inlined.
    fn pair(&self, a: &RInst, b: &RInst) -> OpFn {
        match (a, b) {
            (&RInst::ConstP { dst, bits }, &RInst::Bin { op, ty, dst: d, a, b }) => {
                let k = ConstBefore(dst, bits);
                bin(k, op, ty, d, a, k.operand(b))
            }
            (&RInst::ConstP { dst, bits }, &RInst::BrCmp { op, ty, a, b, t }) => {
                let k = ConstBefore(dst, bits);
                br_cmp(k, op, ty, a, k.operand(b), self.to(t))
            }
            (
                &RInst::ConstP { dst, bits },
                &RInst::StElem { kind, arr, idx, src: ArgSlot::P(ty, s), bounds },
            ) => st_elem_p(ConstBefore(dst, bits), kind, arr, idx, ty, s, bounds),
            (&RInst::Bin { op, ty, dst, a, b }, &RInst::MovP { dst: d, src }) => {
                bin(MovAfter(d, src), op, ty, dst, a, b)
            }
            (&RInst::MovP { dst, src }, &RInst::Br { t }) => self.br(MovBefore(dst, src), t),
            // Any other pair runs as its two closures would.
            _ => {
                let (a, b) = (build_op(self, a), build_op(self, b));
                op!(|fr, vm, depth| match a(fr, vm, depth) {
                    Step::NEXT => b(fr, vm, depth),
                    other => other,
                })
            }
        }
    }

    /// `br t`. When fusing and `t` holds a test, the test runs here.
    fn br(&self, w: impl Around, t: u32) -> OpFn {
        match test_at(self.code, t).filter(|_| self.fuse) {
            Some(&RInst::BrCmp { op, ty, a, b, t: taken }) => {
                br_to_test(w, op, ty, a, b, self.to(taken), self.to(t + 1))
            }
            _ => {
                let taken = Step::jump(self.to(t));
                op!(w => |_, _, _| taken)
            }
        }
    }
}

/// Translate one instruction into a closure over its operands that calls
/// its body in [`crate::ops`]. What is known now is resolved now: string
/// literals, constructor layouts, whether a callee is static and the slot
/// a branch lands on are captured, and the op, the type, the bounds check
/// and U1 masking are specialized into constants.
fn build_op(build: &Build, inst: &RInst) -> OpFn {
    let vm = build.vm;
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
        RInst::Bin { op, ty, dst, a, b } => bin(Alone, op, ty, dst, a, b),
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
        RInst::Br { t } => build.br(Alone, t),
        RInst::BrIf { cond, t, negate } => {
            let t = build.to(t);
            specialize!(
                negate => NEGATE: bool in op!(|fr, _, _| ops::br_if(fr, cond, t, NEGATE))
            )
        }
        RInst::BrIfRef { cond, t, negate } => {
            let t = build.to(t);
            specialize!(
                negate => NEGATE: bool in op!(|fr, _, _| ops::br_if_ref(fr, cond, t, NEGATE))
            )
        }
        RInst::BrCmp { op, ty, a, b, t } => br_cmp(Alone, op, ty, a, b, build.to(t)),
        RInst::Call { target, virt, ref args, dst } => {
            let args = args.clone();
            let is_static = vm.module.method(target).is_static;
            op!(|fr, vm, depth| {
                let recv = Receiver::of_call(virt, is_static);
                ops::call(fr, vm, depth, target, recv, &args, dst)
            })
        }
        RInst::CallIntr { i, ref args, dst } => match (i, &args[..]) {
            (Intrinsic::MonitorEnter, &[ArgSlot::R(s)]) => {
                op!(|fr, vm, depth| ops::monitor(fr, vm, depth, true, s))
            }
            (Intrinsic::MonitorExit, &[ArgSlot::R(s)]) => {
                op!(|fr, vm, depth| ops::monitor(fr, vm, depth, false, s))
            }
            _ => match ops::math_slots(vm, i, args, dst) {
                Some((Routine::Unary(f), x, _, d)) => {
                    op!(|fr, _, _| ops::math(fr, Routine::Unary(f), x, x, d))
                }
                Some((Routine::Binary(f), x, y, d)) => {
                    op!(|fr, _, _| ops::math(fr, Routine::Binary(f), x, y, d))
                }
                None => {
                    let args = args.clone();
                    op!(|fr, vm, depth| ops::intrinsic(fr, vm, depth, i, &args, dst))
                }
            },
        },
        RInst::Ret { src } => match src {
            Some(src) => op!(|fr, _, _| ops::ret(fr, Some(src))),
            None => op!(|fr, _, _| ops::ret(fr, None)),
        },
        RInst::NewObj { ctor, ref args, dst } => {
            let args = args.clone();
            let layout = Layout::of(vm, ctor);
            op!(|fr, vm, depth| ops::new_obj(fr, vm, depth, ctor, layout, &args, dst))
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
        RInst::StElem { kind, arr, idx, src, bounds } => match src {
            ArgSlot::P(ty, s) => st_elem_p(Alone, kind, arr, idx, ty, s, bounds),
            ArgSlot::R(s) => specialize!(bounds.is_checked() => CHECKED: bool in op!(
                |fr, vm, depth| {
                    let at = At::Sz(idx, CHECKED);
                    ops::st_elem(fr, vm, depth, arr, at, ArgSlot::R(s), false)
                }
            )),
        },
        RInst::NewMulti { kind, ref dims, dst } => {
            let dims = dims.clone();
            op!(|fr, vm, depth| ops::new_multi(fr, vm, depth, kind, &dims, dst))
        }
        RInst::LdElemMulti { arr, ref idxs, dst, .. } => {
            let idxs = idxs.clone();
            match dst {
                DstSlot::P(d) => op!(|fr, vm, depth| {
                    ops::ld_elem(fr, vm, depth, arr, At::Multi(&idxs), DstSlot::P(d))
                }),
                DstSlot::R(d) => op!(|fr, vm, depth| {
                    ops::ld_elem(fr, vm, depth, arr, At::Multi(&idxs), DstSlot::R(d))
                }),
            }
        }
        RInst::StElemMulti { kind, arr, ref idxs, src } => {
            let (idxs, mask) = (idxs.clone(), kind == ElemKind::U1);
            op!(|fr, vm, depth| {
                ops::st_elem(fr, vm, depth, arr, At::Multi(&idxs), src, mask)
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
        RInst::Leave { t } => {
            let t = build.to(t);
            op!(|fr, _, _| ops::leave(fr, t))
        }
        RInst::EndFinally => op!(|fr, _, _| ops::end_finally(fr)),
    }
}

// The instructions a slot is built around, alone or with a neighbour
// `Around` them. The right operand's kind, slot or immediate, is fixed per
// closure, so a fused constant read as an immediate costs no load.

fn bin(w: impl Around, op: BinOp, ty: NumTy, dst: u16, a: u16, b: Operand) -> OpFn {
    specialize!(
        op => OP: BinOp { Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr, ShrUn } in
        specialize!(ty => TY: NumTy { I4, I8, R4, R8 } in
        specialize!(b => b: Operand in
            op!(w => |fr, vm, depth| ops::bin(fr, vm, depth, OP, TY, dst, a, b()))))
    )
}

fn br_cmp(w: impl Around, op: CmpOp, ty: NumTy, a: u16, b: Operand, t: u32) -> OpFn {
    specialize!(
        op => OP: CmpOp { Eq, Ne, Lt, Le, Gt, Ge } in
        specialize!(ty => TY: NumTy { I4, I8, R4, R8 } in
        specialize!(b => b: Operand in
            op!(w => |fr, _, _| ops::br_cmp(fr, OP, TY, a, b(), t))))
    )
}

/// A `br` that runs the `brcmp` it jumps to: on to the test's target slot
/// `taken`, or to `next`, the slot after the test. Either way the loop
/// charges a taken branch's fuel for the `br`; when the test's branch is
/// taken as well, this closure charges that unit itself, so fuel is spent —
/// and runs out — exactly where the two instructions apart would spend it.
fn br_to_test(
    w: impl Around,
    op: CmpOp,
    ty: NumTy,
    a: u16,
    b: Operand,
    taken: u32,
    next: u32,
) -> OpFn {
    let next = Step::jump(next);
    specialize!(
        op => OP: CmpOp { Eq, Ne, Lt, Le, Gt, Ge } in
        specialize!(ty => TY: NumTy { I4, I8, R4, R8 } in
        specialize!(b => b: Operand in
            op!(w => |fr, vm, _| match ops::br_cmp(fr, OP, TY, a, b(), taken) {
                Step::NEXT => next,
                jump => match vm.charge_fuel() {
                    Ok(()) => jump,
                    Err(e) => fr.fail(e),
                },
            })))
    )
}

/// `stelem` of a primitive slot.
#[allow(clippy::too_many_arguments)]
fn st_elem_p(
    w: impl Around,
    kind: ElemKind,
    arr: u16,
    idx: u16,
    ty: NumTy,
    s: u16,
    bounds: BoundsMode,
) -> OpFn {
    specialize!(
        bounds.is_checked() => CHECKED: bool in
        specialize!(kind == ElemKind::U1 => MASK: bool in op!(w => |fr, vm, depth| {
            let at = At::Sz(idx, CHECKED);
            ops::st_elem(fr, vm, depth, arr, at, ArgSlot::P(ty, s), MASK)
        }))
    )
}

/// An instruction's closure before it becomes an [`OpFn`].
trait Body: Fn(&mut Frame, &Arc<Vm>, u32) -> Step + Send + Sync + 'static {}
impl<F: Fn(&mut Frame, &Arc<Vm>, u32) -> Step + Send + Sync + 'static> Body for F {}

/// What a slot runs around its main instruction's closure: nothing, or the
/// constant or move fused with it. Each is a type of its own, so a fused
/// slot is one closure that inlines both bodies — every spill-slot load
/// and store of the two, in the same order, and nothing else.
trait Around: Copy + Send + Sync + 'static {
    fn slot(self, f: impl Body) -> OpFn;
}

/// A slot of one instruction.
#[derive(Clone, Copy)]
struct Alone;

/// `ConstP dst, bits` first. It always falls through; the instruction
/// after it reads the constant as [`ConstBefore::operand`] says.
#[derive(Clone, Copy)]
struct ConstBefore(u16, u64);

impl ConstBefore {
    /// `b` as the instruction after the constant reads it: the constant
    /// itself, unless it went to the spill frame — then it is read back
    /// through its slot, the memory traffic the spill stands for (the CLR
    /// divisor quirk).
    fn operand(self, b: Operand) -> Operand {
        match b {
            Operand::Slot(s) if s == self.0 && !is_spill(s) => Operand::Imm(self.1),
            b => b,
        }
    }
}

/// `MovP dst, src` first. It always falls through.
#[derive(Clone, Copy)]
struct MovBefore(u16, u16);

/// `MovP dst, src` second, if the main instruction fell through.
#[derive(Clone, Copy)]
struct MovAfter(u16, u16);

impl Around for Alone {
    fn slot(self, f: impl Body) -> OpFn {
        Box::new(f)
    }
}

impl Around for ConstBefore {
    fn slot(self, f: impl Body) -> OpFn {
        let ConstBefore(dst, bits) = self;
        op!(|fr, vm, depth| {
            ops::const_p(fr, dst, bits);
            f(fr, vm, depth)
        })
    }
}

impl Around for MovBefore {
    fn slot(self, f: impl Body) -> OpFn {
        let MovBefore(dst, src) = self;
        op!(|fr, vm, depth| {
            ops::mov_p(fr, dst, src);
            f(fr, vm, depth)
        })
    }
}

impl Around for MovAfter {
    fn slot(self, f: impl Body) -> OpFn {
        let MovAfter(dst, src) = self;
        op!(|fr, vm, depth| match f(fr, vm, depth) {
            Step::NEXT => ops::mov_p(fr, dst, src),
            other => other,
        })
    }
}

#[cfg(test)]
mod tests {
    //! Fusion shows only as fewer slots, so these tests look at the op
    //! arrays, and hold every result to the interpreter's (`sscli10`).

    use super::*;
    use crate::{declare_prelude, ObserveLevel, Tier, VmError, VmProfile};
    use hpcnet_cil::{BinOp, CilType, MethodKind, ModuleBuilder, Module};
    use hpcnet_runtime::Value;

    /// `(slots, instructions)` of `name`'s closure code on `vm`.
    fn slots(vm: &Arc<Vm>, name: &str) -> (usize, usize) {
        let code = vm.threaded(vm.module.find_method(name).unwrap()).unwrap();
        (code.ops.len(), code.rir.code.len())
    }

    fn unobserved() -> VmProfile {
        VmProfile::clr11_compiled().with_observe(ObserveLevel::Off)
    }

    fn answer(module: &Module, profile: VmProfile, name: &str, arg: i32) -> String {
        let vm = Vm::new(module.clone(), profile).unwrap();
        format!("{:?}", vm.invoke_by_name(name, vec![Value::I4(arg)]))
    }

    #[test]
    fn unobserved_code_fuses_and_observed_code_does_not() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let src = std::fs::read_to_string(dir.join("../grande/src/sources/kernels/smallapps.cs"))
            .unwrap();
        let module = hpcnet_minics::compile(&src).unwrap();
        let want = answer(&module, VmProfile::sscli10(), "Sieve.Run", 5000);
        let observed = unobserved().with_observe(ObserveLevel::Counters);
        for profile in [unobserved(), observed] {
            assert_eq!(answer(&module, profile, "Sieve.Run", 5000), want);
        }
        let sieve = |profile| slots(&Vm::new(module.clone(), profile).unwrap(), "Sieve.Run");
        let (n_slots, n_insts) = sieve(unobserved());
        assert!(n_slots < n_insts, "unobserved: {n_slots} slots for {n_insts} instructions");
        let (n_slots, n_insts) = sieve(observed);
        assert_eq!(n_slots, n_insts, "observed");
    }

    /// `F(x)`: push `x, 1`; if `x` is nonzero jump to `L`, else replace the
    /// 1 with a 2; `L: add`. On the naive lowering the `add` is a `Bin`
    /// reading the constant the instruction before it loads — a fusible
    /// pair whose second instruction is a branch target.
    fn branch_into_pair() -> Module {
        let mut mb = ModuleBuilder::new();
        declare_prelude(&mut mb);
        let c = mb.declare_class("P", None);
        let mut f = mb.method(c, "F", vec![CilType::I4], CilType::I4, MethodKind::Static);
        let l = f.new_label();
        f.ld_arg(0);
        f.ldc_i4(1);
        f.ld_arg(0);
        f.br_true(l);
        f.emit(hpcnet_cil::Op::Pop);
        f.ldc_i4(2);
        f.place(l);
        f.bin(BinOp::Add);
        f.ret();
        f.finish();
        mb.finish()
    }

    #[test]
    fn a_branch_into_the_second_instruction_keeps_the_pair_apart() {
        let module = branch_into_pair();
        let profile = VmProfile::mono023().with_tier(Tier::Compiled);
        let vm = Vm::new(module.clone(), profile).unwrap();
        let code = vm.threaded(vm.module.find_method("P.F").unwrap()).unwrap();
        let b = Build::new(&vm, &code.rir);
        let rir = &code.rir.code;
        let targets: Vec<u32> = rir.iter().filter_map(RInst::target).collect();
        let entered = (0..rir.len() - 1)
            .filter(|&i| fuses(&rir[i], &rir[i + 1]))
            .filter(|&i| targets.contains(&(i as u32 + 1)))
            .collect::<Vec<_>>();
        assert!(!entered.is_empty(), "no entered pair in\n{}", crate::rir::print_rir(&code.rir));
        for i in entered {
            assert_ne!(b.slot[i], b.slot[i + 1], "pair at {i} fused");
        }
        for x in [0, 5] {
            let want = answer(&module, VmProfile::sscli10(), "P.F", x);
            assert_eq!(answer(&module, profile, "P.F", x), want, "F({x})");
        }
    }

    /// `Div` is an instance method so that no profile inlines it: its
    /// `const 0; div` raises in a frame of its own. The CLR profiles inline
    /// the static `Quot` into `Inlined`, `const 0; div` and all.
    const DIV: &str = r#"
        class D {
            int Div(int x) { return x / 0; }
            static int Quot(int x) { return x / 0; }
            static int Run(int x) {
                D d = new D();
                try { return d.Div(x); } catch (DivideByZeroException e) { return -1; }
            }
            static int Inlined(int x) {
                try { return Quot(x); } catch (DivideByZeroException e) { return -2; }
            }
        }
    "#;

    #[test]
    fn a_fault_in_a_fused_slot_reaches_the_callers_handler() {
        let module = hpcnet_minics::compile(DIV).unwrap();
        let vm = Vm::new(module.clone(), unobserved()).unwrap();
        let (n_slots, n_insts) = slots(&vm, "D.Div");
        assert!(n_slots < n_insts, "`const 0; div` did not fuse");
        let profiles = [
            VmProfile::clr11(),
            VmProfile::mono023(),
            VmProfile::clr11_compiled(),
            unobserved(),
        ];
        for (entry, handled) in [("D.Run", -1), ("D.Inlined", -2)] {
            let caught = answer(&module, VmProfile::sscli10(), entry, 7);
            assert_eq!(caught, format!("{:?}", Ok::<_, VmError>(Some(Value::I4(handled)))));
            for p in profiles {
                assert_eq!(answer(&module, p, entry, 7), caught, "{entry} on {}", p.name);
            }
        }
    }

    #[test]
    fn a_method_with_an_exception_region_is_not_compacted() {
        let module = hpcnet_minics::compile(DIV).unwrap();
        let vm = Vm::new(module, unobserved()).unwrap();
        let code = vm.threaded(vm.module.find_method("D.Inlined").unwrap()).unwrap();
        let rir = &code.rir.code;
        assert!(!code.rir.eh.is_empty());
        assert!((1..rir.len()).any(|i| fuses(&rir[i - 1], &rir[i])), "nothing to fuse");
        assert_eq!(code.ops.len(), rir.len());
    }
}
