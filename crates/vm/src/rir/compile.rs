//! RIR → op records for both register tiers ([`crate::compiled`]).
//!
//! A JIT emits machine code once; executing it decodes nothing. Here each
//! instruction is translated **once** into a fixed-width record: a `fn`
//! pointer and its operands, branch targets already remapped to slots. A
//! `run` calls the instruction's body in the `ops` module with the
//! operator, the type, the operand kinds, the bounds check and U1 masking
//! as constants — one non-capturing closure per combination — so the Rust
//! compiler folds away every branch on them. Operand lists go in the
//! method's side table: a build allocates the array and that table, nothing
//! per op. Only `rir::alloc`'s ranking, before the build, depends on the
//! tier.
//!
//! **Superinstructions.** A call per instruction still pays one indirect
//! call for a register move. So on a VM that is not observing, in a method
//! without exception regions, adjacent pairs fuse into one *slot* (not to
//! be confused with frame slots) whose record carries both operand sets
//! and whose `run` inlines both bodies: a constant and the `Bin`, `brcmp`
//! or `stelem` reading it (as an immediate unless it was spilled), a `Bin`
//! and the move of its result, a move and a `br`, and a `br` and the
//! `brcmp` it lands on. The RIR, its counters and the dispatch loop are
//! untouched. An observing VM keeps one slot per instruction, so `ops[pc]`
//! pairs with `rir.code[pc]` for the observer, as it does in methods with
//! exception regions.
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
use crate::compiled::{list, CompiledMethod, Op, Side};
use crate::error::VmResult;
use crate::machine::Vm;
use crate::observe::{JitOutcome, VmPhase};
use crate::ops::{self, At, Layout};
use crate::rir::{alloc, is_spill, opt, ArgSlot, BoundsMode, DstSlot, Operand, RInst, RirMethod};
use hpcnet_cil::module::{ClassId, MethodId, StrId};
use hpcnet_cil::{BinOp, CmpOp, ElemKind, Intrinsic, NumTy, UnOp};
use std::sync::Arc;

/// Compile a method for a register tier: lower, run the shared
/// optimization pipeline, place registers with the ranking of the
/// profile's tier (`rir::alloc`), then build the op records. Both tiers
/// record the same compile outcome, and return the passes' outcome for
/// the caller to count once it has published the code.
pub(crate) fn compile(vm: &Arc<Vm>, method: MethodId) -> VmResult<(CompiledMethod, JitOutcome)> {
    // The compile's working tables, lent to each pass in turn and
    // dropped with the compile.
    let mut scratch = opt::Scratch::default();
    let front = crate::rir::share::front(vm, method, &mut scratch)?;
    let t = vm.observer.phase_start();
    let rir = alloc::allocate(vm, method, &front.lowered, &front.res.force_spill_p, &mut scratch);
    vm.observer.phase_end(VmPhase::JitAllocate, t);
    opt::record_compile(vm, method, &rir, &front.res);
    let t = vm.observer.phase_start();
    let (ops, side) = build_ops(vm, &rir, &mut scratch);
    vm.observer.phase_end(VmPhase::JitBuild, t);
    Ok((CompiledMethod { rir: Arc::new(rir), ops, side }, front.res.outcome))
}

/// A record whose `run` is `|fr, vm, depth| body`, given the record itself
/// as `r` after an `@r`. The names in `[..]` are frame slots kept in `s`,
/// those in `{..}` 32-bit operands kept in `n`, the one after `imm` the
/// immediate: each is stored from the expression after its `=` (`;`-ended
/// for `imm`), or else the variable of its name, and read back under that
/// name by `run`, which captures nothing.
macro_rules! op {
    (@val $x:ident) => { $x };
    (@val $x:ident = $e:expr) => { $e };
    ($([$($s:ident $(= $se:expr)?),*])? $({$($n:ident $(= $ne:expr)?),*})?
     $(imm $i:ident $(= $ie:expr;)?)? $(@$r:ident)? |$fr:pat_param, $vm:pat_param, $depth:pat_param|
     $body:expr) => {{
        #[allow(unused_mut)]
        let mut op = Op {
            run: |$fr: &mut Frame, $vm: &Arc<Vm>, rec: &Op, $depth: u32| {
                $(let [$($s,)* ..] = rec.s;)?
                $(let [$($n,)* ..] = rec.n;)?
                $(let $i = rec.imm;)?
                $(let $r = rec;)?
                let _ = rec;
                $body
            },
            s: [0; 4], n: [0; 2], imm: 0,
        };
        $(let s = [$(op!(@val $s $(= $se)?)),*]; op.s[..s.len()].copy_from_slice(&s);)?
        $(let n = [$(op!(@val $n $(= $ne)?)),*]; op.n[..n.len()].copy_from_slice(&n);)?
        $(op.imm = op!(@val $i $(= $ie)?);)?
        op
    }};
}

/// `$body` with `$c` a *constant* equal to the value of `$e` — one copy of
/// `$body` per value, whose branches on it fold. An `Operand`, `ArgSlot` or
/// (optional) `DstSlot` becomes a constant `fn` rebuilding it, kind and
/// type fixed, from the slot `$s` (and immediate `$v`) its payload binds.
macro_rules! specialize {
    ($e:expr => $c:ident: bool in $body:expr) => {
        if $e { const $c: bool = true; $body } else { const $c: bool = false; $body }
    };
    ($e:expr => $c:ident($s:ident, $v:ident): Operand in $body:expr) => {
        match $e {
            Operand::Slot($s) => {
                const $c: fn(u16, u64) -> Operand = |s, _| Operand::Slot(s);
                let $v = 0; $body
            }
            Operand::Imm($v) => {
                const $c: fn(u16, u64) -> Operand = |_, v| Operand::Imm(v);
                let $s = 0; $body
            }
        }
    };
    ($e:expr => $c:ident($s:ident): DstSlot in $body:expr) => {
        match $e {
            DstSlot::P($s) => { const $c: fn(u16) -> DstSlot = DstSlot::P; $body }
            DstSlot::R($s) => { const $c: fn(u16) -> DstSlot = DstSlot::R; $body }
        }
    };
    ($e:expr => $c:ident($s:ident): Option<DstSlot> in $body:expr) => {
        match $e {
            Some(d) => specialize!(d => SOME($s): DstSlot in {
                const $c: fn(u16) -> Option<DstSlot> = |s| Some(SOME(s)); $body
            }),
            None => { const $c: fn(u16) -> Option<DstSlot> = |_| None; let $s = 0; $body }
        }
    };
    ($e:expr => $c:ident($s:ident): ArgSlot in $body:expr) => {
        match $e {
            ArgSlot::P(ty, $s) => specialize!(ty => TY: NumTy in {
                const $c: fn(u16) -> ArgSlot = |s| ArgSlot::P(TY, s); $body
            }),
            ArgSlot::R($s) => { const $c: fn(u16) -> ArgSlot = ArgSlot::R; $body }
        }
    };
    ($e:expr => $c:ident: NumTy in $body:expr) => {
        specialize!($e => $c: NumTy { I4, I8, R4, R8 } in $body)
    };
    ($e:expr => $c:ident: $T:ident { $($v:ident),+ } $(else $other:block)? in $body:expr) => {
        match $e {
            $($T::$v => { const $c: $T = $T::$v; $body })+
            $(_ => $other)?
        }
    };
}

/// `$body` with `$s` the [`Side`] table of method `$m` — published, since
/// it is running — or the lookup's error parked in `$fr`.
macro_rules! with_side {
    ($fr:ident, $vm:ident, $m:ident, |$s:ident| $body:expr) => {
        match $vm.code(MethodId($m)) { Ok(c) => { let $s = &c.side; $body } Err(e) => $fr.fail(e) }
    };
}

/// Append `items` to a side-table pool; the span a record names them by.
fn push<T: Copy>(pool: &mut Vec<T>, items: &[T]) -> u64 {
    pool.extend_from_slice(items);
    (pool.len() - items.len()) as u64 | (items.len() as u64) << 32
}

/// A method's op array, one record per *slot*: an instruction, or a pair
/// [`fuses`] accepts. [`Build::new`] says where pairs may form.
fn build_ops(vm: &Arc<Vm>, rir: &RirMethod, scratch: &mut opt::Scratch) -> (Box<[Op]>, Side) {
    let b = Build::new(vm, rir, scratch);
    let mut side = Side::default();
    let mut ops = Vec::with_capacity(b.slot[b.code.len()] as usize);
    let mut pc = 0;
    while pc < b.code.len() {
        if b.slot[pc + 1] == b.slot[pc] {
            ops.push(b.pair(&b.code[pc], &b.code[pc + 1]));
            pc += 2;
        } else {
            ops.push(build_op(&b, &mut side, &b.code[pc]));
            pc += 1;
        }
    }
    scratch.u32s.give(b.slot);
    (ops.into_boxed_slice(), side)
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

/// One method's records under construction.
struct Build<'a> {
    vm: &'a Arc<Vm>,
    /// The method's id, which a record that reads its [`Side`] keeps.
    method: u32,
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
    fn new(vm: &'a Arc<Vm>, rir: &'a RirMethod, scratch: &mut opt::Scratch) -> Self {
        let code = &rir.code[..];
        let fuse = !vm.observer.enabled() && rir.eh.is_empty();
        let mut entry = scratch.bools.filled(code.len() + 1, false);
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
        let mut slot = scratch.u32s.take();
        slot.reserve(code.len() + 1);
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
        scratch.bools.give(entry);
        Build { vm, method: rir.method.0, code, slot, fuse }
    }

    /// The slot a branch to instruction `t` lands on. (Verified code
    /// branches to instructions of its own method.)
    fn to(&self, t: u32) -> u32 {
        self.slot[t as usize]
    }

    /// The record of a slot that runs `a` then `b`, for each shape
    /// [`fuses`] accepts: both operand sets, both bodies inlined.
    fn pair(&self, a: &RInst, b: &RInst) -> Op {
        match (a, b) {
            (&RInst::ConstP { dst, bits }, &RInst::Bin { op, ty, dst: d, a, b }) => {
                let k = ConstBefore(dst, bits);
                bin(k, op, ty, d, a, k.operand(b))
            }
            (&RInst::ConstP { dst, bits }, &RInst::BrCmp { op, ty, a, b, t }) => {
                let k = ConstBefore(dst, bits);
                br_cmp(k, op, ty, a, k.operand(b), self.to(t))
            }
            (&RInst::ConstP { dst, bits }, &RInst::StElem { kind, arr, idx, src, bounds }) => {
                st_elem(ConstBefore(dst, bits), kind, arr, idx, src, bounds)
            }
            (&RInst::Bin { op, ty, dst, a, b }, &RInst::MovP { dst: d, src }) => {
                bin(MovAfter(d, src), op, ty, dst, a, b)
            }
            (&RInst::MovP { dst, src }, &RInst::Br { t }) => self.br(MovBefore(dst, src), t),
            _ => unreachable!("`fuses` accepts no other pair"),
        }
    }

    /// `br t`. When fusing and `t` holds a test, the test runs here.
    fn br<W: Around>(&self, w: W, t: u32) -> Op {
        match test_at(self.code, t).filter(|_| self.fuse) {
            Some(&RInst::BrCmp { op, ty, a, b, t: taken }) => {
                br_to_test(w, op, ty, a, b, self.to(taken), self.to(t + 1))
            }
            _ => w.place(op!({t = self.to(t)} @r |fr, _, _| {
                W::pre(fr, r);
                W::post(Step::jump(t), fr, r)
            })),
        }
    }
}

/// Translate one instruction into a record: the `fn` that calls its body
/// in [`crate::ops`] and the operands it reads, its lists appended to
/// `side`. What is known now is resolved now: the slot a branch lands on,
/// whether a callee is static, and the op, the type, the operand kinds, the
/// bounds check and U1 masking as constants.
fn build_op(b: &Build, side: &mut Side, inst: &RInst) -> Op {
    let (vm, m) = (b.vm, b.method);
    match *inst {
        RInst::Nop => op!(|_, _, _| Step::NEXT),
        RInst::MovP { dst, src } => op!([dst, src] |fr, _, _| ops::mov_p(fr, dst, src)),
        RInst::MovR { dst, src } => op!([dst, src] |fr, _, _| ops::mov_r(fr, dst, src)),
        RInst::ConstP { dst, bits } => op!([dst] imm bits |fr, _, _| ops::const_p(fr, dst, bits)),
        RInst::ConstNull { dst } => op!([dst] |fr, _, _| ops::const_ref(fr, dst, None)),
        RInst::ConstStr { dst, s } => op!([dst] {s = s.0} |fr, vm, _| {
            ops::const_ref(fr, dst, Some(vm.literal(StrId(s))))
        }),
        RInst::Bin { op, ty, dst, a, b } => bin(Alone, op, ty, dst, a, b),
        RInst::Un { op, ty, dst, a } => specialize!(op => OP: UnOp { Neg, Not } in
            specialize!(ty => TY: NumTy in
                op!([dst, a] |fr, _, _| ops::un(fr, OP, TY, dst, a)))),
        RInst::Conv { from, to, dst, src } => specialize!(from => FROM: NumTy in
            specialize!(to => TO: NumTy in
                op!([dst, src] |fr, _, _| ops::conv(fr, FROM, TO, dst, src)))),
        RInst::Cmp { op, ty, dst, a, b } => specialize!(op => OP: CmpOp { Eq, Ne, Lt, Le, Gt, Ge }
            in specialize!(ty => TY: NumTy in
            specialize!(b => B(b, v): Operand in
                op!([dst, a, b] imm v |fr, _, _| ops::cmp(fr, OP, TY, dst, a, B(b, v)))))),
        RInst::CmpRef { op, dst, a, b } => specialize!(op => OP: CmpOp { Eq, Ne, Lt, Le, Gt, Ge } in
            op!([dst, a, b] |fr, _, _| ops::cmp_ref(fr, OP, dst, a, b))),
        RInst::Br { t } => b.br(Alone, t),
        RInst::BrIf { cond, t, negate } => specialize!(negate => NEGATE: bool in
            op!([cond] {t = b.to(t)} |fr, _, _| ops::br_if(fr, cond, t, NEGATE))),
        RInst::BrIfRef { cond, t, negate } => specialize!(negate => NEGATE: bool in
            op!([cond] {t = b.to(t)} |fr, _, _| ops::br_if_ref(fr, cond, t, NEGATE))),
        RInst::BrCmp { op, ty, a, b: rhs, t } => br_cmp(Alone, op, ty, a, rhs, b.to(t)),
        RInst::Call { target, virt, ref args, dst } => {
            let is_static = vm.module.method(target).is_static;
            let span = push(&mut side.args, args);
            specialize!(virt => VIRT: bool in specialize!(is_static => STATIC: bool in
            specialize!(dst => D(d): Option<DstSlot> in op!([d] {target = target.0, m} imm span
                |fr, vm, depth| with_side!(fr, vm, m, |s| {
                    let (recv, args) = (Receiver::of_call(VIRT, STATIC), list(&s.args, span));
                    ops::call(fr, vm, depth, MethodId(target), recv, args, D(d))
                })))))
        }
        RInst::CallIntr { i, ref args, dst } => match (i, &args[..]) {
            (Intrinsic::MonitorEnter | Intrinsic::MonitorExit, &[ArgSlot::R(s)]) => {
                specialize!(i == Intrinsic::MonitorEnter => ENTER: bool in
                    op!([s] |fr, vm, depth| ops::monitor(fr, vm, depth, ENTER, s)))
            }
            // `vm`'s routine for the constant `I`: a field of its math table.
            _ => match ops::math_slots(vm, i, args, dst) {
                Some((_, x, y, d)) => specialize!(i => I: Intrinsic {
                    Sin, Cos, Tan, Asin, Acos, Atan, Atan2, Floor, Ceil, Sqrt, Exp, Log, Pow, Rint
                } else { unreachable!("`math_slots` has a routine for no other intrinsic") } in
                    op!([x, y, d] |fr, vm, _| {
                        ops::math(fr, vm.math.routine(I).expect("a table routine"), x, y, d)
                    })),
                None => specialize!(dst => D(d): Option<DstSlot> in
                    op!([d] {ix = push(&mut side.intrinsics, &[i]) as u32, m}
                        imm span = push(&mut side.args, args); |fr, vm, depth| {
                        with_side!(fr, vm, m, |s| {
                            let (i, args) = (s.intrinsics[ix as usize], list(&s.args, span));
                            ops::intrinsic(fr, vm, depth, i, args, D(d))
                        })
                    })),
            },
        },
        RInst::Ret { src: Some(src) } => specialize!(src => SRC(s): ArgSlot in
            op!([s] |fr, _, _| ops::ret(fr, Some(SRC(s))))),
        RInst::Ret { src: None } => op!(|fr, _, _| ops::ret(fr, None)),
        RInst::NewObj { ctor, ref args, dst } => op!([dst] {ctor = ctor.0, m}
            imm span = push(&mut side.args, args); |fr, vm, depth| with_side!(fr, vm, m, |s| {
                let (ctor, args) = (MethodId(ctor), list(&s.args, span));
                ops::new_obj(fr, vm, depth, ctor, Layout::of(vm, ctor), args, dst)
            })),
        RInst::LdFld { obj, slot, dst } => specialize!(dst => D(d): DstSlot in
            op!([obj, d] {slot} |fr, vm, depth| ops::ld_fld(fr, vm, depth, obj, slot, D(d)))),
        RInst::StFld { obj, slot, src } => specialize!(src => SRC(s): ArgSlot in
            op!([obj, s] {slot} |fr, vm, depth| ops::st_fld(fr, vm, depth, obj, slot, SRC(s)))),
        RInst::LdSFld { slot, dst } => specialize!(dst => D(d): DstSlot in
            op!([d] {slot} |fr, vm, _| ops::ld_sfld(fr, vm, slot, D(d)))),
        RInst::StSFld { slot, src } => specialize!(src => SRC(s): ArgSlot in
            op!([s] {slot} |fr, vm, _| ops::st_sfld(fr, vm, slot, SRC(s)))),
        RInst::IsInst { class, src, dst } => op!([src, dst] {class = class.0} |fr, vm, _| {
            ops::is_inst(fr, vm, ClassId(class), src, dst)
        }),
        RInst::CastClass { class, src, dst } => op!([src, dst] {class = class.0} |fr, vm, depth| {
            ops::cast_class(fr, vm, depth, ClassId(class), src, dst)
        }),
        RInst::NewArr { kind, len, dst } => {
            specialize!(kind => KIND: ElemKind { U1, I4, I8, R4, R8, Ref } in
                op!([len, dst] |fr, vm, depth| ops::new_arr(fr, vm, depth, KIND, len, dst)))
        }
        RInst::LdLen { arr, dst } => {
            op!([arr, dst] |fr, vm, depth| ops::ld_len(fr, vm, depth, arr, dst))
        }
        RInst::LdElem { kind, dst, .. } | RInst::LdElemMulti { kind, dst, .. }
            if !ops::loads_into(kind, dst) =>
        {
            op!(|fr, _, _| ops::elem_kind_mismatch(fr))
        }
        RInst::LdElem { arr, idx, dst, bounds, .. } => {
            specialize!(bounds.is_checked() => CHECKED: bool in specialize!(dst => D(d): DstSlot in
                op!([arr, idx, d] |fr, vm, depth| {
                    ops::ld_elem(fr, vm, depth, arr, At::Sz(idx, CHECKED), D(d))
                })))
        }
        RInst::StElem { kind: k, arr, idx, src, bounds: c } => st_elem(Alone, k, arr, idx, src, c),
        RInst::NewMulti { kind, ref dims, dst } => {
            let span = push(&mut side.slots, dims);
            specialize!(kind => KIND: ElemKind { U1, I4, I8, R4, R8, Ref } in
                op!([dst] {m} imm span |fr, vm, depth| with_side!(fr, vm, m, |s| {
                    ops::new_multi(fr, vm, depth, KIND, list(&s.slots, span), dst)
                })))
        }
        RInst::LdElemMulti { arr, ref idxs, dst, .. } => specialize!(dst => D(d): DstSlot in
            op!([arr, d] {m} imm span = push(&mut side.slots, idxs); |fr, vm, depth| {
                with_side!(fr, vm, m, |s| {
                    ops::ld_elem(fr, vm, depth, arr, At::Multi(list(&s.slots, span)), D(d))
                })
            })),
        RInst::StElemMulti { kind, arr, ref idxs, src } => {
            let span = push(&mut side.slots, idxs);
            specialize!(src => SRC(s): ArgSlot in specialize!(kind == ElemKind::U1 => MASK: bool in
                op!([arr, s] {m} imm span |fr, vm, depth| with_side!(fr, vm, m, |t| {
                    let at = At::Multi(list(&t.slots, span));
                    ops::st_elem(fr, vm, depth, arr, at, SRC(s), MASK)
                }))))
        }
        RInst::LdMultiLen { arr, dim, dst } => op!([arr, dim = dim as u16, dst] |fr, vm, depth| {
            ops::ld_multi_len(fr, vm, depth, arr, dim as u8, dst)
        }),
        RInst::BoxV { ty, src, dst } => specialize!(ty => TY: NumTy in
            op!([src, dst] |fr, vm, _| ops::box_v(fr, vm, TY, src, dst))),
        RInst::UnboxV { ty, src, dst } => specialize!(ty => TY: NumTy in
            op!([src, dst] |fr, vm, depth| ops::unbox_v(fr, vm, depth, TY, src, dst))),
        RInst::Throw { src } => op!([src] |fr, vm, depth| ops::throw(fr, vm, depth, src)),
        RInst::Leave { t } => op!({t = b.to(t)} |fr, _, _| ops::leave(fr, t)),
        RInst::EndFinally => op!(|fr, _, _| ops::end_finally(fr)),
    }
}

// The instructions a slot is built around, alone or with a neighbour
// `Around` them. A fused constant read as an immediate costs no load.

fn bin<W: Around>(w: W, op: BinOp, ty: NumTy, dst: u16, a: u16, b: Operand) -> Op {
    w.place(specialize!(op => OP: BinOp { Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr, ShrUn }
        in specialize!(ty => TY: NumTy in
        specialize!(b => B(b, v): Operand in op!([dst, a, b] imm v @r |fr, vm, depth| {
            W::pre(fr, r);
            W::post(ops::bin(fr, vm, depth, OP, TY, dst, a, B(b, v)), fr, r)
        })))))
}

fn br_cmp<W: Around>(w: W, op: CmpOp, ty: NumTy, a: u16, b: Operand, t: u32) -> Op {
    w.place(specialize!(op => OP: CmpOp { Eq, Ne, Lt, Le, Gt, Ge } in
        specialize!(ty => TY: NumTy in
        specialize!(b => B(b, v): Operand in op!([a, b] {t} imm v @r |fr, _, _| {
            W::pre(fr, r);
            W::post(ops::br_cmp(fr, OP, TY, a, B(b, v), t), fr, r)
        })))))
}

/// A `br` that runs the `brcmp` it jumps to: on to the test's target slot
/// `taken`, or to `next`, the slot after the test. Either way the loop
/// charges a taken branch's fuel for the `br`; when the test's branch is
/// taken as well, this op charges that unit itself, so fuel is spent —
/// and runs out — exactly where the two instructions apart would spend it.
fn br_to_test<W: Around>(
    w: W, op: CmpOp, ty: NumTy, a: u16, b: Operand, taken: u32, next: u32,
) -> Op {
    w.place(specialize!(op => OP: CmpOp { Eq, Ne, Lt, Le, Gt, Ge } in
        specialize!(ty => TY: NumTy in
        specialize!(b => B(b, v): Operand in op!([a, b] {taken, next} imm v @r |fr, vm, _| {
            W::pre(fr, r);
            let step = match ops::br_cmp(fr, OP, TY, a, B(b, v), taken) {
                Step::NEXT => Step::jump(next),
                jump => match vm.charge_fuel() {
                    Ok(()) => jump,
                    Err(e) => fr.fail(e),
                },
            };
            W::post(step, fr, r)
        })))))
}

/// `stelem` of a primitive or reference slot; a `U1` store masks.
fn st_elem<W: Around>(w: W, k: ElemKind, arr: u16, idx: u16, src: ArgSlot, bc: BoundsMode) -> Op {
    w.place(specialize!(bc.is_checked() => CHECKED: bool in
        specialize!(k == ElemKind::U1 => MASK: bool in
        specialize!(src => SRC(s): ArgSlot in op!([arr, idx, s] @r |fr, vm, depth| {
            W::pre(fr, r);
            W::post(ops::st_elem(fr, vm, depth, arr, At::Sz(idx, CHECKED), SRC(s), MASK), fr, r)
        })))))
}

/// What a slot runs around its main instruction: nothing, or the constant
/// or move fused with it. Each is a type of its own, so a fused slot is one
/// `fn` that inlines both bodies — every spill-slot load and store of the
/// two, in the same order, and nothing else. The neighbour's operands sit
/// in record fields its main instructions leave free: a constant's slot in
/// `s[3]` and its bits in `imm` (the main instruction reads the same bits
/// as its immediate), a move before in `s[2..4]`, a move after in `n`.
trait Around {
    /// `op` with the neighbour's operands written in.
    fn place(self, op: Op) -> Op;
    #[inline(always)]
    fn pre(_: &mut Frame, _: &Op) {}
    #[inline(always)]
    fn post(step: Step, _: &mut Frame, _: &Op) -> Step {
        step
    }
}

/// A slot of one instruction.
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
struct MovBefore(u16, u16);

/// `MovP dst, src` second, if the main instruction fell through.
struct MovAfter(u16, u16);

impl Around for Alone {
    fn place(self, op: Op) -> Op { op }
}

impl Around for ConstBefore {
    fn place(self, op: Op) -> Op {
        Op { s: [op.s[0], op.s[1], op.s[2], self.0], imm: self.1, ..op }
    }
    #[inline(always)]
    fn pre(fr: &mut Frame, r: &Op) {
        ops::const_p(fr, r.s[3], r.imm);
    }
}

impl Around for MovBefore {
    fn place(self, op: Op) -> Op {
        Op { s: [op.s[0], op.s[1], self.0, self.1], ..op }
    }
    #[inline(always)]
    fn pre(fr: &mut Frame, r: &Op) {
        ops::mov_p(fr, r.s[2], r.s[3]);
    }
}

impl Around for MovAfter {
    fn place(self, op: Op) -> Op {
        Op { n: [self.0 as u32, self.1 as u32], ..op }
    }
    #[inline(always)]
    fn post(step: Step, fr: &mut Frame, r: &Op) -> Step {
        match step {
            Step::NEXT => ops::mov_p(fr, r.n[0] as u16, r.n[1] as u16),
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    //! Fusion shows only as fewer slots, so these tests look at the op
    //! arrays, and hold every result to the interpreter's (`sscli10`).

    use super::*;
    use crate::{declare_prelude, ObserveLevel, Tier, VmError, VmProfile};
    use hpcnet_cil::{BinOp, CilType, MethodKind, ModuleBuilder, Module, Op};
    use hpcnet_runtime::Value;

    /// `(slots, instructions)` of `name`'s op records on `vm`.
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
        let b = Build::new(&vm, &code.rir, &mut opt::Scratch::default());
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

    /// Every instruction the op-record builder translates and every pair
    /// shape it fuses: constants before `Bin`, `brcmp` and `stelem`, a
    /// `Bin` before the move of its result, a move before a `br`, a `br`
    /// onto its loop test, a ternary joining into a `const; add` pair, a
    /// `try`/`catch`/`finally`, calls, `newobj`, literals, statics,
    /// multidimensional arrays, math routines and an intrinsic fallback,
    /// monitors, boxing, casts.
    const SLOTS: &str = r#"
        class Cell {
            int v;
            Cell next;
            Cell(int v) { this.v = v; next = null; }
            virtual int Get() { return v; }
        }
        class Twice : Cell {
            Twice(int w) { v = w; }
            override int Get() { return v * 2; }
        }
        class Fix {
            static int hits;
            static object gate;
            static double scale;
            static int Add(int a, int b) { return a + b; }
            static Cell Pick(Cell a, Cell b) { return a == b ? a : b; }
            static int Loop(int n) {
                int s = 0;
                for (int i = 0; i < n; i++) { s = s * 3 + i; }
                long w = 5;
                while (w < 40) { w = w * 2; }
                return s + (int)w;
            }
            static int Join(int n) { return n + (n != 0 ? 1 : 2); }
            static int Arrays(int n) {
                int[] a = new int[n + 4];
                double[] d = new double[n + 4];
                object[] o = new object[2];
                for (int i = 0; i < a.Length; i++) { a[i] = 7; d[i] = 0.5; }
                a[n] = a[n] + 3;
                o[0] = "s";
                o[1] = o[0];
                bool same = o[1] == o[0];
                int k = same ? 1 : 0;
                return a[n] + a.Length + (int)(d[n] * 4.0) + k;
            }
            static int Multi(int n) {
                double[,] m = new double[n, n + 1];
                object[,] r = new object[2, 2];
                for (int i = 0; i < n; i++) {
                    for (int j = 0; j <= n; j++) { m[i, j] = i * j; }
                }
                r[1, 1] = "x";
                int there = r[1, 1] == null ? 0 : 1;
                return (int)m[n - 1, n] + m.GetLength(1) + there;
            }
            static int Maths(int n) {
                double x = n;
                double y = Math.Sqrt(x) + Math.Pow(x, 2.0) + Math.Abs(0.0 - x);
                float f = (float)y;
                long l = n;
                l = -l;
                int k = ~n;
                bool big = x > 3.5;
                scale = y;
                return (int)y + (int)f + (int)l + k + Math.Max(n, 3) + (big ? 1 : 0) + (int)scale;
            }
            static int Guard(int n) {
                int r = 0;
                try {
                    if (n > 2) { throw new Exception(); }
                    r = n;
                } catch (Exception e) {
                    r = -1;
                } finally {
                    hits = hits + 1;
                }
                return r + hits;
            }
            static int Locked(int n) {
                gate = new Cell(n);
                lock (gate) { n = n + 1; }
                object g = gate;
                Monitor.Enter(g);
                n = n * 2;
                Monitor.Exit(g);
                return n;
            }
            static int Boxes(int n) {
                object o = n;
                int back = (int)o;
                object t = new Twice(n);
                Cell c = (Cell)t;
                if (c.next != null) { return -1; }
                c.next = c;
                return back + c.Get() + c.next.v;
            }
            static int Text(int n) {
                string s = "ab" + n;
                return s.Length;
            }
            static int Calls(int n) {
                Cell a = new Cell(n);
                Cell b = new Twice(n);
                return a.Get() + b.Get() + Add(n, 2) + Pick(a, b).Get();
            }
        }
    "#;

    #[test]
    fn an_op_record_is_at_most_32_bytes() {
        let size = std::mem::size_of::<crate::compiled::Op>();
        assert!(size <= 32, "{size} bytes");
    }

    /// What MiniC# does not emit: a `U1` store, `isinst`, and a branch on
    /// a reference. `B.Bytes(x)` stores 300 into a fresh `uint8[x + 1]`
    /// and returns the masked byte unless the array is a `B`.
    fn bytes() -> Module {
        let mut mb = ModuleBuilder::new();
        declare_prelude(&mut mb);
        let c = mb.declare_class("B", None);
        let mut f = mb.method(c, "Bytes", vec![CilType::I4], CilType::I4, MethodKind::Static);
        let arr = f.local(CilType::array_of(CilType::U1));
        let l = f.new_label();
        f.ld_arg(0);
        f.ldc_i4(1);
        f.bin(BinOp::Add);
        f.emit(Op::NewArr(ElemKind::U1));
        f.st_loc(arr);
        f.ld_loc(arr);
        f.ldc_i4(0);
        f.ldc_i4(300);
        f.emit(Op::StElem(ElemKind::U1));
        f.ld_loc(arr);
        f.emit(Op::IsInst(c));
        f.br_true(l);
        f.ld_loc(arr);
        f.ldc_i4(0);
        f.emit(Op::LdElem(ElemKind::U1));
        f.ret();
        f.place(l);
        f.ldc_i4(-1);
        f.ret();
        f.finish();
        mb.finish()
    }

    /// FNV-1a 64.
    fn fnv(bytes: &[u8]) -> u64 {
        let step = |h: u64, &b: &u8| (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, step)
    }

    /// Per method of `module`'s classes `classes`: its slot count on
    /// `profile`, unobserved, and for a static `int(int)` its result on 5,
    /// held to the interpreter's.
    fn layout(module: &Module, classes: &[&str], profile: VmProfile) -> String {
        let oracle = Vm::new(module.clone(), VmProfile::sscli10()).unwrap();
        let vm = Vm::new(module.clone(), profile.with_observe(ObserveLevel::Off)).unwrap();
        // A slot built wrong may loop: fuel turns that into a result.
        vm.set_fuel(Some(1 << 20));
        let mut listing = String::new();
        for (i, md) in module.methods.iter().enumerate() {
            if !classes.contains(&module.class(md.owner).name.as_str()) {
                continue;
            }
            let m = MethodId(i as u32);
            let name = vm.method_display_name(m);
            let n_ops = vm.threaded(m).unwrap().ops.len();
            let result = match md.params[..] {
                [CilType::I4] if md.is_static => {
                    let r = format!("{:?}", vm.invoke(m, vec![Value::I4(5)]));
                    let want = format!("{:?}", oracle.invoke(m, vec![Value::I4(5)]));
                    assert_eq!(r, want, "{name} on {}", profile.name);
                    r
                }
                _ => String::new(),
            };
            listing += &format!("{name}\t{n_ops}\t{result}\n");
        }
        listing
    }

    /// The slot layout of [`SLOTS`] and [`bytes`] on the three register
    /// profiles. A fused pair built with a wrong operand changes a result;
    /// a pair formed or split differently changes a slot count.
    #[test]
    fn the_slot_layout_of_every_instruction_and_pair_is_pinned() {
        let (slots, bytes) = (hpcnet_minics::compile(SLOTS).unwrap(), bytes());
        let profiles = [VmProfile::clr11(), VmProfile::clr11_compiled(), VmProfile::mono023()];
        let listings = profiles
            .map(|p| layout(&slots, &["Cell", "Twice", "Fix"], p) + &layout(&bytes, &["B"], p));
        let want = [0xe2df_80cf_fc23_b24c, 0xe2df_80cf_fc23_b24c, 0x3859_15f8_7276_6f33];
        assert_eq!(listings.each_ref().map(|l| fnv(l.as_bytes())), want, "{listings:#?}");
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
