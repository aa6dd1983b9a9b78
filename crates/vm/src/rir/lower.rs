//! CIL → RIR lowering.
//!
//! Translation follows the canonical stack-to-register scheme every JIT in
//! the paper uses: evaluation-stack cell *d* maps to a fixed pair of
//! virtual registers (one primitive, one reference — the verifier
//! guarantees a consistent kind at every merge point), arguments and locals
//! get their own virtual registers, and each stack operation becomes a
//! three-address instruction. The raw output is deliberately naive — it
//! contains all the stack-shuffle moves, which is exactly what Mono 0.23's
//! "very close to the actual CIL" code looked like (Table 8). The
//! optimizing passes in [`crate::rir::opt`] then earn each profile its
//! performance.
//!
//! Inlining happens here (for profiles that enable it): eligible callees
//! are lowered separately and spliced in with renumbered registers, their
//! `ret`s rewritten to moves plus jumps.

use crate::error::{VmError, VmResult};
use crate::machine::Vm;
use crate::rir::audit::ElisionCert;
use crate::rir::opt::Scratch;
use crate::rir::{ArgSlot, BoundsMode, DstSlot, Operand, RInst};
use hpcnet_cil::module::{EhKind, MethodId};
use hpcnet_cil::verify::verify_method;
use hpcnet_cil::{CilType, Intrinsic, NumTy, Op};
use std::sync::Arc;

/// Lowered (pre-allocation) method: virtual-register RIR.
#[derive(Debug, Clone)]
pub(crate) struct Lowered {
    pub code: Vec<RInst>,
    pub eh: Vec<hpcnet_cil::EhRegion>,
    pub eh_exc_vregs: Vec<u16>,
    pub arg_locs: Vec<ArgSlot>,
    pub n_pvreg: u16,
    pub n_rvreg: u16,
    /// One certificate per elided bounds check, kept in sync with `code`
    /// pcs by every pass that moves instructions (see [`crate::rir::audit`]).
    pub certs: Vec<ElisionCert>,
}

/// One stack cell's kind at a program point.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    P(NumTy),
    R,
}

/// The kind of a recorded stack cell (`None` is a reference).
fn kind_of(cell: Option<NumTy>) -> Kind {
    match cell {
        Some(n) => Kind::P(n),
        None => Kind::R,
    }
}

/// The numeric kind of an arithmetic operand's cell; verification never
/// records a reference there.
fn operand_num(cell: Option<NumTy>, op: &str) -> VmResult<NumTy> {
    cell.ok_or_else(|| VmError::Internal(format!("lowering {op} of a reference operand")))
}

fn kind_of_ty(t: &CilType) -> Kind {
    match t.num_ty() {
        Some(n) => Kind::P(n),
        None => Kind::R,
    }
}

struct Ctx<'v> {
    vm: &'v Arc<Vm>,
    /// The compile's spares: the stack-cell and pc tables come from
    /// them and go back when the body is lowered.
    scratch: &'v mut Scratch,
    code: Vec<RInst>,
    n_pvreg: u16,
    n_rvreg: u16,
    arg_locs: Vec<ArgSlot>,
    local_locs: Vec<ArgSlot>,
    stack_p: Vec<u16>,
    stack_r: Vec<u16>,
    /// CIL pc → RIR index of its first instruction.
    cil_start: Vec<u32>,
    /// (RIR index, CIL target) pairs to patch after lowering.
    patches: Vec<(usize, u32)>,
    allow_inline: bool,
    inline_depth: u32,
}

impl<'v> Ctx<'v> {
    fn pvreg(&mut self) -> u16 {
        let v = self.n_pvreg;
        self.n_pvreg += 1;
        v
    }

    fn rvreg(&mut self) -> u16 {
        let v = self.n_rvreg;
        self.n_rvreg += 1;
        v
    }

    fn p(&self, depth: usize) -> u16 {
        self.stack_p[depth]
    }

    fn r(&self, depth: usize) -> u16 {
        self.stack_r[depth]
    }

    /// The cell at `depth` as a typed arg location.
    fn cell_arg(&self, depth: usize, k: Kind) -> ArgSlot {
        match k {
            Kind::P(t) => ArgSlot::P(t, self.p(depth)),
            Kind::R => ArgSlot::R(self.r(depth)),
        }
    }

    fn cell_dst(&self, depth: usize, k: Kind) -> DstSlot {
        match k {
            Kind::P(_) => DstSlot::P(self.p(depth)),
            Kind::R => DstSlot::R(self.r(depth)),
        }
    }

    fn emit(&mut self, i: RInst) {
        self.code.push(i);
    }

    fn emit_branch(&mut self, i: RInst, cil_target: u32) {
        self.patches.push((self.code.len(), cil_target));
        self.code.push(i);
    }

    /// Copy a cell/location pair of matching kind.
    fn mov(&mut self, dst: ArgSlot, src: ArgSlot) {
        match (dst, src) {
            (ArgSlot::P(_, d), ArgSlot::P(_, s)) => {
                self.emit(RInst::MovP { dst: d, src: s });
            }
            (ArgSlot::R(d), ArgSlot::R(s)) => {
                self.emit(RInst::MovR { dst: d, src: s });
            }
            _ => unreachable!("kind mismatch in mov (verifier)"),
        }
    }
}

/// The argument/return kind signature of an intrinsic.
fn intrinsic_sig(i: Intrinsic) -> (Vec<Kind>, Option<Kind>) {
    use Intrinsic::*;
    let p = Kind::P;
    match i {
        AbsI4 => (vec![p(NumTy::I4)], Some(p(NumTy::I4))),
        AbsI8 => (vec![p(NumTy::I8)], Some(p(NumTy::I8))),
        AbsR4 => (vec![p(NumTy::R4)], Some(p(NumTy::R4))),
        AbsR8 => (vec![p(NumTy::R8)], Some(p(NumTy::R8))),
        MaxI4 | MinI4 => (vec![p(NumTy::I4); 2], Some(p(NumTy::I4))),
        MaxI8 | MinI8 => (vec![p(NumTy::I8); 2], Some(p(NumTy::I8))),
        MaxR4 | MinR4 => (vec![p(NumTy::R4); 2], Some(p(NumTy::R4))),
        MaxR8 | MinR8 => (vec![p(NumTy::R8); 2], Some(p(NumTy::R8))),
        Sin | Cos | Tan | Asin | Acos | Atan | Floor | Ceil | Sqrt | Exp | Log | Rint => {
            (vec![p(NumTy::R8)], Some(p(NumTy::R8)))
        }
        Atan2 | Pow => (vec![p(NumTy::R8); 2], Some(p(NumTy::R8))),
        Random => (vec![], Some(p(NumTy::R8))),
        RoundR4 => (vec![p(NumTy::R4)], Some(p(NumTy::I4))),
        RoundR8 => (vec![p(NumTy::R8)], Some(p(NumTy::I8))),
        ConsoleWriteLineStr => (vec![Kind::R], None),
        ConsoleWriteLineI4 => (vec![p(NumTy::I4)], None),
        ConsoleWriteLineR8 => (vec![p(NumTy::R8)], None),
        CurrentTimeMillis | NanoTime => (vec![], Some(p(NumTy::I8))),
        ThreadStart => (vec![Kind::R], Some(p(NumTy::I4))),
        ThreadJoin => (vec![p(NumTy::I4)], None),
        ThreadYield => (vec![], None),
        MonitorEnter | MonitorExit => (vec![Kind::R], None),
        StrConcat => (vec![Kind::R, Kind::R], Some(Kind::R)),
        StrFromI4 => (vec![p(NumTy::I4)], Some(Kind::R)),
        StrFromI8 => (vec![p(NumTy::I8)], Some(Kind::R)),
        StrFromR8 => (vec![p(NumTy::R8)], Some(Kind::R)),
        StrLen => (vec![Kind::R], Some(p(NumTy::I4))),
        SerializeObj => (vec![Kind::R], Some(p(NumTy::I4))),
        DeserializeObj => (vec![], Some(Kind::R)),
    }
}

pub(crate) fn lower(
    vm: &Arc<Vm>,
    method: MethodId,
    allow_inline: bool,
    inline_depth: u32,
    scratch: &mut Scratch,
) -> VmResult<Lowered> {
    let module = vm.module.clone();
    let m = module.method(method);
    // Lower from the stack shapes `verify_module` recorded. A body bound
    // without them, or whose table is not for this code, is verified here.
    let fresh;
    let shapes = match &m.body.stack_shapes {
        Some(shapes) if shapes.len() == m.body.code.len() => shapes,
        _ => {
            fresh = verify_method(&module, method)
                .map_err(|e| VmError::Internal(format!("lowering unverifiable method: {e}")))?;
            &fresh
        }
    };

    let cells = shapes.max_depth() as usize + 1;
    let branches = m.body.code.iter().filter(|op| op.branch_target().is_some()).count();
    let mut cil_start = scratch.u32s.take();
    cil_start.reserve(m.body.code.len() + 1);
    let (mut stack_p, mut stack_r) = (scratch.u16s.take(), scratch.u16s.take());
    stack_p.reserve(cells);
    stack_r.reserve(cells);
    let mut ctx = Ctx {
        vm,
        scratch,
        code: Vec::with_capacity(m.body.code.len() * 2),
        n_pvreg: 0,
        n_rvreg: 0,
        arg_locs: Vec::with_capacity(usize::from(!m.is_static) + m.params.len()),
        local_locs: Vec::with_capacity(m.body.locals.len()),
        stack_p,
        stack_r,
        cil_start,
        patches: Vec::with_capacity(branches),
        allow_inline,
        inline_depth,
    };

    // Argument and local virtual registers.
    let this = (!m.is_static).then_some(CilType::Class(m.owner));
    for t in this.iter().chain(&m.params) {
        let loc = match kind_of_ty(t) {
            Kind::P(nt) => ArgSlot::P(nt, ctx.pvreg()),
            Kind::R => ArgSlot::R(ctx.rvreg()),
        };
        ctx.arg_locs.push(loc);
    }
    for t in &m.body.locals {
        let loc = match kind_of_ty(t) {
            Kind::P(nt) => ArgSlot::P(nt, ctx.pvreg()),
            Kind::R => ArgSlot::R(ctx.rvreg()),
        };
        ctx.local_locs.push(loc);
    }
    // Canonical stack-cell virtual registers (both kinds per depth), sized
    // from the shapes just above rather than `m.body.max_stack`, so a body
    // verified here needs nothing `verify_module` fills in.
    for _ in 0..cells {
        let p = ctx.pvreg();
        let r = ctx.rvreg();
        ctx.stack_p.push(p);
        ctx.stack_r.push(r);
    }

    // Locals zero-initialize on entry (CLI `.locals init` semantics).
    for (li, t) in m.body.locals.iter().enumerate() {
        match ctx.local_locs[li] {
            ArgSlot::P(_, v) => ctx.emit(RInst::ConstP { dst: v, bits: 0 }),
            ArgSlot::R(v) => ctx.emit(RInst::ConstNull { dst: v }),
        }
        let _ = t;
    }

    for (op, st) in m.body.code.iter().zip(shapes.iter()) {
        ctx.cil_start.push(ctx.code.len() as u32);
        let Some(st) = st else {
            continue; // unreachable instruction
        };
        let d = st.len();
        let kind_at = |i: usize| kind_of(st[i]);
        match op {
            Op::Nop => {}
            Op::LdcI4(v) => ctx.emit(RInst::ConstP {
                dst: ctx.p(d),
                bits: *v as u32 as u64,
            }),
            Op::LdcI8(v) => ctx.emit(RInst::ConstP {
                dst: ctx.p(d),
                bits: *v as u64,
            }),
            Op::LdcR4(v) => ctx.emit(RInst::ConstP {
                dst: ctx.p(d),
                bits: v.to_bits() as u64,
            }),
            Op::LdcR8(v) => ctx.emit(RInst::ConstP {
                dst: ctx.p(d),
                bits: v.to_bits(),
            }),
            Op::LdNull => ctx.emit(RInst::ConstNull { dst: ctx.r(d) }),
            Op::LdStr(s) => ctx.emit(RInst::ConstStr { dst: ctx.r(d), s: *s }),
            Op::LdLoc(i) => {
                let src = ctx.local_locs[*i as usize];
                let dst = ctx.cell_arg(d, arg_kind(&src));
                ctx.mov(dst, src);
            }
            Op::StLoc(i) => {
                let dst = ctx.local_locs[*i as usize];
                let src = ctx.cell_arg(d - 1, arg_kind(&dst));
                ctx.mov(dst, src);
            }
            Op::LdArg(i) => {
                let src = ctx.arg_locs[*i as usize];
                let dst = ctx.cell_arg(d, arg_kind(&src));
                ctx.mov(dst, src);
            }
            Op::StArg(i) => {
                let dst = ctx.arg_locs[*i as usize];
                let src = ctx.cell_arg(d - 1, arg_kind(&dst));
                ctx.mov(dst, src);
            }
            Op::Dup => {
                let k = kind_at(d - 1);
                let dst = ctx.cell_arg(d, k);
                let src = ctx.cell_arg(d - 1, k);
                ctx.mov(dst, src);
            }
            Op::Pop => {}
            Op::Bin(b) => {
                let ty = operand_num(st[d - 2], "bin")?;
                let (dst, a, bop) = (ctx.p(d - 2), ctx.p(d - 2), Operand::Slot(ctx.p(d - 1)));
                ctx.emit(RInst::Bin { op: *b, ty, dst, a, b: bop });
            }
            Op::Un(u) => {
                let ty = operand_num(st[d - 1], "un")?;
                ctx.emit(RInst::Un {
                    op: *u,
                    ty,
                    dst: ctx.p(d - 1),
                    a: ctx.p(d - 1),
                });
            }
            Op::Cmp(c) => match st[d - 2] {
                Some(ty) => ctx.emit(RInst::Cmp {
                    op: *c,
                    ty,
                    dst: ctx.p(d - 2),
                    a: ctx.p(d - 2),
                    b: Operand::Slot(ctx.p(d - 1)),
                }),
                None => ctx.emit(RInst::CmpRef {
                    op: *c,
                    dst: ctx.p(d - 2),
                    a: ctx.r(d - 2),
                    b: ctx.r(d - 1),
                }),
            },
            Op::Conv(to) => {
                let from = operand_num(st[d - 1], "conv")?;
                ctx.emit(RInst::Conv {
                    from,
                    to: *to,
                    dst: ctx.p(d - 1),
                    src: ctx.p(d - 1),
                });
            }
            Op::Br(t) => ctx.emit_branch(RInst::Br { t: 0 }, *t),
            Op::BrTrue(t) | Op::BrFalse(t) => {
                let negate = matches!(op, Op::BrFalse(_));
                let inst = match kind_at(d - 1) {
                    Kind::P(_) => RInst::BrIf {
                        cond: ctx.p(d - 1),
                        t: 0,
                        negate,
                    },
                    Kind::R => RInst::BrIfRef {
                        cond: ctx.r(d - 1),
                        t: 0,
                        negate,
                    },
                };
                ctx.emit_branch(inst, *t);
            }
            Op::BrCmp(c, t) => match st[d - 2] {
                Some(ty) => ctx.emit_branch(
                    RInst::BrCmp {
                        op: *c,
                        ty,
                        a: ctx.p(d - 2),
                        b: Operand::Slot(ctx.p(d - 1)),
                        t: 0,
                    },
                    *t,
                ),
                None => {
                    let scratch = ctx.p(d - 2);
                    ctx.emit(RInst::CmpRef {
                        op: *c,
                        dst: scratch,
                        a: ctx.r(d - 2),
                        b: ctx.r(d - 1),
                    });
                    ctx.emit_branch(
                        RInst::BrIf {
                            cond: scratch,
                            t: 0,
                            negate: false,
                        },
                        *t,
                    );
                }
            },
            Op::Call(mid) | Op::CallVirt(mid) => {
                let callee = module.method(*mid);
                let virt = matches!(op, Op::CallVirt(_));
                let n = callee.arg_count();
                let base = d - n;
                let mut arg_tys2: Vec<CilType> = Vec::new();
                if !callee.is_static {
                    arg_tys2.push(CilType::Class(callee.owner));
                }
                arg_tys2.extend(callee.params.iter().cloned());
                let args: Box<[ArgSlot]> = arg_tys2
                    .iter()
                    .enumerate()
                    .map(|(k, t)| ctx.cell_arg(base + k, kind_of_ty(t)))
                    .collect();
                let dst = if callee.ret == CilType::Void {
                    None
                } else {
                    Some(ctx.cell_dst(base, kind_of_ty(&callee.ret)))
                };
                let inlined = !virt
                    && ctx.allow_inline
                    && ctx.inline_depth == 0
                    && try_inline(&mut ctx, *mid, &args, dst)?;
                if !inlined {
                    ctx.emit(RInst::Call {
                        target: *mid,
                        virt,
                        args,
                        dst,
                    });
                }
            }
            Op::CallIntrinsic(i) => {
                let (kinds, ret) = intrinsic_sig(*i);
                let n = kinds.len();
                let base = d - n;
                let args: Box<[ArgSlot]> = kinds
                    .iter()
                    .enumerate()
                    .map(|(k, kind)| ctx.cell_arg(base + k, *kind))
                    .collect();
                let dst = ret.map(|k| ctx.cell_dst(base, k));
                ctx.emit(RInst::CallIntr { i: *i, args, dst });
            }
            Op::Ret => {
                let src = if m.ret == CilType::Void {
                    None
                } else {
                    Some(ctx.cell_arg(d - 1, kind_of_ty(&m.ret)))
                };
                ctx.emit(RInst::Ret { src });
            }
            Op::NewObj(ctor_id) => {
                let ctor = module.method(*ctor_id);
                let n = ctor.params.len();
                let base = d - n;
                let args: Box<[ArgSlot]> = ctor
                    .params
                    .iter()
                    .enumerate()
                    .map(|(k, t)| ctx.cell_arg(base + k, kind_of_ty(t)))
                    .collect();
                ctx.emit(RInst::NewObj {
                    ctor: *ctor_id,
                    args,
                    dst: ctx.r(base),
                });
            }
            Op::LdFld(f) => {
                let fd = module.field(*f);
                let dst = ctx.cell_dst(d - 1, kind_of_ty(&fd.ty));
                ctx.emit(RInst::LdFld {
                    obj: ctx.r(d - 1),
                    slot: fd.slot,
                    dst,
                });
            }
            Op::StFld(f) => {
                let fd = module.field(*f);
                let src = ctx.cell_arg(d - 1, kind_of_ty(&fd.ty));
                ctx.emit(RInst::StFld {
                    obj: ctx.r(d - 2),
                    slot: fd.slot,
                    src,
                });
            }
            Op::LdSFld(f) => {
                let fd = module.field(*f);
                let dst = ctx.cell_dst(d, kind_of_ty(&fd.ty));
                ctx.emit(RInst::LdSFld { slot: fd.slot, dst });
            }
            Op::StSFld(f) => {
                let fd = module.field(*f);
                let src = ctx.cell_arg(d - 1, kind_of_ty(&fd.ty));
                ctx.emit(RInst::StSFld { slot: fd.slot, src });
            }
            Op::IsInst(c) => ctx.emit(RInst::IsInst {
                class: *c,
                src: ctx.r(d - 1),
                dst: ctx.p(d - 1),
            }),
            Op::CastClass(c) => ctx.emit(RInst::CastClass {
                class: *c,
                src: ctx.r(d - 1),
                dst: ctx.r(d - 1),
            }),
            Op::NewArr(kind) => ctx.emit(RInst::NewArr {
                kind: *kind,
                len: ctx.p(d - 1),
                dst: ctx.r(d - 1),
            }),
            Op::LdLen => ctx.emit(RInst::LdLen {
                arr: ctx.r(d - 1),
                dst: ctx.p(d - 1),
            }),
            Op::LdElem(kind) => {
                let dst = ctx.cell_dst(d - 2, elem_dst_kind(*kind));
                ctx.emit(RInst::LdElem {
                    kind: *kind,
                    arr: ctx.r(d - 2),
                    idx: ctx.p(d - 1),
                    dst,
                    bounds: BoundsMode::Checked,
                });
            }
            Op::StElem(kind) => {
                let src = ctx.cell_arg(d - 1, elem_dst_kind(*kind));
                ctx.emit(RInst::StElem {
                    kind: *kind,
                    arr: ctx.r(d - 3),
                    idx: ctx.p(d - 2),
                    src,
                    bounds: BoundsMode::Checked,
                });
            }
            Op::NewMultiArr { kind, rank } => {
                let base = d - *rank as usize;
                let dims: Box<[u16]> = (0..*rank as usize).map(|k| ctx.p(base + k)).collect();
                ctx.emit(RInst::NewMulti {
                    kind: *kind,
                    dims,
                    dst: ctx.r(base),
                });
            }
            Op::LdElemMulti { kind, rank } => {
                let base = d - *rank as usize - 1;
                let idxs: Box<[u16]> = (0..*rank as usize).map(|k| ctx.p(base + 1 + k)).collect();
                let dst = ctx.cell_dst(base, elem_dst_kind(*kind));
                ctx.emit(RInst::LdElemMulti {
                    kind: *kind,
                    arr: ctx.r(base),
                    idxs,
                    dst,
                });
            }
            Op::StElemMulti { kind, rank } => {
                let base = d - *rank as usize - 2;
                let idxs: Box<[u16]> = (0..*rank as usize).map(|k| ctx.p(base + 1 + k)).collect();
                let src = ctx.cell_arg(d - 1, elem_dst_kind(*kind));
                ctx.emit(RInst::StElemMulti {
                    kind: *kind,
                    arr: ctx.r(base),
                    idxs,
                    src,
                });
            }
            Op::LdMultiLen { dim } => ctx.emit(RInst::LdMultiLen {
                arr: ctx.r(d - 1),
                dim: *dim,
                dst: ctx.p(d - 1),
            }),
            Op::BoxVal(nt) => ctx.emit(RInst::BoxV {
                ty: *nt,
                src: ctx.p(d - 1),
                dst: ctx.r(d - 1),
            }),
            Op::UnboxVal(nt) => ctx.emit(RInst::UnboxV {
                ty: *nt,
                src: ctx.r(d - 1),
                dst: ctx.p(d - 1),
            }),
            Op::Throw => ctx.emit(RInst::Throw { src: ctx.r(d - 1) }),
            Op::Leave(t) => ctx.emit_branch(RInst::Leave { t: 0 }, *t),
            Op::EndFinally => ctx.emit(RInst::EndFinally),
        }
    }
    ctx.cil_start.push(ctx.code.len() as u32); // end sentinel

    // Every CIL pc must map somewhere; an unreachable tail instruction maps
    // to the end.
    for (at, cil_t) in std::mem::take(&mut ctx.patches) {
        let rt = ctx.cil_start[cil_t as usize];
        ctx.code[at].set_target(rt);
    }

    // Exception regions over RIR indices.
    let mut eh = Vec::with_capacity(m.body.eh.len());
    let mut eh_exc_vregs = Vec::with_capacity(m.body.eh.len());
    for r in &m.body.eh {
        eh.push(hpcnet_cil::EhRegion {
            try_start: ctx.cil_start[r.try_start as usize],
            try_end: ctx.cil_start[r.try_end as usize],
            handler_start: ctx.cil_start[r.handler_start as usize],
            handler_end: ctx.cil_start[r.handler_end as usize],
            kind: r.kind,
        });
        // Catch handlers receive the exception in stack cell 0 (ref kind).
        eh_exc_vregs.push(match r.kind {
            EhKind::Catch(_) => ctx.stack_r[0],
            EhKind::Finally => u16::MAX,
        });
    }
    ctx.scratch.u32s.give(ctx.cil_start);
    ctx.scratch.u16s.give(ctx.stack_p);
    ctx.scratch.u16s.give(ctx.stack_r);

    Ok(Lowered {
        code: ctx.code,
        eh,
        eh_exc_vregs,
        arg_locs: ctx.arg_locs,
        n_pvreg: ctx.n_pvreg,
        n_rvreg: ctx.n_rvreg,
        certs: Vec::new(),
    })
}

fn arg_kind(a: &ArgSlot) -> Kind {
    match a {
        ArgSlot::P(t, _) => Kind::P(*t),
        ArgSlot::R(_) => Kind::R,
    }
}

fn elem_dst_kind(k: hpcnet_cil::ElemKind) -> Kind {
    match k.num_ty() {
        Some(nt) => Kind::P(nt),
        None => Kind::R,
    }
}

/// The largest callee inlined, in CIL instructions and again in RIR
/// instructions once lowered; the same on every profile with `inline` on.
const INLINE_MAX_OPS: usize = 24;

/// Attempt to inline a static callee at the current emission point.
/// Returns true when the call was replaced by the spliced body.
fn try_inline(
    ctx: &mut Ctx<'_>,
    callee_id: MethodId,
    args: &[ArgSlot],
    dst: Option<DstSlot>,
) -> VmResult<bool> {
    let module = ctx.vm.module.clone();
    let callee = module.method(callee_id);
    if !callee.is_static || !callee.body.eh.is_empty() {
        return Ok(false);
    }
    // A quick size gate on the CIL before paying for a lowering.
    if callee.body.code.len() > INLINE_MAX_OPS {
        return Ok(false);
    }
    let sub = lower(ctx.vm, callee_id, false, ctx.inline_depth + 1, ctx.scratch)?;
    if sub.code.len() > INLINE_MAX_OPS {
        return Ok(false);
    }
    let pbase = ctx.n_pvreg;
    let rbase = ctx.n_rvreg;
    ctx.n_pvreg = ctx
        .n_pvreg
        .checked_add(sub.n_pvreg)
        .ok_or_else(|| VmError::Internal("vreg overflow while inlining".into()))?;
    ctx.n_rvreg += sub.n_rvreg;

    // Marshal arguments into the callee's argument registers.
    for (arg, loc) in args.iter().zip(sub.arg_locs.iter()) {
        let dst_loc = offset_arg(*loc, pbase, rbase);
        ctx.mov(dst_loc, *arg);
    }

    let mut idx_map = ctx.scratch.u32s.take();
    idx_map.reserve(sub.code.len() + 1);
    let mut inner_branches: Vec<(usize, u32)> = Vec::new();
    let mut exit_branches: Vec<usize> = Vec::new();
    for inst in sub.code {
        idx_map.push(ctx.code.len() as u32);
        match inst {
            RInst::Ret { src } => {
                if let (Some(s), Some(dloc)) = (src, dst) {
                    let s2 = offset_arg(s, pbase, rbase);
                    match dloc {
                        DstSlot::P(dp) => ctx.mov(ArgSlot::P(NumTy::I8, dp), s2),
                        DstSlot::R(dr) => ctx.mov(ArgSlot::R(dr), s2),
                    }
                }
                exit_branches.push(ctx.code.len());
                ctx.code.push(RInst::Br { t: 0 });
            }
            mut other => {
                let old_target = other.target();
                other.slots_mut(|role, v| *v += if role.is_prim() { pbase } else { rbase });
                if let Some(t) = old_target {
                    inner_branches.push((ctx.code.len(), t));
                    other.set_target(u32::MAX);
                }
                ctx.code.push(other);
            }
        }
    }
    idx_map.push(ctx.code.len() as u32);
    for (at, old_t) in inner_branches {
        ctx.code[at].set_target(idx_map[old_t as usize]);
    }
    ctx.scratch.u32s.give(idx_map);
    let after = ctx.code.len() as u32;
    for at in exit_branches {
        ctx.code[at].set_target(after);
    }
    Ok(true)
}

fn offset_arg(a: ArgSlot, pbase: u16, rbase: u16) -> ArgSlot {
    match a {
        ArgSlot::P(t, v) => ArgSlot::P(t, v + pbase),
        ArgSlot::R(v) => ArgSlot::R(v + rbase),
    }
}
