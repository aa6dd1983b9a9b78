//! Stack-effect verification.
//!
//! The CLI's design calls for representing "type behavior in a way that can
//! be verified as type safe". This module implements that for our subset: an
//! abstract interpretation over evaluation-stack types that rejects
//! underflow, operand-kind mismatches, inconsistent merge states and
//! signature violations — and, as a by-product, records the stack shape at
//! every instruction. The execution engines *trust* verified code (exactly
//! as a real JIT trusts the loader), and the optimizing tiers reuse the
//! recorded shapes to drive stack-to-register translation.
//!
//! [`verify_method`] keeps a full abstract stack only at block entries:
//! pc 0, every in-bounds branch or `leave` target, and every handler start.
//! It pops an entry off a LIFO worklist and walks the straight-line run
//! from it with one stack, changed in place, until control leaves the run
//! or falls into the next entry. Arriving at an entry merges into its
//! state; an entry whose state is new or widened goes back on the
//! worklist, and its run is walked again with the wider state, so each
//! instruction is checked against every stack that reaches it. A merge
//! never changes a depth or a numeric kind (it rejects the code instead),
//! so the shape an instruction gets the first time a walk reaches it — its
//! depth and each cell's numeric kind, `None` for a reference — is its
//! shape for good; later walks only check it again.
//!
//! [`verify_module`] is the one verification of a module. Next to each
//! body's `max_stack` (its deepest shape) it stores the body's
//! [`StackShapes`]. The register tiers lower from that table; they call
//! [`verify_method`] themselves only for a body that has no table, or one
//! of another length than its code (a module bound without
//! `verify_module`, or a body edited after it).

use crate::module::{EhKind, FieldDef, MethodDef, MethodId, Module};
use crate::op::{BinOp, ElemKind, Intrinsic, Op, UnOp};
use crate::types::{CilType, NumTy};
use std::fmt;
use std::sync::Arc;

/// Abstract stack-cell type.
#[derive(Clone, Debug, PartialEq)]
pub enum VerTy {
    Num(NumTy),
    /// A reference with its statically-known type.
    Ref(CilType),
    /// The null literal (assignable to any reference type).
    Null,
}

impl VerTy {
    fn of(ty: &CilType) -> VerTy {
        match ty.num_ty() {
            Some(n) => VerTy::Num(n),
            None => VerTy::Ref(ty.clone()),
        }
    }

    /// The numeric kind, if numeric.
    pub fn num(&self) -> Option<NumTy> {
        match self {
            VerTy::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Is this a reference-kinded cell?
    pub fn is_ref(&self) -> bool {
        matches!(self, VerTy::Ref(_) | VerTy::Null)
    }
}

impl fmt::Display for VerTy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerTy::Num(n) => write!(f, "{n}"),
            VerTy::Ref(t) => write!(f, "{t}"),
            VerTy::Null => write!(f, "null"),
        }
    }
}

/// A verification failure, with the offending method and instruction.
#[derive(Debug, Clone)]
pub struct VerifyError {
    pub method: MethodId,
    pub pc: u32,
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "verify: {} @{}: {}", self.method, self.pc, self.message)
    }
}

impl std::error::Error for VerifyError {}

/// Entry depth of an instruction verification never reached.
const UNREACHED: u32 = u32::MAX;

/// The entry-stack shape of every instruction of one method body: whether
/// it is reachable, its depth, and each cell's numeric kind (`None` for a
/// reference). One flat table per method: the cells of every reachable
/// instruction, bottom first, back to back in instruction order.
#[derive(Clone, Debug)]
pub struct StackShapes {
    /// Entry depth per instruction; [`UNREACHED`] if it is unreachable.
    depths: Vec<u32>,
    cells: Vec<Option<NumTy>>,
}

impl StackShapes {
    /// Number of instructions described.
    pub fn len(&self) -> usize {
        self.depths.len()
    }

    pub fn is_empty(&self) -> bool {
        self.depths.is_empty()
    }

    /// The deepest entry stack of any reachable instruction (the
    /// verification's `max_stack`).
    pub fn max_depth(&self) -> u32 {
        self.depths
            .iter()
            .copied()
            .filter(|&d| d != UNREACHED)
            .max()
            .unwrap_or(0)
    }

    /// Each instruction's entry cells, bottom first; `None` if unreachable.
    pub fn iter(&self) -> impl Iterator<Item = Option<&[Option<NumTy>]>> + '_ {
        let mut at = 0;
        self.depths.iter().map(move |&d| {
            (d != UNREACHED).then(|| {
                let cells = &self.cells[at..at + d as usize];
                at += d as usize;
                cells
            })
        })
    }
}

struct Verifier<'m> {
    module: &'m Module,
    method: MethodId,
    def: &'m MethodDef,
    /// The receiver's type: argument 0 of an instance method.
    this: CilType,
    pc: u32,
}

/// Where control goes after one instruction.
struct Flow {
    fallthrough: bool,
    branch: Option<u32>,
}

impl<'m> Verifier<'m> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, VerifyError> {
        Err(VerifyError {
            method: self.method,
            pc: self.pc,
            message: msg.into(),
        })
    }

    /// Declared type of argument `i`, the receiver first for instance
    /// methods.
    fn arg(&self, i: u16) -> Option<&CilType> {
        let i = usize::from(i);
        match (self.def.is_static, i) {
            (true, _) => self.def.params.get(i),
            (false, 0) => Some(&self.this),
            (false, _) => self.def.params.get(i - 1),
        }
    }

    /// May a value of type `from` be stored where `to` is expected?
    fn assignable(&self, from: &VerTy, to: &CilType) -> bool {
        match (from, to) {
            (VerTy::Num(n), t) => t.num_ty() == Some(*n),
            (VerTy::Null, t) => t.is_ref(),
            (VerTy::Ref(_), CilType::Object) => true,
            (VerTy::Ref(CilType::Class(sub)), CilType::Class(sup)) => {
                self.module.is_subclass_of(*sub, *sup)
            }
            // CLI arrays are covariant over reference element types; this
            // also covers `newarr.ref`'s type-erased `object[]` result
            // flowing into jagged-array slots.
            (VerTy::Ref(CilType::Array(a)), CilType::Array(b)) => {
                a.as_ref() == b.as_ref()
                    || (a.is_ref() && b.is_ref())
                    // bool and int32 elements share the I4 storage kind
                    || (matches!(**a, CilType::I4 | CilType::Bool)
                        && matches!(**b, CilType::I4 | CilType::Bool))
            }
            (VerTy::Ref(a), b) => a == b,
        }
    }

    fn merge(&self, a: &VerTy, b: &VerTy) -> Result<VerTy, VerifyError> {
        match (a, b) {
            (VerTy::Num(x), VerTy::Num(y)) if x == y => Ok(VerTy::Num(*x)),
            (VerTy::Null, VerTy::Null) => Ok(VerTy::Null),
            (VerTy::Null, r @ VerTy::Ref(_)) | (r @ VerTy::Ref(_), VerTy::Null) => Ok(r.clone()),
            (VerTy::Ref(x), VerTy::Ref(y)) => {
                if x == y {
                    Ok(VerTy::Ref(x.clone()))
                } else if let (CilType::Class(cx), CilType::Class(cy)) = (x, y) {
                    // Walk up from cx until a common ancestor of cy.
                    let mut cur = Some(*cx);
                    while let Some(c) = cur {
                        if self.module.is_subclass_of(*cy, c) {
                            return Ok(VerTy::Ref(CilType::Class(c)));
                        }
                        cur = self.module.class(c).base;
                    }
                    Ok(VerTy::Ref(CilType::Object))
                } else {
                    Ok(VerTy::Ref(CilType::Object))
                }
            }
            _ => self.err(format!("inconsistent merge: {a} vs {b}")),
        }
    }

    /// Bring `st` to the block entry `pc`: the first arrival records it,
    /// later ones merge into it cell by cell. `pc` goes on the worklist
    /// when its state is new or widened.
    fn arrive(&self, w: &mut Work, pc: u32, st: &[VerTy]) -> Result<(), VerifyError> {
        let Some(slot) = w.states.get_mut(pc as usize) else {
            return self.err(format!("branch target {pc} out of bounds"));
        };
        match slot {
            None => {
                let mut state = w.spare.pop().unwrap_or_default();
                state.extend_from_slice(st);
                *slot = Some(state);
                w.work.push(pc);
            }
            Some(existing) => {
                if existing.len() != st.len() {
                    return self.err(format!(
                        "stack depth mismatch at {pc}: {} vs {}",
                        existing.len(),
                        st.len()
                    ));
                }
                let mut changed = false;
                for (e, s) in existing.iter_mut().zip(st) {
                    let m = self.merge(e, s)?;
                    if m != *e {
                        *e = m;
                        changed = true;
                    }
                }
                if changed {
                    w.work.push(pc);
                }
            }
        }
        Ok(())
    }

    /// Apply one instruction to the running stack `st` and say where
    /// control goes next.
    fn step(&self, op: &Op, st: &mut Vec<VerTy>) -> Result<Flow, VerifyError> {
        let (v, module, method) = (self, self.module, self.def);

        macro_rules! pop {
            () => {
                match st.pop() {
                    Some(t) => t,
                    None => return v.err("stack underflow"),
                }
            };
        }
        macro_rules! pop_num {
            () => {{
                let t = pop!();
                match t.num() {
                    Some(nt) => nt,
                    None => return v.err(format!("expected numeric, got {t}")),
                }
            }};
        }
        macro_rules! pop_i4 {
            () => {{
                let t = pop_num!();
                if t != NumTy::I4 {
                    return v.err(format!("expected int32, got {t}"));
                }
            }};
        }
        macro_rules! pop_ref {
            () => {{
                let t = pop!();
                if !t.is_ref() {
                    return v.err(format!("expected reference, got {t}"));
                }
                t
            }};
        }

        let mut fallthrough = true;
        let mut branch = None;

        match op {
            Op::Nop => {}
            Op::LdcI4(_) => st.push(VerTy::Num(NumTy::I4)),
            Op::LdcI8(_) => st.push(VerTy::Num(NumTy::I8)),
            Op::LdcR4(_) => st.push(VerTy::Num(NumTy::R4)),
            Op::LdcR8(_) => st.push(VerTy::Num(NumTy::R8)),
            Op::LdNull => st.push(VerTy::Null),
            Op::LdStr(_) => st.push(VerTy::Ref(CilType::Str)),
            Op::LdLoc(i) => {
                let Some(ty) = method.body.locals.get(*i as usize) else {
                    return v.err(format!("local {i} out of range"));
                };
                st.push(VerTy::of(ty));
            }
            Op::StLoc(i) => {
                let Some(ty) = method.body.locals.get(*i as usize) else {
                    return v.err(format!("local {i} out of range"));
                };
                let t = pop!();
                if !v.assignable(&t, ty) {
                    return v.err(format!("cannot store {t} into local of type {ty}"));
                }
            }
            Op::LdArg(i) => {
                let Some(ty) = v.arg(*i) else {
                    return v.err(format!("arg {i} out of range"));
                };
                st.push(VerTy::of(ty));
            }
            Op::StArg(i) => {
                let Some(ty) = v.arg(*i) else {
                    return v.err(format!("arg {i} out of range"));
                };
                let t = pop!();
                if !v.assignable(&t, ty) {
                    return v.err(format!("cannot store {t} into arg of type {ty}"));
                }
            }
            Op::Dup => {
                let t = pop!();
                st.push(t.clone());
                st.push(t);
            }
            Op::Pop => {
                pop!();
            }
            Op::Bin(b) => {
                let rhs = pop_num!();
                let lhs = pop_num!();
                // Shifts take an int32 count with any integer lhs.
                if matches!(b, BinOp::Shl | BinOp::Shr | BinOp::ShrUn) {
                    if rhs != NumTy::I4 || !lhs.is_int() {
                        return v.err(format!("shift on {lhs}/{rhs}"));
                    }
                    st.push(VerTy::Num(lhs));
                } else {
                    if lhs != rhs {
                        return v.err(format!("binary op on mixed kinds {lhs}/{rhs}"));
                    }
                    if b.int_only() && !lhs.is_int() {
                        return v.err(format!("{} on float kind {lhs}", b.mnemonic()));
                    }
                    st.push(VerTy::Num(lhs));
                }
            }
            Op::Un(u) => {
                let t = pop_num!();
                if *u == UnOp::Not && !t.is_int() {
                    return v.err("not on float kind");
                }
                st.push(VerTy::Num(t));
            }
            Op::Cmp(_) => {
                let a = pop!();
                let b = pop!();
                match (&a, &b) {
                    (VerTy::Num(x), VerTy::Num(y)) if x == y => {}
                    (x, y) if x.is_ref() && y.is_ref() => {}
                    _ => return v.err(format!("compare on {b} vs {a}")),
                }
                st.push(VerTy::Num(NumTy::I4));
            }
            Op::Conv(to) => {
                pop_num!();
                st.push(VerTy::Num(*to));
            }
            Op::Br(t) => {
                fallthrough = false;
                branch = Some(*t);
            }
            Op::BrTrue(t) | Op::BrFalse(t) => {
                let c = pop!();
                if c.num() != Some(NumTy::I4) && !c.is_ref() {
                    return v.err(format!("branch condition must be int32 or ref, got {c}"));
                }
                branch = Some(*t);
            }
            Op::BrCmp(_, t) => {
                let a = pop!();
                let b = pop!();
                match (&a, &b) {
                    (VerTy::Num(x), VerTy::Num(y)) if x == y => {}
                    (x, y) if x.is_ref() && y.is_ref() => {}
                    _ => return v.err(format!("fused compare on {b} vs {a}")),
                }
                branch = Some(*t);
            }
            Op::Call(mid) | Op::CallVirt(mid) => {
                let callee = module.method(*mid);
                if matches!(op, Op::CallVirt(_)) && callee.is_static {
                    return v.err("callvirt on static method");
                }
                for p in callee.params.iter().rev() {
                    let t = pop!();
                    if !v.assignable(&t, p) {
                        return v.err(format!("argument {t} not assignable to {p}"));
                    }
                }
                if !callee.is_static {
                    let recv = pop_ref!();
                    let owner = CilType::Class(callee.owner);
                    if !v.assignable(&recv, &owner) && !matches!(recv, VerTy::Ref(CilType::Object)) {
                        return v.err(format!("receiver {recv} not a {owner}"));
                    }
                }
                if callee.ret != CilType::Void {
                    st.push(VerTy::of(&callee.ret));
                }
            }
            Op::CallIntrinsic(i) => {
                verify_intrinsic(v, *i, st)?;
            }
            Op::Ret => {
                fallthrough = false;
                if method.ret == CilType::Void {
                    if !st.is_empty() {
                        return v.err("stack not empty at ret from void method");
                    }
                } else {
                    let t = pop!();
                    if !v.assignable(&t, &method.ret) {
                        return v.err(format!("return {t} not assignable to {}", method.ret));
                    }
                    if !st.is_empty() {
                        return v.err("stack not empty after ret value");
                    }
                }
            }
            Op::NewObj(ctor) => {
                let c = module.method(*ctor);
                if !c.is_ctor {
                    return v.err("newobj on non-constructor");
                }
                for p in c.params.iter().rev() {
                    let t = pop!();
                    if !v.assignable(&t, p) {
                        return v.err(format!("ctor argument {t} not assignable to {p}"));
                    }
                }
                st.push(VerTy::Ref(CilType::Class(c.owner)));
            }
            Op::LdFld(f) => {
                let fd = module.field(*f);
                if fd.is_static {
                    return v.err("ldfld on static field");
                }
                let recv = pop_ref!();
                check_receiver(v, &recv, fd)?;
                st.push(VerTy::of(&fd.ty));
            }
            Op::StFld(f) => {
                let fd = module.field(*f);
                if fd.is_static {
                    return v.err("stfld on static field");
                }
                let val = pop!();
                let recv = pop_ref!();
                check_receiver(v, &recv, fd)?;
                if !v.assignable(&val, &fd.ty) {
                    return v.err(format!("cannot store {val} into field {}", fd.name));
                }
            }
            Op::LdSFld(f) => {
                let fd = module.field(*f);
                if !fd.is_static {
                    return v.err("ldsfld on instance field");
                }
                st.push(VerTy::of(&fd.ty));
            }
            Op::StSFld(f) => {
                let fd = module.field(*f);
                if !fd.is_static {
                    return v.err("stsfld on instance field");
                }
                let val = pop!();
                if !v.assignable(&val, &fd.ty) {
                    return v.err(format!("cannot store {val} into static {}", fd.name));
                }
            }
            Op::IsInst(_) => {
                pop_ref!();
                st.push(VerTy::Num(NumTy::I4));
            }
            Op::CastClass(c) => {
                pop_ref!();
                st.push(VerTy::Ref(CilType::Class(*c)));
            }
            Op::NewArr(k) => {
                pop_i4!();
                st.push(VerTy::Ref(array_ty_of(*k)));
            }
            Op::LdLen => {
                let t = pop_ref!();
                if !matches!(
                    t,
                    VerTy::Ref(CilType::Array(_)) | VerTy::Ref(CilType::Object) | VerTy::Null
                ) {
                    return v.err(format!("ldlen on non-array {t}"));
                }
                st.push(VerTy::Num(NumTy::I4));
            }
            Op::LdElem(k) => {
                pop_i4!();
                let arr = pop_ref!();
                check_array(v, &arr, *k)?;
                st.push(elem_result(arr, *k));
            }
            Op::StElem(k) => {
                let val = pop!();
                pop_i4!();
                let arr = pop_ref!();
                check_array(v, &arr, *k)?;
                match k.num_ty() {
                    Some(nt) => {
                        if val.num() != Some(nt) {
                            return v.err(format!("stelem.{} of {val}", k.suffix()));
                        }
                    }
                    None => {
                        if !val.is_ref() {
                            return v.err(format!("stelem.ref of {val}"));
                        }
                    }
                }
            }
            Op::NewMultiArr { kind, rank } => {
                check_rank(v, *rank)?;
                for _ in 0..*rank {
                    pop_i4!();
                }
                st.push(VerTy::Ref(CilType::MultiArray {
                    elem: Arc::new(elem_cil_ty(*kind)),
                    rank: *rank,
                }));
            }
            Op::LdElemMulti { kind, rank } => {
                check_rank(v, *rank)?;
                for _ in 0..*rank {
                    pop_i4!();
                }
                let arr = pop_ref!();
                check_multi(v, &arr, *kind, *rank)?;
                st.push(elem_result(arr, *kind));
            }
            Op::StElemMulti { kind, rank } => {
                check_rank(v, *rank)?;
                let val = pop!();
                for _ in 0..*rank {
                    pop_i4!();
                }
                let arr = pop_ref!();
                check_multi(v, &arr, *kind, *rank)?;
                match kind.num_ty() {
                    Some(nt) => {
                        if val.num() != Some(nt) {
                            return v.err(format!("multi store of {val}"));
                        }
                    }
                    None => {
                        if !val.is_ref() {
                            return v.err(format!("multi ref store of {val}"));
                        }
                    }
                }
            }
            Op::LdMultiLen { .. } => {
                let arr = pop_ref!();
                if !matches!(
                    arr,
                    VerTy::Ref(CilType::MultiArray { .. }) | VerTy::Ref(CilType::Object)
                ) {
                    return v.err(format!("GetLength on non-multi {arr}"));
                }
                st.push(VerTy::Num(NumTy::I4));
            }
            Op::BoxVal(nt) => {
                let t = pop_num!();
                if t != *nt {
                    return v.err(format!("box.{nt} of {t}"));
                }
                st.push(VerTy::Ref(CilType::Object));
            }
            Op::UnboxVal(nt) => {
                pop_ref!();
                st.push(VerTy::Num(*nt));
            }
            Op::Throw => {
                fallthrough = false;
                pop_ref!();
            }
            Op::Leave(t) => {
                // Leave empties the evaluation stack.
                fallthrough = false;
                st.clear();
                branch = Some(*t);
            }
            Op::EndFinally => {
                fallthrough = false;
            }
        }
        Ok(Flow {
            fallthrough,
            branch,
        })
    }
}

/// The working state of one method's verification. [`verify_module`]
/// keeps one across the module's methods, so a body grows none of it
/// afresh; each table is sized to the body at hand when it starts.
#[derive(Default)]
struct Work {
    /// Block entries: pc 0, every in-bounds branch or `leave` target, and
    /// every handler start.
    leader: Vec<bool>,
    /// The merged entry state of each block entry reached so far.
    states: Vec<Option<Vec<VerTy>>>,
    /// Emptied entry states of earlier bodies, for the next entries.
    spare: Vec<Vec<VerTy>>,
    /// Block entries whose state is new or changed.
    work: Vec<u32>,
    /// Where each pc's cells start in `seen`.
    starts: Vec<u32>,
    seen: Vec<Option<NumTy>>,
    /// The running stack of the walk.
    st: Vec<VerTy>,
}

impl Work {
    /// Empty every table and size the per-pc ones to `n` instructions.
    fn start(&mut self, n: usize) {
        for mut state in self.states.drain(..).flatten() {
            state.clear();
            self.spare.push(state);
        }
        self.states.resize(n, None);
        self.leader.clear();
        self.leader.resize(n, false);
        self.starts.clear();
        self.starts.resize(n, 0);
        self.work.clear();
        self.seen.clear();
        self.st.clear();
    }
}

/// Verify a single method, returning the entry-stack shape of every
/// instruction.
pub fn verify_method(module: &Module, id: MethodId) -> Result<StackShapes, VerifyError> {
    verify_with(module, id, &mut Work::default())
}

fn verify_with(module: &Module, id: MethodId, w: &mut Work) -> Result<StackShapes, VerifyError> {
    let method = module.method(id);
    let code = &method.body.code;
    let mut v = Verifier {
        module,
        method: id,
        def: method,
        this: CilType::Class(method.owner),
        pc: 0,
    };

    let n = code.len();
    if n == 0 {
        return if method.ret == CilType::Void {
            Ok(StackShapes {
                depths: Vec::new(),
                cells: Vec::new(),
            })
        } else {
            v.err("empty body for non-void method")
        };
    }

    // Block entries. Only these keep a state; an out-of-bounds target is
    // rejected when control reaches its branch.
    w.start(n);
    w.leader[0] = true;
    for t in code.iter().filter_map(Op::branch_target) {
        if let Some(l) = w.leader.get_mut(t as usize) {
            *l = true;
        }
    }
    for region in &method.body.eh {
        if let Some(l) = w.leader.get_mut(region.handler_start as usize) {
            *l = true;
        }
    }

    v.arrive(w, 0, &[])?;
    // Handler entries are reachable with a synthetic stack.
    for region in &method.body.eh {
        let caught;
        let st: &[VerTy] = match region.kind {
            EhKind::Catch(c) => {
                caught = [VerTy::Ref(CilType::Class(c))];
                &caught
            }
            EhKind::Finally => &[],
        };
        v.arrive(w, region.handler_start, st)?;
    }

    // Each pc's shape, written the first time a walk reaches it: its
    // depth, and where its cells start in `seen` (in visit order).
    let mut depths = vec![UNREACHED; n];
    let mut st = std::mem::take(&mut w.st);
    while let Some(entry) = w.work.pop() {
        let Some(state) = &w.states[entry as usize] else {
            continue;
        };
        st.clone_from(state);
        // Walk the straight-line run from `entry` with one stack, until
        // control leaves it or falls into the next block entry.
        let mut pc = entry;
        loop {
            v.pc = pc;
            let at = pc as usize;
            if depths[at] == UNREACHED {
                depths[at] = st.len() as u32;
                w.starts[at] = w.seen.len() as u32;
                w.seen.extend(st.iter().map(VerTy::num));
            }
            let flow = v.step(&code[at], &mut st)?;
            if let Some(b) = flow.branch {
                v.arrive(w, b, &st)?;
            }
            if !flow.fallthrough {
                break;
            }
            if at + 1 >= n {
                return v.err("control falls off the end of the method");
            }
            pc += 1;
            if w.leader[pc as usize] {
                v.arrive(w, pc, &st)?;
                break;
            }
        }
    }
    w.st = st;

    // Lay the cells out in instruction order.
    let mut cells = Vec::with_capacity(w.seen.len());
    for (&d, &s) in depths.iter().zip(&w.starts) {
        if d != UNREACHED {
            cells.extend_from_slice(&w.seen[s as usize..(s + d) as usize]);
        }
    }
    Ok(StackShapes { depths, cells })
}

fn array_ty_of(k: ElemKind) -> CilType {
    CilType::array_of(elem_cil_ty(k))
}

fn elem_cil_ty(k: ElemKind) -> CilType {
    match k {
        ElemKind::U1 => CilType::U1,
        ElemKind::I4 => CilType::I4,
        ElemKind::I8 => CilType::I8,
        ElemKind::R4 => CilType::R4,
        ElemKind::R8 => CilType::R8,
        ElemKind::Ref => CilType::Object,
    }
}

/// What a load of element kind `k` from array-typed `arr` pushes.
fn elem_result(arr: VerTy, k: ElemKind) -> VerTy {
    match k.num_ty() {
        Some(nt) => VerTy::Num(nt),
        None => match arr {
            VerTy::Ref(CilType::Array(e)) if e.is_ref() => VerTy::Ref(Arc::unwrap_or_clone(e)),
            _ => VerTy::Ref(CilType::Object),
        },
    }
}

/// An instance field is read or written through a reference to its
/// class (or a subclass), or through null.
fn check_receiver(v: &Verifier, recv: &VerTy, fd: &FieldDef) -> Result<(), VerifyError> {
    if v.assignable(recv, &CilType::Class(fd.owner)) {
        Ok(())
    } else {
        v.err(format!("field {} accessed on {recv}", fd.name))
    }
}

/// Multidimensional arrays have rank 2 or 3, as [`CilType::multi_of`]
/// requires; the engines size their index buffers by it.
fn check_rank(v: &Verifier, rank: u8) -> Result<(), VerifyError> {
    if (2..=3).contains(&rank) {
        Ok(())
    } else {
        v.err(format!("multidimensional rank {rank} outside 2..=3"))
    }
}

fn check_array(v: &Verifier, arr: &VerTy, k: ElemKind) -> Result<(), VerifyError> {
    match arr {
        VerTy::Null | VerTy::Ref(CilType::Object) => Ok(()),
        VerTy::Ref(CilType::Array(e)) => {
            // The access kind must match the element type exactly; `bool`
            // elements travel as int32.
            let ok = match k {
                ElemKind::U1 => **e == CilType::U1,
                ElemKind::I4 => matches!(**e, CilType::I4 | CilType::Bool),
                ElemKind::I8 => **e == CilType::I8,
                ElemKind::R4 => **e == CilType::R4,
                ElemKind::R8 => **e == CilType::R8,
                ElemKind::Ref => e.is_ref(),
            };
            if ok {
                Ok(())
            } else {
                v.err(format!("element access .{} on {arr}", k.suffix()))
            }
        }
        t => v.err(format!("element access on non-array {t}")),
    }
}

fn check_multi(v: &Verifier, arr: &VerTy, k: ElemKind, rank: u8) -> Result<(), VerifyError> {
    match arr {
        VerTy::Null | VerTy::Ref(CilType::Object) => Ok(()),
        VerTy::Ref(CilType::MultiArray { elem, rank: r }) => {
            if *r != rank {
                return v.err(format!("rank mismatch: {r} vs {rank}"));
            }
            let ok = match k.num_ty() {
                Some(nt) => elem.num_ty() == Some(nt),
                None => elem.is_ref(),
            };
            if ok {
                Ok(())
            } else {
                v.err(format!("multi element access .{} on {arr}", k.suffix()))
            }
        }
        t => v.err(format!("multi element access on non-multi {t}")),
    }
}

fn verify_intrinsic(
    v: &Verifier,
    i: Intrinsic,
    st: &mut Vec<VerTy>,
) -> Result<(), VerifyError> {
    use Intrinsic::*;
    const I4: VerTy = VerTy::Num(NumTy::I4);
    const I8: VerTy = VerTy::Num(NumTy::I8);
    const R4: VerTy = VerTy::Num(NumTy::R4);
    const R8: VerTy = VerTy::Num(NumTy::R8);
    const STR: VerTy = VerTy::Ref(CilType::Str);
    const OBJ: VerTy = VerTy::Ref(CilType::Object);
    // (argument kinds, result kind)
    let (args, ret): (&[VerTy], Option<VerTy>) = match i {
        AbsI4 => (&[I4], Some(I4)),
        AbsI8 => (&[I8], Some(I8)),
        AbsR4 => (&[R4], Some(R4)),
        AbsR8 => (&[R8], Some(R8)),
        MaxI4 | MinI4 => (&[I4, I4], Some(I4)),
        MaxI8 | MinI8 => (&[I8, I8], Some(I8)),
        MaxR4 | MinR4 => (&[R4, R4], Some(R4)),
        MaxR8 | MinR8 => (&[R8, R8], Some(R8)),
        Sin | Cos | Tan | Asin | Acos | Atan | Floor | Ceil | Sqrt | Exp | Log | Rint => {
            (&[R8], Some(R8))
        }
        Atan2 | Pow => (&[R8, R8], Some(R8)),
        Random => (&[], Some(R8)),
        RoundR4 => (&[R4], Some(I4)),
        RoundR8 => (&[R8], Some(I8)),
        ConsoleWriteLineStr => (&[STR], None),
        ConsoleWriteLineI4 => (&[I4], None),
        ConsoleWriteLineR8 => (&[R8], None),
        CurrentTimeMillis | NanoTime => (&[], Some(I8)),
        ThreadStart => (&[OBJ], Some(I4)),
        ThreadJoin => (&[I4], None),
        ThreadYield => (&[], None),
        MonitorEnter | MonitorExit => (&[OBJ], None),
        StrConcat => (&[STR, STR], Some(STR)),
        StrFromI4 => (&[I4], Some(STR)),
        StrFromI8 => (&[I8], Some(STR)),
        StrFromR8 => (&[R8], Some(STR)),
        StrLen => (&[STR], Some(I4)),
        SerializeObj => (&[OBJ], Some(I4)),
        DeserializeObj => (&[], Some(OBJ)),
    };
    for expect in args.iter().rev() {
        let got = match st.pop() {
            Some(t) => t,
            None => return v.err(format!("underflow calling {}", i.name())),
        };
        let ok = match expect {
            VerTy::Num(n) => got.num() == Some(*n),
            VerTy::Ref(_) => got.is_ref(),
            VerTy::Null => got.is_ref(),
        };
        if !ok {
            return v.err(format!("intrinsic {} expected {expect}, got {got}", i.name()));
        }
    }
    if let Some(r) = ret {
        st.push(r);
    }
    Ok(())
}

/// Verify every method in the module, recording `max_stack` and the
/// [`StackShapes`] in each body.
pub fn verify_module(module: &mut Module) -> Result<(), VerifyError> {
    let mut w = Work::default();
    for id in (0..module.methods.len() as u32).map(MethodId) {
        let shapes = verify_with(module, id, &mut w)?;
        let body = &mut module.methods[id.idx()].body;
        body.max_stack = shapes.max_depth();
        body.stack_shapes = Some(shapes);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{MethodKind, ModuleBuilder};
    use crate::op::CmpOp;

    fn one_method(build: impl FnOnce(&mut crate::builder::MethodBuilder)) -> (Module, MethodId) {
        let mut mb = ModuleBuilder::new();
        let c = mb.declare_class("P", None);
        let mut f = mb.method(c, "F", vec![CilType::I4], CilType::I4, MethodKind::Static);
        build(&mut f);
        let id = f.finish();
        (mb.finish(), id)
    }

    #[test]
    fn accepts_simple_loop() {
        let (m, id) = one_method(|f| {
            let s = f.local(CilType::I4);
            let head = f.new_label();
            let exit = f.new_label();
            f.ldc_i4(0);
            f.st_loc(s);
            f.place(head);
            f.ld_loc(s);
            f.ld_arg(0);
            f.br_cmp(CmpOp::Ge, exit);
            f.ld_loc(s);
            f.ldc_i4(1);
            f.bin(BinOp::Add);
            f.st_loc(s);
            f.br(head);
            f.place(exit);
            f.ld_loc(s);
            f.ret();
        });
        let shapes = verify_method(&m, id).unwrap();
        assert_eq!(shapes.max_depth(), 2);
        let entries: Vec<_> = shapes.iter().collect();
        assert_eq!(entries.len(), 12);
        // The loop head is entered with an empty stack from both edges;
        // the fused compare sees two int32 cells.
        assert_eq!(entries[2], Some(&[][..]));
        assert_eq!(entries[4], Some(&[Some(NumTy::I4); 2][..]));
        assert!(entries.iter().all(Option::is_some), "every pc is reachable");
    }

    #[test]
    fn rejects_underflow() {
        let (m, id) = one_method(|f| {
            f.bin(BinOp::Add);
            f.ret();
        });
        let e = verify_method(&m, id).unwrap_err();
        assert!(e.message.contains("underflow"), "{e}");
    }

    #[test]
    fn rejects_mixed_kinds() {
        let (m, id) = one_method(|f| {
            f.ldc_i4(1);
            f.ldc_r8(2.0);
            f.bin(BinOp::Add);
            f.conv(NumTy::I4);
            f.ret();
        });
        let e = verify_method(&m, id).unwrap_err();
        assert!(e.message.contains("mixed kinds"), "{e}");
    }

    #[test]
    fn rejects_wrong_return_kind() {
        let (m, id) = one_method(|f| {
            f.ldc_r8(1.0);
            f.ret();
        });
        let e = verify_method(&m, id).unwrap_err();
        assert!(e.message.contains("not assignable"), "{e}");
    }

    #[test]
    fn rejects_depth_mismatch_at_merge() {
        let (m, id) = one_method(|f| {
            let l = f.new_label();
            f.ld_arg(0);
            f.br_true(l);
            f.ldc_i4(1); // fallthrough path pushes an extra value
            f.place(l);
            f.ldc_i4(0);
            f.ret();
        });
        let e = verify_method(&m, id).unwrap_err();
        assert!(
            e.message.contains("depth mismatch") || e.message.contains("stack not empty"),
            "{e}"
        );
    }

    #[test]
    fn rejects_falling_off_end() {
        let (m, id) = one_method(|f| {
            f.ldc_i4(1);
        });
        let e = verify_method(&m, id).unwrap_err();
        assert!(e.message.contains("falls off"), "{e}");
    }

    #[test]
    fn rejects_float_bitwise() {
        let (m, id) = one_method(|f| {
            f.ldc_r8(1.0);
            f.ldc_r8(2.0);
            f.bin(BinOp::And);
            f.conv(NumTy::I4);
            f.ret();
        });
        let e = verify_method(&m, id).unwrap_err();
        assert!(e.message.contains("float kind"), "{e}");
    }

    #[test]
    fn merges_null_with_ref() {
        let mut mb = ModuleBuilder::new();
        let c = mb.declare_class("P", None);
        let mut f = mb.method(c, "F", vec![CilType::I4], CilType::Object, MethodKind::Static);
        let use_null = f.new_label();
        let join = f.new_label();
        let obj = f.local(CilType::Object);
        f.ld_arg(0);
        f.br_true(use_null);
        f.ld_loc(obj);
        f.br(join);
        f.place(use_null);
        f.emit(Op::LdNull);
        f.place(join);
        f.ret();
        let id = f.finish();
        let m = mb.finish();
        verify_method(&m, id).unwrap();
    }

    #[test]
    fn intrinsic_types_checked() {
        let (m, id) = one_method(|f| {
            f.ldc_i4(1);
            f.intrinsic(Intrinsic::Sin); // wants float64
            f.conv(NumTy::I4);
            f.ret();
        });
        let e = verify_method(&m, id).unwrap_err();
        assert!(e.message.contains("expected"), "{e}");
    }

    #[test]
    fn array_roundtrip_verifies() {
        let (m, id) = one_method(|f| {
            let a = f.local(CilType::array_of(CilType::R8));
            f.ldc_i4(10);
            f.emit(Op::NewArr(ElemKind::R8));
            f.st_loc(a);
            f.ld_loc(a);
            f.ldc_i4(3);
            f.ldc_r8(1.5);
            f.emit(Op::StElem(ElemKind::R8));
            f.ld_loc(a);
            f.emit(Op::LdLen);
            f.ret();
        });
        verify_method(&m, id).unwrap();
    }

    /// A static `F` catching `Exception` whose handler reads `field` off
    /// the caught object; `field` is chosen from (`Exception.code`,
    /// `P.x`) by `of_caught`.
    fn handler_reading(of_caught: bool) -> (Module, MethodId) {
        let mut mb = ModuleBuilder::new();
        let exc = mb.declare_class("Exception", None);
        let code = mb.add_field(exc, "code", CilType::I4, false);
        let c = mb.declare_class("P", None);
        let x = mb.add_field(c, "x", CilType::I4, false);
        let ctor = mb
            .method(exc, ".ctor", vec![], CilType::Void, MethodKind::Ctor)
            .finish();
        mb.methods_mut_for_test(ctor).body.code = vec![Op::Ret];
        let mut f = mb.method(c, "F", vec![CilType::I4], CilType::I4, MethodKind::Static);
        let (ts, te, hs, he) = (f.new_label(), f.new_label(), f.new_label(), f.new_label());
        let done = f.new_label();
        let r = f.local(CilType::I4);
        f.place(ts);
        f.emit(Op::NewObj(ctor));
        f.emit(Op::Throw);
        f.place(te);
        f.place(hs);
        f.emit(Op::LdFld(if of_caught { code } else { x }));
        f.st_loc(r);
        f.leave(done);
        f.place(he);
        f.place(done);
        f.ld_loc(r);
        f.ret();
        f.eh_catch(ts, te, hs, he, exc);
        let id = f.finish();
        (mb.finish(), id)
    }

    #[test]
    fn catch_handler_gets_exception_on_stack() {
        let (m, id) = handler_reading(true);
        let shapes = verify_method(&m, id).unwrap();
        // The handler (pc 2) is entered with one reference cell.
        assert_eq!(shapes.iter().nth(2), Some(Some(&[None][..])));
        // It is typed as the caught class: a field of another class is
        // rejected on it.
        let (m, id) = handler_reading(false);
        let e = verify_method(&m, id).unwrap_err();
        assert_eq!(e.pc, 2, "{e}");
        assert!(e.message == "field x accessed on class#0", "{e}");
    }

    /// Two paths join at a `nop`, one bringing a `Derived`, the other a
    /// `Base`; the instruction after the join reads a field only `Derived`
    /// has. With `derived_first`, the `Derived` path reaches the join
    /// first and the `Base` path widens it afterwards.
    fn join_then_derived_field(derived_first: bool) -> (Module, MethodId) {
        let mut mb = ModuleBuilder::new();
        let base = mb.declare_class("Base", None);
        let derived = mb.declare_class("Derived", Some("Base"));
        let d = mb.add_field(derived, "d", CilType::I4, false);
        let params = vec![CilType::I4, CilType::Class(derived), CilType::Class(base)];
        let mut f = mb.method(base, "F", params, CilType::I4, MethodKind::Static);
        let (other, join) = (f.new_label(), f.new_label());
        // The fall-through path is walked, and so reaches the join, first.
        let (first, second) = if derived_first { (1, 2) } else { (2, 1) };
        f.ld_arg(0);
        f.br_true(other);
        f.ld_arg(first);
        f.br(join);
        f.place(other);
        f.ld_arg(second);
        f.place(join);
        f.emit(Op::Nop);
        f.emit(Op::LdFld(d));
        f.ret();
        let id = f.finish();
        (mb.finish(), id)
    }

    #[test]
    fn a_widened_join_is_checked_again_past_its_entry() {
        for derived_first in [true, false] {
            let (m, id) = join_then_derived_field(derived_first);
            let e = verify_method(&m, id).unwrap_err();
            assert_eq!(e.pc, 6, "derived_first={derived_first}: {e}");
            assert!(
                e.message == "field d accessed on class#0",
                "derived_first={derived_first}: {e}"
            );
        }
    }

    // Rejection cases the conform generator is constrained to never
    // produce; pinned here so the gate they rely on stays honest.

    #[test]
    fn rejects_branch_out_of_bounds() {
        // The label-based builder cannot produce a wild target, so patch
        // the body directly through the test-only escape hatch.
        let mut mb = ModuleBuilder::new();
        let c = mb.declare_class("P", None);
        let mut f = mb.method(c, "F", vec![CilType::I4], CilType::I4, MethodKind::Static);
        f.ldc_i4(0);
        f.ret();
        let id = f.finish();
        mb.methods_mut_for_test(id).body.code = vec![Op::Br(999), Op::LdcI4(0), Op::Ret];
        let m = mb.finish();
        let e = verify_method(&m, id).unwrap_err();
        assert!(e.message.contains("out of bounds"), "{e}");
    }

    #[test]
    fn rejects_store_of_wrong_type_to_local() {
        let (m, id) = one_method(|f| {
            let d = f.local(CilType::R8);
            f.ldc_i4(1);
            f.st_loc(d);
            f.ldc_i4(0);
            f.ret();
        });
        let e = verify_method(&m, id).unwrap_err();
        assert!(e.message.contains("cannot store"), "{e}");
    }

    #[test]
    fn rejects_ldlen_on_non_array() {
        // A string is a reference but not an array.
        let (m, id) = one_method(|f| {
            f.ld_str("x");
            f.emit(Op::LdLen);
            f.ret();
        });
        let e = verify_method(&m, id).unwrap_err();
        assert!(e.message.contains("ldlen on non-array"), "{e}");
    }

    #[test]
    fn rejects_shift_on_float() {
        let (m, id) = one_method(|f| {
            f.ldc_r8(1.0);
            f.ldc_i4(2);
            f.bin(BinOp::Shl);
            f.conv(NumTy::I4);
            f.ret();
        });
        let e = verify_method(&m, id).unwrap_err();
        assert!(e.message.contains("shift"), "{e}");
    }

    #[test]
    fn rejects_field_access_on_another_class() {
        let mut mb = ModuleBuilder::new();
        let q = mb.declare_class("Q", None);
        let x = mb.add_field(q, "x", CilType::I4, false);
        let mut f = mb.method(q, "F", vec![], CilType::I4, MethodKind::Static);
        f.ld_str("s");
        f.emit(Op::LdFld(x));
        f.ret();
        let id = f.finish();
        let mut f = mb.method(q, "G", vec![], CilType::I4, MethodKind::Static);
        f.emit(Op::LdNull);
        f.emit(Op::LdFld(x));
        f.ret();
        let null_ok = f.finish();
        let m = mb.finish();
        let e = verify_method(&m, id).unwrap_err();
        assert!(e.message.contains("field x accessed on string"), "{e}");
        verify_method(&m, null_ok).unwrap();
    }

    #[test]
    fn rejects_multidimensional_rank_outside_2_to_3() {
        let (m, id) = one_method(|f| {
            f.emit(Op::LdNull);
            for _ in 0..4 {
                f.ldc_i4(0);
            }
            f.emit(Op::LdElemMulti { kind: ElemKind::I4, rank: 4 });
            f.ret();
        });
        let e = verify_method(&m, id).unwrap_err();
        assert!(e.message.contains("rank 4 outside 2..=3"), "{e}");
    }

    #[test]
    fn rejects_local_index_out_of_range() {
        let (m, id) = one_method(|f| {
            f.emit(Op::LdLoc(9));
            f.ret();
        });
        let e = verify_method(&m, id).unwrap_err();
        assert!(e.message.contains("out of range"), "{e}");
    }
}

#[cfg(test)]
impl crate::builder::ModuleBuilder {
    /// Test-only escape hatch to patch a method body directly.
    pub fn methods_mut_for_test(&mut self, id: MethodId) -> &mut crate::module::MethodDef {
        self.method_def_mut(id)
    }
}
