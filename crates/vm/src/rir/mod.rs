//! RIR — the register intermediate representation the optimizing tiers
//! execute.
//!
//! Stack CIL is translated into three-address code over virtual registers
//! (one primitive file, one reference file), the form every JIT in the
//! paper lowers to before emitting machine code. The pipeline, start to
//! finish:
//!
//! 1. **Lower** ([`crate::rir::lower`]): verified stack CIL → naive
//!    three-address code. Every stack push/pop becomes a virtual-register
//!    move; this is the code Mono 0.23 runs as-is.
//! 2. **Scalar passes** ([`crate::rir::opt`]): constant/copy propagation,
//!    strength reduction, the structural bounds-check matcher, dead-code
//!    elimination — each gated by a [`crate::profile::PassConfig`] flag.
//! 3. **Loop-aware tier** (`rir::loops` + [`crate::rir::opt`] +
//!    `rir::range`): basic blocks, dominators and natural loops
//!    are recovered from the compacted code; idiom ABCE proves
//!    counted-loop indices in range and drops their checks, symbolic
//!    range analysis extends that to derived indices (`i±k`, triangular,
//!    strided), LICM hoists invariant arithmetic and the guard's `ldlen`
//!    into the preheader, and guarded loop versioning clones
//!    almost-provable loops behind an up-front guard. The three elision
//!    mechanisms and step 2's structural matcher are gated by the one
//!    `bce` flag, LICM by `licm`. Every elision carries a certificate
//!    re-verified by [`crate::rir::audit`].
//!    Per-method results are tallied on [`crate::machine::Counters`].
//! 4. **Allocate** (`rir::alloc`): virtual registers are placed in the
//!    register file (plain array access at run time) up to the profile's
//!    `max_enreg` cap; the rest spill to a frame arena (volatile memory
//!    traffic) — the enregistration mechanism Section 5 of the paper
//!    identifies as dominating low-level performance. `Tier::Rir` ranks
//!    them by static use count (CLR 1.x's model), `Tier::Compiled` runs a
//!    linear scan over live intervals.
//! 5. **Execute** ([`crate::compiled`]): the allocated code is translated
//!    once into op records, the same on both tiers, and runs in
//!    [`crate::call`]'s dispatch loop; an "unchecked" element access that
//!    is out of range is an engine error, so unsound eliminations fail
//!    loudly in differential tests.
//!
//! [`print_rir`] renders the allocated code in an assembly-like listing;
//! `examples/jit_compare.rs` uses it to reproduce the paper's Tables 6–8
//! (the same division loop as compiled by each engine) and
//! `examples/loop_opt_compare.rs` shows the loop-aware tier's effect on a
//! length-bounded loop. docs/OPTIMIZATIONS.md maps every optimization
//! mechanism to its profile knob.

pub(crate) mod alloc;
pub mod audit;
pub mod compile;
pub mod lower;
pub(crate) mod loops;
pub mod opt;
pub(crate) mod range;
pub mod share;

use hpcnet_cil::module::{EhRegion, MethodId};
use hpcnet_cil::{BinOp, ClassId, CmpOp, ElemKind, Intrinsic, NumTy, StrId, UnOp};
use std::fmt::Write;

/// Spill flag: slot ids with this bit set live in the spill frame.
pub const SPILL_BIT: u16 = 0x8000;

/// Is the slot in the spill frame?
#[inline]
pub fn is_spill(slot: u16) -> bool {
    slot & SPILL_BIT != 0
}

/// Index within its file (register or spill).
#[inline]
pub fn slot_index(slot: u16) -> usize {
    (slot & !SPILL_BIT) as usize
}

/// Right-hand operand: a primitive slot or an immediate constant fused
/// into the instruction (the "constants in registers throughout the loop"
/// codegen of Table 7).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Operand {
    Slot(u16),
    Imm(u64),
}

/// A typed argument/return location (for calls and stores).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ArgSlot {
    P(NumTy, u16),
    R(u16),
}

/// A destination location.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DstSlot {
    P(u16),
    R(u16),
}

impl ArgSlot {
    /// The same slot, as a place to store into.
    pub fn dst(self) -> DstSlot {
        match self {
            ArgSlot::P(_, s) => DstSlot::P(s),
            ArgSlot::R(s) => DstSlot::R(s),
        }
    }
}

/// How an element access's bounds check is handled. `Checked` tests the
/// index against the array length at run time; the elided variants record
/// *which* elimination mechanism proved (or guarded) the access in range,
/// so the observer can attribute elisions per mechanism and the audit
/// checker ([`crate::rir::audit`]) can match each one to a certificate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BoundsMode {
    /// Run-time check; IndexOutOfRangeException on failure.
    Checked,
    /// Structural / counted-loop idiom matcher (`i < arr.Length` guards).
    ElidedIdiom,
    /// Symbolic range analysis (derived indices: `arr[i+k]`, triangular
    /// bounds, strided loops) proved the index in `[0, len)` statically.
    ElidedRange,
    /// Check-free fast clone of a loop, selected by an up-front
    /// loop-versioning guard; the checked original remains as fallback.
    ElidedVersioned,
}

impl BoundsMode {
    /// Does this access still test bounds at run time?
    #[inline]
    pub fn is_checked(self) -> bool {
        matches!(self, BoundsMode::Checked)
    }

    /// Mechanism name used in counters and reports (`None` when checked).
    pub fn mechanism(self) -> Option<&'static str> {
        match self {
            BoundsMode::Checked => None,
            BoundsMode::ElidedIdiom => Some("idiom"),
            BoundsMode::ElidedRange => Some("range"),
            BoundsMode::ElidedVersioned => Some("versioned"),
        }
    }

    /// Listing suffix; every elided variant starts with `.nobound` so
    /// "was the check removed at all" greps stay mechanism-agnostic.
    fn suffix(self) -> &'static str {
        match self {
            BoundsMode::Checked => "",
            BoundsMode::ElidedIdiom => ".nobound",
            BoundsMode::ElidedRange => ".nobound.rng",
            BoundsMode::ElidedVersioned => ".nobound.ver",
        }
    }
}

/// A register-IR instruction. `u16` fields are slot ids (virtual registers
/// before allocation, file-encoded slots after).
#[derive(Clone, Debug, PartialEq)]
pub enum RInst {
    Nop,
    /// Primitive move.
    MovP { dst: u16, src: u16 },
    /// Reference move.
    MovR { dst: u16, src: u16 },
    /// Load an immediate into a primitive slot.
    ConstP { dst: u16, bits: u64 },
    /// Load null into a reference slot.
    ConstNull { dst: u16 },
    /// Load a string literal.
    ConstStr { dst: u16, s: StrId },
    Bin { op: BinOp, ty: NumTy, dst: u16, a: u16, b: Operand },
    Un { op: UnOp, ty: NumTy, dst: u16, a: u16 },
    Conv { from: NumTy, to: NumTy, dst: u16, src: u16 },
    /// Numeric compare producing 0/1.
    Cmp { op: CmpOp, ty: NumTy, dst: u16, a: u16, b: Operand },
    /// Reference identity compare (Eq/Ne only) producing 0/1.
    CmpRef { op: CmpOp, dst: u16, a: u16, b: u16 },
    Br { t: u32 },
    /// Branch if the primitive slot is nonzero (or zero, when negated).
    BrIf { cond: u16, t: u32, negate: bool },
    /// Branch if the reference slot is non-null (or null, when negated).
    BrIfRef { cond: u16, t: u32, negate: bool },
    /// Fused compare-and-branch.
    BrCmp { op: CmpOp, ty: NumTy, a: u16, b: Operand, t: u32 },
    Call {
        target: MethodId,
        virt: bool,
        args: Box<[ArgSlot]>,
        dst: Option<DstSlot>,
    },
    CallIntr {
        i: Intrinsic,
        args: Box<[ArgSlot]>,
        dst: Option<DstSlot>,
    },
    Ret { src: Option<ArgSlot> },
    NewObj {
        ctor: MethodId,
        args: Box<[ArgSlot]>,
        dst: u16,
    },
    LdFld { obj: u16, slot: u32, dst: DstSlot },
    StFld { obj: u16, slot: u32, src: ArgSlot },
    LdSFld { slot: u32, dst: DstSlot },
    StSFld { slot: u32, src: ArgSlot },
    IsInst { class: ClassId, src: u16, dst: u16 },
    /// Class cast check; raises InvalidCastException, otherwise copies.
    CastClass { class: ClassId, src: u16, dst: u16 },
    NewArr { kind: ElemKind, len: u16, dst: u16 },
    LdLen { arr: u16, dst: u16 },
    /// `bounds` records whether the run-time check survives and, if not,
    /// which elimination mechanism removed it.
    LdElem { kind: ElemKind, arr: u16, idx: u16, dst: DstSlot, bounds: BoundsMode },
    StElem { kind: ElemKind, arr: u16, idx: u16, src: ArgSlot, bounds: BoundsMode },
    NewMulti { kind: ElemKind, dims: Box<[u16]>, dst: u16 },
    /// Every multidimensional access runs the helper-call accessor that
    /// runtimes without optimized multidimensional accessors used (Graph
    /// 12's effect); listings print it as `.helper`.
    LdElemMulti { kind: ElemKind, arr: u16, idxs: Box<[u16]>, dst: DstSlot },
    StElemMulti { kind: ElemKind, arr: u16, idxs: Box<[u16]>, src: ArgSlot },
    LdMultiLen { arr: u16, dim: u8, dst: u16 },
    BoxV { ty: NumTy, src: u16, dst: u16 },
    UnboxV { ty: NumTy, src: u16, dst: u16 },
    Throw { src: u16 },
    Leave { t: u32 },
    EndFinally,
}

/// What an instruction does with one slot it names: reads (`Use`) or
/// writes (`Def`) it, in the primitive (`P`) or reference (`R`) file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SlotRole {
    UseP,
    UseR,
    DefP,
    DefR,
}

impl SlotRole {
    /// Is the slot in the primitive file?
    pub(crate) fn is_prim(self) -> bool {
        matches!(self, SlotRole::UseP | SlotRole::DefP)
    }
}

/// The operand layout of every [`RInst`], written once: `$f(role, slot)`
/// for each slot the instruction names, its uses before its def, with
/// `$iter` (`iter` or `iter_mut`) walking the slot lists. It is the body
/// of both [`RInst::slots`] and [`RInst::slots_mut`].
macro_rules! slot_table {
    ($inst:expr, $f:ident, $iter:ident) => {{
        use SlotRole::{DefP, DefR, UseP, UseR};
        macro_rules! operand {
            ($o:expr) => {
                if let Operand::Slot(v) = $o {
                    $f(UseP, v)
                }
            };
        }
        macro_rules! arg {
            ($a:expr) => {
                match $a {
                    ArgSlot::P(_, v) => $f(UseP, v),
                    ArgSlot::R(v) => $f(UseR, v),
                }
            };
        }
        macro_rules! dst {
            ($d:expr) => {
                match $d {
                    DstSlot::P(v) => $f(DefP, v),
                    DstSlot::R(v) => $f(DefR, v),
                }
            };
        }
        match $inst {
            RInst::Nop | RInst::Br { .. } | RInst::Leave { .. } | RInst::EndFinally => {}
            RInst::MovP { dst, src }
            | RInst::Conv { dst, src, .. }
            | RInst::Un { dst, a: src, .. } => {
                $f(UseP, src);
                $f(DefP, dst);
            }
            RInst::MovR { dst, src } | RInst::CastClass { src, dst, .. } => {
                $f(UseR, src);
                $f(DefR, dst);
            }
            RInst::ConstP { dst, .. } => $f(DefP, dst),
            RInst::ConstNull { dst } | RInst::ConstStr { dst, .. } => $f(DefR, dst),
            RInst::Bin { dst, a, b, .. } | RInst::Cmp { dst, a, b, .. } => {
                $f(UseP, a);
                operand!(b);
                $f(DefP, dst);
            }
            RInst::CmpRef { dst, a, b, .. } => {
                $f(UseR, a);
                $f(UseR, b);
                $f(DefP, dst);
            }
            RInst::BrIf { cond, .. } => $f(UseP, cond),
            RInst::BrIfRef { cond, .. } | RInst::Throw { src: cond } => $f(UseR, cond),
            RInst::BrCmp { a, b, .. } => {
                $f(UseP, a);
                operand!(b);
            }
            RInst::Call { args, dst, .. } | RInst::CallIntr { args, dst, .. } => {
                args.$iter().for_each(|a| arg!(a));
                if let Some(d) = dst {
                    dst!(d);
                }
            }
            RInst::Ret { src } => {
                if let Some(a) = src {
                    arg!(a);
                }
            }
            RInst::NewObj { args, dst, .. } => {
                args.$iter().for_each(|a| arg!(a));
                $f(DefR, dst);
            }
            RInst::LdFld { obj, dst, .. } => {
                $f(UseR, obj);
                dst!(dst);
            }
            RInst::StFld { obj, src, .. } => {
                $f(UseR, obj);
                arg!(src);
            }
            RInst::LdSFld { dst, .. } => dst!(dst),
            RInst::StSFld { src, .. } => arg!(src),
            RInst::IsInst { src, dst, .. }
            | RInst::LdLen { arr: src, dst }
            | RInst::LdMultiLen { arr: src, dst, .. }
            | RInst::UnboxV { src, dst, .. } => {
                $f(UseR, src);
                $f(DefP, dst);
            }
            RInst::NewArr { len: src, dst, .. } | RInst::BoxV { src, dst, .. } => {
                $f(UseP, src);
                $f(DefR, dst);
            }
            RInst::LdElem { arr, idx, dst, .. } => {
                $f(UseR, arr);
                $f(UseP, idx);
                dst!(dst);
            }
            RInst::StElem { arr, idx, src, .. } => {
                $f(UseR, arr);
                $f(UseP, idx);
                arg!(src);
            }
            RInst::NewMulti { dims, dst, .. } => {
                dims.$iter().for_each(|v| $f(UseP, v));
                $f(DefR, dst);
            }
            RInst::LdElemMulti { arr, idxs, dst, .. } => {
                $f(UseR, arr);
                idxs.$iter().for_each(|v| $f(UseP, v));
                dst!(dst);
            }
            RInst::StElemMulti { arr, idxs, src, .. } => {
                $f(UseR, arr);
                idxs.$iter().for_each(|v| $f(UseP, v));
                arg!(src);
            }
        }
    }};
}

impl RInst {
    /// Hand every slot the instruction names to `f`, with its role, for
    /// `f` to rewrite: the one description of the operand layout that
    /// renumbering, register placement and the optimizer's passes share.
    /// An instruction defines at most one slot.
    #[inline]
    pub(crate) fn slots_mut(&mut self, mut f: impl FnMut(SlotRole, &mut u16)) {
        slot_table!(self, f, iter_mut)
    }

    /// [`RInst::slots_mut`], reading.
    #[inline]
    pub(crate) fn slots(&self, mut f: impl FnMut(SlotRole, u16)) {
        let mut f = |role, v: &u16| f(role, *v);
        slot_table!(self, f, iter)
    }

    /// The slot the instruction writes, if any.
    #[inline]
    pub(crate) fn def(&self) -> Option<DstSlot> {
        let mut def = None;
        self.slots(|role, v| match role {
            SlotRole::DefP => def = Some(DstSlot::P(v)),
            SlotRole::DefR => def = Some(DstSlot::R(v)),
            SlotRole::UseP | SlotRole::UseR => {}
        });
        def
    }

    /// How an element access handles its bounds check; `None` for every
    /// other instruction.
    pub fn bounds(&self) -> Option<BoundsMode> {
        match self {
            RInst::LdElem { bounds, .. } | RInst::StElem { bounds, .. } => Some(*bounds),
            _ => None,
        }
    }

    /// The bounds mode of an element access, for the elimination passes
    /// to flip.
    pub(crate) fn bounds_mut(&mut self) -> Option<&mut BoundsMode> {
        match self {
            RInst::LdElem { bounds, .. } | RInst::StElem { bounds, .. } => Some(bounds),
            _ => None,
        }
    }

    /// Branch target, if any.
    pub fn target(&self) -> Option<u32> {
        match self {
            RInst::Br { t }
            | RInst::BrIf { t, .. }
            | RInst::BrIfRef { t, .. }
            | RInst::BrCmp { t, .. }
            | RInst::Leave { t } => Some(*t),
            _ => None,
        }
    }

    /// Rewrite the branch target.
    pub fn set_target(&mut self, new: u32) {
        match self {
            RInst::Br { t }
            | RInst::BrIf { t, .. }
            | RInst::BrIfRef { t, .. }
            | RInst::BrCmp { t, .. }
            | RInst::Leave { t } => *t = new,
            _ => panic!("set_target on non-branch"),
        }
    }
}

/// A compiled (lowered, optimized, register-allocated) method.
#[derive(Clone, Debug)]
pub struct RirMethod {
    pub method: MethodId,
    pub code: Vec<RInst>,
    /// Exception regions over RIR instruction indices.
    pub eh: Vec<EhRegion>,
    /// For each EH region, the (allocated) reference slot that receives the
    /// in-flight exception at handler entry (catch handlers only).
    pub eh_exc_slots: Vec<u16>,
    /// Where each incoming argument is stored on entry.
    pub arg_locs: Vec<ArgSlot>,
    /// Primitive register-file size.
    pub n_preg: u16,
    /// Primitive spill-frame size.
    pub n_pspill: u16,
    /// Reference register-file size.
    pub n_rreg: u16,
    /// Reference spill-frame size.
    pub n_rspill: u16,
}

fn fmt_slot(prefix: char, s: u16) -> String {
    if is_spill(s) {
        format!("[{}sp{}]", prefix, slot_index(s))
    } else {
        format!("{}r{}", prefix, slot_index(s))
    }
}

fn fmt_operand(o: &Operand) -> String {
    match o {
        Operand::Slot(s) => fmt_slot('p', *s),
        Operand::Imm(v) => format!("#{:#x}", v),
    }
}

fn fmt_arg(a: &ArgSlot) -> String {
    match a {
        ArgSlot::P(ty, s) => format!("{}:{}", fmt_slot('p', *s), ty),
        ArgSlot::R(s) => fmt_slot('o', *s),
    }
}

fn fmt_dst(d: &DstSlot) -> String {
    match d {
        DstSlot::P(s) => fmt_slot('p', *s),
        DstSlot::R(s) => fmt_slot('o', *s),
    }
}

/// Render allocated RIR as an assembly-like listing. Spilled slots print
/// as `[psp3]` (memory operands), enregistered slots as `pr3` — so the
/// Mono-vs-CLR difference the paper shows in Tables 6–8 is visible at a
/// glance.
pub fn print_rir(r: &RirMethod) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "; regs: p={} (+{} spill)  o={} (+{} spill)",
        r.n_preg, r.n_pspill, r.n_rreg, r.n_rspill
    );
    for region in &r.eh {
        let _ = writeln!(
            out,
            "; eh {:?} try {}..{} handler {}..{}",
            region.kind, region.try_start, region.try_end, region.handler_start, region.handler_end
        );
    }
    for (i, inst) in r.code.iter().enumerate() {
        let text = match inst {
            RInst::Nop => "nop".to_string(),
            RInst::MovP { dst, src } => format!("mov   {}, {}", fmt_slot('p', *dst), fmt_slot('p', *src)),
            RInst::MovR { dst, src } => format!("mov   {}, {}", fmt_slot('o', *dst), fmt_slot('o', *src)),
            RInst::ConstP { dst, bits } => format!("mov   {}, #{:#x}", fmt_slot('p', *dst), bits),
            RInst::ConstNull { dst } => format!("mov   {}, null", fmt_slot('o', *dst)),
            RInst::ConstStr { dst, s } => format!("ldstr {}, str#{}", fmt_slot('o', *dst), s.0),
            RInst::Bin { op, ty, dst, a, b } => format!(
                "{:<5} {}, {}, {}  ; {ty}",
                op.mnemonic(),
                fmt_slot('p', *dst),
                fmt_slot('p', *a),
                fmt_operand(b)
            ),
            RInst::Un { op, ty, dst, a } => format!(
                "{:?}  {}, {}  ; {ty}",
                op,
                fmt_slot('p', *dst),
                fmt_slot('p', *a)
            ),
            RInst::Conv { from, to, dst, src } => format!(
                "conv  {}, {}  ; {from}->{to}",
                fmt_slot('p', *dst),
                fmt_slot('p', *src)
            ),
            RInst::Cmp { op, ty, dst, a, b } => format!(
                "c{}   {}, {}, {}  ; {ty}",
                op.mnemonic(),
                fmt_slot('p', *dst),
                fmt_slot('p', *a),
                fmt_operand(b)
            ),
            RInst::CmpRef { op, dst, a, b } => format!(
                "c{}.ref {}, {}, {}",
                op.mnemonic(),
                fmt_slot('p', *dst),
                fmt_slot('o', *a),
                fmt_slot('o', *b)
            ),
            RInst::Br { t } => format!("jmp   L{t}"),
            RInst::BrIf { cond, t, negate } => format!(
                "{}  {}, L{t}",
                if *negate { "jz " } else { "jnz" },
                fmt_slot('p', *cond)
            ),
            RInst::BrIfRef { cond, t, negate } => format!(
                "{} {}, L{t}",
                if *negate { "jnull " } else { "jnnull" },
                fmt_slot('o', *cond)
            ),
            RInst::BrCmp { op, ty, a, b, t } => format!(
                "j{}   {}, {}, L{t}  ; {ty}",
                op.mnemonic(),
                fmt_slot('p', *a),
                fmt_operand(b)
            ),
            RInst::Call { target, virt, args, dst } => format!(
                "call{} m#{} ({}){}",
                if *virt { "v" } else { " " },
                target.0,
                args.iter().map(fmt_arg).collect::<Vec<_>>().join(", "),
                dst.map(|d| format!(" -> {}", fmt_dst(&d))).unwrap_or_default()
            ),
            RInst::CallIntr { i, args, dst } => format!(
                "call  [{}] ({}){}",
                i.name(),
                args.iter().map(fmt_arg).collect::<Vec<_>>().join(", "),
                dst.map(|d| format!(" -> {}", fmt_dst(&d))).unwrap_or_default()
            ),
            RInst::Ret { src } => match src {
                Some(a) => format!("ret   {}", fmt_arg(a)),
                None => "ret".to_string(),
            },
            RInst::NewObj { ctor, args, dst } => format!(
                "new   m#{} ({}) -> {}",
                ctor.0,
                args.iter().map(fmt_arg).collect::<Vec<_>>().join(", "),
                fmt_slot('o', *dst)
            ),
            RInst::LdFld { obj, slot, dst } => format!(
                "ldfld {}, {}.f{}",
                fmt_dst(dst),
                fmt_slot('o', *obj),
                slot
            ),
            RInst::StFld { obj, slot, src } => format!(
                "stfld {}.f{}, {}",
                fmt_slot('o', *obj),
                slot,
                fmt_arg(src)
            ),
            RInst::LdSFld { slot, dst } => format!("ldsfld {}, s{}", fmt_dst(dst), slot),
            RInst::StSFld { slot, src } => format!("stsfld s{}, {}", slot, fmt_arg(src)),
            RInst::IsInst { class, src, dst } => format!(
                "isinst {}, {}, c#{}",
                fmt_slot('p', *dst),
                fmt_slot('o', *src),
                class.0
            ),
            RInst::CastClass { class, src, dst } => format!(
                "cast  {}, {}, c#{}",
                fmt_slot('o', *dst),
                fmt_slot('o', *src),
                class.0
            ),
            RInst::NewArr { kind, len, dst } => format!(
                "newarr.{} {}, {}",
                kind.suffix(),
                fmt_slot('o', *dst),
                fmt_slot('p', *len)
            ),
            RInst::LdLen { arr, dst } => {
                format!("ldlen {}, {}", fmt_slot('p', *dst), fmt_slot('o', *arr))
            }
            RInst::LdElem { kind, arr, idx, dst, bounds } => format!(
                "ldelem.{}{} {}, {}[{}]",
                kind.suffix(),
                bounds.suffix(),
                fmt_dst(dst),
                fmt_slot('o', *arr),
                fmt_slot('p', *idx)
            ),
            RInst::StElem { kind, arr, idx, src, bounds } => format!(
                "stelem.{}{} {}[{}], {}",
                kind.suffix(),
                bounds.suffix(),
                fmt_slot('o', *arr),
                fmt_slot('p', *idx),
                fmt_arg(src)
            ),
            RInst::NewMulti { kind, dims, dst } => format!(
                "newmarr.{} {} dims({})",
                kind.suffix(),
                fmt_slot('o', *dst),
                dims.iter().map(|d| fmt_slot('p', *d)).collect::<Vec<_>>().join(", ")
            ),
            RInst::LdElemMulti { kind, arr, idxs, dst } => format!(
                "ldmelem.{}.helper {}, {}[{}]",
                kind.suffix(),
                fmt_dst(dst),
                fmt_slot('o', *arr),
                idxs.iter().map(|d| fmt_slot('p', *d)).collect::<Vec<_>>().join(", ")
            ),
            RInst::StElemMulti { kind, arr, idxs, src } => format!(
                "stmelem.{}.helper {}[{}], {}",
                kind.suffix(),
                fmt_slot('o', *arr),
                idxs.iter().map(|d| fmt_slot('p', *d)).collect::<Vec<_>>().join(", "),
                fmt_arg(src)
            ),
            RInst::LdMultiLen { arr, dim, dst } => format!(
                "ldmlen {}, {}.dim{}",
                fmt_slot('p', *dst),
                fmt_slot('o', *arr),
                dim
            ),
            RInst::BoxV { ty, src, dst } => format!(
                "box.{} {}, {}",
                ty.suffix(),
                fmt_slot('o', *dst),
                fmt_slot('p', *src)
            ),
            RInst::UnboxV { ty, src, dst } => format!(
                "unbox.{} {}, {}",
                ty.suffix(),
                fmt_slot('p', *dst),
                fmt_slot('o', *src)
            ),
            RInst::Throw { src } => format!("throw {}", fmt_slot('o', *src)),
            RInst::Leave { t } => format!("leave L{t}"),
            RInst::EndFinally => "endfinally".to_string(),
        };
        let _ = writeln!(out, "L{i:<4} {text}");
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::collections::HashSet;

    /// A sample of the variant declared after `inst`'s, or `None` after
    /// the last. The match has no wildcard, so a new variant does not
    /// compile until it has a sample here. Every slot is `S`, so a def
    /// that is also read tests whether the visitor tells the two apart.
    pub(crate) fn next_sample(inst: &RInst) -> Option<RInst> {
        const S: u16 = 7;
        let (ty, kind, bounds) = (NumTy::I4, ElemKind::I4, BoundsMode::Checked);
        let args = || -> Box<[ArgSlot]> { Box::new([ArgSlot::P(ty, S), ArgSlot::R(S)]) };
        Some(match inst {
            RInst::Nop => RInst::MovP { dst: S, src: S },
            RInst::MovP { .. } => RInst::MovR { dst: S, src: S },
            RInst::MovR { .. } => RInst::ConstP { dst: S, bits: 1 },
            RInst::ConstP { .. } => RInst::ConstNull { dst: S },
            RInst::ConstNull { .. } => RInst::ConstStr { dst: S, s: StrId(0) },
            RInst::ConstStr { .. } => {
                RInst::Bin { op: BinOp::Add, ty, dst: S, a: S, b: Operand::Slot(S) }
            }
            RInst::Bin { .. } => RInst::Un { op: UnOp::Neg, ty, dst: S, a: S },
            RInst::Un { .. } => RInst::Conv { from: ty, to: NumTy::I8, dst: S, src: S },
            RInst::Conv { .. } => {
                RInst::Cmp { op: CmpOp::Lt, ty, dst: S, a: S, b: Operand::Slot(S) }
            }
            RInst::Cmp { .. } => RInst::CmpRef { op: CmpOp::Eq, dst: S, a: S, b: S },
            RInst::CmpRef { .. } => RInst::Br { t: 0 },
            RInst::Br { .. } => RInst::BrIf { cond: S, t: 0, negate: false },
            RInst::BrIf { .. } => RInst::BrIfRef { cond: S, t: 0, negate: true },
            RInst::BrIfRef { .. } => {
                RInst::BrCmp { op: CmpOp::Lt, ty, a: S, b: Operand::Slot(S), t: 0 }
            }
            RInst::BrCmp { .. } => RInst::Call {
                target: MethodId(0),
                virt: false,
                args: args(),
                dst: Some(DstSlot::P(S)),
            },
            RInst::Call { .. } => {
                RInst::CallIntr { i: Intrinsic::AbsI4, args: args(), dst: Some(DstSlot::R(S)) }
            }
            RInst::CallIntr { .. } => RInst::Ret { src: Some(ArgSlot::P(ty, S)) },
            RInst::Ret { .. } => RInst::NewObj { ctor: MethodId(0), args: args(), dst: S },
            RInst::NewObj { .. } => RInst::LdFld { obj: S, slot: 0, dst: DstSlot::R(S) },
            RInst::LdFld { .. } => RInst::StFld { obj: S, slot: 0, src: ArgSlot::P(ty, S) },
            RInst::StFld { .. } => RInst::LdSFld { slot: 0, dst: DstSlot::P(S) },
            RInst::LdSFld { .. } => RInst::StSFld { slot: 0, src: ArgSlot::R(S) },
            RInst::StSFld { .. } => RInst::IsInst { class: ClassId(0), src: S, dst: S },
            RInst::IsInst { .. } => RInst::CastClass { class: ClassId(0), src: S, dst: S },
            RInst::CastClass { .. } => RInst::NewArr { kind, len: S, dst: S },
            RInst::NewArr { .. } => RInst::LdLen { arr: S, dst: S },
            RInst::LdLen { .. } => {
                RInst::LdElem { kind, arr: S, idx: S, dst: DstSlot::P(S), bounds }
            }
            RInst::LdElem { .. } => {
                RInst::StElem { kind, arr: S, idx: S, src: ArgSlot::R(S), bounds }
            }
            RInst::StElem { .. } => RInst::NewMulti { kind, dims: Box::new([S, S]), dst: S },
            RInst::NewMulti { .. } => RInst::LdElemMulti {
                kind,
                arr: S,
                idxs: Box::new([S, S]),
                dst: DstSlot::R(S),
            },
            RInst::LdElemMulti { .. } => RInst::StElemMulti {
                kind,
                arr: S,
                idxs: Box::new([S, S]),
                src: ArgSlot::P(ty, S),
            },
            RInst::StElemMulti { .. } => RInst::LdMultiLen { arr: S, dim: 1, dst: S },
            RInst::LdMultiLen { .. } => RInst::BoxV { ty, src: S, dst: S },
            RInst::BoxV { .. } => RInst::UnboxV { ty, src: S, dst: S },
            RInst::UnboxV { .. } => RInst::Throw { src: S },
            RInst::Throw { .. } => RInst::Leave { t: 0 },
            RInst::Leave { .. } => RInst::EndFinally,
            RInst::EndFinally => return None,
        })
    }

    #[test]
    fn every_instruction_names_at_most_one_def_and_its_uses_apart() {
        let samples: Vec<RInst> = std::iter::successors(Some(RInst::Nop), next_sample).collect();
        let kinds: HashSet<_> = samples.iter().map(std::mem::discriminant).collect();
        assert_eq!(kinds.len(), samples.len(), "one sample per variant");
        let is_use = |role| matches!(role, SlotRole::UseP | SlotRole::UseR);
        for inst in &samples {
            let mut seen = Vec::new();
            inst.slots(|role, v| seen.push((role, v)));
            let mut seen_mut = Vec::new();
            inst.clone().slots_mut(|role, v| seen_mut.push((role, *v)));
            assert_eq!(seen, seen_mut, "{inst:?}");
            // The listing, written apart from the table, names the same
            // slots in the same files.
            let listing = print_rir(&RirMethod {
                method: MethodId(0),
                code: vec![inst.clone()],
                eh: Vec::new(),
                eh_exc_slots: Vec::new(),
                arg_locs: Vec::new(),
                n_preg: 0,
                n_pspill: 0,
                n_rreg: 0,
                n_rspill: 0,
            });
            let prim = seen.iter().filter(|(role, _)| role.is_prim()).count();
            assert_eq!(listing.matches("pr7").count(), prim, "{listing}");
            assert_eq!(listing.matches("or7").count(), seen.len() - prim, "{listing}");

            let defs: Vec<DstSlot> = seen
                .iter()
                .filter_map(|&(role, v)| match role {
                    SlotRole::DefP => Some(DstSlot::P(v)),
                    SlotRole::DefR => Some(DstSlot::R(v)),
                    SlotRole::UseP | SlotRole::UseR => None,
                })
                .collect();
            assert!(defs.len() <= 1, "{inst:?} defines {defs:?}");
            assert_eq!(defs.first().copied(), inst.def(), "{inst:?}");

            // Renaming only the uses moves every use and leaves the def.
            let mut renamed = inst.clone();
            renamed.slots_mut(|role, v| {
                if is_use(role) {
                    *v += 100;
                }
            });
            assert_eq!(renamed.def(), inst.def(), "{inst:?}");
            let mut after = Vec::new();
            renamed.slots(|role, v| after.push((role, v)));
            let moved = |&(role, v): &(SlotRole, u16)| (role, v + if is_use(role) { 100 } else { 0 });
            assert_eq!(after, seen.iter().map(moved).collect::<Vec<_>>(), "{inst:?}");
        }
    }
}
