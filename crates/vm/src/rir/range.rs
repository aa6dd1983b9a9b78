//! Symbolic range ABCE and guarded loop versioning.
//!
//! Two mechanisms extend the idiom tier's `arr[i]`-under-`i < arr.Length`
//! matching to the loop shapes the Grande/SciMark kernels actually use:
//!
//! * **Range ABCE** ([`range_abce`]): per-loop symbolic intervals for the
//!   induction variable prove *derived* indices in bounds — `arr[i+k]`
//!   and `arr[i-k]` once the guard bounds `i` below the length with
//!   enough slack, and triangular nests (`for j < i` under
//!   `for i < arr.Length`) by chaining the inner bound through the outer
//!   loop's supremum. Accesses that pass get `BoundsMode::ElidedRange`
//!   and a [`CertKind::Loop`] certificate recording the interval facts.
//! * **Loop versioning** ([`version_loops`]): loops whose guard bound is
//!   *not* statically tied to an array length (SparseMatMul's row-pointer
//!   bounds, LU's dimension argument) get a check-free clone selected by
//!   an up-front guard — null tests, `ivar >= 0` at entry, and
//!   `bound <= arr.Length` per array. The guard falls back to the
//!   original, fully checked loop whenever any test fails, so the clone
//!   runs only under the exact dynamic facts its
//!   [`CertKind::Versioned`] certificates cite.
//!
//! Both passes are *oracle-filtered*: candidate derivation here is
//! written independently of [`crate::rir::audit`], and nothing is elided
//! on this module's word alone. Range ABCE only flips access flags, so it
//! asks the checker about each candidate certificate against the
//! analysis context it already holds ([`audit::check_cert`]) and commits
//! what is accepted. Versioning restructures the code, so each plan is
//! applied to a copy, judged by the whole-method [`audit::check`] — which
//! re-analyzes the transformed body and re-verifies every certificate —
//! and dropped if rejected. A disagreement between this pass and the
//! checker therefore degrades to a missed optimization, never to an
//! unsound elision or an audit-time hard failure.

use crate::rir::audit::{self, CertKind, ElisionCert};
use crate::rir::loops::{Analysis, NaturalLoop};
use crate::rir::lower::Lowered;
use crate::rir::opt::{shift_eh_ranges, LoopFacts, MethodCtx};
use crate::rir::{BoundsMode, Operand, RInst};
use hpcnet_cil::{BinOp, CmpOp, NumTy};

/// Largest loop region (in instructions) versioning will clone; beyond
/// this the code-size cost outweighs the per-iteration check savings.
const MAX_CLONE_INSTS: usize = 48;

/// Most distinct arrays one versioning guard will test.
const MAX_GUARD_ARRAYS: usize = 4;

// ---------------------------------------------------------------------------
// Shared guard/induction analysis (independent of the audit checker).
// ---------------------------------------------------------------------------

/// A loop-header guard normalized to "stay while `ivar < bound`" (or
/// `<=` when not strict).
struct GuardInfo {
    /// Header terminator pc.
    term: usize,
    /// Induction slot, copies resolved.
    ivar: u16,
    /// Bound operand exactly as written in the `BrCmp` (the versioning
    /// guard must re-test the *raw* slot the clone's header reads).
    raw_bound: Operand,
    strict: bool,
    /// `(array origin, via_global_chain)` when the bound operand holds
    /// that array's length.
    len_bound: Option<(u16, bool)>,
    /// Resolved bound slot, when the bound is a slot.
    bound_res: Option<u16>,
}

fn guard_info(l: &Lowered, an: &Analysis, facts: &LoopFacts, lp: &NaturalLoop) -> Option<GuardInfo> {
    let (_, he) = an.cfg.ranges[lp.header];
    let term = he - 1;
    let g = facts.guard(term)?;
    let RInst::BrCmp { a, b, t, .. } = l.code[term] else {
        return None;
    };
    let tgt_in = lp.contains(an.cfg.block_of(t));
    let fall_in = he < l.code.len() && lp.contains(an.cfg.block_of(he as u32));
    if tgt_in == fall_in {
        return None;
    }
    // The predicate that holds on the edge staying in the loop.
    let stay = if fall_in { g.op.negate() } else { g.op };
    match stay {
        CmpOp::Lt | CmpOp::Le => Some(GuardInfo {
            term,
            ivar: g.a,
            raw_bound: b,
            strict: stay == CmpOp::Lt,
            len_bound: g.b_len,
            bound_res: g.b,
        }),
        CmpOp::Gt | CmpOp::Ge => Some(GuardInfo {
            term,
            ivar: g.b?,
            raw_bound: Operand::Slot(a),
            strict: stay == CmpOp::Gt,
            len_bound: g.a_len,
            bound_res: Some(g.a),
        }),
        _ => None,
    }
}

/// Are all in-loop definitions of `v` positive constant increments?
fn increments_only(
    l: &Lowered,
    an: &Analysis,
    facts: &LoopFacts,
    lp: &NaturalLoop,
    v: u16,
) -> bool {
    an.loop_p_defs(l, lp, v).all(|pc| facts.is_increment(pc))
}

/// Block-local constant value of an operand before `at`, following move
/// chains back to a `ConstP`.
fn const_local(l: &Lowered, an: &Analysis, bs: usize, at: usize, o: &Operand) -> Option<i64> {
    match o {
        Operand::Imm(v) => Some(*v as u32 as i32 as i64),
        Operand::Slot(s) => {
            let mut cur = *s;
            let mut at = at;
            for _ in 0..16 {
                let d = an.defs(l).last_p_in(cur, bs, at)?;
                match &l.code[d] {
                    RInst::ConstP { bits, .. } => return Some(*bits as u32 as i32 as i64),
                    RInst::MovP { src, .. } => {
                        cur = *src;
                        at = d;
                    }
                    _ => return None,
                }
            }
            None
        }
    }
}

/// Resolve `slot` at `pc` (same block) to `root + k`, walking backward
/// through moves and constant add/sub; `root` must stay unredefined
/// between the rooted read and `pc`.
fn affine_to(l: &Lowered, an: &Analysis, pc: usize, slot: u16, root: u16) -> Option<i64> {
    let bs = an.block_start(pc);
    let mut cur = slot;
    let mut k: i64 = 0;
    let mut at = pc;
    for _ in 0..16 {
        if cur == root {
            if an.defs(l).last_p_in(root, at, pc).is_some() {
                return None;
            }
            return Some(k);
        }
        let d = an.defs(l).last_p_in(cur, bs, at)?;
        match &l.code[d] {
            RInst::MovP { src, .. } => cur = *src,
            RInst::Bin { op: BinOp::Add, ty: NumTy::I4, a, b, .. } => {
                k = k.checked_add(const_local(l, an, bs, d, b)?)?;
                cur = *a;
            }
            RInst::Bin { op: BinOp::Sub, ty: NumTy::I4, a, b, .. } => {
                k = k.checked_sub(const_local(l, an, bs, d, b)?)?;
                cur = *a;
            }
            _ => return None,
        }
        at = d;
    }
    None
}

/// Supremum offset the header guard enforces for the loop's induction
/// variable relative to `len(arr)`: `ivar <= len(arr) + ret` on every
/// covered path. Direct length bounds and triangular chains through an
/// enclosing counted loop are recognized.
fn sup_of(
    l: &Lowered,
    an: &Analysis,
    facts: &LoopFacts,
    lp: &NaturalLoop,
    arr: u16,
    depth: u8,
) -> Option<i64> {
    let gi = guard_info(l, an, facts, lp)?;
    let adj = if gi.strict { -1 } else { 0 };
    if let Some((a, _)) = gi.len_bound {
        return if a == arr { Some(adj) } else { None };
    }
    if depth == 0 {
        return None;
    }
    // Triangular: the bound is an enclosing loop's counted induction
    // variable, itself guarded below the array length.
    let bs = gi.bound_res?;
    for olp in an.loops(l) {
        if olp.header == lp.header || !olp.clean || !olp.encloses(lp) {
            continue;
        }
        let Some(ogi) = guard_info(l, an, facts, olp) else {
            continue;
        };
        if ogi.ivar != bs || !increments_only(l, an, facts, olp, bs) {
            continue;
        }
        if let Some(os) = sup_of(l, an, facts, olp, arr, depth - 1) {
            return Some(os + adj);
        }
    }
    None
}

/// The raw index slot of a still-checked element access.
fn checked_index(inst: &RInst) -> Option<u16> {
    match inst {
        RInst::LdElem { idx, bounds, .. } | RInst::StElem { idx, bounds, .. }
            if bounds.is_checked() =>
        {
            Some(*idx)
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Range ABCE.
// ---------------------------------------------------------------------------

/// Elide checks on derived-index accesses proven in `[0, len)` by the
/// loop's symbolic interval. Returns the number of checks removed; every
/// removal carries a [`CertKind::Loop`] certificate already accepted by
/// the independent checker.
pub(crate) fn range_abce(l: &mut Lowered, ctx: &mut MethodCtx) -> u64 {
    let (an, facts) = ctx.facts(l);
    let mut cands: Vec<(usize, ElisionCert)> = Vec::new();
    for lp in an.loops(l) {
        if !lp.clean {
            continue;
        }
        let Some(gi) = guard_info(l, an, facts, lp) else {
            continue;
        };
        if !increments_only(l, an, facts, lp, gi.ivar) {
            continue;
        }
        for &b in &lp.body {
            if b == lp.header {
                continue;
            }
            let (s, e) = an.cfg.ranges[b];
            for pc in s..e {
                let Some(idx_raw) = checked_index(&l.code[pc]) else {
                    continue;
                };
                let Some((_, aorigin)) = facts.access(pc) else {
                    continue;
                };
                let Some(k) = affine_to(l, an, pc, idx_raw, gi.ivar) else {
                    continue;
                };
                let Some(sup_off) = sup_of(l, an, facts, lp, aorigin, 3) else {
                    continue;
                };
                // Interval: [entry_lo + k, len + sup_off + k] ⊆ [0, len).
                // The smallest sufficient entry bound is claimed; the
                // checker verifies the actual entry constants reach it.
                let entry_lo = if k < 0 { -k } else { 0 };
                if sup_off + k > -1 {
                    continue;
                }
                cands.push((
                    pc,
                    ElisionCert {
                        pc: pc as u32,
                        mechanism: BoundsMode::ElidedRange,
                        kind: CertKind::Loop {
                            guard_pc: gi.term as u32,
                            ivar: gi.ivar,
                            offset: k,
                            entry_lo,
                            sup_arr: aorigin,
                            sup_off,
                        },
                    },
                ));
            }
        }
    }
    if cands.is_empty() {
        return 0;
    }
    // The certificates already on the method were issued against the
    // uncompacted body (structural BCE) or never shown to the checker
    // (idiom ABCE). Nothing more is elided on top of a certificate this
    // version of the code does not bear out, so re-verify them — once,
    // on the shared context, not once per candidate.
    if l.certs.iter().any(|c| audit::check_cert(l, an, c).is_err()) {
        return 0;
    }
    // A nested loop may propose a pc twice; the `Checked` test skips
    // anything already won.
    let mut n = 0u64;
    for (pc, cert) in cands {
        if checked_index(&l.code[pc]).is_none() || audit::check_cert(l, an, &cert).is_err() {
            continue;
        }
        if let Some(bounds) = l.code[pc].bounds_mut() {
            *bounds = BoundsMode::ElidedRange;
        }
        l.certs.push(cert);
        n += 1;
    }
    n
}

// ---------------------------------------------------------------------------
// Guarded loop versioning.
// ---------------------------------------------------------------------------

/// One loop's versioning plan, pinned to pre-transformation pcs.
struct Plan {
    /// Contiguous loop region `[hs, hi)`, header first.
    hs: usize,
    hi: usize,
    /// Header terminator pc.
    term: usize,
    ivar: u16,
    /// Raw bound operand from the header compare, re-tested by the guard.
    bound: Operand,
    /// Distinct array origins the guard length-tests, in first-use order.
    arrs: Vec<u16>,
    /// `(access pc, index into arrs)` for every check the clone drops.
    accesses: Vec<(usize, usize)>,
}

/// Clone almost-provable loops behind an up-front guard and drop the
/// clone's checks. Returns `(checks removed, loops versioned)`; each
/// applied transformation has already passed the independent checker.
///
/// Consumes the context: every plan is laid against the code as it stands
/// on entry, and the first one applied makes that analysis history.
pub(crate) fn version_loops(l: &mut Lowered, ctx: &mut MethodCtx) -> (u64, u64) {
    let (an, facts) = ctx.facts(l);
    let mut plans: Vec<Plan> =
        an.loops(l).iter().filter_map(|lp| plan_version(l, an, facts, lp)).collect();
    // Innermost (highest header pc) first: applying a transformation only
    // moves code at or above its own region, so every lower-pc plan's
    // pcs stay valid. Overlapping regions (nests) are first-come.
    plans.sort_by(|a, b| b.hs.cmp(&a.hs));
    let mut applied: Vec<(usize, usize)> = Vec::new();
    let mut removed = 0u64;
    let mut versioned = 0u64;
    for p in plans {
        if applied.iter().any(|&(s, e)| p.hs < e && s < p.hi) {
            continue;
        }
        let trial = apply_version(l, &p);
        if audit::check(&trial).is_ok() {
            *l = trial;
            removed += p.accesses.len() as u64;
            versioned += 1;
            applied.push((p.hs, p.hi));
        }
    }
    (removed, versioned)
}

fn plan_version(
    l: &Lowered,
    an: &Analysis,
    facts: &LoopFacts,
    lp: &NaturalLoop,
) -> Option<Plan> {
    if !lp.clean {
        return None;
    }
    let gi = guard_info(l, an, facts, lp)?;
    // The clone keeps the original guard, so it must already be a strict
    // upper bound for `bound <= len` to imply `ivar < len`.
    if !gi.strict {
        return None;
    }
    // Contiguous region with the header first; the last instruction must
    // not fall through (the clone is appended at the end of the body).
    let mut hs = usize::MAX;
    let mut hi = 0usize;
    let mut size = 0usize;
    for &b in &lp.body {
        let (s, e) = an.cfg.ranges[b];
        hs = hs.min(s);
        hi = hi.max(e);
        size += e - s;
    }
    if hi - hs != size || an.cfg.ranges[lp.header].0 != hs || hi - hs > MAX_CLONE_INSTS {
        return None;
    }
    if !matches!(
        l.code[hi - 1],
        RInst::Br { .. } | RInst::Ret { .. } | RInst::Throw { .. }
    ) {
        return None;
    }
    // The guard re-reads the bound before entry, so it must be loop-
    // invariant (raw and resolved forms both).
    if let Operand::Slot(bs) = gi.raw_bound {
        if an.loop_p_defs(l, lp, bs).next().is_some() {
            return None;
        }
    }
    if let Some(br) = gi.bound_res {
        if an.loop_p_defs(l, lp, br).next().is_some() {
            return None;
        }
    }
    let inc_pcs: Vec<usize> = an.loop_p_defs(l, lp, gi.ivar).collect();
    if inc_pcs.is_empty() || !inc_pcs.iter().all(|&pc| facts.is_increment(pc)) {
        return None;
    }
    let post = lp.post_region(&an.cfg, &inc_pcs);
    let mut arrs: Vec<u16> = Vec::new();
    let mut accesses: Vec<(usize, usize)> = Vec::new();
    for &b in &lp.body {
        if b == lp.header || post.blocks.contains(b) {
            continue;
        }
        let (s, e) = an.cfg.ranges[b];
        for pc in s..e {
            if post.in_tail(pc) {
                continue;
            }
            let Some(idx_raw) = checked_index(&l.code[pc]) else {
                continue;
            };
            let Some((_, aorigin)) = facts.access(pc) else {
                continue;
            };
            if affine_to(l, an, pc, idx_raw, gi.ivar) != Some(0) {
                continue;
            }
            // The guard's one length test must stay valid for the whole
            // clone: single-definition array, never written in the loop.
            if an.defs(l).real_r_count(aorigin) > 1 {
                continue;
            }
            let written_in_region = an.defs(l).r_sites(aorigin).iter().any(|&p| {
                (hs..hi).contains(&(p as usize))
                    && !matches!(l.code[p as usize], RInst::ConstNull { .. })
            });
            if written_in_region {
                continue;
            }
            let j = match arrs.iter().position(|&a| a == aorigin) {
                Some(j) => j,
                None if arrs.len() == MAX_GUARD_ARRAYS => continue,
                None => {
                    arrs.push(aorigin);
                    arrs.len() - 1
                }
            };
            accesses.push((pc, j));
        }
    }
    if accesses.is_empty() {
        return None;
    }
    // Fresh-register headroom (2 primitive temps per array, 1 null ref).
    if l.n_pvreg as u32 + 2 * arrs.len() as u32 >= 0x4000
        || l.n_rvreg as u32 + 1 >= 0x4000
    {
        return None;
    }
    Some(Plan {
        hs,
        hi,
        term: gi.term,
        ivar: gi.ivar,
        bound: gi.raw_bound,
        arrs,
        accesses,
    })
}

/// A copy of `l` rewritten per the plan (the caller keeps the original
/// until the checker has accepted the copy):
///
/// ```text
///   [0, hs)            unchanged prefix
///   [hs, hs+gk)        versioning guard (bails to hs+gk on any failure)
///   [hs+gk, len+gk)    original code, shifted; the checked loop survives
///                      at [hs+gk, hi+gk) as the fall-back
///   [len+gk, ..)       check-free clone of [hs, hi)
/// ```
///
/// with `gk = 3 + 4·|arrs|`. Branches into the old `hs` from outside the
/// region now enter the guard (and re-select a version); the region's own
/// back edges keep targeting the shifted original header.
fn apply_version(l: &Lowered, p: &Plan) -> Lowered {
    let m = p.arrs.len();
    let gk = 3 + 4 * m;
    let old_len = l.code.len();
    let nc = old_len + gk; // clone start == clone header
    let (hs, hi) = (p.hs, p.hi);
    let orig = (hs + gk) as u32;
    let in_region = |t: usize| t >= hs && t < hi;

    // Every original instruction — prefix included — remaps its target:
    // below the guard nothing moves, the old header becomes the guard for
    // outside entries (and the shifted header for the region's own back
    // edges), everything past the insertion point shifts by `gk`.
    let shift = |src: usize, t: usize| -> usize {
        if t < hs {
            t
        } else if t == hs {
            if in_region(src) {
                hs + gk
            } else {
                hs
            }
        } else {
            t + gk
        }
    };

    let base_p = l.n_pvreg;
    let tn = l.n_rvreg; // fresh null-reference temp
    let mut code: Vec<RInst> = Vec::with_capacity(old_len + gk + (hi - hs));
    for pc in 0..hs {
        let mut inst = l.code[pc].clone();
        if let Some(t) = inst.target() {
            inst.set_target(shift(pc, t as usize) as u32);
        }
        code.push(inst);
    }
    // Guard: null-test every array, entry lower bound, length tests.
    code.push(RInst::ConstNull { dst: tn });
    for (j, &a) in p.arrs.iter().enumerate() {
        let tz = base_p + j as u16;
        code.push(RInst::CmpRef { op: CmpOp::Eq, dst: tz, a, b: tn });
        code.push(RInst::BrCmp {
            op: CmpOp::Ne,
            ty: NumTy::I4,
            a: tz,
            b: Operand::Imm(0),
            t: orig,
        });
    }
    code.push(RInst::BrCmp {
        op: CmpOp::Lt,
        ty: NumTy::I4,
        a: p.ivar,
        b: Operand::Imm(0),
        t: orig,
    });
    for (j, &a) in p.arrs.iter().enumerate() {
        let tl = base_p + (m + j) as u16;
        code.push(RInst::LdLen { arr: a, dst: tl });
        code.push(match p.bound {
            Operand::Slot(bs) => RInst::BrCmp {
                op: CmpOp::Gt,
                ty: NumTy::I4,
                a: bs,
                b: Operand::Slot(tl),
                t: orig,
            },
            Operand::Imm(c) => RInst::BrCmp {
                op: CmpOp::Lt,
                ty: NumTy::I4,
                a: tl,
                b: Operand::Imm(c),
                t: orig,
            },
        });
    }
    code.push(RInst::Br { t: nc as u32 });
    debug_assert_eq!(code.len(), hs + gk);
    // Shifted original. A branch to the old header from inside the region
    // is a back edge and stays in the fall-back loop; one from outside
    // re-enters through the guard.
    for pc in hs..old_len {
        let mut inst = l.code[pc].clone();
        if let Some(t) = inst.target() {
            inst.set_target(shift(pc, t as usize) as u32);
        }
        code.push(inst);
    }
    debug_assert_eq!(code.len(), nc);
    // Check-free clone. Planned accesses become versioned; every other
    // elision in the clone reverts to a plain check (its certificate
    // stays with the original copy).
    for pc in hs..hi {
        let mut inst = l.code[pc].clone();
        if let RInst::LdElem { bounds, .. } | RInst::StElem { bounds, .. } = &mut inst {
            *bounds = if p.accesses.iter().any(|&(apc, _)| apc == pc) {
                BoundsMode::ElidedVersioned
            } else {
                BoundsMode::Checked
            };
        }
        if let Some(t) = inst.target() {
            let t = t as usize;
            let nt = if in_region(t) {
                nc + (t - hs)
            } else if t < hs {
                t
            } else {
                t + gk
            };
            inst.set_target(nt as u32);
        }
        code.push(inst);
    }
    // EH ranges shift like the code (the loop itself is clean, and the
    // appended clone ends before any shifted region boundary reappears).
    let gk32 = gk as u32;
    let mut eh = l.eh.clone();
    shift_eh_ranges(&mut eh, hs as u32, gk32);
    let mut certs = l.certs.clone();
    for c in &mut certs {
        c.remap_pcs(&mut |q| if (q as usize) < hs { q } else { q + gk32 });
    }
    certs.extend(p.accesses.iter().map(|&(apc, j)| ElisionCert {
        pc: (nc + (apc - hs)) as u32,
        mechanism: BoundsMode::ElidedVersioned,
        kind: CertKind::Versioned {
            guard_start: hs as u32,
            guard_pc: (nc + (p.term - hs)) as u32,
            ivar: p.ivar,
            arr: p.arrs[j],
            null_check_pc: (hs + 1 + 2 * j) as u32,
            lo_check_pc: (hs + 1 + 2 * m) as u32,
            len_check_pc: (hs + 2 + 2 * m + 2 * j) as u32,
        },
    }));
    Lowered {
        code,
        eh,
        eh_exc_vregs: l.eh_exc_vregs.clone(),
        arg_locs: l.arg_locs.clone(),
        n_pvreg: l.n_pvreg + 2 * m as u16,
        n_rvreg: l.n_rvreg + 1,
        certs,
    }
}
