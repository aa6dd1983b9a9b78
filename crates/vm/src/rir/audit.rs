//! Elision certificates and their independent checker.
//!
//! Every bounds-check elimination mechanism (the structural idiom matcher,
//! loop-aware ABCE, symbolic range analysis, guarded loop versioning)
//! records one [`ElisionCert`] per check it removes: the access pc, the
//! mechanism, and the facts justifying the elision (which guard, which
//! induction variable, the index's affine offset and derived interval).
//! Certificates live in `Lowered` and every pass that moves instructions
//! remaps their pcs alongside branch targets and EH ranges.
//!
//! `check` re-verifies each certificate against the *final* optimized
//! code with its own resolvers (separate from the pass-side fact
//! machinery): it re-finds the loop, re-classifies the induction variable's
//! definitions, re-resolves the guard's bound to an `arr.Length`-relative
//! symbol, re-derives the entry lower bound, and re-checks the interval
//! arithmetic `[entry_lo + k, len(arr) + sup_off + k] ⊆ [0, len(arr))`.
//! It also sweeps for completeness: an elided access without a matching
//! certificate (or vice versa) is an error. Profiles with `audit` set run
//! the checker on every method they compile (the conform matrix enables
//! it everywhere), so an unsound elision is a hard engine error rather
//! than a silent wrong answer.
//!
//! The checker trusts only the structural analysis it shares with the
//! optimizer (`rir::loops::Analysis`: basic blocks, natural
//! loops, where each virtual register is written); all value reasoning —
//! what a slot holds, what a guard implies — is re-implemented here, and
//! the optimizer's block-local fact scan is never consulted. Idiom
//! certificates verify the structural facts the era JITs keyed on
//! (zero-init monotone counter + a guard against the array length); range
//! and versioned certificates verify the full interval derivation.
//!
//! Two entry points share one per-certificate implementation.
//! `check` is the whole-method judge: it analyzes the code it is given
//! from scratch, sweeps for completeness and verifies every certificate.
//! `check_cert` verifies a single certificate against an analysis the
//! caller already holds; the flag-flipping elimination passes ask it
//! about each candidate *before* committing, so an elision costs one
//! certificate check rather than a whole-method audit.

use crate::rir::loops::{Analysis, BitSet, Cfg, Defs, NaturalLoop};
use crate::rir::lower::Lowered;
use crate::rir::{BoundsMode, DstSlot, Operand, RInst};
use hpcnet_cil::{BinOp, CmpOp, NumTy};

/// Offsets and constants beyond this magnitude are rejected outright so
/// interval arithmetic stays far away from `i32` wrap.
const K_CAP: i64 = 1 << 20;

/// Is `k` a loop step the audit accepts: positive and at most [`K_CAP`]?
/// A larger step can carry a counter past `i32::MAX` on a long enough
/// array. The optimizer's fact scan marks increments by this same rule,
/// so no elision mechanism certifies a loop the audit rejects.
pub(crate) fn is_loop_step(k: i64) -> bool {
    (1..=K_CAP).contains(&k)
}

/// One elided bounds check and the facts that justify it.
#[derive(Clone, Debug, PartialEq)]
pub struct ElisionCert {
    /// pc of the elided `LdElem`/`StElem` in the optimized
    /// (pre-allocation) code.
    pub pc: u32,
    /// Which mechanism removed the check (never `Checked`).
    pub mechanism: BoundsMode,
    pub kind: CertKind,
}

/// The mechanism-specific justification.
#[derive(Clone, Debug, PartialEq)]
pub enum CertKind {
    /// Structural idiom: `ivar` is a zero-initialized counter whose only
    /// other definitions are positive constant increments, and the method
    /// guards it against `arr`'s length at `guard_pc`.
    BlockGuard { guard_pc: u32, ivar: u16, arr: u16 },
    /// Counted loop: the access index equals `ivar + offset`; the loop
    /// header's guard at `guard_pc` keeps `ivar <= len(sup_arr) + sup_off`
    /// on every covered path, and every loop entry reaches the header with
    /// `ivar >= entry_lo`.
    Loop {
        guard_pc: u32,
        ivar: u16,
        offset: i64,
        entry_lo: i64,
        sup_arr: u16,
        sup_off: i64,
    },
    /// Check-free clone selected by the run-time guard emitted at
    /// `guard_start`: a null test on `arr` (`null_check_pc`), an entry
    /// lower-bound test `ivar >= 0` (`lo_check_pc`), and a length test
    /// `bound <= len(arr)` (`len_check_pc`), all bailing to the checked
    /// original. `guard_pc` is the clone loop's own header terminator.
    Versioned {
        guard_start: u32,
        guard_pc: u32,
        ivar: u16,
        arr: u16,
        null_check_pc: u32,
        lo_check_pc: u32,
        len_check_pc: u32,
    },
}

impl ElisionCert {
    /// Apply an instruction-position remap to every pc this certificate
    /// references (passes that insert or delete instructions call this).
    pub fn remap_pcs(&mut self, f: &mut dyn FnMut(u32) -> u32) {
        self.pc = f(self.pc);
        match &mut self.kind {
            CertKind::BlockGuard { guard_pc, .. } => *guard_pc = f(*guard_pc),
            CertKind::Loop { guard_pc, .. } => *guard_pc = f(*guard_pc),
            CertKind::Versioned {
                guard_start,
                guard_pc,
                null_check_pc,
                lo_check_pc,
                len_check_pc,
                ..
            } => {
                *guard_start = f(*guard_start);
                *guard_pc = f(*guard_pc);
                *null_check_pc = f(*null_check_pc);
                *lo_check_pc = f(*lo_check_pc);
                *len_check_pc = f(*len_check_pc);
            }
        }
    }
}

/// One method under audit: its code and the structural analysis of
/// exactly that code. Cheap to make — the cost is in the [`Analysis`],
/// which a caller verifying many certificates builds once.
struct Ck<'a> {
    l: &'a Lowered,
    an: &'a Analysis,
}

impl Ck<'_> {
    fn defs(&self) -> &Defs {
        self.an.defs(self.l)
    }

    /// Known constant in primitive `slot` just before `at`, from its last
    /// definition in `bs..at`: a `ConstP`, or a move of a slot that is
    /// itself a known constant at that point.
    fn const_before(&self, bs: usize, at: usize, slot: u16) -> Option<i64> {
        let d = self.defs().last_p_in(slot, bs, at)?;
        match &self.l.code[d] {
            RInst::ConstP { bits, .. } => Some(*bits as u32 as i32 as i64),
            RInst::MovP { src, .. } => self.const_before(bs, d, *src),
            _ => None,
        }
    }

    /// Immediate `i64` value of an operand, resolving constant slots
    /// through their last in-block definition before `at` (walking move
    /// chains, as the pass-side constant facts do).
    fn const_op(&self, block_start: usize, at: usize, o: &Operand) -> Option<i64> {
        match o {
            Operand::Imm(v) => Some(*v as u32 as i32 as i64),
            Operand::Slot(s) => {
                let mut cur = *s;
                let mut at = at;
                for _ in 0..16 {
                    let d = self.defs().last_p_in(cur, block_start, at)?;
                    match &self.l.code[d] {
                        RInst::ConstP { bits, .. } => {
                            return Some(*bits as u32 as i32 as i64)
                        }
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

    /// Resolve `slot` at `pc` (same block) to an affine form `root + k`,
    /// walking backward through moves and constant add/sub. Returns `k`
    /// when the chain roots at `root` and `root` is not redefined between
    /// the rooted read and `pc` (so the value at `pc` really is the
    /// current `root + k`).
    fn affine_of(&self, pc: usize, slot: u16, root: u16) -> Option<i64> {
        let bs = self.an.block_start(pc);
        let mut cur = slot;
        let mut k: i64 = 0;
        let mut at = pc;
        for _ in 0..16 {
            if cur == root {
                if self.defs().last_p_in(root, at, pc).is_some() {
                    return None;
                }
                return if k.abs() <= K_CAP { Some(k) } else { None };
            }
            let d = self.defs().last_p_in(cur, bs, at)?;
            match &self.l.code[d] {
                RInst::MovP { src, .. } => cur = *src,
                RInst::Bin { op: BinOp::Add, ty: NumTy::I4, a, b, .. } => {
                    k = k.checked_add(self.const_op(bs, d, b)?)?;
                    cur = *a;
                }
                RInst::Bin { op: BinOp::Sub, ty: NumTy::I4, a, b, .. } => {
                    k = k.checked_sub(self.const_op(bs, d, b)?)?;
                    cur = *a;
                }
                _ => return None,
            }
            at = d;
        }
        None
    }

    /// Resolve a reference slot at `pc` (same block) through `MovR` copies
    /// to its origin, requiring the origin unredefined up to `pc`.
    fn resolve_r(&self, pc: usize, slot: u16) -> Option<u16> {
        let bs = self.an.block_start(pc);
        let defs = self.defs();
        let mut cur = slot;
        let mut at = pc;
        for _ in 0..16 {
            match defs.last_r_in(cur, bs, at) {
                None => {
                    if defs.last_r_in(cur, at, pc).is_some() {
                        return None;
                    }
                    return Some(cur);
                }
                Some(d) => match &self.l.code[d] {
                    RInst::MovR { src, .. } => {
                        cur = *src;
                        at = d;
                    }
                    _ => {
                        // Defined here by a non-copy: this slot is its own
                        // origin from this point on.
                        if defs.last_r_in(cur, d + 1, pc).is_some() {
                            return None;
                        }
                        return Some(cur);
                    }
                },
            }
        }
        None
    }

    /// Is `slot` provably `len(arr) + c` at `at`? Chains resolve through
    /// the last in-block definition before `at` (re-derived on every
    /// execution of that block), falling back to a global single-definition
    /// site — which, when a loop is given, must lie outside it so the
    /// global fact is loop-invariant.
    fn len_plus(
        &self,
        at: Option<usize>,
        slot: u16,
        arr: u16,
        depth: u8,
        lp: Option<&NaturalLoop>,
    ) -> Option<i64> {
        if depth == 0 || self.defs().real_r_count(arr) > 1 {
            return None;
        }
        let local = at.and_then(|at| self.defs().last_p_in(slot, self.an.block_start(at), at));
        let d = match local {
            Some(d) => d,
            None => self.invariant_real_p_def(slot, lp)?,
        };
        let bs = self.an.block_start(d);
        match &self.l.code[d] {
            RInst::LdLen { arr: a, .. } => {
                // Resolve both the instruction's operand and the certified
                // slot at the same point: a cert may name a single-def slot
                // whose value was copied out of a reused temp (`MovR s, t`
                // right after `NewArr t`), in which case the chain-resolved
                // origins agree even though the raw slots differ.
                let origin = self.resolve_r(d, *a)?;
                if origin == arr || Some(origin) == self.resolve_r(d, arr) {
                    Some(0)
                } else {
                    None
                }
            }
            RInst::MovP { src, .. } => self.len_plus(Some(d), *src, arr, depth - 1, lp),
            RInst::Bin { op: BinOp::Sub, ty: NumTy::I4, a, b, .. } => {
                let c = self.const_op(bs, d, b)?;
                let inner = self.len_plus(Some(d), *a, arr, depth - 1, lp)?;
                let c = inner.checked_sub(c)?;
                if c.abs() <= K_CAP { Some(c) } else { None }
            }
            RInst::Bin { op: BinOp::Add, ty: NumTy::I4, a, b, .. } => {
                let c = self.const_op(bs, d, b)?;
                let inner = self.len_plus(Some(d), *a, arr, depth - 1, lp)?;
                let c = inner.checked_add(c)?;
                if c.abs() <= K_CAP { Some(c) } else { None }
            }
            _ => None,
        }
    }

    /// Is the primitive slot an incoming argument? Argument slots carry
    /// caller-supplied values, so they are never implicitly zero.
    fn is_arg_p(&self, slot: u16) -> bool {
        self.l
            .arg_locs
            .iter()
            .any(|a| matches!(a, crate::rir::ArgSlot::P(_, s) if *s == slot))
    }

    /// The single real (non-zero-init) definition site of a primitive
    /// slot, if it has exactly one — additionally outside the given loop
    /// (a length fact sourced from inside the loop is not invariant).
    fn invariant_real_p_def(&self, slot: u16, lp: Option<&NaturalLoop>) -> Option<usize> {
        if self.defs().real_p_count(slot) != 1 {
            return None;
        }
        let d = self
            .defs()
            .p_sites(slot)
            .iter()
            .map(|&d| d as usize)
            .find(|&d| !matches!(self.l.code[d], RInst::ConstP { bits: 0, .. }))?;
        if lp.is_some_and(|lp| lp.contains_pc(&self.an.cfg, d)) {
            return None;
        }
        Some(d)
    }

    /// Does the loop redefine the reference slot (ignoring zero-inits)?
    fn loop_redefines_r(&self, lp: &NaturalLoop, v: u16) -> bool {
        self.an
            .loop_r_defs(self.l, lp, v)
            .any(|pc| !matches!(self.l.code[pc], RInst::ConstNull { .. }))
    }

    /// Classify the definition at `pc` as `v = v + step` (directly or via
    /// a same-block temp) and return the positive constant `step`.
    fn def_step(&self, pc: usize, v: u16) -> Option<i64> {
        let bs = self.an.block_start(pc);
        let k = match &self.l.code[pc] {
            RInst::Bin { op: BinOp::Add, ty: NumTy::I4, dst, a, b } if *dst == v => {
                let base = self.affine_of(pc, *a, v)?;
                base.checked_add(self.const_op(bs, pc, b)?)?
            }
            RInst::Bin { op: BinOp::Sub, ty: NumTy::I4, dst, a, b } if *dst == v => {
                let base = self.affine_of(pc, *a, v)?;
                base.checked_sub(self.const_op(bs, pc, b)?)?
            }
            RInst::MovP { dst, src } if *dst == v => self.affine_of(pc, *src, v)?,
            _ => return None,
        };
        if is_loop_step(k) { Some(k) } else { None }
    }

    /// Every in-loop definition of `v` must be a positive constant
    /// increment; returns their pcs.
    fn increments(&self, lp: &NaturalLoop, v: u16) -> Option<Vec<usize>> {
        let defs: Vec<usize> = self.an.loop_p_defs(self.l, lp, v).collect();
        for &pc in &defs {
            self.def_step(pc, v)?;
        }
        Some(defs)
    }

    /// Constant value of `v` at the end of block `b`, looking through
    /// blocks that do not define it (depth-limited, cycle-safe). Used for
    /// entry lower bounds: hoisted preheaders and versioning guards sit
    /// between the initializing block and the header.
    fn const_at_block_end(&self, b: usize, v: u16, depth: u8, visited: &mut BitSet) -> Option<i64> {
        if depth == 0 || !visited.insert(b) {
            return None;
        }
        let (s, e) = self.an.cfg.ranges[b];
        if self.defs().last_p_in(v, s, e).is_some() {
            return self.const_before(s, e, v);
        }
        // Not defined here: every predecessor must agree on a constant
        // (we take the minimum — a valid lower bound).
        let preds = self.an.cfg.preds(b);
        if preds.is_empty() {
            return None;
        }
        let mut lo: Option<i64> = None;
        for &p in preds {
            let c = self.const_at_block_end(p, v, depth - 1, visited)?;
            lo = Some(lo.map_or(c, |l: i64| l.min(c)));
        }
        lo
    }

    /// Lower bound of `v` on every edge entering the loop header from
    /// outside the loop.
    fn entry_lo(&self, lp: &NaturalLoop, v: u16) -> Option<i64> {
        let mut lo: Option<i64> = None;
        for &p in self.an.cfg.preds(lp.header).iter().filter(|&&p| !lp.contains(p)) {
            let mut visited = BitSet::new(self.an.cfg.ranges.len());
            // Depth covers the chains of small non-defining blocks that
            // LICM preheaders and versioning guards insert before headers.
            let c = self.const_at_block_end(p, v, 32, &mut visited)?;
            lo = Some(lo.map_or(c, |l: i64| l.min(c)));
        }
        lo
    }

    /// Normalize a loop-header guard: the terminator at `guard_pc` must be
    /// an I4 `BrCmp` with exactly one of target/fallthrough inside the
    /// loop. Returns the raw guarded slot, the bound operand, and whether
    /// the staying predicate is strict (`<`) or non-strict (`<=`).
    fn normalize_guard(&self, lp: &NaturalLoop, guard_pc: u32) -> Option<(u16, Operand, bool)> {
        let cfg = &self.an.cfg;
        let (_, he) = cfg.ranges[lp.header];
        if guard_pc as usize != he - 1 {
            return None;
        }
        let RInst::BrCmp { op, ty: NumTy::I4, a, b, t } = self.l.code[guard_pc as usize] else {
            return None;
        };
        let tgt_in = lp.contains(cfg.block_of(t));
        let fall_in = he < self.l.code.len() && lp.contains(cfg.block_of(he as u32));
        if tgt_in == fall_in {
            return None;
        }
        let stay = if fall_in { op.negate() } else { op };
        match stay {
            CmpOp::Lt => Some((a, b, true)),
            CmpOp::Le => Some((a, b, false)),
            CmpOp::Gt => match b {
                Operand::Slot(s) => Some((s, Operand::Slot(a), true)),
                Operand::Imm(_) => None,
            },
            CmpOp::Ge => match b {
                Operand::Slot(s) => Some((s, Operand::Slot(a), false)),
                Operand::Imm(_) => None,
            },
            _ => None,
        }
    }

    /// Upper bound the loop guard enforces for `ivar`: `ivar <= len(arr)
    /// + ret` on every covered (non-post-increment) path. Handles bounds
    /// that are the array length (possibly offset by constants) and
    /// bounds that are an enclosing loop's induction variable.
    fn loop_sup(
        &self,
        lp: &NaturalLoop,
        guard_pc: u32,
        ivar: u16,
        arr: u16,
        depth: u8,
    ) -> Option<i64> {
        let (raw, bound, strict) = self.normalize_guard(lp, guard_pc)?;
        // The guarded slot must carry the induction variable's value.
        if self.affine_of(guard_pc as usize, raw, ivar)? != 0 {
            return None;
        }
        let adj = if strict { -1 } else { 0 };
        let Operand::Slot(bs) = bound else { return None };
        // Path 1: the bound is (a constant offset from) the array length.
        // Block-local links re-derive every iteration; global links are
        // required (inside `len_plus`) to be single-defined outside the
        // loop, so the whole chain is iteration-stable.
        if let Some(c) = self.len_plus(Some(guard_pc as usize), bs, arr, 6, Some(lp)) {
            return Some(c + adj);
        }
        // Path 2: the bound is an enclosing loop's induction variable,
        // itself guarded below the array length (triangular loops).
        if depth == 0 || self.an.loop_p_defs(self.l, lp, bs).next().is_some() {
            return None;
        }
        let cfg = &self.an.cfg;
        for olp in self.an.loops(self.l) {
            if olp.header == lp.header || !olp.clean || !olp.encloses(lp) {
                continue;
            }
            let (_, ohe) = cfg.ranges[olp.header];
            let og = (ohe - 1) as u32;
            let Some(oinc) = self.increments(olp, bs) else { continue };
            // The inner loop must run before the outer increment within
            // each outer iteration, or the guard no longer covers `bs`.
            let post = olp.post_region(cfg, &oinc);
            let inner_in_post = lp.body.iter().any(|&b| {
                post.blocks.contains(b)
                    || (b != olp.header && {
                        let (s, e) = cfg.ranges[b];
                        post.tail_overlaps(s, e)
                    })
            });
            if inner_in_post {
                continue;
            }
            if let Some(osup) = self.loop_sup(olp, og, bs, arr, depth - 1) {
                return Some(osup + adj);
            }
        }
        None
    }

    /// Is the access at `pc` in the part of `lp` its header guard covers:
    /// past the header block, and not downstream of one of the induction
    /// variable's increments `inc` within the same iteration?
    fn covered_by_guard(&self, lp: &NaturalLoop, inc: &[usize], pc: u32) -> bool {
        let post = lp.post_region(&self.an.cfg, inc);
        let b = self.an.cfg.block_of(pc);
        b != lp.header && !post.blocks.contains(b) && !post.in_tail(pc as usize)
    }
}

/// Verify every certificate against the final code and sweep for
/// completeness. Returns the first failure as a human-readable message.
///
/// This is the whole-method judge: it builds its own [`Analysis`] and
/// trusts nothing the optimizer computed. Audited profiles run it at the
/// end of the pipeline; loop versioning runs it on every transformed
/// body before committing. The flag-flipping passes verify one candidate
/// at a time with [`check_cert`] against the analysis they already hold.
pub(crate) fn check(l: &Lowered) -> Result<(), String> {
    // Completeness both ways: elided accesses and certificates must match
    // one-to-one on (pc, mechanism).
    let elided = |pc: usize| l.code.get(pc).and_then(RInst::bounds).filter(|m| !m.is_checked());
    let mut certified = vec![false; l.code.len()];
    for c in &l.certs {
        let Some(m) = elided(c.pc as usize) else {
            return Err(format!("{c:?} has no matching elided access"));
        };
        if std::mem::replace(&mut certified[c.pc as usize], true) {
            return Err(format!("duplicate certificate {c:?}"));
        }
        if m != c.mechanism {
            return Err(format!("{c:?} claims {:?} but access is {m:?}", c.mechanism));
        }
    }
    for pc in 0..l.code.len() {
        if let Some(m) = elided(pc).filter(|_| !certified[pc]) {
            return Err(format!("elided access at pc {} ({:?}) has no certificate", pc, m));
        }
    }
    if l.certs.is_empty() {
        return Ok(());
    }
    let an = Analysis::new(l);
    for c in &l.certs {
        check_cert(l, &an, c).map_err(|e| format!("{c:?}: {e}"))?;
    }
    Ok(())
}

/// Verify one certificate against `l`, given the structural analysis of
/// exactly this code. The verdict depends on instruction positions,
/// operands and definitions only — never on any access's
/// [`BoundsMode`] or on the other certificates — so a pass may ask
/// before it flips the access, and one [`Analysis`] serves every
/// candidate of a flag-flipping pass.
pub(crate) fn check_cert(l: &Lowered, an: &Analysis, cert: &ElisionCert) -> Result<(), String> {
    let ck = Ck { l, an };
    match &cert.kind {
        CertKind::BlockGuard { guard_pc, ivar, arr } => {
            check_block_guard(&ck, cert.pc, *guard_pc, *ivar, *arr)
        }
        CertKind::Loop { guard_pc, ivar, offset, entry_lo, sup_arr, sup_off } => check_loop(
            &ck, cert.pc, *guard_pc, *ivar, *offset, *entry_lo, *sup_arr, *sup_off,
        ),
        CertKind::Versioned {
            guard_start,
            guard_pc,
            ivar,
            arr,
            null_check_pc,
            lo_check_pc,
            len_check_pc,
        } => check_versioned(
            &ck,
            cert.pc,
            *guard_start,
            *guard_pc,
            *ivar,
            *arr,
            *null_check_pc,
            *lo_check_pc,
            *len_check_pc,
        ),
    }
}

/// The access instruction's raw `(idx, arr)` slots.
fn access_slots(l: &Lowered, pc: u32) -> Result<(u16, u16), String> {
    match l.code.get(pc as usize) {
        Some(RInst::LdElem { arr, idx, .. }) | Some(RInst::StElem { arr, idx, .. }) => {
            Ok((*idx, *arr))
        }
        _ => Err("not an element access".into()),
    }
}

/// Structural idiom: verify the access reads `ivar` into `arr`, that
/// `ivar` is a zero-initialized monotone counter, that the claimed guard
/// is a strict-order compare of the counter against `arr`'s length, and
/// that the guard's in-bounds edge controls the access — dominates it,
/// the out-of-bounds edge cannot reach it guard-free, and no guard-free
/// path from the edge to the access redefines the counter.
fn check_block_guard(ck: &Ck, pc: u32, guard_pc: u32, ivar: u16, arr: u16) -> Result<(), String> {
    let (idx, araw) = access_slots(ck.l, pc)?;
    if ck.affine_of(pc as usize, idx, ivar) != Some(0) {
        return Err("index does not resolve to the certified counter".into());
    }
    if ck.resolve_r(pc as usize, araw) != Some(arr) {
        return Err("array does not resolve to the certified origin".into());
    }
    if ck.defs().real_r_count(arr) > 1 {
        return Err("array origin has multiple definitions".into());
    }
    // Counter shape: starts at zero (an explicit `ConstP 0`, or the
    // implicit zero-initialization every non-argument local gets), every
    // other def an increment.
    let mut zero = !ck.is_arg_p(ivar);
    let mut inc = false;
    for d in ck.defs().p_sites(ivar).iter().map(|&d| d as usize) {
        if matches!(ck.l.code[d], RInst::ConstP { bits: 0, .. }) {
            zero = true;
        } else if ck.def_step(d, ivar).is_some() {
            inc = true;
        } else {
            return Err("counter has a non-increment definition".into());
        }
    }
    if !zero || !inc {
        return Err("counter is not a zero-init incremented local".into());
    }
    // The guard compares the counter against the array length.
    let RInst::BrCmp { ty: NumTy::I4, op, a, b, t } = ck.l.code[guard_pc as usize] else {
        return Err("guard is not an I4 compare-branch".into());
    };
    let gp = guard_pc as usize;
    if gp + 1 >= ck.l.code.len() {
        return Err("guard has no fall-through".into());
    }
    let len_side = |s: u16| ck.len_plus(Some(gp), s, arr, 6, None) == Some(0);
    let ivar_side = |s: u16| ck.affine_of(gp, s, ivar) == Some(0);
    let Operand::Slot(bs) = b else {
        return Err("guard does not compare the counter against the array length".into());
    };
    // Which branch edge implies `ivar < len`? Only strict orderings
    // qualify: an `!=`/`==`/`<=` compare against the length anywhere in
    // the method does not bound the counter (conform seed 330: a ternary's
    // `i != arr.Length` must not certify `arr[i]` in an `i < 12` loop).
    let in_bounds_taken = if ivar_side(a) && len_side(bs) {
        match op {
            CmpOp::Lt => true,
            CmpOp::Ge => false,
            _ => return Err("guard comparison does not bound the counter below the length".into()),
        }
    } else if ivar_side(bs) && len_side(a) {
        match op {
            CmpOp::Gt => true,
            CmpOp::Le => false,
            _ => return Err("guard comparison does not bound the counter below the length".into()),
        }
    } else {
        return Err("guard does not compare the counter against the array length".into());
    };
    // The in-bounds edge must control the access: no path from entry or
    // from the out-of-bounds edge may reach it without passing the guard,
    // and no guard-free path from the in-bounds edge to the access may
    // redefine the counter (the canonical latch increment sits on a path
    // that re-enters the guard, so it stays legal).
    let cfg = &ck.an.cfg;
    let gb = cfg.block_of(guard_pc);
    let ab = cfg.block_of(pc);
    if ab == gb {
        return Err("access shares the guard's block and runs before the test".into());
    }
    let (in_succ, out_succ) = if in_bounds_taken {
        (cfg.block_of(t), cfg.block_of(guard_pc + 1))
    } else {
        (cfg.block_of(guard_pc + 1), cfg.block_of(t))
    };
    let entry = cfg.block_of(0);
    // Every walk avoids the guard block; the ones only asked whether they
    // reach the access share one set and all share one stack.
    let mut w = Walk::new(cfg, gb);
    let mut seen = BitSet::new(cfg.ranges.len());
    if w.reach(entry, &mut seen).contains(ab) {
        return Err("guard does not dominate the access".into());
    }
    if w.reach(out_succ, &mut seen).contains(ab) {
        return Err("out-of-bounds edge reaches the access without re-passing the guard".into());
    }
    let mut r_in = BitSet::new(cfg.ranges.len());
    if !w.reach(in_succ, &mut r_in).contains(ab) {
        return Err("in-bounds edge does not reach the access".into());
    }
    let mut to_access = BitSet::new(cfg.ranges.len());
    w.coreach(ab, &mut to_access);
    // Defs after the access in its own block only matter when a guard-free
    // cycle can revisit the block.
    let ab_cycle = cfg
        .succs(ab)
        .iter()
        .any(|&s| s != gb && (s == ab || w.reach(s, &mut seen).contains(ab)));
    let redefined = ck.defs().p_sites(ivar).iter().any(|&d| {
        let bk = cfg.block_of(d);
        r_in.contains(bk) && to_access.contains(bk) && (bk != ab || ab_cycle || d < pc)
    });
    if redefined {
        return Err("counter is redefined between the guard and the access".into());
    }
    Ok(())
}

/// Walks over a block graph that never enter the block `avoid`, sharing
/// one stack.
struct Walk<'c> {
    cfg: &'c Cfg,
    avoid: usize,
    stack: Vec<usize>,
}

impl<'c> Walk<'c> {
    fn new(cfg: &'c Cfg, avoid: usize) -> Walk<'c> {
        Walk { cfg, avoid, stack: Vec::new() }
    }

    /// Blocks reachable from `from` along successor edges, into `seen`
    /// (emptied first). Includes `from`; empty when `from == avoid`.
    fn reach<'s>(&mut self, from: usize, seen: &'s mut BitSet) -> &'s BitSet {
        self.walk(from, Cfg::succs, seen)
    }

    /// Blocks from which `to` is reachable, into `seen` (emptied first).
    /// Includes `to`; empty when `to == avoid`.
    fn coreach<'s>(&mut self, to: usize, seen: &'s mut BitSet) -> &'s BitSet {
        self.walk(to, Cfg::preds, seen)
    }

    fn walk<'s>(
        &mut self,
        start: usize,
        next: for<'g> fn(&'g Cfg, usize) -> &'g [usize],
        seen: &'s mut BitSet,
    ) -> &'s BitSet {
        seen.clear();
        if start == self.avoid {
            return seen;
        }
        let avoid = self.avoid;
        self.stack.push(start);
        while let Some(b) = self.stack.pop() {
            if seen.insert(b) {
                self.stack.extend(next(self.cfg, b).iter().copied().filter(|&n| n != avoid));
            }
        }
        seen
    }
}

/// Find the loop whose header terminator is `guard_pc` and that contains
/// `pc`.
fn loop_for<'c>(ck: &'c Ck, pc: u32, guard_pc: u32) -> Result<&'c NaturalLoop, String> {
    ck.an
        .loops(ck.l)
        .iter()
        .find(|lp| {
            ck.an.cfg.ranges[lp.header].1 as u32 == guard_pc + 1
                && lp.contains_pc(&ck.an.cfg, pc as usize)
        })
        .ok_or_else(|| "no loop with the certified guard contains the access".into())
}

#[allow(clippy::too_many_arguments)]
fn check_loop(
    ck: &Ck,
    pc: u32,
    guard_pc: u32,
    ivar: u16,
    offset: i64,
    entry_lo: i64,
    sup_arr: u16,
    sup_off: i64,
) -> Result<(), String> {
    let lp = loop_for(ck, pc, guard_pc)?;
    if !lp.clean {
        return Err("loop overlaps an exception region".into());
    }
    let (idx, araw) = access_slots(ck.l, pc)?;
    if ck.affine_of(pc as usize, idx, ivar) != Some(offset) {
        return Err("index is not ivar + certified offset".into());
    }
    if ck.resolve_r(pc as usize, araw) != Some(sup_arr) {
        return Err("access array does not match the certified bound array".into());
    }
    if ck.loop_redefines_r(lp, sup_arr) {
        return Err("array is redefined inside the loop".into());
    }
    if ck.defs().real_r_count(sup_arr) > 1 {
        return Err("array origin has multiple definitions".into());
    }
    let inc = ck
        .increments(lp, ivar)
        .ok_or("induction variable has a non-increment in-loop definition")?;
    if !ck.covered_by_guard(lp, &inc, pc) {
        return Err("access is not covered by the header guard".into());
    }
    let derived = ck
        .loop_sup(lp, guard_pc, ivar, sup_arr, 3)
        .ok_or("guard does not bound ivar below the array length")?;
    if derived != sup_off {
        return Err(format!(
            "certified sup len{:+} does not match derived len{:+}",
            sup_off, derived
        ));
    }
    let lo = ck
        .entry_lo(lp, ivar)
        .ok_or("entry value of ivar is unknown")?;
    if lo < entry_lo {
        return Err(format!("entry bound {} below certified {}", lo, entry_lo));
    }
    // The interval check itself: [entry_lo + k, len + sup_off + k] must
    // sit inside [0, len).
    if entry_lo + offset < 0 {
        return Err("interval lower bound below zero".into());
    }
    if sup_off + offset > -1 {
        return Err("interval upper bound reaches the array length".into());
    }
    Ok(())
}

/// Instructions a versioning guard region may contain.
fn guard_whitelisted(inst: &RInst) -> bool {
    matches!(
        inst,
        RInst::ConstNull { .. }
            | RInst::CmpRef { .. }
            | RInst::LdLen { .. }
            | RInst::BrCmp { .. }
            | RInst::Br { .. }
    )
}

#[allow(clippy::too_many_arguments)]
fn check_versioned(
    ck: &Ck,
    pc: u32,
    guard_start: u32,
    guard_pc: u32,
    ivar: u16,
    arr: u16,
    null_check_pc: u32,
    lo_check_pc: u32,
    len_check_pc: u32,
) -> Result<(), String> {
    let lp = loop_for(ck, pc, guard_pc)?;
    if !lp.clean {
        return Err("clone loop overlaps an exception region".into());
    }
    // --- The clone loop itself -------------------------------------------
    let (idx, araw) = access_slots(ck.l, pc)?;
    if ck.affine_of(pc as usize, idx, ivar) != Some(0) {
        return Err("index does not resolve to the induction variable".into());
    }
    if ck.resolve_r(pc as usize, araw) != Some(arr) {
        return Err("access array does not match the guarded array".into());
    }
    if ck.defs().real_r_count(arr) > 1 {
        return Err("array origin has multiple definitions".into());
    }
    if ck.loop_redefines_r(lp, arr) {
        return Err("array is redefined inside the clone".into());
    }
    let inc = ck
        .increments(lp, ivar)
        .ok_or("induction variable has a non-increment definition in the clone")?;
    if !ck.covered_by_guard(lp, &inc, pc) {
        return Err("access is not covered by the clone's header guard".into());
    }
    let (raw, bound, strict) = ck
        .normalize_guard(lp, guard_pc)
        .ok_or("clone header guard has no recognizable shape")?;
    if !strict {
        return Err("clone guard is not a strict upper bound".into());
    }
    if ck.affine_of(guard_pc as usize, raw, ivar) != Some(0) {
        return Err("clone guard does not test the induction variable".into());
    }
    if let Operand::Slot(bs) = bound {
        if ck.an.loop_p_defs(ck.l, lp, bs).next().is_some() {
            return Err("bound slot is redefined inside the clone".into());
        }
    }
    // --- The guard region -------------------------------------------------
    // It must be a contiguous whitelisted run ending in `Br clone_header`,
    // every conditional bailing to the same place outside the clone, with
    // no definitions of the certified slots.
    let gs = guard_start as usize;
    let cfg = &ck.an.cfg;
    let clone_header = cfg.ranges[lp.header].0 as u32;
    let mut orig: Option<u32> = None;
    let mut end: Option<usize> = None;
    for j in gs..ck.l.code.len() {
        let inst = &ck.l.code[j];
        if !guard_whitelisted(inst) {
            return Err("guard region contains a non-whitelisted instruction".into());
        }
        let def = inst.def();
        if def == Some(DstSlot::P(ivar)) || def == Some(DstSlot::R(arr)) {
            return Err("guard region redefines a certified slot".into());
        }
        if let Operand::Slot(bs) = bound {
            if def == Some(DstSlot::P(bs)) {
                return Err("guard region redefines the bound slot".into());
            }
        }
        match inst {
            RInst::BrCmp { t, .. } => match orig {
                None => orig = Some(*t),
                Some(o) if o == *t => {}
                Some(_) => return Err("guard checks bail to different targets".into()),
            },
            RInst::Br { t } => {
                if *t != clone_header {
                    return Err("guard does not enter the clone header".into());
                }
                end = Some(j);
                break;
            }
            _ => {}
        }
    }
    let end = end.ok_or("guard region has no terminating branch")?;
    let orig = orig.ok_or("guard region has no bail-out checks")?;
    if lp.contains(cfg.block_of(orig)) {
        return Err("guard bail-out lands inside the clone".into());
    }
    // Only the guard's final `Br` may enter the clone from outside.
    for b in (0..cfg.ranges.len()).filter(|&b| !lp.contains(b)) {
        for &s in cfg.succs(b).iter().filter(|&&s| lp.contains(s)) {
            if s != lp.header || cfg.ranges[b].1 != end + 1 {
                return Err("clone is reachable without passing the guard".into());
            }
        }
    }
    // --- The three checks --------------------------------------------------
    let within = |p: u32| (p as usize) >= gs && (p as usize) < end;
    if !within(null_check_pc) || !within(lo_check_pc) || !within(len_check_pc) {
        return Err("certified check pcs fall outside the guard region".into());
    }
    // Null check: `tz = (arr == null); if (tz != 0) goto orig`.
    let ncp = null_check_pc as usize;
    let RInst::CmpRef { op: CmpOp::Eq, dst: tz, a: na, b: nb } = ck.l.code[ncp] else {
        return Err("null check is not a reference equality".into());
    };
    let null_ok = |s: u16| {
        matches!(ck.defs().r_sites(s), [d] if matches!(ck.l.code[*d as usize], RInst::ConstNull { .. }))
    };
    if !((na == arr && null_ok(nb)) || (nb == arr && null_ok(na))) {
        return Err("null check does not test the guarded array".into());
    }
    match ck.l.code.get(ncp + 1) {
        Some(RInst::BrCmp { op: CmpOp::Ne, ty: NumTy::I4, a, b: Operand::Imm(0), t })
            if *a == tz && *t == orig => {}
        _ => return Err("null check does not bail to the original loop".into()),
    }
    if ck.defs().p_sites(tz).len() != 1 {
        return Err("null-check temp has extra definitions".into());
    }
    // Lower-bound check: `if (ivar < 0) goto orig`.
    match ck.l.code.get(lo_check_pc as usize) {
        Some(RInst::BrCmp { op: CmpOp::Lt, ty: NumTy::I4, a, b: Operand::Imm(0), t })
            if *a == ivar && *t == orig => {}
        _ => return Err("entry lower-bound check missing or malformed".into()),
    }
    // Length check: `tl = len(arr); if (bound > tl) goto orig` (slot
    // bound) or `if (tl < c) goto orig` (immediate bound).
    let lcp = len_check_pc as usize;
    let RInst::LdLen { arr: larr, dst: tl } = ck.l.code[lcp] else {
        return Err("length check does not load the array length".into());
    };
    if larr != arr {
        return Err("length check reads a different array".into());
    }
    if ck.defs().p_sites(tl).len() != 1 {
        return Err("length temp has extra definitions".into());
    }
    let len_ok = match (ck.l.code.get(lcp + 1), bound) {
        (
            Some(RInst::BrCmp { op: CmpOp::Gt, ty: NumTy::I4, a, b: Operand::Slot(s), t }),
            Operand::Slot(bs),
        ) => *a == bs && *s == tl && *t == orig,
        (
            Some(RInst::BrCmp { op: CmpOp::Lt, ty: NumTy::I4, a, b: Operand::Imm(c), t }),
            Operand::Imm(bc),
        ) => *a == tl && *c == bc && *t == orig,
        _ => false,
    };
    if !len_ok {
        return Err("length check does not bound the loop's limit".into());
    }
    // Interval: guard gives ivar >= 0 on entry and bound <= len(arr);
    // the clone's strict header guard keeps ivar < bound <= len(arr) on
    // every covered path, and increments only grow ivar. The index equals
    // ivar, so it stays inside [0, len).
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rir::{ArgSlot, DstSlot};
    use hpcnet_cil::ElemKind;

    fn lowered(code: Vec<RInst>, certs: Vec<ElisionCert>) -> Lowered {
        Lowered {
            code,
            eh: Vec::new(),
            eh_exc_vregs: Vec::new(),
            arg_locs: Vec::new(),
            n_pvreg: 16,
            n_rvreg: 4,
            certs,
        }
    }

    /// `for (i = 0; i < a.Length; i++) a[i] = i;` in RIR, with the store
    /// elided and certified.
    fn counted_loop(mechanism: BoundsMode, cert: ElisionCert) -> Lowered {
        lowered(
            vec![
                // 0: i = 0
                RInst::ConstP { dst: 0, bits: 0 },
                // 1: len = a.Length   (header)
                RInst::LdLen { arr: 0, dst: 1 },
                // 2: if i >= len goto 6
                RInst::BrCmp { op: CmpOp::Ge, ty: NumTy::I4, a: 0, b: Operand::Slot(1), t: 6 },
                // 3: a[i] = i (elided)
                RInst::StElem {
                    kind: ElemKind::I4,
                    arr: 0,
                    idx: 0,
                    src: ArgSlot::P(NumTy::I4, 0),
                    bounds: mechanism,
                },
                // 4: i = i + 1
                RInst::Bin { op: BinOp::Add, ty: NumTy::I4, dst: 0, a: 0, b: Operand::Imm(1) },
                // 5: goto 1
                RInst::Br { t: 1 },
                // 6: ret
                RInst::Ret { src: None },
            ],
            vec![cert],
        )
    }

    fn good_loop_cert() -> ElisionCert {
        ElisionCert {
            pc: 3,
            mechanism: BoundsMode::ElidedIdiom,
            kind: CertKind::Loop {
                guard_pc: 2,
                ivar: 0,
                offset: 0,
                entry_lo: 0,
                sup_arr: 0,
                sup_off: -1,
            },
        }
    }

    #[test]
    fn valid_loop_certificate_passes() {
        let l = counted_loop(BoundsMode::ElidedIdiom, good_loop_cert());
        assert_eq!(check(&l), Ok(()));
    }

    #[test]
    fn tampered_offset_is_rejected() {
        // Claiming the index is `i + 1` when the code reads `a[i]` must
        // fail: the checker re-derives the affine offset.
        let mut cert = good_loop_cert();
        if let CertKind::Loop { offset, .. } = &mut cert.kind {
            *offset = 1;
        }
        let l = counted_loop(BoundsMode::ElidedIdiom, cert.clone());
        let msg = check(&l).unwrap_err();
        assert!(msg.contains("offset"), "{msg}");
        assert!(msg.contains(&format!("{cert:?}")), "the message names the certificate: {msg}");
    }

    #[test]
    fn unsound_interval_is_rejected() {
        // An index that can reach `len(a)` must fail the interval check
        // even if every structural fact matches: here the access really
        // is `a[i+1]` and a certificate honestly describing it cannot
        // prove it in range.
        let mut l = counted_loop(BoundsMode::ElidedIdiom, good_loop_cert());
        // Rewrite the access to a[i+1] via a temp, and the cert to match.
        l.code[3] = RInst::StElem {
            kind: ElemKind::I4,
            arr: 0,
            idx: 2,
            src: ArgSlot::P(NumTy::I4, 0),
            bounds: BoundsMode::ElidedIdiom,
        };
        l.code.insert(3, RInst::Bin {
            op: BinOp::Add,
            ty: NumTy::I4,
            dst: 2,
            a: 0,
            b: Operand::Imm(1),
        });
        // Fix branch targets after the insertion.
        l.code[2].set_target(7);
        l.code[6].set_target(1);
        l.certs[0] = ElisionCert {
            pc: 4,
            mechanism: BoundsMode::ElidedIdiom,
            kind: CertKind::Loop {
                guard_pc: 2,
                ivar: 0,
                offset: 1,
                entry_lo: 0,
                sup_arr: 0,
                sup_off: -1,
            },
        };
        assert!(check(&l).unwrap_err().contains("upper bound"));
    }

    #[test]
    fn missing_certificate_is_rejected() {
        let mut l = counted_loop(BoundsMode::ElidedIdiom, good_loop_cert());
        l.certs.clear();
        assert!(check(&l).unwrap_err().contains("no certificate"));
    }

    #[test]
    fn certificate_without_elision_is_rejected() {
        let mut l = counted_loop(BoundsMode::ElidedIdiom, good_loop_cert());
        if let RInst::StElem { bounds, .. } = &mut l.code[3] {
            *bounds = BoundsMode::Checked;
        }
        assert!(check(&l).unwrap_err().contains("no matching"));
    }

    #[test]
    fn mutated_bound_is_rejected() {
        // Same loop but with the guard comparing against a plain local
        // that is NOT the array length — the cert's sup claim must fail.
        let l = lowered(
            vec![
                RInst::ConstP { dst: 0, bits: 0 },
                RInst::ConstP { dst: 1, bits: 100 },
                // header
                RInst::BrCmp { op: CmpOp::Ge, ty: NumTy::I4, a: 0, b: Operand::Slot(1), t: 6 },
                RInst::StElem {
                    kind: ElemKind::I4,
                    arr: 0,
                    idx: 0,
                    src: ArgSlot::P(NumTy::I4, 0),
                    bounds: BoundsMode::ElidedRange,
                },
                RInst::Bin { op: BinOp::Add, ty: NumTy::I4, dst: 0, a: 0, b: Operand::Imm(1) },
                RInst::Br { t: 2 },
                RInst::Ret { src: None },
            ],
            vec![ElisionCert {
                pc: 3,
                mechanism: BoundsMode::ElidedRange,
                kind: CertKind::Loop {
                    guard_pc: 2,
                    ivar: 0,
                    offset: 0,
                    entry_lo: 0,
                    sup_arr: 0,
                    sup_off: -1,
                },
            }],
        );
        assert!(check(&l).unwrap_err().contains("bound"));
    }

    #[test]
    fn block_guard_certificate_checks_counter_shape() {
        let mut l = counted_loop(BoundsMode::ElidedIdiom, ElisionCert {
            pc: 3,
            mechanism: BoundsMode::ElidedIdiom,
            kind: CertKind::BlockGuard { guard_pc: 2, ivar: 0, arr: 0 },
        });
        assert_eq!(check(&l), Ok(()));
        // Taint the counter with a non-increment definition.
        l.code.push(RInst::Nop);
        l.code[7] = RInst::ConstP { dst: 0, bits: 5 };
        assert!(check(&l).unwrap_err().contains("non-increment"));
    }

    #[test]
    fn loads_use_dst_elided_certs_too() {
        // An elided LdElem is matched by pc exactly like a store.
        let mut l = counted_loop(BoundsMode::ElidedIdiom, good_loop_cert());
        l.code[3] = RInst::LdElem {
            kind: ElemKind::I4,
            arr: 0,
            idx: 0,
            dst: DstSlot::P(3),
            bounds: BoundsMode::ElidedIdiom,
        };
        assert_eq!(check(&l), Ok(()));
    }

    /// Variants of a certificate that cite other real instructions or
    /// shifted interval facts — some still sound, most not.
    fn mutations(l: &Lowered, c: &ElisionCert) -> Vec<ElisionCert> {
        let other_guards = l
            .code
            .iter()
            .enumerate()
            .filter(|(_, i)| matches!(i, RInst::BrCmp { ty: NumTy::I4, .. }))
            .map(|(pc, _)| pc as u32)
            .take(8);
        let mut out = Vec::new();
        let mut with = |kind: CertKind| out.push(ElisionCert { kind, ..c.clone() });
        match c.kind.clone() {
            CertKind::BlockGuard { ivar, arr, .. } => {
                for guard_pc in other_guards {
                    with(CertKind::BlockGuard { guard_pc, ivar, arr });
                }
                with(CertKind::BlockGuard { guard_pc: 0, ivar: ivar + 1, arr });
            }
            CertKind::Loop { guard_pc, ivar, offset, entry_lo, sup_arr, sup_off } => {
                for g in other_guards {
                    with(CertKind::Loop { guard_pc: g, ivar, offset, entry_lo, sup_arr, sup_off });
                }
                for (d_off, d_lo, d_sup) in [(1, 0, 0), (-1, 0, 0), (0, -1, 0), (0, 1, 0), (0, 0, 1)] {
                    with(CertKind::Loop {
                        guard_pc,
                        ivar,
                        offset: offset + d_off,
                        entry_lo: entry_lo + d_lo,
                        sup_arr,
                        sup_off: sup_off + d_sup,
                    });
                }
            }
            CertKind::Versioned {
                guard_start,
                guard_pc,
                ivar,
                arr,
                null_check_pc,
                lo_check_pc,
                len_check_pc,
            } => {
                for (null_check_pc, lo_check_pc, len_check_pc) in [
                    (lo_check_pc, null_check_pc, len_check_pc),
                    (null_check_pc, len_check_pc, lo_check_pc),
                    (null_check_pc, lo_check_pc, null_check_pc),
                ] {
                    with(CertKind::Versioned {
                        guard_start,
                        guard_pc,
                        ivar,
                        arr,
                        null_check_pc,
                        lo_check_pc,
                        len_check_pc,
                    });
                }
                with(CertKind::Versioned {
                    guard_start: guard_start + 1,
                    guard_pc,
                    ivar,
                    arr,
                    null_check_pc,
                    lo_check_pc,
                    len_check_pc,
                });
            }
        }
        out
    }

    #[test]
    fn one_certificate_checks_agree_with_the_whole_method_audit_on_the_corpus() {
        // The optimizer commits elisions on `check_cert`'s word; the
        // end-of-pipeline judge is `check`. On every reproducer in
        // conform/corpus/ the two must give the same verdict certificate
        // by certificate — for the certificates the optimizer issued and
        // for tampered variants of each.
        use crate::profile::VmProfile;
        use crate::rir::{lower, opt};
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../conform/corpus");
        let mut sources: Vec<_> = std::fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "cs"))
            .collect();
        sources.sort();
        assert!(!sources.is_empty());
        let (mut issued, mut accepted, mut rejected) = (0, 0, 0);
        for path in sources {
            let src = std::fs::read_to_string(&path).unwrap();
            let module = hpcnet_minics::compile(&src).unwrap();
            for profile in [VmProfile::clr11(), VmProfile::jvm_ibm131()] {
                let vm = crate::Vm::new(module.clone(), profile).unwrap();
                for m in (0..vm.module.methods.len() as u32).map(hpcnet_cil::MethodId) {
                    if vm.module.method(m).body.code.is_empty() {
                        continue;
                    }
                    let mut l =
                        lower::lower(&vm, m, profile.passes.inline, 0, &mut opt::Scratch::default())
                            .unwrap();
                    opt::optimize(&profile.passes, &mut l, &vm.observer, &mut opt::Scratch::default());
                    assert_eq!(check(&l), Ok(()), "{}", path.display());
                    let an = Analysis::new(&l);
                    for (i, cert) in l.certs.iter().enumerate() {
                        issued += 1;
                        assert_eq!(check_cert(&l, &an, cert), Ok(()));
                        for variant in mutations(&l, cert) {
                            let mut tampered = l.clone();
                            tampered.certs[i] = variant.clone();
                            let one = check_cert(&tampered, &an, &variant);
                            let whole = check(&tampered);
                            assert_eq!(
                                one.is_ok(),
                                whole.is_ok(),
                                "{} {variant:?}: {one:?} vs {whole:?}",
                                path.display()
                            );
                            if one.is_ok() {
                                accepted += 1;
                            } else {
                                rejected += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(issued >= 10, "the corpus yields only {issued} certificates");
        assert!(rejected > issued, "tampering must mostly be caught ({rejected} of {issued})");
        assert!(accepted > 0, "some variants (a weaker entry bound) stay sound");
    }
}
