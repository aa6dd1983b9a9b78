//! RIR optimization passes.
//!
//! Each pass corresponds to a codegen capability the paper attributes to a
//! specific JIT (see [`crate::profile`]). Passes run under the profile's
//! [`PassConfig`]; Mono 0.23 runs none of them and keeps the naive lowering.
//! Their output still holds virtual registers: `rir::alloc` places them,
//! honoring the force-spill set the pipeline returns.

use crate::machine::Vm;
use crate::observe::{Compile, JitOutcome, LoopRejectReason, Observer, VmPhase};
use crate::profile::PassConfig;
use crate::rir::audit::{self, CertKind, ElisionCert};
use crate::rir::loops::{has_back_branch, leader_mask, Analysis, Cfg, NaturalLoop};
use crate::rir::lower::Lowered;
use crate::rir::{BoundsMode, DstSlot, Operand, RInst, RirMethod, SlotRole};
use hpcnet_cil::module::MethodId;
use hpcnet_cil::{BinOp, CmpOp, NumTy, UnOp};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;

/// What the pass pipeline did to a method, before allocation: the partial
/// [`JitOutcome`] (enreg/spill filled in after allocation), the
/// loop-rejection trace, and the force-spill set `rir::alloc` must honor.
pub(crate) struct OptResult {
    pub outcome: JitOutcome,
    pub rejections: Vec<(u32, LoopRejectReason)>,
    pub force_spill_p: HashSet<u16>,
}

/// The analysis context of one *structural version* of a method: the
/// shared [`Analysis`] (blocks, dominators, loops, definition sites) plus
/// the pass-side block-local fact scan, computed on first use.
///
/// Flipping a [`BoundsMode`] changes neither, so every flag-flipping pass
/// over the same code (structural BCE; idiom ABCE and range ABCE) shares
/// one context and verifies each candidate against it with
/// [`audit::check_cert`]. A pass that inserts, deletes or moves
/// instructions must call [`MethodCtx::rebuild`] before anyone looks at
/// the context again — there is no implicit staleness check.
///
/// The context holds the compile's [`Scratch`] while the loop passes run:
/// its partition and fact tables are drawn from it and go back to it when
/// the code moves on to its next version.
pub(crate) struct MethodCtx {
    pub an: Analysis,
    facts: Option<LoopFacts>,
    scratch: Scratch,
}

impl MethodCtx {
    fn new(l: &Lowered, mut scratch: Scratch) -> MethodCtx {
        let cfg = Cfg::build_in(l, &mut scratch);
        MethodCtx::with_cfg(cfg, scratch)
    }

    fn with_cfg(cfg: Cfg, scratch: Scratch) -> MethodCtx {
        MethodCtx { an: Analysis::with_cfg(cfg), facts: None, scratch }
    }

    /// The code moved: analyze the new structural version.
    fn rebuild(&mut self, l: &Lowered) {
        let scratch = std::mem::take(&mut self.scratch);
        let old = std::mem::replace(self, MethodCtx::new(l, scratch));
        old.recycle(&mut self.scratch);
    }

    /// Give the partition and facts back to `scratch`.
    fn recycle(self, scratch: &mut Scratch) {
        self.an.cfg.recycle(scratch);
        if let Some(f) = self.facts {
            f.recycle(scratch);
        }
    }

    /// Done with this version: its partition, and the compile's scratch
    /// with the version's facts given back to it.
    fn finish(self) -> (Cfg, Scratch) {
        let MethodCtx { an, facts, mut scratch } = self;
        if let Some(f) = facts {
            f.recycle(&mut scratch);
        }
        (an.cfg, scratch)
    }

    /// Done with the loop passes: the compile's scratch back, with this
    /// version's tables in it.
    fn into_scratch(self) -> Scratch {
        let (cfg, mut scratch) = self.finish();
        cfg.recycle(&mut scratch);
        scratch
    }

    /// The analysis together with the block-local facts of `l`, which
    /// must be the code this context was built for.
    pub fn facts(&mut self, l: &Lowered) -> (&Analysis, &LoopFacts) {
        let (an, scratch) = (&self.an, &mut self.scratch);
        (an, self.facts.get_or_insert_with(|| scan_facts(l, an, scratch)))
    }
}

/// Run a pass configuration over lowered code in place. Both register
/// tiers share this pipeline and hand its result to `rir::alloc`, which
/// ranks by use count on [`crate::profile::Tier::Rir`] and by linear scan
/// on [`crate::profile::Tier::Compiled`] — so a pass combination means the
/// same thing on either tier.
///
/// The code goes through a short series of structural versions, each
/// analyzed at most once — one [`MethodCtx`] per version, nothing per
/// candidate or per hoisted loop — and only as far as its passes read:
///
/// * the lowered body (scalar passes; they rewrite and blank instructions
///   but move none): one block partition. Structural BCE, when the method
///   has an element access, adds definition sites and one fact scan; it
///   never asks for dominators or loops.
/// * the compacted body (idiom ABCE, range ABCE, the first LICM round),
///   only when a branch goes backward: a block partition and the natural
///   loops. With no loop the tier stops there; otherwise the definition
///   sites and one fact scan follow.
/// * the body after the LICM round that hoisted something — one round
///   hoists every loop it can, so there is usually one such body: a
///   block partition, then loop versioning's loops, definition sites and
///   fact scan.
/// * the body after each applied versioning plan, analyzed by the
///   whole-method audit alone.
///
/// This is a pure function of `(passes, l)`: per-VM counters are applied
/// separately by [`apply_outcome_counters`] so the result can be memoized
/// across engines (see [`crate::rir::share`]). `obs` only times each pass
/// as its own [`VmPhase`] (at `Trace`; below it no clock is read).
pub(crate) fn optimize(
    passes: &PassConfig,
    l: &mut Lowered,
    obs: &Observer,
    scratch: &mut Scratch,
) -> OptResult {
    let passes = *passes;
    let mut outcome = JitOutcome::default();
    scalar_passes(&passes, l, &mut outcome, obs, scratch);
    timed(obs, VmPhase::OptCompact, || {
        let mut new_idx = scratch.u32s.take();
        compact(l, &mut new_idx);
        scratch.u32s.give(new_idx);
    });
    // The loop-aware tier runs on compacted code (shuffle moves already
    // erased by copy-prop + DCE), where the guard compare reads the named
    // locals directly.
    let rejections = if (passes.bce || passes.licm) && has_back_branch(l) {
        loop_passes(&passes, l, &mut outcome, obs, scratch)
    } else {
        Vec::new()
    };
    let force_spill_p = if passes.div_const_temp_quirk {
        timed(obs, VmPhase::OptDivQuirk, || apply_div_const_quirk(l))
    } else {
        HashSet::new()
    };
    OptResult { outcome, rejections, force_spill_p }
}

/// The loop-aware tier: idiom ABCE, range ABCE, LICM, then versioning.
/// Each works loop by loop, so after counting the natural loops a method
/// without one is done. Returns the loops ABCE rejected.
fn loop_passes(
    passes: &PassConfig,
    l: &mut Lowered,
    outcome: &mut JitOutcome,
    obs: &Observer,
    scratch: &mut Scratch,
) -> Vec<(u32, LoopRejectReason)> {
    let mut ctx = timed(obs, VmPhase::OptAnalyze, || {
        let ctx = MethodCtx::new(l, std::mem::take(scratch));
        outcome.loops_found = ctx.an.loops(l).len() as u64;
        ctx
    });
    if outcome.loops_found == 0 {
        *scratch = ctx.into_scratch();
        return Vec::new();
    }
    let mut rejections = Vec::new();
    if passes.bce {
        let (n, rej) = timed(obs, VmPhase::OptAbce, || loop_aware_bce(l, &mut ctx));
        outcome.abce_removed = n;
        rejections = rej;
        outcome.range_removed =
            timed(obs, VmPhase::OptRangeAbce, || crate::rir::range::range_abce(l, &mut ctx));
    }
    if passes.licm {
        outcome.licm_hoisted =
            timed(obs, VmPhase::OptLicm, || loop_invariant_code_motion(l, &mut ctx));
    }
    if passes.bce {
        let (n, lv) =
            timed(obs, VmPhase::OptVersion, || crate::rir::range::version_loops(l, &mut ctx));
        outcome.versioned_removed = n;
        outcome.loops_versioned = lv;
    }
    *scratch = ctx.into_scratch();
    rejections
}

/// Run one pass as `phase`.
fn timed<R>(obs: &Observer, phase: VmPhase, pass: impl FnOnce() -> R) -> R {
    let t = obs.phase_start();
    let r = pass();
    obs.phase_end(phase, t);
    r
}

/// The passes that run on the lowered body before compaction. None of
/// them changes a branch, a terminator or an instruction's position
/// (folding rewrites in place, DCE blanks to `Nop`), so one block
/// partition serves them all.
fn scalar_passes(
    passes: &PassConfig,
    l: &mut Lowered,
    outcome: &mut JitOutcome,
    obs: &Observer,
    scratch: &mut Scratch,
) {
    let any = passes.propagate || passes.mul_strength_reduction || passes.bce;
    if !any || l.code.is_empty() {
        return;
    }
    let mut cfg = timed(obs, VmPhase::OptAnalyze, || Cfg::build_in(l, scratch));
    if passes.propagate {
        timed(obs, VmPhase::OptPropagate, || {
            const_and_copy_prop(l, &cfg, passes.imm_fusion, scratch)
        });
    }
    if passes.mul_strength_reduction {
        timed(obs, VmPhase::OptStrength, || strength_reduce(l, &cfg));
    }
    if passes.bce && l.code.iter().any(|i| i.bounds().is_some()) {
        cfg = timed(obs, VmPhase::OptBce, || {
            let mut ctx = MethodCtx::with_cfg(cfg, std::mem::take(scratch));
            outcome.bce_removed = eliminate_bounds_checks(l, &mut ctx);
            let (cfg, lent) = ctx.finish();
            *scratch = lent;
            cfg
        });
    }
    if passes.propagate {
        timed(obs, VmPhase::OptDce, || dead_code_elim(l, &cfg, scratch));
    }
    cfg.recycle(scratch);
}

/// Apply one compile's pass outcome to a VM's counters. Split out of
/// [`optimize`] so a memoized front half (cache hit) bumps the consuming
/// VM's counters exactly as a fresh compile would.
pub(crate) fn apply_outcome_counters(vm: &Vm, o: &JitOutcome) {
    let c = &vm.counters;
    c.bce_elided_idiom.fetch_add(o.bce_removed + o.abce_removed, Ordering::Relaxed);
    c.bce_elided_range.fetch_add(o.range_removed, Ordering::Relaxed);
    c.bce_elided_versioned.fetch_add(o.versioned_removed, Ordering::Relaxed);
    c.loops_versioned.fetch_add(o.loops_versioned, Ordering::Relaxed);
    c.loops_found.fetch_add(o.loops_found, Ordering::Relaxed);
    c.licm_hoisted.fetch_add(o.licm_hoisted, Ordering::Relaxed);
}

/// Record a finished method's compile: its outcome with the allocator's
/// enreg/spill split folded in, plus any loop rejections. Both tiers call
/// this after allocation.
pub(crate) fn record_compile(vm: &Vm, method: MethodId, compiled: &RirMethod, opt: &OptResult) {
    if !vm.observer.tracing() {
        return;
    }
    let mut outcome = opt.outcome;
    outcome.rir_len = compiled.code.len() as u64;
    outcome.enreg_prim = compiled.n_preg.into();
    outcome.spill_prim = compiled.n_pspill.into();
    outcome.enreg_ref = compiled.n_rreg.into();
    outcome.spill_ref = compiled.n_rspill.into();
    let loop_rejections = opt.rejections.clone();
    vm.observer.record_compile(method, Compile { outcome, loop_rejections });
}

/// The working tables of one compile, lent to each pass and walk in turn
/// instead of each allocating its own. [`crate::rir::compile::compile`]
/// makes one per compile and drops it with the compile, so nothing in it
/// outlives one. Every table is handed over empty, or is refilled only
/// up to the size of the method at hand, so a small method never clears
/// a table sized for a large one.
///
/// Per-pc, per-block and per-vreg tables go back to the typed spares
/// below when their pass is done, so the next pass of the same compile —
/// whatever it is — reuses them.
#[derive(Default)]
pub(crate) struct Scratch {
    /// Constant and copy propagation's block-local facts.
    pconst: BlockFacts<u64>,
    pcopy: OriginFacts,
    rcopy: OriginFacts,
    /// The fact scan's induction and length origins.
    incof: OriginFacts,
    lenof: OriginFacts,
    global_lenof: Vec<Option<u16>>,
    u64s: Spares<u64>,
    pub(crate) u32s: Spares<u32>,
    pub(crate) u16s: Spares<u16>,
    pub(crate) usizes: Spares<usize>,
    pub(crate) bools: Spares<bool>,
    pub(crate) ranges: Spares<(usize, usize)>,
    pub(crate) succs: Spares<([usize; 2], u8)>,
    /// The fact scan's per-pc accesses and per-block end constants.
    accesses: Spares<Option<(u16, u16)>>,
    end_consts: Spares<(u16, u64)>,
    /// DCE's per-instruction use ranges.
    inst_uses: Vec<(u32, u32)>,
    /// Register placement's tables (`rir::alloc`).
    pub(crate) place: crate::rir::alloc::Tables,
}

/// Spare vectors of one element type: handed out empty or filled, and
/// given back when their user is done. A handful of slots, held inline,
/// so keeping a spare allocates nothing.
pub(crate) struct Spares<T>([Vec<T>; 6]);

impl<T> Default for Spares<T> {
    fn default() -> Self {
        Spares(std::array::from_fn(|_| Vec::new()))
    }
}

impl<T: Clone> Spares<T> {
    /// An empty vector: the roomiest spare (a new one when there is none).
    pub fn take(&mut self) -> Vec<T> {
        let roomiest = self.0.iter_mut().max_by_key(|v| v.capacity());
        roomiest.map(std::mem::take).unwrap_or_default()
    }

    /// `n` copies of `x`: time proportional to `n`, not to what a larger
    /// method left in the spare.
    pub fn filled(&mut self, n: usize, x: T) -> Vec<T> {
        let mut v = self.take();
        v.resize(n, x);
        v
    }

    /// Keep `v` for a later user, in place of the smallest spare.
    pub fn give(&mut self, mut v: Vec<T>) {
        v.clear();
        let smallest = self.0.iter_mut().min_by_key(|v| v.capacity());
        if let Some(slot) = smallest.filter(|s| s.capacity() < v.capacity()) {
            *slot = v;
        }
    }
}

/// `v` emptied and refilled with `n` copies of `x`: time proportional to
/// `n`, not to what a larger method left in it.
pub(crate) fn refill<T: Clone>(v: &mut Vec<T>, n: usize, x: T) -> &mut Vec<T> {
    v.clear();
    v.resize(n, x);
    v
}

/// Block-local facts about virtual registers: a dense table, indexed by
/// vreg, that is emptied at every block boundary in time proportional to
/// what the block put in it.
struct BlockFacts<T> {
    slot: Vec<Option<T>>,
    /// Every vreg set since the last drain (a vreg forgotten and set again
    /// appears twice; the drain skips the emptied slot).
    touched: Vec<u16>,
}

impl<T> Default for BlockFacts<T> {
    fn default() -> Self {
        BlockFacts { slot: Vec::new(), touched: Vec::new() }
    }
}

impl<T: Copy> BlockFacts<T> {
    /// Make room for `n_vregs` vregs in an empty table; a table left
    /// larger by an earlier method keeps its size (its slots are empty).
    fn fit(&mut self, n_vregs: u16) -> &mut Self {
        debug_assert!(self.touched.is_empty(), "a lent table comes back empty");
        if self.slot.len() < n_vregs as usize {
            self.slot.resize(n_vregs as usize, None);
        }
        self
    }

    fn get(&self, v: u16) -> Option<T> {
        self.slot[v as usize]
    }

    fn set(&mut self, v: u16, fact: T) {
        if self.slot[v as usize].replace(fact).is_none() {
            if self.touched.capacity() == 0 {
                // A block sets each vreg about once: room for that at once.
                self.touched.reserve(self.slot.len());
            }
            self.touched.push(v);
        }
    }

    fn forget(&mut self, v: u16) {
        self.slot[v as usize] = None;
    }

    /// Block boundary: hand every fact still held to `f` and forget it.
    fn drain(&mut self, mut f: impl FnMut(u16, T)) {
        for v in self.touched.drain(..) {
            if let Some(fact) = self.slot[v as usize].take() {
                f(v, fact);
            }
        }
    }

    fn clear(&mut self) {
        self.drain(|_, _| {});
    }
}

/// Block-local facts of the form "`v` currently equals (something about)
/// vreg `o`", which die when `o` is redefined. Instead of sweeping the
/// table on every definition, each fact records `o`'s definition count
/// at the time it was learned and is ignored once that count has moved.
#[derive(Default)]
struct OriginFacts {
    facts: BlockFacts<(u16, u32)>,
}

impl OriginFacts {
    /// See [`BlockFacts::fit`].
    fn fit(&mut self, n_vregs: u16) -> &mut Self {
        self.facts.fit(n_vregs);
        self
    }

    /// The origin recorded for `v`, if it has not been redefined since.
    fn get(&self, v: u16, origin_defs: &[u32]) -> Option<u16> {
        self.facts
            .get(v)
            .filter(|&(o, at)| origin_defs[o as usize] == at)
            .map(|(o, _)| o)
    }

    fn set(&mut self, v: u16, origin: u16, origin_defs: &[u32]) {
        self.facts.set(v, (origin, origin_defs[origin as usize]));
    }

    fn forget(&mut self, v: u16) {
        self.facts.forget(v);
    }

    fn clear(&mut self) {
        self.facts.clear();
    }
}

/// Combined local (per basic block) constant and copy propagation.
///
/// * copies: after `mov d, s`, uses of `d` read `s` directly;
/// * constants: after `mov d, #k`, `d` is known; const-const operations
///   fold, and with `imm_fusion` a known right operand becomes an
///   immediate (IBM's "constants throughout the loop").
fn const_and_copy_prop(l: &mut Lowered, cfg: &Cfg, imm_fusion: bool, scratch: &mut Scratch) {
    let pconst = scratch.pconst.fit(l.n_pvreg);
    let pcopy = scratch.pcopy.fit(l.n_pvreg);
    let rcopy = scratch.rcopy.fit(l.n_rvreg);
    let pdefs = &mut scratch.u32s.filled(l.n_pvreg as usize, 0);
    let rdefs = &mut scratch.u32s.filled(l.n_rvreg as usize, 0);

    for &(start, end) in &cfg.ranges {
        pconst.clear();
        pcopy.clear();
        rcopy.clear();
        for i in start..end {
            // Rewrite uses through the copy maps.
            let mut def = None;
            l.code[i].slots_mut(|role, v| match role {
                SlotRole::UseP => *v = pcopy.get(*v, pdefs).unwrap_or(*v),
                SlotRole::UseR => *v = rcopy.get(*v, rdefs).unwrap_or(*v),
                SlotRole::DefP => def = Some(DstSlot::P(*v)),
                SlotRole::DefR => def = Some(DstSlot::R(*v)),
            });
            // Constant folding / fusion, which keeps the destination.
            if let Some(new) = fold_inst(&l.code[i], pconst, imm_fusion) {
                l.code[i] = new;
            }
            // Update the dataflow state from the (possibly rewritten) inst.
            let inst = &l.code[i];
            match def {
                Some(DstSlot::P(d)) => {
                    pconst.forget(d);
                    pcopy.forget(d);
                    pdefs[d as usize] += 1;
                }
                Some(DstSlot::R(d)) => {
                    rcopy.forget(d);
                    rdefs[d as usize] += 1;
                }
                None => {}
            }
            match inst {
                RInst::ConstP { dst, bits } => pconst.set(*dst, *bits),
                RInst::MovP { dst, src } if dst != src => {
                    if let Some(c) = pconst.get(*src) {
                        pconst.set(*dst, c);
                    }
                    // Canonicalize toward the lower-numbered vreg: arguments
                    // and locals precede stack cells, so facts about named
                    // variables (e.g. the BCE length idiom) survive the
                    // store-to-local direction too.
                    if dst < src {
                        pcopy.set(*src, *dst, pdefs);
                    } else {
                        pcopy.set(*dst, *src, pdefs);
                    }
                }
                RInst::MovR { dst, src } if dst != src => {
                    if dst < src {
                        rcopy.set(*src, *dst, rdefs);
                    } else {
                        rcopy.set(*dst, *src, rdefs);
                    }
                }
                _ => {}
            }
        }
    }
    // The tables go back empty.
    pconst.clear();
    pcopy.clear();
    rcopy.clear();
    scratch.u32s.give(std::mem::take(pdefs));
    scratch.u32s.give(std::mem::take(rdefs));
}

/// Fold one instruction against the known-constant map.
fn fold_inst(inst: &RInst, pconst: &BlockFacts<u64>, imm_fusion: bool) -> Option<RInst> {
    let known = |s: &u16| pconst.get(*s);
    match inst {
        RInst::MovP { dst, src } => known(src).map(|bits| RInst::ConstP { dst: *dst, bits }),
        RInst::Bin { op, ty, dst, a, b } => {
            let bval = match b {
                Operand::Imm(v) => Some(*v),
                Operand::Slot(s) => known(s),
            };
            if let (Some(av), Some(bv)) = (known(a), bval) {
                // Fold fully-constant operations (but never fold a trap).
                if let Some(bits) = eval_bin(*op, *ty, av, bv) {
                    return Some(RInst::ConstP { dst: *dst, bits });
                }
            }
            if imm_fusion {
                if let (Operand::Slot(_), Some(bv)) = (b, bval) {
                    return Some(RInst::Bin {
                        op: *op,
                        ty: *ty,
                        dst: *dst,
                        a: *a,
                        b: Operand::Imm(bv),
                    });
                }
            }
            None
        }
        RInst::Un { op, ty, dst, a } => known(a).and_then(|av| {
            eval_un(*op, *ty, av).map(|bits| RInst::ConstP { dst: *dst, bits })
        }),
        RInst::Conv { from, to, dst, src } => known(src).map(|bits| RInst::ConstP {
            dst: *dst,
            bits: crate::numerics::conv_bits(*from, *to, bits),
        }),
        RInst::Cmp { op, ty, dst, a, b } => {
            let bval = match b {
                Operand::Imm(v) => Some(*v),
                Operand::Slot(s) => known(s),
            };
            if let (Some(av), Some(bv)) = (known(a), bval) {
                return Some(RInst::ConstP {
                    dst: *dst,
                    bits: crate::numerics::cmp_bits(*op, *ty, av, bv) as u32 as u64,
                });
            }
            // Compare immediates exist on every target (`cmp r, imm`);
            // they are fused whenever constants are known, independent of
            // general-operand fusion.
            if let (Operand::Slot(_), Some(bv)) = (b, bval) {
                return Some(RInst::Cmp {
                    op: *op,
                    ty: *ty,
                    dst: *dst,
                    a: *a,
                    b: Operand::Imm(bv),
                });
            }
            None
        }
        RInst::BrCmp { op, ty, a, b, t } => match b {
            Operand::Slot(s) => known(s).map(|bv| RInst::BrCmp {
                op: *op,
                ty: *ty,
                a: *a,
                b: Operand::Imm(bv),
                t: *t,
            }),
            Operand::Imm(_) => None,
        },
        _ => None,
    }
}

fn eval_bin(op: BinOp, ty: NumTy, a: u64, b: u64) -> Option<u64> {
    use crate::numerics::{bin_i4, bin_i8, bin_r4, bin_r8};
    match ty {
        NumTy::I4 => bin_i4(op, a as u32 as i32, b as u32 as i32)
            .ok()
            .map(|v| v as u32 as u64),
        NumTy::I8 => bin_i8(op, a as i64, b as i64).ok().map(|v| v as u64),
        NumTy::R4 => Some(bin_r4(op, f32::from_bits(a as u32), f32::from_bits(b as u32)).to_bits() as u64),
        NumTy::R8 => Some(bin_r8(op, f64::from_bits(a), f64::from_bits(b)).to_bits()),
    }
}

fn eval_un(op: UnOp, ty: NumTy, a: u64) -> Option<u64> {
    use crate::numerics::{un_i4, un_i8};
    Some(match ty {
        NumTy::I4 => un_i4(op, a as u32 as i32) as u32 as u64,
        NumTy::I8 => un_i8(op, a as i64) as u64,
        NumTy::R4 => match op {
            UnOp::Neg => (-f32::from_bits(a as u32)).to_bits() as u64,
            UnOp::Not => return None,
        },
        NumTy::R8 => match op {
            UnOp::Neg => (-f64::from_bits(a)).to_bits(),
            UnOp::Not => return None,
        },
    })
}

/// Multiply-by-power-of-two becomes a shift (the CLR's faster integer
/// multiplication in Graph 1). Works on immediates and on register
/// operands with an in-block constant reaching definition — shift counts
/// are immediates in every real encoding, independent of whether the
/// profile fuses general constants.
fn strength_reduce(l: &mut Lowered, cfg: &Cfg) {
    for i in 0..l.code.len() {
        let RInst::Bin { op: BinOp::Mul, ty, b, .. } = &l.code[i] else { continue };
        if !ty.is_int() {
            continue;
        }
        let c = match *b {
            Operand::Imm(c) => Some(c),
            Operand::Slot(s) => {
                let block_start = cfg.ranges[cfg.block_of(i as u32)].0;
                const_reaching(&l.code[block_start..i], s)
            }
        };
        let Some(c) = c else { continue };
        let val = match ty {
            NumTy::I4 => c as u32 as i32 as i64,
            _ => c as i64,
        };
        if val > 0 && (val as u64).is_power_of_two() {
            if let RInst::Bin { op, b, .. } = &mut l.code[i] {
                *op = BinOp::Shl;
                *b = Operand::Imm(val.trailing_zeros() as u64);
            }
        }
    }
}

/// The constant primitive `s` holds after `code` (straight-line code),
/// when its last definition there is a `ConstP`.
fn const_reaching(code: &[RInst], s: u16) -> Option<u64> {
    match code.iter().rev().find(|inst| inst.def() == Some(DstSlot::P(s))) {
        Some(RInst::ConstP { bits, .. }) => Some(*bits),
        _ => None,
    }
}

/// Bounds-check elimination for the canonical counted-loop shape:
/// the index starts at zero, increments by a positive constant, and is
/// guarded by a compare against `ldlen` of the same array ("using the
/// array.length property as the bounds in the loop", Section 5 — worth
/// 15 % on the sparse kernel).
///
/// The matcher works the way the era's JITs did — structural pattern
/// recognition over the block-local facts of [`scan_facts`] rather than
/// full dominance analysis. Those facts are necessary but not sufficient
/// (a compare against the length that never controls the access would
/// match — conform seed 330), so every candidate's certificate goes to
/// the independent checker, which verifies the guard edge's dominance;
/// only what it accepts is elided. The execution engine keeps a safety
/// net on top: an "unchecked" access that does go out of range is an
/// engine error, so a differential test would expose an unsound match.
fn eliminate_bounds_checks(l: &mut Lowered, ctx: &mut MethodCtx) -> u64 {
    let (an, facts) = ctx.facts(l);

    // Counter shape per vreg: zero-initialized, advanced only by the
    // canonical `i = <i + k>` move, never written any other way.
    #[derive(Clone, Copy, Default)]
    struct Counter {
        zero: bool,
        inc: bool,
        tainted: bool,
    }
    let mut counters = vec![Counter::default(); l.n_pvreg as usize];
    let defs = an.defs(l);
    for (pc, inst) in l.code.iter().enumerate() {
        let Some(DstSlot::P(d)) = defs.def_at(pc) else { continue };
        let c = &mut counters[d as usize];
        match inst {
            RInst::ConstP { bits: 0, .. } => c.zero = true,
            RInst::MovP { .. } if facts.is_increment(pc) => c.inc = true,
            // A nonzero reseed, a copy, a one-instruction `i = i + k`,
            // a load: none is the monotone-from-zero shape.
            _ => c.tainted = true,
        }
    }
    // (index origin, array origin) -> pc of the first compare of the two,
    // recorded as the certificate's witness. The matcher keys on the
    // operands as written, so it reads the raw length facts.
    let mut guards: HashMap<(u16, u16), u32> = HashMap::new();
    for (pc, g) in facts.guards() {
        let Some(b) = g.b else { continue };
        if let Some(arr) = g.b_len_raw {
            guards.entry((g.a, arr)).or_insert(pc);
        }
        if let Some(arr) = g.a_len_raw {
            guards.entry((b, arr)).or_insert(pc);
        }
    }

    let mut eliminated = 0u64;
    for pc in 0..l.code.len() {
        let Some((ivar, arr)) = facts.access(pc) else { continue };
        let Some(&guard_pc) = guards.get(&(ivar, arr)) else { continue };
        let c = counters[ivar as usize];
        if !(c.zero && c.inc && !c.tainted) || l.code[pc].bounds() != Some(BoundsMode::Checked) {
            continue;
        }
        let cert = ElisionCert {
            pc: pc as u32,
            mechanism: BoundsMode::ElidedIdiom,
            kind: CertKind::BlockGuard { guard_pc, ivar, arr },
        };
        if audit::check_cert(l, an, &cert).is_ok() {
            if let Some(bounds) = l.code[pc].bounds_mut() {
                *bounds = BoundsMode::ElidedIdiom;
            }
            l.certs.push(cert);
            eliminated += 1;
        }
    }
    eliminated
}

// ---------------------------------------------------------------------------
// Loop-aware tier: ABCE + LICM over natural loops (see `rir::loops`).
// ---------------------------------------------------------------------------

/// Guard operands of an I4 fused compare-branch, resolved through the
/// block-local fact maps.
pub(crate) struct GuardFacts {
    pub op: CmpOp,
    /// Resolved origin of the left operand.
    pub a: u16,
    /// Resolved origin of the right operand, when it is a slot.
    pub b: Option<u16>,
    /// `(array origin, fact_is_global)` when the left operand holds that
    /// array's length. Block-local facts come from an `ldlen` in the same
    /// block (re-derived every iteration); global facts are the
    /// hand-hoisted `int len = arr.Length;` idiom (single-definition
    /// locals only).
    pub a_len: Option<(u16, bool)>,
    /// Same for the right operand.
    pub b_len: Option<(u16, bool)>,
    /// The array whose length the left operand holds *as written* — a
    /// fact about the raw slot only, not about what it copies. This is
    /// all the structural matcher looks at.
    pub a_len_raw: Option<u16>,
    /// Same for the right operand.
    pub b_len_raw: Option<u16>,
}

/// Per-instruction facts for the bounds-check passes, from one forward
/// scan with block-local reasoning only.
pub(crate) struct LoopFacts {
    /// Per pc: `(index origin, array origin)` of an element access.
    access: Vec<Option<(u16, u16)>>,
    /// Resolved guard operands of every I4 `BrCmp`, ascending by pc.
    guard: Vec<(u32, GuardFacts)>,
    /// Per pc: the instruction completes `x = x + k` with constant
    /// `k > 0` — a counted-loop increment (directly, or through the
    /// stack-cell `mov x, <x+k>` shape).
    increment: Vec<bool>,
    /// Constants known at the end of each block (for an induction
    /// variable's entry value): block `b`'s are
    /// `end_consts[end_const_start[b]..end_const_start[b + 1]]`.
    end_const_start: Vec<u32>,
    end_consts: Vec<(u16, u64)>,
}

impl LoopFacts {
    /// Give the per-pc and per-block tables back to the compile's spares.
    fn recycle(self, scratch: &mut Scratch) {
        scratch.accesses.give(self.access);
        scratch.bools.give(self.increment);
        scratch.u32s.give(self.end_const_start);
        scratch.end_consts.give(self.end_consts);
    }

    pub fn access(&self, pc: usize) -> Option<(u16, u16)> {
        self.access[pc]
    }

    pub fn guard(&self, pc: usize) -> Option<&GuardFacts> {
        let k = self.guard.binary_search_by_key(&(pc as u32), |g| g.0).ok()?;
        Some(&self.guard[k].1)
    }

    fn guards(&self) -> impl Iterator<Item = (u32, &GuardFacts)> {
        self.guard.iter().map(|(pc, g)| (*pc, g))
    }

    pub fn is_increment(&self, pc: usize) -> bool {
        self.increment[pc]
    }

    /// The constant primitive `v` holds when control leaves `block`.
    pub fn end_const(&self, block: usize, v: u16) -> Option<u64> {
        let (s, e) = (self.end_const_start[block], self.end_const_start[block + 1]);
        self.end_consts[s as usize..e as usize]
            .iter()
            .find(|c| c.0 == v)
            .map(|c| c.1)
    }
}

/// The forward scan computing [`LoopFacts`]: per block, it tracks copies,
/// known constants, `x = local + k` facts and `x = arr.Length` facts,
/// resolved through the naive stack-shuffle lowering. Facts reset at
/// block boundaries, except the hand-hoisted `int len = arr.Length;`
/// idiom: a local with a single real definition that copies an `ldlen`
/// result keeps that fact method-wide.
fn scan_facts(l: &Lowered, an: &Analysis, scratch: &mut Scratch) -> LoopFacts {
    #[cfg(test)]
    crate::rir::loops::built::count_fact_scan();
    let n = l.code.len();
    let defs = an.defs(l);
    let mut end_const_start = scratch.u32s.take();
    end_const_start.reserve(an.cfg.ranges.len() + 1);
    let mut facts = LoopFacts {
        access: scratch.accesses.filled(n, None),
        guard: Vec::new(),
        increment: scratch.bools.filled(n, false),
        end_const_start,
        end_consts: scratch.end_consts.take(),
    };
    let copies = scratch.pcopy.fit(l.n_pvreg); // vreg -> origin vreg
    let rcopies = scratch.rcopy.fit(l.n_rvreg);
    let consts = scratch.pconst.fit(l.n_pvreg);
    let incof = scratch.incof.fit(l.n_pvreg); // vreg -> local (vreg == local + k)
    let lenof = scratch.lenof.fit(l.n_pvreg); // vreg -> array origin
    let global_lenof = refill(&mut scratch.global_lenof, l.n_pvreg as usize, None);
    let pdefs = &mut scratch.u32s.filled(l.n_pvreg as usize, 0);
    let rdefs = &mut scratch.u32s.filled(l.n_rvreg as usize, 0);

    enum NewFact {
        Const(u64),
        Copy(u16),
        IncOf(u16),
        LenOf(u16),
        None,
    }

    for &(start, end) in &an.cfg.ranges {
        for i in start..end {
            let presolve = |v: u16| copies.get(v, pdefs).unwrap_or(v);
            let rresolve = |v: u16| rcopies.get(v, rdefs).unwrap_or(v);

            // Read-side facts and the new fact, both from the state before
            // the instruction.
            let mut fact = NewFact::None;
            match &l.code[i] {
                RInst::BrCmp { op, ty: NumTy::I4, a, b, .. } => {
                    // (fact through the slot or what it copies, is it
                    // global; fact about the slot as written).
                    let len_facts = |raw: u16| -> (Option<(u16, bool)>, Option<u16>) {
                        let res = presolve(raw);
                        let local = lenof.get(raw, rdefs);
                        let global = global_lenof[raw as usize];
                        let len = local
                            .or_else(|| lenof.get(res, rdefs))
                            .map(|arr| (arr, false))
                            .or_else(|| global.or(global_lenof[res as usize]).map(|arr| (arr, true)));
                        (len, local.or(global))
                    };
                    let (a_len, a_len_raw) = len_facts(*a);
                    let (b, (b_len, b_len_raw)) = match b {
                        Operand::Slot(s) => (Some(presolve(*s)), len_facts(*s)),
                        Operand::Imm(_) => (None, (None, None)),
                    };
                    let g = GuardFacts {
                        op: *op,
                        a: presolve(*a),
                        b,
                        a_len,
                        b_len,
                        a_len_raw,
                        b_len_raw,
                    };
                    facts.guard.push((i as u32, g));
                }
                RInst::LdElem { arr, idx, .. } | RInst::StElem { arr, idx, .. } => {
                    facts.access[i] = Some((presolve(*idx), rresolve(*arr)));
                }
                RInst::ConstP { bits, .. } => fact = NewFact::Const(*bits),
                RInst::MovP { dst, src } => {
                    if incof.get(*src, pdefs) == Some(*dst) {
                        // `i = <i + k>` — the canonical increment completing.
                        facts.increment[i] = true;
                    } else {
                        fact = NewFact::Copy(presolve(*src));
                        // `int len = arr.Length;` — promote to a global fact
                        // when this is the local's only real definition.
                        if let Some(arr) = lenof.get(*src, rdefs) {
                            if defs.real_p_count(*dst) == 1 {
                                global_lenof[*dst as usize] = Some(arr);
                            }
                        }
                    }
                }
                RInst::MovR { src, .. } => fact = NewFact::Copy(rresolve(*src)),
                RInst::Bin { op: BinOp::Add, ty: NumTy::I4, dst, a, b } => {
                    let k = match b {
                        Operand::Imm(k) => Some(*k),
                        Operand::Slot(s) => consts.get(*s),
                    };
                    if k.is_some_and(|k| audit::is_loop_step(i64::from(k as u32 as i32))) {
                        let a_res = presolve(*a);
                        if a_res == *dst {
                            // `i = i + k` in one instruction.
                            facts.increment[i] = true;
                        } else {
                            fact = NewFact::IncOf(a_res);
                        }
                    }
                }
                RInst::LdLen { arr, .. } => {
                    // An array origin written at most once keeps its
                    // length (the entry `ConstNull` does not count: a
                    // null array traps before its length matters).
                    let ao = rresolve(*arr);
                    if defs.real_r_count(ao) <= 1 {
                        fact = NewFact::LenOf(ao);
                    }
                }
                _ => {}
            }

            // Invalidation: a def of v breaks facts about v and (through
            // the definition counts) facts that mention v as an origin.
            let def = defs.def_at(i);
            match def {
                Some(DstSlot::P(d)) => {
                    copies.forget(d);
                    consts.forget(d);
                    incof.forget(d);
                    lenof.forget(d);
                    pdefs[d as usize] += 1;
                }
                Some(DstSlot::R(d)) => {
                    rcopies.forget(d);
                    rdefs[d as usize] += 1;
                }
                None => {}
            }
            match (fact, def) {
                (NewFact::Const(c), Some(DstSlot::P(d))) => consts.set(d, c),
                (NewFact::Copy(o), Some(DstSlot::P(d))) if o != d => {
                    copies.set(d, o, pdefs);
                    if let Some(c) = consts.get(o) {
                        consts.set(d, c);
                    }
                }
                (NewFact::Copy(o), Some(DstSlot::R(d))) if o != d => rcopies.set(d, o, rdefs),
                (NewFact::IncOf(o), Some(DstSlot::P(d))) if o != d => incof.set(d, o, pdefs),
                (NewFact::LenOf(a), Some(DstSlot::P(d))) => lenof.set(d, a, rdefs),
                _ => {}
            }
        }
        facts.end_const_start.push(facts.end_consts.len() as u32);
        consts.drain(|v, c| facts.end_consts.push((v, c)));
        copies.clear();
        rcopies.clear();
        incof.clear();
        lenof.clear();
    }
    facts.end_const_start.push(facts.end_consts.len() as u32);
    scratch.u32s.give(std::mem::take(pdefs));
    scratch.u32s.give(std::mem::take(rdefs));
    facts
}

/// Loop-aware array-bounds-check elimination.
///
/// For each clean natural loop whose header terminator compares an
/// induction variable against an invariant array's length (staying in the
/// loop exactly when `i < arr.Length`), accesses `arr[i]` inside the loop
/// are provably in range and lose their checks — provided:
///
/// * the induction variable's only in-loop definitions are positive
///   constant increments;
/// * every loop entry reaches the header with the variable a known
///   non-negative constant;
/// * the array (and, for the hand-hoisted `len` idiom, the bound local)
///   is not written inside the loop;
/// * the access is outside the header block (which executes before the
///   guard decides) and not downstream of an increment within the same
///   iteration.
///
/// The execution engine keeps its safety net: an unchecked access that
/// does go out of range is an engine error, so the differential suite
/// would expose an unsound match.
fn loop_aware_bce(
    l: &mut Lowered,
    ctx: &mut MethodCtx,
) -> (u64, Vec<(u32, LoopRejectReason)>) {
    let (an, facts) = ctx.facts(l);
    let mut flips: Vec<(usize, u32, u16, u16)> = Vec::new();
    let mut rejected: Vec<(u32, LoopRejectReason)> = Vec::new();
    for lp in an.loops(l) {
        match analyze_loop(l, an, facts, lp) {
            // An accepted loop with no matching accesses is not a
            // rejection — the proof succeeded, there was nothing to drop.
            Ok(e) => flips.extend(e.covered.iter().map(|&pc| (pc, e.guard_pc, e.ivar, e.arr))),
            Err(reason) => rejected.push((an.cfg.ranges[lp.header].0 as u32, reason)),
        }
    }
    let mut count = 0u64;
    for (pc, guard_pc, ivar, arr) in flips {
        match l.code[pc].bounds_mut() {
            Some(bounds) if bounds.is_checked() => *bounds = BoundsMode::ElidedIdiom,
            _ => continue,
        }
        count += 1;
        l.certs.push(ElisionCert {
            pc: pc as u32,
            mechanism: BoundsMode::ElidedIdiom,
            kind: CertKind::Loop {
                guard_pc,
                ivar,
                offset: 0,
                entry_lo: 0,
                sup_arr: arr,
                sup_off: -1,
            },
        });
    }
    (count, rejected)
}

/// An accepted loop's elision set plus the facts its certificates cite.
struct LoopElision {
    covered: Vec<usize>,
    guard_pc: u32,
    ivar: u16,
    arr: u16,
}

/// Prove one natural loop safe for check elimination: returns the pcs of
/// the covered element accesses plus the proof facts, or the first
/// disqualifier found (the [`LoopRejectReason`] the event trace reports).
fn analyze_loop(
    l: &Lowered,
    an: &Analysis,
    facts: &LoopFacts,
    lp: &NaturalLoop,
) -> Result<LoopElision, LoopRejectReason> {
    if !lp.clean {
        return Err(LoopRejectReason::OverlapsEh);
    }
    let cfg = &an.cfg;
    let (_, he) = cfg.ranges[lp.header];
    let term = he - 1;
    let Some(g) = facts.guard(term) else {
        return Err(LoopRejectReason::NoHeaderGuard);
    };
    let RInst::BrCmp { t, .. } = l.code[term] else {
        return Err(LoopRejectReason::NoHeaderGuard);
    };
    let tgt_in = lp.contains(cfg.block_of(t));
    let fall_in = he < l.code.len() && lp.contains(cfg.block_of(he as u32));
    if tgt_in == fall_in {
        return Err(LoopRejectReason::GuardShape);
    }
    // The predicate that holds on the edge that stays in the loop.
    let stay = if fall_in { g.op.negate() } else { g.op };
    // Which side is the bound? The staying predicate must imply
    // `ivar < len` (strictly).
    let (ivar, arr, bound_slot, bound_global) = if let Some((arr, glob)) = g.b_len {
        if stay != CmpOp::Lt {
            return Err(LoopRejectReason::GuardShape);
        }
        (g.a, arr, g.b, glob)
    } else if let Some((arr, glob)) = g.a_len {
        if stay != CmpOp::Gt {
            return Err(LoopRejectReason::GuardShape);
        }
        let Some(bv) = g.b else {
            return Err(LoopRejectReason::GuardShape);
        };
        (bv, arr, Some(g.a), glob)
    } else {
        return Err(LoopRejectReason::GuardShape);
    };
    // A header `ldlen` bound re-derives every iteration; the global
    // `len` local must not be written inside the loop.
    if bound_global {
        if let Some(bs) = bound_slot {
            if an.loop_p_defs(l, lp, bs).next().is_some() {
                return Err(LoopRejectReason::BoundMutated);
            }
        }
    }
    // Array invariance inside the loop.
    if an.loop_r_defs(l, lp, arr).next().is_some() {
        return Err(LoopRejectReason::ArrayMutated);
    }
    // Induction: every in-loop def is a positive increment.
    let ivar_defs: Vec<usize> = an.loop_p_defs(l, lp, ivar).collect();
    if ivar_defs.iter().any(|&pc| !facts.is_increment(pc)) {
        return Err(LoopRejectReason::IndexStep);
    }
    // Entry value: every edge entering the header from outside must
    // carry a known non-negative constant for the induction variable.
    let mut entry_preds = cfg.preds(lp.header).iter().filter(|&&p| !lp.contains(p)).peekable();
    if entry_preds.peek().is_none() {
        return Err(LoopRejectReason::EntryUnknown);
    }
    let entry_ok = entry_preds
        .all(|&p| facts.end_const(p, ivar).is_some_and(|v| v as u32 as i32 >= 0));
    if !entry_ok {
        return Err(LoopRejectReason::EntryUnknown);
    }
    // Everything downstream of an increment (without re-passing the
    // guard) is no longer covered by it.
    let post = lp.post_region(cfg, &ivar_defs);
    let mut covered = Vec::new();
    for &b in &lp.body {
        if b == lp.header || post.blocks.contains(b) {
            continue;
        }
        let (s, e) = cfg.ranges[b];
        for pc in s..e {
            if !post.in_tail(pc) && facts.access(pc) == Some((ivar, arr)) {
                covered.push(pc);
            }
        }
    }
    Ok(LoopElision { covered, guard_pc: term as u32, ivar, arr })
}

/// Loop-invariant code motion.
///
/// Pure arithmetic whose operands have no definition inside the loop
/// computes the same value every iteration; it is recomputed once in front
/// of the header into a fresh virtual register, and the original
/// instruction becomes a register move. Constant materializations count
/// too (the profiles without immediate fusion re-load every literal each
/// iteration), and a candidate may use the value of an *earlier candidate
/// in the same block* — the chain hoists together, reading the fresh
/// registers. The guard's `ldlen` is hoisted the same way when it sits in
/// the header with nothing effectful before it (the null-pointer trap
/// then fires one instruction earlier, which is unobservable in an
/// EH-free loop — and loops overlapping EH regions are skipped entirely).
///
/// A round plans every clean loop, in header order, on one context. When
/// a loop has something to hoist, its originals become moves from the
/// fresh registers at once and the fresh registers are committed, so the
/// next loop plans on the code and fresh-register base it would see had
/// the earlier preheaders already been spliced in. Then
/// [`splice_preheaders`] inserts all of the round's clones in one pass and
/// the context is rebuilt once. Another round follows only one that ended
/// early.
///
/// That hoists the same instructions into the same registers as hoisting
/// one loop and re-analyzing before planning from the first loop again: a
/// hoisted loop's body holds only moves where its candidates were, so it
/// plans nothing again, and every other loop sees the same code as before
/// the splice unless it holds the preheader. The one exception ends the
/// round early ([`splice_may_feed_other_loops`]), so the next round plans
/// the loop the splice fed before any later one. By the same argument, a
/// round that did not end early leaves nothing for another to hoist, and
/// one that planned nothing has nothing to splice. At most 64 loops hoist
/// per method. The first round plans on the context the bounds-check
/// passes used, and the context of the code after the last splice is the
/// one the caller keeps.
fn loop_invariant_code_motion(l: &mut Lowered, ctx: &mut MethodCtx) -> u64 {
    let mut total = 0u64;
    let mut hoisted_loops = 0;
    let mut marks = HoistMarks::default();
    loop {
        let (an, scratch) = (&ctx.an, &mut ctx.scratch);
        let mut preheaders = Vec::new();
        let mut fed = false;
        for lp in an.loops(l).iter().filter(|lp| lp.clean) {
            // Leave ample headroom below the spill-bit encoding for the
            // fresh registers hoisting allocates.
            if hoisted_loops == 64 || l.n_pvreg as u32 >= 0x4000 {
                break;
            }
            let plans = plan_hoists(l, an, lp, &mut marks, scratch);
            if plans.is_empty() {
                continue;
            }
            hoisted_loops += 1;
            total += plans.len() as u64;
            let clones: Vec<RInst> = plans
                .into_iter()
                .map(|p| {
                    l.n_pvreg = l.n_pvreg.max(p.fresh + 1);
                    l.code[p.pc] = RInst::MovP { dst: p.dst, src: p.fresh };
                    p.clone
                })
                .collect();
            fed = splice_may_feed_other_loops(l, an, lp, &clones);
            preheaders.push(Preheader { lp, at: an.cfg.ranges[lp.header].0, clones });
            if fed {
                break;
            }
        }
        if preheaders.is_empty() {
            return total;
        }
        splice_preheaders(l, &an.cfg, preheaders);
        ctx.rebuild(l);
        if !fed {
            return total;
        }
    }
}

/// Could splicing `clones` in front of `lp`'s header change what another
/// loop plans? Only a loop that holds the header sees them. If its header
/// comes later, the round would plan it without them. If its header comes
/// earlier, it encloses `lp`, and its plan this round was empty or is
/// committed, so it has no candidate left but lone constants, which it
/// drops. A clone reads what its original read, or an earlier clone, so
/// it is a candidate there only where its original was — except where the
/// preheader joins the block in front of the header: there a clone may
/// read a constant that block defines, and an `ldlen` clone may land in
/// that loop's header block. Conservative: a false alarm costs one round.
fn splice_may_feed_other_loops(
    l: &Lowered,
    an: &Analysis,
    lp: &NaturalLoop,
    clones: &[RInst],
) -> bool {
    let clean = || an.loops(l).iter().filter(|o| o.clean);
    if clean().any(|o| o.header > lp.header && o.contains(lp.header)) {
        return true;
    }
    // Blocks are in code order: the one before the header ends where it
    // starts.
    let Some(before) = lp.header.checked_sub(1) else { return false };
    let (s, e) = an.cfg.ranges[before];
    let constant_in_block = |v: u16| {
        let last_def = l.code[s..e].iter().rev().find(|i| i.def() == Some(DstSlot::P(v)));
        matches!(last_def, Some(RInst::ConstP { .. }))
    };
    clones.iter().any(|c| {
        let mut reads_constant = false;
        c.slots(|role, v| reads_constant |= role == SlotRole::UseP && constant_in_block(v));
        reads_constant
            || (matches!(c, RInst::LdLen { .. }) && clean().any(|o| o.header == before))
    })
}

/// May this instruction precede a hoisted `ldlen` in the header? Only
/// trap-free register arithmetic (plus other `ldlen`s — reordering two
/// null traps of the same exception class is unobservable without EH).
fn effect_free(inst: &RInst) -> bool {
    matches!(
        inst,
        RInst::Nop
            | RInst::MovP { .. }
            | RInst::MovR { .. }
            | RInst::ConstP { .. }
            | RInst::ConstNull { .. }
            | RInst::Un { .. }
            | RInst::Conv { .. }
            | RInst::Cmp { .. }
            | RInst::CmpRef { .. }
            | RInst::LdLen { .. }
    ) || matches!(inst, RInst::Bin { op, .. } if !matches!(op, BinOp::Div | BinOp::Rem))
}

/// One instruction to hoist: the original at `pc` defines `dst`; `clone`
/// recomputes the value into the fresh register `fresh`.
struct Hoist {
    pc: usize,
    dst: u16,
    fresh: u16,
    clone: RInst,
}

/// Scratch tables for [`plan_hoists`], indexed by vreg and reused across
/// loops and rounds: an entry counts only while it carries the current
/// `stamp`, so nothing is ever cleared.
#[derive(Default)]
struct HoistMarks {
    stamp: u32,
    /// Primitive / reference vreg is written somewhere in the loop.
    p_in_loop: Vec<u32>,
    r_in_loop: Vec<u32>,
    /// Primitive vreg's most recent definition in the current block is a
    /// candidate, whose fresh register is recorded.
    fresh: Vec<(u32, u16)>,
}

/// Select the instructions of `lp` that compute loop-invariant values and
/// prepare their hoisted clones.
///
/// An operand is invariant when it has no definition anywhere in the loop
/// — or when its *most recent same-block definition* is an earlier
/// candidate: straight-line execution guarantees that definition reaches
/// this use, so the clone reads the earlier candidate's fresh register.
/// Fresh registers are numbered from `l.n_pvreg`; the caller commits the
/// allocation.
fn plan_hoists(
    l: &Lowered,
    an: &Analysis,
    lp: &NaturalLoop,
    marks: &mut HoistMarks,
    scratch: &mut Scratch,
) -> Vec<Hoist> {
    let cfg = &an.cfg;
    // Committing a plan turns each original into a move to its own
    // destination, so the definition table of the code the round started
    // from holds for the whole round.
    let defs = an.defs(l);
    marks.p_in_loop.resize(l.n_pvreg as usize, 0);
    marks.r_in_loop.resize(l.n_rvreg as usize, 0);
    marks.fresh.resize(l.n_pvreg as usize, (0, 0));
    marks.stamp += 1;
    let in_loop = marks.stamp;
    for &b in &lp.body {
        let (s, e) = cfg.ranges[b];
        for pc in s..e {
            match defs.def_at(pc) {
                Some(DstSlot::P(d)) => marks.p_in_loop[d as usize] = in_loop,
                Some(DstSlot::R(d)) => marks.r_in_loop[d as usize] = in_loop,
                None => {}
            }
        }
    }
    let (hs, _) = cfg.ranges[lp.header];
    let base = l.n_pvreg;
    let mut plans: Vec<Hoist> = Vec::new();
    for &b in &lp.body {
        marks.stamp += 1;
        let in_block = marks.stamp;
        let (s, e) = cfg.ranges[b];
        for pc in s..e {
            let inst = &l.code[pc];
            let fresh_of = |s: u16| Some(marks.fresh[s as usize]).filter(|f| f.0 == in_block);
            let inv = |s: u16| marks.p_in_loop[s as usize] != in_loop || fresh_of(s).is_some();
            let inv_op = |o: &Operand| match o {
                Operand::Imm(_) => true,
                Operand::Slot(s) => inv(*s),
            };
            // A candidate's own destination, or `None`.
            let candidate = match inst {
                RInst::ConstP { dst, .. } => Some(*dst),
                RInst::Bin { op, dst, a, b, .. }
                    if !matches!(op, BinOp::Div | BinOp::Rem) && inv(*a) && inv_op(b) =>
                {
                    Some(*dst)
                }
                RInst::Un { dst, a, .. } if inv(*a) => Some(*dst),
                RInst::Conv { dst, src, .. } if inv(*src) => Some(*dst),
                RInst::Cmp { dst, a, b, .. } if inv(*a) && inv_op(b) => Some(*dst),
                RInst::LdLen { arr, dst }
                    if b == lp.header
                        && marks.r_in_loop[*arr as usize] != in_loop
                        && l.code[hs..pc].iter().all(effect_free) =>
                {
                    Some(*dst)
                }
                _ => None,
            };
            if let Some(dst) = candidate {
                let fresh = base + plans.len() as u16;
                let mut clone = inst.clone();
                // The clone writes the fresh register and reads those of
                // earlier candidates (at the hoist point the original
                // slots still hold their pre-loop values).
                clone.slots_mut(|role, s| match role {
                    SlotRole::UseP => *s = fresh_of(*s).map_or(*s, |(_, f)| f),
                    SlotRole::DefP => *s = fresh,
                    SlotRole::UseR | SlotRole::DefR => {}
                });
                plans.push(Hoist { pc, dst, fresh, clone });
                marks.fresh[dst as usize] = (in_block, fresh);
            } else if let Some(DstSlot::P(d)) = defs.def_at(pc) {
                marks.fresh[d as usize] = (0, 0);
            }
        }
    }
    // A hoisted constant is live across the whole loop and costs a
    // register, while rematerializing it in the body is free — keep a
    // `ConstP` plan only when a hoisted computation consumes its value.
    // (Plan `i` defines fresh register `base + i`.)
    let mut needed = scratch.bools.filled(plans.len(), false);
    let mut keep = scratch.bools.filled(plans.len(), false);
    for i in (0..plans.len()).rev() {
        if !matches!(plans[i].clone, RInst::ConstP { .. }) || needed[i] {
            keep[i] = true;
            plans[i].clone.slots(|role, s| {
                if role == SlotRole::UseP && s >= base {
                    needed[(s - base) as usize] = true;
                }
            });
        }
    }
    // Renumber the survivors contiguously so the allocator never sees
    // holes in the vreg space.
    let mut renumbered = scratch.u16s.filled(plans.len(), 0);
    let mut next = base;
    let mut out = Vec::with_capacity(plans.len());
    for (i, mut h) in plans.into_iter().enumerate() {
        if !keep[i] {
            continue;
        }
        h.clone.slots_mut(|role, s| match role {
            SlotRole::UseP if *s >= base => *s = renumbered[(*s - base) as usize],
            SlotRole::DefP => *s = next,
            _ => {}
        });
        h.fresh = next;
        renumbered[i] = next;
        next += 1;
        out.push(h);
    }
    scratch.bools.give(needed);
    scratch.bools.give(keep);
    scratch.u16s.give(renumbered);
    out
}

/// One loop's hoisted clones, to go in front of its header, which starts
/// at `at` in the code the round planned on.
struct Preheader<'a> {
    lp: &'a NaturalLoop,
    at: usize,
    clones: Vec<RInst>,
}

/// Insert each loop's clones in front of its header, in one pass over the
/// code (`preheaders` ascend by header). Entry edges fall into (or
/// retarget to) a loop's preheader; back edges from inside the loop
/// retarget past it. Every other branch target, and every region start
/// and certificate pc, moves by the clones inserted at or before it; an
/// exclusive region end moves by those inserted strictly before it.
fn splice_preheaders(l: &mut Lowered, cfg: &Cfg, preheaders: Vec<Preheader>) {
    let n = l.code.len();
    // Where the instruction at each pc (and the end of the code) lands.
    let mut new_pc = Vec::with_capacity(n + 1);
    let mut shift = 0u32;
    let mut next = preheaders.iter().peekable();
    for pc in 0..=n {
        if let Some(ph) = next.next_if(|ph| ph.at == pc) {
            shift += ph.clones.len() as u32;
        }
        new_pc.push(pc as u32 + shift);
    }
    let preheader_at =
        |pc: usize| preheaders.binary_search_by_key(&pc, |ph| ph.at).ok().map(|i| &preheaders[i]);
    let inserted_at = |pc: u32| preheader_at(pc as usize).map_or(0, |ph| ph.clones.len() as u32);
    for (pc, inst) in l.code.iter_mut().enumerate() {
        if let Some(t) = inst.target() {
            // Entry edges execute the hoisted code; back edges skip it.
            let nt = match preheader_at(t as usize) {
                Some(ph) if !ph.lp.contains_pc(cfg, pc) => {
                    new_pc[t as usize] - ph.clones.len() as u32
                }
                _ => new_pc[t as usize],
            };
            inst.set_target(nt);
        }
    }
    // Hoisting never targets loops overlapping EH, so no region boundary
    // falls strictly inside a hoisted header's block.
    for r in &mut l.eh {
        r.try_start = new_pc[r.try_start as usize];
        r.try_end = new_pc[r.try_end as usize] - inserted_at(r.try_end);
        r.handler_start = new_pc[r.handler_start as usize];
        r.handler_end = new_pc[r.handler_end as usize] - inserted_at(r.handler_end);
    }
    // Certificates cite instruction pcs (the access, its guard).
    for c in &mut l.certs {
        c.remap_pcs(&mut |p| new_pc[p as usize]);
    }
    let mut old = std::mem::take(&mut l.code).into_iter();
    let mut code = Vec::with_capacity(n + shift as usize);
    let mut copied = 0;
    for ph in preheaders {
        code.extend(old.by_ref().take(ph.at - copied));
        code.extend(ph.clones);
        copied = ph.at;
    }
    code.extend(old);
    l.code = code;
}

/// `by` instructions were inserted at `at`, in front of a block no EH
/// region boundary falls strictly inside: inclusive starts shift when
/// at-or-after `at`, exclusive ends when after it.
pub(crate) fn shift_eh_ranges(eh: &mut [hpcnet_cil::EhRegion], at: u32, by: u32) {
    for r in eh {
        if r.try_start >= at {
            r.try_start += by;
        }
        if r.try_end > at {
            r.try_end += by;
        }
        if r.handler_start >= at {
            r.handler_start += by;
        }
        if r.handler_end > at {
            r.handler_end += by;
        }
    }
}

/// Liveness-based dead-code elimination.
///
/// Global backward liveness over basic blocks, then a backward sweep that
/// deletes pure definitions whose destination is dead — this is what
/// erases the stack-shuffle moves the naive lowering produces, i.e. the
/// difference between Mono 0.23's CIL-mirroring code and the compact
/// loops the CLR and IBM JITs emit (Tables 6–8). Exception edges are
/// handled conservatively: every block inside a protected range may
/// transfer to its handler.
///
/// Liveness state is kept in flat `u64` bitset rows (one row per block).
/// DCE only blanks instructions to `Nop`, so the block structure and the
/// per-instruction use/def sets and purity are recorded once — into a
/// shared arena, by running the slot rewriter over each instruction with
/// identity mappings — and a blanked instruction simply drops out of them.
///
/// The work follows what changes. A solve starts from empty sets and
/// re-solves a block only when the live-in of one of its successors or
/// handlers changed. A sweep that deleted something recomputes the
/// upward-exposed uses of the blocks it touched; only if one of them
/// changed can the solution change, and only then is liveness solved
/// again — after which only the blocks whose live-out (or handler
/// live-in) shrank are swept again: one backward sweep of a block already
/// deletes everything its live-out lets it. Deleting only ever removes
/// uses, so liveness only shrinks and every order of deletions reaches
/// the same code.
/// Exception edges between blocks, one flat list: block `b`'s are
/// `items[at[b]..at[b + 1]]`, in region order. Empty, with nothing
/// allocated, in a method without exception regions.
struct EhEdges {
    at: Vec<usize>,
    items: Vec<usize>,
}

impl EhEdges {
    /// Conservatively, every block overlapping a protected range may
    /// transfer to its handler: from each such block to the handler's
    /// block, or (`reverse`) from the handler's block to each of them.
    fn build(l: &Lowered, cfg: &Cfg, reverse: bool, scratch: &mut Scratch) -> EhEdges {
        let mut edges = EhEdges { at: Vec::new(), items: Vec::new() };
        if l.eh.is_empty() {
            return edges;
        }
        let nb = cfg.ranges.len();
        let each = |visit: &mut dyn FnMut(usize, usize)| {
            for (b, &(start, end)) in cfg.ranges.iter().enumerate() {
                for r in &l.eh {
                    if (start as u32) < r.try_end && (end as u32) > r.try_start {
                        let h = cfg.block_of(r.handler_start);
                        if reverse { visit(h, b) } else { visit(b, h) }
                    }
                }
            }
        };
        edges.at = scratch.usizes.filled(nb + 1, 0);
        each(&mut |from, _| edges.at[from + 1] += 1);
        for b in 0..nb {
            edges.at[b + 1] += edges.at[b];
        }
        edges.items = scratch.usizes.filled(edges.at[nb], 0);
        let mut next = scratch.usizes.take();
        next.extend_from_slice(&edges.at[..nb]);
        each(&mut |from, to| {
            edges.items[next[from]] = to;
            next[from] += 1;
        });
        scratch.usizes.give(next);
        edges
    }

    fn of(&self, b: usize) -> &[usize] {
        match self.at.get(b..b + 2) {
            Some(&[s, e]) => &self.items[s..e],
            _ => &[],
        }
    }

    fn recycle(self, scratch: &mut Scratch) {
        scratch.usizes.give(self.at);
        scratch.usizes.give(self.items);
    }
}

fn dead_code_elim(l: &mut Lowered, cfg: &Cfg, scratch: &mut Scratch) {
    let nb = cfg.ranges.len();
    // Blocks ending in `endfinally` resume at an unknown continuation
    // (leave target or exception re-dispatch) — they are treated as fully
    // live below.
    //
    // Exception edges are kept apart from the normal successors: a throw
    // can occur at *any* instruction of a protected block, so everything
    // live into the handler is live at every point of the block — defs
    // inside the try must not kill those slots (the handler may observe
    // the pre-store value). They bypass the kill set below instead of
    // flowing through live_out. Conservatively, every block overlapping
    // a protected range may transfer to its handler.
    let mut endfinally_blocks = scratch.bools.filled(nb, false);
    for (b, &(_, end)) in cfg.ranges.iter().enumerate() {
        endfinally_blocks[b] = matches!(l.code[end - 1], RInst::EndFinally);
    }
    let eh_succ = EhEdges::build(l, cfg, false, scratch);
    let eh_pred = EhEdges::build(l, cfg, true, scratch);

    // Per-instruction uses (into a flat arena), def and purity over the
    // combined vreg space, primitive slots first, then reference slots;
    // and per block, as bitset rows, the slots it reads before writing
    // them (`gen`) and the slots it writes (`kill`). Blocks run in code
    // order, so instruction `i` gets entry `i`.
    let np = l.n_pvreg as usize;
    let nr = l.n_rvreg as usize;
    let total = np + nr;
    let words = total.div_ceil(64);
    const NONE: u32 = u32::MAX;
    let n = l.code.len();
    let mut slot_arena = scratch.u32s.take();
    slot_arena.reserve(n * 3);
    let inst_uses = refill(&mut scratch.inst_uses, 0, (0, 0));
    inst_uses.reserve(n);
    let mut inst_defs = scratch.u32s.take();
    inst_defs.reserve(n);
    let mut pure = scratch.bools.take();
    pure.reserve(n);
    // One row of `words` bits per block for each of: `gen`, `kill`,
    // live-in, live-out (handler live-in included), the handler live-in
    // alone (which the block's kills cannot clear), and the previous
    // solve's live-out and handler live-in.
    let len = nb * words;
    // Scratch rows after them: a block's recomputed `gen` and `kill`, its
    // live-out and handler live-in being solved, and the live set of a
    // sweep.
    let mut rows = scratch.u64s.filled(7 * len + 5 * words, 0);
    let (gen, rest) = rows.split_at_mut(len);
    let (kill, rest) = rest.split_at_mut(len);
    let (live_in, rest) = rest.split_at_mut(len);
    let (live_out, rest) = rest.split_at_mut(len);
    let (eh_live, rest) = rest.split_at_mut(len);
    let (prev_out, rest) = rest.split_at_mut(len);
    let (prev_eh, bufs) = rest.split_at_mut(len);
    for (b, &(start, end)) in cfg.ranges.iter().enumerate() {
        let row = b * words..(b + 1) * words;
        let (g, k) = (&mut gen[row.clone()], &mut kill[row]);
        for inst in &l.code[start..end] {
            let first = slot_arena.len() as u32;
            let mut def = NONE;
            inst.slots(|role, v| {
                let slot = if role.is_prim() { v as u32 } else { np as u32 + v as u32 };
                match role {
                    SlotRole::UseP | SlotRole::UseR => {
                        slot_arena.push(slot);
                        if !bit_get(k, slot as usize) {
                            bit_set(g, slot as usize);
                        }
                    }
                    SlotRole::DefP | SlotRole::DefR => def = slot,
                }
            });
            if def != NONE {
                bit_set(k, def as usize);
            }
            inst_uses.push((first, slot_arena.len() as u32));
            inst_defs.push(def);
            pure.push(is_pure(inst));
        }
    }
    let (gen_buf, rest) = bufs.split_at_mut(words);
    let (kill_buf, rest) = rest.split_at_mut(words);
    let (out_buf, rest) = rest.split_at_mut(words);
    let (eh_buf, live) = rest.split_at_mut(words);
    let mut stale = scratch.bools.filled(nb, true);
    let mut first_solve = true;
    let union_live_in = |buf: &mut [u64], live_in: &[u64], blocks: &[usize]| {
        for &s in blocks {
            for (o, i2) in buf.iter_mut().zip(&live_in[s * words..(s + 1) * words]) {
                *o |= *i2;
            }
        }
    };
    // Blocks to sweep: every block after the first solve, then those
    // whose live-out or handler live-in the solve shrank.
    let mut to_sweep = scratch.usizes.take();
    to_sweep.extend(0..nb);
    loop {
        #[cfg(test)]
        crate::rir::loops::built::count_liveness();
        // Solve live_in = gen ∪ (live_out − kill) from empty sets, in
        // sweeps from the last block to the first that visit only blocks
        // whose successors' or handlers' live-in changed since their last
        // visit.
        live_in.fill(0);
        stale.fill(true);
        let mut again = true;
        while again {
            again = false;
            for b in (0..nb).rev() {
                if !std::mem::replace(&mut stale[b], false) {
                    continue;
                }
                #[cfg(test)]
                crate::rir::loops::built::count_liveness_visit();
                out_buf.fill(if endfinally_blocks[b] { u64::MAX } else { 0 });
                union_live_in(out_buf, live_in, cfg.succs(b));
                // Handler live-in is live throughout the protected block
                // and is immune to this block's kills.
                eh_buf.fill(0);
                union_live_in(eh_buf, live_in, eh_succ.of(b));
                let row = b * words..(b + 1) * words;
                let (g, k) = (&gen[row.clone()], &kill[row.clone()]);
                let inn = &mut live_in[row.clone()];
                let (out, ehl) = (&mut live_out[row.clone()], &mut eh_live[row]);
                let mut changed = false;
                for w in 0..words {
                    let o = out_buf[w] | eh_buf[w];
                    let new = g[w] | (o & !k[w]) | eh_buf[w];
                    changed |= new != inn[w];
                    (inn[w], out[w], ehl[w]) = (new, o, eh_buf[w]);
                }
                if changed {
                    for &p in cfg.preds(b).iter().chain(eh_pred.of(b)) {
                        stale[p] = true;
                        // A block at or after this one waits for the next
                        // sweep.
                        again |= p >= b;
                    }
                }
            }
        }
        if !std::mem::replace(&mut first_solve, false) {
            let row = |b: usize| b * words..(b + 1) * words;
            to_sweep.extend((0..nb).filter(|&b| {
                live_out[row(b)] != prev_out[row(b)] || eh_live[row(b)] != prev_eh[row(b)]
            }));
        }

        // Backward sweep per block: delete pure defs of dead slots. Slots
        // live into a reachable handler stay live at every pc of the
        // protected block (a throw may observe the pre-kill value). The
        // same walk recomputes the block's `gen` and `kill` without what
        // it deletes. A deletion can change the solution only by dropping
        // a use that was upward-exposed in its block: the definitions it
        // drops from `kill` were dead, so the old solution still solves
        // the equations and the next sweep would delete nothing.
        let mut gen_changed = false;
        for b in to_sweep.drain(..) {
            let (start, end) = cfg.ranges[b];
            let row = b * words..(b + 1) * words;
            live.copy_from_slice(&live_out[row.clone()]);
            gen_buf.fill(0);
            kill_buf.fill(0);
            let eh = &eh_live[row.clone()];
            let mut deleted = false;
            for i in (start..end).rev() {
                let d = inst_defs[i];
                if pure[i] && d != NONE && !bit_get(live, d as usize) && !bit_get(eh, d as usize)
                {
                    l.code[i] = RInst::Nop;
                    inst_uses[i] = (0, 0);
                    inst_defs[i] = NONE;
                    pure[i] = false;
                    deleted = true;
                    continue;
                }
                if d != NONE {
                    bit_clear(live, d as usize);
                    bit_clear(gen_buf, d as usize);
                    bit_set(kill_buf, d as usize);
                }
                let (us, ue) = inst_uses[i];
                for &u in &slot_arena[us as usize..ue as usize] {
                    bit_set(live, u as usize);
                    bit_set(gen_buf, u as usize);
                }
            }
            if deleted {
                kill[row.clone()].copy_from_slice(kill_buf);
                if gen[row.clone()] != *gen_buf {
                    gen[row].copy_from_slice(gen_buf);
                    gen_changed = true;
                }
            }
        }
        if !gen_changed {
            break;
        }
        prev_out.copy_from_slice(live_out);
        prev_eh.copy_from_slice(eh_live);
    }
    for v in [endfinally_blocks, pure, stale] {
        scratch.bools.give(v);
    }
    eh_succ.recycle(scratch);
    eh_pred.recycle(scratch);
    scratch.u32s.give(slot_arena);
    scratch.u32s.give(inst_defs);
    scratch.u64s.give(rows);
    scratch.usizes.give(to_sweep);
}

/// May dead-code elimination delete this instruction when nothing reads
/// what it writes?
fn is_pure(inst: &RInst) -> bool {
    matches!(
        inst,
        RInst::MovP { .. }
            | RInst::MovR { .. }
            | RInst::ConstP { .. }
            | RInst::ConstNull { .. }
            | RInst::ConstStr { .. }
            | RInst::Un { .. }
            | RInst::Conv { .. }
            | RInst::Cmp { .. }
            | RInst::CmpRef { .. }
            | RInst::IsInst { .. }
            | RInst::LdSFld { .. }
    ) || matches!(inst, RInst::Bin { op, .. } if !matches!(op, BinOp::Div | BinOp::Rem))
}

#[inline]
fn bit_set(bs: &mut [u64], i: usize) {
    bs[i / 64] |= 1u64 << (i % 64);
}

#[inline]
fn bit_clear(bs: &mut [u64], i: usize) {
    bs[i / 64] &= !(1u64 << (i % 64));
}

#[inline]
fn bit_get(bs: &[u64], i: usize) -> bool {
    bs[i / 64] >> (i % 64) & 1 != 0
}

/// Remove `nop`s, remapping branch targets and EH ranges.
fn compact(l: &mut Lowered, new_idx: &mut Vec<u32>) {
    new_idx.clear();
    new_idx.reserve(l.code.len() + 1);
    let mut kept = 0u32;
    for inst in &l.code {
        new_idx.push(kept);
        if !matches!(inst, RInst::Nop) {
            kept += 1;
        }
    }
    new_idx.push(kept);
    l.code.retain(|i| !matches!(i, RInst::Nop));
    for inst in &mut l.code {
        if let Some(t) = inst.target() {
            inst.set_target(new_idx[t as usize]);
        }
    }
    for r in &mut l.eh {
        r.try_start = new_idx[r.try_start as usize];
        r.try_end = new_idx[r.try_end as usize];
        r.handler_start = new_idx[r.handler_start as usize];
        r.handler_end = new_idx[r.handler_end as usize];
    }
    for c in &mut l.certs {
        c.remap_pcs(&mut |p| new_idx[p as usize]);
    }
}

/// Reproduce CLR 1.1's Table-6 quirk: a constant feeding an integer
/// division is "temporarily stored in a variable" — i.e. it lives in a
/// stack-frame temporary rather than a register. We retarget the constant
/// load that reaches each division into a fresh virtual register and
/// force that register to spill.
///
/// Returns the set of forced-spill virtual registers.
fn apply_div_const_quirk(l: &mut Lowered) -> HashSet<u16> {
    // Block boundaries are only needed once a candidate division shows up.
    let mut leaders: Option<Vec<bool>> = None;
    let mut force = HashSet::new();
    for i in 0..l.code.len() {
        let (s, is_div) = match &l.code[i] {
            RInst::Bin { op: BinOp::Div | BinOp::Rem, ty, b: Operand::Slot(s), .. }
                if ty.is_int() =>
            {
                (*s, true)
            }
            _ => (0, false),
        };
        if !is_div {
            continue;
        }
        // Find the in-block reaching definition of the divisor slot.
        let leaders = leaders.get_or_insert_with(|| leader_mask(l));
        let mut j = i;
        let reach = loop {
            if j == 0 || leaders[j] {
                break None;
            }
            j -= 1;
            if l.code[j].def() == Some(DstSlot::P(s)) {
                break Some(j);
            }
        };
        let Some(j) = reach else { continue };
        let RInst::ConstP { bits, .. } = l.code[j] else { continue };
        // The slot must be untouched between the constant load and the
        // division (other than by the division itself).
        let touches = |inst: &RInst| {
            let mut seen = false;
            inst.slots(|role, v| seen |= role.is_prim() && v == s);
            seen
        };
        if l.code[j + 1..i].iter().any(touches) {
            continue;
        }
        let tmp = l.n_pvreg;
        l.n_pvreg += 1;
        l.code[j] = RInst::ConstP { dst: tmp, bits };
        if let RInst::Bin { b, .. } = &mut l.code[i] {
            *b = Operand::Slot(tmp);
        }
        force.insert(tmp);
    }
    force
}

#[cfg(test)]
mod tests {
    use crate::machine::declare_prelude;
    use crate::profile::VmProfile;
    use crate::rir::{print_rir, RInst};
    use crate::Vm;
    use hpcnet_cil::{BinOp, CilType, CmpOp, MethodKind, ModuleBuilder};

    /// Build `static int F(int n)` with the given body emitter and return
    /// the RIR text per profile.
    fn rir_for(
        profile: VmProfile,
        build: impl FnOnce(&mut hpcnet_cil::MethodBuilder),
    ) -> (String, Vec<RInst>) {
        let (text, code, _) = rir_and_vm(profile, build);
        (text, code)
    }

    /// Like [`rir_for`] but also hands back the `Vm` so tests can inspect
    /// the optimization counters the compile incremented.
    fn rir_and_vm(
        profile: VmProfile,
        build: impl FnOnce(&mut hpcnet_cil::MethodBuilder),
    ) -> (String, Vec<RInst>, std::sync::Arc<Vm>) {
        let mut mb = ModuleBuilder::new();
        declare_prelude(&mut mb);
        let c = mb.declare_class("P", None);
        let mut f = mb.method(c, "F", vec![CilType::I4], CilType::I4, MethodKind::Static);
        build(&mut f);
        f.finish();
        let m = mb.finish();
        let vm = Vm::new(m, profile).unwrap();
        let id = vm.module.find_method("P.F").unwrap();
        let rir = vm.compiled(id).unwrap();
        (print_rir(&rir), rir.code.clone(), vm)
    }

    fn const_times_eight(f: &mut hpcnet_cil::MethodBuilder) {
        f.ld_arg(0);
        f.ldc_i4(8);
        f.bin(BinOp::Mul);
        f.ret();
    }

    #[test]
    fn strength_reduction_turns_const_mul_into_shift() {
        // CLR reduces ×8 to <<3; IBM (no SR) keeps the multiply.
        let (clr, _) = rir_for(VmProfile::clr11(), const_times_eight);
        assert!(clr.contains("shl"), "{clr}");
        let (ibm, _) = rir_for(VmProfile::jvm_ibm131(), const_times_eight);
        assert!(!ibm.contains("shl"), "{ibm}");
        assert!(ibm.contains("mul"), "{ibm}");
    }

    #[test]
    fn imm_fusion_is_ibm_only() {
        let add_const = |f: &mut hpcnet_cil::MethodBuilder| {
            f.ld_arg(0);
            f.ldc_i4(7);
            f.bin(BinOp::Add);
            f.ret();
        };
        let (ibm, _) = rir_for(VmProfile::jvm_ibm131(), add_const);
        assert!(ibm.contains("#0x7"), "IBM should fuse the constant:\n{ibm}");
        let (mono, _) = rir_for(VmProfile::mono023(), add_const);
        assert!(
            !mono.lines().any(|l| l.contains("add") && l.contains('#')),
            "Mono must not fuse immediates:\n{mono}"
        );
    }

    #[test]
    fn dce_erases_stack_shuffles_on_optimizing_tiers() {
        let body = |f: &mut hpcnet_cil::MethodBuilder| {
            let x = f.local(CilType::I4);
            f.ld_arg(0);
            f.st_loc(x);
            f.ld_loc(x);
            f.ld_loc(x);
            f.bin(BinOp::Add);
            f.ret();
        };
        let (_, clr) = rir_for(VmProfile::clr11(), body);
        let (_, mono) = rir_for(VmProfile::mono023(), body);
        assert!(clr.len() < mono.len(), "CLR {} vs Mono {}", clr.len(), mono.len());
        // Neither contains nops after compaction.
        assert!(!clr.iter().any(|i| matches!(i, RInst::Nop)));
        assert!(!mono.iter().any(|i| matches!(i, RInst::Nop)));
    }

    #[test]
    fn constant_folding_collapses_pure_subexpressions() {
        let body = |f: &mut hpcnet_cil::MethodBuilder| {
            // return n + (6 * 7 - 2);
            f.ld_arg(0);
            f.ldc_i4(6);
            f.ldc_i4(7);
            f.bin(BinOp::Mul);
            f.ldc_i4(2);
            f.bin(BinOp::Sub);
            f.bin(BinOp::Add);
            f.ret();
        };
        let (text, code) = rir_for(VmProfile::jvm_ibm131(), body);
        // The folded 40 appears as an immediate; no mul/sub survives.
        assert!(text.contains("#0x28"), "{text}");
        assert!(
            !code.iter().any(|i| matches!(i, RInst::Bin { op: BinOp::Mul | BinOp::Sub, .. })),
            "{text}"
        );
    }

    #[test]
    fn enregistration_cap_forces_spills() {
        // 40 live locals under a cap of 24 (Sun) must produce spill slots;
        // under 64 (CLR) none.
        let body = |f: &mut hpcnet_cil::MethodBuilder| {
            let locals: Vec<u16> = (0..40).map(|_| f.local(CilType::I4)).collect();
            for (k, &l) in locals.iter().enumerate() {
                f.ld_arg(0);
                f.ldc_i4(k as i32);
                f.bin(BinOp::Add);
                f.st_loc(l);
            }
            let head = f.new_label();
            let exit = f.new_label();
            f.place(head);
            f.ld_arg(0);
            f.ldc_i4(0);
            f.br_cmp(CmpOp::Le, exit);
            // keep everything live across the loop
            for &l in &locals {
                f.ld_loc(l);
                f.ldc_i4(1);
                f.bin(BinOp::Add);
                f.st_loc(l);
            }
            f.ld_arg(0);
            f.ldc_i4(1);
            f.bin(BinOp::Sub);
            f.st_arg(0);
            f.br(head);
            f.place(exit);
            f.ld_loc(locals[39]);
            f.ret();
        };
        let (sun, _) = rir_for(VmProfile::jvm_sun14(), body);
        assert!(sun.contains("[psp"), "Sun's 24-reg cap must spill:\n{sun}");
        let (clr, _) = rir_for(VmProfile::clr11(), body);
        assert!(!clr.contains("[psp"), "CLR's 64-reg cap fits 40 locals:\n{clr}");
    }

    // -- loop-aware tier --------------------------------------------------

    /// `int s = 0; for (int j = 0; j < a.Length; j++) s += a[j];` over a
    /// freshly allocated `int[n]`.
    fn sum_over_length_loop(f: &mut hpcnet_cil::MethodBuilder) {
        use hpcnet_cil::{ElemKind, Op};
        let arr = f.local(CilType::array_of(CilType::I4));
        let s = f.local(CilType::I4);
        let j = f.local(CilType::I4);
        f.ld_arg(0);
        f.emit(Op::NewArr(ElemKind::I4));
        f.st_loc(arr);
        f.ldc_i4(0);
        f.st_loc(s);
        f.ldc_i4(0);
        f.st_loc(j);
        let head = f.new_label();
        let exit = f.new_label();
        f.place(head);
        f.ld_loc(j);
        f.ld_loc(arr);
        f.emit(Op::LdLen);
        f.br_cmp(CmpOp::Ge, exit);
        f.ld_loc(s);
        f.ld_loc(arr);
        f.ld_loc(j);
        f.emit(Op::LdElem(ElemKind::I4));
        f.bin(BinOp::Add);
        f.st_loc(s);
        f.ld_loc(j);
        f.ldc_i4(1);
        f.bin(BinOp::Add);
        f.st_loc(j);
        f.br(head);
        f.place(exit);
        f.ld_loc(s);
        f.ret();
    }

    #[test]
    fn abce_unchecks_length_guarded_access() {
        let (clr, _, vm) = rir_and_vm(VmProfile::clr11(), sum_over_length_loop);
        assert!(clr.contains(".nobound"), "CLR must drop the in-range check:\n{clr}");
        assert!(
            vm.counters.snapshot().bounds_checks_eliminated > 0
        );
        assert!(vm.counters.loops_found.load(std::sync::atomic::Ordering::Relaxed) > 0);

        let (mono, _, vm) = rir_and_vm(VmProfile::mono023(), sum_over_length_loop);
        assert!(!mono.contains(".nobound"), "Mono has no ABCE:\n{mono}");
        assert_eq!(
            vm.counters.snapshot().bounds_checks_eliminated,
            0
        );
    }

    /// Same loop, but the hoisted bound local is decremented inside the
    /// body: `int len = a.Length; for (j = 0; j < len; j++) { s += a[j];
    /// len = len - 1; }`. The bound is no longer the array's length on
    /// every iteration, so ABCE must leave the check in place.
    fn mutated_bound_loop(f: &mut hpcnet_cil::MethodBuilder) {
        use hpcnet_cil::{ElemKind, Op};
        let arr = f.local(CilType::array_of(CilType::I4));
        let len = f.local(CilType::I4);
        let s = f.local(CilType::I4);
        let j = f.local(CilType::I4);
        f.ld_arg(0);
        f.emit(Op::NewArr(ElemKind::I4));
        f.st_loc(arr);
        f.ld_loc(arr);
        f.emit(Op::LdLen);
        f.st_loc(len);
        f.ldc_i4(0);
        f.st_loc(s);
        f.ldc_i4(0);
        f.st_loc(j);
        let head = f.new_label();
        let exit = f.new_label();
        f.place(head);
        f.ld_loc(j);
        f.ld_loc(len);
        f.br_cmp(CmpOp::Ge, exit);
        f.ld_loc(s);
        f.ld_loc(arr);
        f.ld_loc(j);
        f.emit(Op::LdElem(ElemKind::I4));
        f.bin(BinOp::Add);
        f.st_loc(s);
        f.ld_loc(len);
        f.ldc_i4(1);
        f.bin(BinOp::Sub);
        f.st_loc(len);
        f.ld_loc(j);
        f.ldc_i4(1);
        f.bin(BinOp::Add);
        f.st_loc(j);
        f.br(head);
        f.place(exit);
        f.ld_loc(s);
        f.ret();
    }

    #[test]
    fn abce_keeps_checks_when_bound_is_mutated() {
        let (clr, _, vm) = rir_and_vm(VmProfile::clr11(), mutated_bound_loop);
        assert!(!clr.contains(".nobound"), "mutated bound must stay checked:\n{clr}");
        assert_eq!(
            vm.counters.snapshot().bounds_checks_eliminated,
            0
        );
    }

    /// The single-definition `int len = a.Length;` idiom (no mutation)
    /// must be recognized through the global fact.
    fn hoisted_len_loop(f: &mut hpcnet_cil::MethodBuilder) {
        use hpcnet_cil::{ElemKind, Op};
        let arr = f.local(CilType::array_of(CilType::I4));
        let len = f.local(CilType::I4);
        let s = f.local(CilType::I4);
        let j = f.local(CilType::I4);
        f.ld_arg(0);
        f.emit(Op::NewArr(ElemKind::I4));
        f.st_loc(arr);
        f.ld_loc(arr);
        f.emit(Op::LdLen);
        f.st_loc(len);
        f.ldc_i4(0);
        f.st_loc(s);
        f.ldc_i4(0);
        f.st_loc(j);
        let head = f.new_label();
        let exit = f.new_label();
        f.place(head);
        f.ld_loc(j);
        f.ld_loc(len);
        f.br_cmp(CmpOp::Ge, exit);
        f.ld_loc(s);
        f.ld_loc(arr);
        f.ld_loc(j);
        f.emit(Op::LdElem(ElemKind::I4));
        f.bin(BinOp::Add);
        f.st_loc(s);
        f.ld_loc(j);
        f.ldc_i4(1);
        f.bin(BinOp::Add);
        f.st_loc(j);
        f.br(head);
        f.place(exit);
        f.ld_loc(s);
        f.ret();
    }

    #[test]
    fn abce_sees_through_hoisted_length_local() {
        let (clr, _, _) = rir_and_vm(VmProfile::clr11(), hoisted_len_loop);
        assert!(clr.contains(".nobound"), "single-def len local is the array length:\n{clr}");
    }

    #[test]
    fn licm_hoists_invariant_multiply() {
        // for (j = 0; j < n; j++) s += n * 3;  — the multiply is invariant.
        let body = |f: &mut hpcnet_cil::MethodBuilder| {
            let s = f.local(CilType::I4);
            let j = f.local(CilType::I4);
            f.ldc_i4(0);
            f.st_loc(s);
            f.ldc_i4(0);
            f.st_loc(j);
            let head = f.new_label();
            let exit = f.new_label();
            f.place(head);
            f.ld_loc(j);
            f.ld_arg(0);
            f.br_cmp(CmpOp::Ge, exit);
            f.ld_loc(s);
            f.ld_arg(0);
            f.ldc_i4(3);
            f.bin(BinOp::Mul);
            f.bin(BinOp::Add);
            f.st_loc(s);
            f.ld_loc(j);
            f.ldc_i4(1);
            f.bin(BinOp::Add);
            f.st_loc(j);
            f.br(head);
            f.place(exit);
            f.ld_loc(s);
            f.ret();
        };
        let (clr, _, vm) = rir_and_vm(VmProfile::clr11(), body);
        assert!(
            vm.counters.licm_hoisted.load(std::sync::atomic::Ordering::Relaxed) > 0,
            "CLR should hoist n*3 out of the loop:\n{clr}"
        );
        let (_, _, vm) = rir_and_vm(VmProfile::mono023(), body);
        assert_eq!(vm.counters.licm_hoisted.load(std::sync::atomic::Ordering::Relaxed), 0);
    }

    // -- compile-cost model and the incremental checker --------------------

    use super::{dead_code_elim, optimize, scalar_passes, MethodCtx, Scratch};
    use crate::observe::{JitOutcome, ObserveLevel, Observer};
    use crate::rir::audit::{check_cert, CertKind, ElisionCert};
    use crate::rir::loops::{built, Cfg};
    use crate::rir::lower::{lower, Lowered};
    use crate::rir::{ArgSlot, BoundsMode, Operand};
    use hpcnet_cil::NumTy;

    /// An observer that times nothing, for running passes without a VM.
    fn off() -> Observer {
        Observer::new(ObserveLevel::Off, 0)
    }

    /// Lower `P.F` of a MiniC# source, no passes run.
    fn lowered_f(src: &str) -> Lowered {
        let vm = Vm::new(hpcnet_minics::compile(src).unwrap(), VmProfile::clr11()).unwrap();
        let id = vm.module.find_method("P.F").unwrap();
        lower(&vm, id, false, 0, &mut Scratch::default()).unwrap()
    }

    /// `n` sequential `for (i = 0; i < a.Length; i++) a[i] = i;` loops.
    fn sequential_loops(n: usize) -> Lowered {
        let loops: String = (0..n)
            .map(|k| format!("for (int i{k} = 0; i{k} < a.Length; i{k}++) {{ a[i{k}] = i{k}; }}\n"))
            .collect();
        lowered_f(&format!(
            "class P {{ static int F(int n) {{ int[] a = new int[n];\n{loops} return a[0]; }} }}"
        ))
    }

    #[test]
    fn bce_verifies_every_candidate_on_one_context() {
        for n in [4usize, 16, 64] {
            let mut l = sequential_loops(n);
            let (_, analyses) = built::totals();
            let mut outcome = JitOutcome::default();
            scalar_passes(&VmProfile::clr11().passes, &mut l, &mut outcome, &off(), &mut Scratch::default());
            assert_eq!(outcome.bce_removed as usize, n, "one store per loop loses its check");
            assert_eq!(l.certs.len(), n);
            assert_eq!(
                built::totals().1 - analyses,
                1,
                "{n} candidates must share one checker context"
            );
        }
    }

    #[test]
    fn structural_bce_reads_blocks_and_definitions_only() {
        let mut l = sequential_loops(16);
        let (loops, scans) = built::loop_analyses_and_fact_scans();
        let mut outcome = JitOutcome::default();
        scalar_passes(&VmProfile::clr11().passes, &mut l, &mut outcome, &off(), &mut Scratch::default());
        assert_eq!(outcome.bce_removed, 16);
        assert_eq!(
            built::loop_analyses_and_fact_scans(),
            (loops, scans + 1),
            "one fact scan and no natural-loop analysis"
        );
    }

    #[test]
    fn loop_passes_run_once_per_structural_version() {
        // A method without a loop: the structural matcher's one fact scan
        // on the lowered body, one block partition, and no loop-tier work.
        let mut flat = lowered_f(
            "class P { static int F(int n) {
                int[] a = new int[4]; a[n & 3] = n; return a[0] + n * 3; } }",
        );
        let (cfgs, analyses) = built::totals();
        let (loops, scans) = built::loop_analyses_and_fact_scans();
        let res = optimize(&VmProfile::clr11().passes, &mut flat, &off(), &mut Scratch::default());
        assert_eq!(res.outcome.loops_found, 0);
        assert_eq!(built::totals(), (cfgs + 1, analyses + 1));
        assert_eq!(built::loop_analyses_and_fact_scans(), (loops, scans + 1));
        // Loops: a fact scan per structural version (lowered, compacted,
        // after LICM) and the natural loops of the last two.
        let mut looped = sequential_loops(4);
        let (loops, scans) = built::loop_analyses_and_fact_scans();
        let res = optimize(&VmProfile::clr11().passes, &mut looped, &off(), &mut Scratch::default());
        assert_eq!((res.outcome.loops_found, res.outcome.licm_hoisted), (4, 4));
        assert_eq!(built::loop_analyses_and_fact_scans(), (loops + 2, scans + 3));
    }

    #[test]
    fn three_block_partitions_per_compile_whatever_the_loop_count() {
        let builds = |n: usize| {
            let mut l = sequential_loops(n);
            let (cfgs, _) = built::totals();
            let res = optimize(&VmProfile::clr11().passes, &mut l, &off(), &mut Scratch::default());
            assert_eq!(res.outcome.bce_removed as usize, n);
            assert_eq!(res.outcome.loops_found as usize, n);
            built::totals().0 - cfgs
        };
        // One block partition for the scalar passes, one for the loop
        // tier, one after the LICM round that hoists every loop's `ldlen`
        // — and nothing per hoisted loop or per elision candidate.
        for n in [4, 16, 64] {
            assert_eq!(builds(n), 3, "CFG builds for {n} loops");
        }
    }

    /// One method per hoisting shape: a 3-deep nest with an invariant at
    /// every level, two sibling loops, a loop inside `try` (skipped), a
    /// same-block `const → mul` chain, a loop whose lone `ConstP` plan is
    /// dropped, and an inner loop whose hoisted chain reads a constant
    /// defined just before its header, which makes the chain invariant in
    /// the enclosing loop only once it is hoisted (a later sibling loop
    /// pins that the enclosing loop still hoists before it).
    const HOIST_SHAPES: &str = "class P {
        static int Nest(int n, int m) {
            int s = 0;
            for (int i = 0; i < n; i++) {
                int a = n - m;
                for (int j = 0; j < m; j++) {
                    int b = i ^ n;
                    for (int k = 0; k < n; k++) { s = s + a + b + (j | m) + (n & m); }
                }
            }
            return s;
        }
        static int Siblings(int[] a, int n) {
            int s = 0;
            for (int i = 0; i < a.Length; i++) { s = s + a[i] * (n + 1); }
            for (int j = 0; j < a.Length; j++) { s = s + a[j] * (n - 1); }
            return s;
        }
        static int Guarded(int n) {
            int s = 0;
            try {
                for (int i = 0; i < n; i++) { s = s + n * 9; }
            } catch (IndexOutOfRangeException e) { s = -1; }
            return s;
        }
        static int Chain(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) { s = s + n * 13; }
            return s;
        }
        static int LoneConst(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) { s = s + 5; }
            return s;
        }
        static int Feed(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) {
                double d = -(1000000.0 - 0.5);
                for (int j = 0; j < n; j++) { s = s + ((((int)(-d)) & 15) + 1); }
            }
            for (int k = 0; k < n; k++) { s = s + n * 13; }
            return s;
        }
    }";

    /// FNV-1a 64 of a listing.
    fn fnv1a64(text: &str) -> u64 {
        text.bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
    }

    /// The allocated listing of one [`HOIST_SHAPES`] method on a fresh VM,
    /// and how many instructions compiling it hoisted.
    fn hoisted_listing(profile: VmProfile, method: &str) -> (String, u64) {
        let vm = Vm::new(hpcnet_minics::compile(HOIST_SHAPES).unwrap(), profile).unwrap();
        let rir = vm.compiled(vm.module.find_method(method).unwrap()).unwrap();
        let hoisted = vm.counters.licm_hoisted.load(std::sync::atomic::Ordering::Relaxed);
        (print_rir(&rir), hoisted)
    }

    #[test]
    fn hoist_order_and_fresh_registers_are_pinned() {
        // (method, clr11 listing, clr11_compiled listing, hoisted)
        let pinned: [(&str, u64, u64, u64); 6] = [
            ("P.Nest", 0xb2d4_c371_555e_fefb, 0x73f4_ab01_61a8_8da3, 4),
            ("P.Siblings", 0xb5d9_a4c3_fac0_12ff, 0x4f27_875c_82d1_d227, 6),
            ("P.Guarded", 0x3067_2b9f_3fb9_8573, 0xc9f4_0b24_1716_277a, 0),
            ("P.Chain", 0x5ec7_d759_39fb_443a, 0xf584_c900_1765_dfe2, 2),
            ("P.LoneConst", 0x3a46_c14b_5d6f_42cd, 0x6ae4_08c8_bf49_99c7, 0),
            ("P.Feed", 0x9da2_c282_2b9d_0512, 0x9f49_57c8_e735_c5f5, 15),
        ];
        let mut got = Vec::new();
        let mut listings = String::new();
        for (name, ..) in pinned {
            let (rir, hoisted) = hoisted_listing(VmProfile::clr11(), name);
            let (compiled, hoisted_compiled) = hoisted_listing(VmProfile::clr11_compiled(), name);
            assert_eq!(hoisted, hoisted_compiled, "both tiers run one pass pipeline");
            listings += &format!("== {name}: {hoisted} hoisted\n{rir}\n{compiled}");
            got.push((name, fnv1a64(&rir), fnv1a64(&compiled), hoisted));
        }
        assert_eq!(got, pinned, "\n{got:#x?}\n{listings}");
    }

    #[test]
    fn hoisting_stops_after_64_loops() {
        let mut l = sequential_loops(70);
        let res = optimize(&VmProfile::clr11().passes, &mut l, &off(), &mut Scratch::default());
        assert_eq!(res.outcome.loops_found, 70);
        assert_eq!(res.outcome.licm_hoisted, 64, "one `ldlen` from each of the first 64 loops");
    }

    /// Hand-written RIR over four primitive slots; `p0` is returned.
    fn raw_body(code: Vec<RInst>) -> Lowered {
        Lowered {
            code,
            eh: Vec::new(),
            eh_exc_vregs: Vec::new(),
            arg_locs: Vec::new(),
            n_pvreg: 4,
            n_rvreg: 0,
            certs: Vec::new(),
        }
    }

    fn add_imm(dst: u16, a: u16, k: u64) -> RInst {
        RInst::Bin { op: BinOp::Add, ty: NumTy::I4, dst, a, b: Operand::Imm(k) }
    }

    const RET_P0: RInst = RInst::Ret { src: Some(ArgSlot::P(NumTy::I4, 0)) };

    /// Run dead-code elimination; how many liveness problems it solved.
    fn dce_liveness_solves(l: &mut Lowered) -> u64 {
        let before = built::liveness_solves();
        dead_code_elim(l, &Cfg::build(l), &mut Scratch::default());
        built::liveness_solves() - before
    }

    #[test]
    fn dce_solves_once_when_no_upward_exposed_use_dies() {
        // `p2` is dead, and so is `p1` once `p2` goes; `p1`'s own use of
        // `p0` is not the block's only one, so its upward-exposed uses
        // stay the same and the first solution stands.
        let mut l = raw_body(vec![add_imm(1, 0, 1), add_imm(2, 1, 2), RET_P0]);
        assert_eq!(dce_liveness_solves(&mut l), 1);
        assert!(matches!(l.code[..], [RInst::Nop, RInst::Nop, RInst::Ret { .. }]));
    }

    #[test]
    fn dce_solves_again_for_a_dead_chain_across_blocks() {
        // Deleting `p2` in the second block removes its upward-exposed use
        // of `p1`, which only a second solve shows dead in the first block.
        let mut l = raw_body(vec![
            RInst::ConstP { dst: 1, bits: 5 },
            RInst::Br { t: 2 },
            add_imm(2, 1, 1),
            RET_P0,
        ]);
        assert_eq!(dce_liveness_solves(&mut l), 2);
        assert!(matches!(
            l.code[..],
            [RInst::Nop, RInst::Br { t: 2 }, RInst::Nop, RInst::Ret { .. }]
        ));
    }

    #[test]
    fn dce_solves_each_block_when_a_successor_changes() {
        // Four loops in a row, unoptimized: the solve visits each of the
        // 13 blocks once and then only a block whose successor's live-in
        // changed after its visit, once per loop here.
        let mut l = sequential_loops(4);
        let cfg = Cfg::build(&l);
        let (solves, visits) = (built::liveness_solves(), built::liveness_visits());
        dead_code_elim(&mut l, &cfg, &mut Scratch::default());
        let solved = built::liveness_solves() - solves;
        assert_eq!((cfg.ranges.len(), solved), (13, 1));
        assert_eq!(built::liveness_visits() - visits, 17);
    }

    #[test]
    fn checker_rejects_the_seed_330_shape_next_to_a_sound_elision() {
        // The second loop is conform seed 330: `i != al.Length` inside a
        // ternary looks like a length guard to the block-local matcher,
        // but `i < 12` is what actually controls `al[i]`.
        let mut l = lowered_f(
            "class P { static int F(int n) {
                int[] b = new int[n]; int[] al = new int[8]; int s = 0;
                for (int i = 0; i < b.Length; i++) { s = s + b[i]; }
                for (int j = 0; j < 12; j++) { s = s + ((j != al.Length) ? al[j] : 0); }
                return s; } }",
        );
        let mut outcome = JitOutcome::default();
        scalar_passes(&VmProfile::clr11().passes, &mut l, &mut outcome, &off(), &mut Scratch::default());
        assert_eq!(outcome.bce_removed, 1, "only `b[i]` is provable");
        let accesses: Vec<usize> =
            (0..l.code.len()).filter(|&pc| l.code[pc].bounds().is_some()).collect();
        let [sound, unsound] = accesses[..] else { panic!("two element accesses: {accesses:?}") };
        assert_eq!(l.code[sound].bounds(), Some(BoundsMode::ElidedIdiom));
        assert_eq!(l.code[unsound].bounds(), Some(BoundsMode::Checked));

        // Non-vacuity: the pass-side facts *do* propose `al[j]` — a compare
        // of its index against its array's length exists — and it is the
        // checker, on the same context that accepted `b[i]`, that refuses.
        let mut ctx = MethodCtx::new(&l, Scratch::default());
        let (an, facts) = ctx.facts(&l);
        let (ivar, arr) = facts.access(unsound).unwrap();
        let proposed: Vec<u32> = facts
            .guards()
            .filter(|(_, g)| {
                (g.a == ivar && g.b_len_raw == Some(arr)) || (g.b == Some(ivar) && g.a_len_raw == Some(arr))
            })
            .map(|(pc, _)| pc)
            .collect();
        assert!(!proposed.is_empty(), "the matcher no longer sees the ternary compare");
        let block_guard = |pc: usize, guard_pc: u32, ivar: u16, arr: u16| ElisionCert {
            pc: pc as u32,
            mechanism: BoundsMode::ElidedIdiom,
            kind: CertKind::BlockGuard { guard_pc, ivar, arr },
        };
        for &g in &proposed {
            let verdict = check_cert(&l, an, &block_guard(unsound, g, ivar, arr));
            assert!(verdict.is_err(), "guard at {g} must not certify al[j]");
        }
        // ... and not because it refuses everything: no I4 compare in the
        // method certifies `al[j]`, while `b[i]`'s own certificate passes.
        for (g, inst) in l.code.iter().enumerate() {
            if matches!(inst, RInst::BrCmp { ty: NumTy::I4, b: Operand::Slot(_), .. }) {
                assert!(check_cert(&l, an, &block_guard(unsound, g as u32, ivar, arr)).is_err());
            }
        }
        assert_eq!(check_cert(&l, an, &l.certs[0]), Ok(()));
        assert_eq!(l.certs[0].pc as usize, sound);
    }
}
