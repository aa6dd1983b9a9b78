//! The per-method structural analysis the JIT front half shares: basic
//! blocks, dominators, natural loops and definition sites.
//!
//! The loop-aware passes ([`crate::rir::opt`]'s ABCE and LICM,
//! [`crate::rir::range`]) and the elision-certificate checker
//! ([`crate::rir::audit`]) all need the structure the era's optimizing
//! JITs recovered before anything else: basic blocks, dominators, natural
//! loops (back edges whose target dominates their source, plus the
//! backward-reachable body), and where each virtual register is written.
//! [`Analysis`] computes that once per *structural version* of a method —
//! it depends on instruction positions, branch targets, EH ranges and
//! destination registers only, so flipping a [`crate::rir::BoundsMode`]
//! leaves it valid, while any pass that inserts, deletes or moves
//! instructions must build a new one. Every table is dense (indexed by
//! pc, block or vreg); building one is linear in the method.
//!
//! The CFG covers *normal* control flow only; any loop whose instructions
//! overlap an exception region is reported as not `clean` and the loop
//! passes skip it — the era's JITs likewise gave up on protected regions,
//! and every Grande/SciMark kernel body is EH-free.

use crate::rir::lower::Lowered;
use crate::rir::opt::Scratch;
use crate::rir::{DstSlot, RInst};
use std::cell::OnceCell;

/// How many structures this thread has built and how many liveness
/// problems it has solved, so tests can pin the optimizer's compile-cost
/// model (one context per structural version, never one per candidate).
#[cfg(test)]
pub(crate) mod built {
    use std::cell::Cell;

    thread_local! {
        static CFGS: Cell<u64> = const { Cell::new(0) };
        static ANALYSES: Cell<u64> = const { Cell::new(0) };
        static LOOPS: Cell<u64> = const { Cell::new(0) };
        static FACT_SCANS: Cell<u64> = const { Cell::new(0) };
        static LIVENESS: Cell<u64> = const { Cell::new(0) };
        static LIVENESS_VISITS: Cell<u64> = const { Cell::new(0) };
    }

    fn bump(c: &'static std::thread::LocalKey<Cell<u64>>) {
        c.with(|c| c.set(c.get() + 1));
    }

    pub(crate) fn count_cfg() {
        bump(&CFGS);
    }

    pub(crate) fn count_analysis() {
        bump(&ANALYSES);
    }

    pub(crate) fn count_loops() {
        bump(&LOOPS);
    }

    pub(crate) fn count_fact_scan() {
        bump(&FACT_SCANS);
    }

    pub(crate) fn count_liveness() {
        bump(&LIVENESS);
    }

    pub(crate) fn count_liveness_visit() {
        bump(&LIVENESS_VISITS);
    }

    /// `(Cfg::build calls, Analysis::new calls)` on this thread so far.
    pub(crate) fn totals() -> (u64, u64) {
        (CFGS.with(Cell::get), ANALYSES.with(Cell::get))
    }

    /// Natural-loop analyses (`Analysis::loops` computed) and block-local
    /// fact scans on this thread so far.
    pub(crate) fn loop_analyses_and_fact_scans() -> (u64, u64) {
        (LOOPS.with(Cell::get), FACT_SCANS.with(Cell::get))
    }

    /// Liveness fixpoints dead-code elimination has solved on this thread
    /// so far.
    pub(crate) fn liveness_solves() -> u64 {
        LIVENESS.with(Cell::get)
    }

    /// Blocks whose live-in dead-code elimination has computed on this
    /// thread so far, over all its fixpoints.
    pub(crate) fn liveness_visits() -> u64 {
        LIVENESS_VISITS.with(Cell::get)
    }
}

/// A fixed-size set of small integers (blocks of one method).
pub(crate) struct BitSet(Vec<u64>);

impl BitSet {
    pub fn new(len: usize) -> BitSet {
        BitSet(vec![0; len.div_ceil(64)])
    }

    pub fn contains(&self, i: usize) -> bool {
        self.0.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 != 0)
    }

    /// Remove every member.
    pub fn clear(&mut self) {
        self.0.fill(0);
    }

    /// Add `i`; true when it was not yet a member.
    pub fn insert(&mut self, i: usize) -> bool {
        let fresh = !self.contains(i);
        self.0[i / 64] |= 1u64 << (i % 64);
        fresh
    }
}

/// Basic-block leaders as a mask over `0..=code.len()`: entry, branch
/// targets, post-terminator instructions, and EH boundaries.
pub(crate) fn leader_mask(l: &Lowered) -> Vec<bool> {
    let mut mask = Vec::new();
    mark_leaders(l, &mut mask);
    mask
}

/// [`leader_mask`] into `mask`.
fn mark_leaders(l: &Lowered, mask: &mut Vec<bool>) {
    mask.clear();
    mask.resize(l.code.len() + 1, false);
    let mut mark = |pc: usize| {
        if let Some(m) = mask.get_mut(pc) {
            *m = true;
        }
    };
    mark(0);
    for (i, inst) in l.code.iter().enumerate() {
        if let Some(t) = inst.target() {
            mark(t as usize);
        }
        if matches!(
            inst,
            RInst::Br { .. }
                | RInst::BrIf { .. }
                | RInst::BrIfRef { .. }
                | RInst::BrCmp { .. }
                | RInst::Ret { .. }
                | RInst::Throw { .. }
                | RInst::Leave { .. }
                | RInst::EndFinally
        ) {
            mark(i + 1);
        }
    }
    for r in &l.eh {
        mark(r.try_start as usize);
        mark(r.handler_start as usize);
    }
}

/// Basic-block partition of a [`Lowered`] body with normal-flow edges.
pub(crate) struct Cfg {
    /// Half-open instruction range per block, in code order.
    pub ranges: Vec<(usize, usize)>,
    /// Block of every pc.
    block_index: Vec<u32>,
    /// Up to two successors per block: branch target first, then the
    /// fall-through.
    succs: Vec<([usize; 2], u8)>,
    /// Predecessors, flattened: block `b`'s are
    /// `pred_items[pred_start[b]..pred_start[b + 1]]`, ascending.
    pred_start: Vec<u32>,
    pred_items: Vec<usize>,
}

impl Cfg {
    pub fn build(l: &Lowered) -> Cfg {
        Cfg::build_in(l, &mut Scratch::default())
    }

    /// [`Cfg::build`] with its tables drawn from the compile's spares.
    pub fn build_in(l: &Lowered, scratch: &mut Scratch) -> Cfg {
        #[cfg(test)]
        built::count_cfg();
        let n = l.code.len();
        let mut mask = scratch.bools.take();
        mark_leaders(l, &mut mask);
        let mut ranges = scratch.ranges.take();
        ranges.reserve(mask[..n].iter().filter(|&&m| m).count());
        let mut block_index = scratch.u32s.filled(n, 0);
        for pc in 0..n {
            if mask[pc] {
                if let Some(last) = ranges.last_mut() {
                    last.1 = pc;
                }
                ranges.push((pc, n));
            }
            block_index[pc] = ranges.len() as u32 - 1;
        }
        scratch.bools.give(mask);
        let nb = ranges.len();
        let mut succs = scratch.succs.filled(nb, ([0usize; 2], 0u8));
        let mut pred_start = scratch.u32s.filled(nb + 1, 0);
        for (b, &(_, end)) in ranges.iter().enumerate() {
            let last = &l.code[end - 1];
            let falls = !matches!(
                last,
                RInst::Br { .. }
                    | RInst::Ret { .. }
                    | RInst::Throw { .. }
                    | RInst::Leave { .. }
                    | RInst::EndFinally
            );
            let target = last.target().map(|t| block_index[t as usize] as usize);
            let fall = (falls && end < n).then(|| block_index[end] as usize);
            for s in target.into_iter().chain(fall) {
                let (slots, k) = &mut succs[b];
                slots[*k as usize] = s;
                *k += 1;
                pred_start[s + 1] += 1;
            }
        }
        for b in 0..nb {
            pred_start[b + 1] += pred_start[b];
        }
        let mut fill = scratch.u32s.take();
        fill.extend_from_slice(&pred_start);
        let mut pred_items = scratch.usizes.filled(pred_start[nb] as usize, 0);
        for (b, (slots, k)) in succs.iter().enumerate() {
            for &s in &slots[..*k as usize] {
                pred_items[fill[s] as usize] = b;
                fill[s] += 1;
            }
        }
        scratch.u32s.give(fill);
        Cfg { ranges, block_index, succs, pred_start, pred_items }
    }

    /// Give the partition's tables back to the compile's spares.
    pub fn recycle(self, scratch: &mut Scratch) {
        let Cfg { ranges, block_index, succs, pred_start, pred_items } = self;
        scratch.ranges.give(ranges);
        scratch.u32s.give(block_index);
        scratch.succs.give(succs);
        scratch.u32s.give(pred_start);
        scratch.usizes.give(pred_items);
    }

    pub fn block_of(&self, pc: u32) -> usize {
        self.block_index[pc as usize] as usize
    }

    pub fn succs(&self, b: usize) -> &[usize] {
        let (slots, k) = &self.succs[b];
        &slots[..*k as usize]
    }

    pub fn preds(&self, b: usize) -> &[usize] {
        &self.pred_items[self.pred_start[b] as usize..self.pred_start[b + 1] as usize]
    }

    /// Dominator sets via iterative bit-vector dataflow, one flat `u64`
    /// row per block (blocks are few; simplicity over the Lengauer–Tarjan
    /// constant). `row(b)` has bit `d` set when block `d` dominates `b`;
    /// a block with no predecessors converges to `{b}` alone and thus
    /// never contributes a non-trivial back edge.
    fn dominators(&self) -> DomSets {
        let nb = self.ranges.len();
        let words = nb.div_ceil(64);
        let mut bits: Vec<u64> = vec![u64::MAX; nb * words];
        bits[..words].fill(0);
        bits[0] = 1; // entry dominated only by itself
        let mut row = vec![0u64; words];
        let mut changed = true;
        while changed {
            changed = false;
            for b in 1..nb {
                row.fill(if self.preds(b).is_empty() { 0 } else { u64::MAX });
                for &p in self.preds(b) {
                    for (r, d) in row.iter_mut().zip(&bits[p * words..(p + 1) * words]) {
                        *r &= *d;
                    }
                }
                row[b / 64] |= 1u64 << (b % 64);
                if row != bits[b * words..(b + 1) * words] {
                    bits[b * words..(b + 1) * words].copy_from_slice(&row);
                    changed = true;
                }
            }
        }
        DomSets { words, bits }
    }
}

/// Flat bitset dominator matrix produced by [`Cfg::dominators`].
struct DomSets {
    words: usize,
    bits: Vec<u64>,
}

impl DomSets {
    /// Does block `d` dominate block `b`?
    fn dominates(&self, d: usize, b: usize) -> bool {
        self.bits[b * self.words + d / 64] >> (d % 64) & 1 != 0
    }
}

/// One natural loop: a header block and the blocks that can reach a back
/// edge without leaving through the header. Loops sharing a header are
/// merged.
pub(crate) struct NaturalLoop {
    pub header: usize,
    /// The loop's blocks, ascending.
    pub body: Vec<usize>,
    member: BitSet,
    /// No instruction of the loop lies inside any EH try or handler range,
    /// so exception edges cannot re-enter the body and the loop passes may
    /// reason over normal flow alone.
    pub clean: bool,
}

impl NaturalLoop {
    /// Is block `b` part of the loop?
    pub fn contains(&self, b: usize) -> bool {
        self.member.contains(b)
    }

    /// Is every block of `inner` part of this loop?
    pub fn encloses(&self, inner: &NaturalLoop) -> bool {
        inner.body.iter().all(|&b| self.contains(b))
    }

    /// Is instruction `pc` inside the loop?
    pub fn contains_pc(&self, cfg: &Cfg, pc: usize) -> bool {
        self.contains(cfg.block_of(pc as u32))
    }

    /// The part of one iteration that runs *after* one of the given
    /// in-loop definitions (an induction variable's increments) without
    /// re-passing the header: the rest of each definition's block, plus
    /// every body block reachable from there short of the header. A header
    /// guard on the variable says nothing about its value in this region.
    pub fn post_region(&self, cfg: &Cfg, def_pcs: &[usize]) -> PostRegion {
        let mut tails = Vec::with_capacity(def_pcs.len());
        let mut blocks = BitSet::new(cfg.ranges.len());
        let mut stack: Vec<usize> = Vec::new();
        let inner = |s: &usize| self.contains(*s) && *s != self.header;
        for &pc in def_pcs {
            let b = cfg.block_of(pc as u32);
            tails.push((pc + 1, cfg.ranges[b].1));
            stack.extend(cfg.succs(b).iter().copied().filter(inner));
        }
        while let Some(b) = stack.pop() {
            if blocks.insert(b) {
                stack.extend(cfg.succs(b).iter().copied().filter(inner));
            }
        }
        PostRegion { tails, blocks }
    }
}

/// See [`NaturalLoop::post_region`].
pub(crate) struct PostRegion {
    /// Half-open pc range after each definition, to its block's end.
    tails: Vec<(usize, usize)>,
    /// Whole blocks downstream of a definition.
    pub blocks: BitSet,
}

impl PostRegion {
    /// Does `pc` follow a definition within the definition's own block?
    pub fn in_tail(&self, pc: usize) -> bool {
        self.tails.iter().any(|&(s, e)| s <= pc && pc < e)
    }

    /// Does any pc of `start..end` follow a definition within the
    /// definition's own block?
    pub fn tail_overlaps(&self, start: usize, end: usize) -> bool {
        self.tails.iter().any(|&(s, e)| s < end && start < e)
    }
}

/// Does any branch go back to its own pc or an earlier one? Block indices
/// cannot increase all the way around a cycle, and every branch target
/// starts a block, so without such a branch there is no loop to find.
pub(crate) fn has_back_branch(l: &Lowered) -> bool {
    l.code
        .iter()
        .enumerate()
        .any(|(pc, inst)| inst.target().is_some_and(|t| t as usize <= pc))
}

/// Find all natural loops (merged per header), headers in ascending order.
fn find_loops(l: &Lowered, cfg: &Cfg) -> Vec<NaturalLoop> {
    #[cfg(test)]
    built::count_loops();
    if !has_back_branch(l) {
        return Vec::new();
    }
    let nb = cfg.ranges.len();
    let dom = cfg.dominators();
    // Back edges b -> h where h dominates b, as (h, b) by header, each
    // header's latches in ascending order.
    let mut back_edges: Vec<(usize, usize)> = Vec::new();
    for b in 0..nb {
        for &s in cfg.succs(b) {
            if dom.dominates(s, b) {
                back_edges.push((s, b));
            }
        }
    }
    back_edges.sort_unstable();
    let mut out = Vec::new();
    // The walk's stack and the blocks it finds, one of each for every
    // loop; a loop keeps an exact copy of its blocks.
    let (mut stack, mut found): (Vec<usize>, Vec<usize>) = (Vec::new(), Vec::new());
    for latches in back_edges.chunk_by(|a, b| a.0 == b.0) {
        let h = latches[0].0;
        // Body: header plus backward closure from the latches that stops
        // at the header.
        let mut member = BitSet::new(nb);
        member.insert(h);
        found.clear();
        found.push(h);
        stack.clear();
        stack.extend(latches.iter().map(|&(_, b)| b));
        while let Some(b) = stack.pop() {
            if member.insert(b) {
                found.push(b);
                stack.extend(cfg.preds(b).iter().copied());
            }
        }
        found.sort_unstable();
        let body = found.to_vec();
        let clean = body.iter().all(|&b| {
            let (start, end) = cfg.ranges[b];
            l.eh.iter().all(|r| {
                let outside_try = end as u32 <= r.try_start || start as u32 >= r.try_end;
                let outside_handler =
                    end as u32 <= r.handler_start || start as u32 >= r.handler_end;
                outside_try && outside_handler
            })
        });
        out.push(NaturalLoop { header: h, body, member, clean });
    }
    out
}

/// Definition sites of every virtual register, ascending by pc.
///
/// "Real" definitions exclude the entry zero-inits (`ConstP 0` /
/// `ConstNull`), matching the invariants the passes rely on: a zero-init
/// does not count against single-definition reasoning (a null array traps
/// before its length matters; a zero length only makes a loop vacuous).
///
/// One table over the combined vreg space, primitive vregs first:
/// reference `v` is entry `n_pvreg + v`, and entry `k`'s sites are
/// `sites[start[k]..start[k + 1]]`.
pub(crate) struct Defs {
    n_pvreg: usize,
    start: Vec<u32>,
    sites: Vec<u32>,
    real: Vec<u32>,
    /// The entry each pc writes, or [`Defs::NONE`].
    entry: Vec<u32>,
}

impl Defs {
    const NONE: u32 = u32::MAX;

    fn collect(l: &Lowered) -> Defs {
        let n_pvreg = l.n_pvreg as usize;
        let total = n_pvreg + l.n_rvreg as usize;
        let mut start = vec![0u32; total + 1];
        let mut real = vec![0u32; total];
        let mut entry: Vec<u32> = Vec::with_capacity(l.code.len());
        for inst in &l.code {
            let (k, zero_init) = match inst.def() {
                Some(DstSlot::P(v)) => (v as usize, matches!(inst, RInst::ConstP { bits: 0, .. })),
                Some(DstSlot::R(v)) => {
                    (n_pvreg + v as usize, matches!(inst, RInst::ConstNull { .. }))
                }
                None => {
                    entry.push(Defs::NONE);
                    continue;
                }
            };
            start[k] += 1;
            real[k] += u32::from(!zero_init);
            entry.push(k as u32);
        }
        // Counts become each entry's end; placing the sites from the last
        // pc down turns every end into its entry's start.
        for k in 1..=total {
            start[k] += start[k - 1];
        }
        let mut sites = vec![0u32; start[total] as usize];
        for (pc, &k) in entry.iter().enumerate().rev() {
            if k != Defs::NONE {
                start[k as usize] -= 1;
                sites[start[k as usize] as usize] = pc as u32;
            }
        }
        Defs { n_pvreg, start, sites, real, entry }
    }

    /// The slot the instruction at `pc` writes: [`RInst::def`], read off
    /// the table.
    pub fn def_at(&self, pc: usize) -> Option<DstSlot> {
        match self.entry[pc] {
            Defs::NONE => None,
            k if (k as usize) < self.n_pvreg => Some(DstSlot::P(k as u16)),
            k => Some(DstSlot::R((k as usize - self.n_pvreg) as u16)),
        }
    }

    /// Entry `k`'s sites; empty for a vreg the method does not have (a
    /// tampered certificate may name one).
    fn entry_sites(&self, k: Option<usize>) -> &[u32] {
        match k.filter(|&k| k < self.real.len()) {
            Some(k) => &self.sites[self.start[k] as usize..self.start[k + 1] as usize],
            None => &[],
        }
    }

    fn p_entry(&self, v: u16) -> Option<usize> {
        Some(v as usize).filter(|&v| v < self.n_pvreg)
    }

    fn r_entry(&self, v: u16) -> Option<usize> {
        Some(self.n_pvreg + v as usize)
    }

    /// The last site of entry `k` in `lo..hi`.
    fn last_in(&self, k: Option<usize>, lo: usize, hi: usize) -> Option<usize> {
        let sites = self.entry_sites(k);
        let n = sites.partition_point(|&s| (s as usize) < hi);
        let s = *sites[..n].last()? as usize;
        (s >= lo).then_some(s)
    }

    fn real_count(&self, k: Option<usize>) -> u32 {
        k.and_then(|k| self.real.get(k)).copied().unwrap_or(0)
    }

    /// Every pc that writes primitive vreg `v`.
    pub fn p_sites(&self, v: u16) -> &[u32] {
        self.entry_sites(self.p_entry(v))
    }

    /// Every pc that writes reference vreg `v`.
    pub fn r_sites(&self, v: u16) -> &[u32] {
        self.entry_sites(self.r_entry(v))
    }

    /// Definitions of primitive `v` other than `ConstP 0`.
    pub fn real_p_count(&self, v: u16) -> u32 {
        self.real_count(self.p_entry(v))
    }

    /// Definitions of reference `v` other than `ConstNull`.
    pub fn real_r_count(&self, v: u16) -> u32 {
        self.real_count(self.r_entry(v))
    }

    /// The last write to primitive `v` in `lo..hi`.
    pub fn last_p_in(&self, v: u16, lo: usize, hi: usize) -> Option<usize> {
        self.last_in(self.p_entry(v), lo, hi)
    }

    /// The last write to reference `v` in `lo..hi`.
    pub fn last_r_in(&self, v: u16, lo: usize, hi: usize) -> Option<usize> {
        self.last_in(self.r_entry(v), lo, hi)
    }
}

/// Everything structural about one version of a method's code. Only the
/// block partition is built up front; natural loops and definition sites
/// are computed on first use, because not every reader needs them:
/// structural bounds-check elision and its certificates read blocks and
/// definitions only, and LICM's re-analyses never ask where anything is
/// defined.
pub(crate) struct Analysis {
    pub cfg: Cfg,
    loops: OnceCell<Vec<NaturalLoop>>,
    defs: OnceCell<Defs>,
}

impl Analysis {
    pub fn new(l: &Lowered) -> Analysis {
        Analysis::with_cfg(Cfg::build(l))
    }

    /// Complete a [`Cfg`] already built for the code this analysis is of.
    pub fn with_cfg(cfg: Cfg) -> Analysis {
        #[cfg(test)]
        built::count_analysis();
        Analysis { cfg, loops: OnceCell::new(), defs: OnceCell::new() }
    }

    /// Natural loops of `l`, headers ascending; `l` must be the code this
    /// analysis was built for.
    pub fn loops(&self, l: &Lowered) -> &[NaturalLoop] {
        self.loops.get_or_init(|| find_loops(l, &self.cfg))
    }

    /// Definition sites of `l`, which must be the code this analysis was
    /// built for.
    pub fn defs(&self, l: &Lowered) -> &Defs {
        self.defs.get_or_init(|| Defs::collect(l))
    }

    /// Start pc of the basic block containing `pc`.
    pub fn block_start(&self, pc: usize) -> usize {
        self.cfg.ranges[self.cfg.block_of(pc as u32)].0
    }

    /// pcs inside `lp` that write primitive `v`, ascending.
    pub fn loop_p_defs<'a>(
        &'a self,
        l: &Lowered,
        lp: &'a NaturalLoop,
        v: u16,
    ) -> impl Iterator<Item = usize> + 'a {
        self.in_loop(self.defs(l).p_sites(v), lp)
    }

    /// pcs inside `lp` that write reference `v`, ascending.
    pub fn loop_r_defs<'a>(
        &'a self,
        l: &Lowered,
        lp: &'a NaturalLoop,
        v: u16,
    ) -> impl Iterator<Item = usize> + 'a {
        self.in_loop(self.defs(l).r_sites(v), lp)
    }

    fn in_loop<'a>(
        &'a self,
        sites: &'a [u32],
        lp: &'a NaturalLoop,
    ) -> impl Iterator<Item = usize> + 'a {
        sites
            .iter()
            .map(|&pc| pc as usize)
            .filter(move |&pc| lp.contains_pc(&self.cfg, pc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rir::lower::Lowered;
    use crate::rir::{Operand, RInst};
    use hpcnet_cil::{CmpOp, NumTy};

    fn lowered(code: Vec<RInst>) -> Lowered {
        Lowered {
            code,
            eh: Vec::new(),
            eh_exc_vregs: Vec::new(),
            arg_locs: Vec::new(),
            n_pvreg: 8,
            n_rvreg: 2,
            certs: Vec::new(),
        }
    }

    #[test]
    fn counted_loop_is_detected() {
        // 0: i = 0
        // 1: if i >= 10 goto 4   <- header
        // 2: i = i + 1
        // 3: goto 1              <- latch / back edge
        // 4: ret
        let l = lowered(vec![
            RInst::ConstP { dst: 0, bits: 0 },
            RInst::BrCmp { op: CmpOp::Ge, ty: NumTy::I4, a: 0, b: Operand::Imm(10), t: 4 },
            RInst::Bin {
                op: hpcnet_cil::BinOp::Add,
                ty: NumTy::I4,
                dst: 0,
                a: 0,
                b: Operand::Imm(1),
            },
            RInst::Br { t: 1 },
            RInst::Ret { src: None },
        ]);
        let an = Analysis::new(&l);
        assert_eq!(an.loops(&l).len(), 1);
        let lp = &an.loops(&l)[0];
        assert!(lp.clean);
        assert_eq!(an.cfg.ranges[lp.header].0, 1);
        assert!(lp.contains_pc(&an.cfg, 2));
        assert!(!lp.contains_pc(&an.cfg, 0));
        assert!(!lp.contains_pc(&an.cfg, 4));
        // Definition sites: `i` is written at 0 (zero-init) and 2.
        assert_eq!(an.defs(&l).p_sites(0), &[0, 2]);
        assert_eq!(an.defs(&l).real_p_count(0), 1);
        assert_eq!(an.loop_p_defs(&l, lp, 0).collect::<Vec<_>>(), vec![2]);
        assert_eq!(an.defs(&l).last_p_in(0, 0, 2), Some(0));
        assert_eq!(an.defs(&l).last_p_in(0, 1, 2), None);
        assert!(an.defs(&l).p_sites(99).is_empty());
        // Everything after the increment, short of the header.
        let post = lp.post_region(&an.cfg, &[2]);
        assert!(post.in_tail(3) && !post.in_tail(2) && !post.in_tail(1));
    }

    #[test]
    fn straight_line_code_has_no_loops() {
        let l = lowered(vec![
            RInst::ConstP { dst: 0, bits: 7 },
            RInst::Ret { src: None },
        ]);
        assert!(Analysis::new(&l).loops(&l).is_empty());
    }
}
