//! Register placement for both register tiers: the one place virtual
//! registers become register-file or spill slots ([`SPILL_BIT`] set; the
//! volatile frame arena).
//!
//! One walk records each virtual register's use count and its first and
//! last occurrence (arguments at pc 0, exception slots at their handler's
//! start). The tier picks the ranking that fills each file's `max_enreg`
//! registers, clamped to the frame's 64 by `call::enreg_cap`: the static
//! use count of CLR 1.x on [`Tier::Rir`] (and on an interpreter VM asked
//! for register code), a linear scan over live intervals on
//! [`Tier::Compiled`]. One rewrite of the code, the argument locations and
//! the exception slots builds the [`RirMethod`]. Placement is
//! deterministic: same input, same slots, on every run and thread.

use crate::call::enreg_cap;
use crate::machine::Vm;
use crate::profile::Tier;
use crate::rir::lower::Lowered;
use crate::rir::opt::{refill, Scratch};
use crate::rir::{ArgSlot, RirMethod, SPILL_BIT};
use hpcnet_cil::module::MethodId;
use std::cmp::Reverse;
use std::collections::HashSet;

/// Where one virtual register occurs: how often, and the span from its
/// first to its last occurrence (its live interval once widened).
#[derive(Clone, Copy)]
struct Occ {
    count: u32,
    first: u32,
    last: u32,
}

impl Occ {
    const NEVER: Occ = Occ { count: 0, first: u32::MAX, last: 0 };

    fn dead(&self) -> bool {
        self.count == 0
    }
}

/// Record an occurrence of `v` at pc `at`.
fn touch(file: &mut [Occ], v: u16, at: u32) {
    let o = &mut file[v as usize];
    o.count += 1;
    o.first = o.first.min(at);
    o.last = o.last.max(at);
}

/// Placement's tables of types no other pass uses, kept in the compile's
/// [`Scratch`] and refilled to the method's size on each use.
#[derive(Default)]
pub(crate) struct Tables {
    pocc: Vec<Occ>,
    rocc: Vec<Occ>,
    /// Backward branches as `(branch pc, target)`, ascending.
    back: Vec<(u32, u32)>,
    /// Intervals holding a register (linear scan).
    active: Vec<(u32, usize, u16)>,
}

/// One file's placement: the vreg → slot map and the sizes it needs.
struct Placement<'t> {
    map: &'t mut Vec<u16>,
    n_reg: u16,
    n_spill: u16,
}

impl<'t> Placement<'t> {
    fn new(map: &'t mut Vec<u16>, n_vregs: usize) -> Placement<'t> {
        refill(map, n_vregs, 0);
        Placement { map, n_reg: 0, n_spill: 0 }
    }

    fn reg(&mut self, v: usize, r: u16) {
        self.map[v] = r;
        self.n_reg = self.n_reg.max(r + 1);
    }

    fn spill(&mut self, v: usize) {
        self.map[v] = SPILL_BIT | self.n_spill;
        self.n_spill += 1;
    }
}

/// Place `l`'s virtual registers with the ranking of the profile's tier.
/// `force_spill_p` names primitive vregs that must live in memory.
pub(crate) fn allocate(
    vm: &Vm,
    method: MethodId,
    l: &Lowered,
    force_spill_p: &HashSet<u16>,
    scratch: &mut Scratch,
) -> RirMethod {
    let Tables { pocc, rocc, back, active } = &mut scratch.place;
    let (mut pmap, mut rmap) = (scratch.u16s.take(), scratch.u16s.take());
    let order = &mut scratch.usizes.take();
    refill(pocc, l.n_pvreg as usize, Occ::NEVER);
    refill(rocc, l.n_rvreg as usize, Occ::NEVER);
    for (pc, inst) in l.code.iter().enumerate() {
        let at = pc as u32;
        inst.slots(|role, v| touch(if role.is_prim() { pocc } else { rocc }, v, at));
    }
    for a in &l.arg_locs {
        match *a {
            ArgSlot::P(_, v) => touch(pocc, v, 0),
            ArgSlot::R(v) => touch(rocc, v, 0),
        }
    }
    for (region, &v) in l.eh.iter().zip(&l.eh_exc_vregs) {
        if v != u16::MAX {
            touch(rocc, v, region.handler_start);
        }
    }

    let cap = enreg_cap(vm.profile.max_enreg);
    if vm.profile.tier == Tier::Compiled {
        back.clear();
        back.extend((0..l.code.len() as u32).filter_map(|j| {
            l.code[j as usize].target().filter(|&t| t <= j).map(|t| (j, t))
        }));
    }
    let mut place = |file: &mut [Occ], map, force: &HashSet<u16>| {
        let out = Placement::new(map, file.len());
        match vm.profile.tier {
            Tier::Compiled => by_live_interval(l, file, out, cap, force, back, order, active),
            Tier::Rir | Tier::Interpreter => by_use_count(file, out, cap, force, order),
        }
    };
    let p = place(pocc, &mut pmap, force_spill_p);
    let r = place(rocc, &mut rmap, &HashSet::new());

    let code = l
        .code
        .iter()
        .map(|inst| {
            let mut inst = inst.clone();
            inst.slots_mut(|role, v| {
                *v = if role.is_prim() { p.map[*v as usize] } else { r.map[*v as usize] }
            });
            inst
        })
        .collect();
    let arg_locs = l
        .arg_locs
        .iter()
        .map(|a| match *a {
            ArgSlot::P(t, v) => ArgSlot::P(t, p.map[v as usize]),
            ArgSlot::R(v) => ArgSlot::R(r.map[v as usize]),
        })
        .collect();
    let eh_exc_slots = l
        .eh_exc_vregs
        .iter()
        .map(|&v| if v == u16::MAX { u16::MAX } else { r.map[v as usize] })
        .collect();

    let (n_preg, n_pspill, n_rreg, n_rspill) = (p.n_reg, p.n_spill, r.n_reg, r.n_spill);
    scratch.u16s.give(pmap);
    scratch.u16s.give(rmap);
    scratch.usizes.give(std::mem::take(order));
    let eh = l.eh.clone();
    RirMethod { method, code, eh, eh_exc_slots, arg_locs, n_preg, n_pspill, n_rreg, n_rspill }
}

/// The use-count ranking: a stable sort by descending count; the first
/// `cap` live, unforced values get registers, and spill slots are numbered
/// in ranking order.
fn by_use_count<'t>(
    file: &[Occ],
    mut out: Placement<'t>,
    cap: u16,
    force: &HashSet<u16>,
    order: &mut Vec<usize>,
) -> Placement<'t> {
    order.clear();
    order.extend(0..file.len());
    // Ties keep vreg order, as a stable sort of `0..len` would.
    order.sort_unstable_by_key(|&v| (Reverse(file[v].count), v));
    for &v in order.iter() {
        if !force.contains(&(v as u16)) && out.n_reg < cap && !file[v].dead() {
            out.reg(v, out.n_reg);
        } else {
            out.spill(v);
        }
    }
    out
}

/// The linear scan. Occurrence spans first become live intervals: a value
/// live across a backward branch is live for the whole loop (branches in
/// pc order reach the fixpoint in one pass), and since exception dispatch
/// enters handlers along edges linear order cannot see, every live value
/// of a method with exception regions spans the whole body. Dead and
/// forced values take spill slots first, in vreg order; the rest go in
/// `(start, vreg)` order to the lowest free register. When the file is
/// full, the interval with the furthest end is evicted to memory if it
/// outlives the new one; otherwise the new one spills.
#[allow(clippy::too_many_arguments)]
fn by_live_interval<'t>(
    l: &Lowered,
    file: &mut [Occ],
    mut out: Placement<'t>,
    cap: u16,
    force: &HashSet<u16>,
    back: &[(u32, u32)],
    order: &mut Vec<usize>,
    active: &mut Vec<(u32, usize, u16)>,
) -> Placement<'t> {
    let len = l.code.len() as u32;
    for o in file.iter_mut().filter(|o| !o.dead()) {
        if !l.eh.is_empty() {
            (o.first, o.last) = (0, len);
        }
        // Only a branch past the interval's end can widen it.
        let past = back.partition_point(|&(j, _)| j <= o.last);
        for &(j, t) in &back[past..] {
            if o.last >= t && o.last < j {
                o.last = j;
            }
        }
    }

    order.clear();
    for (v, o) in file.iter().enumerate() {
        if o.dead() || force.contains(&(v as u16)) {
            out.spill(v);
        } else {
            order.push(v);
        }
    }
    order.sort_unstable_by_key(|&v| (file[v].first, v));
    // Free registers as bits: `cap` is at most 64, and the lowest set bit
    // is the lowest free register.
    let mut free: u64 = if cap >= 64 { u64::MAX } else { (1u64 << cap) - 1 };
    // The intervals holding a register as (end, vreg, reg), ascending:
    // the first expire first, the last is the one to evict.
    active.clear();
    let enter = |active: &mut Vec<(u32, usize, u16)>, a| {
        let at = active.partition_point(|b| *b < a);
        active.insert(at, a);
    };
    for &v in order.iter() {
        let Occ { first: start, last: end, .. } = file[v];
        let expired = active.partition_point(|a| a.0 < start);
        for a in active.drain(..expired) {
            free |= 1u64 << a.2;
        }
        if free != 0 {
            let r = free.trailing_zeros() as u16;
            free &= free - 1;
            out.reg(v, r);
            enter(active, (end, v, r));
            continue;
        }
        match active.last() {
            Some(&(last_end, w, r)) if last_end > end => {
                out.spill(w);
                out.reg(v, r);
                active.pop();
                enter(active, (end, v, r));
            }
            _ => out.spill(v),
        }
    }
    out
}
