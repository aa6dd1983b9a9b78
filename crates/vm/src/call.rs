//! What a register-tier VM runs around an instruction: the frame, the
//! dispatch loop (which hands `leave`, `endfinally` and exceptions to the
//! shared `eh` module), and the managed call edge. (What runs *inside* one — its body — is the `ops`
//! module, called from the op records of a
//! [`crate::compiled::CompiledMethod`].)
//!
//! Both register tiers run this one loop over op records; they differ
//! only in how `rir::alloc` ranked registers before
//! [`crate::rir::compile`] built the records, so nothing here depends on
//! the tier.
//!
//! **Dispatch contract.** A step returns a `Step` — one register:
//! *fall through*, a *taken-branch target*, *returned*, or *exit*. The
//! loop takes `&ops[pc]` and calls its `run` with the record, then keeps
//! the successor pc itself (`pc += 1`): an op that handed back its own
//! successor would make the next record's address wait on a value loaded
//! from the previous record, a loop-carried chain through memory. Whatever is larger than a register — the return value, a
//! `leave` target, `endfinally`, an error — is parked in the `Frame` by
//! the op and read by the loop only when it sees *returned* or *exit*.
//!
//! **Slots.** `pc` indexes the op array, not necessarily the RIR: the
//! record builder fuses adjacent instruction pairs into one record on
//! VMs that are not observing, in methods without exception regions, and
//! remaps every branch target to a slot when it builds them, so `pc += 1`
//! still names the next op and this loop does not know about fusion.
//! Where `code.rir.code[pc]` is read — the observer's per-op attribution,
//! exception dispatch, `leave` — ops and instructions pair one to one.
//!
//! **Call edge.** `invoke` is the one place a managed call between
//! register-tier methods happens: receiver check, the guard sequence of
//! `Vm::guarded`, code lookup, a recycled callee frame, arguments copied
//! slot to slot, the run, the result stored into the caller. A warm call allocates
//! nothing and takes no locked instruction (passing a reference argument
//! still moves its refcount). A call depth reached for the first time
//! gets its frame from the cold `new_frame`, so the frame is never built
//! in `invoke`'s own stack frame. `root` is the host's way in and the only
//! place a frame is filled from a `Vec<Value>`.
//!
//! **Registers.** A frame's register files are two fixed 64-entry arrays
//! (CLR 1.1's cap; `rir::alloc` clamps every profile's cap to it with
//! `enreg_cap`), so a register operand is one load at a fixed offset from
//! the frame with no bounds check. The files sit after the bookkeeping fields
//! (`repr(C)`), which a call touches; a method touches only its own
//! `n_preg`/`n_rreg` entries. The spill files stay per-method `Vec`s.
//!
//! **Counts.** What an activation does that the VM counts — the managed
//! calls it makes and the objects it allocates — goes into its frame's
//! `Tally` with plain adds. A callee's frame adds its tally to its
//! caller's when it is released, which every way out of an activation
//! passes through, and `root` settles the sum into `counters.calls` and
//! the heap's totals once. So neither a call nor an allocation takes a
//! locked instruction, and both counts are exact once the host's call
//! returns.

use crate::compiled::CompiledMethod;
use crate::eh::{self, Bound, EhFrame};
use crate::error::{VmError, VmResult};
use crate::machine::Vm;
use crate::rir::{slot_index, ArgSlot, DstSlot, Operand, RirMethod, SPILL_BIT};
use hpcnet_cil::module::{EhRegion, MethodId};
use hpcnet_cil::Intrinsic;
use hpcnet_runtime::{AllocCount, Obj, Value};
use std::sync::Arc;

/// What one executed op tells the dispatch loop. Any value below
/// [`Step::EXIT`] is the pc of a taken branch.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct Step(u32);

impl Step {
    /// Fall through to `pc + 1`.
    pub(crate) const NEXT: Step = Step(u32::MAX);
    /// `ret`: the value, if any, is parked in the frame.
    pub(crate) const RET: Step = Step(u32::MAX - 1);
    /// Anything else that leaves straight-line flow: an [`Exit`] is parked.
    pub(crate) const EXIT: Step = Step(u32::MAX - 2);

    #[inline(always)]
    pub(crate) fn jump(target: u32) -> Step {
        debug_assert!(target < Step::EXIT.0);
        Step(target)
    }
}

/// The outcome an op parks in its frame before returning [`Step::EXIT`].
pub(crate) enum Exit {
    Leave(u32),
    EndFinally,
    Err(VmError),
}

/// Entries in each register file of a [`Frame`]: CLR 1.1's 64-local
/// enregistration cap, the largest `max_enreg_*` of any profile.
const REG_FILE: usize = 64;

/// How many registers of one kind `rir::alloc` may hand out under a
/// profile's enregistration cap `cap`: no more than the file holds, so a
/// larger cap spills the rest.
pub(crate) fn enreg_cap(cap: u16) -> u16 {
    cap.min(REG_FILE as u16)
}

/// A register-tier activation record, split the way the paper's Section 5
/// describes real JIT frames: an *enregistered* file (`preg`/`rreg`, two
/// fixed [`REG_FILE`]-entry arrays inside the frame — the "registers") and
/// a *spill frame* (`pspill`/`rspill`, sized per method) accessed through
/// volatile loads/stores, so spilled virtual registers cost genuine memory
/// traffic on every touch. A profile that enregisters one value (Mono)
/// therefore pays for every stack-shuffle move twice — once to dispatch
/// it, once in memory — while a 64-register profile (CLR 1.1, IBM) runs
/// the same loop entirely out of the register file. A register operand is
/// one load at a fixed offset from the frame: no length, no bounds check.
///
/// The bookkeeping fields come first (`repr(C)`), so a call touches the
/// same cache lines it would without the files; the files follow, and a
/// method touches only their first `n_preg`/`n_rreg` entries.
///
/// A frame also keeps the frame its last callee ran in, which keeps its
/// own, so one host-level invocation allocates a frame per call *depth*
/// it reaches, not per call. The chain hangs off the root frame and dies
/// with it; nothing outlives `Vm::invoke`.
#[repr(C)]
pub(crate) struct Frame {
    pspill: Vec<u64>,
    rspill: Vec<Option<Obj>>,
    /// Reference registers the running method uses: what `release` nulls.
    n_rreg: u16,
    /// Return value parked by `ret` ([`Step::RET`]).
    ret: Option<Value>,
    /// Outcome parked by the op that returned [`Step::EXIT`].
    parked: Option<Exit>,
    /// What this activation and its released callees counted.
    pub(crate) tally: Tally,
    /// The recycled frame for calls made from this one.
    callee: Option<Box<Frame>>,
    preg: [u64; REG_FILE],
    rreg: [Option<Obj>; REG_FILE],
}

impl Default for Frame {
    fn default() -> Frame {
        Frame {
            pspill: Vec::new(),
            rspill: Vec::new(),
            n_rreg: 0,
            ret: None,
            parked: None,
            tally: Tally::default(),
            callee: None,
            preg: [0; REG_FILE],
            rreg: [const { None }; REG_FILE],
        }
    }
}

/// A callee frame for a call depth reached for the first time. Out of
/// line, so the frame is built on this function's stack and not in the
/// stack frame of [`invoke`], which every warm call pays for.
#[cold]
#[inline(never)]
fn new_frame() -> Box<Frame> {
    Box::default()
}

/// What an activation counts without a locked instruction: the managed
/// calls it made and the objects it allocated, its released callees'
/// included. [`Vm::settle`] adds it to the VM's totals.
#[derive(Default)]
pub(crate) struct Tally {
    pub(crate) calls: u64,
    pub(crate) allocs: AllocCount,
}

impl Tally {
    /// Move `other` into this tally: plain adds.
    #[inline(always)]
    fn absorb(&mut self, other: &mut Tally) {
        let Tally { calls, allocs } = std::mem::take(other);
        self.calls += calls;
        self.allocs.allocs += allocs.allocs;
        self.allocs.bytes += allocs.bytes;
    }
}

impl AsMut<Tally> for Tally {
    fn as_mut(&mut self) -> &mut Tally {
        self
    }
}

impl AsMut<Tally> for Frame {
    #[inline(always)]
    fn as_mut(&mut self) -> &mut Tally {
        &mut self.tally
    }
}

/// Fill the empty reference spill file `v` with `n` nulls. A `resize` would
/// leave the call edge for `extend_with`; this loop stays inline.
#[inline(always)]
fn nulls(v: &mut Vec<Option<Obj>>, n: usize) {
    v.reserve(n);
    for _ in 0..n {
        v.push(None);
    }
}

impl Frame {
    /// Shape the frame for `rir`, every slot it uses zero or null — a
    /// recycled frame is indistinguishable from a new one.
    /// ([`Frame::release`] already nulled the reference registers and
    /// emptied the reference spill file.)
    #[inline(always)]
    fn shape(&mut self, rir: &RirMethod) {
        debug_assert!(self.rspill.is_empty() && self.rreg.iter().all(Option::is_none));
        debug_assert!(rir.n_preg as usize <= REG_FILE && rir.n_rreg as usize <= REG_FILE);
        self.preg
            .iter_mut()
            .take(rir.n_preg as usize)
            .for_each(|p| *p = 0);
        self.n_rreg = rir.n_rreg;
        self.pspill.clear();
        self.pspill.resize(rir.n_pspill as usize, 0);
        nulls(&mut self.rspill, rir.n_rspill as usize);
    }

    /// The activation is over: add its tally to `caller`'s, drop every
    /// reference it held *now* (object lifetimes must not depend on when
    /// the frame is next used) and hand out the parked return value.
    #[inline(always)]
    fn release(&mut self, caller: &mut Tally) -> Option<Value> {
        caller.absorb(&mut self.tally);
        self.rreg
            .iter_mut()
            .take(self.n_rreg as usize)
            .for_each(|r| *r = None);
        self.rspill.clear();
        self.parked = None;
        self.ret.take()
    }

    /// Read a primitive slot. Registers are one load: [`reg`] needs no
    /// bounds check. Spill slots go through a volatile load —
    /// genuine memory traffic the optimizer cannot elide.
    #[inline(always)]
    pub(crate) fn pget(&self, s: u16) -> u64 {
        if s & SPILL_BIT == 0 {
            self.preg[reg(s)]
        } else {
            let idx = slot_index(s);
            debug_assert!(idx < self.pspill.len());
            unsafe { std::ptr::read_volatile(self.pspill.as_ptr().add(idx)) }
        }
    }

    #[inline(always)]
    pub(crate) fn pset(&mut self, s: u16, v: u64) {
        if s & SPILL_BIT == 0 {
            self.preg[reg(s)] = v;
        } else {
            let idx = slot_index(s);
            debug_assert!(idx < self.pspill.len());
            unsafe { std::ptr::write_volatile(self.pspill.as_mut_ptr().add(idx), v) }
        }
    }

    #[inline(always)]
    pub(crate) fn operand(&self, o: &Operand) -> u64 {
        match o {
            Operand::Slot(s) => self.pget(*s),
            Operand::Imm(v) => *v,
        }
    }

    #[inline(always)]
    pub(crate) fn rget(&self, s: u16) -> Option<Obj> {
        if s & SPILL_BIT == 0 {
            self.rreg[reg(s)].clone()
        } else {
            let idx = std::hint::black_box(slot_index(s));
            self.rspill[idx].clone()
        }
    }

    /// Borrow a reference slot without touching the refcount (hot path
    /// for array/field access).
    #[inline(always)]
    pub(crate) fn rref(&self, s: u16) -> Option<&Obj> {
        if s & SPILL_BIT == 0 {
            self.rreg[reg(s)].as_ref()
        } else {
            let idx = std::hint::black_box(slot_index(s));
            self.rspill[idx].as_ref()
        }
    }

    #[inline(always)]
    pub(crate) fn rset(&mut self, s: u16, v: Option<Obj>) {
        if s & SPILL_BIT == 0 {
            self.rreg[reg(s)] = v;
        } else {
            let idx = std::hint::black_box(slot_index(s));
            self.rspill[idx] = v;
        }
    }

    #[inline]
    pub(crate) fn load_value(&self, a: &ArgSlot) -> Value {
        match a {
            ArgSlot::P(t, s) => Value::from_bits(*t, self.pget(*s)),
            ArgSlot::R(s) => match self.rget(*s) {
                Some(o) => Value::Ref(o),
                None => Value::Null,
            },
        }
    }

    /// Store a tagged value — a host argument, a return value, an
    /// intrinsic's result — into the slot verification typed for it.
    #[inline(always)]
    pub(crate) fn store(&mut self, d: DstSlot, v: Value) -> VmResult<()> {
        match (d, v.num_ty()) {
            (DstSlot::P(s), Some(_)) => self.pset(s, v.to_bits()),
            (DstSlot::R(s), None) => self.rset(s, v.into_ref_opt()),
            (d, _) => return Err(misfit(d, v)),
        }
        Ok(())
    }

    /// Park the return value and leave the loop.
    #[inline(always)]
    pub(crate) fn ret(&mut self, v: Option<Value>) -> Step {
        self.ret = v;
        Step::RET
    }

    /// Park `e` and leave the loop.
    #[inline]
    pub(crate) fn exit(&mut self, e: Exit) -> Step {
        self.parked = Some(e);
        Step::EXIT
    }

    /// Park an error — a managed exception in flight or an engine fault.
    #[cold]
    pub(crate) fn fail(&mut self, e: VmError) -> Step {
        self.exit(Exit::Err(e))
    }
}

/// The register-file index of register slot `s`: the identity, since the
/// allocation never hands out a register at or above [`REG_FILE`]. The
/// modulo is what lets the compiler drop the bounds check.
#[inline(always)]
fn reg(s: u16) -> usize {
    debug_assert!((s as usize) < REG_FILE);
    s as usize % REG_FILE
}

#[cold]
#[inline(never)]
fn misfit(d: DstSlot, v: Value) -> VmError {
    VmError::Internal(format!("value {v:?} does not fit slot {d:?}"))
}

/// One method running in one frame.
struct Activation<'v> {
    vm: &'v Arc<Vm>,
    code: &'v CompiledMethod,
    fr: &'v mut Frame,
    depth: u32,
    /// The observe level is fixed at `Vm` construction, so the check is
    /// hoisted out of the dispatch loop.
    observing: bool,
}

impl<'v> Activation<'v> {
    fn new(vm: &'v Arc<Vm>, code: &'v CompiledMethod, fr: &'v mut Frame, depth: u32) -> Self {
        Activation {
            vm,
            code,
            fr,
            depth,
            observing: vm.observer.enabled(),
        }
    }

    /// The dispatch loop. `Ok` means the region ended the way its kind
    /// ends: the method body (`bound = None`) by `ret`, with the value
    /// parked in the frame; a finally handler run in-frame by `endfinally`
    /// (see [`crate::eh`]).
    fn run(&mut self, entry: u32, bound: Bound) -> VmResult<()> {
        let (vm, depth, observing) = (self.vm, self.depth, self.observing);
        let (rir, ops) = (&*self.code.rir, &*self.code.ops);
        let mut pc = entry;
        loop {
            if observing {
                vm.observer
                    .record_exec_op(rir.method, &rir.code[pc as usize]);
            }
            let op = &ops[pc as usize];
            let step = (op.run)(self.fr, vm, op, depth);
            if step == Step::NEXT {
                pc += 1;
            } else if step.0 < Step::EXIT.0 {
                // Fuel: one unit per taken branch and per `leave` (see
                // `Vm::set_fuel`) — same charge points as the interpreter
                // tier.
                vm.charge_fuel()?;
                pc = step.0;
            } else if step == Step::RET {
                return eh::ret(self, bound);
            } else {
                // Taken before anything below re-enters `run` on this
                // frame: handlers execute in-frame and park their own.
                match self.fr.parked.take() {
                    Some(Exit::Leave(target)) => pc = eh::leave(self, pc, target, bound)?,
                    Some(Exit::EndFinally) => return eh::end_finally(self, bound),
                    Some(Exit::Err(VmError::Exception(exc))) => {
                        pc = eh::dispatch(self, pc, exc, bound)?
                    }
                    Some(Exit::Err(other)) => return Err(other),
                    None => return self.internal("op exited without an outcome"),
                }
            }
        }
    }
}

impl<'v> EhFrame<'v> for Activation<'v> {
    fn vm(&self) -> &'v Arc<Vm> {
        self.vm
    }

    fn method(&self) -> MethodId {
        self.code.rir.method
    }

    fn regions(&self) -> &'v [EhRegion] {
        &self.code.rir.eh
    }

    fn run_finally(&mut self, start: u32, end: u32) -> VmResult<()> {
        self.run(start, Some((start, end)))
    }

    fn bind(&mut self, region: usize, exc: Obj) {
        self.fr.rset(self.code.rir.eh_exc_slots[region], Some(exc));
    }
}

/// Host entry: run `method` in a fresh root frame filled from `args`
/// (checked against the signature by [`Vm::invoke`]).
pub(crate) fn root(
    vm: &Arc<Vm>,
    method: MethodId,
    args: Vec<Value>,
    depth: u32,
) -> VmResult<Option<Value>> {
    let code = vm.code(method)?;
    let mut fr = Frame::default();
    fr.shape(&code.rir);
    for (v, loc) in args.into_iter().zip(&code.rir.arg_locs) {
        fr.store(loc.dst(), v)?;
    }
    let done = Activation::new(vm, code, &mut fr, depth).run(0, None);
    let mut tally = Tally::default();
    let ret = fr.release(&mut tally);
    vm.settle(&mut tally);
    done.map(|()| ret)
}

/// Who a managed call is made on.
pub(crate) enum Receiver {
    /// A static method: nobody.
    Static,
    /// `call` on an instance method: `args[0]`, which must not be null.
    NonNull,
    /// `callvirt`: `args[0]`, which must not be null and whose class
    /// selects the override.
    Virtual,
    /// `newobj`: this fresh object, passed in front of `args`.
    Fresh(Obj),
}

impl Receiver {
    /// The receiver of a `call` (`virt == false`) or `callvirt` of a method
    /// that is or is not static.
    #[inline]
    pub(crate) fn of_call(virt: bool, is_static: bool) -> Receiver {
        match (virt, is_static) {
            (true, _) => Receiver::Virtual,
            (false, true) => Receiver::Static,
            (false, false) => Receiver::NonNull,
        }
    }
}

/// The managed call edge of the register tiers: call `target` from
/// `caller` (running at `depth`) with the arguments in its slots `args`,
/// and store the result, if the callee returns one, in its slot `dst`.
pub(crate) fn invoke(
    vm: &Arc<Vm>,
    caller: &mut Frame,
    target: MethodId,
    recv: Receiver,
    args: &[ArgSlot],
    dst: Option<DstSlot>,
    depth: u32,
) -> VmResult<()> {
    let (method, this) = match recv {
        Receiver::Static => (target, None),
        Receiver::Fresh(obj) => (target, Some(obj)),
        Receiver::NonNull => {
            receiver(vm, caller, args, depth)?;
            (target, None)
        }
        Receiver::Virtual => {
            let class = receiver(vm, caller, args, depth)?
                .class_id()
                .ok_or_else(|| VmError::Internal("callvirt on non-instance".into()))?;
            (vm.module.resolve_virtual(class, target), None)
        }
    };
    vm.guarded(method, depth + 1, caller, |caller| {
        let code = vm.code(method)?;
        let mut fr = caller.callee.take().unwrap_or_else(new_frame);
        fr.shape(&code.rir);
        pass_args(caller, &mut fr, this, args, &code.rir.arg_locs)?;
        let done = Activation::new(vm, code, &mut fr, depth + 1).run(0, None);
        let ret = fr.release(&mut caller.tally);
        caller.callee = Some(fr);
        done?;
        if let (Some(d), Some(v)) = (dst, ret) {
            caller.store(d, v)?;
        }
        Ok(())
    })
}

/// The object an instance call is made on: the caller's first argument,
/// or a `NullReferenceException`.
#[inline]
fn receiver<'f>(
    vm: &Arc<Vm>,
    caller: &'f Frame,
    args: &[ArgSlot],
    depth: u32,
) -> VmResult<&'f Obj> {
    let Some(ArgSlot::R(s)) = args.first() else {
        return Err(VmError::Internal("call receiver is not a reference".into()));
    };
    caller.rref(*s).ok_or_else(|| vm.raise_null_ref(depth))
}

/// Copy the caller's argument slots into the callee's parameter slots.
/// Both sides were typed by the same verified signature, so no tag is
/// attached on the way.
#[inline(always)]
fn pass_args(
    caller: &Frame,
    callee: &mut Frame,
    this: Option<Obj>,
    args: &[ArgSlot],
    params: &[ArgSlot],
) -> VmResult<()> {
    let mut params = params.iter();
    if let Some(obj) = this {
        match params.next() {
            Some(ArgSlot::R(d)) => callee.rset(*d, Some(obj)),
            _ => return Err(mismatch("constructor takes no receiver")),
        }
    }
    for (a, p) in args.iter().zip(params) {
        match (a, p) {
            (ArgSlot::P(_, s), ArgSlot::P(_, d)) => callee.pset(*d, caller.pget(*s)),
            (ArgSlot::R(s), ArgSlot::R(d)) => callee.rset(*d, caller.rget(*s)),
            _ => return Err(mismatch("argument kind differs from its parameter")),
        }
    }
    Ok(())
}

#[cold]
#[inline(never)]
fn mismatch(what: &str) -> VmError {
    VmError::Internal(what.into())
}

/// An intrinsic call from register-tier code. Its operands sit on the
/// native stack: no [`Intrinsic`] takes more than two.
pub(crate) fn intrinsic(
    vm: &Arc<Vm>,
    fr: &mut Frame,
    i: Intrinsic,
    args: &[ArgSlot],
    dst: Option<DstSlot>,
    depth: u32,
) -> VmResult<()> {
    let mut vals = [Value::Null, Value::Null];
    let Some(vals) = vals.get_mut(..args.len()) else {
        return Err(VmError::Internal(format!(
            "{} with {} operands",
            i.name(),
            args.len()
        )));
    };
    for (v, a) in vals.iter_mut().zip(args) {
        *v = fr.load_value(a);
    }
    if let (Some(d), Some(v)) = (dst, vm.intrinsic(i, vals, depth)?) {
        fr.store(d, v)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    //! Recycled-frame hygiene, driven through [`invoke`] from a hand-made
    //! caller frame so the test can look at the chain between two calls.

    use super::*;
    use crate::{declare_prelude, Tier, VmProfile};
    use hpcnet_cil::{BinOp, CilType, ClassId, ElemKind, MethodKind, ModuleBuilder, NumTy, Op};

    const INT_OBJ: [ArgSlot; 2] = [ArgSlot::P(NumTy::I4, 0), ArgSlot::R(0)];

    /// `Dirty(int, object)` copies both arguments into locals; `Probe(int,
    /// object)` has the same frame shape and returns `a + a` of an int
    /// local it never wrote, and `ProbeRef` the ref local it never wrote.
    fn dirty_probe_module() -> hpcnet_cil::Module {
        probes_and(|_, _| {})
    }

    /// The probe module with more of class `P` added by `extra`.
    fn probes_and(extra: impl FnOnce(&mut ModuleBuilder, ClassId)) -> hpcnet_cil::Module {
        let mut mb = ModuleBuilder::new();
        declare_prelude(&mut mb);
        let c = mb.declare_class("P", None);
        let params = || vec![CilType::I4, CilType::Object];
        let mut f = mb.method(c, "Dirty", params(), CilType::Void, MethodKind::Static);
        let a = f.local(CilType::I4);
        let o = f.local(CilType::Object);
        f.ld_arg(0);
        f.st_loc(a);
        f.ld_arg(1);
        f.st_loc(o);
        f.ret();
        f.finish();
        let mut f = mb.method(c, "Probe", params(), CilType::I4, MethodKind::Static);
        let a = f.local(CilType::I4);
        let _o = f.local(CilType::Object);
        f.ld_loc(a);
        f.ld_loc(a);
        f.bin(BinOp::Add);
        f.ret();
        f.finish();
        let mut f = mb.method(c, "ProbeRef", params(), CilType::Object, MethodKind::Static);
        let _a = f.local(CilType::I4);
        let o = f.local(CilType::Object);
        f.ld_loc(o);
        f.ret();
        f.finish();
        extra(&mut mb, c);
        mb.finish()
    }

    fn recycled_frame_is_clean(profile: VmProfile) {
        let vm = Vm::new(dirty_probe_module(), profile).unwrap();
        vm.heap.set_tracking(true);
        let id = |name: &str| vm.module.find_method(name).unwrap();
        let mut fr = Frame::default();
        fr.pset(0, 0xDEAD_BEEF);
        fr.rset(0, Some(vm.heap.alloc_array(hpcnet_cil::ElemKind::I4, 1)));
        invoke(
            &vm,
            &mut fr,
            id("P.Dirty"),
            Receiver::Static,
            &INT_OBJ,
            None,
            0,
        )
        .unwrap();
        let recycled = fr.callee.as_deref().map(|f| f as *const Frame);
        assert!(
            recycled.is_some(),
            "{}: the callee's frame was not kept",
            profile.name
        );

        // Dirty's frame let go of the object when Dirty returned, not when
        // the frame is next used: ours is the last reference.
        fr.rset(0, None);
        assert!(
            vm.heap.live_tracked().is_empty(),
            "{}: Dirty's frame kept its argument alive",
            profile.name
        );

        fr.pset(0, 0);
        let to_p1 = Some(DstSlot::P(1));
        invoke(
            &vm,
            &mut fr,
            id("P.Probe"),
            Receiver::Static,
            &INT_OBJ,
            to_p1,
            0,
        )
        .unwrap();
        assert_eq!(fr.pget(1), 0, "{}: Probe read Dirty's int", profile.name);
        fr.rset(1, Some(vm.heap.alloc_array(hpcnet_cil::ElemKind::I4, 1)));
        let to_r1 = Some(DstSlot::R(1));
        invoke(
            &vm,
            &mut fr,
            id("P.ProbeRef"),
            Receiver::Static,
            &INT_OBJ,
            to_r1,
            0,
        )
        .unwrap();
        assert!(
            fr.rref(1).is_none(),
            "{}: ProbeRef read Dirty's object",
            profile.name
        );
        assert_eq!(
            fr.callee.as_deref().map(|f| f as *const Frame),
            recycled,
            "{}: the probes did not run in Dirty's frame",
            profile.name
        );
    }

    /// [`dirty_probe_module`] plus `P.Full(int x)`, whose live values fill
    /// the CLR's whole 64-entry register file of each kind: 62 `int` locals
    /// counting up in steps of `x`, `x` itself, 63 arrays of those lengths
    /// and the one stack cell of each kind the lowering computes through,
    /// all live at once. It publishes every array to the static `P.R` (the
    /// last one stays there) and returns `x` plus the sum of the locals.
    fn full_file_module() -> hpcnet_cil::Module {
        probes_and(|mb, c| {
            let r = mb.add_field(c, "R", CilType::Object, true);
            let mut f = mb.method(
                c,
                "Full",
                vec![CilType::I4],
                CilType::I4,
                MethodKind::Static,
            );
            let ints: Vec<u16> = (0..62).map(|_| f.local(CilType::I4)).collect();
            let objs: Vec<u16> = (0..63).map(|_| f.local(CilType::Object)).collect();
            f.ld_arg(0);
            f.ld_arg(0);
            f.bin(BinOp::Add);
            f.st_loc(ints[0]);
            for k in 1..ints.len() {
                f.ld_loc(ints[k - 1]);
                f.ld_arg(0);
                f.bin(BinOp::Add);
                f.st_loc(ints[k]);
            }
            for (&i, &o) in ints.iter().cycle().zip(&objs) {
                f.ld_loc(i);
                f.emit(Op::NewArr(ElemKind::I4));
                f.st_loc(o);
            }
            for &i in &ints[1..] {
                f.ld_loc(ints[0]);
                f.ld_loc(i);
                f.bin(BinOp::Add);
                f.st_loc(ints[0]);
            }
            for &o in &objs {
                f.ld_loc(o);
                f.emit(Op::StSFld(r));
            }
            f.ld_loc(ints[0]);
            f.ld_arg(0);
            f.bin(BinOp::Add);
            f.ret();
            f.finish();
        })
    }

    /// Does any operand of `rir`'s code name a spill slot?
    fn spills_an_operand(rir: &RirMethod) -> bool {
        let mut spilled = false;
        for inst in &rir.code {
            inst.slots(|_, s| spilled |= crate::rir::is_spill(s));
        }
        spilled
    }

    fn a_full_register_file_runs_and_is_released(profile: VmProfile) {
        let module = full_file_module();
        let oracle = Vm::new(module.clone(), VmProfile::sscli10()).unwrap();
        let want = oracle
            .invoke_by_name("P.Full", vec![Value::I4(3)])
            .unwrap()
            .unwrap()
            .as_i4();
        assert_eq!(want, 3 + 3 * (2..64).sum::<i32>());

        let vm = Vm::new(module, profile).unwrap();
        vm.heap.set_tracking(true);
        let id = |name: &str| vm.module.find_method(name).unwrap();
        let code = vm.code(id("P.Full")).unwrap();
        let rir = &code.rir;
        assert_eq!(
            (rir.n_preg, rir.n_rreg),
            (64, 64),
            "{}: Full's live values do not fill the file",
            profile.name
        );
        assert!(
            !spills_an_operand(rir),
            "{}: a 64-entry file spilled:\n{}",
            profile.name,
            crate::rir::print_rir(rir)
        );

        let mut fr = Frame::default();
        fr.pset(0, 3);
        invoke(
            &vm,
            &mut fr,
            id("P.Full"),
            Receiver::Static,
            &INT_OBJ[..1],
            Some(DstSlot::P(1)),
            0,
        )
        .unwrap();
        assert_eq!(fr.pget(1) as u32 as i32, want, "{}", profile.name);
        let recycled = fr.callee.as_deref().map(|f| f as *const Frame);
        // The arrays only Full's registers held died when it returned; the
        // last one is still published in `P.R`.
        assert_eq!(
            vm.heap.live_tracked().len(),
            1,
            "{}: Full's released frame kept its arrays alive",
            profile.name
        );

        // Two-register callees in the frame Full filled.
        invoke(
            &vm,
            &mut fr,
            id("P.Probe"),
            Receiver::Static,
            &INT_OBJ,
            Some(DstSlot::P(1)),
            0,
        )
        .unwrap();
        assert_eq!(fr.pget(1), 0, "{}: Probe read Full's int", profile.name);
        fr.rset(1, Some(vm.heap.alloc_array(ElemKind::I4, 1)));
        invoke(
            &vm,
            &mut fr,
            id("P.ProbeRef"),
            Receiver::Static,
            &INT_OBJ,
            Some(DstSlot::R(1)),
            0,
        )
        .unwrap();
        assert!(
            fr.rref(1).is_none(),
            "{}: ProbeRef read Full's array",
            profile.name
        );
        assert_eq!(
            fr.callee.as_deref().map(|f| f as *const Frame),
            recycled,
            "{}: the probes did not run in Full's frame",
            profile.name
        );
    }

    #[test]
    fn a_full_64_entry_register_file_holds_without_spilling() {
        a_full_register_file_runs_and_is_released(VmProfile::clr11_compiled());
        a_full_register_file_runs_and_is_released(VmProfile::clr11());
    }

    #[test]
    fn a_recycled_frame_is_indistinguishable_from_a_fresh_one() {
        // mono023 runs the naive lowering: every local is a slot that is
        // really read. The CLR profiles may fold the unwritten local.
        recycled_frame_is_clean(VmProfile::mono023());
        recycled_frame_is_clean(VmProfile::clr11());
        recycled_frame_is_clean(VmProfile::mono023().with_tier(Tier::Compiled));
        recycled_frame_is_clean(VmProfile::clr11_compiled());
    }

    const DEEP: &str = r#"
        class T {
            static int Deep(int d, int x) {
                if (d == 0) {
                    if (x < 0) throw new Exception();
                    return x * 2;
                }
                return Deep(d - 1, x) + 1;
            }
            static int Caught(int d, int x) {
                try { return Deep(d, x); } catch (Exception e) { return 1000 + d; }
            }
        }
    "#;

    fn chain_survives_unwinds(profile: VmProfile) {
        let module = hpcnet_minics::compile(DEEP).unwrap();
        let oracle = Vm::new(module.clone(), VmProfile::sscli10()).unwrap();
        let want = |name: &str, d: i32, x: i32| {
            let r = oracle.invoke_by_name(name, vec![Value::I4(d), Value::I4(x)]);
            r.unwrap().unwrap().as_i4()
        };
        let vm = Vm::new(module, profile).unwrap();
        let id = |name: &str| vm.module.find_method(name).unwrap();
        let two_ints = [ArgSlot::P(NumTy::I4, 0), ArgSlot::P(NumTy::I4, 1)];
        let mut fr = Frame::default();
        let call = |fr: &mut Frame, name: &str, d: i32, x: i32| {
            fr.pset(0, d as u32 as u64);
            fr.pset(1, x as u32 as u64);
            let to_p2 = Some(DstSlot::P(2));
            invoke(&vm, fr, id(name), Receiver::Static, &two_ints, to_p2, 0)
                .map(|()| fr.pget(2) as u32 as i32)
        };
        let healthy = |fr: &mut Frame| {
            let got = call(fr, "T.Deep", 3, 21).unwrap();
            assert_eq!(got, want("T.Deep", 3, 21), "{}", profile.name);
        };
        healthy(&mut fr);

        // Thrown three frames below the catch.
        assert_eq!(
            call(&mut fr, "T.Caught", 3, -1).unwrap(),
            want("T.Caught", 3, -1)
        );
        healthy(&mut fr);
        // Thrown through every frame of the chain, out to the host.
        assert!(matches!(
            call(&mut fr, "T.Deep", 3, -1),
            Err(VmError::Exception(_))
        ));
        healthy(&mut fr);

        // Two levels down even where the CLR profiles inline every other
        // `Deep` into its caller.
        vm.set_max_depth(2);
        match call(&mut fr, "T.Deep", 3, 21) {
            Err(VmError::Limit(m)) => assert_eq!(m, "managed call depth exceeded 2 in Deep"),
            other => panic!("{}: depth limit gave {other:?}", profile.name),
        }
        vm.set_max_depth(256);
        healthy(&mut fr);

        vm.set_fuel(Some(1));
        match call(&mut fr, "T.Deep", 3, 21) {
            Err(VmError::Limit(m)) => assert_eq!(m, "fuel budget exhausted"),
            other => panic!("{}: fuel exhaustion gave {other:?}", profile.name),
        }
        vm.set_fuel(None);
        healthy(&mut fr);
    }

    /// Run `entry(args)` of `module` under 10,000 fuel on every stock
    /// profile and require each run to stop at the fuel limit. Each run has
    /// its own thread: one that ignores fuel fails the test at the deadline
    /// instead of hanging it. The module is bound without verification, so
    /// the charge is tested apart from what the verifier admits.
    fn runs_out_of_fuel_everywhere(module: hpcnet_cil::Module, entry: &str, args: Vec<Value>) {
        let runs: Vec<_> = [
            VmProfile::clr11_compiled(),
            VmProfile::clr11(),
            VmProfile::jsharp11(),
            VmProfile::mono023(),
            VmProfile::sscli10(),
            VmProfile::jvm_ibm131(),
            VmProfile::jvm_bea81(),
            VmProfile::jvm_sun14(),
        ]
        .into_iter()
        .map(|profile| {
            let (module, (done, result)) = (module.clone(), std::sync::mpsc::channel());
            let (name, entry, args) = (profile.name, entry.to_string(), args.clone());
            let run = std::thread::spawn(move || {
                let vm = Vm::new_unverified(module, profile);
                vm.set_fuel(Some(10_000));
                let _ = done.send(vm.invoke_by_name(&entry, args));
            });
            (name, run, result)
        })
        .collect();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        for (name, run, result) in runs {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            match result.recv_timeout(left) {
                Ok(Err(VmError::Limit(m))) => assert_eq!(m, "fuel budget exhausted", "{name}"),
                other => panic!("{name}: {entry} under 10,000 fuel gave {other:?}"),
            }
            run.join().expect("the run thread returns once it has sent");
        }
    }

    /// A loop closed by `leave` alone (a `continue` inside `try`) takes no
    /// branch and makes no call, so it is stopped only if `leave` costs
    /// fuel, on every tier.
    #[test]
    fn a_loop_closed_by_leave_runs_out_of_fuel() {
        const SRC: &str = "class Gen { static int Run(int a, int b) { int i = 0;
            while (i >= 0) { try { i = i + 0; continue; } finally { b = b + 1; } }
            return i; } }";
        let module = hpcnet_minics::compile(SRC).expect("compiles");
        runs_out_of_fuel_everywhere(module, "Gen.Run", vec![Value::I4(1), Value::I4(2)]);
    }

    /// A catch handler that falls into its own `try` loops through
    /// exception dispatch alone: no branch, `leave` or call closes it, so
    /// it is stopped only if landing in a handler costs fuel.
    ///
    /// ```text
    /// Spin(int32):  br TS
    /// HS:           pop                    // catch DivideByZeroException
    /// TS:           ldc.i4 1; ldarg.0; div; ret
    /// region:       try [TS, end)  handler [HS, TS)
    /// ```
    #[test]
    fn a_loop_closed_by_exception_dispatch_runs_out_of_fuel() {
        let mut mb = ModuleBuilder::new();
        declare_prelude(&mut mb);
        let div_zero = mb.class_id(hpcnet_cil::prelude::DIV_ZERO_CLASS).expect("prelude");
        let c = mb.declare_class("P", None);
        let mut f = mb.method(c, "Spin", vec![CilType::I4], CilType::I4, MethodKind::Static);
        let (ts, te, hs) = (f.new_label(), f.new_label(), f.new_label());
        f.br(ts);
        f.place(hs);
        f.emit(Op::Pop);
        f.place(ts);
        f.ldc_i4(1);
        f.ld_arg(0);
        f.bin(BinOp::Div);
        f.ret();
        f.place(te);
        f.eh_catch(ts, te, hs, ts, div_zero);
        f.finish();
        runs_out_of_fuel_everywhere(mb.finish(), "P.Spin", vec![Value::I4(0)]);
    }

    #[test]
    fn the_frame_chain_survives_exceptions_and_limits() {
        chain_survives_unwinds(VmProfile::clr11());
        chain_survives_unwinds(VmProfile::mono023());
        chain_survives_unwinds(VmProfile::clr11_compiled());
    }
}
