//! Per-method attribution profiling and compile records.
//!
//! The paper's Section 5 explains every CLR/Mono/Rotor gap by *mechanism*
//! — enregistration, bounds-check elimination, exception-path cost — but
//! wall-time rates alone cannot show which mechanism fired where. This
//! module is the deterministic attribution layer: per-method counters
//! (invocations, inclusive/exclusive executed-opcode counts, opcode-kind
//! histograms, bounds checks executed vs. elided, allocations, exception
//! dispatches by handler kind) plus, at `Trace`, each compiled method's
//! [`Compile`] record (per-pass JIT outcome, loop-pass rejection reasons):
//! one per method, kept with its counters, so it needs no buffer and none
//! is ever dropped.
//!
//! Everything is gated behind [`ObserveLevel`] on
//! [`crate::profile::VmProfile`]:
//!
//! * `Off` — the default. Every recording entry point is a single
//!   predictable branch on a plain enum field; no cells are allocated.
//! * `Counters` — per-method atomic counters, no compile records.
//! * `Trace` — counters plus one compile record per compiled method.
//!
//! Determinism: all recorded quantities are *counts* of deterministic VM
//! work (never wall times), so for a single-threaded program two runs of
//! the same module under the same profile produce bit-identical
//! [`ObserveReport`]s. With managed threads the per-method exclusive
//! counters and compile records remain exact (atomic cells, one record
//! per method), but inclusive counts depend on the schedule.
//!
//! Scope notes (documented limits, pinned by tests where they matter):
//!
//! * Bounds-check accounting covers one-dimensional `ldelem`/`stelem` —
//!   the domain of the structural BCE and loop-aware ABCE passes.
//!   Multi-dimensional accesses validate per-dimension inside the
//!   accessor and are out of ABCE's reach (Graph 12's point).
//! * Allocation counts are derived from executed allocation opcodes
//!   (`newobj`, `newarr`, `newmultiarr`, `box`). Exception objects the
//!   *runtime* allocates while raising a fault (and strings built by
//!   intrinsics) are not attributed to a method.
//! * Inclusive opcode counts attribute a callee's work to every live
//!   caller frame; recursive methods therefore count their own subtree
//!   once per live activation, the standard inclusive-profile caveat.

use crate::counters::counters;
use crate::rir::{BoundsMode, RInst};
use hpcnet_cil::{FieldId, MethodId, Op, OP_KIND_NAMES};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// How much the VM records while executing (a knob on
/// [`crate::profile::VmProfile`]; `Off` in every stock profile).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum ObserveLevel {
    /// Record nothing; the check is one predictable branch per hook.
    #[default]
    Off,
    /// Per-method counters (invocations, opcode histograms, bounds
    /// checks, allocations, EH dispatches).
    Counters,
    /// Counters plus each compiled method's [`Compile`] record.
    Trace,
}

impl ObserveLevel {
    /// Stable lowercase name (used by reports and CLI flags).
    pub fn as_str(&self) -> &'static str {
        match self {
            ObserveLevel::Off => "off",
            ObserveLevel::Counters => "counters",
            ObserveLevel::Trace => "trace",
        }
    }

    /// Parse the name produced by [`ObserveLevel::as_str`].
    pub fn parse(s: &str) -> Option<ObserveLevel> {
        Some(match s {
            "off" => ObserveLevel::Off,
            "counters" => ObserveLevel::Counters,
            "trace" => ObserveLevel::Trace,
            _ => return None,
        })
    }
}

/// A VM-internal phase the observer times at [`ObserveLevel::Trace`].
///
/// Unlike every other observed quantity these are *durations*, so they
/// are inherently nondeterministic and live outside [`ObserveReport`]
/// (which stays bit-identical across runs). Consumers drain them
/// separately via [`crate::machine::Vm::phase_timings`]. Below `Trace`
/// no clock is ever read — the serve-layer overhead tests pin that with
/// a counting clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VmPhase {
    /// CIL → RIR lowering (front-half cache misses only; a shared-cache
    /// hit performs no lowering and records nothing). It reads the stack
    /// shapes `verify_module` recorded; only a body bound without them
    /// is verified here, inside this phase.
    JitLower,
    /// The optimization pipeline over lowered RIR (misses only). The
    /// `opt-*` phases below nest inside it: each times one pass of
    /// `rir::opt::optimize`, and `jit-optimize` stays their total.
    JitOptimize,
    /// The block partitions and natural loops the passes share: the
    /// lowered body's for the scalar passes, the compacted body's for the
    /// loop tier.
    OptAnalyze,
    /// Block-local constant and copy propagation with folding.
    OptPropagate,
    /// Multiply-by-power-of-two strength reduction.
    OptStrength,
    /// Structural (block-local) bounds-check elision on the lowered body,
    /// its fact scan and certificate checks included.
    OptBce,
    /// Liveness-based dead-code elimination.
    OptDce,
    /// Removing the `nop`s the scalar passes left.
    OptCompact,
    /// Loop-aware idiom bounds-check elision, its fact scan included.
    OptAbce,
    /// Symbolic range bounds-check elision.
    OptRangeAbce,
    /// Loop-invariant code motion, its per-round re-analyses included.
    OptLicm,
    /// Guarded loop versioning, its trial audits included.
    OptVersion,
    /// CLR 1.1's divisor-constant spill quirk.
    OptDivQuirk,
    /// Register/slot allocation (runs per VM on both register tiers,
    /// hit or miss).
    JitAllocate,
    /// Building the op records a register tier runs from the allocated
    /// RIR (per VM, hit or miss).
    JitBuild,
    /// The per-throw unwind/stack-trace cost model
    /// (`exception_cost_units`).
    EhUnwind,
}

impl VmPhase {
    /// All phases, in declaration order (the order reports list them, and
    /// each phase's discriminant indexes its timing cells).
    pub const ALL: &'static [VmPhase] = &[
        VmPhase::JitLower,
        VmPhase::JitOptimize,
        VmPhase::OptAnalyze,
        VmPhase::OptPropagate,
        VmPhase::OptStrength,
        VmPhase::OptBce,
        VmPhase::OptDce,
        VmPhase::OptCompact,
        VmPhase::OptAbce,
        VmPhase::OptRangeAbce,
        VmPhase::OptLicm,
        VmPhase::OptVersion,
        VmPhase::OptDivQuirk,
        VmPhase::JitAllocate,
        VmPhase::JitBuild,
        VmPhase::EhUnwind,
    ];

    /// Stable kebab-case name (used by the TRACE json schema).
    pub fn as_str(&self) -> &'static str {
        match self {
            VmPhase::JitLower => "jit-lower",
            VmPhase::JitOptimize => "jit-optimize",
            VmPhase::OptAnalyze => "opt-analyze",
            VmPhase::OptPropagate => "opt-propagate",
            VmPhase::OptStrength => "opt-strength",
            VmPhase::OptBce => "opt-bce",
            VmPhase::OptDce => "opt-dce",
            VmPhase::OptCompact => "opt-compact",
            VmPhase::OptAbce => "opt-abce",
            VmPhase::OptRangeAbce => "opt-range-abce",
            VmPhase::OptLicm => "opt-licm",
            VmPhase::OptVersion => "opt-version",
            VmPhase::OptDivQuirk => "opt-div-quirk",
            VmPhase::JitAllocate => "jit-allocate",
            VmPhase::JitBuild => "jit-build",
            VmPhase::EhUnwind => "eh-unwind",
        }
    }
}

/// Accumulated timing for one [`VmPhase`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseTiming {
    pub phase: VmPhase,
    /// Times the phase ran.
    pub count: u64,
    /// Total nanoseconds across all runs (per the installed clock).
    pub total_ns: u64,
}

/// The observer's time source — swappable so tests drive phase timing
/// from a virtual or counting clock (`Vm::set_trace_clock`).
struct PhaseClock(Arc<dyn Fn() -> u64 + Send + Sync>);

impl std::fmt::Debug for PhaseClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PhaseClock(..)")
    }
}

/// Process-wide wall-clock default, anchored at first use so readings
/// stay small.
fn default_now_ns() -> u64 {
    static ORIGIN: OnceLock<std::time::Instant> = OnceLock::new();
    ORIGIN
        .get_or_init(std::time::Instant::now)
        .elapsed()
        .as_nanos() as u64
}

/// Why the loop-aware bounds-check pass rejected a natural loop (one
/// reason per loop, the first disqualifier found — the same order the
/// pass checks them in).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoopRejectReason {
    /// The loop body overlaps an exception-handling region.
    OverlapsEh,
    /// The header's terminator is not a recognizable compare-and-branch
    /// guard over a slot the pass can reason about.
    NoHeaderGuard,
    /// A guard exists but its shape is wrong: both edges land in the
    /// loop, the predicate is not a strict bound, or the bound is not an
    /// array length.
    GuardShape,
    /// The hand-hoisted `len` local is written inside the loop.
    BoundMutated,
    /// The array reference is redefined inside the loop.
    ArrayMutated,
    /// The induction variable has an in-loop definition that is not a
    /// positive constant increment.
    IndexStep,
    /// Some entry edge reaches the header without a known non-negative
    /// constant for the induction variable.
    EntryUnknown,
}

impl LoopRejectReason {
    /// Stable kebab-case name (used by the PROFILE json schema).
    pub fn as_str(&self) -> &'static str {
        match self {
            LoopRejectReason::OverlapsEh => "overlaps-eh",
            LoopRejectReason::NoHeaderGuard => "no-header-guard",
            LoopRejectReason::GuardShape => "guard-shape",
            LoopRejectReason::BoundMutated => "bound-mutated",
            LoopRejectReason::ArrayMutated => "array-mutated",
            LoopRejectReason::IndexStep => "index-step",
            LoopRejectReason::EntryUnknown => "entry-unknown",
        }
    }
}

/// Which kind of handler an exception dispatch step reached: selects the
/// per-method counter [`Observer::eh_dispatch`] bumps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum EhDispatchKind {
    /// A catch handler matched and took the exception.
    Catch,
    /// A finally handler ran as part of the dispatch.
    Finally,
    /// No handler in the frame took it — the exception propagated out
    /// (the fault path through this frame).
    FaultPath,
}

counters! {
    /// Per-pass outcome of one JIT compilation (register-tier profiles only).
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct JitOutcome
    counts {
        /// Final RIR instruction count.
        rir_len,
        /// Natural loops the loop tier found (0 when both loop passes are
        /// off — the tier does not even build the CFG then).
        loops_found,
        /// Checks removed by the structural (block-local) BCE matcher.
        bce_removed,
        /// Checks removed by the loop-aware ABCE pass.
        abce_removed,
        /// Checks removed by symbolic range analysis (derived indices).
        range_removed,
        /// Checks removed in guarded loop-version fast clones.
        versioned_removed,
        /// Loops given a guarded check-free version.
        loops_versioned,
        /// Instructions hoisted by LICM.
        licm_hoisted,
        /// Primitive virtual registers that won a register-file slot.
        enreg_prim,
        /// Primitive virtual registers spilled to the (volatile) frame.
        spill_prim,
        /// Reference registers enregistered.
        enreg_ref,
        /// Reference registers spilled.
        spill_ref,
    }
}

/// How a method was compiled to RIR (recorded at [`ObserveLevel::Trace`]
/// only, once per method: the first compile to finish keeps its record).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Compile {
    /// Per-pass outcome, the allocator's enreg/spill split included.
    pub outcome: JitOutcome,
    /// `(header_pc, reason)` of each natural loop the loop-aware
    /// bounds-check pass rejected, in the order the pass met them.
    pub loop_rejections: Vec<(u32, LoopRejectReason)>,
}

counters! {
    /// Per-method atomic accumulation cells.
    #[derive(Debug, Default)]
    struct MethodCell;

    /// Plain-value attribution for one method (all counts; no times).
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct MethodProfile {
        pub method: MethodId,
        /// `"Class.Method"`.
        pub name: String,
        /// Executed-opcode histogram, indexed like [`OP_KIND_NAMES`]. The
        /// register tier maps each `RInst` to its closest CIL kind.
        pub op_kinds: Vec<u64>,
        /// The method's compile record; `None` below `Trace` and for a
        /// method no register tier compiled.
        pub compile: Option<Compile>,
    }
    counts {
        /// Frames of this method entered.
        invocations,
        /// Opcodes executed in this method's own frames.
        ops_excl,
        /// Opcodes executed in this method's frames plus everything its
        /// calls executed (single-threaded attribution).
        ops_incl,
        /// One-dimensional element accesses that ran their bounds check.
        bounds_checks_executed,
        /// Accesses whose check the JIT elided, every mechanism: the sum of
        /// the three splits below.
        bounds_checks_elided = bounds_checks_elided_idiom
            + bounds_checks_elided_range
            + bounds_checks_elided_versioned,
        /// Elided by the structural/idiom guard matchers.
        bounds_checks_elided_idiom,
        /// Elided by symbolic range analysis.
        bounds_checks_elided_range,
        /// Elided in a guarded loop-version fast clone.
        bounds_checks_elided_versioned,
        /// Allocation opcodes executed (`newobj`, `newarr`, `newmultiarr`,
        /// `box`).
        allocs,
        /// Exception dispatch steps in this method's frames that a catch
        /// handler took.
        eh_catch,
        /// Dispatch steps that ran a finally handler.
        eh_finally,
        /// Dispatch steps where no handler in the frame took the
        /// exception and it propagated out.
        eh_fault_path,
    }
}

/// The per-VM observation state. Constructed once per
/// [`crate::machine::Vm`] from the profile's [`ObserveLevel`]; the level
/// never changes afterwards, so the off path stays branch-predictable.
#[derive(Debug)]
pub(crate) struct Observer {
    level: ObserveLevel,
    /// One cell per module method; empty when `Off`.
    cells: Box<[MethodCell]>,
    /// Executed-opcode histograms, [`Op::KIND_COUNT`] cells per method
    /// (method-major, kinds indexed like [`OP_KIND_NAMES`]); empty when
    /// `Off`.
    kinds: Box<[AtomicU64]>,
    /// Total opcodes executed across all methods (the exclusive counts
    /// sum to this; enter/leave deltas derive inclusive counts from it).
    ops_total: AtomicU64,
    /// One compile record per module method; empty below `Trace`.
    compiles: Box<[OnceLock<Compile>]>,
    /// Per-[`VmPhase`] run counts and total nanoseconds; only written at
    /// `Trace` level (below it [`Observer::phase_start`] never reads the
    /// clock).
    phase_counts: [AtomicU64; VmPhase::ALL.len()],
    phase_ns: [AtomicU64; VmPhase::ALL.len()],
    clock: OnceLock<PhaseClock>,
}

impl Observer {
    pub(crate) fn new(level: ObserveLevel, n_methods: usize) -> Observer {
        let n_cells = if level == ObserveLevel::Off { 0 } else { n_methods };
        let n_compiles = if level == ObserveLevel::Trace { n_methods } else { 0 };
        Observer {
            level,
            cells: (0..n_cells).map(|_| MethodCell::default()).collect(),
            kinds: (0..n_cells * Op::KIND_COUNT).map(|_| AtomicU64::new(0)).collect(),
            ops_total: AtomicU64::new(0),
            compiles: (0..n_compiles).map(|_| OnceLock::new()).collect(),
            phase_counts: std::array::from_fn(|_| AtomicU64::new(0)),
            phase_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            clock: OnceLock::new(),
        }
    }

    #[inline(always)]
    pub(crate) fn enabled(&self) -> bool {
        self.level != ObserveLevel::Off
    }

    #[inline(always)]
    pub(crate) fn tracing(&self) -> bool {
        self.level == ObserveLevel::Trace
    }

    /// Record frame entry; the returned token feeds [`Observer::leave`].
    #[inline]
    pub(crate) fn enter(&self, method: MethodId) -> u64 {
        self.cells[method.idx()].invocations.fetch_add(1, Ordering::Relaxed);
        self.ops_total.load(Ordering::Relaxed)
    }

    /// Record frame exit: everything executed since `enter` is inclusive
    /// work of `method`.
    #[inline]
    pub(crate) fn leave(&self, method: MethodId, ops_before: u64) {
        let delta = self.ops_total.load(Ordering::Relaxed).saturating_sub(ops_before);
        self.cells[method.idx()].ops_incl.fetch_add(delta, Ordering::Relaxed);
    }

    /// Record one executed CIL opcode (interpreter tier).
    #[inline]
    pub(crate) fn record_interp_op(&self, method: MethodId, op: &Op) {
        self.ops_total.fetch_add(1, Ordering::Relaxed);
        let cell = &self.cells[method.idx()];
        cell.ops_excl.fetch_add(1, Ordering::Relaxed);
        self.kind(method, op.kind_index());
        match op {
            // The interpreter bounds-checks every element access inline.
            Op::LdElem(_) | Op::StElem(_) => {
                cell.bounds_checks_executed.fetch_add(1, Ordering::Relaxed);
            }
            Op::NewObj(_) | Op::NewArr(_) | Op::NewMultiArr { .. } | Op::BoxVal(_) => {
                cell.allocs.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }

    /// Record one executed RIR instruction (register tier). Never inlined:
    /// its one caller is the dispatch loop, which calls it only on observing
    /// VMs, and inlined there it takes the registers the unobserved path
    /// keeps `vm` and the op array in.
    #[inline(never)]
    pub(crate) fn record_exec_op(&self, method: MethodId, inst: &RInst) {
        self.ops_total.fetch_add(1, Ordering::Relaxed);
        let cell = &self.cells[method.idx()];
        cell.ops_excl.fetch_add(1, Ordering::Relaxed);
        self.kind(method, rinst_kind_index(inst));
        match inst {
            RInst::LdElem { bounds, .. } | RInst::StElem { bounds, .. } => match bounds {
                BoundsMode::Checked => {
                    cell.bounds_checks_executed.fetch_add(1, Ordering::Relaxed);
                }
                BoundsMode::ElidedIdiom => {
                    cell.bounds_checks_elided_idiom.fetch_add(1, Ordering::Relaxed);
                }
                BoundsMode::ElidedRange => {
                    cell.bounds_checks_elided_range.fetch_add(1, Ordering::Relaxed);
                }
                BoundsMode::ElidedVersioned => {
                    cell.bounds_checks_elided_versioned.fetch_add(1, Ordering::Relaxed);
                }
            },
            RInst::NewObj { .. }
            | RInst::NewArr { .. }
            | RInst::NewMulti { .. }
            | RInst::BoxV { .. } => {
                cell.allocs.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }

    #[inline]
    fn kind(&self, method: MethodId, kind: usize) {
        self.kinds[method.idx() * Op::KIND_COUNT + kind].fetch_add(1, Ordering::Relaxed);
    }

    /// Record one exception dispatch step in a frame of `method`.
    #[inline]
    pub(crate) fn eh_dispatch(&self, method: MethodId, kind: EhDispatchKind) {
        let cell = &self.cells[method.idx()];
        match kind {
            EhDispatchKind::Catch => cell.eh_catch.fetch_add(1, Ordering::Relaxed),
            EhDispatchKind::Finally => cell.eh_finally.fetch_add(1, Ordering::Relaxed),
            EhDispatchKind::FaultPath => cell.eh_fault_path.fetch_add(1, Ordering::Relaxed),
        };
    }

    // ---- phase timing (Trace level only) ----

    /// Take a clock reading at phase entry — `None` (no clock read at
    /// all) below `Trace`. Pass the token to [`Observer::phase_end`].
    #[inline(always)]
    pub(crate) fn phase_start(&self) -> Option<u64> {
        if self.level != ObserveLevel::Trace {
            return None;
        }
        Some(self.clock_now())
    }

    /// Close a phase opened by [`Observer::phase_start`]; a `None` token
    /// is free.
    #[inline]
    pub(crate) fn phase_end(&self, phase: VmPhase, start: Option<u64>) {
        let Some(s) = start else { return };
        let dur = self.clock_now().saturating_sub(s);
        self.phase_counts[phase as usize].fetch_add(1, Ordering::Relaxed);
        self.phase_ns[phase as usize].fetch_add(dur, Ordering::Relaxed);
    }

    fn clock_now(&self) -> u64 {
        match self.clock.get() {
            Some(c) => (c.0)(),
            None => default_now_ns(),
        }
    }

    /// Install the phase-timing time source (first caller wins; the
    /// default is the process wall clock).
    pub(crate) fn set_clock(&self, f: Arc<dyn Fn() -> u64 + Send + Sync>) {
        let _ = self.clock.set(PhaseClock(f));
    }

    /// Phases that ran at least once, in [`VmPhase::ALL`] order.
    pub(crate) fn phase_timings(&self) -> Vec<PhaseTiming> {
        VmPhase::ALL
            .iter()
            .filter_map(|&phase| {
                let count = self.phase_counts[phase as usize].load(Ordering::Relaxed);
                if count == 0 {
                    return None;
                }
                Some(PhaseTiming {
                    phase,
                    count,
                    total_ns: self.phase_ns[phase as usize].load(Ordering::Relaxed),
                })
            })
            .collect()
    }

    /// Record how `method` was compiled (`Trace` only). Two threads
    /// racing a first call both compile; the first record stays.
    pub(crate) fn record_compile(&self, method: MethodId, compile: Compile) {
        let _ = self.compiles[method.idx()].set(compile);
    }

    /// Snapshot everything into plain values. `name_of` resolves
    /// method ids to display names ("Class.Method").
    pub(crate) fn report(&self, name_of: impl Fn(MethodId) -> String) -> ObserveReport {
        let methods = self
            .cells
            .iter()
            .zip(self.kinds.chunks(Op::KIND_COUNT))
            .enumerate()
            .filter_map(|(i, (c, kinds))| {
                let compile = self.compiles.get(i).and_then(OnceLock::get).cloned();
                let ran = c.invocations.load(Ordering::Relaxed) != 0
                    || c.ops_excl.load(Ordering::Relaxed) != 0;
                if !ran && compile.is_none() {
                    return None;
                }
                let method = MethodId(i as u32);
                let op_kinds = kinds.iter().map(|k| k.load(Ordering::Relaxed)).collect();
                Some(c.snapshot(method, name_of(method), op_kinds, compile))
            })
            .collect();
        ObserveReport { total_ops: self.ops_total.load(Ordering::Relaxed), methods }
    }
}

impl MethodProfile {
    /// Nonzero entries of the opcode histogram as `(kind-name, count)`,
    /// in kind order.
    pub fn kind_counts(&self) -> Vec<(&'static str, u64)> {
        self.op_kinds
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (OP_KIND_NAMES[i], n))
            .collect()
    }
}

/// Everything one VM observed, in plain values — the drain format for
/// the harness (see [`crate::machine::Vm::observe_report`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObserveReport {
    /// Total opcodes executed (equals the sum of `ops_excl`).
    pub total_ops: u64,
    /// Methods that ran (or were called) or were compiled, in method-id
    /// order.
    pub methods: Vec<MethodProfile>,
}

impl ObserveReport {
    /// The profile for a method id, if it ran or was compiled.
    pub fn method(&self, m: MethodId) -> Option<&MethodProfile> {
        self.methods.iter().find(|p| p.method == m)
    }

    /// Sum a per-method metric over all methods.
    pub fn total_of(&self, f: impl Fn(&MethodProfile) -> u64) -> u64 {
        self.methods.iter().map(f).sum()
    }
}

/// Map a register-tier instruction to the CIL opcode kind it descends
/// from, as an index into [`OP_KIND_NAMES`]. Lowering is not 1:1 — moves
/// from copy elimination report as `ldloc`, any constant materialization
/// as `ldc.i4`, both branch-on-bool forms as `brtrue` — a documented
/// approximation that keeps the two tiers' histograms comparable.
/// [`Op::kind_index`] ignores operands, so an arm with none at hand names
/// its `Op` with zeros.
fn rinst_kind_index(inst: &RInst) -> usize {
    let op = match inst {
        RInst::Nop => Op::Nop,
        RInst::MovP { src, .. } | RInst::MovR { src, .. } => Op::LdLoc(*src),
        RInst::ConstP { .. } => Op::LdcI4(0),
        RInst::ConstNull { .. } => Op::LdNull,
        RInst::ConstStr { s, .. } => Op::LdStr(*s),
        RInst::Bin { op, .. } => Op::Bin(*op),
        RInst::Un { op, .. } => Op::Un(*op),
        RInst::Conv { to, .. } => Op::Conv(*to),
        RInst::Cmp { op, .. } | RInst::CmpRef { op, .. } => Op::Cmp(*op),
        RInst::Br { t } => Op::Br(*t),
        RInst::BrIf { t, .. } | RInst::BrIfRef { t, .. } => Op::BrTrue(*t),
        RInst::BrCmp { op, t, .. } => Op::BrCmp(*op, *t),
        RInst::Call { target, virt: false, .. } => Op::Call(*target),
        RInst::Call { target, virt: true, .. } => Op::CallVirt(*target),
        RInst::CallIntr { i, .. } => Op::CallIntrinsic(*i),
        RInst::Ret { .. } => Op::Ret,
        RInst::NewObj { ctor, .. } => Op::NewObj(*ctor),
        RInst::LdFld { .. } => Op::LdFld(FieldId(0)),
        RInst::StFld { .. } => Op::StFld(FieldId(0)),
        RInst::LdSFld { .. } => Op::LdSFld(FieldId(0)),
        RInst::StSFld { .. } => Op::StSFld(FieldId(0)),
        RInst::IsInst { class, .. } => Op::IsInst(*class),
        RInst::CastClass { class, .. } => Op::CastClass(*class),
        RInst::NewArr { kind, .. } => Op::NewArr(*kind),
        RInst::LdLen { .. } => Op::LdLen,
        RInst::LdElem { kind, .. } => Op::LdElem(*kind),
        RInst::StElem { kind, .. } => Op::StElem(*kind),
        RInst::NewMulti { kind, .. } => Op::NewMultiArr { kind: *kind, rank: 0 },
        RInst::LdElemMulti { kind, .. } => Op::LdElemMulti { kind: *kind, rank: 0 },
        RInst::StElemMulti { kind, .. } => Op::StElemMulti { kind: *kind, rank: 0 },
        RInst::LdMultiLen { dim, .. } => Op::LdMultiLen { dim: *dim },
        RInst::BoxV { ty, .. } => Op::BoxVal(*ty),
        RInst::UnboxV { ty, .. } => Op::UnboxVal(*ty),
        RInst::Throw { .. } => Op::Throw,
        RInst::Leave { t } => Op::Leave(*t),
        RInst::EndFinally => Op::EndFinally,
    };
    op.kind_index()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_names_roundtrip() {
        for l in [ObserveLevel::Off, ObserveLevel::Counters, ObserveLevel::Trace] {
            assert_eq!(ObserveLevel::parse(l.as_str()), Some(l));
        }
        assert_eq!(ObserveLevel::parse("bogus"), None);
        assert!(ObserveLevel::Off < ObserveLevel::Counters);
        assert!(ObserveLevel::Counters < ObserveLevel::Trace);
    }

    #[test]
    fn every_rinst_maps_to_the_cil_kind_it_descends_from() {
        let samples = std::iter::successors(Some(RInst::Nop), crate::rir::tests::next_sample);
        let names: Vec<_> = samples.map(|i| OP_KIND_NAMES[rinst_kind_index(&i)]).collect();
        let want = [
            "nop", "ldloc", "ldloc", "ldc.i4", "ldnull", "ldstr", "bin", "un", "conv", "cmp",
            "cmp", "br", "brtrue", "brtrue", "brcmp", "call", "callintrinsic", "ret", "newobj",
            "ldfld", "stfld", "ldsfld", "stsfld", "isinst", "castclass", "newarr", "ldlen",
            "ldelem", "stelem", "newmultiarr", "ldelem.multi", "stelem.multi", "ldlen.multi",
            "box", "unbox", "throw", "leave", "endfinally",
        ];
        assert_eq!(names, want);
        let virt = RInst::Call { target: MethodId(0), virt: true, args: Box::new([]), dst: None };
        assert_eq!(OP_KIND_NAMES[rinst_kind_index(&virt)], "callvirt");
    }

    #[test]
    fn a_second_compile_record_keeps_the_first() {
        let obs = Observer::new(ObserveLevel::Trace, 2);
        let compile = |rir_len, pc| Compile {
            outcome: JitOutcome { rir_len, ..JitOutcome::default() },
            loop_rejections: vec![(pc, LoopRejectReason::GuardShape)],
        };
        obs.record_compile(MethodId(1), compile(7, 3));
        obs.record_compile(MethodId(1), compile(9, 5));
        let rep = obs.report(|_| "M".into());
        // Compiled but never run: listed, with its first record only.
        assert_eq!(rep.methods.len(), 1);
        assert_eq!(rep.methods[0].method, MethodId(1));
        assert_eq!(rep.methods[0].invocations, 0);
        assert_eq!(rep.methods[0].compile, Some(compile(7, 3)));
    }

    #[test]
    fn off_observer_allocates_no_cells() {
        let obs = Observer::new(ObserveLevel::Off, 100);
        assert!(!obs.enabled());
        assert_eq!(obs.cells.len(), 0);
        assert_eq!(obs.compiles.len(), 0);
        assert_eq!(Observer::new(ObserveLevel::Counters, 100).compiles.len(), 0);
    }

    #[test]
    fn phase_timing_only_reads_clock_at_trace() {
        use std::sync::atomic::AtomicU64;
        for level in [ObserveLevel::Off, ObserveLevel::Counters, ObserveLevel::Trace] {
            let obs = Observer::new(level, 1);
            let reads = Arc::new(AtomicU64::new(0));
            let r = reads.clone();
            obs.set_clock(Arc::new(move || r.fetch_add(1, Ordering::Relaxed) * 50));
            let t = obs.phase_start();
            obs.phase_end(VmPhase::JitLower, t);
            if level == ObserveLevel::Trace {
                assert_eq!(reads.load(Ordering::Relaxed), 2);
                let timings = obs.phase_timings();
                assert_eq!(timings.len(), 1);
                assert_eq!(timings[0].phase, VmPhase::JitLower);
                assert_eq!(timings[0].count, 1);
                assert_eq!(timings[0].total_ns, 50);
            } else {
                assert!(t.is_none());
                assert_eq!(reads.load(Ordering::Relaxed), 0, "{level:?} read the clock");
                assert!(obs.phase_timings().is_empty());
            }
        }
    }

    #[test]
    fn phase_names_are_stable() {
        let names: Vec<_> = VmPhase::ALL.iter().map(|p| p.as_str()).collect();
        let want = [
            "jit-lower",
            "jit-optimize",
            "opt-analyze",
            "opt-propagate",
            "opt-strength",
            "opt-bce",
            "opt-dce",
            "opt-compact",
            "opt-abce",
            "opt-range-abce",
            "opt-licm",
            "opt-version",
            "opt-div-quirk",
            "jit-allocate",
            "jit-build",
            "eh-unwind",
        ];
        assert_eq!(names, want);
        for (i, p) in VmPhase::ALL.iter().enumerate() {
            assert_eq!(*p as usize, i);
        }
    }
}
