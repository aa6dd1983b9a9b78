//! Exact counts, read off `ObserveLevel::Trace` twins of the timed VMs
//! (the timed VMs run with observation off). Counts repeat bit for bit
//! from run to run; the JIT phase times beside them do not.

use crate::run::Metrics;
use hpcnet_vm::{CountersSnapshot, OptShare, Vm, VmPhase};

/// What one observing VM has counted since it was built, in the order of
/// [`DYNAMIC_METRICS`].
pub type Dynamic = [u64; 8];

pub const OPS: usize = 0;
pub const ALLOCS: usize = 1;
pub const CALLS: usize = 3;
pub const THROWS: usize = 4;

/// Metric name and the factor from the counted unit to the metric's.
const DYNAMIC_METRICS: [(&str, f64); 8] = [
    ("vm.ops_executed", 1.0),
    ("runtime.allocs", 1.0),
    ("runtime.alloc_bytes", 1.0),
    ("vm.calls", 1.0),
    ("vm.throws", 1.0),
    ("vm.bounds_checks_executed", 1.0),
    ("vm.bounds_checks_elided", 1.0),
    ("vm.eh_unwind_us", 1e-3),
];

fn phase_ns(vm: &Vm, phase: VmPhase) -> u64 {
    vm.phase_timings()
        .iter()
        .find(|t| t.phase == phase)
        .map_or(0, |t| t.total_ns)
}

pub fn read_dynamic(vm: &Vm) -> Dynamic {
    let report = vm.observe_report().expect("the VM was built observing");
    let (heap, counters) = (vm.heap.stats(), vm.counters.snapshot());
    [
        report.total_ops,
        heap.allocations,
        heap.bytes_allocated,
        counters.calls,
        counters.throws,
        report.total_of(|m| m.bounds_checks_executed),
        report.total_of(|m| m.bounds_checks_elided),
        phase_ns(vm, VmPhase::EhUnwind),
    ]
}

pub fn since(now: Dynamic, earlier: Dynamic) -> Dynamic {
    std::array::from_fn(|i| now[i] - earlier[i])
}

/// Sums over the VMs of one pass (or one set-up round).
#[derive(Default)]
pub struct Observed {
    dynamic: Dynamic,
    /// Lower, optimize, allocate.
    jit_phase_ns: [u64; 3],
    jit: CountersSnapshot,
    share: (u64, u64),
}

impl Observed {
    pub fn add_dynamic(&mut self, d: &Dynamic) {
        for (total, x) in self.dynamic.iter_mut().zip(d) {
            *total += x;
        }
    }

    /// What JIT-ing this VM's methods took and found.
    pub fn add_jit(&mut self, vm: &Vm) {
        let phases = [
            VmPhase::JitLower,
            VmPhase::JitOptimize,
            VmPhase::JitAllocate,
        ];
        for (total, phase) in self.jit_phase_ns.iter_mut().zip(phases) {
            *total += phase_ns(vm, phase);
        }
        let (j, c) = (&mut self.jit, vm.counters.snapshot());
        j.bounds_checks_eliminated += c.bounds_checks_eliminated;
        j.bce_elided_range += c.bce_elided_range;
        j.bce_elided_versioned += c.bce_elided_versioned;
        j.loops_versioned += c.loops_versioned;
        j.licm_hoisted += c.licm_hoisted;
    }

    pub fn add_share(&mut self, share: &OptShare) {
        let (hits, misses) = share.stats();
        self.share = (self.share.0 + hits, self.share.1 + misses);
    }

    pub fn metrics(&self, m: &mut Metrics) {
        for (&(name, factor), &count) in DYNAMIC_METRICS.iter().zip(&self.dynamic) {
            m.set(name, count as f64 * factor);
        }
        let [lower, optimize, allocate] = self.jit_phase_ns;
        m.set("rir.lower_us", lower as f64 / 1e3);
        m.set("rir.optimize_us", optimize as f64 / 1e3);
        m.set("rir.allocate_us", allocate as f64 / 1e3);
        m.set("rir.bce_elided", self.jit.bounds_checks_eliminated as f64);
        m.set("rir.bce_elided_range", self.jit.bce_elided_range as f64);
        m.set(
            "rir.bce_elided_versioned",
            self.jit.bce_elided_versioned as f64,
        );
        m.set("rir.loops_versioned", self.jit.loops_versioned as f64);
        m.set("rir.licm_hoisted", self.jit.licm_hoisted as f64);
        let (hits, misses) = self.share;
        m.set(
            "rir.share_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
    }
}
