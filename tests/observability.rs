//! Observation-cost regression: the VM phase probe must be free when it
//! is off. `ObserveLevel::Off` and `Counters` never read the trace
//! clock — pinned here with a counting clock across interpreter and
//! compiled profiles — while `Trace` times JIT passes and EH unwinds
//! without changing program results.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hpcnet::{
    compile_and_load, find_entry, run_entry, vm_for, ObserveLevel, Tier, Value, VmPhase, VmProfile,
};

/// Counted loop taking an exception on every third iteration: exercises
/// JIT lowering (on compiled tiers) and EH unwind dispatch everywhere.
/// With n = 10 it throws 4 times (i = 0, 3, 6, 9) and returns
/// (1+2+4+5+7+8) + 4 = 31.
const SRC: &str = r#"
    class Probe {
        static int Work(int n) {
            int acc = 0;
            for (int i = 0; i < n; i++) {
                try {
                    if (i - (i / 3) * 3 == 0) { throw new Exception(); }
                    acc += i;
                } catch (Exception e) {
                    acc += 1;
                }
            }
            return acc;
        }
    }
"#;

const THROWS: u64 = 4;
const EXPECTED: i32 = 31;

fn profiles() -> [VmProfile; 3] {
    [VmProfile::clr11(), VmProfile::clr11_compiled(), VmProfile::sscli10()]
}

/// Run the probe with a counting clock installed; returns the number of
/// clock reads the run performed.
fn run_counted(profile: VmProfile, level: ObserveLevel) -> (u64, Vec<hpcnet::PhaseTiming>) {
    let vm = compile_and_load(SRC, profile.with_observe(level)).expect("probe compiles");
    let reads = Arc::new(AtomicU64::new(0));
    let r = reads.clone();
    vm.set_trace_clock(Arc::new(move || r.fetch_add(1, Ordering::Relaxed) * 50));
    let out = vm.invoke_by_name("Probe.Work", vec![Value::I4(10)]).unwrap().unwrap();
    assert_eq!(out.as_i4(), EXPECTED, "{}: wrong result", vm.profile.name);
    (reads.load(Ordering::Relaxed), vm.phase_timings())
}

/// `Off` and `Counters` never touch the clock and accumulate no phase
/// timings — the instrumented hot paths cost nothing when not tracing.
#[test]
fn below_trace_the_clock_is_never_read() {
    for profile in profiles() {
        for level in [ObserveLevel::Off, ObserveLevel::Counters] {
            let (reads, timings) = run_counted(profile, level);
            assert_eq!(reads, 0, "{}@{level:?} read the trace clock", profile.name);
            assert!(timings.is_empty(), "{}@{level:?} recorded phases", profile.name);
        }
    }
}

/// At `Trace` the same run reads the clock and reports per-phase
/// accounting: every profile dispatches one EH unwind per throw, and
/// register tiers additionally time their JIT passes and op build.
#[test]
fn trace_level_times_eh_dispatch_and_jit_passes() {
    for profile in profiles() {
        let (reads, timings) = run_counted(profile, ObserveLevel::Trace);
        assert!(reads > 0, "{}: Trace never read the clock", profile.name);
        assert!(!timings.is_empty(), "{}: Trace recorded no phases", profile.name);
        let eh = timings
            .iter()
            .find(|t| t.phase == VmPhase::EhUnwind)
            .unwrap_or_else(|| panic!("{}: no EH unwind timing", profile.name));
        assert_eq!(eh.count, THROWS, "{}: one unwind per throw", profile.name);
        // A register tier times building each compiled method's op
        // records; the interpreter builds none.
        let builds = timings.iter().any(|t| t.phase == VmPhase::JitBuild);
        assert_eq!(builds, profile.tier != Tier::Interpreter, "{}: jit-build", profile.name);
        // The counting clock is strictly increasing, so every recorded
        // phase has a positive duration.
        assert!(timings.iter().all(|t| t.total_ns > 0));
    }
}

/// A counted loop over an array, an invariant product and a division by
/// a constant: on `clr11` it runs every optimizer pass.
const PASSES_SRC: &str = r#"
    class Passes {
        static int Sum(int n) {
            int[] a = new int[n];
            int s = 0;
            for (int i = 0; i < a.Length; i++) { a[i] = i * 4; s = s + a[i] + n * 3; }
            return s / 7;
        }
    }
"#;

/// The phases `rir::opt::optimize` times, one per pass, nested inside
/// `jit-optimize`.
const PASS_PHASES: [VmPhase; 11] = [
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
];

/// At `Trace` a CLR compile times every optimizer pass as its own phase,
/// inside `jit-optimize`, on both register tiers.
#[test]
fn trace_level_times_every_optimizer_pass() {
    for profile in [VmProfile::clr11(), VmProfile::clr11_compiled()] {
        let vm = compile_and_load(PASSES_SRC, profile.with_observe(ObserveLevel::Trace)).unwrap();
        let reads = Arc::new(AtomicU64::new(0));
        let r = reads.clone();
        vm.set_trace_clock(Arc::new(move || r.fetch_add(1, Ordering::Relaxed) * 50));
        let out = vm.invoke_by_name("Passes.Sum", vec![Value::I4(10)]).unwrap().unwrap();
        assert_eq!(out.as_i4(), (0..10).map(|i| i * 4 + 30).sum::<i32>() / 7);
        let timings = vm.phase_timings();
        let ns = |phase: VmPhase| {
            let t = timings.iter().find(|t| t.phase == phase);
            t.unwrap_or_else(|| panic!("{}: no {} timing", profile.name, phase.as_str())).total_ns
        };
        let nested: u64 = PASS_PHASES.iter().map(|&p| ns(p)).sum();
        assert!(nested > 0);
        assert!(
            nested < ns(VmPhase::JitOptimize),
            "{}: the pass phases nest inside jit-optimize",
            profile.name
        );
    }
}

/// Observation level never changes what a program computes: all three
/// levels agree with each other on every profile.
#[test]
fn observe_level_never_changes_results() {
    for profile in profiles() {
        for level in [ObserveLevel::Off, ObserveLevel::Counters, ObserveLevel::Trace] {
            let vm = compile_and_load(SRC, profile.with_observe(level)).unwrap();
            let out = vm.invoke_by_name("Probe.Work", vec![Value::I4(31)]).unwrap().unwrap();
            // n = 31 throws on 11 iterations and sums the other 20.
            let want: i32 =
                (0..31).filter(|i| i % 3 != 0).sum::<i32>() + (0..31).filter(|i| i % 3 == 0).count() as i32;
            assert_eq!(out.as_i4(), want, "{}@{level:?}", profile.name);
        }
    }
}

/// At `Trace` the report holds exactly one compile record per compiled
/// method, `jit_compiles` of them, however much the run throws: 5,000
/// throws of `exception.throw` once filled a bounded event buffer and
/// pushed compile events out. A register tier compiles every method it
/// enters; the interpreter compiles none.
#[test]
fn trace_keeps_one_compile_record_per_compiled_method() {
    let (group, entry) = find_entry("exception.throw").unwrap();
    for profile in VmProfile::cli_lineup() {
        let vm = vm_for(&group, profile.with_observe(ObserveLevel::Trace));
        let n = 5_000;
        (entry.validate)(n, run_entry(&vm, &entry, n).unwrap()).unwrap();
        let report = vm.observe_report().unwrap();
        let records = report.methods.iter().filter(|m| m.compile.is_some()).count() as u64;
        let compiles = vm.counters.jit_compiles.load(Ordering::Relaxed);
        assert_eq!(records, compiles, "{}: one record per compiled method", profile.name);
        let entered = report.methods.iter().filter(|m| m.invocations > 0);
        if profile.tier == Tier::Interpreter {
            assert_eq!(records, 0, "{}: the interpreter never compiles", profile.name);
        } else {
            for m in entered {
                assert!(m.compile.is_some(), "{}: {} ran uncompiled", profile.name, m.name);
            }
        }
        assert!(report.total_of(|m| m.eh_catch) >= n as u64, "{}: one catch per throw", profile.name);
    }
}
