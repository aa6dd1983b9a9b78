//! Exact work counts of the register-tier profiles, pinned as literals.
//!
//! A change to how the executors dispatch an op or make a call may change
//! how long the work takes, never how much of it there is: managed calls
//! (`counters.calls`), fuel spent (one unit per call, taken branch, `leave`
//! and handler entered by exception dispatch) and the ops each method
//! executes (`ObserveReport`) are a pure function of the program and the
//! profile. The rows are the call-, virtual-,
//! exception-, lock-, allocation- and math-heavy entries of the Grande
//! registry, plus a loop whose fuel is almost all taken branches, on the
//! CLR 1.1 knobs under both register allocators and on Mono 0.23's. Two runs
//! stopped by a limit, the depth guard and fuel running out mid-recursion,
//! pin the calls counted up to the limit.
//!
//! An observing VM is the only one that can count ops, and it is not the
//! code that runs unobserved (closure code fuses instruction pairs only
//! where nobody is watching), so every row also runs on a VM with
//! observation off and must spend the same calls and fuel there.

use hpcnet::{find_entry, run_entry, vm_for, ObserveLevel, VmError, VmProfile};
use std::sync::atomic::Ordering;

const FUEL: u64 = 1 << 40;

/// `calls=… fuel=… |` for one run of `id` at size `n` on a fresh VM
/// (static initializers excluded), followed when `profile` observes by
/// ` Class.Method:invocations/ops_excl` for every method that ran.
fn counts(id: &str, n: i32, profile: VmProfile) -> String {
    let (group, entry) = find_entry(id).expect(id);
    let vm = vm_for(&group, profile);
    let before = vm.observe_report();
    let calls0 = vm.counters.calls.load(Ordering::Relaxed);
    vm.set_fuel(Some(FUEL));
    let r = run_entry(&vm, &entry, n).unwrap();
    (entry.validate)(n, r).unwrap_or_else(|e| panic!("{id}: {e}"));
    let fuel = FUEL - vm.fuel_remaining().expect("armed");
    let calls = vm.counters.calls.load(Ordering::Relaxed) - calls0;
    let mut out = format!("calls={calls} fuel={fuel} |");
    let (Some(before), Some(after)) = (before, vm.observe_report()) else {
        return out;
    };
    for m in &after.methods {
        let (inv0, ops0) = before
            .method(m.method)
            .map_or((0, 0), |b| (b.invocations, b.ops_excl));
        if m.invocations > inv0 {
            out += &format!(" {}:{}/{}", m.name, m.invocations - inv0, m.ops_excl - ops0);
        }
    }
    out
}

/// `(id, n, calls/fuel/ops literal)` under the CLR 1.1 knobs. Both of
/// its register allocations run the same optimized RIR, so one literal
/// serves both.
const ROWS: [(&str, i32, &str); 9] = [
    (
        "app.fibonacci",
        15,
        "calls=987 fuel=2960 | Fib.Calc:986/11825 Fib.Run:1/13",
    ),
    (
        "method.virtual",
        1000,
        "calls=2002 fuel=3003 | MethodBench.VirtualCall:1/9009 \
         MethodSub.VirtualAdd:2000/6000 MethodSub..ctor:1/1",
    ),
    (
        "exception.method",
        200,
        "calls=202 fuel=803 | Exception..ctor:1/1 ExceptionBench.Level2:200/400 \
         ExceptionBench.Method:1/2007",
    ),
    (
        "lock.uncontended",
        500,
        "calls=2 fuel=1003 | LWorker..ctor:1/2 LockBench.Uncontended:1/8510",
    ),
    ("app.sieve", 5000, "calls=1 fuel=26069 | Sieve.Run:1/140426"),
    (
        "app.hanoi",
        8,
        "calls=171 fuel=767 | Hanoi.Move:170/3560 Hanoi.Run:1/18",
    ),
    (
        "create.objects",
        100,
        "calls=201 fuel=302 | Small..ctor:200/200 Create.Objects:1/809",
    ),
    (
        "math.sin",
        200,
        "calls=1 fuel=202 | MathBench.SinDouble:1/2205",
    ),
    (
        "math.pow",
        200,
        "calls=1 fuel=402 | MathBench.PowDouble:1/2605",
    ),
];

/// [`ROWS`] under Mono 0.23's knobs: no inlining, no loop optimizer, one
/// register of each kind, so the same entries run more ops and calls.
const MONO_ROWS: [(&str, i32, &str); 9] = [
    (
        "app.fibonacci",
        15,
        "calls=1974 fuel=2960 | Fib.Calc:1973/17753 Fib.Run:1/4",
    ),
    (
        "method.virtual",
        1000,
        "calls=2002 fuel=3003 | MethodBench.VirtualCall:1/16017 \
         MethodSub.VirtualAdd:2000/8000 MethodSub..ctor:1/1",
    ),
    (
        "exception.method",
        200,
        "calls=602 fuel=1203 | Exception..ctor:1/1 ExceptionBench.Level3:200/400 \
         ExceptionBench.Level2:200/200 ExceptionBench.Level1:200/200 \
         ExceptionBench.Method:1/3015",
    ),
    (
        "lock.uncontended",
        500,
        "calls=2 fuel=1003 | LWorker..ctor:1/4 LockBench.Uncontended:1/10017",
    ),
    ("app.sieve", 5000, "calls=1 fuel=26067 | Sieve.Run:1/260165"),
    (
        "app.hanoi",
        8,
        "calls=512 fuel=767 | Hanoi.Move:511/5104 Hanoi.Run:1/7",
    ),
    (
        "create.objects",
        100,
        "calls=201 fuel=302 | Small..ctor:200/200 Create.Objects:1/1216",
    ),
    (
        "math.sin",
        200,
        "calls=1 fuel=202 | MathBench.SinDouble:1/3414",
    ),
    (
        "math.pow",
        200,
        "calls=1 fuel=402 | MathBench.PowDouble:1/4214",
    ),
];

fn register_profiles() -> [VmProfile; 2] {
    [VmProfile::clr11(), VmProfile::clr11_compiled()]
}

/// Every register-tier profile with its pinned rows.
fn pinned() -> [(VmProfile, [(&'static str, i32, &'static str); 9]); 3] {
    [
        (VmProfile::clr11(), ROWS),
        (VmProfile::clr11_compiled(), ROWS),
        (VmProfile::mono023(), MONO_ROWS),
    ]
}

#[test]
fn register_tier_work_counts_are_pinned() {
    let mut wrong = Vec::new();
    for (profile, rows) in pinned() {
        for (id, n, want) in rows {
            let got = counts(id, n, profile.with_observe(ObserveLevel::Counters));
            if got != want {
                wrong.push(format!(
                    "{id} n={n} on {}:\n  got  {got}\n  want {want}",
                    profile.name
                ));
            }
        }
    }
    assert!(wrong.is_empty(), "work counts moved:\n{}", wrong.join("\n"));
}

#[test]
fn unobserved_runs_spend_the_pinned_calls_and_fuel() {
    let mut wrong = Vec::new();
    for (profile, rows) in pinned() {
        for (id, n, want) in rows {
            let want = &want[..=want.find('|').expect("calls=… fuel=… |")];
            let got = counts(id, n, profile.with_observe(ObserveLevel::Off));
            if got != want {
                wrong.push(format!(
                    "{id} n={n} on {}:\n  got  {got}\n  want {want}",
                    profile.name
                ));
            }
        }
    }
    assert!(wrong.is_empty(), "unobserved work moved:\n{}", wrong.join("\n"));
}

/// `(limit, max depth, fuel, error, calls)`: `app.fibonacci` at n = 15
/// stopped by the depth guard, or by a budget that runs out in the middle
/// of the recursion. A call is counted once it passed both guards, so the
/// calls made before the limit count, and the one refused does not.
const LIMITS: [(&str, u32, Option<u64>, &str, u64); 2] = [
    ("depth", 6, None, "managed call depth exceeded 6 in Calc", 6),
    ("fuel", 256, Some(1000), "fuel budget exhausted", 335),
];

#[test]
fn a_run_stopped_by_a_limit_counts_the_calls_it_made() {
    let (group, entry) = find_entry("app.fibonacci").expect("app.fibonacci");
    let mut wrong = Vec::new();
    for (limit, depth, fuel, error, want) in LIMITS {
        for profile in register_profiles() {
            for level in [ObserveLevel::Counters, ObserveLevel::Off] {
                let vm = vm_for(&group, profile.with_observe(level));
                let calls0 = vm.counters.calls.load(Ordering::Relaxed);
                vm.set_max_depth(depth);
                vm.set_fuel(fuel);
                match run_entry(&vm, &entry, 15) {
                    Err(VmError::Limit(m)) => assert_eq!(m, error, "{limit} on {}", profile.name),
                    other => panic!("{limit} on {}: {other:?}", profile.name),
                }
                let calls = vm.counters.calls.load(Ordering::Relaxed) - calls0;
                if calls != want {
                    wrong.push(format!(
                        "{limit} on {} ({level:?}): calls={calls}, want {want}",
                        profile.name
                    ));
                }
            }
        }
    }
    assert!(wrong.is_empty(), "calls before a limit moved:\n{}", wrong.join("\n"));
}

/// The pinned fuel is exactly what each register profile needs unobserved,
/// where closure code may fuse instruction pairs: one unit less runs out,
/// the pinned amount does not.
#[test]
fn unobserved_compiled_runs_out_of_fuel_at_the_pinned_boundary() {
    for (profile, rows) in pinned() {
        let profile = profile.with_observe(ObserveLevel::Off);
        for (id, n, want) in rows {
            let spent: u64 = want
                .split_once("fuel=")
                .and_then(|(_, rest)| rest.split_once(' '))
                .and_then(|(fuel, _)| fuel.parse().ok())
                .expect("fuel literal");
            let (group, entry) = find_entry(id).expect(id);
            let on = profile.name;
            for (budget, enough) in [(spent - 1, false), (spent, true)] {
                let vm = vm_for(&group, profile);
                vm.set_fuel(Some(budget));
                match run_entry(&vm, &entry, n) {
                    Ok(r) if enough => {
                        (entry.validate)(n, r).unwrap_or_else(|e| panic!("{id} on {on}: {e}"))
                    }
                    Err(VmError::Limit(m)) if !enough => {
                        assert_eq!(m, "fuel budget exhausted", "{id} on {on} with {budget} fuel")
                    }
                    other => panic!("{id} on {on} with {budget} of {spent} fuel: {other:?}"),
                }
            }
        }
    }
}
