//! Exact work counts of the two register tiers, pinned as literals.
//!
//! A change to how the executors dispatch an op or make a call may change
//! how long the work takes, never how much of it there is: managed calls
//! (`counters.calls`), fuel spent (one unit per call and per taken branch)
//! and the ops each method executes (`ObserveReport`) are a pure function
//! of the program and the profile. The four rows are the call-, virtual-,
//! exception- and lock-heavy entries of the Grande registry.

use hpcnet::{find_entry, run_entry, vm_for, ObserveLevel, VmProfile};
use std::sync::atomic::Ordering;

const FUEL: u64 = 1 << 40;

/// `calls=… fuel=… | Class.Method:invocations/ops_excl …` for one run of
/// `id` at size `n` on a fresh VM (static initializers excluded).
fn counts(id: &str, n: i32, profile: VmProfile) -> String {
    let (group, entry) = find_entry(id).expect(id);
    let vm = vm_for(&group, profile.with_observe(ObserveLevel::Counters));
    let before = vm.observe_report().expect("observing");
    let calls0 = vm.counters.calls.load(Ordering::Relaxed);
    vm.set_fuel(Some(FUEL));
    let r = run_entry(&vm, &entry, n).unwrap();
    (entry.validate)(n, r).unwrap_or_else(|e| panic!("{id}: {e}"));
    let fuel = FUEL - vm.fuel_remaining().expect("armed");
    let calls = vm.counters.calls.load(Ordering::Relaxed) - calls0;
    let after = vm.observe_report().expect("observing");
    let mut out = format!("calls={calls} fuel={fuel} |");
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

#[test]
fn register_tier_work_counts_are_pinned() {
    // Both tiers run the same optimized RIR, so one literal serves both.
    let rows = [
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
            "calls=202 fuel=403 | Exception..ctor:1/1 ExceptionBench.Level2:200/400 \
             ExceptionBench.Method:1/2007",
        ),
        (
            "lock.uncontended",
            500,
            "calls=2 fuel=503 | LWorker..ctor:1/2 LockBench.Uncontended:1/8510",
        ),
    ];
    let mut wrong = Vec::new();
    for (id, n, want) in rows {
        for profile in [VmProfile::clr11(), VmProfile::clr11_compiled()] {
            let got = counts(id, n, profile);
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
