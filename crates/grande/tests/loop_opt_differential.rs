//! Bounds-check elision and the loop-aware tier must be pure
//! optimizations: turning `bce` (the structural matcher, ABCE, the range
//! analysis and loop versioning) and LICM off cannot change a single bit
//! of any kernel's checksum. This is the differential guard for the
//! unchecked element accesses the passes emit — the engine still traps
//! an unchecked out-of-range access as an internal error, so an unsound
//! elimination fails loudly here rather than reading stray memory.

use hpcnet_grande::{registry, run_entry, vm_for};
use hpcnet_vm::VmProfile;

/// Sizes small enough for exhaustive cross-config validation (mirrors
/// `validate_benchmarks.rs`).
fn validation_n(entry_id: &str, small_n: i32) -> i32 {
    match entry_id {
        id if id.starts_with("arith") => 10_000,
        id if id.starts_with("assign") => 10_000,
        id if id.starts_with("cast") => 10_000,
        id if id.starts_with("create") => 2_000,
        id if id.starts_with("exception") => 500,
        id if id.starts_with("loop") => 10_000,
        id if id.starts_with("math") => 2_000,
        id if id.starts_with("method") => 10_000,
        id if id.starts_with("serial") => 50,
        id if id.starts_with("matrix") => 10,
        id if id.starts_with("boxing") => 10_000,
        "lock.uncontended" => 10_000,
        "lock.contended" => 2_000,
        "scimark.fft" => 256,
        "scimark.sor" => 32,
        "scimark.montecarlo" => 10_000,
        "scimark.sparse" => 200,
        "scimark.lu" => 32,
        "app.fibonacci" => 15,
        "app.sieve" => 10_000,
        "app.hanoi" => 10,
        "app.heapsort" => 5_000,
        "app.crypt" => 2_048,
        "app.moldyn" => 3,
        "app.euler" => 16,
        "app.search" => 6,
        "app.raytracer" => 12,
        _ => small_n.min(10_000),
    }
}

#[test]
fn loop_passes_do_not_change_any_kernel_bits() {
    let mut off = VmProfile::clr11();
    off.name = "CLR - elision and LICM";
    off.passes.bce = false;
    off.passes.licm = false;
    for group in registry() {
        let on_vm = vm_for(&group, VmProfile::clr11());
        let off_vm = vm_for(&group, off);
        for entry in group.entries.iter().filter(|e| !e.threaded) {
            if entry.id == "math.random" {
                // Draws from the process-global generator; successive VMs
                // see different stream positions.
                continue;
            }
            let n = validation_n(entry.id, entry.small_n);
            let with = run_entry(&on_vm, entry, n)
                .unwrap_or_else(|e| panic!("{} with loop passes: {e}", entry.id));
            let without = run_entry(&off_vm, entry, n)
                .unwrap_or_else(|e| panic!("{} without loop passes: {e}", entry.id));
            assert_eq!(
                with.to_bits(),
                without.to_bits(),
                "{}: ABCE/LICM changed the result ({with} vs {without})",
                entry.id
            );
        }
        on_vm.join_all_threads();
        off_vm.join_all_threads();
    }
}

/// The paper's Graph 12 jagged-matrix copy hand-hoists the row length
/// (`int len = bi.Length`); the ABCE pass must see through that local on
/// the optimizing CLR, and Mono (no loop passes) must report nothing.
#[test]
fn jagged_matrix_copy_loses_checks_on_clr_only() {
    let group = registry().into_iter().find(|g| g.id == "matrix").unwrap();
    let entry = group.entries.iter().find(|e| e.id == "matrix.jagged.value").unwrap();

    let clr = vm_for(&group, VmProfile::clr11());
    run_entry(&clr, entry, 8).unwrap();
    assert!(
        clr.counters.snapshot().bounds_checks_eliminated > 0,
        "CLR 1.1 should drop the jagged copy's inner-loop checks"
    );

    let mono = vm_for(&group, VmProfile::mono023());
    run_entry(&mono, entry, 8).unwrap();
    assert_eq!(mono.counters.snapshot().bounds_checks_eliminated, 0);
}

/// The headline claim for the range/versioning tiers: the derived-index
/// kernels — SparseMatMul's row-pointer-bounded inner loop, LU's
/// partial-pivot row sweeps — must lose checks that idiom matching alone
/// cannot prove away on the reference CLR. CI's `abce-audit` job runs
/// this test in release.
#[test]
fn sparse_and_lu_eliminate_beyond_idiom_on_clr() {
    let group = registry().into_iter().find(|g| g.id == "scimark").unwrap();
    for id in ["scimark.sparse", "scimark.lu"] {
        let entry = group.entries.iter().find(|e| e.id == id).unwrap();
        let vm = vm_for(&group, VmProfile::clr11());
        run_entry(&vm, entry, validation_n(id, entry.small_n)).unwrap();
        let c = vm.counters.snapshot();
        let beyond = c.bce_elided_range + c.bce_elided_versioned;
        assert!(beyond > 0, "{id}: no range/versioned eliminations");
        assert!(
            c.bounds_checks_eliminated > c.bce_elided_idiom,
            "{id}: nothing eliminated beyond idiom matching"
        );
        assert_eq!(
            c.bounds_checks_eliminated,
            c.bce_elided_idiom + beyond,
            "{id}: per-mechanism split does not sum to the total"
        );
        vm.join_all_threads();
    }
}
