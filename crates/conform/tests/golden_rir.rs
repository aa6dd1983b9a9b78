//! Golden optimizer output: one fingerprint over the allocated RIR of
//! every method the JIT produces for a fixed program set.
//!
//! The conform matrix proves every engine computes the same *answers*; it
//! cannot see a change that keeps answers but alters the generated code
//! (a check no longer elided, a hoist lost, a different spill split).
//! This test pins the code itself: FNV-1a over [`print_rir`] of every
//! method under both register allocators ([`Vm::compiled`] on a
//! [`Tier::Rir`] and on a [`Tier::Compiled`] VM) plus the pass counters,
//! for
//!
//! * every Grande group × every stock profile constructor, and
//! * conform seeds `0..300` × {`clr11`, `clr11_compiled`, `jvm_ibm131`},
//!
//! all with the elision audit on. A second fingerprint, [`GOLDEN_COLD`],
//! pins the generated programs of the benchmark's `cold` workload (seeds
//! `12000..12016`, whose `Gen.Run` bodies are the largest methods the JIT
//! compiles) on the profiles that workload runs on a register tier. A
//! refactor of the optimizer that claims "faster, not different" must
//! leave both untouched; a change that means to alter codegen updates
//! them in the same commit and says why.
//! Every section's hash is printed, so on a mismatch two captured outputs
//! (`cargo test -p conform --test golden_rir -- --nocapture`) diff down to
//! the program and profile that moved.

use conform::gen::{generate, render};
use conform::matrix::compile_verified;
use hpcnet_cil::{MethodId, Module};
use hpcnet_vm::{print_rir, RirMethod, Tier, Vm, VmProfile};
use std::sync::Arc;

/// The fingerprint of the optimizer's output, pinned on the commit before
/// the analysis-context refactor of `rir/{opt,range,audit,loops}.rs`.
const GOLDEN: u64 = 0x21b9_4a26_3de6_9fa8;

const SEEDS: std::ops::Range<u64> = 0..300;

/// The fingerprint of the optimizer's output on `cold`'s generated
/// programs, pinned on the commit before the optimizer's cost cuts.
const GOLDEN_COLD: u64 = 0xcc2d_0851_ab51_db21;

/// `cold`'s generated program set (`bench/src/inputs.rs`, `GEN_BASE_SEED`
/// and the 16 programs after it).
const COLD_SEEDS: std::ops::Range<u64> = 12_000..12_016;

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn num(&mut self, n: u64) {
        self.bytes(&n.to_le_bytes());
    }
}

/// Every stock constructor in `profile.rs`.
fn stock_profiles() -> [VmProfile; 8] {
    [
        VmProfile::clr11_compiled(),
        VmProfile::clr11(),
        VmProfile::jsharp11(),
        VmProfile::mono023(),
        VmProfile::sscli10(),
        VmProfile::jvm_ibm131(),
        VmProfile::jvm_bea81(),
        VmProfile::jvm_sun14(),
    ]
}

/// JIT every method with a body on a fresh audited VM of each register
/// tier — the use-count allocation ([`Tier::Rir`]) and the linear scan
/// ([`Tier::Compiled`]) — and hash listings + both VMs' counters. (No
/// `OptShare`: the two VMs run the front half independently, so a
/// nondeterministic pass would also show.)
fn fingerprint(module: &Arc<Module>, profile: VmProfile) -> u64 {
    let vm = |tier| Vm::new_shared(module.clone(), profile.with_audit(true).with_tier(tier));
    let (use_count, linear) = (vm(Tier::Rir), vm(Tier::Compiled));
    let mut h = Fnv::new();
    let mut spills = 0u64;
    let mut method = |h: &mut Fnv, rir: &RirMethod| {
        h.bytes(print_rir(rir).as_bytes());
        spills += u64::from(rir.n_pspill) + u64::from(rir.n_rspill);
    };
    for m in (0..module.methods.len() as u32).map(MethodId) {
        if module.method(m).body.code.is_empty() {
            continue;
        }
        let name = &module.method(m).name;
        h.bytes(name.as_bytes());
        for (vm, allocator) in [(&use_count, "use-count"), (&linear, "linear-scan")] {
            let rir = vm
                .compiled(m)
                .unwrap_or_else(|e| panic!("{} / {name}: {allocator} JIT: {e}", profile.name));
            method(&mut h, &rir);
        }
    }
    let (a, b) = (use_count.counters.snapshot(), linear.counters.snapshot());
    for n in [
        a.bce_elided_idiom + b.bce_elided_idiom,
        a.bce_elided_range + b.bce_elided_range,
        a.bce_elided_versioned + b.bce_elided_versioned,
        a.loops_versioned + b.loops_versioned,
        a.licm_hoisted + b.licm_hoisted,
        spills,
    ] {
        h.num(n);
    }
    h.0
}

/// Hash one section into the running total, printing it so two captured
/// outputs diff down to the section that moved.
fn section(total: &mut Fnv, label: String, hash: u64) {
    println!("{hash:016x} {label}");
    total.bytes(label.as_bytes());
    total.num(hash);
}

/// Every method of conform seed `seed` on each of `profiles`.
fn seed_sections(total: &mut Fnv, seed: u64, profiles: &[VmProfile]) {
    let src = render(&generate(seed));
    let module = compile_verified(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    let module = Arc::new(module);
    for &profile in profiles {
        let label = format!("seed {seed} on {}", profile.name);
        section(total, label, fingerprint(&module, profile));
    }
}

#[test]
fn optimizer_output_matches_the_pinned_fingerprint() {
    let mut total = Fnv::new();
    for group in hpcnet_grande::registry() {
        let module = compile_verified(group.source)
            .unwrap_or_else(|e| panic!("grande group {}: {e}", group.id));
        let module = Arc::new(module);
        for profile in stock_profiles() {
            let label = format!("{} on {}", group.id, profile.name);
            section(&mut total, label, fingerprint(&module, profile));
        }
    }
    let profiles = [VmProfile::clr11(), VmProfile::clr11_compiled(), VmProfile::jvm_ibm131()];
    for seed in SEEDS {
        seed_sections(&mut total, seed, &profiles);
    }
    assert_eq!(
        total.0, GOLDEN,
        "optimizer output changed: fingerprint is {:#018x}; the section hashes above \
         locate the program and profile",
        total.0
    );
}

#[test]
fn cold_programs_match_the_pinned_fingerprint() {
    let mut total = Fnv::new();
    let profiles = [VmProfile::clr11(), VmProfile::clr11_compiled(), VmProfile::mono023()];
    for seed in COLD_SEEDS {
        seed_sections(&mut total, seed, &profiles);
    }
    assert_eq!(
        total.0, GOLDEN_COLD,
        "optimizer output on cold's programs changed: fingerprint is {:#018x}; the section \
         hashes above locate the program and profile",
        total.0
    );
}
