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
//! all with the elision audit on. A refactor of the optimizer that claims
//! "faster, not different" must leave [`GOLDEN`] untouched; a change that
//! means to alter codegen updates it in the same commit and says why.
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

#[test]
fn optimizer_output_matches_the_pinned_fingerprint() {
    let mut total = Fnv::new();
    let mut section = |label: String, hash: u64| {
        println!("{hash:016x} {label}");
        total.bytes(label.as_bytes());
        total.num(hash);
    };
    for group in hpcnet_grande::registry() {
        let module = compile_verified(group.source)
            .unwrap_or_else(|e| panic!("grande group {}: {e}", group.id));
        let module = Arc::new(module);
        for profile in stock_profiles() {
            let label = format!("{} on {}", group.id, profile.name);
            section(label, fingerprint(&module, profile));
        }
    }
    for seed in SEEDS {
        let src = render(&generate(seed));
        let module = compile_verified(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let module = Arc::new(module);
        for profile in [
            VmProfile::clr11(),
            VmProfile::clr11_compiled(),
            VmProfile::jvm_ibm131(),
        ] {
            let label = format!("seed {seed} on {}", profile.name);
            section(label, fingerprint(&module, profile));
        }
    }
    assert_eq!(
        total.0, GOLDEN,
        "optimizer output changed: fingerprint is {:#018x}; the section hashes above \
         locate the program and profile",
        total.0
    );
}
