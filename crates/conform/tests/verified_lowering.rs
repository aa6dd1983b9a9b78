//! A verified module and the same module bound unverified JIT to the same
//! RIR.
//!
//! `Vm::new` runs `verify_module`, which records each body's stack shapes,
//! and the register tiers lower from them. `Vm::new_unverified` binds the
//! module as it is, so lowering verifies each method itself. The listings
//! [`print_rir`] prints for every method must not tell the two apart, on
//! both rankings (`clr11`, `mono023` use counts, `clr11_compiled` linear
//! scan), for every Grande group and for a window of conform programs.

use conform::gen::{generate, render};
use hpcnet_cil::{MethodId, Module};
use hpcnet_vm::{print_rir, Vm, VmProfile};
use std::sync::Arc;

const SEEDS: std::ops::Range<u64> = 0..16;

/// The listing of every method with a body, JIT-ed on `vm`.
fn listings(vm: &Arc<Vm>, module: &Module, label: &str) -> Vec<String> {
    (0..module.methods.len() as u32)
        .map(MethodId)
        .filter(|&m| !module.method(m).body.code.is_empty())
        .map(|m| {
            let rir = vm
                .compiled(m)
                .unwrap_or_else(|e| panic!("{label} / {}: JIT: {e}", module.method(m).name));
            format!("{}\n{}", module.method(m).name, print_rir(&rir))
        })
        .collect()
}

fn check(label: &str, module: Module) {
    for profile in [
        VmProfile::clr11(),
        VmProfile::clr11_compiled(),
        VmProfile::mono023(),
    ] {
        let label = format!("{label} on {}", profile.name);
        let verified = Vm::new(module.clone(), profile).unwrap_or_else(|e| panic!("{label}: {e}"));
        let unverified = Vm::new_unverified(module.clone(), profile);
        let (want, got) = (
            listings(&verified, &module, &label),
            listings(&unverified, &module, &label),
        );
        for (w, g) in want.iter().zip(&got) {
            assert_eq!(w, g, "{label}: listings differ");
        }
        assert_eq!(want.len(), got.len(), "{label}");
    }
}

#[test]
fn verified_and_unverified_modules_lower_to_the_same_rir() {
    for group in hpcnet_grande::registry() {
        let module = hpcnet_minics::compile(group.source)
            .unwrap_or_else(|e| panic!("grande group {}: {e}", group.id));
        check(&format!("grande group {}", group.id), module);
    }
    for seed in SEEDS {
        let module = hpcnet_minics::compile(&render(&generate(seed)))
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        check(&format!("seed {seed}"), module);
    }
}
