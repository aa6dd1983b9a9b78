//! The math routines a profile installs give the same bits on every tier.
//!
//! Each of the 14 routines of the math table (`Math.Sin` … `Math.Rint`, 12
//! unary, plus `Math.Atan2` and `Math.Pow` over every pair) runs on the
//! edge inputs — NaN, ±0, ±∞, a subnormal, `1e300` and −1, a domain error
//! for `Log`, `Sqrt` and `Asin` — in a method of its own. The result bits on
//! `clr11`, `mono023` and `clr11_compiled` (the fast table) and on
//! `jvm_ibm131` (the strict one) must equal those of the same profile run
//! by the interpreter, whose intrinsic path is the oracle. And the table a
//! register tier runs is the profile's.

use hpcnet_cil::{CilType, Intrinsic, MethodKind, Module, ModuleBuilder};
use hpcnet_runtime::math::MathTable;
use hpcnet_runtime::Value;
use hpcnet_vm::{declare_prelude, Tier, Vm, VmProfile};

const UNARY: [Intrinsic; 12] = [
    Intrinsic::Sin,
    Intrinsic::Cos,
    Intrinsic::Tan,
    Intrinsic::Asin,
    Intrinsic::Acos,
    Intrinsic::Atan,
    Intrinsic::Floor,
    Intrinsic::Ceil,
    Intrinsic::Sqrt,
    Intrinsic::Exp,
    Intrinsic::Log,
    Intrinsic::Rint,
];

const BINARY: [Intrinsic; 2] = [Intrinsic::Atan2, Intrinsic::Pow];

const INPUTS: [f64; 8] = [
    f64::NAN,
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    2.5e-310,
    1e300,
    -1.0,
];

/// `M.<routine>(double[, double])`: the intrinsic on its arguments.
fn module() -> Module {
    let mut mb = ModuleBuilder::new();
    declare_prelude(&mut mb);
    let c = mb.declare_class("M", None);
    for i in UNARY.into_iter().chain(BINARY) {
        let params = vec![CilType::R8; i.arg_count()];
        let mut f = mb.method(c, method(i), params, CilType::R8, MethodKind::Static);
        for a in 0..i.arg_count() {
            f.ld_arg(a as u16);
        }
        f.intrinsic(i);
        f.ret();
        f.finish();
    }
    mb.finish()
}

/// `Math.Sin` → `Sin`.
fn method(i: Intrinsic) -> &'static str {
    i.name().trim_start_matches("Math.")
}

/// Every `(routine, operands)` case, with the result's bits on `profile`.
fn results(module: &Module, profile: VmProfile) -> Vec<(String, u64)> {
    let vm = Vm::new(module.clone(), profile).unwrap();
    let mut cases: Vec<(Intrinsic, Vec<f64>)> = Vec::new();
    for i in UNARY {
        cases.extend(INPUTS.map(|x| (i, vec![x])));
    }
    for i in BINARY {
        for x in INPUTS {
            cases.extend(INPUTS.map(|y| (i, vec![x, y])));
        }
    }
    cases
        .into_iter()
        .map(|(i, xs)| {
            let args = xs.iter().map(|&x| Value::R8(x)).collect();
            let r = vm.invoke_by_name(&format!("M.{}", method(i)), args);
            let bits = match r {
                Ok(Some(Value::R8(v))) => v.to_bits(),
                other => panic!("{}{xs:?} on {}: {other:?}", i.name(), profile.name),
            };
            (format!("{}{xs:?}", i.name()), bits)
        })
        .collect()
}

#[test]
fn every_tier_gives_the_interpreters_bits() {
    let module = module();
    let profiles = [
        VmProfile::clr11(),
        VmProfile::mono023(),
        VmProfile::clr11_compiled(),
        VmProfile::jvm_ibm131(),
    ];
    for profile in profiles {
        let want = results(&module, profile.with_tier(Tier::Interpreter));
        let got = results(&module, profile);
        assert_eq!(want.len(), 12 * 8 + 2 * 64);
        for ((case, want), (_, got)) in want.iter().zip(&got) {
            assert_eq!(
                got,
                want,
                "{case} on {}: {:e} against the interpreter's {:e}",
                profile.name,
                f64::from_bits(*got),
                f64::from_bits(*want)
            );
        }
    }
}

#[test]
fn the_profile_picks_the_table() {
    // The fast table for the CLI profiles, the strict one for the JVMs:
    // on a register tier, `Math.Sin(1e300)` is the chosen table's.
    let (fast, strict) = (MathTable::fast(), MathTable::strict());
    assert_ne!((fast.sin)(1e300), (strict.sin)(1e300));
    let module = module();
    for (profile, table) in [
        (VmProfile::clr11(), fast),
        (VmProfile::clr11_compiled(), fast),
        (VmProfile::jvm_ibm131(), strict),
        (VmProfile::jvm_ibm131().with_tier(Tier::Compiled), strict),
    ] {
        let vm = Vm::new(module.clone(), profile).unwrap();
        let r = vm.invoke_by_name("M.Sin", vec![Value::R8(1e300)]).unwrap();
        let bits = r.map(|v| v.as_r8().to_bits());
        assert_eq!(bits, Some((table.sin)(1e300).to_bits()), "{}", profile.name);
    }
}
