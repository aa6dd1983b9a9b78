//! Verified CIL cannot panic the host.
//!
//! Each case is a small hand-built module the MiniC# compiler would never
//! emit: a field access on a string, a multidimensional access of rank 4,
//! element access through an `object` reference on an array of another
//! kind or rank. The verifier either rejects the module, or every engine
//! raises the same managed exception for it — the interpreter
//! (`sscli10`), the use-count register tier (`clr11`, and `mono023` for
//! the helper-call multidimensional path) and the linear-scan tier
//! (`clr11_compiled`). Two more break an exception-handling invariant the
//! verifier does not check (an `endfinally` outside any handler, a `ret`
//! inside a finally): every engine ends them with the same
//! `VmError::Internal` text, naming the method by its simple name. Nothing
//! here catches an unwind: a host panic fails the test. The last two tests
//! bind modules without verifying them first, or edit a body after
//! verification.

use hpcnet_cil::{CilType, ElemKind, FieldId, MethodBuilder, MethodKind, Module, ModuleBuilder, Op};
use hpcnet_vm::{declare_prelude, Vm, VmError, VmProfile};

/// How a case must end, on every engine.
#[derive(Clone, Debug, PartialEq)]
enum Outcome {
    /// `Vm::new` refused the module.
    Rejected,
    /// `Main` raised a managed exception of this class.
    Throws(&'static str),
    /// `Main` ended with `VmError::Internal` of this text.
    Internal(&'static str),
}

const CAST: Outcome = Outcome::Throws("InvalidCastException");
const OOB: Outcome = Outcome::Throws("IndexOutOfRangeException");

/// A module with `class Q { int x; }` and `static int Q.Main()` whose body
/// `body` writes; it gets one `object` local (local 0).
fn module(body: impl FnOnce(&mut MethodBuilder, FieldId)) -> Module {
    let mut mb = ModuleBuilder::new();
    declare_prelude(&mut mb);
    let q = mb.declare_class("Q", None);
    let x = mb.add_field(q, "x", CilType::I4, false);
    let mut f = mb.method(q, "Main", vec![], CilType::I4, MethodKind::Static);
    f.local(CilType::Object);
    body(&mut f, x);
    f.finish();
    mb.finish()
}

/// `ldc.i4 v` for each of `vs`.
fn ints(f: &mut MethodBuilder, vs: &[i32]) {
    for &v in vs {
        f.ldc_i4(v);
    }
}

/// Store a fresh `int[2]` (or `object[2]` for `Ref`) in the object local.
fn sz_in_object(f: &mut MethodBuilder, kind: ElemKind) {
    f.ldc_i4(2);
    f.emit(Op::NewArr(kind));
    f.st_loc(0);
}

/// Store a fresh `int[2,2]` in the object local, with `5` at `[1,1]`.
fn int_2x2_in_object(f: &mut MethodBuilder) {
    ints(f, &[2, 2]);
    f.emit(Op::NewMultiArr { kind: ElemKind::I4, rank: 2 });
    f.st_loc(0);
    f.ld_loc(0);
    ints(f, &[1, 1, 5]);
    f.emit(Op::StElemMulti { kind: ElemKind::I4, rank: 2 });
}

fn cases() -> Vec<(&'static str, Module, Outcome)> {
    let i4 = ElemKind::I4;
    vec![
        (
            "ldfld on a string",
            module(|f, x| {
                f.ld_str("s");
                f.emit(Op::LdFld(x));
                f.ret();
            }),
            Outcome::Rejected,
        ),
        (
            "stfld on a string",
            module(|f, x| {
                f.ld_str("s");
                f.ldc_i4(1);
                f.emit(Op::StFld(x));
                f.ldc_i4(0);
                f.ret();
            }),
            Outcome::Rejected,
        ),
        (
            "rank-4 newmarr",
            module(|f, _| {
                ints(f, &[1, 1, 1, 1]);
                f.emit(Op::NewMultiArr { kind: i4, rank: 4 });
                f.emit(Op::Pop);
                f.ldc_i4(0);
                f.ret();
            }),
            Outcome::Rejected,
        ),
        (
            "rank-4 ldmelem on null",
            module(|f, _| {
                f.emit(Op::LdNull);
                ints(f, &[0, 0, 0, 0]);
                f.emit(Op::LdElemMulti { kind: i4, rank: 4 });
                f.ret();
            }),
            Outcome::Rejected,
        ),
        (
            "ldelem.ref on an int[] through object",
            module(|f, _| {
                sz_in_object(f, i4);
                f.ld_loc(0);
                f.ldc_i4(0);
                f.emit(Op::LdElem(ElemKind::Ref));
                f.emit(Op::Pop);
                f.ldc_i4(0);
                f.ret();
            }),
            CAST,
        ),
        (
            "stelem.ref on an int[] through object",
            module(|f, _| {
                sz_in_object(f, i4);
                f.ld_loc(0);
                f.ldc_i4(1);
                f.emit(Op::LdNull);
                f.emit(Op::StElem(ElemKind::Ref));
                f.ldc_i4(0);
                f.ret();
            }),
            CAST,
        ),
        (
            "ldelem.i4 on an object[] through object",
            module(|f, _| {
                sz_in_object(f, ElemKind::Ref);
                f.ld_loc(0);
                f.ldc_i4(1);
                f.emit(Op::LdElem(i4));
                f.ret();
            }),
            CAST,
        ),
        (
            "stelem.i4 on an object[] through object",
            module(|f, _| {
                sz_in_object(f, ElemKind::Ref);
                f.ld_loc(0);
                ints(f, &[0, 7]);
                f.emit(Op::StElem(i4));
                f.ldc_i4(0);
                f.ret();
            }),
            CAST,
        ),
        (
            "rank-3 ldmelem on an int[,] through object",
            module(|f, _| {
                int_2x2_in_object(f);
                f.ld_loc(0);
                ints(f, &[1, 1, 0]);
                f.emit(Op::LdElemMulti { kind: i4, rank: 3 });
                f.ret();
            }),
            OOB,
        ),
        (
            "rank-3 stmelem on an int[,] through object",
            module(|f, _| {
                int_2x2_in_object(f);
                f.ld_loc(0);
                ints(f, &[1, 1, 0, 9]);
                f.emit(Op::StElemMulti { kind: i4, rank: 3 });
                f.ldc_i4(0);
                f.ret();
            }),
            OOB,
        ),
        (
            "ldmelem.ref on an int[,] through object",
            module(|f, _| {
                int_2x2_in_object(f);
                f.ld_loc(0);
                ints(f, &[1, 1]);
                f.emit(Op::LdElemMulti { kind: ElemKind::Ref, rank: 2 });
                f.emit(Op::Pop);
                f.ldc_i4(0);
                f.ret();
            }),
            CAST,
        ),
        (
            "endfinally outside any handler",
            module(|f, _| f.emit(Op::EndFinally)),
            Outcome::Internal("endfinally outside handler in Main"),
        ),
        (
            "ret inside a finally reached by leave",
            module(|f, _| {
                let [try_start, handler, after] = [(); 3].map(|()| f.new_label());
                f.place(try_start);
                f.leave(after);
                f.place(handler);
                f.ldc_i4(1);
                f.ret();
                f.place(after);
                f.ldc_i4(0);
                f.ret();
                f.eh_finally(try_start, handler, handler, after);
            }),
            Outcome::Internal("return inside finally in Main"),
        ),
    ]
}

fn run(module: Module, profile: VmProfile) -> Result<Outcome, String> {
    let vm = match Vm::new(module, profile) {
        Ok(vm) => vm,
        Err(VmError::Internal(m)) if m.starts_with("module failed verification") => {
            return Ok(Outcome::Rejected)
        }
        Err(e) => return Err(format!("Vm::new: {e}")),
    };
    match vm.invoke_by_name("Q.Main", vec![]) {
        Err(VmError::Exception(o)) => {
            let class = o.class_id().ok_or("exception object is not an instance")?;
            let name = &vm.module.class(class).name;
            ["InvalidCastException", "IndexOutOfRangeException"]
                .into_iter()
                .find(|n| n == name)
                .map(Outcome::Throws)
                .ok_or_else(|| format!("threw {name}"))
        }
        Err(VmError::Internal(m)) => {
            ["endfinally outside handler in Main", "return inside finally in Main"]
                .into_iter()
                .find(|k| *k == m)
                .map(Outcome::Internal)
                .ok_or_else(|| format!("internal error {m}"))
        }
        other => Err(format!("ended with {other:?}")),
    }
}

#[test]
fn hostile_cil_ends_the_same_way_on_every_engine() {
    let profiles = [
        VmProfile::sscli10(),
        VmProfile::clr11(),
        VmProfile::mono023(),
        VmProfile::clr11_compiled(),
    ];
    for (name, module, want) in cases() {
        for p in profiles {
            let got = run(module.clone(), p);
            assert_eq!(got, Ok(want.clone()), "{name} on {}", p.name);
        }
    }
}

/// A module bound without `verify_module` (`Vm::new_unverified`) carries no
/// recorded stack shapes or depth in its bodies. The register tiers then
/// verify each method themselves when they lower it, so a valid program
/// gives the verified result and an unverifiable body is an error.
#[test]
fn unverified_modules_lower_from_their_own_verification() {
    let register = [
        VmProfile::clr11(),
        VmProfile::mono023(),
        VmProfile::clr11_compiled(),
    ];
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(dir.join("../grande/src/sources/kernels/smallapps.cs"))
        .expect("Grande source");
    let sieve = hpcnet_minics::compile(&src).expect("compiles");
    let run = |vm: &std::sync::Arc<Vm>| {
        let r = vm.invoke_by_name("Sieve.Run", vec![hpcnet_runtime::Value::I4(5000)]);
        format!("{r:?}")
    };
    let want = run(&Vm::new(sieve.clone(), VmProfile::clr11()).expect("verifies"));
    let unverifiable = module(|f, _| {
        f.emit(Op::Pop);
        f.ldc_i4(0);
        f.ret();
    });
    for p in register {
        assert_eq!(run(&Vm::new_unverified(sieve.clone(), p)), want, "{}", p.name);
        match Vm::new_unverified(unverifiable.clone(), p).invoke_by_name("Q.Main", vec![]) {
            Err(VmError::Internal(m)) => {
                assert!(m.starts_with("lowering unverifiable method"), "{}: {m}", p.name)
            }
            other => panic!("{}: an unverifiable body ended with {other:?}", p.name),
        }
    }
}

/// A body edited after `verify_module` keeps the stack shapes recorded for
/// the old code. The register tiers lower from a table only when it
/// describes as many instructions as the body has, so an unverifiable body
/// of another length is verified afresh and is an error, not a panic.
#[test]
fn a_body_edited_after_verification_is_verified_again() {
    let mut verified = module(|f, _| {
        f.ldc_i4(1);
        f.ldc_i4(2);
        f.emit(Op::Pop);
        f.ret();
    });
    hpcnet_cil::verify_module(&mut verified).expect("verifies");
    let main = verified.find_method("Q.Main").expect("Q.Main");
    verified.methods[main.idx()].body.code = vec![Op::Pop, Op::LdcI4(0), Op::Ret];
    let verified = std::sync::Arc::new(verified);
    for p in [
        VmProfile::clr11(),
        VmProfile::mono023(),
        VmProfile::clr11_compiled(),
    ] {
        match Vm::new_shared(verified.clone(), p).invoke_by_name("Q.Main", vec![]) {
            Err(VmError::Internal(m)) => {
                assert!(m.starts_with("lowering unverifiable method"), "{}: {m}", p.name)
            }
            other => panic!("{}: an edited body ended with {other:?}", p.name),
        }
    }
}
