//! # hpcnet-vm — the CLI execution engines
//!
//! This crate is the reproduction's core: several execution engines that
//! run the *same verified CIL* at different optimization levels, modeling
//! the runtimes the paper benchmarks (CLR 1.1, Mono 0.23, SSCLI 1.0 and
//! three JVMs). See `DESIGN.md` §3 for the mechanism-to-knob mapping and
//! [`profile::VmProfile`] for the concrete configurations.
//!
//! * [`machine::Vm`] — the host: heap, statics, intrinsics, threads.
//! * [`interp`] — the stack interpreter (Rotor tier).
//! * [`rir`] — stack→register lowering, optimization passes, allocation.
//! * [`compiled`] — the code both register tiers run: allocated RIR
//!   translated once into `fn`-pointer op records by [`rir::compile`], no
//!   per-op decode.
//!   The tiers differ only in `rir::alloc`'s ranking: use count
//!   ([`Tier::Rir`]) or linear scan ([`Tier::Compiled`]).
//! * [`call`] — what runs around that code: the frame (an enregistered
//!   file and a volatile spill frame), the dispatch loop, the EH protocol
//!   and the managed call edge.
//!
//! ```
//! use hpcnet_cil::{CilType, MethodKind, ModuleBuilder, BinOp};
//! use hpcnet_vm::{declare_prelude, Vm, VmProfile};
//! use hpcnet_runtime::Value;
//!
//! let mut mb = ModuleBuilder::new();
//! declare_prelude(&mut mb);
//! let c = mb.declare_class("P", None);
//! let mut f = mb.method(c, "AddOne", vec![CilType::I4], CilType::I4, MethodKind::Static);
//! f.ld_arg(0);
//! f.ldc_i4(1);
//! f.bin(BinOp::Add);
//! f.ret();
//! f.finish();
//! let vm = Vm::new(mb.finish(), VmProfile::clr11()).unwrap();
//! let r = vm.invoke_by_name("P.AddOne", vec![Value::I4(41)]).unwrap();
//! assert_eq!(r.unwrap().as_i4(), 42);
//! ```

pub mod call;
pub mod compiled;
mod eh;
mod counters;
pub mod error;
pub mod interp;
pub mod machine;
pub mod numerics;
pub mod observe;
mod ops;
pub mod profile;
pub mod rir;

pub use compiled::CompiledMethod;
pub use error::{VmError, VmResult};
pub use machine::{
    declare_prelude, Counters, CountersSnapshot, ResetStats, Vm, VmSnapshot, WellKnown,
};
pub use observe::{
    Compile, JitOutcome, LoopRejectReason, MethodProfile, ObserveLevel, ObserveReport,
    PhaseTiming, VmPhase,
};
pub use profile::{MathKind, PassConfig, Tier, VmProfile};
pub use rir::share::OptShare;
pub use rir::{print_rir, RirMethod};

#[cfg(test)]
mod tests {
    use super::*;
    use hpcnet_cil::{BinOp, CilType, CmpOp, ElemKind, Intrinsic, MethodKind, ModuleBuilder, NumTy, Op};
    use hpcnet_runtime::Value;
    

    /// Every profile we test semantics against.
    fn all_profiles() -> Vec<VmProfile> {
        let mut v = VmProfile::scimark_lineup();
        v.push(VmProfile::sscli10());
        v.push(VmProfile::clr11_compiled());
        v.dedup_by_key(|p| p.name);
        v
    }

    fn build_module(f: impl FnOnce(&mut ModuleBuilder)) -> hpcnet_cil::Module {
        let mut mb = ModuleBuilder::new();
        declare_prelude(&mut mb);
        f(&mut mb);
        mb.finish()
    }

    /// Run one static method on every profile and require identical results.
    fn run_everywhere(
        module: &hpcnet_cil::Module,
        name: &str,
        args: Vec<Value>,
    ) -> Vec<Option<Value>> {
        let mut outs = Vec::new();
        for p in all_profiles() {
            let vm = Vm::new(module.clone(), p).unwrap();
            let r = vm
                .invoke_by_name(name, args.clone())
                .unwrap_or_else(|e| panic!("{name} failed on {}: {e}", p.name));
            outs.push(r);
        }
        outs
    }

    fn assert_all_i4(module: &hpcnet_cil::Module, name: &str, args: Vec<Value>, want: i32) {
        for (p, r) in all_profiles()
            .iter()
            .zip(run_everywhere(module, name, args))
        {
            assert_eq!(r.unwrap().as_i4(), want, "profile {}", p.name);
        }
    }

    fn assert_all_r8(module: &hpcnet_cil::Module, name: &str, args: Vec<Value>, want: f64, tol: f64) {
        for (p, r) in all_profiles()
            .iter()
            .zip(run_everywhere(module, name, args))
        {
            let got = r.unwrap().as_r8();
            assert!((got - want).abs() <= tol, "profile {}: {got} vs {want}", p.name);
        }
    }

    #[test]
    fn host_arguments_are_checked_against_the_signature() {
        let m = build_module(|mb| {
            let c = mb.declare_class("P", None);
            let params = vec![CilType::I4, CilType::Object];
            let mut f = mb.method(c, "F", params, CilType::I4, MethodKind::Static);
            f.ld_arg(0);
            f.ret();
            f.finish();
            let mut f = mb.method(c, "Get", vec![], CilType::I4, MethodKind::Instance);
            f.ldc_i4(7);
            f.ret();
            f.finish();
        });
        let bad: [(&str, Vec<Value>, &str); 5] = [
            ("P.F", vec![Value::I4(1)], "expected (i4, ref), got (i4)"),
            ("P.F", vec![Value::I4(1), Value::Null, Value::I4(2)], "expected (i4, ref), got (i4, ref, i4)"),
            ("P.F", vec![Value::R8(1.0), Value::Null], "expected (i4, ref), got (r8, ref)"),
            ("P.F", vec![Value::I4(1), Value::I4(2)], "expected (i4, ref), got (i4, i4)"),
            ("P.Get", vec![], "expected (ref), got ()"),
        ];
        for p in [VmProfile::sscli10(), VmProfile::clr11(), VmProfile::clr11_compiled()] {
            let vm = Vm::new(m.clone(), p).unwrap();
            for (name, args, detail) in &bad {
                match vm.invoke_by_name(name, args.clone()) {
                    Err(VmError::Internal(msg)) => {
                        assert_eq!(msg, format!("argument mismatch calling {name}: {detail}"))
                    }
                    other => panic!("{name} on {}: {other:?}", p.name),
                }
            }
            // Refused before anything ran.
            assert_eq!(vm.counters.snapshot().calls, 0, "{}", p.name);
            let ok = vm.invoke_by_name("P.F", vec![Value::I4(5), Value::Null]);
            assert_eq!(ok.unwrap().unwrap().as_i4(), 5, "{}", p.name);
        }
    }

    #[test]
    fn counting_loop_all_tiers() {
        let m = build_module(|mb| {
            let c = mb.declare_class("P", None);
            let mut f = mb.method(c, "Sum", vec![CilType::I4], CilType::I4, MethodKind::Static);
            let s = f.local(CilType::I4);
            let i = f.local(CilType::I4);
            let head = f.new_label();
            let exit = f.new_label();
            f.place(head);
            f.ld_loc(i);
            f.ld_arg(0);
            f.br_cmp(CmpOp::Ge, exit);
            f.ld_loc(s);
            f.ld_loc(i);
            f.bin(BinOp::Add);
            f.st_loc(s);
            f.ld_loc(i);
            f.ldc_i4(1);
            f.bin(BinOp::Add);
            f.st_loc(i);
            f.br(head);
            f.place(exit);
            f.ld_loc(s);
            f.ret();
            f.finish();
        });
        assert_all_i4(&m, "P.Sum", vec![Value::I4(100)], 4950);
        assert_all_i4(&m, "P.Sum", vec![Value::I4(0)], 0);
    }

    #[test]
    fn division_loop_matches_paper_code() {
        // The paper's Table 5 benchmark: repeated division by a constant.
        let m = build_module(|mb| {
            let c = mb.declare_class("P", None);
            let mut f = mb.method(c, "Div", vec![CilType::I4], CilType::I4, MethodKind::Static);
            let i1 = f.local(CilType::I4);
            let i = f.local(CilType::I4);
            let head = f.new_label();
            let exit = f.new_label();
            f.ldc_i4(i32::MAX);
            f.st_loc(i1);
            f.place(head);
            f.ld_loc(i);
            f.ld_arg(0);
            f.br_cmp(CmpOp::Ge, exit);
            f.ld_loc(i1);
            f.ldc_i4(3);
            f.bin(BinOp::Div);
            f.st_loc(i1);
            // reset when it hits zero so the loop keeps dividing
            f.ld_loc(i1);
            let nz = f.new_label();
            f.br_true(nz);
            f.ldc_i4(i32::MAX);
            f.st_loc(i1);
            f.place(nz);
            f.ld_loc(i);
            f.ldc_i4(1);
            f.bin(BinOp::Add);
            f.st_loc(i);
            f.br(head);
            f.place(exit);
            f.ld_loc(i1);
            f.ret();
            f.finish();
        });
        // 2^31-1 divided by 3 five times is 8837381.
        assert_all_i4(&m, "P.Div", vec![Value::I4(5)], 8837381);
    }

    #[test]
    fn float_math_and_intrinsics() {
        let m = build_module(|mb| {
            let c = mb.declare_class("P", None);
            let mut f = mb.method(c, "Hyp", vec![CilType::R8, CilType::R8], CilType::R8, MethodKind::Static);
            f.ld_arg(0);
            f.ld_arg(0);
            f.bin(BinOp::Mul);
            f.ld_arg(1);
            f.ld_arg(1);
            f.bin(BinOp::Mul);
            f.bin(BinOp::Add);
            f.intrinsic(Intrinsic::Sqrt);
            f.ret();
            f.finish();
        });
        assert_all_r8(&m, "P.Hyp", vec![Value::R8(3.0), Value::R8(4.0)], 5.0, 1e-12);
    }

    #[test]
    fn exceptions_catch_across_tiers() {
        let m = build_module(|mb| {
            let exc = mb.class_id("Exception").unwrap();
            let c = mb.declare_class("P", None);
            // Thrower: throws when arg != 0.
            let exc_ctor = mb.method_id("Exception..ctor").unwrap();
            let mut t = mb.method(c, "Boom", vec![CilType::I4], CilType::Void, MethodKind::Static);
            let skip = t.new_label();
            t.ld_arg(0);
            t.br_false(skip);
            t.emit(Op::NewObj(exc_ctor));
            t.emit(Op::Throw);
            t.place(skip);
            t.ret();
            let boom = t.finish();
            // Catcher: returns 7 when caught, 1 otherwise.
            let mut f = mb.method(c, "Try", vec![CilType::I4], CilType::I4, MethodKind::Static);
            let (ts, te, hs, he) = (f.new_label(), f.new_label(), f.new_label(), f.new_label());
            let done = f.new_label();
            let r = f.local(CilType::I4);
            f.ldc_i4(1);
            f.st_loc(r);
            f.place(ts);
            f.ld_arg(0);
            f.call(boom);
            f.leave(done);
            f.place(te);
            f.place(hs);
            f.emit(Op::Pop);
            f.ldc_i4(7);
            f.st_loc(r);
            f.leave(done);
            f.place(he);
            f.place(done);
            f.ld_loc(r);
            f.ret();
            f.eh_catch(ts, te, hs, he, exc);
            f.finish();
        });
        assert_all_i4(&m, "P.Try", vec![Value::I4(1)], 7);
        assert_all_i4(&m, "P.Try", vec![Value::I4(0)], 1);
    }

    #[test]
    fn finally_runs_on_both_paths() {
        let m = build_module(|mb| {
            let c = mb.declare_class("P", None);
            let exc_ctor = mb.method_id("Exception..ctor").unwrap();
            let exc = mb.class_id("Exception").unwrap();
            // Try/finally inside try/catch; finally increments a static.
            let g = mb.add_field(c, "g", CilType::I4, true);
            let mut f = mb.method(c, "Go", vec![CilType::I4], CilType::I4, MethodKind::Static);
            let (ts, te, hs, he) = (f.new_label(), f.new_label(), f.new_label(), f.new_label());
            let (fts, fte, fhs, fhe) = (f.new_label(), f.new_label(), f.new_label(), f.new_label());
            let done = f.new_label();
            f.place(ts);
            f.place(fts);
            f.ld_arg(0);
            let no_throw = f.new_label();
            f.br_false(no_throw);
            f.emit(Op::NewObj(exc_ctor));
            f.emit(Op::Throw);
            f.place(no_throw);
            f.leave(done);
            f.place(fte);
            f.place(fhs);
            // finally: g += 10
            f.emit(Op::LdSFld(g));
            f.ldc_i4(10);
            f.bin(BinOp::Add);
            f.emit(Op::StSFld(g));
            f.emit(Op::EndFinally);
            f.place(fhe);
            f.place(te);
            f.place(hs);
            f.emit(Op::Pop);
            // catch: g += 100
            f.emit(Op::LdSFld(g));
            f.ldc_i4(100);
            f.bin(BinOp::Add);
            f.emit(Op::StSFld(g));
            f.leave(done);
            f.place(he);
            f.place(done);
            f.emit(Op::LdSFld(g));
            f.ret();
            f.eh_finally(fts, fte, fhs, fhe);
            f.eh_catch(ts, te, hs, he, exc);
            f.finish();
        });
        // No throw: finally only → 10. Throw: finally + catch → 110.
        assert_all_i4(&m, "P.Go", vec![Value::I4(0)], 10);
        assert_all_i4(&m, "P.Go", vec![Value::I4(1)], 110);
    }

    #[test]
    fn runtime_faults_are_catchable() {
        let m = build_module(|mb| {
            let div0 = mb.class_id(crate::machine::DIV_ZERO_CLASS).unwrap();
            let c = mb.declare_class("P", None);
            let mut f = mb.method(c, "SafeDiv", vec![CilType::I4, CilType::I4], CilType::I4, MethodKind::Static);
            let (ts, te, hs, he) = (f.new_label(), f.new_label(), f.new_label(), f.new_label());
            let done = f.new_label();
            let r = f.local(CilType::I4);
            f.place(ts);
            f.ld_arg(0);
            f.ld_arg(1);
            f.bin(BinOp::Div);
            f.st_loc(r);
            f.leave(done);
            f.place(te);
            f.place(hs);
            f.emit(Op::Pop);
            f.ldc_i4(-1);
            f.st_loc(r);
            f.leave(done);
            f.place(he);
            f.place(done);
            f.ld_loc(r);
            f.ret();
            f.eh_catch(ts, te, hs, he, div0);
            f.finish();
        });
        assert_all_i4(&m, "P.SafeDiv", vec![Value::I4(10), Value::I4(3)], 3);
        assert_all_i4(&m, "P.SafeDiv", vec![Value::I4(10), Value::I4(0)], -1);
    }

    #[test]
    fn uncaught_exception_escapes() {
        let m = build_module(|mb| {
            let c = mb.declare_class("P", None);
            let exc_ctor = mb.method_id("Exception..ctor").unwrap();
            let mut f = mb.method(c, "Raise", vec![], CilType::Void, MethodKind::Static);
            f.emit(Op::NewObj(exc_ctor));
            f.emit(Op::Throw);
            f.finish();
        });
        for p in all_profiles() {
            let vm = Vm::new(m.clone(), p).unwrap();
            let e = vm.invoke_by_name("P.Raise", vec![]).unwrap_err();
            assert!(matches!(e, VmError::Exception(_)), "{}: {e}", p.name);
            assert_eq!(vm.counters.throws.load(std::sync::atomic::Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn arrays_and_bounds() {
        let m = build_module(|mb| {
            let c = mb.declare_class("P", None);
            // Fill a[i] = i*i for i < a.Length, then sum.
            let mut f = mb.method(c, "SumSquares", vec![CilType::I4], CilType::I4, MethodKind::Static);
            let a = f.local(CilType::array_of(CilType::I4));
            let i = f.local(CilType::I4);
            let s = f.local(CilType::I4);
            f.ld_arg(0);
            f.emit(Op::NewArr(ElemKind::I4));
            f.st_loc(a);
            let head = f.new_label();
            let exit = f.new_label();
            f.place(head);
            f.ld_loc(i);
            f.ld_loc(a);
            f.emit(Op::LdLen);
            f.br_cmp(CmpOp::Ge, exit);
            f.ld_loc(a);
            f.ld_loc(i);
            f.ld_loc(i);
            f.ld_loc(i);
            f.bin(BinOp::Mul);
            f.emit(Op::StElem(ElemKind::I4));
            f.ld_loc(s);
            f.ld_loc(a);
            f.ld_loc(i);
            f.emit(Op::LdElem(ElemKind::I4));
            f.bin(BinOp::Add);
            f.st_loc(s);
            f.ld_loc(i);
            f.ldc_i4(1);
            f.bin(BinOp::Add);
            f.st_loc(i);
            f.br(head);
            f.place(exit);
            f.ld_loc(s);
            f.ret();
            f.finish();
        });
        // sum i^2, i<10 = 285
        assert_all_i4(&m, "P.SumSquares", vec![Value::I4(10)], 285);
    }

    #[test]
    fn index_out_of_range_raises() {
        let m = build_module(|mb| {
            let c = mb.declare_class("P", None);
            let mut f = mb.method(c, "Oob", vec![CilType::I4], CilType::I4, MethodKind::Static);
            let a = f.local(CilType::array_of(CilType::I4));
            f.ldc_i4(4);
            f.emit(Op::NewArr(ElemKind::I4));
            f.st_loc(a);
            f.ld_loc(a);
            f.ld_arg(0);
            f.emit(Op::LdElem(ElemKind::I4));
            f.ret();
            f.finish();
        });
        for p in all_profiles() {
            let vm = Vm::new(m.clone(), p).unwrap();
            assert_eq!(
                vm.invoke_by_name("P.Oob", vec![Value::I4(2)]).unwrap().unwrap().as_i4(),
                0
            );
            let e = vm.invoke_by_name("P.Oob", vec![Value::I4(4)]).unwrap_err();
            assert!(matches!(e, VmError::Exception(_)), "{}", p.name);
            let e = vm.invoke_by_name("P.Oob", vec![Value::I4(-1)]).unwrap_err();
            assert!(matches!(e, VmError::Exception(_)), "{}", p.name);
        }
    }

    #[test]
    fn multidim_vs_jagged_same_answers() {
        let m = build_module(|mb| {
            let c = mb.declare_class("P", None);
            let mut f = mb.method(c, "MSum", vec![CilType::I4], CilType::R8, MethodKind::Static);
            let a = f.local(CilType::multi_of(CilType::R8, 2));
            let i = f.local(CilType::I4);
            let j = f.local(CilType::I4);
            let s = f.local(CilType::R8);
            f.ld_arg(0);
            f.ld_arg(0);
            f.emit(Op::NewMultiArr { kind: ElemKind::R8, rank: 2 });
            f.st_loc(a);
            let (ih, ix) = (f.new_label(), f.new_label());
            let (jh, jx) = (f.new_label(), f.new_label());
            f.place(ih);
            f.ld_loc(i);
            f.ld_arg(0);
            f.br_cmp(CmpOp::Ge, ix);
            f.ldc_i4(0);
            f.st_loc(j);
            f.place(jh);
            f.ld_loc(j);
            f.ld_arg(0);
            f.br_cmp(CmpOp::Ge, jx);
            // a[i,j] = i + 2*j
            f.ld_loc(a);
            f.ld_loc(i);
            f.ld_loc(j);
            f.ld_loc(i);
            f.ld_loc(j);
            f.ldc_i4(2);
            f.bin(BinOp::Mul);
            f.bin(BinOp::Add);
            f.conv(NumTy::R8);
            f.emit(Op::StElemMulti { kind: ElemKind::R8, rank: 2 });
            // s += a[i,j]
            f.ld_loc(s);
            f.ld_loc(a);
            f.ld_loc(i);
            f.ld_loc(j);
            f.emit(Op::LdElemMulti { kind: ElemKind::R8, rank: 2 });
            f.bin(BinOp::Add);
            f.st_loc(s);
            f.ld_loc(j);
            f.ldc_i4(1);
            f.bin(BinOp::Add);
            f.st_loc(j);
            f.br(jh);
            f.place(jx);
            f.ld_loc(i);
            f.ldc_i4(1);
            f.bin(BinOp::Add);
            f.st_loc(i);
            f.br(ih);
            f.place(ix);
            f.ld_loc(s);
            f.ret();
            f.finish();
        });
        // sum over i,j<4 of i+2j = 4*(0+1+2+3) + 2*4*(0+1+2+3) = 24+48=72
        assert_all_r8(&m, "P.MSum", vec![Value::I4(4)], 72.0, 0.0);
    }

    #[test]
    fn virtual_dispatch_and_fields() {
        let m = build_module(|mb| {
            let a = mb.declare_class("Animal", None);
            let x = mb.add_field(a, "x", CilType::I4, false);
            let mut actor = mb.method(a, ".ctor", vec![CilType::I4], CilType::Void, MethodKind::Ctor);
            actor.ld_arg(0);
            actor.ld_arg(1);
            actor.emit(Op::StFld(x));
            actor.ret();
            let actor = actor.finish();
            let mut sound = mb.method(a, "Value", vec![], CilType::I4, MethodKind::Virtual);
            sound.ld_arg(0);
            sound.emit(Op::LdFld(x));
            sound.ret();
            let sound = sound.finish();
            let d = mb.declare_class("Dog", Some("Animal"));
            let mut dctor = mb.method(d, ".ctor", vec![CilType::I4], CilType::Void, MethodKind::Ctor);
            dctor.ld_arg(0);
            dctor.ld_arg(1);
            dctor.emit(Op::StFld(x));
            dctor.ret();
            let dctor = dctor.finish();
            let mut dsound = mb.method(d, "Value", vec![], CilType::I4, MethodKind::Override);
            dsound.ld_arg(0);
            dsound.emit(Op::LdFld(x));
            dsound.ldc_i4(1000);
            dsound.bin(BinOp::Add);
            dsound.ret();
            dsound.finish();
            let p = mb.declare_class("P", None);
            let mut f = mb.method(p, "Go", vec![CilType::I4], CilType::I4, MethodKind::Static);
            let animal = f.local(CilType::Class(a));
            let pick = f.new_label();
            let join = f.new_label();
            f.ld_arg(0);
            f.br_true(pick);
            f.ldc_i4(5);
            f.emit(Op::NewObj(actor));
            f.st_loc(animal);
            f.br(join);
            f.place(pick);
            f.ldc_i4(5);
            f.emit(Op::NewObj(dctor));
            f.st_loc(animal);
            f.place(join);
            f.ld_loc(animal);
            f.call_virt(sound);
            f.ret();
            f.finish();
        });
        assert_all_i4(&m, "P.Go", vec![Value::I4(0)], 5);
        assert_all_i4(&m, "P.Go", vec![Value::I4(1)], 1005);
    }

    #[test]
    fn boxing_roundtrip() {
        let m = build_module(|mb| {
            let c = mb.declare_class("P", None);
            let mut f = mb.method(c, "BoxRt", vec![CilType::I4], CilType::I4, MethodKind::Static);
            let o = f.local(CilType::Object);
            f.ld_arg(0);
            f.emit(Op::BoxVal(NumTy::I4));
            f.st_loc(o);
            f.ld_loc(o);
            f.emit(Op::UnboxVal(NumTy::I4));
            f.ret();
            f.finish();
        });
        assert_all_i4(&m, "P.BoxRt", vec![Value::I4(-123)], -123);
    }

    #[test]
    fn inlining_reduces_call_count_on_clr() {
        let m = build_module(|mb| {
            let c = mb.declare_class("P", None);
            let mut g = mb.method(c, "Twice", vec![CilType::I4], CilType::I4, MethodKind::Static);
            g.ld_arg(0);
            g.ldc_i4(2);
            g.bin(BinOp::Mul);
            g.ret();
            let twice = g.finish();
            let mut f = mb.method(c, "Go", vec![CilType::I4], CilType::I4, MethodKind::Static);
            f.ld_arg(0);
            f.call(twice);
            f.call(twice);
            f.ret();
            f.finish();
        });
        // CLR inlines: only the outer call counts. Sun 1.4 (inline off)
        // performs all three managed calls.
        let clr = Vm::new(m.clone(), VmProfile::clr11()).unwrap();
        assert_eq!(clr.invoke_by_name("P.Go", vec![Value::I4(3)]).unwrap().unwrap().as_i4(), 12);
        assert_eq!(clr.counters.calls.load(std::sync::atomic::Ordering::Relaxed), 1);
        let sun = Vm::new(m, VmProfile::jvm_sun14()).unwrap();
        assert_eq!(sun.invoke_by_name("P.Go", vec![Value::I4(3)]).unwrap().unwrap().as_i4(), 12);
        assert_eq!(sun.counters.calls.load(std::sync::atomic::Ordering::Relaxed), 3);
    }

    #[test]
    fn recursion_fibonacci() {
        let m = build_module(|mb| {
            let c = mb.declare_class("P", None);
            let mut f = mb.method(c, "Fib", vec![CilType::I4], CilType::I4, MethodKind::Static);
            let fid = f.id();
            let rec = f.new_label();
            f.ld_arg(0);
            f.ldc_i4(2);
            f.br_cmp(CmpOp::Ge, rec);
            f.ld_arg(0);
            f.ret();
            f.place(rec);
            f.ld_arg(0);
            f.ldc_i4(1);
            f.bin(BinOp::Sub);
            f.call(fid);
            f.ld_arg(0);
            f.ldc_i4(2);
            f.bin(BinOp::Sub);
            f.call(fid);
            f.bin(BinOp::Add);
            f.ret();
            f.finish();
        });
        assert_all_i4(&m, "P.Fib", vec![Value::I4(15)], 610);
    }

    #[test]
    fn call_depth_limit_enforced() {
        let m = build_module(|mb| {
            let c = mb.declare_class("P", None);
            let mut f = mb.method(c, "Forever", vec![], CilType::Void, MethodKind::Static);
            let fid = f.id();
            f.call(fid);
            f.ret();
            f.finish();
        });
        let vm = Vm::new(m, VmProfile::clr11()).unwrap();
        // Debug-build native frames are large; give the guard headroom.
        let e = machine::run_on_big_stack(move || {
            vm.invoke_by_name("P.Forever", vec![]).unwrap_err()
        });
        assert!(matches!(e, VmError::Limit(_)), "{e}");
    }

    /// A multidimensional array whose element count overflows is a limit
    /// error on every tier, not a host panic or a wrapped size, and the
    /// same dimensions in a serialized stream are a decode error.
    #[test]
    fn an_overflowing_multidim_allocation_is_a_limit() {
        const HUGE: u32 = 2_000_000_000;
        let m = build_module(|mb| {
            let c = mb.declare_class("P", None);
            let mut f = mb.method(c, "Huge", vec![], CilType::Object, MethodKind::Static);
            for _ in 0..3 {
                f.ldc_i4(HUGE as i32);
            }
            f.emit(Op::NewMultiArr { kind: ElemKind::I4, rank: 3 });
            f.ret();
            f.finish();
        });
        for p in all_profiles() {
            let vm = Vm::new(m.clone(), p).unwrap();
            match vm.invoke_by_name("P.Huge", vec![]) {
                Err(VmError::Limit(msg)) => {
                    assert_eq!(msg, "multidimensional array size overflows", "{}", p.name)
                }
                other => panic!("{}: new int[{HUGE}, {HUGE}, {HUGE}] gave {other:?}", p.name),
            }
        }
        // `int[1,1,1]`'s encoding up to its rank, then the huge dimensions.
        let vm = Vm::new(m, VmProfile::clr11()).unwrap();
        let small = hpcnet_runtime::HeapObj::new_multi(ElemKind::I4, &[1, 1, 1]).unwrap();
        let mut count = hpcnet_runtime::heap::AllocCount::default();
        let bytes = vm.serialize(&vm.heap.adopt(small, &mut count));
        vm.heap.settle(&mut count);
        let mut w = hpcnet_runtime::serial::Writer::new();
        for _ in 0..3 {
            w.varint(u64::from(HUGE));
        }
        let huge = [&bytes[..3], &w.into_bytes()].concat();
        let e = vm.deserialize(&huge).unwrap_err();
        assert!(e.contains("multidimensional array size overflows"), "{e}");
    }

    #[test]
    fn strings_and_console() {
        let m = build_module(|mb| {
            let c = mb.declare_class("P", None);
            let mut f = mb.method(c, "Hello", vec![], CilType::I4, MethodKind::Static);
            f.ld_str("hello ");
            f.ld_str("world");
            f.intrinsic(Intrinsic::StrConcat);
            f.emit(Op::Dup);
            f.intrinsic(Intrinsic::ConsoleWriteLineStr);
            f.intrinsic(Intrinsic::StrLen);
            f.ret();
            f.finish();
        });
        for p in all_profiles() {
            let vm = Vm::new(m.clone(), p).unwrap();
            let r = vm.invoke_by_name("P.Hello", vec![]).unwrap().unwrap();
            assert_eq!(r.as_i4(), 11);
            assert_eq!(vm.take_console(), vec!["hello world".to_string()]);
        }
    }

    #[test]
    fn serialization_intrinsics_roundtrip() {
        let m = build_module(|mb| {
            let c = mb.declare_class("Node", None);
            let val = mb.add_field(c, "val", CilType::I4, false);
            let next = mb.add_field(c, "next", CilType::Class(c), false);
            let mut ctor = mb.method(c, ".ctor", vec![CilType::I4], CilType::Void, MethodKind::Ctor);
            ctor.ld_arg(0);
            ctor.ld_arg(1);
            ctor.emit(Op::StFld(val));
            ctor.ret();
            let ctor = ctor.finish();
            let p = mb.declare_class("P", None);
            let mut f = mb.method(p, "Rt", vec![], CilType::I4, MethodKind::Static);
            let a = f.local(CilType::Class(c));
            let b = f.local(CilType::Class(c));
            f.ldc_i4(42);
            f.emit(Op::NewObj(ctor));
            f.st_loc(a);
            f.ldc_i4(17);
            f.emit(Op::NewObj(ctor));
            f.st_loc(b);
            // cycle: a.next = b, b.next = a
            f.ld_loc(a);
            f.ld_loc(b);
            f.emit(Op::StFld(next));
            f.ld_loc(b);
            f.ld_loc(a);
            f.emit(Op::StFld(next));
            f.ld_loc(a);
            f.intrinsic(Intrinsic::SerializeObj);
            f.emit(Op::Pop);
            f.intrinsic(Intrinsic::DeserializeObj);
            f.emit(Op::CastClass(c));
            f.emit(Op::LdFld(next));
            f.emit(Op::LdFld(next));
            f.emit(Op::LdFld(val));
            f.ret();
            f.finish();
        });
        // Roundtrip preserves the 2-cycle: a.next.next.val == a.val == 42.
        assert_all_i4(&m, "P.Rt", vec![], 42);
    }

    #[test]
    fn jit_output_differs_by_profile_as_in_tables_6_to_8() {
        let m = build_module(|mb| {
            let c = mb.declare_class("P", None);
            let mut f = mb.method(c, "Div", vec![CilType::I4], CilType::I4, MethodKind::Static);
            let i1 = f.local(CilType::I4);
            let head = f.new_label();
            let exit = f.new_label();
            let i = f.local(CilType::I4);
            f.ldc_i4(i32::MAX);
            f.st_loc(i1);
            f.place(head);
            f.ld_loc(i);
            f.ld_arg(0);
            f.br_cmp(CmpOp::Ge, exit);
            f.ld_loc(i1);
            f.ldc_i4(3);
            f.bin(BinOp::Div);
            f.st_loc(i1);
            f.ld_loc(i);
            f.ldc_i4(1);
            f.bin(BinOp::Add);
            f.st_loc(i);
            f.br(head);
            f.place(exit);
            f.ld_loc(i1);
            f.ret();
            f.finish();
        });
        let id = m.find_method("P.Div").unwrap();
        // IBM: constant fused as an immediate.
        let ibm = Vm::new(m.clone(), VmProfile::jvm_ibm131()).unwrap();
        let ibm_code = print_rir(&ibm.compiled(id).unwrap());
        assert!(ibm_code.contains("div") && ibm_code.contains("#0x3"), "{ibm_code}");
        // CLR: divisor constant forced into a stack-frame temporary.
        let clr = Vm::new(m.clone(), VmProfile::clr11()).unwrap();
        let clr_rir = clr.compiled(id).unwrap();
        let clr_code = print_rir(&clr_rir);
        assert!(clr_code.contains("[psp"), "CLR should spill the divisor:\n{clr_code}");
        // Mono: no passes — the stack-shuffle moves survive, and with one
        // register nearly everything is a memory operand.
        let mono = Vm::new(m, VmProfile::mono023()).unwrap();
        let mono_rir = mono.compiled(id).unwrap();
        assert!(mono_rir.code.len() > clr_rir.code.len());
        assert!(mono_rir.n_preg <= 1);
        // All three still compute the same thing.
        for vm in [&ibm, &clr] {
            assert_eq!(vm.invoke(id, vec![Value::I4(5)]).unwrap().unwrap().as_i4(), 8837381);
        }
    }

    #[test]
    fn bce_unchecks_length_bound_loops_on_clr() {
        let m = build_module(|mb| {
            let c = mb.declare_class("P", None);
            let mut f = mb.method(c, "Fill", vec![CilType::array_of(CilType::R8)], CilType::Void, MethodKind::Static);
            let i = f.local(CilType::I4);
            let head = f.new_label();
            let exit = f.new_label();
            f.place(head);
            f.ld_loc(i);
            f.ld_arg(0);
            f.emit(Op::LdLen);
            f.br_cmp(CmpOp::Ge, exit);
            f.ld_arg(0);
            f.ld_loc(i);
            f.ld_loc(i);
            f.conv(NumTy::R8);
            f.emit(Op::StElem(ElemKind::R8));
            f.ld_loc(i);
            f.ldc_i4(1);
            f.bin(BinOp::Add);
            f.st_loc(i);
            f.br(head);
            f.place(exit);
            f.ret();
            f.finish();
        });
        let id = m.find_method("P.Fill").unwrap();
        let clr = Vm::new(m.clone(), VmProfile::clr11()).unwrap();
        let code = print_rir(&clr.compiled(id).unwrap());
        assert!(code.contains(".nobound"), "CLR should eliminate the check:\n{code}");
        let bea = Vm::new(m.clone(), VmProfile::jvm_bea81()).unwrap();
        let code = print_rir(&bea.compiled(id).unwrap());
        assert!(!code.contains(".nobound"), "BEA has bce off:\n{code}");
        // Semantics unchanged: run it.
        let arr = clr.heap.alloc_array(ElemKind::I4, 0);
        drop(arr);
        let arr = clr.heap.alloc_array(ElemKind::R8, 8);
        clr.invoke(id, vec![Value::Ref(arr.clone())]).unwrap();
        assert_eq!(arr.load_elem(ElemKind::R8, 7).unwrap().as_r8(), 7.0);
    }

    #[test]
    fn managed_threads_and_monitors() {
        let m = build_module(|mb| {
            let w = mb.declare_class("Worker", None);
            let count = mb.add_field(w, "count", CilType::I4, true);
            let lock_obj = mb.add_field(w, "lockObj", CilType::Object, true);
            let mut ctor = mb.method(w, ".ctor", vec![], CilType::Void, MethodKind::Ctor);
            ctor.ret();
            let wctor = ctor.finish();
            let mut run = mb.method(w, "Run", vec![], CilType::Void, MethodKind::Virtual);
            let i = run.local(CilType::I4);
            let head = run.new_label();
            let exit = run.new_label();
            run.place(head);
            run.ld_loc(i);
            run.ldc_i4(1000);
            run.br_cmp(CmpOp::Ge, exit);
            run.emit(Op::LdSFld(lock_obj));
            run.intrinsic(Intrinsic::MonitorEnter);
            run.emit(Op::LdSFld(count));
            run.ldc_i4(1);
            run.bin(BinOp::Add);
            run.emit(Op::StSFld(count));
            run.emit(Op::LdSFld(lock_obj));
            run.intrinsic(Intrinsic::MonitorExit);
            run.ld_loc(i);
            run.ldc_i4(1);
            run.bin(BinOp::Add);
            run.st_loc(i);
            run.br(head);
            run.place(exit);
            run.ret();
            run.finish();
            let p = mb.declare_class("P", None);
            let mut f = mb.method(p, "Go", vec![], CilType::I4, MethodKind::Static);
            let t1 = f.local(CilType::I4);
            let t2 = f.local(CilType::I4);
            // lockObj = new Worker()
            f.emit(Op::NewObj(wctor));
            f.emit(Op::StSFld(lock_obj));
            f.emit(Op::NewObj(wctor));
            f.intrinsic(Intrinsic::ThreadStart);
            f.st_loc(t1);
            f.emit(Op::NewObj(wctor));
            f.intrinsic(Intrinsic::ThreadStart);
            f.st_loc(t2);
            f.ld_loc(t1);
            f.intrinsic(Intrinsic::ThreadJoin);
            f.ld_loc(t2);
            f.intrinsic(Intrinsic::ThreadJoin);
            f.emit(Op::LdSFld(count));
            f.ret();
            f.finish();
        });
        for p in [VmProfile::clr11(), VmProfile::sscli10(), VmProfile::mono023()] {
            let vm = Vm::new(m.clone(), p).unwrap();
            let r = vm.invoke_by_name("P.Go", vec![]).unwrap().unwrap();
            assert_eq!(r.as_i4(), 2000, "profile {}", p.name);
        }
    }

    /// Invoke and require a trap; returns the exception class name.
    fn trap_class(
        module: &hpcnet_cil::Module,
        profile: VmProfile,
        name: &str,
        args: Vec<Value>,
    ) -> String {
        let vm = Vm::new(module.clone(), profile).unwrap();
        match vm.invoke_by_name(name, args) {
            Err(VmError::Exception(obj)) => {
                let cid = obj.class_id().expect("classless exception");
                vm.module.class(cid).name.clone()
            }
            other => panic!("{name} on {}: expected trap, got {other:?}", profile.name),
        }
    }

    #[test]
    fn div_rem_by_zero_traps_uniformly() {
        let m = build_module(|mb| {
            let c = mb.declare_class("P", None);
            for (name, op) in [("Div", BinOp::Div), ("Rem", BinOp::Rem)] {
                let mut f = mb.method(
                    c,
                    name,
                    vec![CilType::I4, CilType::I4],
                    CilType::I4,
                    MethodKind::Static,
                );
                f.ld_arg(0);
                f.ld_arg(1);
                f.bin(op);
                f.ret();
                f.finish();
                let mut g = mb.method(
                    c,
                    &format!("{name}L"),
                    vec![CilType::I8, CilType::I8],
                    CilType::I8,
                    MethodKind::Static,
                );
                g.ld_arg(0);
                g.ld_arg(1);
                g.bin(op);
                g.ret();
                g.finish();
            }
        });
        for p in all_profiles() {
            for entry in ["P.Div", "P.Rem"] {
                assert_eq!(
                    trap_class(&m, p, entry, vec![Value::I4(7), Value::I4(0)]),
                    "DivideByZeroException",
                    "{entry} on {}",
                    p.name
                );
                assert_eq!(
                    trap_class(&m, p, &format!("{entry}L"), vec![Value::I8(7), Value::I8(0)]),
                    "DivideByZeroException",
                    "{entry}L on {}",
                    p.name
                );
            }
        }
    }

    /// `MIN / -1` (and `MIN % -1`) overflow in two's complement. Every
    /// profile uses the shared wrapping semantics — `MIN / -1 == MIN`,
    /// `MIN % -1 == 0` — rather than some tiers trapping and others not.
    #[test]
    fn div_rem_min_by_minus_one_wraps_uniformly() {
        let m = build_module(|mb| {
            let c = mb.declare_class("P", None);
            for (name, op) in [("Div", BinOp::Div), ("Rem", BinOp::Rem)] {
                let mut f = mb.method(
                    c,
                    name,
                    vec![CilType::I4, CilType::I4],
                    CilType::I4,
                    MethodKind::Static,
                );
                f.ld_arg(0);
                f.ld_arg(1);
                f.bin(op);
                f.ret();
                f.finish();
                let mut g = mb.method(
                    c,
                    &format!("{name}L"),
                    vec![CilType::I8, CilType::I8],
                    CilType::I8,
                    MethodKind::Static,
                );
                g.ld_arg(0);
                g.ld_arg(1);
                g.bin(op);
                g.ret();
                g.finish();
            }
        });
        for p in all_profiles() {
            let vm = Vm::new(m.clone(), p).unwrap();
            let div = vm
                .invoke_by_name("P.Div", vec![Value::I4(i32::MIN), Value::I4(-1)])
                .unwrap()
                .unwrap();
            assert_eq!(div.as_i4(), i32::MIN, "profile {}", p.name);
            let rem = vm
                .invoke_by_name("P.Rem", vec![Value::I4(i32::MIN), Value::I4(-1)])
                .unwrap()
                .unwrap();
            assert_eq!(rem.as_i4(), 0, "profile {}", p.name);
            let divl = vm
                .invoke_by_name("P.DivL", vec![Value::I8(i64::MIN), Value::I8(-1)])
                .unwrap()
                .unwrap();
            assert_eq!(divl.as_i8(), i64::MIN, "profile {}", p.name);
            let reml = vm
                .invoke_by_name("P.RemL", vec![Value::I8(i64::MIN), Value::I8(-1)])
                .unwrap()
                .unwrap();
            assert_eq!(reml.as_i8(), 0, "profile {}", p.name);
        }
    }

    /// Regression for a bug the conform fuzzer found (seed 144): an
    /// exception raised *inside a finally handler* must abandon the leave,
    /// replace the in-flight exception, and dispatch to the *enclosing*
    /// catch — on every tier. The broken behavior dispatched to the outer
    /// catch while still inside the finally sub-run, then failed with an
    /// internal "return inside finally" error when the method returned.
    #[test]
    fn exception_in_finally_dispatches_to_enclosing_catch() {
        let m = build_module(|mb| {
            let exception = mb.class_id("Exception").expect("prelude class");
            let c = mb.declare_class("P", None);
            let mut f = mb.method(c, "F", vec![CilType::I4], CilType::I4, MethodKind::Static);
            let r = f.local(CilType::I4);
            let t0s = f.new_label();
            let t0e = f.new_label();
            let h0s = f.new_label();
            let h0e = f.new_label();
            let t1s = f.new_label();
            let t1e = f.new_label();
            let f1s = f.new_label();
            let f1e = f.new_label();
            let after_inner = f.new_label();
            let done = f.new_label();
            // outer try {
            f.place(t0s);
            //   inner try { } ...
            f.place(t1s);
            f.leave(after_inner);
            f.place(t1e);
            //   ... finally { 1 / arg; }  -- traps when arg == 0
            f.place(f1s);
            f.ldc_i4(1);
            f.ld_arg(0);
            f.bin(BinOp::Div);
            f.emit(Op::Pop);
            f.emit(Op::EndFinally);
            f.place(f1e);
            f.place(after_inner);
            f.ldc_i4(7);
            f.st_loc(r);
            f.leave(done);
            f.place(t0e);
            // } catch (Exception) { r = 42; }
            f.place(h0s);
            f.emit(Op::Pop);
            f.ldc_i4(42);
            f.st_loc(r);
            f.leave(done);
            f.place(h0e);
            f.place(done);
            f.ld_loc(r);
            f.ret();
            // Innermost region first, as the compiler emits them.
            f.eh_finally(t1s, t1e, f1s, f1e);
            f.eh_catch(t0s, t0e, h0s, h0e, exception);
            f.finish();
        });
        for p in all_profiles() {
            let vm = Vm::new(m.clone(), p).unwrap();
            let ok = vm.invoke_by_name("P.F", vec![Value::I4(1)]).unwrap().unwrap();
            assert_eq!(ok.as_i4(), 7, "no-trap path on {}", p.name);
            let caught = vm.invoke_by_name("P.F", vec![Value::I4(0)]).unwrap().unwrap();
            assert_eq!(caught.as_i4(), 42, "trap-in-finally path on {}", p.name);
        }
    }

    // ---- attribution profiler (crate::observe) ----

    /// `P.Fill(n)`: the canonical counted array loop every bounds-check
    /// pass targets — `for (i = 0; i < a.Length; i++) { a[i] = i*i; s += a[i] }`.
    fn array_loop_module() -> hpcnet_cil::Module {
        build_module(|mb| {
            let c = mb.declare_class("P", None);
            let mut f = mb.method(c, "Fill", vec![CilType::I4], CilType::I4, MethodKind::Static);
            let a = f.local(CilType::array_of(CilType::I4));
            let i = f.local(CilType::I4);
            let s = f.local(CilType::I4);
            f.ld_arg(0);
            f.emit(Op::NewArr(ElemKind::I4));
            f.st_loc(a);
            let head = f.new_label();
            let exit = f.new_label();
            f.place(head);
            f.ld_loc(i);
            f.ld_loc(a);
            f.emit(Op::LdLen);
            f.br_cmp(CmpOp::Ge, exit);
            f.ld_loc(a);
            f.ld_loc(i);
            f.ld_loc(i);
            f.ld_loc(i);
            f.bin(BinOp::Mul);
            f.emit(Op::StElem(ElemKind::I4));
            f.ld_loc(s);
            f.ld_loc(a);
            f.ld_loc(i);
            f.emit(Op::LdElem(ElemKind::I4));
            f.bin(BinOp::Add);
            f.st_loc(s);
            f.ld_loc(i);
            f.ldc_i4(1);
            f.bin(BinOp::Add);
            f.st_loc(i);
            f.br(head);
            f.place(exit);
            f.ld_loc(s);
            f.ret();
            f.finish();
        })
    }

    #[test]
    fn observe_off_reports_nothing() {
        let vm = Vm::new(array_loop_module(), VmProfile::clr11()).unwrap();
        vm.invoke_by_name("P.Fill", vec![Value::I4(16)]).unwrap();
        assert_eq!(vm.profile.observe, ObserveLevel::Off);
        assert!(vm.observe_report().is_none());
    }

    #[test]
    fn observe_counts_are_bit_identical_across_runs_and_vms() {
        let m = array_loop_module();
        let run = || {
            let vm = Vm::new(
                m.clone(),
                VmProfile::clr11().with_observe(ObserveLevel::Trace),
            )
            .unwrap();
            vm.invoke_by_name("P.Fill", vec![Value::I4(64)]).unwrap();
            vm.observe_report().unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "profiling must be deterministic");
        assert!(a.total_ops > 0);
        assert_eq!(a.total_ops, a.total_of(|p| p.ops_excl));
    }

    #[test]
    fn observe_bounds_checks_follow_the_bce_knob() {
        // Same module, same entry: bce on ⇒ in-loop accesses run
        // unchecked; bce off ⇒ every access checks. The *sum*
        // executed+elided is the access count and must not move.
        let m = array_loop_module();
        let count = |bce: bool| {
            let mut p = VmProfile::clr11();
            p.passes.bce = bce;
            let vm = Vm::new(m.clone(), p.with_observe(ObserveLevel::Counters)).unwrap();
            vm.invoke_by_name("P.Fill", vec![Value::I4(50)]).unwrap();
            let r = vm.observe_report().unwrap();
            let mp = r.methods.iter().find(|mp| mp.name == "P.Fill").unwrap();
            (mp.bounds_checks_executed, mp.bounds_checks_elided)
        };
        let (exec_on, elided_on) = count(true);
        let (exec_off, elided_off) = count(false);
        assert_eq!(elided_off, 0);
        assert_eq!(exec_on, 0, "all in-loop accesses proven safe");
        assert_eq!(elided_on, 100, "2 accesses x 50 iterations");
        assert_eq!(exec_off, 100);
        assert_eq!(exec_on + elided_on, exec_off + elided_off);
    }

    #[test]
    fn observe_histogram_and_interp_bounds_checks() {
        // The interpreter tier checks everything and its histogram uses
        // the CIL kind names directly.
        let vm = Vm::new(
            array_loop_module(),
            VmProfile::sscli10().with_observe(ObserveLevel::Counters),
        )
        .unwrap();
        vm.invoke_by_name("P.Fill", vec![Value::I4(10)]).unwrap();
        let r = vm.observe_report().unwrap();
        let mp = r.method(vm.module.find_method("P.Fill").unwrap()).unwrap();
        assert_eq!(mp.invocations, 1);
        assert_eq!(mp.bounds_checks_executed, 20);
        assert_eq!(mp.bounds_checks_elided, 0);
        assert_eq!(mp.allocs, 1, "one newarr");
        let kinds: std::collections::HashMap<&str, u64> =
            mp.kind_counts().into_iter().collect();
        assert_eq!(kinds["ldelem"], 10);
        assert_eq!(kinds["stelem"], 10);
        assert_eq!(kinds["newarr"], 1);
    }

    #[test]
    fn observe_trace_has_compile_records_with_pass_outcomes() {
        let vm = Vm::new(
            array_loop_module(),
            VmProfile::clr11().with_observe(ObserveLevel::Trace),
        )
        .unwrap();
        vm.invoke_by_name("P.Fill", vec![Value::I4(10)]).unwrap();
        let r = vm.observe_report().unwrap();
        let fill = vm.module.find_method("P.Fill").unwrap();
        let outcome = r
            .method(fill)
            .and_then(|m| m.compile.as_ref())
            .expect("compile record for P.Fill")
            .outcome;
        assert_eq!(outcome.loops_found, 1);
        assert!(outcome.rir_len > 0);
        assert!(
            outcome.bce_removed + outcome.abce_removed >= 2,
            "both accesses lose their checks: {outcome:?}"
        );
        assert!(outcome.enreg_prim > 0);
    }

    #[test]
    fn observe_eh_dispatch_kinds_on_both_tiers() {
        // Reuses finally_runs_on_both_paths' shape: throw → finally runs,
        // then the catch takes it, all in one frame.
        let m = build_module(|mb| {
            let c = mb.declare_class("P", None);
            let exc_ctor = mb.method_id("Exception..ctor").unwrap();
            let exc = mb.class_id("Exception").unwrap();
            let g = mb.add_field(c, "g", CilType::I4, true);
            let mut f = mb.method(c, "Go", vec![], CilType::I4, MethodKind::Static);
            let (ts, te, hs, he) = (f.new_label(), f.new_label(), f.new_label(), f.new_label());
            let (fts, fte, fhs, fhe) =
                (f.new_label(), f.new_label(), f.new_label(), f.new_label());
            let done = f.new_label();
            f.place(ts);
            f.place(fts);
            f.emit(Op::NewObj(exc_ctor));
            f.emit(Op::Throw);
            f.place(fte);
            f.place(fhs);
            f.emit(Op::LdSFld(g));
            f.ldc_i4(10);
            f.bin(BinOp::Add);
            f.emit(Op::StSFld(g));
            f.emit(Op::EndFinally);
            f.place(fhe);
            f.place(te);
            f.place(hs);
            f.emit(Op::Pop);
            f.emit(Op::LdSFld(g));
            f.ldc_i4(100);
            f.bin(BinOp::Add);
            f.emit(Op::StSFld(g));
            f.leave(done);
            f.place(he);
            f.place(done);
            f.emit(Op::LdSFld(g));
            f.ret();
            f.eh_finally(fts, fte, fhs, fhe);
            f.eh_catch(ts, te, hs, he, exc);
            f.finish();
        });
        for base in [VmProfile::sscli10(), VmProfile::clr11()] {
            let vm = Vm::new(m.clone(), base.with_observe(ObserveLevel::Counters)).unwrap();
            let r = vm.invoke_by_name("P.Go", vec![]).unwrap().unwrap();
            assert_eq!(r.as_i4(), 110, "{}", base.name);
            let rep = vm.observe_report().unwrap();
            let mp = rep.method(vm.module.find_method("P.Go").unwrap()).unwrap();
            assert_eq!(mp.eh_finally, 1, "{}", base.name);
            assert_eq!(mp.eh_catch, 1, "{}", base.name);
            assert_eq!(mp.eh_fault_path, 0, "{}", base.name);
        }
    }

    #[test]
    fn observe_fault_path_counted_when_exception_escapes() {
        let m = build_module(|mb| {
            let c = mb.declare_class("P", None);
            let exc_ctor = mb.method_id("Exception..ctor").unwrap();
            let mut f = mb.method(c, "Raise", vec![], CilType::Void, MethodKind::Static);
            f.emit(Op::NewObj(exc_ctor));
            f.emit(Op::Throw);
            f.finish();
        });
        for base in [VmProfile::sscli10(), VmProfile::mono023()] {
            let vm = Vm::new(m.clone(), base.with_observe(ObserveLevel::Counters)).unwrap();
            let e = vm.invoke_by_name("P.Raise", vec![]).unwrap_err();
            assert!(matches!(e, VmError::Exception(_)));
            let rep = vm.observe_report().unwrap();
            let mp = rep.method(vm.module.find_method("P.Raise").unwrap()).unwrap();
            assert_eq!(mp.eh_fault_path, 1, "{}", base.name);
            assert_eq!(mp.eh_catch + mp.eh_finally, 0, "{}", base.name);
        }
    }

    #[test]
    fn observe_inclusive_exceeds_exclusive_for_callers() {
        // Caller does almost nothing itself; callee does the work.
        let m = build_module(|mb| {
            let c = mb.declare_class("P", None);
            let mut w = mb.method(c, "Work", vec![CilType::I4], CilType::I4, MethodKind::Static);
            let s = w.local(CilType::I4);
            let i = w.local(CilType::I4);
            let head = w.new_label();
            let exit = w.new_label();
            w.place(head);
            w.ld_loc(i);
            w.ld_arg(0);
            w.br_cmp(CmpOp::Ge, exit);
            w.ld_loc(s);
            w.ld_loc(i);
            w.bin(BinOp::Add);
            w.st_loc(s);
            w.ld_loc(i);
            w.ldc_i4(1);
            w.bin(BinOp::Add);
            w.st_loc(i);
            w.br(head);
            w.place(exit);
            w.ld_loc(s);
            w.ret();
            let work = w.finish();
            let mut f = mb.method(c, "Outer", vec![CilType::I4], CilType::I4, MethodKind::Static);
            f.ld_arg(0);
            f.call(work);
            f.ret();
            f.finish();
        });
        // Sun 1.4 has inlining off, so the call survives on the Rir tier.
        for base in [VmProfile::sscli10(), VmProfile::jvm_sun14()] {
            let vm = Vm::new(m.clone(), base.with_observe(ObserveLevel::Counters)).unwrap();
            vm.invoke_by_name("P.Outer", vec![Value::I4(200)]).unwrap();
            let rep = vm.observe_report().unwrap();
            let outer = rep.method(vm.module.find_method("P.Outer").unwrap()).unwrap();
            let work = rep.method(vm.module.find_method("P.Work").unwrap()).unwrap();
            assert_eq!(outer.invocations, 1, "{}", base.name);
            assert_eq!(work.invocations, 1, "{}", base.name);
            assert!(
                outer.ops_incl >= outer.ops_excl + work.ops_excl,
                "{}: caller inclusive {} must cover callee exclusive {}",
                base.name,
                outer.ops_incl,
                work.ops_excl
            );
            assert!(work.ops_excl > outer.ops_excl, "{}", base.name);
        }
    }

    #[test]
    fn counters_snapshot_delta_is_saturating() {
        // A run that moves calls, throws, JIT and loop counters; every
        // declared counter is checked through the generated view.
        let src = "class P {
            static int G(int[] a) { int s = 0; for (int i = 0; i < a.Length; i++) { s += a[i]; } return s; }
            static int F(int n) {
                int s = G(new int[n]);
                try { throw new Exception(); } catch (Exception e) { s++; }
                return s;
            }
        }";
        let vm = Vm::new(hpcnet_minics::compile(src).unwrap(), VmProfile::clr11()).unwrap();
        let a = vm.counters.snapshot();
        vm.invoke_by_name("P.F", vec![Value::I4(8)]).unwrap();
        let b = vm.counters.snapshot();
        let (forward, backward) = (b.delta(&a).fields(), a.delta(&b).fields());
        let (a, b) = (a.fields(), b.fields());
        for (i, &name) in CountersSnapshot::NAMES.iter().enumerate() {
            assert_eq!(forward[i], (name, b[i].1 - a[i].1));
            // Mismatched order saturates to zero instead of wrapping.
            assert_eq!(backward[i], (name, 0));
        }
        for moved in ["calls", "throws", "jit_compiles", "loops_found"] {
            assert!(forward.iter().any(|&(n, d)| n == moved && d > 0), "{moved} did not move");
        }
    }

    #[test]
    fn calls_and_throws_counters_agree_between_tiers() {
        // Satellite audit: for the same program, the interp tier and a
        // non-inlining Rir tier must agree bitwise on calls and throws.
        let m = build_module(|mb| {
            let c = mb.declare_class("P", None);
            let exc = mb.class_id("Exception").unwrap();
            let exc_ctor = mb.method_id("Exception..ctor").unwrap();
            let mut t = mb.method(c, "Boom", vec![], CilType::Void, MethodKind::Static);
            t.emit(Op::NewObj(exc_ctor));
            t.emit(Op::Throw);
            let boom = t.finish();
            let mut f = mb.method(c, "Go", vec![CilType::I4], CilType::I4, MethodKind::Static);
            let (ts, te, hs, he) = (f.new_label(), f.new_label(), f.new_label(), f.new_label());
            let done = f.new_label();
            let i = f.local(CilType::I4);
            let head = f.new_label();
            let exit = f.new_label();
            f.place(head);
            f.ld_loc(i);
            f.ld_arg(0);
            f.br_cmp(CmpOp::Ge, exit);
            f.place(ts);
            f.call(boom);
            f.leave(done);
            f.place(te);
            f.place(hs);
            f.emit(Op::Pop);
            f.leave(done);
            f.place(he);
            f.place(done);
            f.ld_loc(i);
            f.ldc_i4(1);
            f.bin(BinOp::Add);
            f.st_loc(i);
            f.br(head);
            f.place(exit);
            f.ld_loc(i);
            f.ret();
            f.eh_catch(ts, te, hs, he, exc);
            f.finish();
        });
        // Mono-0.23 does not inline (passes off), so the call structure is
        // identical to the interpreter's.
        let interp = Vm::new(m.clone(), VmProfile::sscli10()).unwrap();
        let rir = Vm::new(m.clone(), VmProfile::mono023()).unwrap();
        for vm in [&interp, &rir] {
            assert_eq!(
                vm.invoke_by_name("P.Go", vec![Value::I4(9)]).unwrap().unwrap().as_i4(),
                9
            );
        }
        let a = interp.counters.snapshot();
        let b = rir.counters.snapshot();
        assert_eq!(a.calls, b.calls, "calls must match bitwise across tiers");
        assert_eq!(a.throws, b.throws, "throws must match bitwise across tiers");
        // Each iteration: Boom plus the Exception..ctor its newobj runs.
        assert_eq!(a.calls, 19, "1 entry + 9 Boom + 9 ctor calls");
        assert_eq!(a.throws, 9);
    }

    #[test]
    fn jit_compiles_counts_methods_not_races() {
        // Single-threaded: compiling the entry + callee exactly once, on
        // either allocator, and the RIR accessor reads the code that ran.
        for profile in [VmProfile::clr11(), VmProfile::clr11_compiled()] {
            let vm = Vm::new(array_loop_module(), profile).unwrap();
            vm.invoke_by_name("P.Fill", vec![Value::I4(4)]).unwrap();
            vm.invoke_by_name("P.Fill", vec![Value::I4(4)]).unwrap();
            let id = vm.module.find_method("P.Fill").unwrap();
            let (rir, code) = (vm.compiled(id).unwrap(), vm.threaded(id).unwrap());
            let one = std::sync::Arc::ptr_eq(&rir, &code.rir);
            assert!(one, "{}: two copies of the RIR", profile.name);
            let jit = vm.counters.snapshot().jit_compiles;
            assert_eq!(jit, 1, "{}: cache hit on repeat", profile.name);
        }
    }

    #[test]
    fn a_racing_first_call_counts_one_compile_and_its_outcome() {
        // Two threads race the first call of a method with one loop: both
        // may compile it, but only the code that wins the cell is counted,
        // with the loops its passes found.
        for round in 0..300 {
            let vm = Vm::new(array_loop_module(), VmProfile::clr11()).unwrap();
            let gate = std::sync::Barrier::new(2);
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        gate.wait();
                        vm.invoke_by_name("P.Fill", vec![Value::I4(4)]).unwrap();
                    });
                }
            });
            let c = vm.counters.snapshot();
            assert_eq!((c.jit_compiles, c.loops_found), (1, 1), "round {round}");
        }
    }

    /// A method with 70 locals that are all simultaneously live (every one
    /// is written up front and read in the final sum) — more than the CLR
    /// profile's 64-slot register file can hold.
    fn wide_module(n_locals: usize) -> hpcnet_cil::Module {
        build_module(|mb| {
            let c = mb.declare_class("P", None);
            let mut f =
                mb.method(c, "Wide", vec![CilType::I4], CilType::I4, MethodKind::Static);
            let locals: Vec<_> = (0..n_locals).map(|_| f.local(CilType::I4)).collect();
            for (k, &l) in locals.iter().enumerate() {
                f.ld_arg(0);
                f.ldc_i4(k as i32 + 1);
                f.bin(BinOp::Mul);
                f.st_loc(l);
            }
            f.ldc_i4(0);
            for &l in &locals {
                f.ld_loc(l);
                f.bin(BinOp::Add);
            }
            f.ret();
            f.finish();
        })
    }

    #[test]
    fn spill_pressure_over_the_clr_register_file() {
        // 70 simultaneously live values against max_enreg = 64: the
        // linear scan must take real spills, and the spilled code must
        // still compute the same answer as every other tier.
        let n = 70usize;
        let m = wide_module(n);
        let want = 3 * (n * (n + 1) / 2) as i32; // sum of 3*k for k=1..=70
        assert_all_i4(&m, "P.Wide", vec![Value::I4(3)], want);

        let vm = Vm::new(wide_module(n), VmProfile::clr11_compiled()).unwrap();
        let r = vm.invoke_by_name("P.Wide", vec![Value::I4(3)]).unwrap();
        assert_eq!(r.unwrap().as_i4(), want);
        let id = vm.module.find_method("P.Wide").unwrap();
        let code = vm.threaded(id).unwrap();
        assert!(
            code.rir.n_pspill > 0,
            "70 live locals under a 64-slot cap must spill (n_pspill = {})",
            code.rir.n_pspill
        );
        assert!(
            code.rir.n_preg <= vm.profile.max_enreg,
            "register file over cap"
        );
        // The same method under the use-count allocator spills too — both
        // rankings honor the profile cap.
        let vm2 = Vm::new(wide_module(n), VmProfile::clr11()).unwrap();
        let rir = vm2.compiled(id).unwrap();
        assert!(rir.n_pspill > 0);
    }

    #[test]
    fn a_cap_above_the_register_file_spills() {
        // The frame's register files have 64 entries; a profile that asks
        // for more gets 64 and spills the rest, under both rankings.
        let m = wide_module(70);
        let oracle = Vm::new(m.clone(), VmProfile::sscli10()).unwrap();
        let want = oracle
            .invoke_by_name("P.Wide", vec![Value::I4(3)])
            .unwrap()
            .unwrap()
            .as_i4();
        let mut wide = VmProfile::clr11();
        wide.max_enreg = 200;
        for tier in [Tier::Compiled, Tier::Rir] {
            let vm = Vm::new(m.clone(), wide.with_tier(tier)).unwrap();
            let got = vm.invoke_by_name("P.Wide", vec![Value::I4(3)]).unwrap();
            assert_eq!(got.unwrap().as_i4(), want, "{tier:?}");
            let id = vm.module.find_method("P.Wide").unwrap();
            let rir = vm.compiled(id).unwrap();
            let regs = (rir.n_preg, rir.n_rreg);
            assert!(regs.0 <= 64 && regs.1 <= 64, "{tier:?}: registers {regs:?}");
            assert!(rir.n_pspill > 0, "{tier:?}: 70 live locals did not spill");
        }
    }

    #[test]
    fn threaded_register_reuse_beats_use_count_allocation() {
        // Disjoint lifetimes: each local is written then immediately
        // consumed, so the linear scan packs them into a handful of
        // registers while the use-count allocator burns one slot each.
        let m = build_module(|mb| {
            let c = mb.declare_class("P", None);
            let mut f =
                mb.method(c, "Chain", vec![CilType::I4], CilType::I4, MethodKind::Static);
            let acc = f.local(CilType::I4);
            f.ld_arg(0);
            f.st_loc(acc);
            for k in 0..40 {
                let t = f.local(CilType::I4);
                f.ld_loc(acc);
                f.ldc_i4(k + 1);
                f.bin(BinOp::Add);
                f.st_loc(t);
                f.ld_loc(t);
                f.st_loc(acc);
            }
            f.ld_loc(acc);
            f.ret();
            f.finish();
        });
        let want = 1 + (1..=40).sum::<i32>();
        assert_all_i4(&m, "P.Chain", vec![Value::I4(1)], want);
        // Under Mono's 1-register cap the chain spills on both tiers, but
        // interval reuse needs far fewer spill slots than one-per-vreg.
        let vm = Vm::new(m, VmProfile::mono023().with_tier(Tier::Compiled)).unwrap();
        let r = vm.invoke_by_name("P.Chain", vec![Value::I4(1)]).unwrap();
        assert_eq!(r.unwrap().as_i4(), want);
    }
}
