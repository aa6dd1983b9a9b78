//! The front end's output, pinned: what MiniC# compiles to, what
//! `verify_module` records on it, and what the verifier says about
//! broken variants of it.
//!
//! The program set is every Grande group source plus the generated
//! programs of the benchmark's `cold` workload (`conform::gen` seeds
//! `12000..12016`). Two fingerprints cover it:
//!
//! * [`MODULES`] — FNV-1a over a deterministic rendering of every emitted
//!   and verified module: classes, fields, strings, the name tables in
//!   sorted order, and per method its signature, locals, code, exception
//!   regions, `max_stack` and every entry of its [`StackShapes`].
//! * [`VERDICTS`] — FNV-1a over the verifier's verdict ("ok", or the
//!   error's `Display`) on single-op mutants of those modules: at every
//!   [`STRIDE`]th pc of every method, [`PER_PC`] seeded replacement ops.
//!
//! A change to the lexer, parser, codegen or verifier that claims to emit
//! the same modules and give the same verdicts must leave both untouched.
//! Every program's hashes are printed, so on a mismatch two captured
//! outputs (`cargo test -p conform --test front_end -- --nocapture`) diff
//! down to the program that moved.

use conform::gen::{generate, render};
use hpcnet_cil::{
    verify_method, verify_module, BinOp, ClassId, CmpOp, ElemKind, FieldId, Intrinsic, MethodId,
    Module, NumTy, Op, StackShapes, StrId, UnOp,
};

/// Fingerprint of every emitted and verified module.
const MODULES: u64 = 0x34ca_87eb_9b0e_1ae1;

/// Fingerprint of the verifier's verdicts on the mutants.
const VERDICTS: u64 = 0x92ee_0bba_1a36_1fde;

/// The `cold` workload's generated programs.
const GENERATED: std::ops::Range<u64> = 12000..12016;

/// Mutate every `STRIDE`th pc (from a per-method offset); 7 keeps the
/// debug-build test within a few seconds.
const STRIDE: usize = 7;

/// Replacement ops tried at each mutated pc.
const PER_PC: u64 = 6;

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

    /// A rendered item, terminated so adjacent items cannot run together.
    fn item(&mut self, text: &str) {
        self.bytes(text.as_bytes());
        self.bytes(b"\n");
    }
}

/// Every program of the set, labelled, compiled and verified.
fn modules() -> Vec<(String, Module)> {
    let mut out = Vec::new();
    let mut add = |label: String, src: &str| {
        let mut module = hpcnet_minics::compile(src).unwrap_or_else(|e| panic!("{label}: {e}"));
        verify_module(&mut module).unwrap_or_else(|e| panic!("{label}: {e}"));
        out.push((label, module));
    };
    for group in hpcnet_grande::registry() {
        add(format!("grande group {}", group.id), group.source);
    }
    for seed in GENERATED {
        add(format!("seed {seed}"), &render(&generate(seed)));
    }
    out
}

fn hash_shapes(h: &mut Fnv, shapes: &StackShapes) {
    for entry in shapes.iter() {
        match entry {
            Some(cells) => h.item(&format!("{cells:?}")),
            None => h.item("unreached"),
        }
    }
}

/// Hash one verified module, checking each body's recorded table on the
/// way: one entry per instruction, and `max_stack` its deepest entry.
fn hash_module(label: &str, module: &Module) -> u64 {
    let mut h = Fnv::new();
    for class in &module.classes {
        h.item(&format!("{class:?}"));
    }
    for field in &module.fields {
        h.item(&format!("{field:?}"));
    }
    for s in &module.strings {
        h.item(&format!("{s:?}"));
    }
    h.num(u64::from(module.n_static_prim));
    h.num(u64::from(module.n_static_ref));
    let mut names: Vec<String> = module
        .method_names
        .iter()
        .map(|(n, id)| format!("method {n} {id}"))
        .chain(
            module
                .class_names
                .iter()
                .map(|(n, id)| format!("class {n} {id}")),
        )
        .collect();
    names.sort();
    for n in &names {
        h.item(n);
    }
    for m in &module.methods {
        let body = &m.body;
        let at = format!("{label} / {}", m.name);
        h.item(&format!(
            "{} {} {:?} {:?} static={} vslot={:?} ctor={}",
            m.name, m.owner, m.params, m.ret, m.is_static, m.vtable_slot, m.is_ctor
        ));
        h.item(&format!("{:?}", body.locals));
        for op in &body.code {
            h.item(&format!("{op:?}"));
        }
        h.item(&format!("{:?}", body.eh));
        h.num(u64::from(body.max_stack));
        let shapes = body
            .stack_shapes
            .as_ref()
            .unwrap_or_else(|| panic!("{at}: no stack shapes recorded"));
        assert_eq!(shapes.len(), body.code.len(), "{at}");
        assert_eq!(shapes.max_depth(), body.max_stack, "{at}");
        hash_shapes(&mut h, shapes);
    }
    h.0
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A seeded replacement for one instruction of `method`: every operand is
/// an index the module has (the verifier indexes the module's tables by
/// them), except branch targets, locals and arguments, which may point one
/// or two past the end.
fn replacement(module: &Module, method: MethodId, r: u64) -> Op {
    const NUMS: [NumTy; 4] = [NumTy::I4, NumTy::I8, NumTy::R4, NumTy::R8];
    const ELEMS: [ElemKind; 6] = [
        ElemKind::U1,
        ElemKind::I4,
        ElemKind::I8,
        ElemKind::R4,
        ElemKind::R8,
        ElemKind::Ref,
    ];
    const BINS: [BinOp; 4] = [BinOp::Add, BinOp::Div, BinOp::Xor, BinOp::Shl];
    const INTRINSICS: [Intrinsic; 6] = [
        Intrinsic::Sin,
        Intrinsic::MaxI4,
        Intrinsic::StrConcat,
        Intrinsic::ConsoleWriteLineI4,
        Intrinsic::Random,
        Intrinsic::MonitorEnter,
    ];
    let m = module.method(method);
    let x = r >> 8;
    let pick = |len: usize| (x % len.max(1) as u64) as usize;
    let target = pick(m.body.code.len() + 2) as u32;
    let local = pick(m.body.locals.len() + 1) as u16;
    let arg = pick(m.arg_count() + 1) as u16;
    let num = NUMS[pick(NUMS.len())];
    let elem = ELEMS[pick(ELEMS.len())];
    let field = FieldId(pick(module.fields.len()) as u32);
    let callee = MethodId(pick(module.methods.len()) as u32);
    let class = ClassId(pick(module.classes.len()) as u32);
    let has_fields = !module.fields.is_empty();
    match r % 41 {
        0 => Op::Nop,
        1 => Op::Pop,
        2 => Op::Dup,
        3 => Op::LdNull,
        4 => Op::LdcI4(x as i32),
        5 => Op::LdcI8(x as i64),
        6 => Op::LdcR4(0.5),
        7 => Op::LdcR8(-1.5),
        8 => Op::LdStr(StrId(0)),
        9 => Op::Ret,
        10 => Op::Throw,
        11 => Op::EndFinally,
        12 => Op::Br(target),
        13 => Op::BrTrue(target),
        14 => Op::BrCmp(CmpOp::Lt, target),
        15 => Op::Leave(target),
        16 => Op::Bin(BINS[pick(BINS.len())]),
        17 => Op::Un(if x.is_multiple_of(2) {
            UnOp::Neg
        } else {
            UnOp::Not
        }),
        18 => Op::Cmp(CmpOp::Eq),
        19 => Op::Conv(num),
        20 => Op::LdLoc(local),
        21 => Op::StLoc(local),
        22 => Op::LdArg(arg),
        23 => Op::StArg(arg),
        24 if has_fields => Op::LdFld(field),
        25 if has_fields => Op::StFld(field),
        26 if has_fields => Op::LdSFld(field),
        27 if has_fields => Op::StSFld(field),
        28 => Op::Call(callee),
        29 => Op::CallVirt(callee),
        30 => Op::NewObj(callee),
        31 => Op::CastClass(class),
        32 => Op::IsInst(class),
        33 => Op::NewArr(elem),
        34 => Op::LdLen,
        35 => Op::LdElem(elem),
        36 => Op::StElem(elem),
        37 => Op::LdElemMulti {
            kind: elem,
            rank: 2 + (x % 2) as u8,
        },
        38 => Op::BoxVal(num),
        39 => Op::CallIntrinsic(INTRINSICS[pick(INTRINSICS.len())]),
        40 => Op::UnboxVal(num),
        _ => Op::Nop,
    }
}

/// Hash the verdict on every mutant of `module`; returns the hash and the
/// number of mutants and of rejections.
fn hash_verdicts(program: u64, module: &mut Module) -> (u64, usize, usize) {
    let mut h = Fnv::new();
    let (mut mutants, mut rejected) = (0, 0);
    for mi in 0..module.methods.len() {
        let id = MethodId(mi as u32);
        let len = module.methods[mi].body.code.len();
        let seed = splitmix(program << 32 | mi as u64);
        for pc in (seed as usize % STRIDE..len).step_by(STRIDE) {
            let original = module.methods[mi].body.code[pc].clone();
            for k in 0..PER_PC {
                let op = replacement(module, id, splitmix(seed ^ (pc as u64) << 8 ^ k));
                module.methods[mi].body.code[pc] = op;
                let verdict = match verify_method(module, id) {
                    Ok(_) => "ok".to_string(),
                    Err(e) => {
                        rejected += 1;
                        e.to_string()
                    }
                };
                h.item(&verdict);
                mutants += 1;
            }
            module.methods[mi].body.code[pc] = original;
        }
    }
    (h.0, mutants, rejected)
}

#[test]
fn front_end_output_and_verdicts_match_the_pinned_fingerprints() {
    let (mut modules_hash, mut verdicts_hash) = (Fnv::new(), Fnv::new());
    let (mut mutants, mut rejected, mut methods) = (0, 0, 0);
    for (program, (label, mut module)) in modules().into_iter().enumerate() {
        let emitted = hash_module(&label, &module);
        let (verdicts, m, r) = hash_verdicts(program as u64, &mut module);
        println!("{emitted:016x} {verdicts:016x} {label}");
        modules_hash.item(&label);
        modules_hash.num(emitted);
        verdicts_hash.item(&label);
        verdicts_hash.num(verdicts);
        mutants += m;
        rejected += r;
        methods += module.methods.len();
    }
    println!(
        "{methods} methods, {mutants} mutants, {rejected} rejected; modules {:016x}, verdicts {:016x}",
        modules_hash.0, verdicts_hash.0
    );
    assert!(methods > 400, "covered {methods} methods");
    assert!(
        rejected > mutants / 4 && rejected < mutants,
        "{rejected} of {mutants} mutants rejected"
    );
    assert_eq!(modules_hash.0, MODULES, "emitted modules changed");
    assert_eq!(verdicts_hash.0, VERDICTS, "verifier verdicts changed");
}
