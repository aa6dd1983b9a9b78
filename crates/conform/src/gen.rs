//! Seeded MiniC# program generator.
//!
//! Programs are built as *typed* statement/expression trees over a fixed
//! environment (scalar locals of every numeric kind, static fields, 1-D
//! arrays, a jagged `int[][]`, a rectangular `double[,]`, and a few static
//! helper methods), then rendered to MiniC# source. Because generation is
//! type-directed, every rendered program compiles and verifies; anything
//! the front end rejects is a generator bug, and the conformance driver
//! treats it as a failure.
//!
//! Determinism contract: `generate(seed)` is a pure function of the seed.
//! The same seed always yields the same program, so any divergence found
//! in CI can be replayed locally by seed alone.
//!
//! The generator deliberately stays inside the *semantically portable*
//! subset of the runtime: `Math.Abs/Max/Min` on integers and `Math.Sqrt`
//! (bit-identical in both the fast and strict math tables), no timers, no
//! `Math.Random`, no threads — everything else would diverge across
//! profiles by design, not by bug (see `docs/TESTING.md`).

/// SplitMix64 — tiny, seedable, and good enough for program generation.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_add(0x9E3779B97F4A7C15))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// True with probability `pct`/100.
    pub fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }

    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }
}

/// The four scalar types the generator works with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ty {
    Int,
    Long,
    Double,
    Bool,
}

/// The three 1-D arrays in the fixed environment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arr {
    /// `int[] ai`
    Ai,
    /// `long[] al`
    Al,
    /// `double[] ad`
    Ad,
}

impl Arr {
    pub fn ty(self) -> Ty {
        match self {
            Arr::Ai => Ty::Int,
            Arr::Al => Ty::Long,
            Arr::Ad => Ty::Double,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Arr::Ai => "ai",
            Arr::Al => "al",
            Arr::Ad => "ad",
        }
    }

    fn elem_src_ty(self) -> &'static str {
        match self {
            Arr::Ai => "int",
            Arr::Al => "long",
            Arr::Ad => "double",
        }
    }
}

/// Binary operators (type legality is the generator's responsibility).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
}

impl BOp {
    fn src(self) -> &'static str {
        match self {
            BOp::Add => "+",
            BOp::Sub => "-",
            BOp::Mul => "*",
            BOp::Div => "/",
            BOp::Rem => "%",
            BOp::And => "&",
            BOp::Or => "|",
            BOp::Xor => "^",
            BOp::Shl => "<<",
            BOp::Shr => ">>",
        }
    }
}

/// A typed expression. Invariant: the tree is well-typed by construction
/// (e.g. `Bin` operands share the parent's type, shift counts are `Int`).
#[derive(Clone, Debug)]
pub enum Expr {
    IntLit(i32),
    LongLit(i64),
    DblLit(f64),
    BoolLit(bool),
    /// Scalar local `(type, index)` — `v0..`, `w0..`, `d0..`, `b0..`.
    Var(Ty, u8),
    /// Static field: 0 = `sI: int`, 1 = `sL: long`, 2 = `sD: double`.
    SField(u8),
    /// `Run`'s first argument (`int a`).
    ArgA,
    /// `Run`'s second argument (`int b`).
    ArgB,
    /// Helper parameter (inside helper bodies only): 0 = `x`, 1 = `y`.
    Param(u8),
    /// Index variable of the `rel`-th enclosing loop (0 = innermost).
    /// Renders as `0` if no loop encloses it (possible after shrinking).
    LoopIdx(u8),
    /// 1-D element read; the index expression carries its own guard
    /// (masking) or lack thereof.
    Elem(Arr, Box<Expr>),
    /// Jagged `jj[row][col]` read.
    JElem(Box<Expr>, Box<Expr>),
    /// Rectangular `rr[i, j]` read.
    RElem(Box<Expr>, Box<Expr>),
    /// `arr.Length`.
    Len(Arr),
    /// `jj[row].Length`.
    JLen(Box<Expr>),
    /// `rr.GetLength(dim)`.
    RLen(u8),
    Bin(BOp, Box<Expr>, Box<Expr>),
    Neg(Box<Expr>),
    BNot(Box<Expr>),
    LNot(Box<Expr>),
    /// Comparison producing `Bool`; operands share a numeric type.
    Cmp(&'static str, Box<Expr>, Box<Expr>),
    /// `&&` / `||` on bools.
    Logic(&'static str, Box<Expr>, Box<Expr>),
    /// Ternary; condition is `Bool`, arms share the parent's type.
    Cond(Box<Expr>, Box<Expr>, Box<Expr>),
    Cast(Ty, Box<Expr>),
    /// Helper call: 0..=2 = `H0..H2`, 3 = the recursive `R0`.
    Call(u8, Vec<Expr>),
    /// Portable math intrinsic (`Math.Abs` etc. — see module docs).
    Intr(&'static str, Vec<Expr>),
}

/// A statement over the fixed environment.
#[derive(Clone, Debug)]
pub enum Stmt {
    /// `var = e;`
    Assign(Ty, u8, Expr),
    /// `var op= e;`
    OpAssign(Ty, u8, BOp, Expr),
    /// `sfield = e;`
    AssignS(u8, Expr),
    /// `arr[idx] = e;`
    Store(Arr, Expr, Expr),
    /// `jj[row][col] = e;`
    StoreJ(Expr, Expr, Expr),
    /// `jj[row] = new int[len];` — mutates a jagged row's bounds.
    StoreJRow(u8, u8),
    /// `rr[i, j] = e;`
    StoreR(Expr, Expr, Expr),
    If(Expr, Vec<Stmt>, Vec<Stmt>),
    /// `for (int iN = 0; iN < arr.Length; iN++) { body [bound mutation] }`
    ForLen {
        arr: Arr,
        body: Vec<Stmt>,
        /// `Some(new_len)`: reassign the array mid-loop (`if (iN == 2)`),
        /// invalidating any bounds-check elimination keyed on the original
        /// length — the case ABCE must prove it never breaks.
        mutate: Option<u8>,
    },
    /// `for (int iN = 0; iN < n; iN++) { body }`
    ForCount { n: u8, body: Vec<Stmt> },
    /// A derived-index loop — the access patterns symbolic range
    /// analysis (`rir::range::range_abce`) and guarded loop versioning
    /// (`rir::range::version_loops`) exist to prove. Each shape renders a
    /// guaranteed derived access after `body`, in-bounds as written but
    /// exposed to mid-loop array reassignment from `body` (the hazard a
    /// version guard must catch).
    ForDerived {
        arr: Arr,
        shape: DerivedShape,
        body: Vec<Stmt>,
    },
    TryCatch {
        body: Vec<Stmt>,
        catch: &'static str,
        handler: Vec<Stmt>,
        fin: Option<Vec<Stmt>>,
    },
    /// `throw new Exception();`
    Throw,
    /// `if (c) { break; }` — loops only.
    BreakIf(Expr),
    /// `if (c) { continue; }` — loops only.
    ContinueIf(Expr),
    /// `Console.WriteLine(...)` of a typed expression.
    Print(Ty, Expr),
    /// Expression statement discarding a helper result (compiles to `pop`).
    CallStmt(u8, Vec<Expr>),
}

/// Loop shapes whose array index is derived from the counter instead of
/// masked, with a bound that compensates. These are the shapes the
/// range/versioning ABCE tiers target; conform must prove the optimized
/// engines agree with the oracle on every one of them (including the
/// trap when `body` shrinks the array mid-loop).
#[derive(Clone, Copy, Debug)]
pub enum DerivedShape {
    /// `for (i = 0; i < arr.Length - k; i++)` accessing `arr[i + k]`.
    OffsetPlus(u8),
    /// `for (i = k; i < arr.Length; i++)` accessing `arr[i - k]`.
    OffsetMinus(u8),
    /// `for (i = 0; i < arr.Length; i++) for (j = 0; j < i; j++)`
    /// accessing `arr[j]` — the inner bound is loop-variant.
    Triangular,
    /// `int n = arr.Length; for (i = 0; i < n; i++)` accessing `arr[i]`
    /// — the bound is the length hoisted through a local.
    HoistedLen,
}

/// A complete generated program plus the inputs to drive it with.
#[derive(Clone, Debug)]
pub struct Program {
    pub seed: u64,
    /// Static-field initializers (`sI`, `sL`, `sD`) — literals only.
    pub s_init: (i32, i64, f64),
    /// Bodies of the expression helpers `H0`(int,int)→int,
    /// `H1`(long,int)→long, `H2`(double,double)→double.
    pub helper_bodies: [Expr; 3],
    /// The accumulator constant in the recursive helper `R0`.
    pub rec_const: i32,
    pub stmts: Vec<Stmt>,
    /// `(a, b)` argument pairs `Gen.Run` is invoked with.
    pub inputs: Vec<(i32, i32)>,
}

const MAX_DEPTH: u32 = 4;
const MAX_NEST: u32 = 3;

const INT_VARS: u8 = 3;
const LONG_VARS: u8 = 2;
const DBL_VARS: u8 = 2;
const BOOL_VARS: u8 = 2;

fn var_count(ty: Ty) -> u8 {
    match ty {
        Ty::Int => INT_VARS,
        Ty::Long => LONG_VARS,
        Ty::Double => DBL_VARS,
        Ty::Bool => BOOL_VARS,
    }
}

fn var_name(ty: Ty, i: u8) -> String {
    match ty {
        Ty::Int => format!("v{i}"),
        Ty::Long => format!("w{i}"),
        Ty::Double => format!("d{i}"),
        Ty::Bool => format!("b{i}"),
    }
}

/// Generate the program for a seed. Pure: same seed, same program.
pub fn generate(seed: u64) -> Program {
    let mut rng = Rng::new(seed);
    let s_init = (
        *rng.pick(&[0, 1, -1, 7, 1000, -123456]),
        *rng.pick(&[0i64, 1, -1, 1_000_000_007, -42]),
        *rng.pick(&[0.0f64, 1.0, -1.0, 0.5, 3.25, 1000000.0]),
    );
    let helper_bodies = [
        GenCtx::helper(&mut rng, Ty::Int, [Ty::Int, Ty::Int]).expr(Ty::Int, 2),
        GenCtx::helper(&mut rng, Ty::Long, [Ty::Long, Ty::Int]).expr(Ty::Long, 2),
        GenCtx::helper(&mut rng, Ty::Double, [Ty::Double, Ty::Double]).expr(Ty::Double, 2),
    ];
    let rec_const = rng.below(97) as i32 + 1;
    let n_stmts = 6 + rng.below(7) as usize;
    let mut ctx = GenCtx::run(&mut rng);
    let stmts = ctx.block(n_stmts, 0);
    let a1 = rng.next() as i32;
    let b1 = rng.next() as i32;
    let a2 = -((rng.below(100)) as i32);
    let b2 = rng.next() as u32 as i32 | 1;
    Program {
        seed,
        s_init,
        helper_bodies,
        rec_const,
        stmts,
        inputs: vec![(0, 1), (a1, b1), (a2, b2)],
    }
}

/// Generation context: what names are in scope.
struct GenCtx<'r> {
    rng: &'r mut Rng,
    /// `None` = inside `Run`; `Some(param types)` = inside a helper body.
    helper_params: Option<[Ty; 2]>,
    loop_depth: u32,
    in_try: bool,
}

impl<'r> GenCtx<'r> {
    fn run(rng: &'r mut Rng) -> GenCtx<'r> {
        GenCtx { rng, helper_params: None, loop_depth: 0, in_try: false }
    }

    fn helper(rng: &'r mut Rng, _ret: Ty, params: [Ty; 2]) -> GenCtx<'r> {
        GenCtx { rng, helper_params: Some(params), loop_depth: 0, in_try: false }
    }

    // ---- expressions ----

    fn lit(&mut self, ty: Ty) -> Expr {
        match ty {
            Ty::Int => Expr::IntLit(*self.rng.pick(&[
                0,
                1,
                -1,
                2,
                3,
                7,
                15,
                31,
                255,
                -7,
                100,
                i32::MAX,
                i32::MIN,
                12345,
            ])),
            Ty::Long => Expr::LongLit(*self.rng.pick(&[
                0,
                1,
                -1,
                2,
                63,
                255,
                -9,
                1_000_000_007,
                i64::MAX,
                i64::MIN,
                4096,
            ])),
            Ty::Double => Expr::DblLit(*self.rng.pick(&[
                0.0, 1.0, -1.0, 0.5, -0.5, 2.0, 3.25, 100.0, 0.001, -7.75, 1000000.0,
            ])),
            Ty::Bool => Expr::BoolLit(self.rng.chance(50)),
        }
    }

    /// A leaf of the requested type.
    fn atom(&mut self, ty: Ty) -> Expr {
        if let Some(params) = self.helper_params {
            // Helper bodies: params, statics, literals.
            let r = self.rng.below(10);
            if r < 4 {
                for (i, pt) in params.iter().enumerate() {
                    if *pt == ty && self.rng.chance(60) {
                        return Expr::Param(i as u8);
                    }
                }
            }
            if r < 6 {
                match ty {
                    Ty::Int => return Expr::SField(0),
                    Ty::Long => return Expr::SField(1),
                    Ty::Double => return Expr::SField(2),
                    Ty::Bool => {}
                }
            }
            return self.lit(ty);
        }
        let r = self.rng.below(100);
        match ty {
            Ty::Int => {
                if r < 25 {
                    Expr::Var(Ty::Int, self.rng.below(INT_VARS as u64) as u8)
                } else if r < 35 {
                    if self.rng.chance(50) {
                        Expr::ArgA
                    } else {
                        Expr::ArgB
                    }
                } else if r < 45 && self.loop_depth > 0 {
                    Expr::LoopIdx(self.rng.below(self.loop_depth as u64) as u8)
                } else if r < 55 {
                    Expr::Len(*self.rng.pick(&[Arr::Ai, Arr::Al, Arr::Ad]))
                } else if r < 60 {
                    Expr::RLen(self.rng.below(2) as u8)
                } else if r < 65 {
                    Expr::SField(0)
                } else if r < 72 {
                    let row = self.masked_row();
                    Expr::JLen(Box::new(row))
                } else {
                    self.lit(Ty::Int)
                }
            }
            Ty::Long => {
                if r < 35 {
                    Expr::Var(Ty::Long, self.rng.below(LONG_VARS as u64) as u8)
                } else if r < 45 {
                    Expr::SField(1)
                } else {
                    self.lit(Ty::Long)
                }
            }
            Ty::Double => {
                if r < 35 {
                    Expr::Var(Ty::Double, self.rng.below(DBL_VARS as u64) as u8)
                } else if r < 45 {
                    Expr::SField(2)
                } else {
                    self.lit(Ty::Double)
                }
            }
            Ty::Bool => {
                if r < 40 {
                    Expr::Var(Ty::Bool, self.rng.below(BOOL_VARS as u64) as u8)
                } else {
                    self.lit(Ty::Bool)
                }
            }
        }
    }

    /// A jagged row index, always masked in-bounds (`(e) & 3`).
    fn masked_row(&mut self) -> Expr {
        let e = self.atom(Ty::Int);
        Expr::Bin(BOp::And, Box::new(e), Box::new(Expr::IntLit(3)))
    }

    /// An index into a 1-D array of length 8: usually masked, sometimes the
    /// innermost loop index (the ABCE-relevant shape), occasionally raw —
    /// raw indices may legitimately trap and all engines must agree.
    fn index(&mut self, depth: u32) -> Expr {
        let r = self.rng.below(100);
        if r < 20 && self.loop_depth > 0 {
            Expr::LoopIdx(0)
        } else if r < 88 {
            let e = self.expr(Ty::Int, depth.saturating_sub(1));
            Expr::Bin(BOp::And, Box::new(e), Box::new(Expr::IntLit(7)))
        } else if r < 94 && (self.in_try || self.rng.chance(25)) {
            // Raw: whatever it evaluates to, possibly out of bounds.
            self.expr(Ty::Int, depth.saturating_sub(1))
        } else {
            Expr::Bin(
                BOp::And,
                Box::new(self.atom(Ty::Int)),
                Box::new(Expr::IntLit(7)),
            )
        }
    }

    /// A jagged column index guarded by the row's own current length
    /// (`(e & 7) % jj[row].Length`) — stays in bounds across row mutations.
    fn jcol(&mut self, row: &Expr, depth: u32) -> Expr {
        if self.in_try && self.rng.chance(25) {
            return self.expr(Ty::Int, depth.saturating_sub(1));
        }
        let e = self.expr(Ty::Int, depth.saturating_sub(1));
        let masked = Expr::Bin(BOp::And, Box::new(e), Box::new(Expr::IntLit(7)));
        Expr::Bin(
            BOp::Rem,
            Box::new(masked),
            Box::new(Expr::JLen(Box::new(row.clone()))),
        )
    }

    /// Divisor for integer `/` and `%`: usually guarded nonzero, raw when
    /// inside `try` (trap outcomes are compared too), rarely the `-1` edge.
    fn divisor(&mut self, ty: Ty, depth: u32) -> Expr {
        let r = self.rng.below(100);
        if r < 8 {
            return match ty {
                Ty::Int => Expr::IntLit(-1),
                Ty::Long => Expr::LongLit(-1),
                _ => unreachable!(),
            };
        }
        if r < 25 && self.in_try {
            return self.expr(ty, depth.saturating_sub(1));
        }
        if r < 28 {
            // Raw divisor outside try: uncaught DivideByZero is a valid
            // whole-program outcome.
            return self.expr(ty, depth.saturating_sub(1));
        }
        let e = self.expr(ty, depth.saturating_sub(1));
        match ty {
            Ty::Int => Expr::Bin(
                BOp::Add,
                Box::new(Expr::Bin(BOp::And, Box::new(e), Box::new(Expr::IntLit(15)))),
                Box::new(Expr::IntLit(1)),
            ),
            Ty::Long => Expr::Bin(
                BOp::Add,
                Box::new(Expr::Bin(BOp::And, Box::new(e), Box::new(Expr::LongLit(15)))),
                Box::new(Expr::LongLit(1)),
            ),
            _ => unreachable!(),
        }
    }

    fn expr(&mut self, ty: Ty, depth: u32) -> Expr {
        if depth == 0 {
            return self.atom(ty);
        }
        let in_run = self.helper_params.is_none();
        let r = self.rng.below(100);
        match ty {
            Ty::Bool => {
                if r < 45 {
                    let opnd = *self.rng.pick(&[Ty::Int, Ty::Long, Ty::Double]);
                    let op = *self.rng.pick(&["<", "<=", ">", ">=", "==", "!="]);
                    let lhs = self.expr(opnd, depth - 1);
                    let rhs = self.expr(opnd, depth - 1);
                    Expr::Cmp(op, Box::new(lhs), Box::new(rhs))
                } else if r < 65 {
                    let op = *self.rng.pick(&["&&", "||"]);
                    let lhs = self.expr(Ty::Bool, depth - 1);
                    let rhs = self.expr(Ty::Bool, depth - 1);
                    Expr::Logic(op, Box::new(lhs), Box::new(rhs))
                } else if r < 75 {
                    Expr::LNot(Box::new(self.expr(Ty::Bool, depth - 1)))
                } else {
                    self.atom(Ty::Bool)
                }
            }
            Ty::Double => {
                if r < 45 {
                    let op = *self.rng.pick(&[BOp::Add, BOp::Sub, BOp::Mul, BOp::Div]);
                    let lhs = self.expr(Ty::Double, depth - 1);
                    let rhs = self.expr(Ty::Double, depth - 1);
                    Expr::Bin(op, Box::new(lhs), Box::new(rhs))
                } else if r < 52 {
                    Expr::Neg(Box::new(self.expr(Ty::Double, depth - 1)))
                } else if r < 60 {
                    let from = *self.rng.pick(&[Ty::Int, Ty::Long]);
                    Expr::Cast(Ty::Double, Box::new(self.expr(from, depth - 1)))
                } else if r < 66 {
                    Expr::Intr("Math.Sqrt", vec![self.expr(Ty::Double, depth - 1)])
                } else if r < 72 {
                    let c = self.expr(Ty::Bool, depth - 1);
                    let t = self.expr(Ty::Double, depth - 1);
                    let f = self.expr(Ty::Double, depth - 1);
                    Expr::Cond(Box::new(c), Box::new(t), Box::new(f))
                } else if r < 80 && in_run {
                    let idx = self.index(depth);
                    Expr::Elem(Arr::Ad, Box::new(idx))
                } else if r < 86 && in_run {
                    let i = self.masked_idx(depth);
                    let j = self.masked_idx(depth);
                    Expr::RElem(Box::new(i), Box::new(j))
                } else if r < 92 && in_run {
                    let x = self.expr(Ty::Double, depth - 1);
                    let y = self.expr(Ty::Double, depth - 1);
                    Expr::Call(2, vec![x, y])
                } else {
                    self.atom(Ty::Double)
                }
            }
            Ty::Int | Ty::Long => {
                if r < 40 {
                    let op = *self.rng.pick(&[
                        BOp::Add,
                        BOp::Sub,
                        BOp::Mul,
                        BOp::And,
                        BOp::Or,
                        BOp::Xor,
                    ]);
                    let lhs = self.expr(ty, depth - 1);
                    let rhs = self.expr(ty, depth - 1);
                    Expr::Bin(op, Box::new(lhs), Box::new(rhs))
                } else if r < 50 {
                    let op = *self.rng.pick(&[BOp::Div, BOp::Rem]);
                    let lhs = self.expr(ty, depth - 1);
                    let rhs = self.divisor(ty, depth);
                    Expr::Bin(op, Box::new(lhs), Box::new(rhs))
                } else if r < 58 {
                    let op = *self.rng.pick(&[BOp::Shl, BOp::Shr]);
                    let lhs = self.expr(ty, depth - 1);
                    let sh = self.expr(Ty::Int, depth - 1);
                    Expr::Bin(op, Box::new(lhs), Box::new(sh))
                } else if r < 64 {
                    if self.rng.chance(50) {
                        Expr::Neg(Box::new(self.expr(ty, depth - 1)))
                    } else {
                        Expr::BNot(Box::new(self.expr(ty, depth - 1)))
                    }
                } else if r < 70 {
                    let from = match ty {
                        Ty::Int => *self.rng.pick(&[Ty::Long, Ty::Double]),
                        _ => *self.rng.pick(&[Ty::Int, Ty::Double]),
                    };
                    Expr::Cast(ty, Box::new(self.expr(from, depth - 1)))
                } else if r < 76 {
                    let c = self.expr(Ty::Bool, depth - 1);
                    let t = self.expr(ty, depth - 1);
                    let f = self.expr(ty, depth - 1);
                    Expr::Cond(Box::new(c), Box::new(t), Box::new(f))
                } else if r < 82 {
                    let name = *self.rng.pick(&["Math.Abs", "Math.Max", "Math.Min"]);
                    let args = if name == "Math.Abs" {
                        vec![self.expr(ty, depth - 1)]
                    } else {
                        vec![self.expr(ty, depth - 1), self.expr(ty, depth - 1)]
                    };
                    Expr::Intr(name, args)
                } else if in_run && r < 90 {
                    match ty {
                        Ty::Int => {
                            if self.rng.chance(50) {
                                let idx = self.index(depth);
                                Expr::Elem(Arr::Ai, Box::new(idx))
                            } else {
                                let row = self.masked_row();
                                let col = self.jcol(&row, depth);
                                Expr::JElem(Box::new(row), Box::new(col))
                            }
                        }
                        Ty::Long => {
                            let idx = self.index(depth);
                            Expr::Elem(Arr::Al, Box::new(idx))
                        }
                        _ => unreachable!(),
                    }
                } else if in_run && r < 96 {
                    match ty {
                        Ty::Int => {
                            if self.rng.chance(35) {
                                // Bounded recursion: R0((e & 7), x).
                                let n = Expr::Bin(
                                    BOp::And,
                                    Box::new(self.expr(Ty::Int, depth - 1)),
                                    Box::new(Expr::IntLit(7)),
                                );
                                let x = self.expr(Ty::Int, depth - 1);
                                Expr::Call(3, vec![n, x])
                            } else {
                                let x = self.expr(Ty::Int, depth - 1);
                                let y = self.expr(Ty::Int, depth - 1);
                                Expr::Call(0, vec![x, y])
                            }
                        }
                        Ty::Long => {
                            let x = self.expr(Ty::Long, depth - 1);
                            let y = self.expr(Ty::Int, depth - 1);
                            Expr::Call(1, vec![x, y])
                        }
                        _ => unreachable!(),
                    }
                } else {
                    self.atom(ty)
                }
            }
        }
    }

    /// `(e) & 3` — a rectangular-array index, always in bounds.
    fn masked_idx(&mut self, depth: u32) -> Expr {
        let e = self.expr(Ty::Int, depth.saturating_sub(1));
        Expr::Bin(BOp::And, Box::new(e), Box::new(Expr::IntLit(3)))
    }

    // ---- statements ----

    fn block(&mut self, n: usize, nest: u32) -> Vec<Stmt> {
        (0..n).map(|_| self.stmt(nest)).collect()
    }

    fn stmt(&mut self, nest: u32) -> Stmt {
        let r = self.rng.below(100);
        let can_nest = nest < MAX_NEST;
        if r < 22 {
            let ty = *self.rng.pick(&[Ty::Int, Ty::Long, Ty::Double, Ty::Bool]);
            let i = self.rng.below(var_count(ty) as u64) as u8;
            let e = self.expr(ty, MAX_DEPTH);
            if ty != Ty::Bool && self.rng.chance(35) {
                // The lexer only has += -= *= /= %=; stick to the
                // non-trapping three (raw division is exercised elsewhere).
                let op = *self.rng.pick(&[BOp::Add, BOp::Sub, BOp::Mul]);
                Stmt::OpAssign(ty, i, op, e)
            } else {
                Stmt::Assign(ty, i, e)
            }
        } else if r < 27 {
            let f = self.rng.below(3) as u8;
            let ty = [Ty::Int, Ty::Long, Ty::Double][f as usize];
            Stmt::AssignS(f, self.expr(ty, MAX_DEPTH - 1))
        } else if r < 42 {
            let arr = *self.rng.pick(&[Arr::Ai, Arr::Al, Arr::Ad]);
            let idx = self.index(MAX_DEPTH);
            let val = self.expr(arr.ty(), MAX_DEPTH - 1);
            Stmt::Store(arr, idx, val)
        } else if r < 48 {
            let row = self.masked_row();
            let col = self.jcol(&row, MAX_DEPTH);
            let val = self.expr(Ty::Int, MAX_DEPTH - 1);
            Stmt::StoreJ(row, col, val)
        } else if r < 51 {
            Stmt::StoreJRow(self.rng.below(4) as u8, *self.rng.pick(&[2u8, 4, 8, 16]))
        } else if r < 57 {
            let i = self.masked_idx(MAX_DEPTH);
            let j = self.masked_idx(MAX_DEPTH);
            let val = self.expr(Ty::Double, MAX_DEPTH - 1);
            Stmt::StoreR(i, j, val)
        } else if r < 67 && can_nest {
            let c = self.expr(Ty::Bool, MAX_DEPTH - 1);
            let then_n = 1 + self.rng.below(3) as usize;
            let then_s = self.block(then_n, nest + 1);
            let else_s = if self.rng.chance(50) {
                let n = 1 + self.rng.below(2) as usize;
                self.block(n, nest + 1)
            } else {
                Vec::new()
            };
            Stmt::If(c, then_s, else_s)
        } else if r < 76 && can_nest {
            let arr = *self.rng.pick(&[Arr::Ai, Arr::Al, Arr::Ad]);
            self.loop_depth += 1;
            let body_n = 1 + self.rng.below(3) as usize;
            let body = self.block(body_n, nest + 1);
            self.loop_depth -= 1;
            let mutate = if self.rng.chance(30) {
                Some(*self.rng.pick(&[2u8, 4, 8, 16]))
            } else {
                None
            };
            Stmt::ForLen { arr, body, mutate }
        } else if r < 82 && can_nest {
            let arr = *self.rng.pick(&[Arr::Ai, Arr::Al, Arr::Ad]);
            let k = 1 + self.rng.below(3) as u8;
            let shape = match self.rng.below(4) {
                0 => DerivedShape::OffsetPlus(k),
                1 => DerivedShape::OffsetMinus(k),
                2 => DerivedShape::Triangular,
                _ => DerivedShape::HoistedLen,
            };
            let depth = if matches!(shape, DerivedShape::Triangular) { 2 } else { 1 };
            self.loop_depth += depth;
            let body_n = 1 + self.rng.below(2) as usize;
            let body = self.block(body_n, nest + 1);
            self.loop_depth -= depth;
            Stmt::ForDerived { arr, shape, body }
        } else if r < 88 && can_nest {
            let n = 1 + self.rng.below(12) as u8;
            self.loop_depth += 1;
            let body_n = 1 + self.rng.below(3) as usize;
            let mut body = self.block(body_n, nest + 1);
            if self.rng.chance(25) {
                let c = self.expr(Ty::Bool, 2);
                body.push(if self.rng.chance(50) {
                    Stmt::BreakIf(c)
                } else {
                    Stmt::ContinueIf(c)
                });
            }
            self.loop_depth -= 1;
            Stmt::ForCount { n, body }
        } else if r < 93 && can_nest {
            let was_try = self.in_try;
            self.in_try = true;
            let body_n = 1 + self.rng.below(3) as usize;
            let mut body = self.block(body_n, nest + 1);
            if self.rng.chance(30) {
                let c = self.expr(Ty::Bool, 2);
                body.insert(0, Stmt::If(c, vec![Stmt::Throw], Vec::new()));
            }
            self.in_try = was_try;
            let catch = *self.rng.pick(&[
                "Exception",
                "Exception",
                "DivideByZeroException",
                "IndexOutOfRangeException",
            ]);
            let handler = self.block(1, nest + 1);
            let fin = if self.rng.chance(35) {
                let f = self.block(1, nest + 1);
                Some(f)
            } else {
                None
            };
            Stmt::TryCatch { body, catch, handler, fin }
        } else if r < 95 {
            let ty = *self.rng.pick(&[Ty::Int, Ty::Long, Ty::Double]);
            Stmt::Print(ty, self.expr(ty, MAX_DEPTH - 1))
        } else {
            let x = self.expr(Ty::Int, 2);
            let y = self.expr(Ty::Int, 2);
            Stmt::CallStmt(0, vec![x, y])
        }
    }
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

struct Render {
    out: String,
    indent: usize,
    /// Names of enclosing loop index variables, innermost last.
    loops: Vec<String>,
    next_loop: u32,
    next_catch: u32,
}

impl Render {
    fn line(&mut self, s: &str) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
        self.out.push_str(s);
        self.out.push('\n');
    }

    fn fresh_loop(&mut self) -> String {
        let n = self.next_loop;
        self.next_loop += 1;
        format!("i{n}")
    }
}

fn int_lit(v: i32) -> String {
    if v == i32::MIN {
        "(-2147483647 - 1)".to_string()
    } else if v < 0 {
        format!("({v})")
    } else {
        v.to_string()
    }
}

fn long_lit(v: i64) -> String {
    if v == i64::MIN {
        "(-9223372036854775807L - 1L)".to_string()
    } else if v < 0 {
        format!("({v}L)")
    } else {
        format!("{v}L")
    }
}

fn dbl_lit(v: f64) -> String {
    if v < 0.0 {
        format!("({v:?})")
    } else {
        format!("{v:?}")
    }
}

fn ty_src(ty: Ty) -> &'static str {
    match ty {
        Ty::Int => "int",
        Ty::Long => "long",
        Ty::Double => "double",
        Ty::Bool => "bool",
    }
}

fn expr_src(e: &Expr, r: &Render) -> String {
    match e {
        Expr::IntLit(v) => int_lit(*v),
        Expr::LongLit(v) => long_lit(*v),
        Expr::DblLit(v) => dbl_lit(*v),
        Expr::BoolLit(b) => b.to_string(),
        Expr::Var(ty, i) => var_name(*ty, *i),
        Expr::SField(0) => "sI".into(),
        Expr::SField(1) => "sL".into(),
        Expr::SField(_) => "sD".into(),
        Expr::ArgA => "a".into(),
        Expr::ArgB => "b".into(),
        Expr::Param(0) => "x".into(),
        Expr::Param(_) => "y".into(),
        Expr::LoopIdx(rel) => {
            let n = r.loops.len();
            match n.checked_sub(1 + *rel as usize) {
                Some(k) => r.loops[k].clone(),
                // Shrinking can strip the enclosing loop; degrade to 0.
                None => "0".into(),
            }
        }
        Expr::Elem(arr, idx) => format!("{}[{}]", arr.name(), expr_src(idx, r)),
        Expr::JElem(row, col) => {
            format!("jj[{}][{}]", expr_src(row, r), expr_src(col, r))
        }
        Expr::RElem(i, j) => format!("rr[{}, {}]", expr_src(i, r), expr_src(j, r)),
        Expr::Len(arr) => format!("{}.Length", arr.name()),
        Expr::JLen(row) => format!("jj[{}].Length", expr_src(row, r)),
        Expr::RLen(d) => format!("rr.GetLength({d})"),
        Expr::Bin(op, lhs, rhs) => {
            format!("({} {} {})", expr_src(lhs, r), op.src(), expr_src(rhs, r))
        }
        Expr::Neg(x) => format!("(-{})", expr_src(x, r)),
        Expr::BNot(x) => format!("(~{})", expr_src(x, r)),
        Expr::LNot(x) => format!("(!{})", expr_src(x, r)),
        Expr::Cmp(op, lhs, rhs) => {
            format!("({} {} {})", expr_src(lhs, r), op, expr_src(rhs, r))
        }
        Expr::Logic(op, lhs, rhs) => {
            format!("({} {} {})", expr_src(lhs, r), op, expr_src(rhs, r))
        }
        Expr::Cond(c, t, f) => format!(
            "({} ? {} : {})",
            expr_src(c, r),
            expr_src(t, r),
            expr_src(f, r)
        ),
        Expr::Cast(ty, x) => format!("(({}){})", ty_src(*ty), expr_src(x, r)),
        Expr::Call(h, args) => {
            let name = ["H0", "H1", "H2", "R0"][*h as usize];
            let a: Vec<String> = args.iter().map(|x| expr_src(x, r)).collect();
            format!("{name}({})", a.join(", "))
        }
        Expr::Intr(name, args) => {
            let a: Vec<String> = args.iter().map(|x| expr_src(x, r)).collect();
            format!("{name}({})", a.join(", "))
        }
    }
}

fn stmt_src(s: &Stmt, r: &mut Render) {
    match s {
        Stmt::Assign(ty, i, e) => {
            let line = format!("{} = {};", var_name(*ty, *i), expr_src(e, r));
            r.line(&line);
        }
        Stmt::OpAssign(ty, i, op, e) => {
            let line = format!("{} {}= {};", var_name(*ty, *i), op.src(), expr_src(e, r));
            r.line(&line);
        }
        Stmt::AssignS(f, e) => {
            let name = ["sI", "sL", "sD"][*f as usize];
            let line = format!("{name} = {};", expr_src(e, r));
            r.line(&line);
        }
        Stmt::Store(arr, idx, val) => {
            let line = format!(
                "{}[{}] = {};",
                arr.name(),
                expr_src(idx, r),
                expr_src(val, r)
            );
            r.line(&line);
        }
        Stmt::StoreJ(row, col, val) => {
            let line = format!(
                "jj[{}][{}] = {};",
                expr_src(row, r),
                expr_src(col, r),
                expr_src(val, r)
            );
            r.line(&line);
        }
        Stmt::StoreJRow(row, len) => {
            let line = format!("jj[{row}] = new int[{len}];");
            r.line(&line);
        }
        Stmt::StoreR(i, j, val) => {
            let line = format!(
                "rr[{}, {}] = {};",
                expr_src(i, r),
                expr_src(j, r),
                expr_src(val, r)
            );
            r.line(&line);
        }
        Stmt::If(c, t, e) => {
            let line = format!("if ({}) {{", expr_src(c, r));
            r.line(&line);
            r.indent += 1;
            for s in t {
                stmt_src(s, r);
            }
            r.indent -= 1;
            if e.is_empty() {
                r.line("}");
            } else {
                r.line("} else {");
                r.indent += 1;
                for s in e {
                    stmt_src(s, r);
                }
                r.indent -= 1;
                r.line("}");
            }
        }
        Stmt::ForLen { arr, body, mutate } => {
            let iv = r.fresh_loop();
            let line = format!(
                "for (int {iv} = 0; {iv} < {}.Length; {iv}++) {{",
                arr.name()
            );
            r.line(&line);
            r.indent += 1;
            r.loops.push(iv.clone());
            for s in body {
                stmt_src(s, r);
            }
            if let Some(len) = mutate {
                let line = format!(
                    "if ({iv} == 2) {{ {} = new {}[{len}]; }}",
                    arr.name(),
                    arr.elem_src_ty()
                );
                r.line(&line);
            }
            r.loops.pop();
            r.indent -= 1;
            r.line("}");
        }
        Stmt::ForCount { n, body } => {
            let iv = r.fresh_loop();
            let line = format!("for (int {iv} = 0; {iv} < {n}; {iv}++) {{");
            r.line(&line);
            r.indent += 1;
            r.loops.push(iv.clone());
            for s in body {
                stmt_src(s, r);
            }
            r.loops.pop();
            r.indent -= 1;
            r.line("}");
        }
        Stmt::ForDerived { arr, shape, body } => {
            let a = arr.name();
            let iv = r.fresh_loop();
            let close = |r: &mut Render| {
                r.loops.pop();
                r.indent -= 1;
                r.line("}");
            };
            match shape {
                DerivedShape::OffsetPlus(k) => {
                    let line =
                        format!("for (int {iv} = 0; {iv} < {a}.Length - {k}; {iv}++) {{");
                    r.line(&line);
                    r.indent += 1;
                    r.loops.push(iv.clone());
                    for s in body {
                        stmt_src(s, r);
                    }
                    let line = format!("{a}[{iv} + {k}] = {a}[{iv} + {k}] + {a}[{iv}];");
                    r.line(&line);
                    close(r);
                }
                DerivedShape::OffsetMinus(k) => {
                    let line = format!("for (int {iv} = {k}; {iv} < {a}.Length; {iv}++) {{");
                    r.line(&line);
                    r.indent += 1;
                    r.loops.push(iv.clone());
                    for s in body {
                        stmt_src(s, r);
                    }
                    let line = format!("{a}[{iv} - {k}] = {a}[{iv} - {k}] + {a}[{iv}];");
                    r.line(&line);
                    close(r);
                }
                DerivedShape::Triangular => {
                    let jv = r.fresh_loop();
                    let line = format!("for (int {iv} = 0; {iv} < {a}.Length; {iv}++) {{");
                    r.line(&line);
                    r.indent += 1;
                    r.loops.push(iv.clone());
                    let line = format!("for (int {jv} = 0; {jv} < {iv}; {jv}++) {{");
                    r.line(&line);
                    r.indent += 1;
                    r.loops.push(jv.clone());
                    for s in body {
                        stmt_src(s, r);
                    }
                    let line = format!("{a}[{jv}] = {a}[{jv}] + {a}[{iv}];");
                    r.line(&line);
                    close(r);
                    close(r);
                }
                DerivedShape::HoistedLen => {
                    let line = format!("int {iv}n = {a}.Length;");
                    r.line(&line);
                    let line = format!("for (int {iv} = 0; {iv} < {iv}n; {iv}++) {{");
                    r.line(&line);
                    r.indent += 1;
                    r.loops.push(iv.clone());
                    for s in body {
                        stmt_src(s, r);
                    }
                    let line = format!("{a}[{iv}] = {a}[{iv}] + {a}[{iv}];");
                    r.line(&line);
                    close(r);
                }
            }
        }
        Stmt::TryCatch { body, catch, handler, fin } => {
            r.line("try {");
            r.indent += 1;
            for s in body {
                stmt_src(s, r);
            }
            r.indent -= 1;
            let ex = r.next_catch;
            r.next_catch += 1;
            let line = format!("}} catch ({catch} ex{ex}) {{");
            r.line(&line);
            r.indent += 1;
            for s in handler {
                stmt_src(s, r);
            }
            r.indent -= 1;
            if let Some(f) = fin {
                r.line("} finally {");
                r.indent += 1;
                for s in f {
                    stmt_src(s, r);
                }
                r.indent -= 1;
            }
            r.line("}");
        }
        Stmt::Throw => r.line("throw new Exception();"),
        Stmt::BreakIf(c) => {
            let line = format!("if ({}) {{ break; }}", expr_src(c, r));
            r.line(&line);
        }
        Stmt::ContinueIf(c) => {
            let line = format!("if ({}) {{ continue; }}", expr_src(c, r));
            r.line(&line);
        }
        Stmt::Print(ty, e) => {
            let line = match ty {
                Ty::Double => format!("Console.WriteLine({});", expr_src(e, r)),
                Ty::Long => format!("Console.WriteLine(\"L:\" + {});", expr_src(e, r)),
                _ => format!("Console.WriteLine(\"I:\" + {});", expr_src(e, r)),
            };
            r.line(&line);
        }
        Stmt::CallStmt(h, args) => {
            let name = ["H0", "H1", "H2", "R0"][*h as usize];
            let a: Vec<String> = args.iter().map(|x| expr_src(x, r)).collect();
            let line = format!("{name}({});", a.join(", "));
            r.line(&line);
        }
    }
}

/// Render a program to MiniC# source.
pub fn render(p: &Program) -> String {
    let mut r = Render {
        out: String::new(),
        indent: 0,
        loops: Vec::new(),
        next_loop: 0,
        next_catch: 0,
    };
    r.line(&format!("// conform seed {}", p.seed));
    r.line("class Gen {");
    r.indent = 1;
    r.line(&format!("static int sI = {};", int_lit(p.s_init.0)));
    r.line(&format!("static long sL = {};", long_lit(p.s_init.1)));
    r.line(&format!("static double sD = {};", dbl_lit(p.s_init.2)));
    let h0 = expr_src(&p.helper_bodies[0], &r);
    r.line(&format!("static int H0(int x, int y) {{ return {h0}; }}"));
    let h1 = expr_src(&p.helper_bodies[1], &r);
    r.line(&format!("static long H1(long x, int y) {{ return {h1}; }}"));
    let h2 = expr_src(&p.helper_bodies[2], &r);
    r.line(&format!("static double H2(double x, double y) {{ return {h2}; }}"));
    r.line("static int R0(int n, int x) {");
    r.indent = 2;
    r.line("if (n < 1) { return x; }");
    r.line(&format!("return (R0((n - 1), (x + {})) ^ n);", int_lit(p.rec_const)));
    r.indent = 1;
    r.line("}");
    r.line("static long Run(int a, int b) {");
    r.indent = 2;
    for i in 0..INT_VARS {
        r.line(&format!("int v{i} = {};", int_lit([3, -2, 11][i as usize])));
    }
    for i in 0..LONG_VARS {
        r.line(&format!("long w{i} = {};", long_lit([5, -17][i as usize])));
    }
    for i in 0..DBL_VARS {
        r.line(&format!("double d{i} = {};", dbl_lit([1.5, -0.25][i as usize])));
    }
    for i in 0..BOOL_VARS {
        r.line(&format!("bool b{i} = {};", i == 0));
    }
    r.line("int[] ai = new int[8];");
    r.line("long[] al = new long[8];");
    r.line("double[] ad = new double[8];");
    r.line("int[][] jj = new int[4][];");
    r.line("for (int p0 = 0; p0 < jj.Length; p0++) { jj[p0] = new int[8]; }");
    r.line("double[,] rr = new double[4, 4];");
    // Flow the inputs into the state so they matter.
    r.line("v0 = a;");
    r.line("v1 = b;");
    r.line("ai[0] = a;");
    r.line("ai[1] = b;");
    r.line("w0 = ((long)a * (long)b);");
    r.line("d0 = ((double)a * 0.5);");
    for s in &p.stmts {
        stmt_src(s, &mut r);
    }
    // Checksum epilogue: deterministic fold of the whole final state.
    r.line("long chk = 0L;");
    r.line("double dsum = 0.0;");
    r.line("for (int c0 = 0; c0 < ai.Length; c0++) { chk = ((chk * 31L) + (long)ai[c0]); }");
    r.line("for (int c1 = 0; c1 < al.Length; c1++) { chk = ((chk * 31L) + al[c1]); }");
    r.line("for (int c2 = 0; c2 < ad.Length; c2++) { dsum = (dsum + ad[c2]); }");
    r.line("for (int c3 = 0; c3 < jj.Length; c3++) {");
    r.indent = 3;
    r.line("for (int c4 = 0; c4 < jj[c3].Length; c4++) { chk = ((chk * 31L) + (long)jj[c3][c4]); }");
    r.indent = 2;
    r.line("}");
    r.line("for (int c5 = 0; c5 < rr.GetLength(0); c5++) {");
    r.indent = 3;
    r.line("for (int c6 = 0; c6 < rr.GetLength(1); c6++) { dsum = (dsum + rr[c5, c6]); }");
    r.indent = 2;
    r.line("}");
    for i in 0..INT_VARS {
        r.line(&format!("chk = ((chk * 31L) + (long)v{i});"));
    }
    for i in 0..LONG_VARS {
        r.line(&format!("chk = ((chk * 31L) + w{i});"));
    }
    for i in 0..DBL_VARS {
        r.line(&format!("dsum = (dsum + d{i});"));
    }
    for i in 0..BOOL_VARS {
        r.line(&format!("chk = (chk ^ (b{i} ? {}L : 0L));", 1 << (i + 1)));
    }
    r.line("chk = ((chk * 31L) + (long)sI);");
    r.line("chk = ((chk * 31L) + sL);");
    r.line("dsum = (dsum + sD);");
    r.line("Console.WriteLine(dsum);");
    r.line("return chk;");
    r.indent = 1;
    r.line("}");
    r.indent = 0;
    r.line("}");
    r.out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
            let a = render(&generate(seed));
            let b = render(&generate(seed));
            assert_eq!(a, b, "seed {seed} not deterministic");
        }
    }

    #[test]
    fn seeds_differ() {
        assert_ne!(render(&generate(1)), render(&generate(2)));
    }

    #[test]
    fn literals_render_at_edges() {
        assert_eq!(int_lit(i32::MIN), "(-2147483647 - 1)");
        assert_eq!(long_lit(i64::MIN), "(-9223372036854775807L - 1L)");
        assert_eq!(int_lit(-3), "(-3)");
        assert_eq!(dbl_lit(0.5), "0.5");
        assert_eq!(dbl_lit(1000000.0), "1000000.0");
    }
}
