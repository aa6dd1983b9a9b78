//! MiniC# abstract syntax tree.
//!
//! Every name in the tree — class, base, field, method, parameter, local
//! and referenced identifier — borrows the source text it was parsed
//! from, so a tree lives no longer than that text.

use crate::lexer::Pos;

/// A surface type.
#[derive(Clone, Debug, PartialEq)]
pub enum Ty<'src> {
    Void,
    /// The type of the `null` literal (internal to the checker; no
    /// surface syntax produces it).
    Null,
    Bool,
    Int,
    Long,
    Float,
    Double,
    Str,
    Object,
    /// A user class, by name (resolved at codegen).
    Class(&'src str),
    /// `T[]`.
    Array(Box<Ty<'src>>),
    /// `T[,]` / `T[,,]`.
    Multi(Box<Ty<'src>>, u8),
}

impl<'src> Ty<'src> {
    pub fn array_of(self) -> Ty<'src> {
        Ty::Array(Box::new(self))
    }
}

/// Method dispatch kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MKind {
    Static,
    Instance,
    Virtual,
    Override,
    Ctor,
}

/// Binary operators (surface level; `&&`/`||` short-circuit).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinKind {
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
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    AndAnd,
    OrOr,
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnKind {
    Neg,
    Not,
    BitNot,
}

/// Expressions.
#[derive(Clone, Debug)]
pub enum Expr<'src> {
    Int(i32),
    Long(i64),
    Float(f32),
    Double(f64),
    Bool(bool),
    Str(String),
    Null,
    This(Pos),
    /// Unqualified name: local, parameter, field of `this`, or static
    /// field of the enclosing class — resolved at codegen.
    Ident(&'src str, Pos),
    /// `expr.name` — instance field, `arr.Length`, or `Class.staticField`
    /// when `obj` is a class name.
    Field {
        obj: Box<Expr<'src>>,
        name: &'src str,
        pos: Pos,
    },
    /// `a[i]` (SZ) or `a[i,j]` (multidimensional).
    Index {
        arr: Box<Expr<'src>>,
        idxs: Vec<Expr<'src>>,
        pos: Pos,
    },
    /// `name(args)`, `expr.name(args)`, `Class.Name(args)`.
    Call {
        target: Option<Box<Expr<'src>>>,
        name: &'src str,
        args: Vec<Expr<'src>>,
        pos: Pos,
    },
    New {
        class: &'src str,
        args: Vec<Expr<'src>>,
        pos: Pos,
    },
    /// `new T[n]`, `new T[n][]` (jagged spine), `new T[n,m]`.
    NewArray {
        elem: Ty<'src>,
        dims: Vec<Expr<'src>>,
        /// Trailing `[]` pairs: `new int[n][]` has 1.
        extra_ranks: u8,
        pos: Pos,
    },
    Cast {
        ty: Ty<'src>,
        expr: Box<Expr<'src>>,
        pos: Pos,
    },
    Un {
        op: UnKind,
        expr: Box<Expr<'src>>,
        pos: Pos,
    },
    Bin {
        op: BinKind,
        lhs: Box<Expr<'src>>,
        rhs: Box<Expr<'src>>,
        pos: Pos,
    },
    /// Ternary `c ? a : b`.
    Cond {
        cond: Box<Expr<'src>>,
        then: Box<Expr<'src>>,
        els: Box<Expr<'src>>,
        pos: Pos,
    },
    /// A hidden local of codegen's own, holding an address part that the
    /// compound-assignment desugaring evaluates once; the parser never
    /// produces one.
    Temp {
        slot: u16,
        ty: Ty<'src>,
    },
}

impl Expr<'_> {
    pub fn pos(&self) -> Pos {
        match self {
            Expr::This(p) | Expr::Ident(_, p) => *p,
            Expr::Field { pos, .. }
            | Expr::Index { pos, .. }
            | Expr::Call { pos, .. }
            | Expr::New { pos, .. }
            | Expr::NewArray { pos, .. }
            | Expr::Cast { pos, .. }
            | Expr::Un { pos, .. }
            | Expr::Bin { pos, .. }
            | Expr::Cond { pos, .. } => *pos,
            _ => Pos { line: 0, col: 0 },
        }
    }
}

/// Statements.
#[derive(Clone, Debug)]
pub enum Stmt<'src> {
    Local {
        ty: Ty<'src>,
        name: &'src str,
        init: Option<Expr<'src>>,
        pos: Pos,
    },
    /// Expression statement (a call).
    Expr(Expr<'src>),
    Assign {
        target: Expr<'src>,
        /// `Some(op)` for compound assignment (`+=` etc.).
        op: Option<BinKind>,
        value: Expr<'src>,
        pos: Pos,
    },
    /// `i++;` / `--i;` (value unused).
    IncDec {
        target: Expr<'src>,
        inc: bool,
        pos: Pos,
    },
    If {
        cond: Expr<'src>,
        then: Vec<Stmt<'src>>,
        els: Option<Vec<Stmt<'src>>>,
    },
    While {
        cond: Expr<'src>,
        body: Vec<Stmt<'src>>,
    },
    DoWhile {
        body: Vec<Stmt<'src>>,
        cond: Expr<'src>,
    },
    For {
        init: Option<Box<Stmt<'src>>>,
        cond: Option<Expr<'src>>,
        update: Option<Box<Stmt<'src>>>,
        body: Vec<Stmt<'src>>,
    },
    Break(Pos),
    Continue(Pos),
    Return(Option<Expr<'src>>, Pos),
    Throw(Expr<'src>, Pos),
    Try {
        body: Vec<Stmt<'src>>,
        /// `(exception class, binding name, handler)`
        catch: Option<(&'src str, &'src str, Vec<Stmt<'src>>)>,
        finally: Option<Vec<Stmt<'src>>>,
    },
    /// `lock (expr) { ... }` — sugar for Monitor.Enter/try/finally/Exit.
    Lock {
        obj: Expr<'src>,
        body: Vec<Stmt<'src>>,
        pos: Pos,
    },
    Block(Vec<Stmt<'src>>),
}

/// A field declaration.
#[derive(Clone, Debug)]
pub struct FieldDecl<'src> {
    pub name: &'src str,
    pub ty: Ty<'src>,
    pub is_static: bool,
    /// Static-field initializer (collected into the synthetic
    /// `$Startup.Init` method).
    pub init: Option<Expr<'src>>,
    pub pos: Pos,
}

/// A method declaration.
#[derive(Clone, Debug)]
pub struct MethodDecl<'src> {
    pub name: &'src str,
    pub params: Vec<(Ty<'src>, &'src str)>,
    pub ret: Ty<'src>,
    pub kind: MKind,
    pub body: Vec<Stmt<'src>>,
    pub pos: Pos,
}

/// A class declaration.
#[derive(Clone, Debug)]
pub struct ClassDecl<'src> {
    pub name: &'src str,
    pub base: Option<&'src str>,
    pub fields: Vec<FieldDecl<'src>>,
    pub methods: Vec<MethodDecl<'src>>,
    pub pos: Pos,
}

/// A compilation unit.
#[derive(Clone, Debug, Default)]
pub struct Program<'src> {
    pub classes: Vec<ClassDecl<'src>>,
}
