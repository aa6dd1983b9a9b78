//! MiniC# abstract syntax tree.
//!
//! Every name in the tree — class, base, field, method, parameter, local
//! and referenced identifier — borrows the source text it was parsed
//! from, so a tree lives no longer than that text. Expressions and
//! statements are held in index arenas of the [`Program`], not one heap
//! block per node.

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

/// An expression: its index in [`Program`]'s expression arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExprId(u32);

/// A statement: its index in [`Program`]'s statement arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StmtId(u32);

/// An argument, index or dimension list: a run of [`Program`]'s
/// expression-list vector, read with [`Program::exprs`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Exprs {
    start: u32,
    len: u32,
}

impl Exprs {
    pub fn len(self) -> usize {
        self.len as usize
    }

    pub fn is_empty(self) -> bool {
        self.len == 0
    }
}

/// A block's statements: a run of [`Program`]'s statement-list vector,
/// read with [`Program::block`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Block {
    start: u32,
    len: u32,
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
        obj: ExprId,
        name: &'src str,
        pos: Pos,
    },
    /// `a[i]` (SZ) or `a[i,j]` (multidimensional).
    Index {
        arr: ExprId,
        idxs: Exprs,
        pos: Pos,
    },
    /// `name(args)`, `expr.name(args)`, `Class.Name(args)`.
    Call {
        target: Option<ExprId>,
        name: &'src str,
        args: Exprs,
        pos: Pos,
    },
    New {
        class: &'src str,
        args: Exprs,
        pos: Pos,
    },
    /// `new T[n]`, `new T[n][]` (jagged spine), `new T[n,m]`.
    NewArray {
        /// The type of the whole expression: `T[]` with `extra_ranks`
        /// more `[]` inside for one dimension, else `T[,…]`.
        ty: Ty<'src>,
        dims: Exprs,
        /// Trailing `[]` pairs: `new int[n][]` has 1.
        extra_ranks: u8,
        pos: Pos,
    },
    Cast {
        ty: Ty<'src>,
        expr: ExprId,
        pos: Pos,
    },
    Un {
        op: UnKind,
        expr: ExprId,
        pos: Pos,
    },
    Bin {
        op: BinKind,
        lhs: ExprId,
        rhs: ExprId,
        pos: Pos,
    },
    /// Ternary `c ? a : b`.
    Cond {
        cond: ExprId,
        then: ExprId,
        els: ExprId,
        pos: Pos,
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
        init: Option<ExprId>,
        pos: Pos,
    },
    /// Expression statement (a call).
    Expr(ExprId),
    Assign {
        target: ExprId,
        /// `Some(op)` for compound assignment (`+=` etc.).
        op: Option<BinKind>,
        value: ExprId,
        pos: Pos,
    },
    /// `i++;` / `--i;` (value unused).
    IncDec {
        target: ExprId,
        inc: bool,
        pos: Pos,
    },
    If {
        cond: ExprId,
        then: Block,
        els: Option<Block>,
    },
    While {
        cond: ExprId,
        body: Block,
    },
    DoWhile {
        body: Block,
        cond: ExprId,
    },
    For {
        init: Option<StmtId>,
        cond: Option<ExprId>,
        update: Option<StmtId>,
        body: Block,
    },
    Break(Pos),
    Continue(Pos),
    Return(Option<ExprId>, Pos),
    Throw(ExprId, Pos),
    Try {
        body: Block,
        /// `(exception class, binding name, handler)`
        catch: Option<(&'src str, &'src str, Block)>,
        finally: Option<Block>,
    },
    /// `lock (expr) { ... }` — sugar for Monitor.Enter/try/finally/Exit.
    Lock {
        obj: ExprId,
        body: Block,
        pos: Pos,
    },
    Block(Block),
}

/// A field declaration.
#[derive(Clone, Debug)]
pub struct FieldDecl<'src> {
    pub name: &'src str,
    pub ty: Ty<'src>,
    pub is_static: bool,
    /// Static-field initializer (collected into the synthetic
    /// `$Startup.Init` method).
    pub init: Option<ExprId>,
    pub pos: Pos,
}

/// A method declaration.
#[derive(Clone, Debug)]
pub struct MethodDecl<'src> {
    pub name: &'src str,
    pub params: Vec<(Ty<'src>, &'src str)>,
    pub ret: Ty<'src>,
    pub kind: MKind,
    pub body: Block,
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

/// A compilation unit. Its expressions and statements live in arenas it
/// owns, and a node names its children by index, so the tree is a handful
/// of vectors however many nodes it has; the accessors below read it.
#[derive(Clone, Debug, Default)]
pub struct Program<'src> {
    pub classes: Vec<ClassDecl<'src>>,
    exprs: Vec<Expr<'src>>,
    stmts: Vec<Stmt<'src>>,
    /// Every argument, index and dimension list, each a contiguous run.
    expr_lists: Vec<ExprId>,
    /// Every block's statements, each a contiguous run.
    stmt_lists: Vec<StmtId>,
}

impl<'src> Program<'src> {
    /// An empty program whose arenas hold about what `tokens` tokens of
    /// source parse into without growing.
    pub(crate) fn with_capacity(tokens: usize) -> Program<'src> {
        Program {
            classes: Vec::new(),
            exprs: Vec::with_capacity(tokens / 2),
            stmts: Vec::with_capacity(tokens / 6),
            expr_lists: Vec::with_capacity(tokens / 8),
            stmt_lists: Vec::with_capacity(tokens / 6),
        }
    }

    pub fn expr(&self, id: ExprId) -> &Expr<'src> {
        &self.exprs[id.0 as usize]
    }

    pub fn stmt(&self, id: StmtId) -> &Stmt<'src> {
        &self.stmts[id.0 as usize]
    }

    pub fn exprs(&self, list: Exprs) -> &[ExprId] {
        &self.expr_lists[list.start as usize..][..list.len as usize]
    }

    pub fn block(&self, block: Block) -> &[StmtId] {
        &self.stmt_lists[block.start as usize..][..block.len as usize]
    }

    pub(crate) fn push_expr(&mut self, e: Expr<'src>) -> ExprId {
        self.exprs.push(e);
        ExprId(self.exprs.len() as u32 - 1)
    }

    pub(crate) fn push_stmt(&mut self, s: Stmt<'src>) -> StmtId {
        self.stmts.push(s);
        StmtId(self.stmts.len() as u32 - 1)
    }

    /// Move the ids `pending[from..]` into one list.
    pub(crate) fn expr_list(&mut self, pending: &mut Vec<ExprId>, from: usize) -> Exprs {
        let start = self.expr_lists.len() as u32;
        self.expr_lists.extend(pending.drain(from..));
        Exprs {
            start,
            len: self.expr_lists.len() as u32 - start,
        }
    }

    /// Move the ids `pending[from..]` into one block.
    pub(crate) fn block_of(&mut self, pending: &mut Vec<StmtId>, from: usize) -> Block {
        let start = self.stmt_lists.len() as u32;
        self.stmt_lists.extend(pending.drain(from..));
        Block {
            start,
            len: self.stmt_lists.len() as u32 - start,
        }
    }
}
