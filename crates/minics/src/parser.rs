//! MiniC# recursive-descent parser.
//!
//! Names move from the tokens into the tree as `&'src str` borrows of the
//! source. Nodes go into the [`Program`]'s arenas; a child list is
//! gathered on a stack shared by the whole parse and moved into the
//! program's list vector when it ends, so a list costs no block of its own.

use crate::ast::*;
use crate::lexer::{lex, Pos, Tok, Token};
use std::fmt;

/// Parse error with position.
#[derive(Debug, Clone)]
pub struct ParseError {
    pub pos: Pos,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse a full compilation unit.
pub fn parse(src: &str) -> Result<Program<'_>, ParseError> {
    let tokens = lex(src).map_err(|e| ParseError {
        pos: e.pos,
        message: e.message,
    })?;
    let prog = Program::with_capacity(tokens.len());
    let mut p = Parser { tokens, at: 0, prog, exprs: Vec::new(), stmts: Vec::new() };
    while !p.check(&Tok::Eof) {
        let class = p.class_decl()?;
        p.prog.classes.push(class);
    }
    Ok(p.prog)
}

struct Parser<'src> {
    tokens: Vec<Token<'src>>,
    at: usize,
    prog: Program<'src>,
    /// Ids of the lists being parsed, innermost last.
    exprs: Vec<ExprId>,
    stmts: Vec<StmtId>,
}

impl<'src> Parser<'src> {
    fn peek(&self) -> &Tok<'src> {
        &self.tokens[self.at].tok
    }

    fn peek2(&self) -> &Tok<'src> {
        &self.tokens[(self.at + 1).min(self.tokens.len() - 1)].tok
    }

    fn pos(&self) -> Pos {
        self.tokens[self.at].pos
    }

    /// Consume the token at the cursor, moving it out: the parser never
    /// reads a consumed token again. The final `Eof` is never passed, so
    /// it reads as `Eof` however often it is consumed.
    fn bump(&mut self) -> Tok<'src> {
        let t = std::mem::replace(&mut self.tokens[self.at].tok, Tok::Eof);
        self.advance();
        t
    }

    fn advance(&mut self) {
        if self.at + 1 < self.tokens.len() {
            self.at += 1;
        }
    }

    fn check(&self, t: &Tok) -> bool {
        self.peek() == t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.check(t) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok) -> Result<(), ParseError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(format!("expected {t:?}, found {}", self.peek())))
        }
    }

    fn err(&self, message: String) -> ParseError {
        ParseError {
            pos: self.pos(),
            message,
        }
    }

    fn ident(&mut self) -> Result<&'src str, ParseError> {
        if let Tok::Ident(s) = self.tokens[self.at].tok {
            self.advance();
            return Ok(s);
        }
        Err(self.err(format!("expected identifier, found {}", self.peek())))
    }

    // ---- declarations ----

    fn class_decl(&mut self) -> Result<ClassDecl<'src>, ParseError> {
        let pos = self.pos();
        self.expect(&Tok::Class)?;
        let name = self.ident()?;
        let base = if self.eat(&Tok::Colon) {
            Some(self.ident()?)
        } else {
            None
        };
        self.expect(&Tok::LBrace)?;
        let mut fields = Vec::new();
        let mut methods = Vec::new();
        while !self.eat(&Tok::RBrace) {
            self.member(name, &mut fields, &mut methods)?;
        }
        Ok(ClassDecl {
            name,
            base,
            fields,
            methods,
            pos,
        })
    }

    fn member(
        &mut self,
        class_name: &str,
        fields: &mut Vec<FieldDecl<'src>>,
        methods: &mut Vec<MethodDecl<'src>>,
    ) -> Result<(), ParseError> {
        let pos = self.pos();
        let mut is_static = false;
        let mut kind_mod: Option<MKind> = None;
        loop {
            if self.eat(&Tok::Static) {
                is_static = true;
            } else if self.eat(&Tok::Virtual) {
                kind_mod = Some(MKind::Virtual);
            } else if self.eat(&Tok::Override) {
                kind_mod = Some(MKind::Override);
            } else {
                break;
            }
        }
        // Constructor: `ClassName(...)`.
        if let Tok::Ident(id) = self.peek() {
            if *id == class_name && self.peek2() == &Tok::LParen {
                self.bump();
                let params = self.params()?;
                let body = self.block()?;
                methods.push(MethodDecl {
                    name: ".ctor",
                    params,
                    ret: Ty::Void,
                    kind: MKind::Ctor,
                    body,
                    pos,
                });
                return Ok(());
            }
        }
        let ty = self.ty()?;
        let name = self.ident()?;
        if self.check(&Tok::LParen) {
            let params = self.params()?;
            let body = self.block()?;
            let kind = kind_mod.unwrap_or(if is_static {
                MKind::Static
            } else {
                MKind::Instance
            });
            if is_static && kind_mod.is_some() {
                return Err(self.err("static methods cannot be virtual/override".into()));
            }
            methods.push(MethodDecl {
                name,
                params,
                ret: ty,
                kind,
                body,
                pos,
            });
        } else {
            // Field (possibly several: `int a, b;`), with optional
            // initializer for statics, checked once the list has parsed.
            let first = fields.len();
            let mut name = name;
            loop {
                let init = if self.eat(&Tok::Assign) {
                    Some(self.expr()?)
                } else {
                    None
                };
                let ty = ty.clone();
                fields.push(FieldDecl { name, ty, is_static, init, pos });
                if !self.eat(&Tok::Comma) {
                    break;
                }
                name = self.ident()?;
            }
            self.expect(&Tok::Semi)?;
            if let Some(f) = fields[first..].iter().find(|f| f.init.is_some() && !is_static) {
                return Err(ParseError {
                    pos,
                    message: format!(
                        "instance field {} cannot have an initializer (assign in the constructor)",
                        f.name
                    ),
                });
            }
        }
        Ok(())
    }

    fn params(&mut self) -> Result<Vec<(Ty<'src>, &'src str)>, ParseError> {
        self.expect(&Tok::LParen)?;
        let mut out = Vec::new();
        if !self.check(&Tok::RParen) {
            loop {
                let ty = self.ty()?;
                let name = self.ident()?;
                out.push((ty, name));
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen)?;
        Ok(out)
    }

    /// Parse a type, including array suffixes.
    fn ty(&mut self) -> Result<Ty<'src>, ParseError> {
        let base = match self.bump() {
            Tok::Void => Ty::Void,
            Tok::BoolKw => Ty::Bool,
            Tok::IntKw => Ty::Int,
            Tok::LongKw => Ty::Long,
            Tok::FloatKw => Ty::Float,
            Tok::DoubleKw => Ty::Double,
            Tok::StringKw => Ty::Str,
            Tok::ObjectKw => Ty::Object,
            Tok::Ident(s) => Ty::Class(s),
            other => return Err(self.err(format!("expected type, found {other}"))),
        };
        self.array_suffix(base)
    }

    fn array_suffix(&mut self, mut ty: Ty<'src>) -> Result<Ty<'src>, ParseError> {
        while self.check(&Tok::LBracket) {
            // Distinguish `[]` / `[,]` / `[,,]`.
            self.bump();
            let mut rank = 1u8;
            while self.eat(&Tok::Comma) {
                rank += 1;
            }
            self.expect(&Tok::RBracket)?;
            ty = if rank == 1 {
                Ty::Array(Box::new(ty))
            } else {
                Ty::Multi(Box::new(ty), rank)
            };
        }
        Ok(ty)
    }

    /// Does a type start at the cursor followed by `ident` (a declaration)?
    fn looks_like_decl(&self) -> bool {
        let mut i = self.at;
        let t = &self.tokens;
        let is_base = matches!(
            t[i].tok,
            Tok::BoolKw
                | Tok::IntKw
                | Tok::LongKw
                | Tok::FloatKw
                | Tok::DoubleKw
                | Tok::StringKw
                | Tok::ObjectKw
                | Tok::Ident(_)
        );
        if !is_base {
            return false;
        }
        i += 1;
        // array suffixes
        while t[i].tok == Tok::LBracket {
            let mut j = i + 1;
            while t[j].tok == Tok::Comma {
                j += 1;
            }
            if t[j].tok != Tok::RBracket {
                return false; // `name[expr]` — an index, not a type
            }
            i = j + 1;
        }
        matches!(t[i].tok, Tok::Ident(_))
    }

    // ---- statements ----

    fn block(&mut self) -> Result<Block, ParseError> {
        self.expect(&Tok::LBrace)?;
        let from = self.stmts.len();
        while !self.eat(&Tok::RBrace) {
            let s = self.stmt()?;
            self.stmts.push(s);
        }
        Ok(self.prog.block_of(&mut self.stmts, from))
    }

    fn stmt(&mut self) -> Result<StmtId, ParseError> {
        let s = self.stmt_node()?;
        Ok(self.prog.push_stmt(s))
    }

    fn stmt_node(&mut self) -> Result<Stmt<'src>, ParseError> {
        let pos = self.pos();
        match self.peek() {
            Tok::LBrace => Ok(Stmt::Block(self.block()?)),
            Tok::If => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(&Tok::RParen)?;
                let then = self.stmt_as_block()?;
                let els = if self.eat(&Tok::Else) {
                    Some(self.stmt_as_block()?)
                } else {
                    None
                };
                Ok(Stmt::If { cond, then, els })
            }
            Tok::While => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(&Tok::RParen)?;
                let body = self.stmt_as_block()?;
                Ok(Stmt::While { cond, body })
            }
            Tok::Do => {
                self.bump();
                let body = self.stmt_as_block()?;
                self.expect(&Tok::While)?;
                self.expect(&Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(&Tok::RParen)?;
                self.expect(&Tok::Semi)?;
                Ok(Stmt::DoWhile { body, cond })
            }
            Tok::For => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let init = if self.check(&Tok::Semi) {
                    None
                } else {
                    Some(self.simple_stmt()?)
                };
                self.expect(&Tok::Semi)?;
                let cond = if self.check(&Tok::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(&Tok::Semi)?;
                let update = if self.check(&Tok::RParen) {
                    None
                } else {
                    Some(self.simple_stmt()?)
                };
                self.expect(&Tok::RParen)?;
                let body = self.stmt_as_block()?;
                Ok(Stmt::For {
                    init,
                    cond,
                    update,
                    body,
                })
            }
            Tok::Break => {
                self.bump();
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Break(pos))
            }
            Tok::Continue => {
                self.bump();
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Continue(pos))
            }
            Tok::Return => {
                self.bump();
                let value = if self.check(&Tok::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Return(value, pos))
            }
            Tok::Throw => {
                self.bump();
                let e = self.expr()?;
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Throw(e, pos))
            }
            Tok::Try => {
                self.bump();
                let body = self.block()?;
                let catch = if self.eat(&Tok::Catch) {
                    self.expect(&Tok::LParen)?;
                    let class = self.ident()?;
                    let var = self.ident()?;
                    self.expect(&Tok::RParen)?;
                    Some((class, var, self.block()?))
                } else {
                    None
                };
                let finally = if self.eat(&Tok::Finally) {
                    Some(self.block()?)
                } else {
                    None
                };
                if catch.is_none() && finally.is_none() {
                    return Err(self.err("try needs a catch or finally".into()));
                }
                Ok(Stmt::Try {
                    body,
                    catch,
                    finally,
                })
            }
            Tok::Lock => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let obj = self.expr()?;
                self.expect(&Tok::RParen)?;
                let body = self.block()?;
                Ok(Stmt::Lock { obj, body, pos })
            }
            _ => {
                let s = self.simple_stmt_node()?;
                self.expect(&Tok::Semi)?;
                Ok(s)
            }
        }
    }

    fn stmt_as_block(&mut self) -> Result<Block, ParseError> {
        if self.check(&Tok::LBrace) {
            self.block()
        } else {
            let from = self.stmts.len();
            let s = self.stmt()?;
            self.stmts.push(s);
            Ok(self.prog.block_of(&mut self.stmts, from))
        }
    }

    fn simple_stmt(&mut self) -> Result<StmtId, ParseError> {
        let s = self.simple_stmt_node()?;
        Ok(self.prog.push_stmt(s))
    }

    /// A declaration, assignment, inc/dec, or expression — the statement
    /// forms legal in `for` headers.
    fn simple_stmt_node(&mut self) -> Result<Stmt<'src>, ParseError> {
        let pos = self.pos();
        if self.looks_like_decl() {
            let ty = self.ty()?;
            let name = self.ident()?;
            let init = if self.eat(&Tok::Assign) {
                Some(self.expr()?)
            } else {
                None
            };
            return Ok(Stmt::Local {
                ty,
                name,
                init,
                pos,
            });
        }
        // Prefix ++/--.
        if self.check(&Tok::PlusPlus) || self.check(&Tok::MinusMinus) {
            let inc = self.bump() == Tok::PlusPlus;
            let target = self.unary()?;
            return Ok(Stmt::IncDec { target, inc, pos });
        }
        let e = self.expr()?;
        let op = match self.peek() {
            Tok::Assign => None,
            Tok::PlusAssign => Some(BinKind::Add),
            Tok::MinusAssign => Some(BinKind::Sub),
            Tok::StarAssign => Some(BinKind::Mul),
            Tok::SlashAssign => Some(BinKind::Div),
            Tok::PercentAssign => Some(BinKind::Rem),
            Tok::PlusPlus => {
                self.bump();
                return Ok(Stmt::IncDec {
                    target: e,
                    inc: true,
                    pos,
                });
            }
            Tok::MinusMinus => {
                self.bump();
                return Ok(Stmt::IncDec {
                    target: e,
                    inc: false,
                    pos,
                });
            }
            _ => return Ok(Stmt::Expr(e)),
        };
        self.bump();
        let value = self.expr()?;
        Ok(Stmt::Assign {
            target: e,
            op,
            value,
            pos,
        })
    }

    // ---- expressions (precedence climbing) ----

    fn node(&mut self, e: Expr<'src>) -> ExprId {
        self.prog.push_expr(e)
    }

    fn expr(&mut self) -> Result<ExprId, ParseError> {
        self.ternary()
    }

    fn ternary(&mut self) -> Result<ExprId, ParseError> {
        let cond = self.bin_expr(0)?;
        if self.check(&Tok::Question) {
            let pos = self.pos();
            self.bump();
            let then = self.expr()?;
            self.expect(&Tok::Colon)?;
            let els = self.expr()?;
            return Ok(self.node(Expr::Cond { cond, then, els, pos }));
        }
        Ok(cond)
    }

    fn bin_op_prec(t: &Tok) -> Option<(BinKind, u8)> {
        Some(match t {
            Tok::OrOr => (BinKind::OrOr, 1),
            Tok::AndAnd => (BinKind::AndAnd, 2),
            Tok::Pipe => (BinKind::Or, 3),
            Tok::Caret => (BinKind::Xor, 4),
            Tok::Amp => (BinKind::And, 5),
            Tok::Eq => (BinKind::Eq, 6),
            Tok::Ne => (BinKind::Ne, 6),
            Tok::Lt => (BinKind::Lt, 7),
            Tok::Le => (BinKind::Le, 7),
            Tok::Gt => (BinKind::Gt, 7),
            Tok::Ge => (BinKind::Ge, 7),
            Tok::Shl => (BinKind::Shl, 8),
            Tok::Shr => (BinKind::Shr, 8),
            Tok::Plus => (BinKind::Add, 9),
            Tok::Minus => (BinKind::Sub, 9),
            Tok::Star => (BinKind::Mul, 10),
            Tok::Slash => (BinKind::Div, 10),
            Tok::Percent => (BinKind::Rem, 10),
            _ => return None,
        })
    }

    fn bin_expr(&mut self, min_prec: u8) -> Result<ExprId, ParseError> {
        let mut lhs = self.unary()?;
        while let Some((op, prec)) = Self::bin_op_prec(self.peek()) {
            if prec < min_prec {
                break;
            }
            let pos = self.pos();
            self.bump();
            let rhs = self.bin_expr(prec + 1)?;
            lhs = self.node(Expr::Bin { op, lhs, rhs, pos });
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<ExprId, ParseError> {
        let pos = self.pos();
        let op = match self.peek() {
            Tok::Minus => {
                self.bump();
                // `-literal` folds so i32::MIN is writable.
                let folded = match *self.peek() {
                    Tok::Int(v) => Expr::Int(v.wrapping_neg()),
                    Tok::Long(v) => Expr::Long(v.wrapping_neg()),
                    Tok::Double(v) => Expr::Double(-v),
                    Tok::Float(v) => Expr::Float(-v),
                    _ => return self.un(UnKind::Neg, pos),
                };
                self.bump();
                return Ok(self.node(folded));
            }
            Tok::Not => UnKind::Not,
            Tok::Tilde => UnKind::BitNot,
            Tok::LParen if self.is_cast() => {
                self.bump();
                let ty = self.ty()?;
                self.expect(&Tok::RParen)?;
                let expr = self.unary()?;
                return Ok(self.node(Expr::Cast { ty, expr, pos }));
            }
            _ => return self.postfix(),
        };
        self.bump();
        self.un(op, pos)
    }

    /// `op` applied to the unary expression at the cursor.
    fn un(&mut self, op: UnKind, pos: Pos) -> Result<ExprId, ParseError> {
        let expr = self.unary()?;
        Ok(self.node(Expr::Un { op, expr, pos }))
    }

    /// Is `( ... )` at the cursor a cast? True for `(type)` followed by an
    /// operand-starting token.
    fn is_cast(&self) -> bool {
        let t = &self.tokens;
        let mut i = self.at + 1;
        let type_start = matches!(
            t[i].tok,
            Tok::BoolKw
                | Tok::IntKw
                | Tok::LongKw
                | Tok::FloatKw
                | Tok::DoubleKw
                | Tok::StringKw
                | Tok::ObjectKw
                | Tok::Ident(_)
        );
        if !type_start {
            return false;
        }
        let is_primitive = !matches!(t[i].tok, Tok::Ident(_));
        i += 1;
        while t[i].tok == Tok::LBracket {
            let mut j = i + 1;
            while t[j].tok == Tok::Comma {
                j += 1;
            }
            if t[j].tok != Tok::RBracket {
                return false;
            }
            i = j + 1;
        }
        if t[i].tok != Tok::RParen {
            return false;
        }
        // `(ident)` is ambiguous with a parenthesized expression; treat it
        // as a cast only when followed by something an operand can start
        // with but a binary operator cannot.
        let next = &t[i + 1].tok;
        let operand_start = matches!(
            next,
            Tok::Ident(_)
                | Tok::Int(_)
                | Tok::Long(_)
                | Tok::Float(_)
                | Tok::Double(_)
                | Tok::Str(_)
                | Tok::True
                | Tok::False
                | Tok::Null
                | Tok::This
                | Tok::New
                | Tok::LParen
                | Tok::Not
                | Tok::Tilde
        );
        if is_primitive {
            operand_start || matches!(next, Tok::Minus)
        } else {
            operand_start
        }
    }

    fn postfix(&mut self) -> Result<ExprId, ParseError> {
        let mut e = self.primary()?;
        loop {
            let pos = self.pos();
            if self.eat(&Tok::Dot) {
                let name = self.ident()?;
                e = if self.check(&Tok::LParen) {
                    let args = self.args()?;
                    self.node(Expr::Call { target: Some(e), name, args, pos })
                } else {
                    self.node(Expr::Field { obj: e, name, pos })
                };
            } else if self.eat(&Tok::LBracket) {
                let idxs = self.expr_list()?;
                self.expect(&Tok::RBracket)?;
                e = self.node(Expr::Index { arr: e, idxs, pos });
            } else {
                break;
            }
        }
        Ok(e)
    }

    /// One or more comma-separated expressions.
    fn expr_list(&mut self) -> Result<Exprs, ParseError> {
        let from = self.exprs.len();
        loop {
            let e = self.expr()?;
            self.exprs.push(e);
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        Ok(self.prog.expr_list(&mut self.exprs, from))
    }

    fn args(&mut self) -> Result<Exprs, ParseError> {
        self.expect(&Tok::LParen)?;
        let args = if self.check(&Tok::RParen) {
            Exprs::default()
        } else {
            self.expr_list()?
        };
        self.expect(&Tok::RParen)?;
        Ok(args)
    }

    fn primary(&mut self) -> Result<ExprId, ParseError> {
        let pos = self.pos();
        let e = match self.bump() {
            Tok::Int(v) => Expr::Int(v),
            Tok::Long(v) => Expr::Long(v),
            Tok::Float(v) => Expr::Float(v),
            Tok::Double(v) => Expr::Double(v),
            Tok::Str(s) => Expr::Str(s),
            Tok::True => Expr::Bool(true),
            Tok::False => Expr::Bool(false),
            Tok::Null => Expr::Null,
            Tok::This => Expr::This(pos),
            Tok::LParen => {
                let e = self.expr()?;
                self.expect(&Tok::RParen)?;
                return Ok(e);
            }
            Tok::New => self.new_expr(pos)?,
            Tok::Ident(name) => {
                if self.check(&Tok::LParen) {
                    let args = self.args()?;
                    Expr::Call { target: None, name, args, pos }
                } else {
                    Expr::Ident(name, pos)
                }
            }
            other => {
                return Err(ParseError {
                    pos,
                    message: format!("expected expression, found {other}"),
                })
            }
        };
        Ok(self.node(e))
    }

    fn new_expr(&mut self, pos: Pos) -> Result<Expr<'src>, ParseError> {
        // Element type (no array suffix yet).
        let base = match self.bump() {
            Tok::BoolKw => Ty::Bool,
            Tok::IntKw => Ty::Int,
            Tok::LongKw => Ty::Long,
            Tok::FloatKw => Ty::Float,
            Tok::DoubleKw => Ty::Double,
            Tok::StringKw => Ty::Str,
            Tok::ObjectKw => Ty::Object,
            Tok::Ident(s) => {
                if self.check(&Tok::LParen) {
                    // `new Class(args)`
                    let args = self.args()?;
                    return Ok(Expr::New { class: s, args, pos });
                }
                Ty::Class(s)
            }
            other => {
                return Err(ParseError {
                    pos,
                    message: format!("expected type after new, found {other}"),
                })
            }
        };
        // `[dims]` then optional `[]` ranks for jagged spines.
        self.expect(&Tok::LBracket)?;
        let dims = self.expr_list()?;
        self.expect(&Tok::RBracket)?;
        let mut elem = base;
        let mut extra_ranks = 0u8;
        while self.check(&Tok::LBracket) && self.peek2() == &Tok::RBracket {
            self.bump();
            self.bump();
            elem = elem.array_of();
            extra_ranks += 1;
        }
        // The expression's type, built once here so codegen reads it in
        // place; a mix of jagged and multidimensional is refused there.
        let ty = match dims.len() {
            1 => elem.array_of(),
            n => Ty::Multi(Box::new(elem), n as u8),
        };
        Ok(Expr::NewArray { ty, dims, extra_ranks, pos })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(src: &str) -> Program<'_> {
        parse(src).unwrap()
    }

    #[test]
    fn parses_class_with_members() {
        let prog = p("class A : B { int x; static double[] data; A(int v) { x = v; } \
                      virtual int Get() { return x; } static void Main() { } }");
        let c = &prog.classes[0];
        assert_eq!(c.name, "A");
        assert_eq!(c.base, Some("B"));
        assert_eq!(c.fields.len(), 2);
        assert!(c.fields[1].is_static);
        assert_eq!(c.methods.len(), 3);
        assert_eq!(c.methods[0].kind, MKind::Ctor);
        assert_eq!(c.methods[1].kind, MKind::Virtual);
        assert_eq!(c.methods[2].kind, MKind::Static);
    }

    #[test]
    fn parses_types() {
        let prog = p("class A { int[][] jag; double[,] m2; long[,,] m3; static void F(object o, string s) {} }");
        let c = &prog.classes[0];
        assert_eq!(c.fields[0].ty, Ty::Int.array_of().array_of());
        assert_eq!(c.fields[1].ty, Ty::Multi(Box::new(Ty::Double), 2));
        assert_eq!(c.fields[2].ty, Ty::Multi(Box::new(Ty::Long), 3));
    }

    #[test]
    fn parses_control_flow() {
        let prog = p(r#"
            class A { static int F(int n) {
                int s = 0;
                for (int i = 0; i < n; i++) { if (i % 2 == 0) s += i; else s -= 1; }
                while (s > 100) s /= 2;
                do { s++; } while (s < 0);
                try { s = s / n; } catch (Exception e) { s = -1; } finally { s++; }
                lock (null) { s += 2; }
                return s > 0 ? s : -s;
            } }"#);
        let body = prog.block(prog.classes[0].methods[0].body);
        assert_eq!(body.len(), 7);
        assert!(matches!(prog.stmt(body[1]), Stmt::For { .. }));
        assert!(matches!(prog.stmt(body[4]), Stmt::Try { .. }));
        assert!(matches!(prog.stmt(body[5]), Stmt::Lock { .. }));
    }

    /// The initializer of the `k`-th statement of the first method, a local.
    fn init<'p, 'src>(prog: &'p Program<'src>, k: usize) -> &'p Expr<'src> {
        let body = prog.block(prog.classes[0].methods[0].body);
        match prog.stmt(body[k]) {
            Stmt::Local { init: Some(e), .. } => prog.expr(*e),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_new_forms() {
        let prog = p("class A { static void F() { \
            object a = new A(); \
            double[] b = new double[10]; \
            double[][] c = new double[10][]; \
            double[,] d = new double[3,4]; } }");
        assert!(matches!(init(&prog, 1), Expr::NewArray { extra_ranks: 0, dims, ty, .. }
            if dims.len() == 1 && *ty == Ty::Double.array_of()));
        assert!(matches!(init(&prog, 2), Expr::NewArray { extra_ranks: 1, ty, .. }
            if *ty == Ty::Double.array_of().array_of()));
        assert!(matches!(init(&prog, 3), Expr::NewArray { dims, ty, .. }
            if dims.len() == 2 && *ty == Ty::Multi(Box::new(Ty::Double), 2)));
    }

    #[test]
    fn cast_vs_paren_disambiguation() {
        // (int)x is a cast; (x) + 1 is a parenthesized expr; (A)obj casts.
        let prog = p("class A { static void F(int x, object o) { \
            int a = (int)x; int b = (x) + 1; A c = (A)o; double d = (double)-x; } }");
        assert!(matches!(init(&prog, 0), Expr::Cast { .. }));
        assert!(matches!(init(&prog, 1), Expr::Bin { .. }));
        assert!(matches!(init(&prog, 2), Expr::Cast { .. }));
        assert!(matches!(init(&prog, 3), Expr::Cast { .. }));
    }

    #[test]
    fn precedence() {
        let prog = p("class A { static int F() { return 1 + 2 * 3 << 1 < 20 ? 1 : 0; } }");
        // Parses without error and nests: ((1 + (2*3)) << 1) < 20.
        let body = prog.block(prog.classes[0].methods[0].body);
        let &Stmt::Return(Some(e), _) = prog.stmt(body[0]) else { panic!("a return") };
        match prog.expr(e) {
            Expr::Cond { cond, .. } => {
                assert!(matches!(prog.expr(*cond), Expr::Bin { op: BinKind::Lt, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn multidim_index() {
        let prog = p("class A { static double F(double[,] m) { return m[1, 2]; } }");
        let body = prog.block(prog.classes[0].methods[0].body);
        let &Stmt::Return(Some(e), _) = prog.stmt(body[0]) else { panic!("a return") };
        match prog.expr(e) {
            Expr::Index { idxs, .. } => assert_eq!(idxs.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn errors_are_positioned() {
        let e = parse("class A { static void F() { int = 3; } }").unwrap_err();
        assert!(e.pos.line == 1 && e.pos.col > 1, "{e}");
        assert!(parse("class { }").is_err());
        assert!(parse("class A { static void F() { try { } } }").is_err());
    }

    #[test]
    fn field_lists_and_static_inits() {
        let prog = p("class A { static int N = 100, M = 3; int a, b; }");
        let c = &prog.classes[0];
        assert_eq!(c.fields.len(), 4);
        assert!(c.fields[0].init.is_some());
        assert!(c.fields[2].init.is_none());
        assert!(parse("class A { int x = 1; }").is_err(), "instance init rejected");
    }
}
