//! MiniC# recursive-descent parser.
//!
//! Names move from the tokens into the tree as `&'src str` borrows of the
//! source; the parser allocates only the tree's own nodes and vectors.

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
    let mut p = Parser { tokens, at: 0 };
    let mut prog = Program::default();
    while !p.check(&Tok::Eof) {
        prog.classes.push(p.class_decl()?);
    }
    Ok(prog)
}

struct Parser<'src> {
    tokens: Vec<Token<'src>>,
    at: usize,
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
            // initializer for statics.
            let mut names = vec![name];
            let mut inits = vec![if self.eat(&Tok::Assign) {
                Some(self.expr()?)
            } else {
                None
            }];
            while self.eat(&Tok::Comma) {
                names.push(self.ident()?);
                inits.push(if self.eat(&Tok::Assign) {
                    Some(self.expr()?)
                } else {
                    None
                });
            }
            self.expect(&Tok::Semi)?;
            for (n, init) in names.into_iter().zip(inits) {
                if init.is_some() && !is_static {
                    return Err(ParseError {
                        pos,
                        message: format!(
                            "instance field {n} cannot have an initializer (assign in the constructor)"
                        ),
                    });
                }
                fields.push(FieldDecl {
                    name: n,
                    ty: ty.clone(),
                    is_static,
                    init,
                    pos,
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

    fn block(&mut self) -> Result<Vec<Stmt<'src>>, ParseError> {
        self.expect(&Tok::LBrace)?;
        let mut out = Vec::new();
        while !self.eat(&Tok::RBrace) {
            out.push(self.stmt()?);
        }
        Ok(out)
    }

    fn stmt(&mut self) -> Result<Stmt<'src>, ParseError> {
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
                    Some(Box::new(self.simple_stmt()?))
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
                    Some(Box::new(self.simple_stmt()?))
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
                let s = self.simple_stmt()?;
                self.expect(&Tok::Semi)?;
                Ok(s)
            }
        }
    }

    fn stmt_as_block(&mut self) -> Result<Vec<Stmt<'src>>, ParseError> {
        if self.check(&Tok::LBrace) {
            self.block()
        } else {
            Ok(vec![self.stmt()?])
        }
    }

    /// A declaration, assignment, inc/dec, or expression — the statement
    /// forms legal in `for` headers.
    fn simple_stmt(&mut self) -> Result<Stmt<'src>, ParseError> {
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

    fn expr(&mut self) -> Result<Expr<'src>, ParseError> {
        self.ternary()
    }

    fn ternary(&mut self) -> Result<Expr<'src>, ParseError> {
        let cond = self.bin_expr(0)?;
        if self.check(&Tok::Question) {
            let pos = self.pos();
            self.bump();
            let then = self.expr()?;
            self.expect(&Tok::Colon)?;
            let els = self.expr()?;
            return Ok(Expr::Cond {
                cond: Box::new(cond),
                then: Box::new(then),
                els: Box::new(els),
                pos,
            });
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

    fn bin_expr(&mut self, min_prec: u8) -> Result<Expr<'src>, ParseError> {
        let mut lhs = self.unary()?;
        while let Some((op, prec)) = Self::bin_op_prec(self.peek()) {
            if prec < min_prec {
                break;
            }
            let pos = self.pos();
            self.bump();
            let rhs = self.bin_expr(prec + 1)?;
            lhs = Expr::Bin {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                pos,
            };
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr<'src>, ParseError> {
        let pos = self.pos();
        match self.peek() {
            Tok::Minus => {
                self.bump();
                // `-literal` folds so i32::MIN is writable.
                match *self.peek() {
                    Tok::Int(v) => {
                        self.bump();
                        return Ok(Expr::Int(v.wrapping_neg()));
                    }
                    Tok::Long(v) => {
                        self.bump();
                        return Ok(Expr::Long(v.wrapping_neg()));
                    }
                    Tok::Double(v) => {
                        self.bump();
                        return Ok(Expr::Double(-v));
                    }
                    Tok::Float(v) => {
                        self.bump();
                        return Ok(Expr::Float(-v));
                    }
                    _ => {}
                }
                Ok(Expr::Un {
                    op: UnKind::Neg,
                    expr: Box::new(self.unary()?),
                    pos,
                })
            }
            Tok::Not => {
                self.bump();
                Ok(Expr::Un {
                    op: UnKind::Not,
                    expr: Box::new(self.unary()?),
                    pos,
                })
            }
            Tok::Tilde => {
                self.bump();
                Ok(Expr::Un {
                    op: UnKind::BitNot,
                    expr: Box::new(self.unary()?),
                    pos,
                })
            }
            Tok::LParen if self.is_cast() => {
                self.bump();
                let ty = self.ty()?;
                self.expect(&Tok::RParen)?;
                Ok(Expr::Cast {
                    ty,
                    expr: Box::new(self.unary()?),
                    pos,
                })
            }
            _ => self.postfix(),
        }
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

    fn postfix(&mut self) -> Result<Expr<'src>, ParseError> {
        let mut e = self.primary()?;
        loop {
            let pos = self.pos();
            if self.eat(&Tok::Dot) {
                let name = self.ident()?;
                if self.check(&Tok::LParen) {
                    let args = self.args()?;
                    e = Expr::Call {
                        target: Some(Box::new(e)),
                        name,
                        args,
                        pos,
                    };
                } else {
                    e = Expr::Field {
                        obj: Box::new(e),
                        name,
                        pos,
                    };
                }
            } else if self.eat(&Tok::LBracket) {
                let mut idxs = vec![self.expr()?];
                while self.eat(&Tok::Comma) {
                    idxs.push(self.expr()?);
                }
                self.expect(&Tok::RBracket)?;
                e = Expr::Index {
                    arr: Box::new(e),
                    idxs,
                    pos,
                };
            } else {
                break;
            }
        }
        Ok(e)
    }

    fn args(&mut self) -> Result<Vec<Expr<'src>>, ParseError> {
        self.expect(&Tok::LParen)?;
        let mut out = Vec::new();
        if !self.check(&Tok::RParen) {
            loop {
                out.push(self.expr()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen)?;
        Ok(out)
    }

    fn primary(&mut self) -> Result<Expr<'src>, ParseError> {
        let pos = self.pos();
        match self.bump() {
            Tok::Int(v) => Ok(Expr::Int(v)),
            Tok::Long(v) => Ok(Expr::Long(v)),
            Tok::Float(v) => Ok(Expr::Float(v)),
            Tok::Double(v) => Ok(Expr::Double(v)),
            Tok::Str(s) => Ok(Expr::Str(s)),
            Tok::True => Ok(Expr::Bool(true)),
            Tok::False => Ok(Expr::Bool(false)),
            Tok::Null => Ok(Expr::Null),
            Tok::This => Ok(Expr::This(pos)),
            Tok::LParen => {
                let e = self.expr()?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            Tok::New => self.new_expr(pos),
            Tok::Ident(name) => {
                if self.check(&Tok::LParen) {
                    let args = self.args()?;
                    Ok(Expr::Call {
                        target: None,
                        name,
                        args,
                        pos,
                    })
                } else {
                    Ok(Expr::Ident(name, pos))
                }
            }
            other => Err(ParseError {
                pos,
                message: format!("expected expression, found {other}"),
            }),
        }
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
                    return Ok(Expr::New {
                        class: s,
                        args,
                        pos,
                    });
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
        let mut dims = vec![self.expr()?];
        while self.eat(&Tok::Comma) {
            dims.push(self.expr()?);
        }
        self.expect(&Tok::RBracket)?;
        let mut extra_ranks = 0u8;
        while self.check(&Tok::LBracket) && self.peek2() == &Tok::RBracket {
            self.bump();
            self.bump();
            extra_ranks += 1;
        }
        Ok(Expr::NewArray {
            elem: base,
            dims,
            extra_ranks,
            pos,
        })
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
        let m = &prog.classes[0].methods[0];
        assert_eq!(m.body.len(), 7);
        assert!(matches!(m.body[1], Stmt::For { .. }));
        assert!(matches!(m.body[4], Stmt::Try { .. }));
        assert!(matches!(m.body[5], Stmt::Lock { .. }));
    }

    #[test]
    fn parses_new_forms() {
        let prog = p("class A { static void F() { \
            object a = new A(); \
            double[] b = new double[10]; \
            double[][] c = new double[10][]; \
            double[,] d = new double[3,4]; } }");
        let body = &prog.classes[0].methods[0].body;
        assert!(matches!(&body[1], Stmt::Local { init: Some(Expr::NewArray { extra_ranks: 0, dims, .. }), .. } if dims.len() == 1));
        assert!(matches!(&body[2], Stmt::Local { init: Some(Expr::NewArray { extra_ranks: 1, .. }), .. }));
        assert!(matches!(&body[3], Stmt::Local { init: Some(Expr::NewArray { dims, .. }), .. } if dims.len() == 2));
    }

    #[test]
    fn cast_vs_paren_disambiguation() {
        // (int)x is a cast; (x) + 1 is a parenthesized expr; (A)obj casts.
        let prog = p("class A { static void F(int x, object o) { \
            int a = (int)x; int b = (x) + 1; A c = (A)o; double d = (double)-x; } }");
        let body = &prog.classes[0].methods[0].body;
        assert!(matches!(&body[0], Stmt::Local { init: Some(Expr::Cast { .. }), .. }));
        assert!(matches!(&body[1], Stmt::Local { init: Some(Expr::Bin { .. }), .. }));
        assert!(matches!(&body[2], Stmt::Local { init: Some(Expr::Cast { .. }), .. }));
        assert!(matches!(&body[3], Stmt::Local { init: Some(Expr::Cast { .. }), .. }));
    }

    #[test]
    fn precedence() {
        let prog = p("class A { static int F() { return 1 + 2 * 3 << 1 < 20 ? 1 : 0; } }");
        // Parses without error and nests: ((1 + (2*3)) << 1) < 20.
        let m = &prog.classes[0].methods[0];
        match &m.body[0] {
            Stmt::Return(Some(Expr::Cond { cond, .. }), _) => {
                assert!(matches!(**cond, Expr::Bin { op: BinKind::Lt, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn multidim_index() {
        let prog = p("class A { static double F(double[,] m) { return m[1, 2]; } }");
        match &prog.classes[0].methods[0].body[0] {
            Stmt::Return(Some(Expr::Index { idxs, .. }), _) => assert_eq!(idxs.len(), 2),
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
