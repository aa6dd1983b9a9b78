//! MiniC# type checking and CIL emission (one pass over bodies).
//!
//! Each expression is typed by emitting it: `gen_expr` returns the type
//! of the code it just emitted, and no other walk types an expression.
//! Where an operand's conversion depends on the operand after it (the
//! left side of a binary operator, a comparison or `Math.Max/Min`, the
//! `then` arm of `?:`), the conversion is emitted once both types are
//! known and then moved back to the end of its operand
//! ([`MethodBuilder::move_since`]), so the code reads as if it had been
//! emitted in place.
//!
//! Two-phase: all class/field/method signatures are declared first so
//! forward references resolve, then bodies are emitted. The generated
//! shapes are deliberately canonical (fused compare-branches, explicit
//! `leave` out of protected regions, `array.Length` loop bounds left
//! intact) so the per-profile JIT passes in `hpcnet-vm` see exactly the
//! patterns the paper discusses.

use crate::ast::*;
use crate::lexer::Pos;
use crate::CompileError;
use hpcnet_cil::builder::{elem_kind_of, MethodKind};
use hpcnet_cil::prelude::{declare_prelude, EXCEPTION_CLASS};
use hpcnet_cil::{
    BinOp, CilType, ClassId, CmpOp, ElemKind, FieldId, Intrinsic, Label, MethodBuilder, MethodId,
    Module, ModuleBuilder, NumTy, Op,
};
use std::collections::HashMap;

type Result<T> = std::result::Result<T, CompileError>;

fn err<T>(pos: Pos, message: impl Into<String>) -> Result<T> {
    Err(CompileError {
        pos,
        message: message.into(),
    })
}

/// Builtin static classes whose methods map to runtime intrinsics.
const BUILTIN_CLASSES: &[&str] = &["Math", "Console", "Sys", "Monitor", "Serial"];

/// A type as codegen passes it around: a reference to one the tree
/// declares, one the symbol table holds, or a constant.
type TyRef<'t, 'src> = &'t Ty<'src>;

#[derive(Debug)]
struct MethodInfo<'t, 'src> {
    id: MethodId,
    params: &'t [(Ty<'src>, &'src str)],
    ret: TyRef<'t, 'src>,
    is_static: bool,
    is_virtual: bool,
}

#[derive(Debug)]
struct FieldInfo<'t, 'src> {
    id: FieldId,
    ty: TyRef<'t, 'src>,
    is_static: bool,
}

/// Declared names, keyed by the source's own text: a lookup builds no
/// key. Member lookups take the member name as `&'src str`, so the
/// `(class, member)` key is made of two borrows of the source. Member
/// types are read in place from the tree (`'t`).
#[derive(Default)]
struct SymTab<'t, 'src> {
    classes: HashMap<&'src str, ClassId>,
    /// `Ty::Class` of every class, for the expressions typed by one.
    class_tys: HashMap<&'src str, Ty<'src>>,
    bases: HashMap<&'src str, Option<&'src str>>,
    methods: HashMap<(&'src str, &'src str), MethodInfo<'t, 'src>>,
    fields: HashMap<(&'src str, &'src str), FieldInfo<'t, 'src>>,
}

impl<'t, 'src> SymTab<'t, 'src> {
    fn add_class(&mut self, name: &'src str, id: ClassId, base: Option<&'src str>) {
        self.classes.insert(name, id);
        self.class_tys.insert(name, Ty::Class(name));
        self.bases.insert(name, base);
    }

    /// `Ty::Class(name)` of a declared class.
    fn class_ty(&self, name: &str) -> &Ty<'src> {
        &self.class_tys[name]
    }

    fn base_of(&self, class: &str) -> Option<&'src str> {
        self.bases.get(class).copied().flatten()
    }

    fn resolve_method(
        &self,
        class: &str,
        name: &'src str,
    ) -> Option<(&'src str, &MethodInfo<'t, 'src>)> {
        let mut cur = self.bases.get_key_value(class).map(|(k, _)| *k);
        while let Some(c) = cur {
            if let Some(mi) = self.methods.get(&(c, name)) {
                return Some((c, mi));
            }
            cur = self.base_of(c);
        }
        None
    }

    fn resolve_field(&self, class: &'src str, name: &'src str) -> Option<&FieldInfo<'t, 'src>> {
        let mut cur = Some(class);
        while let Some(c) = cur {
            if let Some(fi) = self.fields.get(&(c, name)) {
                return Some(fi);
            }
            cur = self.base_of(c);
        }
        None
    }

    fn is_subclass(&self, sub: &str, sup: &str) -> bool {
        let mut cur = Some(sub);
        while let Some(c) = cur {
            if c == sup {
                return true;
            }
            cur = self.base_of(c);
        }
        false
    }

    fn cil_ty(&self, ty: &Ty, pos: Pos) -> Result<CilType> {
        Ok(match ty {
            Ty::Void => CilType::Void,
            Ty::Null => return err(pos, "null is not a declarable type"),
            Ty::Bool => CilType::Bool,
            Ty::Int => CilType::I4,
            Ty::Long => CilType::I8,
            Ty::Float => CilType::R4,
            Ty::Double => CilType::R8,
            Ty::Str => CilType::Str,
            Ty::Object => CilType::Object,
            Ty::Class(name) => match self.classes.get(name) {
                Some(id) => CilType::Class(*id),
                None => return err(pos, format!("unknown class {name}")),
            },
            Ty::Array(e) => CilType::array_of(self.cil_ty(e, pos)?),
            Ty::Multi(_, r) if !(2..=3).contains(r) => {
                return err(pos, "multidimensional arrays support rank 2..=3")
            }
            Ty::Multi(e, r) => CilType::multi_of(self.cil_ty(e, pos)?, *r),
        })
    }

    /// The element kind of an array whose elements are of type `ty`,
    /// refused as [`SymTab::cil_ty`] refuses `ty`; an array element type is
    /// checked without building its CIL type.
    fn elem_kind(&self, ty: &Ty, pos: Pos) -> Result<ElemKind> {
        match ty {
            Ty::Array(_) | Ty::Multi(..) => self.check_array(ty, pos).map(|()| ElemKind::Ref),
            scalar_or_class => Ok(elem_kind_of(&self.cil_ty(scalar_or_class, pos)?)),
        }
    }

    /// The checks `cil_ty` makes of an array type, in its order.
    fn check_array(&self, ty: &Ty, pos: Pos) -> Result<()> {
        match ty {
            Ty::Array(e) => self.check_array(e, pos),
            Ty::Multi(_, r) if !(2..=3).contains(r) => {
                err(pos, "multidimensional arrays support rank 2..=3")
            }
            Ty::Multi(e, _) => self.check_array(e, pos),
            other => self.cil_ty(other, pos).map(drop),
        }
    }
}

fn num_ty(ty: &Ty) -> Option<NumTy> {
    Some(match ty {
        Ty::Int => NumTy::I4,
        Ty::Long => NumTy::I8,
        Ty::Float => NumTy::R4,
        Ty::Double => NumTy::R8,
        Ty::Bool => NumTy::I4,
        _ => return None,
    })
}

fn is_numeric(ty: &Ty) -> bool {
    matches!(ty, Ty::Int | Ty::Long | Ty::Float | Ty::Double)
}

fn is_ref(ty: &Ty) -> bool {
    matches!(
        ty,
        Ty::Str | Ty::Object | Ty::Class(_) | Ty::Array(_) | Ty::Multi(..) | Ty::Null
    )
}

/// C# "usual arithmetic conversions".
fn promote(a: &Ty, b: &Ty) -> Option<&'static Ty<'static>> {
    if !is_numeric(a) || !is_numeric(b) {
        return None;
    }
    Some(if *a == Ty::Double || *b == Ty::Double {
        &Ty::Double
    } else if *a == Ty::Float || *b == Ty::Float {
        &Ty::Float
    } else if *a == Ty::Long || *b == Ty::Long {
        &Ty::Long
    } else {
        &Ty::Int
    })
}

/// The CIL comparison a comparison operator emits.
fn cmp_op(op: BinKind) -> Option<CmpOp> {
    Some(match op {
        BinKind::Lt => CmpOp::Lt,
        BinKind::Le => CmpOp::Le,
        BinKind::Gt => CmpOp::Gt,
        BinKind::Ge => CmpOp::Ge,
        BinKind::Eq => CmpOp::Eq,
        BinKind::Ne => CmpOp::Ne,
        _ => return None,
    })
}

/// Emit the full module.
pub fn emit(prog: &Program) -> Result<Module> {
    let mut mb = ModuleBuilder::new();
    declare_prelude(&mut mb);
    let mut st = SymTab::default();
    // Register the prelude classes.
    for name in [
        EXCEPTION_CLASS,
        hpcnet_cil::prelude::NULL_REF_CLASS,
        hpcnet_cil::prelude::INDEX_OOB_CLASS,
        hpcnet_cil::prelude::DIV_ZERO_CLASS,
        hpcnet_cil::prelude::INVALID_CAST_CLASS,
    ] {
        // `declare_prelude` declared each of these classes, with a
        // `.ctor`, into this builder just above, and no user class is
        // declared yet: neither lookup can miss.
        let id = mb.class_id(name).expect("the prelude declares it");
        let base = (name != EXCEPTION_CLASS).then_some(EXCEPTION_CLASS);
        st.add_class(name, id, base);
        st.methods.insert(
            (name, ".ctor"),
            MethodInfo {
                id: mb
                    .method_id(&format!("{name}..ctor"))
                    .expect("the prelude declares its constructor"),
                params: &[],
                ret: &Ty::Void,
                is_static: false,
                is_virtual: false,
            },
        );
    }

    // Phase A1: declare classes.
    for c in &prog.classes {
        if BUILTIN_CLASSES.contains(&c.name) {
            return err(c.pos, format!("{} is a reserved builtin class", c.name));
        }
        if st.classes.contains_key(c.name) {
            return err(c.pos, format!("duplicate class {}", c.name));
        }
        let id = mb.declare_class(c.name, c.base);
        st.add_class(c.name, id, c.base);
    }
    for c in &prog.classes {
        if let Some(b) = c.base {
            if !st.classes.contains_key(b) {
                return err(c.pos, format!("unknown base class {b}"));
            }
        }
    }
    // Every base chain must end; reported at the first class met twice,
    // the one `ModuleBuilder::finish` would name.
    for c in &prog.classes {
        let mut chain = vec![c.name];
        let mut base = c.base;
        while let Some(b) = base {
            if chain.contains(&b) {
                let at = prog.classes.iter().find(|k| k.name == b);
                return err(
                    at.map_or(c.pos, |k| k.pos),
                    format!("inheritance cycle at class {b}"),
                );
            }
            chain.push(b);
            base = st.base_of(b);
        }
    }

    // Phase A2: fields.
    for c in &prog.classes {
        let cid = st.classes[c.name];
        for f in &c.fields {
            let cty = st.cil_ty(&f.ty, f.pos)?;
            if cty == CilType::Void {
                return err(f.pos, "field cannot be void");
            }
            let fid = mb.add_field(cid, f.name, cty, f.is_static);
            if st
                .fields
                .insert(
                    (c.name, f.name),
                    FieldInfo {
                        id: fid,
                        ty: &f.ty,
                        is_static: f.is_static,
                    },
                )
                .is_some()
            {
                return err(f.pos, format!("duplicate field {}.{}", c.name, f.name));
            }
        }
    }

    // Phase A3: method signatures (empty bodies for now).
    for c in &prog.classes {
        let cid = st.classes[c.name];
        let mut has_ctor = false;
        for m in &c.methods {
            // MiniC# has no overloading: one name, one method. Checked
            // before the builder sees the name, which asserts uniqueness.
            let key = (c.name, m.name);
            if st.methods.contains_key(&key) {
                return err(m.pos, format!("duplicate method {}.{}", c.name, m.name));
            }
            let kind = match m.kind {
                MKind::Static => MethodKind::Static,
                MKind::Instance => MethodKind::Instance,
                MKind::Virtual => MethodKind::Virtual,
                MKind::Override => MethodKind::Override,
                MKind::Ctor => {
                    has_ctor = true;
                    MethodKind::Ctor
                }
            };
            let mut params = Vec::new();
            for (t, _) in &m.params {
                let ct = st.cil_ty(t, m.pos)?;
                if ct == CilType::Void {
                    return err(m.pos, "parameter cannot be void");
                }
                params.push(ct);
            }
            let ret = st.cil_ty(&m.ret, m.pos)?;
            // Override signature checks against the base virtual.
            if m.kind == MKind::Override {
                match st.resolve_method(c.base.unwrap_or(""), m.name) {
                    Some((_, base)) if base.is_virtual => {
                        let same_params =
                            base.params.iter().map(|(t, _)| t).eq(m.params.iter().map(|(t, _)| t));
                        if !same_params || *base.ret != m.ret {
                            return err(m.pos, format!("override {} changes signature", m.name));
                        }
                    }
                    _ => return err(m.pos, format!("override {} has no base virtual", m.name)),
                }
            }
            let id = mb.method(cid, m.name, params, ret, kind).finish();
            st.methods.insert(
                key,
                MethodInfo {
                    id,
                    params: &m.params,
                    ret: &m.ret,
                    is_static: m.kind == MKind::Static,
                    is_virtual: matches!(m.kind, MKind::Virtual | MKind::Override),
                },
            );
        }
        if !has_ctor {
            // Synthesize the default constructor.
            let mut f = mb.method(cid, ".ctor", vec![], CilType::Void, MethodKind::Ctor);
            f.ret();
            let id = f.finish();
            st.methods.insert(
                (c.name, ".ctor"),
                MethodInfo {
                    id,
                    params: &[],
                    ret: &Ty::Void,
                    is_static: true, // receiver handled by NewObj; treated
                    // as non-callable directly
                    is_virtual: false,
                },
            );
        }
    }

    // Phase A4: the synthetic $Startup.Init for static initializers.
    let startup = mb.declare_class("$Startup", None);
    let init_id = mb
        .method(startup, "Init", vec![], CilType::Void, MethodKind::Static)
        .finish();
    st.add_class("$Startup", startup, None);

    // Phase B: bodies, each emitted with the same scope tables.
    let mut names = Names::default();
    for c in &prog.classes {
        for m in &c.methods {
            let id = st.methods[&(c.name, m.name)].id;
            let f = mb.rebuild_method(id);
            let g = Gen::new(f, prog, &st, &mut names, c.name, m)?;
            g.gen_body()?;
        }
    }
    // $Startup.Init body.
    {
        let f = mb.rebuild_method(init_id);
        let synthetic = MethodDecl {
            name: "Init",
            params: vec![],
            ret: Ty::Void,
            kind: MKind::Static,
            body: Block::default(),
            pos: Pos { line: 0, col: 0 },
        };
        let mut g = Gen::new(f, prog, &st, &mut names, "$Startup", &synthetic)?;
        for c in &prog.classes {
            for fd in &c.fields {
                if let Some(init) = fd.init {
                    g.class = c.name;
                    let ty = g.gen_expr(prog.expr(init))?;
                    g.convert(ty, &fd.ty, fd.pos)?;
                    let id = g.st.fields[&(c.name, fd.name)].id;
                    g.f.emit(Op::StSFld(id));
                }
            }
        }
        g.f.ret();
        g.f.finish();
    }

    Ok(mb.finish())
}

/// The value side of an assignment: an expression, or the `target op
/// value` a compound assignment stands for, read from the tree in place.
#[derive(Clone, Copy)]
enum Value<'t, 'src> {
    Expr(&'t Expr<'src>),
    Bin(BinKind, Operand<'t, 'src>, &'t Expr<'src>, Pos),
}

/// A binary operator's left operand or an assignment's target: an
/// expression of the tree, or the target of a compound assignment read
/// and written through the hidden locals its address parts were
/// evaluated into once.
#[derive(Clone, Copy)]
enum Operand<'t, 'src> {
    Tree(&'t Expr<'src>),
    /// `obj.name`, the object in local `obj`.
    Field {
        obj: u16,
        ty: TyRef<'t, 'src>,
        name: &'src str,
        pos: Pos,
    },
    Index(Indexed<'t, 'src>, Pos),
}

impl Operand<'_, '_> {
    fn pos(&self) -> Pos {
        match self {
            Operand::Tree(e) => e.pos(),
            Operand::Field { pos, .. } | Operand::Index(_, pos) => *pos,
        }
    }
}

/// An element access's array and indices: expressions of the tree, or
/// hidden locals (the array in `arr`, the `rank` indices from `idx` on).
#[derive(Clone, Copy)]
enum Indexed<'t, 'src> {
    Tree { arr: &'t Expr<'src>, idxs: Exprs },
    Temps {
        arr: u16,
        ty: TyRef<'t, 'src>,
        idx: u16,
        rank: u16,
    },
}

/// A method's names in scope, kept from one method to the next so that
/// emitting a body allocates no table of its own.
#[derive(Default)]
struct Names<'t, 'src> {
    /// name → (arg index, type); receiver occupies index 0 for instance.
    params: Vec<(&'src str, u16, TyRef<'t, 'src>)>,
    /// The locals of every open scope, innermost last.
    locals: Vec<(&'src str, u16, TyRef<'t, 'src>)>,
    /// Where each open scope starts in `locals`.
    scopes: Vec<usize>,
    /// (continue target, break target, try depth at loop entry)
    loops: Vec<(Label, Label, u32)>,
}

/// Per-method code generator.
struct Gen<'a, 't, 'm, 'src> {
    f: MethodBuilder<'m>,
    prog: &'t Program<'src>,
    st: &'t SymTab<'t, 'src>,
    names: &'a mut Names<'t, 'src>,
    class: &'src str,
    is_static: bool,
    ret: TyRef<'t, 'src>,
    try_depth: u32,
    /// Lazily created return plumbing for returns inside protected regions.
    ret_label: Option<Label>,
    ret_temp: Option<u16>,
    body: Block,
    pos: Pos,
}

impl<'a, 't, 'm, 'src> Gen<'a, 't, 'm, 'src> {
    fn new(
        f: MethodBuilder<'m>,
        prog: &'t Program<'src>,
        st: &'t SymTab<'t, 'src>,
        names: &'a mut Names<'t, 'src>,
        class: &'src str,
        m: &'t MethodDecl<'src>,
    ) -> Result<Gen<'a, 't, 'm, 'src>> {
        let is_static = m.kind == MKind::Static;
        let arg_base = if is_static { 0 } else { 1 };
        names.params.clear();
        names.locals.clear();
        names.loops.clear();
        names.scopes.clear();
        names.scopes.push(0);
        for (i, (t, n)) in m.params.iter().enumerate() {
            if names.params.iter().any(|&(pn, ..)| pn == *n) {
                return err(m.pos, format!("duplicate parameter {n}"));
            }
            names.params.push((n, (arg_base + i) as u16, t));
        }
        Ok(Gen {
            f,
            prog,
            st,
            names,
            class,
            is_static,
            ret: &m.ret,
            try_depth: 0,
            ret_label: None,
            ret_temp: None,
            body: m.body,
            pos: m.pos,
        })
    }

    fn ex(&self, id: ExprId) -> &'t Expr<'src> {
        self.prog.expr(id)
    }

    fn list(&self, list: Exprs) -> &'t [ExprId] {
        self.prog.exprs(list)
    }

    fn gen_body(mut self) -> Result<()> {
        self.gen_block(self.body)?;
        // Return plumbing epilogue.
        if let Some(l) = self.ret_label {
            self.f.place(l);
            if let Some(t) = self.ret_temp {
                self.f.ld_loc(t);
            }
            self.f.ret();
        } else {
            // Implicit final return (unreachable when the body returned on
            // every path; the verifier skips unreachable code).
            self.emit_default(self.ret)?;
            self.f.ret();
        }
        self.f.finish();
        Ok(())
    }

    fn emit_default(&mut self, ty: &Ty) -> Result<()> {
        match ty {
            Ty::Void => {}
            Ty::Int | Ty::Bool => self.f.ldc_i4(0),
            Ty::Long => self.f.ldc_i8(0),
            Ty::Float => self.f.ldc_r4(0.0),
            Ty::Double => self.f.ldc_r8(0.0),
            _ => self.f.emit(Op::LdNull),
        }
        Ok(())
    }

    // ---- scope helpers ----

    fn push_scope(&mut self) {
        self.names.scopes.push(self.names.locals.len());
    }

    fn pop_scope(&mut self) {
        if let Some(start) = self.names.scopes.pop() {
            self.names.locals.truncate(start);
        }
    }

    /// `scopes` is never empty, so `last` cannot miss here: it starts
    /// with the method's outermost scope, and every `pop_scope` follows
    /// its own `push_scope` in the same statement arm (a `?` between them
    /// only leaves scopes pushed).
    fn declare_local(&mut self, name: &'src str, ty: TyRef<'t, 'src>, pos: Pos) -> Result<u16> {
        let start = *self.names.scopes.last().expect("the outermost scope stays");
        if self.names.locals[start..].iter().any(|&(n, ..)| n == name) {
            return err(pos, format!("duplicate local {name}"));
        }
        let cty = self.st.cil_ty(ty, pos)?;
        let slot = self.f.local(cty);
        self.names.locals.push((name, slot, ty));
        Ok(slot)
    }

    fn lookup_local(&self, name: &str) -> Option<(u16, TyRef<'t, 'src>)> {
        let found = self.names.locals.iter().rev().find(|&&(n, ..)| n == name);
        found.map(|&(_, slot, ty)| (slot, ty))
    }

    fn lookup_param(&self, name: &str) -> Option<(u16, TyRef<'t, 'src>)> {
        let found = self.names.params.iter().find(|&&(n, ..)| n == name);
        found.map(|&(_, i, ty)| (i, ty))
    }

    /// Is `name`, unshadowed by a local or parameter, a declared class?
    fn names_class(&self, name: &str) -> bool {
        self.lookup_local(name).is_none()
            && self.lookup_param(name).is_none()
            && self.st.classes.contains_key(name)
    }

    fn hidden_temp(&mut self, ty: &Ty, pos: Pos) -> Result<u16> {
        let cty = self.st.cil_ty(ty, pos)?;
        Ok(self.f.local(cty))
    }

    // ---- conversions ----

    /// Implicit conversion; errors when not allowed.
    fn convert(&mut self, from: &Ty, to: &Ty, pos: Pos) -> Result<()> {
        if from == to {
            return Ok(());
        }
        match (from, to) {
            (Ty::Null, t) if is_ref(t) => {}
            (Ty::Int, Ty::Long) => self.f.conv(NumTy::I8),
            (Ty::Int, Ty::Float) | (Ty::Long, Ty::Float) => self.f.conv(NumTy::R4),
            (Ty::Int, Ty::Double) | (Ty::Long, Ty::Double) | (Ty::Float, Ty::Double) => {
                self.f.conv(NumTy::R8)
            }
            // `num_ty` maps every numeric type and `bool`, all the guard
            // admits.
            (f0, Ty::Object) if is_numeric(f0) || *f0 == Ty::Bool => {
                self.f
                    .emit(Op::BoxVal(num_ty(f0).expect("numeric or bool")));
            }
            (f0, Ty::Object) if is_ref(f0) => {}
            (Ty::Class(sub), Ty::Class(sup)) if self.st.is_subclass(sub, sup) => {}
            _ => {
                return err(pos, format!("cannot implicitly convert {from:?} to {to:?}"));
            }
        }
        Ok(())
    }

    fn unify(
        &self,
        a: TyRef<'t, 'src>,
        b: TyRef<'t, 'src>,
        pos: Pos,
    ) -> Result<TyRef<'t, 'src>> {
        if a == b {
            return Ok(a);
        }
        if *a == Ty::Null && is_ref(b) {
            return Ok(b);
        }
        if *b == Ty::Null && is_ref(a) {
            return Ok(a);
        }
        if let Some(t) = promote(a, b) {
            return Ok(t);
        }
        if is_ref(a) && is_ref(b) {
            if let (Ty::Class(x), Ty::Class(y)) = (a, b) {
                if self.st.is_subclass(x, y) {
                    return Ok(b);
                }
                if self.st.is_subclass(y, x) {
                    return Ok(a);
                }
            }
            return Ok(&Ty::Object);
        }
        err(pos, format!("incompatible branches {a:?} / {b:?}"))
    }

    // ---- expression emission ----

    fn gen_expr(&mut self, e: &'t Expr<'src>) -> Result<TyRef<'t, 'src>> {
        match e {
            Expr::Int(v) => {
                self.f.ldc_i4(*v);
                Ok(&Ty::Int)
            }
            Expr::Long(v) => {
                self.f.ldc_i8(*v);
                Ok(&Ty::Long)
            }
            Expr::Float(v) => {
                self.f.ldc_r4(*v);
                Ok(&Ty::Float)
            }
            Expr::Double(v) => {
                self.f.ldc_r8(*v);
                Ok(&Ty::Double)
            }
            Expr::Bool(v) => {
                self.f.ldc_i4(*v as i32);
                Ok(&Ty::Bool)
            }
            Expr::Str(s) => {
                self.f.ld_str(s);
                Ok(&Ty::Str)
            }
            Expr::Null => {
                self.f.emit(Op::LdNull);
                Ok(&Ty::Null)
            }
            Expr::This(p) => {
                if self.is_static {
                    return err(*p, "this in static context");
                }
                self.f.ld_arg(0);
                Ok(self.st.class_ty(self.class))
            }
            Expr::Ident(name, p) => {
                if let Some((slot, ty)) = self.lookup_local(name) {
                    self.f.ld_loc(slot);
                    return Ok(ty);
                }
                if let Some((idx, ty)) = self.lookup_param(name) {
                    self.f.ld_arg(idx);
                    return Ok(ty);
                }
                if let Some(fi) = self.st.resolve_field(self.class, name) {
                    if fi.is_static {
                        self.f.emit(Op::LdSFld(fi.id));
                    } else {
                        if self.is_static {
                            return err(*p, format!("instance field {name} in static context"));
                        }
                        self.f.ld_arg(0);
                        self.f.emit(Op::LdFld(fi.id));
                    }
                    return Ok(fi.ty);
                }
                err(*p, format!("unknown name {name}"))
            }
            Expr::Field { obj, name, pos } => self.gen_field_load(self.ex(*obj), name, *pos),
            Expr::Index { arr, idxs, pos } => {
                let parts = Indexed::Tree { arr: self.ex(*arr), idxs: *idxs };
                self.gen_index_load(parts, *pos)
            }
            Expr::Call { target, name, args, pos } => self.gen_call(*target, name, *args, *pos),
            Expr::New { class, args, pos } => {
                let mi = match self.st.resolve_method(class, ".ctor") {
                    Some((owner, mi)) if owner == *class => mi,
                    _ => return err(*pos, format!("unknown class {class}")),
                };
                if mi.params.len() != args.len() {
                    return err(*pos, format!("{class} constructor takes {} args", mi.params.len()));
                }
                for (&a, (pt, _)) in self.list(*args).iter().zip(mi.params) {
                    let a = self.ex(a);
                    let at = self.gen_expr(a)?;
                    self.convert(at, pt, a.pos())?;
                }
                self.f.emit(Op::NewObj(mi.id));
                Ok(self.st.class_ty(class))
            }
            Expr::NewArray { ty, dims, extra_ranks, pos } => {
                let (Ty::Array(elem) | Ty::Multi(elem, _)) = ty else {
                    unreachable!("the parser types a new array as an array")
                };
                let kind = self.st.elem_kind(elem, *pos)?;
                let dims = self.list(*dims);
                if dims.len() == 1 {
                    let d = self.ex(dims[0]);
                    let it = self.gen_expr(d)?;
                    self.convert_index(it, d.pos())?;
                    self.f.emit(Op::NewArr(kind));
                } else {
                    if *extra_ranks > 0 {
                        return err(*pos, "jagged and multidimensional cannot be mixed");
                    }
                    if dims.len() > 3 {
                        return err(*pos, "multidimensional arrays support rank 2..=3");
                    }
                    for &d in dims {
                        let d = self.ex(d);
                        let it = self.gen_expr(d)?;
                        self.convert_index(it, d.pos())?;
                    }
                    self.f.emit(Op::NewMultiArr { kind, rank: dims.len() as u8 });
                }
                Ok(ty)
            }
            Expr::Cast { ty, expr, pos } => {
                let from = self.gen_expr(self.ex(*expr))?;
                self.gen_cast(from, ty, *pos)?;
                Ok(ty)
            }
            Expr::Un { op, expr, pos } => {
                let t = self.gen_expr(self.ex(*expr))?;
                match op {
                    UnKind::Neg if is_numeric(t) => {
                        self.f.un(hpcnet_cil::UnOp::Neg);
                        Ok(t)
                    }
                    UnKind::BitNot if matches!(t, Ty::Int | Ty::Long) => {
                        self.f.un(hpcnet_cil::UnOp::Not);
                        Ok(t)
                    }
                    UnKind::Not if *t == Ty::Bool => {
                        self.f.ldc_i4(0);
                        self.f.cmp(CmpOp::Eq);
                        Ok(&Ty::Bool)
                    }
                    _ => err(*pos, format!("bad operand {t:?} for {op:?}")),
                }
            }
            Expr::Bin { op: op @ (BinKind::AndAnd | BinKind::OrOr), lhs, rhs, pos } => {
                self.gen_short_circuit(*op == BinKind::OrOr, self.ex(*lhs), self.ex(*rhs), *pos)
            }
            Expr::Bin { op, lhs, rhs, pos } => {
                self.gen_bin(*op, Operand::Tree(self.ex(*lhs)), self.ex(*rhs), *pos)
            }
            Expr::Cond { cond, then, els, pos } => {
                let (then, els) = (self.ex(*then), self.ex(*els));
                let l_else = self.f.new_label();
                let l_end = self.f.new_label();
                self.gen_branch(self.ex(*cond), l_else, false)?;
                let tt = self.gen_expr(then)?;
                let then_end = self.f.here();
                self.f.br(l_end);
                self.f.place(l_else);
                let et = self.gen_expr(els)?;
                let ty = self.unify(tt, et, *pos)?;
                self.at_left(then_end, |g| g.convert(tt, ty, then.pos()))?;
                self.convert(et, ty, els.pos())?;
                self.f.place(l_end);
                Ok(ty)
            }
        }
    }

    /// Emit a left operand: an expression, or a compound assignment's
    /// target read through its hidden locals.
    fn gen_operand(&mut self, o: Operand<'t, 'src>) -> Result<TyRef<'t, 'src>> {
        match o {
            Operand::Tree(e) => self.gen_expr(e),
            Operand::Field { obj, ty, name, pos } => {
                self.f.ld_loc(obj);
                self.field_of(ty, name, pos)
            }
            Operand::Index(parts, pos) => self.gen_index_load(parts, pos),
        }
    }

    /// Emit an element access's array and indices, checked against the
    /// array's type; returns the element type and, for a
    /// multidimensional array, its rank.
    fn gen_index_parts(
        &mut self,
        parts: Indexed<'t, 'src>,
        pos: Pos,
    ) -> Result<(TyRef<'t, 'src>, Option<u8>)> {
        let (aty, n) = match parts {
            Indexed::Tree { arr, idxs } => (self.gen_expr(arr)?, idxs.len()),
            Indexed::Temps { arr, ty, rank, .. } => {
                self.f.ld_loc(arr);
                (ty, rank as usize)
            }
        };
        let (elem, rank) = match (aty, n) {
            (Ty::Array(elem), 1) => (&**elem, None),
            (Ty::Multi(elem, r), n) if n == *r as usize => (&**elem, Some(*r)),
            _ => return err(pos, format!("bad index on {aty:?}")),
        };
        match parts {
            Indexed::Tree { idxs, .. } => {
                for &idx in self.list(idxs) {
                    let idx = self.ex(idx);
                    let it = self.gen_expr(idx)?;
                    self.convert_index(it, idx.pos())?;
                }
            }
            Indexed::Temps { idx, rank, .. } => {
                for k in 0..rank {
                    self.f.ld_loc(idx + k);
                }
            }
        }
        Ok((elem, rank))
    }

    fn gen_index_load(
        &mut self,
        parts: Indexed<'t, 'src>,
        pos: Pos,
    ) -> Result<TyRef<'t, 'src>> {
        let (elem, rank) = self.gen_index_parts(parts, pos)?;
        let kind = self.st.elem_kind(elem, pos)?;
        self.f.emit(match rank {
            None => Op::LdElem(kind),
            Some(rank) => Op::LdElemMulti { kind, rank },
        });
        Ok(elem)
    }

    fn gen_index_store(
        &mut self,
        parts: Indexed<'t, 'src>,
        value: Value<'t, 'src>,
        pos: Pos,
    ) -> Result<()> {
        let (elem, rank) = self.gen_index_parts(parts, pos)?;
        self.gen_value(value, elem)?;
        let kind = self.st.elem_kind(elem, pos)?;
        self.f.emit(match rank {
            None => Op::StElem(kind),
            Some(rank) => Op::StElemMulti { kind, rank },
        });
        Ok(())
    }

    fn convert_index(&mut self, ty: &Ty, pos: Pos) -> Result<()> {
        match ty {
            Ty::Int => Ok(()),
            Ty::Long => {
                self.f.conv(NumTy::I4);
                Ok(())
            }
            _ => err(pos, format!("index must be int, got {ty:?}")),
        }
    }

    fn gen_cast(&mut self, from: &Ty, to: &Ty, pos: Pos) -> Result<()> {
        if from == to {
            return Ok(());
        }
        // `num_ty` maps every numeric type and `bool`: each of the three
        // reads below is of a type its arm's guard admits.
        match (from, to) {
            (f0, t0) if is_numeric(f0) && is_numeric(t0) => {
                self.f.conv(num_ty(t0).expect("numeric or bool"));
            }
            (Ty::Object, t0) if is_numeric(t0) || *t0 == Ty::Bool => {
                self.f
                    .emit(Op::UnboxVal(num_ty(t0).expect("numeric or bool")));
            }
            (f0, Ty::Object) if is_numeric(f0) || *f0 == Ty::Bool => {
                self.f
                    .emit(Op::BoxVal(num_ty(f0).expect("numeric or bool")));
            }
            (f0, Ty::Object) if is_ref(f0) => {}
            (Ty::Object | Ty::Class(_), Ty::Class(c)) => {
                let id = *self
                    .st
                    .classes
                    .get(c)
                    .ok_or(())
                    .or_else(|_| err(pos, format!("unknown class {c}")))?;
                self.f.emit(Op::CastClass(id));
            }
            _ => return err(pos, format!("cannot cast {from:?} to {to:?}")),
        }
        Ok(())
    }

    /// Run `emit` after the right operand and move the code it emits
    /// back to `left_end`, the end of the left operand: a conversion of
    /// the left operand is known only once both operands are typed.
    fn at_left(
        &mut self,
        left_end: u32,
        emit: impl FnOnce(&mut Self) -> Result<()>,
    ) -> Result<()> {
        let mark = self.f.here();
        emit(self)?;
        self.f.move_since(mark, left_end);
        Ok(())
    }

    /// The value of `lhs && rhs` (`or` false) or `lhs || rhs` (`or`
    /// true), via short-circuit branches: `&&` jumps to 0 when its left
    /// side is false, `||` to 1 when it is true.
    fn gen_short_circuit(
        &mut self,
        or: bool,
        lhs: &'t Expr<'src>,
        rhs: &'t Expr<'src>,
        pos: Pos,
    ) -> Result<TyRef<'t, 'src>> {
        let l_short = self.f.new_label();
        let l_end = self.f.new_label();
        self.gen_branch(lhs, l_short, or)?;
        if *self.gen_expr(rhs)? != Ty::Bool {
            let name = if or { "||" } else { "&&" };
            return err(pos, format!("{name} needs bool operands"));
        }
        self.f.br(l_end);
        self.f.place(l_short);
        self.f.ldc_i4(or as i32);
        self.f.place(l_end);
        Ok(&Ty::Bool)
    }

    /// A binary operator other than `&&` and `||`.
    fn gen_bin(
        &mut self,
        op: BinKind,
        lhs: Operand<'t, 'src>,
        rhs: &'t Expr<'src>,
        pos: Pos,
    ) -> Result<TyRef<'t, 'src>> {
        use BinKind::*;
        let lt = self.gen_operand(lhs)?;
        let left_end = self.f.here();
        let rt = self.gen_expr(rhs)?;
        // String concatenation.
        if op == Add && (*lt == Ty::Str || *rt == Ty::Str) {
            self.at_left(left_end, |g| g.to_string_on_stack(lt, lhs.pos()))?;
            self.to_string_on_stack(rt, rhs.pos())?;
            self.f.intrinsic(Intrinsic::StrConcat);
            return Ok(&Ty::Str);
        }
        if let Some(cmp) = cmp_op(op) {
            self.cmp_operands(op, lt, rt, left_end, pos)?;
            self.f.cmp(cmp);
            return Ok(&Ty::Bool);
        }
        let (bin, t) = match op {
            Shl | Shr => {
                if !matches!(lt, Ty::Int | Ty::Long) || *rt != Ty::Int {
                    return err(pos, format!("shift on {lt:?} by {rt:?}"));
                }
                self.f.bin(if op == Shl { BinOp::Shl } else { BinOp::Shr });
                return Ok(lt);
            }
            And | Or | Xor => {
                let t = match promote(lt, rt) {
                    Some(t) if matches!(t, Ty::Int | Ty::Long) => t,
                    _ if *lt == Ty::Bool && *rt == Ty::Bool => &Ty::Bool,
                    _ => return err(pos, format!("bitwise on {lt:?} and {rt:?}")),
                };
                let bin = match op {
                    And => BinOp::And,
                    Or => BinOp::Or,
                    _ => BinOp::Xor,
                };
                (bin, t)
            }
            _ => {
                let Some(t) = promote(lt, rt) else {
                    return err(pos, format!("arithmetic on {lt:?} and {rt:?}"));
                };
                let bin = match op {
                    Add => BinOp::Add,
                    Sub => BinOp::Sub,
                    Mul => BinOp::Mul,
                    Div => BinOp::Div,
                    // `&&` and `||` never come here, and the returns above
                    // take the comparisons, the shifts and the bitwise
                    // operators: only `%` is left.
                    _ => BinOp::Rem,
                };
                (bin, t)
            }
        };
        self.at_left(left_end, |g| g.convert(lt, t, lhs.pos()))?;
        self.convert(rt, t, rhs.pos())?;
        self.f.bin(bin);
        Ok(t)
    }

    /// Check a comparison of two emitted operands, the left one ending at
    /// `left_end`, and convert numeric operands to their common type.
    /// Only `==` and `!=` compare `bool`s or references, as in C#.
    fn cmp_operands(
        &mut self,
        op: BinKind,
        lt: &Ty,
        rt: &Ty,
        left_end: u32,
        pos: Pos,
    ) -> Result<()> {
        if let Some(t) = promote(lt, rt) {
            self.at_left(left_end, |g| g.convert(lt, t, pos))?;
            return self.convert(rt, t, pos);
        }
        let equality = matches!(op, BinKind::Eq | BinKind::Ne);
        if equality && ((*lt == Ty::Bool && *rt == Ty::Bool) || (is_ref(lt) && is_ref(rt))) {
            return Ok(());
        }
        let rule = if equality { "equality" } else { "ordered compare" };
        err(pos, format!("{rule} on {lt:?} and {rt:?}"))
    }

    fn to_string_on_stack(&mut self, ty: &Ty, pos: Pos) -> Result<()> {
        match ty {
            Ty::Str => Ok(()),
            Ty::Int | Ty::Bool => {
                self.f.intrinsic(Intrinsic::StrFromI4);
                Ok(())
            }
            Ty::Long => {
                self.f.intrinsic(Intrinsic::StrFromI8);
                Ok(())
            }
            Ty::Float => {
                self.f.conv(NumTy::R8);
                self.f.intrinsic(Intrinsic::StrFromR8);
                Ok(())
            }
            Ty::Double => {
                self.f.intrinsic(Intrinsic::StrFromR8);
                Ok(())
            }
            _ => err(pos, format!("cannot concatenate {ty:?} to string")),
        }
    }

    /// Emit a conditional branch: jump to `target` when `cond` evaluates
    /// to `jump_if_true`. Emits fused compare-branches for comparisons —
    /// the canonical loop shape the engines' BCE pattern expects.
    fn gen_branch(&mut self, cond: &'t Expr<'src>, target: Label, jump_if_true: bool) -> Result<()> {
        if let Expr::Bin { op, lhs, rhs, pos } = cond {
            if let Some(cmp) = cmp_op(*op) {
                let lt = self.gen_expr(self.ex(*lhs))?;
                let left_end = self.f.here();
                let rt = self.gen_expr(self.ex(*rhs))?;
                self.cmp_operands(*op, lt, rt, left_end, *pos)?;
                self.f
                    .br_cmp(if jump_if_true { cmp } else { cmp.negate() }, target);
                return Ok(());
            }
        }
        match cond {
            Expr::Un { op: UnKind::Not, expr, .. } => {
                self.gen_branch(self.ex(*expr), target, !jump_if_true)
            }
            Expr::Bin { op: BinKind::AndAnd, lhs, rhs, .. } => {
                let (lhs, rhs) = (self.ex(*lhs), self.ex(*rhs));
                if jump_if_true {
                    // both must hold: fail-fast past the jump
                    let skip = self.f.new_label();
                    self.gen_branch(lhs, skip, false)?;
                    self.gen_branch(rhs, target, true)?;
                    self.f.place(skip);
                } else {
                    self.gen_branch(lhs, target, false)?;
                    self.gen_branch(rhs, target, false)?;
                }
                Ok(())
            }
            Expr::Bin { op: BinKind::OrOr, lhs, rhs, .. } => {
                let (lhs, rhs) = (self.ex(*lhs), self.ex(*rhs));
                if jump_if_true {
                    self.gen_branch(lhs, target, true)?;
                    self.gen_branch(rhs, target, true)?;
                } else {
                    let skip = self.f.new_label();
                    self.gen_branch(lhs, skip, true)?;
                    self.gen_branch(rhs, target, false)?;
                    self.f.place(skip);
                }
                Ok(())
            }
            Expr::Bool(v) => {
                if *v == jump_if_true {
                    self.f.br(target);
                }
                Ok(())
            }
            other => {
                let t = self.gen_expr(other)?;
                if *t != Ty::Bool {
                    return err(other.pos(), format!("condition must be bool, got {t:?}"));
                }
                if jump_if_true {
                    self.f.br_true(target);
                } else {
                    self.f.br_false(target);
                }
                Ok(())
            }
        }
    }

    fn gen_field_load(
        &mut self,
        obj: &'t Expr<'src>,
        name: &'src str,
        pos: Pos,
    ) -> Result<TyRef<'t, 'src>> {
        // Math constants and static fields through a class name.
        if let &Expr::Ident(cname, _) = obj {
            if cname == "Math" && name == "PI" {
                self.f.ldc_r8(std::f64::consts::PI);
                return Ok(&Ty::Double);
            }
            if cname == "Math" && name == "E" {
                self.f.ldc_r8(std::f64::consts::E);
                return Ok(&Ty::Double);
            }
            if self.names_class(cname) {
                return match self.st.resolve_field(cname, name) {
                    Some(fi) if fi.is_static => {
                        self.f.emit(Op::LdSFld(fi.id));
                        Ok(fi.ty)
                    }
                    _ => err(pos, format!("no static field {cname}.{name}")),
                };
            }
        }
        let oty = self.gen_expr(obj)?;
        self.field_of(oty, name, pos)
    }

    /// Load field `name` of the emitted object of type `oty`.
    fn field_of(
        &mut self,
        oty: TyRef<'t, 'src>,
        name: &'src str,
        pos: Pos,
    ) -> Result<TyRef<'t, 'src>> {
        match (oty, name) {
            (Ty::Array(_), "Length") => {
                self.f.emit(Op::LdLen);
                Ok(&Ty::Int)
            }
            (Ty::Multi(..), "Length") => {
                // Total element count: product of dimension lengths is not
                // directly exposed; Length maps to GetLength(0) semantics
                // would be wrong, so reject to avoid silent surprises.
                err(pos, "use GetLength(d) on multidimensional arrays")
            }
            (Ty::Str, "Length") => {
                self.f.intrinsic(Intrinsic::StrLen);
                Ok(&Ty::Int)
            }
            (Ty::Class(c), _) => match self.st.resolve_field(c, name) {
                Some(fi) if !fi.is_static => {
                    self.f.emit(Op::LdFld(fi.id));
                    Ok(fi.ty)
                }
                Some(_) => err(pos, format!("{name} is static; access via {c}.{name}")),
                None => err(pos, format!("no field {name} on {c}")),
            },
            _ => err(pos, format!("no field {name} on {oty:?}")),
        }
    }

    fn gen_call(
        &mut self,
        target: Option<ExprId>,
        name: &'src str,
        args: Exprs,
        pos: Pos,
    ) -> Result<TyRef<'t, 'src>> {
        if let Some(t) = target {
            let t = self.ex(t);
            if let &Expr::Ident(cname, _) = t {
                if BUILTIN_CLASSES.contains(&cname) {
                    return self.gen_builtin(cname, name, args, pos);
                }
                if self.names_class(cname) {
                    let mi = match self.st.resolve_method(cname, name) {
                        Some((_, mi)) if mi.is_static => mi,
                        _ => return err(pos, format!("no static method {cname}.{name}")),
                    };
                    return self.emit_invocation(mi, false, args, pos);
                }
            }
            let oty = self.gen_expr(t)?;
            // GetLength(d) on multi arrays.
            if name == "GetLength" {
                if let Ty::Multi(_, rank) = oty {
                    let dim = match *self.list(args) {
                        [a] => match *self.ex(a) {
                            Expr::Int(d) if d >= 0 && (d as u8) < *rank => Some(d as u8),
                            _ => None,
                        },
                        _ => None,
                    };
                    let Some(dim) = dim else {
                        return err(pos, "GetLength takes a constant in-range dimension");
                    };
                    self.f.emit(Op::LdMultiLen { dim });
                    return Ok(&Ty::Int);
                }
                return err(pos, "GetLength on non-multidimensional array");
            }
            let Ty::Class(c) = oty else {
                return err(pos, format!("no method {name} on {oty:?}"));
            };
            let mi = match self.st.resolve_method(c, name) {
                Some((_, mi)) if !mi.is_static => mi,
                _ => return err(pos, format!("no method {name} on {c}")),
            };
            self.emit_invocation(mi, true, args, pos)
        } else {
            let mi = match self.st.resolve_method(self.class, name) {
                Some((_, mi)) => mi,
                None => return err(pos, format!("unknown method {name}")),
            };
            if !mi.is_static {
                if self.is_static {
                    return err(pos, format!("instance method {name} in static context"));
                }
                self.f.ld_arg(0);
            }
            self.emit_invocation(mi, !mi.is_static, args, pos)
        }
    }

    /// Emit the arguments and the call; `has_receiver` says whether a
    /// receiver was emitted before them.
    fn emit_invocation(
        &mut self,
        mi: &MethodInfo<'t, 'src>,
        has_receiver: bool,
        args: Exprs,
        pos: Pos,
    ) -> Result<TyRef<'t, 'src>> {
        if mi.params.len() != args.len() {
            return err(pos, format!("expected {} arguments", mi.params.len()));
        }
        for (&a, (pt, _)) in self.list(args).iter().zip(mi.params) {
            let a = self.ex(a);
            let at = self.gen_expr(a)?;
            self.convert(at, pt, a.pos())?;
        }
        if has_receiver && mi.is_virtual {
            self.f.call_virt(mi.id);
        } else {
            self.f.call(mi.id);
        }
        Ok(mi.ret)
    }

    fn gen_builtin(
        &mut self,
        class: &str,
        name: &str,
        args: Exprs,
        pos: Pos,
    ) -> Result<TyRef<'t, 'src>> {
        use Intrinsic::*;
        let args = self.list(args);
        let argn = args.len();
        macro_rules! want {
            ($n:expr) => {
                if argn != $n {
                    return err(pos, format!("{class}.{name} takes {} argument(s)", $n));
                }
            };
        }
        // One double argument, double result.
        let unary_r8 = |g: &mut Self, i: Intrinsic, args: &[ExprId]| -> Result<TyRef<'t, 'src>> {
            let a = g.ex(args[0]);
            let t = g.gen_expr(a)?;
            g.convert(t, &Ty::Double, a.pos())?;
            g.f.intrinsic(i);
            Ok(&Ty::Double)
        };
        match (class, name) {
            ("Math", "Abs") => {
                want!(1);
                let t = self.gen_expr(self.ex(args[0]))?;
                let i = match t {
                    Ty::Int => AbsI4,
                    Ty::Long => AbsI8,
                    Ty::Float => AbsR4,
                    Ty::Double => AbsR8,
                    _ => return err(pos, "Math.Abs needs a numeric argument"),
                };
                self.f.intrinsic(i);
                Ok(t)
            }
            ("Math", "Max" | "Min") => {
                want!(2);
                let lt = self.gen_expr(self.ex(args[0]))?;
                let left_end = self.f.here();
                let rt = self.gen_expr(self.ex(args[1]))?;
                let Some(t) = promote(lt, rt) else {
                    return err(pos, "Math.Max/Min need numeric arguments");
                };
                self.at_left(left_end, |g| g.convert(lt, t, g.ex(args[0]).pos()))?;
                self.convert(rt, t, self.ex(args[1]).pos())?;
                let i = match (name, t) {
                    ("Max", Ty::Int) => MaxI4,
                    ("Max", Ty::Long) => MaxI8,
                    ("Max", Ty::Float) => MaxR4,
                    ("Max", _) => MaxR8,
                    (_, Ty::Int) => MinI4,
                    (_, Ty::Long) => MinI8,
                    (_, Ty::Float) => MinR4,
                    _ => MinR8,
                };
                self.f.intrinsic(i);
                Ok(t)
            }
            ("Math", "Sin") => {
                want!(1);
                unary_r8(self, Sin, args)
            }
            ("Math", "Cos") => {
                want!(1);
                unary_r8(self, Cos, args)
            }
            ("Math", "Tan") => {
                want!(1);
                unary_r8(self, Tan, args)
            }
            ("Math", "Asin") => {
                want!(1);
                unary_r8(self, Asin, args)
            }
            ("Math", "Acos") => {
                want!(1);
                unary_r8(self, Acos, args)
            }
            ("Math", "Atan") => {
                want!(1);
                unary_r8(self, Atan, args)
            }
            ("Math", "Floor") => {
                want!(1);
                unary_r8(self, Floor, args)
            }
            ("Math", "Ceiling" | "Ceil") => {
                want!(1);
                unary_r8(self, Ceil, args)
            }
            ("Math", "Sqrt") => {
                want!(1);
                unary_r8(self, Sqrt, args)
            }
            ("Math", "Exp") => {
                want!(1);
                unary_r8(self, Exp, args)
            }
            ("Math", "Log") => {
                want!(1);
                unary_r8(self, Log, args)
            }
            ("Math", "Rint") => {
                want!(1);
                unary_r8(self, Rint, args)
            }
            ("Math", "Atan2" | "Pow") => {
                want!(2);
                for &a in args {
                    let a = self.ex(a);
                    let t = self.gen_expr(a)?;
                    self.convert(t, &Ty::Double, a.pos())?;
                }
                self.f.intrinsic(if name == "Atan2" { Atan2 } else { Pow });
                Ok(&Ty::Double)
            }
            ("Math", "Random") => {
                want!(0);
                self.f.intrinsic(Random);
                Ok(&Ty::Double)
            }
            ("Math", "Round") => {
                want!(1);
                let t = self.gen_expr(self.ex(args[0]))?;
                match t {
                    Ty::Float => {
                        self.f.intrinsic(RoundR4);
                        Ok(&Ty::Int)
                    }
                    _ => {
                        self.convert(t, &Ty::Double, self.ex(args[0]).pos())?;
                        self.f.intrinsic(RoundR8);
                        Ok(&Ty::Long)
                    }
                }
            }
            ("Console", "WriteLine") => {
                want!(1);
                let t = self.gen_expr(self.ex(args[0]))?;
                match t {
                    Ty::Str => self.f.intrinsic(ConsoleWriteLineStr),
                    Ty::Int | Ty::Bool => self.f.intrinsic(ConsoleWriteLineI4),
                    Ty::Long => {
                        self.f.intrinsic(StrFromI8);
                        self.f.intrinsic(ConsoleWriteLineStr);
                    }
                    Ty::Float | Ty::Double => {
                        self.convert(t, &Ty::Double, self.ex(args[0]).pos())?;
                        self.f.intrinsic(ConsoleWriteLineR8);
                    }
                    other => return err(pos, format!("cannot WriteLine {other:?}")),
                }
                Ok(&Ty::Void)
            }
            ("Sys", "Millis") => {
                want!(0);
                self.f.intrinsic(CurrentTimeMillis);
                Ok(&Ty::Long)
            }
            ("Sys", "Nanos") => {
                want!(0);
                self.f.intrinsic(NanoTime);
                Ok(&Ty::Long)
            }
            ("Sys", "Start") => {
                want!(1);
                let t = self.gen_expr(self.ex(args[0]))?;
                self.convert(t, &Ty::Object, self.ex(args[0]).pos())?;
                self.f.intrinsic(ThreadStart);
                Ok(&Ty::Int)
            }
            ("Sys", "Join") => {
                want!(1);
                let t = self.gen_expr(self.ex(args[0]))?;
                if *t != Ty::Int {
                    return err(pos, "Sys.Join takes the int handle from Sys.Start");
                }
                self.f.intrinsic(ThreadJoin);
                Ok(&Ty::Void)
            }
            ("Sys", "Yield") => {
                want!(0);
                self.f.intrinsic(ThreadYield);
                Ok(&Ty::Void)
            }
            ("Monitor", "Enter" | "Exit") => {
                want!(1);
                let t = self.gen_expr(self.ex(args[0]))?;
                self.convert(t, &Ty::Object, self.ex(args[0]).pos())?;
                self.f.intrinsic(if name == "Enter" { MonitorEnter } else { MonitorExit });
                Ok(&Ty::Void)
            }
            ("Serial", "Write") => {
                want!(1);
                let t = self.gen_expr(self.ex(args[0]))?;
                self.convert(t, &Ty::Object, self.ex(args[0]).pos())?;
                self.f.intrinsic(SerializeObj);
                Ok(&Ty::Int)
            }
            ("Serial", "Read") => {
                want!(0);
                self.f.intrinsic(DeserializeObj);
                Ok(&Ty::Object)
            }
            _ => err(pos, format!("unknown builtin {class}.{name}")),
        }
    }

    // ---- statements ----

    fn gen_block(&mut self, block: Block) -> Result<()> {
        let prog = self.prog;
        for &s in prog.block(block) {
            self.gen_stmt(prog.stmt(s))?;
        }
        Ok(())
    }

    /// A block in a scope of its own.
    fn gen_scoped(&mut self, block: Block) -> Result<()> {
        self.push_scope();
        self.gen_block(block)?;
        self.pop_scope();
        Ok(())
    }

    fn gen_stmt(&mut self, s: &'t Stmt<'src>) -> Result<()> {
        match s {
            Stmt::Local { ty, name, init, pos } => {
                let slot = self.declare_local(name, ty, *pos)?;
                if let Some(e) = *init {
                    let e = self.ex(e);
                    let et = self.gen_expr(e)?;
                    self.convert(et, ty, e.pos())?;
                    self.f.st_loc(slot);
                }
                Ok(())
            }
            Stmt::Expr(e) => {
                let t = self.gen_expr(self.ex(*e))?;
                if *t != Ty::Void {
                    self.f.emit(Op::Pop);
                }
                Ok(())
            }
            Stmt::Assign { target, op, value, pos } => {
                let (target, value) = (self.ex(*target), self.ex(*value));
                match op {
                    None => self.gen_plain_assign(Operand::Tree(target), Value::Expr(value), *pos),
                    Some(binop) => self.gen_compound_assign(target, *binop, value, *pos),
                }
            }
            Stmt::IncDec { target, inc, pos } => {
                let op = if *inc { BinKind::Add } else { BinKind::Sub };
                self.gen_compound_assign(self.ex(*target), op, &Expr::Int(1), *pos)
            }
            Stmt::If { cond, then, els } => {
                let l_else = self.f.new_label();
                self.gen_branch(self.ex(*cond), l_else, false)?;
                self.gen_scoped(*then)?;
                match els {
                    Some(eb) => {
                        let l_end = self.f.new_label();
                        self.f.br(l_end);
                        self.f.place(l_else);
                        self.gen_scoped(*eb)?;
                        self.f.place(l_end);
                    }
                    None => self.f.place(l_else),
                }
                Ok(())
            }
            Stmt::While { cond, body } => {
                let head = self.f.new_label();
                let exit = self.f.new_label();
                self.f.place(head);
                self.gen_branch(self.ex(*cond), exit, false)?;
                self.names.loops.push((head, exit, self.try_depth));
                self.gen_scoped(*body)?;
                self.names.loops.pop();
                self.jump(head);
                self.f.place(exit);
                Ok(())
            }
            Stmt::DoWhile { body, cond } => {
                let head = self.f.new_label();
                let check = self.f.new_label();
                let exit = self.f.new_label();
                self.f.place(head);
                self.names.loops.push((check, exit, self.try_depth));
                self.gen_scoped(*body)?;
                self.names.loops.pop();
                self.f.place(check);
                self.gen_branch(self.ex(*cond), head, true)?;
                self.f.place(exit);
                Ok(())
            }
            Stmt::For { init, cond, update, body } => {
                self.push_scope();
                if let Some(i) = *init {
                    self.gen_stmt(self.prog.stmt(i))?;
                }
                let head = self.f.new_label();
                let cont = self.f.new_label();
                let exit = self.f.new_label();
                self.f.place(head);
                if let Some(c) = *cond {
                    self.gen_branch(self.ex(c), exit, false)?;
                }
                self.names.loops.push((cont, exit, self.try_depth));
                self.gen_scoped(*body)?;
                self.names.loops.pop();
                self.f.place(cont);
                if let Some(u) = *update {
                    self.gen_stmt(self.prog.stmt(u))?;
                }
                self.jump(head);
                self.f.place(exit);
                self.pop_scope();
                Ok(())
            }
            Stmt::Break(pos) => {
                let (_, exit, loop_depth) = *self
                    .names
                    .loops
                    .last()
                    .ok_or(())
                    .or_else(|_| err(*pos, "break outside loop"))?;
                self.jump_crossing(exit, loop_depth);
                Ok(())
            }
            Stmt::Continue(pos) => {
                let (cont, _, loop_depth) = *self
                    .names
                    .loops
                    .last()
                    .ok_or(())
                    .or_else(|_| err(*pos, "continue outside loop"))?;
                self.jump_crossing(cont, loop_depth);
                Ok(())
            }
            Stmt::Return(value, pos) => {
                let ret = self.ret;
                match *value {
                    Some(e) => {
                        if *ret == Ty::Void {
                            return err(*pos, "void method returns a value");
                        }
                        let e = self.ex(e);
                        let t = self.gen_expr(e)?;
                        self.convert(t, ret, e.pos())?;
                    }
                    None => {
                        if *ret != Ty::Void {
                            return err(*pos, "non-void method needs a return value");
                        }
                    }
                }
                if self.try_depth == 0 {
                    self.f.ret();
                } else {
                    // `ret` inside a protected region must leave (running
                    // finallys) to a shared epilogue.
                    let l = match self.ret_label {
                        Some(l) => l,
                        None => {
                            let l = self.f.new_label();
                            self.ret_label = Some(l);
                            if *ret != Ty::Void {
                                let tmp = self.hidden_temp(ret, *pos)?;
                                self.ret_temp = Some(tmp);
                            }
                            l
                        }
                    };
                    if let Some(tmp) = self.ret_temp {
                        self.f.st_loc(tmp);
                    }
                    self.f.leave(l);
                }
                Ok(())
            }
            Stmt::Throw(e, pos) => {
                let t = self.gen_expr(self.ex(*e))?;
                match t {
                    Ty::Class(_) | Ty::Object => {}
                    other => return err(*pos, format!("cannot throw {other:?}")),
                }
                self.f.emit(Op::Throw);
                Ok(())
            }
            Stmt::Try { body, catch, finally } => self.gen_try(*body, *catch, *finally),
            Stmt::Lock { obj, body, pos } => {
                let oty = self.gen_expr(self.ex(*obj))?;
                if !is_ref(oty) {
                    return err(*pos, "lock needs a reference");
                }
                // Allocated after the object's code, which is what types
                // it: expressions declare no locals, so the temp's slot is
                // the next one either way.
                let tmp = self.hidden_temp(oty, *pos)?;
                self.f.st_loc(tmp);
                self.f.ld_loc(tmp);
                self.f.intrinsic(Intrinsic::MonitorEnter);
                let (ts, te, hs, he) = (
                    self.f.new_label(),
                    self.f.new_label(),
                    self.f.new_label(),
                    self.f.new_label(),
                );
                let done = self.f.new_label();
                self.f.place(ts);
                self.try_depth += 1;
                self.gen_scoped(*body)?;
                self.try_depth -= 1;
                self.f.leave(done);
                self.f.place(te);
                self.f.place(hs);
                self.f.ld_loc(tmp);
                self.f.intrinsic(Intrinsic::MonitorExit);
                self.f.emit(Op::EndFinally);
                self.f.place(he);
                self.f.place(done);
                self.f.eh_finally(ts, te, hs, he);
                Ok(())
            }
            Stmt::Block(body) => self.gen_scoped(*body),
        }
    }

    /// Unconditional jump that may cross protected-region boundaries.
    fn jump(&mut self, target: Label) {
        if self.try_depth > 0 {
            self.f.leave(target);
        } else {
            self.f.br(target);
        }
    }

    /// Jump for break/continue: uses `leave` when the loop was entered at
    /// a shallower protection depth than the current point.
    fn jump_crossing(&mut self, target: Label, loop_depth: u32) {
        if self.try_depth > loop_depth {
            self.f.leave(target);
        } else {
            self.f.br(target);
        }
    }

    fn gen_try(
        &mut self,
        body: Block,
        catch: Option<(&'src str, &'src str, Block)>,
        finally: Option<Block>,
    ) -> Result<()> {
        let done = self.f.new_label();
        let (f_ts, f_te, f_hs, f_he) = (
            self.f.new_label(),
            self.f.new_label(),
            self.f.new_label(),
            self.f.new_label(),
        );
        if finally.is_some() {
            self.f.place(f_ts);
            self.try_depth += 1;
        }
        // Inner try/catch (when a catch exists).
        if let Some((class, var, handler)) = catch {
            let cls_id = *self
                .st
                .classes
                .get(class)
                .ok_or(())
                .or_else(|_| err(self.pos, format!("unknown exception class {class}")))?;
            if !self.st.is_subclass(class, EXCEPTION_CLASS) {
                return err(self.pos, format!("{class} is not an Exception"));
            }
            let (ts, te, hs, he) = (
                self.f.new_label(),
                self.f.new_label(),
                self.f.new_label(),
                self.f.new_label(),
            );
            self.f.place(ts);
            self.try_depth += 1;
            self.gen_scoped(body)?;
            self.try_depth -= 1;
            self.f.leave(done);
            self.f.place(te);
            self.f.place(hs);
            // Handler: exception is on the stack.
            self.push_scope();
            let slot = self.declare_local(var, self.st.class_ty(class), self.pos)?;
            self.f.st_loc(slot);
            self.gen_block(handler)?;
            self.pop_scope();
            self.f.leave(done);
            self.f.place(he);
            self.f.eh_catch(ts, te, hs, he, cls_id);
        } else {
            self.gen_scoped(body)?;
            self.f.leave(done);
        }
        if let Some(fb) = finally {
            self.try_depth -= 1;
            self.f.place(f_te);
            self.f.place(f_hs);
            self.gen_scoped(fb)?;
            self.f.emit(Op::EndFinally);
            self.f.place(f_he);
            self.f.eh_finally(f_ts, f_te, f_hs, f_he);
        }
        self.f.place(done);
        Ok(())
    }

    /// Emit `value` converted to `to`, the type of what it is assigned to.
    fn gen_value(&mut self, value: Value<'t, 'src>, to: &Ty<'src>) -> Result<()> {
        let (vt, pos) = match value {
            Value::Expr(e) => (self.gen_expr(e)?, e.pos()),
            Value::Bin(op, lhs, rhs, pos) => (self.gen_bin(op, lhs, rhs, pos)?, pos),
        };
        self.convert(vt, to, pos)
    }

    fn gen_plain_assign(
        &mut self,
        target: Operand<'t, 'src>,
        value: Value<'t, 'src>,
        pos: Pos,
    ) -> Result<()> {
        let target = match target {
            Operand::Tree(e) => e,
            Operand::Field { obj, ty, name, pos: fp } => {
                self.f.ld_loc(obj);
                return self.store_field_of(ty, name, fp, value);
            }
            Operand::Index(parts, ip) => return self.gen_index_store(parts, value, ip),
        };
        match target {
            Expr::Ident(name, p) => {
                if let Some((slot, ty)) = self.lookup_local(name) {
                    self.gen_value(value, ty)?;
                    self.f.st_loc(slot);
                    return Ok(());
                }
                if let Some((idx, ty)) = self.lookup_param(name) {
                    self.gen_value(value, ty)?;
                    self.f.st_arg(idx);
                    return Ok(());
                }
                if let Some(fi) = self.st.resolve_field(self.class, name) {
                    if fi.is_static {
                        self.gen_value(value, fi.ty)?;
                        self.f.emit(Op::StSFld(fi.id));
                    } else {
                        if self.is_static {
                            return err(*p, format!("instance field {name} in static context"));
                        }
                        self.f.ld_arg(0);
                        self.gen_value(value, fi.ty)?;
                        self.f.emit(Op::StFld(fi.id));
                    }
                    return Ok(());
                }
                err(*p, format!("unknown name {name}"))
            }
            Expr::Field { obj, name, pos: fp } => {
                let obj = self.ex(*obj);
                // Static field through class name?
                if let &Expr::Ident(cname, _) = obj {
                    if self.names_class(cname) {
                        let fi = match self.st.resolve_field(cname, name) {
                            Some(fi) if fi.is_static => fi,
                            _ => return err(*fp, format!("no static field {cname}.{name}")),
                        };
                        self.gen_value(value, fi.ty)?;
                        self.f.emit(Op::StSFld(fi.id));
                        return Ok(());
                    }
                }
                let oty = self.gen_expr(obj)?;
                self.store_field_of(oty, name, *fp, value)
            }
            Expr::Index { arr, idxs, pos: ip } => {
                let parts = Indexed::Tree { arr: self.ex(*arr), idxs: *idxs };
                self.gen_index_store(parts, value, *ip)
            }
            other => err(pos, format!("not an assignable expression: {other:?}")),
        }
    }

    /// Store `value` to field `name` of the emitted object of type `oty`.
    fn store_field_of(
        &mut self,
        oty: &Ty<'src>,
        name: &'src str,
        pos: Pos,
        value: Value<'t, 'src>,
    ) -> Result<()> {
        let &Ty::Class(c) = oty else {
            return err(pos, format!("no assignable field {name} on {oty:?}"));
        };
        let fi = match self.st.resolve_field(c, name) {
            Some(fi) if !fi.is_static => fi,
            _ => return err(pos, format!("no field {name} on {c}")),
        };
        self.gen_value(value, fi.ty)?;
        self.f.emit(Op::StFld(fi.id));
        Ok(())
    }

    fn gen_compound_assign(
        &mut self,
        target: &'t Expr<'src>,
        op: BinKind,
        value: &'t Expr<'src>,
        pos: Pos,
    ) -> Result<()> {
        // Desugar `t op= v` while evaluating the target's address parts
        // once (via hidden temps when needed).
        match target {
            // An instance field's object is evaluated once. Temps follow
            // their operand's code; see `Stmt::Lock`.
            Expr::Field { obj, name, pos: fp }
                if !matches!(self.ex(*obj), &Expr::Ident(c, _) if self.names_class(c)) =>
            {
                let oty = self.gen_expr(self.ex(*obj))?;
                let tmp = self.hidden_temp(oty, *fp)?;
                self.f.st_loc(tmp);
                let place = Operand::Field { obj: tmp, ty: oty, name, pos: *fp };
                self.gen_plain_assign(place, Value::Bin(op, place, value, pos), pos)
            }
            // Locals, parameters and static fields re-evaluate trivially.
            Expr::Ident(..) | Expr::Field { .. } => {
                let place = Operand::Tree(target);
                self.gen_plain_assign(place, Value::Bin(op, place, value, pos), pos)
            }
            Expr::Index { arr, idxs, pos: ip } => {
                // Evaluate the array and indices once into temps: the
                // array's, then one per index right after it (expressions
                // declare no locals in between).
                let aty = self.gen_expr(self.ex(*arr))?;
                let atmp = self.hidden_temp(aty, *ip)?;
                self.f.st_loc(atmp);
                for (k, &idx) in self.list(*idxs).iter().enumerate() {
                    let t = self.hidden_temp(&Ty::Int, *ip)?;
                    debug_assert_eq!(t, atmp + 1 + k as u16, "index temps are consecutive");
                    let idx = self.ex(idx);
                    let got = self.gen_expr(idx)?;
                    self.convert_index(got, idx.pos())?;
                    self.f.st_loc(t);
                }
                let temps = Indexed::Temps {
                    arr: atmp,
                    ty: aty,
                    idx: atmp + 1,
                    rank: idxs.len() as u16,
                };
                let place = Operand::Index(temps, *ip);
                self.gen_plain_assign(place, Value::Bin(op, place, value, pos), pos)
            }
            other => err(pos, format!("not an assignable expression: {other:?}")),
        }
    }
}
