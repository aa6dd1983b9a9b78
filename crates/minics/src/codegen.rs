//! MiniC# type checking and CIL emission (one pass over bodies).
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
    BinOp, CilType, ClassId, CmpOp, FieldId, Intrinsic, Label, MethodBuilder, MethodId, Module,
    ModuleBuilder, NumTy, Op,
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

#[derive(Clone, Debug)]
struct MethodInfo {
    id: MethodId,
    params: Vec<Ty>,
    ret: Ty,
    is_static: bool,
    is_virtual: bool,
}

#[derive(Clone, Debug)]
struct FieldInfo {
    id: FieldId,
    ty: Ty,
    is_static: bool,
}

#[derive(Default)]
struct SymTab {
    classes: HashMap<String, ClassId>,
    bases: HashMap<String, Option<String>>,
    methods: HashMap<(String, String), MethodInfo>,
    fields: HashMap<(String, String), FieldInfo>,
}

impl SymTab {
    fn resolve_method<'s>(&'s self, class: &str, name: &str) -> Option<(&'s str, &'s MethodInfo)> {
        let mut cur: Option<&'s str> = self.bases.get_key_value(class).map(|(k, _)| k.as_str());
        if cur.is_none() {
            return None;
        }
        while let Some(c) = cur {
            if let Some(mi) = self.methods.get(&(c.to_string(), name.to_string())) {
                return Some((c, mi));
            }
            cur = self.bases.get(c).and_then(|b| b.as_deref());
        }
        None
    }

    fn resolve_field(&self, class: &str, name: &str) -> Option<&FieldInfo> {
        let mut cur = Some(class);
        while let Some(c) = cur {
            if let Some(fi) = self.fields.get(&(c.to_string(), name.to_string())) {
                return Some(fi);
            }
            cur = self.bases.get(c).and_then(|b| b.as_deref());
        }
        None
    }

    fn is_subclass(&self, sub: &str, sup: &str) -> bool {
        let mut cur = Some(sub);
        while let Some(c) = cur {
            if c == sup {
                return true;
            }
            cur = self.bases.get(c).and_then(|b| b.as_deref());
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
            Ty::Multi(e, r) => CilType::multi_of(self.cil_ty(e, pos)?, *r),
        })
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
fn promote(a: &Ty, b: &Ty) -> Option<Ty> {
    if !is_numeric(a) || !is_numeric(b) {
        return None;
    }
    Some(if *a == Ty::Double || *b == Ty::Double {
        Ty::Double
    } else if *a == Ty::Float || *b == Ty::Float {
        Ty::Float
    } else if *a == Ty::Long || *b == Ty::Long {
        Ty::Long
    } else {
        Ty::Int
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
        let id = mb.class_id(name).unwrap();
        st.classes.insert(name.to_string(), id);
        st.bases.insert(
            name.to_string(),
            if name == EXCEPTION_CLASS {
                None
            } else {
                Some(EXCEPTION_CLASS.to_string())
            },
        );
        st.methods.insert(
            (name.to_string(), ".ctor".to_string()),
            MethodInfo {
                id: mb.method_id(&format!("{name}..ctor")).unwrap(),
                params: vec![],
                ret: Ty::Void,
                is_static: false,
                is_virtual: false,
            },
        );
    }

    // Phase A1: declare classes.
    for c in &prog.classes {
        if BUILTIN_CLASSES.contains(&c.name.as_str()) {
            return err(c.pos, format!("{} is a reserved builtin class", c.name));
        }
        if st.classes.contains_key(&c.name) {
            return err(c.pos, format!("duplicate class {}", c.name));
        }
        let id = mb.declare_class(&c.name, c.base.as_deref());
        st.classes.insert(c.name.clone(), id);
        st.bases.insert(c.name.clone(), c.base.clone());
    }
    for c in &prog.classes {
        if let Some(b) = &c.base {
            if !st.classes.contains_key(b) {
                return err(c.pos, format!("unknown base class {b}"));
            }
        }
    }

    // Phase A2: fields.
    for c in &prog.classes {
        let cid = st.classes[&c.name];
        for f in &c.fields {
            let cty = st.cil_ty(&f.ty, f.pos)?;
            if cty == CilType::Void {
                return err(f.pos, "field cannot be void");
            }
            let fid = mb.add_field(cid, &f.name, cty, f.is_static);
            if st
                .fields
                .insert(
                    (c.name.clone(), f.name.clone()),
                    FieldInfo {
                        id: fid,
                        ty: f.ty.clone(),
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
        let cid = st.classes[&c.name];
        let mut has_ctor = false;
        for m in &c.methods {
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
                match st.resolve_method(c.base.as_deref().unwrap_or(""), &m.name) {
                    Some((_, base)) if base.is_virtual => {
                        if base.params != m.params.iter().map(|(t, _)| t.clone()).collect::<Vec<_>>()
                            || base.ret != m.ret
                        {
                            return err(m.pos, format!("override {} changes signature", m.name));
                        }
                    }
                    _ => return err(m.pos, format!("override {} has no base virtual", m.name)),
                }
            }
            let id = mb.method(cid, &m.name, params, ret, kind).finish();
            let prev = st.methods.insert(
                (c.name.clone(), m.name.clone()),
                MethodInfo {
                    id,
                    params: m.params.iter().map(|(t, _)| t.clone()).collect(),
                    ret: m.ret.clone(),
                    is_static: m.kind == MKind::Static,
                    is_virtual: matches!(m.kind, MKind::Virtual | MKind::Override),
                },
            );
            if prev.is_some() {
                return err(m.pos, format!("duplicate method {}.{}", c.name, m.name));
            }
        }
        if !has_ctor {
            // Synthesize the default constructor.
            let mut f = mb.method(cid, ".ctor", vec![], CilType::Void, MethodKind::Ctor);
            f.ret();
            let id = f.finish();
            st.methods.insert(
                (c.name.clone(), ".ctor".to_string()),
                MethodInfo {
                    id,
                    params: vec![],
                    ret: Ty::Void,
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
    st.classes.insert("$Startup".into(), startup);
    st.bases.insert("$Startup".into(), None);

    // Phase B: bodies.
    for c in &prog.classes {
        for m in &c.methods {
            let id = st.methods[&(c.name.clone(), m.name.clone())].id;
            let f = mb.rebuild_method(id);
            let g = Gen::new(f, &st, &c.name, m)?;
            g.gen_body()?;
        }
    }
    // $Startup.Init body.
    {
        let f = mb.rebuild_method(init_id);
        let synthetic = MethodDecl {
            name: "Init".into(),
            params: vec![],
            ret: Ty::Void,
            kind: MKind::Static,
            body: vec![],
            pos: Pos { line: 0, col: 0 },
        };
        let mut g = Gen::new(f, &st, "$Startup", &synthetic)?;
        for c in &prog.classes {
            for fd in &c.fields {
                if let Some(init) = &fd.init {
                    g.class = c.name.clone();
                    let ty = g.gen_expr(init)?;
                    g.convert(&ty, &fd.ty, fd.pos)?;
                    let fi = g.st.fields[&(c.name.clone(), fd.name.clone())].clone();
                    g.f.emit(Op::StSFld(fi.id));
                }
            }
        }
        g.f.ret();
        g.f.finish();
    }

    Ok(mb.finish())
}

/// Per-method code generator.
struct Gen<'a, 'm> {
    f: MethodBuilder<'m>,
    st: &'a SymTab,
    class: String,
    is_static: bool,
    ret: Ty,
    /// name → (arg index, type); receiver occupies index 0 for instance.
    params: Vec<(String, u16, Ty)>,
    /// lexical scopes of locals.
    scopes: Vec<Vec<(String, u16, Ty)>>,
    /// (continue target, break target, try depth at loop entry)
    loops: Vec<(Label, Label, u32)>,
    try_depth: u32,
    /// Lazily created return plumbing for returns inside protected regions.
    ret_label: Option<Label>,
    ret_temp: Option<u16>,
    body: &'a [Stmt],
    pos: Pos,
}

impl<'a, 'm> Gen<'a, 'm> {
    fn new(
        f: MethodBuilder<'m>,
        st: &'a SymTab,
        class: &str,
        m: &'a MethodDecl,
    ) -> Result<Gen<'a, 'm>> {
        let is_static = m.kind == MKind::Static;
        let mut params: Vec<(String, u16, Ty)> = Vec::new();
        let arg_base = if is_static { 0 } else { 1 };
        for (i, (t, n)) in m.params.iter().enumerate() {
            if params.iter().any(|(pn, ..)| pn == n) {
                return err(m.pos, format!("duplicate parameter {n}"));
            }
            params.push((n.clone(), (arg_base + i) as u16, t.clone()));
        }
        Ok(Gen {
            f,
            st,
            class: class.to_string(),
            is_static,
            ret: m.ret.clone(),
            params,
            scopes: vec![Vec::new()],
            loops: Vec::new(),
            try_depth: 0,
            ret_label: None,
            ret_temp: None,
            body: &m.body,
            pos: m.pos,
        })
    }

    fn gen_body(mut self) -> Result<()> {
        let body = self.body;
        for s in body {
            self.gen_stmt(s)?;
        }
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
            self.emit_default(&self.ret.clone())?;
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
        self.scopes.push(Vec::new());
    }

    fn pop_scope(&mut self) {
        self.scopes.pop();
    }

    fn declare_local(&mut self, name: &str, ty: Ty, pos: Pos) -> Result<u16> {
        if self.scopes.last().unwrap().iter().any(|(n, ..)| n == name) {
            return err(pos, format!("duplicate local {name}"));
        }
        let cty = self.st.cil_ty(&ty, pos)?;
        let slot = self.f.local(cty);
        self.scopes
            .last_mut()
            .unwrap()
            .push((name.to_string(), slot, ty));
        Ok(slot)
    }

    fn lookup_local(&self, name: &str) -> Option<(u16, Ty)> {
        for scope in self.scopes.iter().rev() {
            if let Some((_, slot, ty)) = scope.iter().rev().find(|(n, ..)| n == name) {
                return Some((*slot, ty.clone()));
            }
        }
        None
    }

    fn lookup_param(&self, name: &str) -> Option<(u16, Ty)> {
        self.params
            .iter()
            .find(|(n, ..)| n == name)
            .map(|(_, i, t)| (*i, t.clone()))
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
            (f0, Ty::Object) if is_numeric(f0) || *f0 == Ty::Bool => {
                self.f.emit(Op::BoxVal(num_ty(f0).unwrap()));
            }
            (f0, Ty::Object) if is_ref(f0) => {}
            (Ty::Class(sub), Ty::Class(sup)) if self.st.is_subclass(sub, sup) => {}
            _ => {
                return err(pos, format!("cannot implicitly convert {from:?} to {to:?}"));
            }
        }
        Ok(())
    }

    // ---- type inference (no emission) ----

    fn infer(&self, e: &Expr) -> Result<Ty> {
        Ok(match e {
            Expr::Int(_) => Ty::Int,
            Expr::Long(_) => Ty::Long,
            Expr::Float(_) => Ty::Float,
            Expr::Double(_) => Ty::Double,
            Expr::Bool(_) => Ty::Bool,
            Expr::Str(_) => Ty::Str,
            Expr::Null => Ty::Null,
            Expr::This(p) => {
                if self.is_static {
                    return err(*p, "this in static context");
                }
                Ty::Class(self.class.clone())
            }
            Expr::Ident(name, p) => {
                if let Some((_, ty)) = self.lookup_local(name) {
                    ty
                } else if let Some((_, ty)) = self.lookup_param(name) {
                    ty
                } else if let Some(fi) = self.st.resolve_field(&self.class, name) {
                    fi.ty.clone()
                } else {
                    return err(*p, format!("unknown name {name}"));
                }
            }
            Expr::Field { obj, name, pos } => {
                if let Expr::Ident(cname, _) = obj.as_ref() {
                    if cname == "Math" && (name == "PI" || name == "E") {
                        return Ok(Ty::Double);
                    }
                    if self.lookup_local(cname).is_none()
                        && self.lookup_param(cname).is_none()
                        && self.st.classes.contains_key(cname)
                    {
                        return match self.st.resolve_field(cname, name) {
                            Some(fi) if fi.is_static => Ok(fi.ty.clone()),
                            _ => err(*pos, format!("no static field {cname}.{name}")),
                        };
                    }
                }
                let oty = self.infer(obj)?;
                match (&oty, name.as_str()) {
                    (Ty::Array(_), "Length") | (Ty::Str, "Length") => Ty::Int,
                    (Ty::Multi(..), "Length") => Ty::Int,
                    (Ty::Class(c), _) => match self.st.resolve_field(c, name) {
                        Some(fi) => fi.ty.clone(),
                        None => return err(*pos, format!("no field {name} on {c}")),
                    },
                    _ => return err(*pos, format!("no field {name} on {oty:?}")),
                }
            }
            Expr::Index { arr, idxs, pos } => {
                let aty = self.infer(arr)?;
                match (&aty, idxs.len()) {
                    (Ty::Array(e), 1) => (**e).clone(),
                    (Ty::Multi(e, r), n) if n == *r as usize => (**e).clone(),
                    _ => return err(*pos, format!("bad index on {aty:?}")),
                }
            }
            Expr::Call { target, name, args, pos } => self.infer_call(target, name, args, *pos)?,
            Expr::New { class, pos, .. } => {
                if !self.st.classes.contains_key(class) {
                    return err(*pos, format!("unknown class {class}"));
                }
                Ty::Class(class.clone())
            }
            Expr::NewArray { elem, dims, extra_ranks, .. } => {
                let mut t = elem.clone();
                for _ in 0..*extra_ranks {
                    t = t.array_of();
                }
                if dims.len() == 1 {
                    t.array_of()
                } else {
                    Ty::Multi(Box::new(t), dims.len() as u8)
                }
            }
            Expr::Cast { ty, .. } => ty.clone(),
            Expr::Un { op, expr, pos } => {
                let t = self.infer(expr)?;
                match op {
                    UnKind::Neg if is_numeric(&t) => t,
                    UnKind::Not if t == Ty::Bool => Ty::Bool,
                    UnKind::BitNot if matches!(t, Ty::Int | Ty::Long) => t,
                    _ => return err(*pos, format!("bad operand {t:?} for {op:?}")),
                }
            }
            Expr::Bin { op, lhs, rhs, pos } => {
                let lt = self.infer(lhs)?;
                let rt = self.infer(rhs)?;
                self.bin_result(*op, &lt, &rt, *pos)?
            }
            Expr::Cond { then, els, pos, .. } => {
                let tt = self.infer(then)?;
                let et = self.infer(els)?;
                self.unify(&tt, &et, *pos)?
            }
        })
    }

    fn unify(&self, a: &Ty, b: &Ty, pos: Pos) -> Result<Ty> {
        if a == b {
            return Ok(a.clone());
        }
        if *a == Ty::Null && is_ref(b) {
            return Ok(b.clone());
        }
        if *b == Ty::Null && is_ref(a) {
            return Ok(a.clone());
        }
        if let Some(t) = promote(a, b) {
            return Ok(t);
        }
        if is_ref(a) && is_ref(b) {
            if let (Ty::Class(x), Ty::Class(y)) = (a, b) {
                if self.st.is_subclass(x, y) {
                    return Ok(b.clone());
                }
                if self.st.is_subclass(y, x) {
                    return Ok(a.clone());
                }
            }
            return Ok(Ty::Object);
        }
        err(pos, format!("incompatible branches {a:?} / {b:?}"))
    }

    fn bin_result(&self, op: BinKind, lt: &Ty, rt: &Ty, pos: Pos) -> Result<Ty> {
        use BinKind::*;
        Ok(match op {
            Add if *lt == Ty::Str || *rt == Ty::Str => Ty::Str,
            Add | Sub | Mul | Div | Rem => match promote(lt, rt) {
                Some(t) => t,
                None => return err(pos, format!("arithmetic on {lt:?} and {rt:?}")),
            },
            And | Or | Xor => {
                if *lt == Ty::Bool && *rt == Ty::Bool {
                    Ty::Bool
                } else {
                    match promote(lt, rt) {
                        Some(t @ (Ty::Int | Ty::Long)) => t,
                        _ => return err(pos, format!("bitwise on {lt:?} and {rt:?}")),
                    }
                }
            }
            Shl | Shr => {
                if matches!(lt, Ty::Int | Ty::Long) && *rt == Ty::Int {
                    lt.clone()
                } else {
                    return err(pos, format!("shift on {lt:?} by {rt:?}"));
                }
            }
            Lt | Le | Gt | Ge => {
                if promote(lt, rt).is_some() {
                    Ty::Bool
                } else {
                    return err(pos, format!("ordered compare on {lt:?} and {rt:?}"));
                }
            }
            Eq | Ne => {
                if promote(lt, rt).is_some()
                    || (*lt == Ty::Bool && *rt == Ty::Bool)
                    || (is_ref(lt) && is_ref(rt))
                {
                    Ty::Bool
                } else {
                    return err(pos, format!("equality on {lt:?} and {rt:?}"));
                }
            }
            AndAnd | OrOr => {
                if *lt == Ty::Bool && *rt == Ty::Bool {
                    Ty::Bool
                } else {
                    return err(pos, "&& / || need bool operands");
                }
            }
        })
    }

    fn infer_call(
        &self,
        target: &Option<Box<Expr>>,
        name: &str,
        args: &[Expr],
        pos: Pos,
    ) -> Result<Ty> {
        if let Some(t) = target {
            if let Expr::Ident(cname, _) = t.as_ref() {
                if BUILTIN_CLASSES.contains(&cname.as_str()) {
                    return self.infer_builtin(cname, name, args, pos);
                }
                if self.lookup_local(cname).is_none()
                    && self.lookup_param(cname).is_none()
                    && self.st.classes.contains_key(cname)
                {
                    return match self.st.resolve_method(cname, name) {
                        Some((_, mi)) if mi.is_static => Ok(mi.ret.clone()),
                        _ => err(pos, format!("no static method {cname}.{name}")),
                    };
                }
            }
            let oty = self.infer(t)?;
            if name == "GetLength" {
                if matches!(oty, Ty::Multi(..)) {
                    return Ok(Ty::Int);
                }
                return err(pos, "GetLength on non-multidimensional array");
            }
            match &oty {
                Ty::Class(c) => match self.st.resolve_method(c, name) {
                    Some((_, mi)) if !mi.is_static => Ok(mi.ret.clone()),
                    _ => err(pos, format!("no method {name} on {c}")),
                },
                _ => err(pos, format!("no method {name} on {oty:?}")),
            }
        } else {
            match self.st.resolve_method(&self.class, name) {
                Some((_, mi)) => Ok(mi.ret.clone()),
                None => err(pos, format!("unknown method {name}")),
            }
        }
    }

    fn infer_builtin(&self, class: &str, name: &str, args: &[Expr], pos: Pos) -> Result<Ty> {
        // The arity errors `gen_builtin` reports, for the builtins whose
        // type is read off their first argument.
        let want = |n: usize| {
            if args.len() == n {
                Ok(())
            } else {
                err(pos, format!("{class}.{name} takes {n} argument(s)"))
            }
        };
        Ok(match (class, name) {
            ("Math", "Abs" | "Max" | "Min") => {
                want(if name == "Abs" { 1 } else { 2 })?;
                let mut t = self.infer(&args[0])?;
                for a in &args[1..] {
                    let at = self.infer(a)?;
                    t = promote(&t, &at)
                        .ok_or(())
                        .or_else(|_| err(pos, "Math args must be numeric"))?;
                }
                t
            }
            ("Math", "Round") => {
                want(1)?;
                match self.infer(&args[0])? {
                    Ty::Float => Ty::Int,
                    _ => Ty::Long,
                }
            }
            ("Math", _) => Ty::Double,
            ("Console", "WriteLine") => Ty::Void,
            ("Sys", "Millis" | "Nanos") => Ty::Long,
            ("Sys", "Start") => Ty::Int,
            ("Sys", "Join" | "Yield") => Ty::Void,
            ("Monitor", "Enter" | "Exit") => Ty::Void,
            ("Serial", "Write") => Ty::Int,
            ("Serial", "Read") => Ty::Object,
            _ => return err(pos, format!("unknown builtin {class}.{name}")),
        })
    }

    // ---- expression emission ----

    fn gen_expr(&mut self, e: &Expr) -> Result<Ty> {
        match e {
            Expr::Int(v) => {
                self.f.ldc_i4(*v);
                Ok(Ty::Int)
            }
            Expr::Long(v) => {
                self.f.ldc_i8(*v);
                Ok(Ty::Long)
            }
            Expr::Float(v) => {
                self.f.ldc_r4(*v);
                Ok(Ty::Float)
            }
            Expr::Double(v) => {
                self.f.ldc_r8(*v);
                Ok(Ty::Double)
            }
            Expr::Bool(v) => {
                self.f.ldc_i4(*v as i32);
                Ok(Ty::Bool)
            }
            Expr::Str(s) => {
                self.f.ld_str(s);
                Ok(Ty::Str)
            }
            Expr::Null => {
                self.f.emit(Op::LdNull);
                Ok(Ty::Null)
            }
            Expr::This(p) => {
                if self.is_static {
                    return err(*p, "this in static context");
                }
                self.f.ld_arg(0);
                Ok(Ty::Class(self.class.clone()))
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
                if let Some(fi) = self.st.resolve_field(&self.class, name).cloned() {
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
            Expr::Field { obj, name, pos } => self.gen_field_load(obj, name, *pos),
            Expr::Index { arr, idxs, pos } => {
                let aty = self.gen_expr(arr)?;
                match (&aty, idxs.len()) {
                    (Ty::Array(elem), 1) => {
                        let it = self.gen_expr(&idxs[0])?;
                        self.convert_index(&it, idxs[0].pos())?;
                        let cty = self.st.cil_ty(elem, *pos)?;
                        self.f.emit(Op::LdElem(elem_kind_of(&cty)));
                        Ok((**elem).clone())
                    }
                    (Ty::Multi(elem, r), n) if n == *r as usize => {
                        for idx in idxs {
                            let it = self.gen_expr(idx)?;
                            self.convert_index(&it, idx.pos())?;
                        }
                        let cty = self.st.cil_ty(elem, *pos)?;
                        self.f.emit(Op::LdElemMulti {
                            kind: elem_kind_of(&cty),
                            rank: *r,
                        });
                        Ok((**elem).clone())
                    }
                    _ => err(*pos, format!("bad index on {aty:?}")),
                }
            }
            Expr::Call { target, name, args, pos } => self.gen_call(target, name, args, *pos),
            Expr::New { class, args, pos } => {
                let mi = match self.st.resolve_method(class, ".ctor") {
                    Some((owner, mi)) if owner == class => mi.clone(),
                    _ => return err(*pos, format!("unknown class {class}")),
                };
                if mi.params.len() != args.len() {
                    return err(*pos, format!("{class} constructor takes {} args", mi.params.len()));
                }
                for (a, pt) in args.iter().zip(mi.params.iter()) {
                    let at = self.gen_expr(a)?;
                    self.convert(&at, pt, a.pos())?;
                }
                self.f.emit(Op::NewObj(mi.id));
                Ok(Ty::Class(class.clone()))
            }
            Expr::NewArray { elem, dims, extra_ranks, pos } => {
                let mut elem_ty = elem.clone();
                for _ in 0..*extra_ranks {
                    elem_ty = elem_ty.array_of();
                }
                let elem_cty = self.st.cil_ty(&elem_ty, *pos)?;
                if dims.len() == 1 {
                    let it = self.gen_expr(&dims[0])?;
                    self.convert_index(&it, dims[0].pos())?;
                    self.f.emit(Op::NewArr(elem_kind_of(&elem_cty)));
                    Ok(elem_ty.array_of())
                } else {
                    if *extra_ranks > 0 {
                        return err(*pos, "jagged and multidimensional cannot be mixed");
                    }
                    if dims.len() > 3 {
                        return err(*pos, "multidimensional arrays support rank 2..=3");
                    }
                    for d in dims {
                        let it = self.gen_expr(d)?;
                        self.convert_index(&it, d.pos())?;
                    }
                    self.f.emit(Op::NewMultiArr {
                        kind: elem_kind_of(&elem_cty),
                        rank: dims.len() as u8,
                    });
                    Ok(Ty::Multi(Box::new(elem_ty), dims.len() as u8))
                }
            }
            Expr::Cast { ty, expr, pos } => {
                let from = self.gen_expr(expr)?;
                self.gen_cast(&from, ty, *pos)?;
                Ok(ty.clone())
            }
            Expr::Un { op, expr, pos } => {
                let t = self.gen_expr(expr)?;
                match op {
                    UnKind::Neg if is_numeric(&t) => {
                        self.f.un(hpcnet_cil::UnOp::Neg);
                        Ok(t)
                    }
                    UnKind::BitNot if matches!(t, Ty::Int | Ty::Long) => {
                        self.f.un(hpcnet_cil::UnOp::Not);
                        Ok(t)
                    }
                    UnKind::Not if t == Ty::Bool => {
                        self.f.ldc_i4(0);
                        self.f.cmp(CmpOp::Eq);
                        Ok(Ty::Bool)
                    }
                    _ => err(*pos, format!("bad operand {t:?} for {op:?}")),
                }
            }
            Expr::Bin { op, lhs, rhs, pos } => self.gen_bin(*op, lhs, rhs, *pos),
            Expr::Cond { cond, then, els, pos } => {
                let tt = self.infer(then)?;
                let et = self.infer(els)?;
                let ty = self.unify(&tt, &et, *pos)?;
                let l_else = self.f.new_label();
                let l_end = self.f.new_label();
                self.gen_branch(cond, l_else, false)?;
                let t2 = self.gen_expr(then)?;
                self.convert(&t2, &ty, then.pos())?;
                self.f.br(l_end);
                self.f.place(l_else);
                let e2 = self.gen_expr(els)?;
                self.convert(&e2, &ty, els.pos())?;
                self.f.place(l_end);
                Ok(ty)
            }
        }
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
        match (from, to) {
            (f0, t0) if is_numeric(f0) && is_numeric(t0) => {
                self.f.conv(num_ty(t0).unwrap());
            }
            (Ty::Object, t0) if is_numeric(t0) || *t0 == Ty::Bool => {
                self.f.emit(Op::UnboxVal(num_ty(t0).unwrap()));
            }
            (f0, Ty::Object) if is_numeric(f0) || *f0 == Ty::Bool => {
                self.f.emit(Op::BoxVal(num_ty(f0).unwrap()));
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

    fn gen_bin(&mut self, op: BinKind, lhs: &Expr, rhs: &Expr, pos: Pos) -> Result<Ty> {
        use BinKind::*;
        let lt = self.infer(lhs)?;
        let rt = self.infer(rhs)?;
        // String concatenation.
        if op == Add && (lt == Ty::Str || rt == Ty::Str) {
            let a = self.gen_expr(lhs)?;
            self.to_string_on_stack(&a, lhs.pos())?;
            let b = self.gen_expr(rhs)?;
            self.to_string_on_stack(&b, rhs.pos())?;
            self.f.intrinsic(Intrinsic::StrConcat);
            return Ok(Ty::Str);
        }
        match op {
            AndAnd | OrOr => {
                // Value form via short-circuit branches.
                let l_short = self.f.new_label();
                let l_end = self.f.new_label();
                if op == AndAnd {
                    self.gen_branch(lhs, l_short, false)?; // false -> 0
                    let t = self.gen_expr(rhs)?;
                    if t != Ty::Bool {
                        return err(pos, "&& needs bool operands");
                    }
                    self.f.br(l_end);
                    self.f.place(l_short);
                    self.f.ldc_i4(0);
                } else {
                    self.gen_branch(lhs, l_short, true)?; // true -> 1
                    let t = self.gen_expr(rhs)?;
                    if t != Ty::Bool {
                        return err(pos, "|| needs bool operands");
                    }
                    self.f.br(l_end);
                    self.f.place(l_short);
                    self.f.ldc_i4(1);
                }
                self.f.place(l_end);
                Ok(Ty::Bool)
            }
            Lt | Le | Gt | Ge | Eq | Ne => {
                let cmp = match op {
                    Lt => CmpOp::Lt,
                    Le => CmpOp::Le,
                    Gt => CmpOp::Gt,
                    Ge => CmpOp::Ge,
                    Eq => CmpOp::Eq,
                    _ => CmpOp::Ne,
                };
                if is_ref(&lt) && is_ref(&rt) {
                    if !matches!(op, Eq | Ne) {
                        return err(pos, "ordered compare on references");
                    }
                    self.gen_expr(lhs)?;
                    self.gen_expr(rhs)?;
                } else if lt == Ty::Bool && rt == Ty::Bool {
                    self.gen_expr(lhs)?;
                    self.gen_expr(rhs)?;
                } else {
                    let t = promote(&lt, &rt)
                        .ok_or(())
                        .or_else(|_| err(pos, format!("compare on {lt:?} and {rt:?}")))?;
                    let a = self.gen_expr(lhs)?;
                    self.convert(&a, &t, lhs.pos())?;
                    let b = self.gen_expr(rhs)?;
                    self.convert(&b, &t, rhs.pos())?;
                }
                self.f.cmp(cmp);
                Ok(Ty::Bool)
            }
            Shl | Shr => {
                let t = self.gen_expr(lhs)?;
                if !matches!(t, Ty::Int | Ty::Long) {
                    return err(pos, "shift on non-integer");
                }
                let rt2 = self.gen_expr(rhs)?;
                if rt2 != Ty::Int {
                    return err(pos, "shift count must be int");
                }
                self.f.bin(if op == Shl { BinOp::Shl } else { BinOp::Shr });
                Ok(t)
            }
            And | Or | Xor if lt == Ty::Bool && rt == Ty::Bool => {
                self.gen_expr(lhs)?;
                self.gen_expr(rhs)?;
                self.f.bin(match op {
                    And => BinOp::And,
                    Or => BinOp::Or,
                    _ => BinOp::Xor,
                });
                Ok(Ty::Bool)
            }
            _ => {
                let t = self
                    .bin_result(op, &lt, &rt, pos)?;
                let a = self.gen_expr(lhs)?;
                self.convert(&a, &t, lhs.pos())?;
                let b = self.gen_expr(rhs)?;
                self.convert(&b, &t, rhs.pos())?;
                self.f.bin(match op {
                    Add => BinOp::Add,
                    Sub => BinOp::Sub,
                    Mul => BinOp::Mul,
                    Div => BinOp::Div,
                    Rem => BinOp::Rem,
                    And => BinOp::And,
                    Or => BinOp::Or,
                    Xor => BinOp::Xor,
                    _ => unreachable!(),
                });
                Ok(t)
            }
        }
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
    fn gen_branch(&mut self, cond: &Expr, target: Label, jump_if_true: bool) -> Result<()> {
        match cond {
            Expr::Bin { op, lhs, rhs, pos } if matches!(
                op,
                BinKind::Lt | BinKind::Le | BinKind::Gt | BinKind::Ge | BinKind::Eq | BinKind::Ne
            ) =>
            {
                let lt = self.infer(lhs)?;
                let rt = self.infer(rhs)?;
                let mut cmp = match op {
                    BinKind::Lt => CmpOp::Lt,
                    BinKind::Le => CmpOp::Le,
                    BinKind::Gt => CmpOp::Gt,
                    BinKind::Ge => CmpOp::Ge,
                    BinKind::Eq => CmpOp::Eq,
                    _ => CmpOp::Ne,
                };
                if is_ref(&lt) && is_ref(&rt) {
                    if !matches!(cmp, CmpOp::Eq | CmpOp::Ne) {
                        return err(*pos, "ordered compare on references");
                    }
                    self.gen_expr(lhs)?;
                    self.gen_expr(rhs)?;
                } else if lt == Ty::Bool && rt == Ty::Bool {
                    self.gen_expr(lhs)?;
                    self.gen_expr(rhs)?;
                } else {
                    let t = promote(&lt, &rt)
                        .ok_or(())
                        .or_else(|_| err(*pos, format!("compare on {lt:?} and {rt:?}")))?;
                    let a = self.gen_expr(lhs)?;
                    self.convert(&a, &t, lhs.pos())?;
                    let b = self.gen_expr(rhs)?;
                    self.convert(&b, &t, rhs.pos())?;
                }
                if !jump_if_true {
                    cmp = cmp.negate();
                }
                self.f.br_cmp(cmp, target);
                Ok(())
            }
            Expr::Un { op: UnKind::Not, expr, .. } => self.gen_branch(expr, target, !jump_if_true),
            Expr::Bin { op: BinKind::AndAnd, lhs, rhs, .. } => {
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
                if t != Ty::Bool {
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

    fn gen_field_load(&mut self, obj: &Expr, name: &str, pos: Pos) -> Result<Ty> {
        // Math constants and static fields through a class name.
        if let Expr::Ident(cname, _) = obj {
            if cname == "Math" && name == "PI" {
                self.f.ldc_r8(std::f64::consts::PI);
                return Ok(Ty::Double);
            }
            if cname == "Math" && name == "E" {
                self.f.ldc_r8(std::f64::consts::E);
                return Ok(Ty::Double);
            }
            if self.lookup_local(cname).is_none()
                && self.lookup_param(cname).is_none()
                && self.st.classes.contains_key(cname)
            {
                return match self.st.resolve_field(cname, name).cloned() {
                    Some(fi) if fi.is_static => {
                        self.f.emit(Op::LdSFld(fi.id));
                        Ok(fi.ty)
                    }
                    _ => err(pos, format!("no static field {cname}.{name}")),
                };
            }
        }
        let oty = self.gen_expr(obj)?;
        match (&oty, name) {
            (Ty::Array(_), "Length") => {
                self.f.emit(Op::LdLen);
                Ok(Ty::Int)
            }
            (Ty::Multi(..), "Length") => {
                // Total element count: product of dimension lengths is not
                // directly exposed; Length maps to GetLength(0) semantics
                // would be wrong, so reject to avoid silent surprises.
                err(pos, "use GetLength(d) on multidimensional arrays")
            }
            (Ty::Str, "Length") => {
                self.f.intrinsic(Intrinsic::StrLen);
                Ok(Ty::Int)
            }
            (Ty::Class(c), _) => match self.st.resolve_field(c, name).cloned() {
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
        target: &Option<Box<Expr>>,
        name: &str,
        args: &[Expr],
        pos: Pos,
    ) -> Result<Ty> {
        if let Some(t) = target {
            if let Expr::Ident(cname, _) = t.as_ref() {
                if BUILTIN_CLASSES.contains(&cname.as_str()) {
                    return self.gen_builtin(cname, name, args, pos);
                }
                if self.lookup_local(cname).is_none()
                    && self.lookup_param(cname).is_none()
                    && self.st.classes.contains_key(cname)
                {
                    let mi = match self.st.resolve_method(cname, name) {
                        Some((_, mi)) if mi.is_static => mi.clone(),
                        _ => return err(pos, format!("no static method {cname}.{name}")),
                    };
                    return self.emit_invocation(&mi, None, args, pos);
                }
            }
            // GetLength(d) on multi arrays.
            let oty = self.infer(t)?;
            if name == "GetLength" {
                if let Ty::Multi(_, rank) = oty {
                    let dim = match args {
                        [Expr::Int(d)] if *d >= 0 && (*d as u8) < rank => *d as u8,
                        _ => return err(pos, "GetLength takes a constant in-range dimension"),
                    };
                    self.gen_expr(t)?;
                    self.f.emit(Op::LdMultiLen { dim });
                    return Ok(Ty::Int);
                }
                return err(pos, "GetLength on non-multidimensional array");
            }
            let c = match &oty {
                Ty::Class(c) => c.clone(),
                _ => return err(pos, format!("no method {name} on {oty:?}")),
            };
            let mi = match self.st.resolve_method(&c, name) {
                Some((_, mi)) if !mi.is_static => mi.clone(),
                _ => return err(pos, format!("no method {name} on {c}")),
            };
            self.emit_invocation(&mi, Some(t), args, pos)
        } else {
            let mi = match self.st.resolve_method(&self.class, name) {
                Some((_, mi)) => mi.clone(),
                None => return err(pos, format!("unknown method {name}")),
            };
            if mi.is_static {
                self.emit_invocation(&mi, None, args, pos)
            } else {
                if self.is_static {
                    return err(pos, format!("instance method {name} in static context"));
                }
                let this = Expr::This(pos);
                self.emit_invocation(&mi, Some(&Box::new(this)), args, pos)
            }
        }
    }

    fn emit_invocation(
        &mut self,
        mi: &MethodInfo,
        receiver: Option<&Expr>,
        args: &[Expr],
        pos: Pos,
    ) -> Result<Ty> {
        if let Some(r) = receiver {
            self.gen_expr(r)?;
        }
        if mi.params.len() != args.len() {
            return err(pos, format!("expected {} arguments", mi.params.len()));
        }
        for (a, pt) in args.iter().zip(mi.params.iter()) {
            let at = self.gen_expr(a)?;
            self.convert(&at, pt, a.pos())?;
        }
        if receiver.is_some() && mi.is_virtual {
            self.f.call_virt(mi.id);
        } else {
            self.f.call(mi.id);
        }
        Ok(mi.ret.clone())
    }

    fn gen_builtin(&mut self, class: &str, name: &str, args: &[Expr], pos: Pos) -> Result<Ty> {
        use Intrinsic::*;
        let argn = args.len();
        macro_rules! want {
            ($n:expr) => {
                if argn != $n {
                    return err(pos, format!("{class}.{name} takes {} argument(s)", $n));
                }
            };
        }
        // One double argument, double result.
        let unary_r8 = |g: &mut Self, i: Intrinsic, args: &[Expr]| -> Result<Ty> {
            let t = g.gen_expr(&args[0])?;
            g.convert(&t, &Ty::Double, args[0].pos())?;
            g.f.intrinsic(i);
            Ok(Ty::Double)
        };
        match (class, name) {
            ("Math", "Abs") => {
                want!(1);
                let t = self.gen_expr(&args[0])?;
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
                let lt = self.infer(&args[0])?;
                let rt = self.infer(&args[1])?;
                let t = promote(&lt, &rt)
                    .ok_or(())
                    .or_else(|_| err(pos, "Math.Max/Min need numeric arguments"))?;
                let a = self.gen_expr(&args[0])?;
                self.convert(&a, &t, args[0].pos())?;
                let b = self.gen_expr(&args[1])?;
                self.convert(&b, &t, args[1].pos())?;
                let i = match (name, &t) {
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
                for a in args {
                    let t = self.gen_expr(a)?;
                    self.convert(&t, &Ty::Double, a.pos())?;
                }
                self.f.intrinsic(if name == "Atan2" { Atan2 } else { Pow });
                Ok(Ty::Double)
            }
            ("Math", "Random") => {
                want!(0);
                self.f.intrinsic(Random);
                Ok(Ty::Double)
            }
            ("Math", "Round") => {
                want!(1);
                let t = self.gen_expr(&args[0])?;
                match t {
                    Ty::Float => {
                        self.f.intrinsic(RoundR4);
                        Ok(Ty::Int)
                    }
                    _ => {
                        self.convert(&t, &Ty::Double, args[0].pos())?;
                        self.f.intrinsic(RoundR8);
                        Ok(Ty::Long)
                    }
                }
            }
            ("Console", "WriteLine") => {
                want!(1);
                let t = self.gen_expr(&args[0])?;
                match t {
                    Ty::Str => self.f.intrinsic(ConsoleWriteLineStr),
                    Ty::Int | Ty::Bool => self.f.intrinsic(ConsoleWriteLineI4),
                    Ty::Long => {
                        self.f.intrinsic(StrFromI8);
                        self.f.intrinsic(ConsoleWriteLineStr);
                    }
                    Ty::Float | Ty::Double => {
                        self.convert(&t, &Ty::Double, args[0].pos())?;
                        self.f.intrinsic(ConsoleWriteLineR8);
                    }
                    other => return err(pos, format!("cannot WriteLine {other:?}")),
                }
                Ok(Ty::Void)
            }
            ("Sys", "Millis") => {
                want!(0);
                self.f.intrinsic(CurrentTimeMillis);
                Ok(Ty::Long)
            }
            ("Sys", "Nanos") => {
                want!(0);
                self.f.intrinsic(NanoTime);
                Ok(Ty::Long)
            }
            ("Sys", "Start") => {
                want!(1);
                let t = self.gen_expr(&args[0])?;
                self.convert(&t, &Ty::Object, args[0].pos())?;
                self.f.intrinsic(ThreadStart);
                Ok(Ty::Int)
            }
            ("Sys", "Join") => {
                want!(1);
                let t = self.gen_expr(&args[0])?;
                if t != Ty::Int {
                    return err(pos, "Sys.Join takes the int handle from Sys.Start");
                }
                self.f.intrinsic(ThreadJoin);
                Ok(Ty::Void)
            }
            ("Sys", "Yield") => {
                want!(0);
                self.f.intrinsic(ThreadYield);
                Ok(Ty::Void)
            }
            ("Monitor", "Enter" | "Exit") => {
                want!(1);
                let t = self.gen_expr(&args[0])?;
                self.convert(&t, &Ty::Object, args[0].pos())?;
                self.f.intrinsic(if name == "Enter" { MonitorEnter } else { MonitorExit });
                Ok(Ty::Void)
            }
            ("Serial", "Write") => {
                want!(1);
                let t = self.gen_expr(&args[0])?;
                self.convert(&t, &Ty::Object, args[0].pos())?;
                self.f.intrinsic(SerializeObj);
                Ok(Ty::Int)
            }
            ("Serial", "Read") => {
                want!(0);
                self.f.intrinsic(DeserializeObj);
                Ok(Ty::Object)
            }
            _ => err(pos, format!("unknown builtin {class}.{name}")),
        }
    }

    // ---- statements ----

    fn gen_stmt(&mut self, s: &Stmt) -> Result<()> {
        match s {
            Stmt::Local { ty, name, init, pos } => {
                let slot = self.declare_local(name, ty.clone(), *pos)?;
                if let Some(e) = init {
                    let et = self.gen_expr(e)?;
                    self.convert(&et, ty, e.pos())?;
                    self.f.st_loc(slot);
                }
                Ok(())
            }
            Stmt::Expr(e) => {
                let t = self.gen_expr(e)?;
                if t != Ty::Void {
                    self.f.emit(Op::Pop);
                }
                Ok(())
            }
            Stmt::Assign { target, op, value, pos } => match op {
                None => self.gen_plain_assign(target, value, *pos),
                Some(binop) => self.gen_compound_assign(target, *binop, value, *pos),
            },
            Stmt::IncDec { target, inc, pos } => {
                let one = Expr::Int(1);
                let op = if *inc { BinKind::Add } else { BinKind::Sub };
                self.gen_compound_assign(target, op, &one, *pos)
            }
            Stmt::If { cond, then, els } => {
                let l_else = self.f.new_label();
                self.gen_branch(cond, l_else, false)?;
                self.push_scope();
                for s in then {
                    self.gen_stmt(s)?;
                }
                self.pop_scope();
                match els {
                    Some(eb) => {
                        let l_end = self.f.new_label();
                        self.f.br(l_end);
                        self.f.place(l_else);
                        self.push_scope();
                        for s in eb {
                            self.gen_stmt(s)?;
                        }
                        self.pop_scope();
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
                self.gen_branch(cond, exit, false)?;
                self.loops.push((head, exit, self.try_depth));
                self.push_scope();
                for s in body {
                    self.gen_stmt(s)?;
                }
                self.pop_scope();
                self.loops.pop();
                self.jump(head);
                self.f.place(exit);
                Ok(())
            }
            Stmt::DoWhile { body, cond } => {
                let head = self.f.new_label();
                let check = self.f.new_label();
                let exit = self.f.new_label();
                self.f.place(head);
                self.loops.push((check, exit, self.try_depth));
                self.push_scope();
                for s in body {
                    self.gen_stmt(s)?;
                }
                self.pop_scope();
                self.loops.pop();
                self.f.place(check);
                self.gen_branch(cond, head, true)?;
                self.f.place(exit);
                Ok(())
            }
            Stmt::For { init, cond, update, body } => {
                self.push_scope();
                if let Some(i) = init {
                    self.gen_stmt(i)?;
                }
                let head = self.f.new_label();
                let cont = self.f.new_label();
                let exit = self.f.new_label();
                self.f.place(head);
                if let Some(c) = cond {
                    self.gen_branch(c, exit, false)?;
                }
                self.loops.push((cont, exit, self.try_depth));
                self.push_scope();
                for s in body {
                    self.gen_stmt(s)?;
                }
                self.pop_scope();
                self.loops.pop();
                self.f.place(cont);
                if let Some(u) = update {
                    self.gen_stmt(u)?;
                }
                self.jump(head);
                self.f.place(exit);
                self.pop_scope();
                Ok(())
            }
            Stmt::Break(pos) => {
                let (_, exit, loop_depth) = *self
                    .loops
                    .last()
                    .ok_or(())
                    .or_else(|_| err(*pos, "break outside loop"))?;
                self.jump_crossing(exit, loop_depth);
                Ok(())
            }
            Stmt::Continue(pos) => {
                let (cont, _, loop_depth) = *self
                    .loops
                    .last()
                    .ok_or(())
                    .or_else(|_| err(*pos, "continue outside loop"))?;
                self.jump_crossing(cont, loop_depth);
                Ok(())
            }
            Stmt::Return(value, pos) => {
                let ret = self.ret.clone();
                match value {
                    Some(e) => {
                        if ret == Ty::Void {
                            return err(*pos, "void method returns a value");
                        }
                        let t = self.gen_expr(e)?;
                        self.convert(&t, &ret, e.pos())?;
                    }
                    None => {
                        if ret != Ty::Void {
                            return err(*pos, "non-void method needs a return value");
                        }
                    }
                }
                if self.try_depth == 0 {
                    self.f.ret();
                } else {
                    // `ret` inside a protected region must leave (running
                    // finallys) to a shared epilogue.
                    if self.ret_label.is_none() {
                        let l = self.f.new_label();
                        self.ret_label = Some(l);
                        if ret != Ty::Void {
                            let tmp = self.hidden_temp(&ret, *pos)?;
                            self.ret_temp = Some(tmp);
                        }
                    }
                    if let Some(tmp) = self.ret_temp {
                        self.f.st_loc(tmp);
                    }
                    let l = self.ret_label.unwrap();
                    self.f.leave(l);
                }
                Ok(())
            }
            Stmt::Throw(e, pos) => {
                let t = self.gen_expr(e)?;
                match t {
                    Ty::Class(_) | Ty::Object => {}
                    other => return err(*pos, format!("cannot throw {other:?}")),
                }
                self.f.emit(Op::Throw);
                Ok(())
            }
            Stmt::Try { body, catch, finally } => self.gen_try(body, catch, finally),
            Stmt::Lock { obj, body, pos } => {
                let oty = self.infer(obj)?;
                if !is_ref(&oty) {
                    return err(*pos, "lock needs a reference");
                }
                let tmp = self.hidden_temp(&oty, *pos)?;
                let t = self.gen_expr(obj)?;
                let _ = t;
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
                self.push_scope();
                for s in body {
                    self.gen_stmt(s)?;
                }
                self.pop_scope();
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
            Stmt::Block(body) => {
                self.push_scope();
                for s in body {
                    self.gen_stmt(s)?;
                }
                self.pop_scope();
                Ok(())
            }
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
        body: &[Stmt],
        catch: &Option<(String, String, Vec<Stmt>)>,
        finally: &Option<Vec<Stmt>>,
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
            self.push_scope();
            for s in body {
                self.gen_stmt(s)?;
            }
            self.pop_scope();
            self.try_depth -= 1;
            self.f.leave(done);
            self.f.place(te);
            self.f.place(hs);
            // Handler: exception is on the stack.
            self.push_scope();
            let slot = self.declare_local(var, Ty::Class(class.clone()), self.pos)?;
            self.f.st_loc(slot);
            if finally.is_some() {
                self.try_depth += 1; // handler still inside the finally
                self.try_depth -= 1;
            }
            for s in handler {
                self.gen_stmt(s)?;
            }
            self.pop_scope();
            self.f.leave(done);
            self.f.place(he);
            self.f.eh_catch(ts, te, hs, he, cls_id);
        } else {
            self.push_scope();
            for s in body {
                self.gen_stmt(s)?;
            }
            self.pop_scope();
            self.f.leave(done);
        }
        if let Some(fb) = finally {
            self.try_depth -= 1;
            self.f.place(f_te);
            self.f.place(f_hs);
            self.push_scope();
            for s in fb {
                self.gen_stmt(s)?;
            }
            self.pop_scope();
            self.f.emit(Op::EndFinally);
            self.f.place(f_he);
            self.f.eh_finally(f_ts, f_te, f_hs, f_he);
        }
        self.f.place(done);
        Ok(())
    }

    fn gen_plain_assign(&mut self, target: &Expr, value: &Expr, pos: Pos) -> Result<()> {
        match target {
            Expr::Ident(name, p) => {
                if let Some((slot, ty)) = self.lookup_local(name) {
                    let vt = self.gen_expr(value)?;
                    self.convert(&vt, &ty, value.pos())?;
                    self.f.st_loc(slot);
                    return Ok(());
                }
                if let Some((idx, ty)) = self.lookup_param(name) {
                    let vt = self.gen_expr(value)?;
                    self.convert(&vt, &ty, value.pos())?;
                    self.f.st_arg(idx);
                    return Ok(());
                }
                if let Some(fi) = self.st.resolve_field(&self.class, name).cloned() {
                    if fi.is_static {
                        let vt = self.gen_expr(value)?;
                        self.convert(&vt, &fi.ty, value.pos())?;
                        self.f.emit(Op::StSFld(fi.id));
                    } else {
                        if self.is_static {
                            return err(*p, format!("instance field {name} in static context"));
                        }
                        self.f.ld_arg(0);
                        let vt = self.gen_expr(value)?;
                        self.convert(&vt, &fi.ty, value.pos())?;
                        self.f.emit(Op::StFld(fi.id));
                    }
                    return Ok(());
                }
                err(*p, format!("unknown name {name}"))
            }
            Expr::Field { obj, name, pos: fp } => {
                // Static field through class name?
                if let Expr::Ident(cname, _) = obj.as_ref() {
                    if self.lookup_local(cname).is_none()
                        && self.lookup_param(cname).is_none()
                        && self.st.classes.contains_key(cname)
                    {
                        let fi = match self.st.resolve_field(cname, name).cloned() {
                            Some(fi) if fi.is_static => fi,
                            _ => return err(*fp, format!("no static field {cname}.{name}")),
                        };
                        let vt = self.gen_expr(value)?;
                        self.convert(&vt, &fi.ty, value.pos())?;
                        self.f.emit(Op::StSFld(fi.id));
                        return Ok(());
                    }
                }
                let oty = self.gen_expr(obj)?;
                let c = match &oty {
                    Ty::Class(c) => c.clone(),
                    _ => return err(*fp, format!("no assignable field {name} on {oty:?}")),
                };
                let fi = match self.st.resolve_field(&c, name).cloned() {
                    Some(fi) if !fi.is_static => fi,
                    _ => return err(*fp, format!("no field {name} on {c}")),
                };
                let vt = self.gen_expr(value)?;
                self.convert(&vt, &fi.ty, value.pos())?;
                self.f.emit(Op::StFld(fi.id));
                Ok(())
            }
            Expr::Index { arr, idxs, pos: ip } => {
                let aty = self.gen_expr(arr)?;
                match (&aty, idxs.len()) {
                    (Ty::Array(elem), 1) => {
                        let it = self.gen_expr(&idxs[0])?;
                        self.convert_index(&it, idxs[0].pos())?;
                        let vt = self.gen_expr(value)?;
                        self.convert(&vt, elem, value.pos())?;
                        let cty = self.st.cil_ty(elem, *ip)?;
                        self.f.emit(Op::StElem(elem_kind_of(&cty)));
                        Ok(())
                    }
                    (Ty::Multi(elem, r), n) if n == *r as usize => {
                        for idx in idxs {
                            let it = self.gen_expr(idx)?;
                            self.convert_index(&it, idx.pos())?;
                        }
                        let vt = self.gen_expr(value)?;
                        self.convert(&vt, elem, value.pos())?;
                        let cty = self.st.cil_ty(elem, *ip)?;
                        self.f.emit(Op::StElemMulti {
                            kind: elem_kind_of(&cty),
                            rank: *r,
                        });
                        Ok(())
                    }
                    _ => err(*ip, format!("bad index on {aty:?}")),
                }
            }
            other => err(pos, format!("not an assignable expression: {other:?}")),
        }
    }

    fn gen_compound_assign(
        &mut self,
        target: &Expr,
        op: BinKind,
        value: &Expr,
        pos: Pos,
    ) -> Result<()> {
        // Desugar `t op= v` while evaluating the target's address parts
        // once (via hidden temps when needed).
        match target {
            Expr::Ident(..) | Expr::Field { .. } => {
                // Locals/params/fields: the address parts are trivially
                // re-evaluable except an instance-field object expression.
                match target {
                    Expr::Field { obj, name, pos: fp }
                        if !matches!(obj.as_ref(), Expr::Ident(c, _)
                            if self.lookup_local(c).is_none()
                                && self.lookup_param(c).is_none()
                                && self.st.classes.contains_key(c)) =>
                    {
                        let oty = self.infer(obj)?;
                        let tmp = self.hidden_temp(&oty, *fp)?;
                        self.gen_expr(obj)?;
                        self.f.st_loc(tmp);
                        let obj2 = self.temp_expr(tmp, &oty);
                        let new_target = Expr::Field {
                            obj: Box::new(obj2.clone()),
                            name: name.clone(),
                            pos: *fp,
                        };
                        let rhs = Expr::Bin {
                            op,
                            lhs: Box::new(new_target.clone()),
                            rhs: Box::new(value.clone()),
                            pos,
                        };
                        self.gen_plain_assign(&new_target, &rhs, pos)
                    }
                    _ => {
                        let rhs = Expr::Bin {
                            op,
                            lhs: Box::new(target.clone()),
                            rhs: Box::new(value.clone()),
                            pos,
                        };
                        self.gen_plain_assign(target, &rhs, pos)
                    }
                }
            }
            Expr::Index { arr, idxs, pos: ip } => {
                // Evaluate the array and indices once into temps.
                let aty = self.infer(arr)?;
                let atmp = self.hidden_temp(&aty, *ip)?;
                self.gen_expr(arr)?;
                self.f.st_loc(atmp);
                let mut idx_exprs = Vec::new();
                for idx in idxs {
                    let it = self.infer(idx)?;
                    let t = self.hidden_temp(&Ty::Int, *ip)?;
                    let got = self.gen_expr(idx)?;
                    let _ = it;
                    self.convert_index(&got, idx.pos())?;
                    self.f.st_loc(t);
                    idx_exprs.push(self.temp_expr(t, &Ty::Int));
                }
                let new_target = Expr::Index {
                    arr: Box::new(self.temp_expr(atmp, &aty)),
                    idxs: idx_exprs,
                    pos: *ip,
                };
                let rhs = Expr::Bin {
                    op,
                    lhs: Box::new(new_target.clone()),
                    rhs: Box::new(value.clone()),
                    pos,
                };
                self.gen_plain_assign(&new_target, &rhs, pos)
            }
            other => err(pos, format!("not an assignable expression: {other:?}")),
        }
    }

    /// A synthetic identifier expression referring to a hidden temp.
    fn temp_expr(&mut self, slot: u16, ty: &Ty) -> Expr {
        // Register under an unutterable name in the innermost scope.
        let name = format!("$tmp{slot}");
        if self.lookup_local(&name).is_none() {
            self.scopes
                .last_mut()
                .unwrap()
                .push((name.clone(), slot, ty.clone()));
        }
        Expr::Ident(name, Pos { line: 0, col: 0 })
    }
}
