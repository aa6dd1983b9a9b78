//! Construction of modules and method bodies.
//!
//! [`ModuleBuilder`] is the target a compiler back-end (or a hand-written
//! test) emits into. It is two-phase: declare classes first (so forward
//! references resolve), then define fields and methods; [`ModuleBuilder::finish`]
//! computes field layouts, vtables and name tables, producing a sealed
//! [`Module`].

use crate::module::{
    ClassDef, ClassId, EhKind, EhRegion, FieldDef, FieldId, MethodBody, MethodDef, MethodId,
    Module, StrId,
};
use crate::op::{BinOp, CmpOp, ElemKind, Intrinsic, Op, UnOp};
use crate::types::{CilType, NumTy};
use std::collections::HashMap;

/// A forward-patchable branch target inside a [`MethodBuilder`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Label(u32);

/// How a method participates in dispatch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MethodKind {
    Static,
    /// Non-virtual instance method.
    Instance,
    /// Introduces a new vtable slot.
    Virtual,
    /// Overrides a base-class virtual slot of the same name.
    Override,
    /// Instance constructor.
    Ctor,
}

struct PendingMethod {
    def: MethodDef,
    kind: MethodKind,
}

/// The code, labels and branch sites of the body being built, kept by the
/// module builder from one method to the next so that a body grows none
/// of them afresh; [`MethodBuilder::finish`] copies the code out at its
/// exact length.
#[derive(Default)]
struct BodyScratch {
    code: Vec<Op>,
    labels: Vec<Option<u32>>,
    patches: Vec<(usize, Label)>,
}

/// Builds a [`Module`].
pub struct ModuleBuilder {
    classes: Vec<(String, Option<String>)>,
    class_ids: HashMap<String, ClassId>,
    fields: Vec<FieldDef>,
    methods: Vec<PendingMethod>,
    method_ids: HashMap<String, MethodId>,
    strings: Vec<String>,
    string_ids: HashMap<String, StrId>,
    scratch: BodyScratch,
}

impl Default for ModuleBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ModuleBuilder {
    pub fn new() -> Self {
        ModuleBuilder {
            classes: Vec::new(),
            class_ids: HashMap::new(),
            fields: Vec::new(),
            methods: Vec::new(),
            method_ids: HashMap::new(),
            strings: Vec::new(),
            string_ids: HashMap::new(),
            scratch: BodyScratch::default(),
        }
    }

    /// Declare a class. Base classes may be declared in any order; the base
    /// is resolved by name at [`finish`](Self::finish) time.
    pub fn declare_class(&mut self, name: &str, base: Option<&str>) -> ClassId {
        assert!(
            !self.class_ids.contains_key(name),
            "duplicate class {name}"
        );
        let id = ClassId(self.classes.len() as u32);
        self.classes.push((name.to_string(), base.map(String::from)));
        self.class_ids.insert(name.to_string(), id);
        id
    }

    /// Class id previously declared under `name`.
    pub fn class_id(&self, name: &str) -> Option<ClassId> {
        self.class_ids.get(name).copied()
    }

    /// Add a field; slots are assigned at `finish`.
    pub fn add_field(&mut self, owner: ClassId, name: &str, ty: CilType, is_static: bool) -> FieldId {
        let id = FieldId(self.fields.len() as u32);
        self.fields.push(FieldDef {
            name: name.to_string(),
            owner,
            ty,
            is_static,
            slot: u32::MAX, // assigned in finish()
        });
        id
    }

    /// Intern a string literal.
    pub fn intern(&mut self, s: &str) -> StrId {
        if let Some(&id) = self.string_ids.get(s) {
            return id;
        }
        let id = StrId(self.strings.len() as u32);
        self.strings.push(s.to_string());
        self.string_ids.insert(s.to_string(), id);
        id
    }

    /// Begin a method; finish it with [`MethodBuilder::finish`].
    pub fn method(
        &mut self,
        owner: ClassId,
        name: &str,
        params: Vec<CilType>,
        ret: CilType,
        kind: MethodKind,
    ) -> MethodBuilder<'_> {
        let id = MethodId(self.methods.len() as u32);
        let qualified = format!("{}.{name}", self.classes[owner.idx()].0);
        assert!(
            !self.method_ids.contains_key(&qualified),
            "duplicate method {qualified}"
        );
        self.method_ids.insert(qualified, id);
        self.methods.push(PendingMethod {
            def: MethodDef {
                name: name.to_string(),
                owner,
                params,
                ret,
                is_static: kind == MethodKind::Static,
                vtable_slot: None,
                is_ctor: kind == MethodKind::Ctor,
                body: MethodBody::default(),
            },
            kind,
        });
        MethodBuilder::new(self, id)
    }

    /// Method id previously created under `"Class.Method"`.
    pub fn method_id(&self, qualified: &str) -> Option<MethodId> {
        self.method_ids.get(qualified).copied()
    }

    /// Direct access to a pending method definition (body patching).
    pub fn method_def_mut(&mut self, id: MethodId) -> &mut MethodDef {
        &mut self.methods[id.idx()].def
    }

    /// Begin (re)building the body of an already-declared method.
    ///
    /// Two-phase compilers declare every signature first (so forward
    /// references resolve), then emit bodies through this.
    pub fn rebuild_method(&mut self, id: MethodId) -> MethodBuilder<'_> {
        MethodBuilder::new(self, id)
    }

    /// Seal the module: resolve bases, lay out fields, build vtables.
    pub fn finish(self) -> Module {
        let ModuleBuilder {
            classes,
            class_ids,
            mut fields,
            methods,
            method_ids,
            strings,
            ..
        } = self;

        // Resolve base classes and order classes base-before-derived.
        let bases: Vec<Option<ClassId>> = classes
            .iter()
            .map(|(name, base)| {
                base.as_ref().map(|b| {
                    *class_ids
                        .get(b)
                        .unwrap_or_else(|| panic!("unknown base class {b} of {name}"))
                })
            })
            .collect();
        let n = classes.len();
        let mut order = Vec::with_capacity(n);
        let mut visited = vec![0u8; n];
        fn visit(
            c: usize,
            bases: &[Option<ClassId>],
            visited: &mut [u8],
            order: &mut Vec<usize>,
            names: &[(String, Option<String>)],
        ) {
            match visited[c] {
                2 => return,
                1 => panic!("inheritance cycle at class {}", names[c].0),
                _ => {}
            }
            visited[c] = 1;
            if let Some(b) = bases[c] {
                visit(b.idx(), bases, visited, order, names);
            }
            visited[c] = 2;
            order.push(c);
        }
        for c in 0..n {
            visit(c, &bases, &mut visited, &mut order, &classes);
        }

        // Field layout. Instance fields: inherited slots first, then own,
        // split into primitive and reference slot spaces. Statics get
        // module-wide slots.
        let mut class_defs: Vec<Option<ClassDef>> = (0..n).map(|_| None).collect();
        let mut n_static_prim = 0u32;
        let mut n_static_ref = 0u32;
        // Per-class "virtual name -> slot" map for override resolution.
        let mut vslots: Vec<HashMap<String, u16>> = (0..n).map(|_| HashMap::new()).collect();

        for &c in &order {
            let (base_prim, base_ref, base_fields, base_vtable, base_vslots) = match bases[c] {
                Some(b) => {
                    let bd = class_defs[b.idx()].as_ref().expect("base ordered first");
                    (
                        bd.n_prim_slots,
                        bd.n_ref_slots,
                        bd.instance_fields.clone(),
                        bd.vtable.clone(),
                        vslots[b.idx()].clone(),
                    )
                }
                None => (0, 0, Vec::new(), Vec::new(), HashMap::new()),
            };
            let mut n_prim = base_prim;
            let mut n_ref = base_ref;
            let mut instance_fields = base_fields;
            let mut static_fields = Vec::new();
            for (fi, f) in fields.iter_mut().enumerate() {
                if f.owner.idx() != c {
                    continue;
                }
                if f.is_static {
                    if f.ty.is_ref() {
                        f.slot = n_static_ref;
                        n_static_ref += 1;
                    } else {
                        f.slot = n_static_prim;
                        n_static_prim += 1;
                    }
                    static_fields.push(FieldId(fi as u32));
                } else {
                    if f.ty.is_ref() {
                        f.slot = n_ref;
                        n_ref += 1;
                    } else {
                        f.slot = n_prim;
                        n_prim += 1;
                    }
                    instance_fields.push(FieldId(fi as u32));
                }
            }

            // Vtable: copy base, then apply this class's virtual/override
            // methods in definition order.
            let mut vtable = base_vtable;
            let mut my_vslots = base_vslots;
            for (mi, pm) in methods.iter().enumerate() {
                if pm.def.owner.idx() != c {
                    continue;
                }
                match pm.kind {
                    MethodKind::Virtual => {
                        let slot = vtable.len() as u16;
                        assert!(
                            !my_vslots.contains_key(&pm.def.name),
                            "virtual {} redeclares an inherited slot; use Override",
                            pm.def.name
                        );
                        my_vslots.insert(pm.def.name.clone(), slot);
                        vtable.push(MethodId(mi as u32));
                    }
                    MethodKind::Override => {
                        let slot = *my_vslots.get(&pm.def.name).unwrap_or_else(|| {
                            panic!("override {} has no base virtual", pm.def.name)
                        });
                        vtable[slot as usize] = MethodId(mi as u32);
                    }
                    _ => {}
                }
            }
            vslots[c] = my_vslots;
            class_defs[c] = Some(ClassDef {
                name: classes[c].0.clone(),
                base: bases[c],
                instance_fields,
                static_fields,
                n_prim_slots: n_prim,
                n_ref_slots: n_ref,
                vtable,
            });
        }

        // Assign vtable slots on the method defs.
        let mut method_defs: Vec<MethodDef> = methods.into_iter().map(|p| p.def).collect();
        // A method's vtable_slot is findable from its owner's slot map.
        for m in method_defs.iter_mut() {
            if let Some(&slot) = vslots[m.owner.idx()].get(&m.name) {
                // Only mark it if this method actually occupies/overrides
                // that slot (ctor or static of same name cannot collide
                // because names are unique per class).
                if !m.is_static && !m.is_ctor {
                    m.vtable_slot = Some(slot);
                }
            }
        }

        Module {
            classes: class_defs.into_iter().map(Option::unwrap).collect(),
            methods: method_defs,
            fields,
            strings,
            n_static_prim,
            n_static_ref,
            method_names: method_ids,
            class_names: class_ids,
        }
    }
}

/// Builds one method body, then writes it back into the [`ModuleBuilder`].
pub struct MethodBuilder<'m> {
    module: &'m mut ModuleBuilder,
    id: MethodId,
    locals: Vec<CilType>,
    code: Vec<Op>,
    labels: Vec<Option<u32>>,
    patches: Vec<(usize, Label)>,
    eh: Vec<(Label, Label, Label, Label, EhKind)>,
}

impl<'m> MethodBuilder<'m> {
    fn new(module: &'m mut ModuleBuilder, id: MethodId) -> Self {
        let BodyScratch { code, labels, patches } = std::mem::take(&mut module.scratch);
        MethodBuilder {
            module,
            id,
            locals: Vec::new(),
            code,
            labels,
            patches,
            eh: Vec::new(),
        }
    }

    /// The id the finished method will have.
    pub fn id(&self) -> MethodId {
        self.id
    }

    /// Access to the owning module builder (e.g. to intern strings).
    pub fn module(&mut self) -> &mut ModuleBuilder {
        self.module
    }

    /// Allocate a local variable slot.
    pub fn local(&mut self, ty: CilType) -> u16 {
        let i = self.locals.len() as u16;
        self.locals.push(ty);
        i
    }

    /// Create an unplaced label.
    pub fn new_label(&mut self) -> Label {
        let l = Label(self.labels.len() as u32);
        self.labels.push(None);
        l
    }

    /// Place a label at the current instruction position.
    pub fn place(&mut self, l: Label) {
        assert!(self.labels[l.0 as usize].is_none(), "label placed twice");
        self.labels[l.0 as usize] = Some(self.code.len() as u32);
    }

    /// Current instruction index (for diagnostics).
    pub fn here(&self) -> u32 {
        self.code.len() as u32
    }

    /// Emit a raw op (no branch patching).
    pub fn emit(&mut self, op: Op) {
        debug_assert!(op.branch_target().is_none(), "use the branch helpers");
        self.code.push(op);
    }

    /// Move the ops emitted since instruction index `mark` back to the
    /// earlier index `to`, shifting the code from `to` on after them.
    /// Labels placed after `to` and branch sites at or after it move with
    /// that code; a label placed exactly at `to` stays, so it reaches the
    /// moved ops. The moved ops must place no label and not branch.
    /// With nothing emitted since `mark` it returns at once, so a caller
    /// that only sometimes emits pays no walk over labels and patches.
    pub fn move_since(&mut self, mark: u32, to: u32) {
        let (mark, to) = (mark as usize, to as usize);
        debug_assert!(to <= mark && mark <= self.code.len());
        if mark == self.code.len() {
            return;
        }
        debug_assert!(
            self.patches.iter().all(|&(at, _)| at < mark),
            "moved ops do not branch"
        );
        debug_assert!(
            self.labels.iter().flatten().all(|&p| p as usize <= mark),
            "moved ops place no label"
        );
        let n = self.code.len() - mark;
        self.code[to..].rotate_right(n);
        for p in self.labels.iter_mut().flatten() {
            if *p as usize > to {
                *p += n as u32;
            }
        }
        for (at, _) in &mut self.patches {
            if *at >= to {
                *at += n;
            }
        }
    }

    fn emit_branch(&mut self, op: Op, target: Label) {
        self.patches.push((self.code.len(), target));
        self.code.push(op);
    }

    // ---- constant helpers ----
    pub fn ldc_i4(&mut self, v: i32) {
        self.emit(Op::LdcI4(v));
    }
    pub fn ldc_i8(&mut self, v: i64) {
        self.emit(Op::LdcI8(v));
    }
    pub fn ldc_r4(&mut self, v: f32) {
        self.emit(Op::LdcR4(v));
    }
    pub fn ldc_r8(&mut self, v: f64) {
        self.emit(Op::LdcR8(v));
    }
    pub fn ld_str(&mut self, s: &str) {
        let id = self.module.intern(s);
        self.emit(Op::LdStr(id));
    }

    // ---- locals / args ----
    pub fn ld_loc(&mut self, i: u16) {
        self.emit(Op::LdLoc(i));
    }
    pub fn st_loc(&mut self, i: u16) {
        self.emit(Op::StLoc(i));
    }
    pub fn ld_arg(&mut self, i: u16) {
        self.emit(Op::LdArg(i));
    }
    pub fn st_arg(&mut self, i: u16) {
        self.emit(Op::StArg(i));
    }

    // ---- arithmetic ----
    pub fn bin(&mut self, op: BinOp) {
        self.emit(Op::Bin(op));
    }
    pub fn un(&mut self, op: UnOp) {
        self.emit(Op::Un(op));
    }
    pub fn cmp(&mut self, op: CmpOp) {
        self.emit(Op::Cmp(op));
    }
    pub fn conv(&mut self, to: NumTy) {
        self.emit(Op::Conv(to));
    }

    // ---- branches ----
    pub fn br(&mut self, l: Label) {
        self.emit_branch(Op::Br(0), l);
    }
    pub fn br_true(&mut self, l: Label) {
        self.emit_branch(Op::BrTrue(0), l);
    }
    pub fn br_false(&mut self, l: Label) {
        self.emit_branch(Op::BrFalse(0), l);
    }
    pub fn br_cmp(&mut self, op: CmpOp, l: Label) {
        self.emit_branch(Op::BrCmp(op, 0), l);
    }
    pub fn leave(&mut self, l: Label) {
        self.emit_branch(Op::Leave(0), l);
    }

    // ---- calls ----
    pub fn call(&mut self, m: MethodId) {
        self.emit(Op::Call(m));
    }
    pub fn call_virt(&mut self, m: MethodId) {
        self.emit(Op::CallVirt(m));
    }
    pub fn intrinsic(&mut self, i: Intrinsic) {
        self.emit(Op::CallIntrinsic(i));
    }
    pub fn ret(&mut self) {
        self.emit(Op::Ret);
    }

    // ---- exception regions ----
    /// Register a catch region over label-delimited ranges.
    pub fn eh_catch(
        &mut self,
        try_start: Label,
        try_end: Label,
        handler_start: Label,
        handler_end: Label,
        class: ClassId,
    ) {
        self.eh
            .push((try_start, try_end, handler_start, handler_end, EhKind::Catch(class)));
    }

    /// Register a finally region over label-delimited ranges.
    pub fn eh_finally(
        &mut self,
        try_start: Label,
        try_end: Label,
        handler_start: Label,
        handler_end: Label,
    ) {
        self.eh
            .push((try_start, try_end, handler_start, handler_end, EhKind::Finally));
    }

    /// Patch labels and store the body into the module.
    pub fn finish(self) -> MethodId {
        let MethodBuilder {
            module,
            id,
            locals,
            mut code,
            mut labels,
            mut patches,
            eh,
        } = self;
        let resolve = |l: Label| -> u32 {
            labels[l.0 as usize].unwrap_or_else(|| panic!("unplaced label {l:?}"))
        };
        for &(at, l) in &patches {
            code[at].set_branch_target(resolve(l));
        }
        let eh = eh
            .into_iter()
            .map(|(ts, te, hs, he, kind)| EhRegion {
                try_start: resolve(ts),
                try_end: resolve(te),
                handler_start: resolve(hs),
                handler_end: resolve(he),
                kind,
            })
            .collect();
        module.methods[id.idx()].def.body = MethodBody {
            locals,
            code: code.to_vec(),
            eh,
            ..MethodBody::default()
        };
        code.clear();
        labels.clear();
        patches.clear();
        module.scratch = BodyScratch { code, labels, patches };
        id
    }
}

/// Convenience: array load matching an element type.
pub fn elem_kind_of(ty: &CilType) -> ElemKind {
    match ty {
        CilType::U1 => ElemKind::U1,
        CilType::Bool | CilType::I4 => ElemKind::I4,
        CilType::I8 => ElemKind::I8,
        CilType::R4 => ElemKind::R4,
        CilType::R8 => ElemKind::R8,
        t if t.is_ref() => ElemKind::Ref,
        t => panic!("no element kind for {t}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_counting_loop() {
        let mut mb = ModuleBuilder::new();
        let c = mb.declare_class("P", None);
        let mut f = mb.method(c, "Count", vec![CilType::I4], CilType::I4, MethodKind::Static);
        // int s = 0; for (int i = 0; i < n; i++) s += i; return s;
        let s = f.local(CilType::I4);
        let i = f.local(CilType::I4);
        let head = f.new_label();
        let exit = f.new_label();
        f.ldc_i4(0);
        f.st_loc(s);
        f.ldc_i4(0);
        f.st_loc(i);
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
        let id = f.finish();
        let m = mb.finish();
        let body = &m.method(id).body;
        assert_eq!(body.locals.len(), 2);
        // The forward branch was patched to the exit block.
        let target = body.code[6].branch_target().unwrap();
        assert_eq!(body.code[target as usize], Op::LdLoc(0));
        // The back-edge points at the loop head.
        assert_eq!(body.code[15], Op::Br(4));
    }

    #[test]
    fn field_layout_with_inheritance() {
        let mut mb = ModuleBuilder::new();
        let base = mb.declare_class("Base", None);
        let derived = mb.declare_class("Derived", Some("Base"));
        let f0 = mb.add_field(base, "x", CilType::I4, false);
        let f1 = mb.add_field(base, "o", CilType::Object, false);
        let f2 = mb.add_field(derived, "y", CilType::R8, false);
        let f3 = mb.add_field(derived, "p", CilType::Object, false);
        let st = mb.add_field(base, "g", CilType::I8, true);
        let m = mb.finish();
        assert_eq!(m.field(f0).slot, 0);
        assert_eq!(m.field(f1).slot, 0); // first ref slot
        assert_eq!(m.field(f2).slot, 1); // second prim slot (after inherited x)
        assert_eq!(m.field(f3).slot, 1); // second ref slot
        assert_eq!(m.field(st).slot, 0);
        assert_eq!(m.class(derived).n_prim_slots, 2);
        assert_eq!(m.class(derived).n_ref_slots, 2);
        assert_eq!(m.class(base).n_prim_slots, 1);
        assert_eq!(m.n_static_prim, 1);
    }

    #[test]
    fn vtable_override() {
        let mut mb = ModuleBuilder::new();
        let a = mb.declare_class("A", None);
        let b = mb.declare_class("B", Some("A"));
        let ma = mb
            .method(a, "F", vec![], CilType::I4, MethodKind::Virtual)
            .finish();
        let mb2 = mb
            .method(b, "F", vec![], CilType::I4, MethodKind::Override)
            .finish();
        let m = mb.finish();
        assert_eq!(m.class(a).vtable, vec![ma]);
        assert_eq!(m.class(b).vtable, vec![mb2]);
        assert_eq!(m.method(ma).vtable_slot, Some(0));
        assert_eq!(m.method(mb2).vtable_slot, Some(0));
        assert_eq!(m.resolve_virtual(b, ma), mb2);
    }

    #[test]
    fn string_interning_dedups() {
        let mut mb = ModuleBuilder::new();
        let a = mb.intern("hello");
        let b = mb.intern("hello");
        let c = mb.intern("world");
        assert_eq!(a, b);
        assert_ne!(a, c);
        let m = mb.finish();
        assert_eq!(m.string(a), "hello");
        assert_eq!(m.strings.len(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate class")]
    fn duplicate_class_rejected() {
        let mut mb = ModuleBuilder::new();
        mb.declare_class("X", None);
        mb.declare_class("X", None);
    }

    #[test]
    fn move_since_carries_later_labels_branches_and_regions() {
        let mut mb = ModuleBuilder::new();
        let c = mb.declare_class("P", None);
        let mut f = mb.method(c, "F", vec![], CilType::Void, MethodKind::Static);
        let (at_mark, after, exit) = (f.new_label(), f.new_label(), f.new_label());
        let (ts, te, hs, he) = (f.new_label(), f.new_label(), f.new_label(), f.new_label());
        f.ldc_i4(1); // 0
        f.place(at_mark);
        let to = f.here();
        f.place(ts);
        f.ldc_i4(2); // 1
        f.place(after);
        f.leave(exit); // 2
        f.place(te);
        f.place(hs);
        f.emit(Op::EndFinally); // 3
        f.place(he);
        f.place(exit);
        let mark = f.here();
        f.conv(NumTy::I8); // 4, moved to 1
        f.emit(Op::Pop);
        f.move_since(mark, to);
        f.br(at_mark);
        f.br(after);
        f.eh_finally(ts, te, hs, he);
        let id = f.finish();
        let m = mb.finish();
        let body = &m.method(id).body;
        assert_eq!(
            body.code,
            vec![
                Op::LdcI4(1),
                Op::Conv(NumTy::I8),
                Op::Pop,
                Op::LdcI4(2),
                Op::Leave(6),
                Op::EndFinally,
                Op::Br(1),
                Op::Br(4),
            ]
        );
        // `ts` was placed at `to` itself, so it stays on the moved ops;
        // the other region bounds move with the code after them.
        let r = &body.eh[0];
        assert_eq!(
            (r.try_start, r.try_end, r.handler_start, r.handler_end),
            (1, 5, 5, 6)
        );
    }

    #[test]
    fn move_since_with_nothing_emitted_changes_nothing() {
        let mut mb = ModuleBuilder::new();
        let c = mb.declare_class("P", None);
        let mut f = mb.method(c, "F", vec![], CilType::Void, MethodKind::Static);
        let (back, ahead) = (f.new_label(), f.new_label());
        f.ldc_i4(1);
        let to = f.here();
        f.place(back);
        f.ldc_i4(2);
        f.br(ahead);
        f.br(back);
        f.place(ahead);
        let before = (f.code.clone(), f.labels.clone(), f.patches.clone());
        let mark = f.here();
        f.move_since(mark, to);
        assert_eq!((f.code.clone(), f.labels.clone(), f.patches.clone()), before);
    }

    #[test]
    #[should_panic(expected = "unplaced label")]
    fn unplaced_label_rejected() {
        let mut mb = ModuleBuilder::new();
        let c = mb.declare_class("P", None);
        let mut f = mb.method(c, "F", vec![], CilType::Void, MethodKind::Static);
        let l = f.new_label();
        f.br(l);
        f.finish();
    }

    #[test]
    fn elem_kind_mapping() {
        assert_eq!(elem_kind_of(&CilType::R8), ElemKind::R8);
        assert_eq!(elem_kind_of(&CilType::U1), ElemKind::U1);
        assert_eq!(elem_kind_of(&CilType::array_of(CilType::I4)), ElemKind::Ref);
        assert_eq!(elem_kind_of(&CilType::Object), ElemKind::Ref);
    }
}
