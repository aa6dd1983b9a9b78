//! Module metadata — the self-describing unit of deployment.
//!
//! In ECMA-335 terms this is the assembly/metadata layer: type definitions,
//! method definitions with bodies, field layout, string literals, and the
//! exception-region tables. Everything is pre-resolved into dense indices so
//! the execution engines never do name lookups at run time (mirroring what a
//! loader produces).

use crate::op::Op;
use crate::types::CilType;
use crate::verify::StackShapes;
use std::collections::HashMap;
use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub u32);

        impl $name {
            /// Index form for table addressing.
            #[inline]
            pub fn idx(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}#{}", stringify!($name), self.0)
            }
        }
    };
}

id_type!(
    /// Index of a class definition in [`Module::classes`].
    ClassId
);
id_type!(
    /// Index of a method definition in [`Module::methods`].
    MethodId
);
id_type!(
    /// Index of a field definition in [`Module::fields`].
    FieldId
);
id_type!(
    /// Index of a string literal in [`Module::strings`].
    StrId
);

/// A field definition with its resolved storage slot.
///
/// Instance layout separates primitive (numeric) and reference fields into
/// two slot spaces, the split the runtime's object model uses.
#[derive(Clone, Debug)]
pub struct FieldDef {
    pub name: String,
    pub owner: ClassId,
    pub ty: CilType,
    pub is_static: bool,
    /// Slot within the owner's primitive or reference field space (for
    /// statics, within the module-wide static space).
    pub slot: u32,
}

/// Exception-handler flavor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EhKind {
    /// Catch handler for the given exception class (and subclasses).
    Catch(ClassId),
    /// Finally handler.
    Finally,
}

/// A protected region of a method body.
///
/// `try_start..try_end` and `handler_start..handler_end` are half-open
/// instruction-index ranges. Regions are ordered innermost-first, the order
/// the engines search on an in-flight exception.
#[derive(Clone, Debug)]
pub struct EhRegion {
    pub try_start: u32,
    pub try_end: u32,
    pub handler_start: u32,
    pub handler_end: u32,
    pub kind: EhKind,
}

impl EhRegion {
    /// Does the protected range cover the given instruction index?
    #[inline]
    pub fn covers(&self, pc: u32) -> bool {
        self.try_start <= pc && pc < self.try_end
    }
}

/// A method body: locals, code, exception regions, and what verification
/// recorded about the code.
///
/// `max_stack` and `stack_shapes` describe the code as
/// [`verify_module`](crate::verify::verify_module) saw it: a body edited
/// after verification must be verified again.
#[derive(Clone, Debug, Default)]
pub struct MethodBody {
    pub locals: Vec<CilType>,
    pub code: Vec<Op>,
    pub eh: Vec<EhRegion>,
    /// Maximum evaluation-stack depth, filled in by verification.
    pub max_stack: u32,
    /// Every instruction's entry-stack shape, filled in by verification
    /// (`None` before it); the register tiers lower from it.
    pub stack_shapes: Option<StackShapes>,
}

/// A method definition.
#[derive(Clone, Debug)]
pub struct MethodDef {
    pub name: String,
    pub owner: ClassId,
    /// Parameter types, excluding the receiver for instance methods.
    pub params: Vec<CilType>,
    pub ret: CilType,
    pub is_static: bool,
    /// Vtable slot if the method participates in virtual dispatch.
    pub vtable_slot: Option<u16>,
    pub is_ctor: bool,
    pub body: MethodBody,
}

impl MethodDef {
    /// Total argument count including the receiver for instance methods.
    pub fn arg_count(&self) -> usize {
        self.params.len() + usize::from(!self.is_static)
    }
}

/// A class definition.
#[derive(Clone, Debug)]
pub struct ClassDef {
    pub name: String,
    pub base: Option<ClassId>,
    /// Instance field ids in declaration order (including inherited, which
    /// occupy the leading slots).
    pub instance_fields: Vec<FieldId>,
    /// Static field ids declared on this class.
    pub static_fields: Vec<FieldId>,
    /// Number of primitive instance slots (including inherited).
    pub n_prim_slots: u32,
    /// Number of reference instance slots (including inherited).
    pub n_ref_slots: u32,
    /// Virtual method table: slot → implementing method.
    pub vtable: Vec<MethodId>,
}

/// A fully resolved module.
#[derive(Clone, Debug, Default)]
pub struct Module {
    pub classes: Vec<ClassDef>,
    pub methods: Vec<MethodDef>,
    pub fields: Vec<FieldDef>,
    pub strings: Vec<String>,
    /// Total primitive static slots across the module.
    pub n_static_prim: u32,
    /// Total reference static slots across the module.
    pub n_static_ref: u32,
    /// `"Class.Method"` → id, for entry-point lookup by hosts and tests.
    pub method_names: HashMap<String, MethodId>,
    /// Class name → id.
    pub class_names: HashMap<String, ClassId>,
}

impl Module {
    pub fn class(&self, id: ClassId) -> &ClassDef {
        &self.classes[id.idx()]
    }

    pub fn method(&self, id: MethodId) -> &MethodDef {
        &self.methods[id.idx()]
    }

    pub fn field(&self, id: FieldId) -> &FieldDef {
        &self.fields[id.idx()]
    }

    pub fn string(&self, id: StrId) -> &str {
        &self.strings[id.idx()]
    }

    /// Look up a method by `"Class.Method"` name.
    pub fn find_method(&self, qualified: &str) -> Option<MethodId> {
        self.method_names.get(qualified).copied()
    }

    /// Look up a class by name.
    pub fn find_class(&self, name: &str) -> Option<ClassId> {
        self.class_names.get(name).copied()
    }

    /// Is `sub` the same class as `sup` or a (transitive) subclass of it?
    pub fn is_subclass_of(&self, sub: ClassId, sup: ClassId) -> bool {
        let mut cur = Some(sub);
        while let Some(c) = cur {
            if c == sup {
                return true;
            }
            cur = self.classes[c.idx()].base;
        }
        false
    }

    /// Resolve a virtual call: the method implementing `decl`'s vtable slot
    /// on the concrete receiver class.
    pub fn resolve_virtual(&self, receiver: ClassId, decl: MethodId) -> MethodId {
        match self.methods[decl.idx()].vtable_slot {
            Some(slot) => self.classes[receiver.idx()].vtable[slot as usize],
            None => decl,
        }
    }

    /// All methods defined on a class (by scan; test/diagnostic use).
    pub fn methods_of(&self, class: ClassId) -> impl Iterator<Item = MethodId> + '_ {
        self.methods
            .iter()
            .enumerate()
            .filter(move |(_, m)| m.owner == class)
            .map(|(i, _)| MethodId(i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_module() -> Module {
        // Built by hand here; the builder has its own tests.
        let mut m = Module::default();
        m.classes.push(ClassDef {
            name: "A".into(),
            base: None,
            instance_fields: vec![],
            static_fields: vec![],
            n_prim_slots: 0,
            n_ref_slots: 0,
            vtable: vec![MethodId(0)],
        });
        m.classes.push(ClassDef {
            name: "B".into(),
            base: Some(ClassId(0)),
            instance_fields: vec![],
            static_fields: vec![],
            n_prim_slots: 0,
            n_ref_slots: 0,
            vtable: vec![MethodId(1)],
        });
        m.methods.push(MethodDef {
            name: "F".into(),
            owner: ClassId(0),
            params: vec![],
            ret: CilType::Void,
            is_static: false,
            vtable_slot: Some(0),
            is_ctor: false,
            body: MethodBody::default(),
        });
        m.methods.push(MethodDef {
            name: "F".into(),
            owner: ClassId(1),
            params: vec![],
            ret: CilType::Void,
            is_static: false,
            vtable_slot: Some(0),
            is_ctor: false,
            body: MethodBody::default(),
        });
        m.class_names.insert("A".into(), ClassId(0));
        m.class_names.insert("B".into(), ClassId(1));
        m.method_names.insert("A.F".into(), MethodId(0));
        m.method_names.insert("B.F".into(), MethodId(1));
        m
    }

    #[test]
    fn subclass_chain() {
        let m = tiny_module();
        assert!(m.is_subclass_of(ClassId(1), ClassId(0)));
        assert!(m.is_subclass_of(ClassId(0), ClassId(0)));
        assert!(!m.is_subclass_of(ClassId(0), ClassId(1)));
    }

    #[test]
    fn virtual_resolution_uses_receiver_vtable() {
        let m = tiny_module();
        assert_eq!(m.resolve_virtual(ClassId(0), MethodId(0)), MethodId(0));
        assert_eq!(m.resolve_virtual(ClassId(1), MethodId(0)), MethodId(1));
    }

    #[test]
    fn name_lookup() {
        let m = tiny_module();
        assert_eq!(m.find_method("B.F"), Some(MethodId(1)));
        assert_eq!(m.find_method("B.G"), None);
        assert_eq!(m.find_class("A"), Some(ClassId(0)));
    }

    #[test]
    fn eh_region_covers() {
        let r = EhRegion {
            try_start: 2,
            try_end: 5,
            handler_start: 5,
            handler_end: 8,
            kind: EhKind::Finally,
        };
        assert!(!r.covers(1));
        assert!(r.covers(2));
        assert!(r.covers(4));
        assert!(!r.covers(5));
    }

    #[test]
    fn arg_count_includes_receiver() {
        let m = tiny_module();
        assert_eq!(m.method(MethodId(0)).arg_count(), 1);
    }
}
