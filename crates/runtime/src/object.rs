//! The managed object model.
//!
//! Objects carry their class identity, a recursive [`Monitor`] (every CLI
//! object can be locked), and a body. Field and element storage is designed
//! for safe shared-memory access from multiple managed threads:
//!
//! * primitive slots are `AtomicU64`s accessed with relaxed ordering (a
//!   plain load/store on every target we run on, matching how VM mutator
//!   threads touch fields);
//! * reference slots ([`RefSlot`]) are tiny mutexed cells, because an `Arc`
//!   cannot be read concurrently with a swap without synchronization.
//!
//! True multidimensional arrays ([`ObjBody::MultiPrim`] / `MultiRef`) keep a
//! single flat buffer plus a dimension vector — the layout whose
//! addressing-cost difference from jagged arrays Graph 12 of the paper
//! measures.

use crate::monitor::Monitor;
use crate::value::{Obj, Value};
use hpcnet_cil::{ClassId, ElemKind, NumTy};
use parking_lot::Mutex;
use std::alloc::Layout;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A mutable, thread-safe reference cell (object field, `object[]` /
/// jagged-array element, static).
#[derive(Debug, Default)]
pub struct RefSlot(Mutex<Option<Obj>>);

impl RefSlot {
    pub fn new(v: Option<Obj>) -> RefSlot {
        RefSlot(Mutex::new(v))
    }

    #[inline]
    pub fn get(&self) -> Option<Obj> {
        self.0.lock().clone()
    }

    #[inline]
    pub fn set(&self, v: Option<Obj>) {
        *self.0.lock() = v;
    }

    /// Take the value out, leaving `None` (used by the cycle collector).
    pub fn take(&self) -> Option<Obj> {
        self.0.lock().take()
    }
}

/// Object payload.
#[derive(Debug)]
pub enum ObjBody {
    /// A class instance: primitive slots and reference slots, laid out per
    /// the class metadata.
    Instance {
        class: ClassId,
        prim: Box<[AtomicU64]>,
        refs: Box<[RefSlot]>,
    },
    /// An immutable string.
    Str(String),
    /// A boxed value type (`box int32` etc.).
    Boxed { ty: NumTy, bits: u64 },
    /// SZ array of `uint8`.
    ArrU1(Box<[AtomicU64]>),
    /// SZ array of `int32`.
    ArrI4(Box<[AtomicU64]>),
    /// SZ array of `int64`.
    ArrI8(Box<[AtomicU64]>),
    /// SZ array of `float32`.
    ArrR4(Box<[AtomicU64]>),
    /// SZ array of `float64`.
    ArrR8(Box<[AtomicU64]>),
    /// SZ array of references (jagged rows, object arrays).
    ArrRef(Box<[RefSlot]>),
    /// True multidimensional primitive array: flat row-major buffer.
    MultiPrim {
        kind: ElemKind,
        dims: Box<[u32]>,
        data: Box<[AtomicU64]>,
    },
    /// True multidimensional reference array.
    MultiRef {
        dims: Box<[u32]>,
        data: Box<[RefSlot]>,
    },
}

/// What heap accounting charges every object on top of its payload. It is
/// a constant of the accounting, not of the Rust layout — the
/// `size_of::<HeapObj>()` it was measured as when monitors were a mutex
/// and a condition variable — so a smaller header keeps
/// `runtime.alloc_bytes` comparable across commits.
pub const OBJECT_HEADER_BYTES: usize = 80;

/// A managed heap object.
#[derive(Debug)]
pub struct HeapObj {
    pub monitor: Monitor,
    pub body: ObjBody,
    /// Set by every mutating accessor since the last snapshot capture or
    /// restore (see [`crate::snapshot`]). Lets a reset rewrite only the
    /// objects a run actually touched.
    dirty: AtomicBool,
}

fn zeroed(n: usize) -> Box<[AtomicU64]> {
    (0..n).map(|_| AtomicU64::new(0)).collect()
}

fn ref_slots(n: usize) -> Box<[RefSlot]> {
    (0..n).map(|_| RefSlot::default()).collect()
}

impl HeapObj {
    pub fn new_instance(class: ClassId, n_prim: usize, n_ref: usize) -> HeapObj {
        HeapObj {
            monitor: Monitor::new(),
            body: ObjBody::Instance {
                class,
                prim: zeroed(n_prim),
                refs: ref_slots(n_ref),
            },
            dirty: AtomicBool::new(false),
        }
    }

    pub fn new_str(s: impl Into<String>) -> HeapObj {
        HeapObj {
            monitor: Monitor::new(),
            body: ObjBody::Str(s.into()),
            dirty: AtomicBool::new(false),
        }
    }

    pub fn new_boxed(ty: NumTy, bits: u64) -> HeapObj {
        HeapObj {
            monitor: Monitor::new(),
            body: ObjBody::Boxed { ty, bits },
            dirty: AtomicBool::new(false),
        }
    }

    /// Allocate an SZ array of the given element kind and length.
    pub fn new_array(kind: ElemKind, len: usize) -> HeapObj {
        let body = match kind {
            ElemKind::U1 => ObjBody::ArrU1(zeroed(len)),
            ElemKind::I4 => ObjBody::ArrI4(zeroed(len)),
            ElemKind::I8 => ObjBody::ArrI8(zeroed(len)),
            ElemKind::R4 => ObjBody::ArrR4(zeroed(len)),
            ElemKind::R8 => ObjBody::ArrR8(zeroed(len)),
            ElemKind::Ref => ObjBody::ArrRef(ref_slots(len)),
        };
        HeapObj {
            monitor: Monitor::new(),
            body,
            dirty: AtomicBool::new(false),
        }
    }

    /// Allocate a true multidimensional array, or `None` when its element
    /// count overflows `usize` or its payload exceeds `isize::MAX` bytes.
    pub fn new_multi(kind: ElemKind, dims: &[u32]) -> Option<HeapObj> {
        let total = dims
            .iter()
            .try_fold(1usize, |n, &d| n.checked_mul(d as usize))?;
        let body = match kind {
            ElemKind::Ref => {
                Layout::array::<RefSlot>(total).ok()?;
                ObjBody::MultiRef {
                    dims: dims.into(),
                    data: ref_slots(total),
                }
            }
            k => {
                Layout::array::<AtomicU64>(total).ok()?;
                ObjBody::MultiPrim {
                    kind: k,
                    dims: dims.into(),
                    data: zeroed(total),
                }
            }
        };
        Some(HeapObj {
            monitor: Monitor::new(),
            body,
            dirty: AtomicBool::new(false),
        })
    }

    // ---- snapshot dirty tracking ----

    /// Record that this object's payload has been mutated since the last
    /// snapshot capture/restore.
    #[inline]
    pub fn mark_dirty(&self) {
        self.dirty.store(true, Ordering::Relaxed);
    }

    /// Has the payload been mutated since the last capture/restore?
    #[inline]
    pub fn is_dirty(&self) -> bool {
        self.dirty.load(Ordering::Relaxed)
    }

    /// Clear the mutation flag (done by snapshot capture and restore).
    #[inline]
    pub fn clear_dirty(&self) {
        self.dirty.store(false, Ordering::Relaxed);
    }

    /// Class id for instances (virtual dispatch, cast checks).
    pub fn class_id(&self) -> Option<ClassId> {
        match &self.body {
            ObjBody::Instance { class, .. } => Some(*class),
            _ => None,
        }
    }

    /// String payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match &self.body {
            ObjBody::Str(s) => Some(s),
            _ => None,
        }
    }

    /// SZ / flat-multi element count.
    pub fn array_len(&self) -> Option<usize> {
        match &self.body {
            ObjBody::ArrU1(d)
            | ObjBody::ArrI4(d)
            | ObjBody::ArrI8(d)
            | ObjBody::ArrR4(d)
            | ObjBody::ArrR8(d) => Some(d.len()),
            ObjBody::ArrRef(d) => Some(d.len()),
            ObjBody::MultiPrim { data, .. } => Some(data.len()),
            ObjBody::MultiRef { data, .. } => Some(data.len()),
            _ => None,
        }
    }

    /// Dimension lengths of a multidimensional array.
    pub fn multi_dims(&self) -> Option<&[u32]> {
        match &self.body {
            ObjBody::MultiPrim { dims, .. } => Some(dims),
            ObjBody::MultiRef { dims, .. } => Some(dims),
            _ => None,
        }
    }

    // ---- instance field access ----
    //
    // Like the array slices below, each accessor answers `None` when the
    // body is not an instance or has no field `slot`; the engines turn that
    // into an internal error. Verified code never gets one.

    #[inline]
    pub fn prim_field(&self, slot: u32) -> Option<u64> {
        match &self.body {
            ObjBody::Instance { prim, .. } => {
                Some(prim.get(slot as usize)?.load(Ordering::Relaxed))
            }
            _ => None,
        }
    }

    #[inline]
    pub fn set_prim_field(&self, slot: u32, bits: u64) -> Option<()> {
        match &self.body {
            ObjBody::Instance { prim, .. } => {
                let cell = prim.get(slot as usize)?;
                self.mark_dirty();
                cell.store(bits, Ordering::Relaxed);
                Some(())
            }
            _ => None,
        }
    }

    /// The reference in field `slot`: `Some(None)` is a null field.
    #[inline]
    pub fn ref_field(&self, slot: u32) -> Option<Option<Obj>> {
        match &self.body {
            ObjBody::Instance { refs, .. } => Some(refs.get(slot as usize)?.get()),
            _ => None,
        }
    }

    #[inline]
    pub fn set_ref_field(&self, slot: u32, v: Option<Obj>) -> Option<()> {
        match &self.body {
            ObjBody::Instance { refs, .. } => {
                let cell = refs.get(slot as usize)?;
                self.mark_dirty();
                cell.set(v);
                Some(())
            }
            _ => None,
        }
    }

    // ---- array element access ----
    //
    // The raw slices are what the register tiers' element ops index
    // directly. Their contract: the slice is `None` when the body is not an
    // array of that storage kind — element access through an `object`
    // reference can name the wrong one, and the caller turns `None` into an
    // `InvalidCastException`; bounds are the caller's to check; and a
    // caller that writes through a slice calls [`HeapObj::mark_dirty`]
    // first, since no accessor sees the write.

    /// Primitive element slice of any primitive array body (SZ or
    /// multidimensional); `None` for every other body.
    #[inline]
    pub fn prim_data(&self) -> Option<&[AtomicU64]> {
        match &self.body {
            ObjBody::ArrU1(d)
            | ObjBody::ArrI4(d)
            | ObjBody::ArrI8(d)
            | ObjBody::ArrR4(d)
            | ObjBody::ArrR8(d) => Some(d),
            ObjBody::MultiPrim { data, .. } => Some(data),
            _ => None,
        }
    }

    /// Reference element slice of any reference array body; `None` for
    /// every other body.
    #[inline]
    pub fn ref_data(&self) -> Option<&[RefSlot]> {
        match &self.body {
            ObjBody::ArrRef(d) => Some(d),
            ObjBody::MultiRef { data, .. } => Some(data),
            _ => None,
        }
    }

    /// Element load as a [`Value`] (interpreter path; `idx` in bounds).
    /// `None` when `kind`'s storage is not this array's.
    #[inline]
    pub fn load_elem(&self, kind: ElemKind, idx: usize) -> Option<Value> {
        Some(match kind.num_ty() {
            Some(nt) => Value::from_bits(nt, self.prim_data()?[idx].load(Ordering::Relaxed)),
            None => match self.ref_data()?[idx].get() {
                Some(o) => Value::Ref(o),
                None => Value::Null,
            },
        })
    }

    /// Element store from a [`Value`] (interpreter path; `idx` in bounds).
    /// `None`, with nothing written, when `kind`'s storage is not this
    /// array's.
    #[inline]
    pub fn store_elem(&self, kind: ElemKind, idx: usize, v: &Value) -> Option<()> {
        match kind.num_ty() {
            Some(_) => {
                let data = self.prim_data()?;
                let bits = match (kind, v) {
                    // u1 stores truncate to the low byte, as `stelem.u1` does.
                    (ElemKind::U1, Value::I4(x)) => (*x as u8) as u64,
                    _ => v.to_bits(),
                };
                self.mark_dirty();
                data[idx].store(bits, Ordering::Relaxed);
            }
            None => {
                let data = self.ref_data()?;
                self.mark_dirty();
                data[idx].set(v.as_ref_opt().cloned());
            }
        }
        Some(())
    }

    /// Row-major flat offset of multidimensional indices; `None` when this
    /// is not a multidimensional array of rank `idxs.len()` or any index is
    /// out of its dimension's bounds.
    #[inline]
    pub fn multi_offset(&self, idxs: &[i32]) -> Option<usize> {
        let dims = self.multi_dims()?;
        if dims.len() != idxs.len() {
            return None;
        }
        let mut off: usize = 0;
        for (&i, &d) in idxs.iter().zip(dims.iter()) {
            if i < 0 || i as u32 >= d {
                return None;
            }
            off = off * d as usize + i as usize;
        }
        Some(off)
    }

    /// Visit every outgoing reference (cycle collector, serializer).
    pub fn for_each_ref(&self, mut f: impl FnMut(&Obj)) {
        match &self.body {
            ObjBody::Instance { refs, .. } => {
                for slot in refs.iter() {
                    if let Some(o) = slot.get() {
                        f(&o);
                    }
                }
            }
            ObjBody::ArrRef(d) => {
                for slot in d.iter() {
                    if let Some(o) = slot.get() {
                        f(&o);
                    }
                }
            }
            ObjBody::MultiRef { data, .. } => {
                for slot in data.iter() {
                    if let Some(o) = slot.get() {
                        f(&o);
                    }
                }
            }
            _ => {}
        }
    }

    /// Clear every outgoing reference (cycle breaking).
    pub fn clear_refs(&self) {
        self.mark_dirty();
        match &self.body {
            ObjBody::Instance { refs, .. } => {
                for slot in refs.iter() {
                    slot.take();
                }
            }
            ObjBody::ArrRef(d) => {
                for slot in d.iter() {
                    slot.take();
                }
            }
            ObjBody::MultiRef { data, .. } => {
                for slot in data.iter() {
                    slot.take();
                }
            }
            _ => {}
        }
    }

    /// Approximate payload size in bytes (heap accounting): a fixed
    /// [`OBJECT_HEADER_BYTES`] plus the payload.
    pub fn size_bytes(&self) -> usize {
        let payload = match &self.body {
            ObjBody::Instance { prim, refs, .. } => prim.len() * 8 + refs.len() * 16,
            ObjBody::Str(s) => s.len(),
            ObjBody::Boxed { .. } => 0,
            ObjBody::ArrRef(d) => d.len() * 16,
            ObjBody::MultiRef { data, .. } => data.len() * 16,
            ObjBody::MultiPrim { data, .. } => data.len() * 8,
            b => b_prim_len(b) * 8,
        };
        OBJECT_HEADER_BYTES + payload
    }
}

fn b_prim_len(b: &ObjBody) -> usize {
    match b {
        ObjBody::ArrU1(d) | ObjBody::ArrI4(d) | ObjBody::ArrI8(d) | ObjBody::ArrR4(d)
        | ObjBody::ArrR8(d) => d.len(),
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn instance_field_roundtrip() {
        let o = HeapObj::new_instance(ClassId(0), 2, 1);
        o.set_prim_field(0, Value::R8(2.5).to_bits());
        o.set_prim_field(1, Value::I4(-3).to_bits());
        assert_eq!(
            Value::from_bits(NumTy::R8, o.prim_field(0).unwrap()).as_r8(),
            2.5
        );
        assert_eq!(
            Value::from_bits(NumTy::I4, o.prim_field(1).unwrap()).as_i4(),
            -3
        );
        assert!(o.ref_field(0).unwrap().is_none());
        let s = Arc::new(HeapObj::new_str("hi"));
        o.set_ref_field(0, Some(s.clone()));
        assert_eq!(o.ref_field(0).unwrap().unwrap().as_str(), Some("hi"));
    }

    #[test]
    fn field_access_off_an_instance_is_none() {
        let s = HeapObj::new_str("hi");
        let a = HeapObj::new_array(ElemKind::I4, 2);
        for o in [&s, &a] {
            assert_eq!(o.prim_field(0), None);
            assert!(o.ref_field(0).is_none());
            assert_eq!(o.set_prim_field(0, 1), None);
            assert_eq!(o.set_ref_field(0, None), None);
        }
        // So is a slot the instance does not have.
        let o = HeapObj::new_instance(ClassId(0), 1, 1);
        assert_eq!((o.prim_field(1), o.set_prim_field(1, 1)), (None, None));
        assert!(o.ref_field(1).is_none() && o.set_ref_field(1, None).is_none());
    }

    #[test]
    fn array_elem_roundtrip() {
        let a = HeapObj::new_array(ElemKind::R8, 4);
        a.store_elem(ElemKind::R8, 2, &Value::R8(1.25)).unwrap();
        assert_eq!(a.load_elem(ElemKind::R8, 2).unwrap().as_r8(), 1.25);
        assert_eq!(a.load_elem(ElemKind::R8, 0).unwrap().as_r8(), 0.0);
        assert_eq!(a.array_len(), Some(4));
    }

    #[test]
    fn access_of_the_wrong_storage_kind_is_refused() {
        let ints = HeapObj::new_array(ElemKind::I4, 2);
        let objs = HeapObj::new_array(ElemKind::Ref, 2);
        assert!(ints.ref_data().is_none() && objs.prim_data().is_none());
        assert!(ints.load_elem(ElemKind::Ref, 0).is_none());
        assert!(objs.load_elem(ElemKind::I4, 0).is_none());
        assert!(objs.store_elem(ElemKind::I4, 0, &Value::I4(1)).is_none());
        assert!(!objs.is_dirty(), "a refused store writes nothing");
        assert!(HeapObj::new_str("s").prim_data().is_none());
    }

    #[test]
    fn u1_store_truncates() {
        let a = HeapObj::new_array(ElemKind::U1, 2);
        a.store_elem(ElemKind::U1, 0, &Value::I4(0x1FF)).unwrap();
        assert_eq!(a.load_elem(ElemKind::U1, 0).unwrap().as_i4(), 0xFF);
        a.store_elem(ElemKind::U1, 1, &Value::I4(-1)).unwrap();
        assert_eq!(a.load_elem(ElemKind::U1, 1).unwrap().as_i4(), 0xFF);
    }

    #[test]
    fn multi_offsets_row_major() {
        let m = HeapObj::new_multi(ElemKind::R8, &[3, 4]).unwrap();
        assert_eq!(m.multi_offset(&[0, 0]), Some(0));
        assert_eq!(m.multi_offset(&[0, 3]), Some(3));
        assert_eq!(m.multi_offset(&[1, 0]), Some(4));
        assert_eq!(m.multi_offset(&[2, 3]), Some(11));
        assert_eq!(m.multi_offset(&[3, 0]), None);
        assert_eq!(m.multi_offset(&[0, 4]), None);
        assert_eq!(m.multi_offset(&[-1, 0]), None);
        assert_eq!(m.array_len(), Some(12));
    }

    #[test]
    fn multi_rank3() {
        let m = HeapObj::new_multi(ElemKind::I4, &[2, 3, 4]).unwrap();
        assert_eq!(m.multi_offset(&[1, 2, 3]), Some(23));
        assert_eq!(m.multi_offset(&[0, 0, 4]), None);
        // Another rank names no element, even with every index in range.
        assert_eq!(m.multi_offset(&[1, 2]), None);
        assert_eq!(m.multi_offset(&[1, 2, 3, 0]), None);
        assert_eq!(HeapObj::new_array(ElemKind::I4, 4).multi_offset(&[1, 1]), None);
    }

    #[test]
    fn ref_array_and_for_each() {
        let a = HeapObj::new_array(ElemKind::Ref, 3);
        let s1 = Arc::new(HeapObj::new_str("a"));
        let s2 = Arc::new(HeapObj::new_str("b"));
        a.store_elem(ElemKind::Ref, 0, &Value::Ref(s1)).unwrap();
        a.store_elem(ElemKind::Ref, 2, &Value::Ref(s2)).unwrap();
        let mut seen = Vec::new();
        a.for_each_ref(|o| seen.push(o.as_str().unwrap().to_string()));
        assert_eq!(seen, ["a", "b"]);
        a.clear_refs();
        let mut count = 0;
        a.for_each_ref(|_| count += 1);
        assert_eq!(count, 0);
    }

    #[test]
    fn boxed_and_str_accessors() {
        let b = HeapObj::new_boxed(NumTy::I4, Value::I4(42).to_bits());
        match b.body {
            ObjBody::Boxed { ty, bits } => {
                assert_eq!(ty, NumTy::I4);
                assert_eq!(Value::from_bits(ty, bits).as_i4(), 42);
            }
            _ => panic!(),
        }
        assert!(b.class_id().is_none());
        assert_eq!(HeapObj::new_str("xyz").as_str(), Some("xyz"));
    }

    #[test]
    fn size_accounting_is_pinned() {
        let size = |o: HeapObj| o.size_bytes();
        assert_eq!(size(HeapObj::new_boxed(NumTy::R8, 0)), 80);
        assert_eq!(size(HeapObj::new_instance(ClassId(0), 1, 1)), 80 + 8 + 16);
        assert_eq!(size(HeapObj::new_array(ElemKind::R8, 100)), 80 + 800);
        assert_eq!(size(HeapObj::new_array(ElemKind::U1, 3)), 80 + 24);
        assert_eq!(size(HeapObj::new_array(ElemKind::Ref, 2)), 80 + 32);
        assert_eq!(size(HeapObj::new_multi(ElemKind::I4, &[2, 3]).unwrap()), 80 + 48);
        assert_eq!(size(HeapObj::new_str("hello")), 80 + 5);
    }
}
