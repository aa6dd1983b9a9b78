//! Heap snapshot and dirty-tracking reset.
//!
//! A [`HeapSnapshot`] captures the payload of every object reachable from
//! a set of roots (statics, host-pinned handles) at a *safepoint* — the
//! same contract as [`crate::gc`]: no managed frame may hold references
//! besides the roots. The snapshot holds strong handles, so captured
//! objects stay alive no matter what later runs do.
//!
//! Capture clears every object's dirty flag; the mutating accessors on
//! [`crate::object::HeapObj`] set it again. [`HeapSnapshot::restore`] therefore rewrites
//! only the objects a run actually touched — the copy-on-write discipline
//! that makes thousands of isolated executions per second possible in
//! coverage-guided fuzzers — and resets the heap's allocation accounting,
//! so a restored VM is indistinguishable from a freshly built one (see
//! `Vm::reset_to` in the vm crate, and the property tests pinning
//! restored state bitwise-equal to a from-scratch rebuild).
//!
//! Objects allocated *after* capture are not in the snapshot: once the
//! host drops its post-run references (restored statics point back at
//! snapshot objects), reference counting reclaims them. Cycles among
//! post-snapshot garbage need [`crate::gc::collect`] with the snapshot's
//! roots, exactly as between ordinary runs.

use crate::heap::Heap;
use crate::object::ObjBody;
use crate::value::Obj;
use std::collections::HashSet;
use std::sync::atomic::Ordering;

/// What one [`HeapSnapshot::restore`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RestoreStats {
    /// Objects the snapshot tracks (reachable at capture).
    pub objects_tracked: u64,
    /// Objects whose payload was rewritten because a run mutated them.
    pub objects_restored: u64,
}

impl RestoreStats {
    /// Accumulate another restore's counts (fleet aggregation).
    pub fn merge(&mut self, other: &RestoreStats) {
        self.objects_tracked += other.objects_tracked;
        self.objects_restored += other.objects_restored;
    }
}

/// Captured payload of one object. Strings and boxed values are immutable
/// — identity alone suffices.
enum Payload {
    Immutable,
    Prim(Box<[u64]>),
    Refs(Box<[Option<Obj>]>),
    Instance {
        prim: Box<[u64]>,
        refs: Box<[Option<Obj>]>,
    },
}

fn capture_payload(o: &Obj) -> Payload {
    match &o.body {
        ObjBody::Str(_) | ObjBody::Boxed { .. } => Payload::Immutable,
        ObjBody::Instance { prim, refs, .. } => Payload::Instance {
            prim: prim.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
            refs: refs.iter().map(|s| s.get()).collect(),
        },
        ObjBody::ArrU1(d)
        | ObjBody::ArrI4(d)
        | ObjBody::ArrI8(d)
        | ObjBody::ArrR4(d)
        | ObjBody::ArrR8(d) => Payload::Prim(d.iter().map(|c| c.load(Ordering::Relaxed)).collect()),
        ObjBody::MultiPrim { data, .. } => {
            Payload::Prim(data.iter().map(|c| c.load(Ordering::Relaxed)).collect())
        }
        ObjBody::ArrRef(d) => Payload::Refs(d.iter().map(|s| s.get()).collect()),
        ObjBody::MultiRef { data, .. } => Payload::Refs(data.iter().map(|s| s.get()).collect()),
    }
}

fn restore_payload(o: &Obj, p: &Payload) {
    match (p, &o.body) {
        (Payload::Immutable, _) => {}
        (Payload::Instance { prim, refs }, ObjBody::Instance { prim: cp, refs: cr, .. }) => {
            for (cell, &bits) in cp.iter().zip(prim.iter()) {
                cell.store(bits, Ordering::Relaxed);
            }
            for (slot, v) in cr.iter().zip(refs.iter()) {
                slot.set(v.clone());
            }
        }
        (Payload::Prim(bits), _) => {
            for (cell, &b) in o.prim_data().unwrap_or_default().iter().zip(bits.iter()) {
                cell.store(b, Ordering::Relaxed);
            }
        }
        (Payload::Refs(vals), _) => {
            for (slot, v) in o.ref_data().unwrap_or_default().iter().zip(vals.iter()) {
                slot.set(v.clone());
            }
        }
        _ => unreachable!("object body kind cannot change after allocation"),
    }
}

fn payload_matches(o: &Obj, p: &Payload) -> bool {
    let refs_eq = |slots: &[crate::object::RefSlot], vals: &[Option<Obj>]| {
        slots.iter().zip(vals.iter()).all(|(s, v)| match (s.get(), v) {
            (None, None) => true,
            (Some(a), Some(b)) => Obj::ptr_eq(&a, b),
            _ => false,
        })
    };
    match (p, &o.body) {
        (Payload::Immutable, _) => true,
        (Payload::Instance { prim, refs }, ObjBody::Instance { prim: cp, refs: cr, .. }) => {
            cp.iter()
                .zip(prim.iter())
                .all(|(c, &b)| c.load(Ordering::Relaxed) == b)
                && refs_eq(cr, refs)
        }
        (Payload::Prim(bits), _) => o.prim_data().is_some_and(|data| {
            data.iter()
                .zip(bits.iter())
                .all(|(c, &b)| c.load(Ordering::Relaxed) == b)
        }),
        (Payload::Refs(vals), _) => o.ref_data().is_some_and(|data| refs_eq(data, vals)),
        _ => false,
    }
}

/// A point-in-time capture of the reachable heap (see module docs).
pub struct HeapSnapshot {
    objs: Vec<(Obj, Payload)>,
    allocations: u64,
    bytes: u64,
}

impl HeapSnapshot {
    /// Capture everything reachable from `roots`. Must run at a safepoint;
    /// clears the dirty flag on every captured object so subsequent
    /// mutation is tracked relative to this snapshot.
    pub fn capture(heap: &Heap, roots: &[Obj]) -> HeapSnapshot {
        let mut seen: HashSet<usize> = HashSet::new();
        let mut stack: Vec<Obj> = roots.to_vec();
        let mut objs = Vec::new();
        while let Some(o) = stack.pop() {
            if !seen.insert(Obj::as_ptr(&o) as usize) {
                continue;
            }
            o.for_each_ref(|c| stack.push(c.clone()));
            let payload = capture_payload(&o);
            o.clear_dirty();
            objs.push((o, payload));
        }
        let stats = heap.stats();
        HeapSnapshot {
            objs,
            allocations: stats.allocations,
            bytes: stats.bytes_allocated,
        }
    }

    /// Objects the snapshot tracks.
    pub fn len(&self) -> usize {
        self.objs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.objs.is_empty()
    }

    /// Rewrite the payload of every tracked object mutated since capture
    /// (or since the previous restore) and reset the heap's allocation
    /// accounting to the captured values. Must run at a safepoint.
    pub fn restore(&self, heap: &Heap) -> RestoreStats {
        let mut stats = RestoreStats {
            objects_tracked: self.objs.len() as u64,
            objects_restored: 0,
        };
        for (o, p) in &self.objs {
            if !o.is_dirty() {
                continue;
            }
            restore_payload(o, p);
            o.clear_dirty();
            stats.objects_restored += 1;
        }
        heap.restore_accounting(self.allocations, self.bytes);
        stats
    }

    /// Bitwise check that every tracked object currently matches its
    /// captured payload — used by tests to prove a restore reproduces the
    /// from-scratch state exactly. Returns the number of mismatches.
    pub fn verify(&self) -> usize {
        self.objs
            .iter()
            .filter(|(o, p)| !payload_matches(o, p))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcnet_cil::{ClassId, ElemKind};

    #[test]
    fn restore_rewrites_only_dirty_objects() {
        let heap = Heap::new();
        let a = heap.alloc_array(ElemKind::I4, 4);
        let b = heap.alloc_array(ElemKind::I4, 4);
        a.store_elem(ElemKind::I4, 0, &crate::Value::I4(7)).unwrap();
        let snap = HeapSnapshot::capture(&heap, &[a.clone(), b.clone()]);
        assert_eq!(snap.len(), 2);
        assert_eq!(snap.verify(), 0);

        a.store_elem(ElemKind::I4, 0, &crate::Value::I4(99)).unwrap();
        assert_eq!(snap.verify(), 1);
        let stats = snap.restore(&heap);
        assert_eq!(stats.objects_restored, 1, "only the mutated array");
        assert_eq!(a.load_elem(ElemKind::I4, 0).unwrap().as_i4(), 7);
        assert_eq!(snap.verify(), 0);

        // An untouched second restore rewrites nothing.
        let stats = snap.restore(&heap);
        assert_eq!(stats.objects_restored, 0);
    }

    #[test]
    fn restore_recovers_ref_graph_and_accounting() {
        let heap = Heap::new();
        let holder = heap.alloc_instance(ClassId(0), 1, 1);
        let leaf = heap.alloc_str("leaf");
        holder.set_ref_field(0, Some(leaf.clone()));
        holder.set_prim_field(0, 42);
        let base_stats = heap.stats();
        let snap = HeapSnapshot::capture(&heap, &[holder.clone()]);

        // The run detaches the leaf, scribbles a field, and allocates.
        holder.set_ref_field(0, None);
        holder.set_prim_field(0, 1000);
        let _garbage = heap.alloc_array(ElemKind::R8, 64);
        assert_ne!(heap.stats(), base_stats);

        let stats = snap.restore(&heap);
        assert_eq!(stats.objects_restored, 1);
        assert!(Obj::ptr_eq(&holder.ref_field(0).flatten().unwrap(), &leaf));
        assert_eq!(holder.prim_field(0), Some(42));
        assert_eq!(heap.stats().allocations, base_stats.allocations);
        assert_eq!(heap.stats().bytes_allocated, base_stats.bytes_allocated);
    }

    #[test]
    fn capture_follows_nested_reachability() {
        let heap = Heap::new();
        let outer = heap.alloc_array(ElemKind::Ref, 2);
        let inner = heap.alloc_instance(ClassId(1), 1, 0);
        outer.store_elem(ElemKind::Ref, 1, &crate::Value::Ref(inner.clone())).unwrap();
        let snap = HeapSnapshot::capture(&heap, &[outer]);
        assert_eq!(snap.len(), 2);
        inner.set_prim_field(0, 5);
        assert_eq!(snap.restore(&heap).objects_restored, 1);
        assert_eq!(inner.prim_field(0), Some(0));
    }
}
