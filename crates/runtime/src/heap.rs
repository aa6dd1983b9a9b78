//! The managed heap: allocation with accounting.
//!
//! Handles are reference-counted (`Arc`), so acyclic garbage is reclaimed
//! the moment the last stack slot or field drops it; [`crate::gc`] breaks
//! reference cycles at safepoints using the weak registry kept here. The
//! registry is optional — benchmark runs that allocate millions of objects
//! (the `Create` micro-benchmark) can run with tracking disabled, exactly
//! like running a real VM with the collector parked.
//!
//! Accounting works like the per-thread allocation contexts of the paper's
//! runtimes: an allocation counts into a plain [`AllocCount`] its caller
//! owns — a register-tier frame, an interpreter activation, one host
//! helper — and the count is settled into the heap's shared totals once:
//! by the helper or the interpreter activation when it is done, and for a
//! register-tier frame by the host call its count was passed up to. An
//! allocation takes no locked instruction, and
//! [`Heap::stats`] is exact whenever no managed code is running, the only
//! time anything reads it.

use crate::object::HeapObj;
use crate::value::Obj;
use hpcnet_cil::{ClassId, ElemKind};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// Allocation statistics snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Objects allocated since heap creation.
    pub allocations: u64,
    /// Approximate bytes allocated since heap creation.
    pub bytes_allocated: u64,
    /// Objects currently tracked by the registry (0 when tracking is off).
    pub tracked: u64,
}

/// Allocations one owner has made and not yet settled into its heap with
/// [`Heap::settle`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocCount {
    pub allocs: u64,
    pub bytes: u64,
}

/// The managed heap.
#[derive(Debug)]
pub struct Heap {
    allocations: AtomicU64,
    bytes: AtomicU64,
    track: AtomicBool,
    registry: Mutex<Vec<Weak<HeapObj>>>,
}

impl Default for Heap {
    fn default() -> Self {
        Self::new()
    }
}

impl Heap {
    /// A heap with cycle-collector tracking disabled (the fast default).
    pub fn new() -> Heap {
        Heap {
            allocations: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            track: AtomicBool::new(false),
            registry: Mutex::new(Vec::new()),
        }
    }

    /// A heap that registers every allocation for cycle collection.
    pub fn with_tracking() -> Heap {
        let h = Heap::new();
        h.track.store(true, Ordering::Relaxed);
        h
    }

    /// Enable/disable registration of new allocations.
    pub fn set_tracking(&self, on: bool) {
        self.track.store(on, Ordering::Relaxed);
    }

    /// Wrap an object body into a handle, counting it into `count`, which
    /// the caller settles later.
    #[inline]
    pub fn adopt(&self, obj: HeapObj, count: &mut AllocCount) -> Obj {
        count.allocs += 1;
        count.bytes += obj.size_bytes() as u64;
        let arc = Arc::new(obj);
        if self.track.load(Ordering::Relaxed) {
            self.registry.lock().push(Arc::downgrade(&arc));
        }
        arc
    }

    /// Add `count` to the heap's totals and zero it.
    #[inline]
    pub fn settle(&self, count: &mut AllocCount) {
        if count.allocs != 0 {
            let AllocCount { allocs, bytes } = std::mem::take(count);
            self.allocations.fetch_add(allocs, Ordering::Relaxed);
            self.bytes.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// One allocation, settled at once: a host's, outside any count.
    fn adopt_settled(&self, obj: HeapObj) -> Obj {
        let mut count = AllocCount::default();
        let o = self.adopt(obj, &mut count);
        self.settle(&mut count);
        o
    }

    // Convenience constructors mirroring `HeapObj`, each settled at once.

    pub fn alloc_instance(&self, class: ClassId, n_prim: usize, n_ref: usize) -> Obj {
        self.adopt_settled(HeapObj::new_instance(class, n_prim, n_ref))
    }

    pub fn alloc_array(&self, kind: ElemKind, len: usize) -> Obj {
        self.adopt_settled(HeapObj::new_array(kind, len))
    }

    pub fn alloc_str(&self, s: impl Into<String>) -> Obj {
        self.adopt_settled(HeapObj::new_str(s))
    }

    /// Current statistics. Exact while no managed code runs: an
    /// activation settles its [`AllocCount`] when it ends.
    pub fn stats(&self) -> HeapStats {
        HeapStats {
            allocations: self.allocations.load(Ordering::Relaxed),
            bytes_allocated: self.bytes.load(Ordering::Relaxed),
            tracked: self.registry.lock().len() as u64,
        }
    }

    /// Reset the allocation counters to a previously captured state
    /// ([`crate::snapshot::HeapSnapshot::restore`]) so a reused heap
    /// reports the same statistics as a freshly built one.
    pub(crate) fn restore_accounting(&self, allocations: u64, bytes: u64) {
        self.allocations.store(allocations, Ordering::Relaxed);
        self.bytes.store(bytes, Ordering::Relaxed);
    }

    /// Snapshot the live tracked objects, pruning dead registry entries.
    pub fn live_tracked(&self) -> Vec<Obj> {
        let mut reg = self.registry.lock();
        let mut live = Vec::new();
        reg.retain(|w| match w.upgrade() {
            Some(o) => {
                live.push(o);
                true
            }
            None => false,
        });
        live
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcnet_cil::NumTy;

    #[test]
    fn accounting_counts_allocations() {
        let h = Heap::new();
        let _a = h.alloc_array(ElemKind::R8, 128);
        let _b = h.alloc_str("hello");
        let s = h.stats();
        assert_eq!(s.allocations, 2);
        assert!(s.bytes_allocated >= 128 * 8);
        assert_eq!(s.tracked, 0); // tracking off by default
    }

    #[test]
    fn counts_reach_the_totals_when_settled() {
        let h = Heap::new();
        let mut count = AllocCount::default();
        let _a = h.adopt(HeapObj::new_boxed(NumTy::I4, 7), &mut count);
        let _b = h.adopt(HeapObj::new_array(ElemKind::I4, 2), &mut count);
        assert_eq!(h.stats().allocations, 0, "not settled yet");
        h.settle(&mut count);
        assert_eq!(count, AllocCount::default());
        assert_eq!(h.stats().allocations, 2);
        assert_eq!(h.stats().bytes_allocated, 80 + 96);
        h.settle(&mut count);
        assert_eq!(h.stats().allocations, 2, "settling twice counts once");
    }

    #[test]
    fn tracking_registers_and_prunes() {
        let h = Heap::with_tracking();
        let a = h.alloc_array(ElemKind::I4, 4);
        {
            let _b = h.alloc_array(ElemKind::I4, 4);
            assert_eq!(h.stats().tracked, 2);
        } // _b dropped -> reclaimed by refcount immediately
        let live = h.live_tracked();
        assert_eq!(live.len(), 1);
        assert!(Arc::ptr_eq(&live[0], &a));
        assert_eq!(h.stats().tracked, 1);
    }

    #[test]
    fn tracking_toggle() {
        let h = Heap::new();
        let _a = h.alloc_str("untracked");
        h.set_tracking(true);
        let _b = h.alloc_str("tracked");
        assert_eq!(h.stats().tracked, 1);
    }
}
