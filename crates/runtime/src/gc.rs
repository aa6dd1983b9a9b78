//! Safepoint cycle collection.
//!
//! Reference counting (the `Arc` handles) reclaims acyclic garbage
//! immediately, but an object graph that points back at itself keeps itself
//! alive. This collector runs at a *safepoint* — a moment when the host
//! guarantees no managed frame holds references other than the `roots` it
//! passes in (between benchmark iterations, in our usage):
//!
//! 1. mark everything reachable from the roots (statics, pinned handles);
//! 2. any *tracked* object that is still alive but unmarked can only be kept
//!    alive by a cycle among unmarked objects — sever its outgoing
//!    references, letting reference counting finish the job.
//!
//! This is the moral equivalent of the tracing collectors in the paper's
//! runtimes, scoped to the part RC cannot do on its own.

use crate::heap::Heap;
use crate::value::Obj;
use std::collections::HashSet;

/// Result of a collection pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Live tracked objects inspected.
    pub inspected: usize,
    /// Objects reachable from the roots.
    pub marked: usize,
    /// Unreachable-but-alive objects whose references were severed.
    pub cycles_broken: usize,
}

fn key(o: &Obj) -> usize {
    Obj::as_ptr(o) as usize
}

/// Mark phase: everything transitively reachable from `roots`.
fn mark(roots: &[Obj]) -> HashSet<usize> {
    let mut marked = HashSet::new();
    let mut stack: Vec<Obj> = roots.to_vec();
    while let Some(o) = stack.pop() {
        if !marked.insert(key(&o)) {
            continue;
        }
        o.for_each_ref(|child| stack.push(child.clone()));
    }
    marked
}

/// Run a collection over the heap's tracked objects.
///
/// `roots` must enumerate every externally held reference that should stay
/// alive (statics, host-pinned objects). Objects reachable from the roots
/// are untouched; unreachable live objects have their reference fields
/// cleared so the cycle collapses under reference counting.
pub fn collect(heap: &Heap, roots: &[Obj]) -> GcStats {
    let live = heap.live_tracked();
    let marked = mark(roots);
    let mut stats = GcStats {
        inspected: live.len(),
        marked: 0,
        cycles_broken: 0,
    };
    for o in &live {
        if marked.contains(&key(o)) {
            stats.marked += 1;
        } else {
            o.clear_refs();
            stats.cycles_broken += 1;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcnet_cil::{ClassId, ElemKind};
    use std::sync::Arc;

    fn linked(heap: &Heap) -> (Obj, Obj) {
        // Two instances with one ref slot each.
        let a = heap.alloc_instance(ClassId(0), 0, 1);
        let b = heap.alloc_instance(ClassId(0), 0, 1);
        a.set_ref_field(0, Some(b.clone()));
        b.set_ref_field(0, Some(a.clone()));
        (a, b)
    }

    #[test]
    fn cycle_is_broken_when_unrooted() {
        let heap = Heap::with_tracking();
        let (a, b) = linked(&heap);
        let wa = Arc::downgrade(&a);
        let wb = Arc::downgrade(&b);
        drop(a);
        drop(b);
        // RC alone cannot reclaim the pair.
        assert!(wa.upgrade().is_some() && wb.upgrade().is_some());
        let stats = collect(&heap, &[]);
        assert_eq!(stats.cycles_broken, 2);
        assert!(wa.upgrade().is_none(), "cycle should have collapsed");
        assert!(wb.upgrade().is_none());
        assert_eq!(heap.live_tracked().len(), 0);
    }

    #[test]
    fn rooted_cycle_survives() {
        let heap = Heap::with_tracking();
        let (a, b) = linked(&heap);
        drop(b);
        let stats = collect(&heap, &[a.clone()]);
        assert_eq!(stats.cycles_broken, 0);
        assert_eq!(stats.marked, 2);
        // The graph is intact.
        let b = a.ref_field(0).flatten().unwrap();
        assert!(b.ref_field(0).flatten().is_some());
    }

    #[test]
    fn acyclic_garbage_needs_no_collector() {
        let heap = Heap::with_tracking();
        let a = heap.alloc_instance(ClassId(0), 0, 1);
        let child = heap.alloc_str("leaf");
        a.set_ref_field(0, Some(child));
        let w = Arc::downgrade(&a);
        drop(a);
        assert!(w.upgrade().is_none(), "refcounting reclaims chains");
        let stats = collect(&heap, &[]);
        assert_eq!(stats.inspected, 0);
    }

    #[test]
    fn mark_traverses_arrays() {
        let heap = Heap::with_tracking();
        let arr = heap.alloc_array(ElemKind::Ref, 2);
        let leaf = heap.alloc_str("x");
        arr.ref_data().unwrap()[1].set(Some(leaf.clone()));
        let stats = collect(&heap, &[arr.clone()]);
        assert_eq!(stats.marked, 2);
        assert_eq!(stats.cycles_broken, 0);
    }

    #[test]
    fn self_loop_collected() {
        let heap = Heap::with_tracking();
        let a = heap.alloc_instance(ClassId(0), 0, 1);
        a.set_ref_field(0, Some(a.clone()));
        let w = Arc::downgrade(&a);
        drop(a);
        assert!(w.upgrade().is_some());
        collect(&heap, &[]);
        assert!(w.upgrade().is_none());
    }
}
