//! What a JIT compile allocates, pinned.
//!
//! A counting global allocator watches a `clr11_compiled` VM JIT every
//! method of a fixed module (each compile lowers, optimizes, places
//! registers by linear scan and builds op records), then a `clr11` VM
//! sharing its `OptShare` JIT the same methods (each a cache hit: the
//! shared front half is read, not copied, and only placement and op build
//! run). The counts are exact and the same on every run: a change that
//! makes the JIT allocate more or less moves them on purpose and says
//! why. The count is per thread, so the test harness's own threads do not
//! disturb it.

use hpcnet_cil::MethodId;
use hpcnet_vm::{OptShare, Vm, VmProfile};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Blocks this thread has asked the allocator for. `const`-initialized
    /// and without a destructor, so touching it never allocates.
    static BLOCKS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a thread-local counter
// bump that neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BLOCKS.with(|b| b.set(b.get() + 1));
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BLOCKS.with(|b| b.set(b.get() + 1));
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn blocks() -> u64 {
    BLOCKS.with(|b| b.get())
}

/// Loops over arrays (elided, hoisted and versioned checks), a nest, a
/// protected region, a division by a constant and a method without a loop.
const SRC: &str = r#"
    class K {
        static int Sum(int[] a) {
            int s = 0;
            for (int i = 0; i < a.Length; i++) { s = s + a[i]; }
            return s;
        }
        static int Rows(int[] a, int n) {
            int s = 0;
            for (int i = 0; i < n; i++) {
                for (int j = 0; j < n; j++) { s = s + a[j] * (n + 1) / 3; }
            }
            return s;
        }
        static int Guarded(int[] a, int n) {
            int s = 0;
            try {
                for (int i = 0; i < n; i++) { s = s + a[i]; }
            } catch (IndexOutOfRangeException e) { s = -1; }
            return s;
        }
        static int Flat(int x, int y) {
            int z = x * 8 + y;
            if (z > 100) { z = z - y / 7; }
            return z;
        }
        static int Run(int n) {
            int[] a = new int[n];
            for (int i = 0; i < a.Length; i++) { a[i] = i * 4; }
            return Sum(a) + Rows(a, n) + Guarded(a, n) + Flat(n, 3);
        }
    }
"#;

/// Blocks allocated while `vm` JITs every method with a body.
fn jit_all(vm: &Arc<Vm>, jit: impl Fn(&Arc<Vm>, MethodId)) -> u64 {
    let before = blocks();
    for m in (0..vm.module.methods.len() as u32).map(MethodId) {
        if !vm.module.method(m).body.code.is_empty() {
            jit(vm, m);
        }
    }
    blocks() - before
}

#[test]
fn jit_compiles_allocate_the_pinned_counts() {
    let module = Arc::new(hpcnet_minics::compile(SRC).unwrap());
    let share = Arc::new(OptShare::new());
    let vm = |profile| {
        let vm = Vm::new_shared(module.clone(), profile);
        vm.set_opt_share(share.clone());
        vm
    };
    let compiled = vm(VmProfile::clr11_compiled());
    let misses = jit_all(&compiled, |vm, m| {
        vm.threaded(m).unwrap();
    });
    let rir = vm(VmProfile::clr11());
    let hits = jit_all(&rir, |vm, m| {
        vm.compiled(m).unwrap();
    });
    assert_eq!(share.stats(), (12, 12), "the clr11 VM reuses every front half");
    assert_eq!((misses, hits), (855, 148), "blocks allocated (misses, hits)");
}
