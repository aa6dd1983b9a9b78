//! A warm managed call on the register tiers allocates nothing.
//!
//! A counting global allocator watches loops of N static, instance,
//! virtual and recursive calls and N `Math.Sin` and `Math.Pow` calls on
//! warm `clr11` (use-count allocation) and `clr11_compiled` (linear scan)
//! VMs: whatever one host-level `Vm::invoke` allocates — its argument
//! list, the root frame, one recycled frame per call depth reached — is
//! the same for N = 100 and N = 10,000. N constructor calls allocate what N `Heap::alloc_instance`
//! calls allocate and nothing more. The count is per thread, so the test
//! harness's own threads do not disturb it.

use hpcnet_runtime::Value;
use hpcnet_vm::{Vm, VmProfile};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::Ordering;
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

/// `Mix` is past the inliner's size gate, so `Static` really calls.
const SRC: &str = r#"
    class Shape {
        int k;
        Shape(int k0) { k = k0; }
        virtual int Area(int x) { return x + k; }
        int Plain(int x) { return x - k; }
    }
    class Square : Shape {
        Square(int k0) { k = k0 + 1; }
        override int Area(int x) { return x * k; }
    }
    class T {
        static int Mix(int a, int b) {
            int x = a * 3 + b;
            x = x ^ (x >> 3);
            x = x + a * b;
            x = x ^ (x << 5);
            x = x - b * 7;
            x = x ^ (x >> 11);
            x = x + a * 13;
            return x ^ b;
        }
        static int Down(int d) { if (d == 0) return 1; return Down(d - 1) + 1; }

        static int Static(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) s = Mix(s, i);
            return s;
        }
        static int Instance(int n) {
            Shape p = new Shape(3);
            int s = 0;
            for (int i = 0; i < n; i++) s += p.Plain(i);
            return s;
        }
        static int Virtual(int n) {
            Shape p = new Square(3);
            int s = 0;
            for (int i = 0; i < n; i++) s += p.Area(i);
            return s;
        }
        static int Recursive(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) s += Down(12);
            return s;
        }
        static int Sin(int n) {
            double s = 0.0;
            for (int i = 0; i < n; i++) s += Math.Sin(i);
            return (int) s;
        }
        static int Pow(int n) {
            double s = 0.0;
            for (int i = 0; i < n; i++) s += Math.Pow(1.0001, i);
            return (int) s;
        }
        static int Ctor(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) { Shape p = new Shape(i); s += 1; }
            return s;
        }
    }
"#;

/// `(blocks allocated, managed calls made)` by one `T.<entry>(n)`.
fn measure(vm: &Arc<Vm>, entry: &str, n: i32) -> (u64, u64) {
    let id = vm.module.find_method(&format!("T.{entry}")).expect(entry);
    let calls = vm.counters.calls.load(Ordering::Relaxed);
    let before = blocks();
    let r = vm.invoke(id, vec![Value::I4(n)]);
    let allocated = blocks() - before;
    r.unwrap_or_else(|e| panic!("{entry}({n}): {e}"));
    (allocated, vm.counters.calls.load(Ordering::Relaxed) - calls)
}

#[test]
fn warm_calls_allocate_nothing() {
    const SMALL: i32 = 100;
    const LARGE: i32 = 10_000;
    let module = hpcnet_minics::compile(SRC).unwrap();
    for profile in [VmProfile::clr11(), VmProfile::clr11_compiled()] {
        let vm = Vm::new(module.clone(), profile).unwrap();
        // (entry, fewest managed calls an iteration makes: the CLR inliner
        // folds every other `Down` into its caller)
        let rows = [
            ("Static", 1),
            ("Instance", 1),
            ("Virtual", 1),
            ("Recursive", 4),
            ("Sin", 0),
            ("Pow", 0),
        ];
        for (entry, per_iter) in rows {
            measure(&vm, entry, 3); // warm: JIT everything the row reaches
            let (small, calls_small) = measure(&vm, entry, SMALL);
            let (large, calls_large) = measure(&vm, entry, LARGE);
            assert!(
                calls_large - calls_small >= per_iter * (LARGE - SMALL) as u64,
                "{entry} on {}: the loop does not make the calls this test is about",
                profile.name
            );
            assert_eq!(
                small, large,
                "{entry} on {}: {LARGE} iterations allocated {large} blocks, {SMALL} allocated {small}",
                profile.name
            );
        }

        let shape = vm.module.find_class("Shape").expect("Shape");
        let layout = vm.module.class(shape);
        let (np, nr) = (layout.n_prim_slots as usize, layout.n_ref_slots as usize);
        let before = blocks();
        let one = vm.heap.alloc_instance(shape, np, nr);
        let per_object = blocks() - before;
        drop(one);
        assert!(per_object > 0);

        measure(&vm, "Ctor", 3);
        let (small, calls_small) = measure(&vm, "Ctor", SMALL);
        let (large, calls_large) = measure(&vm, "Ctor", LARGE);
        assert_eq!(calls_large - calls_small, (LARGE - SMALL) as u64);
        assert_eq!(
            large - small,
            per_object * (LARGE - SMALL) as u64,
            "Ctor on {}: a constructor call allocates more than its object",
            profile.name
        );
    }
}
