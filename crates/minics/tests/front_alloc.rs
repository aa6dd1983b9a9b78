//! What the front end allocates, pinned.
//!
//! A counting global allocator watches the lexer and the whole compiler.
//! Identifiers borrow the source text from the token to the symbol
//! tables, so an identifier costs the lexer what an integer literal
//! costs it — its slot in the token vector — and a fixed program
//! compiles in an exact, pinned number of blocks: a change that makes the
//! front end allocate more or less moves it on purpose and says why. The
//! count is per thread, so the test harness's own threads do not disturb
//! it.

use hpcnet_cil::verify_module;
use hpcnet_minics::{codegen, compile, lexer::lex, parser::parse};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

/// Blocks `f` allocates on this thread.
fn allocated<T>(f: impl FnOnce() -> T) -> u64 {
    let before = blocks();
    let out = f();
    let n = blocks() - before;
    drop(out);
    n
}

/// 1,000 tokens, the first `idents` of them distinct identifiers and the
/// rest integer literals.
fn tokens(idents: usize) -> String {
    (0..1000)
        .map(|k| {
            if k < idents {
                format!("v{k} ")
            } else {
                format!("{k} ")
            }
        })
        .collect()
}

#[test]
fn an_identifier_allocates_nothing_in_the_lexer() {
    let (few, many) = (tokens(10), tokens(1000));
    let lexed = |src: &str| allocated(|| lex(src).unwrap());
    let (few_blocks, many_blocks) = (lexed(&few), lexed(&many));
    assert_eq!(
        few_blocks, many_blocks,
        "1,000 tokens: 10 identifiers cost {few_blocks} blocks, 1,000 cost {many_blocks}"
    );
    // What is left is the token vector's own growth.
    assert_eq!(few_blocks, lexed(&tokens(0)));
}

/// Classes, fields, static initializers, locals, parameters, calls,
/// arrays, compound assignments and a `try`: every kind of name codegen
/// looks up.
const SRC: &str = r#"
    class Shape {
        int k;
        static int made = 0;
        Shape(int k0) { k = k0; made += 1; }
        virtual int Area(int x) { return x + k; }
    }
    class Square : Shape {
        Square(int k0) { k = k0 + 1; }
        override int Area(int x) { return x * k; }
    }
    class T {
        static double[] data = new double[8];
        static int Sum(int n) {
            int s = 0;
            int[] a = new int[n];
            for (int i = 0; i < a.Length; i++) { a[i] = i; s += a[i] * 2; }
            Shape sh = new Square(n);
            s += sh.Area(3) + Shape.made;
            try { s = s / n; } catch (Exception e) { s = -1; }
            data[n & 7] += s;
            return s > 0 ? s : Math.Max(s, 0);
        }
    }
"#;

#[test]
fn compiling_a_fixed_program_allocates_the_pinned_count() {
    let n = allocated(|| compile(SRC).unwrap());
    assert_eq!(n, 193, "blocks allocated by compile");
}

/// Each layer on its own: what parsing adds to its own lex, what codegen
/// allocates for the module it builds, and what verifying that module
/// allocates beyond the stack shapes it records.
#[test]
fn each_front_end_layer_allocates_its_pinned_count() {
    let lexed = allocated(|| lex(SRC).unwrap());
    let parsed = allocated(|| parse(SRC).unwrap()) - lexed;
    let prog = parse(SRC).unwrap();
    let emitted = allocated(|| codegen::emit(&prog).unwrap());
    let mut module = codegen::emit(&prog).unwrap();
    let verified = allocated(|| verify_module(&mut module).unwrap());
    assert_eq!(
        (parsed, emitted, verified),
        (23, 163, 39),
        "blocks allocated by (parse beyond its lex, codegen, verify)"
    );
}
