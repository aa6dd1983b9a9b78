//! What the runtime counts and how monitors behave, pinned as literals on
//! the four engine kinds: the interpreter (`sscli10`), the use-count
//! register tier (`clr11`, and `mono023` for its naive lowering) and the
//! linear-scan tier (`clr11_compiled`).
//!
//! * `heap.stats()` — allocations and bytes — after a loop of `new`,
//!   boxing and array allocations, a callee that allocates and then
//!   throws to its caller, two managed threads that allocate and are
//!   joined, and a `Serial.Write`/`Serial.Read` round trip. The numbers
//!   are a function of the program alone, so they are one literal for
//!   every engine, however an engine batches its accounting.
//! * `counters.calls` after the two joined threads, the same way.
//! * A nested `lock` re-enters, `lock (null)` is a catchable
//!   `NullReferenceException`, and `Monitor.Exit` on an object the thread
//!   does not own fails with one string everywhere.
//! * A managed thread whose `Run()` throws hands the exception to the
//!   thread that joins it, the same way everywhere, and never panics the
//!   host — not even when nobody joins it.

use hpcnet_runtime::Value;
use hpcnet_vm::{Vm, VmProfile};
use std::sync::atomic::Ordering;
use std::sync::Arc;

const SRC: &str = r#"
    class Cell {
        int v;
        Cell next;
        Cell(int x) { v = x; }
    }
    class Worker {
        int n;
        Worker(int k) { n = k; }
        virtual void Run() {
            for (int i = 0; i < n; i++) {
                Cell c = new Cell(i);
                double[] d = new double[3];
            }
        }
    }
    class Faulty {
        int n;
        Faulty(int k) { n = k; }
        virtual void Run() {
            int[] a = new int[2];
            a[n] = 1;
        }
    }
    class P {
        static int Alloc(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) {
                Cell c = new Cell(i);
                object o = (object) i;
                object r = 2.5;
                int[] a = new int[i % 4];
                double[,] m = new double[2, 3];
                object[] refs = new object[2];
                s += c.v + (int) o + a.Length;
            }
            return s;
        }
        static int Thrower(int n) {
            int[] scratch = new int[n];
            Cell c = new Cell(n);
            throw new Exception();
        }
        static int Catcher(int n) {
            int r = 0;
            try { r = Thrower(n); } catch (Exception e) { r = 7; }
            return r;
        }
        static int Threads(int n) {
            int t1 = Sys.Start(new Worker(n));
            int t2 = Sys.Start(new Worker(n + 1));
            Sys.Join(t1);
            Sys.Join(t2);
            return n;
        }
        static int RoundTrip(int n) {
            Cell head = new Cell(0);
            Cell cur = head;
            for (int i = 1; i < n; i++) {
                cur.next = new Cell(i);
                cur = cur.next;
            }
            cur.next = head;
            int bytes = Serial.Write(head);
            Cell back = (Cell) Serial.Read();
            int s = 0;
            Cell p = back;
            for (int i = 0; i < n; i++) { s += p.v; p = p.next; }
            if (p != back) s = -1;
            return s;
        }
        static int Nested(int n) {
            object m = new Cell(0);
            int v = 0;
            for (int i = 0; i < n; i++) {
                lock (m) { lock (m) { v++; } }
            }
            lock (m) { lock (m) { lock (m) { v++; } } }
            return v;
        }
        static int LockNull(int n) {
            object m = null;
            int r = 0;
            try { lock (m) { r = 1; } } catch (NullReferenceException e) { r = 2; }
            return r;
        }
        static int JoinCatches(int n) {
            int t = Sys.Start(new Faulty(n));
            int r = 0;
            try { Sys.Join(t); r = 1; } catch (IndexOutOfRangeException e) { r = 2; }
            return r;
        }
        static int JoinThrows(int n) {
            int t = Sys.Start(new Faulty(n));
            Sys.Join(t);
            return 1;
        }
        static int NeverJoined(int n) {
            int t = Sys.Start(new Faulty(n));
            return 1;
        }
        static int ExitUnowned() {
            object m = new Cell(0);
            Monitor.Exit(m);
            return 1;
        }
    }
"#;

fn engines() -> [VmProfile; 4] {
    [
        VmProfile::sscli10(),
        VmProfile::clr11(),
        VmProfile::mono023(),
        VmProfile::clr11_compiled(),
    ]
}

fn vm(profile: VmProfile) -> Arc<Vm> {
    Vm::new(hpcnet_minics::compile(SRC).unwrap(), profile).unwrap()
}

/// `P.<entry>(n)` on a fresh VM: its `i32` result and the allocations and
/// bytes the heap counted during the call.
fn run(profile: VmProfile, entry: &str, n: i32) -> (i32, u64, u64) {
    let vm = vm(profile);
    let before = vm.heap.stats();
    let r = vm
        .invoke_by_name(&format!("P.{entry}"), vec![Value::I4(n)])
        .unwrap_or_else(|e| panic!("{entry} on {}: {e}", profile.name));
    let after = vm.heap.stats();
    (
        r.expect("returns int").as_i4(),
        after.allocations - before.allocations,
        after.bytes_allocated - before.bytes_allocated,
    )
}

/// Every engine returns `want` (result, allocations, bytes) for `entry`.
fn pinned(entry: &str, n: i32, want: (i32, u64, u64)) {
    for profile in engines() {
        assert_eq!(
            run(profile, entry, n),
            want,
            "{entry}({n}) on {}",
            profile.name
        );
    }
}

#[test]
fn allocation_loop_counts_are_pinned() {
    // Per iteration: a Cell, two boxes, an int[i % 4], a double[2,3] and
    // an object[2].
    pinned("Alloc", 100, (10_050, 600, 59_600));
}

#[test]
fn a_callee_that_allocates_then_throws_is_counted() {
    // The callee's array and Cell, and the exception object.
    pinned("Catcher", 5, (7, 3, 304));
}

#[test]
fn joined_managed_threads_are_counted() {
    // Two Workers, then each thread's Cells and double[3]s.
    pinned("Threads", 10, (10, 44, 4_544));
    // The managed calls of both threads are in `counters.calls` once they
    // are joined: `P.Threads`, two `Worker` constructors, two `Run`s and
    // 21 `Cell` constructors.
    for profile in engines() {
        let vm = vm(profile);
        vm.invoke_by_name("P.Threads", vec![Value::I4(10)]).unwrap();
        let calls = vm.counters.calls.load(Ordering::Relaxed);
        assert_eq!(calls, 26, "calls on {}", profile.name);
    }
}

#[test]
fn a_serial_round_trip_is_counted() {
    // The ring of n Cells, then its copy.
    pinned("RoundTrip", 6, (15, 12, 1_248));
}

#[test]
fn nested_lock_reenters() {
    for profile in engines() {
        let (v, ..) = run(profile, "Nested", 50);
        assert_eq!(v, 51, "{}", profile.name);
    }
}

#[test]
fn lock_of_null_is_a_catchable_null_reference() {
    for profile in engines() {
        let (r, ..) = run(profile, "LockNull", 0);
        assert_eq!(r, 2, "{}", profile.name);
    }
}

#[test]
fn exit_of_an_unowned_monitor_fails_alike_everywhere() {
    for profile in engines() {
        let err = vm(profile)
            .invoke_by_name("P.ExitUnowned", vec![])
            .expect_err("Monitor.Exit without Enter must fail");
        assert_eq!(
            err.to_string(),
            "internal engine error: Monitor.Exit without ownership",
            "{}",
            profile.name
        );
    }
}

#[test]
fn a_throwing_managed_thread_reaches_its_joiner() {
    for profile in engines() {
        let (r, ..) = run(profile, "JoinCatches", 5);
        assert_eq!(
            r, 2,
            "{}: the joiner catches the thread's exception",
            profile.name
        );
        let (r, ..) = run(profile, "JoinCatches", 1);
        assert_eq!(r, 1, "{}: a thread that returns", profile.name);

        let joiner = vm(profile);
        let err = joiner
            .invoke_by_name("P.JoinThrows", vec![Value::I4(5)])
            .expect_err("the thread's exception leaves through its joiner");
        let class = joiner.module.find_class("IndexOutOfRangeException");
        assert_eq!(
            err.to_string(),
            format!("unhandled managed exception ({class:?})"),
            "{}",
            profile.name
        );

        let host = vm(profile);
        let r = host.invoke_by_name("P.NeverJoined", vec![Value::I4(5)]);
        assert_eq!(r.unwrap().map(|v| v.as_i4()), Some(1), "{}", profile.name);
        host.join_all_threads();
    }
}
