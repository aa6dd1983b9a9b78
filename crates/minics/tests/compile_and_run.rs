//! End-to-end compiler tests: MiniC# source → CIL → executed on several
//! engine profiles, results compared across all of them (the reproduction
//! of the paper's "same CIL on every runtime" methodology, in miniature).

use hpcnet_minics::compile;
use hpcnet_runtime::Value;
use hpcnet_vm::{Vm, VmError, VmProfile};

fn profiles() -> Vec<VmProfile> {
    vec![
        VmProfile::clr11(),
        VmProfile::jvm_ibm131(),
        VmProfile::mono023(),
        VmProfile::sscli10(),
    ]
}

/// Compile and run `entry` on every profile; all results must agree.
fn run_all(src: &str, entry: &str, args: Vec<Value>) -> Value {
    let module = compile(src).unwrap_or_else(|e| panic!("{e}"));
    let mut result: Option<Value> = None;
    for p in profiles() {
        let vm = Vm::new(module.clone(), p).unwrap();
        // Run static initializers when present.
        if vm.module.find_method("$Startup.Init").is_some() {
            vm.invoke_by_name("$Startup.Init", vec![]).unwrap();
        }
        let r = vm
            .invoke_by_name(entry, args.clone())
            .unwrap_or_else(|e| panic!("{entry} on {}: {e}", p.name))
            .unwrap_or(Value::Null);
        match &result {
            None => result = Some(r),
            Some(prev) => match (prev, &r) {
                (Value::I4(a), Value::I4(b)) => assert_eq!(a, b, "{}", p.name),
                (Value::I8(a), Value::I8(b)) => assert_eq!(a, b, "{}", p.name),
                (Value::R8(a), Value::R8(b)) => {
                    assert!((a - b).abs() < 1e-9, "{}: {a} vs {b}", p.name)
                }
                (Value::R4(a), Value::R4(b)) => assert_eq!(a, b, "{}", p.name),
                _ => {}
            },
        }
    }
    result.unwrap()
}

fn run_i4(src: &str, entry: &str, args: Vec<Value>) -> i32 {
    match run_all(src, entry, args) {
        Value::I4(v) => v,
        other => panic!("expected int, got {other:?}"),
    }
}

fn run_r8(src: &str, entry: &str, args: Vec<Value>) -> f64 {
    match run_all(src, entry, args) {
        Value::R8(v) => v,
        other => panic!("expected double, got {other:?}"),
    }
}

#[test]
fn arithmetic_and_promotion() {
    let src = r#"
        class P {
            static double Mix(int a, long b, double c) {
                return a + b * 2 + c / 4.0;
            }
            static int IntOps(int a, int b) {
                return (a + b) * (a - b) / (b + 1) % 7;
            }
            static long Shifts(long x) { return (x << 3) >> 1; }
        }"#;
    assert_eq!(
        run_r8(src, "P.Mix", vec![Value::I4(1), Value::I8(10), Value::R8(2.0)]),
        21.5
    );
    assert_eq!(
        run_i4(src, "P.IntOps", vec![Value::I4(10), Value::I4(3)]),
        (13 * 7 / 4) % 7
    );
    match run_all(src, "P.Shifts", vec![Value::I8(5)]) {
        Value::I8(v) => assert_eq!(v, 20),
        other => panic!("expected long, got {other:?}"),
    }
}

#[test]
fn control_flow_loops() {
    let src = r#"
        class P {
            static int SumEven(int n) {
                int s = 0;
                for (int i = 0; i < n; i++) {
                    if (i % 2 == 0) s += i; else continue;
                }
                return s;
            }
            static int CountDown(int n) {
                int c = 0;
                while (n > 0) { n--; c++; if (c > 100) break; }
                return c;
            }
            static int DoWhile(int n) {
                int i = 0;
                do { i++; } while (i < n);
                return i;
            }
        }"#;
    assert_eq!(run_i4(src, "P.SumEven", vec![Value::I4(10)]), 20);
    assert_eq!(run_i4(src, "P.CountDown", vec![Value::I4(5)]), 5);
    assert_eq!(run_i4(src, "P.CountDown", vec![Value::I4(1000)]), 101);
    assert_eq!(run_i4(src, "P.DoWhile", vec![Value::I4(0)]), 1);
}

#[test]
fn short_circuit_semantics() {
    let src = r#"
        class P {
            static int calls;
            static bool Bump(bool r) { calls = calls + 1; return r; }
            static int Test() {
                calls = 0;
                bool a = Bump(false) && Bump(true);
                int afterAnd = calls;
                calls = 0;
                bool b = Bump(true) || Bump(true);
                int afterOr = calls;
                int r = 0;
                if (!a) r += 1;
                if (b) r += 2;
                if (afterAnd == 1) r += 4;
                if (afterOr == 1) r += 8;
                return r;
            }
        }"#;
    assert_eq!(run_i4(src, "P.Test", vec![]), 15);
}

#[test]
fn arrays_jagged_and_multi() {
    let src = r#"
        class P {
            static double JaggedSum(int n) {
                double[][] a = new double[n][];
                for (int i = 0; i < n; i++) {
                    a[i] = new double[n];
                    for (int j = 0; j < n; j++) a[i][j] = i * 10 + j;
                }
                double s = 0.0;
                for (int i = 0; i < n; i++) {
                    double[] row = a[i];
                    for (int j = 0; j < row.Length; j++) s += row[j];
                }
                return s;
            }
            static double MultiSum(int n) {
                double[,] a = new double[n, n];
                for (int i = 0; i < a.GetLength(0); i++)
                    for (int j = 0; j < a.GetLength(1); j++)
                        a[i, j] = i * 10 + j;
                double s = 0.0;
                for (int i = 0; i < n; i++)
                    for (int j = 0; j < n; j++)
                        s += a[i, j];
                return s;
            }
        }"#;
    let expect: f64 = (0..4)
        .flat_map(|i| (0..4).map(move |j| (i * 10 + j) as f64))
        .sum();
    assert_eq!(run_r8(src, "P.JaggedSum", vec![Value::I4(4)]), expect);
    assert_eq!(run_r8(src, "P.MultiSum", vec![Value::I4(4)]), expect);
}

#[test]
fn classes_inheritance_virtuals() {
    let src = r#"
        class Shape {
            double scale;
            Shape(double s) { scale = s; }
            virtual double Area() { return 0.0; }
            double Scaled() { return Area() * scale; }
        }
        class Square : Shape {
            double side;
            Square(double s) : { side = s; scale = 2.0; }
            override double Area() { return side * side; }
        }
        class P {
            static double Test() {
                Shape s = new Square(3.0);
                return s.Scaled();
            }
        }"#;
    // Note: `: {` after ctor params isn't valid — fix source below.
    let src = &src.replace(": {", "{");
    assert_eq!(run_r8(src, "P.Test", vec![]), 18.0);
}

#[test]
fn ctor_base_fields_and_statics() {
    let src = r#"
        class Counter {
            static int total = 5;
            int mine;
            Counter(int start) { mine = start; total += start; }
            int Get() { return mine; }
        }
        class P {
            static int Test() {
                Counter a = new Counter(10);
                Counter b = new Counter(20);
                return Counter.total * 1000 + a.Get() + b.Get();
            }
        }"#;
    assert_eq!(run_i4(src, "P.Test", vec![]), 35030);
}

#[test]
fn exceptions_catch_finally() {
    let src = r#"
        class P {
            static int Div(int a, int b) {
                int r = -100;
                try {
                    r = a / b;
                } catch (DivideByZeroException e) {
                    r = -1;
                } finally {
                    r += 1000;
                }
                return r;
            }
            static int Custom() {
                try {
                    throw new Exception();
                } catch (Exception e) {
                    return 42;
                }
            }
            static int NullField(object o) {
                try {
                    P p = (P) o;
                    return p.x;
                } catch (NullReferenceException e) {
                    return -7;
                }
            }
            int x;
        }"#;
    assert_eq!(run_i4(src, "P.Div", vec![Value::I4(10), Value::I4(2)]), 1005);
    assert_eq!(run_i4(src, "P.Div", vec![Value::I4(10), Value::I4(0)]), 999);
    assert_eq!(run_i4(src, "P.Custom", vec![]), 42);
    assert_eq!(run_i4(src, "P.NullField", vec![Value::Null]), -7);
}

#[test]
fn return_inside_try_runs_finally() {
    let src = r#"
        class P {
            static int marker;
            static int Inner() {
                try {
                    return 5;
                } finally {
                    marker = 99;
                }
            }
            static int Test() {
                int r = Inner();
                return r * 100 + marker;
            }
        }"#;
    assert_eq!(run_i4(src, "P.Test", vec![]), 599);
}

#[test]
fn boxing_and_casts() {
    let src = r#"
        class P {
            static int Test() {
                object o = 41;
                int v = (int) o;
                object d = 2.5;
                double dv = (double) d;
                long big = 1it;
                return v + (int) dv;
            }
        }"#;
    let src = &src.replace("1it", "1L");
    assert_eq!(run_i4(src, "P.Test", vec![]), 43);
}

#[test]
fn math_builtins() {
    let src = r#"
        class P {
            static double Test(double x) {
                double a = Math.Sqrt(x) + Math.Pow(x, 2.0);
                double b = Math.Abs(-3) + Math.Max(2, 7) + Math.Min(2L, 7L);
                double c = Math.Sin(Math.PI / 2.0);
                return a + b + c;
            }
        }"#;
    let got = run_r8(src, "P.Test", vec![Value::R8(4.0)]);
    assert!((got - (2.0 + 16.0 + 3.0 + 7.0 + 2.0 + 1.0)).abs() < 1e-9, "{got}");
}

#[test]
fn string_concat_and_length() {
    let src = r#"
        class P {
            static int Test(int n) {
                string s = "n=" + n + ", d=" + 1.5;
                return s.Length;
            }
        }"#;
    // "n=42, d=1.5" = 11 chars
    assert_eq!(run_i4(src, "P.Test", vec![Value::I4(42)]), 11);
}

#[test]
fn lock_statement_and_threads() {
    let src = r#"
        class Worker {
            static object mutex;
            static int count;
            virtual void Run() {
                for (int i = 0; i < 500; i++) {
                    lock (mutex) { count = count + 1; }
                }
            }
        }
        class P {
            static int Test() {
                Worker.mutex = new Worker();
                int t1 = Sys.Start(new Worker());
                int t2 = Sys.Start(new Worker());
                Sys.Join(t1);
                Sys.Join(t2);
                return Worker.count;
            }
        }"#;
    assert_eq!(run_i4(src, "P.Test", vec![]), 1000);
}

#[test]
fn recursion_fib_and_hanoi() {
    let src = r#"
        class P {
            static int Fib(int n) {
                if (n < 2) return n;
                return Fib(n - 1) + Fib(n - 2);
            }
            static int moves;
            static void Move(int n, int from, int to, int via) {
                if (n == 0) return;
                Move(n - 1, from, via, to);
                moves++;
                Move(n - 1, via, to, from);
            }
            static int Hanoi(int n) {
                moves = 0;
                Move(n, 0, 2, 1);
                return moves;
            }
        }"#;
    assert_eq!(run_i4(src, "P.Fib", vec![Value::I4(12)]), 144);
    assert_eq!(run_i4(src, "P.Hanoi", vec![Value::I4(10)]), 1023);
}

#[test]
fn ternary_and_compound_assign() {
    let src = r#"
        class P {
            static int Test(int n) {
                int a = n > 5 ? 100 : 200;
                a += n;
                a -= 1;
                a *= 2;
                a /= 3;
                int[] arr = new int[4];
                arr[1] = 5;
                arr[1] += 37;
                arr[1 + 0] *= 2;
                return a + arr[1];
            }
        }"#;
    // n=9: a=100+9-1=108*2=216/3=72; arr[1]=(5+37)*2=84 → 156
    assert_eq!(run_i4(src, "P.Test", vec![Value::I4(9)]), 156);
}

#[test]
fn serialization_builtin() {
    let src = r#"
        class Node {
            int val;
            Node next;
            Node(int v) { val = v; }
        }
        class P {
            static int Test() {
                Node a = new Node(7);
                a.next = new Node(8);
                a.next.next = a; // cycle
                int bytes = Serial.Write(a);
                Node b = (Node) Serial.Read();
                int ok = 0;
                if (b.val == 7) ok += 1;
                if (b.next.val == 8) ok += 2;
                if (b.next.next == b) ok += 4;
                if (bytes > 0) ok += 8;
                return ok;
            }
        }"#;
    assert_eq!(run_i4(src, "P.Test", vec![]), 15);
}

#[test]
fn static_initializers_run_in_order() {
    let src = r#"
        class A { static int x = 10; }
        class B { static int y = A.x * 3; }
        class P { static int Test() { return B.y; } }"#;
    assert_eq!(run_i4(src, "P.Test", vec![]), 30);
}

#[test]
fn uncaught_exception_propagates_to_host() {
    let module = compile(
        "class P { static void Boom() { throw new Exception(); } }",
    )
    .unwrap();
    let vm = Vm::new(module, VmProfile::clr11()).unwrap();
    let e = vm.invoke_by_name("P.Boom", vec![]).unwrap_err();
    assert!(matches!(e, VmError::Exception(_)));
}

#[test]
fn compile_errors_are_helpful() {
    let cases = [
        ("class P { static int F() { return \"x\"; } }", "convert"),
        ("class P { static void F() { G(); } }", "unknown method"),
        ("class P { static void F() { int x = y; } }", "unknown name"),
        ("class P { static void F(int a, int a) { } }", "duplicate"),
        ("class P { static void F() { break; } }", "break outside"),
        ("class P : Q { }", "unknown base"),
        ("class Math { }", "reserved"),
        (
            "class P { static void F() { double[,] m = new double[2,2]; int x = m[1]; } }",
            "bad index",
        ),
        (
            "class T { static int F(int a) { return a; }\n static int F(double a) { return 0; } }",
            "duplicate method t.f",
        ),
        ("class T { T() { }\n T() { } }", "duplicate method t..ctor"),
        ("class A : A { }", "inheritance cycle at class a"),
        (
            "class A : B { } class B : A { }",
            "inheritance cycle at class a",
        ),
        (
            "class A : B { } class B : C { } class C : A { }",
            "inheritance cycle at class a",
        ),
        ("class P { static void F(int[,,,] a) { } }", "rank 2..=3"),
        ("class P { static int[,,,] g; }", "rank 2..=3"),
        (
            "class P { static void F() { int[,,,] a = null; } }",
            "rank 2..=3",
        ),
    ];
    for (src, needle) in cases {
        match compile(src) {
            Err(e) => assert!(
                e.message.to_lowercase().contains(needle),
                "{src}: expected {needle:?} in {e}"
            ),
            Ok(_) => {
                // Parameter duplication is surfaced at body-emission time
                // via scoping; accept a pass-through only if truly ok.
                panic!("{src}: expected failure containing {needle:?}")
            }
        }
    }
}

#[test]
fn duplicate_methods_are_reported_at_the_second_declaration() {
    for src in [
        "class T { static int F(int a) { return a; }\n static int F(double a) { return 0; } }",
        "class T { T() { }\n T() { } }",
    ] {
        let e = compile(src).expect_err(src);
        assert_eq!((e.pos.line, e.pos.col), (2, 2), "{src}: {e}");
    }
}

#[test]
fn an_inheritance_cycle_is_reported_at_a_class_on_it() {
    for (src, class, line) in [
        ("class P { }\nclass A : A { }", "A", 2),
        ("class C : A { }\nclass A : B { }\nclass B : A { }", "A", 2),
    ] {
        let e = compile(src).expect_err(src);
        let want = format!("inheritance cycle at class {class}");
        assert_eq!(e.message, want, "{src}");
        assert_eq!((e.pos.line, e.pos.col), (line, 1), "{src}: {e}");
    }
}

#[test]
fn ordered_compare_on_bools_is_rejected_in_every_position() {
    for body in [
        "return a < b;",
        "if (a <= b) { return true; } return false;",
        "return (a > b) == c;",
        "while (a >= b) { } return c;",
    ] {
        let src = format!("class P {{ static bool F(bool a, bool b, bool c) {{ {body} }} }}");
        let e = compile(&src).expect_err(&src);
        assert!(
            e.message.starts_with("ordered compare on Bool and Bool"),
            "{src}: {e}"
        );
    }
    // Equality on bools stays legal, in value and in branch form.
    let src = "class P { static bool F(bool a, bool b) {
        if (a == b) { return a != b; } return (a == b) == true; } }";
    compile(src).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn instance_vs_static_context_checks() {
    assert!(compile("class P { int x; static int F() { return x; } }").is_err());
    assert!(compile("class P { int x; static int F() { return this.x; } }").is_err());
    assert!(compile("class P { int x; int F() { return x; } }").is_ok());
}

#[test]
fn while_with_complex_condition() {
    let src = r#"
        class P {
            static int Test(int n) {
                int i = 0;
                int steps = 0;
                while (i < n && steps < 100) { i += 2; steps++; }
                return steps;
            }
        }"#;
    assert_eq!(run_i4(src, "P.Test", vec![Value::I4(10)]), 5);
    assert_eq!(run_i4(src, "P.Test", vec![Value::I4(1000)]), 100);
}

/// Regression for a bug the conform fuzzer found (seed 144): an exception
/// thrown *inside a finally handler* must abandon the in-flight leave and
/// dispatch to the enclosing catch, identically on every profile. The
/// broken dispatch executed the outer catch while still inside the finally
/// sub-run and died with an internal "return inside finally" error.
#[test]
fn exception_in_finally_reaches_enclosing_catch() {
    let src = r#"
        class P {
            static int F(int d) {
                int r = 0;
                try {
                    try {
                        r = (r + 1);
                    } catch (IndexOutOfRangeException e) {
                        r = 100;
                    } finally {
                        r = (r + (10 / d));
                    }
                    r = (r + 7);
                } catch (Exception e2) {
                    r = (r + 40);
                }
                return r;
            }
        }"#;
    // d = 10: finally runs cleanly; 1 + 1 + 7.
    assert_eq!(run_i4(src, "P.F", vec![Value::I4(10)]), 9);
    // d = 0: the finally itself traps; the enclosing catch sees it with the
    // partial state from before the trap (r == 1), so 1 + 40.
    assert_eq!(run_i4(src, "P.F", vec![Value::I4(0)]), 41);
}

/// A catch nested inside a finally block: dispatch from inside the running
/// finally may take a region that lies wholly within the handler. The
/// finally is entered by `leave` (`a = 10`) or by an exception in flight
/// (`a = 0`).
#[test]
fn catch_nested_in_finally_takes_the_finallys_exception() {
    let src = r#"
        class P {
            static int F(int a, int d, int rethrow) {
                int r = 0;
                try {
                    try {
                        r = (r + (10 / a));
                    } finally {
                        try {
                            r = (r + (10 / d));
                        } catch (DivideByZeroException e) {
                            r = (r + 100);
                            if (rethrow != 0) {
                                throw new Exception();
                            }
                        }
                        r = (r + 1000);
                    }
                    r = (r + 7);
                } catch (Exception e2) {
                    r = (r + 40);
                }
                return r;
            }
        }"#;
    let f = |a, d, rethrow| {
        run_i4(
            src,
            "P.F",
            vec![Value::I4(a), Value::I4(d), Value::I4(rethrow)],
        )
    };
    // Nothing traps: 1 + 1 + 1000 + 7.
    assert_eq!(f(10, 10, 0), 1009);
    // The finally traps and its nested catch takes it; the finally then
    // completes and the method returns normally: 1 + 100 + 1000 + 7.
    assert_eq!(f(10, 0, 0), 1108);
    // The nested catch throws; the enclosing catch takes that: 1 + 100 + 40.
    assert_eq!(f(10, 0, 1), 141);
    // Entered by dispatch: the nested catch takes the finally's own trap,
    // and the first exception goes on to the enclosing catch: 100 + 1000 + 40.
    assert_eq!(f(0, 0, 0), 1140);
    // The nested catch's throw replaces the exception in flight: 100 + 40.
    assert_eq!(f(0, 0, 1), 140);
}
