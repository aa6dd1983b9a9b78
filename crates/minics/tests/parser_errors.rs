//! Front-end rejection paths: sources the compiler must refuse, with the
//! diagnostics pinned loosely (substring, not full text) so messages can be
//! reworded without breaking the suite.
//!
//! These are the flip side of the conform fuzzer's verifier gate: the
//! generator in `crates/conform` is constrained to never produce any of
//! these shapes, and these tests keep the rejection behavior honest.

use hpcnet_minics::compile;

/// Compile must fail and the diagnostic must mention `needle`.
fn rejects(src: &str, needle: &str) {
    match compile(src) {
        Ok(_) => panic!("accepted invalid program:\n{src}"),
        Err(e) => {
            let msg = e.to_string();
            assert!(
                msg.contains(needle),
                "diagnostic {msg:?} does not mention {needle:?} for:\n{src}"
            );
        }
    }
}

#[test]
fn unterminated_block_reports_eof() {
    rejects("class C { static int F() { return 1;", "Eof");
}

#[test]
fn unterminated_string_literal() {
    rejects(
        "class C { static int F() { string s = \"abc; return 0; } }",
        "unterminated string",
    );
}

#[test]
fn wrong_rank_index_on_rectangular_array() {
    // 2-D array indexed with one subscript...
    rejects(
        "class C { static int F() { double[,] m = new double[2,2]; return (int)m[1]; } }",
        "bad index on Multi",
    );
    // ... and with three.
    rejects(
        "class C { static int F() { double[,] m = new double[2,2]; return (int)m[1,1,1]; } }",
        "bad index on Multi",
    );
}

#[test]
fn array_index_must_be_int() {
    rejects(
        "class C { static int F() { int[] a = new int[3]; return a[1.5]; } }",
        "index must be int",
    );
}

#[test]
fn loop_and_branch_conditions_must_be_bool() {
    // C-style "truthy" int conditions are not MiniC#.
    rejects(
        "class C { static int F() { int s = 0; for (int i = 0; i + 1; i++) { s += 1; } return s; } }",
        "condition must be bool",
    );
    rejects(
        "class C { static int F(int n) { while (n) { n -= 1; } return n; } }",
        "condition must be bool",
    );
    rejects(
        "class C { static int F(int n) { if (n) { return 1; } return 0; } }",
        "condition must be bool",
    );
}

#[test]
fn unknown_names_are_rejected() {
    rejects("class C { static int F() { return q; } }", "unknown name");
    rejects("class C { static int F() { return G(1); } }", "unknown method");
}

#[test]
fn no_implicit_narrowing_assignment() {
    rejects(
        "class C { static int F() { int x = 0; x = 1.5; return x; } }",
        "implicitly convert",
    );
}

#[test]
fn length_only_exists_on_arrays() {
    rejects(
        "class C { static int F(int n) { return n.Length; } }",
        "no field Length",
    );
}

#[test]
fn builtins_typed_by_their_first_argument_check_arity_first() {
    for (expr, needle) in [
        ("int x = Math.Abs() + 1;", "Math.Abs takes 1 argument(s)"),
        (
            "int x = Math.Max(Math.Abs(), 1);",
            "Math.Abs takes 1 argument(s)",
        ),
        ("long y = Math.Min() * 2;", "Math.Min takes 2 argument(s)"),
        (
            "double z = 1.0 + Math.Round();",
            "Math.Round takes 1 argument(s)",
        ),
    ] {
        rejects(
            &format!("class C {{ static void F() {{ {expr} }} }}"),
            needle,
        );
    }
}
