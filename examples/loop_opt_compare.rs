//! Shows what bounds-check elision and the loop-aware tier do: the same
//! MiniC# sums compiled by CLR 1.1 with `bce` and `licm` off and on.
//!
//! With both off every access stays checked and `ldlen` runs every
//! iteration. With them on, `RowSum` (a clean counted loop) loses its
//! check and its `ldlen` is hoisted out of the loop. `SumThenPeek` reuses
//! the index variable after the loop (`j = row.Length - 1`), which taints
//! it for the whole-method structural matcher; the loop-aware ABCE reasons
//! per natural loop, so it still unchecks the in-loop access while
//! leaving the post-loop peek checked. docs/OPTIMIZATIONS.md embeds this
//! output.
//!
//! ```text
//! cargo run --release --example loop_opt_compare
//! ```

use hpcnet::{compile, print_rir, Vm, VmProfile};

fn main() {
    let source = r#"
        class Bench {
            static double RowSum(double[] row) {
                double sum = 0.0;
                for (int j = 0; j < row.Length; j++) {
                    sum = sum + row[j];
                }
                return sum;
            }
            static double SumThenPeek(double[] row) {
                double sum = 0.0;
                int j = 0;
                for (j = 0; j < row.Length; j++) {
                    sum = sum + row[j];
                }
                j = row.Length - 1;
                if (j >= 0) {
                    sum = sum + row[j];
                }
                return sum;
            }
        }"#;
    let module = compile(source).expect("compile");

    let mut off = VmProfile::clr11();
    off.name = "CLR 1.1 (elision and LICM off)";
    off.passes.bce = false;
    off.passes.licm = false;
    let on = VmProfile::clr11();

    for profile in [off, on] {
        let vm = Vm::new(module.clone(), profile).expect("load");
        for method in ["Bench.RowSum", "Bench.SumThenPeek"] {
            let id = vm.module.find_method(method).unwrap();
            let code = vm.compiled(id).expect("translate");
            println!("===== {method} on {} =====", profile.name);
            println!("{}", print_rir(&code));
        }
        let c = vm.counters.snapshot();
        println!(
            "loops found: {}, bounds checks eliminated: {} (idiom {} / range {} / versioned {}), hoisted: {}\n",
            c.loops_found,
            c.bounds_checks_eliminated,
            c.bce_elided_idiom,
            c.bce_elided_range,
            c.bce_elided_versioned,
            c.licm_hoisted,
        );
    }
}
