//! Quickstart: compile a MiniC# program, run it on two engine profiles,
//! and peek at the generated register-tier code.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use hpcnet::{compile_and_load, print_rir, Value, VmProfile};

fn main() {
    let source = r#"
        class Primes {
            // Count primes below n with a trial-division loop (slow on
            // purpose: lots of integer division, the paper's Table 5 op).
            static int CountBelow(int n) {
                int count = 0;
                for (int candidate = 2; candidate < n; candidate++) {
                    bool prime = true;
                    for (int d = 2; d * d <= candidate; d++) {
                        if (candidate % d == 0) { prime = false; break; }
                    }
                    if (prime) count++;
                }
                return count;
            }

            static void Main() {
                Console.WriteLine("primes below 10000:");
                Console.WriteLine(CountBelow(10000));
            }
        }"#;

    for profile in [VmProfile::clr11(), VmProfile::sscli10()] {
        let vm = compile_and_load(source, profile).expect("compile");
        println!("--- running on {} ---", vm.profile.name);
        let start = std::time::Instant::now();
        vm.invoke_by_name("Primes.Main", vec![]).expect("run");
        let elapsed = start.elapsed();
        for line in vm.take_console() {
            println!("{line}");
        }
        println!("({}ms)\n", elapsed.as_millis());
    }

    // The same CIL, two very different machine-code shapes: dump the
    // register-tier code the CLR profile produced.
    let vm = compile_and_load(source, VmProfile::clr11()).expect("compile");
    let id = vm.module.find_method("Primes.CountBelow").unwrap();
    // Trigger translation, then print.
    vm.invoke_by_name("Primes.CountBelow", vec![Value::I4(50)])
        .unwrap();
    println!("--- CLR 1.1 profile code for CountBelow ---");
    println!("{}", print_rir(&vm.compiled(id).unwrap()));
}
