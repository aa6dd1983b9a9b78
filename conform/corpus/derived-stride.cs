// conform reproducer — loop step beyond the elision audit's offset cap
//   (hand-written pin for loop-aware ABCE, not a fuzzer capture)
// replay: see docs/TESTING.md ("Replaying a corpus reproducer")
// input: Gen.Run(12345, -7)
// oracle result: i8:12345
// input: Gen.Run(-2147483648, 2147483647)
// status: FIXED — the optimizer's fact scan took `i += 1839715891` for
//   an increment (any positive `int` step), while the elision audit
//   bounds a step by its offset cap of 2^20. Every audited engine with
//   loop-aware ABCE failed the compile with "elision audit failed …
//   induction variable has a non-increment in-loop definition". Both
//   now accept only a positive step of at most 2^20, so this loop keeps
//   its bounds checks and every engine agrees with the oracle.

class Gen {
    static long Run(int a, int b) {
        long s = 0L;
        int[] x = new int[16];
        for (int i = 0; i < x.Length; i += 1839715891) { x[i] = i; s = s + x[i]; }
        return s + (long)a;
    }
}
