//! Bounded conformance sweep — the tier-1 entry point of the fuzzer.
//!
//! Fixed seed range, 5000 programs, every program executed under every
//! engine of the matrix (oracle + Rotor + 6 register-tier profiles × 4
//! `bce`/`licm` combinations × 2 register tiers). Runs as part of
//! `cargo test -q` — tractable because the fleet shards seeds across
//! cores, engine VMs share one `Arc<Module>` plus a compile front-half
//! cache per seed, and inputs replay via snapshot/reset instead of
//! rebuilding state. The CI `conform-fleet` job runs a *fresh* seed
//! window on top of this fixed one via `hpcnet-report conform` with
//! reproducer upload on failure.
//!
//! On divergence the sweep auto-minimizes the program and commits a
//! reproducer under `conform/corpus/`; the assertion message points at it.

use conform::{run_conformance, ConformConfig};

/// Seeds are fixed so CI and local runs test the identical corpus; bump
/// the base only when the generator itself changes shape.
const START_SEED: u64 = 1;
const PROGRAMS: u64 = 5000;

#[test]
fn bounded_sweep_no_divergence_and_full_opcode_coverage() {
    let report = run_conformance(&ConformConfig {
        programs: PROGRAMS,
        start_seed: START_SEED,
        corpus_dir: Some(conform::default_corpus_dir()),
        observe: hpcnet_vm::ObserveLevel::Off,
        workers: 0,
    });

    assert!(
        report.rejected.is_empty(),
        "generator produced unverifiable programs:\n{}",
        report.rejected.join("\n")
    );
    assert!(
        report.divergent.is_empty(),
        "conformance divergence — minimized reproducers written to conform/corpus/:\n{}",
        report.render()
    );

    // ≥ 5000 programs across the full matrix.
    assert_eq!(report.programs, PROGRAMS);
    assert_eq!(report.engines, 50, "engine matrix changed shape");
    assert_eq!(report.runs as u64, PROGRAMS * 3 * 50);

    // Every opcode kind the generator emitted must have executed at least
    // once on the interpreter oracle.
    let missing = report.coverage.emitted_unexecuted();
    assert!(
        missing.is_empty(),
        "emitted but never executed: {missing:?}\n{}",
        report.render()
    );
}
