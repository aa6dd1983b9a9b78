//! Differential fleet test: the parallel sweep is a pure function of the
//! seed range. `--workers 1`, `--workers 2`, and `--workers 8` must
//! produce *byte-identical* rendered reports — same verdicts, same
//! coverage totals, same reset-reuse accounting, same (empty) divergence
//! and reproducer lists.

use conform::{run_conformance, ConformConfig};
use hpcnet_vm::ObserveLevel;

fn cfg(workers: usize) -> ConformConfig {
    ConformConfig {
        programs: 30,
        start_seed: 4000,
        corpus_dir: None,
        observe: ObserveLevel::Off,
        workers,
    }
}

#[test]
fn worker_count_never_changes_a_byte() {
    let base = run_conformance(&cfg(1)).render();
    for workers in [2, 8] {
        assert_eq!(
            base,
            run_conformance(&cfg(workers)).render(),
            "report diverged between --workers 1 and --workers {workers}"
        );
    }
}

#[test]
fn fleet_reports_reuse_statistics() {
    let report = run_conformance(&cfg(2));
    assert!(report.ok(), "{}", report.render());
    // 30 programs × 50 engines: one fresh build + one snapshot each, one
    // reset per input run.
    assert_eq!(report.resets.fresh_builds, 30 * 50);
    assert_eq!(report.resets.snapshots, 30 * 50);
    assert_eq!(report.resets.resets as usize, report.runs);
    // The shared front-half cache must actually share: every register-tier
    // engine pair (exec + threaded, same pass config) hits on the second
    // member, so hits are substantial, and the rendered report says so.
    assert!(
        report.resets.front_hits >= report.resets.front_misses,
        "expected at least one front-half hit per miss: {:?}",
        report.resets
    );
    // The reuse/sharing facts surface in the rendered sweep metrics block.
    let text = report.render();
    assert!(text.contains("sweep metrics:"), "{text}");
    let metric = |name: &str| {
        text.lines()
            .find_map(|line| match line.split_whitespace().collect::<Vec<_>>()[..] {
                [n, v] if n == name => v.parse::<u64>().ok(),
                _ => None,
            })
            .unwrap_or_else(|| panic!("no {name} line:\n{text}"))
    };
    assert_eq!(metric("reset.resets"), report.resets.resets);
    assert_eq!(metric("share.front_hits"), report.resets.front_hits);
}

/// FNV-1a 64 over the rendered report's bytes.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn rendered_report_is_pinned() {
    // Every byte of the report — verdicts, the sweep metrics block and
    // the per-opcode coverage table — is a pure function of the seed
    // range; a change to how the sweep is scheduled or how its facts are
    // carried must leave this fingerprint alone.
    let report = run_conformance(&ConformConfig {
        programs: 30,
        start_seed: 4000,
        corpus_dir: None,
        workers: 2,
        ..Default::default()
    });
    let text = report.render();
    assert_eq!(
        fnv1a64(text.as_bytes()),
        0xdb41_f586_40b0_070d,
        "report changed:\n{text}"
    );
}
