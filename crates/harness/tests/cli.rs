//! End-to-end CLI behavior of the `hpcnet-report` binary: the help text
//! lists every subcommand, and unknown subcommands refuse loudly with the
//! usage text and a non-zero exit (they used to be silently treated as
//! graph names).

use std::process::Command;

fn report() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hpcnet-report"))
}

#[test]
fn help_lists_every_subcommand_with_descriptions() {
    let out = report().arg("--help").output().expect("run hpcnet-report");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for sub in ["conform", "profile"] {
        assert!(text.contains(sub), "help must list `{sub}`:\n{text}");
    }
    // One-line descriptions, not just names.
    assert!(text.contains("conformance"), "{text}");
    assert!(text.contains("PROFILE_<entry>.json"), "{text}");
}

/// `bench`, `serve` and `trace` are not subcommands: they take the same
/// path as any other unknown name.
#[test]
fn unknown_subcommand_exits_nonzero_with_usage() {
    for sub in ["frobnicate", "bench", "serve", "trace"] {
        let out = report().arg(sub).output().expect("run hpcnet-report");
        assert_eq!(out.status.code(), Some(2), "{sub} must exit 2");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown"), "{sub}: {err}");
        assert!(err.contains("usage:"), "{sub}: stderr lacks usage:\n{err}");
        assert!(err.contains("profile"), "{sub}: no subcommands:\n{err}");
        assert!(!err.contains("panicked"), "{sub} panicked:\n{err}");
    }
}

#[test]
fn profile_without_entry_exits_nonzero() {
    let out = report().arg("profile").output().expect("run hpcnet-report");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("entry"), "{err}");
}

/// Bad flag values on every subcommand's argument path die with a stderr
/// error + that subcommand's usage + exit code 2 — never a panic (no
/// `RUST_BACKTRACE` hint, no "panicked at").
#[test]
fn malformed_flag_values_fail_with_usage_not_panic() {
    let cases: &[&[&str]] = &[
        &["--min-time-ms", "soon"],
        &["--csv"],
        &["profile", "--n", "xyz"],
        &["profile", "--check"],
        &["conform", "--programs", "many"],
        &["conform", "--observe", "loudly"],
        &["conform", "--workers"],
        // A retired flag is an unknown flag like any other.
        &["conform", "--wave", "64"],
    ];
    for args in cases {
        let out = report().args(*args).output().expect("run hpcnet-report");
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("error:"), "{args:?} stderr missing error:\n{err}");
        assert!(
            err.contains("flags:") || err.contains("usage:"),
            "{args:?} stderr missing usage:\n{err}"
        );
        assert!(!err.contains("panicked"), "{args:?} panicked:\n{err}");
    }
}

/// Unreadable artifact paths are runtime failures (exit 1), also unpanicked.
#[test]
fn unreadable_check_paths_fail_cleanly() {
    let out = report()
        .args(["profile", "--check", "/nonexistent/definitely-missing.json"])
        .output()
        .expect("run hpcnet-report");
    assert_eq!(out.status.code(), Some(1), "profile --check must exit 1");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot read"), "{err}");
    assert!(!err.contains("panicked"), "profile panicked:\n{err}");
}

/// An unknown entry is a runtime failure (exit 1) that lists the known
/// ids, with or without `--overhead`, and never a panic.
#[test]
fn unknown_profile_entries_fail_cleanly_with_known_ids() {
    for extra in [&[][..], &["--overhead"][..]] {
        let out = report()
            .args(["profile", "no.such"])
            .args(extra)
            .output()
            .expect("run hpcnet-report");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{extra:?}: must exit 1:\n{err}");
        assert!(err.contains("no benchmark entry no.such"), "{extra:?}: {err}");
        assert!(err.contains("known entries:") && err.contains("loop.for"), "{extra:?}: {err}");
        assert!(!err.contains("panicked"), "{extra:?}: panicked:\n{err}");
    }
}

/// The profile subcommand end to end: write the artifact, then
/// re-validate the written file via `--check`.
#[test]
fn profile_writes_a_schema_valid_artifact_and_rechecks_it() {
    let dir = std::env::temp_dir().join("hpcnet-cli-profile-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("PROFILE_exception.throw.json");
    let out = report()
        .args(["profile", "exception.throw", "--n", "100", "--out", path.to_str().unwrap()])
        .output()
        .expect("run hpcnet-report");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "profile failed:\n{err}");
    assert!(err.contains("schema-valid"), "{err}");
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains("\"kind\": \"profile\""), "artifact written");

    let check = report()
        .args(["profile", "--check", path.to_str().unwrap()])
        .output()
        .expect("run hpcnet-report");
    assert_eq!(check.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&check.stdout).contains("schema-valid"));
}

#[test]
fn profile_check_rejects_a_bench_document_shape() {
    // A syntactically valid JSON that is not a profile document.
    let dir = std::env::temp_dir().join("hpcnet-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("not-a-profile.json");
    std::fs::write(&path, "{\"schema_version\": 1.1, \"suite\": \"grande\"}\n").unwrap();
    let out = report()
        .args(["profile", "--check", path.to_str().unwrap()])
        .output()
        .expect("run hpcnet-report");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("INVALID"), "{err}");
}
