//! Integration guarantees of the `hpcnet-report profile` artifact:
//!
//! 1. **Determinism** — the document is built from counts only (no wall
//!    times, no environment probes), so two consecutive runs of the same
//!    build must produce byte-identical JSON.
//! 2. **Mechanism attribution** — per-profile bounds-checks-executed
//!    counts differ *exactly* where the `bce` knob predicts: the
//!    dynamic access total (executed + elided) is invariant across
//!    profiles, profiles without elimination passes elide nothing, and
//!    the delta rows against the reference equal the reference's elided
//!    count to the access.

use hpcnet_core::json::Json;
use hpcnet_harness::profile::{check_document, run_profile, validate, ProfileConfig};

fn cfg(n: i32) -> ProfileConfig {
    ProfileConfig { n: Some(n), large: false, quick: false }
}

fn profile_obj<'j>(doc: &'j Json, name: &str) -> &'j Json {
    doc.get("profiles")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .find(|p| p.get("profile").unwrap().as_str() == Some(name))
        .unwrap_or_else(|| panic!("profile {name} missing"))
}

fn total(doc: &Json, profile: &str, key: &str) -> f64 {
    profile_obj(doc, profile)
        .get("totals")
        .unwrap()
        .get(key)
        .unwrap_or_else(|| panic!("totals.{key} missing"))
        .as_f64()
        .unwrap()
}

#[test]
fn profile_document_is_bit_identical_across_consecutive_runs() {
    let a = run_profile("loop.for", &cfg(512)).unwrap().doc.render();
    let b = run_profile("loop.for", &cfg(512)).unwrap().doc.render();
    assert_eq!(a, b, "profile artifact must be deterministic");
    check_document(&a).unwrap();
}

#[test]
fn bounds_check_counts_differ_exactly_where_the_knobs_predict() {
    // FFT is dominated by 1-D `data.Length`-guarded loops, the exact
    // shape the structural and loop-aware elision passes (`bce`) target.
    let run = run_profile("scimark.fft", &cfg(256)).unwrap();
    let doc = &run.doc;
    check_document(&doc.render()).unwrap();

    let clr = "C# .NET 1.1"; // bce + licm on (reference profile)
    let mono = "Mono-0.23"; // register tier, every pass off
    let rotor = "Rotor 1.0"; // interpreter tier

    // The dynamic access count is an invariant of the program, not the
    // engine: elimination converts executed checks to elided ones 1:1.
    let accesses = |p: &str| {
        total(doc, p, "bounds_checks_executed") + total(doc, p, "bounds_checks_elided")
    };
    assert_eq!(accesses(clr), accesses(mono), "access total must not depend on passes");
    assert_eq!(accesses(clr), accesses(rotor), "access total must not depend on tier");

    // No elimination pass → nothing elided; every check executes.
    assert_eq!(total(doc, mono, "bounds_checks_elided"), 0.0);
    assert_eq!(total(doc, rotor, "bounds_checks_elided"), 0.0);
    assert_eq!(
        total(doc, mono, "bounds_checks_executed"),
        total(doc, rotor, "bounds_checks_executed"),
        "pass-less register tier and interpreter execute identical check counts"
    );

    // The optimizing profile elided a real share, and the delta rows in
    // the attribution section equal its elided count exactly.
    let elided = total(doc, clr, "bounds_checks_elided");
    assert!(elided > 0.0, "CLR 1.1 should eliminate checks on FFT");
    let deltas = doc.get("attribution").unwrap().get("deltas").unwrap().as_arr().unwrap();
    for d in deltas {
        let name = d.get("profile").unwrap().as_str().unwrap();
        let bc_delta = d.get("bounds_checks_executed_delta").unwrap().as_f64().unwrap();
        assert_eq!(bc_delta, elided, "{name}: delta must equal the reference's elided count");
        let mechanisms: Vec<&str> = d
            .get("mechanisms")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|m| m.as_str().unwrap())
            .collect();
        assert!(
            mechanisms.iter().any(|m| m.contains("bounds-check elimination")),
            "{name}: mechanisms must name bounds-check elimination: {mechanisms:?}"
        );
    }

    // Compile-record sanity: the JIT tiers list compiled methods, the
    // interpreter none.
    let jit_events = |p: &str| {
        profile_obj(doc, p).get("events").unwrap().get("jit").unwrap().as_arr().unwrap().len()
    };
    assert!(jit_events(clr) > 0, "CLR must record its compiles");
    assert!(jit_events(mono) > 0, "Mono compiles to RIR too");
    assert_eq!(jit_events(rotor), 0, "the interpreter never JITs");
}

/// FNV-1a (64-bit) over the rendered document.
fn fingerprint(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The whole rendered document — every key, its order and every count —
/// is pinned for one loop entry and one exception entry, so a change to
/// how counters are declared or emitted cannot alter a byte of it
/// unnoticed. On a mismatch, diff the rendered text against a run of the
/// previous commit; update the literal only for an intended schema change.
#[test]
fn profile_documents_are_pinned_byte_for_byte() {
    for (entry, n, expected) in [
        ("scimark.sor", 24, 0x73cf_f75c_92f6_101e),
        ("exception.throw", 200, 0xc0e7_c213_a955_8cb2),
    ] {
        let text = run_profile(entry, &cfg(n)).unwrap().doc.render();
        assert_eq!(
            fingerprint(&text),
            expected,
            "{entry} n={n}: PROFILE document changed ({} bytes)",
            text.len()
        );
    }
}

/// One step from a value to a child: an object key or an array's first
/// element.
#[derive(Clone)]
enum Step {
    Key(String),
    First,
}

/// Every location under `v`: each object key, and the first element of
/// each non-empty array, recursively.
fn locations(v: &Json, at: &mut Vec<Step>, out: &mut Vec<Vec<Step>>) {
    let children: Vec<(Step, &Json)> = match v {
        Json::Obj(fields) => fields.iter().map(|(k, c)| (Step::Key(k.clone()), c)).collect(),
        Json::Arr(items) => items.first().map(|c| (Step::First, c)).into_iter().collect(),
        _ => Vec::new(),
    };
    for (step, child) in children {
        at.push(step);
        out.push(at.clone());
        locations(child, at, out);
        at.pop();
    }
}

fn at_mut<'j>(mut v: &'j mut Json, steps: &[Step]) -> &'j mut Json {
    for step in steps {
        v = match (v, step) {
            (Json::Obj(fields), Step::Key(k)) => &mut fields.iter_mut().find(|(f, _)| f == k).unwrap().1,
            (Json::Arr(items), Step::First) => &mut items[0],
            _ => unreachable!("location does not match the document"),
        };
    }
    v
}

/// The key a location is reported under — its last object key — and the
/// path of the object holding that key, as the validator writes paths.
fn reported_as(steps: &[Step]) -> (String, String) {
    let last_key = steps.iter().rposition(|s| matches!(s, Step::Key(_))).unwrap();
    let mut holder = String::from("$");
    for s in &steps[..last_key] {
        match s {
            Step::Key(k) => holder += &format!(".{k}"),
            Step::First => holder += "[0]",
        }
    }
    let Step::Key(key) = &steps[last_key] else { unreachable!() };
    (holder, key.clone())
}

/// `problem` mentions `key` as a whole word, not inside a longer name.
fn names_key(problem: &str, key: &str) -> bool {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    problem.match_indices(key).any(|(i, _)| {
        !problem[..i].ends_with(ident) && !problem[i + key.len()..].starts_with(ident)
    })
}

/// A value of another kind than `v`.
fn other_kind(v: &Json) -> Json {
    match v {
        Json::Num(_) => Json::Str("x".to_string()),
        _ => Json::Num(1.0),
    }
}

/// The validator misses no part of either pinned document: deleting any
/// object key, or giving any leaf a value of another kind, yields a
/// problem under the holding object's path that names the key.
#[test]
fn validator_names_every_deleted_key_and_every_mistyped_leaf() {
    for (entry, n) in [("scimark.sor", 24), ("exception.throw", 200)] {
        let doc = run_profile(entry, &cfg(n)).unwrap().doc;
        validate(&doc).unwrap_or_else(|p| panic!("{entry}: {p:#?}"));
        let mut all = Vec::new();
        locations(&doc, &mut Vec::new(), &mut all);
        let mut checked = 0;
        for steps in &all {
            let (holder, key) = reported_as(steps);
            let mut broken = Vec::new();
            if let Some(Step::Key(k)) = steps.last() {
                let mut d = doc.clone();
                if let Json::Obj(fields) = at_mut(&mut d, &steps[..steps.len() - 1]) {
                    fields.retain(|(f, _)| f != k);
                }
                broken.push(("deleted", d));
            }
            if !matches!(at_mut(&mut doc.clone(), steps), Json::Obj(_) | Json::Arr(_)) {
                let mut d = doc.clone();
                let leaf = at_mut(&mut d, steps);
                *leaf = other_kind(leaf);
                broken.push(("retyped", d));
            }
            for (how, d) in broken {
                let problems = validate(&d).err().unwrap_or_default();
                assert!(
                    problems.iter().any(|p| p.contains(&holder) && names_key(p, &key)),
                    "{entry}: {how} {holder} / {key} not reported: {problems:#?}"
                );
                checked += 1;
            }
        }
        assert!(checked > 100, "{entry}: only {checked} mutations");
    }
}
