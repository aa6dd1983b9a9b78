//! The `hpcnet-report bench` artifact: a schema'd JSON dump of the full
//! measurement protocol.
//!
//! For every `(entry, profile)` cell over the covered groups this records
//! the complete per-iteration wall-time series, its steady-state
//! classification, the bootstrap confidence interval, and a
//! [`hpcnet_core::CountersSnapshot`] of the VM that ran the cell (one
//! fresh VM per cell, so JIT counters are attributable to a single
//! kernel's compilation). The document schema is specified in
//! docs/MEASUREMENT.md and enforced by [`validate`]; `hpcnet-report bench`
//! re-parses and re-validates what it wrote before declaring success, and
//! `hpcnet-report bench --check FILE` validates an existing artifact
//! (the CI smoke job does both).

use crate::graphs::Config;
use crate::json::Json;
use crate::measure::{
    time_entry, MeasureError, Measurement, MAX_SAMPLES, MIN_SAMPLES, TARGET_SAMPLES,
};
use crate::report::Table;
use crate::stats::Classification;
use hpcnet_core::json::{environment, Check};
use hpcnet_core::{
    lookup_group, run_entry, vm_for, BenchGroup, Entry, ObserveLevel, ResetStats, Unit, Vm,
    VmProfile,
};
use std::sync::Arc;

/// Document format version (bump on breaking schema changes).
/// 1.1: per-profile `counters` became invocation deltas (static init
/// excluded) and every measurement carries an `attribution` object from
/// a single observed run (docs/OBSERVABILITY.md).
/// 1.2: `counters` splits eliminated bounds checks by mechanism
/// (`bce_elided_idiom`/`bce_elided_range`/`bce_elided_versioned`, plus
/// `loops_versioned`), and `attribution` carries the matching dynamic
/// split of elided accesses actually executed.
pub const SCHEMA_VERSION: f64 = 1.2;

/// Benchmark groups covered by the default `bench` artifact: the loop
/// suite (the cheapest micro group, exercises the loop-aware JIT tier)
/// and the SciMark kernels (the paper's headline numbers).
pub const BENCH_GROUPS: &[&str] = &["loop", "scimark"];

/// A completed bench sweep: the JSON document plus per-group summary
/// tables (rate `±CI%` and classification markers as cell notes).
pub struct BenchRun {
    pub doc: Json,
    pub tables: Vec<Table>,
}

fn unit_str(u: Unit) -> &'static str {
    match u {
        Unit::OpsPerSec => "ops/sec",
        Unit::CallsPerSec => "calls/sec",
        Unit::MFlops => "mflops",
        Unit::EventsPerSec => "events/sec",
    }
}

fn counters_json(c: hpcnet_core::CountersSnapshot) -> Json {
    Json::obj(vec![
        ("jit_compiles", Json::num(c.jit_compiles as f64)),
        ("loops_found", Json::num(c.loops_found as f64)),
        (
            "bounds_checks_eliminated",
            Json::num(c.bounds_checks_eliminated as f64),
        ),
        ("licm_hoisted", Json::num(c.licm_hoisted as f64)),
        ("bce_elided_idiom", Json::num(c.bce_elided_idiom as f64)),
        ("bce_elided_range", Json::num(c.bce_elided_range as f64)),
        ("bce_elided_versioned", Json::num(c.bce_elided_versioned as f64)),
        ("loops_versioned", Json::num(c.loops_versioned as f64)),
        ("calls", Json::num(c.calls as f64)),
        ("throws", Json::num(c.throws as f64)),
    ])
}

/// One extra *observed* invocation of the cell's entry on a fresh VM at
/// [`ObserveLevel::Counters`]: where the timed run's opcodes went. The
/// observed VM is separate from the timed one, so observation can never
/// perturb the recorded rates; counts are deterministic per (entry, n,
/// profile).
fn attribution_json(group: &BenchGroup, e: &Entry, p: VmProfile, n: i32) -> Json {
    let vm = vm_for(group, p.with_observe(ObserveLevel::Counters));
    run_entry(&vm, e, n).expect("attribution re-run of a cell that timed successfully");
    let r = vm.observe_report().expect("observability is on");
    let mut hot: Vec<_> = r.methods.iter().filter(|m| m.invocations > 0).collect();
    hot.sort_by(|a, b| b.ops_excl.cmp(&a.ops_excl).then(a.method.0.cmp(&b.method.0)));
    let hot_methods = hot
        .iter()
        .take(3)
        .map(|m| Json::Arr(vec![Json::Str(m.name.clone()), Json::num(m.ops_excl as f64)]))
        .collect();
    Json::obj(vec![
        ("ops", Json::num(r.total_ops as f64)),
        ("allocs", Json::num(r.total_allocs as f64)),
        (
            "bounds_checks_executed",
            Json::num(r.total_of(|m| m.bounds_checks_executed) as f64),
        ),
        (
            "bounds_checks_elided",
            Json::num(r.total_of(|m| m.bounds_checks_elided) as f64),
        ),
        (
            "bounds_checks_elided_idiom",
            Json::num(r.total_of(|m| m.bounds_checks_elided_idiom) as f64),
        ),
        (
            "bounds_checks_elided_range",
            Json::num(r.total_of(|m| m.bounds_checks_elided_range) as f64),
        ),
        (
            "bounds_checks_elided_versioned",
            Json::num(r.total_of(|m| m.bounds_checks_elided_versioned) as f64),
        ),
        ("hot_methods", Json::Arr(hot_methods)),
    ])
}

/// Warm replays per cell after the timed series: enough to prove the
/// cell stays warm without extending the sweep measurably.
const REUSE_RUNS: u32 = 3;

/// Warm-cell reuse evidence: after the timed series the cell's VM holds
/// fully compiled code. Snapshot it, replay the entry [`REUSE_RUNS`]
/// times with a dirty-tracking [`Vm::reset_to`] between runs, and require
/// that the replays perform **zero** further JIT compiles (the warm cell
/// is reused, never recompiled) and — for deterministic entries — return
/// the timed run's exact checksum. The aggregated reset stats go into the
/// artifact so the reuse is auditable after the fact.
fn reset_reuse_json(vm: &Arc<Vm>, e: &Entry, n: i32, timed_checksum: f64) -> Json {
    let snap = vm.snapshot();
    let jit_before = vm.counters.snapshot().jit_compiles;
    let strict = !crate::measure::NONDETERMINISTIC_BY_DESIGN.contains(&e.id);
    let mut stats = ResetStats::default();
    for _ in 0..REUSE_RUNS {
        let c = run_entry(vm, e, n).expect("warm replay of a cell that timed successfully");
        if strict {
            assert_eq!(
                c.to_bits(),
                timed_checksum.to_bits(),
                "{}: warm replay diverged from the timed run ({c} vs {timed_checksum})",
                e.id
            );
        }
        let r = vm.reset_to(&snap).expect("snapshot and VM are paired by construction");
        stats.merge(&r);
    }
    let jit_post = vm.counters.snapshot().jit_compiles - jit_before;
    assert_eq!(
        jit_post, 0,
        "{}: cell was not warm — {jit_post} JIT compiles during post-warmup replays",
        e.id
    );
    Json::obj(vec![
        ("replays", Json::num(REUSE_RUNS as f64)),
        ("jit_compiles_post_warmup", Json::num(jit_post as f64)),
        ("objects_tracked", Json::num(stats.objects_tracked as f64)),
        ("objects_restored", Json::num(stats.objects_restored as f64)),
        ("statics_restored", Json::num(stats.statics_restored as f64)),
    ])
}

fn measurement_json(
    profile: &str,
    m: &Measurement,
    counters: Json,
    attribution: Json,
    reset_reuse: Json,
) -> Json {
    let iter_secs: Vec<Json> = m.series.iter().map(|s| Json::num(s.secs)).collect();
    let iter_batch: Vec<Json> = m.series.iter().map(|s| Json::num(s.batch as f64)).collect();
    Json::obj(vec![
        ("profile", Json::Str(profile.to_string())),
        ("rate", Json::num(m.rate)),
        (
            "ci",
            Json::Arr(vec![Json::num(m.rate_ci.0), Json::num(m.rate_ci.1)]),
        ),
        (
            "classification",
            Json::Str(m.stats.classification.as_str().to_string()),
        ),
        ("steady_start", Json::num(m.stats.steady_start as f64)),
        ("outliers", Json::num(m.stats.outliers as f64)),
        ("runs", Json::num(m.runs as f64)),
        ("secs", Json::num(m.secs)),
        ("checksum", Json::num(m.checksum)),
        ("iter_secs", Json::Arr(iter_secs)),
        ("iter_batch", Json::Arr(iter_batch)),
        ("counters", counters),
        ("attribution", attribution),
        ("reset_reuse", reset_reuse),
    ])
}

/// The note rendered next to a table cell: CI half-width percent plus the
/// classification marker (nothing for the boring flat case).
pub fn cell_note(m: &Measurement) -> String {
    let mut note = format!("±{:.0}%", m.ci_half_width_pct());
    let marker = m.stats.classification.marker();
    if !marker.is_empty() {
        note.push(' ');
        note.push_str(marker);
    }
    note
}

/// Run the default bench sweep ([`BENCH_GROUPS`] × the bench lineup: the
/// CLI profiles plus the CLR knobs on the direct-threaded tier).
pub fn run_bench(cfg: &Config) -> Result<BenchRun, MeasureError> {
    run_bench_groups(cfg, BENCH_GROUPS)
}

/// Run the bench sweep over an explicit group list.
pub fn run_bench_groups(cfg: &Config, group_ids: &[&str]) -> Result<BenchRun, MeasureError> {
    let profiles = VmProfile::bench_lineup();
    let mut group_docs = Vec::new();
    let mut tables = Vec::new();
    for gid in group_ids {
        let g = lookup_group(gid).unwrap_or_else(|e| panic!("{e}"));
        let mut table = Table::new(&format!("bench: {gid}"), "work units/sec");
        for p in &profiles {
            table.add_column(p.name);
        }
        let mut entry_docs = Vec::new();
        for e in g.entries.iter().filter(|e| !e.threaded) {
            let n = cfg.n_for(e);
            let mut profile_docs = Vec::new();
            let mut cells = Vec::new();
            let mut notes = Vec::new();
            for p in &profiles {
                // Fresh VM per cell; the snapshot delta attributes the
                // counters to this kernel alone, static init excluded.
                let vm = vm_for(&g, *p);
                let before = vm.counters.snapshot();
                let m = time_entry(&vm, e, n, cfg.min_time)?;
                let counters = counters_json(vm.counters.snapshot().delta(&before));
                let attribution = attribution_json(&g, e, *p, n);
                let reuse = reset_reuse_json(&vm, e, n, m.checksum);
                cells.push(m.rate);
                notes.push(cell_note(&m));
                profile_docs.push(measurement_json(p.name, &m, counters, attribution, reuse));
            }
            table.add_row_noted(e.id, cells, notes);
            entry_docs.push(Json::obj(vec![
                ("id", Json::Str(e.id.to_string())),
                ("entry", Json::Str(e.entry.to_string())),
                ("n", Json::num(n as f64)),
                ("unit", Json::Str(unit_str(e.unit).to_string())),
                ("profiles", Json::Arr(profile_docs)),
            ]));
        }
        group_docs.push(Json::obj(vec![
            ("group", Json::Str(gid.to_string())),
            ("entries", Json::Arr(entry_docs)),
        ]));
        tables.push(table);
    }
    let doc = Json::obj(vec![
        ("schema_version", Json::num(SCHEMA_VERSION)),
        ("suite", Json::Str("grande".to_string())),
        ("environment", environment()),
        (
            "config",
            Json::obj(vec![
                ("min_time_ms", Json::num(cfg.min_time.as_millis() as f64)),
                ("large", Json::Bool(cfg.large)),
                ("min_samples", Json::num(MIN_SAMPLES as f64)),
                ("target_samples", Json::num(TARGET_SAMPLES as f64)),
                ("max_samples", Json::num(MAX_SAMPLES as f64)),
            ]),
        ),
        ("groups", Json::Arr(group_docs)),
    ]);
    Ok(BenchRun { doc, tables })
}

// ---- schema validation ----

/// Validate a parsed bench document against the schema in
/// docs/MEASUREMENT.md. Returns every problem found, not just the first.
pub fn validate(doc: &Json) -> Result<(), Vec<String>> {
    let mut c = Check::new();
    c.schema_version(doc, &[SCHEMA_VERSION]);
    c.str_field(doc, "$", "suite");

    if let Some(env) = doc.get("environment") {
        c.str_field(env, "$.environment", "os");
        c.str_field(env, "$.environment", "arch");
        c.num(env, "$.environment", "cpus");
        c.str_field(env, "$.environment", "package_version");
        c.bool_field(env, "$.environment", "debug_assertions");
    } else {
        c.fail("$", "missing environment object");
    }

    if let Some(cfg) = doc.get("config") {
        c.num(cfg, "$.config", "min_time_ms");
        c.bool_field(cfg, "$.config", "large");
        c.num(cfg, "$.config", "min_samples");
        c.num(cfg, "$.config", "target_samples");
        c.num(cfg, "$.config", "max_samples");
    } else {
        c.fail("$", "missing config object");
    }

    let groups = c.arr(doc, "$", "groups");
    if groups.is_empty() {
        c.fail("$.groups", "no benchmark groups recorded");
    }
    for (gi, g) in groups.iter().enumerate() {
        let gpath = format!("$.groups[{gi}]");
        c.str_field(g, &gpath, "group");
        let entries = c.arr(g, &gpath, "entries");
        if entries.is_empty() {
            c.fail(&gpath, "group has no entries");
        }
        for (ei, e) in entries.iter().enumerate() {
            let epath = format!("{gpath}.entries[{ei}]");
            c.str_field(e, &epath, "id");
            c.str_field(e, &epath, "entry");
            c.num(e, &epath, "n");
            match c.str_field(e, &epath, "unit").as_deref() {
                None => {}
                Some("ops/sec" | "calls/sec" | "mflops" | "events/sec") => {}
                Some(u) => c.fail(&epath, &format!("unknown unit '{u}'")),
            }
            let profiles = c.arr(e, &epath, "profiles");
            if profiles.len() < 2 {
                c.fail(&epath, "fewer than 2 profiles measured");
            }
            for (pi, p) in profiles.iter().enumerate() {
                validate_measurement(&mut c, p, &format!("{epath}.profiles[{pi}]"));
            }
        }
    }
    c.finish()
}

fn validate_measurement(c: &mut Check, p: &Json, path: &str) {
    c.str_field(p, path, "profile");
    let rate = c.num(p, path, "rate");
    if let Some(r) = rate {
        if r <= 0.0 {
            c.fail(path, &format!("non-positive rate {r}"));
        }
    }
    match p.get("ci").and_then(Json::as_arr) {
        Some([lo, hi]) => match (lo.as_f64(), hi.as_f64(), rate) {
            (Some(lo), Some(hi), Some(rate)) => {
                if !(lo <= rate && rate <= hi) {
                    c.fail(path, &format!("ci [{lo}, {hi}] does not bracket rate {rate}"));
                }
            }
            _ => c.fail(path, "ci endpoints must be numbers"),
        },
        _ => c.fail(path, "ci must be a 2-element array"),
    }
    match c.str_field(p, path, "classification") {
        Some(s) if Classification::from_str(&s).is_none() => {
            c.fail(path, &format!("unknown classification '{s}'"))
        }
        _ => {}
    }
    c.num(p, path, "steady_start");
    c.num(p, path, "outliers");
    c.num(p, path, "runs");
    c.num(p, path, "secs");
    c.num(p, path, "checksum");
    let secs_len = c.arr(p, path, "iter_secs").len();
    let batch_len = c.arr(p, path, "iter_batch").len();
    if secs_len == 0 {
        c.fail(path, "empty iter_secs series");
    }
    if secs_len != batch_len {
        c.fail(
            path,
            &format!("iter_secs ({secs_len}) and iter_batch ({batch_len}) lengths differ"),
        );
    }
    if let Some(counters) = p.get("counters") {
        for key in [
            "jit_compiles",
            "loops_found",
            "bounds_checks_eliminated",
            "licm_hoisted",
            "bce_elided_idiom",
            "bce_elided_range",
            "bce_elided_versioned",
            "loops_versioned",
            "calls",
            "throws",
        ] {
            c.num(counters, &format!("{path}.counters"), key);
        }
        // The mechanism split is a partition of the total, not advisory.
        let cpath = format!("{path}.counters");
        let get = |c: &mut Check, key: &str| c.num(counters, &cpath, key);
        if let (Some(total), Some(idiom), Some(range), Some(ver)) = (
            get(c, "bounds_checks_eliminated"),
            get(c, "bce_elided_idiom"),
            get(c, "bce_elided_range"),
            get(c, "bce_elided_versioned"),
        ) {
            if idiom + range + ver != total {
                c.fail(
                    &cpath,
                    &format!(
                        "mechanism split {idiom}+{range}+{ver} != bounds_checks_eliminated {total}"
                    ),
                );
            }
        }
    } else {
        c.fail(path, "missing counters object");
    }
    if let Some(attr) = p.get("attribution") {
        let apath = format!("{path}.attribution");
        for key in [
            "ops",
            "allocs",
            "bounds_checks_executed",
            "bounds_checks_elided",
            "bounds_checks_elided_idiom",
            "bounds_checks_elided_range",
            "bounds_checks_elided_versioned",
        ] {
            c.num(attr, &apath, key);
        }
        for (hi, h) in c.arr(attr, &apath, "hot_methods").to_vec().iter().enumerate() {
            match h.as_arr() {
                Some([name, ops]) if name.as_str().is_some() && ops.as_f64().is_some() => {}
                _ => c.fail(&apath, &format!("hot_methods[{hi}] must be [name, ops_excl]")),
            }
        }
    } else {
        c.fail(path, "missing attribution object");
    }
    if let Some(reuse) = p.get("reset_reuse") {
        let rpath = format!("{path}.reset_reuse");
        for key in [
            "replays",
            "jit_compiles_post_warmup",
            "objects_tracked",
            "objects_restored",
            "statics_restored",
        ] {
            c.num(reuse, &rpath, key);
        }
        match reuse.get("jit_compiles_post_warmup").and_then(Json::as_f64) {
            Some(0.0) | None => {}
            Some(n) => c.fail(&rpath, &format!("cell recompiled after warmup ({n} JIT compiles)")),
        }
        match reuse.get("replays").and_then(Json::as_f64) {
            Some(n) if n < 1.0 => c.fail(&rpath, "fewer than 1 warm replay recorded"),
            _ => {}
        }
    } else {
        c.fail(path, "missing reset_reuse object");
    }
}

/// Parse and validate a bench document from its JSON text.
pub fn check_document(text: &str) -> Result<(), Vec<String>> {
    let doc = Json::parse(text).map_err(|e| vec![e.to_string()])?;
    validate(&doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn quick() -> Config {
        Config {
            min_time: Duration::from_millis(5),
            ..Config::default()
        }
    }

    /// One shared sweep for all document tests: the dominant cost is the
    /// interpreter profile's probe invocations, so generate once.
    fn shared_run() -> &'static BenchRun {
        static RUN: std::sync::OnceLock<BenchRun> = std::sync::OnceLock::new();
        RUN.get_or_init(|| run_bench_groups(&quick(), &["loop"]).unwrap())
    }

    #[test]
    fn loop_bench_document_is_schema_valid_and_roundtrips() {
        let run = shared_run();
        validate(&run.doc).unwrap_or_else(|p| panic!("invalid document: {p:#?}"));
        // Text round-trip: render → parse → validate → identical render.
        let text = run.doc.render();
        check_document(&text).unwrap();
        assert_eq!(Json::parse(&text).unwrap().render(), text);
        // The summary table carries a ±CI note on every cell.
        assert_eq!(run.tables.len(), 1);
        assert!(run.tables[0].render().contains('±'), "{}", run.tables[0].render());
    }

    #[test]
    fn bench_document_records_full_series_and_counters() {
        let run = shared_run();
        let groups = run.doc.get("groups").unwrap().as_arr().unwrap();
        let entries = groups[0].get("entries").unwrap().as_arr().unwrap();
        assert_eq!(entries.len(), 3, "loop group has 3 entries");
        for e in entries {
            let profiles = e.get("profiles").unwrap().as_arr().unwrap();
            assert_eq!(profiles.len(), 4, "bench lineup");
            for p in profiles {
                let secs = p.get("iter_secs").unwrap().as_arr().unwrap();
                // At least the two unbatched probes (slow debug cells may
                // stop at the wall-time hard cap before MIN_SAMPLES).
                assert!(secs.len() >= 2);
                let counter = |key: &str| {
                    p.get("counters").unwrap().get(key).unwrap().as_f64().unwrap()
                };
                // Managed calls happen on every tier; JIT compiles only
                // on register-tier profiles (SSCLI Rotor interprets).
                assert!(counter("calls") > 0.0, "no calls recorded");
                if p.get("profile").unwrap().as_str() == Some("C# .NET 1.1") {
                    assert!(counter("jit_compiles") > 0.0, "CLR did not JIT");
                }
                // Every cell carries an attribution summary from one
                // observed invocation: opcodes ran, a hot method exists.
                let attr = p.get("attribution").unwrap();
                assert!(attr.get("ops").unwrap().as_f64().unwrap() > 0.0);
                assert!(!attr.get("hot_methods").unwrap().as_arr().unwrap().is_empty());
            }
        }
    }

    #[test]
    fn validator_rejects_broken_documents() {
        let run = shared_run();
        // Knock out required pieces one at a time.
        let mut no_version = run.doc.clone();
        if let Json::Obj(fields) = &mut no_version {
            fields.retain(|(k, _)| k != "schema_version");
        }
        assert!(validate(&no_version).is_err());

        let mut bad_class = run.doc.clone();
        fn first_profile(doc: &mut Json) -> &mut Json {
            let groups = match doc {
                Json::Obj(f) => &mut f.iter_mut().find(|(k, _)| k == "groups").unwrap().1,
                _ => unreachable!(),
            };
            let entry = match groups {
                Json::Arr(gs) => match &mut gs[0] {
                    Json::Obj(f) => match &mut f.iter_mut().find(|(k, _)| k == "entries").unwrap().1
                    {
                        Json::Arr(es) => &mut es[0],
                        _ => unreachable!(),
                    },
                    _ => unreachable!(),
                },
                _ => unreachable!(),
            };
            match entry {
                Json::Obj(f) => match &mut f.iter_mut().find(|(k, _)| k == "profiles").unwrap().1 {
                    Json::Arr(ps) => &mut ps[0],
                    _ => unreachable!(),
                },
                _ => unreachable!(),
            }
        }
        if let Json::Obj(f) = first_profile(&mut bad_class) {
            f.iter_mut()
                .find(|(k, _)| k == "classification")
                .unwrap()
                .1 = Json::Str("sideways".into());
        }
        let problems = validate(&bad_class).unwrap_err();
        assert!(
            problems.iter().any(|p| p.contains("unknown classification")),
            "{problems:#?}"
        );

        assert!(check_document("{not json").is_err());
    }
}
