//! `BENCH_serve.json`: the service's schema-validated artifact.
//!
//! The document is split along the determinism boundary established in
//! the crate docs:
//!
//! * `jobs` — per-job outcomes, a pure function of the workload. Two runs
//!   of the same workload must render this array byte-identically no
//!   matter how many workers executed it; [`jobs_fingerprint`] extracts
//!   exactly this subtree so CI can compare it across worker counts.
//! * `service` — telemetry that legitimately varies run to run: latency
//!   percentiles, the warm/cold split, cache and pool counters.
//!
//! Like the profile and trace artifacts, the emitter self-checks: the CLI
//! validates the exact bytes it wrote before declaring success, and
//! [`check_document`] lets CI (or a consumer) re-validate any file.

use crate::{JobRecord, ServiceReport};
use hpcnet_core::json::{environment, Check, Json};
use hpcnet_core::Histogram;

pub const SCHEMA_VERSION: f64 = 1.1;

/// Older document versions [`validate`] still accepts (1.0 predates the
/// shared-histogram latency splits, which added `mean`).
pub const ACCEPTED_SCHEMA_VERSIONS: &[f64] = &[1.0, SCHEMA_VERSION];

/// Statuses a job can report; anything else fails validation.
pub const STATUSES: &[&str] = &["ok", "trap", "limit", "compile-error", "internal", "panic"];

fn job_json(r: &JobRecord) -> Json {
    let o = &r.outcome;
    Json::obj(vec![
        ("id", Json::num(o.id as f64)),
        ("program", Json::Str(o.program.clone())),
        ("kind", Json::Str(o.kind.to_string())),
        ("profile", Json::Str(o.profile.clone())),
        ("status", Json::Str(o.status.to_string())),
        ("result", Json::Str(o.result.clone())),
        (
            "console",
            Json::Arr(o.console.iter().map(|l| Json::Str(l.clone())).collect()),
        ),
        ("calls", Json::num(o.calls as f64)),
        ("throws", Json::num(o.throws as f64)),
        (
            "fuel_used",
            o.fuel_used.map(|f| Json::num(f as f64)).unwrap_or(Json::Null),
        ),
    ])
}

/// One latency split rendered from the shared core histogram — replaces
/// the old sort-the-vector-per-percentile helper. Quantiles are log2
/// bucket estimates (≤2× relative error); `max` is exact.
fn latency_split(h: &Histogram) -> Json {
    Json::obj(vec![
        ("count", Json::num(h.count() as f64)),
        ("p50", Json::num(h.quantile(0.50) as f64)),
        ("p90", Json::num(h.quantile(0.90) as f64)),
        ("p99", Json::num(h.quantile(0.99) as f64)),
        ("max", Json::num(h.max() as f64)),
        ("mean", Json::num(h.mean() as f64)),
    ])
}

/// Render a completed run as the `BENCH_serve.json` document.
pub fn document(report: &ServiceReport) -> Json {
    let jobs: Vec<Json> = report.records.iter().map(job_json).collect();
    let minics = report.records.iter().filter(|r| r.outcome.kind == "minics").count();
    let cil = report.records.len() - minics;

    // One pass over the records builds all three splits. "Cold" from the
    // tenant's seat: the job paid for a compile or a VM warm-up; "warm"
    // jobs rode entirely on cached state.
    let mut all = Histogram::new();
    let mut warm = Histogram::new();
    let mut cold = Histogram::new();
    for r in &report.records {
        all.record(r.latency_ns);
        if r.cold_compile || r.cold_vm {
            cold.record(r.latency_ns);
        } else {
            warm.record(r.latency_ns);
        }
    }

    let mut agg = hpcnet_vm::ResetStats::default();
    for r in &report.records {
        agg.merge(&r.reset);
    }
    let verified_jobs = report.records.iter().filter(|r| r.did_reset).count();

    Json::obj(vec![
        ("schema_version", Json::num(SCHEMA_VERSION)),
        ("suite", Json::Str("serve".into())),
        ("workers", Json::num(report.workers as f64)),
        ("environment", environment()),
        (
            "workload",
            Json::obj(vec![
                ("jobs", Json::num(report.records.len() as f64)),
                ("distinct_contents", Json::num(report.cache_misses as f64)),
                ("minics_jobs", Json::num(minics as f64)),
                ("cil_jobs", Json::num(cil as f64)),
            ]),
        ),
        ("jobs", Json::Arr(jobs)),
        (
            "service",
            Json::obj(vec![
                (
                    "cache",
                    Json::obj(vec![
                        ("hits", Json::num(report.cache_hits as f64)),
                        ("misses", Json::num(report.cache_misses as f64)),
                        ("hit_rate", Json::num(report.hit_rate())),
                    ]),
                ),
                (
                    "front_half",
                    Json::obj(vec![
                        ("hits", Json::num(report.front_hits as f64)),
                        ("misses", Json::num(report.front_misses as f64)),
                    ]),
                ),
                (
                    "vm_pool",
                    Json::obj(vec![
                        ("warmed", Json::num(report.warmed_vms as f64)),
                        ("discarded", Json::num(report.discarded_vms as f64)),
                        ("resets", Json::num(report.resets() as f64)),
                        ("objects_restored", Json::num(agg.objects_restored as f64)),
                        ("statics_restored", Json::num(agg.statics_restored as f64)),
                    ]),
                ),
                (
                    "isolation",
                    Json::obj(vec![
                        ("verified_jobs", Json::num(verified_jobs as f64)),
                        ("leaks", Json::num(report.total_leaks() as f64)),
                    ]),
                ),
                (
                    "latency_ns",
                    Json::obj(vec![
                        ("all", latency_split(&all)),
                        ("warm", latency_split(&warm)),
                        ("cold", latency_split(&cold)),
                    ]),
                ),
            ]),
        ),
    ])
}

/// The deterministic subtree, rendered: byte-compare this across worker
/// counts to prove scheduling independence.
pub fn jobs_fingerprint(doc: &Json) -> Option<String> {
    doc.get("jobs").map(Json::render)
}

fn validate_split(c: &mut Check, v: &Json, path: &str) {
    for key in ["count", "p50", "p90", "p99", "max"] {
        c.num(v, path, key);
    }
}

/// Validate a parsed `BENCH_serve.json`. Returns every problem found.
pub fn validate(doc: &Json) -> Result<(), Vec<String>> {
    let mut c = Check::new();
    c.schema_version(doc, ACCEPTED_SCHEMA_VERSIONS);
    match doc.get("suite").and_then(Json::as_str) {
        Some("serve") => {}
        Some(other) => c.fail("$", &format!("suite must be 'serve', got '{other}'")),
        None => c.fail("$", "missing string field 'suite'"),
    }
    c.num(doc, "$", "workers");
    let env = c.obj(doc, "$", "environment");
    c.str_field(env, "$.environment", "os");
    c.str_field(env, "$.environment", "arch");
    c.num(env, "$.environment", "cpus");

    let wl = c.obj(doc, "$", "workload");
    for key in ["jobs", "distinct_contents", "minics_jobs", "cil_jobs"] {
        c.num(wl, "$.workload", key);
    }

    match doc.get("jobs").and_then(Json::as_arr) {
        None => c.fail("$", "missing or non-array field 'jobs'"),
        Some([]) => c.fail("$.jobs", "must not be empty"),
        Some(jobs) => {
            for (i, j) in jobs.iter().enumerate() {
                let path = format!("$.jobs[{i}]");
                c.num(j, &path, "id");
                c.str_field(j, &path, "program");
                c.str_field(j, &path, "kind");
                c.str_field(j, &path, "profile");
                if let Some(s) = c.str_field(j, &path, "status") {
                    if !STATUSES.contains(&s.as_str()) {
                        c.fail(&path, &format!("unknown status '{s}'"));
                    }
                }
                c.str_field(j, &path, "result");
                if j.get("console").and_then(Json::as_arr).is_none() {
                    c.fail(&path, "missing or non-array field 'console'");
                }
                c.num(j, &path, "calls");
                c.num(j, &path, "throws");
                match j.get("fuel_used") {
                    Some(Json::Null) | Some(Json::Num(_)) => {}
                    _ => c.fail(&path, "fuel_used must be null or a number"),
                }
            }
        }
    }

    let service = c.obj(doc, "$", "service");
    let cache = c.obj(service, "$.service", "cache");
    c.num(cache, "$.service.cache", "hits");
    c.num(cache, "$.service.cache", "misses");
    if let Some(rate) = c.num(cache, "$.service.cache", "hit_rate") {
        if !(0.0..=1.0).contains(&rate) {
            c.fail("$.service.cache", &format!("hit_rate {rate} outside [0, 1]"));
        }
    }
    let front = c.obj(service, "$.service", "front_half");
    c.num(front, "$.service.front_half", "hits");
    c.num(front, "$.service.front_half", "misses");
    let pool = c.obj(service, "$.service", "vm_pool");
    for key in ["warmed", "discarded", "resets", "objects_restored", "statics_restored"] {
        c.num(pool, "$.service.vm_pool", key);
    }
    let iso = c.obj(service, "$.service", "isolation");
    c.num(iso, "$.service.isolation", "verified_jobs");
    c.num(iso, "$.service.isolation", "leaks");
    let lat = c.obj(service, "$.service", "latency_ns");
    for key in ["all", "warm", "cold"] {
        let split = c.obj(lat, "$.service.latency_ns", key);
        validate_split(&mut c, split, &format!("$.service.latency_ns.{key}"));
    }

    c.finish()
}

/// Parse + validate document text (the CLI self-check and CI entry).
pub fn check_document(text: &str) -> Result<(), Vec<String>> {
    let doc = Json::parse(text).map_err(|e| vec![e.to_string()])?;
    validate(&doc)
}

/// Human-readable run summary for the CLI.
pub fn summary(report: &ServiceReport) -> String {
    let mut all = Histogram::new();
    for r in &report.records {
        all.record(r.latency_ns);
    }
    let cold = report
        .records
        .iter()
        .filter(|r| r.cold_compile || r.cold_vm)
        .count();
    let by_status = |s: &str| report.records.iter().filter(|r| r.outcome.status == s).count();
    let mut out = String::new();
    out.push_str(&format!(
        "serve: {} jobs on {} workers — {} ok, {} trap, {} limit, {} other\n",
        report.records.len(),
        report.workers,
        by_status("ok"),
        by_status("trap"),
        by_status("limit"),
        report.records.len() - by_status("ok") - by_status("trap") - by_status("limit"),
    ));
    out.push_str(&format!(
        "cache: {} hits / {} misses ({:.1}% hit rate), front-half {}/{} shared\n",
        report.cache_hits,
        report.cache_misses,
        report.hit_rate() * 100.0,
        report.front_hits,
        report.front_hits + report.front_misses,
    ));
    out.push_str(&format!(
        "pool: {} VMs warmed, {} discarded, {} resets, {} jobs verified, {} leaks\n",
        report.warmed_vms,
        report.discarded_vms,
        report.resets(),
        report.records.iter().filter(|r| r.did_reset).count(),
        report.total_leaks(),
    ));
    out.push_str(&format!(
        "latency: p50 {}µs p99 {}µs max {}µs ({} cold / {} warm jobs)\n",
        all.quantile(0.50) / 1_000,
        all.quantile(0.99) / 1_000,
        all.max() / 1_000,
        cold,
        report.records.len() - cold,
    ));
    out
}
