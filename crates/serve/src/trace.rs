//! `TRACE_serve.json`: the span-trace artifact for a service run.
//!
//! Built from the per-job [`Span`] trees recorded when
//! [`crate::ServeConfig::trace`] is on, the document keeps the crate's
//! determinism boundary:
//!
//! * `structural` — each job's span tree stripped to ids, names, and
//!   args ([`Span::structural`]), in submission order. A pure function
//!   of the workload: [`structural_fingerprint`] extracts this subtree
//!   so CI can byte-compare it across worker counts.
//! * `timing` — per-phase duration histograms (shared
//!   [`Histogram`]), jobs-per-lane, and the optional VM phase probe.
//!   Wall-clock telemetry; never byte-compared.
//! * `metrics` — the service-level [`MetricsRegistry`] snapshot
//!   ([`service_metrics`]), rendered canonically.
//!
//! [`chrome_trace`] exports the same spans as Chrome trace-event JSON
//! (one `tid` lane per worker) for `chrome://tracing` / Perfetto, and
//! [`check_document`] re-validates an emitted artifact, mirroring
//! `BENCH_serve.json`'s self-checking emitter.

use crate::{build_artifact, JobPayload, ServiceReport};
use hpcnet_core::json::{environment, Check, Json};
use hpcnet_core::trace::Span;
use hpcnet_core::{Histogram, MetricsRegistry, MetricsSnapshot};
use hpcnet_minics::STARTUP_INIT;
use hpcnet_runtime::Value;
use hpcnet_vm::{Vm, VmError, VmProfile};

pub const SCHEMA_VERSION: f64 = 1.0;

/// The job span phase vocabulary, in lifecycle order. Child spans of a
/// `job` root must come from this list; the validator enforces it.
pub const JOB_PHASES: &[&str] = &["cache-lookup", "acquire-vm", "execute", "reset", "verify"];

/// The service-level metrics registry: status counts, cache/pool
/// counters, and the latency histogram — the same facts the text
/// summary prints, as one canonical snapshot shared with
/// `hpcnet-report`.
pub fn service_metrics(report: &ServiceReport) -> MetricsSnapshot {
    let mut m = MetricsRegistry::new();
    for r in &report.records {
        m.inc(&format!("serve.jobs.{}", r.outcome.status), 1);
        m.record("serve.latency_ns", r.latency_ns);
        if r.did_reset {
            m.inc("serve.pool.resets", 1);
        }
    }
    m.inc("serve.jobs", report.records.len() as u64);
    m.inc("serve.cache.hits", report.cache_hits);
    m.inc("serve.cache.misses", report.cache_misses);
    m.inc("serve.front.hits", report.front_hits);
    m.inc("serve.front.misses", report.front_misses);
    m.inc("serve.pool.warmed", report.warmed_vms);
    m.inc("serve.pool.discarded", report.discarded_vms);
    m.inc("serve.isolation.leaks", report.total_leaks() as u64);
    m.set_gauge("serve.cache.hit_rate", report.hit_rate());
    m.snapshot()
}

/// Render a traced run as the `TRACE_serve.json` document. `vm_phases`
/// is the timing-section slot for [`vm_phase_probe`] output; pass
/// `Json::Null` to skip the probe.
pub fn document(report: &ServiceReport, vm_phases: Json) -> Json {
    let structural: Vec<Json> = report
        .records
        .iter()
        .filter_map(|r| r.spans.as_ref())
        .map(Span::structural)
        .collect();

    // Per-phase duration histograms across every traced job, plus the
    // whole-job distribution.
    let mut job_hist = Histogram::new();
    let mut phase_hist: Vec<(&str, Histogram)> =
        JOB_PHASES.iter().map(|p| (*p, Histogram::new())).collect();
    let mut per_lane = vec![0u64; report.workers.max(1)];
    for r in &report.records {
        if let Some(slot) = per_lane.get_mut(r.lane) {
            *slot += 1;
        }
        if let Some(root) = &r.spans {
            job_hist.record(root.dur_ns);
            for c in &root.children {
                if let Some((_, h)) = phase_hist.iter_mut().find(|(n, _)| *n == c.name) {
                    h.record(c.dur_ns);
                }
            }
        }
    }

    Json::obj(vec![
        ("schema_version", Json::num(SCHEMA_VERSION)),
        ("suite", Json::Str("serve-trace".into())),
        ("workers", Json::num(report.workers as f64)),
        ("environment", environment()),
        (
            "structural",
            Json::obj(vec![
                ("traced_jobs", Json::num(structural.len() as f64)),
                ("jobs", Json::Arr(structural)),
            ]),
        ),
        (
            "timing",
            Json::obj(vec![
                ("job", job_hist.to_json()),
                (
                    "phases",
                    Json::obj(
                        phase_hist.iter().map(|(n, h)| (*n, h.to_json())).collect(),
                    ),
                ),
                (
                    "jobs_per_lane",
                    Json::Arr(per_lane.iter().map(|&n| Json::num(n as f64)).collect()),
                ),
                ("vm_phases", vm_phases),
            ]),
        ),
        ("metrics", service_metrics(report).to_json()),
    ])
}

/// The deterministic subtree, rendered: byte-compare this across worker
/// counts to prove the span structure is scheduling-independent.
pub fn structural_fingerprint(doc: &Json) -> Option<String> {
    doc.get("structural").map(Json::render)
}

/// Export every traced job as Chrome trace-event JSON: one `X` event
/// per span on the worker's `tid` lane, plus `M` metadata naming the
/// lanes. Loadable in `chrome://tracing` or Perfetto.
pub fn chrome_trace(report: &ServiceReport) -> Json {
    let mut events = Vec::new();
    let mut lanes: Vec<usize> = Vec::new();
    for r in &report.records {
        if let Some(root) = &r.spans {
            if !lanes.contains(&r.lane) {
                lanes.push(r.lane);
            }
            root.chrome_events(1, r.lane as u64 + 1, &mut events);
        }
    }
    lanes.sort_unstable();
    let mut all: Vec<Json> = lanes
        .iter()
        .map(|&lane| {
            Json::obj(vec![
                ("name", Json::Str("thread_name".into())),
                ("ph", Json::Str("M".into())),
                ("pid", Json::num(1.0)),
                ("tid", Json::num(lane as f64 + 1.0)),
                (
                    "args",
                    Json::obj(vec![("name", Json::Str(format!("worker-{lane}")))]),
                ),
            ])
        })
        .collect();
    all.extend(events);
    Json::obj(vec![
        ("traceEvents", Json::Arr(all)),
        ("displayTimeUnit", Json::Str("ms".into())),
    ])
}

/// MiniC# workload for [`vm_phase_probe`]: a counted loop that takes a
/// catch on every fifth iteration, so one run exercises JIT lowering,
/// optimization, allocation, and EH unwind dispatch.
const PROBE_SRC: &str = r#"
    class Probe {
        static int Work(int n, int bias) {
            int acc = bias;
            for (int i = 0; i < n; i++) {
                try {
                    if (i - (i / 5) * 5 == 0) { throw new Exception(); }
                    acc += i;
                } catch (Exception e) {
                    acc += 1;
                }
            }
            return acc;
        }
    }
"#;

/// Run a small JIT + exception workload on a fresh VM with the given
/// profile at `ObserveLevel::Trace` and report its per-phase timings.
/// Pure wall-clock telemetry for the timing section: which phases
/// appear depends on the profile's tier (an interpreter-only profile
/// reports no JIT phases).
pub fn vm_phase_probe(profile: VmProfile) -> Json {
    let traced = profile.with_observe(hpcnet_vm::ObserveLevel::Trace);
    let artifact = match build_artifact(&JobPayload::MiniCs(PROBE_SRC.to_string())) {
        Ok(a) => a,
        Err(e) => {
            return Json::obj(vec![
                ("profile", Json::Str(traced.name.to_string())),
                ("status", Json::Str(format!("compile-error:{e}"))),
            ])
        }
    };
    let vm = Vm::new_shared(artifact.module.clone(), traced);
    vm.set_opt_share(artifact.share.clone());
    if vm.module.find_method(STARTUP_INIT).is_some() {
        let _ = vm.invoke_by_name(STARTUP_INIT, vec![]);
    }
    let status = match vm.invoke_by_name("Probe.Work", vec![Value::I4(50), Value::I4(1)]) {
        Ok(_) => "ok".to_string(),
        Err(VmError::Exception(_)) => "trap".to_string(),
        Err(VmError::Limit(m)) => format!("limit:{m}"),
        Err(VmError::Internal(m)) => format!("internal:{m}"),
    };
    Json::obj(vec![
        ("profile", Json::Str(traced.name.to_string())),
        ("observe", Json::Str(vm.observe_level().as_str().to_string())),
        ("status", Json::Str(status)),
        (
            "phases",
            Json::Arr(
                vm.phase_timings()
                    .iter()
                    .map(|t| {
                        Json::obj(vec![
                            ("phase", Json::Str(t.phase.as_str().to_string())),
                            ("count", Json::num(t.count as f64)),
                            ("total_ns", Json::num(t.total_ns as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn validate_hist(c: &mut Check, v: &Json, path: &str) {
    for key in ["count", "sum", "min", "max", "mean", "p50", "p90", "p99"] {
        c.num(v, path, key);
    }
    if v.get("buckets").and_then(Json::as_arr).is_none() {
        c.fail(path, "missing or non-array field 'buckets'");
    }
}

fn validate_span(c: &mut Check, node: &Json, path: &str, depth: usize) {
    c.num(node, path, "id");
    let name = c.str_field(node, path, "name");
    if depth == 0 {
        if name.as_deref() != Some("job") {
            c.fail(path, "root span must be named 'job'");
        }
    } else if let Some(n) = name {
        if !JOB_PHASES.contains(&n.as_str()) {
            c.fail(path, &format!("unknown phase '{n}'"));
        }
    }
    if !matches!(node.get("args"), Some(Json::Obj(_))) {
        c.fail(path, "missing or non-object field 'args'");
    }
    match node.get("children").and_then(Json::as_arr) {
        None => c.fail(path, "missing or non-array field 'children'"),
        Some(kids) => {
            for (i, k) in kids.iter().enumerate() {
                validate_span(c, k, &format!("{path}.children[{i}]"), depth + 1);
            }
        }
    }
}

/// Validate a parsed `TRACE_serve.json`. Returns every problem found.
pub fn validate(doc: &Json) -> Result<(), Vec<String>> {
    let mut c = Check::new();
    c.schema_version(doc, &[SCHEMA_VERSION]);
    match doc.get("suite").and_then(Json::as_str) {
        Some("serve-trace") => {}
        Some(other) => c.fail("$", &format!("suite must be 'serve-trace', got '{other}'")),
        None => c.fail("$", "missing string field 'suite'"),
    }
    c.num(doc, "$", "workers");
    let env = c.obj(doc, "$", "environment");
    c.str_field(env, "$.environment", "os");
    c.str_field(env, "$.environment", "arch");
    c.num(env, "$.environment", "cpus");

    let structural = c.obj(doc, "$", "structural");
    c.num(structural, "$.structural", "traced_jobs");
    match structural.get("jobs").and_then(Json::as_arr) {
        None => c.fail("$.structural", "missing or non-array field 'jobs'"),
        Some([]) => c.fail("$.structural.jobs", "must not be empty"),
        Some(jobs) => {
            for (i, j) in jobs.iter().enumerate() {
                validate_span(&mut c, j, &format!("$.structural.jobs[{i}]"), 0);
            }
        }
    }

    let timing = c.obj(doc, "$", "timing");
    let job_h = c.obj(timing, "$.timing", "job");
    validate_hist(&mut c, job_h, "$.timing.job");
    let phases = c.obj(timing, "$.timing", "phases");
    for p in JOB_PHASES {
        let h = c.obj(phases, "$.timing.phases", p);
        validate_hist(&mut c, h, &format!("$.timing.phases.{p}"));
    }
    if timing.get("jobs_per_lane").and_then(Json::as_arr).is_none() {
        c.fail("$.timing", "missing or non-array field 'jobs_per_lane'");
    }
    match timing.get("vm_phases") {
        Some(Json::Null) | Some(Json::Obj(_)) => {}
        _ => c.fail("$.timing", "vm_phases must be null or an object"),
    }

    if !matches!(doc.get("metrics"), Some(Json::Obj(_))) {
        c.fail("$", "missing or non-object field 'metrics'");
    }

    c.finish()
}

/// Parse + validate document text (the CLI self-check and CI entry).
pub fn check_document(text: &str) -> Result<(), Vec<String>> {
    let doc = Json::parse(text).map_err(|e| vec![e.to_string()])?;
    validate(&doc)
}
