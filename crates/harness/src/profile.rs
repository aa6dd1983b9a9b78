//! The `hpcnet-report profile` artifact: per-method attribution for one
//! benchmark entry across the CLI lineup.
//!
//! Where the timing reports answer *how fast* each engine runs an entry,
//! `profile` answers *why*: every profile executes the entry **once** at a
//! fixed problem size with the VM's attribution profiler at full level
//! ([`hpcnet_core::ObserveLevel::Trace`]), and the per-method opcode,
//! bounds-check, allocation and exception-dispatch counts are written to
//! a schema'd `PROFILE_<entry>.json` together with each compiled method's
//! compile record (per-pass outcome, loop-pass rejection reasons).
//!
//! The document carries **counts only — no wall times** — so two
//! consecutive runs on the same build produce byte-identical files; the
//! integration tests assert this. Per-profile deltas against the
//! reference engine (the first of the lineup, CLR 1.1) are annotated with
//! the docs/OPTIMIZATIONS.md mechanism knobs that explain them:
//! bounds-checks-executed maps to mechanism 4 (`bce`), managed
//! calls map to the `inline` knob, and interpreter-tier rows are marked
//! as executing every check with no JIT passes at all.
//!
//! Each part of the document is built from plain data by one function,
//! and the schema is what those builders give for zeroed inputs with one
//! element in every array (`skeleton`): [`validate`] holds a document to
//! the skeleton's keys and value kinds, then checks the names, counts and
//! relations a shape cannot express. A key added to a builder is validated
//! with no second edit.
//!
//! `--overhead` is the exception: it *does* time the entry (via the
//! normal [`crate::measure`] protocol) at each [`ObserveLevel`] and
//! prints the rates, demonstrating that `Off` costs nothing measurable.
//! Those rates go to stdout only, never into the JSON.

use crate::measure::time_entry;
use crate::report::Table;
use hpcnet_core::json::{Check, Json};
use hpcnet_core::{
    find_entry, registry, run_entry, vm_for, BenchGroup, CountersSnapshot, Entry, JitOutcome,
    MethodProfile, ObserveLevel, ObserveReport, Tier, VmProfile,
};
use std::time::Duration;

/// Document format version (bump on breaking schema changes).
/// 1.1: totals, per-method rows and JIT events split elided bounds checks
/// by mechanism (idiom guard / symbolic range / loop versioning), the
/// passes object carries the `range_abce`/`loop_versioning` knobs, and
/// attribution deltas include the per-mechanism dynamic split.
/// 1.2: the passes object drops `abce`, `range_abce` and
/// `loop_versioning`; `bce` alone gates every elision mechanism.
/// 1.3: the events object drops `eh_dispatches` and `alloc_milestones`,
/// which copied `totals.eh_*` and `totals.allocs / 1024` and undercounted
/// once the event buffer was full.
/// 1.4: the events object drops `dropped`: each compiled method keeps one
/// compile record, so nothing is dropped; `jit` and `loop_rejections` list
/// methods in method-id order rather than compile order.
pub const PROFILE_SCHEMA_VERSION: f64 = 1.4;

/// Hot methods kept per profile (the rest are summarized by
/// `methods_total` so the cap is never silent).
const TOP_METHODS: usize = 12;

/// Opcode-kind histogram entries kept per method, by count.
const TOP_KINDS: usize = 8;

/// Configuration for a profile run.
#[derive(Clone, Debug, Default)]
pub struct ProfileConfig {
    /// Explicit problem size; overrides the registry sizes.
    pub n: Option<i32>,
    /// Use the large-memory-model size instead of the small one.
    pub large: bool,
    /// Shrink the problem size for smoke tests (~1/100 of small).
    pub quick: bool,
}

impl ProfileConfig {
    fn resolve_n(&self, e: &Entry) -> i32 {
        if let Some(n) = self.n {
            return n;
        }
        if self.large {
            return e.large_n;
        }
        if self.quick {
            return (e.small_n / 100).max(64);
        }
        e.small_n
    }
}

/// A completed profile run: the JSON document plus the rendered
/// hot-method and attribution tables.
pub struct ProfileRun {
    pub doc: Json,
    /// Top methods by exclusive opcode count, one column per profile.
    pub hot: Table,
    /// Per-profile deltas vs. the reference, annotated with mechanisms.
    pub attribution: Table,
}

fn tier_str(t: Tier) -> &'static str {
    match t {
        Tier::Interpreter => "interpreter",
        Tier::Rir => "register",
        Tier::Compiled => "threaded",
    }
}

/// One profile's complete observation of the entry.
struct ProfiledCell {
    profile: VmProfile,
    checksum: f64,
    report: ObserveReport,
    /// Counter movement attributable to the single timed invocation
    /// (the snapshot taken after `vm_for` excludes static init).
    delta: CountersSnapshot,
}

fn profile_one(
    group: &BenchGroup,
    entry: &Entry,
    p: VmProfile,
    n: i32,
) -> Result<ProfiledCell, String> {
    let vm = vm_for(group, p.with_observe(ObserveLevel::Trace));
    let before = vm.counters.snapshot();
    let checksum = run_entry(&vm, entry, n).map_err(|e| format!("{}: {e}", p.name))?;
    (entry.validate)(n, checksum).map_err(|e| format!("{}: validation: {e}", p.name))?;
    let delta = vm.counters.snapshot().delta(&before);
    let report = vm.observe_report().expect("observability is on");
    Ok(ProfiledCell { profile: p, checksum, report, delta })
}

/// Per-method counts left out of `totals`: `ops` and `allocs` lead the
/// object under their own names, and invocations and inclusive ops do not
/// add up across methods.
const NOT_TOTALLED: [&str; 4] = ["invocations", "ops_excl", "ops_incl", "allocs"];

/// The `totals` key of a VM-wide counter: `loops_found` is left out (each
/// `jit` event carries it), and the static elimination total keeps the
/// name schema 1.0 gave it.
fn vm_total_key(name: &'static str) -> Option<&'static str> {
    match name {
        "loops_found" => None,
        "bounds_checks_eliminated" => Some("bounds_checks_eliminated_static"),
        name => Some(name),
    }
}

/// Every per-method count summed over the report's methods, in
/// declaration order.
fn method_sums(r: &ObserveReport) -> Vec<(&'static str, u64)> {
    let mut sums: Vec<_> = MethodProfile::NAMES.iter().map(|&name| (name, 0)).collect();
    for m in &r.methods {
        for (sum, (_, v)) in sums.iter_mut().zip(m.fields()) {
            sum.1 += v;
        }
    }
    sums
}

/// The `totals` object's `(key, value)` rows in document order: the run's
/// ops and allocations, the per-method counts summed, then the VM-wide
/// counters of the profiled invocation. The validator takes its keys
/// from a zeroed call.
fn totals_rows(
    ops: u64,
    allocs: u64,
    sums: &[(&'static str, u64)],
    vm: &CountersSnapshot,
) -> Vec<(&'static str, u64)> {
    let summed = sums.iter().copied().filter(|(k, _)| !NOT_TOTALLED.contains(k));
    let vm = vm.fields().into_iter().filter_map(|(k, v)| Some((vm_total_key(k)?, v)));
    [("ops", ops), ("allocs", allocs)].into_iter().chain(summed).chain(vm).collect()
}

/// `(key, count)` rows as the fields of a JSON object.
fn count_fields(rows: impl IntoIterator<Item = (&'static str, u64)>) -> Vec<(&'static str, Json)> {
    rows.into_iter().map(|(k, v)| (k, Json::num(v as f64))).collect()
}

fn str_json(s: &str) -> Json {
    Json::Str(s.to_string())
}

// ---- document builders ----

/// `$.profiles[i].methods[j]`: one hot method's counts and its top
/// opcode kinds as `[name, count]` pairs.
fn method_json(name: &str, counts: &[(&'static str, u64)], kinds: &[(&str, u64)]) -> Json {
    let kinds = kinds.iter().map(|&(k, n)| Json::Arr(vec![str_json(k), Json::num(n as f64)]));
    let mut doc = vec![("name", str_json(name))];
    doc.extend(count_fields(counts.iter().copied()));
    doc.push(("kinds", Json::Arr(kinds.collect())));
    Json::obj(doc)
}

/// `$.profiles[i].events.jit[j]`: one compile's per-pass outcome.
fn jit_json(method: &str, outcome: &JitOutcome) -> Json {
    let mut doc = vec![("method", str_json(method))];
    doc.extend(count_fields(outcome.fields()));
    Json::obj(doc)
}

/// `$.profiles[i].events.loop_rejections[j]`: one loop the loop-aware
/// bounds-check pass rejected.
fn rejection_json(method: &str, header_pc: u32, reason: &str) -> Json {
    Json::obj(vec![
        ("method", str_json(method)),
        ("header_pc", Json::num(header_pc as f64)),
        ("reason", str_json(reason)),
    ])
}

/// `$.profiles[i].events`: the compile outcomes and loop rejections.
fn events_json(jit: Vec<Json>, rejections: Vec<Json>) -> Json {
    Json::obj(vec![("jit", Json::Arr(jit)), ("loop_rejections", Json::Arr(rejections))])
}

/// `$.profiles[i]`: one profile's knobs, checksum, totals, hot methods
/// and events.
fn profile_json(
    p: &VmProfile,
    checksum: f64,
    totals: Vec<(&'static str, u64)>,
    methods: Vec<Json>,
    methods_total: usize,
    events: Json,
) -> Json {
    let passes = [
        ("bce", p.passes.bce),
        ("licm", p.passes.licm),
        ("inline", p.passes.inline),
    ];
    Json::obj(vec![
        ("profile", str_json(p.name)),
        ("tier", str_json(tier_str(p.tier))),
        ("passes", Json::obj(passes.map(|(k, on)| (k, Json::Bool(on))).to_vec())),
        ("checksum", Json::num(checksum)),
        ("totals", Json::obj(count_fields(totals))),
        ("methods", Json::Arr(methods)),
        ("methods_total", Json::num(methods_total as f64)),
        ("events", events),
    ])
}

/// `$.attribution.deltas[i]`: one profile against the reference, with the
/// mechanisms that explain the difference.
fn delta_json(
    profile: &str,
    bounds_checks: i64,
    elided: Vec<(&'static str, u64)>,
    calls: i64,
    mechanisms: Vec<String>,
) -> Json {
    let mut doc = vec![
        ("profile", str_json(profile)),
        ("bounds_checks_executed_delta", Json::num(bounds_checks as f64)),
    ];
    doc.extend(count_fields(elided));
    doc.push(("calls_delta", Json::num(calls as f64)));
    doc.push(("mechanisms", Json::Arr(mechanisms.into_iter().map(Json::Str).collect())));
    Json::obj(doc)
}

/// The whole document. Deliberately no environment/time/host fields: it
/// must be byte-identical across consecutive runs of the same build.
fn document(entry: &str, group: &str, n: i32, profiles: Vec<Json>, reference: &str, deltas: Vec<Json>) -> Json {
    Json::obj(vec![
        ("schema_version", Json::num(PROFILE_SCHEMA_VERSION)),
        ("kind", str_json("profile")),
        ("entry", str_json(entry)),
        ("group", str_json(group)),
        ("n", Json::num(n as f64)),
        ("observe", str_json(ObserveLevel::Trace.as_str())),
        ("profiles", Json::Arr(profiles)),
        (
            "attribution",
            Json::obj(vec![("reference", str_json(reference)), ("deltas", Json::Arr(deltas))]),
        ),
    ])
}

/// The document the builders give for zeroed inputs, with one element in
/// every array: every key a document has, and the kind of its value.
fn skeleton() -> Json {
    let sums: Vec<_> = MethodProfile::NAMES.iter().map(|&k| (k, 0)).collect();
    let events =
        events_json(vec![jit_json("", &JitOutcome::default())], vec![rejection_json("", 0, "")]);
    let totals = totals_rows(0, 0, &sums, &CountersSnapshot::default());
    let methods = vec![method_json("", &sums, &[("", 0)])];
    let profile = profile_json(&VmProfile::mono023(), 0.0, totals, methods, 0, events);
    let delta = delta_json("", 0, elided_split(&sums), 0, vec![String::new()]);
    document("", "", 0, vec![profile], "", vec![delta])
}

/// Hot methods of a report: invoked methods by descending exclusive
/// opcode count, method id as the deterministic tie-break.
fn hot_methods(report: &ObserveReport) -> Vec<&MethodProfile> {
    let mut ms: Vec<_> = report.methods.iter().filter(|m| m.invocations > 0).collect();
    ms.sort_by(|a, b| b.ops_excl.cmp(&a.ops_excl).then(a.method.0.cmp(&b.method.0)));
    ms
}

/// `$.profiles[i]` from one profile's observation of the entry.
fn profile_doc(cell: &ProfiledCell) -> Json {
    let hot = hot_methods(&cell.report);
    let methods = hot
        .iter()
        .take(TOP_METHODS)
        .map(|m| {
            // Top kinds by count; kind order breaks ties so the artifact
            // is stable across runs.
            let mut kinds = m.kind_counts();
            kinds.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
            kinds.truncate(TOP_KINDS);
            method_json(&m.name, &m.fields(), &kinds)
        })
        .collect();
    let r = &cell.report;
    let mut jit = Vec::new();
    let mut rejections = Vec::new();
    for m in &r.methods {
        let Some(compile) = &m.compile else { continue };
        jit.push(jit_json(&m.name, &compile.outcome));
        for &(header_pc, reason) in &compile.loop_rejections {
            rejections.push(rejection_json(&m.name, header_pc, reason.as_str()));
        }
    }
    let events = events_json(jit, rejections);
    let allocs = r.total_of(|m| m.allocs);
    let totals = totals_rows(r.total_ops, allocs, &method_sums(r), &cell.delta);
    profile_json(&cell.profile, cell.checksum, totals, methods, hot.len(), events)
}

/// The per-mechanism splits of elided bounds checks,
/// `bounds_checks_elided_<mechanism>`, as the attribution rows carry them.
fn elided_split(sums: &[(&'static str, u64)]) -> Vec<(&'static str, u64)> {
    sums.iter().copied().filter(|(k, _)| k.starts_with("bounds_checks_elided_")).collect()
}

/// The docs/OPTIMIZATIONS.md mechanisms explaining a delta row.
/// `elided` is the profile's dynamic elided-access split, so a
/// bounds-check delta is attributed to the specific elision mechanism(s)
/// that produced it, not just to the aggregate pass family.
fn mechanisms_for(
    reference: &VmProfile,
    p: &VmProfile,
    bc_delta: i64,
    calls_delta: i64,
    elided: &[(&'static str, u64)],
) -> Vec<String> {
    let mut out = Vec::new();
    if p.tier == Tier::Interpreter {
        out.push(
            "tier: interpreter executes CIL directly; no JIT passes run, every bounds check executes"
                .to_string(),
        );
    }
    if bc_delta != 0 {
        let knob = if reference.passes.bce != p.passes.bce || p.tier == Tier::Interpreter {
            "bce"
        } else {
            ""
        };
        out.push(format!("bounds-check elimination (`{knob}`) — mechanism 4"));
        for &(key, n) in elided.iter().filter(|(_, n)| *n > 0) {
            let how = match key.trim_start_matches("bounds_checks_elided_") {
                "idiom" => "idiom guard elision (`bce`)",
                "range" => "symbolic range analysis (`bce`)",
                "versioned" => "guarded loop versioning (`bce`)",
                other => other,
            };
            out.push(format!("{how} — {n} accesses"));
        }
    }
    if calls_delta != 0 && (reference.passes.inline != p.passes.inline || p.tier == Tier::Interpreter)
    {
        out.push("inlining (`inline`)".to_string());
    }
    out
}

/// The registry entry `entry_id` names, or an error listing the known ids.
fn lookup(entry_id: &str) -> Result<(BenchGroup, Entry), String> {
    find_entry(entry_id).ok_or_else(|| {
        let known: Vec<String> = registry()
            .iter()
            .flat_map(|g| g.entries.iter().map(|e| e.id.to_string()))
            .collect();
        format!("no benchmark entry {entry_id}; known entries: {}", known.join(" "))
    })
}

/// Run `entry_id` once per CLI-lineup profile under full observability
/// and assemble the `PROFILE_<entry>.json` document plus tables.
pub fn run_profile(entry_id: &str, cfg: &ProfileConfig) -> Result<ProfileRun, String> {
    let (group, entry) = lookup(entry_id)?;
    if entry.threaded {
        return Err(format!("{entry_id} spawns threads; profiling covers serial entries"));
    }
    let n = cfg.resolve_n(&entry);
    let profiles = VmProfile::cli_lineup();
    let cells: Vec<ProfiledCell> = profiles
        .iter()
        .map(|p| profile_one(&group, &entry, *p, n))
        .collect::<Result<_, _>>()?;

    // Hot-method table: reference profile picks the rows.
    let mut hot = Table::new(
        &format!("profile: {entry_id} (n={n})"),
        "exclusive opcodes executed (×invocations noted)",
    );
    for c in &cells {
        hot.add_column(c.profile.name);
    }
    for m in hot_methods(&cells[0].report).iter().take(TOP_METHODS) {
        let mut row = Vec::new();
        let mut notes = Vec::new();
        for c in &cells {
            match c.report.methods.iter().find(|o| o.name == m.name) {
                Some(o) if o.invocations > 0 => {
                    row.push(o.ops_excl as f64);
                    notes.push(format!("×{}", o.invocations));
                }
                // Inlined away (or never reached) under this profile.
                _ => {
                    row.push(f64::NAN);
                    notes.push(String::new());
                }
            }
        }
        hot.add_row_noted(&m.name, row, notes);
    }

    // Attribution: per-profile deltas against the reference engine.
    let ref_bc = cells[0].report.total_of(|m| m.bounds_checks_executed) as i64;
    let ref_calls = cells[0].delta.calls as i64;
    let mut attribution = Table::new(
        &format!("attribution vs {} — docs/OPTIMIZATIONS.md mechanisms", cells[0].profile.name),
        "count delta (mechanism noted)",
    );
    attribution.add_column("bounds-checks-executed Δ");
    attribution.add_column("calls Δ");
    let mut delta_docs = Vec::new();
    for c in cells.iter().skip(1) {
        let bc = c.report.total_of(|m| m.bounds_checks_executed) as i64 - ref_bc;
        let calls = c.delta.calls as i64 - ref_calls;
        let sums = method_sums(&c.report);
        let elided = elided_split(&sums);
        let mechanisms = mechanisms_for(&cells[0].profile, &c.profile, bc, calls, &elided);
        attribution.add_row_noted(
            c.profile.name,
            vec![bc as f64, calls as f64],
            vec![mechanisms.join("; "), String::new()],
        );
        delta_docs.push(delta_json(c.profile.name, bc, elided, calls, mechanisms));
    }

    let profiles = cells.iter().map(profile_doc).collect();
    let reference = cells[0].profile.name;
    let doc = document(entry.id, group.id, n, profiles, reference, delta_docs);
    Ok(ProfileRun { doc, hot, attribution })
}

/// Time one entry at every [`ObserveLevel`] (rates to stdout only; the
/// JSON artifact stays time-free). Demonstrates `Off` is zero-cost.
pub fn overhead_table(entry_id: &str, min_time: Duration) -> Result<Table, String> {
    let (group, entry) = lookup(entry_id)?;
    let mut t = Table::new(
        &format!("observability overhead: {entry_id}"),
        "work units/sec by ObserveLevel",
    );
    let levels = [ObserveLevel::Off, ObserveLevel::Counters, ObserveLevel::Trace];
    for level in levels {
        t.add_column(level.as_str());
    }
    for p in VmProfile::cli_lineup() {
        let mut row = Vec::new();
        let mut notes = Vec::new();
        for level in levels {
            let vm = vm_for(&group, p.with_observe(level));
            let m = time_entry(&vm, &entry, entry.small_n, min_time).map_err(|e| e.to_string())?;
            row.push(m.rate);
            notes.push(m.note);
        }
        t.add_row_noted(p.name, row, notes);
    }
    Ok(t)
}

// ---- schema validation ----

/// The array at `key` of `v`, or an empty one (its absence is reported
/// by the skeleton check).
fn items<'j>(v: &'j Json, key: &str) -> &'j [Json] {
    v.get(key).and_then(Json::as_arr).unwrap_or(&[])
}

/// Validate a parsed profile document. Returns every problem found.
///
/// Every key of the `skeleton` must be present with a value of the same
/// kind (extra keys are allowed); then the checks the shape cannot
/// express: names, counts and their relations.
pub fn validate(doc: &Json) -> Result<(), Vec<String>> {
    let mut c = Check::new();
    c.shape(doc, &skeleton(), "$");
    c.schema_version(doc, &[PROFILE_SCHEMA_VERSION]);
    if doc.get("kind").and_then(Json::as_str) != Some("profile") {
        c.fail("$", "kind must be \"profile\"");
    }
    if doc.get("observe").and_then(Json::as_str).and_then(ObserveLevel::parse).is_none() {
        c.fail("$", "observe must be a valid ObserveLevel name");
    }
    let tiers = [Tier::Interpreter, Tier::Rir, Tier::Compiled].map(tier_str);
    let profiles = items(doc, "profiles");
    if profiles.len() < 2 {
        c.fail("$.profiles", "fewer than 2 profiles recorded");
    }
    for (pi, p) in profiles.iter().enumerate() {
        let path = format!("$.profiles[{pi}]");
        if !p.get("tier").and_then(Json::as_str).is_some_and(|t| tiers.contains(&t)) {
            c.fail(&path, &format!("tier must be {}", tiers.join("|")));
        }
        let methods = items(p, "methods");
        if methods.is_empty() {
            c.fail(&path, "no methods profiled");
        }
        let mut ops_sum = 0.0;
        for (mi, m) in methods.iter().enumerate() {
            let mpath = format!("{path}.methods[{mi}]");
            let num = |key| m.get(key).and_then(Json::as_f64);
            if num("invocations").is_some_and(|v| v <= 0.0) {
                c.fail(&mpath, "non-positive invocations");
            }
            if let (Some(e), Some(i)) = (num("ops_excl"), num("ops_incl")) {
                ops_sum += e;
                if i < e {
                    c.fail(&mpath, &format!("ops_incl {i} < ops_excl {e}"));
                }
            }
            for (ki, kind) in items(m, "kinds").iter().enumerate() {
                match kind.as_arr() {
                    Some([name, count]) if name.as_str().is_some() && count.as_f64().is_some() => {}
                    _ => c.fail(&mpath, &format!("kinds[{ki}] must be [name, count]")),
                }
            }
        }
        // The hot-method list is truncated, so its ops can only account
        // for at most the totals.
        if let Some(total_ops) = p.get("totals").and_then(|t| t.get("ops")).and_then(Json::as_f64) {
            if ops_sum > total_ops {
                c.fail(&path, &format!("method ops_excl sum {ops_sum} exceeds totals.ops {total_ops}"));
            }
        }
    }
    let deltas = doc.get("attribution").map_or(&[][..], |a| items(a, "deltas"));
    if deltas.len() + 1 != profiles.len().max(1) {
        c.fail("$.attribution", "one delta row per non-reference profile expected");
    }
    c.finish()
}

/// Parse and validate a profile document from its JSON text.
pub fn check_document(text: &str) -> Result<(), Vec<String>> {
    let doc = Json::parse(text).map_err(|e| vec![e.to_string()])?;
    validate(&doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ProfileConfig {
        ProfileConfig { n: Some(256), ..ProfileConfig::default() }
    }

    #[test]
    fn loop_profile_is_schema_valid_and_roundtrips() {
        let run = run_profile("loop.for", &tiny()).unwrap();
        validate(&run.doc).unwrap_or_else(|p| panic!("invalid document: {p:#?}"));
        let text = run.doc.render();
        check_document(&text).unwrap();
        assert_eq!(Json::parse(&text).unwrap().render(), text);
        // The hot table has one column per CLI profile and a real row.
        assert_eq!(run.hot.columns.len(), 3);
        assert!(!run.hot.rows.is_empty());
        assert!(run.hot.render().contains("Loops.For"), "{}", run.hot.render());
        // Every engine made managed calls and executed ops; CLR JIT-compiled.
        for p in run.doc.get("profiles").unwrap().as_arr().unwrap() {
            let total = |key| p.get("totals").unwrap().get(key).unwrap().as_f64().unwrap();
            let name = p.get("profile").unwrap().as_str().unwrap();
            assert!(total("calls") > 0.0 && total("ops") > 0.0, "{name}");
            if name == VmProfile::clr11().name {
                assert!(total("jit_compiles") > 0.0, "CLR did not JIT");
            }
        }
    }

    #[test]
    fn unknown_entry_reports_known_ids() {
        let e = run_profile("no.such.entry", &tiny()).err().unwrap();
        assert!(e.contains("no benchmark entry"), "{e}");
        assert!(e.contains("loop.for"), "should list known entries: {e}");
    }

    #[test]
    fn validator_rejects_broken_documents() {
        let run = run_profile("loop.for", &tiny()).unwrap();
        let mut bad = run.doc.clone();
        if let Json::Obj(fields) = &mut bad {
            fields.retain(|(k, _)| k != "attribution");
        }
        let problems = validate(&bad).unwrap_err();
        assert!(
            problems.iter().any(|p| p.contains("attribution")),
            "{problems:#?}"
        );
        assert!(check_document("[1, 2").is_err());
    }

    /// Every key a document has is described in docs/OBSERVABILITY.md's
    /// schema example.
    #[test]
    fn every_skeleton_key_is_in_the_documented_schema() {
        let doc = include_str!("../../../docs/OBSERVABILITY.md");
        let example = doc.split("```jsonc").nth(1).unwrap().split("```").next().unwrap();
        fn keys(v: &Json, out: &mut Vec<String>) {
            match v {
                Json::Obj(fields) => {
                    for (k, x) in fields {
                        out.push(k.clone());
                        keys(x, out);
                    }
                }
                Json::Arr(items) => items.iter().for_each(|x| keys(x, out)),
                _ => {}
            }
        }
        let mut all = Vec::new();
        keys(&skeleton(), &mut all);
        assert!(all.len() > 50, "{all:?}");
        for key in all {
            assert!(example.contains(&format!("\"{key}\":")), "schema example lacks \"{key}\"");
        }
    }
}
