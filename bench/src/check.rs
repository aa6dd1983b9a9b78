//! `bench check`: the two ways this benchmark can quietly stop measuring
//! what it says — a release profile that differs from the root manifest's
//! (this workspace's profile is what compiles the `hpcnet-*` crates being
//! measured), and metric or workload names that differ from
//! `BENCHMARK.json`.

use crate::inputs::{bench_dir, WORKLOADS};
use crate::run::{MetricDef, END_TO_END, PER_LAYER};
use hpcnet_core::json::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// The `key = value` lines of one TOML table, comments and spacing
/// stripped. Enough for `[profile.release]`, which holds only scalars.
pub fn toml_table(text: &str, table: &str) -> BTreeMap<String, String> {
    let header = format!("[{table}]");
    text.lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect()
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn benchmark_json() -> Result<Json, String> {
    let path = bench_dir().join("../BENCHMARK.json");
    Json::parse(&read(&path)?).map_err(|e| format!("{}: {e:?}", path.display()))
}

/// `(name, unit, better)` of each metric under `key`.
fn declared(doc: &Json, key: &str) -> Vec<(String, String, String)> {
    let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
        .collect()
}

fn compare(
    problems: &mut Vec<String>,
    what: &str,
    json: Vec<(String, String, String)>,
    code: &[MetricDef],
) {
    let mut json = json;
    let mut code: Vec<_> = code
        .iter()
        .map(|d| (d.0.to_string(), d.1.to_string(), d.2.to_string()))
        .collect();
    json.sort();
    code.sort();
    for j in json.iter().filter(|j| !code.contains(j)) {
        problems.push(format!(
            "{what}: BENCHMARK.json has {j:?}, the benchmark does not emit it"
        ));
    }
    for c in code.iter().filter(|c| !json.contains(c)) {
        problems.push(format!(
            "{what}: the benchmark emits {c:?}, BENCHMARK.json does not list it"
        ));
    }
}

pub fn run() -> Result<(), String> {
    let mut problems = Vec::new();

    let ours = toml_table(&read(&bench_dir().join("Cargo.toml"))?, "profile.release");
    let root = toml_table(
        &read(&bench_dir().join("../Cargo.toml"))?,
        "profile.release",
    );
    if ours != root {
        problems.push(format!(
            "bench/Cargo.toml [profile.release] {ours:?} differs from the root manifest's {root:?}"
        ));
    }

    let doc = benchmark_json()?;
    compare(
        &mut problems,
        "end_to_end",
        declared(&doc, "end_to_end"),
        END_TO_END,
    );
    compare(
        &mut problems,
        "per_layer",
        declared(&doc, "per_layer"),
        PER_LAYER,
    );
    let workloads: Vec<String> = declared(&doc, "workloads")
        .into_iter()
        .map(|w| w.0)
        .collect();
    if workloads != WORKLOADS {
        problems.push(format!(
            "workloads: BENCHMARK.json has {workloads:?}, the benchmark runs {WORKLOADS:?}"
        ));
    }

    if problems.is_empty() {
        println!(
            "bench check: release profile matches the root manifest; BENCHMARK.json names match"
        );
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toml_table_reads_one_table_only() {
        let text = "[package]\nname = \"x\"\n\n[profile.release]\ndebug = \"line-tables-only\" # why\nlto=true\n\n[profile.bench]\ndebug = 2\n";
        let t = toml_table(text, "profile.release");
        assert_eq!(t.len(), 2);
        assert_eq!(t["debug"], "\"line-tables-only\"");
        assert_eq!(t["lto"], "true");
        assert!(toml_table(text, "profile.dev").is_empty());
    }

    #[test]
    fn drift_in_either_direction_is_reported() {
        let doc = Json::parse(
            r#"{"end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1},
                               {"name": "gone_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        let mut problems = Vec::new();
        compare(
            &mut problems,
            "end_to_end",
            declared(&doc, "end_to_end"),
            END_TO_END,
        );
        assert!(
            problems
                .iter()
                .any(|p| p.contains("gone_ms") && p.contains("does not emit")),
            "{problems:?}"
        );
        assert!(problems
            .iter()
            .any(|p| p.contains("floor_geomean_ms") && p.contains("does not list")));
        assert!(!problems.iter().any(|p| p.contains("setup_s")));
    }

    #[test]
    fn the_committed_files_pass() {
        run().unwrap();
    }
}
