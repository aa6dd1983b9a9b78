//! `bench suite` and `bench aa`: every workload, one process each (the
//! same command line the driver uses), with every metric printed by name
//! beside its unit and bound.

use crate::check::benchmark_json;
use crate::inputs::{bench_dir, WORKLOADS};
use crate::run::{END_TO_END, PER_LAYER};
use hpcnet_core::json::Json;
use hpcnet_serve::cache::Fnv;
use std::process::{Command, Stdio};

pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: u64,
    pub baseline: bool,
}

/// `run_seconds` of `BENCHMARK.json`: what a run measures for unless told
/// otherwise.
pub fn run_seconds() -> Result<u64, String> {
    benchmark_json()?
        .get("run_seconds")
        .and_then(Json::as_f64)
        .map(|s| s as u64)
        .ok_or("BENCHMARK.json: no run_seconds".into())
}

/// Run one workload in a child process; its parsed result line.
fn child(workload: &str, a: &SuiteArgs, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    eprintln!(
        "== {workload} (seed {}, {} s, trace {})",
        a.seed,
        a.seconds,
        u8::from(trace)
    );
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &a.seed.to_string()])
        .args([
            "--seconds",
            &a.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("{workload}: run exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or(format!("{workload}: run printed nothing"))?;
    let doc = Json::parse(line).map_err(|e| format!("{workload}: result line: {e:?}"))?;

    // The emitted names must be the declared ones, no more and no fewer.
    let defs = if trace { PER_LAYER } else { END_TO_END };
    let emitted: Vec<&str> = match doc.get("metrics") {
        Some(Json::Obj(fields)) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        _ => return Err(format!("{workload}: result line has no metrics object")),
    };
    if emitted != defs.iter().map(|d| d.0).collect::<Vec<_>>() {
        return Err(format!(
            "{workload}: emitted metrics {emitted:?} are not the declared ones"
        ));
    }
    if doc.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!(
            "{workload}: {} of {} operations failed",
            num(&doc, "failed"),
            num(&doc, "attempted")
        ));
    }
    Ok(doc)
}

fn num(doc: &Json, key: &str) -> f64 {
    doc.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

fn value(result: &Json, metric: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(metric))
        .map_or(f64::NAN, |m| num(m, "value"))
}

/// `bound` of each end-to-end metric in `BENCHMARK.json`.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let doc = benchmark_json()?;
    let metrics = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end")?;
    Ok(metrics
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                num(m, "bound"),
            )
        })
        .collect())
}

fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .current_dir(bench_dir())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Where the numbers were taken: a result is comparable only with results
/// whose `fingerprint` (cpu model, cpu count, rustc) is the same.
fn environment(seed: u64) -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or("unknown".to_string(), |v| {
            v.trim_start_matches([' ', '\t', ':']).to_string()
        });
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = first_line("rustc", &["-V"]);
    let mut h = Fnv::new();
    h.write(format!("{cpu}|{nproc}|{rustc}").as_bytes());
    Json::obj(vec![
        (
            "fingerprint",
            Json::Str(format!(
                "{}-{nproc}cpu-{:08x}",
                std::env::consts::ARCH,
                h.finish() as u32
            )),
        ),
        ("cpu_model", Json::Str(cpu)),
        ("nproc", Json::num(nproc as f64)),
        ("rustc", Json::Str(rustc)),
        (
            "commit",
            Json::Str(first_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::num(seed as f64)),
    ])
}

fn write(path: &std::path::Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// Four untraced runs, four traced runs; every metric by name.
pub fn suite(a: &SuiteArgs) -> Result<(), String> {
    let bounds = bounds()?;
    let mut docs = Vec::new();
    let mut unresolved = Vec::new();
    for w in WORKLOADS {
        let e2e = child(w, a, false)?;
        let layers = child(w, a, true)?;
        println!("\n{w}");
        for (name, unit, better) in END_TO_END {
            let bound = bounds
                .iter()
                .find(|b| b.0 == *name)
                .map_or(f64::NAN, |b| b.1);
            println!(
                "  {name:<28} {:>16.4} {unit:<7} {better} is better, bound {bound}",
                value(&e2e, name)
            );
        }
        for (name, unit, better) in PER_LAYER {
            println!(
                "  {name:<28} {:>16.4} {unit:<7} {better} is better",
                value(&layers, name)
            );
        }
        if value(&layers, "bench.floor_support") < crate::stats::FLOOR_K as f64 {
            unresolved.push(w);
        }
        docs.push((
            w.to_string(),
            Json::obj(vec![("end_to_end", e2e), ("per_layer", layers)]),
        ));
    }
    let env = environment(a.seed);
    let name = env
        .get("fingerprint")
        .and_then(Json::as_str)
        .unwrap_or("unknown")
        .to_string();
    let doc = Json::obj(vec![
        ("environment", env),
        ("run_seconds", Json::num(a.seconds as f64)),
        ("workloads", Json::Obj(docs)),
    ]);
    write(&bench_dir().join("out/suite.json"), &doc)?;
    if a.baseline {
        write(&bench_dir().join(format!("baseline/{name}.json")), &doc)?;
    }
    if unresolved.is_empty() {
        Ok(())
    } else {
        Err(format!("unresolved rows (fewer than 3 samples near the floor) on {unresolved:?}; see bench/out/"))
    }
}

/// The same code measured twice, A₁B₁C₁D₁ A₂B₂C₂D₂: how far apart two
/// honest runs land, beside the bound a regression is judged by.
pub fn aa(a: &SuiteArgs) -> Result<(), String> {
    let bounds = bounds()?;
    let mut rounds = Vec::new();
    for _ in 0..2 {
        let round = WORKLOADS
            .iter()
            .map(|w| child(w, a, false))
            .collect::<Result<Vec<_>, _>>()?;
        rounds.push(round);
    }
    let mut rows = Vec::new();
    let mut over = Vec::new();
    println!(
        "{:<10} {:<20} {:>12} {:>12} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for (wi, w) in WORKLOADS.iter().enumerate() {
        for (name, bound) in &bounds {
            let (x, y) = (value(&rounds[0][wi], name), value(&rounds[1][wi], name));
            let diff = (y - x).abs() / x;
            println!(
                "{w:<10} {name:<20} {x:>12.4} {y:>12.4} {:>8.2}% {:>6.0}%",
                diff * 100.0,
                bound * 100.0
            );
            // NaN: a metric missing from a result must fail too.
            if diff.is_nan() || diff > *bound {
                over.push(format!("{w}/{name}"));
            }
            rows.push(Json::obj(vec![
                ("workload", Json::Str(w.to_string())),
                ("metric", Json::Str(name.clone())),
                ("first", Json::num(x)),
                ("second", Json::num(y)),
                ("relative_difference", Json::num(diff)),
                ("bound", Json::num(*bound)),
            ]));
        }
    }
    let doc = Json::obj(vec![
        ("environment", environment(a.seed)),
        ("pairs", Json::Arr(rows)),
    ]);
    write(&bench_dir().join("out/aa.json"), &doc)?;
    if over.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "two runs of the same code differ by more than the bound on {over:?}"
        ))
    }
}
