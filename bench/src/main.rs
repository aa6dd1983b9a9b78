//! The repo benchmark. See `bench/README.md`.
//!
//! ```text
//! bench --workload <kernels|runtime|lineup|cold> --seed N --seconds S --trace 0|1
//! bench suite [--seed N] [--seconds S] [--baseline]   every workload, untraced then traced
//! bench aa    [--seed N] [--seconds S]                every workload twice; differences beside bounds
//! bench check                                         build-profile and metric-name parity
//! bench pin                                           re-pin bench/inputs.json after a deliberate change
//! ```
//!
//! A run prints one JSON object as its last line of standard output:
//! `correct`, `attempted`, `failed`, `metrics` — the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.

mod check;
mod cold;
mod extras;
mod inputs;
mod lifecycle;
mod observed;
mod run;
mod spans;
mod speed;
mod stats;
mod steady;
mod suite;

use hpcnet_core::json::Json;
use inputs::{bench_dir, Inputs, WORKLOADS};
use run::{RunArgs, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use suite::SuiteArgs;

const USAGE: &str =
    "usage: bench --workload <kernels|runtime|lineup|cold> --seed N --seconds S --trace 0|1
       bench suite [--seed N] [--seconds S] [--baseline]
       bench aa [--seed N] [--seconds S]
       bench check | bench pin";

/// `--flag value` pairs (and bare `--baseline`); anything else is a usage
/// error.
fn flags(args: &[String], known: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !known.contains(&flag.as_str()) {
            return Err(format!("unknown argument {flag}\n{USAGE}"));
        }
        let value = if flag == "--baseline" {
            "1"
        } else {
            it.next().ok_or(format!("{flag} needs a value\n{USAGE}"))?
        };
        out.push((flag.clone(), value.to_string()));
    }
    Ok(out)
}

fn parsed<T: std::str::FromStr>(
    flags: &[(String, String)],
    flag: &str,
) -> Result<Option<T>, String> {
    match flags.iter().find(|f| f.0 == flag) {
        None => Ok(None),
        Some((_, v)) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("bad value for {flag}: {v}\n{USAGE}")),
    }
}

fn run_args(args: &[String]) -> Result<RunArgs, String> {
    let f = flags(args, &["--workload", "--seed", "--seconds", "--trace"])?;
    let need = |flag: &str| format!("{flag} is required\n{USAGE}");
    let workload: String = parsed(&f, "--workload")?.ok_or_else(|| need("--workload"))?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}\n{USAGE}"));
    }
    let seconds: f64 = parsed(&f, "--seconds")?.ok_or_else(|| need("--seconds"))?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60]\n{USAGE}"));
    }
    let trace = match parsed::<u8>(&f, "--trace")?.ok_or_else(|| need("--trace"))? {
        0 => false,
        1 => true,
        _ => return Err(format!("--trace is 0 or 1\n{USAGE}")),
    };
    Ok(RunArgs {
        workload,
        seed: parsed(&f, "--seed")?.ok_or_else(|| need("--seed"))?,
        seconds,
        trace,
    })
}

fn suite_args(args: &[String]) -> Result<SuiteArgs, String> {
    let f = flags(args, &["--seed", "--seconds", "--baseline"])?;
    Ok(SuiteArgs {
        seed: parsed(&f, "--seed")?.unwrap_or(1),
        seconds: match parsed(&f, "--seconds")? {
            Some(s) => s,
            None => suite::run_seconds()?,
        },
        baseline: f.iter().any(|f| f.0 == "--baseline"),
    })
}

/// One workload, one process: measure, write the detail (and trace) files
/// under `bench/out/`, print the result line.
fn bench(args: &RunArgs) -> Result<(), String> {
    let inputs = Inputs::load()?;
    inputs.check_pinned()?;
    let out = match args.workload.as_str() {
        "cold" => cold::run(args, &inputs)?,
        _ => steady::run(args, &inputs)?,
    };
    for f in &out.failures {
        eprintln!("bench: failed: {f}");
    }

    let dir = bench_dir().join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mode = if args.trace { "traced" } else { "untraced" };
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    let line = run::result_line(&out, defs);
    let doc = Json::obj(vec![
        ("workload", Json::Str(args.workload.clone())),
        ("seed", Json::num(args.seed as f64)),
        ("seconds", Json::num(args.seconds)),
        ("inputs_fingerprint", Json::Str(inputs.fingerprint())),
        (
            "result",
            Json::parse(&line).expect("the result line is JSON"),
        ),
        (
            "failures",
            Json::Arr(out.failures.iter().map(|f| Json::Str(f.clone())).collect()),
        ),
        ("detail", out.detail),
    ]);
    let path = dir.join(format!("{}.{mode}.json", args.workload));
    std::fs::write(&path, doc.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    if args.trace {
        let path = dir.join(format!("{}.trace.json", args.workload));
        let trace = spans::document(&args.workload, args.seed, &out.spans);
        std::fs::write(&path, run::compact(&trace))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{line}");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("check") if args.len() == 1 => check::run(),
        Some("pin") if args.len() == 1 => {
            inputs::pin().map(|fp| println!("bench/inputs.json pinned to {fp}"))
        }
        Some("suite") => suite_args(&args[1..]).and_then(|a| suite::suite(&a)),
        Some("aa") => suite_args(&args[1..]).and_then(|a| suite::aa(&a)),
        Some(flag) if flag.starts_with("--") => run_args(&args).and_then(|a| bench(&a)),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench: {e}");
            // Distinguish "your inputs moved" from everything else.
            ExitCode::from(if e.starts_with("inputs_changed") {
                3
            } else {
                1
            })
        }
    }
}
