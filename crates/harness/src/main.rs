//! `hpcnet-report` — regenerate the paper's tables and figures.
//!
//! ```text
//! hpcnet-report all                # every graph, paper small sizes
//! hpcnet-report g9 g10             # specific graphs
//! hpcnet-report g10 --large        # large memory model (Graph 11)
//! hpcnet-report all --quick        # smoke-test timings (short runs)
//! hpcnet-report all --csv out/     # also write CSV per graph
//! hpcnet-report all --relative     # extra baseline-normalized views
//! hpcnet-report conform            # differential conformance sweep
//! hpcnet-report conform --programs 50 --seed 1000 --observe trace
//! hpcnet-report profile loop.for   # attribution artifact (PROFILE_loop.for.json)
//! hpcnet-report profile scimark.fft --overhead
//! ```
//!
//! Error discipline: a bad flag, a missing value, or an unreadable path is
//! a *user* mistake, reported on stderr with the relevant subcommand's
//! usage and a non-zero exit — never a panic. The only panics left in this
//! binary are genuine internal bugs.

use hpcnet_harness::{all_reports, graphs, Config};
use std::time::Duration;

/// Report a usage error: message + the failing subcommand's usage text on
/// stderr, exit 2 (the "bad invocation" code, distinct from runtime
/// failures' 1).
fn fail_usage(usage: &str, msg: &str) -> ! {
    eprintln!("error: {msg}\n");
    eprintln!("{usage}");
    std::process::exit(2);
}

/// Report a runtime failure (I/O, measurement, validation): exit 1.
fn fail_run(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

/// Pull and parse the value of `flag` from `it`, or die with usage.
fn flag_value<T: std::str::FromStr>(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
    what: &str,
    usage: &str,
) -> T {
    match it.next() {
        None => fail_usage(usage, &format!("{flag} needs {what}")),
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| fail_usage(usage, &format!("{flag} needs {what}, got {v:?}"))),
    }
}

fn write_or_die(path: &str, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        fail_run(&format!("cannot write {path}: {e}"));
    }
}

fn read_or_die(path: &str) -> String {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail_run(&format!("cannot read {path}: {e}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        print_help();
        return;
    }
    // `conform` is not a timing report: it runs the differential
    // conformance fuzzer (crates/conform) and exits non-zero on any
    // divergence, so CI can gate on it directly.
    if args.first().map(String::as_str) == Some("conform") {
        run_conform(&args[1..]);
        return;
    }
    // `profile` runs one entry under full observability and emits the
    // per-method attribution artifact (docs/OBSERVABILITY.md).
    if args.first().map(String::as_str) == Some("profile") {
        run_profile(&args[1..]);
        return;
    }
    let mut cfg = Config::default();
    let mut csv_dir: Option<String> = None;
    let mut relative = false;
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--large" => cfg.large = true,
            "--quick" => cfg.min_time = Duration::from_millis(30),
            "--min-time-ms" => {
                let ms: u64 = flag_value(&mut it, "--min-time-ms", "a number", &graph_usage());
                cfg.min_time = Duration::from_millis(ms);
            }
            "--csv" => match it.next() {
                Some(dir) => csv_dir = Some(dir.clone()),
                None => fail_usage(&graph_usage(), "--csv needs a directory"),
            },
            "--relative" => relative = true,
            other if other.starts_with('-') => {
                fail_usage(&graph_usage(), &format!("unknown graph flag {other}"));
            }
            other => wanted.push(other.to_string()),
        }
    }
    let reports = all_reports();
    let run_all = wanted.iter().any(|w| w == "all");
    let mut ran = 0;
    for name in reports {
        if !run_all && !wanted.iter().any(|w| w == name) {
            continue;
        }
        let table = graphs::run(name, &cfg);
        println!("{}", table.render());
        if relative && table.columns.len() > 1 {
            if let Some(rel) = table.relative_to_first() {
                println!("{}", rel.render());
            }
        }
        if let Some(dir) = &csv_dir {
            if let Err(e) = std::fs::create_dir_all(dir) {
                fail_run(&format!("cannot create csv dir {dir}: {e}"));
            }
            let path = format!("{dir}/{name}{}.csv", if cfg.large { "_large" } else { "" });
            write_or_die(&path, &table.to_csv());
            eprintln!("wrote {path}");
        }
        ran += 1;
    }
    if ran == 0 {
        // Anything that is neither a subcommand nor a known graph name
        // lands here: refuse loudly with the usage text, exit non-zero.
        fail_usage(
            &usage(),
            &format!(
                "unknown subcommand or report {:?}; known: all {}",
                wanted.join(" "),
                reports.join(" ")
            ),
        );
    }
}

fn run_profile(args: &[String]) {
    let u = profile_usage();
    let mut cfg = hpcnet_harness::profile::ProfileConfig::default();
    let mut entry: Option<String> = None;
    let mut out: Option<String> = None;
    let mut check: Option<String> = None;
    let mut overhead = false;
    let mut min_time = Duration::from_millis(200);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => {
                cfg.quick = true;
                min_time = Duration::from_millis(30);
            }
            "--large" => cfg.large = true,
            "--n" => cfg.n = Some(flag_value(&mut it, "--n", "a number", &u)),
            "--out" => match it.next() {
                Some(p) => out = Some(p.clone()),
                None => fail_usage(&u, "--out needs a path"),
            },
            "--check" => match it.next() {
                Some(p) => check = Some(p.clone()),
                None => fail_usage(&u, "--check needs a path"),
            },
            "--overhead" => overhead = true,
            other if other.starts_with('-') => {
                fail_usage(&u, &format!("unknown profile flag {other}"));
            }
            other => entry = Some(other.to_string()),
        }
    }
    // Validation-only mode: parse + schema-check an existing artifact.
    if let Some(path) = check {
        let text = read_or_die(&path);
        match hpcnet_harness::profile::check_document(&text) {
            Ok(()) => println!("{path}: schema-valid profile document"),
            Err(problems) => {
                eprintln!("{path}: INVALID profile document:");
                for p in problems {
                    eprintln!("  - {p}");
                }
                std::process::exit(1);
            }
        }
        return;
    }
    let entry = entry.unwrap_or_else(|| {
        fail_usage(&u, "profile needs a benchmark entry id (e.g. loop.for, scimark.fft)")
    });
    // `--overhead`: time the entry at every ObserveLevel instead of
    // writing the (time-free) JSON artifact.
    if overhead {
        let t = hpcnet_harness::profile::overhead_table(&entry, min_time)
            .unwrap_or_else(|e| fail_run(&format!("profile --overhead failed: {e}")));
        println!("{}", t.render());
        return;
    }
    let run = hpcnet_harness::profile::run_profile(&entry, &cfg)
        .unwrap_or_else(|e| fail_run(&format!("profile failed: {e}")));
    println!("{}", run.hot.render());
    println!("{}", run.attribution.render());
    let out = out.unwrap_or_else(|| format!("PROFILE_{entry}.json"));
    let text = run.doc.render();
    write_or_die(&out, &text);
    // Self-check the exact bytes written before declaring success.
    if let Err(problems) = hpcnet_harness::profile::check_document(&text) {
        eprintln!("{out}: emitted document FAILED schema validation:");
        for p in problems {
            eprintln!("  - {p}");
        }
        std::process::exit(1);
    }
    eprintln!("wrote {out} ({} bytes, schema-valid)", text.len());
}

fn run_conform(args: &[String]) {
    let u = conform_usage();
    let mut cfg = conform::ConformConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--programs" => cfg.programs = flag_value(&mut it, "--programs", "a number", &u),
            "--seed" => cfg.start_seed = flag_value(&mut it, "--seed", "a number", &u),
            "--no-corpus" => cfg.corpus_dir = None,
            "--workers" => {
                cfg.workers = flag_value(&mut it, "--workers", "a number (0 = all cores)", &u);
            }
            "--observe" => {
                let level = match it.next() {
                    Some(l) => l,
                    None => fail_usage(&u, "--observe needs off|counters|trace"),
                };
                cfg.observe = hpcnet_harness::ObserveLevel::parse(level).unwrap_or_else(|| {
                    fail_usage(&u, &format!("--observe needs off|counters|trace, got {level:?}"))
                });
            }
            other => fail_usage(&u, &format!("unknown conform flag {other}")),
        }
    }
    let report = conform::run_conformance(&cfg);
    println!("{}", report.render());
    if !report.ok() {
        std::process::exit(1);
    }
}

fn graph_usage() -> String {
    "graphs: g1 g3 g4 g5 g6 g7 g8 g9 g10 g12 t2 t4 ablation opt\n\
       (g10 --large reproduces Graph 11; g1 covers Graphs 1 and 2;\n\
        opt prints the bounds checks each profile's JIT eliminated)\n\
     graph flags: [--large] [--quick] [--min-time-ms N] [--csv DIR] [--relative]"
        .to_string()
}

fn conform_usage() -> String {
    "conform flags: [--programs N] [--seed S] [--no-corpus] [--observe off|counters|trace]\n\
                    [--workers N (0 = all cores)]"
        .to_string()
}

fn profile_usage() -> String {
    "profile usage: profile <entry> [--quick] [--large] [--n N] [--out FILE]\n\
                    [--overhead] | profile --check FILE\n\
       (--overhead times the entry at every ObserveLevel instead of writing\n\
        the JSON artifact; the artifact itself is deterministic and time-free)"
        .to_string()
}

fn usage() -> String {
    format!(
        "hpcnet-report — regenerate the paper's evaluation tables/figures\n\
         \n\
         usage: hpcnet-report <subcommand|graph ...|all> [flags]\n\
         \n\
         subcommands:\n\
           conform   differential conformance fuzz sweep over every profile and\n\
                     pass combination; exits non-zero on any divergence\n\
           profile   per-method attribution profile of one benchmark entry under\n\
                     the CLI lineup; writes PROFILE_<entry>.json (docs/OBSERVABILITY.md)\n\
         \n\
         {}\n\
         \n\
         {}\n\
         {}",
        graph_usage(),
        conform_usage(),
        profile_usage(),
    )
}

fn print_help() {
    println!("{}", usage());
}
