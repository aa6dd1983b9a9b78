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
//! hpcnet-report serve --jobs 120 --workers 2   # job-service artifact (BENCH_serve.json)
//! hpcnet-report serve --check BENCH_serve.json
//! hpcnet-report trace --jobs 60 --workers 2    # span-trace artifact (TRACE_serve.json)
//! hpcnet-report trace --check TRACE_serve.json
//! hpcnet-report trace --overhead               # tracing-off vs tracing-on cost
//! ```
//!
//! Error discipline: a bad flag, a missing value, or an unreadable path is
//! a *user* mistake, reported on stderr with the relevant subcommand's
//! usage and a non-zero exit — never a panic. The only panics left in this
//! binary are genuine internal bugs.

use hpcnet_harness::{all_reports, Config};
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
    // `serve` runs the multi-tenant job service over a deterministic mixed
    // workload and emits BENCH_serve.json (docs/ARCHITECTURE.md).
    if args.first().map(String::as_str) == Some("serve") {
        run_serve(&args[1..]);
        return;
    }
    // `trace` runs the same service with span tracing on and emits
    // TRACE_serve.json plus a Chrome trace-event export
    // (docs/OBSERVABILITY.md).
    if args.first().map(String::as_str) == Some("trace") {
        run_trace(&args[1..]);
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
    for (name, gen) in &reports {
        if !run_all && !wanted.iter().any(|w| w == name) {
            continue;
        }
        let table = gen(&cfg);
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
                reports.iter().map(|(n, _)| *n).collect::<Vec<_>>().join(" ")
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
            .unwrap_or_else(|e| fail_run(&format!("overhead measurement failed: {e}")));
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
            "--wave" => cfg.wave = flag_value(&mut it, "--wave", "a number (0 = default)", &u),
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
    println!("{}", report.render_schedule());
    if !report.ok() {
        std::process::exit(1);
    }
}

fn run_serve(args: &[String]) {
    let u = serve_usage();
    let mut jobs = 120usize;
    let mut workers = 2usize;
    let mut seed = 7u64;
    let mut hog_fuel = 4096u64;
    let mut default_fuel: Option<u64> = None;
    let mut verify = true;
    let mut check_determinism = false;
    let mut out = String::from("BENCH_serve.json");
    let mut check: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jobs" => jobs = flag_value(&mut it, "--jobs", "a number", &u),
            "--workers" => {
                workers = flag_value(&mut it, "--workers", "a number (0 = all cores)", &u);
            }
            "--seed" => seed = flag_value(&mut it, "--seed", "a number", &u),
            "--hog-fuel" => hog_fuel = flag_value(&mut it, "--hog-fuel", "a number", &u),
            "--fuel" => {
                let f: u64 = flag_value(&mut it, "--fuel", "a number (0 = unlimited)", &u);
                default_fuel = if f == 0 { None } else { Some(f) };
            }
            "--no-verify" => verify = false,
            "--check-determinism" => check_determinism = true,
            "--out" => match it.next() {
                Some(p) => out = p.clone(),
                None => fail_usage(&u, "--out needs a path"),
            },
            "--check" => match it.next() {
                Some(p) => check = Some(p.clone()),
                None => fail_usage(&u, "--check needs a path"),
            },
            other => fail_usage(&u, &format!("unknown serve flag {other}")),
        }
    }
    // Validation-only mode: parse + schema-check an existing artifact.
    if let Some(path) = check {
        let text = read_or_die(&path);
        match hpcnet_serve::report::check_document(&text) {
            Ok(()) => println!("{path}: schema-valid serve document"),
            Err(problems) => {
                eprintln!("{path}: INVALID serve document:");
                for p in problems {
                    eprintln!("  - {p}");
                }
                std::process::exit(1);
            }
        }
        return;
    }
    if jobs == 0 {
        fail_usage(&u, "--jobs must be at least 1");
    }
    if workers == 0 {
        workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    }
    let workload = hpcnet_serve::workload::mixed_workload(jobs, seed, hog_fuel);
    let cfg = hpcnet_serve::ServeConfig { workers, default_fuel, verify, trace: false };
    let report = hpcnet_serve::run_service(&workload, &cfg);
    print!("{}", hpcnet_serve::report::summary(&report));
    let doc = hpcnet_serve::report::document(&report);
    if report.total_leaks() > 0 {
        fail_run(&format!(
            "cross-tenant isolation FAILED: {} leaked locations",
            report.total_leaks()
        ));
    }
    // `--check-determinism`: re-run the identical workload on one worker
    // and require a byte-identical per-job subtree (scheduling freedom
    // must never reach tenant-visible results).
    if check_determinism {
        let solo = hpcnet_serve::run_service(
            &workload,
            &hpcnet_serve::ServeConfig { workers: 1, ..cfg },
        );
        let a = hpcnet_serve::report::jobs_fingerprint(&doc);
        let b = hpcnet_serve::report::jobs_fingerprint(&hpcnet_serve::report::document(&solo));
        if a != b {
            fail_run(&format!(
                "per-job outcomes differ between {workers} worker(s) and 1 worker"
            ));
        }
        eprintln!("determinism: per-job outcomes identical at {workers} worker(s) and 1");
    }
    let text = doc.render();
    write_or_die(&out, &text);
    // Self-check the exact bytes written, mirroring `profile`.
    if let Err(problems) = hpcnet_serve::report::check_document(&text) {
        eprintln!("{out}: emitted document FAILED schema validation:");
        for p in problems {
            eprintln!("  - {p}");
        }
        std::process::exit(1);
    }
    eprintln!("wrote {out} ({} bytes, schema-valid)", text.len());
}

fn run_trace(args: &[String]) {
    let u = trace_usage();
    let mut jobs = 60usize;
    let mut workers = 2usize;
    let mut seed = 7u64;
    let mut hog_fuel = 4096u64;
    let mut default_fuel: Option<u64> = None;
    let mut check_determinism = false;
    let mut overhead = false;
    let mut out = String::from("TRACE_serve.json");
    let mut chrome = String::from("TRACE_serve.chrome.json");
    let mut check: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jobs" => jobs = flag_value(&mut it, "--jobs", "a number", &u),
            "--workers" => {
                workers = flag_value(&mut it, "--workers", "a number (0 = all cores)", &u);
            }
            "--seed" => seed = flag_value(&mut it, "--seed", "a number", &u),
            "--hog-fuel" => hog_fuel = flag_value(&mut it, "--hog-fuel", "a number", &u),
            "--fuel" => {
                let f: u64 = flag_value(&mut it, "--fuel", "a number (0 = unlimited)", &u);
                default_fuel = if f == 0 { None } else { Some(f) };
            }
            "--check-determinism" => check_determinism = true,
            "--overhead" => overhead = true,
            "--out" => match it.next() {
                Some(p) => out = p.clone(),
                None => fail_usage(&u, "--out needs a path"),
            },
            "--chrome" => match it.next() {
                Some(p) => chrome = p.clone(),
                None => fail_usage(&u, "--chrome needs a path"),
            },
            "--check" => match it.next() {
                Some(p) => check = Some(p.clone()),
                None => fail_usage(&u, "--check needs a path"),
            },
            other => fail_usage(&u, &format!("unknown trace flag {other}")),
        }
    }
    // Validation-only mode: parse + schema-check an existing artifact.
    if let Some(path) = check {
        let text = read_or_die(&path);
        match hpcnet_serve::trace::check_document(&text) {
            Ok(()) => println!("{path}: schema-valid trace document"),
            Err(problems) => {
                eprintln!("{path}: INVALID trace document:");
                for p in problems {
                    eprintln!("  - {p}");
                }
                std::process::exit(1);
            }
        }
        return;
    }
    if jobs == 0 {
        fail_usage(&u, "--jobs must be at least 1");
    }
    if workers == 0 {
        workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    }
    let workload = hpcnet_serve::workload::mixed_workload(jobs, seed, hog_fuel);
    let cfg = hpcnet_serve::ServeConfig { workers, default_fuel, verify: true, trace: true };

    // `--overhead`: run the identical workload with tracing off and on and
    // compare wall time. The off run uses a counting clock to *prove* the
    // untraced path performs zero span clock reads.
    if overhead {
        let counting = hpcnet_core::CountingClock::new();
        let off_cfg = hpcnet_serve::ServeConfig { trace: false, ..cfg };
        let t0 = std::time::Instant::now();
        let off = hpcnet_serve::run_service_with_clock(&workload, &off_cfg, &counting);
        let off_wall = t0.elapsed();
        let t1 = std::time::Instant::now();
        let on = hpcnet_serve::run_service(&workload, &cfg);
        let on_wall = t1.elapsed();
        let mean = |r: &hpcnet_serve::ServiceReport| {
            r.records.iter().map(|j| j.latency_ns).sum::<u64>() / r.records.len().max(1) as u64
        };
        let spans: usize = on
            .records
            .iter()
            .filter_map(|r| r.spans.as_ref())
            .map(|s| s.span_count())
            .sum();
        println!(
            "trace overhead over {jobs} jobs on {workers} worker(s):\n\
             \x20 trace off: {:>8.2} ms wall, mean job {:>6} µs, span clock reads: {}\n\
             \x20 trace on : {:>8.2} ms wall, mean job {:>6} µs, spans recorded: {}",
            off_wall.as_secs_f64() * 1e3,
            mean(&off) / 1_000,
            counting.reads(),
            on_wall.as_secs_f64() * 1e3,
            mean(&on) / 1_000,
            spans,
        );
        if counting.reads() != 0 {
            fail_run(&format!(
                "untraced run performed {} span clock reads; expected 0",
                counting.reads()
            ));
        }
        return;
    }

    let report = hpcnet_serve::run_service(&workload, &cfg);
    print!("{}", hpcnet_serve::report::summary(&report));
    if report.total_leaks() > 0 {
        fail_run(&format!(
            "cross-tenant isolation FAILED: {} leaked locations",
            report.total_leaks()
        ));
    }
    let probe = hpcnet_serve::trace::vm_phase_probe(hpcnet_core::VmProfile::clr11_compiled());
    let doc = hpcnet_serve::trace::document(&report, probe);
    // `--check-determinism`: re-run on one worker and require a
    // byte-identical structural subtree — span structure must be as
    // scheduling-independent as the job outcomes themselves.
    if check_determinism {
        let solo = hpcnet_serve::run_service(
            &workload,
            &hpcnet_serve::ServeConfig { workers: 1, ..cfg },
        );
        let solo_doc = hpcnet_serve::trace::document(&solo, hpcnet_core::json::Json::Null);
        let a = hpcnet_serve::trace::structural_fingerprint(&doc);
        let b = hpcnet_serve::trace::structural_fingerprint(&solo_doc);
        if a != b {
            fail_run(&format!(
                "structural span trees differ between {workers} worker(s) and 1 worker"
            ));
        }
        eprintln!("determinism: structural spans identical at {workers} worker(s) and 1");
    }
    let text = doc.render();
    write_or_die(&out, &text);
    // Self-check the exact bytes written, mirroring the other emitters.
    if let Err(problems) = hpcnet_serve::trace::check_document(&text) {
        eprintln!("{out}: emitted document FAILED schema validation:");
        for p in problems {
            eprintln!("  - {p}");
        }
        std::process::exit(1);
    }
    eprintln!("wrote {out} ({} bytes, schema-valid)", text.len());
    let chrome_text = hpcnet_serve::trace::chrome_trace(&report).render();
    write_or_die(&chrome, &chrome_text);
    eprintln!("wrote {chrome} ({} bytes, chrome://tracing format)", chrome_text.len());
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
                    [--workers N (0 = all cores)] [--wave N]"
        .to_string()
}

fn profile_usage() -> String {
    "profile usage: profile <entry> [--quick] [--large] [--n N] [--out FILE]\n\
                    [--overhead] | profile --check FILE\n\
       (--overhead times the entry at every ObserveLevel instead of writing\n\
        the JSON artifact; the artifact itself is deterministic and time-free)"
        .to_string()
}

fn serve_usage() -> String {
    "serve flags:   [--jobs N] [--workers N (0 = all cores)] [--seed S]\n\
                    [--fuel N (default per-job budget, 0 = unlimited)] [--hog-fuel N]\n\
                    [--no-verify] [--check-determinism] [--out FILE] | --check FILE"
        .to_string()
}

fn trace_usage() -> String {
    "trace flags:   [--jobs N] [--workers N (0 = all cores)] [--seed S]\n\
                    [--fuel N (default per-job budget, 0 = unlimited)] [--hog-fuel N]\n\
                    [--check-determinism] [--out FILE] [--chrome FILE]\n\
                    [--overhead] | --check FILE\n\
       (--overhead compares wall time with tracing off and on and proves the\n\
        untraced path performs zero span clock reads)"
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
           serve     multi-tenant compile-and-run job service on warmed snapshot/reset\n\
                     VMs and the shared code cache; writes BENCH_serve.json\n\
           trace     the same service with per-job span tracing on; writes\n\
                     TRACE_serve.json + a Chrome trace-event export\n\
         \n\
         {}\n\
         \n\
         {}\n\
         {}\n\
         {}\n\
         {}",
        graph_usage(),
        conform_usage(),
        profile_usage(),
        serve_usage(),
        trace_usage(),
    )
}

fn print_help() {
    println!("{}", usage());
}
