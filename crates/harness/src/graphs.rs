//! The paper's tables and graphs, declared.
//!
//! Every report `hpcnet-report` prints is a `TableSpec` value: its title
//! and unit, a lineup of profile columns behind an optional native
//! column, a cell scale and its `(label, entry id)` rows. One runner,
//! `time_table`, reads a declaration and times every cell through
//! [`crate::measure`] on a fresh VM, joining the VM's threads before the
//! next cell starts; `opt` declares count cells instead of timed ones.
//! Graph 9 is not timed on its own: it is the per-column mean of Graph
//! 10's table at both memory models. See DESIGN.md §4 for the experiment
//! index and EXPERIMENTS.md for recorded paper-vs-measured comparisons.

use crate::measure::{native_baseline, time_entry, time_native, MeasureError, Measurement};
use crate::report::Table;
use hpcnet_core::{find_entry, run_entry, vm_for, Entry, PassConfig, VmProfile};
use std::time::Duration;

/// Harness configuration.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Minimum wall time per measurement.
    pub min_time: Duration,
    /// Use the paper's large memory-model sizes.
    pub large: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            min_time: Duration::from_millis(250),
            large: false,
        }
    }
}

impl Config {
    /// Fast configuration for smoke tests.
    pub fn quick() -> Config {
        Config {
            min_time: Duration::from_millis(30),
            large: false,
        }
    }

    /// Problem size for an entry under this configuration's memory model.
    pub fn n_for(&self, e: &Entry) -> i32 {
        if self.large {
            e.large_n
        } else {
            e.small_n
        }
    }
}

/// What a table cell holds.
enum Cell {
    /// The steady-state rate of the measurement protocol, with its note.
    Rate,
    /// Bounds checks the JIT eliminated in one untimed run.
    ChecksEliminated,
}

/// One paper table, declared: everything [`time_table`] needs to fill it.
struct TableSpec {
    title: String,
    unit: &'static str,
    /// Label of a native-baseline first column, if the table has one.
    native: Option<&'static str>,
    /// One column per profile, after the native column.
    profiles: Vec<VmProfile>,
    /// Factor applied to every rate (`1e-6` for MFlops).
    scale: f64,
    cell: Cell,
    /// `(row label, benchmark entry id)`, in row order.
    rows: &'static [(&'static str, &'static str)],
}

impl TableSpec {
    /// Rate cells, unscaled, with no native column.
    fn new(
        title: impl Into<String>,
        unit: &'static str,
        profiles: Vec<VmProfile>,
        rows: &'static [(&'static str, &'static str)],
    ) -> TableSpec {
        TableSpec { title: title.into(), unit, native: None, profiles, scale: 1.0, cell: Cell::Rate, rows }
    }

    /// The table's title, unit and columns, with no rows yet.
    fn header(&self) -> Table {
        let mut t = Table::new(&self.title, self.unit);
        for col in self.native.into_iter().chain(self.profiles.iter().map(|p| p.name)) {
            t.add_column(col);
        }
        t
    }
}

/// A timed cell: the scaled rate and its note. A failed measurement
/// aborts the report (kernel traps and nondeterministic checksums are
/// bugs, not data).
fn rated(m: Result<Measurement, MeasureError>, scale: f64) -> (f64, String) {
    let m = m.unwrap_or_else(|err| panic!("{err}"));
    (m.rate * scale, m.note)
}

/// Fill a declared table: every row's entry on the native baseline (if
/// declared) and on each profile, one fresh VM per cell, its threads
/// joined before the next cell starts.
fn time_table(spec: &TableSpec, cfg: &Config) -> Table {
    let mut table = spec.header();
    for &(label, id) in spec.rows {
        let (group, e) = find_entry(id).unwrap_or_else(|| panic!("no benchmark entry {id}"));
        let n = cfg.n_for(&e);
        let mut cells = Vec::new();
        if spec.native.is_some() {
            let f = native_baseline(id, n).unwrap_or_else(|| panic!("no native baseline for {id}"));
            cells.push(rated(time_native(f, (e.ops)(n), cfg.min_time), spec.scale));
        }
        for p in &spec.profiles {
            let vm = vm_for(&group, *p);
            cells.push(match spec.cell {
                Cell::Rate => rated(time_entry(&vm, &e, n, cfg.min_time), spec.scale),
                Cell::ChecksEliminated => {
                    run_entry(&vm, &e, n).unwrap_or_else(|err| panic!("{id} on {}: {err}", p.name));
                    (vm.counters.snapshot().bounds_checks_eliminated as f64, String::new())
                }
            });
            vm.join_all_threads();
        }
        let (values, notes) = cells.into_iter().unzip();
        table.add_row_noted(label, values, notes);
    }
    table
}

const SCIMARK_ENTRIES: &[(&str, &str)] = &[
    ("FFT", "scimark.fft"),
    ("SOR", "scimark.sor"),
    ("MonteCarlo", "scimark.montecarlo"),
    ("Sparse", "scimark.sparse"),
    ("LU", "scimark.lu"),
];

/// The ablation's columns: CLR 1.1, then CLR 1.1 with one Section-5
/// mechanism removed per column.
fn ablation_profiles() -> [VmProfile; 5] {
    let clr = VmProfile::clr11();
    // `bce` gates every bounds-check elision mechanism.
    let mut no_bce = clr;
    no_bce.name = "CLR - BCE";
    no_bce.passes.bce = false;
    let mut no_inline = clr;
    no_inline.name = "CLR - inlining";
    no_inline.passes.inline = false;
    let mut no_enreg = clr;
    no_enreg.name = "CLR 4 regs";
    no_enreg.max_enreg = 4;
    let mut no_passes = clr;
    no_passes.name = "CLR no passes";
    no_passes.passes = PassConfig::none();
    [clr, no_bce, no_inline, no_enreg, no_passes]
}

/// Every report's table declaration, by the name `hpcnet-report` takes;
/// `None` for `g9`, which is derived from `g10`, and for unknown names.
fn declared(name: &str, cfg: &Config) -> Option<TableSpec> {
    let micro = |title, unit, rows| TableSpec::new(title, unit, VmProfile::micro_lineup(), rows);
    Some(match name {
        // Graphs 1–2: integer arithmetic across the four micro-bench runtimes.
        "g1" => micro("Graph 1-2: Integer Arithmetic (ops/sec)", "ops/sec", &[
            ("Addition (int)", "arith.add.int"),
            ("Multiplication (int)", "arith.mult.int"),
            ("Division (int)", "arith.div.int"),
            ("Addition (long)", "arith.add.long"),
            ("Multiplication (long)", "arith.mult.long"),
            ("Division (long)", "arith.div.long"),
        ]),
        "g3" => micro("Graph 3: Floating Point Arithmetic (ops/sec)", "ops/sec", &[
            ("Add-Float", "arith.add.float"),
            ("Multiply-Float", "arith.mult.float"),
            ("Division-Float", "arith.div.float"),
            ("Add-Double", "arith.add.double"),
            ("Multiply-Double", "arith.mult.double"),
            ("Division-Double", "arith.div.double"),
        ]),
        "g4" => micro("Graph 4: Loop Performance (iterations/sec)", "iter/sec", &[
            ("For", "loop.for"),
            ("ReverseFor", "loop.reversefor"),
            ("While", "loop.while"),
        ]),
        "g5" => micro("Graph 5: Exception Handling (exceptions/sec)", "exc/sec", &[
            ("Throw", "exception.throw"),
            ("New", "exception.new"),
            ("Method", "exception.method"),
        ]),
        // Graphs 6–8: the math library — abs/max/min, trigonometry, the rest.
        "g6" => micro("Graph 6: Math Library I (calls/sec)", "calls/sec", &[
            ("AbsInt", "math.abs.int"),
            ("AbsLong", "math.abs.long"),
            ("AbsFloat", "math.abs.float"),
            ("AbsDouble", "math.abs.double"),
            ("MaxInt", "math.max.int"),
            ("MaxLong", "math.max.long"),
            ("MaxFloat", "math.max.float"),
            ("MaxDouble", "math.max.double"),
            ("MinInt", "math.min.int"),
            ("MinLong", "math.min.long"),
            ("MinFloat", "math.min.float"),
            ("MinDouble", "math.min.double"),
        ]),
        "g7" => micro("Graph 7: Math Library II (calls/sec)", "calls/sec", &[
            ("SinDouble", "math.sin"),
            ("CosDouble", "math.cos"),
            ("TanDouble", "math.tan"),
            ("AsinDouble", "math.asin"),
            ("AcosDouble", "math.acos"),
            ("AtanDouble", "math.atan"),
            ("Atan2Double", "math.atan2"),
        ]),
        "g8" => micro("Graph 8: Math Library III (calls/sec)", "calls/sec", &[
            ("FloorDouble", "math.floor"),
            ("CeilDouble", "math.ceil"),
            ("SqrtDouble", "math.sqrt"),
            ("ExpDouble", "math.exp"),
            ("LogDouble", "math.log"),
            ("PowDouble", "math.pow"),
            ("RintDouble", "math.rint"),
            ("Random", "math.random"),
            ("RoundFloat", "math.round.float"),
            ("RoundDouble", "math.round.double"),
        ]),
        // Graphs 10–11: per-kernel SciMark MFlops for one memory model.
        "g10" => {
            let (graph, model) = if cfg.large { (11, "large") } else { (10, "small") };
            TableSpec {
                native: Some("MS - C (native)"),
                scale: 1e-6,
                ..TableSpec::new(
                    format!("Graph {graph}: SciMark kernels, {model} memory model (MFlops)"),
                    "MFlops",
                    VmProfile::scimark_lineup(),
                    SCIMARK_ENTRIES,
                )
            }
        }
        // Graph 12: matrix styles; the paper shows CLR 1.1, we sweep all
        // three CLIs for context.
        "g12" => TableSpec::new(
            "Graph 12: Matrix styles (element copies/sec)",
            "copies/sec",
            VmProfile::cli_lineup(),
            &[
                ("multidim value", "matrix.multi.value"),
                ("jagged value", "matrix.jagged.value"),
                ("multidim object", "matrix.multi.object"),
                ("jagged object", "matrix.jagged.object"),
            ],
        ),
        "t2" => TableSpec::new(
            "Table 2: Threaded micro suite (events/sec)",
            "events/sec",
            vec![VmProfile::clr11(), VmProfile::jvm_ibm131(), VmProfile::mono023()],
            &[
                ("Barrier (simple)", "barrier.simple"),
                ("Barrier (tournament)", "barrier.tournament"),
                ("ForkJoin", "forkjoin"),
                ("Sync (method)", "sync.method"),
                ("Sync (block)", "sync.block"),
            ],
        ),
        // Table 4 macro suite: application kernels relative to native.
        "t4" => TableSpec {
            native: Some("native"),
            ..TableSpec::new(
                "Table 4: Application kernels (work units/sec)",
                "units/sec",
                vec![VmProfile::clr11(), VmProfile::jvm_ibm131(), VmProfile::mono023(), VmProfile::sscli10()],
                &[
                    ("Fibonacci", "app.fibonacci"),
                    ("Sieve", "app.sieve"),
                    ("Hanoi", "app.hanoi"),
                    ("HeapSort", "app.heapsort"),
                    ("Crypt (IDEA)", "app.crypt"),
                    ("MolDyn", "app.moldyn"),
                    ("Euler", "app.euler"),
                    ("Search", "app.search"),
                    ("RayTracer", "app.raytracer"),
                ],
            )
        },
        // How much each Section-5 mechanism contributes on SciMark.
        "ablation" => TableSpec {
            scale: 1e-6,
            ..TableSpec::new(
                "Ablation: CLR 1.1 with mechanisms removed (SciMark, MFlops)",
                "MFlops",
                ablation_profiles().to_vec(),
                SCIMARK_ENTRIES,
            )
        },
        // The Section 5 "eliminating array bounds checking" mechanism as
        // counts (docs/OPTIMIZATIONS.md maps every mechanism to its
        // `PassConfig` knob): each cell runs its kernel once, untimed.
        "opt" => TableSpec {
            cell: Cell::ChecksEliminated,
            ..TableSpec::new(
                "Optimization: array bounds checks eliminated at JIT time (SciMark)",
                "checks eliminated (static count per kernel)",
                VmProfile::scimark_lineup(),
                SCIMARK_ENTRIES,
            )
        },
        _ => return None,
    })
}

/// Graph 9, the SciMark composite: each column of Graph 10's table at the
/// small and the large memory model, averaged over the five kernels,
/// becomes a row.
fn composite(small: &Table, large: &Table) -> Table {
    let mut t = Table::new("Graph 9: SciMark composite (MFlops)", "MFlops");
    t.add_column("small model");
    t.add_column("large model");
    let mean = |t: &Table, c: usize| {
        t.rows.iter().map(|(_, cells)| cells[c]).sum::<f64>() / t.rows.len() as f64
    };
    for (c, label) in small.columns.iter().enumerate() {
        t.add_row(label, vec![mean(small, c), mean(large, c)]);
    }
    t
}

/// Report `name` with each of its declared tables filled by `fill`
/// ([`time_table`] to measure; the tests fill in nothing); `None` for an
/// unknown name.
fn build(name: &str, cfg: &Config, fill: fn(&TableSpec, &Config) -> Table) -> Option<Table> {
    if name == "g9" {
        let [small, large] = [false, true].map(|large| {
            let cfg = Config { large, ..*cfg };
            fill(&declared("g10", &cfg).expect("g10 is declared"), &cfg)
        });
        return Some(composite(&small, &large));
    }
    Some(fill(&declared(name, cfg)?, cfg))
}

/// Time report `name`; panics on a name [`all_reports`] does not list.
pub fn run(name: &str, cfg: &Config) -> Table {
    build(name, cfg, time_table).unwrap_or_else(|| panic!("no report {name}"))
}

/// Every report's name, in the order `hpcnet-report all` prints them.
pub fn all_reports() -> &'static [&'static str] {
    &["g1", "g3", "g4", "g5", "g6", "g7", "g8", "g9", "g10", "g12", "t2", "t4", "ablation", "opt"]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One untimed run of a SciMark kernel on a fresh VM; its counters.
    fn counters_after(p: VmProfile, id: &str) -> hpcnet_core::CountersSnapshot {
        let (g, e) = find_entry(id).unwrap();
        let vm = vm_for(&g, p);
        run_entry(&vm, &e, e.small_n).unwrap_or_else(|err| panic!("{id}: {err}"));
        vm.counters.snapshot()
    }

    /// The acceptance check for the loop-aware tier, read off the `opt`
    /// report's own table: the optimizing CLR drops bounds checks in the
    /// SciMark SOR sweep and the sparse matmult, while Mono (no loop
    /// passes) keeps every check. The table counts the structural BCE
    /// pass too, so loop detection on CLR is checked on its own counter.
    #[test]
    fn clr_eliminates_scimark_bounds_checks_and_mono_does_not() {
        let t = run("opt", &Config::quick());
        let col = |name: &str| t.columns.iter().position(|c| c == name).unwrap();
        let (clr, mono) = (col(VmProfile::clr11().name), col(VmProfile::mono023().name));
        for (label, eid) in [("SOR", "scimark.sor"), ("Sparse", "scimark.sparse")] {
            let (_, cells) = t.rows.iter().find(|(l, _)| l == label).unwrap();
            assert!(cells[clr] > 0.0, "{label}: CLR 1.1 should eliminate checks");
            assert_eq!(cells[mono], 0.0, "{label}: Mono 0.23 has no BCE at all");
            let loops = counters_after(VmProfile::clr11(), eid).loops_found;
            assert!(loops > 0, "{label}: CLR 1.1 finds loops");
        }
    }

    /// The ablation's "CLR - BCE" column really has no bounds-check
    /// elision: one untimed run of each SciMark kernel eliminates no check
    /// there, while full CLR 1.1 eliminates some on SOR, Sparse and LU.
    #[test]
    fn ablation_without_bce_eliminates_no_bounds_checks() {
        let [clr, no_bce, ..] = ablation_profiles();
        let eliminated = |p, eid| counters_after(p, eid).bounds_checks_eliminated;
        for (label, eid) in SCIMARK_ENTRIES {
            assert_eq!(eliminated(no_bce, eid), 0, "{label}: {} elides a check", no_bce.name);
        }
        for eid in ["scimark.sor", "scimark.sparse", "scimark.lu"] {
            assert!(eliminated(clr, eid) > 0, "{eid}: CLR 1.1 elides no check");
        }
    }

    /// Every declared row names a registry entry, and every table with a
    /// native column has a native baseline for each row. Timing a table
    /// is the only other place a misspelled id would show.
    #[test]
    fn every_declared_row_resolves() {
        for name in all_reports() {
            for large in [false, true] {
                let Some(spec) = declared(name, &Config { large, ..Config::quick() }) else {
                    assert_eq!(*name, "g9", "{name} declares no table");
                    continue;
                };
                for (label, id) in spec.rows {
                    assert!(find_entry(id).is_some(), "{name} / {label}: no entry {id}");
                    let native = native_baseline(id, 1).is_some();
                    assert!(native || spec.native.is_none(), "{name} / {label}: no native {id}");
                }
            }
        }
    }

    /// The whole grid with every cell missing: what the table looks like
    /// without timing anything.
    fn layout(spec: &TableSpec, _: &Config) -> Table {
        let mut t = spec.header();
        for (label, _) in spec.rows {
            t.add_row(label, vec![f64::NAN; t.columns.len()]);
        }
        t
    }

    const MICRO: &[&str] = &["Java IBM 1.3.1", "C# .NET 1.1", "Mono-0.23", "Rotor 1.0"];
    const SCIMARK: &[&str] = &["Java IBM 1.3.1", "C# .NET 1.1", "Java BEA JRockit 8.1",
        "J# .NET 1.1", "Java Sun 1.4", "Mono-0.23", "Rotor 1.0"];
    const KERNELS: &[&str] = &["FFT", "SOR", "MonteCarlo", "Sparse", "LU"];

    /// Every report keeps the title, unit, column and row labels it
    /// printed before its tables were declarations — read off the
    /// layouts, without timing a cell.
    #[test]
    fn every_report_keeps_its_layout() {
        let native_scimark: Vec<&str> = ["MS - C (native)"].iter().chain(SCIMARK).copied().collect();
        // (name, title, unit, columns, row labels)
        type Layout<'a> = (&'a str, &'a str, &'a str, &'a [&'a str], &'a [&'a str]);
        let expected: [Layout; 14] = [
            ("g1", "Graph 1-2: Integer Arithmetic (ops/sec)", "ops/sec", MICRO, &[
                "Addition (int)", "Multiplication (int)", "Division (int)",
                "Addition (long)", "Multiplication (long)", "Division (long)"]),
            ("g3", "Graph 3: Floating Point Arithmetic (ops/sec)", "ops/sec", MICRO, &[
                "Add-Float", "Multiply-Float", "Division-Float",
                "Add-Double", "Multiply-Double", "Division-Double"]),
            ("g4", "Graph 4: Loop Performance (iterations/sec)", "iter/sec", MICRO,
                &["For", "ReverseFor", "While"]),
            ("g5", "Graph 5: Exception Handling (exceptions/sec)", "exc/sec", MICRO,
                &["Throw", "New", "Method"]),
            ("g6", "Graph 6: Math Library I (calls/sec)", "calls/sec", MICRO, &[
                "AbsInt", "AbsLong", "AbsFloat", "AbsDouble", "MaxInt", "MaxLong",
                "MaxFloat", "MaxDouble", "MinInt", "MinLong", "MinFloat", "MinDouble"]),
            ("g7", "Graph 7: Math Library II (calls/sec)", "calls/sec", MICRO, &[
                "SinDouble", "CosDouble", "TanDouble", "AsinDouble", "AcosDouble",
                "AtanDouble", "Atan2Double"]),
            ("g8", "Graph 8: Math Library III (calls/sec)", "calls/sec", MICRO, &[
                "FloorDouble", "CeilDouble", "SqrtDouble", "ExpDouble", "LogDouble",
                "PowDouble", "RintDouble", "Random", "RoundFloat", "RoundDouble"]),
            ("g9", "Graph 9: SciMark composite (MFlops)", "MFlops",
                &["small model", "large model"], &native_scimark),
            ("g10", "Graph 10: SciMark kernels, small memory model (MFlops)", "MFlops",
                &native_scimark, KERNELS),
            ("g12", "Graph 12: Matrix styles (element copies/sec)", "copies/sec",
                &["C# .NET 1.1", "Mono-0.23", "Rotor 1.0"],
                &["multidim value", "jagged value", "multidim object", "jagged object"]),
            ("t2", "Table 2: Threaded micro suite (events/sec)", "events/sec",
                &["C# .NET 1.1", "Java IBM 1.3.1", "Mono-0.23"], &[
                "Barrier (simple)", "Barrier (tournament)", "ForkJoin", "Sync (method)",
                "Sync (block)"]),
            ("t4", "Table 4: Application kernels (work units/sec)", "units/sec",
                &["native", "C# .NET 1.1", "Java IBM 1.3.1", "Mono-0.23", "Rotor 1.0"], &[
                "Fibonacci", "Sieve", "Hanoi", "HeapSort", "Crypt (IDEA)", "MolDyn", "Euler",
                "Search", "RayTracer"]),
            ("ablation", "Ablation: CLR 1.1 with mechanisms removed (SciMark, MFlops)", "MFlops",
                &["C# .NET 1.1", "CLR - BCE", "CLR - inlining", "CLR 4 regs", "CLR no passes"],
                KERNELS),
            ("opt", "Optimization: array bounds checks eliminated at JIT time (SciMark)",
                "checks eliminated (static count per kernel)", SCIMARK, KERNELS),
        ];
        let names: Vec<&str> = expected.iter().map(|e| e.0).collect();
        assert_eq!(all_reports(), names);
        for (name, title, unit, columns, rows) in expected {
            let t = build(name, &Config::quick(), layout).unwrap();
            assert_eq!((t.title.as_str(), t.unit.as_str()), (title, unit), "{name}");
            assert_eq!(t.columns, columns, "{name} columns");
            let labels: Vec<&str> = t.rows.iter().map(|(l, _)| l.as_str()).collect();
            assert_eq!(labels, rows, "{name} rows");
        }
        let large = Config { large: true, ..Config::quick() };
        let g11 = build("g10", &large, layout).unwrap();
        assert_eq!(g11.title, "Graph 11: SciMark kernels, large memory model (MFlops)");
    }
}
