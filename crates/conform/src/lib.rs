//! # conform — differential conformance fuzzing for the HPC.NET VMs
//!
//! The paper's methodology (Section 5) attributes every timing difference
//! to JIT quality, which is only sound if every runtime computes the *same
//! answers* from the same CIL. This crate turns that invariant into a
//! generative test:
//!
//! 1. **Generate** ([`gen`]): a seeded, deterministic MiniC# program —
//!    typed expression/statement trees over ints, longs, doubles, bools,
//!    1-D/jagged/rectangular arrays, `arr.Length` loops with mutated
//!    bounds, helper calls and bounded recursion, div/rem edge cases, and
//!    try/catch/finally regions.
//! 2. **Gate** ([`matrix::compile_verified`]): the program compiles
//!    through `minics` and must pass `verify_module`. Rejection is a
//!    generator bug, never a test case.
//! 3. **Execute** ([`matrix::run_matrix`]): the verified module runs under
//!    every [`hpcnet_vm::VmProfile`] of the paper's lineup, each
//!    register-tier profile expanded over all four `abce`/`licm` pass
//!    combinations, plus a clean direct-interpretation oracle — asserting
//!    bitwise-identical results (floats compare by bit pattern) or
//!    identical traps (by exception class), console output included.
//! 4. **Shrink** ([`shrink`]): any diverging program is greedily minimized
//!    and written to `conform/corpus/` with the divergence report and a
//!    disassembly, ready to replay.
//!
//! Bounded mode (`cargo test -q -p conform`) runs a fixed seed range as
//! part of tier-1; `hpcnet-report conform` runs the same sweep from the
//! command line and prints per-opcode emitted/executed coverage.

pub mod fleet;
pub mod gen;
pub mod matrix;
pub mod shrink;

use gen::{render, Program};
use hpcnet_core::MetricsRegistry;
pub use hpcnet_core::{MetricValue, MetricsSnapshot};
use hpcnet_vm::ObserveLevel;
use matrix::{compile_verified, run_matrix_at, Coverage, Divergence, ResetAgg};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Sweep configuration.
#[derive(Clone, Debug)]
pub struct ConformConfig {
    /// Number of programs (seeds `start_seed..start_seed + programs`).
    pub programs: u64,
    pub start_seed: u64,
    /// Where minimized reproducers are written; `None` disables writing.
    pub corpus_dir: Option<PathBuf>,
    /// Attribution-profiler level applied to every engine. `Off` for the
    /// standard sweep; raising it proves observability is side-effect-free
    /// (any behavioral change surfaces as a divergence).
    pub observe: ObserveLevel,
    /// Fleet worker threads; `0` uses the machine's available
    /// parallelism. The report is byte-identical for any worker count.
    pub workers: usize,
    /// Seeds per scheduling wave (`0` = default). Novelty ranking is
    /// recomputed between waves; see [`fleet`].
    pub wave: usize,
}

impl Default for ConformConfig {
    fn default() -> Self {
        ConformConfig {
            programs: 200,
            start_seed: 1,
            corpus_dir: Some(default_corpus_dir()),
            observe: ObserveLevel::Off,
            workers: 0,
            wave: 0,
        }
    }
}

/// `conform/corpus/` at the repository root.
pub fn default_corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../conform/corpus")
}

/// A divergence, after minimization, as recorded in the report.
#[derive(Clone, Debug)]
pub struct DivergenceRecord {
    pub seed: u64,
    /// First divergence of the minimized program.
    pub detail: Divergence,
    /// Where the reproducer was written (if a corpus dir was configured).
    pub reproducer: Option<PathBuf>,
    /// Candidate evaluations the shrinker spent.
    pub shrink_attempts: usize,
}

/// Aggregate result of a conformance sweep.
#[derive(Clone, Debug, Default)]
pub struct ConformReport {
    pub programs: u64,
    pub engines: usize,
    /// Total program-input-engine executions.
    pub runs: usize,
    /// Programs the front end rejected (generator bugs — must be zero).
    pub rejected: Vec<String>,
    pub divergent: Vec<DivergenceRecord>,
    pub coverage: Coverage,
    /// Snapshot-reset reuse and compile-sharing totals across the sweep.
    pub resets: ResetAgg,
    /// Sweep facts (run counts, coverage kinds, reset reuse, compile
    /// sharing) as one canonical metrics snapshot. Every entry is a
    /// pure function of the seed range alone: [`ConformReport::render`]
    /// includes it, and CI byte-compares that rendering across worker
    /// counts AND wave sizes.
    pub metrics: MetricsSnapshot,
    /// Fleet schedule metrics (wave count, wave sizes, scheduled-seed
    /// novelty). Worker-count-independent but deliberately wave-shaped,
    /// so they render separately ([`ConformReport::render_schedule`]),
    /// outside the wave-invariant report body.
    pub schedule: MetricsSnapshot,
}

impl ConformReport {
    /// Human-readable report: summary, divergences, per-opcode coverage.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "conform: {} programs x {} engines = {} executions\n",
            self.programs, self.engines, self.runs
        ));
        out.push_str(&format!(
            "rejected by compiler/verifier: {}\n",
            self.rejected.len()
        ));
        for r in &self.rejected {
            out.push_str(&format!("  REJECT {r}\n"));
        }
        out.push_str(&format!("divergences: {}\n", self.divergent.len()));
        for d in &self.divergent {
            out.push_str(&format!(
                "  DIVERGE seed {} input {:?} engine {}\n    oracle: {}\n    got:    {}\n",
                d.seed, d.detail.input, d.detail.engine, d.detail.oracle.result, d.detail.got.result
            ));
            if let Some(p) = &d.reproducer {
                out.push_str(&format!("    reproducer: {}\n", p.display()));
            }
        }
        out.push_str("sweep metrics:\n");
        out.push_str(&self.metrics.render());
        out.push_str("per-opcode coverage (emitted / executed):\n");
        for (i, name) in hpcnet_cil::OP_KIND_NAMES.iter().enumerate() {
            let (e, x) = (self.coverage.emitted[i], self.coverage.executed[i]);
            if e > 0 || x > 0 {
                let mark = if e > 0 && x == 0 { "  <-- NEVER EXECUTED" } else { "" };
                out.push_str(&format!("  {name:<14} {e:>8} / {x:>8}{mark}\n"));
            }
        }
        let missing = self.coverage.emitted_unexecuted();
        if missing.is_empty() {
            out.push_str("every generator-emitted opcode kind executed at least once\n");
        } else {
            out.push_str(&format!("UNEXECUTED emitted kinds: {missing:?}\n"));
        }
        out
    }

    /// The fleet schedule snapshot as text — printed apart from
    /// [`ConformReport::render`] because wave size legitimately shapes
    /// it (the wave-invariance check byte-compares `render()` only).
    pub fn render_schedule(&self) -> String {
        let mut out = String::from("fleet schedule (worker-count-independent, wave-shaped):\n");
        out.push_str(&self.schedule.render());
        out
    }

    /// True when the sweep is fully clean.
    pub fn ok(&self) -> bool {
        self.rejected.is_empty() && self.divergent.is_empty()
    }
}

/// Write a minimized reproducer: header with the divergence, the MiniC#
/// source, and an ILDASM-style disassembly of the generated class.
fn write_reproducer(dir: &Path, seed: u64, p: &Program, d: &Divergence) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let src = render(p);
    let mut text = String::new();
    text.push_str(&format!(
        "// conform reproducer — seed {seed}\n\
         // replay: see docs/TESTING.md (\"Replaying a corpus reproducer\")\n\
         // input: Gen.Run({}, {})\n\
         // engine: {}\n\
         // oracle result: {}\n\
         // diverging result: {}\n",
        d.input.0, d.input.1, d.engine, d.oracle.result, d.got.result
    ));
    if d.oracle.console != d.got.console {
        text.push_str(&format!(
            "// oracle console: {:?}\n// diverging console: {:?}\n",
            d.oracle.console, d.got.console
        ));
    }
    text.push('\n');
    text.push_str(&src);
    if let Ok(module) = compile_verified(&src) {
        text.push_str("\n/* disassembly\n");
        if let Some(run) = module.find_method("Gen.Run") {
            text.push_str(&hpcnet_cil::disasm::disassemble(&module, run));
        }
        text.push_str("*/\n");
    }
    let path = dir.join(format!("seed-{seed}.cs"));
    std::fs::write(&path, text)?;
    Ok(path)
}

/// Run a conformance sweep: generate → gate → execute everywhere (in
/// parallel, coverage-guided waves — see [`fleet`]) → shrink + persist
/// anything that diverges (serially, in seed order). The report is a pure
/// function of the configuration's seed range: worker count and wave size
/// never change a byte of it.
pub fn run_conformance(cfg: &ConformConfig) -> ConformReport {
    let mut report = ConformReport {
        programs: cfg.programs,
        engines: matrix::engine_matrix().len(),
        ..Default::default()
    };
    let (runs, schedule) = fleet::execute_sweep(cfg);
    for run in runs {
        let seed = run.case.seed;
        let res = match (&run.case.compiled, run.result) {
            (Err(e), _) => {
                report.rejected.push(format!("seed {seed}: {e}"));
                continue;
            }
            (Ok(_), Some(res)) => res,
            (Ok(_), None) => unreachable!("compiled seed not executed"),
        };
        report.runs += res.runs;
        report.coverage.merge(&res.coverage);
        report.resets.merge(&res.resets);
        if res.divergences.is_empty() {
            continue;
        }
        // Phase C: minimize serially. The shrinker mutates one program at
        // a time; determinism matters more than parallelism here.
        let (small, attempts) = shrink::shrink(run.case.program);
        // Re-derive the divergence from the minimized program (fall back
        // to the original's if shrinking somehow lost it). The shrinker
        // itself runs unobserved; it only needs diverges-or-not.
        let detail = match compile_verified(&render(&small)) {
            Ok(m) => run_matrix_at(&Arc::new(m), &small.inputs, cfg.observe)
                .divergences
                .into_iter()
                .next()
                .unwrap_or_else(|| res.divergences[0].clone()),
            Err(_) => res.divergences[0].clone(),
        };
        let reproducer = cfg
            .corpus_dir
            .as_deref()
            .and_then(|dir| write_reproducer(dir, seed, &small, &detail).ok());
        report.divergent.push(DivergenceRecord {
            seed,
            detail,
            reproducer,
            shrink_attempts: attempts,
        });
    }
    // The sweep registry: run counts, coverage, reset reuse, and compile
    // sharing — pure functions of the seed range, never of scheduling or
    // wave size, so they belong in the byte-compared report body.
    let mut metrics = MetricsRegistry::new();
    metrics.inc("conform.runs", report.runs as u64);
    metrics.inc("conform.divergences", report.divergent.len() as u64);
    metrics.inc("conform.seeds.rejected", report.rejected.len() as u64);
    metrics.inc(
        "conform.seeds.compiled",
        report.programs - report.rejected.len() as u64,
    );
    metrics.inc(
        "coverage.kinds_emitted",
        report.coverage.emitted.iter().filter(|&&n| n > 0).count() as u64,
    );
    metrics.inc(
        "coverage.kinds_executed",
        report.coverage.executed.iter().filter(|&&n| n > 0).count() as u64,
    );
    metrics.inc("reset.snapshots", report.resets.snapshots);
    metrics.inc("reset.fresh_builds", report.resets.fresh_builds);
    metrics.inc("reset.resets", report.resets.resets);
    metrics.inc("reset.objects_restored", report.resets.objects_restored);
    metrics.inc("reset.objects_tracked", report.resets.objects_tracked);
    metrics.inc("reset.statics_restored", report.resets.statics_restored);
    metrics.inc("share.front_hits", report.resets.front_hits);
    metrics.inc("share.front_misses", report.resets.front_misses);
    report.metrics = metrics.snapshot();
    report.schedule = schedule.snapshot();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_is_clean() {
        let report = run_conformance(&ConformConfig {
            programs: 5,
            start_seed: 900,
            corpus_dir: None,
            observe: ObserveLevel::Off,
            workers: 2,
            wave: 0,
        });
        assert!(report.ok(), "{}", report.render());
        assert_eq!(report.engines, 50);
        assert_eq!(report.runs, 5 * 3 * 50);
    }

    #[test]
    fn report_renders_coverage_table() {
        let report = run_conformance(&ConformConfig {
            programs: 2,
            start_seed: 50,
            corpus_dir: None,
            observe: ObserveLevel::Off,
            workers: 1,
            wave: 0,
        });
        let text = report.render();
        assert!(text.contains("per-opcode coverage"));
        assert!(text.contains("ldc.i4"), "{text}");
    }

    #[test]
    fn observed_sweep_is_clean_and_matches_unobserved() {
        // Full-trace observability must be invisible to program behavior:
        // identical run counts, identical (empty) divergence sets.
        let cfg = |observe| ConformConfig {
            programs: 4,
            start_seed: 700,
            corpus_dir: None,
            observe,
            workers: 0,
            wave: 0,
        };
        let off = run_conformance(&cfg(ObserveLevel::Off));
        let traced = run_conformance(&cfg(ObserveLevel::Trace));
        assert!(traced.ok(), "{}", traced.render());
        assert_eq!(off.runs, traced.runs);
        assert_eq!(off.coverage.executed, traced.coverage.executed);
    }
}
