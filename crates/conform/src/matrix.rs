//! The execution matrix: one verified module, every engine.
//!
//! A generated program is compiled **once** through `minics`, gated on
//! [`verify_module`] (an unverifiable program is a generator bug, never a
//! test case), then executed under every [`VmProfile`] in the paper's
//! lineup — with each register-tier profile additionally expanded over the
//! four `bce`/`licm` pass combinations — plus a clean direct-interpretation
//! oracle. Results are normalized to strings that preserve bit identity
//! (`f64` results compare by bit pattern, traps by exception class name)
//! and every engine is compared against the oracle.

use crate::gen::{generate, render, Program};
use hpcnet_cil::{verify_module, Module, Op};
use hpcnet_minics::{compile, STARTUP_INIT};
use hpcnet_runtime::Value;
use hpcnet_vm::{ObserveLevel, OptShare, ResetStats, Tier, Vm, VmError, VmProfile};
use std::sync::Arc;

/// A labeled engine configuration. The label extends the profile name with
/// the pass-combination suffix so divergence reports are unambiguous.
#[derive(Clone)]
pub struct Engine {
    pub label: String,
    pub profile: VmProfile,
}

/// The direct-interpretation oracle: the stack interpreter with every
/// quirk knob off. Index 0 of [`engine_matrix`]; everything else is
/// compared against it.
pub fn oracle_profile() -> VmProfile {
    let mut p = VmProfile::sscli10();
    p.name = "oracle";
    p.portability_shim = false;
    p.exception_cost_units = 0;
    p
}

/// Every profile × every `bce`/`licm` combination, oracle first, with the
/// elision-cert audit enabled on every engine.
///
/// Interpreter-tier profiles have no optimization passes, so they appear
/// once; each register-tier profile of the SciMark lineup is expanded into
/// the four `bce`/`licm` combinations. `bce` gates every elision
/// mechanism (structural, idiom, range analysis and loop versioning), so
/// the matrix stays pinned at 50 engines while still exercising every
/// `BoundsMode` under audit.
pub fn engine_matrix() -> Vec<Engine> {
    let mut out =
        vec![Engine { label: "oracle".into(), profile: oracle_profile().with_audit(true) }];
    for base in VmProfile::scimark_lineup() {
        match base.tier {
            Tier::Interpreter => out.push(Engine {
                label: base.name.to_string(),
                profile: base.with_audit(true),
            }),
            Tier::Rir | Tier::Compiled => {
                for (bce, licm) in [(false, false), (true, false), (false, true), (true, true)] {
                    let mut p = base.with_audit(true);
                    p.passes.bce = bce;
                    p.passes.licm = licm;
                    out.push(Engine {
                        label: format!("{} [bce={} licm={}]", base.name, bce as u8, licm as u8),
                        profile: p,
                    });
                    // The same knobs again under the linear-scan allocator:
                    // both tiers run op records, so this twin
                    // cross-checks the two allocations of the same RIR.
                    let threaded = p.with_tier(Tier::Compiled);
                    out.push(Engine {
                        label: format!(
                            "{} [threaded bce={} licm={}]",
                            base.name, bce as u8, licm as u8
                        ),
                        profile: threaded,
                    });
                }
            }
        }
    }
    out
}

/// One engine's normalized observable behavior for one input: the result
/// string plus everything the program printed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunOutcome {
    pub result: String,
    pub console: Vec<String>,
}

fn norm_value(v: &Value) -> String {
    match v {
        Value::I4(x) => format!("i4:{x}"),
        Value::I8(x) => format!("i8:{x}"),
        Value::R4(x) => format!("r4:{:08x}", x.to_bits()),
        Value::R8(x) => format!("r8:{:016x}", x.to_bits()),
        Value::Ref(_) => "ref".into(),
        Value::Null => "null".into(),
    }
}

/// Normalize an invocation outcome to the matrix's comparison string
/// (`i8:…`, `trap:ClassName`, …). Public so corpus replay can check a
/// pinned `// oracle result:` header — including `trap:` pins — with
/// the exact normalization the sweep used to write it.
pub fn norm_result(vm: &Arc<Vm>, r: Result<Option<Value>, VmError>) -> String {
    match r {
        Ok(None) => "void".into(),
        Ok(Some(v)) => norm_value(&v),
        Err(VmError::Exception(obj)) => {
            let class = obj
                .class_id()
                .map(|c| vm.module.class(c).name.clone())
                .unwrap_or_else(|| "<classless>".into());
            format!("trap:{class}")
        }
        Err(VmError::Limit(_)) => "limit".into(),
        Err(VmError::Internal(msg)) => format!("internal:{msg}"),
    }
}

/// One engine disagreeing with the oracle on one input.
#[derive(Clone, Debug)]
pub struct Divergence {
    pub input: (i32, i32),
    pub engine: String,
    pub oracle: RunOutcome,
    pub got: RunOutcome,
}

/// Aggregated per-opcode coverage: how many instructions of each kind the
/// generated modules contain, and how many the oracle executed (its
/// observer's opcode histogram).
#[derive(Clone, Debug)]
pub struct Coverage {
    pub emitted: Vec<u64>,
    pub executed: Vec<u64>,
}

impl Default for Coverage {
    fn default() -> Self {
        Coverage { emitted: vec![0; Op::KIND_COUNT], executed: vec![0; Op::KIND_COUNT] }
    }
}

impl Coverage {
    pub fn merge(&mut self, other: &Coverage) {
        for i in 0..Op::KIND_COUNT {
            self.emitted[i] += other.emitted[i];
            self.executed[i] += other.executed[i];
        }
    }

    /// Kind names emitted by the generator but never executed anywhere.
    pub fn emitted_unexecuted(&self) -> Vec<&'static str> {
        (0..Op::KIND_COUNT)
            .filter(|&i| self.emitted[i] > 0 && self.executed[i] == 0)
            .map(|i| hpcnet_cil::OP_KIND_NAMES[i])
            .collect()
    }
}

/// Aggregated snapshot-reset reuse evidence: how the matrix (and the
/// fleet above it) amortized VM state across runs instead of rebuilding.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResetAgg {
    /// VMs constructed from scratch (one per engine per program).
    pub fresh_builds: u64,
    /// Snapshots captured (one per VM, after static initialization).
    pub snapshots: u64,
    /// Snapshot resets performed (one per input run).
    pub resets: u64,
    /// Heap objects tracked across all snapshots at reset time.
    pub objects_tracked: u64,
    /// Heap objects actually rewritten by resets (dirty-tracked subset).
    pub objects_restored: u64,
    /// Static slots rewritten by resets.
    pub statics_restored: u64,
    /// Compile front-half (lower+optimize) cache hits across engines.
    pub front_hits: u64,
    /// Compile front-half cache misses (unique compilations performed).
    pub front_misses: u64,
}

impl ResetAgg {
    pub fn merge(&mut self, other: &ResetAgg) {
        self.fresh_builds += other.fresh_builds;
        self.snapshots += other.snapshots;
        self.resets += other.resets;
        self.objects_tracked += other.objects_tracked;
        self.objects_restored += other.objects_restored;
        self.statics_restored += other.statics_restored;
        self.front_hits += other.front_hits;
        self.front_misses += other.front_misses;
    }

    fn absorb(&mut self, r: ResetStats) {
        self.resets += 1;
        self.objects_tracked += r.objects_tracked;
        self.objects_restored += r.objects_restored;
        self.statics_restored += r.statics_restored;
    }
}

/// What happened when one program was pushed through the whole matrix.
#[derive(Clone, Debug)]
pub struct ProgramResult {
    /// Engine executions performed (inputs × engines).
    pub runs: usize,
    pub divergences: Vec<Divergence>,
    pub coverage: Coverage,
    /// Snapshot-reset and compile-sharing statistics for this program.
    pub resets: ResetAgg,
}

/// Compile + verify, or explain why not. Both failure modes mean the
/// generator (or a shrink candidate) produced an invalid program.
pub fn compile_verified(src: &str) -> Result<Module, String> {
    let mut module = compile(src).map_err(|e| format!("compile: {e}"))?;
    verify_module(&mut module).map_err(|e| format!("verify: {e}"))?;
    Ok(module)
}

/// Scan the instruction stream of the generated classes (`Gen` and the
/// synthesized `$Startup`) and count opcode kinds. Prelude bodies are
/// excluded: they are not generator-emitted code.
fn scan_emitted(module: &Module, cov: &mut Coverage) {
    for (ci, class) in module.classes.iter().enumerate() {
        if class.name != "Gen" && class.name != "$Startup" {
            continue;
        }
        for mid in module.methods_of(hpcnet_cil::ClassId(ci as u32)) {
            for op in &module.method(mid).body.code {
                cov.emitted[op.kind_index()] += 1;
            }
        }
    }
}

/// Execute a *verified* module under every engine for every input pair and
/// compare each engine's observable behavior against the oracle's.
pub fn run_matrix(module: &Arc<Module>, inputs: &[(i32, i32)]) -> ProgramResult {
    run_matrix_at(module, inputs, ObserveLevel::Off)
}

/// [`run_matrix`] with every engine's attribution profiler raised to
/// `observe`. Used to prove the observability layer is side-effect-free:
/// the observed matrix must report exactly what the unobserved one does.
///
/// Execution discipline (the snapshot-reset tentpole): every engine VM of
/// a program is built from the *same* `Arc<Module>` and attached to one
/// shared compile front-half cache, so the 50 engines never re-clone the
/// module and tier pairs with identical pass configurations lower and
/// optimize each method once. Each VM runs the static initializer once,
/// snapshots, then runs every input from that snapshot with a dirty-
/// tracking reset in between — inputs are fully isolated from each other
/// while compiled code stays warm.
pub fn run_matrix_at(
    module: &Arc<Module>,
    inputs: &[(i32, i32)],
    observe: ObserveLevel,
) -> ProgramResult {
    let engines = engine_matrix();
    let mut coverage = Coverage::default();
    scan_emitted(module, &mut coverage);
    let share = Arc::new(OptShare::new());
    let mut resets = ResetAgg::default();

    // outcome[engine][input]
    let mut outcomes: Vec<Vec<RunOutcome>> = Vec::with_capacity(engines.len());
    let mut runs = 0usize;
    for (ei, eng) in engines.iter().enumerate() {
        // The oracle observes at least its counters: its opcode histogram
        // is the sweep's executed coverage.
        let level = if ei == 0 { observe.max(ObserveLevel::Counters) } else { observe };
        let vm = Vm::new_shared(module.clone(), eng.profile.with_observe(level));
        vm.set_opt_share(share.clone());
        resets.fresh_builds += 1;
        // Statics are per-VM: run the synthesized initializer once.
        let init = if vm.module.find_method(STARTUP_INIT).is_some() {
            vm.invoke_by_name(STARTUP_INIT, vec![]).map(|_| ())
        } else {
            Ok(())
        };
        // Capture the initialized state; every input replays from here.
        let snap = vm.snapshot();
        resets.snapshots += 1;
        let mut per_input = Vec::with_capacity(inputs.len());
        for &(a, b) in inputs {
            runs += 1;
            let result = match &init {
                Ok(()) => {
                    let r = vm.invoke_by_name("Gen.Run", vec![Value::I4(a), Value::I4(b)]);
                    norm_result(&vm, r)
                }
                Err(e) => format!("init-{}", norm_result(&vm, Err(e.clone()))),
            };
            per_input.push(RunOutcome { result, console: vm.take_console() });
            let reset = vm
                .reset_to(&snap)
                .expect("snapshot and VM are paired by construction");
            resets.absorb(reset);
        }
        if ei == 0 {
            let report = vm.observe_report().expect("the oracle observes");
            for m in &report.methods {
                for (total, n) in coverage.executed.iter_mut().zip(&m.op_kinds) {
                    *total += n;
                }
            }
        }
        outcomes.push(per_input);
    }
    let (front_hits, front_misses) = share.stats();
    resets.front_hits = front_hits;
    resets.front_misses = front_misses;

    let mut divergences = Vec::new();
    for (ei, eng) in engines.iter().enumerate().skip(1) {
        for (ii, &input) in inputs.iter().enumerate() {
            if outcomes[ei][ii] != outcomes[0][ii] {
                divergences.push(Divergence {
                    input,
                    engine: eng.label.clone(),
                    oracle: outcomes[0][ii].clone(),
                    got: outcomes[ei][ii].clone(),
                });
            }
        }
    }
    ProgramResult { runs, divergences, coverage, resets }
}

/// Convenience used by the shrinker: does this program (still) diverge?
/// Invalid candidates (that no longer compile or verify) count as "no".
pub fn program_diverges(p: &Program) -> bool {
    match compile_verified(&render(p)) {
        Ok(module) => !run_matrix(&Arc::new(module), &p.inputs).divergences.is_empty(),
        Err(_) => false,
    }
}

/// Run one seed end to end. `Err` means the generator produced a program
/// the front end rejected — a bug in `gen`, surfaced loudly.
pub fn run_seed(seed: u64) -> Result<(Program, ProgramResult), String> {
    run_seed_at(seed, ObserveLevel::Off)
}

/// [`run_seed`] with every engine's attribution profiler raised to
/// `observe` (see [`run_matrix_at`]).
pub fn run_seed_at(seed: u64, observe: ObserveLevel) -> Result<(Program, ProgramResult), String> {
    let p = generate(seed);
    let module = compile_verified(&render(&p)).map_err(|e| format!("seed {seed}: {e}"))?;
    let res = run_matrix_at(&Arc::new(module), &p.inputs, observe);
    Ok((p, res))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcnet_vm::PassConfig;
    use std::collections::HashMap;

    #[test]
    fn matrix_has_oracle_plus_expanded_lineup() {
        let m = engine_matrix();
        // oracle + Rotor + 6 register profiles × 4 pass combos × 2 tiers
        // (use-count and linear-scan allocation)
        assert_eq!(m.len(), 1 + 1 + 6 * 4 * 2);
        assert_eq!(m[0].label, "oracle");
        assert_eq!(m[0].profile.tier, Tier::Interpreter);
        assert!(!m[0].profile.portability_shim);
        let labels: Vec<&str> = m.iter().map(|e| e.label.as_str()).collect();
        assert!(labels.contains(&"C# .NET 1.1 [bce=1 licm=1]"), "{labels:?}");
        assert!(labels.contains(&"Java Sun 1.4 [bce=0 licm=0]"));
        assert!(labels.contains(&"C# .NET 1.1 [threaded bce=1 licm=1]"));
        assert!(labels.contains(&"Rotor 1.0"));
        let threaded = m
            .iter()
            .filter(|e| e.profile.tier == Tier::Compiled)
            .count();
        assert_eq!(threaded, 6 * 4);
        // Every register-tier base once per (bce, licm, ranking).
        let register: Vec<&Engine> =
            m.iter().filter(|e| e.profile.tier != Tier::Interpreter).collect();
        let bases = VmProfile::scimark_lineup().into_iter();
        for base in bases.filter(|b| b.tier != Tier::Interpreter) {
            for bce in [false, true] {
                for licm in [false, true] {
                    for tier in [Tier::Rir, Tier::Compiled] {
                        let n = register
                            .iter()
                            .filter(|e| {
                                let p = &e.profile;
                                p.name == base.name
                                    && (p.passes.bce, p.passes.licm, p.tier) == (bce, licm, tier)
                            })
                            .count();
                        assert_eq!(n, 1, "{} bce={bce} licm={licm} {tier:?}", base.name);
                    }
                }
            }
        }
        // 24 distinct pass configurations, each run by exactly its two
        // ranking twins: the conform report's `share.front_hits` (one
        // shared optimizer front half per configuration) rests on this.
        let mut by_passes: HashMap<PassConfig, Vec<Tier>> = HashMap::new();
        for e in &register {
            by_passes.entry(e.profile.passes).or_default().push(e.profile.tier);
        }
        assert_eq!(by_passes.len(), 24);
        for tiers in by_passes.values() {
            assert_eq!(tiers, &[Tier::Rir, Tier::Compiled]);
        }
    }

    #[test]
    fn trap_outcomes_normalize_to_class_names() {
        let module = compile_verified(
            "class Gen { static long Run(int a, int b) { int z = 0; return (long)(a / z); } }",
        )
        .unwrap();
        let module = Arc::new(module);
        let res = run_matrix(&module, &[(1, 0)]);
        assert!(res.divergences.is_empty(), "{:?}", res.divergences);
        // The matrix exercised the snapshot-reset path on every engine.
        assert_eq!(res.resets.fresh_builds, 50);
        assert_eq!(res.resets.snapshots, 50);
        assert_eq!(res.resets.resets, 50);
        // Re-run one engine directly to check the normalized string.
        let vm = Vm::new_shared(module.clone(), oracle_profile());
        let r = vm.invoke_by_name("Gen.Run", vec![Value::I4(1), Value::I4(0)]);
        assert_eq!(norm_result(&vm, r), "trap:DivideByZeroException");
    }

    #[test]
    fn float_results_compare_bitwise() {
        let module = compile_verified(
            "class Gen { static double Run(int a, int b) { return ((double)a / (double)b); } }",
        )
        .unwrap();
        let res = run_matrix(&Arc::new(module), &[(0, 0), (1, 0), (-1, 0)]);
        // NaN, +inf, -inf: all engines must produce identical bit patterns.
        assert!(res.divergences.is_empty(), "{:?}", res.divergences);
    }
}
