//! # hpcnet-core — public facade for the HPC.NET reproduction
//!
//! One import surface over the whole system:
//!
//! * compile MiniC# with [`compile`] / [`compile_and_load`];
//! * pick an engine with [`VmProfile`] (each models one of the paper's
//!   runtimes — CLR 1.1, Mono 0.23, SSCLI 1.0 "Rotor", IBM/Sun/BEA JVMs);
//! * run methods via [`Vm`], inspect generated code via [`print_rir`];
//! * access the full benchmark registry ([`registry()`]) with its native
//!   baselines ([`native`]).
//!
//! ```
//! use hpcnet_core::{compile_and_load, VmProfile, Value};
//!
//! let vm = compile_and_load(
//!     "class Hello { static int Answer() { return 6 * 7; } }",
//!     VmProfile::clr11(),
//! ).unwrap();
//! let r = vm.invoke_by_name("Hello.Answer", vec![]).unwrap();
//! assert_eq!(r.unwrap().as_i4(), 42);
//! ```

use std::sync::Arc;

pub mod json;
pub mod metrics;

pub use metrics::{Histogram, MetricValue, MetricsRegistry, MetricsSnapshot};

pub use hpcnet_cil::{disasm, MethodId, Module};
pub use hpcnet_grande::{
    compile_group, find_entry, registry, run_entry, vm_for, BenchGroup, Entry, Suite, Unit,
};
pub use hpcnet_grande::native;
pub use hpcnet_minics::{compile, CompileError, STARTUP_INIT};
pub use hpcnet_runtime::{Heap, JRandom, Obj, Value};
pub use hpcnet_cil::OP_KIND_NAMES;
pub use hpcnet_vm::machine::run_on_big_stack;
pub use hpcnet_vm::{
    print_rir, Counters, CountersSnapshot, EhDispatchKind, Event, JitOutcome, LoopRejectReason,
    MethodProfile, ObserveLevel, ObserveReport, PassConfig, PhaseTiming, ResetStats, Tier, Vm,
    VmError, VmPhase, VmProfile,
};

/// An empty optimization pipeline (for ablation studies).
pub fn vm_profile_pass_none() -> PassConfig {
    PassConfig::none()
}

/// A registry lookup that failed — the one place the "no benchmark group"
/// error lives, instead of ad-hoc `panic!`s copied across harness crates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RegistryError {
    UnknownGroup { id: String, known: Vec<String> },
    UnknownEntry { group: String, id: String, known: Vec<String> },
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::UnknownGroup { id, known } => {
                write!(f, "no benchmark group {id}; known groups: {}", known.join(" "))
            }
            RegistryError::UnknownEntry { group, id, known } => write!(
                f,
                "no entry {id} in benchmark group {group}; known entries: {}",
                known.join(" ")
            ),
        }
    }
}

impl std::error::Error for RegistryError {}

/// Find a benchmark group by id.
pub fn lookup_group(id: &str) -> Result<BenchGroup, RegistryError> {
    let groups = registry();
    if let Some(g) = groups.iter().position(|g| g.id == id) {
        let mut groups = groups;
        return Ok(groups.swap_remove(g));
    }
    Err(RegistryError::UnknownGroup {
        id: id.to_string(),
        known: groups.iter().map(|g| g.id.to_string()).collect(),
    })
}

/// Find an entry inside a group.
pub fn lookup_entry<'g>(group: &'g BenchGroup, id: &str) -> Result<&'g Entry, RegistryError> {
    group
        .entries
        .iter()
        .find(|e| e.id == id)
        .ok_or_else(|| RegistryError::UnknownEntry {
            group: group.id.to_string(),
            id: id.to_string(),
            known: group.entries.iter().map(|e| e.id.to_string()).collect(),
        })
}

/// Compile MiniC# source and bind it to an engine profile, running the
/// synthetic static initializer if the program declares any.
pub fn compile_and_load(src: &str, profile: VmProfile) -> Result<Arc<Vm>, String> {
    let module = compile(src).map_err(|e| e.to_string())?;
    let vm = Vm::new(module, profile).map_err(|e| e.to_string())?;
    if vm.module.find_method(STARTUP_INIT).is_some() {
        vm.invoke_by_name(STARTUP_INIT, vec![])
            .map_err(|e| format!("static initialization failed: {e}"))?;
    }
    Ok(vm)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_compile_and_run() {
        let vm = compile_and_load(
            "class T { static double F(double x) { return Math.Sqrt(x); } }",
            VmProfile::mono023(),
        )
        .unwrap();
        let r = vm.invoke_by_name("T.F", vec![Value::R8(9.0)]).unwrap();
        assert_eq!(r.unwrap().as_r8(), 3.0);
    }

    #[test]
    fn facade_static_init_runs() {
        let vm = compile_and_load(
            "class T { static int seeded = 41; static int F() { return seeded + 1; } }",
            VmProfile::clr11(),
        )
        .unwrap();
        let r = vm.invoke_by_name("T.F", vec![]).unwrap();
        assert_eq!(r.unwrap().as_i4(), 42);
    }

    #[test]
    fn facade_compile_errors_surface() {
        let e = compile_and_load("class T { static int F() { return x; } }", VmProfile::clr11())
            .unwrap_err();
        assert!(e.contains("unknown name"), "{e}");
    }

    #[test]
    fn registry_reachable_through_facade() {
        assert!(registry().len() >= 15);
        assert!(find_entry("scimark.fft").is_some());
    }

    #[test]
    fn fallible_lookups_find_and_report() {
        let g = lookup_group("scimark").unwrap();
        assert_eq!(g.id, "scimark");
        assert_eq!(lookup_entry(&g, "scimark.lu").unwrap().id, "scimark.lu");

        let e = lookup_group("no-such-group").err().unwrap();
        assert!(matches!(e, RegistryError::UnknownGroup { .. }));
        assert!(e.to_string().contains("no benchmark group no-such-group"), "{e}");
        assert!(e.to_string().contains("scimark"), "should list known groups: {e}");

        let e = lookup_entry(&g, "scimark.nope").err().unwrap();
        assert!(e.to_string().contains("no entry scimark.nope"), "{e}");
    }
}
