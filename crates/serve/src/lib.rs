//! `hpcnet-serve`: a multi-tenant compile-and-run job service.
//!
//! The paper's CLI-VM pitch is *portable code you compile once and run
//! anywhere*; the operational form of that pitch is a shared service: many
//! tenants submit small jobs (MiniC# source or pre-compiled CIL), the
//! service compiles each distinct content once, and executions ride on
//! warmed VMs instead of paying construction + static-init + JIT per job.
//! This crate is that service, built on three substrates the repo already
//! proves out elsewhere:
//!
//! * the **content-hash artifact cache** ([`cache`]) — compile-under-lock
//!   per key, lock-free hits, one shared [`hpcnet_vm::OptShare`] compile
//!   front-half per module;
//! * the **snapshot/reset lifecycle** — every worker keeps a pool of
//!   warmed VMs (one per module × profile it has seen), captured by
//!   [`hpcnet_vm::Vm::snapshot`] right after static init and rewound with
//!   [`hpcnet_vm::Vm::reset_to`] between tenants, with
//!   [`hpcnet_vm::Vm::verify_snapshot`] as the isolation auditor;
//! * the **fuel budget** ([`hpcnet_vm::Vm::set_fuel`]) — a deterministic
//!   per-job timeout, so a runaway tenant surfaces as a per-job `limit`
//!   error instead of wedging its worker.
//!
//! Job lifecycle: `submit → cache lookup (compile once) → warm-VM lookup
//! (build + init + snapshot once) → arm fuel → run → harvest console +
//! counters → reset → verify`. The per-job [`JobOutcome`] (status,
//! normalized result, console, counter deltas, fuel spent) is a pure
//! function of the job, so outcomes are identical across worker counts;
//! of a [`JobRecord`], only the latency and the cold-compile flag depend
//! on scheduling.
//!
//! The service writes no artifact of its own: the repo benchmark's `cold`
//! workload drives [`run_service`] and reports its throughput, median job
//! latency and cache hit ratio.

pub mod cache;
pub mod workload;

use crate::cache::{hash_module, hash_source, CodeCache, ModuleArtifact};
use hpcnet_cil::{verify_module, Module};
use hpcnet_minics::STARTUP_INIT;
use hpcnet_runtime::Value;
use hpcnet_vm::{Vm, VmError, VmProfile, VmSnapshot};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What a tenant submitted: source to compile, or a finished module.
#[derive(Clone)]
pub enum JobPayload {
    /// MiniC# source text; the service compiles and verifies it.
    MiniCs(String),
    /// A pre-compiled CIL module; the service verifies it before running.
    Cil(Module),
}

impl JobPayload {
    pub fn kind(&self) -> &'static str {
        match self {
            JobPayload::MiniCs(_) => "minics",
            JobPayload::Cil(_) => "cil",
        }
    }

    /// The cache key: a domain-separated content hash (see [`cache`]).
    pub fn content_key(&self) -> u64 {
        match self {
            JobPayload::MiniCs(src) => hash_source(src),
            JobPayload::Cil(m) => hash_module(m),
        }
    }
}

/// One tenant job.
#[derive(Clone)]
pub struct JobSpec {
    /// Tenant-visible job id; echoed in its [`JobOutcome`].
    pub id: u64,
    /// Human label for the program (not part of any cache key).
    pub program: String,
    pub payload: JobPayload,
    /// Entry point, `Class.Method`, taking `(int, int)`.
    pub entry: String,
    pub args: (i32, i32),
    pub profile: VmProfile,
    /// Per-job fuel budget; `None` runs unmetered.
    pub fuel: Option<u64>,
}

/// Service configuration.
#[derive(Clone, Copy)]
pub struct ServeConfig {
    /// Worker threads; clamped to at least 1.
    pub workers: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig { workers: 2 }
    }
}

/// The deterministic half of a job's record: everything here is a pure
/// function of the [`JobSpec`], independent of worker count, scheduling,
/// and cache temperature.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobOutcome {
    pub id: u64,
    pub program: String,
    pub kind: &'static str,
    /// Profile name (e.g. `clr11-compiled`); pools are keyed on the full
    /// profile fingerprint, this is the display form.
    pub profile: String,
    /// Coarse class: `ok`, `trap`, `limit`, `compile-error`, `internal`,
    /// or `panic`.
    pub status: &'static str,
    /// Normalized detail: `i8:42`, `trap:IndexOutOfRangeException`,
    /// `limit:fuel budget exhausted`, a compile diagnostic, …
    pub result: String,
    /// Console lines this job printed — and only this job: the warm
    /// snapshot is taken with a drained console, and harvest runs on
    /// every path (including traps) before the reset.
    pub console: Vec<String>,
    /// Managed calls performed by this job (counter delta).
    pub calls: u64,
    /// Managed exceptions thrown by this job (counter delta).
    pub throws: u64,
    /// Fuel spent, when a budget was armed.
    pub fuel_used: Option<u64>,
}

/// Full per-job record: the deterministic [`JobOutcome`] plus service-side
/// telemetry that legitimately varies run to run.
#[derive(Clone, Debug)]
pub struct JobRecord {
    pub outcome: JobOutcome,
    pub latency_ns: u64,
    /// This job performed the module compilation (first of its content).
    pub cold_compile: bool,
    /// A snapshot reset ran after this job (false only for jobs that
    /// never reached a VM, or whose VM was discarded after a panic).
    pub did_reset: bool,
    /// Locations diverging from the snapshot after reset (0 = isolated).
    pub leaks: usize,
}

/// Everything one service run produced.
pub struct ServiceReport {
    /// Per-job records, in submission order regardless of scheduling.
    pub records: Vec<JobRecord>,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Warm VMs built across all workers.
    pub warmed_vms: u64,
    /// Warm VMs discarded (panic, reset failure, or isolation leak).
    pub discarded_vms: u64,
}

impl ServiceReport {
    /// Sum of isolation leaks across jobs (must be 0 for a clean run).
    pub fn total_leaks(&self) -> usize {
        self.records.iter().map(|r| r.leaks).sum()
    }

    /// Cache hit rate in `[0, 1]`; 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
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

/// Compile + verify a payload into a cacheable artifact.
pub(crate) fn build_artifact(payload: &JobPayload) -> Result<ModuleArtifact, String> {
    let module = match payload {
        JobPayload::MiniCs(src) => conform::matrix::compile_verified(src)?,
        JobPayload::Cil(m) => {
            let mut m = m.clone();
            verify_module(&mut m).map_err(|e| format!("verify: {e}"))?;
            m
        }
    };
    Ok(ModuleArtifact {
        module: Arc::new(module),
        share: Arc::new(hpcnet_vm::OptShare::new()),
    })
}

/// A worker-local warmed VM: constructed once per (content, profile) pair
/// the worker sees, rewound between tenants.
struct WarmVm {
    vm: Arc<Vm>,
    snap: VmSnapshot,
}

/// Run every job through the service and collect the report. Workers pull
/// jobs from a shared cursor; each record lands in its submission-order
/// slot, so `records` is scheduling-independent even though assignment of
/// jobs to workers is not.
pub fn run_service(jobs: &[JobSpec], cfg: &ServeConfig) -> ServiceReport {
    let workers = cfg.workers.max(1).min(jobs.len().max(1));
    let cache = CodeCache::new();
    let warmed = AtomicU64::new(0);
    let discarded = AtomicU64::new(0);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<JobRecord>>> =
        (0..jobs.len()).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|s| {
        for _ in 0..workers {
            let (cache, warmed, discarded, next, slots) =
                (&cache, &warmed, &discarded, &next, &slots);
            s.spawn(move || {
                let mut pool: HashMap<(u64, String), WarmVm> = HashMap::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs.len() {
                        break;
                    }
                    let rec = execute_job(cache, &mut pool, &jobs[i], warmed, discarded);
                    *slots[i].lock().unwrap() = Some(rec);
                }
            });
        }
    });

    let records: Vec<JobRecord> = slots
        .into_iter()
        .map(|s| s.into_inner().unwrap().expect("every slot filled"))
        .collect();
    let (cache_hits, cache_misses) = cache.stats();
    ServiceReport {
        records,
        cache_hits,
        cache_misses,
        warmed_vms: warmed.load(Ordering::Relaxed),
        discarded_vms: discarded.load(Ordering::Relaxed),
    }
}

fn execute_job(
    cache: &CodeCache,
    pool: &mut HashMap<(u64, String), WarmVm>,
    job: &JobSpec,
    warmed: &AtomicU64,
    discarded: &AtomicU64,
) -> JobRecord {
    let t0 = Instant::now();
    let base = |status: &'static str, result: String, console: Vec<String>| JobOutcome {
        id: job.id,
        program: job.program.clone(),
        kind: job.payload.kind(),
        profile: job.profile.name.to_string(),
        status,
        result,
        console,
        calls: 0,
        throws: 0,
        fuel_used: None,
    };
    let fail = |outcome: JobOutcome, cold_compile: bool| JobRecord {
        outcome,
        latency_ns: t0.elapsed().as_nanos() as u64,
        cold_compile,
        did_reset: false,
        leaks: 0,
    };

    // 1. Cache lookup: compile once per content, under that key's lock.
    let key = job.payload.content_key();
    let (compiled, cold_compile) = cache.get_or_compile(key, || build_artifact(&job.payload));
    let artifact = match compiled {
        Ok(a) => a,
        Err(e) => return fail(base("compile-error", e, Vec::new()), cold_compile),
    };

    // 2. Warm-VM lookup. The pool key pairs the content hash with the full
    //    profile fingerprint (tier + passes + numerics), not just its name:
    //    two jobs sharing a module but differing in any execution knob must
    //    not share a VM.
    let pool_key = (key, format!("{:?}", job.profile));
    if !pool.contains_key(&pool_key) {
        let vm = Vm::new_shared(artifact.module.clone(), job.profile);
        vm.set_opt_share(artifact.share.clone());
        if vm.module.find_method(STARTUP_INIT).is_some() {
            if let Err(e) = vm.invoke_by_name(STARTUP_INIT, vec![]) {
                // Static init is per-module state, so its failure is the
                // same for every tenant of this content; don't pool a VM
                // whose baseline never materialized.
                let msg = match e {
                    VmError::Exception(obj) => format!("init-trap:{}", class_name(&vm, &obj)),
                    VmError::Limit(m) => format!("init-limit:{m}"),
                    VmError::Internal(m) => format!("init-internal:{m}"),
                };
                return fail(base("internal", msg, vm.take_console()), cold_compile);
            }
        }
        // Isolation hinges on this drain: the snapshot must capture an
        // empty console, or init-time lines would replay into every
        // tenant's harvest.
        let _ = vm.take_console();
        let snap = vm.snapshot();
        warmed.fetch_add(1, Ordering::Relaxed);
        pool.insert(pool_key.clone(), WarmVm { vm, snap });
    }
    let warm = pool.get(&pool_key).expect("just ensured");

    // 3. Arm the fuel budget and run. The unwind guard keeps a panicking
    //    intrinsic (e.g. a managed thread body dying inside ThreadStart)
    //    from taking the whole worker down with it.
    warm.vm.set_fuel(job.fuel);
    let before = warm.vm.counters.snapshot();
    let vm = warm.vm.clone();
    let entry = job.entry.clone();
    let (a, b) = job.args;
    let run = catch_unwind(AssertUnwindSafe(move || {
        let r = vm.invoke_by_name(&entry, vec![Value::I4(a), Value::I4(b)]);
        // Managed threads share the VM's fuel meter, so a runaway spawned
        // thread exhausts the same budget; join before harvesting so the
        // console is quiescent.
        vm.join_all_threads();
        r
    }));
    let fuel_used = job
        .fuel
        .map(|b| b.saturating_sub(warm.vm.fuel_remaining().unwrap_or(0)));
    warm.vm.set_fuel(None);

    // 4. Harvest — on every path, *before* the reset, so trap output stays
    //    with the tenant that produced it.
    let console = warm.vm.take_console();
    let delta = warm.vm.counters.snapshot().delta(&before);
    let (status, result, poisoned): (&'static str, String, bool) = match run {
        Ok(Ok(None)) => ("ok", "void".into(), false),
        Ok(Ok(Some(v))) => ("ok", norm_value(&v), false),
        Ok(Err(VmError::Exception(obj))) => {
            ("trap", format!("trap:{}", class_name(&warm.vm, &obj)), false)
        }
        Ok(Err(VmError::Limit(m))) => ("limit", format!("limit:{m}"), false),
        Ok(Err(VmError::Internal(m))) => ("internal", format!("internal:{m}"), false),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".into());
            ("panic", format!("panic:{msg}"), true)
        }
    };

    // 5. Reset to the warm baseline and audit isolation. A VM that
    //    panicked, failed its reset, or leaked is discarded — the next
    //    job of its pool key warms a fresh one.
    let mut leaks = 0usize;
    let mut did_reset = false;
    let mut drop_vm = poisoned;
    if !poisoned {
        match warm.vm.reset_to(&warm.snap) {
            Ok(_) => {
                did_reset = true;
                leaks = warm.vm.verify_snapshot(&warm.snap);
                drop_vm = leaks > 0;
            }
            Err(_) => drop_vm = true,
        }
    }
    if drop_vm {
        pool.remove(&pool_key);
        discarded.fetch_add(1, Ordering::Relaxed);
    }

    JobRecord {
        outcome: JobOutcome {
            calls: delta.calls,
            throws: delta.throws,
            fuel_used,
            ..base(status, result, console)
        },
        latency_ns: t0.elapsed().as_nanos() as u64,
        cold_compile,
        did_reset,
        leaks,
    }
}

fn class_name(vm: &Arc<Vm>, obj: &hpcnet_runtime::Obj) -> String {
    obj.class_id()
        .map(|c| vm.module.class(c).name.clone())
        .unwrap_or_else(|| "<classless>".into())
}
