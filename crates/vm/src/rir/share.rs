//! Cross-engine sharing of the profile-invariant compile front half.
//!
//! Lowering and the optimization pipeline are pure functions of the
//! module and the [`PassConfig`] — the register cap and the execution
//! tier only matter to the allocation that runs afterwards. The conform
//! matrix executes every pass combination on both register tiers, so
//! without sharing each engine pair lowers and optimizes the same methods
//! twice. An [`OptShare`] attached to every VM of a sweep cell memoizes
//! the front half keyed by `(method, passes)`; per-VM counters stay
//! bitwise identical because the pass outcome (loops found, checks
//! eliminated, hoists) is replayed onto each VM that consumes a cached
//! entry.

use crate::error::{VmError, VmResult};
use crate::machine::Vm;
use crate::observe::VmPhase;
use crate::profile::PassConfig;
use crate::rir::audit;
use crate::rir::lower::{self, Lowered};
use crate::rir::opt::{self, OptResult, Scratch};
use hpcnet_cil::module::MethodId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

type Key = (MethodId, PassConfig);

/// One front half: the optimized body and what the passes did. Shared,
/// never copied: `rir::alloc` reads `lowered` and writes the allocated
/// code afresh. In an [`OptShare`] the audit verdict, a pure function of
/// the immutable `lowered`, is computed by the first audited engine that
/// consumes the entry and reused by every later one (the conform matrix
/// runs 50 audited engines over a handful of keys).
pub(crate) struct Entry {
    pub lowered: Lowered,
    pub res: OptResult,
    audit: OnceLock<Result<(), String>>,
}

impl Entry {
    fn new((lowered, res): (Lowered, OptResult)) -> Arc<Entry> {
        Arc::new(Entry { lowered, res, audit: OnceLock::new() })
    }
}

/// Memoized front-half output shared between engines executing the same
/// module. Construct one per module (e.g. per conform seed) and attach it
/// to every VM via [`Vm::set_opt_share`]; VMs without one compile exactly
/// as before.
#[derive(Default)]
pub struct OptShare {
    map: Mutex<HashMap<Key, Arc<Entry>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl OptShare {
    pub fn new() -> OptShare {
        OptShare::default()
    }

    /// `(hits, misses)` — front-half compiles served from the cache vs
    /// computed. Deterministic for a fixed engine order.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }

    /// The map, even after a thread panicked while holding the lock: every
    /// update is a single `get` or `entry().or_insert()`, so a panic
    /// cannot leave it half-written, and one failed job must not take the
    /// cache down for every other engine sharing it.
    fn map(&self) -> MutexGuard<'_, HashMap<Key, Arc<Entry>>> {
        self.map.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// Lower + optimize `method` under the VM's profile, consulting the VM's
/// [`OptShare`] when present. The entry's pass outcome (`loops_found`,
/// the `bce_elided_*` splits, `licm_hoisted`) is the same on the hit and
/// miss path; `Vm::translate` applies it to the VM's counters only when
/// its compile wins the method's code cell.
pub(crate) fn front(vm: &Arc<Vm>, method: MethodId, scratch: &mut Scratch) -> VmResult<Arc<Entry>> {
    let entry = match vm.opt_share() {
        None => Entry::new(timed_front(vm, method, scratch)?),
        Some(share) => {
            let key = (method, vm.profile.passes);
            let cached = share.map().get(&key).cloned();
            match cached {
                Some(e) => {
                    share.hits.fetch_add(1, Ordering::Relaxed);
                    e
                }
                None => {
                    let entry = Entry::new(timed_front(vm, method, scratch)?);
                    share.misses.fetch_add(1, Ordering::Relaxed);
                    share.map().entry(key).or_insert(entry).clone()
                }
            }
        }
    };
    if vm.profile.audit {
        let verdict = entry.audit.get_or_init(|| audit::check(&entry.lowered));
        audit_verdict(vm, method, verdict)?;
    }
    Ok(entry)
}

/// Turn the independent elision-certificate checker's verdict on an
/// optimized body into the compile's outcome. An unsound elision is a
/// hard failure — the method must not run. The checker's message names
/// the failing certificate.
fn audit_verdict(vm: &Vm, method: MethodId, verdict: &Result<(), String>) -> VmResult<()> {
    let Err(msg) = verdict else { return Ok(()) };
    let name = &vm.module.method(method).name;
    Err(VmError::Internal(format!("elision audit failed in {name}: {msg}")))
}

/// The actual front-half work, with per-phase observer timing (a no-op
/// below `ObserveLevel::Trace`). Cache hits never reach here, so hit
/// paths record no phases.
fn timed_front(
    vm: &Arc<Vm>,
    method: MethodId,
    scratch: &mut Scratch,
) -> VmResult<(Lowered, OptResult)> {
    let t = vm.observer.phase_start();
    let mut l = lower::lower(vm, method, vm.profile.passes.inline, 0, scratch)?;
    vm.observer.phase_end(VmPhase::JitLower, t);
    let t = vm.observer.phase_start();
    let res = opt::optimize(&vm.profile.passes, &mut l, &vm.observer, scratch);
    vm.observer.phase_end(VmPhase::JitOptimize, t);
    Ok((l, res))
}
