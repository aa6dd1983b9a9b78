//! The content-hash-keyed module artifact cache.
//!
//! Tenants submit *content*, not module handles: two tenants posting the
//! same MiniC# source (or structurally identical CIL) must share one
//! compiled artifact. The cache key is therefore a hash of the submitted
//! bytes, domain-separated by job kind so a source text and a CIL module
//! can never collide.
//!
//! Concurrency follows the per-key compile-under-lock discipline: the
//! first worker to miss on a key takes that key's compile mutex and
//! performs the (expensive) compile + verify while every other worker
//! either proceeds on *different* keys unimpeded or blocks on the same
//! key until the artifact lands. Cache hits never touch the per-key
//! mutex — they read a [`OnceLock`] that was published before the mutex
//! was released — so a hot key is lock-free after its first job.
//!
//! The artifact bundles the verified [`Module`] (shared by every VM that
//! runs it, via [`hpcnet_vm::Vm::new_shared`]) with one [`OptShare`]
//! compile front-half cache, so tier pairs with identical pass configs
//! lower and optimize each method once per *module*, not once per VM.

use hpcnet_cil::Module;
use hpcnet_vm::OptShare;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// FNV-1a over a byte stream; dependency-free and stable across runs.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv::new()
    }
}

/// Hash MiniC# source content. The leading domain tag keeps source jobs
/// and CIL jobs in disjoint key spaces even for pathological inputs.
pub fn hash_source(src: &str) -> u64 {
    let mut h = Fnv::new();
    h.write(&[0x01]);
    h.write(src.as_bytes());
    h.finish()
}

/// Hash a submitted CIL module by its structural rendering: classes,
/// fields, method bodies, literals and static layout. Structurally
/// identical submissions share a key while any opcode or layout
/// difference separates them. The name-index `HashMap`s are deliberately
/// excluded — their iteration order is per-process-random and they are
/// derived from the hashed Vecs anyway.
pub fn hash_module(module: &Module) -> u64 {
    let mut h = Fnv::new();
    h.write(&[0x02]);
    h.write(format!("{:?}", module.classes).as_bytes());
    h.write(format!("{:?}", module.methods).as_bytes());
    h.write(format!("{:?}", module.fields).as_bytes());
    h.write(format!("{:?}", module.strings).as_bytes());
    h.write(&module.n_static_prim.to_le_bytes());
    h.write(&module.n_static_ref.to_le_bytes());
    h.finish()
}

/// One compiled-and-verified module plus its shared compile front-half.
pub struct ModuleArtifact {
    pub module: Arc<Module>,
    pub share: Arc<OptShare>,
}

/// Compilation outcome stored in the cache. Errors are cached too:
/// re-submitting a broken source must not re-run the compiler, and every
/// tenant of that content sees the identical diagnostic.
type Compiled = Result<Arc<ModuleArtifact>, String>;

#[derive(Default)]
struct Slot {
    /// Serializes the one compilation for this key.
    compile: Mutex<()>,
    /// Published artifact; readable without the mutex once set.
    ready: OnceLock<Compiled>,
}

/// `m`'s guard, even after a thread panicked while holding it. Neither lock
/// here guards a half-written update: the map takes one `entry().or_default()`,
/// and a compile that panics under its key's lock has published nothing,
/// so the next submission of that key compiles it again. One failed job
/// must not take the cache down for every tenant.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Service-wide artifact cache. See the module docs for the locking
/// discipline.
#[derive(Default)]
pub struct CodeCache {
    slots: Mutex<HashMap<u64, Arc<Slot>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CodeCache {
    pub fn new() -> CodeCache {
        CodeCache::default()
    }

    /// Fetch the artifact for `key`, compiling it with `compile` if this
    /// is the first submission of that content. The `bool` is true when
    /// *this* call performed the compilation (a cold compile); waiting on
    /// another worker's in-flight compile still counts as a hit, since
    /// the work was shared.
    pub fn get_or_compile(
        &self,
        key: u64,
        compile: impl FnOnce() -> Result<ModuleArtifact, String>,
    ) -> (Compiled, bool) {
        let slot = {
            let mut map = lock(&self.slots);
            map.entry(key).or_default().clone()
        };
        if let Some(r) = slot.ready.get() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (r.clone(), false);
        }
        let _compiling = lock(&slot.compile);
        // Re-check: another worker may have compiled while we waited.
        if let Some(r) = slot.ready.get() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (r.clone(), false);
        }
        let built: Compiled = compile().map(Arc::new);
        let _ = slot.ready.set(built.clone());
        self.misses.fetch_add(1, Ordering::Relaxed);
        (built, true)
    }

    /// `(hits, misses)` so far. Misses equal distinct contents compiled.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact() -> Result<ModuleArtifact, String> {
        let src = "class Gen { static long Run(int a, int b) { return a + b; } }";
        let module = conform::matrix::compile_verified(src)?;
        Ok(ModuleArtifact { module: Arc::new(module), share: Arc::new(OptShare::new()) })
    }

    #[test]
    fn second_lookup_is_a_hit_and_shares_the_artifact() {
        let cache = CodeCache::new();
        let (a, cold_a) = cache.get_or_compile(7, artifact);
        let (b, cold_b) = cache.get_or_compile(7, || panic!("must not recompile"));
        assert!(cold_a && !cold_b);
        assert!(Arc::ptr_eq(&a.unwrap(), &b.unwrap()));
        assert_eq!(cache.stats(), (1, 1));
    }

    #[test]
    fn compile_errors_are_cached_verbatim() {
        let cache = CodeCache::new();
        let (a, _) = cache.get_or_compile(9, || Err("compile: nope".into()));
        let (b, cold) = cache.get_or_compile(9, || panic!("must not recompile"));
        assert_eq!(a.err(), Some("compile: nope".to_string()));
        assert_eq!(b.err(), Some("compile: nope".to_string()));
        assert!(!cold);
    }

    #[test]
    fn contended_key_compiles_exactly_once() {
        let cache = Arc::new(CodeCache::new());
        let compiles = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let cache = cache.clone();
                let compiles = compiles.clone();
                s.spawn(move || {
                    let (r, _) = cache.get_or_compile(1, || {
                        compiles.fetch_add(1, Ordering::Relaxed);
                        artifact()
                    });
                    assert!(r.is_ok());
                });
            }
        });
        assert_eq!(compiles.load(Ordering::Relaxed), 1);
        let (hits, misses) = cache.stats();
        assert_eq!(misses, 1);
        assert_eq!(hits, 7);
    }

    #[test]
    fn a_compile_that_panicked_is_retried_by_the_next_submission() {
        let cache = CodeCache::new();
        let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_compile(5, || panic!("compiler bug"))
        }));
        assert!(first.is_err());
        let (r, cold) = cache.get_or_compile(5, artifact);
        assert!(r.is_ok() && cold);
        assert_eq!(cache.stats(), (0, 1));
    }

    #[test]
    fn source_and_module_hash_domains_are_disjoint_and_stable() {
        let src = "class Gen { static long Run(int a, int b) { return a; } }";
        assert_eq!(hash_source(src), hash_source(src));
        let m1 = conform::matrix::compile_verified(src).unwrap();
        let m2 = conform::matrix::compile_verified(src).unwrap();
        assert_eq!(hash_module(&m1), hash_module(&m2));
        assert_ne!(hash_source(src), hash_module(&m1));
    }
}
