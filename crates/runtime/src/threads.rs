//! Managed thread registry.
//!
//! Managed code spawns threads through the `Sys.Start(obj)` intrinsic; the
//! execution engine hands this registry a closure that runs `obj.Run()` on
//! a fresh interpreter, and gets back an `int32` handle managed code can
//! later pass to `Sys.Join`. This mirrors the thread model the ForkJoin and
//! Thread micro-benchmarks (Tables 2–3) measure: OS threads under a managed
//! veneer. A thread body's result `R` — for the VM, whether `Run()` threw —
//! waits in the registry for whoever joins the thread.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicI32, Ordering};
use std::thread::JoinHandle;

/// Registry of live managed threads whose bodies return `R`.
#[derive(Debug)]
pub struct ThreadRegistry<R> {
    next: AtomicI32,
    handles: Mutex<HashMap<i32, JoinHandle<R>>>,
}

impl<R> Default for ThreadRegistry<R> {
    fn default() -> Self {
        ThreadRegistry {
            next: AtomicI32::new(0),
            handles: Mutex::new(HashMap::new()),
        }
    }
}

impl<R: Send + 'static> ThreadRegistry<R> {
    pub fn new() -> ThreadRegistry<R> {
        ThreadRegistry::default()
    }

    /// Spawn a managed thread; returns its handle.
    ///
    /// Managed threads get a generous native stack: interpreted frames
    /// consume several native frames each, and the kernels that spawn
    /// threads also recurse.
    pub fn spawn(&self, f: impl FnOnce() -> R + Send + 'static) -> i32 {
        let id = self.next.fetch_add(1, Ordering::Relaxed) + 1;
        let handle = std::thread::Builder::new()
            .stack_size(32 << 20)
            .spawn(f)
            .expect("spawn managed thread");
        self.handles.lock().insert(id, handle);
        id
    }

    /// Join a managed thread by handle and take its body's result.
    ///
    /// Returns `None` for unknown (or already-joined) handles — managed
    /// code sees that as a no-op, like joining a dead thread.
    pub fn join(&self, id: i32) -> Option<R> {
        let handle = self.handles.lock().remove(&id)?;
        // Propagate host panics to the joiner: an engine bug in a thread
        // must fail the run, not vanish. (A managed exception is not a
        // panic; it arrives in `R`.)
        Some(handle.join().expect("managed thread panicked"))
    }

    /// Join every outstanding thread (host shutdown), dropping their
    /// results.
    pub fn join_all(&self) {
        let drained: Vec<JoinHandle<R>> = {
            let mut map = self.handles.lock();
            map.drain().map(|(_, h)| h).collect()
        };
        for h in drained {
            h.join().expect("managed thread panicked");
        }
    }

    /// Number of threads not yet joined.
    pub fn outstanding(&self) -> usize {
        self.handles.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn spawn_and_join() {
        let reg = ThreadRegistry::<()>::new();
        let hit = Arc::new(AtomicUsize::new(0));
        let h2 = hit.clone();
        let id = reg.spawn(move || {
            h2.fetch_add(1, Ordering::SeqCst);
        });
        assert!(id > 0);
        assert_eq!(reg.join(id), Some(()));
        assert_eq!(hit.load(Ordering::SeqCst), 1);
        assert_eq!(reg.join(id), None, "double join is a no-op");
    }

    #[test]
    fn join_hands_over_the_body_result() {
        let reg = ThreadRegistry::<Result<u8, String>>::new();
        let ok = reg.spawn(|| Ok(7));
        let err = reg.spawn(|| Err("threw".to_string()));
        assert_eq!(reg.join(err), Some(Err("threw".to_string())));
        assert_eq!(reg.join(ok), Some(Ok(7)));
        reg.spawn(|| Err("never joined".to_string()));
        reg.join_all();
        assert_eq!(reg.outstanding(), 0);
    }

    #[test]
    fn join_all_waits_for_everyone() {
        let reg = ThreadRegistry::<()>::new();
        let hit = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let h = hit.clone();
            reg.spawn(move || {
                h.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert!(reg.outstanding() <= 8);
        reg.join_all();
        assert_eq!(hit.load(Ordering::SeqCst), 8);
        assert_eq!(reg.outstanding(), 0);
    }

    #[test]
    fn handles_are_unique() {
        let reg = ThreadRegistry::<()>::new();
        let a = reg.spawn(|| {});
        let b = reg.spawn(|| {});
        assert_ne!(a, b);
        reg.join_all();
    }
}
