//! Recursive object monitors.
//!
//! CLI monitors (`Monitor.Enter` / `Monitor.Exit`, the `lock` statement) are
//! re-entrant and unstructured — a thread may acquire in one method and
//! release in another — so a lexical `MutexGuard` cannot model them. This is
//! a classic owner/count monitor built from a mutex and a condition
//! variable, the construction the Atomics-and-Locks literature teaches.
//!
//! The paper's Synchronization and Lock micro-benchmarks (Tables 2 and 3)
//! hammer exactly this path under varying contention.

use parking_lot::{Condvar, Mutex};
use std::thread::ThreadId;

#[derive(Debug, Default)]
struct MonState {
    owner: Option<ThreadId>,
    count: u32,
    /// Threads blocked in [`Monitor::enter`]. Kept under the state mutex,
    /// so a releasing thread either sees a waiter that is already parked
    /// on the condvar (`wait` gives up the mutex and parks atomically) or
    /// the late-comer sees `owner == None` and never parks.
    waiters: u32,
}

/// A re-entrant monitor.
#[derive(Debug)]
pub struct Monitor {
    state: Mutex<MonState>,
    cv: Condvar,
}

impl Default for Monitor {
    fn default() -> Self {
        Self::new()
    }
}

impl Monitor {
    pub fn new() -> Monitor {
        Monitor {
            state: Mutex::new(MonState::default()),
            cv: Condvar::new(),
        }
    }

    /// Acquire the monitor, blocking until available. Re-entrant.
    pub fn enter(&self) {
        let me = std::thread::current().id();
        let mut st = self.state.lock();
        if st.owner == Some(me) {
            st.count += 1;
            return;
        }
        while st.owner.is_some() {
            st.waiters += 1;
            self.cv.wait(&mut st);
            st.waiters -= 1;
        }
        st.owner = Some(me);
        st.count = 1;
    }

    /// Try to acquire without blocking; true on success.
    pub fn try_enter(&self) -> bool {
        let me = std::thread::current().id();
        let mut st = self.state.lock();
        match st.owner {
            Some(o) if o == me => {
                st.count += 1;
                true
            }
            Some(_) => false,
            None => {
                st.owner = Some(me);
                st.count = 1;
                true
            }
        }
    }

    /// Release one level of ownership.
    ///
    /// Returns `Err(())` if the calling thread does not own the monitor
    /// (the CLI raises `SynchronizationLockException` here).
    pub fn exit(&self) -> Result<(), ()> {
        let me = std::thread::current().id();
        let mut st = self.state.lock();
        if st.owner != Some(me) {
            return Err(());
        }
        st.count -= 1;
        if st.count == 0 {
            st.owner = None;
            // A notify is a futex syscall even with nobody to wake; the
            // uncontended release — every `lock` statement — skips it.
            let contended = st.waiters != 0;
            drop(st);
            if contended {
                self.cv.notify_one();
            }
        }
        Ok(())
    }

    /// Is the calling thread the current owner?
    pub fn held_by_current(&self) -> bool {
        self.state.lock().owner == Some(std::thread::current().id())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicI64, Ordering};
    use std::sync::Arc;

    #[test]
    fn reentrant_enter_exit() {
        let m = Monitor::new();
        m.enter();
        m.enter();
        assert!(m.held_by_current());
        m.exit().unwrap();
        assert!(m.held_by_current());
        m.exit().unwrap();
        assert!(!m.held_by_current());
    }

    #[test]
    fn exit_without_owner_errs() {
        let m = Monitor::new();
        assert!(m.exit().is_err());
    }

    #[test]
    fn try_enter_fails_when_held_elsewhere() {
        let m = Arc::new(Monitor::new());
        m.enter();
        let m2 = m.clone();
        std::thread::spawn(move || {
            assert!(!m2.try_enter());
        })
        .join()
        .unwrap();
        m.exit().unwrap();
    }

    #[test]
    fn exit_hands_off_to_a_blocked_enter() {
        // Each round the main thread holds the monitor until the other
        // thread is provably blocked inside `enter`, then releases. A
        // release that skipped a needed wake-up leaves the waiter parked
        // and the round times out.
        const ROUNDS: usize = 1_000;
        let m = Arc::new(Monitor::new());
        let (acquired_tx, acquired) = std::sync::mpsc::channel::<usize>();
        let (released_tx, released) = std::sync::mpsc::channel::<()>();
        let waiter = {
            let m = m.clone();
            std::thread::spawn(move || {
                for round in 0..ROUNDS {
                    m.enter();
                    acquired_tx.send(round).unwrap();
                    m.exit().unwrap();
                    // The next round starts only once main owns the monitor again.
                    released.recv().unwrap();
                }
            })
        };
        for round in 0..ROUNDS {
            m.enter();
            if round > 0 {
                released_tx.send(()).unwrap();
            }
            // `enter` counts itself as blocked under the state mutex right
            // before parking, and only the other thread can be in there.
            while m.state.lock().waiters == 0 {
                std::thread::yield_now();
            }
            m.exit().unwrap();
            let got = acquired.recv_timeout(std::time::Duration::from_secs(30));
            assert_eq!(got, Ok(round), "lost wake-up in round {round}");
        }
        released_tx.send(()).unwrap();
        waiter.join().unwrap();
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        // Classic non-atomic increment protected by the monitor: any lost
        // update means the monitor failed to exclude.
        let m = Arc::new(Monitor::new());
        let counter = Arc::new(AtomicI64::new(0));
        const THREADS: usize = 4;
        const ITERS: i64 = 20_000;
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let m = m.clone();
            let counter = counter.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..ITERS {
                    m.enter();
                    // Read-modify-write with a deliberate window.
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                    m.exit().unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), THREADS as i64 * ITERS);
    }
}
