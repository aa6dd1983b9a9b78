//! Recursive object monitors: thin locks that inflate under contention.
//!
//! CLI monitors (`Monitor.Enter` / `Monitor.Exit`, the `lock` statement) are
//! re-entrant and unstructured — a thread may acquire in one method and
//! release in another — so a lexical `MutexGuard` cannot model them.
//!
//! Almost every acquisition in practice is uncontended, and the runtimes
//! the paper measured take those with one interlocked compare-and-swap on
//! the object header: the *thin lock* of Bacon et al. (PLDI '98). Here the
//! header is one `AtomicU64` lock word:
//!
//! * `0` — free;
//! * owner token and recursion count — held thin. Only the owner writes a
//!   held word, so a recursive enter and every exit are a load and a
//!   store; the first enter is one CAS from `0`;
//! * *inflated* — the monitor has a *fat* state: an owner/count/waiters
//!   record under a mutex with a condition variable to park on, the
//!   construction the Atomics-and-Locks literature teaches. Every enter
//!   and exit goes through it from then on.
//!
//! A thread that finds the word held by another spins briefly, then
//! yields, until its CAS from `0` succeeds; it then inflates, as does an
//! owner whose recursion count would overflow. Only the thread holding
//! the thin lock inflates, so the owner's plain stores never race with
//! it. A monitor never deflates.
//!
//! Thread identity is a token taken once per thread from a global
//! counter, never `std::thread::current()`, whose `Arc` clone and drop
//! would be two more locked instructions per call.
//!
//! The paper's Synchronization and Lock micro-benchmarks (Tables 2 and 3)
//! hammer exactly this path under varying contention.

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Low bits of a thin word: the recursion count (at least 1 when held).
const COUNT_BITS: u32 = 24;
const MAX_COUNT: u64 = (1 << COUNT_BITS) - 1;
/// The word of an inflated monitor. Tokens fill the bits between the count
/// and this one, so no thin word has it set.
const INFLATED: u64 = 1 << 63;
const TOKEN_MASK: u64 = (INFLATED - 1) >> COUNT_BITS;
/// Contended CAS attempts a thread spins through before it starts yielding.
const SPINS: u32 = 64;

static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's identity as a monitor owner. Tokens are never reused
    /// within a process; 2^39 threads would wrap them.
    static TOKEN: u64 = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed) & TOKEN_MASK;
}

/// This thread's token, shifted into place as the owner bits of a word.
#[inline]
fn me() -> u64 {
    TOKEN.with(|t| *t) << COUNT_BITS
}

/// The owner bits of a thin word.
#[inline]
fn owner(word: u64) -> u64 {
    word & !MAX_COUNT
}

/// The contended form of a monitor, installed once by [`Monitor::inflate`].
#[derive(Debug)]
struct Fat {
    state: Mutex<FatState>,
    cv: Condvar,
}

#[derive(Debug)]
struct FatState {
    /// Owner bits as [`me`] returns them; 0 when free.
    owner: u64,
    count: u64,
    /// Threads blocked in [`Fat::enter`]. Kept under the state mutex, so a
    /// releasing thread either sees a waiter that is already parked on the
    /// condvar (`wait` gives up the mutex and parks atomically) or the
    /// late-comer sees `owner == 0` and never parks.
    waiters: u32,
}

impl Fat {
    fn enter(&self, me: u64) {
        let mut st = self.state.lock();
        if st.owner == me {
            st.count += 1;
            return;
        }
        while st.owner != 0 {
            st.waiters += 1;
            self.cv.wait(&mut st);
            st.waiters -= 1;
        }
        st.owner = me;
        st.count = 1;
    }

    fn try_enter(&self, me: u64) -> bool {
        let mut st = self.state.lock();
        if st.owner == me {
            st.count += 1;
        } else if st.owner == 0 {
            st.owner = me;
            st.count = 1;
        } else {
            return false;
        }
        true
    }

    fn exit(&self, me: u64) -> Result<(), ()> {
        let mut st = self.state.lock();
        if st.owner != me {
            return Err(());
        }
        st.count -= 1;
        if st.count == 0 {
            st.owner = 0;
            // A notify is a futex syscall even with nobody to wake; a
            // release nobody waits for skips it.
            let contended = st.waiters != 0;
            drop(st);
            if contended {
                self.cv.notify_one();
            }
        }
        Ok(())
    }
}

/// A re-entrant monitor.
#[derive(Debug, Default)]
pub struct Monitor {
    word: AtomicU64,
    fat: OnceLock<Box<Fat>>,
    /// Calls that reached `enter_slow`: tests wait on it to know a
    /// contender has found the monitor held.
    #[cfg(test)]
    slow_entries: std::sync::atomic::AtomicU32,
}

impl Monitor {
    pub fn new() -> Monitor {
        Monitor::default()
    }

    /// Acquire the monitor, blocking until available. Re-entrant.
    ///
    /// Taking a free word acquires what the last owner's release store in
    /// [`Monitor::exit`] published. A recursive enter only counts, so its
    /// store is relaxed.
    #[inline]
    pub fn enter(&self) {
        let me = me();
        if !self.enter_thin(me, self.word.load(Ordering::Relaxed)) {
            self.enter_slow(me);
        }
    }

    /// Enter thin, if `word` allows: take it free, or count one more level
    /// of this thread's own without overflowing. `false` wrote nothing.
    #[inline]
    fn enter_thin(&self, me: u64, word: u64) -> bool {
        if word == 0 {
            self.word
                .compare_exchange(0, me | 1, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
        } else if owner(word) == me && word & MAX_COUNT != MAX_COUNT {
            self.word.store(word + 1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Contention, recursion overflow or an inflated monitor.
    #[cold]
    #[inline(never)]
    fn enter_slow(&self, me: u64) {
        #[cfg(test)]
        self.slow_entries.fetch_add(1, Ordering::SeqCst);
        let mut spins = 0;
        loop {
            let word = self.word.load(Ordering::Acquire);
            if word == INFLATED {
                return self.fat().enter(me);
            }
            if owner(word) == me {
                // Held thin by this thread, and one more level would
                // overflow the count.
                return self.inflate(me, MAX_COUNT + 1);
            }
            if word == 0
                && self
                    .word
                    .compare_exchange(0, me | 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                // Acquired after waiting for another owner: the monitor is
                // contended, so stop making everyone spin on it.
                return self.inflate(me, 1);
            }
            if spins < SPINS {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Move a monitor this thread holds thin, `count` levels deep, into its
    /// fat state.
    fn inflate(&self, me: u64, count: u64) {
        let fat = Fat {
            state: Mutex::new(FatState {
                owner: me,
                count,
                waiters: 0,
            }),
            cv: Condvar::new(),
        };
        // Only the thin owner inflates and the word never returns to thin
        // afterwards, so the cell is empty here.
        let installed = self.fat.set(Box::new(fat)).is_ok();
        debug_assert!(installed, "a monitor inflated twice");
        self.word.store(INFLATED, Ordering::Release);
    }

    /// The fat state of a monitor whose word reads [`INFLATED`].
    fn fat(&self) -> &Fat {
        // `inflate` fills the cell before its release store of INFLATED,
        // and every caller read INFLATED first.
        self.fat
            .get()
            .expect("an inflated monitor has its fat state")
    }

    /// Try to acquire without blocking; true on success.
    pub fn try_enter(&self) -> bool {
        let me = me();
        match self.word.load(Ordering::Acquire) {
            INFLATED => self.fat().try_enter(me),
            word if self.enter_thin(me, word) => true,
            word if owner(word) == me => {
                self.inflate(me, MAX_COUNT + 1);
                true
            }
            _ => false,
        }
    }

    /// Release one level of ownership.
    ///
    /// Returns `Err(())` if the calling thread does not own the monitor
    /// (the CLI raises `SynchronizationLockException` here).
    #[inline]
    pub fn exit(&self) -> Result<(), ()> {
        let me = me();
        let word = self.word.load(Ordering::Relaxed);
        if owner(word) == me {
            let next = if word & MAX_COUNT == 1 { 0 } else { word - 1 };
            self.word.store(next, Ordering::Release);
            return Ok(());
        }
        self.exit_slow(me, word)
    }

    #[cold]
    #[inline(never)]
    fn exit_slow(&self, me: u64, word: u64) -> Result<(), ()> {
        if word == INFLATED {
            // Only a fat owner can exit, and it saw INFLATED with acquire
            // when it entered.
            return self.fat().exit(me);
        }
        Err(())
    }

    /// Is the calling thread the current owner?
    pub fn held_by_current(&self) -> bool {
        let me = me();
        match self.word.load(Ordering::Acquire) {
            INFLATED => self.fat().state.lock().owner == me,
            word => owner(word) == me,
        }
    }

    /// Has the monitor moved to its fat state?
    #[cfg(test)]
    fn is_inflated(&self) -> bool {
        self.word.load(Ordering::Acquire) == INFLATED
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicI64;
    use std::sync::mpsc::channel;
    use std::sync::Arc;
    use std::time::Duration;

    /// The fat state's waiter count; 0 while the monitor is thin.
    fn waiters(m: &Monitor) -> u32 {
        m.fat.get().map_or(0, |f| f.state.lock().waiters)
    }

    /// Spin until another thread is blocked in `m`'s fat `enter`.
    fn until_parked(m: &Monitor) {
        while waiters(m) == 0 {
            std::thread::yield_now();
        }
    }

    /// A monitor held by another thread (`holder`) for as long as the
    /// returned sender is not used; sending releases it and ends `holder`.
    fn held_elsewhere(
        m: &Arc<Monitor>,
    ) -> (std::sync::mpsc::Sender<()>, std::thread::JoinHandle<()>) {
        let (held_tx, held) = channel();
        let (release, release_rx) = channel::<()>();
        let m = m.clone();
        let holder = std::thread::spawn(move || {
            m.enter();
            held_tx.send(()).unwrap();
            release_rx.recv().unwrap();
            m.exit().unwrap();
        });
        held.recv().unwrap();
        (release, holder)
    }

    /// A free monitor in its fat state, inflated by overflowing the
    /// recursion count.
    fn inflated() -> Arc<Monitor> {
        let m = Arc::new(Monitor::new());
        m.enter();
        m.word.store(me() | MAX_COUNT, Ordering::Relaxed);
        m.enter();
        assert!(m.is_inflated());
        m.fat().state.lock().count = 1;
        m.exit().unwrap();
        assert!(!m.held_by_current());
        m
    }

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
        assert!(!m.is_inflated(), "no contention, no inflation");
    }

    #[test]
    fn exit_without_owner_errs() {
        let m = Monitor::new();
        assert!(m.exit().is_err());
        let m = inflated();
        assert!(m.exit().is_err());
    }

    #[test]
    fn try_enter_fails_when_held_elsewhere() {
        for m in [Arc::new(Monitor::new()), inflated()] {
            let was_inflated = m.is_inflated();
            m.enter();
            let m2 = m.clone();
            std::thread::spawn(move || {
                assert!(!m2.try_enter());
                assert!(!m2.held_by_current());
                assert!(m2.exit().is_err(), "a non-owner cannot exit");
            })
            .join()
            .unwrap();
            assert!(m.held_by_current());
            assert!(m.try_enter(), "re-entry by the owner");
            m.exit().unwrap();
            m.exit().unwrap();
            assert!(!m.held_by_current());
            assert!(m.try_enter(), "a free monitor");
            m.exit().unwrap();
            assert_eq!(m.is_inflated(), was_inflated);
        }
    }

    #[test]
    fn non_owner_cannot_release_either_state() {
        for m in [Arc::new(Monitor::new()), inflated()] {
            let (release, holder) = held_elsewhere(&m);
            assert!(!m.held_by_current());
            assert!(m.exit().is_err());
            assert!(!m.try_enter());
            release.send(()).unwrap();
            holder.join().unwrap();
        }
    }

    #[test]
    fn contention_inflates_and_keeps_recursion() {
        let m = Arc::new(Monitor::new());
        m.enter();
        m.enter();
        m.enter();
        assert!(!m.is_inflated());
        let (acquired_tx, acquired) = channel();
        let (done_tx, done) = channel::<()>();
        let contender = {
            let m = m.clone();
            std::thread::spawn(move || {
                m.enter();
                acquired_tx
                    .send((m.held_by_current(), m.is_inflated()))
                    .unwrap();
                done.recv().unwrap();
                m.exit().unwrap();
            })
        };
        // The contender has found the word held and is spinning for it.
        while m.slow_entries.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        for level in (0..3).rev() {
            assert!(
                acquired.try_recv().is_err(),
                "entered while held {} deep",
                level + 1
            );
            m.exit().unwrap();
        }
        let got = acquired.recv_timeout(Duration::from_secs(30));
        assert_eq!(got, Ok((true, true)), "the contender owns it, inflated");
        assert!(!m.held_by_current());
        assert!(m.exit().is_err());
        done_tx.send(()).unwrap();
        contender.join().unwrap();
        assert!(m.try_enter());
        m.exit().unwrap();
    }

    #[test]
    fn recursion_overflow_inflates() {
        let m = Monitor::new();
        m.enter();
        m.word.store(me() | MAX_COUNT, Ordering::Relaxed);
        m.enter();
        assert!(m.is_inflated());
        assert_eq!(m.fat().state.lock().count, MAX_COUNT + 1);
        m.exit().unwrap();
        assert!(m.held_by_current(), "one level fewer, still held");
    }

    #[test]
    fn exit_hands_off_to_a_blocked_enter() {
        // Each round the main thread holds the inflated monitor until the
        // other thread is provably parked inside `enter`, then releases. A
        // release that skipped a needed wake-up leaves the waiter parked
        // and the round times out.
        const ROUNDS: usize = 1_000;
        let m = inflated();
        let (acquired_tx, acquired) = channel::<usize>();
        let (released_tx, released) = channel::<()>();
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
            until_parked(&m);
            m.exit().unwrap();
            let got = acquired.recv_timeout(Duration::from_secs(30));
            assert_eq!(got, Ok(round), "lost wake-up in round {round}");
        }
        released_tx.send(()).unwrap();
        waiter.join().unwrap();
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        // Classic non-atomic increment protected by the monitor: any lost
        // update means the monitor failed to exclude, thin or inflated.
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
                    m.enter();
                    // Read-modify-write with a deliberate window.
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                    m.exit().unwrap();
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
