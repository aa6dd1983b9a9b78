//! Offline stand-in for the `parking_lot` crate.
//!
//! The build environment for this repository has no access to crates.io, so
//! the workspace points the `parking_lot` dependency at this path crate
//! instead. It re-implements the subset of the parking_lot API the codebase
//! uses — `Mutex`, `RwLock`, and `Condvar` with non-poisoning, guard-based
//! locking — on top of `std::sync`. Poisoned locks are recovered rather than
//! propagated, matching parking_lot's behaviour of not having poisoning at
//! all.
//!
//! The only intentional difference from the real crate is performance, and
//! it is not confined to cold paths. One call site is on the hot path of
//! managed code: `RefSlot` (`hpcnet-runtime`'s `object.rs`) takes its mutex
//! on every *reference* field, element and static access — a lock, an
//! `Arc` clone and an unlock per `ldfld`/`ldelem.ref`/`ldsfld` of an
//! object. On the compiled tier that lock is what remains of a
//! reference-heavy row once dispatch is cheap (DESIGN.md §3 has the
//! measurement). `Monitor` no longer takes a mutex on a `lock` statement:
//! it is a thin lock word, and only a monitor inflated by contention
//! parks on a shim mutex and condvar. The other sites lock once per rarer
//! operation — `Math.random`, an allocation while snapshot tracking is on,
//! console output, thread start and join — or are cold. Every engine pays
//! the same locks, so the paper's relative numbers hold; the absolute time
//! of those rows is the shim's, not parking_lot's.

use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;

/// Non-poisoning mutex with the `parking_lot::Mutex` API surface.
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

/// RAII guard for [`Mutex`]. Wraps the std guard so [`Condvar::wait`] can
/// take `&mut` and swap the underlying guard in place.
pub struct MutexGuard<'a, T: ?Sized>(Option<std::sync::MutexGuard<'a, T>>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(
            self.0.lock().unwrap_or_else(PoisonError::into_inner),
        ))
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(MutexGuard(Some(g))),
            Err(std::sync::TryLockError::Poisoned(e)) => {
                Some(MutexGuard(Some(e.into_inner())))
            }
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            None => f.write_str("Mutex { <locked> }"),
        }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0.as_deref().expect("guard taken during Condvar::wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0
            .as_deref_mut()
            .expect("guard taken during Condvar::wait")
    }
}

/// Non-poisoning reader-writer lock with the `parking_lot::RwLock` API.
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

pub struct RwLockReadGuard<'a, T: ?Sized>(std::sync::RwLockReadGuard<'a, T>);
pub struct RwLockWriteGuard<'a, T: ?Sized>(std::sync::RwLockWriteGuard<'a, T>);

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard(self.0.read().unwrap_or_else(PoisonError::into_inner))
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard(self.0.write().unwrap_or_else(PoisonError::into_inner))
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0.try_read() {
            Ok(g) => f.debug_struct("RwLock").field("data", &&*g).finish(),
            _ => f.write_str("RwLock { <locked> }"),
        }
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// Condition variable paired with [`Mutex`], taking `&mut MutexGuard` like
/// parking_lot (std's wait consumes and returns the guard; the Option inside
/// [`MutexGuard`] lets us swap it without unsafe code).
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    pub const fn new() -> Self {
        Condvar(std::sync::Condvar::new())
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.0.take().expect("guard already taken");
        let inner = self
            .0
            .wait(inner)
            .unwrap_or_else(PoisonError::into_inner);
        guard.0 = Some(inner);
    }

    pub fn notify_one(&self) -> bool {
        self.0.notify_one();
        true
    }

    pub fn notify_all(&self) -> usize {
        self.0.notify_all();
        0
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

impl std::fmt::Debug for Condvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Condvar { .. }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
    }

    #[test]
    fn rwlock_roundtrip() {
        let l = RwLock::new(vec![1, 2]);
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut done = m.lock();
            while !*done {
                cv.wait(&mut done);
            }
        });
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_one();
        }
        t.join().unwrap();
    }
}
