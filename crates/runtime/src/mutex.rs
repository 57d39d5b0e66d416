//! Instrumented synchronization primitives.
//!
//! [`PmMutex`] and [`PmRwLock`] wrap `parking_lot` primitives and record
//! `Acquire`/`Release` events in lock order: the acquire event is recorded
//! *after* the real acquisition and the release event *before* the real
//! release, both atomically with the trace, so the recorded critical
//! sections nest exactly like the real ones.

use std::panic::Location;

use hawkset_core::trace::{LockId, LockMode};

use crate::env::PmEnv;
use crate::thread::PmThread;

/// An instrumented mutex, optionally guarding volatile data `T`.
///
/// The lock identity recorded in the trace is a unique id handed out by the
/// environment (standing in for the lock object's address).
pub struct PmMutex<T = ()> {
    env: PmEnv,
    id: LockId,
    inner: parking_lot::Mutex<T>,
}

impl<T> PmMutex<T> {
    /// Creates an instrumented mutex guarding `value`.
    pub fn new(env: &PmEnv, value: T) -> Self {
        Self {
            env: env.clone(),
            id: env.new_lock_id(),
            inner: parking_lot::Mutex::new(value),
        }
    }

    /// The lock's identity in the trace.
    pub fn id(&self) -> LockId {
        self.id
    }

    /// Acquires the mutex, recording the acquisition for `t`.
    #[track_caller]
    pub fn lock<'a>(&'a self, t: &'a PmThread) -> PmMutexGuard<'a, T> {
        let loc = Location::caller();
        let guard = self.inner.lock();
        self.env
            .record_acquire(t, self.id, LockMode::Exclusive, loc);
        PmMutexGuard {
            guard: Some(guard),
            lock: self,
            t,
            loc,
        }
    }

    /// Tentative acquire; records the acquisition only on success
    /// (trylock semantics, §4).
    #[track_caller]
    pub fn try_lock<'a>(&'a self, t: &'a PmThread) -> Option<PmMutexGuard<'a, T>> {
        let loc = Location::caller();
        let guard = self.inner.try_lock()?;
        self.env
            .record_acquire(t, self.id, LockMode::Exclusive, loc);
        Some(PmMutexGuard {
            guard: Some(guard),
            lock: self,
            t,
            loc,
        })
    }
}

/// RAII guard for [`PmMutex`]; records the release on drop.
pub struct PmMutexGuard<'a, T> {
    guard: Option<parking_lot::MutexGuard<'a, T>>,
    lock: &'a PmMutex<T>,
    t: &'a PmThread,
    loc: &'static Location<'static>,
}

impl<T> core::ops::Deref for PmMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard live")
    }
}

impl<T> core::ops::DerefMut for PmMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard live")
    }
}

impl<T> Drop for PmMutexGuard<'_, T> {
    fn drop(&mut self) {
        // Record the release before actually unlocking so another thread's
        // acquire cannot be recorded in between.
        self.lock.env.record_release(self.t, self.lock.id, self.loc);
        drop(self.guard.take());
    }
}

/// An instrumented reader–writer lock.
pub struct PmRwLock<T = ()> {
    env: PmEnv,
    id: LockId,
    inner: parking_lot::RwLock<T>,
}

impl<T> PmRwLock<T> {
    /// Creates an instrumented rwlock guarding `value`.
    pub fn new(env: &PmEnv, value: T) -> Self {
        Self {
            env: env.clone(),
            id: env.new_lock_id(),
            inner: parking_lot::RwLock::new(value),
        }
    }

    /// The lock's identity in the trace.
    pub fn id(&self) -> LockId {
        self.id
    }

    /// Acquires the lock in shared (read) mode.
    #[track_caller]
    pub fn read<'a>(&'a self, t: &'a PmThread) -> PmReadGuard<'a, T> {
        let loc = Location::caller();
        let guard = self.inner.read();
        self.env.record_acquire(t, self.id, LockMode::Shared, loc);
        PmReadGuard {
            guard: Some(guard),
            lock: self,
            t,
            loc,
        }
    }

    /// Acquires the lock in exclusive (write) mode.
    #[track_caller]
    pub fn write<'a>(&'a self, t: &'a PmThread) -> PmWriteGuard<'a, T> {
        let loc = Location::caller();
        let guard = self.inner.write();
        self.env
            .record_acquire(t, self.id, LockMode::Exclusive, loc);
        PmWriteGuard {
            guard: Some(guard),
            lock: self,
            t,
            loc,
        }
    }

    /// Tentative write acquire; records only on success.
    #[track_caller]
    pub fn try_write<'a>(&'a self, t: &'a PmThread) -> Option<PmWriteGuard<'a, T>> {
        let loc = Location::caller();
        let guard = self.inner.try_write()?;
        self.env
            .record_acquire(t, self.id, LockMode::Exclusive, loc);
        Some(PmWriteGuard {
            guard: Some(guard),
            lock: self,
            t,
            loc,
        })
    }
}

/// Shared-mode RAII guard for [`PmRwLock`].
pub struct PmReadGuard<'a, T> {
    guard: Option<parking_lot::RwLockReadGuard<'a, T>>,
    lock: &'a PmRwLock<T>,
    t: &'a PmThread,
    loc: &'static Location<'static>,
}

impl<T> core::ops::Deref for PmReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard live")
    }
}

impl<T> Drop for PmReadGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.env.record_release(self.t, self.lock.id, self.loc);
        drop(self.guard.take());
    }
}

/// Exclusive-mode RAII guard for [`PmRwLock`].
pub struct PmWriteGuard<'a, T> {
    guard: Option<parking_lot::RwLockWriteGuard<'a, T>>,
    lock: &'a PmRwLock<T>,
    t: &'a PmThread,
    loc: &'static Location<'static>,
}

impl<T> core::ops::Deref for PmWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard live")
    }
}

impl<T> core::ops::DerefMut for PmWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard live")
    }
}

impl<T> Drop for PmWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.env.record_release(self.t, self.lock.id, self.loc);
        drop(self.guard.take());
    }
}

/// How many times [`CustomSpinLock::lock`] retries with a spin-loop hint
/// before it starts yielding its core between attempts.
const SPINS_BEFORE_YIELD: u32 = 64;

/// A spinlock built on a *custom* primitive, visible to the analysis only
/// through the synchronization configuration (§5.5).
///
/// TurboHash- and P-ART-style applications bring their own concurrency
/// control; analysing them requires a config file naming the primitive's
/// functions. This type demonstrates the full path: the acquire/release
/// calls are routed through [`PmEnv::custom_sync_call`], so whether they
/// reach the trace depends entirely on the installed [`SyncConfig`].
///
/// [`SyncConfig`]: hawkset_core::sync_config::SyncConfig
pub struct CustomSpinLock {
    env: PmEnv,
    id: LockId,
    flag: std::sync::atomic::AtomicBool,
    acquire_fn: &'static str,
    release_fn: &'static str,
}

impl CustomSpinLock {
    /// Creates a spinlock whose acquire/release functions are named
    /// `acquire_fn`/`release_fn` in the sync configuration.
    pub fn new(env: &PmEnv, acquire_fn: &'static str, release_fn: &'static str) -> Self {
        Self {
            env: env.clone(),
            id: env.new_lock_id(),
            flag: std::sync::atomic::AtomicBool::new(false),
            acquire_fn,
            release_fn,
        }
    }

    /// The lock's identity in the trace.
    pub fn id(&self) -> LockId {
        self.id
    }

    /// Spins until acquired, then reports the call to the configuration.
    ///
    /// After a bounded spin (64 failed attempts) each retry first yields
    /// the core: the holder may be waiting for the recording lock,
    /// and with more threads than cores a spinner that never yields burns
    /// whole time slices the holder needs to get there.
    #[track_caller]
    pub fn lock(&self, t: &PmThread) {
        let mut spins = 0;
        while self
            .flag
            .compare_exchange_weak(
                false,
                true,
                std::sync::atomic::Ordering::Acquire,
                std::sync::atomic::Ordering::Relaxed,
            )
            .is_err()
        {
            if spins < SPINS_BEFORE_YIELD {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        self.env.custom_sync_call(t, self.acquire_fn, self.id, None);
    }

    /// Reports the release to the configuration, then unlocks.
    #[track_caller]
    pub fn unlock(&self, t: &PmThread) {
        self.env.custom_sync_call(t, self.release_fn, self.id, None);
        self.flag.store(false, std::sync::atomic::Ordering::Release);
    }

    /// Runs `f` under the lock.
    #[track_caller]
    pub fn with<R>(&self, t: &PmThread, f: impl FnOnce() -> R) -> R {
        self.lock(t);
        let out = f();
        self.unlock(t);
        out
    }
}
