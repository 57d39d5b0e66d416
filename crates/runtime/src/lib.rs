//! # pm-runtime
//!
//! An instrumented persistent-memory substrate: the trace *producer* for
//! the HawkSet reproduction.
//!
//! The original tool attaches Intel PIN to unmodified binaries and observes
//! PM accesses, persistency instructions, synchronization primitives and
//! thread lifecycle events. This crate provides the same observation
//! surface for applications written against its API:
//!
//! * [`PmEnv`] — the world: pool mapping, thread spawning, trace recording,
//!   worst-case persistent image, crash simulation;
//! * [`PmPool`] — `mmap`ed-DAX-file analogue with typed store/load/flush
//!   primitives (`clwb`-style flushes, `sfence`-style fences, non-temporal
//!   and atomic accesses, CAS);
//! * [`PmMutex`] / [`PmRwLock`] — pthread-analogue instrumented locks;
//!   [`CustomSpinLock`] — a custom primitive visible only through a
//!   [`SyncConfig`](hawkset_core::sync_config::SyncConfig) (§5.5);
//! * [`PmAllocator`] — PM allocation with address reuse (the memcached IRH
//!   limitation of §7 falls out of this);
//! * [`PmThread`] — per-thread context carrying the synthetic call stack
//!   attached to every event.
//!
//! Every recorded event is a linearization point of the operation it
//! describes (one internal lock serializes operation + record), so the
//! produced [`Trace`](hawkset_core::trace::Trace) is a legal interleaving
//! of the real concurrent execution — the exact property PIN's serialized
//! analysis callbacks give the original tool.
//!
//! # Examples
//!
//! Reproducing Figure 1c end-to-end (runtime → trace → analysis):
//!
//! ```
//! use hawkset_core::analysis::Analyzer;
//! use pm_runtime::{PmEnv, PmMutex};
//! use std::sync::Arc;
//!
//! let env = PmEnv::new();
//! let pool = env.map_pool("/mnt/pmem/fig1c", 4096);
//! let main = env.main_thread();
//! let x = pool.base();
//! let lock = Arc::new(PmMutex::new(&env, ()));
//!
//! // Main initializes X and persists it — ordinary setup. (Without this,
//! // the Initialization Removal Heuristic would rightly treat T1's
//! // persisted store as initialization if T2 happened to run late.)
//! pool.store_u64(&main, x, 0);
//! pool.persist(&main, x, 8);
//!
//! // T1: store X under lock A ... persist X *outside* the lock.
//! let (p, l) = (pool.clone(), Arc::clone(&lock));
//! let t1 = env.spawn(&main, move |t| {
//!     {
//!         let _g = l.lock(t);
//!         p.store_u64(t, x, 42);
//!     }
//!     p.persist(t, x, 8); // too late: outside the critical section
//! });
//!
//! // T2: load X under lock A.
//! let (p, l) = (pool.clone(), Arc::clone(&lock));
//! let t2 = env.spawn(&main, move |t| {
//!     let _g = l.lock(t);
//!     p.load_u64(t, x)
//! });
//!
//! t1.join(&main);
//! t2.join(&main);
//! let report = Analyzer::default().run(&env.finish());
//! assert_eq!(report.races.len(), 1);
//! ```

pub mod alloc;
pub mod crash;
pub mod env;
pub mod guard;
pub mod harness;
pub mod mutex;
pub mod pool;
pub mod thread;

pub use alloc::{AllocError, PmAllocator};
pub use crash::{CrashImage, CrashInjector, CrashMode, PoolImage, SimulatedCrash};
pub use env::{Hook, HookPoint, Observation, PmEnv};
pub use guard::TraceGuard;
pub use harness::run_workers;
pub use mutex::{CustomSpinLock, PmMutex, PmRwLock};
pub use pool::PmPool;
pub use thread::{FrameGuard, PmJoinHandle, PmThread};
