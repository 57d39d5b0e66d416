//! # hawkset-core
//!
//! Automatic, application-agnostic, efficient detection of
//! **persistency-induced races** in Persistent Memory (PM) programs — a
//! from-scratch Rust reproduction of *HawkSet* (EuroSys 2025).
//!
//! A persistency-induced race (Definition 1 of the paper) occurs when a
//! thread loads a value modified by another thread while that value is *not
//! guaranteed to be persisted*: the value is visible (it is in the cache)
//! but a crash can still lose it, so post-crash state may reflect side
//! effects of the load without the store itself.
//!
//! The crate implements the full analysis pipeline of the paper:
//!
//! 1. a trace model ([`trace`]) fed by an instrumentation substrate,
//! 2. a worst-case persistence simulation ([`memsim`]) that turns stores,
//!    flushes and fences into *store visibility windows*,
//! 3. the Initialization Removal Heuristic ([`irh`]),
//! 4. the PM-aware lockset analysis ([`analysis`]) with effective locksets
//!    ([`lockset`]) and inter-thread happens-before pruning ([`vclock`]).
//!
//! # Examples
//!
//! ```
//! use hawkset_core::addr::AddrRange;
//! use hawkset_core::analysis::{AnalysisConfig, Analyzer};
//! use hawkset_core::trace::{EventKind, Frame, LockId, LockMode, ThreadId, TraceBuilder};
//!
//! // Figure 1c of the paper: store under lock A, persist outside the
//! // critical section, concurrent load under lock A in another thread.
//! let mut b = TraceBuilder::new();
//! let x = AddrRange::new(0x1000, 8);
//! let a = LockId(0xa);
//! let st = b.intern_stack([Frame::new("writer", "fig1c.rs", 3)]);
//! let ld = b.intern_stack([Frame::new("reader", "fig1c.rs", 9)]);
//!
//! b.push(ThreadId(0), st, EventKind::ThreadCreate { child: ThreadId(1) });
//! b.push(ThreadId(0), st, EventKind::Acquire { lock: a, mode: LockMode::Exclusive });
//! b.push(ThreadId(0), st, EventKind::Store { range: x, non_temporal: false, atomic: false });
//! b.push(ThreadId(0), st, EventKind::Release { lock: a });
//! b.push(ThreadId(1), ld, EventKind::Acquire { lock: a, mode: LockMode::Exclusive });
//! b.push(ThreadId(1), ld, EventKind::Load { range: x, atomic: false });
//! b.push(ThreadId(1), ld, EventKind::Release { lock: a });
//! b.push(ThreadId(0), st, EventKind::Flush { addr: 0x1000 }); // persist too late,
//! b.push(ThreadId(0), st, EventKind::Fence); //                 outside the lock
//! b.push(ThreadId(0), st, EventKind::ThreadJoin { child: ThreadId(1) });
//!
//! let report = Analyzer::new(AnalysisConfig::default()).run(&b.finish());
//! assert_eq!(report.races.len(), 1, "the Figure 1c race must be detected");
//! ```

pub mod addr;
pub mod analysis;
pub mod error;
pub mod faults;
pub mod hash;
pub mod intern;
pub mod ioplane;
pub mod irh;
pub mod lockset;
pub mod memsim;
pub mod obs;
pub mod parallel;
pub mod stats;
pub mod supervise;
pub mod sync_config;
pub mod trace;
pub mod vclock;

pub use analysis::{AnalysisConfig, AnalysisReport, Analyzer, Race, Strictness};
pub use error::{HawkSetError, ResourceError};
pub use ioplane::{plane_from_env, FaultScript, IoPlane, RealIo, ScriptedIo};
pub use obs::{MetricsSnapshot, ObsHook};
pub use trace::{Trace, TraceBuilder};
