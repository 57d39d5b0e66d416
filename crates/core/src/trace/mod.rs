//! Execution traces: the interface between instrumentation and analysis.

pub mod columns;
pub mod event;
pub mod io;
pub mod stack;
pub mod stream;
pub mod validate;

use serde::{Deserialize, Serialize};

pub use columns::{EventColumns, EventsView};
pub use event::{Event, EventKind, LockId, LockMode, StackId, ThreadId};
pub use stack::{Frame, FrameId, StackTable, EMPTY_STACK};

use crate::addr::{AddrRange, PmAddr};

/// A semantic invariant violated by a trace.
///
/// Decoding guarantees only structural well-formedness; these are the
/// *semantic* invariants checked by [`Trace::validate`] (and quarantined,
/// rather than rejected, by the lenient analysis mode).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateError {
    /// An event's `seq` does not equal its position.
    NonDenseSeq {
        /// Position of the offending event.
        index: usize,
        /// The `seq` it carries.
        seq: u64,
    },
    /// An event's thread id is not below `thread_count`.
    TidOutOfRange {
        /// Position of the offending event.
        index: usize,
        /// The out-of-range thread.
        tid: ThreadId,
    },
    /// An event references a stack id with no table entry.
    UnknownStack {
        /// Position of the offending event.
        index: usize,
        /// The dangling stack id.
        stack: StackId,
    },
    /// A `ThreadCreate` names a child outside `thread_count`.
    UnknownChild {
        /// Position of the offending event.
        index: usize,
        /// The out-of-range child.
        child: ThreadId,
    },
    /// A thread was created twice.
    DoubleCreate {
        /// The twice-created thread.
        child: ThreadId,
    },
    /// A thread has events but no `ThreadCreate`.
    OrphanThread {
        /// The never-created thread.
        tid: ThreadId,
        /// Sequence number of its first event.
        first: u64,
    },
    /// A thread's first event precedes its creation.
    EventBeforeCreation {
        /// The offending thread.
        tid: ThreadId,
        /// Sequence number of its first event.
        first: u64,
        /// Sequence number of its creation.
        created: u64,
    },
    /// A join precedes the joined thread's last event.
    JoinBeforeChildLastEvent {
        /// The joined thread.
        child: ThreadId,
        /// Sequence number of the join.
        join_seq: u64,
        /// Sequence number of the child's last event.
        last: u64,
    },
    /// A lock was released while no thread held it.
    DanglingRelease {
        /// Position of the offending event.
        index: usize,
        /// The lock that was not held.
        lock: LockId,
    },
}

impl core::fmt::Display for ValidateError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ValidateError::NonDenseSeq { index, seq } => {
                write!(f, "event {index} has seq {seq}, expected {index}")
            }
            ValidateError::TidOutOfRange { index, tid } => {
                write!(f, "event {index} has tid {tid} >= thread_count")
            }
            ValidateError::UnknownStack { index, stack } => {
                write!(f, "event {index} references unknown stack {stack}")
            }
            ValidateError::UnknownChild { index, child } => {
                write!(f, "event {index} creates unknown thread {child}")
            }
            ValidateError::DoubleCreate { child } => write!(f, "thread {child} created twice"),
            ValidateError::OrphanThread { tid, first } => {
                write!(f, "thread {tid} has event at seq {first} but no creation")
            }
            ValidateError::EventBeforeCreation {
                tid,
                first,
                created,
            } => {
                write!(
                    f,
                    "thread {tid} has event at seq {first} before its creation at {created}"
                )
            }
            ValidateError::JoinBeforeChildLastEvent {
                child,
                join_seq,
                last,
            } => {
                write!(
                    f,
                    "join of {child} at seq {join_seq} precedes its last event at {last}"
                )
            }
            ValidateError::DanglingRelease { index, lock } => {
                write!(f, "event {index} releases lock {lock:?} which is not held")
            }
        }
    }
}

impl std::error::Error for ValidateError {}

/// A registered persistent-memory mapping.
///
/// The original tool records `mmap` calls on files under the PM mount and
/// classifies accesses by comparing target addresses against these regions
/// (§4). The runtime substrate registers each simulated pool here.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PmRegion {
    /// Base address of the mapping.
    pub base: PmAddr,
    /// Length in bytes.
    pub len: u64,
    /// Path of the backing file (informational).
    pub path: String,
}

impl PmRegion {
    /// Returns `true` if the byte range falls entirely inside the region.
    pub fn contains(&self, range: &AddrRange) -> bool {
        range.start >= self.base && range.end() <= self.base + self.len
    }
}

/// A complete recorded execution.
///
/// Events are totally ordered by `seq` — the order in which the
/// instrumentation observed them, which is a legal linearization of the real
/// concurrent execution (each event is recorded atomically with the action
/// it describes).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Trace {
    /// All events, sorted by `seq`, stored column-wise ([`EventColumns`]).
    pub events: EventColumns,
    /// Interned call stacks referenced by the events.
    pub stacks: StackTable,
    /// Registered PM mappings.
    pub regions: Vec<PmRegion>,
    /// Number of threads that appear in the trace.
    pub thread_count: u32,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self {
            events: EventColumns::new(),
            stacks: StackTable::new(),
            regions: Vec::new(),
            thread_count: 1,
        }
    }

    /// Returns `true` if `range` lies within a registered PM region.
    pub fn is_pm(&self, range: &AddrRange) -> bool {
        self.regions.iter().any(|r| r.contains(range))
    }

    /// Iterates over events in observation order, materialized by value.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Event> + '_ {
        self.events.iter()
    }

    /// Number of PM access events (stores + loads).
    pub fn access_count(&self) -> usize {
        self.events.iter().filter(|e| e.kind.is_access()).count()
    }

    /// Validates internal consistency; returns the first violated invariant.
    ///
    /// Checked invariants: `seq` is dense and strictly increasing, stack ids
    /// are valid, thread ids are below `thread_count`, thread creation
    /// precedes any event of the child, joins follow the child's last event,
    /// and every release matches an earlier acquisition of the same lock.
    /// (The lock balance is tracked globally, not per thread: cross-thread
    /// lock handoff is a legal pattern the runtime can record.)
    pub fn validate(&self) -> Result<(), ValidateError> {
        validate::StreamValidator::validate_trace(self)
    }

    /// Approximate heap footprint in bytes, for the Figure 6 cost study.
    pub fn approx_bytes(&self) -> usize {
        self.events.approx_bytes() + self.stacks.approx_bytes()
    }
}

/// A borrowed, possibly event-truncated view of a [`Trace`].
///
/// The analysis pipeline operates on views rather than owned traces so that
/// budget-capped runs ([`AnalysisBudget::max_events`]) analyze a prefix
/// *sub-slice* of the event stream instead of cloning the entire event
/// vector — exactly the large-trace case where the clone would be most
/// expensive. Stacks and regions are always shared in full: a prefix never
/// invalidates a stack id or a region registration.
///
/// [`AnalysisBudget::max_events`]: crate::analysis::AnalysisBudget::max_events
#[derive(Clone, Copy, Debug)]
pub struct TraceView<'a> {
    /// The (possibly truncated) event stream, sorted by `seq`, viewed
    /// column-wise.
    pub events: EventsView<'a>,
    /// Interned call stacks referenced by the events.
    pub stacks: &'a StackTable,
    /// Registered PM mappings.
    pub regions: &'a [PmRegion],
    /// Number of threads that appear in the underlying trace.
    pub thread_count: u32,
}

impl<'a> TraceView<'a> {
    /// A view of the whole trace.
    pub fn full(trace: &'a Trace) -> Self {
        Self {
            events: trace.events.view(),
            stacks: &trace.stacks,
            regions: &trace.regions,
            thread_count: trace.thread_count,
        }
    }

    /// A view of the first `max_events` events (the whole trace if shorter).
    pub fn prefix(trace: &'a Trace, max_events: usize) -> Self {
        Self {
            events: trace.events.prefix(max_events),
            ..Self::full(trace)
        }
    }

    /// Returns `true` if `range` lies within a registered PM region.
    pub fn is_pm(&self, range: &AddrRange) -> bool {
        self.regions.iter().any(|r| r.contains(range))
    }
}

/// Incremental construction of a [`Trace`] from a single logical stream.
///
/// The runtime substrate funnels per-thread observations through a global
/// sequencer and appends them here. Builders are intentionally not
/// thread-safe: synchronization is the runtime's concern.
#[derive(Debug, Default)]
pub struct TraceBuilder {
    trace: Trace,
}

impl TraceBuilder {
    /// Creates a builder with an empty trace.
    pub fn new() -> Self {
        Self {
            trace: Trace::new(),
        }
    }

    /// Registers a PM mapping.
    pub fn add_region(&mut self, region: PmRegion) {
        self.trace.regions.push(region);
    }

    /// Interns a stack and returns its id.
    pub fn intern_stack(&mut self, frames: impl IntoIterator<Item = Frame>) -> StackId {
        self.trace.stacks.intern_stack(frames)
    }

    /// Appends an event; its `seq` is assigned automatically.
    pub fn push(&mut self, tid: ThreadId, stack: StackId, kind: EventKind) {
        let seq = self.trace.events.len() as u64;
        if tid.index() as u32 >= self.trace.thread_count {
            self.trace.thread_count = tid.0 + 1;
        }
        if let EventKind::ThreadCreate { child } = kind {
            if child.0 >= self.trace.thread_count {
                self.trace.thread_count = child.0 + 1;
            }
        }
        self.trace.events.push(Event {
            seq,
            tid,
            stack,
            kind,
        });
    }

    /// Finalizes the trace.
    pub fn finish(self) -> Trace {
        self.trace
    }

    /// Returns a copy of the trace recorded so far without consuming the
    /// builder.
    ///
    /// This is what makes crash-resilient recording possible: a drop guard
    /// can persist the well-formed prefix observed up to a panic while the
    /// builder keeps accepting events.
    pub fn snapshot(&self) -> Trace {
        self.trace.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(range: AddrRange) -> EventKind {
        EventKind::Store {
            range,
            non_temporal: false,
            atomic: false,
        }
    }

    #[test]
    fn builder_assigns_dense_seq_and_thread_count() {
        let mut b = TraceBuilder::new();
        let s = b.intern_stack([Frame::new("f", "x.rs", 1)]);
        b.push(
            ThreadId(0),
            s,
            EventKind::ThreadCreate { child: ThreadId(1) },
        );
        b.push(ThreadId(1), s, store(AddrRange::new(0, 8)));
        b.push(ThreadId(0), s, EventKind::ThreadJoin { child: ThreadId(1) });
        let t = b.finish();
        assert_eq!(t.thread_count, 2);
        assert_eq!(t.events.len(), 3);
        assert!(t.validate().is_ok());
        assert_eq!(t.access_count(), 1);
    }

    #[test]
    fn validate_rejects_event_before_creation() {
        let mut b = TraceBuilder::new();
        let s = b.intern_stack([]);
        b.push(ThreadId(1), s, store(AddrRange::new(0, 8)));
        b.push(
            ThreadId(0),
            s,
            EventKind::ThreadCreate { child: ThreadId(1) },
        );
        let t = b.finish();
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_rejects_join_before_child_last_event() {
        let mut b = TraceBuilder::new();
        let s = b.intern_stack([]);
        b.push(
            ThreadId(0),
            s,
            EventKind::ThreadCreate { child: ThreadId(1) },
        );
        b.push(ThreadId(0), s, EventKind::ThreadJoin { child: ThreadId(1) });
        b.push(ThreadId(1), s, store(AddrRange::new(0, 8)));
        let t = b.finish();
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_rejects_dangling_release() {
        let mut b = TraceBuilder::new();
        let s = b.intern_stack([]);
        b.push(ThreadId(0), s, EventKind::Release { lock: LockId(7) });
        let t = b.finish();
        assert!(matches!(
            t.validate(),
            Err(ValidateError::DanglingRelease {
                index: 0,
                lock: LockId(7)
            })
        ));
    }

    #[test]
    fn validate_allows_cross_thread_lock_handoff() {
        // T0 acquires, T1 releases: unusual, but legal (global balance).
        let mut b = TraceBuilder::new();
        let s = b.intern_stack([]);
        b.push(
            ThreadId(0),
            s,
            EventKind::ThreadCreate { child: ThreadId(1) },
        );
        b.push(
            ThreadId(0),
            s,
            EventKind::Acquire {
                lock: LockId(7),
                mode: LockMode::Exclusive,
            },
        );
        b.push(ThreadId(1), s, EventKind::Release { lock: LockId(7) });
        b.push(ThreadId(0), s, EventKind::ThreadJoin { child: ThreadId(1) });
        let t = b.finish();
        assert!(t.validate().is_ok());
    }

    #[test]
    fn snapshot_is_a_prefix_of_the_final_trace() {
        let mut b = TraceBuilder::new();
        let s = b.intern_stack([Frame::new("f", "x.rs", 1)]);
        b.push(ThreadId(0), s, store(AddrRange::new(0, 8)));
        let snap = b.snapshot();
        b.push(ThreadId(0), s, store(AddrRange::new(8, 8)));
        let full = b.finish();
        assert_eq!(snap.events.len(), 1);
        assert_eq!(full.events.len(), 2);
        assert_eq!(snap.events.get(0), full.events.get(0));
        assert!(snap.validate().is_ok());
    }

    #[test]
    fn pm_region_classification() {
        let mut t = Trace::new();
        t.regions.push(PmRegion {
            base: 0x1000,
            len: 0x1000,
            path: "/mnt/pmem/pool".into(),
        });
        assert!(t.is_pm(&AddrRange::new(0x1000, 8)));
        assert!(t.is_pm(&AddrRange::new(0x1ff8, 8)));
        assert!(!t.is_pm(&AddrRange::new(0x1ffc, 8))); // straddles the end
        assert!(!t.is_pm(&AddrRange::new(0x800, 8)));
    }
}
