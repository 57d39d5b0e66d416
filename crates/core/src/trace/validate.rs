//! Trace validation, one event at a time.
//!
//! [`StreamValidator`] is the one validator: the streaming analyzer, which
//! never holds an event vector, pushes events as they are decoded, and
//! [`Trace::validate`] pushes a whole trace through it. Push-time checks
//! report the first ill-formed event; [`finish`](StreamValidator::finish)
//! runs the whole-trace checks from O(threads)-sized accumulators.

use std::collections::HashMap;

use super::event::{EventKind, LockId, ThreadId};
use super::{Trace, ValidateError};

/// Checks a trace's invariants one event at a time (see
/// [`Trace::validate`] for the list).
///
/// Feed every event in order via [`push`](Self::push); an `Err` from push
/// is definitive: it is the first violated invariant. After the last
/// event, [`finish`](Self::finish) runs the whole-trace checks that only
/// make sense at end of stream (orphan threads, event-before-creation,
/// join-before-child's-last-event). Memory is O(threads + live locks),
/// independent of trace length.
#[derive(Debug)]
pub struct StreamValidator {
    thread_count: usize,
    stack_count: usize,
    index: usize,
    first_event: Vec<Option<u64>>,
    last_event: Vec<Option<u64>>,
    created: Vec<Option<u64>>,
    /// Earliest join seq per child: if that one respects the child's final
    /// last event, every later join of the same child does too.
    first_join: Vec<Option<u64>>,
    held: HashMap<LockId, u64>,
}

impl StreamValidator {
    /// Creates a validator for a trace with the given header dimensions.
    pub fn new(thread_count: u32, stack_count: usize) -> Self {
        let n = thread_count as usize;
        let mut created = vec![None; n];
        if n > ThreadId::MAIN.index() {
            created[ThreadId::MAIN.index()] = Some(0);
        }
        Self {
            thread_count: n,
            stack_count,
            index: 0,
            first_event: vec![None; n],
            last_event: vec![None; n],
            created,
            first_join: vec![None; n],
            held: HashMap::new(),
        }
    }

    /// Validates the next event.
    pub fn push(&mut self, ev: &super::event::Event) -> Result<(), ValidateError> {
        let i = self.index;
        if ev.seq != i as u64 {
            return Err(ValidateError::NonDenseSeq {
                index: i,
                seq: ev.seq,
            });
        }
        if ev.tid.index() >= self.thread_count {
            return Err(ValidateError::TidOutOfRange {
                index: i,
                tid: ev.tid,
            });
        }
        if ev.stack as usize >= self.stack_count {
            return Err(ValidateError::UnknownStack {
                index: i,
                stack: ev.stack,
            });
        }
        self.first_event[ev.tid.index()].get_or_insert(ev.seq);
        self.last_event[ev.tid.index()] = Some(ev.seq);
        match ev.kind {
            EventKind::ThreadCreate { child } => {
                if child.index() >= self.thread_count {
                    return Err(ValidateError::UnknownChild { index: i, child });
                }
                if self.created[child.index()].is_some() {
                    return Err(ValidateError::DoubleCreate { child });
                }
                self.created[child.index()] = Some(ev.seq);
            }
            EventKind::ThreadJoin { child } => {
                if child.index() >= self.thread_count {
                    return Err(ValidateError::UnknownChild { index: i, child });
                }
                self.first_join[child.index()].get_or_insert(ev.seq);
            }
            EventKind::Acquire { lock, .. } => {
                *self.held.entry(lock).or_insert(0) += 1;
            }
            EventKind::Release { lock } => {
                let count = self.held.entry(lock).or_insert(0);
                if *count == 0 {
                    return Err(ValidateError::DanglingRelease { index: i, lock });
                }
                *count -= 1;
            }
            _ => {}
        }
        self.index += 1;
        Ok(())
    }

    /// Runs the end-of-stream checks: every thread with events was
    /// created, before its first event, then the first join that precedes
    /// its child's last event.
    pub fn finish(self) -> Result<(), ValidateError> {
        for tid in 0..self.thread_count {
            match (self.created[tid], self.first_event[tid]) {
                (None, Some(first)) => {
                    return Err(ValidateError::OrphanThread {
                        tid: ThreadId(tid as u32),
                        first,
                    })
                }
                (Some(c), Some(first)) if tid != ThreadId::MAIN.index() && first < c => {
                    return Err(ValidateError::EventBeforeCreation {
                        tid: ThreadId(tid as u32),
                        first,
                        created: c,
                    });
                }
                _ => {}
            }
        }
        // The first violating join in event order is reported. Per child
        // only the earliest join is kept, which is the earliest possible
        // violator for that child; the first violator is the minimum of
        // those across children.
        let mut worst: Option<(u64, ThreadId, u64)> = None;
        for child in 0..self.thread_count {
            if let (Some(join_seq), Some(last)) = (self.first_join[child], self.last_event[child]) {
                if last > join_seq && worst.map(|(j, _, _)| join_seq < j).unwrap_or(true) {
                    worst = Some((join_seq, ThreadId(child as u32), last));
                }
            }
        }
        if let Some((join_seq, child, last)) = worst {
            return Err(ValidateError::JoinBeforeChildLastEvent {
                child,
                join_seq,
                last,
            });
        }
        Ok(())
    }

    /// Validates a whole trace: [`Trace::validate`].
    pub fn validate_trace(trace: &Trace) -> Result<(), ValidateError> {
        let mut v = Self::new(trace.thread_count, trace.stacks.stack_count());
        for ev in trace.events.iter() {
            v.push(&ev)?;
        }
        v.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::event::{Event, LockMode};
    use crate::trace::TraceBuilder;

    #[test]
    fn handcrafted_cases_report_the_expected_error() {
        // Valid trace with create/join/locks.
        let mut b = TraceBuilder::new();
        let s = b.intern_stack([]);
        b.push(
            ThreadId(0),
            s,
            EventKind::ThreadCreate { child: ThreadId(1) },
        );
        b.push(
            ThreadId(1),
            s,
            EventKind::Acquire {
                lock: LockId(7),
                mode: LockMode::Exclusive,
            },
        );
        b.push(ThreadId(1), s, EventKind::Release { lock: LockId(7) });
        b.push(ThreadId(0), s, EventKind::ThreadJoin { child: ThreadId(1) });
        assert_eq!(b.finish().validate(), Ok(()));

        // Dangling release.
        let mut b = TraceBuilder::new();
        let s = b.intern_stack([]);
        b.push(ThreadId(0), s, EventKind::Release { lock: LockId(9) });
        assert_eq!(
            b.finish().validate(),
            Err(ValidateError::DanglingRelease {
                index: 0,
                lock: LockId(9)
            })
        );

        // Orphan thread.
        let mut b = TraceBuilder::new();
        let s = b.intern_stack([]);
        b.push(ThreadId(0), s, EventKind::Fence);
        let mut t = b.finish();
        t.thread_count = 3;
        t.events.push(Event {
            seq: 1,
            tid: ThreadId(2),
            stack: 0,
            kind: EventKind::Fence,
        });
        assert_eq!(
            t.validate(),
            Err(ValidateError::OrphanThread {
                tid: ThreadId(2),
                first: 1
            })
        );

        // Event before creation.
        let mut b = TraceBuilder::new();
        let s = b.intern_stack([]);
        b.push(ThreadId(1), s, EventKind::Fence);
        b.push(
            ThreadId(0),
            s,
            EventKind::ThreadCreate { child: ThreadId(1) },
        );
        assert_eq!(
            b.finish().validate(),
            Err(ValidateError::EventBeforeCreation {
                tid: ThreadId(1),
                first: 0,
                created: 1
            })
        );

        // Join before child's last event.
        let mut b = TraceBuilder::new();
        let s = b.intern_stack([]);
        b.push(
            ThreadId(0),
            s,
            EventKind::ThreadCreate { child: ThreadId(1) },
        );
        b.push(ThreadId(0), s, EventKind::ThreadJoin { child: ThreadId(1) });
        b.push(ThreadId(1), s, EventKind::Fence);
        assert_eq!(
            b.finish().validate(),
            Err(ValidateError::JoinBeforeChildLastEvent {
                child: ThreadId(1),
                join_seq: 1,
                last: 2
            })
        );

        // Double create.
        let mut b = TraceBuilder::new();
        let s = b.intern_stack([]);
        for _ in 0..2 {
            b.push(
                ThreadId(0),
                s,
                EventKind::ThreadCreate { child: ThreadId(1) },
            );
        }
        assert_eq!(
            b.finish().validate(),
            Err(ValidateError::DoubleCreate { child: ThreadId(1) })
        );

        // Out-of-range fields, each reported at its event.
        let mut b = TraceBuilder::new();
        let s = b.intern_stack([]);
        b.push(ThreadId(0), s, EventKind::Fence);
        let base = b.finish();
        let mut t = base.clone();
        t.events.set(
            0,
            Event {
                seq: 5,
                ..t.events.get(0)
            },
        );
        assert_eq!(
            t.validate(),
            Err(ValidateError::NonDenseSeq { index: 0, seq: 5 })
        );
        let mut t = base.clone();
        t.events.set(
            0,
            Event {
                tid: ThreadId(4),
                ..t.events.get(0)
            },
        );
        assert_eq!(
            t.validate(),
            Err(ValidateError::TidOutOfRange {
                index: 0,
                tid: ThreadId(4)
            })
        );
        let mut t = base.clone();
        t.events.set(
            0,
            Event {
                stack: 9,
                ..t.events.get(0)
            },
        );
        assert_eq!(
            t.validate(),
            Err(ValidateError::UnknownStack { index: 0, stack: 9 })
        );
        let mut t = base;
        t.events.set(
            0,
            Event {
                kind: EventKind::ThreadJoin { child: ThreadId(3) },
                ..t.events.get(0)
            },
        );
        assert_eq!(
            t.validate(),
            Err(ValidateError::UnknownChild {
                index: 0,
                child: ThreadId(3)
            })
        );
    }
}
