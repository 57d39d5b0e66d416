//! Replay-with-patch: re-simulating a trace with synthetic events applied.
//!
//! The repair engine ([`crate::analysis::repair`]) proposes instrumentation-
//! level patches — flush/fence insertions and lock-scope moves — and proves
//! them by *replaying* the original event stream with the patch applied
//! through the same incremental simulator the streaming analyzer uses
//! ([`StreamSimulator`]). This module is that replay substrate: a patch is a
//! set of event-level edits keyed by the original sequence numbers, applied
//! in one pass and densely re-sequenced so the patched stream is
//! indistinguishable from a trace recorded with the fix in place.
//!
//! A patched stream equals the recorded one up to the patch's first edit,
//! so [`simulate_patches`] replays many patches over one shared simulation
//! of the recorded stream, forking it at each patch's first edit.
//! [`simulate_patched`] is the independent full replay it must agree with.
//! Unbudgeted repair runs decide their patches without either (DESIGN.md
//! §4k); replays prove the patches of budgeted runs, and they are the
//! reference the footprint verdicts are checked against.

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::iter::Peekable;

use crate::trace::{Event, EventKind, StackId, ThreadId, TraceView};

use super::{AccessSet, SimConfig, StreamSimulator};

/// One synthetic event to splice into the stream: who appears to have
/// executed it and what it does. The `seq` is assigned during application.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SyntheticEvent {
    /// Thread the event is attributed to.
    pub tid: ThreadId,
    /// Stack the event is attributed to — patches reuse an existing stack
    /// id (typically the patched store's) so the stack table needs no
    /// growth and race keys stay comparable across replays.
    pub stack: StackId,
    /// The operation.
    pub kind: EventKind,
}

/// An event-level edit script over one trace view.
///
/// Edits are keyed by the *original* sequence numbers; application walks
/// the view once, drops removed events, splices insertions, and re-sequences
/// the result densely (the same normalization the lenient streaming path
/// applies to quarantined traces).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EventPatch {
    /// Events to drop, by original `seq`.
    removed: BTreeSet<u64>,
    /// Synthetic events spliced in *before* the event with the keyed `seq`.
    before: BTreeMap<u64, Vec<SyntheticEvent>>,
    /// Synthetic events spliced in *after* the event with the keyed `seq`.
    after: BTreeMap<u64, Vec<SyntheticEvent>>,
}

impl EventPatch {
    /// An empty patch (replays the view unchanged).
    pub fn new() -> Self {
        Self::default()
    }

    /// True when the patch edits nothing.
    pub fn is_empty(&self) -> bool {
        self.removed.is_empty() && self.before.is_empty() && self.after.is_empty()
    }

    /// Number of edits (removals + insertions).
    pub fn len(&self) -> usize {
        self.removed.len()
            + self.before.values().map(Vec::len).sum::<usize>()
            + self.after.values().map(Vec::len).sum::<usize>()
    }

    /// Drops the event with original sequence number `seq`.
    pub fn remove(&mut self, seq: u64) {
        self.removed.insert(seq);
    }

    /// Splices `ev` immediately before the event with original `seq`
    /// (insertions at the same anchor keep their call order).
    pub fn insert_before(&mut self, seq: u64, ev: SyntheticEvent) {
        self.before.entry(seq).or_default().push(ev);
    }

    /// Splices `ev` immediately after the event with original `seq`
    /// (insertions at the same anchor keep their call order).
    pub fn insert_after(&mut self, seq: u64, ev: SyntheticEvent) {
        self.after.entry(seq).or_default().push(ev);
    }

    /// Applies the edit script to `view`, returning the patched event
    /// stream densely re-sequenced from 0.
    pub fn apply(&self, view: &TraceView<'_>) -> Vec<Event> {
        let mut out = Vec::with_capacity(view.events.len() + self.len());
        let push = |out: &mut Vec<Event>, tid, stack, kind| {
            let seq = out.len() as u64;
            out.push(Event {
                seq,
                tid,
                stack,
                kind,
            });
        };
        for ev in view.events.iter() {
            if let Some(inserts) = self.before.get(&ev.seq) {
                for s in inserts {
                    push(&mut out, s.tid, s.stack, s.kind);
                }
            }
            if !self.removed.contains(&ev.seq) {
                push(&mut out, ev.tid, ev.stack, ev.kind);
            }
            if let Some(inserts) = self.after.get(&ev.seq) {
                for s in inserts {
                    push(&mut out, s.tid, s.stack, s.kind);
                }
            }
        }
        out
    }

    /// Index of the first recorded event in `view` the patch touches —
    /// removes, or splices events before or after — or `view.events.len()`
    /// when it touches none. [`apply`] emits every event before it
    /// unchanged, with `seq` equal to its index. Relies on the view's
    /// events being sorted by `seq`.
    ///
    /// [`apply`]: Self::apply
    fn first_edit(&self, view: &TraceView<'_>) -> usize {
        let seqs = view.events.seqs();
        let keys = self.removed.iter().chain(self.before.keys());
        keys.chain(self.after.keys())
            .filter_map(|&seq| {
                let i = seqs.partition_point(|&s| s < seq);
                (seqs.get(i) == Some(&seq)).then_some(i)
            })
            .min()
            .unwrap_or(seqs.len())
    }

    /// Feeds `sim` the patched stream for the recorded events from index
    /// `start` on, numbering each emitted event by the count of events
    /// `sim` has stepped: what [`apply`](Self::apply) emits there when the
    /// patch touches no event before `start` and `sim` has stepped exactly
    /// what `apply` emits before it.
    ///
    /// The view's events are sorted by `seq`, so the edits are read with
    /// one cursor per map, each advanced past the keys below the current
    /// event's `seq`, instead of a lookup per map and event.
    fn replay(&self, view: &TraceView<'_>, start: usize, sim: &mut StreamSimulator) {
        let mut emit = |tid, stack, kind| {
            let seq = sim.stats().events;
            sim.step(&Event {
                seq,
                tid,
                stack,
                kind,
            });
        };
        let Some(&from) = view.events.seqs().get(start) else {
            return;
        };
        let mut before = self.before.range(from..).peekable();
        let mut removed = self.removed.range(from..).map(|s| (s, ())).peekable();
        let mut after = self.after.range(from..).peekable();
        for i in start..view.events.len() {
            let ev = view.events.get(i);
            for s in at(&mut before, ev.seq).into_iter().flatten() {
                emit(s.tid, s.stack, s.kind);
            }
            if at(&mut removed, ev.seq).is_none() {
                emit(ev.tid, ev.stack, ev.kind);
            }
            for s in at(&mut after, ev.seq).into_iter().flatten() {
                emit(s.tid, s.stack, s.kind);
            }
        }
    }
}

/// Advances `cursor`, over an edit map's entries in ascending key order,
/// past the keys below `seq`, and returns the value at `seq` if there is
/// one. That entry stays current, for an event with an equal `seq`.
fn at<'a, V: Copy>(
    cursor: &mut Peekable<impl Iterator<Item = (&'a u64, V)>>,
    seq: u64,
) -> Option<V> {
    while cursor.next_if(|&(&key, _)| key < seq).is_some() {}
    cursor
        .peek()
        .filter(|&&(&key, _)| key == seq)
        .map(|&(_, v)| v)
}

/// Replays `view` with `patch` applied through the incremental simulator —
/// the replay-with-patch mode backing repair validation. The result is an
/// [`AccessSet`] computed exactly as a streamed analysis of the patched
/// trace would compute it.
pub fn simulate_patched(view: &TraceView<'_>, patch: &EventPatch, cfg: &SimConfig) -> AccessSet {
    let mut sim = StreamSimulator::new(view.thread_count, view.regions.to_vec(), cfg);
    for ev in patch.apply(view) {
        sim.step(&ev);
    }
    sim.finish()
}

/// Replays `view` once per patch over one shared simulation of the
/// recorded prefix: a single simulator steps through the unedited events in
/// the order of the patches' first edits and is cloned at each, and only
/// the clone streams that patch's suffix. At most two simulators are alive
/// at a time, the shared one and one fork, each under `cfg`'s memory
/// budget. `each(i, access)` receives the access set of `patches[i]`,
/// equal to [`simulate_patched`]'s, in order of first edit.
pub fn simulate_patches(
    view: &TraceView<'_>,
    patches: &[EventPatch],
    cfg: &SimConfig,
    mut each: impl FnMut(usize, AccessSet),
) {
    let mut order: Vec<(usize, usize)> = patches
        .iter()
        .enumerate()
        .map(|(i, p)| (p.first_edit(view), i))
        .collect();
    order.sort_unstable();
    let mut shared = StreamSimulator::new(view.thread_count, view.regions.to_vec(), cfg);
    let mut next = 0;
    for (fork, i) in order {
        for at in next..fork {
            shared.step(&Event {
                seq: at as u64,
                ..view.events.get(at)
            });
        }
        next = fork;
        let mut sim = shared.clone();
        patches[i].replay(view, fork, &mut sim);
        each(i, sim.finish());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::AddrRange;
    use crate::memsim::{simulate_view, MEMORY_CHECK_INTERVAL};
    use crate::trace::{Frame, Trace, TraceBuilder};

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);

    fn unpersisted_trace() -> Trace {
        let mut b = TraceBuilder::new();
        b.add_region(crate::trace::PmRegion {
            base: 0x1000,
            len: 0x1000,
            path: "/mnt/pmem/patch".into(),
        });
        let st = b.intern_stack([Frame::new("writer", "w.rs", 1)]);
        let ld = b.intern_stack([Frame::new("reader", "r.rs", 2)]);
        b.push(T0, st, EventKind::ThreadCreate { child: T1 });
        b.push(
            T0,
            st,
            EventKind::Store {
                range: AddrRange::new(0x1000, 8),
                non_temporal: false,
                atomic: false,
            },
        );
        b.push(
            T1,
            ld,
            EventKind::Load {
                range: AddrRange::new(0x1000, 8),
                atomic: false,
            },
        );
        b.push(T0, st, EventKind::ThreadJoin { child: T1 });
        b.finish()
    }

    #[test]
    fn empty_patch_replays_identically() {
        let trace = unpersisted_trace();
        let view = TraceView::full(&trace);
        let base = simulate_view(view, &SimConfig::default());
        let patched = simulate_patched(&view, &EventPatch::new(), &SimConfig::default());
        assert_eq!(base.windows, patched.windows);
        assert_eq!(base.loads, patched.loads);
    }

    #[test]
    fn inserted_flush_fence_closes_the_window() {
        let trace = unpersisted_trace();
        let view = TraceView::full(&trace);
        let base = simulate_view(view, &SimConfig::default());
        assert!(base.windows[0].close_vc.is_none(), "window starts open");

        let mut patch = EventPatch::new();
        let stack = trace.events.get(1).stack;
        patch.insert_after(
            1,
            SyntheticEvent {
                tid: T0,
                stack,
                kind: EventKind::Flush { addr: 0x1000 },
            },
        );
        patch.insert_after(
            1,
            SyntheticEvent {
                tid: T0,
                stack,
                kind: EventKind::Fence,
            },
        );
        let patched = simulate_patched(&view, &patch, &SimConfig::default());
        assert!(
            patched.windows[0].close_vc.is_some(),
            "patched window must be persisted"
        );
    }

    #[test]
    fn apply_reseqs_densely_and_honors_removal() {
        let trace = unpersisted_trace();
        let view = TraceView::full(&trace);
        let mut patch = EventPatch::new();
        patch.remove(2);
        patch.insert_before(
            1,
            SyntheticEvent {
                tid: T0,
                stack: trace.events.get(1).stack,
                kind: EventKind::Fence,
            },
        );
        let events = patch.apply(&view);
        assert_eq!(events.len(), trace.events.len()); // -1 removal +1 insert
        for (i, ev) in events.iter().enumerate() {
            assert_eq!(ev.seq, i as u64, "dense re-sequencing");
        }
        assert!(matches!(events[1].kind, EventKind::Fence));
        assert!(!events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Load { .. })));
    }

    /// Two workers taking turns: a store under a shared lock to one of
    /// three words, an unlocked load of the other worker's line, and every
    /// fourth turn a flush+fence of the stored line. Windows close by
    /// persist, by overwrite, and never.
    fn busy_trace(rounds: u64) -> Trace {
        use crate::trace::{LockId, LockMode};
        let mut b = TraceBuilder::new();
        b.add_region(crate::trace::PmRegion {
            base: 0x1000,
            len: 0x1000,
            path: "/mnt/pmem/sweep".into(),
        });
        let st = b.intern_stack([Frame::new("writer", "w.rs", 1)]);
        let ld = b.intern_stack([Frame::new("reader", "r.rs", 2)]);
        let t2 = ThreadId(2);
        let lock = LockId(7);
        b.push(T0, st, EventKind::ThreadCreate { child: T1 });
        b.push(T0, st, EventKind::ThreadCreate { child: t2 });
        for r in 0..rounds {
            for (tid, mine, theirs) in [(T1, 0x1000, 0x1040), (t2, 0x1040, 0x1000)] {
                let addr = mine + (r % 3) * 8;
                let mode = LockMode::Exclusive;
                b.push(tid, st, EventKind::Acquire { lock, mode });
                b.push(
                    tid,
                    st,
                    EventKind::Store {
                        range: AddrRange::new(addr, 8),
                        non_temporal: false,
                        atomic: false,
                    },
                );
                b.push(tid, st, EventKind::Release { lock });
                b.push(
                    tid,
                    ld,
                    EventKind::Load {
                        range: AddrRange::new(theirs + (r % 3) * 8, 8),
                        atomic: false,
                    },
                );
                if r % 4 == 3 {
                    b.push(tid, st, EventKind::Flush { addr });
                    b.push(tid, st, EventKind::Fence);
                }
            }
        }
        b.push(T0, st, EventKind::ThreadJoin { child: T1 });
        b.push(T0, st, EventKind::ThreadJoin { child: t2 });
        b.finish()
    }

    /// The sweep's test set, deliberately not in first-edit order: an edit
    /// at the last event, an empty patch, a mid-trace flush+fence, an edit
    /// at event 0, a removal-only patch, and the mid-trace patch again.
    fn patch_set(trace: &Trace) -> Vec<EventPatch> {
        let n = trace.events.len() as u64;
        let fence = |ev: Event| SyntheticEvent {
            tid: ev.tid,
            stack: ev.stack,
            kind: EventKind::Fence,
        };
        let kind_after = |from: u64, want: fn(&EventKind) -> bool| {
            (from..n)
                .map(|s| trace.events.get(s as usize))
                .find(|ev| want(&ev.kind))
                .expect("the trace has the wanted event")
        };
        let mut last = EventPatch::new();
        last.insert_after(n - 1, fence(trace.events.get(n as usize - 1)));
        let mut first = EventPatch::new();
        first.insert_before(0, fence(trace.events.get(0)));
        let store = kind_after(n / 2, |k| matches!(k, EventKind::Store { .. }));
        let EventKind::Store { range, .. } = store.kind else {
            unreachable!("found a store")
        };
        let mut mid = EventPatch::new();
        mid.insert_after(
            store.seq,
            SyntheticEvent {
                kind: EventKind::Flush { addr: range.start },
                ..fence(store)
            },
        );
        mid.insert_after(store.seq, fence(store));
        let mut removal = EventPatch::new();
        removal.remove(kind_after(n / 3, |k| matches!(k, EventKind::Fence)).seq);
        vec![last, EventPatch::new(), mid.clone(), first, removal, mid]
    }

    fn assert_same(swept: &AccessSet, full: &AccessSet, patch: usize) {
        assert_eq!(swept.windows, full.windows, "windows of patch {patch}");
        assert_eq!(swept.loads, full.loads, "loads of patch {patch}");
        assert_eq!(swept.stats, full.stats, "stats of patch {patch}");
        assert_eq!(swept.epochs, full.epochs, "epochs of patch {patch}");
        assert_eq!(swept.epoch_sound, full.epoch_sound);
        let (ls, vc) = (swept.locksets.iter(), swept.vclocks.iter());
        assert!(ls.eq(full.locksets.iter()), "locksets of patch {patch}");
        assert!(vc.eq(full.vclocks.iter()), "vclocks of patch {patch}");
    }

    /// Runs the sweep over [`patch_set`] and checks every access set
    /// against the independent full replay; returns the unpatched one.
    fn sweep_matches_full_replays(trace: &Trace, cfg: &SimConfig) -> AccessSet {
        let view = TraceView::full(trace);
        let patches = patch_set(trace);
        let mut seen = vec![0; patches.len()];
        simulate_patches(&view, &patches, cfg, |i, swept| {
            seen[i] += 1;
            assert_same(&swept, &simulate_patched(&view, &patches[i], cfg), i);
        });
        assert_eq!(seen, vec![1; patches.len()], "one access set per patch");
        simulate_patched(&view, &EventPatch::new(), cfg)
    }

    #[test]
    fn sweep_equals_full_replay_of_each_patch() {
        let base = sweep_matches_full_replays(&busy_trace(10), &SimConfig::default());
        let s = &base.stats;
        assert!(s.windows_persisted > 0 && s.windows_overwritten > 0 && s.windows_unpersisted > 0);
    }

    #[test]
    fn sweep_equals_full_replay_under_a_memory_budget() {
        // Long enough for several budget checks, which run on a fixed
        // event cadence that a fork must carry on from the prefix.
        let trace = busy_trace(100);
        assert!(trace.events.len() as u64 > 3 * MEMORY_CHECK_INTERVAL);
        let cfg = SimConfig {
            memory_budget: Some(4096),
            ..SimConfig::default()
        };
        let base = sweep_matches_full_replays(&trace, &cfg);
        assert!(base.stats.memory_budget_hit && base.stats.windows_evicted > 0);
    }

    #[test]
    fn first_edit_is_the_first_touched_event() {
        let trace = busy_trace(10);
        let view = TraceView::full(&trace);
        let n = trace.events.len();
        let patches = patch_set(&trace);
        assert_eq!(patches[0].first_edit(&view), n - 1);
        assert_eq!(patches[1].first_edit(&view), n, "an empty patch");
        assert_eq!(patches[3].first_edit(&view), 0);
        // Keys naming no recorded event edit nothing.
        let mut stray = EventPatch::new();
        stray.remove(n as u64 + 5);
        assert_eq!(stray.first_edit(&view), n);
    }
}
