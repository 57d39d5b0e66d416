//! The worst-case persistence rules, in one place (§2.1, §3.2 Ⓐ).
//!
//! A store is durable only after a flush of its cache line and then a
//! fence by the flushing thread; a non-temporal store is durable at its
//! issuer's next fence; an overwrite voids whatever was pending on the
//! bytes it writes (neither the old nor the new value is certain to land).
//! Arbitrary cache evictions give no guarantee, so they are ignored.
//!
//! [`PersistLines`] keeps, per cache line and in store order, the entries
//! these rules leave open, each with a payload its user chooses. The
//! simulator ([`crate::memsim`]) keeps a store's seq, stack, lockset and
//! clock, and turns overwritten and committed entries into store windows.
//! The runtime keeps the store's site: its fences copy each committed
//! range from the volatile image to the persistent one, and its observer
//! asks which open entries a load overlaps.
//!
//! **The overwrite rule.** Every store first cuts the bytes it writes out
//! of every open entry on the line, splitting an entry in place when the
//! store lands inside it, and only then records its own entry. So an
//! entry's bytes never change while it is open: the volatile image at an
//! entry's range is exactly what its store wrote, and a fence that
//! commits it reads the bytes a snapshot taken at the flush (or at the
//! non-temporal store) would have held.

use crate::addr::{AddrRange, LineId};
use crate::hash::FxHashMap;
use crate::trace::ThreadId;

use super::line_pieces;

/// A set of thread ids: a bitmask for ids below 64, a list above (empty,
/// so never allocated, in ordinary traces). The list is a boxed slice, not
/// a `Vec`, to keep the simulator's [`Entry`] at 72 bytes: the memory
/// budget charges that size per open entry, so a larger entry would move
/// where a budgeted run starts evicting.
#[derive(Clone, Debug, Default)]
struct ThreadSet {
    low: u64,
    high: Box<[ThreadId]>,
}

impl ThreadSet {
    fn insert(&mut self, tid: ThreadId) {
        if tid.0 < 64 {
            self.low |= 1 << tid.0;
        } else if !self.high.contains(&tid) {
            let mut high = std::mem::take(&mut self.high).into_vec();
            high.push(tid);
            self.high = high.into_boxed_slice();
        }
    }

    fn contains(&self, tid: ThreadId) -> bool {
        if tid.0 < 64 {
            self.low & (1 << tid.0) != 0
        } else {
            self.high.contains(&tid)
        }
    }
}

/// An open entry: the part of one store on one cache line that is neither
/// durable nor overwritten.
#[derive(Clone, Debug)]
pub struct Entry<P> {
    /// The bytes it covers, within one cache line.
    pub range: AddrRange,
    /// The thread that stored them.
    pub tid: ThreadId,
    /// Threads whose next fence commits the entry: those that flushed the
    /// line since the store, and the writer of a non-temporal store.
    pending: ThreadSet,
    /// What the user keeps about the store.
    pub payload: P,
}

/// The open entries of every cache line, and each thread's fence watch.
#[derive(Clone, Debug)]
pub struct PersistLines<P> {
    /// Open entries per line, in store order. Probe-only: fences visit
    /// their lines sorted and [`drain_sorted`](Self::drain_sorted) sorts,
    /// so the fast deterministic hasher is safe.
    lines: FxHashMap<LineId, Vec<Entry<P>>>,
    /// Emptied entry lists, reused for the next line that gains an entry,
    /// so a store–flush–fence cycle allocates nothing. Never longer than
    /// the most lines ever open at once.
    spare: Vec<Vec<Entry<P>>>,
    /// Per thread, by index: the lines that may hold entries pending on
    /// its next fence, in push order (see [`watch`](Self::watch)). Kept,
    /// cleared, across fences for the same reason.
    watches: Vec<Vec<LineId>>,
}

impl<P> Default for PersistLines<P> {
    fn default() -> Self {
        Self {
            lines: FxHashMap::default(),
            spare: Vec::new(),
            watches: Vec::new(),
        }
    }
}

impl<P: Clone> PersistLines<P> {
    /// Creates an empty set of lines: everything durable.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a store by `tid` to `range`: one entry per cache line it
    /// touches, each carrying `payload`. On each line the stored bytes are
    /// first cut out of every open entry, in store order, handing
    /// `overwritten` each entry hit with the part it loses; the rest of
    /// the entry stays open in place. A non-temporal store's entries are
    /// pending on `tid`'s next fence at once.
    pub fn store(
        &mut self,
        tid: ThreadId,
        range: AddrRange,
        non_temporal: bool,
        payload: P,
        mut overwritten: impl FnMut(&Entry<P>, AddrRange),
    ) {
        for (line, piece) in line_pieces(range) {
            let spare = &mut self.spare;
            let entries = self
                .lines
                .entry(line)
                .or_insert_with(|| spare.pop().unwrap_or_default());
            let mut i = 0;
            while i < entries.len() {
                let Some(hit) = entries[i].range.intersection(&piece) else {
                    i += 1;
                    continue;
                };
                overwritten(&entries[i], hit);
                match entries[i].range.subtract(&piece) {
                    (None, None) => {
                        entries.remove(i);
                    }
                    (Some(rest), None) | (None, Some(rest)) => {
                        entries[i].range = rest;
                        i += 1;
                    }
                    (Some(head), Some(tail)) => {
                        let tail = Entry {
                            range: tail,
                            ..entries[i].clone()
                        };
                        entries[i].range = head;
                        entries.insert(i + 1, tail);
                        i += 2;
                    }
                }
            }
            let mut pending = ThreadSet::default();
            if non_temporal {
                pending.insert(tid);
            }
            entries.push(Entry {
                range: piece,
                tid,
                pending,
                payload: payload.clone(),
            });
            if non_temporal {
                self.watch(tid, line);
            }
        }
    }

    /// Records a flush of `line` by `tid`: every open entry on the line
    /// becomes pending on `tid`'s next fence. Returns `false`, and does
    /// nothing, when the line has no open entry.
    pub fn flush(&mut self, tid: ThreadId, line: LineId) -> bool {
        let Some(entries) = self.lines.get_mut(&line) else {
            return false;
        };
        for entry in entries.iter_mut() {
            entry.pending.insert(tid);
        }
        self.watch(tid, line);
        true
    }

    /// Records a fence by `tid`: hands `committed` every entry pending on
    /// it, in ascending line order and in store order within a line, and
    /// drops them. The committed ranges are disjoint.
    pub fn fence(&mut self, tid: ThreadId, mut committed: impl FnMut(&Entry<P>)) {
        let Some(watch) = self.watches.get_mut(tid.index()) else {
            return;
        };
        let mut watched = std::mem::take(watch);
        watched.sort_unstable();
        watched.dedup();
        for &line in &watched {
            let Some(entries) = self.lines.get_mut(&line) else {
                continue;
            };
            entries.retain(|entry| {
                let commit = entry.pending.contains(tid);
                if commit {
                    committed(entry);
                }
                !commit
            });
            if entries.is_empty() {
                let emptied = self.lines.remove(&line).expect("line present");
                self.spare.push(emptied);
            }
        }
        watched.clear();
        self.watches[tid.index()] = watched;
    }

    /// The open entries that overlap `range`, by line and in store order
    /// within a line.
    pub fn overlapping<'a>(&'a self, range: &'a AddrRange) -> impl Iterator<Item = &'a Entry<P>> {
        range
            .lines()
            .filter_map(|line| self.lines.get(&line))
            .flatten()
            .filter(|entry| entry.range.overlaps(range))
    }

    /// The number of open entries.
    pub fn open_entries(&self) -> usize {
        self.lines.values().map(Vec::len).sum()
    }

    /// Removes every open entry and yields it, in ascending line order and
    /// in store order within a line.
    pub fn drain_sorted(&mut self) -> impl Iterator<Item = Entry<P>> {
        let mut lines: Vec<_> = std::mem::take(&mut self.lines).into_iter().collect();
        lines.sort_unstable_by_key(|&(line, _)| line);
        lines.into_iter().flat_map(|(_, entries)| entries)
    }

    /// Adds `line` to `tid`'s fence watch. A repeat of the last line is
    /// skipped, and a full list is compacted before it grows, so a thread
    /// that keeps flushing without fencing holds about one entry per line.
    /// A compaction leaves room for as many pushes as it kept lines, so the
    /// sorting costs O(log n) per push however the flushes repeat.
    fn watch(&mut self, tid: ThreadId, line: LineId) {
        if self.watches.len() <= tid.index() {
            self.watches.resize_with(tid.index() + 1, Vec::new);
        }
        let lines = &mut self.watches[tid.index()];
        if lines.last() == Some(&line) {
            return;
        }
        if lines.len() == lines.capacity() {
            lines.sort_unstable();
            lines.dedup();
            lines.reserve(lines.len());
        }
        lines.push(line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::line_of;
    use crate::memsim::tests::{builder, sim, store};
    use crate::memsim::CloseReason;
    use crate::trace::EventKind;

    const T0: ThreadId = ThreadId(0);

    /// The runtime's queries, over the runtime's payload: the store's site.
    trait Shadow {
        fn dirty_entries(&self) -> usize;
        fn is_clean(&self, range: &AddrRange) -> bool;
        fn unpersisted_foreign_writer(
            &self,
            reader: ThreadId,
            range: &AddrRange,
        ) -> Option<(ThreadId, &'static str)>;
    }

    impl Shadow for PersistLines<&'static str> {
        fn dirty_entries(&self) -> usize {
            self.open_entries()
        }

        fn is_clean(&self, range: &AddrRange) -> bool {
            self.overlapping(range).next().is_none()
        }

        fn unpersisted_foreign_writer(
            &self,
            reader: ThreadId,
            range: &AddrRange,
        ) -> Option<(ThreadId, &'static str)> {
            self.overlapping(range)
                .find(|e| e.tid != reader)
                .map(|e| (e.tid, e.payload))
        }
    }

    /// The ranges `tid`'s fence commits, in the order `fence` hands them.
    fn fenced(s: &mut PersistLines<&'static str>, tid: ThreadId) -> Vec<AddrRange> {
        let mut ranges = Vec::new();
        s.fence(tid, |e| ranges.push(e.range));
        ranges
    }

    #[test]
    fn thread_ids_past_the_bitmask_use_the_flusher_list() {
        let (t8, t64, t200) = (ThreadId(8), ThreadId(64), ThreadId(200));
        let mut s = PersistLines::new();
        let [a, b, c, d] = [0x100, 0x108, 0x110, 0x118].map(|at| AddrRange::new(at, 8));
        let line = line_of(0x100);
        s.store(T0, a, false, "a", |_, _| {});
        s.flush(t200, line);
        s.store(t64, b, true, "b", |_, _| {});
        // 64 and 200 share their low six bits with 0 and 8: fences by
        // those threads on the same line commit only their own entries.
        s.store(T0, c, true, "c", |_, _| {});
        s.store(t8, d, true, "d", |_, _| {});
        assert_eq!(fenced(&mut s, T0), vec![c]);
        assert_eq!(fenced(&mut s, t8), vec![d]);
        assert_eq!(fenced(&mut s, t64), vec![b]);
        assert_eq!(fenced(&mut s, t200), vec![a]);
        assert_eq!(s.dirty_entries(), 0);
        // Both flush one line: each fence commits what its flush covered.
        s.store(t64, a, false, "a", |_, _| {});
        s.flush(t64, line);
        s.flush(t200, line);
        s.store(t200, b, false, "b", |_, _| {});
        assert_eq!(fenced(&mut s, t200), vec![a]);
        assert!(fenced(&mut s, t64).is_empty());
        assert!(!s.is_clean(&b));
        assert_eq!(s.unpersisted_foreign_writer(t64, &b), Some((t200, "b")));
    }

    #[test]
    fn fences_above_thread_64_close_their_own_pieces() {
        // Threads 3 and 70 each store into the same line, flush it and
        // fence; thread 6 (70 mod 64) fences in between. Thread 3's piece
        // is pending on both flushers, thread 70's on 70 alone, so each
        // closes at its own thread's fence and clock.
        let (t3, t6, t70) = (ThreadId(3), ThreadId(6), ThreadId(70));
        let mut b = builder();
        let s = b.intern_stack([]);
        for t in [t3, t6, t70] {
            b.push(T0, s, EventKind::ThreadCreate { child: t });
        }
        b.push(t3, s, store(AddrRange::new(0x100, 8)));
        b.push(t3, s, EventKind::Flush { addr: 0x100 });
        b.push(t70, s, store(AddrRange::new(0x108, 8)));
        b.push(t70, s, EventKind::Flush { addr: 0x100 });
        b.push(t3, s, EventKind::Fence);
        b.push(t6, s, EventKind::Fence);
        b.push(t70, s, EventKind::Fence);
        let out = sim(&b.finish());
        assert_eq!(out.windows.len(), 2);
        for (w, t) in out.windows.iter().zip([t3, t70]) {
            assert_eq!(w.tid, t);
            assert_eq!(w.close, CloseReason::Persisted);
            // No create or join between store and fence: the fencer's
            // clock is still the one the store was stamped with.
            assert_eq!(w.close_vc, Some(w.store_vc), "{t:?} closes its own piece");
        }
    }

    #[test]
    fn alternating_flushes_keep_the_watch_small_and_commit_once() {
        // A thread flushes two dirty lines in turn, 10,000 times, without
        // fencing: its watch stays a few lines long, and the one fence
        // commits each entry once.
        let mut s = PersistLines::new();
        let (a, b) = (AddrRange::new(0x100, 8), AddrRange::new(0x140, 8));
        s.store(T0, a, false, "a", |_, _| {});
        s.store(T0, b, false, "b", |_, _| {});
        for i in 0..10_000u64 {
            assert!(s.flush(T0, line_of(0x100 + (i % 2) * 0x40)));
            assert!(s.watches[T0.index()].len() <= 4, "flush {i}");
        }
        let mut committed = Vec::new();
        s.fence(T0, |e| committed.push((e.range, e.payload)));
        assert_eq!(committed, [(a, "a"), (b, "b")]);
        assert_eq!(s.open_entries(), 0);
        assert!(fenced(&mut s, T0).is_empty());
    }

    #[test]
    fn an_overwrite_hands_each_hit_entry_its_lost_part_once() {
        let mut s = PersistLines::new();
        s.store(T0, AddrRange::new(0x100, 24), false, "a", |_, _| {});
        s.store(T0, AddrRange::new(0x118, 8), false, "b", |_, _| {});
        let mut hits = Vec::new();
        s.store(T0, AddrRange::new(0x108, 24), false, "c", |e, hit| {
            hits.push((e.payload, hit))
        });
        assert_eq!(
            hits,
            [
                ("a", AddrRange::new(0x108, 16)),
                ("b", AddrRange::new(0x118, 8))
            ]
        );
        let open: Vec<_> = s.drain_sorted().map(|e| (e.payload, e.range)).collect();
        assert_eq!(
            open,
            [
                ("a", AddrRange::new(0x100, 8)),
                ("c", AddrRange::new(0x108, 24))
            ]
        );
    }
}
