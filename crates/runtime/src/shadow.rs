//! Runtime shadow persistence state.
//!
//! While the analysis-side memory simulation ([`hawkset_core::memsim`])
//! replays a finished trace, the runtime needs the same worst-case
//! semantics *online* for two purposes:
//!
//! * building the **crash image** — the byte content guaranteed to be in PM
//!   at any instant, used by crash-consistency examples and recovery tests;
//! * the **observation-based baseline** (the `pmrace` crate), which flags a
//!   race only when a load actually reads bytes that another thread wrote
//!   and has not yet persisted.
//!
//! The rules mirror `memsim`: a store dirties bytes; a flush marks the
//! currently dirty bytes of one cache line for the flushing thread's next
//! fence; that fence commits them to the persistent image. Bytes
//! overwritten between flush and fence lose their guarantee (neither old
//! nor new value is certain to land), so overwrites punch holes in pending
//! entries exactly like they truncate analysis windows.
//!
//! **The overwrite rule.** Every store first removes the bytes it writes
//! from every dirty entry (splitting an entry in place when the store
//! lands inside it), and only then records its own entry. So a dirty
//! entry's bytes never change while it is dirty: the volatile image at an
//! entry's range is exactly what its store wrote. That is why the shadow
//! keeps no bytes at all. A flush only adds its thread to the entries of
//! the line, and a fence hands back the ranges it commits; the caller
//! copies those ranges from the volatile image to the persistent one, and
//! reads the same bytes a snapshot taken at the flush (or at a
//! non-temporal store) would have held.

use hawkset_core::addr::{line_base, line_of, AddrRange, LineId, CACHE_LINE};
use hawkset_core::hash::FxHashMap;
use hawkset_core::trace::ThreadId;

/// A set of thread ids: a bitmask for ids below 64, a list above (empty,
/// so never allocated, in ordinary runs).
#[derive(Clone, Debug, Default)]
struct ThreadSet {
    low: u64,
    high: Vec<ThreadId>,
}

impl ThreadSet {
    fn insert(&mut self, tid: ThreadId) {
        if tid.0 < 64 {
            self.low |= 1 << tid.0;
        } else if !self.high.contains(&tid) {
            self.high.push(tid);
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

/// One unpersisted (dirty) write.
#[derive(Clone, Debug)]
struct DirtyEntry {
    /// Bytes covered (always within one cache line).
    range: AddrRange,
    /// Writing thread.
    tid: ThreadId,
    /// Function name of the store site (for observation attribution).
    store_fn: &'static str,
    /// Threads whose next fence commits these bytes: those that flushed
    /// the line since the store, and the storing thread itself for a
    /// non-temporal store. Empty until then.
    flushers: ThreadSet,
}

/// Worst-case persistence tracking over the whole PM address space.
#[derive(Debug, Default)]
pub(crate) struct ShadowPm {
    /// Dirty entries per line, in store order. Lookup-only: nothing
    /// iterates the map, and `fence` visits its lines sorted.
    lines: FxHashMap<LineId, Vec<DirtyEntry>>,
    /// Emptied entry lists, reused for the next line that turns dirty so
    /// a store–flush–fence cycle allocates nothing. Never longer than the
    /// most lines ever dirty at once.
    spare: Vec<Vec<DirtyEntry>>,
    /// Lines each thread has pending entries on; kept (cleared) across
    /// fences for the same reason.
    fence_watch: FxHashMap<ThreadId, Vec<LineId>>,
}

impl ShadowPm {
    /// Creates an empty shadow (everything clean).
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Records a store to `range` by `tid` at the site named `store_fn`.
    /// A non-temporal store is pending on the storing thread's next fence
    /// at once.
    pub(crate) fn store(
        &mut self,
        tid: ThreadId,
        range: AddrRange,
        non_temporal: bool,
        store_fn: &'static str,
    ) {
        for line in range.lines() {
            // The part of the store that falls on this line.
            let base = line_base(line);
            let start = base.max(range.start);
            let end = (base + CACHE_LINE).min(range.end());
            let piece = AddrRange::new(start, (end - start) as u32);
            let spare = &mut self.spare;
            let entries = self
                .lines
                .entry(line)
                .or_insert_with(|| spare.pop().unwrap_or_default());
            // Overwritten bytes lose any persistence guarantee: cut them
            // out of every entry, keeping the survivors in place.
            let mut i = 0;
            while i < entries.len() {
                let entry = &mut entries[i];
                if !entry.range.overlaps(&piece) {
                    i += 1;
                    continue;
                }
                match entry.range.subtract(&piece) {
                    (None, None) => {
                        entries.remove(i);
                    }
                    (Some(head), Some(tail)) => {
                        entry.range = head;
                        let tail = DirtyEntry {
                            range: tail,
                            ..entry.clone()
                        };
                        entries.insert(i + 1, tail);
                        i += 2;
                    }
                    (Some(rest), None) | (None, Some(rest)) => {
                        entry.range = rest;
                        i += 1;
                    }
                }
            }
            let mut flushers = ThreadSet::default();
            if non_temporal {
                flushers.insert(tid);
            }
            entries.push(DirtyEntry {
                range: piece,
                tid,
                store_fn,
                flushers,
            });
            if non_temporal {
                self.watch(tid, line);
            }
        }
    }

    /// Records a flush by `tid` of the line containing `addr`: the line's
    /// dirty bytes become pending on `tid`'s next fence.
    pub(crate) fn flush(&mut self, tid: ThreadId, addr: u64) {
        let line = line_of(addr);
        let Some(entries) = self.lines.get_mut(&line) else {
            return;
        };
        for entry in entries.iter_mut() {
            entry.flushers.insert(tid);
        }
        self.watch(tid, line);
    }

    /// Notes that `tid` has pending entries on `line`.
    fn watch(&mut self, tid: ThreadId, line: LineId) {
        let lines = self.fence_watch.entry(tid).or_default();
        if lines.last() != Some(&line) {
            lines.push(line);
        }
    }

    /// Records a fence by `tid`: hands `commit` every range that is now
    /// guaranteed persistent. The ranges are disjoint; the persistent
    /// image takes the volatile image's bytes there (see the module docs).
    pub(crate) fn fence(&mut self, tid: ThreadId, mut commit: impl FnMut(AddrRange)) {
        let Some(watched) = self.fence_watch.get_mut(&tid) else {
            return;
        };
        watched.sort_unstable();
        watched.dedup();
        for line in watched.drain(..) {
            let Some(entries) = self.lines.get_mut(&line) else {
                continue;
            };
            entries.retain(|entry| {
                let committed = entry.flushers.contains(tid);
                if committed {
                    commit(entry.range);
                }
                !committed
            });
            if entries.is_empty() {
                let emptied = self.lines.remove(&line).expect("line present");
                self.spare.push(emptied);
            }
        }
    }

    /// Returns the writer of some unpersisted byte overlapping `range`
    /// written by a thread other than `reader`, if any — the
    /// observation-based detector's trigger condition.
    pub(crate) fn unpersisted_foreign_writer(
        &self,
        reader: ThreadId,
        range: &AddrRange,
    ) -> Option<(ThreadId, &'static str)> {
        for line in range.lines() {
            if let Some(entries) = self.lines.get(&line) {
                for e in entries {
                    if e.tid != reader && e.range.overlaps(range) {
                        return Some((e.tid, e.store_fn));
                    }
                }
            }
        }
        None
    }

    /// Returns `true` if no byte of `range` is dirty (everything written
    /// there is guaranteed persisted).
    #[cfg(test)]
    pub(crate) fn is_clean(&self, range: &AddrRange) -> bool {
        range.lines().all(|line| {
            self.lines
                .get(&line)
                .is_none_or(|entries| entries.iter().all(|e| !e.range.overlaps(range)))
        })
    }

    /// Number of dirty entries.
    #[cfg(test)]
    pub(crate) fn dirty_entries(&self) -> usize {
        self.lines.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::PmEnv;
    use crate::pool::PmPool;
    use crate::thread::PmThread;

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);

    /// One pool and two thread contexts (tids 0 and 1) on one OS thread:
    /// the shadow is driven through the environment, and the bytes a fence
    /// commits are read back from the pool's crash image. Offsets are
    /// relative to the pool base, which is line-aligned.
    struct Rig {
        env: PmEnv,
        pool: PmPool,
        threads: [PmThread; 2],
    }

    impl Rig {
        fn new() -> Self {
            let env = PmEnv::new();
            let pool = env.map_pool("/mnt/pmem/shadow", 4096);
            let threads = [
                PmThread::new(env.clone(), T0),
                PmThread::new(env.clone(), T1),
            ];
            Self { env, pool, threads }
        }

        fn t(&self, tid: ThreadId) -> &PmThread {
            &self.threads[tid.0 as usize]
        }

        fn range(&self, off: u64, len: u32) -> AddrRange {
            AddrRange::new(self.pool.base() + off, len)
        }

        fn store(&self, tid: ThreadId, off: u64, bytes: &[u8]) {
            self.pool
                .store_bytes(self.t(tid), self.pool.base() + off, bytes);
        }

        fn store_nt(&self, tid: ThreadId, off: u64, bytes: &[u8]) {
            self.pool
                .store_bytes_nt(self.t(tid), self.pool.base() + off, bytes);
        }

        fn flush(&self, tid: ThreadId, off: u64) {
            self.pool.flush(self.t(tid), self.pool.base() + off);
        }

        fn fence(&self, tid: ThreadId) {
            self.t(tid).fence();
        }

        fn is_clean(&self, off: u64, len: u32) -> bool {
            let range = self.range(off, len);
            self.env.with_shadow(|s| s.is_clean(&range))
        }

        fn foreign_writer(&self, reader: ThreadId, off: u64, len: u32) -> Option<ThreadId> {
            let range = self.range(off, len);
            self.env
                .with_shadow(|s| s.unpersisted_foreign_writer(reader, &range))
                .map(|(t, _)| t)
        }

        /// The crash image's bytes at `[off, off + len)`.
        fn durable(&self, off: u64, len: usize) -> Vec<u8> {
            self.pool.crash_image()[off as usize..off as usize + len].to_vec()
        }

        /// The offsets of the crash image's nonzero bytes: exactly what
        /// every fence so far committed, when every stored byte is nonzero.
        fn durable_offsets(&self) -> Vec<u64> {
            let image = self.pool.crash_image();
            (0..image.len() as u64)
                .filter(|&o| image[o as usize] != 0)
                .collect()
        }
    }

    fn offsets(off: u64, len: u64) -> Vec<u64> {
        (off..off + len).collect()
    }

    #[test]
    fn store_flush_fence_commits_bytes() {
        let r = Rig::new();
        r.store(T0, 0x100, &[7; 8]);
        assert!(!r.is_clean(0x100, 8));
        r.flush(T0, 0x100);
        r.fence(T0);
        assert_eq!(r.durable_offsets(), offsets(0x100, 8));
        assert_eq!(r.durable(0x100, 8), vec![7; 8]);
        assert!(r.is_clean(0x100, 8));
    }

    #[test]
    fn fence_by_non_flusher_commits_nothing() {
        let r = Rig::new();
        r.store(T0, 0x100, &[7; 8]);
        r.flush(T0, 0x100);
        r.fence(T1);
        assert!(r.durable_offsets().is_empty());
        assert!(!r.is_clean(0x100, 8));
        r.fence(T0);
        assert_eq!(r.durable_offsets(), offsets(0x100, 8));
    }

    #[test]
    fn overwrite_after_flush_voids_the_guarantee() {
        let r = Rig::new();
        r.store(T0, 0x100, &[1; 8]);
        r.flush(T0, 0x100);
        // Overwrite before the fence: neither value is guaranteed.
        r.store(T1, 0x100, &[2; 8]);
        r.fence(T0);
        assert!(r.durable_offsets().is_empty());
        assert_eq!(r.foreign_writer(T0, 0x100, 8), Some(T1));
    }

    #[test]
    fn partial_overwrite_commits_surviving_bytes() {
        let r = Rig::new();
        r.store(T0, 0x100, &[1; 16]);
        r.flush(T0, 0x100);
        r.store(T0, 0x108, &[2; 8]);
        r.fence(T0);
        assert_eq!(r.durable_offsets(), offsets(0x100, 8));
        assert_eq!(r.durable(0x100, 8), vec![1; 8]);
        // The overwriting store remains dirty.
        assert!(!r.is_clean(0x108, 8));
    }

    #[test]
    fn overwrite_inside_an_entry_keeps_both_ends() {
        let r = Rig::new();
        r.store(T0, 0x100, &[1; 24]);
        r.flush(T0, 0x100);
        r.store(T1, 0x108, &[2; 8]);
        r.fence(T0);
        let mut want = offsets(0x100, 8);
        want.extend(offsets(0x110, 8));
        assert_eq!(r.durable_offsets(), want);
        assert_eq!(r.durable(0x100, 24), [[1; 8], [0; 8], [1; 8]].concat());
        assert_eq!(r.env.with_shadow(ShadowPm::dirty_entries), 1);
    }

    #[test]
    fn non_temporal_store_commits_at_own_fence() {
        let r = Rig::new();
        r.store_nt(T0, 0x100, &[9; 8]);
        r.fence(T1);
        assert!(r.durable_offsets().is_empty());
        r.fence(T0);
        assert_eq!(r.durable_offsets(), offsets(0x100, 8));
        assert_eq!(r.durable(0x100, 8), vec![9; 8]);
    }

    #[test]
    fn foreign_writer_detection() {
        let r = Rig::new();
        r.store(T0, 0x100, &[1; 8]);
        // Reading your own dirty data is fine.
        assert!(r.foreign_writer(T0, 0x100, 8).is_none());
        // Another thread reading it is the PMRace trigger.
        assert_eq!(r.foreign_writer(T1, 0x100, 8), Some(T0));
        // Disjoint reads see nothing.
        assert!(r.foreign_writer(T1, 0x200, 8).is_none());
        // Once persisted the observation window is gone.
        r.flush(T0, 0x100);
        r.fence(T0);
        assert!(r.foreign_writer(T1, 0x100, 8).is_none());
    }

    #[test]
    fn cross_line_store_tracks_both_lines() {
        let r = Rig::new();
        r.store(T0, 0x138, &[5; 16]);
        r.flush(T0, 0x138); // first line only
        r.fence(T0);
        assert_eq!(r.durable_offsets(), offsets(0x138, 8));
        assert_eq!(r.durable(0x138, 8), vec![5; 8]);
        assert!(!r.is_clean(0x140, 8));
    }

    /// The ranges `tid`'s fence commits, in the order `fence` hands them.
    fn fenced(s: &mut ShadowPm, tid: ThreadId) -> Vec<AddrRange> {
        let mut ranges = Vec::new();
        s.fence(tid, |r| ranges.push(r));
        ranges
    }

    #[test]
    fn thread_ids_past_the_bitmask_use_the_flusher_list() {
        let (t8, t64, t200) = (ThreadId(8), ThreadId(64), ThreadId(200));
        let mut s = ShadowPm::new();
        let [a, b, c, d] = [0x100, 0x108, 0x110, 0x118].map(|at| AddrRange::new(at, 8));
        s.store(T0, a, false, "a");
        s.flush(t200, 0x100);
        s.store(t64, b, true, "b");
        // 64 and 200 share their low six bits with 0 and 8: fences by
        // those threads on the same line commit only their own entries.
        s.store(T0, c, true, "c");
        s.store(t8, d, true, "d");
        assert_eq!(fenced(&mut s, T0), vec![c]);
        assert_eq!(fenced(&mut s, t8), vec![d]);
        assert_eq!(fenced(&mut s, t64), vec![b]);
        assert_eq!(fenced(&mut s, t200), vec![a]);
        assert_eq!(s.dirty_entries(), 0);
        // Both flush one line: each fence commits what its flush covered.
        s.store(t64, a, false, "a");
        s.flush(t64, 0x100);
        s.flush(t200, 0x100);
        s.store(t200, b, false, "b");
        assert_eq!(fenced(&mut s, t200), vec![a]);
        assert!(fenced(&mut s, t64).is_empty());
        assert!(!s.is_clean(&b));
        assert_eq!(s.unpersisted_foreign_writer(t64, &b), Some((t200, "b")));
    }
}
