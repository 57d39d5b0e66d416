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
//! The rules mirror `memsim`: a store dirties bytes; a flush snapshots the
//! currently dirty bytes of one cache line for the flushing thread; a fence
//! commits that thread's snapshots to the persistent image. Bytes
//! overwritten between flush and fence lose their guarantee (neither old
//! nor new value is certain to land), so overwrites punch holes in pending
//! snapshots exactly like they truncate analysis windows.

use std::collections::HashMap;

use hawkset_core::addr::{line_of, AddrRange, LineId};
use hawkset_core::trace::ThreadId;

/// One unpersisted (dirty) write.
#[derive(Clone, Debug)]
struct DirtyEntry {
    /// Bytes covered (always within one cache line).
    range: AddrRange,
    /// Writing thread.
    tid: ThreadId,
    /// Function name of the store site (for observation attribution).
    store_fn: &'static str,
    /// Once flushed: the captured bytes and the threads whose fence commits
    /// them. `None` until a flush covers the line (or from the start for
    /// non-temporal stores, which carry their own bytes).
    snapshot: Option<Snapshot>,
}

#[derive(Clone, Debug)]
struct Snapshot {
    /// Captured content of `range` at flush time.
    bytes: Vec<u8>,
    /// Threads whose next fence commits this snapshot.
    flushers: Vec<ThreadId>,
}

/// Worst-case persistence tracking over the whole PM address space.
#[derive(Debug, Default)]
pub struct ShadowPm {
    lines: HashMap<LineId, Vec<DirtyEntry>>,
    /// Lines each thread has pending snapshots on.
    fence_watch: HashMap<ThreadId, Vec<LineId>>,
}

/// A committed write: apply these bytes to the persistent image.
#[derive(Debug, PartialEq, Eq)]
pub struct CommittedWrite {
    /// Where the bytes land.
    pub range: AddrRange,
    /// The byte content guaranteed persisted.
    pub bytes: Vec<u8>,
}

impl ShadowPm {
    /// Creates an empty shadow (everything clean).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a store of `bytes.len()` bytes at `range.start` by `tid`.
    ///
    /// `bytes` is only retained for non-temporal stores (`non_temporal`),
    /// which are immediately pending on the storing thread's fence.
    pub fn store(&mut self, tid: ThreadId, range: AddrRange, bytes: &[u8], non_temporal: bool) {
        self.store_with_site(tid, range, bytes, non_temporal, "<unknown>");
    }

    /// Like [`ShadowPm::store`], attributing the write to a named site.
    pub fn store_with_site(
        &mut self,
        tid: ThreadId,
        range: AddrRange,
        bytes: &[u8],
        non_temporal: bool,
        store_fn: &'static str,
    ) {
        debug_assert_eq!(bytes.len(), range.len as usize);
        for line in range.lines() {
            let entries = self.lines.entry(line).or_default();
            let mut replacement = Vec::with_capacity(entries.len() + 1);
            for entry in entries.drain(..) {
                if !entry.range.overlaps(&range) {
                    replacement.push(entry);
                    continue;
                }
                // Overwritten bytes lose any persistence guarantee.
                let (head, tail) = entry.range.subtract(&range);
                for piece in [head, tail].into_iter().flatten() {
                    replacement.push(DirtyEntry {
                        range: piece,
                        tid: entry.tid,
                        store_fn: entry.store_fn,
                        snapshot: entry.snapshot.as_ref().map(|s| Snapshot {
                            bytes: slice_snapshot(&entry.range, &s.bytes, &piece),
                            flushers: s.flushers.clone(),
                        }),
                    });
                }
            }
            *entries = replacement;
            // The part of the store that falls on this line.
            let start = hawkset_core::addr::line_base(line).max(range.start);
            let end = (hawkset_core::addr::line_base(line) + hawkset_core::addr::CACHE_LINE)
                .min(range.end());
            let piece = AddrRange::new(start, (end - start) as u32);
            let snapshot = non_temporal.then(|| Snapshot {
                bytes: slice_snapshot(&range, bytes, &piece),
                flushers: vec![tid],
            });
            if non_temporal {
                self.fence_watch.entry(tid).or_default().push(line);
            }
            entries.push(DirtyEntry {
                range: piece,
                tid,
                store_fn,
                snapshot,
            });
        }
    }

    /// Records a flush by `tid` of the line containing `addr`; `line_bytes`
    /// must provide the current volatile content of that line (base at the
    /// line start).
    pub fn flush(&mut self, tid: ThreadId, addr: u64, line_bytes: &[u8; 64]) {
        let line = line_of(addr);
        let base = hawkset_core::addr::line_base(line);
        let Some(entries) = self.lines.get_mut(&line) else {
            return;
        };
        let mut watched = false;
        for entry in entries.iter_mut() {
            match &mut entry.snapshot {
                Some(s) => {
                    if !s.flushers.contains(&tid) {
                        s.flushers.push(tid);
                    }
                }
                None => {
                    let off = (entry.range.start - base) as usize;
                    entry.snapshot = Some(Snapshot {
                        bytes: line_bytes[off..off + entry.range.len as usize].to_vec(),
                        flushers: vec![tid],
                    });
                }
            }
            watched = true;
        }
        if watched {
            self.fence_watch.entry(tid).or_default().push(line);
        }
    }

    /// Records a fence by `tid`: returns the writes that are now guaranteed
    /// persistent, to be applied to the persistent image in order.
    pub fn fence(&mut self, tid: ThreadId) -> Vec<CommittedWrite> {
        let Some(mut lines) = self.fence_watch.remove(&tid) else {
            return Vec::new();
        };
        lines.sort_unstable();
        lines.dedup();
        let mut committed = Vec::new();
        for line in lines {
            let Some(entries) = self.lines.get_mut(&line) else {
                continue;
            };
            let mut kept = Vec::with_capacity(entries.len());
            for entry in entries.drain(..) {
                match &entry.snapshot {
                    Some(s) if s.flushers.contains(&tid) => {
                        committed.push(CommittedWrite {
                            range: entry.range,
                            bytes: s.bytes.clone(),
                        });
                    }
                    _ => kept.push(entry),
                }
            }
            *entries = kept;
            if self.lines.get(&line).is_some_and(|e| e.is_empty()) {
                self.lines.remove(&line);
            }
        }
        committed
    }

    /// Returns the writer of some unpersisted byte overlapping `range`
    /// written by a thread other than `reader`, if any — the
    /// observation-based detector's trigger condition.
    pub fn unpersisted_foreign_writer(
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
    pub fn is_clean(&self, range: &AddrRange) -> bool {
        range.lines().all(|line| {
            self.lines
                .get(&line)
                .is_none_or(|entries| entries.iter().all(|e| !e.range.overlaps(range)))
        })
    }

    /// Number of dirty entries (cost accounting / tests).
    pub fn dirty_entries(&self) -> usize {
        self.lines.values().map(Vec::len).sum()
    }
}

/// Extracts the sub-slice of `bytes` (which covers `whole`) for `piece`.
fn slice_snapshot(whole: &AddrRange, bytes: &[u8], piece: &AddrRange) -> Vec<u8> {
    let off = (piece.start - whole.start) as usize;
    bytes[off..off + piece.len as usize].to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);

    fn line_content(fill: u8) -> [u8; 64] {
        [fill; 64]
    }

    #[test]
    fn store_flush_fence_commits_bytes() {
        let mut s = ShadowPm::new();
        s.store(T0, AddrRange::new(0x100, 8), &[7; 8], false);
        assert!(!s.is_clean(&AddrRange::new(0x100, 8)));
        s.flush(T0, 0x100, &line_content(7));
        let w = s.fence(T0);
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].range, AddrRange::new(0x100, 8));
        assert_eq!(w[0].bytes, vec![7; 8]);
        assert!(s.is_clean(&AddrRange::new(0x100, 8)));
    }

    #[test]
    fn fence_by_non_flusher_commits_nothing() {
        let mut s = ShadowPm::new();
        s.store(T0, AddrRange::new(0x100, 8), &[7; 8], false);
        s.flush(T0, 0x100, &line_content(7));
        assert!(s.fence(T1).is_empty());
        assert!(!s.is_clean(&AddrRange::new(0x100, 8)));
        assert_eq!(s.fence(T0).len(), 1);
    }

    #[test]
    fn overwrite_after_flush_voids_the_guarantee() {
        let mut s = ShadowPm::new();
        s.store(T0, AddrRange::new(0x100, 8), &[1; 8], false);
        s.flush(T0, 0x100, &line_content(1));
        // Overwrite before the fence: neither value is guaranteed.
        s.store(T1, AddrRange::new(0x100, 8), &[2; 8], false);
        assert!(s.fence(T0).is_empty());
        assert_eq!(
            s.unpersisted_foreign_writer(T0, &AddrRange::new(0x100, 8))
                .map(|(t, _)| t),
            Some(T1)
        );
    }

    #[test]
    fn partial_overwrite_commits_surviving_bytes() {
        let mut s = ShadowPm::new();
        s.store(T0, AddrRange::new(0x100, 16), &[1; 16], false);
        s.flush(T0, 0x100, &line_content(1));
        s.store(T0, AddrRange::new(0x108, 8), &[2; 8], false);
        let w = s.fence(T0);
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].range, AddrRange::new(0x100, 8));
        assert_eq!(w[0].bytes, vec![1; 8]);
        // The overwriting store remains dirty.
        assert!(!s.is_clean(&AddrRange::new(0x108, 8)));
    }

    #[test]
    fn non_temporal_store_commits_at_own_fence() {
        let mut s = ShadowPm::new();
        s.store(T0, AddrRange::new(0x100, 8), &[9; 8], true);
        let w = s.fence(T0);
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].bytes, vec![9; 8]);
    }

    #[test]
    fn foreign_writer_detection() {
        let mut s = ShadowPm::new();
        s.store(T0, AddrRange::new(0x100, 8), &[1; 8], false);
        // Reading your own dirty data is fine.
        assert!(s
            .unpersisted_foreign_writer(T0, &AddrRange::new(0x100, 8))
            .is_none());
        // Another thread reading it is the PMRace trigger.
        assert_eq!(
            s.unpersisted_foreign_writer(T1, &AddrRange::new(0x100, 8))
                .map(|(t, _)| t),
            Some(T0)
        );
        // Disjoint reads see nothing.
        assert!(s
            .unpersisted_foreign_writer(T1, &AddrRange::new(0x200, 8))
            .is_none());
        // Once persisted the observation window is gone.
        s.flush(T0, 0x100, &line_content(1));
        s.fence(T0);
        assert!(s
            .unpersisted_foreign_writer(T1, &AddrRange::new(0x100, 8))
            .is_none());
    }

    #[test]
    fn cross_line_store_tracks_both_lines() {
        let mut s = ShadowPm::new();
        s.store(T0, AddrRange::new(0x138, 16), &[5; 16], false);
        s.flush(T0, 0x138, &line_content(5)); // first line only
        let w = s.fence(T0);
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].range, AddrRange::new(0x138, 8));
        assert!(!s.is_clean(&AddrRange::new(0x140, 8)));
    }
}
